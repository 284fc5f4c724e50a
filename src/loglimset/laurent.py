"""Exact Laurent polynomials over the rationals in named variables.

A polynomial is a sparse map from integer exponent vectors to nonzero
Fraction coefficients.  The variable order is explicit and carried by every
polynomial: the downstream geometry (Newton polytopes, boundary-slope
detection) is order-sensitive, so nothing here reorders variables silently.

The concrete text grammar accepted by :func:`parse` is

    expr   := ('+'|'-')? term (('+'|'-') term)*
    term   := factor ('*' factor)*
    factor := NUMBER | VAR ('^' SINT)? | '(' expr ')'
    NUMBER := INT ('/' INT)?          SINT := '-'? INT

with whitespace ignored, INT the ASCII digits ``[0-9]+`` and parentheses
nested at most ``MAX_NESTING`` levels deep.  Parsing is one pass into a term
map with int coefficients (Fraction only for ``a/b``), linear in the input.
``render`` emits terms in graded-lexicographic exponent order (highest
first) with explicit '*' and '^', and its output always reparses to the
same polynomial.
"""

from __future__ import annotations

import math
import operator
import re
from fractions import Fraction
from itertools import chain
from typing import Iterable, Iterator, Mapping, Sequence

from .exactgeom import int_entries

ExponentVector = tuple[int, ...]

# Exponents are kept well inside machine-word range; coefficients are
# arbitrary-precision rationals.
MAX_EXPONENT = 2**62

# Parentheses may nest this deep; each level costs the recursive-descent
# parser three stack frames, so far deeper input would exhaust the stack.
MAX_NESTING = 200


class ParseError(ValueError):
    """Syntax error in polynomial text; carries the offending position."""

    def __init__(self, message: str, position: int):
        super().__init__(f"{message} (at position {position})")
        self.position = position


class UnknownVariableError(ParseError):
    """An identifier in the input is not in the declared variable list."""


class ExponentOverflowError(OverflowError):
    """An exponent exceeded the configured integer width."""


def _checked_exponent(e: int) -> int:
    if abs(e) > MAX_EXPONENT:
        raise ExponentOverflowError(f"exponent {e} exceeds width bound {MAX_EXPONENT}")
    return e


def _rational(value: int | Fraction) -> Fraction:
    """``value`` as a Fraction: an int, a numpy integer or a Fraction; a
    float, string or complex is a ValueError instead of being converted."""
    try:
        return value if isinstance(value, Fraction) else Fraction(operator.index(value))
    except TypeError:
        raise ValueError(f"coefficient {value!r} is not an integer or a Fraction") from None


def _accumulate(out: dict, terms: Mapping, sign: int = 1) -> dict:
    """Add ``sign * terms`` into ``out`` in place.  Term maps {exponent vector:
    nonzero coefficient} are the arithmetic kernel of the parser and the ring
    operations; a sum that cancels deletes its key, to be re-inserted last."""
    for e, c in terms.items():
        c = out.get(e, 0) + c if sign > 0 else out.get(e, 0) - c
        if c:
            out[e] = c
        else:
            del out[e]
    return out


def _product(a: Mapping, b: Mapping) -> dict:
    """The product term map: each term of ``a`` in order times ``b``'s terms
    in order; exponents are checked only when they could exceed the bound."""
    wide = 2 * max(map(abs, chain(*a, *b)), default=0) > MAX_EXPONENT
    add = (lambda x, y: _checked_exponent(x + y)) if wide else operator.add
    out: dict = {}
    for ea, ca in a.items():
        _accumulate(out, {tuple(map(add, ea, eb)): ca * cb for eb, cb in b.items()})
    return out


class LaurentPolynomial:
    """Immutable Laurent polynomial with exact rational coefficients, given as
    ints, numpy integers or Fractions (a float, string or complex is a
    ValueError) and stored as nonzero Fractions."""

    __slots__ = ("_variables", "_terms")

    def __init__(
        self,
        variables: Sequence[str],
        terms: Mapping[ExponentVector, int | Fraction] | Iterable[tuple[ExponentVector, int | Fraction]] = (),
    ):
        vars_tuple = tuple(variables)
        if len(set(vars_tuple)) != len(vars_tuple):
            raise ValueError(f"duplicate variable names in {vars_tuple}")
        m = len(vars_tuple)
        items = terms.items() if isinstance(terms, Mapping) else terms
        clean: dict[ExponentVector, Fraction] = {}
        for exps, coeff in items:
            key = int_entries(exps, "exponent vector")
            if len(key) != m:
                raise ValueError(f"exponent vector {key} has length {len(key)}, expected {m}")
            for e in key:
                _checked_exponent(e)
            if coeff := _rational(coeff):
                _accumulate(clean, {key: coeff})
        self._variables = vars_tuple
        self._terms = clean

    # ------------------------------------------------------------------
    # constructors

    @classmethod
    def zero(cls, variables: Sequence[str]) -> "LaurentPolynomial":
        return cls(variables)

    @classmethod
    def constant(cls, variables: Sequence[str], value: int | Fraction) -> "LaurentPolynomial":
        return cls(variables, {(0,) * len(tuple(variables)): value})

    @classmethod
    def parse(cls, text: str, variables: Sequence[str]) -> "LaurentPolynomial":
        return _Parser(text, tuple(variables)).parse()

    @classmethod
    def _of(cls, variables: tuple[str, ...], terms: dict[ExponentVector, Fraction]) -> "LaurentPolynomial":
        """Wrap parts that are already clean (nonzero Fractions); no validation."""
        result = cls.__new__(cls)
        result._variables = variables
        result._terms = terms
        return result

    # ------------------------------------------------------------------
    # inspection

    @property
    def variables(self) -> tuple[str, ...]:
        return self._variables

    @property
    def terms(self) -> dict[ExponentVector, Fraction]:
        """Copy of the term map (exponent vector -> nonzero coefficient)."""
        return dict(self._terms)

    def items(self) -> Iterator[tuple[ExponentVector, Fraction]]:
        return iter(self._terms.items())

    def is_zero(self) -> bool:
        return not self._terms

    def support(self) -> frozenset[ExponentVector]:
        return frozenset(self._terms)

    def __len__(self) -> int:
        return len(self._terms)

    def __bool__(self) -> bool:
        return bool(self._terms)

    # ------------------------------------------------------------------
    # ring operations (all pure; operands must share the variable list)

    def _require_same_variables(self, other: "LaurentPolynomial") -> None:
        if self._variables != other._variables:
            raise ValueError(
                f"variable lists differ: {self._variables} vs {other._variables}"
            )

    def __add__(self, other: "LaurentPolynomial | int | Fraction", sign: int = 1) -> "LaurentPolynomial":
        if not isinstance(other, LaurentPolynomial):
            other = LaurentPolynomial.constant(self._variables, other)
        self._require_same_variables(other)
        return LaurentPolynomial._of(self._variables, _accumulate(dict(self._terms), other._terms, sign))

    __radd__ = __add__

    def __neg__(self) -> "LaurentPolynomial":
        return LaurentPolynomial._of(self._variables, {e: -c for e, c in self._terms.items()})

    def __sub__(self, other: "LaurentPolynomial | int | Fraction") -> "LaurentPolynomial":
        return self.__add__(other, -1)

    def __rsub__(self, other: int | Fraction) -> "LaurentPolynomial":
        return (-self).__add__(other)

    def __mul__(self, other: "LaurentPolynomial | int | Fraction") -> "LaurentPolynomial":
        if not isinstance(other, LaurentPolynomial):
            scalar = _rational(other)
            terms = {e: c * scalar for e, c in self._terms.items()} if scalar else {}
            return LaurentPolynomial._of(self._variables, terms)
        self._require_same_variables(other)
        return LaurentPolynomial._of(self._variables, _product(self._terms, other._terms))

    __rmul__ = __mul__

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, LaurentPolynomial):
            return NotImplemented
        return self._variables == other._variables and self._terms == other._terms

    def __hash__(self) -> int:
        return hash((self._variables, frozenset(self._terms.items())))

    # ------------------------------------------------------------------
    # substitutions

    def negate_variable(self, name: str) -> "LaurentPolynomial":
        """Substitute ``name -> -name`` (flips the sign of odd-degree terms)."""
        if name not in self._variables:
            raise ValueError(f"{name!r} is not among variables {self._variables}")
        i = self._variables.index(name)
        return LaurentPolynomial._of(
            self._variables, {e: (-c if e[i] % 2 else c) for e, c in self._terms.items()}
        )

    def substitute_square(self, new_variables: Sequence[str] | None = None) -> "LaurentPolynomial":
        """Replace each variable square by a fresh variable (x_i^2 -> X_i).

        Every exponent of every variable must be even; exponents are halved
        and the variables renamed (default: uppercased names).
        """
        if new_variables is None:
            new_vars = tuple(v.upper() for v in self._variables)
        else:
            new_vars = tuple(new_variables)
        if len(new_vars) != len(self._variables) or len(set(new_vars)) != len(new_vars):
            raise ValueError(f"need {len(self._variables)} distinct fresh names, got {new_vars}")
        out: dict[ExponentVector, Fraction] = {}
        for exps, coeff in self._terms.items():
            for v, e in zip(self._variables, exps):
                if e % 2:
                    raise ValueError(f"odd exponent {e} of {v!r}; square substitution undefined")
            out[tuple(e // 2 for e in exps)] = coeff
        return LaurentPolynomial(new_vars, out)

    # ------------------------------------------------------------------
    # text form

    def render(self) -> str:
        """Canonical text form; ``parse(render(f), f.variables) == f``."""
        if not self._terms:
            return "0"
        order = sorted(
            self._terms,
            key=lambda e: (-sum(e), tuple(-x for x in e)),
        )
        pieces: list[str] = []
        for exps in order:
            coeff = self._terms[exps]
            body = "*".join(
                v if e == 1 else f"{v}^{e}"
                for v, e in zip(self._variables, exps)
                if e != 0
            )
            mag = abs(coeff)
            if body and mag == 1:
                s = body
            elif body:
                s = f"{mag}*{body}"
            else:
                s = str(mag)
            if not pieces:
                pieces.append(f"-{s}" if coeff < 0 else s)
            else:
                pieces.append(f"- {s}" if coeff < 0 else f"+ {s}")
        return " ".join(pieces)

    def __str__(self) -> str:
        return self.render()

    def __repr__(self) -> str:
        return f"LaurentPolynomial({self._variables!r}, {self.render()!r})"


def parse(text: str, variables: Sequence[str]) -> LaurentPolynomial:
    """Parse polynomial text over an explicit ordered variable list."""
    return LaurentPolynomial.parse(text, variables)


_TOKEN_RE = re.compile(r"(?P<int>[0-9]+)|(?P<name>[A-Za-z_][A-Za-z0-9_]*)|(?P<op>[-+*^()/])|(?P<bad>\S)")


class _Parser:
    """Recursive descent straight into term maps: a number or variable is a
    one-term map with an int coefficient (a Fraction for ``a/b``), a product
    is ``_product`` in factor order, and a sum accumulates its signed terms
    in place.  These are the ring operations' steps in their order, so the
    insertion order is theirs.  ``parse`` wraps the result once."""

    def __init__(self, text: str, variables: tuple[str, ...]):
        self.variables = variables
        self.index = {v: i for i, v in enumerate(variables)}
        self.origin = (0,) * len(variables)
        self.tokens: list[tuple[str, str, int]] = []
        for match in _TOKEN_RE.finditer(text):
            kind = match.lastgroup or "bad"
            if kind == "bad":
                raise ParseError(f"unexpected character {match.group()!r}", match.start())
            self.tokens.append((kind, match.group(), match.start()))
        # every path that consumes this sentinel raises at once
        self.tokens.append(("end", "", len(text)))
        self.pos = 0
        self.depth = 0

    def advance(self) -> tuple[str, str, int]:
        self.pos += 1
        return self.tokens[self.pos - 1]

    def parse(self) -> LaurentPolynomial:
        if len(self.tokens) == 1:
            raise ParseError("empty input", 0)
        terms = self.parse_expr()
        kind, value, at = self.tokens[self.pos]
        if kind != "end":
            raise ParseError(f"unexpected {value!r}", at)
        return LaurentPolynomial._of(self.variables, {e: Fraction(c) for e, c in terms.items()})

    # Only an "op" token has a value among "+-*/^()", and only "end" has "".

    def parse_expr(self) -> dict:
        terms: dict = {}
        value = self.tokens[self.pos][1]
        if value in ("+", "-"):
            self.pos += 1
        while True:
            _accumulate(terms, self.parse_term(), -1 if value == "-" else 1)
            value = self.tokens[self.pos][1]
            if value not in ("+", "-"):
                return terms
            self.pos += 1

    def parse_term(self) -> dict:
        terms = self.parse_factor()
        while self.tokens[self.pos][1] == "*":
            self.pos += 1
            terms = _product(terms, self.parse_factor())
        return terms

    def parse_factor(self) -> dict:
        kind, value, at = self.advance()
        if value == "(":
            if self.depth == MAX_NESTING:
                raise ParseError(f"parentheses nested deeper than {MAX_NESTING} levels", at)
            self.depth += 1
            terms = self.parse_expr()
            _, value, at = self.advance()
            if value != ")":
                raise ParseError(f"expected ')', found {value or 'end of input'!r}", at)
            self.depth -= 1
            return terms
        if kind == "int":
            coeff: int | Fraction = int(value)
            if self.tokens[self.pos][1] == "/":
                self.pos += 1
                kind, value, at = self.advance()
                if kind != "int":
                    raise ParseError("expected integer denominator after '/'", at)
                if int(value) == 0:
                    raise ParseError("zero denominator", at)
                coeff = Fraction(coeff, int(value))
            exps = self.origin
        elif kind == "name":
            if (i := self.index.get(value)) is None:
                raise UnknownVariableError(f"unknown variable {value!r}", at)
            exponent = 1
            if self.tokens[self.pos][1] == "^":
                self.pos += 1
                kind, value, at = self.advance()
                if negative := value == "-":
                    kind, value, at = self.advance()
                if kind != "int":
                    raise ParseError("expected integer exponent after '^'", at)
                exponent = _checked_exponent(-int(value) if negative else int(value))
            exps, coeff = self.origin[:i] + (exponent,) + self.origin[i + 1 :], 1
        else:
            raise ParseError(f"expected a number, variable or '(', found {value or 'end of input'!r}", at)
        # duplicate names are refused at the first number or variable
        if len(self.index) != len(self.variables):
            raise ValueError(f"duplicate variable names in {self.variables}")
        return {exps: coeff} if coeff else {}


# ----------------------------------------------------------------------
# factored forms


def unit_normal(f: LaurentPolynomial) -> LaurentPolynomial:
    """Multiply by the unique unit (+-monomial) putting the lex-least support
    point at the origin with a positive coefficient there."""
    if f.is_zero():
        raise ValueError("the zero polynomial has no unit-normal form")
    least = min(f.support())
    shifted = {tuple(e - t for e, t in zip(exps, least)): c for exps, c in f.items()}
    if shifted[(0,) * len(f.variables)] < 0:
        shifted = {e: -c for e, c in shifted.items()}
    return LaurentPolynomial(f.variables, shifted)


class FactorList:
    """Ordered list of nonzero factors over one variable list."""

    __slots__ = ("_factors",)

    def __init__(self, factors: Iterable[LaurentPolynomial]):
        items = tuple(factors)
        if not items:
            raise ValueError("a factor list needs at least one factor")
        for poly in items:
            if poly.is_zero():
                raise ValueError("zero polynomial cannot be a factor")
            if poly.variables != items[0].variables:
                raise ValueError("all factors must share one variable list")
        self._factors = items

    @property
    def variables(self) -> tuple[str, ...]:
        return self._factors[0].variables

    def __iter__(self) -> Iterator[LaurentPolynomial]:
        return iter(self._factors)

    def __len__(self) -> int:
        return len(self._factors)

    def expand(self) -> LaurentPolynomial:
        """The product of all factors."""
        return math.prod(self._factors, start=LaurentPolynomial.constant(self.variables, 1))

    def deduplicated(self) -> "FactorList":
        """Distinct factors up to units.

        Factors are unit-normalised, duplicates merged, and the result sorted
        canonically, so two lists describing the same squarefree locus compare
        equal.
        """
        normals = {unit_normal(poly) for poly in self._factors}
        return FactorList(sorted(normals, key=lambda p: (p.variables, sorted(p.terms.items()))))

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, FactorList):
            return NotImplemented
        return self._factors == other._factors

    def __hash__(self) -> int:
        return hash(self._factors)

    def __repr__(self) -> str:
        return "FactorList[" + " * ".join(f"({poly.render()})" for poly in self._factors) + "]"
