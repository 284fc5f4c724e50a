import random
from fractions import Fraction

import numpy as np
import pytest

from conftest import random_laurent
from loglimset.laurent import (
    MAX_NESTING,
    ExponentOverflowError,
    FactorList,
    LaurentPolynomial,
    ParseError,
    UnknownVariableError,
    parse,
    unit_normal,
)


# Malformed inputs with the error each raises: type, message and position
# (None for errors without one).
BIG = 2**62
MALFORMED = [
    ("", ("x",), ParseError, "empty input (at position 0)", 0),
    ("   ", ("x",), ParseError, "empty input (at position 0)", 0),
    ("x + * y", ("x", "y"), ParseError, "expected a number, variable or '(', found '*' (at position 4)", 4),
    ("x + z", ("x", "y"), UnknownVariableError, "unknown variable 'z' (at position 4)", 4),
    ("1/0", ("x",), ParseError, "zero denominator (at position 2)", 2),
    ("1/", ("x",), ParseError, "expected integer denominator after '/' (at position 2)", 2),
    ("1/x", ("x",), ParseError, "expected integer denominator after '/' (at position 2)", 2),
    ("2^3", ("x",), ParseError, "unexpected '^' (at position 1)", 1),
    ("x^", ("x",), ParseError, "expected integer exponent after '^' (at position 2)", 2),
    ("x^-", ("x",), ParseError, "expected integer exponent after '^' (at position 3)", 3),
    ("x^y", ("x", "y"), ParseError, "expected integer exponent after '^' (at position 2)", 2),
    ("x^1.5", ("x",), ParseError, "unexpected character '.' (at position 3)", 3),
    ("(x", ("x",), ParseError, "expected ')', found 'end of input' (at position 2)", 2),
    ("x)", ("x",), ParseError, "unexpected ')' (at position 1)", 1),
    ("()", ("x",), ParseError, "expected a number, variable or '(', found ')' (at position 1)", 1),
    ("x y", ("x", "y"), ParseError, "unexpected 'y' (at position 2)", 2),
    ("x $ 1", ("x",), ParseError, "unexpected character '$' (at position 2)", 2),
    ("x**2", ("x",), ParseError, "expected a number, variable or '(', found '*' (at position 2)", 2),
    ("+-x", ("x",), ParseError, "expected a number, variable or '(', found '-' (at position 1)", 1),
    ("-", ("x",), ParseError, "expected a number, variable or '(', found 'end of input' (at position 1)", 1),
    ("x +", ("x",), ParseError, "expected a number, variable or '(', found 'end of input' (at position 3)", 3),
    ("0*x+", ("x",), ParseError, "expected a number, variable or '(', found 'end of input' (at position 4)", 4),
    ("(" * 201 + "x" + ")" * 201, ("x",), ParseError, "parentheses nested deeper than 200 levels (at position 200)", 200),
    ("x*" + "(" * 300, ("x",), ParseError, "parentheses nested deeper than 200 levels (at position 202)", 202),
    (f"x^{BIG + 1}", ("x",), ExponentOverflowError, f"exponent {BIG + 1} exceeds width bound {BIG}", None),
    (f"x^{BIG}*x", ("x",), ExponentOverflowError, f"exponent {BIG + 1} exceeds width bound {BIG}", None),
    (f"x^{BIG}*y*(x+y)", ("x", "y"), ExponentOverflowError, f"exponent {BIG + 1} exceeds width bound {BIG}", None),
    (f"(x^{BIG}*y^-{BIG})*(x*y^-1)", ("x", "y"), ExponentOverflowError, f"exponent {BIG + 1} exceeds width bound {BIG}", None),
    (
        f"(x^{BIG // 2}+y^-{BIG})*(x^{BIG // 2}*y + y^-1)",
        ("x", "y"),
        ExponentOverflowError,
        f"exponent {-BIG - 1} exceeds width bound {BIG}",
        None,
    ),
    # duplicate variables are refused at the first number or known variable
    ("x", ("x", "x"), ValueError, "duplicate variable names in ('x', 'x')", None),
    ("1 +", ("x", "x"), ValueError, "duplicate variable names in ('x', 'x')", None),
    ("-(((x", ("x", "x"), ValueError, "duplicate variable names in ('x', 'x')", None),
    ("z", ("x", "x"), UnknownVariableError, "unknown variable 'z' (at position 0)", 0),
    ("(", ("x", "x"), ParseError, "expected a number, variable or '(', found 'end of input' (at position 1)", 1),
    ("x^", ("x", "x"), ParseError, "expected integer exponent after '^' (at position 2)", 2),
    (")", ("x", "x"), ParseError, "expected a number, variable or '(', found ')' (at position 0)", 0),
    ("", ("x", "x"), ParseError, "empty input (at position 0)", 0),
]


def random_expression(rng: random.Random, variables, depth: int) -> tuple[str, LaurentPolynomial]:
    """Random expression text and its value, built with the ring operations
    in the order the text is read: the leading sign times the first term,
    then each signed term, and each term's factors left to right.  Some
    terms repeat an earlier one with the opposite sign, so sums cancel."""
    texts: list[str] = []
    signs: list[str] = []
    terms: list[tuple[str, LaurentPolynomial]] = []
    value = None
    for k in range(rng.randint(1, 4)):
        if k and rng.random() < 0.3:
            j = rng.randrange(k)
            text, term = terms[j]
            sign = "+" if signs[j] == "-" else "-"
        else:
            factors = [random_factor(rng, variables, depth) for _ in range(rng.randint(1, 3))]
            text = "*".join(t for t, _ in factors)
            term = factors[0][1]
            for _, factor in factors[1:]:
                term = term * factor
            sign = rng.choice(["", "+", "-"]) if k == 0 else rng.choice("+-")
        terms.append((text, term))
        signs.append(sign)
        texts.append(f"{sign}{rng.choice(['', ' '])}{text}")
        if k == 0:
            value = term * (-1 if sign == "-" else 1)
        else:
            value = value + term if sign == "+" else value - term
    return " ".join(texts), value


def random_factor(rng: random.Random, variables, depth: int) -> tuple[str, LaurentPolynomial]:
    kind = rng.random()
    if depth and kind < 0.3:
        text, value = random_expression(rng, variables, depth - 1)
        return f"({text})", value
    if kind < 0.6:
        numerator, denominator = rng.randint(0, 9), rng.choice([1, 1, 2, 3, 6])
        text = f"{numerator}/{denominator}" if rng.random() < 0.3 else str(numerator * denominator)
        value = Fraction(numerator, denominator) if "/" in text else numerator * denominator
        return text, LaurentPolynomial.constant(variables, value)
    i = rng.randrange(len(variables))
    exponent = rng.randint(-3, 3)
    text = variables[i] if exponent == 1 and rng.random() < 0.5 else f"{variables[i]}^{exponent}"
    exps = tuple(exponent if j == i else 0 for j in range(len(variables)))
    return text, LaurentPolynomial(variables, {exps: 1})


class TestParse:
    def test_simple_sum(self):
        f = parse("l*m^6 + 1", ("m", "l"))
        assert f.terms == {(6, 1): Fraction(1), (0, 0): Fraction(1)}

    def test_product_expansion(self):
        f = parse("(l-1)*(l*m^6+1)", ("m", "l"))
        assert f.terms == {
            (6, 2): Fraction(1),
            (6, 1): Fraction(-1),
            (0, 1): Fraction(1),
            (0, 0): Fraction(-1),
        }

    def test_negative_exponent(self):
        f = parse("x^-2*y - 3", ("x", "y"))
        assert f.terms == {(-2, 1): Fraction(1), (0, 0): Fraction(-3)}

    def test_leading_sign_and_rational_coefficient(self):
        f = parse("-x + 3/2", ("x",))
        assert f.terms == {(1,): Fraction(-1), (0,): Fraction(3, 2)}

    def test_cancellation_drops_terms(self):
        assert parse("x - x", ("x",)).is_zero()
        assert parse("(x+1)*(x-1) - x^2 + 1", ("x",)).is_zero()

    def test_zero_literal(self):
        assert parse("0", ("x", "y")).is_zero()

    def test_syntax_error_has_position(self):
        with pytest.raises(ParseError) as exc:
            parse("x + * y", ("x", "y"))
        assert exc.value.position == 4

    def test_unknown_variable(self):
        with pytest.raises(UnknownVariableError):
            parse("x + z", ("x", "y"))

    def test_zero_denominator(self):
        with pytest.raises(ParseError):
            parse("1/0", ("x",))

    def test_empty_input(self):
        with pytest.raises(ParseError):
            parse("   ", ("x",))

    def test_power_of_integer_rejected(self):
        with pytest.raises(ParseError):
            parse("2^3", ("x",))

    def test_exponent_overflow(self):
        with pytest.raises(ExponentOverflowError):
            parse(f"x^{2**63}", ("x",))

    def test_nesting_bound(self):
        def nested(depth):
            return "(" * depth + "x-1" + ")" * depth

        assert parse(nested(MAX_NESTING), ("x",)) == parse("x-1", ("x",))
        assert parse(" + ".join([nested(MAX_NESTING)] * 3), ("x",)) == parse("3*x-3", ("x",))
        with pytest.raises(ParseError) as exc:
            parse(nested(MAX_NESTING + 1), ("x",))
        assert exc.value.position == MAX_NESTING
        with pytest.raises(ParseError) as exc:
            parse("x*" + nested(5000), ("x",))
        assert exc.value.position == 2 + MAX_NESTING


    @pytest.mark.parametrize("text, variables, error, message, position", MALFORMED)
    def test_malformed_input_errors(self, text, variables, error, message, position):
        with pytest.raises(error) as exc:
            parse(text, variables)
        assert type(exc.value) is error
        assert str(exc.value) == message
        assert getattr(exc.value, "position", None) == position

    @pytest.mark.parametrize("text, variables, position", [("x^\u0663 + \u0662*y", ("x", "y"), 2), ("\uff13*x", ("x",), 0)])
    def test_non_ascii_digits_are_unexpected_characters(self, text, variables, position):
        with pytest.raises(ParseError, match="unexpected character") as exc:
            parse(text, variables)
        assert exc.value.position == position

    def test_random_expressions_match_ring_operations(self):
        rng = random.Random(2025)
        for _ in range(400):
            variables = ("x", "y", "z")[: rng.randint(1, 3)]
            text, expected = random_expression(rng, variables, depth=3)
            f = parse(text, variables)
            assert f == expected, text
            # the same insertion order, which sample output depends on
            assert list(f.items()) == list(expected.items()), text
            assert all(type(c) is Fraction for _, c in f.items())


class TestArithmetic:
    def test_mul_expansion(self):
        x_plus_y = parse("x+y", ("x", "y"))
        x_minus_y = parse("x-y", ("x", "y"))
        assert x_plus_y * x_minus_y == parse("x^2 - y^2", ("x", "y"))

    def test_mul_identity_and_zero(self):
        f = parse("x^2*y^-1 + 7", ("x", "y"))
        one = LaurentPolynomial.constant(("x", "y"), 1)
        zero = LaurentPolynomial.zero(("x", "y"))
        assert f * one == f
        assert (f * zero).is_zero()

    def test_add_cancellation(self):
        x = parse("x", ("x",))
        assert (x + (-x)).is_zero()

    @pytest.mark.parametrize("exponents", [(1.5, 0), (1, Fraction(1, 2)), (2.0, 1)])
    def test_exponents_must_be_integers(self, exponents):
        with pytest.raises(ValueError, match="non-integer"):
            LaurentPolynomial(("x", "y"), {exponents: 1})
        assert LaurentPolynomial(("x", "y"), {tuple(np.array([2, -1])): 3}) == parse("3*x^2*y^-1", ("x", "y"))

    @pytest.mark.parametrize("bad", [0.1, 2.0, "1/3", "2", 1j, np.float64(0.5)])
    def test_coefficients_must_be_exact(self, bad):
        f = parse("x + 1", ("x",))
        builds = [
            lambda: LaurentPolynomial(("x",), {(1,): bad}),
            lambda: LaurentPolynomial.constant(("x",), bad),
            lambda: f + bad,
            lambda: f - bad,
            lambda: f * bad,
        ]
        if not isinstance(bad, np.generic):
            builds += [lambda: bad + f, lambda: bad - f, lambda: bad * f]
        for build in builds:
            with pytest.raises(ValueError, match="is not an integer or a Fraction"):
                build()

    @pytest.mark.parametrize("good", [3, np.int64(3), np.int8(3), Fraction(3)])
    def test_exact_coefficients_pass(self, good):
        f = parse("x + 1", ("x",))
        assert LaurentPolynomial(("x",), {(1,): good}) == parse("3*x", ("x",))
        assert LaurentPolynomial.constant(("x",), good) == parse("3", ("x",))
        assert f + good == parse("x + 4", ("x",))
        assert f - good == parse("x - 2", ("x",))
        assert f * good == parse("3*x + 3", ("x",))
        for g in (LaurentPolynomial(("x",), {(1,): good}), f * good):
            assert all(type(c) is Fraction and type(c.numerator) is int for _, c in g.items())

    def test_numpy_integer_coefficients_do_not_wrap(self):
        f = LaurentPolynomial(("x",), {(1,): np.int64(2**62)})
        assert f * f == LaurentPolynomial(("x",), {(2,): 2**124})

    def test_variable_lists_must_match(self):
        with pytest.raises(ValueError):
            parse("x", ("x",)) * parse("y", ("y",))

    def test_negate_variable(self):
        f = parse("l*m^6 + 1", ("m", "l"))
        assert f.negate_variable("l") == parse("-l*m^6 + 1", ("m", "l"))
        assert f.negate_variable("m") == f  # even powers of m only

    def test_substitute_square(self):
        f = parse("l^2*m^12 - 1", ("m", "l"))
        assert f.substitute_square(("M", "L")) == parse("L*M^6 - 1", ("M", "L"))

    def test_substitute_square_default_names(self):
        f = parse("m^2 - 4", ("m", "l"))
        assert f.substitute_square() == parse("M - 4", ("M", "L"))

    def test_substitute_square_odd_exponent(self):
        with pytest.raises(ValueError, match="odd exponent"):
            parse("l*m^2", ("m", "l")).substitute_square()

    def test_substitute_square_name_collision(self):
        f = parse("m^2*M^2", ("m", "M"))
        with pytest.raises(ValueError, match="distinct"):
            f.substitute_square()
        assert f.substitute_square(("a", "b")) == parse("a*b", ("a", "b"))

    def test_negate_unknown_variable(self):
        with pytest.raises(ValueError):
            parse("x", ("x",)).negate_variable("y")


class TestRoundTripAndRingLaws:
    def test_render_reparses(self):
        rng = random.Random(20240)
        for _ in range(200):
            variables = ("x", "y", "z")[: rng.randint(1, 3)]
            f = random_laurent(rng, variables)
            # sprinkle in rational coefficients
            if rng.random() < 0.5:
                f = f * Fraction(rng.randint(1, 5), rng.randint(2, 7))
            assert parse(f.render(), variables) == f
        assert parse(LaurentPolynomial.zero(("x",)).render(), ("x",)).is_zero()

    def test_ring_laws(self):
        rng = random.Random(99)
        variables = ("x", "y")
        for _ in range(60):
            f = random_laurent(rng, variables, max_terms=4)
            g = random_laurent(rng, variables, max_terms=4)
            h = random_laurent(rng, variables, max_terms=4)
            assert (f + g) + h == f + (g + h)
            assert f + g == g + f
            assert f * g == g * f
            assert (f * g) * h == f * (g * h)
            assert f * (g + h) == f * g + f * h

    def test_support_of_product_inside_sumset(self):
        rng = random.Random(7)
        variables = ("x", "y")
        for _ in range(40):
            f = random_laurent(rng, variables, max_terms=5)
            g = random_laurent(rng, variables, max_terms=5)
            sums = {
                tuple(a + b for a, b in zip(ea, eb))
                for ea in f.support()
                for eb in g.support()
            }
            assert (f * g).support() <= sums


class TestFactorList:
    def test_unit_normal_examples(self):
        l_minus_1 = parse("l-1", ("m", "l"))
        assert unit_normal(l_minus_1) == parse("1-l", ("m", "l"))
        shifted = parse("x^3*y^-2 - x^2*y^-2", ("x", "y"))
        assert unit_normal(shifted) == parse("1 - x", ("x", "y"))

    def test_unit_normal_rejects_zero(self):
        with pytest.raises(ValueError):
            unit_normal(LaurentPolynomial.zero(("x",)))

    def test_expand_multiplies_the_factors(self):
        fl = FactorList([parse("x+1", ("x",)), parse("x-1", ("x",)), parse("x+1", ("x",))])
        assert list(fl) == [parse("x+1", ("x",)), parse("x-1", ("x",)), parse("x+1", ("x",))]
        assert fl.expand() == parse("x^3 + x^2 - x - 1", ("x",))

    def test_deduplicated_identifies_unit_multiples(self):
        a = parse("l-1", ("m", "l"))
        b = parse("m^4*l - m^4", ("m", "l"))  # (l - 1) * m^4
        c = parse("1-l", ("m", "l"))  # (l - 1) * (-1)
        deduped = FactorList([a, b, c]).deduplicated()
        assert list(deduped) == [parse("1-l", ("m", "l"))]

    def test_rejects_zero_factor(self):
        with pytest.raises(ValueError, match="zero polynomial"):
            FactorList([parse("x", ("x",)), LaurentPolynomial.zero(("x",))])
        with pytest.raises(ValueError, match="at least one"):
            FactorList([])
