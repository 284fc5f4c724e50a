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
