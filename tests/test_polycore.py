import random
from fractions import Fraction

import pytest

from artinalg.errors import (
    PolynomialSyntaxError,
    UnknownVariableError,
    VariableMismatchError,
)
from artinalg.polycore import (
    Monomial,
    MonomialOrder,
    Polynomial,
    parse_polynomial,
)
from oracles import dict_add, dict_mul, poly_to_dict, random_polynomial

XY = ("X", "Y")


def P(text, variables=XY):
    return parse_polynomial(text, variables)


class TestParsing:
    def test_zero(self):
        assert P("0").is_zero()
        assert P("0").terms == {}

    def test_golden_generator(self):
        p = P("3*X^2*Y^2 + 5*Y^4")
        assert p.terms == {
            Monomial((2, 2)): Fraction(3),
            Monomial((0, 4)): Fraction(5),
        }

    def test_golden_quintic(self):
        p = P("X^4 + X^2*Y^3 + Y^5")
        assert p.terms == {
            Monomial((4, 0)): Fraction(1),
            Monomial((2, 3)): Fraction(1),
            Monomial((0, 5)): Fraction(1),
        }

    def test_rational_coefficients(self):
        p = P("1/5*X^4 - 2/3")
        assert p.terms[Monomial((4, 0))] == Fraction(1, 5)
        assert p.terms[Monomial((0, 0))] == Fraction(-2, 3)

    def test_leading_sign_and_cancellation(self):
        assert P("-X + X").is_zero()
        assert P("-X - Y + 2*X").terms == {
            Monomial((1, 0)): Fraction(1),
            Monomial((0, 1)): Fraction(-1),
        }

    def test_exponent_one_explicit(self):
        assert P("X^1*Y") == P("X*Y")

    def test_unknown_variable(self):
        with pytest.raises(UnknownVariableError):
            P("X + Z")

    def test_malformed(self):
        for bad in ("X +", "* X", "X ^", "X^0", "3 X", "", "X**2", "2^X"):
            with pytest.raises(PolynomialSyntaxError):
                P(bad)

    def test_zero_denominator(self):
        with pytest.raises(PolynomialSyntaxError):
            P("1/0*X")


class TestArithmetic:
    def test_difference_of_squares(self):
        assert (P("X + Y") * P("X - Y")) == P("X^2 - Y^2")

    def test_scale_fifth(self):
        assert P("X^4").scale(Fraction(1, 5)) == P("1/5*X^4")

    def test_membership_combination_chain(self):
        # X*(X*Y^3 + 2*X^3) - 2*(X^4*Y) style chains against raw expansion
        a = P("X*Y^3 + 2*X^3")
        x = P("X")
        expected = dict_add(
            dict_mul(poly_to_dict(x), poly_to_dict(a)),
            {(4, 1): Fraction(-2)},
        )
        got = x * a - P("2*X^4*Y")
        assert poly_to_dict(got) == expected

    def test_variable_mismatch(self):
        with pytest.raises(VariableMismatchError):
            P("X") + parse_polynomial("X", ("X",))

    def test_product_against_distribution_oracle(self):
        rng = random.Random(101)
        for _ in range(200):
            a = random_polynomial(rng, XY)
            b = random_polynomial(rng, XY)
            assert poly_to_dict(a * b) == dict_mul(poly_to_dict(a), poly_to_dict(b))

    def test_ring_axioms_randomized(self):
        rng = random.Random(7)
        for _ in range(200):
            a = random_polynomial(rng, XY)
            b = random_polynomial(rng, XY)
            c = random_polynomial(rng, XY)
            assert (a + b) + c == a + (b + c)
            assert (a * b) * c == a * (b * c)
            assert a * b == b * a
            assert a * (b + c) == a * b + a * c

    def test_power(self):
        assert P("X + 1") ** 2 == P("X^2 + 2*X + 1")
        assert P("X") ** 0 == P("1")


class TestDerivative:
    def test_golden_partials(self):
        f = P("X^4 + X^2*Y^3 + Y^5")
        # dF/dX doubles a listed generator of the golden ideal
        assert f.partial_derivative("X") == P("X*Y^3 + 2*X^3").scale(2)
        # dF/dY is literally a generator
        assert f.partial_derivative("Y") == P("3*X^2*Y^2 + 5*Y^4")

    def test_constant(self):
        assert P("7").partial_derivative("X").is_zero()

    def test_leibniz_randomized(self):
        rng = random.Random(13)
        for _ in range(200):
            p = random_polynomial(rng, XY)
            q = random_polynomial(rng, XY)
            for v in XY:
                lhs = (p * q).partial_derivative(v)
                rhs = p * q.partial_derivative(v) + q * p.partial_derivative(v)
                assert lhs == rhs


class TestOrders:
    @pytest.mark.parametrize("kind", ["grevlex", "lex"])
    def test_total_multiplicative_well_order(self, kind):
        order = MonomialOrder(kind, XY)
        key = order.key_function(XY)
        rng = random.Random(23)
        monos = [Monomial((rng.randint(0, 4), rng.randint(0, 4))) for _ in range(60)]
        one = Monomial((0, 0))
        for m in monos:
            assert key(one) <= key(m)  # 1 is minimal
        for _ in range(300):
            u, v, w = rng.choice(monos), rng.choice(monos), rng.choice(monos)
            if key(u) < key(v):
                assert key(u * w) < key(v * w)  # multiplicative
            assert (key(u) < key(v)) or (key(v) < key(u)) or u == v  # total

    def test_grevlex_standard_comparisons(self):
        order = MonomialOrder.grevlex(XY)
        key = order.key_function(XY)
        x2, xy, y2 = Monomial((2, 0)), Monomial((1, 1)), Monomial((0, 2))
        assert key(y2) < key(xy) < key(x2)

    def test_precedence_changes_ties(self):
        order = MonomialOrder.grevlex(("Y", "X"))
        key = order.key_function(XY)
        assert key(Monomial((2, 0))) < key(Monomial((0, 2)))  # Y^2 beats X^2

    def test_incompatible_ambient(self):
        order = MonomialOrder.grevlex(("X", "Z"))
        with pytest.raises(VariableMismatchError):
            order.key_function(XY)


class TestRoundTrip:
    def test_parse_print_identity_randomized(self):
        rng = random.Random(31)
        for _ in range(300):
            p = random_polynomial(rng, XY, max_degree=5, max_terms=6)
            assert parse_polynomial(p.to_string(), XY) == p

    def test_print_forms(self):
        assert P("0").to_string() == "0"
        assert P("-X^2 + Y").to_string() == "-X^2 + Y"
        assert P("1/5*X^4").to_string() == "1/5*X^4"
        assert Polynomial.constant(XY, -3).to_string() == "-3"


class TestDegenerate:
    def test_empty_variable_list(self):
        p = parse_polynomial("3 - 1/2", ())
        assert p.terms == {Monomial(()): Fraction(5, 2)}
        assert (p * p).terms == {Monomial(()): Fraction(25, 4)}
