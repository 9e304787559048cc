"""Hypothesis-driven laws; the bulk seeded suites live in test_acceptance."""

from fractions import Fraction

from hypothesis import given, settings, strategies as st

from artinalg.algebra import AlgebraElement
from artinalg.berger import q_algebra
from artinalg.groebner import buchberger, normal_form
from artinalg.kahler import kahler_module
from artinalg.polycore import Monomial, MonomialOrder, Polynomial, parse_polynomial
from artinalg.truncated import search_homs

XY = ("X", "Y")

coefficients = st.fractions(min_value=-4, max_value=4, max_denominator=6)
monomials = st.tuples(st.integers(0, 4), st.integers(0, 4)).map(Monomial)
polynomials = st.dictionaries(monomials, coefficients, max_size=5).map(
    lambda terms: Polynomial(XY, terms)
)

GOLDEN_GB = buchberger(
    [
        parse_polynomial(g, ("Y", "X"))
        for g in ("X^3*Y", "X^5", "X*Y^3 + 2*X^3", "3*X^2*Y^2 + 5*Y^4")
    ]
)
golden_polynomials = st.dictionaries(
    st.tuples(st.integers(0, 4), st.integers(0, 4)).map(Monomial),
    coefficients,
    max_size=5,
).map(lambda terms: Polynomial(("Y", "X"), terms))

Q2 = q_algebra(2)
Q2_HOMS = search_homs(Q2, 7, strategy=("monomial", "dense-random"), budget=180, seed=1)
q2_elements = st.lists(coefficients, min_size=5, max_size=5).map(
    lambda c: AlgebraElement(Q2, c)
)


@given(polynomials, polynomials, polynomials)
def test_ring_axioms(a, b, c):
    assert (a + b) + c == a + (b + c)
    assert a + b == b + a
    assert (a * b) * c == a * (b * c)
    assert a * b == b * a
    assert a * (b + c) == a * b + a * c


@given(polynomials, polynomials)
def test_derivative_leibniz(p, q):
    for v in XY:
        assert (p * q).partial_derivative(v) == (
            p * q.partial_derivative(v) + q * p.partial_derivative(v)
        )


@given(polynomials)
def test_parse_print_round_trip(p):
    assert parse_polynomial(p.to_string(), XY) == p


@given(monomials, monomials, monomials)
def test_orders_are_multiplicative(u, v, w):
    for order in (MonomialOrder.grevlex(XY), MonomialOrder.lex(XY)):
        key = order.key_function(XY)
        if key(u) < key(v):
            assert key(u * w) < key(v * w)


@given(golden_polynomials, golden_polynomials, coefficients, coefficients)
def test_normal_form_idempotent_and_linear(p, q, a, b):
    nf_p = normal_form(p, GOLDEN_GB)
    assert normal_form(nf_p, GOLDEN_GB) == nf_p
    combo = p.scale(a) + q.scale(b)
    assert normal_form(combo, GOLDEN_GB) == nf_p.scale(a) + normal_form(
        q, GOLDEN_GB
    ).scale(b)


@settings(deadline=None)
@given(q2_elements, q2_elements, st.sampled_from(Q2_HOMS))
def test_valuation_monoid_law(a, b, hom):
    assert hom.valuation(a * b) == min(hom.valuation(a) + hom.valuation(b), hom.truncation + 1)


@settings(deadline=None)
@given(q2_elements, q2_elements, st.sampled_from(Q2_HOMS))
def test_valuation_superadditive(a, b, hom):
    assert hom.valuation(a + b) >= min(hom.valuation(a), hom.valuation(b))


@settings(deadline=None)
@given(q2_elements, q2_elements)
def test_differential_leibniz(a, b):
    km = kahler_module(Q2)
    assert km.d(a * b) == km.act(a, km.d(b)) + km.act(b, km.d(a))
