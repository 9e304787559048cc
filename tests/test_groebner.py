import random
from itertools import product as iter_product

import pytest

from artinalg.errors import NotZeroDimensionalError
from artinalg.groebner import (
    buchberger,
    ideal_membership,
    normal_form,
    standard_monomials,
)
from artinalg.polycore import Monomial, MonomialOrder, Polynomial, parse_polynomial
from conftest import GOLDEN_GENS, GOLDEN_VARS
from oracles import MacaulayMembership, random_polynomial, random_zero_dim_gens

XY = ("X", "Y")


def P(text, variables=XY):
    return parse_polynomial(text, variables)


def gb_of(gens, variables=XY, order=None):
    return buchberger([parse_polynomial(g, variables) for g in gens], order)


@pytest.fixture(scope="module")
def golden_gb():
    return buchberger([parse_polynomial(g, GOLDEN_VARS) for g in GOLDEN_GENS])


class TestBuchberger:
    def test_monomial_ideal_is_its_own_basis(self):
        gb = gb_of(["X^2", "X*Y", "Y^2"])
        assert {p.to_string() for p in gb} == {"X^2", "X*Y", "Y^2"}

    def test_golden_standard_monomials_match_the_twelve(self, golden_gb):
        got = {m.as_string(GOLDEN_VARS) for m in standard_monomials(golden_gb)}
        expected = {
            "1", "X", "Y", "X^2", "Y*X", "Y^2",
            "X^3", "Y*X^2", "Y^2*X", "Y^3", "X^4", "Y^2*X^2",
        }
        assert got == expected

    def test_binomial_ideal_staircase(self):
        # order precedence Y > X so the pure power lands on X
        order = MonomialOrder.grevlex(("Y", "X"))
        gb = gb_of(["X^2 - Y^2", "X*Y"], order=order)
        got = {m.as_string(XY) for m in standard_monomials(gb)}
        assert got == {"1", "X", "Y", "X^2"}
        # oracle: Macaulay quotient dimension stabilizes at 4
        oracle = MacaulayMembership([P("X^2 - Y^2"), P("X*Y")], XY)
        assert oracle.quotient_dimension(4) == 4
        assert oracle.quotient_dimension(5) == 4

    def test_zero_ideal(self):
        gb = buchberger([Polynomial.zero(("X",))])
        assert len(gb) == 0
        empty = gb_of(["0"])
        assert empty.polys == ()
        # nothing to reduce by: the normal form is the polynomial itself
        p = P("X^2*Y - 3/2*Y + 7")
        assert normal_form(p, empty) == p

    def test_unit_ideal(self):
        gb = gb_of(["X", "X - 1"], ("X",))
        assert [p.to_string() for p in gb.polys] == ["1"]
        assert gb.is_trivial()

    def test_deterministic_output(self):
        first = gb_of(list(GOLDEN_GENS), GOLDEN_VARS)
        second = gb_of(list(GOLDEN_GENS), GOLDEN_VARS)
        assert [p.to_string(first.order) for p in first] == [
            p.to_string(second.order) for p in second
        ]

    def test_buchberger_criterion_and_autoreduction(self, golden_gb):
        from artinalg.groebner import s_polynomial

        bases = [
            golden_gb,
            gb_of(["X^2 - Y^2", "X*Y"]),
            gb_of(["X^3", "X^2*Y", "Y^2"]),
        ]
        for gb in bases:
            polys = list(gb.polys)
            for i in range(len(polys)):
                assert polys[i].leading_coefficient(gb.order) == 1
                for j in range(i):
                    s = s_polynomial(polys[i], polys[j], gb.order)
                    assert normal_form(s, gb).is_zero()
            # auto-reduced: no leading term divides any term of another element
            for i, p in enumerate(polys):
                lm = p.leading_monomial(gb.order)
                for j, q in enumerate(polys):
                    if i != j:
                        assert not any(lm.divides(m) for m in q.terms)


class TestNormalForm:
    def test_golden_quintic_reduces_to_x4_over_5(self, golden_gb):
        f = parse_polynomial("X^4 + X^2*Y^3 + Y^5", GOLDEN_VARS)
        assert normal_form(f, golden_gb) == parse_polynomial("1/5*X^4", GOLDEN_VARS)

    def test_zero(self, golden_gb):
        assert normal_form(Polynomial.zero(GOLDEN_VARS), golden_gb).is_zero()

    def test_generator_power_reduces_to_zero(self, golden_gb):
        assert normal_form(parse_polynomial("X^5", GOLDEN_VARS), golden_gb).is_zero()

    def test_partials_of_quintic_are_members(self, golden_gb):
        f = parse_polynomial("X^4 + X^2*Y^3 + Y^5", GOLDEN_VARS)
        for v in GOLDEN_VARS:
            assert ideal_membership(f.partial_derivative(v), golden_gb)

    def test_idempotence_and_linearity_randomized(self, golden_gb):
        rng = random.Random(47)
        for _ in range(150):
            p = random_polynomial(rng, GOLDEN_VARS, max_degree=6, max_terms=5)
            q = random_polynomial(rng, GOLDEN_VARS, max_degree=6, max_terms=5)
            a, b = rng.randint(-3, 3), rng.randint(-3, 3)
            nf_p = normal_form(p, golden_gb)
            assert normal_form(nf_p, golden_gb) == nf_p
            combo = p.scale(a) + q.scale(b)
            assert normal_form(combo, golden_gb) == (
                nf_p.scale(a) + normal_form(q, golden_gb).scale(b)
            )


class TestStandardMonomials:
    def test_fourth_power_of_maximal_ideal(self):
        gb = gb_of(["X^4", "X^3*Y", "X^2*Y^2", "X*Y^3", "Y^4"])
        got = {m.exps for m in standard_monomials(gb)}
        # independent enumeration: all monomials of total degree <= 3
        expected = {
            (a, b) for a, b in iter_product(range(4), repeat=2) if a + b <= 3
        }
        assert got == expected
        assert len(expected) == 10

    def test_positive_dimensional_rejected(self):
        gb = gb_of(["X"])
        with pytest.raises(NotZeroDimensionalError):
            standard_monomials(gb)

    def test_sorted_ascending_and_divisor_closed(self, golden_gb):
        basis = standard_monomials(golden_gb)
        key = golden_gb.order.key_function(golden_gb.variables)
        keys = [key(m) for m in basis]
        assert keys == sorted(keys)
        members = set(basis.monomials)
        for m in basis:
            for i in range(len(m.exps)):
                if m.exps[i] > 0:
                    lower = list(m.exps)
                    lower[i] -= 1
                    assert Monomial(lower) in members

    def test_work_is_bounded_by_the_dimension_not_the_box(self, monkeypatch):
        # the box of exponents below the pure powers has 10^6 monomials,
        # the quotient only 1999
        gb = gb_of(["X^1000", "Y^1000", "X*Y"])
        calls = []
        divides = Monomial.divides

        def counted(self, other):
            calls.append(other)
            return divides(self, other)

        monkeypatch.setattr(Monomial, "divides", counted)
        basis = standard_monomials(gb)
        monkeypatch.undo()
        expected = [(0, 0)] + [
            exps for k in range(1, 1000) for exps in ((0, k), (k, 0))
        ]
        assert [m.exps for m in basis] == expected
        assert len(calls) <= 4 * len(basis) * len(XY) * len(gb.leading_monomials)

    def test_empty_variable_list_gives_the_field(self):
        gb = buchberger([Polynomial.zero(())])
        basis = standard_monomials(gb)
        assert len(basis) == 1 and basis[0].is_one()


class TestMacaulayAgreement:
    def test_membership_matches_oracle_on_random_ideals(self):
        rng = random.Random(59)
        checked = 0
        for _ in range(40):
            nvars = rng.choice((1, 2, 2, 3))
            variables = ("X", "Y", "Z")[:nvars]
            gens = [
                random_polynomial(rng, variables, max_degree=3, max_terms=3, allow_zero=False)
                for _ in range(rng.randint(1, 3))
            ]
            gb = buchberger(gens)
            oracle = MacaulayMembership(gens, variables)
            cap = 8 if nvars <= 2 else 6
            for _ in range(10):
                if rng.random() < 0.5:
                    # constructed member: sum of small multiples of generators
                    p = Polynomial.zero(variables)
                    for g in gens:
                        p = p + g * random_polynomial(
                            rng, variables, max_degree=2, max_terms=2
                        )
                else:
                    p = random_polynomial(rng, variables, max_degree=3, max_terms=4)
                claimed = ideal_membership(p, gb)
                if claimed:
                    assert oracle.member_up_to(p, cap), (
                        f"reducer claims membership the oracle cannot certify: {p}"
                    )
                else:
                    assert not oracle.member_up_to(p, cap), (
                        f"oracle certifies membership the reducer denies: {p}"
                    )
                checked += 1
        assert checked == 400

    def test_quotient_dimension_matches_oracle(self):
        rng = random.Random(61)
        for _ in range(15):
            variables = ("X", "Y")
            gens = random_zero_dim_gens(rng, variables)
            gb = buchberger(gens)
            dim = len(standard_monomials(gb))
            oracle = MacaulayMembership(gens, variables)
            # past stabilization the Macaulay count is the true dimension
            caps = [6, 7]
            dims = [oracle.quotient_dimension(c) for c in caps]
            assert dims[0] == dims[1] == dim
