import random
from fractions import Fraction
from itertools import islice, product

import pytest

from artinalg.errors import (
    DependentInputError,
    NotLocalOverQError,
    RelationViolatedError,
)
from artinalg.truncated import (
    DEFAULT_COEFF_POOL,
    TruncValue,
    TruncatedPolyAlgebra,
    make_hom,
    _monomial_profiles,
    search_homs,
    triangularize,
)
from artinalg import linalg
from conftest import algebra_from_strings
from oracles import random_element


class TestTruncatedRing:
    def test_multiplication_truncates(self):
        B = TruncatedPolyAlgebra(4)
        t2 = B.t_power(2)
        t3 = B.t_power(3)
        assert (t2 * t3).is_zero()
        assert (t2 * t2).coeffs[4] == 1

    def test_units(self):
        B = TruncatedPolyAlgebra(3)
        assert B.from_coeffs([2, 1, 0, 0]).is_unit()
        assert not B.t_power(1).is_unit()

    def test_order(self):
        B = TruncatedPolyAlgebra(5)
        assert B.zero().order() is None
        assert B.one().order() == 0
        assert B.from_coeffs([0, 0, 3, 1]).order() == 2

    def test_string_round_trip(self):
        B = TruncatedPolyAlgebra(6)
        u = B.from_string("t^2 - 1/2*t^5")
        assert u.coeffs[2] == 1 and u.coeffs[5] == Fraction(-1, 2)
        assert B.from_string(u.to_string()) == u


class TestTruncValue:
    def test_order_with_infinity(self):
        fin = [TruncValue.finite(i) for i in range(4)]
        inf = TruncValue.infinity()
        assert fin[0] < fin[3] < inf
        assert not inf < inf
        assert max(fin + [inf]) == inf

    def test_saturating_addition(self):
        a = TruncValue.finite(3)
        b = TruncValue.finite(4)
        assert a.add(b, cap=10) == TruncValue.finite(7)
        assert a.add(b, cap=6) == TruncValue.infinity()
        assert a.add(TruncValue.infinity(), cap=100) == TruncValue.infinity()


class TestMakeHom:
    def test_staircase_accepts_t2_t3_at_five(self, q2):
        hom = make_hom(q2, 5, ["t^2", "t^3"])
        assert hom.verified
        for g in q2.gens:
            assert hom.evaluate_polynomial(g).is_zero()

    def test_fourth_power_accepts_t4_t5_at_fifteen(self, m4):
        hom = make_hom(m4, 15, ["t^4", "t^5"])
        assert hom.verified

    def test_staircase_rejects_t2_t3_at_six(self, q2):
        with pytest.raises(RelationViolatedError) as err:
            make_hom(q2, 6, ["t^2", "t^3"])
        assert err.value.residual.order() == 6

    def test_coefficient_sequences_accepted(self, q2):
        hom = make_hom(q2, 5, [[0, 0, 1], [0, 0, 0, 2]])
        assert hom.verified


class TestValuation:
    def test_of_zero_is_infinite(self, q2):
        hom = make_hom(q2, 5, ["t^2", "t^3"])
        assert hom.valuation(q2.zero()).is_infinite

    def test_of_one_is_zero(self, q2):
        hom = make_hom(q2, 5, ["t^2", "t^3"])
        assert hom.valuation(q2.one()) == TruncValue.finite(0)

    def test_staircase_values(self, q2):
        hom = make_hom(q2, 5, ["t^2", "t^3"])
        x = q2.variable_element("X")
        y = q2.variable_element("Y")
        assert hom.valuation(x) == TruncValue.finite(2)
        assert hom.valuation(y) == TruncValue.finite(3)
        assert hom.valuation(x * y) == TruncValue.finite(5)

    def test_unit_characterization(self, q2, golden):
        rng = random.Random(41)
        for A in (q2, golden):
            homs = search_homs(A, 8, strategy="monomial", budget=300)
            for hom in homs[:10]:
                for _ in range(10):
                    a = random_element(rng, A)
                    v = hom.valuation(a)
                    assert (v == TruncValue.finite(0)) == hom.apply(a).is_unit()

    def test_monoid_law_with_saturation(self, q2):
        rng = random.Random(43)
        homs = search_homs(q2, 8, strategy=("monomial", "dense-random"), budget=300)
        assert homs
        for hom in homs[:20]:
            cap = hom.truncation
            for _ in range(20):
                a = random_element(rng, q2)
                b = random_element(rng, q2)
                assert hom.valuation(a * b) == hom.valuation(a).add(
                    hom.valuation(b), cap
                )

    def test_superadditivity(self, q2):
        rng = random.Random(47)
        homs = search_homs(q2, 8, strategy="monomial", budget=200)
        for hom in homs[:20]:
            for _ in range(20):
                a = random_element(rng, q2)
                b = random_element(rng, q2)
                lhs = hom.valuation(a + b)
                rhs = min(hom.valuation(a), hom.valuation(b))
                assert lhs >= rhs


class TestTriangularize:
    def test_kernel_only_input(self, q2):
        hom = make_hom(q2, 3, ["t^2", "t^2"])
        kernel_members = [q2.from_string("X - Y")]  # both variables hit t^2
        assert not kernel_members[0].is_zero()
        out = triangularize(hom, kernel_members)
        assert len(out) == 1
        assert hom.valuation(out[0]).is_infinite

    def test_staircase_pair(self, q2):
        hom = make_hom(q2, 5, ["t^2", "t^3"])
        x = q2.variable_element("X")
        y = q2.variable_element("Y")
        out = triangularize(hom, [x + y, y])
        values = [hom.valuation(e) for e in out]
        assert values == [TruncValue.finite(2), TruncValue.finite(3)]
        # span preserved: mutual reduction of coordinate matrices agrees
        before = linalg.rref([list((x + y).coords), list(y.coords)])[0]
        after = linalg.rref([list(e.coords) for e in out])[0]
        assert before == after

    def test_single_element(self, q2):
        hom = make_hom(q2, 5, ["t^2", "t^3"])
        x = q2.variable_element("X")
        out = triangularize(hom, [x])
        assert len(out) == 1 and not hom.valuation(out[0]).is_infinite

    def test_dependent_input_rejected(self, q2):
        hom = make_hom(q2, 5, ["t^2", "t^3"])
        x = q2.variable_element("X")
        with pytest.raises(DependentInputError):
            triangularize(hom, [x, x.scale(2)])

    def test_profile_and_span_randomized(self, q2, m4):
        rng = random.Random(53)
        for A in (q2, m4):
            homs = search_homs(A, 10, strategy="monomial", budget=400)
            for _ in range(20):
                hom = rng.choice(homs)
                pool = [random_element(rng, A) for _ in range(rng.randint(1, 4))]
                rows = [list(e.coords) for e in pool]
                if linalg.rank(rows) != len(pool):
                    continue
                out = triangularize(hom, pool)
                values = [hom.valuation(e) for e in out]
                finite = [v for v in values if not v.is_infinite]
                assert finite == sorted(finite)
                assert len(set((v.value for v in finite))) == len(finite)
                tail = values[len(finite):]
                assert all(v.is_infinite for v in tail)
                assert linalg.rref(rows)[0] == linalg.rref(
                    [list(e.coords) for e in out]
                )[0]


class TestSearch:
    def test_dual_numbers_monomial_family(self, dual_numbers):
        homs = search_homs(dual_numbers, 3, strategy="monomial", budget=200)
        described = {h.describe() for h in homs}
        assert "[N=3] X -> t^2" in described
        assert "[N=3] X -> t^3" in described
        assert "[N=3] X -> 2*t^2" in described
        # the doubling map only verifies once 2e exceeds the truncation
        assert all(
            not (h.truncation >= 2 * h.images[0].order())
            for h in homs
            if h.images[0].order() is not None
        )

    def test_staircase_search_finds_the_witness(self, q2):
        homs = search_homs(q2, 5, strategy="monomial", budget=500)
        assert any(h.describe() == "[N=5] X -> t^2, Y -> t^3" for h in homs)

    def test_zero_budget(self, q2):
        assert search_homs(q2, 5, strategy="monomial", budget=0) == []
        assert search_homs(q2, 5, strategy="dense-random", budget=0) == []

    def test_every_returned_hom_reverifies(self, q2, gorenstein_mixed):
        for A in (q2, gorenstein_mixed):
            homs = search_homs(
                A, 8, strategy=("monomial", "dense-random"), budget=250, seed=5
            )
            assert homs
            for hom in homs:
                rebuilt = make_hom(A, hom.truncation, list(hom.images))
                assert rebuilt.verified

    def test_deterministic_without_and_with_seed(self, q2):
        a = search_homs(q2, 6, strategy=("monomial", "dense-random"), budget=150, seed=9)
        b = search_homs(q2, 6, strategy=("monomial", "dense-random"), budget=150, seed=9)
        assert [h.key() for h in a] == [h.key() for h in b]

    def test_deduplicated_and_sorted(self, q2):
        homs = search_homs(q2, 6, strategy=("monomial", "dense-random"), budget=200)
        keys = [h.key() for h in homs]
        assert keys == sorted(keys)
        assert len(keys) == len(set(keys))

    def test_user_strategy(self, q2):
        homs = search_homs(
            q2,
            5,
            strategy="user",
            images=[["t^2", "t^3"], ["t^3", "t^3"], ["t^5", "t^5"]],
        )
        assert len(homs) >= 2  # the valid ones survive, invalid are dropped

    def test_not_local_rejected(self, split_quadratic):
        with pytest.raises(NotLocalOverQError):
            search_homs(split_quadratic, 4)

    def test_large_nmax_pays_only_for_the_budget(self):
        A = algebra_from_strings(
            ("X", "Y", "Z"), ("X^2 - Y^2", "Y^2 - Z^2", "X*Y", "X*Z", "Y*Z")
        )
        homs = search_homs(A, 120, budget={"monomial": 10})
        assert all(h.gen_seq < 10 for h in homs)

    def test_pool_is_the_documented_default(self):
        assert DEFAULT_COEFF_POOL[0] == 1 and len(DEFAULT_COEFF_POOL) == 7


class TestComposition:
    def test_hom_after_quotient(self, q2):
        from artinalg.algebra import quotient_algebra

        Q, pi = quotient_algebra(q2, ["Y"])
        hom = make_hom(Q, 2, ["t", "0"])
        combo = hom.after(pi)
        rng = random.Random(59)
        for _ in range(20):
            a = random_element(rng, q2)
            assert combo.apply(a) == hom.apply(pi.apply(a))


class TestMonomialProfiles:
    @pytest.mark.parametrize("m", [1, 2, 3])
    @pytest.mark.parametrize("n", range(1, 7))
    def test_order_is_degree_then_lexicographic(self, m, n):
        expected = sorted(
            product(range(1, n + 1), repeat=m), key=lambda p: (sum(p), p)
        )
        assert list(_monomial_profiles(m, n)) == expected

    def test_lazy(self):
        first = list(islice(_monomial_profiles(3, 10**9), 5))
        assert first == [(1, 1, 1), (1, 1, 2), (1, 2, 1), (2, 1, 1), (1, 1, 3)]
