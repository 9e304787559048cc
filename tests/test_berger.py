import random

import pytest

from artinalg.algebra import grading_info, socle
from artinalg.berger import (
    critical_degree_search,
    degree_one_witness_hom,
    omega_witness,
    q_algebra,
    socle_kill_check,
    surjection_to_q,
    tau_membership_check,
    tau_witness_gorenstein,
)
from artinalg.errors import (
    NotDegreeOneError,
    NotGorensteinError,
    NotGradedError,
    PrincipalAlgebraError,
    WitnessInsufficientError,
)
from artinalg.kahler import d, kahler_module, pushforward
from artinalg.truncated import TruncValue, make_hom, search_homs
from conftest import algebra_from_strings
from oracles import random_element


def both_strategies(A, n_max, budget):
    return search_homs(
        A, n_max, strategy=("monomial", "dense-random"), budget=budget, seed=0
    )


class TestQAlgebra:
    @pytest.mark.parametrize("r", [1, 2, 3, 4, 5])
    def test_dimension(self, r):
        A = q_algebra(r)
        assert A.dim == 2 * r + 1
        # basis is 1, x..x^r, y, xy..x^(r-1)y
        expected = {(i, 0) for i in range(r + 1)} | {(i, 1) for i in range(r)}
        assert {m.exps for m in A.basis} == expected

    def test_rejects_zero(self):
        with pytest.raises(ValueError):
            q_algebra(0)


class TestDegreeOneWitness:
    def test_always_two_dimensional_image(self, q2, q3, m4):
        for A in (q2, q3, m4):
            hom = degree_one_witness_hom(A)
            assert hom.truncation == 3
            degree_one = [
                A.basis_element(i) for i, deg in enumerate(A.degrees) if deg == 1
            ]
            from artinalg import linalg

            rows = [list(hom.apply(e).coords) for e in degree_one]
            assert linalg.rank(rows) == 2

    def test_respects_linear_relations(self):
        A = algebra_from_strings(("X", "Y", "Z"), ("X - Y", "X^3", "Y^3", "Z^2", "X*Z", "Y^2*Z"))
        info = grading_info(A)
        assert info.is_standard_graded
        hom = degree_one_witness_hom(A)
        x = A.variable_element("X")
        y = A.variable_element("Y")
        assert hom.apply(x - y).is_zero()


class TestCriticalDegree:
    def test_q1_reaches_one(self):
        A = q_algebra(1)
        report = critical_degree_search(A, both_strategies(A, 8, 400))
        assert report.lower_bound == 1
        assert report.upper_bound == 1
        assert report.degrees_achieved == (1,)
        assert report.reverify(A)

    def test_q2_reaches_two_with_the_expected_witness(self, q2):
        report = critical_degree_search(q2, both_strategies(q2, 12, 2500))
        assert report.lower_bound == 2
        assert report.upper_bound == 2
        witness = report.witnesses[2]
        assert witness.hom.describe() == "[N=5] X -> t^2, Y -> t^3"
        assert witness.rank == 2
        assert report.reverify(q2)

    def test_fourth_power_pins_three(self, m4):
        report = critical_degree_search(m4, both_strategies(m4, 16, 2200))
        assert report.lower_bound == 3 == report.upper_bound
        assert report.witnesses[3].hom.describe() == "[N=15] X -> t^4, Y -> t^5"
        assert report.reverify(m4)

    def test_ungraded_rejected(self, golden):
        with pytest.raises(NotGradedError):
            critical_degree_search(golden, both_strategies(golden, 8, 10))

    def test_principal_rejected(self, chain3):
        with pytest.raises(PrincipalAlgebraError):
            critical_degree_search(chain3, both_strategies(chain3, 8, 10))

    def test_witnesses_reverify_from_scratch(self, q3):
        report = critical_degree_search(q3, both_strategies(q3, 16, 1500))
        assert report.reverify(q3)
        assert report.lower_bound == 2  # floor(3/2) + 1


class TestSurjection:
    def test_staircase_to_itself(self, q2):
        hom = make_hom(q2, 5, ["t^2", "t^3"])
        result = surjection_to_q(q2, hom, 2)
        assert result.iso_check.passed
        assert result.quotient.dim == 5
        assert result.to_q is not None
        # the composite sends the algebra onto Q(2)
        image = result.to_q.apply(q2.from_string("X^2"))
        assert not image.is_zero()

    def test_fourth_power_onto_q3(self, m4):
        hom = make_hom(m4, 15, ["t^4", "t^5"])
        result = surjection_to_q(m4, hom, 3)
        assert result.iso_check.passed
        assert result.quotient.dim == 7
        assert result.q.dim == 7
        # x, y are picked by least valuations 4 < 5
        assert hom.valuation(result.x) == TruncValue.finite(4)
        assert hom.valuation(result.y) == TruncValue.finite(5)
        # composite is an algebra surjection onto Q(3)
        rng = random.Random(61)
        for _ in range(20):
            a = random_element(rng, m4)
            b = random_element(rng, m4)
            assert result.to_q.apply(a * b) == result.to_q.apply(a) * result.to_q.apply(b)

    def test_insufficient_witness_rejected(self, m4):
        weak = make_hom(m4, 3, ["t", "t"])  # kills everything of degree 3
        with pytest.raises(WitnessInsufficientError):
            surjection_to_q(m4, weak, 3)


class TestOmegaWitness:
    def test_alternating_in_equal_arguments(self, q2):
        x = q2.variable_element("X")
        assert omega_witness(q2, x, x, 2).is_zero()

    def test_nonzero_on_staircase(self, q2):
        x = q2.variable_element("X")
        y = q2.variable_element("Y")
        assert not omega_witness(q2, x, y, 2).is_zero()

    def test_pushforward_dies(self, q2):
        x = q2.variable_element("X")
        y = q2.variable_element("Y")
        omega = omega_witness(q2, x, y, 2)
        hom = make_hom(q2, 5, ["t^2", "t^3"])
        assert pushforward(hom, omega).is_zero()

    def test_linear_in_second_slot(self, q2, q3):
        rng = random.Random(67)
        for A in (q2, q3):
            degree_one = [
                A.basis_element(i) for i, deg in enumerate(A.degrees) if deg == 1
            ]
            x = degree_one[0]
            for _ in range(20):
                lam = rng.randint(-3, 3)
                y = degree_one[1]
                p = degree_one[rng.randrange(len(degree_one))].scale(rng.randint(-2, 2))
                r = 2
                left = omega_witness(A, x, y.scale(lam) + p, r)
                right = omega_witness(A, x, y, r).scale(lam) + omega_witness(A, x, p, r)
                assert left == right

    def test_degree_check(self, q2):
        x = q2.variable_element("X")
        with pytest.raises(NotDegreeOneError):
            omega_witness(q2, x, q2.from_string("X^2"), 2)


class TestTauMembership:
    def test_zero_form_trivially_killed(self, q2):
        km = kahler_module(q2)
        homs = search_homs(q2, 6, strategy="monomial", budget=100)
        report = tau_membership_check(q2, km.zero_form(), homs)
        assert report.all_killed
        assert not report.nonzero

    def test_golden_witness_with_certificate(self, golden):
        from artinalg.algebra import quotient_algebra

        homs = search_homs(
            golden, 10, strategy=("monomial", "dense-random"), budget=400, seed=2
        )
        assert homs
        dw = d(golden.from_string("X^2*Y^2"))
        _, pi = quotient_algebra(golden, ["X^3"])
        report = tau_membership_check(golden, dw, homs, certificate_map=pi)
        assert report.all_killed
        assert report.nonzero
        assert report.certificate["reduced_coordinates_nonzero"]
        assert report.certificate["quotient_image_nonzero"]

    def test_violations_are_reported(self, chain3):
        # d(x) on a chain ring is NOT torsion: maps onto dt
        homs = search_homs(chain3, 4, strategy="monomial", budget=60)
        assert homs
        dx = d(chain3.variable_element("X"))
        report = tau_membership_check(chain3, dx, homs)
        assert not report.all_killed
        assert report.violations


class TestSocleKill:
    def test_diagonal_gorenstein(self, gorenstein_diag):
        homs = search_homs(
            gorenstein_diag, 8, strategy=("monomial", "dense-random"), budget=400
        )
        assert len(homs) >= 20
        report = socle_kill_check(gorenstein_diag, homs)
        assert report.all_killed
        assert not report.violations
        soc = socle(gorenstein_diag)
        assert soc.contains(gorenstein_diag.from_string("X^2"))

    def test_mixed_gorenstein(self, gorenstein_mixed):
        homs = search_homs(
            gorenstein_mixed, 8, strategy=("monomial", "dense-random"), budget=400
        )
        report = socle_kill_check(gorenstein_mixed, homs)
        assert report.all_killed
        assert report.witness_text == "X^2*Y"

    def test_principal_rejected(self, chain3):
        with pytest.raises(PrincipalAlgebraError):
            socle_kill_check(chain3, [])

    def test_non_gorenstein_rejected(self, q2):
        with pytest.raises(NotGorensteinError):
            socle_kill_check(q2, [])


class TestTauWitnessGorenstein:
    def test_diagonal_route_works(self, gorenstein_diag):
        homs = both_strategies(gorenstein_diag, 8, 300)
        report = tau_witness_gorenstein(gorenstein_diag, homs)
        assert report.nonzero  # d(socle) != 0 in the graded case
        assert report.all_killed
        assert report.notes["socle_differential_route"] == "ok"

    def test_golden_route_fails_but_kill_holds(self, golden):
        homs = search_homs(
            golden, 10, strategy=("monomial", "dense-random"), budget=300, seed=4
        )
        report = tau_witness_gorenstein(golden, homs=homs)
        assert not report.nonzero  # d of the socle generator vanishes
        assert "fails" in report.notes["socle_differential_route"]
        assert report.all_killed  # trivially: the differential is zero

    def test_principal_rejected(self, dual_numbers):
        with pytest.raises(PrincipalAlgebraError):
            tau_witness_gorenstein(dual_numbers, homs=[])


class TestValuationBookkeeping:
    def test_graded_components_respect_degree_bounds(self, q2, q3, m4):
        rng = random.Random(71)
        for A in (q2, q3, m4):
            homs = search_homs(A, 10, strategy="monomial", budget=300)
            degree_one = [
                A.basis_element(i) for i, deg in enumerate(A.degrees) if deg == 1
            ]
            info = grading_info(A)
            for hom in homs[:15]:
                base = min(hom.valuation(e) for e in degree_one)
                if base.is_infinite:
                    continue
                for i in range(1, info.nilpotency_index + 1):
                    floor = i * base.value
                    for idx, deg in enumerate(A.degrees):
                        if deg == i:
                            v = hom.valuation(A.basis_element(idx))
                            assert v.is_infinite or v.value >= floor
