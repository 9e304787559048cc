import hashlib
import json
import random
from collections import Counter
from fractions import Fraction

import pytest
from hypothesis import given, settings, strategies as st

from artinalg import berger, linalg
from artinalg.algebra import AlgebraMap, grading_info, socle
from artinalg.berger import (
    CriticalDegreeReport,
    DegreeWitness,
    IsoCheck,
    SurjectionToQ,
    WitnessReport,
    _image_rank,
    _rank_bounds,
    _scan_order,
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
    DependentInputError,
    IncompatibleAlgebrasError,
    NotDegreeOneError,
    NotGorensteinError,
    NotGradedError,
    PrincipalAlgebraError,
    WitnessInsufficientError,
)
from artinalg.kahler import d, kahler_module, pushforward
from artinalg.truncated import (
    TruncatedHom,
    TruncatedPolyAlgebra,
    make_hom,
    search_homs,
)
from conftest import GOLDEN_GENS, GOLDEN_VARS, algebra_from_strings
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
        assert hom.valuation(result.x) == 4
        assert hom.valuation(result.y) == 5
        # composite is an algebra surjection onto Q(3)
        rng = random.Random(61)
        for _ in range(20):
            a = random_element(rng, m4)
            b = random_element(rng, m4)
            assert result.to_q.apply(a * b) == result.to_q.apply(a) * result.to_q.apply(b)

    def test_a_singular_induced_map_is_a_failed_check(self, q2, monkeypatch):
        def singular(rows):
            raise DependentInputError("matrix is singular")

        monkeypatch.setattr(linalg, "invert_matrix", singular)
        result = surjection_to_q(q2, make_hom(q2, 5, ["t^2", "t^3"]), 2)
        assert not result.iso_check.passed
        assert result.iso_check.detail == "induced map is not invertible"
        assert result.q is None and result.to_q is None

    def test_insufficient_witness_rejected(self, m4):
        weak = make_hom(m4, 3, ["t", "t"])  # kills everything of degree 3
        with pytest.raises(WitnessInsufficientError):
            surjection_to_q(m4, weak, 3)

    def test_one_finite_valuation_in_degree_one_fails_the_rank_check(self, q2):
        # Y -> 0 leaves only X of finite valuation; its powers span one line
        with pytest.raises(WitnessInsufficientError, match="below dimension 2"):
            surjection_to_q(q2, make_hom(q2, 5, ["t^2", "0"]), 2)


class TestRecords:
    def test_positional_construction(self, q2):
        hom = degree_one_witness_hom(q2)
        witness = DegreeWitness(hom, 2)
        report = CriticalDegreeReport(1, 2, (1,), {1: witness}, 1)
        assert (witness.hom, witness.rank) == (hom, 2)
        assert report.lower_bound == 1 and report.upper_bound == 2
        assert report.degrees_achieved == (1,) and report.homs_scanned == 1
        assert report.witnesses[1] is witness
        assert report == CriticalDegreeReport(
            lower_bound=1, upper_bound=2, degrees_achieved=(1,), witnesses={1: witness},
            homs_scanned=1,
        )
        assert report != CriticalDegreeReport(1, 2, (1,), {1: witness}, 2)
        assert report.reverify(q2)

    def test_defaults_and_repr(self):
        check = IsoCheck(True, 5, 5)
        assert (check.failed_degree, check.detail) == (None, "")
        assert check == IsoCheck(passed=True, expected_dim=5, actual_dim=5, detail="")
        assert check != IsoCheck(True, 5, 5, 1)
        assert repr(IsoCheck(False, 5, 4, detail="dimension mismatch")) == (
            "IsoCheck(passed=False, expected_dim=5, actual_dim=4, failed_degree=None, "
            "detail='dimension mismatch')"
        )

    def test_witness_report_gets_a_fresh_notes_dict(self):
        fields = ("form", "w", True, {}, True, [], [])
        first, second = WitnessReport(*fields), WitnessReport(*fields)
        assert first.notes == {} and first.notes is not second.notes
        first.notes["r"] = 2
        assert second.notes == {}
        assert WitnessReport(*fields, notes={"r": 2}) == first != second

    def test_surjection_fills_q_and_to_q_later(self, q2):
        hom = make_hom(q2, 5, ["t^2", "t^3"])
        result = surjection_to_q(q2, hom, 2)
        bare = SurjectionToQ(
            result.x, result.y, result.quotient, result.to_quotient, result.iso_check
        )
        assert bare.q is None and bare.to_q is None
        bare.q, bare.to_q = result.q, result.to_q
        assert bare == result

    def test_bad_arguments_are_type_errors(self):
        for args, kwargs in [
            ((True, 5), {}),
            ((True, 5, 5, None, "", "extra"), {}),
            ((True, 5, 5), {"passed": False}),
            ((True, 5, 5), {"colour": "red"}),
        ]:
            with pytest.raises(TypeError):
                IsoCheck(*args, **kwargs)

    def test_mutable_records_are_unhashable(self):
        with pytest.raises(TypeError):
            hash(IsoCheck(True, 5, 5))


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


class TestHomFamilyOfAnotherAlgebra:
    """A family member that is not a hom of the algebra is rejected before
    any work, not scanned into a false bound or a bare AttributeError."""

    def test_critical_degree_rejects_homs_of_another_algebra(self, q2, q3):
        with pytest.raises(IncompatibleAlgebrasError):
            critical_degree_search(q2, search_homs(q3, 8, budget=200))

    def test_reverify_rejects_another_algebra(self, q2, q3):
        report = critical_degree_search(q3, search_homs(q3, 8, budget=200))
        assert report.reverify(q3)
        with pytest.raises(IncompatibleAlgebrasError):
            report.reverify(q2)

    def test_reverify_rejects_a_lower_bound_below_the_top_degree(self, q2):
        report = critical_degree_search(q2, both_strategies(q2, 12, 2500))
        assert report.degrees_achieved == (1, 2) and report.reverify(q2)
        for bound in (1, 0):  # each still at most the upper bound
            report.lower_bound = bound
            assert not report.reverify(q2)

    @pytest.mark.parametrize("member", [1, "X", None])
    def test_kill_checks_reject_a_non_map(self, golden, member):
        homs = search_homs(golden, 6, budget=50) + [member]
        dw = d(golden.from_string("X^2*Y^2"))
        for check in (
            lambda: socle_kill_check(golden, homs),
            lambda: tau_witness_gorenstein(golden, homs),
            lambda: tau_membership_check(golden, dw, homs),
        ):
            with pytest.raises(IncompatibleAlgebrasError):
                check()

    def test_kill_checks_reject_a_hom_of_another_algebra(self, golden, gorenstein_diag):
        homs = search_homs(gorenstein_diag, 6, budget=50)
        assert homs
        with pytest.raises(IncompatibleAlgebrasError):
            socle_kill_check(golden, homs)
        with pytest.raises(IncompatibleAlgebrasError):
            tau_membership_check(golden, d(golden.from_string("X^2*Y^2")), homs)

    def test_critical_degree_rejects_a_plain_algebra_map(self, q2):
        with pytest.raises(IncompatibleAlgebrasError):
            critical_degree_search(q2, [AlgebraMap.identity(q2)])


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
                for i in range(1, info.nilpotency_index + 1):
                    floor = min(i * base, hom.truncation + 1)
                    for idx, deg in enumerate(A.degrees):
                        if deg == i:
                            assert hom.valuation(A.basis_element(idx)) >= floor


# -- ranks from valuations ----------------------------------------------------

FOURTH_POWER = (("X", "Y"), ("X^4", "X^3*Y", "X^2*Y^2", "X*Y^3", "Y^4"))
ORACLE_ALGEBRAS = {
    **{f"q{r}": q_algebra(r) for r in range(1, 6)},
    "m4": algebra_from_strings(*FOURTH_POWER),
    "golden": algebra_from_strings(GOLDEN_VARS, GOLDEN_GENS),
}
# few values, so that images of different monomials can cancel
SMALL_COEFFS = st.sampled_from([Fraction(1), Fraction(-1), Fraction(2), Fraction(1, 2)])


@st.composite
def image_coeffs(draw, n):
    """The t^k coefficients of one image: zero, a unit, one term or several."""
    coeffs = [Fraction(0)] * (n + 1)
    kind = draw(st.sampled_from(["zero", "unit", "single", "multi"]))
    if kind == "zero":
        return coeffs
    lead = 0 if kind == "unit" else draw(st.integers(0 if kind == "single" else 1, n))
    if kind == "multi":
        lead = min(lead, n - 1)
    coeffs[lead] = draw(SMALL_COEFFS)
    if kind != "single":
        for k in range(lead + 1, n + 1):
            if draw(st.booleans()):
                coeffs[k] = draw(SMALL_COEFFS)
    if kind == "multi" and not any(coeffs[lead + 1:]):
        coeffs[draw(st.integers(lead + 1, n))] = draw(SMALL_COEFFS)
    return coeffs


class TestRankFromValuations:
    """The integer rule of the critical-degree scan against elimination."""

    @settings(derandomize=True, deadline=None, max_examples=300)
    @given(data=st.data())
    def test_bounds_hold_the_eliminated_rank(self, data):
        A = ORACLE_ALGEBRAS[data.draw(st.sampled_from(sorted(ORACLE_ALGEBRAS)))]
        n = data.draw(st.integers(1, 12))
        B = TruncatedPolyAlgebra(n)
        images = [
            B.from_coeffs(data.draw(image_coeffs(n))) for _ in A.variables
        ]
        hom = TruncatedHom(A, B, images, verify=False)
        # the unpruned evaluation of a plain AlgebraMap, which reads no orders
        plain = AlgebraMap(A, B, images, verify=False)
        single = hom._leads is not None
        for degree in sorted(set(A.degrees)):
            indices = [i for i, d in enumerate(A.degrees) if d == degree]
            rows = [A.basis[i].exps for i in indices]
            lo, hi = _rank_bounds(rows, hom.image_orders(), n, single)
            rank = linalg.rank([list(plain.basis_image(i).coords) for i in indices])
            assert lo <= rank <= hi
            if lo == hi:
                assert rank == lo

    def test_single_term_images(self):
        A = ORACLE_ALGEBRAS["m4"]
        B = TruncatedPolyAlgebra(6)
        cases = [
            (["t^2", "-t^3"], True),
            (["0", "2*t"], True),
            (["1", "0"], True),
            (["t + t^2", "t^3"], False),
            (["1 + t", "0"], False),
        ]
        for images, single in cases:
            hom = TruncatedHom(A, B, [B.from_string(s) for s in images], verify=False)
            assert (hom._leads is not None) is single
            assert hom._key[0] == 6  # every slot is set when the hom is built


def reference_scan(A, homs):
    """The critical-degree scan with every (hom, degree) rank by elimination."""
    n = grading_info(A).nilpotency_index
    scan = [degree_one_witness_hom(A)]
    scan.extend(sorted(homs, key=lambda h: (h.gen_seq, h.key())))
    witnesses = {}
    for hom in scan:
        for degree in range(1, n + 1):
            rank = _image_rank(A, hom, degree)
            current = witnesses.get(degree)
            if rank >= 2 and (current is None or rank > current.rank):
                witnesses[degree] = DegreeWitness(hom, rank)
    degrees = tuple(sorted(witnesses))
    return CriticalDegreeReport(max(degrees), n, degrees, witnesses, len(scan))


class TestScanEquivalence:
    @pytest.mark.parametrize("seed", [0, 1, 2, 3])
    @pytest.mark.parametrize("name", ["q1", "q2", "q3", "q4", "q5", "m4"])
    def test_equals_the_elimination_scan(self, monkeypatch, name, seed):
        A = ORACLE_ALGEBRAS[name]
        homs = search_homs(
            A, 12, strategy=("monomial", "dense-random"), budget=600, seed=seed
        )
        eliminations = []
        monkeypatch.setattr(
            berger, "_image_rank", lambda *args: eliminations.append(args) or _image_rank(*args)
        )
        report = critical_degree_search(A, homs)
        monkeypatch.undo()
        assert report.to_record() == reference_scan(A, homs).to_record()
        # on <X,Y>^4 some dense homs share leads, so the scan eliminates there
        assert bool(eliminations) == (name == "m4")
        assert report.reverify(A)

    def test_a_repeated_profile_is_skipped_only_after_a_single_term_hom(self):
        # both homs have orders (1, 1) at N = 3; only the second, which is
        # not single-term, keeps the degree-2 component of rank 2
        A = ORACLE_ALGEBRAS["m4"]
        homs = [make_hom(A, 3, ["t", "t"]), make_hom(A, 3, ["t", "t + t^2"])]
        for seq, hom in enumerate(homs):
            hom.gen_seq = seq
        assert homs[0].image_orders() == homs[1].image_orders() == (1, 1)
        report = critical_degree_search(A, homs)
        assert report.degrees_achieved == (1, 2)
        assert report.witnesses[2].hom is homs[1] and report.witnesses[2].rank == 2
        assert report.to_record() == reference_scan(A, homs).to_record()
        assert report.reverify(A)

    @pytest.mark.parametrize("name", ["q3", "m4"])
    def test_families_whose_numbers_are_not_slots(self, name):
        """A slice of a search keeps a gen_seq equal to its length, and a hom
        built outside a search has gen_seq -1: neither fits a slot of
        `_scan_order`, so both families are sorted, the built hom first."""
        A = ORACLE_ALGEBRAS[name]
        homs = both_strategies(A, 12, 600)
        last = len(homs) - 1
        top = critical_degree_search(A, homs).lower_bound
        best = critical_degree_search(A, homs).witnesses[top].hom
        built = make_hom(A, best.truncation, best.images)
        assert homs[0].gen_seq != last and best.gen_seq != last
        # every other gen_seq fills a slot, and -1 would take the one left
        with_built = [h for h in homs if h.gen_seq != last] + [built]
        for family in (homs[1:], with_built):
            report, reference = critical_degree_search(A, family), reference_scan(A, family)
            assert report.to_record() == reference.to_record()
            assert {d: (w.hom.gen_seq, w.rank) for d, w in report.witnesses.items()} == {
                d: (w.hom.gen_seq, w.rank) for d, w in reference.witnesses.items()}
        assert critical_degree_search(A, with_built).witnesses[top].hom is built

    @pytest.mark.parametrize("name", ["q3", "m4"])
    def test_key_order_and_discovery_order_give_one_report(self, monkeypatch, name):
        A = ORACLE_ALGEBRAS[name]
        in_key_order = both_strategies(A, 12, 600)
        discovered = sorted(in_key_order, key=lambda h: h.gen_seq)
        assert discovered != in_key_order
        key, read = TruncatedHom.key, []
        monkeypatch.setattr(TruncatedHom, "key", lambda h: read.append(h) or key(h))
        records = [critical_degree_search(A, homs).to_record() for homs in (in_key_order, discovered)]
        monkeypatch.undo()
        # distinct gen_seq values: the scan order reads no key()
        assert read == []
        assert records[0] == records[1] == reference_scan(A, in_key_order).to_record()

    def test_tied_gen_seq_is_scanned_in_key_order(self):
        # user-built homs all have gen_seq -1; both keep the degree-2
        # component at rank 2, so the first one scanned is the witness
        A = ORACLE_ALGEBRAS["m4"]
        first, second = make_hom(A, 3, ["t", "t + t^2"]), make_hom(A, 3, ["t", "t + 2*t^2"])
        assert first.gen_seq == second.gen_seq == -1 and first.key() < second.key()
        for family in ([first, second], [second, first]):
            report = critical_degree_search(A, family)
            assert report.witnesses[2].hom is first
            assert report.to_record() == reference_scan(A, family).to_record()

    @staticmethod
    def sort_path(homs):
        return sorted(homs, key=lambda h: (h.gen_seq, h.key()))

    @pytest.mark.parametrize("name", ["q3", "m4"])
    def test_scan_order_matches_the_sort_path(self, monkeypatch, name):
        A = ORACLE_ALGEBRAS[name]
        family = both_strategies(A, 12, 600)
        shuffled = family[:]
        random.Random(name).shuffle(shuffled)
        assert sorted(h.gen_seq for h in shuffled) == list(range(len(family)))
        key, read = TruncatedHom.key, []
        monkeypatch.setattr(TruncatedHom, "key", lambda h: read.append(h) or key(h))
        by_slot = _scan_order(shuffled)
        assert read == []  # a permutation of 0..n-1 is placed by slot
        monkeypatch.undo()
        assert by_slot == self.sort_path(shuffled)
        # not a permutation of 0..n-1: sort, then key() among tied gen_seqs
        sub = shuffled[::3]
        joined = family + search_homs(A, 12, ("monomial", "dense-random"), 600, seed=3)
        built = [make_hom(A, 3, ["t^2", "t^2 + 2*t^3"]), make_hom(A, 3, ["t^2", "t^2 + t^3"])]
        for homs in (sub, joined, built + shuffled, built):
            assert _scan_order(homs) == self.sort_path(homs)
        assert len({h.gen_seq for h in joined}) < len(joined)

    # sha256 of the canonical JSON of to_record(), pinned from the
    # elimination-only scan that preceded the valuation rule
    @pytest.mark.parametrize(
        "name, digest",
        [
            ("q2", "a0e06f07c955d61283a2c6d908af0f20d1bcb6e3e2023f652e930a5421eadf02"),
            ("q5", "a3f291856289faa5bc4dd8b9780151ba161e1a788b7c28da205380afea4530a0"),
            ("m4", "90685bf1e96c01d4b9ceca1c24f193573e470cee4594dd4bf625fcce5209c1c5"),
        ],
    )
    def test_record_bytes_are_pinned(self, name, digest):
        A = ORACLE_ALGEBRAS[name]
        record = critical_degree_search(A, both_strategies(A, 12, 2500)).to_record()
        text = json.dumps(record, sort_keys=True, separators=(",", ":"))
        assert hashlib.sha256(text.encode()).hexdigest() == digest


def per_hom_scan(A, homs):
    """The critical-degree scan with `_rank_bounds` called for every scanned
    (hom, degree), a hom skipped only after a single-term hom of the same
    (image_orders(), N), and single-term-ness read from the images."""
    n = grading_info(A).nilpotency_index
    scan = [degree_one_witness_hom(A), *sorted(homs, key=lambda h: (h.gen_seq, h.key()))]
    exponents = [[A.basis[i].exps for i in A.degree_indices(degree)] for degree in range(1, n + 1)]
    witnesses, single_profiles = {}, set()
    for hom in scan:
        orders, cap, single = hom.image_orders(), hom.truncation, single_by_the_images(hom)
        if single:
            if (orders, cap) in single_profiles:
                continue
            single_profiles.add((orders, cap))
        for degree, rows in enumerate(exponents, 1):
            current = witnesses.get(degree)
            best = 1 if current is None else current.rank
            lo, hi = _rank_bounds(rows, orders, cap, single)
            if hi <= best:
                continue
            rank = lo if lo == hi else _image_rank(A, hom, degree)
            if rank > best:
                witnesses[degree] = DegreeWitness(hom, rank)
    degrees = tuple(sorted(witnesses))
    return CriticalDegreeReport(max(degrees), n, degrees, witnesses, len(scan))


def single_by_the_images(hom):
    return not any(any(img.coords[o + 1:]) for img, o in zip(hom.images, hom.image_orders()))


class TestBoundsOncePerProfile:
    """`critical_degree_search` computes `_rank_bounds` once per profile
    (image_orders(), N, single-term) and degree, and reports what the
    per-hom loop reports, whatever the family's order and numbering."""

    @pytest.mark.parametrize("seed", [0, 3])
    @pytest.mark.parametrize("name", ["q1", "q2", "q3", "q4", "q5", "m4"])
    def test_equals_the_per_hom_loop(self, monkeypatch, name, seed):
        A = ORACLE_ALGEBRAS[name]
        homs = search_homs(A, 12, ("monomial", "dense-random"), 2500, seed)
        # copies numbered -1, as built outside a search: the `_scan_order` fallback
        copies = [TruncatedHom(A, h.target, h.images, verify=False) for h in homs]
        built = [make_hom(A, h.truncation, h.images) for h in homs[::7]]
        families = [homs, homs[::-1], copies, copies[::-2] + homs[::2], built + homs[1::3]]
        n = grading_info(A).nilpotency_index
        bounds, calls = _rank_bounds, []
        monkeypatch.setattr(
            berger, "_rank_bounds", lambda rows, *profile: calls.append(profile) or bounds(rows, *profile)
        )
        for family in families:
            calls.clear()
            report = critical_degree_search(A, family)
            scanned = [degree_one_witness_hom(A), *family]
            profiles = {(h.image_orders(), h.truncation, single_by_the_images(h)) for h in scanned}
            assert Counter(calls) == dict.fromkeys(profiles, n)
            # per_hom_scan calls the unpatched `_rank_bounds` of this module
            assert report.to_record() == per_hom_scan(A, family).to_record()
        assert any(not single_by_the_images(h) for h in homs)
