import random
from fractions import Fraction
from itertools import islice, product

import pytest

from artinalg import truncated
from artinalg.algebra import (
    AlgebraMap,
    ArtinAlgebra,
    build_algebra,
    nilradical,
    quotient_algebra,
    socle,
)
from artinalg.errors import (
    DependentInputError,
    IncompatibleAlgebrasError,
    InvalidArgumentError,
    NotLocalOverQError,
    RelationViolatedError,
)
from artinalg.berger import critical_degree_search, omega_witness, q_algebra, tau_membership_check
from artinalg.kahler import kahler_module
from artinalg.truncated import (
    DEFAULT_COEFF_POOL,
    TruncatedHom,
    TruncatedPolyAlgebra,
    make_hom,
    _monomial_profiles,
    search_homs,
    triangularize,
)
from artinalg import linalg
from conftest import GOLDEN_GENS, GOLDEN_VARS, algebra_from_strings
from oracles import random_element


class TestTruncatedRing:
    def test_multiplication_truncates(self):
        B = TruncatedPolyAlgebra(4)
        t2 = B.t_power(2)
        t3 = B.t_power(3)
        assert (t2 * t3).is_zero()
        assert (t2 * t2).coords[4] == 1

    def test_units(self):
        B = TruncatedPolyAlgebra(3)
        assert B.t_order(B.from_coeffs([2, 1, 0, 0])) == 0
        assert B.t_order(B.t_power(1)) != 0

    def test_order(self):
        B = TruncatedPolyAlgebra(5)
        assert B.t_order(B.zero()) == 6  # N + 1 for zero
        assert B.t_order(B.one()) == 0
        assert B.t_order(B.from_coeffs([0, 0, 3, 1])) == 2

    def test_t_power_keeps_a_fraction_coefficient(self):
        c = Fraction(-1, 3)
        assert TruncatedPolyAlgebra(4).t_power(2, c).coords[2] is c
        assert TruncatedPolyAlgebra(4).t_power(2, 3).coords[2] == Fraction(3)

    def test_one_ring_per_truncation(self):
        B = TruncatedPolyAlgebra(4)
        assert isinstance(B, ArtinAlgebra)
        assert TruncatedPolyAlgebra(4) is B and TruncatedPolyAlgebra(5) is not B
        with pytest.raises(InvalidArgumentError):
            TruncatedPolyAlgebra(-1)

    @pytest.mark.parametrize("n", [2.5, 2.0, "2", True])
    def test_non_integer_truncation_is_an_invalid_argument(self, n):
        assert TruncatedPolyAlgebra(2).truncation == 2  # 2.0 == 2 must not reach the cached ring
        with pytest.raises(InvalidArgumentError, match="truncation must be an integer"):
            TruncatedPolyAlgebra(n)

    @pytest.mark.parametrize("n", range(7))
    def test_equals_the_presented_quotient(self, n):
        B = TruncatedPolyAlgebra(n)
        A = build_algebra(("t",), [f"t^{n + 1}"])
        assert list(B.basis) == list(A.basis)
        assert B.gb.polys == A.gb.polys
        rng = random.Random(61 + n)
        for _ in range(30):
            a, b = random_element(rng, A), random_element(rng, A)
            assert B.multiply_coords(a.coords, b.coords) == A.multiply_coords(a.coords, b.coords)
            assert (B.from_coeffs(a.coords) ** 3).coords == (a ** 3).coords
        assert B.mult_table == A.mult_table
        assert kahler_module(B).dim == n == kahler_module(A).dim
        assert nilradical(B) == nilradical(A)
        assert socle(B) == socle(A)

    def test_from_coeffs_cuts_past_t_to_the_n(self):
        assert TruncatedPolyAlgebra(3).from_coeffs([1, 2, 3, 4, 5, 6]).coords == (1, 2, 3, 4)
        assert TruncatedPolyAlgebra(3).from_coeffs([1, 2]).coords == (1, 2, 0, 0)

    def test_string_round_trip(self):
        B = TruncatedPolyAlgebra(6)
        u = B.from_string("t^2 - 1/2*t^5")
        assert u.coords[2] == 1 and u.coords[5] == Fraction(-1, 2)
        assert B.from_string(u.to_polynomial().to_string()) == u


class TestIntValuations:
    """The monoid {0, ..., N, oo} as the ints 0..N+1: oo is N + 1, the
    saturating sum is min(a + b, N + 1), and `<`, `min` and `max` order
    the values as the monoid does."""

    def test_order_with_infinity(self):
        B = TruncatedPolyAlgebra(3)
        values = [B.t_order(B.t_power(i)) for i in range(5)]  # t^4 is zero
        assert values == [0, 1, 2, 3, 4]
        assert B.t_order(B.zero()) == max(values) == 4

    @pytest.mark.parametrize("n", [0, 3, 6])
    def test_saturating_addition_is_the_ring_product(self, n):
        B = TruncatedPolyAlgebra(n)
        elements = [B.t_power(i) for i in range(n + 2)]  # t^(n+1) is zero
        for a in elements:
            for b in elements:
                assert B.t_order(a * b) == min(B.t_order(a) + B.t_order(b), n + 1)


def kills_every_generator(hom):
    """Substitute the images into each generator with plain ring arithmetic."""
    for g in hom.source.gens:
        total = hom.target.zero()
        for mono, c in g.terms.items():
            term = hom.target.one().scale(c)
            for img, e in zip(hom.images, mono.exps):
                term = term * img ** e
            total = total + term
        if not total.is_zero():
            return False
    return True


class TestMakeHom:
    def test_staircase_accepts_t2_t3_at_five(self, q2):
        hom = make_hom(q2, 5, ["t^2", "t^3"])
        assert kills_every_generator(hom)

    def test_fourth_power_accepts_t4_t5_at_fifteen(self, m4):
        hom = make_hom(m4, 15, ["t^4", "t^5"])
        assert kills_every_generator(hom)

    def test_staircase_rejects_t2_t3_at_six(self, q2):
        B = TruncatedPolyAlgebra(6)
        with pytest.raises(RelationViolatedError) as err:
            make_hom(q2, 6, ["t^2", "t^3"])
        assert B.t_order(err.value.residual) == 6
        unchecked = TruncatedHom(q2, B, [B.t_power(2), B.t_power(3)], verify=False)
        assert not kills_every_generator(unchecked)
        assert B.t_order(unchecked.violation()[1]) == 6

    def test_coefficient_sequences_accepted(self, q2):
        hom = make_hom(q2, 5, [[0, 0, 1], [0, 0, 0, 2]])
        assert kills_every_generator(hom)

    @pytest.mark.parametrize("n", [2.5, 5.0])
    def test_non_integer_truncation_is_an_invalid_argument(self, q2, n):
        with pytest.raises(InvalidArgumentError, match="truncation must be an integer"):
            make_hom(q2, n, ["t^2", "t^3"])

    @pytest.mark.parametrize("bad", [None, ["a"], [1, None], ["1/0"], 3])
    def test_unreadable_image_is_an_invalid_argument(self, q2, bad):
        with pytest.raises(InvalidArgumentError, match="image"):
            make_hom(q2, 3, [bad, "t"])


class TestValuation:
    def test_of_zero_is_n_plus_one(self, q2):
        hom = make_hom(q2, 5, ["t^2", "t^3"])
        assert hom.valuation(q2.zero()) == 6
        assert make_hom(q2, 3, ["t^2", "t^2"]).valuation(q2.from_string("X - Y")) == 4

    def test_of_one_is_zero(self, q2):
        hom = make_hom(q2, 5, ["t^2", "t^3"])
        assert hom.valuation(q2.one()) == 0

    def test_staircase_values(self, q2):
        hom = make_hom(q2, 5, ["t^2", "t^3"])
        x = q2.variable_element("X")
        y = q2.variable_element("Y")
        assert hom.valuation(x) == 2
        assert hom.valuation(y) == 3
        assert hom.valuation(x * y) == 5
        assert hom.valuation(y * y) == 6  # t^6 = 0: the kernel

    def test_unit_characterization(self, q2, golden):
        rng = random.Random(41)
        for A in (q2, golden):
            homs = search_homs(A, 8, strategy="monomial", budget=300)
            for hom in homs[:10]:
                for _ in range(10):
                    a = random_element(rng, A)
                    v = hom.valuation(a)
                    assert (v == 0) == (hom.target.t_order(hom.apply(a)) == 0)

    def test_monoid_law_with_saturation(self, q2):
        rng = random.Random(43)
        homs = search_homs(q2, 8, strategy=("monomial", "dense-random"), budget=300)
        assert homs
        for hom in homs[:20]:
            cap = hom.truncation
            for _ in range(20):
                a = random_element(rng, q2)
                b = random_element(rng, q2)
                assert hom.valuation(a * b) == min(
                    hom.valuation(a) + hom.valuation(b), cap + 1
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
        assert hom.valuation(out[0]) == hom.truncation + 1

    def test_staircase_pair(self, q2):
        hom = make_hom(q2, 5, ["t^2", "t^3"])
        x = q2.variable_element("X")
        y = q2.variable_element("Y")
        out = triangularize(hom, [x + y, y])
        values = [hom.valuation(e) for e in out]
        assert values == [2, 3]
        # span preserved: mutual reduction of coordinate matrices agrees
        before = linalg.rref([list((x + y).coords), list(y.coords)])[0]
        after = linalg.rref([list(e.coords) for e in out])[0]
        assert before == after

    def test_single_element(self, q2):
        hom = make_hom(q2, 5, ["t^2", "t^3"])
        x = q2.variable_element("X")
        out = triangularize(hom, [x])
        assert len(out) == 1 and hom.valuation(out[0]) <= hom.truncation

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
                finite = [v for v in values if v <= hom.truncation]
                assert finite == sorted(finite)
                assert len(set(finite)) == len(finite)
                tail = values[len(finite):]
                assert all(v == hom.truncation + 1 for v in tail)
                assert linalg.rref(rows)[0] == linalg.rref(
                    [list(e.coords) for e in out]
                )[0]


def reference_triangularize(hom, elements):
    """The elimination loop `triangularize` ran before it called
    `linalg.echelon`: repeatedly take the first member of least image
    t-order, unscaled, and clear that order from the others."""
    rows = [[list(hom.apply(e).coords), e] for e in elements]
    finished = []
    while True:
        best = None
        for pos, (vec, _) in enumerate(rows):
            lead = next((i for i, c in enumerate(vec) if c), None)
            if lead is not None and (best is None or lead < best[0]):
                best = (lead, pos)
        if best is None:
            break
        lead, pos = best
        pivot_vec, pivot_elt = rows.pop(pos)
        for row in rows:
            f = row[0][lead]
            if f:
                factor = f / pivot_vec[lead]
                row[0] = [a - factor * b for a, b in zip(row[0], pivot_vec)]
                row[1] = row[1] - pivot_elt.scale(factor)
        finished.append(pivot_elt)
    finished.extend(elt for _, elt in rows)
    return finished


GOLDEN = (("Y", "X"), ("X^3*Y", "X^5", "X*Y^3 + 2*X^3", "3*X^2*Y^2 + 5*Y^4"))
FOURTH_POWER = (("X", "Y"), ("X^4", "X^3*Y", "X^2*Y^2", "X*Y^3", "Y^4"))


class TestTriangularizeOutput:
    """triangularize's exact output, pivot order and unscaled pivots
    included: surjection_to_q takes its x and y from it."""

    @pytest.mark.parametrize("name", ["Q1", "Q2", "Q3", "Q4", "Q5", "golden", "fourth-power"])
    def test_equals_the_reference_loop(self, name):
        if name.startswith("Q"):
            A = q_algebra(int(name[1:]))
        else:
            A = algebra_from_strings(*(GOLDEN if name == "golden" else FOURTH_POWER))
        rng = random.Random(f"triangularize:{name}")
        homs = search_homs(A, 12, strategy=("monomial", "dense-random"), budget=150, seed=1)
        degree_one = [A.basis_element(i) for i, deg in enumerate(A.degrees) if deg == 1]
        compared = 0
        for hom in rng.sample(homs, 25):
            mixed = [
                sum((e.scale(rng.choice((0, 1, -2, Fraction(1, 3)))) for e in degree_one), A.zero())
                for _ in degree_one
            ]
            families = [degree_one, degree_one[::-1], mixed]
            families.append([random_element(rng, A) for _ in range(rng.randint(1, 4))])
            for family in families:
                if linalg.rank([e.coords for e in family]) != len(family):
                    continue
                out = triangularize(hom, family)
                assert [e.coords for e in out] == [e.coords for e in reference_triangularize(hom, family)]
                assert all(e.algebra is A for e in out)
                compared += 1
        assert compared >= 50


class TestSearch:
    def test_dual_numbers_monomial_family(self, dual_numbers):
        homs = search_homs(dual_numbers, 3, strategy="monomial", budget=200)
        described = {h.describe() for h in homs}
        assert "[N=3] X -> t^2" in described
        assert "[N=3] X -> t^3" in described
        assert "[N=3] X -> 2*t^2" in described
        # the doubling map only verifies once 2e exceeds the truncation
        # (a zero image has order N + 1, so it passes too)
        assert all(h.truncation < 2 * h.target.t_order(h.images[0]) for h in homs)

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
                assert kills_every_generator(rebuilt)

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

    def test_user_strategy_reads_coefficient_lists_as_one_image_set(self, q2):
        images = [[0, 0, 1], [0, 0, 0, Fraction(1, 2)]]
        homs = search_homs(q2, 5, strategy="user", images=images)
        assert [h.key() for h in homs] == [make_hom(q2, 5, images).key()]
        assert [h.key() for h in search_homs(q2, 5, strategy="user", images=[images])] == [
            h.key() for h in homs
        ]
        assert search_homs(q_algebra(2), 6, strategy="user", images=[[0, 0, 1], [0, 0, 0, 1]]) == []

    def test_user_strategy_rejects_an_unreadable_image(self, q2):
        with pytest.raises(InvalidArgumentError, match="image"):
            search_homs(q2, 5, strategy="user", images=[[None, "t"]])

    def test_user_strategy_takes_a_built_hom(self, q2, q3):
        hom = make_hom(q2, 5, ["t^2", "t^3"])
        assert [h.key() for h in search_homs(q2, 5, strategy="user", images=[hom])] == [hom.key()]
        assert hom.gen_seq == -1
        for algebra, n_max in ((q2, 6), (q3, 5)):
            with pytest.raises(IncompatibleAlgebrasError):
                search_homs(algebra, n_max, strategy="user", images=[hom])

    def test_a_user_search_leaves_the_given_homs_as_they_are(self):
        # a family's scan order is its gen_seq: searching its N = 12 homs
        # again, reversed, must not renumber them and so change the witness
        A = q_algebra(3)
        homs = search_homs(A, 12, ("monomial", "dense-random"), 2500, 0)
        before = critical_degree_search(A, homs)
        seqs = [h.gen_seq for h in homs]
        top = [h for h in homs if h.truncation == 12][::-1]
        again = search_homs(A, 12, strategy="user", images=top, budget=len(top))
        assert [h.key() for h in again] == sorted(h.key() for h in top)
        assert [h.gen_seq for h in homs] == seqs
        after = critical_degree_search(A, homs)
        assert after.witnesses[2].hom is before.witnesses[2].hom
        assert after.witnesses[2].hom.describe() == "[N=3] X -> t, Y -> t^2"

    def test_not_local_rejected(self, split_quadratic):
        with pytest.raises(NotLocalOverQError):
            search_homs(split_quadratic, 4)

    @pytest.mark.parametrize(
        "strategy, images, pool, message",
        [
            ((), None, None, "no strategy given"),
            ("user", None, None, "the user strategy needs images"),
            ("user", [], None, "the user strategy needs images"),
            (("monomial", "user"), None, None, "the user strategy needs images"),
            ("dense-random", None, [], "the coefficient pool is empty"),
            (("user", "monomial"), ["t^2", "t^3"], (), "the coefficient pool is empty"),
            ("monomial", None, [1, "x"], "cannot read the coordinate 'x'"),
            ("user", ["t^2", "t^3"], [None], "cannot read the coordinate None"),
        ],
        ids=[
            "no-strategy",
            "user-None",
            "user-empty",
            "monomial-and-user",
            "dense-random-empty-pool",
            "monomial-empty-pool",
            "unreadable-pool-entry",
            "unreadable-pool-entry-user",
        ],
    )
    def test_a_search_that_cannot_run_is_rejected_before_any_candidate(
        self, monkeypatch, q2, strategy, images, pool, message
    ):
        examined = []

        def recording(*args):
            examined.append(args)
            yield None

        for name in truncated._STRATEGIES:
            monkeypatch.setitem(truncated._STRATEGIES, name, recording)
        with pytest.raises(InvalidArgumentError, match=message):
            search_homs(q2, 5, strategy=strategy, images=images, coefficient_pool=pool)
        assert examined == []

    @pytest.mark.parametrize(
        "n_max, budget, message",
        [
            (2.5, 20, "n_max must be an integer, got 2.5"),
            ("3", 20, "n_max must be an integer, got '3'"),
            (True, 20, "n_max must be an integer, got True"),
            (3, 2.5, "budget must be an integer, got 2.5"),
            (3, {"monomial": 10, "dense-random": 2.0}, "budget must be an integer, got 2.0"),
            (3, {"monomal": 100}, "unknown strategy 'monomal'"),
        ],
        ids=[
            "n_max-float", "n_max-str", "n_max-bool", "budget-float", "budget-mapping",
            "budget-unknown-key",
        ],
    )
    def test_non_integer_sizes_are_rejected_before_any_candidate(
        self, monkeypatch, n_max, budget, message
    ):
        examined = []

        def recording(*args):
            examined.append(args)
            yield None

        for name in truncated._STRATEGIES:
            monkeypatch.setitem(truncated._STRATEGIES, name, recording)
        with pytest.raises(InvalidArgumentError, match=message):
            search_homs(q_algebra(2), n_max, ("monomial", "dense-random"), budget)
        assert examined == []

    def test_pool_entries_are_read_as_rationals(self, q2):
        for strategy in ("monomial", "dense-random"):
            as_text = search_homs(q2, 5, strategy, 60, coefficient_pool=["1", "-1/2"])
            exact = search_homs(q2, 5, strategy, 60, coefficient_pool=[1, Fraction(-1, 2)])
            assert [h.key() for h in as_text] == [h.key() for h in exact] != []

    def test_large_nmax_pays_only_for_the_budget(self):
        A = algebra_from_strings(
            ("X", "Y", "Z"), ("X^2 - Y^2", "Y^2 - Z^2", "X*Y", "X*Z", "Y*Z")
        )
        homs = search_homs(A, 120, budget={"monomial": 10})
        assert all(h.gen_seq < 10 for h in homs)

    def test_a_strategy_missing_from_the_budget_examines_nothing(self, monkeypatch, q2):
        drawn = []
        stream = truncated._STRATEGIES["dense-random"]

        def counted(*args):
            for hom in stream(*args):
                drawn.append(hom)
                yield hom

        monkeypatch.setitem(truncated._STRATEGIES, "dense-random", counted)
        homs = search_homs(q2, 6, ("monomial", "dense-random"), budget={"monomial": 50})
        assert homs and drawn == []

    def test_pool_is_the_documented_default(self):
        assert DEFAULT_COEFF_POOL[0] == 1 and len(DEFAULT_COEFF_POOL) == 7

    def test_generated_images_have_positive_order(self):
        """The documented limit: away from the origin only "user" images find homs."""
        A = build_algebra(("X",), ["X^3 - 3*X^2 + 3*X - 1"])
        assert search_homs(A, 6, strategy=("monomial", "dense-random"), budget=500) == []
        assert make_hom(A, 4, ["1 + t^2"]).images[0].coords[0] == 1
        assert len(search_homs(A, 4, strategy="user", images=["1 + t^2"], budget=1)) == 1


class TestSearchOrder:
    """`search_homs` returns the first hom found for each `key()`, sorted by
    `TruncatedHom.key`; it reads `truncated._int_key` once per hom the
    streams yield and `key()` never."""

    MIXED_POOL = (1, Fraction(-1, 2), Fraction(2, 3), Fraction(-5, 7), 3)
    # its zero is read to a Fraction(0) of its own, not truncated.ZERO
    POOL_WITH_ZERO = (0, 1, -1, Fraction(1, 2), Fraction(-1, 3))
    # large coprime denominators and negative values
    COPRIME_POOL = (-1, Fraction(1, 7), Fraction(-5, 11), Fraction(13, 1000003))
    # the staircase families and golden, with their n_max
    KEY_FAMILIES = {
        **{f"q{r}": (lambda r=r: q_algebra(r), 12) for r in range(1, 6)},
        "power_xy_4": (lambda: algebra_from_strings(
            ("X", "Y"), ("X^4", "X^3*Y", "X^2*Y^2", "X*Y^3", "Y^4")), 12),
        "golden": (lambda: algebra_from_strings(GOLDEN_VARS, GOLDEN_GENS), 8),
    }
    # n_max and image sets with rational coefficients; the first two verify
    USER_CASES = {
        "golden": (8, [["1/2*t^3 + 1/3*t^4", "-2/3*t^3 + 5/7*t^5"], ["t^3", "t^3"], ["t", "t^2"]]),
        "diag_xyz": (5, [["1/2*t^3", "-1/3*t^3 + t^4", "2/5*t^3"], ["t^3", "t^4", "-t^5"]]),
        "q3": (5, [["-3/4*t^2 + 1/3*t^3", "1/2*t^3"], ["t^2", "t^3"], ["t", "t"]]),
    }

    def search_counting(self, monkeypatch, algebra, n_max, **kwargs):
        """The search's result and the homs its streams yielded, checking
        that `_int_key` was read once per yielded hom and `key()` never."""
        yielded, int_keyed, keyed = [], [], []
        int_key, key = truncated._int_key, TruncatedHom.key

        def counting_int_key(hom):
            int_keyed.append(hom)
            return int_key(hom)

        def counting_key(hom):
            keyed.append(hom)
            return key(hom)

        def counted(stream):
            def wrapped(*args):
                for hom in stream(*args):
                    if hom is not None:
                        yielded.append(hom)
                    yield hom
            return wrapped

        monkeypatch.setattr(truncated, "_int_key", counting_int_key)
        monkeypatch.setattr(TruncatedHom, "key", counting_key)
        for name, stream in list(truncated._STRATEGIES.items()):
            monkeypatch.setitem(truncated._STRATEGIES, name, counted(stream))
        homs = search_homs(algebra, n_max, **kwargs)
        monkeypatch.undo()
        assert int_keyed == yielded
        assert keyed == []
        return homs, yielded

    def assert_sorted_first_of_each_key(self, homs, yielded):
        first: dict = {}
        for hom in yielded:
            first.setdefault(hom.key(), hom)
        assert [h.gen_seq for h in first.values()] == list(range(len(first)))
        unique = list(first.values())
        assert homs == sorted(unique, key=TruncatedHom.key)  # maps compare by identity

    def assert_negatives_decide_the_order(self, homs):
        """Some neighbours of one N first differ where a value is negative,
        and the order is not that of the (numerator, denominator) pairs."""
        def first_difference(a, b):
            coeffs = [[c for img in h.images for c in img.coords] for h in (a, b)]
            return next(pair for pair in zip(*coeffs) if pair[0] != pair[1])

        assert any(min(first_difference(a, b)) < 0
                   for a, b in zip(homs, homs[1:]) if a.truncation == b.truncation)
        assert sorted(homs, key=truncated._int_key) != homs

    @pytest.mark.parametrize("n_max", [3, 6, 9])
    def test_mixed_denominators_at_several_n(self, monkeypatch, q2, n_max):
        homs, yielded = self.search_counting(
            monkeypatch, q2, n_max, strategy=("monomial", "dense-random"), budget=300,
            coefficient_pool=self.MIXED_POOL,
        )
        assert len(homs) < len(yielded)  # duplicates were dropped
        assert len({h.truncation for h in homs}) > 1
        self.assert_sorted_first_of_each_key(homs, yielded)

    @pytest.mark.parametrize("name", ["q2", "q3", "golden"])
    def test_a_pool_with_its_own_zero(self, monkeypatch, request, name):
        algebra = request.getfixturevalue(name)
        homs, yielded = self.search_counting(
            monkeypatch, algebra, 6, strategy=("monomial", "dense-random"), budget=300,
            coefficient_pool=self.POOL_WITH_ZERO,
        )
        assert any(not c and c is not truncated.ZERO
                   for h in homs for img in h.images for c in img.coords)
        self.assert_sorted_first_of_each_key(homs, yielded)
        self.assert_negatives_decide_the_order(homs)

    @pytest.mark.parametrize("name", list(USER_CASES))
    def test_user_homs_next_to_searched_ones(self, monkeypatch, request, name):
        n_max, image_sets = self.USER_CASES[name]
        algebra = request.getfixturevalue(name)
        homs, yielded = self.search_counting(
            monkeypatch, algebra, n_max, strategy=("user", "monomial", "dense-random"),
            budget=200, images=image_sets,
        )
        user_keys = {make_hom(algebra, n_max, images).key() for images in image_sets[:2]}
        assert user_keys <= {h.key() for h in homs}
        self.assert_sorted_first_of_each_key(homs, yielded)

    @pytest.mark.parametrize("name", list(KEY_FAMILIES))
    def test_int_keys_are_equal_exactly_when_keys_are(self, monkeypatch, name):
        build, n_max = self.KEY_FAMILIES[name]
        homs, yielded = self.search_counting(
            monkeypatch, build(), n_max, strategy=("monomial", "dense-random"), budget=2500,
        )
        assert len(homs) < len(yielded)  # duplicates were dropped
        pairs = {(truncated._int_key(h), h.key()) for h in yielded}
        assert len(pairs) == len({k for k, _ in pairs}) == len({k for _, k in pairs})

    @pytest.mark.parametrize("name", ["q2", "q3", "golden"])
    def test_large_coprime_denominators_and_negative_values(self, monkeypatch, request, name):
        homs, yielded = self.search_counting(
            monkeypatch, request.getfixturevalue(name), 6, strategy=("monomial", "dense-random"),
            budget=300, coefficient_pool=self.COPRIME_POOL,
        )
        self.assert_sorted_first_of_each_key(homs, yielded)
        self.assert_negatives_decide_the_order(homs)

    @pytest.mark.parametrize("pool", [(1, -1, 2), (1, 2, 3)], ids=["1,-1,2", "1,2,3"])
    @pytest.mark.parametrize("name, n_max", [("q2", 12), ("golden", 8)])
    def test_integer_pools(self, request, name, n_max, pool):
        # every denominator is 1: the sort compares the numerators, zeros as 0
        homs = search_homs(
            request.getfixturevalue(name), n_max, ("monomial", "dense-random"), 1500,
            coefficient_pool=pool,
        )
        assert len({h.truncation for h in homs}) > 1
        assert homs == sorted(homs, key=TruncatedHom.key)

    @pytest.mark.parametrize("strategy", ["monomial", "dense-random"])
    def test_the_search_hashes_no_fraction(self, monkeypatch, q3, strategy):
        hashed = []
        fraction_hash = Fraction.__hash__

        def counting_hash(c):
            hashed.append(c)
            return fraction_hash(c)

        monkeypatch.setattr(Fraction, "__hash__", counting_hash)
        homs = search_homs(q3, 12, strategy=strategy, budget=1000)
        monkeypatch.undo()
        assert homs and hashed == []


class TestComposition:
    def test_hom_after_quotient(self, q2):
        Q, pi = quotient_algebra(q2, ["Y"])
        hom = make_hom(Q, 2, ["t", "0"])
        combo = pi.then(hom)
        rng = random.Random(59)
        for _ in range(20):
            a = random_element(rng, q2)
            assert combo.apply(a) == hom.apply(pi.apply(a))

    @pytest.mark.parametrize(
        "name, extra, n, images, record",
        [
            ("q2", "Y", 2, ["t", "0"], [["0", "1", "0"], ["0", "0", "0"]]),
            ("golden", "X^3", 2, ["t", "t"], [["0", "1", "0"], ["0", "1", "0"]]),
            ("m4", "X - Y", 3, ["t", "t"], [["0", "1", "0", "0"]] * 2),
            ("m4", "Y", 3, ["t + 1/2*t^2", "0"], [["0", "1", "1/2", "0"], ["0"] * 4]),
        ],
    )
    def test_quotient_then_hom_is_a_truncated_hom(self, request, name, extra, n, images, record):
        A = request.getfixturevalue(name)
        Q, pi = quotient_algebra(A, [extra])
        combo = pi.then(make_hom(Q, n, images))
        assert isinstance(combo, TruncatedHom)
        assert combo.to_record() == {"N": n, "images": record}
        assert kills_every_generator(combo)


class TestImagesLieInTheTarget:
    @pytest.mark.parametrize("verify", [True, False])
    def test_truncated_target(self, q2, verify):
        B, C = TruncatedPolyAlgebra(5), TruncatedPolyAlgebra(6)
        with pytest.raises(IncompatibleAlgebrasError):
            TruncatedHom(q2, B, [C.t_power(2), B.t_power(3)], verify=verify)
        with pytest.raises(IncompatibleAlgebrasError):
            TruncatedHom(q2, B, [q2.zero(), B.t_power(3)], verify=verify)

    @pytest.mark.parametrize("verify", [True, False])
    def test_algebra_target(self, q2, chain3, verify):
        x = chain3.variable_element("X")
        with pytest.raises(IncompatibleAlgebrasError):
            AlgebraMap(q2, chain3, [x, q2.zero()], verify=verify)
        with pytest.raises(IncompatibleAlgebrasError):
            AlgebraMap(q2, chain3, [x, TruncatedPolyAlgebra(2).zero()], verify=verify)

    def test_make_hom_rejects_a_foreign_truncation(self, q2):
        with pytest.raises(IncompatibleAlgebrasError):
            make_hom(q2, 5, [TruncatedPolyAlgebra(6).t_power(2), "t^3"])


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


class TestOrderPruning:
    """A monomial whose image orders sum past N is zero without multiplying;
    the result is the one of the unpruned AlgebraMap evaluation."""

    STAIRCASE = (("X", "Y"), ("X^3", "X^2*Y", "Y^2"))
    UNIT_LINE = (("X",), ("X^2 - 2*X + 1",))
    MIXED = (("X", "Y"), ("X^2 - 2*X + 1", "Y^3"))

    @pytest.mark.parametrize(
        "presentation, n, images",
        [
            (STAIRCASE, 6, ["t^2", "t^3"]),
            (STAIRCASE, 6, ["t^2 + t^5", "0"]),
            (STAIRCASE, 4, ["0", "0"]),
            (STAIRCASE, 6, ["t", "t"]),
            (STAIRCASE, 6, ["t", "0"]),
            (UNIT_LINE, 1, ["1 + t"]),
            (UNIT_LINE, 3, ["1 + t"]),
            (UNIT_LINE, 0, ["1"]),
            (MIXED, 4, ["1 - t^2", "2*t + t^3"]),
            (MIXED, 5, ["1 + t^3", "-t^2"]),
        ],
        ids=[
            "positive-orders",
            "zero-image",
            "all-zero",
            "rejected-positive",
            "rejected-zero-image",
            "unit",
            "rejected-unit",
            "into-q",
            "rejected-unit-and-positive",
            "unit-and-positive",
        ],
    )
    def test_equals_unpruned_evaluation(self, presentation, n, images):
        A = algebra_from_strings(*presentation)
        B = TruncatedPolyAlgebra(n)
        targets = [B.from_string(s) for s in images]
        hom = TruncatedHom(A, B, targets, verify=False)
        plain = AlgebraMap(A, B, targets, verify=False)
        for exps in product(range(7), repeat=len(A.variables)):
            assert hom.evaluate_monomial(exps) == plain.evaluate_monomial(exps)
        assert hom.violation() == plain.violation()
        for i in range(A.dim):
            assert hom.basis_image(i) == plain.basis_image(i)

    def test_pruned_monomials_share_the_ring_zero(self):
        A = algebra_from_strings(*self.STAIRCASE)
        B = TruncatedPolyAlgebra(6)
        hom = TruncatedHom(A, B, [B.t_power(2), B.t_power(3)], verify=False)
        assert hom.evaluate_monomial((4, 0)) is B.zero() is B.zero()
        assert A.zero() is A.zero() and A.zero().is_zero()

    def test_rejected_candidates_keep_their_residual(self):
        A = algebra_from_strings(*self.UNIT_LINE)
        B = TruncatedPolyAlgebra(3)
        hom = TruncatedHom(A, B, [B.from_string("1 + t")], verify=False)
        g, residual = hom.violation()
        assert g == A.gens[0] and residual == B.t_power(2)
        with pytest.raises(RelationViolatedError):
            make_hom(A, 3, ["1 + t"])
        assert make_hom(A, 1, ["1 + t"]).violation() is None


def reference_residual_order(gen, exponents, coefficients):
    """Exact t-order of gen at X_i -> c_i t^(e_i), None if zero: every term
    evaluated with Fraction powers and summed by degree."""
    acc = {}
    for mono, c in gen.terms.items():
        deg, val = 0, c
        for e, exp_profile, coeff in zip(mono.exps, exponents, coefficients):
            if e:
                deg += e * exp_profile
                val *= coeff**e
        s = acc.get(deg, Fraction(0)) + val
        if s:
            acc[deg] = s
        else:
            acc.pop(deg, None)
    return min(acc) if acc else None


def reference_monomial_keys(algebra, n_max, pool):
    """The key() of each monomial candidate, None for a rejected one, from
    one residual order per generator and coefficient tuple."""
    nvars = len(algebra.variables)
    for profile in _monomial_profiles(nvars, n_max):
        for coeffs in product(pool, repeat=nvars):
            orders = [reference_residual_order(g, profile, coeffs) for g in algebra.gens]
            finite = [o for o in orders if o is not None]
            n = n_max if not finite else min(min(finite) - 1, n_max)
            if n < 1:
                yield None
                continue
            target = TruncatedPolyAlgebra(n)
            yield (n, tuple(target.t_power(e, c).coords for e, c in zip(profile, coeffs)))


class TestMonomialStream:
    """The stream reads degree groups once per profile and evaluates with
    Fractions only the groups whose terms share a degree; it yields what
    one residual order per generator and coefficient tuple gave."""

    STAIRCASE_INPUTS = [
        (f"Q({r})", ("X", "Y"), (f"X^{r + 1}", f"X^{r}*Y", "Y^2")) for r in range(1, 6)
    ] + [("<X,Y>^4", *FOURTH_POWER)]
    # two groups that can cancel below the single terms X^4, Y^4: at
    # e_X = e_Y the degree-2e group vanishes for c_X = ±c_Y, the
    # degree-3e group for c_X = c_Y
    COLLIDING = (("X", "Y"), ("X^2 - Y^2 + X^3 - Y^3", "X^4", "Y^4"))
    INPUTS = [
        ("golden", GOLDEN, 24),
        ("diag_xyz", (("X", "Y", "Z"), ("X^2 - Y^2", "Y^2 - Z^2", "X*Y", "X*Z", "Y*Z")), 12),
        *((name, (v, g), 12) for name, v, g in STAIRCASE_INPUTS),
        ("unit-line", TestOrderPruning.UNIT_LINE, 12),
        ("mixed", TestOrderPruning.MIXED, 12),
        ("colliding", COLLIDING, 12),
    ]
    POOLS = [
        DEFAULT_COEFF_POOL,
        (Fraction(0), Fraction(1), Fraction(-1), Fraction(2, 2)),
        (Fraction(1), Fraction(-1)),
    ]

    @pytest.mark.parametrize("pool", POOLS, ids=["default-pool", "with-zero", "units"])
    @pytest.mark.parametrize(
        "presentation, n_max", [pytest.param(p, n, id=name) for name, p, n in INPUTS]
    )
    def test_candidates_equal_the_reference(self, presentation, n_max, pool):
        A = algebra_from_strings(*presentation)
        budget = 1200
        stream = truncated._monomial_stream(A, n_max, pool, 0, None)
        got = [None if hom is None else hom.key() for hom in islice(stream, budget)]
        assert got == list(islice(reference_monomial_keys(A, n_max, pool), budget))

    @pytest.mark.parametrize(
        "presentation, n_max", [pytest.param(p, n, id=name) for name, p, n in INPUTS]
    )
    def test_orders_from_the_profile_equal_those_of_the_images(self, presentation, n_max):
        # the stream sets image_orders() from the profile, N+1 for an
        # exponent above N or a zero coefficient; make_hom reads the images
        A = algebra_from_strings(*presentation)
        stream = truncated._monomial_stream(A, n_max, (Fraction(0), Fraction(1)), 0, None)
        homs = [hom for hom in islice(stream, 400) if hom is not None]
        for hom in homs:
            assert hom.image_orders() == make_hom(A, hom.truncation, hom.images).image_orders()

    def test_staircase_algebras_evaluate_no_group(self, monkeypatch):
        evaluated = []
        group_is_nonzero = truncated._group_is_nonzero

        def counting(terms, coeffs):
            evaluated.append(terms)
            return group_is_nonzero(terms, coeffs)

        monkeypatch.setattr(truncated, "_group_is_nonzero", counting)
        for _, variables, gens in self.STAIRCASE_INPUTS:
            A = algebra_from_strings(variables, gens)
            stream = truncated._monomial_stream(A, 12, DEFAULT_COEFF_POOL, 0, None)
            assert sum(hom is not None for hom in stream) == 144 * 49
        assert evaluated == []
        A = algebra_from_strings(*self.COLLIDING)
        list(truncated._monomial_stream(A, 12, DEFAULT_COEFF_POOL, 0, None))
        assert evaluated


def reference_dense_random_draws(nvars, n_max, pool, seed):
    """Each dense-random candidate as (N, coefficient lists), drawn through
    the public `random` API: randint for N and for each image's lead, and
    choice(pool) at the lead and, each with probability 0.4, at the next
    four places."""
    rng = random.Random(f"{seed}:dense-random:{n_max}")
    while True:
        n = rng.randint(1, n_max)
        images = []
        for _ in range(nvars):
            lead = rng.randint(1, n)
            coeffs = [0] * (n + 1)
            for k in range(lead, min(n, lead + 4) + 1):
                if k == lead or rng.random() < 0.4:
                    coeffs[k] = rng.choice(pool)
            images.append(coeffs)
        yield n, images


def reference_dense_random_keys(algebra, n_max, pool, seed):
    """The key() of each dense-random candidate, None for a rejected one:
    the reference draws, each candidate verified by a plain AlgebraMap."""
    for n, coeffs in reference_dense_random_draws(len(algebra.variables), n_max, pool, seed):
        B = TruncatedPolyAlgebra(n)
        images = [B.from_coeffs(c) for c in coeffs]
        valid = AlgebraMap(algebra, B, images, verify=False).violation() is None
        yield (n, tuple(img.coords for img in images)) if valid else None


class TestDenseRandomStream:
    """The stream records each image's t-order as drawn, and decides a
    candidate on a monomial presentation from those orders alone; it
    yields what exact verification of every candidate gave."""

    INPUTS = TestMonomialStream.INPUTS + [
        ("xyz-monomial", (("X", "Y", "Z"), ("X^4", "Y^4", "Z^4", "X*Y*Z")), 12),
    ]

    @pytest.mark.parametrize("seed", [0, 3])
    @pytest.mark.parametrize("pool", TestMonomialStream.POOLS, ids=["default-pool", "with-zero", "units"])
    @pytest.mark.parametrize(
        "presentation, n_max", [pytest.param(p, n, id=name) for name, p, n in INPUTS]
    )
    def test_candidates_equal_the_reference(self, presentation, n_max, pool, seed):
        A = algebra_from_strings(*presentation)
        budget = 1500
        homs = list(islice(truncated._dense_random_stream(A, n_max, pool, seed, None), budget))
        got = [None if hom is None else hom.key() for hom in homs]
        assert got == list(islice(reference_dense_random_keys(A, n_max, pool, seed), budget))
        for hom in filter(None, homs):
            assert hom.image_orders() == tuple(map(hom.target.t_order, hom.images))

    @pytest.mark.parametrize("seed", [0, 3])
    @pytest.mark.parametrize("pool", [DEFAULT_COEFF_POOL, (0, 1, -1)], ids=["default-pool", "0,1,-1"])
    @pytest.mark.parametrize("name, n_max", [("q2", 12), ("golden", 24)])
    def test_the_draw_is_that_of_the_public_random_api(self, request, name, n_max, pool, seed):
        # the stream draws through rng._randbelow, as randint and choice do
        A = request.getfixturevalue(name)
        pool = tuple(map(Fraction, pool))
        expected = []
        for n, coeffs in islice(reference_dense_random_draws(len(A.variables), n_max, pool, seed), 600):
            try:
                expected.append(make_hom(A, n, coeffs).to_record())
            except RelationViolatedError:
                expected.append(None)
        stream = truncated._dense_random_stream(A, n_max, pool, seed, None)
        got = [None if hom is None else hom.to_record() for hom in islice(stream, 600)]
        assert got == expected and any(expected)

    # X - Y has two terms, so neither is a monomial presentation; in the
    # second no generator is a single term
    LINE = (("X", "Y"), ("X - Y", "Y^3"))
    LINE_SUM_OF_CUBES = (("X", "Y"), ("X - Y", "X^3 + Y^3"))

    @pytest.mark.parametrize("n_max", [4, 12])
    @pytest.mark.parametrize(
        "strategy", ["monomial", "dense-random", ("monomial", "dense-random")],
        ids=["monomial", "dense-random", "both"],
    )
    def test_one_ideal_in_two_presentations(self, strategy, n_max):
        A, B = algebra_from_strings(*self.LINE), algebra_from_strings(*self.LINE_SUM_OF_CUBES)
        assert A.gb.polys == B.gb.polys and list(A.basis) == list(B.basis)
        records = [
            [h.to_record() for h in search_homs(C, n_max, strategy, 2500, 0)] for C in (A, B)
        ]
        assert records[0] == records[1] != []


class TestKeysFromTheDraw:
    """The monomial and dense-random streams build their homs with
    `TruncatedHom._raw`, each carrying the `_int_key` of its images from
    the draw; such a hom reads as the verified hom of the same images."""

    def assert_keys_from_the_draw(self, algebra, stream):
        # unit-line and mixed have no hom of positive order: nothing to compare
        for hom in filter(None, stream):
            rebuilt = make_hom(algebra, hom.truncation, hom.images)
            assert truncated._int_key(hom) == truncated._int_key(rebuilt)

    @pytest.mark.parametrize("pool", TestMonomialStream.POOLS, ids=["default-pool", "with-zero", "units"])
    @pytest.mark.parametrize(
        "presentation, n_max",
        [pytest.param(p, n, id=name) for name, p, n in TestMonomialStream.INPUTS],
    )
    def test_monomial_keys_equal_the_scanned_keys(self, presentation, n_max, pool):
        A = algebra_from_strings(*presentation)
        stream = truncated._monomial_stream(A, n_max, pool, 0, None)
        self.assert_keys_from_the_draw(A, islice(stream, 600))

    @pytest.mark.parametrize("seed", [0, 3])
    @pytest.mark.parametrize("pool", TestMonomialStream.POOLS, ids=["default-pool", "with-zero", "units"])
    @pytest.mark.parametrize(
        "presentation, n_max",
        [pytest.param(p, n, id=name) for name, p, n in TestDenseRandomStream.INPUTS],
    )
    def test_dense_random_keys_equal_the_scanned_keys(self, presentation, n_max, pool, seed):
        A = algebra_from_strings(*presentation)
        stream = truncated._dense_random_stream(A, n_max, pool, seed, None)
        self.assert_keys_from_the_draw(A, islice(stream, 400))

    def test_staircase_searches_scan_no_key(self, monkeypatch):
        scanned = []
        read_images = truncated._read_images

        def counting(hom):
            scanned.append(hom)
            return read_images(hom)

        monkeypatch.setattr(truncated, "_read_images", counting)
        # the whole monomial space (144 profiles of 49 tuples) and 2500 draws
        budget = {"monomial": 144 * 49, "dense-random": 2500}
        for _, variables, gens in TestMonomialStream.STAIRCASE_INPUTS:
            A = algebra_from_strings(variables, gens)
            assert len(search_homs(A, 12, ("monomial", "dense-random"), budget, 0)) > 1000
        assert scanned == []

    def test_pools_with_zero_and_colliding_groups_scan_no_key(self, monkeypatch, q3):
        # a zero in the pool makes every group of Q(3) colliding; the
        # colliding input has groups that cancel for some coefficients
        scanned = []
        read_images = truncated._read_images
        monkeypatch.setattr(truncated, "_read_images", lambda hom: scanned.append(hom) or read_images(hom))
        assert len(search_homs(q3, 12, "monomial", 144 * 49, coefficient_pool=(0, 1, -1, 2))) > 500
        colliding = algebra_from_strings(*TestMonomialStream.COLLIDING)
        for pool in TestMonomialStream.POOLS:
            assert search_homs(colliding, 12, "monomial", 3000, coefficient_pool=pool)
        assert scanned == []

    @pytest.mark.parametrize("name", ["q3", "golden", "colliding"])
    def test_a_raw_hom_reads_as_the_verified_hom(self, request, name):
        if name == "colliding":
            A = algebra_from_strings(*TestMonomialStream.COLLIDING)
        else:
            A = request.getfixturevalue(name)
        pool = TestMonomialStream.POOLS[1]
        streams = [
            truncated._monomial_stream(A, 8, DEFAULT_COEFF_POOL, 0, None),
            truncated._monomial_stream(A, 8, pool, 0, None),
            truncated._dense_random_stream(A, 8, pool, 3, None),
        ]
        rng = random.Random(71)
        elements = [random_element(rng, A) for _ in range(4)] + [A.variable_element(v) for v in A.variables]
        for stream in streams:
            for hom in islice(filter(None, stream), 0, 300, 30):
                rebuilt = make_hom(A, hom.truncation, hom.images)
                square = make_hom(hom.target, hom.truncation, ["t^2"])
                assert hom.image_orders() == rebuilt.image_orders()
                assert hom.describe() == rebuilt.describe()
                assert hom.to_record() == rebuilt.to_record()
                assert hom.then(square).key() == rebuilt.then(square).key()
                for a in elements:
                    assert hom.apply(a) == rebuilt.apply(a)
                    assert hom.valuation(a) == rebuilt.valuation(a)


class TestShapeFromTheDraw:
    """The monomial image tables and the dense-random stream set each hom's
    leads (`_leads`, or not single-term) from the draw, and they are what
    the images give, read from scratch."""

    @staticmethod
    def assert_shape_of_the_images(algebra, hom):
        rebuilt = make_hom(algebra, hom.truncation, hom.images)
        terms = [[c for c in img.coords if c] for img in hom.images]
        expected = None
        if all(len(t) < 2 for t in terms):
            expected = tuple(t[0] if t else 0 for t in terms)
        assert hom._leads() == rebuilt._leads() == expected

    @pytest.mark.parametrize("seed", [0, 3])
    @pytest.mark.parametrize("pool", TestMonomialStream.POOLS, ids=["default-pool", "with-zero", "units"])
    def test_monomial_homs_carry_key_and_shape(self, pool, seed):
        # colliding profiles (the colliding input, or a zero in the pool) too
        for _, presentation, n_max in TestMonomialStream.INPUTS:
            A = algebra_from_strings(*presentation)
            stream = truncated._monomial_stream(A, n_max, pool, seed, None)
            for hom in islice(filter(None, stream), 0, 600, 3):
                assert hom._key is not None and hom._shape is not None
                assert hom._leads() is not None  # every monomial hom is single-term
                self.assert_shape_of_the_images(A, hom)

    @pytest.mark.parametrize("seed", [0, 3])
    @pytest.mark.parametrize("pool", TestMonomialStream.POOLS, ids=["default-pool", "with-zero", "units"])
    def test_dense_random(self, pool, seed):
        singles = others = 0
        for _, presentation, n_max in TestDenseRandomStream.INPUTS:
            A = algebra_from_strings(*presentation)
            stream = truncated._dense_random_stream(A, n_max, pool, seed, None)
            for hom in filter(None, islice(stream, 400)):  # unit-line has none
                assert hom._shape is not None
                singles += hom._leads() is not None
                others += hom._leads() is None
                self.assert_shape_of_the_images(A, hom)
        assert singles and others

    def test_user_copies_carry_the_shape(self, q2):
        homs = search_homs(q2, 6, ("monomial", "dense-random"), 300)
        copies = search_homs(q2, 6, "user", len(homs), images=[h for h in homs if h.truncation == 6])
        assert copies
        for copy in copies:
            original = next(h for h in homs if h.key() == copy.key())
            assert copy is not original and copy._shape is original._shape is not None

    def test_staircase_jobs_read_no_image_for_the_shape(self, monkeypatch):
        # the critdeg search and scan and the `tau --r` check of each staircase
        # input; only the scan's degree-one witness, built by `make_hom`, is read
        read = []
        read_images = truncated._read_images
        monkeypatch.setattr(truncated, "_read_images", lambda hom: read.append(hom) or read_images(hom))
        for name, variables, gens in TestMonomialStream.STAIRCASE_INPUTS:
            A = algebra_from_strings(variables, gens)
            report = critical_degree_search(A, search_homs(A, 12, ("monomial", "dense-random"), 2500, 0))
            assert report.homs_scanned > 1000
            if name.startswith("Q("):
                x, y = (A.variable_element(v) for v in A.variables)
                omega = omega_witness(A, x, y, int(name[2:-1]))
                assert tau_membership_check(A, omega, search_homs(A, 8, "monomial", 2000)).all_killed
        assert len(read) == len(TestMonomialStream.STAIRCASE_INPUTS)
        assert all(hom.truncation == 3 and hom.gen_seq == -1 for hom in read)
