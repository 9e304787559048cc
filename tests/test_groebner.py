import random
from fractions import Fraction
from itertools import product as iter_product

import pytest

from artinalg import groebner
from artinalg.errors import NotZeroDimensionalError
from artinalg.groebner import (
    GroebnerBasis,
    buchberger,
    ideal_membership,
    normal_form,
    s_polynomial,
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


def _power_of_maximal_ideal(k):
    variables = ("X", "Y", "Z")
    gens = [
        Polynomial.from_monomial(variables, Monomial(exps))
        for exps in iter_product(range(k + 1), repeat=3)
        if sum(exps) == k
    ]
    return variables, gens


def _selection_inputs():
    yield "golden", GOLDEN_VARS, [P(g, GOLDEN_VARS) for g in GOLDEN_GENS]
    for r in range(1, 6):
        yield f"Q({r})", XY, [P(f"X^{r + 1}"), P(f"X^{r}*Y"), P("Y^2")]
    for k in (3, 4):
        yield (f"<X,Y,Z>^{k}", *_power_of_maximal_ideal(k))
    for seed in range(6):
        rng = random.Random(1000 + seed)
        variables = ("X", "Y", "Z")[: 2 + seed % 2]
        yield f"random-{seed}", variables, random_zero_dim_gens(rng, variables)


def reference_s_pairs(gens, order):
    """The leading monomials of the S-pairs that a Buchberger loop reduces
    when it scans every open pair for the least (key(lcm), i, j) and reads
    each leading term afresh (normal selection, coprime pairs skipped)."""
    key = order.key_function(gens[0].variables)

    def lead(p):
        return p.leading_monomial(order)

    def remainder(p, reducers):
        return normal_form(p, GroebnerBasis(p.variables, order, reducers))

    work = sorted((g for g in gens if not g.is_zero()), key=lambda p: key(lead(p)))
    changed = True
    while changed:
        changed = False
        for i, p in enumerate(work):
            if p.is_zero():
                continue
            r = remainder(p, [q for k, q in enumerate(work) if k != i and not q.is_zero()])
            if r != p:
                work[i] = r
                changed = True
        work = [p for p in work if not p.is_zero()]
    basis = sorted((p.monic(order) for p in work), key=lambda p: key(lead(p)))
    pairs = {(i, j) for j in range(len(basis)) for i in range(j)}

    def pair_key(pair):
        i, j = pair
        return (key(lead(basis[i]).lcm(lead(basis[j]))), i, j)

    reduced = []
    while pairs:
        i, j = min(pairs, key=pair_key)
        pairs.remove((i, j))
        lm_i, lm_j = lead(basis[i]), lead(basis[j])
        if lm_i.lcm(lm_j) == lm_i * lm_j:
            continue
        reduced.append((lm_i, lm_j))
        r = remainder(s_polynomial(basis[i], basis[j], order), basis)
        if not r.is_zero():
            basis.append(r.monic(order))
            pairs.update((k, len(basis) - 1) for k in range(len(basis) - 1))
    return reduced


def _recorded_s_pairs(monkeypatch, gens, order):
    """The leading monomials of the S-pairs `buchberger` reduces."""
    reduced = []
    s_pair = groebner._s_pair

    def recording(a, b, lcm):
        reduced.append((a[0], b[0]))
        return s_pair(a, b, lcm)

    monkeypatch.setattr(groebner, "_s_pair", recording)
    gb = buchberger(gens, order)
    monkeypatch.undo()
    return reduced, gb


def _count_leading_monomials(monkeypatch):
    calls = []
    leading_monomial = Polynomial.leading_monomial

    def counted(self, order):
        calls.append(self)
        return leading_monomial(self, order)

    monkeypatch.setattr(Polynomial, "leading_monomial", counted)
    return calls


class TestPairSelection:
    @pytest.mark.parametrize("kind", [MonomialOrder.GREVLEX, MonomialOrder.LEX])
    @pytest.mark.parametrize(
        "variables, gens",
        [pytest.param(v, g, id=name) for name, v, g in _selection_inputs()],
    )
    def test_pair_heap_keeps_normal_selection(self, monkeypatch, variables, gens, kind):
        order = MonomialOrder(kind, variables)
        reduced, _ = _recorded_s_pairs(monkeypatch, gens, order)
        assert reduced == reference_s_pairs(gens, order)

    @pytest.mark.parametrize(
        "name, count", [("golden", 5), ("<X,Y,Z>^3", 36), ("<X,Y,Z>^4", 93)]
    )
    def test_s_polynomial_counts(self, monkeypatch, name, count):
        [(variables, gens)] = [(v, g) for n, v, g in _selection_inputs() if n == name]
        reduced, _ = _recorded_s_pairs(monkeypatch, gens, MonomialOrder.grevlex(variables))
        assert len(reduced) == count

    def test_leading_terms_are_found_once_per_basis_entry(self, monkeypatch):
        # 168,838 leading_monomial calls when every reducer, pair key and
        # S-polynomial read its leading terms afresh
        variables, gens = _power_of_maximal_ideal(6)
        reduced, gb = _recorded_s_pairs(monkeypatch, gens, None)
        assert len(reduced) == 360 and len(gb) == 28
        calls = _count_leading_monomials(monkeypatch)
        buchberger(gens)
        assert len(calls) <= 280

    def test_normal_form_reads_the_stored_leading_monomials(self, monkeypatch, golden_gb):
        p = P("X^5 + 3*X^2*Y^3 - Y", GOLDEN_VARS)
        expected = normal_form(p, golden_gb)
        calls = _count_leading_monomials(monkeypatch)
        assert normal_form(p, golden_gb) == expected
        assert calls == []

    def test_non_monic_basis_reduces_like_its_monic_twin(self, golden_gb):
        scaled = GroebnerBasis(
            golden_gb.variables,
            golden_gb.order,
            [g.scale(c) for g, c in zip(golden_gb.polys, (3, -2, Fraction(1, 7), 5))],
        )
        rng = random.Random(5)
        for _ in range(20):
            p = random_polynomial(rng, GOLDEN_VARS, max_degree=6, max_terms=5)
            assert normal_form(p, scaled) == normal_form(p, golden_gb)


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
