"""The single-term fast paths and the form memo against the generic path.

A searched hom X_i -> c_i t^(e_i) carries its key and its leads c_i, set
from the draw (`TruncatedHom._leads`): `apply`, `basis_image` and `evaluate_polynomial`
then add c*∏c_i^a_i at t^(a·e) per term, and `pushforward` shifts and
scales h(a_j) by the derivative c_j e_j t^(e_j-1).  Every hom of the
benchmark's staircase and golden families (seeds 0 and 3, two more
coefficient pools on the golden algebra) must agree with the generic
evaluation of a `make_hom` copy, whose key is None, and with the generic
pushforward of a plain `AlgebraMap` on the same images (`pushforward`
takes the single-term path only for a keyed hom; the copy takes the
generic sum).
"""

import functools
import random
from fractions import Fraction

import pytest

from artinalg import q_algebra, truncated
from artinalg.algebra import AlgebraElement, AlgebraMap, grading_info, socle
from artinalg.berger import omega_witness, tau_membership_check
from artinalg.kahler import DifferentialForm, kahler_module, pushforward
from artinalg.truncated import TruncatedPolyAlgebra, _single_term, make_hom, search_homs
from conftest import GOLDEN_GENS, GOLDEN_VARS, algebra_from_strings
from oracles import random_element, random_polynomial

BOTH = ("monomial", "dense-random")
POOLS = ((0, 1, -1), (-1, Fraction(1, 7), Fraction(-5, 11), Fraction(13, 1000003)))


@functools.lru_cache(maxsize=None)
def algebra(name):
    if name == "golden":
        return algebra_from_strings(GOLDEN_VARS, GOLDEN_GENS)
    if name == "power_xy_4":
        return algebra_from_strings(("X", "Y"), ("X^4", "X^3*Y", "X^2*Y^2", "X*Y^3", "Y^4"))
    return q_algebra(int(name[1:]))


@functools.lru_cache(maxsize=None)
def tau_family(r):
    """The homs of `tau q<r>.alg --r <r>`: n_max 8, budget 2000, monomial."""
    return search_homs(algebra(f"q{r}"), 8, "monomial", 2000)


@functools.lru_cache(maxsize=None)
def family(name):
    """Every hom of the benchmark searches on one algebra, one per key:
    critdeg (n_max 12, budget 2500) and `tau --r` on Q(r) and <X,Y>^4,
    `tau golden --nmax 24 --budget 5000`, each at seeds 0 and 3, and the
    golden search with each pool of POOLS (budget 1500, seed 0)."""
    A = algebra(name)
    if name == "golden":
        searches = [search_homs(A, 24, BOTH, 5000, seed) for seed in (0, 3)]
        searches += [search_homs(A, 24, BOTH, 1500, 0, coefficient_pool=p) for p in POOLS]
    else:
        searches = [search_homs(A, 12, BOTH, 2500, seed) for seed in (0, 3)]
        if name != "power_xy_4":
            searches.append(tau_family(int(name[1:])))
    unique = {}
    for homs in searches:
        for hom in homs:
            unique.setdefault(truncated._int_key(hom), hom)
    return list(unique.values())


def witness_forms(A):
    """The forms a CLI job checks: x^(r-1)(x dy - y dx) on a graded algebra,
    d(X^2*Y^2) and d(socle) on the golden one."""
    km = kahler_module(A)
    info = grading_info(A)
    if not info.is_standard_graded:
        s = AlgebraElement(A, socle(A).rows[0])
        return [km.d(A.from_string("X^2*Y^2")), km.d(s)]
    x, y = (A.variable_element(v) for v in A.variables)
    return [omega_witness(A, x, y, r) for r in range(1, info.nilpotency_index + 1)]


def mixed_forms(A, rng, count=3):
    """Sums of a*d(b) with random a, b: every dX_j block in play."""
    km = kahler_module(A)
    forms = []
    for _ in range(count):
        form = km.zero_form()
        for _ in range(3):
            form = form + km.act(random_element(rng, A), km.d(random_element(rng, A)))
        forms.append(form)
    return forms


NAMES = ["q1", "q2", "q3", "q4", "q5", "power_xy_4", "golden"]


class TestAgainstTheGenericPath:
    @pytest.mark.parametrize("name", NAMES)
    def test_every_hom_of_the_family(self, name):
        A, homs = algebra(name), family(name)
        km = kahler_module(A)
        rng = random.Random(f"single-term:{name}")
        element = random_element(rng, A)
        polynomial = random_polynomial(rng, A.variables, max_degree=5, max_terms=6)
        others = [km.d(A.basis_element(i)) for i in range(A.dim)] + mixed_forms(A, rng)
        witnesses = witness_forms(A)
        singles = 0
        for index, hom in enumerate(homs):
            copy = make_hom(A, hom.truncation, hom.images)
            plain = AlgebraMap(A, hom.target, hom.images, verify=False)
            single = _single_term(hom)
            assert single is _single_term(copy)
            assert copy._key is None and copy._leads() is None
            assert (hom._leads() is not None) is single
            singles += single
            for i in range(A.dim):
                assert hom.basis_image(i) == copy.basis_image(i)
            assert hom.apply(element) == copy.apply(element)
            # the copy was verified: the generic path sends every generator to zero
            assert all(hom.evaluate_polynomial(g).is_zero() for g in A.gens)
            assert hom.evaluate_polynomial(polynomial) == copy.evaluate_polynomial(polynomial)
            # each hom meets two forms, every form many homs
            forms = [witnesses[index % len(witnesses)], others[index % len(others)]]
            for form in forms:
                assert pushforward(hom, form) == pushforward(plain, form)
            # single-term by its images, without a key: the generic pushforward
            assert pushforward(copy, forms[-1]) == pushforward(hom, forms[-1])
        assert singles
        assert singles < len(homs)

    @pytest.mark.parametrize("name", NAMES)
    def test_d_of_every_basis_element(self, name):
        # pushforward(h, d(a)) = d(h(a)), here along the first hom of each
        # N and single-term shape, for every basis element a
        A, homs = algebra(name), family(name)
        km = kahler_module(A)
        seen = set()
        for hom in homs:
            shape = (hom.truncation, _single_term(hom))
            if shape in seen:
                continue
            seen.add(shape)
            plain = AlgebraMap(A, hom.target, hom.images, verify=False)
            target = kahler_module(hom.target)
            for i in range(A.dim):
                form = km.d(A.basis_element(i))
                assert pushforward(hom, form) == pushforward(plain, form)
                assert pushforward(hom, form) == target.d(hom.basis_image(i))

    @pytest.mark.parametrize("r", [1, 2, 3, 4, 5])
    def test_the_tau_witness_along_every_tau_hom(self, r):
        A = algebra(f"q{r}")
        x, y = (A.variable_element(v) for v in A.variables)
        omega = omega_witness(A, x, y, r)
        for hom in tau_family(r):
            assert _single_term(hom)
            plain = AlgebraMap(A, hom.target, hom.images, verify=False)
            assert pushforward(hom, omega) == pushforward(plain, omega)

    def test_unit_zero_and_top_order_images(self):
        # e = 0 and a zero image have no dt term; e = N keeps only t^(N-1) dt
        A = algebra("power_xy_4")
        km = kahler_module(A)
        for n, images in [(3, ["1", "0"]), (4, ["2*t^4", "t^2"]), (5, ["-t^5", "0"])]:
            B = TruncatedPolyAlgebra(n)
            hom = truncated.TruncatedHom(A, B, [B.from_string(s) for s in images], verify=False)
            truncated._int_key(hom)
            plain = AlgebraMap(A, B, hom.images, verify=False)
            assert _single_term(hom)
            for form in [km.d(A.basis_element(i)) for i in range(A.dim)] + mixed_forms(
                A, random.Random(n)
            ):
                assert pushforward(hom, form) == pushforward(plain, form)


class TestNoTargetProduct:
    def test_the_tau_check_of_q3_multiplies_nothing_in_the_target(self, monkeypatch):
        A = algebra("q3")
        homs = tau_family(3)
        x, y = (A.variable_element(v) for v in A.variables)
        omega = omega_witness(A, x, y, 3)
        for hom in homs:
            kahler_module(hom.target)  # each ring's module is built once, not per hom
        calls = []
        product = TruncatedPolyAlgebra.multiply_coords
        monkeypatch.setattr(
            TruncatedPolyAlgebra, "multiply_coords",
            lambda ring, a, b: calls.append(ring) or product(ring, a, b),
        )
        report = tau_membership_check(A, omega, homs)
        monkeypatch.undo()
        assert report.all_killed and report.nonzero
        assert len(report.homs_tested) == len(homs) > 1000
        assert calls == []


class TestFormMemo:
    """`KahlerModule._blocks` keeps the last form asked, by identity."""

    @pytest.fixture()
    def setting(self):
        A = algebra("q3")
        km = kahler_module(A)
        rng = random.Random(5)
        homs = [h for h in family("q3") if not _single_term(h)][:3] + tau_family(3)[:3]
        return A, km, mixed_forms(A, rng, 2), homs

    def test_two_forms_alternating_over_one_hom(self, setting):
        A, km, (f, g), homs = setting
        for hom in homs:
            plain = AlgebraMap(A, hom.target, hom.images, verify=False)
            expected = {id(f): pushforward(plain, f), id(g): pushforward(plain, g)}
            for form in (f, g, f, g, g, f):
                assert pushforward(hom, form) == expected[id(form)]
                assert km._last_blocks[0] is form

    def test_equal_but_distinct_forms(self, setting):
        A, km, (f, _), homs = setting
        twin = DifferentialForm._raw(km, tuple(f.coords))
        assert twin == f and twin is not f
        for hom in homs:
            first = pushforward(hom, f)
            assert km._last_blocks[0] is f
            assert pushforward(hom, twin) == first
            assert km._last_blocks[0] is twin
        assert f.describe() == twin.describe()

    def test_forms_of_two_modules(self, setting):
        A, km, (f, _), homs = setting
        B = algebra("power_xy_4")
        other = kahler_module(B)
        (g,) = mixed_forms(B, random.Random(6), 1)
        b_homs = family("power_xy_4")[:6]
        for hom, b_hom in zip(homs, b_homs):
            plain = AlgebraMap(A, hom.target, hom.images, verify=False)
            b_plain = AlgebraMap(B, b_hom.target, b_hom.images, verify=False)
            assert pushforward(hom, f) == pushforward(plain, f)
            assert pushforward(b_hom, g) == pushforward(b_plain, g)
            assert km._last_blocks[0] is f and other._last_blocks[0] is g

    def test_blocks_are_the_nonzero_blocks_of_the_representative(self, setting):
        A, km, forms, _ = setting
        for form in [*forms, km.zero_form(), km.d(A.variable_element("Y"))]:
            ambient = km.ambient_representative(form)
            expected = [
                (j, tuple(ambient[j * A.dim : (j + 1) * A.dim]))
                for j in range(len(A.variables))
                if any(ambient[j * A.dim : (j + 1) * A.dim])
            ]
            assert [(j, block.coords) for j, block in km._blocks(form)] == expected
