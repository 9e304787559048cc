"""The single-term fast paths, the pushforward formula and the form memo
against generic computations.

A hom X_i -> c_i t^(e_i) carries its leads c_i (`TruncatedHom._leads`), set
from the draw by a search or read from the images of any other hom:
`apply`, `basis_image` and `evaluate_polynomial` then add c*∏c_i^a_i at
t^(a·e) per term.  Every hom of the benchmark's staircase and golden
families (seeds 0 and 3, two more coefficient pools on the golden algebra)
must agree with a plain `AlgebraMap` of the same images, which evaluates
through its memo of ring products and reads no leads.  `pushforward` into
Q[t]/<t^(N+1)> takes one formula for every map, so it is checked against
the generic sum written here (`generic_pushforward`): h(a_j) times the
ambient vector d(h(X_j)) in the target's module, reduced once.
"""

import functools
import random
from fractions import Fraction

import pytest

from artinalg import q_algebra, truncated
from artinalg.algebra import AlgebraElement, AlgebraMap, grading_info, socle
from artinalg.berger import omega_witness, tau_membership_check
from artinalg.kahler import DifferentialForm, kahler_module, pushforward
from artinalg.truncated import TruncatedPolyAlgebra, make_hom, search_homs
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


def single_term_leads(hom):
    """Each image's lowest nonzero coefficient, 0 for a zero image, when
    no image has two nonzero coefficients, else None; read here from the
    coordinates."""
    terms = [[c for c in img.coords if c] for img in hom.images]
    if any(len(t) > 1 for t in terms):
        return None
    return tuple(t[0] if t else Fraction(0) for t in terms)


def generic_pushforward(hom, form):
    """sum_j h(a_j) d(h(X_j)) through the target module's `_times` and
    `partials`, reduced once; the blocks a_j are cut from the form's
    ambient representative."""
    km, target = form.module, kahler_module(hom.target)
    ambient, dim = km.ambient_representative(form), km.algebra.dim
    out = [Fraction(0)] * target.ambient_dim
    for j, image in enumerate(hom.images):
        block = hom.apply(AlgebraElement(km.algebra, ambient[j * dim : (j + 1) * dim]))
        out = [a + b for a, b in zip(out, target._times(block.coords, target.partials(image)))]
    return target.form_from_ambient(out)


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
            plain = AlgebraMap(A, hom.target, hom.images)
            leads = single_term_leads(hom)
            assert hom._leads() == leads
            singles += leads is not None
            for i in range(A.dim):
                assert hom.basis_image(i) == plain.basis_image(i)
            assert hom.apply(element) == plain.apply(element)
            # the plain map was verified: its memo sends every generator to zero
            assert all(hom.evaluate_polynomial(g).is_zero() for g in A.gens)
            assert hom.evaluate_polynomial(polynomial) == plain.evaluate_polynomial(polynomial)
            # each hom meets two forms, every form many homs
            forms = [witnesses[index % len(witnesses)], others[index % len(others)]]
            for form in forms:
                assert pushforward(hom, form) == generic_pushforward(hom, form)
            # a map without key or leads: the same formula
            assert pushforward(plain, forms[-1]) == pushforward(hom, forms[-1])
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
            shape = (hom.truncation, hom._leads() is not None)
            if shape in seen:
                continue
            seen.add(shape)
            target = kahler_module(hom.target)
            for i in range(A.dim):
                form = km.d(A.basis_element(i))
                assert pushforward(hom, form) == generic_pushforward(hom, form)
                assert pushforward(hom, form) == target.d(hom.basis_image(i))

    @pytest.mark.parametrize("r", [1, 2, 3, 4, 5])
    def test_the_tau_witness_along_every_tau_hom(self, r):
        A = algebra(f"q{r}")
        x, y = (A.variable_element(v) for v in A.variables)
        omega = omega_witness(A, x, y, r)
        for hom in tau_family(r):
            assert hom._leads() is not None
            assert pushforward(hom, omega) == generic_pushforward(hom, omega)

    def test_unit_zero_and_top_order_images(self):
        # e = 0 and a zero image have no dt term; e = N keeps only t^(N-1) dt
        A = algebra("power_xy_4")
        km = kahler_module(A)
        for n, images in [(3, ["1", "0"]), (4, ["2*t^4", "t^2"]), (5, ["-t^5", "0"])]:
            B = TruncatedPolyAlgebra(n)
            hom = truncated.TruncatedHom(A, B, [B.from_string(s) for s in images], verify=False)
            plain = AlgebraMap(A, B, hom.images, verify=False)
            assert hom._leads() == single_term_leads(hom) is not None
            for form in [km.d(A.basis_element(i)) for i in range(A.dim)] + mixed_forms(
                A, random.Random(n)
            ):
                assert pushforward(hom, form) == generic_pushforward(hom, form)
                assert pushforward(plain, form) == pushforward(hom, form)


class TestTheFormulaAtItsEdges:
    """pushforward(h, d(a)) = d(h(a)) for every basis element a, along maps
    the searches never build."""

    @pytest.mark.parametrize("source, truncation, images", [
        # a unit image: its constant term has derivative 0
        (lambda: algebra_from_strings(("X",), ("X^3 - 3*X^2 + 3*X - 1",)), 5, ["1 + t^2"]),
        # from one truncated ring into another
        (lambda: TruncatedPolyAlgebra(6), 12, ["t^2 + t^3"]),
    ], ids=["unit-image", "truncated-source"])
    def test_d_of_every_basis_element(self, source, truncation, images):
        A = source()
        hom = make_hom(A, truncation, images)
        km, target = kahler_module(A), kahler_module(hom.target)
        assert target.dim == truncation
        for i in range(A.dim):
            form = km.d(A.basis_element(i))
            assert pushforward(hom, form) == target.d(hom.basis_image(i))
            assert pushforward(hom, form) == generic_pushforward(hom, form)


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

    def test_keyless_copies_multiply_nothing_in_the_target(self, monkeypatch):
        # `make_hom` copies carry no key or leads from a draw: they read their
        # leads from the images, and verify and evaluate through them
        A = algebra("q3")
        homs = tau_family(3)[::10]
        x, y = (A.variable_element(v) for v in A.variables)
        omega = omega_witness(A, x, y, 3)
        for hom in homs:
            kahler_module(hom.target)
        calls = []
        product = TruncatedPolyAlgebra.multiply_coords
        monkeypatch.setattr(
            TruncatedPolyAlgebra, "multiply_coords",
            lambda ring, a, b: calls.append(ring) or product(ring, a, b),
        )
        copies = [make_hom(A, hom.truncation, hom.images) for hom in homs]
        report = tau_membership_check(A, omega, copies)
        elements = [A.basis_element(i) for i in range(A.dim)]
        images = [[copy.apply(a) for a in elements] for copy in copies]
        monkeypatch.undo()
        assert report.all_killed and len(copies) > 100
        assert calls == []
        for hom, copy, row in zip(homs, copies, images):
            assert copy._leads() == hom._leads() == single_term_leads(hom)
            assert row == [AlgebraMap(A, hom.target, hom.images).apply(a) for a in elements]


class TestFormMemo:
    """`KahlerModule._blocks` keeps the last form asked, by identity."""

    @pytest.fixture()
    def setting(self):
        A = algebra("q3")
        km = kahler_module(A)
        rng = random.Random(5)
        homs = [h for h in family("q3") if h._leads() is None][:3] + tau_family(3)[:3]
        return A, km, mixed_forms(A, rng, 2), homs

    def test_two_forms_alternating_over_one_hom(self, setting):
        A, km, (f, g), homs = setting
        for hom in homs:
            expected = {id(f): generic_pushforward(hom, f), id(g): generic_pushforward(hom, g)}
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
            expected = generic_pushforward(hom, f), generic_pushforward(b_hom, g)
            assert pushforward(hom, f) == expected[0]
            assert pushforward(b_hom, g) == expected[1]
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
