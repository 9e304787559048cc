import random
import sys
from fractions import Fraction

import pytest

from artinalg import groebner, linalg
from artinalg.algebra import (
    AlgebraElement,
    AlgebraMap,
    build_algebra,
    nilradical,
    quotient_algebra,
)
from artinalg.berger import q_algebra, surjection_to_q
from artinalg.errors import IncompatibleAlgebrasError, NotLocalOverQError
from artinalg.kahler import (
    DifferentialForm,
    KahlerModule,
    d,
    embedding_obstruction,
    h0_de_rham,
    kahler_module,
    pushforward,
)
from artinalg.polycore import MonomialOrder, Polynomial, parse_polynomial
from artinalg.truncated import TruncatedPolyAlgebra, make_hom, search_homs
from conftest import GOLDEN_GENS, GOLDEN_VARS, algebra_from_strings
from oracles import random_element, random_polynomial

ZERO = Fraction(0)


def truncated_line(n):
    """Q[X]/<X^(N+1)> as an ArtinAlgebra, to compare module dimensions."""
    return algebra_from_strings(("X",), (f"X^{n + 1}",))


class TestModuleConstruction:
    @pytest.mark.parametrize("n", range(1, 11))
    def test_truncated_line_has_module_of_dimension_n(self, n):
        km = kahler_module(truncated_line(n))
        assert km.dim == n
        # the single relation span is the line through (n+1) x^n dx
        assert len(km.rel_rows) == 1

    def test_field_has_zero_module(self, rationals):
        assert kahler_module(rationals).dim == 0
        assert kahler_module(rationals).ambient_dim == 0

    def test_staircase_witness_is_nonzero(self, q2):
        km = kahler_module(q2)
        x = q2.variable_element("X")
        y = q2.variable_element("Y")
        omega = km.act(x, km.act(x, km.d(y))) - km.act(x, km.act(y, km.d(x)))
        assert not omega.is_zero()

    def test_generating_set_independence(self, golden, q2):
        # module built from the raw generators has the same dimension as
        # the one built from the Groebner generators
        for A in (golden, q2):
            km = kahler_module(A)
            alt = _module_from_generators(A, A.gens)
            assert alt == km.dim

    @pytest.mark.parametrize(
        "make",
        [
            lambda: build_algebra(GOLDEN_VARS, list(GOLDEN_GENS)),
            lambda: build_algebra(GOLDEN_VARS, list(GOLDEN_GENS), MonomialOrder.lex(GOLDEN_VARS)),
            lambda: q_algebra(3),
            lambda: build_algebra(("X", "Y"), ["X^4", "X^3*Y", "X^2*Y^2", "X*Y^3", "Y^4"]),
            lambda: TruncatedPolyAlgebra(6),
        ],
        ids=["golden-grevlex", "golden-lex", "Q(3)", "<X,Y>^4", "t^7"],
    )
    def test_relations_need_no_normal_form(self, monkeypatch, make):
        # partials of a reduced basis already lie on the standard monomials
        A = make()
        A.products  # the structure constants normal-form; the relations do not
        calls = _count_normal_forms(monkeypatch)
        km = KahlerModule(A)
        assert calls == []
        monkeypatch.undo()
        assert (km.rel_rows, km.rel_pivots) == linalg.rref(_relation_rows(A, A.gb.polys))

    def test_relation_reduction_is_idempotent(self, q2):
        km = kahler_module(q2)
        rng = random.Random(11)
        for _ in range(30):
            vec = [
                rng.choice([ZERO, Fraction(1), Fraction(-2), Fraction(1, 2)])
                for _ in range(km.ambient_dim)
            ]
            once = km.reduce_ambient(vec)
            assert km.reduce_ambient(once) == once


def _relation_rows(A, gens):
    """The nonzero vectors b * dg over the generators, each partial normal-formed."""
    dim = A.dim
    rows = []
    for g in gens:
        partials = [
            A.coords_of_polynomial(groebner.normal_form(g.partial_derivative(v), A.gb))
            for v in A.variables
        ]
        for i in range(dim):
            unit = [ZERO] * dim
            unit[i] = Fraction(1)
            vec = []
            for partial in partials:
                vec.extend(A.multiply_coords(unit, partial))
            if any(c != 0 for c in vec):
                rows.append(vec)
    return rows


def _module_from_generators(A, gens):
    """Relation-span dimension when the raw generators replace the basis."""
    return len(A.variables) * A.dim - linalg.rank(_relation_rows(A, gens))


class TestUniversalDerivation:
    def test_d_of_one_is_zero(self, golden, q2):
        for A in (golden, q2):
            assert d(A.one()).is_zero()

    def test_golden_socle_differential_vanishes(self, golden):
        assert d(golden.from_string("X^4")).is_zero()

    def test_golden_witness_differential_survives(self, golden):
        assert not d(golden.from_string("X^2*Y^2")).is_zero()

    def test_leibniz_exhaustive_on_basis(self, q2, gorenstein_diag):
        for A in (q2, gorenstein_diag):
            km = kahler_module(A)
            for i in range(A.dim):
                for j in range(A.dim):
                    a = A.basis_element(i)
                    b = A.basis_element(j)
                    assert km.d(a * b) == km.act(a, km.d(b)) + km.act(b, km.d(a))

    def test_representative_independence(self, golden):
        km = kahler_module(golden)
        rng = random.Random(17)
        for _ in range(40):
            a = random_element(rng, golden)
            canonical = km.d(a)
            noise = Polynomial.zero(golden.variables)
            for g in golden.gens:
                noise = noise + g * random_polynomial(
                    rng, golden.variables, max_degree=2, max_terms=2
                )
            other = a.to_polynomial() + noise
            assert km.d_polynomial(other) == canonical

    def test_d_equals_the_normal_form_of_each_partial(self, golden, q2, m4):
        for A in (golden, q2, m4, TruncatedPolyAlgebra(6)):
            km = kahler_module(A)
            rng = random.Random(23)
            for _ in range(30):
                a = random_element(rng, A)
                vec = []
                for name in A.variables:
                    partial = a.to_polynomial().partial_derivative(name)
                    vec.extend(A.coords_of_polynomial(groebner.normal_form(partial, A.gb)))
                assert km.d(a) == km.form_from_ambient(vec)

    def test_normal_forms_per_call(self, golden, monkeypatch):
        km = kahler_module(golden)
        a = golden.from_string("3*X^2*Y^2 - X^4 + Y")
        p = parse_polynomial("X^5 + X^2*Y + X*Y^3", golden.variables)
        calls = _count_normal_forms(monkeypatch)
        da = km.d(a)
        assert len(calls) == 0
        dp = km.d_polynomial(p)
        assert len(calls) == 1
        assert not da.is_zero() and dp == km.d(golden.from_polynomial(p))


def _count_normal_forms(monkeypatch):
    """Count groebner.normal_form calls through every module's binding."""
    calls = []
    original = groebner.normal_form

    def counted(*args, **kwargs):
        calls.append(args)
        return original(*args, **kwargs)

    for name, module in list(sys.modules.items()):
        if name.startswith("artinalg") and getattr(module, "normal_form", None) is original:
            monkeypatch.setattr(module, "normal_form", counted)
    return calls


class TestPushforward:
    def test_identity_map_is_identity(self, q2):
        km = kahler_module(q2)
        ident = AlgebraMap.identity(q2)
        rng = random.Random(19)
        for _ in range(20):
            omega = km.d(random_element(rng, q2))
            assert pushforward(ident, omega) == omega

    def test_staircase_witness_dies_in_the_truncated_ring(self, q2):
        km = kahler_module(q2)
        x = q2.variable_element("X")
        y = q2.variable_element("Y")
        omega = km.act(x, km.d(y)) - km.act(y, km.d(x))
        omega = km.act(x, omega)
        hom = make_hom(q2, 5, ["t^2", "t^3"])
        image = pushforward(hom, omega)
        assert isinstance(image, DifferentialForm)
        assert image.is_zero()
        # independent substitution oracle: x = t^2, y = t^3 gives
        # t^4*(3 t^2 dt) - t^5*(2 t dt) = t^6 dt = 0 mod t^6
        B = TruncatedPolyAlgebra(5)
        by_hand = (B.t_power(4) * B.from_coeffs([0, 0, 0, 3])).coords[:5]
        by_hand = [
            u - v
            for u, v in zip(
                by_hand, (B.t_power(5) * B.from_coeffs([0, 0, 2])).coords[:5]
            )
        ]
        assert all(c == 0 for c in by_hand)

    def test_golden_witness_survives_the_graded_quotient(self, golden):
        Q, pi = quotient_algebra(golden, ["X^3"])
        dw = d(golden.from_string("X^2*Y^2"))
        assert not pushforward(pi, dw).is_zero()

    def test_chain_rule_with_d(self, q2):
        Q, pi = quotient_algebra(q2, ["Y"])
        km = kahler_module(q2)
        target = kahler_module(Q)
        rng = random.Random(23)
        for _ in range(30):
            a = random_element(rng, q2)
            assert pushforward(pi, km.d(a)) == target.d(pi.apply(a))

    def test_chain_rule_with_d_truncated(self, q2):
        hom = make_hom(q2, 5, ["t^2", "t^3"])
        km = kahler_module(q2)
        rng = random.Random(29)
        for _ in range(30):
            a = random_element(rng, q2)
            assert pushforward(hom, km.d(a)) == kahler_module(hom.target).d(hom.apply(a))

    def test_naturality_through_a_quotient(self, golden):
        Q, pi = quotient_algebra(golden, ["X^3"])
        hom = make_hom(Q, 2, ["t", "t"])  # cubes vanish at this truncation
        km = kahler_module(golden)
        rng = random.Random(31)
        composite = pi.then(hom)
        for _ in range(25):
            omega = km.d(random_element(rng, golden))
            assert pushforward(composite, omega) == pushforward(hom, pushforward(pi, omega))

    def test_naturality_through_two_quotients(self, m4):
        Q, pi = quotient_algebra(m4, ["Y"])
        R, rho = quotient_algebra(Q, ["X^3"])
        km = kahler_module(m4)
        rng = random.Random(37)
        for _ in range(25):
            omega = km.d(random_element(rng, m4))
            assert pushforward(pi.then(rho), omega) == pushforward(
                rho, pushforward(pi, omega)
            )


class TestDeRham:
    def test_golden_obstruction_contains_the_quintic_image(self, golden):
        K = embedding_obstruction(golden)
        assert not K.is_zero()
        f = golden.from_string("X^4").scale(Fraction(1, 5))
        assert K.contains(f)

    def test_graded_algebras_are_unobstructed(self, q2, q3, m4, gorenstein_diag):
        for A in (q2, q3, m4, gorenstein_diag):
            assert embedding_obstruction(A).is_zero()

    def test_field(self, rationals):
        h0 = h0_de_rham(rationals)
        assert h0.dim == 1
        assert embedding_obstruction(rationals).is_zero()

    def test_h0_is_spanned_by_one_for_graded(self, q2, q3, m4):
        for A in (q2, q3, m4):
            h0 = h0_de_rham(A)
            assert h0.dim == 1
            assert h0.contains(A.one())

    def test_golden_h0_is_one_and_x4(self, golden):
        h0 = h0_de_rham(golden)
        assert h0.dim == 2
        assert h0.contains(golden.one())
        assert h0.contains(golden.from_string("X^4"))

    def test_obstruction_needs_local(self, split_quadratic):
        with pytest.raises(NotLocalOverQError):
            embedding_obstruction(split_quadratic)


class TestFormPredicates:
    def test_form_is_zero_on_both_kinds(self, golden):
        assert d(golden.one()).is_zero()
        assert not d(golden.from_string("X")).is_zero()
        forms = kahler_module(TruncatedPolyAlgebra(3))
        assert DifferentialForm(forms, [0, 0, 0]).is_zero()
        assert not DifferentialForm(forms, [0, 1, 0]).is_zero()


class TestOperandsOfDifferentSpaces:
    def test_element_and_form(self, q2):
        km = kahler_module(q2)
        x = q2.variable_element("X")
        dx = km.d(x)
        for mixed in (lambda: x + dx, lambda: dx + x, lambda: x * dx, lambda: dx - x):
            with pytest.raises(IncompatibleAlgebrasError):
                mixed()
        assert x != dx and dx != x

    def test_elements_of_two_algebras(self, q2, q3):
        x, other = q2.variable_element("X"), q3.variable_element("X")
        for mixed in (lambda: x + other, lambda: x - other, lambda: x * other):
            with pytest.raises(IncompatibleAlgebrasError):
                mixed()
        assert x != other

    def test_forms_of_two_modules(self, q2, q3):
        dx = d(q2.variable_element("X"))
        with pytest.raises(IncompatibleAlgebrasError):
            dx + d(q3.variable_element("X"))

    def test_pushforward_along_a_non_map_or_a_map_of_another_source(self, q2, q3):
        form = d(q2.variable_element("X"))
        for hom in (object(), "X", make_hom(q3, 5, ["t^2", "t^3"]), AlgebraMap.identity(q3)):
            with pytest.raises(IncompatibleAlgebrasError):
                pushforward(hom, form)

    def test_forms_share_the_element_arithmetic(self, q2):
        inherited = {"__add__", "__sub__", "__neg__", "scale", "is_zero", "__eq__", "__hash__", "_check"}
        assert not inherited & set(vars(DifferentialForm))
        km = kahler_module(q2)
        form = km.d(q2.from_string("X^2 + 2*Y"))
        assert form.module is km and q2.one().algebra is q2
        assert (form - form).is_zero() and form.scale(3) == form + form + form
        assert -form == form.scale(-1) and hash(form.scale(2)) == hash(form + form)


def reference_pushforward(hom, form):
    """The two-branch `pushforward` the one path replaced, kept as the reference."""
    module = form.module
    source = module.algebra
    ambient = module.ambient_representative(form)
    dim = source.dim
    target_module = kahler_module(hom.target)
    if isinstance(hom.target, TruncatedPolyAlgebra):
        n = hom.target.truncation
        out = [ZERO] * n
        for j, img in enumerate(hom.images):
            deriv = [c * k for k, c in enumerate(img.coords)][1:]
            for i in range(dim):
                c = ambient[j * dim + i]
                if not c:
                    continue
                for a, ua in enumerate(hom.basis_image(i).coords):
                    if not ua:
                        continue
                    for b in range(min(len(deriv), n - a)):
                        if deriv[b]:
                            out[a + b] += c * ua * deriv[b]
        return DifferentialForm._raw(target_module, tuple(out))
    total = target_module.zero_form()
    for j, img in enumerate(hom.images):
        coefficient = hom.apply(AlgebraElement(source, ambient[j * dim : (j + 1) * dim]))
        total = total + target_module.act(coefficient, target_module.d(img))
    return total


FORM_POOL = (ZERO, ZERO, ZERO, Fraction(1), Fraction(-2), Fraction(1, 3), Fraction(5, 2))


def assert_pushforwards_equal_the_reference(hom, rng, count=25):
    """Random forms of the source, not only differentials, pushed both ways."""
    km = kahler_module(hom.source)
    for _ in range(count):
        form = km.form_from_ambient([rng.choice(FORM_POOL) for _ in range(km.ambient_dim)])
        got = pushforward(hom, form)
        assert got.module is kahler_module(hom.target)
        assert got.coords == reference_pushforward(hom, form).coords


ONE_PATH_ALGEBRAS = {
    "golden": lambda: algebra_from_strings(GOLDEN_VARS, GOLDEN_GENS),
    "Q2": lambda: q_algebra(2),
    "Q5": lambda: q_algebra(5),
    "<X,Y>^4": lambda: algebra_from_strings(("X", "Y"), ("X^4", "X^3*Y", "X^2*Y^2", "X*Y^3", "Y^4")),
}


class TestPushforwardOnePath:
    """pushforward's exact coordinates equal the two-branch reference's."""

    @pytest.mark.parametrize("name", list(ONE_PATH_ALGEBRAS))
    def test_along_searched_homs(self, name):
        A = ONE_PATH_ALGEBRAS[name]()
        rng = random.Random(f"pushforward:{name}")
        homs = search_homs(A, 12, strategy=("monomial", "dense-random"), budget=200, seed=4)
        sample = rng.sample(homs, 10)
        for hom in sample:
            assert_pushforwards_equal_the_reference(hom, rng)

    @pytest.mark.parametrize("extra", [["X^3"], ["Y^2", "X^2*Y"], ["X + Y^2"]])
    def test_along_a_quotient_surjection(self, golden, extra):
        _, pi = quotient_algebra(golden, extra)
        assert_pushforwards_equal_the_reference(pi, random.Random(f"quotient:{extra}"))

    @pytest.mark.parametrize("name, truncation, images, r", [
        ("Q2", 5, ["t^2", "t^3"], 2),
        ("<X,Y>^4", 15, ["t^4", "t^5"], 3),
    ])
    def test_along_the_map_onto_q(self, name, truncation, images, r):
        A = ONE_PATH_ALGEBRAS[name]()
        to_q = surjection_to_q(A, make_hom(A, truncation, images), r).to_q
        assert to_q.target.dim == 2 * r + 1
        assert_pushforwards_equal_the_reference(to_q, random.Random(f"to_q:{name}"))
