import random
from fractions import Fraction

import pytest

from artinalg import linalg
from artinalg.algebra import AlgebraMap, nilradical, quotient_algebra
from artinalg.errors import NotLocalOverQError
from artinalg.kahler import (
    DifferentialForm,
    KahlerModule,
    d,
    embedding_obstruction,
    h0_de_rham,
    kahler_module,
    pushforward,
)
from artinalg.polycore import Polynomial, parse_polynomial
from artinalg.truncated import TruncatedPolyAlgebra, make_hom
from conftest import algebra_from_strings
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


def _module_from_generators(A, gens):
    """Relation-span dimension when the raw generators replace the basis."""
    from artinalg.groebner import normal_form

    dim = A.dim
    nvars = len(A.variables)
    rows = []
    for g in gens:
        partials = [
            A.coords_of_polynomial(normal_form(g.partial_derivative(v), A.gb))
            for v in A.variables
        ]
        for i in range(dim):
            unit = [ZERO] * dim
            unit[i] = Fraction(1)
            vec = []
            for j in range(nvars):
                vec.extend(A.multiply_coords(unit, partials[j]))
            if any(c != 0 for c in vec):
                rows.append(vec)
    return nvars * dim - linalg.rank(rows)


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
