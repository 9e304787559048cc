import random
import re
from fractions import Fraction
from itertools import product as iter_product

import pytest

from artinalg import groebner
from artinalg.algebra import (
    AlgebraElement,
    AlgebraMap,
    build_algebra,
    embedding_dimension,
    euler_derivation,
    grading_info,
    is_gorenstein,
    is_local_over_q,
    is_principal_ideal_algebra,
    nilpotency_index,
    nilradical,
    quotient_algebra,
    reduced_quotient,
    socle,
)
from artinalg.errors import (
    IncompatibleAlgebrasError,
    InvalidArgumentError,
    NotGradedError,
    NotLocalOverQError,
    NotZeroDimensionalError,
    TrivialAlgebraError,
    VariableMismatchError,
)
from artinalg.berger import q_algebra
from artinalg.kahler import DifferentialForm, kahler_module
from artinalg.polycore import Polynomial, parse_polynomial
from artinalg.truncated import TruncatedPolyAlgebra
from conftest import GOLDEN_GENS, GOLDEN_VARS, algebra_from_strings
from oracles import brute_force_nilpotent, random_element, random_zero_dim_gens


class TestBuild:
    def test_golden_dimension_and_basis(self, golden):
        assert golden.dim == 12
        got = {m.as_string(golden.variables) for m in golden.basis}
        assert got == {
            "1", "X", "Y", "X^2", "Y*X", "Y^2",
            "X^3", "Y*X^2", "Y^2*X", "Y^3", "X^4", "Y^2*X^2",
        }

    def test_one_variable_field(self):
        A = algebra_from_strings(("X",), ("X",))
        assert A.dim == 1
        assert A.one().coords == (Fraction(1),)

    def test_staircase_single(self, q2):
        assert q2.dim == 5
        # oracle: monomials not divisible by X^3, X^2 Y, Y^2
        leads = [(3, 0), (2, 1), (0, 2)]
        expected = {
            (a, b)
            for a, b in iter_product(range(4), range(3))
            if not any(a >= la and b >= lb for la, lb in leads)
        }
        assert {m.exps for m in q2.basis} == expected

    def test_not_zero_dimensional(self):
        with pytest.raises(NotZeroDimensionalError):
            algebra_from_strings(("X", "Y"), ("X^2",))

    @pytest.mark.parametrize("variables", [("X", "X"), ("1",), ("X", "Y Z"), ("",)])
    def test_bad_variables_rejected(self, variables):
        with pytest.raises(InvalidArgumentError, match=repr(variables[-1])):
            build_algebra(variables, ["X^2"])

    def test_trivial(self):
        with pytest.raises(TrivialAlgebraError):
            algebra_from_strings(("X",), ("X", "X - 1"))

    def test_identity_element(self, golden):
        one = golden.one()
        for i in range(golden.dim):
            b = golden.basis_element(i)
            assert one * b == b

    def test_mult_table_commutative_associative_exhaustive(self, q2, golden):
        for A in (q2, golden):
            elements = [A.basis_element(i) for i in range(A.dim)]
            for a in elements:
                for b in elements:
                    assert a * b == b * a
            for a in elements:
                for b in elements:
                    for c in elements:
                        assert (a * b) * c == a * (b * c)


class TestNilradical:
    def test_dual_numbers(self, dual_numbers):
        nil = nilradical(dual_numbers)
        assert nil.dim == 1
        x = dual_numbers.variable_element("X")
        assert nil.contains(x)

    def test_reduced_split_algebra(self, split_quadratic):
        assert nilradical(split_quadratic).is_zero()

    def test_golden_nilradical_is_all_non_units(self, golden):
        nil = nilradical(golden)
        assert nil.dim == 11
        for i, mono in enumerate(golden.basis):
            b = golden.basis_element(i)
            if mono.is_one():
                assert not nil.contains(b)
            else:
                assert nil.contains(b)
                assert brute_force_nilpotent(golden, b)

    def test_against_brute_force_on_random_algebras(self):
        rng = random.Random(71)
        for _ in range(10):
            variables = ("X", "Y")
            try:
                A = build_algebra(variables, random_zero_dim_gens(rng, variables))
            except TrivialAlgebraError:
                continue
            nil = nilradical(A)
            for _ in range(20):
                v = random_element(rng, A)
                assert nil.contains(v) == brute_force_nilpotent(A, v)


class TestReducedQuotient:
    def test_golden_reduces_to_the_field(self, golden):
        red, pi = reduced_quotient(golden)
        assert red.dim == 1
        assert pi.apply(golden.one()) == red.one()
        assert nilradical(red).is_zero()

    def test_already_reduced_is_identity(self, split_quadratic):
        red, pi = reduced_quotient(split_quadratic)
        assert red.dim == split_quadratic.dim
        for i in range(split_quadratic.dim):
            b = split_quadratic.basis_element(i)
            assert pi.apply(b).coords == b.coords

    def test_dual_numbers(self, dual_numbers):
        red, pi = reduced_quotient(dual_numbers)
        assert red.dim == 1
        assert pi.apply(dual_numbers.variable_element("X")).is_zero()


class TestSocle:
    def test_golden_socle_is_x4(self, golden):
        soc = socle(golden)
        assert soc.dim == 1
        assert soc.contains(golden.from_string("X^4"))
        assert is_gorenstein(golden)

    def test_staircase_socle(self, q2):
        soc = socle(q2)
        assert soc.dim == 2
        assert soc.contains(q2.from_string("X^2"))
        assert soc.contains(q2.from_string("X*Y"))
        assert not is_gorenstein(q2)

    def test_chain_ring(self, chain3):
        soc = socle(chain3)
        assert soc.dim == 1
        assert soc.contains(chain3.from_string("X^2"))
        assert is_gorenstein(chain3)

    def test_socle_annihilates_and_nothing_else_does(self, golden, q2, gorenstein_mixed):
        for A in (golden, q2, gorenstein_mixed):
            m = nilradical(A)
            soc = socle(A)
            for s in soc.basis_elements():
                for g in m.basis_elements():
                    assert (g * s).is_zero()
            for i in range(A.dim):
                v = A.basis_element(i)
                if not soc.contains(v):
                    assert any(not (g * v).is_zero() for g in m.basis_elements())

    def test_not_local_rejected(self, split_quadratic):
        with pytest.raises(NotLocalOverQError):
            socle(split_quadratic)


class TestEmbeddingDimension:
    def test_chain_is_principal(self):
        A = algebra_from_strings(("X",), ("X^5",))
        assert embedding_dimension(A) == 1
        assert is_principal_ideal_algebra(A)

    def test_staircase_nonprincipal(self, q2, q3):
        for A in (q2, q3):
            assert embedding_dimension(A) == 2
            assert not is_principal_ideal_algebra(A)

    def test_field_has_embedding_dimension_zero(self, rationals):
        assert embedding_dimension(rationals) == 0
        assert is_principal_ideal_algebra(rationals)


class TestGrading:
    def test_fourth_power_components(self, m4):
        info = grading_info(m4)
        assert info.is_standard_graded
        assert [c.dim for c in info.components] == [1, 2, 3, 4]
        assert info.nilpotency_index == 3

    def test_golden_is_not_graded(self, golden):
        assert not grading_info(golden).is_standard_graded

    def test_field_is_graded(self, rationals):
        info = grading_info(rationals)
        assert info.is_standard_graded
        assert [c.dim for c in info.components] == [1]
        assert info.nilpotency_index == 0

    def test_components_multiply_into_components(self, q3):
        info = grading_info(q3)
        comps = info.components
        for i, ci in enumerate(comps):
            for j, cj in enumerate(comps):
                for u in ci.basis_elements():
                    for v in cj.basis_elements():
                        w = u * v
                        if not w.is_zero():
                            if i + j < len(comps):
                                assert comps[i + j].contains(w)
                            else:
                                assert w.is_zero()

    def test_nilpotency_index_matches_top_degree_when_graded(self, q2, q3, m4):
        for A in (q2, q3, m4):
            info = grading_info(A)
            assert info.nilpotency_index == max(A.degrees)

    def test_component_span_accessor(self, q2, golden):
        from artinalg.algebra import graded_component_span

        assert graded_component_span(q2, 1).dim == 2
        assert graded_component_span(q2, 9).is_zero()
        with pytest.raises(NotGradedError):
            graded_component_span(golden, 1)


class TestEuler:
    def test_on_constants(self, m4):
        assert euler_derivation(m4, m4.one()).is_zero()

    def test_homogeneous_scaling(self, m4):
        w = m4.from_string("X^2*Y")
        assert euler_derivation(m4, w) == w.scale(3)

    def test_componentwise(self, m4):
        a = m4.from_string("X + X^2")
        assert euler_derivation(m4, a) == m4.from_string("X + 2*X^2")

    def test_is_a_derivation_randomized(self, q3, m4):
        rng = random.Random(83)
        for A in (q3, m4):
            for _ in range(50):
                a = random_element(rng, A)
                b = random_element(rng, A)
                lhs = euler_derivation(A, a * b)
                rhs = a * euler_derivation(A, b) + b * euler_derivation(A, a)
                assert lhs == rhs

    def test_injective_on_positive_part(self, q2, q3, m4):
        for A in (q2, q3, m4):
            m = nilradical(A)
            rng = random.Random(89)
            for _ in range(50):
                v = random_element(rng, A)
                coords = m.reduce(v.coords)
                positive = v - type(v)(A, coords)  # component inside M
                if positive.is_zero():
                    continue
                assert not euler_derivation(A, positive).is_zero()

    def test_rejects_ungraded(self, golden):
        with pytest.raises(NotGradedError):
            euler_derivation(golden, golden.one())


class TestQuotient:
    def test_quotient_by_one_is_trivial(self, golden):
        with pytest.raises(TrivialAlgebraError):
            quotient_algebra(golden, ["1"])

    def test_golden_mod_x3_sees_the_witness(self, golden):
        Q, pi = quotient_algebra(golden, ["X^3"])
        assert grading_info(Q).is_standard_graded
        w = pi.apply(golden.from_string("X^2*Y^2"))
        assert not w.is_zero()
        degs = {
            Q.degrees[i] for i, c in enumerate(w.coords) if c != 0
        }
        assert degs and min(degs) > 0

    def test_staircase_mod_y_is_a_chain(self, q2):
        Q, pi = quotient_algebra(q2, ["Y"])
        assert Q.dim == 3
        assert is_principal_ideal_algebra(Q)
        x = pi.apply(q2.variable_element("X"))
        assert not (x * x).is_zero()
        assert (x * x * x).is_zero()

    def test_surjection_is_an_algebra_map(self, q2):
        _, pi = quotient_algebra(q2, ["Y"])
        rng = random.Random(97)
        for _ in range(30):
            a = random_element(rng, q2)
            b = random_element(rng, q2)
            assert pi.apply(a * b) == pi.apply(a) * pi.apply(b)
            assert pi.apply(a + b) == pi.apply(a) + pi.apply(b)


class TestAlgebraMap:
    def test_identity(self, q2):
        ident = AlgebraMap.identity(q2)
        rng = random.Random(3)
        for _ in range(10):
            a = random_element(rng, q2)
            assert ident.apply(a) == a

    def test_composition(self, q2):
        Q, pi = quotient_algebra(q2, ["Y"])
        R, rho = quotient_algebra(Q, ["X^2"])
        combo = pi.then(rho)
        a = q2.from_string("1 + X + X^2 + Y")
        assert combo.apply(a) == rho.apply(pi.apply(a))

    def test_bad_relation_rejected(self, q2, chain3):
        x = chain3.variable_element("X")
        with pytest.raises(Exception):
            AlgebraMap(q2, chain3, [x, x])  # Y -> x violates X^2 Y unless checked


def reference_mult_table(A):
    """The dense construction of `mult_table` before `products`, with its
    normal-form helper, kept as the reference."""
    cache = {}

    def nf_coords(mono):
        if mono not in cache:
            coords = [Fraction(0)] * A.dim
            if mono in A.basis:
                coords[A.basis.index(mono)] = Fraction(1)
            else:
                p = groebner.normal_form(Polynomial.from_monomial(A.variables, mono), A.gb)
                for m, c in p.terms.items():
                    coords[A.basis.index(m)] = c
            cache[mono] = tuple(coords)
        return cache[mono]

    table = []
    for i in range(A.dim):
        row = []
        for j in range(A.dim):
            if j < i:
                row.append(table[j][i])
            else:
                row.append(nf_coords(A.basis[i] * A.basis[j]))
        table.append(row)
    return tuple(tuple(r) for r in table)


STRUCTURE_ALGEBRAS = {
    "golden": lambda: algebra_from_strings(GOLDEN_VARS, GOLDEN_GENS),
    **{f"Q{r}": (lambda r=r: q_algebra(r)) for r in range(1, 6)},
    "<X,Y>^4": lambda: algebra_from_strings(("X", "Y"), ("X^4", "X^3*Y", "X^2*Y^2", "X*Y^3", "Y^4")),
    "<X,Y,Z>^3": lambda: build_algebra(
        ("X", "Y", "Z"),
        ["X^3", "X^2*Y", "X^2*Z", "X*Y^2", "X*Y*Z", "X*Z^2", "Y^3", "Y^2*Z", "Y*Z^2", "Z^3"],
    ),
    "X^12": lambda: algebra_from_strings(("X",), ("X^12",)),
    "Q[t]/<t^7>": lambda: TruncatedPolyAlgebra(6),
}


class TestStructureConstants:
    @pytest.mark.parametrize("name", list(STRUCTURE_ALGEBRAS))
    def test_products_are_the_nonzero_normal_form_coordinates(self, name):
        A = STRUCTURE_ALGEBRAS[name]()
        for i, bi in enumerate(A.basis):
            for j, bj in enumerate(A.basis):
                nf = groebner.normal_form(Polynomial.from_monomial(A.variables, bi * bj), A.gb)
                expected = sorted((A.basis.index(m), c) for m, c in nf.terms.items())
                assert list(A.products[i][j]) == expected
                assert all(c != 0 for _, c in A.products[i][j])
                assert A.products[i][j] == A.products[j][i]
        assert A.mult_table == reference_mult_table(A)

    def test_the_truncated_ring_derives_products_only_when_read(self):
        B = TruncatedPolyAlgebra(43)
        assert (B.t_power(2) * B.t_power(3)).coords == B.t_power(5).coords
        assert "products" not in vars(B)
        assert nilradical(B).dim == 43
        assert "products" in vars(B)


class TestSubspaceOwner:
    """A subspace reads only elements of its own algebra, or plain vectors."""

    def other_q2(self):
        return build_algebra(("X", "Y"), ["X^3", "X^2*Y", "Y^2"])

    def test_contains_rejects_an_element_of_another_algebra(self, q2):
        soc = socle(q2)
        assert soc.contains(q2.from_string("X^2"))
        other = self.other_q2()
        assert other.dim == q2.dim
        with pytest.raises(IncompatibleAlgebrasError):
            socle(q_algebra(2)).contains(other.one())
        with pytest.raises(IncompatibleAlgebrasError):
            soc.contains(other.from_string("X^2"))

    def test_reduce_rejects_an_element_of_another_algebra(self, q2):
        nil = nilradical(q2)
        assert not any(nil.reduce(q2.from_string("X + Y")))
        assert nil.reduce([1, 0, 0, 0, 0]) == nil.reduce(q2.one())
        with pytest.raises(IncompatibleAlgebrasError):
            nil.reduce(self.other_q2().from_string("X + Y"))

    @pytest.mark.parametrize("length", [2, 7])
    def test_a_vector_of_the_wrong_length_is_rejected(self, q2, length):
        nil = nilradical(q2)
        for method in (nil.contains, nil.reduce):
            with pytest.raises(VariableMismatchError):
                method([1] + [0] * (length - 1))


def _form_holding(value):
    km = kahler_module(q_algebra(2))
    return DifferentialForm(km, [value] + [0] * (km.dim - 1))


class TestUnreadableCoordinates:
    """A coordinate that is no rational ends in InvalidArgumentError naming it."""

    @pytest.mark.parametrize(
        "call, named",
        [
            (lambda: TruncatedPolyAlgebra(3).from_coeffs(["a"]), "'a'"),
            (lambda: TruncatedPolyAlgebra(3).from_coeffs(None), "None"),
            (lambda: TruncatedPolyAlgebra(3).from_coeffs(["1/0"]), "'1/0'"),
            (lambda: TruncatedPolyAlgebra(3).t_power(1, "b"), "'b'"),
            (lambda: AlgebraElement(q_algebra(2), [None] * 5), "None"),
            (lambda: _form_holding("a"), "'a'"),
            (lambda: q_algebra(2).variable_element("X") ** -1, "-1"),
        ],
        ids=["from_coeffs-a", "from_coeffs-None", "from_coeffs-1/0", "t_power", "element-None",
             "form-a", "negative-power"],
    )
    def test_invalid_argument(self, call, named):
        with pytest.raises(InvalidArgumentError, match=re.escape(named)):
            call()
