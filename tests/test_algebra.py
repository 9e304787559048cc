import copy
import pickle
import random
import re
from fractions import Fraction
from itertools import product as iter_product

import pytest

from artinalg import groebner
from artinalg.algebra import (
    AlgebraElement,
    AlgebraMap,
    ArtinAlgebra,
    GradingInfo,
    Subspace,
    build_algebra,
    embedding_dimension,
    euler_derivation,
    graded_component_span,
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
from artinalg.berger import omega_witness, q_algebra, surjection_to_q
from artinalg.kahler import DifferentialForm, h0_de_rham, kahler_module
from artinalg.polycore import Monomial, MonomialOrder, Polynomial, parse_polynomial
from artinalg.truncated import TruncatedPolyAlgebra, make_hom, search_homs, triangularize
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

    def test_socle_annihilates_and_nothing_else_does(self, golden, q2, gorenstein_mixed, rationals):
        # the field's maximal ideal is zero, so its socle is the whole field
        for A in (golden, q2, gorenstein_mixed, rationals):
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


class TestPowerChain:
    """nilpotency_index and embedding_dimension on freshly built algebras
    (the session fixtures arrive with their invariants already cached)."""

    @pytest.mark.parametrize(
        "variables, gens, index, embedding",
        [
            (GOLDEN_VARS, GOLDEN_GENS, 5, 2),
            (("X",), ("X^40",), 39, 1),
            (("X", "Y", "Z"), ("X^4", "Y^4", "Z^4", "X*Y*Z"), 6, 3),
            ((), ("0",), 0, 0),
        ],
        ids=["golden-ungraded", "X^40", "xyz-fourth", "field"],
    )
    def test_index_and_embedding_dimension(self, variables, gens, index, embedding):
        A = algebra_from_strings(variables, gens)
        assert nilpotency_index(A) == index
        assert embedding_dimension(A) == embedding

    def test_not_local(self):
        A = algebra_from_strings(("X",), ("X^2 - 1",))
        assert nilpotency_index(A) == 0
        with pytest.raises(NotLocalOverQError):
            embedding_dimension(A)

    def test_invariants_are_computed_once(self, monkeypatch):
        A = algebra_from_strings(GOLDEN_VARS, GOLDEN_GENS)
        assert nilpotency_index(A) == 5
        soc = socle(A)
        calls = []
        multiply_coords = ArtinAlgebra.multiply_coords

        def counting(self, a, b):
            calls.append(self)
            return multiply_coords(self, a, b)

        monkeypatch.setattr(ArtinAlgebra, "multiply_coords", counting)
        assert embedding_dimension(A) == 2
        assert socle(A) is soc
        assert calls == []
        assert h0_de_rham(A) is h0_de_rham(A)
        assert kahler_module(A) is kahler_module(A)
        assert nilradical(A) is nilradical(A)
        assert grading_info(A) is grading_info(A)


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

    def test_grading_info_is_a_read_only_value(self, q2):
        info = grading_info(q2)
        same = GradingInfo(
            is_standard_graded=True, components=info.components, nilpotency_index=2
        )
        assert same == info and hash(same) == hash(info)
        assert GradingInfo(True, info.components, 3) != info
        assert {info, same} == {info}
        with pytest.raises(AttributeError):
            info.nilpotency_index = 5
        with pytest.raises(AttributeError):
            del info.components
        assert info.nilpotency_index == 2
        assert repr(GradingInfo(False, (), 0)) == (
            "GradingInfo(is_standard_graded=False, components=(), nilpotency_index=0)"
        )
        assert copy.deepcopy(info) == info
        assert pickle.loads(pickle.dumps(GradingInfo(False, (), 0))) == GradingInfo(False, (), 0)


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


def _staircase_and_variables():
    q2 = q_algebra(2)
    return q2, q2.variable_element("X"), q2.variable_element("Y")


def _hom():
    return make_hom(q_algebra(2), 5, ["t^2", "t^3"])


def _x():
    return q_algebra(2).variable_element("X")


def _X():
    return Polynomial.variable(("X", "Y"), "X")


def _dx():
    x = _x()
    return kahler_module(x.algebra).d(x)


class TestLibraryArgumentErrors:
    """The library's own argument checks raise InvalidArgumentError, a ValueError.

    Operators take only operands of their own kind over one space; any
    other operand, on either side, is an InvalidArgumentError naming it.
    """

    @pytest.mark.parametrize(
        "call, named",
        [
            (lambda: Monomial((1, -2)), "negative exponent"),
            (lambda: MonomialOrder("bogus", ("X",)), "'bogus'"),
            (lambda: Polynomial.variable(("X",), "X") ** -1, "negative power"),
            (lambda: groebner.buchberger([]), "at least one generator"),
            (lambda: make_hom(5, 3, ["t"]), "got 5"),
            (lambda: Subspace.from_vectors([[1, 0]], 2).basis_elements(), "no owning algebra"),
            (lambda: socle(q_algebra(2)).contains([0, 0, 0, 0, "x"]), "'x'"),
            (lambda: Monomial((1.7, 0)), "(1.7, 0)"),
            (lambda: Monomial(["a", 0]), "['a', 0]"),
            (lambda: q_algebra(2).variable_element("X") ** 1.5, "1.5"),
            (lambda: Polynomial.variable(("X",), "X") ** 1.5, "1.5"),
            (lambda: omega_witness(*_staircase_and_variables(), 1.5), "1.5"),
            (lambda: q_algebra(2.0), "2.0"),
            (lambda: q_algebra("2"), "'2'"),
            (lambda: quotient_algebra(5, []), "got 5"),
            (lambda: euler_derivation(q_algebra(2), 5), "got 5"),
            (lambda: make_hom(q_algebra(2), 5, ["t^2", "t^3"]).valuation(5), "got 5"),
            (lambda: _x() + 1, "AlgebraElement with 1;"),
            (lambda: _x() * 2, "AlgebraElement with 2;"),
            (lambda: _x() + "a", "AlgebraElement with 'a';"),
            (lambda: 2 * _x(), "AlgebraElement with 2;"),
            (lambda: 1 - _x(), "AlgebraElement with 1;"),
            (lambda: _x() + _X(), "AlgebraElement with <Polynomial X>;"),
            (lambda: _x().scale("a"), "'a'"),
            (lambda: 2 * _dx(), "DifferentialForm with 2;"),
            (lambda: _dx().scale("a"), "'a'"),
            (lambda: _X() * 2, "Polynomial with 2;"),
            (lambda: _X() + 1, "Polynomial with 1;"),
            (lambda: 2 * _X(), "Polynomial with 2;"),
            (lambda: _X() - None, "Polynomial with None;"),
            (lambda: _X().scale("a"), "'a'"),
            (lambda: q_algebra(2).from_string(1), "got 1"),
            (lambda: build_algebra(("X",), [1]), "got 1"),
            (lambda: Monomial((True, 0)), "(True, 0)"),
            (lambda: Monomial((1, False)), "(1, False)"),
            (lambda: Polynomial.constant(("X",), "a"), "'a'"),
            (lambda: Polynomial(("X",), {Monomial((1,)): None}), "None"),
            (lambda: Polynomial.from_monomial(("X",), Monomial((1,)), float("inf")), "inf"),
            (lambda: _X().scale(float("inf")), "inf"),
            (lambda: TruncatedPolyAlgebra(4).t_power(1.5), "1.5"),
            (lambda: TruncatedPolyAlgebra(4).t_power(-1), "-1"),
            (lambda: TruncatedPolyAlgebra(4).t_power(True), "True"),
            (lambda: TruncatedPolyAlgebra(4).t_power(9, "b"), "'b'"),
            (lambda: build_algebra(0, ["X^2"]), "got 0"),
            (lambda: build_algebra(("X",), None), "got None"),
            (lambda: make_hom(q_algebra(2), 5, 7), "got 7"),
            (lambda: parse_polynomial("X", None), "got None"),
            (lambda: TruncatedPolyAlgebra(3).from_coeffs("12"), "got the string '12'"),
            (lambda: build_algebra("XY", ["X^2", "X*Y", "Y^2"]), "got the string 'XY'"),
            (lambda: search_homs(q_algebra(2), 4, budget=50, coefficient_pool="12"),
             "the coefficient pool must be a sequence, got the string '12'"),
            (lambda: AlgebraMap(5, q_algebra(2), []), "got 5"),
            (lambda: AlgebraMap(q_algebra(2), q_algebra(2), 5), "got 5"),
            (lambda: AlgebraMap(q_algebra(2), 5, [_x(), _x()]), "got 5"),
            (lambda: _hom().then(5), "got 5"),
            (lambda: triangularize(5, [_x()]), "got 5"),
            (lambda: Subspace.from_vectors(5, 2), "got 5"),
            (lambda: q_algebra(2).basis_element("a"), "'a'"),
            (lambda: q_algebra(2).basis_element(5), "past dimension 5"),
            (lambda: graded_component_span(q_algebra(2), "a"), "'a'"),
            (lambda: graded_component_span(q_algebra(2), -1), "-1"),
            (lambda: surjection_to_q(q_algebra(2), _hom(), "2"), "'2'"),
        ],
        ids=["monomial", "order-kind", "polynomial-power", "buchberger-empty", "make-hom-algebra-int",
             "subspace-owner", "subspace-coordinate", "monomial-float", "monomial-str",
             "element-power-float", "polynomial-power-float", "omega-r-float", "q-float",
             "q-str", "quotient-algebra-int", "euler-element-int", "valuation-int",
             "element-plus-int", "element-times-int", "element-plus-str", "int-times-element",
             "int-minus-element", "element-plus-polynomial", "element-scale-str",
             "int-times-form", "form-scale-str", "polynomial-times-int", "polynomial-plus-int",
             "int-times-polynomial", "polynomial-minus-none", "polynomial-scale-str",
             "from-string-int", "build-int-generator", "monomial-bool", "monomial-bool-last",
             "constant-str", "coefficient-none", "from-monomial-inf", "scale-inf", "t-power-float",
             "t-power-negative", "t-power-bool", "t-power-beyond-str", "build-variables-int", "build-gens-none",
             "make-hom-images-int", "parse-variables-none", "from-coeffs-str", "build-variables-str",
             "pool-str", "map-source-int", "map-images-int", "map-target-int", "then-int",
             "triangularize-hom-int", "from-vectors-int", "basis-element-str",
             "basis-element-past-dim", "component-degree-str", "component-degree-negative",
             "surjection-r-str"],
    )
    def test_invalid_argument(self, call, named):
        with pytest.raises(InvalidArgumentError, match=re.escape(named)):
            call()
