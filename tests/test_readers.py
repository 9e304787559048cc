"""Every reader of a library datum answers a wrong value with its
documented return or an ArtinalgError, never another exception.

A reader is where a value from a library call enters: an exponent, a
rational, an integer argument, an operand, a truncation, an image, a
strategy, a variable list or a generator list.  Each reader below is
called with every value of WRONG in the one position it reads; the other
arguments are valid.  A value that the reader's rule accepts (a float is an exact
rational, an empty coordinate list a zero element, an empty hom family
or element list an empty one) must give the documented type; anything
else must raise an ArtinalgError.  The functions that take an algebra,
an element, a form or a hom as such (`nilradical(A)`, `d(a)`,
`make_hom(A, ...)`, `h.apply(a)`, `pushforward(h, w)`, the berger
checks) are swept the same way.  A `str` is never read as the sequence
of its characters.
"""

import math
from collections.abc import Hashable
from fractions import Fraction

import pytest

from artinalg import (
    AlgebraElement,
    AlgebraMap,
    ArtinAlgebra,
    ArtinalgError,
    CriticalDegreeReport,
    DifferentialForm,
    InvalidArgumentError,
    KahlerModule,
    Monomial,
    MonomialOrder,
    Polynomial,
    Subspace,
    SurjectionToQ,
    TruncatedHom,
    TruncatedPolyAlgebra,
    VariableMismatchError,
    WitnessReport,
    build_algebra,
    critical_degree_search,
    d,
    euler_derivation,
    kahler_module,
    make_hom,
    nilradical,
    omega_witness,
    parse_polynomial,
    pushforward,
    q_algebra,
    quotient_algebra,
    search_homs,
    socle,
    surjection_to_q,
    tau_membership_check,
    triangularize,
)
from artinalg.algebra import graded_component_span
from artinalg.groebner import (
    GroebnerBasis,
    StandardMonomialBasis,
    buchberger,
    ideal_membership,
    normal_form,
    standard_monomials,
)

WRONG = {
    "float": 1.5,
    "nan": math.nan,
    "inf": math.inf,
    "true": True,
    "false": False,
    "str": "a",
    "empty-str": "",
    "none": None,
    "tuple": (1, "a"),
    "empty-tuple": (),
    "list": [None],
    "empty-list": [],
    "negative": -1,
    "polynomial": Polynomial.variable(("Y", "Z"), "Y"),
    "element": q_algebra(1).variable_element("X"),
}

Q2 = q_algebra(2)
X = Polynomial.variable(("X",), "X")
x = Q2.variable_element("X")
y = Q2.variable_element("Y")
RING = TruncatedPolyAlgebra(4)
IMAGES = ["t^2", "t^3"]
HOM = make_hom(Q2, 5, IMAGES)
OMEGA = omega_witness(Q2, x, y, 2)

# (name, reader, documented return type, needs a hashable value)
READERS = [
    ("Monomial", lambda v: Monomial(v), Monomial, False),
    ("Monomial-exponent", lambda v: Monomial((v, 0)), Monomial, False),
    ("Polynomial-coefficient", lambda v: Polynomial(("X",), {Monomial((1,)): v}), Polynomial, False),
    ("Polynomial-terms", lambda v: Polynomial(("X",), v), Polynomial, False),
    ("Polynomial-variables", lambda v: Polynomial(v, {}), Polynomial, False),
    ("Polynomial.zero", lambda v: Polynomial.zero(v), Polynomial, False),
    ("Polynomial.constant-variables", lambda v: Polynomial.constant(v, 1), Polynomial, False),
    ("Polynomial.variable-variables", lambda v: Polynomial.variable(v, "X"), Polynomial, False),
    ("Polynomial-monomial", lambda v: Polynomial(("X",), {v: 1}), Polynomial, True),
    ("Polynomial.constant", lambda v: Polynomial.constant(("X",), v), Polynomial, False),
    ("Polynomial.from_monomial", lambda v: Polynomial.from_monomial(("X",), v), Polynomial, True),
    ("Polynomial.from_monomial-coefficient",
     lambda v: Polynomial.from_monomial(("X",), Monomial((1,)), v), Polynomial, False),
    ("Polynomial.scale", lambda v: X.scale(v), Polynomial, False),
    ("Polynomial+", lambda v: X + v, Polynomial, False),
    ("+Polynomial", lambda v: v + X, Polynomial, False),
    ("Polynomial-", lambda v: X - v, Polynomial, False),
    ("-Polynomial", lambda v: v - X, Polynomial, False),
    ("Polynomial*", lambda v: X * v, Polynomial, False),
    ("*Polynomial", lambda v: v * X, Polynomial, False),
    ("Polynomial**", lambda v: X ** v, Polynomial, False),
    ("Polynomial.leading_monomial", lambda v: X.leading_monomial(v), Monomial, False),
    ("Polynomial.to_string", lambda v: X.to_string(v), str, False),
    ("buchberger", lambda v: buchberger(v), GroebnerBasis, False),
    ("buchberger-generator", lambda v: buchberger([X, v]), GroebnerBasis, False),
    ("buchberger-order", lambda v: buchberger([X], v), GroebnerBasis, False),
    ("normal_form", lambda v: normal_form(v, Q2.gb), Polynomial, False),
    ("normal_form-basis", lambda v: normal_form(X, v), Polynomial, False),
    ("ideal_membership", lambda v: ideal_membership(v, Q2.gb), bool, False),
    ("standard_monomials", lambda v: standard_monomials(v), StandardMonomialBasis, False),
    ("AlgebraElement-coordinates", lambda v: AlgebraElement(Q2, v), AlgebraElement, False),
    ("AlgebraElement-coordinate", lambda v: AlgebraElement(Q2, [v] * Q2.dim), AlgebraElement, False),
    ("AlgebraElement.scale", lambda v: x.scale(v), AlgebraElement, False),
    ("AlgebraElement+", lambda v: x + v, AlgebraElement, False),
    ("+AlgebraElement", lambda v: v + x, AlgebraElement, False),
    ("AlgebraElement-", lambda v: x - v, AlgebraElement, False),
    ("-AlgebraElement", lambda v: v - x, AlgebraElement, False),
    ("AlgebraElement*", lambda v: x * v, AlgebraElement, False),
    ("*AlgebraElement", lambda v: v * x, AlgebraElement, False),
    ("AlgebraElement**", lambda v: x ** v, AlgebraElement, False),
    ("t_power", lambda v: RING.t_power(v), AlgebraElement, False),
    ("t_power-coefficient", lambda v: RING.t_power(1, v), AlgebraElement, False),
    ("from_coeffs", lambda v: RING.from_coeffs(v), AlgebraElement, False),
    ("from_coeffs-coefficient", lambda v: RING.from_coeffs([v]), AlgebraElement, False),
    ("make_hom-algebra", lambda v: make_hom(v, 3, ["t"]), TruncatedHom, False),
    ("make_hom-truncation", lambda v: make_hom(Q2, v, IMAGES), TruncatedHom, False),
    ("make_hom-images", lambda v: make_hom(Q2, 5, v), TruncatedHom, False),
    ("make_hom-image", lambda v: make_hom(Q2, 5, [v, "t^3"]), TruncatedHom, False),
    ("search_homs-n_max", lambda v: search_homs(Q2, v, budget=20), list, False),
    ("search_homs-budget", lambda v: search_homs(Q2, 4, budget=v), list, False),
    ("search_homs-pool", lambda v: search_homs(Q2, 4, budget=20, coefficient_pool=v), list, False),
    ("search_homs-budget-key", lambda v: search_homs(Q2, 4, budget={v: 20}), list, True),
    ("search_homs-strategy", lambda v: search_homs(Q2, 4, strategy=v, budget=20), list, False),
    ("search_homs-images", lambda v: search_homs(Q2, 4, "user", 20, images=v), list, False),
    ("MonomialOrder-kind", lambda v: MonomialOrder(v, ("X",)), MonomialOrder, False),
    ("MonomialOrder-variables", lambda v: MonomialOrder("lex", v), MonomialOrder, False),
    ("q_algebra", lambda v: q_algebra(v), ArtinAlgebra, False),
    ("build_algebra-variables", lambda v: build_algebra(v, ["X^2"]), ArtinAlgebra, False),
    ("build_algebra-gens", lambda v: build_algebra(("X",), v), ArtinAlgebra, False),
    ("build_algebra-gen", lambda v: build_algebra(("X",), ["X^2", v]), ArtinAlgebra, False),
    ("build_algebra-order", lambda v: build_algebra(("X",), ["X^2"], v), ArtinAlgebra, False),
    ("parse_polynomial", lambda v: parse_polynomial(v, ("X",)), Polynomial, False),
    ("parse_polynomial-variables", lambda v: parse_polynomial("X", v), Polynomial, False),
    ("Subspace.from_vectors", lambda v: Subspace.from_vectors(v, 2), Subspace, False),
    ("Subspace.from_vectors-vector", lambda v: Subspace.from_vectors([v], 2), Subspace, False),
    ("Subspace.from_vectors-coordinate",
     lambda v: Subspace.from_vectors([[v, 0]], 2), Subspace, False),
    ("Subspace.from_vectors-ambient_dim",
     lambda v: Subspace.from_vectors([[1, 0]], v), Subspace, False),
    ("basis_element", lambda v: Q2.basis_element(v), AlgebraElement, False),
    ("from_polynomial", lambda v: Q2.from_polynomial(v), AlgebraElement, False),
    ("graded_component_span", lambda v: graded_component_span(Q2, v), Subspace, False),
    ("nilradical", lambda v: nilradical(v), Subspace, False),
    ("socle", lambda v: socle(v), Subspace, False),
    ("kahler_module", lambda v: kahler_module(v), KahlerModule, False),
    ("d", lambda v: d(v), DifferentialForm, False),
    ("KahlerModule.d", lambda v: kahler_module(Q2).d(v), DifferentialForm, False),
    ("KahlerModule.d_polynomial", lambda v: kahler_module(Q2).d_polynomial(v), DifferentialForm, False),
    ("KahlerModule.act-element", lambda v: kahler_module(Q2).act(v, OMEGA), DifferentialForm, False),
    ("KahlerModule.act-form", lambda v: kahler_module(Q2).act(x, v), DifferentialForm, False),
    ("quotient_algebra-algebra", lambda v: quotient_algebra(v, []), tuple, False),
    ("quotient_algebra-gens", lambda v: quotient_algebra(Q2, v), tuple, False),
    ("euler_derivation", lambda v: euler_derivation(Q2, v), AlgebraElement, False),
    ("AlgebraMap-source", lambda v: AlgebraMap(v, Q2, []), AlgebraMap, False),
    ("AlgebraMap-target", lambda v: AlgebraMap(Q2, v, [x, y]), AlgebraMap, False),
    ("AlgebraMap-images", lambda v: AlgebraMap(Q2, Q2, v), AlgebraMap, False),
    ("AlgebraMap.identity", lambda v: AlgebraMap.identity(v), AlgebraMap, False),
    ("TruncatedHom.identity", lambda v: TruncatedHom.identity(v), TruncatedHom, False),
    ("TruncatedHom-target", lambda v: TruncatedHom(Q2, v, [x, y]), TruncatedHom, False),
    ("then", lambda v: HOM.then(v), AlgebraMap, False),
    ("evaluate_monomial", lambda v: HOM.evaluate_monomial(v), AlgebraElement, False),
    ("evaluate_monomial-exponent", lambda v: HOM.evaluate_monomial((v, 0)), AlgebraElement, False),
    ("evaluate_polynomial", lambda v: HOM.evaluate_polynomial(v), AlgebraElement, False),
    ("basis_image", lambda v: HOM.basis_image(v), AlgebraElement, False),
    ("apply", lambda v: HOM.apply(v), AlgebraElement, False),
    ("valuation", lambda v: HOM.valuation(v), int, False),
    ("triangularize-hom", lambda v: triangularize(v, [x]), list, False),
    ("triangularize-elements", lambda v: triangularize(HOM, v), list, False),
    ("triangularize-element", lambda v: triangularize(HOM, [v]), list, False),
    ("pushforward", lambda v: pushforward(HOM, v), DifferentialForm, False),
    ("critical_degree_search", lambda v: critical_degree_search(Q2, v), CriticalDegreeReport, False),
    ("surjection_to_q", lambda v: surjection_to_q(Q2, v, 2), SurjectionToQ, False),
    ("surjection_to_q-r", lambda v: surjection_to_q(Q2, HOM, v), SurjectionToQ, False),
    ("omega_witness", lambda v: omega_witness(Q2, v, y, 2), DifferentialForm, False),
    ("tau_membership_check", lambda v: tau_membership_check(Q2, v, [HOM]), WitnessReport, False),
    ("tau_membership_check-homs", lambda v: tau_membership_check(Q2, OMEGA, v), WitnessReport, False),
]

CASES = [
    pytest.param(reader, value, returns, id=f"{name}[{label}]")
    for name, reader, returns, hashable in READERS
    for label, value in WRONG.items()
    if not hashable or isinstance(value, Hashable)
]


@pytest.mark.parametrize("reader, value, returns", CASES)
def test_a_wrong_value_gives_the_documented_return_or_a_typed_error(reader, value, returns):
    try:
        result = reader(value)
    except ArtinalgError:
        return
    assert isinstance(result, returns)


def test_t_power_beyond_the_truncation_is_zero():
    assert TruncatedPolyAlgebra(4).t_power(5).is_zero()
    assert TruncatedPolyAlgebra(4).t_power(4, 3).coords == (0, 0, 0, 0, 3)


# Calls that once gave a wrong answer silently or raised an untyped error,
# with the error each raises now.
REPROS = [
    ("from_vectors-None", lambda: Subspace.from_vectors([[None]], 2), InvalidArgumentError),
    ("from_vectors-long", lambda: Subspace.from_vectors([[1, 0, 0]], 2), VariableMismatchError),
    ("from_vectors-ambient_dim", lambda: Subspace.from_vectors([], -1), InvalidArgumentError),
    ("evaluate_polynomial-variables",
     lambda: HOM.evaluate_polynomial(parse_polynomial("Z", ("Z",))), VariableMismatchError),
    ("evaluate_polynomial-int", lambda: HOM.evaluate_polynomial(5), InvalidArgumentError),
    ("evaluate_monomial-short", lambda: HOM.evaluate_monomial([1]), VariableMismatchError),
    ("evaluate_monomial-negative", lambda: HOM.evaluate_monomial([-1, 2]), InvalidArgumentError),
    ("basis_image-past", lambda: HOM.basis_image(99), InvalidArgumentError),
    ("basis_image-str", lambda: HOM.basis_image("a"), InvalidArgumentError),
    ("search_homs-budget-key",
     lambda: search_homs(Q2, 4, budget={"monomal": 100}), InvalidArgumentError),
    ("MonomialOrder-variables", lambda: MonomialOrder("lex", 5), InvalidArgumentError),
    ("build_algebra-order", lambda: build_algebra(("X",), ["X^2"], "lex"), InvalidArgumentError),
    ("AlgebraMap-str", lambda: AlgebraMap(Q2, Q2, "XY"), InvalidArgumentError),
    ("Polynomial-str", lambda: Polynomial("XY", {}), InvalidArgumentError),
    ("search_homs-strategy-int", lambda: search_homs(Q2, 4, strategy=5), InvalidArgumentError),
    ("buchberger-str", lambda: buchberger("XY"), InvalidArgumentError),
    ("normal_form-int", lambda: normal_form(5, Q2.gb), InvalidArgumentError),
    ("TruncatedHom.identity-presented", lambda: TruncatedHom.identity(Q2), InvalidArgumentError),
    ("TruncatedHom-presented-target", lambda: TruncatedHom(Q2, Q2, [x, y]), InvalidArgumentError),
]


@pytest.mark.parametrize("call, error", [pytest.param(c, e, id=n) for n, c, e in REPROS])
def test_a_wrong_call_raises_its_documented_error(call, error):
    with pytest.raises(error):
        call()


def test_an_iterator_of_images_builds_the_map():
    assert AlgebraMap(Q2, Q2, iter([x, y])).images == (x, y)


def test_from_vectors_reads_a_float_by_its_binary_value():
    rows = Subspace.from_vectors([[0.5, 1]], 2).rows
    assert rows == ((1, 2),) and all(type(c) is Fraction for c in rows[0])
    assert Subspace.from_vectors([[0.1, 0]], 2) == Subspace.from_vectors([[1, 0]], 2)
    assert Subspace.from_vectors([[1, 0.1]], 2).rows == ((1, Fraction(0.1)),)
