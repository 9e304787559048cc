"""Map evaluation against a reference copy of the earlier evaluation code.

`AlgebraMap` evaluates through one memo of monomial images and sums the
images of a polynomial or an element in one coordinate list.  The
functions below keep the evaluation it replaced: each monomial is a
product of image powers taken with `**`, and a sum is built as
`total + image.scale(c)`.  Every public evaluation must equal them, on
plain maps and on truncated homs (which skip monomials whose image orders
sum past N), for random candidate images, units included, and for the
maps that quotients and the staircase surjection build.
"""

import random
from fractions import Fraction
from itertools import product

import pytest

from artinalg.algebra import (
    AlgebraMap,
    CoordinateVector,
    build_algebra,
    quotient_algebra,
)
from artinalg.berger import surjection_to_q
from artinalg.polycore import Monomial, Polynomial
from artinalg.truncated import TruncatedHom, TruncatedPolyAlgebra, make_hom
from conftest import GOLDEN_GENS, GOLDEN_VARS, algebra_from_strings
from oracles import random_element


def reference_monomial(hom, exps):
    term = None
    for i, e in enumerate(exps):
        if e:
            power = hom.images[i] ** e
            term = power if term is None else term * power
    return hom.target.one() if term is None else term


def reference_sum(hom, terms):
    total = hom.target.zero()
    for exps, c in terms:
        image = reference_monomial(hom, exps)
        if not image.is_zero():
            total = total + image.scale(c)
    return total


def reference_polynomial(hom, p):
    return reference_sum(hom, ((mono.exps, c) for mono, c in p.terms.items()))


def reference_apply(hom, element):
    basis = hom.source.basis
    return reference_sum(hom, ((basis[i].exps, c) for i, c in enumerate(element.coords) if c))


def reference_violation(hom):
    for g in hom.source.gens:
        residual = reference_polynomial(hom, g)
        if not residual.is_zero():
            return g, residual
    return None


INPUTS = {
    "golden": (GOLDEN_VARS, GOLDEN_GENS),
    **{f"Q({r})": (("X", "Y"), (f"X^{r + 1}", f"X^{r}*Y", "Y^2")) for r in range(1, 6)},
    "<X,Y>^4": (("X", "Y"), ("X^4", "X^3*Y", "X^2*Y^2", "X*Y^3", "Y^4")),
    "unit-line": (("X",), ("X^2 - 2*X + 1",)),
    "mixed": (("X", "Y"), ("X^2 - 2*X + 1", "Y^3")),
}
POOL = (Fraction(1), Fraction(-1), Fraction(2), Fraction(1, 2), Fraction(-3, 2))


def random_images(rng, target, nvars):
    """Random images in the target: a unit about one time in three."""
    images = []
    for _ in range(nvars):
        coords = [rng.choice(POOL) if rng.random() < 0.4 else 0 for _ in range(target.dim)]
        coords[0] = rng.choice(POOL) if rng.random() < 1 / 3 else 0
        images.append(target.from_coeffs(coords))
    return images


def random_polynomial(rng, variables, top=5):
    terms = {
        Monomial(rng.randint(0, top) for _ in variables): rng.choice(POOL) for _ in range(4)
    }
    return Polynomial(variables, terms)


def assert_matches_reference(hom, rng):
    """Every public evaluation of `hom` equals the reference copy."""
    source = hom.source
    exponents = list(product(range(6), repeat=len(source.variables)))
    rng.shuffle(exponents)  # reach the memo in many states
    for exps in exponents:
        assert hom.evaluate_monomial(exps) == reference_monomial(hom, exps)
    assert hom.violation() == reference_violation(hom)
    for _ in range(4):
        p = random_polynomial(rng, source.variables)
        assert hom.evaluate_polynomial(p) == reference_polynomial(hom, p)
    for i, mono in enumerate(source.basis):
        assert hom.basis_image(i) == reference_monomial(hom, mono.exps)
    for _ in range(5):
        a = random_element(rng, source)
        assert hom.apply(a) == reference_apply(hom, a)


@pytest.mark.parametrize("name", list(INPUTS))
def test_seeded_homs_equal_the_reference(name):
    A = algebra_from_strings(*INPUTS[name])
    rng = random.Random(f"map-evaluation:{name}")
    for _ in range(25):
        target = TruncatedPolyAlgebra(rng.randint(0, 8))
        images = random_images(rng, target, len(A.variables))
        for kind in (TruncatedHom, AlgebraMap):
            assert_matches_reference(kind(A, target, images, verify=False), rng)


def test_quotient_surjection_equals_the_reference(golden):
    _, pi = quotient_algebra(golden, ["X^3", "Y^2 - X*Y"])
    assert_matches_reference(pi, random.Random(71))


def test_staircase_to_q_equals_the_reference(m4):
    result = surjection_to_q(m4, make_hom(m4, 15, ["t^4", "t^5"]), 3)
    assert result.iso_check.passed
    assert_matches_reference(result.to_q, random.Random(73))


class TestWork:
    @pytest.fixture
    def no_vector_sums(self, monkeypatch):
        def forbidden(*args):
            raise AssertionError("a vector sum or scale outside the one accumulation")

        monkeypatch.setattr(CoordinateVector, "__add__", forbidden)
        monkeypatch.setattr(CoordinateVector, "scale", forbidden)

    def test_evaluation_builds_no_intermediate_vectors(self, golden, no_vector_sums):
        rng = random.Random(79)
        hom = make_hom(golden, 5, ["t^2", "t^2"])
        candidate = TruncatedHom(golden, hom.target, random_images(rng, hom.target, 2), False)
        _, pi = quotient_algebra(golden, ["X^3"])
        for m in (hom, candidate, pi):
            m.violation()
            m.evaluate_polynomial(random_polynomial(rng, golden.variables))
            m.apply(random_element(rng, golden))

    @pytest.mark.parametrize("kind", ["truncated", "quotient"])
    def test_a_memo_hit_multiplies_nothing(self, monkeypatch, golden, kind):
        if kind == "truncated":
            target = TruncatedPolyAlgebra(12)
            images = [target.from_string("t^2 + t^3"), target.from_string("t + 2*t^4")]
            hom = TruncatedHom(golden, target, images, verify=False)
        else:
            _, hom = quotient_algebra(golden, ["X^3"])
        exps = (2, 2)
        first = hom.evaluate_monomial(exps)
        element = golden.from_string("X^2*Y + 3*Y^2 - X")
        applied = hom.apply(element)

        def forbidden(self, a, b):
            raise AssertionError("a target multiplication on a memo hit")

        monkeypatch.setattr(type(hom.target), "multiply_coords", forbidden)
        assert hom.evaluate_monomial(exps) is first
        assert hom.evaluate_monomial(list(exps)) is first
        assert hom.apply(element) == applied

    def test_a_high_power_generator_evaluates_without_recursion(self):
        source = build_algebra(("X",), ["X^2", "X^1500"])
        target = build_algebra(("Y",), ["Y^2"])
        hom = AlgebraMap(source, target, [target.variable_element("Y")])
        assert hom.evaluate_monomial((1500,)).is_zero()
        assert hom.evaluate_monomial((1,)) == target.variable_element("Y")
