"""Differential test of invariants and map evaluation against sympy.

The oracle shares no code with artinalg: it is built from
`sympy.groebner`, `sympy.reduced` and `sympy.Matrix` only.  For a local
algebra A = Q[x]/I with residues lambda_i of the x_i, the maximal ideal
M is generated by the x_i - lambda_i, so

- dim A/M^k is the number of standard monomials of I + M^k, which gives
  every dim M^k, the nilpotency index (the last k with M^k nonzero) and
  the embedding dimension dim M/M^2;
- the socle is the common kernel of the multiplication matrices of the
  x_i - lambda_i, built from remainders modulo a Groebner basis of I;
- dim Omega_A is m*d minus the rank of the vectors b * dg/dX_i (b a
  standard monomial, g a generator of I) reduced into (+)_i A dX_i;
- a subspace S of A meets the kernel of d : A -> Omega_A in dim S minus
  the rank of d(S) modulo those relation vectors, which gives dim H0_dR
  (S = A) and the dimension of the embedding obstruction H0_dR ∩ M
  (S = M, spanned by the columns of the multiplication matrices of the
  x_i - lambda_i).

Homomorphisms into Q[t]/<t^(N+1)> are checked the same way: the rank of
the image of each graded component, which the critical-degree scan and
its witnesses rest on, is recomputed from sympy's expanded products of
the variable images, cut at t^N.
"""

import random
from itertools import combinations_with_replacement, product

import pytest

sympy = pytest.importorskip("sympy")

from artinalg.algebra import (
    _power_dims,
    build_algebra,
    embedding_dimension,
    is_gorenstein,
    nilpotency_index,
    nilradical,
    socle,
)
from artinalg.berger import _image_rank, critical_degree_search
from artinalg.kahler import embedding_obstruction, h0_de_rham, kahler_module
from artinalg.truncated import search_homs
from conftest import GOLDEN_GENS, GOLDEN_VARS
from oracles import random_zero_dim_gens


def _power_of_maximal_ideal(variables, k):
    return [
        "*".join(f"{v}^{e}" for v, e in zip(variables, exps) if e)
        for exps in product(range(k + 1), repeat=len(variables))
        if sum(exps) == k
    ]


def _seeded_inputs():
    """The six seeded ideals of tests/test_groebner.py.  Pure powers of the
    variables make each quotient local, or trivial exactly when a
    generator has a nonzero constant term; a trivial one is skipped."""
    for seed in range(6):
        rng = random.Random(1000 + seed)
        variables = ("X", "Y", "Z")[: 2 + seed % 2]
        gens = random_zero_dim_gens(rng, variables)
        if not any(mono.is_one() for g in gens for mono in g.terms):
            yield f"random-{seed}", variables, [g.to_string() for g in gens]


INPUTS = [
    ("golden", GOLDEN_VARS, list(GOLDEN_GENS)),
    *((f"Q({r})", ("X", "Y"), [f"X^{r + 1}", f"X^{r}*Y", "Y^2"]) for r in range(1, 6)),
    ("<X,Y>^4", ("X", "Y"), _power_of_maximal_ideal(("X", "Y"), 4)),
    ("<X,Y,Z>^3", ("X", "Y", "Z"), _power_of_maximal_ideal(("X", "Y", "Z"), 3)),
    ("X^12", ("X",), ["X^12"]),
    ("xyz_fourth", ("X", "Y", "Z"), ["X^4", "Y^4", "Z^4", "X*Y*Z"]),
    ("(X-1)^3,Y^2", ("X", "Y"), ["X^3 - 3*X^2 + 3*X - 1", "Y^2"]),
    *_seeded_inputs(),
]


def _rank(rows):
    """The number of pivots of sympy's RREF; `Matrix.rank` made this file
    take 5.6 s instead of 3.6 s."""
    return len(sympy.Matrix(rows).rref()[1])


class SympyLocalAlgebra:
    """Q[x]/I computed by sympy alone, for a zero-dimensional local I."""

    def __init__(self, variables, gens):
        self.symbols = sympy.symbols(variables)
        self.gens = [sympy.sympify(g.replace("^", "**"), dict(zip(variables, self.symbols)))
                     for g in gens]
        self.basis_gb = sympy.groebner(self.gens, *self.symbols, order="grevlex")
        self.basis = self._standard_monomials(self.basis_gb)
        self.index = {m: i for i, m in enumerate(self.basis)}
        self.dim = len(self.basis)
        # multiplication by x_i has the single eigenvalue lambda_i
        self.residues = [self._times(x).trace() / self.dim for x in self.symbols]

    def _standard_monomials(self, gb):
        leads = [sympy.Poly(g, *self.symbols).monoms(order="grevlex")[0] for g in gb.exprs]
        nvars = len(self.symbols)
        found, frontier = set(), [(0,) * nvars]
        while frontier:
            mono = frontier.pop()
            if mono in found or any(all(a <= b for a, b in zip(lead, mono)) for lead in leads):
                continue
            found.add(mono)
            for i in range(nvars):
                frontier.append(tuple(e + (k == i) for k, e in enumerate(mono)))
        return sorted(found)

    def _coords(self, expr):
        _, remainder = sympy.reduced(expr, self.basis_gb.exprs, *self.symbols, order="grevlex")
        coords = [0] * self.dim
        for mono, c in sympy.Poly(remainder, *self.symbols).terms():
            coords[self.index[mono]] = c
        return coords

    def _monomial(self, exps):
        return sympy.Mul(*(x**e for x, e in zip(self.symbols, exps)))

    def _linear_coords(self, expr, cache):
        """`_coords` summed over the terms of expr, one remainder per monomial."""
        coords = [0] * self.dim
        for mono, c in sympy.Poly(expr, *self.symbols).terms():
            if mono not in cache:
                cache[mono] = self._coords(self._monomial(mono))
            coords = [a + c * b for a, b in zip(coords, cache[mono])]
        return coords

    def _times(self, factor):
        """The matrix of multiplication by `factor`, columns in basis order."""
        columns = [self._coords(factor * self._monomial(mono)) for mono in self.basis]
        return sympy.Matrix(columns).T

    def maximal_ideal_generators(self):
        return [x - lam for x, lam in zip(self.symbols, self.residues)]

    def power_dims(self):
        """dim M^k for k = 1, 2, ... while M^k is nonzero."""
        dims = []
        for k in range(1, self.dim + 1):
            power = [sympy.Mul(*c) for c in
                     combinations_with_replacement(self.maximal_ideal_generators(), k)]
            gb = sympy.groebner(self.gens + power, *self.symbols, order="grevlex")
            dim = self.dim - len(self._standard_monomials(gb))
            if dim == 0:
                break
            dims.append(dim)
        return dims

    def socle_dim(self):
        stacked = sympy.Matrix.vstack(*(self._times(g) for g in self.maximal_ideal_generators()))
        return self.dim - stacked.rank()

    def _relations(self, cache):
        """The reduced vectors b * dg/dX_i, one per generator g and basis monomial b."""
        rows = []
        for g in self.gens:
            partials = [sympy.diff(g, x) for x in self.symbols]
            for mono in self.basis:
                b = self._monomial(mono)
                rows.append(sum((self._linear_coords(b * dg, cache) for dg in partials), []))
        return rows

    def kahler_dim(self):
        """m*d minus the rank of the reduced vectors b * dg/dX_i."""
        return len(self.symbols) * self.dim - _rank(self._relations({}))

    def de_rham_dims(self):
        """dim H0_dR and dim(H0_dR ∩ M), each as dim S minus the rank of
        d(S) modulo the relations, for S = A and S = M."""
        cache = {}
        relations = self._relations(cache)
        d_basis = sympy.Matrix([
            sum((self._linear_coords(sympy.diff(self._monomial(mono), x), cache)
                 for x in self.symbols), [])
            for mono in self.basis
        ]).T  # column j is d of the j-th standard monomial
        maximal = sympy.Matrix.hstack(
            *(self._times(g) for g in self.maximal_ideal_generators())
        ).columnspace()

        def meet_kernel_of_d(spanning):
            images = [list(d_basis * v) for v in spanning]
            return len(spanning) - (_rank(relations + images) - _rank(relations))

        identity = [sympy.Matrix.eye(self.dim).col(j) for j in range(self.dim)]
        return meet_kernel_of_d(identity), meet_kernel_of_d(maximal)

    def component_image_ranks(self, images, truncation):
        """The rank of the image of each degree 1, 2, ... of the basis under
        X_i -> images[i] (coefficient lists in t), products cut at t^N."""
        t = sympy.Symbol("t")
        polys = [sympy.Poly(sum(c * t**k for k, c in enumerate(img)), t) for img in images]
        rows = {}
        for mono in self.basis:
            image = sympy.Poly(1, t)
            for poly, e in zip(polys, mono):
                image *= poly**e
            coeffs = image.all_coeffs()[::-1] + [0] * (truncation + 1)
            rows.setdefault(sum(mono), []).append(coeffs[: truncation + 1])
        return {d: _rank(r) for d, r in sorted(rows.items()) if d}


@pytest.mark.parametrize(
    "variables, gens", [pytest.param(v, g, id=name) for name, v, g in INPUTS]
)
def test_power_chain_and_socle_agree_with_sympy(variables, gens):
    A = build_algebra(variables, gens)
    oracle = SympyLocalAlgebra(variables, gens)
    assert A.dim == oracle.dim
    dims = oracle.power_dims()
    assert list(_power_dims(A)) == dims
    assert nilpotency_index(A) == len(dims)
    padded = dims + [0, 0]  # M = 0 for the seeded ideal whose quotient is Q
    assert embedding_dimension(A) == padded[0] - padded[1]
    socle_dim = oracle.socle_dim()
    assert socle(A).dim == socle_dim
    assert is_gorenstein(A) == (socle_dim == 1)


@pytest.mark.parametrize(
    "variables, gens", [pytest.param(v, g, id=name) for name, v, g in INPUTS]
)
def test_kahler_dimension_agrees_with_sympy(variables, gens):
    A = build_algebra(variables, gens)
    assert kahler_module(A).dim == SympyLocalAlgebra(variables, gens).kahler_dim()


def _sympy_images(hom):
    return [[sympy.Rational(c.numerator, c.denominator) for c in img.coords] for img in hom.images]


@pytest.mark.parametrize(
    "variables, gens",
    [pytest.param(v, g, id=name) for name, v, g in INPUTS if name[:2] == "Q(" or name == "<X,Y>^4"],
)
def test_component_image_ranks_agree_with_sympy(variables, gens):
    """40 evenly spaced searched homs at every positive degree, and every
    critical-degree witness, ranked from sympy's products of the images."""
    A = build_algebra(variables, gens)
    oracle = SympyLocalAlgebra(variables, gens)
    homs = search_homs(A, 12, ("monomial", "dense-random"), budget=300, seed=0)
    assert len(homs) >= 40
    for hom in (homs[k * len(homs) // 40] for k in range(40)):
        ranks = oracle.component_image_ranks(_sympy_images(hom), hom.truncation)
        assert {d: _image_rank(A, hom, d) for d in ranks} == ranks
    for degree, witness in critical_degree_search(A, homs).witnesses.items():
        hom = witness.hom
        assert oracle.component_image_ranks(_sympy_images(hom), hom.truncation)[degree] == (
            witness.rank
        )


@pytest.mark.parametrize(
    "variables, gens", [pytest.param(v, g, id=name) for name, v, g in INPUTS]
)
def test_de_rham_and_obstruction_agree_with_sympy(variables, gens):
    """dim H0_dR and the obstruction's dimension from sympy alone; every
    obstruction row lies in H0_dR and in the nilradical; and in a local
    algebra the obstruction is H0_dR less the constants, because d(1) = 0
    and A = Q*1 + M."""
    A = build_algebra(variables, gens)
    h0_dim, obstruction_dim = SympyLocalAlgebra(variables, gens).de_rham_dims()
    h0, obstruction = h0_de_rham(A), embedding_obstruction(A)
    assert (h0.dim, obstruction.dim) == (h0_dim, obstruction_dim)
    assert obstruction.dim == h0.dim - 1
    for row in obstruction.rows:
        assert h0.contains(row) and nilradical(A).contains(row)
