"""Finite-dimensional quotient algebras as concrete linear algebra.

An `ArtinAlgebra` is Q[X1..Xm]/I presented by a reduced Groebner basis:
its vector-space basis is the standard monomials and multiplication is a
table of normal-form coordinates, built with every algebra from
`build_algebra`.  Everything downstream (socle, nilradical, gradings,
differentials, homomorphism searches) is exact linear algebra over that
multiplication.  A subclass may multiply coordinates its own way: the
truncated rings Q[t]/<t^(N+1)> (`truncated.TruncatedPolyAlgebra`) convolve
and derive the table only if a structural function reads it.

`AlgebraMap` is the one homomorphism type, with the only verification,
evaluation and composition code.  Its target is an ArtinAlgebra: a
quotient (surjections) or Q[t]/<t^(N+1)> (the subclass
`truncated.TruncatedHom`).

The nilradical is computed as the radical of the trace bilinear form
(a, b) -> trace(multiplication by ab), which equals the set of nilpotents
in characteristic zero; being a single kernel computation it is easy to
cross-check against brute-force nilpotency.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property
from fractions import Fraction
from typing import Sequence

from . import linalg
from .errors import (
    IncompatibleAlgebrasError,
    NotGradedError,
    NotLocalOverQError,
    NotZeroDimensionalError,
    RelationViolatedError,
    TrivialAlgebraError,
    VariableMismatchError,
)
from .groebner import GroebnerBasis, buchberger, normal_form, standard_monomials
from .polycore import Monomial, MonomialOrder, Polynomial, check_variables

ZERO = Fraction(0)
ONE = Fraction(1)


class Subspace:
    """A subspace of a coordinate space, stored as RREF rows."""

    __slots__ = ("owner", "ambient_dim", "rows", "pivots")

    def __init__(self, owner, ambient_dim: int, rows, pivots):
        self.owner = owner
        self.ambient_dim = ambient_dim
        self.rows = tuple(tuple(r) for r in rows)
        self.pivots = tuple(pivots)

    @classmethod
    def from_vectors(cls, vectors, ambient_dim: int, owner=None) -> "Subspace":
        rows, pivots = linalg.rref(list(vectors))
        return cls(owner, ambient_dim, rows, pivots)

    @property
    def dim(self) -> int:
        return len(self.rows)

    def is_zero(self) -> bool:
        return not self.rows

    def contains(self, vector) -> bool:
        coords = _coords_of(vector)
        if len(coords) != self.ambient_dim:
            raise VariableMismatchError("vector has wrong length for subspace")
        return linalg.in_span(coords, self.rows, self.pivots)

    def reduce(self, vector):
        return linalg.reduce_vector(_coords_of(vector), self.rows, self.pivots)

    def intersect(self, other: "Subspace") -> "Subspace":
        if self.ambient_dim != other.ambient_dim:
            raise VariableMismatchError("subspaces of different ambient spaces")
        rows, pivots = linalg.intersect_rowspaces(self.rows, other.rows, self.ambient_dim)
        return Subspace(self.owner, self.ambient_dim, rows, pivots)

    def basis_elements(self):
        """Rows as AlgebraElements when the owner is an algebra."""
        if self.owner is None:
            raise ValueError("subspace has no owning algebra")
        return [AlgebraElement(self.owner, row) for row in self.rows]

    def __eq__(self, other) -> bool:
        return (
            isinstance(other, Subspace)
            and self.ambient_dim == other.ambient_dim
            and self.rows == other.rows
        )

    def __hash__(self):
        return hash((self.ambient_dim, self.rows))

    def __repr__(self):
        return f"<Subspace dim {self.dim} of ambient {self.ambient_dim}>"


def _coords_of(vector):
    if isinstance(vector, AlgebraElement):
        return vector.coords
    return tuple(Fraction(c) for c in vector)


class AlgebraElement:
    """An element of an ArtinAlgebra in standard-monomial coordinates."""

    __slots__ = ("algebra", "coords")

    def __init__(self, algebra: "ArtinAlgebra", coords):
        coords = tuple(Fraction(c) for c in coords)
        if len(coords) != algebra.dim:
            raise VariableMismatchError("coordinate vector has wrong length")
        self.algebra = algebra
        self.coords = coords

    @classmethod
    def _raw(cls, algebra: "ArtinAlgebra", coords: tuple) -> "AlgebraElement":
        """Internal constructor; coords must already be a Fraction tuple of length dim."""
        self = object.__new__(cls)
        self.algebra = algebra
        self.coords = coords
        return self

    def _check(self, other: "AlgebraElement"):
        if self.algebra is not other.algebra:
            raise IncompatibleAlgebrasError("elements of different algebras")

    def __add__(self, other):
        self._check(other)
        return AlgebraElement._raw(
            self.algebra, tuple(a + b for a, b in zip(self.coords, other.coords))
        )

    def __sub__(self, other):
        self._check(other)
        return AlgebraElement._raw(
            self.algebra, tuple(a - b for a, b in zip(self.coords, other.coords))
        )

    def __neg__(self):
        return AlgebraElement._raw(self.algebra, tuple(-a for a in self.coords))

    def scale(self, value):
        c = Fraction(value)
        return AlgebraElement._raw(self.algebra, tuple(c * a for a in self.coords))

    def __mul__(self, other):
        self._check(other)
        return AlgebraElement._raw(
            self.algebra, tuple(self.algebra.multiply_coords(self.coords, other.coords))
        )

    def __pow__(self, exponent: int):
        """Square-and-multiply."""
        if exponent < 0:
            raise ValueError("negative power in an Artinian algebra")
        result = self.algebra.one()
        base = self
        while exponent:
            if exponent & 1:
                result = result * base
            exponent >>= 1
            if exponent:
                base = base * base
        return result

    def is_zero(self) -> bool:
        return not any(self.coords)

    def __eq__(self, other):
        return (
            isinstance(other, AlgebraElement)
            and self.algebra is other.algebra
            and self.coords == other.coords
        )

    def __hash__(self):
        return hash((id(self.algebra), self.coords))

    def to_polynomial(self) -> Polynomial:
        terms = {
            mono: c
            for mono, c in zip(self.algebra.basis, self.coords)
            if c != 0
        }
        return Polynomial(self.algebra.variables, terms)

    def __repr__(self):
        return f"<{self.to_polynomial().to_string(self.algebra.order)}>"


@dataclass(frozen=True)
class GradingInfo:
    """Standard-grading data: components and the nilpotency index.

    `components[i]` spans the degree-i part when the algebra is standard
    graded (empty tuple otherwise).  `nilpotency_index` is the least n
    with M^(n+1) = 0 for M the maximal ideal; it is computed from the
    nilradical, so it is meaningful for ungraded local algebras too.
    """

    is_standard_graded: bool
    components: tuple
    nilpotency_index: int


class ArtinAlgebra:
    """A zero-dimensional quotient with basis and multiplication table."""

    def __init__(self, variables, gens, order, gb, basis):
        self.variables = tuple(variables)
        self.gens = tuple(gens)
        self.order = order
        self.gb = gb
        self.basis = basis
        self.dim = len(basis)
        self.degrees = tuple(m.degree for m in basis)
        self._nf_cache: dict = {}
        self._nilradical = None
        self._grading = None
        self._kahler = None

    # -- construction ------------------------------------------------------

    def _nf_coords(self, mono: Monomial):
        cached = self._nf_cache.get(mono)
        if cached is not None:
            return cached
        if mono in self.basis:
            coords = [ZERO] * self.dim
            coords[self.basis.index(mono)] = ONE
            coords = tuple(coords)
        else:
            p = normal_form(Polynomial.from_monomial(self.variables, mono), self.gb)
            coords = self.coords_of_polynomial(p)
        self._nf_cache[mono] = coords
        return coords

    @cached_property
    def mult_table(self):
        """Coordinates of basis[i] * basis[j], derived on first read."""
        table = []
        for i in range(self.dim):
            row = []
            for j in range(self.dim):
                if j < i:
                    row.append(table[j][i])
                else:
                    row.append(self._nf_coords(self.basis[i] * self.basis[j]))
            table.append(row)
        return tuple(tuple(r) for r in table)

    # -- element helpers ------------------------------------------------------

    def coords_of_polynomial(self, p: Polynomial):
        """Coordinates of a polynomial already supported on the basis."""
        coords = [ZERO] * self.dim
        for mono, c in p.terms.items():
            coords[self.basis.index(mono)] = c
        return tuple(coords)

    def from_polynomial(self, p: Polynomial) -> AlgebraElement:
        if p.variables != self.variables:
            raise VariableMismatchError(
                f"polynomial over {p.variables}, algebra over {self.variables}"
            )
        return AlgebraElement(self, self.coords_of_polynomial(normal_form(p, self.gb)))

    def from_string(self, text: str) -> AlgebraElement:
        from .polycore import parse_polynomial

        return self.from_polynomial(parse_polynomial(text, self.variables))

    def zero(self) -> AlgebraElement:
        return AlgebraElement._raw(self, (ZERO,) * self.dim)

    def one(self) -> AlgebraElement:
        return self.basis_element(self.basis.index(Monomial((0,) * len(self.variables))))

    def basis_element(self, i: int) -> AlgebraElement:
        coords = [ZERO] * self.dim
        coords[i] = ONE
        return AlgebraElement._raw(self, tuple(coords))

    def variable_element(self, name: str) -> AlgebraElement:
        return self.from_polynomial(Polynomial.variable(self.variables, name))

    def multiply_coords(self, a, b):
        """Coordinates of the product of two coordinate vectors."""
        out = [ZERO] * self.dim
        table = self.mult_table
        for i, ai in enumerate(a):
            if ai == 0:
                continue
            row = table[i]
            for j, bj in enumerate(b):
                if bj == 0:
                    continue
                f = ai * bj
                for k, t in enumerate(row[j]):
                    if t != 0:
                        out[k] += f * t
        return out

    def __contains__(self, element) -> bool:
        return isinstance(element, AlgebraElement) and element.algebra is self

    def full_space(self) -> Subspace:
        rows = []
        for i in range(self.dim):
            row = [ZERO] * self.dim
            row[i] = ONE
            rows.append(row)
        return Subspace(self, self.dim, rows, list(range(self.dim)))

    def __repr__(self):
        return f"<ArtinAlgebra dim {self.dim} over {self.variables}>"


def build_algebra(variables, gens, order: MonomialOrder | None = None) -> ArtinAlgebra:
    """Quotient by a zero-dimensional ideal, as a concrete algebra.

    Raises InvalidArgumentError for a duplicate variable or one that is
    not a name, NotZeroDimensionalError for infinite quotients and
    TrivialAlgebraError when the ideal contains 1.
    """
    variables = check_variables(variables)
    gens = [
        g if isinstance(g, Polynomial) else _parse(variables, g)
        for g in gens
    ]
    if not gens:
        gens = [Polynomial.zero(variables)]
    if order is None:
        order = MonomialOrder.grevlex(variables)
    gb = buchberger(gens, order)
    if gb.is_trivial():
        raise TrivialAlgebraError("ideal contains 1; the quotient is the zero ring")
    basis = standard_monomials(gb)
    if len(basis) == 0:
        raise TrivialAlgebraError("quotient algebra is zero")
    algebra = ArtinAlgebra(variables, gens, order, gb, basis)
    algebra.mult_table  # built here: every product of a presented quotient reads it
    return algebra


def _parse(variables, text):
    from .polycore import parse_polynomial

    return parse_polynomial(text, variables)


# -- maps -------------------------------------------------------------------


class AlgebraMap:
    """An algebra homomorphism between ArtinAlgebras, fixed by variable images.

    The target may be a truncated ring Q[t]/<t^(N+1)>
    (`truncated.TruncatedPolyAlgebra`).  Every image must lie in the
    target.  With `verify` (the default) construction
    checks that every ideal generator of the source evaluates to zero.
    Image powers and basis images are computed once, on first use.
    """

    __slots__ = ("source", "target", "images", "_basis_images", "_power_cache")

    def __init__(self, source: ArtinAlgebra, target, images, verify: bool = True):
        if len(images) != len(source.variables):
            raise IncompatibleAlgebrasError("one image per source variable required")
        if not all(img in target for img in images):
            raise IncompatibleAlgebrasError("image lies in the wrong algebra")
        self.source = source
        self.target = target
        self.images = tuple(images)
        self._basis_images = None
        self._power_cache: dict = {}
        if verify:
            violation = self.violation()
            if violation is not None:
                g, residual = violation
                raise RelationViolatedError(g.to_string(source.order), residual)

    def violation(self):
        """The first source generator not sent to zero, with its image, or None.

        Raises nothing, so a search rejects candidates without building errors.
        """
        for g in self.source.gens:
            residual = self.evaluate_polynomial(g)
            if not residual.is_zero():
                return g, residual
        return None

    def _image_power(self, var_index: int, exponent: int):
        key = (var_index, exponent)
        cached = self._power_cache.get(key)
        if cached is None:
            cached = self.images[var_index] ** exponent
            self._power_cache[key] = cached
        return cached

    def evaluate_monomial(self, exps: Sequence[int]):
        term = None
        for i, e in enumerate(exps):
            if e:
                power = self._image_power(i, e)
                term = power if term is None else term * power
        return self.target.one() if term is None else term

    def evaluate_polynomial(self, p: Polynomial):
        total = self.target.zero()
        for mono, c in p.terms.items():
            total = total + self.evaluate_monomial(mono.exps).scale(c)
        return total

    def basis_image(self, i: int):
        """The image of the i-th standard monomial of the source."""
        if self._basis_images is None:
            self._basis_images = [None] * self.source.dim
        cached = self._basis_images[i]
        if cached is None:
            cached = self.evaluate_monomial(self.source.basis[i].exps)
            self._basis_images[i] = cached
        return cached

    def apply(self, element: AlgebraElement):
        if element.algebra is not self.source:
            raise IncompatibleAlgebrasError("element not in the source algebra")
        total = self.target.zero()
        for i, c in enumerate(element.coords):
            if c != 0:
                total = total + self.basis_image(i).scale(c)
        return total

    def then(self, other: "AlgebraMap") -> "AlgebraMap":
        """Composite self followed by other, of the same class as other."""
        if other.source is not self.target:
            raise IncompatibleAlgebrasError("maps do not compose")
        return type(other)(
            self.source,
            other.target,
            [other.apply(img) for img in self.images],
            verify=False,
        )

    @classmethod
    def identity(cls, algebra: ArtinAlgebra) -> "AlgebraMap":
        return cls(
            algebra,
            algebra,
            [algebra.variable_element(v) for v in algebra.variables],
            verify=False,
        )

    def __repr__(self):
        pieces = ", ".join(f"{v} -> {img!r}" for v, img in zip(self.source.variables, self.images))
        return f"<{type(self).__name__} {pieces}>"


# -- structural operations -------------------------------------------------


def nilradical(algebra: ArtinAlgebra) -> Subspace:
    """The nilpotent elements, via the radical of the trace form."""
    if algebra._nilradical is not None:
        return algebra._nilradical
    dim = algebra.dim
    table = algebra.mult_table
    # trace of multiplication by basis element l
    traces = [
        sum((table[l][j][j] for j in range(dim)), ZERO) for l in range(dim)
    ]
    gram = []
    for i in range(dim):
        row = []
        for j in range(dim):
            row.append(sum((t * traces[l] for l, t in enumerate(table[i][j]) if t != 0), ZERO))
        gram.append(row)
    kernel = linalg.kernel_basis(gram, dim)
    space = Subspace.from_vectors(kernel, dim, owner=algebra)
    algebra._nilradical = space
    return space


def is_local_over_q(algebra: ArtinAlgebra) -> bool:
    """Local with residue field Q, i.e. the nilradical has codimension 1."""
    return nilradical(algebra).dim == algebra.dim - 1


def _require_local(algebra: ArtinAlgebra):
    if not is_local_over_q(algebra):
        raise NotLocalOverQError(
            "operation needs a local algebra with rational residue field"
        )


def maximal_ideal(algebra: ArtinAlgebra) -> Subspace:
    _require_local(algebra)
    return nilradical(algebra)


def subspace_product(algebra: ArtinAlgebra, left: Subspace, right: Subspace) -> Subspace:
    products = []
    for u in left.rows:
        for v in right.rows:
            products.append(algebra.multiply_coords(u, v))
    return Subspace.from_vectors(products, algebra.dim, owner=algebra)


def nilpotency_index(algebra: ArtinAlgebra) -> int:
    """Least n with M^(n+1) = 0, for M the nilradical."""
    m = nilradical(algebra)
    if m.is_zero():
        return 0
    power = m
    n = 1
    while True:
        nxt = subspace_product(algebra, power, m)
        if nxt.is_zero():
            return n
        power = nxt
        n += 1


def socle(algebra: ArtinAlgebra) -> Subspace:
    """Annihilator of the maximal ideal, as a linear system."""
    m = maximal_ideal(algebra)
    if m.is_zero():
        return algebra.full_space()
    rows = []
    dim = algebra.dim
    table = algebra.mult_table
    for mrow in m.rows:
        # matrix of v -> m*v, stacked row by row over output coordinates
        mat = [[ZERO] * dim for _ in range(dim)]
        for i, mi in enumerate(mrow):
            if mi == 0:
                continue
            for j in range(dim):
                for k, t in enumerate(table[i][j]):
                    if t != 0:
                        mat[k][j] += mi * t
        rows.extend(mat)
    kernel = linalg.kernel_basis(rows, dim)
    return Subspace.from_vectors(kernel, dim, owner=algebra)


def is_gorenstein(algebra: ArtinAlgebra) -> bool:
    return socle(algebra).dim == 1


def embedding_dimension(algebra: ArtinAlgebra) -> int:
    """dim M/M^2 for the maximal ideal M."""
    m = maximal_ideal(algebra)
    if m.is_zero():
        return 0
    m2 = subspace_product(algebra, m, m)
    return m.dim - m2.dim


def is_principal_ideal_algebra(algebra: ArtinAlgebra) -> bool:
    return embedding_dimension(algebra) <= 1


def grading_info(algebra: ArtinAlgebra) -> GradingInfo:
    """Detect the standard grading (all Groebner generators homogeneous)."""
    if algebra._grading is not None:
        return algebra._grading
    graded = all(p.is_homogeneous() for p in algebra.gb.polys)
    components: tuple = ()
    if graded:
        top = max(algebra.degrees) if algebra.dim else 0
        comps = []
        for d in range(top + 1):
            vectors = []
            for i, deg in enumerate(algebra.degrees):
                if deg == d:
                    row = [ZERO] * algebra.dim
                    row[i] = ONE
                    vectors.append(row)
            comps.append(Subspace.from_vectors(vectors, algebra.dim, owner=algebra))
        components = tuple(comps)
    info = GradingInfo(graded, components, nilpotency_index(algebra))
    algebra._grading = info
    return info


def graded_component_span(algebra: ArtinAlgebra, degree: int) -> Subspace:
    info = grading_info(algebra)
    if not info.is_standard_graded:
        raise NotGradedError("algebra is not standard graded")
    if degree >= len(info.components):
        return Subspace(algebra, algebra.dim, [], [])
    return info.components[degree]


def euler_derivation(algebra: ArtinAlgebra, element: AlgebraElement) -> AlgebraElement:
    """D(a) = sum over degrees d of d * (degree-d component of a)."""
    info = grading_info(algebra)
    if not info.is_standard_graded:
        raise NotGradedError("Euler derivation needs a standard graded algebra")
    coords = [c * deg for c, deg in zip(element.coords, algebra.degrees)]
    return AlgebraElement(algebra, coords)


def reduced_quotient(algebra: ArtinAlgebra):
    """The reduced quotient A/nilradical with its surjection."""
    nil = nilradical(algebra)
    extra = [AlgebraElement(algebra, row).to_polynomial() for row in nil.rows]
    return quotient_algebra(algebra, extra)


def quotient_algebra(algebra: ArtinAlgebra, extra_gens):
    """Quotient by extra elements, with the induced surjection.

    Accepts AlgebraElements, Polynomials or strings; re-runs Buchberger
    on the enlarged generating set.
    """
    polys = []
    for g in extra_gens:
        if isinstance(g, AlgebraElement):
            if g.algebra is not algebra:
                raise IncompatibleAlgebrasError("extra generator from another algebra")
            polys.append(g.to_polynomial())
        elif isinstance(g, Polynomial):
            polys.append(g)
        else:
            polys.append(_parse(algebra.variables, g))
    quotient = build_algebra(
        algebra.variables, list(algebra.gens) + polys, algebra.order
    )
    images = [quotient.variable_element(v) for v in algebra.variables]
    surjection = AlgebraMap(algebra, quotient, images, verify=False)
    return quotient, surjection
