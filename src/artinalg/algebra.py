"""Finite-dimensional quotient algebras as concrete linear algebra.

An `ArtinAlgebra` is Q[X1..Xm]/I presented by a reduced Groebner basis:
its vector-space basis is the standard monomials and multiplication is
the sparse structure constants `products` (the nonzero (k, c) of each
basis[i]*basis[j]), built with every algebra from `build_algebra`; every
product reads them, and `mult_table` is their dense view.  Only the
truncated rings Q[t]/<t^(N+1)> (`truncated.TruncatedPolyAlgebra`) multiply
their own way, by convolution, and derive `products` only if read.

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
from itertools import compress
from typing import Sequence

from . import linalg
from .errors import (
    IncompatibleAlgebrasError,
    InvalidArgumentError,
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
        return linalg.in_span(self._coords_of(vector), self.rows, self.pivots)

    def reduce(self, vector):
        return linalg.reduce_vector(self._coords_of(vector), self.rows, self.pivots)

    def _coords_of(self, vector):
        """The coordinates of an element of the owner, or of a plain vector
        of the ambient length."""
        if isinstance(vector, AlgebraElement):
            if vector.algebra is not self.owner:
                raise IncompatibleAlgebrasError("element of an algebra other than the subspace's")
            return vector.coords
        coords = tuple(Fraction(c) for c in vector)
        if len(coords) != self.ambient_dim:
            raise VariableMismatchError("vector has wrong length for subspace")
        return coords

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


def _fraction(value) -> Fraction:
    """A rational coordinate; InvalidArgumentError naming a value that is none."""
    try:
        return Fraction(value)
    except (TypeError, ValueError, ZeroDivisionError):
        raise InvalidArgumentError(f"cannot read the coordinate {value!r}") from None


def _fractions(values) -> tuple:
    """Rational coordinates; InvalidArgumentError naming an unreadable one."""
    try:
        values = tuple(values)
    except TypeError:
        raise InvalidArgumentError(f"cannot read the coordinates {values!r}") from None
    try:
        return tuple(map(Fraction, values))
    except (TypeError, ValueError, ZeroDivisionError):
        return tuple(map(_fraction, values))


class CoordinateVector:
    """A vector of a finite-dimensional space over Q, by its coordinates.

    The one vector arithmetic of `AlgebraElement` (the space is an
    algebra) and `kahler.DifferentialForm` (the space is a Kaehler
    module): sums, differences, negatives and rational multiples of
    vectors of one space, equality and hashing.  A subclass names the
    space under its own attribute.  The arithmetic does no Fraction work
    on a zero coordinate.
    """

    __slots__ = ("space", "coords")

    #: the error a coordinate vector of the wrong length raises
    _length_error = VariableMismatchError

    def __init__(self, space, coords):
        coords = _fractions(coords)
        if len(coords) != space.dim:
            raise self._length_error("coordinate vector has wrong length")
        self.space = space
        self.coords = coords

    @classmethod
    def _raw(cls, space, coords: tuple):
        """Internal constructor; coords must already be a Fraction tuple of length dim."""
        self = object.__new__(cls)
        self.space = space
        self.coords = coords
        return self

    def _check(self, other: "CoordinateVector"):
        if self.space is not other.space:
            raise IncompatibleAlgebrasError(
                f"{type(self).__name__} and {type(other).__name__} of different spaces"
            )

    def __add__(self, other):
        self._check(other)
        return self._raw(
            self.space, tuple(a + b if b else a for a, b in zip(self.coords, other.coords))
        )

    def __sub__(self, other):
        self._check(other)
        return self._raw(
            self.space, tuple(a - b if b else a for a, b in zip(self.coords, other.coords))
        )

    def __neg__(self):
        return self._raw(self.space, tuple(-a for a in self.coords))

    def scale(self, value):
        c = Fraction(value)
        return self._raw(self.space, tuple(c * a if a else ZERO for a in self.coords))

    def is_zero(self) -> bool:
        return not any(self.coords)

    def __eq__(self, other):
        return (
            isinstance(other, CoordinateVector)
            and self.space is other.space
            and self.coords == other.coords
        )

    def __hash__(self):
        return hash((id(self.space), self.coords))


class AlgebraElement(CoordinateVector):
    """An element of an ArtinAlgebra in standard-monomial coordinates."""

    __slots__ = ()

    #: the `space` slot, under its name for elements
    algebra = CoordinateVector.space

    def __mul__(self, other):
        self._check(other)
        return AlgebraElement._raw(
            self.algebra, tuple(self.algebra.multiply_coords(self.coords, other.coords))
        )

    def __pow__(self, exponent: int):
        """Square-and-multiply."""
        if exponent < 0:
            raise InvalidArgumentError(f"negative power {exponent} in an Artinian algebra")
        result = self.algebra.one()
        base = self
        while exponent:
            if exponent & 1:
                result = result * base
            exponent >>= 1
            if exponent:
                base = base * base
        return result

    def to_polynomial(self) -> Polynomial:
        terms = {
            mono: c
            for mono, c in zip(self.algebra.basis, self.coords)
            if c
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
        """The nonzero (k, c) of the normal form of a monomial, in increasing k; cached."""
        cached = self._nf_cache.get(mono)
        if cached is None:
            if mono in self.basis:
                cached = ((self.basis.index(mono), ONE),)
            else:
                p = normal_form(Polynomial.from_monomial(self.variables, mono), self.gb)
                cached = tuple(sorted((self.basis.index(m), c) for m, c in p.terms.items()))
            self._nf_cache[mono] = cached
        return cached

    @cached_property
    def products(self):
        """Sparse structure constants: products[i][j] holds the nonzero
        (k, c) of basis[i]*basis[j], in increasing k; derived on first read."""
        table = []
        for i, bi in enumerate(self.basis):
            row = [table[j][i] for j in range(i)]
            row += [self._nf_coords(bi * self.basis[j]) for j in range(i, self.dim)]
            table.append(row)
        return tuple(map(tuple, table))

    @property
    def mult_table(self):
        """Dense view of `products`: the coordinates of basis[i] * basis[j]."""

        def dense(pairs):
            coords = [ZERO] * self.dim
            for k, c in pairs:
                coords[k] = c
            return tuple(coords)

        return tuple(tuple(map(dense, row)) for row in self.products)

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
        products = self.products
        b_terms = [(j, b[j]) for j in compress(range(self.dim), b)]
        for i in compress(range(self.dim), a):
            ai, row = a[i], products[i]
            for j, bj in b_terms:
                f = ai * bj
                for k, c in row[j]:
                    out[k] += f * c
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
    algebra.products  # built here: every product of a presented quotient reads them
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
            image = self.evaluate_monomial(mono.exps)
            if not image.is_zero():
                total = total + image.scale(c)
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
            if c:
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
    products = algebra.products
    # trace of multiplication by basis element l
    traces = [
        sum((c for j in range(dim) for k, c in products[l][j] if k == j), ZERO)
        for l in range(dim)
    ]
    gram = [
        [sum((c * traces[k] for k, c in products[i][j]), ZERO) for j in range(dim)]
        for i in range(dim)
    ]
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
    dim = algebra.dim
    # factors with int zeros, which test faster than Fraction zeros
    units = [[int(k == j) for k in range(dim)] for j in range(dim)]
    rows = []
    for mrow in m.rows:
        mrow = [c if c else 0 for c in mrow]
        # matrix of v -> m*v: its columns are the products m * basis[j]
        columns = [algebra.multiply_coords(mrow, unit) for unit in units]
        rows.extend(zip(*columns))
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
