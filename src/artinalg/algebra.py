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
`truncated.TruncatedHom`).  A map evaluates through one memo of monomial
images and sums the images of a polynomial or an element in one list.

The trace functional tau(a) = trace(multiplication by a) (`_trace_row`)
gives the kernels: the nilradical is the radical of the trace form
(a, b) -> tau(ab), the nilpotents in characteristic zero.  For a local
algebra over Q it is M = ker tau, multiplication by x_i has the one
eigenvalue r_i = tau(x_i) / dim, and the x_i - r_i generate M, so the
socle is the common kernel of multiplication by them.

Structural invariants (nilradical, socle, grading, the dimensions of M,
M^2, ..., and kahler's module and H0_dR) are computed once per algebra by
`_per_algebra`: repeated calls return the same, read-only object.

Coordinates and scalars are read only by `polycore._fraction` (`_fractions`
for a vector), and the degree-d basis only by `ArtinAlgebra.degree_indices`
(the socle, the grading, berger's rank scans and `tau --r`).
"""

from __future__ import annotations

from collections.abc import Sequence
from functools import cached_property, wraps
from fractions import Fraction
from itertools import compress

from . import linalg
from .errors import (
    IncompatibleAlgebrasError,
    InvalidArgumentError,
    NotGradedError,
    NotLocalOverQError,
    RelationViolatedError,
    TrivialAlgebraError,
    VariableMismatchError,
)
from .groebner import buchberger, normal_form, standard_monomials
from .polycore import (
    Monomial, MonomialOrder, Polynomial, _fraction, _reject_operand, _require_integer, _sequence,
    check_variables, parse_polynomial,
)

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
        vectors = _sequence(vectors, "vectors")
        try:
            rows, pivots = linalg.rref(vectors)
        except TypeError:
            # read each vector only here: the invariants pass exact rows,
            # millions of coordinates per structure pass
            rows, pivots = linalg.rref([_fractions(v, "a vector") for v in vectors])
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
        coords = _fractions(vector)
        if len(coords) != self.ambient_dim:
            raise VariableMismatchError("vector has wrong length for subspace")
        return coords

    def basis_elements(self):
        """Rows as AlgebraElements when the owner is an algebra."""
        if self.owner is None:
            raise InvalidArgumentError("subspace has no owning algebra")
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


def _fractions(values, what: str = "coordinates") -> tuple:
    """Rational coordinates, each read by `_fraction`; errors name them as `what`."""
    return tuple(map(_fraction, _sequence(values, what)))


def _foreign(value, kind):
    """The error for a value found outside the space it must lie in:
    IncompatibleAlgebrasError for a `kind` of another space, else InvalidArgumentError."""
    if isinstance(value, kind):
        return IncompatibleAlgebrasError(f"{kind.__name__} of another algebra")
    return InvalidArgumentError(f"expected {kind.__name__}, got {value!r}")


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
        if getattr(other, "space", None) is not self.space:
            if not isinstance(other, CoordinateVector):
                _reject_operand(self, other)
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

    __radd__ = __rsub__ = __mul__ = __rmul__ = _reject_operand

    def scale(self, value):
        c = _fraction(value)
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
        _require_integer(exponent, "the power", 0)
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


class _Record:
    """A result record over the fields its class names in `__slots__`.

    Built by position or keyword; a field left out takes its value from
    `_defaults`, or from calling its `_factories` entry (a fresh mutable
    value per record).  Records of one class are equal when their fields
    are, print as `Name(field=value, ...)`, and copy and pickle.  This is
    all the result types need of `dataclasses`, whose import (with
    `inspect` and `ast`) costs as much as the rest of a bare
    `import artinalg.cli`.
    """

    __slots__ = ()
    _defaults: dict = {}
    _factories: dict = {}

    def __init__(self, *args, **kwargs):
        fields = self.__slots__
        name = type(self).__name__
        if len(args) > len(fields) or not kwargs.keys() <= set(fields[len(args):]):
            raise TypeError(f"{name} takes the fields {', '.join(fields)}, each once")
        values = {**self._defaults, **dict(zip(fields, args)), **kwargs}
        for field in fields:
            if field not in values and field in self._factories:
                values[field] = self._factories[field]()
            if field not in values:
                raise TypeError(f"{name} is missing the field {field!r}")
            object.__setattr__(self, field, values[field])

    def _fields(self) -> tuple:
        return tuple(getattr(self, field) for field in self.__slots__)

    def __eq__(self, other):
        if other.__class__ is not self.__class__:
            return NotImplemented
        return self._fields() == other._fields()

    def __repr__(self):
        fields = ", ".join(f"{field}={getattr(self, field)!r}" for field in self.__slots__)
        return f"{type(self).__qualname__}({fields})"

    def __reduce__(self):
        # copy and pickle rebuild through __init__, which a read-only record allows
        return type(self), self._fields()


class GradingInfo(_Record):
    """Standard-grading data: components and the nilpotency index.

    `components[i]` spans the degree-i part when the algebra is standard
    graded (empty tuple otherwise).  `nilpotency_index` is the least n
    with M^(n+1) = 0 for M the maximal ideal; it is computed from the
    nilradical, so it is meaningful for ungraded local algebras too.
    Read-only and hashable: `grading_info` hands one instance to every
    caller.
    """

    __slots__ = ("is_standard_graded", "components", "nilpotency_index")

    def __setattr__(self, name, value):
        raise AttributeError(f"GradingInfo is read-only: cannot assign {name!r}")

    def __delattr__(self, name):
        raise AttributeError(f"GradingInfo is read-only: cannot delete {name!r}")

    def __hash__(self):
        return hash(self._fields())


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
        self._invariants: dict = {}  # see _per_algebra
        self._zero = AlgebraElement._raw(self, (ZERO,) * self.dim)

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
        return self.from_polynomial(parse_polynomial(text, self.variables))

    def zero(self) -> AlgebraElement:
        """The zero element: one per algebra, as elements are immutable."""
        return self._zero

    def one(self) -> AlgebraElement:
        return self.basis_element(self.basis.index(Monomial((0,) * len(self.variables))))

    def basis_element(self, i: int) -> AlgebraElement:
        """The i-th standard monomial; InvalidArgumentError for an i past the basis."""
        _require_integer(i, "the basis index", 0)
        if i >= self.dim:
            raise InvalidArgumentError(f"basis index {i} past dimension {self.dim}")
        coords = [ZERO] * self.dim
        coords[i] = ONE
        return AlgebraElement._raw(self, tuple(coords))

    def degree_indices(self, degree: int) -> list:
        """The indices of the basis monomials of this degree, in basis order."""
        return [i for i, d in enumerate(self.degrees) if d == degree]

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
        g if isinstance(g, Polynomial) else parse_polynomial(g, variables)
        for g in _sequence(gens, "generators")
    ]
    if not gens:
        gens = [Polynomial.zero(variables)]
    if order is None:
        order = MonomialOrder.grevlex(variables)
    gb = buchberger(gens, order)
    if gb.is_trivial():
        raise TrivialAlgebraError("ideal contains 1; the quotient is the zero ring")
    basis = standard_monomials(gb)
    algebra = ArtinAlgebra(variables, gens, order, gb, basis)
    algebra.products  # built here: every product of a presented quotient reads them
    return algebra


# -- maps -------------------------------------------------------------------


class AlgebraMap:
    """An algebra homomorphism between ArtinAlgebras, fixed by variable images.

    The target may be a truncated ring Q[t]/<t^(N+1)>
    (`truncated.TruncatedPolyAlgebra`).  Every image must lie in the
    target.  With `verify` (the default) construction
    checks that every ideal generator of the source evaluates to zero.
    Monomial images are kept in one memo (see `evaluate_monomial`), and
    `evaluate_polynomial`, `violation` and `apply` sum them in one list.
    """

    __slots__ = ("source", "target", "images", "_monomial_images")

    def __init__(self, source: ArtinAlgebra, target, images, verify: bool = True):
        try:
            if len(images) != len(source.variables):
                raise IncompatibleAlgebrasError("one image per source variable required")
            if not all(img in target for img in images):
                raise IncompatibleAlgebrasError("image lies in the wrong algebra")
        except (AttributeError, TypeError):
            # read the operands only here: a search builds a map per candidate
            for space in (source, target):
                if not isinstance(space, ArtinAlgebra):
                    raise _foreign(space, ArtinAlgebra) from None
            raise InvalidArgumentError(f"images must be a sequence, got {images!r}") from None
        self.source = source
        self.target = target
        self.images = tuple(images)
        self._monomial_images: dict = {}
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

    def evaluate_monomial(self, exps: Sequence[int]):
        """The image of x^exps: strip factors of the last variable with a positive exponent
        down to a memo entry or a variable, then multiply back up, keeping each image."""
        memo = self._monomial_images
        exps, stripped = tuple(exps), []
        if not any(exps):
            return self.target.one()
        while exps not in memo and sum(exps) > 1:
            j = max(j for j, e in enumerate(exps) if e)
            stripped.append(j)
            exps = exps[:j] + (exps[j] - 1,) + exps[j + 1:]
        image = memo[exps] if exps in memo else self.images[exps.index(1)]
        for j in reversed(stripped):
            exps = exps[:j] + (exps[j] + 1,) + exps[j + 1:]
            image = memo[exps] = image * self.images[j]
        return image

    def _combine(self, terms):
        """The sum of c * image(x^exps) over the (exps, c) of `terms`, in one list."""
        out = [ZERO] * self.target.dim
        for exps, c in terms:
            coords = self.evaluate_monomial(exps).coords
            for k in compress(range(len(coords)), coords):
                out[k] += c * coords[k]
        return AlgebraElement._raw(self.target, tuple(out))

    def evaluate_polynomial(self, p: Polynomial):
        return self._combine((mono.exps, c) for mono, c in p.terms.items())

    def basis_image(self, i: int):
        """The image of the i-th standard monomial of the source."""
        return self.evaluate_monomial(self.source.basis[i].exps)

    def apply(self, element: AlgebraElement):
        if getattr(element, "space", None) is not self.source:
            raise _foreign(element, AlgebraElement)
        basis = self.source.basis
        return self._combine((basis[i].exps, c) for i, c in enumerate(element.coords) if c)

    def then(self, other: "AlgebraMap") -> "AlgebraMap":
        """Composite self followed by other, of the same class as other."""
        if getattr(other, "source", None) is not self.target:
            if not isinstance(other, AlgebraMap):
                raise _foreign(other, AlgebraMap)
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


def _per_algebra(fn):
    """Computed once per algebra: fn(algebra) is kept in the algebra's
    `_invariants`, and later calls return that same object.  Anything but
    an ArtinAlgebra is an InvalidArgumentError."""

    @wraps(fn)
    def once(algebra):
        if not isinstance(algebra, ArtinAlgebra):
            raise _foreign(algebra, ArtinAlgebra)
        memo = algebra._invariants
        if fn not in memo:
            memo[fn] = fn(algebra)
        return memo[fn]

    return once


def _kernel_subspace(algebra: ArtinAlgebra, rows) -> Subspace:
    """The subspace of the algebra on which every row vanishes: {a : rows a = 0}."""
    return Subspace.from_vectors(linalg.kernel_basis(rows, algebra.dim), algebra.dim, owner=algebra)


def _trace_row(algebra: ArtinAlgebra) -> list:
    """The trace functional: tau(basis[l]) = trace(multiplication by basis[l])."""
    products = algebra.products
    return [
        sum((c for j, pairs in enumerate(row) for k, c in pairs if k == j), ZERO)
        for row in products
    ]


@_per_algebra
def nilradical(algebra: ArtinAlgebra) -> Subspace:
    """The nilpotent elements: the radical of the trace form, whose Gram
    matrix has the entries tau(basis[i] * basis[j])."""
    products, tau = algebra.products, _trace_row(algebra)
    gram = [[sum((c * tau[k] for k, c in pairs), ZERO) for pairs in row] for row in products]
    return _kernel_subspace(algebra, gram)


def is_local_over_q(algebra: ArtinAlgebra) -> bool:
    """Local with residue field Q, i.e. the nilradical has codimension 1."""
    return nilradical(algebra).dim == algebra.dim - 1


def _require_local(algebra: ArtinAlgebra, message: str) -> Subspace:
    """The nilradical; NotLocalOverQError with the message when not local over Q."""
    if not is_local_over_q(algebra):
        raise NotLocalOverQError(message)
    return nilradical(algebra)


def _require_graded(algebra: ArtinAlgebra, message: str) -> GradingInfo:
    """The grading data; NotGradedError with the message when not standard graded."""
    info = grading_info(algebra)
    if not info.is_standard_graded:
        raise NotGradedError(message)
    return info


def maximal_ideal(algebra: ArtinAlgebra) -> Subspace:
    return _require_local(algebra, "operation needs a local algebra with rational residue field")


@_per_algebra
def _power_dims(algebra: ArtinAlgebra) -> tuple:
    """The dimensions of M, M^2, ... for M the nilradical, nonzero powers
    only; M^(k+1) is the span of the products of the rows of M^k and M."""
    m = power = nilradical(algebra)
    dims = []
    while not power.is_zero():
        dims.append(power.dim)
        power = Subspace.from_vectors(
            [algebra.multiply_coords(u, v) for u in power.rows for v in m.rows], algebra.dim
        )
    return tuple(dims)


def nilpotency_index(algebra: ArtinAlgebra) -> int:
    """Least n with M^(n+1) = 0, for M the nilradical."""
    return len(_power_dims(algebra))


@_per_algebra
def socle(algebra: ArtinAlgebra) -> Subspace:
    """Annihilator of the maximal ideal: the common kernel of multiplication
    by the x_i - r_i (module docstring).  Only the variables that are standard
    monomials are read: they generate the algebra and need no normal form."""
    maximal_ideal(algebra)
    tau, one = _trace_row(algebra), algebra.one()
    rows = []
    for i in algebra.degree_indices(1):
        generator = algebra.basis_element(i) - one.scale(tau[i] / algebra.dim)
        columns = [(generator * algebra.basis_element(j)).coords for j in range(algebra.dim)]
        rows.extend(zip(*columns))
    return _kernel_subspace(algebra, rows)


def is_gorenstein(algebra: ArtinAlgebra) -> bool:
    return socle(algebra).dim == 1


def embedding_dimension(algebra: ArtinAlgebra) -> int:
    """dim M/M^2 for the maximal ideal M."""
    maximal_ideal(algebra)
    dims = _power_dims(algebra) + (0, 0)
    return dims[0] - dims[1]


def is_principal_ideal_algebra(algebra: ArtinAlgebra) -> bool:
    return embedding_dimension(algebra) <= 1


@_per_algebra
def grading_info(algebra: ArtinAlgebra) -> GradingInfo:
    """Detect the standard grading (all Groebner generators homogeneous)."""
    graded = all(p.is_homogeneous() for p in algebra.gb.polys)
    components: tuple = ()
    if graded:
        components = tuple(
            Subspace.from_vectors(
                [algebra.basis_element(i).coords for i in algebra.degree_indices(d)],
                algebra.dim,
                owner=algebra,
            )
            for d in range(max(algebra.degrees) + 1)
        )
    return GradingInfo(graded, components, nilpotency_index(algebra))


def graded_component_span(algebra: ArtinAlgebra, degree: int) -> Subspace:
    info = _require_graded(algebra, "algebra is not standard graded")
    _require_integer(degree, "degree", 0)
    if degree >= len(info.components):
        return Subspace(algebra, algebra.dim, [], [])
    return info.components[degree]


def euler_derivation(algebra: ArtinAlgebra, element: AlgebraElement) -> AlgebraElement:
    """D(a) = sum over degrees d of d * (degree-d component of a)."""
    _require_graded(algebra, "Euler derivation needs a standard graded algebra")
    if getattr(element, "space", None) is not algebra:
        raise _foreign(element, AlgebraElement)
    coords = [c * deg for c, deg in zip(element.coords, algebra.degrees)]
    return AlgebraElement(algebra, coords)


def reduced_quotient(algebra: ArtinAlgebra):
    """The reduced quotient A/nilradical with its surjection."""
    return quotient_algebra(algebra, nilradical(algebra).basis_elements())


def quotient_algebra(algebra: ArtinAlgebra, extra_gens):
    """Quotient by extra elements, with the induced surjection.

    Accepts AlgebraElements, Polynomials or strings; re-runs Buchberger
    on the enlarged generating set.
    """
    if not isinstance(algebra, ArtinAlgebra):
        raise _foreign(algebra, ArtinAlgebra)
    polys = []
    for g in _sequence(extra_gens, "the extra generators"):
        if isinstance(g, AlgebraElement):
            if g.algebra is not algebra:
                raise IncompatibleAlgebrasError("extra generator from another algebra")
            polys.append(g.to_polynomial())
        elif isinstance(g, Polynomial):
            polys.append(g)
        else:
            polys.append(parse_polynomial(g, algebra.variables))
    quotient = build_algebra(
        algebra.variables, list(algebra.gens) + polys, algebra.order
    )
    images = [quotient.variable_element(v) for v in algebra.variables]
    surjection = AlgebraMap(algebra, quotient, images, verify=False)
    return quotient, surjection
