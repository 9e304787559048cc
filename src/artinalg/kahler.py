"""Kaehler differentials of a quotient algebra as an explicit vector space.

For A = Q[X1..Xm]/I with standard-monomial basis b_1..b_d, the module of
differentials is presented on the ambient space spanned by the b_i dX_j
(dimension m*d) modulo the subspace generated by the vectors

    b * sum_j (dg/dX_j) dX_j        (g a Groebner generator, b a basis monomial)

Those generators span I*Omega + dI expressed in coordinates, which is why
the quotient does not depend on the chosen generating set of I; the test
suite checks that dimension agreement empirically.  Reduction against the
RREF of the relation span gives canonical representatives, and a form is
stored by its coordinates on the non-pivot slots: a `DifferentialForm` is
an `algebra.CoordinateVector`, with the same arithmetic as an element.

Standard monomials are closed under division, so the partial derivatives
of an element lie on the basis already, and so do those of a reduced
basis polynomial (its tail is standard, its leading monomial a minimal
generator of the leading-term ideal): neither `partials` nor the
relations need a normal form.

A truncated ring Q[t]/<t^(N+1)> is an ArtinAlgebra like any other, so
its module is built the same way: d(t^(N+1)) = 0 forces t^N dt = 0
(characteristic zero), and the quotient coordinates are the coefficients
of dt, t dt, ..., t^(N-1) dt.  `pushforward` has one formula per target.
Into such a ring, sum_j h(a_j) * h(X_j)' dt has those coefficients
directly, with h(X_j)' = sum_k k g_k t^(k-1) read from the coordinates
g_k of the image, and nothing to reduce.  Into any other algebra it sums
h(a_j) * d(h(X_j)) in the target's ambient coordinates (`_times` of
`partials`) and reduces once, which gives the same class because the
relations span a submodule.  The blocks a_j of a form are read once per
form (`KahlerModule._blocks`), not once per hom.

H0_dR is the kernel of the matrix of d (`_d_matrix`, one per algebra), and
the embedding obstruction H0_dR ∩ nilradical the kernel of that matrix
stacked on the one row of the trace functional (`algebra._trace_row`),
whose kernel is the maximal ideal of a local algebra over Q.
"""

from __future__ import annotations

from . import linalg
from .algebra import (
    AlgebraElement,
    AlgebraMap,
    ArtinAlgebra,
    CoordinateVector,
    Subspace,
    _foreign,
    _kernel_subspace,
    _per_algebra,
    _require_local,
    _trace_row,
)
from .errors import IncompatibleAlgebrasError
from .polycore import ZERO, Monomial, Polynomial
from .truncated import TruncatedPolyAlgebra


class DifferentialForm(CoordinateVector):
    """A form in quotient coordinates of a KahlerModule."""

    __slots__ = ()

    _length_error = IncompatibleAlgebrasError
    #: the `space` slot, under its name for forms
    module = CoordinateVector.space

    def __repr__(self):
        return f"<DifferentialForm {self.describe()}>"

    def describe(self) -> str:
        A = self.module.algebra
        pieces = [
            f"({block.to_polynomial().to_string(A.order)})*d{A.variables[j]}"
            for j, block in self.module._blocks(self)
        ]
        return " + ".join(pieces) if pieces else "0"


class KahlerModule:
    """The differentials of an ArtinAlgebra as a quotient coordinate space."""

    def __init__(self, algebra: ArtinAlgebra):
        self.algebra = algebra
        self.ambient_dim = len(algebra.variables) * algebra.dim
        # (i, slot, e): d(basis[i]) has e * basis[k] dX_j at slot j*dim + k
        self._derivative_terms = []
        for i, mono in enumerate(algebra.basis):
            for j, e in enumerate(mono.exps):
                if e:
                    exps = list(mono.exps)
                    exps[j] = e - 1
                    k = algebra.basis.index(Monomial(exps))
                    self._derivative_terms.append((i, j * algebra.dim + k, e))
        relations = []
        for g in algebra.gb.polys:
            dg = []
            for name in algebra.variables:
                dg.extend(algebra.coords_of_polynomial(g.partial_derivative(name)))
            for i in range(algebra.dim):
                vec = self._times(algebra.basis_element(i).coords, dg)
                if any(vec):
                    relations.append(vec)
        self.rel_rows, self.rel_pivots = linalg.rref(relations)
        pivot_set = set(self.rel_pivots)
        self.quot_indices = tuple(
            i for i in range(self.ambient_dim) if i not in pivot_set
        )
        self.dim = len(self.quot_indices)
        self._last_blocks = (None, [])

    # -- coordinate passage ---------------------------------------------------

    def reduce_ambient(self, vector):
        return linalg.reduce_vector(vector, self.rel_rows, self.rel_pivots)

    def form_from_ambient(self, vector) -> DifferentialForm:
        """The class of an ambient vector of Fractions."""
        reduced = self.reduce_ambient(vector)
        return DifferentialForm._raw(self, tuple(reduced[i] for i in self.quot_indices))

    def _blocks(self, form: DifferentialForm) -> list:
        """The nonzero dX_j blocks of the form's ambient representative, as
        (j, element) pairs.  The last form asked is kept with its blocks, by
        identity (forms are immutable), so a hom family reads them once."""
        if self._last_blocks[0] is not form:
            ambient, dim = self.ambient_representative(form), self.algebra.dim
            blocks = (ambient[start : start + dim] for start in range(0, self.ambient_dim, dim))
            self._last_blocks = (form, [
                (j, AlgebraElement._raw(self.algebra, tuple(block)))
                for j, block in enumerate(blocks) if any(block)
            ])
        return self._last_blocks[1]

    def ambient_representative(self, form: DifferentialForm):
        vec = [ZERO] * self.ambient_dim
        for c, i in zip(form.coords, self.quot_indices):
            vec[i] = c
        return vec

    def zero_form(self) -> DifferentialForm:
        return DifferentialForm._raw(self, (ZERO,) * self.dim)

    # -- the universal derivation ----------------------------------------------

    def d_polynomial(self, p: Polynomial) -> DifferentialForm:
        """d of any polynomial representative; the result only depends on
        the class of p in the algebra."""
        return self.d(self.algebra.from_polynomial(p))

    def partials(self, element: AlgebraElement) -> list:
        """The ambient vector of d(element), unreduced: the blocks
        da/dX_1, ..., da/dX_m, with no normal form (see the module docstring)."""
        if getattr(element, "space", None) is not self.algebra:
            raise _foreign(element, AlgebraElement)
        coords = element.coords
        vec = [ZERO] * self.ambient_dim
        for i, slot, e in self._derivative_terms:
            if coords[i]:
                vec[slot] = coords[i] * e
        return vec

    def d(self, element: AlgebraElement) -> DifferentialForm:
        """sum_j (da/dX_j) dX_j: the class of `partials`."""
        return self.form_from_ambient(self.partials(element))

    def act(self, element: AlgebraElement, form: DifferentialForm) -> DifferentialForm:
        """Module action a * omega, through `_times`."""
        if getattr(element, "space", None) is not self.algebra:
            raise _foreign(element, AlgebraElement)
        if getattr(form, "space", None) is not self:
            raise _foreign(form, DifferentialForm)
        ambient = self.ambient_representative(form)
        return self.form_from_ambient(self._times(element.coords, ambient))

    def _times(self, coords, ambient) -> list:
        """The ambient vector a * ambient, unreduced, for a of these coordinates:
        each dX_j block multiplied with the algebra's `multiply_coords`."""
        dim = self.algebra.dim
        out = []
        for start in range(0, self.ambient_dim, dim):
            out.extend(self.algebra.multiply_coords(coords, ambient[start : start + dim]))
        return out

    def __repr__(self):
        return f"<KahlerModule dim {self.dim} over algebra dim {self.algebra.dim}>"


@_per_algebra
def kahler_module(algebra: ArtinAlgebra) -> KahlerModule:
    """The differentials of the algebra, built once per algebra: every
    call returns the same module, so its forms can be combined."""
    return KahlerModule(algebra)


def d(element: AlgebraElement) -> DifferentialForm:
    """d(element) in its algebra's module; InvalidArgumentError for a non-element."""
    if not isinstance(element, AlgebraElement):
        raise _foreign(element, AlgebraElement)
    return kahler_module(element.algebra).d(element)


def pushforward(hom: AlgebraMap, form: DifferentialForm) -> DifferentialForm:
    """Functorial map on forms along a homomorphism: sum a_j dX_j -> sum h(a_j) d(h(X_j)).

    The result is a form of the target's module.  Satisfies
    pushforward(h, d(a)) = d(h(a)).  Every nonzero block a_j is applied
    once.  Into Q[t]/<t^(N+1)> the t^m dt coordinate, m < N, gains
    k g_k c_i for each image coefficient g_k of h(X_j), k >= 1, and each
    coefficient c_i of h(a_j) with i + k - 1 = m; into any other algebra
    the class of the generic sum is reduced once (see the module docstring).
    """
    if not isinstance(form, DifferentialForm):
        raise _foreign(form, DifferentialForm)
    module = form.module
    if not isinstance(hom, AlgebraMap) or hom.source is not module.algebra:
        raise IncompatibleAlgebrasError("form does not live over the map's source")
    blocks = module._blocks(form)
    target_module = kahler_module(hom.target)
    if isinstance(hom.target, TruncatedPolyAlgebra):
        n = hom.target.truncation
        out = [ZERO] * n
        for j, block in blocks:
            coefficient = hom.apply(block).coords
            for k, g in enumerate(hom.images[j].coords[1:], 1):
                if g:
                    scale = g * k
                    for i, c in enumerate(coefficient[: n + 1 - k]):
                        if c:
                            out[i + k - 1] += c * scale
        return DifferentialForm._raw(target_module, tuple(out))
    out = [ZERO] * target_module.ambient_dim
    for j, block in blocks:
        coefficient = hom.apply(block)
        term = target_module._times(coefficient.coords, target_module.partials(hom.images[j]))
        out = [a + b if b else a for a, b in zip(out, term)]
    return target_module.form_from_ambient(out)


@_per_algebra
def _d_matrix(algebra: ArtinAlgebra) -> tuple:
    """The matrix of d : A -> Omega_A: a column per basis element of A."""
    km = kahler_module(algebra)
    return tuple(zip(*(km.d(algebra.basis_element(i)).coords for i in range(algebra.dim))))


@_per_algebra
def h0_de_rham(algebra: ArtinAlgebra) -> Subspace:
    """Kernel of d : A -> Omega_A."""
    return _kernel_subspace(algebra, _d_matrix(algebra))


def embedding_obstruction(algebra: ArtinAlgebra) -> Subspace:
    """Kernel of H0_dR(A) -> A/nilradical: the common kernel of d and of
    the trace functional tau, whose kernel is the maximal ideal of a local
    algebra over Q (a = r + n with n nilpotent has tau(a) = r * dim).

    A nonzero obstruction certifies that the algebra embeds in no
    principal ideal algebra.
    """
    _require_local(algebra, "embedding obstruction needs a local algebra over Q")
    return _kernel_subspace(algebra, [*_d_matrix(algebra), _trace_row(algebra)])
