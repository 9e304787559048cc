"""Exact linear algebra over the rationals.

Row-echelon machinery shared by the Groebner, algebra, differentials and
truncated layers.  Vectors are sequences of `fractions.Fraction`; all
routines are deterministic (first usable pivot wins) so every downstream
basis is reproducible.  `echelon` is the one forward elimination:
`rank` counts its pivots, `truncated.triangularize` runs it on image
columns, and `rref` is `echelon` plus back-substitution (each pivot row
normalized, then its column cleared from the rows before it), which
`kernel_basis`, `invert_matrix` and every `algebra.Subspace` read.
Each structural invariant is one `kernel_basis`: where two kernels meet
is the kernel of both systems of equations stacked.

The matrices here are mostly zeros, so the kernels do no `Fraction`
work on a zero: an entry is tested by its truth value, a row operation
runs only over the columns where the pivot row is nonzero (listed once
per pivot), a zero entry of a normalized pivot row is the shared `ZERO`,
and a row is re-tested for zero only when a row operation changed it.
Skipping a zero changes no value, and the reduced row echelon form of
a row space is unique, so the rows, pivots and kernel bases are those of
plain Gauss-Jordan elimination, and every entry of an
`rref` row is a `Fraction`, also for integer input.
"""

from __future__ import annotations

from collections.abc import Sequence
from fractions import Fraction

ZERO = Fraction(0)
ONE = Fraction(1)


def _take_pivot(work, col):
    """Remove and return the first row of `work` nonzero in `col`, or None."""
    for idx, r in enumerate(work):
        if r[col]:
            del work[idx]
            return r
    return None


def _normalized(pivot_row, col):
    """The nonzero (column, entry) pairs of the pivot row scaled to a
    leading 1 in `col`, where its first nonzero entry is."""
    inv = ONE / pivot_row[col]
    return [(k, c * inv) for k, c in enumerate(pivot_row[col:], col) if c]


def _eliminate(work, col, support):
    """Clear column `col` of the rows of `work` in place by the normalized
    pivot row with this support; return the rows that stay nonzero."""
    rest = []
    for r in work:
        f = r[col]
        if f:
            for k, b in support:
                r[k] -= f * b
            if not any(r[col + 1:]):  # entries up to col are now zero
                continue
        rest.append(r)
    return rest


def reduce_vector(vec, rows, pivots):
    """Subtract row multiples so every pivot coordinate of vec is zero."""
    v = list(vec)
    n = len(v)
    for row, p in zip(rows, pivots):
        f = v[p]
        if f:
            for k in range(p, n):
                c = row[k]
                if c:
                    v[k] -= f * c
    return v


def in_span(vec, rows, pivots) -> bool:
    return not any(reduce_vector(vec, rows, pivots))


def echelon(rows, ncols=None):
    """Forward elimination (no back substitution) over the first `ncols`
    columns, all of them by default.

    Returns (pivot_rows, rest).  The pivot rows are listed in the order
    taken, one per pivot column in increasing order, each as it stood when
    taken (not normalized); at each column the first remaining row that
    is nonzero there is taken.  `rest` holds the other rows that are still
    nonzero, in input order; they are zero on the first `ncols` columns.
    Zero rows are dropped; the input rows are not modified.
    """
    work = [r for r in map(list, rows) if any(r)]
    if ncols is None:
        ncols = len(work[0]) if work else 0
    pivot_rows = []
    for col in range(ncols):
        pivot = _take_pivot(work, col)
        if pivot is None:
            continue
        pivot_rows.append(pivot)
        if not work:
            break
        work = _eliminate(work, col, _normalized(pivot, col))
    return pivot_rows, work


def rank(rows) -> int:
    """Row rank: the number of pivots of `echelon`."""
    return len(echelon(rows)[0])


def rref(rows: Sequence[Sequence[Fraction]]):
    """Reduced row echelon form: `echelon`, then back-substitution.

    Returns (reduced_rows, pivot_columns); zero rows are dropped and
    pivot columns are strictly increasing.
    """
    out: list[list[Fraction]] = []
    pivots: list[int] = []
    col = -1
    for pivot_row in echelon(rows)[0]:
        # pivot columns increase, and a pivot row is zero before its own
        col = next(k for k in range(col + 1, len(pivot_row)) if pivot_row[k])
        support = _normalized(pivot_row, col)
        for prev in out:
            f = prev[col]
            if f:
                for k, b in support:
                    prev[k] -= f * b
        row = [ZERO] * len(pivot_row)
        for k, b in support:
            row[k] = b
        out.append(row)
        pivots.append(col)
    return out, pivots


def kernel_basis(rows, ncols: int):
    """Basis of {x : M x = 0} for the matrix with the given rows.

    Returned vectors have a 1 in their free coordinate and are listed in
    increasing free-column order, so the result is already in echelon
    form up to column permutation.
    """
    red, pivots = rref(rows)
    pivot_set = set(pivots)
    free = [j for j in range(ncols) if j not in pivot_set]
    basis = []
    for j in free:
        v = [ZERO] * ncols
        v[j] = ONE
        for row, p in zip(red, pivots):
            v[p] = -row[j]
        basis.append(v)
    return basis


def invert_matrix(rows):
    """Inverse of a square matrix; raises ValueError when singular."""
    n = len(rows)
    aug = [list(r) + [ONE if i == j else ZERO for j in range(n)] for i, r in enumerate(rows)]
    red, pivots = rref(aug)
    if len(red) != n or pivots != list(range(n)):
        raise ValueError("matrix is singular")
    return [row[n:] for row in red]
