"""Exact linear algebra over the rationals.

Row-echelon machinery shared by the Groebner, algebra, differentials and
truncated layers.  Vectors are sequences of `fractions.Fraction`; all
routines are deterministic (first usable pivot wins) so every downstream
basis is reproducible.  `_forward` is the one forward elimination, which
finds and normalizes each pivot once: `echelon` hands out its pivot rows
as taken (`truncated.triangularize` runs it on image columns), `rank`
counts them, and `rref` back-substitutes the normalized supports it kept,
which `kernel_basis`, `invert_matrix` and every `algebra.Subspace` read.
Each structural invariant is one `kernel_basis`: where two kernels meet
is the kernel of both systems of equations stacked.

The matrices here are mostly zeros, so the kernels do no `Fraction`
work on a zero: an entry is tested by its truth value, a row operation
runs only over the columns where the pivot row is nonzero (listed once
per pivot), a zero entry of a normalized pivot row is `polycore.ZERO`,
and a row is re-tested for zero only when a row operation changed it.
Skipping a zero changes no value, and the reduced row echelon form of
a row space is unique, so the rows, pivots and kernel bases are those of
plain Gauss-Jordan elimination, and every entry of an
`rref` row is a `Fraction`, also for integer input.
"""

from __future__ import annotations

from collections.abc import Sequence
from fractions import Fraction

from .errors import DependentInputError
from .polycore import ONE, ZERO


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


def _forward(rows, ncols=None):
    """The forward elimination over the first `ncols` columns, all of them
    by default; the input rows are not modified.

    Returns (pivots, rest).  At each column in increasing order the first
    remaining row that is nonzero there is taken, normalized once and used
    to clear the column; `pivots` lists (column, row as taken, normalized
    support) per pivot.  `rest` holds the other rows that are still
    nonzero, in input order; they are zero on the first `ncols` columns.
    """
    work = [r for r in map(list, rows) if any(r)]
    if ncols is None:
        ncols = len(work[0]) if work else 0
    pivots = []
    for col in range(ncols):
        if not work:
            break
        for idx, row in enumerate(work):
            if row[col]:
                break
        else:
            continue
        del work[idx]
        support = _normalized(row, col)
        pivots.append((col, row, support))
        work = _eliminate(work, col, support)
    return pivots, work


def echelon(rows, ncols=None):
    """The pivot rows of `_forward` over the first `ncols` columns (all by
    default), each as it stood when taken (not normalized), and its rest."""
    pivots, rest = _forward(rows, ncols)
    return [row for _, row, _ in pivots], rest


def rank(rows) -> int:
    """Row rank: the number of pivots of `_forward`."""
    return len(_forward(rows)[0])


def rref(rows: Sequence[Sequence[Fraction]]):
    """Reduced row echelon form: `_forward`, then back-substitution of the
    normalized supports it kept.

    Returns (reduced_rows, pivot_columns); zero rows are dropped and
    pivot columns are strictly increasing.
    """
    pivots = _forward(rows)[0]
    out: list[list[Fraction]] = []
    for col, taken, support in pivots:
        for prev in out:
            f = prev[col]
            if f:
                for k, b in support:
                    prev[k] -= f * b
        row = [ZERO] * len(taken)
        for k, b in support:
            row[k] = b
        out.append(row)
    return out, [col for col, _, _ in pivots]


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
    """Inverse of a square matrix; raises DependentInputError when singular."""
    n = len(rows)
    aug = [list(r) + [ONE if i == j else ZERO for j in range(n)] for i, r in enumerate(rows)]
    red, pivots = rref(aug)
    if len(red) != n or pivots != list(range(n)):
        raise DependentInputError("matrix is singular")
    return [row[n:] for row in red]
