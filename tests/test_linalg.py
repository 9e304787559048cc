"""linalg's elimination kernels against sympy's exact rref over QQ."""

from fractions import Fraction

import sympy
from hypothesis import given, settings, strategies as st

from artinalg import linalg

# zero listed twice, so that about two entries in three are zero
SPARSE_RATIONAL = st.one_of(
    st.just(Fraction(0)),
    st.just(Fraction(0)),
    st.fractions(min_value=-5, max_value=5, max_denominator=6),
)
SMALL_INT = st.one_of(st.just(0), st.just(0), st.integers(-4, 4))


@st.composite
def matrices(draw):
    """Sparse matrices of rationals or of ints, with zero and duplicate rows."""
    nrows = draw(st.integers(1, 6))
    ncols = draw(st.integers(1, 6))
    entry, zero = draw(st.sampled_from([(SPARSE_RATIONAL, Fraction(0)), (SMALL_INT, 0)]))
    rows = [draw(st.lists(entry, min_size=ncols, max_size=ncols)) for _ in range(nrows)]
    if draw(st.booleans()):
        rows.insert(draw(st.integers(0, nrows)), [zero] * ncols)
    if draw(st.booleans()):
        rows.append(list(rows[draw(st.integers(0, nrows - 1))]))
    return rows


def to_sympy(rows):
    return sympy.Matrix([[sympy.Rational(str(c)) for c in r] for r in rows])


def to_fractions(entries):
    return [Fraction(int(c.p), int(c.q)) for c in entries]


def sympy_rref(rows):
    reduced, pivots = to_sympy(rows).rref()
    return [to_fractions(reduced.row(i)) for i in range(len(pivots))], list(pivots)


def sympy_kernel(rows):
    return [to_fractions(v) for v in to_sympy(rows).nullspace()]


@settings(deadline=None, derandomize=True, max_examples=300)
@given(rows=matrices())
def test_against_sympy(rows):
    ncols = len(rows[0])
    before = [list(r) for r in rows]
    reduced, pivots = linalg.rref(rows)
    assert (reduced, pivots) == sympy_rref(rows)
    assert all(type(c) is Fraction for r in reduced for c in r)
    assert linalg.rank(rows) == len(pivots)
    kernel = linalg.kernel_basis(rows, ncols)
    assert kernel == sympy_kernel(rows)
    assert all(type(c) is Fraction for v in kernel for c in v)
    assert rows == before  # the input rows are not modified


def test_edge_shapes():
    assert linalg.rref([]) == ([], [])
    assert linalg.rank([]) == 0
    assert linalg.rref([[0, 0], [0, 0]]) == ([], [])
    assert linalg.rank([[0, 0, 0]]) == 0
    assert linalg.kernel_basis([[0, 0]], 2) == [[1, 0], [0, 1]]
    reduced, pivots = linalg.rref([[0, 2, 4]])
    assert (reduced, pivots) == ([[0, 1, 2]], [1])
    assert all(type(c) is Fraction for c in reduced[0])
    assert linalg.rref([[3], [0], [-6]]) == ([[1]], [0])
    assert linalg.rank([[3], [0], [-6]]) == 1
