"""linalg's elimination kernels against sympy's exact rref over QQ."""

from fractions import Fraction

import pytest
import sympy
from hypothesis import given, settings, strategies as st

from artinalg import linalg
from artinalg.algebra import build_algebra, nilradical
from artinalg.errors import ArtinalgError, DependentInputError
from artinalg.polycore import Monomial, Polynomial

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


def sympy_rank(rows):
    return to_sympy(rows).rank() if rows and rows[0] else 0


@settings(deadline=None, derandomize=True, max_examples=200)
@given(rows=matrices(), data=st.data())
def test_echelon_against_sympy(rows, data):
    width = len(rows[0])
    ncols = data.draw(st.integers(0, width))
    before = [list(r) for r in rows]
    pivot_rows, rest = linalg.echelon(rows, ncols)
    assert len(pivot_rows) == sympy_rank([r[:ncols] for r in rows])
    leads = [next(k for k, c in enumerate(r) if c) for r in pivot_rows]
    assert leads == sorted(set(leads)) and all(k < ncols for k in leads)
    assert all(any(r) and not any(r[:ncols]) for r in rest)
    assert sympy_rank(pivot_rows + rest) == sympy_rank(rows)
    assert len(linalg.echelon(rows)[0]) == sympy_rank(rows)
    assert linalg.echelon(rows)[1] == []
    assert rows == before


def test_echelon_keeps_pivots_as_taken():
    # column 0 takes the last row; column 1 the first row, unscaled, and
    # clears it from the second, which is left over on column 2
    rows = [[0, 2, 1], [0, 1, 5], [1, 0, 0]]
    assert linalg.echelon(rows, 2) == ([[1, 0, 0], [0, 2, 1]], [[0, 0, Fraction(9, 2)]])
    assert linalg.echelon(rows) == ([[1, 0, 0], [0, 2, 1], [0, 0, Fraction(9, 2)]], [])
    assert linalg.echelon([]) == ([], [])
    assert linalg.echelon([[0, 0], [0, 3]], 1) == ([], [[0, 3]])


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


def maximal_ideal_products():
    """The rows the first step of the power chain (`algebra._power_dims`)
    passes to `linalg.rref` for M * M in Q[X,Y,Z]/<X,Y,Z>^4: 19 * 19
    products of dimension 20."""
    xyz = ("X", "Y", "Z")
    gens = [
        Polynomial.from_monomial(xyz, Monomial((a, b, 4 - a - b)))
        for a in range(5)
        for b in range(5 - a)
    ]
    algebra = build_algebra(xyz, gens)
    m = nilradical(algebra)
    return [algebra.multiply_coords(u, v) for u in m.rows for v in m.rows]


def test_products_of_a_maximal_ideal_against_sympy():
    rows = maximal_ideal_products()
    assert (len(rows), len(rows[0])) == (361, 20)
    reduced, pivots = linalg.rref(rows)
    assert (reduced, pivots) == sympy_rref(rows)
    assert len(pivots) == 16  # M^2 is spanned by the monomials of degree 2 and 3


def assert_one_normalization_per_pivot(monkeypatch, rows, ncols):
    """rref, echelon and rank each find and normalize every pivot once."""
    calls = []
    normalized = linalg._normalized

    def counting(pivot_row, col):
        calls.append(col)
        return normalized(pivot_row, col)

    monkeypatch.setattr(linalg, "_normalized", counting)
    pivots = linalg.rref(rows)[1]
    assert calls == pivots
    calls.clear()
    pivot_rows = linalg.echelon(rows, ncols)[0]
    leads = [next(k for k, c in enumerate(r) if c) for r in pivot_rows]
    assert calls == leads
    calls.clear()
    assert linalg.rank(rows) == len(calls) == len(pivots)


@settings(deadline=None, derandomize=True, max_examples=200)
@given(rows=matrices(), data=st.data())
def test_one_normalization_per_pivot(rows, data):
    ncols = data.draw(st.integers(0, len(rows[0])))
    with pytest.MonkeyPatch.context() as monkeypatch:
        assert_one_normalization_per_pivot(monkeypatch, rows, ncols)


def test_one_normalization_per_pivot_of_maximal_ideal_products(monkeypatch):
    rows = maximal_ideal_products()
    assert_one_normalization_per_pivot(monkeypatch, rows, len(rows[0]))


def test_a_singular_matrix_is_a_dependent_input():
    with pytest.raises(DependentInputError, match="matrix is singular") as raised:
        linalg.invert_matrix([[1, 2], [2, 4]])
    assert isinstance(raised.value, ArtinalgError)
    assert linalg.invert_matrix([[2, 0], [1, 1]]) == [
        [Fraction(1, 2), Fraction(0)], [Fraction(-1, 2), Fraction(1)]
    ]
