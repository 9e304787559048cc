"""Metamorphic oracle: the invariants of one algebra under a second presentation.

A wrong kernel rarely survives a change of presentation, so every
invariant is checked against itself:

- presentation changes keep every invariant: lex against grevlex, a
  permuted variable precedence, an invertible linear substitution, and
  the translation X -> X - 1, which moves the point of a local algebra
  away from the origin (so the r_i of the socle generators x_i - r_i are
  nonzero);
- a direct product A1 x A2 is the quotient by the product of two ideals
  with disjoint supports (the product lemma, part ii, of the source
  paper): dimensions of the nilradical, its powers, Omega and H0_dR add,
  the nilpotency index is the larger one, and the product is not local;
- a tensor product A (x) B is the quotient by both ideals on disjoint
  variables; for local algebras over Q, dim multiplies, the nilpotency
  index and the embedding dimension add (the Hilbert function of
  gr_M(A (x) B) is the convolution of the two), the socle is
  socle(A) (x) socle(B), dim Omega = dim Omega_A * dim B + dim A *
  dim Omega_B, dim H0_dR multiplies (Kuenneth in degree zero), so the
  obstruction H0_dR ∩ M has dimension dim H0(A) * dim H0(B) - 1, and
  homs of A and of B into one Q[t]/<t^(N+1)> concatenate to a hom of
  A (x) B.
"""

from hypothesis import assume, given, settings, strategies as st

from artinalg.algebra import (
    _power_dims,
    build_algebra,
    embedding_dimension,
    is_gorenstein,
    is_local_over_q,
    nilpotency_index,
    nilradical,
    socle,
)
from artinalg.kahler import embedding_obstruction, h0_de_rham, kahler_module
from artinalg.polycore import Monomial, MonomialOrder, Polynomial, parse_polynomial
from artinalg.truncated import make_hom, search_homs
from conftest import GOLDEN_GENS, GOLDEN_VARS


def _factor(variables, gens):
    """A presentation: the variables and the generators as polynomials over them."""
    return tuple(variables), [parse_polynomial(g, variables) for g in gens]


# two presentations with a nonzero embedding obstruction
OBSTRUCTED = [
    _factor(GOLDEN_VARS, GOLDEN_GENS),
    _factor(("X", "Y"), ["X*Y^2 - Y^3 + 3*Y^4", "X^4 + X^2*Y", "Y^5"]),
]
SMALL_FIXED = [
    _factor(("X", "Y"), ["X^2 - Y^2", "X*Y"]),
    _factor(("X", "Y"), ["X^2 + X*Y", "Y^3"]),
]

one_variable = st.integers(1, 5).map(lambda a: _factor(("X",), [f"X^{a}"]))
two_variables = st.tuples(
    st.integers(1, 3), st.integers(1, 3), st.integers(1, 2), st.integers(1, 2)
).map(lambda e: _factor(("X", "Y"), [f"X^{e[0]}", f"Y^{e[1]}", f"X^{e[2]}*Y^{e[3]}"]))
staircase = st.integers(1, 3).map(lambda r: _factor(("X", "Y"), [f"X^{r + 1}", f"X^{r}*Y", "Y^2"]))
small_factors = st.one_of(one_variable, two_variables, staircase, st.sampled_from(SMALL_FIXED))
factors = st.one_of(small_factors, st.sampled_from(OBSTRUCTED))


def _algebra(factor, order=None):
    variables, gens = factor
    return build_algebra(variables, gens, order)


def _invariants(algebra) -> dict:
    found = {
        "dim": algebra.dim,
        "nilradical": nilradical(algebra).dim,
        "powers": _power_dims(algebra),
        "nilpotency_index": nilpotency_index(algebra),
        "kahler": kahler_module(algebra).dim,
        "h0": h0_de_rham(algebra).dim,
        "local": is_local_over_q(algebra),
    }
    if found["local"]:
        found.update(
            socle=socle(algebra).dim,
            gorenstein=is_gorenstein(algebra),
            embedding_dimension=embedding_dimension(algebra),
            obstruction=embedding_obstruction(algebra).dim,
        )
    return found


def _substitute(factor, images):
    """The generators with variable i replaced by the polynomial images[i]."""
    variables, gens = factor
    one = Polynomial.constant(variables, 1)
    substituted = []
    for g in gens:
        total = Polynomial.zero(variables)
        for mono, c in g.terms.items():
            term = one.scale(c)
            for image, e in zip(images, mono.exps):
                term = term * image**e
            total = total + term
        substituted.append(total)
    return variables, substituted


def _linear(variables, rows, shift=()):
    """The images sum_j rows[i][j] * x_j - shift[i] of the variables."""
    xs = [Polynomial.variable(variables, v) for v in variables]
    images = []
    for i, row in enumerate(rows):
        image = Polynomial.constant(variables, -shift[i] if i < len(shift) else 0)
        for a, x in zip(row, xs):
            image = image + x.scale(a)
        images.append(image)
    return images


def _identity(n):
    return [[int(i == j) for j in range(n)] for i in range(n)]


def _translated(factor):
    """The presentation moved from the origin to x_1 = 1: X -> X - 1."""
    n = len(factor[0])
    return _substitute(factor, _linear(factor[0], _identity(n), shift=(1,)))


def _embedded(factor, variables):
    """The generators over a larger variable list that starts with the factor's."""
    pad = (0,) * (len(variables) - len(factor[0]))
    return [
        Polynomial(variables, {Monomial(m.exps + pad): c for m, c in g.terms.items()})
        for g in factor[1]
    ]


def _renamed(factor, names):
    """The same presentation over other variable names."""
    variables = names[: len(factor[0])]
    return variables, [Polynomial(variables, g.terms) for g in factor[1]]


# -- presentation changes ------------------------------------------------------


@settings(deadline=None, max_examples=40)
@given(factors)
def test_invariants_survive_presentation_changes(factor):
    variables, gens = factor
    expected = _invariants(_algebra(factor))
    permuted = variables[::-1]
    invertible = [[2, 1], [1, -1]] if len(variables) == 2 else [[-3]]
    presentations = [
        _algebra(factor, MonomialOrder.lex(variables)),
        _algebra((permuted, [parse_polynomial(g.to_string(), permuted) for g in gens])),
        _algebra(_substitute(factor, _linear(variables, invertible))),
        _algebra(_translated(factor)),
    ]
    for algebra in presentations:
        assert _invariants(algebra) == expected


def test_translation_moves_the_socle_off_the_origin():
    """Q[X]/<(X-1)^3>: the socle is spanned by (x - 1)^2, not by x^2."""
    algebra = _algebra(_translated(_factor(("X",), ["X^3"])))
    assert socle(algebra).contains(algebra.from_string("X^2 - 2*X + 1"))
    assert not socle(algebra).contains(algebra.from_string("X^2"))


# -- direct products -------------------------------------------------------------


def _on_plane(factor):
    """The factor over ("X", "Y"): a one-variable factor gets Y as a generator."""
    if len(factor[0]) == 2:
        return factor
    return ("X", "Y"), _embedded(factor, ("X", "Y")) + [Polynomial.variable(("X", "Y"), "Y")]


def _direct_product(first, second):
    """Q[X,Y]/(I*J) for I at the origin and J moved to (1, 0): A1 x A2."""
    first, second = _on_plane(first), _translated(_on_plane(second))
    return build_algebra(("X", "Y"), [g * h for g in first[1] for h in second[1]])


def _padded_sum(a, b):
    width = max(len(a), len(b))
    a, b = a + (0,) * (width - len(a)), b + (0,) * (width - len(b))
    return tuple(x + y for x, y in zip(a, b))


@settings(deadline=None, max_examples=20)
@given(small_factors, small_factors)
def test_direct_product_invariants_add(first, second):
    a, b = _invariants(_algebra(first)), _invariants(_algebra(second))
    product = _invariants(_direct_product(first, second))
    for key in ("dim", "nilradical", "kahler", "h0"):
        assert product[key] == a[key] + b[key]
    assert product["powers"] == _padded_sum(a["powers"], b["powers"])
    assert product["nilpotency_index"] == max(a["nilpotency_index"], b["nilpotency_index"])
    assert not product["local"]


def test_direct_product_of_two_points_on_a_line():
    """Q[X]/<X^2> x Q[X]/<(X-1)^3>, from the one ideal <X^2 (X-1)^3>."""
    algebra = build_algebra(("X",), ["X^5 - 3*X^4 + 3*X^3 - X^2"])
    found = _invariants(algebra)
    assert (found["dim"], found["nilradical"], found["kahler"], found["h0"]) == (5, 3, 3, 2)
    assert found["nilpotency_index"] == 2 and not found["local"]


# -- tensor products -------------------------------------------------------------


def _tensor(first, second):
    """A (x) B on the variables of A followed by those of B renamed to U, V."""
    second = _renamed(second, ("U", "V"))
    variables = first[0] + second[0]
    shifted = [
        Polynomial(variables, {Monomial((0,) * len(first[0]) + m.exps): c for m, c in g.terms.items()})
        for g in second[1]
    ]
    return build_algebra(variables, _embedded(first, variables) + shifted)


@settings(deadline=None, max_examples=30)
@given(factors, small_factors, st.booleans())
def test_tensor_product_relations(first, second, translate):
    if translate:
        second = _translated(second)
    a, b = _invariants(_algebra(first)), _invariants(_algebra(second))
    assume(a["dim"] * b["dim"] <= 40)
    t = _invariants(_tensor(first, second))
    assert t["local"]
    assert t["dim"] == a["dim"] * b["dim"]
    assert t["nilpotency_index"] == a["nilpotency_index"] + b["nilpotency_index"]
    assert t["embedding_dimension"] == a["embedding_dimension"] + b["embedding_dimension"]
    assert t["socle"] == a["socle"] * b["socle"]
    assert t["gorenstein"] == (a["gorenstein"] and b["gorenstein"])
    assert t["kahler"] == a["kahler"] * b["dim"] + a["dim"] * b["kahler"]
    assert t["h0"] == a["h0"] * b["h0"]
    assert t["obstruction"] == a["h0"] * b["h0"] - 1


@settings(deadline=None, max_examples=15)
@given(small_factors, small_factors, st.data())
def test_homs_of_the_factors_concatenate(first, second, data):
    homs = [search_homs(_algebra(f), 5, budget=40) for f in (first, second)]
    assume(all(homs))
    h, g = (data.draw(st.sampled_from(found)) for found in homs)
    n = min(h.truncation, g.truncation)
    # cut both into Q[t]/<t^(n+1)>: the projection from a larger ring is a hom
    images = [img.coords[: n + 1] for img in h.images + g.images]
    hom = make_hom(_tensor(first, second), n, images)
    assert hom.truncation == n
