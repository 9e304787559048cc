"""Differential test of the Buchberger engine against sympy's Groebner bases.

sympy shares no code with `artinalg.groebner`.  Over QQ, in grevlex and
lex, and with the order's precedence both equal to and different from the
ambient variable list, the two engines must agree on the reduced basis,
on normal forms and on the number of standard monomials.  sympy takes the
precedence from the order of its `gens` (first is most significant), so
every conversion maps our exponent slots onto `order.variables`
explicitly.
"""

import random
from fractions import Fraction
from itertools import product

import pytest

sympy = pytest.importorskip("sympy")

from artinalg.groebner import buchberger, normal_form, standard_monomials
from artinalg.polycore import MonomialOrder, parse_polynomial
from conftest import GOLDEN_GENS, GOLDEN_VARS
from oracles import random_polynomial, random_zero_dim_gens


def _power_of_maximal_ideal(k):
    variables = ("X", "Y", "Z")
    gens = [
        "*".join(f"{v}^{e}" for v, e in zip(variables, exps) if e)
        for exps in product(range(k + 1), repeat=3)
        if sum(exps) == k
    ]
    return variables, gens


def _ideals():
    yield "golden", GOLDEN_VARS, [parse_polynomial(g, GOLDEN_VARS) for g in GOLDEN_GENS]
    for r in range(1, 6):
        variables = ("X", "Y")
        gens = [f"X^{r + 1}", f"X^{r}*Y", "Y^2"]
        yield f"Q({r})", variables, [parse_polynomial(g, variables) for g in gens]
    for k in (1, 2, 3):
        variables, gens = _power_of_maximal_ideal(k)
        yield f"<X,Y,Z>^{k}", variables, [parse_polynomial(g, variables) for g in gens]
    for seed in range(6):
        rng = random.Random(1000 + seed)
        variables = ("X", "Y", "Z")[: 2 + seed % 2]
        yield f"random-{seed}", variables, random_zero_dim_gens(rng, variables)


IDEALS = list(_ideals())


def _orders(variables):
    for kind in (MonomialOrder.GREVLEX, MonomialOrder.LEX):
        yield MonomialOrder(kind, variables)
        yield MonomialOrder(kind, tuple(reversed(variables)))


CASES = [
    pytest.param(variables, gens, order, id=f"{name}-{order.kind}-{''.join(order.variables)}")
    for name, variables, gens in IDEALS
    for order in _orders(variables)
]


def _to_sympy(p, order, symbols):
    """Our polynomial as a sympy Poly whose gens follow the order's precedence."""
    slots = [p.variables.index(name) for name in order.variables]
    terms = {
        tuple(mono.exps[s] for s in slots): sympy.Rational(c.numerator, c.denominator)
        for mono, c in p.terms.items()
    }
    return sympy.Poly.from_dict(terms or {(0,) * len(symbols): 0}, *symbols, domain="QQ")


def _as_dict(poly):
    return {
        exps: Fraction(int(c.numerator), int(c.denominator))
        for exps, c in poly.terms()
        if c != 0
    }


def _count_standard(leading):
    """Monomials divisible by no leading monomial, counted inside the pure-power box."""
    nvars = len(leading[0])
    box = []
    for i in range(nvars):
        pure = [m[i] for m in leading if all(e == 0 for j, e in enumerate(m) if j != i)]
        box.append(min(pure))
    return sum(
        1
        for exps in product(*(range(b) for b in box))
        if not any(all(e >= l for e, l in zip(exps, lm)) for lm in leading)
    )


@pytest.mark.parametrize("variables, gens, order", CASES)
def test_agrees_with_sympy(variables, gens, order):
    symbols = sympy.symbols(" ".join(order.variables), seq=True)
    gb = buchberger(gens, order)
    theirs = sympy.groebner(
        [_to_sympy(g, order, symbols) for g in gens], *symbols, order=order.kind, domain="QQ"
    )
    their_polys = [sympy.Poly(e, *symbols, domain="QQ") for e in theirs.exprs]

    ours = sorted(sorted(_as_dict(_to_sympy(p, order, symbols)).items()) for p in gb.polys)
    assert ours == sorted(sorted(_as_dict(p).items()) for p in their_polys)

    if gb.is_trivial():
        assert len(standard_monomials(gb)) == 0
    else:
        leading = [p.monoms(order=order.kind)[0] for p in their_polys]
        assert len(standard_monomials(gb)) == _count_standard(leading)

    rng = random.Random(f"{variables}:{order.kind}:{order.variables}")
    for _ in range(8):
        p = random_polynomial(rng, variables, max_degree=6, max_terms=5)
        _, remainder = theirs.reduce(_to_sympy(p, order, symbols).as_expr())
        expected = _as_dict(sympy.Poly(remainder, *symbols, domain="QQ"))
        assert _as_dict(_to_sympy(normal_form(p, gb), order, symbols)) == expected
