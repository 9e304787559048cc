"""Buchberger-style Groebner basis engine.

Plain Buchberger with the coprime-leading-term discard and normal pair
selection (smallest lcm first).  That is deliberate: the ideals handled
here are desk scale and the priority is deterministic, auditable output,
not asymptotics.  The reduced basis is monic, auto-reduced and sorted by
leading monomial, so a fixed (generators, order) input always produces an
identical basis object.
"""

from __future__ import annotations

from fractions import Fraction
from typing import Sequence

from .errors import InvalidArgumentError, NotZeroDimensionalError, VariableMismatchError
from .polycore import Monomial, MonomialOrder, Polynomial

ONE = Fraction(1)


class StandardMonomialBasis:
    """Monomials not divisible by any leading term, sorted ascending.

    Finite exactly when the ideal is zero-dimensional; closed under
    divisors, so partial derivatives of basis monomials stay inside.
    """

    __slots__ = ("variables", "monomials", "_index")

    def __init__(self, variables, monomials):
        self.variables = tuple(variables)
        self.monomials = tuple(monomials)
        self._index = {m: i for i, m in enumerate(self.monomials)}

    def __len__(self):
        return len(self.monomials)

    def __iter__(self):
        return iter(self.monomials)

    def __getitem__(self, i):
        return self.monomials[i]

    def index(self, mono: Monomial) -> int:
        return self._index[mono]

    def __contains__(self, mono) -> bool:
        return mono in self._index

    def __repr__(self):
        names = [m.as_string(self.variables) for m in self.monomials]
        return f"<StandardMonomialBasis {names}>"


class GroebnerBasis:
    """A reduced Groebner basis together with its order."""

    __slots__ = ("variables", "order", "polys", "leading_monomials")

    def __init__(self, variables, order: MonomialOrder, polys: Sequence[Polynomial]):
        self.variables = tuple(variables)
        self.order = order
        self.polys = tuple(polys)
        self.leading_monomials = tuple(
            p.leading_monomial(order) for p in self.polys
        )

    def __iter__(self):
        return iter(self.polys)

    def __len__(self):
        return len(self.polys)

    def is_trivial(self) -> bool:
        """True when the basis generates the unit ideal."""
        return any(m.is_one() for m in self.leading_monomials)

    def __repr__(self):
        return f"<GroebnerBasis of {len(self.polys)} polynomials over {self.variables}>"


def s_polynomial(f: Polynomial, g: Polynomial, order: MonomialOrder) -> Polynomial:
    lm_f = f.leading_monomial(order)
    lm_g = g.leading_monomial(order)
    lcm = lm_f.lcm(lm_g)
    mf = Polynomial.from_monomial(f.variables, lcm.quotient(lm_f), ONE / f.leading_coefficient(order))
    mg = Polynomial.from_monomial(g.variables, lcm.quotient(lm_g), ONE / g.leading_coefficient(order))
    return mf * f - mg * g


def _reduce(p: Polynomial, reducers: Sequence[Polynomial], order: MonomialOrder) -> Polynomial:
    """Full normal form of p modulo the reducers (every term reduced)."""
    variables = p.variables
    key = order.key_function(variables)
    lead_data = [
        (g.leading_monomial(order), g.leading_coefficient(order), g) for g in reducers
    ]
    remainder: dict = {}
    work = dict(p.terms)
    while work:
        mono = max(work, key=key)
        coeff = work.pop(mono)
        hit = None
        for lm, lc, g in lead_data:
            if lm.divides(mono):
                hit = (lm, lc, g)
                break
        if hit is None:
            remainder[mono] = remainder.get(mono, Fraction(0)) + coeff
            continue
        lm, lc, g = hit
        shift = mono.quotient(lm)
        factor = coeff / lc
        for gm, gc in g.terms.items():
            target = gm * shift
            if target == mono:
                continue
            s = work.get(target, Fraction(0)) - factor * gc
            if s == 0:
                work.pop(target, None)
            else:
                work[target] = s
    return Polynomial(variables, remainder)


def _interreduce(polys, order: MonomialOrder):
    """Fully mutually reduced, monic, sorted by leading monomial.

    Safe on arbitrary generating sets (nothing is dropped until it
    reduces to zero), so it doubles as the Buchberger preprocessing and
    the final auto-reduction.
    """
    work = [p for p in polys if not p.is_zero()]
    if not work:
        return []
    key = order.key_function(work[0].variables)
    work.sort(key=lambda p: key(p.leading_monomial(order)))
    changed = True
    while changed:
        changed = False
        for i in range(len(work)):
            p = work[i]
            if p.is_zero():
                continue
            others = [q for k, q in enumerate(work) if k != i and not q.is_zero()]
            r = _reduce(p, others, order)
            if r != p:
                work[i] = r
                changed = True
        work = [p for p in work if not p.is_zero()]
    work = [p.monic(order) for p in work]
    work.sort(key=lambda p: key(p.leading_monomial(order)))
    return work


def buchberger(gens: Sequence[Polynomial], order: MonomialOrder | None = None) -> GroebnerBasis:
    """Reduced Groebner basis of the ideal the generators span.

    The zero ideal yields an empty basis, the unit ideal the basis {1}.
    Output is deterministic for a fixed (generators, order) pair.
    """
    gens = list(gens)
    if not gens:
        raise InvalidArgumentError("need at least one generator (possibly zero)")
    variables = gens[0].variables
    for g in gens:
        if g.variables != variables:
            raise VariableMismatchError("generators over different variable lists")
    if order is None:
        order = MonomialOrder.grevlex(variables)
    else:
        order.permutation_for(variables)  # validate compatibility

    basis = _interreduce(gens, order)
    key = order.key_function(variables)

    pairs = {(i, j) for j in range(len(basis)) for i in range(j)}

    def pair_key(pair):
        i, j = pair
        lcm = basis[i].leading_monomial(order).lcm(basis[j].leading_monomial(order))
        return (key(lcm), i, j)

    while pairs:
        i, j = min(pairs, key=pair_key)
        pairs.remove((i, j))
        lm_i = basis[i].leading_monomial(order)
        lm_j = basis[j].leading_monomial(order)
        lcm = lm_i.lcm(lm_j)
        if lcm == lm_i * lm_j:
            continue  # coprime leading terms reduce to zero
        s = s_polynomial(basis[i], basis[j], order)
        r = _reduce(s, basis, order)
        if not r.is_zero():
            basis.append(r.monic(order))
            new = len(basis) - 1
            pairs.update((k, new) for k in range(new))
    return GroebnerBasis(variables, order, _interreduce(basis, order))


def normal_form(p: Polynomial, gb: GroebnerBasis) -> Polynomial:
    """The unique remainder of p supported on standard monomials."""
    return _reduce(p, gb.polys, gb.order)


def ideal_membership(p: Polynomial, gb: GroebnerBasis) -> bool:
    return normal_form(p, gb).is_zero()


def standard_monomials(gb: GroebnerBasis) -> StandardMonomialBasis:
    """All monomials outside the leading-term ideal, ascending.

    Raises NotZeroDimensionalError when the set is infinite, detected by
    a variable having no pure power among the leading terms.
    """
    variables = gb.variables
    nvars = len(variables)
    if gb.is_trivial():
        return StandardMonomialBasis(variables, [])
    leads = gb.leading_monomials
    bounds = []
    for i in range(nvars):
        pure = [
            m.exps[i]
            for m in leads
            if m.exps[i] > 0 and all(e == 0 for k, e in enumerate(m.exps) if k != i)
        ]
        if not pure:
            raise NotZeroDimensionalError(
                f"variable {variables[i]!r} has no pure power among leading terms"
            )
        bounds.append(min(pure))

    # grow the standard monomials one variable at a time: a divisible
    # exponent stops the run, since every larger one is a multiple of it
    monos = [Monomial((0,) * nvars)]
    for i in range(nvars):
        grown = []
        for m in monos:
            grown.append(m)
            exps = list(m.exps)
            for e in range(1, bounds[i]):
                exps[i] = e
                mono = Monomial(exps)
                if any(lead.divides(mono) for lead in leads):
                    break
                grown.append(mono)
        monos = grown
    key = gb.order.key_function(variables)
    monos.sort(key=key)
    return StandardMonomialBasis(variables, monos)
