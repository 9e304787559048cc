"""Buchberger-style Groebner basis engine.

Plain Buchberger with the coprime-leading-term discard and normal pair
selection (smallest lcm first): the open pairs sit in a heap keyed by
(order key of the lcm, i, j), each key computed once.  That is
deliberate: the ideals handled here are desk scale and the priority is
deterministic, auditable output, not asymptotics.  A polynomial's leading
monomial is found once, where it enters a basis; reducers are (leading
monomial, polynomial) pairs from then on.  The reduced basis is monic,
auto-reduced and sorted by leading monomial, so a fixed (generators,
order) input always produces an identical basis object.
"""

from __future__ import annotations

import heapq
from collections.abc import Sequence

from .errors import InvalidArgumentError, NotZeroDimensionalError, VariableMismatchError
from .polycore import ONE, ZERO, Monomial, MonomialOrder, Polynomial, _foreign, _sequence


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


def _s_pair(a, b, lcm: Monomial) -> Polynomial:
    """S-polynomial of two monic basis pairs (leading monomial, polynomial)."""
    (lm_f, f), (lm_g, g) = a, b
    mf = Polynomial.from_monomial(f.variables, lcm.quotient(lm_f))
    mg = Polynomial.from_monomial(g.variables, lcm.quotient(lm_g))
    return mf * f - mg * g


def s_polynomial(f: Polynomial, g: Polynomial, order: MonomialOrder) -> Polynomial:
    a, b = _entry(f, order), _entry(g, order)
    return _s_pair(a, b, a[0].lcm(b[0]))


def _reduce(p: Polynomial, reducers, key) -> Polynomial:
    """Full normal form of p modulo (leading monomial, polynomial) pairs.

    Every term is reduced, by the first reducer whose leading monomial
    divides it; `key` is the order's sort key over p's variables.
    """
    remainder: dict = {}
    work = dict(p.terms)
    while work:
        mono = max(work, key=key)
        for lm, g in reducers:
            if lm.divides(mono):
                break
        else:
            remainder[mono] = work.pop(mono)
            continue
        # the leading term cancels exactly, which removes mono from work
        shift = mono.quotient(lm)
        factor = work[mono] / g.terms[lm]
        for gm, gc in g.terms.items():
            target = gm * shift
            s = work.get(target, ZERO) - factor * gc
            if s == 0:
                work.pop(target, None)
            else:
                work[target] = s
    return Polynomial(p.variables, remainder)


def _entry(p: Polynomial, order: MonomialOrder):
    """The basis pair (leading monomial, monic p) of a nonzero polynomial."""
    lm = p.leading_monomial(order)
    lc = p.terms[lm]
    return (lm, p if lc == 1 else p.scale(ONE / lc))


def _interreduce(work, order: MonomialOrder, key):
    """Fully mutually reduced basis pairs, sorted by leading monomial.

    Safe on arbitrary generating sets (nothing is dropped until it
    reduces to zero), so it doubles as the Buchberger preprocessing and
    the final auto-reduction.  Only a polynomial that changed enters
    again through `_entry`.
    """
    work = sorted(work, key=lambda entry: key(entry[0]))
    changed = True
    while changed:
        changed = False
        for i, entry in enumerate(work):
            if entry is None:
                continue
            others = [e for k, e in enumerate(work) if k != i and e is not None]
            r = _reduce(entry[1], others, key)
            if r != entry[1]:
                work[i] = None if r.is_zero() else _entry(r, order)
                changed = True
        work = [entry for entry in work if entry is not None]
    return sorted(work, key=lambda entry: key(entry[0]))


def buchberger(gens: Sequence[Polynomial], order: MonomialOrder | None = None) -> GroebnerBasis:
    """Reduced Groebner basis of the ideal the generators span.

    The zero ideal yields an empty basis, the unit ideal the basis {1}.
    Output is deterministic for a fixed (generators, order) pair.  Raises
    InvalidArgumentError for generators that are no sequence of
    polynomials or an order that is neither None nor a MonomialOrder.
    """
    gens = _sequence(gens, "generators")
    if not gens:
        raise InvalidArgumentError("need at least one generator (possibly zero)")
    for g in gens:  # gens[0] is checked first
        if not isinstance(g, Polynomial):
            raise _foreign(g, Polynomial)
        if g.variables != gens[0].variables:
            raise VariableMismatchError("generators over different variable lists")
    variables = gens[0].variables
    if order is None:
        order = MonomialOrder.grevlex(variables)
    elif not isinstance(order, MonomialOrder):
        raise _foreign(order, MonomialOrder)
    key = order.key_function(variables)  # validates compatibility

    basis = _interreduce([_entry(g, order) for g in gens if not g.is_zero()], order, key)
    # open pairs by (key(lcm), i, j): normal selection, smallest lcm first
    pairs = [
        (key(basis[i][0].lcm(basis[j][0])), i, j)
        for j in range(len(basis))
        for i in range(j)
    ]
    heapq.heapify(pairs)
    while pairs:
        _, i, j = heapq.heappop(pairs)
        lm_i, lm_j = basis[i][0], basis[j][0]
        lcm = lm_i.lcm(lm_j)
        if lcm == lm_i * lm_j:
            continue  # coprime leading terms reduce to zero
        r = _reduce(_s_pair(basis[i], basis[j], lcm), basis, key)
        if not r.is_zero():
            basis.append(_entry(r, order))
            new, lm = len(basis) - 1, basis[-1][0]
            for k in range(new):
                heapq.heappush(pairs, (key(basis[k][0].lcm(lm)), k, new))
    return GroebnerBasis(variables, order, [p for _, p in _interreduce(basis, order, key)])


def normal_form(p: Polynomial, gb: GroebnerBasis) -> Polynomial:
    """The unique remainder of p supported on standard monomials.
    InvalidArgumentError for a p that is no Polynomial or a gb that is no
    GroebnerBasis."""
    if not isinstance(p, Polynomial):
        raise _foreign(p, Polynomial)
    if not isinstance(gb, GroebnerBasis):
        raise _foreign(gb, GroebnerBasis)
    key = gb.order.key_function(p.variables)
    return _reduce(p, tuple(zip(gb.leading_monomials, gb.polys)), key)


def ideal_membership(p: Polynomial, gb: GroebnerBasis) -> bool:
    return normal_form(p, gb).is_zero()


def standard_monomials(gb: GroebnerBasis) -> StandardMonomialBasis:
    """All monomials outside the leading-term ideal, ascending.

    Raises NotZeroDimensionalError when the set is infinite, detected by
    a variable having no pure power among the leading terms, and
    InvalidArgumentError for a gb that is no GroebnerBasis.
    """
    if not isinstance(gb, GroebnerBasis):
        raise _foreign(gb, GroebnerBasis)
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
            if all(e == 0 for k, e in enumerate(m.exps) if k != i)
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
