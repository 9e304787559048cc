"""Truncated polynomial rings Q[t]/<t^(N+1)>, valuations and hom search.

The ring Q[t]/<t^(N+1)> is a `TruncatedPolyAlgebra`, an `ArtinAlgebra`
whose elements are `AlgebraElement`s holding the coefficients of t^k;
it differs from a presented quotient only in how it multiplies (by
truncated convolution; see the class for why).

A homomorphism from a quotient algebra into a truncated ring is a
`TruncatedHom`: an `algebra.AlgebraMap`, stored by the images of the
source variables and verified the same way, plus what reads the truncated
target (truncation, valuation, the search key and report records).  The
associated truncated valuation of an element is the t-order of its image.
Valuations take values in the saturating monoid {0, ..., N, oo}, encoded as
the ints 0..N+1 with N+1 for oo (the kernel): v(ab) = min(v(a) + v(b), N+1),
matching the fact that products of order past N vanish in the ring, and
`<` and `min` order the values as the monoid does.

A note on one law: for these valuations v(a+b) >= min(v(a), v(b)); the
reverse inequality sometimes quoted for classical valuations is not what
the definition gives here (adding elements can only increase the t-order
of the lowest surviving term).
"""

from __future__ import annotations

import math
import random
from collections.abc import Iterable, Sequence
from fractions import Fraction
from itertools import islice, product as iter_product
from numbers import Rational
from operator import mul

from . import linalg
from .algebra import AlgebraElement, AlgebraMap, ArtinAlgebra, _foreign, _fractions, _require_local
from .errors import (
    DependentInputError,
    IncompatibleAlgebrasError,
    InvalidArgumentError,
    RelationViolatedError,
)
from .groebner import GroebnerBasis, StandardMonomialBasis
from .polycore import ONE, ZERO, Monomial, MonomialOrder, Polynomial, _fraction, _require_integer, _sequence

#: default coefficient pool for the monomial search strategy
DEFAULT_COEFF_POOL = (
    Fraction(1),
    Fraction(-1),
    Fraction(2),
    Fraction(-2),
    Fraction(1, 2),
    Fraction(3),
    Fraction(1, 3),
)


class TruncatedPolyAlgebra(ArtinAlgebra):
    """The ring Q[t]/<t^(N+1)> for a fixed int truncation N >= 0.

    An ArtinAlgebra over ("t",) with Groebner basis {t^(N+1)} and basis
    1, t, ..., t^N, so coordinates are the coefficients of t^k.  There is
    one ring per N.  It is the one subclass with its own `multiply_coords`,
    truncated convolution, which needs no table: the generic product reads
    `products`, (N+1)(N+2)/2 normal forms per ring, and a search makes rings
    for many N (`homs q2.alg --nmax 96 --budget 300 --strategy dense-random`
    took 0.63 s through the table, 0.14 s by convolution, as a whole process
    on a 2-vCPU host).  So `products` is derived only if it is read.
    """

    _rings: dict = {}

    def __new__(cls, truncation: int):
        _require_integer(truncation, "truncation", 0)
        ring = cls._rings.get(truncation)
        if ring is None:
            variables = ("t",)
            order = MonomialOrder.grevlex(variables)
            relation = Polynomial.from_monomial(variables, Monomial((truncation + 1,)))
            basis = StandardMonomialBasis(
                variables, [Monomial((e,)) for e in range(truncation + 1)]
            )
            ring = super().__new__(cls)
            ArtinAlgebra.__init__(
                ring, variables, (relation,), order,
                GroebnerBasis(variables, order, (relation,)), basis,
            )
            ring.truncation = truncation
            cls._rings[truncation] = ring
        return ring

    def __init__(self, truncation: int):
        """Nothing to do: __new__ builds each ring once."""

    def multiply_coords(self, a, b):
        n = self.truncation
        out = [ZERO] * (n + 1)
        for i, ai in enumerate(a):
            if ai:
                for j, bj in enumerate(b[: n + 1 - i]):
                    if bj:
                        out[i + j] += ai * bj
        return out

    def t_power(self, exponent: int, coefficient=ONE) -> AlgebraElement:
        """coefficient * t^exponent, zero when the exponent exceeds N."""
        _require_integer(exponent, "the exponent of t", 0)
        c = _fraction(coefficient)
        coeffs = [ZERO] * (self.truncation + 1)
        if exponent <= self.truncation:
            coeffs[exponent] = c
        return AlgebraElement._raw(self, tuple(coeffs))

    def from_coeffs(self, coeffs: Iterable) -> AlgebraElement:
        """The element with these t^k coefficients, padded or cut to length N+1."""
        coeffs = list(_fractions(coeffs)[: self.truncation + 1])
        coeffs += [ZERO] * (self.truncation + 1 - len(coeffs))
        return AlgebraElement._raw(self, tuple(coeffs))

    def t_order(self, element: AlgebraElement) -> int:
        """The least k with a nonzero t^k coefficient, N+1 for zero.

        An element is a unit exactly when its t-order is 0.
        """
        if element not in self:
            raise IncompatibleAlgebrasError("element of a different ring")
        return next((k for k, c in enumerate(element.coords) if c), self.truncation + 1)

    def __repr__(self):
        return f"<Q[t]/<t^{self.truncation + 1}>>"


class TruncatedHom(AlgebraMap):
    """An AlgebraMap into Q[t]/<t^(N+1)>, with its truncated valuation.

    Once built, a hom holds the t-orders (`image_orders`), dedup key `_key`
    and, when every image is one term, leads `_leads` (else None) of its
    images, each image's part made by `_image_entry`.  Any other target is
    an InvalidArgumentError.  `gen_seq` is the number of homs a search kept
    before this one; it is -1 for a hom built outside `search_homs`.
    """

    __slots__ = ("gen_seq", "_orders", "_key", "_leads")

    def __init__(self, source: ArtinAlgebra, target: TruncatedPolyAlgebra, images, verify: bool = True):
        super().__init__(source, target, images, verify=False)
        if not isinstance(target, TruncatedPolyAlgebra):
            raise _foreign(target, TruncatedPolyAlgebra)
        entries = [
            _image_entry(target, i, [(k, c) for k, c in enumerate(img.coords) if c])
            for i, img in enumerate(self.images)
        ]
        self._raw(source, target, entries, self)
        if verify:
            self._verify()

    @classmethod
    def _raw(cls, source, target, entries, self=None):
        """Internal constructor from one `_image_entry` of `target` per source
        variable, filling `self` when given.  The key is (N,) and then every
        key part; the leads are kept when the key holds one term (three
        ints) per nonzero image.  Nothing is checked or verified."""
        if self is None:
            self = object.__new__(cls)
        try:
            images, orders, parts, leads = zip(*entries)
        except ValueError:  # a source without variables
            images = orders = parts = leads = ()
        n = target.truncation
        self.source, self.target, self.images, self._orders = source, target, images, orders
        self._monomial_images = {}
        self._key = key = sum(parts, (n,))
        self._leads = leads if len(key) == 1 + 3 * (len(orders) - orders.count(n + 1)) else None
        self.gen_seq = -1
        return self

    def image_orders(self) -> tuple:
        """The t-order of each variable image, N+1 for a zero image.

        The image of x^a has t-order sum(a_i * orders[i]) whenever that sum
        is at most N (Q is a domain), and is zero otherwise.
        """
        return self._orders

    def _monomial_image(self, exps: tuple):
        """The image of a monomial; zero without multiplying when the t-orders
        of its factors sum past N (see `image_orders`), else the memo's
        image: the walk multiplies only divisors, whose orders sum to at
        most N too."""
        if sum(map(mul, exps, self._orders)) > self.truncation:
            return self.target.zero()
        return AlgebraMap._monomial_image(self, exps)

    def _combine(self, terms):
        """As `AlgebraMap._combine`; for a single-term hom (`_leads` set) each
        c*x^a adds c*∏lead_i^a_i at t^(a·orders) when that is at most N, so
        nothing is multiplied in the target and no image is scanned."""
        leads = self._leads
        if leads is None:
            return AlgebraMap._combine(self, terms)
        orders, n = self._orders, self.truncation
        out = [ZERO] * (n + 1)
        for mono, c in terms:
            degree = sum(map(mul, mono.exps, orders))
            if degree <= n:
                out[degree] += c * _term(leads, mono.exps)
        return AlgebraElement._raw(self.target, tuple(out))

    # perfbench/tracing.py times `apply` (its `truncated.apply` span) only
    # where `vars(TruncatedHom)` holds it, so it is bound here too.
    apply = AlgebraMap.apply

    @property
    def truncation(self) -> int:
        return self.target.truncation

    def valuation(self, element: AlgebraElement) -> int:
        """The t-order of the element's image, N+1 on the kernel."""
        return self.target.t_order(self.apply(element))

    def key(self):
        """Canonical sort/dedup key: (N, image coefficient tuples).  The
        search deduplicates on `_key`, equal exactly when this is."""
        return (self.truncation, tuple(img.coords for img in self.images))

    def to_record(self) -> dict:
        return {
            "N": self.truncation,
            "images": [["0" if c is ZERO else str(c) for c in img.coords] for img in self.images],
        }

    def describe(self) -> str:
        pieces = [
            f"{name} -> {img.to_polynomial().to_string()}"
            for name, img in zip(self.source.variables, self.images)
        ]
        return f"[N={self.truncation}] " + ", ".join(pieces)


def _image_entry(target: TruncatedPolyAlgebra, i: int, terms) -> tuple:
    """(element, t-order, key part, lead) of the image of variable i from its
    nonzero (k, c) terms, k increasing and at most N; ZERO fills the rest.
    The key part is (i*(N+1)+k, numerator, denominator) per term, so homs of
    one source have equal keys exactly when their `key()`s are.  The zero
    image has order N+1, no key part and lead ZERO."""
    n = target.truncation
    if not terms:
        return target.zero(), n + 1, (), ZERO
    coeffs, part = [ZERO] * (n + 1), ()
    for k, c in terms:
        coeffs[k] = c
        part += (i * (n + 1) + k, c.numerator, c.denominator)
    return AlgebraElement._raw(target, tuple(coeffs)), terms[0][0], part, terms[0][1]


def _term(leads, exps):
    """∏ lead_i^a_i over the exponents a_i > 0 of a monomial."""
    return math.prod(lead**a for lead, a in zip(leads, exps) if a)


def make_hom(algebra: ArtinAlgebra, truncation: int, images) -> TruncatedHom:
    """Build and verify a homomorphism from generator images.

    `images` entries may be elements of the target ring, coefficient
    sequences, polynomials in t, or strings like "t^2".  Raises
    InvalidArgumentError for a non-algebra, a truncation that is not an int
    >= 0 or naming an entry that is none of these, and RelationViolatedError
    naming the first violated generator.
    """
    if not isinstance(algebra, ArtinAlgebra):
        raise _foreign(algebra, ArtinAlgebra)
    target = TruncatedPolyAlgebra(truncation)
    normalized = []
    for img in _sequence(images, "images"):
        if isinstance(img, AlgebraElement):
            normalized.append(img)
        elif isinstance(img, Polynomial):
            normalized.append(target.from_polynomial(img))
        elif isinstance(img, str):
            normalized.append(target.from_string(img))
        else:
            try:
                normalized.append(target.from_coeffs(img))
            except InvalidArgumentError:
                raise InvalidArgumentError(f"cannot read the image {img!r}") from None
    return TruncatedHom(algebra, target, normalized)


def _is_image(value) -> bool:
    """Whether a user image entry is one image, not a set of images:
    an element, a polynomial, a string or a sequence of rationals."""
    return isinstance(value, (str, Polynomial, AlgebraElement)) or (
        isinstance(value, Sequence) and all(isinstance(c, Rational) for c in value)
    )


def triangularize(hom: TruncatedHom, elements: Sequence[AlgebraElement]):
    """Replace an independent family by one with the staircase profile.

    The output spans the same subspace; the first d members have strictly
    increasing finite valuations and the remaining ones map to zero,
    where d = n - dim(ker(hom) ∩ span).  Realized by `linalg.echelon` on
    the image coefficients, which takes at each t-order the first
    remaining member whose image has that order; the pivot members are
    returned as taken, then the rest in input order.
    """
    if not isinstance(hom, TruncatedHom):
        raise _foreign(hom, TruncatedHom)
    elements = _sequence(elements, "elements")
    for e in elements:
        if getattr(e, "space", None) is not hom.source:
            raise _foreign(e, AlgebraElement)
    if linalg.rank([e.coords for e in elements]) != len(elements):
        raise DependentInputError("input elements are linearly dependent")

    # rows [image | source]; elimination on the image columns carries the
    # same operations to the source coordinates
    width = hom.truncation + 1
    pivot_rows, rest = linalg.echelon(
        [hom.apply(e).coords + e.coords for e in elements], width
    )
    return [AlgebraElement._raw(hom.source, tuple(row[width:])) for row in pivot_rows + rest]


# -- hom search ---------------------------------------------------------------
#
# A strategy is a stream yielding one item per candidate it examines: the
# verified hom, or None for a rejected candidate.  search_homs alone caps,
# deduplicates and numbers what the streams yield.


def _profiles_of_degree(total: int, nvars: int, n_max: int):
    """Profiles in {1..n_max}^nvars summing to `total`, lexicographically."""
    if nvars == 0:
        if total == 0:
            yield ()
        return
    rest_min, rest_max = nvars - 1, (nvars - 1) * n_max
    for first in range(max(1, total - rest_max), min(n_max, total - rest_min) + 1):
        for rest in _profiles_of_degree(total - first, nvars - 1, n_max):
            yield (first,) + rest


def _monomial_profiles(nvars: int, n_max: int):
    """All of {1..n_max}^nvars by total degree, then lexicographically.

    The order of sorted(product(...), key=lambda p: (sum(p), p)), produced
    lazily: nothing is built for profiles the budget never reaches.
    """
    for total in range(nvars, nvars * n_max + 1):
        yield from _profiles_of_degree(total, nvars, n_max)


def _degree_groups(gens, profile, n_max: int, sure_singles: bool):
    """The degree groups of the generators at X_i -> c_i t^(e_i), e = profile.

    A term a*X^α of a generator maps to a*c^α*t^(e·α), so its t-degree
    e·α does not depend on the coefficients c; the terms of one generator
    with one degree form a group, whose image is its sum times t^degree.
    A group of one term is nonzero for every c when `sure_singles` (the
    pool has no zero).  Returns (bound, colliding): `bound` is the least
    degree of such a group, capped at n_max + 1, and `colliding` lists
    the other groups of degree below `bound` as
    (degree, [(exponents, a), ...]), lowest degree first.  A group of
    degree above n_max is left out: like a zero group it allows N = n_max.
    """
    bound = n_max + 1
    colliding = []
    for g in gens:
        by_degree: dict = {}
        for mono, a in g.terms.items():
            d = sum(e * p for e, p in zip(mono.exps, profile))
            by_degree.setdefault(d, []).append((mono.exps, a))
        for d, terms in by_degree.items():
            if sure_singles and len(terms) == 1:
                bound = min(bound, d)
            else:
                colliding.append((d, terms))
    colliding = [group for group in colliding if group[0] < bound]
    return bound, sorted(colliding, key=lambda group: group[0])


def _group_is_nonzero(terms, coeffs) -> bool:
    """Whether a degree group's terms a*c^α sum to a nonzero rational."""
    return sum(a * math.prod(c**e for c, e in zip(coeffs, exps) if e) for exps, a in terms) != 0


def _image_table(profile, pool, n):
    """The ring Q[t]/<t^(n+1)> and, for each variable i, one `_image_entry`
    per pool coefficient c: that of c*t^(e_i), or of the zero image for a
    zero c or an e_i above n."""
    target = TruncatedPolyAlgebra(n)
    return target, [
        [_image_entry(target, i, [(e, c)] if e <= n and c else []) for c in pool]
        for i, e in enumerate(profile)
    ]


def _monomial_stream(algebra, n_max, pool, seed, user_images):
    """X_i -> c_i t^(e_i) over all exponent profiles, largest valid target.

    The candidate's N is one less than the least degree, at most n_max,
    of a nonzero degree group of some generator (`_degree_groups`), and
    n_max if there is none.  The groups are computed once per profile, and
    N is bound - 1 unless a colliding group decides it: only the colliding
    groups, whose terms share a degree below that bound and so may cancel,
    are evaluated with Fractions for each coefficient tuple, lowest degree
    first.  Every candidate takes one entry per variable, by pool index,
    from the profile's `_image_table` for its N, so the single-term images
    and what they say are made once per table.  Candidates run in the order
    of the product of a table's rows, so those at N = bound - 1 take their
    entries from that product as it runs.
    """
    nvars = len(algebra.variables)
    sure_singles = all(pool)
    for profile in _monomial_profiles(nvars, n_max):
        bound, colliding = _degree_groups(algebra.gens, profile, n_max, sure_singles)
        top = bound - 1
        tables = {top: _image_table(profile, pool, top)} if top > 0 else {}
        # below N = 1 every candidate is None, and rows of the pool keep the pace
        target, rows = tables.get(top, (None, [pool] * nvars))
        for picks, entries in zip(iter_product(range(len(pool)), repeat=nvars), iter_product(*rows)):
            n = top
            if colliding:
                coeffs = [pool[p] for p in picks]
                n = next((d - 1 for d, terms in colliding if _group_is_nonzero(terms, coeffs)), n)
            if n < 1:
                yield None
            elif n == top:
                yield TruncatedHom._raw(algebra, target, entries)
            else:
                if n not in tables:
                    tables[n] = _image_table(profile, pool, n)
                lowered, table = tables[n]
                yield TruncatedHom._raw(algebra, lowered, map(list.__getitem__, table, picks))


def _dense_random_stream(algebra, n_max, pool, seed, user_images):
    """Random polynomial images of positive order, verified exactly.

    Each image is drawn as its (k, c) pairs, lowest k first.  Its terms are
    the pairs with c nonzero, all of them for a pool without 0 (otherwise 0
    may be drawn even at the lead), so its t-order is that of its first
    term.  On a monomial presentation, every generator one term a*X^α, the
    orders decide the candidate before anything is built: a*X^α maps to
    a*∏lc_i^α_i*t^(α·orders) plus higher terms, nonzero exactly when
    α·orders <= N (Q is a domain).  Any other presentation is verified by
    `violation()`; the ROADMAP's per-generator order rule would replace that
    for every presentation once perfbench stops keeping each pass's report
    text.  A yielded hom is built from the terms, one `_image_entry` per
    image.
    """
    rng = random.Random(f"{seed}:dense-random:{n_max}")
    # CPython 3.10-3.13 draw randint(1, n) as 1 + _randbelow(n) and choice(pool)
    # as pool[_randbelow(len(pool))], so these consume the rng as those calls do
    below, uniform, size = rng._randbelow, rng.random, len(pool)
    nonzero_pool = all(pool)
    nvars = len(algebra.variables)
    monomial = all(len(g.terms) == 1 for g in algebra.gens)
    gen_exps = [mono.exps for g in algebra.gens for mono in g.terms] if monomial else ()
    rings = {}  # the constructor's checks cost more than the lookup
    while True:
        n = 1 + below(n_max)
        drawn = []
        for _ in range(nvars):
            lead = 1 + below(n)
            drawn.append([(k, pool[below(size)]) for k in range(lead, min(n, lead + 4) + 1)
                          if k == lead or uniform() < 0.4])
        terms = drawn if nonzero_pool else [[(k, c) for k, c in pairs if c] for pairs in drawn]
        if monomial:
            orders = [t[0][0] if t else n + 1 for t in terms]
            if any(sum(map(mul, a, orders)) <= n for a in gen_exps):
                yield None
                continue
        if n not in rings:
            rings[n] = TruncatedPolyAlgebra(n)
        target = rings[n]
        hom = TruncatedHom._raw(algebra, target, [_image_entry(target, i, t) for i, t in enumerate(terms)])
        yield hom if monomial or hom.violation() is None else None


def _user_stream(algebra, n_max, pool, seed, user_images):
    """The supplied image sets, each verified at truncation n_max.

    An entry that is already a `TruncatedHom` of the algebra at n_max is
    taken as verified and yielded as a copy sharing its images, t-orders,
    key and leads, so the search never changes a hom it was given.
    """
    for image_set in [user_images] if _is_image(user_images[0]) else user_images:
        if isinstance(image_set, TruncatedHom):
            if image_set.source is not algebra or image_set.truncation != n_max:
                raise IncompatibleAlgebrasError("user hom has another source or truncation")
            from copy import copy  # here, not at import: only a search handed homs needs it
            hom = copy(image_set)
            hom._monomial_images, hom.gen_seq = {}, -1
            yield hom
            continue
        try:
            hom = make_hom(algebra, n_max, image_set)
        except RelationViolatedError:
            hom = None
        yield hom


_STRATEGIES = {
    "monomial": _monomial_stream,
    "dense-random": _dense_random_stream,
    "user": _user_stream,
}


def _search_settings(n_max, strategy, budget, images, coefficient_pool=None):
    """A search's strategies, budgets, pool and user images; raises as
    `search_homs` documents."""
    strategies = (strategy,) if isinstance(strategy, str) else _sequence(strategy, "strategy")
    if not all(isinstance(s, str) for s in strategies):
        raise InvalidArgumentError(f"a strategy is named by a str, got {strategy!r}")
    budgets = budget if isinstance(budget, dict) else dict.fromkeys(strategies, budget)
    unknown = [s for s in (*strategies, *budgets) if s not in _STRATEGIES]
    _require_integer(n_max, "n_max", 1)
    for b in budgets.values():
        _require_integer(b, "budget")
    if unknown:
        raise InvalidArgumentError(
            f"unknown strategy {unknown[0]!r}; expected one of {', '.join(_STRATEGIES)}"
        )
    if not strategies:
        raise InvalidArgumentError(f"no strategy given; expected one of {', '.join(_STRATEGIES)}")
    if "user" in strategies:
        images = () if images is None else _sequence(images, "images")
        if not images:
            raise InvalidArgumentError("the user strategy needs images")
    if any(b < 0 for b in budgets.values()):
        raise InvalidArgumentError(f"budget must be >= 0, got {min(budgets.values())}")
    pool = DEFAULT_COEFF_POOL
    if coefficient_pool is not None:
        pool = _fractions(coefficient_pool, "the coefficient pool")
    if not pool and {"monomial", "dense-random"} & set(strategies):
        raise InvalidArgumentError("the coefficient pool is empty")
    return strategies, budgets, pool, images


def search_homs(
    algebra: ArtinAlgebra,
    n_max: int,
    strategy="monomial",
    budget=20000,
    seed: int = 0,
    images=None,
    coefficient_pool: Sequence | None = None,
):
    """Search verified homomorphisms into truncated rings with N <= n_max.

    Strategies: "monomial" enumerates X_i -> c_i t^(e_i) profiles
    (coefficients from a fixed rational pool) and pairs each with the
    largest truncation it verifies at, read from the generators' terms
    grouped by t-degree once per profile (Fractions only for groups whose
    terms share a degree), every candidate taken from an image table
    built once per profile and N, so each variable's images are built once
    per table;
    "dense-random" rejection-samples seeded random images of positive
    order, decided on a monomial presentation (every generator one term)
    by the images' t-orders alone, before any image is built, and verified
    exactly otherwise; every hom, drawn or not, holds its `image_orders`,
    dedup key `_key` and single-term leads `_leads` from the moment it is
    built (`_image_entry`);
    "user" verifies explicitly supplied images and keeps the valid ones:
    `images` is one image set (the images of `make_hom`; a sequence of
    rationals is one image) or a list of image sets, and a supplied
    `TruncatedHom` is taken as verified and kept as a copy, so the search
    never changes a hom it was given.  The budget caps the
    number of candidates examined per strategy, "user" included (an
    int, or a mapping from strategy name to int; a strategy missing from
    the mapping gets 0).  Candidates are streamed, so a strategy does no
    work beyond its budget.  Results are deduplicated by exact values on
    the homs' `_key`, and returned in the order of the
    canonical key (N, images) of `TruncatedHom.key`, compared as integers
    by `_sorted_by_key`; each hom's `gen_seq` is the number of homs kept
    before it.  An empty list is a legitimate outcome.

    "monomial" and "dense-random" propose only images of positive
    t-order, so they find nothing on an algebra whose point lies away
    from the origin, such as Q[X]/<(X-1)^3>, where every hom sends X to
    1 plus an element of positive order; give such images through "user".

    Raises InvalidArgumentError, before examining any candidate, for
    a strategy that is neither a name nor a sequence of names, an n_max
    or a budget that is not an int, n_max < 1, no strategy, an unknown
    strategy name (as a strategy or as a budget key), "user" without
    images or with images that are no sequence, a negative budget, an
    unreadable pool entry or an empty pool for "monomial" or "dense-random".
    """
    strategies, budgets, pool, images = _search_settings(n_max, strategy, budget, images, coefficient_pool)
    _require_local(algebra, "hom search needs a local algebra over Q")
    found: dict = {}
    for strat in strategies:
        stream = _STRATEGIES[strat](algebra, n_max, pool, seed, images)
        for hom in islice(stream, budgets.get(strat, 0)):
            if hom is not None and found.setdefault(hom._key, hom) is hom:
                hom.gen_seq = len(found) - 1
    return _sorted_by_key(found, len(algebra.variables))


def _sorted_by_key(found: dict, nvars: int) -> list:
    """The homs of {`_key`: hom}, of `nvars` images each, in `key()` order,
    compared as integers: every coefficient times the lcm of all the
    denominators is an integer, and that scaling keeps their order.  So the
    dense list of scaled coefficients of each key orders the homs of one N
    as `key()` does.  The homs are sorted one N at a time, which holds only
    that N's dense lists at once."""
    scale = math.lcm(*{den for key in found for den in key[3::3]})
    by_truncation: dict = {}
    for key in found:
        by_truncation.setdefault(key[0], []).append(key)

    def dense(key):
        coeffs = [0] * (nvars * (key[0] + 1))
        for k, num, den in zip(key[1::3], key[2::3], key[3::3]):
            coeffs[k] = num * (scale // den)
        return coeffs

    return [found[key] for n in sorted(by_truncation)
            for key in sorted(by_truncation[n], key=dense)]
