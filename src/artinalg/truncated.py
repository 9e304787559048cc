"""Truncated polynomial rings Q[t]/<t^(N+1)>, valuations and hom search.

The ring Q[t]/<t^(N+1)> is a `TruncatedPolyAlgebra`, an `ArtinAlgebra`
whose elements are `AlgebraElement`s holding the coefficients of t^k;
it differs from a presented quotient only in how it multiplies (by
truncated convolution; see the class for why).

A homomorphism from a quotient algebra into a truncated ring is a
`TruncatedHom`: an `algebra.AlgebraMap`, stored by the images of the
source variables and verified the same way, plus what reads the truncated
target (truncation, valuation, the search key and report records).  The
associated truncated valuation of an element is the t-order of its image, with
infinity on the kernel.  Valuations take values in {0, ..., N, oo} whose
addition saturates: sums exceeding the truncation bound are infinite,
matching the fact that such products vanish in the ring.

A note on one law: for these valuations v(a+b) >= min(v(a), v(b)); the
reverse inequality sometimes quoted for classical valuations is not what
the definition gives here (adding elements can only increase the t-order
of the lowest surviving term).
"""

from __future__ import annotations

import math
import random
from fractions import Fraction
from itertools import islice, product as iter_product
from numbers import Rational
from typing import Iterable, Sequence

from . import linalg
from .algebra import AlgebraElement, AlgebraMap, ArtinAlgebra, _fraction, _fractions, is_local_over_q
from .errors import (
    DependentInputError,
    IncompatibleAlgebrasError,
    InvalidArgumentError,
    NotLocalOverQError,
    RelationViolatedError,
)
from .groebner import GroebnerBasis, StandardMonomialBasis
from .polycore import Monomial, MonomialOrder, Polynomial

ZERO = Fraction(0)
ONE = Fraction(1)

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
    """The ring Q[t]/<t^(N+1)> for a fixed truncation N >= 0.

    An ArtinAlgebra over ("t",) with Groebner basis {t^(N+1)} and basis
    1, t, ..., t^N, so coordinates are the coefficients of t^k.  There is
    one ring per N.  It is the one subclass with its own `multiply_coords`,
    truncated convolution: the generic product over sparse structure
    constants gives the same coordinates, but made the hom-sweep and
    staircase benchmark jobs, which multiply mostly here, 3% and 8%
    slower.  The inherited `products` property derives the table only
    if a structural function reads it.
    """

    _rings: dict = {}

    def __new__(cls, truncation: int):
        ring = cls._rings.get(truncation)
        if ring is None:
            if truncation < 0:
                raise InvalidArgumentError(f"truncation must be >= 0, got {truncation}")
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
        coeffs = [ZERO] * (self.truncation + 1)
        if 0 <= exponent <= self.truncation:
            coeffs[exponent] = _fraction(coefficient)
        return AlgebraElement._raw(self, tuple(coeffs))

    def from_coeffs(self, coeffs: Iterable) -> AlgebraElement:
        """The element with these t^k coefficients, padded or cut to length N+1."""
        coeffs = list(_fractions(coeffs)[: self.truncation + 1])
        coeffs += [ZERO] * (self.truncation + 1 - len(coeffs))
        return AlgebraElement._raw(self, tuple(coeffs))

    def t_order(self, element: AlgebraElement) -> int | None:
        """The least k with a nonzero t^k coefficient, None for zero.

        An element is a unit exactly when its t-order is 0.
        """
        if element not in self:
            raise IncompatibleAlgebrasError("element of a different ring")
        return next((k for k, c in enumerate(element.coords) if c), None)

    def __repr__(self):
        return f"<Q[t]/<t^{self.truncation + 1}>>"


class TruncValue:
    """A value in {0, 1, ..., N, oo} with saturating addition."""

    __slots__ = ("value",)

    def __init__(self, value: int | None):
        if value is not None and value < 0:
            raise ValueError("finite valuation must be >= 0")
        self.value = value

    @classmethod
    def infinity(cls) -> "TruncValue":
        return cls(None)

    @classmethod
    def finite(cls, value: int) -> "TruncValue":
        return cls(int(value))

    @property
    def is_infinite(self) -> bool:
        return self.value is None

    def add(self, other: "TruncValue", cap: int) -> "TruncValue":
        """Monoid addition saturating above the truncation bound."""
        if self.is_infinite or other.is_infinite:
            return TruncValue(None)
        s = self.value + other.value
        return TruncValue(None) if s > cap else TruncValue(s)

    def __eq__(self, other):
        return isinstance(other, TruncValue) and self.value == other.value

    def __lt__(self, other):
        if self.is_infinite:
            return False
        if other.is_infinite:
            return True
        return self.value < other.value

    def __le__(self, other):
        return self == other or self < other

    def __gt__(self, other):
        return not self <= other

    def __ge__(self, other):
        return not self < other

    def __hash__(self):
        return hash(("TruncValue", self.value))

    def __str__(self):
        return "oo" if self.is_infinite else str(self.value)

    def __repr__(self):
        return f"TruncValue({self})"


class TruncatedHom(AlgebraMap):
    """An AlgebraMap into Q[t]/<t^(N+1)>, with its truncated valuation.

    `gen_seq` is the number of homs a search kept before this one; it is
    -1 for a hom built outside `search_homs`.
    """

    __slots__ = ("gen_seq", "_orders")

    def __init__(self, source: ArtinAlgebra, target: TruncatedPolyAlgebra, images, verify: bool = True):
        # set before AlgebraMap.__init__, which may verify and so evaluate
        self._orders = None
        super().__init__(source, target, images, verify)
        self.gen_seq = -1

    def image_orders(self) -> tuple:
        """The t-order of each variable image, N+1 for a zero image; computed once.

        The image of x^a has t-order sum(a_i * orders[i]) whenever that sum
        is at most N (Q is a domain), and is zero otherwise.
        """
        orders = self._orders
        if orders is None:
            cap = self.truncation + 1
            orders = self._orders = tuple(
                next((k for k, c in enumerate(img.coords) if c), cap) for img in self.images
            )
        return orders

    def evaluate_monomial(self, exps: Sequence[int]):
        """The image of a monomial; zero without multiplying when the t-orders
        of its factors sum past N (see `image_orders`)."""
        orders = self._orders or self.image_orders()
        if sum(e * o for e, o in zip(exps, orders)) > self.truncation:
            return self.target.zero()
        return AlgebraMap.evaluate_monomial(self, exps)

    # perfbench/tracing.py times `apply` (its `truncated.apply` span) only
    # where `vars(TruncatedHom)` holds it, so it is bound here too.
    apply = AlgebraMap.apply

    @property
    def truncation(self) -> int:
        return self.target.truncation

    def valuation(self, element: AlgebraElement) -> TruncValue:
        return TruncValue(self.target.t_order(self.apply(element)))

    def key(self):
        """Canonical sort/dedup key: (N, image coefficient tuples)."""
        return (self.truncation, tuple(img.coords for img in self.images))

    def to_record(self) -> dict:
        return {
            "N": self.truncation,
            "images": [[str(c) for c in img.coords] for img in self.images],
        }

    def describe(self) -> str:
        pieces = [
            f"{name} -> {img.to_polynomial().to_string()}"
            for name, img in zip(self.source.variables, self.images)
        ]
        return f"[N={self.truncation}] " + ", ".join(pieces)


def make_hom(algebra: ArtinAlgebra, truncation: int, images) -> TruncatedHom:
    """Build and verify a homomorphism from generator images.

    `images` entries may be elements of the target ring, coefficient
    sequences, polynomials in t, or strings like "t^2".  Raises
    InvalidArgumentError naming an entry that is none of these, and
    RelationViolatedError naming the first violated generator.
    """
    target = TruncatedPolyAlgebra(truncation)
    normalized = []
    for img in images:
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
    elements = list(elements)
    if not elements:
        return []
    algebra = elements[0].algebra
    for e in elements:
        if e.algebra is not algebra:
            raise IncompatibleAlgebrasError("elements of different algebras")
    if linalg.rank([e.coords for e in elements]) != len(elements):
        raise DependentInputError("input elements are linearly dependent")

    # rows [image | source]; elimination on the image columns carries the
    # same operations to the source coordinates
    width = hom.truncation + 1
    pivot_rows, rest = linalg.echelon(
        [hom.apply(e).coords + e.coords for e in elements], width
    )
    return [AlgebraElement._raw(algebra, tuple(row[width:])) for row in pivot_rows + rest]


# -- hom search ---------------------------------------------------------------
#
# A strategy is a stream yielding one item per candidate it examines: the
# verified hom, or None for a rejected candidate.  search_homs alone caps,
# deduplicates and numbers what the streams yield.


def _monomial_residual_order(gen: Polynomial, exponents, coefficients) -> int | None:
    """Exact t-order of gen evaluated at X_i -> c_i t^(e_i); None if zero."""
    acc: dict[int, Fraction] = {}
    for mono, c in gen.terms.items():
        deg = 0
        val = c
        for e, exp_profile, coeff in zip(mono.exps, exponents, coefficients):
            if e:
                deg += e * exp_profile
                val *= coeff ** e
        s = acc.get(deg, ZERO) + val
        if not s:
            acc.pop(deg, None)
        else:
            acc[deg] = s
    if not acc:
        return None
    return min(acc)


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


def _monomial_stream(algebra, n_max, pool, seed, user_images):
    """X_i -> c_i t^(e_i) over all exponent profiles, largest valid target."""
    nvars = len(algebra.variables)
    for profile in _monomial_profiles(nvars, n_max):
        for coeffs in iter_product(pool, repeat=nvars):
            orders = [
                _monomial_residual_order(g, profile, coeffs) for g in algebra.gens
            ]
            finite = [o for o in orders if o is not None]
            n = n_max if not finite else min(min(finite) - 1, n_max)
            if n < 1:
                yield None
                continue
            target = TruncatedPolyAlgebra(n)
            images = tuple(
                target.t_power(e, c) for e, c in zip(profile, coeffs)
            )
            yield TruncatedHom(algebra, target, images, verify=False)


def _dense_random_stream(algebra, n_max, pool, seed, user_images):
    """Random polynomial images of positive order, exactly verified."""
    rng = random.Random(f"{seed}:dense-random:{n_max}")
    nvars = len(algebra.variables)
    while True:
        n = rng.randint(1, n_max)
        target = TruncatedPolyAlgebra(n)
        images = []
        for _ in range(nvars):
            lead = rng.randint(1, n)
            coeffs = [ZERO] * (n + 1)
            coeffs[lead] = rng.choice(pool)
            for k in range(lead + 1, min(n, lead + 4) + 1):
                if rng.random() < 0.4:
                    coeffs[k] = rng.choice(pool)
            images.append(AlgebraElement(target, coeffs))
        probe = TruncatedHom(algebra, target, images, verify=False)
        yield probe if probe.violation() is None else None


def _user_stream(algebra, n_max, pool, seed, user_images):
    """The supplied image sets, each verified at truncation n_max.

    An entry that is already a `TruncatedHom` of the algebra at n_max is
    taken as verified and yielded as it is.
    """
    if not user_images:
        return
    for image_set in [user_images] if _is_image(user_images[0]) else user_images:
        if isinstance(image_set, TruncatedHom):
            if image_set.source is not algebra or image_set.truncation != n_max:
                raise IncompatibleAlgebrasError("user hom has another source or truncation")
            yield image_set
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
    largest truncation it verifies at; "dense-random" rejection-samples
    seeded random images of positive order; "user" verifies explicitly
    supplied images and keeps the valid ones: `images` is one image set
    (the images of `make_hom`; a sequence of rationals is one image) or
    a list of image sets, and a supplied `TruncatedHom` is taken as
    verified.  The budget caps the
    number of candidates examined per strategy, "user" included (an
    int, or a mapping from strategy name to int; a strategy missing from
    the mapping gets 0).  Candidates are streamed, so a strategy does no
    work beyond its budget.  Results are deduplicated by the canonical
    key (N, images) and sorted by it; each hom's `gen_seq` is the number
    of homs kept before it.  An empty list is a legitimate outcome.

    Raises InvalidArgumentError, before examining any candidate, for
    n_max < 1, an unknown strategy name or a negative budget.
    """
    strategies = (strategy,) if isinstance(strategy, str) else tuple(strategy)
    budgets = budget if isinstance(budget, dict) else dict.fromkeys(strategies, budget)
    unknown = [s for s in strategies if s not in _STRATEGIES]
    if n_max < 1:
        raise InvalidArgumentError(f"n_max must be >= 1, got {n_max}")
    if unknown:
        raise InvalidArgumentError(
            f"unknown strategy {unknown[0]!r}; expected one of {', '.join(_STRATEGIES)}"
        )
    if any(b < 0 for b in budgets.values()):
        raise InvalidArgumentError(f"budget must be >= 0, got {min(budgets.values())}")
    if not is_local_over_q(algebra):
        raise NotLocalOverQError("hom search needs a local algebra over Q")
    pool = tuple(coefficient_pool) if coefficient_pool is not None else DEFAULT_COEFF_POOL
    found: dict = {}
    for strat in strategies:
        stream = _STRATEGIES[strat](algebra, n_max, pool, seed, images)
        for hom in islice(stream, budgets.get(strat, 0)):
            if hom is not None and found.setdefault(hom.key(), hom) is hom:
                hom.gen_seq = len(found) - 1
    return _sorted_by_key(found.values())


def _sorted_by_key(homs):
    """The homs in the order of their `key()`, compared as integers.

    Every coefficient times the common denominator of all of them is an
    integer, and that scaling keeps their order.  Homs of one N have
    images of one length, so the flat tuple (N, scaled coefficients...)
    orders them as `key()` does.
    """
    homs = list(homs)
    scale = math.lcm(*{c.denominator for h in homs for img in h.images for c in img.coords})
    return sorted(
        homs,
        key=lambda h: (h.truncation, *(
            c.numerator * (scale // c.denominator) for img in h.images for c in img.coords
        )),
    )
