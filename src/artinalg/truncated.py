"""Truncated polynomial rings Q[t]/<t^(N+1)>, valuations and hom search.

A verified homomorphism from a quotient algebra into a truncated ring is
stored by the images of the source variables; construction checks that
every ideal generator evaluates to zero, exactly.  The associated
truncated valuation of an element is the t-order of its image, with
infinity on the kernel.  Valuations take values in {0, ..., N, oo} whose
addition saturates: sums exceeding the truncation bound are infinite,
matching the fact that such products vanish in the ring.

A note on one law: for these valuations v(a+b) >= min(v(a), v(b)); the
reverse inequality sometimes quoted for classical valuations is not what
the definition gives here (adding elements can only increase the t-order
of the lowest surviving term).
"""

from __future__ import annotations

import random
from fractions import Fraction
from itertools import islice, product as iter_product
from typing import Iterable, Sequence

from . import linalg
from .algebra import AlgebraElement, AlgebraMap, ArtinAlgebra, is_local_over_q
from .errors import (
    DependentInputError,
    IncompatibleAlgebrasError,
    InvalidArgumentError,
    NotLocalOverQError,
    RelationViolatedError,
)
from .polycore import Polynomial, parse_polynomial

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


class TruncatedPolyAlgebra:
    """The ring Q[t]/<t^(N+1)> for a fixed truncation N >= 0."""

    __slots__ = ("truncation",)

    def __init__(self, truncation: int):
        if truncation < 0:
            raise InvalidArgumentError(f"truncation must be >= 0, got {truncation}")
        self.truncation = truncation

    def zero(self) -> "TruncatedPoly":
        return TruncatedPoly._raw(self.truncation, (ZERO,) * (self.truncation + 1))

    def one(self) -> "TruncatedPoly":
        coeffs = [ZERO] * (self.truncation + 1)
        coeffs[0] = ONE
        return TruncatedPoly._raw(self.truncation, tuple(coeffs))

    def t_power(self, exponent: int, coefficient=ONE) -> "TruncatedPoly":
        coeffs = [ZERO] * (self.truncation + 1)
        if 0 <= exponent <= self.truncation:
            coeffs[exponent] = Fraction(coefficient)
        return TruncatedPoly._raw(self.truncation, tuple(coeffs))

    def from_coeffs(self, coeffs: Iterable) -> "TruncatedPoly":
        coeffs = [Fraction(c) for c in coeffs]
        coeffs = coeffs[: self.truncation + 1]
        coeffs += [ZERO] * (self.truncation + 1 - len(coeffs))
        return TruncatedPoly(self.truncation, coeffs)

    def from_polynomial(self, p: Polynomial) -> "TruncatedPoly":
        """A univariate polynomial in t, truncated."""
        if len(p.variables) != 1:
            raise IncompatibleAlgebrasError("expected a polynomial in the single variable t")
        coeffs = [ZERO] * (self.truncation + 1)
        for mono, c in p.terms.items():
            e = mono.exps[0]
            if e <= self.truncation:
                coeffs[e] += c
        return TruncatedPoly(self.truncation, coeffs)

    def from_string(self, text: str) -> "TruncatedPoly":
        return self.from_polynomial(parse_polynomial(text, ("t",)))

    def __eq__(self, other):
        return isinstance(other, TruncatedPolyAlgebra) and self.truncation == other.truncation

    def __hash__(self):
        return hash(("TruncatedPolyAlgebra", self.truncation))

    def __repr__(self):
        return f"<Q[t]/<t^{self.truncation + 1}>>"


class TruncatedPoly:
    """An element of Q[t]/<t^(N+1)> as a dense coefficient vector."""

    __slots__ = ("truncation", "coeffs")

    def __init__(self, truncation: int, coeffs):
        coeffs = tuple(Fraction(c) for c in coeffs)
        if len(coeffs) != truncation + 1:
            raise IncompatibleAlgebrasError("coefficient vector has wrong length")
        self.truncation = truncation
        self.coeffs = coeffs

    @classmethod
    def _raw(cls, truncation: int, coeffs: tuple) -> "TruncatedPoly":
        """Internal constructor; coeffs must already be a Fraction tuple."""
        self = object.__new__(cls)
        self.truncation = truncation
        self.coeffs = coeffs
        return self

    def _check(self, other: "TruncatedPoly"):
        if self.truncation != other.truncation:
            raise IncompatibleAlgebrasError("elements of different truncations")

    def __add__(self, other):
        self._check(other)
        return TruncatedPoly._raw(
            self.truncation, tuple(a + b for a, b in zip(self.coeffs, other.coeffs))
        )

    def __sub__(self, other):
        self._check(other)
        return TruncatedPoly._raw(
            self.truncation, tuple(a - b for a, b in zip(self.coeffs, other.coeffs))
        )

    def __neg__(self):
        return TruncatedPoly._raw(self.truncation, tuple(-a for a in self.coeffs))

    def scale(self, value):
        c = Fraction(value)
        return TruncatedPoly._raw(self.truncation, tuple(c * a for a in self.coeffs))

    def __mul__(self, other):
        self._check(other)
        n = self.truncation
        out = [ZERO] * (n + 1)
        for i, a in enumerate(self.coeffs):
            if a == 0:
                continue
            top = n - i
            for j, b in enumerate(other.coeffs[: top + 1]):
                if b != 0:
                    out[i + j] += a * b
        return TruncatedPoly._raw(n, tuple(out))

    def __pow__(self, exponent: int):
        if exponent < 0:
            raise ValueError("negative power")
        coeffs = [ZERO] * (self.truncation + 1)
        coeffs[0] = ONE
        result = TruncatedPoly._raw(self.truncation, tuple(coeffs))
        base = self
        e = exponent
        while e:
            if e & 1:
                result = result * base
            base = base * base
            e >>= 1
        return result

    def is_zero(self) -> bool:
        return all(c == 0 for c in self.coeffs)

    def order(self) -> int | None:
        """t-order; None when the element is zero."""
        for i, c in enumerate(self.coeffs):
            if c != 0:
                return i
        return None

    def is_unit(self) -> bool:
        return self.coeffs[0] != 0

    def derivative_coeffs(self):
        """Coefficients of d/dt, indexed by degree (length N)."""
        return [self.coeffs[k] * k for k in range(1, self.truncation + 1)]

    def __eq__(self, other):
        return (
            isinstance(other, TruncatedPoly)
            and self.truncation == other.truncation
            and self.coeffs == other.coeffs
        )

    def __hash__(self):
        return hash((self.truncation, self.coeffs))

    def to_string(self) -> str:
        if self.is_zero():
            return "0"
        terms = {}
        from .polycore import Monomial

        for e, c in enumerate(self.coeffs):
            if c != 0:
                terms[Monomial((e,))] = c
        return Polynomial(("t",), terms).to_string()

    def __repr__(self):
        return f"<{self.to_string()} mod t^{self.truncation + 1}>"


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


class TruncatedHom:
    """A verified homomorphism from an ArtinAlgebra into Q[t]/<t^(N+1)>."""

    __slots__ = ("source", "target", "images", "verified", "_basis_images", "_power_cache", "gen_seq")

    def __init__(self, source: ArtinAlgebra, target: TruncatedPolyAlgebra, images, *, _preverified: bool = False, gen_seq: int = -1):
        if len(images) != len(source.variables):
            raise IncompatibleAlgebrasError("one image per source variable required")
        self.source = source
        self.target = target
        self.images = tuple(images)
        self._basis_images: list | None = None
        self._power_cache: dict = {}
        self.gen_seq = gen_seq
        if not _preverified:
            for g in source.gens:
                residual = self.evaluate_polynomial(g)
                if not residual.is_zero():
                    raise RelationViolatedError(g.to_string(source.order), residual)
        self.verified = True

    @property
    def truncation(self) -> int:
        return self.target.truncation

    def _image_power(self, var_index: int, exponent: int) -> TruncatedPoly:
        key = (var_index, exponent)
        cached = self._power_cache.get(key)
        if cached is None:
            cached = self.images[var_index] ** exponent
            self._power_cache[key] = cached
        return cached

    def evaluate_monomial(self, exps: Sequence[int]) -> TruncatedPoly:
        term = None
        for i, e in enumerate(exps):
            if e:
                power = self._image_power(i, e)
                term = power if term is None else term * power
        return self.target.one() if term is None else term

    def evaluate_polynomial(self, p: Polynomial) -> TruncatedPoly:
        total = self.target.zero()
        for mono, c in p.terms.items():
            total = total + self.evaluate_monomial(mono.exps).scale(c)
        return total

    def basis_image(self, i: int) -> TruncatedPoly:
        if self._basis_images is None:
            self._basis_images = [None] * self.source.dim
        cached = self._basis_images[i]
        if cached is None:
            cached = self.evaluate_monomial(self.source.basis[i].exps)
            self._basis_images[i] = cached
        return cached

    def apply(self, element: AlgebraElement) -> TruncatedPoly:
        if element.algebra is not self.source:
            raise IncompatibleAlgebrasError("element not in the source algebra")
        total = self.target.zero()
        for i, c in enumerate(element.coords):
            if c != 0:
                total = total + self.basis_image(i).scale(c)
        return total

    def valuation(self, element: AlgebraElement) -> TruncValue:
        return TruncValue(self.apply(element).order())

    def after(self, inner: AlgebraMap) -> "TruncatedHom":
        """Composite: first `inner`, then this hom."""
        if inner.target is not self.source:
            raise IncompatibleAlgebrasError("maps do not compose")
        images = [self.apply(img) for img in inner.var_images]
        return TruncatedHom(inner.source, self.target, images, _preverified=True)

    def key(self):
        """Canonical sort/dedup key: (N, image coefficient tuples)."""
        return (self.truncation, tuple(img.coeffs for img in self.images))

    def to_record(self) -> dict:
        return {
            "N": self.truncation,
            "images": [[str(c) for c in img.coeffs] for img in self.images],
        }

    def describe(self) -> str:
        pieces = [
            f"{name} -> {img.to_string()}"
            for name, img in zip(self.source.variables, self.images)
        ]
        return f"[N={self.truncation}] " + ", ".join(pieces)

    def __repr__(self):
        return f"<TruncatedHom {self.describe()}>"


def make_hom(algebra: ArtinAlgebra, truncation: int, images) -> TruncatedHom:
    """Build and verify a homomorphism from generator images.

    `images` entries may be TruncatedPoly values, coefficient sequences,
    polynomials in t, or strings like "t^2".  Raises
    RelationViolatedError naming the first violated generator.
    """
    target = TruncatedPolyAlgebra(truncation)
    normalized = []
    for img in images:
        if isinstance(img, TruncatedPoly):
            if img.truncation != truncation:
                raise IncompatibleAlgebrasError("image has wrong truncation")
            normalized.append(img)
        elif isinstance(img, Polynomial):
            normalized.append(target.from_polynomial(img))
        elif isinstance(img, str):
            normalized.append(target.from_string(img))
        else:
            normalized.append(target.from_coeffs(img))
    return TruncatedHom(algebra, target, normalized)


def triangularize(hom: TruncatedHom, elements: Sequence[AlgebraElement]):
    """Replace an independent family by one with the staircase profile.

    The output spans the same subspace; the first d members have strictly
    increasing finite valuations and the remaining ones map to zero,
    where d = n - dim(ker(hom) ∩ span).  Realized by row-reducing the
    image coefficient matrix while tracking the same operations on the
    source elements.
    """
    elements = list(elements)
    if not elements:
        return []
    algebra = elements[0].algebra
    for e in elements:
        if e.algebra is not algebra:
            raise IncompatibleAlgebrasError("elements of different algebras")
    if linalg.rank([list(e.coords) for e in elements]) != len(elements):
        raise DependentInputError("input elements are linearly dependent")

    rows = [[list(hom.apply(e).coeffs), e] for e in elements]
    finished = []
    while True:
        best = None
        for pos, (vec, _) in enumerate(rows):
            lead = next((i for i, c in enumerate(vec) if c != 0), None)
            if lead is None:
                continue
            if best is None or lead < best[0]:
                best = (lead, pos)
        if best is None:
            break
        lead, pos = best
        pivot_vec, pivot_elt = rows.pop(pos)
        pivot_lead_coeff = pivot_vec[lead]
        for row in rows:
            f = row[0][lead]
            if f != 0:
                factor = f / pivot_lead_coeff
                row[0] = [a - factor * b for a, b in zip(row[0], pivot_vec)]
                row[1] = row[1] - pivot_elt.scale(factor)
        finished.append(pivot_elt)
    finished.extend(elt for _, elt in rows)
    return finished


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
        if s == 0:
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


def _monomial_stream(algebra, n_max, pool, seed, user_images, found):
    """X_i -> c_i t^(e_i) over all exponent profiles, largest valid target.

    A candidate whose key is already in `found` is rejected before its hom
    is built.
    """
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
            key = (n, tuple(img.coeffs for img in images))
            yield None if key in found else TruncatedHom(
                algebra, target, images, _preverified=True
            )


def _dense_random_stream(algebra, n_max, pool, seed, user_images, found):
    """Random polynomial images of positive order, exactly verified."""
    rng = random.Random(f"{seed}:dense-random:{n_max}")
    nvars = len(algebra.variables)
    while True:
        n = rng.randint(1, n_max)
        images = []
        for _ in range(nvars):
            lead = rng.randint(1, n)
            coeffs = [ZERO] * (n + 1)
            coeffs[lead] = rng.choice(pool)
            for k in range(lead + 1, min(n, lead + 4) + 1):
                if rng.random() < 0.4:
                    coeffs[k] = rng.choice(pool)
            images.append(TruncatedPoly(n, coeffs))
        probe = TruncatedHom(algebra, TruncatedPolyAlgebra(n), images, _preverified=True)
        verified = all(probe.evaluate_polynomial(g).is_zero() for g in algebra.gens)
        yield probe if verified else None


def _user_stream(algebra, n_max, pool, seed, user_images, found):
    """The supplied image sets, each verified at truncation n_max."""
    if not user_images:
        return
    single = isinstance(user_images[0], (str, Polynomial, TruncatedPoly))
    for image_set in [user_images] if single else user_images:
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
    supplied images and keeps the valid ones.  The budget caps the
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
        stream = _STRATEGIES[strat](algebra, n_max, pool, seed, images, found)
        for hom in islice(stream, budgets.get(strat, 0)):
            if hom is not None and found.setdefault(hom.key(), hom) is hom:
                hom.gen_seq = len(found) - 1
    return sorted(found.values(), key=lambda h: h.key())
