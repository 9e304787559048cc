"""Exact multivariate polynomial arithmetic over the rationals.

Coefficients are `fractions.Fraction` throughout and every operation is
exact; nothing in this package ever rounds.  A polynomial is a finite map
from monomials (exponent tuples over a fixed ambient variable list) to
nonzero rational coefficients.  Monomial orders are total, multiplicative
well-orders used by the Groebner layer to pick leading terms.

Text form: terms joined by `+`/`-`, each term an optional rational
coefficient followed by `*`-separated powers `VAR^k` (k >= 1, `^1` may be
omitted).  Whitespace is insignificant.  `parse_polynomial` and
`Polynomial.to_string` are mutually inverse on canonical forms.
"""

from __future__ import annotations

from fractions import Fraction
from typing import Iterable, Mapping, Sequence

from .errors import (
    InvalidArgumentError,
    PolynomialSyntaxError,
    UnknownVariableError,
    VariableMismatchError,
)

ZERO = Fraction(0)
ONE = Fraction(1)


class Monomial:
    """An exponent tuple over an ambient variable list."""

    __slots__ = ("exps",)

    def __init__(self, exps: Iterable[int]):
        exps = tuple(int(e) for e in exps)
        if any(e < 0 for e in exps):
            raise ValueError(f"negative exponent in {exps}")
        self.exps = exps

    @property
    def degree(self) -> int:
        return sum(self.exps)

    def is_one(self) -> bool:
        return all(e == 0 for e in self.exps)

    def __mul__(self, other: "Monomial") -> "Monomial":
        return Monomial(a + b for a, b in zip(self.exps, other.exps))

    def divides(self, other: "Monomial") -> bool:
        return all(a <= b for a, b in zip(self.exps, other.exps))

    def quotient(self, other: "Monomial") -> "Monomial":
        """self / other; caller guarantees divisibility."""
        return Monomial(a - b for a, b in zip(self.exps, other.exps))

    def lcm(self, other: "Monomial") -> "Monomial":
        return Monomial(max(a, b) for a, b in zip(self.exps, other.exps))

    def __eq__(self, other) -> bool:
        return isinstance(other, Monomial) and self.exps == other.exps

    def __hash__(self) -> int:
        return hash(self.exps)

    def as_string(self, variables: Sequence[str]) -> str:
        parts = []
        for name, e in zip(variables, self.exps):
            if e == 1:
                parts.append(name)
            elif e > 1:
                parts.append(f"{name}^{e}")
        return "*".join(parts) if parts else "1"

    def __repr__(self) -> str:
        return f"Monomial{self.exps}"


class MonomialOrder:
    """A total multiplicative well-order on monomials.

    `kind` is "grevlex" (graded reverse lexicographic, the default
    everywhere) or "lex".  `variables` lists the variables in decreasing
    significance; it fixes which exponent slot ties break on.
    """

    GREVLEX = "grevlex"
    LEX = "lex"

    __slots__ = ("kind", "variables")

    def __init__(self, kind: str, variables: Sequence[str]):
        if kind not in (self.GREVLEX, self.LEX):
            raise ValueError(f"unknown order kind {kind!r}")
        self.kind = kind
        self.variables = tuple(variables)

    @classmethod
    def grevlex(cls, variables: Sequence[str]) -> "MonomialOrder":
        return cls(cls.GREVLEX, variables)

    @classmethod
    def lex(cls, variables: Sequence[str]) -> "MonomialOrder":
        return cls(cls.LEX, variables)

    def permutation_for(self, ambient: Sequence[str]) -> tuple:
        if sorted(self.variables) != sorted(ambient):
            raise VariableMismatchError(
                f"order over {self.variables} used with ambient {tuple(ambient)}"
            )
        index = {name: i for i, name in enumerate(ambient)}
        return tuple(index[name] for name in self.variables)

    def key_function(self, ambient: Sequence[str]):
        """Sort key; larger key = larger monomial."""
        perm = self.permutation_for(ambient)
        if self.kind == self.LEX:
            def key(mono: Monomial):
                return tuple(mono.exps[i] for i in perm)
        else:
            def key(mono: Monomial):
                exps = mono.exps
                return (
                    sum(exps),
                    tuple(-exps[i] for i in reversed(perm)),
                )
        return key

    def __eq__(self, other) -> bool:
        return (
            isinstance(other, MonomialOrder)
            and self.kind == other.kind
            and self.variables == other.variables
        )

    def __hash__(self) -> int:
        return hash((self.kind, self.variables))

    def __repr__(self) -> str:
        return f"MonomialOrder({self.kind!r}, {self.variables})"


class Polynomial:
    """A finite rational linear combination of monomials.

    Instances are treated as immutable; all arithmetic returns fresh
    objects and never stores an explicit zero coefficient.
    """

    __slots__ = ("variables", "terms")

    def __init__(self, variables: Sequence[str], terms: Mapping[Monomial, Fraction]):
        self.variables = tuple(variables)
        clean = {}
        for mono, coeff in terms.items():
            if len(mono.exps) != len(self.variables):
                raise VariableMismatchError(
                    f"monomial {mono} has wrong arity for {self.variables}"
                )
            c = Fraction(coeff)
            if c != 0:
                clean[mono] = c
        self.terms = clean

    # -- constructors -------------------------------------------------

    @classmethod
    def zero(cls, variables: Sequence[str]) -> "Polynomial":
        return cls(variables, {})

    @classmethod
    def constant(cls, variables: Sequence[str], value) -> "Polynomial":
        one = Monomial((0,) * len(tuple(variables)))
        return cls(variables, {one: Fraction(value)})

    @classmethod
    def variable(cls, variables: Sequence[str], name: str) -> "Polynomial":
        variables = tuple(variables)
        if name not in variables:
            raise UnknownVariableError(f"unknown variable {name!r}")
        exps = [0] * len(variables)
        exps[variables.index(name)] = 1
        return cls(variables, {Monomial(exps): ONE})

    @classmethod
    def from_monomial(cls, variables: Sequence[str], mono: Monomial, coeff=ONE) -> "Polynomial":
        return cls(variables, {mono: Fraction(coeff)})

    # -- predicates ----------------------------------------------------

    def is_zero(self) -> bool:
        return not self.terms

    def total_degree(self) -> int:
        """Degree of the zero polynomial is -1 by convention."""
        if not self.terms:
            return -1
        return max(m.degree for m in self.terms)

    def is_homogeneous(self) -> bool:
        degrees = {m.degree for m in self.terms}
        return len(degrees) <= 1

    def _check(self, other: "Polynomial"):
        if self.variables != other.variables:
            raise VariableMismatchError(
                f"operands over {self.variables} vs {other.variables}"
            )

    # -- ring operations ------------------------------------------------

    def __add__(self, other: "Polynomial") -> "Polynomial":
        self._check(other)
        terms = dict(self.terms)
        for mono, c in other.terms.items():
            s = terms.get(mono, ZERO) + c
            if s == 0:
                terms.pop(mono, None)
            else:
                terms[mono] = s
        return Polynomial(self.variables, terms)

    def __sub__(self, other: "Polynomial") -> "Polynomial":
        self._check(other)
        terms = dict(self.terms)
        for mono, c in other.terms.items():
            s = terms.get(mono, ZERO) - c
            if s == 0:
                terms.pop(mono, None)
            else:
                terms[mono] = s
        return Polynomial(self.variables, terms)

    def __neg__(self) -> "Polynomial":
        return Polynomial(self.variables, {m: -c for m, c in self.terms.items()})

    def __mul__(self, other: "Polynomial") -> "Polynomial":
        self._check(other)
        terms: dict = {}
        for m1, c1 in self.terms.items():
            for m2, c2 in other.terms.items():
                prod = m1 * m2
                s = terms.get(prod, ZERO) + c1 * c2
                if s == 0:
                    terms.pop(prod, None)
                else:
                    terms[prod] = s
        return Polynomial(self.variables, terms)

    def scale(self, value) -> "Polynomial":
        c = Fraction(value)
        if c == 0:
            return Polynomial.zero(self.variables)
        return Polynomial(self.variables, {m: c * v for m, v in self.terms.items()})

    def __pow__(self, exponent: int) -> "Polynomial":
        if exponent < 0:
            raise ValueError("negative power of a polynomial")
        result = Polynomial.constant(self.variables, 1)
        for _ in range(exponent):
            result = result * self
        return result

    # -- order-dependent views -------------------------------------------

    def leading_monomial(self, order: MonomialOrder) -> Monomial:
        key = order.key_function(self.variables)
        return max(self.terms, key=key)

    def leading_coefficient(self, order: MonomialOrder) -> Fraction:
        return self.terms[self.leading_monomial(order)]

    def monic(self, order: MonomialOrder) -> "Polynomial":
        lc = self.leading_coefficient(order)
        if lc == 1:
            return self
        return self.scale(Fraction(1) / lc)

    def sorted_terms(self, order: MonomialOrder | None = None):
        """Terms from largest to smallest monomial."""
        if order is None:
            order = MonomialOrder.grevlex(self.variables)
        key = order.key_function(self.variables)
        return [(m, self.terms[m]) for m in sorted(self.terms, key=key, reverse=True)]

    # -- calculus -----------------------------------------------------------

    def partial_derivative(self, name: str) -> "Polynomial":
        if name not in self.variables:
            raise UnknownVariableError(f"unknown variable {name!r}")
        i = self.variables.index(name)
        terms: dict = {}
        for mono, c in self.terms.items():
            e = mono.exps[i]
            if e == 0:
                continue
            exps = list(mono.exps)
            exps[i] = e - 1
            terms[Monomial(exps)] = c * e
        return Polynomial(self.variables, terms)

    # -- equality and text ----------------------------------------------------

    def __eq__(self, other) -> bool:
        return (
            isinstance(other, Polynomial)
            and self.variables == other.variables
            and self.terms == other.terms
        )

    def __hash__(self) -> int:
        return hash((self.variables, frozenset(self.terms.items())))

    def to_string(self, order: MonomialOrder | None = None) -> str:
        if not self.terms:
            return "0"
        pieces = []
        for mono, coeff in self.sorted_terms(order):
            sign = "-" if coeff < 0 else "+"
            mag = -coeff if coeff < 0 else coeff
            if mono.is_one():
                body = str(mag)
            elif mag == 1:
                body = mono.as_string(self.variables)
            else:
                body = f"{mag}*{mono.as_string(self.variables)}"
            pieces.append((sign, body))
        first_sign, first_body = pieces[0]
        out = ("-" if first_sign == "-" else "") + first_body
        for sign, body in pieces[1:]:
            out += f" {sign} {body}"
        return out

    def __repr__(self) -> str:
        return f"<Polynomial {self.to_string()}>"


# -- parsing ---------------------------------------------------------------


def _tokenize(text: str):
    tokens = []
    i, n = 0, len(text)
    while i < n:
        ch = text[i]
        if ch.isspace():
            i += 1
        elif ch in "+-*/^()":
            tokens.append((ch, ch))
            i += 1
        elif ch.isdecimal():
            j = i
            while j < n and text[j].isdecimal():
                j += 1
            try:
                tokens.append(("int", int(text[i:j])))
            except ValueError as exc:  # beyond int()'s limit on decimal digits
                raise PolynomialSyntaxError(
                    f"number at position {i} has too many digits ({j - i})"
                ) from exc
            i = j
        elif ch.isalpha() or ch == "_":
            j = i
            while j < n and (text[j].isalnum() or text[j] == "_"):
                j += 1
            tokens.append(("name", text[i:j]))
            i = j
        else:
            raise PolynomialSyntaxError(f"unexpected character {ch!r} at position {i}")
    tokens.append(("end", ""))
    return tokens


def check_variables(variables: Sequence[str]) -> tuple:
    """The variables as a tuple, each a distinct name the parser can read.

    A name is what `_tokenize` reads as one: a letter or `_`, then letters,
    digits or `_`.  Raises InvalidArgumentError naming the first variable
    that is not a name or is listed twice.
    """
    variables = tuple(variables)
    for i, name in enumerate(variables):
        starts = isinstance(name, str) and (name[:1].isalpha() or name[:1] == "_")
        if not (starts and all(ch.isalnum() or ch == "_" for ch in name)):
            raise InvalidArgumentError(f"variable {name!r} is not a name")
        if name in variables[:i]:
            raise InvalidArgumentError(f"variable {name!r} is listed twice")
    return variables


def parse_polynomial(text: str, variables: Sequence[str]) -> Polynomial:
    """Parse the textual grammar into a canonical polynomial.

    Raises PolynomialSyntaxError on malformed input, UnknownVariableError
    for names outside `variables`, and rejects zero denominators.
    """
    variables = tuple(variables)
    index = {name: i for i, name in enumerate(variables)}
    tokens = _tokenize(text)
    pos = 0

    def peek():
        return tokens[pos][0]

    def take(kind=None):
        nonlocal pos
        tok = tokens[pos]
        if kind is not None and tok[0] != kind:
            raise PolynomialSyntaxError(
                f"expected {kind}, found {tok[1]!r} (token {pos})"
            )
        pos += 1
        return tok

    def parse_rational() -> Fraction:
        num = take("int")[1]
        if peek() == "/":
            take("/")
            den = take("int")[1]
            if den == 0:
                raise PolynomialSyntaxError("zero denominator")
            return Fraction(num, den)
        return Fraction(num)

    def parse_power():
        name = take("name")[1]
        if name not in index:
            raise UnknownVariableError(f"unknown variable {name!r}")
        exp = 1
        if peek() == "^":
            take("^")
            exp = take("int")[1]
            if exp < 1:
                raise PolynomialSyntaxError("exponent must be >= 1")
        return index[name], exp

    def parse_term():
        coeff = ONE
        exps = [0] * len(variables)
        saw_var = False
        if peek() == "int":
            coeff = parse_rational()
        else:
            i, e = parse_power()
            exps[i] += e
            saw_var = True
        while peek() == "*":
            take("*")
            if peek() == "int" and not saw_var:
                # several numeric factors in front are tolerated
                coeff *= parse_rational()
            else:
                i, e = parse_power()
                exps[i] += e
                saw_var = True
        return coeff, Monomial(exps)

    terms: dict = {}

    def accumulate(sign: int):
        coeff, mono = parse_term()
        s = terms.get(mono, ZERO) + sign * coeff
        if s == 0:
            terms.pop(mono, None)
        else:
            terms[mono] = s

    sign = 1
    if peek() in "+-":
        sign = -1 if take()[0] == "-" else 1
    if peek() == "end":
        raise PolynomialSyntaxError("empty polynomial text")
    accumulate(sign)
    while peek() != "end":
        op = take()
        if op[0] == "+":
            accumulate(1)
        elif op[0] == "-":
            accumulate(-1)
        else:
            raise PolynomialSyntaxError(f"unexpected {op[1]!r}")
    return Polynomial(variables, terms)

