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

Each datum has one reader: a value becomes a `Fraction` only in `_fraction`
(and the parser), an exponent or integer argument passes `_is_integer` (an
int, never a bool), and arithmetic builds monomials with `Monomial._raw`.
`ZERO` and `ONE` are the package's one exact zero and one: every module
imports them from here, so an identity test `c is ZERO` sees one zero.
"""

from __future__ import annotations

from collections.abc import Iterable, Mapping, Sequence
from fractions import Fraction
from operator import add, sub

from .errors import (
    IncompatibleAlgebrasError,
    InvalidArgumentError,
    PolynomialSyntaxError,
    UnknownVariableError,
    VariableMismatchError,
)

ZERO = Fraction(0)
ONE = Fraction(1)


def _is_integer(value) -> bool:
    """The one integer rule: an int, and a bool is not one."""
    return isinstance(value, int) and not isinstance(value, bool)


def _require_integer(value, name: str, minimum: int | None = None) -> None:
    """Raise InvalidArgumentError unless `value` passes `_is_integer`, and
    is at least `minimum` if one is given."""
    if not _is_integer(value):
        raise InvalidArgumentError(f"{name} must be an integer, got {value!r}")
    if minimum is not None and value < minimum:
        raise InvalidArgumentError(f"{name} must be >= {minimum}, got {value}")


def _fraction(value) -> Fraction:
    """A rational number; InvalidArgumentError naming a value that is none."""
    if type(value) is Fraction:
        return value
    try:
        return Fraction(value)
    except (TypeError, ValueError, ZeroDivisionError, OverflowError):
        raise InvalidArgumentError(f"cannot read the coordinate {value!r}") from None


def _sequence(values, what: str) -> tuple:
    """The values as a tuple; InvalidArgumentError naming them when they are no
    sequence or a `str`, whose characters would otherwise pass one by one."""
    if isinstance(values, str):
        raise InvalidArgumentError(f"{what} must be a sequence, got the string {values!r}")
    try:
        return tuple(values)
    except TypeError:
        raise InvalidArgumentError(f"{what} must be a sequence, got {values!r}") from None


def _foreign(value, kind):
    """The error for a value found outside the space it must lie in:
    IncompatibleAlgebrasError for a `kind` of another space, else InvalidArgumentError."""
    if isinstance(value, kind):
        return IncompatibleAlgebrasError(f"{kind.__name__} of another algebra")
    return InvalidArgumentError(f"expected {kind.__name__}, got {value!r}")


def _reject_operand(left, right):
    """Raise for an operator given an operand of another kind (README, semantics)."""
    raise InvalidArgumentError(
        f"cannot combine {type(left).__name__} with {right!r}; multiply by a number with scale()"
    )


class Monomial:
    """An exponent tuple over an ambient variable list."""

    __slots__ = ("exps",)

    def __init__(self, exps: Iterable[int]):
        """Exponents by `_is_integer`, each at least 0; an error names `exps` as given."""
        checked = _sequence(exps, "exponents")
        if not all(map(_is_integer, checked)):
            raise InvalidArgumentError(f"exponents must be integers, got {exps!r}")
        if any(e < 0 for e in checked):
            raise InvalidArgumentError(f"negative exponent in {exps!r}")
        self.exps = checked

    @classmethod
    def _raw(cls, exps: tuple) -> "Monomial":
        """Internal constructor; exps must already be a tuple of ints >= 0."""
        self = object.__new__(cls)
        self.exps = exps
        return self

    @property
    def degree(self) -> int:
        return sum(self.exps)

    def is_one(self) -> bool:
        return all(e == 0 for e in self.exps)

    def __mul__(self, other: "Monomial") -> "Monomial":
        return Monomial._raw(tuple(map(add, self.exps, other.exps)))

    def divides(self, other: "Monomial") -> bool:
        return all(a <= b for a, b in zip(self.exps, other.exps))

    def quotient(self, other: "Monomial") -> "Monomial":
        """self / other; caller guarantees divisibility."""
        return Monomial._raw(tuple(map(sub, self.exps, other.exps)))

    def lcm(self, other: "Monomial") -> "Monomial":
        return Monomial._raw(tuple(map(max, self.exps, other.exps)))

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
    significance; it fixes which exponent slot ties break on.  Raises
    InvalidArgumentError for another kind or variables `check_variables`
    does not read.
    """

    GREVLEX = "grevlex"
    LEX = "lex"

    __slots__ = ("kind", "variables")

    def __init__(self, kind: str, variables: Sequence[str]):
        if kind not in (self.GREVLEX, self.LEX):
            raise InvalidArgumentError(f"unknown order kind {kind!r}")
        self.kind = kind
        self.variables = check_variables(variables)

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
        self.variables = _sequence(variables, "variables")
        clean = {}
        try:
            for mono, coeff in terms.items():
                if len(mono.exps) != len(self.variables):
                    raise VariableMismatchError(
                        f"monomial {mono} has wrong arity for {self.variables}"
                    )
                c = _fraction(coeff)
                if c:
                    clean[mono] = c
        except AttributeError:
            raise InvalidArgumentError(f"terms must map Monomials to rationals, got {terms!r}") from None
        self.terms = clean

    # -- constructors -------------------------------------------------

    @classmethod
    def zero(cls, variables: Sequence[str]) -> "Polynomial":
        return cls(variables, {})

    @classmethod
    def constant(cls, variables: Sequence[str], value) -> "Polynomial":
        variables = _sequence(variables, "variables")
        return cls(variables, {Monomial((0,) * len(variables)): value})

    @classmethod
    def variable(cls, variables: Sequence[str], name: str) -> "Polynomial":
        variables = _sequence(variables, "variables")
        if name not in variables:
            raise UnknownVariableError(f"unknown variable {name!r}")
        exps = [0] * len(variables)
        exps[variables.index(name)] = 1
        return cls(variables, {Monomial(exps): ONE})

    @classmethod
    def from_monomial(cls, variables: Sequence[str], mono: Monomial, coeff=ONE) -> "Polynomial":
        return cls(variables, {mono: coeff})

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
        if not isinstance(other, Polynomial):
            _reject_operand(self, other)
        if self.variables != other.variables:
            raise VariableMismatchError(
                f"operands over {self.variables} vs {other.variables}"
            )

    # -- ring operations ------------------------------------------------

    def __add__(self, other: "Polynomial") -> "Polynomial":
        self._check(other)
        terms = dict(self.terms)
        for mono, c in other.terms.items():
            terms[mono] = terms.get(mono, ZERO) + c
        return Polynomial(self.variables, terms)  # drops the zero sums

    def __sub__(self, other: "Polynomial") -> "Polynomial":
        self._check(other)
        return self + -other

    def __neg__(self) -> "Polynomial":
        return Polynomial(self.variables, {m: -c for m, c in self.terms.items()})

    def __mul__(self, other: "Polynomial") -> "Polynomial":
        self._check(other)
        terms: dict = {}
        for m1, c1 in self.terms.items():
            for m2, c2 in other.terms.items():
                prod = m1 * m2
                terms[prod] = terms.get(prod, ZERO) + c1 * c2
        return Polynomial(self.variables, terms)

    def scale(self, value) -> "Polynomial":
        c = _fraction(value)
        return Polynomial(self.variables, {m: c * v for m, v in self.terms.items()})

    __radd__ = __rsub__ = __rmul__ = _reject_operand

    def __pow__(self, exponent: int) -> "Polynomial":
        _require_integer(exponent, "the power")
        if exponent < 0:
            raise InvalidArgumentError("negative power of a polynomial")
        result = Polynomial.constant(self.variables, 1)
        for _ in range(exponent):
            result = result * self
        return result

    # -- order-dependent views -------------------------------------------

    def leading_monomial(self, order: MonomialOrder) -> Monomial:
        """InvalidArgumentError for an order that is no MonomialOrder."""
        if not isinstance(order, MonomialOrder):
            raise _foreign(order, MonomialOrder)
        key = order.key_function(self.variables)
        return max(self.terms, key=key)

    def leading_coefficient(self, order: MonomialOrder) -> Fraction:
        return self.terms[self.leading_monomial(order)]

    def monic(self, order: MonomialOrder) -> "Polynomial":
        lc = self.leading_coefficient(order)
        if lc == 1:
            return self
        return self.scale(ONE / lc)

    def sorted_terms(self, order: MonomialOrder | None = None):
        """Terms from largest to smallest monomial; InvalidArgumentError for
        an order that is neither None nor a MonomialOrder."""
        if order is None:
            order = MonomialOrder.grevlex(self.variables)
        elif not isinstance(order, MonomialOrder):
            raise _foreign(order, MonomialOrder)
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
            terms[Monomial._raw(tuple(exps))] = c * e
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
            mag, name = abs(coeff), mono.as_string(self.variables)
            body = str(mag) if mono.is_one() else name if mag == 1 else f"{mag}*{name}"
            pieces.append(("- " if coeff < 0 else "+ ") + body)
        text = " ".join(pieces)  # "+ a - b ...": the first sign is written without its space
        return text[2:] if text[0] == "+" else "-" + text[2:]

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
    digits or `_`.  Raises InvalidArgumentError naming variables that are no
    sequence, or the first variable that is not a name or is listed twice.
    """
    variables = _sequence(variables, "variables")
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
    if not isinstance(text, str):
        raise InvalidArgumentError(f"polynomial text must be a string, got {text!r}")
    variables = _sequence(variables, "variables")
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

