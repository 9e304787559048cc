"""Witness constructions for torsion differentials of Artinian algebras.

The operations here assemble evidence objects:

* `critical_degree_search` looks for truncated-ring homomorphisms whose
  image keeps a graded component at least two-dimensional, reporting a
  search-certified lower bound next to the nilpotency-index upper bound.
  No exact algorithm for the maximum is known, so the report keeps both
  numbers.  The scan reads component ranks off the truncated valuations
  of the basis monomials (integer work) and eliminates only where those
  bounds leave the rank open; `reverify` recomputes every stored rank
  claim by elimination, which shares no code with the valuation rule.
* `surjection_to_q` rebuilds the staircase quotient Q(r) inside a given
  algebra from a witnessing hom and checks the expected isomorphism by
  explicit rank computations; a failed check is reported, not raised.
* `omega_witness` forms x^(r-1) (x dy - y dx), the candidate torsion
  differential of a standard graded algebra.
* `tau_membership_check` / `socle_kill_check` / `tau_witness_gorenstein`
  evaluate a witness against a family of verified homs: a single hom
  that fails to kill the witness would be a counterexample, so reports
  carry the violating hom explicitly.
"""

from __future__ import annotations

from operator import mul

from . import linalg
from .algebra import (
    AlgebraElement,
    AlgebraMap,
    ArtinAlgebra,
    _Record,
    _foreign,
    _require_graded,
    build_algebra,
    is_principal_ideal_algebra,
    quotient_algebra,
    socle,
)
from .errors import (
    DependentInputError,
    IncompatibleAlgebrasError,
    NotDegreeOneError,
    NotGorensteinError,
    PrincipalAlgebraError,
    WitnessInsufficientError,
)
from .kahler import DifferentialForm, kahler_module, pushforward
from .polycore import ZERO, _require_integer, _sequence
from .truncated import TruncatedHom, make_hom, triangularize


def q_algebra(r: int) -> ArtinAlgebra:
    """The staircase algebra Q[X,Y]/<X^(r+1), X^r Y, Y^2> of dimension 2r+1."""
    _require_integer(r, "r", 1)
    return build_algebra(("X", "Y"), [f"X^{r + 1}", f"X^{r}*Y", "Y^2"])


# -- critical degree ---------------------------------------------------------


class DegreeWitness(_Record):
    """A TruncatedHom `hom` and the int `rank` of its image of one component."""

    __slots__ = ("hom", "rank")


class CriticalDegreeReport(_Record):
    """Search-certified lower bound and nilpotency upper bound.

    `witnesses[i]` stores, for every achieved degree i, a verified hom
    whose image of the degree-i component has the recorded rank >= 2
    (a DegreeWitness).  The bounds and `homs_scanned` are ints,
    `degrees_achieved` a tuple of ints.
    """

    __slots__ = ("lower_bound", "upper_bound", "degrees_achieved", "witnesses", "homs_scanned")

    def reverify(self, algebra: ArtinAlgebra) -> bool:
        """Recompute every stored rank claim from scratch, by elimination.

        The scan took most ranks from valuations; this check ranks the
        basis images with `linalg.rank` instead.  Raises
        IncompatibleAlgebrasError when a witness is not a hom of `algebra`.
        """
        _homs_of(algebra, (w.hom for w in self.witnesses.values()), TruncatedHom)
        for degree, witness in self.witnesses.items():
            if witness.rank < 2 or _image_rank(algebra, witness.hom, degree) != witness.rank:
                return False
        return (
            self.lower_bound == max(self.degrees_achieved)
            and self.lower_bound <= self.upper_bound
        )

    def to_record(self) -> dict:
        return {
            "lower_bound": self.lower_bound,
            "upper_bound": self.upper_bound,
            "degrees_achieved": list(self.degrees_achieved),
            "witnesses": {
                str(degree): {"hom": w.hom.to_record(), "rank": w.rank}
                for degree, w in sorted(self.witnesses.items())
            },
            "homs_scanned": self.homs_scanned,
        }


def _homs_of(algebra: ArtinAlgebra, homs, kind=AlgebraMap) -> list:
    """The family as a list; IncompatibleAlgebrasError for the first member
    that is not a `kind` with source `algebra`."""
    homs = list(_sequence(homs, "the hom family"))
    for hom in homs:
        if not isinstance(hom, kind) or hom.source is not algebra:
            raise IncompatibleAlgebrasError(f"not a {kind.__name__} from the algebra: {hom!r}")
    return homs


def _image_rank(algebra: ArtinAlgebra, hom: TruncatedHom, degree: int) -> int:
    return linalg.rank([hom.basis_image(i).coords for i in algebra.degree_indices(degree)])


def _scan_order(homs) -> list:
    """The homs by (gen_seq, key()).  A family whose gen_seqs are a
    permutation of 0..n-1, as `search_homs` numbers its result, is placed
    by slot, reading no key(); any other family is sorted."""
    slots = [None] * len(homs)
    for hom in homs:
        if not 0 <= hom.gen_seq < len(slots) or slots[hom.gen_seq] is not None:
            break
        slots[hom.gen_seq] = hom
    else:
        return slots
    return sorted(homs, key=lambda hom: (hom.gen_seq, hom.key()))


def _rank_bounds(rows, orders, truncation: int, single_term: bool):
    """Bounds lo <= rank <= hi of the images of the monomials x^a in `rows`.

    With `orders` from `TruncatedHom.image_orders`, the image of x^a is
    zero or has t-order a·orders, its lead, when that is at most N.  Images
    with distinct leads are independent, so lo is the number of distinct
    leads; only nonzero images add rank, so hi is their number.  When every
    variable image is a single term, so is every monomial image, and lo is
    the rank.
    """
    leads = [v for v in (sum(map(mul, a, orders)) for a in rows) if v <= truncation]
    lo = len(set(leads))
    return lo, lo if single_term else len(leads)


def degree_one_witness_hom(algebra: ArtinAlgebra) -> TruncatedHom:
    """The always-available hom onto <t^2, t^3> in Q[t]/<t^4>.

    Exists whenever the algebra is standard graded with a degree-one
    component of dimension at least two: kill the quadratic part and send
    two independent residue classes of the variables to t^2 and t^3.
    """
    _require_graded(algebra, "degree-one witness needs a standard grading")
    nvars = len(algebra.variables)
    linear_rows = []
    for g in algebra.gb.polys:
        if g.total_degree() == 1:
            row = [ZERO] * nvars
            for mono, c in g.terms.items():
                row[mono.exps.index(1)] = c
            linear_rows.append(row)
    kernel = linalg.kernel_basis(linear_rows, nvars)
    if len(kernel) < 2:
        raise PrincipalAlgebraError("degree-one component is at most a line")
    a, b = kernel[0], kernel[1]
    images = [[ZERO, ZERO, a[i], b[i]] for i in range(nvars)]
    return make_hom(algebra, 3, images)


def critical_degree_search(algebra: ArtinAlgebra, homs) -> CriticalDegreeReport:
    """Certified lower bound for the critical degree from a hom family.

    Scans the verified homs (typically from `search_homs`) and records
    each degree whose component image stays at least two-dimensional,
    with the strongest witness found.  Degree one is always achieved
    through the canonical quadratic-kill hom.

    The scan takes the degree-one witness, then the family by
    (gen_seq, key()) whatever its input order (`_scan_order`; gen_seq is
    -1 for a hom built outside a search).  Ranks come from
    valuations (`_rank_bounds`): a degree is skipped when its bound hi
    cannot beat the current witness, takes lo when the bounds agree, and
    is row-reduced only otherwise.  The bounds depend only on the profile
    (image_orders(), N, single-term or not), so each profile's bounds are
    computed once, for its first hom.  A single-term hom's ranks are the
    bounds, so it is skipped whole when an earlier single-term hom had the
    same profile; any other hom is scanned.  `reverify` rechecks every
    stored rank by elimination.  Raises IncompatibleAlgebrasError for a
    family member that is not a TruncatedHom of the algebra.
    """
    homs = _homs_of(algebra, homs, TruncatedHom)
    info = _require_graded(algebra, "critical degree needs a standard graded algebra")
    if is_principal_ideal_algebra(algebra):
        raise PrincipalAlgebraError("critical degree is undefined for principal algebras")
    n = info.nilpotency_index
    scan = [degree_one_witness_hom(algebra), *_scan_order(homs)]

    exponents = [
        [algebra.basis[i].exps for i in algebra.degree_indices(degree)] for degree in range(1, n + 1)
    ]
    witnesses: dict[int, DegreeWitness] = {}
    bounds_of: dict = {}
    for hom in scan:
        profile = hom.image_orders(), hom.truncation, hom._leads is not None
        bounds = bounds_of.get(profile)
        if bounds is None:
            bounds = bounds_of[profile] = [_rank_bounds(rows, *profile) for rows in exponents]
        elif profile[2]:
            continue
        for degree, (lo, hi) in enumerate(bounds, 1):
            current = witnesses.get(degree)
            best = 1 if current is None else current.rank
            if hi <= best:
                continue
            rank = lo if lo == hi else _image_rank(algebra, hom, degree)
            if rank > best:
                witnesses[degree] = DegreeWitness(hom, rank)

    degrees = tuple(sorted(witnesses))
    return CriticalDegreeReport(
        lower_bound=max(degrees),
        upper_bound=n,
        degrees_achieved=degrees,
        witnesses=witnesses,
        homs_scanned=len(scan),
    )


# -- the staircase surjection -------------------------------------------------


class IsoCheck(_Record):
    """Whether the quotient is Q(r): `passed`, the int dimensions, and on a
    failure the degree (int or None) and a `detail` string."""

    __slots__ = ("passed", "expected_dim", "actual_dim", "failed_degree", "detail")
    _defaults = {"failed_degree": None, "detail": ""}

    def to_record(self) -> dict:
        return {
            "passed": self.passed,
            "expected_dim": self.expected_dim,
            "actual_dim": self.actual_dim,
            "failed_degree": self.failed_degree,
            "detail": self.detail,
        }


class SurjectionToQ(_Record):
    """The elements `x`, `y`, the quotient algebra and its AlgebraMap
    `to_quotient`, the IsoCheck, and, once it passed, Q(r) as `q` with the
    composite AlgebraMap `to_q` (both None until then)."""

    __slots__ = ("x", "y", "quotient", "to_quotient", "iso_check", "q", "to_q")
    _defaults = {"q": None, "to_q": None}


def surjection_to_q(algebra: ArtinAlgebra, hom: TruncatedHom, r: int) -> SurjectionToQ:
    """Quotient onto the staircase algebra picked out by a witnessing hom.

    Triangularizes the degree-one component under the hom, takes x, y of
    least two valuations, divides by <x^(r+1), x^r y, y^2, rest>, and
    re-checks by rank computations that the induced map from Q(r) is an
    isomorphism.  A failed check is recorded in the result, not raised.
    Raises InvalidArgumentError for an r that is not an int >= 1 and
    WitnessInsufficientError when the hom's image of degree r is below
    dimension 2.
    """
    _require_integer(r, "r", 1)
    _require_graded(algebra, "staircase surjection needs a standard grading")
    if not isinstance(hom, TruncatedHom) or hom.source is not algebra:
        raise _foreign(hom, TruncatedHom)
    if _image_rank(algebra, hom, r) < 2:
        raise WitnessInsufficientError(
            f"hom keeps the degree-{r} component below dimension 2"
        )
    # degree r is spanned by products of degree one, so its image rank 2
    # leaves x and y below with finite valuations
    degree_one = [algebra.basis_element(i) for i in algebra.degree_indices(1)]
    staircase = triangularize(hom, degree_one)
    x, y = staircase[0], staircase[1]
    rest = staircase[2:]
    extras = [x ** (r + 1), (x ** r) * y, y * y] + list(rest)
    quotient, to_quotient = quotient_algebra(algebra, extras)

    expected = 2 * r + 1
    check = IsoCheck(True, expected, quotient.dim)
    xq = to_quotient.apply(x)
    yq = to_quotient.apply(y)
    if quotient.dim != expected:
        check = IsoCheck(False, expected, quotient.dim, detail="dimension mismatch")
    else:
        # never fails: x, y generate the quotient, so 1, x^i, x^(i-1)y (i <= r) span it, a basis here
        for i in range(1, r + 1):
            u = xq ** i
            v = (xq ** (i - 1)) * yq
            if linalg.rank([list(u.coords), list(v.coords)]) != 2:
                check = IsoCheck(
                    False,
                    expected,
                    quotient.dim,
                    failed_degree=i,
                    detail=f"x^{i}, x^{i - 1}y dependent in the quotient",
                )
                break

    result = SurjectionToQ(
        x=x, y=y, quotient=quotient, to_quotient=to_quotient, iso_check=check
    )
    if not check.passed:
        return result

    q = q_algebra(r)
    phi = AlgebraMap(q, quotient, [xq, yq])
    columns = [phi.basis_image(i).coords for i in range(q.dim)]
    matrix = [[columns[i][k] for i in range(q.dim)] for k in range(quotient.dim)]
    try:
        inverse = linalg.invert_matrix(matrix)
    except DependentInputError:
        result.iso_check = IsoCheck(
            False, expected, quotient.dim, detail="induced map is not invertible"
        )
        return result
    psi_images = []
    for name in quotient.variables:
        coords = quotient.variable_element(name).coords
        psi_images.append(AlgebraElement(q, [sum(map(mul, row, coords), ZERO) for row in inverse]))
    psi = AlgebraMap(quotient, q, psi_images)
    result.q = q
    result.to_q = to_quotient.then(psi)
    return result


# -- witness forms and reports -------------------------------------------------


def omega_witness(algebra: ArtinAlgebra, x: AlgebraElement, y: AlgebraElement, r: int) -> DifferentialForm:
    """The form x^(r-1) (x dy - y dx) for degree-one x and y."""
    _require_integer(r, "r", 1)
    _require_graded(algebra, "witness form needs a standard grading")
    for e in (x, y):
        if getattr(e, "space", None) is not algebra:
            raise _foreign(e, AlgebraElement)
        if any(
            c != 0 and d != 1 for c, d in zip(e.coords, algebra.degrees)
        ):
            raise NotDegreeOneError("witness arguments must be degree-one elements")
    km = kahler_module(algebra)
    core = km.act(x, km.d(y)) - km.act(y, km.d(x))
    return km.act(x ** (r - 1), core)


class WitnessReport(_Record):
    """Outcome of checking one witness against a hom family.

    `kind` and `witness_text` are strings, `nonzero` and `all_killed`
    bools, `certificate` and `notes` dicts (a fresh `notes` per report
    by default), `violations` and `homs_tested` lists of homs.
    """

    __slots__ = (
        "kind", "witness_text", "nonzero", "certificate", "all_killed", "violations",
        "homs_tested", "notes",
    )
    _factories = {"notes": dict}

    def to_record(self, include_homs: bool = True) -> dict:
        record = {
            "kind": self.kind,
            "witness": self.witness_text,
            "nonzero": self.nonzero,
            "certificate": self.certificate,
            "all_killed": self.all_killed,
            "violations": [h.to_record() for h in self.violations],
            "homs_tested": len(self.homs_tested),
            "notes": self.notes,
        }
        if include_homs:
            record["homs"] = [h.to_record() for h in self.homs_tested]
        return record


def _kill_report(
    witness, homs, witness_text: str, certificate: dict, notes: dict | None = None
) -> WitnessReport:
    """Check that every hom sends the witness to zero.

    A DifferentialForm witness is pushed forward along each hom, an
    AlgebraElement is applied; the homs that leave it nonzero are the
    report's violations.  `homs` is a list of homs of the witness's algebra.
    """
    if isinstance(witness, DifferentialForm):
        kind, images = "form", (pushforward(h, witness) for h in homs)
    else:
        kind, images = "element", (h.apply(witness) for h in homs)
    violations = [h for h, image in zip(homs, images) if not image.is_zero()]
    return WitnessReport(
        kind=kind,
        witness_text=witness_text,
        nonzero=not witness.is_zero(),
        certificate=certificate,
        all_killed=not violations,
        violations=violations,
        homs_tested=homs,
        notes=notes or {},
    )


def tau_membership_check(
    algebra: ArtinAlgebra,
    omega: DifferentialForm,
    homs,
    certificate_map: AlgebraMap | None = None,
) -> WitnessReport:
    """Does every hom in the family push the form to zero?

    `certificate_map` may supply a quotient surjection under which the
    form stays visibly nonzero (for example the staircase surjection);
    its image is recorded next to the direct coordinate certificate.  A
    violating hom is a counterexample and is reported by name.
    """
    homs = _homs_of(algebra, homs)
    km = kahler_module(algebra)
    if getattr(omega, "space", None) is not km:
        raise _foreign(omega, DifferentialForm)
    certificate = {"reduced_coordinates_nonzero": not omega.is_zero()}
    if certificate_map is not None:
        image = pushforward(certificate_map, omega)
        certificate["quotient_image_nonzero"] = not image.is_zero()
        certificate["quotient_dim"] = certificate_map.target.dim
    return _kill_report(omega, homs, omega.describe(), certificate)


def _gorenstein_socle_generator(algebra: ArtinAlgebra) -> AlgebraElement:
    soc = socle(algebra)
    if soc.dim != 1:
        raise NotGorensteinError(f"socle has dimension {soc.dim}, not 1")
    if is_principal_ideal_algebra(algebra):
        raise PrincipalAlgebraError(
            "socle-kill statement is void for principal ideal algebras"
        )
    return AlgebraElement(algebra, soc.rows[0])


def socle_kill_check(algebra: ArtinAlgebra, homs) -> WitnessReport:
    """Check that every hom kills the socle generator.

    Valid for Gorenstein nonprincipal local algebras; a violation would
    contradict the socle-kill theorem and is reported explicitly.
    """
    homs = _homs_of(algebra, homs)
    generator = _gorenstein_socle_generator(algebra)
    return _kill_report(
        generator,
        homs,
        generator.to_polynomial().to_string(algebra.order),
        {"socle_dimension": 1},
    )


def tau_witness_gorenstein(algebra: ArtinAlgebra, homs) -> WitnessReport:
    """The socle-differential witness d(s) for a Gorenstein algebra.

    When d(s) = 0 the differential route fails (that does happen for
    ungradable examples) and the report says so; the kill check against
    the hom family is still evaluated either way.
    """
    homs = _homs_of(algebra, homs)
    generator = _gorenstein_socle_generator(algebra)
    witness = kahler_module(algebra).d(generator)
    route_ok = not witness.is_zero()
    return _kill_report(
        witness,
        homs,
        f"d({generator.to_polynomial().to_string(algebra.order)})",
        {"socle_differential_nonzero": route_ok},
        notes={
            "socle_differential_route": "ok" if route_ok else "fails: d(socle) = 0"
        },
    )
