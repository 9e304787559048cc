"""Witness constructions for torsion differentials of Artinian algebras.

The operations here assemble evidence objects:

* `critical_degree_search` looks for truncated-ring homomorphisms whose
  image keeps a graded component at least two-dimensional, reporting a
  search-certified lower bound next to the nilpotency-index upper bound.
  No exact algorithm for the maximum is known, so the report keeps both
  numbers and every stored witness can re-verify its rank claim.
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

from dataclasses import dataclass, field
from fractions import Fraction

from . import linalg
from .algebra import (
    AlgebraElement,
    AlgebraMap,
    ArtinAlgebra,
    build_algebra,
    grading_info,
    is_principal_ideal_algebra,
    quotient_algebra,
    socle,
)
from .errors import (
    IncompatibleAlgebrasError,
    InvalidArgumentError,
    NotDegreeOneError,
    NotGorensteinError,
    NotGradedError,
    PrincipalAlgebraError,
    WitnessInsufficientError,
)
from .kahler import DifferentialForm, kahler_module, pushforward
from .polycore import Polynomial, parse_polynomial
from .truncated import TruncatedHom, make_hom

ZERO = Fraction(0)
ONE = Fraction(1)


def q_algebra(r: int) -> ArtinAlgebra:
    """The staircase algebra Q[X,Y]/<X^(r+1), X^r Y, Y^2> of dimension 2r+1."""
    if r < 1:
        raise InvalidArgumentError(f"r must be >= 1, got {r}")
    variables = ("X", "Y")
    gens = [
        parse_polynomial(f"X^{r + 1}", variables),
        parse_polynomial(f"X^{r}*Y", variables),
        parse_polynomial("Y^2", variables),
    ]
    return build_algebra(variables, gens)


# -- critical degree ---------------------------------------------------------


@dataclass
class DegreeWitness:
    hom: TruncatedHom
    rank: int


@dataclass
class CriticalDegreeReport:
    """Search-certified lower bound and nilpotency upper bound.

    `witnesses[i]` stores, for every achieved degree i, a verified hom
    whose image of the degree-i component has the recorded rank >= 2.
    """

    lower_bound: int
    upper_bound: int
    degrees_achieved: tuple
    witnesses: dict
    homs_scanned: int

    def reverify(self, algebra: ArtinAlgebra) -> bool:
        """Recompute every stored rank claim from scratch."""
        for degree, witness in self.witnesses.items():
            if _image_rank(algebra, witness.hom, degree) != witness.rank:
                return False
            if witness.rank < 2:
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


def _component_indices(algebra: ArtinAlgebra, degree: int):
    return [i for i, d in enumerate(algebra.degrees) if d == degree]


def _image_rank(algebra: ArtinAlgebra, hom: TruncatedHom, degree: int) -> int:
    rows = [
        list(hom.basis_image(i).coords) for i in _component_indices(algebra, degree)
    ]
    return linalg.rank(rows)


def degree_one_witness_hom(algebra: ArtinAlgebra) -> TruncatedHom:
    """The always-available hom onto <t^2, t^3> in Q[t]/<t^4>.

    Exists whenever the algebra is standard graded with a degree-one
    component of dimension at least two: kill the quadratic part and send
    two independent residue classes of the variables to t^2 and t^3.
    """
    info = grading_info(algebra)
    if not info.is_standard_graded:
        raise NotGradedError("degree-one witness needs a standard grading")
    nvars = len(algebra.variables)
    linear_rows = []
    for g in algebra.gb.polys:
        if g.total_degree() == 1:
            row = [ZERO] * nvars
            for mono, c in g.terms.items():
                row[mono.exps.index(1)] = c
            linear_rows.append(row)
    kernel = linalg.kernel_basis(linear_rows, nvars) if linear_rows else [
        [ONE if i == j else ZERO for j in range(nvars)] for i in range(nvars)
    ]
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
    """
    info = grading_info(algebra)
    if not info.is_standard_graded:
        raise NotGradedError("critical degree needs a standard graded algebra")
    if is_principal_ideal_algebra(algebra):
        raise PrincipalAlgebraError("critical degree is undefined for principal algebras")
    n = info.nilpotency_index
    scan = [degree_one_witness_hom(algebra)]
    scan.extend(sorted(homs, key=lambda h: (h.gen_seq, h.key())))

    witnesses: dict[int, DegreeWitness] = {}
    for hom in scan:
        for degree in range(1, n + 1):
            rank = _image_rank(algebra, hom, degree)
            if rank >= 2:
                current = witnesses.get(degree)
                if current is None or rank > current.rank:
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


@dataclass
class IsoCheck:
    passed: bool
    expected_dim: int
    actual_dim: int
    failed_degree: int | None = None
    detail: str = ""

    def to_record(self) -> dict:
        return {
            "passed": self.passed,
            "expected_dim": self.expected_dim,
            "actual_dim": self.actual_dim,
            "failed_degree": self.failed_degree,
            "detail": self.detail,
        }


@dataclass
class SurjectionToQ:
    x: AlgebraElement
    y: AlgebraElement
    quotient: ArtinAlgebra
    to_quotient: AlgebraMap
    iso_check: IsoCheck
    q: ArtinAlgebra | None = None
    to_q: AlgebraMap | None = None


def surjection_to_q(algebra: ArtinAlgebra, hom: TruncatedHom, r: int) -> SurjectionToQ:
    """Quotient onto the staircase algebra picked out by a witnessing hom.

    Triangularizes the degree-one component under the hom, takes x, y of
    least two valuations, divides by <x^(r+1), x^r y, y^2, rest>, and
    re-checks by rank computations that the induced map from Q(r) is an
    isomorphism.  A failed check is recorded in the result, not raised.
    """
    info = grading_info(algebra)
    if not info.is_standard_graded:
        raise NotGradedError("staircase surjection needs a standard grading")
    if _image_rank(algebra, hom, r) < 2:
        raise WitnessInsufficientError(
            f"hom keeps the degree-{r} component below dimension 2"
        )
    from .truncated import triangularize

    degree_one = [algebra.basis_element(i) for i in _component_indices(algebra, 1)]
    staircase = triangularize(hom, degree_one)
    finite = [e for e in staircase if not hom.valuation(e).is_infinite]
    if len(finite) < 2:
        raise WitnessInsufficientError("fewer than two finite valuations in degree one")
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
    except ValueError:
        result.iso_check = IsoCheck(
            False, expected, quotient.dim, detail="induced map is not invertible"
        )
        return result
    psi_images = []
    for name in quotient.variables:
        coords = quotient.variable_element(name).coords
        psi_images.append(AlgebraElement(q, linalg.mat_vec(inverse, coords)))
    psi = AlgebraMap(quotient, q, psi_images)
    result.q = q
    result.to_q = to_quotient.then(psi)
    return result


# -- witness forms and reports -------------------------------------------------


def omega_witness(algebra: ArtinAlgebra, x: AlgebraElement, y: AlgebraElement, r: int) -> DifferentialForm:
    """The form x^(r-1) (x dy - y dx) for degree-one x and y."""
    if r < 1:
        raise InvalidArgumentError(f"r must be >= 1, got {r}")
    info = grading_info(algebra)
    if not info.is_standard_graded:
        raise NotGradedError("witness form needs a standard grading")
    for e in (x, y):
        if any(
            c != 0 and d != 1 for c, d in zip(e.coords, algebra.degrees)
        ):
            raise NotDegreeOneError("witness arguments must be degree-one elements")
    km = kahler_module(algebra)
    core = km.act(x, km.d(y)) - km.act(y, km.d(x))
    return km.act(x ** (r - 1), core)


@dataclass
class WitnessReport:
    """Outcome of checking one witness against a hom family."""

    kind: str
    witness_text: str
    nonzero: bool
    certificate: dict
    all_killed: bool
    violations: list
    homs_tested: list
    notes: dict = field(default_factory=dict)

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
    report's violations.
    """
    homs = list(homs)
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
    km = kahler_module(algebra)
    if omega.module is not km:
        raise IncompatibleAlgebrasError("form does not live over the given algebra")
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
