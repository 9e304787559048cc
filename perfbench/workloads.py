"""The benchmark's workloads: job lists, how a job runs, how it is checked.

A job is one call of the public CLI entry `artinalg.cli.main(argv +
["--json"])` with stdout captured, or (kind "surjection") one library
call of `surjection_to_q` on the witness stored by an earlier critdeg
job of the same pass.  Every job is checked against `reference.json`,
which pins its exit code and the sha256 of its canonical report at the
default seed.  At any other seed the verdict fields are checked, and
jobs whose report does not depend on the seed are still digest-checked
after the report's `seed` field is set back to the default.
"""

from __future__ import annotations

import contextlib
import hashlib
import io
import json
import os
from dataclasses import dataclass
from fractions import Fraction

import speed

INPUTS = "perfbench/inputs"
REFERENCE = os.path.join("perfbench", "reference.json")
DEFAULT_SEED = 0
SEARCH = "monomial,dense-random"

# Spans each command must produce in a traced run; a missing one means a
# wrapper was not bound where the code looks the name up.
_COMMON = {"cli.main", "polycore.parse", "groebner.buchberger",
           "groebner.standard_monomials", "algebra.build", "algebra.nilradical"}
_SEARCH = _COMMON | {"truncated.search"}
EXPECTED_SPANS = {
    "analyze": _COMMON | {"cli.analyze", "groebner.normal_form", "algebra.nilpotency_index",
                          "algebra.socle", "algebra.embedding_dimension", "kahler.module",
                          "kahler.h0", "kahler.obstruction"},
    "homs": _SEARCH | {"cli.homs", "truncated.apply"},
    "tau": _SEARCH | {"cli.tau", "kahler.module", "kahler.pushforward", "berger.tau_check"},
    "socle-kill": _SEARCH | {"cli.socle-kill", "algebra.socle", "truncated.apply",
                             "kahler.pushforward", "berger.socle_kill"},
    "critdeg": _SEARCH | {"cli.critdeg", "algebra.nilpotency_index", "berger.critdeg"},
    "surjection": {"polycore.parse", "algebra.build", "groebner.buchberger",
                   "truncated.triangularize", "berger.surjection"},
}


@dataclass(frozen=True)
class Job:
    id: str
    argv: tuple = ()          # CLI arguments before --seed/--json
    seeded: bool = True       # gets --seed (every search job does)
    seed_free: bool = False   # report depends on the seed only through its `seed` field
    source: str | None = None  # surjection: id of the critdeg job whose witness it uses

    @property
    def command(self) -> str:
        return "surjection" if self.source else self.argv[0]


@dataclass(frozen=True)
class Workload:
    name: str
    why: str
    jobs: tuple
    smoke: tuple = ()  # job ids the smoke test runs


def _file(name: str) -> str:
    return f"{INPUTS}/{name}.alg"


def _analyze(name: str) -> Job:
    return Job(f"analyze {name}", ("analyze", _file(name)), seeded=False)


def _search(command: str, name: str, *flags: str) -> Job:
    argv = (command, _file(name)) + flags
    strategy = argv[argv.index("--strategy") + 1] if "--strategy" in argv else "monomial"
    return Job(" ".join((command, name) + flags[:2]), argv, seed_free="dense-random" not in strategy)


def _staircase_jobs():
    jobs = []
    for name in [f"q{r}" for r in range(1, 6)] + ["power_xy_4"]:
        critdeg = _search("critdeg", name, "--nmax", "12", "--budget", "2500", "--strategy", SEARCH)
        jobs += [critdeg, Job(f"surjection {name}", source=critdeg.id)]
        if name.startswith("q"):
            r = name[1:]
            jobs.append(_search("tau", name, "--r", r))
    return tuple(jobs)


WORKLOADS = {
    w.name: w
    for w in (
        Workload(
            "structure",
            "analyze on four algebras: time goes to building and analysing the algebra "
            "(groebner, algebra, kahler); never touches truncated or berger",
            (_analyze("power_xyz_6"), _analyze("power_x_40"), _analyze("xyz_fourth"),
             _analyze("golden")),
            smoke=("analyze golden",),
        ),
        Workload(
            "hom-sweep",
            "tau, socle-kill and homs on the golden algebra plus one nmax-96 homs job: "
            "per-hom verification, apply and pushforward dominate; algebra builds are cheap",
            (
                _search("tau", "golden", "--witness", "X^2*Y^2", "--nmax", "24",
                        "--budget", "5000", "--strategy", SEARCH),
                _search("socle-kill", "golden", "--nmax", "12", "--budget", "2500",
                        "--strategy", SEARCH),
                _search("homs", "golden", "--nmax", "8", "--budget", "2000", "--strategy", SEARCH),
                _search("homs", "diag_xyz", "--nmax", "96", "--budget", "300"),
            ),
            smoke=("socle-kill golden --nmax 12",),
        ),
        Workload(
            "staircase",
            "critdeg, staircase surjection and tau --r on Q(1..5) and <X,Y>^4: "
            "the paper's central computation; berger rank scans and many small groebner calls",
            _staircase_jobs(),
            smoke=("critdeg q1 --nmax 12", "surjection q1"),
        ),
    )
}


def job_argv(job: Job, seed: int) -> list:
    argv = list(job.argv)
    if job.seeded:
        argv += ["--seed", str(seed)]
    return argv + ["--json"]


def canonical(record: dict) -> str:
    """The CLI's canonical JSON layout."""
    return json.dumps(record, sort_keys=True, indent=2) + "\n"


def sha256(text: str) -> str:
    return hashlib.sha256(text.encode("utf-8")).hexdigest()


@dataclass
class Outcome:
    job: Job
    code: int | None
    text: str          # canonical report, "" when the job raised
    seconds: float     # measured wall seconds, speed samples excluded
    scale: float       # factor to reference seconds (speed.Meter)
    problems: list

    @property
    def ok(self) -> bool:
        return not self.problems

    @property
    def digest(self) -> str:
        return sha256(self.text) if self.text else "-"


def run_cli(argv: list):
    """Exit code and captured stdout of one in-process CLI call."""
    from artinalg import cli

    buf = io.StringIO()
    with contextlib.redirect_stdout(buf):
        code = cli.main(argv)
    return code, buf.getvalue()


def run_surjection(report: dict):
    """Rebuild the algebra and call surjection_to_q on the stored witness."""
    from artinalg import berger, cli, polycore
    from artinalg import algebra as alg
    from artinalg import truncated

    variables, gens = cli.parse_algebra_file(report["file"])
    algebra = alg.build_algebra(variables, [polycore.parse_polynomial(g, variables) for g in gens])
    degree = report["results"]["lower_bound"]
    witness = report["results"]["witnesses"][str(degree)]["hom"]
    hom = truncated.make_hom(
        algebra, witness["N"], [[Fraction(c) for c in image] for image in witness["images"]]
    )
    result = berger.surjection_to_q(algebra, hom, degree)
    order = algebra.order
    record = {
        "file": report["file"],
        "degree": degree,
        "x": result.x.to_polynomial().to_string(order),
        "y": result.y.to_polynomial().to_string(order),
        "quotient_dim": result.quotient.dim,
        "iso_check": result.iso_check.to_record(),
        "to_q": result.to_q is not None,
    }
    return 0, canonical(record)


def verdict_problems(job: Job, record: dict) -> list:
    """Verdict fields a correct report must carry, at any seed."""
    results = record.get("results", record)
    problems = []

    def need(condition, what):
        if not condition:
            problems.append(what)

    command = job.command
    if command == "tau":
        need(results["all_killed"], "tau: all_killed is false")
        need(not results["violations"], "tau: violations listed")
        if results.get("element") is not None:
            need(results["element_killed_by_all"], "tau: element not killed by all homs")
    elif command == "socle-kill":
        need(results["socle_kill"]["all_killed"], "socle-kill: all_killed is false")
        need(results["socle_differential"]["all_killed"],
             "socle-kill: socle differential not killed")
    elif command == "critdeg":
        need(results["witnesses_reverified"], "critdeg: witnesses_reverified is false")
    elif command == "homs":
        need(results["count"] > 0, "homs: no homs found")
    elif command == "surjection":
        need(results["iso_check"]["passed"], "surjection: iso_check.passed is false")
    return problems


def check(job: Job, code, text: str, seed: int, reference: dict) -> list:
    """Problems with one job's outcome; empty when it is correct."""
    pinned = reference.get(job.id)
    if pinned is None:
        return ["no reference entry"]
    problems = []
    if code != pinned["exit"]:
        problems.append(f"exit {code}, expected {pinned['exit']}")
    if not text:
        return problems + ["no report"]
    record = json.loads(text)
    problems += verdict_problems(job, record)
    if seed == DEFAULT_SEED or not job.seeded:
        digest = sha256(text)
    elif job.seed_free:
        digest = sha256(canonical({**record, "seed": DEFAULT_SEED}))
    else:
        return problems
    if digest != pinned["sha256"]:
        problems.append(f"digest {digest[:16]}, expected {pinned['sha256'][:16]}")
    return problems


def run_pass(jobs, seed: int, reference: dict, on_job=None) -> list:
    """Run the jobs one after another (a closed loop from one client)."""
    reports: dict = {}
    outcomes = []
    for job in jobs:
        if on_job is not None:
            on_job(job.id)
        code, text, problems = None, "", []
        try:
            with speed.Meter() as meter:
                if job.source:
                    code, text = run_surjection(json.loads(reports[job.source]))
                else:
                    code, text = run_cli(job_argv(job, seed))
        except (Exception, SystemExit) as exc:  # a job that raises is a failed job
            problems = [f"raised {type(exc).__name__}: {exc}"]
        else:
            problems = check(job, code, text, seed, reference)
        reports[job.id] = text
        outcomes.append(Outcome(job, code, text, meter.seconds, meter.scale, problems))
    return outcomes


def select(workload: Workload, ids=None) -> tuple:
    """The workload's jobs, or only those with the given ids."""
    if ids is None:
        return workload.jobs
    chosen = tuple(job for job in workload.jobs if job.id in ids)
    if len(chosen) != len(ids):
        raise KeyError(f"unknown job ids for {workload.name}: {sorted(set(ids) - {j.id for j in chosen})}")
    return chosen


def load_reference(workload: str) -> dict:
    with open(REFERENCE, encoding="utf-8") as fh:
        return json.load(fh).get(workload, {})
