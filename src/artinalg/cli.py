"""Command-line front end.

Algebra definition files are plain text:

    # a comment
    vars: Y X
    gens: X^3*Y; X^5; X*Y^3 + 2*X^3; 3*X^2*Y^2 + 5*Y^4

`vars:` fixes the ambient variables (listed order = order precedence,
most significant first); `gens:` is followed by `;`-separated polynomial
expressions and may span several lines.  `#` starts a comment.

Commands:

    analyze    dimensions, basis, grading, nilradical, socle, obstruction
    homs       search verified homs into truncated rings
    critdeg    certified critical-degree bounds with stored witnesses
    tau        check that a witness differential is killed by all homs
    socle-kill check that all homs kill the socle generator

Exit codes: 0 success, 2 input error, 3 a mathematical invariant was
violated (a would-be counterexample), 4 the search budget produced no
homomorphisms to test against.  `--json` prints one canonical JSON
document; byte-identical for identical (file, command, flags, seed).
"""

from __future__ import annotations

import argparse
import json
import os
import sys
import time
from itertools import islice

from .algebra import (
    build_algebra,
    embedding_dimension,
    grading_info,
    is_gorenstein,
    is_local_over_q,
    is_principal_ideal_algebra,
    nilradical,
    socle,
)
from .berger import (
    _kill_report,
    critical_degree_search,
    omega_witness,
    socle_kill_check,
    tau_membership_check,
    tau_witness_gorenstein,
)
from .errors import AlgebraFileError, ArtinalgError, InvalidArgumentError
from .kahler import embedding_obstruction, h0_de_rham, kahler_module
from .polycore import check_variables, parse_polynomial
from .truncated import _search_settings, make_hom, search_homs

EXIT_OK = 0
EXIT_INPUT = 2
EXIT_VIOLATION = 3
EXIT_EXHAUSTED = 4


def parse_algebra_file(path: str):
    """Read a `vars:`/`gens:` definition file."""
    try:
        with open(path, "r", encoding="utf-8") as fh:
            raw = fh.read()
    except OSError as exc:
        raise AlgebraFileError(f"cannot read {path}: {exc}") from exc
    except UnicodeDecodeError as exc:
        raise AlgebraFileError(f"{path} is not UTF-8 text: {exc}") from exc
    variables = None
    gens_text: list[str] = []
    in_gens = False
    for line in raw.splitlines():
        line = line.split("#", 1)[0].strip()
        if not line:
            continue
        if line.startswith("vars:"):
            if variables is not None:
                raise AlgebraFileError("duplicate vars: line")
            variables = check_variables(line[len("vars:"):].split())
            if not variables:
                raise AlgebraFileError("vars: line lists no variables")
        elif line.startswith("gens:"):
            if variables is None:
                raise AlgebraFileError("gens: before vars:")
            in_gens = True
            gens_text.append(line[len("gens:"):])
        elif in_gens:
            gens_text.append(line)
        else:
            raise AlgebraFileError(f"unexpected line before vars:/gens:: {line!r}")
    if variables is None:
        raise AlgebraFileError("missing vars: line")
    if not gens_text:
        raise AlgebraFileError("missing gens: line")
    gens = [g.strip() for g in " ".join(gens_text).split(";") if g.strip()]
    if not gens:
        raise AlgebraFileError("no generators given")
    return variables, gens


def _load_algebra(path: str):
    variables, gens = parse_algebra_file(path)
    polys = [parse_polynomial(g, variables) for g in gens]
    return build_algebra(variables, polys), variables, gens


def _subspace_record(space) -> dict:
    return {
        "dim": space.dim,
        "basis_rows": [[str(c) for c in row] for row in space.rows],
    }


def _element_strings(algebra, space):
    return [
        e.to_polynomial().to_string(algebra.order) for e in space.basis_elements()
    ]


# -- commands -------------------------------------------------------------------


def cmd_analyze(args) -> tuple[dict, int]:
    algebra, variables, gens = _load_algebra(args.file)
    info = grading_info(algebra)
    nil = nilradical(algebra)
    local = is_local_over_q(algebra)
    h0 = h0_de_rham(algebra)
    km = kahler_module(algebra)
    results: dict = {
        "dim": algebra.dim,
        "basis": [m.as_string(algebra.variables) for m in algebra.basis],
        "standard_graded": info.is_standard_graded,
        "component_dims": [c.dim for c in info.components] if info.is_standard_graded else None,
        "nilpotency_index": info.nilpotency_index,
        "nilradical": _subspace_record(nil),
        "kahler_dim": km.dim,
        "h0_de_rham": {
            **_subspace_record(h0),
            "elements": _element_strings(algebra, h0),
        },
        "local_over_q": local,
    }
    if local:
        soc = socle(algebra)
        obstruction = embedding_obstruction(algebra)
        results.update(
            {
                "socle": {
                    **_subspace_record(soc),
                    "elements": _element_strings(algebra, soc),
                },
                "gorenstein": is_gorenstein(algebra),
                "embedding_dimension": embedding_dimension(algebra),
                "principal_ideal_algebra": is_principal_ideal_algebra(algebra),
                "embedding_obstruction": {
                    **_subspace_record(obstruction),
                    "elements": _element_strings(algebra, obstruction),
                },
                "obstruction_nonzero": not obstruction.is_zero(),
            }
        )
    else:
        results.update(
            {
                "socle": None,
                "gorenstein": None,
                "embedding_dimension": None,
                "principal_ideal_algebra": None,
                "embedding_obstruction": None,
                "obstruction_nonzero": None,
                "note": "algebra is not local over Q; socle-type data skipped",
            }
        )
    return _report("analyze", args, variables, gens, results), EXIT_OK


def _search(algebra, args, verify_images=False):
    """search_homs with the command's flags; with `verify_images`, user --images
    are built into a hom once the flags are checked, so a relation they violate
    is an input error."""
    strategies = tuple(s.strip() for s in args.strategy.split(",") if s.strip())
    images = [s.strip() for s in args.images.split(";") if s.strip()] if args.images else None
    if verify_images and args.images and "user" in strategies:
        # the flags first; the user stream then takes the verified hom as it is
        _search_settings(args.nmax, strategies, args.budget, images)
        images = [make_hom(algebra, args.nmax, images)]
    return search_homs(
        algebra,
        args.nmax,
        strategy=strategies,
        budget=args.budget,
        seed=args.seed,
        images=images,
    )


def cmd_homs(args) -> tuple[dict, int]:
    algebra, variables, gens = _load_algebra(args.file)
    homs = _search(algebra, args, verify_images=True)
    records = []
    for hom in homs:
        # a verified hom sends each variable to its image; "oo" is an order past N
        valuations = {name: str(o) if o <= hom.truncation else "oo"
                      for name, o in zip(algebra.variables, hom.image_orders())}
        records.append({**hom.to_record(), "variable_valuations": valuations})
    results = {"count": len(homs), "homs": records}
    return _report("homs", args, variables, gens, results), EXIT_OK


def cmd_critdeg(args) -> tuple[dict, int]:
    algebra, variables, gens = _load_algebra(args.file)
    homs = _search(algebra, args)
    report = critical_degree_search(algebra, homs)
    ok = report.reverify(algebra)
    results = {
        **report.to_record(),
        "witnesses_reverified": ok,
        "homs_found": len(homs),
    }
    return _report("critdeg", args, variables, gens, results), _exit_code(homs, ok)


def cmd_tau(args) -> tuple[dict, int]:
    algebra, variables, gens = _load_algebra(args.file)
    # the witness is built, and so checked, before the search
    element = None
    if args.witness is not None and args.r is not None:
        raise InvalidArgumentError("tau takes --witness or --r, not both")
    if args.witness:
        element = algebra.from_polynomial(parse_polynomial(args.witness, algebra.variables))
        witness_form = kahler_module(algebra).d(element)
    elif args.r is not None:
        # degree-one basis monomials in variable order (X before Y etc.)
        indices = sorted(algebra.degree_indices(1), key=lambda i: algebra.basis[i].exps.index(1))
        degree_one = [algebra.basis_element(i) for i in indices]
        if len(degree_one) < 2:
            raise ArtinalgError("need two degree-one basis monomials for --r mode")
        witness_form = omega_witness(algebra, degree_one[0], degree_one[1], args.r)
    else:
        raise AlgebraFileError("tau needs --witness <polynomial> or --r <int>")
    homs = _search(algebra, args)
    element_part = {"element": None}
    ok = True
    if element is not None:
        check = _kill_report(element, homs, element.to_polynomial().to_string(algebra.order), {})
        element_part = {
            "element": check.witness_text,
            "element_killed_by_all": check.all_killed,
            "element_violations": [h.to_record() for h in check.violations],
        }
        ok = check.all_killed
    report = tau_membership_check(algebra, witness_form, homs)
    results = {
        **element_part,
        **report.to_record(include_homs=args.include_homs),
    }
    ok = ok and report.all_killed
    return _report("tau", args, variables, gens, results), _exit_code(homs, ok)


def cmd_socle_kill(args) -> tuple[dict, int]:
    algebra, variables, gens = _load_algebra(args.file)
    homs = _search(algebra, args)
    kill = socle_kill_check(algebra, homs)
    differential = tau_witness_gorenstein(algebra, homs)
    results = {
        "socle_kill": kill.to_record(include_homs=args.include_homs),
        "socle_differential": differential.to_record(include_homs=False),
    }
    ok = kill.all_killed and differential.all_killed
    return _report("socle-kill", args, variables, gens, results), _exit_code(homs, ok)


# -- report plumbing -------------------------------------------------------------


def _exit_code(homs, ok: bool) -> int:
    """3 when a checked claim failed, else 4 when the search kept no homs, else 0."""
    return EXIT_VIOLATION if not ok else EXIT_OK if homs else EXIT_EXHAUSTED


def _report(command, args, variables, gens, results) -> dict:
    return {
        "command": command,
        "file": args.file,
        "inputs": {"vars": list(variables), "gens": gens},
        "flags": {
            "nmax": getattr(args, "nmax", None),
            "budget": getattr(args, "budget", None),
            "strategy": getattr(args, "strategy", None),
            "witness": getattr(args, "witness", None),
            "images": getattr(args, "images", None),
            "r": getattr(args, "r", None),
        },
        "seed": getattr(args, "seed", None),
        "results": results,
    }


def _emit(report: dict, as_json: bool, elapsed: float):
    if as_json:
        # written in batches of encoder chunks: `json.dump` writes each of a
        # large report's ~10^5 small chunks on its own, and a captured stdout
        # (io.StringIO) keeps them all as separate strings until it is read
        chunks = json.JSONEncoder(sort_keys=True, indent=2).iterencode(report)
        while batch := list(islice(chunks, 4096)):
            sys.stdout.write("".join(batch))
        sys.stdout.write("\n")
        return
    print(f"command: {report['command']}")
    print(f"file:    {report['file']}")
    _emit_human(report["results"], indent="  ")
    print(f"elapsed: {elapsed:.3f}s")


def _emit_human(value, indent=""):
    if isinstance(value, dict):
        for key in value:
            sub = value[key]
            if isinstance(sub, (dict, list)) and sub:
                print(f"{indent}{key}:")
                _emit_human(sub, indent + "  ")
            else:
                print(f"{indent}{key}: {sub}")
    elif isinstance(value, list):
        limit = 12
        for item in value[:limit]:
            if isinstance(item, (dict, list)):
                _emit_human(item, indent + "  ")
                print(f"{indent}  -")
            else:
                print(f"{indent}- {item}")
        if len(value) > limit:
            print(f"{indent}... ({len(value) - limit} more)")
    else:
        print(f"{indent}{value}")


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="artinalg",
        description="exact computations with finite-dimensional quotient algebras",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    def common(p, needs_search=True):
        p.add_argument("file", help="algebra definition file")
        p.add_argument("--json", action="store_true", help="canonical JSON output")
        p.add_argument("--seed", type=int, default=0)
        if needs_search:
            p.add_argument("--nmax", type=int, default=8)
            p.add_argument("--budget", type=int, default=2000)
            p.add_argument(
                "--strategy",
                default="monomial",
                help="comma list of monomial|dense-random|user",
            )
            p.add_argument("--images", default=None, help="';'-separated images in t for user strategy")
            p.add_argument("--include-homs", action="store_true", help="list every hom in the report")

    p = sub.add_parser("analyze", help="structure of the algebra")
    common(p, needs_search=False)
    p.set_defaults(func=cmd_analyze)

    p = sub.add_parser("homs", help="search homs into truncated rings")
    common(p)
    p.set_defaults(func=cmd_homs)

    p = sub.add_parser("critdeg", help="critical degree bounds")
    common(p)
    p.set_defaults(func=cmd_critdeg)

    p = sub.add_parser("tau", help="torsion witness membership evidence")
    common(p)
    p.add_argument("--witness", default=None, help="witness element as a polynomial")
    p.add_argument("--r", type=int, default=None, help="use the staircase witness form of this degree")
    p.set_defaults(func=cmd_tau)

    p = sub.add_parser("socle-kill", help="socle killing evidence")
    common(p)
    p.set_defaults(func=cmd_socle_kill)

    return parser


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    start = time.perf_counter()
    try:
        report, code = args.func(args)
    except ArtinalgError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_INPUT
    try:
        _emit(report, args.json, time.perf_counter() - start)
        sys.stdout.flush()
    except BrokenPipeError:
        # the reader closed stdout early: keep the run's own exit code, and
        # send what remains, and the flush at exit, to the null device
        devnull = os.open(os.devnull, os.O_WRONLY)
        os.dup2(devnull, sys.stdout.fileno())
        os.close(devnull)
    return code


if __name__ == "__main__":
    sys.exit(main())
