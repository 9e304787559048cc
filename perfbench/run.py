"""artinalg benchmark: one workload, one seed, timed for a fixed span.

Run from the root of a checkout:

    python3 perfbench/run.py --workload structure --seed 0 --seconds 40 --trace 0

`--trace 0` times passes over the workload's job list with tracing off
and reports the end-to-end metrics: `wall_s` (median over passes of the
pass's seconds, summed over its jobs), `setup_s` (median over fresh
interpreters of importing artinalg.cli and parsing the workload's input
files) and `peak_rss_mb` (peak resident memory of this process).  Both
times are in reference seconds (see speed.py); measured seconds are
printed beside them.  `--trace 1` alternates untraced and traced passes
and reports the per-layer metrics of `tracing.layer_metrics`, the
tracing overhead and the spans of the last traced pass in
perfbench/out/.  Passes continue while another one fits in `--seconds`
(at least one).  Every job of every pass is checked (see workloads.py);
the last line of stdout is one JSON object with `correct`, `attempted`,
`failed` and `metrics`.
"""

from __future__ import annotations

import argparse
import json
import os
import resource
import statistics
import subprocess
import sys
import time

import speed

HERE = os.path.dirname(os.path.abspath(__file__))
OUT_DIR = os.path.join("perfbench", "out")
SETUP_REPEATS = 15

# Runs in a fresh interpreter; prints the seconds spent importing the
# CLI and parsing every file named on the command line, then a speed
# probe taken in the same process right afterwards.
SETUP_CODE = """
import sys, time
start = time.perf_counter()
sys.path.insert(0, "src")
from artinalg.cli import parse_algebra_file
from artinalg.polycore import parse_polynomial
for path in sys.argv[1:]:
    variables, gens = parse_algebra_file(path)
    for g in gens:
        parse_polynomial(g, variables)
elapsed = time.perf_counter() - start
sys.path.insert(0, "perfbench")
import speed
print(elapsed, speed.probe())
"""


def use_checkout() -> bool:
    """Put the checkout's sources on sys.path; False outside a checkout."""
    if not os.path.isfile(os.path.join("src", "artinalg", "cli.py")):
        return False
    sys.path.insert(0, os.path.abspath("src"))
    if HERE not in sys.path:
        sys.path.insert(0, HERE)
    return True


def setup_seconds(files):
    """Measured and reference seconds of SETUP_REPEATS fresh interpreters."""
    raw, ref = [], []
    for _ in range(SETUP_REPEATS):
        done = subprocess.run(
            [sys.executable, "-I", "-c", SETUP_CODE, *files],
            capture_output=True, text=True, timeout=120, check=True,
        )
        elapsed, probe = map(float, done.stdout.split())
        raw.append(elapsed)
        ref.append(elapsed * speed.REFERENCE_SECONDS / probe)
    return raw, ref


def _input_files(jobs) -> list:
    return sorted({job.argv[1] for job in jobs if job.argv})


def _keep_going(start: float, per_pass: float, seconds: float) -> bool:
    return time.perf_counter() - start + per_pass <= seconds


def _summary(values) -> str:
    text = f"median {statistics.median(values):.4f}"
    if len(values) >= 2:
        q1, _, q3 = statistics.quantiles(values, n=4)
        text += f", q1 {q1:.4f}, q3 {q3:.4f}"
    return text + f", n={len(values)}"


def measure(name: str, seed: int, seconds: float, trace: bool, ids=None):
    """Run one workload; return (human-readable lines, result object)."""
    import workloads

    workload = workloads.WORKLOADS[name]
    jobs = workloads.select(workload, ids)
    reference = workloads.load_reference(name)
    passes: list = []       # outcome lists, untraced and traced alike
    problems: list = []     # run-level problems
    metrics: dict = {}
    lines = [f"workload {name}, seed {seed}, {len(jobs)} jobs per pass, closed loop, one client"]

    def timed_pass(**kw):
        """Run a pass; return its raw and reference seconds, summed over jobs."""
        outcomes = workloads.run_pass(jobs, seed, reference, **kw)
        passes.append(outcomes)
        return (sum(o.seconds for o in outcomes),
                sum(o.seconds * o.scale for o in outcomes))

    if not trace:
        setup_raw, setup_ref = setup_seconds(_input_files(jobs))
        raw, ref = [], []
        start = time.perf_counter()
        while not raw or _keep_going(start, statistics.mean(raw), seconds):
            r, s = timed_pass()
            raw.append(r)
            ref.append(s)
        peak = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
        metrics = {
            "wall_s": (statistics.median(ref), "s"),
            "setup_s": (statistics.median(setup_ref), "s"),
            "peak_rss_mb": (peak, "MB"),
        }
        lines.append(f"wall_s per pass, reference seconds: {_summary(ref)}")
        lines.append(f"  measured seconds: {_summary(raw)}")
        lines.append(f"setup_s per interpreter, reference seconds: {_summary(setup_ref)}")
        lines.append(f"  measured seconds: {_summary(setup_raw)}")
    else:
        import tracing

        plain, traced, layers = [], [], []
        expected = set().union(*(workloads.EXPECTED_SPANS[job.command] for job in jobs))
        start = time.perf_counter()
        while True:
            plain.append(timed_pass())
            tracer = tracing.Tracer()
            with tracer.installed():
                traced.append(timed_pass(on_job=tracer.begin_job))
            layers.append(tracing.layer_metrics(tracer, {o.job.id: o.scale for o in passes[-1]}))
            called = {span[0] for span in tracer.spans}
            problems += [f"no {span} span: wrapper not bound" for span in sorted(expected - called)]
            per_pass = statistics.mean(p[0] + t[0] for p, t in zip(plain, traced))
            if problems or not _keep_going(start, per_pass, seconds):
                break
        os.makedirs(OUT_DIR, exist_ok=True)
        spans_path = os.path.join(OUT_DIR, f"spans-{name}-seed{seed}.jsonl")
        tracer.write(spans_path)
        for metric, (value, unit) in layers[0].items():
            values = [layer[metric][0] for layer in layers]
            if unit == "s":
                value = statistics.median(values)
            elif len(set(values)) > 1:
                problems.append(f"{metric} differs between passes: {values}")
            metrics[metric] = (value, unit)
        overhead = (statistics.median(t[1] for t in traced)
                    / statistics.median(p[1] for p in plain))
        metrics["trace.overhead"] = (overhead, "ratio")
        if metrics["berger.violations"][0]:
            problems.append("berger.violations is not 0")
        lines.append(f"tracing overhead: {overhead:.4f} (traced / untraced pass, reference "
                     f"seconds, {len(traced)} pairs); spans of the last traced pass in {spans_path}")

    outcomes = [o for outcomes in passes for o in outcomes]
    failed = sum(1 for o in outcomes if not o.ok)
    lines.append(f"fail_frac: {failed / len(outcomes)} ({failed}/{len(outcomes)} jobs)")
    for job in jobs:
        mine = [o for o in outcomes if o.job is job]
        digests = sorted({o.digest for o in mine})
        lines.append(f"job {job.id!r}: exit {mine[-1].code}, median "
                     f"{statistics.median(o.seconds * o.scale for o in mine):.4f} reference s, "
                     f"sha256 {' '.join(digests)}")
        lines += [f"  FAIL: {p}" for p in sorted({p for o in mine for p in o.problems})]
    lines += [f"FAIL: {p}" for p in problems]
    lines += [f"{key}: {value} {unit}" for key, (value, unit) in metrics.items()]
    result = {
        "correct": failed == 0 and not problems,
        "attempted": len(outcomes),
        "failed": failed,
        "metrics": {key: {"value": value, "unit": unit} for key, (value, unit) in metrics.items()},
    }
    return lines, result


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description="artinalg benchmark")
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=40)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if not use_checkout():
        print("error: run from the root of an artinalg checkout (src/artinalg missing)",
              file=sys.stderr)
        return 2
    import workloads

    if args.workload not in workloads.WORKLOADS:
        print(f"error: unknown workload {args.workload!r}; "
              f"choose from {', '.join(workloads.WORKLOADS)}", file=sys.stderr)
        return 2
    lines, result = measure(args.workload, args.seed, args.seconds, bool(args.trace))
    for line in lines:
        print(line)
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
