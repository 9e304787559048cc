"""Pin each job's exit code and report digest at the default seed.

Run from the root of a checkout, at a commit whose outputs are known to
be right:

    python3 perfbench/pin.py

Writes perfbench/reference.json.  A job whose verdict fields fail is not
pinned and the script exits 1.
"""

from __future__ import annotations

import json
import sys

from run import use_checkout


def main() -> int:
    if not use_checkout():
        print("error: run from the root of an artinalg checkout", file=sys.stderr)
        return 2
    import workloads

    reference, bad = {}, []
    for name, workload in workloads.WORKLOADS.items():
        pinned = {}
        for o in workloads.run_pass(workload.jobs, workloads.DEFAULT_SEED, reference={}):
            verdicts = workloads.verdict_problems(o.job, json.loads(o.text)) if o.text else o.problems
            if verdicts:
                bad.append(f"{name} / {o.job.id}: {verdicts}")
                continue
            pinned[o.job.id] = {"exit": o.code, "sha256": o.digest}
            print(f"{name} / {o.job.id}: exit {o.code}, sha256 {o.digest}")
        reference[name] = pinned
    with open(workloads.REFERENCE, "w", encoding="utf-8") as fh:
        json.dump(reference, fh, indent=2, sort_keys=True)
        fh.write("\n")
    for line in bad:
        print(f"not pinned: {line}", file=sys.stderr)
    return 1 if bad else 0


if __name__ == "__main__":
    sys.exit(main())
