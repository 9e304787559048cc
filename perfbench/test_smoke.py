"""Fast check of the benchmark itself: one job per workload, untraced and traced.

Run from the repository root:

    python3 -m pytest -q perfbench/test_smoke.py
"""

from __future__ import annotations

import json
import os
import sys

import pytest

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
sys.path.insert(0, HERE)

import make_inputs  # noqa: E402
import run  # noqa: E402


@pytest.fixture(scope="module", autouse=True)
def checkout():
    old = os.getcwd()
    os.chdir(ROOT)
    assert run.use_checkout()
    yield
    os.chdir(old)


@pytest.fixture(scope="module")
def spec():
    with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as fh:
        return json.load(fh)


def test_workloads_match_benchmark_json(spec):
    import workloads

    assert [(w["name"], w["why"]) for w in spec["workloads"]] == [
        (w.name, w.why) for w in workloads.WORKLOADS.values()
    ]


def test_inputs_match_generator():
    assert make_inputs.main(["--check"]) == 0


def test_changed_digest_is_a_failure():
    import workloads

    job = workloads.WORKLOADS["structure"].jobs[-1]
    code, text = workloads.run_cli(workloads.job_argv(job, 0))
    pinned = workloads.load_reference("structure")[job.id]
    assert workloads.check(job, code, text, 0, {job.id: pinned}) == []
    wrong = {job.id: {**pinned, "sha256": "0" * 64}}
    assert workloads.check(job, code, text, 0, wrong)


@pytest.mark.parametrize("trace", [False, True], ids=["untraced", "traced"])
@pytest.mark.parametrize("name", ["structure", "hom-sweep", "staircase"])
def test_one_job_per_workload(spec, name, trace):
    import workloads

    lines, result = run.measure(name, 0, 0, trace, ids=workloads.WORKLOADS[name].smoke)
    assert not [line for line in lines if "FAIL" in line]
    assert result["correct"] and result["failed"] == 0 and result["attempted"] >= 1
    assert any(line.startswith("fail_frac: 0.0 ") for line in lines)
    wanted = spec["per_layer" if trace else "end_to_end"]
    assert {m["name"]: m["unit"] for m in wanted} == {
        key: m["unit"] for key, m in result["metrics"].items()
    }
    if trace:
        assert result["metrics"]["berger.violations"]["value"] == 0
    else:
        assert all(m["value"] > 0 for m in result["metrics"].values())
