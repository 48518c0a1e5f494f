"""Tests of the benchmark itself: every metric is printed with its unit,
and a corrupted result is counted as a failed operation."""

import json
import os
import shutil
import subprocess
import sys
import time
from types import SimpleNamespace

import pytest

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
sys.path.insert(0, HERE)

import run  # noqa: E402

fliess = run.import_fliess()
import spans  # noqa: E402
import workloads  # noqa: E402

with open(os.path.join(ROOT, "BENCHMARK.json")) as fh:
    BENCH = json.load(fh)


def _bench(cwd, workload, trace):
    cmd = [
        sys.executable, "perfbench/run.py", "--workload", workload, "--seed", "3",
        "--seconds", "1", "--trace", str(trace), "--size", "tiny",
    ]
    return subprocess.run(cmd, cwd=cwd, capture_output=True, text=True, timeout=170)


@pytest.mark.parametrize("trace", [0, 1])
@pytest.mark.parametrize("workload", [w["name"] for w in BENCH["workloads"]])
def test_tiny_run_prints_every_metric_with_its_unit(workload, trace):
    done = _bench(ROOT, workload, trace)
    assert done.returncode == 0, done.stderr
    lines = done.stdout.strip().splitlines()
    info = json.loads(lines[-2][len(run.INFO_PREFIX):])
    assert info["stamp"]["kernel_backend"] == fliess.KERNEL_BACKEND
    result = json.loads(lines[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] and result["failed"] == 0 and result["attempted"] >= 1
    declared = {m["name"]: m["unit"] for m in BENCH["per_layer" if trace else "end_to_end"]}
    assert {name: m["unit"] for name, m in result["metrics"].items()} == declared
    assert all(isinstance(m["value"], (int, float)) for m in result["metrics"].values())


def test_run_without_the_program_fails(tmp_path):
    shutil.copy(os.path.join(ROOT, "BENCHMARK.json"), tmp_path)
    shutil.copytree(HERE, tmp_path / "perfbench", ignore=shutil.ignore_patterns("__pycache__"))
    done = _bench(tmp_path, "invert_deep", 0)
    assert done.returncode != 0
    assert '"correct"' not in done.stdout


def test_reference_check_rejects_a_wrong_coefficient_only():
    ref = workloads.reference()["invert_deep"][3]

    def failed(steer):
        report = SimpleNamespace(index=3, steering_rate_coeffs=steer, speed_rate_coeffs=ref[1])
        return workloads.check_invert_deep(None, workloads.Item(key="sections", output=[report]))

    assert failed(ref[0]) == 0
    assert failed([v * (1 + 1.3e-10) for v in ref[0]]) == 0  # re-associated arithmetic
    wrong = list(ref[0])
    k = max(range(len(wrong)), key=lambda i: abs(wrong[i]))
    wrong[k] *= 1 + 1e-6
    assert failed(wrong) == 1
    assert workloads.check_invert_deep(None, workloads.Item(key="sections", output=[])) == 1


def test_corrupted_item_is_reported_as_failed(monkeypatch, capsys):
    honest = workloads.WORKLOADS["param_sweep"]

    def corrupting(inputs, pass_no):
        for n, item in enumerate(honest.run_pass(inputs, pass_no)):
            if n == 1:  # one coefficient off by 1e-6 relative
                coeffs = list(item.output.speed_rate_coeffs)
                k = max(range(len(coeffs)), key=lambda i: abs(coeffs[i]))
                coeffs[k] *= 1 + 1e-6
                item.output.speed_rate_coeffs = coeffs
            if n == 2:  # an output the check cannot even read
                item.output = None
            yield item

    monkeypatch.setitem(workloads.WORKLOADS, "param_sweep", honest.__class__(
        honest.name, honest.setup, corrupting, honest.check, honest.single_pass))
    run.main(["--workload", "param_sweep", "--seed", "3", "--size", "tiny", "--reference-pass"])
    result = json.loads(capsys.readouterr().out.strip().splitlines()[-1])
    assert result["attempted"] == workloads.SIZES["tiny"]["param_sweep"]["gains"]
    assert result["failed"] == 2 and result["correct"] is False


def test_self_time_subtracts_child_spans():
    rec = spans.SpanRecorder("test")

    def leaf():
        time.sleep(0.02)

    def parent(depth):
        if depth:
            traced_parent(depth - 1)
        traced_leaf()

    traced_leaf = rec.wrap(leaf, "leaf")
    traced_parent = rec.wrap(parent, "parent")
    traced_parent(1)
    names = [s[0] for s in rec.spans]
    assert names == ["parent", "parent", "leaf", "leaf"]
    assert [s[3] for s in rec.spans] == [-1, 0, 1, 0]  # parent indices
    assert [s[4] for s in rec.spans] == [False, True, False, False]  # nested in a same-name span
    self_times = rec.self_times()
    for i, (_, start, end, _, _) in enumerate(rec.spans):
        children = sum(e - s for _, s, e, p, _ in rec.spans if p == i)
        assert self_times[i] == pytest.approx(end - start - children)
    assert self_times[0] < 0.01 and self_times[2] >= 0.02
