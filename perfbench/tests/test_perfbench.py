"""The benchmark's own tests, at toy sizes: every declared metric is emitted
with its unit, a damaged output is counted in fail_frac, and the command
refuses to run where it cannot measure what it claims."""

import json
import os
import shutil
import subprocess
import sys
from argparse import Namespace
from pathlib import Path

import numpy as np
import pytest

import run
import spans
import workloads

ROOT = Path(__file__).resolve().parent.parent.parent
SPEC = {key: {m["name"]: m for m in json.loads((ROOT / "BENCHMARK.json").read_text())[key]}
        for key in ("end_to_end", "per_layer")}
TOY = {"qr-paper": dict(n=4000, m=30, k=300),
       "gmres-ilu": dict(grid=20, m=80, k=100),
       "certify-rademacher": dict(n=2000, m=20, k=200),
       "qr-baselines": dict(n=3000, m=30)}
# flags and counts that may read 0 on every workload
MAY_READ_ZERO = {"gram_schmidt.breakdowns", "gram_schmidt.gate_pass",
                 "krylov.breakdown", "krylov.converged", "bench.bound_violations"}


def _measure(wl, trace, min_ops=run.MIN_OPS):
    tracer = spans.Tracer() if trace else None
    setup_times, ops, rss = run.measure(wl, seed=3, seconds=0.0, tracer=tracer,
                                        setup_repeats=2, min_ops=min_ops)
    args = Namespace(seed=3, seconds=0.0, trace=int(trace))
    return run.summarize(wl, args, SPEC, 0.1, setup_times, ops, rss, tracer)


@pytest.fixture(scope="module")
def results(tmp_path_factory):
    out = tmp_path_factory.mktemp("results")
    return {(name, trace): _measure(workloads.make_workload(name, out, **TOY[name]), trace)
            for name in run.NAMES for trace in (False, True)}


def _units(metrics):
    return {name: m["unit"] for name, m in metrics.items()}


@pytest.mark.parametrize("name", run.NAMES)
def test_end_to_end_metrics_are_emitted_with_units(results, name):
    result, record = results[name, False]
    assert result["correct"] and result["failed"] == 0 and result["attempted"] >= 2
    assert record["fail_frac"] == 0
    assert _units(result["metrics"]) == {n: m["unit"] for n, m in SPEC["end_to_end"].items()}
    assert all(m["value"] > 0 for m in result["metrics"].values())
    lines = "\n".join(run.report_lines(record))
    for metric in list(SPEC["end_to_end"]) + ["fail_frac"]:
        assert metric in lines


@pytest.mark.parametrize("name", run.NAMES)
def test_traced_run_emits_every_layer_metric(results, name):
    result, _ = results[name, True]
    assert result["correct"]
    assert _units(result["metrics"]) == {n: m["unit"] for n, m in SPEC["per_layer"].items()}
    assert all(np.isfinite(m["value"]) for m in result["metrics"].values())


def test_every_layer_metric_is_measured_on_some_workload(results):
    measured = {name for name_trace, (result, _) in results.items() if name_trace[1]
                for name, m in result["metrics"].items() if m["value"]}
    assert set(SPEC["per_layer"]) - MAY_READ_ZERO <= measured


def _damage_qr(out):
    out[0].Q[:, 0] *= 2


def _damage_gmres(res):
    res.x[0] += 1.0


def _damage_certify(report):
    report.rows[0]["omega"] = 10.0


def _damage_baselines(out):
    out["mgs"].Q[0, 3] = np.nan


class _DamageSecond:
    """A workload whose second operation returns a damaged output."""

    def __init__(self, wl, damage):
        self._wl, self._damage, self._calls = wl, damage, 0

    def __getattr__(self, attr):
        return getattr(self._wl, attr)

    def run(self, inputs):
        out = self._wl.run(inputs)
        self._calls += 1
        if self._calls == 2:
            self._damage(out)
        return out


@pytest.mark.parametrize("name, damage", [
    ("qr-paper", _damage_qr), ("gmres-ilu", _damage_gmres),
    ("certify-rademacher", _damage_certify), ("qr-baselines", _damage_baselines)])
def test_damaged_output_raises_fail_frac(tmp_path, name, damage):
    wl = _DamageSecond(workloads.make_workload(name, tmp_path, **TOY[name]), damage)
    result, record = _measure(wl, trace=False, min_ops=3)
    assert not result["correct"]
    assert (result["attempted"], result["failed"]) == (3, 1)
    assert record["fail_frac"] == pytest.approx(1 / 3)
    failures = record["operations"][1]["failures"]
    assert any("exceeds" in f for f in failures)
    assert "output differs from the other repetitions" in failures


def test_baseline_records_the_limits_in_force(tmp_path):
    baseline = json.loads((ROOT / "perfbench" / "baseline.json").read_text())
    for name in run.NAMES:
        assert baseline["workloads"][name]["limits"] == \
            workloads.make_workload(name, tmp_path).limits


def _command(cwd, env=None):
    return subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "qr-paper",
         "--seed", "1", "--seconds", "1", "--trace", "0"],
        cwd=cwd, env=env, capture_output=True, text=True, timeout=120)


def test_refuses_to_run_without_the_library_sources(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(ROOT / "perfbench", tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("results", "__pycache__"))
    proc = _command(tmp_path)
    assert proc.returncode != 0
    assert proc.stdout == ""


def test_refuses_to_run_with_unpinned_blas_threads():
    proc = _command(ROOT, env={**os.environ, "OPENBLAS_NUM_THREADS": "2"})
    assert proc.returncode != 0
    assert proc.stdout == ""
    assert "thread" in proc.stderr
