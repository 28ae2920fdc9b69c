"""Smoke tests for the benchmark itself.

    python3 -m pytest -q perfbench/tests
"""

from __future__ import annotations

import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[2]
sys.path[:0] = [str(ROOT / "src"), str(ROOT)]

from perfbench import run  # noqa: E402
from perfbench.tracing import Span, op_totals, self_times  # noqa: E402
from perfbench.workloads import EvaluateWav  # noqa: E402


def _bench(*args, cwd=ROOT):
    return subprocess.run(
        [sys.executable, str(Path(cwd) / "perfbench" / "run.py"), *args],
        cwd=cwd, capture_output=True, text=True, timeout=170,
    )


@pytest.mark.parametrize("trace", ["0", "1"])
@pytest.mark.parametrize("workload", run.WORKLOAD_NAMES)
def test_tiny_run_is_correct_and_reports_every_metric(workload, trace):
    # The untraced loop runs past --seconds until each latency class has
    # run.MIN_SAMPLES samples, so these runs take up to about 40 s each.
    done = _bench("--workload", workload, "--seed", "5", "--seconds", "0.5", "--trace", trace)
    assert done.returncode == 0, done.stderr
    result = json.loads(done.stdout.splitlines()[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] and result["failed"] == 0 and result["attempted"] >= 1, done.stderr
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    wanted = spec["per_layer" if trace == "1" else "end_to_end"]
    assert set(result["metrics"]) == {m["name"] for m in wanted}
    if trace == "0":
        assert all(m["value"] > 0 for m in result["metrics"].values())


def test_refuses_to_run_without_the_package_sources(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(ROOT / "perfbench", tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    done = _bench("--workload", "mix_generate", "--seed", "1", "--seconds", "1",
                  "--trace", "0", cwd=tmp_path)
    assert done.returncode != 0
    assert '"correct"' not in done.stdout


class _SwappedEvaluate(EvaluateWav):
    """Evaluate that reports targets 0 and 1 matched the wrong way round."""

    def run(self, op, index):
        code, stdout = super().run(op, index)
        payload = json.loads(stdout)
        payload["permutation"][:2] = payload["permutation"][1::-1]
        return code, json.dumps(payload)


def test_wrong_permutation_counts_as_a_failed_op(tmp_path):
    workload = _SwappedEvaluate(tmp_path, seed=5)
    workload.setup()
    op = next(op for op in workload.cycle() if op.size == 2)
    tally = run.Tally()
    tally.add(run._attempt(workload, op, 0)[2])
    assert (tally.attempted, tally.failed) == (1, 1)
    assert "permutation" in tally.errors[0]

    honest = EvaluateWav(tmp_path, seed=5)
    honest.setup()
    assert run._attempt(honest, op, 0)[2] is None


def test_self_time_subtracts_the_union_of_child_intervals():
    spans = [
        Span("root", 0, 100, -1, 7),
        Span("a", 10, 40, 0, 7),
        Span("a.inner", 15, 20, 1, 7),
        Span("b", 30, 60, 0, 7),  # overlaps a: 10..60 is covered once
        Span("c", 90, 130, 0, 7),  # runs past its parent: only 90..100 counts
        Span("other-op", 0, 10, -1, 8),
    ]
    assert self_times(spans) == [100 - 50 - 10, 30 - 5, 5, 30, 40, 10]
    totals = op_totals(spans)
    assert totals[7]["root"] == [100, 40, 1]
    assert totals[8]["other-op"] == [10, 10, 1]
