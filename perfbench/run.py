"""Run one benchmark workload against the package in this checkout.

    python3 perfbench/run.py --workload evaluate_wav --seed 1 --seconds 25 --trace 0

With ``--trace 0`` it times a closed loop (one client, one op in flight)
and prints the end-to-end metrics named in BENCHMARK.json; with
``--trace 1`` it runs each op untraced and traced in turn and prints the
per-layer metrics. The last line of stdout is the result object; the line
before it records the environment and the detail behind the metrics.
"""

from __future__ import annotations

import argparse
import ctypes
import json
import os
import platform
import resource
import shutil
import statistics
import subprocess
import sys
import tempfile
import time
from collections import Counter
from importlib import metadata
from pathlib import Path

import numpy as np

ROOT = Path(__file__).resolve().parent.parent
SETUP_REPEATS = 5  # fresh interpreters, each importing and generating once
MIN_SAMPLES = 100  # per latency class, so ten or more lie beyond each p90
MAX_LOOP_S = 120.0  # the timed loop ends here even short of MIN_SAMPLES, and the run fails
WORKLOAD_NAMES = ("evaluate_wav", "mix_generate", "solve_matrices")


def parse_args(argv):
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=WORKLOAD_NAMES)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True, help="length of the measured loop")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return parser.parse_args(argv)


class Tally:
    """Operations attempted and failed, with the first few reasons."""

    def __init__(self) -> None:
        self.attempted = 0
        self.failed = 0
        self.errors: list[str] = []

    def add(self, error: str | None) -> None:
        self.attempted += 1
        if error is not None:
            self.fail(error)

    def fail(self, error: str) -> None:
        self.failed += 1
        if len(self.errors) < 5:
            self.errors.append(error)


def _run(wl, op, index):
    start = time.perf_counter_ns()
    try:
        output = wl.run(op, index)
    except Exception as exc:  # a failed op is counted and the loop goes on
        return time.perf_counter_ns() - start, None, f"{op.kind} C={op.size} raised {exc!r}"
    return time.perf_counter_ns() - start, output, None


def _check(wl, op, index, output) -> str | None:
    try:
        error = wl.check(op, index, output)
    except Exception as exc:  # malformed output
        error = f"check raised {exc!r}"
    return None if error is None else f"{op.kind} C={op.size}: {error}"


def _attempt(wl, op, index, tracer=None):
    """Run one op, traced when a tracer is given, then check its output."""
    if tracer is None:
        ns, output, error = _run(wl, op, index)
    else:
        with tracer.op(index):
            ns, output, error = _run(wl, op, index)
    return ns, output, error or _check(wl, op, index, output)


def _short_classes(wl, per_class: Counter) -> list[str]:
    return [f"{kind}.c{size}" for kind, size in (wl.small, wl.large) if per_class[kind, size] < MIN_SAMPLES]


def _loop(wl, cycle, seconds, per_class: Counter, sampled: bool):
    """The closed loop's (index, op) pairs for --seconds; when `sampled`, also
    until each latency class holds MIN_SAMPLES, but never past MAX_LOOP_S."""
    start = time.monotonic()
    index = len(cycle)
    while True:
        elapsed = time.monotonic() - start
        if elapsed >= MAX_LOOP_S or (elapsed >= seconds and not (sampled and _short_classes(wl, per_class))):
            return
        yield index, cycle[index % len(cycle)]
        index += 1


def _warm_up(wl, tally) -> int:
    """Run every input once, untimed, so caches fill before the timed loop."""
    ops = wl.each_input()
    for index, op in enumerate(ops):
        tally.add(_attempt(wl, op, index)[2])
    return len(ops)


def _median(values) -> float:
    return float(statistics.median(values)) if values else 0.0


def timed_run(wl, args, tally, record) -> dict[str, float]:
    cycle = wl.cycle()
    record["warmup_ops"] = _warm_up(wl, tally)
    samples, per_class = [], Counter()
    for index, op in _loop(wl, cycle, args.seconds, per_class, sampled=True):
        ns, _, error = _attempt(wl, op, index)
        tally.add(error)
        samples.append((op, ns))
        per_class[op.kind, op.size] += 1
    for cls in _short_classes(wl, per_class):
        tally.fail(f"{cls}: fewer than {MIN_SAMPLES} samples in {MAX_LOOP_S:g} s, so its p90 is unsupported")
    peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    for error in wl.finish().values():
        tally.fail(error)

    busy = [(op.items, ns) for op, ns in samples if op.kind == wl.throughput_kind]
    metrics = {
        "setup_s": record["setup_s"],
        "peak_rss_mb": peak_rss_mb,
        "items_per_s": sum(n for n, _ in busy) / (sum(ns for _, ns in busy) / 1e9),
    }
    for label, cls in (("small_op_ms", wl.small), ("large_op_ms", wl.large)):
        ms = [ns / 1e6 for op, ns in samples if (op.kind, op.size) == cls]
        metrics[f"{label}.p50"] = float(np.percentile(ms, 50))
        metrics[f"{label}.p90"] = float(np.percentile(ms, 90))
    record["samples"] = {f"{kind}.c{size}": n for (kind, size), n in sorted(per_class.items())}
    named = {}
    for name, value in metrics.items():
        prefix, dot, rest = name.partition(".")
        named[wl.labels.get(prefix, prefix) + dot + rest] = value
    record["metrics_as_named_by_workload"] = named
    return metrics


def _count_pass(wl, tally) -> dict[str, int]:
    from perfbench.tracing import Tracer, exact_counts

    tracer = Tracer()
    for index, op in enumerate(wl.each_input()):
        tally.add(_attempt(wl, op, index, tracer)[2])
    return exact_counts(tracer.spans)


def traced_run(wl, args, tally, record) -> dict[str, float]:
    from perfbench.tracing import Tracer, op_totals

    tracer = Tracer()
    cycle = wl.cycle()
    record["warmup_ops"] = _warm_up(wl, tally)
    traced_ops, ratios, per_class = {}, [], Counter()
    # No percentiles here, so the loop keeps to --seconds.
    for index, op in _loop(wl, cycle, args.seconds, per_class, sampled=False):
        # Alternate which of the pair goes first, so neither always runs warm.
        results = {}
        for traced in (False, True) if index % 2 == 0 else (True, False):
            results[traced] = _attempt(wl, op, index, tracer if traced else None)
        (plain_ns, plain, plain_error), (traced_ns, out, traced_error) = results[False], results[True]
        if plain_error is None and traced_error is None:
            if wl.normalised(op, plain) != wl.normalised(op, out):
                traced_error = f"{op.kind} C={op.size}: traced output differs from untraced"
            else:
                ratios.append(traced_ns / plain_ns)
        tally.add(plain_error)
        tally.add(traced_error)
        traced_ops[index] = op
        per_class[op.kind, op.size] += 1

    counts = _count_pass(wl, tally)
    if _count_pass(wl, tally) != counts:
        tally.fail("exact counts differ between two traced passes over the same inputs")
    scipy = wl.scipy_ratios() if hasattr(wl, "scipy_ratios") else {}
    for error in wl.finish().values():
        tally.fail(error)

    spans = tracer.spans
    totals = op_totals(spans)
    reference = [i for i, op in traced_ops.items() if wl.is_reference(op)]

    def per_op_ms(name, column=0):
        """Median over reference ops of the time in `name` per op (0 inclusive, 1 self)."""
        return _median([totals[i][name][column] / 1e6 for i in reference if name in totals[i]])

    def per_call_ms(name, size):
        return _median([
            (s.end_ns - s.start_ns) / 1e6 for s in spans
            if s.name == name and s.info.get("size") == size
        ])

    def work_and_busy(name, key):
        chosen = [s for s in spans if s.name == name]
        return sum(s.info.get(key, 0) for s in chosen), sum(s.end_ns - s.start_ns for s in chosen)

    def mb_per_s(name):
        work, busy = work_and_busy(name, "bytes")
        return work * 1e3 / busy if busy else 0.0

    def per_matrix(key, size):
        calls = counts.get(f"assignment.solve_hungarian.calls.c{size}", 0)
        return counts.get(f"assignment.solve_hungarian.{key}.c{size}", 0) / calls if calls else 0.0

    metrics = {"cli.self.ms": per_op_ms("cli.main", 1)}
    for name in (
        "wavio.read_wav", "wavio.write_wav", "mixtures.truncate_to_min",
        "mixtures.generate_sources", "mixtures.mix", "metrics.SeparationInstance",
        "metrics.pairwise_cost_matrix", "metrics.si_sdr_improvement",
        "assignment.solve_batch", "assignment.load_matrix", "assignment.solve_sinkhorn",
    ):
        metrics[f"{name}.ms"] = per_op_ms(name)
    for name in ("wavio.read_wav", "wavio.write_wav"):
        metrics[f"{name}.calls"] = counts.get(f"{name}.calls", 0)
        metrics[f"{name}.bytes"] = counts.get(f"{name}.bytes", 0)
        metrics[f"{name}.mb_per_s"] = mb_per_s(name)
    metrics["assignment.load_matrix.bytes"] = counts.get("assignment.load_matrix.bytes", 0)
    metrics["assignment.load_matrix.mb_per_s"] = mb_per_s("assignment.load_matrix")
    metrics["metrics.pairwise_cost_matrix.pairs"] = counts.get("metrics.pairwise_cost_matrix.pairs", 0)
    pairs, busy = work_and_busy("metrics.pairwise_cost_matrix", "pairs")
    metrics["metrics.pairwise_cost_matrix.ns_per_pair"] = busy / pairs if pairs else 0.0
    metrics["assignment.solve_hungarian.ms"] = per_call_ms("assignment.solve_hungarian", 20)
    metrics["assignment.solve_hungarian.c320_ms"] = per_call_ms("assignment.solve_hungarian", 320)
    metrics["assignment.solve_hungarian.rounds"] = per_matrix("rounds", 20)
    metrics["assignment.solve_hungarian.c320_rounds"] = per_matrix("rounds", 320)
    metrics["assignment.solve_hungarian.scipy_ratio_c20"] = scipy.get("c20", 0.0)
    metrics["assignment.solve_hungarian.scipy_ratio_c320"] = scipy.get("c320", 0.0)
    metrics["trace.overhead"] = _median(ratios) - 1.0 if ratios else 0.0

    # Median self time per span name for each op class, largest first.
    classes: dict[str, dict[str, list[float]]] = {}
    for i, op in traced_ops.items():
        table = classes.setdefault(f"{op.kind}.c{op.size}", {})
        for name, (_, own, _) in totals[i].items():
            table.setdefault(name, []).append(own / 1e6)
    record["self_ms"] = {
        cls: dict(sorted(((n, _median(v)) for n, v in table.items()), key=lambda kv: -kv[1]))
        for cls, table in sorted(classes.items())
    }
    record["exact_counts"] = counts
    record["samples"] = {f"{kind}.c{size}": n for (kind, size), n in sorted(per_class.items())}
    spans_path = ROOT / ".perfbench_out" / f"spans-{wl.name}-seed{args.seed}.jsonl"
    spans_path.parent.mkdir(exist_ok=True)
    tracer.write(spans_path)
    record["spans_file"] = str(spans_path.relative_to(ROOT))
    return metrics


SETUP_CODE = """
import sys, time
start = time.perf_counter()
import sepmatch
from pathlib import Path
from perfbench.workloads import WORKLOADS
WORKLOADS[sys.argv[1]](Path(sys.argv[2]), int(sys.argv[3])).setup()
print(time.perf_counter() - start)
"""


def setup_seconds(workload: str, seed: int, scratch: Path) -> list[float]:
    """Cold set-up times: each in a fresh interpreter, importing sepmatch and
    generating the inputs once into a directory of its own."""
    env = dict(os.environ, PYTHONPATH=os.pathsep.join([str(ROOT / "src"), str(ROOT)]))
    times = []
    for _ in range(SETUP_REPEATS):
        work_dir = tempfile.mkdtemp(dir=scratch)
        try:
            times.append(float(subprocess.run(
                [sys.executable, "-c", SETUP_CODE, workload, work_dir, str(seed)],
                env=env, cwd=ROOT, check=True, capture_output=True, text=True, timeout=60,
            ).stdout))
        finally:
            shutil.rmtree(work_dir, ignore_errors=True)
    return times


def blas() -> dict:
    """BLAS library, version and thread count, as loaded by numpy."""
    info = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    out = {"name": info.get("name"), "version": info.get("version"), "threads": None}
    try:
        with open("/proc/self/maps") as maps:
            path = next((line.split()[-1] for line in maps if "openblas" in line.lower()), None)
    except OSError:
        path = None
    if path:
        lib = ctypes.CDLL(path)
        for symbol in ("scipy_openblas_get_num_threads64_", "openblas_get_num_threads64_",
                       "openblas_get_num_threads"):
            if hasattr(lib, symbol):
                out["threads"] = getattr(lib, symbol)()
                break
    return out


def environment(seed: int) -> dict:
    try:
        scipy_version = metadata.version("scipy")
    except metadata.PackageNotFoundError:
        scipy_version = None
    return {
        "python": platform.python_version(),
        "numpy": np.__version__,
        "scipy": scipy_version,
        "blas": blas(),
        "nproc": len(os.sched_getaffinity(0)),
        "machine": platform.machine(),
        "seed": seed,
    }


def main(argv=None) -> int:
    args = parse_args(argv)
    if not (ROOT / "src" / "sepmatch" / "__init__.py").is_file():
        print(f"error: no sepmatch sources under {ROOT / 'src'}", file=sys.stderr)
        return 2
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    wanted = spec["per_layer" if args.trace else "end_to_end"]
    sys.path[:0] = [str(ROOT / "src"), str(ROOT)]

    load_before = os.getloadavg()
    from perfbench.workloads import WORKLOADS

    record = {"workload": args.workload, "trace": args.trace, "seconds": args.seconds}
    record["environment"] = environment(args.seed)
    scratch = ROOT / ".perfbench_tmp"
    scratch.mkdir(exist_ok=True)
    work_dir = Path(tempfile.mkdtemp(dir=scratch))
    tally = Tally()
    try:
        cold = setup_seconds(args.workload, args.seed, scratch)
        record["setup_s"] = statistics.median(cold)
        wl = WORKLOADS[args.workload](work_dir, args.seed)
        start = time.perf_counter()
        wl.setup()  # this process's own inputs, import excluded: recorded, not reported
        record["setup"] = {"cold_s": cold, "in_process_s": time.perf_counter() - start}
        run = traced_run if args.trace else timed_run
        metrics = run(wl, args, tally, record)
    finally:
        shutil.rmtree(work_dir, ignore_errors=True)
        try:
            scratch.rmdir()
        except OSError:
            pass  # another run still uses it
    record["environment"]["loadavg_before"] = load_before
    record["environment"]["loadavg_after"] = os.getloadavg()
    record["errors"] = tally.errors
    missing = [m["name"] for m in wanted if m["name"] not in metrics]
    if missing:
        print(f"error: metrics not measured: {missing}", file=sys.stderr)
        return 3
    for error in tally.errors:
        print(f"failed: {error}", file=sys.stderr)
    print(json.dumps({"record": record}))
    print(json.dumps({
        "correct": tally.failed == 0,
        "attempted": tally.attempted,
        "failed": tally.failed,
        "metrics": {m["name"]: {"value": metrics[m["name"]], "unit": m["unit"]} for m in wanted},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
