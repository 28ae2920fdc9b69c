"""The three closed-loop workloads: evaluate_wav, mix_generate, solve_matrices.

Each workload makes its inputs from the seed (``setup``), lists one cycle
of its closed loop (``cycle``) and every input once (``each_input``: the
warm-up, and the traced pass whose counts must repeat exactly), runs
one operation through the package's public entry points (``run``, the
timed part) and checks the operation's output (``check``, untimed).
Checks that need scipy wait for ``finish``, so that scipy never counts
toward the program's peak memory.
"""

from __future__ import annotations

import contextlib
import io
import json
import math
import shutil
import time
from dataclasses import dataclass
from pathlib import Path

import numpy as np

import sepmatch.assignment as assignment
import sepmatch.cli as cli

from . import inputs

# C = 20 and C = 2 come round most often, so that both latency classes
# soon hold the 100 samples, ten beyond each p90, that a run needs.
SIZE_PATTERN = (20, 2, 2, 20, 5, 2, 20, 2, 2, 20, 10, 2)


@dataclass(frozen=True)
class Op:
    kind: str  # "evaluate", "mix", "batch", "sinkhorn" or "solve"
    size: int  # C
    key: int  # which pre-generated input
    items: int  # sources scored or written, or matrices solved


def cli_main(argv: list[str]) -> tuple[int, str]:
    """One in-process ``sepmatch`` command: exit code and captured stdout."""
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        code = cli.main(argv)
    return code, out.getvalue()


def _seed_stream(seed: int, *key: int) -> np.random.Generator:
    return np.random.default_rng(np.random.SeedSequence(seed, spawn_key=key))


class Workload:
    name = ""
    throughput_kind = ""
    small: tuple[str, int] = ("", 0)  # (kind, C) of the small-op latency class
    large: tuple[str, int] = ("", 0)
    labels: dict[str, str] = {}  # generic metric name -> the name this workload reports it under

    def __init__(self, work_dir: Path, seed: int) -> None:
        self.work_dir = work_dir
        self.seed = seed

    def setup(self) -> None:
        raise NotImplementedError

    def cycle(self) -> list[Op]:
        raise NotImplementedError

    def each_input(self) -> list[Op]:
        return self.cycle()

    def run(self, op: Op, index: int):
        raise NotImplementedError

    def check(self, op: Op, index: int, output) -> str | None:
        """None when the output is right, else what is wrong with it."""
        raise NotImplementedError

    def normalised(self, op: Op, output):
        """The part of an output that must not depend on tracing."""
        return output

    def finish(self) -> dict[int, str]:
        """Checks left until the timed part is over: failed attempt -> error."""
        return {}

    def is_reference(self, op: Op) -> bool:
        """Ops whose per-op span times become the per-layer metrics."""
        return True


class EvaluateWav(Workload):
    """``sepmatch evaluate`` over a pre-written corpus, C in {2, 5, 10, 20}."""

    name = "evaluate_wav"
    throughput_kind = "evaluate"
    small = ("evaluate", 2)
    large = ("evaluate", 20)
    labels = {
        "items_per_s": "evaluate.sources_per_s",
        "small_op_ms": "evaluate.c2_ms",
        "large_op_ms": "evaluate.c20_ms",
    }
    INSTANCES = 2  # distinct corpora per C

    def setup(self) -> None:
        rng = _seed_stream(self.seed, 1)
        self.instances = {
            (size, key): inputs.write_eval_instance(rng, size, self.work_dir / f"c{size:02d}_{key}")
            for size in sorted(set(SIZE_PATTERN))
            for key in range(self.INSTANCES)
        }

    def cycle(self) -> list[Op]:
        return [
            Op("evaluate", size, key, size)
            for key in range(self.INSTANCES)
            for size in SIZE_PATTERN
        ]

    def each_input(self) -> list[Op]:
        return [Op("evaluate", size, key, size) for size, key in self.instances]

    def run(self, op: Op, index: int):
        inst = self.instances[op.size, op.key]
        return cli_main(
            ["evaluate", "--targets", *inst.targets, "--estimates", *inst.estimates,
             "--mixture", inst.mixture]
        )

    def check(self, op: Op, index: int, output) -> str | None:
        code, stdout = output
        if code != 0:
            return f"exit code {code}"
        payload = json.loads(stdout)
        inst = self.instances[op.size, op.key]
        if payload["permutation"] != list(inst.permutation):
            return f"permutation {payload['permutation']} is not {list(inst.permutation)}"
        for key, expected in (("per_source_si_snr", inst.si_snr), ("per_source_si_sdri", inst.si_sdri)):
            values = payload[key]
            if len(values) != op.size:
                return f"{key} has {len(values)} values for C={op.size}"
            if not all(math.isfinite(v) and abs(v) <= inputs.CLAMP_DB for v in values):
                return f"{key} outside the finite +-60 dB range: {values}"
            # The reference differs from the package only in summation order.
            if max(abs(v - e) for v, e in zip(values, expected)) > 1e-6:
                return f"{key} differs from the reference by more than 1e-6 dB"
        return None

    def is_reference(self, op: Op) -> bool:
        return op.size == 20


class MixGenerate(Workload):
    """``sepmatch mix`` with C in {2, 5, 10, 20} and a fresh seed per op."""

    name = "mix_generate"
    throughput_kind = "mix"
    small = ("mix", 2)
    large = ("mix", 20)
    labels = {
        "items_per_s": "mix.sources_per_s",
        "small_op_ms": "mix.c2_ms",
        "large_op_ms": "mix.c20_ms",
    }
    WAV_BYTES = 44 + 2 * inputs.NUM_SAMPLES  # 16-bit mono PCM

    def setup(self) -> None:
        self.out_dir = self.work_dir / "mix"
        shutil.rmtree(self.out_dir, ignore_errors=True)

    def op_seed(self, index: int) -> int:
        # Plain arithmetic: this runs inside the timed op.
        return (self.seed * 1_000_003 + index * 7_919) % (2**31 - 1)

    def cycle(self) -> list[Op]:
        return [Op("mix", size, 0, size) for size in SIZE_PATTERN]

    def each_input(self) -> list[Op]:
        return [Op("mix", size, 0, size) for size in sorted(set(SIZE_PATTERN))]

    def run(self, op: Op, index: int):
        return cli_main(
            ["mix", "--num-sources", str(op.size), "--seed", str(self.op_seed(index)),
             "--out-dir", str(self.out_dir)]
        )

    def check(self, op: Op, index: int, output) -> str | None:
        try:
            code, stdout = output
            if code != 0:
                return f"exit code {code}"
            manifest = json.loads(stdout)
            if (manifest["seed"], manifest["num_sources"]) != (self.op_seed(index), op.size):
                return f"manifest echoes seed {manifest['seed']}, C {manifest['num_sources']}"
            if json.loads((self.out_dir / "manifest.json").read_text()) != manifest:
                return "manifest.json differs from the printed manifest"
            names = [f"source_{i:02d}.wav" for i in range(op.size)] + ["mixture.wav"]
            for name in names:
                path = self.out_dir / name
                if not path.is_file() or path.stat().st_size != self.WAV_BYTES:
                    return f"{name} missing or not {self.WAV_BYTES} bytes"
            return None
        finally:
            # Every op starts from an empty directory, so files left by an
            # earlier op cannot pass for this one's.
            shutil.rmtree(self.out_dir, ignore_errors=True)

    def is_reference(self, op: Op) -> bool:
        return op.size == 20


class SolveMatrices(Workload):
    """Batched Hungarian at C = 20, Sinkhorn at C = 20, ``sepmatch solve`` at C = 320."""

    name = "solve_matrices"
    throughput_kind = "batch"
    small = ("sinkhorn", 20)
    large = ("solve", 320)
    labels = {
        "items_per_s": "solve.c20_matrices_per_s",
        "small_op_ms": "solve.sinkhorn_c20_ms",
        "large_op_ms": "solve.c320_ms",
    }
    SIZE = 20
    BATCH = 256
    BATCHES = 2
    DIFFICULTIES = (0.25, 0.5, 1.0)
    SINKHORN = 16
    LARGE = 320
    LARGE_FILES = 3
    # Three C = 320 solves and four Sinkhorn solves per batch: each latency
    # class then collects 100 samples well within a 35 s run.
    PATTERN = ("batch", "solve", "sinkhorn", "solve", "sinkhorn", "solve", "sinkhorn", "sinkhorn")

    def setup(self) -> None:
        rng = _seed_stream(self.seed, 3)

        def difficulties(n):
            return [self.DIFFICULTIES[k % len(self.DIFFICULTIES)] for k in range(n)]

        self.batches = [
            inputs.planted_matrices(rng, self.SIZE, difficulties(self.BATCH))
            for _ in range(self.BATCHES)
        ]
        self.sinkhorn = inputs.planted_matrices(rng, self.SIZE, difficulties(self.SINKHORN))
        self.large_matrices = inputs.planted_matrices(rng, self.LARGE, [1.0] * self.LARGE_FILES)
        self.large_paths = []
        for key, matrix in enumerate(self.large_matrices):
            path = self.work_dir / f"matrix_{self.LARGE}_{key}.txt"
            path.write_text(inputs.matrix_text(matrix))
            self.large_paths.append(str(path))
        # Checked costs waiting for the optimum: (attempt, op, costs).
        self._solved: list[tuple[int, Op, np.ndarray]] = []
        self._attempts = 0

    def cycle(self) -> list[Op]:
        ops, counters = [], {"batch": 0, "sinkhorn": 0, "solve": 0}
        limits = {"batch": self.BATCHES, "sinkhorn": self.SINKHORN, "solve": self.LARGE_FILES}
        # Long enough that every input comes round: 16 Sinkhorn matrices at
        # four per pattern.
        for _ in range(self.SINKHORN // self.PATTERN.count("sinkhorn")):
            for kind in self.PATTERN:
                key = counters[kind] % limits[kind]
                counters[kind] += 1
                size = self.LARGE if kind == "solve" else self.SIZE
                ops.append(Op(kind, size, key, self.BATCH if kind == "batch" else 1))
        return ops

    def each_input(self) -> list[Op]:
        return (
            [Op("batch", self.SIZE, k, self.BATCH) for k in range(self.BATCHES)]
            + [Op("sinkhorn", self.SIZE, k, 1) for k in range(self.SINKHORN)]
            + [Op("solve", self.LARGE, k, 1) for k in range(self.LARGE_FILES)]
        )

    def run(self, op: Op, index: int):
        if op.kind == "batch":
            # The default solver, named so that tracing can wrap it.
            return assignment.solve_batch(self.batches[op.key], solver=assignment.solve_hungarian)
        if op.kind == "sinkhorn":
            return assignment.solve_sinkhorn(self.sinkhorn[op.key])
        return cli_main(["solve", self.large_paths[op.key]])

    def _matrices(self, op: Op) -> np.ndarray:
        if op.kind == "batch":
            return self.batches[op.key]
        return (self.sinkhorn if op.kind == "sinkhorn" else self.large_matrices)[op.key][None]

    def _results(self, op: Op, output) -> tuple[np.ndarray, np.ndarray]:
        if op.kind == "batch":
            results = output
        elif op.kind == "sinkhorn":
            results = [output]
        else:
            code, stdout = output
            if code != 0:
                raise ValueError(f"exit code {code}")
            payload = json.loads(stdout)
            return np.array([payload["permutation"]]), np.array([payload["total_cost"]])
        return (
            np.array([r.permutation for r in results]),
            np.array([r.total_cost for r in results]),
        )

    def check(self, op: Op, index: int, output) -> str | None:
        perms, costs = self._results(op, output)
        matrices = self._matrices(op)
        if perms.shape != matrices.shape[:2]:
            return f"got {perms.shape} assignments for {matrices.shape[:2]} matrices"
        if not (np.sort(perms, axis=1) == np.arange(op.size)).all():
            return "an assignment is not a permutation"
        matched = matrices[np.arange(len(matrices))[:, None], np.arange(op.size), perms].sum(axis=1)
        if not np.allclose(costs, matched, rtol=1e-9, atol=1e-9):
            return "total_cost is not the cost of the returned permutation"
        self._attempts += 1
        self._solved.append((self._attempts, op, costs))
        return None

    def normalised(self, op: Op, output):
        if op.kind == "solve":
            code, stdout = output
            payload = json.loads(stdout)
            payload.pop("elapsed_ns")  # wall-clock time, different on every run
            return code, payload
        perms, costs = self._results(op, output)
        return perms.tobytes(), costs.tobytes()

    def finish(self) -> dict[int, str]:
        """Compare every cost with the scipy optimum of its matrix."""
        from scipy.optimize import linear_sum_assignment

        optimum: dict[tuple[str, int], np.ndarray] = {}
        errors = {}
        for attempt, op, costs in self._solved:
            if (op.kind, op.key) not in optimum:
                optimum[op.kind, op.key] = np.array([
                    m[linear_sum_assignment(m)].sum() for m in self._matrices(op)
                ])
            best = optimum[op.kind, op.key]
            tolerance = 1e-9 * np.maximum(1.0, np.abs(best))
            if op.kind == "sinkhorn":
                if (costs < best - tolerance).any():
                    errors[attempt] = f"sinkhorn cost {costs} is below the optimum {best}"
            elif (np.abs(costs - best) > tolerance).any():
                errors[attempt] = f"{op.kind} costs differ from the optimum by more than 1e-9"
        self._solved.clear()
        return errors

    def scipy_ratios(self) -> dict[str, float]:
        """solve_hungarian time over scipy linear_sum_assignment time, C = 20 and 320."""
        from scipy.optimize import linear_sum_assignment

        def median_ns(fn, matrices, repeats):
            times = []
            for _ in range(repeats):
                for matrix in matrices:
                    start = time.perf_counter_ns()
                    fn(matrix)
                    times.append(time.perf_counter_ns() - start)
            return float(np.median(times))

        ratios = {}
        for label, matrices, repeats in (("c20", self.batches[0], 1), ("c320", self.large_matrices, 3)):
            ours = median_ns(assignment.solve_hungarian, matrices, repeats)
            ratios[label] = ours / median_ns(linear_sum_assignment, matrices, repeats)
        return ratios


WORKLOADS = {w.name: w for w in (EvaluateWav, MixGenerate, SolveMatrices)}
