"""Timing sweeps, iteration telemetry, and confusion-matrix exports.

`sweep_solvers` times the three assignment solvers on random matrices and
reports medians/p95 per (solver, C) cell; `iteration_profile` tracks how
the polynomial solver's cost-adjustment rounds respond to matching
difficulty; `export_confusion` reorders a solved matrix so matched pairs
form the diagonal, worst first.
"""

from __future__ import annotations

import csv
import io
import json
import math
from dataclasses import asdict, dataclass

import numpy as np

from .assignment import (
    BRUTEFORCE_GUARD,
    CostMatrix,
    SinkhornConfig,
    solve_batch,
    solve_bruteforce,
    solve_hungarian,
    solve_sinkhorn,
)
from .errors import EmptyInputError, InvalidInputError

#: Random benchmark matrices draw entries from this span, mirroring the
#: dB-loss range the clamped separation metrics actually produce.
ENTRY_RANGE = (-30.0, 30.0)

#: Off-diagonal margin of the planted-optimum template used by profiles.
_TEMPLATE_MARGIN = 30.0

SOLVER_NAMES = ("hungarian", "bruteforce", "sinkhorn")

CSV_HEADER = "solver,c,trials,median_ns,p95_ns,mean_iterations,permutations,skipped"


@dataclass(frozen=True)
class BenchReport:
    """Aggregated timing for one (solver, C) cell of a sweep."""

    solver: str
    c: int
    trials: int
    median_ns: int
    p95_ns: int
    mean_iterations: float
    permutation_count: int
    skipped: str | None = None  # reason, when the solver was not run

    def __post_init__(self) -> None:
        if self.trials < 1:
            raise InvalidInputError(f"trials must be >= 1, got {self.trials}")
        if self.median_ns > self.p95_ns:
            raise InvalidInputError("median_ns exceeds p95_ns")

    def to_dict(self) -> dict:
        return asdict(self)


@dataclass(frozen=True)
class ProfilePoint:
    """Mean cost-adjustment rounds observed at one difficulty setting."""

    difficulty: float
    mean_iterations: float


@dataclass(frozen=True, eq=False)
class ConfusionExport:
    """Input matrix reordered so matched pairs form the diagonal, worst first."""

    matrix: CostMatrix
    row_order: np.ndarray
    col_order: np.ndarray

    def to_dict(self) -> dict:
        return {
            "matrix": {"size": self.matrix.size, "entries": self.matrix.entries.tolist()},
            "row_order": [int(r) for r in self.row_order],
            "col_order": [int(c) for c in self.col_order],
        }

    def to_json(self) -> str:
        return json.dumps(self.to_dict())

    def to_pgm(self) -> bytes:
        """Binary P5 rendering; the smallest cost maps to black."""
        entries = self.matrix.entries
        lo, hi = float(entries.min()), float(entries.max())
        if hi == lo:
            gray = np.full(entries.shape, 128, dtype=np.uint8)
        else:
            gray = np.round((entries - lo) / (hi - lo) * 255.0).astype(np.uint8)
        height, width = gray.shape
        return f"P5\n{width} {height}\n255\n".encode("ascii") + gray.tobytes()


def _random_matrices(c: int, trials: int, seed: int) -> np.ndarray:
    # Child stream per C: reports do not depend on the order of c_values.
    rng = np.random.default_rng(np.random.SeedSequence(seed, spawn_key=(c,)))
    return rng.uniform(ENTRY_RANGE[0], ENTRY_RANGE[1], size=(trials, c, c))


def sweep_solvers(
    c_values,
    trials: int,
    seed: int = 0,
    guard: int = BRUTEFORCE_GUARD,
    sinkhorn_config: SinkhornConfig | None = None,
) -> list[BenchReport]:
    """Time all three solvers on random matrices for each requested C.

    Brute force only runs when C fits under `guard`; larger sizes produce a
    skipped row carrying the reason instead of fabricated timings. Each
    trial is timed as its own solver call.
    """
    c_values = [int(c) for c in c_values]
    if not c_values:
        raise EmptyInputError("c_values is empty")
    if any(c < 1 for c in c_values):
        raise InvalidInputError(f"c_values must be positive: {c_values}")
    if trials < 1:
        raise InvalidInputError(f"trials must be >= 1, got {trials}")
    config = sinkhorn_config or SinkhornConfig()
    solvers = {
        "hungarian": solve_hungarian,
        "bruteforce": lambda m: solve_bruteforce(m, guard=guard),
        "sinkhorn": lambda m: solve_sinkhorn(m, config=config),
    }
    reports = []
    for c in c_values:
        matrices = _random_matrices(c, trials, seed)
        for name in SOLVER_NAMES:
            if name == "bruteforce" and c > guard:
                reports.append(
                    BenchReport(
                        solver=name,
                        c=c,
                        trials=trials,
                        median_ns=0,
                        p95_ns=0,
                        mean_iterations=0.0,
                        permutation_count=math.factorial(c),
                        skipped=f"C={c} exceeds brute-force guard {guard}",
                    )
                )
                continue
            results = [solvers[name](m) for m in matrices]
            times = np.array([r.elapsed_ns for r in results], dtype=np.int64)
            mean_iters = float(np.mean([float(r.iterations) for r in results]))
            reports.append(
                BenchReport(
                    solver=name,
                    c=c,
                    trials=trials,
                    median_ns=int(np.median(times)),
                    p95_ns=int(np.percentile(times, 95)),
                    mean_iterations=mean_iters,
                    permutation_count=math.factorial(c),
                )
            )
    return reports


def iteration_profile(difficulty_sweep, c: int, trials: int, seed: int = 0) -> list[ProfilePoint]:
    """Mean cost-adjustment rounds of the polynomial solver vs difficulty.

    Difficulty d interpolates each cost matrix between a planted
    diagonal-optimum template (d=0, solved within the reduction phase, so
    zero rounds) and a fully random matrix (d=1). The same random draws
    are reused across difficulties, making the sweep a paired comparison.
    Each difficulty's stack of matrices is solved as one `solve_batch`.
    """
    difficulties = [float(d) for d in difficulty_sweep]
    if any(not (0.0 <= d <= 1.0) for d in difficulties):
        raise InvalidInputError(f"difficulties must lie in [0, 1]: {difficulties}")
    if c < 2:
        raise InvalidInputError(f"c must be >= 2, got {c}")
    if trials < 1:
        raise InvalidInputError(f"trials must be >= 1, got {trials}")
    template = np.full((c, c), _TEMPLATE_MARGIN)
    np.fill_diagonal(template, 0.0)
    randoms = _random_matrices(c, trials, seed)
    points = []
    for d in difficulties:
        results = solve_batch((1.0 - d) * template + d * randoms)
        points.append(ProfilePoint(d, float(np.mean([r.iterations for r in results]))))
    return points


def export_confusion(matrix) -> ConfusionExport:
    """Solve the matrix, then order rows and columns by matched cost, descending.

    A well-matched instance comes out with a dark diagonal: entry (k, k) of
    the export is the k-th largest matched-pair cost. The export is a pure
    row/column permutation of the input, never a value change.
    """
    cost = CostMatrix(matrix)
    result = solve_hungarian(cost)
    matched = cost.entries[np.arange(cost.size), result.permutation]
    row_order = np.argsort(-matched, kind="stable")
    col_order = result.permutation[row_order]
    reordered = cost.entries[np.ix_(row_order, col_order)]
    return ConfusionExport(CostMatrix(reordered), row_order, col_order)


def reports_to_jsonl(reports) -> str:
    """One BenchReport per line, JSON-encoded."""
    return "".join(json.dumps(r.to_dict()) + "\n" for r in reports)


def reports_to_csv(reports) -> str:
    buf = io.StringIO()
    writer = csv.writer(buf)
    writer.writerow(CSV_HEADER.split(","))
    for r in reports:
        writer.writerow(
            [
                r.solver,
                r.c,
                r.trials,
                r.median_ns,
                r.p95_ns,
                r.mean_iterations,
                r.permutation_count,
                r.skipped or "",
            ]
        )
    return buf.getvalue()
