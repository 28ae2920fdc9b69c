"""Solvers for the square linear sum assignment problem.

Three routes to the same minimum: a polynomial O(C^3) augmenting-path
solver (`solve_hungarian`), an exhaustive O(C!) enumeration kept as a
ground-truth oracle for small C (`solve_bruteforce`), and an O(k*C^2)
entropic approximation (`solve_sinkhorn`). All three take a square cost
matrix and return the chosen row-to-column permutation together with its
summed cost and solver telemetry. `solve_batch` runs the augmenting-path
solver on a whole stack of equal-size matrices in lockstep.
"""

from __future__ import annotations

import itertools
import json
import math
import time
from dataclasses import dataclass
from pathlib import Path
from typing import Callable, Iterable

import numpy as np

from .errors import (
    EmptyInputError,
    GuardLimitError,
    InvalidInputError,
    MatrixParseError,
)

#: Largest C that solve_bruteforce accepts by default (11! ~ 4e7 permutations).
BRUTEFORCE_GUARD = 11

#: Largest C that permutation_count reports.
PERMUTATION_COUNT_MAX = 25

# Full permutation tables are cached up to this size; larger sizes stream
# lexicographic blocks instead of materializing all C! rows at once.
_PERM_TABLE_MAX = 9
_PERM_BLOCK = 240_000


@dataclass(frozen=True)
class SinkhornConfig:
    """Knobs for the entropic approximate solver.

    `iterations` is the number of alternating row/column balancing rounds;
    `temperature` scales exp(-M / temperature), so lower values sharpen the
    balanced matrix toward a hard permutation.
    """

    iterations: int = 200
    temperature: float = 1.0

    def __post_init__(self) -> None:
        if self.iterations < 1:
            raise InvalidInputError(f"iterations must be >= 1, got {self.iterations}")
        if not (math.isfinite(self.temperature) and self.temperature > 0):
            raise InvalidInputError(f"temperature must be > 0, got {self.temperature}")


@dataclass(frozen=True, eq=False)
class AssignmentResult:
    """Outcome of one assignment solve.

    `permutation[i]` is the column assigned to row i. `iterations` is
    solver-specific telemetry: cost-adjustment rounds for the polynomial
    solver, permutations evaluated for the exhaustive one, balancing rounds
    for the approximate one. `elapsed_ns` is wall-clock solve time; results
    of a lockstep `solve_batch` carry an amortised share of their batch's.
    """

    permutation: np.ndarray
    total_cost: float
    iterations: int
    elapsed_ns: int

    def to_dict(self) -> dict:
        return {
            "permutation": [int(j) for j in self.permutation],
            "total_cost": self.total_cost,
            "iterations": self.iterations,
            "elapsed_ns": self.elapsed_ns,
        }

    def to_json(self) -> str:
        return json.dumps(self.to_dict())


@dataclass(frozen=True, eq=False)
class CostMatrix:
    """Square matrix of pairwise losses, validated square and finite."""

    entries: np.ndarray

    def __post_init__(self) -> None:
        object.__setattr__(self, "entries", _validated_entries(self.entries))

    @property
    def size(self) -> int:
        return self.entries.shape[0]


def _validated_entries(matrix) -> np.ndarray:
    """Coerce CostMatrix or array-like input to a validated float64 array."""
    if isinstance(matrix, CostMatrix):
        return matrix.entries
    try:
        entries = np.asarray(matrix, dtype=np.float64)
    except (TypeError, ValueError) as exc:
        raise InvalidInputError(f"cost matrix is not numeric: {exc}") from exc
    if entries.ndim != 2:
        raise InvalidInputError(f"cost matrix must be 2-D, got {entries.ndim}-D")
    rows, cols = entries.shape
    if rows == 0:
        raise EmptyInputError("cost matrix is empty (size 0)")
    if rows != cols:
        raise InvalidInputError(f"cost matrix must be square, got {rows}x{cols}")
    if not np.isfinite(entries).all():
        raise InvalidInputError("cost matrix contains non-finite entries")
    return entries


def _matched_cost(entries: np.ndarray, mapping: np.ndarray) -> float:
    # One shared summation order so costs from different solvers compare
    # bit-stably whenever they pick the same permutation.
    matched = entries[np.arange(entries.shape[0]), mapping]
    with np.errstate(over="ignore", invalid="ignore"):  # inf - inf gives nan
        cost = float(matched.sum())
    if math.isfinite(cost):
        return cost
    # A partial sum overflowed; the exact sum, taken on a copy scaled by a
    # power of two, may still fit.
    _, exponent = np.frexp(np.abs(matched).max())
    try:
        return math.ldexp(math.fsum(np.ldexp(matched, -exponent)), int(exponent))
    except OverflowError:
        raise InvalidInputError(
            f"matched cost {cost} overflows float64; rescale the cost matrix"
        ) from None


def _scaled(entries: np.ndarray) -> np.ndarray:
    """Each trailing C x C matrix times the power of two that puts max|c| in [0.5, 1).

    Scaling by a power of two is exact, so every comparison the solver makes
    is unchanged, while the dual updates can no longer overflow on finite
    entries near the float64 limit.
    """
    _, exponent = np.frexp(np.abs(entries).max(axis=(-2, -1), keepdims=True))
    return np.ldexp(entries, -exponent)


def solve_hungarian(matrix) -> AssignmentResult:
    """Find the cost-minimizing row-to-column permutation in O(C^3) time.

    Potential/augmenting-path formulation: row and column reductions seed
    the dual potentials, then each row is matched through a shortest
    augmenting path. `iterations` counts the rounds in which the duals
    actually move (the cost-adjustment rounds), so a matrix whose
    row-reduced minima already sit in distinct columns reports 0.

    When several permutations tie for the optimum the returned one is
    deterministic, but only `total_cost` is contract-stable. A matched
    cost that overflows float64 raises InvalidInputError.
    """
    entries = _validated_entries(matrix)
    start = time.perf_counter_ns()
    mapping, adjustments = _augmenting_path_assignment(_scaled(entries))
    elapsed = time.perf_counter_ns() - start
    return AssignmentResult(mapping, _matched_cost(entries, mapping), adjustments, elapsed)


def _augmenting_path_assignment(entries: np.ndarray) -> tuple[np.ndarray, int]:
    n = entries.shape[0]
    # Row then column reduction; finding the optimum among the resulting
    # zeros is the "obvious permutation" phase and costs no adjustments.
    u = entries.min(axis=1).astype(np.float64)
    v = (entries - u[:, None]).min(axis=0)
    match_col = np.full(n, -1, dtype=np.intp)  # column -> matched row
    adjustments = 0
    for i in range(n):
        minv = np.full(n, np.inf)  # cheapest slack into each column so far
        way = np.full(n, -1, dtype=np.intp)  # predecessor column (-1 = root row)
        used = np.zeros(n, dtype=bool)
        j0 = -1
        i0 = i
        while True:
            reduced = entries[i0] - u[i0] - v
            better = ~used & (reduced < minv)
            minv[better] = reduced[better]
            way[better] = j0
            candidates = np.where(used, np.inf, minv)
            j1 = int(candidates.argmin())
            delta = float(candidates[j1])
            if delta > 0.0:
                adjustments += 1
            if delta != 0.0:
                # Shift duals so the cheapest slack edge becomes tight.
                u[i] += delta
                u[match_col[used]] += delta
                v[used] -= delta
                minv[~used] -= delta
            used[j1] = True
            if match_col[j1] < 0:
                break
            j0 = j1
            i0 = match_col[j1]
        # Flip matched edges along the augmenting path back to the root.
        j = j1
        while j != -1:
            prev = way[j]
            match_col[j] = i if prev < 0 else match_col[prev]
            j = prev
    mapping = np.empty(n, dtype=np.intp)
    mapping[match_col] = np.arange(n)
    return mapping, adjustments


def _lockstep_assignment(entries: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """`_augmenting_path_assignment` on a (B, C, C) stack, all B matrices at once.

    Row i of every matrix is matched in the same pass. Each round advances
    every matrix still searching for row i's augmenting path by one Dijkstra
    step, using (k, C) array operations on the k matrices still searching;
    a matrix leaves the round's arrays once its path reaches a free column.
    The paths are then flipped together. Per matrix, each comparison and
    dual update is the one the single-matrix loop makes, so the permutations
    and adjustment counts are the same.
    """
    batch, n, _ = entries.shape
    u = entries.min(axis=2)
    v = (entries - u[:, :, None]).min(axis=1)
    match_col = np.full((batch, n), -1, dtype=np.intp)  # column -> matched row
    adjustments = np.zeros(batch, dtype=np.int64)
    way = np.empty((batch, n), dtype=np.intp)  # predecessor columns of each finished search
    end = np.empty(batch, dtype=np.intp)  # free column each search reached
    everyone = np.arange(batch)
    for i in range(n):
        # State of the searches still running, compressed to their k matrices.
        act, rows = everyone, everyone
        ua, va = u.copy(), v.copy()
        minv = np.full((batch, n), np.inf)
        pred = np.full((batch, n), -1, dtype=np.intp)
        used = np.zeros((batch, n), dtype=bool)
        in_tree = np.zeros((batch, n), dtype=bool)  # rows whose duals move with delta
        in_tree[:, i] = True
        j0 = np.full(batch, -1, dtype=np.intp)
        i0 = np.full(batch, i, dtype=np.intp)
        while act.size:
            reduced = entries[act, i0] - ua[rows, i0][:, None] - va
            better = ~used & (reduced < minv)
            minv = np.where(better, reduced, minv)
            pred = np.where(better, j0[:, None], pred)
            candidates = np.where(used, np.inf, minv)
            j1 = candidates.argmin(axis=1)
            delta = candidates[rows, j1]
            adjustments[act] += delta > 0.0
            step = delta[:, None]
            # Adding 0 where the loop skips the update changes at most a zero's sign.
            ua += in_tree * step
            va -= used * step
            minv -= step  # a used column's slack is never read again
            used[rows, j1] = True
            i0 = match_col[act, j1]
            done = i0 < 0
            if done.any():
                finished = act[done]
                way[finished] = pred[done]
                end[finished] = j1[done]
                u[finished] = ua[done]
                v[finished] = va[done]
                keep = np.flatnonzero(~done)
                act, i0, j1 = act[keep], i0[keep], j1[keep]
                ua, va, minv, pred, used, in_tree = (
                    state.take(keep, axis=0) for state in (ua, va, minv, pred, used, in_tree)
                )
                rows = everyone[: act.size]
            j0 = j1
            in_tree[rows, i0] = True
        # Flip matched edges along every augmenting path back to its root.
        act, col = everyone, end
        while act.size:
            prev = way[act, col]
            match_col[act, col] = np.where(prev < 0, i, match_col[act, prev])
            walking = prev >= 0
            act, col = act[walking], prev[walking]
    mapping = np.empty((batch, n), dtype=np.intp)
    mapping[everyone[:, None], match_col] = np.arange(n)
    return mapping, adjustments


def solve_bruteforce(matrix, guard: int = BRUTEFORCE_GUARD) -> AssignmentResult:
    """Exhaustively enumerate all C! permutations and keep the cheapest.

    This is the ground-truth oracle for the other solvers; it refuses C
    above `guard` (default 11) because the factorial cost becomes runaway
    work. Ties resolve to the lexicographically smallest permutation.
    `iterations` reports the number of permutations evaluated, always
    exactly C!.
    """
    entries = _validated_entries(matrix)
    size = entries.shape[0]
    if guard < 1:
        raise InvalidInputError(f"guard must be >= 1, got {guard}")
    if size > guard:
        raise GuardLimitError(
            f"C={size} exceeds the brute-force guard of {guard}; "
            f"raise the guard explicitly to force the O(C!) solve"
        )
    start = time.perf_counter_ns()
    mapping = _enumerate_best(entries)
    elapsed = time.perf_counter_ns() - start
    return AssignmentResult(
        mapping, _matched_cost(entries, mapping), math.factorial(size), elapsed
    )


_PERM_TABLES: dict[int, tuple[np.ndarray, np.ndarray]] = {}


def _permutation_table(size: int) -> tuple[np.ndarray, np.ndarray]:
    """Lexicographic permutation table plus flat indices into a raveled matrix."""
    if size not in _PERM_TABLES:
        table = np.array(list(itertools.permutations(range(size))), dtype=np.intp)
        flat = np.ascontiguousarray(table + (np.arange(size) * size)[None, :])
        _PERM_TABLES[size] = (table, flat)
    return _PERM_TABLES[size]


def _enumerate_best(entries: np.ndarray) -> np.ndarray:
    size = entries.shape[0]
    if size <= _PERM_TABLE_MAX:
        table, flat = _permutation_table(size)
        costs = entries.ravel()[flat].sum(axis=1)
        return table[int(costs.argmin())].copy()
    # Stream lexicographic blocks so 10! and 11! never sit in memory whole.
    rows = np.arange(size)
    stream = itertools.permutations(range(size))
    best_cost = np.inf
    best: np.ndarray | None = None
    while True:
        block = list(itertools.islice(stream, _PERM_BLOCK))
        if not block:
            break
        table = np.asarray(block, dtype=np.intp)
        costs = entries[rows, table].sum(axis=1)
        k = int(costs.argmin())
        if costs[k] < best_cost:  # strict: keeps the lexicographically first optimum
            best_cost = float(costs[k])
            best = table[k].copy()
    assert best is not None
    return best


def solve_sinkhorn(matrix, config: SinkhornConfig | None = None) -> AssignmentResult:
    """Approximate the optimal permutation via entropic matrix balancing.

    exp(-M / temperature) is normalized toward a doubly stochastic matrix
    for `config.iterations` alternating row/column rounds, then rounded to
    a hard permutation greedily: rows in order of descending peak value,
    each taking the largest still-free column. A per-row max shift keeps
    the exponentials in (0, 1] for any cost scale, so nothing overflows;
    a temperature so small that M / temperature itself overflows float64
    raises InvalidInputError.

    The rounded result is a genuine permutation, so its cost can only meet
    or exceed the exact optimum. `iterations` echoes the balancing rounds.
    """
    entries = _validated_entries(matrix)
    if config is None:
        config = SinkhornConfig()
    start = time.perf_counter_ns()
    with np.errstate(over="ignore"):  # an overflow is reported below, by name
        scaled = entries / -config.temperature
    if not np.isfinite(scaled).all():
        raise InvalidInputError(
            f"temperature {config.temperature!r} is too small for costs of magnitude "
            f"{np.abs(entries).max()!r}: cost / temperature overflows float64"
        )
    scaled -= scaled.max(axis=1, keepdims=True)
    kernel = np.exp(scaled)
    floor = np.finfo(np.float64).tiny  # avoid 0/0 if a row/column underflows entirely
    for _ in range(config.iterations):
        kernel /= np.maximum(kernel.sum(axis=1, keepdims=True), floor)
        kernel /= np.maximum(kernel.sum(axis=0, keepdims=True), floor)
    mapping = _round_to_permutation(kernel)
    elapsed = time.perf_counter_ns() - start
    return AssignmentResult(
        mapping, _matched_cost(entries, mapping), config.iterations, elapsed
    )


def _round_to_permutation(balanced: np.ndarray) -> np.ndarray:
    size = balanced.shape[0]
    order = np.argsort(-balanced.max(axis=1), kind="stable")
    mapping = np.full(size, -1, dtype=np.intp)
    taken = np.zeros(size, dtype=bool)
    for i in order:
        scores = np.where(taken, -np.inf, balanced[i])
        j = int(scores.argmax())
        mapping[i] = j
        taken[j] = True
    return mapping


def permutation_count(c: int) -> int:
    """Exact C! as a Python int (never floating point)."""
    if c < 0 or c > PERMUTATION_COUNT_MAX:
        raise InvalidInputError(f"c must be in [0, {PERMUTATION_COUNT_MAX}], got {c}")
    return math.factorial(c)


def solve_batch(
    matrices: Iterable,
    solver: Callable[..., AssignmentResult] = solve_hungarian,
) -> list[AssignmentResult]:
    """Solve many independent matrices, preserving input order in the output.

    With `solve_hungarian` (the default), the matrices are grouped by size
    and each group is solved in lockstep as one stack; every result equals
    the one `solve_hungarian` gives for that matrix, except that its
    `elapsed_ns` is the group's solve time divided by the group's size (an
    amortised share, not the matrix's own time). Any other solver is called
    once per matrix.
    """
    # The module global is looked up at call time, so a caller that replaces
    # it with a wrapper (as a tracer does) and passes that still batches.
    if solver is not solve_hungarian:
        return [solver(m) for m in matrices]
    entries = [_validated_entries(m) for m in matrices]
    groups: dict[int, list[int]] = {}
    for k, e in enumerate(entries):
        groups.setdefault(e.shape[0], []).append(k)
    results: dict[int, AssignmentResult] = {}
    for members in groups.values():
        start = time.perf_counter_ns()
        mappings, adjustments = _lockstep_assignment(
            _scaled(np.stack([entries[k] for k in members]))
        )
        share = (time.perf_counter_ns() - start) // len(members)
        for k, mapping, rounds in zip(members, mappings, adjustments.tolist()):
            cost = _matched_cost(entries[k], mapping)
            results[k] = AssignmentResult(mapping, cost, rounds, share)
    return [results[k] for k in range(len(entries))]


# --- serialization -----------------------------------------------------------

def matrix_to_text(matrix) -> str:
    """Plain-text form: first line C, then C rows of C space-separated floats."""
    entries = _validated_entries(matrix)
    lines = [str(entries.shape[0])]
    lines += [" ".join(repr(float(x)) for x in row) for row in entries]
    return "\n".join(lines) + "\n"


def matrix_from_text(text: str) -> CostMatrix:
    """Parse the plain-text matrix form.

    Raises MatrixParseError carrying the 1-based line and token column of
    the first offending value.
    """
    lines = text.splitlines()
    if not lines or not lines[0].split():
        raise MatrixParseError("missing size header", line=1, column=1)
    header = lines[0].split()
    if len(header) != 1:
        raise MatrixParseError("size header must be a single integer", line=1, column=2)
    try:
        size = int(header[0])
    except ValueError:
        raise MatrixParseError(
            f"size header {header[0]!r} is not an integer", line=1, column=1
        ) from None
    if size < 1:
        raise MatrixParseError(f"matrix size must be >= 1, got {size}", line=1, column=1)
    rows = np.empty((size, size), dtype=np.float64)
    for r in range(size):
        lineno = r + 2
        if r + 1 >= len(lines):
            raise MatrixParseError(
                f"expected {size} rows, file ends after {r}", line=lineno, column=1
            )
        tokens = lines[r + 1].split()
        if len(tokens) != size:
            raise MatrixParseError(
                f"row has {len(tokens)} values, expected {size}",
                line=lineno,
                column=min(len(tokens), size) + 1,
            )
        for c, token in enumerate(tokens):
            try:
                rows[r, c] = float(token)
            except ValueError:
                raise MatrixParseError(
                    f"{token!r} is not a number", line=lineno, column=c + 1
                ) from None
    for extra in range(size + 1, len(lines)):
        if lines[extra].split():
            raise MatrixParseError("unexpected content after matrix", line=extra + 1, column=1)
    return CostMatrix(rows)


def matrix_to_json(matrix) -> str:
    entries = _validated_entries(matrix)
    return json.dumps({"size": entries.shape[0], "entries": entries.tolist()})


def matrix_from_json(text: str) -> CostMatrix:
    try:
        payload = json.loads(text)
    except json.JSONDecodeError as exc:
        raise MatrixParseError(
            f"invalid JSON: {exc.msg}", line=exc.lineno, column=exc.colno
        ) from exc
    if not isinstance(payload, dict) or "size" not in payload or "entries" not in payload:
        raise MatrixParseError('JSON matrix needs "size" and "entries" fields')
    matrix = CostMatrix(payload["entries"])
    if matrix.size != payload["size"]:
        raise InvalidInputError(
            f"declared size {payload['size']} does not match entries ({matrix.size})"
        )
    return matrix


def load_matrix(path) -> CostMatrix:
    """Read a matrix file, sniffing JSON vs plain text from the first byte."""
    text = Path(path).read_text()
    if text.lstrip().startswith("{"):
        return matrix_from_json(text)
    return matrix_from_text(text)
