"""Solvers for the square linear sum assignment problem.

Three routes to the same minimum: a polynomial O(C^3) augmenting-path
solver (`solve_hungarian`), an exhaustive O(C!) enumeration kept as a
ground-truth oracle for small C (`solve_bruteforce`), and an O(k*C^2)
entropic approximation (`solve_sinkhorn`). All three take a square cost
matrix and return the chosen row-to-column permutation together with its
summed cost and solver telemetry. Every exact solve, one matrix from
`solve_hungarian` or a size group from `solve_batch`, runs through one
path (`_solve_stack`): scale, greedy start, search of the free rows (one
matrix at a time, or a large stack in lockstep), one matched-cost sum.

Matrix files (`load_matrix`) must be UTF-8, as plain text or JSON; bytes
that do not decode raise MatrixParseError with their line.
"""

from __future__ import annotations

import functools
import itertools
import json
import math
import time
import warnings
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

# _solve_stack searches a stack of fewer matrices than this one matrix at a
# time. Lockstep time over loop time, median of 5 stacks per cell on 2 vCPUs
# (planted: perfbench's template mix at difficulties 0.25, 0.5 and 1.0):
#
#   stacks of B =          8     10     12     16
#   planted C = 5        1.70   1.71   1.40   1.19
#   planted C = 20       1.34   1.11   0.93   0.90
#   planted C = 50       1.19   1.02   0.82   0.75
#   planted C = 100      1.17   1.03   0.86   0.76
#   uniform C = 5        1.48   1.08   1.12   0.79
#   uniform C = 20       0.93   0.79   0.70   0.55
#   uniform C = 50       0.86   0.69   0.67   0.56
#   uniform C = 100      0.87   0.72   0.69   0.58
#
# 12 is the smallest B at which lockstep wins every cell with C >= 20. At
# C = 5 its rounds cost more than the loop's few short searches.
_LOCKSTEP_MIN_BATCH = 12

# Permutation tables are cached up to this size (8! rows, ~5 MB). Brute force
# at larger C scores the tails of each lexicographic head against this table.
_PERM_TABLE_MAX = 8


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
    for the approximate one. `elapsed_ns` is wall-clock solve time, the
    matched-cost sum included; results of `solve_batch` carry an amortised
    share of their size group's.
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
    return _checked_square(entries)


def _checked_square(entries: np.ndarray) -> np.ndarray:
    """`entries`, once its trailing C x C matrices are checked non-empty, square and finite."""
    rows, cols = entries.shape[-2:]
    if rows == 0:
        raise EmptyInputError("cost matrix is empty (size 0)")
    if rows != cols:
        raise InvalidInputError(f"cost matrix must be square, got {rows}x{cols}")
    if not np.isfinite(entries).all():
        raise InvalidInputError("cost matrix contains non-finite entries")
    return entries


def _matched_cost(stack: np.ndarray, mappings: np.ndarray) -> list[float]:
    # Each matrix's cost under its mapping, in one shared summation order, so
    # costs from every solver and route compare bit-stably whenever they pick
    # the same permutation.
    batch, n = mappings.shape
    matched = stack.reshape(-1)[np.arange(0, stack.size, n) + mappings.ravel()].reshape(batch, n)
    with np.errstate(over="ignore", invalid="ignore"):  # inf - inf gives nan
        costs = matched.sum(axis=-1).tolist()
    for b, cost in enumerate(costs):
        if math.isfinite(cost):
            continue
        # A partial sum overflowed; the exact sum, taken on a copy scaled by
        # a power of two, may still fit.
        _, exponent = np.frexp(np.abs(matched[b]).max())
        try:
            costs[b] = math.ldexp(math.fsum(np.ldexp(matched[b], -exponent)), int(exponent))
        except OverflowError:
            raise InvalidInputError(
                f"matched cost {cost} overflows float64; rescale the cost matrix"
            ) from None
    return costs


def _scaled(entries: np.ndarray) -> np.ndarray:
    """Each trailing C x C matrix times the power of two that puts max|c| in [0.5, 1).

    Scaling by a power of two is exact, so every comparison the solver makes
    is unchanged, while the dual updates can no longer overflow on finite
    entries near the float64 limit.
    """
    _, exponent = np.frexp(np.abs(entries).max(axis=(-2, -1), keepdims=True))
    return np.ldexp(entries, -exponent)


def _greedy_start(entries: np.ndarray) -> tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray]:
    """Reduced duals and the tight-edge matching they give, per trailing C x C matrix.

    Row then column reduction seeds the duals u and v. Each row's first
    minimum column j then has reduced cost exactly 0, since v_j = 0 there,
    so every such column is matched to the lowest-indexed row that claims
    it. Every matched edge is tight and the duals are feasible, so searching
    only the rows left free still ends at the exact optimum. Returns u, v,
    the matching (column -> row, -1 if unmatched) and a mask of the free rows.
    """
    n = entries.shape[-1]
    first = entries.argmin(axis=-1)
    # Flat gathers, not np.take_along_axis: a third less start time at C = 5.
    rows = np.arange(first.size)
    u = entries.reshape(-1)[rows * n + first.ravel()].reshape(first.shape)
    v = (entries - u[..., None]).min(axis=-2)
    # Row i of matrix b claims flat column b*C + first. minimum.at applies
    # every claim, so each column ends with its lowest claimant (n if none).
    row = rows % n
    claim = first.ravel() + rows - row
    match = np.full(first.size, n, dtype=np.intp)
    np.minimum.at(match, claim, row)
    free = (match[claim] != row).reshape(first.shape)  # lost its claim
    match[match == n] = -1
    return u, v, match.reshape(first.shape), free


def solve_hungarian(matrix) -> AssignmentResult:
    """Find the cost-minimizing row-to-column permutation in O(C^3) time.

    Potential/augmenting-path formulation (Jonker & Volgenant's start): row
    and column reductions seed the dual potentials, and each row's first
    minimum column, a zero-cost edge after the reductions, is matched to
    the lowest-indexed row that claims it. Only the rows left free are then
    matched, in index order, each through a shortest augmenting path.
    `iterations` counts the rounds in which the duals actually move (the
    cost-adjustment rounds), so a matrix whose row minima already sit in
    distinct columns runs no search and reports 0. The matrix is solved as
    a stack of one, on the path every `solve_batch` group takes.

    When several permutations tie for the optimum the returned one is
    deterministic, but only `total_cost` is contract-stable. A matched
    cost that overflows float64 raises InvalidInputError.
    """
    entries = _validated_entries(matrix)
    start = time.perf_counter_ns()
    (mapping,), (cost,), (adjustments,) = _solve_stack(entries[None])
    return AssignmentResult(mapping, cost, adjustments, time.perf_counter_ns() - start)


def _solve_stack(stack: np.ndarray) -> tuple[np.ndarray, list[float], list[int]]:
    """Permutations, matched costs and adjustment counts of a validated (B, C, C) stack.

    One scaling and one greedy start, then only the free rows are searched:
    one matrix at a time below `_LOCKSTEP_MIN_BATCH` matrices, in lockstep
    from there. Both searches make the same comparisons and dual updates
    per matrix and leave every matrix's final duals in `u` and `v`, so the
    route changes no output.
    """
    entries = _scaled(stack)
    u, v, match, free = _greedy_start(entries)
    adjustments = np.zeros(stack.shape[0], dtype=np.int64)
    searching = np.flatnonzero(free.any(axis=-1))
    if stack.shape[0] < _LOCKSTEP_MIN_BATCH:
        for b in searching.tolist():
            adjustments[b] = _augmenting_path_search(entries[b], u[b], v[b], match[b], free[b])
    elif searching.size:
        adjustments[searching] = _lockstep_search(entries, searching, u, v, match, free)
    mappings = np.argsort(match, axis=-1)
    return mappings, _matched_cost(stack, mappings), adjustments.tolist()


def _augmenting_path_search(
    entries: np.ndarray, u: np.ndarray, v: np.ndarray, match: np.ndarray, free: np.ndarray
) -> int:
    """Search one matrix's `free` rows in index order, from its greedy state.

    Updates `u`, `v` and `match` (column -> row) in place; returns the adjustment count.
    """
    n = entries.shape[0]
    adjustments = 0
    # Work arrays, refilled per row rather than reallocated per step.
    reduced = np.empty(n)
    better = np.empty(n, dtype=bool)
    minv = np.empty(n)  # cheapest slack into each column so far; +inf once scanned
    way = np.empty(n, dtype=np.intp)  # predecessor column (-1 = root row)
    unscanned = np.empty(n, dtype=bool)
    tree_rows = np.empty(n, dtype=np.intp)  # row i, then the rows of scanned columns
    tree_cols = np.empty(n, dtype=np.intp)  # scanned columns, in scan order
    for i in np.flatnonzero(free).tolist():
        minv.fill(np.inf)
        way.fill(-1)
        unscanned.fill(True)
        scanned = 0
        j0 = -1
        i0 = i
        for _ in range(n):  # each step scans a new column
            tree_rows[scanned] = i0
            np.subtract(entries[i0], u.item(i0), out=reduced)
            np.subtract(reduced, v, out=reduced)
            np.less(reduced, minv, out=better)
            np.logical_and(better, unscanned, out=better)
            np.putmask(minv, better, reduced)
            np.putmask(way, better, j0)
            j1 = int(minv.argmin())
            delta = minv.item(j1)
            if delta > 0.0:
                adjustments += 1
            if delta != 0.0:  # skipping zero shifts makes solves 1.36-1.46x faster
                # Shift duals so the cheapest slack edge becomes tight.
                u[tree_rows[: scanned + 1]] += delta
                v[tree_cols[:scanned]] -= delta
                np.subtract(minv, delta, out=minv)  # scanned columns stay +inf
            minv[j1] = np.inf
            unscanned[j1] = False
            tree_cols[scanned] = j1
            scanned += 1
            i0 = match[j1]
            if i0 < 0:
                break
            j0 = j1
        else:
            raise RuntimeError(f"search for row {i} of C = {n} scanned every column")
        # Flip matched edges along the augmenting path back to the root.
        j = j1
        while j != -1:
            prev = way[j]
            match[j] = i if prev < 0 else match[prev]
            j = prev
    return adjustments


def _lockstep_search(
    entries: np.ndarray,
    act: np.ndarray,
    u: np.ndarray,
    v: np.ndarray,
    match: np.ndarray,
    free: np.ndarray,
) -> np.ndarray:
    """Search the free rows of matrices `entries[act]` in lockstep, from a greedy start.

    `u`, `v`, `match` (column -> row) and `free` (rows left to search) are
    the (B, C) arrays of the whole stack. Each matrix walks its own free
    rows in index order. Every round advances each matrix of the working
    set by one Dijkstra step of its current row's search, using (k, C)
    array operations. A matrix whose path reaches a free column flips that
    path with one write and starts its next free row in the following
    round. After its last one it idles in place: its dual shifts are held
    at 0, so its duals, matching and adjustment count stay final, while it
    runs a search that never ends, since every column is matched. The
    working set is compacted, and each idle matrix's results written back,
    once half of it idles, or before its oldest idle matrix could scan
    every column and meet an all-infinite slack row. Each search scans at
    most C columns, so a stack takes at most C times the largest number of
    free rows of any of its matrices rounds. Per matrix, each comparison
    and dual update is the one the single-matrix loop makes, so `u`, `v`
    and `match` end as that loop leaves them. Returns the adjustment
    counts of the matrices in `act`.
    """
    batch, n, _ = entries.shape
    k = act.size
    rows_of = entries.reshape(batch * n, n)  # row i of matrix b is rows_of[b * C + i]
    adjustments = np.empty(k, dtype=np.int64)
    # Per-matrix (k, C) state is indexed through its flattened view: entry
    # (r, j) sits at offset[r] + j.
    offsets = np.arange(k) * n
    # The working set: matrix r is act[slot[r]].
    slot, base, offset = np.arange(k), act * n, offsets
    # The free rows of each matrix in index order, matrix after matrix;
    # matrix r is matching row queue[pos[r]] of queue[pos[r]:stop[r]]. The
    # trailing 0 is read past the last matrix's last row, by a matrix that
    # idles.
    counts = free[act].sum(axis=1)
    queue = np.append(np.nonzero(free[act])[1], 0)
    stop = np.cumsum(counts)
    pos = stop - counts
    limit = n * int(counts.max())
    adj = np.zeros(k, dtype=np.int64)
    # Working copies; each matrix's results go back to the stack's arrays.
    stack_u, stack_v, stack_match = u, v, match
    u, v, match = u[act], v[act], match[act]
    minv = np.full((k, n), np.inf)
    # The flat position of the column each search scanned last, -1 at its
    # root row. `pred` holds it for every column whose slack that scan
    # lowered. The first step of a search finds every column better than
    # +inf, so `pred` is fully rewritten before a flip reads it.
    last = np.full(k, -1, dtype=np.intp)
    pred = np.empty((k, n), dtype=np.intp)
    used = np.zeros((k, n), dtype=bool)
    in_tree = np.zeros((k, n), dtype=bool)  # rows whose duals move with delta
    # 1.0, or 0.0 once a matrix idles: its shifts are then 0, so its duals
    # and adjustment count stay final until it leaves the working set.
    live = np.ones(k)
    idle = 0  # matrices past their last free row, still in the working set
    deadline = limit  # the round by which the oldest idle matrix must leave
    i0 = queue[pos]
    for rnd in range(limit):
        at = offset + i0
        in_tree.ravel()[at] = True
        reduced = rows_of.take(base + i0, axis=0)  # one gather: 2x faster than entries[act, i0]
        reduced -= u.ravel()[at][:, None]
        reduced -= v
        better = ~used & (reduced < minv)
        minv = np.where(better, reduced, minv)
        pred = np.where(better, last[:, None], pred)
        at = offset + minv.argmin(axis=1)
        delta = minv.ravel()[at]
        delta *= live
        adj += delta > 0.0
        step = delta[:, None]
        # Adding 0 where the loop skips the update changes at most a zero's sign.
        u += in_tree * step
        v -= used * step
        minv -= step  # used columns stay +inf
        minv.ravel()[at] = np.inf
        used.ravel()[at] = True
        i0 = match.ravel()[at]
        last = at
        done = np.flatnonzero(i0 < 0)
        if done.size:
            # Flip each finished path back to its root: every column on it
            # takes the row that last lowered its slack, its predecessor's
            # row before the flip (or the root), all in one write.
            flat_pred, flat_match = pred.ravel(), match.ravel()
            path, rows = [], []
            at_pos = pos[done]
            for j, root in zip(at[done].tolist(), queue[at_pos].tolist()):
                while j >= 0:
                    prev = flat_pred.item(j)
                    path.append(j)
                    rows.append(root if prev < 0 else flat_match.item(prev))
                    j = prev
            flat_match[path] = rows
            # Start each finished search's next free row.
            at_pos += 1
            pos[done] = at_pos
            i0[done] = queue[at_pos]
            last[done] = -1
            minv[done] = np.inf
            used[done] = False
            in_tree[done] = False
            finished = done[at_pos == stop[done]]
            if finished.size:
                live[finished] = 0.0
                if not idle:
                    # An idle search scans one column a round, and after C
                    # no finite slack is left: it leaves after C - 1.
                    deadline = rnd + n - 1
                idle += finished.size
        if not idle or (2 * idle < k and rnd < deadline):  # idling is cheaper than compacting
            continue
        # The idle matrices hand back their results and leave the working set.
        gone = pos == stop
        into = act[slot[gone]]
        stack_match[into], stack_u[into], stack_v[into] = match[gone], u[gone], v[gone]
        adjustments[slot[gone]] = adj[gone]
        if idle == k:
            break
        keep = np.flatnonzero(~gone)
        moved = offsets[: keep.size] - offsets[keep]  # flat positions move with their matrix
        slot, base, pos, stop, i0, adj, last, live = (
            index[keep] for index in (slot, base, pos, stop, i0, adj, last, live)
        )
        last += np.where(last < 0, 0, moved)
        u, v, match, minv, pred, used, in_tree = (
            state.take(keep, axis=0) for state in (u, v, match, minv, pred, used, in_tree)
        )
        pred += np.where(pred < 0, 0, moved[:, None])
        k, offset, idle = keep.size, offsets[: keep.size], 0
    else:
        raise RuntimeError(f"lockstep solve of C = {n} did not finish within {limit} rounds")
    return adjustments


def _check_guard(guard: int) -> None:
    if guard < 1:
        raise InvalidInputError(f"guard must be >= 1, got {guard}")


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
    _check_guard(guard)
    if size > guard:
        raise GuardLimitError(
            f"C={size} exceeds the brute-force guard of {guard}; "
            f"raise the guard explicitly to force the O(C!) solve"
        )
    start = time.perf_counter_ns()
    mapping = _enumerate_best(entries)
    elapsed = time.perf_counter_ns() - start
    (cost,) = _matched_cost(entries[None], mapping[None])
    return AssignmentResult(mapping, cost, math.factorial(size), elapsed)


@functools.cache
def _permutation_table(size: int) -> tuple[np.ndarray, np.ndarray]:
    """Lexicographic permutation table plus flat indices into a raveled matrix."""
    table = np.array(list(itertools.permutations(range(size))), dtype=np.intp)
    flat = np.ascontiguousarray(table + (np.arange(size) * size)[None, :])
    return table, flat


def _enumerate_best(entries: np.ndarray) -> np.ndarray:
    # Walk the lexicographic heads (the first C - t columns) and score all t!
    # tails of each head at once on the sub-matrix of the remaining rows and
    # columns. For C <= t the only head is empty. Heads and tails both run in
    # lexicographic order, so the strict < keeps the first optimum.
    size = entries.shape[0]
    tail = min(size, _PERM_TABLE_MAX)
    table, flat = _permutation_table(tail)
    cols = np.arange(size)
    best_cost, best = np.inf, cols.copy()
    for head in itertools.permutations(range(size), size - tail):
        rest = np.delete(cols, head)
        costs = entries[size - tail :, rest].ravel()[flat].sum(axis=1)
        costs += entries[cols[: size - tail], head].sum()
        k = int(costs.argmin())
        if costs[k] < best_cost:
            best_cost = costs[k]
            best[:] = (*head, *rest[table[k]])
    return best


def solve_sinkhorn(matrix, config: SinkhornConfig | None = None) -> AssignmentResult:
    """Approximate the optimal permutation via entropic matrix balancing.

    exp(-M / temperature) is normalized toward a doubly stochastic matrix
    for `config.iterations` alternating row/column rounds, then rounded to
    a hard permutation greedily: rows in index order, each taking the
    largest still-free column. A per-row max shift keeps the exponentials
    in (0, 1] for any cost scale, so nothing overflows; a temperature so
    small that M / temperature itself overflows float64 raises
    InvalidInputError.

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
    (cost,) = _matched_cost(entries[None], mapping[None])
    return AssignmentResult(mapping, cost, config.iterations, elapsed)


def _round_to_permutation(balanced: np.ndarray) -> np.ndarray:
    size = balanced.shape[0]
    mapping = np.full(size, -1, dtype=np.intp)
    taken = np.zeros(size, dtype=bool)
    for i in range(size):
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

    With `solve_hungarian` (the default), a (B, C, C) ndarray of numbers is
    validated once as a whole, raising what the first bad matrix would, and
    solved as one stack. Other input is validated one matrix at a time in
    input order and grouped by size. Each stack is solved on
    `solve_hungarian`'s path: scaled once, started from one greedy
    tight-edge matching, then searched only on its free rows, in lockstep
    for a group of at least `_LOCKSTEP_MIN_BATCH` matrices and one matrix
    at a time below that, where the loop is faster. Every result equals the
    one `solve_hungarian` gives for that matrix, except that its
    `elapsed_ns` is the group's solve time, matched-cost sum included,
    divided by the group's size (an amortised share, not the matrix's own
    time). Any other solver is called once per matrix.
    """
    # The module global is looked up at call time, so a caller that replaces
    # it with a wrapper (as a tracer does) and passes that still batches.
    if solver is not solve_hungarian:
        return [solver(m) for m in matrices]
    if isinstance(matrices, np.ndarray) and matrices.ndim == 3 and matrices.dtype.kind in "biuf":
        # Its matrices share one shape and convert to float64 without fail,
        # so one check of the stack raises what the first bad matrix would.
        if not len(matrices):
            return []
        return _stack_results(_checked_square(np.asarray(matrices, dtype=np.float64)))
    entries = [_validated_entries(m) for m in matrices]
    groups: dict[int, list[int]] = {}
    for k, e in enumerate(entries):
        groups.setdefault(e.shape[0], []).append(k)
    results: list[AssignmentResult | None] = [None] * len(entries)
    for members in groups.values():
        for k, result in zip(members, _stack_results(np.stack([entries[k] for k in members]))):
            results[k] = result
    return results


def _stack_results(stack: np.ndarray) -> list[AssignmentResult]:
    """The results of a validated (B, C, C) stack, each with a 1/B share of its solve time."""
    start = time.perf_counter_ns()
    solved = _solve_stack(stack)
    share = (time.perf_counter_ns() - start) // len(stack)
    return [AssignmentResult(*result, share) for result in zip(*solved)]


# --- serialization -----------------------------------------------------------

def matrix_to_text(matrix) -> str:
    """Plain-text form: first line C, then C rows of C space-separated floats."""
    entries = _validated_entries(matrix)
    lines = [str(entries.shape[0])]
    lines += [" ".join(repr(float(x)) for x in row) for row in entries]
    return "\n".join(lines) + "\n"


def matrix_from_text(text: str) -> CostMatrix:
    """Parse the plain-text matrix form.

    The C body lines are parsed in one `np.loadtxt` pass. Whatever that pass
    rejects is re-parsed token by token with `float()`, which either accepts
    it (as it does `1_0`) or raises MatrixParseError carrying the 1-based
    line and token column of the first offending value.
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
    if not any(line.split() for line in lines[size + 1 :]):
        try:
            # loadtxt skips blank lines, warning when it finds no data at all;
            # the shape check and the token loop below report those.
            with warnings.catch_warnings():
                warnings.simplefilter("error")
                rows = np.loadtxt(lines[1 : size + 1], dtype=np.float64, comments=None, ndmin=2)
        except (ValueError, Warning):
            pass
        else:
            if rows.shape == (size, size):
                return CostMatrix(rows)
    return CostMatrix(_parse_tokens(lines, size))


def _parse_tokens(lines: list[str], size: int) -> np.ndarray:
    """The matrix body parsed one `float()` per token, raising at the first bad one.

    Rows are collected as they parse, so a size header far larger than the
    file allocates nothing before its row-count error.
    """
    rows = []
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
        values = []
        for c, token in enumerate(tokens):
            try:
                values.append(float(token))
            except ValueError:
                raise MatrixParseError(
                    f"{token!r} is not a number", line=lineno, column=c + 1
                ) from None
        rows.append(values)
    for extra in range(size + 1, len(lines)):
        if lines[extra].split():
            raise MatrixParseError("unexpected content after matrix", line=extra + 1, column=1)
    return np.array(rows, dtype=np.float64)


def _matrix_payload(matrix) -> dict:
    """The JSON matrix form as a dict: `size` C and the C rows of `entries`."""
    entries = _validated_entries(matrix)
    return {"size": entries.shape[0], "entries": entries.tolist()}


def matrix_to_json(matrix) -> str:
    return json.dumps(_matrix_payload(matrix))


def matrix_from_json(text: str) -> CostMatrix:
    try:
        payload = json.loads(text)
    except json.JSONDecodeError as exc:
        raise MatrixParseError(
            f"invalid JSON: {exc.msg}", line=exc.lineno, column=exc.colno
        ) from exc
    except RecursionError:
        raise MatrixParseError("invalid JSON: arrays or objects nest too deeply") from None
    if not isinstance(payload, dict) or "size" not in payload or "entries" not in payload:
        raise MatrixParseError('JSON matrix needs "size" and "entries" fields')
    size = payload["size"]
    if isinstance(size, bool) or not isinstance(size, int):
        raise MatrixParseError(f'"size" must be an integer, got {json.dumps(size)}')
    matrix = CostMatrix(payload["entries"])
    if matrix.size != size:
        raise InvalidInputError(f"declared size {size} does not match entries ({matrix.size})")
    return matrix


def load_matrix(path) -> CostMatrix:
    """Read a UTF-8 matrix file, sniffing JSON vs plain text from the first byte.

    Bytes that are not UTF-8 raise MatrixParseError naming their line.
    """
    try:
        text = Path(path).read_text(encoding="utf-8")
    except UnicodeDecodeError as exc:
        before = exc.object[: exc.start].decode("utf-8")
        raise MatrixParseError(
            f"byte 0x{exc.object[exc.start]:02x} at offset {exc.start} is not UTF-8",
            line=len((before + "x").splitlines()),  # the line the bad byte starts
        ) from None
    if text.lstrip().startswith("{"):
        return matrix_from_json(text)
    return matrix_from_text(text)
