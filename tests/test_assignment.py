import hashlib
import itertools
import json
import math
import time
import warnings
from fractions import Fraction
from unittest import mock

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st
from hypothesis.extra import numpy as hnp

import sepmatch.assignment as assignment
from sepmatch import (
    AssignmentResult,
    CostMatrix,
    EmptyInputError,
    GuardLimitError,
    InvalidInputError,
    MatrixParseError,
    SinkhornConfig,
    load_matrix,
    matrix_from_json,
    matrix_from_text,
    matrix_to_json,
    matrix_to_text,
    permutation_count,
    solve_batch,
    solve_bruteforce,
    solve_hungarian,
    solve_sinkhorn,
)


# The smallest size group that solve_batch sends to the lockstep kernel.
LOCKSTEP = assignment._LOCKSTEP_MIN_BATCH


def enumerate_optimum(matrix):
    """Independent oracle: scan every permutation with plain Python."""
    matrix = np.asarray(matrix, dtype=float)
    c = matrix.shape[0]
    best_cost = math.inf
    best = None
    for perm in itertools.permutations(range(c)):
        cost = sum(matrix[i][perm[i]] for i in range(c))
        if cost < best_cost:
            best_cost = cost
            best = perm
    return best, best_cost


class TestHungarian:
    def test_golden_3x3(self, golden_matrix):
        oracle_perm, oracle_cost = enumerate_optimum(golden_matrix)
        assert oracle_perm == (1, 0, 2) and oracle_cost == 5.0
        result = solve_hungarian(golden_matrix)
        assert list(result.permutation) == [1, 0, 2]
        assert result.total_cost == 5.0

    @pytest.mark.parametrize("c", [2, 5, 9, 17])
    def test_zero_diagonal_is_identity(self, c):
        matrix = np.ones((c, c)) - np.eye(c)
        result = solve_hungarian(matrix)
        assert list(result.permutation) == list(range(c))
        assert result.total_cost == 0.0
        assert result.iterations == 0

    @pytest.mark.parametrize("x", [-7.25, 0.0, 3.5])
    def test_single_entry(self, x):
        result = solve_hungarian([[x]])
        assert list(result.permutation) == [0]
        assert result.total_cost == x
        assert result.iterations == 0

    def test_matches_bruteforce_on_random(self):
        rng = np.random.default_rng(42)
        for c in range(2, 10):
            for _ in range(60):
                matrix = rng.uniform(-30.0, 30.0, (c, c))
                h = solve_hungarian(matrix)
                b = solve_bruteforce(matrix)
                assert abs(h.total_cost - b.total_cost) <= 1e-9

    def test_optimality_certificate(self):
        rng = np.random.default_rng(7)
        matrix = rng.uniform(-30.0, 30.0, (12, 12))
        optimum = solve_hungarian(matrix).total_cost
        rows = np.arange(12)
        for _ in range(100):
            perm = rng.permutation(12)
            assert matrix[rows, perm].sum() >= optimum - 1e-9

    def test_deterministic(self):
        rng = np.random.default_rng(11)
        matrix = rng.uniform(-30.0, 30.0, (15, 15))
        first = solve_hungarian(matrix)
        second = solve_hungarian(matrix.copy())
        assert np.array_equal(first.permutation, second.permutation)
        assert first.total_cost == second.total_cost
        assert first.iterations == second.iterations

    def test_zero_iterations_when_row_minima_distinct(self):
        rng = np.random.default_rng(5)
        for c in (3, 6, 10):
            matrix = rng.uniform(0.0, 10.0, (c, c))
            planted = rng.permutation(c)
            for i in range(c):
                matrix[i, planted[i]] = matrix[i].min() - 1.0
            result = solve_hungarian(matrix)
            assert result.iterations == 0
            assert np.array_equal(result.permutation, planted)

    def test_all_zero_is_identity(self):
        # Every row claims column 0 and the lowest row, 0, gets it; giving it
        # to the highest row instead ends at [1, 2, 0].
        result = solve_hungarian(np.zeros((3, 3)))
        assert result.permutation.tolist() == [0, 1, 2]

    def test_rejects_bad_input(self):
        with pytest.raises(InvalidInputError):
            solve_hungarian([[1.0, np.nan], [0.0, 1.0]])
        with pytest.raises(InvalidInputError):
            solve_hungarian([[1.0, np.inf], [0.0, 1.0]])
        with pytest.raises(InvalidInputError):
            solve_hungarian([[1.0, 2.0, 3.0], [4.0, 5.0, 6.0]])
        with pytest.raises(EmptyInputError):
            solve_hungarian(np.empty((0, 0)))
        with pytest.raises(InvalidInputError):
            solve_hungarian([1.0, 2.0])

    def test_matches_scipy(self):
        scipy_opt = pytest.importorskip("scipy.optimize")
        rng = np.random.default_rng(99)
        for _ in range(200):
            c = int(rng.integers(2, 41))
            matrix = rng.uniform(-30.0, 30.0, (c, c))
            rows, cols = scipy_opt.linear_sum_assignment(matrix)
            assert abs(solve_hungarian(matrix).total_cost - matrix[rows, cols].sum()) <= 1e-9


def exact_optimum(matrix):
    """Exact oracle: the least rational cost over every permutation."""
    c = len(matrix)
    return min(
        sum(Fraction(matrix[i][p[i]]) for i in range(c)) for p in itertools.permutations(range(c))
    )


def assert_optimal_to_resolution(matrix, permutation):
    """The permutation's exact cost is the optimum to within float64 resolution.

    A float64 solver cannot tell apart costs closer than about C ulps of the
    largest entry, so that is the tolerance.
    """
    c = len(matrix)
    scaled = np.ldexp(matrix, -np.frexp(np.abs(matrix).max())[1])  # max|c| in [0.5, 1)
    gap = sum(Fraction(scaled[i][permutation[i]]) for i in range(c)) - exact_optimum(scaled)
    assert 0 <= gap <= c * np.finfo(np.float64).eps


class TestMagnitude:
    """Finite entries near the float64 limit: no overflow inside the solve."""

    def test_huge_entries_regression(self):
        matrix = np.array([[1, 1.7e308, 1.7e308], [-1.7e308, 9e307, 1], [9e307, 0, 9e307]])
        with warnings.catch_warnings():
            warnings.simplefilter("error", RuntimeWarning)
            single = solve_hungarian(matrix)
            batched = solve_batch([matrix] * LOCKSTEP)[0]  # enough for the lockstep kernel
        assert_optimal_to_resolution(matrix, single.permutation)
        assert single.total_cost == matrix[np.arange(3), single.permutation].sum()
        assert np.array_equal(batched.permutation, single.permutation)
        assert batched.total_cost == single.total_cost

    def test_random_huge_entries(self):
        values = np.array([1.7e308, -1.7e308, -1e308, 9e307, 0.0, 1.0])
        rng = np.random.default_rng(2024)
        solved = []
        for _ in range(400):
            c = int(rng.integers(2, 6))
            matrix = rng.choice(values, (c, c))
            with warnings.catch_warnings(record=True) as caught:
                warnings.simplefilter("always")
                try:
                    result = solve_hungarian(matrix)
                except InvalidInputError as exc:
                    # Only the float64 sum of the matched entries may overflow.
                    assert "overflows" in str(exc)
                    continue
            assert not caught
            assert_optimal_to_resolution(matrix, result.permutation)
            assert math.isfinite(result.total_cost)
            solved.append(matrix)
        assert len(solved) >= 50
        with warnings.catch_warnings():
            warnings.simplefilter("error", RuntimeWarning)
            assert_same_as_single(solved, solve_batch(solved))

    def test_representable_cost_past_pairwise_overflow(self):
        # numpy's pairwise sum of the optimal entries overflows; the exact sum fits.
        matrix = np.array([[-1e308, 0, 1], [-1.7e308, 1.7e308, -1e308], [1, 9e307, 1.7e308]])
        with warnings.catch_warnings():
            warnings.simplefilter("error", RuntimeWarning)
            results = [solve_hungarian(matrix), solve_batch([matrix] * LOCKSTEP)[0]]
        for result in results:
            assert result.permutation.tolist() == [0, 2, 1]
            assert result.total_cost == -1.1e308
            assert_optimal_to_resolution(matrix, result.permutation)

    def test_one_rescued_sum_in_a_lockstep_stack(self):
        # Only matrix 5's row sum overflows, so only it takes the exact-sum rescue.
        stack = np.random.default_rng(38).uniform(-30.0, 30.0, (LOCKSTEP, 3, 3))
        stack[5] = [[-1e308, 0, 1], [-1.7e308, 1.7e308, -1e308], [1, 9e307, 1.7e308]]
        with warnings.catch_warnings():
            warnings.simplefilter("error", RuntimeWarning)
            results = solve_batch(stack)
            assert_same_as_single(stack, results)  # total_cost bit for bit
        assert results[5].total_cost == -1.1e308

    def test_overflowing_cost_raises(self):
        matrix = np.full((2, 2), 1.7e308)
        with pytest.raises(InvalidInputError, match="overflows"), np.errstate(over="ignore"):
            solve_hungarian(matrix)


@st.composite
def matrix_and_shift(draw):
    n = draw(st.integers(2, 6))
    matrix = draw(hnp.arrays(np.float64, (n, n), elements=st.floats(-50, 50)))
    index = draw(st.integers(0, n - 1))
    shift = draw(st.floats(-25, 25))
    axis = draw(st.sampled_from(["row", "col"]))
    return matrix, index, shift, axis


@settings(max_examples=150, deadline=None)
@given(case=matrix_and_shift())
def test_argmin_shift_invariance(case):
    matrix, index, shift, axis = case
    original = solve_hungarian(matrix)
    shifted = matrix.copy()
    if axis == "row":
        shifted[index, :] += shift
    else:
        shifted[:, index] += shift
    moved = solve_hungarian(shifted)
    n = matrix.shape[0]
    # Optimal cost shifts by exactly the constant ...
    assert abs((moved.total_cost - original.total_cost) - shift) <= 1e-9
    # ... and the shifted solver's choice is still optimal for the original.
    reapplied = matrix[np.arange(n), moved.permutation].sum()
    assert abs(reapplied - original.total_cost) <= 1e-9


class TestBruteforce:
    def test_golden_3x3(self, golden_matrix):
        result = solve_bruteforce(golden_matrix)
        assert result.total_cost == 5.0
        assert list(result.permutation) == [1, 0, 2]
        assert result.iterations == 6  # 3! permutations evaluated

    def test_iterations_is_factorial(self):
        rng = np.random.default_rng(0)
        result = solve_bruteforce(rng.uniform(-1, 1, (5, 5)))
        assert result.iterations == 120

    def test_guard_refuses_c12(self):
        matrix = np.zeros((12, 12))
        with pytest.raises(GuardLimitError, match="11"):
            solve_bruteforce(matrix)

    def test_guard_override(self):
        matrix = np.zeros((4, 4))
        with pytest.raises(GuardLimitError, match="3"):
            solve_bruteforce(matrix, guard=3)
        assert solve_bruteforce(matrix, guard=4).total_cost == 0.0
        with pytest.raises(InvalidInputError):
            solve_bruteforce(matrix, guard=0)

    def test_tie_breaks_lexicographically(self):
        result = solve_bruteforce(np.zeros((4, 4)))
        assert list(result.permutation) == [0, 1, 2, 3]

    def test_head_loop_matches_table_path(self, monkeypatch):
        # Force the head loop onto small sizes and cross-check it: with a
        # 2-column table, C = 5 walks 60 three-column heads of 2 tails each.
        monkeypatch.setattr(assignment, "_PERM_TABLE_MAX", 2)
        rng = np.random.default_rng(21)
        for _ in range(20):
            matrix = rng.uniform(-30.0, 30.0, (5, 5))
            looped = solve_bruteforce(matrix)
            assert abs(looped.total_cost - solve_hungarian(matrix).total_cost) <= 1e-9
            assert looped.iterations == 120


class TestSinkhorn:
    def test_diag_dominant_matches_hungarian(self):
        matrix = np.full((6, 6), 10.0)
        np.fill_diagonal(matrix, 0.0)
        result = solve_sinkhorn(matrix)
        exact = solve_hungarian(matrix)
        assert np.array_equal(result.permutation, exact.permutation)
        assert result.total_cost == exact.total_cost
        assert result.iterations == 200  # default balancing rounds

    def test_golden_3x3_low_temperature(self, golden_matrix):
        config = SinkhornConfig(iterations=200, temperature=0.1)
        result = solve_sinkhorn(golden_matrix, config=config)
        assert result.total_cost == 5.0  # enumerated optimum

    def test_rounds_rows_in_index_order(self):
        # [0, 1, 2] and [2, 1, 0] both cost 1; row 0 picks first and keeps column 0.
        result = solve_sinkhorn([[0, 1, 0], [3, 1, 1], [0, 3, 0]])
        assert result.permutation.tolist() == [0, 1, 2]

    def test_never_beats_hungarian(self):
        rng = np.random.default_rng(13)
        for _ in range(100):
            matrix = rng.uniform(-30.0, 30.0, (10, 10))
            gap = solve_sinkhorn(matrix).total_cost - solve_hungarian(matrix).total_cost
            assert gap >= -1e-9

    def test_overflow_safe_at_low_temperature(self):
        rng = np.random.default_rng(17)
        matrix = rng.uniform(-30.0, 30.0, (10, 10))
        # At 0.01 the unshifted exponentials reach exp(3000), beyond float64.
        for temperature in (0.1, 0.01):
            with np.errstate(over="raise", invalid="raise"):
                result = solve_sinkhorn(matrix, SinkhornConfig(iterations=200, temperature=temperature))
            assert sorted(result.permutation) == list(range(10))
            assert math.isfinite(result.total_cost)

    def test_temperature_overflow_raises(self):
        # cost / temperature overflowed to inf and Sinkhorn fell back to the identity.
        rng = np.random.default_rng(19)
        matrix = rng.uniform(-30.0, 30.0, (5, 5))
        with pytest.raises(InvalidInputError, match="temperature 1e-310"):
            solve_sinkhorn(matrix, SinkhornConfig(temperature=1e-310))

    def test_config_validation(self):
        with pytest.raises(InvalidInputError):
            SinkhornConfig(iterations=0)
        with pytest.raises(InvalidInputError):
            SinkhornConfig(temperature=0.0)
        with pytest.raises(InvalidInputError):
            SinkhornConfig(temperature=-1.0)
        with pytest.raises(InvalidInputError):
            SinkhornConfig(temperature=math.nan)


class TestPermutationCount:
    def test_exact_values(self):
        assert permutation_count(0) == 1
        assert permutation_count(1) == 1
        assert permutation_count(5) == 120
        assert permutation_count(10) == 3_628_800
        assert permutation_count(20) == 2_432_902_008_176_640_000
        assert permutation_count(25) == math.factorial(25)

    def test_returns_exact_int(self):
        value = permutation_count(20)
        assert isinstance(value, int) and not isinstance(value, float)

    def test_rejects_out_of_range(self):
        with pytest.raises(InvalidInputError):
            permutation_count(26)
        with pytest.raises(InvalidInputError):
            permutation_count(-1)


def nan_in_matrix(k):
    stack = np.zeros((LOCKSTEP, 3, 3))
    stack[k, 1, 0] = np.nan
    return stack


class TestBatch:
    def test_preserves_order(self):
        rng = np.random.default_rng(3)
        matrices = [rng.uniform(-30, 30, (6, 6)) for _ in range(12)]
        sequential = [solve_hungarian(m) for m in matrices]
        batched = solve_batch(matrices)
        for s, t in zip(sequential, batched):
            assert np.array_equal(s.permutation, t.permutation)
            assert s.total_cost == t.total_cost

    def test_other_solver(self):
        matrices = [np.zeros((3, 3)), np.eye(3)]
        results = solve_batch(matrices, solver=solve_bruteforce)
        assert [r.iterations for r in results] == [6, 6]

    def test_mixed_sizes(self):
        rng = np.random.default_rng(8)
        sizes = [int(c) for c in rng.integers(1, 13, 40)]
        matrices = [rng.uniform(-30, 30, (c, c)) for c in sizes]
        matrices[3] = CostMatrix(matrices[3])
        matrices[5] = matrices[5].tolist()
        results = solve_batch(matrices)
        assert [r.permutation.size for r in results] == sizes
        assert_same_as_single(matrices, results)
        # Each result carries its group's amortised share of the solve time.
        for c in set(sizes):
            shares = {r.elapsed_ns for r, size in zip(results, sizes) if size == c}
            assert len(shares) == 1 and min(shares) >= 0

    def test_empty_and_invalid(self):
        assert solve_batch([]) == []
        with pytest.raises(InvalidInputError):
            solve_batch([np.eye(3), [[1.0, np.nan], [0.0, 1.0]]])
        with pytest.raises(EmptyInputError):
            solve_batch([np.eye(2), np.empty((0, 0))])

    @pytest.mark.parametrize("b", [2, LOCKSTEP])
    def test_zero_stack_is_identity(self, b):
        results = solve_batch(np.zeros((b, 4, 4)))
        assert [r.permutation.tolist() for r in results] == [[0, 1, 2, 3]] * b

    def test_uncontested_stack_runs_no_round(self, lockstep_calls):
        # Template matrices with their columns shuffled: every row's minimum
        # sits in a column of its own, so the greedy start matches them all.
        rng = np.random.default_rng(36)
        planted = np.array([rng.permutation(20) for _ in range(64)])
        columns = np.argsort(planted)[:, None, :]
        stack = np.take_along_axis(planted_stack(rng, 20, [0.0] * 64), columns, axis=-1)
        results = solve_batch(stack)
        assert [r.iterations for r in results] == [0] * 64
        assert np.array_equal([r.permutation for r in results], planted)
        assert lockstep_calls == []
        # Only a matrix with rows left free enters the lockstep rounds.
        solve_batch(lone_uniform_stack())
        assert lockstep_calls == [(64, [40])]

    def test_small_groups_take_the_loop(self, lockstep_calls):
        rng = np.random.default_rng(37)
        matrices = [rng.uniform(-30, 30, (c, c)) for c in [5] * (LOCKSTEP - 1) + [6] * LOCKSTEP]
        assert_same_as_single(matrices, solve_batch(matrices))
        assert [stack for stack, _ in lockstep_calls] == [LOCKSTEP]

    def test_stack_equals_list(self):
        # A numeric (B, C, C) array is validated once and solved as one stack,
        # with the results its matrices give one by one in a list.
        rng = np.random.default_rng(38)
        floats = planted_stack(rng, 7, rng.uniform(0.0, 1.0, LOCKSTEP + 3))
        ints = rng.integers(0, 3, (LOCKSTEP, 5, 5))
        for stack in (floats, ints, floats.transpose(0, 2, 1), floats[:3]):
            from_stack, from_list = solve_batch(stack), solve_batch(list(stack))
            assert len(from_stack) == len(from_list) == len(stack)
            for got, want in zip(from_stack, from_list):
                assert np.array_equal(got.permutation, want.permutation)
                assert got.total_cost == want.total_cost
                assert got.iterations == want.iterations
        assert solve_batch(np.empty((0, 3, 3))) == solve_batch(np.empty((0, 0, 0))) == []

    @pytest.mark.parametrize(
        "stack, error",
        [
            (nan_in_matrix(2), InvalidInputError),
            (np.empty((LOCKSTEP, 0, 0)), EmptyInputError),
            (np.ones((LOCKSTEP, 2, 3)), InvalidInputError),
        ],
        ids=["nan_in_third", "empty", "not_square"],
    )
    def test_stack_errors_equal_list_errors(self, stack, error):
        raised = []
        for matrices in (stack, list(stack)):
            with pytest.raises(error) as info:
                solve_batch(matrices)
            raised.append((type(info.value), str(info.value)))
        assert raised[0] == raised[1]

    def test_wrapped_default_solver_stays_batched(self, monkeypatch):
        # A caller that wraps the module's solve_hungarian (as a tracer does)
        # and passes the wrapper gets the lockstep path, not per-matrix calls.
        calls = []
        original = assignment.solve_hungarian

        def wrapped(matrix):
            calls.append(matrix)
            return original(matrix)

        monkeypatch.setattr(assignment, "solve_hungarian", wrapped)
        matrices = [np.eye(4), 1.0 - np.eye(4)]
        results = assignment.solve_batch(matrices, solver=assignment.solve_hungarian)
        assert calls == []
        assert [r.total_cost for r in results] == [0.0, 0.0]


def test_elapsed_covers_the_matched_cost_sum(monkeypatch):
    # Every solver's clock stops after the matched-cost sum, so a sum made
    # 20 ms slower shows in every elapsed_ns, each batch group being one matrix.
    matched_cost = assignment._matched_cost

    def slow(*args):
        costs = matched_cost(*args)
        time.sleep(0.02)
        return costs

    monkeypatch.setattr(assignment, "_matched_cost", slow)
    matrix = np.arange(9.0).reshape(3, 3)
    results = [solve_hungarian(matrix), solve_bruteforce(matrix), solve_sinkhorn(matrix)]
    results += solve_batch([matrix, np.eye(4)]) + solve_batch(matrix[None])
    assert [r.elapsed_ns >= 20_000_000 for r in results] == [True] * 6


@pytest.fixture
def lockstep_calls(monkeypatch):
    """(B, act) of every `_lockstep_search` call made while the test runs."""
    calls = []
    original = assignment._lockstep_search

    def spy(entries, act, *state):
        calls.append((entries.shape[0], act.tolist()))
        return original(entries, act, *state)

    monkeypatch.setattr(assignment, "_lockstep_search", spy)
    return calls


def assert_same_as_single(matrices, results):
    assert len(results) == len(matrices)
    for matrix, got in zip(matrices, results):
        want = solve_hungarian(matrix)
        assert np.array_equal(got.permutation, want.permutation)
        assert got.total_cost == want.total_cost
        assert got.iterations == want.iterations


def planted_stack(rng, c, difficulty):
    """As in bench.iteration_profile: a zero-diagonal template blended with noise.

    `difficulty` is one blend weight for the whole stack or one per matrix.
    """
    template = np.full((c, c), 30.0)
    np.fill_diagonal(template, 0.0)
    d = np.reshape(difficulty, (-1, 1, 1))
    return (1.0 - d) * template + d * rng.uniform(-30.0, 30.0, (d.shape[0], c, c))


@st.composite
def matrix_stacks(draw):
    """(B, C, C) stacks: tie-heavy integers, rank-1 products, planted profiles
    of one difficulty, or mixed ones that draw a difficulty per matrix (a
    quarter of them 0, which solve in zero adjustment rounds), so that the
    matrices of one stack finish their rows in different rounds."""
    c = draw(st.integers(1, 25))
    b = draw(st.integers(0, 64))
    kind = draw(st.sampled_from(["ties", "rank1", "planted", "mixed"]))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    if kind == "ties":
        return rng.integers(0, 3, (b, c, c)).astype(np.float64)
    if kind == "rank1":
        return rng.uniform(-3.0, 3.0, (b, c, 1)) * rng.uniform(-3.0, 3.0, (b, 1, c))
    if kind == "planted":
        return planted_stack(rng, c, [draw(st.floats(0.0, 1.0))] * b)
    return planted_stack(rng, c, rng.uniform(0.0, 1.0, b) * (rng.random(b) >= 0.25))


def lone_uniform_stack():
    """One uniform C = 20 matrix among 63 zero-round template matrices."""
    stack = planted_stack(np.random.default_rng(31), 20, [0.0] * 64)
    stack[40] = np.random.default_rng(32).uniform(-30.0, 30.0, (20, 20))
    return stack


def early_idle_stack():
    """A C = 3 matrix that finishes in the first round, then 11 that take 5.

    It idles alone, so only the bound on its idle rounds, not the share of
    the set that idles, can compact it before it scans every column."""
    early = np.array([[1.0, 1.0, 0.0], [1.0, 2.0, 0.0], [2.0, 1.0, 2.0]])
    return np.concatenate([early[None], np.zeros((LOCKSTEP - 1, 3, 3))])


def spread_uniform_stack():
    """`lone_uniform_stack()` and three uniform C = 20 matrices.

    The four search for 10, 37, 54 and 57 rounds, so the first idles past
    C rounds while three still search."""
    uniform = [np.random.default_rng(seed).uniform(-30.0, 30.0, (1, 20, 20)) for seed in (44, 46, 33)]
    return np.concatenate([lone_uniform_stack(), *uniform])


@pytest.mark.parametrize("c", [1, 2, 3])
def test_small_c_stacks(c, lockstep_calls):
    stack = np.random.default_rng(39 + c).integers(0, 3, (4 * LOCKSTEP, c, c)).astype(np.float64)
    assert_same_as_single(stack, solve_batch(stack))
    # Every row of a 1 x 1 matrix is matched by the greedy start.
    assert len(lockstep_calls) == (c > 1)


@pytest.mark.parametrize("make", [early_idle_stack, spread_uniform_stack])
def test_idle_matrix_leaves_before_scanning_every_column(make, lockstep_calls):
    # An idle matrix left in the set past C rounds meets an all-infinite
    # slack row, and pyproject turns the RuntimeWarning into a failure.
    stack = make()
    assert_same_as_single(stack, solve_batch(stack))
    assert len(lockstep_calls) == 1


def test_lockstep_hands_back_the_loops_duals():
    # Each matrix's final duals, matching and adjustment count, as the
    # one-matrix search leaves them, whenever it finishes.
    rng = np.random.default_rng(40)
    for stack in (spread_uniform_stack(), early_idle_stack(), rng.integers(0, 3, (30, 9, 9))):
        entries = assignment._scaled(stack.astype(np.float64))
        u, v, match, free = assignment._greedy_start(entries)
        searching = np.flatnonzero(free.any(axis=-1))
        loop = [u.copy(), v.copy(), match.copy()]
        counts = [
            assignment._augmenting_path_search(entries[b], *(a[b] for a in loop), free[b])
            for b in searching.tolist()
        ]
        lockstep = [u.copy(), v.copy(), match.copy()]
        adjustments = np.zeros(len(stack), dtype=np.int64)
        assignment._lockstep_search(entries, searching, *lockstep, free, adjustments)
        assert adjustments[searching].tolist() == counts
        for want, got in zip(loop, lockstep):
            assert np.array_equal(want, got)


@settings(max_examples=60, deadline=None)
@given(stack=matrix_stacks())
@example(stack=lone_uniform_stack())
@example(stack=early_idle_stack())
@example(stack=spread_uniform_stack())
@example(stack=np.random.default_rng(33).uniform(-30.0, 30.0, (5, 1, 1)))
@example(stack=np.random.default_rng(34).integers(0, 3, (12, 40, 40)).astype(np.float64))
@example(stack=np.random.default_rng(35).integers(0, 3, (8, 100, 100)).astype(np.float64))
def test_batch_equals_single(stack):
    # Every stack of two or more goes through the lockstep kernel here.
    with mock.patch.object(assignment, "_LOCKSTEP_MIN_BATCH", 2):
        results = solve_batch(stack)
    assert_same_as_single(stack, results)
    scipy_opt = pytest.importorskip("scipy.optimize")
    for matrix, got in zip(stack, results):
        rows, cols = scipy_opt.linear_sum_assignment(matrix)
        best = matrix[rows, cols].sum()
        assert abs(got.total_cost - best) <= 1e-9 * max(1.0, abs(best))


# sha256 over (permutation, iterations, total_cost) of `solve_hungarian` on
# `golden_matrices()`, recorded once the kernels started from the greedy
# tight-edge matching. That start moved the adjustment counts of four
# matrices and the tied optimal permutations of six {0, 1, 2} matrices;
# every total_cost stayed the same.
GOLDEN_DIGEST = "c818ca25c43d3efb3c3cee4017b6f32420b6b211726096441b09ebe35e31f63c"


def golden_matrices():
    """Seeded uniform, {0, 1, 2}-integer, rank-1 and planted matrices, C = 1 to 320."""
    for c, count in ((1, 4), (2, 4), (20, 4), (100, 2), (320, 1)):
        rng = np.random.default_rng(1000 + c)
        template = np.full((c, c), 30.0)
        np.fill_diagonal(template, 0.0)
        for _ in range(count):
            yield rng.uniform(-30.0, 30.0, (c, c))
            yield rng.integers(0, 3, (c, c)).astype(np.float64)
            yield rng.uniform(-3.0, 3.0, (c, 1)) * rng.uniform(-3.0, 3.0, (1, c))
            d = rng.uniform(0.0, 1.0)
            yield (1.0 - d) * template + d * rng.uniform(-30.0, 30.0, (c, c))


def results_digest(results):
    digest = hashlib.sha256()
    for result in results:
        digest.update(np.asarray(result.permutation, dtype="<i8").tobytes())
        digest.update(np.array([result.iterations], dtype="<i8").tobytes())
        digest.update(np.array([result.total_cost], dtype="<f8").tobytes())
    return digest.hexdigest()


def test_solver_golden_digest():
    assert results_digest(map(solve_hungarian, golden_matrices())) == GOLDEN_DIGEST


def test_batch_golden_digest():
    # One call over every size: batched results must equal the single solves.
    assert results_digest(solve_batch(list(golden_matrices()))) == GOLDEN_DIGEST


# sha256 over (permutation, iterations, total_cost) of `solve_bruteforce` on
# `oracle_matrices()`, recorded from the enumeration that read a cached 9!
# table up to C = 9 and streamed itertools blocks at C = 10 and 11.
ORACLE_DIGEST = "af911740ae70598f6f4e8a11f5f12b57152e5a34b9ceae43ab1698b14b54bc82"


def oracle_matrices():
    """Seeded uniform, {0, 1, 2}, {0, 1} and rank-1 matrices, C = 1 to 11."""
    for c in range(1, 10):
        rng = np.random.default_rng(2000 + c)
        yield rng.uniform(-30.0, 30.0, (c, c))
        yield rng.integers(0, 3, (c, c)).astype(np.float64)
        yield rng.integers(0, 2, (c, c)).astype(np.float64)
        yield rng.uniform(-3.0, 3.0, (c, 1)) * rng.uniform(-3.0, 3.0, (1, c))
    for c in (10, 11):
        rng = np.random.default_rng(2000 + c)
        yield rng.uniform(-30.0, 30.0, (c, c))
        yield rng.integers(0, 3, (c, c)).astype(np.float64)
    yield np.zeros((11, 11))


def test_bruteforce_golden_digest():
    results = [solve_bruteforce(matrix) for matrix in oracle_matrices()]
    # All-zero: every permutation ties, and the lexicographic first is the identity.
    assert list(results[-1].permutation) == list(range(11))
    assert results_digest(results) == ORACLE_DIGEST


class TestSerialization:
    def test_text_round_trip(self, golden_matrix):
        text = matrix_to_text(golden_matrix)
        assert text.splitlines()[0] == "3"
        parsed = matrix_from_text(text)
        assert np.array_equal(parsed.entries, golden_matrix)

    def test_json_round_trip(self, golden_matrix):
        parsed = matrix_from_json(matrix_to_json(golden_matrix))
        assert parsed.size == 3
        assert np.array_equal(parsed.entries, golden_matrix)

    def test_text_parse_errors_carry_position(self):
        with pytest.raises(MatrixParseError) as info:
            matrix_from_text("")
        assert info.value.line == 1

        with pytest.raises(MatrixParseError) as info:
            matrix_from_text("two\n1 2\n3 4\n")
        assert info.value.line == 1

        with pytest.raises(MatrixParseError) as info:
            matrix_from_text("2\n1.0 2.0\n3.0\n")
        assert (info.value.line, info.value.column) == (3, 2)

        with pytest.raises(MatrixParseError) as info:
            matrix_from_text("2\n1.0 abc\n3.0 4.0\n")
        assert (info.value.line, info.value.column) == (2, 2)

        with pytest.raises(MatrixParseError) as info:
            matrix_from_text("3\n1 2 3\n4 5 6\n")
        assert info.value.line == 4

        with pytest.raises(MatrixParseError) as info:
            matrix_from_text("2\n1 2\n3 4\nleftover\n")
        assert info.value.line == 4

        with pytest.raises(MatrixParseError):
            matrix_from_text("0\n")

    def test_json_parse_errors(self):
        with pytest.raises(MatrixParseError):
            matrix_from_json("{not json")
        with pytest.raises(MatrixParseError):
            matrix_from_json('{"size": 2}')
        with pytest.raises(InvalidInputError):
            matrix_from_json('{"size": 3, "entries": [[1, 2], [3, 4]]}')

    def test_load_matrix_sniffs_format(self, tmp_path, golden_matrix):
        text_path = tmp_path / "m.txt"
        text_path.write_text(matrix_to_text(golden_matrix))
        json_path = tmp_path / "m.json"
        json_path.write_text(matrix_to_json(golden_matrix))
        assert np.array_equal(load_matrix(text_path).entries, golden_matrix)
        assert np.array_equal(load_matrix(json_path).entries, golden_matrix)

    def test_result_json_fields(self, golden_matrix):
        payload = json.loads(solve_hungarian(golden_matrix).to_json())
        assert set(payload) == {"permutation", "total_cost", "iterations", "elapsed_ns"}
        assert payload["permutation"] == [1, 0, 2]
        assert payload["total_cost"] == 5.0

    def test_cost_matrix_validates(self):
        matrix = CostMatrix([[1, 2], [3, 4]])
        assert matrix.size == 2
        assert matrix.entries.dtype == np.float64
        with pytest.raises(InvalidInputError):
            CostMatrix([[1, 2], [3, np.nan]])
        with pytest.raises(EmptyInputError):
            CostMatrix(np.empty((0, 0)))

    def test_load_matrix_decodes_utf8(self, tmp_path):
        path = tmp_path / "nbsp.txt"
        path.write_bytes("2\n1\u00a02\n3\u20034\n".encode("utf-8"))  # non-ASCII spaces
        assert np.array_equal(load_matrix(path).entries, [[1.0, 2.0], [3.0, 4.0]])

    def test_load_matrix_non_utf8_names_line(self, tmp_path):
        path = tmp_path / "latin1.txt"
        path.write_bytes(b"2\r\n1 2\r\n3 \xe9\r\n")
        with pytest.raises(MatrixParseError, match="0xe9") as info:
            load_matrix(path)
        assert info.value.line == 3


def reference_from_text(text):
    """The text parser with every value through `float()`, one token at a time."""
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


def parse_outcome(parse, text):
    """Entry bytes on success; exception type, message, line and column on failure."""
    try:
        return parse(text).entries.tobytes()
    except InvalidInputError as exc:
        return type(exc), str(exc), getattr(exc, "line", None), getattr(exc, "column", None)


_SPECIAL_VALUES = [
    0.0, -0.0, 5e-324, -2.5e-310, 2.2250738585072014e-308, 1e308, -1.7976931348623157e308,
]


@st.composite
def value_tokens(draw):
    """One finite float64 written in one of the ways a matrix file may hold it."""
    finite = st.floats(allow_nan=False, allow_infinity=False)
    x = draw(st.one_of(st.sampled_from(_SPECIAL_VALUES), finite))
    style = draw(st.sampled_from(["repr", "g17", "e", "E", "f3", "int", "plus"]))
    if style == "g17":
        return f"{x:.17g}"
    if style in ("e", "E"):
        return format(x, ".6" + style)
    if style == "f3" and abs(x) < 1e15:
        return f"{x:.3f}"
    if style == "int" and x.is_integer() and abs(x) < 1e18:
        return str(int(x))
    if style == "plus" and math.copysign(1.0, x) > 0:
        return "+" + repr(x)
    return repr(x)


@st.composite
def matrix_rows(draw):
    """C and a C x C grid of valid value tokens."""
    c = draw(st.integers(1, 6))
    rows = [[draw(value_tokens()) for _ in range(c)] for _ in range(c)]
    return c, rows


def render(c, rows, draw):
    """Matrix text: runs of spaces and tabs between tokens, padded lines,
    LF, CRLF or CR newlines and up to two trailing blank lines."""
    gap = st.text(alphabet=" \t", min_size=1, max_size=3)
    pad = st.text(alphabet=" \t", max_size=2)
    newline = draw(st.sampled_from(["\n", "\r\n", "\r"]))
    lines = [draw(pad) + str(c) + draw(pad)]
    for row in rows:
        body = ""
        for k, token in enumerate(row):
            body += (draw(gap) if k else "") + token
        lines.append(draw(pad) + body + draw(pad))
    lines += [draw(pad) for _ in range(draw(st.integers(0, 2)))]  # trailing blank lines
    return newline.join(lines) + draw(st.sampled_from(["", newline]))


_BAD_TOKENS = [
    "abc", "#", "#1", "1_0", "\u0661\u0662", "\u0663.5", "nan", "inf", "-inf", "1e400",
    "-1e400", "0x10", "1,5", "1e", "--1", "1.2.3", "\x00", "1d5",
]


@st.composite
def mutated_texts(draw):
    c, rows = draw(matrix_rows())
    r = draw(st.integers(0, c - 1))
    kind = draw(st.sampled_from(
        ["token", "missing", "extra", "blank_row", "short", "trailing", "blank_body"]
    ))
    if kind == "token":
        rows[r][draw(st.integers(0, c - 1))] = draw(st.sampled_from(_BAD_TOKENS))
    elif kind == "missing":
        del rows[r][draw(st.integers(0, c - 1))]
    elif kind == "extra":
        extra = st.one_of(value_tokens(), st.sampled_from(_BAD_TOKENS))
        rows[r].insert(draw(st.integers(0, c)), draw(extra))
    elif kind == "blank_row":
        rows[r] = []
    elif kind == "short":
        del rows[r:]
    elif kind == "trailing":
        rows.append([draw(st.sampled_from(["0", "#", "x"]))])
    else:
        rows = [[] for _ in range(c)]
    return render(c, rows, draw)


class TestTextParse:
    """The one-pass parser against the token loop it replaced."""

    @settings(max_examples=300, deadline=None)
    @given(data=st.data())
    def test_valid_text_is_bit_identical_and_one_pass(self, data):
        c, rows = data.draw(matrix_rows())
        text = render(c, rows, data.draw)
        with warnings.catch_warnings(), mock.patch.object(
            assignment, "_parse_tokens", side_effect=AssertionError("token loop used")
        ):
            warnings.simplefilter("error")
            got = matrix_from_text(text).entries.tobytes()
        assert got == parse_outcome(reference_from_text, text)

    @settings(max_examples=400, deadline=None)
    @given(text=mutated_texts())
    def test_mutated_text_fails_identically(self, text):
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            assert parse_outcome(matrix_from_text, text) == parse_outcome(
                reference_from_text, text
            )

    @pytest.mark.parametrize(
        "text",
        [
            "2\n1 2 #\n3 4\n",
            "2\n1 2 #c\n3 4\n",
            "2\n1 2\n\n3 4\n",
            "2\n1 2\n3 4\n\n \t\n",
            "2\n1 2\n3 4\nx\n",
            "1\n1_0\n",
            "2\n\u0661 2\n3\u00a04\n",
            "2\n1 nan\n3 4\n",
            "2\n1 -1e400\n3 4\n",
        ],
    )
    def test_edge_cases_match_token_loop(self, text):
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            assert parse_outcome(matrix_from_text, text) == parse_outcome(
                reference_from_text, text
            )

    @pytest.mark.parametrize("text", ["2\n\n\n", "2\n", "2\n \t\n\n", "1\n\n"])
    def test_blank_body_raises_without_warning(self, text):
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            got = parse_outcome(matrix_from_text, text)
        assert caught == []
        assert got == parse_outcome(reference_from_text, text)
        assert got[0] is MatrixParseError
