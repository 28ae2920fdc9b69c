import itertools
import json
import math
import warnings
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, settings
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
            batched = solve_batch([matrix])[0]
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
            results = [solve_hungarian(matrix), solve_batch([matrix])[0]]
        for result in results:
            assert result.permutation.tolist() == [0, 2, 1]
            assert result.total_cost == -1.1e308
            assert_optimal_to_resolution(matrix, result.permutation)

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

    def test_streaming_blocks_match_table_path(self, monkeypatch):
        # Force the block-streaming path onto small sizes and cross-check it.
        monkeypatch.setattr(assignment, "_PERM_TABLE_MAX", 2)
        monkeypatch.setattr(assignment, "_PERM_BLOCK", 7)
        rng = np.random.default_rng(21)
        for _ in range(20):
            matrix = rng.uniform(-30.0, 30.0, (5, 5))
            streamed = solve_bruteforce(matrix)
            assert abs(streamed.total_cost - solve_hungarian(matrix).total_cost) <= 1e-9
            assert streamed.iterations == 120


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

    def test_never_beats_hungarian(self):
        rng = np.random.default_rng(13)
        for _ in range(100):
            matrix = rng.uniform(-30.0, 30.0, (10, 10))
            gap = solve_sinkhorn(matrix).total_cost - solve_hungarian(matrix).total_cost
            assert gap >= -1e-9

    def test_overflow_safe_at_low_temperature(self):
        rng = np.random.default_rng(17)
        matrix = rng.uniform(-30.0, 30.0, (10, 10))
        with np.errstate(over="raise", invalid="raise"):
            result = solve_sinkhorn(matrix, SinkhornConfig(iterations=200, temperature=0.1))
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


def assert_same_as_single(matrices, results):
    assert len(results) == len(matrices)
    for matrix, got in zip(matrices, results):
        want = solve_hungarian(matrix)
        assert np.array_equal(got.permutation, want.permutation)
        assert got.total_cost == want.total_cost
        assert got.iterations == want.iterations


@st.composite
def matrix_stacks(draw):
    """(B, C, C) stacks: tie-heavy integers, rank-1 products or planted profiles."""
    c = draw(st.integers(1, 25))
    b = draw(st.integers(0, 64))
    kind = draw(st.sampled_from(["ties", "rank1", "planted"]))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    if kind == "ties":
        return rng.integers(0, 3, (b, c, c)).astype(np.float64)
    if kind == "rank1":
        return rng.uniform(-3.0, 3.0, (b, c, 1)) * rng.uniform(-3.0, 3.0, (b, 1, c))
    # As in bench.iteration_profile: a zero-diagonal template blended with noise.
    d = draw(st.floats(0.0, 1.0))
    template = np.full((c, c), 30.0)
    np.fill_diagonal(template, 0.0)
    return (1.0 - d) * template + d * rng.uniform(-30.0, 30.0, (b, c, c))


@settings(max_examples=60, deadline=None)
@given(stack=matrix_stacks())
def test_batch_equals_single(stack):
    results = solve_batch(stack)
    assert_same_as_single(stack, results)
    scipy_opt = pytest.importorskip("scipy.optimize")
    for matrix, got in zip(stack, results):
        rows, cols = scipy_opt.linear_sum_assignment(matrix)
        best = matrix[rows, cols].sum()
        assert abs(got.total_cost - best) <= 1e-9 * max(1.0, abs(best))


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
