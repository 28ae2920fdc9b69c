import json
import math
import sys

import numpy as np
import pytest

import sepmatch.bench as bench
from sepmatch import (
    BenchReport,
    EmptyInputError,
    InvalidInputError,
    export_confusion,
    iteration_profile,
    permutation_count,
    reports_to_csv,
    reports_to_jsonl,
    solve_hungarian,
    sweep_solvers,
)
from sepmatch.bench import CSV_HEADER, PROFILE_CSV_HEADER


class TestSweep:
    def test_small_sweep_has_all_solvers(self):
        reports = sweep_solvers([5], trials=3, seed=0)
        assert [r.solver for r in reports] == ["hungarian", "bruteforce", "sinkhorn"]
        brute = reports[1]
        assert brute.skipped is None
        assert brute.permutation_count == 120
        assert brute.mean_iterations == 120.0
        for r in reports:
            assert r.median_ns <= r.p95_ns
            assert r.trials == 3

    def test_bruteforce_skipped_above_guard(self):
        reports = sweep_solvers([15, 20], trials=2, seed=0)
        for c in (15, 20):
            by_solver = {r.solver: r for r in reports if r.c == c}
            brute = by_solver["bruteforce"]
            assert brute.skipped is not None and "guard" in brute.skipped
            assert brute.median_ns == 0 and brute.p95_ns == 0  # skip honesty
            assert by_solver["hungarian"].median_ns > 0
            assert by_solver["sinkhorn"].median_ns > 0

    def test_permutation_count_matches_core_op(self):
        reports = sweep_solvers([4, 12, 20], trials=2, seed=1)
        for r in reports:
            assert r.permutation_count == permutation_count(r.c)

    def test_hungarian_medians_monotone(self):
        # Sizes above the guard keep brute force out of the timing loop.
        reports = sweep_solvers([12, 24, 48], trials=100, seed=3)
        medians = [r.median_ns for r in reports if r.solver == "hungarian"]
        assert medians == sorted(medians)

    def test_hungarian_doubling_ratio_is_polynomial(self):
        # Doubling C from 10 to 20 multiplies the factorial count by ~6.7e11
        # but the polynomial solver's median by no more than 2^3 with slack.
        reports = sweep_solvers([10, 20], trials=100, seed=13, guard=9)
        medians = {r.c: r.median_ns for r in reports if r.solver == "hungarian"}
        assert medians[20] / medians[10] <= 16.0
        counts = {r.c: r.permutation_count for r in reports if r.solver == "bruteforce"}
        assert counts[20] // counts[10] == 670442572800

    def test_child_seed_per_c(self):
        # Reports for one C do not depend on which other sizes were swept.
        alone = sweep_solvers([6], trials=4, seed=9)
        paired = sweep_solvers([3, 6], trials=4, seed=9)
        assert [r.mean_iterations for r in alone] == [
            r.mean_iterations for r in paired if r.c == 6
        ]

    def test_input_validation(self):
        with pytest.raises(EmptyInputError):
            sweep_solvers([], trials=1)
        with pytest.raises(InvalidInputError):
            sweep_solvers([0], trials=1)
        with pytest.raises(InvalidInputError):
            sweep_solvers([4], trials=0)
        # Past numpy's largest array: refused before anything is allocated.
        with pytest.raises(InvalidInputError, match="trials=10{21} at C=4 "):
            sweep_solvers([4], trials=10**21)
        with pytest.raises(InvalidInputError, match="trials=1 at C=10000000000 "):
            sweep_solvers([10**10], trials=1)

    def test_factorial_past_int_str_limit_refused_before_any_solve(self, monkeypatch):
        # 1559! is the first factorial with more than 4 300 digits, the default
        # int -> str limit since Python 3.11; its report could not be printed.
        monkeypatch.setattr(sys, "get_int_max_str_digits", lambda: 4300, raising=False)
        assert bench._first_unprintable_factorial() == 1559

        def no_work(*args, **kwargs):
            raise AssertionError("a refused sweep drew or solved a matrix")

        for name in ("_random_matrices", "solve_hungarian", "solve_bruteforce", "solve_sinkhorn"):
            monkeypatch.setattr(bench, name, no_work)
        with pytest.raises(InvalidInputError, match="C=1559 "):
            sweep_solvers([4, 1559], trials=1)
        monkeypatch.setattr(sys, "get_int_max_str_digits", lambda: 0)  # 0: no limit
        assert bench._first_unprintable_factorial() == math.inf

    @pytest.mark.parametrize("guard", [0, -4])
    def test_guard_below_one_refused_before_any_draw(self, monkeypatch, guard):
        # Used to be accepted, reporting brute force as skipped above the guard.
        def no_work(*args, **kwargs):
            raise AssertionError("a refused sweep drew or solved a matrix")

        for name in ("_random_matrices", "solve_hungarian", "solve_bruteforce", "solve_sinkhorn"):
            monkeypatch.setattr(bench, name, no_work)
        with pytest.raises(InvalidInputError, match=f"guard must be >= 1, got {guard}$"):
            sweep_solvers([3], trials=2, guard=guard)


class TestIterationProfile:
    def test_zero_difficulty_needs_zero_rounds(self):
        points = iteration_profile([0.0], c=8, trials=50, seed=2)
        assert points[0].difficulty == 0.0
        assert points[0].mean_iterations == 0.0

    def test_mean_rounds_non_decreasing_in_difficulty(self):
        points = iteration_profile([0.0, 0.5, 1.0], c=8, trials=300, seed=4)
        values = [p.mean_iterations for p in points]
        assert values == sorted(values)

    def test_validation(self):
        with pytest.raises(InvalidInputError):
            iteration_profile([1.5], c=4, trials=1)
        with pytest.raises(InvalidInputError):
            iteration_profile([0.5], c=1, trials=1)
        with pytest.raises(InvalidInputError):
            iteration_profile([0.5], c=4, trials=0)
        with pytest.raises(InvalidInputError, match="trials=10{21} at C=4 "):
            iteration_profile([0.5], c=4, trials=10**21)
        with pytest.raises(InvalidInputError, match="trials=1 at C=10000000000 "):
            iteration_profile([0.5], c=10**10, trials=1)


class TestConfusionExport:
    def test_descending_matched_diagonal(self):
        rng = np.random.default_rng(6)
        matrix = rng.uniform(5.0, 30.0, (7, 7))
        np.fill_diagonal(matrix, rng.uniform(-60.0, -50.0, 7))
        export = export_confusion(matrix)
        result = solve_hungarian(matrix)
        matched = matrix[np.arange(7), result.permutation]
        diagonal = np.diag(export.matrix.entries)
        assert np.array_equal(diagonal, np.sort(matched)[::-1])

    def test_multiset_equality(self):
        rng = np.random.default_rng(7)
        matrix = rng.uniform(-30.0, 30.0, (6, 6))
        export = export_confusion(matrix)
        assert np.array_equal(
            np.sort(export.matrix.entries, axis=None), np.sort(matrix, axis=None)
        )
        rebuilt = matrix[np.ix_(export.row_order, export.col_order)]
        assert np.array_equal(export.matrix.entries, rebuilt)

    def test_constant_matrix_degenerates_gracefully(self):
        matrix = np.full((4, 4), 2.5)
        export = export_confusion(matrix)
        assert np.array_equal(
            np.sort(export.matrix.entries, axis=None), np.sort(matrix, axis=None)
        )
        pgm = export.to_pgm()
        assert pgm.startswith(b"P5\n4 4\n255\n")
        assert set(pgm[len(b"P5\n4 4\n255\n"):]) == {128}

    def test_pgm_layout(self):
        rng = np.random.default_rng(8)
        export = export_confusion(rng.uniform(-30, 30, (5, 5)))
        pgm = export.to_pgm()
        header = b"P5\n5 5\n255\n"
        assert pgm.startswith(header)
        assert len(pgm) == len(header) + 25

    def test_json_fields(self):
        export = export_confusion(np.eye(3))
        payload = json.loads(export.to_json())
        assert set(payload) == {"matrix", "row_order", "col_order"}
        assert payload["matrix"]["size"] == 3


class TestReportFormats:
    def test_csv_header_and_rows(self):
        reports = sweep_solvers([5, 12], trials=2, seed=0)
        text = reports_to_csv(reports)
        lines = text.strip().splitlines()
        assert lines[0] == CSV_HEADER
        assert len(lines) == 1 + len(reports)
        skipped_rows = [ln for ln in lines[1:] if ln.endswith("guard 11")]
        assert len(skipped_rows) == 1  # only the C=12 brute-force row

    def test_csv_header_must_fit_rows(self):
        profile = iteration_profile([0.0, 1.0], 4, 3)
        with pytest.raises(InvalidInputError, match="do not fit the 8-column header"):
            reports_to_csv(profile)
        with pytest.raises(InvalidInputError, match="do not fit the 2-column header"):
            reports_to_csv(sweep_solvers([4], trials=1), PROFILE_CSV_HEADER)
        assert reports_to_csv(profile, PROFILE_CSV_HEADER).splitlines()[0] == PROFILE_CSV_HEADER
        assert reports_to_csv([]) == CSV_HEADER + "\r\n"

    def test_jsonl_round_trip(self):
        reports = sweep_solvers([4], trials=2, seed=0)
        lines = reports_to_jsonl(reports).strip().splitlines()
        assert len(lines) == 3
        for line in lines:
            payload = json.loads(line)
            assert set(payload) == {
                "solver",
                "c",
                "trials",
                "median_ns",
                "p95_ns",
                "mean_iterations",
                "permutation_count",
                "skipped",
            }

    def test_report_invariants(self):
        with pytest.raises(InvalidInputError):
            BenchReport("hungarian", 4, 0, 0, 0, 0.0, 24)
        with pytest.raises(InvalidInputError):
            BenchReport("hungarian", 4, 1, 10, 5, 0.0, 24)
