import hashlib
import json
import os
import platform
import re
import struct
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

import sepmatch
from sepmatch import (
    AudioSignal,
    InvalidInputError,
    SeparationInstance,
    hungarian_loss,
    matrix_to_json,
    matrix_to_text,
    read_wav,
    si_sdr_improvement,
    truncate_to_min,
    write_wav,
)
from sepmatch import metrics
from sepmatch.cli import main

from conftest import LAYOUTS, encode_wav, riff_bytes, sine


@pytest.fixture
def golden_file(tmp_path, golden_matrix):
    path = tmp_path / "golden.txt"
    path.write_text(matrix_to_text(golden_matrix))
    return path


def run(capsys, argv):
    code = main([str(a) for a in argv])
    captured = capsys.readouterr()
    return code, captured.out, captured.err


class TestSolve:
    def test_hungarian_json(self, capsys, golden_file):
        code, out, err = run(capsys, ["solve", golden_file])
        assert code == 0 and err == ""
        payload = json.loads(out)
        assert payload["total_cost"] == 5.0
        assert payload["permutation"] == [1, 0, 2]

    def test_bruteforce_agrees(self, capsys, golden_file):
        code, out, _ = run(capsys, ["solve", golden_file, "--solver", "bruteforce"])
        assert code == 0
        assert json.loads(out)["total_cost"] == 5.0

    def test_sinkhorn_low_temperature(self, capsys, golden_file):
        code, out, _ = run(
            capsys, ["solve", golden_file, "--solver", "sinkhorn", "--temperature", "0.1"]
        )
        assert code == 0
        assert json.loads(out)["total_cost"] == 5.0

    def test_sinkhorn_temperature_overflow_exit_2(self, capsys, golden_file):
        code, out, err = run(
            capsys, ["solve", golden_file, "--solver", "sinkhorn", "--temperature", "1e-310"]
        )
        assert code == 2 and out == ""
        assert "temperature" in err

    def test_text_format(self, capsys, golden_file):
        code, out, _ = run(capsys, ["solve", golden_file, "--format", "text"])
        assert code == 0
        assert "total_cost: 5.0" in out

    def test_guard_violation_exit_3(self, capsys, tmp_path):
        path = tmp_path / "big.txt"
        path.write_text(matrix_to_text(np.zeros((12, 12))))
        code, out, err = run(capsys, ["solve", path, "--solver", "bruteforce"])
        assert code == 3
        assert "guard" in err and out == ""

    def test_parse_error_exit_2_names_position(self, capsys, tmp_path):
        path = tmp_path / "bad.txt"
        path.write_text("2\n1.0 oops\n3.0 4.0\n")
        code, out, err = run(capsys, ["solve", path])
        assert code == 2
        assert "line 2" in err and "column 2" in err

    def test_size_header_beyond_file_exit_2(self, capsys, tmp_path):
        path = tmp_path / "short.txt"
        path.write_text("3000000000\n1\n")
        code, out, err = run(capsys, ["solve", path])
        assert code == 2 and out == ""
        assert "line 2" in err

    def test_non_numeric_json_entries_exit_2(self, capsys, tmp_path):
        path = tmp_path / "dict.json"
        path.write_text('{"size": 1, "entries": {"a": 1}}')
        code, out, err = run(capsys, ["solve", path])
        assert code == 2 and out == ""
        assert "not numeric" in err

    def test_missing_file_exit_4(self, capsys, tmp_path):
        code, _, err = run(capsys, ["solve", tmp_path / "absent.txt"])
        assert code == 4
        assert err != ""


class TestMix:
    def test_writes_sources_mixture_manifest(self, capsys, tmp_path):
        out_dir = tmp_path / "mix"
        code, out, _ = run(
            capsys,
            ["mix", "--num-sources", 5, "--seed", 1, "--out-dir", out_dir,
             "--duration", 0.5],
        )
        assert code == 0
        manifest = json.loads(out)
        assert manifest["num_sources"] == 5
        assert len(manifest["gains"]) == 5
        assert (out_dir / "manifest.json").exists()
        for name in manifest["sources"] + [manifest["mixture"]]:
            assert (out_dir / name).exists()

    def test_deterministic_bytes(self, capsys, tmp_path):
        args = ["mix", "--num-sources", 5, "--seed", 1, "--duration", 0.5]
        dir_a, dir_b = tmp_path / "a", tmp_path / "b"
        assert run(capsys, args + ["--out-dir", dir_a])[0] == 0
        assert run(capsys, args + ["--out-dir", dir_b])[0] == 0
        for name in sorted(p.name for p in dir_a.iterdir()):
            assert (dir_a / name).read_bytes() == (dir_b / name).read_bytes()

    def test_twenty_sources_file_inventory(self, capsys, tmp_path):
        out_dir = tmp_path / "big"
        code, out, _ = run(
            capsys,
            ["mix", "--num-sources", 20, "--seed", 2, "--out-dir", out_dir,
             "--duration", 4.0, "--sample-rate", 8000],
        )
        assert code == 0
        wavs = sorted(out_dir.glob("*.wav"))
        assert len(wavs) == 21
        assert len(read_wav(wavs[0])) == 32000

    def test_manifest_gains_rebuild_mixture(self, capsys, tmp_path):
        out_dir = tmp_path / "rebuild"
        code, out, _ = run(
            capsys,
            ["mix", "--num-sources", 5, "--seed", 3, "--out-dir", out_dir,
             "--duration", 0.5],
        )
        assert code == 0
        manifest = json.loads(out)
        mixture = read_wav(out_dir / manifest["mixture"])
        rebuilt = np.zeros(len(mixture))
        for gain, name in zip(manifest["gains"], manifest["sources"]):
            rebuilt += gain * read_wav(out_dir / name).samples
        # Each WAV carries up to 1/32768 quantization error, so the rebuilt
        # sum is good to (sum |gains| + 1) LSBs.
        bound = (np.abs(manifest["gains"]).sum() + 1.0) / 32768.0
        assert np.abs(rebuilt - mixture.samples).max() <= bound

    def test_sample_rate_beyond_wav_header_exit_2(self, capsys, tmp_path):
        # 2 x rate is the WAV byte rate, a u32 field: 3 GHz used to crash write_wav.
        out_dir = tmp_path / "fast"
        code, out, err = run(
            capsys,
            ["mix", "--num-sources", 2, "--sample-rate", 3000000000, "--duration", 1e-9,
             "--out-dir", out_dir],
        )
        assert code == 2 and out == ""
        assert "sample_rate" in err
        assert not out_dir.exists()

    @pytest.mark.parametrize("duration", [1e300, 1e308])
    def test_duration_beyond_one_wav_exit_2(self, capsys, tmp_path, duration):
        # Used to die in MixSpec.num_samples (OverflowError) or in numpy's allocation.
        out_dir = tmp_path / "long"
        code, out, err = run(
            capsys, ["mix", "--num-sources", 2, "--duration", duration, "--out-dir", out_dir]
        )
        assert code == 2 and out == ""
        assert "duration * sample_rate" in err
        assert not out_dir.exists()

    @pytest.mark.parametrize(
        "args, message",
        [
            (["--num-sources", 3, "--duration", 0.0000624], "rounds to zero samples"),
            # At 8 kHz the noise source gets 1 sample, which its band filter zeroes.
            (["--num-sources", 3, "--duration", 0.000125], "rendered silent"),
            (["--num-sources", 2, "--seed", -1], "seed must be >= 0"),
            # A 6500 dB offset used to raise OverflowError in 10 ** (dB / 20).
            (["--num-sources", 3, "--duration", 0.01, "--seed", 1,
              "--snr-low=6500", "--snr-high=7000"], "snr_range"),
            # These gains used to underflow to 0, dropping sources from the mixture.
            (["--num-sources", 8, "--seed", 0, "--snr-low=6100", "--snr-high=6160"],
             "snr_range"),
        ],
    )
    def test_bad_input_exit_2(self, capsys, tmp_path, args, message):
        out_dir = tmp_path / "out"
        code, out, err = run(capsys, ["mix", *args, "--out-dir", out_dir])
        assert code == 2 and out == ""
        assert err.startswith("error: ") and message in err
        assert not out_dir.exists()


class TestEvaluate:
    @pytest.fixture
    def fixture_dir(self, capsys, tmp_path):
        out_dir = tmp_path / "inst"
        code, out, _ = run(
            capsys,
            ["mix", "--num-sources", 3, "--seed", 5, "--out-dir", out_dir,
             "--duration", 0.5],
        )
        assert code == 0
        manifest = json.loads(out)
        sources = [out_dir / name for name in manifest["sources"]]
        return sources, out_dir / manifest["mixture"]

    def test_self_evaluation(self, capsys, fixture_dir):
        sources, mixture = fixture_dir
        code, out, _ = run(
            capsys,
            ["evaluate", "--targets", *sources, "--estimates", *sources,
             "--mixture", mixture],
        )
        assert code == 0
        payload = json.loads(out)
        assert payload["permutation"] == [0, 1, 2]
        assert payload["mean_si_snr"] == 60.0
        assert all(v > 0.0 for v in payload["per_source_si_sdri"])

    def test_reversed_estimates_reverse_permutation(self, capsys, fixture_dir):
        sources, mixture = fixture_dir
        code_f, out_f, _ = run(
            capsys,
            ["evaluate", "--targets", *sources, "--estimates", *sources,
             "--mixture", mixture],
        )
        code_r, out_r, _ = run(
            capsys,
            ["evaluate", "--targets", *sources, "--estimates", *reversed(sources),
             "--mixture", mixture],
        )
        assert code_f == code_r == 0
        forward, backward = json.loads(out_f), json.loads(out_r)
        assert backward["permutation"] == [2, 1, 0]
        assert backward["per_source_si_snr"] == forward["per_source_si_snr"]
        assert backward["per_source_si_sdri"] == forward["per_source_si_sdri"]

    def test_known_noise_matches_recomputation(self, capsys, tmp_path):
        # Independent oracle: recompute SI-SNR and SI-SDRi from the float
        # arrays with separate inline code; the CLI (which sees quantized
        # WAVs) must land within 0.5 dB.
        rng = np.random.default_rng(14)
        rate, n = 8000, 4000
        targets = [sine(390, n=n), sine(1130, n=n)]
        estimates = [
            np.clip(t.samples + 0.01 * rng.standard_normal(n), -1, 1) for t in targets
        ]
        mixture = (targets[0].samples + targets[1].samples) / 2.0

        def reference_si_snr(t, e):
            t = t - t.mean()
            e = e - e.mean()
            e = e / np.sqrt(e @ e)
            proj = (e @ t) / (t @ t) * t
            resid = e - proj
            return float(
                np.clip(10 * np.log10((proj @ proj) / (resid @ resid + 1e-8)), -60, 60)
            )

        expected = [
            reference_si_snr(t.samples, e) - reference_si_snr(t.samples, mixture)
            for t, e in zip(targets, estimates)
        ]

        paths = {}
        from sepmatch import AudioSignal

        for name, samples in [
            ("t0", targets[0].samples), ("t1", targets[1].samples),
            ("e0", estimates[0]), ("e1", estimates[1]), ("mix", mixture),
        ]:
            paths[name] = tmp_path / f"{name}.wav"
            write_wav(paths[name], AudioSignal(samples, rate))

        code, out, _ = run(
            capsys,
            ["evaluate", "--targets", paths["t0"], paths["t1"],
             "--estimates", paths["e0"], paths["e1"], "--mixture", paths["mix"]],
        )
        assert code == 0
        payload = json.loads(out)
        assert payload["permutation"] == [0, 1]
        for got, want in zip(payload["per_source_si_sdri"], expected):
            assert abs(got - want) <= 0.5

    def test_count_mismatch_exit_2(self, capsys, fixture_dir):
        sources, mixture = fixture_dir
        code, _, err = run(
            capsys,
            ["evaluate", "--targets", *sources, "--estimates", *sources[:2],
             "--mixture", mixture],
        )
        assert code == 2 and "estimates" in err

    def test_sample_rate_mismatch_exit_2(self, capsys, tmp_path):
        a, b = tmp_path / "a.wav", tmp_path / "b.wav"
        m = tmp_path / "m.wav"
        write_wav(a, sine(440, n=800, rate=8000))
        write_wav(b, sine(500, n=1600, rate=16000))
        write_wav(m, sine(470, n=800, rate=8000))
        code, _, err = run(
            capsys,
            ["evaluate", "--targets", a, b, "--estimates", a, b, "--mixture", m],
        )
        assert code == 2 and "sample-rate" in err

    def test_unreadable_file_exit_4(self, capsys, tmp_path):
        a = tmp_path / "a.wav"
        write_wav(a, sine(440, n=800))
        ghost = tmp_path / "ghost.wav"
        code, _, err = run(
            capsys,
            ["evaluate", "--targets", a, ghost, "--estimates", a, a, "--mixture", a],
        )
        assert code == 4 and err != ""

    def test_zero_channel_fmt_exit_2(self, capsys, tmp_path):
        path = tmp_path / "mono0.wav"
        fmt = struct.pack("<HHIIHH", 1, 0, 8000, 16000, 2, 16)
        path.write_bytes(riff_bytes((b"fmt ", fmt), (b"data", bytes(8))))
        code, out, err = run(
            capsys, ["evaluate", "--targets", path, "--estimates", path, "--mixture", path]
        )
        assert code == 2 and out == ""
        assert "malformed fmt chunk (channels=0" in err

    def test_unequal_lengths_are_truncated(self, capsys, tmp_path):
        long_a = tmp_path / "la.wav"
        long_b = tmp_path / "lb.wav"
        short_m = tmp_path / "m.wav"
        write_wav(long_a, sine(440, n=1000))
        write_wav(long_b, sine(700, n=990))
        write_wav(short_m, sine(600, n=980))
        code, out, _ = run(
            capsys,
            ["evaluate", "--targets", long_a, long_b, "--estimates", long_a, long_b,
             "--mixture", short_m],
        )
        assert code == 0
        assert json.loads(out)["mean_si_snr"] == 60.0

    def test_mixed_lengths_score_as_pre_truncated(self, capsys, tmp_path):
        # Targets, swapped estimates of other lengths, then the shortest mixture.
        inputs = {"t0": (440, 1000), "t1": (700, 990), "e0": (700, 1003), "e1": (440, 985),
                  "m": (600, 980)}
        for name, (freq, n) in inputs.items():
            signal = sine(freq, n=n)
            write_wav(tmp_path / f"{name}.wav", signal)
            write_wav(tmp_path / f"{name}_cut.wav", AudioSignal(signal.samples[:980], 8000))

        def evaluate(suffix):
            t0, t1, e0, e1, m = (tmp_path / f"{name}{suffix}.wav" for name in inputs)
            argv = ["evaluate", "--targets", t0, t1, "--estimates", e0, e1, "--mixture", m]
            code, out, _ = run(capsys, argv)
            assert code == 0
            return out

        assert evaluate("") == evaluate("_cut")
        assert json.loads(evaluate(""))["permutation"] == [1, 0]


def library_evaluate(paths, c):
    """`evaluate`'s exit code, stdout and stderr rebuilt through the library:
    decode whole, truncate, score."""
    try:
        signals = truncate_to_min([read_wav(path) for path in paths])
        instance = SeparationInstance(tuple(signals[:c]), tuple(signals[c:-1]), signals[-1])
        loss = hungarian_loss(instance)
        improvement = si_sdr_improvement(instance, loss.permutation)
    except InvalidInputError as exc:
        return 2, "", f"error: {exc}\n"
    matched = -loss.per_pair
    return 0, json.dumps({
        "permutation": [int(j) for j in loss.permutation],
        "per_source_si_snr": [float(x) for x in matched],
        "per_source_si_sdri": [float(x) for x in improvement],
        "mean_si_snr": float(matched.mean()),
        "mean_si_sdri": float(improvement.mean()),
        "mean_loss": loss.mean_loss,
    }) + "\n", ""


BLOCK, SLAB = metrics._BLOCK, metrics._SLAB


@settings(max_examples=60, deadline=None,
          suppress_health_check=[HealthCheck.function_scoped_fixture])
@given(
    c=st.integers(2, 4),
    n=st.sampled_from([1, 9, BLOCK - 1, BLOCK + 1, SLAB - 1, SLAB + 1, 3 * SLAB + 17]),
    seed=st.integers(0, 2**32 - 1),
    layouts=st.lists(st.sampled_from(LAYOUTS), min_size=9, max_size=9),
    extra=st.lists(st.integers(0, 7), min_size=9, max_size=9),
    shortest=st.integers(0, 8),
    odd_estimate=st.sampled_from([None, "copy", "constant", "zero"]),
    full_scale=st.booleans(),
)
def test_evaluate_matches_the_library_path(capsys, tmp_path, c, n, seed, layouts, extra,
                                           shortest, odd_estimate, full_scale):
    # Inputs are 16-bit codes k, written as k / 32767 so that PCM files hold
    # k exactly (full scale reaches -32768) and float files clip past 1.
    rng = np.random.default_rng(seed)
    size = n + 7
    if full_scale:  # the exact integer mean must hold at the extreme codes too
        targets = rng.integers(-32768, 32768, (c, size))
        targets[:, ::2] = rng.choice([-32768, 32767], (c, (size + 1) // 2))
    else:
        t = np.arange(size) / 8000
        waves = [np.sin(2 * np.pi * rng.uniform(50, 3000) * t) for _ in range(c)]
        dc = rng.uniform(-0.3, 0.3, c)  # DC offsets
        targets = np.round((0.4 * np.array(waves) + dc[:, None]) * 32767)
        targets += rng.integers(-300, 301, (c, size))
    estimates = [targets[k] + rng.integers(-2000, 2001, size) for k in rng.permutation(c)]
    if odd_estimate is not None:
        j = int(rng.integers(c))
        estimates[j] = {"copy": targets[int(rng.integers(c))].copy(),
                        "constant": np.full(size, int(rng.integers(-20000, 20000))),
                        "zero": np.zeros(size)}[odd_estimate]
    mixture = np.round(targets.sum(axis=0) / c)
    codes = [np.clip(x, -32768, 32767) for x in (*targets, *estimates, mixture)]
    extra[shortest % len(codes)] = 0  # the shortest file may sit at any position
    paths = []
    for k, x in enumerate(codes):
        paths.append(tmp_path / f"{k}.wav")
        paths[-1].write_bytes(encode_wav(x[: n + extra[k]] / 32767, layouts[k]))
    argv = ["evaluate", "--targets", *paths[:c], "--estimates", *paths[c:-1],
            "--mixture", paths[-1]]
    assert run(capsys, argv) == library_evaluate(paths, c)


def nan_wav(path, n, at):
    """A float32 WAV of n samples of a sine with a NaN at sample `at`."""
    samples = 0.5 * np.sin(np.arange(n) * 0.3)
    samples[at] = np.nan
    path.write_bytes(encode_wav(samples, "plain_float32"))
    return path


@pytest.mark.parametrize("case", ["nan_then_malformed", "malformed_then_nan", "nan_in_tail",
                                  "rate_and_count", "count_and_silent_target"])
def test_first_fault_wins(capsys, tmp_path, case):
    good = [tmp_path / f"good{k}.wav" for k in range(4)]
    for k, path in enumerate(good):
        write_wav(path, sine(300 + 200 * k, n=800))
    nan = tmp_path / "nan.wav"
    junk = tmp_path / "junk.wav"
    junk.write_bytes(b"OggS" + bytes(60))
    if case == "nan_then_malformed":
        nan_wav(nan, 800, 17)
        targets, estimates = [good[0], nan], [good[1], junk]
        message = f"{nan}: signal contains non-finite samples"
    elif case == "malformed_then_nan":
        nan_wav(nan, 800, 17)
        targets, estimates = [good[0], junk], [good[1], nan]
        message = f"{junk}: malformed header (not a RIFF/WAVE file)"
    elif case == "nan_in_tail":
        # Only samples past the shortest input are NaN; the file is still refused.
        nan_wav(nan, 805, 802)
        targets, estimates = [good[0], good[1]], [nan, good[0]]
        message = f"{nan}: signal contains non-finite samples"
    elif case == "rate_and_count":
        fast = tmp_path / "fast.wav"
        write_wav(fast, sine(440, n=1600, rate=16000))
        targets, estimates = [good[0], good[1], fast], [good[1], good[0]]
        message = (f"sample-rate mismatch across inputs ({good[0]}: 8000 Hz, {good[1]}: 8000 Hz, "
                   f"{fast}: 16000 Hz, {good[1]}: 8000 Hz, {good[0]}: 8000 Hz, {good[2]}: 8000 Hz)")
    else:
        flat = tmp_path / "flat.wav"
        write_wav(flat, AudioSignal(np.full(800, 0.25), 8000))
        targets, estimates = [flat, good[0], good[1]], [good[1], good[0]]
        message = "3 targets but 2 estimates"
    argv = ["evaluate", "--targets", *targets, "--estimates", *estimates, "--mixture", good[2]]
    assert run(capsys, argv) == (2, "", f"error: {message}\n")


class TestBenchCli:
    def test_jsonl_to_stdout(self, capsys):
        code, out, _ = run(capsys, ["bench", "--c-values", "4,5", "--trials", "3"])
        assert code == 0
        lines = out.strip().splitlines()
        assert len(lines) == 6
        assert {json.loads(ln)["solver"] for ln in lines} == {
            "hungarian", "bruteforce", "sinkhorn"
        }

    def test_csv_to_out_dir(self, capsys, tmp_path):
        out_dir = tmp_path / "reports"
        code, out, _ = run(
            capsys,
            ["bench", "--c-values", "4", "--trials", "2", "--format", "csv",
             "--out-dir", out_dir],
        )
        assert code == 0 and out == ""
        text = (out_dir / "reports.csv").read_text()
        assert text.startswith("solver,c,trials,")

    def test_profile_mode(self, capsys):
        code, out, _ = run(
            capsys,
            ["bench", "--c-values", "5", "--trials", "40",
             "--profile-difficulties", "0,1"],
        )
        assert code == 0
        points = [json.loads(ln) for ln in out.strip().splitlines()]
        assert points[0] == {"difficulty": 0.0, "mean_iterations": 0.0}
        assert points[1]["mean_iterations"] >= points[0]["mean_iterations"]

    def test_profile_needs_single_c(self, capsys):
        code, _, err = run(
            capsys,
            ["bench", "--c-values", "5,6", "--trials", "2",
             "--profile-difficulties", "0,1"],
        )
        assert code == 2 and "exactly one" in err

    def test_bad_c_values_exit_2(self, capsys):
        code, _, err = run(capsys, ["bench", "--c-values", "4,x", "--trials", "2"])
        assert code == 2 and err != ""

    def test_bad_profile_difficulties_exit_2(self, capsys):
        code, _, err = run(
            capsys, ["bench", "--c-values", "5", "--profile-difficulties", "0,x"]
        )
        assert code == 2 and "0,x" in err

    @pytest.mark.parametrize("profile", [[], ["--profile-difficulties", "0,1"]])
    @pytest.mark.parametrize("c, trials", [(4, 10**21), (10**10, 1)])
    def test_stack_past_numpy_limit_exit_2(self, capsys, profile, c, trials):
        # Used to exit 1 with numpy's "Maximum allowed dimension exceeded" or
        # "array is too big". Both sizes are refused before any allocation.
        argv = ["bench", "--c-values", c, "--trials", trials, *profile]
        code, out, err = run(capsys, argv)
        assert code == 2 and out == ""
        assert f"trials={trials} at C={c} " in err

    @pytest.mark.parametrize("profile", [[], ["--profile-difficulties", "0,1"]])
    def test_negative_seed_exit_2(self, capsys, profile):
        argv = ["bench", "--c-values", 3, "--trials", 2, "--seed", -1, *profile]
        code, out, err = run(capsys, argv)
        assert code == 2 and out == ""
        assert "seed must be >= 0, got -1" in err

    def test_factorial_past_int_str_limit_exit_2(self, capsys, monkeypatch):
        # Used to solve for seconds, then exit 1 printing the 1559! count.
        monkeypatch.setattr(sys, "get_int_max_str_digits", lambda: 4300, raising=False)
        code, out, err = run(capsys, ["bench", "--c-values", 1559, "--trials", 1])
        assert code == 2 and out == ""
        assert "C=1559 " in err


class TestConfusionCli:
    def test_stdout_json_and_out_dir(self, capsys, tmp_path, golden_matrix):
        matrix_file = tmp_path / "m.txt"
        matrix_file.write_text(matrix_to_text(golden_matrix))
        out_dir = tmp_path / "conf"
        code, out, _ = run(capsys, ["confusion", matrix_file, "--out-dir", out_dir])
        assert code == 0
        payload = json.loads(out)
        assert payload["matrix"]["size"] == 3
        pgm = (out_dir / "confusion.pgm").read_bytes()
        assert pgm.startswith(b"P5\n3 3\n255\n")
        assert json.loads((out_dir / "confusion.json").read_text())["matrix"]["size"] == 3


@pytest.mark.parametrize("subcommand", ["solve", "confusion"])
def test_non_utf8_matrix_exit_2_names_line(capsys, tmp_path, subcommand):
    path = tmp_path / "latin1.txt"
    path.write_bytes(b"2\n1 2\n3 \xff\n")
    code, out, err = run(capsys, [subcommand, path])
    assert code == 2 and out == ""
    assert "not UTF-8" in err and "line 3" in err


@pytest.mark.parametrize("subcommand", ["solve", "confusion"])
def test_deeply_nested_json_exit_2(capsys, tmp_path, subcommand):
    # json.loads used to escape as a RecursionError traceback.
    path = tmp_path / "deep.json"
    path.write_text('{"size": 1, "entries": ' + "[" * 10_000)
    code, out, err = run(capsys, [subcommand, path])
    assert code == 2 and out == ""
    assert "nest too deeply" in err


@st.composite
def mutated_matrix_files(draw):
    """A valid text or JSON matrix file of C <= 4 with one to four bytes edited."""
    c = draw(st.integers(1, 4))
    entries = draw(st.lists(st.floats(-1e3, 1e3), min_size=c * c, max_size=c * c))
    encode = draw(st.sampled_from([matrix_to_text, matrix_to_json]))
    data = bytearray(encode(np.reshape(entries, (c, c))).encode())
    kinds = st.sampled_from(["set", "insert", "delete"])
    edits = st.tuples(kinds, st.integers(0), st.integers(0, 255))
    for kind, at, byte in draw(st.lists(edits, min_size=1, max_size=4)):
        at %= len(data) + (kind == "insert")
        if kind == "set":
            data[at] = byte
        elif kind == "insert":
            data.insert(at, byte)
        elif len(data) > 1:
            del data[at]
    return bytes(data)


@settings(max_examples=500, deadline=None,
          suppress_health_check=[HealthCheck.function_scoped_fixture])
@given(data=mutated_matrix_files())
def test_mutated_matrix_file_exits_with_documented_code(capsys, tmp_path, data):
    path = tmp_path / "fuzz.txt"
    path.write_bytes(data)
    for subcommand in ("solve", "confusion"):
        code, out, err = run(capsys, [subcommand, path])
        assert code in (0, 2, 3, 4), (subcommand, data)
        if code == 0:
            json.loads(out)
        else:
            assert out == "" and err.startswith("error: "), (subcommand, data)


def test_parser_reuse_leaks_nothing(capsys, monkeypatch, tmp_path, golden_file):
    # One process parses every command with the same cached parser; each
    # output must equal that of the command run alone in a fresh process.
    monkeypatch.setenv("COLUMNS", "80")  # argparse wraps usage to the terminal
    wavs = [tmp_path / f"{k}.wav" for k in range(3)]
    for path, freq in zip(wavs, (440, 1300, 870)):
        write_wav(path, sine(freq, n=800))
    commands = [
        ["solve", golden_file, "--format", "text"],
        ["solve", golden_file],
        ["solve", golden_file, "--solver", "simplex"],
        ["evaluate", "--targets", *wavs[:2], "--estimates", *wavs[1::-1], "--mixture", wavs[2]],
        ["mix", "--num-sources", 3, "--duration", 0.25, "--out-dir", tmp_path / "mix"],
    ]
    env = {**os.environ, "PYTHONPATH": str(Path(sepmatch.__file__).parents[1])}

    def untimed(text):
        return re.sub(r'(elapsed_ns"?: )\d+', r"\1-", text)

    for argv in commands:
        try:
            together = run(capsys, argv)
        except SystemExit as exc:
            together = (exc.code, *capsys.readouterr())
        alone = subprocess.run(
            [sys.executable, "-m", "sepmatch.cli", *map(str, argv)],
            capture_output=True, text=True, env=env, check=False,
        )
        assert together[0] == alone.returncode, argv
        assert untimed(together[1]) == untimed(alone.stdout), argv
        assert together[2] == alone.stderr, argv
    assert together[0] == 0 and json.loads(together[1])["num_sources"] == 3


FAULTS_PER_COMMAND = """
import contextlib, io, json, resource, sys
from sepmatch.cli import main

def faults(argv):
    before = resource.getrusage(resource.RUSAGE_SELF).ru_minflt
    with contextlib.redirect_stdout(io.StringIO()):
        assert main(argv) == 0
    return resource.getrusage(resource.RUSAGE_SELF).ru_minflt - before

commands = json.loads(sys.argv[1])
for argv in commands:
    faults(argv)
print(json.dumps([faults(argv) for _ in range(3) for argv in commands]))
"""


@pytest.mark.skipif(
    not sys.platform.startswith("linux") or platform.libc_ver()[0] != "glibc",
    reason="pins glibc's malloc thresholds",
)
def test_repeated_evaluate_reuses_its_pages(tmp_path):
    # At glibc's sliding thresholds a fresh process handed a C = 20 op's
    # 256 KB signals back after each call and faulted them in on the next.
    rng = np.random.default_rng(3)
    commands = []
    for c in (20, 2):
        paths = []
        for k in range(2 * c + 1):
            paths.append(str(tmp_path / f"c{c}_{k:02d}.wav"))
            write_wav(paths[-1], AudioSignal(0.3 * rng.standard_normal(32000), 8000))
        commands.append(["evaluate", "--targets", *paths[:c], "--estimates", *paths[c:-1],
                         "--mixture", paths[-1]])
    env = {**os.environ, "PYTHONPATH": str(Path(sepmatch.__file__).parents[1])}
    done = subprocess.run(
        [sys.executable, "-c", FAULTS_PER_COMMAND, json.dumps(commands)],
        capture_output=True, text=True, env=env, check=True,
    )
    assert max(json.loads(done.stdout)) < 64  # one C = 20 op holds ~2 600 pages


def evaluate_corpus(out_dir, c, seed, silent_target=False):
    """`evaluate` argv over a seeded C-source corpus written in mixed layouts.

    Lengths differ by up to 7 samples. The last target is near-silent (a DC
    offset plus 1-LSB dither), or constant with `silent_target`; the first
    estimate is constant and scores the clamp floor.
    """
    rng = np.random.default_rng(seed)
    n = 2000 + 8
    t = np.arange(n) / 8000
    targets = [
        0.3 * np.sin(2 * np.pi * rng.uniform(100, 3000) * t + rng.uniform(0, 6.3))
        + 0.05 * rng.standard_normal(n)
        for _ in range(c)
    ]
    targets[-1] = np.full(n, 0.5) if silent_target else 0.5 + rng.integers(-1, 2, n) / 32767
    estimates = [targets[k] + rng.uniform(0.01, 0.3) * rng.standard_normal(n)
                 for k in rng.permutation(c)]
    estimates[0] = np.full(n, 0.25)
    out_dir.mkdir()
    paths = []
    for k, samples in enumerate([*targets, *estimates, sum(targets) / c]):
        path = out_dir / f"{k:02d}.wav"
        cut = np.clip(samples[: n - int(rng.integers(0, 8))], -1.0, 1.0)
        path.write_bytes(encode_wav(cut, LAYOUTS[(k + seed) % len(LAYOUTS)]))
        paths.append(path)
    return ["evaluate", "--targets", *paths[:c], "--estimates", *paths[c:-1],
            "--mixture", paths[-1]]


def evaluate_digests(tmp_path, capsys):
    """sha256 of each corpus's exit code, stdout and stderr."""
    cases = {"c2": (2, 81, False), "c5": (5, 82, False), "c20": (20, 83, False),
             "silent_target": (2, 84, True)}
    digests = {}
    for name, (c, seed, silent) in cases.items():
        code, out, err = run(capsys, evaluate_corpus(tmp_path / name, c, seed, silent))
        digests[name] = hashlib.sha256(f"{code}\n{out}\n{err}".encode()).hexdigest()
    return digests


def mix_digests(tmp_path, capsys):
    """sha256 of each `mix` run's stdout and every file it writes, by name."""
    cases = {"c2": [2, "--seed", 7],
             "c5": [5, "--seed", 8, "--sample-rate", 16000, "--duration", 0.37,
                    "--snr-low", -5, "--snr-high", 10],
             "c20": [20, "--seed", 9]}
    digests = {}
    for name, args in cases.items():
        out_dir = tmp_path / name
        code, out, _ = run(capsys, ["mix", "--num-sources", *args, "--out-dir", out_dir])
        digest = hashlib.sha256(f"{code}\n{out}".encode())
        for path in sorted(out_dir.iterdir()):
            digest.update(path.name.encode() + b"\0" + path.read_bytes())
        digests[name] = digest.hexdigest()
    return digests


def untimed_bench(text):
    """`bench` output with `median_ns` and `p95_ns` masked, in JSONL and in CSV."""
    text = re.sub(r'("(?:median|p95)_ns": )\d+', r"\1-", text)
    return re.sub(r"^((?:[^,\r\n]*,){3})\d+,\d+,", r"\1-,-,", text, flags=re.M)


def bench_digests(tmp_path, capsys):
    """sha256 of each `bench` mode's exit code, stderr, stdout and report file."""
    modes = {"profile": ["--c-values", 5, "--trials", 40, "--profile-difficulties", "0,0.5,1"],
             "sweep": ["--c-values", "4,12", "--trials", 3]}
    digests = {}
    for mode, args in modes.items():
        for fmt in ("json", "csv"):
            argv = ["bench", *args, "--format", fmt]
            out_dir = tmp_path / f"{mode}_{fmt}"
            digest = hashlib.sha256()
            for code, out, err in (run(capsys, argv), run(capsys, [*argv, "--out-dir", out_dir])):
                digest.update(f"{code}\n{err}\n{untimed_bench(out)}\0".encode())
            (path,) = out_dir.iterdir()
            digest.update(path.name.encode() + b"\0")
            digest.update(untimed_bench(path.read_bytes().decode()).encode())
            digests[f"{mode}_{fmt}"] = digest.hexdigest()
    return digests


class TestGoldenBytes:
    # Recorded by running the code before WAV chunks were read as views and
    # before silent rows were ruled out by a peak bound. Scores and mixtures
    # pass through BLAS, so another BLAS kernel or CPU may round their last
    # bits differently; there, record them again from the commit that added them.
    # The bench digests were recorded by running the code before `sepmatch.bench`
    # had one report path; they mask the timings, which vary run to run.

    def test_evaluate_stdout(self, capsys, tmp_path):
        assert evaluate_digests(tmp_path, capsys) == EVALUATE_DIGESTS

    def test_mix_files(self, capsys, tmp_path):
        assert mix_digests(tmp_path, capsys) == MIX_DIGESTS

    def test_bench_reports(self, capsys, tmp_path):
        assert bench_digests(tmp_path, capsys) == BENCH_DIGESTS


EVALUATE_DIGESTS = {
    "c2": "ed5f73f0128f24fd490fa982a5e379fd30bbe7039ab704242e9cbdadbd7658f7",
    "c5": "c5d2ed3fbef52f069d80a1dd94334066cd27090327e8587dbc7edbd0b41a39cb",
    "c20": "f332beb27d16169f8d2847179f39d1b4cfc132c13959863a9c19ad5cbc877cfe",
    "silent_target": "1c274cc66bac1407814242abf98abbe7b425773a938b5197ae906846453b9041",
}
MIX_DIGESTS = {
    "c2": "204248ee7834d0aefef29ededa7c653fcc7c1e50797be1f844e7888ab0010bfc",
    "c5": "6d84bda3cf184aa9578595fb4406ba115beb2a56b3998025da2dd84d9f4d3b2d",
    "c20": "4254be008f696fcabbd7d56a942db005e78207a09f2ccec9c00707651524159e",
}
BENCH_DIGESTS = {
    "profile_json": "b7b0cdb82551eda3f0c75e0b4057e60886852d2089207a8c72334ac44e5816a8",
    "profile_csv": "8430ce751440c34a013b8a47e4b3c837777947d045ec0f4c6436648101e70ded",
    "sweep_json": "4ff258d785bcefb51e8e084570f063b2be1c5dd92e746c785a01460f6757da8b",
    "sweep_csv": "72b716286d8e0f32c82809ca5962371c04d64cd06f477c1e2b1b3bbf5eed245f",
}
