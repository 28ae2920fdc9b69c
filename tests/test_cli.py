import json

import numpy as np
import pytest

from sepmatch import matrix_to_text, read_wav, write_wav
from sepmatch.cli import main

from conftest import sine


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
