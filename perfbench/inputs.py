"""Seeded benchmark inputs: audio corpora, WAV files and cost matrices.

Nothing here calls sepmatch. The benchmark makes its inputs with its own
generator and its own WAV writer, so a change to the package cannot change
what the package is measured on, and the expected outputs come from an
independent reference.
"""

from __future__ import annotations

import struct
from dataclasses import dataclass
from pathlib import Path

import numpy as np

RATE = 8000
NUM_SAMPLES = 4 * RATE  # 4 s at 8 kHz

# SI-SNR definition shared with the package (Le Roux et al., ICASSP 2019):
# clamp in dB and residual-power floor.
CLAMP_DB = 60.0
EPS = 1e-8

# Planted-template matrices, as in sepmatch.bench.iteration_profile.
ENTRY_RANGE = (-30.0, 30.0)
TEMPLATE_MARGIN = 30.0

_PCM, _IEEE_FLOAT = 1, 3


def wav_bytes(samples: np.ndarray, float32: bool) -> bytes:
    """Mono WAV at RATE: 32-bit IEEE float, or 16-bit PCM of an exact grid."""
    if float32:
        payload = samples.astype("<f4").tobytes()
        audio_format, bits = _IEEE_FLOAT, 32
    else:
        payload = np.round(samples * 32768.0).astype("<i2").tobytes()
        audio_format, bits = _PCM, 16
    width = bits // 8
    header = struct.pack(
        "<4sI4s4sIHHIIHH4sI",
        b"RIFF", 36 + len(payload), b"WAVE",
        b"fmt ", 16, audio_format, 1, RATE, RATE * width, width, bits,
        b"data", len(payload),
    )
    return header + payload


def decoded(samples: np.ndarray, float32: bool) -> np.ndarray:
    """The float64 samples a reader recovers from wav_bytes(samples, float32)."""
    if float32:
        return samples.astype(np.float32).astype(np.float64)
    return np.round(samples * 32768.0) / 32768.0


def _source(rng: np.random.Generator, kind: int) -> np.ndarray:
    t = np.arange(NUM_SAMPLES) / RATE
    if kind == 0:  # harmonic bundle, slowly amplitude-modulated
        f0 = rng.uniform(80.0, 900.0)
        x = sum(
            rng.uniform(0.3, 1.0) * np.sin(2 * np.pi * h * f0 * t + rng.uniform(0, 2 * np.pi))
            for h in (1, 2, 3)
        )
        return x * (1.0 + 0.5 * np.sin(2 * np.pi * rng.uniform(0.5, 3.0) * t))
    if kind == 1:  # linear chirp
        f_lo, f_hi = rng.uniform(100.0, 800.0), rng.uniform(1600.0, 3600.0)
        return np.sin(2 * np.pi * (f_lo * t + (f_hi - f_lo) * t * t / (2 * t[-1])))
    spectrum = np.fft.rfft(rng.standard_normal(NUM_SAMPLES))  # band-limited noise
    freqs = np.fft.rfftfreq(NUM_SAMPLES, 1.0 / RATE)
    spectrum[(freqs < rng.uniform(100.0, 1000.0)) | (freqs > rng.uniform(2000.0, 3600.0))] = 0
    return np.fft.irfft(spectrum, n=NUM_SAMPLES)


def _peak(x: np.ndarray, peak: float) -> np.ndarray:
    return x * (peak / np.abs(x).max())


def _dot(a: np.ndarray, b: np.ndarray) -> float:
    # einsum keeps these products off BLAS: on a 2-vCPU virtual machine a
    # threaded BLAS dot of 32000 samples was seen to take ~8 ms instead of
    # ~10 us, which would swamp set-up time.
    return float(np.einsum("i,i->", a, b))


def si_snr(target: np.ndarray, estimate: np.ndarray) -> float:
    """Reference SI-SNR in dB, written from the definition the package documents."""
    t = target - target.mean()
    e = estimate - estimate.mean()
    e = e / np.sqrt(_dot(e, e))
    projection = _dot(e, t) / _dot(t, t) * t
    residual = e - projection
    value = 10.0 * np.log10(_dot(projection, projection) / (_dot(residual, residual) + EPS))
    return float(np.clip(value, -CLAMP_DB, CLAMP_DB))


@dataclass(frozen=True)
class EvalInstance:
    """One evaluate input on disk plus the output a correct scorer gives."""

    targets: tuple[str, ...]
    estimates: tuple[str, ...]
    mixture: str
    permutation: tuple[int, ...]  # for target i, the estimate that holds it
    si_snr: tuple[float, ...]
    si_sdri: tuple[float, ...]


def write_eval_instance(rng: np.random.Generator, size: int, out_dir: Path) -> EvalInstance:
    """C targets, their mixture, and C estimates in a planted random order.

    Estimate j holds target planted[j] with a random gain, leakage from one
    other target and white noise (5 to 25 dB below it). Half the estimates
    are 32-bit float WAVs, the rest 16-bit PCM, and about a quarter carry
    1 to 7 trailing samples that the scorer truncates away.
    """
    out_dir.mkdir(parents=True, exist_ok=True)
    targets = [decoded(_peak(_source(rng, i % 3), 0.5), False) for i in range(size)]
    mixture = decoded(_peak(sum(targets), 0.9), False)
    planted = rng.permutation(size)
    as_float = set(rng.permutation(size)[: size // 2].tolist())
    estimates = []
    for j, held in enumerate(planted):
        other = (held + rng.integers(1, size)) % size
        x = targets[held] + rng.uniform(0.05, 0.3) * targets[other]
        noise = rng.standard_normal(NUM_SAMPLES)
        noise *= np.sqrt(_dot(x, x) / _dot(noise, noise)) * 10 ** (-rng.uniform(5.0, 25.0) / 20)
        x = _peak(x + noise, rng.uniform(0.3, 0.95))
        if rng.random() < 0.25:
            x = np.concatenate([x, rng.uniform(-0.1, 0.1, size=int(rng.integers(1, 8)))])
        estimates.append(decoded(x, j in as_float))
    names = {
        "targets": [out_dir / f"target_{i:02d}.wav" for i in range(size)],
        "estimates": [out_dir / f"estimate_{j:02d}.wav" for j in range(size)],
    }
    for path, x in zip(names["targets"], targets):
        path.write_bytes(wav_bytes(x, False))
    for j, (path, x) in enumerate(zip(names["estimates"], estimates)):
        path.write_bytes(wav_bytes(x, j in as_float))
    (out_dir / "mixture.wav").write_bytes(wav_bytes(mixture, False))
    permutation = np.argsort(planted)
    matched = [si_snr(targets[i], estimates[j][:NUM_SAMPLES]) for i, j in enumerate(permutation)]
    baseline = [si_snr(t, mixture) for t in targets]
    return EvalInstance(
        targets=tuple(str(p) for p in names["targets"]),
        estimates=tuple(str(p) for p in names["estimates"]),
        mixture=str(out_dir / "mixture.wav"),
        permutation=tuple(int(j) for j in permutation),
        si_snr=tuple(matched),
        si_sdri=tuple(m - b for m, b in zip(matched, baseline)),
    )


def planted_matrices(rng: np.random.Generator, size: int, difficulties) -> np.ndarray:
    """One matrix per difficulty d: (1 - d) * template + d * uniform noise.

    The template has 0 on the diagonal and TEMPLATE_MARGIN elsewhere, the
    mix that sepmatch.bench.iteration_profile uses; columns are then
    shuffled so the optimum is not the identity.
    """
    template = np.full((size, size), TEMPLATE_MARGIN)
    np.fill_diagonal(template, 0.0)
    out = np.empty((len(difficulties), size, size))
    for k, d in enumerate(difficulties):
        noise = rng.uniform(*ENTRY_RANGE, size=(size, size))
        out[k] = ((1.0 - d) * template + d * noise)[:, rng.permutation(size)]
    return out


def matrix_text(matrix: np.ndarray) -> str:
    """The plain-text matrix format: C on the first line, then C rows."""
    rows = (" ".join(repr(float(x)) for x in row) for row in matrix)
    return f"{matrix.shape[0]}\n" + "\n".join(rows) + "\n"
