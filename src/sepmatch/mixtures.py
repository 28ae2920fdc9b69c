"""Deterministic synthetic sources and SNR-controlled mixing.

Everything here is seed-driven: a (spec, seed) pair reproduces every sample
bit for bit, so separation metrics can be tested end to end without any
speech corpus.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from .errors import InvalidInputError
from .wavio import MAX_WAV_SAMPLES, MAX_WRITE_RATE, AudioSignal, read_wav
from .wavio import _check_aligned, _sample_rate

#: Generated sources are peak-normalized to this amplitude.
PEAK_AMPLITUDE = 0.9


@dataclass(frozen=True)
class SourceKind:
    """One source flavor: three synthetic families or a file-backed signal."""

    variant: str
    path: Path | None = None

    SINE_BUNDLE = "sine_bundle"
    CHIRP = "chirp"
    NOISE = "noise"
    FILE = "file"

    def __post_init__(self) -> None:
        known = (self.SINE_BUNDLE, self.CHIRP, self.NOISE, self.FILE)
        if self.variant not in known:
            raise InvalidInputError(f"unknown source kind {self.variant!r}")
        if self.variant == self.FILE and self.path is None:
            raise InvalidInputError("file-backed source kind needs a path")

    @classmethod
    def sine_bundle(cls) -> "SourceKind":
        return cls(cls.SINE_BUNDLE)

    @classmethod
    def chirp(cls) -> "SourceKind":
        return cls(cls.CHIRP)

    @classmethod
    def noise(cls) -> "SourceKind":
        return cls(cls.NOISE)

    @classmethod
    def from_file(cls, path) -> "SourceKind":
        return cls(cls.FILE, Path(path))


#: Default rotation used when callers do not care which synthetic kinds mix.
SYNTHETIC_KINDS = (
    SourceKind(SourceKind.SINE_BUNDLE),
    SourceKind(SourceKind.CHIRP),
    SourceKind(SourceKind.NOISE),
)


def _snr_range(value) -> tuple[float, float]:
    """`value` as a finite (low, high) pair of floats with low <= high."""
    low, high = float(value[0]), float(value[1])
    if not (math.isfinite(low) and math.isfinite(high) and low <= high):
        raise InvalidInputError(f"bad snr_range: {value}")
    return low, high


def _seeded_rng(seed: int, spawn_key: tuple[int, ...] = ()) -> np.random.Generator:
    """Generator for child stream `spawn_key` of `seed`; the empty key is `default_rng(seed)`."""
    if seed < 0:
        raise InvalidInputError(f"seed must be >= 0, got {seed}")
    return np.random.default_rng(np.random.SeedSequence(seed, spawn_key=spawn_key))


@dataclass(frozen=True)
class MixSpec:
    """Recipe for one synthetic instance: C sources at a rate, duration, SNR spread.

    Each source must fit one 16-bit mono WAV: `sample_rate` up to
    `wavio.MAX_WRITE_RATE` and `duration * sample_rate` up to
    `wavio.MAX_WAV_SAMPLES`.
    """

    num_sources: int
    sample_rate: int = 8000
    duration: float = 4.0
    snr_range: tuple[float, float] = (0.0, 5.0)
    seed: int = 0

    def __post_init__(self) -> None:
        if self.num_sources < 2:
            raise InvalidInputError(f"num_sources must be >= 2, got {self.num_sources}")
        object.__setattr__(self, "sample_rate", _sample_rate(self.sample_rate))
        if self.sample_rate > MAX_WRITE_RATE:
            raise InvalidInputError(
                f"sample_rate must be at most {MAX_WRITE_RATE} Hz, got {self.sample_rate}"
            )
        if not (math.isfinite(self.duration) and self.duration > 0):
            raise InvalidInputError(f"duration must be positive, got {self.duration}")
        if self.duration * self.sample_rate > MAX_WAV_SAMPLES:
            raise InvalidInputError(
                f"duration * sample_rate must be at most {MAX_WAV_SAMPLES} samples "
                f"(one 16-bit WAV), got {self.duration * self.sample_rate:g}"
            )
        object.__setattr__(self, "snr_range", _snr_range(self.snr_range))
        if self.num_samples < 1:
            raise InvalidInputError("duration * sample_rate rounds to zero samples")

    @property
    def num_samples(self) -> int:
        return int(round(self.duration * self.sample_rate))


def generate_sources(spec: MixSpec, kinds) -> list[AudioSignal]:
    """Render the spec's sources, each peak-normalized to 0.9.

    Source i draws from its own child stream of spec.seed, so one (seed,
    index) pair always reproduces the same samples and different indices
    stay decorrelated (pairwise normalized cross-correlation below 0.5 for
    the synthetic kinds).

    The returned signals are the rows, in order, of one (C, samples) block;
    holding any one of them keeps the whole block alive.
    """
    kinds = list(kinds)
    if len(kinds) != spec.num_sources:
        raise InvalidInputError(
            f"got {len(kinds)} kinds for {spec.num_sources} sources"
        )
    block = np.empty((spec.num_sources, spec.num_samples))
    for index, (kind, row) in enumerate(zip(kinds, block)):
        samples = _render_source(
            kind, spec.num_samples, spec.sample_rate, _seeded_rng(spec.seed, (index,))
        )
        peak = float(np.abs(samples).max())
        if peak == 0.0:
            raise InvalidInputError(f"source {index} ({kind.variant}) rendered silent")
        np.multiply(samples, PEAK_AMPLITUDE / peak, out=row)
    return [AudioSignal(row, spec.sample_rate) for row in block]


def _render_source(kind: SourceKind, num_samples: int, sample_rate: int, rng) -> np.ndarray:
    t = np.arange(num_samples) / sample_rate
    if kind.variant == SourceKind.SINE_BUNDLE:
        # Fundamental placed so the third harmonic stays under 0.45 * rate.
        f0 = rng.uniform(sample_rate / 80.0, sample_rate * 0.15)
        amplitudes = rng.uniform(0.3, 1.0, size=3)
        phases = rng.uniform(0.0, 2.0 * np.pi, size=3)
        x = np.zeros(num_samples)
        for harmonic in (1, 2, 3):
            x += amplitudes[harmonic - 1] * np.sin(
                2.0 * np.pi * harmonic * f0 * t + phases[harmonic - 1]
            )
        return x
    if kind.variant == SourceKind.CHIRP:
        f_lo = rng.uniform(0.02, 0.10) * sample_rate
        f_hi = rng.uniform(0.20, 0.45) * sample_rate
        phase = rng.uniform(0.0, 2.0 * np.pi)
        span = num_samples / sample_rate
        return np.sin(2.0 * np.pi * (f_lo * t + (f_hi - f_lo) * t * t / (2.0 * span)) + phase)
    if kind.variant == SourceKind.NOISE:
        white = rng.standard_normal(num_samples)
        spectrum = np.fft.rfft(white)
        freqs = np.fft.rfftfreq(num_samples, 1.0 / sample_rate)
        band_lo = rng.uniform(0.02, 0.15) * sample_rate
        band_hi = rng.uniform(0.25, 0.45) * sample_rate
        spectrum[(freqs < band_lo) | (freqs > band_hi)] = 0.0
        return np.fft.irfft(spectrum, n=num_samples)
    # file-backed
    signal = read_wav(kind.path)
    if signal.sample_rate != sample_rate:
        raise InvalidInputError(
            f"{kind.path}: sample rate {signal.sample_rate} does not match spec {sample_rate}"
        )
    if len(signal) < num_samples:
        raise InvalidInputError(
            f"{kind.path}: {len(signal)} samples is shorter than the requested {num_samples}"
        )
    return signal.samples[:num_samples]


def mix(sources, snr_range=(0.0, 5.0), seed: int = 0) -> tuple[AudioSignal, np.ndarray]:
    """Sum gain-scaled sources into one mixture.

    Source 0 anchors the reference gain of 1. Every later source gets a dB
    offset drawn uniformly from snr_range with a uniformly random sign,
    applied to its energy relative to source 0 (so sources can come out
    louder or quieter than the anchor). If the raw sum leaves [-1, 1] the
    whole mix is rescaled and the reported gains absorb the factor; either
    way gains[i] * sources[i], added in index order, rebuilds the returned
    mixture exactly, on any CPU. An snr_range so wide that a rescaled gain
    leaves float64 (inf, or 0 so a source drops out) or the mixture
    overflows raises InvalidInputError, as does a source whose energy is
    zero or overflows float64.

    Returns (mixture, gains).
    """
    sources = list(sources)
    _check_aligned(sources)
    low, high = _snr_range(snr_range)
    rows = [s.samples for s in sources]
    with np.errstate(over="ignore"):  # checked below, by source
        # einsum sums a strided row in another order, so it sums a contiguous copy.
        energies = [np.einsum("i,i->", row, row) for row in map(np.ascontiguousarray, rows)]
    for index, energy in enumerate(energies):
        if energy == 0.0:
            raise InvalidInputError(f"source {index} has zero energy")
        if energy == math.inf:
            raise InvalidInputError(f"source {index} has an energy that overflows float64")
    rng = _seeded_rng(seed)
    gains = np.ones(len(sources))
    for i in range(1, len(sources)):
        offset_db = rng.uniform(low, high)
        if rng.random() < 0.5:
            offset_db = -offset_db
        try:
            level = 10.0 ** (offset_db / 20.0)
        except OverflowError:
            level = math.inf  # refused below
        # Energy of gains[i] * source_i relative to source 0, in dB.
        gains[i] = math.sqrt(energies[0] / energies[i]) * level
    with np.errstate(over="ignore", invalid="ignore"):  # checked below, by name
        mixture = _weighted_sum(gains, rows)
        peak = float(np.abs(mixture).max())  # inf or nan if the mixture is not finite
        if peak > 1.0:
            gains = gains / peak
            mixture = _weighted_sum(gains, rows)  # recomputed so the reported gains rebuild it
    if not (math.isfinite(peak) and np.isfinite(gains).all() and gains.all()):
        raise InvalidInputError(
            f"snr_range ({low:g}, {high:g}) dB is too wide for float64: gains "
            f"{gains.tolist()} after peak rescaling, each must be finite and non-zero"
        )
    return AudioSignal(mixture, sources[0].sample_rate), gains


def _weighted_sum(gains: np.ndarray, rows: list[np.ndarray]) -> np.ndarray:
    """`gains[0] * rows[0] + gains[1] * rows[1] + ...`, added elementwise in index order.

    The order is fixed and no BLAS kernel takes part, so the bytes do not
    depend on the CPU, and a caller summing `g * row` the same way gets them
    exactly.
    """
    out = np.multiply(rows[0], gains[0])
    term = np.empty_like(out)
    for gain, row in zip(gains[1:], rows[1:]):
        out += np.multiply(row, gain, out=term)
    return out


def truncate_to_min(signals) -> list[AudioSignal]:
    """Trim every signal to the shortest length, keeping the leading samples.

    A signal that is already the shortest length is returned as it is.
    """
    signals = list(signals)
    shortest = min(map(len, signals), default=0)
    cut = [
        s if len(s) == shortest else AudioSignal(s.samples[:shortest], s.sample_rate)
        for s in signals
    ]
    _check_aligned(cut)
    return cut
