"""Scale-invariant separation metrics and permutation-matched losses.

The pairwise matching loss of a C-source instance is built in two steps:
`pairwise_cost_matrix` scores every (target, estimate) pair with negative
SI-SNR, then either the polynomial solver (`hungarian_loss`) or exhaustive
enumeration (`pit_loss`) picks the permutation minimizing the mean loss.

Every score comes from one kernel: a pass for the means, then one Gram
pass that decodes and centres the signals slab by slab and multiplies them
in blocks of `_BLOCK` samples. Its float64 data lives in one (signals x
_SLAB) buffer plus one row scratch, not in C x samples; only a rare
near-silent or near-perfect pair decodes a whole row again. The rows are
float64 signals (`SeparationInstance`, `si_snr`) or stored encodings decoded
on the fly (`EncodedInstance`, e.g. WAV frames), with the same scores and
errors. An instance is scored once, its mixture an extra estimate column;
`si_snr` is the 1x1 case.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import cached_property
from typing import Callable

import numpy as np

from .assignment import CostMatrix, solve_bruteforce, solve_hungarian
from .errors import EmptyInputError, InvalidInputError

#: SI-SNR outputs are clamped to +/- this many dB so cost matrices stay finite.
SI_SNR_CLAMP_DB = 60.0

#: Residual-power floor guarding the zero-error (perfect match) case.
SI_SNR_EPS = 1e-8

#: Samples per block of the scoring kernel's Gram products.
_BLOCK = 2048

#: Samples per slab the kernel decodes and centres at once: a few blocks, so
#: that one Python step serves several products and the buffer stays in cache.
_SLAB = 4 * _BLOCK

#: Residuals below this (SI-SNR above ~30 dB) are measured from the samples: 1 - p cancels.
_RESIDUAL_RECHECK = 1e-3


def _samples(values) -> np.ndarray:
    """`values` as a float64 array, checked 1-D, non-empty and finite."""
    samples = np.asarray(values, dtype=np.float64)
    if samples.ndim != 1:
        raise InvalidInputError(f"samples must be 1-D, got shape {samples.shape}")
    if samples.size < 1:
        raise EmptyInputError("signal has no samples")
    if not np.isfinite(samples).all():
        raise InvalidInputError("signal contains non-finite samples")
    return samples


@dataclass(frozen=True, eq=False)
class AudioSignal:
    """Mono sample buffer plus its sample rate in Hz."""

    samples: np.ndarray
    sample_rate: int

    def __post_init__(self) -> None:
        samples = _samples(self.samples)
        rate = int(self.sample_rate)
        if rate < 1:
            raise InvalidInputError(f"sample_rate must be positive, got {self.sample_rate}")
        object.__setattr__(self, "samples", samples)
        object.__setattr__(self, "sample_rate", rate)

    def __len__(self) -> int:
        return self.samples.size

    @property
    def duration(self) -> float:
        return self.samples.size / self.sample_rate


def _check_aligned(signals) -> None:
    """Raise unless `signals` is non-empty and shares one sample rate and one length."""
    if not signals:
        raise EmptyInputError("no signals given")
    rates = {s.sample_rate for s in signals}
    if len(rates) > 1:
        raise InvalidInputError(f"signals disagree on sample rate: {sorted(rates)}")
    _check_lengths(len(s) for s in signals)


def _check_lengths(lengths) -> None:
    lengths = set(lengths)
    if len(lengths) > 1:
        raise InvalidInputError(f"signals disagree on length: {sorted(lengths)}")


def _check_counts(targets: int, estimates: int) -> None:
    """Raise unless an instance has as many estimates as targets, and at least 2."""
    if targets != estimates:
        raise InvalidInputError(f"{targets} targets but {estimates} estimates")
    if targets < 2:
        raise InvalidInputError("an instance needs at least 2 sources")


@dataclass(frozen=True, eq=False)
class SeparationInstance:
    """Aligned target and estimate signals plus their common mixture."""

    targets: tuple[AudioSignal, ...]
    estimates: tuple[AudioSignal, ...]
    mixture: AudioSignal

    def __post_init__(self) -> None:
        targets, estimates = tuple(self.targets), tuple(self.estimates)
        object.__setattr__(self, "targets", targets)
        object.__setattr__(self, "estimates", estimates)
        _check_counts(len(targets), len(estimates))
        _check_aligned(targets + estimates + (self.mixture,))

    @property
    def size(self) -> int:
        return len(self.targets)

    @cached_property
    def _scores(self) -> np.ndarray:
        """Cached SI-SNR of each target against each estimate, then against the mixture."""
        rows = [s.samples for s in (*self.targets, *self.estimates, self.mixture)]
        return _si_snr_matrix(rows, self.size)


@dataclass(frozen=True, eq=False)
class EncodedInstance:
    """Targets, estimates and mixture as equal-length rows still in a stored encoding.

    Scored as the SeparationInstance of the decoded rows would be, bit for
    bit, but each row is decoded only a slab at a time while it is scored:
    `decode(part, out)` writes a part of a row into the float64 buffer `out`
    and returns it, and `mean(row, scratch)` returns the float64 mean of the
    decoded row, decoding into `scratch` if it must. The rows must decode to
    finite samples.
    """

    targets: tuple[np.ndarray, ...]
    estimates: tuple[np.ndarray, ...]
    mixture: np.ndarray
    mean: Callable[[np.ndarray, np.ndarray], float]
    decode: Callable[[np.ndarray, np.ndarray], np.ndarray]

    def __post_init__(self) -> None:
        targets, estimates = tuple(self.targets), tuple(self.estimates)
        object.__setattr__(self, "targets", targets)
        object.__setattr__(self, "estimates", estimates)
        _check_counts(len(targets), len(estimates))
        _check_lengths(row.size for row in (*targets, *estimates, self.mixture))

    @property
    def size(self) -> int:
        return len(self.targets)

    @cached_property
    def _scores(self) -> np.ndarray:
        """As SeparationInstance._scores."""
        rows = [*self.targets, *self.estimates, self.mixture]
        return _si_snr_matrix(rows, self.size, self.mean, self.decode)


@dataclass(frozen=True, eq=False)
class MatchedLoss:
    """Best permutation with its per-pair and mean losses (dB-loss units)."""

    permutation: np.ndarray
    mean_loss: float
    per_pair: np.ndarray


def _row_mean(row: np.ndarray, scratch: np.ndarray) -> float:
    return row.mean()


def _copied(part: np.ndarray, out: np.ndarray) -> np.ndarray:
    out[...] = part
    return out


def _si_snr_matrix(rows, nt: int, mean=_row_mean, decode=_copied) -> np.ndarray:
    """SI-SNR of each of the first `nt` rows (targets) against each later row (estimates).

    The rows are equal-length float64 arrays, or encoded rows that `decode`
    and `mean` read as `EncodedInstance` describes. From the centred powers
    tt, ee and cross products G, the unit-energy estimate's projection onto
    the target has power p = G**2 / (tt * ee) and the residual 1 - p. Raises
    for the first bad pair in row-major order.
    """
    size = rows[0].size
    scratch = np.empty(size)  # one whole decoded row, for `mean` and the rechecks
    with np.errstate(all="ignore"):  # overflow is detected and rejected below
        means = np.array([mean(row, scratch) for row in rows])
        gram, power = np.zeros((nt, len(rows) - nt)), np.zeros(len(rows))
        buffer = np.empty((len(rows), min(_SLAB, size)))
        for start in range(0, size, _SLAB):
            slab = buffer[:, : min(_SLAB, size - start)]
            for row, out in zip(rows, slab):
                decode(row[start : start + _SLAB], out)
            slab -= means[:, None]
            for at in range(0, slab.shape[1], _BLOCK):
                block = slab[:, at : at + _BLOCK]
                gram += block[:nt] @ block[nt:].T
                power += np.einsum("ij,ij->i", block, block)
        tt, ee = power[:nt, None], power[nt:]
        overflow = ~(np.isfinite(gram) & np.isfinite(tt) & np.isfinite(ee))
        # A constant signal is zero-energy once mean-removed, but float rounding
        # leaves ~1e-16-per-sample residue; threshold relative to the raw peak.
        # Every sample lies within sqrt(power) of the mean, so a row whose norm
        # clears the threshold at twice |mean| + sqrt(power), a peak bound with
        # room for rounding, is not silent; only the others are read for a peak.
        norms, floor = np.sqrt(power), 1e-12 * math.sqrt(size)
        silent = ~(norms > floor * (2.0 * (np.abs(means) + norms)))
        for k in np.flatnonzero(silent):
            raw = decode(rows[k], scratch)
            silent[k] = norms[k] <= floor * max(raw.max(), -raw.min())
        bad = np.argwhere(overflow | silent[:nt, None])
        if bad.size:
            i, j = bad[0]
            msg = ("signal energy overflows float64; rescale the inputs" if overflow[i, j]
                   else "target has zero energy after mean removal; cannot project")
            raise InvalidInputError(f"pair (target {i}, estimate {j}): {msg}" if nt > 1 else msg)
        p = (gram / np.sqrt(tt) / np.sqrt(ee)) ** 2
        residual = 1.0 - p
        for i, j in zip(*np.nonzero((residual < _RESIDUAL_RECHECK) & ~silent[nt:])):
            miss = decode(rows[nt + j], scratch) - means[nt + j]
            miss -= gram[i, j] / tt[i, 0] * (decode(rows[i], scratch) - means[i])
            residual[i, j] = miss @ miss / ee[j]
        scores = 10.0 * np.log10(p / (residual + SI_SNR_EPS))  # p == 0 gives -inf
    scores = np.clip(scores, -SI_SNR_CLAMP_DB, SI_SNR_CLAMP_DB)
    scores[:, silent[nt:]] = -SI_SNR_CLAMP_DB
    return scores


def si_snr(target, estimate) -> float:
    """Scale-invariant signal-to-noise ratio in dB, clamped to [-60, +60].

    Both signals are mean-subtracted and the estimate is normalized to unit
    energy (so its scale cannot leak into the residual floor). It splits into
    its projection onto the target plus a residual, and the score is
    10*log10(projection power / (residual power + 1e-8)).

    Accepts AudioSignal or raw 1-D arrays. Raises on length mismatch and on
    a target with zero energy after mean removal; a silent estimate scores
    the clamp floor.
    """
    t, e = (x.samples if isinstance(x, AudioSignal) else _samples(x) for x in (target, estimate))
    if t.size != e.size:
        raise InvalidInputError(f"length mismatch: target {t.size} vs estimate {e.size}")
    return float(_si_snr_matrix([t, e], 1)[0, 0])


def si_sdr_improvement(instance: SeparationInstance | EncodedInstance, permutation) -> np.ndarray:
    """Per-source gain of the matched estimates over using the raw mixture.

    Element i is si_snr(targets[i], estimates[perm[i]]) minus
    si_snr(targets[i], mixture), both read from the instance's one scoring.
    """
    rows = np.arange(instance.size)
    perm = np.asarray(permutation, dtype=np.intp)
    if perm.shape != rows.shape or not np.array_equal(np.sort(perm), rows):
        raise InvalidInputError(f"not a permutation of 0..{instance.size - 1}: {permutation!r}")
    return instance._scores[rows, perm] - instance._scores[:, -1]


def pairwise_cost_matrix(instance: SeparationInstance | EncodedInstance) -> CostMatrix:
    """C-by-C matrix with entry (i, j) = -si_snr(targets[i], estimates[j])."""
    return CostMatrix(-instance._scores[:, :-1])


def _matched_loss(matrix: CostMatrix, permutation: np.ndarray) -> MatchedLoss:
    per_pair = matrix.entries[np.arange(matrix.size), permutation]
    return MatchedLoss(permutation, float(per_pair.mean()), per_pair)


def hungarian_loss(instance: SeparationInstance | EncodedInstance) -> MatchedLoss:
    """Minimum mean pairwise loss via the polynomial assignment solver."""
    matrix = pairwise_cost_matrix(instance)
    return _matched_loss(matrix, solve_hungarian(matrix).permutation)


def pit_loss(instance: SeparationInstance | EncodedInstance) -> MatchedLoss:
    """Same contract as hungarian_loss, by exhaustive enumeration (the oracle)."""
    matrix = pairwise_cost_matrix(instance)
    return _matched_loss(matrix, solve_bruteforce(matrix).permutation)
