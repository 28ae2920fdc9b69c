"""Scale-invariant separation metrics and permutation-matched losses.

The pairwise matching loss of a C-source instance is built in two steps:
`pairwise_cost_matrix` scores every (target, estimate) pair with negative
SI-SNR, then either the polynomial solver (`hungarian_loss`) or exhaustive
enumeration (`pit_loss`) picks the permutation minimizing the mean loss.

Every score comes from one Gram pass over the mean-removed signals in
blocks of `_BLOCK` samples, so memory is one (signals x _BLOCK) buffer, not
C x samples. An instance is scored once, its mixture an extra estimate
column; `si_snr` is the 1x1 case.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import cached_property

import numpy as np

from .assignment import BRUTEFORCE_GUARD, CostMatrix, solve_bruteforce, solve_hungarian
from .errors import EmptyInputError, InvalidInputError

#: SI-SNR outputs are clamped to +/- this many dB so cost matrices stay finite.
SI_SNR_CLAMP_DB = 60.0

#: Residual-power floor guarding the zero-error (perfect match) case.
SI_SNR_EPS = 1e-8

#: Samples per block of the scoring kernel's pass over the signals.
_BLOCK = 2048

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
    lengths = {len(s) for s in signals}
    if len(lengths) > 1:
        raise InvalidInputError(f"signals disagree on length: {sorted(lengths)}")


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
        if len(targets) != len(estimates):
            raise InvalidInputError(f"{len(targets)} targets but {len(estimates)} estimates")
        if len(targets) < 2:
            raise InvalidInputError("an instance needs at least 2 sources")
        _check_aligned(targets + estimates + (self.mixture,))

    @property
    def size(self) -> int:
        return len(self.targets)

    @cached_property
    def _scores(self) -> np.ndarray:
        """Cached SI-SNR of each target against each estimate, then against the mixture."""
        columns = (*self.estimates, self.mixture)
        return _si_snr_matrix([s.samples for s in self.targets], [s.samples for s in columns])


@dataclass(frozen=True, eq=False)
class MatchedLoss:
    """Best permutation with its per-pair and mean losses (dB-loss units)."""

    permutation: np.ndarray
    mean_loss: float
    per_pair: np.ndarray


def _si_snr_matrix(targets, estimates) -> np.ndarray:
    """SI-SNR of every (target, estimate) pair of equal-length float64 arrays.

    From the centred powers tt, ee and cross products G, the unit-energy
    estimate's projection onto the target has power p = G**2 / (tt * ee) and
    the residual 1 - p. Raises for the first bad pair in row-major order.
    """
    rows, nt, size = [*targets, *estimates], len(targets), targets[0].size
    with np.errstate(all="ignore"):  # overflow is detected and rejected below
        means = [row.mean() for row in rows]
        gram, power = np.zeros((nt, len(estimates))), np.zeros(len(rows))
        buffer = np.empty((len(rows), min(_BLOCK, size)))
        for start in range(0, size, _BLOCK):
            block = buffer[:, : min(_BLOCK, size - start)]
            for row, mean, out in zip(rows, means, block):
                np.subtract(row[start : start + _BLOCK], mean, out=out)
            gram += block[:nt] @ block[nt:].T
            power += np.einsum("ij,ij->i", block, block)
        tt, ee = power[:nt, None], power[nt:]
        overflow = ~(np.isfinite(gram) & np.isfinite(tt) & np.isfinite(ee))
        # A constant signal is zero-energy once mean-removed, but float rounding
        # leaves ~1e-16-per-sample residue; threshold relative to the raw peak.
        peaks = np.array([max(row.max(), -row.min()) for row in rows])
        silent = np.sqrt(power) <= 1e-12 * math.sqrt(size) * peaks
        bad = np.argwhere(overflow | silent[:nt, None])
        if bad.size:
            i, j = bad[0]
            msg = ("signal energy overflows float64; rescale the inputs" if overflow[i, j]
                   else "target has zero energy after mean removal; cannot project")
            raise InvalidInputError(f"pair (target {i}, estimate {j}): {msg}" if nt > 1 else msg)
        p = (gram / np.sqrt(tt) / np.sqrt(ee)) ** 2
        residual = 1.0 - p
        for i, j in zip(*np.nonzero((residual < _RESIDUAL_RECHECK) & ~silent[nt:])):
            miss = rows[nt + j] - means[nt + j] - gram[i, j] / tt[i, 0] * (rows[i] - means[i])
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
    return float(_si_snr_matrix([t], [e])[0, 0])


def si_sdr_improvement(instance: SeparationInstance, permutation) -> np.ndarray:
    """Per-source gain of the matched estimates over using the raw mixture.

    Element i is si_snr(targets[i], estimates[perm[i]]) minus
    si_snr(targets[i], mixture), both read from the instance's one scoring.
    """
    rows = np.arange(instance.size)
    perm = np.asarray(permutation, dtype=np.intp)
    if perm.shape != rows.shape or not np.array_equal(np.sort(perm), rows):
        raise InvalidInputError(f"not a permutation of 0..{instance.size - 1}: {permutation!r}")
    return instance._scores[rows, perm] - instance._scores[:, -1]


def pairwise_cost_matrix(instance: SeparationInstance) -> CostMatrix:
    """C-by-C matrix with entry (i, j) = -si_snr(targets[i], estimates[j])."""
    return CostMatrix(-instance._scores[:, :-1])


def _matched_loss(matrix: CostMatrix, permutation: np.ndarray) -> MatchedLoss:
    per_pair = matrix.entries[np.arange(matrix.size), permutation]
    return MatchedLoss(permutation, float(per_pair.mean()), per_pair)


def hungarian_loss(instance: SeparationInstance) -> MatchedLoss:
    """Minimum mean pairwise loss via the polynomial assignment solver."""
    matrix = pairwise_cost_matrix(instance)
    return _matched_loss(matrix, solve_hungarian(matrix).permutation)


def pit_loss(instance: SeparationInstance, guard: int = BRUTEFORCE_GUARD) -> MatchedLoss:
    """Same contract as hungarian_loss, by exhaustive enumeration (the oracle)."""
    matrix = pairwise_cost_matrix(instance)
    return _matched_loss(matrix, solve_bruteforce(matrix, guard=guard).permutation)
