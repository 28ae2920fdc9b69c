import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from sepmatch import (
    AudioSignal,
    EmptyInputError,
    GuardLimitError,
    InvalidInputError,
    SeparationInstance,
    SI_SNR_CLAMP_DB,
    SI_SNR_EPS,
    hungarian_loss,
    pairwise_cost_matrix,
    pit_loss,
    si_sdr_improvement,
    si_snr,
    solve_bruteforce,
    solve_hungarian,
)

from sepmatch import metrics

from conftest import sine, toy_instance


def si_snr_reference(target, estimate):
    """Straight-line recomputation of the documented formula (oracle)."""
    t = np.asarray(target, float)
    e = np.asarray(estimate, float)
    t = t - np.mean(t)
    e = e - np.mean(e)
    e = e / np.linalg.norm(e)  # unit energy, per the documented contract
    proj = (np.dot(e, t) / np.dot(t, t)) * t
    resid = e - proj
    num = np.dot(proj, proj)
    if num == 0.0:
        return -SI_SNR_CLAMP_DB
    value = 10.0 * np.log10(num / (np.dot(resid, resid) + SI_SNR_EPS))
    return float(np.clip(value, -SI_SNR_CLAMP_DB, SI_SNR_CLAMP_DB))


class TestSiSnr:
    def test_self_match_clamps_at_60(self):
        s = sine(440)
        assert si_snr(s, s) == 60.0

    def test_scaled_self_match_clamps_at_60(self):
        s = sine(440)
        for alpha in (0.25, 1.0, 7.5):
            assert si_snr(s, AudioSignal(alpha * s.samples, s.sample_rate)) == 60.0

    @settings(max_examples=100, deadline=None)
    @given(alpha=st.floats(1e-3, 1e3), negate=st.booleans())
    def test_scale_invariance(self, alpha, negate):
        rng = np.random.default_rng(8)
        target = sine(350).samples
        estimate = target + 0.05 * rng.standard_normal(target.size)
        if negate:
            alpha = -alpha
        base = si_snr(target, estimate)
        assert abs(base) < SI_SNR_CLAMP_DB  # below clamp saturation
        assert abs(si_snr(target, alpha * estimate) - base) < 1e-9

    def test_noise_injection_matches_injected_snr(self):
        # Monte Carlo oracle: noise scaled for a 10 dB pre-projection SNR
        # should come back as roughly 10 dB after projection.
        n, rate = 8000, 8000
        t = np.arange(n) / rate
        s = np.sin(2 * np.pi * 440.0 * t)
        s_power = float(s @ s)
        for seed in range(100):
            rng = np.random.default_rng(seed)
            noise = rng.standard_normal(n)
            noise *= np.sqrt(s_power / float(noise @ noise) * 10.0 ** (-10.0 / 10.0))
            value = si_snr(AudioSignal(s, rate), AudioSignal(s + noise, rate))
            assert 9.0 <= value <= 11.0

    def test_silent_estimate_scores_clamp_floor(self):
        s = sine(440, n=100)
        assert si_snr(s, np.zeros(100)) == -60.0

    def test_length_mismatch_rejected(self):
        with pytest.raises(InvalidInputError, match="length"):
            si_snr(sine(440, n=100), sine(440, n=101))

    def test_zero_energy_target_rejected(self):
        flat = AudioSignal(np.full(64, 0.5), 8000)  # zero energy once mean-removed
        with pytest.raises(InvalidInputError, match="zero energy"):
            si_snr(flat, sine(440, n=64))
        # inexactly-representable constants leave float residue; still rejected
        with pytest.raises(InvalidInputError, match="zero energy"):
            si_snr(np.full(64, 0.3), sine(440, n=64).samples)

    @pytest.mark.parametrize("dc", [1.0, -3.0])
    @pytest.mark.parametrize("ratio", [0.3, 0.6, 0.9, 1.1, 1.9, 3.5])
    def test_silence_threshold_uses_the_exact_peak(self, dc, ratio):
        # One spike on a DC row puts its mean-removed norm at `ratio` times the
        # silence threshold 1e-12 * sqrt(n) * peak, where the peak is ~|dc|.
        n = 64
        row = np.full(n, dc)
        row[5] += ratio * 1e-12 * np.sqrt(n) * abs(dc) / np.sqrt(1 - 1 / n)
        probe = sine(440, n=n).samples
        if ratio < 1:
            with pytest.raises(InvalidInputError, match="zero energy"):
                si_snr(row, probe)
        else:
            assert np.isfinite(si_snr(row, probe))

    def test_energy_overflow_rejected(self):
        huge = 1e160 * np.sin(np.arange(100.0))
        probe = np.sin(np.arange(100.0)) + 0.5
        with pytest.raises(InvalidInputError, match="overflows"):
            si_snr(huge, probe)
        with pytest.raises(InvalidInputError, match="overflows"):
            si_snr(probe, huge)

    def test_clamp_honesty_fuzz(self):
        rng = np.random.default_rng(2024)
        for _ in range(500):
            n = int(rng.integers(8, 400))
            scale_t = 10.0 ** rng.uniform(-4, 4)
            scale_e = 10.0 ** rng.uniform(-4, 4)
            target = scale_t * rng.standard_normal(n)
            estimate = scale_e * rng.standard_normal(n)
            value = si_snr(target, estimate)
            assert -60.0 <= value <= 60.0
            assert not np.isnan(value)


class TestSiSdrImprovement:
    def test_mixture_as_estimate_is_exactly_zero(self):
        base = toy_instance(c=3)
        instance = SeparationInstance(
            base.targets, (base.mixture,) * 3, base.mixture
        )
        improvement = si_sdr_improvement(instance, [0, 1, 2])
        assert np.all(improvement == 0.0)

    def test_perfect_separation_improves(self):
        instance = toy_instance(c=2)
        improvement = si_sdr_improvement(instance, [0, 1])
        assert np.all(improvement > 0.0)

    def test_matches_independent_recomputation(self):
        instance = toy_instance(c=3, noise=0.01, seed=4)
        perm = [0, 1, 2]
        improvement = si_sdr_improvement(instance, perm)
        for i in range(3):
            expected = si_snr_reference(
                instance.targets[i].samples, instance.estimates[i].samples
            ) - si_snr_reference(instance.targets[i].samples, instance.mixture.samples)
            assert abs(improvement[i] - expected) <= 1e-9

    def test_rejects_non_permutation(self):
        instance = toy_instance(c=3)
        with pytest.raises(InvalidInputError):
            si_sdr_improvement(instance, [0, 0, 1])


class TestPairwiseCostMatrix:
    def test_self_match_diagonal_saturates(self):
        instance = toy_instance(c=4)
        matrix = pairwise_cost_matrix(instance)
        diag = np.diag(matrix.entries)
        assert np.all(diag == -60.0)
        off = matrix.entries[~np.eye(4, dtype=bool)]
        assert np.all(off > -60.0)

    def test_cyclic_shift_moves_row_minima(self):
        c = 4
        base = toy_instance(c=c)
        shifted = [base.targets[(i + 1) % c] for i in range(c)]
        instance = SeparationInstance(base.targets, tuple(shifted), base.mixture)
        matrix = pairwise_cost_matrix(instance)
        # estimates[j] == targets[(j+1) % c], so row i's best column holds target i.
        for i in range(c):
            assert int(np.argmin(matrix.entries[i])) == (i - 1) % c

    def test_feeds_both_solvers_identically(self):
        matrix = pairwise_cost_matrix(toy_instance(c=4, noise=0.05, seed=9))
        h = solve_hungarian(matrix)
        b = solve_bruteforce(matrix)
        assert abs(h.total_cost - b.total_cost) <= 1e-9

    def test_error_names_offending_pair(self):
        base = toy_instance(c=2)
        flat = AudioSignal(np.full(len(base.mixture), 0.3), base.mixture.sample_rate)
        instance = SeparationInstance((base.targets[0], flat), base.estimates, base.mixture)
        with pytest.raises(InvalidInputError, match=r"target 1, estimate 0"):
            pairwise_cost_matrix(instance)


class TestMatchedLosses:
    def test_recovers_planted_shuffle(self):
        shuffle = [2, 0, 3, 1]  # estimates[j] = targets[shuffle[j]]
        instance = toy_instance(c=4, shuffle=shuffle)
        loss = hungarian_loss(instance)
        assert np.array_equal(loss.permutation, np.argsort(shuffle))
        assert loss.mean_loss == -60.0

    def test_agrees_with_pit_at_c8(self):
        instance = toy_instance(c=8, noise=0.02, seed=3)
        h = hungarian_loss(instance)
        p = pit_loss(instance)
        assert np.array_equal(h.permutation, p.permutation)
        assert h.mean_loss == p.mean_loss

    def test_swapped_pair_with_noise(self):
        instance = toy_instance(c=2, noise=0.001, shuffle=[1, 0], seed=6)
        assert list(hungarian_loss(instance).permutation) == [1, 0]

    def test_pit_identity_pair(self):
        instance = toy_instance(c=2)
        loss = pit_loss(instance)
        assert list(loss.permutation) == [0, 1]
        assert loss.mean_loss == -60.0

    def test_pit_matches_hungarian_at_c5(self):
        instance = toy_instance(c=5, noise=0.05, seed=12)
        assert pit_loss(instance).mean_loss == hungarian_loss(instance).mean_loss

    def test_pit_guard(self):
        instance = toy_instance(c=12, n=64)
        with pytest.raises(GuardLimitError):
            pit_loss(instance)

    def test_mean_is_mean_of_pairs(self):
        loss = hungarian_loss(toy_instance(c=5, noise=0.1, seed=2))
        assert abs(loss.mean_loss - loss.per_pair.mean()) <= 1e-9

    def test_matrix_loss_consistency(self):
        instance = toy_instance(c=6, noise=0.05, seed=8)
        loss = hungarian_loss(instance)
        total = solve_hungarian(pairwise_cost_matrix(instance)).total_cost
        assert abs(loss.mean_loss - total / 6.0) <= 1e-9

    def test_invariant_under_joint_shuffle(self):
        instance = toy_instance(c=5, noise=0.05, seed=10)
        order = [3, 1, 4, 0, 2]
        reshuffled = SeparationInstance(
            tuple(instance.targets[k] for k in order),
            tuple(instance.estimates[k] for k in order),
            instance.mixture,
        )
        assert abs(hungarian_loss(instance).mean_loss - hungarian_loss(reshuffled).mean_loss) <= 1e-9


class TestDomainTypes:
    def test_audio_signal_validation(self):
        with pytest.raises(InvalidInputError):
            AudioSignal(np.zeros((2, 2)), 8000)
        with pytest.raises(EmptyInputError):
            AudioSignal(np.array([]), 8000)
        with pytest.raises(InvalidInputError):
            AudioSignal(np.array([1.0, np.nan]), 8000)
        with pytest.raises(InvalidInputError):
            AudioSignal(np.zeros(4), 0)
        signal = AudioSignal([0.0, 0.5, -0.5], 8000)
        assert len(signal) == 3
        assert signal.duration == pytest.approx(3 / 8000)

    def test_instance_validation(self):
        a, b = sine(300), sine(500)
        with pytest.raises(InvalidInputError, match="at least 2"):
            SeparationInstance((a,), (b,), a)
        with pytest.raises(InvalidInputError, match="targets"):
            SeparationInstance((a, b), (a,), a)
        short = sine(300, n=100)
        with pytest.raises(InvalidInputError, match="length"):
            SeparationInstance((a, b), (a, short), a)
        other_rate = AudioSignal(a.samples, 16000)
        with pytest.raises(InvalidInputError, match="sample rate"):
            SeparationInstance((a, b), (a, other_rate), a)
        assert SeparationInstance((a, b), (b, a), a).size == 2


class TestScoringKernel:
    """The one blocked Gram pass behind si_snr, the cost matrix and SI-SDRi."""

    BLOCK, SLAB = metrics._BLOCK, metrics._SLAB

    @settings(max_examples=60, deadline=None)
    @given(
        c=st.integers(2, 8),
        n=st.sampled_from([8, BLOCK - 1, BLOCK, BLOCK + 1, 3 * BLOCK + 17, SLAB - 1, SLAB + 1]),
        seed=st.integers(0, 2**32 - 1),
        noise_db=st.floats(-10.0, 75.0),
        silent=st.sampled_from([None, "zeros", "constant"]),
    )
    def test_matches_reference_pair_by_pair(self, c, n, seed, noise_db, silent):
        rng = np.random.default_rng(seed)
        sources = rng.standard_normal((c, n))
        targets = [10.0 ** rng.uniform(-4, 4) * s + rng.uniform(-5, 5) for s in sources]
        mixture = sources.sum(axis=0) + rng.uniform(-5, 5)
        # Estimate j holds source order[j] plus leakage and noise about
        # noise_db below it, then an arbitrary gain and DC offset.
        order = rng.permutation(c)
        estimates = []
        for held in order:
            error = 0.5 * sources[(held + 1) % c] + rng.standard_normal(n)
            x = sources[held] + 10.0 ** (-noise_db / 20.0) * error
            estimates.append(10.0 ** rng.uniform(-4, 4) * x + rng.uniform(-5, 5))
        silent_j = None
        if silent is not None:
            silent_j = int(rng.integers(c))
            estimates[silent_j] = np.full(n, 0.0 if silent == "zeros" else rng.uniform(-5, 5))
        instance = SeparationInstance(
            tuple(AudioSignal(t, 8000) for t in targets),
            tuple(AudioSignal(e, 8000) for e in estimates),
            AudioSignal(mixture, 8000),
        )
        columns = estimates + [mixture]

        def expected(i, j):  # the oracle divides by zero on a silent estimate
            return -SI_SNR_CLAMP_DB if j == silent_j else si_snr_reference(targets[i], columns[j])

        matrix = pairwise_cost_matrix(instance).entries
        for i in range(c):
            for j in range(c):
                assert abs(-matrix[i, j] - expected(i, j)) <= 1e-9
        perm = rng.permutation(c)
        improvement = si_sdr_improvement(instance, perm)
        for i, j in enumerate(perm):
            assert abs(improvement[i] - (expected(i, j) - expected(i, c))) <= 1e-9

    def test_zero_energy_target_names_its_pair(self):
        base = toy_instance(c=4)
        flat = AudioSignal(np.full(len(base.mixture), 0.3), base.mixture.sample_rate)
        targets = base.targets[:2] + (flat,) + base.targets[3:]
        instance = SeparationInstance(targets, base.estimates, base.mixture)
        with pytest.raises(InvalidInputError, match=r"pair \(target 2, estimate 0\): .*zero energy"):
            pairwise_cost_matrix(instance)

    def test_overflowing_estimate_rejected(self):
        base = toy_instance(c=3)
        huge = AudioSignal(1e160 * base.estimates[2].samples, base.mixture.sample_rate)
        instance = SeparationInstance(base.targets, base.estimates[:2] + (huge,), base.mixture)
        with pytest.raises(InvalidInputError, match=r"pair \(target 0, estimate 2\): .*overflows"):
            pairwise_cost_matrix(instance)
        with pytest.raises(InvalidInputError, match="overflows"):
            si_sdr_improvement(instance, [0, 1, 2])

    def test_one_scoring_pass_feeds_loss_and_improvement(self, monkeypatch):
        kernel, passes = metrics._si_snr_matrix, []

        def spy(*args):
            passes.append(kernel(*args))
            return passes[-1]

        monkeypatch.setattr(metrics, "_si_snr_matrix", spy)
        instance = toy_instance(c=5, noise=0.05, shuffle=[3, 0, 4, 1, 2], seed=21)
        loss = hungarian_loss(instance)
        improvement = si_sdr_improvement(instance, loss.permutation)
        matrix = pairwise_cost_matrix(instance)
        assert len(passes) == 1
        scores = passes[0]
        rows = np.arange(5)
        assert np.array_equal(-matrix.entries, scores[:, :5])
        assert np.array_equal(-loss.per_pair, scores[rows, loss.permutation])
        assert np.array_equal(improvement, scores[rows, loss.permutation] - scores[:, 5])
