import itertools

import numpy as np
import pytest

from sepmatch import (
    AudioSignal,
    EmptyInputError,
    InvalidInputError,
    MixSpec,
    SYNTHETIC_KINDS,
    SourceKind,
    generate_sources,
    hungarian_loss,
    mix,
    truncate_to_min,
    write_wav,
)
from sepmatch.metrics import SeparationInstance

from conftest import sine


def synthetic_kinds(c):
    return list(itertools.islice(itertools.cycle(SYNTHETIC_KINDS), c))


class TestGenerateSources:
    def test_lengths_and_peaks(self):
        spec = MixSpec(num_sources=2, sample_rate=8000, duration=1.0, seed=7)
        sources = generate_sources(spec, [SourceKind.sine_bundle()] * 2)
        assert all(len(s) == 8000 for s in sources)
        for s in sources:
            assert abs(np.abs(s.samples).max() - 0.9) <= 1e-6

    def test_deterministic(self):
        spec = MixSpec(num_sources=3, duration=0.5, seed=123)
        kinds = synthetic_kinds(3)
        first = generate_sources(spec, kinds)
        second = generate_sources(spec, kinds)
        for a, b in zip(first, second):
            assert np.array_equal(a.samples, b.samples)

    def test_twenty_sources_four_seconds(self):
        spec = MixSpec(num_sources=20, sample_rate=8000, duration=4.0, seed=1)
        sources = generate_sources(spec, synthetic_kinds(20))
        assert len(sources) == 20
        assert all(len(s) == 32000 for s in sources)

    def test_sources_decorrelated(self):
        spec = MixSpec(num_sources=6, duration=1.0, seed=5)
        sources = generate_sources(spec, synthetic_kinds(6))
        for i in range(6):
            for j in range(i + 1, 6):
                corr = np.corrcoef(sources[i].samples, sources[j].samples)[0, 1]
                assert abs(corr) < 0.5

    def test_kind_count_must_match(self):
        spec = MixSpec(num_sources=3, duration=0.1)
        with pytest.raises(InvalidInputError):
            generate_sources(spec, synthetic_kinds(2))

    def test_kind_validation(self):
        with pytest.raises(InvalidInputError):
            SourceKind("square_wave")
        with pytest.raises(InvalidInputError):
            SourceKind(SourceKind.FILE)

    def test_file_backed_source(self, tmp_path):
        path = tmp_path / "seed.wav"
        write_wav(path, sine(440, n=8000, rate=8000))
        spec = MixSpec(num_sources=2, sample_rate=8000, duration=0.5, seed=2)
        kinds = [SourceKind.from_file(path), SourceKind.sine_bundle()]
        sources = generate_sources(spec, kinds)
        assert len(sources[0]) == 4000
        assert abs(np.abs(sources[0].samples).max() - 0.9) <= 1e-6

    def test_file_backed_rejects_short_or_mismatched(self, tmp_path):
        path = tmp_path / "short.wav"
        write_wav(path, sine(440, n=100, rate=8000))
        spec = MixSpec(num_sources=2, sample_rate=8000, duration=1.0)
        kinds = [SourceKind.from_file(path), SourceKind.noise()]
        with pytest.raises(InvalidInputError, match="shorter"):
            generate_sources(spec, kinds)
        other_rate = tmp_path / "rate.wav"
        write_wav(other_rate, sine(440, n=16000, rate=16000))
        kinds = [SourceKind.from_file(other_rate), SourceKind.noise()]
        with pytest.raises(InvalidInputError, match="sample rate"):
            generate_sources(spec, kinds)

    def test_file_backed_missing_file(self, tmp_path):
        spec = MixSpec(num_sources=2, duration=0.1)
        kinds = [SourceKind.from_file(tmp_path / "nope.wav"), SourceKind.noise()]
        with pytest.raises(OSError):
            generate_sources(spec, kinds)

    def test_spec_validation(self):
        with pytest.raises(InvalidInputError):
            MixSpec(num_sources=1)
        with pytest.raises(InvalidInputError):
            MixSpec(num_sources=2, duration=0.0)
        with pytest.raises(InvalidInputError):
            MixSpec(num_sources=2, snr_range=(5.0, 0.0))
        with pytest.raises(InvalidInputError):
            MixSpec(num_sources=2, sample_rate=0)

    @pytest.mark.parametrize("rate", [8000.7, float("inf"), float("nan")])
    def test_rate_that_is_not_an_integer_refused(self, rate):
        # 8000.7 used to pass and render 80 samples at 8000.7 Hz, which only
        # the AudioSignal check in generate_sources refused, after the render.
        with pytest.raises(InvalidInputError, match=f"sample_rate .* got {rate!r}$"):
            MixSpec(num_sources=2, sample_rate=rate, duration=0.01)

    def test_integral_float_rate_becomes_int(self):
        rate = MixSpec(num_sources=2, sample_rate=8000.0, duration=0.01).sample_rate
        assert rate == 8000 and type(rate) is int


class TestMix:
    def test_single_source_degenerate(self):
        source = sine(440, amp=0.5)
        mixture, gains = mix([source], (0.0, 5.0), seed=3)
        assert np.array_equal(mixture.samples, source.samples)
        assert list(gains) == [1.0]

    def test_equal_energy_zero_db(self):
        s = sine(440, amp=0.45)
        negated = AudioSignal(-s.samples, s.sample_rate)  # bit-identical energy
        mixture, gains = mix([s, negated], (0.0, 0.0), seed=1)
        assert list(gains) == [1.0, 1.0]
        energy = float(mixture.samples @ mixture.samples)
        assert energy <= 2.0 * float(s.samples @ s.samples)

    def test_realized_ratios_stay_in_range(self):
        spec = MixSpec(num_sources=5, duration=0.5, seed=11)
        sources = generate_sources(spec, synthetic_kinds(5))
        energies = [float(s.samples @ s.samples) for s in sources]
        for seed in range(50):
            _, gains = mix(sources, (0.0, 5.0), seed=seed)
            for i in range(1, 5):
                ratio_db = 10.0 * np.log10(
                    gains[i] ** 2 * energies[i] / (gains[0] ** 2 * energies[0])
                )
                assert -5.0 - 1e-9 <= ratio_db <= 5.0 + 1e-9

    def test_mixture_reconstructs_from_gains(self):
        spec = MixSpec(num_sources=4, duration=0.5, seed=21)
        sources = generate_sources(spec, synthetic_kinds(4))
        mixture, gains = mix(sources, (0.0, 5.0), seed=9)
        rebuilt = np.zeros(len(mixture))
        for g, s in zip(gains, sources):
            rebuilt += g * s.samples
        # mix adds the same terms in the same order, so the rebuild is exact.
        assert mixture.samples.tobytes() == rebuilt.tobytes()

    def test_generated_block_mixes_like_copies(self):
        # Every input takes one path, a row-by-row sum in index order, whether
        # or not its rows are generate_sources' block, in order, contiguous.
        spec = MixSpec(num_sources=6, duration=0.5, seed=5)
        sources = generate_sources(spec, synthetic_kinds(6))
        block = sources[0].samples.base
        assert block.shape == (6, 4000)
        assert all(s.samples.base is block for s in sources)
        copies = [AudioSignal(s.samples.copy(), s.sample_rate) for s in sources]
        padded = np.zeros((6, 8000))
        padded[:, 1::2] = block
        strided = [AudioSignal(row[1::2], 8000) for row in padded]
        assert all(s.samples.strides == (16,) for s in strided)
        cases = [(sources, copies), (copies, copies), (strided, copies),
                 (sources[::-1], copies[::-1]), (sources[:4], copies[:4])]
        for rows, rows_copied in cases:
            mixture, gains = mix(rows, (0.0, 5.0), seed=5)
            want = gains[0] * rows[0].samples
            for g, s in zip(gains[1:], rows[1:]):
                want = want + g * s.samples
            assert mixture.samples.tobytes() == want.tobytes()
            want_mixture, want_gains = mix(rows_copied, (0.0, 5.0), seed=5)
            assert mixture.samples.tobytes() == want_mixture.samples.tobytes()
            assert gains.tobytes() == want_gains.tobytes()

    def test_clipping_rescales_globally(self):
        s = sine(440, amp=0.9)
        twin = AudioSignal(s.samples.copy(), s.sample_rate)  # in phase: sum clips
        mixture, gains = mix([s, twin], (0.0, 0.0), seed=4)
        assert np.abs(mixture.samples).max() <= 1.0 + 1e-12
        assert gains[0] < 1.0  # the rescale factor lives in the gains
        rebuilt = gains[0] * s.samples + gains[1] * twin.samples
        assert mixture.samples.tobytes() == rebuilt.tobytes()

    def test_deterministic(self):
        spec = MixSpec(num_sources=3, duration=0.25, seed=31)
        sources = generate_sources(spec, synthetic_kinds(3))
        first = mix(sources, (0.0, 5.0), seed=8)
        second = mix(sources, (0.0, 5.0), seed=8)
        assert np.array_equal(first[0].samples, second[0].samples)
        assert np.array_equal(first[1], second[1])

    def test_rejects_bad_inputs(self):
        with pytest.raises(EmptyInputError):
            mix([], (0.0, 5.0))
        silent = AudioSignal(np.zeros(100), 8000)
        with pytest.raises(InvalidInputError, match="zero energy"):
            mix([sine(440, n=100), silent], (0.0, 5.0))
        with pytest.raises(InvalidInputError, match="length"):
            mix([sine(440, n=100), sine(500, n=101)], (0.0, 5.0))
        with pytest.raises(InvalidInputError, match="sample rate"):
            mix([sine(440, n=100), sine(500, n=100, rate=16000)], (0.0, 5.0))
        with pytest.raises(InvalidInputError, match="snr_range"):
            mix([sine(440), sine(500)], (5.0, 0.0))

    def test_energy_overflow_names_source(self):
        # Each energy overflowed to inf, and inf / inf raised a RuntimeWarning
        # and then blamed the default snr_range.
        huge = AudioSignal(np.full(16, 1e200), 8000)
        ramp = AudioSignal(np.linspace(-1e200, 1e200, 16), 8000)
        with pytest.raises(InvalidInputError, match="source 0 has an energy that overflows"):
            mix([huge, ramp])
        with pytest.raises(InvalidInputError, match="source 1 has an energy that overflows"):
            mix([sine(440, n=16), ramp])

    def test_separability_sanity(self):
        # Ground-truth scaled sources fed back as estimates must recover the
        # identity permutation at the clamp ceiling.
        spec = MixSpec(num_sources=3, duration=0.5, seed=17)
        sources = generate_sources(spec, synthetic_kinds(3))
        mixture, gains = mix(sources, (0.0, 5.0), seed=17)
        estimates = tuple(
            AudioSignal(g * s.samples, s.sample_rate) for g, s in zip(gains, sources)
        )
        loss = hungarian_loss(SeparationInstance(tuple(sources), estimates, mixture))
        assert list(loss.permutation) == [0, 1, 2]
        assert loss.mean_loss == -60.0


class TestTruncateToMin:
    def test_cuts_to_shortest(self):
        signals = [sine(300, n=100), sine(400, n=80), sine(500, n=90)]
        cut = truncate_to_min(signals)
        assert [len(s) for s in cut] == [80, 80, 80]
        for before, after in zip(signals, cut):
            assert np.array_equal(after.samples, before.samples[:80])

    def test_noop_on_equal_lengths(self):
        signals = [sine(300, n=64), sine(400, n=64)]
        cut = truncate_to_min(signals)
        for before, after in zip(signals, cut):
            assert np.array_equal(after.samples, before.samples)

    def test_single_signal_unchanged(self):
        signal = sine(300, n=50)
        (cut,) = truncate_to_min([signal])
        assert np.array_equal(cut.samples, signal.samples)

    def test_uncut_signals_are_returned_as_is(self):
        signals = [sine(300, n=100), sine(400, n=80), sine(500, n=80)]
        cut = truncate_to_min(signals)
        assert cut[1] is signals[1] and cut[2] is signals[2]
        assert cut[0] is not signals[0]

    def test_rejects_empty_and_mixed_rates(self):
        with pytest.raises(EmptyInputError):
            truncate_to_min([])
        with pytest.raises(InvalidInputError, match="sample rate"):
            truncate_to_min([sine(300, rate=8000), sine(300, rate=16000)])


def test_one_alignment_check_for_every_entry_point():
    a, b = sine(300, n=100, rate=8000), sine(400, n=100, rate=16000)
    calls = [
        lambda: mix([a, b], (0.0, 5.0)),
        lambda: truncate_to_min([a, b]),
        lambda: SeparationInstance(targets=(a, b), estimates=(a, b), mixture=a),
    ]
    messages = set()
    for call in calls:
        with pytest.raises(InvalidInputError) as info:
            call()
        messages.add(str(info.value))
    assert messages == {"signals disagree on sample rate: [8000, 16000]"}
