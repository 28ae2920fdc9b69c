import struct

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from sepmatch import AudioSignal, InvalidInputError, WavFormatError, read_wav, write_wav
from sepmatch.cli import main

from conftest import GUID_TAIL, LAYOUTS, encode_wav, riff_bytes, sine


def wav_bytes(fmt=1, channels=1, rate=8000, bits=16, payload=b""):
    block_align = channels * bits // 8
    return struct.pack(
        "<4sI4s4sIHHIIHH4sI",
        b"RIFF",
        36 + len(payload),
        b"WAVE",
        b"fmt ",
        16,
        fmt,
        channels,
        rate,
        rate * block_align,
        block_align,
        bits,
        b"data",
        len(payload),
    ) + payload


def extensible_wav_bytes(sub_format, bits, payload, channels=1, guid_tail=GUID_TAIL):
    block_align = channels * bits // 8
    fmt = struct.pack(
        "<HHIIHHHHIH14s", 0xFFFE, channels, 8000, 8000 * block_align, block_align, bits,
        22, bits, 0, sub_format, guid_tail,
    )
    body = b"WAVE" + b"fmt " + struct.pack("<I", len(fmt)) + fmt
    body += b"data" + struct.pack("<I", len(payload)) + payload
    return b"RIFF" + struct.pack("<I", len(body)) + body


class TestRoundTrip:
    def test_sine_within_quantization_bound(self, tmp_path):
        path = tmp_path / "tone.wav"
        signal = sine(440, n=8000, rate=8000, amp=0.9)
        write_wav(path, signal)
        loaded = read_wav(path)
        assert loaded.sample_rate == 8000
        assert len(loaded) == 8000
        assert np.abs(loaded.samples - signal.samples).max() <= 1.0 / 32768.0

    def test_rate_beyond_header_rejected(self, tmp_path):
        # 2 x rate is the WAV byte rate, a u32 field: 3 GHz used to die in struct.pack.
        path = tmp_path / "fast.wav"
        with pytest.raises(WavFormatError, match="3000000000 Hz"):
            write_wav(path, AudioSignal([0.0, 0.5], 3_000_000_000))
        assert not path.exists()

    def test_full_scale_values(self, tmp_path):
        path = tmp_path / "edges.wav"
        signal = AudioSignal([1.0, -1.0, 0.0, 0.999, -0.999], 8000)
        write_wav(path, signal)
        loaded = read_wav(path)
        assert np.abs(loaded.samples - signal.samples).max() <= 1.0 / 32768.0


class TestRead:
    def test_pcm16_scaling_convention(self, tmp_path):
        payload = struct.pack("<3h", 0, 16384, -16384)
        path = tmp_path / "pcm.wav"
        path.write_bytes(wav_bytes(payload=payload))
        loaded = read_wav(path)
        assert np.abs(loaded.samples - np.array([0.0, 0.5, -0.5])).max() <= 1e-4

    def test_float32_payload(self, tmp_path):
        payload = struct.pack("<4f", 0.25, -0.75, 1.5, -2.0)  # out-of-range clips
        path = tmp_path / "float.wav"
        path.write_bytes(wav_bytes(fmt=3, bits=32, payload=payload))
        loaded = read_wav(path)
        assert np.allclose(loaded.samples, [0.25, -0.75, 1.0, -1.0])

    @pytest.mark.parametrize("bits", [0x7F85845E, 0x7FC00000], ids=["signalling", "quiet"])
    def test_float32_nan_is_refused_without_a_warning(self, tmp_path, bits):
        # Casting a signalling NaN to float64 used to raise numpy's "invalid
        # value encountered in cast" RuntimeWarning ahead of the refusal.
        path = tmp_path / "nan.wav"
        path.write_bytes(wav_bytes(fmt=3, bits=32, payload=struct.pack("<fI", 0.25, bits)))
        with pytest.raises(InvalidInputError) as refused:
            read_wav(path)
        assert str(refused.value) == f"{path}: signal contains non-finite samples"

    @pytest.mark.parametrize(
        "fmt, bits, payload",
        [(1, 16, struct.pack("<4h", 0, 16384, -16384, 32767)),
         (3, 32, struct.pack("<4f", 0.25, -0.75, 1.5, -2.0))],
        ids=["pcm16", "float32"],
    )
    def test_extensible_matches_plain_header(self, tmp_path, fmt, bits, payload):
        plain, extensible = tmp_path / "plain.wav", tmp_path / "extensible.wav"
        plain.write_bytes(wav_bytes(fmt=fmt, channels=2, bits=bits, payload=payload))
        extensible.write_bytes(extensible_wav_bytes(fmt, bits, payload, channels=2))
        want, got = read_wav(plain), read_wav(extensible)
        assert got.sample_rate == want.sample_rate
        assert np.array_equal(got.samples, want.samples)

    def test_extensible_unknown_subformat_named(self, tmp_path):
        path = tmp_path / "odd.wav"
        path.write_bytes(extensible_wav_bytes(1, 16, b"\x00\x01", guid_tail=bytes(14)))
        with pytest.raises(WavFormatError, match="extensible"):
            read_wav(path)

    def test_multichannel_takes_first_channel(self, tmp_path):
        payload = struct.pack("<6h", 100, -100, 200, -200, 300, -300)
        path = tmp_path / "stereo.wav"
        path.write_bytes(wav_bytes(channels=2, payload=payload))
        loaded = read_wav(path)
        assert np.allclose(loaded.samples * 32768.0, [100, 200, 300])

    def test_zero_sample_file(self, tmp_path):
        path = tmp_path / "empty.wav"
        path.write_bytes(wav_bytes())  # 44-byte header, no payload
        with pytest.raises(WavFormatError, match="zero-length"):
            read_wav(path)

    def test_not_riff(self, tmp_path):
        path = tmp_path / "junk.wav"
        path.write_bytes(b"OggS" + b"\x00" * 60)
        with pytest.raises(WavFormatError, match="malformed"):
            read_wav(path)

    def test_missing_data_chunk(self, tmp_path):
        blob = wav_bytes()
        path = tmp_path / "nodata.wav"
        path.write_bytes(blob[:36])  # drop the data chunk header
        with pytest.raises(WavFormatError, match="missing"):
            read_wav(path)

    def test_truncated_data_chunk(self, tmp_path):
        blob = wav_bytes(payload=struct.pack("<4h", 1, 2, 3, 4))
        path = tmp_path / "cut.wav"
        path.write_bytes(blob[:-3])
        with pytest.raises(WavFormatError, match="truncated"):
            read_wav(path)

    def test_unsupported_encoding_named(self, tmp_path):
        path = tmp_path / "mulaw.wav"
        path.write_bytes(wav_bytes(fmt=7, bits=8, payload=b"\x00\x01"))
        with pytest.raises(WavFormatError, match="mu-law"):
            read_wav(path)
        path = tmp_path / "pcm8.wav"
        path.write_bytes(wav_bytes(fmt=1, bits=8, payload=b"\x00\x01"))
        with pytest.raises(WavFormatError, match="8-bit"):
            read_wav(path)

    def test_missing_file_is_os_error(self, tmp_path):
        with pytest.raises(OSError):
            read_wav(tmp_path / "absent.wav")


class TestChunkWalk:
    SAMPLES = np.array([0.0, 0.5, -0.5, 0.999, -1.0])

    @pytest.mark.parametrize("encoding", ["pcm16", "float32"])
    def test_data_after_odd_list_chunk_matches_plain(self, tmp_path, encoding):
        plain, listed = tmp_path / "plain.wav", tmp_path / "listed.wav"
        plain.write_bytes(encode_wav(self.SAMPLES, f"plain_{encoding}"))
        blob = encode_wav(self.SAMPLES, f"list_{encoding}")
        assert (blob.index(b"data") + 8) % 4 == 2  # the payload is not 4-byte aligned
        listed.write_bytes(blob)
        want, got = read_wav(plain), read_wav(listed)
        assert got.sample_rate == want.sample_rate
        assert np.array_equal(got.samples, want.samples)

    @pytest.mark.parametrize("layout", LAYOUTS)
    def test_samples_do_not_hold_the_file_bytes(self, tmp_path, layout):
        path = tmp_path / "owned.wav"
        path.write_bytes(encode_wav(self.SAMPLES, layout))
        samples = read_wav(path).samples
        assert samples.base is None and samples.flags.writeable


#: Values for a mutated chunk size: odd, one short or long, and far beyond the file.
SIZES = st.sampled_from([0, 1, 3, 15, 17, 39, 41, 2**31, 2**32 - 1]) | st.integers(0, 2**32 - 1)


@st.composite
def mutated_wav(draw):
    """A small valid WAV with its chunks reordered, padded out, resized or cut."""
    float32 = draw(st.booleans())
    fmt_code, bits = (3, 32) if float32 else (1, 16)
    channels = draw(st.sampled_from([1, 2]))
    samples = np.sin(np.arange(64) * draw(st.floats(0.05, 3.0))) * 0.5
    frames = np.repeat(samples, channels)
    payload = (frames.astype("<f4") if float32 else np.round(frames * 32767).astype("<i2")).tobytes()
    block = channels * bits // 8
    fmt = struct.pack("<HHIIHH", fmt_code, channels, 8000, 8000 * block, block, bits)
    chunks = [(b"fmt ", fmt), (b"data", payload)]
    if draw(st.booleans()):
        chunks.reverse()  # fmt after data
    if draw(st.booleans()):
        chunks.insert(draw(st.integers(0, 2)), (b"junk", draw(st.binary(max_size=9))))
    blob = bytearray(riff_bytes(*chunks))
    size_fields, offset = [4], 12
    for _, body in chunks:
        size_fields.append(offset + 4)
        offset += 8 + len(body) + (len(body) & 1)
    for _ in range(draw(st.integers(0, 2))):
        struct.pack_into("<I", blob, draw(st.sampled_from(size_fields)), draw(SIZES))
    for _ in range(draw(st.integers(0, 2))):
        blob[draw(st.integers(0, len(blob) - 1))] = draw(st.integers(0, 255))
    return bytes(blob[: draw(st.integers(0, len(blob)))] if draw(st.booleans()) else blob)


@settings(max_examples=600, deadline=None,
          suppress_health_check=[HealthCheck.function_scoped_fixture])
@given(victim=st.integers(0, 4), blob=mutated_wav())
def test_mutated_wav_never_escapes_exit_codes(tmp_path, capsys, victim, blob):
    targets = [sine(440, n=64), sine(1300, n=64)]
    files = [*targets, *reversed(targets), AudioSignal(targets[0].samples / 2, 8000)]
    paths = [tmp_path / f"{k}.wav" for k in range(5)]
    for path, signal in zip(paths, files):
        write_wav(path, signal)
    paths[victim].write_bytes(blob)
    code = main(["evaluate", "--targets", *map(str, paths[:2]),
                 "--estimates", *map(str, paths[2:4]), "--mixture", str(paths[4])])
    err = capsys.readouterr().err
    assert code in (0, 2, 4) and "Traceback" not in err
