import struct

import numpy as np
import pytest

from sepmatch import AudioSignal, WavFormatError, read_wav, write_wav

from conftest import sine


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
