"""The audio signal type and its checks, the sample codec, and minimal RIFF/WAV I/O.

`AudioSignal` is a checked mono float64 buffer and its sample rate. Reads
16-bit PCM and 32-bit IEEE float payloads, from plain or
WAVE_FORMAT_EXTENSIBLE headers (first channel of multichannel files);
writes mono 16-bit PCM with no dithering. `parse_wav` checks a file and
returns its first-channel frames still encoded, as views of the file's
bytes, and `decode_frames` turns a row of frames (or of float64 samples)
into float64 samples in a caller's buffer, so a scorer decodes a slab at a
time. Kept dependency-free so the error surface (malformed headers, named
unsupported encodings) stays exact.
"""

from __future__ import annotations

import struct
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from .errors import EmptyInputError, InvalidInputError, WavFormatError


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


def _sample_rate(rate) -> int:
    """`rate` as an int, checked to be an integer value >= 1 (8000.0 gives 8000)."""
    if not (rate >= 1 and rate % 1 == 0):  # false for NaN; inf % 1 is NaN
        raise InvalidInputError(f"sample_rate must be an integer >= 1, got {rate!r}")
    return int(rate)


@dataclass(frozen=True, eq=False)
class AudioSignal:
    """Mono sample buffer plus its sample rate in Hz, an integer value >= 1."""

    samples: np.ndarray
    sample_rate: int

    def __post_init__(self) -> None:
        object.__setattr__(self, "samples", _samples(self.samples))
        object.__setattr__(self, "sample_rate", _sample_rate(self.sample_rate))

    def __len__(self) -> int:
        return self.samples.size

    @property
    def duration(self) -> float:
        return self.samples.size / self.sample_rate


def _check_aligned(signals) -> None:
    """Raise unless `signals` is non-empty and shares one sample rate and one length."""
    if not signals:
        raise EmptyInputError("no signals given")
    _check_rates(signals)
    _check_lengths(len(s) for s in signals)


def _check_rates(signals) -> None:
    rates = {s.sample_rate for s in signals}
    if len(rates) > 1:
        raise InvalidInputError(f"signals disagree on sample rate: {sorted(rates)}")


def _check_lengths(lengths) -> None:
    lengths = set(lengths)
    if len(lengths) > 1:
        raise InvalidInputError(f"signals disagree on length: {sorted(lengths)}")


_PCM = 1
_IEEE_FLOAT = 3
_EXTENSIBLE = 0xFFFE

#: Bytes 26..40 of an extensible fmt chunk: the sub-format GUID after its
#: leading format code, as in KSDATAFORMAT_SUBTYPE_PCM and _IEEE_FLOAT.
_SUBFORMAT_GUID_TAIL = bytes.fromhex("000000001000800000aa00389b71")


#: Decodable (format code, bits): the payload's frame dtype.
_FRAME_DTYPES = {(_PCM, 16): "<i2", (_IEEE_FLOAT, 32): "<f4"}

#: 16-bit PCM sample scale. Scaling by 2**-15 is exact, so it equals division by 32768.
_PCM16_SCALE = 2.0**-15


def decode_frames(frames: np.ndarray, out: np.ndarray) -> np.ndarray:
    """Write a row of 16-bit PCM, 32-bit float or float64 `frames` into `out` as float64.

    `out` has the frames' length. PCM samples are scaled by 1/32768, 32-bit
    floats clipped to [-1, 1] and float64 samples copied unclipped. Returns `out`.
    """
    if frames.dtype.kind == "i":
        return np.multiply(frames, _PCM16_SCALE, out=out)
    if frames.dtype == np.float64:
        out[...] = frames
        return out
    return np.clip(frames, -1.0, 1.0, out=out)


def frames_mean(frames: np.ndarray, scratch: np.ndarray) -> float:
    """The float64 mean of the decoded `frames`, as `mean()` of the decoded row gives it.

    A 16-bit row's sum is exact in int64, and so is every partial sum of
    k * 2**-15 in float64 (at most 46 significant bits), so the pairwise float
    sum equals the integer one and no decode is needed. A float64 row is
    averaged as it is; a 32-bit float row is decoded into `scratch` (float64,
    at least the frames' length) and summed there.
    """
    if frames.dtype.kind == "i":
        return frames.sum(dtype=np.int64) * _PCM16_SCALE / frames.size
    if frames.dtype == np.float64:
        return frames.mean()
    return decode_frames(frames, scratch[: frames.size]).mean()


#: Highest rate `write_wav` accepts: the 16-bit mono header stores the byte
#: rate, 2 x sample rate, as a u32.
MAX_WRITE_RATE = (2**32 - 1) // 2

#: Most samples one 16-bit mono WAV holds: the RIFF size, 36 + 2 x samples,
#: is a u32.
MAX_WAV_SAMPLES = (2**32 - 1 - 36) // 2

_FORMAT_NAMES = {
    0x0000: "unknown",
    0x0001: "PCM",
    0x0002: "ADPCM",
    0x0003: "IEEE float",
    0x0006: "A-law",
    0x0007: "mu-law",
    0xFFFE: "extensible",
}


def parse_wav(path) -> tuple[np.ndarray, int]:
    """Check a WAV file and return its first channel's frames and sample rate.

    The frames are a view of the file's bytes, still encoded: 16-bit PCM
    ("<i2") or 32-bit IEEE float ("<f4"); `decode_frames` turns them into
    samples. A WAVE_FORMAT_EXTENSIBLE header with a standard sub-format GUID
    reads as its sub-format. Any other encoding raises WavFormatError naming
    it, a float NaN in the first channel raises InvalidInputError naming the
    file, and I/O problems surface as OSError.
    """
    path = Path(path)
    data = memoryview(path.read_bytes())
    if len(data) < 12 or data[0:4] != b"RIFF" or data[8:12] != b"WAVE":
        raise WavFormatError(f"{path}: malformed header (not a RIFF/WAVE file)")
    fmt = None
    payload = None
    offset = 12
    while offset + 8 <= len(data):
        chunk_id = bytes(data[offset : offset + 4])
        (chunk_size,) = struct.unpack_from("<I", data, offset + 4)
        body = data[offset + 8 : offset + 8 + chunk_size]
        if len(body) < chunk_size:
            raise WavFormatError(f"{path}: malformed file (truncated {chunk_id!r} chunk)")
        if chunk_id == b"fmt ":
            if len(body) < 16:
                raise WavFormatError(f"{path}: malformed fmt chunk ({len(body)} bytes)")
            fmt = struct.unpack_from("<HHIIHH", body, 0)
            if fmt[0] == _EXTENSIBLE and len(body) >= 40 and body[26:40] == _SUBFORMAT_GUID_TAIL:
                fmt = (*struct.unpack_from("<H", body, 24), *fmt[1:])
        elif chunk_id == b"data":
            payload = body
        offset += 8 + chunk_size + (chunk_size & 1)  # chunks are word-aligned
    if fmt is None or payload is None:
        raise WavFormatError(f"{path}: malformed file (missing fmt or data chunk)")
    audio_format, channels, sample_rate, _byte_rate, _block_align, bits = fmt
    if channels < 1 or sample_rate < 1:
        raise WavFormatError(f"{path}: malformed fmt chunk (channels={channels}, rate={sample_rate})")
    if (audio_format, bits) not in _FRAME_DTYPES:
        name = _FORMAT_NAMES.get(audio_format, f"format 0x{audio_format:04x}")
        raise WavFormatError(
            f"{path}: unsupported encoding: {name} with {bits}-bit samples "
            f"(supported: 16-bit PCM, 32-bit IEEE float)"
        )
    width = bits // 8
    frames = np.frombuffer(payload[: len(payload) - len(payload) % width],
                           dtype=_FRAME_DTYPES[audio_format, bits])
    if channels > 1:
        frames = frames[: (frames.size // channels) * channels].reshape(-1, channels)[:, 0]
    if frames.size == 0:
        raise WavFormatError(f"{path}: zero-length file (header only, no samples)")
    # Kept though AVX-512 with numpy 2.4.6 raises no flag here: another CPU may raise one.
    with np.errstate(invalid="ignore"):  # comparing a signalling NaN may flag it
        if frames.dtype.kind == "f" and np.isnan(frames).any():
            raise InvalidInputError(f"{path}: signal contains non-finite samples")
    return frames, int(sample_rate)


def read_wav(path) -> AudioSignal:
    """Read a WAV file into a mono AudioSignal: `parse_wav`, then `decode_frames`.

    Multichannel files yield the first channel. Errors are those of `parse_wav`.
    """
    frames, sample_rate = parse_wav(path)
    return AudioSignal(decode_frames(frames, np.empty(frames.size)), sample_rate)


def write_wav(path, signal: AudioSignal) -> None:
    """Write a mono 16-bit PCM WAV (no dithering: plain round and clip).

    A signal in [-1, 1] round-trips through write/read within 1/32768 per
    sample. A sample rate above MAX_WRITE_RATE raises WavFormatError.
    """
    if signal.sample_rate > MAX_WRITE_RATE:
        raise WavFormatError(
            f"{path}: sample rate {signal.sample_rate} Hz does not fit a 16-bit WAV header "
            f"(max {MAX_WRITE_RATE} Hz)"
        )
    scaled = np.multiply(signal.samples, 32768.0)
    np.round(scaled, out=scaled)
    quantized = np.clip(scaled, -32768, 32767, out=scaled).astype("<i2")
    header = struct.pack(
        "<4sI4s4sIHHIIHH4sI",
        b"RIFF",
        36 + quantized.nbytes,
        b"WAVE",
        b"fmt ",
        16,
        _PCM,
        1,
        signal.sample_rate,
        signal.sample_rate * 2,  # byte rate: mono 16-bit
        2,
        16,
        b"data",
        quantized.nbytes,
    )
    with open(path, "wb") as out:
        out.write(header)
        out.write(quantized)
