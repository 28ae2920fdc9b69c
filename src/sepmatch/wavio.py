"""Minimal RIFF/WAV reader and writer.

Reads 16-bit PCM and 32-bit IEEE float payloads, from plain or
WAVE_FORMAT_EXTENSIBLE headers (first channel of multichannel files);
writes mono 16-bit PCM with no dithering. Kept dependency-free so the
error surface (malformed headers, named unsupported encodings) stays
exact.
"""

from __future__ import annotations

import struct
from pathlib import Path

import numpy as np

from .errors import WavFormatError
from .metrics import AudioSignal

_PCM = 1
_IEEE_FLOAT = 3
_EXTENSIBLE = 0xFFFE

#: Bytes 26..40 of an extensible fmt chunk: the sub-format GUID after its
#: leading format code, as in KSDATAFORMAT_SUBTYPE_PCM and _IEEE_FLOAT.
_SUBFORMAT_GUID_TAIL = bytes.fromhex("000000001000800000aa00389b71")

#: Decodable (format code, bits): payload dtype and its map to float64 samples.
_DECODERS = {
    (_PCM, 16): ("<i2", lambda frames: frames / 32768.0),
    (_IEEE_FLOAT, 32): ("<f4", lambda frames: np.clip(frames.astype(np.float64), -1.0, 1.0)),
}

#: Highest rate `write_wav` accepts: the 16-bit mono header stores the byte
#: rate, 2 x sample rate, as a u32.
MAX_WRITE_RATE = (2**32 - 1) // 2

_FORMAT_NAMES = {
    0x0000: "unknown",
    0x0001: "PCM",
    0x0002: "ADPCM",
    0x0003: "IEEE float",
    0x0006: "A-law",
    0x0007: "mu-law",
    0xFFFE: "extensible",
}


def read_wav(path) -> AudioSignal:
    """Read a WAV file into a mono AudioSignal.

    16-bit PCM samples are scaled by 1/32768; 32-bit float samples are
    clipped to [-1, 1]. A WAVE_FORMAT_EXTENSIBLE header with a standard
    sub-format GUID reads as its sub-format. Multichannel files yield the
    first channel. Any other encoding raises WavFormatError naming it; I/O
    problems surface as OSError.
    """
    path = Path(path)
    data = path.read_bytes()
    if len(data) < 12 or data[0:4] != b"RIFF" or data[8:12] != b"WAVE":
        raise WavFormatError(f"{path}: malformed header (not a RIFF/WAVE file)")
    fmt = None
    payload = None
    offset = 12
    while offset + 8 <= len(data):
        chunk_id = data[offset : offset + 4]
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
    if (audio_format, bits) not in _DECODERS:
        name = _FORMAT_NAMES.get(audio_format, f"format 0x{audio_format:04x}")
        raise WavFormatError(
            f"{path}: unsupported encoding: {name} with {bits}-bit samples "
            f"(supported: 16-bit PCM, 32-bit IEEE float)"
        )
    dtype, to_float = _DECODERS[audio_format, bits]
    width = bits // 8
    samples = to_float(np.frombuffer(payload[: len(payload) - len(payload) % width], dtype=dtype))
    if channels > 1:
        usable = (samples.size // channels) * channels
        samples = samples[:usable].reshape(-1, channels)[:, 0]
    if samples.size == 0:
        raise WavFormatError(f"{path}: zero-length file (header only, no samples)")
    return AudioSignal(np.ascontiguousarray(samples), int(sample_rate))


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
    quantized = np.clip(np.round(signal.samples * 32768.0), -32768, 32767).astype("<i2")
    payload = quantized.tobytes()
    header = struct.pack(
        "<4sI4s4sIHHIIHH4sI",
        b"RIFF",
        36 + len(payload),
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
        len(payload),
    )
    Path(path).write_bytes(header + payload)
