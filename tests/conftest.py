import struct

import numpy as np
import pytest

from sepmatch import AudioSignal, SeparationInstance


def sine(freq, n=4000, rate=8000, amp=0.8, phase=0.0):
    t = np.arange(n) / rate
    return AudioSignal(amp * np.sin(2 * np.pi * freq * t + phase), rate)


def riff_bytes(*chunks):
    """A RIFF/WAVE file of (id, body) chunks, each padded to an even size."""
    body = b"WAVE" + b"".join(
        cid + struct.pack("<I", len(data)) + data + b"\0" * (len(data) & 1) for cid, data in chunks
    )
    return b"RIFF" + struct.pack("<I", len(body)) + body


#: The sub-format GUID of a WAVE_FORMAT_EXTENSIBLE header after its format code.
GUID_TAIL = bytes.fromhex("000000001000800000aa00389b71")

#: An odd-sized LIST chunk: its pad byte leaves the next chunk's body 2 mod 4.
LIST_CHUNK = (b"LIST", b"INFOISFT" + struct.pack("<I", 5) + b"abcd\0")


#: Every WAV layout read_wav decodes: plain and WAVE_FORMAT_EXTENSIBLE headers,
#: stereo with a trailing lone sample, a stray partial-sample tail, and a data
#: chunk behind an odd-sized LIST chunk.
LAYOUTS = tuple(
    f"{layout}_{encoding}"
    for layout in ("plain", "extensible", "stereo", "trailing", "list")
    for encoding in ("pcm16", "float32")
)


def encode_wav(samples, layout, rate=8000):
    """WAV bytes holding `samples` (in [-1, 1]) in one of `LAYOUTS`."""
    float32 = layout.endswith("float32")
    fmt_code, bits = (3, 32) if float32 else (1, 16)
    frames = samples.astype("<f4") if float32 else np.round(samples * 32767).astype("<i2")
    channels = 2 if layout.startswith("stereo") else 1
    if channels == 2:
        frames = np.stack([frames, frames[::-1]], axis=1)
    payload = frames.tobytes()
    if layout.startswith("stereo"):
        payload += payload[: bits // 8]
    if layout.startswith("trailing"):
        payload += b"\x01\x02\x03"[: bits // 8 - 1]
    block = channels * bits // 8
    header = (channels, rate, rate * block, block, bits)
    fmt = struct.pack("<HHIIHH", fmt_code, *header)
    if layout.startswith("extensible"):
        fmt = struct.pack("<HHIIHHHHIH14s", 0xFFFE, *header, 22, bits, 0, fmt_code, GUID_TAIL)
    chunks = [(b"fmt ", fmt), (b"data", payload)]
    if layout.startswith("list"):
        chunks.insert(1, LIST_CHUNK)
    return riff_bytes(*chunks)


def toy_instance(c=3, n=4000, rate=8000, noise=0.0, shuffle=None, seed=0):
    """Instance of c decorrelated sines; estimates are (optionally shuffled,
    optionally noisy) copies of the targets.

    estimates[j] corresponds to targets[shuffle[j]], so the planted optimal
    permutation is the inverse of `shuffle`.
    """
    rng = np.random.default_rng(seed)
    freqs = np.linspace(300.0, 1900.0, c)
    targets = [sine(f, n=n, rate=rate, phase=rng.uniform(0, 2 * np.pi)) for f in freqs]
    mixture = AudioSignal(sum(t.samples for t in targets) / c, rate)
    arrays = [t.samples.copy() for t in targets]
    if noise:
        arrays = [a + noise * rng.standard_normal(n) for a in arrays]
    if shuffle is not None:
        arrays = [arrays[k] for k in shuffle]
    estimates = [AudioSignal(a, rate) for a in arrays]
    return SeparationInstance(tuple(targets), tuple(estimates), mixture)


@pytest.fixture
def golden_matrix():
    # Enumerated optimum: permutation (1, 0, 2) with cost 1 + 2 + 2 = 5.
    return np.array([[4.0, 1.0, 3.0], [2.0, 0.0, 5.0], [3.0, 2.0, 2.0]])
