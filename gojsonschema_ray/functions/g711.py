"""G.711 mu-law / A-law companding — the telephony codecs of the audio
corpus world (call-center / voice datasets arrive as 8 kHz G.711 far more
often than as WAV).

Both directions are EXACT integer algorithms (ITU-T G.711 via the
public-domain Sun g711.c segment tables; the mu-law encoder is the 14-bit
ITU variant), fully vectorized:

- encode: sign/magnitude fold + one ``np.searchsorted`` against the 8
  segment boundaries + shift/mask algebra — no per-sample Python.
- decode: a 256-entry int16 lookup table built once at import from the
  scalar inverse formula, so decoding is a single fancy-index over the
  raw byte buffer (zero-copy when the caller hands us a uint8 view of an
  Arrow binary column).

Bit-exactness is pinned by tests against CPython's ``audioop`` C
implementation over all 65536 int16 inputs and all 256 code bytes
(``tests/test_g711.py``), plus codebook idempotence
(``encode(decode(code)) == code`` for every A-law byte and every mu-law
byte but one: mu-law 0x7F, negative zero, re-encodes as positive zero
0xFF, as in ``audioop``).

Reference framing: gojsonschema validates documents byte-for-byte
(/root/reference/validation.go); this module gives the audio axis the
same exactness for its wire format — transcode is deterministic, so
PCM-level invariant checks (SNR >= 30 dB vs reference decode) hold
across G.711-encoded corpora.
"""
from __future__ import annotations

import numpy as np

_BIAS14 = 33        # 0x84 >> 2 — the 14-bit mu-law bias
_CLIP14 = 8159      # 14-bit mu-law magnitude clip

# segment upper bounds: first index i with mag <= SEG[i] is the segment
_SEG_U14 = np.array([0x3F, 0x7F, 0xFF, 0x1FF, 0x3FF, 0x7FF, 0xFFF, 0x1FFF],
                    dtype=np.int32)
_SEG_A = np.array([0x1F, 0x3F, 0x7F, 0xFF, 0x1FF, 0x3FF, 0x7FF, 0xFFF],
                  dtype=np.int32)


def ulaw_encode(pcm: np.ndarray) -> np.ndarray:
    """int16 linear PCM -> mu-law bytes (uint8), ITU 14-bit variant.

    Bit-exact vs ``audioop.lin2ulaw(x, 2)`` for all 65536 inputs."""
    x = np.asarray(pcm).astype(np.int32) >> 2
    neg = x < 0
    mag = np.where(neg, -x, x)
    np.minimum(mag, _CLIP14, out=mag)
    mag += _BIAS14
    seg = np.searchsorted(_SEG_U14, mag).astype(np.int32)
    s = np.minimum(seg, 7)
    uval = np.where(seg >= 8, 0x7F, (s << 4) | ((mag >> (s + 1)) & 0xF))
    mask = np.where(neg, 0x7F, 0xFF)
    return (uval ^ mask).astype(np.uint8)


def _ulaw2lin_scalar(u: int) -> int:
    u = ~u & 0xFF
    t = ((u & 0x0F) << 3) + 0x84
    t <<= (u & 0x70) >> 4
    return (0x84 - t) if (u & 0x80) else (t - 0x84)


#: mu-law code byte -> int16 linear (exact audioop.ulaw2lin parity)
ULAW_LUT = np.array([_ulaw2lin_scalar(i) for i in range(256)],
                    dtype=np.int16)


def ulaw_decode(codes: np.ndarray) -> np.ndarray:
    """mu-law bytes (uint8 array / buffer view) -> int16 linear PCM."""
    return ULAW_LUT[np.asarray(codes, dtype=np.uint8)]


def alaw_encode(pcm: np.ndarray) -> np.ndarray:
    """int16 linear PCM -> A-law bytes (uint8), Sun g711.c algorithm
    (13-bit fold, seg<2 half-shift, 0x55/0xD5 sign masks).

    Bit-exact vs ``audioop.lin2alaw(x, 2)`` for all 65536 inputs."""
    x = np.asarray(pcm).astype(np.int32) >> 3
    neg = x < 0
    mag = np.where(neg, -x - 1, x)
    seg = np.searchsorted(_SEG_A, mag).astype(np.int32)
    s = np.minimum(seg, 7)
    shift = np.where(s < 2, 1, s)
    aval = np.where(seg >= 8, 0x7F, (s << 4) | ((mag >> shift) & 0xF))
    mask = np.where(neg, 0x55, 0xD5)
    return (aval ^ mask).astype(np.uint8)


def _alaw2lin_scalar(a: int) -> int:
    a ^= 0x55
    t = (a & 0x0F) << 4
    seg = (a & 0x70) >> 4
    if seg == 0:
        t += 8
    elif seg == 1:
        t += 0x108
    else:
        t = (t + 0x108) << (seg - 1)
    return t if (a & 0x80) else -t


#: A-law code byte -> int16 linear (exact audioop.alaw2lin parity)
ALAW_LUT = np.array([_alaw2lin_scalar(i) for i in range(256)],
                    dtype=np.int16)


def alaw_decode(codes: np.ndarray) -> np.ndarray:
    """A-law bytes (uint8 array / buffer view) -> int16 linear PCM."""
    return ALAW_LUT[np.asarray(codes, dtype=np.uint8)]


def decode_ulaw(blob: bytes, sr: int) -> tuple[np.ndarray, int]:
    """Decoder-table adapter: mu-law payload -> (int16 pcm, sr)."""
    return ULAW_LUT[np.frombuffer(blob, dtype=np.uint8)], sr


def decode_alaw(blob: bytes, sr: int) -> tuple[np.ndarray, int]:
    """Decoder-table adapter: A-law payload -> (int16 pcm, sr)."""
    return ALAW_LUT[np.frombuffer(blob, dtype=np.uint8)], sr


G711_ENCODERS = {"ulaw": ulaw_encode, "alaw": alaw_encode}
G711_LUTS = {"ulaw": ULAW_LUT, "alaw": ALAW_LUT}
