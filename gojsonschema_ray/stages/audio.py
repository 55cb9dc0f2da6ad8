"""PCM-level invariant checks on the audio `bytes` column — the reference's
`format` checker generalized to binary payloads (SURVEY.md §2.6; BASELINE.json
input_hint: "decoded-PCM allclose (SNR>=30dB) + transcript equality").

AudioInvariantChecker is a stateless batch payload, fused with the schema
predicates in pipelines.flagship (CombinedClipChecker). It and every other
audio stage decode through `decode_clips`, the one decode walk, so a clip
decodes the same way in every stage and for every Arrow column type. Audio
rows are wide: a small batch_size keeps batch × concurrent tasks inside the
worker heap.

Checks per row:
- decode:      bytes parse under the declared codec (wav container / raw s16le)
- pcm_length:  decoded sample count == sr_hz * min(dur_ms, cap)/1000
- snr:         >= 30 dB against a least-squares single-sine fit — the
               "reference decode" invariant for synthetic sine corpora.
               A screen fits sines at the peak of a 2n-point spectrum and
               at its whole-Hz rounding; a clip it does not clear gets
               the exact kernel (a 4x-padded, at least 4096-point peak
               search and fits at the peak ±0.3 pad bins and its
               rounding), whose SNR decides and is reported
- transcript:  byte-equality against the reference transcript when the clip_id
               encodes the generator row index (clip-<i>)

True codec work (mp3/opus/flac) needs external libs not present in this
container; those codecs raise CodecUnavailable and are emitted as `decode`
violations with expected="decodable codec" — the Ray-side plumbing (schema,
payload signature, batch sizing, violation layout) is real and tested.
"""

from __future__ import annotations

import math

import numpy as np
import pyarrow as pa
import pyarrow.compute as pc

from ..functions import g711


class CodecUnavailable(Exception):
    pass


def _decode_wav(blob, sr) -> tuple[np.ndarray, int]:
    """WAV container -> (int16 PCM view, the header's rate); `sr` unused."""
    return wav_payload_view(np.frombuffer(blob, np.uint8))


def decode_raw_s16le(blob, sr) -> tuple[np.ndarray, int]:
    b = np.frombuffer(blob, np.uint8)
    if len(b) % 2:
        raise ValueError("odd byte count for s16le payload")
    return _i16_view(b, 0, len(b)), sr


def base_decoders() -> dict:
    """The codec -> (blob, sr) -> (pcm, sr) dispatch table of
    `decode_clips`: container WAV, raw s16le, and the G.711 telephony pair
    (mu-law / A-law, exact ITU integer decode via 256-entry LUTs —
    functions/g711.py). `blob` is bytes or a uint8 view; the headerless
    codecs return the `sr` they are given, WAV its header's rate."""
    return {
        "wav": _decode_wav,
        "pcm_s16le": decode_raw_s16le,
        "ulaw": g711.decode_ulaw,
        "alaw": g711.decode_alaw,
    }


def _i16_view(b: np.ndarray, off: int, nbytes: int) -> np.ndarray:
    """int16 view over a uint8 slice, copying only when the slice start is
    odd-aligned (Arrow binary offsets are arbitrary)."""
    v = b[off:off + nbytes]
    if v.__array_interface__["data"][0] % 2 == 0:
        return v.view("<i2")
    return np.frombuffer(v.tobytes(), "<i2")


def _u32(b: np.ndarray, off: int) -> int:
    return int(b[off]) | int(b[off + 1]) << 8 | int(b[off + 2]) << 16 \
        | int(b[off + 3]) << 24


def wav_payload_view(b: np.ndarray) -> tuple[np.ndarray, int]:
    """Zero-copy RIFF/WAVE parse over a uint8 view → (int16 PCM view, sr).

    Accepts what stdlib `wave` accepts: malformed/truncated headers,
    non-PCM format tags and non-mono/non-16-bit formats raise ValueError
    (→ `decode`); a truncated data chunk returns the surviving whole
    samples (→ `pcm_length`) but an odd surviving byte count raises
    (→ `decode`)."""
    if len(b) < 12 or b[:4].tobytes() != b"RIFF" \
            or b[8:12].tobytes() != b"WAVE":
        raise ValueError("not a RIFF/WAVE container")
    pos = 12
    sr = None
    while pos + 8 <= len(b):
        tag = b[pos:pos + 4].tobytes()
        size = _u32(b, pos + 4)
        body = pos + 8
        if tag == b"fmt ":
            if size < 16 or body + 16 > len(b):
                raise ValueError("bad fmt chunk")
            fmt_tag = int(b[body]) | int(b[body + 1]) << 8
            if fmt_tag != 1:  # stdlib wave (3.11) rejects every non-PCM tag
                raise ValueError("expected PCM format tag")
            ch = int(b[body + 2]) | int(b[body + 3]) << 8
            bits = int(b[body + 14]) | int(b[body + 15]) << 8
            if ch != 1 or bits != 16:
                raise ValueError("expected mono s16")
            sr = _u32(b, body + 4)
        elif tag == b"data":
            if sr is None:
                raise ValueError("data chunk before fmt")
            avail = min(size, len(b) - body)
            if avail % 2:
                raise ValueError("odd byte count in data chunk")
            return _i16_view(b, body, avail), sr
        pos = body + size + (size & 1)
    raise ValueError("no data chunk")


def binary_column_views(col) -> tuple:
    """(offsets, flat uint8 data, is_null) of a payload column — the
    zero-copy alternative to `to_pylist()` (which materializes every
    payload as a Python bytes object; at audio widths that copy dominates
    the worker's memory traffic). A column that is not one `binary` array
    is first normalised to one: `pc.cast` for null, string, fixed-size and
    large binary; binary_view and string_view, which pyarrow 16 cannot
    cast, through one `pa.array(to_pylist())`."""
    arr = col.combine_chunks() if isinstance(col, pa.ChunkedArray) else col
    if pa.types.is_binary_view(arr.type) or pa.types.is_string_view(arr.type):
        arr = pa.array(arr.to_pylist(), pa.binary())
    elif not pa.types.is_binary(arr.type):
        arr = pc.cast(arr, pa.binary())
    bufs = arr.buffers()
    offs = np.frombuffer(bufs[1], np.int32, count=len(arr) + 1,
                         offset=arr.offset * 4)
    data = np.frombuffer(bufs[2], np.uint8) if bufs[2] is not None \
        else np.empty(0, np.uint8)
    return offs, data, arr.is_null().to_numpy(zero_copy_only=False)


def decode_clips(col, codecs: list):
    """The one decode walk of every audio stage: yields ``(i, pcm,
    file_sr, status)`` for each row of the payload column `col`, in order,
    decoding row i under ``codecs[i]`` (`base_decoders`).

    ``status`` is "ok", "null" (no payload), "codec" (no decoder for the
    row's codec) or the decode exception's type name; ``pcm`` (int16, a
    view of the Arrow buffer where alignment allows) and ``file_sr`` (the
    WAV header's rate, None for the headerless codecs) are None unless
    the row is ok. Each stage applies its own rate rule on top."""
    offs, data, isnull = binary_column_views(col)
    offs, isnull = offs.tolist(), isnull.tolist()
    decoders = base_decoders()
    for i, codec in enumerate(codecs):
        if isnull[i]:
            yield i, None, None, "null"
            continue
        dec = decoders.get(codec)
        if dec is None:
            yield i, None, None, "codec"
            continue
        try:
            pcm, file_sr = dec(data[offs[i]:offs[i + 1]], None)
        except Exception as e:  # noqa: BLE001 — any decode failure is a status
            yield i, None, None, type(e).__name__
            continue
        yield i, pcm, file_sr, "ok"


def _failed_row(schema: pa.Schema, clip_id) -> dict:
    """The row a degrade-to-row stage emits for a clip it cannot process:
    decode_ok False, every other column null."""
    return {**dict.fromkeys(schema.names), "clip_id": clip_id,
            "decode_ok": False}


_HANNING_CACHE: dict[int, np.ndarray] = {}
# bytes of one (m, nfft) float64 pad block of _peak_frequencies; m follows
# from it. The rfft output and its magnitudes are fresh temporaries of about
# the same size, and temporaries above glibc's mmap threshold re-fault on
# every call, which is slow where first-touch page faults are (CLAUDE.md
# fact 7 has the measurement behind this value), so blocks stay small.
_FFT_BLOCK_BYTES = 1 << 18
_PAD_CACHE: dict[int, list] = {}
_SCRATCH: dict[tuple, tuple] = {}
_IDX_CACHE: dict[int, np.ndarray] = {}


def _hanning(n: int) -> np.ndarray:
    w = _HANNING_CACHE.get(n)
    if w is None:
        w = np.hanning(n).astype(np.float32)
        _HANNING_CACHE[n] = w
    return w


def _nfft(n: int) -> int:
    """FFT size of the peak search: 4x zero padding, at least 4096."""
    return 1 << max(12, int(np.ceil(np.log2(4 * n))))


def _pad_block(n: int, nfft: int) -> np.ndarray:
    """(m, nfft) float64 pad buffer whose columns from n on are zero; the
    caller writes only columns [:n]. Reused per nfft while it fits the
    block budget; a one-row block for a longer nfft (a long clip's
    `pcm_features`) is fresh, so a worker keeps no buffer of that size."""
    m = _FFT_BLOCK_BYTES // (8 * nfft)
    if m <= 1:
        return np.zeros((1, nfft))
    e = _PAD_CACHE.get(nfft)
    if e is None:
        e = _PAD_CACHE[nfft] = [np.zeros((m, nfft)), 0]
    P, dirty = e  # columns [:dirty] may hold an earlier, longer signal
    if dirty > n:
        P[:, n:dirty] = 0
    e[1] = n
    return P


def _idx(n: int) -> np.ndarray:
    i = _IDX_CACHE.get(n)
    if i is None:
        i = np.arange(n, dtype=np.float32)
        _IDX_CACHE[n] = i
    return i


def _scratch(m: int, n: int) -> tuple:
    # per-worker reusable (W, S, C) float32 buffers — this VM's first-touch
    # page faults make fresh temporaries expensive (BASELINE.md note 7), and
    # the sin/cos basis is the bandwidth hot spot of the audio pass
    key = (m, n)
    s = _SCRATCH.get(key)
    if s is None:
        s = (np.empty((m, n), np.float32), np.empty((m, n), np.float32),
             np.empty((m, n), np.float32))
        if len(_SCRATCH) < 64:
            _SCRATCH[key] = s
    return s


def _peak_frequencies(X: np.ndarray, sr: int, nfft: int) -> np.ndarray:
    """FFT-peak frequency of each row of a (k, n) stack of mean-removed
    signals: Hann window, zero padding to nfft, magnitude argmax (DC
    excluded) + a 3-point parabola on the mainlobe, no parabola at Nyquist
    or on a flat top. One rfft per block of rows of the reused pad buffer.

    The windowed product is rounded to float32 (computed in float32 for
    float32 rows, in float64 for float64 rows) and the rfft runs in
    float64, so every row's frequency is bit-identical to a one-row call."""
    k, n = X.shape
    P = _pad_block(n, nfft)
    m = P.shape[0]
    h = _hanning(n)
    freq = np.empty(k)
    for r0 in range(0, k, m):
        b = min(m, k - r0)
        if X.dtype == np.float32:
            np.multiply(X[r0:r0 + b], h, out=P[:b, :n], dtype=np.float32)
        else:
            P[:b, :n] = np.multiply(X[r0:r0 + b], h).astype(np.float32)
        spec = np.abs(np.fft.rfft(P[:b], axis=1))
        top = spec.shape[1] - 1
        pk = np.argmax(spec[:, 1:], axis=1) + 1
        rows = np.arange(b)
        a = spec[rows, pk - 1]
        c = spec[rows, np.minimum(pk + 1, top)]
        denom = a - 2 * spec[rows, pk] + c
        with np.errstate(divide="ignore", invalid="ignore"):
            delta = np.where(denom != 0, 0.5 * (a - c) / denom, 0.0)
        delta = np.where(pk < top, np.clip(delta, -0.5, 0.5), 0.0)
        freq[r0:r0 + b] = (pk + delta) * sr / nfft
    return freq


def _peak_frequency(xf: np.ndarray, sr: int) -> float:
    """`_peak_frequencies` of one signal."""
    return float(_peak_frequencies(xf[None, :], sr, _nfft(len(xf)))[0])


def best_fit_sine_snr(x: np.ndarray, sr: int) -> float:
    """SNR (dB) of one clip against its least-squares best single-sine fit
    (`best_fit_sine_snr_batch` of one clip)."""
    return float(best_fit_sine_snr_batch([x], [sr], chunk=1)[0])


_XBUF: dict[tuple, np.ndarray] = {}


def _xbuf(k: int, n: int) -> np.ndarray:
    b = _XBUF.get((k, n))
    if b is None:
        b = np.empty((k, n), np.float32)
        if len(_XBUF) < 64:
            _XBUF[(k, n)] = b
    return b


def best_fit_sine_snr_batch(pcms: list, srs: list, chunk: int = 512
                            ) -> np.ndarray:
    """SNR (dB) of each clip against its least-squares best single-sine fit.

    Frequency from a zero-padded FFT peak (4x padding, at least 4096
    points, + parabolic interpolation on the smooth window mainlobe gives
    it to a small fraction of a bin, `_peak_frequencies`), then
    closed-form [sin, cos, 1] least-squares fits at the estimate
    ±0.3·pad_res and, where the estimate is near-integral, at the rounded
    frequency; the best fit wins. A pure sine scores very high; a
    corrupted or non-sinusoidal payload scores low.

    Clips are grouped by (length, sample rate) and each group runs as
    stacked passes of at most `chunk` rows. Every multi-megabyte buffer is
    cached and reused (_xbuf/_scratch/_pad_block): inside Ray workers,
    fresh numpy temporaries above glibc's mmap threshold are re-faulted on
    every batch, and first-touch page faults can be very slow (CLAUDE.md
    fact 7).

    float32 signal/basis with float64 solve: the sin/cos basis is the
    memory-bandwidth hot spot of the whole audio pass and float32 halves
    it. Precision floor: float32 phase error ~eps*|w| caps measurable SNR
    near ~67 dB — far above the 30 dB threshold, far below the scores of
    corrupted payloads. Entries shorter than 16 samples (or None/zero-rate)
    return -inf."""
    return _grouped_snr(_snr_group, pcms, srs, chunk)


def _screen_snr_batch(pcms: list, srs: list, chunk: int = 512
                      ) -> np.ndarray:
    """The verdict screen of AudioInvariantChecker: SNR (dB) of each clip
    against the better of two least-squares sine fits, at the peak of an
    unfloored 2n-point spectrum (the smallest power of two >= 2n) and at
    that peak rounded to whole Hz. Every value is a real fit's SNR, so it
    is a lower bound on the best single-sine fit; it may exceed
    `best_fit_sine_snr_batch`'s value where that kernel's candidates miss
    a better fit. Same grouping, buffers and -inf rows as that kernel."""
    return _grouped_snr(_screen_group, pcms, srs, chunk)


def _grouped_snr(group_fn, pcms: list, srs: list, chunk: int) -> np.ndarray:
    """Run `group_fn(X, sr, n, chunk)` over stacked, mean-removed float32
    passes of at most `chunk` clips of one (length, sample rate); rows
    under 16 samples or without a rate get -inf."""
    out = np.full(len(pcms), -np.inf)
    groups: dict[tuple, list] = {}
    for i, (p, s) in enumerate(zip(pcms, srs)):
        if p is not None and len(p) >= 16 and s:
            groups.setdefault((len(p), int(s)), []).append(i)
    for (n, sr), idxs in groups.items():
        for c0 in range(0, len(idxs), chunk):
            ii = idxs[c0:c0 + chunk]
            k = len(ii)
            X = _xbuf(chunk, n)[:k]
            for j, i in enumerate(ii):
                X[j] = pcms[i]
            X -= X.mean(axis=1, dtype=np.float64)[:, None].astype(np.float32)
            out[np.asarray(ii)] = group_fn(X, sr, n, chunk)
    return out


def _snr_group(X: np.ndarray, sr: int, n: int, scratch_k: int) -> np.ndarray:
    """SNR for a (k, n) stack of mean-removed float32 clips sharing one
    sample rate: batched FFT peaks, then batched closed-form fits at the
    estimate ±0.3·pad_res and, where the estimate is near-integral, the
    rounded frequency; max over candidates."""
    nfft = _nfft(n)
    pad_res = sr / nfft
    freq = _peak_frequencies(X, sr, nfft)
    r = np.round(freq)
    use_r = np.abs(freq - r) < 2 * pad_res  # 4th candidate gate
    return _sine_fit_snr(X, sr, (freq - 0.3 * pad_res, freq,
                                 freq + 0.3 * pad_res, r), scratch_k, use_r)


def _screen_group(X: np.ndarray, sr: int, n: int, scratch_k: int
                  ) -> np.ndarray:
    """`_screen_snr_batch` of one (k, n) stack: the 2n-point peak and its
    whole-Hz rounding, both fitted."""
    freq = _peak_frequencies(X, sr, 1 << (2 * n - 1).bit_length())
    return _sine_fit_snr(X, sr, (freq, np.round(freq)), scratch_k)


def _sine_fit_snr(X: np.ndarray, sr: int, cands: tuple, scratch_k: int,
                  use_last=None) -> np.ndarray:
    """The one sine-fit kernel: for each row of a (k, n) stack of
    mean-removed float32 clips and each (k,) candidate frequency array in
    `cands`, a closed-form [sin, cos, 1] least-squares fit (float32 basis,
    float64 3x3 solve) and its SNR; returns the max over candidates.
    `use_last`, a (k,) bool mask, drops the last candidate where False."""
    k, n = X.shape
    idx = _idx(n)
    energy = np.einsum("ij,ij->i", X, X, dtype=np.float64)
    Xsum = X.sum(axis=1, dtype=np.float64)
    best = np.full(k, -np.inf)
    # scratch keyed on the FULL chunk size so tail chunks reuse it too
    W, S, C = (b[:k] for b in _scratch(scratch_k, n))
    last = len(cands) - 1
    for j, f in enumerate(cands):
        np.multiply((2 * np.pi / sr * f).astype(np.float32)[:, None],
                    idx[None, :], out=W)
        np.sin(W, out=S)
        np.cos(W, out=C)
        G = np.empty((k, 3, 3))
        G[:, 0, 0] = np.einsum("ij,ij->i", S, S)
        G[:, 0, 1] = G[:, 1, 0] = np.einsum("ij,ij->i", S, C)
        G[:, 0, 2] = G[:, 2, 0] = S.sum(1)
        G[:, 1, 1] = np.einsum("ij,ij->i", C, C)
        G[:, 1, 2] = G[:, 2, 1] = C.sum(1)
        G[:, 2, 2] = n
        bv = np.stack([np.einsum("ij,ij->i", S, X),
                       np.einsum("ij,ij->i", C, X),
                       Xsum], axis=1).astype(np.float64)
        try:
            coef = np.linalg.solve(G, bv[..., None])[..., 0]
        except np.linalg.LinAlgError:
            coef = np.stack([np.linalg.lstsq(G[i], bv[i], rcond=None)[0]
                             for i in range(k)])
        fit = (coef * bv).sum(1)
        noise = np.maximum(energy - fit, 0.0)
        with np.errstate(divide="ignore"):
            snr = 10 * np.log10(np.maximum(fit, 1e-30)
                                / np.maximum(noise, 1e-30))
        best = np.maximum(best, np.where(use_last, snr, -np.inf)
                          if j == last and use_last is not None else snr)
    return best


def reference_transcript(i: int) -> str | None:
    from ..datagen import row_transcript

    return row_transcript(i)


class AudioInvariantChecker:
    """map_batches payload emitting violation rows (F4 schema).

    The `snr` verdict is decided in two stages. Every clip first goes
    through the screen (`_screen_snr_batch`: a 2n-point peak search and two
    sine fits); a clip it scores at or above `snr_db` passes. Only the
    clips it does not clear pay the exact kernel (`best_fit_sine_snr_batch`,
    the padded peak search and its candidate fits), whose SNR decides the
    verdict and is what a flagged row reports. So a clip passes when any
    least-squares single-sine fit the engine tries reaches `snr_db`: next
    to the exact kernel alone, a verdict can only move from fail to pass,
    and only where the screen found a better fit than the exact kernel's
    candidates. Callers that report SNR values (`best_fit_sine_snr`,
    `pcm_features`, the `clips_audio_*` stages) use the exact kernel."""

    def __init__(self, snr_db: float = 30.0, audio_cap_ms: int = 50,
                 check_transcript: bool = True):
        self.snr_db = snr_db
        self.audio_cap_ms = audio_cap_ms
        self.check_transcript = check_transcript

    def _length_checked(self, clip_id, pcm, sr, dur_ms, out):
        expected_n = int(sr * min(dur_ms, self.audio_cap_ms) / 1000) \
            if dur_ms is not None and sr is not None else None
        if expected_n is not None and len(pcm) != expected_n:
            out.append((clip_id, "pcm_length", "(root).bytes",
                        f"{expected_n} samples", f"{len(pcm)} samples"))
            return None
        return pcm

    def __call__(self, batch: pa.Table) -> pa.Table:
        ids = batch["clip_id"].to_pylist()
        srs = batch["sr_hz"].to_pylist()
        durs = batch["dur_ms"].to_pylist()
        codecs = batch["codec"].to_pylist()
        txts = batch["transcript"].to_pylist() if "transcript" in batch.column_names \
            else [None] * batch.num_rows
        out: list[tuple] = []
        n = batch.num_rows
        # phase 1: decode status + structural checks + transcript equality;
        # collect decodable PCM for the batched SNR kernel (82% of per-clip
        # cost — one vectorized pass over the whole batch instead of ~30
        # numpy calls per clip)
        pcms: list = [None] * n
        snr_srs: list = [None] * n
        for i, pcm, _, status in decode_clips(batch["bytes"], codecs):
            clip_id, sr, codec = ids[i], srs[i], codecs[i]
            if status == "null":
                out.append((clip_id, "required", "(root).bytes",
                            "required bytes", ""))
                continue
            if status == "codec":
                out.append((clip_id, "decode", "(root).bytes",
                            "decodable codec", str(codec)))
                continue
            if status != "ok":
                out.append((clip_id, "decode", "(root).bytes",
                            f"{codec} decodes", status))
                continue
            if self._length_checked(clip_id, pcm, sr, durs[i], out) is None:
                continue
            pcms[i] = pcm
            snr_srs[i] = sr
            if self.check_transcript and isinstance(clip_id, str) \
                    and clip_id.startswith("clip-") and clip_id[5:].isdigit():
                ref = reference_transcript(int(clip_id[5:]))
                if ref is not None and txts[i] != ref:
                    out.append((clip_id, "transcript", "(root).transcript",
                                "reference transcript",
                                "" if txts[i] is None else txts[i][:64]))
        # phase 2: the SNR verdict, screen first. Null/zero sr rows and
        # rows under 16 samples can't be SNR-fit (both kernels return -inf
        # for them) — don't misreport that as a spurious 'snr' violation;
        # sr_hz schema checks own it. Only clips the screen does not clear
        # run the exact kernel, whose value decides and is reported (a NaN
        # screen value clears nothing).
        if any(p is not None for p in pcms):
            screen = _screen_snr_batch(pcms, snr_srs)
            low = [i for i in range(n)
                   if pcms[i] is not None and snr_srs[i]
                   and len(pcms[i]) >= 16 and not screen[i] >= self.snr_db]
            exact = best_fit_sine_snr_batch([pcms[i] for i in low],
                                            [snr_srs[i] for i in low])
            for i, snr in zip(low, exact):
                if snr < self.snr_db:
                    out.append((ids[i], "snr", "(root).bytes",
                                f">= {self.snr_db} dB", f"{snr:.1f} dB"))
        from .validate import VIOLATION_SCHEMA

        if not out:
            return VIOLATION_SCHEMA.empty_table()
        cols = list(zip(*out))
        return pa.table(
            [pa.array([str(c) if c is not None else "" for c in col])
             for col in cols],
            schema=VIOLATION_SCHEMA,
        )


_FS = 32767.0  # datagen encodes amplitude relative to int16 positive FS


def pcm_features(pcm: np.ndarray, sr: int) -> dict:
    """Per-clip audio features over decoded int16 PCM — the filter/bucket
    signals of a training-data audio pipeline (silence gating by RMS,
    clipping rejection, tone/voicing proxies). All numpy over the clip:
    one float64 copy, one rFFT; no sample-level Python.

    Returns rms_dbfs, peak_dbfs (dB re. int16 full scale), zcr_hz (zero
    crossings per second), spectral_centroid_hz (magnitude-weighted rFFT
    mean, DC excluded), clipped_frac (samples at |FS|), est_freq_hz (padded
    FFT peak — _peak_frequency)."""
    n = len(pcm)
    if n == 0:
        return {"n_samples": 0, "rms_dbfs": None, "peak_dbfs": None,
                "zcr_hz": None, "spectral_centroid_hz": None,
                "clipped_frac": None, "est_freq_hz": None}
    xf = pcm.astype(np.float64)
    rms = float(np.sqrt(np.mean(xf * xf)))
    peak = float(np.max(np.abs(xf)))
    with np.errstate(divide="ignore"):
        rms_dbfs = float(20 * np.log10(max(rms, 1e-12) / _FS))
        peak_dbfs = float(20 * np.log10(max(peak, 1e-12) / _FS))
    signs = np.signbit(xf)
    crossings = int(np.count_nonzero(signs[1:] != signs[:-1]))
    zcr_hz = crossings * sr / (2.0 * n)  # crossing pairs per second
    spec = np.abs(np.fft.rfft(xf - xf.mean()))
    freqs = np.fft.rfftfreq(n, d=1.0 / sr)
    mass = float(spec[1:].sum())
    centroid = float((freqs[1:] * spec[1:]).sum() / mass) if mass > 0 else 0.0
    # count on the float copy: np.abs over int16 would wrap at -32768
    clipped = int(np.count_nonzero(np.abs(xf) >= _FS))
    est = _peak_frequency(xf - xf.mean(), sr) if n >= 16 else None
    return {"n_samples": n, "rms_dbfs": rms_dbfs, "peak_dbfs": peak_dbfs,
            "zcr_hz": float(zcr_hz), "spectral_centroid_hz": centroid,
            "clipped_frac": clipped / n,
            "est_freq_hz": None if est is None else float(est)}


FEATURE_SCHEMA = pa.schema([
    ("clip_id", pa.string()),
    ("decode_ok", pa.bool_()),
    ("n_samples", pa.int64()),
    ("rms_dbfs", pa.float64()),
    ("peak_dbfs", pa.float64()),
    ("zcr_hz", pa.float64()),
    ("spectral_centroid_hz", pa.float64()),
    ("clipped_frac", pa.float64()),
    ("est_freq_hz", pa.float64()),
])


class AudioFeatureStage:
    """Actor-pool map_batches payload: decode + per-clip feature extraction.

    Same deployment shape as AudioInvariantChecker (the `decode_clips`
    walk, small batches — audio rows are wide); a row that fails to decode
    or to compute emits decode_ok=False with null features instead of
    failing the batch, so a corrupt shard degrades to filterable rows, not
    a dead task."""

    def __init__(self, audio_cap_ms: int | None = None):
        self.audio_cap_ms = audio_cap_ms

    def __call__(self, batch: pa.Table) -> pa.Table:
        ids = batch["clip_id"].to_pylist()
        srs = batch["sr_hz"].to_pylist()
        rows = []
        for i, pcm, file_sr, _ in decode_clips(batch["bytes"],
                                               batch["codec"].to_pylist()):
            try:
                feat = None if pcm is None \
                    else pcm_features(pcm, int(file_sr or srs[i]))
            except Exception:  # noqa: BLE001 — compute failure → row
                feat = None
            rows.append(_failed_row(FEATURE_SCHEMA, ids[i]) if feat is None
                        else {"clip_id": ids[i], "decode_ok": True, **feat})
        return pa.Table.from_pylist(rows, schema=FEATURE_SCHEMA)


# ---------------------------------------------------------------------------
# audio TRANSFORMS — resample / normalize / trim (pure numpy, no codecs)
# ---------------------------------------------------------------------------
def resample_linear(pcm: np.ndarray, sr_in: int, sr_out: int) -> np.ndarray:
    """Linear-interpolation resampler over int16 PCM (the cheap baseline
    for mixed-rate corpora; `resample_sinc` below is the quality path
    behind the same signature). Output length = round(n * sr_out / sr_in);
    sample t of the
    output reads input position t * sr_in / sr_out (np.interp — one
    vectorized pass, no sample-level Python). Deterministic."""
    if sr_in <= 0 or sr_out <= 0:
        raise ValueError(f"resample_linear: bad rates {sr_in}->{sr_out}")
    n = len(pcm)
    if n == 0 or sr_in == sr_out:
        return pcm
    out_n = int(round(n * sr_out / sr_in))
    if out_n == 0:
        return pcm[:0]
    pos = np.arange(out_n, dtype=np.float64) * (sr_in / sr_out)
    y = np.interp(pos, np.arange(n, dtype=np.float64),
                  pcm.astype(np.float64))
    return np.clip(np.rint(y), -32768, 32767).astype(np.int16)


def _kaiser(x: np.ndarray, half_width: float, beta: float) -> np.ndarray:
    """Kaiser window evaluated at arbitrary offsets `x` (samples from the
    filter center), zero outside ±half_width. np.i0 is the vectorized
    modified Bessel I0 — no scipy needed."""
    r = x / half_width
    inside = np.abs(r) < 1.0
    w = np.zeros_like(x)
    w[inside] = np.i0(beta * np.sqrt(1.0 - r[inside] ** 2)) / np.i0(beta)
    return w


def resample_sinc(pcm: np.ndarray, sr_in: int, sr_out: int, *,
                  num_zeros: int = 16, beta: float = 8.6,
                  rolloff: float = 0.945) -> np.ndarray:
    """Kaiser windowed-sinc resampler — the QUALITY path next to
    `resample_linear` (same length contract: out_n = round(n*sr_out/sr_in)).

    Direct-form polyphase evaluation: each output sample at fractional
    input position p sums 2*num_zeros neighbouring inputs weighted by
    cutoff*sinc(cutoff*(k-frac))*kaiser(k-frac), with cutoff =
    rolloff*min(1, ratio) so downsampling low-passes below the TARGET
    Nyquist (alias suppression ~ -90 dB at beta 8.6; linear interpolation
    has none). Fully vectorized: one (out_n, 2*num_zeros) gather + weight
    matrix per chunk, no per-sample Python; chunked so the float64
    temporaries stay bounded per the module's memory discipline
    (CLAUDE.md invariant 7: bound temporaries on this VM).

    Deterministic; zero-padded edges (first/last ~num_zeros samples carry
    the usual transient)."""
    if sr_in <= 0 or sr_out <= 0:
        raise ValueError(f"resample_sinc: bad rates {sr_in}->{sr_out}")
    n = len(pcm)
    if n == 0 or sr_in == sr_out:
        return pcm
    out_n = int(round(n * sr_out / sr_in))
    if out_n == 0:
        return pcm[:0]
    ratio = sr_out / sr_in
    cutoff = rolloff * min(1.0, ratio)
    half = num_zeros / cutoff          # filter half-width in input samples
    k_lo, k_hi = int(np.floor(-half)) + 1, int(np.ceil(half))
    taps = np.arange(k_lo, k_hi + 1, dtype=np.float64)
    pad = int(np.ceil(half)) + 1
    xf = np.zeros(n + 2 * pad, dtype=np.float64)
    xf[pad:pad + n] = pcm
    out = np.empty(out_n, dtype=np.float64)
    step = max(1, int(2_000_000 / max(len(taps), 1)))   # ~16 MB f64 temps
    for lo in range(0, out_n, step):
        hi = min(lo + step, out_n)
        pos = np.arange(lo, hi, dtype=np.float64) * (sr_in / sr_out)
        i0 = np.floor(pos)
        frac = (pos - i0)[:, None]
        off = taps[None, :] - frac                  # offsets from center
        w = cutoff * np.sinc(cutoff * off) * _kaiser(off, half, beta)
        idx = i0.astype(np.int64)[:, None] + taps.astype(np.int64)[None, :]
        out[lo:hi] = np.einsum("ij,ij->i", xf[idx + pad], w)
    return np.clip(np.rint(out), -32768, 32767).astype(np.int16)


def normalize_gain(pcm: np.ndarray, target_dbfs: float = -3.0,
                   mode: str = "peak") -> tuple[np.ndarray, float]:
    """Scale a clip so its peak (or RMS) sits at `target_dbfs` re. int16
    full scale — loudness leveling before feature extraction / training.
    Returns (pcm_out, gain_db). All-zero clips pass through at gain 0 dB;
    samples clip at int16 bounds (RMS mode can exceed full scale)."""
    if mode not in ("peak", "rms"):
        raise ValueError(f"normalize_gain: mode={mode!r}")
    xf = pcm.astype(np.float64)
    if not len(xf):  # e.g. an all-silent clip trimmed to empty upstream
        return pcm, 0.0
    ref = float(np.max(np.abs(xf))) if mode == "peak" \
        else float(np.sqrt(np.mean(xf * xf)))
    if ref <= 0.0:
        return pcm, 0.0
    g = (_FS * 10.0 ** (target_dbfs / 20.0)) / ref
    out = np.clip(np.rint(xf * g), -32768, 32767).astype(np.int16)
    return out, float(20.0 * np.log10(g))


def trim_silence(pcm: np.ndarray, sr: int, threshold_dbfs: float = -40.0,
                 frame_ms: int = 10) -> tuple[np.ndarray, int, int]:
    """Drop leading/trailing silence: frame the clip at `frame_ms`, keep
    from the first to the last frame whose RMS reaches `threshold_dbfs`
    re. int16 full scale. Returns (pcm_out, lead_frames, trail_frames)
    in trimmed FRAME counts (ms = frames * frame_ms). An all-silent clip
    trims to empty. Vectorized: one reshape + one per-frame RMS."""
    n = len(pcm)
    if n == 0:
        return pcm, 0, 0
    flen = max(1, int(sr * frame_ms / 1000))
    nf = n // flen
    if nf == 0:
        nf, flen = 1, n
    xf = pcm[:nf * flen].astype(np.float64).reshape(nf, flen)
    rms = np.sqrt(np.mean(xf * xf, axis=1))
    thresh = _FS * 10.0 ** (threshold_dbfs / 20.0)
    loud = np.flatnonzero(rms >= thresh)
    if not len(loud):
        return pcm[:0], nf, 0
    lead, last = int(loud[0]), int(loud[-1])
    trail = nf - 1 - last
    # keep the tail remainder (< one frame) when the last frame is loud
    end = n if trail == 0 else (last + 1) * flen
    return pcm[lead * flen:end], lead, trail


TRANSFORM_SCHEMA = pa.schema([
    ("clip_id", pa.string()),
    ("decode_ok", pa.bool_()),
    ("sr_hz", pa.int64()),
    ("n_samples_in", pa.int64()),
    ("n_samples_out", pa.int64()),
    ("gain_db", pa.float64()),
    ("lead_trim_ms", pa.int64()),
    ("trail_trim_ms", pa.int64()),
    ("codec", pa.string()),
    ("bytes", pa.binary()),
])


class AudioTransformStage:
    """Actor-pool map_batches payload: decode → trim silence → resample →
    normalize gain, emitting pcm_s16le rows ready for the next stage (the
    standardize-the-corpus pass of an audio training pipeline; ops are
    applied in that fixed order and each is optional).

    Same deployment shape as AudioFeatureStage: the `decode_clips` walk,
    decode failures and rows without sr_hz degrade to decode_ok=False
    rows with null payload instead of a dead task.
    Scale note: output bytes ~= input bytes * (target_sr / sr) — size
    batch_size so decoded float64 temporaries (n * 8 bytes * batch) fit
    the worker heap."""

    def __init__(self, target_sr: int | None = None,
                 target_dbfs: float | None = None, gain_mode: str = "peak",
                 trim_threshold_dbfs: float | None = None,
                 frame_ms: int = 10, target_codec: str = "pcm_s16le",
                 resampler: str = "linear"):
        if target_sr is not None and target_sr <= 0:
            raise ValueError(f"AudioTransformStage: target_sr={target_sr}")
        if resampler not in ("linear", "sinc"):
            raise ValueError(f"AudioTransformStage: resampler={resampler!r}")
        self.resample = resample_linear if resampler == "linear" \
            else resample_sinc
        if target_codec != "pcm_s16le" \
                and target_codec not in g711.G711_ENCODERS:
            raise ValueError(
                f"AudioTransformStage: target_codec={target_codec!r} "
                "(pcm_s16le, ulaw, alaw)")
        self.target_codec = target_codec
        self.target_sr = target_sr
        self.target_dbfs = target_dbfs
        self.gain_mode = gain_mode
        self.trim_threshold_dbfs = trim_threshold_dbfs
        self.frame_ms = frame_ms

    def __call__(self, batch: pa.Table) -> pa.Table:
        ids = batch["clip_id"].to_pylist()
        srs = batch["sr_hz"].to_pylist()
        rows = []
        for i, pcm, file_sr, _ in decode_clips(batch["bytes"],
                                               batch["codec"].to_pylist()):
            cid, sr = ids[i], srs[i]
            if pcm is None or not sr:
                rows.append(_failed_row(TRANSFORM_SCHEMA, cid))
                continue
            cur_sr = int(file_sr or sr)
            n_in = len(pcm)
            lead = trail = 0
            if self.trim_threshold_dbfs is not None:
                pcm, lead, trail = trim_silence(
                    pcm, cur_sr, self.trim_threshold_dbfs, self.frame_ms)
            if self.target_sr is not None and cur_sr != self.target_sr:
                pcm = self.resample(pcm, cur_sr, self.target_sr)
                cur_sr = self.target_sr
            gain_db = 0.0
            if self.target_dbfs is not None:
                pcm, gain_db = normalize_gain(pcm, self.target_dbfs,
                                              self.gain_mode)
            rows.append({
                "clip_id": cid, "decode_ok": True, "sr_hz": cur_sr,
                "n_samples_in": n_in, "n_samples_out": len(pcm),
                "gain_db": gain_db,
                "lead_trim_ms": lead * self.frame_ms,
                "trail_trim_ms": trail * self.frame_ms,
                "codec": self.target_codec,
                "bytes": g711.G711_ENCODERS[self.target_codec](pcm).tobytes()
                if self.target_codec != "pcm_s16le"
                else np.ascontiguousarray(pcm).tobytes(),
            })
        return pa.Table.from_pylist(rows, schema=TRANSFORM_SCHEMA)


# ---------------------------------------------------------------------------
# audio FINGERPRINTS — content-level duplicate detection for clip corpora
# (the multimodal member of the dedup family: dedup by what the audio IS,
# not what its container bytes are — re-encoded/gain-shifted copies match)
# ---------------------------------------------------------------------------
def energy_fingerprint(pcm: np.ndarray, frames: int = 33) -> int:
    """Gain-invariant energy-contour fingerprint of one decoded clip: the
    PCM splits into `frames` equal frames, each frame's log-energy is
    taken, and the SIGNS of successive log-energy deltas binarize into a
    (frames-1)-bit integer. A constant gain multiplies every frame energy
    by the same factor — a constant shift in log — so the deltas, and the
    fingerprint, are unchanged (the chromaprint idea on one band).
    Deterministic; near-flat contours (pure steady tones) sit at the
    decision boundary and may flip bits under requantization — this is an
    EXACT-group fingerprint, not a perceptual distance.

    Clips shorter than `frames` samples fingerprint to 0."""
    n = len(pcm)
    if n < frames:
        return 0
    m = (n // frames) * frames
    x = pcm[:m].astype(np.float64).reshape(frames, -1)
    e = np.log(np.einsum("ij,ij->i", x, x) + 1e-9)
    bits = (np.diff(e) > 0).astype(np.uint64)
    return int((bits << np.arange(frames - 1, dtype=np.uint64)).sum())


FINGERPRINT_SCHEMA = pa.schema([
    ("clip_id", pa.string()),
    ("decode_ok", pa.bool_()),
    ("fp", pa.uint64()),
    ("n_samples", pa.int64()),
])


class AudioFingerprintStage:
    """Actor-pool map_batches payload: decode (`decode_clips`) + one
    fingerprint per clip. Same degrade-to-rows error
    contract as AudioFeatureStage — a corrupt clip emits decode_ok=False,
    never a dead task."""

    def __init__(self, frames: int = 33):
        self.frames = frames

    def __call__(self, batch: pa.Table) -> pa.Table:
        ids = batch["clip_id"].to_pylist()
        rows = []
        for i, pcm, _, _ in decode_clips(batch["bytes"],
                                         batch["codec"].to_pylist()):
            rows.append(_failed_row(FINGERPRINT_SCHEMA, ids[i]) if pcm is None
                        else {"clip_id": ids[i], "decode_ok": True,
                              "fp": energy_fingerprint(pcm, self.frames),
                              "n_samples": len(pcm)})
        return pa.Table.from_pylist(rows, schema=FINGERPRINT_SCHEMA)


def near_duplicate_audio(ds, *, max_hamming: int = 3,
                         concurrency=(1, 8), batch_size: int = 256,
                         bucket_cap: int | None = None):
    """Near-duplicate clip pairs by Hamming distance over 64-bit
    energy-contour fingerprints — the audio member of the near-dup family
    (text: `dedup.simhash_near_duplicates`; embeddings: hyperplane LSH).
    frames=65 yields a 64-bit code and the 4×16-bit band pigeonhole
    guarantees every pair at hamming ≤ 3 shares at least one band bucket —
    the SAME guarantee, keyed exchange, and vectorized XOR+popcount verify
    as the simhash path (dedup.pairs_by_partition / _simhash_band_pairs).
    Undecodable clips are excluded. Returns (id_a, id_b, hamming, capped)."""
    from .dedup import (DEFAULT_BUCKET_CAP, _simhash_band_pairs,
                        pairs_by_partition, unique_pairs)

    cap = DEFAULT_BUCKET_CAP if bucket_cap is None else bucket_cap
    fps = ds.map_batches(AudioFingerprintStage,
                         fn_constructor_kwargs=dict(frames=65),
                         batch_size=batch_size, batch_format="pyarrow",
                         concurrency=concurrency)

    def to_bands(t: pa.Table) -> pa.Table:
        t = t.filter(pc.fill_null(t["decode_ok"], False))
        h = t["fp"].to_numpy(zero_copy_only=False).astype(np.uint64)
        n = len(h)
        keys = np.empty(4 * n, dtype=np.int64)
        for band in range(4):
            chunk = (h >> np.uint64(band * 16)) & np.uint64(0xFFFF)
            keys[band * n:(band + 1) * n] = (band << 16) \
                | chunk.astype(np.int64)
        idx = pa.array(np.tile(np.arange(n), 4), type=pa.int64())
        return pa.table({
            "key": pa.array(keys),
            "clip_id": t["clip_id"].take(idx),
            "simhash": pa.array(np.tile(h, 4).view(np.int64)),
        })

    sig = fps.map_batches(to_bands, batch_format="pyarrow")
    pairs = pairs_by_partition(
        sig, lambda g: _simhash_band_pairs(g, "clip_id", max_hamming,
                                           cap=cap))
    return unique_pairs(pairs)


def duplicate_audio_groups(ds, *, frames: int = 33, min_count: int = 2,
                           concurrency=(1, 8), batch_size: int = 256):
    """(fp, n) groups of content-duplicate audio clips — fingerprint every
    clip (actor-pool decode stage), then the engine's ONE coarse hash
    exchange counts fingerprints corpus-wide (uniqueness.KeyCountStage
    partials + aggregate_key_counts, skew-proof by construction). Undecodable
    clips are excluded (they have no content to match). The returned groups
    are duplicate-bounded; join them back by fp to enumerate members or
    keep-first, exactly as the text dedup family does."""
    from .uniqueness import KeyCountStage, aggregate_key_counts

    fps = ds.map_batches(AudioFingerprintStage,
                         fn_constructor_kwargs=dict(frames=frames),
                         batch_size=batch_size, batch_format="pyarrow",
                         concurrency=concurrency)
    ok = fps.map_batches(
        lambda t: t.filter(pc.fill_null(t["decode_ok"], False)),
        batch_format="pyarrow")
    partials = ok.map_batches(KeyCountStage("fp"), batch_format="pyarrow")
    return aggregate_key_counts(partials, "fp", min_count=min_count)


# ---------------------------------------------------------------------------
# energy-based activity segmentation (VAD-style silence curation)
# ---------------------------------------------------------------------------
def activity_segments(pcm: np.ndarray, sr: int, *, frame_ms: int = 20,
                      threshold_dbfs: float = -40.0,
                      hang_frames: int = 2) -> dict:
    """Energy-based speech/activity segmentation of one clip — the
    silence-curation signal (drop clips that are mostly dead air, split
    on long pauses): frame RMS against `threshold_dbfs` re. int16 full
    scale, with a `hang_frames` hangover (gaps of <= hang_frames silent
    frames stay inside a segment, the standard VAD smoothing so plosive
    gaps don't fragment speech). Vectorized: one reshape, one per-frame
    RMS, flatnonzero arithmetic on active-frame indices — no per-frame
    Python loop.

    Returns n_frames, n_active_frames, active_ratio, n_segments,
    longest_ms and total_active_ms (segment span including bridged
    gaps)."""
    n = len(pcm)
    flen = max(1, int(sr * frame_ms / 1000))
    nf = n // flen
    if nf == 0:
        return {"n_frames": 0, "n_active_frames": 0, "active_ratio": 0.0,
                "n_segments": 0, "longest_ms": 0.0, "total_active_ms": 0.0}
    xf = pcm[:nf * flen].astype(np.float64).reshape(nf, flen)
    rms = np.sqrt(np.mean(xf * xf, axis=1))
    thresh = _FS * 10.0 ** (threshold_dbfs / 20.0)
    act = np.flatnonzero(rms >= thresh)
    if not len(act):
        return {"n_frames": int(nf), "n_active_frames": 0,
                "active_ratio": 0.0, "n_segments": 0, "longest_ms": 0.0,
                "total_active_ms": 0.0}
    # a new segment starts where the gap to the previous active frame
    # exceeds the hangover
    brk = np.ones(len(act), dtype=bool)
    brk[1:] = np.diff(act) > hang_frames + 1
    starts = act[brk]
    ends = np.concatenate([act[np.nonzero(brk)[0][1:] - 1], act[-1:]])
    lens_ms = (ends - starts + 1) * frame_ms
    return {"n_frames": int(nf), "n_active_frames": int(len(act)),
            "active_ratio": float(len(act) / nf),
            "n_segments": int(len(starts)),
            "longest_ms": float(lens_ms.max()),
            "total_active_ms": float(lens_ms.sum())}


ACTIVITY_SCHEMA = pa.schema([
    ("clip_id", pa.string()),
    ("decode_ok", pa.bool_()),
    ("n_frames", pa.int64()),
    ("n_active_frames", pa.int64()),
    ("active_ratio", pa.float64()),
    ("n_segments", pa.int64()),
    ("longest_ms", pa.float64()),
    ("total_active_ms", pa.float64()),
])


class AudioActivityStage:
    """map_batches payload: decode (`decode_clips`) + activity
    segmentation per clip. Same degrade-to-rows error
    contract as AudioFeatureStage — a corrupt clip emits decode_ok=False,
    never a dead task."""

    def __init__(self, frame_ms: int = 20, threshold_dbfs: float = -40.0,
                 hang_frames: int = 2):
        self.frame_ms = frame_ms
        self.threshold_dbfs = threshold_dbfs
        self.hang_frames = hang_frames

    def __call__(self, batch: pa.Table) -> pa.Table:
        ids = batch["clip_id"].to_pylist()
        srs = batch["sr_hz"].to_pylist()
        rows = []
        for i, pcm, file_sr, _ in decode_clips(batch["bytes"],
                                               batch["codec"].to_pylist()):
            try:
                out = None if pcm is None else activity_segments(
                    pcm, int(file_sr or srs[i]), frame_ms=self.frame_ms,
                    threshold_dbfs=self.threshold_dbfs,
                    hang_frames=self.hang_frames)
            except Exception:  # noqa: BLE001 — compute failure → row
                out = None
            rows.append(_failed_row(ACTIVITY_SCHEMA, ids[i]) if out is None
                        else {"clip_id": ids[i], "decode_ok": True, **out})
        return pa.Table.from_pylist(rows, schema=ACTIVITY_SCHEMA)


# ---------------------------------------------------------------------------
# decode_clips under one rate rule, for the stages below
# ---------------------------------------------------------------------------
def decoded_pcm_rows(batch: pa.Table):
    """Yield ``(row_idx, clip_id, sr_eff, pcm)`` for every row of a clips
    batch (`decode_clips`), with ``sr_eff`` the WAV header rate or else
    sr_hz. ``pcm`` is ``None`` when the payload is null / corrupt / an
    unknown codec or ``sr_eff`` is not positive, so callers degrade to rows
    instead of dead tasks (the module's error contract)."""
    ids = batch["clip_id"].to_pylist()
    srs = batch["sr_hz"].to_pylist()
    for i, pcm, file_sr, _ in decode_clips(batch["bytes"],
                                           batch["codec"].to_pylist()):
        sr_eff = int(file_sr or srs[i] or 0)
        yield i, ids[i], sr_eff, pcm if sr_eff > 0 else None


# ---------------------------------------------------------------------------
# fixed-window chunking — explode clips into training segments
# ---------------------------------------------------------------------------
CHUNK_SCHEMA = pa.schema([
    ("clip_id", pa.string()),
    ("seg_idx", pa.int32()),
    ("n_segs", pa.int32()),
    ("start_ms", pa.float64()),
    ("sr_hz", pa.int64()),
    ("codec", pa.string()),
    ("bytes", pa.binary()),
    ("n_samples", pa.int64()),
    ("decode_ok", pa.bool_()),
])


class AudioChunkStage:
    """map_batches payload: explode every clip into fixed-duration
    ``chunk_ms`` segments — the sample-shaping pass that turns a
    variable-length corpus into fixed-window training examples (and the
    audio member of the chunking family next to
    `functions.text.chunk_documents`).

    Output rows carry (sr_hz, codec="pcm_s16le", bytes) under the SAME
    column names as the input clips table, so segment rows feed directly
    into any downstream audio stage (features, mel, fingerprints) with
    (clip_id, seg_idx) as the lineage key. The trailing partial segment
    is kept when `keep_partial` and it reaches `min_partial_ms`.
    Segment payloads are one `tobytes()` copy off the zero-copy decoded
    view — concatenating a clip's segments reproduces its PCM exactly.
    Corrupt / unknown-codec rows degrade to one decode_ok=False row."""

    def __init__(self, chunk_ms: int = 1000, keep_partial: bool = True,
                 min_partial_ms: int = 0):
        if chunk_ms <= 0:
            raise ValueError(f"AudioChunkStage: chunk_ms={chunk_ms}")
        self.chunk_ms = chunk_ms
        self.keep_partial = keep_partial
        self.min_partial_ms = min_partial_ms

    def __call__(self, batch: pa.Table) -> pa.Table:
        rows = []
        for _, cid, sr, pcm in decoded_pcm_rows(batch):
            if pcm is None:
                rows.append({"clip_id": cid, "seg_idx": None, "n_segs": 0,
                             "start_ms": None, "sr_hz": None, "codec": None,
                             "bytes": None, "n_samples": None,
                             "decode_ok": False})
                continue
            seg_len = max(1, int(sr * self.chunk_ms / 1000))
            n = len(pcm)
            n_full, rem = divmod(n, seg_len)
            partial = (self.keep_partial and rem > 0
                       and rem * 1000.0 / sr >= self.min_partial_ms)
            n_segs = n_full + (1 if partial else 0)
            for k in range(n_segs):
                a = k * seg_len
                b = min(a + seg_len, n)
                rows.append({
                    "clip_id": cid, "seg_idx": k, "n_segs": n_segs,
                    "start_ms": a * 1000.0 / sr, "sr_hz": sr,
                    "codec": "pcm_s16le",
                    "bytes": np.ascontiguousarray(pcm[a:b]).tobytes(),
                    "n_samples": b - a, "decode_ok": True})
            if n_segs == 0:  # clip shorter than min_partial_ms: audit row
                rows.append({"clip_id": cid, "seg_idx": None, "n_segs": 0,
                             "start_ms": None, "sr_hz": sr, "codec": None,
                             "bytes": None, "n_samples": None,
                             "decode_ok": True})
        return pa.Table.from_pylist(rows, schema=CHUNK_SCHEMA)


# ---------------------------------------------------------------------------
# log-mel filterbank embeddings — the audio → embedding-space bridge
# ---------------------------------------------------------------------------
def mel_filterbank(sr: int, n_fft: int, n_mels: int,
                   fmin: float = 0.0, fmax: float | None = None
                   ) -> np.ndarray:
    """Triangular mel filterbank matrix (n_mels, n_fft//2 + 1) on the HTK
    mel scale (m = 2595·log10(1 + f/700)) — the standard public recipe.
    Band edges are n_mels+2 points equally spaced in mel between fmin and
    fmax (default Nyquist); filter m rises over [edge_m, edge_m+1] and
    falls over [edge_m+1, edge_m+2]. Vectorized construction."""
    if fmax is None:
        fmax = sr / 2.0
    if not (0 <= fmin < fmax <= sr / 2.0):
        raise ValueError(f"mel_filterbank: fmin={fmin} fmax={fmax} sr={sr}")

    def mel(f):
        return 2595.0 * np.log10(1.0 + np.asarray(f, np.float64) / 700.0)

    def imel(m):
        return 700.0 * (10.0 ** (np.asarray(m, np.float64) / 2595.0) - 1.0)

    edges = imel(np.linspace(mel(fmin), mel(fmax), n_mels + 2))
    freqs = np.fft.rfftfreq(n_fft, d=1.0 / sr)
    lo, ctr, hi = edges[:-2, None], edges[1:-1, None], edges[2:, None]
    with np.errstate(divide="ignore", invalid="ignore"):
        rise = (freqs[None, :] - lo) / np.maximum(ctr - lo, 1e-12)
        fall = (hi - freqs[None, :]) / np.maximum(hi - ctr, 1e-12)
    return np.clip(np.minimum(rise, fall), 0.0, None).astype(np.float32)


def log_mel_features(pcm: np.ndarray, sr: int, fb: np.ndarray, *,
                     n_fft: int = 128, hop: int = 64
                     ) -> tuple[int, np.ndarray]:
    """Mean log-mel energy vector of one clip: frame (hann window, hop),
    power rFFT, mel projection through `fb`, log10, mean over time.
    Clips shorter than one frame are zero-padded to n_fft so every
    non-empty clip yields ≥1 frame. Returns (n_frames, float32 vector
    of len n_mels); an empty clip returns (0, None). Fully vectorized —
    one sliding_window_view, one batched rfft, one matmul."""
    logmel = logmel_frame_matrix(pcm, sr, fb, n_fft=n_fft, hop=hop)
    if logmel is None:
        return 0, None
    return int(len(logmel)), logmel.mean(axis=0).astype(np.float32)


def logmel_frame_matrix(pcm: np.ndarray, sr: int, fb: np.ndarray, *,
                        n_fft: int = 128, hop: int = 64
                        ) -> np.ndarray | None:
    """Per-frame log-mel matrix (n_frames, n_mels) of one clip — the shared
    framing kernel behind log_mel_features (mean over time) and
    mfcc_features (DCT over mel). Bit-exact extraction of the original
    log_mel_features body: frame (hann, hop), power rFFT, mel projection,
    log10. Empty clips return None; shorter-than-one-frame clips are
    zero-padded to n_fft."""
    n = len(pcm)
    if n == 0:
        return None
    x = pcm.astype(np.float32)
    if n < n_fft:
        x = np.concatenate([x, np.zeros(n_fft - n, np.float32)])
    frames = np.lib.stride_tricks.sliding_window_view(x, n_fft)[::hop]
    spec = np.abs(np.fft.rfft(frames * _hanning(n_fft)[None, :], axis=1))
    mel_e = np.square(spec, out=spec) @ fb.T
    return np.log10(mel_e + 1e-10)


MEL_SCHEMA = pa.schema([
    ("clip_id", pa.string()),
    ("decode_ok", pa.bool_()),
    ("sr_hz", pa.int64()),
    ("n_frames", pa.int64()),
    ("mel", pa.list_(pa.float32())),
])


class LogMelStage:
    """Actor-pool map_batches payload: decode + mean log-mel embedding per
    clip — the bridge from raw audio into the engine's embedding-space
    family (the `mel` list<float32> column feeds embedding-cosine
    near-dup, ANN top-k, k-means and decontamination unchanged).

    Stateful setup (the filterbank matrix per sample rate) builds ONCE
    per actor per rate and is cached in `self._fb` — the actor-pool
    justification; per batch work is one framed rfft + matmul per clip.
    Decode failures degrade to decode_ok=False rows."""

    def __init__(self, n_fft: int = 128, hop: int = 64, n_mels: int = 16,
                 fmin: float = 0.0, fmax: float | None = None):
        if n_fft <= 0 or hop <= 0 or n_mels <= 0:
            raise ValueError(
                f"LogMelStage: n_fft={n_fft} hop={hop} n_mels={n_mels}")
        self.n_fft, self.hop, self.n_mels, self.fmin = n_fft, hop, n_mels, fmin
        self.fmax = fmax  # fixed physical band => sr-invariant bins
        self._fb: dict[int, np.ndarray] = {}

    def _bank(self, sr: int) -> np.ndarray:
        fb = self._fb.get(sr)
        if fb is None:
            fb = mel_filterbank(sr, self.n_fft, self.n_mels, self.fmin,
                                self.fmax)
            self._fb[sr] = fb
        return fb

    def __call__(self, batch: pa.Table) -> pa.Table:
        rows = []
        for _, cid, sr, pcm in decoded_pcm_rows(batch):
            out = None
            if pcm is not None:
                nf, mel = log_mel_features(pcm, sr, self._bank(sr),
                                           n_fft=self.n_fft, hop=self.hop)
                if mel is not None:
                    out = {"sr_hz": sr, "n_frames": nf,
                           "mel": [float(v) for v in mel]}
            if out is None:
                rows.append({"clip_id": cid, "decode_ok": False,
                             "sr_hz": None, "n_frames": None, "mel": None})
            else:
                rows.append({"clip_id": cid, "decode_ok": True, **out})
        return pa.Table.from_pylist(rows, schema=MEL_SCHEMA)


# ---------------------------------------------------------------------------
# MFCC — the compact speech-feature vector (DCT-II over the log-mel frames)
# ---------------------------------------------------------------------------
def dct_ortho(n_out: int, n_in: int) -> np.ndarray:
    """Orthonormal DCT-II matrix (n_out, n_in) — the standard public MFCC
    recipe (scipy.fft.dct(norm='ortho') semantics, re-derived from the
    textbook formula): row k is sqrt(2/N)·cos(pi·k·(2n+1)/(2N)), row 0
    scaled by 1/sqrt(2). With n_out == n_in the matrix is orthonormal
    (M @ M.T = I); rows 1.. are orthogonal to the constant vector, so a
    per-mel-bin constant shift (i.e. a pure gain change of the audio)
    moves ONLY coefficient 0."""
    if not (0 < n_out <= n_in):
        raise ValueError(f"dct_ortho: n_out={n_out} n_in={n_in}")
    k = np.arange(n_out, dtype=np.float64)[:, None]
    n = np.arange(n_in, dtype=np.float64)[None, :]
    m = np.cos(np.pi * k * (2.0 * n + 1.0) / (2.0 * n_in))
    m *= np.sqrt(2.0 / n_in)
    m[0] *= np.sqrt(0.5)
    return m.astype(np.float32)


def mfcc_features(pcm: np.ndarray, sr: int, fb: np.ndarray,
                  dct: np.ndarray, *, n_fft: int = 128, hop: int = 64
                  ) -> tuple[int, np.ndarray | None, np.ndarray | None]:
    """MFCC summary of one clip: per-frame log-mel (logmel_frame_matrix)
    → DCT-II → (mean, population std) over time. Returns (n_frames,
    mfcc_mean float32[n_mfcc], mfcc_std float32[n_mfcc]); empty clips
    return (0, None, None). One matmul beyond the shared framing kernel —
    no per-frame Python."""
    logmel = logmel_frame_matrix(pcm, sr, fb, n_fft=n_fft, hop=hop)
    if logmel is None:
        return 0, None, None
    co = logmel @ dct.T
    return (int(len(co)), co.mean(axis=0).astype(np.float32),
            co.std(axis=0).astype(np.float32))


MFCC_SCHEMA = pa.schema([
    ("clip_id", pa.string()),
    ("decode_ok", pa.bool_()),
    ("sr_hz", pa.int64()),
    ("n_frames", pa.int64()),
    ("mfcc", pa.list_(pa.float32())),
    ("mfcc_std", pa.list_(pa.float32())),
])


class MfccStage:
    """Actor-pool map_batches payload: decode + MFCC (mean + std over
    frames) per clip — the compact spectral-envelope embedding used by
    speech corpora (log-mel's decorrelated sibling; the `mfcc`
    list<float32> column feeds the same embedding-space family).

    Stateful setup: mel filterbank per sample rate AND the DCT matrix
    build once per actor and are cached — per batch work is one framed
    rfft + two matmuls per clip. Decode failures degrade to
    decode_ok=False rows (module error contract)."""

    def __init__(self, n_fft: int = 128, hop: int = 64, n_mels: int = 24,
                 n_mfcc: int = 13, fmin: float = 0.0,
                 fmax: float | None = None, preemph: float | None = None,
                 deltas: bool = False, delta_width: int = 2):
        if not (0 < n_mfcc <= n_mels) or n_fft <= 0 or hop <= 0:
            raise ValueError(f"MfccStage: n_fft={n_fft} hop={hop} "
                             f"n_mels={n_mels} n_mfcc={n_mfcc}")
        self.n_fft, self.hop, self.fmin = n_fft, hop, fmin
        self.fmax = fmax  # fixed physical band => sr-invariant bins
        self.n_mels, self.n_mfcc = n_mels, n_mfcc
        self.preemph, self.deltas, self.delta_width = \
            preemph, deltas, delta_width
        self._fb: dict[int, np.ndarray] = {}
        self._dct = dct_ortho(n_mfcc, n_mels)
        self._schema = MFCC_SCHEMA if not deltas else pa.schema(
            list(MFCC_SCHEMA) + [("mfcc_d", pa.list_(pa.float32())),
                                 ("mfcc_d_std", pa.list_(pa.float32())),
                                 ("mfcc_dd", pa.list_(pa.float32())),
                                 ("mfcc_dd_std", pa.list_(pa.float32()))])

    def _bank(self, sr: int) -> np.ndarray:
        fb = self._fb.get(sr)
        if fb is None:
            fb = mel_filterbank(sr, self.n_fft, self.n_mels, self.fmin,
                                self.fmax)
            self._fb[sr] = fb
        return fb

    def __call__(self, batch: pa.Table) -> pa.Table:
        null_row = {"sr_hz": None, "n_frames": None,
                    "mfcc": None, "mfcc_std": None}
        if self.deltas:
            null_row.update({"mfcc_d": None, "mfcc_d_std": None,
                             "mfcc_dd": None, "mfcc_dd_std": None})
        rows = []
        for _, cid, sr, pcm in decoded_pcm_rows(batch):
            out = None
            if pcm is not None:
                x = pre_emphasis(pcm, self.preemph) \
                    if self.preemph is not None else pcm
                logmel = logmel_frame_matrix(x, sr, self._bank(sr),
                                             n_fft=self.n_fft,
                                             hop=self.hop)
                if logmel is not None:
                    co = logmel @ self._dct.T
                    out = {"sr_hz": sr, "n_frames": int(len(co)),
                           "mfcc": co.mean(axis=0).astype(np.float32)
                           .tolist(),
                           "mfcc_std": co.std(axis=0).astype(np.float32)
                           .tolist()}
                    if self.deltas:
                        d = delta_features(co, self.delta_width)
                        dd = delta_features(d, self.delta_width)
                        out.update({
                            "mfcc_d": d.mean(axis=0).tolist(),
                            "mfcc_d_std": d.std(axis=0).tolist(),
                            "mfcc_dd": dd.mean(axis=0).tolist(),
                            "mfcc_dd_std": dd.std(axis=0).tolist()})
            if out is None:
                rows.append({"clip_id": cid, "decode_ok": False,
                             **null_row})
            else:
                rows.append({"clip_id": cid, "decode_ok": True, **out})
        return pa.Table.from_pylist(rows, schema=self._schema)


# ---------------------------------------------------------------------------
# pitch (f0) estimation — autocorrelation with parabolic interpolation
# ---------------------------------------------------------------------------
def estimate_f0(pcm: np.ndarray, sr: int, *, fmin: float = 60.0,
                fmax: float = 600.0) -> tuple[float | None, float]:
    """Fundamental-frequency estimate of one clip via the biased
    autocorrelation (FFT-based: one rfft of the zero-padded clip, one
    irfft of the power spectrum — O(n log n), no lag loop). The peak lag
    is searched in [sr/fmax, sr/fmin]; sub-sample accuracy comes from
    parabolic interpolation around the peak. Returns (f0_hz, confidence)
    where confidence = r[lag]/r[0] in [0, 1] — near (n-lag)/n for a
    periodic clip, near 0 for noise; (None, 0.0) when the clip is empty,
    silent, or shorter than one fmax period. The BIASED autocorrelation
    (no lag normalization) is deliberate: it decays with lag, so the
    fundamental beats its own octave-down alias at 2·lag."""
    n = len(pcm)
    if n < 4 or sr <= 0 or fmin <= 0 or fmax <= fmin:
        return None, 0.0
    x = pcm.astype(np.float32)
    x -= x.mean()
    nfft = 1 << int(np.ceil(np.log2(2 * n)))
    s = np.fft.rfft(x, nfft)
    r = np.fft.irfft(np.abs(np.square(s, out=s)), nfft)[:n]
    lo = max(1, int(np.floor(sr / fmax)))
    hi = min(n - 1, int(np.ceil(sr / fmin)))
    if hi <= lo or r[0] <= 0:
        return None, 0.0
    k = int(np.argmax(r[lo:hi + 1]))
    lag = float(lo + k)
    conf = float(max(0.0, min(1.0, r[lo + k] / r[0])))
    i = lo + k
    if 0 < i < n - 1:
        a, b, c = float(r[i - 1]), float(r[i]), float(r[i + 1])
        denom = a - 2.0 * b + c
        if denom < 0:  # genuine local max → refine
            lag += 0.5 * (a - c) / denom
    if lag <= 0:
        return None, 0.0
    return float(sr / lag), conf


PITCH_SCHEMA = pa.schema([
    ("clip_id", pa.string()),
    ("decode_ok", pa.bool_()),
    ("sr_hz", pa.int64()),
    ("n_samples", pa.int64()),
    ("f0_hz", pa.float64()),
    ("voiced_conf", pa.float64()),
    ("voiced", pa.bool_()),
])


class PitchStage:
    """Actor-pool map_batches payload: decode + f0/voicing per clip — the
    tonality gate of a speech-corpus pipeline (keep voiced speech, drop
    hum/noise; bucket by pitch range for balanced sampling). Stateless
    beyond the decoder table; one FFT-autocorrelation per clip. Decode
    failures degrade to decode_ok=False rows."""

    def __init__(self, fmin: float = 60.0, fmax: float = 600.0,
                 voiced_threshold: float = 0.5):
        if not (0 < fmin < fmax):
            raise ValueError(f"PitchStage: fmin={fmin} fmax={fmax}")
        self.fmin, self.fmax = fmin, fmax
        self.voiced_threshold = voiced_threshold

    def __call__(self, batch: pa.Table) -> pa.Table:
        rows = []
        for _, cid, sr, pcm in decoded_pcm_rows(batch):
            if pcm is None:
                rows.append({"clip_id": cid, "decode_ok": False,
                             "sr_hz": None, "n_samples": None,
                             "f0_hz": None, "voiced_conf": None,
                             "voiced": None})
                continue
            f0, conf = estimate_f0(pcm, sr, fmin=self.fmin, fmax=self.fmax)
            rows.append({"clip_id": cid, "decode_ok": True, "sr_hz": sr,
                         "n_samples": int(len(pcm)), "f0_hz": f0,
                         "voiced_conf": conf,
                         "voiced": conf >= self.voiced_threshold})
        return pa.Table.from_pylist(rows, schema=PITCH_SCHEMA)


# ---------------------------------------------------------------------------
# augmentation — deterministic training-copy synthesis (noise @ SNR, speed,
# gain jitter); the data-multiplication stage of an audio training pipeline
# ---------------------------------------------------------------------------
AUGMENT_SCHEMA = pa.schema([
    ("clip_id", pa.string()),
    ("aug_idx", pa.int32()),
    ("decode_ok", pa.bool_()),
    ("sr_hz", pa.int64()),
    ("speed", pa.float64()),
    ("snr_db", pa.float64()),
    ("gain_db", pa.float64()),
    ("n_samples", pa.int64()),
    ("codec", pa.string()),
    ("bytes", pa.binary()),
])


def _aug_rng(seed: int, clip_id: str, idx: int) -> np.random.Generator:
    """Deterministic per-(clip, copy) generator: the stream depends only
    on (seed, clip_id, aug_idx) — never on batch boundaries, partition
    order, or global RNG state — so reruns and resumes are bit-identical."""
    import hashlib

    h = hashlib.blake2b(f"{seed}:{clip_id}:{idx}".encode(),
                        digest_size=8).digest()
    return np.random.Generator(
        np.random.Philox(int.from_bytes(h, "little")))


def add_reverb(pcm: np.ndarray, sr: int, rng: np.random.Generator, *,
               rt60_ms: float = 300.0, wet: float = 0.3) -> np.ndarray:
    """Synthetic-room reverb: convolve with an exponentially-decaying
    noise impulse response (the standard cheap RIR model — decay
    constant from RT60, the time to -60 dB), mix dry/wet, rescale to
    the dry peak so the copy never clips harder than the original.
    FFT convolution (one rfft/irfft pair) — no per-sample Python;
    deterministic under a keyed `rng` (see _aug_rng). float64 in/out
    (callers quantize once at the end, like AudioAugmentStage._one)."""
    n = len(pcm)
    if n == 0 or wet <= 0.0:
        return np.asarray(pcm, dtype=np.float64)
    x = np.asarray(pcm, dtype=np.float64)
    m = max(8, int(sr * rt60_ms / 1000.0))
    t = np.arange(m, dtype=np.float64) / sr
    # exp(-6.908 t / rt60): -60 dB at rt60 (6.908 = ln(10^3))
    ir = rng.standard_normal(m) * np.exp(-6.9078 * t / (rt60_ms / 1000.0))
    ir[0] = 0.0  # direct path carried by the dry branch
    e = float(np.dot(ir, ir))
    if e > 0:
        ir /= np.sqrt(e)
    k = 1 << int(np.ceil(np.log2(n + m - 1)))
    tail = np.fft.irfft(np.fft.rfft(x, k) * np.fft.rfft(ir, k), k)[:n]
    out = (1.0 - wet) * x + wet * tail
    peak_in = float(np.max(np.abs(x)))
    peak_out = float(np.max(np.abs(out)))
    if peak_out > peak_in > 0:
        out *= peak_in / peak_out
    return out


class AudioAugmentStage:
    """Actor-pool map_batches payload: emit `copies` augmented training
    copies per decodable clip — additive white noise at a target SNR,
    speed perturbation (resample_linear by a factor drawn from
    `speed_factors`), uniform gain jitter in ±gain_jitter_db, and
    synthetic-room reverb (`reverb=(rt60_ms, wet)`, constructor-fixed
    config, per-copy keyed IR), each optional and applied in
    speed → gain → reverb → noise order. Output rows are
    pcm_s16le under the clips-column contract, so augmented copies feed
    every downstream audio stage unchanged.

    Scale/determinism contract: every copy's randomness comes from a
    Philox stream keyed on (seed, clip_id, aug_idx) — reruns, resumes and
    any partitioning produce bit-identical bytes (the resumable-output
    requirement). Output volume is `copies` × input; size batch_size for
    decoded float64 temporaries × copies. Decode failures degrade to one
    decode_ok=False row."""

    def __init__(self, copies: int = 1, *, noise_snr_db: float | None = None,
                 speed_factors: tuple | None = None,
                 gain_jitter_db: float | None = None, seed: int = 0,
                 reverb: tuple | None = None):
        if reverb is not None and (len(reverb) != 2 or reverb[0] <= 0
                                   or not 0.0 < reverb[1] <= 1.0):
            raise ValueError(f"AudioAugmentStage: reverb={reverb} "
                             "(want (rt60_ms>0, 0<wet<=1))")
        if copies < 1:
            raise ValueError(f"AudioAugmentStage: copies={copies}")
        if speed_factors is not None and (
                not speed_factors or any(f <= 0 for f in speed_factors)):
            raise ValueError(
                f"AudioAugmentStage: speed_factors={speed_factors}")
        if gain_jitter_db is not None and gain_jitter_db < 0:
            raise ValueError(
                f"AudioAugmentStage: gain_jitter_db={gain_jitter_db}")
        self.copies = copies
        self.noise_snr_db = noise_snr_db
        self.speed_factors = tuple(speed_factors) if speed_factors else None
        self.gain_jitter_db = gain_jitter_db
        self.seed = seed
        self.reverb = tuple(reverb) if reverb is not None else None

    def _one(self, pcm: np.ndarray, sr: int, cid: str, idx: int) -> dict:
        rng = _aug_rng(self.seed, cid, idx)
        x = pcm.astype(np.float64)
        speed = 1.0
        if self.speed_factors is not None:
            speed = float(self.speed_factors[
                int(rng.integers(len(self.speed_factors)))])
            if speed != 1.0 and len(x):
                # resample to sr/speed samples, then reinterpret at sr:
                # the content plays `speed`× faster at the same rate
                x = np.interp(
                    np.arange(int(round(len(x) / speed))) * speed,
                    np.arange(len(x), dtype=np.float64), x)
        gain_db = 0.0
        if self.gain_jitter_db is not None:
            gain_db = float(rng.uniform(-self.gain_jitter_db,
                                        self.gain_jitter_db))
            x = x * (10.0 ** (gain_db / 20.0))
        if self.reverb is not None and len(x):
            x = add_reverb(x, sr, rng, rt60_ms=self.reverb[0],
                           wet=self.reverb[1])
        snr = None
        if self.noise_snr_db is not None and len(x):
            snr = float(self.noise_snr_db)
            p_sig = float(np.mean(x * x))
            if p_sig > 0:
                sigma = np.sqrt(p_sig / (10.0 ** (snr / 10.0)))
                x = x + rng.normal(0.0, sigma, len(x))
        out = np.clip(np.round(x), -32768, 32767).astype(np.int16)
        return {"clip_id": cid, "aug_idx": idx, "decode_ok": True,
                "sr_hz": sr, "speed": speed, "snr_db": snr,
                "gain_db": gain_db, "n_samples": int(len(out)),
                "codec": "pcm_s16le", "bytes": out.tobytes()}

    def __call__(self, batch: pa.Table) -> pa.Table:
        rows = []
        for _, cid, sr, pcm in decoded_pcm_rows(batch):
            if pcm is None:
                rows.append({"clip_id": cid, "aug_idx": None,
                             "decode_ok": False, "sr_hz": None,
                             "speed": None, "snr_db": None, "gain_db": None,
                             "n_samples": None, "codec": None, "bytes": None})
                continue
            for idx in range(self.copies):
                rows.append(self._one(pcm, sr, cid, idx))
        return pa.Table.from_pylist(rows, schema=AUGMENT_SCHEMA)


# ---------------------------------------------------------------------------
# spectral descriptors — tonality / noisiness gates beyond pcm_features
# ---------------------------------------------------------------------------
def spectral_descriptors(pcm: np.ndarray, sr: int) -> dict | None:
    """Whole-clip spectral shape over the power rFFT (DC excluded) — the
    noise/tonality gating signals of an audio curation pipeline:
    flatness (geometric/arithmetic power mean, →1 for white noise, →0
    for a pure tone), rolloff_hz (85% cumulative-energy frequency),
    centroid_hz / bandwidth_hz (power-weighted mean / std of frequency),
    crest (peak/mean power). One float64 copy + one rFFT; returns None
    for clips shorter than 4 samples or with zero spectral mass."""
    n = len(pcm)
    if n < 4:
        return None
    x = pcm.astype(np.float64)
    x -= x.mean()
    p = np.abs(np.fft.rfft(x)) ** 2
    p = p[1:]  # drop DC
    freqs = np.fft.rfftfreq(n, d=1.0 / sr)[1:]
    mass = float(p.sum())
    if mass <= 0:
        return None
    am = mass / len(p)
    flat = float(np.exp(np.mean(np.log(p + 1e-30))) / am)
    cum = np.cumsum(p)
    roll = float(freqs[int(np.searchsorted(cum, 0.85 * mass))])
    cent = float((freqs * p).sum() / mass)
    bw = float(np.sqrt(((freqs - cent) ** 2 * p).sum() / mass))
    crest = float(p.max() / am)
    return {"flatness": flat, "rolloff_hz": roll, "centroid_hz": cent,
            "bandwidth_hz": bw, "crest": crest}


SPECTRAL_SCHEMA = pa.schema([
    ("clip_id", pa.string()),
    ("decode_ok", pa.bool_()),
    ("sr_hz", pa.int64()),
    ("n_samples", pa.int64()),
    ("flatness", pa.float64()),
    ("rolloff_hz", pa.float64()),
    ("centroid_hz", pa.float64()),
    ("bandwidth_hz", pa.float64()),
    ("crest", pa.float64()),
])


class AudioSpectralStage:
    """Actor-pool map_batches payload: decode + spectral descriptors per
    clip (flatness / rolloff / centroid / bandwidth / crest) — the
    tonality-vs-noise curation gate complementing pcm_features' RMS and
    clipping signals. Stateless beyond the decoder table; one rFFT per
    clip. Decode failures and too-short clips degrade to
    decode_ok=False / null-descriptor rows."""

    def __call__(self, batch: pa.Table) -> pa.Table:
        rows = []
        for _, cid, sr, pcm in decoded_pcm_rows(batch):
            if pcm is None:
                rows.append({"clip_id": cid, "decode_ok": False,
                             "sr_hz": None, "n_samples": None,
                             "flatness": None, "rolloff_hz": None,
                             "centroid_hz": None, "bandwidth_hz": None,
                             "crest": None})
                continue
            d = spectral_descriptors(pcm, sr)
            rows.append({"clip_id": cid, "decode_ok": True, "sr_hz": sr,
                         "n_samples": int(len(pcm)),
                         **(d if d is not None else
                            {"flatness": None, "rolloff_hz": None,
                             "centroid_hz": None, "bandwidth_hz": None,
                             "crest": None})})
        return pa.Table.from_pylist(rows, schema=SPECTRAL_SCHEMA)


# ---------------------------------------------------------------------------
# speech-feature front-end extras: pre-emphasis, regression deltas,
# SpecAugment — the standard ASR training-feature pipeline pieces around
# the log-mel/MFCC kernels above
# ---------------------------------------------------------------------------
def pre_emphasis(pcm: np.ndarray, coef: float = 0.97) -> np.ndarray:
    """First-order high-pass y[0]=x[0], y[n]=x[n]-coef*x[n-1] — the
    classic speech front-end boost of high-frequency formant energy
    before framing. Returns float32 (it feeds the float framing kernels;
    int16 re-quantization would add noise for no reason). One vectorized
    subtraction; empty input passes through."""
    x = np.asarray(pcm, dtype=np.float32)
    if len(x) < 2:
        return x
    out = np.empty_like(x)
    out[0] = x[0]
    np.subtract(x[1:], coef * x[:-1], out=out[1:])
    return out


def delta_features(feats: np.ndarray, width: int = 2) -> np.ndarray:
    """HTK/librosa regression deltas over a (n_frames, n_coef) feature
    matrix: d_t = sum_{n=1..N} n*(c_{t+n} - c_{t-n}) / (2*sum n^2), with
    edge-replicated padding. Exactly recovers the slope of a per-frame
    linear ramp in the interior (the golden-test identity). One
    vectorized pass — no per-frame Python."""
    if width < 1:
        raise ValueError(f"delta_features: width={width}")
    f = np.asarray(feats, dtype=np.float32)
    if f.ndim != 2:
        raise ValueError("delta_features: expected (n_frames, n_coef)")
    pad = np.concatenate([np.repeat(f[:1], width, axis=0), f,
                          np.repeat(f[-1:], width, axis=0)], axis=0)
    denom = 2.0 * sum(n * n for n in range(1, width + 1))
    out = np.zeros_like(f)
    T = len(f)
    for n in range(1, width + 1):  # width is tiny (2-3): O(width) passes
        out += n * (pad[width + n:width + n + T]
                    - pad[width - n:width - n + T])
    return out / np.float32(denom)


def spec_augment(logmel: np.ndarray, rng: np.random.Generator, *,
                 n_time_masks: int = 2, time_width: int = 10,
                 n_freq_masks: int = 2, freq_width: int = 4,
                 fill: str = "mean") -> np.ndarray:
    """SpecAugment (Park et al. 2019) time/frequency masking over a
    (n_frames, n_mels) log-mel matrix: each mask picks width ~ U[0, W]
    and start ~ U[0, size-width], filled with the matrix mean (or 0.0) —
    the standard cheap augmentation for speech training features.
    Deterministic under a keyed `rng` (see _aug_rng). Returns a copy."""
    if fill not in ("mean", "zero"):
        raise ValueError(f"spec_augment: fill={fill!r}")
    m = np.array(logmel, dtype=np.float32, copy=True)
    if m.size == 0:
        return m
    v = np.float32(m.mean()) if fill == "mean" else np.float32(0.0)
    T, F = m.shape
    for _ in range(n_time_masks):
        w = int(rng.integers(0, min(time_width, T) + 1))
        t0 = int(rng.integers(0, T - w + 1))
        m[t0:t0 + w, :] = v
    for _ in range(n_freq_masks):
        w = int(rng.integers(0, min(freq_width, F) + 1))
        f0 = int(rng.integers(0, F - w + 1))
        m[:, f0:f0 + w] = v
    return m


SPECAUG_SCHEMA = pa.schema([
    ("clip_id", pa.string()),
    ("decode_ok", pa.bool_()),
    ("sr_hz", pa.int64()),
    ("n_frames", pa.int64()),
    ("n_mels", pa.int64()),
    ("mel_frames", pa.list_(pa.float32())),  # row-major (n_frames*n_mels)
])


class SpecAugmentStage:
    """Actor-pool map_batches payload: decode → (optional pre-emphasis) →
    per-frame log-mel → SpecAugment masking, emitting the FULL augmented
    frame matrix flattened row-major — the training-feature producer
    (LogMelStage's mean vector is the retrieval/dedup form; this is the
    form a trainer consumes). Mask layout is keyed per (seed, clip_id) —
    bit-identical across reruns, partitionings, and resumes.

    Scale note: output is ~n_frames*n_mels floats per clip (~25x the mean
    vector) — size batch_size down accordingly; banks cache per actor per
    rate like LogMelStage."""

    def __init__(self, n_fft: int = 128, hop: int = 64, n_mels: int = 24,
                 fmin: float = 0.0, fmax: float | None = None,
                 preemph: float | None = 0.97, seed: int = 0,
                 n_time_masks: int = 2, time_width: int = 10,
                 n_freq_masks: int = 2, freq_width: int = 4,
                 fill: str = "mean"):
        if fill not in ("mean", "zero"):
            raise ValueError(f"SpecAugmentStage: fill={fill!r}")
        self.n_fft, self.hop, self.n_mels = n_fft, hop, n_mels
        self.fmin, self.fmax = fmin, fmax
        self.preemph, self.seed, self.fill = preemph, seed, fill
        self.masks = (n_time_masks, time_width, n_freq_masks, freq_width)
        self._fb: dict[int, np.ndarray] = {}

    def _bank(self, sr: int) -> np.ndarray:
        fb = self._fb.get(sr)
        if fb is None:
            fb = mel_filterbank(sr, self.n_fft, self.n_mels, self.fmin,
                                self.fmax)
            self._fb[sr] = fb
        return fb

    def __call__(self, batch: pa.Table) -> pa.Table:
        nt, tw, nf, fw = self.masks
        rows = []
        for _, cid, sr, pcm in decoded_pcm_rows(batch):
            logmel = None
            if pcm is not None:
                x = pre_emphasis(pcm, self.preemph) \
                    if self.preemph is not None else pcm
                logmel = logmel_frame_matrix(x, sr, self._bank(sr),
                                             n_fft=self.n_fft, hop=self.hop)
            if logmel is None:
                rows.append({"clip_id": cid, "decode_ok": False,
                             "sr_hz": None, "n_frames": None,
                             "n_mels": None, "mel_frames": None})
                continue
            aug = spec_augment(logmel, _aug_rng(self.seed, cid, 0),
                               n_time_masks=nt, time_width=tw,
                               n_freq_masks=nf, freq_width=fw,
                               fill=self.fill)
            rows.append({"clip_id": cid, "decode_ok": True, "sr_hz": sr,
                         "n_frames": int(aug.shape[0]),
                         "n_mels": int(aug.shape[1]),
                         "mel_frames": aug.ravel().tolist()})
        return pa.Table.from_pylist(rows, schema=SPECAUG_SCHEMA)


# ---------------------------------------------------------------------------
# chroma (pitch-class profile) — octave-folded spectral energy, the
# music/tonality embedding next to log-mel (speech) and MFCC (envelope)
# ---------------------------------------------------------------------------
def chroma_filterbank(sr: int, n_fft: int, *, ref_hz: float = 440.0,
                      fmin: float = 60.0) -> np.ndarray:
    """(12, n_fft//2+1) binary projection folding each rFFT bin onto its
    nearest equal-tempered pitch class (class 0 = C via the MIDI mapping
    round(12*log2(f/ref))+69 ≡ A=9). Bins below `fmin` (incl. DC) drop.
    Pure algebra — built once per (sr, n_fft) per actor."""
    freqs = np.fft.rfftfreq(n_fft, 1.0 / sr)
    fb = np.zeros((12, len(freqs)), dtype=np.float32)
    valid = freqs >= fmin
    midi = np.rint(12.0 * np.log2(freqs[valid] / ref_hz)).astype(np.int64) \
        + 69
    fb[midi % 12, np.flatnonzero(valid)] = 1.0
    return fb


def chroma_features(pcm: np.ndarray, sr: int, cb: np.ndarray, *,
                    n_fft: int = 2048, hop: int = 512
                    ) -> tuple[int, np.ndarray | None]:
    """Mean L1-normalized chroma vector of one clip: framed power rFFT →
    pitch-class fold → per-frame L1 norm → mean over frames. Returns
    (n_frames, chroma float32[12]); empty clips (0, None). Gain shifts
    cancel in the per-frame normalization; octave shifts land in the
    same class (the invariants the goldens pin)."""
    n = len(pcm)
    if n == 0:
        return 0, None
    x = pcm.astype(np.float32)
    if n < n_fft:
        x = np.concatenate([x, np.zeros(n_fft - n, np.float32)])
    frames = np.lib.stride_tricks.sliding_window_view(x, n_fft)[::hop]
    spec = np.abs(np.fft.rfft(frames * _hanning(n_fft)[None, :], axis=1))
    e = np.square(spec, out=spec) @ cb.T          # (n_frames, 12)
    tot = e.sum(axis=1, keepdims=True)
    np.divide(e, tot, out=e, where=tot > 0)
    return int(len(e)), e.mean(axis=0).astype(np.float32)


CHROMA_SCHEMA = pa.schema([
    ("clip_id", pa.string()),
    ("decode_ok", pa.bool_()),
    ("sr_hz", pa.int64()),
    ("n_frames", pa.int64()),
    ("chroma", pa.list_(pa.float32())),
    ("pitch_class", pa.int32()),   # argmax class, C=0 .. B=11
])


class ChromaStage:
    """Actor-pool map_batches payload: decode + mean chroma vector +
    dominant pitch class per clip. Projection matrices cache per actor
    per (sr) like LogMelStage; decode failures degrade to
    decode_ok=False rows (module error contract)."""

    def __init__(self, n_fft: int = 2048, hop: int = 512,
                 ref_hz: float = 440.0, fmin: float = 60.0):
        if n_fft <= 0 or hop <= 0:
            raise ValueError(f"ChromaStage: n_fft={n_fft} hop={hop}")
        self.n_fft, self.hop = n_fft, hop
        self.ref_hz, self.fmin = ref_hz, fmin
        self._cb: dict[int, np.ndarray] = {}

    def _bank(self, sr: int) -> np.ndarray:
        cb = self._cb.get(sr)
        if cb is None:
            cb = chroma_filterbank(sr, self.n_fft, ref_hz=self.ref_hz,
                                   fmin=self.fmin)
            self._cb[sr] = cb
        return cb

    def __call__(self, batch: pa.Table) -> pa.Table:
        rows = []
        for _, cid, sr, pcm in decoded_pcm_rows(batch):
            out = None
            if pcm is not None:
                nf, ch = chroma_features(pcm, sr, self._bank(sr),
                                         n_fft=self.n_fft, hop=self.hop)
                if ch is not None:
                    out = {"sr_hz": sr, "n_frames": nf,
                           "chroma": ch.tolist(),
                           "pitch_class": int(np.argmax(ch))}
            if out is None:
                rows.append({"clip_id": cid, "decode_ok": False,
                             "sr_hz": None, "n_frames": None,
                             "chroma": None, "pitch_class": None})
            else:
                rows.append({"clip_id": cid, "decode_ok": True, **out})
        return pa.Table.from_pylist(rows, schema=CHROMA_SCHEMA)


# ---------------------------------------------------------------------------
# onset detection + tempo — event-level audio structure (segmentation /
# music-vs-speech curation signals next to VAD and the spectral gates)
# ---------------------------------------------------------------------------
def onset_strength(pcm: np.ndarray, sr: int, *, n_fft: int = 512,
                   hop: int = 256) -> np.ndarray:
    """Spectral-flux onset envelope: framed magnitude rFFT, half-wave-
    rectified frame-to-frame increase summed over bins (the standard
    novelty curve). One vectorized pass; < 2 frames returns empty."""
    n = len(pcm)
    if n < n_fft + hop:
        return np.zeros(0, dtype=np.float32)
    x = pcm.astype(np.float32)
    frames = np.lib.stride_tricks.sliding_window_view(x, n_fft)[::hop]
    spec = np.abs(np.fft.rfft(frames * _hanning(n_fft)[None, :], axis=1))
    d = np.diff(spec, axis=0)
    np.maximum(d, 0.0, out=d)
    return d.sum(axis=1).astype(np.float32)


def detect_onsets(pcm: np.ndarray, sr: int, *, n_fft: int = 512,
                  hop: int = 256, delta: float = 1.5,
                  min_gap_ms: float = 50.0) -> np.ndarray:
    """Onset times (ms): local maxima of the flux envelope above
    mean + delta * std, greedily thinned to one onset per `min_gap_ms`
    (strongest first). Deterministic, vectorized peak picking."""
    env = onset_strength(pcm, sr, n_fft=n_fft, hop=hop)
    if len(env) < 3:
        return np.zeros(0, dtype=np.float64)
    thr = float(env.mean()) + delta * float(env.std())
    peaks = np.flatnonzero((env[1:-1] > env[:-2]) & (env[1:-1] >= env[2:])
                           & (env[1:-1] > thr)) + 1
    if not len(peaks):
        return np.zeros(0, dtype=np.float64)
    # greedy non-max suppression inside min_gap
    order = peaks[np.argsort(-env[peaks], kind="stable")]
    gap = max(1, int(round(min_gap_ms / 1000.0 * sr / hop)))
    taken: list[int] = []
    used = np.zeros(len(env), dtype=bool)
    for p in order:
        if not used[max(0, p - gap):p + gap + 1].any():
            used[p] = True
            taken.append(int(p))
    # frame center time: onset lands between frames p and p+1
    t = (np.sort(np.asarray(taken, dtype=np.float64)) + 1.0) \
        * hop / sr * 1000.0
    return t


def estimate_tempo(onset_ms: np.ndarray, *, bpm_lo: float = 40.0,
                   bpm_hi: float = 240.0) -> float | None:
    """Tempo from the median inter-onset interval, octave-folded into
    [bpm_lo, bpm_hi). None with < 2 onsets."""
    if len(onset_ms) < 2:
        return None
    ioi = float(np.median(np.diff(onset_ms)))
    if ioi <= 0:
        return None
    bpm = 60000.0 / ioi
    while bpm >= bpm_hi:
        bpm /= 2.0
    while bpm < bpm_lo:
        bpm *= 2.0
    return float(bpm)


ONSET_SCHEMA = pa.schema([
    ("clip_id", pa.string()),
    ("decode_ok", pa.bool_()),
    ("sr_hz", pa.int64()),
    ("n_onsets", pa.int64()),
    ("onset_ms", pa.list_(pa.float64())),
    ("tempo_bpm", pa.float64()),
])


class OnsetStage:
    """Actor-pool map_batches payload: decode + onset times + tempo per
    clip. Stateless beyond the decoder table; decode failures degrade to
    decode_ok=False rows (module error contract)."""

    def __init__(self, n_fft: int = 512, hop: int = 256,
                 delta: float = 1.5, min_gap_ms: float = 50.0):
        self.n_fft, self.hop = n_fft, hop
        self.delta, self.min_gap_ms = delta, min_gap_ms

    def __call__(self, batch: pa.Table) -> pa.Table:
        rows = []
        for _, cid, sr, pcm in decoded_pcm_rows(batch):
            if pcm is None:
                rows.append({"clip_id": cid, "decode_ok": False,
                             "sr_hz": None, "n_onsets": None,
                             "onset_ms": None, "tempo_bpm": None})
                continue
            t = detect_onsets(pcm, sr, n_fft=self.n_fft, hop=self.hop,
                              delta=self.delta,
                              min_gap_ms=self.min_gap_ms)
            rows.append({"clip_id": cid, "decode_ok": True, "sr_hz": sr,
                         "n_onsets": int(len(t)),
                         "onset_ms": t.tolist(),
                         "tempo_bpm": estimate_tempo(t)})
        return pa.Table.from_pylist(rows, schema=ONSET_SCHEMA)


# ---------------------------------------------------------------------------
# codec round-trip QA — "will this clip survive telephony companding?"
# (the audio validation gate the G.711 transcode path needs: reference
# framing /root/reference/validation.go per-document pass/fail verdicts)
# ---------------------------------------------------------------------------
CODEC_QA_SCHEMA = pa.schema([
    ("clip_id", pa.string()),
    ("decode_ok", pa.bool_()),
    ("sr_hz", pa.int64()),
    ("n_samples", pa.int64()),
    ("roundtrip_snr_db", pa.float64()),
    ("ok", pa.bool_()),
])


class CodecRoundtripStage:
    """Actor-pool map_batches payload: decode → encode to `target_codec`
    → decode back → SNR of the round trip vs the original PCM, with a
    pass/fail verdict at `min_snr_db` (G.711 companding of speech-level
    signals sits ~33-38 dB; clips that fall below are dominated by
    content the codec cannot carry). All-zero clips pass vacuously
    (inf SNR). pcm_s16le round-trips bit-exactly."""

    def __init__(self, target_codec: str = "ulaw",
                 min_snr_db: float = 25.0):
        if target_codec not in g711.G711_ENCODERS \
                and target_codec != "pcm_s16le":
            raise ValueError(
                f"CodecRoundtripStage: target_codec={target_codec!r}")
        self.target_codec = target_codec
        self.min_snr_db = min_snr_db

    def _roundtrip(self, pcm: np.ndarray) -> np.ndarray:
        if self.target_codec == "pcm_s16le":
            return pcm
        enc = g711.G711_ENCODERS[self.target_codec](pcm)
        return g711.G711_LUTS[self.target_codec][enc]

    def __call__(self, batch: pa.Table) -> pa.Table:
        rows = []
        for _, cid, sr, pcm in decoded_pcm_rows(batch):
            if pcm is None:
                rows.append({"clip_id": cid, "decode_ok": False,
                             "sr_hz": None, "n_samples": None,
                             "roundtrip_snr_db": None, "ok": None})
                continue
            rt = self._roundtrip(pcm)
            x = pcm.astype(np.float64)
            e = rt.astype(np.float64) - x
            sig = float(np.dot(x, x))
            err = float(np.dot(e, e))
            if sig == 0.0:
                # silent clip: nothing to preserve — vacuous pass (A-law
                # has no exact zero code, its idle channel sits at ±8)
                snr, ok = None, True
            elif err == 0.0:
                snr, ok = math.inf, True
            else:
                snr = 10.0 * math.log10(sig / err)
                ok = bool(snr >= self.min_snr_db)
            rows.append({"clip_id": cid, "decode_ok": True, "sr_hz": sr,
                         "n_samples": int(len(pcm)),
                         "roundtrip_snr_db": snr, "ok": ok})
        return pa.Table.from_pylist(rows, schema=CODEC_QA_SCHEMA)
