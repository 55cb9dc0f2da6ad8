"""Stage tests over the deterministic clips table: golden expectations are
computed from the F1 injection rules (closed-form row index sets), never from
the engine itself."""

import numpy as np
import pyarrow as pa
import pytest

from gojsonschema_ray import datagen
from gojsonschema_ray.schema import compile_schema
from gojsonschema_ray.pipelines.flagship import DEFAULT_RULESET
from gojsonschema_ray.stages.audio import AudioInvariantChecker
from gojsonschema_ray.stages.sketches import ColumnStats, HyperLogLog, TDigest
from gojsonschema_ray.stages.validate import TableValidator

N = 10_000


@pytest.fixture(scope="module")
def clips():
    return datagen.clips_table(N, audio_cap_ms=40)


def test_schema_violations_golden(clips):
    tree = compile_schema(DEFAULT_RULESET)
    tv = TableValidator(tree, key_column="clip_id", mode="violations")
    viol = tv(clips)
    kw = viol["keyword"].to_pylist()
    # golden closed-form counts
    n_sr = sum(1 for i in range(N) if i % 991 == 0)           # enum sr_hz
    n_dur0 = sum(1 for i in range(N) if i % 983 == 0)         # exclusiveMinimum
    n_durmax = sum(1 for i in range(N) if i % 1009 == 0 and i % 983 != 0)
    n_codec = sum(1 for i in range(N) if i % 977 == 0)        # enum codec
    n_empty = sum(1 for i in range(N) if i % 971 == 0)        # minLength
    n_null = sum(1 for i in range(N) if i % 967 == 0 and i % 971 != 0)  # required
    assert kw.count("enum") == n_sr + n_codec
    assert kw.count("number_gt") == n_dur0
    assert kw.count("number_lte") == n_durmax
    assert kw.count("string_gte") == n_empty
    assert kw.count("required") == n_null
    # hot-key rows still match the clip_id pattern; no pattern violations
    assert kw.count("pattern") == 0


def test_audio_checker_golden(clips):
    checker = AudioInvariantChecker(audio_cap_ms=40)
    viol = checker(clips.slice(0, 3000))
    kws = viol["keyword"].to_pylist()
    keys = viol["key"].to_pylist()
    # truncated payloads: i % 1013 == 0 → decode (wav) or pcm_length (raw)
    truncated = [i for i in range(3000) if i % 1013 == 0]
    bad_codec = [i for i in range(3000) if i % 977 == 0]
    got_decode = {k for k, w in zip(keys, kws) if w in ("decode", "pcm_length")}
    for i in truncated:
        cid = datagen.row_meta(i)["clip_id"]
        assert cid in got_decode, f"row {i} truncated but not flagged"
    # invalid codec rows flagged as decode violations
    for i in bad_codec:
        cid = datagen.row_meta(i)["clip_id"]
        assert cid in got_decode
    # SNR violations should not fire on intact sine rows
    snr_keys = {k for k, w in zip(keys, kws) if w == "snr"}
    intact = datagen.row_meta(4)["clip_id"]
    assert intact not in snr_keys


def test_audio_checker_null_sr_no_spurious_snr():
    """A decodable clip whose sr_hz is null can't be SNR-fit (the batched
    kernel returns -inf for it) — it must NOT emit an 'snr' violation; a
    control row with the same noisy payload and a real sr still does."""
    import io
    import wave

    rng_free_noise = ((np.arange(8000) * 2654435761 % 65536) - 32768) \
        .astype(np.int16)
    buf = io.BytesIO()
    with wave.open(buf, "wb") as w:
        w.setnchannels(1)
        w.setsampwidth(2)
        w.setframerate(16000)
        w.writeframes(rng_free_noise.tobytes())
    blob = buf.getvalue()
    tab = pa.table({
        "clip_id": ["clip-nullsr", "clip-realsr"],
        "bytes": pa.array([blob, blob], pa.binary()),
        "sr_hz": pa.array([None, 16000], pa.int32()),
        "dur_ms": pa.array([None, None], pa.int32()),
        "codec": ["wav", "wav"],
        "transcript": ["", ""],
    })
    viol = AudioInvariantChecker(audio_cap_ms=4000)(tab)
    snr_keys = {k for k, w in zip(viol["key"].to_pylist(),
                                  viol["keyword"].to_pylist()) if w == "snr"}
    assert "clip-nullsr" not in snr_keys
    assert "clip-realsr" in snr_keys


def test_snr_catches_corrupted_pcm():
    from gojsonschema_ray.stages.audio import best_fit_sine_snr

    sr = 16000
    t = np.arange(sr // 2) / sr
    pure = (0.5 * np.sin(2 * np.pi * 250 * t) * 32767).astype(np.int16)
    assert best_fit_sine_snr(pure, sr) >= 30
    rng_free_noise = ((np.arange(len(t)) * 2654435761 % 65536) - 32768).astype(np.int16)
    assert best_fit_sine_snr(rng_free_noise, sr) < 30


def test_wav_payload_view_edges():
    """Zero-copy RIFF parser edge cases mirror the stdlib-wave semantics the
    checker's violation branches rely on: stereo/8-bit → ValueError
    (decode), truncated data → short view (pcm_length path), odd surviving
    byte → ValueError, garbage header → ValueError; odd payload offsets
    still produce correct samples (alignment fallback)."""
    import io
    import wave

    from gojsonschema_ray.stages.audio import wav_payload_view

    def make_wav(pcm: np.ndarray, sr=16000, ch=1, width=2) -> bytes:
        buf = io.BytesIO()
        with wave.open(buf, "wb") as w:
            w.setnchannels(ch)
            w.setsampwidth(width)
            w.setframerate(sr)
            w.writeframes(pcm.tobytes())
        return buf.getvalue()

    pcm = (np.arange(100, dtype=np.int16) - 50)
    blob = make_wav(pcm)
    got, sr = wav_payload_view(np.frombuffer(blob, np.uint8))
    assert sr == 16000 and np.array_equal(got, pcm)

    # odd start offset inside a larger buffer → copy fallback, same values
    padded = b"\x00" + blob
    got2, _ = wav_payload_view(np.frombuffer(padded, np.uint8)[1:])
    assert np.array_equal(got2, pcm)

    with pytest.raises(ValueError):  # stereo
        wav_payload_view(np.frombuffer(make_wav(pcm, ch=2), np.uint8))
    with pytest.raises(ValueError):  # 8-bit
        wav_payload_view(np.frombuffer(
            make_wav(pcm.astype(np.uint8), width=1), np.uint8))
    with pytest.raises(ValueError):  # garbage header
        wav_payload_view(np.frombuffer(b"nonsense" * 10, np.uint8))
    # non-PCM wFormatTag (e.g. WAVE_FORMAT_EXTENSIBLE 0xFFFE): stdlib wave
    # rejects it, so the zero-copy path must too — same violation keyword
    # on both decode paths
    nonpcm = bytearray(blob)
    nonpcm[20:22] = (0xFFFE).to_bytes(2, "little")
    with pytest.raises(ValueError):
        wav_payload_view(np.frombuffer(bytes(nonpcm), np.uint8))
    with pytest.raises(Exception):  # parity: stdlib wave rejects it as well
        wave.open(io.BytesIO(bytes(nonpcm)), "rb")
    # truncated data chunk: even survivor → short view; odd → raises
    even_cut = np.frombuffer(blob[:44 + 10], np.uint8)
    got3, _ = wav_payload_view(even_cut)
    assert np.array_equal(got3, pcm[:5])
    with pytest.raises(ValueError):
        wav_payload_view(np.frombuffer(blob[:44 + 9], np.uint8))


def _peak_frequency_reference(xf, sr, nfft=None):
    """The per-clip FFT-peak estimator the batched `_peak_frequencies`
    replaced: Hann spectrum of one signal zero-padded in a float32 buffer
    of nfft points (default 4x, at least 4096), argmax (DC excluded) +
    3-point parabola."""
    n = len(xf)
    nfft = nfft or 1 << max(12, int(np.ceil(np.log2(4 * n))))
    buf = np.zeros(nfft, np.float32)
    np.multiply(xf, np.hanning(n).astype(np.float32), out=buf[:n])
    spec = np.abs(np.fft.rfft(buf))
    k = int(np.argmax(spec[1:])) + 1
    if 1 <= k < len(spec) - 1:
        a, b, c = (float(spec[k - 1]), float(spec[k]), float(spec[k + 1]))
        denom = a - 2 * b + c
        delta = 0.5 * (a - c) / denom if denom != 0 else 0.0
        delta = float(np.clip(delta, -0.5, 0.5))
    else:
        delta = 0.0
    return (k + delta) * sr / nfft


def _best_fit_sine_snr_reference(x, sr):
    """The scalar one-clip SNR kernel: FFT-peak frequency, closed-form
    [sin, cos, 1] least-squares fits at the estimate ±0.3·pad_res and, when
    near-integral, at the rounded frequency; best fit wins."""
    n = len(x)
    if n < 16:
        return -np.inf
    xf = x.astype(np.float32)
    xf -= np.float32(x.mean(dtype=np.float64))
    nfft = 1 << max(12, int(np.ceil(np.log2(4 * n))))
    freq = _peak_frequency_reference(xf, sr)
    pad_res = sr / nfft
    cands = [freq - 0.3 * pad_res, freq, freq + 0.3 * pad_res]
    r = round(freq)
    if abs(freq - r) < 2 * pad_res:
        cands.append(float(r))
    return float(_sine_fit_snrs_reference(xf, sr, np.unique(np.array(cands)))
                 .max())


def _sine_fit_snrs_reference(xf, sr, freqs):
    """SNR (dB) of the closed-form [sin, cos, 1] least-squares fit of one
    mean-removed float32 clip at each frequency of `freqs`."""
    n = len(xf)
    W = np.multiply((2 * np.pi / sr * freqs).astype(np.float32)[:, None],
                    np.arange(n, dtype=np.float32)[None, :])
    S, C = np.sin(W), np.cos(W)
    G = np.empty((len(freqs), 3, 3))
    G[:, 0, 0] = np.einsum("ij,ij->i", S, S)
    G[:, 0, 1] = G[:, 1, 0] = np.einsum("ij,ij->i", S, C)
    G[:, 0, 2] = G[:, 2, 0] = S.sum(1)
    G[:, 1, 1] = np.einsum("ij,ij->i", C, C)
    G[:, 1, 2] = G[:, 2, 1] = C.sum(1)
    G[:, 2, 2] = n
    b = np.stack([S @ xf, C @ xf,
                  np.full(len(freqs), xf.sum(dtype=np.float64))],
                 axis=1).astype(np.float64)
    coef = np.linalg.solve(G, b[..., None])[..., 0]
    energy = float(np.einsum("i,i->", xf, xf, dtype=np.float64))
    fit = (coef * b).sum(1)
    noise = np.maximum(energy - fit, 0.0)
    with np.errstate(divide="ignore"):
        return 10 * np.log10(np.maximum(fit, 1e-30) / np.maximum(noise, 1e-30))


def test_snr_batch_matches_scalar():
    """The batched SNR kernel agrees with the scalar reference clip-by-clip:
    identical verdicts at the 30 dB threshold and tight dB agreement below
    the clamped near-zero-noise regime (where both kernels' log10 of a
    1e-30-clamped residual is numerically meaningless but hugely positive)."""
    from gojsonschema_ray.stages.audio import (best_fit_sine_snr,
                                               best_fit_sine_snr_batch)

    rng = np.random.default_rng(7)
    pcms, srs = [], []
    for sr in (8000, 16000, 44100):
        t = np.arange(int(sr * 0.05)) / sr
        for f0, noise in ((250, 0.0), (997.3, 0.01), (60, 0.3), (4000, 1.0)):
            x = 0.4 * np.sin(2 * np.pi * f0 * t) + noise * rng.standard_normal(len(t))
            pcms.append((x * 20000).clip(-32768, 32767).astype(np.int16))
            srs.append(sr)
    pcms.append(None)          # undecodable slot
    srs.append(16000)
    pcms.append(np.zeros(8, np.int16))  # under the 16-sample guard
    srs.append(16000)

    batch = best_fit_sine_snr_batch(pcms, srs)
    for i, (p, s) in enumerate(zip(pcms, srs)):
        if p is None or len(p) < 16:
            assert batch[i] == -np.inf
            continue
        scalar = _best_fit_sine_snr_reference(p, s)
        assert (scalar >= 30) == (batch[i] >= 30)
        if min(scalar, batch[i]) < 60:  # below the clamp regime
            assert abs(scalar - batch[i]) < 0.5
        assert best_fit_sine_snr(p, s) == batch[i]  # one-clip call


def _peak_cases():
    """(name, (k, n) float32 stack, sr) cases for the peak search: every
    datagen rate at 30 and 50 ms with k around the block size, a peak at
    bin 1 and at Nyquist, a flat top, and clips under 16 samples."""
    from gojsonschema_ray.stages.audio import _nfft, _pad_block

    rng = np.random.default_rng(11)
    for sr in datagen.SR_CYCLE:
        for cap in (30, 50):
            n = sr * cap // 1000
            m = _pad_block(n, _nfft(n)).shape[0]
            t = np.arange(n) / sr
            for k in (m - 1, m, m + 1):
                if k < 1:
                    continue
                f = rng.uniform(50, sr / 2 - 50, k)
                X = np.sin(2 * np.pi * f[:, None] * t) \
                    + 0.1 * rng.standard_normal((k, n))
                yield f"sr{sr}-{cap}ms-k{k}", X.astype(np.float32), sr
    n = 480
    yield "bin1", np.ones((3, n), np.float32), 16000  # DC leaks into bin 1
    alt = np.where(np.arange(n) % 2 == 0, 1.0, -1.0)
    yield "nyquist", np.tile(alt, (3, 1)).astype(np.float32), 16000
    # short rows right after longer ones of the same nfft: a pad buffer
    # shared across lengths would leave a dirty tail
    for n in (5, 15):
        yield f"n{n}", rng.standard_normal((4, n)).astype(np.float32), 8000
    yield "flat", np.zeros((2, 480), np.float32), 16000  # denom == 0


def test_peak_frequencies_bit_exact():
    """One rfft per block of rows gives each row the bit-identical
    frequency of a one-signal peak search, float32 rows (the SNR kernel)
    and float64 rows (pcm_features) alike."""
    from gojsonschema_ray.stages.audio import (_nfft, _peak_frequencies,
                                               _peak_frequency)

    bins = {}
    for name, X, sr in _peak_cases():
        nfft = _nfft(X.shape[1])
        # float64 rows off the float32 grid, as pcm_features passes them
        for rows in (X, X.astype(np.float64) / 3):
            ref = np.array([_peak_frequency_reference(x, sr) for x in rows])
            assert np.array_equal(_peak_frequencies(rows, sr, nfft), ref), name
            assert _peak_frequency(rows[0], sr) == ref[0], name
        bins[name] = ref[0] * nfft / sr
    assert 0.5 <= bins["bin1"] <= 1.5  # argmax bin 1, parabola toward DC
    assert bins["nyquist"] == 4096 // 2  # edge bin: no parabola


def test_snr_batch_bit_exact_on_datagen(monkeypatch):
    """best_fit_sine_snr_batch on a datagen fragment equals, bit for bit,
    the same kernel with one peak search per clip."""
    from gojsonschema_ray.stages import audio

    t = datagen.clips_batch(0, 600, 30)
    dec = audio.base_decoders()
    pcms, srs = [], []
    for b, sr, codec in zip(t["bytes"].to_pylist(), t["sr_hz"].to_pylist(),
                            t["codec"].to_pylist()):
        try:
            pcms.append(dec[codec](b, sr)[0])
        except Exception:  # noqa: BLE001 — undecodable rows stay None
            pcms.append(None)
        srs.append(sr)
    batched = audio.best_fit_sine_snr_batch(pcms, srs)
    monkeypatch.setattr(audio, "_peak_frequencies", lambda X, sr, nfft: np.array(
        [_peak_frequency_reference(x, sr) for x in X]))
    per_clip = audio.best_fit_sine_snr_batch(pcms, srs)
    assert np.isfinite(batched).sum() > 500
    assert np.array_equal(batched, per_clip)


def _raw_clips_table(rows):
    """Checker input from (clip_id, int16 pcm, sr) rows, raw s16le with no
    dur_ms (no length check) and ids the transcript check skips."""
    return pa.table({
        "clip_id": [r[0] for r in rows],
        "bytes": pa.array([r[1].tobytes() for r in rows], pa.binary()),
        "sr_hz": pa.array([r[2] for r in rows], pa.int32()),
        "dur_ms": pa.array([None] * len(rows), pa.int32()),
        "codec": ["pcm_s16le"] * len(rows),
        "transcript": [""] * len(rows),
    })


def _exact_only(monkeypatch, checker, table):
    """The checker's violation table when the screen clears nothing, so
    every fittable clip's verdict comes from the exact kernel alone."""
    from gojsonschema_ray.stages import audio

    with monkeypatch.context() as m:
        m.setattr(audio, "_screen_group",
                  lambda X, sr, n, k: np.full(X.shape[0], -np.inf))
        return checker(table)


def _snr_rows(viol):
    return {k: a for k, w, a in zip(viol["key"].to_pylist(),
                                    viol["keyword"].to_pylist(),
                                    viol["actual"].to_pylist()) if w == "snr"}


def test_snr_screen_verdicts_are_sound():
    """A clip is flagged `snr` exactly when both the exact kernel and the
    screen score it under `snr_db`, and a flagged row reports the exact
    kernel's SNR: tones (integral and not, 8/16/48 kHz), white noise,
    tones with noise near 30 dB, a clip under 16 samples, a null rate."""
    from gojsonschema_ray.stages.audio import (_screen_snr_batch,
                                               best_fit_sine_snr_batch)

    rng = np.random.default_rng(23)
    rows = []
    for sr in (8000, 16000, 48000):
        for ms in (20, 30, 100):
            t = np.arange(sr * ms // 1000) / sr
            for f0 in (250.0, 997.0, 441.37, 1234.56):
                x = 0.5 * np.sin(2 * np.pi * f0 * t + rng.uniform(0, 6))
                rows.append((f"tone-{sr}-{ms}-{f0}", x, sr))
                for db in (27.0, 29.5, 30.0, 30.5, 33.0):
                    noise = rng.standard_normal(len(t))
                    noise *= np.sqrt(0.125 / 10 ** (db / 10)) / noise.std()
                    rows.append((f"noisy-{sr}-{ms}-{f0}-{db}", x + noise, sr))
            rows.append((f"noise-{sr}-{ms}", 0.3 * rng.standard_normal(len(t)),
                         sr))
    rows.append(("short", np.sin(np.arange(12.0)), 16000))
    rows.append(("nullsr", np.sin(np.arange(480.0) / 3), None))
    rows = [(cid, (x * 32767).clip(-32768, 32767).astype(np.int16), sr)
            for cid, x, sr in rows]
    checker = AudioInvariantChecker()
    got = _snr_rows(checker(_raw_clips_table(rows)))
    pcms, srs = [r[1] for r in rows], [r[2] for r in rows]
    exact = best_fit_sine_snr_batch(pcms, srs)
    screen = _screen_snr_batch(pcms, srs)
    want = {r[0]: f"{e:.1f} dB" for r, e, s in zip(rows, exact, screen)
            if r[2] and len(r[1]) >= 16
            and e < checker.snr_db and s < checker.snr_db}
    assert got == want
    assert any(cid.startswith("noisy-") for cid in got)
    # each screen value is a real fit's SNR: the one-clip reference fit at
    # the 2n-point peak and its rounding (float32 phase error swamps the
    # residual of the cleanest tones, so those are not compared)
    for (cid, x, sr), s in zip(rows, screen):
        if not sr or len(x) < 16:
            assert s == -np.inf, cid
            continue
        xf = x.astype(np.float32)
        xf -= np.float32(x.mean(dtype=np.float64))
        f1 = _peak_frequency_reference(xf, sr, 1 << (2 * len(x) - 1).bit_length())
        ref = _sine_fit_snrs_reference(xf, sr, np.array([f1, round(f1)])).max()
        assert abs(s - ref) < 0.5 or min(s, ref) > 50, (cid, s, ref)
    assert {f"noise-{sr}-{ms}" for sr in (8000, 16000, 48000)
            for ms in (20, 30, 100)} <= set(got)
    for cid, x, sr in rows:
        if cid.startswith("tone-"):
            assert cid not in got


@pytest.mark.parametrize("cap", [30, 50])
def test_snr_screen_matches_exact_on_datagen(monkeypatch, cap):
    """On a datagen fragment the checker's violation table equals, row for
    row, the table of the exact kernel alone."""
    t = datagen.clips_batch(0, 2048, cap)
    checker = AudioInvariantChecker(audio_cap_ms=cap)
    got = checker(t)
    assert got.equals(_exact_only(monkeypatch, checker, t))
    assert got.num_rows > 0


def test_snr_screen_on_noise_falls_back(monkeypatch):
    """On an all-noise batch the screen clears nothing, every clip takes
    the exact kernel, and the table is the exact kernel's."""
    from gojsonschema_ray.stages.audio import _screen_snr_batch

    rng = np.random.default_rng(5)
    rows = [(f"n{i}", (rng.standard_normal(sr * 30 // 1000) * 8000)
             .astype(np.int16), sr)
            for i, sr in enumerate([8000, 16000, 22050, 44100, 48000] * 20)]
    checker = AudioInvariantChecker()
    screen = _screen_snr_batch([r[1] for r in rows], [r[2] for r in rows])
    assert (screen < checker.snr_db).all()
    table = _raw_clips_table(rows)
    got = checker(table)
    assert got.equals(_exact_only(monkeypatch, checker, table))
    assert set(_snr_rows(got)) == {r[0] for r in rows}


def test_row_transcript_is_row_meta_transcript():
    """The transcript's closed form equals row_meta's, the empty (i % 971)
    and null (i % 967) rows included."""
    from gojsonschema_ray.stages.audio import reference_transcript

    got = [datagen.row_transcript(i) for i in range(30_000)]
    assert got == [datagen.row_meta(i)["transcript"] for i in range(30_000)]
    assert "" in got and None in got
    assert reference_transcript(1234) == got[1234]


def test_long_one_row_peak_search_is_not_cached():
    """A one-row block (nfft past the block budget, as a long clip's
    pcm_features needs) is not kept per worker, and its peak is unchanged."""
    from gojsonschema_ray.stages import audio

    sr, n = 16000, 10000
    nfft = audio._nfft(n)
    assert audio._FFT_BLOCK_BYTES // (8 * nfft) <= 1
    t = np.arange(n) / sr
    pcm = (8000 * np.sin(2 * np.pi * 441.3 * t)).astype(np.int16)
    xf = pcm.astype(np.float64)
    est = audio.pcm_features(pcm, sr)["est_freq_hz"]
    assert nfft not in audio._PAD_CACHE
    assert est == _peak_frequency_reference(xf - xf.mean(), sr)
    assert abs(est - 441.3) < 0.5


def test_tdigest_quantiles():
    d = TDigest()
    vals = np.arange(100_000, dtype=np.float64)
    for chunk in np.array_split(vals, 13):
        d.add_array(chunk)
    for q in (0.01, 0.25, 0.5, 0.9, 0.99):
        assert abs(d.quantile(q) - q * 100_000) < 1500, q
    # merge associativity
    d2 = TDigest()
    d2.add_array(vals[:50_000])
    d3 = TDigest()
    d3.add_array(vals[50_000:])
    d2.merge(d3)
    assert abs(d2.quantile(0.5) - 50_000) < 1500


def _drift_per_edge(digest_a, digest_b, bins=64):
    """drift_from_digests as a per-edge loop of scalar CDFs, each one
    re-compressing its digest first."""
    def cdf(d, x):
        d._compress()
        cum = np.cumsum(d.weights) - d.weights / 2
        if x <= d.min:
            return 0.0
        if x >= d.max:
            return 1.0
        return float(np.interp(x, d.means, cum / d.weights.sum()))

    edges = np.linspace(min(digest_a.min, digest_b.min),
                        max(digest_a.max, digest_b.max), bins + 1)
    ca = np.array([cdf(digest_a, x) for x in edges])
    cb = np.array([cdf(digest_b, x) for x in edges])
    pa_ = np.clip(np.diff(ca), 1e-6, None)
    pb_ = np.clip(np.diff(cb), 1e-6, None)
    return float(np.abs(ca - cb).max()), \
        float(np.sum((pa_ - pb_) * np.log(pa_ / pb_)))


def test_drift_from_digests_matches_per_edge_loop():
    """The vectorized edge CDFs give bit-identical KS/PSI to the per-edge
    loop, on seeded digests with point masses on bin edges."""
    import copy

    from gojsonschema_ray.stages.drift import drift_from_digests

    for seed in range(12):
        rng = np.random.default_rng(seed)
        digests = []
        for side in range(2):
            d = TDigest()
            for _ in range(int(rng.integers(1, 6))):
                v = rng.normal(32 + 4 * side, 8, int(rng.integers(50, 3000)))
                # point masses on integers, which are the bin edges
                # once both sides span [0, 64]
                v[rng.random(len(v)) < 0.3] = float(rng.integers(0, 65))
                v[:2] = 0.0, 64.0
                part = TDigest()
                part.add_array(np.clip(np.round(v, int(rng.integers(0, 3))),
                                       0, 64))
                d.merge(part)
            digests.append(d)
        digests.append(TDigest())
        digests[-1].add_array(np.full(100, 16.0))   # one point mass only
        for a, b in ((0, 1), (1, 0), (0, 2), (2, 1)):
            da, db = digests[a], digests[b]
            want = _drift_per_edge(copy.deepcopy(da), copy.deepcopy(db))
            got = drift_from_digests(da, db)
            assert (got["ks"], got["psi"]) == want, (seed, a, b)


def test_hll_cardinality():
    h = HyperLogLog()
    arr = pa.array([f"key-{i}" for i in range(200_000)])
    h.add_array(arr)
    est = h.cardinality()
    assert abs(est - 200_000) / 200_000 < 0.03
    # merge
    h2 = HyperLogLog()
    h2.add_array(pa.array([f"key-{i}" for i in range(150_000, 250_000)]))
    h.merge(h2)
    assert abs(h.cardinality() - 250_000) / 250_000 < 0.03


def test_column_stats_exact_fields(clips):
    st = ColumnStats("sr_hz", numeric=True)
    st.add(clips["sr_hz"])
    s = st.summary()
    assert s["count"] == N and s["nulls"] == 0
    assert s["min"] == 7000.0 and s["max"] == 48000.0
    st2 = ColumnStats("transcript", numeric=False)
    st2.add(clips["transcript"])
    s2 = st2.summary()
    assert s2["nulls"] == sum(1 for i in range(N) if i % 967 == 0 and i % 971 != 0)


def test_uniqueness_skewed_hot_key(ray_session):
    """A key holding 50% of all rows must (a) count correctly and (b) collapse
    inside the per-block partials BEFORE the shuffle — the pre-aggregation is
    the skew defense (SURVEY.md §2.6): the hot key contributes at most one
    partial row per block, so no reducer ever sees its raw row mass."""
    import ray.data as rd

    from gojsonschema_ray.stages.uniqueness import (
        KeyCountStage, add_salted_key, duplicate_keys, top_hot_keys,
    )
    from gojsonschema_ray.util import collect_rows

    n = 20_000
    keys = ["hot" if i % 2 == 0 else f"k{i}" for i in range(n)]
    ds = rd.from_arrow(pa.table({"clip_id": keys})).repartition(8)

    dups = {r["clip_id"]: r["n_rows"] for r in collect_rows(duplicate_keys(ds, "clip_id"))}
    assert dups == {"hot": n // 2}

    # partials collapse: ≤ one row per key per block
    partials = ds.map_batches(KeyCountStage("clip_id"), batch_format="pyarrow")
    n_partials = partials.count()
    assert n_partials <= (n // 2) + 8  # unique keys + ≤1 hot row per block

    # sample-based hot-key scan finds the hot key
    hot = top_hot_keys(ds, "clip_id", sample_frac=0.05, top_k=4, min_share=0.01)
    assert "hot" in hot

    # payload-salting spreads the hot key over sub-buckets
    batch = pa.table({"clip_id": pa.array(["hot"] * 64 + ["cold"] * 4)})
    salted = add_salted_key(batch, "clip_id", hot_keys={"hot"}, salt_buckets=8)
    hot_buckets = set(salted["_shuffle_key"].to_pylist()[:64])
    cold_buckets = set(salted["_shuffle_key"].to_pylist()[64:])
    assert len(hot_buckets) == 8      # hot rows fan out
    assert len(cold_buckets) == 1     # cold key stays on one bucket


def test_uniqueness_width_independent(ray_session, monkeypatch):
    """duplicate_keys / uniqueness_violations return the same rows at any
    exchange width — the reducer groups on the key within whatever `part`
    values arrive — over NULL keys, a hot key and ordinary duplicates; a
    duplicate-free input yields an empty result typed VIOLATION_SCHEMA."""
    from collections import Counter

    import ray.data as rd

    from gojsonschema_ray.stages import uniqueness
    from gojsonschema_ray.stages.uniqueness import (
        duplicate_keys, uniqueness_violations,
    )
    from gojsonschema_ray.stages.validate import VIOLATION_SCHEMA
    from gojsonschema_ray.util import collect_rows

    n = 6000
    keys = [None if i % 11 == 0 else "hot" if i % 3 == 0
            else f"u{i}" if i % 7 == 0 else f"k{i % 1500}" for i in range(n)]
    ds = rd.from_arrow(pa.table({"clip_id": keys})).repartition(6)
    expected = {k: c for k, c in Counter(keys).items()
                if k is not None and c >= 2}
    assert expected["hot"] > 1000 and len(expected) > 100
    exp_viol = sorted((k, "unique", "(root).clip_id", "unique clip_id", str(c))
                      for k, c in expected.items())
    default_parts = uniqueness.exchange_parts

    def at_width(width):
        monkeypatch.setattr(uniqueness, "exchange_parts",
                            default_parts if width is None else lambda: width)
        assert uniqueness.KeyCountStage("clip_id").n_parts == \
            (width or default_parts())

    for width in (None, 1, 3, 32):
        at_width(width)
        dups = {r["clip_id"]: r["n_rows"]
                for r in collect_rows(duplicate_keys(ds, "clip_id"))}
        assert dups == expected, width
        viol = uniqueness_violations(ds, "clip_id").materialize()
        assert viol.schema().base_schema == VIOLATION_SCHEMA, width
        got = sorted(tuple(r[c] for c in VIOLATION_SCHEMA.names)
                     for r in collect_rows(viol))
        assert got == exp_viol, width

    clean = rd.from_arrow(pa.table(
        {"clip_id": [f"u{i}" for i in range(2000)] + [None] * 3})) \
        .repartition(4)
    for width in (None, 1, 3, 32):
        at_width(width)
        viol = uniqueness_violations(clean, "clip_id").materialize()
        assert viol.count() == 0, width
        assert viol.schema().base_schema == VIOLATION_SCHEMA, width


def test_exchange_parts_one_per_cpu(ray_session, monkeypatch):
    """The key-count exchange is one partition per cluster CPU: 4 on the
    4-CPU test session (no floor of 8), 64 on a 64-CPU cluster (no cap at
    32), and 8 only when Ray is not running. Every other exchange uses
    shuffle_width(): the same count floored at 8."""
    import ray

    from gojsonschema_ray.stages.exchange import exchange_parts, shuffle_width
    from gojsonschema_ray.stages.uniqueness import KeyCountStage

    assert int(ray.cluster_resources()["CPU"]) == 4
    assert exchange_parts() == 4
    assert shuffle_width() == 8
    assert KeyCountStage("k").n_parts == 4
    monkeypatch.setattr(ray, "cluster_resources", lambda: {"CPU": 64.0})
    assert exchange_parts() == 64
    assert shuffle_width() == 64
    monkeypatch.setattr(ray, "cluster_resources", lambda: {"CPU": 12.0})
    assert shuffle_width() == 12
    monkeypatch.setattr(ray, "is_initialized", lambda: False)
    assert exchange_parts() == 8
    assert shuffle_width() == 8


def _none_if_nan(v):
    return None if v is None or v != v else v


@pytest.mark.parametrize("batch_format", ["pandas", "pyarrow"])
def test_exchange_width_independent(ray_session, batch_format):
    """exchange() tags its own partitions: at any width, for a one- and a
    two-column key with nulls, from pandas-built and Arrow-built partials,
    in either reduce format, every key's rows meet in ONE reduce call (the
    per-call counts of equal keys never split) and `reduce` never sees the
    `part` tag."""
    from collections import Counter

    import pandas as pd
    import ray.data as rd

    from gojsonschema_ray.stages.exchange import exchange, shuffle_width
    from gojsonschema_ray.util import collect_rows

    n = 900
    rows = {"k": [f"k{i % 37}" if i % 5 else None for i in range(n)],
            "b": [i % 4 for i in range(n)]}
    src = rd.from_arrow(pa.table(rows)).repartition(7)
    built = {
        "arrow": src.map_batches(
            lambda t: t.append_column("c", pa.array([1] * t.num_rows)),
            batch_format="pyarrow"),
        "pandas": src.map_batches(lambda df: df.assign(c=1),
                                  batch_format="pandas"),
    }

    for key in ("k", ["k", "b"]):
        cols = [key] if isinstance(key, str) else key
        expected = Counter(zip(*(rows[c] for c in cols)))

        def reduce(batch, cols=cols):
            df = batch if isinstance(batch, pd.DataFrame) \
                else batch.to_pandas()
            assert list(df.columns) == ["k", "b", "c"]
            g = df.groupby(cols, sort=False, dropna=False)["c"].sum() \
                .reset_index()
            return g if batch_format == "pandas" else pa.Table.from_pandas(
                g, preserve_index=False)

        for origin, partials in built.items():
            for width in (1, 3, shuffle_width()):
                got = [(tuple(_none_if_nan(r[c]) for c in cols), r["c"])
                       for r in collect_rows(exchange(
                           partials, reduce, key, P=width,
                           batch_format=batch_format))]
                # one output row per key: equal keys met in one reducer
                assert len(got) == len(expected), (key, origin, width)
                assert dict(got) == expected, (key, origin, width)


def test_exchange_two_column_key_colocates_tuples(ray_session):
    """A two-column key sends every row of one (a, b) tuple to the same
    reduce call — from Arrow and from pandas blocks alike — while tuples
    that share `a` still spread over more partitions than `a` has
    values."""
    import os
    from collections import Counter

    import pandas as pd
    import ray.data as rd

    from gojsonschema_ray.stages.exchange import exchange
    from gojsonschema_ray.util import collect_rows

    n = 1200
    a = [f"a{i % 3}" for i in range(n)]
    b = [f"b{i % 40}" if i % 9 else None for i in range(n)]
    src = rd.from_arrow(pa.table({"a": a, "b": b})).repartition(6)

    def reduce(df: pd.DataFrame) -> pd.DataFrame:
        # one row per distinct tuple this call saw, tagged with the call
        return df[["a", "b"]].drop_duplicates().assign(
            call=int.from_bytes(os.urandom(6), "little"))

    for partials in (src, src.map_batches(lambda df: df,
                                          batch_format="pandas")):
        rows = collect_rows(exchange(partials, reduce, ["a", "b"], P=5))
        per_tuple = Counter((r["a"], r["b"]) for r in rows)
        assert set(per_tuple) == set(zip(a, b))
        assert set(per_tuple.values()) == {1}
        assert len({r["call"] for r in rows}) > 3


def test_hash_part_matches_partition_hash():
    """hash_part is the int32 tag hash_arrow_array(v) % P, for string,
    int64 and all-null inputs, Arrow arrays and pandas Series alike."""
    import pandas as pd

    from gojsonschema_ray.stages.exchange import hash_part
    from gojsonschema_ray.stages.sketches import hash_arrow_array

    cases = [pa.array(["a", None, "bb", "a", ""]),
             pa.array([1, -7, None, 2**62, 0], pa.int64()),
             pa.array([None, None], pa.string()),
             pa.chunked_array([pa.array([3, 4]), pa.array([5])]),
             pd.Series(["x", None, "y"])]
    for values in cases:
        for P in (1, 3, 8):
            got = hash_part(values, P)
            assert got.type == pa.int32()
            exp = (hash_arrow_array(values) % np.uint64(P)).astype(np.int32)
            assert got.to_numpy().tolist() == exp.tolist()


def test_hash_arrow_array_matches_pandas_hash():
    """The engine's partition hash is pandas' row hash of the converted
    values, bit for bit — for Arrow strings (hashed once per distinct
    value, nulls included), other Arrow types, and row-wise for Arrow
    tables and DataFrames — so stored KeyCountStage layouts stay valid.
    The one exception: an Arrow integer array holding a null hashes by its
    integer values (pandas would convert it to float64), the null as the
    all-ones word, also as a table column."""
    import pandas as pd

    from gojsonschema_ray.stages.sketches import hash_arrow_array

    def ref(values):
        if isinstance(values, pa.ChunkedArray):
            values = values.combine_chunks()
        if isinstance(values, (pa.Array, pa.Table)):
            values = values.to_pandas()
        return pd.util.hash_pandas_object(values, index=False) \
            .to_numpy(dtype=np.uint64)

    rng = np.random.default_rng(3)
    cases = [pa.array(["a", None, "bb", "a", ""]),
             pa.array([None, None], pa.string()),
             pa.array([], pa.string()),
             pa.array(["ü", "日本", None, "ü"], pa.large_string()),
             pa.chunked_array([pa.array(["a", "b"]), pa.array([None, "a"])]),
             pa.array(["x", "y", "z", "x"]).slice(1, 3),
             pa.array([f"k{i}" for i in rng.integers(0, 300, 4000)]),
             pa.array([1, 2, 3], pa.int32()),
             pa.table({"a": ["x", None, "x"], "b": [1, 2, 1]}),
             pd.DataFrame({"a": ["x", None, "x"], "b": [1, 2, 1]})]
    for values in cases:
        assert hash_arrow_array(values).tolist() == ref(values).tolist(), \
            values
    two = hash_arrow_array(pa.table({"a": ["x", "x", "y"], "b": [1, 1, 1]}))
    assert two[0] == two[1] != two[2]

    ints = ref(pa.array([1, 3], pa.int64())).tolist()
    with_null = [ints[0], np.iinfo(np.uint64).max, ints[1]]
    for values in (pa.array([1, None, 3], pa.int64()),
                   pa.chunked_array([pa.array([1]), pa.array([None, 3])])):
        assert hash_arrow_array(values).tolist() == with_null
    rows = hash_arrow_array(pa.table({"a": ["x", "x"], "b": [1, None]}))
    assert rows[0] == hash_arrow_array(pa.table({"a": ["x"], "b": [1]}))[0]


def test_int_keys_with_nulls_tag_once(ray_session, tmp_path, monkeypatch):
    """An integer key gets one partition tag whether or not its block
    holds a null: duplicate_keys over two Arrow blocks of keys 0..49, the
    second with an extra null, finds all 50. A stored partial written in
    the older layout (a null-holding integer block tagged by its float64
    conversion, no INT_TAGS mark) is read whole and re-tagged, so it still
    counts with a new one. An older-layout file with no null key already
    has the new tags, so it is still read by row groups only."""
    import pandas as pd
    import pyarrow.compute as pc
    import pyarrow.parquet as pq
    import ray.data as rd

    from gojsonschema_ray.stages.exchange import exchange_parts, hash_part
    from gojsonschema_ray.stages.uniqueness import (
        PART_WIDTH, KeyCountStage, _stored_part, duplicate_keys,
        stored_key_count_violations,
    )
    from gojsonschema_ray.util import collect_rows

    a = pa.table({"k": pa.array(range(50), pa.int64())})
    b = pa.table({"k": pa.array([*range(50), None], pa.int64())})
    rows = collect_rows(duplicate_keys(rd.from_arrow([a, b]), "k"))
    assert sorted((r["k"], r["n_rows"]) for r in rows) \
        == [(k, 2) for k in range(50)]

    P = exchange_parts()
    g = b.group_by("k").aggregate([("k", "count")]).rename_columns(["k", "cnt"])
    old = (pd.util.hash_pandas_object(g["k"].to_pandas(), index=False)
           .to_numpy(dtype=np.uint64) % np.uint64(P)).astype(np.int32)
    assert (old != hash_part(g["k"], P).to_numpy()).any()
    g = g.append_column("part", pa.array(old))
    g = g.take(pc.sort_indices(g["part"])) \
        .replace_schema_metadata({PART_WIDTH: str(P)})
    old_path = str(tmp_path / "old.parquet")
    with pq.ParquetWriter(old_path, g.schema) as w:
        for p in np.unique(old):
            w.write_table(g.filter(pc.equal(g["part"], p)))
    new_path = str(tmp_path / "new.parquet")
    KeyCountStage("k").write(a, new_path)
    got = collect_rows(stored_key_count_violations([old_path, new_path], "k"))
    assert sorted((int(r["key"]), r["actual"]) for r in got) \
        == [(k, "2") for k in range(50)]

    # the older layout without a null: the same file minus INT_TAGS
    no_null_path = str(tmp_path / "no_null.parquet")
    t = pq.read_table(new_path)
    pq.write_table(t.replace_schema_metadata({PART_WIDTH: str(P)}),
                   no_null_path, row_group_size=1)
    assert pq.ParquetFile(no_null_path).metadata.num_row_groups == 50

    def read_whole(*args, **kwargs):
        raise AssertionError("read whole")

    monkeypatch.setattr(pq.ParquetFile, "read", read_whole)
    parts = [_stored_part(no_null_path, "k", p, P) for p in range(P)]
    assert sorted(pa.concat_tables(parts)["k"].to_pylist()) == list(range(50))
    for p, part in enumerate(parts):
        assert (hash_part(part["k"], P).to_numpy() == p).all()


def _call_args(text: str, name: str) -> list[str]:
    """The argument text of every `name(...)` call in `text`."""
    import re

    out = []
    for m in re.finditer(rf"\b{re.escape(name)}\(", text):
        depth, i = 1, m.end()
        while depth:
            depth += {"(": 1, ")": -1}.get(text[i], 0)
            i += 1
        out.append(text[m.end():i - 1])
    return out


def test_exchange_idiom_lives_in_one_module():
    """The coarse hash exchange (map_groups over tagged partials), its
    width helpers, its partition tag and the object-store broadcast
    (`ray.put`) exist only in stages/exchange.py: no caller builds a
    `part` tag by hand (`% np.uint64(P)`, a `bit_wise_and` mask, a
    golden-ratio pair mix) or passes an exchange `by=`; `hash_part`
    appears elsewhere only in uniqueness.py's stored key-count layout
    (KeyCountStage, _stored_part), the golden-ratio constant only in
    add_salted_key. No hand-rolled `ray.get(h) if hasattr(h, "hex") else
    h` resolver remains anywhere; the sample-sort cut-point idiom (thin
    each batch to evenly spaced order statistics, then take the distinct
    quantiles) lives only in sketches' `_thin` and `_cut_points`, and the
    clamped sorted-array probe only in util's `_probe_sorted`."""
    import inspect
    import pathlib
    import re

    from gojsonschema_ray.stages.sketches import _cut_points, _thin
    from gojsonschema_ray.stages.uniqueness import (
        KeyCountStage, _stored_part, add_salted_key,
    )
    from gojsonschema_ray.util import _probe_sorted

    root = pathlib.Path(__file__).resolve().parents[1]
    files = [*sorted((root / "gojsonschema_ray").rglob("*.py")),
             root / "__ray_entry__.py"]
    exchange_py = root / "gojsonschema_ray" / "stages" / "exchange.py"
    uniqueness_py = root / "gojsonschema_ray" / "stages" / "uniqueness.py"
    texts = {f: f.read_text() for f in files}
    offenders = [f"{f.relative_to(root)}: {needle}"
                 for f, text in texts.items() if f != exchange_py
                 for needle in (".map_groups(", "_next_pow2", "_shuffle_parts",
                                "ray.put(", "% np.uint64(P)")
                 if needle in text]
    offenders += [f"{f.relative_to(root)}: hex" for f, text in texts.items()
                  if '"hex")' in text]
    offenders += [f"{f.relative_to(root)}: bit_wise_and tag"
                  for f, text in texts.items() if f != exchange_py
                  for args in _call_args(text, "bit_wise_and")
                  if re.search(r"\bP\b", args)]
    offenders += [f"{f.relative_to(root)}: exchange by="
                  for f, text in texts.items()
                  for args in _call_args(text, "exchange")
                  if re.search(r"\bby=", args)]
    offenders += [f"{f.relative_to(root)}: hash_part("
                  for f, text in texts.items()
                  if f not in (exchange_py, uniqueness_py)
                  and "hash_part(" in text]
    assert offenders == []
    stored_layout = inspect.getsource(KeyCountStage) \
        + inspect.getsource(_stored_part)
    assert texts[uniqueness_py].count("hash_part(") \
        == stored_layout.count("hash_part(") > 0
    for helper, needle in ((_thin, "np.linspace(0, len("),
                           (_cut_points, "np.linspace(0, 1, "),
                           (add_salted_key, "0x9E3779B97F4A7C15"),
                           (_probe_sorted, "np.minimum(np.searchsorted(")):
        assert sum(text.count(needle) for text in texts.values()) == 1, \
            needle
        assert needle in inspect.getsource(helper)


def test_table_reads_go_through_one_seam():
    """`ray.data.read_parquet(` is called only by the five index-layout
    reads, which pass a pyarrow `filesystem` (and, in layout, read the hive
    `zbucket=` partition column): MinHashIndex.probe (twice),
    InvertedTextIndex.search_pairs, ZOrderedReader.read_box and
    IVFIndex.search_built. Every other table read, `__ray_entry__._read`
    included, goes through sources.io.read_table."""
    import inspect
    import pathlib

    from gojsonschema_ray.stages import dedup, layout, similarity, textindex

    root = pathlib.Path(__file__).resolve().parents[1]
    files = [*sorted((root / "gojsonschema_ray").rglob("*.py")),
             root / "__ray_entry__.py"]
    counts = {f.relative_to(root).as_posix(): f.read_text().count("read_parquet(")
              for f in files}
    assert {f: n for f, n in counts.items() if n} == {
        "gojsonschema_ray/stages/dedup.py": 2,
        "gojsonschema_ray/stages/textindex.py": 1,
        "gojsonschema_ray/stages/layout.py": 1,
        "gojsonschema_ray/stages/similarity.py": 1}
    for fn, n in ((dedup.MinHashIndex.probe, 2),
                  (textindex.InvertedTextIndex.search_pairs, 1),
                  (layout.ZOrderedReader.read_box, 1),
                  (similarity.IVFIndex.search_built, 1)):
        assert inspect.getsource(fn).count("read_parquet(") == n, fn
    assert "read_table(" in inspect.getsource(
        __import__("__ray_entry__")._read)


def test_near_dup_verify_is_one_step():
    """stages/dedup.py expands every LSH bucket through one helper
    (`_bucket_pairs` holds the only np.triu_indices) and fetches candidate
    texts in one verify step (`_verify_candidates` holds the only
    _pair_texts call); no operator probes its id dtype from a schema and
    no per-pair groupby remains."""
    import inspect
    import pathlib

    from gojsonschema_ray.stages import dedup

    text = pathlib.Path(dedup.__file__).read_text()
    assert text.count("np.triu_indices(") == 1
    assert "np.triu_indices(" in inspect.getsource(dedup._bucket_pairs)
    assert text.count("_pair_texts(") - text.count("def _pair_texts(") == 1
    assert "_pair_texts(" in inspect.getsource(dedup._verify_candidates)
    assert "to_pandas_dtype" not in text
    assert 'groupby(["id_a", "id_b"]' not in text


def test_broadcast_handle(ray_session):
    """`exchange.broadcast`: a handle read on the driver still pickles as a
    bare ref (the cached value never rides along), `.get()` returns the
    value inside a plain task and inside a map_batches UDF, and a None
    value and an empty array round-trip."""
    import pickle

    import ray
    import ray.data as rd

    from gojsonschema_ray.stages.exchange import broadcast

    big = np.arange(1 << 17, dtype=np.int64)  # 1 MiB
    h = broadcast(big)
    assert np.array_equal(h.get(), big)
    assert len(pickle.dumps(h)) < 1024

    @ray.remote
    def total(handle):
        return int(handle.get().sum())

    assert ray.get(total.remote(h)) == int(big.sum())

    def tag(t: pa.Table) -> pa.Table:
        v = h.get()
        return t.append_column("v", pa.array(v[t["id"].to_numpy()]))

    rows = rd.range(64).map_batches(tag, batch_format="pyarrow").take_all()
    assert sorted(r["v"] for r in rows) == list(range(64))

    assert broadcast(None).get() is None
    empty = broadcast(np.zeros(0, np.uint64))
    assert ray.get(total.remote(empty)) == 0
    assert pickle.loads(pickle.dumps(empty)).get().dtype == np.uint64


def test_jsonl_source_validation(ray_session, tmp_path):
    """JSONL corpus → read_json (typed path) AND string-column generic path
    (reference loader family, jsonLoader.go:97-313)."""
    import json

    import ray.data as rd

    from gojsonschema_ray.schema import compile_schema
    from gojsonschema_ray.sources.jsonl import read_jsonl, validate_jsonl_column
    from gojsonschema_ray.stages.validate import TableValidator
    from gojsonschema_ray.util import collect_rows

    docs = [{"id": i, "v": i * 10} for i in range(50)]
    docs[7]["v"] = -5          # violates minimum
    docs[23]["v"] = 10**20     # bignum: stays exact in the generic path
    p = tmp_path / "docs.jsonl"
    p.write_text("\n".join(json.dumps(d) for d in docs))

    tree = compile_schema({
        "type": "object", "required": ["id", "v"],
        "properties": {"v": {"minimum": 0}},
    })

    # typed path: read_json -> vectorized TableValidator
    ds = read_jsonl(str(p))
    viol = ds.map_batches(TableValidator(tree, key_column="id", mode="violations"),
                          batch_format="pyarrow")
    rows = collect_rows(viol)
    assert {(r["key"], r["keyword"]) for r in rows} == {("7", "number_gte")}

    # generic path: documents as raw strings (heterogeneous-schema mode)
    raw = rd.from_items([{"doc_id": i, "body": json.dumps(d)}
                         for i, d in enumerate(docs)] +
                        [{"doc_id": 99, "body": "{not json"}])
    viol2 = collect_rows(validate_jsonl_column(raw, tree, "body", "doc_id"))
    got = {(r["key"], r["keyword"]) for r in viol2}
    assert got == {("7", "number_gte"), ("99", "invalid_json")}


def test_jsonl_fast_struct_path(ray_session):
    """Vectorized JSON struct-decode path agrees with the per-row generic
    path on homogeneous docs, and emits invalid_json for a malformed row."""
    import json

    import ray.data as rd

    from gojsonschema_ray.schema import compile_schema
    from gojsonschema_ray.sources.jsonl import (
        validate_jsonl_column, validate_jsonl_column_fast,
    )
    from gojsonschema_ray.util import collect_rows

    tree = compile_schema({
        "type": "object", "required": ["k"],
        "properties": {"k": {"minimum": 0, "maximum": 50}},
    })
    docs = [{"doc_id": i, "body": json.dumps({"k": (i * 7) % 80})}
            for i in range(200)]
    docs[5]["body"] = json.dumps({"j": 1})   # missing k
    docs[9]["body"] = None                    # null doc
    raw = rd.from_items(docs)

    slow = collect_rows(validate_jsonl_column(raw, tree, "body", "doc_id"))
    fast = collect_rows(validate_jsonl_column_fast(raw, tree, "body", "doc_id"))
    assert {(r["key"], r["keyword"]) for r in fast} == \
           {(r["key"], r["keyword"]) for r in slow}
    assert len(fast) == len(slow)

    # malformed row -> generic engine for that row, invalid_json emitted
    bad = rd.from_items(docs[:20] + [{"doc_id": 99, "body": "{nope"}])
    out = collect_rows(validate_jsonl_column_fast(bad, tree, "body", "doc_id"))
    assert ("99", "invalid_json") in {(r["key"], r["keyword"]) for r in out}


_FAST_TREE = {"type": "object", "required": ["k"],
              "properties": {"k": {"minimum": 0, "maximum": 50}}}


def _json_batch(docs, key=True):
    cols = {"body": pa.array(docs, pa.string())}
    if key:
        cols = {"doc_id": pa.array([f"d{i}" for i in range(len(docs))]),
                **cols}
    return pa.table(cols)


def _vkeys(t):
    from collections import Counter

    return Counter(zip(t["key"].to_pylist(), t["keyword"].to_pylist(),
                       t["path"].to_pylist()))


def test_jsonl_fast_malformed_rows_only(monkeypatch):
    """A batch mixing truncated documents with schema faults gives the
    generic engine's (key, keyword, path) multiset, keyed and key-less,
    and only the truncated rows reach the generic engine."""
    import json

    from gojsonschema_ray.sources import jsonl

    tree = compile_schema(_FAST_TREE)
    docs = [json.dumps({"k": (i * 7) % 80}) for i in range(300)]
    for i in (3, 150, 299):
        docs[i] = docs[i][:-1]                 # truncated
    docs[40] = json.dumps({"j": 1})            # missing k
    docs[41] = None                            # null document
    seen = []
    real = jsonl.JsonColumnValidator.__call__

    def spy(self, batch):
        seen.append(batch.num_rows)
        return real(self, batch)

    monkeypatch.setattr(jsonl.JsonColumnValidator, "__call__", spy)
    for key in ("doc_id", None):
        batch = _json_batch(docs)
        want = real(jsonl.JsonColumnValidator(tree, "body", key), batch)
        seen.clear()
        got = jsonl.JsonStructValidator(tree, "body", key)(batch)
        assert seen == [3]
        assert _vkeys(got) == _vkeys(want)
        assert sum(kw == "invalid_json" for kw in got["keyword"].to_pylist()) == 3


def test_jsonl_fast_keyless_positions():
    """Without a key column, both halves report positions in the original
    batch: the malformed row 7 is key "7", the bad-k row 12 is key "12"."""
    import json

    from gojsonschema_ray.sources.jsonl import JsonStructValidator

    docs = [json.dumps({"k": 1}) for _ in range(20)]
    docs[7] = '{"k": 1'
    docs[12] = json.dumps({"k": 99})
    out = JsonStructValidator(compile_schema(_FAST_TREE), "body")(
        _json_batch(docs, key=False))
    assert sorted(zip(out["key"].to_pylist(), out["keyword"].to_pylist())) \
        == [("12", "number_lte"), ("7", "invalid_json")]


def test_jsonl_fast_null_and_malformed():
    """A null document and a malformed one in the same batch: `required`
    and `invalid_json` once each, nothing else."""
    import json

    from gojsonschema_ray.sources.jsonl import JsonStructValidator

    docs = [json.dumps({"k": 2}), None, "{nope", json.dumps({"k": 3})]
    out = JsonStructValidator(compile_schema(_FAST_TREE), "body", "doc_id")(
        _json_batch(docs))
    assert sorted(zip(out["key"].to_pylist(), out["keyword"].to_pylist())) \
        == [("d1", "required"), ("d2", "invalid_json")]


@pytest.mark.parametrize("odd", ["[1,2]", '"s"'])
def test_jsonl_fast_undecodable_valid_json(odd):
    """A batch whose only undecodable row is valid JSON polars cannot type
    goes to the generic engine whole, with or without a malformed row."""
    import json

    from gojsonschema_ray.sources.jsonl import (JsonColumnValidator,
                                                JsonStructValidator)

    tree = compile_schema(_FAST_TREE)
    docs = [json.dumps({"k": i * 11}) for i in range(8)]
    docs[2] = odd
    for extra in ([], ['{"k": 1']):
        batch = _json_batch(docs + extra)
        want = JsonColumnValidator(tree, "body", "doc_id")(batch)
        assert JsonStructValidator(tree, "body", "doc_id")(batch).equals(want)


def test_jsonl_nan_is_invalid_json():
    """NaN and ±Infinity are not JSON (Go's encoding/json rejects them):
    both engines report `invalid_json` for those rows only."""
    import json

    from gojsonschema_ray.schema import parse_json
    from gojsonschema_ray.sources.jsonl import (JsonColumnValidator,
                                                JsonStructValidator)

    for text in ("NaN", '{"k": Infinity}', "[-Infinity]"):
        with pytest.raises(ValueError):
            parse_json(text)
    tree = compile_schema(_FAST_TREE)
    docs = [json.dumps({"k": i * 11}) for i in range(8)]
    docs[2], docs[5] = '{"k": NaN}', '{"k": -Infinity}'
    batch = _json_batch(docs)
    got = JsonStructValidator(tree, "body", "doc_id")(batch)
    assert _vkeys(got) == _vkeys(JsonColumnValidator(tree, "body",
                                                     "doc_id")(batch))
    assert {("d2", "invalid_json", "(root)"),
            ("d5", "invalid_json", "(root)")} <= set(_vkeys(got))


def test_jsonl_fast_all_rows_malformed():
    """No row decodes: the generic engine's output, unchanged."""
    from gojsonschema_ray.sources.jsonl import (JsonColumnValidator,
                                                JsonStructValidator)

    tree = compile_schema(_FAST_TREE)
    for key in (True, False):
        batch = _json_batch(['{"k": 1', "{", "nope", '{"k": }'], key=key)
        key_column = "doc_id" if key else None
        out = JsonStructValidator(tree, "body", key_column)(batch)
        assert out.equals(JsonColumnValidator(tree, "body", key_column)(batch))
        assert out["keyword"].to_pylist() == ["invalid_json"] * 4


def test_tumbling_window_aggregate(ray_session):
    """Windowed aggregate vs a pandas golden on deterministic data."""
    import numpy as np
    import pandas as pd
    import ray.data as rd

    from gojsonschema_ray.stages.window import tumbling_window_aggregate
    from gojsonschema_ray.util import collect_rows

    n = 5000
    ts = pd.Timestamp("2024-03-01") + pd.to_timedelta((np.arange(n) * 37) % 7200, unit="s")
    df = pd.DataFrame({"ts": ts, "value": np.arange(n, dtype="float64") % 13,
                       "grp": (np.arange(n) % 3).astype("int64")})
    ds = rd.from_pandas(df).repartition(6)

    out = pd.DataFrame(collect_rows(
        tumbling_window_aggregate(ds, "ts", "value", width_s=3600, by="grp")))
    out["window_start"] = pd.to_datetime(out["window_start"])
    golden = df.assign(window_start=df["ts"].dt.floor("3600s")) \
        .groupby(["window_start", "grp"], as_index=False)["value"] \
        .agg(["count", "sum", "min", "max", "mean"]) \
        .rename(columns={"count": "n"})
    merged = out.merge(golden, on=["window_start", "grp"], suffixes=("", "_g"))
    assert len(merged) == len(golden) == len(out)
    assert (merged["n"] == merged["n_g"]).all()
    assert np.allclose(merged["sum"], merged["sum_g"])
    assert np.allclose(merged["mean"], merged["mean_g"])
    assert np.allclose(merged["min"], merged["min_g"])
    assert np.allclose(merged["max"], merged["max_g"])


def test_asof_join_broadcast(ray_session):
    """Backward as-of join vs a pandas merge_asof golden."""
    import numpy as np
    import pandas as pd
    import ray.data as rd

    from gojsonschema_ray.stages.joins import asof_join_broadcast
    from gojsonschema_ray.util import collect_rows

    rng = np.random.default_rng(7)
    left = pd.DataFrame({
        "ts": pd.Timestamp("2024-05-01") + pd.to_timedelta(
            np.sort(rng.integers(0, 86400, 2000)), unit="s"),
        "sym": rng.choice(["A", "B"], 2000),
        "lid": np.arange(2000, dtype="int64"),
    })
    right = pd.DataFrame({
        "ts": pd.Timestamp("2024-05-01") + pd.to_timedelta(
            np.sort(rng.integers(0, 86400, 150)), unit="s"),
        "sym": rng.choice(["A", "B"], 150),
        "px": rng.random(150) * 100,
    })
    out = pd.DataFrame(collect_rows(asof_join_broadcast(
        rd.from_pandas(left).repartition(4), rd.from_pandas(right),
        left_on="ts", right_on="ts", by="sym", value_columns=["px"])))
    golden = pd.merge_asof(left.sort_values("ts"), right.sort_values("ts"),
                           on="ts", by="sym", direction="backward")
    merged = out.sort_values("lid").reset_index(drop=True)
    golden = golden.sort_values("lid").reset_index(drop=True)
    g_px = golden["px"].to_numpy()
    o_px = merged["r_px"].to_numpy()
    both_nan = np.isnan(g_px) & np.isnan(o_px)
    assert (both_nan | np.isclose(g_px, o_px, equal_nan=False)).all()
    assert (merged["asof_matched"].to_numpy() == ~np.isnan(g_px)).all()


def test_cms_heavy_hitters(ray_session):
    """CMS-nominated + exact-recounted heavy hitters equal the exact
    groupby answer, including under a tiny sketch (heavy collisions → many
    false-positive candidates, all filtered by the recount)."""
    import numpy as np
    import pandas as pd
    import ray.data as rd

    from gojsonschema_ray.stages.sketches import heavy_hitters

    rng = np.random.default_rng(8)
    keys = rng.integers(0, 5000, 30_000).astype(str)  # long tail
    keys[:2000] = "heavy-1"
    keys[2000:2900] = "heavy-2"
    keys[2900:2999] = "almost"  # 99 < threshold
    ds = rd.from_pandas(pd.DataFrame({"k": keys})).repartition(8)
    exact = pd.Series(keys).value_counts()
    want = {k: int(n) for k, n in exact.items() if n >= 100}
    for width in (16384, 256):  # tiny width stresses the recount filter
        got = heavy_hitters(ds, "k", min_count=100, width=width)
        assert dict(zip(got["k"], got["n"])) == want, width


def test_hopping_window_aggregate(ray_session):
    """Overlapping windows vs a pandas golden: every row lands in
    ceil(width/hop) windows; counts/sums per window agree."""
    import numpy as np
    import pandas as pd
    import ray.data as rd

    from gojsonschema_ray.stages.window import hopping_window_aggregate
    from gojsonschema_ray.util import collect_rows

    rng = np.random.default_rng(4)
    ts = pd.Timestamp("2024-03-01") + pd.to_timedelta(
        rng.integers(0, 10 * 3600, 5000), unit="s")
    vals = rng.random(5000).round(3)
    ds = rd.from_pandas(pd.DataFrame({"ts": ts, "value": vals})).repartition(6)
    out = pd.DataFrame(collect_rows(hopping_window_aggregate(
        ds, "ts", "value", width_s=3600, hop_s=900)))
    # golden: explode each row into its 4 windows
    tsu = ts.astype("int64") // 1000  # us
    rows = []
    for j in range(4):
        s = (tsu // (900 * 10**6)) * (900 * 10**6) - j * 900 * 10**6
        keep = s > tsu - 3600 * 10**6
        rows.append(pd.DataFrame({"w": s[keep], "v": vals[np.asarray(keep)]}))
    golden = pd.concat(rows).groupby("w").agg(
        n=("v", "count"), sum=("v", "sum")).reset_index()
    merged = out.sort_values("window_start").reset_index(drop=True)
    golden = golden.sort_values("w").reset_index(drop=True)
    assert len(merged) == len(golden)
    assert (merged["n"].to_numpy() == golden["n"].to_numpy()).all()
    assert np.allclose(merged["sum"].to_numpy(), golden["sum"].to_numpy())
    # each source row contributes to exactly width/hop windows
    assert merged["n"].sum() == 4 * 5000


def test_session_windows(ray_session):
    """Gap sessionization vs a pandas lag/cumsum golden, incl. a key whose
    events span several sessions and a single-event key."""
    import numpy as np
    import pandas as pd
    import ray.data as rd

    from gojsonschema_ray.stages.window import session_windows
    from gojsonschema_ray.util import collect_rows

    base = pd.Timestamp("2024-06-01")
    rows = []
    for u, offs in {
        "a": [0, 10, 20, 2000, 2005, 9000],   # 3 sessions (gap 600 s)
        "b": [50],                            # 1 session
        "c": [0, 500, 1100, 1690, 5000],      # chained: 2 sessions
    }.items():
        for o in offs:
            rows.append({"user": u, "ts": base + pd.Timedelta(seconds=o)})
    ds = rd.from_pandas(pd.DataFrame(rows)).repartition(3)
    out = pd.DataFrame(collect_rows(session_windows(ds, "user", "ts",
                                                    gap_s=600)))
    out = out.sort_values(["user", "session_start"]).reset_index(drop=True)
    got = [(r["user"], int(r["n"]), round(r["dur_s"], 3))
           for r in out.to_dict("records")]
    assert got == [("a", 3, 20.0), ("a", 2, 5.0), ("a", 1, 0.0),
                   ("b", 1, 0.0),
                   ("c", 4, 1690.0), ("c", 1, 0.0)]


def test_hopping_equals_tumbling_when_hop_is_width(ray_session):
    """Invariant: hop == width degenerates to tumbling windows — the two
    operators must agree exactly."""
    import numpy as np
    import pandas as pd
    import ray.data as rd

    from gojsonschema_ray.stages.window import (
        hopping_window_aggregate, tumbling_window_aggregate,
    )
    from gojsonschema_ray.util import collect_rows

    rng = np.random.default_rng(13)
    df = pd.DataFrame({
        "ts": pd.Timestamp("2024-02-01") + pd.to_timedelta(
            rng.integers(0, 5 * 86400, 3000), unit="s"),
        "value": rng.random(3000).round(3),
    })
    ds = rd.from_pandas(df).repartition(5)
    hop = pd.DataFrame(collect_rows(hopping_window_aggregate(
        ds, "ts", "value", width_s=86400, hop_s=86400)))
    tum = pd.DataFrame(collect_rows(tumbling_window_aggregate(
        ds, "ts", "value", width_s=86400)))
    a = hop.sort_values("window_start").reset_index(drop=True)
    b = tum.sort_values("window_start").reset_index(drop=True)[a.columns]
    pd.testing.assert_frame_equal(a, b, check_dtype=False)


def test_hopping_window_skips_nulls(ray_session):
    """Null values must be skipped (tumbling/SQL NULL semantics) — not
    counted, not poisoning sums with NaN."""
    import pandas as pd
    import pyarrow as pa
    import ray.data as rd

    from gojsonschema_ray.stages.window import hopping_window_aggregate
    from gojsonschema_ray.util import collect_rows

    base = pd.Timestamp("2024-01-01").value // 1000
    t = pa.table({
        "ts": pa.array([base, base + 1, base + 2], pa.timestamp("us")),
        "value": pa.array([1.0, None, 3.0], pa.float64()),
    })
    out = pd.DataFrame(collect_rows(hopping_window_aggregate(
        rd.from_arrow(t), "ts", "value", width_s=3600, hop_s=3600)))
    assert out["n"].tolist() == [2]
    assert out["sum"].tolist() == [4.0] and out["mean"].tolist() == [2.0]


def test_session_windows_large_int_keys(ray_session):
    """int64 keys above 2^53 must not merge via a float64 upcast in the
    key-change test."""
    import pandas as pd
    import ray.data as rd

    from gojsonschema_ray.stages.window import session_windows
    from gojsonschema_ray.util import collect_rows

    k1, k2 = 2**53, 2**53 + 1  # indistinguishable as float64
    base = pd.Timestamp("2024-06-01")
    df = pd.DataFrame({
        "user": [k1, k1, k2, k2],
        "ts": [base, base + pd.Timedelta(seconds=10),
               base + pd.Timedelta(seconds=20),
               base + pd.Timedelta(seconds=30)],
    })
    out = pd.DataFrame(collect_rows(session_windows(
        rd.from_pandas(df), "user", "ts", gap_s=600)))
    assert sorted((int(r["user"]), int(r["n"]))
                  for r in out.to_dict("records")) == [(k1, 2), (k2, 2)]


def test_grouped_top_k_rejects_bad_direction(ray_session):
    import pytest as _pytest
    import ray.data as rd

    from gojsonschema_ray.stages.topk import grouped_top_k

    ds = rd.from_items([{"g": 1, "v": 2}])
    with _pytest.raises(ValueError, match="direction"):
        grouped_top_k(ds, "g", [("v", "desc")], k=1)


def test_grouped_top_k(ray_session):
    """Per-group top-k vs a pandas golden with heavy ties (tiebreaker id)."""
    import numpy as np
    import pandas as pd
    import ray.data as rd

    from gojsonschema_ray.stages.topk import grouped_top_k
    from gojsonschema_ray.util import collect_rows

    rng = np.random.default_rng(6)
    df = pd.DataFrame({
        "g": rng.integers(0, 40, 4000),
        "id": np.arange(4000, dtype="int64"),
        "v": np.round(rng.random(4000) * 10, 0),  # ties
    })
    ds = rd.from_pandas(df).repartition(8)
    out = pd.DataFrame(collect_rows(grouped_top_k(
        ds, "g", [("v", "descending"), ("id", "ascending")], k=3)))
    golden = df.sort_values(["g", "v", "id"],
                            ascending=[True, False, True]) \
        .groupby("g").head(3)
    a = out.sort_values(["g", "id"]).reset_index(drop=True)
    b = golden.sort_values(["g", "id"]).reset_index(drop=True)[a.columns]
    pd.testing.assert_frame_equal(a, b, check_dtype=False)


def test_asof_join_bucketed_matches_broadcast(ray_session):
    """The time-bucketed co-partition path (big-right-side mode) returns the
    same matches as the broadcast path / pandas merge_asof — including left
    rows whose predecessor sits several empty buckets back (carry via the
    tail table) and a right side LARGER than the left."""
    import numpy as np
    import pandas as pd
    import ray.data as rd

    from gojsonschema_ray.stages.joins import asof_join_bucketed
    from gojsonschema_ray.util import collect_rows

    rng = np.random.default_rng(11)
    # right is 10x the left; timestamps cluster so some buckets are empty
    n_l, n_r = 300, 3000
    l_off = np.sort(rng.choice([0, 50_000, 400_000], n_l)
                    + rng.integers(0, 20_000, n_l))
    r_off = np.sort(rng.choice([0, 45_000], n_r) + rng.integers(0, 20_000, n_r))
    left = pd.DataFrame({
        "ts": pd.Timestamp("2024-05-01") + pd.to_timedelta(l_off, unit="s"),
        "sym": rng.choice(["A", "B", "C"], n_l),
        "lid": np.arange(n_l, dtype="int64"),
    })
    right = pd.DataFrame({
        "ts": pd.Timestamp("2024-05-01") + pd.to_timedelta(r_off, unit="s"),
        "sym": rng.choice(["A", "B", "C"], n_r),
        "px": rng.random(n_r) * 100,
    })
    out = pd.DataFrame(collect_rows(asof_join_bucketed(
        rd.from_pandas(left).repartition(4),
        rd.from_pandas(right).repartition(6),
        left_on="ts", right_on="ts", by="sym", value_columns=["px"],
        left_keep=["lid"], bucket_s=3600.0)))
    golden = pd.merge_asof(left.sort_values("ts"), right.sort_values("ts"),
                           on="ts", by="sym", direction="backward")
    merged = out.sort_values("lid").reset_index(drop=True)
    golden = golden.sort_values("lid").reset_index(drop=True)
    g_px = golden["px"].to_numpy()
    o_px = merged["r_px"].to_numpy()
    both_nan = np.isnan(g_px) & np.isnan(o_px)
    assert (both_nan | np.isclose(g_px, o_px, equal_nan=False)).all()
    assert (merged["asof_matched"].to_numpy() == ~np.isnan(g_px)).all()
    # tolerance variant: matches older than 2h are dropped
    out_tol = pd.DataFrame(collect_rows(asof_join_bucketed(
        rd.from_pandas(left), rd.from_pandas(right),
        left_on="ts", right_on="ts", by="sym", value_columns=["px"],
        left_keep=["lid"], bucket_s=3600.0, tolerance_s=7200.0)))
    golden_tol = pd.merge_asof(
        left.sort_values("ts"), right.sort_values("ts"), on="ts", by="sym",
        direction="backward", tolerance=pd.Timedelta(seconds=7200))
    mt = out_tol.sort_values("lid").reset_index(drop=True)
    gt = golden_tol.sort_values("lid").reset_index(drop=True)
    gp, op = gt["px"].to_numpy(), mt["r_px"].to_numpy()
    nn = np.isnan(gp) & np.isnan(op)
    assert (nn | np.isclose(gp, op, equal_nan=False)).all()


def test_range_join_broadcast(ray_session):
    """Range join vs numpy golden (incl. uncovered values -> -1)."""
    import numpy as np
    import pyarrow as pa
    import ray.data as rd

    from gojsonschema_ray.stages.joins import range_join_broadcast
    from gojsonschema_ray.util import collect_rows

    rng = np.random.default_rng(3)
    vals = rng.random(3000) * 120 - 10  # some below/above all intervals
    left = rd.from_arrow(pa.table({"v": vals})).repartition(4)
    right = rd.from_arrow(pa.table({
        "lo": pa.array([0.0, 25.0, 50.0, 75.0]),
        "hi": pa.array([25.0, 50.0, 75.0, 100.0]),
        "bid": pa.array([10, 11, 12, 13], pa.int64()),
    }))
    out = collect_rows(range_join_broadcast(left, right, on="v", lo="lo",
                                            hi="hi", label="bid"))
    got = {round(r["v"], 9): r["band"] for r in out}
    for v in vals:
        exp = -1 if (v < 0 or v >= 100) else 10 + int(v // 25)
        assert got[round(float(v), 9)] == exp


def test_window_pre_epoch_floor(ray_session):
    """Pre-epoch timestamps floor to the window BEFORE them, never after."""
    import pandas as pd
    import ray.data as rd

    from gojsonschema_ray.stages.window import tumbling_window_aggregate
    from gojsonschema_ray.util import collect_rows

    df = pd.DataFrame({
        "ts": [pd.Timestamp("1969-12-31 23:59:59"),
               pd.Timestamp("1970-01-01 00:00:01")],
        "value": [1.0, 2.0],
    })
    rows = collect_rows(tumbling_window_aggregate(
        rd.from_pandas(df), "ts", "value", width_s=60))
    wins = {pd.Timestamp(r["window_start"]): r["n"] for r in rows}
    assert wins[pd.Timestamp("1969-12-31 23:59:00")] == 1
    assert wins[pd.Timestamp("1970-01-01 00:00:00")] == 1


def test_cc_labels_chain_and_star():
    from gojsonschema_ray.stages.dedup import _cc_labels

    u = np.array([1, 2, 3, 10, 20, 21], dtype=np.int64)
    v = np.array([2, 3, 4, 11, 21, 22], dtype=np.int64)
    nodes, roots = _cc_labels(u, v)
    got = dict(zip(nodes.tolist(), roots.tolist()))
    assert got == {1: 1, 2: 1, 3: 1, 4: 1, 10: 10,
                   20: 20, 21: 20, 22: 20, 11: 10}


def test_near_dup_clusters_chain_across_partitions(ray_session, monkeypatch):
    import pandas as pd
    import ray.data as rd

    from gojsonschema_ray.stages.dedup import near_dup_clusters
    from gojsonschema_ray.util import collect_rows

    monkeypatch.setattr("gojsonschema_ray.stages.exchange.shuffle_width",
                        lambda: 4)
    # a 20-node chain (every edge in a different block, so components span
    # partitions and the cross-partition equivalence path is exercised) plus
    # an isolated pair
    pairs = pd.DataFrame({
        "id_a": list(range(19)) + [100],
        "id_b": list(range(1, 20)) + [101],
    })
    ds = rd.from_pandas(pairs).repartition(7)
    rows = collect_rows(near_dup_clusters(ds))
    got = {r["doc_id"]: r["cluster_id"] for r in rows}
    expect = {i: 0 for i in range(20)}
    expect.update({100: 100, 101: 100})
    assert got == expect


def test_hot_bucket_keys_counts_seeded_keys(ray_session):
    """hot_bucket_keys returns exactly the bucket keys seen at least twice
    (a Counter over the seeded keys), hot keys and singletons mixed across
    blocks."""
    from collections import Counter

    import ray.data as rd

    from gojsonschema_ray.stages.dedup import hot_bucket_keys

    rng = np.random.default_rng(5)
    keys = rng.integers(-2**62, 2**62, size=400, dtype=np.int64)
    keys = np.concatenate([keys, keys[:60], keys[:3], np.full(50, 7)])
    rng.shuffle(keys)
    ds = rd.from_arrow(pa.table({"key": keys, "id": np.arange(len(keys))})) \
        .repartition(6)
    got = hot_bucket_keys(ds)
    assert got.type == pa.int64()
    assert sorted(got.to_pylist()) == sorted(
        k for k, c in Counter(keys.tolist()).items() if c >= 2)
    empty = hot_bucket_keys(rd.from_arrow(pa.table(
        {"key": pa.array(np.arange(10), pa.int64())})))
    assert len(empty) == 0


def test_keep_one_per_cluster(ray_session, monkeypatch):
    """End-to-end corpus dedup: survivors = component-min of each cluster
    plus every unclustered row; payload columns ride through untouched."""
    import pandas as pd
    import ray.data as rd

    from gojsonschema_ray.stages.dedup import (
        keep_one_per_cluster, near_dup_clusters,
    )
    from gojsonschema_ray.util import collect_rows

    monkeypatch.setattr("gojsonschema_ray.stages.exchange.shuffle_width",
                        lambda: 4)
    pairs = pd.DataFrame({"id_a": [1, 2, 10], "id_b": [2, 3, 11]})
    labels = near_dup_clusters(rd.from_pandas(pairs))
    corpus = pd.DataFrame({"doc_id": list(range(15)),
                           "payload": [f"p{i}" for i in range(15)]})
    out = collect_rows(keep_one_per_cluster(
        rd.from_pandas(corpus).repartition(4), labels, "doc_id"))
    got = {r["doc_id"]: r["payload"] for r in out}
    # clusters {1,2,3}->1 and {10,11}->10: drop 2,3,11; keep the rest
    assert set(got) == set(range(15)) - {2, 3, 11}
    assert got[1] == "p1" and got[10] == "p10"


def test_keep_one_per_cluster_no_dups(ray_session):
    import pandas as pd
    import ray.data as rd

    from gojsonschema_ray.stages.dedup import (
        keep_one_per_cluster, near_dup_clusters,
    )
    from gojsonschema_ray.util import collect_rows

    empty = pd.DataFrame({"id_a": pd.Series([], dtype="int64"),
                          "id_b": pd.Series([], dtype="int64")})
    labels = near_dup_clusters(rd.from_pandas(empty))
    corpus = pd.DataFrame({"doc_id": [5, 6], "x": ["a", "b"]})
    out = collect_rows(keep_one_per_cluster(rd.from_pandas(corpus),
                                            labels, "doc_id"))
    assert sorted(r["doc_id"] for r in out) == [5, 6]


def test_near_dup_clusters_empty(ray_session):
    import pandas as pd
    import ray.data as rd

    from gojsonschema_ray.stages.dedup import near_dup_clusters
    from gojsonschema_ray.util import collect_rows

    empty = pd.DataFrame({"id_a": pd.Series([], dtype="int64"),
                          "id_b": pd.Series([], dtype="int64")})
    out = near_dup_clusters(rd.from_pandas(empty))
    assert collect_rows(out) == []
    assert set(out.schema().names) == {"doc_id", "cluster_id"}


def test_rolling_by_key_closed_form(ray_session):
    import pandas as pd
    import ray.data as rd

    from gojsonschema_ray.stages.window import rolling_by_key
    from gojsonschema_ray.util import collect_rows

    df = pd.DataFrame({
        "user": [1, 1, 1, 1, 1, 2, 2],
        "ts": pd.to_datetime([10, 20, 30, 40, 50, 10, 20], unit="s"),
        "eid": [0, 1, 2, 3, 4, 5, 6],
        "v": [1.0, 2.0, 3.0, 4.0, 5.0, 10.0, 20.0],
    })
    rows = collect_rows(rolling_by_key(
        rd.from_pandas(df).repartition(3), "user", "ts", "v", 2,
        order_columns=("eid",)))
    got = {r["eid"]: r["roll_mean"] for r in rows}
    assert got == {0: 1.0, 1: 1.5, 2: 2.5, 3: 3.5, 4: 4.5,
                   5: 10.0, 6: 15.0}


def test_rolling_by_key_matches_pandas(ray_session):
    import pandas as pd
    import ray.data as rd

    from gojsonschema_ray.stages.window import rolling_by_key
    from gojsonschema_ray.util import collect_rows

    rng = np.random.default_rng(7)
    df = pd.DataFrame({
        "user": rng.integers(0, 5, 200),
        "ts": pd.to_datetime(rng.integers(0, 10 ** 6, 200), unit="s"),
        "eid": np.arange(200),
        "v": rng.normal(size=200),
    })
    rows = collect_rows(rolling_by_key(
        rd.from_pandas(df).repartition(6), "user", "ts", "v", 3,
        order_columns=("eid",)))
    got = pd.DataFrame(rows).sort_values("eid").reset_index(drop=True)
    exp = df.sort_values(["user", "ts", "eid"], kind="stable")
    exp = exp.assign(roll_mean=exp.groupby("user", sort=False)["v"]
                     .rolling(3, min_periods=1).mean().to_numpy())
    exp = exp.sort_values("eid").reset_index(drop=True)
    np.testing.assert_allclose(got["roll_mean"].to_numpy(),
                               exp["roll_mean"].to_numpy())


def test_sessionize_closed_form(ray_session):
    """Gap-based sessions: boundary on gap > gap_s (equal gap stays
    in-session), 1-based numbering per key, per-session aggregates, nulls
    grouped as one key, datetime columns converted to epoch seconds."""
    import pandas as pd
    import ray.data as rd

    from gojsonschema_ray.stages.window import sessionize
    from gojsonschema_ray.util import collect_rows

    df = pd.DataFrame({
        "user": [1, 1, 1, 1, 1, 2, 3, 3, None, None],
        "ts": pd.to_datetime([0, 10, 20, 100, 110, 50, 0, 30, 0, 100],
                             unit="s"),
        "eid": range(10),
    })
    rows = collect_rows(sessionize(
        rd.from_pandas(df).repartition(4), "user", "ts", 30.0,
        order_columns=("eid",)))
    got = sorted((((None if pd.isna(r["user"]) else int(r["user"])),
                   int(r["session"]), int(r["n_events"]),
                   float(r["start_s"]), float(r["dur_s"]))
                  for r in rows),
                 key=lambda t: (-1 if t[0] is None else t[0], t[1]))
    assert got == [
        (None, 1, 1, 0.0, 0.0), (None, 2, 1, 100.0, 0.0),
        (1, 1, 3, 0.0, 20.0),   # gaps 10,10 <= 30 stay
        (1, 2, 2, 100.0, 10.0),  # gap 80 > 30 splits
        (2, 1, 1, 50.0, 0.0),
        (3, 1, 2, 0.0, 30.0),   # gap == 30 is NOT a boundary
    ]


def test_sessionize_matches_sql_idiom(ray_session):
    """Random streams: engine sessions == the two-window SQL idiom computed
    with pandas (lag boundary flag + per-key cumsum + group aggregates)."""
    import pandas as pd
    import ray.data as rd

    from gojsonschema_ray.stages.window import sessionize
    from gojsonschema_ray.util import collect_rows

    rng = np.random.default_rng(13)
    n = 400
    df = pd.DataFrame({
        "user": rng.integers(0, 12, n),
        "ts": rng.integers(0, 5000, n).astype("float64"),
        "eid": np.arange(n),
    })
    rows = collect_rows(sessionize(
        rd.from_pandas(df).repartition(5), "user", "ts", 120.0,
        order_columns=("eid",)))
    got = pd.DataFrame(rows).sort_values(["user", "session"]) \
        .reset_index(drop=True)

    exp = df.sort_values(["user", "ts", "eid"], kind="stable").copy()
    gap = exp.groupby("user", sort=False)["ts"].diff()
    exp["session"] = (gap.isna() | (gap > 120.0)).astype(int) \
        .groupby(exp["user"], sort=False).cumsum()
    agg = exp.groupby(["user", "session"], as_index=False) \
        .agg(n_events=("ts", "size"), start_s=("ts", "min"),
             end_s=("ts", "max"))
    agg["dur_s"] = agg["end_s"] - agg["start_s"]
    agg = agg.sort_values(["user", "session"]).reset_index(drop=True)
    assert len(got) == len(agg)
    np.testing.assert_array_equal(got["user"], agg["user"])
    np.testing.assert_array_equal(got["session"], agg["session"])
    np.testing.assert_array_equal(got["n_events"], agg["n_events"])
    np.testing.assert_allclose(got["start_s"], agg["start_s"])
    np.testing.assert_allclose(got["dur_s"], agg["dur_s"])


def test_grouped_quantiles(ray_session):
    import pandas as pd
    import ray.data as rd

    from gojsonschema_ray.stages.sketches import grouped_quantiles
    from gojsonschema_ray.util import collect_rows

    rng = np.random.default_rng(11)
    df = pd.DataFrame({
        "k": rng.integers(0, 20, 500),
        "v": rng.normal(size=500) * 100,
    })
    rows = collect_rows(grouped_quantiles(
        rd.from_pandas(df).repartition(8), "k", "v", qs=(0.5, 0.9)))
    got = pd.DataFrame(rows).sort_values("k").reset_index(drop=True)
    exp = df.groupby("k")["v"].quantile([0.5, 0.9]).unstack()
    np.testing.assert_allclose(got["q50"].to_numpy(),
                               exp[0.5].to_numpy())
    np.testing.assert_allclose(got["q90"].to_numpy(),
                               exp[0.9].to_numpy())


def test_normalize_by_group(ray_session):
    """Per-group z-scores match pandas' groupby transform exactly; n=1
    groups, zero-variance groups, null values and null keys emit null."""
    import pandas as pd
    import ray.data as rd

    from gojsonschema_ray.stages.sketches import normalize_by_group
    from gojsonschema_ray.util import collect_rows

    rng = np.random.default_rng(17)
    df = pd.DataFrame({
        "k": rng.integers(0, 8, 300).astype("float64"),
        "eid": np.arange(300),
        "v": rng.normal(10.0, 3.0, 300),
    })
    # edge rows: singleton group, constant group, null value, null key
    edges = pd.DataFrame({
        "k": [100.0, 101.0, 101.0, 0.0, None],
        "eid": [300, 301, 302, 303, 304],
        "v": [5.0, 7.0, 7.0, None, 1.0],
    })
    df = pd.concat([df, edges], ignore_index=True)
    rows = collect_rows(normalize_by_group(
        rd.from_pandas(df).repartition(6), "k", "v", keep_columns=("eid",)))
    got = pd.DataFrame(rows).sort_values("eid").reset_index(drop=True)

    grp = df.groupby("k")["v"]
    exp = (df["v"] - grp.transform("mean")) / grp.transform("std")
    exp[df["k"].isna()] = np.nan
    mask = exp.notna().to_numpy()
    assert list(got["eid"]) == list(df["eid"])
    np.testing.assert_array_equal(got["z"].notna().to_numpy(), mask)
    np.testing.assert_allclose(got["z"].to_numpy()[mask],
                               exp.to_numpy()[mask], rtol=1e-9)


def test_mix_corpora(ray_session):
    """Mixed stream == the per-source Knuth-threshold replicas, tagged;
    per-source salts decide the same key independently."""
    import pandas as pd
    import ray.data as rd

    from gojsonschema_ray.stages.sampling import KNUTH, MOD, mix_corpora
    from gojsonschema_ray.util import collect_rows

    n = 2000
    a = pd.DataFrame({"k": np.arange(n, dtype="int64"), "tag": "A"})
    b = pd.DataFrame({"k": np.arange(n, dtype="int64"), "tag": "B"})
    out = collect_rows(mix_corpora(
        [rd.from_pandas(a).repartition(3), rd.from_pandas(b).repartition(2)],
        "k", [0.7, 0.2], source_names=["a", "b"]))
    got = {(r["source"], r["k"]) for r in out}

    def member(k, salt, rate):
        h = ((np.uint64(k) + np.uint64(salt)) * KNUTH) & (MOD - np.uint64(1))
        return int(h) < int(round(rate * float(MOD)))

    exp = {("a", k) for k in range(n) if member(k, 1000, 0.7)} \
        | {("b", k) for k in range(n) if member(k, 1001, 0.2)}
    assert got == exp
    assert 0.6 < len([1 for s, _ in got if s == "a"]) / n < 0.8
    assert 0.15 < len([1 for s, _ in got if s == "b"]) / n < 0.26


def test_resample_by_group(ray_session):
    """Kept set == the closed-form Knuth-threshold replica with
    rate_g = (n_g/n_ref)^(alpha-1); alpha=1 is a no-op; alpha=0 targets
    uniform counts; null groups/keys are dropped."""
    import pandas as pd
    import ray.data as rd

    from gojsonschema_ray.stages.sampling import (KNUTH, MOD,
                                                  resample_by_group)
    from gojsonschema_ray.util import collect_rows

    sizes = {"big": 3000, "mid": 600, "small": 150}
    ks, gs = [], []
    nxt = 0
    for g, n in sizes.items():
        ks.extend(range(nxt, nxt + n))
        gs.extend([g] * n)
        nxt += n
    df = pd.DataFrame({"k": np.array(ks, "int64"), "g": gs})
    # null rows must be dropped, not crash the hash
    df = pd.concat([df, pd.DataFrame(
        {"k": [10**6, None], "g": [None, "big"]})], ignore_index=True)
    ds = rd.from_pandas(df).repartition(4)

    alpha = 0.5
    out, rates = resample_by_group(ds, "g", "k", alpha)
    got = {(r["g"], r["k"]) for r in collect_rows(out)}

    u = {g: float(n) ** (alpha - 1.0) for g, n in sizes.items()}
    umax = max(u.values())
    exp = set()
    for g, n0 in zip(gs, ks):
        h = (np.uint64(n0) * KNUTH) & (MOD - np.uint64(1))
        thr = int(np.floor(u[g] / umax * float(MOD)))
        if int(h) < thr:
            exp.add((g, n0))
    assert got == exp
    assert rates["small"] == 1.0 and rates["big"] < rates["mid"] < 1.0
    # alpha=0 -> expected kept counts ~uniform (= n_small per group)
    out0, rates0 = resample_by_group(ds, "g", "k", 0.0)
    by_g = {}
    for r in collect_rows(out0):
        by_g[r["g"]] = by_g.get(r["g"], 0) + 1
    assert rates0["small"] == 1.0
    for g in sizes:
        assert 0.7 * sizes["small"] <= by_g[g] <= 1.3 * sizes["small"]
    # alpha=1 -> identity on non-null rows
    out1, rates1 = resample_by_group(ds, "g", "k", 1.0)
    assert all(r == 1.0 for r in rates1.values())
    assert len(collect_rows(out1)) == sum(sizes.values())


def test_debounce_by_key(ray_session):
    """Chained bursts collapse to their first event; a gap of exactly
    window_s starts a new burst; different values never debounce each
    other; partitioning-free."""
    import pandas as pd
    import ray.data as rd

    from gojsonschema_ray.stages.window import debounce_by_key
    from gojsonschema_ray.util import collect_rows

    # key 1: chained burst at t=0,4,8 (gaps 4 < 5) then t=13 (gap 5 ==
    # window -> kept); key 1 value B interleaved is independent
    df = pd.DataFrame({
        "k": [1, 1, 1, 1, 1, 2, 2],
        "ts": pd.to_datetime([0, 4, 8, 13, 6, 0, 4], unit="s"),
        "eid": [1, 2, 3, 4, 5, 6, 7],
        "v": ["A", "A", "A", "A", "B", "A", "A"],
    })
    for parts in (2, 4):
        rows = collect_rows(debounce_by_key(
            rd.from_pandas(df).repartition(parts), "k", "ts", "v", 5.0,
            order_columns=("eid",)))
        kept = sorted(r["eid"] for r in rows)
        assert kept == [1, 4, 5, 6]

    # randomized parity with a pandas replica
    rng = np.random.default_rng(59)
    big = pd.DataFrame({
        "k": rng.integers(0, 40, 3000),
        "ts": pd.to_datetime(rng.integers(0, 10**5, 3000), unit="s"),
        "eid": np.arange(3000, dtype="int64"),
        "v": rng.choice(list("xy"), 3000),
    })
    d = big.sort_values(["k", "v", "ts", "eid"], kind="stable")
    t = d["ts"].astype("int64").to_numpy() / 1e9
    same = np.zeros(len(d), bool)
    same[1:] = (d["k"].to_numpy()[1:] == d["k"].to_numpy()[:-1]) & \
        (d["v"].to_numpy()[1:] == d["v"].to_numpy()[:-1])
    gap_ok = np.zeros(len(d), bool)
    gap_ok[1:] = (t[1:] - t[:-1]) < 60.0
    keep = ~(same & gap_ok)
    exp = set(d["eid"].to_numpy()[keep])
    rows = collect_rows(debounce_by_key(
        rd.from_pandas(big).repartition(5), "k", "ts", "v", 60.0,
        order_columns=("eid",)))
    assert {r["eid"] for r in rows} == exp


def test_percentile_normalize(ray_session):
    """Digest CDF scores track the exact empirical percentile within 2%,
    are monotone in the value, and NaN for nulls."""
    import pandas as pd
    import ray.data as rd

    from gojsonschema_ray.stages.sketches import percentile_normalize
    from gojsonschema_ray.util import collect_rows

    rng = np.random.default_rng(53)
    n = 20000
    df = pd.DataFrame({"id": np.arange(n, dtype="int64"),
                       "v": rng.lognormal(0, 1, n)})
    df.loc[0, "v"] = None
    rows = collect_rows(percentile_normalize(
        rd.from_pandas(df).repartition(5), "v"))
    rows.sort(key=lambda r: r["id"])
    got = np.array([r["pct"] for r in rows])
    v = df["v"].to_numpy()
    exact = pd.Series(v).rank(pct=True).to_numpy()
    ok = np.isfinite(v)
    assert np.isnan(got[0])
    err = np.abs(got[ok] - exact[ok])
    assert np.quantile(err, 0.99) < 0.02
    # monotone: sorting by value sorts the scores
    order = np.argsort(v[ok], kind="stable")
    assert (np.diff(got[ok][order]) >= -1e-12).all()


def test_range_join_bucketed(ray_session):
    """Pair set equals the pandas containment replica including
    OVERLAPPING intervals and bucket-boundary values; fanout guard
    raises; null bounds dropped."""
    import pandas as pd
    import pytest as _pytest
    import ray.data as rd

    from gojsonschema_ray.stages.joins import range_join_bucketed
    from gojsonschema_ray.util import collect_rows

    rng = np.random.default_rng(51)
    pts = pd.DataFrame({"pid": np.arange(2000, dtype="int64"),
                        "x": rng.uniform(0, 1000, 2000).round(1)})
    pts.loc[0, "x"] = 100.0  # exactly on a bucket boundary
    s = rng.uniform(0, 980, 60).round(1)
    iv = pd.DataFrame({"iid": np.arange(60, dtype="int64"),
                       "lo": s, "hi": s + rng.uniform(1, 40, 60).round(1)})
    iv.loc[59, ["lo", "hi"]] = [None, None]

    exp = set()
    for r in iv.dropna().itertuples(index=False):
        inside = pts[(pts["x"] >= r.lo) & (pts["x"] <= r.hi)]
        exp |= {(p, r.iid) for p in inside["pid"]}

    out = collect_rows(range_join_bucketed(
        rd.from_pandas(pts).repartition(4),
        rd.from_pandas(iv).repartition(2),
        on="x", lo="lo", hi="hi", bucket_width=50.0,
        interval_columns=["iid"]))
    got = {(r["pid"], r["iid"]) for r in out}
    assert got == exp and len(exp) > 100

    with _pytest.raises(Exception, match="max_fanout"):
        collect_rows(range_join_bucketed(
            rd.from_pandas(pts), rd.from_pandas(iv.dropna()),
            on="x", lo="lo", hi="hi", bucket_width=0.001,
            interval_columns=["iid"], max_fanout=10))


def test_grouped_approx_nunique(ray_session):
    """Per-group HLL estimates land within ~5% of exact distinct counts
    and are partitioning-independent (register merge is associative)."""
    import pandas as pd
    import ray.data as rd

    from gojsonschema_ray.stages.sketches import grouped_approx_nunique

    rng = np.random.default_rng(47)
    df = pd.DataFrame({
        "g": rng.choice(["x", "y", "z"], 30000),
        "v": rng.integers(0, 5000, 30000),
    })
    exact = df.groupby("g")["v"].nunique()
    outs = []
    for parts in (3, 11):
        out = grouped_approx_nunique(
            rd.from_pandas(df).repartition(parts), "g", "v")
        got = dict(zip(out["g"], out["approx_nunique"]))
        for g in "xyz":
            assert abs(got[g] - exact[g]) / exact[g] < 0.05
        outs.append(got)
    assert outs[0] == outs[1]  # merge order cannot change the estimate


def test_regression_by_group(ray_session):
    """Per-group slope/intercept match np.polyfit; nulls dropped listwise;
    zero-variance x yields NaN."""
    import pandas as pd
    import ray.data as rd

    from gojsonschema_ray.stages.sketches import regression_by_group

    rng = np.random.default_rng(43)
    frames = []
    truth = {"a": (2.0, 5.0), "b": (-1.5, 10.0)}
    for g, (m, b0) in truth.items():
        x = rng.uniform(0, 100, 800)
        y = m * x + b0 + rng.normal(0, 1.0, 800)
        frames.append(pd.DataFrame({"g": g, "x": x, "y": y}))
    frames.append(pd.DataFrame({"g": ["c"] * 3, "x": [7.0] * 3,
                                "y": [1.0, 2.0, 3.0]}))  # zero-var x
    df = pd.concat(frames, ignore_index=True)
    df.loc[:4, "y"] = None
    out = regression_by_group(rd.from_pandas(df).repartition(4),
                              "g", "x", "y")
    got = {r.g: r for r in out.itertuples(index=False)}
    comp = df.dropna()
    for g in "ab":
        v = comp[comp["g"] == g]
        m, b0 = np.polyfit(v["x"], v["y"], 1)
        np.testing.assert_allclose([got[g].slope, got[g].intercept],
                                   [m, b0], rtol=1e-7)
        assert got[g].n == len(v)
    assert np.isnan(got["c"].slope) and np.isnan(got["c"].intercept)


def test_column_correlations(ray_session):
    """Pairwise corr matches np.corrcoef on complete rows; null rows are
    dropped listwise; constant columns yield NaN."""
    import pandas as pd
    import ray.data as rd

    from gojsonschema_ray.stages.sketches import column_correlations

    rng = np.random.default_rng(41)
    n = 3000
    a = rng.normal(0, 1, n)
    b = 2 * a + rng.normal(0, 0.5, n)
    c = rng.uniform(0, 1, n)
    df = pd.DataFrame({"a": a, "b": b, "c": c, "k": np.ones(n)})
    df.loc[:20, "b"] = None
    out = column_correlations(rd.from_pandas(df).repartition(4),
                              ["a", "b", "c", "k"])
    comp = df.dropna()
    ref = np.corrcoef(comp[["a", "b", "c"]].to_numpy().T)
    got = {(r.col_a, r.col_b): r.corr for r in out.itertuples(index=False)}
    np.testing.assert_allclose(got[("a", "b")], ref[0, 1], rtol=1e-9)
    np.testing.assert_allclose(got[("a", "c")], ref[0, 2], rtol=1e-6)
    np.testing.assert_allclose(got[("b", "c")], ref[1, 2], rtol=1e-6)
    assert np.isnan(got[("a", "k")])  # constant column
    assert got[("a", "b")] > 0.9


def test_round5_reserved_column_guards(ray_session):
    """Every round-5 exchange operator rejects input column names that
    collide with its synthetic exchange/output columns instead of
    silently corrupting routing (the hash_join_shuffle guard policy)."""
    import pandas as pd
    import pytest as _pytest
    import ray.data as rd

    from gojsonschema_ray.stages.assoc import cooccurrence_pairs
    from gojsonschema_ray.stages.integrity import fd_violations
    from gojsonschema_ray.stages.sketches import (mad_by_group,
                                                  outliers_by_group)
    from gojsonschema_ray.stages.topk import grouped_top_values
    from gojsonschema_ray.stages.window import (retention_cohorts,
                                                transition_counts)

    df = pd.DataFrame({"part": [1, 2], "v": ["a", "b"],
                       "ts": pd.to_datetime([1, 2], unit="s"),
                       "n": [1.0, 2.0]})
    ds = rd.from_pandas(df)
    with _pytest.raises(ValueError, match="reserved"):
        fd_violations(ds, "part", "v")
    with _pytest.raises(ValueError, match="reserved"):
        grouped_top_values(ds, "part", "v", 2)
    with _pytest.raises(ValueError, match="reserved"):
        cooccurrence_pairs(ds, "part", "v")
    with _pytest.raises(ValueError, match="reserved"):
        transition_counts(ds, "part", "ts", "v")
    with _pytest.raises(ValueError, match="reserved"):
        outliers_by_group(ds, "part", "n")
    with _pytest.raises(ValueError, match="reserved"):
        mad_by_group(ds, "part", "n")
    # retention_cohorts projects into a fresh frame — any names are fine
    from gojsonschema_ray.util import collect_rows as _cr
    assert _cr(retention_cohorts(ds, "part", "ts"))


def test_kmeans_fit(ray_session):
    """Distributed Lloyd matches a local replica from the same init;
    inertia is non-increasing; blobs separate; assign_stage tags purely."""
    import pandas as pd
    import ray.data as rd

    from gojsonschema_ray.stages.similarity import kmeans_fit
    from gojsonschema_ray.util import collect_rows

    rng = np.random.default_rng(31)
    centers = np.array([[0.0, 0.0], [10.0, 0.0], [0.0, 10.0]])
    label = rng.integers(0, 3, 1500)
    x = centers[label] + rng.normal(0, 0.5, (1500, 2))
    df = pd.DataFrame({"id": np.arange(1500),
                       "emb": [row.tolist() for row in x]})
    init = x[[0, 1, 2]].copy()

    model = kmeans_fit(lambda: rd.from_pandas(df).repartition(4), "emb",
                       iters=8, init_centroids=init)
    assert all(b <= a + 1e-6 for a, b in
               zip(model.inertia_history, model.inertia_history[1:]))

    cent = init.copy()
    for _ in range(len(model.inertia_history)):
        d2 = ((x * x).sum(1)[:, None] - 2 * x @ cent.T
              + (cent * cent).sum(1)[None, :])
        a = d2.argmin(1)
        for c in range(3):
            if (a == c).any():
                cent[c] = x[a == c].mean(0)
    np.testing.assert_allclose(model.centroids, cent, rtol=1e-8)

    tagged = collect_rows(rd.from_pandas(df).repartition(3).map_batches(
        model.assign_stage("emb"), batch_format="pyarrow"))
    got = np.array([r["cluster"] for r in
                    sorted(tagged, key=lambda r: r["id"])])
    # every true blob maps to exactly one fitted cluster
    for b in range(3):
        assert len(set(got[label == b])) == 1
    assert len(set(got)) == 3


def test_mad_by_group(ray_session):
    """med/mad equal the linear-interpolation pandas replica per group;
    nulls ignored; n_rows counts non-null values."""
    import pandas as pd
    import ray.data as rd

    from gojsonschema_ray.stages.sketches import mad_by_group
    from gojsonschema_ray.util import collect_rows

    rng = np.random.default_rng(23)
    df = pd.DataFrame({"g": rng.choice(list("abc"), 2001),
                       "v": rng.normal(10, 3, 2001)})
    df.loc[:5, "v"] = None
    rows = collect_rows(mad_by_group(
        rd.from_pandas(df).repartition(4), "g", "v"))
    got = {r["g"]: r for r in rows}
    d = df.dropna()
    for g in "abc":
        v = d.loc[d["g"] == g, "v"]
        med = v.quantile(0.5, interpolation="linear")
        mad = (v - med).abs().quantile(0.5, interpolation="linear")
        assert got[g]["n_rows"] == len(v)
        np.testing.assert_allclose([got[g]["med"], got[g]["mad"]],
                                   [med, mad])


def test_weighted_sample(ray_session):
    """Membership equals the closed-form replica; acceptance tracks
    weight; max-weight row always kept; negative weights raise."""
    import pandas as pd
    import pytest as _pytest
    import ray.data as rd

    from gojsonschema_ray.stages.sampling import (KNUTH, MOD,
                                                  weighted_sample)
    from gojsonschema_ray.util import collect_rows

    n = 4000
    rng = np.random.default_rng(17)
    df = pd.DataFrame({"k": np.arange(n, dtype="int64"),
                       "w": rng.uniform(0.0, 10.0, n)})
    df.loc[0, "w"] = 10.0  # the max row
    out = weighted_sample(rd.from_pandas(df).repartition(4), "k", "w")
    got = set(r["k"] for r in collect_rows(out))

    h = (np.arange(n, dtype=np.uint64) * KNUTH) & (MOD - np.uint64(1))
    thr = np.floor(df["w"].to_numpy() / 10.0 * float(MOD)).astype(
        np.uint64)
    exp = set(np.nonzero(h < thr)[0].tolist())
    assert got == exp and 0 in got
    # acceptance roughly proportional to weight (w~U(0,10) -> ~50% kept)
    assert 0.4 < len(got) / n < 0.6

    bad = pd.DataFrame({"k": [1, 2], "w": [1.0, -0.5]})
    with _pytest.raises(Exception, match="negative"):
        collect_rows(weighted_sample(rd.from_pandas(bad), "k", "w",
                                     w_max=1.0))


def test_outliers_by_group(ray_session):
    """Fence counts equal the pandas quantile replica; injected spikes are
    flagged on the right side; nulls ignored."""
    import pandas as pd
    import ray.data as rd

    from gojsonschema_ray.stages.sketches import outliers_by_group
    from gojsonschema_ray.util import collect_rows

    rng = np.random.default_rng(21)
    df = pd.DataFrame({"g": rng.choice(["a", "b", "c"], 3000),
                       "v": rng.normal(50, 5, 3000)})
    spikes = pd.DataFrame({"g": ["a"] * 5 + ["b"] * 3,
                           "v": [500.0] * 5 + [-500.0] * 3})
    df = pd.concat([df, spikes,
                    pd.DataFrame({"g": ["c"], "v": [None]})],
                   ignore_index=True)
    rows = collect_rows(outliers_by_group(
        rd.from_pandas(df).repartition(4), "g", "v"))
    got = {r["g"]: r for r in rows}

    d = df.dropna()
    for g in "abc":
        v = d.loc[d["g"] == g, "v"]
        q1, q3 = v.quantile(0.25), v.quantile(0.75)
        lo, hi = q1 - 1.5 * (q3 - q1), q3 + 1.5 * (q3 - q1)
        r = got[g]
        assert r["n_rows"] == len(v)
        assert r["n_low"] == int((v < lo).sum())
        assert r["n_high"] == int((v > hi).sum())
        np.testing.assert_allclose([r["lo"], r["hi"]], [lo, hi])
    assert got["a"]["n_high"] >= 5 and got["b"]["n_low"] >= 3


def test_association_support(ray_session):
    """n_pair matches cooccurrence; n1/n2 are the per-value distinct-key
    supports (confidence/lift denominators)."""
    import pandas as pd
    import ray.data as rd

    from gojsonschema_ray.stages.assoc import association_support

    rng = np.random.default_rng(13)
    df = pd.DataFrame({"k": rng.integers(0, 150, 3000),
                       "v": rng.choice(list("abcd"), 3000)})
    d = df.drop_duplicates()
    j = d.merge(d, on="k")
    j = j[j["v_x"] < j["v_y"]]
    exp_pairs = j.groupby(["v_x", "v_y"]).size().to_dict()
    exp_sup = d.groupby("v")["k"].nunique().to_dict()

    out = association_support(rd.from_pandas(df).repartition(4), "k", "v")
    assert len(out) == len(exp_pairs)
    for r in out.itertuples(index=False):
        assert exp_pairs[(r.v1, r.v2)] == r.n_pair
        assert exp_sup[r.v1] == r.n1 and exp_sup[r.v2] == r.n2


def test_retention_cohorts(ray_session):
    """Cohort/offset cells equal the pandas replica; (cohort, 0) is the
    cohort size; within-period duplicates collapse; partitioning-free."""
    import pandas as pd
    import ray.data as rd

    from gojsonschema_ray.stages.window import retention_cohorts
    from gojsonschema_ray.util import collect_rows

    rng = np.random.default_rng(9)
    n = 5000
    base = pd.Timestamp("2024-01-01").value // 1000  # us
    week = 7 * 86400 * 1_000_000
    us = base + rng.integers(0, 12 * week, n)
    df = pd.DataFrame({
        "k": rng.integers(0, 400, n),
        "ts": pd.to_datetime(us, unit="us"),
    })
    period = pd.Series(us // week)
    d = pd.DataFrame({"k": df["k"], "p": period}).drop_duplicates()
    cohort = d.groupby("k")["p"].transform("min")
    exp = pd.DataFrame({"c": cohort, "o": d["p"] - cohort}) \
        .groupby(["c", "o"]).size()
    exp_set = {(c, o, int(v)) for (c, o), v in exp.items()}

    for parts in (3, 8):
        rows = collect_rows(retention_cohorts(
            rd.from_pandas(df).repartition(parts), "k", "ts"))
        got = {(r["cohort"], r["offset"], r["n"]) for r in rows}
        assert got == exp_set
    # cohort size at offset 0 = distinct keys first seen that period
    sizes = {c: v for (c, o, v) in exp_set if o == 0}
    firsts = d.groupby("k")["p"].min().value_counts().to_dict()
    assert sizes == {int(k): int(v) for k, v in firsts.items()}


def test_transition_counts(ray_session):
    """Transition counts equal the pandas lag replica; ties broken by the
    order columns; cross-key boundaries never pair; partitioning-free."""
    import pandas as pd
    import ray.data as rd

    from gojsonschema_ray.stages.window import transition_counts
    from gojsonschema_ray.util import collect_rows

    rng = np.random.default_rng(5)
    n = 4000
    df = pd.DataFrame({
        "k": rng.integers(0, 100, n),
        "ts": rng.integers(0, 10**6, n),
        "seq": np.arange(n, dtype="int64"),
        "v": rng.choice(list("abcd"), n),
    })
    d = df.sort_values(["k", "ts", "seq"], kind="stable")
    prev = d.groupby("k")["v"].shift(1)
    exp = pd.DataFrame({"f": prev, "t": d["v"]}).dropna() \
        .groupby(["f", "t"]).size()
    exp_set = {(f, t, c) for (f, t), c in exp.items()}

    for parts in (3, 9):
        rows = collect_rows(transition_counts(
            rd.from_pandas(df).repartition(parts), "k", "ts", "v",
            order_columns=("seq",)))
        got = {(r["v_from"], r["v_to"], r["n"]) for r in rows}
        assert got == exp_set


def test_cooccurrence_pairs(ray_session):
    """Pair support equals the distinct-pair self-join; duplicates inside
    a key collapse; nulls dropped; max_values_per_key drops degenerate
    keys; min_count filters."""
    import pandas as pd
    import ray.data as rd

    from gojsonschema_ray.stages.assoc import cooccurrence_pairs
    from gojsonschema_ray.util import collect_rows

    rng = np.random.default_rng(11)
    df = pd.DataFrame({"k": rng.integers(0, 200, 5000),
                       "v": rng.choice(list("abcde"), 5000)})
    df.loc[:20, "v"] = None
    d = df.dropna().drop_duplicates()
    j = d.merge(d, on="k")
    j = j[j["v_x"] < j["v_y"]]
    exp = j.groupby(["v_x", "v_y"]).size()
    exp_set = {(a, b, n) for (a, b), n in exp.items()}

    rows = collect_rows(cooccurrence_pairs(
        rd.from_pandas(df).repartition(5), "k", "v"))
    got = {(r["v1"], r["v2"], r["n"]) for r in rows}
    assert got == exp_set

    rows2 = collect_rows(cooccurrence_pairs(
        rd.from_pandas(df).repartition(5), "k", "v",
        min_count=int(exp.median())))
    assert {(r["v1"], r["v2"], r["n"]) for r in rows2} == \
        {t for t in exp_set if t[2] >= int(exp.median())}

    # degenerate-key cap: key 999 holds 30 distinct values -> dropped
    wide = pd.DataFrame({"k": [999] * 30, "v": [f"w{i}" for i in range(30)]})
    both = pd.concat([df.dropna(), wide], ignore_index=True)
    rows3 = collect_rows(cooccurrence_pairs(
        rd.from_pandas(both).repartition(4), "k", "v",
        max_values_per_key=10))
    assert {(r["v1"], r["v2"], r["n"]) for r in rows3} == exp_set


def test_psi_by_group(ray_session):
    """Per-group KS/PSI equals the scalar ks_statistic/psi on each group's
    own histogram; one-sided groups are reported against zero counts."""
    import pandas as pd
    import ray.data as rd

    from gojsonschema_ray.stages.drift import (ks_statistic, psi,
                                               psi_by_group)

    rng = np.random.default_rng(3)
    a = pd.DataFrame({"g": rng.choice(["x", "y"], 3000),
                      "v": rng.uniform(0, 10, 3000)})
    b = pd.DataFrame({"g": rng.choice(["x", "y"], 3000),
                      "v": rng.uniform(0, 10, 3000)})
    b.loc[b["g"] == "y", "v"] += 4.0          # y drifts, x does not
    b = pd.concat([b, pd.DataFrame({"g": ["z"] * 50,
                                    "v": [5.0] * 50})], ignore_index=True)
    edges = np.linspace(0.0, 10.0, 11)
    out = psi_by_group(rd.from_pandas(a).repartition(3),
                       rd.from_pandas(b).repartition(4), "g", "v", edges)
    assert list(out["g"]) == ["x", "y", "z"]

    def hist(df, g):
        v = df.loc[df["g"] == g, "v"].to_numpy()
        h, _ = np.histogram(v, bins=edges)
        return np.array([(v < 0).sum(), *h, (v > 10).sum()], np.int64)

    for g, side_b in (("x", b), ("y", b)):
        row = out[out["g"] == g].iloc[0]
        np.testing.assert_allclose(
            row["ks"], ks_statistic(hist(a, g), hist(side_b, g)))
        np.testing.assert_allclose(
            row["psi"], psi(hist(a, g), hist(side_b, g)))
    x, y, z = out.iloc[0], out.iloc[1], out.iloc[2]
    assert not x["drifted"] and y["drifted"] and z["drifted"]


def test_grouped_top_values(ray_session):
    """Exact cross-batch counts, count-desc value-asc tie-break, nulls
    dropped, partitioning-independent."""
    import pandas as pd
    import ray.data as rd

    from gojsonschema_ray.stages.topk import grouped_top_values
    from gojsonschema_ray.util import collect_rows

    rng = np.random.default_rng(7)
    g = rng.integers(0, 5, 4000)
    v = rng.choice(list("abcdefg"), 4000)
    df = pd.DataFrame({"g": g, "v": v})
    df.loc[:10, "v"] = None
    exp = df.dropna().groupby(["g", "v"]).size().reset_index(name="n")
    exp = exp.sort_values(["g", "n", "v"], ascending=[True, False, True])
    exp = exp.groupby("g").head(2)
    exp_set = set(map(tuple, exp.itertuples(index=False)))

    for parts in (3, 8):
        rows = collect_rows(grouped_top_values(
            rd.from_pandas(df).repartition(parts), "g", "v", 2))
        got = {(r["g"], r["v"], r["n"]) for r in rows}
        assert got == exp_set


def test_fd_violations(ray_session):
    """Violating keys only, with distinct counts and min/max of the
    conflict set; null dependents ignored, null determinants dropped;
    duplicate pairs collapse."""
    import pandas as pd
    import ray.data as rd

    from gojsonschema_ray.stages.integrity import fd_violations
    from gojsonschema_ray.util import collect_rows

    df = pd.DataFrame({
        "k": [1, 1, 1, 2, 2, 3, 3, 3, None, 4, 4],
        "v": ["a", "b", "a", "x", "x", "p", None, "q", "z", None, None],
    })
    rows = collect_rows(fd_violations(
        rd.from_pandas(df).repartition(3), "k", "v"))
    got = {r["k"]: (r["n_distinct"], r["v_min"], r["v_max"]) for r in rows}
    # 1 -> {a,b} violates; 2 -> {x} ok; 3 -> {p,q} (null ignored) violates;
    # None dropped; 4 -> all-null dependents -> no pairs -> absent
    assert got == {1: (2, "a", "b"), 3: (2, "p", "q")}


def test_global_sample_k(ray_session):
    """Exactly-k lowest-hash rows, partitioning-independent; k > n returns
    all rows; null keys dropped."""
    import pandas as pd
    import ray.data as rd

    from gojsonschema_ray.stages.sampling import (KNUTH, MOD,
                                                  global_sample_k)

    n = 3000
    df = pd.DataFrame({"k": np.arange(n, dtype="int64"),
                       "v": np.arange(n, dtype="int64") * 10})
    df = pd.concat([df, pd.DataFrame({"k": [None], "v": [-1]})],
                   ignore_index=True)
    h = (np.arange(n, dtype=np.uint64) * KNUTH) & (MOD - np.uint64(1))
    exp = set(np.argsort(h, kind="stable")[:100].tolist())

    for parts in (2, 7):
        out = global_sample_k(rd.from_pandas(df).repartition(parts),
                              "k", 100)
        got = set(out["k"].to_pylist())
        assert got == exp and out.num_rows == 100
        assert set(out.column_names) == {"k", "v", "sample_h"}
    big = global_sample_k(rd.from_pandas(df).repartition(3), "k", n + 50)
    assert big.num_rows == n  # null key dropped


def test_snapshot_diff(ray_session):
    """added/removed/changed/same statuses; NULL==NULL is same, a one-side
    null is changed; duplicate keys raise loudly."""
    import pandas as pd
    import pytest as _pytest
    import ray.data as rd

    from gojsonschema_ray.stages.integrity import snapshot_diff
    from gojsonschema_ray.util import collect_rows

    a = pd.DataFrame({"k": [1, 2, 3, 4, 5, 6],
                      "v": [10.0, 20.0, None, 40.0, None, 60.0],
                      "w": list("aabbcc")})
    b = pd.DataFrame({"k": [2, 3, 4, 5, 6, 7],
                      "v": [20.0, None, 41.0, 50.0, 60.0, 70.0],
                      "w": list("abbccd")})
    out = collect_rows(snapshot_diff(
        rd.from_pandas(a).repartition(3), rd.from_pandas(b).repartition(2),
        "k", ["v", "w"]))
    got = {r["k"]: r["status"] for r in out}
    assert got == {1: "removed", 2: "same",
                   3: "same",      # NULL == NULL is same
                   4: "changed",   # 40 -> 41
                   5: "changed",   # NULL -> 50 (one-side null)
                   6: "same", 7: "added"}
    dup = pd.DataFrame({"k": [1, 1], "v": [0.0, 0.0], "w": ["x", "y"]})
    with _pytest.raises(Exception, match="unique per snapshot"):
        collect_rows(snapshot_diff(
            rd.from_pandas(dup), rd.from_pandas(b), "k", ["v", "w"]))


def test_funnel_by_key_closed_form(ray_session):
    """Ordered funnel: out-of-order events don't count, equal timestamps
    do (>= gate), unreached steps null, reached counts the prefix."""
    import pandas as pd
    import ray.data as rd

    from gojsonschema_ray.stages.window import funnel_by_key
    from gojsonschema_ray.util import collect_rows

    rows_in = [
        (1, 0.0, "view"), (1, 5.0, "click"), (1, 3.0, "purchase"),
        (1, 10.0, "purchase"),                       # 3: purchase@3 < click
        (2, 0.0, "click"), (2, 5.0, "view"), (2, 4.0, "click"),
        (2, 7.0, "click"),                           # 2: click@4 < view@5
        (3, 1.0, "error"),                           # 0
        (4, 2.0, "view"), (4, 3.0, "purchase"),      # 1: no click
        (5, 1.0, "view"), (5, 1.0, "click"),         # 2: equal ts counts
    ]
    df = pd.DataFrame(rows_in, columns=["user", "ts", "etype"])
    out = collect_rows(funnel_by_key(
        rd.from_pandas(df).repartition(3), "user", "ts", "etype",
        ["view", "click", "purchase"]))

    def norm(x):
        return None if x is None or (isinstance(x, float) and np.isnan(x)) \
            else x
    got = {r["user"]: (r["reached"], norm(r["t1_s"]), norm(r["t2_s"]),
                       norm(r["t3_s"])) for r in out}
    assert got == {1: (3, 0.0, 5.0, 10.0),
                   2: (2, 5.0, 7.0, None),
                   3: (0, None, None, None),
                   4: (1, 2.0, None, None),
                   5: (2, 1.0, 1.0, None)}


def test_global_rank(ray_session):
    """Exact distributed rank matches SQL rank() (min-rank ties) and
    percent_rank on data with heavy ties and nulls; single-row N edge."""
    import pandas as pd
    import ray.data as rd

    from gojsonschema_ray.stages.sketches import global_rank
    from gojsonschema_ray.util import collect_rows

    rng = np.random.default_rng(23)
    v = np.where(rng.random(500) < 0.3,
                 rng.integers(0, 5, 500).astype("float64"),  # tie mass
                 rng.normal(size=500))
    df = pd.DataFrame({"eid": np.arange(500), "v": v})
    df.loc[::97, "v"] = None  # nulls excluded
    rows = collect_rows(global_rank(
        rd.from_pandas(df).repartition(7), "v", "eid"))
    got = pd.DataFrame(rows).sort_values("eid").reset_index(drop=True)
    ok = df[df["v"].notna()].reset_index(drop=True)
    exp_rank = ok["v"].rank(method="min").astype("int64")
    n = len(ok)
    assert list(got["eid"]) == list(ok["eid"])
    np.testing.assert_array_equal(got["rnk"].to_numpy(),
                                  exp_rank.to_numpy())
    np.testing.assert_allclose(got["pct"].to_numpy(),
                               (exp_rank.to_numpy() - 1) / (n - 1))
    one = collect_rows(global_rank(
        rd.from_pandas(pd.DataFrame({"eid": [0], "v": [3.5]})), "v", "eid"))
    assert [(r["rnk"], r["pct"]) for r in one] == [(1, 0.0)]


def test_curate_documents_closed_form(ray_session):
    """Every curation stage exercised: quality drop (too short), exact-dup
    drop (keep-first), decontamination drop (shares a 20-char gram with the
    reference), survivors get exact token/chunk accounting."""
    import itertools

    import pandas as pd
    import ray.data as rd

    from gojsonschema_ray.pipelines.curation import curate_documents
    from gojsonschema_ray.util import collect_rows

    words = ["".join(w) for w in itertools.islice(
        itertools.product("abcdefghij", repeat=5), 58)]
    good = " ".join(["the", "and"] + words)          # 60 tokens, mwl 5ish
    # 57 tokens — PASSES every quality rule, so its drop below can only
    # come from the decontamination stage
    contaminated = " ".join(
        ["the", "and"] + words[:50] + ["zzzz contaminated gram here zz"])
    ref_text = "an eval doc holding the zzzz contaminated gram here zz bit"
    corpus = pd.DataFrame({
        "doc_id": [10, 11, 12, 13],
        "text": [good,            # survivor
                 good,            # exact dup -> keep-first drops id 11
                 "too short",     # quality: min_tokens
                 contaminated],   # decontaminated away
    })
    out = collect_rows(curate_documents(
        rd.from_pandas(corpus).repartition(2), [ref_text]))
    got = {r["doc_id"]: (r["n_tokens"], r["n_chunks"]) for r in out}
    assert got == {10: (60, 12)}  # chunks: 1 + ceil((60-8)/5) = 12
    # with a non-matching reference doc 13 survives — i.e. its drop above
    # really came from the decontamination stage, not quality/dedup
    out2 = collect_rows(curate_documents(
        rd.from_pandas(corpus).repartition(2), ["no overlap here at all"]))
    assert {r["doc_id"] for r in out2} == {10, 13}
    # keep_text=True returns the curated (text, id) rows
    txt = collect_rows(curate_documents(
        rd.from_pandas(corpus).repartition(2), [ref_text], keep_text=True))
    assert [(r["doc_id"], r["text"] == good) for r in txt] == [(10, True)]


def test_pcm_features_sine_closed_form():
    """datagen sines are 0.5 FS at integral frequency: RMS −9.03 dBFS,
    peak −6.02 dBFS, ZCR == f crossing pairs/s, FFT peak == f, no clipping."""
    from gojsonschema_ray.datagen import clip_frequency, synth_pcm
    from gojsonschema_ray.stages.audio import pcm_features

    i = 7
    f = clip_frequency(i)  # 107 Hz
    pcm = synth_pcm(i, 16000, 1000, 1000)  # one full second
    feat = pcm_features(pcm, 16000)
    assert feat["n_samples"] == 16000
    assert abs(feat["rms_dbfs"] - 20 * np.log10(0.5 / np.sqrt(2))) < 0.05
    assert abs(feat["peak_dbfs"] - 20 * np.log10(0.5)) < 0.05
    assert abs(feat["zcr_hz"] - f) < 2.0
    assert abs(feat["est_freq_hz"] - f) < 1.0
    assert feat["clipped_frac"] == 0.0
    assert 0.5 * f < feat["spectral_centroid_hz"] < 6 * f


def test_pcm_features_empty_and_clipped():
    from gojsonschema_ray.stages.audio import pcm_features

    empty = pcm_features(np.zeros(0, dtype=np.int16), 16000)
    assert empty["n_samples"] == 0 and empty["rms_dbfs"] is None
    square = np.where(np.arange(1000) % 2 == 0, 32767, -32767) \
        .astype(np.int16)
    feat = pcm_features(square, 8000)
    assert feat["clipped_frac"] == 1.0
    assert abs(feat["peak_dbfs"]) < 1e-9


def test_audio_feature_stage(ray_session):
    from gojsonschema_ray import datagen
    from gojsonschema_ray.stages.audio import AudioFeatureStage
    from gojsonschema_ray.util import collect_rows

    n = 2000
    ds = datagen.clips_dataset(n, audio_cap_ms=30, override_num_blocks=4)
    rows = collect_rows(ds.map_batches(AudioFeatureStage, batch_size=256,
                                       batch_format="pyarrow",
                                       concurrency=(1, 2)))
    assert len(rows) == n
    ok = [r for r in rows if r["decode_ok"]]
    bad = [r for r in rows if not r["decode_ok"]]
    # datagen injects undecodable rows (mp3??? codec i%977==0, truncated
    # payload i%1013==0) sparsely — a handful at n=2000, never zero
    assert 1 <= len(bad) <= 10
    rms = [r["rms_dbfs"] for r in ok
           if r["n_samples"] and r["n_samples"] > 100]
    assert abs(np.mean(rms) - 20 * np.log10(0.5 / np.sqrt(2))) < 0.3


def test_resample_linear_sine_closed_form():
    """Upsampling a sine 8k->16k doubles the length and the result matches
    the directly-sampled sine (linear interpolation error bound at this
    frequency); downsampling back recovers ~the original. Identity rate
    returns the input unchanged."""
    from gojsonschema_ray.stages.audio import resample_linear

    sr, f, n = 8000, 200.0, 800
    t = np.arange(n) / sr
    pcm = np.rint(0.5 * 32767 * np.sin(2 * np.pi * f * t)).astype(np.int16)
    up = resample_linear(pcm, sr, 16000)
    assert len(up) == 1600
    want = 0.5 * 32767 * np.sin(2 * np.pi * f * np.arange(1600) / 16000)
    # linear interp of a 200 Hz sine at 8 kHz: max error ~ (pi*f/sr)^2/2;
    # the final sample maps past the last input (interp holds-last) — skip
    assert np.max(np.abs(up[:-1].astype(np.float64) - want[:-1])) < \
        0.5 * 32767 * (np.pi * f / sr) ** 2 * 0.6 + 1.0
    assert resample_linear(pcm, sr, sr) is pcm
    down = resample_linear(up, 16000, 8000)
    assert len(down) == n
    assert np.max(np.abs(down.astype(np.float64)
                         - pcm.astype(np.float64))) < 60


def test_resample_sinc_quality():
    """The Kaiser windowed-sinc path: ~90 dB passband SNR both directions
    (vs ~40 dB for linear), total alias suppression when downsampling a
    tone above the target Nyquist, exact DC, same length contract."""
    from gojsonschema_ray.stages.audio import resample_linear, resample_sinc

    def snr_db(ref, got):
        e = ref.astype(np.float64) - got.astype(np.float64)
        return 10 * np.log10(np.sum(ref.astype(np.float64) ** 2)
                             / max(np.sum(e * e), 1e-12))

    t1 = np.arange(8000) / 8000.0
    x1 = np.rint(0.4 * 32767 * np.sin(2 * np.pi * 440 * t1)).astype(np.int16)
    up = resample_sinc(x1, 8000, 16000)
    assert len(up) == 16000
    ref = np.rint(0.4 * 32767 * np.sin(
        2 * np.pi * 440 * np.arange(16000) / 16000.0)).astype(np.int16)
    m = slice(200, -200)  # edge transients carry the filter half-width
    assert snr_db(ref[m], up[m]) > 80.0
    assert snr_db(ref[m], resample_linear(x1, 8000, 16000)[m]) < 45.0
    # 7 kHz tone at 16 kHz folds to 1 kHz under naive 2:1 decimation;
    # the sinc path low-passes it below the noise floor
    x = np.rint(0.4 * 32767 * np.sin(
        2 * np.pi * 7000 * np.arange(16000) / 16000.0)).astype(np.int16)
    dn = resample_sinc(x, 16000, 8000)
    assert len(dn) == 8000
    assert float(np.sqrt(np.mean(dn[m].astype(np.float64) ** 2))) < 2.0
    assert float(np.sqrt(np.mean(
        resample_linear(x, 16000, 8000)[m].astype(np.float64) ** 2))) > 1000.0
    # DC exact in the interior; identity rate returns the input object
    dc = np.full(4000, 1000, dtype=np.int16)
    out = resample_sinc(dc, 8000, 16000)
    assert out[100:-100].min() == 1000 and out[100:-100].max() == 1000
    assert resample_sinc(x1, 8000, 8000) is x1
    assert len(resample_sinc(x1[:0], 8000, 16000)) == 0


def test_transform_stage_sinc_resampler(ray_session):
    """resampler='sinc' through the actor-pool stage beats the linear
    path's SNR on a real upsample."""
    import pyarrow as pa
    import ray

    from gojsonschema_ray.stages.audio import AudioTransformStage
    from gojsonschema_ray.util import collect_rows

    sr, n = 8000, 8000
    tone = np.rint(0.4 * 32767 * np.sin(
        2 * np.pi * 440 * np.arange(n) / sr)).astype(np.int16)
    tbl = pa.table({
        "clip_id": ["c1"], "bytes": [tone.tobytes()],
        "sr_hz": pa.array([sr], pa.int32()),
        "dur_ms": pa.array([1000], pa.int32()),
        "codec": ["pcm_s16le"], "transcript": [""],
    })
    ref = 0.4 * 32767 * np.sin(2 * np.pi * 440 * np.arange(16000) / 16000.0)
    got = {}
    for rs in ("linear", "sinc"):
        (row,) = collect_rows(ray.data.from_arrow(tbl).map_batches(
            AudioTransformStage,
            fn_constructor_kwargs=dict(target_sr=16000, resampler=rs),
            batch_format="pyarrow", concurrency=(1, 1)))
        pcm = np.frombuffer(row["bytes"], dtype="<i2").astype(np.float64)
        got[rs] = float(np.sqrt(np.mean((pcm - ref)[200:-200] ** 2)))
    assert got["sinc"] < got["linear"] / 50.0
    with pytest.raises(ValueError, match="resampler"):
        AudioTransformStage(resampler="cubic")


def test_normalize_gain_closed_form():
    from gojsonschema_ray.stages.audio import normalize_gain

    pcm = np.array([0, 8192, -16384, 4096], dtype=np.int16)
    out, gain_db = normalize_gain(pcm, target_dbfs=-6.0, mode="peak")
    target_peak = 32767.0 * 10 ** (-6.0 / 20.0)
    assert abs(int(np.max(np.abs(out.astype(np.int64)))) - target_peak) < 1.5
    assert abs(gain_db - 20 * np.log10(target_peak / 16384.0)) < 1e-9
    # RMS mode hits the target RMS; silence passes through at 0 dB
    out, gain_db = normalize_gain(pcm, target_dbfs=-12.0, mode="rms")
    got_rms = float(np.sqrt(np.mean(out.astype(np.float64) ** 2)))
    assert abs(20 * np.log10(got_rms / 32767.0) - (-12.0)) < 0.01
    z = np.zeros(8, dtype=np.int16)
    outz, g0 = normalize_gain(z, -3.0)
    assert g0 == 0.0 and np.array_equal(outz, z)


def test_trim_silence_closed_form():
    from gojsonschema_ray.stages.audio import trim_silence

    sr, frame_ms = 16000, 10
    flen = sr * frame_ms // 1000  # 160
    tone = np.rint(0.5 * 32767 * np.sin(
        2 * np.pi * 440 * np.arange(5 * flen) / sr)).astype(np.int16)
    pcm = np.concatenate([np.zeros(3 * flen, np.int16), tone,
                          np.zeros(2 * flen, np.int16)])
    out, lead, trail = trim_silence(pcm, sr, threshold_dbfs=-40.0,
                                    frame_ms=frame_ms)
    assert (lead, trail) == (3, 2)
    assert np.array_equal(out, tone)
    # all-silent clip trims to empty; loud-to-the-end keeps the remainder
    out, lead, trail = trim_silence(np.zeros(1000, np.int16), sr)
    assert len(out) == 0 and lead > 0
    tail = np.concatenate([np.zeros(flen, np.int16), tone, tone[:50]])
    out, lead, trail = trim_silence(tail, sr, frame_ms=frame_ms)
    assert trail == 0 and len(out) == len(tone) + 50 and lead == 1


def test_audio_transform_stage(ray_session):
    """Decode -> trim -> resample -> normalize over the datagen clips:
    output rows are pcm_s16le at the target rate, gains hit the target
    peak, and the emitted bytes decode back to n_samples_out samples.
    Undecodable rows degrade to decode_ok=False."""
    from gojsonschema_ray import datagen
    from gojsonschema_ray.stages.audio import AudioTransformStage
    from gojsonschema_ray.util import collect_rows

    n = 1000
    ds = datagen.clips_dataset(n, audio_cap_ms=30, override_num_blocks=4)
    rows = collect_rows(ds.map_batches(
        AudioTransformStage,
        fn_constructor_kwargs=dict(target_sr=16000, target_dbfs=-3.0,
                                   trim_threshold_dbfs=-60.0),
        batch_size=256, batch_format="pyarrow", concurrency=(1, 2)))
    assert len(rows) == n
    ok = [r for r in rows if r["decode_ok"]]
    assert len(ok) >= n - 10 and len(ok) < n  # datagen injects bad rows
    for r in ok[:50]:
        assert r["codec"] == "pcm_s16le" and r["sr_hz"] == 16000
        pcm = np.frombuffer(r["bytes"], dtype="<i2")
        assert len(pcm) == r["n_samples_out"]
        if r["n_samples_out"]:
            peak_dbfs = 20 * np.log10(
                max(float(np.max(np.abs(pcm.astype(np.int64)))), 1e-9)
                / 32767.0)
            assert abs(peak_dbfs - (-3.0)) < 0.1


def _ramp_tone(sr: int, n: int, lo: float, hi: float,
               freq: float = 440.0, amp: float = 0.45) -> np.ndarray:
    """int16 sine with a linear amplitude envelope lo→hi (of `amp` FS)."""
    t = np.arange(n, dtype=np.float64) / sr
    env = np.linspace(lo, hi, n)
    return np.rint(amp * 32767.0 * env
                   * np.sin(2 * np.pi * freq * t)).astype(np.int16)


def test_energy_fingerprint_closed_form():
    """Rising envelope → every log-energy delta positive → all-ones bits;
    gain shifts never change the fingerprint; sub-frame clips → 0."""
    from gojsonschema_ray.stages.audio import energy_fingerprint

    sr, frames = 8000, 33
    # exactly 2 sine periods per 24-sample frame: per-frame energy depends
    # only on the envelope, so a rising ramp rises strictly frame-to-frame
    f = 2 * sr / 24.0
    up = _ramp_tone(sr, 33 * 24, 0.05, 1.0, freq=f)
    fp_up = energy_fingerprint(up, frames)
    assert fp_up == (1 << (frames - 1)) - 1  # all 32 delta bits set
    # gain invariance: -6 dB and +~5 dB copies fingerprint identically
    # (log-energy deltas are unchanged by a constant gain)
    half = (up.astype(np.float64) * 0.5).astype(np.int16)
    loud = (up.astype(np.float64) * 1.8).astype(np.int16)
    assert energy_fingerprint(half, frames) == fp_up
    assert energy_fingerprint(loud, frames) == fp_up
    # a different envelope shape is a different fingerprint
    down = _ramp_tone(sr, 33 * 24, 1.0, 0.05, freq=f)
    assert energy_fingerprint(down, frames) == 0  # all deltas negative
    assert energy_fingerprint(up[:20], frames) == 0  # shorter than frames


def test_duplicate_audio_groups(ray_session):
    """Content-duplicate clips group by fingerprint across codecs and gain
    levels; unique and undecodable clips are excluded."""
    import ray.data as rd

    from gojsonschema_ray.datagen import CLIPS_SCHEMA, encode_audio
    from gojsonschema_ray.stages.audio import duplicate_audio_groups
    from gojsonschema_ray.util import collect_rows

    sr, n = 8000, 33 * 24
    a = _ramp_tone(sr, n, 0.05, 1.0)                       # rising
    a_half = (a.astype(np.float64) * 0.5).astype(np.int16)  # re-gained copy
    b = np.concatenate([_ramp_tone(sr, n // 2, 0.05, 1.0),
                        _ramp_tone(sr, n - n // 2, 1.0, 0.05)])  # triangle
    c = _ramp_tone(sr, n, 1.0, 0.05)                       # unique
    rows = [
        ("a-wav", encode_audio(a, sr, "wav"), "wav"),
        ("a-raw", a.tobytes(), "pcm_s16le"),
        ("a-gain", encode_audio(a_half, sr, "wav"), "wav"),
        ("b-1", encode_audio(b, sr, "wav"), "wav"),
        ("b-2", b.tobytes(), "pcm_s16le"),
        ("c-solo", encode_audio(c, sr, "wav"), "wav"),
        ("bad", b"\x00\x01truncated", "wav"),              # undecodable
    ]
    table = pa.table(
        [[r[0] for r in rows], [r[1] for r in rows],
         pa.array([sr] * len(rows), pa.int32()),
         pa.array([n * 1000 // sr] * len(rows), pa.int32()),
         [r[2] for r in rows], [""] * len(rows)],
        schema=CLIPS_SCHEMA)
    groups = collect_rows(duplicate_audio_groups(
        rd.from_arrow(table).repartition(3), concurrency=(1, 2),
        batch_size=4))
    counts = sorted(g["n"] for g in groups)
    assert counts == [2, 3]
    fps = {g["fp"] for g in groups}
    assert len(fps) == 2  # rising-ramp group and triangle group differ


def test_near_duplicate_audio(ray_session):
    """Hamming-band near-dup over 64-bit fingerprints: an exact cross-codec
    copy pairs at hamming 0; a one-frame loudness edit pairs at exactly
    hamming 1 (only the boosted frame's trailing delta flips on a rising
    ramp); unrelated envelopes don't pair."""
    import ray.data as rd

    from gojsonschema_ray.datagen import CLIPS_SCHEMA, encode_audio
    from gojsonschema_ray.stages.audio import near_duplicate_audio
    from gojsonschema_ray.util import collect_rows

    sr, flen = 8000, 24
    n = 65 * flen  # 65 frames -> 64-bit code
    f = 2 * sr / flen  # frame-commensurate: energy tracks only the envelope
    a = _ramp_tone(sr, n, 0.05, 1.0, freq=f)
    near = a.copy()  # boost frame 10 by 2x: delta 9 stays positive (rising
    near[10 * flen:11 * flen] = np.clip(  # ramp), delta 10 flips -> 1 bit
        near[10 * flen:11 * flen].astype(np.int32) * 2, -32767, 32767
    ).astype(np.int16)
    far = _ramp_tone(sr, n, 1.0, 0.05, freq=f)  # falling: ~64 bits away
    rows = [
        ("a-wav", encode_audio(a, sr, "wav"), "wav"),
        ("a-raw", a.tobytes(), "pcm_s16le"),
        ("a-near", encode_audio(near, sr, "wav"), "wav"),
        ("far", encode_audio(far, sr, "wav"), "wav"),
    ]
    table = pa.table(
        [[r[0] for r in rows], [r[1] for r in rows],
         pa.array([sr] * len(rows), pa.int32()),
         pa.array([n * 1000 // sr] * len(rows), pa.int32()),
         [r[2] for r in rows], [""] * len(rows)],
        schema=CLIPS_SCHEMA)
    pairs = collect_rows(near_duplicate_audio(
        rd.from_arrow(table).repartition(2), max_hamming=3,
        concurrency=(1, 2), batch_size=4))
    got = {(p["id_a"], p["id_b"]): p["hamming"] for p in pairs}
    assert got == {("a-raw", "a-wav"): 0, ("a-near", "a-raw"): 1,
                   ("a-near", "a-wav"): 1}


def _join_frames():
    import pandas as pd

    left = pd.DataFrame({
        "k": [1, 2, 2, 3, None, 5],
        "lv": [10.0, 20.0, 21.0, 30.0, 40.0, 50.0],
        "v": [1, 2, 3, 4, 5, 6],  # name collision with the right side
    })
    right = pd.DataFrame({
        "k": [2, 2, 3, 4, None],
        "rv": [200.0, 201.0, 300.0, 400.0, 999.0],
        "v": [7, 8, 9, 10, 11],
    })
    return left, right


def _sql_merge(left, right, how):
    """pandas merge with SQL null-key semantics (nulls never match)."""
    import pandas as pd

    l_ok, r_ok = left[left["k"].notna()], right[right["k"].notna()]
    pd_how = {"inner": "inner", "left": "left",
              "right": "right", "full": "outer"}[how]
    out = l_ok.merge(r_ok, on="k", how=pd_how, suffixes=("", "_r"))
    if how in ("left", "full"):
        out = pd.concat([out, left[left["k"].isna()]
                        .reindex(columns=out.columns)], ignore_index=True)
    if how in ("right", "full"):
        nk = right[right["k"].isna()].rename(
            columns={"rv": "rv", "v": "v_r"})
        out = pd.concat([out, nk.reindex(columns=out.columns)],
                        ignore_index=True)
    return out


@pytest.mark.parametrize("how", ["inner", "left"])
def test_hash_join_broadcast(ray_session, how):
    import pandas as pd
    import ray.data as rd

    from gojsonschema_ray.stages.joins import hash_join_broadcast
    from gojsonschema_ray.util import collect_rows

    left, right = _join_frames()
    out = hash_join_broadcast(rd.from_pandas(left).repartition(3),
                              rd.from_pandas(right), on="k", how=how)
    got = pd.DataFrame(collect_rows(out)).sort_values(["v", "v_r"]) \
        .reset_index(drop=True)
    exp = _sql_merge(left, right, how).sort_values(["v", "v_r"]) \
        .reset_index(drop=True)[got.columns]
    pd.testing.assert_frame_equal(got, exp, check_dtype=False)


@pytest.mark.parametrize("how", ["inner", "left", "right", "full",
                                 "semi", "anti"])
def test_hash_join_shuffle(ray_session, how, monkeypatch):
    import pandas as pd
    import ray.data as rd

    from gojsonschema_ray.stages.joins import hash_join_shuffle
    from gojsonschema_ray.util import collect_rows

    monkeypatch.setattr("gojsonschema_ray.stages.exchange.shuffle_width",
                        lambda: 4)
    left, right = _join_frames()
    out = hash_join_shuffle(rd.from_pandas(left).repartition(3),
                            rd.from_pandas(right).repartition(2),
                            on="k", how=how)
    got = pd.DataFrame(collect_rows(out))
    if how in ("semi", "anti"):
        hit = left["k"].isin(right.loc[right["k"].notna(), "k"]) \
            & left["k"].notna()
        exp = left[hit] if how == "semi" else left[~hit]
        assert sorted(got["v"]) == sorted(exp["v"])
        return
    got = got.sort_values(["v", "v_r"]).reset_index(drop=True)
    exp = _sql_merge(left, right, how).sort_values(["v", "v_r"]) \
        .reset_index(drop=True)[got.columns]
    pd.testing.assert_frame_equal(got, exp, check_dtype=False)


def test_hash_join_shuffle_matches_duckdb_shape(ray_session, monkeypatch):
    """Fact ⋈ fact over real testdata: lineitem ⋈ orders on l_orderkey,
    row count equals the SQL inner-join count (every lineitem has an
    order, so count == lineitem rows)."""
    import ray.data as rd

    from gojsonschema_ray.stages.joins import hash_join_shuffle

    sf = "/root/testdata/sf0.001"
    li = rd.read_parquet(f"{sf}/lineitem.parquet",
                         columns=["l_orderkey", "l_quantity"])
    orders = rd.read_parquet(f"{sf}/orders.parquet",
                             columns=["o_orderkey", "o_custkey"]) \
        .map_batches(lambda t: t.rename_columns(["l_orderkey", "o_custkey"]),
                     batch_format="pyarrow")
    monkeypatch.setattr("gojsonschema_ray.stages.exchange.shuffle_width",
                        lambda: 4)
    out = hash_join_shuffle(li, orders, on="l_orderkey")
    assert out.count() == li.count()


def test_hash_join_shuffle_right_outer_salting(ray_session, monkeypatch):
    """Skewed RIGHT outer join (one key = 30% of the preserved right
    side): the right side is the salted probe — exact OUTER result (each
    preserved row lives in ONE sub-bucket, meets every replicated left
    row there) with every partition's share bounded."""
    import pandas as pd
    import ray.data as rd

    from gojsonschema_ray.stages.joins import hash_join_shuffle
    from gojsonschema_ray.stages.sketches import hash_arrow_array
    from gojsonschema_ray.util import collect_rows

    n = 3000
    rng = np.random.default_rng(17)
    rkeys = rng.integers(0, 500, size=n).astype(np.int64)
    rkeys[rng.choice(n, size=n // 3, replace=False)] = 999  # hot on RIGHT
    right = pd.DataFrame({"k": rkeys, "rv": np.arange(n)})
    # keys 400-499 absent on the left so unmatched right rows exist
    left = pd.DataFrame({"k": np.arange(400).tolist() + [999, 999],
                         "v": np.arange(402) * 10})
    monkeypatch.setattr("gojsonschema_ray.stages.exchange.shuffle_width",
                        lambda: 8)
    out = hash_join_shuffle(rd.from_pandas(left).repartition(2),
                            rd.from_pandas(right).repartition(6),
                            on="k", how="right", hot_keys={999},
                            salt_buckets=8)
    got = pd.DataFrame(collect_rows(out)).sort_values(
        ["rv", "v"]).reset_index(drop=True)
    exp = left.merge(right, on="k", how="right").sort_values(
        ["rv", "v"]).reset_index(drop=True)[got.columns]
    pd.testing.assert_frame_equal(got, exp, check_dtype=False)

    # partition balance of the salted (right) side
    P, S = 8, 8
    GOLD = np.uint64(0x9E3779B97F4A7C15)
    h = hash_arrow_array(pa.array(rkeys))
    salt = np.where(rkeys == 999,
                    np.arange(n, dtype=np.uint64) % np.uint64(S),
                    np.uint64(0))
    parts = ((h ^ (salt * GOLD)) % np.uint64(P)).astype(int)
    share = np.bincount(parts, minlength=P) / n
    assert share.max() <= 2.0 / P + 0.02, share


def test_hash_join_shuffle_full_outer_salting(ray_session, monkeypatch):
    """Skewed FULL outer join with hot_keys: composes as salted LEFT join
    ∪ NULL-left anti complement — result equals the pandas full merge
    exactly (matched pairs fan out, unmatched LEFT rows carry NULL right,
    unmatched RIGHT rows surface once with NULL left, null keys on both
    sides preserved unmatched)."""
    import pandas as pd
    import ray.data as rd

    from gojsonschema_ray.stages.joins import hash_join_shuffle
    from gojsonschema_ray.util import collect_rows

    n = 2000
    rng = np.random.default_rng(23)
    keys = rng.integers(0, 300, size=n).astype(np.float64)
    keys[rng.choice(n, size=n // 3, replace=False)] = 999.0  # hot on LEFT
    keys[:5] = np.nan  # null keys never match, still preserved
    left = pd.DataFrame({"k": keys, "v": np.arange(n)})
    right = pd.DataFrame(  # 250-299 absent; 400s unmatched on the right
        {"k": np.arange(250).astype(np.float64).tolist()
         + [999.0, 400.0, 401.0, np.nan],
         "rv": np.arange(254) * 10})
    monkeypatch.setattr("gojsonschema_ray.stages.exchange.shuffle_width",
                        lambda: 8)
    out = hash_join_shuffle(rd.from_pandas(left).repartition(5),
                            rd.from_pandas(right).repartition(2),
                            on="k", how="full", hot_keys={999.0},
                            salt_buckets=8)
    got = pd.DataFrame(collect_rows(out)).sort_values(
        ["v", "rv"]).reset_index(drop=True)
    # SQL FULL OUTER reference (pandas merge MATCHES NaN keys — SQL
    # doesn't): merge the non-null subsets, append null-key rows unmatched
    lok, rok = left["k"].notna(), right["k"].notna()
    exp = pd.concat([
        left[lok].merge(right[rok], on="k", how="outer"),
        left[~lok].reindex(columns=["k", "v", "rv"]),
        right[~rok].reindex(columns=["k", "v", "rv"]),
    ], ignore_index=True).sort_values(
        ["v", "rv"]).reset_index(drop=True)[got.columns]
    pd.testing.assert_frame_equal(got, exp, check_dtype=False)


@pytest.mark.parametrize("how", ["inner", "left", "semi", "anti"])
def test_hash_join_shuffle_hot_key_salting(ray_session, how, monkeypatch):
    """Skewed fact-fact join (one key = 30% of left rows): salting keeps
    every partition's share bounded while the result stays exactly the SQL
    merge (salt sub-buckets colliding mod P must not duplicate matches)."""
    import pandas as pd
    import ray.data as rd

    from gojsonschema_ray.stages.joins import hash_join_shuffle
    from gojsonschema_ray.stages.sketches import hash_arrow_array
    from gojsonschema_ray.util import collect_rows

    n = 3000
    rng = np.random.default_rng(11)
    keys = rng.integers(0, 500, size=n).astype(np.int64)
    keys[rng.choice(n, size=n // 3, replace=False)] = 999  # the hot FK
    left = pd.DataFrame({"k": keys, "v": np.arange(n)})
    # keys 400-499 intentionally absent so left/anti produce rows
    right = pd.DataFrame({"k": np.arange(400).tolist() + [999],
                          "rv": np.arange(401) * 10})
    monkeypatch.setattr("gojsonschema_ray.stages.exchange.shuffle_width",
                        lambda: 8)
    out = hash_join_shuffle(rd.from_pandas(left).repartition(6),
                            rd.from_pandas(right).repartition(2),
                            on="k", how=how, hot_keys={999}, salt_buckets=8)
    got = pd.DataFrame(collect_rows(out))
    if how in ("semi", "anti"):
        hit = left["k"].isin(right["k"])
        exp = left[hit] if how == "semi" else left[~hit]
        assert sorted(got["v"]) == sorted(exp["v"])
    else:
        exp = left.merge(right, on="k", how=how)
        got = got.sort_values(["v"]).reset_index(drop=True)
        exp = exp.sort_values(["v"]).reset_index(drop=True)[got.columns]
        pd.testing.assert_frame_equal(got, exp, check_dtype=False)

    # partition balance: the salted left side spreads the hot key — no
    # partition holds more than ~2x the fair share (unsalted, the hot
    # partition would hold >30% + its fair share)
    P, S = 8, 8
    GOLD = np.uint64(0x9E3779B97F4A7C15)
    h = hash_arrow_array(pa.array(keys))
    salt = np.where(keys == 999, np.arange(n, dtype=np.uint64) % np.uint64(S),
                    np.uint64(0))
    parts = ((h ^ (salt * GOLD)) % np.uint64(P)).astype(int)
    share = np.bincount(parts, minlength=P) / n
    assert share.max() <= 2.0 / P + 0.02, share


def test_asof_broadcast_null_timestamp_keys(ray_session):
    """Null `by` keys on a TIMESTAMP key column: pandas groups them under
    NaT (not float nan) — they must still match the right side's None pack,
    exactly like the pre-vectorization per-row path did."""
    import pandas as pd
    import ray.data as rd

    from gojsonschema_ray.stages.joins import asof_join_broadcast
    from gojsonschema_ray.util import collect_rows

    ts = pd.to_datetime(["2024-01-01 00:10", "2024-01-01 00:20"])
    key = pd.to_datetime([pd.NaT, "2024-01-01"])
    left = pd.DataFrame({"t": ts, "k": key, "v": [1, 2]})
    right = pd.DataFrame({
        "t": pd.to_datetime(["2024-01-01 00:00", "2024-01-01 00:05"]),
        "k": pd.to_datetime([pd.NaT, "2024-01-01"]),
        "price": [10.0, 20.0],
    })
    out = collect_rows(asof_join_broadcast(
        rd.from_pandas(left), rd.from_pandas(right),
        left_on="t", right_on="t", by="k", value_columns=["price"]))
    by_v = {r["v"]: r for r in out}
    assert by_v[1]["asof_matched"] and by_v[1]["r_price"] == 10.0  # NaT key
    assert by_v[2]["asof_matched"] and by_v[2]["r_price"] == 20.0


def test_hash_join_shuffle_reserved_names_raise(ray_session):
    import pandas as pd
    import ray.data as rd

    from gojsonschema_ray.stages.joins import hash_join_shuffle

    left = rd.from_pandas(pd.DataFrame({"k": [1], "_salt": [0]}))
    right = rd.from_pandas(pd.DataFrame({"k": [1], "rv": [2]}))
    with pytest.raises(ValueError, match="reserved"):
        hash_join_shuffle(left, right, on="k")


def test_hash_join_shuffle_parameter_guards(ray_session):
    """salt_buckets outside 1..127 (int8 _salt merge-key storage) and a
    non-'auto' string hot_keys (set('999') would silently become {'9'})
    both fail loudly before any exchange runs."""
    import pandas as pd
    import ray.data as rd

    from gojsonschema_ray.stages.joins import hash_join_shuffle

    left = rd.from_pandas(pd.DataFrame({"k": [1], "lv": [1]}))
    right = rd.from_pandas(pd.DataFrame({"k": [1], "rv": [2]}))
    with pytest.raises(ValueError, match="salt_buckets"):
        hash_join_shuffle(left, right, on="k", salt_buckets=128)
    with pytest.raises(ValueError, match="salt_buckets"):
        hash_join_shuffle(left, right, on="k", salt_buckets=0)
    with pytest.raises(ValueError, match="hot_keys"):
        hash_join_shuffle(left, right, on="k", hot_keys="999")


def test_running_offsets_reserved_names_raise(ray_session):
    """keep/order/weight columns named after the exchange's synthetic
    columns would silently corrupt partition routing — loud error."""
    import pandas as pd
    import ray.data as rd

    from gojsonschema_ray.stages.packing import running_offsets

    ds = rd.from_pandas(pd.DataFrame(
        {"doc_id": [1, 2], "n": [3, 4], "offset": [0, 0]}))
    with pytest.raises(ValueError, match="reserved"):
        running_offsets(ds, order_column="doc_id", weight_column="n",
                        keep_columns=["offset"])


def test_hash_join_shuffle_auto_hot_detection(ray_session, monkeypatch):
    """hot_keys='auto' samples the probe side and still joins exactly;
    the default (None) performs no sampling pass."""
    import pandas as pd
    import ray.data as rd

    from gojsonschema_ray.stages.joins import hash_join_shuffle
    from gojsonschema_ray.util import collect_rows

    n = 2000
    rng = np.random.default_rng(3)
    keys = rng.integers(0, 200, size=n).astype(np.int64)
    keys[rng.choice(n, size=n // 3, replace=False)] = 777
    left = pd.DataFrame({"k": keys, "v": np.arange(n)})
    right = pd.DataFrame({"k": np.arange(200).tolist() + [777],
                          "rv": np.arange(201)})
    monkeypatch.setattr("gojsonschema_ray.stages.exchange.shuffle_width",
                        lambda: 8)
    out = hash_join_shuffle(rd.from_pandas(left).repartition(4),
                            rd.from_pandas(right), on="k", how="inner",
                            hot_keys="auto")
    got = pd.DataFrame(collect_rows(out)).sort_values("v").reset_index(drop=True)
    exp = left.merge(right, on="k").sort_values("v").reset_index(drop=True)
    pd.testing.assert_frame_equal(got[exp.columns], exp, check_dtype=False)


def test_hash_join_shuffle_key_dtype_mismatch_raises(ray_session):
    import pandas as pd
    import ray.data as rd

    from gojsonschema_ray.stages.joins import hash_join_shuffle

    left = rd.from_pandas(pd.DataFrame({"k": [1.0, 2.0], "lv": [1, 2]}))
    right = rd.from_pandas(pd.DataFrame({"k": [1, 2], "rv": [3, 4]}))
    with pytest.raises(TypeError, match="differs in type"):
        hash_join_shuffle(left, right, on="k")


def test_decontaminate_cosine_injected(ray_session):
    """Eval-set decontamination at a realistic threshold (0.95): corpus
    copies of reference vectors (plus tiny noise) are removed, diffuse
    rows survive, and mode="removed" carries the audit cosine."""
    import pandas as pd
    import ray.data as rd

    from gojsonschema_ray.stages.similarity import decontaminate_cosine
    from gojsonschema_ray.util import collect_rows

    rng = np.random.default_rng(11)
    ref = rng.standard_normal((20, 16))
    clean = rng.standard_normal((100, 16))
    dirty = ref[[3, 7, 12]] + 0.01 * rng.standard_normal((3, 16))
    corpus = pd.DataFrame({
        "vec_id": range(103),
        "embedding": [list(v) for v in np.vstack([clean, dirty])],
    })
    ds = rd.from_pandas(corpus).repartition(4)
    kept = decontaminate_cosine(ds, ref, threshold=0.95, mode="keep")
    kept_ids = sorted(r["vec_id"] for r in collect_rows(kept))
    assert kept_ids == list(range(100))  # the 3 injected copies are gone
    removed = collect_rows(decontaminate_cosine(ds, ref, threshold=0.95,
                                                mode="removed"))
    assert sorted(r["vec_id"] for r in removed) == [100, 101, 102]
    assert all(r["top_cos"] >= 0.95 for r in removed)


def test_infer_roundtrip_zero_violations(ray_session):
    """infer → compile → validate over the profiled table yields zero
    violations by construction (stages/infer.py docstring contract)."""
    import ray.data as rd

    from gojsonschema_ray.schema import compile_schema
    from gojsonschema_ray.stages.infer import infer_ruleset
    from gojsonschema_ray.stages.validate import TableValidator

    cols = ["o_orderkey", "o_orderstatus", "o_totalprice", "o_orderpriority",
            "o_orderdate"]  # timestamp: opaque scalar, profiled nullability-only
    ds = rd.read_parquet("/root/testdata/sf0.001/orders.parquet", columns=cols)
    rs = infer_ruleset(ds, cols)
    assert rs["required"] == cols
    assert rs["properties"]["o_orderstatus"]["enum"]
    assert "type" not in rs["properties"]["o_orderdate"]
    tv = TableValidator(compile_schema(rs), key_column="o_orderkey",
                        mode="violations")
    assert ds.map_batches(tv, batch_format="pyarrow").count() == 0


def test_infer_profile_caps_and_nulls(ray_session):
    """Enum capping and nullability: a high-cardinality column loses its
    enum even when every BLOCK is under the cap (merge-side overflow), and
    a column with any null drops out of `required`."""
    import pandas as pd
    import ray.data as rd

    from gojsonschema_ray.stages.infer import infer_ruleset, profile_columns

    df = pd.DataFrame({
        "k": range(100),
        "cat": [f"c{i % 3}" for i in range(100)],
        "wide": [f"w{i}" for i in range(100)],  # 100 distinct > enum_max
        "maybe": [None if i == 7 else float(i) for i in range(100)],
    })
    ds = rd.from_pandas(df).repartition(8)  # every block under the cap
    prof = {p["column"]: p for p in profile_columns(ds, enum_max=16)}
    assert prof["cat"]["enum_vals"] == ["c0", "c1", "c2"]
    assert prof["wide"]["enum_vals"] is None
    assert prof["maybe"]["n_null"] == 1
    rs = infer_ruleset(ds, enum_max=16)
    assert "maybe" not in rs["required"]
    assert "enum" not in rs["properties"]["wide"]
    assert rs["properties"]["maybe"]["minimum"] == 0.0
    assert rs["properties"]["k"] == {"type": "integer", "minimum": 0,
                                     "maximum": 99}


def test_stratified_sample_deterministic(ray_session):
    import pandas as pd
    import ray.data as rd

    from gojsonschema_ray.stages.sampling import (
        hash_bucket_u32,
        stratified_sample,
    )
    from gojsonschema_ray.util import collect_rows

    df = pd.DataFrame({"g": np.repeat(["a", "b", "c"], 50),
                       "id": np.arange(150, dtype=np.int64)})
    ds = rd.from_pandas(df).repartition(5)
    rows = collect_rows(stratified_sample(ds, "g", "id", 4))
    got = {(r["g"], r["id"]) for r in rows}
    # closed-form expectation: 4 smallest hashes per group
    h = hash_bucket_u32(df["id"].to_numpy())
    exp = set()
    for g in "abc":
        sub = df[df["g"] == g].assign(h=h[df["g"] == g])
        exp |= {(g, i) for i in
                sub.sort_values(["h", "id"]).head(4)["id"]}
    assert got == exp
    # determinism across a different partitioning
    rows2 = collect_rows(stratified_sample(ds.repartition(2), "g", "id", 4))
    assert {(r["g"], r["id"]) for r in rows2} == exp


def test_group_centroids(ray_session):
    import pandas as pd
    import ray.data as rd

    from gojsonschema_ray.stages.similarity import group_centroids

    rng = np.random.default_rng(3)
    emb = rng.normal(size=(60, 4)).astype(np.float32)
    labels = rng.integers(0, 3, 60)
    df = pd.DataFrame({"label": labels, "embedding": list(emb)})
    out = group_centroids(rd.from_pandas(df).repartition(4),
                          "label", "embedding")
    for lab in range(3):
        exp = emb[labels == lab].astype(np.float64).mean(axis=0)
        got = out[out["key"] == lab].sort_values("pos")["centroid"].to_numpy()
        np.testing.assert_allclose(got, exp, rtol=1e-12)


def test_group_centroids_nulls_and_ragged(ray_session):
    import pandas as pd
    import ray.data as rd

    from gojsonschema_ray.stages.similarity import group_centroids

    df = pd.DataFrame({
        "label": [1, 1, 1, 2],
        "embedding": [[1.0, 3.0], None, [5.0, 7.0], [2.0, 4.0, 6.0]],
    })
    out = group_centroids(rd.from_pandas(df), "label", "embedding")
    g1 = out[out["key"] == 1].sort_values("pos")["centroid"].tolist()
    assert g1 == [3.0, 5.0]
    g2 = out[out["key"] == 2].sort_values("pos")["centroid"].tolist()
    assert g2 == [2.0, 4.0, 6.0]


def test_tfidf_top_terms_golden(ray_session):
    import math

    import pandas as pd
    import ray.data as rd

    from gojsonschema_ray.functions.text import tfidf_top_terms
    from gojsonschema_ray.util import collect_rows

    docs = pd.DataFrame({
        "doc_id": [1, 2, 3],
        "text": ["apple apple banana", "banana cherry", "apple cherry date"],
    })
    rows = collect_rows(tfidf_top_terms(
        rd.from_pandas(docs).repartition(3), "text", "doc_id", k=2))
    got = {(r["doc_id"], r["token"]): (r["tf"], r["df"], r["score"])
           for r in rows}

    def score(tf, df):
        return tf * (math.log(4 / (1 + df)) + 1)

    # exact per-doc top-2 with (score desc, token asc):
    # doc3 scores: apple 1.288, cherry 1.288, date 1.693 -> date, apple
    exp = {
        (1, "apple"): (2, 2, score(2, 2)),
        (1, "banana"): (1, 2, score(1, 2)),
        (2, "banana"): (1, 2, score(1, 2)),
        (2, "cherry"): (1, 2, score(1, 2)),
        (3, "date"): (1, 1, score(1, 1)),
        (3, "apple"): (1, 2, score(1, 2)),
    }
    assert set(got) == set(exp)
    for key, (tf, df_, s) in exp.items():
        gtf, gdf, gs = got[key]
        assert (gtf, gdf) == (tf, df_)
        assert abs(gs - s) < 1e-12


def test_grouped_nunique(ray_session):
    import pandas as pd
    import ray.data as rd

    from gojsonschema_ray.stages.uniqueness import grouped_nunique
    from gojsonschema_ray.util import collect_rows

    rng = np.random.default_rng(5)
    df = pd.DataFrame({"k": rng.integers(0, 10, 400),
                       "v": rng.integers(0, 7, 400).astype("float64")})
    df.loc[::17, "v"] = np.nan  # nulls ignored
    rows = collect_rows(grouped_nunique(
        rd.from_pandas(df).repartition(6), "k", "v"))
    got = {r["k"]: r["n_distinct"] for r in rows}
    exp = df.dropna(subset=["v"]).groupby("k")["v"].nunique().to_dict()
    assert got == exp


def test_lag_by_key(ray_session):
    import pandas as pd
    import ray.data as rd

    from gojsonschema_ray.stages.window import lag_by_key
    from gojsonschema_ray.util import collect_rows

    df = pd.DataFrame({
        "u": [1, 1, 1, 2, 2],
        "ts": pd.to_datetime([10, 25, 40, 7, 7], unit="s"),
        "eid": [0, 1, 2, 3, 4],
        "v": [1.0, 4.0, 9.0, 2.0, 5.0],
    })
    rows = collect_rows(lag_by_key(
        rd.from_pandas(df).repartition(3), "u", "ts", "v",
        order_columns=("eid",)))
    got = {r["eid"]: (r["prev"], r["delta"]) for r in rows}
    assert got[0][0] is None or got[0][0] != got[0][0]  # NaN/None first row
    assert got[1] == (1.0, 3.0) and got[2] == (4.0, 5.0)
    # equal timestamps: eid breaks the tie deterministically
    assert got[4] == (2.0, 3.0)
    assert got[3][1] is None or got[3][1] != got[3][1]


def test_pivot_wide(ray_session):
    """Wide counts/sums equal pandas pivot_table; fixed pivot_values pin
    the schema (absent category -> all-fill column, unlisted -> dropped);
    reserved/colliding names raise."""
    import pandas as pd
    import pytest
    import ray.data as rd

    from gojsonschema_ray.stages.reshape import pivot_wide
    from gojsonschema_ray.util import collect_rows

    rng = np.random.default_rng(7)
    df = pd.DataFrame({"k": rng.integers(0, 50, 4000),
                       "c": rng.choice(list("abc"), 4000),
                       "v": rng.uniform(-1, 1, 4000).round(3)})
    df.loc[:10, "c"] = None

    exp = df.dropna(subset=["c"]).pivot_table(
        index="k", columns="c", values="v", aggfunc="count") \
        .fillna(0).astype(float)

    got = pd.DataFrame(collect_rows(pivot_wide(
        rd.from_pandas(df).repartition(6), "k", "c"))) \
        .set_index("k").sort_index()
    assert list(got.columns) == ["a", "b", "c"]
    pd.testing.assert_frame_equal(got, exp, check_names=False)

    exp_sum = df.dropna(subset=["c"]).pivot_table(
        index="k", columns="c", values="v", aggfunc="sum").fillna(0)
    got_sum = pd.DataFrame(collect_rows(pivot_wide(
        rd.from_pandas(df).repartition(6), "k", "c",
        value_column="v", agg="sum"))) \
        .set_index("k").sort_index()
    pd.testing.assert_frame_equal(got_sum, exp_sum, check_names=False,
                                  check_exact=False, rtol=1e-12)

    # pinned schema: 'z' never occurs (all-fill), 'c' unlisted (dropped)
    got_pin = pd.DataFrame(collect_rows(pivot_wide(
        rd.from_pandas(df).repartition(6), "k", "c",
        pivot_values=["a", "b", "z"])))
    assert list(got_pin.columns) == ["k", "a", "b", "z"]
    assert (got_pin["z"] == 0).all()
    m = got_pin.set_index("k").sort_index()
    pd.testing.assert_frame_equal(m[["a", "b"]], exp[["a", "b"]],
                                  check_names=False)

    with pytest.raises(ValueError, match="reserved"):
        pivot_wide(rd.from_pandas(df.rename(columns={"k": "part"})),
                   "part", "c")
    with pytest.raises(ValueError, match="collides with the key"):
        pivot_wide(rd.from_pandas(df.assign(c="k")), "k", "c")
    with pytest.raises(ValueError, match="needs value_column"):
        pivot_wide(rd.from_pandas(df), "k", "c", agg="sum")


def test_pivot_wide_discovery_cap(ray_session):
    """Category discovery refuses high-cardinality pivot columns."""
    import pandas as pd
    import pytest
    import ray.data as rd

    from gojsonschema_ray.stages.reshape import pivot_wide

    df = pd.DataFrame({"k": range(300), "c": [f"c{i}" for i in range(300)]})
    with pytest.raises(Exception, match="distinct"):
        pivot_wide(rd.from_pandas(df).repartition(2), "k", "c",
                   max_categories=16).materialize()


def test_melt(ray_session):
    """Melt equals pandas melt row-set; name collisions raise."""
    import pandas as pd
    import pytest
    import ray.data as rd

    from gojsonschema_ray.stages.reshape import melt
    from gojsonschema_ray.util import collect_rows

    df = pd.DataFrame({"id": [1, 2, 3], "x": [1.0, 2.0, 3.0],
                       "y": [9.0, 8.0, 7.0]})
    exp = df.melt(id_vars=["id"], value_vars=["x", "y"])
    got = pd.DataFrame(collect_rows(melt(
        rd.from_pandas(df).repartition(2), ["id"], ["x", "y"])))
    key = ["id", "variable", "value"]
    pd.testing.assert_frame_equal(
        got[key].sort_values(key).reset_index(drop=True),
        exp[key].sort_values(key).reset_index(drop=True))

    with pytest.raises(ValueError, match="collide"):
        melt(rd.from_pandas(df), ["id"], ["x"], var_name="id")


def test_gap_fill(ray_session):
    """Every bucket between each key's first and last event is present,
    zero-filled; counts match a pandas reindex; span cap raises."""
    import pandas as pd
    import pytest
    import ray.data as rd

    from gojsonschema_ray.stages.window import gap_fill
    from gojsonschema_ray.util import collect_rows

    rng = np.random.default_rng(5)
    ts = pd.to_datetime(rng.integers(0, 40 * 86400, 3000), unit="s")
    df = pd.DataFrame({"u": rng.integers(0, 30, 3000), "ts": ts})

    day = (df["ts"].astype("int64") // (86400 * 10**9)).astype("int64")
    c = df.assign(day=day).groupby(["u", "day"]).size()
    exp = {}
    for u, grp in c.groupby(level=0):
        days = grp.index.get_level_values(1)
        for d in range(int(days.min()), int(days.max()) + 1):
            exp[(u, d)] = int(grp.get((u, d), 0))

    rows = collect_rows(gap_fill(
        rd.from_pandas(df).repartition(5), "u", "ts", 86400.0))
    got = {(r["u"], r["bucket"]): r["n"] for r in rows}
    assert got == exp

    with pytest.raises(Exception, match="max_buckets_per_key"):
        gap_fill(rd.from_pandas(df), "u", "ts", 0.001,
                 max_buckets_per_key=100).materialize()
    with pytest.raises(ValueError, match="reserved"):
        gap_fill(rd.from_pandas(df.rename(columns={"u": "bucket"})),
                 "bucket", "ts")


def test_deletion_key_hashes_batch():
    """Deletion hash at position j equals the FULL hash of the string with
    j removed (the algebra the ed<=1 blocking soundness rests on), for
    random unicode strings batched together."""
    import random

    from gojsonschema_ray.stages.dedup import deletion_key_hashes_batch

    rng = random.Random(7)
    texts = ["".join(rng.choice("abé x01") for _ in range(rng.randint(0, 9)))
             for _ in range(40)] + [None, ""]
    h, seg = deletion_key_hashes_batch(texts)
    assert len(h) == seg[-1]
    for i, t in enumerate(texts):
        t = t or ""
        keys = h[seg[i]:seg[i + 1]]
        assert len(keys) == len(t) + 1
        for j in range(len(t)):
            sub = t[:j] + t[j + 1:]
            hh, ss = deletion_key_hashes_batch([sub])
            assert keys[1 + j] == hh[ss[0]], (t, j)


def test_edit_distance_le1_exhaustive():
    """edit_distance_le1 agrees with full DP Levenshtein on every pair of
    strings up to length 3 over a 3-letter alphabet (capped at 1/None)."""
    import itertools

    from gojsonschema_ray.stages.dedup import edit_distance_le1

    def lev(a, b):
        dp = list(range(len(b) + 1))
        for i, ca in enumerate(a, 1):
            prev, dp[0] = dp[0], i
            for j, cb in enumerate(b, 1):
                cur = dp[j]
                dp[j] = min(dp[j] + 1, dp[j - 1] + 1, prev + (ca != cb))
                prev = cur
        return dp[-1]

    strs = ["".join(p) for n in range(4)
            for p in itertools.product("ab1", repeat=n)]
    for a in strs:
        for b in strs:
            d = lev(a, b)
            assert edit_distance_le1(a, b) == (d if d <= 1 else None)


def test_fuzzy_pairs_ed1(ray_session):
    """Distributed ed<=1 pairs equal the brute-force pair set (blocking is
    lossless); exact duplicates come back with dist=0."""
    import itertools

    import pandas as pd
    import ray.data as rd

    from gojsonschema_ray.stages.dedup import (edit_distance_le1,
                                               fuzzy_pairs_ed1)
    from gojsonschema_ray.util import collect_rows

    names = ["node-001", "node-002", "node-01", "node-101", "nodé-001",
             "alpha", "alphas", "alpha", "beta", "", "b", "zzz"]
    df = pd.DataFrame({"id": range(len(names)), "name": names})
    exp = set()
    for (ia, a), (ib, b) in itertools.combinations(enumerate(names), 2):
        d = edit_distance_le1(a, b)
        if d is not None:
            exp.add((ia, ib, d))
    rows = collect_rows(fuzzy_pairs_ed1(
        rd.from_pandas(df).repartition(3), "name", "id"))
    got = {(r["id_a"], r["id_b"], r["dist"]) for r in rows}
    assert got == exp
    assert (0, 1, 1) in got and any(d == 0 for _, _, d in got)


def test_ntile_global(ray_session):
    """Exact NTILE fill rule vs pandas, including ties (broken by id) and
    k > n; n_tiles < 1 raises."""
    import pandas as pd
    import pytest
    import ray.data as rd

    from gojsonschema_ray.stages.sketches import ntile_global
    from gojsonschema_ray.util import collect_rows

    rng = np.random.default_rng(11)
    v = rng.integers(0, 40, 500).astype(float)  # heavy ties
    df = pd.DataFrame({"id": np.arange(500), "v": v})

    def ref_ntile(df, k):
        order = df.sort_values(["v", "id"], kind="stable")
        n = len(order)
        q, r = divmod(n, k)
        sizes = [q + 1] * r + [q] * (k - r)
        tiles = np.repeat(np.arange(1, k + 1), sizes[:k])[:n]
        return dict(zip(order["id"].to_numpy(), tiles))

    for k in (1, 3, 8, 700):
        rows = collect_rows(ntile_global(
            rd.from_pandas(df).repartition(4), "v", "id", k))
        got = {r["id"]: r["tile"] for r in rows}
        assert got == ref_ntile(df, k), k
    with pytest.raises(ValueError, match="n_tiles"):
        ntile_global(rd.from_pandas(df), "v", "id", 0)


def test_chi_square_independence(ray_session):
    """chi2/mi/dof match a closed-form contingency reference; an
    independent 1-column grid yields chi2 == 0."""
    import pandas as pd
    import ray.data as rd

    from gojsonschema_ray.stages.sketches import chi_square_independence

    rng = np.random.default_rng(3)
    a = rng.choice(["x", "y", "z"], 2000)
    b = np.where(a == "x", rng.choice(["p", "q"], 2000, p=[0.8, 0.2]),
                 rng.choice(["p", "q"], 2000))
    df = pd.DataFrame({"a": a, "b": b})
    got = chi_square_independence(rd.from_pandas(df).repartition(4),
                                  "a", "b")
    obs = pd.crosstab(df["a"], df["b"]).to_numpy(dtype=float)
    n = obs.sum()
    exp = obs.sum(1, keepdims=True) * obs.sum(0, keepdims=True) / n
    chi2 = ((obs - exp) ** 2 / exp).sum()
    mi = (obs / n * np.log(obs * n / (obs.sum(1, keepdims=True)
                                      * obs.sum(0, keepdims=True)))).sum()
    assert got["chi2"][0] == pytest.approx(chi2, rel=1e-10)
    assert got["mi"][0] == pytest.approx(mi, rel=1e-10)
    assert got["dof"][0] == 2 and got["n"][0] == 2000

    one = chi_square_independence(
        rd.from_pandas(pd.DataFrame({"a": a, "b": ["k"] * 2000})), "a", "b")
    assert one["chi2"][0] == 0.0 and one["dof"][0] == 0


def test_distribution_by_group(ray_session):
    """Entropy/HHI/top-share per group match closed-form; a single-value
    group has entropy 0 and HHI 1."""
    import pandas as pd
    import ray.data as rd

    from gojsonschema_ray.stages.sketches import distribution_by_group
    from gojsonschema_ray.util import collect_rows

    df = pd.DataFrame({
        "k": ["a"] * 6 + ["b"] * 4,
        "v": ["x", "x", "x", "y", "y", "z", "w", "w", "w", "w"]})
    rows = {r["k"]: r for r in collect_rows(distribution_by_group(
        rd.from_pandas(df).repartition(3), "k", "v"))}
    pa_ = np.array([3, 2, 1]) / 6
    assert rows["a"]["entropy"] == pytest.approx(-(pa_ * np.log(pa_)).sum())
    assert rows["a"]["hhi"] == pytest.approx((pa_ ** 2).sum())
    assert rows["a"]["top_share"] == pytest.approx(0.5)
    assert rows["a"]["n_values"] == 3 and rows["a"]["n"] == 6
    assert rows["b"]["entropy"] == 0.0 and rows["b"]["hhi"] == 1.0
    assert rows["b"]["top_share"] == 1.0 and rows["b"]["n_values"] == 1


def test_jaccard_token_join(ray_session):
    """Prefix-filtered exact Jaccard join equals the brute-force pair set
    at several thresholds (candidates are complete by the prefix theorem);
    threshold validation raises."""
    import itertools

    import pandas as pd
    import pytest
    import ray.data as rd

    from gojsonschema_ray.stages.dedup import jaccard_token_join
    from gojsonschema_ray.util import collect_rows

    rng = np.random.default_rng(13)
    vocab = [f"w{i}" for i in range(30)]
    texts = [" ".join(rng.choice(vocab, rng.integers(1, 12)))
             for _ in range(80)] + ["", None, "w0 w1 w2", "w0  w1 w2"]
    df = pd.DataFrame({"id": range(len(texts)), "text": texts})

    def tokset(t):
        return frozenset((t or "").lower().split())

    for thr in (0.5, 0.8, 1.0):
        exp = set()
        for (ia, a), (ib, b) in itertools.combinations(
                enumerate(texts), 2):
            sa, sb = tokset(a), tokset(b)
            if not sa or not sb:
                continue
            j = len(sa & sb) / len(sa | sb)
            if j >= thr:
                exp.add((ia, ib, round(j, 9)))
        rows = collect_rows(jaccard_token_join(
            rd.from_pandas(df).repartition(4), "text", "id",
            threshold=thr))
        got = {(r["id_a"], r["id_b"], round(r["jaccard"], 9))
               for r in rows}
        assert got == exp, thr
    with pytest.raises(ValueError, match="threshold"):
        jaccard_token_join(rd.from_pandas(df), "text", "id", threshold=0)


def test_interval_coverage(ray_session):
    """Union lengths match a brute-force sweep; overlapping, nested,
    touching and point intervals; invalid rows dropped; reserved name."""
    import pandas as pd
    import pytest
    import ray.data as rd

    from gojsonschema_ray.stages.window import interval_coverage
    from gojsonschema_ray.util import collect_rows

    rng = np.random.default_rng(17)
    k = rng.integers(0, 12, 400)
    s = rng.uniform(0, 100, 400).round(3)
    e = s + rng.uniform(0, 10, 400).round(3)
    df = pd.DataFrame({"k": k, "s": s, "e": e})
    # brute force: per key merge sorted intervals
    exp = {}
    for key, g in df.groupby("k"):
        iv = sorted(zip(g["s"], g["e"]))
        cov, isl, cur_s, cur_e = 0.0, 0, None, None
        for a, b in iv:
            if cur_e is None or a > cur_e:
                if cur_e is not None:
                    cov += cur_e - cur_s
                cur_s, cur_e, isl = a, b, isl + 1
            else:
                cur_e = max(cur_e, b)
        if cur_e is not None:
            cov += cur_e - cur_s
        exp[key] = (round(cov, 6), isl, len(g))
    rows = collect_rows(interval_coverage(
        rd.from_pandas(df).repartition(5), "k", "s", "e"))
    got = {r["k"]: (round(r["covered"], 6), r["n_islands"],
                    r["n_intervals"]) for r in rows}
    assert got == exp

    bad = pd.DataFrame({"k": [1, 1, None], "s": [5.0, None, 1.0],
                        "e": [4.0, 6.0, 2.0]})  # end<start, null s, null k
    assert collect_rows(interval_coverage(
        rd.from_pandas(bad), "k", "s", "e")) == []
    with pytest.raises(ValueError, match="reserved"):
        interval_coverage(rd.from_pandas(df.rename(columns={"k": "part"})),
                          "part", "s", "e")


def test_rollup_counts(ray_session):
    """Rollup levels equal pandas groupby counts at every prefix + the
    grand total; numeric rolled columns are NaN; reserved names raise."""
    import pandas as pd
    import pytest
    import ray.data as rd

    from gojsonschema_ray.stages.sketches import rollup_counts

    rng = np.random.default_rng(23)
    df = pd.DataFrame({"a": rng.choice(["x", "y", "z"], 500),
                       "b": rng.integers(0, 4, 500)})
    out = rollup_counts(rd.from_pandas(df).repartition(4), ["a", "b"])
    lvl2 = out[out["level"] == 2]
    exp2 = df.groupby(["a", "b"]).size()
    assert len(lvl2) == len(exp2)
    for _, r in lvl2.iterrows():
        assert r["n"] == exp2[(r["a"], int(r["b"]))]
    lvl1 = out[out["level"] == 1]
    exp1 = df.groupby("a").size()
    assert {(r["a"], r["n"]) for _, r in lvl1.iterrows()} \
        == {(k, v) for k, v in exp1.items()}
    assert lvl1["b"].isna().all()
    g = out[out["level"] == 0]
    assert len(g) == 1 and g["n"].iloc[0] == 500
    with pytest.raises(ValueError, match="reserved"):
        rollup_counts(rd.from_pandas(df.rename(columns={"b": "n"})),
                      ["a", "n"])
    with pytest.raises(ValueError, match="at least one"):
        rollup_counts(rd.from_pandas(df), [])


def test_cube_counts(ray_session):
    """The full 2^k grouping lattice matches a duckdb GROUP BY CUBE
    (grouping_id = SQL GROUPING_ID, MSB = first column); data nulls stay
    distinct from rolled nulls; reserved names / k>6 raise."""
    import duckdb
    import pandas as pd
    import pytest
    import ray.data as rd

    from gojsonschema_ray.stages.sketches import cube_counts

    rng = np.random.default_rng(31)
    df = pd.DataFrame({
        "a": rng.choice(["x", "y", "z"], 600),
        "b": rng.integers(0, 4, 600).astype("float64"),
        "c": rng.choice(["p", "q"], 600),
    })
    df.loc[rng.choice(600, 40, replace=False), "b"] = np.nan  # data nulls
    out = cube_counts(rd.from_pandas(df).repartition(4), ["a", "b", "c"])
    exp = duckdb.sql(
        "SELECT a, b, c, CAST(grouping(a)*4 + grouping(b)*2 + grouping(c) "
        "AS BIGINT) AS grouping_id, CAST(count(*) AS BIGINT) AS n "
        "FROM df GROUP BY CUBE(a, b, c)").df()
    assert len(out) == len(exp)
    key = ["grouping_id", "a", "b", "c"]
    got = out.sort_values(key, na_position="last").reset_index(drop=True)
    want = exp.sort_values(key, na_position="last").reset_index(drop=True)
    pd.testing.assert_frame_equal(
        got[[*key, "n"]], want[[*key, "n"]], check_dtype=False)
    with pytest.raises(ValueError, match="reserved"):
        cube_counts(rd.from_pandas(df.rename(columns={"b": "n"})),
                    ["a", "n"])
    with pytest.raises(ValueError, match="at most 6"):
        cube_counts(rd.from_pandas(df), list("abcdefg"))
    # empty input still yields the () grouping set with n=0
    empty = cube_counts(rd.from_pandas(df.head(0)), ["a", "b"])
    assert len(empty) == 1 and empty["n"].iloc[0] == 0 \
        and empty["grouping_id"].iloc[0] == 3


def test_grouped_sample_k(ray_session):
    """Per-group exactly min(k, n_g) rows, the k lowest (hash, key); the
    selection equals a pandas reference on the same hash; deterministic
    across repartitionings."""
    import pandas as pd
    import ray.data as rd

    from gojsonschema_ray.stages.sampling import (grouped_sample_k,
                                                  hash_bucket_u32)
    from gojsonschema_ray.util import collect_rows

    rng = np.random.default_rng(29)
    df = pd.DataFrame({"g": rng.choice(["a", "b", "c"], 300),
                       "id": np.arange(300)})
    h = hash_bucket_u32(df["id"].to_numpy(), 0).astype(np.int64)
    ref = df.assign(sample_h=h).sort_values(["sample_h", "id"]) \
        .groupby("g").head(7)
    exp = set(map(tuple, ref[["g", "id"]].itertuples(index=False)))
    for parts in (2, 9):
        rows = collect_rows(grouped_sample_k(
            rd.from_pandas(df).repartition(parts), "g", "id", 7))
        got = {(r["g"], r["id"]) for r in rows}
        assert got == exp, parts
    # k larger than every group: everything comes back
    rows = collect_rows(grouped_sample_k(
        rd.from_pandas(df), "g", "id", 1000))
    assert len(rows) == 300


def test_benford_profile(ray_session):
    """Digit counts equal a string-based reference; non-positive values
    excluded; freq sums to 1."""
    import pandas as pd
    import ray.data as rd

    from gojsonschema_ray.stages.sketches import benford_profile

    rng = np.random.default_rng(31)
    v = np.concatenate([
        np.floor(np.exp(rng.uniform(0, 14, 2000))).astype(np.int64),
        np.array([0, -5, -123, 1, 9, 10, 99, 100])])
    df = benford_profile(
        rd.from_pandas(pd.DataFrame({"v": v})).repartition(4), "v")
    pos = v[v > 0]
    exp = np.zeros(9, dtype=np.int64)
    for x in pos:
        exp[int(str(x)[0]) - 1] += 1
    assert (df["n"].to_numpy() == exp).all()
    assert df["freq"].sum() == pytest.approx(1.0)
    assert df["expected"].iloc[0] == pytest.approx(np.log10(2))


def test_histogram_fixed(ray_session):
    """Counts per bin equal np.histogram with the same edges; max value
    lands in the last bin; all-equal input collapses to one bin; n_bins
    validation."""
    import pandas as pd
    import pytest
    import ray.data as rd

    from gojsonschema_ray.stages.sketches import histogram_fixed

    rng = np.random.default_rng(37)
    v = rng.uniform(-5, 17, 3000)
    df = histogram_fixed(
        rd.from_pandas(pd.DataFrame({"v": v})).repartition(5), "v", 12)
    exp, _ = np.histogram(v, bins=12, range=(v.min(), v.max()))
    assert (df["n"].to_numpy() == exp).all()
    assert df["n"].sum() == 3000
    assert df["hi"].iloc[-1] == pytest.approx(v.max())

    one = histogram_fixed(
        rd.from_pandas(pd.DataFrame({"v": [3.0] * 50})), "v", 8)
    assert len(one) == 1 and one["n"].iloc[0] == 50
    with pytest.raises(ValueError, match="n_bins"):
        histogram_fixed(rd.from_pandas(pd.DataFrame({"v": [1.0]})), "v", 0)


def test_slugify(ray_session):
    """Accent folding, case folding, separator collapse and edge trims
    match the documented SQL contract; nulls stay null."""
    import pandas as pd
    import ray.data as rd

    from gojsonschema_ray.functions.text import slugify
    from gojsonschema_ray.util import collect_rows

    texts = ["Héllo, Wörld!! 42", "  --Crème BRÛLÉE--  ", "déjà-vu",
             "", "***", None, "already-fine-123"]
    want = ["hello-world-42", "creme-brulee", "deja-vu",
            "", "", None, "already-fine-123"]
    rows = collect_rows(slugify(
        rd.from_pandas(pd.DataFrame({"t": texts})), "t"))
    got = [r["slug"] for r in rows]
    assert got == want
    assert [r["t"] for r in rows] == texts  # keep_input carries the source


def test_exact_global_quantiles(ray_session):
    """Distributed selection equals DuckDB's quantile_cont bit-for-bit,
    including q=0/1, heavy point masses with a tiny collect cap (forcing
    refinement rounds), NaN/null exclusion, and validation. (np.quantile
    interpolates as hi - (1-d)*(hi-lo) for d >= 0.5 and quantile_cont as
    lo*(1-d) + hi*d, so the two can differ in the last bit.)"""
    import duckdb
    import pandas as pd
    import pytest
    import ray.data as rd

    from gojsonschema_ray.stages.sketches import exact_global_quantiles

    rng = np.random.default_rng(41)
    v = np.concatenate([rng.normal(0, 100, 20000),
                        np.full(30000, 7.25),      # point mass
                        np.full(10000, -3.5)])
    withnull = pd.Series(v).sample(frac=1, random_state=0)
    df = pd.DataFrame({"v": withnull})
    df.loc[df.index[:500], "v"] = np.nan
    clean = df["v"].dropna().to_numpy()
    qs = [0.0, 0.1, 0.5, 0.6, 0.99, 1.0]
    got = exact_global_quantiles(
        rd.from_pandas(df).repartition(6), "v", qs, collect_cap=400)
    t = pa.table({"v": clean})
    exp = [duckdb.sql(f"SELECT quantile_cont(v, {q}) FROM t").fetchone()[0]
           for q in qs]
    assert np.array_equal(got["value"].to_numpy(), np.asarray(exp))

    empty = exact_global_quantiles(
        rd.from_pandas(pd.DataFrame({"v": [np.nan]})), "v", [0.5])
    assert np.isnan(empty["value"].iloc[0])
    with pytest.raises(ValueError, match="qs"):
        exact_global_quantiles(rd.from_pandas(df), "v", [1.5])


def test_exact_global_quantiles_infinities(ray_session):
    """-inf/+inf are the lowest/highest order statistics, as in DuckDB's
    quantile_cont; NaN and NULL are excluded (the SQL side filters NaN).
    A tiny collect cap forces refinement rounds over the finite values."""
    import duckdb
    import ray.data as rd

    from gojsonschema_ray.stages.sketches import exact_global_quantiles

    inf, nan = float("inf"), float("nan")
    rng = np.random.default_rng(7)
    mixed = rng.normal(0, 50, 3000).round(1).tolist() + [-inf] * 30 + \
        [inf] * 50 + [nan] * 20 + [None] * 10
    rng.shuffle(mixed)
    qs = [0.0, 0.005, 0.0101, 0.25, 0.5, 0.75, 0.98, 0.99, 0.995, 1.0]
    cases = [
        (mixed, 6, 64),
        ([-inf, inf, nan, None], 2, 262_144),
        ([-inf, -inf, 5.0, nan], 2, 262_144),
        ([1.0, 2.0, inf, None, inf], 3, 262_144),
        ([inf, inf], 1, 262_144),
        ([5.0] * 50 + [6.0] * 50, 2, 4),                 # point-mass min
        (np.arange(50.0).tolist() + [60.0] * 50, 2, 4),  # point-mass max
    ]
    for vals, blocks, cap in cases:
        t = pa.table({"v": pa.array(vals, pa.float64())})
        got = exact_global_quantiles(rd.from_arrow(t).repartition(blocks),
                                     "v", qs, collect_cap=cap)
        exp = [duckdb.sql(f"SELECT quantile_cont(v, {q}) FILTER "
                          "(WHERE NOT isnan(v)) FROM t").fetchone()[0]
               for q in qs]
        np.testing.assert_allclose(got["value"].to_numpy(),
                                   np.asarray(exp, np.float64), rtol=1e-12)


def test_time_weighted_mean(ray_session):
    """Zero-order-hold mean equals a per-key reference; single-event and
    zero-span keys are excluded; reserved name raises."""
    import pandas as pd
    import pytest
    import ray.data as rd

    from gojsonschema_ray.stages.window import time_weighted_mean
    from gojsonschema_ray.util import collect_rows

    rng = np.random.default_rng(43)
    n = 600
    df = pd.DataFrame({
        "k": rng.integers(0, 20, n),
        "t": rng.uniform(0, 1000, n).round(3),
        "v": rng.normal(size=n).round(3)})
    # lone-event key and zero-span key
    df = pd.concat([df, pd.DataFrame({"k": [97, 98, 98],
                                      "t": [5.0, 7.0, 7.0],
                                      "v": [1.0, 2.0, 3.0]})],
                   ignore_index=True)
    exp = {}
    for key, g in df.groupby("k"):
        g = g.sort_values("t")
        span = g["t"].iloc[-1] - g["t"].iloc[0]
        if span <= 0:
            continue
        w = np.diff(g["t"].to_numpy())
        exp[key] = (round(float((g["v"].to_numpy()[:-1] * w).sum() / span),
                          9), round(span, 9), len(g))
    rows = collect_rows(time_weighted_mean(
        rd.from_pandas(df).repartition(4), "k", "t", "v"))
    got = {r["k"]: (round(r["twm"], 9), round(r["span_s"], 9),
                    r["n_events"]) for r in rows}
    assert got == exp
    assert 97 not in got and 98 not in got
    with pytest.raises(ValueError, match="reserved"):
        time_weighted_mean(rd.from_pandas(
            df.rename(columns={"k": "part"})), "part", "t", "v")


def test_list_stats(ray_session):
    """Segmented reductions equal per-row numpy on ragged lists; empty
    lists give n=0 with NaN stats; null rows are dropped."""
    import pandas as pd
    import ray.data as rd

    from gojsonschema_ray.functions.arrays import list_stats
    from gojsonschema_ray.util import collect_rows

    lists = [[1.0, 2.0, 3.0], [], [-5.5], [0.0, 0.0], None,
             [2.0, -2.0, 8.25, 1.5]]
    tbl = pa.table({"id": pa.array(range(len(lists)), pa.int64()),
                    "v": pa.array(lists, pa.list_(pa.float64()))})
    rows = {r["id"]: r for r in collect_rows(list_stats(
        rd.from_arrow(tbl).repartition(2), "v", "id"))}
    assert 4 not in rows  # null row dropped
    for i, lst in enumerate(lists):
        if lst is None:
            continue
        r = rows[i]
        assert r["n"] == len(lst)
        if lst:
            a = np.asarray(lst)
            assert r["mean"] == pytest.approx(a.mean())
            assert r["min"] == a.min() and r["max"] == a.max()
            assert r["l2"] == pytest.approx(np.sqrt((a * a).sum()))
        else:
            assert np.isnan(r["mean"]) and np.isnan(r["l2"])


def test_minhash_index_build_probe(ray_session, tmp_path):
    """Persisted LSH index: probing an arriving batch finds exactly the
    brute-force cross-set near-dup pairs (high-jaccard regime), touches
    FEWER signature partitions than exist (I/O pruning), and a second
    probe reuses the same build."""
    import pandas as pd
    import ray.data as rd

    from gojsonschema_ray.stages.dedup import MinHashIndex, ngram_jaccard
    from gojsonschema_ray.util import collect_rows

    rng = np.random.default_rng(47)
    vocab = [f"tok{i}" for i in range(60)]
    base = [" ".join(rng.choice(vocab, 40)) for _ in range(30)]
    corpus_texts = list(base)
    # arriving batch: 4 near-copies of corpus docs + 4 fresh docs
    new_texts = [base[i] + " extra" for i in range(4)] + \
        [" ".join(rng.choice(vocab, 40)) for _ in range(4)]
    corpus = pd.DataFrame({"id": range(100, 100 + len(corpus_texts)),
                           "text": corpus_texts})
    new = pd.DataFrame({"id": range(500, 500 + len(new_texts)),
                        "text": new_texts})
    idx = MinHashIndex("text", "id", threshold=0.6, mods=16)
    ix_dir = str(tmp_path / "mh")
    idx.build(rd.from_pandas(corpus).repartition(3), ix_dir)

    exp = set()
    for _, rn in new.iterrows():
        for _, rc in corpus.iterrows():
            j = ngram_jaccard(rc["text"], rn["text"], 5)
            if j >= 0.6:
                exp.add((rc["id"], rn["id"], round(j, 9)))
    rows = collect_rows(idx.probe(
        rd.from_pandas(new).repartition(2), ix_dir))
    got = {(r["id_a"], r["id_b"], round(r["jaccard"], 9)) for r in rows}
    assert got == exp and len(exp) >= 4
    assert idx.last_probe_sig_dirs is not None
    total = 16 * 16  # bands x mods upper bound on sig dirs
    assert idx.last_probe_sig_dirs < total

    # probe again with ONE doc: same index, much stronger pruning
    one = rd.from_pandas(new.iloc[:1])
    rows1 = collect_rows(idx.probe(one, ix_dir))
    assert {(r["id_a"], r["id_b"]) for r in rows1} \
        == {(a, b) for a, b, _ in exp if b == 500}
    assert idx.last_probe_sig_dirs <= 16  # 16 bands x 1 doc

    with pytest.raises(ValueError, match="reserved"):
        MinHashIndex("text", "key")


def _near_dup_string_id_case(case, tmp_path):
    """(result Dataset, brute-force expected rows) of one near-dup operator
    over string ids on a pandas-backed Dataset; rows are
    (id_a, id_b, score rounded), ordered as the operator orders them."""
    import itertools

    import pandas as pd
    import ray.data as rd

    from gojsonschema_ray.stages import dedup

    rng = np.random.default_rng(71)
    vocab = ["".join(rng.choice(list("abcdefghijklmnopqrstuvwxyz"), 6))
             for _ in range(400)]

    def doc():
        return " ".join(rng.choice(vocab, 40))

    def brute(ids, vals, fn):
        out = set()
        for (ia, a), (ib, b) in itertools.combinations(zip(ids, vals), 2):
            v = fn(a, b)
            if v is not None:
                out.add((min(ia, ib), max(ia, ib), round(v, 6)))
        return out

    if case in ("probe", "probe_desc"):
        base = [doc() for _ in range(12)]
        new_texts = [base[i] + " extra" for i in range(3)] + \
            [doc() for _ in range(3)]
        hi, lo = ("z", "a") if case == "probe_desc" else ("c", "n")
        corpus = pd.DataFrame({"id": [f"{hi}{i:02d}" for i in range(12)],
                               "text": base})
        new = pd.DataFrame({"id": [f"{lo}{i:02d}" for i in range(6)],
                            "text": new_texts})
        idx = dedup.MinHashIndex("text", "id", threshold=0.6, mods=8)
        idx.build(rd.from_pandas(corpus), str(tmp_path / "mh"))
        exp = {(c, n, round(j, 6))
               for c, tc in zip(corpus["id"], corpus["text"])
               for n, tn in zip(new["id"], new["text"])
               if (j := dedup.ngram_jaccard(tc, tn, 5)) >= 0.6}
        return idx.probe(rd.from_pandas(new), str(tmp_path / "mh")), exp
    if case == "embedding":
        base = rng.standard_normal((40, 16))
        for a, b in ((3, 17), (8, 30), (21, 22)):
            base[b] = base[a] + 0.002 * rng.standard_normal(16)
        ids = [f"v{i:02d}" for i in range(40)][::-1]
        unit = base / np.linalg.norm(base, axis=1, keepdims=True)
        ds = rd.from_pandas(pd.DataFrame({
            "id": ids, "embedding": [r.tolist() for r in base]}))
        exp = brute(ids, list(unit),
                    lambda a, b: float(a @ b) if a @ b >= 0.95 else None)
        return dedup.embedding_near_duplicates(
            ds, "embedding", "id", dim=16, threshold=0.95), exp
    if case == "fuzzy_pairs_ed1":
        texts = ["node-001", "node-002", "node-01", "node-101", "alpha",
                 "alphas", "alpha", "beta", "", "b", "zzz"]
        fn = dedup.edit_distance_le1
    elif case == "jaccard_token_join":
        texts = ["w0 w1 w2", "w0  w1 w2", "w1 w2 w3", "w4 w5", "w5 w4 w6",
                 "", None, "w7"]

        def fn(a, b):
            sa, sb = set((a or "").lower().split()), set((b or "").lower().split())
            j = len(sa & sb) / len(sa | sb) if sa and sb else 0.0
            return j if j >= 0.5 else None
    elif case == "simhash_near_duplicates":
        texts = [doc() for _ in range(20)]
        texts[5] = texts[2]
        texts[9] = texts[4] + " " + vocab[1]

        def fn(a, b):
            d = dedup.hamming64(dedup.simhash64(a), dedup.simhash64(b))
            return d if d <= 3 else None
    else:  # minhash_near_duplicates
        texts = [doc() for _ in range(20)]
        texts[5] = texts[2] + " extra"
        texts[9] = texts[4]

        def fn(a, b):
            j = dedup.ngram_jaccard(a, b, 5)
            return j if j >= 0.5 else None
    ids = [f"d{i:02d}" for i in range(len(texts))][::-1]
    ds = rd.from_pandas(pd.DataFrame({"id": ids, "text": texts}))
    kw = {"threshold": 0.5} if case in ("minhash_near_duplicates",
                                        "jaccard_token_join") else {}
    return getattr(dedup, case)(ds, "text", "id", **kw), \
        brute(ids, texts, fn)


@pytest.mark.parametrize("case", [
    "minhash_near_duplicates", "fuzzy_pairs_ed1", "jaccard_token_join",
    "simhash_near_duplicates", "embedding", "probe", "probe_desc"])
def test_near_dup_string_ids(ray_session, tmp_path, case):
    """Every near-dup operator keeps string ids from a pandas-backed
    Dataset as strings and finds exactly the brute-force pairs;
    MinHashIndex.probe also when its corpus ids sort after the new ids
    (id_a > id_b)."""
    from gojsonschema_ray.util import collect_rows

    out, exp = _near_dup_string_id_case(case, tmp_path)
    score = [c for c in out.columns() if c not in ("id_a", "id_b", "capped")]
    rows = collect_rows(out)
    got = {(r["id_a"], r["id_b"], round(r[score[0]], 6)) for r in rows}
    assert got == exp and exp
    assert all(isinstance(r["id_a"], str) for r in rows)
    if case == "probe_desc":
        assert all(a > b for a, b, _ in got)


def test_embedding_covariance(ray_session):
    """Moment-partial covariance equals np.cov / mean across any
    partitioning; n < 2 raises."""
    import pandas as pd
    import ray.data as rd

    from gojsonschema_ray.stages.similarity import embedding_covariance

    rng = np.random.default_rng(53)
    X = rng.normal(0, 3, (400, 10))
    tbl = pa.table({"embedding": pa.array(X.tolist(),
                                          pa.list_(pa.float64()))})
    for parts in (1, 7):
        n, mean, cov = embedding_covariance(
            rd.from_arrow(tbl).repartition(parts), "embedding")
        assert n == 400
        assert np.allclose(mean, X.mean(axis=0), atol=1e-10)
        assert np.allclose(cov, np.cov(X, rowvar=False), atol=1e-9)
    with pytest.raises(ValueError, match=">= 2"):
        embedding_covariance(
            rd.from_arrow(tbl.slice(0, 1)), "embedding")


def test_pca_project(ray_session):
    """Distributed PCA equals numpy eigh on the same covariance (up to the
    canonical sign), the projection reconstructs variance, and k
    validation raises."""
    import pandas as pd
    import ray.data as rd

    from gojsonschema_ray.stages.similarity import pca_project
    from gojsonschema_ray.util import collect_rows

    rng = np.random.default_rng(59)
    # anisotropic data: one dominant direction
    base = rng.normal(0, 1, (300, 6))
    base[:, 0] *= 10
    tbl = pa.table({"id": pa.array(range(300), pa.int64()),
                    "embedding": pa.array(base.tolist(),
                                          pa.list_(pa.float64()))})
    rows = collect_rows(pca_project(
        rd.from_arrow(tbl).repartition(5), "embedding", "id", 2))
    got = np.asarray([r["pc"] for r in sorted(rows, key=lambda r: r["id"])])

    cov = np.cov(base, rowvar=False)
    w, v = np.linalg.eigh(cov)
    order = np.argsort(w)[::-1][:2]
    comps = v[:, order]
    comps *= np.sign(comps[np.argmax(np.abs(comps), axis=0),
                           np.arange(2)])
    exp = (base - base.mean(axis=0)) @ comps
    assert np.allclose(got, exp, atol=1e-8)
    explained = rows[0]["explained"]
    assert explained == pytest.approx(w[order].sum() / w.sum())
    assert explained > 0.9  # the dominant direction carries the variance
    with pytest.raises(ValueError, match="k="):
        pca_project(rd.from_arrow(tbl), "embedding", "id", 99)


def test_infer_validate_drift_gate(ray_session):
    """infer on epoch A -> compile -> validate epoch B: injected
    out-of-profile rows fire exactly the expected keywords."""
    import pandas as pd
    import ray.data as rd

    from gojsonschema_ray.schema import compile_schema
    from gojsonschema_ray.stages import TableValidator
    from gojsonschema_ray.stages.infer import infer_ruleset
    from gojsonschema_ray.util import collect_rows

    train = pd.DataFrame({"id": range(100),
                          "v": np.linspace(10.0, 20.0, 100),
                          "cat": ["a", "b"] * 50})
    test = pd.DataFrame({"id": [900, 901, 902, 903],
                         "v": [9.0, 25.0, 15.0, 15.0],
                         "cat": ["a", "b", "zzz", "a"]})
    rs = infer_ruleset(rd.from_pandas(train), ["v", "cat"])
    tv = TableValidator(compile_schema(rs), key_column="id",
                        mode="violations")
    viol = collect_rows(rd.from_pandas(test).map_batches(
        tv, batch_format="pyarrow"))
    fired = {(r["key"], r["keyword"]) for r in viol}
    assert ("900", "number_gte") in fired    # below inferred minimum
    assert ("901", "number_lte") in fired    # above inferred maximum
    assert ("902", "enum") in fired          # unseen category
    assert not any(k == "903" for k, _ in fired)


def test_winsorize(ray_session):
    """Clipping matches np.quantile-based clip exactly; values inside the
    cuts are untouched; validation raises."""
    import pandas as pd
    import pytest
    import ray.data as rd

    from gojsonschema_ray.stages.sketches import winsorize
    from gojsonschema_ray.util import collect_rows

    rng = np.random.default_rng(61)
    v = np.concatenate([rng.normal(0, 1, 2000), [50.0, -40.0]])
    df = pd.DataFrame({"id": np.arange(len(v)), "v": v})
    rows = collect_rows(winsorize(
        rd.from_pandas(df).repartition(4), "v", 0.05, 0.95))
    got = {r["id"]: r["v"] for r in rows}
    lo, hi = np.quantile(v, [0.05, 0.95])
    exp = np.clip(v, lo, hi)
    assert all(got[i] == exp[i] for i in range(len(v)))
    assert got[2000] == hi and got[2001] == lo
    with pytest.raises(ValueError, match="p_lo"):
        winsorize(rd.from_pandas(df), "v", 0.9, 0.1)


def test_activity_segments():
    """Closed-form VAD golden: constructed active/silent frame patterns
    yield exact segment counts, ratios and spans; hangover bridges short
    gaps; all-silent and empty clips degrade cleanly."""
    from gojsonschema_ray.stages.audio import activity_segments

    sr = 16000
    flen = sr * 20 // 1000  # 20 ms frames
    loud = (np.ones(flen) * 8000).astype(np.int16)
    quiet = np.zeros(flen, dtype=np.int16)

    # 3 loud, 1 quiet (bridged by hangover 2), 2 loud, 5 quiet, 1 loud
    pcm = np.concatenate([loud] * 3 + [quiet] + [loud] * 2
                         + [quiet] * 5 + [loud])
    r = activity_segments(pcm, sr, frame_ms=20, hang_frames=2)
    assert r["n_frames"] == 12 and r["n_active_frames"] == 6
    assert r["n_segments"] == 2          # the 5-frame gap splits
    assert r["longest_ms"] == 6 * 20.0   # frames 0..5 incl. bridged gap
    assert r["total_active_ms"] == 6 * 20.0 + 20.0
    assert r["active_ratio"] == pytest.approx(0.5)

    # hangover 0: the 1-frame gap also splits
    r0 = activity_segments(pcm, sr, frame_ms=20, hang_frames=0)
    assert r0["n_segments"] == 3

    silent = activity_segments(np.zeros(flen * 4, np.int16), sr)
    assert silent["n_segments"] == 0 and silent["active_ratio"] == 0.0
    empty = activity_segments(np.zeros(0, np.int16), sr)
    assert empty["n_frames"] == 0 and empty["n_segments"] == 0


def test_audio_activity_stage(ray_session):
    """Stage over the synthetic clips: datagen sines are continuously
    active — every decodable clip reads one segment at ratio 1.0;
    corrupt rows degrade to decode_ok=False."""
    from gojsonschema_ray import datagen
    from gojsonschema_ray.stages.audio import AudioActivityStage
    from gojsonschema_ray.util import collect_rows

    ds = datagen.clips_dataset(300, audio_cap_ms=30, override_num_blocks=2)
    rows = collect_rows(ds.map_batches(AudioActivityStage, batch_size=64,
                                       batch_format="pyarrow",
                                       concurrency=(1, 2)))
    assert len(rows) == 300
    ok = [r for r in rows if r["decode_ok"]]
    assert len(ok) > 250
    assert all(r["n_segments"] == 1 and r["active_ratio"] == 1.0
               for r in ok)
    bad = [r for r in rows if not r["decode_ok"]]
    assert all(r["n_frames"] is None for r in bad)


def _pcm_row(cid, pcm, sr, codec="pcm_s16le"):
    return {"clip_id": cid, "bytes": pcm.astype(np.int16).tobytes(),
            "sr_hz": sr, "codec": codec}


def test_audio_chunk_stage_golden():
    """Closed-form chunking: segment boundaries, partial handling, exact
    byte conservation (concatenating a clip's segments reproduces its
    PCM), corrupt rows degrade."""
    import pyarrow as pa
    from gojsonschema_ray.stages.audio import AudioChunkStage

    sr = 8000
    pcm = (np.arange(2500) % 251 - 125).astype(np.int16)
    batch = pa.Table.from_pylist([
        _pcm_row("a", pcm, sr),
        {"clip_id": "bad", "bytes": None, "sr_hz": sr, "codec": "pcm_s16le"},
        {"clip_id": "mp3", "bytes": b"\x00\x01", "sr_hz": sr,
         "codec": "mp3???"},
    ])
    out = AudioChunkStage(chunk_ms=100)(batch).to_pylist()
    segs = [r for r in out if r["clip_id"] == "a"]
    assert [r["n_samples"] for r in segs] == [800, 800, 800, 100]
    assert [r["seg_idx"] for r in segs] == [0, 1, 2, 3]
    assert all(r["n_segs"] == 4 for r in segs)
    assert [r["start_ms"] for r in segs] == [0.0, 100.0, 200.0, 300.0]
    joined = b"".join(r["bytes"] for r in segs)
    assert joined == pcm.tobytes()          # exact conservation
    assert all(r["codec"] == "pcm_s16le" and r["decode_ok"] for r in segs)
    for cid in ("bad", "mp3"):
        (row,) = [r for r in out if r["clip_id"] == cid]
        assert not row["decode_ok"] and row["bytes"] is None \
            and row["n_segs"] == 0

    # partial below min_partial_ms (100 samples @8k = 12.5 ms) is dropped
    out2 = AudioChunkStage(chunk_ms=100, min_partial_ms=50)(batch)
    segs2 = [r for r in out2.to_pylist() if r["clip_id"] == "a"]
    assert [r["n_samples"] for r in segs2] == [800, 800, 800]
    out3 = AudioChunkStage(chunk_ms=100, keep_partial=False)(batch)
    assert sum(r["clip_id"] == "a"
               for r in out3.to_pylist()) == 3
    with pytest.raises(ValueError, match="chunk_ms"):
        AudioChunkStage(chunk_ms=0)


def test_audio_chunk_feeds_feature_stage(ray_session):
    """Composability: chunk output rows carry the clips-table column
    contract, so AudioFeatureStage consumes them unchanged — and datagen
    sines chunk into segments whose per-segment est_freq matches the
    clip's closed-form frequency."""
    from gojsonschema_ray import datagen
    from gojsonschema_ray.stages.audio import (AudioChunkStage,
                                               AudioFeatureStage)
    from gojsonschema_ray.util import collect_rows

    ds = datagen.clips_dataset(120, audio_cap_ms=60, override_num_blocks=2)
    chunks = ds.map_batches(AudioChunkStage(chunk_ms=20), batch_size=64,
                            batch_format="pyarrow")
    def keep_ok(t):
        import pyarrow.compute as _pc
        return t.filter(_pc.fill_null(t["decode_ok"], False))

    ok = chunks.map_batches(keep_ok, batch_format="pyarrow")
    feats = ok.map_batches(AudioFeatureStage, batch_size=128,
                           batch_format="pyarrow", concurrency=(1, 2))
    rows = collect_rows(feats)
    assert len(rows) > 200          # ~3 segments per decodable clip
    assert all(r["decode_ok"] for r in rows)


def test_mel_filterbank_and_features():
    """Filterbank shape/coverage; sine energy lands in the mel bin whose
    band contains the tone; gain scaling shifts log-mel by the exact
    log10(g^2) constant; short clips pad to one frame; empty degrades."""
    from gojsonschema_ray.stages.audio import (log_mel_features,
                                               mel_filterbank)

    sr, n_fft, n_mels = 16000, 256, 24
    fb = mel_filterbank(sr, n_fft, n_mels)
    assert fb.shape == (n_mels, n_fft // 2 + 1)
    assert (fb >= 0).all() and (fb.sum(axis=1) > 0).all()

    # closed-form HTK band edges (the public mel formula, re-derived here)
    def mel(f):
        return 2595.0 * np.log10(1.0 + f / 700.0)

    edges = 700.0 * (10.0 ** (np.linspace(mel(0.0), mel(sr / 2),
                                          n_mels + 2) / 2595.0) - 1.0)
    f0 = 1000.0
    t = np.arange(sr // 2) / sr
    pcm = (8000 * np.sin(2 * np.pi * f0 * t)).astype(np.int16)
    nf, v = log_mel_features(pcm, sr, fb, n_fft=n_fft, hop=128)
    assert nf == 1 + (len(pcm) - n_fft) // 128
    top = int(np.argmax(v))
    assert edges[top] <= f0 <= edges[top + 2]   # tone in the argmax band

    _, v_half = log_mel_features((pcm // 2).astype(np.int16), sr, fb,
                                 n_fft=n_fft, hop=128)
    assert int(np.argmax(v_half)) == top        # gain-invariant argmax
    # median over the leakage-dominated bins (edge bins sit at the int16
    # quantization floor where energy doesn't scale with gain)
    shift = np.median(np.asarray(v_half) - np.asarray(v))
    assert abs(shift - np.log10(0.25)) < 1e-2

    nf_s, v_s = log_mel_features(pcm[:50], sr, fb, n_fft=n_fft, hop=128)
    assert nf_s == 1 and len(v_s) == n_mels
    nf_e, v_e = log_mel_features(pcm[:0], sr, fb)
    assert nf_e == 0 and v_e is None
    with pytest.raises(ValueError, match="fmin"):
        mel_filterbank(sr, n_fft, n_mels, fmin=9000.0)


def test_log_mel_stage(ray_session):
    """Stage over synthetic clips: every decodable clip yields a 16-dim
    embedding; identical audio under different ids yields identical
    vectors (the near-dup bridge); corrupt rows degrade."""
    import pyarrow as pa
    from gojsonschema_ray import datagen
    from gojsonschema_ray.stages.audio import LogMelStage
    from gojsonschema_ray.util import collect_rows

    ds = datagen.clips_dataset(300, audio_cap_ms=60, override_num_blocks=2)
    rows = collect_rows(ds.map_batches(LogMelStage, batch_size=64,
                                       batch_format="pyarrow",
                                       concurrency=(1, 2)))
    assert len(rows) == 300
    ok = [r for r in rows if r["decode_ok"]]
    assert len(ok) > 250
    assert all(len(r["mel"]) == 16 and r["n_frames"] >= 1 for r in ok)
    bad = [r for r in rows if not r["decode_ok"]]
    assert bad and all(r["mel"] is None for r in bad)

    # duplicate audio → byte-identical embeddings across distinct ids
    sr = 16000
    t = np.arange(sr // 10) / sr
    pcm = (6000 * np.sin(2 * np.pi * 440 * t)).astype(np.int16)
    batch = pa.Table.from_pylist(
        [_pcm_row("x", pcm, sr), _pcm_row("y", pcm.copy(), sr)])
    out = LogMelStage()(batch).to_pylist()
    assert out[0]["mel"] == out[1]["mel"]


def test_argmax_by_group(ray_session):
    """Golden winners incl. cross-batch groups, deterministic tie-break by
    tie column, null key/value drops, and min mode."""
    import pandas as pd
    import ray.data as rd
    from gojsonschema_ray.stages.topk import argmax_by_group
    from gojsonschema_ray.util import collect_rows

    df = pd.DataFrame({
        "k": ["a", "a", "b", "b", "a", "c", None, "c"],
        "v": [5.0, 9.0, 2.0, 2.0, 9.0, 7.0, 1.0, None],
        "id": [3, 2, 9, 1, 1, 4, 0, 5],
        "x": list("pqrstuvw"),
    })
    ds = rd.from_pandas(df).repartition(3)     # groups span batches
    out = collect_rows(argmax_by_group(ds, "k", "v", tie_column="id",
                                       keep_columns=["x"]))
    by = {r["k"]: r for r in out}
    assert len(by) == 3                        # null key dropped
    assert by["a"] == {"k": "a", "v": 9.0, "id": 1, "x": "t"}  # tie → min id
    assert by["b"] == {"k": "b", "v": 2.0, "id": 1, "x": "s"}
    assert by["c"] == {"k": "c", "v": 7.0, "id": 4, "x": "u"}  # null v drop

    low = {r["k"]: r for r in collect_rows(
        argmax_by_group(ds, "k", "v", tie_column="id", mode="min"))}
    assert low["a"]["v"] == 5.0 and low["a"]["id"] == 3
    assert low["b"]["v"] == 2.0 and low["b"]["id"] == 1

    with pytest.raises(ValueError, match="mode"):
        argmax_by_group(ds, "k", "v", mode="median")
    with pytest.raises(ValueError, match="reserved"):
        argmax_by_group(ds.map_batches(lambda d: d.rename(
            columns={"x": "part"}), batch_format="pandas"), "k", "v",
            keep_columns=["part"])


def test_audio_curation_stage_golden(ray_session):
    """Exact verdicts on constructed clips: every gate fires on its own
    fixture, reasons come out in the fixed order, fingerprints are
    container-invariant (wav == raw PCM of the same samples), and the
    pipeline's dedup keeps the min clip_id per content class."""
    import io
    import wave

    import pyarrow as pa
    import ray.data as rd
    from gojsonschema_ray.pipelines.curation import (AudioCurationStage,
                                                     curate_clips)
    from gojsonschema_ray.util import collect_rows

    sr = 16000
    t = np.arange(sr // 10) / sr                      # 100 ms
    loud = (8000 * np.sin(2 * np.pi * 440 * t)).astype(np.int16)
    buf = io.BytesIO()
    with wave.open(buf, "wb") as w:
        w.setnchannels(1); w.setsampwidth(2); w.setframerate(sr)
        w.writeframes(loud.tobytes())
    rows = [
        _pcm_row("a1", loud, sr),
        {"clip_id": "a0-wav", "bytes": buf.getvalue(), "sr_hz": sr,
         "codec": "wav"},                             # same content as a1
        _pcm_row("b-silent", np.zeros(len(t), np.int16), sr),
        _pcm_row("c-clipped", np.full(len(t), 32767, np.int16), sr),
        _pcm_row("d-short", loud[:sr // 200], sr),    # 5 ms
        {"clip_id": "e-bad", "bytes": None, "sr_hz": sr,
         "codec": "pcm_s16le"},
    ]
    batch = pa.Table.from_pylist(rows)
    v = {r["clip_id"]: r for r in
         AudioCurationStage()(batch).to_pylist()}
    assert v["a1"]["keep"] and v["a1"]["reasons"] == ""
    assert v["a0-wav"]["keep"] and v["a0-wav"]["fp"] == v["a1"]["fp"]
    assert not v["b-silent"]["keep"] \
        and v["b-silent"]["reasons"] == "silent,inactive"
    assert not v["c-clipped"]["keep"] \
        and v["c-clipped"]["reasons"] == "clipped"
    # 5 ms < one 20 ms VAD frame → the activity gate fires too (every
    # failing signal is listed, gopher_filter style)
    assert not v["d-short"]["keep"] \
        and v["d-short"]["reasons"] == "too_short,inactive"
    assert not v["e-bad"]["keep"] and v["e-bad"]["reasons"] == "decode"
    assert all(v[k]["fp"] is None for k in
               ("b-silent", "c-clipped", "d-short", "e-bad"))

    surv = collect_rows(curate_clips(rd.from_arrow(batch)))
    assert {r["clip_id"] for r in surv} == {"a0-wav"}   # min id per class


def test_curate_clips_closed_form(ray_session):
    """Datagen structural golden: audio content is periodic in 400 rows
    (freq = 100+(i%400); the sr cycle 5 divides 400; duration capped
    uniform), so each mod-400 class whose members are all untouched by
    every injection modulus keeps EXACTLY its smallest clip id through
    content dedup."""
    from gojsonschema_ray import datagen
    from gojsonschema_ray.pipelines.curation import curate_clips
    from gojsonschema_ray.util import collect_rows

    n = 2_500
    ds = datagen.clips_dataset(n, audio_cap_ms=30, override_num_blocks=4)
    surv = {r["clip_id"] for r in collect_rows(curate_clips(ds))}

    def clean(i: int) -> bool:   # no injection rule touches row i's audio/id
        return all(i % m for m in (967, 971, 977, 983, 991, 997, 1009,
                                   1013)) and i % 1000 != 499

    checked = 0
    for i in range(1, 400):
        members = list(range(i, n, 400))
        if not all(clean(j) for j in members):
            continue
        assert f"clip-{i:012d}" in surv, i
        for j in members[1:]:
            assert f"clip-{j:012d}" not in surv, (i, j)
        checked += 1
    assert checked > 300          # the predicate keeps most classes


def test_ewma_by_key(ray_session):
    """Bit-exact vs the explicit float64 recursion, partition-invariant,
    deterministic under ts ties via order column; alpha/null contracts."""
    import pandas as pd
    import ray.data as rd
    from gojsonschema_ray.stages.window import ewma_by_key
    from gojsonschema_ray.util import collect_rows

    rng = np.random.default_rng(11)
    n = 4_000
    df = pd.DataFrame({
        "k": rng.integers(0, 37, n).astype(str),
        "ts": rng.permutation(n).astype("float64"),
        "id": np.arange(n),
        "v": rng.normal(50, 20, n),
    })
    a = 0.3
    out = collect_rows(ewma_by_key(rd.from_pandas(df).repartition(5),
                                   "k", "ts", "v", a,
                                   order_columns=("id",)))
    got = {r["id"]: r["ewma"] for r in out}
    assert len(got) == n
    for k, grp in df.sort_values(["ts", "id"]).groupby("k"):
        y = None
        for _, row in grp.iterrows():
            y = row["v"] if y is None else a * row["v"] + (1 - a) * y
            assert got[row["id"]] == y   # bit-exact recursion

    with pytest.raises(ValueError, match="alpha"):
        ewma_by_key(rd.from_pandas(df), "k", "ts", "v", 0.0)
    bad = df.copy(); bad.loc[5, "v"] = None
    with pytest.raises(Exception, match="null"):
        collect_rows(ewma_by_key(rd.from_pandas(bad), "k", "ts", "v", a))


def test_dct_and_mfcc_kernels():
    """DCT-II orthonormality; pure-gain change moves ONLY coefficient 0
    (rows 1.. are orthogonal to the constant log-shift) on broadband
    audio; empty clips degrade; parameter validation."""
    import math
    from gojsonschema_ray.stages.audio import (dct_ortho, mel_filterbank,
                                               mfcc_features)

    m = dct_ortho(24, 24).astype(np.float64)
    assert np.abs(m @ m.T - np.eye(24)).max() < 1e-6

    sr = 16000
    rng = np.random.default_rng(7)
    pcm = rng.integers(-12000, 12000, sr // 2).astype(np.int16)
    fb = mel_filterbank(sr, 256, 24)
    dct = dct_ortho(13, 24)
    nf, mu, sd = mfcc_features(pcm, sr, fb, dct, n_fft=256, hop=128)
    assert nf == 1 + (len(pcm) - 256) // 128
    assert len(mu) == 13 and len(sd) == 13 and (np.asarray(sd) >= 0).all()
    # exact-half gain: use an even-valued signal so pcm // 2 IS half
    half = ((pcm // 2) * 2).astype(np.int16)
    _, mu_f, _ = mfcc_features(half, sr, fb, dct, n_fft=256, hop=128)
    _, mu_h, _ = mfcc_features((half // 2).astype(np.int16), sr, fb, dct,
                               n_fft=256, hop=128)
    d = np.asarray(mu_h, float) - np.asarray(mu_f, float)
    assert abs(d[0] - math.log10(0.25) * math.sqrt(24)) < 1e-3
    assert np.abs(d[1:]).max() < 1e-3

    nf_e, mu_e, sd_e = mfcc_features(pcm[:0], sr, fb, dct)
    assert nf_e == 0 and mu_e is None and sd_e is None
    with pytest.raises(ValueError, match="dct_ortho"):
        dct_ortho(25, 24)


def test_mfcc_stage(ray_session):
    """Stage over synthetic clips: 13-dim vectors per decodable clip,
    identical audio → identical vectors, distinct tones discriminate,
    corrupt rows degrade."""
    import pyarrow as pa
    from gojsonschema_ray import datagen
    from gojsonschema_ray.stages.audio import MfccStage
    from gojsonschema_ray.util import collect_rows

    ds = datagen.clips_dataset(300, audio_cap_ms=60, override_num_blocks=2)
    rows = collect_rows(ds.map_batches(MfccStage, batch_size=64,
                                       batch_format="pyarrow",
                                       concurrency=(1, 2)))
    assert len(rows) == 300
    ok = [r for r in rows if r["decode_ok"]]
    assert len(ok) > 250
    assert all(len(r["mfcc"]) == 13 and len(r["mfcc_std"]) == 13
               and r["n_frames"] >= 1 for r in ok)
    bad = [r for r in rows if not r["decode_ok"]]
    assert bad and all(r["mfcc"] is None for r in bad)
    # distinct tone frequencies yield distinct envelopes
    assert len({tuple(r["mfcc"]) for r in ok}) > len(ok) * 0.8

    sr = 16000
    t = np.arange(sr // 10) / sr
    pcm = (6000 * np.sin(2 * np.pi * 440 * t)).astype(np.int16)
    batch = pa.Table.from_pylist(
        [_pcm_row("x", pcm, sr), _pcm_row("y", pcm.copy(), sr)])
    out = MfccStage()(batch).to_pylist()
    assert out[0]["mfcc"] == out[1]["mfcc"]


def test_estimate_f0():
    """Closed-form pitch: a pure sine recovers its frequency to <0.5%
    with high confidence; white noise reads near-zero confidence;
    silent/empty/too-short clips return (None, 0)."""
    from gojsonschema_ray.stages.audio import estimate_f0

    sr = 16000
    t = np.arange(sr // 2) / sr
    for f in (97.0, 220.0, 433.5):
        pcm = (8000 * np.sin(2 * np.pi * f * t)).astype(np.int16)
        f0, conf = estimate_f0(pcm, sr)
        assert abs(f0 - f) / f < 0.005, (f, f0)
        assert conf > 0.9
    rng = np.random.default_rng(0)
    _, conf_n = estimate_f0(
        rng.integers(-8000, 8000, sr // 2).astype(np.int16), sr)
    assert conf_n < 0.3
    assert estimate_f0(np.zeros(1000, np.int16), sr) == (None, 0.0)
    assert estimate_f0(np.zeros(0, np.int16), sr) == (None, 0.0)
    # clip shorter than one fmin period still returns the best in-range lag
    short = (8000 * np.sin(2 * np.pi * 440 * t[:300])).astype(np.int16)
    f0_s, _ = estimate_f0(short, sr)
    assert f0_s is not None and abs(f0_s - 440) / 440 < 0.02


def test_pitch_stage(ray_session):
    """Stage over synthetic clips: datagen tones are pure sines at
    100 + (i % 400) Hz — the stage recovers the generator frequency
    within 2% for ≥95% of regular voiced clips; corrupt rows degrade."""
    from gojsonschema_ray import datagen
    from gojsonschema_ray.stages.audio import PitchStage
    from gojsonschema_ray.util import collect_rows

    ds = datagen.clips_dataset(400, audio_cap_ms=60, override_num_blocks=2)
    rows = collect_rows(ds.map_batches(PitchStage, batch_size=64,
                                       batch_format="pyarrow",
                                       concurrency=(1, 2)))
    assert len(rows) == 400
    bad = [r for r in rows if not r["decode_ok"]]
    assert bad and all(r["f0_hz"] is None for r in bad)
    hits = total = 0
    for r in rows:
        cid = r["clip_id"]
        if not (r["decode_ok"] and r["voiced"] and cid.startswith("clip-0")):
            continue
        f_true = datagen.clip_frequency(int(cid.split("-")[1]))
        total += 1
        hits += abs(r["f0_hz"] - f_true) / f_true < 0.02
    assert total > 300 and hits / total >= 0.95, (hits, total)


def test_cmvn_stats_and_apply(ray_session):
    """Numpy parity of the moment-partial fit across partitionings; the
    apply pass round-trips to mean≈0 / std≈1 per dimension;
    zero-variance dimensions hit the eps floor (output 0); empty input
    raises."""
    import pandas as pd
    import ray.data as rd
    from gojsonschema_ray.stages.similarity import cmvn_apply, cmvn_stats
    from gojsonschema_ray.util import collect_rows

    rng = np.random.default_rng(11)
    X = rng.normal(loc=3.0, scale=2.5, size=(257, 6))
    X[:, 4] = 7.25  # zero-variance dimension
    df = pd.DataFrame({"id": np.arange(len(X)),
                       "embedding": [r.tolist() for r in X]})
    for nb in (1, 5):
        ds = rd.from_pandas(df).repartition(nb)
        n, mean, std = cmvn_stats(ds, "embedding")
        assert n == len(X)
        np.testing.assert_allclose(mean, X.mean(axis=0), rtol=1e-12)
        np.testing.assert_allclose(std, X.std(axis=0), rtol=1e-9, atol=1e-12)

    rows = collect_rows(cmvn_apply(rd.from_pandas(df).repartition(4),
                                   "embedding", "id"))
    assert len(rows) == len(X)
    Y = np.array([r["normed"] for r in sorted(rows, key=lambda r: r["id"])])
    np.testing.assert_allclose(Y.mean(axis=0), 0.0, atol=1e-9)
    live = [0, 1, 2, 3, 5]
    np.testing.assert_allclose(Y[:, live].std(axis=0), 1.0, rtol=1e-9)
    assert np.all(Y[:, 4] == 0.0)  # eps-floored constant dimension
    # normalization is exactly (x - mean) / std per element
    np.testing.assert_allclose(
        Y[:, live], (X[:, live] - X[:, live].mean(axis=0))
        / X[:, live].std(axis=0), rtol=1e-9, atol=1e-12)

    with pytest.raises(ValueError, match="empty"):
        cmvn_stats(rd.from_pandas(df.head(0)), "embedding")


def test_audio_augment_stage(ray_session):
    """Deterministic augmentation: bit-identical across reruns AND
    partitionings; achieved SNR within 0.5 dB of target; speed changes
    length by exactly round(n/f); gain jitter bounded; distinct clips /
    copies get distinct noise; corrupt rows degrade; validation."""
    import pyarrow as pa
    from gojsonschema_ray import datagen
    from gojsonschema_ray.stages.audio import AudioAugmentStage, decode_raw_s16le
    from gojsonschema_ray.util import collect_rows

    sr = 16000
    t = np.arange(sr // 2) / sr
    pcm = (8000 * np.sin(2 * np.pi * 220 * t)).astype(np.int16)
    batch = pa.Table.from_pylist(
        [_pcm_row("a", pcm, sr), _pcm_row("b", pcm.copy(), sr)])

    # noise at target SNR: measure achieved SNR against the clean signal
    st = AudioAugmentStage(copies=2, noise_snr_db=20.0, seed=7)
    out = st(batch).to_pylist()
    assert len(out) == 4
    by_key = {(r["clip_id"], r["aug_idx"]): r for r in out}
    for r in out:
        y, _ = decode_raw_s16le(r["bytes"], sr)
        noise = y.astype(np.float64) - pcm.astype(np.float64)
        snr = 10 * np.log10((pcm.astype(np.float64) ** 2).mean()
                            / (noise ** 2).mean())
        assert abs(snr - 20.0) < 0.5, snr
    # distinct (clip, copy) streams → distinct noise
    assert by_key[("a", 0)]["bytes"] != by_key[("a", 1)]["bytes"]
    assert by_key[("a", 0)]["bytes"] != by_key[("b", 0)]["bytes"]
    # rerun is bit-identical
    out2 = AudioAugmentStage(copies=2, noise_snr_db=20.0, seed=7)(batch)
    assert out2.to_pylist() == out
    # different seed differs
    assert AudioAugmentStage(copies=2, noise_snr_db=20.0, seed=8)(
        batch).to_pylist() != out

    # speed: exact length arithmetic, deterministic choice per (clip, copy)
    st_sp = AudioAugmentStage(copies=4, speed_factors=(0.9, 1.1), seed=1)
    for r in st_sp(batch).to_pylist():
        assert r["speed"] in (0.9, 1.1)
        assert r["n_samples"] == int(round(len(pcm) / r["speed"]))

    # gain jitter bounded and applied (RMS scales by the reported gain)
    st_g = AudioAugmentStage(copies=3, gain_jitter_db=6.0, seed=3)
    for r in st_g(batch).to_pylist():
        assert abs(r["gain_db"]) <= 6.0
        y, _ = decode_raw_s16le(r["bytes"], sr)
        expect = np.sqrt((pcm.astype(np.float64) ** 2).mean()) \
            * 10 ** (r["gain_db"] / 20.0)
        got = np.sqrt((y.astype(np.float64) ** 2).mean())
        assert abs(got - expect) / expect < 1e-3

    # distributed run over synthetic clips: copies per decodable clip,
    # degraded rows for corrupt payloads, partitioning-invariant bytes
    ds = datagen.clips_dataset(200, audio_cap_ms=40, override_num_blocks=2)
    kw = {"copies": 2, "noise_snr_db": 15.0, "seed": 5}
    rows = collect_rows(ds.map_batches(
        AudioAugmentStage, fn_constructor_kwargs=kw,
        batch_size=32, batch_format="pyarrow", concurrency=(1, 2)))
    ok = [r for r in rows if r["decode_ok"]]
    bad = [r for r in rows if not r["decode_ok"]]
    assert bad and all(r["bytes"] is None for r in bad)
    assert len({(r["clip_id"], r["aug_idx"]) for r in ok}) == len(ok)
    ds8 = datagen.clips_dataset(200, audio_cap_ms=40, override_num_blocks=8)
    rows8 = collect_rows(ds8.map_batches(
        AudioAugmentStage, fn_constructor_kwargs=kw,
        batch_size=16, batch_format="pyarrow", concurrency=(1, 2)))
    key = lambda r: (r["clip_id"], r["aug_idx"], r["bytes"])
    assert sorted(map(key, ok)) == sorted(
        map(key, [r for r in rows8 if r["decode_ok"]]))

    with pytest.raises(ValueError, match="copies"):
        AudioAugmentStage(copies=0)
    with pytest.raises(ValueError, match="speed_factors"):
        AudioAugmentStage(speed_factors=(0.0,))
    with pytest.raises(ValueError, match="gain_jitter"):
        AudioAugmentStage(gain_jitter_db=-1.0)


def test_moments_by_group(ray_session):
    """Exact population skew/kurtosis per group vs a scipy-free numpy
    reference; partition invariance; zero-variance and null handling."""
    import pandas as pd
    import ray.data as rd
    from gojsonschema_ray.stages.sketches import moments_by_group

    rng = np.random.default_rng(5)
    df = pd.DataFrame({
        "k": rng.choice(["a", "b", "c"], 400).tolist() + ["z", "z", "z"],
        "v": np.concatenate([rng.lognormal(3.0, 0.7, 400),
                             [5.0, 5.0, 5.0]]),  # zero-variance group
    })
    df.loc[3, "v"] = None
    df.loc[4, "k"] = None
    for nb in (1, 7):
        out = moments_by_group(rd.from_pandas(df).repartition(nb), "k", "v")
        assert list(out["k"]) == ["a", "b", "c", "z"]
        for _, r in out.iterrows():
            sub = df[(df["k"] == r["k"]) & df["v"].notna()]["v"].to_numpy()
            assert r["n"] == len(sub)
            assert abs(r["mean"] - sub.mean()) < 1e-9
            c = sub - sub.mean()
            m2 = (c ** 2).mean()
            if m2 == 0:
                assert pd.isna(r["skew"]) and pd.isna(r["kurt"])
            else:
                assert abs(r["skew"] - (c ** 3).mean() / m2 ** 1.5) < 1e-9
                assert abs(r["kurt"]
                           - ((c ** 4).mean() / m2 ** 2 - 3)) < 1e-9


def test_gini_by_group(ray_session, monkeypatch):
    """Closed-form Gini goldens (perfect equality → 0; one-holder
    concentration → (n−1)/n); rank-formula parity with a sorted numpy
    replica; tie invariance; negative values raise."""
    import pandas as pd
    import ray.data as rd
    from gojsonschema_ray.stages.sketches import gini_by_group
    from gojsonschema_ray.util import collect_rows

    rng = np.random.default_rng(9)
    eq = pd.DataFrame({"k": "eq", "v": np.full(10, 4.0)})
    conc = pd.DataFrame({"k": "conc", "v": [0.0] * 9 + [100.0]})
    rand = pd.DataFrame({"k": rng.choice(["x", "y"], 300),
                         "v": rng.exponential(10.0, 300).round(1)})
    df = pd.concat([eq, conc, rand], ignore_index=True)
    monkeypatch.setattr("gojsonschema_ray.stages.exchange.shuffle_width",
                        lambda: 4)
    rows = collect_rows(gini_by_group(
        rd.from_pandas(df).repartition(5), "k", "v"))
    got = {r["k"]: r for r in rows}
    assert len(got) == 4
    assert abs(got["eq"]["gini"]) < 1e-12
    assert abs(got["conc"]["gini"] - 9 / 10) < 1e-12
    for k in ("x", "y"):
        sub = np.sort(rand[rand["k"] == k]["v"].to_numpy())
        n = len(sub)
        ref = 2 * np.sum(np.arange(1, n + 1) * sub) / (n * sub.sum()) \
            - (n + 1) / n
        assert got[k]["n"] == n and abs(got[k]["gini"] - ref) < 1e-12

    with pytest.raises(Exception, match="negative"):
        collect_rows(gini_by_group(rd.from_pandas(
            pd.DataFrame({"k": ["a"], "v": [-1.0]})), "k", "v"))


def test_autocorr_by_key(ray_session):
    """Pearson parity with pandas per-key corr on shifted series; an AR-1
    signal reads high positive autocorr, white noise near 0, an
    alternating series −1; short/constant keys emit null."""
    import pandas as pd
    import ray.data as rd
    from gojsonschema_ray.stages.sketches import autocorr_by_key
    from gojsonschema_ray.util import collect_rows

    rng = np.random.default_rng(3)
    ar = np.zeros(200)
    for i in range(1, 200):
        ar[i] = 0.9 * ar[i - 1] + rng.normal()
    frames = [
        pd.DataFrame({"k": "ar", "t": np.arange(200), "v": ar}),
        pd.DataFrame({"k": "wn", "t": np.arange(200),
                      "v": rng.normal(size=200)}),
        pd.DataFrame({"k": "alt", "t": np.arange(50),
                      "v": np.where(np.arange(50) % 2 == 0, 1.0, -1.0)}),
        pd.DataFrame({"k": "one", "t": [0], "v": [3.0]}),
        pd.DataFrame({"k": "const", "t": np.arange(5), "v": 2.0}),
    ]
    df = pd.concat(frames, ignore_index=True).sample(
        frac=1.0, random_state=0)  # scrambled input order
    rows = collect_rows(autocorr_by_key(
        rd.from_pandas(df).repartition(6), "k", ("t",), "v"))
    got = {r["k"]: r for r in rows}
    for k in ("ar", "wn", "alt"):
        sub = df[df["k"] == k].sort_values("t")["v"]
        ref = sub.corr(sub.shift(1))
        assert got[k]["n_pairs"] == len(sub) - 1
        assert abs(got[k]["autocorr"] - ref) < 1e-9
    assert got["ar"]["autocorr"] > 0.8
    assert abs(got["wn"]["autocorr"]) < 0.2
    assert abs(got["alt"]["autocorr"] + 1.0) < 1e-9
    assert "one" not in got  # no pairs at all
    assert got["const"]["autocorr"] is None or np.isnan(
        got["const"]["autocorr"])

    with pytest.raises(ValueError, match="lag"):
        autocorr_by_key(rd.from_pandas(df), "k", ("t",), "v", lag=0)


def test_cusum_by_key(ray_session, monkeypatch):
    """Closed-form CUSUM vs the literal Page recursion per key
    (1e-12 parity); a mean-shifted segment raises the upper statistic
    and trips the alarm while an in-control key stays quiet; scrambled
    input / partitioning invariance; null-value contract error."""
    import pandas as pd
    import ray.data as rd
    from gojsonschema_ray.stages.window import cusum_by_key
    from gojsonschema_ray.util import collect_rows

    rng = np.random.default_rng(21)
    quiet = rng.normal(10.0, 1.0, 120)
    shifted = np.concatenate([rng.normal(10.0, 1.0, 60),
                              rng.normal(14.0, 1.0, 60)])
    df = pd.concat([
        pd.DataFrame({"k": "quiet", "t": np.arange(120), "v": quiet}),
        pd.DataFrame({"k": "shift", "t": np.arange(120), "v": shifted}),
    ], ignore_index=True).sample(frac=1.0, random_state=1)

    monkeypatch.setattr("gojsonschema_ray.stages.exchange.shuffle_width",
                        lambda: 4)
    rows = collect_rows(cusum_by_key(
        rd.from_pandas(df).repartition(5), "k", "t", "v",
        target=10.0, slack=0.5, threshold=8.0))
    assert len(rows) == 240
    by_key = {}
    for r in sorted(rows, key=lambda r: (r["k"], r["t"])):
        by_key.setdefault(r["k"], []).append(r)

    for k, series in (("quiet", quiet), ("shift", shifted)):
        hi = lo = 0.0
        for r, x in zip(by_key[k], series):
            hi = max(0.0, hi + (x - 10.0 - 0.5))
            lo = max(0.0, lo - (x - 10.0) - 0.5)
            assert abs(r["cusum_hi"] - hi) < 1e-9
            assert abs(r["cusum_lo"] - lo) < 1e-9
            assert r["alarm"] == (hi > 8.0 or lo > 8.0)
    assert not any(r["alarm"] for r in by_key["quiet"])
    assert any(r["alarm"] for r in by_key["shift"][60:])
    assert not any(r["alarm"] for r in by_key["shift"][:55])

    df_null = df.copy()
    df_null.loc[df_null.index[0], "v"] = None
    with pytest.raises(Exception, match="null"):
        collect_rows(cusum_by_key(rd.from_pandas(df_null), "k", "t", "v",
                                  target=10.0))
    with pytest.raises(ValueError, match="reserved"):
        cusum_by_key(rd.from_pandas(df.rename(columns={"v": "alarm"})),
                     "k", "t", "alarm", target=10.0)


def test_spectral_descriptors_and_stage(ray_session):
    """Closed-form spectral goldens: a pure tone reads flatness→0,
    rolloff=centroid=f0, tiny bandwidth, huge crest; white noise reads
    high flatness, rolloff≈0.85·Nyquist; short/corrupt rows degrade."""
    import pyarrow as pa
    from gojsonschema_ray import datagen
    from gojsonschema_ray.stages.audio import (AudioSpectralStage,
                                               spectral_descriptors)
    from gojsonschema_ray.util import collect_rows

    sr = 16000
    t = np.arange(sr // 2) / sr
    sine = (8000 * np.sin(2 * np.pi * 440 * t)).astype(np.int16)
    rng = np.random.default_rng(0)
    noise = rng.integers(-8000, 8000, sr // 2).astype(np.int16)

    d = spectral_descriptors(sine, sr)
    assert d["flatness"] < 1e-3
    assert abs(d["rolloff_hz"] - 440.0) < 2 * sr / len(sine)
    assert abs(d["centroid_hz"] - 440.0) < 1.0
    assert d["bandwidth_hz"] < 5.0 and d["crest"] > 100.0

    dn = spectral_descriptors(noise, sr)
    assert dn["flatness"] > 0.3
    assert abs(dn["rolloff_hz"] - 0.85 * sr / 2) < 0.05 * sr / 2
    assert dn["bandwidth_hz"] > 1000.0 and dn["crest"] < 100.0
    assert spectral_descriptors(np.zeros(2, np.int16), sr) is None
    assert spectral_descriptors(np.zeros(100, np.int16), sr) is None

    ds = datagen.clips_dataset(300, audio_cap_ms=60, override_num_blocks=2)
    rows = collect_rows(ds.map_batches(AudioSpectralStage, batch_size=64,
                                       batch_format="pyarrow",
                                       concurrency=(1, 2)))
    assert len(rows) == 300
    ok = [r for r in rows if r["decode_ok"] and r["flatness"] is not None]
    assert len(ok) > 250
    # datagen clips are pure tones: centroid recovers the generator freq
    hits = total = 0
    for r in ok:
        if not r["clip_id"].startswith("clip-0"):
            continue
        i = int(r["clip_id"].split("-")[1])
        if i % 1013 == 0:
            continue
        f = datagen.clip_frequency(i)
        total += 1
        hits += abs(r["centroid_hz"] - f) / f < 0.05 and r["flatness"] < 0.05
    assert total > 200 and hits / total > 0.95
    bad = [r for r in rows if not r["decode_ok"]]
    assert bad and all(r["flatness"] is None for r in bad)


def test_pre_emphasis_and_delta_features():
    """Closed forms: pre-emphasis of a constant collapses to (1-coef);
    regression deltas of a linear ramp equal the slope exactly in the
    interior and ΔΔ is zero there; width guard raises."""
    from gojsonschema_ray.stages.audio import delta_features, pre_emphasis

    x = np.full(100, 1000, dtype=np.int16)
    y = pre_emphasis(x, 0.97)
    assert y.dtype == np.float32 and y[0] == 1000.0
    assert np.allclose(y[1:], 1000.0 * (1 - 0.97), atol=1e-3)
    assert len(pre_emphasis(np.zeros(0, np.int16))) == 0
    # linear ramp c_t = 3t per coefficient → delta = 3 in the interior
    T, C, w = 20, 4, 2
    ramp = (3.0 * np.arange(T))[:, None] * np.ones((1, C), np.float32)
    d = delta_features(ramp, width=w)
    assert np.allclose(d[w:-w], 3.0, atol=1e-5)
    dd = delta_features(d, width=w)
    assert np.allclose(dd[2 * w:-2 * w], 0.0, atol=1e-5)
    import pytest as _pt
    with _pt.raises(ValueError, match="width"):
        delta_features(ramp, width=0)


def test_spec_augment_deterministic_masks():
    """Keyed rng ⇒ identical masks across calls; masked cells carry the
    fill value, unmasked cells are untouched; zero-size matrices pass."""
    from gojsonschema_ray.stages.audio import _aug_rng, spec_augment

    rng = np.random.default_rng(3)
    m = rng.standard_normal((40, 24)).astype(np.float32) + 5.0
    a1 = spec_augment(m, _aug_rng(7, "clip-1", 0))
    a2 = spec_augment(m, _aug_rng(7, "clip-1", 0))
    assert np.array_equal(a1, a2)  # bit-identical under the same key
    a3 = spec_augment(m, _aug_rng(7, "clip-2", 0))
    assert not np.array_equal(a1, a3)  # different clip → different masks
    changed = a1 != m
    assert changed.any()
    assert np.allclose(a1[changed], m.mean())  # fill = matrix mean
    z = spec_augment(m, _aug_rng(7, "c", 0), fill="zero")
    assert (z[z != m] == 0.0).all()
    assert spec_augment(np.zeros((0, 24), np.float32),
                        _aug_rng(7, "c", 0)).size == 0
    import pytest as _pt
    with _pt.raises(ValueError, match="fill"):
        spec_augment(m, _aug_rng(7, "c", 0), fill="noise")


def test_spec_augment_stage_and_mfcc_deltas(ray_session):
    """SpecAugmentStage emits full flattened frame matrices whose
    unmasked cells equal the direct kernel composition; MfccStage
    deltas=True adds finite Δ/ΔΔ summary columns and keeps the base
    columns identical to deltas=False."""
    import pyarrow as pa
    import ray

    from gojsonschema_ray.stages.audio import (MfccStage, SpecAugmentStage,
                                               _aug_rng, logmel_frame_matrix,
                                               mel_filterbank, pre_emphasis,
                                               spec_augment)
    from gojsonschema_ray.util import collect_rows

    sr, n = 8000, 8000
    rng = np.random.default_rng(11)
    tone = np.rint(0.3 * 32767 * np.sin(
        2 * np.pi * 300 * np.arange(n) / sr)
        + 500 * rng.standard_normal(n)).astype(np.int16)
    tbl = pa.table({
        "clip_id": ["c1"], "bytes": [tone.tobytes()],
        "sr_hz": pa.array([sr], pa.int32()),
        "dur_ms": pa.array([1000], pa.int32()),
        "codec": ["pcm_s16le"], "transcript": [""],
    })
    (row,) = collect_rows(ray.data.from_arrow(tbl).map_batches(
        SpecAugmentStage, fn_constructor_kwargs=dict(seed=5),
        batch_format="pyarrow", concurrency=(1, 1)))
    got = np.array(row["mel_frames"], np.float32) \
        .reshape(row["n_frames"], row["n_mels"])
    fb = mel_filterbank(sr, 128, 24, 0.0, None)
    want = spec_augment(
        logmel_frame_matrix(pre_emphasis(tone, 0.97), sr, fb),
        _aug_rng(5, "c1", 0))
    assert np.array_equal(got, want)

    for kw, extra in [({}, False), (dict(deltas=True), True)]:
        (r,) = collect_rows(ray.data.from_arrow(tbl).map_batches(
            MfccStage, fn_constructor_kwargs=kw,
            batch_format="pyarrow", concurrency=(1, 1)))
        assert r["decode_ok"] and len(r["mfcc"]) == 13
        if extra:
            assert len(r["mfcc_d"]) == 13 and len(r["mfcc_dd_std"]) == 13
            assert all(np.isfinite(r["mfcc_d_std"]))
            base = r["mfcc"]
    # base mfcc identical whether or not deltas are computed
    (r0,) = collect_rows(ray.data.from_arrow(tbl).map_batches(
        MfccStage, batch_format="pyarrow", concurrency=(1, 1)))
    assert r0["mfcc"] == base


def test_weighted_global_quantiles(ray_session):
    """Weighted lower quantiles equal the SQL cum-weight idiom exactly,
    with point masses and across narrowing rounds (tiny collect_cap);
    q=0/1 edges; negative weights raise."""
    import duckdb
    import pandas as pd
    import pytest
    import ray.data as rd

    from gojsonschema_ray.stages.sketches import weighted_global_quantiles

    rng = np.random.default_rng(41)
    v = np.round(rng.lognormal(3, 1, 20_000), 2)
    v[rng.choice(20_000, 3_000, replace=False)] = 42.0  # heavy point mass
    w = rng.integers(1, 50, 20_000).astype("float64")
    df = pd.DataFrame({"v": v, "w": w})
    qs = [0.0, 0.1, 0.25, 0.5, 0.75, 0.9, 0.99, 1.0]
    got = weighted_global_quantiles(
        rd.from_pandas(df).repartition(6), "v", "w", qs,
        collect_cap=500, sample_per_block=16)  # force narrowing rounds
    exp = duckdb.sql(
        "WITH runs AS (SELECT v, sum(w) AS rw FROM df GROUP BY v), "
        "c AS (SELECT v, sum(rw) OVER (ORDER BY v) AS cw FROM runs), "
        "tot AS (SELECT sum(w) AS W FROM df) "
        "SELECT q, (SELECT min(v) FROM c, tot WHERE cw >= q * W) AS value "
        "FROM (SELECT unnest([0.0,0.1,0.25,0.5,0.75,0.9,0.99,1.0]) AS q)"
    ).df().sort_values("q").reset_index(drop=True)
    got = got.sort_values("q").reset_index(drop=True)
    assert got["value"].tolist() == exp["value"].tolist()  # bit-exact
    # q landing inside the point mass resolves to exactly 42.0
    mass_q = float((duckdb.sql(
        "SELECT (sum(w) FILTER (v < 42.0) + 1.0) / sum(w) FROM df"
    ).fetchone()[0]))
    r = weighted_global_quantiles(rd.from_pandas(df), "v", "w", [mass_q],
                                  collect_cap=500, sample_per_block=16)
    assert r["value"].iloc[0] == 42.0
    with pytest.raises(Exception, match="negative weight"):
        bad = pd.DataFrame({"v": [1.0, 2.0], "w": [1.0, -1.0]})
        weighted_global_quantiles(rd.from_pandas(bad), "v", "w", [0.5])
    with pytest.raises(ValueError, match="must be in"):
        weighted_global_quantiles(rd.from_pandas(df), "v", "w", [1.5])



def test_weighted_global_quantiles_infinities(ray_session):
    """-inf/+inf values are the lowest/highest weighted mass, as in the SQL
    cum-weight idiom; NaN and NULL values stay excluded."""
    import duckdb
    import pandas as pd
    import ray.data as rd

    from gojsonschema_ray.stages.sketches import weighted_global_quantiles

    inf = float("inf")
    qs = [0.0, 0.1, 0.3, 0.5, 0.9, 1.0]
    sql = ("WITH runs AS (SELECT v, sum(w) AS rw FROM df WHERE v IS NOT NULL "
           "AND NOT isnan(v) GROUP BY v), "
           "c AS (SELECT v, sum(rw) OVER (ORDER BY v) AS cw FROM runs), "
           "tot AS (SELECT sum(rw) AS W FROM runs) "
           "SELECT q, (SELECT min(v) FROM c, tot WHERE cw >= q * W) AS value "
           f"FROM (SELECT unnest({qs}) AS q) ORDER BY q")
    for vals, ws in (
            ([1.0, 2.0, 3.0, inf, inf, inf, -inf], [1.0] * 7),
            ([1.0, 2.0, 3.0, inf, inf, inf, -inf, float("nan"), None],
             [1.0] * 9),
            ([5.0, -inf, inf, 7.0], [1.0, 3.0, 2.0, 4.0]),
            ([-inf, inf, -inf], [1.0, 1.0, 2.0]),
            ([5.0] * 50 + [6.0] * 50, [1.0] * 100),  # point-mass minimum
            ([5.0] * 50 + np.arange(6.0, 56.0).tolist(), [1.0] * 100)):
        df = pd.DataFrame({"v": pd.Series(vals, dtype="float64"), "w": ws})
        got = weighted_global_quantiles(
            rd.from_pandas(df).repartition(2), "v", "w", qs,
            collect_cap=2, sample_per_block=2)
        exp = duckdb.sql(sql).df()
        assert got["value"].tolist() == exp["value"].tolist(), vals
    df = pd.DataFrame({"v": [1.0, 2.0, 3.0, inf, inf, inf, -inf],
                       "w": [1.0] * 7})
    got = weighted_global_quantiles(rd.from_pandas(df), "v", "w",
                                    [0.1, 0.5, 0.9])
    assert got["value"].tolist() == [-inf, 3.0, inf]

def test_join_size_profile(ray_session):
    """Exact Σ c_a·c_b total + hot keys first; NULL keys never join;
    disjoint sides → 0."""
    import duckdb
    import pandas as pd
    import ray.data as rd

    from gojsonschema_ray.stages.joins import join_size_profile

    rng = np.random.default_rng(53)
    a = pd.DataFrame({"k": rng.integers(0, 50, 5000).astype("float64")})
    a.loc[rng.choice(5000, 100, replace=False), "k"] = np.nan
    a.loc[:800, "k"] = 7.0  # hot key
    b = pd.DataFrame({"kk": rng.integers(0, 60, 3000).astype("float64")})
    total, top = join_size_profile(
        rd.from_pandas(a).repartition(4), rd.from_pandas(b).repartition(3),
        left_on="k", right_on="kk", top=5)
    exp = duckdb.sql(
        "WITH ca AS (SELECT k AS key, count(*) AS c FROM a "
        "WHERE k IS NOT NULL GROUP BY 1), "
        "cb AS (SELECT kk AS key, count(*) AS c FROM b GROUP BY 1) "
        "SELECT ca.key, ca.c AS nl, cb.c AS nr, ca.c*cb.c AS pairs "
        "FROM ca JOIN cb USING(key) ORDER BY pairs DESC, key LIMIT 5"
    ).df()
    assert total == int(duckdb.sql(
        "WITH ca AS (SELECT k AS key, count(*) AS c FROM a "
        "WHERE k IS NOT NULL GROUP BY 1), "
        "cb AS (SELECT kk AS key, count(*) AS c FROM b GROUP BY 1) "
        "SELECT sum(ca.c*cb.c) FROM ca JOIN cb USING(key)").fetchone()[0])
    assert top["key"].tolist() == exp["key"].tolist()
    assert top["pairs"].tolist() == exp["pairs"].tolist()
    assert top["key"].iloc[0] == 7.0  # the planted hot key leads
    t0, e0 = join_size_profile(
        rd.from_pandas(pd.DataFrame({"k": [1.0, 2.0]})),
        rd.from_pandas(pd.DataFrame({"kk": [9.0]})),
        left_on="k", right_on="kk")
    assert t0 == 0 and len(e0) == 0


def test_join_size_profile_nan_keys(ray_session):
    """NaN keys (any sign bit) join each other as in SQL: their pairs count
    once in the total and rank among the hot keys — the per-partition
    total row is flagged, never confused with a NaN key."""
    import duckdb
    import ray.data as rd

    from gojsonschema_ray.stages.joins import join_size_profile

    nan, neg_nan = float("nan"), -float("nan")
    a = pa.table({"k": pa.array([nan] * 30 + [neg_nan] * 10 + [1.0] * 5
                                + [2.0] * 3 + [None] * 4, pa.float64())})
    b = pa.table({"kk": pa.array([nan] * 2 + [1.0] * 4 + [3.0] * 7,
                                 pa.float64())})
    total, top = join_size_profile(rd.from_arrow(a).repartition(3),
                                   rd.from_arrow(b).repartition(2),
                                   left_on="k", right_on="kk", top=5)
    exp_total = duckdb.sql(
        "SELECT count(*) FROM a JOIN b ON a.k = b.kk").fetchone()[0]
    assert exp_total == 40 * 2 + 5 * 4
    assert total == exp_total
    assert top["pairs"].tolist() == [80, 20]
    assert np.isnan(top["key"].iloc[0]) and top["key"].iloc[1] == 1.0
    assert top["n_left"].tolist() == [40, 5]
    assert top["n_right"].tolist() == [2, 4]


def test_union_by_name(ray_session):
    """Differing column sets/orders/types union by name with null fill
    and type promotion, matching duckdb's UNION ALL BY NAME; strict mode
    rejects dropped columns."""
    import duckdb
    import pandas as pd
    import pytest
    import ray.data as rd

    from gojsonschema_ray.stages.reshape import union_by_name
    from gojsonschema_ray.util import collect_table

    a = pd.DataFrame({"id": np.arange(5, dtype="int32"),
                      "v": np.arange(5, dtype="float64"),
                      "tag": ["a"] * 5})
    b = pd.DataFrame({"v": np.arange(3, dtype="int64"),   # reordered +
                      "id": np.arange(10, 13, dtype="int64")})  # promoted
    c = pd.DataFrame({"id": [99], "extra": ["new-col"]})
    got = collect_table(union_by_name(
        [rd.from_pandas(x) for x in (a, b, c)])).to_pandas()
    exp = duckdb.sql(
        "SELECT * FROM a UNION ALL BY NAME SELECT * FROM b "
        "UNION ALL BY NAME SELECT * FROM c").df()
    key = ["id", "v", "tag", "extra"]
    got = got[key].sort_values(key, na_position="last") \
        .reset_index(drop=True)
    exp = exp[key].sort_values(key, na_position="last") \
        .reset_index(drop=True)
    pd.testing.assert_frame_equal(got, exp, check_dtype=False)
    assert str(got["id"].dtype) == "int64"  # int32 promoted
    with pytest.raises(ValueError, match="missing columns"):
        union_by_name([rd.from_pandas(a), rd.from_pandas(b)], strict=True)
    # strict passes when names agree (order/type may differ)
    s = collect_table(union_by_name(
        [rd.from_pandas(a), rd.from_pandas(a[["tag", "v", "id"]])],
        strict=True))
    assert s.num_rows == 10
    with pytest.raises(ValueError, match="no datasets"):
        union_by_name([])


def test_chroma_features_and_stage(ray_session):
    """Pure tones land in their equal-tempered pitch class; octave
    shifts land in the SAME class (the chroma invariant); gain shifts
    leave the normalized vector ~unchanged; stage degrades bad rows."""
    import pyarrow as pa
    import ray

    from gojsonschema_ray.stages.audio import (ChromaStage,
                                               chroma_features,
                                               chroma_filterbank)
    from gojsonschema_ray.util import collect_rows

    sr = 16000
    cb = chroma_filterbank(sr, 2048)  # semitone resolution needs ≥2048
    assert cb.shape == (12, 1025)

    def tone(f, amp=0.4, n=16000):
        return np.rint(amp * 32767 * np.sin(
            2 * np.pi * f * np.arange(n) / sr)).astype(np.int16)

    # A4=440 → class 9; C5≈523.25 → class 0; E4≈329.63 → class 4
    for f, cls in [(440.0, 9), (880.0, 9), (220.0, 9),   # octaves of A
                   (523.25, 0), (329.63, 4)]:
        nf, ch = chroma_features(tone(f), sr, cb)
        assert nf > 0 and int(np.argmax(ch)) == cls
        # window leakage lands in ±1-semitone neighbours; the class
        # still dominates by a wide margin
        assert ch[cls] > 0.6 and ch[cls] > 2 * np.sort(ch)[-2]
    # gain invariance of the normalized profile
    _, lo = chroma_features(tone(440.0, amp=0.05), sr, cb)
    _, hi = chroma_features(tone(440.0, amp=0.8), sr, cb)
    assert np.allclose(lo, hi, atol=1e-3)
    _, none = chroma_features(np.zeros(0, np.int16), sr, cb)
    assert none is None

    tbl = pa.table({
        "clip_id": ["a", "bad"],
        "bytes": [tone(440.0).tobytes(), b"\x01"],
        "sr_hz": pa.array([sr, sr], pa.int32()),
        "dur_ms": pa.array([1000, 1], pa.int32()),
        "codec": ["pcm_s16le", "pcm_s16le"],
        "transcript": ["", ""],
    })
    rows = {r["clip_id"]: r for r in collect_rows(
        ray.data.from_arrow(tbl).map_batches(
            ChromaStage, batch_format="pyarrow", concurrency=(1, 1)))}
    assert rows["a"]["decode_ok"] and rows["a"]["pitch_class"] == 9
    assert not rows["bad"]["decode_ok"]


def test_discretize_quantile(ray_session):
    """Bucket ids equal the SQL #cutpoints<=v idiom on shared
    quantile_cont cutpoints; bins are ~equal-frequency; nulls pass
    through with null bucket."""
    import duckdb
    import pandas as pd
    import pytest
    import ray.data as rd

    from gojsonschema_ray.stages.sketches import discretize_quantile
    from gojsonschema_ray.util import collect_table

    rng = np.random.default_rng(61)
    df = pd.DataFrame({"id": np.arange(8000, dtype="int64"),
                       "v": rng.lognormal(2, 1, 8000)})
    df.loc[::97, "v"] = np.nan
    got = collect_table(discretize_quantile(
        rd.from_pandas(df).repartition(5), "v", 8)).to_pandas() \
        .sort_values("id").reset_index(drop=True)
    exp = duckdb.sql(
        "WITH cuts AS (SELECT unnest([quantile_cont(v, 0.125), "
        "quantile_cont(v, 0.25), quantile_cont(v, 0.375), "
        "quantile_cont(v, 0.5), quantile_cont(v, 0.625), "
        "quantile_cont(v, 0.75), quantile_cont(v, 0.875)]) AS c FROM df) "
        "SELECT id, CASE WHEN v IS NULL THEN NULL ELSE "
        "(SELECT count(*) FROM cuts WHERE c <= v) END AS bucket "
        "FROM df ORDER BY id").df()
    assert got["bucket"].fillna(-1).astype("int64").tolist() == \
        exp["bucket"].fillna(-1).astype("int64").tolist()
    counts = got["bucket"].value_counts()
    assert len(counts) == 8 and counts.max() - counts.min() < 100
    with pytest.raises(ValueError, match="k="):
        discretize_quantile(rd.from_pandas(df), "v", 1)


def test_discretize_quantile_infinities(ray_session):
    """-inf/+inf bucket like any value (0 / k-1), as the SQL #cutpoints<=v
    idiom does over the same cutpoints; only NULL and NaN rows get a NULL
    bucket."""
    import duckdb
    import ray.data as rd

    from gojsonschema_ray.stages.sketches import (
        discretize_quantile, exact_global_quantiles,
    )
    from gojsonschema_ray.util import collect_table

    inf = float("inf")
    vals = [float(i) for i in range(40)] + [inf, -inf, inf, float("nan"),
                                            None]
    t = pa.table({"id": pa.array(range(len(vals)), pa.int64()),
                  "v": pa.array(vals, pa.float64())})
    got = collect_table(discretize_quantile(
        rd.from_arrow(t).repartition(3), "v", 4)).to_pandas() \
        .sort_values("id").reset_index(drop=True)
    b = got["bucket"]
    assert b.iloc[40] == 3 and b.iloc[42] == 3 and b.iloc[41] == 0
    assert b.iloc[43:].isna().all() and b.iloc[:43].notna().all()
    cuts = exact_global_quantiles(rd.from_arrow(t), "v", [0.25, 0.5, 0.75])
    cuts = pa.table({"c": cuts["value"].to_numpy(dtype=np.float64)})
    exp = duckdb.sql(
        "SELECT id, CASE WHEN v IS NULL OR isnan(v) THEN NULL ELSE "
        "(SELECT count(*) FROM cuts WHERE c <= v) END AS bucket "
        "FROM t ORDER BY id").df()
    assert b.fillna(-1).astype("int64").tolist() == \
        exp["bucket"].fillna(-1).astype("int64").tolist()


def test_onset_detection_and_tempo(ray_session):
    """A 120-BPM click track yields one onset per click within a frame
    and tempo ~120; steady tones and silence yield no onsets."""
    import pyarrow as pa
    import ray

    from gojsonschema_ray.stages.audio import (OnsetStage, detect_onsets,
                                               estimate_tempo)
    from gojsonschema_ray.util import collect_rows

    sr = 16000
    dur = 4.0
    click_t = np.arange(0.25, dur - 0.1, 0.5)  # 120 BPM
    pcm = np.zeros(int(sr * dur), dtype=np.int16)
    for t in click_t:
        i = int(t * sr)
        pcm[i:i + 64] = (20000 * np.hanning(64)).astype(np.int16)
    got = detect_onsets(pcm, sr)
    assert len(got) == len(click_t)
    frame_ms = 256 / sr * 1000
    assert np.max(np.abs(got - click_t * 1000.0)) < 2 * frame_ms
    bpm = estimate_tempo(got)
    assert abs(bpm - 120.0) < 3.0
    # steady tone: no flux peaks after the attack settles; silence: none
    tone = np.rint(0.4 * 32767 * np.sin(
        2 * np.pi * 440 * np.arange(sr) / sr)).astype(np.int16)
    assert len(detect_onsets(tone, sr)) <= 1
    assert len(detect_onsets(np.zeros(sr, np.int16), sr)) == 0
    assert estimate_tempo(np.zeros(0)) is None
    # octave folding: 30 BPM ioi folds into [40, 240)
    assert 40 <= estimate_tempo(np.array([0.0, 2000.0, 4000.0])) < 240

    tbl = pa.table({
        "clip_id": ["clicks"], "bytes": [pcm.tobytes()],
        "sr_hz": pa.array([sr], pa.int32()),
        "dur_ms": pa.array([int(dur * 1000)], pa.int32()),
        "codec": ["pcm_s16le"], "transcript": [""],
    })
    (row,) = collect_rows(ray.data.from_arrow(tbl).map_batches(
        OnsetStage, batch_format="pyarrow", concurrency=(1, 1)))
    assert row["n_onsets"] == len(click_t)
    assert abs(row["tempo_bpm"] - 120.0) < 3.0


def test_codec_roundtrip_stage(ray_session):
    """G.711 round trip of a speech-level sine sits in the ~33-40 dB
    band (pass at 25); a near-full-scale square through mu-law stays
    high; pcm_s16le round-trips bit-exactly (inf SNR); silence passes
    vacuously; bad rows degrade."""
    import pyarrow as pa
    import pytest
    import ray

    from gojsonschema_ray.stages.audio import CodecRoundtripStage
    from gojsonschema_ray.util import collect_rows

    sr = 8000
    tone = np.rint(0.3 * 32767 * np.sin(
        2 * np.pi * 440 * np.arange(sr) / sr)).astype(np.int16)
    tbl = pa.table({
        "clip_id": ["t", "z", "bad"],
        "bytes": [tone.tobytes(), np.zeros(100, np.int16).tobytes(),
                  b"\x01"],
        "sr_hz": pa.array([sr] * 3, pa.int32()),
        "dur_ms": pa.array([1000, 12, 1], pa.int32()),
        "codec": ["pcm_s16le"] * 3,
        "transcript": [""] * 3,
    })
    for codec, lo, hi in [("ulaw", 30.0, 45.0), ("alaw", 30.0, 45.0)]:
        rows = {r["clip_id"]: r for r in collect_rows(
            ray.data.from_arrow(tbl).map_batches(
                CodecRoundtripStage,
                fn_constructor_kwargs=dict(target_codec=codec),
                batch_format="pyarrow", concurrency=(1, 1)))}
        assert lo < rows["t"]["roundtrip_snr_db"] < hi and rows["t"]["ok"]
        # silence passes vacuously (A-law's idle channel sits at ±8 — no
        # exact zero code — so an SNR there would be meaningless)
        assert rows["z"]["roundtrip_snr_db"] is None and rows["z"]["ok"]
        assert not rows["bad"]["decode_ok"]
    rows = {r["clip_id"]: r for r in collect_rows(
        ray.data.from_arrow(tbl).map_batches(
            CodecRoundtripStage,
            fn_constructor_kwargs=dict(target_codec="pcm_s16le"),
            batch_format="pyarrow", concurrency=(1, 1)))}
    assert rows["t"]["roundtrip_snr_db"] == np.inf
    with pytest.raises(ValueError, match="target_codec"):
        CodecRoundtripStage(target_codec="mp3")


def test_add_reverb_and_augment(ray_session):
    """Reverb adds a decaying tail after an impulse, is deterministic
    under the keyed rng, never exceeds the dry peak, and flows through
    AudioAugmentStage bit-identically across reruns."""
    import pyarrow as pa
    import pytest
    import ray

    from gojsonschema_ray.stages.audio import (AudioAugmentStage,
                                               _aug_rng, add_reverb)
    from gojsonschema_ray.util import collect_rows

    sr = 8000
    imp = np.zeros(4000, dtype=np.int16)
    imp[100] = 20000
    wet1 = add_reverb(imp, sr, _aug_rng(3, "c", 0), rt60_ms=200, wet=0.5)
    wet2 = add_reverb(imp, sr, _aug_rng(3, "c", 0), rt60_ms=200, wet=0.5)
    assert np.array_equal(wet1, wet2)  # keyed determinism
    # tail energy exists after the impulse (dry signal is zero there);
    # IR length = rt60 → tail spans [100, 100+1600)
    tail = wet1[300:1500]
    assert float(np.sqrt(np.mean(tail * tail))) > 1.0
    # early tail louder than late tail (exponential decay)
    assert np.abs(wet1[200:600]).mean() > 3 * np.abs(wet1[1200:1600]).mean()
    assert np.max(np.abs(wet1)) <= 20000 + 1e-9  # dry-peak ceiling
    assert add_reverb(imp[:0], sr, _aug_rng(3, "c", 0)).size == 0

    tbl = pa.table({
        "clip_id": ["c1"], "bytes": [imp.tobytes()],
        "sr_hz": pa.array([sr], pa.int32()),
        "dur_ms": pa.array([500], pa.int32()),
        "codec": ["pcm_s16le"], "transcript": [""],
    })
    outs = []
    for _ in range(2):
        (row,) = collect_rows(ray.data.from_arrow(tbl).map_batches(
            AudioAugmentStage,
            fn_constructor_kwargs=dict(reverb=(200.0, 0.5), seed=3),
            batch_format="pyarrow", concurrency=(1, 1)))
        outs.append(row["bytes"])
    assert outs[0] == outs[1]  # rerun bit-identical
    assert np.frombuffer(outs[0], dtype="<i2")[300:1500].any()  # wet tail
    with pytest.raises(ValueError, match="reverb"):
        AudioAugmentStage(reverb=(0, 0.5))


def test_discover_fds(ray_session):
    """Planted dependencies are found (a→b via b=a%5 ... wait, b=f(a)),
    non-dependencies are rejected, counts equal SQL distinct counts,
    nulls count as a distinct value."""
    import duckdb
    import pandas as pd
    import pytest
    import ray.data as rd

    from gojsonschema_ray.stages.infer import discover_fds

    rng = np.random.default_rng(71)
    a = rng.integers(0, 40, 6000)
    df = pd.DataFrame({
        "a": a.astype("int64"),
        "b": (a % 7).astype("int64"),            # a → b holds
        "c": rng.integers(0, 3, 6000).astype("int64"),  # independent
        "d": [None if i % 11 == 0 else f"s{v % 4}"      # nulls distinct
              for i, v in enumerate(a)],
    })
    got = discover_fds(rd.from_pandas(df).repartition(4),
                       ["a", "b", "c", "d"])
    g = {(r["det"], r["dep"]): r for _, r in got.iterrows()}
    assert g[("a", "b")]["holds"] and not g[("b", "a")]["holds"]
    assert not g[("a", "c")]["holds"] and not g[("c", "a")]["holds"]
    # exact counts vs SQL for one pair (null sentinel semantics shared)
    nd, npair = duckdb.sql(
        "SELECT count(DISTINCT coalesce(CAST(a AS VARCHAR), chr(0))), "
        "count(DISTINCT coalesce(CAST(a AS VARCHAR), chr(0)) || chr(1) "
        "|| coalesce(CAST(d AS VARCHAR), chr(0))) FROM df").fetchone()
    assert (g[("a", "d")]["n_det"], g[("a", "d")]["n_pairs"]) \
        == (int(nd), int(npair))
    with pytest.raises(ValueError, match=">= 2"):
        discover_fds(rd.from_pandas(df), ["a"])


def test_stored_key_counts_read_only_own_part(ray_session, tmp_path,
                                              monkeypatch):
    """KeyCountStage.write stores a partial sorted by `part`, one row group
    per part value, its tag width in the schema metadata. Reducer p reads
    only the row groups of part p of a file tagged at the current width,
    and re-tags a file of another width or of the untagged older layout
    whole. stored_key_count_violations over all of them equals the counts
    of the raw keys (NULL keys ignored)."""
    from collections import Counter

    import pyarrow.parquet as pq

    from gojsonschema_ray.stages import uniqueness
    from gojsonschema_ray.stages.exchange import hash_part
    from gojsonschema_ray.stages.validate import VIOLATION_SCHEMA
    from gojsonschema_ray.util import collect_rows

    P = 4
    monkeypatch.setattr(uniqueness, "exchange_parts", lambda: P)
    batches = [[None if i % 13 == 0 else "hot" if i % 5 == 0
                else f"k{(i * 7 + b) % 300}" for i in range(400)]
               for b in range(5)]
    stage = uniqueness.KeyCountStage("clip_id")
    paths = [str(tmp_path / f"{b}.parquet") for b in range(5)]
    for b in range(3):
        stage.write(pa.table({"clip_id": batches[b]}), paths[b])
    narrow = uniqueness.KeyCountStage("clip_id")
    narrow.n_parts = 3
    narrow.write(pa.table({"clip_id": batches[3]}), paths[3])
    pq.write_table(stage(pa.table({"clip_id": batches[4]})), paths[4])

    f = pq.ParquetFile(paths[0])
    assert f.schema_arrow.metadata[uniqueness.PART_WIDTH] == b"4"
    tags = [f.metadata.row_group(i).column(2).statistics
            for i in range(f.metadata.num_row_groups)]
    assert [(s.min, s.max) for s in tags] == [(p, p) for p in range(P)]

    calls = []
    orig_groups, orig_read = pq.ParquetFile.read_row_groups, pq.ParquetFile.read

    def spy_groups(self, row_groups, *a, **kw):
        calls.append(("groups", [self.metadata.row_group(i).column(2)
                                 .statistics.min for i in row_groups]))
        return orig_groups(self, row_groups, *a, **kw)

    def spy_read(self, *a, **kw):
        calls.append(("whole", None))
        return orig_read(self, *a, **kw)

    with monkeypatch.context() as m:
        m.setattr(pq.ParquetFile, "read_row_groups", spy_groups)
        m.setattr(pq.ParquetFile, "read", spy_read)
        for b, path in enumerate(paths):
            stored = pq.read_table(path)
            tag = hash_part(stored["clip_id"], P).to_numpy()
            for p in range(P):
                calls.clear()
                got = uniqueness._stored_part(path, "clip_id", p, P)
                assert got.column_names == ["clip_id", "cnt"]
                assert got.num_rows == int((tag == p).sum()), (b, p)
                assert sorted(got["clip_id"].to_pylist(), key=str) == sorted(
                    stored.filter(pa.array(tag == p))["clip_id"].to_pylist(),
                    key=str)
                if b < 3:  # tagged at width P: part p's row groups only
                    assert calls == [("groups", [p])], (b, p)
                else:  # width 3 or untagged: the whole file, re-tagged
                    assert calls == [("whole", None)], (b, p)

    counts = Counter(k for keys in batches for k in keys if k is not None)
    expected = sorted((k, "unique", "(root).clip_id", "unique clip_id", str(c))
                      for k, c in counts.items() if c >= 2)
    viol = uniqueness.stored_key_count_violations(paths, "clip_id")
    assert viol.schema().base_schema == VIOLATION_SCHEMA
    got = sorted(tuple(r[c] for c in VIOLATION_SCHEMA.names)
                 for r in collect_rows(viol))
    assert got == expected and len(expected) > 100
