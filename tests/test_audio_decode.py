"""The one audio decode walk (`stages.audio.decode_clips`) and the stages
built on it.

One hand-built clips batch holds every payload class a decode can meet
(good, truncated, garbage, stereo, 8-bit, odd-length, empty, null, G.711,
unknown codec, and rows whose rate is missing, zero or disagrees with the
WAV header). The expected value of every row is written out by hand from
the payload's construction, never taken from the engine (FIXTURES.md)."""

import io
import pathlib
import wave

import numpy as np
import pyarrow as pa
import pytest

from gojsonschema_ray.datagen import row_meta
from gojsonschema_ray.functions import g711
from gojsonschema_ray.stages import audio, multimodal

SR = 8000
N = 400  # 50 ms at 8 kHz: the checker's default cap, so expected_n = 400
PCM = (0.5 * 32767 * np.sin(2 * np.pi * 440 * np.arange(N) / SR)
       ).astype(np.int16)


def _wav(pcm, sr=SR, ch=1, width=2) -> bytes:
    buf = io.BytesIO()
    with wave.open(buf, "wb") as w:
        w.setnchannels(ch)
        w.setsampwidth(width)
        w.setframerate(sr)
        w.writeframes(pcm.tobytes())
    return buf.getvalue()


GOOD_WAV = _wav(PCM)
NONPCM = bytearray(GOOD_WAV)
NONPCM[20:22] = (0xFFFE).to_bytes(2, "little")  # WAVE_FORMAT_EXTENSIBLE

# (clip_id, codec, sr_hz, transcript, payload); dur_ms is 50 on every row
ROWS = [
    ("good-wav", "wav", SR, "t", GOOD_WAV),
    ("good-pcm", "pcm_s16le", SR, "t", PCM.tobytes()),
    ("trunc-wav", "wav", SR, "t", GOOD_WAV[:44 + 2 * 200]),  # 200 samples
    ("garbage", "wav", SR, "t", b"nonsense" * 10),
    ("riff-empty", "wav", SR, "t", b"RIFF\x04\x00\x00\x00WAVE"),
    ("prefix30", "wav", SR, "t", GOOD_WAV[:30]),
    ("nonpcm", "wav", SR, "t", bytes(NONPCM)),
    ("stereo", "wav", SR, "t", _wav(np.repeat(PCM, 2), ch=2)),
    ("8bit", "wav", SR, "t", _wav(PCM.astype(np.uint8), width=1)),
    ("odd-pcm", "pcm_s16le", SR, "t", PCM.tobytes() + b"\x00"),
    ("empty-wav", "wav", SR, "t", b""),
    ("empty-pcm", "pcm_s16le", SR, "t", b""),
    ("null", "wav", SR, "t", None),
    ("ulaw", "ulaw", SR, "t", g711.ulaw_encode(PCM).tobytes()),
    ("alaw", "alaw", SR, "t", g711.alaw_encode(PCM).tobytes()),
    ("unknown", "mp3", SR, "t", b"\xff\xfb" * 100),
    ("sr-null", "pcm_s16le", None, "t", PCM.tobytes()),
    ("sr-zero", "pcm_s16le", 0, "t", PCM.tobytes()),
    ("wav-rate", "wav", SR, "t", _wav(PCM, sr=2 * SR)),
    ("wav-sr-null", "wav", None, "t", GOOD_WAV),
    ("clip-5", "pcm_s16le", SR, "not the reference", PCM.tobytes()),
    ("clip-3", "pcm_s16le", SR, row_meta(3)["transcript"], PCM.tobytes()),
]
IDS = [r[0] for r in ROWS]


def _batch(bytes_array) -> pa.Table:
    return pa.table({
        "clip_id": pa.array(IDS),
        "bytes": bytes_array,
        "sr_hz": pa.array([r[2] for r in ROWS], pa.int32()),
        "dur_ms": pa.array([50] * len(ROWS), pa.int32()),
        "codec": pa.array([r[1] for r in ROWS]),
        "transcript": pa.array([r[3] for r in ROWS]),
    })


PAYLOADS = [r[4] for r in ROWS]
LAYOUTS = {
    "binary": lambda: pa.array(PAYLOADS, pa.binary()),
    "large_binary": lambda: pa.array(PAYLOADS, pa.large_binary()),
    "binary_view": lambda: pa.array(PAYLOADS, pa.binary_view()),
    # one leading byte: the array's offset and every payload start are odd
    "sliced_odd": lambda: pa.array([b"x"] + PAYLOADS, pa.binary()).slice(1),
    "chunked": lambda: pa.chunked_array(
        [pa.array(PAYLOADS[:7], pa.binary()),
         pa.array(PAYLOADS[7:], pa.binary())]),
}


def _stage_outputs(batch: pa.Table) -> dict:
    return {
        "checker": audio.AudioInvariantChecker()(batch),
        "features": audio.AudioFeatureStage()(batch),
        "transform": audio.AudioTransformStage(target_sr=16000)(batch),
        "fingerprint": audio.AudioFingerprintStage()(batch),
        "activity": audio.AudioActivityStage()(batch),
        "multimodal": multimodal.AudioFeatureStage(n_frames=16)(batch),
        "pcm_rows": [(i, cid, sr, None if p is None else p.tolist())
                     for i, cid, sr, p in audio.decoded_pcm_rows(batch)],
    }


@pytest.mark.parametrize("layout", [k for k in LAYOUTS if k != "binary"])
def test_stages_agree_across_column_layouts(layout):
    """Every decode consumer gives the same table whatever the physical
    type or offset of the `bytes` column."""
    ref = _stage_outputs(_batch(LAYOUTS["binary"]()))
    got = _stage_outputs(_batch(LAYOUTS[layout]()))
    for name in ref:
        assert got[name] == ref[name], name


DECODE = ("decode", "wav decodes", "ValueError")
# row -> the checker's (keyword, expected, actual) rows
CHECKER = {
    "trunc-wav": [("pcm_length", "400 samples", "200 samples")],
    "garbage": [DECODE],
    "riff-empty": [DECODE],
    "prefix30": [DECODE],
    "nonpcm": [DECODE],
    "stereo": [DECODE],
    "8bit": [DECODE],
    "odd-pcm": [("decode", "pcm_s16le decodes", "ValueError")],
    "empty-wav": [DECODE],
    "empty-pcm": [("pcm_length", "400 samples", "0 samples")],
    "null": [("required", "required bytes", "")],
    "unknown": [("decode", "decodable codec", "mp3")],
    "sr-zero": [("pcm_length", "0 samples", "400 samples")],
    "clip-5": [("transcript", "reference transcript", "not the reference")],
}
# decode_ok of the degrade-to-row stages: a row decodes unless its payload
# is null, malformed or of an unknown codec ...
UNDECODABLE = {"garbage", "riff-empty", "prefix30", "nonpcm", "stereo",
               "8bit", "odd-pcm", "empty-wav", "null", "unknown"}
# ... and unless the stage's rate rule rejects it: features and activity
# need int(header rate or sr_hz) (features divide by it), the transform
# needs sr_hz itself, decoded_pcm_rows a positive rate
RATE_FAILS = {
    "features": {"sr-null", "sr-zero"},
    "activity": {"sr-null"},
    "transform": {"sr-null", "sr-zero", "wav-sr-null"},
    "fingerprint": set(),
    "pcm_rows": {"sr-null", "sr-zero"},
}
N_SAMPLES = {"trunc-wav": 200, "empty-pcm": 0}
# the multimodal stage keeps rows of at least n_frames=16 samples
MULTIMODAL_KEPT = [c for c in IDS
                   if c not in UNDECODABLE and c not in {"empty-pcm"}]


def test_stage_contracts_by_hand():
    batch = _batch(LAYOUTS["binary"]())
    out = _stage_outputs(batch)

    v = out["checker"]
    got = {}
    for key, kw, path, exp, act in zip(*(v[c].to_pylist()
                                         for c in v.column_names)):
        assert path == ("(root).transcript" if kw == "transcript"
                        else "(root).bytes")
        got.setdefault(key, []).append((kw, exp, act))
    assert got == CHECKER

    for name in ("features", "transform", "fingerprint", "activity"):
        ok = dict(zip(IDS, out[name]["decode_ok"].to_pylist()))
        assert ok == {c: c not in UNDECODABLE | RATE_FAILS[name]
                      for c in IDS}, name
    ok_pcm = {cid: p is not None for _, cid, _, p in out["pcm_rows"]}
    assert ok_pcm == {c: c not in UNDECODABLE | RATE_FAILS["pcm_rows"]
                      for c in IDS}

    fp = out["fingerprint"].to_pydict()
    for cid, ok, n in zip(fp["clip_id"], fp["decode_ok"], fp["n_samples"]):
        assert n == (N_SAMPLES.get(cid, N) if ok else None), cid
    # rates: the WAV header rate wins over sr_hz wherever a rate is used
    rates = {cid: sr for _, cid, sr, p in out["pcm_rows"] if p is not None}
    assert (rates["wav-rate"], rates["wav-sr-null"], rates["good-pcm"]) \
        == (2 * SR, SR, SR)
    tr = out["transform"].to_pydict()
    assert dict(zip(tr["clip_id"], tr["n_samples_out"]))["wav-rate"] == N
    # G.711 rows decode to the companded sine, within 4% of full scale
    for _, cid, _, p in out["pcm_rows"]:
        if cid in ("ulaw", "alaw"):
            assert np.max(np.abs(np.asarray(p) - PCM)) < 0.04 * 32767

    assert out["multimodal"]["clip_id"].to_pylist() == MULTIMODAL_KEPT
    assert all(len(r) == 16 for r in out["multimodal"]["rms"].to_pylist())


def test_walk_statuses():
    """decode_clips yields one status per row: ok, null, codec (no decoder)
    or the decode exception's type name; pcm is set only when ok."""
    batch = _batch(LAYOUTS["binary"]())
    got = [(i, st, None if p is None else len(p), sr)
           for i, p, sr, st in audio.decode_clips(
               batch["bytes"], batch["codec"].to_pylist())]
    assert [g[0] for g in got] == list(range(len(ROWS)))
    st = dict(zip(IDS, (g[1] for g in got)))
    assert st["null"] == "null" and st["unknown"] == "codec"
    assert {c for c in IDS if st[c] == "ValueError"} \
        == UNDECODABLE - {"null", "unknown"}
    assert {c for c in IDS if st[c] == "ok"} == set(IDS) - UNDECODABLE
    for (i, status, n, file_sr), cid in zip(got, IDS):
        assert (n is None) == (status != "ok"), cid
        if status == "ok":
            assert n == N_SAMPLES.get(cid, N), cid
            # a header rate only for WAV; the other codecs carry none
            assert file_sr == {"wav-rate": 2 * SR}.get(
                cid, SR if ROWS[i][1] == "wav" else None), cid


def test_one_decode_walk_in_source():
    """`binary_column_views(` and `base_decoders()` are called only inside
    `decode_clips`; no audio stage keeps a Python-bytes copy of the
    payload column."""
    import inspect

    root = pathlib.Path(__file__).resolve().parents[1]
    walk = inspect.getsource(audio.decode_clips)
    for needle in ("binary_column_views(", "base_decoders()"):
        calls = [(f.relative_to(root), line.strip())
                 for f in sorted((root / "gojsonschema_ray").rglob("*.py"))
                 for line in f.read_text().splitlines()
                 if needle in line and not line.lstrip().startswith("def ")]
        assert len(calls) == 1 and calls[0][1] in walk, calls
    for f in ("audio.py", "multimodal.py"):
        src = (root / "gojsonschema_ray" / "stages" / f).read_text()
        assert '["bytes"].to_pylist()' not in src
        assert "blobs[i]" not in src


def test_one_sine_fit_in_source():
    """The exact SNR kernel and the checker's screen share one sine-fit
    loop (`_sine_fit_snr`), and `_peak_frequencies` has only its three
    callers: the exact kernel, the screen and `_peak_frequency`."""
    import ast
    import inspect

    root = pathlib.Path(__file__).resolve().parents[1]
    src = (root / "gojsonschema_ray" / "stages" / "audio.py").read_text()
    fit = inspect.getsource(audio._sine_fit_snr)
    for needle in ("np.linalg.solve(", "np.sin(W"):
        assert src.count(needle) == 1 and needle in fit, needle
    callers = []
    for f in sorted((root / "gojsonschema_ray").rglob("*.py")):
        for fn in ast.walk(ast.parse(f.read_text())):
            if isinstance(fn, ast.FunctionDef):
                callers += [fn.name for c in ast.walk(fn)
                            if isinstance(c, ast.Call)
                            and getattr(c.func, "id", getattr(
                                c.func, "attr", None)) == "_peak_frequencies"]
    assert sorted(callers) == ["_peak_frequency", "_screen_group",
                               "_snr_group"], callers
