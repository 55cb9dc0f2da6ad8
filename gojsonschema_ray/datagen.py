"""Deterministic synthetic clips table (FIXTURES.md F1; BASELINE.json input_hint).

Schema: clip_id:string, bytes:binary, sr_hz:int32, dur_ms:int32,
codec:string, transcript:string.

Every value is a closed-form function of the row index i (no RNG state), so
tests can compute golden violation row-sets without running the engine:

- clip_id   = f"clip-{i:012d}"; i%997==0 (i>0) reuses the previous row's id
              (uniqueness violations); i%1000==499 → "clip-hot" (hot-key skew)
- sr_hz     = cycle {8000,16000,22050,44100,48000}; i%991==0 → 7000
- dur_ms    = 200 + (i*37)%9800; i%983==0 → 0; i%1009==0 → 3600001
- codec     = cycle {"pcm_s16le","wav"}; i%977==0 → "mp3???"
- transcript= word salad from a 64-word vocab; i%971==0 → ""; i%967==0 → null
- bytes     = PCM16 sine (freq 100+(i%400) Hz) of min(dur_ms, audio_cap_ms)
              encoded per codec (wav container via stdlib `wave`, or raw
              s16le); i%1013==0 → truncated payload (decode/SNR violations)

The generator is itself a Ray Data pipeline (range → map_batches) so large
scales stream; small scales can use `clips_table(n)` directly.
"""

from __future__ import annotations

import io
import wave

import numpy as np
import pyarrow as pa

SR_CYCLE = (8000, 16000, 22050, 44100, 48000)
CODEC_CYCLE = ("pcm_s16le", "wav")
VOCAB = tuple(
    f"w{k:02d}" for k in range(40)
) + (
    "alpha", "bravo", "charlie", "delta", "echo", "foxtrot", "golf", "hotel",
    "india", "juliet", "kilo", "lima", "mike", "november", "oscar", "papa",
    "quebec", "romeo", "sierra", "tango", "uniform", "victor", "whiskey", "xray",
)
assert len(VOCAB) == 64

CLIPS_SCHEMA = pa.schema([
    ("clip_id", pa.string()),
    ("bytes", pa.binary()),
    ("sr_hz", pa.int32()),
    ("dur_ms", pa.int32()),
    ("codec", pa.string()),
    ("transcript", pa.string()),
])


def row_meta(i: int) -> dict:
    """Metadata columns for row i (closed form)."""
    if i % 1000 == 499:
        clip_id = "clip-hot"
    elif i % 997 == 0 and i > 0:
        clip_id = row_meta(i - 1)["clip_id"]
    else:
        clip_id = f"clip-{i:012d}"
    sr = 7000 if i % 991 == 0 else SR_CYCLE[i % 5]
    if i % 983 == 0:
        dur = 0
    elif i % 1009 == 0:
        dur = 3_600_001
    else:
        dur = 200 + (i * 37) % 9800
    codec = "mp3???" if i % 977 == 0 else CODEC_CYCLE[i % 2]
    return {"clip_id": clip_id, "sr_hz": sr, "dur_ms": dur,
            "codec": codec, "transcript": row_transcript(i)}


def row_transcript(i: int) -> str | None:
    """Transcript of row i (closed form): empty on i % 971, null on
    i % 967, else 3-14 VOCAB words."""
    if i % 971 == 0:
        return ""
    if i % 967 == 0:
        return None
    nwords = 3 + (i * 7) % 12
    return " ".join(VOCAB[(i * 31 + j * 17) % 64] for j in range(nwords))


def clip_frequency(i: int) -> float:
    return 100.0 + (i % 400)


def synth_pcm(i: int, sr: int, dur_ms: int, audio_cap_ms: int) -> np.ndarray:
    """Reference PCM signal for row i: int16 sine, amplitude 0.5 FS."""
    ms = min(dur_ms, audio_cap_ms)
    n = max(0, int(sr * ms / 1000))
    if n == 0:
        return np.zeros(0, dtype=np.int16)
    t = np.arange(n, dtype=np.float64) / sr
    sig = 0.5 * np.sin(2 * np.pi * clip_frequency(i) * t)
    return (sig * 32767.0).astype(np.int16)


def encode_audio(pcm: np.ndarray, sr: int, codec: str) -> bytes:
    if codec == "wav" or codec.startswith("mp3"):
        buf = io.BytesIO()
        with wave.open(buf, "wb") as w:
            w.setnchannels(1)
            w.setsampwidth(2)
            w.setframerate(sr)
            w.writeframes(pcm.tobytes())
        return buf.getvalue()
    # raw little-endian s16
    return pcm.tobytes()


def clip_bytes(i: int, sr: int, dur_ms: int, codec: str, audio_cap_ms: int) -> bytes:
    raw = encode_audio(synth_pcm(i, sr, dur_ms, audio_cap_ms), sr, codec)
    if i % 1013 == 0:
        return raw[: max(1, len(raw) * 2 // 5)]  # truncated → decode/SNR violation
    return raw


def clips_rows(indices, audio_cap_ms: int = 50, with_audio: bool = True) -> pa.Table:
    ids, blobs, srs, durs, codecs, txts = [], [], [], [], [], []
    for i in indices:
        i = int(i)
        m = row_meta(i)
        ids.append(m["clip_id"])
        srs.append(m["sr_hz"])
        durs.append(m["dur_ms"])
        codecs.append(m["codec"])
        txts.append(m["transcript"])
        if with_audio:
            blobs.append(clip_bytes(i, m["sr_hz"], m["dur_ms"], m["codec"], audio_cap_ms))
        else:
            blobs.append(b"")
    return pa.table(
        [ids, blobs, pa.array(srs, pa.int32()), pa.array(durs, pa.int32()), codecs, txts],
        schema=CLIPS_SCHEMA,
    )


def clips_batch(start: int, count: int, audio_cap_ms: int = 50,
                with_audio: bool = True) -> pa.Table:
    return clips_rows(range(start, start + count), audio_cap_ms, with_audio)


def clips_table(n: int, audio_cap_ms: int = 50, with_audio: bool = True) -> pa.Table:
    return clips_batch(0, n, audio_cap_ms, with_audio)


def clips_dataset(n: int, audio_cap_ms: int = 50, with_audio: bool = True,
                  override_num_blocks: int | None = None):
    """Streaming Ray Data generator: range → map_batches(synthesize).

    Scales to arbitrary n without materializing anything on the driver."""
    import ray.data as rd

    kwargs = {}
    if override_num_blocks is not None:
        kwargs["override_num_blocks"] = override_num_blocks
    base = rd.range(n, **kwargs)

    def synth(batch: pa.Table) -> pa.Table:
        idx = batch["id"].to_numpy(zero_copy_only=False)
        return clips_rows(idx, audio_cap_ms, with_audio)

    return base.map_batches(synth, batch_format="pyarrow")


def _write_clips_shard(path: str, start: int, count: int, audio_cap_ms: int):
    import os

    import pyarrow.parquet as pq

    fp = os.path.join(path, f"part-{start:012d}.parquet")
    tmp = fp + ".tmp"
    pq.write_table(clips_batch(start, count, audio_cap_ms), tmp)
    os.replace(tmp, fp)  # atomic: readers/resume never see torn shards


def write_clips_parquet(path: str, n: int, audio_cap_ms: int = 50,
                        rows_per_file: int = 100_000) -> str:
    """Materialize a clips table to partitioned parquet (resumable layout:
    one atomically-renamed file per shard; re-invocation skips finished
    shards). Shards synthesize in parallel Ray tasks when a session is up."""
    import os

    os.makedirs(path, exist_ok=True)
    todo = []
    for start in range(0, n, rows_per_file):
        count = min(rows_per_file, n - start)
        fp = os.path.join(path, f"part-{start:012d}.parquet")
        if os.path.exists(fp):
            import pyarrow.parquet as pq

            if pq.read_metadata(fp).num_rows == count:
                continue  # resume: skip complete shards
            os.unlink(fp)  # short tail shard from a smaller previous n
        todo.append((start, count))
    if not todo:
        return path
    try:
        import ray

        parallel = ray.is_initialized() and len(todo) > 1
    except ImportError:
        parallel = False
    if parallel:
        shard = ray.remote(num_cpus=1)(_write_clips_shard)
        ray.get([shard.remote(path, s, c, audio_cap_ms) for s, c in todo])
    else:
        for s, c in todo:
            _write_clips_shard(path, s, c, audio_cap_ms)
    return path


def drift_meta(i: int) -> dict:
    """clips_drift: sr_hz mass shifted to 48000 (80%), dur_ms scaled 1.5x."""
    m = row_meta(i)
    m["sr_hz"] = 48000 if (i % 10) < 8 else SR_CYCLE[i % 5]
    m["dur_ms"] = int(min(m["dur_ms"] * 1.5, 3_600_001))
    return m


def drift_table(n: int) -> pa.Table:
    rows = [drift_meta(i) for i in range(n)]
    return pa.table({
        "clip_id": [r["clip_id"] for r in rows],
        "sr_hz": pa.array([r["sr_hz"] for r in rows], pa.int32()),
        "dur_ms": pa.array([r["dur_ms"] for r in rows], pa.int32()),
        "codec": [r["codec"] for r in rows],
        "transcript": [r["transcript"] for r in rows],
    })
