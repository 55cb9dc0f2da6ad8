"""Multimodal binary-column stages: image/audio/video payloads as opaque
`binary` columns with typed metadata, processed by actor-pool map_batches
stages with SMALL batch sizes (wide rows × concurrency must fit worker heap).

Decode status by modality:
- audio: REAL (wav / raw s16le / G.711 — stages/audio.decode_clips);
- image: REAL for uncompressed formats (binary PPM/PGM, 24/32-bit BMP —
  pure-numpy codecs in functions/imaging.py, the default backend);
  JPEG/PNG need Pillow, which this container does not ship — backend='pil'
  raises CodecUnavailable; backend='fake' remains for plumbing tests;
- video: REAL RIFF/AVI demuxing (pure-python chunk walk —
  functions/video.py); frame payload decode (MJPEG) and mp4/mkv demuxing
  need libjpeg/pyav — guarded. The raw concatenated-frames layout remains
  for codec-free plumbing tests.
"""

from __future__ import annotations

import numpy as np
import pyarrow as pa

from .audio import CodecUnavailable, decode_clips

IMAGE_FEATURES_SCHEMA = pa.schema([
    ("id", pa.string()),
    ("height", pa.int32()),
    ("width", pa.int32()),
    ("channels", pa.int32()),
    ("features", pa.list_(pa.float32())),
])


def _fake_decode_image(blob: bytes, height: int, width: int) -> np.ndarray:
    """Deterministic fake decoder: bytes → (h, w, 3) uint8 derived from a
    rolling checksum. Stands in for PIL/libjpeg, which aren't installed."""
    seed = np.frombuffer(blob[:64].ljust(64, b"\0"), dtype=np.uint8).astype(np.uint32)
    base = (seed.cumsum() % 251).astype(np.uint8)
    reps = int(np.ceil(height * width * 3 / len(base)))
    return np.tile(base, reps)[: height * width * 3].reshape(height, width, 3)


class ImageFeatureStage:
    """Actor-pool payload: decode → resize (area-mean pool) → feature vector.

    `backend='numpy'` (default) REALLY decodes binary PPM/PGM/BMP payloads
    (functions/imaging.py) and takes dimensions from the image itself —
    undecodable rows are skipped; `backend='fake'` uses the deterministic
    stub (needs the height/width metadata columns); `backend='pil'` raises
    CodecUnavailable here (no Pillow in this container)."""

    def __init__(self, bytes_column: str = "bytes", id_column: str = "id",
                 height_column: str = "height", width_column: str = "width",
                 out_size: int = 8, backend: str = "numpy"):
        if backend not in ("numpy", "fake", "pil"):
            raise ValueError(backend)
        if backend == "pil":
            try:
                import PIL  # noqa: F401
            except ImportError as e:
                raise CodecUnavailable(
                    "JPEG/PNG decoding requires Pillow; 'numpy' covers "
                    "PPM/PGM/BMP, 'fake' is for plumbing tests"
                ) from e
        self.backend = backend
        self.bytes_column = bytes_column
        self.id_column = id_column
        self.height_column = height_column
        self.width_column = width_column
        self.out_size = out_size

    def _resize_mean_pool(self, img: np.ndarray) -> np.ndarray:
        h, w, c = img.shape
        s = self.out_size
        ys = (np.arange(s + 1) * h // s)
        xs = (np.arange(s + 1) * w // s)
        out = np.empty((s, s, c), dtype=np.float32)
        for i in range(s):
            for j in range(s):
                out[i, j] = img[ys[i]:max(ys[i + 1], ys[i] + 1),
                                xs[j]:max(xs[j + 1], xs[j] + 1)].mean(axis=(0, 1))
        return out

    def __call__(self, batch: pa.Table) -> pa.Table:
        ids = batch[self.id_column].to_pylist()
        blobs = batch[self.bytes_column].to_pylist()
        if self.backend == "fake":
            hs = batch[self.height_column].to_pylist()
            ws = batch[self.width_column].to_pylist()
        out_ids, oh, ow, oc, feats = [], [], [], [], []
        for i, blob in enumerate(blobs):
            if blob is None:
                continue
            if self.backend == "fake":
                img = _fake_decode_image(blob, int(hs[i]), int(ws[i]))
            else:
                from ..functions.imaging import decode_image

                try:
                    img = decode_image(blob)
                except CodecUnavailable:
                    continue  # undecodable payload: skip, never crash a block
            f = self._resize_mean_pool(img) / 255.0
            out_ids.append(str(ids[i]))
            oh.append(img.shape[0])
            ow.append(img.shape[1])
            oc.append(img.shape[2])
            feats.append(f.ravel().tolist())
        return pa.table([out_ids, pa.array(oh, pa.int32()), pa.array(ow, pa.int32()),
                         pa.array(oc, pa.int32()),
                         pa.array(feats, pa.list_(pa.float32()))],
                        schema=IMAGE_FEATURES_SCHEMA)


class FrameSampleStage:
    """Video frame sampling: emits every k-th frame of a video payload
    (explode one row → many frame rows).

    `container='avi'` REALLY demuxes RIFF/AVI containers (pure-python chunk
    walk, functions/video.py) — frame payloads stay opaque bytes (decoding
    MJPEG etc. needs libjpeg/ffmpeg, absent here); undemuxable rows are
    skipped. `container='raw'` splits a concatenated fixed-size-frames
    payload. mp4/mkv demuxing would need pyav — still out of scope."""

    def __init__(self, bytes_column: str = "bytes", id_column: str = "id",
                 frame_bytes: int = 1024, every_k: int = 10,
                 container: str = "raw"):
        if container not in ("raw", "avi"):
            raise ValueError(container)
        self.bytes_column = bytes_column
        self.id_column = id_column
        self.frame_bytes = frame_bytes
        self.every_k = every_k
        self.container = container

    def _frames(self, blob: bytes) -> list[bytes]:
        if self.container == "avi":
            from ..functions.video import demux_avi_frames

            return demux_avi_frames(blob)
        fb = self.frame_bytes
        return [blob[i * fb:(i + 1) * fb] for i in range(len(blob) // fb)]

    def __call__(self, batch: pa.Table) -> pa.Table:
        ids = batch[self.id_column].to_pylist()
        blobs = batch[self.bytes_column].to_pylist()
        out_id, out_frame, out_blob = [], [], []
        for vid, blob in zip(ids, blobs):
            if not blob:
                continue
            try:
                frames = self._frames(blob)
            except CodecUnavailable:
                continue  # undemuxable payload: skip, never crash a block
            for fi in range(0, len(frames), self.every_k):
                out_id.append(str(vid))
                out_frame.append(fi)
                out_blob.append(frames[fi])
        return pa.table({
            "id": pa.array(out_id),
            "frame": pa.array(out_frame, pa.int32()),
            "frame_bytes": pa.array(out_blob, pa.binary()),
        })


class AudioFeatureStage:
    """REAL audio feature extraction: decode (`decode_clips`) → frame RMS
    energy vector — the multimodal feature-extract pattern on the audio
    payload. Null, empty, undecodable and unknown-codec payloads and clips
    shorter than `n_frames` samples are skipped."""

    def __init__(self, bytes_column: str = "bytes", id_column: str = "clip_id",
                 codec_column: str = "codec", n_frames: int = 16):
        self.bytes_column = bytes_column
        self.id_column = id_column
        self.codec_column = codec_column
        self.n_frames = n_frames

    def __call__(self, batch: pa.Table) -> pa.Table:
        ids = batch[self.id_column].to_pylist()
        out_id, out_feat = [], []
        for i, pcm, _, _ in decode_clips(
                batch[self.bytes_column],
                batch[self.codec_column].to_pylist()):
            if pcm is None or not len(pcm) or len(pcm) < self.n_frames:
                continue
            x = pcm.astype(np.float64) / 32768.0
            frames = np.array_split(x, self.n_frames)
            rms = [float(np.sqrt((f * f).mean())) for f in frames]
            out_id.append(str(ids[i]))
            out_feat.append(rms)
        return pa.table({
            "clip_id": pa.array(out_id),
            "rms": pa.array(out_feat, pa.list_(pa.float64())),
        })
