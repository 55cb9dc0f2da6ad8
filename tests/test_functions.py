"""Text analysis, dedup, similarity-search and multimodal plumbing tests."""

import numpy as np
import pandas as pd
import pyarrow as pa
import pytest

from gojsonschema_ray.functions.text import (
    bpe_token_count, lang_id, quality_scores, rolling_fingerprint, token_count,
)
from gojsonschema_ray.stages.dedup import (
    hamming64, ngram_jaccard, shingles, simhash64,
)


def test_token_count():
    assert token_count("a b  c") == 3
    assert token_count("") == 0
    assert token_count(None) == 0
    assert token_count("  x  ") == 1
    assert bpe_token_count("hello, world42!") == 5  # hello , world 42 !


def test_token_count_batch_matches_scalar():
    """Vectorized RE2 kernel == scalar token_count over the ASCII-whitespace
    contract, incl. empties, nulls, tabs/newlines, and leading/trailing runs."""
    from gojsonschema_ray.functions.text import token_count_batch

    texts = ["a b  c", "", None, "  x  ", "one\ttwo\nthree", " \t ",
             "word", "a  \n  b", "trailing space ", "\tleading"]
    col = pa.array(texts, pa.string())
    got = token_count_batch(col).tolist()
    assert got == [token_count(t) for t in texts]
    # chunked input path
    ch = pa.chunked_array([texts[:4], texts[4:]], pa.string())
    assert token_count_batch(ch).tolist() == got


def test_lang_id():
    assert lang_id("the cat and the dog in the house") == "en"
    assert lang_id("der hund ist nicht in der stadt und das haus") == "de"
    assert lang_id("你好世界 这是中文") == "zh"
    assert lang_id("") == "und"


def test_quality_scores():
    q = quality_scores(pd.Series(["Hello world!", "", None, "a1 b2 c3!!!"]))
    assert q["n_tokens"].tolist() == [2, 0, 0, 3]
    assert q["punct_ratio"][0] > 0
    assert q["digit_ratio"][3] > 0.2


def test_fingerprint_stability():
    a = rolling_fingerprint("the quick brown fox jumps over the lazy dog")
    b = rolling_fingerprint("the quick brown fox jumps over the lazy dog")
    c = rolling_fingerprint("a completely different document text here")
    assert a == b != c
    assert rolling_fingerprint("") == 0


def test_shingles_and_jaccard():
    assert ngram_jaccard("abcdefgh", "abcdefgh") == 1.0
    assert ngram_jaccard("abcdefgh", "zzzzzzzz") == 0.0
    j = ngram_jaccard("the quick brown fox", "the quick brown cat")
    assert 0.3 < j < 0.9


def _gram_hashes_scalar(text: str, k: int) -> list:
    """Pure-Python reference of gram_hashes_batch's polynomial+splitmix64
    hash — per-position char-k-gram hashes (codepoint semantics)."""
    mask = (1 << 64) - 1
    base, sm1, sm2 = 0x100000001B3, 0xBF58476D1CE4E5B9, 0x94D049BB133111EB
    out = []
    t = text or ""
    for i in range(max(0, len(t) - k + 1)):
        h = 0
        for c in t[i:i + k]:
            h = (h * base + ord(c)) & mask
        h ^= h >> 30
        h = (h * sm1) & mask
        h ^= h >> 27
        h = (h * sm2) & mask
        h ^= h >> 31
        out.append(h)
    return out


def test_gram_hashes_batch_matches_scalar():
    """The zero-object vectorized gram hasher == the scalar reference, incl.
    None/empty/short texts, doc-boundary masking, and non-ASCII (astral)
    codepoints — grams are CHARACTER windows, matching SQL substr semantics."""
    from gojsonschema_ray.stages.dedup import gram_hashes_batch

    texts = ["the quick brown fox", "", None, "abcd", "abcde",
             "héllo wörld ünïcode", "emoji 🎉🎊 pair", "aaaaaaa",
             "日本語のテキストです", "x" * 300]
    for k in (2, 5, 13, 20):
        h, seg = gram_hashes_batch(texts, k)
        assert seg[0] == 0 and seg[-1] == len(h)
        for i, t in enumerate(texts):
            want = _gram_hashes_scalar(t, k)
            got = h[seg[i]:seg[i + 1]].tolist()
            assert got == want, (i, k)


def test_gram_hashes_batch_property():
    from hypothesis import given, settings
    from hypothesis import strategies as st

    from gojsonschema_ray.stages.dedup import gram_hashes_batch

    @settings(max_examples=40, deadline=None)
    @given(st.lists(st.one_of(st.none(), st.text(max_size=40)), max_size=8),
           st.integers(min_value=1, max_value=8))
    def check(texts, k):
        h, seg = gram_hashes_batch(texts, k)
        for i, t in enumerate(texts):
            assert h[seg[i]:seg[i + 1]].tolist() == _gram_hashes_scalar(t, k)

    check()


def test_simhash_locality():
    a = simhash64("the quick brown fox jumps over the lazy dog " * 5)
    b = simhash64("the quick brown fox jumps over the lazy dogs " * 5)
    c = simhash64("totally unrelated words appear here instead now " * 5)
    assert hamming64(a, b) < hamming64(a, c)


@pytest.fixture(scope="module")
def docs_ds(ray_session):
    import ray.data as rd

    texts = [f"unique document number {i} with distinct content words {i*7}"
             for i in range(200)]
    # near-dup pair and exact-dup pair
    texts[50] = "the quick brown fox jumps over the lazy dog again and again ok"
    texts[51] = "the quick brown fox jumps over the lazy dog again and again okay"
    texts[60] = texts[61] = "exactly identical duplicated document body"
    return rd.from_arrow(pa.table({"doc_id": list(range(200)), "text": texts}))


def test_exact_dedup(docs_ds):
    from gojsonschema_ray.stages.dedup import dedup_exact, exact_duplicate_groups

    groups = exact_duplicate_groups(docs_ds, "text").take_all()
    assert len(groups) == 1 and groups[0]["n"] == 2
    survivors = dedup_exact(docs_ds, "text", "doc_id").take_all()
    assert len(survivors) == 199  # 200 - 1 removed dup


def test_minhash_near_duplicates(docs_ds):
    from gojsonschema_ray.stages.dedup import minhash_near_duplicates
    from gojsonschema_ray.util import collect_rows

    pairs = collect_rows(minhash_near_duplicates(docs_ds, "text", "doc_id",
                                                 threshold=0.5))
    got = {(p["id_a"], p["id_b"]) for p in pairs}
    assert (50, 51) in got
    assert (60, 61) in got
    for p in pairs:  # pairs are (min, max)-ordered and meet the threshold
        assert p["id_a"] < p["id_b"] and p["jaccard"] >= 0.5


def test_simhash_near_duplicates(docs_ds):
    from gojsonschema_ray.stages.dedup import simhash_near_duplicates
    from gojsonschema_ray.util import collect_rows

    pairs = collect_rows(simhash_near_duplicates(docs_ds, "text", "doc_id",
                                                 max_hamming=3))
    got = {(p["id_a"], p["id_b"]) for p in pairs}
    assert (60, 61) in got  # identical docs: hamming 0
    # Dataset output is already pair-deduplicated across the 4 bands
    assert len(got) == len(pairs)


def test_dedup_exact_rows_hot_key_salting(ray_session):
    """Payload keep-first dedup on a skewed corpus (one value = 30% of rows):
    salting spreads the hot value's payload across partitions (max partition
    share stays bounded) and the global survivor per value is still the min
    id."""
    import ray.data as rd

    from gojsonschema_ray.stages.dedup import dedup_exact_rows
    from gojsonschema_ray.stages.uniqueness import add_salted_key
    from gojsonschema_ray.util import collect_rows

    n = 3000
    rng = np.random.default_rng(9)
    texts = [f"doc body {i}" for i in range(n)]
    hot_idx = rng.choice(n, size=n // 3, replace=False)
    for i in hot_idx:
        texts[i] = "THE HOT BOILERPLATE VALUE"
    tab = pa.table({"doc_id": list(range(n)), "text": texts,
                    "payload": [f"p{i}" for i in range(n)]})
    ds = rd.from_arrow(tab).repartition(8)

    out = collect_rows(dedup_exact_rows(ds, "text", "doc_id",
                                        hot_keys={"THE HOT BOILERPLATE VALUE"}))
    by_text = {}
    for r in out:
        assert r["text"] not in by_text, "duplicate survivor"
        by_text[r["text"]] = r
    assert len(by_text) == len(set(texts))
    hot_min = min(int(i) for i in hot_idx)
    assert by_text["THE HOT BOILERPLATE VALUE"]["doc_id"] == hot_min
    assert by_text["THE HOT BOILERPLATE VALUE"]["payload"] == f"p{hot_min}"
    for i in range(n):  # every survivor keeps its own payload row
        if texts[i] in by_text and by_text[texts[i]]["doc_id"] == i:
            assert by_text[texts[i]]["payload"] == f"p{i}"

    # partition balance: salted shuffle keys spread the hot value
    P = 16
    salted = add_salted_key(tab, "text", {"THE HOT BOILERPLATE VALUE"}, 8)
    parts = (np.ascontiguousarray(
        salted["_shuffle_key"].to_numpy(zero_copy_only=False))
        .view(np.uint64) % P)
    share = np.bincount(parts.astype(np.int64), minlength=P) / n
    assert share.max() < 0.33  # unsalted, the hot partition would hold >0.33
    unsalted = add_salted_key(tab, "text", set(), 8)
    uparts = (np.ascontiguousarray(
        unsalted["_shuffle_key"].to_numpy(zero_copy_only=False))
        .view(np.uint64) % P)
    ushare = np.bincount(uparts.astype(np.int64), minlength=P) / n
    assert ushare.max() > share.max()  # salting strictly improved balance


def test_dedup_exact_rows_null_hot_key(ray_session):
    """A None hot key must neither crash (all-None hot set) nor leak
    duplicate null survivors (salted null rows resolve to ONE global
    survivor in the second pass)."""
    import ray.data as rd

    from gojsonschema_ray.stages.dedup import dedup_exact_rows
    from gojsonschema_ray.util import collect_rows

    n = 600
    texts = [None if i % 3 == 0 else f"doc {i}" for i in range(n)]
    ds = rd.from_arrow(pa.table({"doc_id": list(range(n)),
                                 "text": pa.array(texts, pa.string())}))
    for hot in ({None}, {None, "doc 1"}):
        out = collect_rows(dedup_exact_rows(ds, "text", "doc_id",
                                            hot_keys=hot))
        nulls = [r for r in out if r["text"] is None]
        assert len(nulls) == 1 and nulls[0]["doc_id"] == 0
        assert len(out) == 1 + len([t for t in texts if t is not None])


def test_minhash_dense_duplicate_corpus(ray_session):
    """50% identical docs: the verify stage must survive a dense candidate
    set (it is fully distributed — Bloom-filtered text fetch + two keyed
    shuffles, never a driver id→text dict)."""
    import ray.data as rd

    from gojsonschema_ray.stages.dedup import minhash_near_duplicates
    from gojsonschema_ray.util import collect_rows

    n = 400
    texts = [f"unique document number {i} carrying its own words {i * 13}"
             for i in range(n)]
    for i in range(0, n, 2):  # every even doc duplicates doc i+1
        texts[i] = texts[i + 1]
    ds = rd.from_arrow(pa.table({"doc_id": list(range(n)), "text": texts}))
    pairs = collect_rows(minhash_near_duplicates(ds, "text", "doc_id",
                                                 threshold=0.9))
    got = {(p["id_a"], p["id_b"]) for p in pairs}
    assert got == {(i, i + 1) for i in range(0, n, 2)}
    assert all(p["jaccard"] == 1.0 for p in pairs)


def test_degenerate_bucket_capped(ray_session):
    """10⁵ identical short docs: one LSH bucket per band would expand to
    ~5·10⁹ pairs; the bucket cap routes it through star pairs (O(g) rows) so
    candidate generation completes in bounded memory."""
    import ray.data as rd

    from gojsonschema_ray.stages.dedup import minhash_candidate_pairs
    from gojsonschema_ray.util import collect_rows

    n = 100_000
    ds = rd.from_arrow(pa.table({
        "doc_id": list(range(n)),
        "text": ["the quick brown fox jumps high over lazy dogs"] * n,
    }))
    pairs = collect_rows(minhash_candidate_pairs(ds, "text", "doc_id"))
    got = {(p["id_a"], p["id_b"]) for p in pairs}
    # star fallback: every doc is linked to the bucket-min representative
    assert got == {(0, i) for i in range(1, n)}
    # ADVICE r2: degraded coverage is detectable from the dataset itself
    assert all(p["capped"] for p in pairs)


@pytest.fixture(scope="module")
def emb_ds(ray_session):
    import ray.data as rd

    rng = np.random.default_rng(7)
    base = rng.standard_normal((100, 16))
    base[20] = base[10] + 0.01 * rng.standard_normal(16)  # near-dup of 10
    return rd.from_arrow(pa.table({
        "vec_id": list(range(100)),
        "embedding": [r.tolist() for r in base],
    }))


def test_embedding_near_dup(emb_ds):
    from gojsonschema_ray.stages.dedup import embedding_near_duplicates

    pairs = embedding_near_duplicates(emb_ds, "embedding", "vec_id", dim=16,
                                      threshold=0.98).take_all()
    assert {(p["id_a"], p["id_b"]) for p in pairs} >= {(10, 20)}


def test_ann_brute_force(emb_ds):
    from gojsonschema_ray.stages.similarity import ann_brute_force

    rows = emb_ds.take_all()
    q = np.array([rows[10]["embedding"], rows[33]["embedding"]])
    df = ann_brute_force(emb_ds, "embedding", "vec_id", q, k=3)
    top_q0 = df[df["query"] == 0].iloc[0]
    top_q1 = df[df["query"] == 1].iloc[0]
    assert top_q0["vec_id"] == 10 and top_q0["cosine"] > 0.999
    assert top_q1["vec_id"] == 33
    # near-dup 20 should rank in top-3 for query 0
    assert 20 in df[df["query"] == 0]["vec_id"].tolist()


def test_ivf_search(emb_ds):
    from gojsonschema_ray.stages.similarity import IVFIndex, ann_brute_force

    rows = emb_ds.take_all()
    q = np.array([rows[10]["embedding"]])
    idx = IVFIndex.train(emb_ds, "embedding", n_centroids=8, iters=5)
    df = idx.search(emb_ds, "embedding", "vec_id", q, k=3, nprobe=3)
    assert df.iloc[0]["vec_id"] == 10


def test_ivf_built_lists_prune_io(emb_ds, tmp_path):
    """build_lists + search_built: the persisted-assignment path reads ONLY
    the probed partitions — rows scanned < corpus (I/O pruning, not just
    compute pruning), and nprobe=all-lists reproduces brute force exactly."""
    import os

    import ray.data as rd

    from gojsonschema_ray.stages.similarity import IVFIndex, ann_brute_force

    rows = emb_ds.take_all()
    q = np.array([rows[10]["embedding"]])
    idx = IVFIndex.train(emb_ds, "embedding", n_centroids=8, iters=5)
    out_dir = str(tmp_path / "ivf_lists")
    idx.build_lists(emb_ds, "embedding", out_dir)

    # one hive directory per non-empty list
    parts = [d for d in os.listdir(out_dir) if d.startswith("ivf_list=")]
    assert len(parts) >= 2

    # probed subset covers strictly fewer rows than the corpus
    wanted = idx.probed_lists(q, nprobe=2)
    probed_files = [os.path.join(out_dir, f"ivf_list={int(l)}", f)
                    for l in wanted
                    if os.path.isdir(os.path.join(out_dir, f"ivf_list={int(l)}"))
                    for f in os.listdir(os.path.join(out_dir, f"ivf_list={int(l)}"))
                    if f.endswith(".parquet")]
    rows_scanned = rd.read_parquet(probed_files).count()
    assert 0 < rows_scanned < emb_ds.count()

    # pruned search still finds the exact neighbor (query is a corpus row)
    df = idx.search_built(out_dir, "embedding", "vec_id", q, k=3, nprobe=2)
    assert df.iloc[0]["vec_id"] == 10

    # all-lists probe == brute force (hash-level agreement on ids)
    full = idx.search_built(out_dir, "embedding", "vec_id", q, k=5, nprobe=8)
    bf = ann_brute_force(emb_ds, "embedding", "vec_id", q, k=5)
    assert full["vec_id"].tolist() == bf["vec_id"].tolist()


def test_multimodal_plumbing(ray_session):
    import ray.data as rd

    from gojsonschema_ray.stages.multimodal import (
        AudioFeatureStage, FrameSampleStage, ImageFeatureStage,
    )
    from gojsonschema_ray import datagen

    # image fake-decode: deterministic features, fixed schema
    imgs = rd.from_arrow(pa.table({
        "id": ["a", "b"],
        "bytes": [b"\x01\x02" * 100, b"\x09\x08" * 100],
        "height": [32, 16], "width": [32, 16],
    }))
    feats = imgs.map_batches(
        ImageFeatureStage, batch_format="pyarrow", concurrency=1,
        batch_size=16,
        fn_constructor_kwargs={"out_size": 4, "backend": "fake"}).take_all()
    assert len(feats) == 2 and len(feats[0]["features"]) == 4 * 4 * 3
    # determinism
    feats2 = imgs.map_batches(
        ImageFeatureStage, batch_format="pyarrow", concurrency=1,
        batch_size=16,
        fn_constructor_kwargs={"out_size": 4, "backend": "fake"}).take_all()
    assert feats[0]["features"] == feats2[0]["features"]

    # frame sampling explodes rows
    vids = rd.from_arrow(pa.table({"id": ["v1"], "bytes": [b"x" * 10240]}))
    frames = vids.map_batches(FrameSampleStage, batch_format="pyarrow",
                              concurrency=1,
                              fn_constructor_kwargs={"frame_bytes": 1024,
                                                     "every_k": 2}).take_all()
    assert [f["frame"] for f in frames] == [0, 2, 4, 6, 8]

    # audio features on the real synthetic clips
    clips = rd.from_arrow(datagen.clips_table(64, audio_cap_ms=30))
    rms = clips.map_batches(AudioFeatureStage, batch_format="pyarrow",
                            batch_size=32, concurrency=1).take_all()
    assert len(rms) > 50 and len(rms[0]["rms"]) == 16


def test_pii_redact_stage(ray_session):
    """Email/IP/phone redaction via Arrow RE2 kernels, with per-kind counts,
    null passthrough, and email-before-phone ordering."""
    import ray.data as rd

    from gojsonschema_ray.functions.text import PiiRedactStage

    t = pa.table({"text": pa.array([
        "mail a.b+c@ex-ample.org or ping 10.0.0.255 today",
        "call +1 (555) 123-4567 or 555-867-5309x",
        "user99@host.io's number is 555 123 9876",
        "nothing sensitive here",
        None,
    ], pa.string())})
    rows = rd.from_arrow(t).map_batches(PiiRedactStage, batch_format="pyarrow",
                                        concurrency=1).take_all()
    red = [r["text_redacted"] for r in rows]
    assert red[0] == "mail <EMAIL> or ping <IP> today"
    assert red[1].startswith("call <PHONE>")
    assert "<EMAIL>" in red[2] and "<PHONE>" in red[2]
    assert red[3] == "nothing sensitive here"
    assert red[4] is None
    assert [r["n_email"] for r in rows] == [1, 0, 1, 0, None]
    assert [r["n_ipv4"] for r in rows] == [1, 0, 0, 0, None]


def test_token_frequencies(ray_session):
    """Vocabulary counts vs a pandas golden, unigram + bigram, with
    threshold, case folding, and null/empty rows skipped."""
    import ray.data as rd

    from gojsonschema_ray.functions.text import token_frequencies
    from gojsonschema_ray.util import collect_rows

    texts = ["the cat sat", "The cat SAT down", None, "  ", "cat sat"]
    ds = rd.from_arrow(pa.table({"text": pa.array(texts, pa.string())}))
    uni = {r["gram"]: r["n"] for r in collect_rows(
        token_frequencies(ds, "text", min_count=2, n=1))}
    assert uni == {"the": 2, "cat": 3, "sat": 3}
    bi = {r["gram"]: r["n"] for r in collect_rows(
        token_frequencies(ds, "text", min_count=2, n=2))}
    assert bi == {"the cat": 2, "cat sat": 3}
    # document-frequency mode: each gram counted once per doc
    df = {r["gram"]: r["n"] for r in collect_rows(
        token_frequencies(ds, "text", min_count=1, n=1,
                          distinct_per_doc=True))}
    assert df == {"the": 2, "cat": 3, "sat": 3, "down": 1}


def test_image_codecs_roundtrip():
    """Pure-numpy PPM/PGM/BMP codecs: encode→decode is the identity, header
    comments parse, corrupt payloads raise CodecUnavailable."""
    import pytest as _pytest

    from gojsonschema_ray.functions.imaging import (
        decode_bmp, decode_image, decode_pnm, encode_bmp, encode_pnm,
    )
    from gojsonschema_ray.stages.audio import CodecUnavailable

    rng = np.random.default_rng(3)
    rgb = rng.integers(0, 256, (13, 7, 3), dtype=np.uint8)
    gray = rng.integers(0, 256, (9, 5, 1), dtype=np.uint8)
    assert (decode_pnm(encode_pnm(rgb)) == rgb).all()
    assert (decode_pnm(encode_pnm(gray)) == gray).all()
    assert (decode_bmp(encode_bmp(rgb)) == rgb).all()  # incl. row padding
    # magic sniffing
    assert (decode_image(encode_bmp(rgb)) == rgb).all()
    assert (decode_image(encode_pnm(rgb)) == rgb).all()
    # comments in the PNM header
    blob = encode_pnm(rgb)
    payload = blob.split(b"\n", 3)[3]
    commented = b"P6\n# a comment\n7 13\n# another\n255\n" + payload
    assert (decode_pnm(commented) == rgb).all()
    # comment directly AFTER the last header token: its newline is the
    # separator — pixels must not shift by one
    trailing = b"P6\n7 13\n255# trailing comment\n" + payload
    assert (decode_pnm(trailing) == rgb).all()
    # same, with a CRLF line ending: the \r\n pair is ONE separator
    trailing_crlf = b"P6\n7 13\n255# trailing comment\r\n" + payload
    assert (decode_pnm(trailing_crlf) == rgb).all()
    for bad in (b"", b"JF" + b"\x00" * 100, b"P6\n7 13\n255\n" + b"\x00" * 5,
                b"BM" + b"\x00" * 20):
        with _pytest.raises(CodecUnavailable):
            decode_image(bad)


def test_avi_demux_roundtrip():
    """Pure-python RIFF/AVI demux: encode→demux is the identity, nested
    LISTs and odd-size padding handled, junk raises CodecUnavailable."""
    import pytest as _pytest

    from gojsonschema_ray.functions.video import demux_avi_frames, encode_avi
    from gojsonschema_ray.stages.audio import CodecUnavailable

    frames = [b"frame-%d-%s" % (i, b"x" * (i % 5)) for i in range(9)]
    blob = encode_avi(frames)
    assert demux_avi_frames(blob) == frames  # odd sizes exercise padding
    # other-stream chunks are ignored
    import struct

    extra = encode_avi(frames, stream=1)
    assert demux_avi_frames(extra, stream=1) == frames
    assert demux_avi_frames(extra, stream=0) == []
    for bad in (b"", b"RIFF" + b"\x00" * 20, b"RIFF\x04\x00\x00\x00WAVE"):
        with _pytest.raises(CodecUnavailable):
            demux_avi_frames(bad)
    # truncated chunk inside movi (declared size exceeds the container)
    inner = b"00dc" + struct.pack("<I", 100) + b"short"
    movi = b"LIST" + struct.pack("<I", 4 + len(inner)) + b"movi" + inner
    with _pytest.raises(CodecUnavailable):
        demux_avi_frames(b"RIFF" + struct.pack("<I", 4 + len(movi))
                         + b"AVI " + movi)


def test_frame_sample_stage_avi(ray_session):
    """container='avi' really demuxes; undemuxable rows are skipped."""
    import ray.data as rd

    from gojsonschema_ray.functions.video import encode_avi
    from gojsonschema_ray.stages.multimodal import FrameSampleStage

    frames = [b"F%02d" % i for i in range(10)]
    vids = rd.from_arrow(pa.table({
        "id": ["v1", "junk"],
        "bytes": [encode_avi(frames), b"not a riff container"],
    }))
    rows = vids.map_batches(
        FrameSampleStage, batch_format="pyarrow", concurrency=1,
        fn_constructor_kwargs={"container": "avi", "every_k": 3}).take_all()
    assert [(r["id"], r["frame"], r["frame_bytes"]) for r in rows] == \
        [("v1", 0, b"F00"), ("v1", 3, b"F03"), ("v1", 6, b"F06"),
         ("v1", 9, b"F09")]


def test_image_feature_stage_real_decode(ray_session):
    """The default numpy backend really decodes PPM/BMP payloads: dimensions
    come from the image, features equal the direct mean-pool computation,
    undecodable rows are skipped."""
    import ray.data as rd

    from gojsonschema_ray.functions.imaging import encode_bmp, encode_pnm
    from gojsonschema_ray.stages.multimodal import ImageFeatureStage

    rng = np.random.default_rng(11)
    a = rng.integers(0, 256, (24, 16, 3), dtype=np.uint8)
    b = rng.integers(0, 256, (10, 32, 3), dtype=np.uint8)
    imgs = rd.from_arrow(pa.table({
        "id": ["ppm", "bmp", "junk"],
        "bytes": [encode_pnm(a), encode_bmp(b), b"\xff\xd8 not a jpeg decoder"],
    }))
    rows = {r["id"]: r for r in imgs.map_batches(
        ImageFeatureStage, batch_format="pyarrow", concurrency=1,
        batch_size=8, fn_constructor_kwargs={"out_size": 4}).take_all()}
    assert set(rows) == {"ppm", "bmp"}  # junk row skipped
    assert (rows["ppm"]["height"], rows["ppm"]["width"]) == (24, 16)
    assert (rows["bmp"]["height"], rows["bmp"]["width"]) == (10, 32)
    stage = ImageFeatureStage(out_size=4)
    exp = (stage._resize_mean_pool(a) / 255.0).ravel()
    assert np.allclose(rows["ppm"]["features"], exp, atol=1e-6)


def test_ivf_save_load(emb_ds, tmp_path):
    import numpy as np

    from gojsonschema_ray.stages.similarity import IVFIndex

    idx = IVFIndex.train(emb_ds, "embedding", n_centroids=8, iters=3)
    p = str(tmp_path / "ivf.pkl")
    idx.save(p)
    idx2 = IVFIndex.load(p)
    assert np.allclose(idx.centroids, idx2.centroids)
    rows = emb_ds.take_all()
    q = np.array([rows[10]["embedding"]])
    df = idx2.search(emb_ds, "embedding", "vec_id", q, k=3, nprobe=3)
    assert df.iloc[0]["vec_id"] == 10


def test_exact_dedup_by_hash_parity(docs_ds):
    """by_hash=True (8-byte shuffle keys, the at-scale mode) finds the same
    duplicate multiset as value-keyed grouping."""
    from gojsonschema_ray.stages.dedup import exact_duplicate_groups

    by_val = exact_duplicate_groups(docs_ds, "text").take_all()
    by_hash = exact_duplicate_groups(docs_ds, "text", by_hash=True).take_all()
    assert sorted(r["n"] for r in by_val) == sorted(r["n"] for r in by_hash)


def test_minhash_skips_short_texts(ray_session):
    """Texts shorter than the shingle size produce NO signature rows — a
    short-text-heavy corpus must not collapse into one quadratic bucket or
    report empty-vs-empty as near-duplicates."""
    import ray.data as rd

    from gojsonschema_ray.stages.dedup import minhash_near_duplicates

    docs = [{"doc_id": i, "text": "ok"} for i in range(200)]  # all < k=5
    docs += [{"doc_id": 900, "text": "the quick brown fox jumps high " * 4},
             {"doc_id": 901, "text": "the quick brown fox jumps high " * 4}]
    from gojsonschema_ray.util import collect_rows

    ds = rd.from_items(docs)
    pairs = collect_rows(minhash_near_duplicates(ds, "text", "doc_id",
                                                 threshold=0.5))
    assert {(p["id_a"], p["id_b"]) for p in pairs} == {(900, 901)}


def test_ivf_sorted_data_recall(ray_session):
    """IVF trained on a dataset SORTED by cluster: the seeded random sample
    must cover all clusters (ds.limit would see only the first ones and
    silently degrade recall). recall@5 vs brute force >= 0.9."""
    import ray.data as rd

    from gojsonschema_ray.stages.similarity import IVFIndex, ann_brute_force

    rng = np.random.default_rng(5)
    n_clusters, per = 8, 400
    centers = rng.standard_normal((n_clusters, 16)) * 4
    pts = np.concatenate([centers[c] + 0.3 * rng.standard_normal((per, 16))
                          for c in range(n_clusters)])  # sorted by cluster
    ds = rd.from_arrow(pa.table({
        "vec_id": list(range(n_clusters * per)),
        "embedding": [r.tolist() for r in pts],
    })).repartition(8)
    # sample_limit < rows so training MUST subsample
    idx = IVFIndex.train(ds, "embedding", n_centroids=n_clusters,
                         sample_limit=800, iters=10)
    q = pts[[5, per * 5 + 3, per * 7 + 9]]  # queries from several clusters
    approx = idx.search(ds, "embedding", "vec_id", q, k=5, nprobe=2)
    exact = ann_brute_force(ds, "embedding", "vec_id", q, k=5)
    hits = 0
    for qi in range(len(q)):
        a = set(approx[approx["query"] == qi]["vec_id"])
        e = set(exact[exact["query"] == qi]["vec_id"])
        hits += len(a & e)
    assert hits / (5 * len(q)) >= 0.9


def test_global_top_k(ray_session):
    """Streaming top-k equals the full sort, including boundary ties broken
    by the id tiebreaker."""
    import ray.data as rd

    from gojsonschema_ray.stages.topk import global_top_k

    rng = np.random.default_rng(2)
    vals = np.round(rng.random(5000) * 50, 0)  # heavy ties
    ds = rd.from_arrow(pa.table({
        "id": list(range(5000)), "v": vals})).repartition(16)
    got = global_top_k(ds, [("v", "descending"), ("id", "ascending")], 10)
    exp = sorted(zip(vals, range(5000)), key=lambda t: (-t[0], t[1]))[:10]
    assert list(zip(got["v"].to_pylist(), got["id"].to_pylist())) == exp


def test_brute_force_empty_block(ray_session):
    """An IVF-filtered empty block must not crash the top-k scan."""
    import numpy as np
    import pyarrow as pa
    import ray.data as rd

    from gojsonschema_ray.stages.similarity import ann_brute_force

    empty = pa.table({"vec_id": pa.array([], pa.int64()),
                      "embedding": pa.array([], pa.list_(pa.float32()))})
    full = pa.table({"vec_id": pa.array([1, 2], pa.int64()),
                     "embedding": pa.array([[1.0, 0.0], [0.0, 1.0]],
                                           pa.list_(pa.float32()))})
    ds = rd.from_arrow([empty, full])
    df = ann_brute_force(ds, "embedding", "vec_id", np.array([[1.0, 0.0]]), k=1)
    assert df.iloc[0]["vec_id"] == 1


def test_simhash_near_dups_query_golden(ray_session):
    """Exact golden for the rows-only driver query `simhash_near_dups`
    (VERDICT r2 #10): the engine's LSH output is DETERMINISTIC given the
    banding scheme, so the expected pair set is derivable independently —
    brute-force all-pairs hamming over scalar simhash64 (the reference
    kernel the batched stage is hypothesis-tested against), keeping pairs
    that (a) have hamming <= 8 and (b) share at least one of the four
    16-bit pigeonhole bands (the LSH bucket criterion)."""
    import os
    import sys

    import pyarrow.parquet as pq

    sys.path.insert(0, os.path.dirname(os.path.dirname(os.path.abspath(__file__))))
    import __ray_entry__ as M

    from gojsonschema_ray.stages.dedup import simhash64

    sf = "/root/testdata/sf0.01"
    t = pq.read_table(os.path.join(sf, "documents.parquet"),
                      columns=["doc_id", "text"])
    ids = np.asarray(t["doc_id"].to_pylist())
    h = np.array([simhash64(x or "") for x in t["text"].to_pylist()],
                 dtype=np.uint64)
    order = np.argsort(ids)
    ids, h = ids[order], h[order]
    n = len(ids)
    iu, ju = np.triu_indices(n, k=1)
    x = h[iu] ^ h[ju]
    ham = np.unpackbits(x.view(np.uint8).reshape(-1, 8), axis=1).sum(axis=1)
    shares_band = np.zeros(len(iu), dtype=bool)
    for band in range(4):
        ba = (h >> np.uint64(band * 16)) & np.uint64(0xFFFF)
        shares_band |= ba[iu] == ba[ju]
    keep = (ham <= 8) & shares_band
    golden = {(int(ids[i]), int(ids[j]), int(d))
              for i, j, d in zip(iu[keep], ju[keep], ham[keep])}

    df = M.queries()["simhash_near_dups"](sf)
    got = {(int(a), int(b), int(d))
           for a, b, d in zip(df["id_a"], df["id_b"], df["hamming"])}
    assert got == golden
    assert len(got) > 0


def test_embedding_degenerate_bucket_capped(ray_session):
    """2k identical embeddings: every LSH table hashes them into ONE bucket,
    which exceeds the cap — the star fallback links every member to the
    min-id representative at cosine 1.0 in O(n·dim), flagged capped=True."""
    import ray.data as rd

    from gojsonschema_ray.stages.dedup import embedding_near_duplicates
    from gojsonschema_ray.util import collect_rows

    n, dim = 2000, 16
    vec = list(np.ones(dim, dtype=np.float64) / np.sqrt(dim))
    ds = rd.from_arrow(pa.table({"vec_id": list(range(n)),
                                 "embedding": [vec] * n}))
    pairs = collect_rows(embedding_near_duplicates(
        ds, "embedding", "vec_id", dim=dim, threshold=0.95, bucket_cap=512))
    got = {(p["id_a"], p["id_b"]) for p in pairs}
    assert got == {(0, i) for i in range(1, n)}
    assert all(p["capped"] for p in pairs)
    assert all(abs(p["cosine"] - 1.0) < 1e-9 for p in pairs)


def test_decontaminate_ngrams_injected(ray_session):
    """Corpus docs embedding a verbatim >=k-char span of a reference doc
    are flagged (with the exact DISTINCT-gram hit count); clean docs
    survive; mode='keep' returns the complement."""
    import ray.data as rd

    from gojsonschema_ray.stages.similarity import decontaminate_ngrams
    from gojsonschema_ray.util import collect_rows

    ref = ["the quick brown fox jumps over the lazy dog tonight"]
    corpus = pa.table({
        "doc_id": [1, 2, 3],
        "text": [
            "intro text then the quick brown fox jumps over trailing words",
            "completely unrelated content with no overlap at all here",
            "xx brown fox jumps over the lazy yy",
        ],
    })
    ds = rd.from_arrow(corpus).repartition(2)
    removed = collect_rows(decontaminate_ngrams(
        ds, ref, k=13, mode="removed"))
    got = {r["doc_id"]: r["n_hits"] for r in removed}
    assert set(got) == {1, 3}

    # exact hit counts: distinct shared 13-grams computed serially
    def grams(t, k=13):
        return {t[i:i + k] for i in range(len(t) - k + 1)}
    rg = grams(ref[0])
    for did, text in zip(corpus["doc_id"].to_pylist(),
                         corpus["text"].to_pylist()):
        expect = len(grams(text) & rg)
        assert got.get(did, 0) == expect

    kept = collect_rows(decontaminate_ngrams(ds, ref, k=13, mode="keep"))
    assert [r["doc_id"] for r in kept] == [2]


def test_pack_sequences_matches_serial_scan(ray_session):
    """Distributed prefix scan == the serial ground truth on shuffled
    blocks: offsets are exclusive prefix sums in id order and pack_id
    chunks them at capacity, regardless of block/partition layout."""
    import ray.data as rd

    from gojsonschema_ray.stages.packing import pack_sequences
    from gojsonschema_ray.util import collect_rows

    rng = np.random.default_rng(5)
    n = 5000
    ids = rng.permutation(n).astype(np.int64)  # scrambled input order
    w = rng.integers(0, 300, size=n).astype(np.int64)
    tab = pa.table({"doc_id": ids, "n_tok": w,
                    "payload": [f"p{i}" for i in ids]})
    ds = rd.from_arrow(tab).repartition(16)
    out = collect_rows(pack_sequences(
        ds, order_column="doc_id", weight_column="n_tok", capacity=1000,
        bucket_width=137, keep_columns=["payload"]))
    assert len(out) == n
    got = {r["doc_id"]: r for r in out}
    # serial ground truth
    order = np.argsort(ids, kind="stable")
    w_sorted = w[order]
    offs = np.concatenate([[0], np.cumsum(w_sorted)[:-1]])
    for pos, i in enumerate(order):
        r = got[int(ids[i])]
        assert r["offset"] == offs[pos]
        assert r["pack_id"] == offs[pos] // 1000
        assert r["payload"] == f"p{ids[i]}"


def test_materialize_packs(ray_session):
    """Pack + concatenate == the serial chunking of the corpus: every pack
    row holds its docs' texts joined in id order."""
    import ray.data as rd

    from gojsonschema_ray.stages.packing import (
        materialize_packs, pack_sequences,
    )
    from gojsonschema_ray.util import collect_rows

    rng = np.random.default_rng(6)
    n = 400
    ids = rng.permutation(n).astype(np.int64)
    w = rng.integers(1, 60, size=n).astype(np.int64)
    texts = {int(i): f"doc{i}x" * 2 for i in ids}
    tab = pa.table({"doc_id": ids, "n_tok": w,
                    "text": [texts[int(i)] for i in ids]})
    packed = pack_sequences(rd.from_arrow(tab).repartition(8),
                            order_column="doc_id", weight_column="n_tok",
                            capacity=200, bucket_width=64,
                            keep_columns=["text"])
    out = collect_rows(materialize_packs(packed, order_column="doc_id",
                                         text_column="text"))
    got = {r["pack_id"]: r for r in out}
    # serial ground truth
    order = np.argsort(ids, kind="stable")
    offs = np.concatenate([[0], np.cumsum(w[order])[:-1]])
    expect: dict = {}
    for pos, i in enumerate(order):
        pid = int(offs[pos] // 200)
        expect.setdefault(pid, []).append(texts[int(ids[i])])
    assert set(got) == set(expect)
    for pid, docs in expect.items():
        assert got[pid]["n_docs"] == len(docs)
        assert got[pid]["text"] == " ".join(docs)


def test_materialize_packs_null_text_skipped(ray_session):
    """string_agg semantics: null texts are skipped in the concat (no
    double separator) but still count toward n_docs."""
    import ray.data as rd

    from gojsonschema_ray.stages.packing import materialize_packs
    from gojsonschema_ray.util import collect_rows

    tab = pa.table({"doc_id": [1, 2, 3, 4], "pack_id": [0, 0, 0, 1],
                    "text": pa.array(["a", None, "c", None], pa.string())})
    out = {r["pack_id"]: r for r in collect_rows(
        materialize_packs(rd.from_arrow(tab), order_column="doc_id",
                          text_column="text"))}
    assert out[0]["n_docs"] == 3 and out[0]["text"] == "a c"
    assert out[1]["n_docs"] == 1 and out[1]["text"] is None  # all-null pack


def test_stratified_sample_null_keys_dropped(ray_session):
    """Nullable key columns no longer trip the NaN-hash guard: null-key
    rows are dropped before hashing, non-null sampling is unchanged."""
    import ray.data as rd

    from gojsonschema_ray.stages.sampling import stratified_sample
    from gojsonschema_ray.util import collect_rows

    tab = pa.table({"g": ["a"] * 5 + ["b"] * 5,
                    "k": pa.array([1, 2, None, 4, 5, 6, None, 8, 9, 10],
                                  pa.int64())})
    out = collect_rows(stratified_sample(rd.from_arrow(tab), "g", "k", 2))
    assert len(out) == 4
    assert all(r["k"] is not None for r in out)


def test_decontaminate_ngrams_distinct_hits(ray_session):
    """A ref gram occurring TWICE in one doc counts as ONE distinct hit
    (the lexsort dedup in _hit_counts), and unrelated docs score zero."""
    import ray.data as rd

    from gojsonschema_ray.stages import similarity as sim
    from gojsonschema_ray.util import collect_rows

    ref = ["abcdefghijklmnop"]
    # doc 1 contains the same ref 13-gram TWICE -> still one distinct hit
    corpus = pa.table({
        "doc_id": [1, 2],
        "text": ["xx abcdefghijklm yy abcdefghijklm zz", "nothing shared"],
    })
    removed = collect_rows(sim.decontaminate_ngrams(
        rd.from_arrow(corpus), ref, k=13, mode="removed"))
    got = {r["doc_id"]: r["n_hits"] for r in removed}
    assert got == {1: 1}


def test_pack_sequences_rejects_bad_keys(ray_session):
    import ray.data as rd

    from gojsonschema_ray.stages.packing import pack_sequences
    from gojsonschema_ray.util import collect_rows

    dup = pa.table({"doc_id": [1, 1, 2], "n_tok": [5, 5, 5]})
    with pytest.raises(Exception, match="duplicate|total"):
        collect_rows(pack_sequences(rd.from_arrow(dup),
                                    order_column="doc_id",
                                    weight_column="n_tok", capacity=10))
    nulls = pa.table({"doc_id": pa.array([1, None], pa.int64()),
                      "n_tok": [5, 5]})
    with pytest.raises(Exception, match="null"):
        collect_rows(pack_sequences(rd.from_arrow(nulls),
                                    order_column="doc_id",
                                    weight_column="n_tok", capacity=10))


def test_unique_pairs_capped_resolves_any(ray_session):
    """A pair seen in both a capped and an uncapped bucket keeps
    capped=True deterministically (any-aggregation, not keep-first)."""
    import ray.data as rd

    from gojsonschema_ray.stages.dedup import unique_pairs
    from gojsonschema_ray.util import collect_rows

    tab = pa.table({"id_a": [1, 1, 1, 2], "id_b": [2, 2, 2, 3],
                    "jaccard": [0.9, 0.9, 0.9, 0.8],
                    "capped": [False, True, False, False]})
    out = collect_rows(unique_pairs(rd.from_arrow(tab).repartition(3)))
    d = {(r["id_a"], r["id_b"]): r for r in out}
    assert len(d) == 2
    assert d[(1, 2)]["capped"] is True and d[(1, 2)]["jaccard"] == 0.9
    assert d[(2, 3)]["capped"] is False


def test_group_centroids_noncanonical_list(ray_session):
    """ListArrays whose null slots keep non-empty value extents (legal
    Arrow): positions come from the raw offsets buffer, so the data must be
    read from .values (same coordinate space), not flatten()."""
    import ray.data as rd

    from gojsonschema_ray.stages.similarity import group_centroids

    values = pa.array([1.0, 2.0, 9.0, 9.0, 3.0, 4.0], pa.float64())
    offsets = pa.array([0, 2, 4, 6], pa.int32())
    emb = pa.ListArray.from_arrays(offsets, values,
                                   mask=pa.array([False, True, False]))
    assert emb.is_null()[1].as_py()  # null slot retains the [9,9] extent
    tab = pa.table({"k": ["a", "a", "a"], "embedding": emb})
    df = group_centroids(rd.from_arrow(tab), "k", "embedding")
    got = df.sort_values("pos")["centroid"].tolist()
    assert got == [2.0, 3.0]  # mean of [1,2] and [3,4]; [9,9] excluded


def test_hash_bucket_u32_fails_loudly(ray_session):
    """Signed/NaN/fractional keys raise (the SQL-replica contract fails
    loudly instead of silently diverging); nullable int columns hash with
    nulls masked BEFORE the cast."""
    import ray.data as rd

    from gojsonschema_ray.stages.sampling import hash_bucket_u32, hash_sample
    from gojsonschema_ray.util import collect_rows

    with pytest.raises(ValueError, match="NaN"):
        hash_bucket_u32(np.array([1.0, np.nan]))
    with pytest.raises(ValueError, match="negative"):
        hash_bucket_u32(np.array([3, -1]))
    with pytest.raises(ValueError, match="non-integer"):
        hash_bucket_u32(np.array([1.5]))
    tab = pa.table({"k": pa.array([1, None, 2], pa.int64())})
    out = collect_rows(hash_sample(rd.from_arrow(tab), "k", 1.0))
    assert sorted(r["k"] for r in out) == [1, 2]


def test_hash_sample_and_split(ray_session):
    import ray.data as rd

    from gojsonschema_ray.stages.sampling import (
        hash_bucket_u32, hash_sample, hash_split,
    )
    from gojsonschema_ray.util import collect_rows

    n = 20_000
    ds = rd.from_arrow(pa.table({"k": list(range(n))})).repartition(8)
    s10 = {r["k"] for r in collect_rows(hash_sample(ds, "k", 0.1))}
    s30 = {r["k"] for r in collect_rows(hash_sample(ds, "k", 0.3))}
    # deterministic closed form
    h = hash_bucket_u32(np.arange(n))
    assert s10 == set(np.nonzero(h < round(0.1 * 2**32))[0].tolist())
    # nested: growing the fraction only adds rows
    assert s10 <= s30
    # rough size (hash is well-mixing)
    assert 0.07 < len(s10) / n < 0.13
    # different salt decorrelates
    s10b = {r["k"] for r in collect_rows(hash_sample(ds, "k", 0.1, salt=7))}
    assert s10 != s10b
    # split: disjoint and (with sum=1) exhaustive
    parts = [({r["k"] for r in collect_rows(p)})
             for p in hash_split(ds, "k", [0.8, 0.1, 0.1])]
    assert parts[0] | parts[1] | parts[2] == set(range(n))
    assert not (parts[0] & parts[1]) and not (parts[1] & parts[2]) \
        and not (parts[0] & parts[2])
    # the first band IS the plain sample
    assert parts[1] | parts[0] >= s10  # bands are threshold-ordered


def test_explode_tokens(ray_session):
    import ray.data as rd

    from gojsonschema_ray.functions.text import explode_tokens
    from gojsonschema_ray.util import collect_rows

    ds = rd.from_arrow(pa.table({
        "doc_id": [1, 2, 3, 4, 5],
        "text": ["a b c", "", None, "x  y", "solo"],
    }))
    rows = sorted(((r["doc_id"], r["seq"], r["token"])
                   for r in collect_rows(explode_tokens(ds, "text", "doc_id"))))
    assert rows == [
        (1, 1, "a"), (1, 2, "b"), (1, 3, "c"),
        (2, 1, ""),                      # empty text -> one empty token (SQL parity)
        (4, 1, "x"), (4, 2, ""), (4, 3, "y"),  # double space -> empty token
        (5, 1, "solo"),
    ]


def test_repetition_stats(ray_session):
    """Closed-form repetition metrics; null/empty/whitespace docs dropped,
    case folding on by default."""
    import ray.data as rd

    from gojsonschema_ray.functions.text import repetition_stats
    from gojsonschema_ray.util import collect_rows

    ds = rd.from_arrow(pa.table({
        "doc_id": [1, 2, 3, 4, 5, 6],
        "text": ["a a b", "The the THE", None, "", "   ", "x y z"],
    }))
    rows = {r["doc_id"]: r for r in collect_rows(
        repetition_stats(ds, "text", "doc_id"))}
    assert set(rows) == {1, 2, 6}
    assert rows[1]["n_tokens"] == 3 and rows[1]["n_distinct"] == 2
    assert rows[1]["dup_token_frac"] == 1.0 - 2 / 3
    assert rows[1]["top_token_frac"] == 2 / 3
    assert rows[2]["n_tokens"] == 3 and rows[2]["n_distinct"] == 1
    assert rows[2]["dup_token_frac"] == 1.0 - 1 / 3
    assert rows[2]["top_token_frac"] == 1.0
    assert rows[6]["n_distinct"] == 3 and rows[6]["dup_token_frac"] == 0.0
    assert rows[6]["top_token_frac"] == 1 / 3
    # case folding off: "The the THE" has 3 distinct tokens
    raw = {r["doc_id"]: r for r in collect_rows(
        repetition_stats(ds, "text", "doc_id", lowercase=False))}
    assert raw[2]["n_distinct"] == 3 and raw[2]["dup_token_frac"] == 0.0


def test_unigram_logprob(ray_session):
    """Hand-computed corpus unigram scores; OOV floor under min_count;
    empty-vocab guard."""
    import ray.data as rd

    from gojsonschema_ray.functions.text import unigram_logprob
    from gojsonschema_ray.util import collect_rows

    ds = rd.from_arrow(pa.table({
        "doc_id": [1, 2, 3, 4],
        "text": ["a a b", "a c", None, "  "],
    }))
    # counts: a=3, b=1, c=1, total=5
    rows = {r["doc_id"]: r for r in collect_rows(
        unigram_logprob(ds, "text", "doc_id"))}
    assert set(rows) == {1, 2}
    assert rows[1]["n_tokens"] == 3
    assert rows[1]["avg_logp"] == round(
        (2 * np.log(3 / 5) + np.log(1 / 5)) / 3, 6)
    assert rows[2]["avg_logp"] == round(
        (np.log(3 / 5) + np.log(1 / 5)) / 2, 6)
    # min_count=2 drops b and c: vocab={a:3}, total=3, OOV floor ln(1/3)
    rows2 = {r["doc_id"]: r for r in collect_rows(
        unigram_logprob(ds, "text", "doc_id", min_count=2))}
    assert rows2[1]["avg_logp"] == round(np.log(1 / 3) / 3, 6)
    assert rows2[2]["avg_logp"] == round(np.log(1 / 3) / 2, 6)
    # min_count huge -> empty vocab; guard path returns the 0.0 floor
    rows3 = {r["doc_id"]: r for r in collect_rows(
        unigram_logprob(ds, "text", "doc_id", min_count=100))}
    assert rows3[1]["avg_logp"] == 0.0 and rows3[2]["avg_logp"] == 0.0


def test_gopher_filter(ray_session):
    """Closed-form verdicts with tight thresholds: every rule fires on at
    least one doc, reasons join in fixed order, zero-token docs fail
    cleanly."""
    import ray.data as rd

    from gojsonschema_ray.functions.text import gopher_filter
    from gojsonschema_ray.util import collect_rows

    ds = rd.from_arrow(pa.table({
        "doc_id": [1, 2, 3, 4, 5],
        "text": ["the cat sat", "a a a a", "x y",
                 "one two three four five six", None],
    }))
    rows = {r["doc_id"]: r for r in collect_rows(gopher_filter(
        ds, "text", "doc_id", min_tokens=3, max_tokens=5,
        min_mean_word_len=1.0, max_mean_word_len=10.0,
        max_dup_token_frac=0.5, max_top_token_frac=0.5,
        min_stop_hits=1))}
    assert rows[1]["keep"] == 1 and rows[1]["reasons"] == ""
    assert rows[1]["n_tokens"] == 3 and rows[1]["stop_hits"] == 1
    assert rows[1]["top_token_frac"] == 1 / 3
    assert rows[2]["keep"] == 0
    assert rows[2]["reasons"] == "dup_tokens,top_token"
    assert rows[2]["dup_token_frac"] == 0.75
    assert rows[3]["reasons"] == "min_tokens,stopwords"
    assert rows[4]["reasons"] == "max_tokens,stopwords"
    # null text: 0 tokens -> min_tokens + mean_word_len (0 < 1) + stopwords
    assert rows[5]["n_tokens"] == 0
    assert rows[5]["reasons"] == "min_tokens,mean_word_len,stopwords"
    assert rows[5]["dup_token_frac"] == 0.0 and rows[5]["keep"] == 0


def _dup_line_expected(texts, delimiter, min_count):
    """Scalar reference for dup_line_stats: corpus counts of nonempty
    segments, then per-doc fractions."""
    from collections import Counter
    corpus = Counter()
    segs = []
    for t in texts:
        s = [x for x in (t or "").split(delimiter) if x]
        segs.append(s)
        corpus.update(s)
    out = {}
    for i, s in enumerate(segs):
        if not s:
            continue
        nd = sum(1 for x in s if corpus[x] >= min_count)
        ndc = sum(len(x) for x in s if corpus[x] >= min_count)
        nc = sum(len(x) for x in s)
        out[i] = (len(s), nd, nd / len(s), ndc / nc)
    return out


def test_dup_line_stats_matches_scalar(ray_session):
    """Broadcast path == scalar reference on multi-line texts with nulls,
    empty docs, blank lines, and within-doc repeats (which count toward the
    corpus total)."""
    import ray.data as rd

    from gojsonschema_ray.functions.text import dup_line_stats
    from gojsonschema_ray.util import collect_rows

    texts = [
        "alpha\nbeta\ngamma",          # beta dup'd with doc 1
        "beta\nbeta\ndelta",           # within-doc repeat: beta count 3
        "",                            # zero segments -> dropped
        None,                          # null -> dropped
        "\n\nalpha\n\n",               # blank lines ignored; alpha dup'd
        "unique line only",
    ]
    t = pa.table({"doc_id": list(range(len(texts))), "text": texts})
    want = _dup_line_expected(texts, "\n", 2)
    rows = collect_rows(dup_line_stats(
        rd.from_arrow(t), "text", "doc_id", delimiter="\n", min_count=2))
    got = {r["doc_id"]: (r["n_lines"], r["n_dup_lines"],
                         r["dup_line_frac"], r["dup_char_frac"])
           for r in rows}
    assert got == want


def test_dup_line_stats_seeded_matches_scalar(ray_session):
    """On a seeded 200-doc corpus of heavily shared lines, the rows equal
    the scalar reference at two min_count thresholds."""
    import ray.data as rd

    from gojsonschema_ray.functions.text import dup_line_stats
    from gojsonschema_ray.util import collect_rows

    rng = np.random.default_rng(7)
    lines = [f"line {i}" for i in range(30)]
    texts = ["\n".join(rng.choice(lines, size=rng.integers(1, 12)))
             for _ in range(200)]
    t = pa.table({"doc_id": list(range(len(texts))), "text": texts})
    for mc in (2, 5):
        rows = collect_rows(dup_line_stats(
            rd.from_arrow(t), "text", "doc_id", min_count=mc))
        got = {r["doc_id"]: (r["n_lines"], r["n_dup_lines"],
                             r["dup_line_frac"], r["dup_char_frac"])
               for r in rows}
        assert got == _dup_line_expected(texts, "\n", mc)


def test_drop_duplicate_lines(ray_session):
    """Corpus-duplicated lines vanish from every doc (all copies), order is
    preserved, blank segments collapse, null text stays null, a fully
    duplicated doc becomes empty string."""
    import ray.data as rd

    from gojsonschema_ray.functions.text import drop_duplicate_lines
    from gojsonschema_ray.util import collect_rows

    texts = [
        "keep me\nboilerplate\nalso keep",
        "boilerplate\nunique two",
        "boilerplate",                  # everything dropped -> ""
        None,                           # stays null
        "\n\nsolo\n\n",                 # blanks collapse
    ]
    t = pa.table({"doc_id": list(range(len(texts))), "text": texts})
    rows = collect_rows(drop_duplicate_lines(
        rd.from_arrow(t), "text", "doc_id", delimiter="\n", min_count=2))
    got = {r["doc_id"]: r["text"] for r in rows}
    assert got == {0: "keep me\nalso keep", 1: "unique two", 2: "",
                   3: None, 4: "solo"}


def test_bm25_matches_reference(ray_session):
    """BM25 scores/top-k against a from-scratch pandas reference (Lucene
    idf form, exact operator grouping) on a small corpus with repeated
    terms, varying doc lengths, a no-hit doc, and null/empty rows."""
    import math

    import pandas as pd
    import ray.data as rd

    from gojsonschema_ray.functions.text import bm25_scores, bm25_top_docs
    from gojsonschema_ray.util import collect_rows

    texts = ["join join filter small", "merge", "row scan batch",
             "filter filter filter", None, "  ", "join merge filter"]
    df = pd.DataFrame({"doc_id": list(range(len(texts))), "text": texts})
    ds = rd.from_pandas(df).repartition(3)
    q = ["filter", "join", "merge"]
    k1, b = 1.2, 0.75

    toks = {i: (t or "").strip().lower().split()
            for i, t in enumerate(texts)}
    toks = {i: t for i, t in toks.items() if t}
    N = len(toks)
    avgdl = sum(len(t) for t in toks.values()) / N
    want = {}
    for i, t in toks.items():
        s = 0.0
        for term in q:
            tf = t.count(term)
            if not tf:
                continue
            dfreq = sum(term in tt for tt in toks.values())
            idf = math.log((N - dfreq + 0.5) / (dfreq + 0.5) + 1.0)
            s += idf * (tf * (k1 + 1.0)) \
                / (tf + k1 * (1.0 - b + b * (len(t) / avgdl)))
        if s:
            want[i] = s
    rows = collect_rows(bm25_scores(ds, "text", "doc_id", q, k1=k1, b=b))
    got = {r["doc_id"]: r["score"] for r in rows}
    assert got.keys() == want.keys()
    for i in want:
        assert abs(got[i] - want[i]) < 1e-12, (i, got[i], want[i])

    top = bm25_top_docs(ds, "text", "doc_id", q, k=2, k1=k1, b=b)
    exp_order = sorted(want, key=lambda i: (-want[i], i))[:2]
    assert top["doc_id"].tolist() == exp_order

    pairs = collect_rows(bm25_scores(ds, "text", "doc_id", q, k1=k1, b=b,
                                     return_pairs=True))
    assert sum(p["contribution"] for p in pairs
               if p["doc_id"] == 0) == pytest.approx(want[0], abs=1e-12)
    assert all(p["dl"] == len(toks[p["doc_id"]]) for p in pairs)


def _dup_span_expected(texts, k, min_count):
    """Scalar reference for dup_span_stats: corpus counts of every char
    k-window (exact substrings), per-doc dup-window counts and the char
    coverage of duplicated windows."""
    from collections import Counter
    corpus = Counter()
    for t in texts:
        t = t or ""
        for i in range(len(t) - k + 1):
            corpus[t[i:i + k]] += 1
    out = {}
    for d, t in enumerate(texts):
        t = t or ""
        L = len(t)
        if L < k:
            continue
        starts = [i for i in range(L - k + 1) if corpus[t[i:i + k]] >= min_count]
        cov = np.zeros(L, dtype=bool)
        for i in starts:
            cov[i:i + k] = True
        nw = L - k + 1
        out[d] = (nw, len(starts), len(starts) / nw,
                  int(cov.sum()), int(cov.sum()) / L)
    return out


def test_dup_span_stats_matches_scalar(ray_session):
    """Broadcast path == scalar reference on docs with injected shared
    spans, nulls, short docs, unicode, and within-doc repeats (which count
    toward the corpus total)."""
    import ray.data as rd

    from gojsonschema_ray.functions.text import dup_span_stats
    from gojsonschema_ray.util import collect_rows

    shared = "the five boxing wizards jump quickly over it"
    texts = [
        "prefix " + shared + " suffix one",
        shared + " different tail",
        "short",                        # < k -> dropped
        None,                           # null -> dropped
        "no duplication in this document at all, honest",
        "répét " + shared + " répét " + shared,  # unicode + two copies
    ]
    k = 12
    t = pa.table({"doc_id": list(range(len(texts))), "text": texts})
    want = _dup_span_expected(texts, k, 2)
    rows = collect_rows(dup_span_stats(
        rd.from_arrow(t), "text", "doc_id", k=k, min_count=2))
    got = {r["doc_id"]: (r["n_windows"], r["n_dup_windows"],
                         r["dup_window_frac"], r["covered_chars"],
                         r["covered_frac"])
           for r in rows}
    assert got == want


def test_dup_span_stats_seeded_matches_scalar(ray_session):
    """On a seeded 150-doc corpus built from 12 shared fragments, the rows
    equal the scalar reference at two min_count thresholds."""
    import ray.data as rd

    from gojsonschema_ray.functions.text import dup_span_stats
    from gojsonschema_ray.util import collect_rows

    rng = np.random.default_rng(11)
    frags = ["".join(rng.choice(list("abcdef gh"), size=25)) for _ in range(12)]
    texts = []
    for _ in range(150):
        n = rng.integers(1, 5)
        texts.append(" ".join(rng.choice(frags, size=n)))
    t = pa.table({"doc_id": list(range(len(texts))), "text": texts})
    for mc in (2, 4):
        rows = collect_rows(dup_span_stats(
            rd.from_arrow(t), "text", "doc_id", k=15, min_count=mc))
        got = {r["doc_id"]: (r["n_windows"], r["n_dup_windows"],
                             r["dup_window_frac"], r["covered_chars"],
                             r["covered_frac"])
               for r in rows}
        assert got == _dup_span_expected(texts, 15, mc)


def test_drop_duplicate_spans(ray_session):
    """Chars covered by corpus-duplicated k-windows are cut (every copy),
    survivors re-join in order, null stays null, sub-k docs pass through,
    and the removed/kept counts match the scalar coverage."""
    import ray.data as rd

    from gojsonschema_ray.functions.text import drop_duplicate_spans
    from gojsonschema_ray.util import collect_rows

    shared = "a block of boilerplate text repeated verbatim"
    texts = [
        "keep-head " + shared + " keep-tail",
        shared,                          # fully covered -> ""
        "tiny",                          # < k -> unchanged
        None,
        "wholly original sentence with no reuse anywhere",
    ]
    k = 12
    want = _dup_span_expected(texts, k, 2)
    t = pa.table({"doc_id": list(range(len(texts))), "text": texts})
    rows = collect_rows(drop_duplicate_spans(
        rd.from_arrow(t), "text", "doc_id", k=k, min_count=2))
    got = {r["doc_id"]: r for r in rows}
    assert len(got) == len(texts)
    assert got[3]["text"] is None
    assert got[2]["text"] == "tiny" and got[2]["n_chars_removed"] == 0
    assert got[1]["text"] == "" and got[1]["n_chars_kept"] == 0
    for d, t_orig in enumerate(texts):
        if t_orig is None or len(t_orig) < k:
            continue
        _, _, _, cov, _ = want[d]
        r = got[d]
        assert r["n_chars_removed"] == cov
        assert r["n_chars_kept"] == len(t_orig) - cov
        # the kept text is exactly the uncovered chars, in order
        corpus_cov = np.zeros(len(t_orig), dtype=bool)
        from collections import Counter
        corpus = Counter()
        for tt in texts:
            tt = tt or ""
            for i in range(len(tt) - k + 1):
                corpus[tt[i:i + k]] += 1
        for i in range(len(t_orig) - k + 1):
            if corpus[t_orig[i:i + k]] >= 2:
                corpus_cov[i:i + k] = True
        assert r["text"] == "".join(
            c for c, m in zip(t_orig, corpus_cov) if not m)


def test_bigram_logprob_matches_scalar(ray_session):
    """bigram_logprob == scalar reference: first token scores ln(p_uni),
    later tokens the smoothed bigram ratio; T is the RETAINED vocabulary's
    token total (the unigram_logprob contract); min_count>1 exercises the
    OOV floor and unseen-bigram smoothing paths."""
    import math
    from collections import Counter

    import ray.data as rd

    from gojsonschema_ray.functions.text import bigram_logprob
    from gojsonschema_ray.util import collect_rows

    texts = [
        "the cat sat on the mat",
        "the cat ran",
        "",                      # dropped
        None,                    # dropped
        "solo",
        "THE CAT sat",           # lowercase folding
    ]
    t = pa.table({"doc_id": list(range(len(texts))), "text": texts})
    docs = [x.strip().lower().split()
            if x is not None and x.strip() else None for x in texts]

    def expected(min_count):
        uni, bi = Counter(), Counter()
        for d in docs:
            if not d:
                continue
            uni.update(d)
            bi.update(zip(d, d[1:]))
        uni = Counter({k: v for k, v in uni.items() if v >= min_count})
        bi = Counter({k: v for k, v in bi.items() if v >= min_count})
        T = sum(uni.values()) or 1.0
        p = lambda w: uni[w] / T if uni[w] else 1.0 / T
        out = {}
        for i, d in enumerate(docs):
            if not d:
                continue
            s = math.log(p(d[0]))
            for v, w in zip(d, d[1:]):
                s += math.log((bi[(v, w)] + 1.0 * p(w)) / (uni[v] + 1.0))
            out[i] = (len(d), round(s / len(d), 6))
        return out

    for mc in (1, 3):
        rows = collect_rows(bigram_logprob(
            rd.from_arrow(t), "text", "doc_id", min_count=mc))
        got = {r["doc_id"]: (r["n_tokens"], r["avg_logp"]) for r in rows}
        assert got == expected(mc), mc


def test_quantize_embeddings_exact(ray_session):
    """int8 quantization is bit-exact vs the closed-form definition
    (floor(x/scale + 0.5), scale = max|x|/127 in float64), zero vectors
    included; code_sum and max_abs_err are order-free exacts."""
    import ray.data as rd

    from gojsonschema_ray.stages.similarity import quantize_embeddings
    from gojsonschema_ray.util import collect_rows

    rng = np.random.default_rng(3)
    M = rng.normal(size=(60, 8)).astype(np.float32)
    M[7] = 0.0
    ds = rd.from_items([{"vec_id": i, "embedding": M[i].tolist()}
                        for i in range(len(M))])
    rows = collect_rows(quantize_embeddings(ds, "embedding", "vec_id"))
    assert len(rows) == len(M)
    for r in rows:
        x = M[r["vec_id"]].astype(np.float64)
        s = np.abs(x).max() / 127.0
        if s == 0:
            assert r["scale"] == 0 and r["code_sum"] == 0
            assert r["max_abs_err"] == 0 and all(c == 0 for c in r["codes"])
            continue
        q = np.clip(np.floor(x / s + 0.5), -127, 127)
        assert r["scale"] == s
        assert np.array_equal(np.asarray(r["codes"], dtype=np.float64), q)
        assert r["code_sum"] == int(q.sum())
        assert r["max_abs_err"] == np.abs(x - q * s).max()
    # emit_codes=False drops the list column, keeps the audit columns
    lean = collect_rows(quantize_embeddings(ds, "embedding", "vec_id",
                                            emit_codes=False))
    assert set(lean[0].keys()) == {"vec_id", "scale", "code_sum",
                                   "max_abs_err"}


def test_quantized_ann_recall(ray_session):
    """Quantized brute-force top-k recalls >=80% of the exact float top-k
    on gaussian data (int8 keeps ~2 decimal digits of the cosine)."""
    import ray.data as rd

    from gojsonschema_ray.stages.similarity import (ann_brute_force,
                                                    ann_brute_force_quantized)

    rng = np.random.default_rng(5)
    M = rng.normal(size=(400, 16)).astype(np.float32)
    ds = rd.from_items([{"vec_id": i, "embedding": M[i].tolist()}
                        for i in range(len(M))])
    Q = rng.normal(size=(5, 16))
    exact = ann_brute_force(ds, "embedding", "vec_id", Q, k=10)
    quant = ann_brute_force_quantized(ds, "embedding", "vec_id", Q, k=10)
    for q in range(5):
        a = set(exact[exact["query"] == q]["vec_id"])
        b = set(quant[quant["query"] == q]["vec_id"])
        assert len(a & b) >= 8, (q, a, b)


def test_pmi_bigrams(ray_session):
    """PMI matches the duckdb CTE bit-for-bit (same IEEE chain over
    exact counts); collocations rank above chance pairs; empty corpus
    returns the typed empty frame."""
    import duckdb
    import pandas as pd
    import ray.data as rd

    from gojsonschema_ray.functions.text import pmi_bigrams

    rng = np.random.default_rng(59)
    vocab = ["the", "a", "of", "data", "query", "plan", "hong", "kong",
             "new", "york"]
    docs = []
    for _ in range(300):
        toks = list(rng.choice(vocab[:6], rng.integers(5, 30)))
        if rng.random() < 0.5:
            toks.extend(["hong", "kong"])   # strong collocation
        if rng.random() < 0.3:
            toks.extend(["new", "york"])
        docs.append(" ".join(toks))
    df = pd.DataFrame({"text": docs})
    got = pmi_bigrams(rd.from_pandas(df).repartition(4), "text",
                      min_count=5, top=10)
    exp = duckdb.sql(
        "WITH d AS (SELECT string_split_regex(trim(lower(text)), '\\s+') "
        "AS l FROM df WHERE text IS NOT NULL AND trim(text) != ''), "
        "t1 AS (SELECT sum(len(l)) AS n1, "
        "sum(greatest(len(l) - 1, 0)) AS n2 FROM d), "
        "u AS (SELECT unnest(l) AS w FROM d), "
        "cu AS (SELECT w, count(*) AS c FROM u GROUP BY w), "
        "g AS (SELECT unnest(list_transform(generate_series(1, "
        "len(l) - 1), i -> l[i] || ' ' || l[i + 1])) AS gram, "
        "unnest(list_transform(generate_series(1, len(l) - 1), "
        "i -> l[i])) AS w1, unnest(list_transform(generate_series(1, "
        "len(l) - 1), i -> l[i + 1])) AS w2 FROM d), "
        "cb AS (SELECT gram, w1, w2, count(*) AS cxy FROM g "
        "GROUP BY gram, w1, w2 HAVING count(*) >= 5) "
        "SELECT gram, cb.w1, cb.w2, CAST(cxy AS BIGINT) AS c_xy, "
        "CAST(a.c AS BIGINT) AS c_x, CAST(b.c AS BIGINT) AS c_y, "
        "ln((CAST(cxy AS DOUBLE) / n2) / ((CAST(a.c AS DOUBLE) / n1) * "
        "(CAST(b.c AS DOUBLE) / n1))) AS pmi "
        "FROM cb JOIN cu a ON cb.w1 = a.w JOIN cu b ON cb.w2 = b.w, t1 "
        "ORDER BY pmi DESC, gram LIMIT 10").df()
    assert got["gram"].tolist() == exp["gram"].tolist()
    assert got[["c_xy", "c_x", "c_y"]].values.tolist() == \
        exp[["c_xy", "c_x", "c_y"]].values.tolist()  # counts exact
    # ln() is not correctly rounded across libms (numpy vs duckdb can
    # differ in the last ulp) — counts are exact, pmi to 1e-12
    assert np.allclose(got["pmi"], exp["pmi"], rtol=1e-12, atol=0)
    assert got["gram"].iloc[0] in ("hong kong", "new york")
    empty = pmi_bigrams(rd.from_pandas(pd.DataFrame({"text": ["", None]})),
                        "text")
    assert empty.empty and list(empty.columns) == \
        ["gram", "w1", "w2", "c_xy", "c_x", "c_y", "pmi"]


def test_learn_bpe_golden(ray_session):
    """Hand-computed merge sequence on the classic low/lower/lowest
    corpus; encode reproduces the segmentation; token counts match the
    encoded lengths."""
    import pandas as pd
    import ray.data as rd

    from gojsonschema_ray.functions.text import (bpe_encode,
                                                 bpe_token_counts,
                                                 learn_bpe)
    from gojsonschema_ray.util import collect_rows

    df = pd.DataFrame({
        "doc_id": [0, 1, 2],
        "text": ["low low low", "lower", "lowest"],
    })
    m = learn_bpe(rd.from_pandas(df).repartition(2), "text", n_merges=4)
    # pair weights: (l,o)=5 (o,w)=5 (w,</w>)=3 (w,e)=2 ... ties break
    # lexicographically: ('l','o') before ('o','w')
    assert list(zip(m["left"], m["right"], m["n"])) == [
        ("l", "o", 5), ("lo", "w", 5), ("low", "</w>", 3),
        ("low", "e", 2)]
    ranks = {(l, r): int(k) for k, l, r in
             zip(m["rank"], m["left"], m["right"])}
    assert bpe_encode("low", ranks) == ["low</w>"]
    assert bpe_encode("lowest", ranks) == ["lowe", "s", "t", "</w>"]
    assert bpe_encode("xyz", ranks) == ["x", "y", "z", "</w>"]
    rows = {r["doc_id"]: r["bpe_tokens"] for r in collect_rows(
        bpe_token_counts(rd.from_pandas(df), "text", m))}
    assert rows == {0: 3, 1: 3 + 0, 2: 4}  # low:1x3; lower: lowe+r+</w>=3
    # empty/degenerate corpus
    e = learn_bpe(rd.from_pandas(pd.DataFrame({"text": ["a"]})), "text",
                  n_merges=5)
    assert list(zip(e["left"], e["right"])) == [("a", "</w>")]
