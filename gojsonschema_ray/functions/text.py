"""Text-analysis functions for large-scale training-data pipelines:
language-ID (n-gram/stopword heuristic), quality scoring, token counting,
document fingerprinting (rolling hash + winnowing). All batch-level
(pa.Table -> pa.Table), vectorized where the kernel allows; per-doc loops
only where the algorithm is inherently per-document (shingling), kept off
the metadata hot path.

Tokenization contract: ``\\s+`` split of trimmed text (empty string → 0
tokens) — chosen to be exactly reproducible in SQL for the DuckDB oracle
(`array_length(string_split_regex(trim(text), '\\s+'))`).
"""

from __future__ import annotations

import functools
import re

import numpy as np
import pandas as pd
import pyarrow as pa
import pyarrow.compute as pc

from ..stages.exchange import broadcast
from ..util import in_sorted, sorted_lookup

_WS = re.compile(r"\s+")
# BPE-ish subword segmentation: words, numbers, punctuation runs
BPE_RE = re.compile(r"[A-Za-z]+|[0-9]+|[^\sA-Za-z0-9]")

STOPWORDS = {
    "en": {"the", "a", "and", "of", "to", "in", "is", "it", "that", "for"},
    "de": {"der", "die", "das", "und", "ist", "nicht", "ein", "mit", "zu", "auf"},
    "es": {"el", "la", "los", "las", "y", "es", "en", "que", "de", "un"},
    "fr": {"le", "la", "les", "et", "est", "en", "que", "de", "un", "une"},
}
_CJK = re.compile(r"[一-鿿぀-ヿ]")


def token_count(text: str | None) -> int:
    if not text:
        return 0
    t = text.strip()
    return len(_WS.split(t)) if t else 0


def token_count_batch(col) -> "np.ndarray":
    """Vectorized `token_count` over an Arrow string column (int64 per
    row): trim, count `\\s+` runs with the RE2 kernel, +1 for non-empty.
    Parity caveat (the engine's documented tokenizer contract): RE2's
    `\\s` is ASCII-only while Python's is Unicode — identical on
    ASCII-whitespace corpora (asserted against the scalar in tests)."""
    if isinstance(col, pa.ChunkedArray):
        col = col.combine_chunks()
    trimmed = pc.utf8_trim_whitespace(col)
    n = pc.add(pc.count_substring_regex(trimmed, r"\s+"), 1)
    n = pc.if_else(pc.equal(pc.utf8_length(trimmed), 0), 0, n)
    return np.asarray(pc.fill_null(n, 0).to_numpy(zero_copy_only=False),
                      dtype=np.int64)


def bpe_token_count(text: str | None) -> int:
    return len(BPE_RE.findall(text)) if text else 0


def lang_id(text: str | None) -> str:
    """Cheap n-gram/stopword heuristic: CJK chars → zh; else argmax stopword
    hit-rate over the profiles; 'und' (undetermined) when nothing scores.

    Scalar reference implementation — the hot path is ``lang_id_batch``
    (C-level regex passes over a whole Series); parity is property-tested
    (tests/test_functions.py)."""
    if not text:
        return "und"
    if _CJK.search(text):
        return "zh"
    toks = [t.lower() for t in _WS.split(text.strip())[:200]]
    best, best_score = "und", 0
    for lang, sw in STOPWORDS.items():
        score = sum(1 for t in toks if t in sw)
        if score > best_score:
            best, best_score = lang, score
    return best


class _TokenStructure:
    """Shared batch tokenization (one strip+split+explode+lower pass) that
    quality scoring and language-ID both read — tokenizing once instead of
    once per signal is the stage's main batch win.

    Tokens follow the engine contract (\\s+ split of trimmed text)."""

    def __init__(self, texts: pd.Series):
        t = texts.fillna("")
        toks = t.str.strip().str.split()  # C-level; drops empty tokens
        self.n_docs = len(t)
        self.lens = toks.str.len().fillna(0).astype("int64").to_numpy()
        ex = toks.explode()
        flat = ex[ex.notna()]
        starts = np.zeros(self.n_docs + 1, dtype=np.int64)
        np.cumsum(self.lens, out=starts[1:])
        self.doc_idx = np.repeat(np.arange(self.n_docs), self.lens)
        self.low = flat.str.lower().reset_index(drop=True)
        # token position within its doc (for first-N-token slices)
        self.pos = np.arange(len(self.low)) - starts[self.doc_idx]

    def hit_counts(self, vocab: set, max_pos: int | None = None) -> np.ndarray:
        """(n_docs,) counts of tokens in `vocab` (optionally only the first
        `max_pos` tokens of each doc)."""
        hits = self.low.isin(vocab).to_numpy()
        if max_pos is not None:
            hits = hits & (self.pos < max_pos)
        out = np.zeros(self.n_docs, dtype=np.int64)
        np.add.at(out, self.doc_idx[hits], 1)
        return out


def lang_id_batch(texts: pd.Series,
                  tokens: _TokenStructure | None = None) -> np.ndarray:
    """Vectorized ``lang_id`` over a Series: one shared tokenization, one
    isin pass per language profile over the first-200-token slice, one CJK
    contains pass — no per-row Python. Exactly equivalent to mapping
    ``lang_id`` (strict-improvement argmax in en>de>es>fr order, all-zero →
    'und', CJK anywhere in the full text → 'zh')."""
    t = texts.fillna("")
    ts = tokens if tokens is not None else _TokenStructure(texts)
    langs = list(STOPWORDS)
    scores = np.stack([ts.hit_counts(STOPWORDS[lang], max_pos=200)
                       for lang in langs], axis=1)
    pred = np.where(scores.max(axis=1) == 0, "und",
                    np.asarray(langs, dtype=object)[scores.argmax(axis=1)])
    cjk = t.str.contains(_CJK, regex=True).to_numpy()
    return np.where(cjk, "zh", pred)


def quality_scores(texts: pd.Series,
                   tokens: "_TokenStructure | None" = None) -> pd.DataFrame:
    """Vectorized quality signals: length, punct ratio, digit ratio, stopword
    ratio, mean word length — the standard web-corpus filters. Pass a shared
    ``_TokenStructure`` to avoid re-tokenizing (TextStatsStage does)."""
    t = texts.fillna("")
    ts = tokens if tokens is not None else _TokenStructure(texts)
    n_chars = t.str.len()
    n_tokens = pd.Series(ts.lens, index=t.index)
    n_punct = t.str.count(r"[^\w\s]")
    n_digit = t.str.count(r"[0-9]")
    n_alpha = t.str.count(r"[A-Za-z]")
    stop_hits = ts.hit_counts(STOPWORDS["en"])
    stop_ratio = pd.Series(
        np.divide(stop_hits, ts.lens, out=np.zeros(len(t)),
                  where=ts.lens > 0),
        index=t.index)
    mean_wl = (n_alpha / n_tokens.replace(0, 1)).astype(float)
    return pd.DataFrame({
        "n_chars": n_chars.astype("int64"),
        "n_tokens": n_tokens.astype("int64"),
        "punct_ratio": (n_punct / n_chars.replace(0, 1)).astype(float),
        "digit_ratio": (n_digit / n_chars.replace(0, 1)).astype(float),
        "stopword_ratio": stop_ratio.astype(float),
        "mean_word_len": mean_wl,
    })


_FP_BASE = np.uint64(1099511628211)
_FP_MOD_MASK = np.uint64((1 << 61) - 1)


def rolling_fingerprint(text: str | None, k: int = 8, keep: int = 4) -> int:
    """Winnowing-style fingerprint: Rabin-Karp rolling hashes over k-byte
    windows, keep the `keep` smallest, mix to one int64 (order-free)."""
    if not text or len(text) < k:
        return 0
    b = np.frombuffer(text.encode("utf-8"), dtype=np.uint8).astype(np.uint64)
    if len(b) < k:
        return 0
    base = int(_FP_BASE)
    mask = int(_FP_MOD_MASK)
    powers_py = [1] * k
    for i in range(1, k):
        powers_py[i] = (powers_py[i - 1] * base) & mask
    powers = np.array(powers_py, dtype=np.uint64)
    windows = np.lib.stride_tricks.sliding_window_view(b, k)
    with np.errstate(over="ignore"):
        h = (windows * powers[::-1]).sum(axis=1) & _FP_MOD_MASK
    smallest = np.sort(np.unique(h))[:keep]
    out = 0
    for s in smallest:
        out = ((out * base) ^ int(s)) & mask
    return int(out)


def rolling_fingerprint_batch(texts: pd.Series, k: int = 8,
                              keep: int = 4) -> np.ndarray:
    """(n_docs,) int64 winnowing fingerprints in one vectorized pass —
    equivalent to mapping ``rolling_fingerprint``.

    One byte-concat of the batch, k-byte sliding windows over the concat
    (windows crossing doc boundaries masked out), the Rabin-Karp sum as k
    shifted vector adds (no (windows, k) temp), then per-doc smallest-
    ``keep`` unique hashes via one lexsort — no per-document Python."""
    t = texts.fillna("")
    enc = [s.encode("utf-8") for s in t]  # per-row encode is C-level
    blens = np.array([len(b) for b in enc], dtype=np.int64)
    # scalar parity: docs with FEWER THAN k CHARS are 0 even if their utf-8
    # byte length reaches k (the scalar's len(text) < k early-out)
    char_lens = t.str.len().to_numpy()
    out = np.zeros(len(t), dtype=np.uint64)
    if not ((char_lens >= k) & (blens >= k)).any():
        return out.astype(np.int64)
    buf = np.frombuffer(b"".join(enc), dtype=np.uint8).astype(np.uint64)
    starts = np.zeros(len(t) + 1, dtype=np.int64)
    np.cumsum(blens, out=starts[1:])
    base = int(_FP_BASE)
    mask = int(_FP_MOD_MASK)
    powers_py = [1] * k
    for i in range(1, k):
        powers_py[i] = (powers_py[i - 1] * base) & mask
    powers = np.array(powers_py, dtype=np.uint64)
    # h[p] = sum_j buf[p+j] * powers[k-1-j]  (uint64 wraparound, then mask —
    # identical to the scalar's (windows * powers[::-1]).sum)
    n_win = len(buf) - k + 1
    h = np.zeros(n_win, dtype=np.uint64)
    with np.errstate(over="ignore"):
        for j in range(k):
            h += buf[j:j + n_win] * powers[k - 1 - j]
    h &= _FP_MOD_MASK
    # windows fully inside doc d start in [starts[d], starts[d+1] - k]
    n_keep_per_doc = np.where(char_lens >= k, np.maximum(blens - k + 1, 0), 0)
    doc_idx = np.repeat(np.arange(len(t)), n_keep_per_doc)
    offs = np.arange(len(doc_idx)) - np.concatenate(
        [[0], np.cumsum(n_keep_per_doc)])[:-1][doc_idx]
    win_pos = starts[doc_idx] + offs
    hv = h[win_pos]
    # per-doc smallest `keep` unique values: lexsort by (doc, hash), drop
    # consecutive duplicates within a doc, rank-within-doc < keep
    order = np.lexsort((hv, doc_idx))
    ds_, hs_ = doc_idx[order], hv[order]
    first = np.ones(len(ds_), dtype=bool)
    first[1:] = (ds_[1:] != ds_[:-1]) | (hs_[1:] != hs_[:-1])
    ds_, hs_ = ds_[first], hs_[first]
    new_doc = np.ones(len(ds_), dtype=bool)
    new_doc[1:] = ds_[1:] != ds_[:-1]
    idx = np.arange(len(ds_))
    rank = idx - np.maximum.accumulate(np.where(new_doc, idx, 0))
    sel = rank < keep
    dsel, hsel, rsel = ds_[sel], hs_[sel], rank[sel]
    # mix sequentially over the ≤`keep` rank columns (vector ops per rank)
    with np.errstate(over="ignore"):
        for r in range(keep):
            m = rsel == r
            cur = out[dsel[m]]
            out[dsel[m]] = ((cur * _FP_BASE) ^ hsel[m]) & _FP_MOD_MASK
    return out.astype(np.int64)


class TextStatsStage:
    """map_batches payload (pandas format): append text-analysis columns.

    Stateless enough for task pools, but compiled regexes make it a natural
    actor-pool payload at scale (compile once per actor)."""

    def __init__(self, text_column: str = "text"):
        self.text_column = text_column

    def __call__(self, batch: pd.DataFrame) -> pd.DataFrame:
        texts = batch[self.text_column]
        tokens = _TokenStructure(texts)  # tokenize ONCE for quality + lang
        q = quality_scores(texts, tokens=tokens)
        for c in q.columns:
            batch[c] = q[c].values
        # one C-level regex pass (matches bpe_token_count's len(findall))
        batch["bpe_tokens"] = texts.fillna("").str.count(BPE_RE).astype("int64")
        batch["lang_pred"] = lang_id_batch(texts, tokens=tokens)
        batch["fingerprint"] = rolling_fingerprint_batch(texts)
        return batch


def token_frequencies(ds, text_column: str, min_count: int = 1, n: int = 1,
                      lowercase: bool = True, distinct_per_doc: bool = False):
    """Corpus vocabulary: (gram, n) counts of word n-grams at or above
    `min_count` — the vocabulary-building pass of a training-data pipeline.
    `distinct_per_doc=True` counts each gram at most once per document
    (DOCUMENT frequency, the df of tf-idf) instead of per occurrence.

    Tokenization = the engine's SQL-reproducible contract (``\\s+`` split of
    trimmed text — ASCII whitespace; exotic Unicode spaces are outside the
    contract since RE2/DuckDB ``\\s`` is ASCII-only). The split runs on the
    SAME Arrow RE2 kernel as `unigram_logprob`'s scoring pass, so both
    phases of that operator tokenize identically on any input; n-grams join
    `n` consecutive tokens with single spaces via one
    `binary_join_element_wise` over shifted views of the flat token array.
    Scale shape: per-batch explode + partial counts (the combiner bounds
    the exchange by distinct-grams-per-batch, not token count), then the
    SAME exchange as key-uniqueness (uniqueness.aggregate_key_counts).
    Returns a Dataset of (gram, n)."""
    from ..stages.uniqueness import aggregate_key_counts

    def partial(t: pa.Table) -> pa.Table:
        col = t[text_column]
        col = col.combine_chunks() if isinstance(col, pa.ChunkedArray) else col
        txt = pc.utf8_trim_whitespace(pc.cast(col, pa.string()))
        if lowercase:
            txt = pc.utf8_lower(txt)
        lists = pc.split_pattern_regex(txt, r"\s+")
        lists = lists.combine_chunks() if isinstance(lists, pa.ChunkedArray) \
            else lists
        lens = np.diff(lists.offsets.to_numpy(zero_copy_only=False)
                       .astype(np.int64))
        doc_ok = ~np.asarray(pc.is_null(lists).to_numpy(zero_copy_only=False))
        doc_ok &= np.asarray(pc.greater(pc.utf8_length(txt), 0)
                             .fill_null(False).to_numpy(zero_copy_only=False))
        vals = lists.values  # flat tokens, incl. dropped docs' — masked below
        did = np.repeat(np.arange(t.num_rows, dtype=np.int64), lens)
        tok_ok = np.repeat(doc_ok, lens)
        if n == 1:
            keep = tok_ok
            grams = vals.filter(pa.array(keep))
        else:
            L = len(vals) - n + 1
            if L <= 0:
                keep = np.zeros(0, dtype=bool)
            else:  # gram at i spans tokens i..i+n-1 of ONE kept doc
                keep = tok_ok[:L] & (did[:L] == did[n - 1:])
            if not keep.any():
                grams = pa.array([], pa.string())
            else:
                parts_ = [vals.slice(j, L) for j in range(n)]
                grams = pc.binary_join_element_wise(*parts_, " ") \
                    .filter(pa.array(keep))
        gdid = did[:len(keep)][keep] if len(keep) else did[:0]
        if distinct_per_doc and len(grams):
            dd = pd.DataFrame({"d": gdid, "g": grams.to_pandas()}) \
                .drop_duplicates()
            grams = pa.array(dd["g"], pa.string())
        vc = pc.value_counts(grams)
        return pa.table({"gram": vc.field(0),
                         "cnt": pc.cast(vc.field(1), pa.int64())})

    partials = ds.map_batches(partial, batch_format="pyarrow")
    return aggregate_key_counts(partials, "gram", min_count=min_count)


# PII patterns in RE2 syntax — compiled by Arrow's replace_substring_regex
# (RE2), the same engine family as the vectorized validators, so behavior is
# identical on workers and in DuckDB regexp_replace.
#
# The phone pattern is \b-anchored on both ends (no match can start or end
# inside an alphanumeric run, so order ids like "abc123456789" don't
# redact) and its interior class excludes newlines ([ \t], not \s) so a
# digit-leading line can't be glued to the previous line's digits.
PII_PATTERNS = {
    "email": (r"[A-Za-z0-9._%+\-]+@[A-Za-z0-9.\-]+\.[A-Za-z]{2,}", "<EMAIL>"),
    "ipv4": (r"\b(?:[0-9]{1,3}\.){3}[0-9]{1,3}\b", "<IP>"),
    "phone": (r"\+?\b[0-9][0-9()\- \t]{7,}[0-9]\b", "<PHONE>"),
}


class PiiRedactStage:
    """map_batches payload: redact PII spans (email/IPv4/phone by default)
    from a text column, appending `<col>_redacted` plus per-kind match-count
    columns — the scrubbing pass of a web-corpus pipeline.

    All matching runs through Arrow RE2 kernels (count_substring_regex /
    replace_substring_regex): one C-level pass per pattern, no Python per
    row. Per-kind counts are computed on the ORIGINAL text (order-
    independent; a span matching two patterns counts under both).
    Replacement order still matters (email before phone: an address's
    digits must not be half-eaten by the phone pattern) — patterns apply in
    dict order."""

    def __init__(self, text_column: str = "text",
                 patterns: dict | None = None):
        self.text_column = text_column
        self.patterns = patterns or PII_PATTERNS

    def __call__(self, batch: pa.Table) -> pa.Table:
        col = batch[self.text_column]
        col = col.combine_chunks() if isinstance(col, pa.ChunkedArray) else col
        out = col
        counts = {}
        for kind, (pattern, repl) in self.patterns.items():
            counts[kind] = pc.count_substring_regex(col, pattern)
            out = pc.replace_substring_regex(out, pattern, repl)
        batch = batch.append_column(f"{self.text_column}_redacted", out)
        for kind, c in counts.items():
            batch = batch.append_column(f"n_{kind}", c)
        return batch


def explode_tokens(ds, text_column: str, id_column: str,
                   pattern: str = " "):
    """Row-expanding tokenization: one output row per token with its
    1-based position — (id, seq, token).

    The flat_map analog done the columnar way: pc.split_pattern produces a
    ListArray per batch; tokens come from its flattened values buffer and
    positions from an arange minus each row's repeated list offset — the
    whole expansion is three Arrow/numpy kernels, no Python per row or per
    token. Null texts yield no rows (split of null is a null list);
    consecutive separators yield empty-string tokens, matching SQL
    string_split semantics so a DuckDB unnest/generate_subscripts oracle
    replicates the output exactly.

    Scale shape: pure per-batch expansion — no shuffle; output blocks grow
    by the token/doc ratio, so pair it with a smaller batch_size upstream
    if documents are long.
    """

    def expand(batch: pa.Table) -> pa.Table:
        col = batch[text_column]
        col = col.combine_chunks() if isinstance(col, pa.ChunkedArray) else col
        lists = pc.split_pattern(col, pattern)
        lists = lists.combine_chunks() if isinstance(lists, pa.ChunkedArray) \
            else lists
        offsets = lists.offsets.to_numpy(zero_copy_only=False).astype(np.int64)
        # null rows contribute zero-length segments in a ListArray only if
        # offsets repeat; enforce that by zeroing their extents via fill
        lengths = np.diff(offsets)
        valid = ~np.asarray(pc.is_null(lists).to_numpy(zero_copy_only=False))
        lengths = np.where(valid, lengths, 0)
        parent = np.repeat(np.arange(len(lengths)), lengths)
        starts = np.repeat(np.cumsum(np.concatenate([[0], lengths[:-1]])),
                           lengths)
        seq = np.arange(int(lengths.sum()), dtype=np.int64) - starts + 1
        # tokens of valid rows, in row-major order
        flat = lists.flatten()  # drops null rows' slots entirely
        ids = batch[id_column].take(pa.array(parent, type=pa.int64()))
        return pa.table({id_column: ids,
                         "seq": pa.array(seq),
                         "token": flat})

    return ds.map_batches(expand, batch_format="pyarrow")


def tfidf_top_terms(ds, text_column: str, id_column: str, *, k: int = 3,
                    lowercase: bool = True):
    """Per-document top-k TF-IDF terms — the keyword-extraction pass of a
    corpus pipeline, composed entirely from the engine's distributed
    operators:

    1. tf: per-batch explode + (doc, token) counts — NO exchange (a
       document's text lives in one row, so its term counts complete
       within the batch).
    2. df: token_frequencies(distinct_per_doc=True) — combiner partials +
       one coarse exchange.
    3. tf ⋈ df on token via joins.hash_join_shuffle (one hash(token)
       exchange per side — a broadcast would cap vocabulary size, and
       web-corpus vocabularies don't fit).
    4. score = tf * (ln((1+N)/(1+df)) + 1) (smooth idf), then
       topk.grouped_top_k per document (score desc, token asc tiebreak —
       equal scores come from equal (tf, df), so the order is total).

    Tokenization is this module's SQL-reproducible contract (see
    token_frequencies); N = ds row count (parquet metadata, no pass).
    Returns a Dataset of (id, token, tf, df, score)."""
    from ..stages.joins import hash_join_shuffle
    from ..stages.topk import grouped_top_k

    n_docs = ds.count()

    def tf_partial(batch: pa.Table) -> pa.Table:
        # Arrow-native (doc, token) counts on the SAME RE2 \s+ kernel as
        # token_frequencies — one split, dictionary_encode, one np.unique;
        # no per-row Python, no Unicode-vs-ASCII drift between tf and df.
        col = batch[text_column]
        col = col.combine_chunks() if isinstance(col, pa.ChunkedArray) \
            else col
        txt = pc.utf8_trim_whitespace(pc.cast(col, pa.string()))
        if lowercase:
            txt = pc.utf8_lower(txt)
        lists = pc.split_pattern_regex(txt, r"\s+")
        lists = lists.combine_chunks() if isinstance(lists, pa.ChunkedArray) \
            else lists
        lens = np.diff(lists.offsets.to_numpy(zero_copy_only=False)
                       .astype(np.int64))
        doc_ok = ~np.asarray(pc.is_null(lists).to_numpy(zero_copy_only=False))
        doc_ok &= np.asarray(pc.greater(pc.utf8_length(txt), 0)
                             .fill_null(False).to_numpy(zero_copy_only=False))
        ids_col = batch[id_column]
        ids_col = ids_col.combine_chunks() \
            if isinstance(ids_col, pa.ChunkedArray) else ids_col
        if not doc_ok.any():
            return pa.table({id_column: ids_col.slice(0, 0),
                             "token": pa.array([], pa.string()),
                             "tf": pa.array([], pa.int64())})
        vals = lists.values.filter(pa.array(np.repeat(doc_ok, lens)))
        did = np.repeat(np.arange(batch.num_rows, dtype=np.int64),
                        np.where(doc_ok, lens, 0))
        enc = vals.dictionary_encode()
        codes = enc.indices.to_numpy(zero_copy_only=False).astype(np.int64)
        ncodes = max(len(enc.dictionary), 1)
        uk, cnt = np.unique(did * ncodes + codes, return_counts=True)
        return pa.table({
            id_column: ids_col.take(pa.array(uk // ncodes)),
            "token": enc.dictionary.take(pa.array(uk % ncodes)),
            "tf": pa.array(cnt.astype(np.int64)),
        })

    tf_ds = ds.map_batches(tf_partial, batch_format="pyarrow")
    df_ds = token_frequencies(ds, text_column, n=1, min_count=1,
                              lowercase=lowercase, distinct_per_doc=True) \
        .map_batches(lambda t: t.rename_columns(["token", "df"]),
                     batch_format="pyarrow")
    joined = hash_join_shuffle(tf_ds, df_ds, on="token",
                               left_columns=[id_column, "tf"],
                               right_columns=["df"])

    def score(sdf: pd.DataFrame) -> pd.DataFrame:
        idf = np.log((1.0 + n_docs) / (1.0 + sdf["df"].to_numpy())) + 1.0
        return sdf.assign(score=sdf["tf"].to_numpy() * idf)

    scored = joined.map_batches(score, batch_format="pandas")
    return grouped_top_k(scored, id_column,
                         [("score", "descending"), ("token", "ascending")],
                         k)


def _repetition_kernel(batch: pa.Table, text_column: str, id_column: str,
                       lowercase: bool) -> pa.Table:
    """Per-batch kernel of ``repetition_stats`` (module-level so tests can
    property-check it directly against a scalar reference, no Ray)."""
    col = batch[text_column]
    col = col.combine_chunks() if isinstance(col, pa.ChunkedArray) else col
    txt = pc.utf8_trim_whitespace(pc.cast(col, pa.string()))
    if lowercase:
        txt = pc.utf8_lower(txt)
    lists = pc.split_pattern_regex(txt, r"\s+")
    lists = lists.combine_chunks() if isinstance(lists, pa.ChunkedArray) \
        else lists
    offsets = lists.offsets.to_numpy(zero_copy_only=False).astype(np.int64)
    lengths = np.diff(offsets)
    valid = ~np.asarray(pc.is_null(lists).to_numpy(zero_copy_only=False))
    # empty trimmed text splits to [''] — treat as 0 tokens (contract)
    empty = np.asarray(
        pc.equal(pc.utf8_length(txt), 0).fill_null(True)
        .to_numpy(zero_copy_only=False))
    lengths = np.where(valid & ~empty, lengths, 0)
    keep = lengths > 0
    if not keep.any():
        return pa.table({id_column: batch[id_column].slice(0, 0),
                         "n_tokens": pa.array([], pa.int64()),
                         "n_distinct": pa.array([], pa.int64()),
                         "dup_token_frac": pa.array([], pa.float64()),
                         "top_token_frac": pa.array([], pa.float64())})
    # Token-level keep mask over the RAW values buffer: dropped rows
    # (null / empty) may still own extents there (the ['']-token of an
    # empty split, or a non-canonical null extent) — mask their tokens
    # out instead of assuming zero-length.
    kept_rows = np.flatnonzero(keep)
    raw_lengths = np.diff(offsets)
    tok_keep = np.repeat(keep, raw_lengths)
    codes_all = lists.values.dictionary_encode().indices \
        .to_numpy(zero_copy_only=False).astype(np.int64)
    codes = codes_all[tok_keep]
    doc_idx = np.repeat(kept_rows, lengths[kept_rows])
    n_codes = int(codes_all.max()) + 1 if len(codes_all) else 1
    key = doc_idx * n_codes + codes
    uk, counts = np.unique(key, return_counts=True)
    pair_doc = uk // n_codes
    seg_starts = np.r_[0, 1 + np.flatnonzero(pair_doc[1:] != pair_doc[:-1])]
    n_distinct = np.diff(np.r_[seg_starts, len(pair_doc)]).astype(np.int64)
    top = np.maximum.reduceat(counts, seg_starts).astype(np.int64)
    ntok = lengths[kept_rows].astype(np.int64)
    ids = batch[id_column].combine_chunks() \
        if isinstance(batch[id_column], pa.ChunkedArray) else batch[id_column]
    return pa.table({
        id_column: ids.take(pa.array(kept_rows)),
        "n_tokens": pa.array(ntok),
        "n_distinct": pa.array(n_distinct),
        "dup_token_frac": pa.array(1.0 - n_distinct / ntok),
        "top_token_frac": pa.array(top / ntok),
    })


def repetition_stats(ds, text_column: str, id_column: str, *,
                     lowercase: bool = True):
    """Per-document repetition metrics — the Gopher-style repetition filters
    of a web-corpus quality pipeline (Rae et al. 2021 §A1.1 use
    duplicate-line/-paragraph fractions; these documents are single-line, so
    the token-level equivalents apply):

      n_tokens         total tokens
      n_distinct       distinct tokens
      dup_token_frac   1 - n_distinct / n_tokens  (mass of repeated tokens)
      top_token_frac   count(mode token) / n_tokens

    Tokenization = the module contract (``\\s+`` split of trimmed text,
    optional lowercase). Docs with zero tokens are dropped (no defined
    fractions). The fractions are emitted UNROUNDED: both are single IEEE
    divisions of small int64 counts, bit-identical in numpy and DuckDB, so
    the oracle reproduces them exactly without a rounding contract.

    Scale shape: pure per-batch kernel (``_repetition_kernel``) —
    split_pattern_regex (RE2) + dictionary_encode + one np.unique over
    (doc, code) pairs per batch; no shuffle, no per-row Python. Trivially
    parallel at 100 TB."""
    return ds.map_batches(
        functools.partial(_repetition_kernel, text_column=text_column,
                          id_column=id_column, lowercase=lowercase),
        batch_format="pyarrow")


def _ngram_repetition_kernel(batch: pa.Table, text_column: str,
                             id_column: str, top_ns: tuple, dup_ns: tuple,
                             lowercase: bool) -> pa.Table:
    """Per-batch kernel of ``ngram_repetition_stats`` (module-level so tests
    can check it against a scalar reference, no Ray)."""
    col = batch[text_column]
    col = col.combine_chunks() if isinstance(col, pa.ChunkedArray) else col
    txt = pc.utf8_trim_whitespace(pc.cast(col, pa.string()))
    if lowercase:
        txt = pc.utf8_lower(txt)
    lists = pc.split_pattern_regex(txt, r"\s+")
    lists = lists.combine_chunks() if isinstance(lists, pa.ChunkedArray) \
        else lists
    offsets = lists.offsets.to_numpy(zero_copy_only=False).astype(np.int64)
    raw_lengths = np.diff(offsets)
    valid = ~np.asarray(pc.is_null(lists).to_numpy(zero_copy_only=False))
    empty = np.asarray(pc.equal(pc.utf8_length(txt), 0).fill_null(True)
                       .to_numpy(zero_copy_only=False))
    lens = np.where(valid & ~empty, raw_lengths, 0)
    keep = lens > 0
    kept_rows = np.flatnonzero(keep)
    ids = batch[id_column].combine_chunks() \
        if isinstance(batch[id_column], pa.ChunkedArray) else batch[id_column]
    out_cols = {id_column: ids.take(pa.array(kept_rows)),
                "n_tokens": pa.array(lens[kept_rows].astype(np.int64))}
    names = [f"top_{n}gram_char_frac" for n in top_ns] + \
            [f"dup_{n}gram_char_frac" for n in dup_ns]
    if not keep.any():
        for name in names:
            out_cols[name] = pa.array([], pa.float64())
        return pa.table(out_cols)
    tok_keep = np.repeat(keep, raw_lengths)
    vals = lists.values.filter(pa.array(tok_keep))
    did = np.repeat(np.arange(batch.num_rows, dtype=np.int64),
                    lens)  # doc index per KEPT token, row-major
    tok_chars = np.asarray(pc.utf8_length(vals).to_numpy(
        zero_copy_only=False), dtype=np.int64)
    total_chars = np.bincount(did, weights=tok_chars,
                              minlength=batch.num_rows).astype(np.int64)
    n_docs_out = len(kept_rows)
    # map original row index -> output position
    out_pos = np.full(batch.num_rows, -1, dtype=np.int64)
    out_pos[kept_rows] = np.arange(n_docs_out)

    def gram_table(n: int):
        """(doc_out_pos, gram string, char length) for every in-doc window
        of n tokens — the token_frequencies shifted-slice construction."""
        L = len(vals) - n + 1
        if L <= 0:
            return (np.zeros(0, dtype=np.int64),
                    np.zeros(0, dtype=object), np.zeros(0, dtype=np.int64))
        win_keep = did[:L] == did[n - 1:]
        if not win_keep.any():
            return (np.zeros(0, dtype=np.int64),
                    np.zeros(0, dtype=object), np.zeros(0, dtype=np.int64))
        parts_ = [vals.slice(j, L) for j in range(n)]
        grams = pc.binary_join_element_wise(*parts_, " ") \
            .filter(pa.array(win_keep))
        # tokens never contain the separator, so gram chars (separators
        # excluded) = len(gram) - (n-1)
        gchars = np.asarray(pc.utf8_length(grams).to_numpy(
            zero_copy_only=False), dtype=np.int64) - (n - 1)
        gdoc = out_pos[did[:L][win_keep]]
        return gdoc, grams.to_numpy(zero_copy_only=False), gchars

    totals = total_chars[kept_rows]
    for n in top_ns:
        gdoc, grams, gchars = gram_table(n)
        frac = np.zeros(n_docs_out, dtype=np.float64)
        if len(gdoc):
            g = pd.DataFrame({"d": gdoc, "g": grams, "ch": gchars}) \
                .groupby(["d", "g"], sort=False, as_index=False) \
                .agg(cnt=("ch", "size"), ch=("ch", "first"))
            # most common n-gram; ties -> larger char length, then
            # lexicographically smallest gram (SQL-reproducible order)
            g = g.sort_values(["d", "cnt", "ch", "g"],
                              ascending=[True, False, False, True])
            topg = g.drop_duplicates("d", keep="first")
            d = topg["d"].to_numpy(dtype=np.int64)
            frac[d] = (topg["cnt"].to_numpy() * topg["ch"].to_numpy()
                       ) / totals[d]
        out_cols[f"top_{n}gram_char_frac"] = pa.array(frac)
    for n in dup_ns:
        gdoc, grams, gchars = gram_table(n)
        frac = np.zeros(n_docs_out, dtype=np.float64)
        if len(gdoc):
            g = pd.DataFrame({"d": gdoc, "g": grams, "ch": gchars}) \
                .groupby(["d", "g"], sort=False, as_index=False) \
                .agg(cnt=("ch", "size"), ch=("ch", "first"))
            g = g[g["cnt"] >= 2]
            if len(g):
                d = g["d"].to_numpy(dtype=np.int64)
                dupch = np.bincount(
                    d, weights=g["cnt"].to_numpy() * g["ch"].to_numpy(),
                    minlength=n_docs_out)
                frac = dupch / totals
        out_cols[f"dup_{n}gram_char_frac"] = pa.array(frac)
    return pa.table(out_cols)


def ngram_repetition_stats(ds, text_column: str, id_column: str, *,
                           top_ns: tuple = (2, 3, 4),
                           dup_ns: tuple = (5, 6, 7, 8, 9, 10),
                           lowercase: bool = True):
    """Within-document n-gram repetition fractions — the rest of Gopher's
    repetition filter family (Rae et al. 2021 §A1.1: "fraction of
    characters in the most common {2,3,4}-gram" and "fraction of characters
    in duplicated {5..10}-grams"; `repetition_stats` covers the unigram
    rows, `dup_line_stats` the cross-document rows).

    Contract (documented where the paper is ambiguous, chosen to be exactly
    SQL-reproducible): tokens = the module's RE2 ``\\s+`` split of trimmed
    (optionally lowered) text; an n-gram's characters = the codepoints of
    its n tokens (separators excluded); the denominator = total token
    codepoints of the doc; occurrences count independently (overlaps are
    NOT collapsed to distinct character positions); the "most common"
    n-gram breaks count ties by larger char length then lexicographically
    smallest gram. Docs with zero tokens are dropped; docs shorter than n
    tokens score 0.0 for that n. All fractions are single IEEE divisions
    of exact int64 counts — bit-identical in numpy and DuckDB.

    Scale shape: pure per-batch kernel — one RE2 tokenization, shifted
    zero-copy slices + binary_join_element_wise per n (the
    token_frequencies gram construction), C-level pandas groupbys; no
    shuffle, no per-row Python. Trivially parallel at 100 TB."""
    return ds.map_batches(
        functools.partial(
            _ngram_repetition_kernel, text_column=text_column,
            id_column=id_column, top_ns=tuple(top_ns),
            dup_ns=tuple(dup_ns), lowercase=lowercase),
        batch_format="pyarrow")


def unigram_logprob(ds, text_column: str, id_column: str, *,
                    lowercase: bool = True, min_count: int = 1):
    """Per-document mean unigram log-probability — the KenLM-style fluency /
    quality score of a corpus pipeline (CCNet, Wenzek et al. 2020, filters
    on LM perplexity; with no LM in the container the corpus's own unigram
    model is the scorer): avg_logp = mean over tokens of ln(count(token) /
    total_tokens), lower = more surprising/junk.

    Two phases, the broadcast-small-side pattern:
      1. corpus unigram counts via token_frequencies (per-batch combiner
         partials, ONE coarse hash exchange — vocab-sized result). At web
         scale pass min_count>1 so the broadcast table stays bounded;
         dropped tail tokens score as OOV with the floor ln(1/total).
      2. broadcast the vocabulary as (sorted token-hash uint64[], logp
         float64[]) — two zero-copy numpy arrays, shipped ONCE, read by
         every task — then a streaming map_batches scores each doc:
         split (RE2) -> hash (the engine's one partitioning hash) ->
         np.searchsorted lookup -> per-doc mean via bincount. No Python
         per row/token; the corpus is never materialized.

    Tokenization = the module contract (``\\s+`` split of trimmed text).
    Zero-token docs are dropped. Returns a Dataset of
    (id, n_tokens, avg_logp); avg_logp is rounded to 6 decimals — ln()
    differs across libm implementations at ulp scale, so full precision is
    not oracle-reproducible (the engine's own determinism is unaffected).
    """
    from ..stages.sketches import hash_arrow_array
    from ..util import collect_rows

    freq_rows = collect_rows(token_frequencies(
        ds, text_column, n=1, min_count=min_count, lowercase=lowercase))
    toks = pd.Series([r["gram"] for r in freq_rows], dtype="object")
    cnts = np.array([r["n"] for r in freq_rows], dtype=np.float64)
    total = float(cnts.sum())
    h = hash_arrow_array(toks)
    order = np.argsort(h)
    vocab_ref = broadcast((h[order], np.log(cnts[order] / total)))
    oov_logp = float(np.log(1.0 / total)) if total else 0.0

    def score(batch: pa.Table) -> pa.Table:
        vh, vlogp = vocab_ref.get()
        col = batch[text_column]
        col = col.combine_chunks() if isinstance(col, pa.ChunkedArray) else col
        txt = pc.utf8_trim_whitespace(pc.cast(col, pa.string()))
        if lowercase:
            txt = pc.utf8_lower(txt)
        lists = pc.split_pattern_regex(txt, r"\s+")
        lists = lists.combine_chunks() if isinstance(lists, pa.ChunkedArray) \
            else lists
        offsets = lists.offsets.to_numpy(zero_copy_only=False).astype(np.int64)
        raw_lengths = np.diff(offsets)
        valid = ~np.asarray(pc.is_null(lists).to_numpy(zero_copy_only=False))
        empty = np.asarray(
            pc.equal(pc.utf8_length(txt), 0).fill_null(True)
            .to_numpy(zero_copy_only=False))
        keep = valid & ~empty & (raw_lengths > 0)
        kept_rows = np.flatnonzero(keep)
        ids = batch[id_column].combine_chunks() \
            if isinstance(batch[id_column], pa.ChunkedArray) \
            else batch[id_column]
        if not len(kept_rows):
            return pa.table({id_column: ids.slice(0, 0),
                             "n_tokens": pa.array([], pa.int64()),
                             "avg_logp": pa.array([], pa.float64())})
        tok_keep = np.repeat(keep, raw_lengths)
        th = hash_arrow_array(lists.values)[tok_keep]
        # a vocab emptied by min_count scores every token OOV
        logp = sorted_lookup(vh, vlogp, th, oov_logp)
        ntok = raw_lengths[kept_rows]
        local = np.repeat(np.arange(len(kept_rows)), ntok)
        sums = np.bincount(local, weights=logp, minlength=len(kept_rows))
        return pa.table({
            id_column: ids.take(pa.array(kept_rows)),
            "n_tokens": pa.array(ntok.astype(np.int64)),
            "avg_logp": pa.array(np.round(sums / ntok, 6)),
        })

    return ds.map_batches(score, batch_format="pyarrow")


def _gopher_kernel(batch: pa.Table, text_column: str, id_column: str,
                   min_tokens: int, max_tokens: int,
                   min_mean_word_len: float, max_mean_word_len: float,
                   max_dup_token_frac: float, max_top_token_frac: float,
                   min_stop_hits: int) -> pa.Table:
    """Per-batch kernel of ``gopher_filter`` (module-level so tests can
    property-check it directly against a scalar reference, no Ray).

    Arrow-native: ONE tokenization pass shared by every signal — the
    `_repetition_kernel` split/dictionary_encode machinery on the SAME RE2
    ``\\s+`` kernel as the module's other operators (no Arrow→pandas copy
    of the text column, and no Unicode-vs-ASCII whitespace drift between
    gopher verdicts and repetition/logprob scores)."""
    col = batch[text_column]
    col = col.combine_chunks() if isinstance(col, pa.ChunkedArray) else col
    raw = pc.cast(col, pa.string())
    n_alpha = np.asarray(
        pc.count_substring_regex(raw, "[A-Za-z]").fill_null(0)
        .to_numpy(zero_copy_only=False), dtype=np.int64)
    # lowercase BEFORE the split: lowering never introduces ASCII
    # whitespace, so token boundaries match, and the flat token array is
    # already the lowercased one every downstream signal reads
    txt = pc.utf8_lower(pc.utf8_trim_whitespace(raw))
    lists = pc.split_pattern_regex(txt, r"\s+")
    lists = lists.combine_chunks() if isinstance(lists, pa.ChunkedArray) \
        else lists
    offsets = lists.offsets.to_numpy(zero_copy_only=False).astype(np.int64)
    raw_lengths = np.diff(offsets)
    valid = ~np.asarray(pc.is_null(lists).to_numpy(zero_copy_only=False))
    empty = np.asarray(pc.equal(pc.utf8_length(txt), 0).fill_null(True)
                       .to_numpy(zero_copy_only=False))
    n_docs = batch.num_rows
    n = np.where(valid & ~empty, raw_lengths, 0)  # n_tokens (null/empty: 0)
    tok_keep = np.repeat(valid & ~empty, raw_lengths)
    vals = lists.values
    codes = vals.dictionary_encode().indices \
        .to_numpy(zero_copy_only=False).astype(np.int64)[tok_keep]
    doc_idx = np.repeat(np.arange(n_docs, dtype=np.int64), n)
    stop_mask = np.asarray(
        pc.is_in(vals, value_set=pa.array(sorted(STOPWORDS["en"])))
        .to_numpy(zero_copy_only=False))[tok_keep]
    stop_hits = np.bincount(doc_idx[stop_mask], minlength=n_docs) \
        .astype(np.int64)
    ncodes = int(codes.max()) + 1 if len(codes) else 1
    uk, cnt = np.unique(doc_idx * ncodes + codes, return_counts=True)
    pair_doc = uk // ncodes
    n_distinct = np.bincount(pair_doc, minlength=n_docs)
    top = np.zeros(n_docs, dtype=np.int64)
    np.maximum.at(top, pair_doc, cnt)
    safe = np.maximum(n, 1)
    mean_wl = n_alpha / safe
    dup = np.where(n > 0, 1.0 - n_distinct / safe, 0.0)
    topf = np.where(n > 0, top / safe, 0.0)
    rules = [
        ("min_tokens", n < min_tokens),
        ("max_tokens", n > max_tokens),
        ("mean_word_len", (mean_wl < min_mean_word_len)
         | (mean_wl > max_mean_word_len)),
        ("dup_tokens", dup > max_dup_token_frac),
        ("top_token", topf > max_top_token_frac),
        ("stopwords", stop_hits < min_stop_hits),
    ]
    reasons = np.full(n_docs, "", dtype=object)
    fail = np.zeros(n_docs, dtype=bool)
    for name, mask in rules:
        reasons = np.where(
            mask, np.where(reasons == "", name, reasons + "," + name),
            reasons)
        fail |= mask
    return pa.table({
        id_column: batch[id_column],
        "n_tokens": pa.array(n.astype(np.int64)),
        "mean_word_len": pa.array(mean_wl),
        "dup_token_frac": pa.array(dup),
        "top_token_frac": pa.array(topf),
        "stop_hits": pa.array(stop_hits),
        "keep": pa.array((~fail).astype(np.int64)),
        "reasons": pa.array(reasons.tolist(), pa.string()),
    })


def gopher_filter(ds, text_column: str, id_column: str, *,
                  min_tokens: int = 50, max_tokens: int = 100_000,
                  min_mean_word_len: float = 3.0,
                  max_mean_word_len: float = 10.0,
                  max_dup_token_frac: float = 0.6,
                  max_top_token_frac: float = 0.2,
                  min_stop_hits: int = 2):
    """Gopher-style corpus quality filter (Rae et al. 2021 §A1.1): one
    per-batch verdict row per document with the rule metrics, a keep flag,
    and the comma-joined names of every failed rule (fixed order:
    min_tokens, max_tokens, mean_word_len, dup_tokens, top_token,
    stopwords). The duplicate-line rules of the paper map to token-level
    fractions here (single-line documents); the stop-word rule counts hits
    of the engine's English profile over ALL tokens.

    Every metric is a single IEEE division of small ints, so a SQL oracle
    reproduces verdicts bit-exactly. Scale shape: pure per-batch
    Arrow-native kernel sharing ONE RE2 tokenization pass across all
    signals (zero-copy from the object store — no Arrow→pandas text copy);
    no shuffle, no per-row Python (reasons build with one vectorized
    np.where pass per rule). Returns a Dataset of
    (id, n_tokens, mean_word_len, dup_token_frac, top_token_frac,
    stop_hits, keep 0/1, reasons)."""
    return ds.map_batches(
        functools.partial(
            _gopher_kernel, text_column=text_column, id_column=id_column,
            min_tokens=min_tokens, max_tokens=max_tokens,
            min_mean_word_len=min_mean_word_len,
            max_mean_word_len=max_mean_word_len,
            max_dup_token_frac=max_dup_token_frac,
            max_top_token_frac=max_top_token_frac,
            min_stop_hits=min_stop_hits),
        batch_format="pyarrow")


def bm25_scores(ds, text_column: str, id_column: str,
                query_terms: list[str], *, k1: float = 1.2, b: float = 0.75,
                lowercase: bool = True, return_pairs: bool = False):
    """Okapi BM25 scores of every document against a query — the lexical
    retrieval op beside the engine's dense ANN (`ann_brute_force`/IVF) and
    TF-IDF keyword extraction. Two streaming passes:

      1. corpus stats: per-batch combiner partials of (per-query-term
         document frequency, N = docs with >=1 token, total token count)
         — the exchange is |query| + 1 rows per BATCH, nothing keyed by
         corpus size; the driver folds them and derives idf/avgdl once.
      2. scoring: idf/avgdl broadcast into a per-batch kernel (searchsorted
         term lookup, one np.unique per batch for (doc, term) tfs); docs
         with >=1 hit emit their score — the corpus streams, no shuffle.

    Contract (SQL-reproducible): tokens = the module's RE2 ``\\s+`` split
    of trimmed (lowered) text; N counts docs with >=1 token; avgdl =
    total_tokens / N (one IEEE division of exact ints); idf(t) =
    ln((N - df + 0.5) / (df + 0.5) + 1.0) (the Lucene/ATIRE non-negative
    form); per-term contribution = idf * (tf * (k1+1)) / (tf + k1 * (1 -
    b + b * (dl / avgdl))) with exactly that operator grouping, so DuckDB
    reproduces each contribution bit-exactly. `return_pairs=True` emits
    the per-(doc, term) contribution rows (id, term, tf, dl,
    contribution) instead of per-doc sums — the hash-stable form (a
    cross-term SUM's addend order is engine-defined; SQL's isn't)."""
    from ..util import collect_table

    q = sorted(set(query_terms))
    if not q:
        raise ValueError("bm25_scores: empty query_terms")
    q_arr = pa.array(q, pa.string())
    q_np = np.array(q, dtype=object)

    def stats_partial(batch: pa.Table) -> pa.Table:
        col = batch[text_column]
        col = col.combine_chunks() if isinstance(col, pa.ChunkedArray) \
            else col
        txt = pc.utf8_trim_whitespace(pc.cast(col, pa.string()))
        if lowercase:
            txt = pc.utf8_lower(txt)
        lists = pc.split_pattern_regex(txt, r"\s+")
        lists = lists.combine_chunks() \
            if isinstance(lists, pa.ChunkedArray) else lists
        raw_lengths = np.diff(lists.offsets.to_numpy(zero_copy_only=False)
                              .astype(np.int64))
        valid = ~np.asarray(pc.is_null(lists)
                            .to_numpy(zero_copy_only=False))
        valid &= ~np.asarray(pc.equal(pc.utf8_length(txt), 0)
                             .fill_null(True).to_numpy(zero_copy_only=False))
        lens = np.where(valid, raw_lengths, 0)
        vals = lists.values.filter(pa.array(np.repeat(valid, raw_lengths)))
        did = np.repeat(np.arange(batch.num_rows, dtype=np.int64), lens)
        hit = np.asarray(pc.is_in(vals, value_set=q_arr)
                         .to_numpy(zero_copy_only=False))
        tidx = np.searchsorted(q_np, np.asarray(
            vals.filter(pa.array(hit)).to_numpy(zero_copy_only=False),
            dtype=object)) if hit.any() else np.zeros(0, np.int64)
        # df partial: distinct (doc, term) pairs
        pairs = np.unique(did[hit] * len(q) + tidx)
        df_part = np.bincount(pairs % len(q), minlength=len(q))
        return pa.table({
            "term": pa.array(q + [None], pa.string()),
            "df": pa.array(np.concatenate([df_part, [0]]).astype(np.int64)),
            "n_docs": pa.array([0] * len(q) + [int((lens > 0).sum())],
                               pa.int64()),
            "total_tokens": pa.array([0] * len(q) + [int(lens.sum())],
                                     pa.int64()),
        })

    parts = collect_table(
        ds.map_batches(stats_partial, batch_format="pyarrow")).to_pandas()
    n_docs = int(parts["n_docs"].sum())
    if n_docs == 0:
        raise ValueError("bm25_scores: corpus has no tokenized documents")
    avgdl = int(parts["total_tokens"].sum()) / n_docs
    df_tot = parts.dropna(subset=["term"]).groupby("term")["df"].sum()
    df_vec = df_tot.reindex(q).fillna(0).to_numpy(dtype=np.int64)
    idf = np.log((n_docs - df_vec + 0.5) / (df_vec + 0.5) + 1.0)
    state_ref = broadcast((idf, avgdl))

    def score(batch: pa.Table) -> pa.Table:
        idf_v, adl = state_ref.get()
        col = batch[text_column]
        col = col.combine_chunks() if isinstance(col, pa.ChunkedArray) \
            else col
        txt = pc.utf8_trim_whitespace(pc.cast(col, pa.string()))
        if lowercase:
            txt = pc.utf8_lower(txt)
        lists = pc.split_pattern_regex(txt, r"\s+")
        lists = lists.combine_chunks() \
            if isinstance(lists, pa.ChunkedArray) else lists
        raw_lengths = np.diff(lists.offsets.to_numpy(zero_copy_only=False)
                              .astype(np.int64))
        valid = ~np.asarray(pc.is_null(lists)
                            .to_numpy(zero_copy_only=False))
        valid &= ~np.asarray(pc.equal(pc.utf8_length(txt), 0)
                             .fill_null(True).to_numpy(zero_copy_only=False))
        lens = np.where(valid, raw_lengths, 0)
        vals = lists.values.filter(pa.array(np.repeat(valid, raw_lengths)))
        did = np.repeat(np.arange(batch.num_rows, dtype=np.int64), lens)
        hit = np.asarray(pc.is_in(vals, value_set=q_arr)
                         .to_numpy(zero_copy_only=False))
        ids = batch[id_column]
        ids = ids.combine_chunks() if isinstance(ids, pa.ChunkedArray) \
            else ids
        empty_cols = (
            {id_column: ids.slice(0, 0),
             "term": pa.array([], pa.string()),
             "tf": pa.array([], pa.int64()),
             "dl": pa.array([], pa.int64()),
             "contribution": pa.array([], pa.float64())}
            if return_pairs else
            {id_column: ids.slice(0, 0),
             "score": pa.array([], pa.float64()),
             "dl": pa.array([], pa.int64())})
        if not hit.any():
            return pa.table(empty_cols)
        tidx = np.searchsorted(q_np, np.asarray(
            vals.filter(pa.array(hit)).to_numpy(zero_copy_only=False),
            dtype=object))
        keys, tf = np.unique(did[hit] * len(q) + tidx, return_counts=True)
        pdoc, pterm = keys // len(q), keys % len(q)
        dl = lens[pdoc]
        contrib = idf_v[pterm] * (tf * (k1 + 1.0)) \
            / (tf + k1 * (1.0 - b + b * (dl / adl)))
        if return_pairs:
            return pa.table({
                id_column: ids.take(pa.array(pdoc)),
                "term": pa.array(q_np[pterm].tolist(), pa.string()),
                "tf": pa.array(tf.astype(np.int64)),
                "dl": pa.array(dl.astype(np.int64)),
                "contribution": pa.array(contrib),
            })
        udoc = np.unique(pdoc)
        pos = np.searchsorted(udoc, pdoc)
        score_v = np.zeros(len(udoc))
        np.add.at(score_v, pos, contrib)  # addend order: sorted (doc, term)
        return pa.table({
            id_column: ids.take(pa.array(udoc)),
            "score": pa.array(score_v),
            "dl": pa.array(lens[udoc].astype(np.int64)),
        })

    return ds.map_batches(score, batch_format="pyarrow")


def bm25_top_docs(ds, text_column: str, id_column: str,
                  query_terms: list[str], *, k: int = 10, k1: float = 1.2,
                  b: float = 0.75, lowercase: bool = True) -> "pd.DataFrame":
    """Top-k documents by BM25 — per-batch score partials from
    `bm25_scores`, then ONE vectorized driver merge (concat + sort + head,
    the `ann_brute_force` merge shape; ties break by id ascending)."""
    from ..util import collect_table

    scored = bm25_scores(ds, text_column, id_column, query_terms,
                         k1=k1, b=b, lowercase=lowercase)
    parts = collect_table(scored).to_pandas()
    return parts.sort_values(
        ["score", id_column], ascending=[False, True],
        kind="stable").head(k).reset_index(drop=True)


def _chunk_kernel(batch: pa.Table, text_column: str, id_column: str,
                  max_tokens: int, stride: int,
                  lowercase: bool) -> pa.Table:
    """Per-batch kernel of ``chunk_documents`` (module-level so tests can
    check it against a scalar reference, no Ray). Fully vectorized:
    chunk-side index arithmetic (no per-token membership math), one Arrow
    ``take`` of the flat token buffer, ``ListArray.from_arrays`` +
    ``binary_join`` to materialize chunk texts."""
    col = batch[text_column]
    col = col.combine_chunks() if isinstance(col, pa.ChunkedArray) else col
    txt = pc.utf8_trim_whitespace(pc.cast(col, pa.string()))
    if lowercase:
        txt = pc.utf8_lower(txt)
    lists = pc.split_pattern_regex(txt, r"\s+")
    lists = lists.combine_chunks() if isinstance(lists, pa.ChunkedArray) \
        else lists
    raw_lengths = np.diff(lists.offsets.to_numpy(zero_copy_only=False)
                          .astype(np.int64))
    valid = ~np.asarray(pc.is_null(lists).to_numpy(zero_copy_only=False))
    empty = np.asarray(pc.equal(pc.utf8_length(txt), 0).fill_null(True)
                       .to_numpy(zero_copy_only=False))
    lens = np.where(valid & ~empty, raw_lengths, 0)
    kept_rows = np.flatnonzero(lens > 0)
    ids = batch[id_column]
    ids = ids.combine_chunks() if isinstance(ids, pa.ChunkedArray) else ids
    if not len(kept_rows):
        return pa.table({id_column: ids.slice(0, 0),
                         "chunk_id": pa.array([], pa.int64()),
                         "n_tokens": pa.array([], pa.int64()),
                         "text": pa.array([], pa.string())})
    vals = lists.values.filter(pa.array(np.repeat(lens > 0, raw_lengths)))
    n = lens[kept_rows]
    # chunk starts at 0, stride, 2*stride, ...; the LAST chunk is the first
    # whose end reaches the doc, so C = 1 + ceil(max(n - max_tokens, 0)/s)
    C = 1 + (np.maximum(n - max_tokens, 0) + stride - 1) // stride
    total_chunks = int(C.sum())
    chunk_doc = np.repeat(np.arange(len(kept_rows), dtype=np.int64), C)
    cumC = np.concatenate([[0], np.cumsum(C)])
    chunk_id = np.arange(total_chunks, dtype=np.int64) \
        - np.repeat(cumC[:-1], C)
    cnt = np.minimum(max_tokens, n[chunk_doc] - chunk_id * stride)
    doc_flat_start = np.concatenate([[0], np.cumsum(n)])[:-1]
    starts = doc_flat_start[chunk_doc] + chunk_id * stride
    cum_cnt = np.concatenate([[0], np.cumsum(cnt)])
    take_idx = np.repeat(starts, cnt) \
        + (np.arange(int(cnt.sum()), dtype=np.int64)
           - np.repeat(cum_cnt[:-1], cnt))
    chunk_lists = pa.ListArray.from_arrays(
        pa.array(cum_cnt, type=pa.int32()),
        vals.take(pa.array(take_idx)))
    return pa.table({
        id_column: ids.take(pa.array(kept_rows[chunk_doc])),
        "chunk_id": pa.array(chunk_id),
        "n_tokens": pa.array(cnt.astype(np.int64)),
        "text": pc.binary_join(chunk_lists, " "),
    })


def chunk_documents(ds, text_column: str, id_column: str, *,
                    max_tokens: int, stride: int | None = None,
                    lowercase: bool = False):
    """Split long documents into overlapping training windows — the
    context-length chunking pass of an LLM data pipeline (each chunk at
    most `max_tokens` tokens; consecutive chunks start `stride` tokens
    apart, so `max_tokens - stride` tokens overlap; `stride=None` means
    non-overlapping `stride = max_tokens`).

    Contract (SQL-reproducible): tokens = the module's RE2 ``\\s+`` split
    of trimmed text; chunk c covers token positions
    ``[c*stride, c*stride + max_tokens)`` and the last chunk is the FIRST
    whose end reaches the document (so every token lands in >=1 chunk and
    no chunk is fully contained in its predecessor); chunk text re-joins
    its tokens with single spaces (the tokenization contract collapses
    whitespace runs). Docs with zero tokens are dropped. Returns a Dataset
    of (id, chunk_id, n_tokens, text).

    Scale shape: pure per-batch kernel — a document's text lives in one
    row, so its chunks complete within the batch; one split, one flat
    ``take``, one ``binary_join``; no shuffle, no per-row Python.
    Trivially parallel at 100 TB."""
    stride = max_tokens if stride is None else stride
    if max_tokens < 1 or not 1 <= stride <= max_tokens:
        raise ValueError(
            f"chunk_documents: need max_tokens >= 1 and 1 <= stride <= "
            f"max_tokens (got max_tokens={max_tokens}, stride={stride})")
    return ds.map_batches(
        functools.partial(
            _chunk_kernel, text_column=text_column, id_column=id_column,
            max_tokens=int(max_tokens), stride=int(stride),
            lowercase=lowercase),
        batch_format="pyarrow")


# ---------------------------------------------------------------------------
# corpus-wide duplicate-line / -paragraph removal (Rae et al. 2021 §A1.1 —
# the CROSS-document half of Gopher's repetition filtering; repetition_stats
# above covers the within-document half)
# ---------------------------------------------------------------------------
def _explode_segments(batch: pa.Table, text_column: str, delimiter: str):
    """Split a batch's text on a LITERAL delimiter and explode to flat
    segments. Returns ``(flat, doc_idx, row_valid)``: `flat` = the nonempty
    segments (Arrow string array), `doc_idx` = each segment's row index in
    the batch (int64), `row_valid` = bool mask of rows with non-null text.
    Empty segments (consecutive delimiters, leading/trailing) are dropped —
    they carry no content and would otherwise all count as corpus-wide
    duplicates of each other."""
    col = batch[text_column]
    col = col.combine_chunks() if isinstance(col, pa.ChunkedArray) else col
    txt = pc.cast(col, pa.string())
    lists = pc.split_pattern(txt, delimiter)
    lists = lists.combine_chunks() if isinstance(lists, pa.ChunkedArray) \
        else lists
    offsets = lists.offsets.to_numpy(zero_copy_only=False).astype(np.int64)
    raw_lengths = np.diff(offsets)
    row_valid = ~np.asarray(pc.is_null(lists).to_numpy(zero_copy_only=False))
    # mask the raw values buffer: null rows may still own extents there
    seg_keep = np.repeat(row_valid, raw_lengths)
    flat_all = lists.values
    nonempty = np.asarray(pc.greater(pc.utf8_length(flat_all), 0)
                          .fill_null(False).to_numpy(zero_copy_only=False))
    seg_keep &= nonempty
    did_all = np.repeat(np.arange(batch.num_rows, dtype=np.int64),
                        raw_lengths)
    flat = flat_all.filter(pa.array(seg_keep))
    return flat, did_all[seg_keep], row_valid


def _broadcast_dup_hashes(counts):
    """Broadcast of the sorted uint64 hashes of an (h, n) counts Dataset:
    the dup-hash set the dup-line and dup-span stages probe, bounded by
    DISTINCT duplicated lines or windows (8 bytes each), not corpus size."""
    from ..util import collect_table

    h = collect_table(counts)["h"].to_numpy(zero_copy_only=False)
    return broadcast(np.sort(np.asarray(h, dtype=np.uint64)))


class _DupLineScoreStage:
    """map_batches payload for dup_line_stats: per-batch explode + hash +
    membership probe into the broadcast dup-hash array (read once per
    task) — the n-gram-decontamination pattern. No per-row Python."""

    def __init__(self, dup_ref, text_column: str, id_column: str,
                 delimiter: str):
        self.dup_ref = dup_ref
        self.text_column = text_column
        self.id_column = id_column
        self.delimiter = delimiter

    def __call__(self, batch: pa.Table) -> pa.Table:
        from ..stages.sketches import hash_arrow_array

        flat, did, _ = _explode_segments(batch, self.text_column,
                                         self.delimiter)
        ids = batch[self.id_column]
        ids = ids.combine_chunks() if isinstance(ids, pa.ChunkedArray) else ids
        if not len(flat):
            return pa.table({self.id_column: ids.slice(0, 0),
                             "n_lines": pa.array([], pa.int64()),
                             "n_dup_lines": pa.array([], pa.int64()),
                             "dup_line_frac": pa.array([], pa.float64()),
                             "dup_char_frac": pa.array([], pa.float64())})
        is_dup = in_sorted(self.dup_ref.get(), hash_arrow_array(flat))
        chars = np.asarray(pc.utf8_length(flat).to_numpy(
            zero_copy_only=False), dtype=np.int64)
        n_rows = batch.num_rows
        nl = np.bincount(did, minlength=n_rows)
        nd = np.bincount(did[is_dup], minlength=n_rows)
        nc = np.bincount(did, weights=chars, minlength=n_rows) \
            .astype(np.int64)
        ndc = np.bincount(did[is_dup], weights=chars[is_dup],
                          minlength=n_rows).astype(np.int64)
        kept = np.flatnonzero(nl > 0)  # docs with >=1 segment only
        return pa.table({
            self.id_column: ids.take(pa.array(kept)),
            "n_lines": pa.array(nl[kept]),
            "n_dup_lines": pa.array(nd[kept]),
            "dup_line_frac": pa.array(nd[kept] / nl[kept]),
            "dup_char_frac": pa.array(ndc[kept] / nc[kept]),
        })


def _within_doc_dup_line_kernel(batch: pa.Table, text_column: str,
                                id_column: str, delimiter: str,
                                min_count: int) -> pa.Table:
    """Per-batch kernel of ``within_doc_dup_line_stats`` (module-level so
    tests can check it against a scalar reference, no Ray). Exact strings
    within the document — no hashing, no cross-batch state."""
    flat, did, _ = _explode_segments(batch, text_column, delimiter)
    ids = batch[id_column]
    ids = ids.combine_chunks() if isinstance(ids, pa.ChunkedArray) else ids
    n_rows = batch.num_rows
    if not len(flat):
        return pa.table({id_column: ids.slice(0, 0),
                         "n_lines": pa.array([], pa.int64()),
                         "n_dup_lines": pa.array([], pa.int64()),
                         "dup_line_frac": pa.array([], pa.float64()),
                         "dup_char_frac": pa.array([], pa.float64())})
    enc = flat.dictionary_encode()
    codes = enc.indices.to_numpy(zero_copy_only=False).astype(np.int64)
    ncodes = max(len(enc.dictionary), 1)
    _, inv, cnt = np.unique(did * ncodes + codes,
                            return_inverse=True, return_counts=True)
    is_dup = cnt[inv] >= min_count  # every occurrence of a repeated line
    chars = np.asarray(pc.utf8_length(flat).to_numpy(
        zero_copy_only=False), dtype=np.int64)
    nl = np.bincount(did, minlength=n_rows)
    nd = np.bincount(did[is_dup], minlength=n_rows)
    nc = np.bincount(did, weights=chars, minlength=n_rows).astype(np.int64)
    ndc = np.bincount(did[is_dup], weights=chars[is_dup],
                      minlength=n_rows).astype(np.int64)
    kept = np.flatnonzero(nl > 0)  # docs with >=1 segment only
    return pa.table({
        id_column: ids.take(pa.array(kept)),
        "n_lines": pa.array(nl[kept]),
        "n_dup_lines": pa.array(nd[kept]),
        "dup_line_frac": pa.array(nd[kept] / nl[kept]),
        "dup_char_frac": pa.array(ndc[kept] / nc[kept]),
    })


def within_doc_dup_line_stats(ds, text_column: str, id_column: str, *,
                              delimiter: str = "\n", min_count: int = 2):
    """Per-document WITHIN-document duplicate-line fractions — Gopher's
    §A1.1 "duplicate line fraction" / "duplicate line character fraction"
    rows scoped to a single document (Rae et al. 2021; `dup_line_stats`
    is the cross-document variant, `repetition_stats` the token-level one).
    A "line" is a nonempty segment of `text` split on the literal
    `delimiter`; a line is duplicated when it occurs at least `min_count`
    times IN THE SAME document, and then every occurrence counts.

    Returns a Dataset of (id, n_lines, n_dup_lines, dup_line_frac,
    dup_char_frac); docs with zero nonempty segments are dropped.
    Fractions are single IEEE divisions of exact int64 counts —
    bit-identical in numpy and DuckDB.

    Scale shape: pure per-batch kernel (a document's text lives in one
    row, so its line counts complete within the batch) — one Arrow split,
    dictionary_encode, one np.unique; no shuffle, no per-row Python.
    Trivially parallel at 100 TB."""
    return ds.map_batches(
        functools.partial(
            _within_doc_dup_line_kernel, text_column=text_column,
            id_column=id_column, delimiter=delimiter,
            min_count=min_count),
        batch_format="pyarrow")


def _dup_line_hash_counts(ds, text_column: str, delimiter: str,
                          min_count: int):
    """(h, n) Dataset of segment-hash corpus counts with n >= min_count —
    per-batch explode + value_counts partials, then the engine's ONE coarse
    hash exchange (aggregate_key_counts)."""
    from ..stages.sketches import hash_arrow_array
    from ..stages.uniqueness import aggregate_key_counts

    def partial(batch: pa.Table) -> pa.Table:
        flat, _, _ = _explode_segments(batch, text_column, delimiter)
        h = hash_arrow_array(flat) if len(flat) \
            else np.zeros(0, dtype=np.uint64)
        uh, cnt = np.unique(h, return_counts=True)
        return pa.table({"h": pa.array(uh),
                         "cnt": pa.array(cnt.astype(np.int64))})

    partials = ds.map_batches(partial, batch_format="pyarrow")
    return aggregate_key_counts(partials, "h", min_count=min_count)


def dup_line_stats(ds, text_column: str, id_column: str, *,
                   delimiter: str = "\n", min_count: int = 2):
    """Per-document CORPUS-WIDE duplicate-line fractions — the
    cross-document half of Gopher's repetition filtering (Rae et al. 2021
    §A1.1 dup-line / dup-line-char fractions; `repetition_stats` covers the
    within-document token half). A "line" is a nonempty segment of `text`
    split on the literal `delimiter` (``"\\n"`` for lines, ``"\\n\\n"`` for
    paragraphs); a line is duplicated when its corpus-wide occurrence count
    (across ALL documents, including its own repeats) reaches `min_count`.

    Returns a Dataset of (id, n_lines, n_dup_lines, dup_line_frac,
    dup_char_frac); docs with zero nonempty segments are dropped (no
    defined fractions). Fractions are single IEEE divisions of exact int64
    counts — bit-identical in numpy and DuckDB, no rounding contract.

    Scale shape: segment-hash corpus counts via per-batch combiner
    partials + ONE coarse hash exchange, then the duplicated hashes are
    broadcast ONCE as a sorted uint64 array and the corpus streams through
    a searchsorted membership probe — the n-gram-decontamination pattern.
    Assumption: the dup-hash set fits the driver/worker heap (8 bytes per
    distinct duplicated line).

    Line identity is the engine's 64-bit partitioning hash (collisions
    ~n²/2⁶⁴ — negligible; the oracle counts exact strings and stays
    hash-green at test scale)."""
    counts = _dup_line_hash_counts(ds, text_column, delimiter, min_count)
    return ds.map_batches(
        _DupLineScoreStage(_broadcast_dup_hashes(counts), text_column,
                           id_column, delimiter),
        batch_format="pyarrow")


class _DropDupLineStage:
    """map_batches payload for drop_duplicate_lines: per-batch explode +
    membership probe, then a fully vectorized reassembly — kept segments are
    re-listed via offsets arithmetic and joined per row with ONE
    pc.binary_join call. Null text stays null; a doc whose every segment is
    dropped becomes the empty string."""

    def __init__(self, dup_ref, text_column: str, id_column: str,
                 delimiter: str):
        self.dup_ref = dup_ref
        self.text_column = text_column
        self.id_column = id_column
        self.delimiter = delimiter

    def __call__(self, batch: pa.Table) -> pa.Table:
        from ..stages.sketches import hash_arrow_array

        flat, did, row_valid = _explode_segments(
            batch, self.text_column, self.delimiter)
        keep = ~in_sorted(self.dup_ref.get(), hash_arrow_array(flat))
        kept_vals = flat.filter(pa.array(keep))
        n_rows = batch.num_rows
        per_row = np.bincount(did[keep], minlength=n_rows)
        offsets = np.zeros(n_rows + 1, dtype=np.int32)
        np.cumsum(per_row, out=offsets[1:])
        lists = pa.ListArray.from_arrays(pa.array(offsets, pa.int32()),
                                         kept_vals)
        joined = pc.binary_join(lists, self.delimiter)
        out_text = pc.if_else(pa.array(row_valid), joined,
                              pa.scalar(None, pa.string()))
        return pa.table({self.id_column: batch[self.id_column],
                         "text": out_text})


def drop_duplicate_lines(ds, text_column: str, id_column: str, *,
                         delimiter: str = "\n", min_count: int = 2):
    """Remove corpus-wide duplicated lines from every document — the
    filtering counterpart of `dup_line_stats` (CCNet, Wenzek et al. 2020,
    discards duplicated paragraphs the same way). EVERY occurrence of a
    line whose corpus count reaches `min_count` is dropped (keep-one-copy
    would need a global order over 100 TB; all-copies is deterministic and
    order-free); survivors rejoin with `delimiter` in original order, empty
    segments collapse, null text stays null.

    Returns a Dataset of (id, text). Scale shape: the broadcast pattern of
    dup_line_stats — corpus counts via ONE coarse hash exchange, dup hashes
    broadcast once (bounded by distinct duplicated lines), then one
    streaming pass; reassembly is offsets arithmetic + one pc.binary_join
    per batch, no per-row Python."""
    counts = _dup_line_hash_counts(ds, text_column, delimiter, min_count)
    return ds.map_batches(
        _DropDupLineStage(_broadcast_dup_hashes(counts), text_column,
                          id_column, delimiter),
        batch_format="pyarrow")


# ---------------------------------------------------------------------------
# exact substring (char-k-window) duplication — Lee et al. 2022,
# "Deduplicating Training Data Makes Language Models Better" (ExactSubstr).
# The reference implementation builds a corpus suffix array; the engine
# expresses the same semantics Ray-Data-first: every character k-window is
# hashed in one vectorized pass (dedup.gram_hashes_batch — zero Python
# objects per window), corpus-wide window counts come from the engine's ONE
# coarse hash exchange, and duplicated-span coverage is interval arithmetic
# over flattened event arrays. Window identity is the 64-bit gram hash
# (collisions ~n²/2⁶⁴ — negligible; the SQL oracle counts exact substrings
# and stays hash-green at test scale).
# ---------------------------------------------------------------------------
def _dup_window_hash_counts(ds, text_column: str, k: int, min_count: int):
    """(h, n) Dataset of char-k-window hash corpus counts with
    n >= min_count — per-batch vectorized window hashing + np.unique
    combiner partials, then ONE coarse hash exchange."""
    from ..stages.dedup import gram_hashes_batch
    from ..stages.uniqueness import aggregate_key_counts

    def partial(batch: pa.Table) -> pa.Table:
        h, _ = gram_hashes_batch(batch[text_column].to_pylist(), k)
        uh, cnt = np.unique(h, return_counts=True)
        return pa.table({"h": pa.array(uh),
                         "cnt": pa.array(cnt.astype(np.int64))})

    partials = ds.map_batches(partial, batch_format="pyarrow")
    return aggregate_key_counts(partials, "h", min_count=min_count)


def _span_coverage(lens: np.ndarray, doc: np.ndarray, rel: np.ndarray,
                   k: int) -> np.ndarray:
    """Chars of each doc covered by >=1 duplicated k-window. `lens` =
    per-doc char lengths; (doc, rel) = duplicated window starts. One
    flattened event array + cumsum across the whole batch — no per-doc
    Python. Windows never cross docs (rel <= len-k), so spans stay inside
    their doc's char range."""
    n = len(lens)
    covered = np.zeros(n, dtype=np.int64)
    if len(doc) == 0:
        return covered
    char_off = np.zeros(n + 1, dtype=np.int64)
    np.cumsum(lens, out=char_off[1:])
    total = int(char_off[-1])
    ev = np.zeros(total + k + 1, dtype=np.int64)
    starts = char_off[doc] + rel
    np.add.at(ev, starts, 1)
    np.add.at(ev, starts + k, -1)
    cov = np.cumsum(ev[:total]) > 0
    chardoc = np.repeat(np.arange(n, dtype=np.int64), lens)
    np.add.at(covered, chardoc[cov], 1)
    return covered


class _DupSpanScoreStage:
    """map_batches payload for dup_span_stats: per-batch vectorized window
    hashing, searchsorted membership probe into the broadcast dup-hash
    array, per-doc counts via bincount and covered-char interval
    arithmetic — no per-row Python."""

    def __init__(self, dup_ref, text_column: str, id_column: str, k: int):
        self.dup_ref = dup_ref
        self.text_column = text_column
        self.id_column = id_column
        self.k = k

    def __call__(self, batch: pa.Table) -> pa.Table:
        from ..stages.dedup import gram_hashes_batch

        k = self.k
        ids = batch[self.id_column]
        ids = ids.combine_chunks() if isinstance(ids, pa.ChunkedArray) else ids
        texts = batch[self.text_column].to_pylist()
        n = len(texts)
        lens = np.fromiter(((len(t) if t else 0) for t in texts),
                           dtype=np.int64, count=n)
        h, seg = gram_hashes_batch(texts, k)
        nw = np.diff(seg)
        is_dup = in_sorted(self.dup_ref.get(), h)
        doc = np.repeat(np.arange(n, dtype=np.int64), nw)
        ndw = np.bincount(doc[is_dup], minlength=n)
        idxs = np.flatnonzero(is_dup)
        d = doc[idxs]
        covered = _span_coverage(lens, d, idxs - seg[d], k)
        kept = np.flatnonzero(nw > 0)  # docs shorter than k have no windows
        return pa.table({
            self.id_column: ids.take(pa.array(kept)),
            "n_windows": pa.array(nw[kept]),
            "n_dup_windows": pa.array(ndw[kept]),
            "dup_window_frac": pa.array(ndw[kept] / nw[kept]),
            "covered_chars": pa.array(covered[kept]),
            "covered_frac": pa.array(covered[kept] / lens[kept]),
        })


def dup_span_stats(ds, text_column: str, id_column: str, *, k: int = 30,
                   min_count: int = 2):
    """Per-document CORPUS-WIDE duplicated-substring statistics — the
    exact-substring dedup signal of Lee et al. 2022 (`dup_line_stats` is
    the line-level variant; this one catches near-verbatim reuse that
    crosses line boundaries or re-wraps). A doc's character k-windows are
    duplicated when their corpus-wide occurrence count (all docs, own
    repeats included) reaches `min_count`; `covered_chars` counts chars
    inside >=1 duplicated window — the chars ExactSubstr would cut.

    Returns (id, n_windows, n_dup_windows, dup_window_frac, covered_chars,
    covered_frac); docs shorter than k chars are dropped (no windows).
    Fractions are single IEEE divisions of exact int64 counts.

    Scale shape: window-hash corpus counts via per-batch combiner partials
    + ONE coarse hash exchange; duplicated hashes (bounded by DISTINCT
    duplicated windows — i.e. by the duplicated content, not corpus size)
    are broadcast ONCE sorted, and the corpus streams through a
    searchsorted probe."""
    counts = _dup_window_hash_counts(ds, text_column, k, min_count)
    return ds.map_batches(
        _DupSpanScoreStage(_broadcast_dup_hashes(counts), text_column,
                           id_column, k),
        batch_format="pyarrow")


class _DropDupSpanStage:
    """map_batches payload for drop_duplicate_spans: membership probe +
    interval-union coverage, then ONE utf-32 round-trip rebuilds every
    cleaned text in the batch (per-doc work is a single string slice)."""

    def __init__(self, dup_ref, text_column: str, id_column: str, k: int):
        self.dup_ref = dup_ref
        self.text_column = text_column
        self.id_column = id_column
        self.k = k

    def __call__(self, batch: pa.Table) -> pa.Table:
        from ..stages.dedup import gram_hashes_batch

        k = self.k
        texts = batch[self.text_column].to_pylist()
        n = len(texts)
        lens = np.fromiter(((len(t) if t else 0) for t in texts),
                           dtype=np.int64, count=n)
        h, seg = gram_hashes_batch(texts, k)
        nw = np.diff(seg)
        is_dup = in_sorted(self.dup_ref.get(), h)
        doc = np.repeat(np.arange(n, dtype=np.int64), nw)
        idxs = np.flatnonzero(is_dup)
        d = doc[idxs]
        total = int(lens.sum())
        char_off = np.zeros(n + 1, dtype=np.int64)
        np.cumsum(lens, out=char_off[1:])
        ev = np.zeros(total + k + 1, dtype=np.int64)
        starts = char_off[d] + (idxs - seg[d])
        np.add.at(ev, starts, 1)
        np.add.at(ev, starts + k, -1)
        cut = np.cumsum(ev[:total]) > 0
        keep = ~cut
        full = "".join(t or "" for t in texts)
        cp = np.frombuffer(full.encode("utf-32-le"), dtype=np.uint32)
        kept_str = cp[keep].tobytes().decode("utf-32-le")
        chardoc = np.repeat(np.arange(n, dtype=np.int64), lens)
        kept_per_doc = np.bincount(chardoc[keep], minlength=n)
        bounds = np.zeros(n + 1, dtype=np.int64)
        np.cumsum(kept_per_doc, out=bounds[1:])
        out = [None if t is None else kept_str[bounds[i]:bounds[i + 1]]
               for i, t in enumerate(texts)]
        removed = lens - kept_per_doc
        return pa.table({
            self.id_column: batch[self.id_column],
            "text": pa.array(out, pa.string()),
            "n_chars_removed": pa.array(removed),
            "n_chars_kept": pa.array(kept_per_doc),
        })


def drop_duplicate_spans(ds, text_column: str, id_column: str, *,
                         k: int = 30, min_count: int = 2):
    """Cut corpus-wide duplicated substrings out of every document — the
    ExactSubstr removal step of Lee et al. 2022: every char covered by a
    k-window whose corpus count reaches `min_count` is removed (every
    occurrence; keep-one-copy would need a global order over 100 TB), the
    survivors re-join in original order. Null text stays null; docs
    shorter than k pass through unchanged.

    Returns (id, text, n_chars_removed, n_chars_kept). Scale shape: the
    broadcast pattern of dup_span_stats — ONE coarse hash exchange for the
    counts, dup hashes broadcast once (bounded by distinct duplicated
    windows), one streaming rebuild pass."""
    counts = _dup_window_hash_counts(ds, text_column, k, min_count)
    return ds.map_batches(
        _DropDupSpanStage(_broadcast_dup_hashes(counts), text_column,
                          id_column, k),
        batch_format="pyarrow")


def bigram_logprob(ds, text_column: str, id_column: str, *,
                   alpha: float = 1.0, lowercase: bool = True,
                   min_count: int = 1):
    """Per-document mean BIGRAM log-probability — the KenLM-style fluency
    score one order up from `unigram_logprob` (CCNet filters on n-gram LM
    perplexity; the corpus's own counts are the model). Token scores:

      first token of a doc:  ln(p_uni(w))
      token w after v:       ln((c(v w) + alpha * p_uni(w)) / (c(v) + alpha))

    with p_uni(w) = c(w)/T for in-vocabulary tokens and the 1/T OOV floor
    otherwise (additive smoothing with unigram backoff — every score is
    finite even for unseen bigrams/tokens). Lower = more surprising.

    Scale shape: TWO vocabulary passes (unigram + bigram counts, each the
    token_frequencies combiner + ONE coarse exchange, results bounded by
    vocabulary not corpus size; pass min_count>1 at web scale to bound the
    bigram table — dropped tails score through the smoothing path), then
    the broadcast pattern: (sorted hash, count) arrays broadcast ONCE, one
    streaming scoring pass — RE2 split, the SAME shifted-slice
    binary_join_element_wise bigram construction as token_frequencies(n=2)
    so both phases build identical grams, searchsorted lookups, per-doc
    bincount. No Python per row/token; the corpus never materializes.

    Returns (id, n_tokens, avg_logp); zero-token docs are dropped.
    avg_logp is rounded to 6 decimals (ln() is ulp-dependent across libm
    implementations; the engine's own determinism is unaffected)."""
    from ..stages.sketches import hash_arrow_array
    from ..util import collect_rows

    def _count_arrays(n: int):
        rows = collect_rows(token_frequencies(
            ds, text_column, n=n, min_count=min_count, lowercase=lowercase))
        g = pd.Series([r["gram"] for r in rows], dtype="object")
        c = np.array([r["n"] for r in rows], dtype=np.float64)
        h = hash_arrow_array(g)
        order = np.argsort(h)
        return h[order], c[order]

    uh, uc = _count_arrays(1)
    bh, bc = _count_arrays(2)
    total = float(uc.sum())
    vocab_ref = broadcast((uh, uc, bh, bc))
    T = total if total else 1.0
    a = float(alpha)

    def score(batch: pa.Table) -> pa.Table:
        vuh, vuc, vbh, vbc = vocab_ref.get()
        col = batch[text_column]
        col = col.combine_chunks() if isinstance(col, pa.ChunkedArray) else col
        txt = pc.utf8_trim_whitespace(pc.cast(col, pa.string()))
        if lowercase:
            txt = pc.utf8_lower(txt)
        lists = pc.split_pattern_regex(txt, r"\s+")
        lists = lists.combine_chunks() if isinstance(lists, pa.ChunkedArray) \
            else lists
        offsets = lists.offsets.to_numpy(zero_copy_only=False).astype(np.int64)
        raw_lengths = np.diff(offsets)
        valid = ~np.asarray(pc.is_null(lists).to_numpy(zero_copy_only=False))
        empty = np.asarray(
            pc.equal(pc.utf8_length(txt), 0).fill_null(True)
            .to_numpy(zero_copy_only=False))
        keep = valid & ~empty & (raw_lengths > 0)
        kept_rows = np.flatnonzero(keep)
        ids = batch[id_column].combine_chunks() \
            if isinstance(batch[id_column], pa.ChunkedArray) \
            else batch[id_column]
        if not len(kept_rows):
            return pa.table({id_column: ids.slice(0, 0),
                             "n_tokens": pa.array([], pa.int64()),
                             "avg_logp": pa.array([], pa.float64())})
        vals = lists.values
        n_tok = len(vals)
        did = np.repeat(np.arange(batch.num_rows, dtype=np.int64),
                        raw_lengths)
        cw = sorted_lookup(vuh, vuc, hash_arrow_array(vals), 0.0)
        p_uni = np.where(cw > 0, cw / T, 1.0 / T)
        logp = np.empty(n_tok, dtype=np.float64)
        is_first = np.ones(n_tok, dtype=bool)
        is_first[1:] = did[1:] != did[:-1]
        logp[is_first] = np.log(p_uni[is_first])
        L = n_tok - 1
        if L > 0:
            # bigram construction identical to token_frequencies(n=2)
            grams = pc.binary_join_element_wise(
                vals.slice(0, L), vals.slice(1, L), " ")
            cbi = sorted_lookup(vbh, vbc, hash_arrow_array(grams), 0.0)
            with np.errstate(divide="ignore", invalid="ignore"):
                lp_bi = np.log((cbi + a * p_uni[1:]) / (cw[:L] + a))
            rest = ~is_first
            logp[rest] = lp_bi[rest[1:]]
        tok_keep = np.repeat(keep, raw_lengths)
        local = np.repeat(np.arange(len(kept_rows)), raw_lengths[kept_rows])
        sums = np.bincount(local, weights=logp[tok_keep],
                           minlength=len(kept_rows))
        ntok = raw_lengths[kept_rows]
        return pa.table({
            id_column: ids.take(pa.array(kept_rows)),
            "n_tokens": pa.array(ntok.astype(np.int64)),
            "avg_logp": pa.array(np.round(sums / ntok, 6)),
        })

    return ds.map_batches(score, batch_format="pyarrow")


def slugify(ds, text_column: str, out_column: str = "slug",
            keep_input: bool = True):
    """URL-safe ASCII slugs — the canonical-key normalization for joining
    or deduping scraped titles/names: Unicode NFD decomposition, combining
    marks stripped (the accent-folding DuckDB's ``strip_accents`` does),
    lowercase, every non-[a-z0-9] run collapsed to one ``-``, edges
    trimmed. Pure per-batch Arrow RE2/utf8 kernels, zero Python per row;
    SQL-replicable as ``trim(regexp_replace(lower(strip_accents(s)),
    '[^a-z0-9]+', '-', 'g'), '-')``. Null texts yield null slugs."""
    def kernel(t: pa.Table) -> pa.Table:
        col = t[text_column]
        col = col.combine_chunks() if isinstance(col, pa.ChunkedArray) \
            else col
        s = pc.utf8_normalize(pc.cast(col, pa.string()), form="NFD")
        s = pc.replace_substring_regex(s, r"\p{Mn}", "")
        s = pc.utf8_lower(s)
        s = pc.replace_substring_regex(s, "[^a-z0-9]+", "-")
        s = pc.utf8_trim(s, "-")
        if keep_input:
            return t.append_column(out_column, s)
        others = [c for c in t.column_names if c != text_column]
        return pa.table({**{c: t[c] for c in others}, out_column: s})

    return ds.map_batches(kernel, batch_format="pyarrow")


def pmi_bigrams(ds, text_column: str, *, min_count: int = 5, top: int = 50,
                lowercase: bool = True):
    """Collocation mining by pointwise mutual information: the `top`
    bigrams (at or above `min_count` occurrences) ranked by
    pmi = ln( (c_xy/N2) / ((c_x/N1) * (c_y/N1)) ), where N1/N2 are total
    unigram/bigram counts — the phrase-discovery pass (Church & Hanks
    1990) that feeds tokenizer merges and stopphrase lists.

    Scale shape: bigram counts ride token_frequencies' combiner-first
    vocabulary exchange (HAVING-style min_count bound makes the collected
    candidate set small); the candidates' member words fetch their
    unigram counts from the same machinery filtered by a broadcast word
    set; totals come from ONE tiny per-batch (tokens, bigrams) partial —
    no extra exchange. The PMI float is a single documented IEEE chain
    over exact ints, so DuckDB reproduces it bit-for-bit. Returns a
    DataFrame (gram, w1, w2, c_xy, c_x, c_y, pmi) by pmi desc, gram asc."""
    import pandas as pd

    from ..util import collect_table

    if min_count < 1:
        raise ValueError(f"pmi_bigrams: min_count={min_count}")

    def totals(t: pa.Table) -> pa.Table:
        col = t[text_column]
        col = col.combine_chunks() if isinstance(col, pa.ChunkedArray) \
            else col
        txt = pc.utf8_trim_whitespace(pc.cast(col, pa.string()))
        if lowercase:
            txt = pc.utf8_lower(txt)
        lists = pc.split_pattern_regex(txt, r"\s+")
        lists = lists.combine_chunks() \
            if isinstance(lists, pa.ChunkedArray) else lists
        lens = np.diff(lists.offsets.to_numpy(zero_copy_only=False)
                       .astype(np.int64))
        ok = ~np.asarray(pc.is_null(lists).to_numpy(zero_copy_only=False))
        ok &= np.asarray(pc.greater(pc.utf8_length(txt), 0)
                         .fill_null(False).to_numpy(zero_copy_only=False))
        lens = np.where(ok, lens, 0)
        return pa.table({
            "n1": pa.array([int(lens.sum())], pa.int64()),
            "n2": pa.array([int(np.maximum(lens - 1, 0).sum())],
                           pa.int64())})

    tt = collect_table(ds.map_batches(totals, batch_format="pyarrow"))
    n1 = int(pc.sum(tt["n1"]).as_py() or 0)
    n2 = int(pc.sum(tt["n2"]).as_py() or 0)
    cols = ["gram", "w1", "w2", "c_xy", "c_x", "c_y", "pmi"]
    empty = pd.DataFrame({c: pd.Series(
        [], dtype="float64" if c == "pmi"
        else "int64" if c.startswith("c_") else "object") for c in cols})
    if n1 == 0 or n2 == 0:
        return empty
    bdf = collect_table(token_frequencies(
        ds, text_column, min_count=min_count, n=2,
        lowercase=lowercase)).to_pandas()
    if bdf.empty:
        return empty
    split = bdf["gram"].str.split(" ", n=1, expand=True)
    bdf["w1"], bdf["w2"] = split[0], split[1]
    needed = sorted(set(bdf["w1"]) | set(bdf["w2"]))
    need_ref = broadcast(pa.array(needed, pa.string()))

    def pick(t: pa.Table) -> pa.Table:
        return t.filter(pc.is_in(t["gram"], value_set=need_ref.get()))

    uni = collect_table(
        token_frequencies(ds, text_column, min_count=1, n=1,
                          lowercase=lowercase)
        .map_batches(pick, batch_format="pyarrow")).to_pandas()
    cnt = dict(zip(uni["gram"], uni["n"]))
    cx = bdf["w1"].map(cnt).astype("int64")
    cy = bdf["w2"].map(cnt).astype("int64")
    cxy = bdf["n"].astype("int64")
    pmi = np.log((cxy.to_numpy(dtype=np.float64) / float(n2))
                 / ((cx.to_numpy(dtype=np.float64) / float(n1))
                    * (cy.to_numpy(dtype=np.float64) / float(n1))))
    out = pd.DataFrame({"gram": bdf["gram"], "w1": bdf["w1"],
                        "w2": bdf["w2"], "c_xy": cxy, "c_x": cx,
                        "c_y": cy, "pmi": pmi})
    return out.sort_values(["pmi", "gram"], ascending=[False, True],
                           kind="stable").head(top).reset_index(drop=True)


def learn_bpe(ds, text_column: str, *, n_merges: int = 50,
              lowercase: bool = True, min_word_count: int = 1,
              vocab_cap: int = 2_000_000):
    """Byte-pair-encoding merge learning (Sennrich et al. 2016) — the
    tokenizer-training op of an LLM data pipeline. The corpus-scale work
    is ONE combiner-first pass: word frequencies via token_frequencies
    (the exchange moves distinct words, not tokens). Training then runs
    on the (word, count) vocabulary on the driver — the standard trainer
    architecture (HF tokenizers does the same): each round counts symbol
    pairs WEIGHTED by word count and merges the most frequent pair
    everywhere. Bounded by distinct-word count (`vocab_cap` fails
    loudly), never by corpus size; n_merges rounds touch only words that
    contain the merged pair.

    Determinism: ties break on the lexicographically smallest (left,
    right) pair. Words end with the '</w>' marker so merges can't cross
    word boundaries. Returns DataFrame (rank, left, right, n) where n is
    the pair's weighted count at merge time."""
    import pandas as pd

    from ..util import collect_table

    if n_merges < 1:
        raise ValueError(f"learn_bpe: n_merges={n_merges}")
    vocab = collect_table(token_frequencies(
        ds, text_column, min_count=min_word_count, n=1,
        lowercase=lowercase)).to_pandas()
    if len(vocab) > vocab_cap:
        raise ValueError(f"learn_bpe: {len(vocab)} distinct words "
                         f"(> vocab_cap={vocab_cap})")
    # symbol sequences per distinct word + weights
    words = [tuple(w) + ("</w>",) for w in vocab["gram"].tolist()]
    counts = vocab["n"].to_numpy(dtype=np.int64)

    # pair -> total weight, and pair -> set of word indexes containing it
    from collections import defaultdict

    pair_w: dict = defaultdict(int)
    pair_words: dict = defaultdict(set)
    for wi, syms in enumerate(words):
        c = int(counts[wi])
        for a, b in zip(syms, syms[1:]):
            pair_w[(a, b)] += c
            pair_words[(a, b)].add(wi)

    out = []
    for rank in range(n_merges):
        if not pair_w:
            break
        # max count, ties -> lexicographically smallest pair
        best = min(pair_w.items(), key=lambda kv: (-kv[1], kv[0]))[0]
        n_best = pair_w[best]
        if n_best <= 0:
            break
        out.append({"rank": rank, "left": best[0], "right": best[1],
                    "n": int(n_best)})
        merged = best[0] + best[1]
        for wi in list(pair_words[best]):
            syms = words[wi]
            c = int(counts[wi])
            # remove old pair contributions of this word
            for a, b in zip(syms, syms[1:]):
                pair_w[(a, b)] -= c
                if pair_w[(a, b)] <= 0:
                    pair_w.pop((a, b), None)
                pw = pair_words.get((a, b))
                if pw is not None:
                    pw.discard(wi)
                    if not pw:
                        pair_words.pop((a, b), None)
            # apply the merge left-to-right
            ns: list = []
            i = 0
            while i < len(syms):
                if i + 1 < len(syms) and syms[i] == best[0] \
                        and syms[i + 1] == best[1]:
                    ns.append(merged)
                    i += 2
                else:
                    ns.append(syms[i])
                    i += 1
            words[wi] = tuple(ns)
            for a, b in zip(ns, ns[1:]):
                pair_w[(a, b)] += c
                pair_words[(a, b)].add(wi)
    return pd.DataFrame(out, columns=["rank", "left", "right", "n"]) \
        .astype({"rank": "int64", "n": "int64"})


def bpe_encode(word: str, ranks: dict) -> list[str]:
    """Encode ONE word with learned merges: repeatedly merge the
    lowest-rank adjacent pair (the standard BPE inference loop).
    `ranks` maps (left, right) -> merge rank from learn_bpe."""
    syms = list(word) + ["</w>"]
    while len(syms) > 1:
        best_i, best_r = -1, None
        for i in range(len(syms) - 1):
            r = ranks.get((syms[i], syms[i + 1]))
            if r is not None and (best_r is None or r < best_r):
                best_i, best_r = i, r
        if best_r is None:
            break
        syms[best_i:best_i + 2] = [syms[best_i] + syms[best_i + 1]]
    return syms


def bpe_token_counts(ds, text_column: str, merges, *,
                     lowercase: bool = True):
    """Per-document BPE token counts under a learned merge table — the
    'how many tokens will this corpus cost' pass. merges = learn_bpe's
    DataFrame (shipped to workers once via the closure; tiny). Each
    batch dictionary-encodes its words so every DISTINCT word is encoded
    once per batch; counts then come from one take().

    Returns a Dataset (id columns passed through, bpe_tokens int64)."""
    ranks = {(l, r): int(k) for k, l, r in
             zip(merges["rank"], merges["left"], merges["right"])}

    def f(t: pa.Table) -> pa.Table:
        col = t[text_column]
        col = col.combine_chunks() if isinstance(col, pa.ChunkedArray) \
            else col
        txt = pc.utf8_trim_whitespace(pc.cast(col, pa.string()))
        if lowercase:
            txt = pc.utf8_lower(txt)
        lists = pc.split_pattern_regex(txt, r"\s+")
        lists = lists.combine_chunks() \
            if isinstance(lists, pa.ChunkedArray) else lists
        lens = np.diff(lists.offsets.to_numpy(zero_copy_only=False)
                       .astype(np.int64))
        ok = ~np.asarray(pc.is_null(lists).to_numpy(zero_copy_only=False))
        ok &= np.asarray(pc.greater(pc.utf8_length(txt), 0)
                         .fill_null(False).to_numpy(zero_copy_only=False))
        lens = np.where(ok, lens, 0)
        vals = lists.values.filter(
            pa.array(np.repeat(ok, np.diff(
                lists.offsets.to_numpy(zero_copy_only=False)
                .astype(np.int64)))))
        enc = vals.dictionary_encode()
        uniq = enc.dictionary.to_pylist()
        per_word = np.asarray([len(bpe_encode(w, ranks)) for w in uniq],
                              dtype=np.int64)
        codes = np.asarray(enc.indices.to_numpy(zero_copy_only=False),
                           dtype=np.int64)
        did = np.repeat(np.arange(t.num_rows, dtype=np.int64), lens)
        tok = np.zeros(t.num_rows, dtype=np.int64)
        np.add.at(tok, did, per_word[codes])
        return t.drop_columns([text_column]) \
            .append_column("bpe_tokens", pa.array(tok))

    return ds.map_batches(f, batch_format="pyarrow")
