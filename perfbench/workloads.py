"""Seeded inputs, rulesets and expected-violation oracles for the four
benchmark workloads.

Every input is a pure function of (workload, seed, size). Each generator
also returns its oracle: the violation count per (keyword, path) that a
correct engine must report, plus the duplicate-key set with row counts for
workloads that check dataset-scope uniqueness. The oracle is derived from
the faults the generator injected (or, for the clips table, from the
closed-form ``datagen.row_meta`` rules), never from engine output.

Inputs are written as parquet under a cache directory keyed by
(workload, seed, size); a later run with the same key only checks the
cache.
"""

from __future__ import annotations

import json
import os
import shutil
from collections import Counter

import numpy as np
import pyarrow as pa
import pyarrow.parquet as pq

# ---------------------------------------------------------------------------
# lineitem-shaped rows (rows_clean, rows_dirty)
# ---------------------------------------------------------------------------
TAGS = ["fragile", "bulk", "express", "returnable", "hazmat", "cold"]
INSTRUCT = ["DELIVER IN PERSON", "COLLECT COD", "NONE", "TAKE BACK RETURN"]
HOT_KEY = "L-999999999999"

ROWS_RULESET = {
    "type": "object",
    "required": ["l_id", "l_quantity", "l_extendedprice", "l_discount",
                 "l_tax", "l_returnflag", "l_linestatus", "l_shipdate",
                 "l_dims"],
    "properties": {
        "l_id": {"type": "string", "pattern": "^L-[0-9]+$"},
        "l_quantity": {"type": "integer", "minimum": 1, "maximum": 50},
        "l_extendedprice": {"type": "number", "exclusiveMinimum": 0,
                            "maximum": 1000000},
        "l_discount": {"type": "number", "minimum": 0, "maximum": 0.1,
                       "multipleOf": 0.01},
        "l_tax": {"type": "number", "minimum": 0, "maximum": 0.08},
        "l_partkey": {"type": "integer", "multipleOf": 7},
        "l_returnflag": {"enum": ["A", "N", "R"]},
        "l_linestatus": {"enum": ["O", "F"]},
        "l_currency": {"const": "USD"},
        "l_shipinstruct": {"type": "string", "pattern": "^[A-Z ]+$"},
        "l_comment": {"type": "string", "minLength": 5, "maxLength": 44},
        "l_shipdate": {"type": "string", "format": "date"},
        "l_tags": {"type": "array", "minItems": 1, "maxItems": 4,
                   "uniqueItems": True, "items": {"enum": TAGS}},
        "l_dims": {"type": "object", "required": ["weight", "unit"],
                   "properties": {"weight": {"type": "number", "minimum": 0},
                                  "unit": {"enum": ["kg", "lb"]}}},
    },
    "anyOf": [{"required": ["l_receiptdate"]}, {"required": ["l_commitdate"]}],
    "if": {"properties": {"l_returnflag": {"const": "R"}},
           "required": ["l_returnflag"]},
    "then": {"properties": {"l_tax": {"minimum": 0.02}}},
    "else": {"properties": {"l_tax": {"maximum": 0.08}}},
}

# (fault, keyword, path): each violating row carries exactly one fault, and
# each fault produces exactly one violation row
ROW_FAULTS = [
    ("quantity_low", "number_gte", "(root).l_quantity"),
    ("quantity_high", "number_lte", "(root).l_quantity"),
    ("price_nonpos", "number_gt", "(root).l_extendedprice"),
    ("discount_step", "multiple_of", "(root).l_discount"),
    ("partkey_step", "multiple_of", "(root).l_partkey"),
    ("returnflag_enum", "enum", "(root).l_returnflag"),
    ("currency_const", "const", "(root).l_currency"),
    ("linestatus_null", "required", "(root)"),
    ("instruct_pattern", "pattern", "(root).l_shipinstruct"),
    ("comment_short", "string_gte", "(root).l_comment"),
    ("comment_long", "string_lte", "(root).l_comment"),
    ("shipdate_format", "format", "(root).l_shipdate"),
    ("tags_empty", "array_min_items", "(root).l_tags"),
    ("tags_many", "array_max_items", "(root).l_tags"),
    ("tags_badenum", "items", "(root).l_tags"),
    ("tags_dup", "unique", "(root).l_tags"),
    ("dims_noweight", "required", "(root).l_dims"),
    ("dims_unit", "enum", "(root).l_dims.unit"),
    ("dates_missing", "number_any_of", "(root)"),
    ("return_tax", "condition_then", "(root)"),
]

# rule families of stages.validate, as root-property keyword sets; `array`
# and `object` keep whole array/object property schemas, `combinator` the
# root combinators
FAMILIES = {
    "numeric_bounds": {"minimum", "maximum", "exclusiveMinimum",
                       "exclusiveMaximum"},
    "multiple_of": {"multipleOf"},
    "enum_const": {"enum", "const"},
    "string_length": {"minLength", "maxLength"},
    "pattern": {"pattern"},
    "format": {"format"},
    "array": None,
    "object": None,
    "combinator": None,
}
_COMBINATORS = ("anyOf", "allOf", "oneOf", "not", "if", "then", "else")


def family_ruleset(ruleset: dict, family: str) -> dict | None:
    """The rules of one family alone, or None when the ruleset has none."""
    props = {}
    for name, sch in ruleset.get("properties", {}).items():
        kind = sch.get("type")
        if family == "array":
            if kind == "array":
                props[name] = sch
        elif family == "object":
            if kind == "object":
                props[name] = sch
        elif family != "combinator" and kind not in ("array", "object"):
            kept = {k: v for k, v in sch.items() if k in FAMILIES[family]}
            if kept:
                props[name] = kept
    if family == "combinator":
        out = {k: ruleset[k] for k in _COMBINATORS if k in ruleset}
        return out or None
    return {"properties": props} if props else None


def _date_pool(rng) -> np.ndarray:
    days = np.arange(np.datetime64("1992-01-01"), np.datetime64("1998-12-01"))
    return np.datetime_as_string(days).astype(object)


def _comment_pool() -> list[str]:
    words = ["quickly", "final", "deposits", "sleep", "furiously", "regular",
             "ideas", "among", "the", "pending", "accounts", "haggle"]
    pool = []
    for k in range(64):
        s = " ".join(words[(k * 5 + j * 7) % len(words)] for j in range(2 + k % 5))
        pool.append(s[:40])
    return pool


def rows_table(seed: int, n: int, *, bad_rate: float, dup_rate: float = 0.0,
               hot_rate: float = 0.0) -> tuple[pa.Table, Counter, dict]:
    """Lineitem-shaped table, its expected violations and duplicate keys."""
    rng = np.random.default_rng([seed, 1])
    idx = np.arange(n)
    keys = np.char.add("L-", np.char.zfill(idx.astype(str), 12)).astype(object)
    dups: dict[str, int] = {}
    if dup_rate or hot_rate:
        perm = rng.permutation(n)
        n_hot, n_dup = int(n * hot_rate), int(n * dup_rate)
        hot_rows, dup_rows = perm[:n_hot], perm[n_hot:n_hot + n_dup]
        plain = perm[n_hot + n_dup:]
        src = plain[rng.integers(0, len(plain), n_dup)]
        keys[dup_rows] = keys[src]
        keys[hot_rows] = HOT_KEY
        for s, c in Counter(src.tolist()).items():
            dups[keys[s]] = c + 1
        if n_hot > 1:
            dups[HOT_KEY] = n_hot

    qty = rng.integers(1, 51, n)
    price = np.round(qty * rng.uniform(900.0, 1100.0, n), 2)
    disc = rng.integers(0, 11, n) / 100
    flag = np.array(["A", "N", "R"], dtype=object)[rng.integers(0, 3, n)]
    is_r = flag == "R"
    tax = np.where(is_r, rng.integers(2, 9, n), rng.integers(0, 9, n)) / 100
    partkey = 7 * rng.integers(1, 200_000, n)
    status = np.array(["O", "F"], dtype=object)[rng.integers(0, 2, n)]
    currency = np.full(n, "USD", dtype=object)
    instruct = np.array(INSTRUCT, dtype=object)[rng.integers(0, 4, n)]
    comments = np.array(_comment_pool(), dtype=object)
    comment = comments[rng.integers(0, len(comments), n)]
    dates = _date_pool(rng)
    shipdate = dates[rng.integers(0, len(dates), n)]
    receipt = dates[rng.integers(0, len(dates), n)]
    commit = dates[rng.integers(0, len(dates), n)]
    # valid tag lists: 1-4 distinct tags; faulty lists appended at the end
    tag_pool = []
    for k in range(64):
        m = 1 + k % 4
        start = (k * 5) % len(TAGS)
        tag_pool.append([TAGS[(start + j) % len(TAGS)] for j in range(m)])
    n_valid_tags = len(tag_pool)
    tag_pool += [[], TAGS[:5], ["fragile", "broken"], ["bulk", "bulk"]]
    tag_idx = rng.integers(0, n_valid_tags, n)
    weight = np.round(rng.uniform(0.1, 80.0, n), 3)
    weight_null = np.zeros(n, dtype=bool)
    unit = np.array(["kg", "lb"], dtype=object)[rng.integers(0, 2, n)]
    status_null = np.zeros(n, dtype=bool)
    dates_null = np.zeros(n, dtype=bool)

    expected: Counter = Counter()
    n_bad = int(round(n * bad_rate))
    bad_rows = rng.choice(n, n_bad, replace=False)
    kinds = rng.integers(0, len(ROW_FAULTS), n_bad)
    for f, (fault, kw, path) in enumerate(ROW_FAULTS):
        rows = bad_rows[kinds == f]
        if not len(rows):
            continue
        expected[(kw, path)] += len(rows)
        if fault == "quantity_low":
            qty[rows] = 0
        elif fault == "quantity_high":
            qty[rows] = 51
        elif fault == "price_nonpos":
            price[rows] = -5.0
        elif fault == "discount_step":
            disc[rows] = 0.015
        elif fault == "partkey_step":
            partkey[rows] += 1
        elif fault == "returnflag_enum":
            flag[rows] = "X"
        elif fault == "currency_const":
            currency[rows] = "EUR"
        elif fault == "linestatus_null":
            status_null[rows] = True
        elif fault == "instruct_pattern":
            instruct[rows] = "deliver in person"
        elif fault == "comment_short":
            comment[rows] = "ok"
        elif fault == "comment_long":
            comment[rows] = "x" * 60
        elif fault == "shipdate_format":
            shipdate[rows] = "02/15/1998"
        elif fault.startswith("tags_"):
            extra = ["tags_empty", "tags_many", "tags_badenum", "tags_dup"]
            tag_idx[rows] = n_valid_tags + extra.index(fault)
        elif fault == "dims_noweight":
            weight_null[rows] = True
        elif fault == "dims_unit":
            unit[rows] = "oz"
        elif fault == "dates_missing":
            dates_null[rows] = True
        elif fault == "return_tax":
            flag[rows] = "R"
            tax[rows] = 0.01

    tags = pa.array(tag_pool, pa.list_(pa.string())).take(pa.array(tag_idx))
    dims = pa.StructArray.from_arrays(
        [pa.array(weight, mask=weight_null), pa.array(unit, pa.string())],
        names=["weight", "unit"])
    table = pa.table({
        "l_id": pa.array(keys, pa.string()),
        "l_quantity": pa.array(qty, pa.int64()),
        "l_extendedprice": pa.array(price),
        "l_discount": pa.array(disc),
        "l_tax": pa.array(tax),
        "l_partkey": pa.array(partkey, pa.int64()),
        "l_returnflag": pa.array(flag, pa.string()),
        "l_linestatus": pa.array(status, pa.string(), mask=status_null),
        "l_currency": pa.array(currency, pa.string()),
        "l_shipinstruct": pa.array(instruct, pa.string()),
        "l_comment": pa.array(comment, pa.string()),
        "l_shipdate": pa.array(shipdate, pa.string()),
        "l_receiptdate": pa.array(receipt, pa.string(), mask=dates_null),
        "l_commitdate": pa.array(commit, pa.string(), mask=dates_null),
        "l_tags": tags,
        "l_dims": dims,
    })
    return table, expected, dups


# ---------------------------------------------------------------------------
# JSON documents (json_docs)
# ---------------------------------------------------------------------------
JSON_RULESET = {
    "type": "object",
    "required": ["id", "name", "kind", "meta"],
    "properties": {
        "id": {"type": "integer", "minimum": 1},
        "name": {"type": "string", "minLength": 3, "maxLength": 12,
                 "pattern": "^[a-z]+$"},
        "kind": {"enum": ["a", "b", "c"]},
        "meta": {"type": "object", "required": ["owner", "level"],
                 "properties": {"owner": {"type": "string", "minLength": 1},
                                "level": {"type": "integer", "minimum": 0,
                                          "maximum": 9}}},
        "tags": {"type": "array", "minItems": 1, "maxItems": 5},
    },
}

# faults on which the vectorized struct path and the generic engine agree
JSON_FAULTS = [
    ("id_low", "number_gte", "(root).id"),
    ("name_long", "string_lte", "(root).name"),
    ("name_pattern", "pattern", "(root).name"),
    ("kind_enum", "enum", "(root).kind"),
    ("kind_missing", "required", "(root)"),
    ("meta_noowner", "required", "(root).meta"),
    ("level_high", "number_lte", "(root).meta.level"),
    ("tags_empty", "array_min_items", "(root).tags"),
]
JSON_DOCS_PER_FILE = 2048
MALFORMED_CHUNK_SHARE = 0.125


def json_table(seed: int, n: int, *, bad_rate: float = 0.05
               ) -> tuple[pa.Table, Counter, dict]:
    """doc_id + doc (a JSON string) columns; a seeded minority of
    JSON_DOCS_PER_FILE-row chunks holds one malformed (truncated) document."""
    rng = np.random.default_rng([seed, 2])
    letters = np.array(list("abcdefghijklmnopqrstuvwxyz"))
    name_len = rng.integers(3, 13, n)
    name_chars = letters[rng.integers(0, 26, (n, 12))]
    kinds = rng.integers(0, 3, n)
    levels = rng.integers(0, 10, n)
    owners = rng.integers(0, 500, n)
    ntags = rng.integers(1, 6, n)
    fault_of = np.full(n, -1)
    n_bad = int(round(n * bad_rate))
    bad_rows = rng.choice(n, n_bad, replace=False)
    fault_of[bad_rows] = rng.integers(0, len(JSON_FAULTS), n_bad)
    # one malformed document, on a clean row, in each of a fixed share of
    # seeded chunks: the fallback work is the same for every seed
    malformed = np.zeros(n, dtype=bool)
    starts = np.arange(0, n, JSON_DOCS_PER_FILE)
    n_malformed = max(1, int(round(len(starts) * MALFORMED_CHUNK_SHARE)))
    for start in rng.choice(starts, n_malformed, replace=False):
        stop = min(n, start + JSON_DOCS_PER_FILE)
        clean = np.nonzero(fault_of[start:stop] < 0)[0]
        malformed[start + clean[rng.integers(0, len(clean))]] = True

    expected: Counter = Counter()
    docs = []
    for i in range(n):
        doc = {"id": i + 1,
               "name": "".join(name_chars[i, :name_len[i]]),
               "kind": "abc"[kinds[i]],
               "meta": {"owner": f"u{owners[i]}", "level": int(levels[i])},
               "tags": [f"t{(i + j) % 17}" for j in range(ntags[i])]}
        f = fault_of[i]
        if f >= 0:
            fault, kw, path = JSON_FAULTS[f]
            expected[(kw, path)] += 1
            if fault == "id_low":
                doc["id"] = 0
            elif fault == "name_long":
                doc["name"] = "q" * 20
            elif fault == "name_pattern":
                doc["name"] = "ABCD"
            elif fault == "kind_enum":
                doc["kind"] = "z"
            elif fault == "kind_missing":
                del doc["kind"]
            elif fault == "meta_noowner":
                del doc["meta"]["owner"]
            elif fault == "level_high":
                doc["meta"]["level"] = 12
            elif fault == "tags_empty":
                doc["tags"] = []
        s = json.dumps(doc, separators=(",", ":"))
        if malformed[i]:
            s = s[:-1]
            expected[("invalid_json", "(root)")] += 1
        docs.append(s)
    ids = np.char.add("D-", np.char.zfill(np.arange(n).astype(str), 9))
    table = pa.table({"doc_id": pa.array(ids.astype(object), pa.string()),
                      "doc": pa.array(docs, pa.string())})
    return table, expected, {}


# ---------------------------------------------------------------------------
# clips table (clips_flagship): datagen rows at a seed-shifted offset
# ---------------------------------------------------------------------------
CLIPS_CAP_MS = 30
CLIPS_OFFSET_SLOTS = 64


def clips_offset(seed: int) -> int:
    """Row-index offset of a seed: one of CLIPS_OFFSET_SLOTS fixed slots, so
    every offset the benchmark can use is one the oracle was checked on."""
    return 1_048_576 * (1 + seed % CLIPS_OFFSET_SLOTS)


def clips_oracle(offset: int, n: int, cap_ms: int = CLIPS_CAP_MS
                 ) -> tuple[Counter, dict]:
    """Closed-form expected violations of run_flagship over datagen rows
    [offset, offset+n), from the F1 injection rules (datagen.row_meta) and
    the fused checker's contracts:

    - schema: sr_hz 7000 and codec "mp3???" fail enum; dur_ms 0 fails
      exclusiveMinimum, 3600001 fails maximum; "" fails minLength; a null
      transcript fails root `required`;
    - audio: "mp3???" has no decoder (decode); a truncated payload (2/5 of
      the blob) with an odd s16le byte count fails to decode, an even one
      fails pcm_length (wav rows lose the 44-byte header first);
    - a decodable row whose clip_id names another row (duplicate ids copy
      row i-1's id) is compared with that row's transcript (transcript);
    - uniqueness: every clip_id seen more than once, with its row count.
    """
    from gojsonschema_ray import datagen

    exp: Counter = Counter()
    ids: Counter = Counter()
    for i in range(offset, offset + n):
        m = datagen.row_meta(i)
        ids[m["clip_id"]] += 1
        sr, dur, codec, tr = m["sr_hz"], m["dur_ms"], m["codec"], m["transcript"]
        if sr not in datagen.SR_CYCLE:
            exp[("enum", "(root).sr_hz")] += 1
        if codec not in datagen.CODEC_CYCLE:
            exp[("enum", "(root).codec")] += 1
        if dur <= 0:
            exp[("number_gt", "(root).dur_ms")] += 1
        elif dur > 3_600_000:
            exp[("number_lte", "(root).dur_ms")] += 1
        if tr is None:
            exp[("required", "(root)")] += 1
        elif tr == "":
            exp[("string_gte", "(root).transcript")] += 1
        if codec not in datagen.CODEC_CYCLE:
            exp[("decode", "(root).bytes")] += 1
            continue
        if i % 1013 == 0:
            nsamp = int(sr * min(dur, cap_ms) / 1000)
            if codec == "wav":
                avail = max(0, max(1, (44 + 2 * nsamp) * 2 // 5) - 44)
            else:
                avail = max(1, (2 * nsamp) * 2 // 5)
            if avail % 2 == 1:
                exp[("decode", "(root).bytes")] += 1
                continue
            if avail // 2 != nsamp:
                exp[("pcm_length", "(root).bytes")] += 1
                continue
        cid = m["clip_id"]
        if cid.startswith("clip-") and cid[5:].isdigit() and int(cid[5:]) != i:
            ref = datagen.row_meta(int(cid[5:]))["transcript"]
            if ref is not None and tr != ref:
                exp[("transcript", "(root).transcript")] += 1
    dups = {k: c for k, c in ids.items() if c > 1}
    return exp, dups


def _write_clips_shard(path: str, start: int, count: int, cap_ms: int) -> None:
    from gojsonschema_ray import datagen

    fp = os.path.join(path, f"part-{start:012d}.parquet")
    pq.write_table(datagen.clips_batch(start, count, cap_ms), fp + ".tmp")
    os.replace(fp + ".tmp", fp)


# ---------------------------------------------------------------------------
# workload catalogue
# ---------------------------------------------------------------------------
class Spec:
    """Static description of one workload: input shape and ruleset."""

    def __init__(self, name, rows, files, *, kind, ruleset=None, key=None,
                 bad_rate=0.0, dup_rate=0.0, hot_rate=0.0, probe_rows=None,
                 row_group_rows=None):
        self.name, self.rows, self.files, self.kind = name, rows, files, kind
        self.ruleset, self.key = ruleset, key
        self.bad_rate, self.dup_rate, self.hot_rate = bad_rate, dup_rate, hot_rate
        self.probe_rows = probe_rows
        self.row_group_rows = row_group_rows


SPECS = {
    "rows_clean": Spec("rows_clean", 240_000, 16, kind="rows",
                       ruleset=ROWS_RULESET, key="l_id", bad_rate=0.005,
                       probe_rows=32_768, row_group_rows=7_500),
    "rows_dirty": Spec("rows_dirty", 60_000, 16, kind="rows",
                       ruleset=ROWS_RULESET, key="l_id", bad_rate=0.30,
                       dup_rate=0.03, hot_rate=0.002, probe_rows=32_768,
                       row_group_rows=1_875),
    "clips_flagship": Spec("clips_flagship", 8_192, 4, kind="clips",
                           key="clip_id", probe_rows=4_096),
    "json_docs": Spec("json_docs", 65_536, 32, kind="json",
                      ruleset=JSON_RULESET, key="doc_id", probe_rows=8_192),
}


class Inputs:
    """Generated inputs of one (workload, seed, size): parquet files plus
    the oracle."""

    def __init__(self, spec: Spec, seed: int, rows: int, path: str,
                 expected: Counter, dups: dict, offset: int = 0):
        self.spec, self.seed, self.rows, self.path = spec, seed, rows, path
        self.expected, self.dups, self.offset = expected, dups, offset

    @property
    def files(self) -> list[str]:
        return sorted(os.path.join(self.path, f) for f in os.listdir(self.path)
                      if f.endswith(".parquet"))

    @property
    def bytes(self) -> int:
        return sum(os.path.getsize(f) for f in self.files)

    @property
    def ruleset(self) -> dict:
        if self.spec.kind == "clips":
            from gojsonschema_ray.pipelines.flagship import DEFAULT_RULESET
            return DEFAULT_RULESET
        return self.spec.ruleset


def _oracle_path(path: str) -> str:
    return os.path.join(path, "oracle.json")


def _save_oracle(path: str, expected: Counter, dups: dict, offset: int):
    with open(_oracle_path(path), "w") as f:
        json.dump({"expected": [[k, p, c] for (k, p), c in expected.items()],
                   "dups": dups, "offset": offset}, f)


def _load_oracle(path: str) -> tuple[Counter, dict, int]:
    with open(_oracle_path(path)) as f:
        d = json.load(f)
    return (Counter({(k, p): c for k, p, c in d["expected"]}), d["dups"],
            d["offset"])


def generate(spec: Spec, seed: int, rows: int, cache_dir: str,
             parallel=None) -> Inputs:
    """Inputs for (spec, seed, rows), from the cache when already there.

    `parallel(fn, args_list)` runs clip-shard synthesis in parallel (a Ray
    task map); None runs it in-process."""
    path = os.path.join(cache_dir, f"{spec.name}-s{seed}-n{rows}")
    if os.path.exists(_oracle_path(path)):
        expected, dups, offset = _load_oracle(path)
        return Inputs(spec, seed, rows, path, expected, dups, offset)
    tmp = path + ".tmp"
    shutil.rmtree(tmp, ignore_errors=True)
    os.makedirs(tmp)
    offset = 0
    per_file = -(-rows // spec.files)
    if spec.kind == "clips":
        offset = clips_offset(seed)
        jobs = [(tmp, offset + s, min(per_file, rows - s), CLIPS_CAP_MS)
                for s in range(0, rows, per_file)]
        if parallel is not None:
            parallel(_write_clips_shard, jobs)
        else:
            for j in jobs:
                _write_clips_shard(*j)
        expected, dups = clips_oracle(offset, rows)
    else:
        if spec.kind == "rows":
            table, expected, dups = rows_table(
                seed, rows, bad_rate=spec.bad_rate, dup_rate=spec.dup_rate,
                hot_rate=spec.hot_rate)
        else:
            table, expected, dups = json_table(seed, rows)
            per_file = JSON_DOCS_PER_FILE
        for k, s in enumerate(range(0, rows, per_file)):
            pq.write_table(table.slice(s, per_file),
                           os.path.join(tmp, f"part-{k:05d}.parquet"),
                           row_group_size=spec.row_group_rows)
    _save_oracle(tmp, expected, dups, offset)
    shutil.rmtree(path, ignore_errors=True)
    os.replace(tmp, path)
    return Inputs(spec, seed, rows, path, expected, dups, offset)
