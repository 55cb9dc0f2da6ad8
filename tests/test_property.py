"""Property-based cross-validation: the VECTORIZED table engine
(stages/validate.py) must agree row-by-row with the GENERIC per-document
engine (schema/compile.py) — two independent implementations of the same
reference semantics (validation.go:71-267). Hypothesis drives random typed
tables x random rulesets over the keyword families the table engine
vectorizes. No Ray needed: TableValidator runs in-process on Arrow tables.
"""

from fractions import Fraction

import numpy as np
import pyarrow as pa
import pytest
from hypothesis import example, given, settings, strategies as st

from gojsonschema_ray.schema import compile_schema
from gojsonschema_ray.stages.validate import TableValidator

# ---------------------------------------------------------------------------
# strategies
# ---------------------------------------------------------------------------

_num = st.one_of(
    st.integers(min_value=-1000, max_value=1000),
    st.floats(min_value=-1000, max_value=1000, allow_nan=False,
              allow_infinity=False).map(lambda v: round(v, 3)),
)

_numeric_schema = st.fixed_dictionaries({}, optional={
    "minimum": _num,
    "maximum": _num,
    "exclusiveMinimum": _num,
    "exclusiveMaximum": _num,
    "multipleOf": st.sampled_from([1, 2, 5, 0.5, 0.25, 0.1]),
    # canonical-JSON uniqueness is a compile-time rule (1 == 1.0), so key
    # enum candidates by their exact rational value
    "enum": st.lists(_num, min_size=1, max_size=5,
                     unique_by=lambda v: Fraction(repr(float(v)))),
    "const": _num,
})

_string_schema = st.fixed_dictionaries({}, optional={
    "minLength": st.integers(min_value=0, max_value=8),
    "maxLength": st.integers(min_value=0, max_value=12),
    "pattern": st.sampled_from(["^a", "b$", "ab", "^[ab]+$", "a.c"]),
    "enum": st.lists(st.text(alphabet="abc", max_size=5), min_size=1,
                     max_size=4, unique=True),
})

_list_schema = st.fixed_dictionaries({}, optional={
    "minItems": st.integers(min_value=0, max_value=4),
    "maxItems": st.integers(min_value=0, max_value=6),
    "uniqueItems": st.booleans(),
    "items": _numeric_schema,
    "contains": st.fixed_dictionaries({"minimum": _num}),
})

_int_vals = st.lists(
    st.one_of(st.none(), st.integers(min_value=-50, max_value=50)),
    min_size=1, max_size=30)
_float_vals = st.lists(
    st.one_of(st.none(),
              st.floats(min_value=-50, max_value=50, allow_nan=False,
                        allow_infinity=False).map(lambda v: round(v, 2))),
    min_size=1, max_size=30)
_str_vals = st.lists(
    st.one_of(st.none(), st.text(alphabet="abc", max_size=6)),
    min_size=1, max_size=30)
_list_vals = st.lists(
    st.one_of(st.none(),
              st.lists(st.integers(min_value=-9, max_value=9), max_size=5)),
    min_size=1, max_size=25)


def _rows_from_column(name, values):
    """Row dicts for the generic engine: NULL means the property is ABSENT
    (the engine's null-as-absent table mapping)."""
    return [{} if v is None else {name: v} for v in values]


def _exact(values):
    """Generic-engine numeric parity: floats enter the per-document engine
    as exact decimal Fractions (json parse_float behavior)."""
    out = []
    for v in values:
        if isinstance(v, float):
            out.append(Fraction(repr(v)))
        else:
            out.append(v)
    return out


def _assert_engines_agree(column_schema, name, arrow_values, py_values):
    from hypothesis import assume

    from gojsonschema_ray.schema import SchemaError

    root = {"type": "object", "properties": {name: column_schema}}
    try:
        tree = compile_schema(root)
    except SchemaError:
        # compile-time rejection (e.g. minLength > maxLength cross-checks,
        # schema.go:644-651) is correct reference behavior — not this
        # property's subject
        assume(False)
    tv = TableValidator(tree, key_column=None, mode="verdict",
                       emit_violations=False)
    batch = pa.table({name: arrow_values})
    mask, _ = tv.validate_batch(batch)
    generic = [tree.check(row) for row in _rows_from_column(name, py_values)]
    assert mask.tolist() == generic, (
        f"engine disagreement for schema={column_schema}\n"
        f"values={py_values}\nvector={mask.tolist()}\ngeneric={generic}")


# ---------------------------------------------------------------------------
# properties
# ---------------------------------------------------------------------------

@settings(max_examples=120, deadline=None)
@given(schema=_numeric_schema, values=_int_vals)
def test_numeric_int_column_agrees(schema, values):
    arr = pa.array(values, type=pa.int64())
    _assert_engines_agree(schema, "x", arr, _exact(values))


@settings(max_examples=120, deadline=None)
@given(schema=_numeric_schema, values=_float_vals)
def test_numeric_float_column_agrees(schema, values):
    arr = pa.array([float(v) if v is not None else None for v in values],
                   type=pa.float64())
    _assert_engines_agree(schema, "x", arr, _exact(values))


@settings(max_examples=120, deadline=None)
@given(schema=_string_schema, values=_str_vals)
def test_string_column_agrees(schema, values):
    arr = pa.array(values, type=pa.string())
    _assert_engines_agree(schema, "s", arr, values)


_FOLD_SCHEMA = {"items": {"minimum": 0}, "contains": {"minimum": 1}}


@settings(max_examples=100, deadline=None)
@given(schema=_list_schema, values=_list_vals)
@example(schema=_FOLD_SCHEMA, values=[[], None, []])
@example(schema=_FOLD_SCHEMA, values=[[3, -1], [], [0, 2, 5], None, [1], []])
def test_list_column_agrees(schema, values):
    """Also checks the segment folds behind `items` and `contains` (one
    verdict per element folded into its row) against a per-row all/any,
    on random parents, empty lists and an all-empty batch."""
    arr = pa.array(values, type=pa.list_(pa.int64()))
    _assert_engines_agree(schema, "l", arr, values)
    from gojsonschema_ray.stages.validate import VectorEvaluator

    lists = [v or [] for v in values]
    parent = np.repeat(np.arange(len(lists)), [len(v) for v in lists])
    elem = np.array([x > 0 for v in lists for x in v], dtype=bool)
    ev = VectorEvaluator()
    assert ev._segment_all(elem, parent, len(lists)).tolist() == \
        [all(x > 0 for x in v) for v in lists]
    assert ev._segment_any(elem, parent, len(lists)).tolist() == \
        [any(x > 0 for x in v) for v in lists]


@settings(max_examples=60, deadline=None)
@given(
    if_min=_num, then_max=_num, else_max=_num,
    values=_int_vals,
)
def test_conditional_column_agrees(if_min, then_max, else_max, values):
    schema = {
        "if": {"minimum": if_min},
        "then": {"maximum": then_max},
        "else": {"maximum": else_max},
    }
    arr = pa.array(values, type=pa.int64())
    _assert_engines_agree(schema, "x", arr, _exact(values))


@settings(max_examples=60, deadline=None)
@given(
    b1=_numeric_schema, b2=_numeric_schema,
    comb=st.sampled_from(["anyOf", "oneOf", "allOf"]),
    values=_int_vals,
)
def test_combinator_column_agrees(b1, b2, comb, values):
    schema = {comb: [b1, b2]}
    arr = pa.array(values, type=pa.int64())
    _assert_engines_agree(schema, "x", arr, _exact(values))


@settings(max_examples=60, deadline=None)
@given(sub=_numeric_schema, values=_int_vals)
def test_not_column_agrees(sub, values):
    schema = {"not": sub}
    arr = pa.array(values, type=pa.int64())
    _assert_engines_agree(schema, "x", arr, _exact(values))


# ---------------------------------------------------------------------------
# root-object keywords over multi-column tables
# ---------------------------------------------------------------------------

_col_names = ["aa", "ab", "bc"]

_root_schema = st.fixed_dictionaries({}, optional={
    "required": st.lists(st.sampled_from(_col_names + ["zz"]), max_size=3,
                         unique=True),
    "minProperties": st.integers(min_value=0, max_value=3),
    "maxProperties": st.integers(min_value=0, max_value=4),
    "dependencies": st.dictionaries(
        st.sampled_from(_col_names),
        st.lists(st.sampled_from(_col_names), max_size=2, unique=True),
        max_size=2),
    "properties": st.dictionaries(
        st.sampled_from(_col_names), _numeric_schema, max_size=3),
    "patternProperties": st.dictionaries(
        st.sampled_from(["^a", "b"]), _numeric_schema, max_size=1),
})

_table_vals = st.lists(
    st.tuples(*[st.one_of(st.none(), st.integers(min_value=-20, max_value=20))
                for _ in _col_names]),
    min_size=1, max_size=25)


@settings(max_examples=120, deadline=None)
@given(schema=_root_schema, rows=_table_vals)
def test_root_object_keywords_agree(schema, rows):
    """required / properties / patternProperties / dependencies /
    min-maxProperties at the table root: a row's columns are its object
    properties, NULL = absent (validation.go:592-705)."""
    from hypothesis import assume

    from gojsonschema_ray.schema import SchemaError

    root = {"type": "object", **schema}
    try:
        tree = compile_schema(root)
    except SchemaError:
        assume(False)
    tv = TableValidator(tree, key_column=None, mode="verdict",
                        emit_violations=False)
    cols = list(zip(*rows))
    batch = pa.table({name: pa.array(list(vals), type=pa.int64())
                      for name, vals in zip(_col_names, cols)})
    mask, _ = tv.validate_batch(batch)
    generic = []
    for row in rows:
        doc = {n: v for n, v in zip(_col_names, row) if v is not None}
        generic.append(tree.check(doc))
    assert mask.tolist() == generic, (
        f"root-object disagreement for schema={root}\nrows={rows}\n"
        f"vector={mask.tolist()}\ngeneric={generic}")


# ---------------------------------------------------------------------------
# format checkers: vector kernel vs scalar checker
# ---------------------------------------------------------------------------

_FORMAT_SEEDS = {
    "date": ["2024-02-29", "2023-02-29", "1999-12-31", "x", "2024-13-01",
             "2024-02-29\n", " 2024-02-29", "\u0661\u0669\u0669\u0662-01-01",
             "0000-01-01", "1900-02-29", "2000-02-29", "2001-04-31"],
    "time": ["12:34:56", "12:34:56Z", "25:00:00", "",
             "23:59:59", "24:00:00", "23:60:00", "23:59:60", "12:00:00.123456",
             "12:00:00.", "12:00:00+24:00", "12:00:00-99:99", "12:00:00+1:00",
             "12:00:00\n", " 12:00:00", "\u0661\u0662:00:00", "12:00:00z"],
    "date-time": ["2024-01-02T03:04:05Z", "2024-01-02 03:04:05", "nope",
                  "2024-02-29T23:59:59.5+01:00", "2023-02-29T00:00:00Z",
                  "2024-01-02T24:00:00Z", "2024-01-02T23:60:00Z",
                  "2024-01-02T23:59:60Z", "2024-01-02T03:04:05+24:00",
                  "2024-01-02T03:04:05-99:99", "2024-01-02t03:04:05Z",
                  "2024-01-02T03:04:05Z\n", " 2024-01-02T03:04:05Z",
                  "1992-01-01T\u0661\u0662:00:00Z", "2024-01-02", "03:04:05",
                  "0000-01-01T00:00:00Z"],
    "hostname": ["example.com", "-bad.com", "a" * 300, "ok-host",
                 # lengths 255, 256 and 300, each well-formed but for length
                 ("a" * 63 + ".") * 3 + "a" * 63, "a." * 127 + "aa",
                 "a." * 149 + "aa", "a." * 128, "ex\u00e4mple.com", "host\n"],
    "email": ["a@b.co", "not-an-email", "x@y", "@"],
    "ipv4": ["1.2.3.4", "256.1.1.1", "1.2.3", "::1", "0.0.0.0",
             "255.255.255.255", "01.2.3.4", "1.2.3.04", "1.2.3.00",
             "1.2.3.256", "::ffff:1.2.3.4", "::ffff:01.2.3.4", "1.2.3.4%eth0",
             "1.2.3.4\n", " 1.2.3.4", "\u0661.2.3.4", "1.2.3.4.5"],
    "ipv6": ["::1", "1.2.3.4", "fe80::1", "zz::"],
    "uri": ["http://x/y", "not a uri", "//missing-scheme", "ftp://h"],
    "uri-reference": ["/rel/path", "http://x", "\\bad"],
    "uuid": ["123e4567-e89b-12d3-a456-426614174000", "xyz", ""],
    "regex": ["^a+$", "(", "[a-z]"],
    "json-pointer": ["/a/b", "a/b", "", "/~0"],
    "relative-json-pointer": ["0/a", "/a", "1#"],
}


@settings(max_examples=40, deadline=None)
@given(
    fmt=st.sampled_from(sorted(_FORMAT_SEEDS)),
    extra=st.lists(st.text(max_size=12), max_size=6),
    data=st.data(),
)
def test_format_vector_matches_scalar(fmt, extra, data):
    """The vectorized format kernel must agree value-for-value with the
    scalar checker (format_checkers.go semantics) on seeds + random text."""
    from gojsonschema_ray.schema.formats import FORMATS

    values = data.draw(st.lists(
        st.sampled_from(_FORMAT_SEEDS[fmt] + (extra or [""])),
        min_size=1, max_size=20))
    arr = pa.array(values, type=pa.string())
    vec = FORMATS.vector_is_format(fmt, arr).to_pylist()
    scalar = [FORMATS.is_format(fmt, v) for v in values]
    assert [bool(v) for v in vec] == scalar, (fmt, values, vec, scalar)


def test_date_kernel_exhaustive_sweep():
    """Every YYYY-MM-DD with MM 00-13 and DD 00-32 over leap, non-leap,
    century and edge years: the Arrow date kernel equals check_date. A
    strptime kernel would fail here: it rolls 2001-02-29 over."""
    from gojsonschema_ray.schema.formats import FORMATS, check_date

    values = [f"{y}-{m:02d}-{d:02d}"
              for y in ("0000", "0001", "1900", "2000", "2001", "2004", "9999")
              for m in range(14) for d in range(33)]
    vec = FORMATS.vector_is_format("date", pa.array(values)).to_pylist()
    assert vec == [check_date(v) for v in values]
    assert sum(vec) == 6 * 365 + 2  # 0000 invalid; 2000 and 2004 leap


def test_scalar_time_formats_reject_non_ascii_digits():
    """Go's time.Parse reads ASCII digits only; Python's \\d and int()
    would also take Arabic-Indic ones."""
    from gojsonschema_ray.schema.formats import FORMATS

    assert not FORMATS.is_format("time", "\u0661\u0662:00:00")
    assert not FORMATS.is_format("date", "\u0661\u0669\u0669\u0662-01-01")
    assert not FORMATS.is_format("date-time", "1992-01-01T\u0661\u0662:00:00Z")
    assert FORMATS.is_format("date-time", "1992-01-01T12:00:00Z")


@pytest.mark.parametrize("layout", ["plain", "sliced", "large_string", "chunked"])
@pytest.mark.parametrize("fmt", sorted(_FORMAT_SEEDS))
def test_format_kernels_across_layouts(fmt, layout):
    """Every format's vector path equals its scalar checker on every seed,
    with null slots kept null, on an offset slice, large_string and a
    chunked column."""
    from gojsonschema_ray.schema.formats import FORMATS

    values = ["pad", None] + _FORMAT_SEEDS[fmt] + [None]
    arr = pa.array(values, type=pa.large_string() if layout == "large_string"
                   else pa.string())
    if layout == "sliced":
        arr, values = arr.slice(1), values[1:]
    elif layout == "chunked":
        arr = pa.chunked_array([arr.slice(0, 3), arr.slice(3)])
    vec = FORMATS.vector_is_format(fmt, arr).to_pylist()
    assert vec == [None if v is None else FORMATS.is_format(fmt, v)
                   for v in values], (fmt, layout)


def test_every_builtin_format_has_a_declared_vector_path():
    """A built-in format either has an Arrow kernel or is listed in the one
    dictionary-path set, so a new built-in cannot silently fall back to one
    Python call per distinct value."""
    from gojsonschema_ray.schema.format_kernels import KERNELS
    from gojsonschema_ray.schema.formats import _BUILTINS, _DICTIONARY_PATH

    assert not set(KERNELS) & _DICTIONARY_PATH
    assert set(_BUILTINS) == set(KERNELS) | _DICTIONARY_PATH


def test_builtin_override_bypasses_its_kernel():
    """A checker registered under a built-in name replaces the built-in's
    kernel as well as its scalar checker."""
    from gojsonschema_ray.schema.formats import FormatRegistry

    uuid = "123e4567-e89b-12d3-a456-426614174000"
    reg = FormatRegistry().register("uuid", lambda v: v == "today")
    assert reg.vector_is_format(
        "uuid", pa.array(["today", uuid])).to_pylist() == [True, False]


_UNIQUE_STR_CASES = {
    "one_null": [["a", None], [None], ["a", "b", None]],
    "two_nulls": [["a", None, None], [None, None], [None, "a", None]],
    "dups": [["a", "a"], ["a", "b", "a"], ["b", "a"], ["", ""], ["", None]],
    "empty_and_null_lists": [[], None, ["a"], [], None, ["x", "x"]],
}


@pytest.mark.parametrize("layout", ["list", "sliced", "large", "chunked"])
@pytest.mark.parametrize("case", sorted(_UNIQUE_STR_CASES))
def test_unique_items_string_kernel_agrees(case, layout):
    """The dictionary-code uniqueItems kernel agrees with the generic engine
    on string lists with nulls, empty and null lists, an offset slice,
    large_list of large_string and a chunked column."""
    values = [["pad", "pad"], ["q"]] + _UNIQUE_STR_CASES[case]
    if layout == "large":
        arr = pa.array(values, type=pa.large_list(pa.large_string()))
    else:
        arr = pa.array(values, type=pa.list_(pa.string()))
    if layout == "sliced":
        arr, values = arr.slice(1), values[1:]
    elif layout == "chunked":
        arr = pa.chunked_array([arr.slice(0, 3), arr.slice(3)])
    _assert_engines_agree({"uniqueItems": True}, "l", arr, values)


@settings(max_examples=100, deadline=None)
@given(values=st.lists(st.one_of(st.none(), st.lists(
    st.one_of(st.none(), st.text(alphabet="ab", max_size=2)), max_size=5)),
    min_size=1, max_size=25))
def test_unique_items_string_lists_agree(values):
    _assert_engines_agree({"uniqueItems": True}, "l",
                          pa.array(values, type=pa.list_(pa.string())), values)


@settings(max_examples=60, deadline=None)
@given(
    h=st.integers(min_value=1, max_value=24),
    w=st.integers(min_value=1, max_value=24),
    gray=st.booleans(),
    data=st.data(),
)
def test_image_codec_roundtrip_property(h, w, gray, data):
    """encode→decode identity for the pure-numpy image codecs over random
    shapes (odd widths exercise BMP row padding)."""
    from gojsonschema_ray.functions.imaging import (
        decode_bmp, decode_pnm, encode_bmp, encode_pnm,
    )

    c = 1 if gray else 3
    flat = data.draw(st.lists(st.integers(0, 255), min_size=h * w * c,
                              max_size=h * w * c))
    img = np.asarray(flat, dtype=np.uint8).reshape(h, w, c)
    assert (decode_pnm(encode_pnm(img)) == img).all()
    if c == 3:
        assert (decode_bmp(encode_bmp(img)) == img).all()


@settings(max_examples=60, deadline=None)
@given(frames=st.lists(st.binary(max_size=40), max_size=12),
       stream=st.integers(min_value=0, max_value=3))
def test_avi_demux_roundtrip_property(frames, stream):
    """encode→demux identity for the RIFF/AVI walker over random frame
    payloads (odd sizes exercise even-byte padding), per stream id."""
    from gojsonschema_ray.functions.video import demux_avi_frames, encode_avi

    blob = encode_avi(frames, stream=stream)
    assert demux_avi_frames(blob, stream=stream) == frames
    assert demux_avi_frames(blob, stream=stream + 1) == []


# ---------------------------------------------------------------------------
# batch text kernels vs their scalar reference implementations
# ---------------------------------------------------------------------------

_texts = st.lists(
    st.one_of(
        st.none(),
        st.text(max_size=60),
        st.text(alphabet=" \t\n\r\x1c\xa0abäö汉0.+@-", max_size=40),
        st.sampled_from([
            "", " ", "the cat and the hat", "der hund ist nicht da",
            "el que la y es un", "le chat est une de les", "汉字 test",
            "a", "and", "de la", "ééé", "ééééé", "x" * 8,
        ]),
    ),
    min_size=0, max_size=25,
)


@settings(max_examples=60, deadline=None)
@given(texts=_texts)
def test_simhash_batch_matches_scalar(texts):
    """simhash64_batch (one hash+unpack+reduceat pass) must agree bit-for-bit
    with the per-document scalar simhash64."""
    import pandas as _pd

    from gojsonschema_ray.stages.dedup import simhash64, simhash64_batch

    batch = simhash64_batch(texts)
    scalar = np.array([simhash64(t or "") for t in texts], dtype=np.uint64)
    assert (batch == scalar).all(), texts


@settings(max_examples=60, deadline=None)
@given(texts=_texts)
def test_lang_id_batch_matches_scalar(texts):
    """lang_id_batch (shared tokenization + isin hit counts) must agree with
    the scalar stopword-argmax heuristic, including CJK / empty / und."""
    import pandas as _pd

    from gojsonschema_ray.functions.text import lang_id, lang_id_batch

    batch = list(lang_id_batch(_pd.Series(texts, dtype="object")))
    scalar = [lang_id(t) for t in texts]
    assert batch == scalar, texts


@settings(max_examples=60, deadline=None)
@given(texts=_texts)
def test_fingerprint_batch_matches_scalar(texts):
    """rolling_fingerprint_batch (one concat + windowed Rabin-Karp + lexsort
    pass) must agree with the per-document scalar winnowing fingerprint,
    including multi-byte texts shorter than k chars."""
    import pandas as _pd

    from gojsonschema_ray.functions.text import (
        rolling_fingerprint, rolling_fingerprint_batch,
    )

    batch = rolling_fingerprint_batch(_pd.Series(texts, dtype="object"))
    scalar = np.array([rolling_fingerprint(t) for t in texts])
    assert len(batch) == len(scalar) and (batch == scalar).all(), texts


# text strategy shared by the corpus-quality kernels: ASCII words + the
# whitespace the tokenizer contract covers, plus None/empty/space-only rows
_doc_text = st.one_of(
    st.none(),
    st.text(alphabet="ab xy\t", max_size=30),
)


def _scalar_repetition(texts, lowercase=True):
    """Slow per-row reference for _repetition_kernel."""
    out = []
    for i, t in enumerate(texts):
        if t is None:
            continue
        s = t.strip()
        if lowercase:
            s = s.lower()
        toks = s.split() if s else []
        if not toks:
            continue
        from collections import Counter
        c = Counter(toks)
        n = len(toks)
        out.append((i, n, len(c), 1.0 - len(c) / n, max(c.values()) / n))
    return out


@settings(max_examples=60, deadline=None)
@given(texts=st.lists(_doc_text, min_size=0, max_size=12),
       lowercase=st.booleans())
def test_repetition_kernel_matches_scalar(texts, lowercase):
    from gojsonschema_ray.functions.text import _repetition_kernel

    batch = pa.table({"i": list(range(len(texts))),
                      "t": pa.array(texts, pa.string())})
    got = _repetition_kernel(batch, "t", "i", lowercase).to_pylist()
    want = _scalar_repetition(texts, lowercase)
    assert [(r["i"], r["n_tokens"], r["n_distinct"], r["dup_token_frac"],
             r["top_token_frac"]) for r in got] == want


def _scalar_gopher(texts, ids, **th):
    """Slow per-row reference for _gopher_kernel verdicts."""
    from collections import Counter
    out = []
    for i, t in zip(ids, texts):
        s = (t or "").strip()
        toks = s.split()
        low = [x.lower() for x in toks]
        n = len(toks)
        c = Counter(low)
        n_alpha = sum(ch.isascii() and ch.isalpha() for ch in (t or ""))
        safe = max(n, 1)
        mean_wl = n_alpha / safe
        dup = 1.0 - len(c) / safe if n else 0.0
        topf = max(c.values()) / safe if n else 0.0
        stop = sum(v for k, v in c.items()
                   if k in {"the", "a", "and", "of", "to", "in", "is",
                            "it", "that", "for"})
        reasons = []
        if n < th["min_tokens"]:
            reasons.append("min_tokens")
        if n > th["max_tokens"]:
            reasons.append("max_tokens")
        if mean_wl < th["min_mean_word_len"] or \
                mean_wl > th["max_mean_word_len"]:
            reasons.append("mean_word_len")
        if dup > th["max_dup_token_frac"]:
            reasons.append("dup_tokens")
        if topf > th["max_top_token_frac"]:
            reasons.append("top_token")
        if stop < th["min_stop_hits"]:
            reasons.append("stopwords")
        out.append((i, n, mean_wl, dup, topf, stop,
                    int(not reasons), ",".join(reasons)))
    return out


@settings(max_examples=60, deadline=None)
@given(texts=st.lists(st.one_of(_doc_text,
                                st.text(alphabet="the a of x\t", max_size=40)),
                      min_size=1, max_size=12),
       min_tokens=st.integers(min_value=0, max_value=6),
       max_dup=st.sampled_from([0.0, 0.25, 0.5, 1.0]),
       min_stop=st.integers(min_value=0, max_value=3))
def test_gopher_kernel_matches_scalar(texts, min_tokens, max_dup, min_stop):
    from gojsonschema_ray.functions.text import _gopher_kernel

    th = dict(min_tokens=min_tokens, max_tokens=8,
              min_mean_word_len=0.5, max_mean_word_len=4.0,
              max_dup_token_frac=max_dup, max_top_token_frac=0.5,
              min_stop_hits=min_stop)
    ids = list(range(len(texts)))
    batch = pa.table({"i": ids, "t": pa.array(texts, pa.string())})
    got = _gopher_kernel(batch, "t", "i", **th).to_pylist()
    want = _scalar_gopher(texts, ids, **th)
    assert [(r["i"], r["n_tokens"], r["mean_word_len"],
             r["dup_token_frac"], r["top_token_frac"],
             r["stop_hits"], r["keep"], r["reasons"]) for r in got] == want


def _scalar_ngram_repetition(texts, top_ns, dup_ns, lowercase=True):
    """Slow per-row reference for _ngram_repetition_kernel: gram chars =
    codepoints of its tokens; denominator = total token codepoints; ties on
    the top gram -> larger chars, then lexicographically smallest gram."""
    from collections import Counter
    out = []
    for i, t in enumerate(texts):
        s = (t or "").strip()
        if lowercase:
            s = s.lower()
        toks = s.split()
        if not toks:
            continue
        total = sum(len(x) for x in toks)
        row = {"i": i, "n_tokens": len(toks)}
        for n in top_ns:
            grams = [" ".join(toks[j:j + n])
                     for j in range(len(toks) - n + 1)]
            if grams:
                c = Counter(grams)
                best = sorted(c.items(),
                              key=lambda kv: (-kv[1],
                                              -(len(kv[0]) - (n - 1)),
                                              kv[0]))[0]
                row[f"top_{n}gram_char_frac"] = \
                    best[1] * (len(best[0]) - (n - 1)) / total
            else:
                row[f"top_{n}gram_char_frac"] = 0.0
        for n in dup_ns:
            grams = [" ".join(toks[j:j + n])
                     for j in range(len(toks) - n + 1)]
            c = Counter(grams)
            dupch = sum(v * (len(k) - (n - 1))
                        for k, v in c.items() if v >= 2)
            row[f"dup_{n}gram_char_frac"] = dupch / total
        out.append(row)
    return out


@settings(max_examples=50, deadline=None)
@given(texts=st.lists(st.one_of(
    _doc_text, st.text(alphabet="ab ", max_size=60)), max_size=10),
    lowercase=st.booleans())
def test_ngram_repetition_kernel_matches_scalar(texts, lowercase):
    from gojsonschema_ray.functions.text import _ngram_repetition_kernel

    top_ns, dup_ns = (2, 3), (2, 5)
    batch = pa.table({"i": list(range(len(texts))),
                      "t": pa.array(texts, pa.string())})
    got = _ngram_repetition_kernel(batch, "t", "i", top_ns, dup_ns,
                                   lowercase).to_pylist()
    want = _scalar_ngram_repetition(texts, top_ns, dup_ns, lowercase)
    assert [{k: r[k] for k in w} for r, w in zip(got, want)] == want \
        and len(got) == len(want)


def _scalar_within_doc_dup_lines(texts, delimiter, min_count):
    """Slow per-row reference for _within_doc_dup_line_kernel: nonempty
    segments of the literal-delimiter split; a segment is duplicated when
    its within-document count reaches min_count (every occurrence counts)."""
    from collections import Counter
    out = []
    for i, t in enumerate(texts):
        if t is None:
            continue
        segs = [s for s in t.split(delimiter) if s]
        if not segs:
            continue
        c = Counter(segs)
        dup = [s for s in segs if c[s] >= min_count]
        out.append({
            "i": i, "n_lines": len(segs), "n_dup_lines": len(dup),
            "dup_line_frac": len(dup) / len(segs),
            "dup_char_frac": sum(map(len, dup)) / sum(map(len, segs)),
        })
    return out


@settings(max_examples=60, deadline=None)
@given(texts=st.lists(st.one_of(
    _doc_text, st.text(alphabet="ab\n", max_size=40)), max_size=10),
    delimiter=st.sampled_from(["\n", " "]),
    min_count=st.integers(min_value=2, max_value=3))
def test_within_doc_dup_line_kernel_matches_scalar(texts, delimiter,
                                                   min_count):
    from gojsonschema_ray.functions.text import _within_doc_dup_line_kernel

    batch = pa.table({"i": list(range(len(texts))),
                      "t": pa.array(texts, pa.string())})
    got = _within_doc_dup_line_kernel(batch, "t", "i", delimiter,
                                      min_count).to_pylist()
    want = _scalar_within_doc_dup_lines(texts, delimiter, min_count)
    assert [(r["i"], r["n_lines"], r["n_dup_lines"], r["dup_line_frac"],
             r["dup_char_frac"]) for r in got] == \
        [(w["i"], w["n_lines"], w["n_dup_lines"], w["dup_line_frac"],
          w["dup_char_frac"]) for w in want]


def _scalar_chunks(texts, max_tokens, stride, lowercase=False):
    """Slow per-row reference for _chunk_kernel: chunk c covers token
    positions [c*stride, c*stride+max_tokens); the last chunk is the first
    whose end reaches the doc; text re-joins tokens with single spaces."""
    out = []
    for i, t in enumerate(texts):
        s = (t or "").strip()
        if lowercase:
            s = s.lower()
        toks = s.split()
        if not toks:
            continue
        c = 0
        while True:
            window = toks[c * stride:c * stride + max_tokens]
            out.append({"i": i, "chunk_id": c, "n_tokens": len(window),
                        "text": " ".join(window)})
            if c * stride + max_tokens >= len(toks):
                break
            c += 1
    return out


@settings(max_examples=60, deadline=None)
@given(texts=st.lists(_doc_text, max_size=8),
       max_tokens=st.integers(min_value=1, max_value=6),
       data=st.data())
def test_chunk_kernel_matches_scalar(texts, max_tokens, data):
    from gojsonschema_ray.functions.text import _chunk_kernel

    stride = data.draw(st.integers(min_value=1, max_value=max_tokens))
    batch = pa.table({"i": list(range(len(texts))),
                      "t": pa.array(texts, pa.string())})
    got = _chunk_kernel(batch, "t", "i", max_tokens, stride,
                        False).to_pylist()
    want = _scalar_chunks(texts, max_tokens, stride)
    assert [(r["i"], r["chunk_id"], r["n_tokens"], r["text"])
            for r in got] == \
        [(w["i"], w["chunk_id"], w["n_tokens"], w["text"]) for w in want]
