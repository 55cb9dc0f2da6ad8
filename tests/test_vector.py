"""Vectorized evaluator must agree with the generic (reference-semantics)
evaluator row by row: the generic path IS the conformance-proven oracle."""

import numpy as np
import pyarrow as pa
import pytest

from gojsonschema_ray.schema import compile_schema
from gojsonschema_ray.stages import TableValidator

CLIPS_RULESET = {
    "type": "object",
    "required": ["clip_id", "sr_hz", "transcript"],
    "properties": {
        "clip_id": {"type": "string", "pattern": "^clip-[0-9a-z-]+$"},
        "sr_hz": {"type": "integer", "enum": [8000, 16000, 22050, 44100, 48000]},
        "dur_ms": {"type": "integer", "exclusiveMinimum": 0, "maximum": 3600000,
                   "multipleOf": 1},
        "codec": {"type": "string", "enum": ["pcm_s16le", "wav"]},
        "transcript": {"type": "string", "minLength": 1, "maxLength": 10000},
        "tags": {"type": "array", "items": {"type": "string", "minLength": 2},
                 "uniqueItems": True},
        "ratio": {"type": "number", "multipleOf": 0.0001},
        "meta": {"type": "object", "required": ["lang"],
                 "properties": {"lang": {"type": "string", "minLength": 2}}},
    },
}


def _rows_to_table(rows: list[dict], schema: pa.Schema | None = None) -> pa.Table:
    cols = {}
    keys = sorted({k for r in rows for k in r})
    for k in keys:
        cols[k] = [r.get(k) for r in rows]
    return pa.table(cols) if schema is None else pa.table(cols, schema=schema)


def _generic_verdicts(tree, rows):
    out = []
    for r in rows:
        doc = {k: v for k, v in r.items() if v is not None}
        out.append(tree.validate(doc).valid())
    return out


ROWS = [
    {"clip_id": "clip-0", "sr_hz": 16000, "dur_ms": 100, "codec": "wav",
     "transcript": "hello", "tags": ["ab", "cd"], "ratio": 0.0075,
     "meta": {"lang": "en"}},
    {"clip_id": "CLIPX", "sr_hz": 7000, "dur_ms": 0, "codec": "mp3???",
     "transcript": "", "tags": ["a"], "ratio": 0.00015, "meta": {"lang": "e"}},
    {"clip_id": "clip-2", "sr_hz": 44100, "dur_ms": 500, "codec": "pcm_s16le",
     "transcript": "ok", "tags": None, "ratio": None, "meta": None},
    {"clip_id": None, "sr_hz": 48000, "dur_ms": 3600001, "codec": "wav",
     "transcript": "x", "tags": ["ab", "ab"], "ratio": 0.0002, "meta": {"lang": "fr"}},
    {"clip_id": "clip-4", "sr_hz": 8000, "dur_ms": 250, "codec": "wav",
     "transcript": None, "tags": [], "ratio": 0.00033, "meta": {"lang": None}},
]


def test_vector_matches_generic_on_clips_ruleset():
    tree = compile_schema(CLIPS_RULESET)
    table = _rows_to_table(ROWS)
    mask, viol = TableValidator(tree, key_column="clip_id").validate_batch(table)
    expected = _generic_verdicts(tree, ROWS)
    assert mask.tolist() == expected
    # every invalid row has at least one violation row
    bad_keys = set(viol["key"].to_pylist())
    assert len(bad_keys) > 0


@pytest.mark.parametrize("schema,column", [
    ({"properties": {"v": {"minimum": 5}}}, [1, 5, 7, None, -3]),
    ({"properties": {"v": {"exclusiveMinimum": 5}}}, [5, 6, None, 4]),
    ({"properties": {"v": {"maximum": 2.5}}}, [2.4, 2.5, 2.6, None]),
    ({"properties": {"v": {"multipleOf": 3}}}, [0, 3, 7, -9, None]),
    ({"properties": {"v": {"multipleOf": 0.01}}}, [0.02, 0.005, 1.0, None]),
    ({"properties": {"v": {"minLength": 2, "maxLength": 4}}}, ["a", "ab", "abcd", "abcde", None]),
    ({"properties": {"v": {"pattern": "^a+$"}}}, ["aaa", "aab", "", None]),
    ({"properties": {"v": {"enum": [1, 2, 3]}}}, [1, 4, None, 3]),
    ({"properties": {"v": {"const": 7}}}, [7, 8, None]),
    ({"properties": {"v": {"type": "integer"}}}, [1.0, 1.5, 2.0, None]),
    ({"properties": {"v": {"format": "uuid"}}},
     ["2eb8aa08-aa98-11ea-b4aa-73b441d16380", "nope", None]),
    ({"properties": {"v": {"format": "date"}}}, ["2020-01-01", "2020-13-01", "x", None]),
    ({"properties": {"v": {"anyOf": [{"minimum": 10}, {"maximum": 2}]}}},
     [1, 5, 11, None]),
    ({"properties": {"v": {"oneOf": [{"minimum": 5}, {"maximum": 8}]}}},
     [4, 6, 9, None]),
    ({"properties": {"v": {"not": {"minimum": 5}}}}, [4, 5, None]),
    ({"properties": {"v": {"allOf": [{"minimum": 2}, {"maximum": 5}]}}},
     [1, 3, 6, None]),
    ({"$schema": "http://json-schema.org/draft-07/schema#",
      "properties": {"v": {"if": {"minimum": 5}, "then": {"multipleOf": 2},
                           "else": {"multipleOf": 3}}}}, [6, 7, 3, 4, None]),
    ({"properties": {"v": {"items": {"minimum": 0}, "minItems": 1,
                           "contains": {"minimum": 10}}}},
     [[1, 2, 10], [1, 2], [], [-1, 10], None]),
    ({"properties": {"v": {"items": [{"minimum": 5}, {"maximum": 2}],
                           "additionalItems": {"const": 9}}}},
     [[6, 1], [6, 1, 9], [6, 1, 8], [4], [], None]),
    ({"properties": {"v": {"uniqueItems": True}}},
     [[1, 2], [1, 1], [], [1.0, 2], None]),
])
def test_vector_matches_generic_scalar_keywords(schema, column):
    schema = {"type": "object", **schema}
    tree = compile_schema(schema)
    rows = [{"v": v} for v in column]
    table = _rows_to_table(rows)
    mask, _ = TableValidator(tree).validate_batch(table)
    assert mask.tolist() == _generic_verdicts(tree, rows), (
        f"schema={schema} col={column}"
    )


def test_uniqueitems_numeric_cross_type():
    # [1.0, 1] is NOT unique under canonical-JSON equality
    tree = compile_schema({"type": "object",
                           "properties": {"v": {"uniqueItems": True}}})
    table = pa.table({"v": pa.array([[1.0, 1.00001], [2.5, 2.5]],
                                    type=pa.list_(pa.float64()))})
    mask, _ = TableValidator(tree).validate_batch(table)
    assert mask.tolist() == [True, False]


def test_additional_properties_false_on_columns():
    tree = compile_schema({
        "type": "object",
        "properties": {"a": {"type": "integer"}},
        "additionalProperties": False,
    })
    table = pa.table({"a": [1, 2], "b": ["x", None]})
    mask, viol = TableValidator(tree).validate_batch(table)
    assert mask.tolist() == [False, True]
    assert "additional_property_not_allowed" in set(viol["keyword"].to_pylist())


def test_dependencies_on_columns():
    tree = compile_schema({
        "type": "object",
        "dependencies": {"credit_card": ["billing_address"]},
    })
    table = pa.table({"credit_card": [1234, None, 5678],
                      "billing_address": ["a st", "b st", None]})
    mask, _ = TableValidator(tree).validate_batch(table)
    assert mask.tolist() == [True, True, False]


def test_anyof_best_branch_attribution():
    """Failed anyOf rows name the closest (highest-scoring) branch, the
    vectorized analog of the reference's score-ranked error merge."""
    import numpy as np
    import pyarrow as pa

    from gojsonschema_ray.schema import compile_schema
    from gojsonschema_ray.stages.validate import TableValidator

    tree = compile_schema({
        "type": "object",
        "properties": {"x": {"anyOf": [
            {"minimum": 0, "maximum": 10},                       # branch 0
            {"minimum": 100, "maximum": 110, "multipleOf": 3},   # branch 1
        ]}},
    })
    tv = TableValidator(tree, key_column=None, mode="violations")
    batch = pa.table({"x": pa.array([5, 99, -1], type=pa.int64())})
    viol = tv(batch)
    by_key = {r["key"]: r["expected"] for r in viol.to_pylist()}
    # 99: branch 1 passes 2 checks (maximum, multipleOf) vs branch 0's 1
    # -1: ties at 1 check each -> first branch wins deterministically
    assert "branch 1" in by_key["1"]
    assert "branch 0" in by_key["2"]
    assert "0" not in by_key  # x=5 valid, no violation


def test_root_combinator_non_object_branch():
    """Root anyOf/not with a non-object branch must evaluate (branch fails
    per row), not crash the pipeline."""
    import numpy as np
    import pyarrow as pa

    from gojsonschema_ray.schema import compile_schema
    from gojsonschema_ray.stages.validate import TableValidator

    batch = pa.table({"x": pa.array([1, 20], type=pa.int64())})
    tree = compile_schema({"anyOf": [
        {"type": "object", "properties": {"x": {"maximum": 10}}},
        {"type": "string"},
    ]})
    tv = TableValidator(tree, key_column=None, emit_violations=False)
    mask, _ = tv.validate_batch(batch)
    assert mask.tolist() == [True, False]

    tree2 = compile_schema({"not": {"type": "string"}})
    tv2 = TableValidator(tree2, key_column=None, emit_violations=False)
    mask2, _ = tv2.validate_batch(batch)
    assert mask2.tolist() == [True, True]  # rows are objects, never strings


def test_uniqueitems_null_elements_and_big_ints():
    """uniqueItems: null elements must not crash string lists; int64 values
    past 2^53 must not collide via a float cast."""
    import pyarrow as pa

    from gojsonschema_ray.schema import compile_schema
    from gojsonschema_ray.stages.validate import TableValidator

    tree = compile_schema({"type": "object",
                           "properties": {"l": {"uniqueItems": True}}})
    tv = TableValidator(tree, key_column=None, emit_violations=False)
    sbatch = pa.table({"l": pa.array(
        [["a", None, "b"], ["a", None, None], ["x", "x"]],
        type=pa.list_(pa.string()))})
    mask, _ = tv.validate_batch(sbatch)
    assert mask.tolist() == [True, False, False]

    big = 9007199254740992  # 2^53
    ibatch = pa.table({"l": pa.array([[big, big + 1], [big, big]],
                                     type=pa.list_(pa.int64()))})
    mask2, _ = tv.validate_batch(ibatch)
    assert mask2.tolist() == [True, False]


def test_multipleof_large_int_no_overflow():
    """multipleOf with a fractional divisor must not wrap int64 products."""
    import pyarrow as pa

    from gojsonschema_ray.schema import compile_schema
    from gojsonschema_ray.stages.validate import TableValidator

    v = 3 * 2**49  # true multiple of 3e-06, product v*1e6 overflows int64
    tree = compile_schema({"type": "object",
                           "properties": {"x": {"multipleOf": 3e-06}}})
    tv = TableValidator(tree, key_column=None, emit_violations=False)
    batch = pa.table({"x": pa.array([v], type=pa.int64())})
    mask, _ = tv.validate_batch(batch)
    assert mask.tolist() == [True]


def test_false_subschema_absent_passes():
    """{"properties": {"bar": false}}: rows WITHOUT bar are valid (absent
    property never meets the false schema); rows with bar fail."""
    tree = compile_schema({"type": "object", "properties": {"bar": False}},
                          draft=6)
    mask, _ = TableValidator(tree, emit_violations=False).validate_batch(
        pa.table({"bar": pa.array([None, "x"], type=pa.string())}))
    assert mask.tolist() == [True, False]


def test_uniqueitems_nulls_keep_int_exactness():
    """A null element must not demote int64 lists to float64 (2^53 collision)."""
    tree = compile_schema({"type": "object",
                           "properties": {"l": {"uniqueItems": True}}})
    big = 9007199254740992
    batch = pa.table({"l": pa.array([[big, big + 1, None]],
                                    type=pa.list_(pa.int64()))})
    mask, _ = TableValidator(tree, emit_violations=False).validate_batch(batch)
    assert mask.tolist() == [True]


def test_nested_struct_object_keywords():
    """additionalProperties / min-maxProperties / dependencies apply inside
    struct columns, not just at the table root."""
    tree = compile_schema({
        "type": "object",
        "properties": {"o": {
            "type": "object",
            "properties": {"a": {"type": "integer"}},
            "additionalProperties": False,
        }},
    })
    batch = pa.table({"o": pa.array(
        [{"a": 1, "extra": None}, {"a": 2, "extra": "boom"}],
        type=pa.struct([("a", pa.int64()), ("extra", pa.string())]))})
    mask, viol = TableValidator(tree).validate_batch(batch)
    assert mask.tolist() == [True, False]
    assert "additional_property_not_allowed" in set(viol["keyword"].to_pylist())

    tree2 = compile_schema({
        "type": "object",
        "properties": {"o": {"type": "object", "minProperties": 2}},
    })
    batch2 = pa.table({"o": pa.array(
        [{"a": 1, "b": None}, {"a": 1, "b": 2}],
        type=pa.struct([("a", pa.int64()), ("b", pa.int64())]))})
    mask2, _ = TableValidator(tree2, emit_violations=False).validate_batch(batch2)
    assert mask2.tolist() == [False, True]


def test_null_list_elements_are_json_nulls():
    """contains/items see null ELEMENTS as JSON null values, not absences."""
    tree = compile_schema({"type": "object",
                           "properties": {"l": {"contains": {"type": "string"}}}})
    batch = pa.table({"l": pa.array([[None], ["ok"]], type=pa.list_(pa.string()))})
    mask, _ = TableValidator(tree, emit_violations=False).validate_batch(batch)
    assert mask.tolist() == [False, True]

    tree2 = compile_schema({"type": "object",
                            "properties": {"l": {"items": {"type": "string"}}}})
    mask2, _ = TableValidator(tree2, emit_violations=False).validate_batch(batch)
    assert mask2.tolist() == [False, True]


def test_multipleof_int_column_with_nulls():
    """Nulls in an int64 column must not float-demote exact multipleOf."""
    tree = compile_schema({"type": "object",
                           "properties": {"x": {"multipleOf": 2}}})
    big_odd = 9007199254740993  # 2^53 + 1, rounds even in float64
    batch = pa.table({"x": pa.array([big_odd, None], type=pa.int64())})
    mask, _ = TableValidator(tree, emit_violations=False).validate_batch(batch)
    assert mask.tolist() == [False, True]


def test_ref_root_non_object_rejected():
    """A $ref root to a non-object schema is rejected like the direct form."""
    tree = compile_schema({"definitions": {"s": {"type": "string"}},
                           "$ref": "#/definitions/s"})
    with pytest.raises(ValueError):
        TableValidator(tree)


# ---------------------------------------------------------------------------
# one object evaluator: the table root is a struct like any nested object
# ---------------------------------------------------------------------------

def _present(v):
    """A row dict as the document it stands for: NULL fields are absent."""
    if isinstance(v, dict):
        return {k: _present(x) for k, x in v.items() if x is not None}
    return v


def _generic_multiset(tree, rows, keys=None):
    from collections import Counter

    keys = keys if keys is not None else [str(i) for i in range(len(rows))]
    return Counter((k, e.type, e.context) for k, r in zip(keys, rows)
                   for e in tree.validate(_present(r)).errors)


def _vector_multiset(viol, with_expected=False):
    from collections import Counter

    cols = ["key", "keyword", "path"] + (["expected"] if with_expected else [])
    return Counter(zip(*(viol[c].to_pylist() for c in cols)))


def test_condition_else_label_matches_generic():
    """An else-branch failure is `condition_else`, at the root and on a
    column. The generic engine also merges the failing branch's errors; the
    vector engine reports the label only, so the labels are compared."""
    rows = [{"x": 4}, {"x": 6}, {"x": 7}, {"x": 9}, {"x": 5}, {"x": None}]
    table = pa.table({"x": pa.array([r["x"] for r in rows], pa.int64())})
    for schema in (
        {"if": {"properties": {"x": {"minimum": 5}}},
         "then": {"properties": {"x": {"multipleOf": 2}}},
         "else": {"properties": {"x": {"multipleOf": 3}}}},
        {"properties": {"x": {"if": {"minimum": 5}, "then": {"multipleOf": 2},
                              "else": {"multipleOf": 3}}}},
    ):
        tree = compile_schema({"type": "object", **schema}, draft=7)
        got = _vector_multiset(TableValidator(tree, mode="violations")(table))
        want = _generic_multiset(tree, rows)
        cond = {k: c for k, c in want.items() if k[1].startswith("condition_")}
        assert {k: c for k, c in got.items()
                if k[1].startswith("condition_")} == cond
        assert sorted(k[:2] for k in cond) == [("0", "condition_else"),
                                              ("2", "condition_then"),
                                              ("3", "condition_then"),
                                              ("4", "condition_then")]


@pytest.mark.parametrize("schema", [
    # root allOf
    {"allOf": [{"required": ["a"]},
               {"properties": {"b": {"maximum": 3}}},
               {"properties": {"a": {"minimum": 0}}}]},
    # allOf on a scalar column
    {"properties": {"b": {"allOf": [{"minimum": 0}, {"multipleOf": 2}]}}},
    # allOf inside a nested struct
    {"properties": {"o": {"type": "object", "allOf": [
        {"required": ["p"]}, {"properties": {"q": {"maximum": 1}}}]}}},
])
def test_all_of_matches_generic(schema):
    """Every failing branch's errors plus one number_all_of, at every depth."""
    rows = [{"a": 1, "b": 2, "o": {"p": 1, "q": 1}},
            {"a": None, "b": 5, "o": {"p": None, "q": 2}},
            {"a": -1, "b": -4, "o": None},
            {"a": 2, "b": 3, "o": {"p": None, "q": None}}]
    table = pa.table({
        "a": pa.array([r["a"] for r in rows], pa.int64()),
        "b": pa.array([r["b"] for r in rows], pa.int64()),
        "o": pa.array([r["o"] for r in rows],
                      pa.struct([("p", pa.int64()), ("q", pa.int64())]))})
    tree = compile_schema({"type": "object", **schema})
    viol = TableValidator(tree, mode="violations")(table)
    got = _vector_multiset(viol)
    assert got == _generic_multiset(tree, rows)
    assert any(k[1] == "number_all_of" for k in got)


def test_enum_const_ignore_null_struct_fields():
    """A NULL struct field is an absent property in enum/const at every
    depth; NULL list elements stay JSON nulls."""
    struct = pa.struct([("a", pa.int64()), ("b", pa.int64())])
    tree = compile_schema({"type": "object",
                           "properties": {"o": {"enum": [{"a": 1}]}}})
    batch = pa.table({"o": pa.array([{"a": 1, "b": None}, {"a": 1, "b": 2}],
                                    struct)})
    mask, _ = TableValidator(tree, emit_violations=False).validate_batch(batch)
    assert mask.tolist() == [True, False]
    assert [tree.check({"o": {"a": 1}}), tree.check({"o": {"a": 1, "b": 2}})] \
        == [True, False]

    inner = pa.struct([("c", pa.int64()), ("d", pa.int64())])
    nested = pa.struct([("a", inner), ("l", pa.list_(pa.int64()))])
    tree2 = compile_schema({"type": "object", "properties": {
        "o": {"const": {"a": {"c": 1}, "l": [None, 1]}}}})
    batch2 = pa.table({"o": pa.array(
        [{"a": {"c": 1, "d": None}, "l": [None, 1]},
         {"a": {"c": 1, "d": None}, "l": [1]},
         {"a": {"c": 1, "d": 0}, "l": [None, 1]}], nested)})
    mask2, _ = TableValidator(tree2, emit_violations=False).validate_batch(batch2)
    assert mask2.tolist() == [True, False, False]


def test_json_fast_path_root_enum_ignores_filled_nulls():
    """Polars fills a key missing from one document with null; the root
    enum must still see `{"a": 1}`, as the generic engine does."""
    import json

    from gojsonschema_ray.sources.jsonl import (JsonColumnValidator,
                                                JsonStructValidator)

    tree = compile_schema({"enum": [{"a": 1}, {"a": 1, "b": 2}]})
    docs = [{"a": 1}, {"a": 1, "b": 2}, {"a": 2}, {"b": 2}]
    batch = pa.table({"id": [f"d{i}" for i in range(len(docs))],
                      "doc": [json.dumps(d) for d in docs]})
    fast = JsonStructValidator(tree, "doc", "id")(batch)
    generic = JsonColumnValidator(tree, "doc", "id")(batch)
    assert _vector_multiset(fast) == _vector_multiset(generic)
    assert sorted(fast["key"].to_pylist()) == ["d2", "d3"]


def test_root_false_schema_flags_every_row():
    """A root `false` schema fails every row (they are present objects),
    with one `false` violation per row; a zero-column batch is n rows of
    the empty object."""
    tree = compile_schema(False)
    batch = pa.table({"id": ["a", "b", "c"], "v": [1, None, 3]})
    viol = TableValidator(tree, key_column="id", mode="violations")(batch)
    assert sorted(zip(viol["key"].to_pylist(), viol["keyword"].to_pylist(),
                      viol["path"].to_pylist())) == \
        [(k, "false", "(root)") for k in "abc"]
    mask, _ = TableValidator(tree).validate_batch(batch)
    assert mask.tolist() == [False] * 3

    empty = batch.drop_columns(["id", "v"])
    assert empty.num_rows == 3
    mask, viol = TableValidator(compile_schema(
        {"type": "object", "required": ["id"]})).validate_batch(empty)
    assert mask.tolist() == [False] * 3
    assert viol["keyword"].to_pylist() == ["required"] * 3


PARITY_RULESET = {
    "type": "object",
    "required": ["id", "kind"],
    "properties": {
        "id": {"type": "integer"},
        "kind": {"enum": ["a", "b", "c"]},
        "qty": {"type": "integer", "minimum": 0},
        "card": {"type": "string"},
        "addr": {"type": "string", "minLength": 2},
        "meta": {"type": "object", "required": ["owner"],
                 "properties": {"owner": {"type": "string", "minLength": 2},
                                "level": {"type": "integer", "maximum": 9}},
                 "additionalProperties": False},
    },
    "additionalProperties": False,
    "anyOf": [{"required": ["qty"]}, {"required": ["card"]}],
    "oneOf": [{"properties": {"kind": {"const": "a"}}},
              {"properties": {"qty": {"maximum": 5}}}],
    "if": {"properties": {"kind": {"const": "b"}}},
    "then": {"required": ["addr"]},
    "else": {"properties": {"qty": {"maximum": 100}}},
    "dependencies": {"card": ["addr"]},
}


def _parity_rows():
    rng = np.random.default_rng(5)
    rows = []
    for i in range(400):
        r = {"id": i,
             "kind": ["a", "b", "c", "z", None][rng.integers(0, 5)],
             "qty": [None, 3, 50, 200, -1][rng.integers(0, 5)],
             "card": [None, "4111"][rng.integers(0, 2)],
             "addr": [None, "x", "main st"][rng.integers(0, 3)],
             "meta": [None, {"owner": "ann", "level": 3, "extra": None},
                      {"owner": "b", "level": 12, "extra": None},
                      {"owner": None, "level": None, "extra": "boom"}
                      ][rng.integers(0, 4)],
             "extra": [None, None, None, "stray"][rng.integers(0, 4)]}
        rows.append(r)
    return rows


def test_table_and_json_paths_agree():
    """One ruleset (root required, anyOf, oneOf, if/else, dependencies,
    additionalProperties, a nested struct) through TableValidator on a
    typed table and through JsonStructValidator on the same rows as JSON:
    the same (key, keyword, path, expected) multiset."""
    import json

    from gojsonschema_ray.sources.jsonl import JsonStructValidator

    tree = compile_schema(PARITY_RULESET)
    rows = _parity_rows()
    meta = pa.struct([("owner", pa.string()), ("level", pa.int64()),
                      ("extra", pa.string())])
    schema = pa.schema([("id", pa.int64()), ("kind", pa.string()),
                        ("qty", pa.int64()), ("card", pa.string()),
                        ("addr", pa.string()), ("meta", meta),
                        ("extra", pa.string())])
    table = pa.table({f.name: pa.array([r[f.name] for r in rows], f.type)
                      for f in schema})
    docs = pa.table({"id": [r["id"] for r in rows],
                     "doc": [json.dumps(_present(r)) for r in rows]})
    typed = TableValidator(tree, key_column="id", mode="violations")
    fast = JsonStructValidator(tree, "doc", "id")
    for lo in range(0, len(rows), 128):
        t, d = table.slice(lo, 128), docs.slice(lo, 128)
        got_t = _vector_multiset(typed(t), with_expected=True)
        got_j = _vector_multiset(fast(d), with_expected=True)
        assert got_t == got_j
    kws = {k[1] for k in _vector_multiset(typed(table))}
    assert {"required", "number_any_of", "number_one_of", "condition_then",
            "condition_else", "missing_dependency",
            "additional_property_not_allowed"} <= kws
