"""Tests of the benchmark itself (no Ray session needed):

    python3 -m pytest perfbench -q -p no:cacheprovider
"""

from __future__ import annotations

import json
import os
from collections import Counter

import duckdb
import pyarrow as pa
import pytest

from perfbench import run, workloads
from perfbench.jobs import Outcome
from perfbench.trace import Tracer

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))


def _violations(table_validator, table: pa.Table) -> Outcome:
    out = Outcome(table_validator.key_column)
    out.add(table_validator(table))
    return out


@pytest.mark.parametrize("name", ["rows_clean", "rows_dirty"])
def test_rows_generator_deterministic_per_seed(name):
    spec = workloads.SPECS[name]
    kw = dict(bad_rate=spec.bad_rate, dup_rate=spec.dup_rate, hot_rate=spec.hot_rate)
    a = workloads.rows_table(5, 4000, **kw)
    b = workloads.rows_table(5, 4000, **kw)
    c = workloads.rows_table(6, 4000, **kw)
    assert a[0].equals(b[0]) and a[1] == b[1] and a[2] == b[2]
    assert not a[0].equals(c[0])


def test_json_and_clips_generators_deterministic_per_seed():
    a, b = workloads.json_table(5, 3000), workloads.json_table(5, 3000)
    assert a[0].equals(b[0]) and a[1] == b[1]
    assert not a[0].equals(workloads.json_table(6, 3000)[0])
    assert workloads.clips_oracle(workloads.clips_offset(5), 2000) == \
        workloads.clips_oracle(workloads.clips_offset(5), 2000)
    assert workloads.clips_offset(5) != workloads.clips_offset(6)


def test_rows_oracle_matches_duckdb_counts():
    """Every injected fault, counted independently with SQL."""
    table, expected, dups = workloads.rows_table(
        7, 20_000, bad_rate=0.3, dup_rate=0.03, hot_rate=0.002)
    q = {  # (keyword, path) -> predicate over one row
        ("number_gte", "(root).l_quantity"): "l_quantity < 1",
        ("number_lte", "(root).l_quantity"): "l_quantity > 50",
        ("number_gt", "(root).l_extendedprice"): "l_extendedprice <= 0",
        ("multiple_of", "(root).l_discount"): "l_discount = 0.015",
        ("multiple_of", "(root).l_partkey"): "l_partkey % 7 <> 0",
        ("enum", "(root).l_returnflag"): "l_returnflag NOT IN ('A','N','R')",
        ("const", "(root).l_currency"): "l_currency <> 'USD'",
        ("required", "(root)"): "l_linestatus IS NULL",
        ("pattern", "(root).l_shipinstruct"):
            "NOT regexp_matches(l_shipinstruct, '^[A-Z ]+$')",
        ("string_gte", "(root).l_comment"): "length(l_comment) < 5",
        ("string_lte", "(root).l_comment"): "length(l_comment) > 44",
        ("format", "(root).l_shipdate"): "try_strptime(l_shipdate, '%Y-%m-%d') IS NULL",
        ("array_min_items", "(root).l_tags"): "len(l_tags) < 1",
        ("array_max_items", "(root).l_tags"): "len(l_tags) > 4",
        ("items", "(root).l_tags"): "list_contains(l_tags, 'broken')",
        ("unique", "(root).l_tags"):
            "len(l_tags) > 0 AND len(list_distinct(l_tags)) < len(l_tags)",
        ("required", "(root).l_dims"): "l_dims.weight IS NULL",
        ("enum", "(root).l_dims.unit"): "l_dims.unit NOT IN ('kg','lb')",
        ("number_any_of", "(root)"):
            "l_receiptdate IS NULL AND l_commitdate IS NULL",
        ("condition_then", "(root)"): "l_returnflag = 'R' AND l_tax < 0.02",
    }
    con = duckdb.connect()
    con.register("t", table)
    got = Counter()
    for key, pred in q.items():
        got[key] += con.execute(f"SELECT count(*) FROM t WHERE {pred}").fetchone()[0]
    assert +got == expected
    sql_dups = dict(con.execute(
        "SELECT l_id, count(*) FROM t GROUP BY l_id HAVING count(*) > 1").fetchall())
    assert sql_dups == dups and dups[workloads.HOT_KEY] == 40


def test_json_oracle_matches_pyarrow_counts():
    table, expected, _ = workloads.json_table(7, 8192)
    malformed = 0
    for s in table["doc"].to_pylist():
        try:
            json.loads(s)
        except ValueError:
            malformed += 1
    assert malformed == expected[("invalid_json", "(root)")] >= 1
    # one malformed document per chosen chunk, never more
    chunks = [table.slice(i, workloads.JSON_DOCS_PER_FILE)
              for i in range(0, table.num_rows, workloads.JSON_DOCS_PER_FILE)]
    assert all(sum(not _parses(s) for s in c["doc"].to_pylist()) <= 1 for c in chunks)


def _parses(s):
    try:
        json.loads(s)
        return True
    except ValueError:
        return False


def test_clips_oracle_matches_pyarrow_counts():
    from gojsonschema_ray import datagen
    import pyarrow.compute as pc

    off, n = workloads.clips_offset(3), 3000
    exp, dups = workloads.clips_oracle(off, n)
    t = datagen.clips_batch(off, n, workloads.CLIPS_CAP_MS, with_audio=False)
    assert exp[("enum", "(root).sr_hz")] == pc.sum(pc.invert(pc.is_in(
        t["sr_hz"], pa.array(datagen.SR_CYCLE, pa.int32())))).as_py()
    assert exp[("number_gt", "(root).dur_ms")] == pc.sum(pc.equal(t["dur_ms"], 0)).as_py()
    assert exp[("required", "(root)")] == t["transcript"].null_count
    ids = Counter(t["clip_id"].to_pylist())
    assert dups == {k: c for k, c in ids.items() if c > 1}


@pytest.mark.parametrize("name", ["rows_clean", "rows_dirty", "json_docs"])
def test_engine_matches_oracle_in_process(name):
    """The validator, run in this process, reports exactly the oracle."""
    from gojsonschema_ray import compile_schema
    from gojsonschema_ray.sources.jsonl import JsonStructValidator
    from gojsonschema_ray.stages.validate import TableValidator

    spec = workloads.SPECS[name]
    if spec.kind == "json":
        table, expected, _ = workloads.json_table(9, 4096)
        v = JsonStructValidator(compile_schema(spec.ruleset), "doc", spec.key)
    else:
        table, expected, _ = workloads.rows_table(9, 6000, bad_rate=spec.bad_rate)
        v = TableValidator(compile_schema(spec.ruleset), key_column=spec.key,
                           mode="violations")
    out = Outcome(spec.key)
    for i in range(0, table.num_rows, 2048):
        out.add(v(table.slice(i, 2048)))
    assert out.counts == expected


def test_family_rulesets_split_the_rows_ruleset():
    fams = {f: workloads.family_ruleset(workloads.ROWS_RULESET, f)
            for f in workloads.FAMILIES}
    assert all(fams.values())
    assert set(fams["combinator"]) == {"anyOf", "if", "then", "else"}
    assert set(fams["pattern"]["properties"]) == {"l_id", "l_shipinstruct"}
    assert workloads.family_ruleset({"properties": {"a": {"type": "string"}}},
                                    "format") is None


def test_metric_names_match_benchmark_json():
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        spec = json.load(f)
    assert {m["name"]: m["unit"] for m in spec["end_to_end"]} == run.END_TO_END
    assert {m["name"]: m["unit"] for m in spec["per_layer"]} == run.PER_LAYER
    assert {w["name"] for w in spec["workloads"]} <= set(workloads.SPECS)


def test_self_time_subtracts_children():
    tr = Tracer()
    tr.job = "j"
    with tr.span("outer") as o:
        with tr.span("inner") as i:
            pass
    selfs = tr.self_times("j")
    assert selfs["outer"] == pytest.approx(
        (o["end"] - o["start"]) - (i["end"] - i["start"]))
    assert i["parent"] == 0 and o["parent"] is None


def test_instrument_restores_the_wrapped_function():
    import types

    mod = types.SimpleNamespace(f=lambda x: x + 1)
    orig = mod.f
    tr = Tracer()
    with tr.instrument(mod, "f", "mod.f"):
        assert mod.f(1) == 2
    assert mod.f is orig and [s["name"] for s in tr.spans] == ["mod.f"]
