"""JSON document sources — the reference's loader family re-expressed for
Ray Data (SURVEY.md §2.1: jsonReferenceLoader / jsonStringLoader /
jsonGoLoader, jsonLoader.go:97-313).

Schemas stay DRIVER-side (small, loaded once, compiled once); this module is
about DATA: newline-delimited JSON corpora validated at table scale.

Three paths:
- ``read_jsonl``: `ray.data.read_json` — Arrow-native when documents are
  tabular (columns become typed Arrow columns → the vectorized
  TableValidator path applies).
- ``validate_jsonl_column_fast``: a string column of homogeneous documents
  decodes to one Arrow struct column, validated by the same vectorized
  evaluate-and-assemble call as a table (``stages.validate.evaluate_rows``).
- ``validate_jsonl_column``: documents that are too heterogeneous for a
  fixed Arrow schema ride as raw strings and are checked per batch by the
  GENERIC engine (exact big-Rat-parity numerics via Fraction parsing) —
  the per-document semantics of the reference, distributed by map_batches.
"""

from __future__ import annotations

import pyarrow as pa


def read_jsonl(path: str, **kwargs):
    """Newline-delimited JSON → typed Dataset (Arrow JSON reader)."""
    import ray.data as rd

    return rd.read_json(path, **kwargs)


class JsonColumnValidator:
    """map_batches payload: parse a string column as JSON per row and
    validate with a compiled tree (generic engine — used when documents
    cannot be a fixed Arrow schema). Emits the standard violations table.

    The compiled tree ships once in the closure; parsing uses
    ``parse_json`` (Fraction numerics) so `multipleOf`/`enum` semantics
    match the reference's math/big.Rat model exactly."""

    def __init__(self, tree, column: str, key_column: str | None = None):
        self.tree = tree
        self.column = column
        self.key_column = key_column

    def __call__(self, batch: pa.Table) -> pa.Table:
        from ..schema import parse_json
        from ..stages.validate import VIOLATION_SCHEMA

        docs = batch[self.column].to_pylist()
        keys = (batch[self.key_column].to_pylist()
                if self.key_column and self.key_column in batch.column_names
                else list(range(len(docs))))
        rows: list[tuple] = []
        for key, s in zip(keys, docs):
            if s is None:
                rows.append((str(key), "required", "(root)",
                             f"document in {self.column}", ""))
                continue
            try:
                doc = parse_json(s)
            except Exception as e:  # noqa: BLE001 — malformed JSON is a violation
                rows.append((str(key), "invalid_json", "(root)",
                             "parseable JSON", type(e).__name__))
                continue
            res = self.tree.validate(doc)
            for err in res.errors:
                rows.append((str(key), err.type, err.context,
                             err.describe(), str(err.value)[:128]))
        if not rows:
            return VIOLATION_SCHEMA.empty_table()
        cols = list(zip(*rows))
        return pa.table([pa.array(list(c), pa.string()) for c in cols],
                        schema=VIOLATION_SCHEMA)


def validate_jsonl_column(ds, tree, column: str, key_column: str | None = None):
    """Violations Dataset for a string column of JSON documents."""
    return ds.map_batches(JsonColumnValidator(tree, column, key_column),
                          batch_format="pyarrow")


class JsonStructValidator:
    """FAST path for homogeneous JSON columns: decode the whole batch to one
    Arrow struct column (polars ``str.json_decode`` — vectorized Rust), then
    run the vectorized evaluator on it through ``evaluate_rows``, the call
    TableValidator makes on a table's rows; one evaluator lives as long as
    this payload. ~50-100x the per-row generic path.

    When the batch does not decode, only the rows that ``parse_json``
    rejects go to the generic engine (JsonColumnValidator: `invalid_json`
    plus the exception name); every other row is decoded and validated
    once on the fast path. If no row is rejected, or the rest still does
    not decode (JSON polars cannot type, e.g. an array or string document
    next to objects), the whole batch goes to the generic engine. Keys of
    a key-less call are positions in the batch.

    Semantics caveat vs the generic path (documented, deliberate): numbers
    decode to int64/float64, so `multipleOf`/`enum` use float equality, not
    exact rationals. Polars widens a field whose values mix kinds (a number
    next to a string, or an integer beyond 64 bits) to String, so a numeric
    field of such a batch reports `invalid_type` on every row: schema
    ``{"properties": {"k": {"type": "integer", "minimum": 0}}}`` over
    ``{"k": 3}``, ``{"k": 123456789012345678901234567890}``, ``{"k": -1}``
    gives 3 `invalid_type` rows where the generic engine gives one
    `number_gte` on the third. Use JsonColumnValidator when exact big.Rat
    parity or heterogeneous rows matter."""

    def __init__(self, tree, column: str, key_column: str | None = None):
        from ..stages.validate import VectorEvaluator

        self.tree = tree
        self.column = column
        self.key_column = key_column
        self.ev = VectorEvaluator()

    def __call__(self, batch: pa.Table) -> pa.Table:
        try:
            arr = self._decode(batch)
        except Exception:  # noqa: BLE001 — malformed rows somewhere in batch
            return self._split_fallback(batch)
        return self._evaluate(batch, arr, self.key_column)

    def _split_fallback(self, batch: pa.Table) -> pa.Table:
        import numpy as np

        from ..schema import parse_json

        generic = JsonColumnValidator(self.tree, self.column, self.key_column)
        n = batch.num_rows
        ok = np.ones(n, dtype=bool)
        for i, s in enumerate(batch[self.column].to_pylist()):
            if s is None:
                continue
            try:
                parse_json(s)
            except Exception:  # noqa: BLE001 — the generic engine reports it
                ok[i] = False
        if ok.all() or not ok.any():
            return generic(batch)
        if self.key_column and self.key_column in batch.column_names:
            key = self.key_column
            keyed = batch.select([self.column, key])
        else:  # both halves key their rows by position in this batch
            key = self.column + "#pos"
            keyed = pa.table({self.column: batch[self.column],
                              key: pa.array(np.arange(n))})
        good = keyed.filter(pa.array(ok))
        try:
            arr = self._decode(good)
        except Exception:  # noqa: BLE001 — valid JSON polars cannot decode
            return generic(batch)
        bad = keyed.filter(pa.array(~ok))
        return pa.concat_tables([
            self._evaluate(good, arr, key),
            JsonColumnValidator(self.tree, self.column, key)(bad)])

    def _decode(self, batch: pa.Table) -> pa.Array:
        import polars as pl

        arr = pl.from_arrow(batch[self.column]).str.json_decode().to_arrow()
        if isinstance(arr, pa.ChunkedArray):
            arr = arr.combine_chunks()
        return arr

    def _evaluate(self, batch: pa.Table, arr: pa.Array,
                  key_column: str | None) -> pa.Table:
        import numpy as np
        import pyarrow.compute as pc

        from ..stages.validate import _Emit, _mask_to_np, evaluate_rows

        # null input strings = missing document (generic-path parity)
        null_doc = _mask_to_np(pc.is_null(batch[self.column]), batch.num_rows)
        extra = ([_Emit(np.nonzero(null_doc)[0], "required", "(root)",
                        f"document in {self.column}", None)]
                 if null_doc.any() else [])
        return evaluate_rows(self.ev, self.tree, arr, batch, key_column,
                             extra)[1]


def validate_jsonl_column_fast(ds, tree, column: str,
                               key_column: str | None = None):
    """Vectorized struct-decode validation of a JSON string column."""
    return ds.map_batches(JsonStructValidator(tree, column, key_column),
                          batch_format="pyarrow")
