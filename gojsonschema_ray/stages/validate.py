"""Vectorized evaluation of a compiled ConstraintTree over Arrow record batches.

This is the table-scale hot path (SURVEY.md §2.3 mapping): every per-row
keyword of the reference's ``validateRecursive`` walker becomes a column
predicate built from ``pyarrow.compute`` / numpy kernels:

- the reference validates ONE document against the tree
  (``validation.go:71-267``); we validate a batch of rows, one boolean mask
  per tree node — applicability rule included (a keyword silently passes on
  values of an inapplicable type, ``validation.go:709-717``, ``766-769``):
  ``verdict = ~applicable | predicate``
- each row of the table is the "document": the struct of the row's columns,
  evaluated by the same object dispatch as every nested struct column
  (``VectorEvaluator._struct_checks``; the reference has one object branch
  for every depth, ``validation.go:182-212``). A field is a property, an
  Arrow NULL means the property is ABSENT (so ``required`` ⇔
  ``pc.is_valid``); list columns are JSON arrays (items/contains via
  flatten + segment-reduce over list offsets, no explode)
- ``pattern`` uses ``pc.match_substring_regex`` — Arrow's RE2, the same
  engine family and unanchored-search semantics as the reference's Go regexp
  (``validation.go:749-759``)
- exact numerics: ``multipleOf`` on float columns goes through per-distinct
  decimal-rational math (``Fraction(repr(v))``), matching the reference's
  ``big.Rat`` model (``utils.go:157-169``) without a per-row Python loop

Violations are emitted as a long-format Arrow table with the reference's
error fields (``result.go:33-96``): (row key, keyword, path, expected,
actual). ``actual`` is empty for an object value (a whole row or a nested
struct): rendering rows would JSON-encode every column, audio bytes too.
"""

from __future__ import annotations

from fractions import Fraction

import numpy as np
import pyarrow as pa
import pyarrow.compute as pc

from ..schema.compile import CompiledSchema, _UNSET
from ..schema.formats import FORMATS
from ..schema.errors import SchemaError
from ..schema.model import (
    TYPE_ARRAY,
    TYPE_BOOLEAN,
    TYPE_INTEGER,
    TYPE_NULL,
    TYPE_NUMBER,
    TYPE_OBJECT,
    TYPE_STRING,
    json_render,
)


def _deref(node):
    """Follow $ref links to the concrete schema node. A pure-$ref cycle
    (e.g. root {"$ref": "#"} — compile wires ref_schema to a placeholder
    that can point back at itself) raises SchemaError instead of spinning
    forever at validator construction."""
    seen: set[int] = set()
    while node.ref_schema is not None:
        if id(node) in seen:
            raise SchemaError("pure $ref cycle: reference resolves to itself "
                              "with no concrete schema")
        seen.add(id(node))
        node = node.ref_schema
    return node

VIOLATION_SCHEMA = pa.schema(
    [
        ("key", pa.string()),
        ("keyword", pa.string()),
        ("path", pa.string()),
        ("expected", pa.string()),
        ("actual", pa.string()),
    ]
)


def arrow_json_type(dt: pa.DataType) -> str:
    """Static JSON kind of an Arrow column type."""
    if pa.types.is_boolean(dt):
        return TYPE_BOOLEAN
    if pa.types.is_integer(dt):
        return TYPE_INTEGER
    if pa.types.is_floating(dt) or pa.types.is_decimal(dt):
        return TYPE_NUMBER
    if pa.types.is_string(dt) or pa.types.is_large_string(dt):
        return TYPE_STRING
    if pa.types.is_list(dt) or pa.types.is_large_list(dt) or pa.types.is_fixed_size_list(dt):
        return TYPE_ARRAY
    if pa.types.is_struct(dt) or pa.types.is_map(dt):
        return TYPE_OBJECT
    if pa.types.is_null(dt):
        return TYPE_NULL
    # binary / timestamp / other physical types: treated as opaque scalars
    return TYPE_STRING if pa.types.is_binary(dt) or pa.types.is_large_binary(dt) else TYPE_NUMBER


def _as_array(arr) -> pa.Array:
    """One contiguous array. A single-chunk column is returned as is:
    combine_chunks() would copy it."""
    if isinstance(arr, pa.ChunkedArray):
        return arr.chunk(0) if arr.num_chunks == 1 else arr.combine_chunks()
    return arr


def _mask_to_np(mask, n: int) -> np.ndarray:
    """Arrow boolean array -> numpy bool (nulls => False)."""
    if isinstance(mask, np.ndarray):
        return mask
    m = _as_array(mask)
    if m.null_count:
        m = m.fill_null(False)
    return m.to_numpy(zero_copy_only=False).astype(bool, copy=False)


class _Emit:
    """One violation record batch fragment: rows where a keyword failed."""

    __slots__ = ("row_idx", "keyword", "path", "expected", "actual")

    def __init__(self, row_idx: np.ndarray, keyword: str, path: str,
                 expected: str, actual):
        self.row_idx = row_idx
        self.keyword = keyword
        self.path = path
        self.expected = expected
        self.actual = actual  # the evaluated array (rendered at assembly) or None


class VectorResult:
    """Per-row validity mask + violation fragments + a per-row SCORE (count
    of passed keyword checks — the vectorized analog of the reference's
    incrementScore, result.go:206-220, used only to rank anyOf/oneOf
    branches when explaining failures)."""

    __slots__ = ("mask", "emits", "score")

    def __init__(self, mask: np.ndarray, emits: list[_Emit] | None = None,
                 score: np.ndarray | None = None):
        self.mask = mask
        self.emits = emits or []
        self.score = score if score is not None \
            else np.zeros(len(mask), dtype=np.int32)


def _true(n: int) -> np.ndarray:
    return np.ones(n, dtype=bool)


def _false(n: int) -> np.ndarray:
    return np.zeros(n, dtype=bool)


def _fraction_scalar(f: Fraction, dt: pa.DataType):
    """Bound as a comparable scalar for a numeric column."""
    if f.denominator == 1 and pa.types.is_integer(dt):
        return int(f)
    return float(f)


def _present_fields(v):
    """A struct value as the JSON object it stands for: NULL fields are
    absent properties (dropped at every depth), NULL list elements stay
    JSON nulls."""
    if isinstance(v, dict):
        return {k: _present_fields(x) for k, x in v.items() if x is not None}
    if isinstance(v, list):
        return [_present_fields(x) for x in v]
    return v


def _render_values(arr: pa.Array, idx: np.ndarray) -> list[str]:
    taken = arr.take(pa.array(idx, type=pa.int64()))
    try:
        return [json_render(v) for v in taken.to_pylist()]
    except (TypeError, ValueError):
        return [str(v) for v in taken.to_pylist()]


class VectorEvaluator:
    """Evaluates a compiled tree node against one Arrow column.

    State (per-distinct multipleOf verdict caches) lives for the evaluator's
    lifetime — construct once per actor/worker, reuse across batches.
    """

    def __init__(self, emit_violations: bool = True):
        self.emit_violations = emit_violations
        self._multiple_cache: dict[tuple, dict] = {}

    # ------------------------------------------------------------------
    def eval_column(self, node: CompiledSchema, arr, path: str) -> VectorResult:
        """Mask of per-row validity of `arr` (one column) under `node`.

        NULL slots are the caller's concern (property absence); they come back
        True here (vacuous pass) unless the node's `type` excludes null AND the
        caller asked otherwise.
        """
        arr = _as_array(arr)
        n = len(arr)

        if node.pass_ is not None:
            if node.pass_:
                return VectorResult(_true(n))
            # `false` fails every PRESENT value; absent (null) slots still
            # pass vacuously, same as every other keyword
            present0 = _mask_to_np(pc.is_valid(arr), n)
            r = VectorResult(~present0)
            if present0.any():
                self._emit(r, np.nonzero(present0)[0], "false", path,
                           "schema false", arr)
            return r
        if node.ref_schema is not None:
            return self.eval_column(node.ref_schema, arr, path)

        valid_np = pc.is_valid(arr)
        present = _mask_to_np(valid_np, n)
        mask = _true(n)
        result = VectorResult(mask)

        col_kind = arrow_json_type(arr.type)

        # type --------------------------------------------------------
        if node.types is not None:
            tmask = self._type_mask(node, arr, col_kind, present, n)
            bad = present & ~tmask
            if bad.any():
                self._emit(result, np.nonzero(bad)[0], "invalid_type", path,
                           node.describe_constraint("type"), arr)
            mask &= ~present | tmask
            # reference returns immediately on type failure — rows failing
            # type skip the remaining keyword checks
            present = present & tmask

        # combinators --------------------------------------------------
        if node.all_of:
            # every failing branch's errors plus one number_all_of, as in
            # the generic engine (CompiledSchema._validate_schema)
            ok = _true(n)
            for sub in node.all_of:
                sr = self.eval_column(sub, arr, path)
                bad = present & ~sr.mask
                ok &= sr.mask
                if bad.any():
                    result.emits.extend(self._gate(sr.emits, bad))
            bad = present & ~ok
            if bad.any():
                self._emit(result, np.nonzero(bad)[0], "number_all_of", path,
                           "allOf", arr)
            mask &= ~present | ok
        if node.any_of:
            branches = [self.eval_column(sub, arr, path) for sub in node.any_of]
            acc = _false(n)
            for br in branches:
                acc |= br.mask
            bad = present & ~acc
            if bad.any():
                self._emit_best_branch(result, bad, branches, "number_any_of",
                                       path, "anyOf", arr)
            mask &= ~present | acc
        if node.one_of:
            branches = [self.eval_column(sub, arr, path) for sub in node.one_of]
            cnt = np.zeros(n, dtype=np.int32)
            for br in branches:
                cnt += br.mask.astype(np.int32)
            ok = cnt == 1
            # 0 valid branches -> report the closest (best-scoring) branch,
            # like the reference (validation.go:304-329); >1 valid -> plain
            none_valid = present & (cnt == 0)
            multi_valid = present & (cnt > 1)
            if none_valid.any():
                self._emit_best_branch(result, none_valid, branches,
                                       "number_one_of", path, "oneOf", arr)
            if multi_valid.any():
                self._emit(result, np.nonzero(multi_valid)[0], "number_one_of",
                           path, "oneOf (multiple branches valid)", arr)
            mask &= ~present | ok
        if node.not_ is not None:
            sr = self.eval_column(node.not_, arr, path)
            ok = ~sr.mask
            bad = present & ~ok
            if bad.any():
                self._emit(result, np.nonzero(bad)[0], "number_not", path, "not", arr)
            mask &= ~present | ok
        if node.if_ is not None:
            if_m = self.eval_column(node.if_, arr, path).mask
            then_m = self.eval_column(node.then_, arr, path).mask if node.then_ else _true(n)
            else_m = self.eval_column(node.else_, arr, path).mask if node.else_ else _true(n)
            ok = np.where(if_m, then_m, else_m)
            for kw, bad in (("condition_then", present & if_m & ~ok),
                            ("condition_else", present & ~if_m & ~ok)):
                if bad.any():
                    self._emit(result, np.nonzero(bad)[0], kw, path,
                               "if/then/else", arr)
            mask &= ~present | ok

        # const / enum (apply to all kinds) ----------------------------
        if node.const is not _UNSET:
            ok = self._membership_mask(arr, [node.const], n)
            bad = present & ~ok
            if bad.any():
                self._emit(result, np.nonzero(bad)[0], "const", path, "const", arr)
            mask &= ~present | ok
        if node.enum is not None:
            ok = self._membership_mask(arr, list(node.enum), n)
            bad = present & ~ok
            if bad.any():
                self._emit(result, np.nonzero(bad)[0], "enum", path,
                           node.describe_constraint("enum"), arr)
            mask &= ~present | ok

        # format -------------------------------------------------------
        fmt_fn = getattr(node, "format_fn", None)
        if node.format and (fmt_fn is not None or FORMATS.has(node.format)):
            fmt_vec = getattr(node, "format_vector_fn", None)
            is_str_col = col_kind == TYPE_STRING and (
                pa.types.is_string(arr.type) or pa.types.is_large_string(arr.type))
            if fmt_fn is not None:
                # custom checker captured in the tree (ships to workers whose
                # process registry only has builtins)
                if fmt_vec is not None and is_str_col:
                    fm = _mask_to_np(fmt_vec(arr), n) | ~present
                else:
                    fm = self._python_rowwise(arr, present, fmt_fn, n)
            elif is_str_col:
                fm = _mask_to_np(FORMATS.vector_is_format(node.format, arr), n) | ~present
            else:
                # non-string columns: built-ins pass; custom checkers get values
                fm = self._python_rowwise(
                    arr, present, lambda v: FORMATS.is_format(node.format, v), n
                )
            bad = present & ~fm
            if bad.any():
                self._emit(result, np.nonzero(bad)[0], "format", path,
                           node.describe_constraint("format"), arr)
            mask &= ~present | fm

        # numbers ------------------------------------------------------
        if pa.types.is_integer(arr.type) or pa.types.is_floating(arr.type) \
                or pa.types.is_decimal(arr.type):
            mask = self._numeric_checks(node, arr, path, present, mask, result, n)

        # strings ------------------------------------------------------
        if col_kind == TYPE_STRING and (
            pa.types.is_string(arr.type) or pa.types.is_large_string(arr.type)
        ):
            mask = self._string_checks(node, arr, path, present, mask, result, n)

        # lists --------------------------------------------------------
        if col_kind == TYPE_ARRAY:
            mask = self._list_checks(node, arr, path, present, mask, result, n)

        # structs (a failed `type` leaves no row present) ---------------
        if col_kind == TYPE_OBJECT and pa.types.is_struct(arr.type) and present.any():
            mask = self._struct_checks(node, arr, path, present, mask, result, n)

        result.mask = mask | ~_mask_to_np(valid_np, n)  # nulls vacuously pass
        return result

    # ------------------------------------------------------------------
    def _type_mask(self, node, arr, col_kind, present, n) -> np.ndarray:
        types = node.types
        if col_kind == TYPE_INTEGER:
            ok = TYPE_INTEGER in types or TYPE_NUMBER in types
            return _true(n) if ok else _false(n)
        if col_kind == TYPE_NUMBER and (pa.types.is_floating(arr.type)):
            if TYPE_NUMBER in types:
                return _true(n)
            if TYPE_INTEGER in types:
                # float rows with zero fractional part ARE integers
                # (big.Rat.IsInt, utils.go:117-125)
                vals = arr.to_numpy(zero_copy_only=False)
                with np.errstate(invalid="ignore"):
                    return np.isfinite(vals) & (np.floor(vals) == vals)
            return _false(n)
        return _true(n) if col_kind in types else _false(n)

    def _membership_mask(self, arr, canon_values: list, n: int) -> np.ndarray:
        """enum/const membership against canonical forms, vectorized by kind."""
        dt = arr.type
        kind = arrow_json_type(dt)
        wanted_scalars = []
        for tag, *rest in canon_values:
            if tag == "n" and kind in (TYPE_INTEGER, TYPE_NUMBER):
                f = rest[0]
                if pa.types.is_integer(dt):
                    if f.denominator == 1:
                        wanted_scalars.append(int(f))
                else:
                    wanted_scalars.append(float(f))
            elif tag == "s" and kind == TYPE_STRING:
                wanted_scalars.append(rest[0])
            elif tag == "b" and kind == TYPE_BOOLEAN:
                wanted_scalars.append(rest[0])
        if len(wanted_scalars) != len(canon_values):
            # composite values (arrays/objects/null) in the enum → row-wise
            from ..schema.model import canonical

            cset = set(canon_values)
            present = _mask_to_np(pc.is_valid(arr), n)
            return self._python_rowwise(
                arr, present, lambda v: canonical(_present_fields(v)) in cset, n
            )
        if not wanted_scalars:
            return _false(n)
        if kind in (TYPE_INTEGER, TYPE_NUMBER, TYPE_STRING, TYPE_BOOLEAN):
            try:
                vs = pa.array(wanted_scalars, type=dt)
            except (pa.ArrowInvalid, pa.ArrowTypeError, OverflowError):
                vs = pa.array([float(x) if not isinstance(x, str) else x for x in wanted_scalars])
            if pa.types.is_floating(arr.type):
                # Arrow's hash-based is_in distinguishes -0.0 from 0.0;
                # canonical-JSON equality does not (they are the same
                # rational). x + 0.0 maps -0.0 -> 0.0, leaves the rest.
                arr = pc.add(arr, pa.scalar(0.0, type=arr.type))
                if pa.types.is_floating(vs.type):
                    vs = pc.add(vs, pa.scalar(0.0, type=vs.type))
            return _mask_to_np(pc.is_in(arr, value_set=vs), n)
        return _false(n)

    def _python_rowwise(self, arr, present, fn, n) -> np.ndarray:
        """Last-resort per-row evaluation on ONLY the present rows."""
        out = _true(n)
        idx = np.nonzero(present)[0]
        if len(idx) == 0:
            return out
        vals = arr.take(pa.array(idx, type=pa.int64())).to_pylist()
        for i, v in zip(idx, vals):
            out[i] = bool(fn(v))
        return out

    # ------------------------------------------------------------------
    def _numeric_checks(self, node, arr, path, present, mask, result, n):
        dt = arr.type
        if node.minimum is not None:
            ok = _mask_to_np(pc.greater_equal(arr, _fraction_scalar(node.minimum, dt)), n)
            mask = self._apply(result, arr, path, present, mask, ok, "number_gte",
                               node.describe_constraint("minimum"))
        if node.exclusive_minimum is not None:
            ok = _mask_to_np(pc.greater(arr, _fraction_scalar(node.exclusive_minimum, dt)), n)
            mask = self._apply(result, arr, path, present, mask, ok, "number_gt",
                               node.describe_constraint("exclusiveMinimum"))
        if node.maximum is not None:
            ok = _mask_to_np(pc.less_equal(arr, _fraction_scalar(node.maximum, dt)), n)
            mask = self._apply(result, arr, path, present, mask, ok, "number_lte",
                               node.describe_constraint("maximum"))
        if node.exclusive_maximum is not None:
            ok = _mask_to_np(pc.less(arr, _fraction_scalar(node.exclusive_maximum, dt)), n)
            mask = self._apply(result, arr, path, present, mask, ok, "number_lt",
                               node.describe_constraint("exclusiveMaximum"))
        if node.multiple_of is not None:
            ok = self._multiple_of_mask(arr, node.multiple_of, present, n)
            mask = self._apply(result, arr, path, present, mask, ok, "multiple_of",
                               node.describe_constraint("multipleOf"))
        return mask

    def _multiple_of_mask(self, arr, d: Fraction, present, n) -> np.ndarray:
        if pa.types.is_integer(arr.type) and arr.null_count:
            # nulls demote to_numpy to float64 (NaN), destroying exactness
            # AND poisoning the overflow guard; nulls pass via ~present anyway
            vals = arr.fill_null(0).to_numpy(zero_copy_only=False)
        else:
            vals = arr.to_numpy(zero_copy_only=False)
        if pa.types.is_integer(arr.type):
            if d.denominator == 1:
                dv = int(d)
                ok = (vals % dv) == 0
            else:
                # v multiple of a/b  ⇔  v*b % a == 0; the guard must bound
                # the PRODUCT, not the values — int64 wraps past 2^63
                a, b = d.numerator, d.denominator
                overflow = np.abs(vals).max(initial=0) > (2**62) // max(int(b), 1)
                prod = vals.astype(object) * int(b) if overflow else vals * b
                ok = (prod % a) == 0
            return np.asarray(ok, dtype=bool) | ~present
        # float column: exact decimal-rational check per DISTINCT value,
        # cached across batches (reference big.Rat parity)
        cache = self._multiple_cache.setdefault((d.numerator, d.denominator), {})
        uniq, inv = np.unique(vals, return_inverse=True)
        verdicts = np.empty(len(uniq), dtype=bool)
        for i, u in enumerate(uniq):
            key = float(u)
            hit = cache.get(key)
            if hit is None:
                if np.isnan(u) or np.isinf(u):
                    hit = True  # not applicable
                else:
                    hit = (Fraction(repr(float(u))) / d).denominator == 1
                cache[key] = hit
            verdicts[i] = hit
        return verdicts[inv] | ~present

    def _string_checks(self, node, arr, path, present, mask, result, n):
        if node.min_length is not None:
            ok = _mask_to_np(pc.greater_equal(pc.utf8_length(arr), node.min_length), n)
            mask = self._apply(result, arr, path, present, mask, ok, "string_gte",
                               node.describe_constraint("minLength"))
        if node.max_length is not None:
            ok = _mask_to_np(pc.less_equal(pc.utf8_length(arr), node.max_length), n)
            mask = self._apply(result, arr, path, present, mask, ok, "string_lte",
                               node.describe_constraint("maxLength"))
        if node.pattern_src is not None:
            ok = _mask_to_np(pc.match_substring_regex(arr, node.pattern_src), n)
            mask = self._apply(result, arr, path, present, mask, ok, "pattern",
                               node.describe_constraint("pattern"))
        return mask

    def _list_checks(self, node, arr, path, present, mask, result, n):
        lens = pc.list_value_length(arr)
        if node.min_items is not None:
            ok = _mask_to_np(pc.greater_equal(lens, node.min_items), n)
            mask = self._apply(result, arr, path, present, mask, ok, "array_min_items",
                               f"minItems {node.min_items}")
        if node.max_items is not None:
            ok = _mask_to_np(pc.less_equal(lens, node.max_items), n)
            mask = self._apply(result, arr, path, present, mask, ok, "array_max_items",
                               f"maxItems {node.max_items}")
        flat = None
        parent = None
        flat_nulls = None
        if node.items or node.contains is not None or node.unique_items:
            flat = _as_array(pc.list_flatten(arr))
            parent = (pc.list_parent_indices(arr).to_numpy(zero_copy_only=False)
                      if len(flat) else np.array([], dtype=np.int64))
            flat_nulls = _mask_to_np(pc.is_null(flat), len(parent))
        if node.items or node.contains is not None:
            # a NULL list is absent: its length never gates a present row
            lens_np = lens.fill_null(0).to_numpy(zero_copy_only=False)

        def _element_mask(child, sub_path):
            """Child verdict per flattened element. eval_column treats nulls
            as vacuous passes (absent-property semantics); LIST elements are
            JSON null VALUES, so null slots get the child's verdict on null
            (child.check(None) — exact generic-engine semantics)."""
            m = self.eval_column(child, flat, sub_path).mask
            if flat_nulls is not None and flat_nulls.any():
                m = m.copy()
                m[flat_nulls] = child.check(None)
            return m

        if node.items and node.items_single:
            child = node.items[0]
            ok = self._segment_all(_element_mask(child, f"{path}[]"), parent, n)
            mask = self._apply(result, arr, path, present, mask, ok, "items", "items")
        elif node.items:
            # tuple form: element i validates items[i]; tail validates
            # additionalItems (validation.go:474-505)
            ok = _true(n)
            for i, child in enumerate(node.items):
                elem = self._list_element(arr, i, flat, parent, n)
                has_elem = lens_np > i
                er = self.eval_column(child, elem, f"{path}[{i}]")
                ok &= ~has_elem | er.mask
            extra = lens_np > len(node.items)
            if node.additional_items is False:
                ok &= ~extra
            elif isinstance(node.additional_items, CompiledSchema) and flat is not None and len(flat):
                # positions >= len(items) validate additionalItems
                pos = self._positions_within_list(arr, parent)
                tail_sel = pos >= len(node.items)
                if tail_sel.any():
                    sub = flat.take(pa.array(np.nonzero(tail_sel)[0], type=pa.int64()))
                    sr = self.eval_column(node.additional_items, sub, f"{path}[*]")
                    ok &= self._segment_all(sr.mask, parent[tail_sel], n)
            mask = self._apply(result, arr, path, present, mask, ok, "items", "items(tuple)")
        if node.unique_items and flat is not None:
            ok = self._unique_items_mask(arr, flat, parent, n)
            mask = self._apply(result, arr, path, present, mask, ok, "unique", "uniqueItems")
        if node.contains is not None and flat is not None:
            ok = self._segment_any(_element_mask(node.contains, f"{path}[]"),
                                   parent, n)
            # empty lists fail contains
            ok &= lens_np > 0
            mask = self._apply(result, arr, path, present, mask, ok, "contains", "contains")
        return mask

    def _list_element(self, arr, i: int, flat, parent, n: int):
        """Element i of each list (null where the list is shorter), built from
        the flattened values so short lists don't error like pc.list_element."""
        if flat is None or len(flat) == 0:
            return pa.nulls(n, type=flat.type if flat is not None else pa.null())
        pos = self._positions_within_list(arr, parent)
        sel = pos == i
        out_idx = np.full(n, -1, dtype=np.int64)
        out_idx[parent[sel]] = np.nonzero(sel)[0]
        has = out_idx >= 0
        taken = flat.take(pa.array(np.where(has, out_idx, 0), type=pa.int64()))
        if (~has).any():
            taken = pc.if_else(pa.array(has), taken, pa.scalar(None, type=flat.type))
        return taken

    def _positions_within_list(self, arr, parent: np.ndarray) -> np.ndarray:
        if len(parent) == 0:
            return np.array([], dtype=np.int64)
        # position of each flattened element within its parent list
        starts = np.nonzero(np.diff(parent, prepend=parent[0] - 1))[0]
        offsets = np.zeros(len(parent), dtype=np.int64)
        offsets[starts] = np.arange(len(parent), dtype=np.int64)[starts]
        offsets = np.maximum.accumulate(offsets)
        return np.arange(len(parent), dtype=np.int64) - offsets

    def _segment_all(self, child_mask: np.ndarray, parent: np.ndarray, n: int) -> np.ndarray:
        # bincount, not np.logical_and.at: 12 against 60 us per 1,024 rows
        return np.bincount(parent[~child_mask], minlength=n) == 0

    def _segment_any(self, child_mask: np.ndarray, parent: np.ndarray, n: int) -> np.ndarray:
        return np.bincount(parent[child_mask], minlength=n) > 0

    def _unique_items_mask(self, arr, flat, parent: np.ndarray, n: int) -> np.ndarray:
        """Per-row canonical distinctness of list elements (validation.go:530-547)."""
        if len(parent) == 0:
            return _true(n)
        dt = flat.type
        ok = _true(n)
        if pa.types.is_string(dt) or pa.types.is_large_string(dt):
            # equal strings share a dictionary code, and so do all nulls (a
            # null elem equals another null elem): a row fails when two of
            # its (parent, code) keys are equal. Exact, no hashing.
            enc = pc.dictionary_encode(flat, null_encoding="encode")
            width = len(enc.dictionary)
            keys = parent.astype(np.int64) * width + enc.indices.to_numpy(zero_copy_only=False)
            keys.sort()
            ok[keys[1:][keys[1:] == keys[:-1]] // width] = False
            return ok
        if pa.types.is_integer(dt) or pa.types.is_floating(dt) or pa.types.is_boolean(dt):
            valid_el = _mask_to_np(pc.is_valid(flat), len(parent))
            parent_nn = parent
            if not valid_el.all():
                # filter nulls IN ARROW first: to_numpy on an int array with
                # nulls casts everything to float64, destroying exactness;
                # null elements are handled by the null_counts pass below
                flat_nn = flat.filter(pa.array(valid_el))
                vals = flat_nn.to_numpy(zero_copy_only=False)
                parent_nn = parent[valid_el]
            else:
                vals = flat.to_numpy(zero_copy_only=False)
            # a typed Arrow column has ONE element type, so values compare
            # exactly in their own dtype (no float cast: 2^53 and 2^53+1
            # must stay distinct for int64 lists)
            order = np.lexsort((vals, parent_nn))
            sp, sv = parent_nn[order], vals[order]
            if len(sp):
                same_as_prev = np.zeros(len(sp), dtype=bool)
                same_as_prev[1:] = (sp[1:] == sp[:-1]) & (sv[1:] == sv[:-1])
                dup_parents = np.unique(sp[same_as_prev])
                ok[dup_parents] = False
            # nulls inside lists: a null elem equals another null elem
            nulls = _mask_to_np(pc.is_null(flat), len(parent))
            if nulls.any():
                null_counts = np.bincount(parent[nulls], minlength=n)
                ok[null_counts > 1] = False
            return ok
        # nested lists/structs: canonical row-wise
        from ..schema.model import canonical

        lists = arr.to_pylist()
        for i, lst in enumerate(lists):
            if not lst:
                continue
            seen = set()
            for v in lst:
                c = canonical(v)
                if c in seen:
                    ok[i] = False
                    break
                seen.add(c)
        return ok

    def _struct_checks(self, node, arr, path, present, mask, result, n):
        """Object keywords on a struct — a nested struct column or a whole
        table row (TableValidator): a field is a property, a NULL field is
        ABSENT (validation.go:592-705 over Arrow structs). Each field is
        looked up once; flatten() folds the struct's own nulls into it."""
        fields = dict(zip([f.name for f in arr.type], arr.flatten()))
        valid: dict[str, np.ndarray] = {}

        def has(name):
            """Rows where property `name` is present."""
            if name not in valid:
                valid[name] = (_mask_to_np(pc.is_valid(fields[name]), n)
                               if name in fields else _false(n))
            return valid[name]

        def check(name, sub_schema):
            """Field `name` under a sub-schema; its emits carry their own path."""
            nonlocal mask
            sr = self.eval_column(sub_schema, fields[name], f"{path}.{name}")
            mask = mask & (~present | sr.mask)
            result.emits.extend(sr.emits)

        for req in node.required:
            mask = self._apply(result, arr, path, present, mask, has(req),
                               "required", f"required {req}")
        for p_schema in node.properties:
            if p_schema.property in fields:
                check(p_schema.property, p_schema)
        for rx, sub_schema in node.pattern_properties.values():
            for name in fields:
                if rx.search(name):
                    check(name, sub_schema)
        # additionalProperties over the fixed field set (True allows all)
        if node.additional_properties not in (None, True):
            prop_names = {p.property for p in node.properties}
            for name in fields:
                if name in prop_names or any(
                        rx.search(name) for rx, _ in node.pattern_properties.values()):
                    continue
                if node.additional_properties is False:
                    mask = self._apply(result, arr, path, present, mask, ~has(name),
                                       "additional_property_not_allowed",
                                       f"property {name} not allowed")
                else:
                    check(name, node.additional_properties)
        # propertyNames over field names (fields with a present value count)
        if node.property_names is not None:
            for name in fields:
                if not node.property_names.check(name):
                    mask = self._apply(result, arr, path, present, mask, ~has(name),
                                       "invalid_property_name",
                                       f"propertyNames {name}")
        # min/maxProperties: per-row count of present fields
        if node.min_properties is not None or node.max_properties is not None:
            cnt = np.zeros(n, dtype=np.int32)
            for name in fields:
                cnt += has(name)
            if node.min_properties is not None:
                mask = self._apply(result, arr, path, present, mask,
                                   cnt >= node.min_properties,
                                   "array_min_properties",
                                   f"minProperties {node.min_properties}")
            if node.max_properties is not None:
                mask = self._apply(result, arr, path, present, mask,
                                   cnt <= node.max_properties,
                                   "array_max_properties",
                                   f"maxProperties {node.max_properties}")
        # dependencies (property and schema form)
        for key, dep in node.dependencies.items():
            if key not in fields:
                continue
            if isinstance(dep, list):
                need = _true(n)
                for d in dep:
                    need &= has(d)
            else:
                need = self.eval_column(dep, arr, path).mask
            mask = self._apply(result, arr, path, present, mask, ~has(key) | need,
                               "missing_dependency", f"dependency {key}")
        return mask

    # ------------------------------------------------------------------
    def _emit_best_branch(self, result, bad: np.ndarray, branches,
                          keyword: str, path: str, label: str, arr):
        """Attribute combinator failures to the closest branch per row —
        the branch with the highest score (most keyword checks passed),
        the vectorized form of the reference's score-ranked error merge
        (validation.go:277-329). One emit group per winning branch."""
        scores = np.stack([br.score for br in branches])  # (nb, n)
        best = scores.argmax(axis=0)
        for b in range(len(branches)):
            sel = bad & (best == b)
            if sel.any():
                self._emit(result, np.nonzero(sel)[0], keyword, path,
                           f"{label} (closest: branch {b})", arr)

    def _apply(self, result, arr, path, present, mask, ok, keyword, expected):
        bad = present & ~ok
        if bad.any():
            self._emit(result, np.nonzero(bad)[0], keyword, path, expected, arr)
        result.score += (present & ok).astype(np.int32)
        return mask & (~present | ok)

    def _emit(self, result: VectorResult, idx: np.ndarray, keyword: str,
              path: str, expected: str, arr):
        if not self.emit_violations or len(idx) == 0:
            return
        if arr is not None and pa.types.is_struct(arr.type):
            arr = None  # object values are not rendered (module docstring)
        result.emits.append(_Emit(idx, keyword, path, expected, arr))

    def _gate(self, emits: list, keep: np.ndarray) -> list:
        out = []
        for e in emits:
            sel = e.row_idx[keep[e.row_idx]]
            if len(sel):
                out.append(_Emit(sel, e.keyword, e.path, e.expected, e.actual))
        return out


class TableValidator:
    """Validates each ROW of an Arrow table as a JSON object against a
    compiled root schema. A row is the struct of its columns (a NULL cell is
    an absent property), evaluated by VectorEvaluator.eval_column like any
    nested struct column, so every object keyword has one implementation.
    The map_batches payload of the flagship pipeline.

    Usage:
        tree = compile_schema(ruleset)           # once, on the driver
        tv = TableValidator(tree, key_column="clip_id")
        ds.map_batches(tv, batch_format="pyarrow")   # stateless tasks
    (pipelines.flagship.CombinedClipChecker fuses it with the audio
    checks).
    """

    def __init__(self, tree: CompiledSchema, key_column: str | None = None,
                 emit_violations: bool = True, mode: str = "verdict"):
        node = _deref(tree)  # a $ref root must deref first (cycle-checked)
        if node.pass_ is None and node.types is not None \
                and TYPE_OBJECT not in node.types:
            raise ValueError("root schema must allow objects for table validation")
        self.tree = tree
        self.key_column = key_column
        self.mode = mode  # "verdict" → append valid column; "violations" → violation rows
        self.ev = VectorEvaluator(emit_violations=emit_violations)

    def __call__(self, batch: pa.Table) -> pa.Table:
        mask, violations = self.validate_batch(batch)
        if self.mode == "violations":
            return violations
        return batch.append_column("valid", pa.array(mask))

    def validate_batch(self, batch: pa.Table) -> tuple[np.ndarray, pa.Table]:
        # the rows as one struct of the columns, zero-copy for single-chunk
        # columns; no null bitmap, because every row is a present object
        if batch.num_columns:
            rows = pa.StructArray.from_arrays(
                [_as_array(c) for c in batch.columns], names=batch.column_names)
        else:
            rows = pa.StructArray.from_buffers(pa.struct([]), batch.num_rows, [None])
        return evaluate_rows(self.ev, self.tree, rows, batch, self.key_column)


def evaluate_rows(ev: VectorEvaluator, tree: CompiledSchema, rows: pa.Array,
                  batch: pa.Table, key_column: str | None,
                  extra=()) -> tuple[np.ndarray, pa.Table]:
    """Per-row verdicts of `rows` (one document per row of `batch`) under
    the root schema, and their violations table keyed from `batch`; `extra`
    emits (document-level faults the caller found) are assembled with them.
    Shared by TableValidator and the JSON struct-decode validator."""
    res = ev.eval_column(tree, rows, "(root)")
    return res.mask, violations_table(batch, res.emits + list(extra), key_column)


def violations_table(batch: pa.Table, emits: list[_Emit],
                     key_column: str | None) -> pa.Table:
    """Assemble the standard violations table from emit fragments."""
    if not emits:
        return VIOLATION_SCHEMA.empty_table()
    keys_col = None
    if key_column and key_column in batch.column_names:
        keys_col = _as_array(batch[key_column])
    key_out, kw_out, path_out, exp_out, act_out = [], [], [], [], []
    for e in emits:
        idx = e.row_idx
        if keys_col is not None:
            ks = keys_col.take(pa.array(idx, type=pa.int64())).to_pylist()
            key_out.extend("" if k is None else str(k) for k in ks)
        else:
            key_out.extend(str(i) for i in idx)
        kw_out.extend([e.keyword] * len(idx))
        path_out.extend([e.path] * len(idx))
        exp_out.extend([e.expected] * len(idx))
        if e.actual is None:
            act_out.extend([""] * len(idx))
        else:
            act_out.extend(_render_values(e.actual, idx))
    return pa.table(
        [key_out, kw_out, path_out, exp_out, act_out], schema=VIOLATION_SCHEMA
    )
