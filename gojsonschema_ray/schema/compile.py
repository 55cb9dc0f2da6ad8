"""Schema compiler: JSON Schema draft-4/6/7 (+ Hybrid) → ConstraintTree.

Compile-time semantics mirror the reference's ``parseSchema``
(``schema.go:77-966``): keyword value typing, negative bounds, min>max
cross-checks, draft gating (``contains``/``const``/``propertyNames`` ≥ draft6,
``if/then/else`` ≥ draft7, boolean vs numeric ``exclusiveMinimum/Maximum``),
``$ref`` inlining with a memoized reference pool so circular references
terminate (``schema.go:968-1008``, ``schemaReferencePool.go:32-68``), and
optional meta-schema validation (``schemaLoader.go:48-92``).

The compiled tree is evaluated two ways:
- generically, one value at a time (``CompiledSchema.check`` — exact
  reference semantics incl. best-branch scores; used for conformance tests,
  dynamic JSON columns and the DuckDB-oracle path);
- vectorized over Arrow record batches (``gojsonschema_ray.stages.validate``)
  for the table-scale hot path.

Compilation happens ONCE on the driver; the tree is a plain picklable Python
object shipped to Ray workers inside ``map_batches`` closures.
"""

from __future__ import annotations

import re
from fractions import Fraction

from . import errors as E
from .errors import Result, SchemaError
from .formats import FORMATS
from .model import (
    TYPE_ARRAY,
    TYPE_BOOLEAN,
    TYPE_INTEGER,
    TYPE_NULL,
    TYPE_NUMBER,
    TYPE_OBJECT,
    TYPE_STRING,
    JSON_TYPES,
    canonical,
    is_integer,
    is_number,
    json_render,
    to_fraction,
)
from .re2 import Re2Pattern
from .refs import (
    DRAFT4,
    DRAFT6,
    DRAFT7,
    HYBRID,
    Registry,
    detect_draft,
    inherits,
    meta_schema_url_for,
    normalize_ref,
)

class _UnsetType:
    """Pickle-stable singleton sentinel (trees ship to Ray workers pickled)."""

    _instance = None

    def __new__(cls):
        if cls._instance is None:
            cls._instance = super().__new__(cls)
        return cls._instance

    def __reduce__(self):
        return (_UnsetType, ())


_UNSET = _UnsetType()


def _is_schema_kind(v) -> bool:
    return isinstance(v, (dict, bool))


def _must_be_fraction(v) -> Fraction | None:
    if not is_number(v):
        return None
    return to_fraction(v)


def _must_be_int(v) -> int | None:
    if not is_number(v):
        return None
    f = to_fraction(v)
    if f.denominator != 1:
        return None
    return int(f)


class CompiledSchema:
    """One node of the ConstraintTree (subSchema analog, subSchema.go:79-149)."""

    __slots__ = (
        "draft", "property", "parent", "id", "ref", "ref_schema", "pass_",
        "types", "title", "description",
        "properties", "pattern_properties", "additional_properties",
        "property_names", "dependencies",
        "items", "items_single", "additional_items",
        "multiple_of", "minimum", "maximum", "exclusive_minimum", "exclusive_maximum",
        "min_length", "max_length", "pattern", "pattern_src", "format",
        "format_fn", "format_vector_fn",
        "min_properties", "max_properties", "required",
        "min_items", "max_items", "unique_items", "contains",
        "const", "enum", "one_of", "any_of", "all_of", "not_",
        "if_", "then_", "else_", "_prop_name_set",
    )

    def __init__(self, property: str | None = None, parent: "CompiledSchema | None" = None):
        self.draft = None
        self.property = property
        self.parent = parent
        self.id: str | None = None
        self.ref: str | None = None
        self.ref_schema: CompiledSchema | None = None
        self.pass_: bool | None = None  # draft>=6 boolean schema
        self.types: tuple[str, ...] | None = None
        self.title = None
        self.description = None
        self.properties: list[CompiledSchema] = []
        self.pattern_properties: dict[str, tuple] = {}  # name -> (compiled_rx, schema)
        self.additional_properties = None  # None | bool | CompiledSchema
        self.property_names: CompiledSchema | None = None
        self.dependencies: dict = {}  # name -> list[str] | CompiledSchema
        self.items: list[CompiledSchema] = []
        self.items_single = False
        self.additional_items = None  # None | bool | CompiledSchema
        self.multiple_of: Fraction | None = None
        self.minimum: Fraction | None = None
        self.maximum: Fraction | None = None
        self.exclusive_minimum: Fraction | None = None
        self.exclusive_maximum: Fraction | None = None
        self.min_length: int | None = None
        self.max_length: int | None = None
        self.pattern = None
        self.pattern_src: str | None = None
        self.format: str | None = None
        self.format_fn = None          # custom checker captured at compile
        self.format_vector_fn = None   # (builtins resolve per-process)
        self.min_properties: int | None = None
        self.max_properties: int | None = None
        self.required: list[str] = []
        self.min_items: int | None = None
        self.max_items: int | None = None
        self.unique_items = False
        self.contains: CompiledSchema | None = None
        self.const = _UNSET  # canonical form
        self.enum: set | None = None  # set of canonical forms
        self.one_of: list[CompiledSchema] = []
        self.any_of: list[CompiledSchema] = []
        self.all_of: list[CompiledSchema] = []
        self.not_: CompiledSchema | None = None
        self.if_: CompiledSchema | None = None
        self.then_: CompiledSchema | None = None
        self.else_: CompiledSchema | None = None
        self._prop_name_set: frozenset | None = None

    # -- pickling: __slots__ default protocol; re.Pattern pickles natively ---
    def __getstate__(self):
        return {k: getattr(self, k) for k in self.__slots__}

    def __setstate__(self, state):
        for k, v in state.items():
            setattr(self, k, v)

    # ------------------------------------------------------------------
    # Generic evaluation (validateRecursive analog, validation.go:71-267)
    # ------------------------------------------------------------------
    def validate(self, value) -> Result:
        result = Result()
        self._validate_recursive(value, result, "(root)")
        return result

    def check(self, value) -> bool:
        return self.validate(value).valid()

    def _sub_validate(self, value, context) -> Result:
        r = Result()
        self._validate_recursive(value, r, context)
        return r

    def _validate_recursive(self, node, result: Result, ctx: str):
        if self.pass_ is not None:
            if not self.pass_:
                result.add_error(E.ERR_FALSE, ctx, node)
            return
        if self.ref_schema is not None:
            self.ref_schema._validate_recursive(node, result, ctx)
            return

        types_str = ",".join(self.types) if self.types else ""
        if node is None:
            if self.types is not None and TYPE_NULL not in self.types:
                result.add_error(E.ERR_INVALID_TYPE, ctx, node,
                                 {"expected": types_str, "given": TYPE_NULL})
                return
            self._validate_schema(node, result, ctx)
            self._validate_common(node, result, ctx)
        elif is_number(node):
            isi = is_integer(node)
            if self.types is not None and not (
                TYPE_NUMBER in self.types or (isi and TYPE_INTEGER in self.types)
            ):
                result.add_error(E.ERR_INVALID_TYPE, ctx, node,
                                 {"expected": types_str,
                                  "given": TYPE_INTEGER if isi else TYPE_NUMBER})
                return
            self._validate_schema(node, result, ctx)
            self._validate_number(node, result, ctx)
            self._validate_common(node, result, ctx)
        elif isinstance(node, bool):
            if self.types is not None and TYPE_BOOLEAN not in self.types:
                result.add_error(E.ERR_INVALID_TYPE, ctx, node,
                                 {"expected": types_str, "given": TYPE_BOOLEAN})
                return
            self._validate_schema(node, result, ctx)
            self._validate_common(node, result, ctx)
        elif isinstance(node, str):
            if self.types is not None and TYPE_STRING not in self.types:
                result.add_error(E.ERR_INVALID_TYPE, ctx, node,
                                 {"expected": types_str, "given": TYPE_STRING})
                return
            self._validate_schema(node, result, ctx)
            self._validate_common(node, result, ctx)
            self._validate_string(node, result, ctx)
        elif isinstance(node, (list, tuple)):
            if self.types is not None and TYPE_ARRAY not in self.types:
                result.add_error(E.ERR_INVALID_TYPE, ctx, node,
                                 {"expected": types_str, "given": TYPE_ARRAY})
                return
            self._validate_schema(node, result, ctx)
            self._validate_array(node, result, ctx)
            self._validate_common(node, result, ctx)
        elif isinstance(node, dict):
            if self.types is not None and TYPE_OBJECT not in self.types:
                result.add_error(E.ERR_INVALID_TYPE, ctx, node,
                                 {"expected": types_str, "given": TYPE_OBJECT})
                return
            self._validate_schema(node, result, ctx)
            self._validate_object(node, result, ctx)
            self._validate_common(node, result, ctx)
            for p_schema in self.properties:
                if p_schema.property in node:
                    p_schema._validate_recursive(
                        node[p_schema.property], result, f"{ctx}.{p_schema.property}"
                    )
        else:
            raise TypeError(f"not a JSON value: {type(node).__name__}")
        result.increment_score()

    def _validate_schema(self, node, result: Result, ctx: str):
        """Combinators + dependencies + if/then/else (validation.go:270-397)."""
        if self.any_of:
            validated = False
            best = None
            for sub in self.any_of:
                if not validated:
                    r = sub._sub_validate(node, ctx)
                    validated = r.valid()
                    if not validated and (best is None or r.score > best.score):
                        best = r
            if not validated:
                result.add_error(E.ERR_ANY_OF, ctx, node)
                if best is not None:
                    result.merge_errors(best)

        if self.one_of:
            nb = 0
            best = None
            for sub in self.one_of:
                r = sub._sub_validate(node, ctx)
                if r.valid():
                    nb += 1
                elif nb == 0 and (best is None or r.score > best.score):
                    best = r
            if nb != 1:
                result.add_error(E.ERR_ONE_OF, ctx, node)
                if nb == 0 and best is not None:
                    result.merge_errors(best)

        if self.all_of:
            nb = 0
            for sub in self.all_of:
                r = sub._sub_validate(node, ctx)
                if r.valid():
                    nb += 1
                result.merge_errors(r)
            if nb != len(self.all_of):
                result.add_error(E.ERR_ALL_OF, ctx, node)

        if self.not_ is not None:
            r = self.not_._sub_validate(node, ctx)
            if r.valid():
                result.add_error(E.ERR_NOT, ctx, node)

        if self.dependencies and isinstance(node, dict):
            for key in node:
                dep = self.dependencies.get(key)
                if dep is None:
                    continue
                if isinstance(dep, list):
                    for need in dep:
                        if need not in node:
                            result.add_error(E.ERR_MISSING_DEPENDENCY, ctx, node,
                                             {"dependency": need})
                else:
                    dep._validate_recursive(node, result, ctx)

        if self.if_ is not None:
            r_if = self.if_._sub_validate(node, ctx)
            if self.then_ is not None and r_if.valid():
                r_then = self.then_._sub_validate(node, ctx)
                if not r_then.valid():
                    result.add_error(E.ERR_CONDITION_THEN, ctx, node)
                    result.merge_errors(r_then)
            if self.else_ is not None and not r_if.valid():
                r_else = self.else_._sub_validate(node, ctx)
                if not r_else.valid():
                    result.add_error(E.ERR_CONDITION_ELSE, ctx, node)
                    result.merge_errors(r_else)
        result.increment_score()

    def _validate_common(self, value, result: Result, ctx: str):
        """const / enum / format apply to every kind (validation.go:402-453)."""
        if self.const is not _UNSET:
            if canonical(value) != self.const:
                result.add_error(E.ERR_CONST, ctx, value, {"allowed": self.const})
        if self.enum is not None:
            if canonical(value) not in self.enum:
                result.add_error(E.ERR_ENUM, ctx, value,
                                 {"allowed": self.describe_constraint("enum")})
        if self.format:
            ok = (self.format_fn(value) if self.format_fn is not None
                  else FORMATS.is_format(self.format, value))
            if not ok:
                result.add_error(E.ERR_FORMAT, ctx, value, {"format": self.format})
        result.increment_score()

    def _validate_array(self, value, result: Result, ctx: str):
        n = len(value)
        if self.items_single and self.items:
            child = self.items[0]
            for i, v in enumerate(value):
                r = child._sub_validate(v, f"{ctx}.{i}")
                result.merge_errors(r)
        elif self.items:
            nb_items = len(self.items)
            for i in range(min(nb_items, n)):
                r = self.items[i]._sub_validate(value[i], f"{ctx}.{i}")
                result.merge_errors(r)
            if nb_items < n:
                if self.additional_items is False:
                    result.add_error(E.ERR_NO_ADDITIONAL_ITEMS, ctx, value)
                elif isinstance(self.additional_items, CompiledSchema):
                    for i in range(nb_items, n):
                        r = self.additional_items._sub_validate(value[i], f"{ctx}.{i}")
                        result.merge_errors(r)
        if self.min_items is not None and n < self.min_items:
            result.add_error(E.ERR_MIN_ITEMS, ctx, value, {"min": self.min_items})
        if self.max_items is not None and n > self.max_items:
            result.add_error(E.ERR_MAX_ITEMS, ctx, value, {"max": self.max_items})
        if self.unique_items:
            seen = {}
            for j, v in enumerate(value):
                c = canonical(v)
                if c in seen:
                    result.add_error(E.ERR_UNIQUE, ctx, value,
                                     {"type": TYPE_ARRAY, "i": seen[c], "j": j})
                seen[c] = j
        if self.contains is not None:
            found = False
            best = None
            for i, v in enumerate(value):
                r = self.contains._sub_validate(v, f"{ctx}.{i}")
                if r.valid():
                    found = True
                    break
                if best is None or r.score > best.score:
                    best = r
            if not found:
                result.add_error(E.ERR_CONTAINS, ctx, value)
                if best is not None:
                    result.merge_errors(best)
        result.increment_score()

    def _validate_object(self, value: dict, result: Result, ctx: str):
        n = len(value)
        if self.min_properties is not None and n < self.min_properties:
            result.add_error(E.ERR_MIN_PROPERTIES, ctx, value, {"min": self.min_properties})
        if self.max_properties is not None and n > self.max_properties:
            result.add_error(E.ERR_MAX_PROPERTIES, ctx, value, {"max": self.max_properties})
        for req in self.required:
            if req in value:
                result.increment_score()
            else:
                result.add_error(E.ERR_REQUIRED, ctx, value, {"property": req})

        prop_names = self._prop_name_set
        if prop_names is None:  # computed once; invariant after compile
            prop_names = frozenset(p.property for p in self.properties)
            self._prop_name_set = prop_names
        for pk, pv in value.items():
            pp_match = False
            for _, (rx, sub) in self.pattern_properties.items():
                if rx.search(pk):
                    pp_match = True
                    r = sub._sub_validate(pv, f"{ctx}.{pk}")
                    result.merge_errors(r)
            if pp_match:
                result.increment_score()
            if pk in prop_names or pp_match:
                continue
            ap = self.additional_properties
            if ap is False:
                result.add_error(E.ERR_ADDITIONAL_PROPERTY, ctx, pv, {"property": pk})
            elif isinstance(ap, CompiledSchema):
                r = ap._sub_validate(pv, f"{ctx}.{pk}")
                result.merge_errors(r)

        if self.property_names is not None:
            for pk in value:
                r = self.property_names._sub_validate(pk, ctx)
                if not r.valid():
                    result.add_error(E.ERR_INVALID_PROPERTY_NAME, ctx, value,
                                     {"property": pk})
                    result.merge_errors(r)
        result.increment_score()

    def _validate_string(self, value, result: Result, ctx: str):
        if not isinstance(value, str):
            return
        n = len(value)  # Python str length == rune count (utf8.RuneCount parity)
        if self.min_length is not None and n < self.min_length:
            result.add_error(E.ERR_STRING_GTE, ctx, value, {"min": self.min_length})
        if self.max_length is not None and n > self.max_length:
            result.add_error(E.ERR_STRING_LTE, ctx, value, {"max": self.max_length})
        if self.pattern is not None and not self.pattern.search(value):
            result.add_error(E.ERR_PATTERN, ctx, value, {"pattern": self.pattern_src})
        result.increment_score()

    def _validate_number(self, value, result: Result, ctx: str):
        if not is_number(value):
            return
        f = to_fraction(value)
        if self.multiple_of is not None:
            if (f / self.multiple_of).denominator != 1:
                result.add_error(E.ERR_MULTIPLE_OF, ctx, value,
                                 {"multiple": self.multiple_of})
        if self.maximum is not None and f > self.maximum:
            result.add_error(E.ERR_NUMBER_LTE, ctx, value, {"max": self.maximum})
        if self.exclusive_maximum is not None and f >= self.exclusive_maximum:
            result.add_error(E.ERR_NUMBER_LT, ctx, value, {"max": self.exclusive_maximum})
        if self.minimum is not None and f < self.minimum:
            result.add_error(E.ERR_NUMBER_GTE, ctx, value, {"min": self.minimum})
        if self.exclusive_minimum is not None and f <= self.exclusive_minimum:
            result.add_error(E.ERR_NUMBER_GT, ctx, value, {"min": self.exclusive_minimum})
        result.increment_score()

    def describe_constraint(self, keyword: str) -> str:
        """Render the expected-side of a violation row for one keyword."""
        m = {
            "minimum": lambda: f">= {self.minimum}",
            "maximum": lambda: f"<= {self.maximum}",
            "exclusiveMinimum": lambda: f"> {self.exclusive_minimum}",
            "exclusiveMaximum": lambda: f"< {self.exclusive_maximum}",
            "multipleOf": lambda: f"multipleOf {self.multiple_of}",
            "minLength": lambda: f"minLength {self.min_length}",
            "maxLength": lambda: f"maxLength {self.max_length}",
            "pattern": lambda: f"pattern {self.pattern_src}",
            "format": lambda: f"format {self.format}",
            "type": lambda: f"type {','.join(self.types or ())}",
            "required": lambda: f"required {self.required}",
            "enum": lambda: "enum",
            "const": lambda: "const",
        }
        fn = m.get(keyword)
        return fn() if fn else keyword


class Compiler:
    """SchemaLoader analog: pool + draft config + compile entry."""

    def __init__(self, registry: Registry | None = None, draft: int = HYBRID,
                 auto_detect: bool = True, validate_schema: bool = False):
        self.registry = registry if registry is not None else Registry(auto_detect)
        self.registry.auto_detect = auto_detect
        self.draft = draft
        self.auto_detect = auto_detect
        self.validate_schema = validate_schema
        self._reference_pool: dict[str, CompiledSchema] = {}

    # SchemaLoader.Compile analog (schemaLoader.go:147-206)
    def compile(self, document=None, url: str = "") -> CompiledSchema:
        url = normalize_ref(url)
        if url:
            doc, _pool_draft = self.registry.get_document(url)
        else:
            from copy import deepcopy

            doc = deepcopy(document)
            self.registry.parse_references(doc, url, pooled=True)

        if self.validate_schema:
            self._validate_metaschema(doc)

        draft = self.draft
        if self.auto_detect:
            detected = detect_draft(doc)
            if detected is not None:
                draft = detected

        root = CompiledSchema()
        root.draft = draft
        root.ref = url
        root.id = url
        self._document_ref = url
        self._parse(doc, root)
        return root

    def _validate_metaschema(self, doc):
        """schemaLoader.go:48-92: validate the schema against its draft meta-schema."""
        url = None
        if self.auto_detect and isinstance(doc, dict):
            s = doc.get("$schema")
            if s is not None:
                if not isinstance(s, str):
                    raise SchemaError("$schema must be of type string")
                url = s
        if url is None:
            if self.draft == HYBRID:
                return
            url = meta_schema_url_for(self.draft)
            if url is None:
                return
        sub = Compiler(registry=self.registry, draft=self.draft,
                       auto_detect=self.auto_detect, validate_schema=False)
        meta = sub.compile(url=normalize_ref(url))
        result = meta.validate(doc)
        if not result.valid():
            raise SchemaError("; ".join(repr(e) for e in result.errors))

    # ------------------------------------------------------------------
    # parseSchema analog
    # ------------------------------------------------------------------
    def _parse(self, m, cur: CompiledSchema):
        if cur.draft is None:
            if cur.parent is None:
                raise SchemaError("draft not set")
            cur.draft = cur.parent.draft

        if cur.draft >= DRAFT6 and isinstance(m, bool):
            cur.pass_ = m
            return

        if not isinstance(m, dict):
            raise SchemaError("expected: valid schema, given: invalid type")

        if cur.id is None and cur.parent is not None:
            cur.id = cur.parent.id

        # id / $id scope (draft4 uses "id"; Hybrid prefers "id" when present)
        if cur.draft == DRAFT4:
            key_id = "id"
        elif cur.draft == HYBRID:
            key_id = "id" if "id" in m else "$id"
        else:
            key_id = "$id"
        if key_id in m:
            if not isinstance(m[key_id], str):
                raise SchemaError(f"{key_id} must be of type string")
            if cur.parent is None:
                # root keeps the raw $id reference (schema.go:142-143)
                cur.id = normalize_ref(m[key_id])
            else:
                cur.id = inherits(cur.parent.id or "", m[key_id])

        # definitions
        if "definitions" in m:
            defs = m["definitions"]
            if not isinstance(defs, dict):
                raise SchemaError("definitions must be an object of schemas")
            for dv in defs.values():
                if not _is_schema_kind(dv):
                    raise SchemaError("definitions must be an object of schemas")
                child = CompiledSchema(property="definitions", parent=cur)
                self._parse(dv, child)

        if "title" in m:
            if not isinstance(m["title"], str):
                raise SchemaError("title must be of type string")
            cur.title = m["title"]
        if "description" in m:
            if not isinstance(m["description"], str):
                raise SchemaError("description must be of type string")
            cur.description = m["description"]

        # $ref — delegates entirely; sibling keywords ignored (schema.go:221-247)
        if "$ref" in m:
            if not isinstance(m["$ref"], str):
                raise SchemaError("$ref must be of type string")
            cur.ref = normalize_ref(m["$ref"])
            pooled = self._reference_pool.get(cur.ref)
            if pooled is not None:
                cur.ref_schema = pooled
                return
            self._parse_reference(cur)
            return

        # type
        if "type" in m:
            t = m["type"]
            if isinstance(t, str):
                self._add_type(cur, t)
            elif isinstance(t, list):
                for ti in t:
                    if not isinstance(ti, str):
                        raise SchemaError("type must be string or array of strings")
                    self._add_type(cur, ti)
            else:
                raise SchemaError("type must be string or array of strings")

        # properties
        if "properties" in m:
            props = m["properties"]
            if not isinstance(props, dict):
                raise SchemaError("properties must be an object of schemas")
            for k, v in props.items():
                if not _is_schema_kind(v):
                    raise SchemaError("properties values must be schemas")
                child = CompiledSchema(property=k, parent=cur)
                self._parse(v, child)
                cur.properties.append(child)

        # additionalProperties
        if "additionalProperties" in m:
            ap = m["additionalProperties"]
            if isinstance(ap, bool):
                cur.additional_properties = ap
            elif isinstance(ap, dict):
                child = CompiledSchema(property="additionalProperties", parent=cur)
                self._parse(ap, child)
                cur.additional_properties = child
            else:
                raise SchemaError("additionalProperties must be boolean or schema")

        # patternProperties
        if "patternProperties" in m:
            pp = m["patternProperties"]
            if not isinstance(pp, dict):
                raise SchemaError("patternProperties must be an object of schemas")
            for k, v in pp.items():
                rx = Re2Pattern(k)  # RE2 validity enforced at compile time
                child = CompiledSchema(property=k, parent=cur)
                self._parse(v, child)
                cur.pattern_properties[k] = (rx, child)

        # propertyNames (>= draft6; silently ignored below)
        if "propertyNames" in m and cur.draft >= DRAFT6:
            pn = m["propertyNames"]
            if not _is_schema_kind(pn):
                raise SchemaError("propertyNames must be a schema")
            child = CompiledSchema(property="propertyNames", parent=cur)
            self._parse(pn, child)
            cur.property_names = child

        # dependencies
        if "dependencies" in m:
            deps = m["dependencies"]
            if not isinstance(deps, dict):
                raise SchemaError("dependencies must be an object")
            for k, v in deps.items():
                if isinstance(v, list):
                    names = []
                    for x in v:
                        if not isinstance(x, str):
                            raise SchemaError("dependency arrays must hold strings")
                        names.append(x)
                    cur.dependencies[k] = names
                elif _is_schema_kind(v):
                    child = CompiledSchema(property=k, parent=cur)
                    self._parse(v, child)
                    cur.dependencies[k] = child
                else:
                    raise SchemaError("dependency must be a schema or array of strings")

        # items / additionalItems
        if "items" in m:
            it = m["items"]
            if isinstance(it, list):
                for el in it:
                    if not _is_schema_kind(el):
                        raise SchemaError("items must be schema or array of schemas")
                    child = CompiledSchema(property="items", parent=cur)
                    self._parse(el, child)
                    cur.items.append(child)
                cur.items_single = False
            elif _is_schema_kind(it):
                child = CompiledSchema(property="items", parent=cur)
                self._parse(it, child)
                cur.items.append(child)
                cur.items_single = True
            else:
                raise SchemaError("items must be schema or array of schemas")

        if "additionalItems" in m:
            ai = m["additionalItems"]
            if isinstance(ai, bool):
                cur.additional_items = ai
            elif isinstance(ai, dict):
                child = CompiledSchema(property="additionalItems", parent=cur)
                self._parse(ai, child)
                cur.additional_items = child
            else:
                raise SchemaError("additionalItems must be boolean or schema")

        # numbers
        if "multipleOf" in m:
            v = _must_be_fraction(m["multipleOf"])
            if v is None:
                raise SchemaError("multipleOf must be a number")
            if v <= 0:
                raise SchemaError("multipleOf must be strictly greater than 0")
            cur.multiple_of = v
        if "minimum" in m:
            v = _must_be_fraction(m["minimum"])
            if v is None:
                raise SchemaError("minimum must be a number")
            cur.minimum = v
        if "exclusiveMinimum" in m:
            self._parse_exclusive(cur, m["exclusiveMinimum"], is_min=True)
        if "maximum" in m:
            v = _must_be_fraction(m["maximum"])
            if v is None:
                raise SchemaError("maximum must be a number")
            cur.maximum = v
        if "exclusiveMaximum" in m:
            self._parse_exclusive(cur, m["exclusiveMaximum"], is_min=False)

        # strings
        if "minLength" in m:
            v = _must_be_int(m["minLength"])
            if v is None:
                raise SchemaError("minLength must be an integer")
            if v < 0:
                raise SchemaError("minLength must be greater than or equal to 0")
            cur.min_length = v
        if "maxLength" in m:
            v = _must_be_int(m["maxLength"])
            if v is None:
                raise SchemaError("maxLength must be an integer")
            if v < 0:
                raise SchemaError("maxLength must be greater than or equal to 0")
            cur.max_length = v
        if cur.min_length is not None and cur.max_length is not None:
            if cur.min_length > cur.max_length:
                raise SchemaError("minLength cannot be greater than maxLength")

        if "pattern" in m:
            if not isinstance(m["pattern"], str):
                raise SchemaError("pattern must be a string")
            # RE2 compile check + RE2-backed matcher: the reference's Go
            # regexp IS RE2, and the vectorized path runs the same kernel
            cur.pattern = Re2Pattern(m["pattern"])
            cur.pattern_src = m["pattern"]

        if "format" in m:
            if not isinstance(m["format"], str):
                raise SchemaError("format must be a string")
            cur.format = m["format"]
            # custom checkers (new names, or overrides of a built-in) live
            # in the driver's process-global registry; Ray workers re-import
            # the module with only builtins, so capture the fn in the tree —
            # if it can't pickle, shipping fails loudly instead of silently
            # passing every row
            from .formats import _BUILTINS

            fn, vector_fn = FORMATS.get(cur.format)
            if fn is not _BUILTINS.get(cur.format):
                cur.format_fn, cur.format_vector_fn = fn, vector_fn

        # objects
        if "minProperties" in m:
            v = _must_be_int(m["minProperties"])
            if v is None:
                raise SchemaError("minProperties must be an integer")
            if v < 0:
                raise SchemaError("minProperties must be greater than or equal to 0")
            cur.min_properties = v
        if "maxProperties" in m:
            v = _must_be_int(m["maxProperties"])
            if v is None:
                raise SchemaError("maxProperties must be an integer")
            if v < 0:
                raise SchemaError("maxProperties must be greater than or equal to 0")
            cur.max_properties = v
        if (cur.min_properties is not None and cur.max_properties is not None
                and cur.min_properties > cur.max_properties):
            raise SchemaError("minProperties cannot be greater than maxProperties")

        if "required" in m:
            req = m["required"]
            if not isinstance(req, list):
                raise SchemaError("required must be an array")
            for rv in req:
                if not isinstance(rv, str):
                    raise SchemaError("required items must be strings")
                if rv in cur.required:
                    raise SchemaError("required items must be unique")
                cur.required.append(rv)

        # arrays
        if "minItems" in m:
            v = _must_be_int(m["minItems"])
            if v is None:
                raise SchemaError("minItems must be an integer")
            if v < 0:
                raise SchemaError("minItems must be greater than or equal to 0")
            cur.min_items = v
        if "maxItems" in m:
            v = _must_be_int(m["maxItems"])
            if v is None:
                raise SchemaError("maxItems must be an integer")
            if v < 0:
                raise SchemaError("maxItems must be greater than or equal to 0")
            cur.max_items = v
        if "uniqueItems" in m:
            if not isinstance(m["uniqueItems"], bool):
                raise SchemaError("uniqueItems must be a boolean")
            cur.unique_items = m["uniqueItems"]
        if "contains" in m and cur.draft >= DRAFT6:
            child = CompiledSchema(property="contains", parent=cur)
            self._parse(m["contains"], child)
            cur.contains = child

        # common
        if "const" in m and cur.draft >= DRAFT6:
            cur.const = canonical(m["const"])
        if "enum" in m:
            ev = m["enum"]
            if not isinstance(ev, list):
                raise SchemaError("enum must be an array")
            cans = set()
            for v in ev:
                c = canonical(v)
                if c in cans:
                    raise SchemaError("enum items must be unique")
                cans.add(c)
            cur.enum = cans

        # combinators
        for key, target in (("oneOf", "one_of"), ("anyOf", "any_of"), ("allOf", "all_of")):
            if key in m:
                arr = m[key]
                if not isinstance(arr, list):
                    raise SchemaError(f"{key} must be an array")
                out = getattr(cur, target)
                for v in arr:
                    child = CompiledSchema(property=key, parent=cur)
                    self._parse(v, child)
                    out.append(child)

        if "not" in m:
            nv = m["not"]
            if not _is_schema_kind(nv):
                raise SchemaError("not must be an object")
            child = CompiledSchema(property="not", parent=cur)
            self._parse(nv, child)
            cur.not_ = child

        if cur.draft >= DRAFT7:
            for key, attr in (("if", "if_"), ("then", "then_"), ("else", "else_")):
                if key in m:
                    v = m[key]
                    if not _is_schema_kind(v):
                        raise SchemaError(f"{key} must be an object")
                    child = CompiledSchema(property=key, parent=cur)
                    self._parse(v, child)
                    setattr(cur, attr, child)

    def _add_type(self, cur: CompiledSchema, t: str):
        if t not in JSON_TYPES:
            raise SchemaError(f"has a primitive type that is NOT VALID -- given: {t}")
        if cur.types is None:
            cur.types = (t,)
        else:
            if t in cur.types:
                raise SchemaError(f"type {t} duplicated")
            cur.types = cur.types + (t,)

    def _parse_exclusive(self, cur: CompiledSchema, v, is_min: bool):
        """Draft-4 boolean form rewrites minimum/maximum; draft-6+ numeric form
        (schema.go:477-606)."""
        name = "exclusiveMinimum" if is_min else "exclusiveMaximum"
        base = "minimum" if is_min else "maximum"
        if cur.draft == DRAFT4 or (cur.draft == HYBRID and isinstance(v, bool)):
            if not isinstance(v, bool):
                raise SchemaError(f"{name} must be a boolean")
            bound = getattr(cur, base)
            if bound is None:
                raise SchemaError(f"{name} cannot be used without {base}")
            if v:
                setattr(cur, "exclusive_minimum" if is_min else "exclusive_maximum", bound)
                setattr(cur, base, None)
        else:
            f = _must_be_fraction(v)
            if f is None:
                raise SchemaError(f"{name} must be a number")
            setattr(cur, "exclusive_minimum" if is_min else "exclusive_maximum", f)

    # parseReference analog (schema.go:968-1008)
    def _parse_reference(self, cur: CompiledSchema):
        new_schema = CompiledSchema(property="$ref", parent=cur)
        # register BEFORE parsing the body so cycles find the placeholder
        self._reference_pool[cur.ref] = new_schema
        doc, draft = self.registry.get_document(cur.ref)
        new_schema.id = cur.ref
        new_schema.draft = draft
        if not _is_schema_kind(doc):
            raise SchemaError("schema must be an object or boolean")
        self._parse(doc, new_schema)
        cur.ref_schema = new_schema


def compile_schema(document=None, *, url: str = "", draft: int = HYBRID,
                   registry: Registry | None = None, auto_detect: bool = True,
                   validate_schema: bool = False) -> CompiledSchema:
    """One-call entry: compile a schema document (or a pooled URL) to a
    ConstraintTree. Compile once on the driver; reuse across map_batches."""
    c = Compiler(registry=registry, draft=draft, auto_detect=auto_detect,
                 validate_schema=validate_schema)
    return c.compile(document, url=url)


def validate(schema_document, instance, *, draft: int = HYBRID,
             registry: Registry | None = None) -> Result:
    """gojsonschema.Validate analog (one-shot compile + validate)."""
    return compile_schema(schema_document, draft=draft, registry=registry).validate(instance)
