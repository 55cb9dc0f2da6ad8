"""JSON data model: the 7 JSON types, exact rational numerics, canonical equality.

Semantics mirror the reference engine (xeipuuv/gojsonschema):

- Numbers are arbitrary-precision *decimal* rationals: the reference decodes
  JSON with ``Decoder.UseNumber()`` and converts every number literal to a
  ``math/big.Rat`` from its decimal text (``utils.go:157-169``), so
  ``0.0075 / 0.0001`` is exactly ``75``.  We mirror this with
  ``fractions.Fraction`` built from the decimal literal (for parsed JSON) or
  from ``repr(float)`` (shortest decimal representation — what a Go float64
  re-marshals to, ``jsonLoader.go:281-313``).
- ``integer`` is the subset of ``number`` with zero fractional part
  (``utils.go:117-125``): ``1.0e+2`` IS an integer.
- Booleans are NOT numbers (Go type switch; Python needs an explicit guard
  because ``bool`` subclasses ``int``).
- Equality for ``enum`` / ``const`` / ``uniqueItems`` is canonical-JSON
  equality (``utils.go:84-104``): ``1``, ``1.0`` and ``1.00`` collapse; objects
  compare unordered; arrays ordered.
"""

from __future__ import annotations

from fractions import Fraction

# The 7 JSON types (reference types.go:29-37).
TYPE_ARRAY = "array"
TYPE_BOOLEAN = "boolean"
TYPE_INTEGER = "integer"
TYPE_NUMBER = "number"
TYPE_NULL = "null"
TYPE_OBJECT = "object"
TYPE_STRING = "string"

JSON_TYPES = frozenset(
    {TYPE_ARRAY, TYPE_BOOLEAN, TYPE_INTEGER, TYPE_NUMBER, TYPE_NULL, TYPE_OBJECT, TYPE_STRING}
)

_NUMBER_TYPES = (int, float, Fraction)


def _reject_constant(name: str):
    raise ValueError(f"{name} is not JSON")


def parse_json(text: str):
    """Parse JSON preserving exact decimal numerics (UseNumber analog).
    ``NaN`` and ``±Infinity`` are rejected, as Go's encoding/json does."""
    import json

    return json.loads(text, parse_float=Fraction, parse_int=int,
                      parse_constant=_reject_constant)


def is_number(v) -> bool:
    return isinstance(v, _NUMBER_TYPES) and not isinstance(v, bool)


def to_fraction(v) -> Fraction:
    """Exact decimal rational of a JSON number (big.Rat analog, utils.go:157-169).

    Floats go through ``repr`` — the shortest decimal round-trip text — so the
    rational carries *decimal* semantics (0.0075 -> 3/400), matching what the
    reference gets from JSON text or a re-marshaled float64.
    """
    if isinstance(v, Fraction):
        return v
    if isinstance(v, bool):
        raise TypeError("boolean is not a number")
    if isinstance(v, int):
        return Fraction(v)
    if isinstance(v, float):
        return Fraction(repr(v))
    raise TypeError(f"not a JSON number: {type(v).__name__}")


def is_integer(v) -> bool:
    """integer ⊂ number with zero fractional part (validation.go:121-123)."""
    if isinstance(v, bool):
        return False
    if isinstance(v, int):
        return True
    if isinstance(v, float):
        return v.is_integer() if v == v and abs(v) != float("inf") else False
    if isinstance(v, Fraction):
        return v.denominator == 1
    return False


def json_type_of(v) -> str:
    """The JSON type name of a Python-decoded value (validation.go:71-267 dispatch)."""
    if v is None:
        return TYPE_NULL
    if isinstance(v, bool):
        return TYPE_BOOLEAN
    if isinstance(v, _NUMBER_TYPES):
        return TYPE_INTEGER if is_integer(v) else TYPE_NUMBER
    if isinstance(v, str):
        return TYPE_STRING
    if isinstance(v, dict):
        return TYPE_OBJECT
    if isinstance(v, (list, tuple)):
        return TYPE_ARRAY
    raise TypeError(f"not a JSON value: {type(v).__name__}")


def canonical(v):
    """Hashable canonical form implementing canonical-JSON equality
    (marshalWithoutNumber, utils.go:84-104): numbers compare mathematically,
    booleans are distinct from numbers, objects are unordered."""
    if v is None:
        return ("z",)
    if isinstance(v, bool):
        return ("b", v)
    if isinstance(v, _NUMBER_TYPES):
        return ("n", to_fraction(v))
    if isinstance(v, str):
        return ("s", v)
    if isinstance(v, (list, tuple)):
        return ("a", tuple(canonical(x) for x in v))
    if isinstance(v, dict):
        return ("o", frozenset((k, canonical(x)) for k, x in v.items()))
    raise TypeError(f"not a JSON value: {type(v).__name__}")


def json_render(v) -> str:
    """Render a value for violation rows / error messages (canonical JSON text)."""
    import json

    def default(o):
        if isinstance(o, Fraction):
            if o.denominator == 1:
                return int(o)
            return float(o)
        raise TypeError

    try:
        return json.dumps(v, default=default, sort_keys=True, ensure_ascii=False)
    except (TypeError, ValueError):
        return repr(v)
