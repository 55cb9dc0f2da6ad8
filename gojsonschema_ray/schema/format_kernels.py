"""Arrow kernels for the built-in formats whose checkers are a regex plus
integer range checks (``date``) or a regex alone (``uuid`` and the two
json-pointers).

The ``date`` kernel makes one regex pass, then range-checks the digit fields
the regex pinned to fixed positions. Verdicts equal the scalar checkers of
``formats.py`` value for value; a null value stays null. Imported lazily by
``FormatRegistry.vector_is_format``, so ``import gojsonschema_ray`` does not
load pyarrow.
"""

from __future__ import annotations

from typing import Callable

import numpy as np
import pyarrow as pa
import pyarrow.compute as pc

from .formats import _DATE, _JSON_POINTER, _REL_JSON_POINTER, _UUID

_DAYS_IN_MONTH = np.array([0, 31, 28, 31, 30, 31, 30, 31, 31, 30, 31, 30, 31])
# RE2's $ is the end of the text: a trailing newline never matches
_RE2_DATE = "^" + _DATE + "$"


def _digit_fields(arr, rows: np.ndarray, spans) -> list[np.ndarray]:
    """Integer value of each ``(start, stop)`` byte field of the values at
    ``rows``. The caller's regex put ASCII digits there and only ASCII before
    them, so the fields are read straight from the data buffer: one gather,
    no per-field string slicing or casting."""
    if isinstance(arr, pa.ChunkedArray):
        arr = arr.combine_chunks()
    width = max(stop for _, stop in spans)
    _, offsets, data = arr.buffers()
    starts = np.frombuffer(offsets, np.int64 if pa.types.is_large_string(arr.type)
                           else np.int32)[arr.offset + rows]
    c = np.frombuffer(data, np.uint8)[starts[:, None] + np.arange(width)]
    c = c.astype(np.int32) - ord("0")
    return [c[:, a:b] @ (10 ** np.arange(b - a - 1, -1, -1, dtype=np.int32))
            for a, b in spans]


def _vec_date(arr):
    """The YYYY-MM-DD regex, then year >= 1, month 1-12 and a day within the
    Gregorian month. Not pc.strptime: it accepts 2001-02-29 (rolled over to
    March 1) and year 0000."""
    hit = pc.match_substring_regex(arr, _RE2_DATE)
    ok = (hit.fill_null(False) if hit.null_count else hit).to_numpy(zero_copy_only=False)
    rows = np.nonzero(ok)[0]
    if len(rows):
        y, m, d = _digit_fields(arr, rows, [(0, 4), (5, 7), (8, 10)])
        leap = (y % 4 == 0) & ((y % 100 != 0) | (y % 400 == 0))
        month_ok = (m >= 1) & (m <= 12)
        last_day = _DAYS_IN_MONTH[np.where(month_ok, m, 0)] + ((m == 2) & leap)
        ok = ok.copy()
        ok[rows] = (y >= 1) & month_ok & (d >= 1) & (d <= last_day)
    return pa.array(ok, mask=arr.is_null().to_numpy(zero_copy_only=False)
                    if arr.null_count else None)


def _vec_regex(body: str):
    rx = "^" + body + "$"
    return lambda arr: pc.match_substring_regex(arr, rx)


KERNELS: dict[str, Callable] = {
    "date": _vec_date,
    "uuid": _vec_regex(_UUID),
    "json-pointer": _vec_regex(_JSON_POINTER),
    "relative-json-pointer": _vec_regex(_REL_JSON_POINTER),
}
