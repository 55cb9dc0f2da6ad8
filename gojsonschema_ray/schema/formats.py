"""Format checkers — the 17 built-ins of the reference plus a user-extensible
registry (reference ``format_checkers.go:110-368``).

Contract (mirrors the reference exactly):
- unknown format name  -> always valid (``format_checkers.go:182-185``)
- non-string input     -> valid for every built-in (type-assert escape,
  ``format_checkers.go:192-195``), but *custom* checkers may target any kind
  (``format_checkers_test.go:29-143``)
- ``format`` applies to every value kind via the common validator
  (``validation.go:444-453``)

Two evaluation surfaces:
- scalar: ``is_format(name, value) -> bool`` (generic/row path)
- vectorized: ``vector_is_format(name, arr) -> pyarrow.BooleanArray`` for the
  hot table path. ``date``, ``uuid`` and the two json-pointers run as exact
  Arrow kernels (``format_kernels.py``: a regex, plus range checks on the
  fixed-position digit fields of a date). The other built-ins
  (``_DICTIONARY_PATH``) and custom names go through a distinct-value
  dictionary: the scalar checker runs once per distinct value.
"""

from __future__ import annotations

import ipaddress
import re
import threading
from datetime import datetime
from typing import Callable

# ---------------------------------------------------------------------------
# Scalar checkers
# ---------------------------------------------------------------------------

# Pattern bodies of the scalar checkers (Python re, anchored with \Z); date,
# uuid and the json-pointers are shared with the Arrow kernels (RE2, anchored
# with $, which never matches before a trailing newline). [0-9], not \d:
# Go's time.Parse reads ASCII digits only.
_DATE = r"([0-9]{4})-([0-9]{2})-([0-9]{2})"
# Go's time.Parse accepts a fractional second after the seconds field even
# when the layout omits it — mirror that ((\.[0-9]+)? below).
_HMS = r"([0-9]{2}):([0-9]{2}):([0-9]{2})(\.[0-9]+)?"
_OFFSET = r"(Z|[+-][0-9]{2}:[0-9]{2})"
# Hostname per the reference (format_checkers.go:133): labels of 1-63
# alphanumeric/hyphen chars, not starting/ending with hyphen; total len < 256.
_RX_HOSTNAME = re.compile(
    r"^([a-zA-Z0-9]|[a-zA-Z0-9][a-zA-Z0-9\-]{0,61}[a-zA-Z0-9])"
    r"(\.([a-zA-Z0-9]|[a-zA-Z0-9][a-zA-Z0-9\-]{0,61}[a-zA-Z0-9]))*\Z"
)

_UUID = r"[a-fA-F0-9]{8}-[a-fA-F0-9]{4}-[a-fA-F0-9]{4}-[a-fA-F0-9]{4}-[a-fA-F0-9]{12}"
_JSON_POINTER = r"(?:/(?:[^~/]|~0|~1)*)*"
_REL_JSON_POINTER = r"(?:0|[1-9][0-9]*)(?:#|" + _JSON_POINTER + ")"

_RX_DATE = re.compile("^" + _DATE + r"\Z")
_RX_TIME_OFFSET = re.compile("^" + _HMS + _OFFSET + r"\Z")
_RX_TIME_PLAIN = re.compile("^" + _HMS + r"\Z")
_RX_DATETIME = re.compile("^" + _DATE + "T" + _HMS + _OFFSET + r"\Z")
_RX_UUID = re.compile("^" + _UUID + r"\Z")
_RX_JSON_POINTER = re.compile("^" + _JSON_POINTER + r"\Z")
_RX_REL_JSON_POINTER = re.compile("^" + _REL_JSON_POINTER + r"\Z")
_RX_URI_TEMPLATE_BRACES = re.compile(r"^([^{}]*(\{[^{}]*\})?)*\Z")
# RFC5322-ish addr-spec: dot-atom or quoted-string local part, dot-atom or
# [literal] domain; optional display-name with angle brackets (mail.ParseAddress
# accepts name-addr form, format_checkers.go:191-199).
# Go's mail.ParseAddress accepts UTF-8 atext (RFC 6532) — include non-ASCII.
_ATEXT = r"(?:[A-Za-z0-9!#$%&'*+/=?^_`{|}~\-]|[^\x00-\x7f])"
_ALNUM = r"(?:[A-Za-z0-9]|[^\x00-\x7f])"
_LABEL = rf"{_ALNUM}(?:(?:[A-Za-z0-9\-]|[^\x00-\x7f])*{_ALNUM})?"
_RX_ADDR_SPEC = re.compile(
    rf"^(?:{_ATEXT}+(?:\.{_ATEXT}+)*|\"(?:[^\"\\]|\\.)*\")"
    rf"@(?:{_LABEL}(?:\.{_LABEL})*|\[[^\[\]]+\])\Z"
)
_RX_PCT_BAD = re.compile(r"%(?![0-9A-Fa-f]{2})")
_RX_CTRL_OR_SPACE_IN_AUTHORITY = re.compile(r"[\x00-\x20]")


def _valid_hms(h: str, m: str, s: str) -> bool:
    return int(h) < 24 and int(m) < 60 and int(s) < 60


def check_date(v) -> bool:
    if not isinstance(v, str):
        return True
    if not _RX_DATE.match(v):
        return False
    try:
        datetime.strptime(v, "%Y-%m-%d")
        return True
    except ValueError:
        return False


def check_time(v) -> bool:
    if not isinstance(v, str):
        return True
    m = _RX_TIME_OFFSET.match(v) or _RX_TIME_PLAIN.match(v)
    return bool(m) and _valid_hms(m.group(1), m.group(2), m.group(3))


def check_datetime(v) -> bool:
    """RFC3339(Nano) — the reference ALSO accepts a bare date or bare time
    (layout cascade at format_checkers.go:226-247)."""
    if not isinstance(v, str):
        return True
    if check_date(v) or check_time(v):
        return True
    m = _RX_DATETIME.match(v)
    if not m:
        return False
    try:
        datetime.strptime(f"{m.group(1)}-{m.group(2)}-{m.group(3)}", "%Y-%m-%d")
    except ValueError:
        return False
    return _valid_hms(m.group(4), m.group(5), m.group(6))


def check_hostname(v) -> bool:
    if not isinstance(v, str):
        return True
    return len(v) < 256 and bool(_RX_HOSTNAME.match(v))


def check_email(v) -> bool:
    if not isinstance(v, str):
        return True
    s = v.strip()
    # name-addr form: optional display name then <addr-spec>
    if s.endswith(">") and "<" in s:
        s = s[s.rindex("<") + 1 : -1]
    return bool(_RX_ADDR_SPEC.match(s))


def check_ipv4(v) -> bool:
    """net.ParseIP(v) ok AND contains "." (format_checkers.go:202-211) —
    IPv4-mapped IPv6 like ::ffff:1.2.3.4 is VALID in the reference."""
    if not isinstance(v, str):
        return True
    if "." not in v or "%" in v:
        return False
    try:
        ipaddress.ip_address(v)
        return True
    except ValueError:
        return False


def check_ipv6(v) -> bool:
    """net.ParseIP(v) ok AND contains ":" — Go rejects zone IDs (%eth0),
    Python's ipaddress accepts them, so reject '%' explicitly."""
    if not isinstance(v, str):
        return True
    if ":" not in v or "%" in v:
        return False
    try:
        ipaddress.ip_address(v)
        return True
    except ValueError:
        return False


def _uri_parse_ok(v: str) -> bool:
    """Approximate Go's url.Parse failure modes: backslash anywhere fails the
    reference checkers explicitly; bad percent escapes and control chars /
    spaces in the authority or path fail parsing."""
    if "\\" in v:
        return False
    if _RX_PCT_BAD.search(v):
        return False
    # control characters anywhere fail url.Parse; SPACES are legal in the
    # path (Go's url.Parse accepts "http://h/a b") but not in the authority
    if any(ord(c) < 0x20 or c == "\x7f" for c in v):
        return False
    rest = v.split("#", 1)[0]
    if "//" in rest:
        authority = rest.split("//", 1)[1].split("/", 1)[0].split("?", 1)[0]
        if _RX_CTRL_OR_SPACE_IN_AUTHORITY.search(authority):
            return False
    return True


def _scheme_of(v: str) -> str:
    m = re.match(r"^([A-Za-z][A-Za-z0-9+\-.]*):", v)
    return m.group(1) if m else ""


def check_uri(v) -> bool:
    if not isinstance(v, str):
        return True
    return _uri_parse_ok(v) and _scheme_of(v) != ""


def check_uri_reference(v) -> bool:
    if not isinstance(v, str):
        return True
    return _uri_parse_ok(v)


def check_uri_template(v) -> bool:
    if not isinstance(v, str):
        return True
    if not _uri_parse_ok(v):
        return False
    # the reference checks brace balance on the *path* component only
    path = v.split("#", 1)[0].split("?", 1)[0]
    if "://" in path:
        path = path.split("://", 1)[1]
        path = path[path.find("/") :] if "/" in path else ""
    return bool(_RX_URI_TEMPLATE_BRACES.match(path))


def check_uuid(v) -> bool:
    if not isinstance(v, str):
        return True
    return bool(_RX_UUID.match(v))


def check_regex(v) -> bool:
    if not isinstance(v, str):
        return True
    if v == "":
        return True
    try:
        re.compile(v)
        return True
    except re.error:
        return False


def check_json_pointer(v) -> bool:
    if not isinstance(v, str):
        return True
    return bool(_RX_JSON_POINTER.match(v))


def check_rel_json_pointer(v) -> bool:
    if not isinstance(v, str):
        return True
    return bool(_RX_REL_JSON_POINTER.match(v))


# ---------------------------------------------------------------------------
# Registry (FormatCheckerChain analog, format_checkers.go:144-188)
# ---------------------------------------------------------------------------

_BUILTINS: dict[str, Callable] = {
    "date": check_date,
    "time": check_time,
    "date-time": check_datetime,
    "hostname": check_hostname,
    "email": check_email,
    "idn-email": check_email,
    "ipv4": check_ipv4,
    "ipv6": check_ipv6,
    "uri": check_uri,
    "iri": check_uri,
    "uri-reference": check_uri_reference,
    "iri-reference": check_uri_reference,
    "uri-template": check_uri_template,
    "uuid": check_uuid,
    "regex": check_regex,
    "json-pointer": check_json_pointer,
    "relative-json-pointer": check_rel_json_pointer,
}

# Built-ins with no Arrow kernel run once per distinct value of a batch:
# their checkers parse (mail, URL, IP, Python regex), or, for time,
# date-time and hostname, no benchmark workload holds such a column to show
# a kernel pays.
_DICTIONARY_PATH = frozenset({
    "time", "date-time", "hostname", "ipv4",
    "email", "idn-email", "ipv6", "uri", "iri", "uri-reference",
    "iri-reference", "uri-template", "regex",
})


class FormatRegistry:
    """Thread-safe, user-extensible (mirrors FormatCheckers.Add/Remove/Has)."""

    def __init__(self):
        self._lock = threading.RLock()
        self._checkers: dict[str, Callable] = dict(_BUILTINS)
        self._vector: dict[str, Callable] = {}

    def register(self, name: str, fn: Callable, vector_fn: Callable | None = None):
        """fn: value -> bool. vector_fn (optional): pa.Array -> pa.BooleanArray."""
        with self._lock:
            self._checkers[name] = fn
            if vector_fn is not None:
                self._vector[name] = vector_fn
        return self

    def remove(self, name: str):
        with self._lock:
            self._checkers.pop(name, None)
            self._vector.pop(name, None)
        return self

    def has(self, name: str) -> bool:
        with self._lock:
            return name in self._checkers

    def get(self, name: str):
        """(scalar_fn, vector_fn|None) — used to capture CUSTOM checkers
        into compiled trees so they ship to Ray workers."""
        with self._lock:
            return self._checkers.get(name), self._vector.get(name)

    def is_format(self, name: str, value) -> bool:
        with self._lock:
            fn = self._checkers.get(name)
        if fn is None:
            return True  # unknown format always passes
        return bool(fn(value))

    def vector_is_format(self, name: str, arr):
        """pa.Array(string) -> pa.BooleanArray of per-value verdicts.

        Null slots return null (caller folds nulls via applicability mask).
        A built-in with an entry in ``format_kernels.KERNELS`` runs as Arrow
        kernels; the rest go through a distinct-value dictionary so the
        scalar checker runs once per distinct value, not per row.
        """
        import pyarrow as pa
        import pyarrow.compute as pc

        from .format_kernels import KERNELS

        with self._lock:
            fn = self._checkers.get(name)
            vfn = self._vector.get(name)
        if fn is None:
            return pa.array([True] * len(arr), type=pa.bool_())
        if vfn is None and fn is _BUILTINS.get(name):
            vfn = KERNELS.get(name)
        if vfn is not None:
            return vfn(arr)
        dictarr = pc.dictionary_encode(arr)
        uniques = dictarr.dictionary if isinstance(dictarr, pa.DictionaryArray) else dictarr.chunk(0).dictionary
        verdicts = pa.array([bool(fn(u)) for u in uniques.to_pylist()], type=pa.bool_())
        indices = dictarr.indices if isinstance(dictarr, pa.DictionaryArray) else pa.chunked_array([c.indices for c in dictarr.chunks]).combine_chunks()
        return pc.take(verdicts, indices)


FORMATS = FormatRegistry()
