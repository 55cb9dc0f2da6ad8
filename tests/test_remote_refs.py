"""Lazy remote $ref loading (schemaPool.go:187-204): un-preloaded canonical
http refs resolve MID-COMPILE through the registry's http loader, exactly
like the reference fetches them with jsonReferenceLoader.loadFromHTTP
(jsonLoader.go:180-204). The vendored remotes tree is served from a local
HTTP server on localhost:1234 — the same address the reference's own test
server binds (its TestSuite runner serves testdata/remotes there) — so the
refRemote corpus runs WITHOUT any registry preloading. Without the
vendored corpus, the hand-written remotes and refRemote cases under
tests/fixtures/ stand in for it.
"""

import functools
import http.server
import json
import threading
from fractions import Fraction
from pathlib import Path

import pytest

from gojsonschema_ray.schema import (
    DRAFT7, Compiler, Registry, SchemaError, compile_schema,
)

CORPUS = Path("/root/reference/testdata")
FIXTURES = Path(__file__).parent / "fixtures"
if CORPUS.is_dir():
    REMOTES = CORPUS / "remotes"
    REF_REMOTE = CORPUS / "draft7" / "refRemote.json"
else:
    REMOTES = FIXTURES / "remotes"
    REF_REMOTE = FIXTURES / "refRemote.json"


@pytest.fixture(scope="module")
def remote_server():
    """Serve the vendored remotes tree on localhost:1234 (reference test
    server address, so corpus $refs resolve verbatim)."""
    handler = functools.partial(http.server.SimpleHTTPRequestHandler,
                                directory=str(REMOTES))
    handler.log_message = lambda *a, **k: None
    try:
        srv = http.server.ThreadingHTTPServer(("127.0.0.1", 1234), handler)
    except OSError:
        pytest.skip("port 1234 unavailable")
    t = threading.Thread(target=srv.serve_forever, daemon=True)
    t.start()
    yield "http://localhost:1234"
    srv.shutdown()


def _load(path: Path):
    with open(path) as f:
        return json.load(f, parse_float=Fraction, parse_int=int)


def test_lazy_http_ref_no_preload(remote_server):
    """An un-pooled canonical http ref fetches mid-compile — no
    Registry.add preloading anywhere."""
    tree = compile_schema({"$ref": f"{remote_server}/integer.json"},
                          registry=Registry(auto_detect=True))
    assert tree.check(3)
    assert not tree.check("x")


def test_lazy_http_ref_fragment(remote_server):
    """Fragment pointers resolve into the lazily fetched document and the
    whole document is pooled for re-use (one fetch, many refs)."""
    fetches = []

    def counting_loader(url: str) -> str:
        fetches.append(url)
        rel = url.split("localhost:1234/", 1)[1]
        return (REMOTES / rel).read_text()

    reg = Registry(auto_detect=True, http_loader=counting_loader)
    c = Compiler(registry=reg, draft=DRAFT7, auto_detect=True)
    t1 = c.compile({"$ref": "http://localhost:1234/subSchemas.json#/integer"})
    t2 = c.compile({"$ref": "http://localhost:1234/subSchemas.json#/refToInteger"})
    assert t1.check(5) and not t1.check("a")
    assert t2.check(5) and not t2.check("a")
    assert fetches == ["http://localhost:1234/subSchemas.json"]


def test_http_bad_status_error_text(remote_server):
    """Non-200 fetch raises with the reference's error text
    (locales.go:432-435)."""
    with pytest.raises(SchemaError) as exc:
        compile_schema({"$ref": f"{remote_server}/does-not-exist.json"},
                       registry=Registry(auto_detect=True))
    assert "Could not read schema from HTTP, response status is 404" in str(exc.value)


def test_incorrect_ref_error_text():
    """Bad-pointer $ref error text matches schema_test.go:371-382."""
    with pytest.raises(SchemaError) as exc:
        compile_schema({"$ref": "#/fail"})
    assert "Object has no key 'fail'" in str(exc.value)


def test_ref_remote_corpus_without_preload(remote_server):
    """The refRemote.json cases (the official draft7 suite, else the
    hand-written fixtures) pass end-to-end against the live server with an
    EMPTY registry — parity with the reference's remote-ref behavior rather
    than the preload workaround."""
    groups = _load(REF_REMOTE)
    failures = []
    for group in groups:
        if group.get("disabled"):
            continue
        compiler = Compiler(registry=Registry(auto_detect=True), draft=DRAFT7,
                            auto_detect=True, validate_schema=True)
        tree = compiler.compile(group["schema"])
        for case in group["tests"]:
            got = tree.check(case["data"])
            if got != case["valid"]:
                failures.append(f"{group['description']} :: {case['description']}")
    assert not failures, failures
