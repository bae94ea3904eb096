"""The span tracer in perfbench/ wraps program functions by module and
attribute name, so a refactor that moves or drops one of those names must
fail here rather than only in a traced benchmark run."""

import importlib
import importlib.util
import sys
from pathlib import Path

TRACING = Path(__file__).resolve().parent.parent / "perfbench" / "tracing.py"


def load_tracing(monkeypatch):
    monkeypatch.setattr(sys, "dont_write_bytecode", True)  # leave perfbench/ untouched
    spec = importlib.util.spec_from_file_location("perfbench_tracing", TRACING)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_every_traced_name_is_patched_and_restored(monkeypatch):
    tracing = load_tracing(monkeypatch)
    targets = [(importlib.import_module(m), attr) for m, attr, _ in tracing.FUNCTIONS]
    targets += [(getattr(importlib.import_module(m), cls), attr)
                for m, cls, attr, _ in tracing.METHODS]
    targets += [(importlib.import_module("enclavesim.wire"), "send_frame"),
                (importlib.import_module("enclavesim.pfs.cache").BlockCache, "get")]
    for owner, attr in targets:
        assert attr in vars(owner), f"{owner.__name__}.{attr} is traced but not defined there"
    originals = [vars(owner)[attr] for owner, attr in targets]

    tracer = tracing.Tracer()
    try:
        tracer.install()
        patched = [vars(owner)[attr] for owner, attr in targets]
    finally:
        tracer.uninstall()
    assert all(p is not o for p, o in zip(patched, originals))
    assert all(vars(owner)[attr] is o for (owner, attr), o in zip(targets, originals))
