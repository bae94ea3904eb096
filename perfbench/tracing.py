"""In-memory span tracing by wrapping enclavesim's public functions.

The program itself carries no instrumentation, so the tracer replaces
module and class attributes with wrappers that record a span per call.
Each name is wrapped in the module that looks it up at call time: a
function imported by name (``from .attestation import quote_verify``) is
patched in the importing module, a function reached as ``crypto.kdf`` is
patched once in ``crypto``.

A span is ``[name, start, end, parent, op, bench, raised, child_s]``: times
come from ``time.perf_counter`` (CLOCK_MONOTONIC, comparable across
processes on one host), ``parent`` is the enclosing span on the same
thread (the record itself in memory, its index in a dump), ``op`` the
benchmark operation the thread was running (None in the servers, whose
spans cannot be matched to a request because the wire format carries no
request id), ``bench`` marks spans opened by the benchmark itself
rather than around a program function, and ``raised`` calls that ended
in an exception (a server's last receive on a connection always does,
and may still be running when the server stops, so calls are counted
only when they returned). ``child_s`` accumulates the durations of the
span's children as they close: children run on their parent's thread,
strictly nested, so they never overlap and the span's self time is its
duration minus ``child_s``.
"""

from __future__ import annotations

import importlib
import threading
import time
from collections import Counter, defaultdict
from contextlib import contextmanager

# (module that looks the name up, attribute, span name)
FUNCTIONS = [
    ("enclavesim.crypto", "aead_seal", "crypto.aead_seal"),
    ("enclavesim.crypto", "aead_open", "crypto.aead_open"),
    ("enclavesim.crypto", "kdf", "crypto.kdf"),
    ("enclavesim.crypto", "hash_data", "crypto.hash_data"),
    ("enclavesim.crypto", "sign", "crypto.sign"),
    ("enclavesim.crypto", "verify", "crypto.verify"),
    ("enclavesim.crypto", "dh_generate", "crypto.dh"),
    ("enclavesim.crypto", "dh_shared", "crypto.dh"),
    # no metric of its own: keeps socket waits out of its callers' self time
    ("enclavesim.wire", "recv_frame", "wire.recv_frame"),
    ("enclavesim.enclave", "enclave_start", "enclave.enclave_start"),
    ("enclavesim.enclave", "parse_rows", "enclave.parse_rows"),
    ("enclavesim.enclave", "format_rows", "enclave.format_rows"),
    ("enclavesim.enclave", "compute_measurement", "manifest.compute_measurement"),
    ("enclavesim.enclave", "quote_generate", "attestation.quote_generate"),
    ("enclavesim.channel", "quote_verify", "attestation.quote_verify"),
    ("enclavesim.provisioning", "quote_verify", "attestation.quote_verify"),
    ("enclavesim.provisioning", "attester_handshake", "channel.attester_handshake"),
    ("enclavesim.provisioning", "verifier_handshake", "channel.verifier_handshake"),
    ("enclavesim.pcs_service", "fetch_platform", "pcs_service.fetch_platform"),
]

# (module, class, method, span name); classmethods are detected
METHODS = [
    ("enclavesim.pfs.file", "ProtectedFile", "create", "pfs.create"),
    ("enclavesim.pfs.file", "ProtectedFile", "open", "pfs.open"),
    ("enclavesim.pfs.file", "ProtectedFile", "read", "pfs.read"),
    ("enclavesim.pfs.file", "ProtectedFile", "write", "pfs.write"),
    ("enclavesim.pfs.file", "ProtectedFile", "flush", "pfs.flush"),
    ("enclavesim.enclave", "EnclaveInstance", "workload_compute",
     "enclave.workload_compute"),
    ("enclavesim.channel", "SecureChannel", "send", "channel.send"),
    ("enclavesim.channel", "SecureChannel", "recv", "channel.recv"),
    ("enclavesim.provisioning", "ProvisioningClient", "request",
     "provisioning.request"),
]


class Tracer:
    """Span and counter recorder; wrappers record only while `enabled`."""

    def __init__(self):
        self.enabled = False
        self.spans: list[list] = []
        self.counters: Counter = Counter()
        self._local = threading.local()
        self._lock = threading.Lock()
        self._patched: list = []

    def _stack(self) -> list:
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    def _open(self, name: str, bench: bool) -> list:
        stack = self._stack()
        record = [name, time.perf_counter(), None, stack[-1] if stack else None,
                  getattr(self._local, "op", None), bench, False, 0.0]
        stack.append(record)
        self.spans.append(record)
        return record

    def _close(self, record: list, raised: bool = False) -> None:
        end = record[2] = time.perf_counter()
        record[6] = raised
        if record[3] is not None:
            record[3][7] += end - record[1]
        self._stack().pop()

    @contextmanager
    def span(self, name: str, op=None):
        """A benchmark-made span; `op` tags it and every span under it."""
        if not self.enabled:
            yield
            return
        if op is not None:
            self._local.op = op
        record = self._open(name, bench=True)
        try:
            yield
        finally:
            self._close(record)
            if op is not None:
                self._local.op = None

    def _wrap(self, fn, name: str):
        tracer = self

        def traced(*args, **kwargs):
            if not tracer.enabled:
                return fn(*args, **kwargs)
            record = tracer._open(name, bench=False)
            try:
                result = fn(*args, **kwargs)
            except BaseException:
                tracer._close(record, raised=True)
                raise
            tracer._close(record)
            return result

        traced.__wrapped__ = fn
        return traced

    def _patch(self, owner, attr: str, replacement) -> None:
        self._patched.append((owner, attr, vars(owner)[attr]))
        setattr(owner, attr, replacement)

    def install(self) -> None:
        """Patch every name in FUNCTIONS and METHODS, plus the two counters:
        frames and bytes at `wire.send_frame`, lookups and hits at
        `BlockCache.get`. `uninstall` puts the originals back."""
        self._patched = []
        for module_name, attr, name in FUNCTIONS:
            module = importlib.import_module(module_name)
            self._patch(module, attr, self._wrap(getattr(module, attr), name))
        for module_name, cls_name, attr, name in METHODS:
            cls = getattr(importlib.import_module(module_name), cls_name)
            raw = cls.__dict__[attr]
            if isinstance(raw, classmethod):
                self._patch(cls, attr, classmethod(self._wrap(raw.__func__, name)))
            else:
                self._patch(cls, attr, self._wrap(raw, name))

        wire = importlib.import_module("enclavesim.wire")
        send_frame = wire.send_frame
        tracer = self

        def counted_send(sock, frame_type, payload):
            if tracer.enabled:
                with tracer._lock:
                    tracer.counters["wire.frames"] += 1
                    tracer.counters["wire.bytes"] += 5 + len(payload)
            return send_frame(sock, frame_type, payload)

        self._patch(wire, "send_frame", counted_send)

        cache_cls = importlib.import_module("enclavesim.pfs.cache").BlockCache
        cache_get = cache_cls.get

        def counted_get(cache, node_id):
            value = cache_get(cache, node_id)
            if tracer.enabled:
                with tracer._lock:
                    tracer.counters["pfs.cache.lookups"] += 1
                    if value is not None:
                        tracer.counters["pfs.cache.hits"] += 1
            return value

        self._patch(cache_cls, "get", counted_get)

    def uninstall(self) -> None:
        for owner, attr, original in reversed(self._patched):
            setattr(owner, attr, original)
        self._patched = []

    def finished(self) -> list[list]:
        return [s for s in self.spans if s[2] is not None]

    def dump(self) -> dict:
        """Finished spans with parents as indices, and the counters."""
        spans = self.finished()
        index = {id(s): i for i, s in enumerate(spans)}
        return {"spans": [s[:3] + [index.get(id(s[3]))] + s[4:] for s in spans],
                "counters": dict(self.counters)}


# -- analysis -----------------------------------------------------------------

def load(dumped: list[list]) -> list[list]:
    """Spans from `Tracer.dump`, parents turned back into references."""
    for s in dumped:
        if s[3] is not None:
            s[3] = dumped[s[3]]
    return dumped


def self_time(s) -> float:
    return (s[2] - s[1]) - s[7]


def ancestor_named(s, name: str):
    parent = s[3]
    while parent is not None and parent[0] != name:
        parent = parent[3]
    return parent


def top_level(s) -> bool:
    """A program span with no program span above it."""
    if s[5]:
        return False
    parent = s[3]
    while parent is not None:
        if not parent[5]:
            return False
        parent = parent[3]
    return True


def layer_totals(processes: list[list[list]]) -> dict:
    """name -> {calls, ms, self_ms} summed over the spans of every process;
    `calls` counts the calls that returned, the times cover all of them."""
    totals: dict = defaultdict(lambda: {"calls": 0, "ms": 0.0, "self_ms": 0.0})
    for spans in processes:
        for s in spans:
            t = totals[s[0]]
            t["calls"] += not s[6]
            t["ms"] += (s[2] - s[1]) * 1e3
            t["self_ms"] += self_time(s) * 1e3
    return totals


def calls_under(processes: list[list[list]], name: str, ancestor: str) -> int:
    return sum(1 for spans in processes for s in spans
               if s[0] == name and ancestor_named(s, ancestor) is not None)


def coverage(spans: list[list], op_span: str) -> float:
    """Share of operation wall time covered by top-level program spans."""
    op_time = sum(s[2] - s[1] for s in spans if s[0] == op_span)
    covered = sum(s[2] - s[1] for s in spans if top_level(s))
    return covered / op_time if op_time else 0.0


def per_kind_calls(spans: list[list], kind_span: str, names: list[str]) -> dict:
    """Mean calls of each name under spans named `kind_span`, per such span."""
    kinds = sum(1 for s in spans if s[0] == kind_span)
    counts = Counter(s[0] for s in spans
                     if s[0] in names and ancestor_named(s, kind_span) is not None)
    return {n: counts[n] / kinds if kinds else 0.0 for n in names}
