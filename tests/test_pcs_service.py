import errno
import json
import socket
import struct
import sys
import tempfile
import threading
import time
from collections import Counter
from contextlib import closing
from pathlib import Path

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from enclavesim import attestation, codec, pcs_service, wire
from enclavesim.attestation import (
    PcsDatabase,
    VerificationPolicy,
    quote_generate,
    quote_verify,
)
from enclavesim.codec import canonical_json
from enclavesim.failure import exit_code
from enclavesim.pcs_service import (
    DECODED_SIZE,
    FETCH_RESP,
    PACKED_SIZE,
    POOL_SIZE,
    PcsClientError,
    PcsPool,
    PcsServer,
    fetch_platform,
    register_platform,
    revoke_platform,
)

from foreign_json import FOREIGN_ENCODINGS

NOW = 1_700_000_000


def test_register_and_fetch_over_wire(pcs_server):
    platform, chain = register_platform(pcs_server.address, tcb_level=3)
    fetched_chain, crl = fetch_platform(pcs_server.address, platform.platform_id)
    assert fetched_chain == chain
    assert platform.platform_id not in crl.revoked

    policy = VerificationPolicy(accepted_root=pcs_server.db.root_public_key)
    quote = quote_generate(platform, b"\x01" * 32, b"\x02" * 32, 1, b"\x00" * 64)
    assert quote_verify(quote, fetched_chain, crl, policy, pcs_server.now_source()) is None


def test_fetch_unknown_platform_over_wire(pcs_server):
    with pytest.raises(PcsClientError, match="unknown_platform"):
        fetch_platform(pcs_server.address, b"\x00" * 16)


def test_revoke_over_wire(pcs_server):
    platform, _ = register_platform(pcs_server.address, tcb_level=3)
    crl = revoke_platform(pcs_server.address, platform.platform_id)
    assert platform.platform_id in crl.revoked
    _, fetched_crl = fetch_platform(pcs_server.address, platform.platform_id)
    assert fetched_crl.sequence == crl.sequence


def test_mutations_persisted(pcs_server, tmp_path):
    platform, _ = register_platform(pcs_server.address, tcb_level=3)
    revoke_platform(pcs_server.address, platform.platform_id)
    reloaded = PcsDatabase.load(tmp_path / "pcs.json")
    assert platform.platform_id in reloaded.revoked
    chain, crl = reloaded.fetch(platform.platform_id)
    assert platform.platform_id in crl.revoked


def fetch_replies(db: PcsDatabase) -> dict:
    """Each platform's PCS_FETCH_RESP payload, packed afresh."""
    return {pid: codec.pack(FETCH_RESP, dict(zip(("chain", "crl"), db.fetch(pid))))
            for pid in db.platforms}


def reloaded(db: PcsDatabase, path) -> PcsDatabase:
    """`db` saved to `path` and loaded back, once the reload is shown to
    serve what `db` serves and to resave to the same bytes."""
    db.save(path)
    data = path.read_bytes()
    again = PcsDatabase.load(path)
    assert again.platforms == db.platforms
    assert again.current_crl() == db.current_crl()
    assert fetch_replies(again) == fetch_replies(db)
    again.save(path)
    assert path.read_bytes() == data
    # the file holds facts only: no signature, and no public half of its keys
    assert b'"signature"' not in data
    for key in (db.root_key, db.ca_key):
        assert key.public.hex().encode() not in data
    return again


REGISTRY_OPS = st.lists(st.one_of(
    st.tuples(st.just("register"), st.integers(0, 9), st.integers(0, 10**6)),
    st.tuples(st.just("revoke"), st.integers(0, 7)),
    st.just(("reload",))), max_size=8)


@settings(max_examples=25, deadline=None)
@given(ops=REGISTRY_OPS)
def test_a_reloaded_registry_serves_the_same_bytes(ops):
    db = PcsDatabase.create(now=NOW)
    with tempfile.TemporaryDirectory() as tmp:
        path = Path(tmp) / "pcs.json"
        for op in ops:
            if op[0] == "register":
                db.register(tcb_level=op[1], now=NOW + op[2])
            elif op[0] == "revoke" and db.platforms:
                pid = sorted(db.platforms)[op[1] % len(db.platforms)]
                again = reloaded(db, path)
                assert codec.pack(pcs_service.REVOKE_RESP, {"crl": again.revoke(pid)}) \
                    == codec.pack(pcs_service.REVOKE_RESP, {"crl": db.revoke(pid)})
                db = again
            elif op[0] == "reload":
                db = reloaded(db, path)
        reloaded(db, path)


def test_crl_signature_survives_wire_roundtrip(pcs_server):
    platform, _ = register_platform(pcs_server.address, tcb_level=3)
    chain, crl = fetch_platform(pcs_server.address, platform.platform_id)
    policy = VerificationPolicy(accepted_root=pcs_server.db.root_public_key)
    quote = quote_generate(platform, b"\x01" * 32, b"\x02" * 32, 1, b"\x00" * 64)
    assert quote_verify(quote, chain, crl, policy, pcs_server.now_source()) is None


def test_register_response_is_the_canonical_identity(pcs_server):
    with socket.create_connection(pcs_server.address, timeout=10) as conn:
        wire.send_frame(conn, wire.PCS_REGISTER_REQ, canonical_json({"tcb_level": 4}))
        frame_type, payload = wire.recv_frame(conn)
    assert frame_type == wire.PCS_REGISTER_RESP
    identity = codec.unpack(pcs_service.IDENTITY, payload)
    assert payload == codec.pack(pcs_service.IDENTITY, identity)
    assert identity["platform"].tcb_level == 4


MALFORMED_REQUESTS = [
    (wire.PCS_REGISTER_REQ, b'{"tcb_level":"x"}', "bad_request"),
    (wire.PCS_FETCH_REQ, b"[1]", "bad_request"),
    (wire.PCS_REVOKE_REQ, b'"s"', "bad_request"),
    (wire.PCS_FETCH_REQ, b'{"platform_id":5}', "bad_request"),
    (wire.PCS_REGISTER_REQ, b"\xff", "bad_request"),
    (wire.PCS_REGISTER_REQ, b'{"tcb_level":Infinity}', "bad_request"),
    (wire.PCS_FETCH_REQ, b"[" * 100_000, "bad_request"),
    (0x3e, b"{}", "bad_type"),
    (wire.PCS_REGISTER_REQ, b'{"tcb_level":-1}', "bad_request"),
    (wire.PCS_REGISTER_REQ, b'{"tcb_level":4294967296}', "bad_request"),
    (wire.PCS_REGISTER_REQ, b'{"tcb_level":2.5}', "bad_request"),
    (wire.PCS_REGISTER_REQ, b'{"tcb_level":true}', "bad_request"),
    (wire.PCS_REGISTER_REQ, b"", "bad_request"),
] + [(wire.PCS_REGISTER_REQ, '{"tcb_level":1}'.encode(codec), "bad_request")
     for codec in FOREIGN_ENCODINGS.values()]
MALFORMED_IDS = ["register-tcb-not-int", "fetch-list", "revoke-string", "fetch-id-not-str",
                 "register-not-utf8", "register-tcb-infinite", "fetch-deep-nesting",
                 "unknown-type", "register-tcb-negative", "register-tcb-over-u32",
                 "register-tcb-fraction", "register-tcb-bool", "register-empty"] + [
                 f"register-{name}" for name in FOREIGN_ENCODINGS]


@pytest.mark.parametrize("frame_type,payload,reason", MALFORMED_REQUESTS, ids=MALFORMED_IDS)
def test_malformed_request_gets_an_error_reply_and_the_connection_lives(
        pcs_server, monkeypatch, frame_type, payload, reason):
    platform, _ = register_platform(pcs_server.address, tcb_level=3)
    crashed = []
    monkeypatch.setattr(threading, "excepthook", crashed.append)
    with socket.create_connection(pcs_server.address, timeout=10) as conn:
        wire.send_frame(conn, frame_type, payload)
        assert wire.recv_frame(conn) == (wire.PCS_ERROR,
                                         canonical_json({"reason": reason}))
        wire.send_frame(conn, wire.PCS_FETCH_REQ,
                        canonical_json({"platform_id": platform.platform_id.hex()}))
        frame_type, body = wire.recv_frame(conn)
    assert frame_type == wire.PCS_FETCH_RESP
    assert json.loads(body)["chain"]["attestation_key"]["subject"] \
        == f"platform:{platform.platform_id.hex()}"
    assert crashed == []


class ScriptedPcs(wire.FrameServer):
    """Answers every request with `reply`."""

    reply = (wire.PCS_ERROR, b"")

    def _handle(self, frame_type, payload):
        return self.reply


def pooled_crl(addr):
    with closing(PcsPool(addr)) as pool:
        return pool.crl(b"\x01" * 16)


@pytest.mark.parametrize("call,expect", [
    (lambda addr: fetch_platform(addr, b"\x01" * 16), wire.PCS_FETCH_RESP),
    (pooled_crl, wire.PCS_FETCH_RESP),
    (lambda addr: register_platform(addr, 1), wire.PCS_REGISTER_RESP),
    (lambda addr: revoke_platform(addr, b"\x01" * 16), wire.PCS_REVOKE_RESP),
], ids=["fetch", "pooled-fetch", "register", "revoke"])
def test_undecodable_pcs_reply_is_a_bad_response(call, expect):
    wrong = wire.PCS_REVOKE_RESP if expect != wire.PCS_REVOKE_RESP else wire.PCS_FETCH_RESP
    srv = ScriptedPcs("127.0.0.1", 0).start()
    try:
        for reply in [(expect, b"[1]"), (expect, b"\xff"), (wire.PCS_ERROR, b"[]"),
                      (expect, b'{"chain":1,"crl":2}'), (wrong, b"{}")]:
            srv.reply = reply
            with pytest.raises(PcsClientError) as info:
                call(srv.address)
            assert info.value.kind == "bad_response"
    finally:
        srv.stop()


class SilentPcs(wire.FrameServer):
    """Records each request and closes the connection with no reply."""

    def __init__(self):
        super().__init__("127.0.0.1", 0)
        self.requests = []

    def _handle(self, frame_type, payload):
        self.requests.append(frame_type)


@pytest.mark.parametrize("call,frame_type", [
    (lambda addr: register_platform(addr, 1), wire.PCS_REGISTER_REQ),
    (lambda addr: revoke_platform(addr, b"\x01" * 16), wire.PCS_REVOKE_REQ),
    (lambda addr: fetch_platform(addr, b"\x01" * 16), wire.PCS_FETCH_REQ),
], ids=["register", "revoke", "one-shot-fetch"])
def test_a_request_without_a_reply_is_sent_exactly_once(call, frame_type):
    with SilentPcs().start() as srv:
        with pytest.raises((wire.ConnectionClosedError, ConnectionResetError)):
            call(srv.address)
        assert srv.requests == [frame_type]


def fail_saves(monkeypatch):
    """Every PcsDatabase save fails as on a full disk, leaving the file as it was."""
    def no_space(path, write):
        raise OSError(errno.ENOSPC, "No space left on device")

    monkeypatch.setattr(attestation, "replace_atomically", no_space)


def test_a_revocation_the_pcs_could_not_save_changes_nothing(pcs_server, tmp_path,
                                                             monkeypatch):
    platform, _ = register_platform(pcs_server.address, tcb_level=3)
    fail_saves(monkeypatch)
    with pytest.raises((wire.ConnectionClosedError, ConnectionResetError)):
        revoke_platform(pcs_server.address, platform.platform_id)
    monkeypatch.undo()
    # neither the running PCS nor a restart sees the revocation
    _, served = fetch_platform(pcs_server.address, platform.platform_id)
    _, reloaded = PcsDatabase.load(tmp_path / "pcs.json").fetch(platform.platform_id)
    assert (served.sequence, served.revoked) == (reloaded.sequence, reloaded.revoked) \
        == (0, frozenset())
    assert revoke_platform(pcs_server.address, platform.platform_id).sequence == 1


def test_a_registration_the_pcs_could_not_save_changes_nothing(pcs_server, tmp_path,
                                                               monkeypatch):
    fail_saves(monkeypatch)
    with pytest.raises((wire.ConnectionClosedError, ConnectionResetError)):
        register_platform(pcs_server.address, tcb_level=3)
    monkeypatch.undo()
    assert pcs_server.db.platforms == PcsDatabase.load(tmp_path / "pcs.json").platforms == {}
    platform, _ = register_platform(pcs_server.address, tcb_level=3)
    assert list(PcsDatabase.load(tmp_path / "pcs.json").platforms) == [platform.platform_id]


# a PCS_ERROR's reason: the client's PcsClientError kind. WIRE.md names
# three; any other reply is not of its form.
PCS_ERROR_ROWS = {"unknown_platform": "unknown_platform", "bad_request": "bad_request",
                  "bad_type": "bad_type", "integrity": "bad_response",
                  "denied": "bad_response", "attestation_failed": "bad_response",
                  "": "bad_response"}


@pytest.mark.parametrize("reason", PCS_ERROR_ROWS)
def test_a_pcs_error_reason_that_wire_md_does_not_name_is_a_bad_response(reason):
    srv = ScriptedPcs("127.0.0.1", 0).start()
    srv.reply = (wire.PCS_ERROR, canonical_json({"reason": reason}))
    with srv, pytest.raises(PcsClientError) as info:
        fetch_platform(srv.address, b"\x01" * 16)
    assert (info.value.kind, exit_code(info.value)) == (PCS_ERROR_ROWS[reason], 3)


def conn_thread_alive(sock) -> bool:
    """Whether the server thread serving client socket `sock` still runs."""
    name = f"{wire.THREAD_PREFIX}-conn-{sock.getsockname()[1]}"
    return any(t.name == name for t in threading.enumerate())


def wait_until_gone(sock, timeout=5.0) -> bool:
    deadline = time.monotonic() + timeout
    while conn_thread_alive(sock) and time.monotonic() < deadline:
        time.sleep(0.01)
    return not conn_thread_alive(sock)


def fetch_on(conn, platform_id):
    wire.send_frame(conn, wire.PCS_FETCH_REQ,
                    canonical_json({"platform_id": platform_id.hex()}))
    return wire.recv_frame(conn)


def test_idle_timeout_closes_a_silent_client_while_others_are_served(pcs_server,
                                                                      monkeypatch):
    monkeypatch.setattr(wire, "IDLE_TIMEOUT", 0.5)
    platform, _ = register_platform(pcs_server.address, tcb_level=3)
    start = time.monotonic()
    with socket.create_connection(pcs_server.address, timeout=10) as silent:
        with socket.create_connection(pcs_server.address, timeout=10) as other:
            assert fetch_on(other, platform.platform_id)[0] == wire.PCS_FETCH_RESP
        assert silent.recv(1) == b""  # the server closed the idle connection
        assert 0.45 < time.monotonic() - start < 5
        assert wait_until_gone(silent)


def conn_threads() -> int:
    return sum(t.name.startswith(f"{wire.THREAD_PREFIX}-conn-") and t.is_alive()
               for t in threading.enumerate())


def test_connection_cap_bounds_threads_and_queued_clients_are_served(monkeypatch):
    monkeypatch.setattr(wire, "MAX_CONNECTIONS", 4)
    monkeypatch.setattr(wire, "IDLE_TIMEOUT", 0.5)
    srv = PcsServer(PcsDatabase.create(now=NOW), now_source=lambda: NOW).start()
    counts, done = [], threading.Event()

    def sample():
        while not done.is_set():
            counts.append(conn_threads())
            time.sleep(0.001)

    sampler = threading.Thread(target=sample)
    silent = []
    try:
        platform, _ = register_platform(srv.address, tcb_level=3)
        sampler.start()
        silent = [socket.create_connection(srv.address, timeout=10) for _ in range(8)]
        # the first 4 idle out, then the queued 4, then the real client is accepted
        chain, _ = fetch_platform(srv.address, platform.platform_id)
        assert chain.attestation_key_cert.subject == f"platform:{platform.platform_id.hex()}"
        assert all(sock.recv(1) == b"" for sock in silent)
    finally:
        done.set()
        if sampler.is_alive():
            sampler.join()
        for sock in silent:
            sock.close()
        srv.stop()
    assert max(counts) == 4


def test_a_client_dripping_bytes_loses_its_slot_at_the_idle_timeout(monkeypatch):
    # one slot: the dripper holds it, so the real client waits in the backlog
    monkeypatch.setattr(wire, "MAX_CONNECTIONS", 1)
    monkeypatch.setattr(wire, "IDLE_TIMEOUT", 0.5)
    srv = PcsServer(PcsDatabase.create(now=NOW), now_source=lambda: NOW).start()
    stop_dripping = threading.Event()

    def drip(sock):
        # a frame header announcing 1000 bytes, then one byte per 0.1 s:
        # every recv returns well within the idle timeout
        frame = struct.pack(">IB", 1000, wire.PCS_FETCH_REQ) + b"x" * 999
        try:
            for byte in frame:
                if stop_dripping.wait(0.1):
                    return
                sock.sendall(bytes([byte]))
        except OSError:
            pass

    try:
        platform, _ = register_platform(srv.address, tcb_level=3)
        with socket.create_connection(srv.address, timeout=10) as dripper:
            dripping = threading.Thread(target=drip, args=(dripper,))
            dripping.start()
            try:
                start = time.monotonic()
                chain, _ = fetch_platform(srv.address, platform.platform_id)
                assert 0.45 < time.monotonic() - start < 3
                assert chain.attestation_key_cert.subject == \
                    f"platform:{platform.platform_id.hex()}"
            finally:
                stop_dripping.set()
                dripping.join()
    finally:
        srv.stop()


def frame_server_threads() -> list[str]:
    return [t.name for t in threading.enumerate()
            if t.name.startswith(wire.THREAD_PREFIX) and t.is_alive()]


def test_stop_returns_while_the_accept_loop_waits_for_a_slot(monkeypatch):
    monkeypatch.setattr(wire, "MAX_CONNECTIONS", 1)
    srv = PcsServer(PcsDatabase.create(now=NOW), now_source=lambda: NOW).start()
    # the second client waits in the backlog while the first holds the slot
    with socket.create_connection(srv.address, timeout=10) as held, \
            socket.create_connection(srv.address, timeout=10):
        deadline = time.monotonic() + 5
        while conn_threads() < 1 and time.monotonic() < deadline:
            time.sleep(0.01)
        assert conn_threads() == 1
        start = time.monotonic()
        srv.stop()
        assert time.monotonic() - start < wire.STOP_TIMEOUT
        assert not frame_server_threads()
        assert held.recv(1) == b""
        assert conn_threads() == 0


def test_serial_clients_are_served_by_two_workers(pcs_server):
    platform, _ = register_platform(pcs_server.address, tcb_level=3)
    for _ in range(20):
        # the previous connection's worker is back in accept() before the next
        # client connects; otherwise the next one may find it still serving
        assert wait_for_conn_threads(0) == 0
        chain, _ = fetch_platform(pcs_server.address, platform.platform_id)
        assert chain.attestation_key_cert.subject == f"platform:{platform.platform_id.hex()}"
    stats = pcs_server.stats()
    # one worker serves while the other waits to accept: no thread per connection
    assert stats["workers"] <= 2
    assert stats["connections"] == 21


def test_concurrent_clients_share_capped_workers_and_every_accept_is_counted(monkeypatch):
    monkeypatch.setattr(wire, "MAX_CONNECTIONS", 2)
    clients, rounds = 4, 25
    srv = PcsServer(PcsDatabase.create(now=NOW), now_source=lambda: NOW).start()
    switch = sys.getswitchinterval()
    wrong, errors, done = [], [], []
    try:
        platforms = [register_platform(srv.address, tcb_level=3)[0] for _ in range(2)]
        sys.setswitchinterval(1e-6)

        def fetch(i):
            try:
                for r in range(rounds):
                    platform_id = platforms[(i + r) % 2].platform_id
                    chain, _ = fetch_platform(srv.address, platform_id)
                    if chain.attestation_key_cert.subject != f"platform:{platform_id.hex()}":
                        wrong.append(i)
                done.append(i)
            except Exception as exc:
                errors.append(exc)

        threads = [threading.Thread(target=fetch, args=(i,)) for i in range(clients)]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join(60)
        assert not any(thread.is_alive() for thread in threads)
        assert (errors, wrong, sorted(done)) == ([], [], list(range(clients)))
        stats = srv.stats()
        assert stats["workers"] <= 2
        assert stats["connections"] == len(platforms) + clients * rounds
    finally:
        sys.setswitchinterval(switch)
        srv.stop()
    assert not frame_server_threads()
    assert srv.stats()["open"] == 0


def test_stop_closes_an_open_connection(pcs_server):
    platform, _ = register_platform(pcs_server.address, tcb_level=3)
    with socket.create_connection(pcs_server.address, timeout=10) as conn:
        assert fetch_on(conn, platform.platform_id)[0] == wire.PCS_FETCH_RESP
        pcs_server.stop()
        # EOF, or a reset when the request reached the closed socket first
        with pytest.raises((wire.ConnectionClosedError, ConnectionResetError)):
            fetch_on(conn, platform.platform_id)
        assert not conn_thread_alive(conn)


# -- the key server's pool of PCS connections ------------------------------

def wait_for_conn_threads(n: int, timeout=5.0) -> int:
    deadline = time.monotonic() + timeout
    while conn_threads() != n and time.monotonic() < deadline:
        time.sleep(0.01)
    return conn_threads()


def test_the_pool_fetches_over_one_connection_and_every_fetch_is_fresh(pcs_server):
    platform, _ = register_platform(pcs_server.address, tcb_level=3)
    pool = PcsPool(pcs_server.address)
    try:
        assert pool.crl(platform.platform_id).revoked == frozenset()
        revoke_platform(pcs_server.address, platform.platform_id)
        assert pool.crl(platform.platform_id).revoked == {platform.platform_id}
        chain, _ = fetch_platform(pcs_server.address, platform.platform_id, pool)
        assert chain.attestation_key_cert.subject == f"platform:{platform.platform_id.hex()}"
        assert pool.stats() == {"connected": 1, "reused": 2, "retried": 0}
    finally:
        pool.close()


def test_a_connection_the_pcs_closed_while_idle_is_retried_once(pcs_server, monkeypatch):
    monkeypatch.setattr(wire, "IDLE_TIMEOUT", 0.3)
    platform, _ = register_platform(pcs_server.address, tcb_level=3)
    pool = PcsPool(pcs_server.address)
    try:
        pool.crl(platform.platform_id)
        assert wait_for_conn_threads(0) == 0  # the PCS timed the pooled connection out
        assert pool.crl(platform.platform_id).revoked == frozenset()
        assert pool.stats() == {"connected": 2, "reused": 1, "retried": 1}
    finally:
        pool.close()


def test_a_pcs_error_keeps_the_connection_and_a_bad_reply_closes_it(pcs_server):
    pool = PcsPool(pcs_server.address)
    try:
        for _ in range(2):
            with pytest.raises(PcsClientError) as info:
                pool.crl(b"\x01" * 16)
            assert info.value.kind == "unknown_platform"
        assert pool.stats() == {"connected": 1, "reused": 1, "retried": 0}
    finally:
        pool.close()
    srv = ScriptedPcs("127.0.0.1", 0).start()
    pool = PcsPool(srv.address)
    try:
        for reply in [(wire.PCS_FETCH_RESP, b"[1]"), (wire.PCS_REVOKE_RESP, b"{}"),
                      (wire.PCS_ERROR, b"[]")]:
            srv.reply = reply
            with pytest.raises(PcsClientError):
                pool.crl(b"\x01" * 16)
        assert pool.stats() == {"connected": 3, "reused": 0, "retried": 0}
        assert wait_for_conn_threads(0) == 0
    finally:
        pool.close()
        srv.stop()


class HeldPcs(ScriptedPcs):
    """Answers each request once `parties` requests are in progress."""

    def __init__(self, parties: int):
        super().__init__("127.0.0.1", 0)
        self.barrier = threading.Barrier(parties)

    def _handle(self, frame_type, payload):
        self.barrier.wait(5)
        return super()._handle(frame_type, payload)


class SlowPcs(ScriptedPcs):
    """Answers each request after `delay` s."""

    delay = 0.0

    def _handle(self, frame_type, payload):
        time.sleep(self.delay)
        return super()._handle(frame_type, payload)


def test_the_pool_keeps_at_most_pool_size_idle_connections():
    n = POOL_SIZE + 2
    srv = HeldPcs(parties=n).start()
    srv.reply = (wire.PCS_ERROR, canonical_json({"reason": "unknown_platform"}))
    pool = PcsPool(srv.address)
    reasons = []

    def fetch():
        try:
            pool.crl(b"\x01" * 16)
        except PcsClientError as exc:
            reasons.append(exc.kind)

    threads = [threading.Thread(target=fetch) for _ in range(n)]
    try:
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join(10)
        assert not any(thread.is_alive() for thread in threads)
        assert reasons == ["unknown_platform"] * n
        # all n were open at once; the pool kept POOL_SIZE and closed the rest
        assert pool.stats() == {"connected": n, "reused": 0, "retried": 0}
        assert wait_for_conn_threads(POOL_SIZE) == POOL_SIZE
    finally:
        pool.close()
        srv.stop()


def test_threads_sharing_a_pool_each_get_their_own_reply(pcs_server):
    platforms = [register_platform(pcs_server.address, tcb_level=3)[0] for _ in range(2)]
    pool = PcsPool(pcs_server.address)
    n, rounds, wrong, errors = 8, 20, [], []

    def fetch(i):
        try:
            for r in range(rounds):
                platform_id = platforms[(i + r) % 2].platform_id
                chain, _ = fetch_platform(pcs_server.address, platform_id, pool)
                if chain.attestation_key_cert.subject != f"platform:{platform_id.hex()}":
                    wrong.append(i)
        except Exception as exc:
            errors.append(exc)

    threads = [threading.Thread(target=fetch, args=(i,)) for i in range(n)]
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join(30)
    finally:
        sys.setswitchinterval(interval)
        pool.close()
    assert not any(thread.is_alive() for thread in threads)
    assert errors == [] and wrong == []
    stats = pool.stats()
    # each fetch took one connection, a fresh one or an idle one
    assert stats["connected"] + stats["reused"] == n * rounds
    assert stats["retried"] == 0


def test_a_timeout_on_a_reused_connection_is_not_retried(monkeypatch):
    monkeypatch.setattr(wire, "CLIENT_TIMEOUT", 0.3)
    srv = SlowPcs("127.0.0.1", 0).start()
    srv.reply = (wire.PCS_ERROR, canonical_json({"reason": "unknown_platform"}))
    pool = PcsPool(srv.address)
    try:
        with pytest.raises(PcsClientError):
            pool.crl(b"\x01" * 16)
        srv.delay = 1.0
        with pytest.raises(TimeoutError):
            pool.crl(b"\x01" * 16)
        assert pool.stats() == {"connected": 1, "reused": 1, "retried": 0}
    finally:
        pool.close()
        srv.stop()


def test_close_leaves_no_socket_open_and_a_later_fetch_is_one_shot(pcs_server):
    platform, _ = register_platform(pcs_server.address, tcb_level=3)
    pool = PcsPool(pcs_server.address)
    pool.crl(platform.platform_id)
    idle = list(pool._idle)
    pool.close()
    assert [conn.fileno() for conn in idle] == [-1]
    assert wait_for_conn_threads(0) == 0
    assert pool.crl(platform.platform_id).revoked == frozenset()
    assert pool._idle == [] and wait_for_conn_threads(0) == 0
    assert pool.stats() == {"connected": 2, "reused": 0, "retried": 0}


@pytest.fixture(scope="module")
def idle_server():
    srv = PcsServer(PcsDatabase.create(now=NOW), now_source=lambda: NOW)
    yield srv
    srv.stop()


json_values = st.recursive(
    st.none() | st.booleans() | st.integers() | st.floats() | st.text(max_size=40),
    lambda inner: st.lists(inner, max_size=4)
    | st.dictionaries(st.sampled_from(["platform_id", "tcb_level", "x"]) | st.text(max_size=8),
                      inner, max_size=4),
    max_leaves=12)


REQUEST_TYPES = (wire.PCS_FETCH_REQ, wire.PCS_REGISTER_REQ, wire.PCS_REVOKE_REQ)


@settings(max_examples=300, deadline=None)
@given(frame_type=st.sampled_from(REQUEST_TYPES + (wire.PCS_ERROR, 0x3e)),
       payload=st.binary(max_size=48) | json_values.map(
           lambda v: json.dumps(v).encode("utf-8")))
@example(frame_type=0x3e, payload=b"")
@example(frame_type=wire.PCS_ERROR, payload=b"\xff")
def test_any_request_payload_gets_a_typed_reply(idle_server, frame_type, payload):
    reply_type, body = idle_server._handle(frame_type, payload)
    if frame_type not in REQUEST_TYPES:
        assert (reply_type, json.loads(body)) == (wire.PCS_ERROR, {"reason": "bad_type"})
    elif reply_type == wire.PCS_ERROR:
        assert json.loads(body)["reason"] in ("unknown_platform", "bad_request")
    else:
        assert reply_type == frame_type + 1


# -- one pack per reply at the PCS, one decode per reply bytes in the pool --

def count_decodes(monkeypatch) -> Counter:
    """Counts codec.unpack calls by record kind."""
    calls, unpack = Counter(), codec.unpack

    def counted(kind, payload):
        calls[kind] += 1
        return unpack(kind, payload)

    monkeypatch.setattr(codec, "unpack", counted)
    return calls


def fetch_request(platform_id: bytes) -> bytes:
    return canonical_json({"platform_id": platform_id.hex()})


def test_the_pcs_packs_a_fetch_reply_once_until_its_chain_or_crl_changes(tmp_path):
    db = PcsDatabase.create(now=NOW)
    platform, _ = db.register(tcb_level=3, now=NOW)
    request = fetch_request(platform.platform_id)
    with PcsServer(db, now_source=lambda: NOW) as srv:  # not started: _handle is called here
        first = srv._handle(wire.PCS_FETCH_REQ, request)[1]
        assert srv._handle(wire.PCS_FETCH_REQ, request)[1] is first
        db.revoke(platform.platform_id)
        revoked = srv._handle(wire.PCS_FETCH_REQ, request)[1]
        chain, crl = db.fetch(platform.platform_id)
        assert revoked == codec.pack(FETCH_RESP, {"chain": chain, "crl": crl}) != first
        db.save(tmp_path / "pcs.json")
        srv.db = PcsDatabase.load(tmp_path / "pcs.json")  # equal values, other objects
        reloaded = srv._handle(wire.PCS_FETCH_REQ, request)[1]
        assert reloaded == revoked and reloaded is revoked


def test_the_pcs_keeps_at_most_packed_size_fetch_replies_packed():
    db = PcsDatabase.create(now=NOW)
    pids = [db.register(tcb_level=1, now=NOW)[0].platform_id for _ in range(PACKED_SIZE + 8)]
    with PcsServer(db, now_source=lambda: NOW) as srv:  # not started: _handle is called here
        for pid in 2 * pids:
            chain, crl = db.fetch(pid)
            assert srv._handle(wire.PCS_FETCH_REQ, fetch_request(pid)) == (
                wire.PCS_FETCH_RESP, codec.pack(FETCH_RESP, {"chain": chain, "crl": crl}))
            assert pcs_service._fetch_resp.cache_info().currsize <= PACKED_SIZE


def test_the_pool_decodes_equal_reply_bytes_once_and_keeps_at_most_decoded_size(
        pcs_server, monkeypatch):
    platform, _ = register_platform(pcs_server.address, tcb_level=3)
    pool = PcsPool(pcs_server.address)
    decodes = count_decodes(monkeypatch)
    try:
        chain, crl = fetch_platform(pcs_server.address, platform.platform_id, pool)
        again, again_crl = fetch_platform(pcs_server.address, platform.platform_id, pool)
        assert again is chain and again_crl is crl and decodes[FETCH_RESP] == 1
        for n in range(DECODED_SIZE + 2):
            revoke_platform(pcs_server.address, platform.platform_id)
            assert pool.crl(platform.platform_id).sequence == n + 1
            assert pool._unpack.cache_info().currsize == min(n + 2, DECODED_SIZE)
        assert decodes[FETCH_RESP] == DECODED_SIZE + 3
        assert pool.stats()["connected"] + pool.stats()["reused"] == DECODED_SIZE + 4
    finally:
        pool.close()


def test_a_pcs_error_or_an_undecodable_reply_is_never_memoised(monkeypatch):
    db = PcsDatabase.create(now=NOW)
    platform, _ = db.register(tcb_level=3, now=NOW)
    chain, crl = db.fetch(platform.platform_id)
    good = codec.pack(FETCH_RESP, {"chain": chain, "crl": crl})
    error = canonical_json({"reason": "unknown_platform"})
    srv = ScriptedPcs("127.0.0.1", 0).start()
    pool = PcsPool(srv.address)
    decodes = count_decodes(monkeypatch)
    try:
        for reply, reason in 2 * [((wire.PCS_ERROR, error), "unknown_platform"),
                                  ((wire.PCS_FETCH_RESP, good[:-1]), "bad_response")]:
            srv.reply = reply
            with pytest.raises(PcsClientError) as info:
                pool.crl(platform.platform_id)
            assert info.value.kind == reason
        assert decodes[pcs_service.PCS_ERROR] == 2 and decodes[FETCH_RESP] == 2
        assert pool._unpack.cache_info().currsize == 0
        srv.reply = (wire.PCS_FETCH_RESP, good)
        assert fetch_platform(srv.address, platform.platform_id, pool) == (chain, crl)
        assert fetch_platform(srv.address, platform.platform_id, pool) == (chain, crl)
        assert decodes[FETCH_RESP] == 3 and pool._unpack.cache_info().currsize == 1
    finally:
        pool.close()
        srv.stop()


@settings(max_examples=25, deadline=None)
@given(steps=st.lists(st.tuples(st.sampled_from(["register", "revoke", "fetch", "fetch",
                                                 "fetch-unknown"]),
                                st.integers(0, 15)), max_size=30))
def test_pool_fetches_follow_the_database_through_registers_and_revocations(steps):
    db = PcsDatabase.create(now=NOW)
    pids = [db.register(tcb_level=1, now=NOW)[0].platform_id]
    srv = PcsServer(db, now_source=lambda: NOW).start()
    pool = PcsPool(srv.address)
    try:
        for action, i in steps:
            if action == "register":
                pids.append(db.register(tcb_level=i, now=NOW)[0].platform_id)
            elif action == "revoke":
                db.revoke(pids[i % len(pids)])
            elif action == "fetch":
                pid = pids[i % len(pids)]
                assert fetch_platform(srv.address, pid, pool) == db.fetch(pid)
            else:
                with pytest.raises(PcsClientError, match="unknown_platform"):
                    pool.crl(bytes([i]) * 16)
            assert pool._unpack.cache_info().currsize <= DECODED_SIZE
    finally:
        pool.close()
        srv.stop()


def test_registering_outside_the_ca_window_over_the_wire_is_a_bad_request():
    db = PcsDatabase.create(now=NOW)
    with PcsServer(db, now_source=lambda: NOW - 1).start() as srv:
        with pytest.raises(PcsClientError) as info:
            register_platform(srv.address, tcb_level=3)
    assert info.value.kind == "bad_request"
    assert db.platforms == {}
