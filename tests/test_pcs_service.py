import json
import socket
import struct
import sys
import threading
import time

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from enclavesim import pcs_service, wire
from enclavesim.attestation import (
    PcsDatabase,
    VerificationPolicy,
    canonical_json,
    quote_generate,
    quote_verify,
)
from enclavesim.pcs_service import (
    POOL_SIZE,
    PcsClientError,
    PcsPool,
    PcsServer,
    fetch_platform,
    identity_from_dict,
    identity_to_dict,
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
    assert quote_verify(quote, fetched_chain, crl, policy, pcs_server.now_source()).ok


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


def test_crl_signature_survives_wire_roundtrip(pcs_server):
    platform, _ = register_platform(pcs_server.address, tcb_level=3)
    chain, crl = fetch_platform(pcs_server.address, platform.platform_id)
    policy = VerificationPolicy(accepted_root=pcs_server.db.root_public_key)
    quote = quote_generate(platform, b"\x01" * 32, b"\x02" * 32, 1, b"\x00" * 64)
    result = quote_verify(quote, chain, crl, policy, pcs_server.now_source())
    assert result.ok


def test_register_response_is_the_canonical_identity(pcs_server):
    with socket.create_connection(pcs_server.address, timeout=10) as conn:
        wire.send_frame(conn, wire.PCS_REGISTER_REQ, canonical_json({"tcb_level": 4}))
        frame_type, payload = wire.recv_frame(conn)
    assert frame_type == wire.PCS_REGISTER_RESP
    platform, chain = identity_from_dict(json.loads(payload))
    assert payload == canonical_json(identity_to_dict(platform, chain))
    assert platform.tcb_level == 4


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


@pytest.mark.parametrize("call,expect", [
    (lambda addr: fetch_platform(addr, b"\x01" * 16), wire.PCS_FETCH_RESP),
    (lambda addr: register_platform(addr, 1), wire.PCS_REGISTER_RESP),
    (lambda addr: revoke_platform(addr, b"\x01" * 16), wire.PCS_REVOKE_RESP),
], ids=["fetch", "register", "revoke"])
def test_undecodable_pcs_reply_is_a_bad_response(call, expect):
    srv = ScriptedPcs("127.0.0.1", 0).start()
    try:
        for reply in [(expect, b"[1]"), (expect, b"\xff"), (wire.PCS_ERROR, b"[]"),
                      (expect, b'{"chain":1,"crl":2}')]:
            srv.reply = reply
            with pytest.raises(PcsClientError) as info:
                call(srv.address)
            assert info.value.reason == "bad_response"
    finally:
        srv.stop()


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
        assert not srv._thread.is_alive()
        assert held.recv(1) == b""
        assert conn_threads() == 0


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
            assert info.value.reason == "unknown_platform"
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
            reasons.append(exc.reason)

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
