import json
import random
import socket
import struct
import threading

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from enclavesim import crypto, wire
from enclavesim.attestation import PcsDatabase, VerificationPolicy, quote_generate
from enclavesim.channel import (
    _OUT_OF_ORDER_WINDOW,
    _SIG_CONTEXT,
    AttestationCertificate,
    ChannelError,
    HandshakeError,
    attester_handshake,
    bind_report_data,
    verifier_handshake,
)

from foreign_json import FOREIGN_ENCODINGS

NOW = 1_700_000_000
MRE = b"\x11" * 32
MRS = b"\x22" * 32


@pytest.fixture(scope="module")
def env():
    pcs = PcsDatabase.create(now=NOW)
    platform, chain = pcs.register(tcb_level=5, now=NOW)
    verifier_key = crypto.sign_generate()
    policy = VerificationPolicy(accepted_root=pcs.root_public_key,
                                expected_mr_enclave=MRE, min_isv_svn=1, min_tcb_level=1)
    return {
        "pcs": pcs,
        "platform": platform,
        "chain": chain,
        "verifier_key": verifier_key,
        "policy": policy,
    }


def provider_for(env, mre=MRE, mrs=MRS, svn=3):
    def provide(report_data):
        quote = quote_generate(env["platform"], mre, mrs, svn, report_data)
        return quote, env["chain"]
    return provide


class SideResult:
    def __init__(self):
        self.value = None
        self.error = None


def run_verifier(env, conn, policy=None):
    result = SideResult()

    def go():
        crl = env["pcs"].current_crl()
        try:
            result.value = verifier_handshake(
                conn, policy or env["policy"], lambda pid: crl, NOW,
                env["verifier_key"])
        except Exception as exc:
            result.error = exc

    thread = threading.Thread(target=go)
    thread.start()
    return thread, result


def handshake_pair(env, *, provider=None, policy=None, pin=None):
    a_sock, v_sock = socket.socketpair()
    thread, ver = run_verifier(env, v_sock, policy)
    att = SideResult()
    try:
        att.value = attester_handshake(a_sock, provider or provider_for(env),
                                       pin if pin is not None else env["verifier_key"].public)
    except Exception as exc:
        att.error = exc
    thread.join()
    return att, ver


# -- happy path -----------------------------------------------------------

def test_honest_handshake_establishes_channel(env):
    att, ver = handshake_pair(env)
    assert att.error is None and ver.error is None
    chan_a = att.value
    chan_v = ver.value
    assert chan_v.peer_certificate.quote.mr_enclave == MRE
    chan_a.send(wire.REC_APP, b"hello")
    assert chan_v.recv() == (wire.REC_APP, b"hello")
    chan_v.send(wire.REC_APP, b"hi back")
    assert chan_a.recv() == (wire.REC_APP, b"hi back")
    chan_a.close(), chan_v.close()


def test_key_separation(env):
    att, ver = handshake_pair(env)
    chan_a, chan_v = att.value, ver.value
    assert chan_a._send_key != chan_a._recv_key
    att2, ver2 = handshake_pair(env)
    assert att2.value._send_key != chan_a._send_key
    for c in (chan_a, chan_v, att2.value, ver2.value):
        c.close()


def test_record_roundtrip_many_random_payloads(env):
    att, ver = handshake_pair(env)
    chan_a, chan_v = att.value, ver.value
    rng = random.Random(59)
    sent = [rng.randbytes(rng.randint(0, 64 * 1024)) for _ in range(100)]

    def pump():
        for payload in sent:
            chan_a.send(wire.REC_APP, payload)

    t = threading.Thread(target=pump)
    t.start()
    for payload in sent:
        assert chan_v.recv() == (wire.REC_APP, payload)
    t.join()
    chan_a.close(), chan_v.close()


# -- authentication failures ------------------------------------------------

def test_non_pinned_verifier_key_rejected(env):
    rogue = crypto.sign_generate()
    att, ver = handshake_pair(env, pin=rogue.public)
    assert isinstance(att.error, HandshakeError)
    assert att.error.kind == "peer_auth_failed"


def test_policy_mismatch_reported_to_both_sides(env):
    att, ver = handshake_pair(env, provider=provider_for(env, mre=b"\x99" * 32))
    assert isinstance(ver.error, HandshakeError)
    assert ver.error.kind == "attestation_failed"
    assert ver.error.reason == "mr_enclave_mismatch"
    assert isinstance(att.error, HandshakeError)
    assert att.error.kind == "attestation_failed"
    assert att.error.reason == "mr_enclave_mismatch"


def test_revoked_platform_rejected(env):
    pcs = env["pcs"]
    victim, chain = pcs.register(tcb_level=5, now=NOW)

    def provide(report_data):
        return quote_generate(victim, MRE, MRS, 3, report_data), chain

    pcs.revoke(victim.platform_id)
    att, ver = handshake_pair(env, provider=provide)
    assert att.error.kind == "attestation_failed"
    assert att.error.reason == "revoked"


def test_verifier_fail_closed_no_v1_after_bad_quote(env):
    # play the attester by hand and watch every frame the verifier emits
    a_sock, v_sock = socket.socketpair()
    thread, ver = run_verifier(env, v_sock)
    eph = crypto.dh_generate()
    quote = quote_generate(env["platform"], b"\x99" * 32, MRS, 3,
                           bind_report_data(eph.public))
    cert = AttestationCertificate(eph.public, quote, env["chain"])
    wire.send_frame(a_sock, wire.HS_A1, cert.encode())
    frames = []
    try:
        while True:
            frames.append(wire.recv_frame(a_sock))
    except (wire.ConnectionClosedError, OSError):
        pass
    thread.join()
    a_sock.close()
    assert isinstance(ver.error, HandshakeError)
    types = [t for t, _ in frames]
    assert wire.HS_V1 not in types
    assert types == [wire.HS_ERROR]


def _a1_binding(env, eph_pub: bytes) -> bytes:
    """An A1 whose genuine quote binds `eph_pub`, whatever its length."""
    quote = quote_generate(env["platform"], MRE, MRS, 3, bind_report_data(eph_pub))
    return AttestationCertificate(eph_pub, quote, env["chain"]).encode()


def _valid_a1(env) -> str:
    return _a1_binding(env, crypto.dh_generate().public).decode()


def _a1_with_cert_field(env, cert, field, value):
    d = json.loads(_valid_a1(env))
    d["chain"][cert][field] = value
    return json.dumps(d).encode()


MALFORMED_A1 = {
    "not-json": (wire.HS_A1, lambda env: b"\xff"),
    "list": (wire.HS_A1, lambda env: b"[1]"),
    "eph-pub-not-str": (wire.HS_A1, lambda env: b'{"eph_pub": 1, "quote": "00", "chain": {}}'),
    "deep-nesting": (wire.HS_A1, lambda env: b"[" * 100_000),
    "subject-not-str": (wire.HS_A1,
                        lambda env: _a1_with_cert_field(env, "attestation_key", "subject", 5)),
    "ca-signature-short": (wire.HS_A1,
                           lambda env: _a1_with_cert_field(env, "platform_ca", "signature",
                                                           "00" * 10)),
    "v1-first": (wire.HS_V1, lambda env: b"{}"),
    "eph-pub-31-bytes": (wire.HS_A1, lambda env: _a1_binding(env, b"\x09" * 31)),
    "eph-pub-33-bytes": (wire.HS_A1, lambda env: _a1_binding(env, b"\x09" * 33)),
    **{f"valid-{name}": (wire.HS_A1, lambda env, codec=codec: _valid_a1(env).encode(codec))
       for name, codec in FOREIGN_ENCODINGS.items()},
}


@pytest.mark.parametrize("name", sorted(MALFORMED_A1))
def test_malformed_a1_gets_hs_error_io(env, name):
    a_sock, v_sock = socket.socketpair()
    thread, ver = run_verifier(env, v_sock)
    frame_type, make_payload = MALFORMED_A1[name]
    a_sock.settimeout(10)  # a verifier that accepts the A1 waits for Finished
    wire.send_frame(a_sock, frame_type, make_payload(env))
    frames = []
    try:
        while True:
            frames.append(wire.recv_frame(a_sock))
    except (wire.ConnectionClosedError, OSError):
        pass
    a_sock.close()
    thread.join()
    assert [t for t, _ in frames] == [wire.HS_ERROR]
    assert json.loads(frames[0][1])["kind"] == "io"
    assert isinstance(ver.error, HandshakeError)
    assert ver.error.kind == "io"


def test_a1_key_that_x25519_rejects_fails_io_after_v1(env):
    # the quote binds the all-zero key, so the verifier answers with V1 and
    # only its key agreement, which overlaps the attester's check, fails
    a_sock, v_sock = socket.socketpair()
    thread, ver = run_verifier(env, v_sock)
    a_sock.settimeout(10)
    wire.send_frame(a_sock, wire.HS_A1, _a1_binding(env, bytes(32)))
    frames = []
    try:
        while True:
            frames.append(wire.recv_frame(a_sock))
    except (wire.ConnectionClosedError, OSError):
        pass
    a_sock.close()
    thread.join()
    assert [t for t, _ in frames] == [wire.HS_V1]
    assert isinstance(ver.error, HandshakeError)
    assert ver.error.kind == "io"


def test_bad_first_frame_length_gets_one_hs_error_io(env):
    a_sock, v_sock = socket.socketpair()
    thread, ver = run_verifier(env, v_sock)
    a_sock.sendall(struct.pack(">I", 2 + wire.MAX_PAYLOAD))
    frames = []
    try:
        while True:
            frames.append(wire.recv_frame(a_sock))
    except (wire.ConnectionClosedError, OSError):
        pass
    thread.join()
    a_sock.close()
    assert [t for t, _ in frames] == [wire.HS_ERROR]
    assert json.loads(frames[0][1]) == {"kind": "io",
                                        "reason": f"bad frame length {2 + wire.MAX_PAYLOAD}"}
    assert ver.error.kind == "io"


# a V1 and an HS_ERROR of the documented form (the V1's signature is not
# checked before it decodes)
WELL_FORMED_REPLIES = [
    (wire.HS_V1, json.dumps({"eph_pub": "00" * 32, "sig": "00" * 64})),
    (wire.HS_ERROR, '{"kind":"attestation_failed","reason":"revoked"}'),
]


@pytest.mark.parametrize("frame_type,payload", [
    (wire.HS_V1, b"[1]"),
    (wire.HS_V1, b'{"eph_pub": 1, "sig": "00"}'),
    (wire.HS_V1, b'{"eph_pub": "' + b"00" * 32 + b'", "sig": "' + b"00" * 10 + b'"}'),
    (wire.HS_V1, b"\xff"),
    (wire.HS_ERROR, b"\xff"),
    (wire.HS_ERROR, b'["attestation_failed"]'),
    (wire.HS_ERROR, b'{"kind": 7, "reason": ["x"]}'),
    (wire.HS_ERROR, b'{"kind": 7}'),
    (wire.HS_ERROR, b'{"kind": "attestation_failed", "reason": ["x"]}'),
] + [(frame_type, text.encode(codec)) for frame_type, text in WELL_FORMED_REPLIES
     for codec in FOREIGN_ENCODINGS.values()],
    ids=["v1-list", "v1-eph-pub-not-str", "v1-sig-10-bytes", "v1-not-json", "error-not-json",
         "error-list", "error-kind-not-str", "error-kind-int-no-reason", "error-reason-list"] + [
         f"{kind}-{name}" for kind in ("v1", "error") for name in FOREIGN_ENCODINGS])
def test_malformed_verifier_reply_is_a_handshake_io_error(env, frame_type, payload):
    a_sock, v_sock = socket.socketpair()

    def fake_verifier():
        wire.recv_frame(v_sock)
        wire.send_frame(v_sock, frame_type, payload)

    thread = threading.Thread(target=fake_verifier)
    thread.start()
    with pytest.raises(HandshakeError) as info:
        attester_handshake(a_sock, provider_for(env), env["verifier_key"].public)
    thread.join()
    v_sock.close()
    assert info.value.kind == "io"


@pytest.mark.parametrize("eph_pub", [b"\x09" * 31, bytes(32)], ids=["31-bytes", "all-zero"])
def test_pinned_v1_with_a_bad_key_is_a_handshake_io_error(env, eph_pub):
    a_sock, v_sock = socket.socketpair()

    def pinned_verifier():
        _, a1 = wire.recv_frame(v_sock)
        sig = crypto.sign(env["verifier_key"].private,
                          _SIG_CONTEXT + crypto.hash_data(a1) + eph_pub)
        wire.send_frame(v_sock, wire.HS_V1,
                        json.dumps({"eph_pub": eph_pub.hex(), "sig": sig.hex()}).encode())

    thread = threading.Thread(target=pinned_verifier)
    thread.start()
    with pytest.raises(HandshakeError) as info:
        attester_handshake(a_sock, provider_for(env), env["verifier_key"].public)
    thread.join()
    v_sock.close()
    assert info.value.kind == "io"


def test_a_verifier_that_closes_after_a_valid_v1_is_a_handshake_io_error(env, monkeypatch):
    a_sock, v_sock = socket.socketpair()
    closed = threading.Event()

    def pinned_verifier():
        _, a1 = wire.recv_frame(v_sock)
        eph = crypto.dh_generate()
        sig = crypto.sign(env["verifier_key"].private,
                          _SIG_CONTEXT + crypto.hash_data(a1) + eph.public)
        wire.send_frame(v_sock, wire.HS_V1,
                        json.dumps({"eph_pub": eph.public.hex(), "sig": sig.hex()}).encode())
        v_sock.close()
        closed.set()

    # the attester checks V1 only once the verifier has gone, so its
    # Finished is sent to a closed peer
    verify = crypto.verify
    monkeypatch.setattr(crypto, "verify", lambda *args: closed.wait(5) and verify(*args))
    thread = threading.Thread(target=pinned_verifier)
    thread.start()
    with pytest.raises(HandshakeError) as info:
        attester_handshake(a_sock, provider_for(env), env["verifier_key"].public)
    thread.join()
    assert info.value.kind == "io"


# JSON values a hostile verifier may put in a V1 or HS_ERROR field: hex
# strings of any length, or anything else
PEER_FIELD = st.one_of(
    st.binary(max_size=80).map(bytes.hex),
    st.none(), st.booleans(), st.integers(), st.floats(allow_nan=False), st.text(max_size=8),
    st.lists(st.integers(), max_size=3), st.dictionaries(st.text(max_size=3), st.integers(),
                                                         max_size=2))


@settings(max_examples=300, deadline=None)
@given(frame_type=st.sampled_from([wire.HS_V1, wire.HS_ERROR]),
       fields=st.dictionaries(st.sampled_from(["eph_pub", "sig", "kind", "reason"]),
                              PEER_FIELD))
def test_any_verifier_reply_is_only_a_handshake_error(env, frame_type, fields):
    a_sock, v_sock = socket.socketpair()

    def fake_verifier():
        wire.recv_frame(v_sock)
        wire.send_frame(v_sock, frame_type, json.dumps(fields).encode("utf-8"))

    thread = threading.Thread(target=fake_verifier)
    thread.start()
    try:
        with pytest.raises(HandshakeError):
            attester_handshake(a_sock, provider_for(env), env["verifier_key"].public)
    finally:
        thread.join()
        v_sock.close()


A1_FIELDS = [(field, None, None) for field in ("eph_pub", "quote", "chain")] + [
    ("chain", cert, field) for cert in ("root", "platform_ca", "attestation_key")
    for field in ("subject", "issuer", "public_key", "tcb_level", "signature")]


@settings(max_examples=200, deadline=None)
@given(edits=st.lists(st.tuples(st.sampled_from(A1_FIELDS), PEER_FIELD), max_size=3),
       codec=st.sampled_from(["utf-8", *FOREIGN_ENCODINGS.values()]),
       junk=st.none() | st.binary(max_size=64))
def test_any_a1_decodes_or_is_a_handshake_io_error(env, edits, codec, junk):
    doc = json.loads(_valid_a1(env))
    # nested edits first, so a later top-level edit may replace their parent
    for (part, cert, field), value in sorted(edits, key=lambda e: e[0][1] is None):
        if cert is None:
            doc[part] = value
        else:
            doc[part][cert][field] = value
    payload = json.dumps(doc).encode(codec) if junk is None else junk
    try:
        cert = AttestationCertificate.decode(payload)
    except HandshakeError as exc:
        assert exc.kind == "io"
    else:
        assert isinstance(cert, AttestationCertificate)
        assert codec == "utf-8" or junk is not None


def test_relay_adversary_caught_by_binding(env):
    # adversary forwards the victim's genuine certificate but swaps in its
    # own ephemeral key, hoping to terminate the key agreement itself
    a_sock, v_sock = socket.socketpair()
    thread, ver = run_verifier(env, v_sock)

    victim_eph = crypto.dh_generate()
    genuine = AttestationCertificate(
        victim_eph.public,
        quote_generate(env["platform"], MRE, MRS, 3, bind_report_data(victim_eph.public)),
        env["chain"])

    mitm_eph = crypto.dh_generate()
    tampered = AttestationCertificate(mitm_eph.public, genuine.quote, genuine.cert_chain)
    wire.send_frame(a_sock, wire.HS_A1, tampered.encode())
    frame_type, payload = wire.recv_frame(a_sock)
    thread.join()
    a_sock.close()
    assert frame_type == wire.HS_ERROR
    assert json.loads(payload)["kind"] == "binding_mismatch"
    assert isinstance(ver.error, HandshakeError)
    assert ver.error.kind == "binding_mismatch"


def test_crl_provider_failure_fails_closed(env):
    def broken_provider(pid):
        raise RuntimeError("PCS unreachable")

    a_sock, v_sock = socket.socketpair()
    result = SideResult()

    def go():
        try:
            result.value = verifier_handshake(v_sock, env["policy"],
                                              broken_provider, NOW,
                                              env["verifier_key"])
        except Exception as exc:
            result.error = exc

    t = threading.Thread(target=go)
    t.start()
    att = SideResult()
    try:
        att.value = attester_handshake(a_sock, provider_for(env),
                                       env["verifier_key"].public)
    except Exception as exc:
        att.error = exc
    t.join()
    assert isinstance(result.error, HandshakeError)
    assert result.error.kind == "attestation_failed"
    assert "crl_unavailable" in (result.error.reason or "")
    assert isinstance(att.error, HandshakeError)


# -- in-transit corruption ---------------------------------------------------

class FlippingProxy:
    """Forwards frames between two sockets, flipping one payload byte of the
    n-th frame it sees."""

    def __init__(self, flip_frame_index: int, flip_offset: int):
        self.flip_frame_index = flip_frame_index
        self.flip_offset = flip_offset
        self.count = 0
        self.lock = threading.Lock()

    def pump(self, src, dst):
        try:
            while True:
                frame_type, payload = wire.recv_frame(src)
                with self.lock:
                    index = self.count
                    self.count += 1
                if index == self.flip_frame_index and payload:
                    buf = bytearray(payload)
                    buf[self.flip_offset % len(buf)] ^= 0x40
                    payload = bytes(buf)
                wire.send_frame(dst, frame_type, payload)
        except (wire.ConnectionClosedError, OSError):
            try:
                dst.shutdown(socket.SHUT_WR)
            except OSError:
                pass


def test_any_flipped_handshake_message_detected(env):
    # frames in order: A1, V1, Finished(A), Finished(V)
    rng = random.Random(61)
    for frame_index in range(4):
        for _ in range(3):
            a_outer, a_inner = socket.socketpair()
            v_inner, v_outer = socket.socketpair()
            proxy = FlippingProxy(frame_index, rng.randrange(1 << 16))
            threads = [
                threading.Thread(target=proxy.pump, args=(a_inner, v_inner), daemon=True),
                threading.Thread(target=proxy.pump, args=(v_inner, a_inner), daemon=True),
            ]
            for t in threads:
                t.start()
            thread, ver = run_verifier(env, v_outer)
            att = SideResult()
            try:
                att.value = attester_handshake(a_outer, provider_for(env),
                                               env["verifier_key"].public)
            except Exception as exc:
                att.error = exc
            thread.join()
            assert att.error is not None or ver.error is not None, \
                f"flip of frame {frame_index} went unnoticed"
            for s in (a_outer, v_outer, a_inner, v_inner):
                s.close()


# -- record layer -------------------------------------------------------------

def test_replayed_record_rejected(env):
    att, ver = handshake_pair(env)
    chan_a, chan_v = att.value, ver.value
    raw = chan_a._sock  # capture what goes over the wire by resealing manually
    # send one record, capture its bytes by re-serializing an identical frame
    chan_a.send(wire.REC_APP, b"first")
    assert chan_v.recv() == (wire.REC_APP, b"first")
    # replay: reseal the same plaintext under the already-used sequence 1... the
    # attacker instead captures frame bytes; emulate by resealing seq=1 after
    # the counter advanced
    chan_a.send(wire.REC_APP, b"second")
    assert chan_v.recv() == (wire.REC_APP, b"second")
    sealed_old = crypto.aead_seal(chan_a._send_key, (1).to_bytes(12, "big"),
                                  bytes([wire.REC_APP]) + (1).to_bytes(8, "big"),
                                  b"second")
    wire.send_frame(raw, wire.REC_APP, sealed_old)
    with pytest.raises(ChannelError) as exc:
        chan_v.recv()
    assert exc.value.kind == "replay"
    chan_a.close(), chan_v.close()


def test_reordered_record_classified(env):
    att, ver = handshake_pair(env)
    chan_a, chan_v = att.value, ver.value
    # seal sequence 3 while the receiver expects 1
    sealed_future = crypto.aead_seal(chan_a._send_key, (3).to_bytes(12, "big"),
                                     bytes([wire.REC_APP]) + (3).to_bytes(8, "big"),
                                     b"early")
    wire.send_frame(chan_a._sock, wire.REC_APP, sealed_future)
    with pytest.raises(ChannelError) as exc:
        chan_v.recv()
    assert exc.value.kind == "out_of_order"
    chan_a.close(), chan_v.close()


def test_failure_classification_probes_only_the_window(env, monkeypatch):
    att, ver = handshake_pair(env)
    chan_a, chan_v = att.value, ver.value
    for i in range(200):
        chan_a.send(wire.REC_APP, b"%d" % i)
        assert chan_v.recv() == (wire.REC_APP, b"%d" % i)
    real_open = crypto.aead_open
    trials = []

    def counted_open(*args):
        trials.append(args)
        return real_open(*args)

    monkeypatch.setattr(crypto, "aead_open", counted_open)
    wire.send_frame(chan_a._sock, wire.REC_APP, b"\x00" * 40)
    with pytest.raises(ChannelError) as exc:
        chan_v.recv()
    assert exc.value.kind == "auth"
    assert len(trials) <= 2 * _OUT_OF_ORDER_WINDOW + 1
    # a replay older than the window is indistinguishable from tampering
    sealed_old = crypto.aead_seal(chan_a._send_key, (1).to_bytes(12, "big"),
                                  bytes([wire.REC_APP]) + (1).to_bytes(8, "big"), b"0")
    wire.send_frame(chan_a._sock, wire.REC_APP, sealed_old)
    with pytest.raises(ChannelError) as exc:
        chan_v.recv()
    assert exc.value.kind == "auth"
    chan_a.close(), chan_v.close()


def test_tampered_record_rejected(env):
    att, ver = handshake_pair(env)
    chan_a, chan_v = att.value, ver.value
    sealed = crypto.aead_seal(chan_a._send_key, (1).to_bytes(12, "big"),
                              bytes([wire.REC_APP]) + (1).to_bytes(8, "big"),
                              b"payload")
    buf = bytearray(sealed)
    buf[0] ^= 0x01
    wire.send_frame(chan_a._sock, wire.REC_APP, bytes(buf))
    with pytest.raises(ChannelError) as exc:
        chan_v.recv()
    assert exc.value.kind == "auth"
    chan_a.close(), chan_v.close()


def test_max_record_size_enforced(env):
    att, ver = handshake_pair(env)
    chan_a, chan_v = att.value, ver.value
    with pytest.raises(wire.WireError):
        chan_a.send(wire.REC_APP, b"\x00" * (wire.MAX_PAYLOAD + 1))
    chan_a.close(), chan_v.close()
