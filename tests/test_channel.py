import json
import random
import socket
import struct
import threading

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from enclavesim import codec, crypto, wire
from enclavesim.attestation import PcsDatabase, VerificationPolicy, quote_generate
from enclavesim.channel import (
    _SIG_CONTEXT,
    AttestationCertificate,
    ChannelError,
    HandshakeError,
    SecureChannel,
    attester_handshake,
    bind_report_data,
    verifier_handshake,
)
from enclavesim.failure import exit_code

from foreign_json import FOREIGN_ENCODINGS

NOW = 1_700_000_000
MRE = b"\x11" * 32
MRS = b"\x22" * 32
APP = 0x7f  # a record type of these tests; the channel seals any type alike


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


def a1_bytes(cert: AttestationCertificate) -> bytes:
    return codec.pack(AttestationCertificate.RECORD, cert)


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
    chan_a.send(APP, b"hello")
    assert chan_v.recv() == (APP, b"hello")
    chan_v.send(APP, b"hi back")
    assert chan_a.recv() == (APP, b"hi back")
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
            chan_a.send(APP, payload)

    t = threading.Thread(target=pump)
    t.start()
    for payload in sent:
        assert chan_v.recv() == (APP, payload)
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
    wire.send_frame(a_sock, wire.HS_A1, a1_bytes(cert))
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
    doc = AttestationCertificate.RECORD.encode(AttestationCertificate(bytes(32), quote,
                                                                      env["chain"]))
    doc["eph_pub"] = eph_pub.hex()
    return codec.canonical_json(doc)


def _valid_a1(env) -> str:
    return _a1_binding(env, crypto.dh_generate().public).decode()


def _a1_with_cert_field(env, cert, field, value):
    d = json.loads(_valid_a1(env))
    d["chain"][cert][field] = value
    return codec.canonical_json(d)


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
    (wire.HS_V1, codec.canonical_json({"eph_pub": "00" * 32, "sig": "00" * 64}).decode()),
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
        sig = crypto.sign(env["verifier_key"],
                          _SIG_CONTEXT + crypto.hash_data(a1) + eph_pub)
        wire.send_frame(v_sock, wire.HS_V1,
                        codec.canonical_json({"eph_pub": eph_pub.hex(), "sig": sig.hex()}))

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
        sig = crypto.sign(env["verifier_key"],
                          _SIG_CONTEXT + crypto.hash_data(a1) + eph.public)
        wire.send_frame(v_sock, wire.HS_V1,
                        codec.canonical_json({"eph_pub": eph.public.hex(),
                                              "sig": sig.hex()}))
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
        wire.send_frame(v_sock, frame_type, codec.canonical_json(fields))

    thread = threading.Thread(target=fake_verifier)
    thread.start()
    try:
        with pytest.raises(HandshakeError) as info:
            attester_handshake(a_sock, provider_for(env), env["verifier_key"].public)
    finally:
        thread.join()
        v_sock.close()
    assert info.value.kind in HandshakeError.KINDS


# an HS_ERROR's kind: the attester's HandshakeError kind and exit code. A
# verifier sends HS_ERROR only before V1, so only of its first three kinds;
# any other is no verdict of the verifier's, whatever exit code it names.
HS_ERROR_ROWS = {"attestation_failed": ("attestation_failed", 1),
                 "binding_mismatch": ("binding_mismatch", 1), "io": ("io", 3),
                 "integrity": ("io", 3), "denied": ("io", 3), "peer_auth_failed": ("io", 3),
                 "bad_finished": ("io", 3), "": ("io", 3)}


@pytest.mark.parametrize("kind", HS_ERROR_ROWS)
def test_an_hs_error_of_a_kind_no_verifier_sends_is_a_handshake_io_error(env, kind):
    a_sock, v_sock = socket.socketpair()

    def fake_verifier():
        wire.recv_frame(v_sock)
        wire.send_frame(v_sock, wire.HS_ERROR,
                        codec.canonical_json({"kind": kind, "reason": "revoked"}))

    thread = threading.Thread(target=fake_verifier)
    thread.start()
    try:
        with pytest.raises(HandshakeError) as info:
            attester_handshake(a_sock, provider_for(env), env["verifier_key"].public)
    finally:
        thread.join()
        v_sock.close()
    assert (info.value.kind, exit_code(info.value)) == HS_ERROR_ROWS[kind]


A1_FIELDS = [(field, None, None) for field in ("eph_pub", "quote", "chain")] + [
    ("chain", cert, field) for cert in ("root", "platform_ca", "attestation_key")
    for field in ("subject", "issuer", "public_key", "tcb_level", "signature")]


@settings(max_examples=200, deadline=None)
@given(edits=st.lists(st.tuples(st.sampled_from(A1_FIELDS), PEER_FIELD), max_size=3),
       encoding=st.sampled_from(["utf-8", *FOREIGN_ENCODINGS.values()]),
       junk=st.none() | st.binary(max_size=64))
def test_any_a1_decodes_or_is_a_handshake_io_error(env, edits, encoding, junk):
    doc = json.loads(_valid_a1(env))
    # nested edits first, so a later top-level edit may replace their parent
    for (part, cert, field), value in sorted(edits, key=lambda e: e[0][1] is None):
        if cert is None:
            doc[part] = value
        else:
            doc[part][cert][field] = value
    payload = codec.canonical_json(doc).decode().encode(encoding) if junk is None else junk
    try:
        cert = codec.unpack(AttestationCertificate.RECORD, payload)
    except wire.DECODE_ERRORS:
        return
    # what decodes is exactly what the encoder writes for its value
    assert encoding == "utf-8" or junk is not None
    assert a1_bytes(cert) == payload


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
    wire.send_frame(a_sock, wire.HS_A1, a1_bytes(tampered))
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
    chan_a.send(APP, b"first")
    assert chan_v.recv() == (APP, b"first")
    # replay: reseal the same plaintext under the already-used sequence 1... the
    # attacker instead captures frame bytes; emulate by resealing seq=1 after
    # the counter advanced
    chan_a.send(APP, b"second")
    assert chan_v.recv() == (APP, b"second")
    sealed_old = crypto.aead_seal(chan_a._send_key, (1).to_bytes(12, "big"),
                                  bytes([APP]) + (1).to_bytes(8, "big"),
                                  b"second")
    wire.send_frame(raw, APP, sealed_old)
    with pytest.raises(ChannelError) as exc:
        chan_v.recv()
    assert exc.value.kind == "auth"
    chan_a.close(), chan_v.close()


def test_a_record_seals_under_the_nonce_and_aad_of_its_sequence_number(env):
    """Record n of a direction seals with nonce u96be(n) and AAD
    type || u64be(n), spelled out here by hand in both directions."""
    att, ver = handshake_pair(env)
    chan_a, chan_v = att.value, ver.value

    def nonce_aad(seq):
        return seq.to_bytes(12, "big"), bytes([APP]) + seq.to_bytes(8, "big")

    sealed = crypto.aead_seal(chan_a._send_key, *nonce_aad(chan_a._send_seq), b"by hand")
    wire.send_frame(chan_a._sock, APP, sealed)
    assert chan_v.recv() == (APP, b"by hand")
    nonce, aad = nonce_aad(chan_a._recv_seq)
    chan_v.send(APP, b"by the channel")
    frame_type, sealed = wire.recv_frame(chan_a._sock)
    assert frame_type == APP
    assert crypto.aead_open(chan_a._recv_key, nonce, aad, sealed) == b"by the channel"
    chan_a.close(), chan_v.close()


def test_reordered_record_classified(env):
    att, ver = handshake_pair(env)
    chan_a, chan_v = att.value, ver.value
    # seal sequence 3 while the receiver expects 1
    sealed_future = crypto.aead_seal(chan_a._send_key, (3).to_bytes(12, "big"),
                                     bytes([APP]) + (3).to_bytes(8, "big"),
                                     b"early")
    wire.send_frame(chan_a._sock, APP, sealed_future)
    with pytest.raises(ChannelError) as exc:
        chan_v.recv()
    assert exc.value.kind == "auth"
    chan_a.close(), chan_v.close()


def test_failure_classification_probes_only_the_window(env, monkeypatch):
    att, ver = handshake_pair(env)
    chan_a, chan_v = att.value, ver.value
    for i in range(200):
        chan_a.send(APP, b"%d" % i)
        assert chan_v.recv() == (APP, b"%d" % i)
    real_open = crypto.aead_open
    trials = []

    def counted_open(*args):
        trials.append(args)
        return real_open(*args)

    monkeypatch.setattr(crypto, "aead_open", counted_open)
    wire.send_frame(chan_a._sock, APP, b"\x00" * 40)
    with pytest.raises(ChannelError) as exc:
        chan_v.recv()
    assert exc.value.kind == "auth"
    assert len(trials) == 1
    # a replay is one failed open too
    del trials[:]
    sealed_old = crypto.aead_seal(chan_a._send_key, (1).to_bytes(12, "big"),
                                  bytes([APP]) + (1).to_bytes(8, "big"), b"0")
    wire.send_frame(chan_a._sock, APP, sealed_old)
    with pytest.raises(ChannelError) as exc:
        chan_v.recv()
    assert exc.value.kind == "auth"
    assert len(trials) == 1
    chan_a.close(), chan_v.close()


def test_tampered_record_rejected(env):
    att, ver = handshake_pair(env)
    chan_a, chan_v = att.value, ver.value
    sealed = crypto.aead_seal(chan_a._send_key, (1).to_bytes(12, "big"),
                              bytes([APP]) + (1).to_bytes(8, "big"),
                              b"payload")
    buf = bytearray(sealed)
    buf[0] ^= 0x01
    wire.send_frame(chan_a._sock, APP, bytes(buf))
    with pytest.raises(ChannelError) as exc:
        chan_v.recv()
    assert exc.value.kind == "auth"
    chan_a.close(), chan_v.close()


def test_a_payload_of_exactly_the_largest_size_is_sent_and_received(env):
    att, ver = handshake_pair(env)
    chan_a, chan_v = att.value, ver.value
    largest = random.Random(61).randbytes(wire.MAX_PAYLOAD - crypto.TAG_SIZE)
    received = []
    receiver = threading.Thread(target=lambda: received.append(chan_v.recv()))
    receiver.start()
    try:
        chan_a.send(APP, largest)
    finally:
        chan_a.close()  # so that a refused send leaves no receiver waiting
        receiver.join()
        chan_v.close()
    assert received == [(APP, largest)]


def test_max_record_size_enforced(env):
    att, ver = handshake_pair(env)
    chan_a, chan_v = att.value, ver.value
    with pytest.raises(wire.WireError):
        chan_a.send(APP, b"\x00" * (wire.MAX_PAYLOAD + 1))
    chan_a.close(), chan_v.close()


# -- transport faults ---------------------------------------------------------

FAULT_TIMEOUT_S = 2.0  # on both ends of every fault case, so that none can hang
SEND_FAULTS = ("reset", "timeout")
BODY_FAULTS = ("eof", "reset", "timeout")
HEADER_FAULTS = BODY_FAULTS + ("bad_length",)  # faults of a 4-byte frame header read
ROLES = ("attester", "verifier")


def faults_for(op: str, size: int) -> tuple[str, ...]:
    return SEND_FAULTS if op == "sendall" else HEADER_FAULTS if size == 4 else BODY_FAULTS


class FaultySocket:
    """One end of a socketpair that forwards sendall, recv, settimeout,
    gettimeout and close, except that its `fault_at`-th sendall or recv
    gets `fault` instead: EOF, a reset or a timeout, or a header of frame
    length 0. `calls` holds the (op, size) of every sendall and recv."""

    def __init__(self, sock: socket.socket, fault: str | None = None, fault_at: int = 0):
        self._sock = sock
        self.fault = fault
        self.fault_at = fault_at
        self.calls: list[tuple[str, int]] = []
        self.closed = False

    def _inject(self, op: str, size: int):
        self.calls.append((op, size))
        if len(self.calls) != self.fault_at:
            return None
        assert self.fault in faults_for(op, size)
        if self.fault == "reset":
            raise ConnectionResetError("injected reset")
        if self.fault == "timeout":
            raise TimeoutError("injected timeout")
        return b"" if self.fault == "eof" else bytes(4)

    def sendall(self, data: bytes) -> None:
        self._inject("sendall", len(data))
        self._sock.sendall(data)

    def recv(self, n: int) -> bytes:
        injected = self._inject("recv", n)
        return self._sock.recv(n) if injected is None else injected

    def settimeout(self, value) -> None:
        self._sock.settimeout(value)

    def gettimeout(self):
        return self._sock.gettimeout()

    def close(self) -> None:
        self.closed = True
        self._sock.close()


def handshake_over(env, role: str, faulty: FaultySocket, theirs: socket.socket):
    """`role`'s handshake over `faulty` against the other role, run honestly
    on `theirs` in one thread: (this side's channel or exception, the peer's
    SideResult)."""
    crl = env["pcs"].current_crl()
    peer = SideResult()

    def run(role, sock):
        if role == "attester":
            return attester_handshake(sock, provider_for(env), env["verifier_key"].public)
        return verifier_handshake(sock, env["policy"], lambda pid: crl, NOW,
                                  env["verifier_key"])

    def honest():
        try:
            peer.value = run("verifier" if role == "attester" else "attester", theirs)
        except Exception as exc:
            peer.error = exc

    thread = threading.Thread(target=honest)
    thread.start()
    try:
        outcome = run(role, faulty)
    except Exception as exc:
        outcome = exc
    thread.join(timeout=3 * FAULT_TIMEOUT_S)
    assert not thread.is_alive()
    return outcome, peer


def timed_pair() -> tuple[socket.socket, socket.socket]:
    mine, theirs = socket.socketpair()
    for sock in (mine, theirs):
        sock.settimeout(FAULT_TIMEOUT_S)
    return mine, theirs


def honest_calls(env, role: str) -> list[tuple[str, int]]:
    """The sendall and recv calls `role` makes in an honest handshake."""
    mine, theirs = timed_pair()
    faulty = FaultySocket(mine)
    try:
        outcome, peer = handshake_over(env, role, faulty, theirs)
        assert peer.error is None and not isinstance(outcome, Exception)
    finally:
        mine.close(), theirs.close()
    return faulty.calls


@pytest.mark.parametrize("role", ROLES)
def test_any_transport_fault_in_a_handshake_is_io_or_bad_finished(env, role):
    cases = [(k, fault) for k, (op, size) in enumerate(honest_calls(env, role), 1)
             for fault in faults_for(op, size)]
    assert sum(fault == "bad_length" for _, fault in cases) == 2  # the peer's two frames
    for k, fault in cases:
        mine, theirs = timed_pair()
        faulty = FaultySocket(mine, fault, k)
        try:
            outcome, _ = handshake_over(env, role, faulty, theirs)
        finally:
            mine.close(), theirs.close()
        assert isinstance(outcome, HandshakeError), (k, fault, outcome)
        assert outcome.kind in ("io", "bad_finished"), (k, fault, outcome)
        assert faulty.closed, (k, fault)


@pytest.mark.parametrize("role", ROLES)
def test_any_transport_fault_after_the_handshake_is_channel_closed(env, role):
    # the fault hits the header read (1) or the body read (2) of the next record
    for at, fault in [(1, f) for f in HEADER_FAULTS] + [(2, f) for f in BODY_FAULTS]:
        mine, theirs = timed_pair()
        faulty = FaultySocket(mine)
        try:
            chan, peer = handshake_over(env, role, faulty, theirs)
            peer.value.send(APP, b"after the handshake")
            faulty.fault, faulty.fault_at = fault, len(faulty.calls) + at
            with pytest.raises(ChannelError) as info:
                chan.recv()
            assert info.value.kind == "closed", (at, fault)
        finally:
            mine.close(), theirs.close()



@pytest.fixture()
def seals(monkeypatch):
    """A list that gains the (key, nonce) of each crypto.aead_seal call."""
    calls, seal = [], crypto.aead_seal

    def spy(key, nonce, aad, plaintext):
        calls.append((key, nonce))
        return seal(key, nonce, aad, plaintext)

    monkeypatch.setattr(crypto, "aead_seal", spy)
    return calls


def test_an_oversize_payload_is_refused_before_it_is_sealed(env, seals):
    att, ver = handshake_pair(env)
    chan_a, chan_v = att.value, ver.value
    sealed_so_far = len(seals)
    with pytest.raises(wire.WireError):  # a caller error: the channel stays usable
        chan_a.send(APP, b"\x00" * (wire.MAX_PAYLOAD - crypto.TAG_SIZE + 1))
    assert len(seals) == sealed_so_far
    chan_a.send(APP, b"still usable")
    assert chan_v.recv() == (APP, b"still usable")
    assert len(set(seals)) == len(seals)
    chan_a.close(), chan_v.close()


@pytest.mark.parametrize("fault", SEND_FAULTS)
@pytest.mark.parametrize("role", ROLES)
def test_a_failed_send_closes_the_channel_and_never_reuses_its_nonce(env, seals, role, fault):
    mine, theirs = timed_pair()
    faulty = FaultySocket(mine)
    try:
        chan, peer = handshake_over(env, role, faulty, theirs)
        faulty.fault, faulty.fault_at = fault, len(faulty.calls) + 1
        with pytest.raises(ChannelError) as info:
            chan.send(APP, b"first")
        assert info.value.kind == "closed"
        assert faulty.closed
        sealed_so_far = len(seals)
        for op in (lambda: chan.send(APP, b"second"), chan.recv):
            with pytest.raises(ChannelError) as info:
                op()
            assert info.value.kind == "closed"
        assert len(seals) == sealed_so_far
        peer.value.close()
    finally:
        mine.close(), theirs.close()
    assert len(set(seals)) == len(seals), "a (key, nonce) pair sealed twice"


# -- the Finished check: the first record must be a Finished carrying th2 ---------

# what a scripted peer sends as its first record, given the transcript hash th2
FIRST_RECORDS = {"honest": lambda th2: (wire.REC_FINISHED, th2),
                 "wrong_th2": lambda th2: (wire.REC_FINISHED, bytes(32)),
                 "other_type": lambda th2: (APP, th2)}


def scripted_verifier(env, sock, first_record):
    """An honest V1 and key schedule, then `first_record` once the attester's
    Finished has checked out."""
    _, a1 = wire.recv_frame(sock)
    attester_pub = codec.unpack(AttestationCertificate.RECORD, a1).attester_eph_pub
    eph = crypto.dh_generate()
    th1 = crypto.hash_data(a1)
    sig = crypto.sign(env["verifier_key"], _SIG_CONTEXT + th1 + eph.public)
    wire.send_frame(sock, wire.HS_V1,
                    codec.canonical_json({"eph_pub": eph.public.hex(), "sig": sig.hex()}))
    th2 = crypto.hash_data(th1 + eph.public + sig)
    shared = crypto.dh_shared(eph, attester_pub)
    chan = SecureChannel(sock, send_key=crypto.kdf(shared, "s2a", th2),
                         recv_key=crypto.kdf(shared, "a2s", th2))
    assert chan.recv() == (wire.REC_FINISHED, th2)
    chan.send(*first_record(th2))


def scripted_attester(env, sock, first_record):
    """An honest A1 and key schedule, then `first_record` as the first record."""
    eph = crypto.dh_generate()
    a1 = a1_bytes(AttestationCertificate(eph.public, *provider_for(env)(
        bind_report_data(eph.public))))
    wire.send_frame(sock, wire.HS_A1, a1)
    frame_type, payload = wire.recv_frame(sock)
    assert frame_type == wire.HS_V1
    v1 = {k: bytes.fromhex(v) for k, v in wire.read_json(payload).items()}
    th2 = crypto.hash_data(crypto.hash_data(a1) + v1["eph_pub"] + v1["sig"])
    shared = crypto.dh_shared(eph, v1["eph_pub"])
    chan = SecureChannel(sock, send_key=crypto.kdf(shared, "a2s", th2),
                         recv_key=crypto.kdf(shared, "s2a", th2))
    chan.send(*first_record(th2))


@pytest.mark.parametrize("first", sorted(FIRST_RECORDS))
@pytest.mark.parametrize("role", ROLES)
def test_a_first_record_that_is_not_the_transcript_finished_is_bad_finished(env, role, first):
    mine, theirs = timed_pair()
    peer = SideResult()
    script = scripted_verifier if role == "attester" else scripted_attester

    def run_script():
        try:
            script(env, theirs, FIRST_RECORDS[first])
            # after the scripted record: the honest side's Finished, or its close
            peer.value = theirs.recv(1 << 16)
        except Exception as exc:
            peer.error = exc

    thread = threading.Thread(target=run_script)
    thread.start()
    try:
        if role == "attester":
            outcome = attester_handshake(mine, provider_for(env), env["verifier_key"].public)
        else:
            crl = env["pcs"].current_crl()
            outcome = verifier_handshake(mine, env["policy"], lambda pid: crl, NOW,
                                         env["verifier_key"])
    except HandshakeError as exc:
        outcome = exc
    try:
        if first == "honest":  # the scripted peer keeps to the key schedule
            assert isinstance(outcome, SecureChannel), outcome
            outcome.close()
            thread.join(timeout=3 * FAULT_TIMEOUT_S)
            assert peer.error is None
            assert (peer.value == b"") == (role == "attester")  # the verifier's Finished
        else:
            thread.join(timeout=3 * FAULT_TIMEOUT_S)
            assert isinstance(outcome, HandshakeError), outcome
            assert (outcome.kind, outcome.reason) == ("bad_finished",
                                                      "peer Finished does not match transcript")
            assert mine.fileno() == -1
            # closed with nothing more sent: no Finished, and no HS_ERROR after V1
            assert peer.error is None and peer.value == b""
        assert not thread.is_alive()
    finally:
        mine.close(), theirs.close()
