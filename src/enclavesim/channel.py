"""Attestation-bound secure channel.

A purpose-built 3-message handshake stands in for TLS: the attester
(enclave side, connection initiator) presents an attestation certificate
whose quote commits to its ephemeral X25519 key via report_data, the
verifier checks the quote against its policy and authenticates itself by
signing the transcript with a key the attester has pinned, then both
sides derive direction keys and prove transcript agreement with sealed
Finished records. Message bytes and the transcript/key schedule are
pinned in WIRE.md.

Record layer: AEAD-sealed frames with aad = type byte || big-endian
sequence number; the 12-byte nonce is the big-endian sequence counter
(keys are per-direction, so counters never collide across directions).
"""

from __future__ import annotations

import socket
import struct
from dataclasses import dataclass
from typing import Callable

from . import crypto, wire
from .attestation import (
    CertChain,
    Crl,
    Quote,
    VerificationPolicy,
    _fixed_hex,
    canonical_json,
    quote_verify,
)

RATLS_BIND_LABEL = b"ratls-bind-v1"
_SIG_CONTEXT = b"ratls-v1-sig"
_OUT_OF_ORDER_WINDOW = 32
EPH_PUB_SIZE = 32  # an X25519 public key

QuoteProvider = Callable[[bytes], tuple[Quote, CertChain]]


class HandshakeError(Exception):
    """kind: peer_auth_failed | bad_finished | attestation_failed |
    binding_mismatch | io (reason carries detail, e.g. the verification
    failure_reason)."""

    def __init__(self, kind: str, reason: str | None = None):
        self.kind = kind
        self.reason = reason
        super().__init__(kind if reason is None else f"{kind}: {reason}")


class ChannelError(Exception):
    """kind: replay | out_of_order | auth | closed"""

    def __init__(self, kind: str, detail: str = ""):
        self.kind = kind
        super().__init__(f"{kind}: {detail}" if detail else kind)


@dataclass(frozen=True)
class AttestationCertificate:
    """The A1 message: ephemeral public key, a quote whose report_data
    commits to that key, and the platform certificate chain."""

    attester_eph_pub: bytes
    quote: Quote
    cert_chain: CertChain

    def encode(self) -> bytes:
        return canonical_json({
            "eph_pub": self.attester_eph_pub.hex(),
            "quote": self.quote.pack().hex(),
            "chain": self.cert_chain.to_dict(),
        })

    @classmethod
    def decode(cls, payload: bytes) -> "AttestationCertificate":
        return _read_peer_json(payload, "certificate", lambda d: cls(
            attester_eph_pub=_fixed_hex(d["eph_pub"], EPH_PUB_SIZE),
            quote=Quote.unpack(bytes.fromhex(d["quote"])),
            cert_chain=CertChain.from_dict(d["chain"]),
        ))


def _read_peer_json(payload: bytes, what: str, read):
    """read(parsed JSON payload); every malformed peer message becomes
    HandshakeError("io") so no decoder error escapes a handshake."""
    try:
        return read(wire.read_json(payload))
    except wire.DECODE_ERRORS as exc:
        raise HandshakeError("io", f"malformed {what}: {exc}")


def _hs_error_fields(d: dict) -> tuple[str, str | None]:
    kind, reason = d.get("kind", "io"), d.get("reason")
    if not isinstance(kind, str) or not (reason is None or isinstance(reason, str)):
        raise TypeError("HS_ERROR kind or reason is not a string")
    return kind, reason


def bind_report_data(eph_pub: bytes) -> bytes:
    """report_data committing to the ephemeral key: the 32-byte binding
    hash, left-padded with zeros to the 64-byte quote field."""
    return b"\x00" * 32 + crypto.hash_data(eph_pub + RATLS_BIND_LABEL)


def _send_handshake(conn: socket.socket, frame_type: int, payload: bytes) -> None:
    try:
        wire.send_frame(conn, frame_type, payload)
    except OSError as exc:
        raise HandshakeError("io", str(exc))


def _recv_handshake(conn: socket.socket, *frame_types: int) -> tuple[int, bytes]:
    """The peer's next plaintext handshake frame, which must be of one of
    `frame_types`; anything else is HandshakeError("io")."""
    try:
        frame_type, payload = wire.recv_frame(conn)
    except (wire.WireError, OSError) as exc:
        raise HandshakeError("io", str(exc))
    if frame_type not in frame_types:
        raise HandshakeError("io", f"unexpected frame type {frame_type:#x}")
    return frame_type, payload


def _key_schedule(th1, verifier_eph_pub, sig, own_private, peer_public):
    """(th2, key_a2v, key_v2a) of WIRE.md's key schedule, from V1 and this
    side's X25519 agreement; a key that X25519 rejects is HandshakeError("io")."""
    th2 = crypto.hash_data(th1 + verifier_eph_pub + sig)
    try:
        shared = crypto.dh_shared(own_private, peer_public)
    except ValueError as exc:
        raise HandshakeError("io", str(exc))
    return th2, crypto.kdf(shared, "a2s", th2), crypto.kdf(shared, "s2a", th2)


def _send_finished(channel: "SecureChannel", th2: bytes) -> None:
    """This side's Finished; a peer that has gone is HandshakeError("io")."""
    try:
        channel.send(wire.REC_FINISHED, th2)
    except ChannelError as exc:
        raise HandshakeError("io", str(exc))


def _check_finished(channel: "SecureChannel", th2: bytes) -> None:
    """The peer's Finished must be the first record and carry th2."""
    try:
        record_type, payload = channel.recv()
    except ChannelError as exc:
        raise HandshakeError("bad_finished", str(exc))
    if record_type != wire.REC_FINISHED or payload != th2:
        raise HandshakeError("bad_finished", "peer Finished does not match transcript")


class SecureChannel:
    """Established channel; single owner per direction."""

    def __init__(self, sock: socket.socket, send_key: bytes, recv_key: bytes,
                 peer_certificate: "AttestationCertificate | None" = None):
        self._sock = sock
        self._send_key = send_key
        self._recv_key = recv_key
        self._send_seq = 0
        self._recv_seq = 0
        self.peer_certificate = peer_certificate  # the verified A1, on the verifier
        self._closed = False

    def send(self, record_type: int, payload: bytes) -> None:
        if self._closed:
            raise ChannelError("closed")
        nonce = self._send_seq.to_bytes(12, "big")
        aad = bytes([record_type]) + struct.pack(">Q", self._send_seq)
        sealed = crypto.aead_seal(self._send_key, nonce, aad, payload)
        try:
            wire.send_frame(self._sock, record_type, sealed)
        except OSError as exc:
            raise ChannelError("closed", str(exc))
        self._send_seq += 1

    def recv(self) -> tuple[int, bytes]:
        if self._closed:
            raise ChannelError("closed")
        try:
            record_type, sealed = wire.recv_frame(self._sock)
        except wire.ConnectionClosedError:
            raise ChannelError("closed", "peer closed the connection")
        except OSError as exc:
            raise ChannelError("closed", str(exc))
        try:
            payload = self._open(record_type, sealed, self._recv_seq)
        except crypto.AuthError:
            raise self._classify_failure(record_type, sealed)
        self._recv_seq += 1
        return record_type, payload

    def _open(self, record_type: int, sealed: bytes, seq: int) -> bytes:
        nonce = seq.to_bytes(12, "big")
        aad = bytes([record_type]) + struct.pack(">Q", seq)
        return crypto.aead_open(self._recv_key, nonce, aad, sealed)

    def _classify_failure(self, record_type: int, sealed: bytes) -> ChannelError:
        # no plaintext sequence number on the record, so probe the window on
        # both sides: decrypting under an old counter means a replay, under a
        # near-future one a reordered record, otherwise plain tampering
        expected = self._recv_seq
        for seq in range(max(0, expected - _OUT_OF_ORDER_WINDOW),
                         expected + _OUT_OF_ORDER_WINDOW + 1):
            if seq == expected:
                continue
            try:
                self._open(record_type, sealed, seq)
            except crypto.AuthError:
                continue
            if seq < expected:
                return ChannelError("replay", f"record for sequence {seq} seen again")
            return ChannelError("out_of_order", f"expected sequence {expected}, got {seq}")
        return ChannelError("auth", "record failed authentication")

    def close(self) -> None:
        if not self._closed:
            self._closed = True
            _quiet_close(self._sock)


def attester_handshake(conn: socket.socket, quote_provider: QuoteProvider,
                       verifier_pin: bytes) -> SecureChannel:
    """Enclave side: present quote-bound ephemeral key, authenticate the
    verifier against the pinned key, prove transcript agreement. The
    connection is closed on any failure."""
    try:
        return _attester_handshake(conn, quote_provider, verifier_pin)
    except BaseException:
        _quiet_close(conn)
        raise


def _attester_handshake(conn: socket.socket, quote_provider: QuoteProvider,
                        verifier_pin: bytes) -> SecureChannel:
    eph = crypto.dh_generate()
    quote, chain = quote_provider(bind_report_data(eph.public))
    a1 = AttestationCertificate(eph.public, quote, chain).encode()
    _send_handshake(conn, wire.HS_A1, a1)
    frame_type, payload = _recv_handshake(conn, wire.HS_V1, wire.HS_ERROR)
    if frame_type == wire.HS_ERROR:
        raise HandshakeError(*_read_peer_json(payload, "HS_ERROR", _hs_error_fields))

    verifier_eph_pub, sig = _read_peer_json(payload, "V1", lambda d: (
        _fixed_hex(d["eph_pub"], EPH_PUB_SIZE), _fixed_hex(d["sig"], crypto.SIGNATURE_SIZE)))
    th1 = crypto.hash_data(a1)
    if not crypto.verify(verifier_pin, _SIG_CONTEXT + th1 + verifier_eph_pub, sig):
        raise HandshakeError("peer_auth_failed",
                             "verifier signature does not match the pinned key")

    th2, key_a2v, key_v2a = _key_schedule(th1, verifier_eph_pub, sig, eph.private,
                                          verifier_eph_pub)
    channel = SecureChannel(conn, send_key=key_a2v, recv_key=key_v2a)
    _send_finished(channel, th2)
    _check_finished(channel, th2)
    return channel


def verifier_handshake(conn: socket.socket, policy: VerificationPolicy,
                       crl_provider: Callable[[bytes], Crl], now: int,
                       verifier_signing_key: crypto.SigningKeyPair) -> SecureChannel:
    """User side: verify the attestation certificate and the ephemeral-key
    binding before revealing anything; fail-closed (no V1 on failure, the
    connection is closed; a failure before V1 first gets one HS_ERROR with
    its kind and reason). `crl_provider(platform_id)` gives the CRL to check.
    The channel's `peer_certificate` is the verified A1."""
    try:
        try:
            a1, cert = _verify_a1(conn, policy, crl_provider, now)
        except HandshakeError as exc:
            _send_hs_error(conn, exc.kind, exc.reason)
            raise
        return _answer_a1(conn, a1, cert, verifier_signing_key)
    except BaseException:
        _quiet_close(conn)
        raise


def _verify_a1(conn, policy, crl_provider, now):
    _, a1 = _recv_handshake(conn, wire.HS_A1)
    cert = AttestationCertificate.decode(a1)
    try:
        crl = crl_provider(cert.quote.platform_id)
    except Exception as exc:
        # without a CRL non-revocation is unproven: fail closed; its error stays here
        raise HandshakeError("attestation_failed", "crl_unavailable") from exc
    result = quote_verify(cert.quote, cert.cert_chain, crl, policy, now)
    if not result.ok:
        raise HandshakeError("attestation_failed", result.failure_reason)
    if cert.quote.report_data != bind_report_data(cert.attester_eph_pub):
        raise HandshakeError("binding_mismatch",
                             "report_data does not commit to the presented ephemeral key")
    return a1, cert


def _answer_a1(conn, a1, cert, verifier_signing_key):
    eph = crypto.dh_generate()
    th1 = crypto.hash_data(a1)
    sig = crypto.sign(verifier_signing_key.private, _SIG_CONTEXT + th1 + eph.public)
    v1 = canonical_json({"eph_pub": eph.public.hex(), "sig": sig.hex()})
    _send_handshake(conn, wire.HS_V1, v1)
    # X25519 after V1, so it overlaps the attester's signature check
    th2, key_a2v, key_v2a = _key_schedule(th1, eph.public, sig, eph.private,
                                          cert.attester_eph_pub)
    channel = SecureChannel(conn, send_key=key_v2a, recv_key=key_a2v, peer_certificate=cert)
    _check_finished(channel, th2)
    _send_finished(channel, th2)
    return channel


def _send_hs_error(conn: socket.socket, kind: str, reason: str | None) -> None:
    try:
        wire.send_frame(conn, wire.HS_ERROR, canonical_json({"kind": kind, "reason": reason}))
    except OSError:
        pass


def _quiet_close(conn: socket.socket) -> None:
    try:
        conn.close()
    except OSError:
        pass
