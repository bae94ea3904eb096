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
    VerificationResult,
    _signature_from_hex,
    canonical_json,
    quote_verify,
)

RATLS_BIND_LABEL = b"ratls-bind-v1"
_SIG_CONTEXT = b"ratls-v1-sig"
_OUT_OF_ORDER_WINDOW = 32

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
            attester_eph_pub=bytes.fromhex(d["eph_pub"]),
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


def _transcript_after_a1(a1_payload: bytes) -> bytes:
    return crypto.hash_data(a1_payload)


def _transcript_after_v1(th1: bytes, verifier_eph_pub: bytes, sig: bytes) -> bytes:
    return crypto.hash_data(th1 + verifier_eph_pub + sig)


def _derive_keys(shared: bytes, th2: bytes) -> tuple[bytes, bytes]:
    return crypto.kdf(shared, "a2s", th2), crypto.kdf(shared, "s2a", th2)


class SecureChannel:
    """Established channel; single owner per direction."""

    def __init__(self, sock: socket.socket, send_key: bytes, recv_key: bytes,
                 verification: VerificationResult | None = None,
                 peer_certificate: "AttestationCertificate | None" = None):
        self._sock = sock
        self._send_key = send_key
        self._recv_key = recv_key
        self._send_seq = 0
        self._recv_seq = 0
        self.verification = verification
        self.peer_certificate = peer_certificate
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
    try:
        wire.send_frame(conn, wire.HS_A1, a1)
        frame_type, payload = wire.recv_frame(conn)
    except (wire.WireError, OSError) as exc:
        raise HandshakeError("io", str(exc))

    if frame_type == wire.HS_ERROR:
        kind, reason = _read_peer_json(payload, "HS_ERROR", _hs_error_fields)
        raise HandshakeError(kind, reason)
    if frame_type != wire.HS_V1:
        raise HandshakeError("io", f"unexpected frame type {frame_type:#x}")

    verifier_eph_pub, sig = _read_peer_json(payload, "V1", lambda d: (
        bytes.fromhex(d["eph_pub"]), _signature_from_hex(d["sig"])))
    th1 = _transcript_after_a1(a1)
    if not crypto.verify(verifier_pin, _SIG_CONTEXT + th1 + verifier_eph_pub, sig):
        raise HandshakeError("peer_auth_failed",
                             "verifier signature does not match the pinned key")

    th2 = _transcript_after_v1(th1, verifier_eph_pub, sig)
    shared = crypto.dh_shared(eph.private, verifier_eph_pub)
    key_a2v, key_v2a = _derive_keys(shared, th2)
    channel = SecureChannel(conn, send_key=key_a2v, recv_key=key_v2a)
    channel.send(wire.REC_FINISHED, th2)
    try:
        record_type, payload = channel.recv()
    except ChannelError as exc:
        raise HandshakeError("bad_finished", str(exc))
    if record_type != wire.REC_FINISHED or payload != th2:
        raise HandshakeError("bad_finished", "verifier Finished does not match transcript")
    return channel


def verifier_handshake(conn: socket.socket, policy: VerificationPolicy,
                       crl_provider: Callable[[bytes], Crl], now: int,
                       verifier_signing_key: crypto.SigningKeyPair,
                       ) -> tuple[SecureChannel, VerificationResult]:
    """User side: verify the attestation certificate and the ephemeral-key
    binding before revealing anything; fail-closed (no V1 on failure, the
    connection is closed; a failure before V1 first gets one HS_ERROR with
    its kind and reason). `crl_provider(platform_id)` gives the CRL to check."""
    try:
        try:
            a1, cert, result = _verify_a1(conn, policy, crl_provider, now)
        except HandshakeError as exc:
            _send_hs_error(conn, exc.kind, exc.reason)
            raise
        return _answer_a1(conn, a1, cert, result, verifier_signing_key)
    except BaseException:
        _quiet_close(conn)
        raise


def _verify_a1(conn, policy, crl_provider, now):
    try:
        frame_type, a1 = wire.recv_frame(conn)
    except (wire.WireError, OSError) as exc:
        raise HandshakeError("io", str(exc))
    if frame_type != wire.HS_A1:
        raise HandshakeError("io", f"unexpected frame type {frame_type:#x}")
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
    return a1, cert, result


def _answer_a1(conn, a1, cert, result, verifier_signing_key):
    eph = crypto.dh_generate()
    th1 = _transcript_after_a1(a1)
    sig = crypto.sign(verifier_signing_key.private, _SIG_CONTEXT + th1 + eph.public)
    v1 = canonical_json({"eph_pub": eph.public.hex(), "sig": sig.hex()})
    try:
        wire.send_frame(conn, wire.HS_V1, v1)
    except OSError as exc:
        raise HandshakeError("io", str(exc))

    th2 = _transcript_after_v1(th1, eph.public, sig)
    shared = crypto.dh_shared(eph.private, cert.attester_eph_pub)
    key_a2v, key_v2a = _derive_keys(shared, th2)
    channel = SecureChannel(conn, send_key=key_v2a, recv_key=key_a2v,
                            verification=result, peer_certificate=cert)
    try:
        record_type, payload = channel.recv()
    except ChannelError as exc:
        raise HandshakeError("bad_finished", str(exc))
    if record_type != wire.REC_FINISHED or payload != th2:
        raise HandshakeError("bad_finished", "attester Finished does not match transcript")
    channel.send(wire.REC_FINISHED, th2)
    return channel, result


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
