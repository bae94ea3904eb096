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

from . import codec, crypto, wire
from .attestation import (
    QUOTE_SIZE,
    SIGNATURE,
    CertChain,
    Crl,
    Quote,
    VerificationPolicy,
    quote_verify,
)
from .failure import EXIT_ATTESTATION, EXIT_OTHER, Failure

RATLS_BIND_LABEL = b"ratls-bind-v1"
_SIG_CONTEXT = b"ratls-v1-sig"
EPH_PUB = codec.hexbytes(32)  # an X25519 public key

QuoteProvider = Callable[[bytes], tuple[Quote, CertChain]]


class HandshakeError(Failure):
    KINDS = {"attestation_failed": EXIT_ATTESTATION, "binding_mismatch": EXIT_ATTESTATION,
             "peer_auth_failed": EXIT_OTHER, "bad_finished": EXIT_OTHER, "io": EXIT_OTHER}


class ChannelError(Failure):
    KINDS = {"auth": EXIT_OTHER, "closed": EXIT_OTHER}


@codec.record(("eph_pub", EPH_PUB), ("quote", codec.packed(Quote, QUOTE_SIZE)),
              ("chain", CertChain.RECORD))
@dataclass(frozen=True)
class AttestationCertificate:
    """The A1 message: ephemeral public key, a quote whose report_data
    commits to that key, and the platform certificate chain."""

    attester_eph_pub: bytes
    quote: Quote
    cert_chain: CertChain


V1 = codec.Record(("eph_pub", EPH_PUB), ("sig", SIGNATURE))
HS_ERROR = codec.Record(("kind", codec.STR), ("reason", codec.optional(codec.STR)))
HS_ERROR_KINDS = ("io", "attestation_failed", "binding_mismatch")  # all a verifier sends


def _read_peer(record, payload: bytes, what: str):
    """`payload` decoded as `record`; a malformed one is HandshakeError("io")."""
    try:
        return codec.unpack(record, payload)
    except wire.DECODE_ERRORS as exc:
        raise HandshakeError("io", f"malformed {what}: {exc}")


def bind_report_data(eph_pub: bytes) -> bytes:
    """report_data committing to the ephemeral key: the 32-byte binding
    hash, left-padded with zeros to the 64-byte quote field."""
    return b"\x00" * 32 + crypto.hash_data(eph_pub + RATLS_BIND_LABEL)


# what a failed send or receive raises: the socket, the framing, the record layer
_IO_FAILURES = (OSError, wire.WireError, ChannelError)


def _as_io(step, *args):
    """`step(*args)`, one handshake role's steps, with any transport failure
    raised as HandshakeError("io"): the one place each role translates them."""
    try:
        return step(*args)
    except _IO_FAILURES as exc:
        raise HandshakeError("io", str(exc))


def _recv_handshake(conn: socket.socket, *frame_types: int) -> tuple[int, bytes]:
    """The peer's next plaintext handshake frame, which must be of one of
    `frame_types`; another type is HandshakeError("io")."""
    frame_type, payload = wire.recv_frame(conn)
    if frame_type not in frame_types:
        raise HandshakeError("io", f"unexpected frame type {frame_type:#x}")
    return frame_type, payload


def _key_schedule(th1, verifier_eph_pub, sig, own: crypto.KeyPair, peer_public):
    """(th2, key_a2v, key_v2a) of WIRE.md's key schedule, from V1 and this
    side's X25519 agreement; a key that X25519 rejects is HandshakeError("io")."""
    th2 = crypto.hash_data(th1 + verifier_eph_pub + sig)
    try:
        shared = crypto.dh_shared(own, peer_public)
    except ValueError as exc:
        raise HandshakeError("io", str(exc))
    return th2, crypto.kdf(shared, "a2s", th2), crypto.kdf(shared, "s2a", th2)


def _check_finished(channel: "SecureChannel", th2: bytes) -> None:
    """The peer's Finished must be the first record and carry th2."""
    try:
        record_type, payload = channel.recv()
    except ChannelError as exc:
        raise HandshakeError("bad_finished", str(exc))
    if record_type != wire.REC_FINISHED or payload != th2:
        raise HandshakeError("bad_finished", "peer Finished does not match transcript")


def _record_nonce_aad(record_type: int, seq: int) -> tuple[bytes, bytes]:
    """The nonce and AAD of the record numbered `seq` in its direction: the
    12-byte big-endian `seq`, and `type || u64be(seq)`."""
    return seq.to_bytes(12, "big"), bytes([record_type]) + struct.pack(">Q", seq)


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
        """An oversize payload is WireError before anything is sealed; a
        frame that fails to go out closes the channel, since part of it may
        be on the wire and its nonce must never seal another record."""
        if self._closed:
            raise ChannelError("closed")
        if len(payload) + crypto.TAG_SIZE > wire.MAX_PAYLOAD:
            raise wire.WireError(f"payload of {len(payload)} bytes does not fit a record")
        sealed = crypto.aead_seal(self._send_key, *_record_nonce_aad(record_type, self._send_seq),
                                  payload)
        try:
            wire.send_frame(self._sock, record_type, sealed)
        except OSError as exc:
            self.close()
            raise ChannelError("closed", str(exc))
        self._send_seq += 1

    def recv(self) -> tuple[int, bytes]:
        if self._closed:
            raise ChannelError("closed")
        try:
            record_type, sealed = wire.recv_frame(self._sock)
        except (wire.WireError, OSError) as exc:
            raise ChannelError("closed", str(exc))
        try:
            payload = crypto.aead_open(self._recv_key,
                                       *_record_nonce_aad(record_type, self._recv_seq), sealed)
        except crypto.AuthError:
            raise ChannelError("auth", "record failed authentication")
        self._recv_seq += 1
        return record_type, payload

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
        return _as_io(_attester_handshake, conn, quote_provider, verifier_pin)
    except BaseException:
        _quiet_close(conn)
        raise


def _attester_handshake(conn: socket.socket, quote_provider: QuoteProvider,
                        verifier_pin: bytes) -> SecureChannel:
    eph = crypto.dh_generate()
    quote, chain = quote_provider(bind_report_data(eph.public))
    a1 = codec.pack(AttestationCertificate.RECORD,
                    AttestationCertificate(eph.public, quote, chain))
    wire.send_frame(conn, wire.HS_A1, a1)
    frame_type, payload = _recv_handshake(conn, wire.HS_V1, wire.HS_ERROR)
    if frame_type == wire.HS_ERROR:
        error = _read_peer(HS_ERROR, payload, "HS_ERROR")
        if error["kind"] not in HS_ERROR_KINDS:
            raise HandshakeError("io", f"HS_ERROR of kind {error['kind']!r:.40}")
        raise HandshakeError(**error)

    v1 = _read_peer(V1, payload, "V1")
    verifier_eph_pub, sig = v1["eph_pub"], v1["sig"]
    th1 = crypto.hash_data(a1)
    if not crypto.verify(verifier_pin, _SIG_CONTEXT + th1 + verifier_eph_pub, sig):
        raise HandshakeError("peer_auth_failed",
                             "verifier signature does not match the pinned key")

    th2, key_a2v, key_v2a = _key_schedule(th1, verifier_eph_pub, sig, eph, verifier_eph_pub)
    channel = SecureChannel(conn, send_key=key_a2v, recv_key=key_v2a)
    channel.send(wire.REC_FINISHED, th2)
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
            a1, cert = _as_io(_verify_a1, conn, policy, crl_provider, now)
        except HandshakeError as exc:
            _send_hs_error(conn, exc.kind, exc.reason)
            raise
        return _as_io(_answer_a1, conn, a1, cert, verifier_signing_key)
    except BaseException:
        _quiet_close(conn)
        raise


def _verify_a1(conn, policy, crl_provider, now):
    _, a1 = _recv_handshake(conn, wire.HS_A1)
    cert = _read_peer(AttestationCertificate.RECORD, a1, "certificate")
    try:
        crl = crl_provider(cert.quote.platform_id)
    except Exception as exc:
        # without a CRL non-revocation is unproven: fail closed; its error stays here
        raise HandshakeError("attestation_failed", "crl_unavailable") from exc
    reason = quote_verify(cert.quote, cert.cert_chain, crl, policy, now)
    if reason is not None:
        raise HandshakeError("attestation_failed", reason)
    if cert.quote.report_data != bind_report_data(cert.attester_eph_pub):
        raise HandshakeError("binding_mismatch",
                             "report_data does not commit to the presented ephemeral key")
    return a1, cert


def _answer_a1(conn, a1, cert, verifier_signing_key):
    eph = crypto.dh_generate()
    th1 = crypto.hash_data(a1)
    sig = crypto.sign(verifier_signing_key, _SIG_CONTEXT + th1 + eph.public)
    wire.send_frame(conn, wire.HS_V1, codec.pack(V1, {"eph_pub": eph.public, "sig": sig}))
    # X25519 after V1, so it overlaps the attester's signature check
    th2, key_a2v, key_v2a = _key_schedule(th1, eph.public, sig, eph, cert.attester_eph_pub)
    channel = SecureChannel(conn, send_key=key_v2a, recv_key=key_a2v, peer_certificate=cert)
    _check_finished(channel, th2)
    channel.send(wire.REC_FINISHED, th2)
    return channel


def _send_hs_error(conn: socket.socket, kind: str, reason: str | None) -> None:
    try:
        wire.send_frame(conn, wire.HS_ERROR,
                        codec.pack(HS_ERROR, {"kind": kind, "reason": reason}))
    except OSError:
        pass


def _quiet_close(conn: socket.socket) -> None:
    try:
        conn.close()
    except OSError:
        pass
