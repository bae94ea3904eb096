"""The mock PCS as a network service: platform certificate/CRL lookups
plus admin register/revoke, over plaintext frames (PCS data is public).
Payloads are JSON; message types and schemas in WIRE.md.
"""

from __future__ import annotations

import socket
import time

from . import crypto, wire
from .attestation import (
    CertChain,
    Crl,
    PcsDatabase,
    PlatformIdentity,
    UnknownPlatformError,
    canonical_json,
)


class PcsServer(wire.FrameServer):
    """Serves one PcsDatabase over TCP; persists after every mutation when
    a db_path is given. One thread per connection; the database's own lock
    serializes mutations. A malformed request gets a PCS_ERROR reply and
    the connection stays open."""

    def __init__(self, db: PcsDatabase, host: str = "127.0.0.1", port: int = 0,
                 db_path=None, now_source=time.time):
        super().__init__(host, port)
        self.db = db
        self.db_path = db_path
        self.now_source = now_source

    def _handle(self, frame_type: int, payload: bytes) -> tuple[int, bytes]:
        if frame_type not in (wire.PCS_FETCH_REQ, wire.PCS_REGISTER_REQ, wire.PCS_REVOKE_REQ):
            return wire.PCS_ERROR, canonical_json({"reason": "bad_type"})
        try:
            request = wire.read_json(payload)
            if frame_type == wire.PCS_FETCH_REQ:
                chain, crl = self.db.fetch(bytes.fromhex(request["platform_id"]))
                return wire.PCS_FETCH_RESP, canonical_json(
                    {"chain": chain.to_dict(), "crl": crl.to_dict()})
            if frame_type == wire.PCS_REGISTER_REQ:
                platform, chain = self.db.register(request.get("tcb_level", 0),
                                                   now=int(self.now_source()))
                self._persist()
                return wire.PCS_REGISTER_RESP, canonical_json(identity_to_dict(platform, chain))
            crl = self.db.revoke(bytes.fromhex(request["platform_id"]))
            self._persist()
            return wire.PCS_REVOKE_RESP, canonical_json({"crl": crl.to_dict()})
        except UnknownPlatformError:
            reason = "unknown_platform"
        except wire.DECODE_ERRORS:
            reason = "bad_request"
        return wire.PCS_ERROR, canonical_json({"reason": reason})

    def _persist(self) -> None:
        if self.db_path is not None:
            self.db.save(self.db_path)


class PcsClientError(Exception):
    def __init__(self, reason: str):
        self.reason = reason
        super().__init__(reason)


def _request(addr, frame_type: int, body: dict, expect: int, read):
    """read(decoded reply) for a reply of type `expect`; PcsClientError with
    the server's reason for a PCS_ERROR, or with "bad_response" for a reply
    that does not decode."""
    with socket.create_connection(addr, timeout=wire.CLIENT_TIMEOUT) as conn:
        wire.send_frame(conn, frame_type, canonical_json(body))
        got_type, payload = wire.recv_frame(conn)
    if got_type not in (expect, wire.PCS_ERROR):
        raise PcsClientError(f"unexpected response type {got_type:#x}")
    try:
        response = wire.read_json(payload)
        if got_type == expect:
            return read(response)
        reason = response.get("reason", "unknown")
        if not isinstance(reason, str):
            raise TypeError("PCS_ERROR reason is not a string")
    except wire.DECODE_ERRORS:
        raise PcsClientError("bad_response") from None
    raise PcsClientError(reason)


def fetch_platform(addr, platform_id: bytes) -> tuple[CertChain, Crl]:
    return _request(addr, wire.PCS_FETCH_REQ, {"platform_id": platform_id.hex()},
                    wire.PCS_FETCH_RESP,
                    lambda r: (CertChain.from_dict(r["chain"]), Crl.from_dict(r["crl"])))


def identity_to_dict(platform: PlatformIdentity, chain: CertChain) -> dict:
    """Platform identity + chain as one JSON-able blob (holds the private
    attestation key: it belongs on the platform owner's side only)."""
    return {
        "platform": {
            "platform_id": platform.platform_id.hex(),
            "private_key": platform.signing_key.private.hex(),
            "public_key": platform.signing_key.public.hex(),
            "tcb_level": platform.tcb_level,
        },
        "chain": chain.to_dict(),
    }


def identity_from_dict(d: dict) -> tuple[PlatformIdentity, CertChain]:
    p = d["platform"]
    identity = PlatformIdentity(
        platform_id=bytes.fromhex(p["platform_id"]),
        signing_key=crypto.signing_key(bytes.fromhex(p["private_key"])),
        tcb_level=int(p["tcb_level"]),
    )
    return identity, CertChain.from_dict(d["chain"])


def register_platform(addr, tcb_level: int) -> tuple[PlatformIdentity, CertChain]:
    return _request(addr, wire.PCS_REGISTER_REQ, {"tcb_level": tcb_level},
                    wire.PCS_REGISTER_RESP, identity_from_dict)


def revoke_platform(addr, platform_id: bytes) -> Crl:
    return _request(addr, wire.PCS_REVOKE_REQ, {"platform_id": platform_id.hex()},
                    wire.PCS_REVOKE_RESP, lambda r: Crl.from_dict(r["crl"]))
