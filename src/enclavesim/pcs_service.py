"""The mock PCS as a network service: platform certificate/CRL lookups
plus admin register/revoke, over plaintext frames (PCS data is public).
Payloads are JSON; message types and schemas in WIRE.md.
"""

from __future__ import annotations

import socket
import threading
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


POOL_SIZE = 4  # idle connections a PcsPool keeps; each holds one PCS slot until IDLE_TIMEOUT
# what a reused connection that the PCS has closed raises: EOF, reset, broken pipe
_STALE = (wire.ConnectionClosedError, ConnectionError)


class PcsPool:
    """At most POOL_SIZE idle connections to the PCS at `addr`, reused by
    `fetch_platform` only: a fetch is idempotent, so a request on a
    connection the PCS has closed is sent once more on a fresh one.
    Connections open on first use; `close()` closes the idle ones, and any
    in use close when their request ends. `crl` is the key server's
    crl_provider: every call fetches a fresh CRL."""

    def __init__(self, addr):
        self.addr = addr
        self._idle: list[socket.socket] = []
        self._lock = threading.Lock()
        self._closed = False
        self._counts = {"connected": 0, "reused": 0, "retried": 0}

    def crl(self, platform_id: bytes) -> Crl:
        return fetch_platform(self.addr, platform_id, self)[1]

    def stats(self) -> dict:
        """connected: fresh connections opened (retries included); reused:
        requests sent on an idle connection; retried: reuses that found the
        connection closed and were sent again on a fresh one."""
        with self._lock:
            return dict(self._counts)

    def close(self) -> None:
        with self._lock:
            self._closed = True
            idle, self._idle = self._idle, []
        for conn in idle:
            conn.close()

    def _count(self, name: str) -> None:
        with self._lock:
            self._counts[name] += 1

    def _take(self) -> socket.socket | None:
        with self._lock:
            if not self._idle:
                return None
            self._counts["reused"] += 1
            return self._idle.pop()  # the newest: the least likely to have idled out

    def _give_back(self, conn: socket.socket) -> None:
        with self._lock:
            if not self._closed and len(self._idle) < POOL_SIZE:
                self._idle.append(conn)
                return
        conn.close()


def _connect(addr, pool: PcsPool | None) -> socket.socket:
    conn = socket.create_connection(addr, timeout=wire.CLIENT_TIMEOUT)
    if pool is not None:
        pool._count("connected")
    return conn


def _request(addr, frame_type: int, body: dict, expect: int, read,
             pool: PcsPool | None = None):
    """read(decoded reply) for a reply of type `expect`; PcsClientError with
    the server's reason for a PCS_ERROR, or with "bad_response" for a reply
    that does not decode. Without a pool the connection is one-shot; with
    one it comes from the pool when one is idle, is retried once on a fresh
    connection when the PCS has closed it, and goes back to the pool after
    a reply that decodes."""
    request = canonical_json(body)
    conn = pool._take() if pool is not None else None
    reused = conn is not None
    if not reused:
        conn = _connect(addr, pool)
    try:
        try:
            wire.send_frame(conn, frame_type, request)
            got_type, payload = wire.recv_frame(conn)
        except _STALE:
            if not reused:
                raise
            conn.close()
            pool._count("retried")
            conn = _connect(addr, pool)
            wire.send_frame(conn, frame_type, request)
            got_type, payload = wire.recv_frame(conn)
        value, reason = _read_reply(got_type, payload, expect, read)
    except BaseException:
        conn.close()
        raise
    if pool is not None:
        pool._give_back(conn)
    else:
        conn.close()
    if reason is not None:
        raise PcsClientError(reason)
    return value


def _read_reply(got_type: int, payload: bytes, expect: int, read):
    """(read(reply), None) for a reply of type `expect`, (None, reason) for
    a PCS_ERROR; PcsClientError for any other type or a reply that does not
    decode."""
    if got_type not in (expect, wire.PCS_ERROR):
        raise PcsClientError(f"unexpected response type {got_type:#x}")
    try:
        response = wire.read_json(payload)
        if got_type == expect:
            return read(response), None
        reason = response.get("reason", "unknown")
        if not isinstance(reason, str):
            raise TypeError("PCS_ERROR reason is not a string")
    except wire.DECODE_ERRORS:
        raise PcsClientError("bad_response") from None
    return None, reason


def fetch_platform(addr, platform_id: bytes,
                   pool: PcsPool | None = None) -> tuple[CertChain, Crl]:
    """The platform's chain and current CRL; over an idle connection of
    `pool`, a PcsPool for `addr`, when one is given."""
    return _request(addr, wire.PCS_FETCH_REQ, {"platform_id": platform_id.hex()},
                    wire.PCS_FETCH_RESP,
                    lambda r: (CertChain.from_dict(r["chain"]), Crl.from_dict(r["crl"])),
                    pool)


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
