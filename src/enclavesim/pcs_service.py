"""The mock PCS as a network service: platform certificate/CRL lookups
plus admin register/revoke, over plaintext frames (PCS data is public).
Payloads are JSON; message types and schemas in WIRE.md.
"""

from __future__ import annotations

import functools
import pathlib
import socket
import threading
import time

from . import codec, wire
from .attestation import (
    PLATFORM_ID,
    CertChain,
    Crl,
    PcsDatabase,
    PlatformIdentity,
    UnknownPlatformError,
    replace_atomically,
)
from .failure import EXIT_OTHER, Failure

PLATFORM_REQ = codec.Record(("platform_id", PLATFORM_ID))  # PCS_FETCH_REQ, PCS_REVOKE_REQ
REGISTER_REQ = codec.Record(("tcb_level", codec.U32))
FETCH_RESP = codec.Record(("chain", CertChain.RECORD), ("crl", Crl.RECORD))
REVOKE_RESP = codec.Record(("crl", Crl.RECORD))
PCS_ERROR = codec.Record(("reason", codec.STR))
# PCS_REGISTER_RESP and the identity file; it holds the private attestation
# key, which belongs on the platform owner's side only
IDENTITY = codec.Record(("platform", PlatformIdentity.RECORD), ("chain", CertChain.RECORD))

PACKED_SIZE = 64  # newest distinct (chain, CRL) pairs whose FETCH_RESP the PCS keeps packed
DECODED_SIZE = 8  # newest distinct reply payloads a PcsPool keeps decoded


@functools.lru_cache(maxsize=PACKED_SIZE)
def _fetch_resp(chain: CertChain, crl: Crl) -> bytes:
    """The PCS_FETCH_RESP payload: a function of the two records' values,
    so equal records are sent as the same bytes."""
    return codec.pack(FETCH_RESP, {"chain": chain, "crl": crl})


class PcsServer(wire.FrameServer):
    """Serves one PcsDatabase over TCP. A db_path, when given, becomes the
    database's `path`, so each mutation is saved before it is served; a
    register or revoke whose save fails closes the connection with no reply
    and changes nothing. One FrameServer worker serves each connection; the
    database's own lock serializes mutations. A malformed request gets a
    PCS_ERROR reply and the connection stays open. A FETCH_RESP is packed
    once per distinct chain and CRL among the newest PACKED_SIZE, so a
    revocation or a changed chain packs anew."""

    def __init__(self, db: PcsDatabase, host: str = "127.0.0.1", port: int = 0,
                 db_path=None, now_source=time.time):
        super().__init__(host, port)
        self.db = db
        db.path = db_path
        self.now_source = now_source

    def _handle(self, frame_type: int, payload: bytes) -> tuple[int, bytes]:
        if frame_type not in (wire.PCS_FETCH_REQ, wire.PCS_REGISTER_REQ, wire.PCS_REVOKE_REQ):
            return wire.PCS_ERROR, codec.pack(PCS_ERROR, {"reason": "bad_type"})
        try:
            if frame_type == wire.PCS_FETCH_REQ:
                return wire.PCS_FETCH_RESP, _fetch_resp(
                    *self.db.fetch(codec.unpack(PLATFORM_REQ, payload)["platform_id"]))
            if frame_type == wire.PCS_REGISTER_REQ:
                platform, chain = self.db.register(
                    codec.unpack(REGISTER_REQ, payload)["tcb_level"], now=int(self.now_source()))
                return wire.PCS_REGISTER_RESP, codec.pack(IDENTITY,
                                                          {"platform": platform, "chain": chain})
            crl = self.db.revoke(codec.unpack(PLATFORM_REQ, payload)["platform_id"])
            return wire.PCS_REVOKE_RESP, codec.pack(REVOKE_RESP, {"crl": crl})
        except UnknownPlatformError:
            reason = "unknown_platform"
        except wire.DECODE_ERRORS:
            reason = "bad_request"
        return wire.PCS_ERROR, codec.pack(PCS_ERROR, {"reason": reason})


class PcsClientError(Failure):
    KINDS = {"unknown_platform": EXIT_OTHER, "bad_request": EXIT_OTHER,
             "bad_type": EXIT_OTHER, "bad_response": EXIT_OTHER}


POOL_SIZE = 4  # idle connections a PcsPool keeps; each holds one PCS slot until IDLE_TIMEOUT
# what a reused connection that the PCS has closed raises: EOF, reset, broken pipe
_STALE = (wire.ConnectionClosedError, ConnectionError)


class PcsPool:
    """Every PCS request runs on a PcsPool, which keeps at most POOL_SIZE
    idle connections to the PCS at `addr`. A request takes the newest idle
    connection, or opens a fresh one, and gives it back after a reply that
    decodes, PCS_ERROR included; on any other end it closes it. A request
    on a reused connection that the PCS has closed is sent once more on a
    fresh one. A closed pool keeps no connection, so each request on it
    runs on a fresh connection that closes when the request ends: that is
    a one-shot request, and register and revoke are only ever one-shot, so
    only an idempotent fetch is ever sent twice. `crl` is the key server's
    crl_provider: every call fetches a fresh CRL.

    The pool keeps the decoded value of the newest DECODED_SIZE distinct
    reply payloads, keyed by record kind and exact bytes: a reply equal to
    one already decoded gives the same CertChain and Crl objects, which no
    caller may change. It never answers a fetch: each still goes over the
    wire, so freshness is unchanged. A PCS_ERROR and a reply that does not
    decode are never kept."""

    def __init__(self, addr):
        self.addr = addr
        self._idle: list[socket.socket] = []
        self._lock = threading.Lock()
        self._closed = False
        self._counts = {"connected": 0, "reused": 0, "retried": 0}
        # one memo per pool; the lambda looks codec.unpack up at each call
        self._unpack = functools.lru_cache(maxsize=DECODED_SIZE)(
            lambda reply, payload: codec.unpack(reply, payload))

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

    def _request(self, frame_type: int, request: bytes, reply):
        """The reply to a request of `frame_type`, decoded as kind `reply`;
        PcsClientError with the server's reason for a PCS_ERROR, or with
        "bad_response" for a reply of another type, one that does not decode
        or a PCS_ERROR reason that WIRE.md does not name."""
        with self._lock:  # the newest idle connection: the least likely to have idled out
            conn = self._idle.pop() if self._idle else None
            if conn is not None:
                self._counts["reused"] += 1
        while True:
            reused = conn is not None
            if not reused:
                conn = socket.create_connection(self.addr, timeout=wire.CLIENT_TIMEOUT)
                with self._lock:
                    self._counts["connected"] += 1
            try:
                wire.send_frame(conn, frame_type, request)
                got_type, payload = wire.recv_frame(conn)
                # each reply type is its request type plus one (WIRE.md § Frame types)
                if got_type not in (frame_type + 1, wire.PCS_ERROR):
                    raise PcsClientError("bad_response")
                try:
                    value = (codec.unpack(PCS_ERROR, payload) if got_type == wire.PCS_ERROR
                             else self._unpack(reply, payload))
                except wire.DECODE_ERRORS:
                    raise PcsClientError("bad_response") from None
                break
            except BaseException as exc:
                conn.close()
                if not (reused and isinstance(exc, _STALE)):
                    raise
                conn = None
                with self._lock:
                    self._counts["retried"] += 1
        with self._lock:
            if not self._closed and len(self._idle) < POOL_SIZE:
                self._idle.append(conn)
                conn = None
        if conn is not None:
            conn.close()
        if got_type == wire.PCS_ERROR:
            raise PcsClientError(value["reason"] if value["reason"] in PcsClientError.KINDS
                                 else "bad_response")
        return value


def _one_shot(addr) -> PcsPool:
    """A pool for one request: closed already, so it keeps no connection."""
    pool = PcsPool(addr)
    pool.close()
    return pool


def fetch_platform(addr, platform_id: bytes,
                   pool: PcsPool | None = None) -> tuple[CertChain, Crl]:
    """The platform's chain and current CRL, fetched over `pool` when one
    is given (at the pool's own address: `addr` is then not used), else
    one-shot from the PCS at `addr`."""
    reply = (pool or _one_shot(addr))._request(
        wire.PCS_FETCH_REQ, codec.pack(PLATFORM_REQ, {"platform_id": platform_id}), FETCH_RESP)
    return reply["chain"], reply["crl"]


def register_platform(addr, tcb_level: int) -> tuple[PlatformIdentity, CertChain]:
    identity = _one_shot(addr)._request(
        wire.PCS_REGISTER_REQ, codec.pack(REGISTER_REQ, {"tcb_level": tcb_level}), IDENTITY)
    return identity["platform"], identity["chain"]


def revoke_platform(addr, platform_id: bytes) -> Crl:
    return _one_shot(addr)._request(
        wire.PCS_REVOKE_REQ, codec.pack(PLATFORM_REQ, {"platform_id": platform_id}),
        REVOKE_RESP)["crl"]


def save_identity(path, platform: PlatformIdentity, chain: CertChain) -> None:
    """The identity file that `pcs register --identity-out` writes; it holds
    the platform's attestation private key, so it is owner-only."""
    data = codec.dump(IDENTITY, {"platform": platform, "chain": chain})
    replace_atomically(path, lambda tmp: pathlib.Path(tmp).write_bytes(data))


def load_identity(path) -> tuple[PlatformIdentity, CertChain]:
    with open(path, "rb") as fh:
        identity = codec.load(IDENTITY, fh.read())
    return identity["platform"], identity["chain"]
