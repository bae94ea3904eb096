"""Length-prefixed wire framing shared by every network party.

Frame layout (see WIRE.md): u32 big-endian length, then one type byte,
then the payload; the length covers the type byte and payload. Payloads
are capped at 1 MiB. The PCS service speaks plaintext frames (its data
is public); the attested channel seals payloads per record.
"""

from __future__ import annotations

import json
import socket
import struct
import threading
import time
from contextlib import suppress

MAX_PAYLOAD = 1 << 20
MAX_CONNECTIONS = 64  # workers per FrameServer, so open connections; more wait in the backlog
STOP_TIMEOUT = 5.0  # FrameServer.stop() joins every worker within this
ACCEPT_RETRY_PAUSE = 0.05  # a FrameServer worker whose accept() failed waits this, then retries
IDLE_TIMEOUT = 60.0  # per frame on every accepted connection (WIRE.md § Server connections)
CLIENT_TIMEOUT = 10.0  # connect, then per frame, on every client socket
THREAD_PREFIX = "FrameServer"  # starts the name of every FrameServer thread

# handshake
HS_A1 = 0x01
HS_V1 = 0x02
HS_ERROR = 0x03
# record layer
REC_FINISHED = 0x10
REC_PROVISION_REQ = 0x20
REC_PROVISION_RESP = 0x21
# mock PCS (plaintext)
PCS_FETCH_REQ = 0x30
PCS_FETCH_RESP = 0x31
PCS_REGISTER_REQ = 0x32
PCS_REGISTER_RESP = 0x33
PCS_REVOKE_REQ = 0x34
PCS_REVOKE_RESP = 0x35
PCS_ERROR = 0x3f


# what read_json and the record codec (codec.py) raise on malformed input:
# JSON nested too deeply to parse is a RecursionError, anything else a
# ValueError; each reader maps these to its documented "malformed" outcome
DECODE_ERRORS = (ValueError, RecursionError)


def _one_value_per_key(pairs: list) -> dict:
    obj = {}
    for key, value in pairs:
        if key in obj:
            raise ValueError(f"repeated key {key!r:.40}")
        obj[key] = value
    return obj


def read_json(data: bytes):
    """The one JSON reader, of payloads and files alike: the JSON value in
    `data`, which must be strict UTF-8 (RFC 8259 8.1), so UTF-16, UTF-32,
    a BOM or a lone surrogate raise ValueError, as does an object that
    repeats a key."""
    return json.loads(data.decode("utf-8"), object_pairs_hook=_one_value_per_key)


class WireError(Exception):
    pass


class ConnectionClosedError(WireError):
    pass


def send_frame(sock: socket.socket, frame_type: int, payload: bytes) -> None:
    if not 0 <= frame_type <= 0xff:
        raise ValueError("frame type must fit one byte")
    if len(payload) > MAX_PAYLOAD:
        raise WireError(f"payload of {len(payload)} bytes exceeds the 1 MiB cap")
    sock.sendall(struct.pack(">IB", 1 + len(payload), frame_type) + payload)


def recv_exact(sock: socket.socket, n: int, deadline: float | None = None) -> bytes:
    """`n` bytes from `sock`; each recv waits at most until the monotonic
    `deadline`, when one is given."""
    buf = bytearray()
    while len(buf) < n:
        if deadline is not None:
            left = deadline - time.monotonic()
            if left <= 0:
                raise TimeoutError("frame not received within the socket timeout")
            sock.settimeout(left)
        chunk = sock.recv(n - len(buf))
        if not chunk:
            raise ConnectionClosedError("peer closed the connection")
        buf.extend(chunk)
    return bytes(buf)


def recv_frame(sock: socket.socket) -> tuple[int, bytes]:
    """One frame. The socket's timeout, when it has one, bounds the whole
    frame rather than each recv, so a peer that drips bytes cannot hold
    the connection past it; the timeout is restored afterwards."""
    budget = sock.gettimeout()
    deadline = time.monotonic() + budget if budget else None
    try:
        (length,) = struct.unpack(">I", recv_exact(sock, 4, deadline))
        if length < 1 or length > 1 + MAX_PAYLOAD:
            raise WireError(f"bad frame length {length}")
        body = recv_exact(sock, length, deadline)
    finally:
        if deadline is not None:
            sock.settimeout(budget)
    return body[0], body[1:]


class FrameServer:
    """A TCP listener served by long-lived worker threads. Each worker
    loops: accept a connection, own it to close (IDLE_TIMEOUT per frame,
    session, then receive, answer and send until the answer is None or a
    receive fails), accept again; a failed accept is retried after
    ACCEPT_RETRY_PAUSE. `start()` starts one worker; a worker that accepts
    while no other waits to accept starts one more, up to MAX_CONNECTIONS,
    so at most that many connections are open at once and further clients
    wait in the listen backlog. Idle workers stay until `stop()`, which
    also shuts down open connections and joins every worker; leaving a
    `with` block stops the server, whether or not it was started.
    Subclasses implement `_handle(frame_type, payload)` or override
    `_open_session`."""

    def __init__(self, host: str, port: int):
        self._listener = socket.create_server((host, port))
        self._idle_name = f"{THREAD_PREFIX}-accept-{self.address[1]}"
        self._lock = threading.Lock()  # guards the four fields below
        self._workers: list[threading.Thread] = []
        self._open: set[socket.socket] = set()
        self._accepted = 0
        self._stopped = False

    @property
    def address(self) -> tuple[str, int]:
        return self._listener.getsockname()[:2]

    def start(self):
        with self._lock:
            self._add_worker()
        return self

    def stats(self) -> dict[str, int]:
        """Connections accepted so far, worker threads started and
        connections open now."""
        with self._lock:
            return {"connections": self._accepted, "workers": len(self._workers),
                    "open": len(self._open)}

    def __enter__(self):
        return self

    def __exit__(self, *exc):
        self.stop()

    def stop(self) -> None:
        with self._lock:
            self._stopped = True  # no worker starts, and no connection is served, after this
            for conn in self._open:  # a blocked receive sees EOF
                with suppress(OSError):
                    conn.shutdown(socket.SHUT_RDWR)
            workers = list(self._workers)
        with suppress(OSError):
            self._listener.shutdown(socket.SHUT_RDWR)  # wake every blocked accept()
        with suppress(OSError):
            self._listener.close()
        deadline = time.monotonic() + STOP_TIMEOUT
        for worker in workers:
            worker.join(timeout=max(0.0, deadline - time.monotonic()))

    def _add_worker(self) -> None:
        """Start one more worker; the caller holds the lock."""
        worker = threading.Thread(target=self._work, daemon=True, name=self._idle_name)
        worker.start()
        self._workers.append(worker)

    def _work(self) -> None:
        worker = threading.current_thread()
        while True:
            try:
                conn, peer = self._listener.accept()
            except OSError:  # e.g. EMFILE: the worker lives on, unless stop() caused it
                with self._lock:
                    if self._stopped:
                        return
                time.sleep(ACCEPT_RETRY_PAUSE)
                continue
            with self._lock:
                self._accepted += 1
                if self._stopped:
                    conn.close()
                    return
                self._open.add(conn)
                # a worker that is not serving waits to accept; if none does, add one
                if len(self._open) == len(self._workers) < MAX_CONNECTIONS:
                    self._add_worker()
            worker.name = f"{THREAD_PREFIX}-conn-{peer[1]}"
            self._serve(conn)
            worker.name = self._idle_name

    def _serve(self, conn: socket.socket) -> None:
        try:
            conn.settimeout(IDLE_TIMEOUT)
            recv, send, answer = self._open_session(conn)
            while (reply := answer(*recv())) is not None:
                send(*reply)
        except Exception:  # a bad client must never stop the server
            pass
        finally:
            with self._lock:
                self._open.remove(conn)
            conn.close()

    def _open_session(self, conn: socket.socket):
        """(recv, send, answer) for one connection; here plaintext frames."""
        return (lambda: recv_frame(conn)), (lambda *frame: send_frame(conn, *frame)), self._handle

    def _handle(self, frame_type: int, payload: bytes) -> tuple[int, bytes] | None:
        raise NotImplementedError
