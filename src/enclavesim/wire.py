"""Length-prefixed wire framing shared by every network party.

Frame layout (see WIRE.md): u32 big-endian length, then one type byte,
then the payload; the length covers the type byte and payload. Payloads
are capped at 1 MiB. The PCS service speaks plaintext frames (its data
is public); the attested channel seals payloads per record.
"""

from __future__ import annotations

import socket
import struct
import threading

MAX_PAYLOAD = 1 << 20

# handshake
HS_A1 = 0x01
HS_V1 = 0x02
HS_ERROR = 0x03
# record layer
REC_FINISHED = 0x10
REC_PROVISION_REQ = 0x20
REC_PROVISION_RESP = 0x21
REC_PING = 0x2e
REC_APP = 0x2f
# mock PCS (plaintext)
PCS_FETCH_REQ = 0x30
PCS_FETCH_RESP = 0x31
PCS_REGISTER_REQ = 0x32
PCS_REGISTER_RESP = 0x33
PCS_REVOKE_REQ = 0x34
PCS_REVOKE_RESP = 0x35
PCS_ERROR = 0x3f


# what decoding a peer's JSON payload and reading its fields raises on
# malformed input; a server maps these to an error reply
DECODE_ERRORS = (ValueError, KeyError, TypeError, AttributeError, OverflowError,
                 RecursionError)


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


def recv_exact(sock: socket.socket, n: int) -> bytes:
    buf = bytearray()
    while len(buf) < n:
        chunk = sock.recv(n - len(buf))
        if not chunk:
            raise ConnectionClosedError("peer closed the connection")
        buf.extend(chunk)
    return bytes(buf)


def recv_frame(sock: socket.socket) -> tuple[int, bytes]:
    (length,) = struct.unpack(">I", recv_exact(sock, 4))
    if length < 1 or length > 1 + MAX_PAYLOAD:
        raise WireError(f"bad frame length {length}")
    body = recv_exact(sock, length)
    return body[0], body[1:]


class FrameServer:
    """A loopback TCP listener that serves each accepted connection on its
    own daemon thread. Subclasses implement `_serve_connection(conn)`."""

    def __init__(self, host: str, port: int):
        self._listener = socket.create_server((host, port))
        self._stop = threading.Event()
        self._thread: threading.Thread | None = None

    @property
    def address(self) -> tuple[str, int]:
        return self._listener.getsockname()[:2]

    def start(self):
        self._thread = threading.Thread(target=self._accept_loop, daemon=True)
        self._thread.start()
        return self

    def stop(self) -> None:
        self._stop.set()
        try:
            self._listener.shutdown(socket.SHUT_RDWR)  # wake a blocked accept()
        except OSError:
            pass
        try:
            self._listener.close()
        except OSError:
            pass
        if self._thread:
            self._thread.join(timeout=5)

    def _accept_loop(self) -> None:
        while not self._stop.is_set():
            try:
                conn, _ = self._listener.accept()
            except OSError:
                break
            threading.Thread(target=self._serve_connection, args=(conn,),
                             daemon=True).start()

    def _serve_connection(self, conn: socket.socket) -> None:
        raise NotImplementedError
