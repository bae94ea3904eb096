import errno
import socket
import struct
import threading
import time

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from enclavesim import wire

from foreign_json import FOREIGN_ENCODINGS

TEXT = '{"name":"pfs-master","note":"é"}'


def test_read_json_decodes_utf8():
    assert wire.read_json(TEXT.encode("utf-8")) == {"name": "pfs-master", "note": "é"}


@pytest.mark.parametrize("data", [TEXT.encode(codec) for codec in FOREIGN_ENCODINGS.values()]
                         + [b'"\xed\xa0\x80"', b"", b'[{"a":1,"a":1}]'],
                         ids=list(FOREIGN_ENCODINGS) + ["lone-surrogate", "empty", "repeated-key"])
def test_read_json_rejects_all_but_utf8_json(data):
    with pytest.raises(ValueError):
        wire.read_json(data)


def _frame(frame_type: int, payload: bytes) -> bytes:
    return struct.pack(">IB", 1 + len(payload), frame_type) + payload


# whole frames, then any tail: a bad length, a cut-off frame or nothing
FRAMES = st.lists(st.tuples(st.integers(0, 0xff), st.binary(max_size=16)), max_size=3)
TAIL = st.binary(max_size=24) | st.integers(0, 0xffffffff).map(lambda n: struct.pack(">I", n))


@settings(max_examples=200, deadline=None)
@given(frames=FRAMES, tail=TAIL)
def test_recv_frame_raises_only_wire_error(frames, tail):
    stream = b"".join(_frame(*f) for f in frames) + tail
    got = []
    writer, reader = socket.socketpair()
    with writer, reader:
        writer.sendall(stream)
        writer.shutdown(socket.SHUT_WR)
        with pytest.raises(wire.WireError):
            while True:
                got.append(wire.recv_frame(reader))
    assert got[:len(frames)] == frames
    assert stream.startswith(b"".join(_frame(*f) for f in got))


class LingeringServer(wire.FrameServer):
    """Closes each connection at its first frame; the connection's thread
    then lingers after it has released its slot."""

    def _handle(self, frame_type, payload):
        return None

    def _serve(self, conn):
        super()._serve(conn)
        time.sleep(0.2)


def test_stop_joins_the_threads_of_connections_that_have_ended():
    with LingeringServer("127.0.0.1", 0).start() as server:
        with socket.create_connection(server.address) as client:
            wire.send_frame(client, wire.PCS_FETCH_REQ, b"")
            assert client.recv(1) == b""
        deadline = time.monotonic() + 5
        while server._open and time.monotonic() < deadline:  # the thread released its slot
            time.sleep(0.01)
        assert not server._open
    assert not [t.name for t in threading.enumerate() if t.name.startswith(wire.THREAD_PREFIX)]


def test_a_server_left_unstarted_closes_its_listener():
    with LingeringServer("127.0.0.1", 0) as server:
        pass
    assert server._listener.fileno() == -1


class EchoServer(wire.FrameServer):
    def _handle(self, frame_type, payload):
        return frame_type, payload


def test_a_worker_whose_accept_fails_accepts_again(monkeypatch):
    server = EchoServer("127.0.0.1", 0)
    failures, accept = [], socket.socket.accept

    def accept_failing_once(sock):
        if sock is server._listener and not failures:
            failures.append(threading.current_thread().name)
            raise OSError(errno.EMFILE, "Too many open files")
        return accept(sock)

    monkeypatch.setattr(socket.socket, "accept", accept_failing_once)

    def connect():
        client = socket.create_connection(server.address, timeout=5)
        client.settimeout(5)
        return client

    def echoed(client, payload):
        wire.send_frame(client, wire.PCS_FETCH_REQ, payload)
        return wire.recv_frame(client) == (wire.PCS_FETCH_REQ, payload)

    with server.start():
        with connect() as client:
            assert echoed(client, b"one")
        with connect() as first, connect() as second:  # both open at once
            assert echoed(first, b"first") and echoed(second, b"second")
            assert echoed(first, b"again")
        workers = list(server._workers)
    assert failures and failures[0].startswith(wire.THREAD_PREFIX)
    assert len(workers) >= 2 and not [w for w in workers if w.is_alive()]
