"""Mock PCS and key server, each in its own process, started through
`enclavesim.cli` by launch.py and stopped with SIGINT.

Both bind port 0; the address is taken from the first line the server
prints. A server that does not stop within STOP_TIMEOUT after SIGINT, or
exits non-zero, fails the run.
"""

from __future__ import annotations

import json
import os
import re
import select
import signal
import subprocess
import sys
import time

from checkout import ROOT

LAUNCHER = os.path.join(os.path.dirname(os.path.abspath(__file__)), "launch.py")
START_TIMEOUT = 30.0
STOP_TIMEOUT = 15.0
# `serve` prints its address just before entering the loop that turns
# SIGINT into a clean stop; a SIGINT inside that gap kills it with a
# traceback, so no server is stopped sooner than this after its first line
MIN_UPTIME = 0.1

_PCS_LINE = re.compile(r"mock PCS serving on (\S+):(\d+) \(root key ([0-9a-f]{64})\)")
_KEYSERVER_LINE = re.compile(r"key server on (\S+):(\d+), pin ([0-9a-f]{64})")


class ServerError(Exception):
    pass


class Server:
    """One `enclavesim ... serve` process; with `traced` its functions are
    wrapped and its spans are written to `spans_path` at exit."""

    def __init__(self, name: str, cli_args: list[str], workdir: str, traced: bool):
        self.name = name
        self.log_path = os.path.join(workdir, f"{name}.log")
        self.spans_path = os.path.join(workdir, f"{name}.spans.json") if traced else None
        command = [sys.executable, "-u", LAUNCHER]
        if traced:
            command += ["--spans", self.spans_path]
        self._log = open(self.log_path, "wb")
        self.proc = subprocess.Popen(command + ["--"] + cli_args, cwd=ROOT,
                                     stdin=subprocess.DEVNULL, stdout=subprocess.PIPE,
                                     stderr=self._log, bufsize=0)
        try:
            self.first_line = self.read_line(START_TIMEOUT)
            self._ready_at = time.monotonic()
        except ServerError:
            self.abandon()
            raise

    def read_line(self, timeout: float) -> str:
        fd = self.proc.stdout.fileno()
        buf = b""
        while not buf.endswith(b"\n"):
            ready, _, _ = select.select([fd], [], [], timeout)
            if not ready:
                raise ServerError(f"{self.name}: no output within {timeout} s")
            chunk = os.read(fd, 1)
            if not chunk:
                raise ServerError(f"{self.name} exited early: {self._log_tail()}")
            buf += chunk
        return buf.decode("utf-8").rstrip("\n")

    def trace_on(self) -> None:
        self.proc.send_signal(signal.SIGUSR1)
        line = self.read_line(START_TIMEOUT)
        if line != "trace on":
            raise ServerError(f"{self.name}: unexpected output {line!r}")

    def stop(self) -> None:
        try:
            if self.proc.poll() is None:
                wait = getattr(self, "_ready_at", 0.0) + MIN_UPTIME - time.monotonic()
                if wait > 0:
                    time.sleep(wait)
                self.proc.send_signal(signal.SIGINT)
            try:
                code = self.proc.wait(timeout=STOP_TIMEOUT)
            except subprocess.TimeoutExpired:
                self.proc.kill()
                self.proc.wait()
                raise ServerError(f"{self.name} still alive {STOP_TIMEOUT} s after SIGINT")
        finally:
            self.proc.stdout.close()
            self._log.close()
        if code != 0:
            raise ServerError(f"{self.name} exited with {code}: {self._log_tail()}")

    def abandon(self) -> None:
        """Stop a server that already failed the run; a second failure
        while stopping it is not reported over the first."""
        try:
            self.stop()
        except ServerError:
            pass

    def spans(self) -> dict:
        with open(self.spans_path, encoding="utf-8") as fh:
            return json.load(fh)

    def _log_tail(self) -> str:
        with open(self.log_path, "rb") as fh:
            return fh.read()[-2000:].decode("utf-8", "replace")


def _match(server: Server, pattern: re.Pattern):
    m = pattern.fullmatch(server.first_line)
    if m is None:
        raise ServerError(f"{server.name}: unexpected first line {server.first_line!r}")
    return (m.group(1), int(m.group(2))), bytes.fromhex(m.group(3))


def start_pcs(workdir: str, traced: bool):
    """-> (server, address, root public key)"""
    server = Server("pcs", ["pcs", "serve", "--db", os.path.join(workdir, "pcs.json"),
                            "--listen", "127.0.0.1:0"], workdir, traced)
    try:
        addr, root = _match(server, _PCS_LINE)
    except ServerError:
        server.abandon()
        raise
    return server, addr, root


def start_keyserver(workdir: str, traced: bool, pcs_addr, root_key: bytes,
                    vault_path: str, passphrase: str, audit_path: str):
    """-> (server, address, pinned public key). The key server fetches the
    CRL from the PCS on every handshake and every request."""
    server = Server("keyserver", [
        "keyserver", "serve", "--vault", vault_path, "--passphrase", passphrase,
        "--listen", "127.0.0.1:0", "--pcs", f"{pcs_addr[0]}:{pcs_addr[1]}",
        "--root-hex", root_key.hex(), "--min-svn", "1", "--min-tcb", "1",
        "--audit", audit_path], workdir, traced)
    try:
        addr, pin = _match(server, _KEYSERVER_LINE)
    except ServerError:
        server.abandon()
        raise
    return server, addr, pin
