import sys
import threading
import time
from pathlib import Path

import pytest

from enclavesim import crypto, wire
from enclavesim.attestation import PcsDatabase
from enclavesim.pcs_service import PcsServer

# make the independent reference oracle importable from any test
sys.path.insert(0, str(Path(__file__).parent))

# how long a connection thread may take to see its client's close
LEAK_GRACE_S = 2.0
# the pcs_server fixture's clock
PCS_NOW = 1_700_000_000


def _frame_server_threads() -> set[threading.Thread]:
    return {t for t in threading.enumerate()
            if t.name.startswith(wire.THREAD_PREFIX) and t.is_alive()}


@pytest.fixture(autouse=True)
def no_leaked_server_threads():
    """Fail a test that leaves a FrameServer accept or connection thread
    running: every server it starts must be stopped, and stop() must end
    the connections it still had open."""
    before = _frame_server_threads()
    yield
    deadline = time.monotonic() + LEAK_GRACE_S
    while (leaked := _frame_server_threads() - before) and time.monotonic() < deadline:
        time.sleep(0.01)
    assert not leaked, f"FrameServer threads left running: {sorted(t.name for t in leaked)}"


@pytest.fixture()
def pcs_server(tmp_path):
    """A started PcsServer on tmp_path/pcs.json, saved before the first
    request as `pcs serve` saves a new registry; its clock reads PCS_NOW.
    Stopped at teardown."""
    db_path = tmp_path / "pcs.json"
    db = PcsDatabase.create(now=PCS_NOW)
    db.save(db_path)
    srv = PcsServer(db, db_path=db_path, now_source=lambda: PCS_NOW).start()
    yield srv
    srv.stop()


@pytest.fixture()
def verify_calls(monkeypatch):
    """A list that gains one entry per Ed25519 check crypto.verify makes."""
    calls, verify = [], crypto.verify

    def counted(*args):
        calls.append(args)
        return verify(*args)

    monkeypatch.setattr(crypto, "verify", counted)
    return calls
