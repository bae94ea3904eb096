"""The benchmark in perfbench/ drives the program through its public names
(`WorkloadSpec(...)`, `KeyVault.add_secret`, `provisioning.vault_save`,
`pcs_service.register_platform`, the CLI servers and more). One short run
of each workload must end in a correct result with no failed operation, so
that a change that breaks one of those names fails here first, traced or
not."""

import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent


def short_run(workload, trace):
    """The result line of a 1-second run of `workload`, traced or not."""
    result = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", workload, "--seed", "1",
         "--seconds", "1", "--trace", trace],
        cwd=ROOT, capture_output=True, text=True, timeout=300,
        env={**os.environ, "PYTHONDONTWRITEBYTECODE": "1"})
    lines = result.stdout.splitlines()
    assert lines, result.stderr
    last = json.loads(lines[-1])
    assert last["correct"] is True and last["failed"] == 0, last
    return last


@pytest.mark.parametrize("workload", ["deploy", "provision", "storage"])
def test_a_short_benchmark_run_is_correct(workload):
    short_run(workload, "0")


@pytest.mark.parametrize("workload", ["deploy", "provision", "storage"])
def test_a_short_traced_benchmark_run_is_correct(workload):
    # drives the tracer's wrappers in the client and both servers, and the
    # servers' span dumps
    last = short_run(workload, "1")
    if workload == "storage":
        metrics = {name: m["value"] for name, m in last["metrics"].items()}
        assert metrics["crypto.aead_open.calls"] > 0, last
        # The counts follow from the workload's shape, so a speed change that
        # drops work fails here. One op is a 1-byte update of a 32 MiB file
        # (8192 blocks under MHT levels of 128, 2 and 1 nodes), a read-only
        # pass, and an 8 MiB sequential file (2048 blocks under 32 bottom
        # nodes and a root) created, written and read back. Seals: the
        # update's flush reseals the block, its 3 MHT ancestors and the
        # header (5); the create seals a header (1); the sequential flush
        # seals 2048 blocks, 32 + 1 MHT nodes and the header (2082).
        assert metrics["crypto.aead_seal.calls"] == 5 + 1 + 2048 + 32 + 1 + 1
        # one header key per open or create (3 handles opened, 1 created)
        # and per header seal in a flush (2)
        assert metrics["crypto.kdf.calls"] == 3 + 1 + 2
        # two flushes per op: the update's 5 seals and the sequential 2082
        assert metrics["pfs.flush.seals_per_call"] == (5 + 2082) / 2
