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
        assert last["metrics"]["crypto.aead_open.calls"]["value"] > 0, last
