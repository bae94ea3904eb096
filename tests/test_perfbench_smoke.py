"""The benchmark in perfbench/ drives the program through its public names
(`WorkloadSpec(...)`, `KeyVault.add_secret`, `provisioning.vault_save`,
`pcs_service.register_platform`, the CLI servers and more). One short run
of each workload must end in a correct result with no failed operation, so
that a change that breaks one of those names fails here first."""

import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent


@pytest.mark.parametrize("workload", ["deploy", "provision", "storage"])
def test_a_short_benchmark_run_is_correct(workload):
    result = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", workload, "--seed", "1",
         "--seconds", "1"],
        cwd=ROOT, capture_output=True, text=True, timeout=300,
        env={**os.environ, "PYTHONDONTWRITEBYTECODE": "1"})
    lines = result.stdout.splitlines()
    assert lines, result.stderr
    last = json.loads(lines[-1])
    assert last["correct"] is True and last["failed"] == 0, last
