"""Self-test of the benchmark itself.

    python3 perfbench/selftest.py

For each workload, two traced runs with the same seed and a fixed number
of operations must give identical per-operation counts, and the counts
that the program's structure fixes must come out exactly:

- a 1-byte update of the 32 MiB container: 133 aead_seal, 133 aead_open
  and 266 kdf calls;
- one provision: 2 quote_verify, 2 fetch_platform (the key server asks
  the PCS for the CRL at the handshake and at the request), 11 Ed25519
  verify and 2 sign calls, client and servers together.

It also checks that BENCHMARK.json declares exactly the metrics run.py
prints. Exits 0 when every check passes.
"""

from __future__ import annotations

import json
import os
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
sys.path.insert(0, HERE)

import checkout  # noqa: E402
import run  # noqa: E402

OPS = {"deploy": 3, "provision": 2, "storage": 2}
SEED = 20200909
COUNT_UNITS = {"calls/op", "calls/flush", "frames/op", "B/op"}
PINNED_PER_PROVISION = {"attestation.quote_verify.calls": 2,
                        "pcs_service.fetch_platform.calls": 2,
                        "crypto.verify.calls": 11,
                        "crypto.sign.calls": 2}
PINNED_PER_UPDATE = {"crypto.aead_seal": 133, "crypto.aead_open": 133,
                     "crypto.kdf": 266}


def counts(result: dict) -> dict:
    return {name: m["value"] for name, m in result["metrics"].items()
            if m["unit"] in COUNT_UNITS or name == "pfs.cache.hit_ratio"}


def main() -> int:
    checkout.use_source()
    import workloads

    problems = []

    with open(os.path.join(checkout.ROOT, "BENCHMARK.json"), encoding="utf-8") as fh:
        declared = json.load(fh)
    for key, emitted in (("end_to_end", run.END_TO_END), ("per_layer", run.PER_LAYER)):
        listed = [(m["name"], m["unit"]) for m in declared[key]]
        if listed != list(emitted):
            problems.append(f"BENCHMARK.json {key} differs from run.py")

    for name, ops in OPS.items():
        first, report = run.execute(name, SEED, trace=True, ops=ops)
        second, _ = run.execute(name, SEED, trace=True, ops=ops)
        for result in (first, second):
            if not result["correct"]:
                problems.append(f"{name}: outputs not correct")
        a, b = counts(first), counts(second)
        differing = sorted(k for k in a if a[k] != b[k])
        if differing:
            problems.append(f"{name}: counts differ between runs: "
                            + ", ".join(f"{k} {a[k]} vs {b[k]}" for k in differing))
        if name == "provision":
            for metric, want in PINNED_PER_PROVISION.items():
                got = a[metric] / workloads.Provision.BATCH
                if got != want:
                    problems.append(f"provision: {metric} = {got} per provision, "
                                    f"expected {want}")
        if name == "storage":
            got = report["calls_per_update"]
            for call, want in PINNED_PER_UPDATE.items():
                if got[call] != want:
                    problems.append(f"storage: {call} per update = {got[call]}, "
                                    f"expected {want}")
        print(f"{name}: {len(a)} counts compared over {ops} operations")

    for p in problems:
        print(f"FAIL {p}")
    print("selftest:", "FAIL" if problems else "ok")
    return 1 if problems else 0


if __name__ == "__main__":
    sys.exit(main())
