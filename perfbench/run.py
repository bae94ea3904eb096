"""enclavesim benchmark: one command, three workloads, checked outputs.

    python3 perfbench/run.py --workload deploy|provision|storage \\
        --seed N --seconds S --trace 0|1

Run from anywhere inside a checkout; the program is imported from the
checkout's src/. Scratch files go to .perfbench_work/ in the checkout and
are removed before exit. workloads.INFO says what one operation of each
workload is and why the workload exists.

--trace 0 measures the end-to-end metrics (END_TO_END), the same four on
every workload, with no tracing anywhere:

    setup_s    median of SETUP_REPEATS set-ups (inputs, servers, containers)
    ops_per_s  closed-loop throughput of the one client: 1 / mean latency
    p50_ms     median operation latency
    p90_ms     90th percentile operation latency

--trace 1 measures half the time untraced and half traced, and prints the
per-layer metrics (PER_LAYER) normalised per traced operation, with the
tracing overhead as the traced median latency over the untraced one.
Either way the second-to-last stdout line is a report with the
environment, the sample counts, the raw (unnormalised) figures and the
workload's own named figures (deploy_p50_ms, seq_write_MBps, ...,
failed_ratio), and the last line is the result:
{"correct", "attempted", "failed", "metrics"}.

The benchmark, and the servers it starts, run on one CPU, and every
latency, set-up time and throughput is divided by that CPU's momentary
slowdown (see `host_slowdown`), so the figures read as this host would
give them at a fixed nominal speed.
"""

from __future__ import annotations

import argparse
import json
import os
import statistics
import sys
from collections import defaultdict
from time import perf_counter, sleep

HERE = os.path.dirname(os.path.abspath(__file__))
sys.path.insert(0, HERE)

import checkout  # noqa: E402

SETUP_REPEATS = 3
WARMUP_OPS = 2  # before any timed phase
MIN_OPS = 2  # timed operations needed for any percentile
SETTLE_S = 0.5
REF_LOOPS = 10_000
REF_NOMINAL_S = 0.0005

END_TO_END = [
    ("setup_s", "s"),
    ("ops_per_s", "1/s"),
    ("p50_ms", "ms"),
    ("p90_ms", "ms"),
]

_CALLS = ["crypto.aead_seal", "crypto.aead_open", "crypto.kdf", "crypto.sign",
          "crypto.verify", "attestation.quote_verify", "pcs_service.fetch_platform",
          "channel.send", "channel.recv"]
_SELF_MS = ["crypto.aead_seal", "crypto.aead_open", "crypto.kdf", "crypto.hash_data",
            "crypto.verify", "crypto.dh", "pfs.open", "pfs.read", "pfs.write",
            "pfs.flush", "enclave.workload_compute", "enclave.parse_rows",
            "enclave.format_rows", "enclave.enclave_start",
            "manifest.compute_measurement", "attestation.quote_verify",
            "attestation.quote_generate", "channel.verifier_handshake"]
_TOTAL_MS = ["pcs_service.fetch_platform", "channel.attester_handshake",
             "provisioning.request"]
_STEPS = ["step1", "step2", "step3_4", "step5", "step6", "step7", "step8",
          "user_decrypt"]
_STORAGE = [("pfs.seq_write_MBps", "MB/s", "seq_write_MBps"),
            ("pfs.seq_read_MBps", "MB/s", "seq_read_MBps"),
            ("pfs.read4k_p50_us", "us", "read4k_p50_us"),
            ("pfs.read4k_p90_us", "us", "read4k_p90_us"),
            ("pfs.update_p50_ms", "ms", "update_p50_ms")]

PER_LAYER = (
    [(f"{n}.calls", "calls/op") for n in _CALLS]
    + [(f"{n}.self_ms", "ms/op") for n in _SELF_MS]
    + [(f"{n}.ms", "ms/op") for n in _TOTAL_MS]
    + [(f"workflow.{s}_ms", "ms/op") for s in _STEPS]
    + [("pfs.flush.seals_per_call", "calls/flush"),
       ("pfs.flush.opens_per_call", "calls/flush"),
       ("pfs.cache.hit_ratio", "ratio"),
       ("wire.frames", "frames/op"),
       ("wire.bytes", "B/op")]
    + [(name, unit) for name, unit, _ in _STORAGE]
    + [("trace.coverage", "ratio"),
       ("trace.overhead_pct", "%"),
       ("trace.ops", "count")]
)


class RunFailed(Exception):
    """Too few operations succeeded to compute any metric."""


class Phase:
    """Outcome of running the workload's operation in a closed loop.

    `latencies` are host-normalised (see `host_slowdown`); `raw` holds the
    same latencies as measured, `slowdowns` the factor applied to each.
    `samples` gathers, normalised the same way, the timings of the parts of
    an operation that `Workload.op` returns by kind."""

    def __init__(self):
        self.latencies: list[float] = []
        self.raw: list[float] = []
        self.slowdowns: list[float] = []
        self.failures: list[str] = []
        self.samples: dict[str, list[float]] = defaultdict(list)
        self.attempted = 0
        self.wall = 0.0

    @property
    def ops_per_s(self) -> float:
        """Closed-loop throughput of the one client at nominal host speed."""
        return len(self.latencies) / sum(self.latencies)

    @property
    def raw_ops_per_s(self) -> float:
        return len(self.raw) / self.wall


def host_slowdown() -> float:
    """How much slower than nominal this host runs right now: the time of
    a fixed pure-Python loop over REF_NOMINAL_S.

    Other tenants of the machine change its speed by tens of percent for
    seconds to minutes at a time. Timing this loop right before and after
    each operation and dividing the operation's latency by the mean factor
    cancels most of that drift."""
    t0 = perf_counter()
    acc = 0
    for i in range(REF_LOOPS):
        acc += i * i
    return (perf_counter() - t0) / REF_NOMINAL_S


def drive(workload, tracer, seconds: float | None = None,
          ops: int | None = None) -> Phase:
    """Run operations back to back until `seconds` pass or `ops` of them
    are done; only successful operations give a latency."""
    phase = Phase()
    start = perf_counter()
    deadline = start + seconds if seconds is not None else None
    before = host_slowdown()
    while (perf_counter() < deadline) if ops is None else (phase.attempted < ops):
        t0 = perf_counter()
        failure = None
        try:
            with tracer.span("op", op=phase.attempted):
                parts = workload.op(tracer) or {}
        except Exception as exc:  # any failure is counted, not fatal
            failure = f"{type(exc).__name__}: {exc}"
        elapsed = perf_counter() - t0
        after = host_slowdown()
        slowdown = (before + after) / 2
        before = after
        phase.attempted += 1
        if failure is not None:
            phase.failures.append(failure)
            continue
        phase.latencies.append(elapsed / slowdown)
        phase.raw.append(elapsed)
        phase.slowdowns.append(slowdown)
        for kind, timings in parts.items():
            phase.samples[kind] += [t / slowdown for t in timings]
    phase.wall = perf_counter() - start
    return phase


def prepare(cls, seed: int, traced: bool):
    """Set up SETUP_REPEATS times, keep the last; -> (workload, set-up
    times normalised like operation latencies)."""
    times = []
    for i in range(SETUP_REPEATS):
        workload = cls(os.path.join(checkout.WORK, f"run-{os.getpid()}-{i}"),
                       seed, traced)
        try:
            before = host_slowdown()
            t0 = perf_counter()
            workload.setup()
            elapsed = perf_counter() - t0
            times.append(elapsed / ((before + host_slowdown()) / 2))
            if i + 1 < SETUP_REPEATS:
                workload.stop_servers()
        except BaseException:
            workload.close()
            raise
        if i + 1 < SETUP_REPEATS:
            workload.close()
    return workload, times


def end_to_end(phase: Phase, setup_times: list[float]) -> dict:
    from workloads import percentile

    return {
        "setup_s": statistics.median(setup_times),
        "ops_per_s": phase.ops_per_s,
        "p50_ms": percentile(phase.latencies, 50) * 1e3,
        "p90_ms": percentile(phase.latencies, 90) * 1e3,
    }


def per_layer(workload, tracer, server_dumps: list[dict],
              base: Phase, traced: Phase, named: dict) -> tuple[dict, dict]:
    """Per-layer metrics from the traced phase, every span and counter of
    the client and of both servers divided by the traced operations."""
    import tracing

    client = tracer.finished()
    sets = [client] + [tracing.load(d["spans"]) for d in server_dumps]
    counters = defaultdict(int, tracer.counters)
    for dump in server_dumps:
        for key, n in dump["counters"].items():
            counters[key] += n
    totals = tracing.layer_totals(sets)
    n_ops = len(traced.latencies)

    def per_op(x):
        return x / n_ops if n_ops else 0.0

    def ratio(a, b):
        return a / b if b else 0.0

    values = {}  # totals gives zeros for names never traced
    for n in _CALLS:
        values[f"{n}.calls"] = per_op(totals[n]["calls"])
    for n in _SELF_MS:
        values[f"{n}.self_ms"] = per_op(totals[n]["self_ms"])
    for n in _TOTAL_MS:
        values[f"{n}.ms"] = per_op(totals[n]["ms"])
    for s in _STEPS:
        values[f"workflow.{s}_ms"] = per_op(totals[f"workflow.{s}"]["ms"])
    flushes = totals["pfs.flush"]["calls"]
    values["pfs.flush.seals_per_call"] = ratio(
        tracing.calls_under(sets, "crypto.aead_seal", "pfs.flush"), flushes)
    values["pfs.flush.opens_per_call"] = ratio(
        tracing.calls_under(sets, "crypto.aead_open", "pfs.flush"), flushes)
    values["pfs.cache.hit_ratio"] = ratio(counters["pfs.cache.hits"],
                                          counters["pfs.cache.lookups"])
    values["wire.frames"] = per_op(counters["wire.frames"])
    values["wire.bytes"] = per_op(counters["wire.bytes"])
    for name, _, figure in _STORAGE:
        values[name] = named[figure]["value"] if figure in named else 0.0
    values["trace.coverage"] = tracing.coverage(client, "op")
    values["trace.overhead_pct"] = (
        (statistics.median(traced.latencies) / statistics.median(base.latencies) - 1)
        * 100 if traced.latencies and base.latencies else 0.0)
    values["trace.ops"] = n_ops

    detail = {}
    if workload.name == "storage":
        detail["calls_per_update"] = tracing.per_kind_calls(
            client, "storage.update",
            ["crypto.aead_seal", "crypto.aead_open", "crypto.kdf"])
    return values, detail


def execute(name: str, seed: int, trace: bool, seconds: float | None = None,
            ops: int | None = None) -> tuple[dict, dict]:
    """Run one workload; -> (result, report). Timed phases last `seconds`
    in all, or run `ops` operations each."""
    import tracing
    from workloads import INFO, WORKLOADS

    tracer = tracing.Tracer()
    workload = None
    phases: list[Phase] = []
    try:
        if trace:
            tracer.install()
        os.makedirs(checkout.WORK, exist_ok=True)
        workload, setup_times = prepare(WORKLOADS[name], seed, trace)
        phases.append(drive(workload, tracer, ops=WARMUP_OPS))
        if not trace:
            phases.append(drive(workload, tracer, seconds=seconds, ops=ops))
        else:
            half = seconds / 2 if seconds is not None else None
            phases.append(drive(workload, tracer, seconds=half, ops=ops))
            for server in workload.servers:
                server.trace_on()
            tracer.enabled = True
            phases.append(drive(workload, tracer, seconds=half, ops=ops))
            tracer.enabled = False
            # a server sends its last reply before it closes that span; let
            # every such tail finish before SIGINT ends the process
            sleep(SETTLE_S)
        started = list(workload.servers)
        workload.stop_servers()
        server_dumps = [s.spans() for s in started] if trace else []
        failures = workload.end_checks()
    finally:
        tracer.uninstall()
        if workload is not None:
            workload.close()
        try:
            os.rmdir(checkout.WORK)
        except OSError:
            pass

    measured = phases[1]
    all_failures = [f for p in phases for f in p.failures] + failures
    if len(measured.latencies) < MIN_OPS:
        raise RunFailed(f"{len(measured.latencies)} of {measured.attempted} timed "
                        f"operations succeeded, fewer than {MIN_OPS}; "
                        f"first failures: {all_failures[:3]}")
    named = workload.named_metrics(measured)
    attempted = sum(p.attempted for p in phases) + 1
    failed = sum(len(p.failures) for p in phases) + (1 if failures else 0)
    named["setup_s"] = {"value": statistics.median(setup_times), "unit": "s",
                        "samples": len(setup_times)}
    named["failed_ratio"] = {"value": failed / attempted, "unit": "ratio",
                             "samples": attempted}
    report = {
        "workload": name, "seed": seed, "trace": int(trace),
        "seconds": seconds, "ops": ops,
        "environment": checkout.environment(),
        "info": INFO[name],
        "setup_s_samples": setup_times,
        "measured_ops": len(measured.latencies),
        "measured_wall_s": measured.wall,
        "raw": {"ops_per_s": measured.raw_ops_per_s,
                "p50_ms": statistics.median(measured.raw) * 1e3,
                "host_slowdown_p50": statistics.median(measured.slowdowns)},
        "named": named,
        "failures": all_failures[:10],
    }
    if trace:
        values, detail = per_layer(workload, tracer, server_dumps,
                                   phases[1], phases[2], named)
        report.update(detail)
        report["untraced_ops"] = len(phases[1].latencies)
        metrics = {n: {"value": values[n], "unit": u} for n, u in PER_LAYER}
    else:
        values = end_to_end(measured, setup_times)
        metrics = {n: {"value": values[n], "unit": u} for n, u in END_TO_END}
    result = {"correct": failed == 0, "attempted": attempted, "failed": failed,
              "metrics": metrics}
    return result, report


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True,
                        choices=["deploy", "provision", "storage"])
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=[0, 1], default=0)
    args = parser.parse_args(argv)
    if args.seconds <= 0:
        parser.error("--seconds must be positive")
    try:
        checkout.use_source()
    except checkout.CheckoutError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    # the client and both servers (which inherit this) share one CPU, so
    # the slowdown that `host_slowdown` measures is that of the CPU every
    # part of an operation runs on
    os.sched_setaffinity(0, {max(os.sched_getaffinity(0))})
    try:
        result, report = execute(args.workload, args.seed, bool(args.trace),
                                 seconds=args.seconds)
    except RunFailed as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    print(json.dumps({"report": report}))
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
