"""The three workloads. Each builds its inputs from the seed in `setup`,
runs one operation per `op` call and checks every output it gets back;
`end_checks` audits what the run left behind.

Every call into enclavesim goes through a module or class attribute
(`enclave.enclave_start`, not a name imported early), so the wrappers
that tracing.Tracer installs see it.
"""

from __future__ import annotations

import json
import os
import random
import shutil
import statistics
from collections import Counter, defaultdict
from time import perf_counter

from enclavesim import enclave, pcs_service, pfs, provisioning, workflow
from enclavesim.attestation import VerificationPolicy
from enclavesim.manifest import compute_measurement, parse_template, resolver_for_root, sign_manifest

import servers

PASSPHRASE = "perfbench-vault-passphrase"

INFO = {
    "deploy": {
        "loop": "closed", "clients": 1,
        "inputs": "32x32 linear model, 256 input rows of 32 values",
        "operation": ("demo steps 1-8 plus the user's decrypt against long-lived "
                      "PCS and key-server processes"),
        "why": ("the only workload where enclave compute, small containers that "
                "fit the 256-node cache, measurement and one handshake all block "
                "one result"),
    },
    "provision": {
        "loop": "closed", "clients": 1,
        "inputs": "7 granted 32-byte secrets, 1 secret pinned to another mr_enclave",
        "operation": ("8 one-shot client_request_key calls (attested handshake, "
                      "one request, close), one of them denied policy_mismatch"),
        "why": ("attestation, channel, PCS lookups and wire framing with no pfs "
                "or compute on the timed path; denials keep policy re-evaluation "
                "on the path"),
    },
    "storage": {
        "loop": "closed", "clients": 1,
        "inputs": "32 MiB container; fresh 8 MiB container per round",
        "operation": ("one round: a 1-byte read-modify-write update of the 32 MiB "
                      "container, 64 uniform 4 KiB reads of it through a fresh "
                      "handle, then an 8 MiB container written in 64 KiB writes "
                      "and read back"),
        "why": ("pfs alone with a working set 32x the per-handle cache; reads sit "
                "beside writes, so a gain for one that costs the other shows"),
    },
}


class CheckFailed(Exception):
    pass


def check(condition: bool, what: str) -> None:
    if not condition:
        raise CheckFailed(what)


def percentile(samples: list[float], q: int) -> float:
    """q-th percentile (q in 10..90 by tens) of at least two samples."""
    if q == 50:
        return statistics.median(samples)
    return statistics.quantiles(samples, n=10)[q // 10 - 1]


class Workload:
    name = ""

    def __init__(self, workdir: str, seed: int, traced: bool):
        self.workdir = workdir
        self.seed = seed
        self.traced = traced
        self.servers: list[servers.Server] = []
        os.makedirs(workdir)

    def setup(self) -> None:
        raise NotImplementedError

    def op(self, tracer) -> dict | None:
        """One operation; raises on any wrong output. May return timings
        of its parts as {kind: [seconds, ...]}."""
        raise NotImplementedError

    def end_checks(self) -> list[str]:
        """Failed run-end checks; runs after the servers have stopped."""
        return []

    def named_metrics(self, phase) -> dict:
        """The workload's own end-to-end figures, by name, from a timed
        phase (run.Phase), for the report."""
        raise NotImplementedError

    def stop_servers(self) -> None:
        """SIGINT every server, last started first; raises the first failure."""
        errors = []
        while self.servers:
            try:
                self.servers.pop().stop()
            except servers.ServerError as exc:
                errors.append(exc)
        if errors:
            raise errors[0]

    def close(self) -> None:
        for server in self.servers:
            server.abandon()
        self.servers.clear()
        shutil.rmtree(self.workdir, ignore_errors=True)


class _Deployment(Workload):
    """Shared set-up of deploy and provision: a signed manifest for the demo
    enclave, a PCS with one registered platform, and a key server whose
    vault `secrets()` fills."""

    def _start_pipeline(self, rng: random.Random) -> None:
        self.cloud_dir = os.path.join(self.workdir, "cloud")
        self.user_dir = os.path.join(self.workdir, "user")
        for sub in (os.path.join(self.cloud_dir, "app"),
                    os.path.join(self.cloud_dir, "data"), self.user_dir):
            os.makedirs(sub, exist_ok=True)
        self.spec = enclave.WorkloadSpec(
            kind="linear_infer", model_path=workflow.MODEL_PATH,
            input_path=workflow.INPUT_PATH, output_path=workflow.OUTPUT_PATH,
            key_name=workflow.SECRET_NAME)
        with open(os.path.join(self.cloud_dir, "app", "workload.json"), "wb") as fh:
            fh.write(self.spec.to_json())
        template = parse_template(workflow.TEMPLATE_TEXT)
        self.final = sign_manifest(template, resolver_for_root(self.cloud_dir,
                                                               template.mounts))
        self.measurement = compute_measurement(self.final)

        pcs, self.pcs_addr, self.root_key = servers.start_pcs(self.workdir, self.traced)
        self.servers.append(pcs)
        self.platform, self.chain = pcs_service.register_platform(self.pcs_addr,
                                                                  tcb_level=2)
        vault = provisioning.KeyVault()
        for name, secret, mr_enclave in self.secrets(rng):
            vault.add_secret(name, secret, VerificationPolicy(
                accepted_root=self.root_key, expected_mr_enclave=mr_enclave,
                min_isv_svn=1, min_tcb_level=1))
        self.vault = vault
        vault_path = os.path.join(self.user_dir, "vault.pfs")
        provisioning.vault_save(vault, vault_path, PASSPHRASE)
        self.audit_path = os.path.join(self.user_dir, "audit.jsonl")
        ks, self.ks_addr, self.pin = servers.start_keyserver(
            self.workdir, self.traced, self.pcs_addr, self.root_key, vault_path,
            PASSPHRASE, self.audit_path)
        self.servers.append(ks)

    def secrets(self, rng: random.Random):
        raise NotImplementedError


class Deploy(_Deployment):
    name = "deploy"
    ROWS, COLS, INPUT_ROWS = 32, 32, 256

    def setup(self) -> None:
        rng = random.Random(f"deploy/{self.seed}")
        self.marker = rng.randbytes(8).hex()
        self.master_key = rng.randbytes(32)
        self.model = enclave.LinearModel(
            rows=self.ROWS, cols=self.COLS,
            weights=[[rng.uniform(-2, 2) for _ in range(self.COLS)]
                     for _ in range(self.ROWS)],
            bias=[rng.uniform(-1, 1) for _ in range(self.ROWS)])
        rows = [[rng.uniform(-10, 10) for _ in range(self.COLS)]
                for _ in range(self.INPUT_ROWS)]
        self._start_pipeline(rng)
        self.model_path = os.path.join(self.user_dir, "model.bin")
        self.input_path = os.path.join(self.user_dir, "input.csv")
        with open(self.model_path, "wb") as fh:
            fh.write(self.model.pack())
        with open(self.input_path, "w", encoding="utf-8") as fh:
            fh.write(f"# marker:{self.marker}\n" + enclave.format_rows(rows))
        self.reference = enclave.format_rows(
            [self.model.apply(x) for x in rows]).encode("utf-8")
        self.output_host = os.path.join(self.cloud_dir, "data",
                                        os.path.basename(workflow.OUTPUT_PATH))

    def secrets(self, rng):
        return [(workflow.SECRET_NAME, self.master_key, self.measurement.mr_enclave)]

    def op(self, tracer) -> None:
        with tracer.span("workflow.step1"):
            chain, crl = pcs_service.fetch_platform(self.pcs_addr,
                                                    self.platform.platform_id)
        check(chain == self.chain and not crl.revoked, "platform evidence changed")
        with tracer.span("workflow.step2"):
            enclave.user_encrypt_inputs(
                [(self.model_path, workflow.MODEL_PATH),
                 (self.input_path, workflow.INPUT_PATH)],
                self.master_key, os.path.join(self.cloud_dir, "data"))
        with tracer.span("workflow.step3_4"):
            instance = enclave.enclave_start(self.final, self.cloud_dir,
                                             platform=self.platform,
                                             cert_chain=self.chain)
            client_channel = provisioning.ProvisioningClient(
                self.ks_addr, instance.quote_provider(), self.pin)
        with tracer.span("workflow.step5"):
            try:
                secret = client_channel.request(workflow.SECRET_NAME)
            finally:
                client_channel.close()
        check(secret == self.master_key, "provisioned key differs from the vault's")
        instance.provisioned_secrets[workflow.SECRET_NAME] = secret
        with tracer.span("workflow.step6"):
            model, rows = instance.workload_open_inputs(self.spec)
        with tracer.span("workflow.step7"):
            out_rows = instance.workload_compute(model, rows)
        with tracer.span("workflow.step8"):
            instance.workload_write_output(self.spec, out_rows)
        with tracer.span("workflow.user_decrypt"):
            output = enclave.user_decrypt_output(self.output_host, self.master_key,
                                                 workflow.OUTPUT_PATH)
        check(output == self.reference, "decrypted output differs from the reference")

    def end_checks(self) -> list[str]:
        markers = [f"# marker:{self.marker}".encode("utf-8"), self.model.pack()[8:40],
                   self.reference[:64], self.master_key, self.master_key.hex().encode()]
        leaked = workflow.scan_for_leaks(self.workdir, self.user_dir, markers)
        return [f"plaintext markers outside the user directory: {leaked}"] if leaked else []

    def named_metrics(self, phase) -> dict:
        latencies = phase.latencies
        return {
            "deploy_p50_ms": _metric(percentile(latencies, 50) * 1e3, "ms", len(latencies)),
            "deploy_p90_ms": _metric(percentile(latencies, 90) * 1e3, "ms", len(latencies)),
        }


class Provision(_Deployment):
    name = "provision"
    # one closed-loop client: with two, the client and both servers keep a
    # 2-vCPU host saturated and the figures follow other tenants' load
    BATCH = 8  # one-shot provisions per operation, exactly one denied
    GRANTED = 7
    DENIED_NAME = "foreign-model-key"

    def setup(self) -> None:
        rng = random.Random(f"provision/{self.seed}")
        self._start_pipeline(rng)
        self.instance = enclave.enclave_start(self.final, self.cloud_dir,
                                              platform=self.platform,
                                              cert_chain=self.chain)
        self.quote_provider = self.instance.quote_provider()
        self.rng = random.Random(f"provision/{self.seed}/requests")
        self._issued: Counter = Counter()

    def secrets(self, rng):
        self.granted = {f"model-key-{k}": rng.randbytes(32) for k in range(self.GRANTED)}
        entries = [(name, secret, self.measurement.mr_enclave)
                   for name, secret in self.granted.items()]
        entries.append((self.DENIED_NAME, rng.randbytes(32), rng.randbytes(32)))
        return entries

    def op(self, tracer) -> dict:
        names = sorted(self.granted)
        denied_at = self.rng.randrange(self.BATCH)
        timings = []
        for k in range(self.BATCH):
            name = self.DENIED_NAME if k == denied_at else self.rng.choice(names)
            t0 = perf_counter()
            try:
                secret = provisioning.client_request_key(self.ks_addr, name,
                                                         self.quote_provider, self.pin)
                outcome = "granted"
            except provisioning.ProvisionDeniedError as exc:
                secret, outcome = None, f"denied:{exc.reason}"
            timings.append(perf_counter() - t0)
            self._issued[(name, outcome)] += 1
            if name == self.DENIED_NAME:
                check(outcome == "denied:policy_mismatch", f"{name}: {outcome}")
            else:
                check(secret == self.granted[name], f"{name}: wrong secret or {outcome}")
        return {"provision": timings}

    def end_checks(self) -> list[str]:
        with open(self.audit_path, encoding="utf-8") as fh:
            text = fh.read()
        logged = Counter((e["secret_name"], e["outcome"])
                         for e in map(json.loads, text.splitlines()))
        failures = []
        if logged != self._issued:
            failures.append(f"audit log holds {sum(logged.values())} records for "
                            f"{sum(self._issued.values())} requests, or other outcomes")
        for name in self.vault.names():
            if self.vault.get(name)["secret"].hex() in text:
                failures.append(f"secret {name} appears in the audit log")
        return failures

    def named_metrics(self, phase) -> dict:
        single = phase.samples["provision"]
        return {
            "provision_per_s": _metric(len(single) / sum(single), "1/s", len(single)),
            "provision_p50_ms": _metric(percentile(single, 50) * 1e3, "ms", len(single)),
            "provision_p90_ms": _metric(percentile(single, 90) * 1e3, "ms", len(single)),
        }


class Storage(Workload):
    name = "storage"
    SIZE = 32 << 20
    SEQ_SIZE = 8 << 20
    SEQ_CHUNK = 64 << 10
    READ_SIZE = 4096
    READS_PER_ROUND = 64
    LABEL = "/data/store.bin"
    SEQ_LABEL = "/data/sequential.bin"

    def setup(self) -> None:
        rng = random.Random(f"storage/{self.seed}")
        self.key = rng.randbytes(32)
        self.mirror = bytearray(rng.randbytes(self.SIZE))
        self.seq_data = rng.randbytes(self.SEQ_SIZE)
        self.rng = rng
        self.path = os.path.join(self.workdir, "store.pfs")
        self.seq_path = os.path.join(self.workdir, "sequential.pfs")
        with pfs.ProtectedFile.create(self.path, self.LABEL, self.key) as pf:
            pf.write(0, self.mirror)

    def op(self, tracer) -> dict:
        rng, record = self.rng, defaultdict(list)
        offset, value = rng.randrange(self.SIZE), rng.randrange(256)
        with tracer.span("storage.update"):
            t0 = perf_counter()
            with pfs.ProtectedFile.open(self.path, self.LABEL, self.key, "rw") as pf:
                pf.write(offset, bytes([value]))
            record["update"].append(perf_counter() - t0)
        self.mirror[offset] = value

        with pfs.ProtectedFile.open(self.path, self.LABEL, self.key) as pf:
            for _ in range(self.READS_PER_ROUND):
                offset = rng.randrange(self.SIZE - self.READ_SIZE + 1)
                with tracer.span("storage.read4k"):
                    t0 = perf_counter()
                    got = pf.read(offset, self.READ_SIZE)
                    record["read4k"].append(perf_counter() - t0)
                check(got == self.mirror[offset:offset + self.READ_SIZE],
                      f"4 KiB read at {offset} differs from the mirror")

        with tracer.span("storage.seq"):
            t0 = perf_counter()
            with pfs.ProtectedFile.create(self.seq_path, self.SEQ_LABEL, self.key) as pf:
                for off in range(0, self.SEQ_SIZE, self.SEQ_CHUNK):
                    pf.write(off, self.seq_data[off:off + self.SEQ_CHUNK])
            t1 = perf_counter()
            with pfs.ProtectedFile.open(self.seq_path, self.SEQ_LABEL, self.key) as pf:
                back = [pf.read(off, self.SEQ_CHUNK)
                        for off in range(0, self.SEQ_SIZE, self.SEQ_CHUNK)]
            t2 = perf_counter()
        record["seq_write"].append(t1 - t0)
        record["seq_read"].append(t2 - t1)
        check(b"".join(back) == self.seq_data, "sequential read-back differs")
        return record

    def end_checks(self) -> list[str]:
        failures = []
        for path in (self.path, self.seq_path):
            if os.path.exists(path) and not pfs.verify_file(path, self.key).ok:
                failures.append(f"verify_file failed on {os.path.basename(path)}")
        with pfs.ProtectedFile.open(self.path, self.LABEL, self.key) as pf:
            if pf.read(0, pf.size) != self.mirror:
                failures.append("container content differs from the mirror")
        return failures

    def named_metrics(self, phase) -> dict:
        s = phase.samples
        mb = self.SEQ_SIZE / 1e6
        return {
            "seq_write_MBps": _metric(mb / percentile(s["seq_write"], 50), "MB/s",
                                      len(s["seq_write"])),
            "seq_read_MBps": _metric(mb / percentile(s["seq_read"], 50), "MB/s",
                                     len(s["seq_read"])),
            "read4k_p50_us": _metric(percentile(s["read4k"], 50) * 1e6, "us", len(s["read4k"])),
            "read4k_p90_us": _metric(percentile(s["read4k"], 90) * 1e6, "us", len(s["read4k"])),
            "update_p50_ms": _metric(percentile(s["update"], 50) * 1e3, "ms", len(s["update"])),
        }


def _metric(value: float, unit: str, samples: int) -> dict:
    return {"value": value, "unit": unit, "samples": samples}


WORKLOADS = {w.name: w for w in (Deploy, Provision, Storage)}
