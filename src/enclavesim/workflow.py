"""End-to-end deployment demo.

Spins up the mock PCS and the key server on loopback, plays the user and
the cloud platform, and drives the whole flow: fetch platform evidence,
encrypt and upload inputs, start the enclave, attest, provision the key,
run the workload on transparently decrypted files, write the protected
output, then decrypt it user-side and compare against a plaintext
reference run. Configurable fault injections exercise the negative
paths. A confinement scan checks that no plaintext marker bytes ever
landed outside the user's own directory.
"""

from __future__ import annotations

import json
import os
import random
import time
from contextlib import ExitStack, contextmanager
from dataclasses import asdict, dataclass, field, fields

from . import codec, crypto, pcs_service
from .attestation import PcsDatabase, VerificationPolicy
from .channel import HandshakeError
from .enclave import (
    LinearModel,
    WorkloadSpec,
    enclave_start,
    format_rows,
    user_decrypt_output,
    user_encrypt_inputs,
)
from .failure import EXIT_ATTESTATION, EXIT_INTEGRITY, EXIT_OK, EXIT_OTHER, exit_code
from .manifest import (
    ParseError,
    compute_measurement,
    parse_lines,
    parse_template,
    resolver_for_root,
    sign_manifest,
)
from .provisioning import KeyVault, ProvisioningClient, key_server, vault_save

FAULTS = ("none", "revoked_platform", "tamper_input", "wrong_manifest")

STEP_NAMES = {
    1: "user fetches platform certificate and CRL from the PCS",
    2: "user encrypts model and input, uploads to cloud storage",
    3: "enclave starts and opens the attested connection",
    4: "user verifies the platform and enclave measurements",
    5: "cryptographic key provisioned to the enclave",
    6: "protected model and input decrypted transparently",
    7: "inference runs on plaintext inside the enclave",
    8: "protected output written to cloud storage",
}

CIRCLED = {1: "①", 2: "②", 3: "③", 4: "④",
           5: "⑤", 6: "⑥", 7: "⑦", 8: "⑧"}

SECRET_NAME = "pfs-master"

MODEL_PATH = "/data/model.pfs"
INPUT_PATH = "/data/input.csv.pfs"
OUTPUT_PATH = "/data/output.csv.pfs"

TEMPLATE_TEXT = """\
app.entrypoint = /app/linear_infer
fs.mount = app:/app
fs.mount = data:/data
sgx.enclave_size = 1M
sgx.max_threads = 1
sgx.trusted_file = /app/workload.json
sgx.protected_file = /data
"""


@dataclass
class DemoConfig:
    workdir: str | None = None
    fault: str = "none"
    host: str = "127.0.0.1"
    pcs_port: int = 0
    keyserver_port: int = 0
    model_rows: int = 4
    model_cols: int = 3
    input_rows: int = 16
    seed: int = 7
    passphrase: str = "demo-passphrase"

    def __post_init__(self):
        if self.fault not in FAULTS:
            raise ValueError(f"fault must be one of {FAULTS}, got {self.fault!r}")
        for name in ("model_rows", "model_cols", "input_rows"):
            if getattr(self, name) < 1:
                raise ValueError(f"{name} must be at least 1, got {getattr(self, name)}")


def parse_config(text: str) -> DemoConfig:
    """Flat config in the manifest's `key = value` line syntax, '#'
    comments; each key at most once."""
    types = {f.name: f.type for f in fields(DemoConfig)}
    values: dict[str, str | int] = {}
    for lineno, key, value in parse_lines(text):
        if key in values:
            raise ParseError(f"duplicate config key {key!r}", lineno)
        try:
            values[key] = codec.decimal(value) if types.get(key) == "int" else value
        except ValueError as exc:
            raise ParseError(str(exc), lineno)
    unknown = sorted(values.keys() - types.keys())
    if unknown:
        raise ValueError(f"unknown config keys: {unknown}")
    return DemoConfig(**values)


@dataclass
class StepResult:
    number: int
    name: str
    ok: bool
    detail: str = ""
    duration_ms: float = 0.0


@dataclass
class DemoReport:
    """Written to demo_report.json as `asdict`, in field order."""

    ok: bool = False
    exit_code: int = EXIT_OTHER
    failed_step: int | None = None
    output_match: bool | None = None
    leaked_paths: list[str] = field(default_factory=list)
    decrypted_sha256: str | None = None
    workdir: str | None = None
    steps: list[StepResult] = field(default_factory=list)

    def table(self) -> str:
        lines = []
        for s in self.steps:
            mark = "ok" if s.ok else "FAIL"
            suffix = f"  [{s.detail}]" if s.detail and not s.ok else ""
            lines.append(f"  {CIRCLED[s.number]}  {s.name:<58} {mark}{suffix}")
        return "\n".join(lines)


@contextmanager
def _step(report: DemoReport, log, number: int):
    """One timed and recorded demo step. The first step to raise fails the
    demo with `exit_code` of its exception and re-raises it, so no later
    step runs."""
    step = StepResult(number, STEP_NAMES[number], False)
    start = time.perf_counter()
    try:
        yield step
        step.ok = True
    except Exception as exc:
        step.detail = str(exc)
        report.failed_step = number
        report.exit_code = exit_code(exc)
        raise
    finally:
        step.duration_ms = round((time.perf_counter() - start) * 1e3, 3)
        report.steps.append(step)
        if step.ok:
            status = f"ok ({step.detail})" if step.detail else "ok"
        else:
            status = f"FAILED: {step.detail}"
        log(f"{CIRCLED[number]} {step.name} ... {status}")


def workflow_demo(config: DemoConfig, log=print) -> DemoReport:
    """Run the whole flow; the first failing step aborts the demo with its
    step number recorded. Writes demo_report.json into the workdir, also
    when the demo fails outside a step, and then re-raises."""
    workdir = config.workdir or os.path.join(
        os.getcwd(), f"enclavesim-demo-{os.getpid()}")
    os.makedirs(workdir, exist_ok=True)
    report = DemoReport(workdir=workdir)
    try:
        user_dir = os.path.join(workdir, "user")
        cloud_dir = os.path.join(workdir, "cloud")
        for sub in (user_dir, os.path.join(cloud_dir, "app"),
                    os.path.join(cloud_dir, "data")):
            os.makedirs(sub, exist_ok=True)

        rng = random.Random(config.seed)
        marker = rng.randbytes(8).hex()

        # plaintext inputs on the user's machine
        model = LinearModel(
            rows=config.model_rows, cols=config.model_cols,
            weights=[[rng.uniform(-2, 2) for _ in range(config.model_cols)]
                     for _ in range(config.model_rows)],
            bias=[rng.uniform(-1, 1) for _ in range(config.model_rows)])
        input_rows = [[rng.uniform(-10, 10) for _ in range(config.model_cols)]
                      for _ in range(config.input_rows)]
        input_text = f"# marker:{marker}\n" + format_rows(input_rows)
        model_path = os.path.join(user_dir, "model.bin")
        input_path = os.path.join(user_dir, "input.csv")
        with open(model_path, "wb") as fh:
            fh.write(model.pack())
        with open(input_path, "w", encoding="utf-8") as fh:
            fh.write(input_text)

        # deployment artifacts on the cloud side
        workload = WorkloadSpec(kind="linear_infer", model_path=MODEL_PATH,
                                input_path=INPUT_PATH, output_path=OUTPUT_PATH,
                                key_name=SECRET_NAME)
        with open(os.path.join(cloud_dir, "app", "workload.json"), "wb") as fh:
            fh.write(workload.to_json())

        template = parse_template(TEMPLATE_TEXT)
        final = sign_manifest(template, resolver_for_root(cloud_dir, template.mounts))
        measurement = compute_measurement(final)
        log(f"   signer measurement: {measurement.hex}")

        master_key = os.urandom(32)

        with ExitStack() as servers:
            pcs_db = PcsDatabase.create(now=int(time.time()))
            pcs_srv = servers.enter_context(pcs_service.PcsServer(
                pcs_db, host=config.host, port=config.pcs_port,
                db_path=os.path.join(workdir, "pcs.json"))).start()

            vault = KeyVault()
            vault.add_secret(SECRET_NAME, master_key, VerificationPolicy(
                accepted_root=pcs_db.root_public_key,
                expected_mr_enclave=measurement.mr_enclave,
                min_isv_svn=1, min_tcb_level=1))
            vault_save(vault, os.path.join(user_dir, "vault.pfs"), config.passphrase)

            key_srv = servers.enter_context(key_server(
                vault, pcs_srv.address, pcs_db.root_public_key, crypto.sign_generate(),
                min_isv_svn=1, min_tcb_level=1, host=config.host, port=config.keyserver_port,
                audit_path=os.path.join(user_dir, "audit.jsonl"))).start()

            # step 0 (unnumbered): the cloud provider registered its platform
            platform, chain = pcs_service.register_platform(pcs_srv.address, tcb_level=2)
            log(f"   platform {platform.platform_id.hex()} registered with the PCS "
                "(pre-existing state)")
            if config.fault == "revoked_platform":
                pcs_service.revoke_platform(pcs_srv.address, platform.platform_id)
                log("   fault injected: platform revoked")

            # 1: user fetches the platform evidence
            with _step(report, log, 1) as step:
                _, crl = pcs_service.fetch_platform(pcs_srv.address, platform.platform_id)
                step.detail = (f"CRL sequence {crl.sequence}, "
                               f"{len(crl.revoked)} revoked platform(s)")

            # 2: user encrypts and uploads
            with _step(report, log, 2):
                user_encrypt_inputs([(model_path, MODEL_PATH), (input_path, INPUT_PATH)],
                                    master_key, os.path.join(cloud_dir, "data"))

            if config.fault == "tamper_input":
                target = os.path.join(cloud_dir, "data", os.path.basename(INPUT_PATH))
                with open(target, "r+b") as fh:
                    fh.seek(1000)  # inside the first sealed node
                    byte = fh.read(1)
                    fh.seek(1000)
                    fh.write(bytes([byte[0] ^ 0x01]))
                log("   fault injected: uploaded input container tampered")

            if config.fault == "wrong_manifest":
                tampered = parse_template(TEMPLATE_TEXT.replace("max_threads = 1",
                                                                "max_threads = 2"))
                final = sign_manifest(tampered,
                                      resolver_for_root(cloud_dir, tampered.mounts))
                log("   fault injected: platform runs a modified manifest "
                    f"(measurement {compute_measurement(final).hex[:16]}..., "
                    f"key policy expects {measurement.hex[:16]}...)")

            # 3-4: the platform starts the enclave; both sides handshake. A handshake
            # the verifier rejects (exit code 1) opened the connection (3) and failed
            # the user's verification (4); any other handshake failure fails 3.
            rejected = None
            with _step(report, log, 3):
                instance = enclave_start(final, cloud_dir, platform=platform,
                                         cert_chain=chain)
                try:
                    client = ProvisioningClient(key_srv.address, instance.quote_provider(),
                                                key_srv.public_key)
                except HandshakeError as exc:
                    if exit_code(exc) != EXIT_ATTESTATION:
                        raise
                    rejected = exc
            with _step(report, log, 4) as step:
                if rejected is not None:
                    raise rejected
                step.detail = "quote accepted by the key server"

            # 5: provision the key
            with client, _step(report, log, 5):
                instance.provisioned_secrets[SECRET_NAME] = client.request(SECRET_NAME)

            # 6: transparent decrypt
            with _step(report, log, 6) as step:
                loaded_model, rows = instance.workload_open_inputs(workload)
                step.detail = f"{len(rows)} input row(s)"

            # 7: compute on plaintext
            with _step(report, log, 7):
                out_rows = instance.workload_compute(loaded_model, rows)

            # 8: write the protected output
            with _step(report, log, 8) as step:
                run_report = instance.workload_write_output(workload, out_rows)
                step.detail = f"{run_report.rows} row(s) -> {run_report.output_path}"

            # beyond step 8: the user reads the output from shared storage
            out_host = os.path.join(cloud_dir, "data", os.path.basename(OUTPUT_PATH))
            decrypted = user_decrypt_output(out_host, master_key, OUTPUT_PATH)
            report.decrypted_sha256 = crypto.hash_data(decrypted).hex()

            # reference: the user's own plaintext run of the same model
            reference = format_rows([model.apply(x) for x in input_rows]).encode("utf-8")
            report.output_match = decrypted == reference
            log(f"   user decrypted the output: "
                f"{'matches' if report.output_match else 'DOES NOT match'} the "
                "plaintext reference run")

            # confinement: no plaintext marker may exist outside the user's machine
            markers = [f"# marker:{marker}".encode("utf-8"), model.pack()[8:40],
                       decrypted[:64], master_key, master_key.hex().encode()]
            report.leaked_paths = scan_for_leaks(workdir, user_dir, markers)
            if report.leaked_paths:
                log(f"   LEAK: plaintext markers found in {report.leaked_paths}")
            else:
                log("   confinement scan: no plaintext markers outside the user directory")

            if report.output_match and not report.leaked_paths:
                report.ok = True
                report.exit_code = EXIT_OK
            else:
                report.exit_code = EXIT_INTEGRITY
    except Exception as exc:
        if report.failed_step is None:  # not a step's failure: no demo outcome
            report.exit_code = exit_code(exc)
            raise
    finally:
        with open(os.path.join(workdir, "demo_report.json"), "w", encoding="utf-8") as fh:
            json.dump(asdict(report), fh, indent=2)
            fh.write("\n")
    return report


def scan_for_leaks(workdir, user_dir, markers: list[bytes]) -> list[str]:
    """Every file outside the user's directory is searched for each marker."""
    leaked = []
    user_dir = os.path.abspath(user_dir)
    for dirpath, _, filenames in os.walk(workdir):
        if os.path.commonpath([user_dir, os.path.abspath(dirpath)]) == user_dir:
            continue
        for name in filenames:
            path = os.path.join(dirpath, name)
            try:
                with open(path, "rb") as fh:
                    content = fh.read()
            except OSError:
                continue
            if any(m in content for m in markers if m):
                leaked.append(os.path.relpath(path, workdir))
    return sorted(leaked)
