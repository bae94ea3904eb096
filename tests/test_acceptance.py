"""Acceptance gate: one test per criterion, each printing a pass/fail line
(run with `pytest -s tests/test_acceptance.py` to see them live)."""

import os
import random
import shutil
import socket
import threading
import time


from enclavesim import codec, crypto, wire
from enclavesim.attestation import (
    CertChain,
    Certificate,
    PcsDatabase,
    Quote,
    VerificationPolicy,
    quote_generate,
    quote_verify,
)
from enclavesim.channel import (
    AttestationCertificate,
    HandshakeError,
    bind_report_data,
    verifier_handshake,
)
from enclavesim.cli import main as cli_main
from enclavesim.manifest import (
    FinalManifest,
    MountEntry,
    compute_measurement,
    load as load_manifest,
    parse_template,
    serialize,
    sign_manifest,
)
from enclavesim.pfs import IntegrityError, ProtectedFile, verify_file
from enclavesim.provisioning import KeyServer, KeyVault, ProvisionDeniedError, client_request_key
from enclavesim.workflow import DemoConfig, workflow_demo

from dataclasses import replace

NOW = 1_700_000_000
KEY = bytes(range(32))


def report(number: int, ok: bool, detail: str):
    status = "PASS" if ok else "FAIL"
    print(f"[{status}] criterion {number}: {detail}")
    assert ok, f"criterion {number} failed: {detail}"


# ---------------------------------------------------------------------------

def test_criterion_01_roundtrip_200_random_files(tmp_path):
    rng = random.Random(101)
    started = time.monotonic()
    path = tmp_path / "file.pfs"
    for i in range(200):
        size = rng.randint(0, 1 << 20)
        data = rng.randbytes(size)
        with ProtectedFile.create(path, "file.pfs", KEY) as pf:
            pf.write(0, data)
        with ProtectedFile.open(path, "file.pfs", KEY) as pf:
            back = pf.read(0, pf.size)
        assert back == data, f"file {i} (size {size}) did not roundtrip"
    elapsed = time.monotonic() - started
    report(1, elapsed < 60,
           f"200 random files (0..1MiB) roundtripped in {elapsed:.1f}s (< 60s)")


def test_criterion_02_tamper_evidence_200_bit_flips(tmp_path):
    rng = random.Random(102)
    path = tmp_path / "file.pfs"
    data = rng.randbytes(100 * 1024)
    with ProtectedFile.create(path, "file.pfs", KEY) as pf:
        pf.write(0, data)
    pristine = path.read_bytes()

    detected = 0
    for trial in range(200):
        offset = rng.randrange(len(pristine))
        flipped = bytearray(pristine)
        flipped[offset] ^= 1 << rng.randrange(8)
        path.write_bytes(bytes(flipped))

        verify_failed = not verify_file(path, KEY).ok
        read_failed = False
        try:
            with ProtectedFile.open(path, "file.pfs", KEY) as pf:
                pf.read(0, pf.size)
        except IntegrityError:  # WrongKeyError subclasses IntegrityError
            read_failed = True
        if verify_failed and read_failed:
            detected += 1
    path.write_bytes(pristine)
    report(2, detected == 200,
           f"{detected}/200 single-bit flips caused verify failure and read IntegrityError")


def test_criterion_03_block_structure_via_pfs_info(tmp_path, capsys):
    cases = [(0, 0), (1, 1), (4096, 1), (4097, 2), (10000, 3), (2 ** 20, 256)]
    ok = True
    details = []
    for size, expected in cases:
        src = tmp_path / f"in{size}"
        src.write_bytes(b"\xa5" * size)
        enc = tmp_path / f"c{size}.pfs"
        cli_main(["pfs", "encrypt", str(src), str(enc),
                  "--key-hex", KEY.hex(), "--label", "x"])
        capsys.readouterr()
        cli_main(["pfs", "info", str(enc), "--key-hex", KEY.hex()])
        fields = dict(line.split(": ", 1)
                      for line in capsys.readouterr().out.strip().splitlines())
        got = int(fields["data_blocks"])
        details.append(f"{size}B->{got}")
        ok = ok and got == expected
    report(3, ok, f"pfs info block counts exact: {', '.join(details)}")


def test_criterion_04_cache_transparency(tmp_path):
    def run_trace(capacity):
        path = tmp_path / f"cache{capacity}.pfs"
        rng = random.Random(104)
        outputs = []
        with ProtectedFile.create(path, "t.pfs", KEY, cache_capacity=capacity) as pf:
            for _ in range(150):
                roll = rng.random()
                if roll < 0.5:
                    pf.write(rng.randint(0, 200_000), rng.randbytes(rng.randint(1, 5000)))
                elif roll < 0.9 and pf.size:
                    off = rng.randint(0, pf.size - 1)
                    outputs.append(pf.read(off, rng.randint(0, pf.size - off)))
                else:
                    pf.flush()
            outputs.append(pf.read(0, pf.size))
        with ProtectedFile.open(path, "t.pfs", KEY, cache_capacity=capacity) as pf:
            outputs.append(pf.read(0, pf.size))
        return outputs

    base = run_trace(0)
    ok = run_trace(1) == base and run_trace(1024) == base
    report(4, ok, "identical trace results under cache capacities 0, 1, 1024")


def test_criterion_05_filename_binding_100_swaps(tmp_path):
    rng = random.Random(105)
    rejected = 0
    for trial in range(100):
        name_a = f"file-{rng.randrange(1 << 30):08x}.bin"
        name_b = f"file-{rng.randrange(1 << 30):08x}.bin"
        if name_a == name_b:
            name_b += ".other"
        path_a = tmp_path / name_a
        path_b = tmp_path / name_b
        with ProtectedFile.create(path_a, name_a, KEY) as pf:
            pf.write(0, rng.randbytes(rng.randint(1, 5000)))
        shutil.copy(path_a, path_b)  # the swap: serve file A under name B
        try:
            ProtectedFile.open(path_b, name_b, KEY)
        except IntegrityError:
            rejected += 1
        path_a.unlink(), path_b.unlink()
    report(5, rejected == 100, f"{rejected}/100 file-swap attacks rejected")


def _demo_manifest() -> FinalManifest:
    template = parse_template("""\
app.entrypoint = /app/infer
app.arg = --mode
app.arg = strict
env.HOME = /
fs.mount = app:/app
fs.mount = data:/data
sgx.enclave_size = 2M
sgx.max_threads = 2
sgx.trusted_file = /app/config
sgx.protected_file = /data
""")
    return sign_manifest(template, lambda p: b"config contents")


def test_criterion_06_measurement_sensitivity():
    rng = random.Random(106)
    base = compute_measurement(_demo_manifest()).mr_enclave

    mutators = [
        lambda f: f.template.args.append("--extra"),
        lambda f: f.template.args.__setitem__(0, "--other"),
        lambda f: f.template.env.__setitem__("NEW", "1"),
        lambda f: f.template.env.__setitem__("HOME", "/new"),
        lambda f: f.template.mounts.append(MountEntry("m", "/m")),
        lambda f: setattr(f.template, "entrypoint", "/app/other"),
        lambda f: setattr(f.template, "enclave_size", f.template.enclave_size * 2),
        lambda f: setattr(f.template, "max_threads", f.template.max_threads + 1),
        lambda f: f.template.protected_files.append("/data2"),
        lambda f: f.template.trusted_files.append("/app/extra") or
        f.trusted_file_hashes.__setitem__("/app/extra", bytes(32)),
        lambda f: f.trusted_file_hashes.__setitem__(
            "/app/config", crypto.hash_data(b"mutated")),
    ]
    changed = 0
    stable = 0
    for trial in range(100):
        final = _demo_manifest()
        if compute_measurement(load_manifest(serialize(final))).mr_enclave == base:
            stable += 1
        mutators[rng.randrange(len(mutators))](final)
        if compute_measurement(final).mr_enclave != base:
            changed += 1
    report(6, changed == 100 and stable == 100,
           f"{changed}/100 mutations changed the measurement; "
           f"{stable}/100 re-serializations kept it")


def test_criterion_07_attestation_fault_matrix_and_forgeries():
    pcs = PcsDatabase.create(now=NOW)
    platform, chain = pcs.register(tcb_level=5, now=NOW)
    crl = pcs.current_crl()
    mre, mrs = b"\x11" * 32, b"\x22" * 32
    policy = VerificationPolicy(accepted_root=pcs.root_public_key,
                                expected_mr_enclave=mre, expected_mr_signer=mrs,
                                min_isv_svn=1, min_tcb_level=1)
    honest = quote_generate(platform, mre, mrs, 3, b"\x00" * 64)
    assert quote_verify(honest, chain, crl, policy, NOW) is None

    # one dedicated fault per failure reason
    other_root = crypto.sign_generate()
    revoked_platform, revoked_chain = pcs.register(tcb_level=5, now=NOW)
    revoked_crl = pcs.revoke(revoked_platform.platform_id)
    low_tcb, low_tcb_chain = pcs.register(tcb_level=0, now=NOW)
    faults = {
        "bad_chain": (honest, chain, crl,
                      replace(policy, accepted_root=other_root.public), NOW),
        "expired": (honest, chain, crl, policy,
                    chain.attestation_key_cert.not_after + 1),
        "revoked": (quote_generate(revoked_platform, mre, mrs, 3, b"\x00" * 64),
                    revoked_chain, revoked_crl, policy, NOW),
        "bad_quote_sig": (replace(honest, isv_svn=9), chain, crl, policy, NOW),
        "mr_enclave_mismatch": (quote_generate(platform, b"\xee" * 32, mrs, 3,
                                               b"\x00" * 64), chain, crl, policy, NOW),
        "mr_signer_mismatch": (quote_generate(platform, mre, b"\xdd" * 32, 3,
                                              b"\x00" * 64), chain, crl, policy, NOW),
        "svn_too_low": (quote_generate(platform, mre, mrs, 0, b"\x00" * 64),
                        chain, crl, policy, NOW),
        "tcb_too_low": (quote_generate(low_tcb, mre, mrs, 3, b"\x00" * 64),
                        low_tcb_chain, pcs.current_crl(), policy, NOW),
    }
    matrix_ok = True
    for reason, args in faults.items():
        if quote_verify(*args) != reason:
            matrix_ok = False

    # 10^4 randomized forgery attempts, zero false accepts
    rng = random.Random(107)
    rogue = crypto.sign_generate()
    false_accepts = 0
    for _ in range(10_000):
        mode = rng.randrange(4)
        q, c = honest, chain
        if mode == 0:
            raw = bytearray(honest.pack())
            raw[rng.randrange(len(raw))] ^= 1 << rng.randrange(8)
            q = Quote.unpack(bytes(raw))
        elif mode == 1:
            body = replace(honest, platform_id=rng.randbytes(16),
                           mr_enclave=mre, signature=b"")
            q = replace(body, signature=crypto.sign(rogue,
                                                    b"quote-v1" + body.body()))
        elif mode == 2:
            fake_leaf = Certificate(
                subject=f"platform:{rng.randbytes(16).hex()}",
                issuer="sim-pcs-platform-ca", public_key=rogue.public,
                not_before=NOW, not_after=NOW + 10_000, tcb_level=9,
                signature=rng.randbytes(64))
            c = CertChain(chain.root_cert, chain.platform_ca_cert, fake_leaf)
            body = replace(honest, signature=b"")
            q = replace(body, signature=crypto.sign(rogue,
                                                    b"quote-v1" + body.body()))
        else:
            q = replace(honest, signature=rng.randbytes(64))
        if quote_verify(q, c, crl, policy, NOW) is None:
            false_accepts += 1

    report(7, matrix_ok and false_accepts == 0,
           f"all 8 failure reasons triggered by dedicated faults; "
           f"{false_accepts}/10000 forgeries accepted")


def test_criterion_08_channel_binding_relay_100_trials():
    pcs = PcsDatabase.create(now=NOW)
    platform, chain = pcs.register(tcb_level=5, now=NOW)
    verifier_key = crypto.sign_generate()
    policy = VerificationPolicy(accepted_root=pcs.root_public_key,
                                expected_mr_enclave=b"\x11" * 32,
                                min_isv_svn=1, min_tcb_level=1)
    rejected = 0
    for _ in range(100):
        victim_eph = crypto.dh_generate()
        genuine_quote = quote_generate(platform, b"\x11" * 32, b"\x22" * 32, 3,
                                       bind_report_data(victim_eph.public))
        mitm_eph = crypto.dh_generate()
        relayed = AttestationCertificate(mitm_eph.public, genuine_quote, chain)

        a_sock, v_sock = socket.socketpair()
        outcome = {}

        def verify_side(conn=v_sock):
            crl = pcs.current_crl()
            try:
                verifier_handshake(conn, policy, lambda pid: crl, NOW, verifier_key)
            except HandshakeError as exc:
                outcome["kind"] = exc.kind

        t = threading.Thread(target=verify_side)
        t.start()
        wire.send_frame(a_sock, wire.HS_A1, codec.pack(AttestationCertificate.RECORD, relayed))
        t.join()
        a_sock.close()
        if outcome.get("kind") == "binding_mismatch":
            rejected += 1
    report(8, rejected == 100,
           f"{rejected}/100 relay attempts rejected with binding_mismatch")


def test_criterion_09_key_release_gating_matrix():
    pcs = PcsDatabase.create(now=NOW)
    good_measurement = b"\x11" * 32
    secret = b"the master key material".ljust(32, b"\x00")

    vault = KeyVault()
    vault.add_secret("pfs-master", secret, VerificationPolicy(
        accepted_root=pcs.root_public_key, expected_mr_enclave=good_measurement,
        min_isv_svn=1, min_tcb_level=1))
    session_policy = VerificationPolicy(accepted_root=pcs.root_public_key,
                                        min_isv_svn=1, min_tcb_level=1)
    server = KeyServer(vault, session_policy, crypto.sign_generate(),
                       crl_provider=lambda pid: pcs.current_crl(),
                       now_source=lambda: NOW).start()

    outcomes = {}
    try:
        for match in (True, False):
            for valid in (True, False):
                platform, chain = pcs.register(tcb_level=5, now=NOW)
                if not valid:
                    pcs.revoke(platform.platform_id)
                mre = good_measurement if match else b"\x99" * 32

                def provide(report_data, platform=platform, chain=chain, mre=mre):
                    return (quote_generate(platform, mre, b"\x22" * 32, 3,
                                           report_data), chain)

                try:
                    got = client_request_key(server.address, "pfs-master",
                                             provide, server.public_key)
                    outcomes[(match, valid)] = ("released", got == secret)
                except ProvisionDeniedError as exc:
                    outcomes[(match, valid)] = (f"denied:{exc.reason}", False)
                except HandshakeError as exc:
                    outcomes[(match, valid)] = (f"handshake:{exc.reason}", False)
    finally:
        server.stop()

    ok = (outcomes[(True, True)] == ("released", True)
          and outcomes[(True, False)][0] == "handshake:revoked"
          and outcomes[(False, True)][0] == "denied:policy_mismatch"
          and outcomes[(False, False)][0] == "handshake:revoked")
    cells = {f"match={m},valid={v}": out[0] for (m, v), out in outcomes.items()}
    report(9, ok, f"release matrix: {cells}")


def _independent_linear_run(workdir: str) -> bytes:
    """Recompute the expected output from the user's plaintext files with
    an implementation independent of the enclave module (same operation
    order: ascending column index, bias added last)."""
    import struct as _struct

    with open(os.path.join(workdir, "user", "model.bin"), "rb") as fh:
        blob = fh.read()
    rows, cols = _struct.unpack_from("<II", blob, 0)
    w_flat = _struct.unpack_from(f"<{rows * cols}d", blob, 8)
    bias = _struct.unpack_from(f"<{rows}d", blob, 8 + 8 * rows * cols)

    out_lines = []
    with open(os.path.join(workdir, "user", "input.csv"), encoding="utf-8") as fh:
        for line in fh:
            line = line.strip()
            if not line or line.startswith("#"):
                continue
            x = [float(v) for v in line.split(",")]
            y = []
            for i in range(rows):
                acc = 0.0
                for j in range(cols):
                    acc += w_flat[i * cols + j] * x[j]
                y.append(acc + bias[i])
            out_lines.append(",".join(repr(v) for v in y))
    return ("\n".join(out_lines) + "\n").encode("utf-8")


def test_criterion_10_end_to_end_demo(tmp_path):
    from enclavesim.enclave import user_decrypt_output

    started = time.monotonic()
    workdir = str(tmp_path / "demo")
    config = DemoConfig(workdir=workdir)
    demo = workflow_demo(config, log=lambda *a, **k: None)
    elapsed = time.monotonic() - started

    steps_ok = len(demo.steps) == 8 and all(s.ok for s in demo.steps)
    decrypted = user_decrypt_output(
        os.path.join(workdir, "cloud", "data", "output.csv.pfs"),
        _master_key_from_vault(workdir, config), "/data/output.csv.pfs") \
        if steps_ok else b""
    reference = _independent_linear_run(workdir)
    exact = decrypted == reference
    clean = demo.leaked_paths == []
    report(10, steps_ok and exact and clean and elapsed < 30,
           f"8/8 steps, output byte-equal to the independent plaintext run "
           f"({len(reference)} bytes), no leaked markers, {elapsed:.1f}s (< 30s)")


def _master_key_from_vault(workdir: str, config: DemoConfig) -> bytes:
    from enclavesim.provisioning import vault_load

    vault = vault_load(os.path.join(workdir, "user", "vault.pfs"), config.passphrase)
    return vault.get("pfs-master")["secret"]


def test_criterion_11_negative_demos(tmp_path):
    expectations = {
        "revoked_platform": (4, 1),
        "tamper_input": (6, 2),
        "wrong_manifest": (5, 1),
    }
    results = {}
    ok = True
    for fault, (step, code) in expectations.items():
        demo = workflow_demo(DemoConfig(workdir=str(tmp_path / fault), fault=fault),
                             log=lambda *a, **k: None)
        results[fault] = (demo.failed_step, demo.exit_code)
        ok = ok and demo.failed_step == step and demo.exit_code == code
    report(11, ok, f"fault -> (failed step, exit code): {results} "
                   f"(expected {expectations})")
