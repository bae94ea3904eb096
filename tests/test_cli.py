import json
import os
import socket
import subprocess
import sys
import threading
import time

import pytest

from enclavesim import cli, pcs_service, wire, workflow
from enclavesim.attestation import PcsDatabase
from enclavesim.cli import main
from enclavesim.enclave import LinearModel, WorkloadSpec, parse_rows
from enclavesim.pcs_service import PcsServer

KEY_HEX = bytes(range(32)).hex()


def run_cli(*argv):
    return main(list(argv))


# -- pfs subcommands -------------------------------------------------------

def test_pfs_encrypt_decrypt_roundtrip(tmp_path, capsys):
    src = tmp_path / "plain.txt"
    src.write_bytes(b"hello container" * 100)
    enc = tmp_path / "plain.pfs"
    dec = tmp_path / "plain.out"
    assert run_cli("pfs", "encrypt", str(src), str(enc),
                   "--key-hex", KEY_HEX, "--label", "plain.txt") == 0
    assert run_cli("pfs", "decrypt", str(enc), str(dec),
                   "--key-hex", KEY_HEX, "--label", "plain.txt") == 0
    assert dec.read_bytes() == src.read_bytes()


def test_pfs_decrypt_wrong_label_fails(tmp_path):
    src = tmp_path / "a.txt"
    src.write_bytes(b"data")
    enc = tmp_path / "a.pfs"
    run_cli("pfs", "encrypt", str(src), str(enc), "--key-hex", KEY_HEX,
            "--label", "a.txt")
    code = run_cli("pfs", "decrypt", str(enc), str(tmp_path / "a.out"),
                   "--key-hex", KEY_HEX, "--label", "b.txt")
    assert code == 2


def test_pfs_verify_exit_codes(tmp_path, capsys):
    src = tmp_path / "a.txt"
    src.write_bytes(os.urandom(9000))
    enc = tmp_path / "a.pfs"
    run_cli("pfs", "encrypt", str(src), str(enc), "--key-hex", KEY_HEX,
            "--label", "a.txt")
    assert run_cli("pfs", "verify", str(enc), "--key-hex", KEY_HEX) == 0
    raw = bytearray(enc.read_bytes())
    raw[-10] ^= 0x01
    enc.write_bytes(bytes(raw))
    assert run_cli("pfs", "verify", str(enc), "--key-hex", KEY_HEX) == 1


def test_pfs_info_reports_blocks(tmp_path, capsys):
    src = tmp_path / "a.bin"
    src.write_bytes(b"\x00" * 10000)
    enc = tmp_path / "a.pfs"
    run_cli("pfs", "encrypt", str(src), str(enc), "--key-hex", KEY_HEX,
            "--label", "a.bin")
    capsys.readouterr()
    assert run_cli("pfs", "info", str(enc), "--key-hex", KEY_HEX) == 0
    out = capsys.readouterr().out
    fields = dict(line.split(": ", 1) for line in out.strip().splitlines())
    assert fields["data_blocks"] == "3"
    assert fields["file_size"] == "10000"
    assert fields["label"] == "a.bin"


def test_pfs_info_without_key(tmp_path, capsys):
    src = tmp_path / "a.bin"
    src.write_bytes(b"\x01" * 5000)
    enc = tmp_path / "a.pfs"
    run_cli("pfs", "encrypt", str(src), str(enc), "--key-hex", KEY_HEX,
            "--label", "a.bin")
    capsys.readouterr()
    assert run_cli("pfs", "info", str(enc)) == 0
    out = capsys.readouterr().out
    fields = dict(line.split(": ", 1) for line in out.strip().splitlines())
    assert fields["data_blocks"] == "2"
    assert "file_size" not in fields


@pytest.mark.parametrize("version", [1, 2])
def test_pfs_commands_on_a_version_1_container(tmp_path, capsys, version):
    src = tmp_path / "a.bin"
    src.write_bytes(b"\x02" * 5000)
    enc = tmp_path / "a.pfs"
    run_cli("pfs", "encrypt", str(src), str(enc), "--key-hex", KEY_HEX,
            "--label", "a.bin")
    raw = bytearray(enc.read_bytes())
    raw[8:12] = version.to_bytes(4, "little")
    enc.write_bytes(bytes(raw))
    capsys.readouterr()
    assert run_cli("pfs", "decrypt", str(enc), str(tmp_path / "a.out"),
                   "--key-hex", KEY_HEX, "--label", "a.bin") == 2
    assert f"unsupported version {version}" in capsys.readouterr().err
    assert run_cli("pfs", "info", str(enc)) == 2
    assert run_cli("pfs", "info", str(enc), "--key-hex", KEY_HEX) == 2
    assert run_cli("pfs", "verify", str(enc), "--key-hex", KEY_HEX) == 1
    assert capsys.readouterr().out.strip() == "FAILED at header"


# -- manifest subcommands -----------------------------------------------------

TEMPLATE = """\
app.entrypoint = /app/run
fs.mount = app:/app
sgx.enclave_size = 1M
sgx.max_threads = 1
sgx.trusted_file = /app/config
"""


def make_template_dir(tmp_path):
    (tmp_path / "app").mkdir()
    (tmp_path / "app" / "config").write_bytes(b"setting = 1\n")
    template = tmp_path / "app.template"
    template.write_text(TEMPLATE)
    return template


def test_manifest_sign_and_measure_agree(tmp_path, capsys):
    template = make_template_dir(tmp_path)
    final = tmp_path / "final.manifest"
    assert run_cli("manifest", "sign", str(template), "-o", str(final),
                   "--root", str(tmp_path)) == 0
    signed_measurement = capsys.readouterr().out.strip()
    assert len(signed_measurement) == 64
    assert run_cli("manifest", "measure", str(final)) == 0
    assert capsys.readouterr().out.strip() == signed_measurement


def test_manifest_sign_tracks_trusted_file_content(tmp_path, capsys):
    template = make_template_dir(tmp_path)
    final = tmp_path / "final.manifest"
    run_cli("manifest", "sign", str(template), "-o", str(final),
            "--root", str(tmp_path))
    first = capsys.readouterr().out.strip()
    (tmp_path / "app" / "config").write_bytes(b"setting = 2\n")
    run_cli("manifest", "sign", str(template), "-o", str(final),
            "--root", str(tmp_path))
    assert capsys.readouterr().out.strip() != first


# -- pcs subcommands ------------------------------------------------------------

def pcs_arg(server) -> str:
    host, port = server.address
    return f"{host}:{port}"


def test_pcs_register_and_revoke(pcs_server, tmp_path, capsys):
    db = tmp_path / "pcs.json"
    identity = tmp_path / "identity.json"
    assert run_cli("pcs", "register", "--pcs", pcs_arg(pcs_server), "--tcb", "3",
                   "--identity-out", str(identity)) == 0
    out = dict(line.split(": ", 1) for line in capsys.readouterr().out.splitlines()
               if ": " in line)
    platform_id = bytes.fromhex(out["platform_id"])
    assert out["root_key"] == pcs_server.db.root_public_key.hex()
    # a platform registered through the CLI is known to the running PCS
    chain, crl = pcs_service.fetch_platform(pcs_server.address, platform_id)
    assert pcs_service.identity_from_dict(json.loads(identity.read_text()))[1] == chain
    sequences = [json.loads(db.read_text())["crl_sequence"]]

    assert run_cli("pcs", "revoke", platform_id.hex(), "--pcs", pcs_arg(pcs_server)) == 0
    _, revoked = pcs_service.fetch_platform(pcs_server.address, platform_id)
    assert platform_id in revoked.revoked and revoked.sequence > crl.sequence
    assert capsys.readouterr().out == f"revoked; CRL sequence now {revoked.sequence}\n"
    sequences.append(json.loads(db.read_text())["crl_sequence"])

    # the server's next save keeps the revocation
    pcs_service.register_platform(pcs_server.address, tcb_level=1)
    data = json.loads(db.read_text())
    assert platform_id.hex() in data["revoked"]
    sequences.append(data["crl_sequence"])
    assert sequences == sorted(sequences) == [crl.sequence, revoked.sequence, revoked.sequence]

    assert run_cli("pcs", "revoke", "00" * 16, "--pcs", pcs_arg(pcs_server)) == 3
    assert capsys.readouterr().err == "error: PcsClientError: unknown_platform\n"


def test_pcs_register_rejects_a_tcb_level_outside_u32(pcs_server, tmp_path, capsys):
    db = tmp_path / "pcs.json"
    saved = db.read_bytes()
    for tcb in ("-1", "4294967296"):
        assert run_cli("pcs", "register", "--pcs", pcs_arg(pcs_server), f"--tcb={tcb}") == 3
        assert capsys.readouterr().err == "error: PcsClientError: bad_request\n"
    assert pcs_server.db.platforms == {}
    assert db.read_bytes() == saved


@pytest.mark.parametrize("argv", [["register"], ["revoke", "00" * 16]])
def test_pcs_register_and_revoke_take_no_database(tmp_path, capsys, argv):
    assert main(["pcs", *argv, "--pcs", "127.0.0.1:1", "--db", str(tmp_path / "pcs.json")]) == 3
    assert "unrecognized arguments: --db" in capsys.readouterr().err
    assert not (tmp_path / "pcs.json").exists()


def test_help_still_exits_0(capsys):
    with pytest.raises(SystemExit) as info:
        main(["pfs", "verify", "--help"])
    assert info.value.code == 0
    assert "--key-hex" in capsys.readouterr().out


# -- demo ------------------------------------------------------------------------

def test_demo_cli_exit_codes(tmp_path, capsys):
    assert run_cli("demo", "--workdir", str(tmp_path / "ok")) == 0
    assert run_cli("demo", "--workdir", str(tmp_path / "rev"),
                   "--fault", "revoked_platform") == 1
    assert run_cli("demo", "--workdir", str(tmp_path / "tamper"),
                   "--fault", "tamper_input") == 2


def test_demo_cli_with_config_file(tmp_path, capsys):
    cfg = tmp_path / "demo.cfg"
    cfg.write_text(f"workdir = {tmp_path / 'work'}\nmodel_rows = 2\nseed = 5\n")
    assert run_cli("demo", "--config", str(cfg)) == 0
    report = json.loads((tmp_path / "work" / "demo_report.json").read_text())
    assert report["ok"] is True


def test_demo_with_a_busy_port_exits_3_and_writes_its_report(tmp_path, capsys):
    cfg = tmp_path / "demo.cfg"
    with socket.create_server(("127.0.0.1", 0)) as busy:
        cfg.write_text(f"workdir = {tmp_path / 'work'}\n"
                       f"keyserver_port = {busy.getsockname()[1]}\n")
        assert run_cli("demo", "--config", str(cfg)) == 3
    assert "error: OSError" in capsys.readouterr().err
    report = json.loads((tmp_path / "work" / "demo_report.json").read_text())
    assert (report["ok"], report["failed_step"], report["exit_code"]) == (False, None, 3)
    assert not [t.name for t in threading.enumerate()
                if t.name.startswith(wire.THREAD_PREFIX)]


# -- full CLI deployment across processes -----------------------------------------

def spawn(args):
    return subprocess.Popen([sys.executable, "-u", "-m", "enclavesim.cli"] + args,
                            stdout=subprocess.PIPE, stderr=subprocess.STDOUT,
                            text=True)


def read_port(proc, marker):
    line = proc.stdout.readline()
    assert marker in line, f"unexpected first line: {line!r}"
    tokens = [tok.rstrip(",") for tok in line.split()]
    return [tok for tok in tokens if ":" in tok and tok.rsplit(":")[-1].isdigit()][0]


@pytest.mark.integration
def test_full_cli_deployment(tmp_path, capsys):
    cloud = tmp_path / "cloud"
    (cloud / "app").mkdir(parents=True)
    (cloud / "data").mkdir()

    workload = WorkloadSpec(kind="linear_infer", model_path="/data/model.pfs",
                            input_path="/data/input.csv.pfs",
                            output_path="/data/output.csv.pfs",
                            key_name="pfs-master")
    (cloud / "app" / "workload.json").write_bytes(workload.to_json())

    model = LinearModel(rows=2, cols=2, weights=[[2.0, 0.0], [0.0, 2.0]],
                        bias=[1.0, -1.0])
    (tmp_path / "model.bin").write_bytes(model.pack())
    (tmp_path / "input.csv").write_text("1,2\n3,4\n")

    master_hex = os.urandom(32).hex()
    run_cli("pfs", "encrypt", str(tmp_path / "model.bin"),
            str(cloud / "data" / "model.pfs"),
            "--key-hex", master_hex, "--label", "/data/model.pfs")
    run_cli("pfs", "encrypt", str(tmp_path / "input.csv"),
            str(cloud / "data" / "input.csv.pfs"),
            "--key-hex", master_hex, "--label", "/data/input.csv.pfs")

    template = tmp_path / "app.template"
    template.write_text("""\
app.entrypoint = /app/linear_infer
fs.mount = app:/app
fs.mount = data:/data
sgx.enclave_size = 1M
sgx.max_threads = 1
sgx.trusted_file = /app/workload.json
sgx.protected_file = /data
""")
    final = tmp_path / "final.manifest"
    run_cli("manifest", "sign", str(template), "-o", str(final),
            "--root", str(cloud))
    measurement = capsys.readouterr().out.strip().splitlines()[-1]

    db = tmp_path / "pcs.json"
    identity = tmp_path / "identity.json"
    vault = tmp_path / "vault.pfs"
    pcs_proc = spawn(["pcs", "serve", "--db", str(db), "--listen", "127.0.0.1:0"])
    ks_proc = None
    try:
        pcs_addr = read_port(pcs_proc, "mock PCS serving")
        assert run_cli("pcs", "register", "--pcs", pcs_addr, "--tcb", "2",
                       "--identity-out", str(identity)) == 0
        out = capsys.readouterr().out
        root_hex = [l for l in out.splitlines() if l.startswith("root_key:")][0].split()[-1]

        run_cli("keyserver", "add-secret", "--vault", str(vault),
                "--passphrase", "pw", "--name", "pfs-master",
                "--secret-hex", master_hex, "--root-hex", root_hex,
                "--policy-mrenclave", measurement, "--min-svn", "1", "--min-tcb", "1")

        pin_file = tmp_path / "pin.txt"
        ks_proc = spawn(["keyserver", "serve", "--vault", str(vault),
                         "--passphrase", "pw", "--listen", "127.0.0.1:0",
                         "--pcs", pcs_addr, "--root-hex", root_hex,
                         "--min-svn", "1", "--min-tcb", "1",
                         "--pin-out", str(pin_file)])
        ks_addr = read_port(ks_proc, "key server on")

        code = run_cli("enclave", "run", "--manifest", str(final),
                       "--root", str(cloud), "--identity", str(identity),
                       "--keyserver", ks_addr, "--pin-file", str(pin_file))
        assert code == 0

        run_cli("pfs", "decrypt", str(cloud / "data" / "output.csv.pfs"),
                str(tmp_path / "output.csv"), "--key-hex", master_hex,
                "--label", "/data/output.csv.pfs")
        rows = parse_rows((tmp_path / "output.csv").read_text(), 2)
        assert rows == [[3.0, 3.0], [7.0, 7.0]]

        # negative: tamper the uploaded input, rerun -> integrity exit code
        target = cloud / "data" / "input.csv.pfs"
        raw = bytearray(target.read_bytes())
        raw[1000] ^= 0x01
        target.write_bytes(bytes(raw))
        code = run_cli("enclave", "run", "--manifest", str(final),
                       "--root", str(cloud), "--identity", str(identity),
                       "--keyserver", ks_addr, "--pin-file", str(pin_file))
        assert code == 2

        # negative: a revocation at the running PCS reaches the key server
        platform_id = json.loads(identity.read_text())["platform"]["platform_id"]
        assert run_cli("pcs", "revoke", platform_id, "--pcs", pcs_addr) == 0
        code = run_cli("enclave", "run", "--manifest", str(final),
                       "--root", str(cloud), "--identity", str(identity),
                       "--keyserver", ks_addr, "--pin-file", str(pin_file))
        assert code == 1
    finally:
        procs = [p for p in (pcs_proc, ks_proc) if p is not None]
        for proc in procs:
            proc.terminate()
        for proc in procs:
            proc.wait(timeout=10)
            proc.stdout.close()


def test_enclave_start_cli(tmp_path, capsys):
    cloud = tmp_path / "cloud"
    (cloud / "app").mkdir(parents=True)
    (cloud / "app" / "config").write_bytes(b"x = 1\n")
    template = tmp_path / "t.template"
    template.write_text(TEMPLATE)
    final = tmp_path / "final.manifest"
    run_cli("manifest", "sign", str(template), "-o", str(final), "--root", str(cloud))
    measurement = capsys.readouterr().out.strip()
    assert run_cli("enclave", "start", "--manifest", str(final),
                   "--root", str(cloud)) == 0
    assert measurement in capsys.readouterr().out

    (cloud / "app" / "config").write_bytes(b"x = 2\n")
    assert run_cli("enclave", "start", "--manifest", str(final),
                   "--root", str(cloud)) == 2


# -- failure policy ----------------------------------------------------------------

def cli_process(*argv):
    return subprocess.run([sys.executable, "-m", "enclavesim.cli", *map(str, argv)],
                          capture_output=True, text=True, timeout=120)


def enclave_run_args(tmp_path, **overrides):
    """`enclave run` arguments for a signed deployment with a platform
    registered at a PCS that is stopped again; no key server is listening
    at the default address."""
    cloud = tmp_path / "cloud"
    (cloud / "app").mkdir(parents=True)
    (cloud / "data").mkdir()
    (cloud / "app" / "workload.json").write_bytes(WorkloadSpec(
        kind="linear_infer", model_path=workflow.MODEL_PATH,
        input_path=workflow.INPUT_PATH, output_path=workflow.OUTPUT_PATH,
        key_name=workflow.SECRET_NAME).to_json())
    template = tmp_path / "app.template"
    template.write_text(workflow.TEMPLATE_TEXT)
    final = tmp_path / "final.manifest"
    identity = tmp_path / "identity.json"
    pin = tmp_path / "pin.txt"
    pin.write_text("ab" * 32 + "\n")
    assert run_cli("manifest", "sign", str(template), "-o", str(final),
                   "--root", str(cloud)) == 0
    pcs = PcsServer(PcsDatabase.create(now=int(time.time()))).start()
    try:
        assert run_cli("pcs", "register", "--pcs", pcs_arg(pcs),
                       "--identity-out", str(identity)) == 0
    finally:
        pcs.stop()
    args = {"--manifest": final, "--root": cloud, "--identity": identity,
            "--keyserver": "127.0.0.1:1", "--pin-file": pin, **overrides}
    return ["enclave", "run"] + [str(x) for kv in args.items() for x in kv]


def manifest_sign_missing_trusted_file(tmp_path):
    template = tmp_path / "app.template"
    template.write_text(TEMPLATE)  # /app/config does not exist
    return ["manifest", "sign", template, "-o", tmp_path / "final.manifest"]


def pcs_serve_corrupt_db(tmp_path):
    (tmp_path / "pcs.json").write_text("{not json")
    return ["pcs", "serve", "--db", tmp_path / "pcs.json"]


def pcs_register_no_pcs_listening(tmp_path):
    return ["pcs", "register", "--pcs", "127.0.0.1:1"]


def demo_config_bad_int(tmp_path):
    (tmp_path / "demo.cfg").write_text("seed = x\n")
    return ["demo", "--config", tmp_path / "demo.cfg", "--workdir", tmp_path / "w"]


def enclave_run_keyserver_refused(tmp_path):
    return enclave_run_args(tmp_path)


def enclave_run_workload_outside_mounts(tmp_path):
    return enclave_run_args(tmp_path, **{"--workload": "/etc/passwd"})


def enclave_run_pin_not_hex(tmp_path):
    (tmp_path / "bad-pin.txt").write_text("not hex\n")
    return enclave_run_args(tmp_path, **{"--pin-file": tmp_path / "bad-pin.txt"})


def usage_pcs_register_unknown_option(tmp_path):
    return ["pcs", "register", "--pcs", "127.0.0.1:1", "--db", tmp_path / "pcs.json"]


def usage_demo_fault_not_a_choice(tmp_path):
    return ["demo", "--fault", "bogus", "--workdir", tmp_path / "w"]


def usage_pcs_register_tcb_not_int(tmp_path):
    return ["pcs", "register", "--tcb", "x"]


def usage_pfs_verify_no_arguments(tmp_path):
    return ["pfs", "verify"]


@pytest.mark.parametrize("scenario", [
    manifest_sign_missing_trusted_file,
    pcs_serve_corrupt_db,
    pcs_register_no_pcs_listening,
    demo_config_bad_int,
    enclave_run_keyserver_refused,
    enclave_run_workload_outside_mounts,
    enclave_run_pin_not_hex,
    usage_pcs_register_unknown_option,
    usage_demo_fault_not_a_choice,
    usage_pcs_register_tcb_not_int,
    usage_pfs_verify_no_arguments,
], ids=lambda f: f.__name__)
def test_unexpected_failure_is_one_error_line_exit_3(tmp_path, scenario):
    result = cli_process(*scenario(tmp_path))
    assert result.returncode == 3, result.stderr
    assert "Traceback" not in result.stderr
    lines = result.stderr.splitlines()
    assert len(lines) == 1 and lines[0].startswith("error: "), result.stderr


def serve_argv(tmp_path, kind):
    if kind == "pcs":
        return ["pcs", "serve", "--db", str(tmp_path / "pcs.json")]
    vault = tmp_path / "vault.pfs"
    assert run_cli("keyserver", "add-secret", "--vault", str(vault),
                   "--passphrase", "pw", "--name", "k", "--secret-hex", KEY_HEX,
                   "--root-hex", KEY_HEX, "--policy-mrenclave", "11" * 32) == 0
    return ["keyserver", "serve", "--vault", str(vault), "--passphrase", "pw",
            "--pcs", "127.0.0.1:1", "--root-hex", KEY_HEX]


@pytest.mark.parametrize("kind", ["pcs", "keyserver"])
def test_sigint_during_serve_banner_stops_cleanly(tmp_path, monkeypatch, kind):
    argv = serve_argv(tmp_path, kind)
    started = []
    original_start = wire.FrameServer.start

    def recording_start(server):
        started.append(server)
        return original_start(server)

    def interrupted_print(*args, **kwargs):
        raise KeyboardInterrupt

    monkeypatch.setattr(wire.FrameServer, "start", recording_start)
    monkeypatch.setattr(cli, "print", interrupted_print, raising=False)
    try:
        code = main(argv)
    except KeyboardInterrupt:
        pytest.fail("a SIGINT during the banner escaped the serve loop")
    assert code == 0
    assert len(started) == 1
    assert started[0]._listener.fileno() == -1


def test_pcs_serve_saves_a_new_database_before_it_serves(tmp_path, monkeypatch):
    db = tmp_path / "pcs.json"
    exists_at_start = []
    original_start = wire.FrameServer.start

    def recording_start(server):
        exists_at_start.append(db.exists())
        return original_start(server)

    def interrupted_print(*args, **kwargs):
        raise KeyboardInterrupt

    monkeypatch.setattr(wire.FrameServer, "start", recording_start)
    monkeypatch.setattr(cli, "print", interrupted_print, raising=False)
    assert main(["pcs", "serve", "--db", str(db)]) == 0
    created = db.read_bytes()
    assert main(["pcs", "serve", "--db", str(db)]) == 0
    assert exists_at_start == [True, True]
    assert db.read_bytes() == created
