import gc
import json
import os
import re
import signal
import socket
import subprocess
import sys
import threading
import time

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from enclavesim import cli, manifest, pcs_service, wire, workflow
from enclavesim.attestation import PcsDatabase
from enclavesim.cli import main
from enclavesim.enclave import LinearModel, WorkloadSpec, parse_rows
from enclavesim.pcs_service import PcsServer
from enclavesim.pfs import format as fmt

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


@pytest.mark.parametrize("version", [1, 2, 3])
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


def test_pfs_encrypt_over_an_older_container(tmp_path, capsys):
    enc, dec = tmp_path / "a.pfs", tmp_path / "a.out"
    for size in (300 << 10, 10, 0):  # each one shorter than the container it replaces
        src = tmp_path / f"{size}.bin"
        src.write_bytes(os.urandom(size))
        assert run_cli("pfs", "encrypt", str(src), str(enc), "--key-hex", KEY_HEX,
                       "--label", "a.bin") == 0
        capsys.readouterr()
        assert run_cli("pfs", "info", str(enc), "--key-hex", KEY_HEX) == 0
        out = capsys.readouterr().out
        fields = dict(line.split(": ", 1) for line in out.strip().splitlines())
        assert int(fields["disk_size"]) == fmt.container_disk_size(fmt.data_block_count(size))
        assert run_cli("pfs", "verify", str(enc), "--key-hex", KEY_HEX) == 0
        assert run_cli("pfs", "decrypt", str(enc), str(dec), "--key-hex", KEY_HEX,
                       "--label", "a.bin") == 0
        assert dec.read_bytes() == src.read_bytes()


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
    assert pcs_service.load_identity(identity)[1] == chain
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
        # the client's encoder refuses it before anything is sent
        assert capsys.readouterr().err == (
            f"error: ValueError: tcb_level: expected an integer in 0..2**32-1, got {tcb}\n")
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


def demo_config_no_model_columns(tmp_path):
    (tmp_path / "demo.cfg").write_text("model_cols = 0\n")
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
    demo_config_no_model_columns,
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


SERVE_BANNERS = {"pcs": "mock PCS serving on", "keyserver": "key server on"}


@pytest.mark.parametrize("signum", [signal.SIGINT, signal.SIGTERM], ids=["INT", "TERM"])
@pytest.mark.parametrize("kind", ["pcs", "keyserver"])
def test_sigint_and_sigterm_stop_a_server_process_with_exit_0(tmp_path, kind, signum):
    proc = subprocess.Popen([sys.executable, "-u", "-m", "enclavesim.cli",
                             *serve_argv(tmp_path, kind)],
                            stdout=subprocess.PIPE, stderr=subprocess.PIPE, text=True)
    watchdog = threading.Timer(60, proc.kill)  # a server that never answers fails, not hangs
    watchdog.start()
    try:
        assert proc.stdout.readline().startswith(SERVE_BANNERS[kind])
        proc.send_signal(signum)
        out, err = proc.communicate()
        assert (proc.returncode, out, err) == (0, "", "")
    finally:
        watchdog.cancel()
        proc.kill()
        proc.communicate()


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


def test_pcs_serve_refuses_a_registry_file_in_the_old_layout(tmp_path):
    """A pcs.json that stores each platform's whole chain and both key
    pairs is refused with exit 3 and left as it was; no converter exists."""
    old_layout = os.path.join(os.path.dirname(__file__), "fixtures", "pcs_old_layout.json")
    with open(old_layout, "rb") as fh:
        old = fh.read()
    db = tmp_path / "pcs.json"
    db.write_bytes(old)
    proc = subprocess.run([sys.executable, "-m", "enclavesim.cli", "pcs", "serve", "--db", str(db),
                           "--listen", "127.0.0.1:0"], capture_output=True, text=True, timeout=60)
    assert proc.returncode == 3, proc.stdout + proc.stderr
    assert "unknown keys ['ca_cert', 'root_cert']" in proc.stderr
    assert proc.stdout == ""
    assert db.read_bytes() == old


ADD_SECRET = ["keyserver", "add-secret", "--passphrase", "pw", "--secret-hex", KEY_HEX,
              "--root-hex", KEY_HEX]


@pytest.mark.parametrize("flag,value", [
    ("--policy-mrenclave", "abcd"), ("--policy-mrsigner", "00" * 33),
    ("--min-svn", "-5"), ("--min-tcb", "99999999999")])
def test_add_secret_refuses_a_policy_that_can_never_match(tmp_path, capsys, flag, value):
    vault = tmp_path / "vault.pfs"
    assert run_cli(*ADD_SECRET, "--vault", str(vault), "--name", "k",
                   "--policy-mrenclave", "11" * 32) == 0
    before = vault.read_bytes()
    pinned = [] if flag == "--policy-mrenclave" else ["--policy-mrenclave", "11" * 32]
    capsys.readouterr()
    assert run_cli(*ADD_SECRET, "--vault", str(vault), "--name", "k2", *pinned,
                   flag, value) == 3
    assert capsys.readouterr().err.startswith("error: ValueError: ")
    assert vault.read_bytes() == before


def test_concurrent_add_secrets_keep_every_secret(tmp_path, capsys, monkeypatch):
    """The first adder pauses after its load until the second has loaded
    too, or 0.5 s has passed: no adder saves over the other's secret."""
    from enclavesim import provisioning
    vault = tmp_path / "vault.pfs"
    add_secret = [*ADD_SECRET, "--vault", str(vault), "--policy-mrenclave", "11" * 32]
    assert run_cli(*add_secret, "--name", "base") == 0
    loads, first_loaded, second_loaded = [], threading.Event(), threading.Event()
    load = provisioning.vault_load

    def paused_load(path, passphrase):
        loaded = load(path, passphrase)
        loads.append(path)
        if len(loads) == 1:
            first_loaded.set()
            second_loaded.wait(0.5)
        else:
            second_loaded.set()
        return loaded

    monkeypatch.setattr(provisioning, "vault_load", paused_load)
    codes = {}

    def add(name):
        codes[name] = run_cli(*add_secret, "--name", name)

    first = threading.Thread(target=add, args=("first",))
    second = threading.Thread(target=add, args=("second",))
    first.start()
    assert first_loaded.wait(10)
    second.start()
    first.join(10)
    second.join(10)
    assert codes == {"first": 0, "second": 0}
    assert load(vault, "pw").names() == ["base", "first", "second"]


@pytest.mark.parametrize("flag,value", [("--min-svn", "-5"), ("--min-tcb", "4294967296")])
def test_keyserver_serve_refuses_a_session_minimum_outside_u32(tmp_path, capsys,
                                                                monkeypatch, flag, value):
    vault = tmp_path / "vault.pfs"
    assert run_cli(*ADD_SECRET, "--vault", str(vault), "--name", "k",
                   "--policy-mrenclave", "11" * 32) == 0
    monkeypatch.setattr(cli, "_serve", lambda *args: pytest.fail("the server started"))
    capsys.readouterr()
    assert run_cli("keyserver", "serve", "--vault", str(vault), "--passphrase", "pw",
                   "--pcs", "127.0.0.1:1", "--root-hex", KEY_HEX, flag, value) == 3
    assert capsys.readouterr().err.startswith("error: ValueError: ")


@pytest.mark.parametrize("kind,flag", [("pcs", "--db"), ("keyserver", "--pin-out"),
                                       ("keyserver", "--audit")])
def test_a_serve_command_that_fails_before_serving_leaves_no_listener(tmp_path, capsys,
                                                                       monkeypatch, kind, flag):
    argv = ["pcs", "serve"] if kind == "pcs" else serve_argv(tmp_path, kind)
    created = []
    original_init = wire.FrameServer.__init__

    def recording_init(server, *args, **kwargs):
        original_init(server, *args, **kwargs)
        created.append(server)

    monkeypatch.setattr(wire.FrameServer, "__init__", recording_init)
    monkeypatch.setattr(cli, "_serve", lambda *args: pytest.fail("the server started"))
    capsys.readouterr()
    assert main(argv + [flag, str(tmp_path / "missing" / "file")]) == 3
    out, err = capsys.readouterr()
    assert out == ""
    assert len(err.splitlines()) == 1 and err.startswith("error: FileNotFoundError: ")
    # the audit file is opened before the port is bound
    assert len(created) == (0 if flag == "--audit" else 1)
    assert all(server._listener.fileno() == -1 for server in created)
    gc.collect()  # an unclosed socket warns here, and the warning is an error


@pytest.mark.parametrize("port", ["65536", "70000"])
@pytest.mark.parametrize("kind,flag", [("pcs", "--listen"), ("keyserver", "--listen"),
                                       ("keyserver", "--pcs"), ("register", "--pcs")])
def test_a_port_outside_0_to_65535_is_a_usage_error(tmp_path, capsys, monkeypatch,
                                                    kind, flag, port):
    argv = ["pcs", "register"] if kind == "register" else serve_argv(tmp_path, kind)
    monkeypatch.setattr(cli, "_serve", lambda *args: pytest.fail("the server started"))
    capsys.readouterr()
    assert main(argv + [flag, f"127.0.0.1:{port}"]) == 3
    assert capsys.readouterr().err.splitlines() == [
        f"error: port of '127.0.0.1:{port}': {port} is outside 0..65535"]


# -- cold start: each command imports only its subsystem ---------------------------

# runs `cli.main` on its arguments with `_serve` stubbed, then prints the
# exit code and the loaded modules as its last line
IMPORT_PROBE = """\
import json, sys
from enclavesim import cli
cli._serve = lambda server, banner: 0
code = cli.main(sys.argv[1:])
print(json.dumps([code, sorted(sys.modules)]))
"""

# imported at the first inference and the first input parse
LAZY = {"numpy", "orjson"}
# command: the modules it must not load
NOT_LOADED = {
    "pcs serve": {*LAZY, *(f"enclavesim.{name}" for name in (
        "pfs", "channel", "provisioning", "manifest", "enclave", "workflow"))},
    "keyserver serve": {*LAZY, *(f"enclavesim.{name}" for name in (
        "manifest", "enclave", "workflow"))},
    "pfs encrypt": {f"enclavesim.{name}" for name in (
        "channel", "provisioning", "pcs_service", "manifest", "enclave", "workflow")},
    "enclave start": {*LAZY, *(f"enclavesim.{name}" for name in (
        "channel", "provisioning", "pcs_service", "workflow"))},
    # a failing command loads no more than it ran to find its exit code
    "pcs register --pcs 127.0.0.1:1": {*LAZY, *(f"enclavesim.{name}" for name in (
        "pfs", "channel", "provisioning", "manifest", "enclave", "workflow"))},
    "pcs register --pcs 127.0.0.1:1 --tcb x": {*LAZY, *(f"enclavesim.{name}" for name in (
        "crypto", "attestation", "pcs_service", "pfs", "channel", "provisioning", "manifest",
        "enclave", "workflow"))},
}
FAILING = {"pcs register --pcs 127.0.0.1:1": 3, "pcs register --pcs 127.0.0.1:1 --tcb x": 3}


def _import_probe_argv(tmp_path, command):
    if command in FAILING:
        return command.split()
    if command == "pcs serve":
        return serve_argv(tmp_path, "pcs")
    if command == "keyserver serve":
        return serve_argv(tmp_path, "keyserver")
    if command == "enclave start":
        template = make_template_dir(tmp_path)
        assert run_cli("manifest", "sign", str(template), "-o", str(tmp_path / "final"),
                       "--root", str(tmp_path)) == 0
        return ["enclave", "start", "--manifest", str(tmp_path / "final"),
                "--root", str(tmp_path)]
    (tmp_path / "plain").write_bytes(b"x" * 5000)
    return ["pfs", "encrypt", str(tmp_path / "plain"), str(tmp_path / "plain.pfs"),
            "--key-hex", KEY_HEX, "--label", "plain"]


@pytest.mark.parametrize("command", sorted(NOT_LOADED))
def test_a_command_imports_only_its_subsystem(tmp_path, command):
    argv = _import_probe_argv(tmp_path, command)
    result = subprocess.run([sys.executable, "-c", IMPORT_PROBE, *argv],
                            capture_output=True, text=True, timeout=120)
    assert result.returncode == 0, result.stderr
    code, modules = json.loads(result.stdout.splitlines()[-1])
    assert code == FAILING.get(command, 0), result.stderr
    assert "enclavesim.cli" in modules
    assert sorted(NOT_LOADED[command] & set(modules)) == []


def test_demo_help_names_every_fault(capsys):
    with pytest.raises(SystemExit) as info:
        main(["demo", "--help"])
    assert info.value.code == 0
    words = set(re.findall(r"\w+", capsys.readouterr().out))
    assert [fault for fault in workflow.FAULTS if fault not in words] == []


# hex that `bytes.fromhex` reads, but that no record holds
SPELLINGS = {"upper": str.upper,
             "spaced": lambda text: " ".join(text[i:i + 2] for i in range(0, len(text), 2)),
             "AB CD": lambda text: "AB CD"}
MR = "ab" * 32


@pytest.mark.parametrize("spelling", SPELLINGS)
@pytest.mark.parametrize("flag", ["--secret-hex", "--root-hex", "--policy-mrenclave",
                                  "--policy-mrsigner"])
def test_add_secret_refuses_hex_that_is_not_lower_case(tmp_path, capsys, flag, spelling):
    vault = tmp_path / "vault.pfs"
    assert run_cli(*ADD_SECRET, "--vault", str(vault), "--name", "k",
                   "--policy-mrenclave", MR) == 0
    before = vault.read_bytes()
    args = {"--secret-hex": KEY_HEX, "--root-hex": KEY_HEX, "--policy-mrenclave": MR,
            "--policy-mrsigner": MR}
    args[flag] = SPELLINGS[spelling](args[flag])
    capsys.readouterr()
    assert run_cli("keyserver", "add-secret", "--vault", str(vault), "--passphrase", "pw",
                   "--name", "k2", *[x for kv in args.items() for x in kv]) == 3
    assert capsys.readouterr().err.startswith("error: ValueError: ")
    assert vault.read_bytes() == before


@pytest.mark.parametrize("spelling", SPELLINGS)
@pytest.mark.parametrize("command", ["encrypt", "decrypt", "verify", "info"])
def test_pfs_commands_refuse_a_key_that_is_not_lower_case_hex(tmp_path, capsys, command,
                                                              spelling):
    plain, container = tmp_path / "plain", tmp_path / "container"
    plain.write_bytes(b"x" * 100)
    assert run_cli("pfs", "encrypt", str(plain), str(container), "--key-hex", KEY_HEX,
                   "--label", "l") == 0
    files = {"encrypt": [plain, tmp_path / "out"], "decrypt": [container, tmp_path / "out"],
             "verify": [container], "info": [container]}[command]
    labels = ["--label", "l"] if command in ("encrypt", "decrypt") else []
    capsys.readouterr()
    assert run_cli("pfs", command, *map(str, files), "--key-hex", SPELLINGS[spelling](KEY_HEX),
                   *labels) == 3
    out, err = capsys.readouterr()
    assert out == "" and err.startswith("error: ValueError: ")
    assert not (tmp_path / "out").exists()


@pytest.mark.parametrize("spelling", SPELLINGS)
@pytest.mark.parametrize("flag", ["--root-hex", "--signing-key-hex"])
def test_keyserver_serve_refuses_hex_that_is_not_lower_case(tmp_path, capsys, monkeypatch,
                                                            flag, spelling):
    argv = serve_argv(tmp_path, "keyserver")
    monkeypatch.setattr(cli, "_serve", lambda *args: pytest.fail("the server started"))
    capsys.readouterr()
    assert main(argv + [flag, SPELLINGS[spelling](MR)]) == 3
    assert capsys.readouterr().err.startswith("error: ValueError: ")


@pytest.mark.parametrize("spelling", SPELLINGS)
def test_pcs_revoke_refuses_a_platform_id_that_is_not_lower_case_hex(pcs_server, capsys,
                                                                      spelling):
    platform, _ = pcs_service.register_platform(pcs_server.address, tcb_level=1)
    sequence = pcs_server.db.current_crl().sequence
    capsys.readouterr()
    assert run_cli("pcs", "revoke", SPELLINGS[spelling](platform.platform_id.hex()),
                   "--pcs", pcs_arg(pcs_server)) == 3
    assert capsys.readouterr().err.startswith("error: ValueError: ")
    assert pcs_server.db.current_crl().sequence == sequence


@pytest.mark.parametrize("spelling", SPELLINGS)
def test_enclave_run_refuses_a_pin_that_is_not_lower_case_hex(tmp_path, capsys, spelling):
    pin = tmp_path / "spelled-pin.txt"
    pin.write_text(SPELLINGS[spelling](MR) + "\n")
    argv = enclave_run_args(tmp_path, **{"--pin-file": pin})
    capsys.readouterr()
    assert run_cli(*argv) == 3
    assert capsys.readouterr().err.startswith("error: ValueError: ")


# -- integers have one spelling ------------------------------------------------------

# each a way int() would read str(n) that is not str(n)
RESPELLINGS = {
    "sign": lambda text, digits: "+" + text,
    "leading zero": lambda text, digits: "0" + text,
    "underscore": lambda text, digits: text[0] + "_" + text[1:] if text[1:] else "0_" + text,
    "space": lambda text, digits: text + " ",
    "non-ASCII digits": lambda text, digits: text.translate(
        {ord("0") + d: digits + d for d in range(10)}),
}
# zeros of the Arabic-Indic, Extended Arabic-Indic, Devanagari and fullwidth digits
NON_ASCII_ZEROS = [0x660, 0x6F0, 0x966, 0xFF10]


def _template_with(**values):
    lines = {"sgx.enclave_size": "1M", "sgx.max_threads": "1", **values}
    return manifest.parse_template("app.entrypoint = /app/run\n" + "".join(
        f"{key} = {value}\n" for key, value in lines.items()))


def _loaded_version(text):
    """The format version of a final manifest that states `text`, once load
    accepts it: load refuses every version but FORMAT_VERSION."""
    data = manifest.serialize(manifest.sign_manifest(_template_with(), lambda path: b""))
    manifest.load(data.replace(b"manifest.format_version = 1\n",
                               f"manifest.format_version = {text}\n".encode()))
    return manifest.FORMAT_VERSION


def _cli_option(command, option, required):
    def parse(text):
        args = cli.build_parser().parse_args([*command, *required, option, text])
        return getattr(args, option.lstrip("-").replace("-", "_"))
    return parse


KS_ARGS = ["--vault", "v", "--passphrase", "p"]
ADD_ARGS = KS_ARGS + ["--name", "n", "--secret-hex", "00", "--root-hex", "00"]
SERVE_ARGS = KS_ARGS + ["--pcs", "h:1", "--root-hex", "00"]
# site: (read text as the integer it spells, or raise; the values it accepts)
INTEGER_SITES = {
    "sgx.enclave_size": (lambda text: _template_with(**{"sgx.enclave_size": text + "M"})
                         .enclave_size >> 20, st.integers(0, 12).map(lambda k: 1 << k)),
    "sgx.max_threads": (lambda text: _template_with(**{"sgx.max_threads": text})
                        .max_threads, st.integers(1, 10 ** 6)),
    "manifest.format_version": (_loaded_version, st.just(manifest.FORMAT_VERSION)),
    "demo config": (lambda text: workflow.parse_config(f"seed = {text}\n").seed,
                    st.integers(0, 2 ** 64)),
    "host:port": (lambda text: cli._addr("127.0.0.1:" + text)[1], st.integers(0, 65535)),
    "pcs register --tcb": (_cli_option(["pcs", "register"], "--tcb", ["--pcs", "h:1"]),
                           st.integers(0, 2 ** 32 - 1)),
    **{f"keyserver {cmd} {opt}": (_cli_option(["keyserver", cmd], opt, required),
                                  st.integers(0, 2 ** 32 - 1))
       for cmd, required in (("serve", SERVE_ARGS), ("add-secret", ADD_ARGS))
       for opt in ("--min-svn", "--min-tcb")},
}
# `key = value` lines drop the spaces around a value, so there a trailing space
# is part of the line syntax, not of the integer; the size keeps it before its suffix
LINE_SITES = {"sgx.max_threads", "manifest.format_version", "demo config"}


@pytest.mark.parametrize("site,respelling", [
    (site, respelling) for site in sorted(INTEGER_SITES) for respelling in sorted(RESPELLINGS)
    if not (respelling == "space" and site in LINE_SITES)])
@settings(max_examples=10, deadline=None)
@given(digits=st.sampled_from(NON_ASCII_ZEROS), data=st.data())
def test_every_integer_a_user_writes_has_one_spelling(site, respelling, digits, data):
    read, values = INTEGER_SITES[site]
    n = data.draw(values)
    assert read(str(n)) == n
    text = RESPELLINGS[respelling](str(n), digits)
    assert int(text.replace("_", "")) == n  # a spelling that int() takes
    with pytest.raises((manifest.ParseError, cli.CliError)) as info:
        read(text)
    # a file's error names its line; the CLI's is a usage error
    if site in LINE_SITES or site == "sgx.enclave_size":
        assert isinstance(info.value, manifest.ParseError) and info.value.line is not None
    else:
        assert isinstance(info.value, cli.CliError)


def test_a_respelled_cli_integer_is_a_usage_error(capsys):
    capsys.readouterr()
    assert main(["pcs", "register", "--pcs", "127.0.0.1:1", "--tcb", "0" + "1"]) == 3
    assert main(["pcs", "register", "--pcs", "127.0.0.1:\u0661"]) == 3
    assert capsys.readouterr().err.splitlines() == [
        "error: argument --tcb: invalid decimal value: '01'",
        "error: port of '127.0.0.1:\u0661': expected an integer written as str(n), got '\u0661'"]
