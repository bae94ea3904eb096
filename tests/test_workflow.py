import json

import pytest

from enclavesim import pcs_service, pfs
from enclavesim.channel import HandshakeError
from enclavesim.enclave import RunError, StartError
from enclavesim.manifest import ParseError
from enclavesim.provisioning import ProvisionDeniedError
from enclavesim.workflow import DemoConfig, exit_code, parse_config, scan_for_leaks, workflow_demo


def quiet(*args, **kwargs):
    pass


def run_demo(tmp_path, fault="none", **kw):
    config = DemoConfig(workdir=str(tmp_path / f"demo-{fault}"), fault=fault, **kw)
    return workflow_demo(config, log=quiet)


def test_happy_path_all_eight_steps(tmp_path):
    report = run_demo(tmp_path)
    assert [s.number for s in report.steps] == list(range(1, 9))
    assert all(s.ok for s in report.steps)
    assert report.output_match is True
    assert report.leaked_paths == []
    assert report.ok and report.exit_code == 0
    assert report.failed_step is None


def test_step_trace_in_figure_order(tmp_path):
    report = run_demo(tmp_path)
    numbers = [s.number for s in report.steps]
    assert numbers == sorted(numbers)


def test_report_written_as_json(tmp_path):
    report = run_demo(tmp_path)
    data = json.loads((tmp_path / "demo-none" / "demo_report.json").read_text())
    assert data["ok"] is True
    assert len(data["steps"]) == 8
    assert data["decrypted_sha256"] == report.decrypted_sha256


def test_revoked_platform_fails_at_step_4(tmp_path):
    report = run_demo(tmp_path, fault="revoked_platform")
    assert report.failed_step == 4
    assert report.exit_code == 1
    assert not report.ok
    assert "revoked" in report.steps[-1].detail
    # steps after the failure never ran
    assert [s.number for s in report.steps] == [1, 2, 3, 4]


def test_tampered_input_fails_at_step_6(tmp_path):
    report = run_demo(tmp_path, fault="tamper_input")
    assert report.failed_step == 6
    assert report.exit_code == 2
    assert [s.number for s in report.steps] == [1, 2, 3, 4, 5, 6]
    assert "integrity" in report.steps[-1].detail


def test_wrong_manifest_fails_at_step_5(tmp_path):
    report = run_demo(tmp_path, fault="wrong_manifest")
    assert report.failed_step == 5
    assert report.exit_code == 1
    assert [s.number for s in report.steps] == [1, 2, 3, 4, 5]
    assert "policy_mismatch" in report.steps[-1].detail


def test_no_plaintext_outside_user_dir(tmp_path):
    report = run_demo(tmp_path)
    assert report.leaked_paths == []
    # the cloud side holds only containers and deployment metadata
    cloud = tmp_path / "demo-none" / "cloud"
    names = sorted(p.name for p in (cloud / "data").iterdir())
    assert names == ["input.csv.pfs", "model.pfs", "output.csv.pfs"]


def test_leak_scan_skips_the_user_directory_and_nothing_else(tmp_path):
    marker = b"plaintext marker"
    for name in ("user/a", "user/sub/b", "user2/f", "cloud/g"):
        path = tmp_path / name
        path.parent.mkdir(parents=True, exist_ok=True)
        path.write_bytes(b"<" + marker + b">")
    assert scan_for_leaks(tmp_path, tmp_path / "user", [marker]) == ["cloud/g", "user2/f"]


def test_the_key_server_fetches_each_crl_from_the_pcs(tmp_path, monkeypatch):
    fetched, pools, fetch = [], set(), pcs_service.fetch_platform

    def recorded(addr, platform_id, pool=None):
        fetched.append(platform_id)
        if pool is not None:
            pools.add(pool)
        return fetch(addr, platform_id, pool)

    monkeypatch.setattr(pcs_service, "fetch_platform", recorded)
    assert run_demo(tmp_path).ok
    # step 1, then the key server at the handshake and at the provision request
    assert len(fetched) == 3 and len(set(fetched)) == 1
    # the key server's two fetches share one connection from its pool
    (pool,) = pools
    assert pool.stats() == {"connected": 1, "reused": 1, "retried": 0}


def test_output_matches_reference_bitwise(tmp_path):
    report = run_demo(tmp_path, seed=99, model_rows=3, model_cols=5, input_rows=10)
    assert report.output_match is True


def test_parse_config_roundtrip():
    config = parse_config("""
# demo settings
fault = tamper_input
model_rows = 6
model_cols = 2
seed = 123
""")
    assert config.fault == "tamper_input"
    assert config.model_rows == 6
    assert config.model_cols == 2
    assert config.seed == 123
    assert config.host == "127.0.0.1"


def test_parse_config_rejects_unknown_keys():
    with pytest.raises(ValueError, match="unknown config keys"):
        parse_config("bogus = 1\n")


def test_parse_config_rejects_a_duplicate_key_with_its_line_number():
    with pytest.raises(ParseError, match="line 3: duplicate config key 'seed'"):
        parse_config("seed = 1\n# again\nseed = 2\n")


def test_audit_log_written_on_user_side(tmp_path):
    run_demo(tmp_path)
    audit = (tmp_path / "demo-none" / "user" / "audit.jsonl").read_text().strip()
    entries = [json.loads(line) for line in audit.splitlines()]
    assert any(e["outcome"] == "granted" and e["secret_name"] == "pfs-master"
               for e in entries)


def test_step_durations_in_report(tmp_path):
    run_demo(tmp_path)
    data = json.loads((tmp_path / "demo-none" / "demo_report.json").read_text())
    assert len(data["steps"]) == 8
    for step in data["steps"]:
        assert isinstance(step["duration_ms"], float) and step["duration_ms"] >= 0


def test_failed_step_carries_its_duration(tmp_path):
    run_demo(tmp_path, fault="tamper_input")
    data = json.loads((tmp_path / "demo-tamper_input" / "demo_report.json").read_text())
    assert [s["number"] for s in data["steps"]] == [1, 2, 3, 4, 5, 6]
    failed = data["steps"][-1]
    assert failed["ok"] is False
    assert isinstance(failed["duration_ms"], float) and failed["duration_ms"] >= 0


@pytest.mark.parametrize("exc, code", [
    (HandshakeError("attestation_failed", "revoked"), 1),
    (HandshakeError("binding_mismatch"), 1),
    (ProvisionDeniedError("policy_mismatch"), 1),
    (ProvisionDeniedError("unknown_secret"), 1),
    (pfs.IntegrityError("bad node"), 2),
    (pfs.WrongKeyError("header did not authenticate"), 2),
    (StartError("trusted_file_mismatch", "/app/workload.json"), 2),
    (RunError("integrity", "/data/input.csv.pfs"), 2),
    (HandshakeError("io"), 3),
    (HandshakeError("bad_finished"), 3),
    (HandshakeError("peer_auth_failed"), 3),
    (StartError("missing_mount", "/data"), 3),
    (RunError("key_missing", "pfs-master"), 3),
    (RunError("io", "/data/output.csv.pfs"), 3),
    (pfs.PfsError("not a container"), 3),
    (OSError("connection refused"), 3),
    (ValueError("bad hex"), 3),
], ids=repr)
def test_exit_code_policy(exc, code):
    assert exit_code(exc) == code
