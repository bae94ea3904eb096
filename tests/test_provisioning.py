import json
import random
import socket
import threading
import time
from contextlib import contextmanager
from dataclasses import replace

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from enclavesim import attestation, crypto, pcs_service, provisioning, wire
from enclavesim.attestation import PcsDatabase, VerificationPolicy, quote_generate, quote_verify
from enclavesim.channel import ChannelError, HandshakeError
from enclavesim.pcs_service import PcsPool, PcsServer
from enclavesim.pfs import IntegrityError, WrongKeyError
from enclavesim.provisioning import (
    KeyServer,
    KeyVault,
    ProvisionDeniedError,
    ProvisioningClient,
    VaultError,
    client_request_key,
    vault_load,
    vault_save,
)

from foreign_json import FOREIGN_ENCODINGS

NOW = 1_700_000_000
MRE = b"\x11" * 32
MRS = b"\x22" * 32
SECRET = bytes(range(32))


@pytest.fixture(scope="module")
def env():
    pcs = PcsDatabase.create(now=NOW)
    platform, chain = pcs.register(tcb_level=5, now=NOW)
    return {"pcs": pcs, "platform": platform, "chain": chain}


def provider_for(env, mre=MRE):
    def provide(report_data):
        return quote_generate(env["platform"], mre, MRS, 3, report_data), env["chain"]
    return provide


def make_vault(env, secret_mre=MRE):
    vault = KeyVault()
    vault.add_secret("pfs-master", SECRET, VerificationPolicy(
        accepted_root=env["pcs"].root_public_key, expected_mr_enclave=secret_mre,
        min_isv_svn=1, min_tcb_level=1))
    return vault


@pytest.fixture()
def server(env):
    session_policy = VerificationPolicy(
        accepted_root=env["pcs"].root_public_key, min_isv_svn=1, min_tcb_level=1)
    srv = KeyServer(make_vault(env), session_policy, crypto.sign_generate(),
                    crl_provider=lambda pid: env["pcs"].current_crl(),
                    now_source=lambda: NOW).start()
    yield srv
    srv.stop()


# -- vault ----------------------------------------------------------------

def test_vault_roundtrip(tmp_path, env):
    path = tmp_path / "vault.pfs"
    vault_save(make_vault(env), path, "hunter2")
    again = vault_load(path, "hunter2")
    assert again.names() == ["pfs-master"]
    assert again.get("pfs-master")["secret"] == SECRET
    assert again.get("pfs-master")["policy"].expected_mr_enclave == MRE


def test_vault_wrong_passphrase(tmp_path, env):
    path = tmp_path / "vault.pfs"
    vault_save(make_vault(env), path, "hunter2")
    with pytest.raises(WrongKeyError):
        vault_load(path, "hunter3")


def test_vault_tamper_detected(tmp_path, env):
    path = tmp_path / "vault.pfs"
    vault_save(make_vault(env), path, "hunter2")
    raw = bytearray(path.read_bytes())
    raw[600] ^= 0x01  # inside the first node, past the header
    path.write_bytes(bytes(raw))
    with pytest.raises(IntegrityError):
        vault_load(path, "hunter2")


@pytest.mark.parametrize("version", [1, 2])
def test_a_version_1_vault_is_an_integrity_error(tmp_path, env, version):
    path = tmp_path / "vault.pfs"
    vault_save(make_vault(env), path, "hunter2")
    raw = bytearray(path.read_bytes())
    raw[8:12] = version.to_bytes(4, "little")
    path.write_bytes(bytes(raw))
    with pytest.raises(IntegrityError, match=f"unsupported version {version}"):
        vault_load(path, "hunter2")


def test_failed_vault_save_leaves_the_old_vault(tmp_path, env, monkeypatch):
    path = tmp_path / "vault.pfs"
    vault_save(make_vault(env), path, "hunter2")
    before = path.read_bytes()

    def fail(self):
        raise VaultError("serialization failed")

    monkeypatch.setattr(KeyVault, "to_json", fail)
    with pytest.raises(VaultError):
        vault_save(KeyVault(), path, "hunter2")
    assert path.read_bytes() == before
    assert list(tmp_path.iterdir()) == [path]
    assert vault_load(path, "hunter2").get("pfs-master")["secret"] == SECRET


def test_vault_name_and_secret_bounds(env):
    vault = KeyVault()
    policy = VerificationPolicy(accepted_root=b"\x00" * 32, expected_mr_enclave=MRE)
    with pytest.raises(VaultError):
        vault.add_secret("", b"x", policy)
    with pytest.raises(VaultError):
        vault.add_secret("x" * 129, b"x", policy)
    with pytest.raises(VaultError):
        vault.add_secret("ok", b"", policy)
    with pytest.raises(VaultError):
        vault.add_secret("ok", b"x" * 4097, policy)


def test_vault_policy_must_pin_an_identity():
    vault = KeyVault()
    with pytest.raises(VaultError, match="constrain"):
        vault.add_secret("k", b"v", VerificationPolicy(accepted_root=b"\x00" * 32))


# -- end to end ------------------------------------------------------------

def test_grant_end_to_end(env, server):
    got = client_request_key(server.address, "pfs-master", provider_for(env),
                             server.public_key)
    assert got == SECRET
    assert server.audit_log[-1]["outcome"] == "granted"
    assert server.audit_log[-1]["secret_name"] == "pfs-master"


def test_unknown_secret_denied(env, server):
    with pytest.raises(ProvisionDeniedError) as exc:
        client_request_key(server.address, "no-such-key", provider_for(env),
                           server.public_key)
    assert exc.value.reason == "unknown_secret"


def test_per_secret_policy_stricter_than_session(env):
    # session policy admits any measurement; the secret pins another one
    session_policy = VerificationPolicy(
        accepted_root=env["pcs"].root_public_key, min_isv_svn=1, min_tcb_level=1)
    srv = KeyServer(make_vault(env, secret_mre=b"\x55" * 32), session_policy,
                    crypto.sign_generate(),
                    crl_provider=lambda pid: env["pcs"].current_crl(),
                    now_source=lambda: NOW).start()
    try:
        with pytest.raises(ProvisionDeniedError) as exc:
            client_request_key(srv.address, "pfs-master", provider_for(env),
                               srv.public_key)
        assert exc.value.reason == "policy_mismatch"
        assert srv.audit_log[-1]["outcome"] == "denied:policy_mismatch"
    finally:
        srv.stop()


def test_session_policy_gate_blocks_handshake(env):
    session_policy = VerificationPolicy(
        accepted_root=env["pcs"].root_public_key, expected_mr_enclave=b"\x66" * 32)
    srv = KeyServer(make_vault(env), session_policy, crypto.sign_generate(),
                    crl_provider=lambda pid: env["pcs"].current_crl(),
                    now_source=lambda: NOW).start()
    try:
        with pytest.raises(HandshakeError) as exc:
            client_request_key(srv.address, "pfs-master", provider_for(env),
                               srv.public_key)
        assert exc.value.kind == "attestation_failed"
        assert exc.value.reason == "mr_enclave_mismatch"
        assert list(srv.audit_log) == []  # no request ever reached evaluation
    finally:
        srv.stop()


def test_wrong_pin_fails_closed(env, server):
    rogue = crypto.sign_generate()
    with pytest.raises(HandshakeError) as exc:
        client_request_key(server.address, "pfs-master", provider_for(env), rogue.public)
    assert exc.value.kind == "peer_auth_failed"
    assert list(server.audit_log) == []


def test_revoked_platform_surfaces_reason(env):
    pcs = env["pcs"]
    victim, chain = pcs.register(tcb_level=5, now=NOW)

    def provide(report_data):
        return quote_generate(victim, MRE, MRS, 3, report_data), chain

    session_policy = VerificationPolicy(
        accepted_root=pcs.root_public_key, min_isv_svn=1, min_tcb_level=1)
    srv = KeyServer(make_vault(env), session_policy, crypto.sign_generate(),
                    crl_provider=lambda pid: pcs.current_crl(),
                    now_source=lambda: NOW).start()
    try:
        pcs.revoke(victim.platform_id)
        with pytest.raises(HandshakeError) as exc:
            client_request_key(srv.address, "pfs-master", provide, srv.public_key)
        assert exc.value.kind == "attestation_failed"
        assert exc.value.reason == "revoked"
    finally:
        srv.stop()


def test_multiple_requests_one_session(env, server):
    with ProvisioningClient(server.address, provider_for(env), server.public_key) as client:
        assert client.request("pfs-master") == SECRET
        assert client.request("pfs-master") == SECRET
        with pytest.raises(ProvisionDeniedError):
            client.request("missing")
    granted = [e for e in server.audit_log if e["outcome"] == "granted"]
    assert len(granted) >= 2


def test_audit_one_record_per_request(env, server):
    before = len(server.audit_log)
    with ProvisioningClient(server.address, provider_for(env), server.public_key) as client:
        for _ in range(3):
            client.request("pfs-master")
    assert len(server.audit_log) == before + 3
    assert all(SECRET.hex() not in str(entry) for entry in server.audit_log)


def test_audit_log_keeps_the_newest_records_and_the_file_keeps_all(env, tmp_path,
                                                                   monkeypatch):
    monkeypatch.setattr(provisioning, "AUDIT_LOG_LEN", 3)
    audit = tmp_path / "audit.jsonl"
    session_policy = VerificationPolicy(
        accepted_root=env["pcs"].root_public_key, min_isv_svn=1, min_tcb_level=1)
    srv = KeyServer(make_vault(env), session_policy, crypto.sign_generate(),
                    crl_provider=lambda pid: env["pcs"].current_crl(),
                    now_source=lambda: NOW, audit_path=audit).start()
    names = ["pfs-master", "a", "pfs-master", "b", "c"]
    try:
        with ProvisioningClient(srv.address, provider_for(env), srv.public_key) as client:
            for name in names:
                try:
                    client.request(name)
                except ProvisionDeniedError:
                    pass
    finally:
        srv.stop()
    records = [json.loads(line) for line in audit.read_text().splitlines()]
    assert [r["secret_name"] for r in records] == names
    assert list(srv.audit_log) == records[-3:]


MALFORMED_PROVISION_REQS = [b'{"name": ["k"]}', b"\xff\xfe", b'["pfs-master"]'] + [
    '{"name":"pfs-master"}'.encode(codec) for codec in FOREIGN_ENCODINGS.values()]


def test_malformed_request_denied_bad_request_and_channel_stays_open(env, server):
    before = len(server.audit_log)
    with ProvisioningClient(server.address, provider_for(env), server.public_key) as client:
        for payload in MALFORMED_PROVISION_REQS:
            client.channel.send(wire.REC_PROVISION_REQ, payload)
            record_type, reply = client.channel.recv()
            assert record_type == wire.REC_PROVISION_RESP
            assert json.loads(reply) == {"outcome": "denied", "reason": "bad_request"}
        assert client.request("pfs-master") == SECRET
    outcomes = [e["outcome"] for e in list(server.audit_log)[before:]]
    n = len(MALFORMED_PROVISION_REQS)
    assert outcomes == ["denied:bad_request"] * n + ["granted"]
    assert all(e["secret_name"] is None for e in list(server.audit_log)[before:before + n])


def test_provision_request_is_canonical_json(env, server, monkeypatch):
    received = []
    answer = server._answer

    def record(channel, record_type, payload):
        received.append(payload)
        return answer(channel, record_type, payload)

    monkeypatch.setattr(server, "_answer", record)
    assert client_request_key(server.address, "pfs-master", provider_for(env),
                              server.public_key) == SECRET
    assert received == [b'{"name":"pfs-master"}']


def test_crl_outage_during_a_request_is_an_audited_denial(env):
    outage = OSError("pcs at 10.0.0.9:7000 unreachable")
    failures = []

    def crl_provider(pid):
        if failures:
            raise failures.pop()
        return env["pcs"].current_crl()

    session_policy = VerificationPolicy(accepted_root=env["pcs"].root_public_key)
    srv = KeyServer(make_vault(env), session_policy, crypto.sign_generate(),
                    crl_provider=crl_provider, now_source=lambda: NOW).start()
    try:
        with ProvisioningClient(srv.address, provider_for(env), srv.public_key) as client:
            failures.append(outage)
            client.channel.send(wire.REC_PROVISION_REQ, b'{"name": "pfs-master"}')
            record_type, reply = client.channel.recv()
            assert record_type == wire.REC_PROVISION_RESP
            assert json.loads(reply) == {"outcome": "denied", "reason": "crl_unavailable"}
            assert b"unreachable" not in reply
            assert client.request("pfs-master") == SECRET
    finally:
        srv.stop()
    assert [e["outcome"] for e in srv.audit_log] == ["denied:crl_unavailable", "granted"]


def test_revocation_takes_effect_on_an_open_session(env):
    pcs = env["pcs"]
    victim, chain = pcs.register(tcb_level=5, now=NOW)

    def provide(report_data):
        return quote_generate(victim, MRE, MRS, 3, report_data), chain

    session_policy = VerificationPolicy(accepted_root=pcs.root_public_key)
    srv = KeyServer(make_vault(env), session_policy, crypto.sign_generate(),
                    crl_provider=lambda pid: pcs.current_crl(),
                    now_source=lambda: NOW).start()
    try:
        with ProvisioningClient(srv.address, provide, srv.public_key) as client:
            assert client.request("pfs-master") == SECRET
            pcs.revoke(victim.platform_id)
            with pytest.raises(ProvisionDeniedError) as denied:
                client.request("pfs-master")
            assert denied.value.reason == "policy_mismatch"
        with pytest.raises(HandshakeError) as refused:
            client_request_key(srv.address, "pfs-master", provide, srv.public_key)
        assert (refused.value.kind, refused.value.reason) == ("attestation_failed", "revoked")
    finally:
        srv.stop()
    assert [e["outcome"] for e in srv.audit_log] == ["granted", "denied:policy_mismatch"]


def test_a_repeat_provision_makes_two_ed25519_checks(env, server, verify_calls):
    assert client_request_key(server.address, "pfs-master", provider_for(env),
                              server.public_key) == SECRET
    verify_calls.clear()
    assert client_request_key(server.address, "pfs-master", provider_for(env),
                              server.public_key) == SECRET
    # the fresh quote on the key server, V1 on the client; the chain, the
    # CRL and the request's second check of the quote were checked before
    assert len(verify_calls) == 2


# -- the key server's CRL fetches over its PCS connection pool ---------------

@contextmanager
def pooled_key_server(env, pcs_addr, crl_provider=None):
    """A key server whose CRLs come from the PCS at pcs_addr through a
    PcsPool; `crl_provider(pool)` may wrap the pool's fetch. The pool is
    closed after the server stops."""
    pool = PcsPool(pcs_addr)
    session_policy = VerificationPolicy(
        accepted_root=env["pcs"].root_public_key, min_isv_svn=1, min_tcb_level=1)
    srv = KeyServer(make_vault(env), session_policy, crypto.sign_generate(),
                    crl_provider=crl_provider(pool) if crl_provider else pool.crl,
                    now_source=lambda: NOW).start()
    try:
        yield srv, pool
    finally:
        srv.stop()
        pool.close()


def test_a_pcs_restart_between_two_provisions_costs_one_retry(env):
    pcs_srv = PcsServer(env["pcs"], now_source=lambda: NOW).start()
    port = pcs_srv.address[1]
    try:
        with pooled_key_server(env, pcs_srv.address) as (srv, pool):
            assert client_request_key(srv.address, "pfs-master", provider_for(env),
                                      srv.public_key) == SECRET
            pcs_srv.stop()
            pcs_srv = PcsServer(env["pcs"], port=port, now_source=lambda: NOW).start()
            assert client_request_key(srv.address, "pfs-master", provider_for(env),
                                      srv.public_key) == SECRET
            # the handshake's fetch found the old connection closed and
            # connected again; the request reused the new one
            assert pool.stats() == {"connected": 2, "reused": 3, "retried": 1}
    finally:
        pcs_srv.stop()


def test_a_failed_retry_is_crl_unavailable(env):
    pcs_srv = PcsServer(env["pcs"], now_source=lambda: NOW).start()
    try:
        with pooled_key_server(env, pcs_srv.address) as (srv, pool):
            with ProvisioningClient(srv.address, provider_for(env), srv.public_key) as client:
                assert client.request("pfs-master") == SECRET
                pcs_srv.stop()  # the pooled connection is closed, and so is the port
                with pytest.raises(ProvisionDeniedError) as denied:
                    client.request("pfs-master")
                assert denied.value.reason == "crl_unavailable"
            assert pool.stats() == {"connected": 1, "reused": 2, "retried": 1}
    finally:
        pcs_srv.stop()
    assert [e["outcome"] for e in srv.audit_log] == ["granted", "denied:crl_unavailable"]


@pytest.mark.parametrize("clients", [2, 4])
def test_concurrent_provisions_across_a_revocation_over_the_wire(env, clients):
    """Clients provision one-shot, concurrently, while the platform is
    revoked at the PCS: every request sent gets one reply and one audit
    record, and no request or handshake whose CRL fetch began after the
    revocation returned is granted."""
    pcs_srv = PcsServer(env["pcs"], now_source=lambda: NOW).start()
    victim, chain = pcs_service.register_platform(pcs_srv.address, tcb_level=5)

    def provide(report_data):
        return quote_generate(victim, MRE, MRS, 3, report_data), chain

    fetch = threading.local()  # when this connection thread's last CRL fetch began
    records = []  # (fetch start, outcome) per audit record
    revoked, revoked_at = threading.Event(), []
    first_round = threading.Barrier(clients + 1)
    outcomes, errors = [], []

    def timed(pool):
        def crl(platform_id):
            fetch.began = time.monotonic()
            return pool.crl(platform_id)
        return crl

    def provision(srv):
        started = time.monotonic()
        try:
            secret = client_request_key(srv.address, "pfs-master", provide, srv.public_key)
            return started, "granted" if secret == SECRET else "wrong secret"
        except ProvisionDeniedError as exc:
            return started, f"denied:{exc.reason}"
        except HandshakeError as exc:
            return started, f"refused:{exc.reason}"

    def client(srv):
        try:
            outcomes.append(provision(srv))
            first_round.wait(10)
            after = 0
            while after < 2 and len(outcomes) < 200:
                after += revoked.is_set()
                outcomes.append(provision(srv))
        except Exception as exc:
            errors.append(exc)

    try:
        with pooled_key_server(env, pcs_srv.address, timed) as (srv, pool):
            audit = srv._audit

            def recorded(quote, name, body):
                records.append((fetch.began, body["outcome"]))
                audit(quote, name, body)

            srv._audit = recorded
            threads = [threading.Thread(target=client, args=(srv,)) for _ in range(clients)]
            for thread in threads:
                thread.start()
            first_round.wait(10)
            pcs_service.revoke_platform(pcs_srv.address, victim.platform_id)
            revoked_at.append(time.monotonic())
            revoked.set()
            for thread in threads:
                thread.join(30)
            assert not any(thread.is_alive() for thread in threads)
            audit_log = list(srv.audit_log)
            # each fetch gives its connection back before its client is answered,
            # so the pool never needs more connections than there are clients
            assert pool.stats()["connected"] <= clients
            assert pool.stats()["retried"] == 0
    finally:
        pcs_srv.stop()

    assert errors == []
    sent = [o for _, o in outcomes if o != "refused:revoked"]
    assert set(sent) <= {"granted", "denied:policy_mismatch"}
    assert len(audit_log) == len(records) == len(sent)
    assert sorted(e["outcome"] for e in audit_log) == sorted(sent)
    assert not [o for began, o in records if began > revoked_at[0] and o == "granted"]
    late = [o for started, o in outcomes if started > revoked_at[0]]
    assert len(late) >= clients and "granted" not in late
    assert "granted" in sent


def test_bad_signatures_never_enter_the_memo(env, server):
    provide = provider_for(env)
    assert client_request_key(server.address, "pfs-master", provide,
                              server.public_key) == SECRET
    before = set(attestation._verified)
    quote, chain = provide(b"\x00" * 64)
    crl, policy = env["pcs"].current_crl(), server.session_policy
    rng = random.Random(61)
    parts = ("root_cert", "platform_ca_cert", "attestation_key_cert")
    for i in range(99):
        bad = rng.randbytes(crypto.SIGNATURE_SIZE)
        q, c, r = quote, chain, crl
        if i % 5 == 3:
            r = replace(crl, signature=bad)
        elif i % 5 == 4:
            q = replace(quote, signature=bad)
        else:
            c = replace(chain, **{parts[i % 5]: replace(getattr(chain, parts[i % 5]),
                                                        signature=bad)})
        assert not quote_verify(q, c, r, policy, NOW).ok
    # a CA certificate with a ~0.5 MiB subject, its leaf naming it as issuer
    big = "x" * (wire.MAX_PAYLOAD // 2 - 4096)
    hostile = replace(chain, platform_ca_cert=replace(chain.platform_ca_cert, subject=big),
                      attestation_key_cert=replace(chain.attestation_key_cert, issuer=big))
    with pytest.raises(HandshakeError) as refused:
        client_request_key(server.address, "pfs-master",
                           lambda report_data: (provide(report_data)[0], hostile),
                           server.public_key)
    assert (refused.value.kind, refused.value.reason) == ("attestation_failed", "bad_chain")
    assert set(attestation._verified) == before

class ScriptedKeyServer(KeyServer):
    """Attests like a key server, then answers every record with `reply`."""

    reply = (wire.REC_PROVISION_RESP, b"")

    def _answer(self, channel, record_type, payload):
        return self.reply


@pytest.fixture()
def scripted(env):
    """A scripted key server and one correctly attested session with it."""
    srv = ScriptedKeyServer(make_vault(env), VerificationPolicy(
        accepted_root=env["pcs"].root_public_key), crypto.sign_generate(),
        crl_provider=lambda pid: env["pcs"].current_crl(), now_source=lambda: NOW).start()
    try:
        with ProvisioningClient(srv.address, provider_for(env), srv.public_key) as client:
            yield srv, client
    finally:
        srv.stop()


@pytest.mark.parametrize("record_type, payload", [
    (wire.REC_PROVISION_RESP, b'["granted"]'),
    (wire.REC_PROVISION_RESP, b'"granted"'),
    (wire.REC_PROVISION_RESP, b"\xff\xfe"),
    (wire.REC_PROVISION_RESP, b'{"outcome": "granted"}'),
    (wire.REC_PROVISION_RESP, b'{"outcome": "granted", "secret": "zz"}'),
    (wire.REC_PROVISION_RESP, b'{"outcome": "granted", "secret": 7}'),
    (wire.REC_PROVISION_RESP, b'{"outcome": "denied", "reason": ["x"]}'),
    (wire.REC_PROVISION_RESP, b'{"outcome": "denied"}'),
    (wire.REC_PROVISION_RESP, b'{"outcome": "maybe", "reason": "x"}'),
    (wire.REC_PING, b'{"outcome": "granted", "secret": "00"}'),
] + [(wire.REC_PROVISION_RESP, '{"outcome":"granted","secret":"00"}'.encode(codec))
     for codec in FOREIGN_ENCODINGS.values()],
    ids=["list", "string", "not-utf8", "no-secret", "secret-not-hex", "secret-int",
         "reason-list", "no-reason", "unknown-outcome", "wrong-record-type"] + [
         f"granted-{name}" for name in FOREIGN_ENCODINGS])
def test_malformed_provision_reply_is_denied_bad_response(scripted, record_type, payload):
    server, client = scripted
    server.reply = (record_type, payload)
    with pytest.raises(ProvisionDeniedError) as exc:
        client.request("pfs-master")
    assert exc.value.reason == "bad_response"
    server.reply = (wire.REC_PROVISION_RESP, b'{"outcome": "granted", "secret": "0a0b"}')
    assert client.request("pfs-master") == b"\x0a\x0b"


JSON_VALUE = st.recursive(
    st.none() | st.booleans() | st.integers() | st.floats(allow_nan=False) | st.text(max_size=6),
    lambda inner: st.lists(inner, max_size=3) | st.dictionaries(st.text(max_size=4), inner,
                                                                 max_size=3),
    max_leaves=6)
REPLY_FIELD = st.one_of(st.binary(max_size=24).map(bytes.hex),
                        st.sampled_from(["granted", "denied", "policy_mismatch", "0 0", "é"]),
                        JSON_VALUE)


def json_bytes(value) -> bytes:
    return json.dumps(value).encode("utf-8")


def test_any_provision_reply_gives_only_a_secret_or_a_denial(scripted):
    server, client = scripted

    # one session for every example: the client must survive each reply
    @settings(max_examples=300, deadline=None)
    @given(record_type=st.sampled_from([wire.REC_PROVISION_RESP, wire.REC_PING]),
           payload=st.one_of(
               st.binary(max_size=48), JSON_VALUE.map(json_bytes),
               st.dictionaries(st.sampled_from(["outcome", "secret", "reason"]), REPLY_FIELD)
               .map(json_bytes)))
    def check(record_type, payload):
        server.reply = (record_type, payload)
        try:
            secret = client.request("pfs-master")
        except ProvisionDeniedError as exc:
            assert isinstance(exc.reason, str)
        else:
            body = json.loads(payload)
            assert record_type == wire.REC_PROVISION_RESP and body["outcome"] == "granted"
            assert secret == bytes.fromhex(body["secret"])

    check()


def test_stop_closes_an_open_session(env, server):
    with ProvisioningClient(server.address, provider_for(env), server.public_key) as client:
        assert client.request("pfs-master") == SECRET
        server.stop()
        with pytest.raises(ChannelError):
            client.request("pfs-master")
        assert [t.name for t in threading.enumerate()
                if t.name.startswith(wire.THREAD_PREFIX)] == []


class RecordingProxy:
    """TCP forwarder capturing every byte of both directions."""

    def __init__(self, upstream):
        self.upstream = upstream
        self.bytes_seen = bytearray()
        self._lock = threading.Lock()
        self._listener = socket.create_server(("127.0.0.1", 0))
        self.address = self._listener.getsockname()[:2]
        threading.Thread(target=self._accept, daemon=True).start()

    def _accept(self):
        while True:
            try:
                client, _ = self._listener.accept()
            except OSError:
                return
            server = socket.create_connection(self.upstream)
            for src, dst in ((client, server), (server, client)):
                threading.Thread(target=self._pump, args=(src, dst), daemon=True).start()

    def _pump(self, src, dst):
        try:
            while True:
                chunk = src.recv(4096)
                if not chunk:
                    break
                with self._lock:
                    self.bytes_seen.extend(chunk)
                dst.sendall(chunk)
        except OSError:
            pass
        finally:
            for s in (src, dst):
                try:
                    s.shutdown(socket.SHUT_RDWR)
                except OSError:
                    pass

    def close(self):
        self._listener.close()


def test_secret_never_in_cleartext_on_wire(env, server):
    proxy = RecordingProxy(server.address)
    try:
        got = client_request_key(proxy.address, "pfs-master", provider_for(env),
                                 server.public_key)
        assert got == SECRET
        stream = bytes(proxy.bytes_seen)
        assert SECRET not in stream
        assert SECRET.hex().encode() not in stream
    finally:
        proxy.close()


VAULT_PATHS = [(), ("secrets",), ("secrets", "pfs-master"),
               ("secrets", "pfs-master", "secret"), ("secrets", "pfs-master", "policy")] + [
    ("secrets", "pfs-master", "policy", field)
    for field in ("accepted_root", "expected_mr_enclave", "min_isv_svn", "min_tcb_level")]


@settings(max_examples=200, deadline=None)
@example(edits=[((), [])], junk=None)
@example(edits=[(("secrets",), [])], junk=None)
@given(edits=st.lists(st.tuples(st.sampled_from(VAULT_PATHS),
                                st.binary(max_size=40).map(bytes.hex) | JSON_VALUE),
                      max_size=3),
       junk=st.none() | st.binary(max_size=48))
def test_vault_body_decodes_or_is_a_vault_error(env, edits, junk):
    body = json.loads(make_vault(env).to_json())
    # deeper edits first, so a later shallower edit may replace their parent
    for path, value in sorted(edits, key=lambda e: -len(e[0])):
        if not path:
            body = value
            continue
        parent = body
        for key in path[:-1]:
            parent = parent[key]
        parent[path[-1]] = value
    data = json.dumps(body).encode("utf-8") if junk is None else junk
    try:
        vault = KeyVault.from_json(data)
    except VaultError:
        return
    assert isinstance(vault, KeyVault)
