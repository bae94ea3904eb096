"""The record codec: every JSON record round-trips through its one encoder
and strict decoder, every hostile variant of a record is refused at its
boundary with that boundary's typed answer, and the record files written
before the codec existed (fixtures/records) load and re-save unchanged."""

import copy
import dataclasses
import json
import os
import socket
import tempfile
import threading
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from enclavesim import attestation, channel, codec, crypto, pcs_service, provisioning, wire
from enclavesim.attestation import (
    QUOTE_SIZE,
    CertChain,
    Certificate,
    Crl,
    PcsDatabase,
    PlatformIdentity,
    Quote,
    VerificationPolicy,
    quote_generate,
)
from enclavesim.channel import (
    AttestationCertificate,
    HandshakeError,
    attester_handshake,
    bind_report_data,
    verifier_handshake,
)
from enclavesim.enclave import WorkloadSpec
from enclavesim.pcs_service import PcsClientError, PcsServer
from enclavesim.provisioning import KeyServer, KeyVault, ProvisionDeniedError, ProvisioningClient
from enclavesim.workflow import exit_code

RECORD_FILES = Path(__file__).parent / "fixtures" / "records"
NOW = 1_700_000_000
MRE = b"\x11" * 32
MRS = b"\x22" * 32

TEXT = st.text(max_size=8)
U32 = st.integers(0, 2**32 - 1)
U64 = st.integers(0, 2**64 - 1)
KEY = st.binary(min_size=32, max_size=32)
SIGNATURE = st.binary(min_size=64, max_size=64)
PLATFORM_ID = st.binary(min_size=16, max_size=16)
SECRET = st.binary(min_size=1, max_size=48)
CERTIFICATE = st.builds(Certificate, TEXT, TEXT, KEY, U64, U64, st.none() | U32, SIGNATURE)
CHAIN = st.builds(CertChain, CERTIFICATE, CERTIFICATE, CERTIFICATE)
CRL = st.builds(Crl, TEXT, U64, st.frozensets(PLATFORM_ID, max_size=3), SIGNATURE)
POLICY = st.builds(VerificationPolicy, KEY, st.none() | KEY, st.none() | KEY, U32, U32)
KEY_PAIR = st.builds(crypto.SigningKeyPair, KEY, KEY)


def fields(**kinds):
    return st.fixed_dictionaries(kinds)


# every record, with every value it encodes
RECORDS = {
    "certificate": (Certificate.RECORD, CERTIFICATE),
    "chain": (CertChain.RECORD, CHAIN),
    "crl": (Crl.RECORD, CRL),
    "policy": (VerificationPolicy.RECORD, POLICY),
    "pcs.json": (attestation.DATABASE_FILE, fields(
        root_key=KEY_PAIR, ca_key=KEY_PAIR, root_cert=CERTIFICATE, ca_cert=CERTIFICATE,
        created_at=U64, platforms=st.dictionaries(PLATFORM_ID, fields(
            public_key=KEY, tcb_level=U32, chain=CHAIN), max_size=2),
        revoked=st.frozensets(PLATFORM_ID, max_size=3), crl_sequence=U64)),
    "A1": (AttestationCertificate.RECORD, st.builds(
        AttestationCertificate, KEY,
        st.binary(min_size=QUOTE_SIZE, max_size=QUOTE_SIZE).map(Quote.unpack), CHAIN)),
    "V1": (channel.V1, fields(eph_pub=KEY, sig=SIGNATURE)),
    "HS_ERROR": (channel.HS_ERROR, fields(kind=TEXT, reason=st.none() | TEXT)),
    "PROVISION_REQ": (provisioning.PROVISION_REQ, fields(name=TEXT)),
    "PROVISION_RESP": (provisioning.PROVISION_RESP,
                       fields(outcome=st.just("granted"), secret=SECRET)
                       | fields(outcome=st.just("denied"), reason=TEXT)),
    "vault-body": (provisioning.VAULT, fields(secrets=st.dictionaries(
        TEXT, fields(secret=SECRET, policy=POLICY), max_size=2))),
    "PCS_FETCH_REQ-PCS_REVOKE_REQ": (pcs_service.PLATFORM_REQ, fields(platform_id=PLATFORM_ID)),
    "PCS_REGISTER_REQ": (pcs_service.REGISTER_REQ, fields(tcb_level=U32)),
    "PCS_FETCH_RESP": (pcs_service.FETCH_RESP, fields(chain=CHAIN, crl=CRL)),
    "PCS_REVOKE_RESP": (pcs_service.REVOKE_RESP, fields(crl=CRL)),
    "PCS_ERROR": (pcs_service.PCS_ERROR, fields(reason=TEXT)),
    "identity-PCS_REGISTER_RESP": (pcs_service.IDENTITY, fields(
        platform=st.builds(lambda pid, key, tcb: PlatformIdentity(pid, key.private,
                                                                   key.public, tcb),
                           PLATFORM_ID, KEY.map(crypto.signing_key), U32),
        chain=CHAIN)),
    "workload.json": (WorkloadSpec.RECORD, st.builds(WorkloadSpec, TEXT, TEXT, TEXT, TEXT, TEXT)),
}


@pytest.mark.parametrize("name", sorted(RECORDS))
def test_every_record_round_trips_as_a_value_and_as_bytes(name):
    kind, values = RECORDS[name]

    @settings(max_examples=40, deadline=None)
    @given(value=values)
    def check(value):
        assert kind.decode(kind.encode(value)) == value
        assert codec.unpack(kind, codec.pack(kind, value)) == value

    check()


HOSTILE_LEAF = st.one_of(
    st.none(), st.booleans(), st.integers(-2, 2**64 + 1), st.floats(allow_nan=False),
    st.text(max_size=6), st.binary(max_size=33).map(bytes.hex),
    st.binary(min_size=1, max_size=33).map(lambda b: b.hex().upper()),
    st.sampled_from(["0", "1   ", [], {}, [1], {"x": 1}]).map(copy.deepcopy))


def paths(value, prefix=()):
    yield prefix
    if isinstance(value, dict):
        for key, item in value.items():
            yield from paths(item, prefix + (key,))
    elif isinstance(value, list):
        for index, item in enumerate(value):
            yield from paths(item, prefix + (index,))


def get_at(doc, path):
    for key in path:
        doc = doc[key]
    return doc


def set_at(doc, path, value):
    if not path:
        return value
    parent = doc
    for key in path[:-1]:
        parent = parent[key]
    parent[path[-1]] = value
    return doc


def reordered(value):
    """`value` with every object's keys in reverse order."""
    if isinstance(value, dict):
        return dict(reversed([(k, reordered(v)) for k, v in value.items()]))
    if isinstance(value, list):
        return [reordered(v) for v in value]
    return value


LAYOUTS = {
    "canonical": codec.canonical_json,
    "spaced": lambda v: json.dumps(v).encode(),
    "unsorted": lambda v: json.dumps(reordered(v), separators=(",", ":")).encode(),
}


@pytest.mark.parametrize("name", sorted(RECORDS))
def test_what_decodes_is_exactly_what_the_encoder_writes(name):
    kind, values = RECORDS[name]

    @settings(max_examples=80, deadline=None)
    @given(data=st.data())
    def check(data):
        doc = kind.encode(data.draw(values))
        for _ in range(data.draw(st.integers(0, 3))):
            where = data.draw(st.sampled_from(list(paths(doc))))
            edit = data.draw(st.sampled_from(["replace", "drop", "add"]))
            parent = get_at(doc, where[:-1]) if where else None
            if edit == "drop" and isinstance(parent, dict):
                del parent[where[-1]]
            elif edit == "add" and isinstance(parent, dict):
                parent[data.draw(st.text(max_size=4))] = data.draw(HOSTILE_LEAF)
            else:
                doc = set_at(doc, where, data.draw(HOSTILE_LEAF))
        try:
            value = kind.decode(doc)
        except ValueError:
            pass
        else:  # by value: json tells 1, 1.0 and true apart where == does not
            assert codec.canonical_json(kind.encode(value)) == codec.canonical_json(doc)
        payload = LAYOUTS[data.draw(st.sampled_from(sorted(LAYOUTS)))](doc)
        try:
            value = codec.unpack(kind, payload)
        except wire.DECODE_ERRORS:
            return
        assert codec.pack(kind, value) == payload

    check()


# -- every hostile variant is refused at its boundary -------------------------

@pytest.fixture(scope="module")
def world():
    pcs = PcsDatabase.create(now=NOW)
    platform, chain = pcs.register(tcb_level=5, now=NOW)
    verifier_key = crypto.sign_generate()
    policy = VerificationPolicy(accepted_root=pcs.root_public_key, expected_mr_enclave=MRE,
                                min_isv_svn=1, min_tcb_level=1)

    def provide(report_data):
        return quote_generate(platform, MRE, MRS, 3, report_data), chain

    return {"pcs": pcs, "platform": platform, "chain": chain, "provide": provide,
            "verifier_key": verifier_key, "policy": policy}


def a1_outcome(world, payload):
    """The verifier's first answer to A1 `payload`: V1, or its HS_ERROR's kind."""
    a_sock, v_sock = socket.socketpair()

    def verify():
        try:
            verifier_handshake(v_sock, world["policy"], lambda pid: world["pcs"].current_crl(),
                               NOW, world["verifier_key"])
        except HandshakeError:
            pass

    thread = threading.Thread(target=verify)
    thread.start()
    try:
        a_sock.settimeout(10)
        wire.send_frame(a_sock, wire.HS_A1, payload)
        frame_type, body = wire.recv_frame(a_sock)
    finally:
        a_sock.close()
        thread.join()
    return "V1" if frame_type == wire.HS_V1 else json.loads(body)["kind"]


def verifier_reply_outcome(frame_type):
    """The attester's HandshakeError kind when the verifier answers its A1
    with a frame of `frame_type` carrying the payload."""
    def outcome(world, payload):
        a_sock, v_sock = socket.socketpair()

        def reply():
            wire.recv_frame(v_sock)
            wire.send_frame(v_sock, frame_type, payload)

        thread = threading.Thread(target=reply)
        thread.start()
        try:
            attester_handshake(a_sock, world["provide"], world["verifier_key"].public)
        except HandshakeError as exc:
            return exc.kind
        finally:
            thread.join()
            v_sock.close()
        raise AssertionError("the handshake completed against a scripted verifier")
    return outcome


def pcs_request_outcome(frame_type):
    """The PCS's answer to a request of `frame_type`: ok, or its PCS_ERROR reason."""
    def outcome(world, payload):
        srv = PcsServer(world["pcs"], now_source=lambda: NOW)
        try:
            reply_type, body = srv._handle(frame_type, payload)
        finally:
            srv.stop()
        return "ok" if reply_type == frame_type + 1 else json.loads(body)["reason"]
    return outcome


class ScriptedPcs(wire.FrameServer):
    reply = (wire.PCS_ERROR, b"")

    def _handle(self, frame_type, payload):
        return self.reply


def pcs_reply_outcome(reply_type, call):
    """What `call(addr)` gives when the PCS replies with a frame of
    `reply_type` carrying the payload: ok, or its PcsClientError reason."""
    def outcome(world, payload):
        srv = ScriptedPcs("127.0.0.1", 0).start()
        srv.reply = (reply_type, payload)
        try:
            call(srv.address)
        except PcsClientError as exc:
            return exc.kind
        finally:
            srv.stop()
        return "ok"
    return outcome


def make_vault(world):
    vault = KeyVault()
    vault.add_secret("pfs-master", bytes(range(32)), world["policy"])
    return vault


def provision_request_outcome(world, payload):
    """The key server's answer to PROVISION_REQ `payload`: its outcome or
    its denial reason."""
    srv = KeyServer(make_vault(world), world["policy"], world["verifier_key"],
                    crl_provider=lambda pid: world["pcs"].current_crl(),
                    now_source=lambda: NOW).start()
    try:
        with ProvisioningClient(srv.address, world["provide"], srv.public_key) as client:
            client.channel.send(wire.REC_PROVISION_REQ, payload)
            _, reply = client.channel.recv()
    finally:
        srv.stop()
    body = json.loads(reply)
    return body.get("reason", body["outcome"])


class ScriptedKeyServer(KeyServer):
    reply = (wire.REC_PROVISION_RESP, b"")

    def _answer(self, channel, record_type, payload):
        return self.reply


def provision_reply_outcome(world, payload):
    """The client's answer to PROVISION_RESP `payload`: granted, or its denial reason."""
    srv = ScriptedKeyServer(make_vault(world), world["policy"], world["verifier_key"],
                            crl_provider=lambda pid: world["pcs"].current_crl(),
                            now_source=lambda: NOW).start()
    srv.reply = (wire.REC_PROVISION_RESP, payload)
    try:
        with ProvisioningClient(srv.address, world["provide"], srv.public_key) as client:
            client.request("pfs-master")
    except ProvisionDeniedError as exc:
        return exc.reason
    finally:
        srv.stop()
    return "granted"


def file_outcome(load):
    """ok when `load(path)` reads the file, else the CLI's exit code for its error."""
    def outcome(world, payload):
        with tempfile.TemporaryDirectory() as tmp:
            path = Path(tmp) / "record.json"
            path.write_bytes(payload)
            try:
                load(path)
            except wire.DECODE_ERRORS as exc:
                return f"exit {exit_code(exc)}"
        return "ok"
    return outcome


def vault_outcome(world, payload):
    try:
        provisioning.read_vault_body(payload)
    except provisioning.VaultError:
        return "VaultError"
    return "ok"


def a1_sample(world):
    eph = crypto.dh_generate()
    quote, chain = world["provide"](bind_report_data(eph.public))
    return AttestationCertificate.RECORD.encode(AttestationCertificate(eph.public, quote, chain))


def registered_platform_id(world):
    return world["pcs"].register(tcb_level=2, now=NOW)[0].platform_id.hex()


def fetch_reply_sample(world):
    chain, crl = world["pcs"].fetch(world["platform"].platform_id)
    return pcs_service.FETCH_RESP.encode({"chain": chain, "crl": crl})


def identity_sample(world):
    return pcs_service.IDENTITY.encode({"platform": world["platform"], "chain": world["chain"]})


def golden(name):
    return lambda world: json.loads((RECORD_FILES / name).read_bytes())


def golden_pcs() -> dict:
    return json.loads((RECORD_FILES / "pcs.json").read_bytes())


def golden_platform() -> str:
    """The id of the first platform in the pcs.json record file."""
    return min(golden_pcs()["platforms"])


def other_key(world):
    return crypto.sign_generate().public.hex()


LEAF = ("chain", "attestation_key")


@dataclasses.dataclass
class Boundary:
    sample: object  # world -> a valid record, as its JSON value
    outcome: object  # (world, payload) -> the boundary's answer
    refused: str  # its answer to a malformed record
    wire: bool = True
    int_path: tuple = ()  # an integer field, if the record has one
    hex_path: tuple = ()  # a fixed-length hex field, if the record has one
    extra: dict = dataclasses.field(default_factory=dict)  # row -> (path, world -> value)


BOUNDARIES = {
    "A1": Boundary(a1_sample, a1_outcome, "io", int_path=LEAF + ("not_before",),
                   hex_path=LEAF + ("public_key",),
                   extra={"leaf-tcb-level-2.9": (LEAF + ("tcb_level",), lambda w: 2.9)}),
    "V1": Boundary(lambda w: {"eph_pub": crypto.dh_generate().public.hex(),
                              "sig": os.urandom(64).hex()},
                   verifier_reply_outcome(wire.HS_V1), "io", hex_path=("sig",)),
    "HS_ERROR": Boundary(lambda w: {"kind": "attestation_failed", "reason": "revoked"},
                         verifier_reply_outcome(wire.HS_ERROR), "io",
                         extra={"kind-int": (("kind",), lambda w: 7)}),
    "PCS_FETCH_REQ": Boundary(lambda w: {"platform_id": w["platform"].platform_id.hex()},
                              pcs_request_outcome(wire.PCS_FETCH_REQ), "bad_request",
                              hex_path=("platform_id",)),
    "PCS_REGISTER_REQ": Boundary(lambda w: {"tcb_level": 3},
                                 pcs_request_outcome(wire.PCS_REGISTER_REQ), "bad_request",
                                 int_path=("tcb_level",)),
    "PCS_REVOKE_REQ": Boundary(lambda w: {"platform_id": registered_platform_id(w)},
                               pcs_request_outcome(wire.PCS_REVOKE_REQ), "bad_request",
                               hex_path=("platform_id",)),
    "PCS_FETCH_RESP": Boundary(
        fetch_reply_sample,
        pcs_reply_outcome(wire.PCS_FETCH_RESP,
                          lambda addr: pcs_service.fetch_platform(addr, b"\x01" * 16)),
        "bad_response", int_path=LEAF + ("not_after",), hex_path=LEAF + ("public_key",),
        extra={"crl-sequence-string": (("crl", "sequence"), lambda w: "0")}),
    "PCS_REGISTER_RESP": Boundary(
        identity_sample,
        pcs_reply_outcome(wire.PCS_REGISTER_RESP,
                          lambda addr: pcs_service.register_platform(addr, 1)),
        "bad_response", int_path=("platform", "tcb_level"),
        hex_path=("platform", "platform_id"),
        extra={"public-key-not-the-private-keys": (("platform", "public_key"), other_key)}),
    "PCS_REVOKE_RESP": Boundary(
        lambda w: pcs_service.REVOKE_RESP.encode({"crl": w["pcs"].current_crl()}),
        pcs_reply_outcome(wire.PCS_REVOKE_RESP,
                          lambda addr: pcs_service.revoke_platform(addr, b"\x01" * 16)),
        "bad_response", int_path=("crl", "sequence"), hex_path=("crl", "signature")),
    "PCS_ERROR": Boundary(
        lambda w: {"reason": "unknown_platform"},
        pcs_reply_outcome(wire.PCS_ERROR,
                          lambda addr: pcs_service.fetch_platform(addr, b"\x01" * 16)),
        "bad_response", extra={"reason-int": (("reason",), lambda w: 1)}),
    "PROVISION_REQ": Boundary(lambda w: {"name": "pfs-master"}, provision_request_outcome,
                              "bad_request", extra={"name-int": (("name",), lambda w: 1)}),
    "PROVISION_RESP": Boundary(
        lambda w: {"outcome": "granted", "secret": "0a0b0c"}, provision_reply_outcome,
        "bad_response", extra={"secret-upper-case": (("secret",), lambda w: "0A0B0C"),
                               "secret-empty": (("secret",), lambda w: "")}),
    "vault-body": Boundary(
        golden("vault_body.json"), vault_outcome, "VaultError", wire=False,
        int_path=("secrets", "pfs-master", "policy", "min_isv_svn"),
        hex_path=("secrets", "pfs-master", "policy", "accepted_root"),
        extra={"mr-enclave-2-bytes": (("secrets", "pfs-master", "policy",
                                       "expected_mr_enclave"), lambda w: "abcd")}),
    "pcs.json": Boundary(
        golden("pcs.json"), file_outcome(PcsDatabase.load), "exit 3", wire=False,
        int_path=("created_at",), hex_path=("root_key", "public"),
        extra={"root-public-key-not-its-own": (("root_key", "public"), other_key),
               "ca-public-key-not-its-own": (("ca_key", "public"), other_key),
               "revoked-twice": (("revoked",), lambda w: golden_pcs()["revoked"] * 2),
               "revoked-unsorted": (("revoked",),
                                    lambda w: sorted(golden_pcs()["platforms"], reverse=True)),
               "platform-tcb-level-not-its-leafs": (
                   ("platforms", golden_platform(), "tcb_level"), lambda w: 9)}),
    "identity-file": Boundary(
        golden("identity.json"), file_outcome(pcs_service.load_identity), "exit 3",
        wire=False, int_path=("platform", "tcb_level"), hex_path=("platform", "platform_id"),
        extra={"public-key-not-the-private-keys": (("platform", "public_key"), other_key)}),
    "workload.json": Boundary(
        golden("workload.json"),
        file_outcome(lambda path: codec.load(WorkloadSpec.RECORD, path.read_bytes())),
        "exit 3", wire=False, extra={"kind-int": (("kind",), lambda w: 1)}),
}


def hostile_variants(boundary: Boundary, world, sample: dict) -> dict:
    """Row name -> the record with exactly that flaw, as JSON values."""
    def edited(path, value):
        return set_at(copy.deepcopy(sample), path, value)

    rows = {}
    if boundary.int_path:
        n = get_at(sample, boundary.int_path)
        rows["int-padded-string"] = edited(boundary.int_path, f"{n}   ")
        rows["int-2.9"] = edited(boundary.int_path, 2.9)
        rows["int-true"] = edited(boundary.int_path, True)
    if boundary.hex_path:
        digits = get_at(sample, boundary.hex_path)
        rows["hex-upper-case"] = edited(boundary.hex_path, digits.upper())
        rows["hex-one-byte-short"] = edited(boundary.hex_path, digits[:-2])
        rows["hex-one-byte-long"] = edited(boundary.hex_path, digits + "00")
    rows["unknown-key"] = {**sample, "x": 1}
    rows["missing-key"] = dict(list(sample.items())[1:])
    for row, (path, value) in boundary.extra.items():
        rows[row] = edited(path, value(world))
    return rows


@pytest.mark.parametrize("name", sorted(BOUNDARIES))
def test_hostile_variants_are_refused_at_their_boundary(world, name):
    boundary = BOUNDARIES[name]
    sample = boundary.sample(world)

    def layout(doc):
        return (codec.canonical_json(doc) if boundary.wire
                else json.dumps(doc, indent=2).encode() + b"\n")

    def outcome(payload):
        return boundary.outcome(world, payload)

    payloads = {row: layout(doc)
                for row, doc in hostile_variants(boundary, world, sample).items()}
    if boundary.wire:
        payloads["spaced"] = json.dumps(sample).encode()
        unsorted = json.dumps(reordered(sample), separators=(",", ":")).encode()
        if unsorted != layout(sample):
            payloads["unsorted"] = unsorted
    assert outcome(layout(sample)) != boundary.refused
    for row, payload in payloads.items():
        assert payload != layout(sample), row
        assert outcome(payload) == boundary.refused, row


# -- the record files ------------------------------------------------------------

def test_the_record_files_load_and_resave_to_the_same_bytes(tmp_path):
    db = PcsDatabase.load(RECORD_FILES / "pcs.json")
    assert (len(db.platforms), len(db.revoked)) == (2, 1)
    db.save(tmp_path / "pcs.json")
    assert (tmp_path / "pcs.json").read_bytes() == (RECORD_FILES / "pcs.json").read_bytes()

    platform, chain = pcs_service.load_identity(RECORD_FILES / "identity.json")
    assert db.fetch(platform.platform_id)[0] == chain
    pcs_service.save_identity(tmp_path / "identity.json", platform, chain)
    assert (tmp_path / "identity.json").read_bytes() \
        == (RECORD_FILES / "identity.json").read_bytes()

    body = (RECORD_FILES / "vault_body.json").read_bytes()
    vault = provisioning.read_vault_body(body)
    assert vault.names() == ["pfs-master", "vendor-key"]
    assert provisioning.vault_body(vault) == body

    workload = (RECORD_FILES / "workload.json").read_bytes()
    assert codec.load(WorkloadSpec.RECORD, workload).to_json() == workload


def test_an_identity_file_in_field_order_loads_to_the_same_value():
    """Identity files were once written in field order, not sorted; one
    such file loads to the same value as its sorted form."""
    data = (RECORD_FILES / "identity.json").read_bytes()
    value = codec.load(pcs_service.IDENTITY, data)
    in_field_order = json.dumps(pcs_service.IDENTITY.encode(value), indent=2).encode() + b"\n"
    assert in_field_order != data
    assert codec.load(pcs_service.IDENTITY, in_field_order) == value


# the record of each record file
RECORD_FILE_KINDS = {"pcs.json": attestation.DATABASE_FILE, "identity.json": pcs_service.IDENTITY,
                     "vault_body.json": provisioning.VAULT, "workload.json": WorkloadSpec.RECORD}


def dumps_repeating(value, target, path=()) -> str:
    """JSON of `value` in which the object at `path` `target` (a tuple of
    keys and indices) repeats its first key, with the same value."""
    if isinstance(value, dict):
        items = [f"{json.dumps(k)}:{dumps_repeating(v, target, path + (k,))}"
                 for k, v in value.items()]
        return "{" + ",".join(items[:1] * (path == target) + items) + "}"
    if isinstance(value, list):
        return "[" + ",".join(dumps_repeating(v, target, path + (i,))
                              for i, v in enumerate(value)) + "]"
    return json.dumps(value)


def object_paths(value, path=()):
    """The path of every non-empty object in `value`."""
    if isinstance(value, dict) and value:
        yield path
    items = value.items() if isinstance(value, dict) else enumerate(value) \
        if isinstance(value, list) else ()
    for key, item in items:
        yield from object_paths(item, path + (key,))


@pytest.mark.parametrize("name", sorted(RECORD_FILE_KINDS))
def test_a_record_file_that_repeats_a_key_is_refused(name):
    kind, value = RECORD_FILE_KINDS[name], json.loads((RECORD_FILES / name).read_bytes())
    codec.load(kind, dumps_repeating(value, None).encode())
    paths = list(object_paths(value))
    assert paths
    for path in paths:
        repeated = dumps_repeating(value, path).encode()
        with pytest.raises(ValueError, match="repeated key"):
            codec.load(kind, repeated)
        if name == "vault_body.json":
            with pytest.raises(provisioning.VaultError, match="repeated key"):
                provisioning.read_vault_body(repeated)


def test_a_policy_that_its_record_cannot_hold_is_never_built():
    root = b"\x01" * 32
    for kwargs in ({"expected_mr_enclave": b"\xab\xcd"}, {"expected_mr_signer": b"\x00" * 33},
                   {"min_isv_svn": -5}, {"min_tcb_level": 99999999999},
                   {"min_isv_svn": True}, {"accepted_root": b"\x01" * 31}):
        with pytest.raises(ValueError):
            VerificationPolicy(**{"accepted_root": root, **kwargs})
