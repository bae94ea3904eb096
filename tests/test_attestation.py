import json
import os
import random
import stat
import sys
import threading
from dataclasses import replace
from pathlib import Path

import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from enclavesim import attestation, crypto, pcs_service, provisioning, wire
from enclavesim.attestation import (
    FAILURE_REASONS,
    QUOTE_SIZE,
    CertChain,
    Certificate,
    Crl,
    PcsDatabase,
    Quote,
    UnknownPlatformError,
    VerificationPolicy,
    quote_generate,
    quote_verify,
    replace_atomically,
)

NOW = 1_700_000_000
MRE = b"\x11" * 32
MRS = b"\x22" * 32


@pytest.fixture(scope="module")
def pcs():
    return PcsDatabase.create(now=NOW)


@pytest.fixture()
def registered(pcs):
    platform, chain = pcs.register(tcb_level=5, now=NOW)
    return pcs, platform, chain


def policy_for(pcs, **kw):
    defaults = dict(accepted_root=pcs.root_public_key, expected_mr_enclave=MRE,
                    expected_mr_signer=MRS, min_isv_svn=1, min_tcb_level=1)
    defaults.update(kw)
    return VerificationPolicy(**defaults)


def make_quote(platform, mre=MRE, mrs=MRS, svn=3, report=b"\x00" * 64):
    return quote_generate(platform, mre, mrs, svn, report)


# -- registry -----------------------------------------------------------

def test_register_then_fetch_same_chain(registered):
    pcs, platform, chain = registered
    fetched, _ = pcs.fetch(platform.platform_id)
    assert fetched == chain


def test_two_registrations_distinct_ids(pcs):
    a, _ = pcs.register(tcb_level=1, now=NOW)
    b, _ = pcs.register(tcb_level=1, now=NOW)
    assert a.platform_id != b.platform_id


def test_registered_chain_passes_verification(registered):
    pcs, platform, chain = registered
    result = quote_verify(make_quote(platform), chain, pcs.current_crl(),
                          policy_for(pcs), now=NOW)
    assert result is None


def test_fetch_unknown_platform(pcs):
    with pytest.raises(UnknownPlatformError):
        pcs.fetch(b"\x00" * 16)


def test_revoke_unknown_platform(pcs):
    with pytest.raises(UnknownPlatformError):
        pcs.revoke(b"\x00" * 16)


def test_fetch_after_revoke_lists_platform(pcs):
    platform, _ = pcs.register(tcb_level=1, now=NOW)
    pcs.revoke(platform.platform_id)
    _, crl = pcs.fetch(platform.platform_id)
    assert platform.platform_id in crl.revoked


def test_crl_sequence_monotone(pcs):
    a, _ = pcs.register(tcb_level=1, now=NOW)
    b, _ = pcs.register(tcb_level=1, now=NOW)
    s0 = pcs.current_crl().sequence
    s1 = pcs.revoke(a.platform_id).sequence
    s2 = pcs.revoke(b.platform_id).sequence
    assert s0 < s1 < s2


def test_revoke_idempotent_set_sequence_still_increments(pcs):
    platform, _ = pcs.register(tcb_level=1, now=NOW)
    crl1 = pcs.revoke(platform.platform_id)
    crl2 = pcs.revoke(platform.platform_id)
    assert crl1.revoked == crl2.revoked
    assert crl2.sequence == crl1.sequence + 1


def test_revoked_platform_quote_fails(pcs):
    platform, chain = pcs.register(tcb_level=5, now=NOW)
    pcs.revoke(platform.platform_id)
    result = quote_verify(make_quote(platform), chain, pcs.current_crl(),
                          policy_for(pcs), now=NOW)
    assert result == "revoked"


def test_database_roundtrip(tmp_path, pcs):
    platform, _ = pcs.register(tcb_level=4, now=NOW)
    path = tmp_path / "pcs.json"
    pcs.save(path)
    again = PcsDatabase.load(path)
    chain, crl = again.fetch(platform.platform_id)
    assert chain == pcs.fetch(platform.platform_id)[0]
    assert crl.sequence == pcs.current_crl().sequence
    assert quote_verify(make_quote(platform), chain, crl, policy_for(again), now=NOW) is None


def test_database_file_reloads_and_resaves_to_the_same_bytes(tmp_path):
    db = PcsDatabase.create(now=NOW)
    a, _ = db.register(tcb_level=3, now=NOW)
    b, _ = db.register(tcb_level=7, now=NOW + 1)
    db.revoke(a.platform_id)
    db.revoke(b.platform_id)
    first, second = tmp_path / "first.json", tmp_path / "second.json"
    db.save(first)
    again = PcsDatabase.load(first)
    again.save(second)
    assert second.read_bytes() == first.read_bytes()
    assert again.current_crl() == db.current_crl()
    assert again.revoked == {a.platform_id, b.platform_id}
    saved = json.loads(first.read_text())
    assert saved["crl_sequence"] == 2
    assert saved["platforms"][b.platform_id.hex()]["tcb_level"] == 7
    assert saved["platforms"][b.platform_id.hex()]["public_key"] \
        == b.signing_key.public.hex()


def test_failed_save_leaves_the_old_database(tmp_path, monkeypatch):
    db = PcsDatabase.create(now=NOW)
    platform, _ = db.register(tcb_level=4, now=NOW)
    path = tmp_path / "pcs.json"
    db.save(path)
    before = path.read_bytes()
    db.register(tcb_level=5, now=NOW)

    def write_then_fail(tmp, data):
        with open(tmp, "wb") as fh:
            fh.write(b'{"ca_key": ')
        raise OSError("disk full")

    monkeypatch.setattr(Path, "write_bytes", write_then_fail)
    with pytest.raises(OSError, match="disk full"):
        db.save(path)
    assert path.read_bytes() == before
    assert list(tmp_path.iterdir()) == [path]
    assert list(PcsDatabase.load(path).platforms) == [platform.platform_id]


# -- quotes -------------------------------------------------------------

def test_quote_fields_echo_inputs(registered):
    _, platform, _ = registered
    q = quote_generate(platform, MRE, MRS, 7, b"\x42" * 64)
    assert (q.mr_enclave, q.mr_signer, q.isv_svn) == (MRE, MRS, 7)
    assert q.report_data == b"\x42" * 64
    assert q.platform_id == platform.platform_id
    assert q.tcb_level == platform.tcb_level


def test_quote_report_data_length_enforced(registered):
    _, platform, _ = registered
    with pytest.raises(ValueError):
        quote_generate(platform, MRE, MRS, 1, b"\x00" * 63)


def test_two_quotes_over_same_fields_both_verify(registered):
    pcs, platform, chain = registered
    crl, pol = pcs.current_crl(), policy_for(pcs)
    for q in (make_quote(platform), make_quote(platform)):
        assert quote_verify(q, chain, crl, pol, now=NOW) is None


def test_quote_pack_unpack_roundtrip(registered):
    _, platform, _ = registered
    q = make_quote(platform)
    assert Quote.unpack(q.pack()) == q


def test_tcb_threshold(registered):
    pcs, platform, chain = registered
    pol = policy_for(pcs, min_tcb_level=platform.tcb_level + 1)
    result = quote_verify(make_quote(platform), chain, pcs.current_crl(), pol, now=NOW)
    assert result == "tcb_too_low"


# -- the 8-reason fault matrix -------------------------------------------

def test_fault_injection_matrix(pcs):
    platform, chain = pcs.register(tcb_level=5, now=NOW)
    crl = pcs.current_crl()
    pol = policy_for(pcs)
    quote = make_quote(platform)
    baseline = quote_verify(quote, chain, crl, pol, NOW)
    assert baseline is None

    other_root = crypto.sign_generate()

    def wrong_root():
        return quote, chain, crl, policy_for(pcs, accepted_root=other_root.public), NOW

    def tampered_leaf_signature():
        leaf = chain.attestation_key_cert
        bad = replace(leaf, signature=bytes(64))
        return quote, CertChain(chain.root_cert, chain.platform_ca_cert, bad), crl, pol, NOW

    def expired_leaf():
        return quote, chain, crl, pol, chain.attestation_key_cert.not_after + 1

    def revoked_platform():
        victim, victim_chain = pcs.register(tcb_level=5, now=NOW)
        new_crl = pcs.revoke(victim.platform_id)
        return make_quote(victim), victim_chain, new_crl, pol, NOW

    def tampered_quote_field():
        bad = replace(quote, report_data=b"\x99" * 64)  # signature now stale
        return bad, chain, crl, pol, NOW

    def wrong_mr_enclave():
        return make_quote(platform, mre=b"\xaa" * 32), chain, crl, pol, NOW

    def wrong_mr_signer():
        return make_quote(platform, mrs=b"\xbb" * 32), chain, crl, pol, NOW

    def svn_below_min():
        return make_quote(platform, svn=0), chain, crl, pol, NOW

    def tcb_below_min():
        low, low_chain = pcs.register(tcb_level=0, now=NOW)
        return make_quote(low), low_chain, pcs.current_crl(), pol, NOW

    cases = [
        ("bad_chain", wrong_root),
        ("bad_chain", tampered_leaf_signature),
        ("expired", expired_leaf),
        ("revoked", revoked_platform),
        ("bad_quote_sig", tampered_quote_field),
        ("mr_enclave_mismatch", wrong_mr_enclave),
        ("mr_signer_mismatch", wrong_mr_signer),
        ("svn_too_low", svn_below_min),
        ("tcb_too_low", tcb_below_min),
    ]
    seen = set()
    for expected, build in cases:
        result = quote_verify(*build())
        assert result == expected, f"{build.__name__}: {result}"
        seen.add(expected)
    assert seen == {"bad_chain", "revoked", "expired", "bad_quote_sig",
                    "mr_enclave_mismatch", "mr_signer_mismatch",
                    "svn_too_low", "tcb_too_low"}


# (certificate, field, value): a chain whose certificate names its subject or
# issuer wrongly, or has no TCB level, though every signature in it is good
MISNAMED = [("root", "subject", "sim-pcs-other-root"), ("root", "issuer", "sim-pcs-other-root"),
            ("platform_ca", "issuer", "sim-pcs-other-root"),
            ("attestation_key", "issuer", "sim-pcs-other-ca"),
            ("attestation_key", "subject", "node:" + "ab" * 16),
            ("attestation_key", "tcb_level", None)]


@pytest.mark.parametrize("cert,field,value", MISNAMED, ids=[f"{c}-{f}" for c, f, _ in MISNAMED])
def test_a_correctly_signed_but_misnamed_chain_is_bad_chain(registered, cert, field, value):
    pcs, platform, chain = registered
    signer = pcs.root_key if cert in ("root", "platform_ca") else pcs.ca_key
    attr = {"root": "root_cert", "platform_ca": "platform_ca_cert",
            "attestation_key": "attestation_key_cert"}[cert]
    misnamed = attestation._sign(replace(getattr(chain, attr), **{field: value}), signer)
    forged = replace(chain, **{attr: misnamed})
    assert attestation._signed_by(misnamed, signer.public)
    assert quote_verify(make_quote(platform), forged, pcs.current_crl(), policy_for(pcs),
                        NOW) == "bad_chain"


@pytest.mark.parametrize("registered_at,verified_at", [
    (NOW + attestation.DEFAULT_CA_VALIDITY - 100, NOW + attestation.DEFAULT_CA_VALIDITY + 1),
    (NOW - 1000, NOW - 500),
], ids=["root-and-ca-expired", "root-and-ca-not-yet-valid"])
def test_a_chain_with_a_root_or_ca_outside_its_validity_is_expired(registered_at, verified_at):
    # register keeps a leaf inside its CA's window, so this leaf is issued by hand
    pcs = PcsDatabase.create(now=NOW)
    platform, chain = pcs.register(tcb_level=5, now=NOW)
    leaf = attestation._issue(chain.attestation_key_cert.subject, platform.public_key,
                              attestation.CA_SUBJECT, pcs.ca_key, registered_at,
                              registered_at + attestation.DEFAULT_LEAF_VALIDITY, tcb_level=5)
    chain = replace(chain, attestation_key_cert=leaf)
    assert leaf.not_before <= verified_at <= leaf.not_after
    result = quote_verify(make_quote(platform), chain, pcs.current_crl(), policy_for(pcs),
                          now=verified_at)
    assert result == "expired"


@pytest.mark.parametrize("registered_at", [
    NOW + attestation.DEFAULT_CA_VALIDITY - 100,
    NOW + attestation.DEFAULT_CA_VALIDITY,
    NOW,
], ids=["100s-before-ca-expiry", "at-ca-expiry", "at-ca-start"])
def test_a_registered_leaf_stays_inside_its_ca_window(registered_at):
    pcs = PcsDatabase.create(now=NOW)
    platform, chain = pcs.register(tcb_level=5, now=registered_at)
    ca, leaf = chain.platform_ca_cert, chain.attestation_key_cert
    assert leaf.not_before == registered_at
    assert leaf.not_after == min(registered_at + attestation.DEFAULT_LEAF_VALIDITY,
                                 ca.not_after)
    assert ca.not_before <= leaf.not_before <= leaf.not_after <= ca.not_after
    assert quote_verify(make_quote(platform), chain, pcs.current_crl(), policy_for(pcs),
                        now=leaf.not_after) is None


@pytest.mark.parametrize("registered_at", [
    NOW - 1, NOW - 1000, NOW + attestation.DEFAULT_CA_VALIDITY + 1,
], ids=["1s-before-ca-start", "1000s-before-ca-start", "1s-after-ca-expiry"])
def test_registering_outside_the_ca_window_is_refused(registered_at):
    pcs = PcsDatabase.create(now=NOW)
    with pytest.raises(ValueError, match="outside the CA's validity"):
        pcs.register(tcb_level=5, now=registered_at)
    assert pcs.platforms == {}


def test_a_platform_identity_repr_hides_its_private_key(registered):
    _, platform, _ = registered
    text = repr(platform)
    assert repr(platform.private_key) not in text
    assert platform.private_key.hex() not in text
    assert repr(platform.public_key) in text


def test_failure_reason_deterministic(pcs):
    platform, chain = pcs.register(tcb_level=0, now=NOW)
    quote = make_quote(platform, svn=0)  # violates svn AND tcb; svn checked first
    pol = policy_for(pcs)
    results = {quote_verify(quote, chain, pcs.current_crl(), pol, NOW)
               for _ in range(5)}
    assert results == {"svn_too_low"}


def test_revoked_platform_cannot_dodge_crl_by_lying_about_id(pcs):
    villain, chain = pcs.register(tcb_level=5, now=NOW)
    crl = pcs.revoke(villain.platform_id)
    quote = make_quote(villain)
    # villain signs a quote claiming an unrevoked platform id
    forged = replace(quote, platform_id=b"\x77" * 16)
    forged = replace(forged, signature=crypto.sign(
        villain.signing_key, b"quote-v1" + forged.body()))
    result = quote_verify(forged, chain, crl, policy_for(pcs), NOW)
    assert result in ("revoked", "bad_quote_sig")


# -- soundness / completeness ----------------------------------------------

def test_honest_quotes_always_verify(pcs):
    rng = random.Random(47)
    for _ in range(50):
        platform, chain = pcs.register(tcb_level=rng.randint(1, 9), now=NOW)
        quote = quote_generate(platform, MRE, MRS, rng.randint(1, 9), rng.randbytes(64))
        assert quote_verify(quote, chain, pcs.current_crl(), policy_for(pcs), NOW) is None


def test_random_forgeries_never_verify(pcs):
    # unregistered keys signing quotes, tampered quote bytes, swapped-in
    # certificates: none may verify (soundness)
    rng = random.Random(53)
    platform, chain = pcs.register(tcb_level=5, now=NOW)
    crl = pcs.current_crl()
    pol = policy_for(pcs)
    honest = make_quote(platform)

    trials = 2000
    for _ in range(trials):
        mode = rng.randrange(3)
        q, c = honest, chain
        if mode == 0:
            # random bit flip somewhere in the packed quote
            raw = bytearray(honest.pack())
            raw[rng.randrange(len(raw))] ^= 1 << rng.randrange(8)
            q = Quote.unpack(bytes(raw))
        elif mode == 1:
            # quote signed by a rogue, unregistered key
            rogue = crypto.sign_generate()
            body = replace(honest, platform_id=rng.randbytes(16), signature=b"")
            q = replace(body, signature=crypto.sign(rogue, b"quote-v1" + body.body()))
        else:
            # leaf certificate swapped for a self-made one
            rogue = crypto.sign_generate()
            fake_leaf = Certificate(
                subject=f"platform:{rng.randbytes(16).hex()}",
                issuer="sim-pcs-platform-ca", public_key=rogue.public,
                not_before=NOW, not_after=NOW + 1000, tcb_level=9,
                signature=rng.randbytes(64))
            c = CertChain(chain.root_cert, chain.platform_ca_cert, fake_leaf)
            body = replace(honest, signature=b"")
            q = replace(body, signature=crypto.sign(rogue, b"quote-v1" + body.body()))
        assert quote_verify(q, c, crl, pol, NOW) is not None, f"forgery accepted in mode {mode}"


@pytest.fixture(scope="module")
def evidence(pcs):
    platform, chain = pcs.register(tcb_level=5, now=NOW)
    return make_quote(platform), json.dumps({"chain": CertChain.RECORD.encode(chain),
                                             "crl": Crl.RECORD.encode(pcs.current_crl())})


json_values = st.recursive(
    st.none() | st.booleans() | st.integers() | st.floats() | st.text(max_size=20),
    lambda inner: st.lists(inner, max_size=3) | st.dictionaries(st.text(max_size=8), inner,
                                                                 max_size=3),
    max_leaves=8)
EVIDENCE_FIELDS = [("chain", cert, field)
                   for cert in ("root", "platform_ca", "attestation_key")
                   for field in ("subject", "issuer", "public_key", "not_before",
                                 "not_after", "tcb_level", "signature")] + [
    ("crl", None, field) for field in ("issuer", "sequence", "revoked", "signature")]


@settings(max_examples=300, deadline=None)
@given(edits=st.lists(st.tuples(st.sampled_from(EVIDENCE_FIELDS),
                                json_values | st.binary(max_size=80).map(bytes.hex)),
                      max_size=4))
def test_quote_verify_never_raises_on_decodable_evidence(pcs, evidence, edits):
    quote, pristine = evidence
    doc = json.loads(pristine)
    for (part, cert, field), value in edits:
        (doc[part][cert] if cert else doc[part])[field] = value
    try:
        chain, crl = CertChain.RECORD.decode(doc["chain"]), Crl.RECORD.decode(doc["crl"])
    except wire.DECODE_ERRORS:
        return
    result = quote_verify(quote, chain, crl, policy_for(pcs), NOW)
    assert result is None or result in FAILURE_REASONS


@settings(max_examples=200, deadline=None)
@given(raw=st.binary(max_size=2 * QUOTE_SIZE)
       | st.binary(min_size=QUOTE_SIZE, max_size=QUOTE_SIZE))
def test_quote_unpack_raises_only_value_error(raw):
    try:
        quote = Quote.unpack(raw)
    except ValueError:
        assert len(raw) != QUOTE_SIZE
        return
    assert quote.pack() == raw


def test_crl_signature_required(pcs):
    platform, chain = pcs.register(tcb_level=5, now=NOW)
    crl = pcs.current_crl()
    forged_crl = Crl(crl.issuer, crl.sequence + 1,
                     frozenset(crl.revoked), signature=bytes(64))
    result = quote_verify(make_quote(platform), chain, forged_crl, policy_for(pcs), NOW)
    assert result == "bad_chain"


def test_signed_payloads_are_the_pinned_canonical_bytes():
    cert = Certificate(subject="sim-platform-01", issuer="sim-pcs-platform-ca",
                       public_key=bytes(range(32)), not_before=1000, not_after=2000,
                       tcb_level=2, signature=b"\xaa" * 64)
    assert cert.signed_payload() == (
        b'cert-v1{"issuer":"sim-pcs-platform-ca","not_after":2000,"not_before":1000,'
        b'"public_key":"000102030405060708090a0b0c0d0e0f101112131415161718191a1b1c1d1e1f",'
        b'"subject":"sim-platform-01","tcb_level":2}')
    root = replace(cert, subject="sim-pcs-root", issuer="sim-pcs-root",
                   public_key=b"\x11" * 32, not_before=0, not_after=10,
                   tcb_level=None, signature=b"")
    assert root.signed_payload() == (
        b'cert-v1{"issuer":"sim-pcs-root","not_after":10,"not_before":0,'
        b'"public_key":"1111111111111111111111111111111111111111111111111111111111111111",'
        b'"subject":"sim-pcs-root","tcb_level":null}')
    crl = Crl(issuer="sim-pcs-platform-ca", sequence=3,
              revoked=frozenset([b"\x02" * 16, b"\x01" * 16]), signature=b"\xbb" * 64)
    assert crl.signed_payload() == (
        b'crl-v1{"issuer":"sim-pcs-platform-ca","revoked":'
        b'["01010101010101010101010101010101","02020202020202020202020202020202"],'
        b'"sequence":3}')


# -- the memo of successful signature checks --------------------------------

def flip_bit(value, bit: int):
    """`value` with one bit flipped; None (a root or CA tcb_level) becomes
    a set bit of an integer."""
    if value is None:
        return 1 << bit % 32
    if isinstance(value, bytes):
        raw = bytearray(value)
        raw[bit // 8 % len(raw)] ^= 1 << bit % 8
        return bytes(raw)
    if isinstance(value, str):
        i = bit // 7 % len(value)
        return value[:i] + chr(ord(value[i]) ^ 1 << bit % 7) + value[i + 1:]
    if isinstance(value, frozenset):
        first, *rest = sorted(value)
        return frozenset([flip_bit(first, bit), *rest])
    return value ^ 1 << bit % 32


CERT_FIELDS = ("subject", "issuer", "public_key", "not_before", "not_after",
               "tcb_level", "signature")
CHAIN_PARTS = ("root_cert", "platform_ca_cert", "attestation_key_cert")


@pytest.fixture(scope="module")
def genuine(pcs):
    """A genuine quote, chain, CRL (listing another platform) and policy."""
    pcs.revoke(pcs.register(tcb_level=5, now=NOW)[0].platform_id)
    platform, chain = pcs.register(tcb_level=5, now=NOW)
    return make_quote(platform), chain, pcs.current_crl(), policy_for(pcs)


@settings(max_examples=300, deadline=None)
@given(target=st.sampled_from([(part, field) for part in CHAIN_PARTS for field in CERT_FIELDS]
                              + [("crl", f) for f in ("issuer", "sequence", "revoked",
                                                      "signature")]
                              + [("quote", "packed")]
                              + [(part, "swapped_key") for part in CHAIN_PARTS]),
       bit=st.integers(0, QUOTE_SIZE * 8 - 1))
def test_memo_never_changes_a_verdict(genuine, target, bit):
    quote, chain, crl, pol = genuine
    assert quote_verify(quote, chain, crl, pol, NOW) is None  # every record is in the memo
    part, field = target
    if part == "quote":
        quote = Quote.unpack(flip_bit(quote.pack(), bit))
    elif part == "crl":
        crl = replace(crl, **{field: flip_bit(getattr(crl, field), bit)})
    else:
        cert = getattr(chain, part)
        if field == "swapped_key":
            cert = replace(cert, public_key=crypto.sign_generate().public)
        else:
            cert = replace(cert, **{field: flip_bit(getattr(cert, field), bit)})
        chain = replace(chain, **{part: cert})
    warm = quote_verify(quote, chain, crl, pol, NOW)
    attestation._verified.cache_clear()
    cold = quote_verify(quote, chain, crl, pol, NOW)
    assert warm is not None
    assert warm == cold


def test_memo_keeps_the_most_recent_successes(pcs, verify_calls):
    platform, chain = pcs.register(tcb_level=5, now=NOW)
    crl, pol = pcs.current_crl(), policy_for(pcs)
    quotes = [make_quote(platform, report=i.to_bytes(64, "big"))
              for i in range(attestation.VERIFIED_MEMO_SIZE + 8)]
    assert quote_verify(quotes[0], chain, crl, pol, NOW) is None
    verify_calls.clear()
    for quote in quotes[1:]:
        assert quote_verify(quote, chain, crl, pol, NOW) is None
    # each new quote costs one check: the chain and the CRL stay recently used
    assert len(verify_calls) == len(quotes) - 1
    assert attestation._verified.cache_info().currsize == attestation.VERIFIED_MEMO_SIZE
    verify_calls.clear()
    assert quote_verify(quotes[-1], chain, crl, pol, NOW) is None
    assert verify_calls == []
    assert quote_verify(quotes[0], chain, crl, pol, NOW) is None  # evicted long ago
    assert len(verify_calls) == 1
    assert attestation._verified.cache_info().currsize == attestation.VERIFIED_MEMO_SIZE


def test_concurrent_checks_get_the_serial_answers(pcs):
    platform, chain = pcs.register(tcb_level=5, now=NOW)
    key = platform.public_key
    good = [make_quote(platform, report=i.to_bytes(64, "big"))
            for i in range(attestation.VERIFIED_MEMO_SIZE + 64)]
    bad = [replace(q, signature=flip_bit(q.signature, i)) for i, q in enumerate(good[:64])]
    records = good + bad
    random.Random(27).shuffle(records)
    expected = [crypto.verify(key, r.signed_payload(), r.signature) for r in records]
    attestation._verified.cache_clear()
    start = threading.Barrier(4)
    answers = {}

    def check(offset):  # each thread walks the mix from its own offset, twice
        start.wait()
        order = [(offset + i) % len(records) for i in range(2 * len(records))]
        answers[offset] = [(i, attestation._signed_by(records[i], key)) for i in order]

    threads = [threading.Thread(target=check, args=(k * len(records) // 4,)) for k in range(4)]
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)  # switch threads often, inside the memo's own steps too
    try:
        for t in threads:
            t.start()
        for t in threads:
            t.join(timeout=60)
    finally:
        sys.setswitchinterval(interval)
    assert not any(t.is_alive() for t in threads) and len(answers) == 4
    for got in answers.values():
        assert [ok for _, ok in got] == [expected[i] for i, _ in got]
    info = attestation._verified.cache_info()
    assert info.currsize <= attestation.VERIFIED_MEMO_SIZE
    assert not attestation._signed_by(bad[0], key)  # a bad record still costs a real verify
    assert attestation._verified.cache_info().misses == info.misses + 1


QUOTE_FIELDS = ("mr_enclave", "mr_signer", "isv_svn", "report_data", "platform_id",
                "tcb_level", "signature")
SIGNED_RECORDS = ([(part, field) for part in CHAIN_PARTS for field in CERT_FIELDS]
                  + [("crl", f) for f in ("issuer", "sequence", "revoked", "signature")]
                  + [("quote", f) for f in QUOTE_FIELDS])


def signed_records(quote, chain, crl):
    """{part: (record, the public key its signature must verify under)}"""
    return {"root_cert": (chain.root_cert, chain.root_cert.public_key),
            "platform_ca_cert": (chain.platform_ca_cert, chain.root_cert.public_key),
            "attestation_key_cert": (chain.attestation_key_cert,
                                     chain.platform_ca_cert.public_key),
            "crl": (crl, chain.platform_ca_cert.public_key),
            "quote": (quote, chain.attestation_key_cert.public_key)}


def with_record(quote, chain, crl, part, record):
    """(quote, chain, crl) with `part` replaced by `record`."""
    if part == "quote":
        return record, chain, crl
    if part == "crl":
        return quote, chain, record
    return quote, replace(chain, **{part: record}), crl


# verify_calls is cleared before each count, so one list serves every example
@settings(max_examples=200, deadline=None,
          suppress_health_check=[HealthCheck.function_scoped_fixture])
@given(target=st.sampled_from(SIGNED_RECORDS), bit=st.integers(0, 64 * 8 - 1))
def test_the_memo_answers_for_an_equal_record_and_never_for_an_edited_one(
        genuine, verify_calls, target, bit):
    quote, chain, crl, pol = genuine
    assert quote_verify(quote, chain, crl, pol, NOW) is None  # every record is in the memo
    copies = (replace(quote), replace(chain, **{p: replace(getattr(chain, p))
                                                for p in CHAIN_PARTS}), replace(crl))
    verify_calls.clear()
    assert quote_verify(*copies, pol, NOW) is None
    assert verify_calls == []

    part, field = target
    record, signer = signed_records(quote, chain, crl)[part]
    edited = replace(record, **{field: flip_bit(getattr(record, field), bit)})
    assert not attestation._signed_by(edited, signer)
    assert len(verify_calls) == 1
    evidence = with_record(quote, chain, crl, part, edited)
    verify_calls.clear()
    warm = quote_verify(*evidence, pol, NOW)
    assert len(verify_calls) <= 1  # each unchanged record is a hit
    attestation._verified.cache_clear()
    cold = quote_verify(*evidence, pol, NOW)
    assert warm is not None
    assert warm == cold


# -- files that hold keys ------------------------------------------------------

# each file the program writes that holds a private key or a secret
KEY_FILE_WRITERS = {
    "pcs.json": lambda path, pcs, platform, chain: pcs.save(path),
    "identity.json": lambda path, pcs, platform, chain:
        pcs_service.save_identity(path, platform, chain),
    "vault.pfs": lambda path, pcs, platform, chain:
        provisioning.vault_save(provisioning.KeyVault(), path, "passphrase"),
}


@pytest.mark.parametrize("stale_tmp", [False, True], ids=["fresh", "stale-tmp"])
@pytest.mark.parametrize("name", sorted(KEY_FILE_WRITERS))
def test_files_that_hold_keys_are_owner_only(tmp_path, registered, name, stale_tmp):
    path = tmp_path / name
    tmp = tmp_path / f"{name}.tmp"
    if stale_tmp:  # left by an interrupted save, with a wider mode
        tmp.write_bytes(b"stale")
        tmp.chmod(0o644)
    umask = os.umask(0o022)
    try:
        KEY_FILE_WRITERS[name](path, *registered)
    finally:
        os.umask(umask)
    assert stat.S_IMODE(path.stat().st_mode) == 0o600
    # each save writes a temp file of its own, so a stale one is never opened
    assert sorted(os.listdir(tmp_path)) == [name, f"{name}.tmp"][:1 + stale_tmp]
    if stale_tmp:
        assert tmp.read_bytes() == b"stale"
        assert stat.S_IMODE(tmp.stat().st_mode) == 0o644


def test_a_replace_is_made_durable_by_an_fsync_of_its_directory(tmp_path, monkeypatch):
    events, fsync, replace_file = [], os.fsync, os.replace

    def traced_fsync(fd):
        events.append(("fsync", os.fstat(fd).st_ino))
        fsync(fd)

    def traced_replace(src, dst):
        events.append(("replace", os.fspath(dst)))
        replace_file(src, dst)

    monkeypatch.setattr(os, "fsync", traced_fsync)
    monkeypatch.setattr(os, "replace", traced_replace)
    path = tmp_path / "state.json"
    replace_atomically(path, lambda tmp: Path(tmp).write_bytes(b"{}"))
    assert events == [("fsync", path.stat().st_ino), ("replace", os.fspath(path)),
                      ("fsync", tmp_path.stat().st_ino)]


def test_two_saves_of_one_path_never_share_a_temp_file(tmp_path, monkeypatch):
    """Writer B's save begins while writer A's bytes wait for their rename:
    A returns with its own bytes in place, and B's fsync covers the file
    that B renames."""
    path = tmp_path / "vault.pfs"
    a_written, b_writing, a_returned = (threading.Event() for _ in range(3))
    synced, fsync = {}, os.fsync

    def traced_fsync(fd):
        synced.setdefault(threading.current_thread().name, []).append(os.fstat(fd).st_ino)
        fsync(fd)

    def write_a(tmp):
        Path(tmp).write_bytes(b"A" * 100)
        a_written.set()
        b_writing.wait(5)

    def write_b(tmp):
        b_writing.set()
        a_returned.wait(5)
        Path(tmp).write_bytes(b"B" * 50)

    monkeypatch.setattr(os, "fsync", traced_fsync)
    a = threading.Thread(target=replace_atomically, args=(path, write_a), name="A")
    b = threading.Thread(target=replace_atomically, args=(path, write_b), name="B")
    a.start()
    assert a_written.wait(5)
    b.start()
    a.join(10)
    try:
        assert path.read_bytes() == b"A" * 100
    finally:
        a_returned.set()
        b.join(10)
    assert path.read_bytes() == b"B" * 50
    assert synced["B"][0] == path.stat().st_ino
    assert os.listdir(tmp_path) == ["vault.pfs"]
