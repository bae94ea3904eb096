"""Simulated attestation infrastructure: platform registry (mock PCS),
certificate chains, revocation lists, quotes and quote verification.

Certificates form a fixed three-level chain (root -> platform CA ->
per-platform attestation key). They are compact JSON structures signed
with Ed25519, not X.509. TCB freshness is one monotone integer. The
clock is always an explicit argument so expiry is deterministic.
"""

from __future__ import annotations

import json
import os
import struct
import threading
from collections import OrderedDict
from dataclasses import dataclass, replace

from . import crypto, wire

QUOTE_REPORT_DATA_SIZE = 64
QUOTE_BODY = struct.Struct(">32s32sI64s16sI")
QUOTE_SIZE = QUOTE_BODY.size + crypto.SIGNATURE_SIZE

ROOT_SUBJECT = "sim-pcs-root"
CA_SUBJECT = "sim-pcs-platform-ca"

DEFAULT_CA_VALIDITY = 10 * 365 * 86400
DEFAULT_LEAF_VALIDITY = 365 * 86400

VERIFIED_MEMO_SIZE = 256  # successful signature checks _signed_by remembers

FAILURE_REASONS = ("bad_chain", "revoked", "expired", "bad_quote_sig",
                   "mr_enclave_mismatch", "mr_signer_mismatch",
                   "svn_too_low", "tcb_too_low")


class UnknownPlatformError(Exception):
    pass


def _fixed_hex(value: str, size: int) -> bytes:
    """The bytes of hex string `value`, which must encode exactly `size`."""
    raw = bytes.fromhex(value)
    if len(raw) != size:
        raise ValueError(f"{len(raw)} bytes where {size} are required")
    return raw


class _JsonSigned:
    """A record signed over its context label followed by the canonical
    JSON of every field of `to_dict()` except the signature."""

    def signed_payload(self) -> bytes:
        body = self.to_dict()
        del body["signature"]
        return self._CONTEXT + canonical_json(body)


@dataclass(frozen=True)
class Certificate(_JsonSigned):
    _CONTEXT = b"cert-v1"

    subject: str
    issuer: str
    public_key: bytes
    not_before: int
    not_after: int
    tcb_level: int | None
    signature: bytes

    def to_dict(self) -> dict:
        return {
            "subject": self.subject,
            "issuer": self.issuer,
            "public_key": self.public_key.hex(),
            "not_before": self.not_before,
            "not_after": self.not_after,
            "tcb_level": self.tcb_level,
            "signature": self.signature.hex(),
        }

    @classmethod
    def from_dict(cls, d: dict) -> "Certificate":
        if not isinstance(d["subject"], str) or not isinstance(d["issuer"], str):
            raise TypeError("certificate subject and issuer must be strings")
        return cls(
            subject=d["subject"],
            issuer=d["issuer"],
            public_key=bytes.fromhex(d["public_key"]),
            not_before=int(d["not_before"]),
            not_after=int(d["not_after"]),
            tcb_level=None if d.get("tcb_level") is None else int(d["tcb_level"]),
            signature=_fixed_hex(d["signature"], crypto.SIGNATURE_SIZE),
        )


@dataclass(frozen=True)
class CertChain:
    root_cert: Certificate
    platform_ca_cert: Certificate
    attestation_key_cert: Certificate

    def to_dict(self) -> dict:
        return {
            "root": self.root_cert.to_dict(),
            "platform_ca": self.platform_ca_cert.to_dict(),
            "attestation_key": self.attestation_key_cert.to_dict(),
        }

    @classmethod
    def from_dict(cls, d: dict) -> "CertChain":
        return cls(
            root_cert=Certificate.from_dict(d["root"]),
            platform_ca_cert=Certificate.from_dict(d["platform_ca"]),
            attestation_key_cert=Certificate.from_dict(d["attestation_key"]),
        )


@dataclass(frozen=True)
class Crl(_JsonSigned):
    _CONTEXT = b"crl-v1"

    issuer: str
    sequence: int
    revoked: frozenset[bytes]
    signature: bytes

    def to_dict(self) -> dict:
        return {
            "issuer": self.issuer,
            "sequence": self.sequence,
            "revoked": sorted(pid.hex() for pid in self.revoked),
            "signature": self.signature.hex(),
        }

    @classmethod
    def from_dict(cls, d: dict) -> "Crl":
        return cls(
            issuer=d["issuer"],
            sequence=int(d["sequence"]),
            revoked=frozenset(bytes.fromhex(h) for h in d["revoked"]),
            signature=_fixed_hex(d["signature"], crypto.SIGNATURE_SIZE),
        )


@dataclass
class PlatformIdentity:
    """A registered platform: its id, private attestation key, TCB level."""

    platform_id: bytes
    signing_key: crypto.SigningKeyPair
    tcb_level: int


@dataclass(frozen=True)
class Quote:
    mr_enclave: bytes
    mr_signer: bytes
    isv_svn: int
    report_data: bytes
    platform_id: bytes
    tcb_level: int
    signature: bytes

    def body(self) -> bytes:
        return QUOTE_BODY.pack(self.mr_enclave, self.mr_signer, self.isv_svn,
                               self.report_data, self.platform_id, self.tcb_level)

    def signed_payload(self) -> bytes:
        return b"quote-v1" + self.body()

    def pack(self) -> bytes:
        return self.body() + self.signature

    @classmethod
    def unpack(cls, raw: bytes) -> "Quote":
        if len(raw) != QUOTE_SIZE:
            raise ValueError(f"quote must be {QUOTE_SIZE} bytes, got {len(raw)}")
        mr_enclave, mr_signer, isv_svn, report_data, platform_id, tcb = \
            QUOTE_BODY.unpack(raw[:QUOTE_BODY.size])
        return cls(mr_enclave, mr_signer, isv_svn, report_data, platform_id,
                   tcb, raw[QUOTE_BODY.size:])


@dataclass(frozen=True)
class VerificationPolicy:
    """What a verifier demands of a quote. None means "any"."""

    accepted_root: bytes
    expected_mr_enclave: bytes | None = None
    expected_mr_signer: bytes | None = None
    min_isv_svn: int = 0
    min_tcb_level: int = 0

    def to_dict(self) -> dict:
        return {
            "accepted_root": self.accepted_root.hex(),
            "expected_mr_enclave":
                None if self.expected_mr_enclave is None else self.expected_mr_enclave.hex(),
            "expected_mr_signer":
                None if self.expected_mr_signer is None else self.expected_mr_signer.hex(),
            "min_isv_svn": self.min_isv_svn,
            "min_tcb_level": self.min_tcb_level,
        }

    @classmethod
    def from_dict(cls, d: dict) -> "VerificationPolicy":
        def opt(h):
            return None if h is None else bytes.fromhex(h)
        return cls(
            accepted_root=bytes.fromhex(d["accepted_root"]),
            expected_mr_enclave=opt(d.get("expected_mr_enclave")),
            expected_mr_signer=opt(d.get("expected_mr_signer")),
            min_isv_svn=int(d.get("min_isv_svn", 0)),
            min_tcb_level=int(d.get("min_tcb_level", 0)),
        )


@dataclass
class VerificationResult:
    ok: bool
    failure_reason: str | None
    quote: Quote

    def __post_init__(self):
        assert self.ok == (self.failure_reason is None)


def canonical_json(obj) -> bytes:
    return json.dumps(obj, sort_keys=True, separators=(",", ":")).encode("utf-8")


def replace_atomically(path, write) -> None:
    """Call write(tmp) on a sibling temp path, fsync it, then os.replace it
    over `path`: a failure at any point leaves the old file untouched."""
    tmp = f"{os.fspath(path)}.tmp"
    try:
        write(tmp)
        fd = os.open(tmp, os.O_RDONLY)
        try:
            os.fsync(fd)
        finally:
            os.close(fd)
        os.replace(tmp, path)
    except BaseException:
        try:
            os.remove(tmp)
        except FileNotFoundError:
            pass
        raise


def platform_subject(platform_id: bytes) -> str:
    return f"platform:{platform_id.hex()}"


def subject_platform_id(subject: str) -> bytes | None:
    if not subject.startswith("platform:"):
        return None
    try:
        pid = bytes.fromhex(subject[len("platform:"):])
    except ValueError:
        return None
    return pid if len(pid) == 16 else None


def _sign(unsigned, private_key: bytes):
    """`unsigned` (a certificate, CRL or quote) carrying the Ed25519
    signature of its signed_payload() under private_key."""
    return replace(unsigned, signature=crypto.sign(private_key, unsigned.signed_payload()))


# (public key, signature, SHA-256 of the signed payload) of each signature
# that verified, least recently used first; failures are never stored, so
# hostile evidence cannot fill it, and each entry holds 128 bytes
_verified: OrderedDict[tuple[bytes, bytes, bytes], None] = OrderedDict()
_verified_lock = threading.Lock()


def _signed_by(record, public_key: bytes) -> bool:
    """Whether record.signature is public_key's Ed25519 signature over
    record.signed_payload(). Only a repeat of a check of exactly these bytes
    that succeeded skips the Ed25519 work."""
    payload = record.signed_payload()
    key = (public_key, record.signature, crypto.hash_data(payload))
    with _verified_lock:
        if key in _verified:
            _verified.move_to_end(key)
            return True
    if not crypto.verify(public_key, payload, record.signature):
        return False
    with _verified_lock:
        _verified[key] = None
        if len(_verified) > VERIFIED_MEMO_SIZE:
            _verified.popitem(last=False)
    return True


def _issue(subject, subject_key, issuer, issuer_private, not_before, not_after,
           tcb_level=None) -> Certificate:
    return _sign(Certificate(subject, issuer, subject_key, not_before, not_after,
                             tcb_level, signature=b""), issuer_private)


# -- mock PCS -----------------------------------------------------------

class PcsDatabase:
    """The mock Provisioning Certification Service registry. One writer
    lock serializes mutations; persisted as a single JSON file. Each
    platform is its certificate chain; the current signed CRL is the whole
    revocation state."""

    def __init__(self, root_key: crypto.SigningKeyPair,
                 ca_key: crypto.SigningKeyPair,
                 root_cert: Certificate, ca_cert: Certificate,
                 created_at: int):
        self._lock = threading.Lock()
        self.root_key = root_key
        self.ca_key = ca_key
        self.root_cert = root_cert
        self.ca_cert = ca_cert
        self.created_at = created_at
        self.platforms: dict[bytes, CertChain] = {}
        self._crl = _sign(Crl(CA_SUBJECT, 0, frozenset(), b""), ca_key.private)

    @classmethod
    def create(cls, now: int) -> "PcsDatabase":
        root_key = crypto.sign_generate()
        ca_key = crypto.sign_generate()
        root_cert = _issue(ROOT_SUBJECT, root_key.public, ROOT_SUBJECT,
                           root_key.private, now, now + DEFAULT_CA_VALIDITY)
        ca_cert = _issue(CA_SUBJECT, ca_key.public, ROOT_SUBJECT,
                         root_key.private, now, now + DEFAULT_CA_VALIDITY)
        return cls(root_key, ca_key, root_cert, ca_cert, created_at=now)

    @property
    def root_public_key(self) -> bytes:
        return self.root_key.public

    @property
    def revoked(self) -> frozenset[bytes]:
        return self._crl.revoked

    def current_crl(self) -> Crl:
        return self._crl

    def register(self, tcb_level: int, now: int) -> tuple[PlatformIdentity, CertChain]:
        """Enroll a new platform; returns its identity (with the private
        attestation key, which the registry does not retain) and the chain.
        tcb_level must be an integer that fits the quote's u32 field."""
        if isinstance(tcb_level, bool) or not isinstance(tcb_level, int) \
                or not 0 <= tcb_level <= 0xFFFFFFFF:
            raise ValueError(f"tcb_level must be an integer in 0..2**32-1, got {tcb_level!r}")
        with self._lock:
            while True:
                platform_id = os.urandom(16)
                if platform_id not in self.platforms:
                    break
            key = crypto.sign_generate()
            leaf = _issue(platform_subject(platform_id), key.public, CA_SUBJECT,
                          self.ca_key.private, now, now + DEFAULT_LEAF_VALIDITY,
                          tcb_level=tcb_level)
            chain = CertChain(self.root_cert, self.ca_cert, leaf)
            self.platforms[platform_id] = chain
            return PlatformIdentity(platform_id, key, tcb_level), chain

    def fetch(self, platform_id: bytes) -> tuple[CertChain, Crl]:
        with self._lock:
            chain = self.platforms.get(platform_id)
            if chain is None:
                raise UnknownPlatformError(platform_id.hex())
            return chain, self._crl

    def revoke(self, platform_id: bytes) -> Crl:
        """Add the platform to the revocation set. Idempotent on the set;
        the CRL sequence still increments (monotone, never un-revokes)."""
        with self._lock:
            if platform_id not in self.platforms:
                raise UnknownPlatformError(platform_id.hex())
            crl = self._crl
            self._crl = _sign(replace(crl, sequence=crl.sequence + 1,
                                      revoked=crl.revoked | {platform_id}),
                              self.ca_key.private)
            return self._crl

    # -- persistence --

    def to_dict(self) -> dict:
        def platform(chain: CertChain) -> dict:
            leaf = chain.attestation_key_cert
            return {"public_key": leaf.public_key.hex(), "tcb_level": leaf.tcb_level,
                    "chain": chain.to_dict()}

        crl = self._crl.to_dict()
        return {
            "root_key": {"private": self.root_key.private.hex(),
                         "public": self.root_key.public.hex()},
            "ca_key": {"private": self.ca_key.private.hex(),
                       "public": self.ca_key.public.hex()},
            "root_cert": self.root_cert.to_dict(),
            "ca_cert": self.ca_cert.to_dict(),
            "created_at": self.created_at,
            "platforms": {pid.hex(): platform(chain) for pid, chain in self.platforms.items()},
            "revoked": crl["revoked"],
            "crl_sequence": crl["sequence"],
        }

    @classmethod
    def from_dict(cls, d: dict) -> "PcsDatabase":
        db = cls(
            root_key=crypto.signing_key(bytes.fromhex(d["root_key"]["private"])),
            ca_key=crypto.signing_key(bytes.fromhex(d["ca_key"]["private"])),
            root_cert=Certificate.from_dict(d["root_cert"]),
            ca_cert=Certificate.from_dict(d["ca_cert"]),
            created_at=int(d["created_at"]),
        )
        db.platforms = {bytes.fromhex(pid_hex): CertChain.from_dict(rec["chain"])
                        for pid_hex, rec in d["platforms"].items()}
        db._crl = _sign(Crl(CA_SUBJECT, int(d["crl_sequence"]),
                            frozenset(bytes.fromhex(h) for h in d["revoked"]), b""),
                        db.ca_key.private)
        return db

    def save(self, path) -> None:
        """Atomic, and under the lock so concurrent savers never interleave."""
        def write(tmp):
            with open(tmp, "w", encoding="utf-8") as fh:
                json.dump(self.to_dict(), fh, indent=2, sort_keys=True)
                fh.write("\n")

        with self._lock:
            replace_atomically(path, write)

    @classmethod
    def load(cls, path) -> "PcsDatabase":
        with open(path, "rb") as fh:
            return cls.from_dict(wire.read_json(fh.read()))


# -- quotes -------------------------------------------------------------

def quote_generate(platform: PlatformIdentity, mr_enclave: bytes,
                   mr_signer: bytes, isv_svn: int, report_data: bytes) -> Quote:
    """Sign a quote with the platform's attestation key; tcb_level is
    copied from the platform."""
    if len(report_data) != QUOTE_REPORT_DATA_SIZE:
        raise ValueError(f"report_data must be exactly {QUOTE_REPORT_DATA_SIZE} bytes")
    return _sign(Quote(mr_enclave, mr_signer, isv_svn, report_data,
                       platform.platform_id, platform.tcb_level, signature=b""),
                 platform.signing_key.private)


def _chain_ok(chain: CertChain, crl: Crl, accepted_root: bytes) -> bool:
    root, ca, leaf = chain.root_cert, chain.platform_ca_cert, chain.attestation_key_cert
    if root.public_key != accepted_root:
        return False
    if root.subject != ROOT_SUBJECT or root.issuer != ROOT_SUBJECT:
        return False
    if ca.issuer != ROOT_SUBJECT or leaf.issuer != ca.subject:
        return False
    if subject_platform_id(leaf.subject) is None or leaf.tcb_level is None:
        return False
    if not (_signed_by(root, root.public_key) and _signed_by(ca, root.public_key)
            and _signed_by(leaf, ca.public_key)):
        return False
    # the CRL is part of the PKI evidence: it must come from this chain's CA
    return crl.issuer == ca.subject and _signed_by(crl, ca.public_key)


def quote_verify(quote: Quote, chain: CertChain, crl: Crl,
                 policy: VerificationPolicy, now: int) -> VerificationResult:
    """Run the fixed check sequence; the first failed check names the
    failure_reason. Order: bad_chain, expired, revoked, bad_quote_sig,
    mr_enclave_mismatch, mr_signer_mismatch, svn_too_low, tcb_too_low."""

    def fail(reason: str) -> VerificationResult:
        return VerificationResult(ok=False, failure_reason=reason, quote=quote)

    leaf = chain.attestation_key_cert
    if not _chain_ok(chain, crl, policy.accepted_root):
        return fail("bad_chain")
    if not (leaf.not_before <= now <= leaf.not_after):
        return fail("expired")
    cert_pid = subject_platform_id(leaf.subject)
    if cert_pid in crl.revoked:
        return fail("revoked")
    # the leaf certificate is the authority on platform identity: the quote
    # must claim the certified id, else a revoked platform could dodge its
    # CRL entry by signing a quote with someone else's id
    if quote.platform_id != cert_pid:
        return fail("bad_quote_sig")
    if not _signed_by(quote, leaf.public_key):
        return fail("bad_quote_sig")
    if policy.expected_mr_enclave is not None and quote.mr_enclave != policy.expected_mr_enclave:
        return fail("mr_enclave_mismatch")
    if policy.expected_mr_signer is not None and quote.mr_signer != policy.expected_mr_signer:
        return fail("mr_signer_mismatch")
    if quote.isv_svn < policy.min_isv_svn:
        return fail("svn_too_low")
    # TCB freshness comes from the registry-issued certificate, not the
    # quote's self-reported copy
    if leaf.tcb_level < policy.min_tcb_level:
        return fail("tcb_too_low")
    return VerificationResult(ok=True, failure_reason=None, quote=quote)
