"""Simulated attestation infrastructure: platform registry (mock PCS),
certificate chains, revocation lists, quotes and quote verification.

Certificates form a fixed three-level chain (root -> platform CA ->
per-platform attestation key). They are compact JSON structures signed
with Ed25519, not X.509. TCB freshness is one monotone integer. The
clock is always an explicit argument so expiry is deterministic.
"""

from __future__ import annotations

import functools
import os
import pathlib
import struct
import threading
from dataclasses import dataclass, field, replace

from . import codec, crypto

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


class _JsonSigned:
    """A record signed over its context label followed by the canonical
    JSON of every field of its RECORD except the signature."""

    def signed_payload(self) -> bytes:
        return self._CONTEXT + codec.canonical_json(self.RECORD.encode(self, omit="signature"))


SIGNATURE = codec.hexbytes(crypto.SIGNATURE_SIZE)
PUBLIC_KEY = codec.hexbytes(32)  # an Ed25519 public key
PLATFORM_ID = codec.hexbytes(16)
HASH = codec.hexbytes(32)  # a measurement: mr_enclave or mr_signer


@codec.record(("subject", codec.STR), ("issuer", codec.STR), ("public_key", PUBLIC_KEY),
              ("not_before", codec.U64), ("not_after", codec.U64),
              ("tcb_level", codec.optional(codec.U32)), ("signature", SIGNATURE))
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


@codec.record(("root", Certificate.RECORD), ("platform_ca", Certificate.RECORD),
              ("attestation_key", Certificate.RECORD))
@dataclass(frozen=True)
class CertChain:
    root_cert: Certificate
    platform_ca_cert: Certificate
    attestation_key_cert: Certificate


@codec.record(("issuer", codec.STR), ("sequence", codec.U64),
              ("revoked", codec.hexset(16)), ("signature", SIGNATURE))
@dataclass(frozen=True)
class Crl(_JsonSigned):
    _CONTEXT = b"crl-v1"

    issuer: str
    sequence: int
    revoked: frozenset[bytes]
    signature: bytes


@codec.record(("platform_id", PLATFORM_ID), ("private_key", codec.hexbytes(32)),
              ("public_key", PUBLIC_KEY), ("tcb_level", codec.U32))
@dataclass(frozen=True)
class PlatformIdentity:
    """A registered platform: its id, attestation key pair and TCB level.
    public_key must be private_key's."""

    platform_id: bytes
    private_key: bytes = field(repr=False)
    public_key: bytes
    tcb_level: int

    def __post_init__(self):
        if self.signing_key.public != self.public_key:
            raise ValueError("public_key is not the private key's")

    @functools.cached_property
    def signing_key(self) -> crypto.SigningKeyPair:
        """The attestation key pair, parsed once per identity."""
        return crypto.signing_key(self.private_key)


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


@codec.record(("accepted_root", PUBLIC_KEY), ("expected_mr_enclave", codec.optional(HASH)),
              ("expected_mr_signer", codec.optional(HASH)), ("min_isv_svn", codec.U32),
              ("min_tcb_level", codec.U32))
@dataclass(frozen=True)
class VerificationPolicy:
    """What a verifier demands of a quote. None means "any". A value that
    its record cannot hold (a hash that is not 32 bytes, a minimum outside
    u32) is a ValueError here, so no policy that can never match is built."""

    accepted_root: bytes
    expected_mr_enclave: bytes | None = None
    expected_mr_signer: bytes | None = None
    min_isv_svn: int = 0
    min_tcb_level: int = 0

    def __post_init__(self):
        self.RECORD.encode(self)


def replace_atomically(path, write) -> None:
    """Call write(tmp) on a sibling temp path created owner-only (0600),
    fsync it, os.replace it over `path` and fsync the directory, so the
    rename survives a power loss: a failure at any point leaves the old
    file untouched."""
    tmp = f"{os.fspath(path)}.tmp"
    try:
        fd = os.open(tmp, os.O_WRONLY | os.O_CREAT | os.O_TRUNC, 0o600)
        try:
            os.fchmod(fd, 0o600)  # a stale tmp keeps the mode it was created with
            write(tmp)
            os.fsync(fd)
        finally:
            os.close(fd)
        os.replace(tmp, path)
        fd = os.open(os.path.dirname(os.path.abspath(path)), os.O_RDONLY)
        try:
            os.fsync(fd)
        finally:
            os.close(fd)
    except BaseException:
        try:
            os.remove(tmp)
        except FileNotFoundError:
            pass
        raise


def platform_subject(platform_id: bytes) -> str:
    return f"platform:{platform_id.hex()}"


def subject_platform_id(subject: str) -> bytes | None:
    prefix, _, pid = subject.partition(":")
    try:
        return PLATFORM_ID.decode(pid) if prefix == "platform" else None
    except ValueError:
        return None


def _sign(unsigned, key: crypto.SigningKeyPair):
    """`unsigned` (a certificate, CRL or quote) carrying the Ed25519
    signature of its signed_payload() under key."""
    return replace(unsigned, signature=crypto.sign(key, unsigned.signed_payload()))


class _BadSignature(Exception):
    """A signature check that failed; raised, so the memo stores nothing."""


# Keyed by (public key, record). Records are frozen and their signed payload
# is a function of their fields, so an equal record is the same signed
# message, and a record that differs in any field, its signature included,
# is another key. A failed check raises, and lru_cache keeps no call that
# raised, so hostile evidence cannot enter. The memo holds at most
# VERIFIED_MEMO_SIZE records, each of which verified: a decoded certificate
# or quote is about 0.5 KB, a CRL as much plus about 130 B per revoked
# platform, and each entry adds about 90 B (tracemalloc over 256 entries).
# cache_info() counts hits (memo answers) and misses (real Ed25519 checks).
@functools.lru_cache(maxsize=VERIFIED_MEMO_SIZE)
def _verified(public_key: bytes, record) -> bool:
    if not crypto.verify(public_key, record.signed_payload(), record.signature):
        raise _BadSignature
    return True


def _signed_by(record, public_key: bytes) -> bool:
    """Whether record.signature is public_key's Ed25519 signature over
    record.signed_payload(). Only a repeat of a check of an equal record
    that succeeded skips the Ed25519 work."""
    try:
        return _verified(public_key, record)
    except _BadSignature:
        return False


def _issue(subject, subject_key, issuer, issuer_key, not_before, not_after,
           tcb_level=None) -> Certificate:
    return _sign(Certificate(subject, issuer, subject_key, not_before, not_after,
                             tcb_level, signature=b""), issuer_key)


# -- mock PCS -----------------------------------------------------------

class PcsDatabase:
    """The mock Provisioning Certification Service registry. One writer
    lock serializes mutations; persisted as a single JSON file. Each
    platform is its certificate chain; the current signed CRL is the whole
    revocation state. When `path` is set, each mutation is saved there
    before any reader sees it, and one whose save fails changes nothing."""

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
        self._crl = _sign(Crl(CA_SUBJECT, 0, frozenset(), b""), ca_key)
        self.path = None

    @classmethod
    def create(cls, now: int) -> "PcsDatabase":
        root_key = crypto.sign_generate()
        ca_key = crypto.sign_generate()
        root_cert = _issue(ROOT_SUBJECT, root_key.public, ROOT_SUBJECT,
                           root_key, now, now + DEFAULT_CA_VALIDITY)
        ca_cert = _issue(CA_SUBJECT, ca_key.public, ROOT_SUBJECT,
                         root_key, now, now + DEFAULT_CA_VALIDITY)
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
        The leaf is valid from `now` for DEFAULT_LEAF_VALIDITY, cut to the
        CA's window. A `now` outside that window, or a tcb_level that the
        leaf's u32 field cannot hold, is a ValueError before anything is
        registered."""
        ca = self.ca_cert
        if not ca.not_before <= now <= ca.not_after:
            raise ValueError(f"now {now} is outside the CA's validity "
                             f"{ca.not_before}..{ca.not_after}")
        with self._lock:
            while True:
                platform_id = os.urandom(16)
                if platform_id not in self.platforms:
                    break
            key = crypto.sign_generate()
            leaf = _issue(platform_subject(platform_id), key.public, CA_SUBJECT, self.ca_key,
                          now, min(now + DEFAULT_LEAF_VALIDITY, ca.not_after),
                          tcb_level=tcb_level)
            chain = CertChain(self.root_cert, self.ca_cert, leaf)
            self._commit({**self.platforms, platform_id: chain}, self._crl)
            return PlatformIdentity(platform_id, key.private, key.public, tcb_level), chain

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
            self._commit(self.platforms, _sign(replace(crl, sequence=crl.sequence + 1,
                                                       revoked=crl.revoked | {platform_id}),
                                               self.ca_key))
            return self._crl

    def _commit(self, platforms: dict[bytes, CertChain], crl: Crl) -> None:
        """Under the lock: make (platforms, crl) the registry, saved first
        to `path` when it is set, so a failed save changes nothing."""
        if self.path is not None:
            self._save(self.path, platforms, crl)
        self.platforms, self._crl = platforms, crl

    # -- persistence --

    def _fields(self, platforms: dict[bytes, CertChain], crl: Crl) -> dict:
        """This registry with `platforms` and `crl` as the fields of its
        file, DATABASE_FILE."""
        return {"root_key": self.root_key, "ca_key": self.ca_key, "root_cert": self.root_cert,
                "ca_cert": self.ca_cert, "created_at": self.created_at,
                "platforms": {pid: {"public_key": chain.attestation_key_cert.public_key,
                                    "tcb_level": chain.attestation_key_cert.tcb_level,
                                    "chain": chain} for pid, chain in platforms.items()},
                "revoked": crl.revoked, "crl_sequence": crl.sequence}

    def save(self, path) -> None:
        """Atomic, and under the lock so concurrent savers never interleave."""
        with self._lock:
            self._save(path, self.platforms, self._crl)

    def _save(self, path, platforms: dict[bytes, CertChain], crl: Crl) -> None:
        data = codec.dump(DATABASE_FILE, self._fields(platforms, crl))
        replace_atomically(path, lambda tmp: pathlib.Path(tmp).write_bytes(data))

    @classmethod
    def load(cls, path) -> "PcsDatabase":
        """The registry in file `path`, which must hold exactly what `save`
        writes for it: each copy it holds (a public key, a platform's id,
        key and TCB level) must equal what it copies."""
        with open(path, "rb") as fh:
            d = codec.load(DATABASE_FILE, fh.read())
        db = cls(crypto.signing_key(d["root_key"].private),
                 crypto.signing_key(d["ca_key"].private), d["root_cert"], d["ca_cert"],
                 d["created_at"])
        db.platforms = {subject_platform_id(rec["chain"].attestation_key_cert.subject):
                        rec["chain"] for rec in d["platforms"].values()}
        db._crl = _sign(Crl(CA_SUBJECT, d["crl_sequence"], d["revoked"], b""), db.ca_key)
        if db._fields(db.platforms, db._crl) != d:
            raise ValueError("a copy in the file differs from what it copies")
        return db


_KEY_PAIR = codec.Record(("private", codec.hexbytes(32)), ("public", PUBLIC_KEY),
                         cls=crypto.SigningKeyPair)
DATABASE_FILE = codec.Record(
    ("root_key", _KEY_PAIR), ("ca_key", _KEY_PAIR), ("root_cert", Certificate.RECORD),
    ("ca_cert", Certificate.RECORD), ("created_at", codec.U64),
    ("platforms", codec.mapping(PLATFORM_ID, codec.Record(
        ("public_key", PUBLIC_KEY), ("tcb_level", codec.U32), ("chain", CertChain.RECORD)))),
    ("revoked", codec.hexset(16)), ("crl_sequence", codec.U64))


# -- quotes -------------------------------------------------------------

def quote_generate(platform: PlatformIdentity, mr_enclave: bytes,
                   mr_signer: bytes, isv_svn: int, report_data: bytes) -> Quote:
    """Sign a quote with the platform's attestation key; tcb_level is
    copied from the platform."""
    if len(report_data) != QUOTE_REPORT_DATA_SIZE:
        raise ValueError(f"report_data must be exactly {QUOTE_REPORT_DATA_SIZE} bytes")
    return _sign(Quote(mr_enclave, mr_signer, isv_svn, report_data,
                       platform.platform_id, platform.tcb_level, signature=b""),
                 platform.signing_key)


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
                 policy: VerificationPolicy, now: int) -> str | None:
    """Run the fixed check sequence and return the reason that the first
    failed check names, or None when the quote verifies. Order: bad_chain,
    expired, revoked, bad_quote_sig, mr_enclave_mismatch,
    mr_signer_mismatch, svn_too_low, tcb_too_low."""

    leaf = chain.attestation_key_cert
    if not _chain_ok(chain, crl, policy.accepted_root):
        return "bad_chain"
    if not all(cert.not_before <= now <= cert.not_after
               for cert in (chain.root_cert, chain.platform_ca_cert, leaf)):
        return "expired"
    cert_pid = subject_platform_id(leaf.subject)
    if cert_pid in crl.revoked:
        return "revoked"
    # the leaf certificate is the authority on platform identity: the quote
    # must claim the certified id, else a revoked platform could dodge its
    # CRL entry by signing a quote with someone else's id
    if quote.platform_id != cert_pid:
        return "bad_quote_sig"
    if not _signed_by(quote, leaf.public_key):
        return "bad_quote_sig"
    if policy.expected_mr_enclave is not None and quote.mr_enclave != policy.expected_mr_enclave:
        return "mr_enclave_mismatch"
    if policy.expected_mr_signer is not None and quote.mr_signer != policy.expected_mr_signer:
        return "mr_signer_mismatch"
    if quote.isv_svn < policy.min_isv_svn:
        return "svn_too_low"
    # TCB freshness comes from the registry-issued certificate, not the
    # quote's self-reported copy
    if leaf.tcb_level < policy.min_tcb_level:
        return "tcb_too_low"
    return None
