"""Secret provisioning: a key server holding named master keys behind
per-key release policies, and the enclave-side client that requests them
over the attested channel.

Two policy levels: the session policy gates the handshake; each secret
may carry a stricter policy re-checked per request against the session's
quote. Secrets are released only after both Finished messages verify
(the record layer enforces this: nothing is readable before keys exist).
The vault persists as a protected container keyed from a passphrase,
with the container uuid doubling as the KDF salt.
"""

from __future__ import annotations

import functools
import json
import os
import socket
import threading
import time
from collections import deque
from contextlib import closing, contextmanager

from . import codec, crypto, wire
from .attestation import VerificationPolicy, quote_verify, replace_atomically
from .channel import QuoteProvider, SecureChannel, attester_handshake, verifier_handshake
from .failure import EXIT_ATTESTATION, Failure
from .pcs_service import PcsPool
from .pfs import ProtectedFile, read_uuid

VAULT_LABEL = "keyvault"
MAX_SECRET_NAME = 128
MAX_SECRET_SIZE = 4096
AUDIT_LOG_LEN = 1024  # newest records KeyServer.audit_log keeps; audit_path keeps every one

SECRET = codec.hexbytes(1, MAX_SECRET_SIZE)


def _name_fits(name: str) -> bool:
    """Whether `name` is 1..MAX_SECRET_NAME bytes of UTF-8, as every vault name is."""
    try:
        return 1 <= len(name.encode("utf-8")) <= MAX_SECRET_NAME
    except UnicodeEncodeError:  # a lone surrogate, which JSON can escape
        return False


PROVISION_REQ = codec.Record(("name", codec.STR))
PROVISION_RESP = codec.one_of(
    codec.Record(("outcome", codec.const("granted")), ("secret", SECRET)),
    codec.Record(("outcome", codec.const("denied")), ("reason", codec.STR)))
# the vault body: each secret with its release policy
VAULT = codec.Record(("secrets", codec.mapping(codec.STR, codec.Record(
    ("secret", SECRET), ("policy", VerificationPolicy.RECORD)))))


class VaultError(Exception):
    pass


class ProvisionDeniedError(Failure):
    """Any denial; reason: policy_mismatch | unknown_secret | crl_unavailable |
    bad_request from the key server, or bad_response for a malformed reply"""

    KINDS = {"denied": EXIT_ATTESTATION}

    def __init__(self, reason: str):
        super().__init__("denied", reason)


class KeyVault:
    """Named secrets with their release policies. Read-only while serving."""

    def __init__(self):
        self._secrets: dict[str, dict] = {}

    def add_secret(self, name: str, secret: bytes, policy: VerificationPolicy) -> None:
        if not _name_fits(name):
            raise VaultError(f"secret name must be 1..{MAX_SECRET_NAME} bytes")
        if not 1 <= len(secret) <= MAX_SECRET_SIZE:
            raise VaultError(f"secret must be 1..{MAX_SECRET_SIZE} bytes")
        if policy.expected_mr_enclave is None and policy.expected_mr_signer is None:
            raise VaultError("release policy must constrain mr_enclave or mr_signer")
        self._secrets[name] = {"secret": secret, "policy": policy}

    def get(self, name: str) -> dict | None:
        return self._secrets.get(name)

    def names(self) -> list[str]:
        return sorted(self._secrets)

    def __len__(self) -> int:
        return len(self._secrets)


def vault_body(vault: KeyVault) -> bytes:
    """The plaintext of the vault file: the VAULT record as canonical JSON."""
    return codec.pack(VAULT, {"secrets": vault._secrets})


def read_vault_body(body: bytes) -> KeyVault:
    """The vault of plaintext `body`; VaultError for one that is not a VAULT record."""
    try:
        secrets = codec.load(VAULT, body)["secrets"]
    except wire.DECODE_ERRORS as exc:
        raise VaultError(f"malformed vault body: {exc}")
    vault = KeyVault()
    for name, rec in secrets.items():
        vault.add_secret(name, rec["secret"], rec["policy"])
    return vault


def _vault_key(passphrase: str, salt: bytes) -> bytes:
    return crypto.kdf(crypto.hash_data(passphrase.encode("utf-8")), "vault", salt)


def vault_save(vault: KeyVault, path, passphrase: str) -> None:
    """Store the vault as a protected container; dogfoods the package's
    own storage. The fresh container uuid serves as the KDF salt. The old
    vault stays in place until the new one is complete."""
    salt = os.urandom(16)

    def write(tmp):
        with ProtectedFile.create(tmp, VAULT_LABEL, _vault_key(passphrase, salt),
                                  file_uuid=salt) as pf:
            pf.write(0, vault_body(vault))

    replace_atomically(path, write)


def vault_load(path, passphrase: str) -> KeyVault:
    """Raises WrongKeyError on a bad passphrase, IntegrityError on a
    tampered container, VaultError on a body that is not a VAULT record."""
    salt = read_uuid(path)
    with ProtectedFile.open(path, VAULT_LABEL, _vault_key(passphrase, salt)) as pf:
        return read_vault_body(pf.read(0, pf.size))


class KeyServer(wire.FrameServer):
    """Accepts attested connections and serves provision requests.

    Per connection: verifier handshake under the session policy, then any
    number of requests, each re-evaluated against the secret's own policy
    with a fresh `now`. Every request appends exactly one audit record
    (never containing secret bytes) to `audit_path`, when given, and then
    to `audit_log`, which keeps the newest AUDIT_LOG_LEN; a request whose
    record the file refuses gets no reply. `stop()` closes the file.
    """

    def __init__(self, vault: KeyVault, session_policy: VerificationPolicy,
                 signing_key: crypto.SigningKeyPair, crl_provider,
                 host: str = "127.0.0.1", port: int = 0,
                 now_source=time.time, audit_path=None):
        self._audit_lock = threading.Lock()
        # opened before the port is bound; unbuffered, so each record is one write
        self._audit_file = None if audit_path is None else open(audit_path, "ab", buffering=0)
        try:
            super().__init__(host, port)
        except BaseException:
            if self._audit_file is not None:
                self._audit_file.close()
            raise
        self.vault = vault
        self.session_policy = session_policy
        self.signing_key = signing_key
        self.crl_provider = crl_provider
        self.now_source = now_source
        self.audit_log: deque[dict] = deque(maxlen=AUDIT_LOG_LEN)

    @property
    def public_key(self) -> bytes:
        return self.signing_key.public

    def stop(self) -> None:
        super().stop()
        with self._audit_lock:
            if self._audit_file is not None:
                self._audit_file.close()

    def _open_session(self, conn: socket.socket):
        channel = verifier_handshake(conn, self.session_policy, self.crl_provider,
                                     int(self.now_source()), self.signing_key)
        return channel.recv, channel.send, functools.partial(self._answer, channel)

    def _answer(self, channel: SecureChannel, record_type: int,
                payload: bytes) -> tuple[int, bytes] | None:
        """Answer a provision request; close on any other type."""
        if record_type != wire.REC_PROVISION_REQ:
            return None
        cert = channel.peer_certificate
        try:
            name = codec.unpack(PROVISION_REQ, payload)["name"]
        except wire.DECODE_ERRORS:
            name = None
        if name is not None and _name_fits(name):
            body = self._evaluate(name, cert)
        else:  # not a request, or a name that no vault entry can have
            name, body = None, {"outcome": "denied", "reason": "bad_request"}
        self._audit(cert.quote, name, body)
        return wire.REC_PROVISION_RESP, codec.pack(PROVISION_RESP, body)

    def _evaluate(self, name: str, cert) -> dict:
        record = self.vault.get(name)
        if record is None:
            return {"outcome": "denied", "reason": "unknown_secret"}
        try:
            crl = self.crl_provider(cert.quote.platform_id)
        except Exception:
            # without a CRL non-revocation is unproven: deny; its error stays here
            return {"outcome": "denied", "reason": "crl_unavailable"}
        if quote_verify(cert.quote, cert.cert_chain, crl, record["policy"],
                        int(self.now_source())) is not None:
            return {"outcome": "denied", "reason": "policy_mismatch"}
        return {"outcome": "granted", "secret": record["secret"]}

    def _audit(self, quote, name: str | None, body: dict) -> None:
        entry = {
            "timestamp": int(self.now_source()),
            "platform_id": quote.platform_id.hex(),
            "mr_enclave": quote.mr_enclave.hex(),
            "secret_name": name,
            "outcome": body["outcome"] if body["outcome"] == "granted"
            else f"denied:{body['reason']}",
        }
        line = (json.dumps(entry, sort_keys=True) + "\n").encode("utf-8")
        with self._audit_lock:
            if self._audit_file is not None and self._audit_file.write(line) != len(line):
                raise OSError("short write to the audit file")
            self.audit_log.append(entry)


@contextmanager
def key_server(vault: KeyVault, pcs_addr, accepted_root: bytes,
               signing_key: crypto.SigningKeyPair, *, min_isv_svn: int, min_tcb_level: int,
               host: str, port: int, audit_path):
    """A bound, unstarted KeyServer whose CRLs come from the PCS at `pcs_addr`
    through one PcsPool; leaving the `with` stops the server, then closes the pool."""
    session_policy = VerificationPolicy(accepted_root=accepted_root, min_isv_svn=min_isv_svn,
                                        min_tcb_level=min_tcb_level)
    with closing(PcsPool(pcs_addr)) as pool, KeyServer(
            vault, session_policy, signing_key, pool.crl, host=host, port=port,
            audit_path=audit_path) as server:
        yield server


class ProvisioningClient:
    """Enclave-side client; one attested session, any number of requests."""

    def __init__(self, server_addr, quote_provider: QuoteProvider, verifier_pin: bytes):
        conn = socket.create_connection(server_addr, timeout=wire.CLIENT_TIMEOUT)
        self.channel = attester_handshake(conn, quote_provider, verifier_pin)

    def request(self, secret_name: str) -> bytes:
        """The secret, or ProvisionDeniedError with the server's reason, or
        with "bad_response" for a reply that is not a PROVISION_RESP of
        WIRE.md's form."""
        self.channel.send(wire.REC_PROVISION_REQ,
                          codec.pack(PROVISION_REQ, {"name": secret_name}))
        record_type, payload = self.channel.recv()
        if record_type != wire.REC_PROVISION_RESP:
            raise ProvisionDeniedError("bad_response")
        try:
            body = codec.unpack(PROVISION_RESP, payload)
        except wire.DECODE_ERRORS:
            raise ProvisionDeniedError("bad_response") from None
        if body["outcome"] == "granted":
            return body["secret"]
        raise ProvisionDeniedError(body["reason"])

    def close(self) -> None:
        self.channel.close()

    def __enter__(self):
        return self

    def __exit__(self, *exc):
        self.close()


def client_request_key(server_addr, secret_name: str, quote_provider: QuoteProvider,
                       verifier_pin: bytes) -> bytes:
    """One-shot: attested handshake, single request, close. Raises
    HandshakeError (fail-closed: no request is ever sent on a failed
    handshake) or ProvisionDeniedError."""
    with ProvisioningClient(server_addr, quote_provider, verifier_pin) as client:
        return client.request(secret_name)
