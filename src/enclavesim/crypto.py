"""Pinned cryptographic primitives shared by every subsystem.

Algorithms are fixed so that all on-disk and on-wire formats are bit-exact:
AES-256-GCM for AEAD, SHA-256 for hashing, HMAC-SHA-256 for key derivation,
X25519 for ephemeral key agreement, Ed25519 for signatures. All functions
are pure; nonce discipline is the caller's responsibility.

`aead_seal` and `aead_open` take the `AESGCM` object of a key from one
bounded memo, so a caller that seals or opens many messages under one key
(a container flush, a channel direction) sets the key up once. The memo
keeps the cipher objects, and with them the keys, of the last
`AEAD_CIPHERS` keys used alive in this process.

A key pair holds its parsed private key object, so each private key is
parsed once, when its pair is made, and `sign` and `dh_shared` take the
pair. No repr of a pair shows its private key.
"""

from __future__ import annotations

import functools
import hashlib
import hmac
from dataclasses import dataclass, field
from functools import cached_property

from cryptography.exceptions import InvalidSignature, InvalidTag
from cryptography.hazmat.primitives.asymmetric import ed25519, x25519
from cryptography.hazmat.primitives.ciphers.aead import AESGCM

KEY_SIZE = 32
NONCE_SIZE = 12
TAG_SIZE = 16
DIGEST_SIZE = 32
SIGNATURE_SIZE = 64
MAX_KDF_LABEL = 32
AEAD_CIPHERS = 16  # cipher objects kept by `_cipher`, one per key


class AuthError(Exception):
    """AEAD open failed: wrong key/nonce/aad or tampered ciphertext."""


def _check_key(key: bytes) -> None:
    if len(key) != KEY_SIZE:
        raise ValueError(f"AES-256-GCM key must be {KEY_SIZE} bytes, got {len(key)}")


def _check_nonce(nonce: bytes) -> None:
    if len(nonce) != NONCE_SIZE:
        raise ValueError(f"nonce must be {NONCE_SIZE} bytes, got {len(nonce)}")


@functools.lru_cache(maxsize=AEAD_CIPHERS)
def _cipher(key: bytes) -> AESGCM:
    """The AES-256-GCM cipher of a checked 32-byte `bytes` key."""
    return AESGCM(key)


def aead_seal(key: bytes, nonce: bytes, aad: bytes, plaintext: bytes) -> bytes:
    """AES-256-GCM seal. Returns ciphertext || 16-byte tag."""
    if len(key) != KEY_SIZE or len(nonce) != NONCE_SIZE:
        _check_key(key)
        _check_nonce(nonce)
    return _cipher(key if type(key) is bytes else bytes(key)).encrypt(nonce, plaintext, aad)


def aead_open(key: bytes, nonce: bytes, aad: bytes, sealed: bytes) -> bytes:
    """Inverse of aead_seal; raises AuthError on any authentication failure."""
    if len(key) != KEY_SIZE or len(nonce) != NONCE_SIZE:
        _check_key(key)
        _check_nonce(nonce)
    if len(sealed) < TAG_SIZE:
        raise AuthError("sealed input shorter than the authentication tag")
    try:
        return _cipher(key if type(key) is bytes else bytes(key)).decrypt(nonce, sealed, aad)
    except InvalidTag:
        raise AuthError("AEAD authentication failed") from None


def hash_data(data: bytes) -> bytes:
    """SHA-256, 32-byte digest."""
    return hashlib.sha256(data).digest()


def kdf(root: bytes, label: str, context: bytes) -> bytes:
    """Derive a 32-byte key: HMAC-SHA-256(root, label || 0x00 || context)."""
    _check_key(root)
    encoded = label.encode("utf-8")
    if not encoded:
        raise ValueError("KDF label must be nonempty")
    if len(encoded) > MAX_KDF_LABEL:
        raise ValueError(f"KDF label longer than {MAX_KDF_LABEL} bytes")
    return hmac.digest(root, encoded + b"\x00" + context, "sha256")


@dataclass(frozen=True)
class KeyPair:
    """X25519 key-agreement keypair: the private key object and the raw
    32-byte public key."""

    private: x25519.X25519PrivateKey = field(repr=False)
    public: bytes


def dh_generate() -> KeyPair:
    priv = x25519.X25519PrivateKey.generate()
    return KeyPair(priv, priv.public_key().public_bytes_raw())


def dh_shared(own: KeyPair, peer_public: bytes) -> bytes:
    """X25519 shared secret, 32 bytes. Raises ValueError on a bad peer key."""
    try:
        peer = x25519.X25519PublicKey.from_public_bytes(peer_public)
    except Exception as exc:
        raise ValueError(f"invalid peer public key: {exc}") from None
    return own.private.exchange(peer)


@dataclass(frozen=True)
class SigningKeyPair:
    """Ed25519 signing keypair, raw 32-byte encodings; `key`, the parsed
    private key that `sign` uses, is built once per pair."""

    private: bytes = field(repr=False)
    public: bytes

    @cached_property
    def key(self) -> ed25519.Ed25519PrivateKey:
        return ed25519.Ed25519PrivateKey.from_private_bytes(self.private)


def _signing_pair(key: ed25519.Ed25519PrivateKey) -> SigningKeyPair:
    pair = SigningKeyPair(key.private_bytes_raw(), key.public_key().public_bytes_raw())
    pair.__dict__["key"] = key  # fills the cached `key`: its one parse is this one
    return pair


def signing_key(private: bytes) -> SigningKeyPair:
    """The key pair of a raw 32-byte Ed25519 private key."""
    return _signing_pair(ed25519.Ed25519PrivateKey.from_private_bytes(private))


def sign_generate() -> SigningKeyPair:
    return _signing_pair(ed25519.Ed25519PrivateKey.generate())


def sign(key_pair: SigningKeyPair, message: bytes) -> bytes:
    """Ed25519 signature, 64 bytes."""
    return key_pair.key.sign(message)


def verify(public_key: bytes, message: bytes, signature: bytes) -> bool:
    if len(signature) != SIGNATURE_SIZE:
        raise ValueError(f"signature must be {SIGNATURE_SIZE} bytes, got {len(signature)}")
    try:
        pub = ed25519.Ed25519PublicKey.from_public_bytes(public_key)
        pub.verify(signature, message)
        return True
    except (InvalidSignature, ValueError):
        return False
