import json
import random
import sys
import threading
from pathlib import Path

import pytest

from enclavesim import crypto

FIXTURES = Path(__file__).parent / "fixtures"


def test_aead_seal_empty_plaintext_is_tag_only():
    out = crypto.aead_seal(b"\x00" * 32, b"\x00" * 12, b"", b"")
    assert len(out) == 16


def test_aead_seal_deterministic():
    key, nonce, aad, pt = b"k" * 32, b"n" * 12, b"hdr", b"payload"
    assert crypto.aead_seal(key, nonce, aad, pt) == crypto.aead_seal(key, nonce, aad, pt)


def test_aead_seal_matches_independent_reference_vectors():
    # frozen before the build by tests/reference_gcm.py (a from-scratch
    # AES-256-GCM validated against the GCM spec's published vectors)
    vectors = json.loads((FIXTURES / "aead_vectors.json").read_text())
    assert len(vectors) == 5
    for vec in vectors:
        got = crypto.aead_seal(
            bytes.fromhex(vec["key"]),
            bytes.fromhex(vec["nonce"]),
            bytes.fromhex(vec["aad"]),
            bytes.fromhex(vec["plaintext"]),
        )
        assert got == bytes.fromhex(vec["sealed"])


def test_aead_reference_oracle_live():
    # run the independent implementation directly against aead_seal
    from reference_gcm import gcm_encrypt

    rng = random.Random(1)
    for _ in range(5):
        key, nonce = rng.randbytes(32), rng.randbytes(12)
        aad, pt = rng.randbytes(7), rng.randbytes(45)
        assert crypto.aead_seal(key, nonce, aad, pt) == gcm_encrypt(key, nonce, aad, pt)


def test_aead_roundtrip():
    key, nonce, aad, pt = b"k" * 32, b"n" * 12, b"hdr", b"secret message"
    assert crypto.aead_open(key, nonce, aad, crypto.aead_seal(key, nonce, aad, pt)) == pt


def test_aead_open_flipped_ciphertext_bit():
    key, nonce, aad = b"k" * 32, b"n" * 12, b"hdr"
    sealed = bytearray(crypto.aead_seal(key, nonce, aad, b"secret message"))
    sealed[3] ^= 0x01
    with pytest.raises(crypto.AuthError):
        crypto.aead_open(key, nonce, aad, bytes(sealed))


def test_aead_open_aad_case_change():
    key, nonce = b"k" * 32, b"n" * 12
    sealed = crypto.aead_seal(key, nonce, b"hdr", b"m")
    with pytest.raises(crypto.AuthError):
        crypto.aead_open(key, nonce, b"hdR", sealed)


def test_aead_roundtrip_random_inputs():
    rng = random.Random(2)
    for _ in range(50):
        key, nonce = rng.randbytes(32), rng.randbytes(12)
        aad = rng.randbytes(rng.randint(0, 32))
        pt = rng.randbytes(rng.randint(0, 4096))
        sealed = crypto.aead_seal(key, nonce, aad, pt)
        assert len(sealed) == len(pt) + 16
        assert crypto.aead_open(key, nonce, aad, sealed) == pt


def test_aead_single_bit_corruption_always_detected():
    rng = random.Random(3)
    key, nonce, aad = rng.randbytes(32), rng.randbytes(12), b"aad"
    pt = rng.randbytes(100)
    sealed = crypto.aead_seal(key, nonce, aad, pt)
    for _ in range(40):
        which = rng.choice(["sealed", "aad", "nonce", "key"])
        k, n, a, s = key, nonce, aad, sealed
        if which == "sealed":
            s = _flip_random_bit(rng, s)
        elif which == "aad":
            a = _flip_random_bit(rng, a)
        elif which == "nonce":
            n = _flip_random_bit(rng, n)
        else:
            k = _flip_random_bit(rng, k)
        with pytest.raises(crypto.AuthError):
            crypto.aead_open(k, n, a, s)


def _flip_random_bit(rng, data):
    buf = bytearray(data)
    buf[rng.randrange(len(buf))] ^= 1 << rng.randrange(8)
    return bytes(buf)


def test_aead_short_sealed_rejected():
    with pytest.raises(crypto.AuthError):
        crypto.aead_open(b"k" * 32, b"n" * 12, b"", b"\x00" * 15)


@pytest.mark.parametrize("aead", [crypto.aead_seal, crypto.aead_open], ids=["seal", "open"])
@pytest.mark.parametrize("key_size, nonce_size", [(5, 12), (16, 12), (24, 12),
                                                  (32, 11), (32, 8), (32, 16)])
def test_bad_key_and_nonce_lengths(aead, key_size, nonce_size):
    # 16- and 24-byte keys and 8- and 16-byte nonces are lengths AES-GCM
    # itself accepts: only the length check refuses them, before the memo
    crypto._cipher.cache_clear()
    with pytest.raises(ValueError, match="key must be 32|nonce must be 12"):
        aead(b"k" * key_size, b"n" * nonce_size, b"", bytes(16))
    assert crypto._cipher.cache_info().currsize == 0


def test_the_cipher_memo_holds_at_most_its_size():
    crypto._cipher.cache_clear()
    for k in range(crypto.AEAD_CIPHERS + 5):
        key = k.to_bytes(32, "little")
        sealed = crypto.aead_seal(key, b"n" * 12, b"aad", b"m")
        assert crypto.aead_open(key, b"n" * 12, b"aad", sealed) == b"m"
        assert crypto._cipher.cache_info().currsize <= crypto.AEAD_CIPHERS
    assert crypto._cipher.cache_info().currsize == crypto.AEAD_CIPHERS


@pytest.mark.parametrize("wrap", [bytearray, lambda b: memoryview(bytearray(b))],
                         ids=["bytearray", "memoryview"])
def test_a_mutable_key_seals_as_its_bytes(wrap):
    key, nonce, aad, pt = bytes(range(32)), b"n" * 12, b"hdr", b"payload"
    sealed = crypto.aead_seal(key, nonce, aad, pt)
    assert crypto.aead_seal(wrap(key), nonce, aad, pt) == sealed
    assert crypto.aead_open(wrap(key), nonce, aad, sealed) == pt


def test_threads_sealing_under_one_key_all_round_trip():
    key = bytes(range(32))
    failures = []

    def worker(t):
        try:
            for n in range(200):
                nonce = t.to_bytes(4, "little") + n.to_bytes(8, "little")
                pt = bytes([t, n % 256]) * 500
                sealed = crypto.aead_seal(key, nonce, b"aad", pt)
                if crypto.aead_open(key, nonce, b"aad", sealed) != pt:
                    failures.append((t, n))
        except Exception as exc:  # reported below: a worker's raise is otherwise lost
            failures.append((t, exc))

    threads = [threading.Thread(target=worker, args=(t,)) for t in range(4)]
    switch = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join(timeout=30)
    finally:
        sys.setswitchinterval(switch)
    assert not any(thread.is_alive() for thread in threads)
    assert failures == []


def test_hash_empty_matches_published_digest():
    assert crypto.hash_data(b"").hex() == (
        "e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855"
    )


def test_hash_deterministic_and_extension_sensitive():
    rng = random.Random(4)
    for _ in range(100):
        x = rng.randbytes(rng.randint(0, 64))
        assert crypto.hash_data(x) == crypto.hash_data(x)
        assert crypto.hash_data(x) != crypto.hash_data(x + b"\x00")


def test_kdf_labels_separate():
    rng = random.Random(5)
    for _ in range(100):
        root, ctx = rng.randbytes(32), rng.randbytes(16)
        assert crypto.kdf(root, "mht", ctx) != crypto.kdf(root, "data", ctx)


def test_kdf_deterministic():
    root = b"r" * 32
    assert crypto.kdf(root, "mht", b"ctx") == crypto.kdf(root, "mht", b"ctx")


def test_kdf_contexts_distinct():
    root = b"r" * 32
    keys = {crypto.kdf(root, "mht", bytes([i])) for i in range(10)}
    assert len(keys) == 10


@pytest.mark.parametrize("label, context, expected", [
    ("mht", (7).to_bytes(8, "little"),
     "f669934b0ea26c76df030ba8056694264ae859d383f160a52fa47f5cc2729c1d"),
    ("a2s", bytes.fromhex("00ff") * 16,
     "6981efc0a9643ee110455a2924596bdb486337f2f5847ad94822adb212de51a3"),
    ("vault", b"",
     "1a3f902122d19e4c2d37a182b0ac958f0e1a182e60353328a4d53cddf871b726"),
])
def test_kdf_known_answers(label, context, expected):
    # HMAC-SHA-256(root, label || 0x00 || context); every stored key depends on these bytes
    assert crypto.kdf(bytes(range(32)), label, context).hex() == expected


# every label the package derives keys with: the pfs header key, channel
# directions and the vault key
KDF_LABELS = ("hdr", "a2s", "s2a", "vault")


def test_kdf_no_collisions_across_fixed_label_set():
    rng = random.Random(6)
    for _ in range(1000):
        root = rng.randbytes(32)
        derived = [crypto.kdf(root, label, b"ctx") for label in KDF_LABELS]
        assert len(set(derived)) == len(KDF_LABELS)


def test_kdf_label_bounds():
    with pytest.raises(ValueError):
        crypto.kdf(b"r" * 32, "", b"")
    with pytest.raises(ValueError):
        crypto.kdf(b"r" * 32, "x" * 33, b"")


def test_dh_symmetry():
    for _ in range(20):
        a, b = crypto.dh_generate(), crypto.dh_generate()
        assert crypto.dh_shared(a, b.public) == crypto.dh_shared(b, a.public)


def test_dh_with_own_public_key():
    a = crypto.dh_generate()
    shared = crypto.dh_shared(a, a.public)
    assert len(shared) == 32


def test_dh_distinct_peers_distinct_secrets():
    a = crypto.dh_generate()
    seen = set()
    for _ in range(20):
        peer = crypto.dh_generate()
        seen.add(crypto.dh_shared(a, peer.public))
    assert len(seen) == 20


def test_dh_invalid_peer_encoding():
    a = crypto.dh_generate()
    with pytest.raises(ValueError):
        crypto.dh_shared(a, b"\x01" * 31)


def test_no_key_pair_repr_shows_its_private_key():
    signing, agreement = crypto.sign_generate(), crypto.dh_generate()
    for pair, private in [(signing, signing.private),
                          (agreement, agreement.private.private_bytes_raw())]:
        text = repr(pair)
        assert repr(private) not in text and private.hex() not in text
        assert repr(pair.public) in text


def test_a_signing_key_pair_parses_its_private_key_once():
    kp = crypto.signing_key(crypto.sign_generate().private)
    assert kp.key is kp.key
    assert crypto.verify(kp.public, b"message", crypto.sign(kp, b"message"))
    loaded = crypto.SigningKeyPair(kp.private, kp.public)  # as a record decodes it
    assert loaded == kp and loaded.key is loaded.key
    assert crypto.sign(loaded, b"message") == crypto.sign(kp, b"message")


def test_sign_verify_roundtrip():
    kp = crypto.sign_generate()
    sig = crypto.sign(kp, b"message")
    assert len(sig) == 64
    assert crypto.verify(kp.public, b"message", sig)


def test_verify_wrong_public_key():
    kp, other = crypto.sign_generate(), crypto.sign_generate()
    sig = crypto.sign(kp, b"message")
    assert not crypto.verify(other.public, b"message", sig)


def test_verify_every_flipped_signature_byte_fails():
    kp = crypto.sign_generate()
    sig = crypto.sign(kp, b"message")
    for i in range(64):
        bad = bytearray(sig)
        bad[i] ^= 0xff
        assert not crypto.verify(kp.public, b"message", bytes(bad))


def test_verify_malformed_signature_length():
    kp = crypto.sign_generate()
    with pytest.raises(ValueError):
        crypto.verify(kp.public, b"m", b"\x00" * 63)
