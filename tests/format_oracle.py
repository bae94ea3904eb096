"""An independent reader of the protected container format, written from
FORMAT.md alone: it imports nothing from enclavesim, so a test that checks
the library's containers with it checks the bytes against the document,
not the library against itself."""

import hashlib
import hmac
import struct

from cryptography.hazmat.primitives.ciphers.aead import AESGCM

MAGIC = b"SEALPFS1"
VERSION = 4
HEADER = 512
BLOCK = 4096
TAG = 16
NODE = BLOCK + TAG
FANOUT = 64
KEY = 32
ENTRY = KEY + TAG
USED = FANOUT * ENTRY  # 3072: entry bytes of an MHT node, zeros after them


class FormatError(Exception):
    """The bytes break a rule of FORMAT.md."""


def _require(ok, what):
    if not ok:
        raise FormatError(what)


def level_sizes(n_blocks):
    """MHT level sizes bottom-up (index 0 is height 1); [] when empty."""
    sizes = []
    width = n_blocks
    while width:
        width = -(-width // FANOUT)
        sizes.append(width)
        if width == 1:
            break
    return sizes


def data_number(i):
    return i + sum(level_sizes(i + 1))


def mht_number(k, j):
    b = j * FANOUT ** k if j > 0 or k == 1 else FANOUT ** (k - 1)
    return b + sum(level_sizes(b)) + k - 1


def read_container(raw, master_key, label):
    """The logical plaintext of container bytes `raw`, after every check of
    FORMAT.md; raises FormatError on the first broken rule."""
    _require(len(raw) >= HEADER, "shorter than the header")
    _require(raw[:8] == MAGIC, "magic")
    _require(struct.unpack_from("<I", raw, 8)[0] == VERSION, "version")
    uuid, nonce = raw[12:28], raw[28:40]
    (meta_len,) = struct.unpack_from("<H", raw, 40)
    _require(42 + meta_len <= HEADER, "meta_len")
    _require(not any(raw[42 + meta_len:HEADER]), "header padding")

    header_key = hmac.new(master_key, b"hdr" + b"\x00" + uuid + struct.pack("<Q", 0),
                          hashlib.sha256).digest()
    meta = AESGCM(header_key).decrypt(nonce, raw[42:42 + meta_len],
                                      MAGIC + struct.pack("<I", VERSION) + uuid)
    (label_len,) = struct.unpack_from("<H", meta, 0)
    _require(len(meta) == 2 + label_len + 8 + ENTRY, "metadata length")
    _require(meta[2:2 + label_len] == label, "filename label")
    (file_size,) = struct.unpack_from("<Q", meta, 2 + label_len)
    root = meta[2 + label_len + 8:]

    n = -(-file_size // BLOCK)
    sizes = level_sizes(n)
    _require(len(raw) == HEADER + (sum(sizes) + n) * NODE, "file length")
    if not n:
        _require(root == bytes(ENTRY), "root entry of an empty file")
        return b""

    def open_node(number, entry, kind, index):
        sealed = raw[HEADER + number * NODE:HEADER + (number + 1) * NODE]
        _require(sealed[-TAG:] == entry[KEY:], f"{kind}:{index} tag")
        aad = kind.encode("ascii") + uuid + struct.pack("<Q", index)
        nonce = struct.pack("<Q", number) + bytes(4)
        return AESGCM(entry[:KEY]).decrypt(nonce, sealed, aad)

    blocks = []

    def walk(k, j, entry):
        number = mht_number(k, j)
        plain = open_node(number, entry, "mht", number)
        _require(not any(plain[USED:]), f"mht:{number} padding")
        children = sizes[k - 2] if k > 1 else n
        for slot in range(FANOUT):
            child = j * FANOUT + slot
            child_entry = plain[slot * ENTRY:(slot + 1) * ENTRY]
            if child >= children:
                _require(child_entry == bytes(ENTRY), f"mht:{number} unused slot {slot}")
            elif k > 1:
                walk(k - 1, child, child_entry)
            else:
                blocks.append(open_node(data_number(child), child_entry, "data", child))

    walk(len(sizes), 0, root)
    plaintext = b"".join(blocks)
    _require(not any(plaintext[file_size:]), "final block padding")
    return plaintext[:file_size]
