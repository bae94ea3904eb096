"""On-disk layout of the protected file container (see FORMAT.md).

All integers little-endian. The file is a fixed 512-byte header followed
by sealed 4096+16 byte nodes, numbered from 0 in the order that a file
growing one block at a time creates them (`data_position`, `mht_position`
and FORMAT.md "Tree shape"), so no node ever moves.

Header (512 bytes):
    0   8   magic "SEALPFS1"
    8   4   version u32 = 4
    12  16  file_uuid (random, set at creation)
    28  12  header nonce
    40  2   meta_len u16
    42  ..  sealed_meta (AEAD, aad = magic || version || uuid)
    ..  512 zero padding (enforced)

sealed_meta plaintext:
    0   2          label_len u16
    2   label_len  filename label, UTF-8, <= 256 bytes
    +0  8          file_size u64 (logical bytes)
    +8  32         root node key  } all-zero when the file is empty
    +40 16         root node tag  }

Every MHT node plaintext is 64 child entries of 48 bytes (the child's
32-byte key, then the 16-byte GCM tag of its sealed bytes; in memory too
an entry is just these bytes), zero-padded to 4096. The bottom MHT level
points at data blocks, upper levels at MHT nodes. A node seals under the
key in its parent entry with the nonce of its node number (`node_nonce`);
a writer never seals two plaintexts under one key at one node number. The
AAD binds an MHT node's number or a data block's index. Versions 1 to 3
are refused, with no converter.
"""

from __future__ import annotations

import bisect
import struct

from ..failure import EXIT_INTEGRITY, Failure

MAGIC = b"SEALPFS1"
VERSION = 4
HEADER_SIZE = 512
BLOCK_SIZE = 4096
TAG_SIZE = 16
NODE_DISK_SIZE = BLOCK_SIZE + TAG_SIZE
FANOUT = 64
NONCE_SIZE = 12
KEY_SIZE = 32
ENTRY_SIZE = KEY_SIZE + TAG_SIZE
UUID_SIZE = 16
MAX_LABEL = 256

KIND_HEADER = "hdr"
KIND_MHT = "mht"
KIND_DATA = "data"


class PfsError(Exception):
    """Base error for the protected file container."""


class IntegrityError(PfsError, Failure):
    """A failed check at `node`: "header", "structure", "mht:<p>" or "data:<i>"."""

    KINDS = {"integrity": EXIT_INTEGRITY}

    def __init__(self, message: str, node: str = "header"):
        PfsError.__init__(self, message)
        self.kind, self.reason, self.node = "integrity", message, node


class WrongKeyError(IntegrityError):
    """Header did not authenticate: wrong master key (or a tampered header)."""


ZERO_ENTRY = bytes(ENTRY_SIZE)


def data_block_count(file_size: int) -> int:
    return (file_size + BLOCK_SIZE - 1) // BLOCK_SIZE


def mht_level_counts(n_blocks: int) -> list[int]:
    """Node count per MHT level, top-down (root level first). [] when empty."""
    counts = []
    while n_blocks:
        n_blocks = (n_blocks + FANOUT - 1) // FANOUT
        counts.append(n_blocks)
        if n_blocks == 1:
            break
    return counts[::-1]


def total_mht_nodes(n_blocks: int) -> int:
    """sum(mht_level_counts(n_blocks)) without building the list; the
    position functions call it on every node fetch."""
    total, width = 0, n_blocks
    while width:
        width = (width + FANOUT - 1) // FANOUT
        total += width
        if width == 1:
            break
    return total


def data_position(index: int) -> int:
    """Node number of data block `index`."""
    return index + total_mht_nodes(index + 1)


def mht_position(height: int, j: int) -> int:
    """Node number of MHT node `j` at `height` (the bottom level is 1);
    the append of block `creator` creates it."""
    creator = j * FANOUT ** height if j or height == 1 else FANOUT ** (height - 1)
    return creator + total_mht_nodes(creator) + height - 1


def node_offset(position: int) -> int:
    return HEADER_SIZE + position * NODE_DISK_SIZE


def container_disk_size(n_blocks: int) -> int:
    return HEADER_SIZE + (total_mht_nodes(n_blocks) + n_blocks) * NODE_DISK_SIZE


def blocks_from_total_nodes(total_nodes: int) -> int:
    """Invert n + total_mht_nodes(n) == total_nodes; raises if no shape fits.
    The left side strictly increases with n, so bisect on it."""
    def nodes(n):
        return n + total_mht_nodes(n)

    n = bisect.bisect_left(range(max(total_nodes, 0) + 1), total_nodes, key=nodes)
    if nodes(n) != total_nodes:
        raise IntegrityError(f"no tree shape yields {total_nodes} nodes", "structure")
    return n


def node_nonce(position: int) -> bytes:
    """The nonce of node number `position`: u64le(position) || 0^4."""
    return position.to_bytes(8, "little") + b"\x00\x00\x00\x00"


def node_aad_prefix(uuid: bytes, kind: str) -> bytes:
    """The part of a node's AAD that all nodes of `kind` share: kind || uuid."""
    return kind.encode("ascii") + uuid


def node_aad(prefix: bytes, index: int) -> bytes:
    """The AAD of node `index` (an MHT node number or a data block index):
    its kind's `node_aad_prefix`, then the index as a u64."""
    return prefix + index.to_bytes(8, "little")


def header_aad(uuid: bytes) -> bytes:
    return MAGIC + struct.pack("<I", VERSION) + uuid


def pack_meta(label: bytes, file_size: int, root: bytes) -> bytes:
    return struct.pack("<H", len(label)) + label + struct.pack("<Q", file_size) + root


def unpack_meta(meta: bytes) -> tuple[bytes, int, bytes]:
    if len(meta) < 2:
        raise IntegrityError("metadata too short")
    (label_len,) = struct.unpack_from("<H", meta, 0)
    expect = 2 + label_len + 8 + ENTRY_SIZE
    if label_len > MAX_LABEL or len(meta) != expect:
        raise IntegrityError("metadata length inconsistent")
    label = meta[2:2 + label_len]
    (file_size,) = struct.unpack_from("<Q", meta, 2 + label_len)
    return label, file_size, meta[2 + label_len + 8:]


def pack_header(uuid: bytes, header_nonce: bytes, sealed_meta: bytes) -> bytes:
    if len(sealed_meta) > HEADER_SIZE - 42:
        raise ValueError("sealed metadata does not fit the header region")
    head = (MAGIC + struct.pack("<I", VERSION) + uuid + header_nonce
            + struct.pack("<H", len(sealed_meta)) + sealed_meta)
    return head + b"\x00" * (HEADER_SIZE - len(head))


def split_header(raw: bytes) -> tuple[bytes, bytes, bytes]:
    """Validate the plaintext header region; returns (uuid, nonce, sealed_meta)."""
    if len(raw) != HEADER_SIZE:
        raise IntegrityError("truncated header")
    if raw[:8] != MAGIC:
        raise IntegrityError("bad magic")
    (version,) = struct.unpack_from("<I", raw, 8)
    if version != VERSION:
        raise IntegrityError(f"unsupported version {version}")
    uuid = raw[12:28]
    nonce = raw[28:40]
    (meta_len,) = struct.unpack_from("<H", raw, 40)
    if meta_len < TAG_SIZE or meta_len > HEADER_SIZE - 42:
        raise IntegrityError("metadata length out of range")
    sealed_meta = raw[42:42 + meta_len]
    if any(raw[42 + meta_len:]):
        raise IntegrityError("nonzero header padding")
    return uuid, nonce, sealed_meta
