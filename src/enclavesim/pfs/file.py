"""Protected file handle: transparent random-access read/write over the
sealed container, with root-to-leaf verification on every fetched node.

Each check lives in one place: `_open_header` accepts a container (its
header authenticates and the file length fits the recorded size) for
`ProtectedFile.open`, `info` and `verify_file`, and
`ProtectedFile._check_node` checks and opens every MHT and data node.
Data blocks are read in runs: the up to 64 blocks under one bottom MHT
node are adjacent on disk, so `_open_run` fetches that node once, reads
the blocks it needs with one disk read and checks them in block order.
`verify_file` fetches every node through a read-only handle and the same
run reader, so an audit verifies exactly what a read does, in the same
order, with memory bounded by one run plus the block cache.

Each flush draws one random key and seals every MHT and data node it
writes under it, each with the nonce of its node number; a flush writes a
node number at most once, so no (key, nonce) pair repeats. A node's parent
entry (48 bytes, as on disk) holds that key with the node's GCM tag; only
the header key is derived from the master key. The block cache holds only
MHT plaintexts: a data block's lives in `_dirty` until a flush seals it.
For a block a write covered whole, `_dirty` holds an immutable value, a
view of the payload when it is exactly `bytes` and a copy otherwise, so no
later change to a caller's buffer reaches the container; for a block
written in part, a `bytearray` patched in place. Flush reads every old MHT
node it reseals first, then seals the dirty and new blocks one run at a
time (the consecutive blocks under one bottom MHT node, adjacent on disk),
patching the run's entries into that node as one slice and writing the
run as soon as it is sealed, so it holds one run of sealed bytes beyond
the dirty plaintexts. Then it seals the MHT nodes bottom-up, writes them,
and writes the header last. A flush interrupted mid-write can corrupt the
container (detected on later reads, not recovered) -- there is
deliberately no journaling.

`ProtectedFile.create` reuses an existing file at its path without cutting
it to zero: it writes the new header over the old one at once, and its
handle counts no blocks on disk, so nothing reads the old bytes past the
header; the first flush writes every node and then sets the file length.
"""

from __future__ import annotations

import contextlib
import hmac
import os
import struct
from collections import deque
from dataclasses import dataclass

from .. import crypto
from . import format as fmt
from .cache import DEFAULT_CAPACITY, BlockCache
from .format import (
    BLOCK_SIZE,
    ENTRY_SIZE,
    FANOUT,
    HEADER_SIZE,
    KEY_SIZE,
    NODE_DISK_SIZE,
    TAG_SIZE,
    IntegrityError,
    PfsError,
    WrongKeyError,
)

ZERO_BLOCK = b"\x00" * BLOCK_SIZE

MODE_READ = "r"
MODE_READWRITE = "rw"


class ReadOnlyError(PfsError):
    """Write attempted through a read-only handle."""


@dataclass
class VerifyReport:
    ok: bool
    first_bad_node: str | None = None


class ProtectedFile:
    """Single-owner handle to one protected container on disk."""

    def __init__(self, fh, path, master_key, uuid, label, file_size,
                 disk_root, mode, cache_capacity):
        self._fh = fh
        self.path = path
        self._master_key = master_key
        self.uuid = uuid
        self.label = label
        self._file_size = file_size
        self._disk_blocks = fmt.data_block_count(file_size)
        self._disk_root = disk_root
        self._mode = mode
        self._cache = BlockCache(cache_capacity)
        self._dirty: dict[int, bytes | memoryview | bytearray] = {}
        self._closed = False
        self._nodes_sealed = 0
        self._nodes_opened = 0
        self._disk_reads = 0
        self._stale_tail = False  # file bytes past the container, until a flush cuts them
        self._aad_prefix = {kind: fmt.node_aad_prefix(uuid, kind)
                            for kind in (fmt.KIND_MHT, fmt.KIND_DATA)}

    # -- construction -------------------------------------------------

    @classmethod
    def create(cls, path, filename_label: str, master_key: bytes, *,
               cache_capacity: int = DEFAULT_CAPACITY,
               file_uuid: bytes | None = None) -> "ProtectedFile":
        """Create an empty protected file (header only) at `path`. A file
        already there is written over in place, not cut to zero first: its
        first bytes become the new header at once, no read ever reaches the
        stale bytes past it, and the first flush, which runs even with
        nothing written, sets the file length."""
        label = filename_label.encode("utf-8")
        if len(label) > fmt.MAX_LABEL:
            raise ValueError(f"filename label longer than {fmt.MAX_LABEL} bytes")
        if file_uuid is None:
            file_uuid = os.urandom(fmt.UUID_SIZE)
        elif len(file_uuid) != fmt.UUID_SIZE:
            raise ValueError(f"file uuid must be {fmt.UUID_SIZE} bytes")
        # no O_TRUNC: cutting an old file to zero only to write it again
        # drops and reallocates every page and block it had
        fh = open(os.open(path, os.O_RDWR | os.O_CREAT, 0o666), "r+b")
        try:
            handle = cls(fh, path, master_key, file_uuid, filename_label,
                         file_size=0, disk_root=fmt.ZERO_ENTRY,
                         mode=MODE_READWRITE, cache_capacity=cache_capacity)
            handle._write_header(fmt.ZERO_ENTRY)
            fh.flush()
        except BaseException:
            with contextlib.suppress(OSError):
                fh.close()  # retries a failed header write, which fails again
            raise
        handle._stale_tail = True
        return handle

    @classmethod
    def open(cls, path, filename_label: str, master_key: bytes,
             mode: str = MODE_READ, *,
             cache_capacity: int = DEFAULT_CAPACITY) -> "ProtectedFile":
        """Open an existing container that `_open_header` accepts and whose
        stored filename label matches `filename_label`."""
        if mode not in (MODE_READ, MODE_READWRITE):
            raise ValueError(f"mode must be '{MODE_READ}' or '{MODE_READWRITE}'")
        handle = cls._accept(path, master_key, mode, cache_capacity)
        if handle.label != filename_label:
            handle._fh.close()
            raise IntegrityError(f"filename label mismatch: container was created as "
                                 f"{handle.label!r}")
        return handle

    @classmethod
    def _accept(cls, path, master_key, mode, cache_capacity) -> "ProtectedFile":
        """A handle on the container at `path` once `_open_header` accepts it."""
        fh = open(path, "r+b" if mode == MODE_READWRITE else "rb")
        try:
            uuid, label, file_size, root = _open_header(fh, master_key)
        except BaseException:
            fh.close()
            raise
        # surrogateescape keeps every stored byte, so open compares labels exactly
        return cls(fh, path, master_key, uuid, label.decode("utf-8", "surrogateescape"),
                   file_size, root, mode, cache_capacity)

    # -- public surface -----------------------------------------------

    @property
    def size(self) -> int:
        return self._file_size

    def read(self, offset: int, length: int) -> bytes:
        """Plaintext bytes at [offset, offset+length); every touched block is
        verified root-to-leaf before any plaintext is returned."""
        self._check_open()
        if offset < 0 or length < 0:
            raise ValueError("negative offset or length")
        if offset + length > self._file_size:
            raise ValueError("read past end of file")
        if not length:
            return b""
        blocks = range(offset // BLOCK_SIZE, (offset + length - 1) // BLOCK_SIZE + 1)
        opened = self._data_plaintexts(blocks)
        whole = b"".join([opened[i] if i in opened else self._dirty.get(i, ZERO_BLOCK)
                          for i in blocks])
        start = offset - blocks.start * BLOCK_SIZE
        return whole[start:start + length]

    def write(self, offset: int, data: bytes) -> None:
        """Buffer `data` at `offset`, extending the file if needed; gaps
        created by extending writes read back as zeros.

        A block the write covers whole is buffered as an immutable value: a
        view of `data` when it is exactly `bytes`, else a copy, so a caller
        that later changes its buffer cannot reach the container. A block
        written in part is a `bytearray`, patched in place, that starts from
        the block's buffered value, its verified plaintext, or zeros.

        `data` is measured in bytes, whatever its item size; a buffer that
        is not C-contiguous raises `TypeError` with nothing buffered."""
        self._check_open()
        if self._mode != MODE_READWRITE:
            raise ReadOnlyError("handle opened read-only")
        if offset < 0:
            raise ValueError("negative offset")
        with memoryview(data) as items, items.cast("B") as view:
            if not view:
                return
            end = offset + len(view)
            blocks = range(offset // BLOCK_SIZE, (end - 1) // BLOCK_SIZE + 1)
            # every block on disk that is not dirty is verified before it is
            # replaced, even when the write covers it whole
            opened = self._data_plaintexts(blocks)
            immutable = type(data) is bytes
            dirty = self._dirty
            for i in blocks:
                base = i * BLOCK_SIZE
                lo, hi = max(offset - base, 0), min(end - base, BLOCK_SIZE)
                piece = view[base + lo - offset:base + hi - offset]
                if hi - lo == BLOCK_SIZE:
                    dirty[i] = piece if immutable else bytes(piece)
                    continue
                buf = dirty.get(i)
                if type(buf) is not bytearray:
                    buf = dirty[i] = bytearray(opened.get(i, ZERO_BLOCK) if buf is None else buf)
                buf[lo:hi] = piece
        self._file_size = max(self._file_size, end)

    def stats(self) -> dict:
        """Work done through this handle: MHT and data nodes sealed and
        opened, node reads issued to the disk (one per run of adjacent
        nodes; the header is not counted in any of these), and block cache
        hits and misses."""
        return {"nodes_sealed": self._nodes_sealed,
                "nodes_opened": self._nodes_opened,
                "disk_reads": self._disk_reads,
                "cache_hits": self._cache.hits,
                "cache_misses": self._cache.misses}

    def flush(self) -> None:
        """Reseal the dirty data blocks, the new zero blocks of a file that
        grew, and their MHT ancestors in place under one fresh key, then the
        header, then sets the file length. No node ever moves, so every
        other node stays as it is. No-op when nothing changed since the last
        flush, except that a created handle's first flush always sets the
        length."""
        self._check_open()
        old_n, new_n = self._disk_blocks, fmt.data_block_count(self._file_size)
        if not self._dirty and new_n == old_n:
            if self._stale_tail:  # created, nothing written: only the length is left to set
                self._fh.truncate(fmt.container_disk_size(new_n))
                self._stale_tail = False
            return
        key = os.urandom(KEY_SIZE)  # this flush's one node key
        old_nodes = old_n + fmt.total_mht_nodes(old_n)  # node numbers on disk
        old_height = len(fmt.mht_level_counts(old_n))
        new_height = len(fmt.mht_level_counts(new_n))
        blocks = sorted(self._dirty.keys() | range(old_n, new_n))
        # runs of consecutive blocks under one bottom MHT node: a new bottom
        # node sits on disk before each block i with i % 64 == 0
        starts = [0] + [k for k, (a, b) in enumerate(zip(blocks, blocks[1:]), 1)
                        if b != a + 1 or not b % FANOUT]

        # the MHT nodes to reseal, by height from 1, as {j: plaintext} from
        # their old plaintexts, verified through the old tree, or from zeros
        # when new: every read precedes the first write
        tree: list[dict[int, bytearray]] = []
        changed = dict.fromkeys(blocks[k] // FANOUT for k in starts)
        for height in range(1, new_height + 1):
            tree.append({j: bytearray(self._fetch_mht_plaintext(height, j)
                                      if fmt.mht_position(height, j) < old_nodes else ZERO_BLOCK)
                         for j in changed})
            changed = dict.fromkeys(j // FANOUT for j in changed)
        if 0 < old_height < new_height and 0 not in tree[old_height - 1]:
            # the tree grew taller: the old root stays, as child 0 of the new level
            tree[old_height][0][:ENTRY_SIZE] = self._disk_root

        # each data run is sealed into one buffer, patched into its bottom
        # node as one slice and written with one seek and write
        with memoryview(bytearray(min(len(blocks), FANOUT) * NODE_DISK_SIZE)) as out:
            for lo, hi in zip(starts, starts[1:] + [len(blocks)]):
                run = blocks[lo:hi]
                first = fmt.data_position(run[0])
                entries = self._seal(key, fmt.KIND_DATA, first, run,
                                     [self._dirty.get(i, ZERO_BLOCK) for i in run], out)
                at = run[0] % FANOUT * ENTRY_SIZE
                tree[0][run[0] // FANOUT][at:at + len(entries)] = entries
                self._fh.seek(fmt.node_offset(first))
                self._fh.write(out[:len(run) * NODE_DISK_SIZE])

        # bottom-up, each sealed MHT node patches its entry into its parent
        mht = []  # (node number, sealed node)
        # the resealed MHT plaintexts the cache can hold: putting the last
        # ones replaces or evicts every stale entry
        fresh = deque(maxlen=self._cache.capacity)
        for height, level in enumerate(tree, 1):
            for j, plain in level.items():
                p = fmt.mht_position(height, j)
                sealed = bytearray(NODE_DISK_SIZE)
                entry = self._seal(key, fmt.KIND_MHT, p, [p], [plain], sealed)
                mht.append((p, sealed))
                fresh.append((p, plain))
                if height < new_height:
                    at = j % FANOUT * ENTRY_SIZE
                    tree[height][j // FANOUT][at:at + ENTRY_SIZE] = entry
        root = entry  # the one node at the top height is sealed last
        for p, sealed in sorted(mht):
            self._fh.seek(fmt.node_offset(p))
            self._fh.write(sealed)
        self._write_header(root)
        self._fh.truncate(fmt.container_disk_size(new_n))
        self._fh.flush()

        self._disk_blocks = new_n
        self._disk_root = root
        self._stale_tail = False
        self._dirty.clear()
        for p, plain in fresh:
            self._cache.put(p, bytes(plain))

    def close(self) -> None:
        """Flush a read-write handle, then close the file, also when the
        flush raises; the handle is closed either way."""
        if self._closed:
            return
        try:
            if self._mode == MODE_READWRITE:
                self.flush()
        finally:
            self._fh.close()
            self._closed = True

    def __enter__(self):
        return self

    def __exit__(self, *exc):
        self.close()

    # -- internals ----------------------------------------------------

    def _check_open(self):
        if self._closed:
            raise PfsError("handle is closed")

    def _seal(self, key: bytes, kind: str, position: int, indices: list[int],
              plaintexts: list, out: bytearray | memoryview) -> bytes:
        """Seal nodes `indices` of `kind`, adjacent on disk from node number
        `position` on, under the flush's one `key`, each with the nonce of
        its node number, into `out` one after another; returns their parent
        entries, joined. The caller seals a node number at most once per
        key, so no (key, nonce) pair repeats."""
        aead_seal, prefix, nonce = crypto.aead_seal, self._aad_prefix[kind], fmt.node_nonce
        entries = []
        for k, (index, plain) in enumerate(zip(indices, plaintexts)):
            sealed = aead_seal(key, nonce(position + k), fmt.node_aad(prefix, index), plain)
            out[k * NODE_DISK_SIZE:(k + 1) * NODE_DISK_SIZE] = sealed
            entries += key, sealed[-TAG_SIZE:]
        self._nodes_sealed += len(indices)
        return b"".join(entries)

    def _data_plaintexts(self, blocks: range) -> dict[int, bytes]:
        """Verified plaintexts of the blocks in `blocks` that are on disk and
        not dirty, from one `_open_run` per bottom MHT node."""
        opened = {}
        stop = min(blocks.stop, self._disk_blocks)
        for j in range(blocks.start // FANOUT, (stop + FANOUT - 1) // FANOUT):
            on_disk = range(max(blocks.start, j * FANOUT), min(stop, (j + 1) * FANOUT))
            clean = [i for i in on_disk if i not in self._dirty]
            if clean:
                opened.update(zip(clean, self._open_run(j, clean)))
        return opened

    def _open_run(self, j: int, blocks: list[int] | range) -> list[bytes]:
        """Check and open data `blocks` (ascending, all under bottom MHT node
        `j`) in block order, after one fetch of that node and one disk read
        from the first block to the last; they are adjacent on disk."""
        bottom = self._fetch_mht_plaintext(1, j)
        first, base = blocks[0], j * FANOUT
        start = fmt.data_position(first)  # the run's node numbers are consecutive
        run = memoryview(self._read_nodes(start, blocks[-1] - first + 1))
        check, aead_open = self._check_node, crypto.aead_open
        opened = [check(aead_open, fmt.KIND_DATA, i, start + i - first,
                        bottom[(i - base) * ENTRY_SIZE:(i - base + 1) * ENTRY_SIZE],
                        run[(i - first) * NODE_DISK_SIZE:(i - first + 1) * NODE_DISK_SIZE])
                  for i in blocks]
        self._nodes_opened += len(opened)
        return opened

    def _fetch_mht_plaintext(self, height: int, j: int) -> bytes:
        p = fmt.mht_position(height, j)
        cached = self._cache.get(p)
        if cached is not None:
            return cached
        if FANOUT ** height >= self._disk_blocks:  # the root: no lower height covers every block
            entry = self._disk_root
        else:
            at = j % FANOUT * ENTRY_SIZE
            entry = self._fetch_mht_plaintext(height + 1, j // FANOUT)[at:at + ENTRY_SIZE]
        plain = self._check_node(crypto.aead_open, fmt.KIND_MHT, p, p, entry, self._read_nodes(p))
        self._nodes_opened += 1
        self._cache.put(p, plain)
        return plain

    def _read_nodes(self, position: int, count: int = 1) -> bytes:
        """The sealed bytes of `count` adjacent nodes from node number
        `position` on, in one disk read; short where the file ends."""
        self._disk_reads += 1
        self._fh.seek(fmt.node_offset(position))
        return self._fh.read(count * NODE_DISK_SIZE)

    def _check_node(self, aead_open, kind: str, index: int, position: int, entry: bytes,
                    sealed: bytes | memoryview) -> bytes:
        """Check the sealed bytes of node number `position` against the tag in
        its parent `entry` and open them under its key and its number's nonce
        with `aead_open`, the caller's lookup of `crypto.aead_open`;
        `IntegrityError.node` names failures. The caller counts the nodes it
        opened."""
        if len(sealed) != NODE_DISK_SIZE:
            raise IntegrityError(f"{kind}:{index} truncated on disk", f"{kind}:{index}")
        if not hmac.compare_digest(sealed[-TAG_SIZE:], entry[KEY_SIZE:]):
            raise IntegrityError(f"{kind}:{index} tag mismatch", f"{kind}:{index}")
        try:
            return aead_open(entry[:KEY_SIZE], fmt.node_nonce(position),
                             fmt.node_aad(self._aad_prefix[kind], index), sealed)
        except crypto.AuthError:
            raise IntegrityError(f"{kind}:{index} failed authentication", f"{kind}:{index}")

    def _write_header(self, root: bytes) -> None:
        meta = fmt.pack_meta(self.label.encode("utf-8"), self._file_size, root)
        nonce = os.urandom(fmt.NONCE_SIZE)
        sealed = crypto.aead_seal(_header_key(self._master_key, self.uuid), nonce,
                                  fmt.header_aad(self.uuid), meta)
        self._fh.seek(0)
        self._fh.write(fmt.pack_header(self.uuid, nonce, sealed))


def _open_header(fh, master_key: bytes) -> tuple[bytes, bytes, int, bytes]:
    """The one acceptance check of a container: the header authenticates,
    then the file length is the one its recorded size gives. Returns (uuid,
    label, file_size, root); raises IntegrityError at `header` or `structure`."""
    uuid, nonce, sealed_meta = fmt.split_header(fh.read(HEADER_SIZE))
    try:
        meta = crypto.aead_open(_header_key(master_key, uuid), nonce, fmt.header_aad(uuid),
                                sealed_meta)
    except crypto.AuthError:
        raise WrongKeyError("header did not authenticate (wrong key or tampered header)")
    label, file_size, root = fmt.unpack_meta(meta)
    if os.fstat(fh.fileno()).st_size != fmt.container_disk_size(fmt.data_block_count(file_size)):
        raise IntegrityError("file length does not match the recorded file size", "structure")
    return uuid, label, file_size, root


def _header_key(master_key: bytes, uuid: bytes) -> bytes:
    """The one derived key of a container; node keys are random, one per flush."""
    return crypto.kdf(master_key, fmt.KIND_HEADER, uuid + struct.pack("<Q", 0))


def read_uuid(path) -> bytes:
    """The container uuid, readable without the key."""
    with open(path, "rb") as fh:
        return fmt.split_header(fh.read(HEADER_SIZE))[0]


def info(path, master_key: bytes | None = None) -> dict:
    """Container facts: uuid, node/block counts; label and logical size too
    when the key is supplied and `_open_header` accepts the container."""
    with open(path, "rb") as fh:
        if master_key is None:
            uuid = fmt.split_header(fh.read(HEADER_SIZE))[0]
        else:
            uuid, label, file_size, _ = _open_header(fh, master_key)
        disk_size = os.fstat(fh.fileno()).st_size
    total_nodes, partial = divmod(disk_size - HEADER_SIZE, NODE_DISK_SIZE)
    if partial:
        raise IntegrityError("body is not a whole number of nodes", "structure")
    n_blocks = fmt.blocks_from_total_nodes(total_nodes)
    result = {
        "uuid": uuid.hex(),
        "total_nodes": total_nodes,
        "data_blocks": n_blocks,
        "mht_nodes": total_nodes - n_blocks,
        "disk_size": disk_size,
    }
    if master_key is not None:
        result["label"] = label.decode("utf-8", "replace")
        result["file_size"] = file_size
    return result


def verify_file(path, master_key: bytes) -> VerifyReport:
    """Audit a container that `_open_header` accepts through a read-only
    handle: MHT nodes level by level from the root down, then data blocks
    by index through the run reader of `read`, each opened once while the
    MHT fits the block cache. Reports the first failure, `header` and
    `structure` included, instead of raising."""
    try:
        with ProtectedFile._accept(path, master_key, MODE_READ, DEFAULT_CAPACITY) as handle:
            levels = fmt.mht_level_counts(handle._disk_blocks)
            for height, count in zip(range(len(levels), 0, -1), levels):
                for j in range(count):
                    handle._fetch_mht_plaintext(height, j)
            # data blocks are never cached, so they never evict the MHT nodes
            for j in range(levels[-1] if levels else 0):
                handle._open_run(j, range(j * FANOUT, min((j + 1) * FANOUT, handle._disk_blocks)))
    except IntegrityError as exc:
        return VerifyReport(False, exc.node)
    return VerifyReport(True)
