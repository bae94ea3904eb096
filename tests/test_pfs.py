import errno
import gc
import os
import random
import shutil
import tempfile
import tracemalloc
from array import array
from pathlib import Path

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st
from hypothesis.stateful import (
    RuleBasedStateMachine,
    initialize,
    invariant,
    precondition,
    rule,
)

from enclavesim import crypto
from enclavesim.cli import main
from enclavesim.pfs import (
    BLOCK_SIZE,
    IntegrityError,
    PfsError,
    ProtectedFile,
    ReadOnlyError,
    VerifyReport,
    WrongKeyError,
    info,
    read_uuid,
    verify_file,
)
from enclavesim.pfs import format as fmt

import format_oracle

KEY = bytes(range(32))


def make_file(path, data, label="file.bin", key=KEY, **kw):
    with ProtectedFile.create(path, label, key, **kw) as pf:
        if data:
            pf.write(0, data)
    return path


def read_all(path, label="file.bin", key=KEY, **kw):
    with ProtectedFile.open(path, label, key, **kw) as pf:
        return pf.read(0, pf.size)


# -- create / open ------------------------------------------------------

def test_create_then_open_empty(tmp_path):
    p = tmp_path / "empty.pfs"
    make_file(p, b"")
    with ProtectedFile.open(p, "file.bin", KEY) as pf:
        assert pf.size == 0
        assert pf.read(0, 0) == b""
    assert info(p)["data_blocks"] == 0


def test_create_write_10000_bytes_three_blocks(tmp_path):
    p = tmp_path / "f.pfs"
    make_file(p, b"x" * 10000)
    meta = info(p, KEY)
    assert meta["data_blocks"] == 3
    assert meta["file_size"] == 10000


def test_create_label_too_long(tmp_path):
    with pytest.raises(ValueError):
        ProtectedFile.create(tmp_path / "f.pfs", "x" * 257, KEY)


def test_label_256_bytes_ok(tmp_path):
    p = tmp_path / "f.pfs"
    label = "x" * 256
    make_file(p, b"data", label=label)
    assert read_all(p, label=label) == b"data"


def test_open_wrong_key(tmp_path):
    p = tmp_path / "f.pfs"
    make_file(p, b"data")
    with pytest.raises(WrongKeyError):
        ProtectedFile.open(p, "file.bin", b"\xff" * 32)


@pytest.mark.parametrize("version", [1, 2, 3])
def test_a_version_1_container_is_refused(tmp_path, version):
    p = make_file(tmp_path / "f.pfs", b"data")
    raw = bytearray(p.read_bytes())
    raw[8:12] = version.to_bytes(4, "little")
    p.write_bytes(bytes(raw))
    with pytest.raises(IntegrityError, match=f"unsupported version {version}"):
        ProtectedFile.open(p, "file.bin", KEY)
    assert verify_file(p, KEY) == VerifyReport("header")


def test_filename_binding_defeats_file_swap(tmp_path):
    src = tmp_path / "model.pt"
    make_file(src, b"weights", label="model.pt")
    dst = tmp_path / "other.pt"
    shutil.copy(src, dst)
    with pytest.raises(IntegrityError):
        ProtectedFile.open(dst, "other.pt", KEY)
    # and still opens under the creation label
    assert read_all(dst, label="model.pt") == b"weights"


def test_open_roundtrip(tmp_path):
    p = tmp_path / "f.pfs"
    data = os.urandom(20000)
    make_file(p, data)
    assert read_all(p) == data


@pytest.mark.skipif(not os.path.exists("/dev/full"), reason="needs /dev/full")
def test_a_create_whose_header_write_fails_closes_its_file():
    with pytest.raises(OSError) as exc:
        ProtectedFile.create("/dev/full", "file.bin", KEY)
    assert exc.value.errno == errno.ENOSPC
    del exc  # its traceback holds the frame that opened the file
    gc.collect()  # an unclosed file would warn here, an error under the test filter


@pytest.mark.parametrize("new_blocks", [0, 10])
def test_a_create_over_a_longer_container_sets_the_new_length(tmp_path, new_blocks):
    p = make_file(tmp_path / "f.pfs", random.Random(7).randbytes(300 * BLOCK_SIZE))
    data = random.Random(8).randbytes(new_blocks * BLOCK_SIZE)
    make_file(p, data)  # with no write at all when the new file is empty
    assert p.stat().st_size == fmt.container_disk_size(new_blocks)
    assert info(p, KEY)["data_blocks"] == new_blocks
    assert verify_file(p, KEY).ok
    assert format_oracle.read_container(p.read_bytes(), KEY, b"file.bin") == data


def test_a_create_over_other_bytes_never_reads_them(tmp_path):
    p = tmp_path / "f.pfs"
    rng = random.Random(31)
    p.write_bytes(rng.randbytes(1 << 20))  # longer than any container written here
    model = bytearray()
    with ProtectedFile.create(p, "file.bin", KEY) as pf:
        for _ in range(3):
            for _ in range(6):
                offset = rng.randrange(70 * BLOCK_SIZE) | 1
                data = rng.randbytes(rng.randrange(1, 3 * BLOCK_SIZE))
                pf.write(offset, data)
                model.extend(bytes(max(offset + len(data) - len(model), 0)))
                model[offset:offset + len(data)] = data
                lo = rng.randrange(len(model))
                hi = rng.randrange(lo, len(model) + 1)
                assert pf.read(lo, hi - lo) == model[lo:hi]
            if not pf.stats()["nodes_sealed"]:  # before the first flush, nothing is on disk
                assert pf.stats()["disk_reads"] == 0
            pf.flush()
            assert pf.read(0, pf.size) == model
    assert read_all(p) == model
    assert verify_file(p, KEY).ok


# -- read ---------------------------------------------------------------

def test_read_full_file(tmp_path):
    p = tmp_path / "f.pfs"
    data = os.urandom(3 * BLOCK_SIZE + 17)
    make_file(p, data)
    with ProtectedFile.open(p, "file.bin", KEY) as pf:
        assert pf.read(0, pf.size) == data


def test_tampered_block_only_breaks_its_own_path(tmp_path):
    p = tmp_path / "f.pfs"
    data = os.urandom(3 * BLOCK_SIZE)
    make_file(p, data)
    # block 1 sealed bytes live after header + 1 MHT node + block 0
    offset = 512 + 4112 * 2 + 100
    _flip_byte(p, offset)
    with ProtectedFile.open(p, "file.bin", KEY) as pf:
        assert pf.read(0, 100) == data[:100]
        with pytest.raises(IntegrityError):
            pf.read(BLOCK_SIZE, 1)


def test_random_reads_match_reference_slice(tmp_path):
    p = tmp_path / "f.pfs"
    rng = random.Random(7)
    reference = rng.randbytes(64 * 1024)
    make_file(p, reference)
    with ProtectedFile.open(p, "file.bin", KEY) as pf:
        for _ in range(500):
            off = rng.randint(0, len(reference))
            ln = rng.randint(0, len(reference) - off)
            assert pf.read(off, ln) == reference[off:off + ln]


def test_read_out_of_range(tmp_path):
    p = tmp_path / "f.pfs"
    make_file(p, b"abc")
    with ProtectedFile.open(p, "file.bin", KEY) as pf:
        with pytest.raises(ValueError):
            pf.read(0, 4)
        with pytest.raises(ValueError):
            pf.read(4, 0)


# -- write --------------------------------------------------------------

def test_write_appends_at_end(tmp_path):
    p = tmp_path / "f.pfs"
    with ProtectedFile.create(p, "file.bin", KEY) as pf:
        pf.write(0, b"hello")
        pf.write(pf.size, b" world")
        assert pf.read(0, pf.size) == b"hello world"
    assert read_all(p) == b"hello world"


def test_gap_write_zero_fills(tmp_path):
    p = tmp_path / "f.pfs"
    with ProtectedFile.create(p, "file.bin", KEY) as pf:
        pf.write(0, b"\x07")
        pf.flush()
        pf.write(BLOCK_SIZE, b"\x09")
        assert pf.size == BLOCK_SIZE + 1
    data = read_all(p)
    assert len(data) == BLOCK_SIZE + 1
    assert data[0] == 7
    assert data[-1] == 9
    assert set(data[1:BLOCK_SIZE]) == {0}


def test_gap_spanning_whole_blocks(tmp_path):
    p = tmp_path / "f.pfs"
    with ProtectedFile.create(p, "file.bin", KEY) as pf:
        pf.write(0, b"\x01")
        pf.flush()
        pf.write(3 * BLOCK_SIZE + 5, b"\x02")
        # block 1 and 2 are pure gap, never written
        assert pf.read(BLOCK_SIZE, 2 * BLOCK_SIZE) == b"\x00" * (2 * BLOCK_SIZE)
    data = read_all(p)
    assert data[0] == 1 and data[-1] == 2
    assert set(data[1:-1]) == {0}


def test_random_write_replay_matches_reference(tmp_path):
    p = tmp_path / "f.pfs"
    rng = random.Random(11)
    reference = bytearray()
    with ProtectedFile.create(p, "file.bin", KEY) as pf:
        for _ in range(200):
            off = rng.randint(0, 60000)
            chunk = rng.randbytes(rng.randint(0, 2000))
            pf.write(off, chunk)
            if off + len(chunk) > len(reference) and chunk:
                reference.extend(b"\x00" * (off + len(chunk) - len(reference)))
            reference[off:off + len(chunk)] = chunk
            if rng.random() < 0.1:
                pf.flush()
        assert pf.read(0, pf.size) == bytes(reference)
    assert read_all(p) == bytes(reference)


def test_write_on_readonly_handle(tmp_path):
    p = tmp_path / "f.pfs"
    make_file(p, b"data")
    with ProtectedFile.open(p, "file.bin", KEY) as pf:
        with pytest.raises(ReadOnlyError):
            pf.write(0, b"x")


def test_readwrite_open_modify(tmp_path):
    p = tmp_path / "f.pfs"
    make_file(p, b"aaaa")
    with ProtectedFile.open(p, "file.bin", KEY, mode="rw") as pf:
        pf.write(1, b"bb")
    assert read_all(p) == b"abba"


INVERT = bytes(range(255, -1, -1))  # a `translate` table that changes every byte


@pytest.mark.parametrize("wrap", [bytearray, lambda b: memoryview(bytearray(b))],
                         ids=["bytearray", "memoryview"])
def test_changing_a_mutable_payload_after_the_write_leaves_the_container(tmp_path, wrap):
    # a partial head over a block on disk, a whole block on disk, a whole
    # new block and a partial new tail
    p = tmp_path / "f.pfs"
    old = random.Random(23).randbytes(2 * BLOCK_SIZE)
    payload = random.Random(29).randbytes(3 * BLOCK_SIZE)
    want = old[:100] + payload
    make_file(p, old)
    source = wrap(payload)
    with ProtectedFile.open(p, "file.bin", KEY, mode="rw") as pf:
        pf.write(100, source)
        source[:] = payload.translate(INVERT)
        assert pf.read(0, pf.size) == want
        pf.flush()
        assert pf.read(0, pf.size) == want
    assert read_all(p) == want


def test_a_wide_item_payload_is_measured_in_bytes(tmp_path):
    # 8-byte items: two whole blocks of doubles, then 100 doubles patched
    # into part of a block past a gap
    p = tmp_path / "f.pfs"
    head, tail = array("d", [2.5] * 1024), array("d", [1.5] * 100)
    want = head.tobytes() + bytes(BLOCK_SIZE) + tail.tobytes()
    with ProtectedFile.create(p, "file.bin", KEY) as pf:
        pf.write(0, head)
        assert pf.size == 2 * BLOCK_SIZE
        pf.write(3 * BLOCK_SIZE, tail)
        assert pf.size == len(want)
        assert pf.read(0, pf.size) == want
        pf.flush()
    assert read_all(p) == want


def test_a_non_contiguous_payload_is_refused_with_nothing_buffered(tmp_path):
    p = make_file(tmp_path / "f.pfs", b"old")
    with ProtectedFile.open(p, "file.bin", KEY, mode="rw") as pf:
        with pytest.raises(TypeError):
            pf.write(0, memoryview(bytearray(2 * BLOCK_SIZE))[::2])
        assert pf.size == 3
        pf.flush()
        assert pf.stats()["nodes_sealed"] == 0
    assert read_all(p) == b"old"


# -- flush / close ------------------------------------------------------

def test_flush_then_reopen(tmp_path):
    p = tmp_path / "f.pfs"
    data = os.urandom(12345)
    with ProtectedFile.create(p, "file.bin", KEY) as pf:
        pf.write(0, data)
        pf.flush()
        assert read_all(p) == data  # second handle while first still open
    assert read_all(p) == data


def test_double_flush_no_op(tmp_path):
    p = tmp_path / "f.pfs"
    with ProtectedFile.create(p, "file.bin", KEY) as pf:
        pf.write(0, b"payload")
        pf.flush()
        before = p.read_bytes()
        pf.flush()
        assert p.read_bytes() == before


def test_close_closes_the_file_when_the_final_flush_fails(tmp_path):
    # a new block needs no old plaintext, so the write succeeds and the
    # flush is the first to open the tampered MHT node
    p = make_file(tmp_path / "f.pfs", random.Random(71).randbytes(10 * BLOCK_SIZE))
    _flip_byte(p, fmt.node_offset(fmt.mht_position(1, 0)))
    tampered = p.read_bytes()
    pf = ProtectedFile.open(p, "file.bin", KEY, mode="rw")
    pf.write(10 * BLOCK_SIZE, b"new block")
    with pytest.raises(IntegrityError) as exc:
        with pf:
            pass
    assert exc.value.node == "mht:0"
    assert pf._fh.closed
    pf.close()  # closed once, so a later close is a no-op
    with pytest.raises(PfsError, match="closed"):
        pf.read(0, 1)
    del pf
    gc.collect()  # an unclosed file would warn here, an error under the test filter
    assert p.read_bytes() == tampered


def test_unflushed_writes_do_not_touch_disk(tmp_path):
    p = tmp_path / "f.pfs"
    make_file(p, b"original contents")
    before = p.read_bytes()
    pf = ProtectedFile.open(p, "file.bin", KEY, mode="rw")
    pf.write(0, b"REPLACED")
    pf.write(5000, os.urandom(100))
    # simulate a crash: drop the handle without flush/close
    pf._fh.close()
    pf._closed = True
    assert p.read_bytes() == before
    assert read_all(p) == b"original contents"


def test_three_level_tree_roundtrip(tmp_path):
    # > 4096 blocks forces a third MHT level
    p = tmp_path / "deep.pfs"
    rng = random.Random(83)
    size = 4097 * BLOCK_SIZE
    data = rng.randbytes(size)
    make_file(p, data)
    meta = info(p)
    assert meta["data_blocks"] == 4097
    assert meta["mht_nodes"] == 1 + 2 + 65
    with ProtectedFile.open(p, "file.bin", KEY) as pf:
        for off in (0, 64 * BLOCK_SIZE, size - 1000):
            assert pf.read(off, 1000) == data[off:off + 1000]
    assert verify_file(p, KEY).ok


def node_count(raw):
    return (len(raw) - fmt.HEADER_SIZE) // fmt.NODE_DISK_SIZE


@pytest.mark.parametrize("n_blocks, new_mht", [
    (64, [(1, 1), (2, 0)]),  # a second bottom node and a root above the old one
    (4096, [(1, 64), (2, 1), (3, 0)]),
], ids=["64-to-65", "4096-to-4097"])
def test_an_append_across_a_level_boundary_moves_no_node(tmp_path, n_blocks, new_mht):
    p = tmp_path / "f.pfs"
    data = random.Random(13).randbytes(n_blocks * BLOCK_SIZE)
    make_file(p, data)
    before = p.read_bytes()
    with ProtectedFile.open(p, "file.bin", KEY, mode="rw") as pf:
        pf.write(pf.size, b"tail")
        pf.flush()
        assert pf.stats()["nodes_sealed"] == len(new_mht) + 1
    after = p.read_bytes()
    assert after[fmt.HEADER_SIZE:len(before)] == before[fmt.HEADER_SIZE:]
    added = sorted([fmt.data_position(n_blocks)] + [fmt.mht_position(*n) for n in new_mht])
    assert added == list(range(node_count(before), node_count(after)))
    assert info(p)["mht_nodes"] == fmt.total_mht_nodes(n_blocks) + len(new_mht)
    assert read_all(p) == data + b"tail"
    assert verify_file(p, KEY).ok


def test_node_positions_follow_the_append_order():
    # append blocks one at a time: each append first creates the missing MHT
    # nodes on the new block's path, bottom-up, then the block; numbering
    # every node in creation order must give the format's positions
    created = set()
    number = 0
    for block in range(64 ** 2 + 131):
        height = len(fmt.mht_level_counts(block + 1))
        for node in ((k, block // fmt.FANOUT ** k) for k in range(1, height + 1)):
            if node not in created:
                created.add(node)
                assert fmt.mht_position(*node) == number, node
                number += 1
        assert fmt.data_position(block) == number, block
        number += 1
        assert number == block + 1 + fmt.total_mht_nodes(block + 1)


# -- verify -------------------------------------------------------------

def test_verify_untampered(tmp_path):
    p = tmp_path / "f.pfs"
    make_file(p, os.urandom(30000))
    report = verify_file(p, KEY)
    assert report.ok and report.first_bad_node is None


def test_verify_each_random_bit_flip_detected(tmp_path):
    p = tmp_path / "f.pfs"
    make_file(p, os.urandom(30000))
    pristine = p.read_bytes()
    rng = random.Random(17)
    for _ in range(50):
        offset = rng.randrange(len(pristine))
        buf = bytearray(pristine)
        buf[offset] ^= 1 << rng.randrange(8)
        p.write_bytes(bytes(buf))
        assert not verify_file(p, KEY).ok, f"flip at {offset} undetected"
    p.write_bytes(pristine)
    assert verify_file(p, KEY).ok


CONTAINER_FORMS = {
    "exact": lambda raw: raw,
    "byte-appended": lambda raw: raw + b"\x00",
    "node-appended": lambda raw: raw + raw[-fmt.NODE_DISK_SIZE:],
    "last-node-cut": lambda raw: raw[:-fmt.NODE_DISK_SIZE],
}


@pytest.mark.parametrize("form", sorted(CONTAINER_FORMS))
def test_open_info_verify_and_decrypt_give_one_answer(tmp_path, form):
    data = random.Random(67).randbytes(3 * BLOCK_SIZE)
    p = make_file(tmp_path / "f.pfs", data)
    p.write_bytes(CONTAINER_FORMS[form](p.read_bytes()))
    out = tmp_path / "out.bin"
    decrypt = ["pfs", "decrypt", str(p), str(out), "--key-hex", KEY.hex(), "--label", "file.bin"]
    if form == "exact":
        assert read_all(p) == data
        assert info(p, KEY)["data_blocks"] == 3
        assert verify_file(p, KEY) == VerifyReport()
        assert main(decrypt) == 0 and out.read_bytes() == data
        return
    for call in (lambda: ProtectedFile.open(p, "file.bin", KEY), lambda: info(p, KEY)):
        with pytest.raises(IntegrityError) as exc:
            call()
        assert exc.value.node == "structure"
    assert verify_file(p, KEY) == VerifyReport("structure")
    assert main(decrypt) == 2
    assert not out.exists()


def test_verify_names_the_first_bad_node(tmp_path):
    # 65 blocks, in append order: bottom node 0 (blocks 0-63), data 0-63 at
    # 1-64, bottom node 65 (block 64), root 66 above both, data 64 at 67
    p = tmp_path / "f.pfs"
    make_file(p, random.Random(41).randbytes(64 * BLOCK_SIZE + 100))
    assert info(p)["mht_nodes"] == 3
    pristine = p.read_bytes()

    def report_after_flips(*offsets):
        buf = bytearray(pristine)
        for offset in offsets:
            buf[offset] ^= 0x01
        p.write_bytes(bytes(buf))
        return verify_file(p, KEY).first_bad_node

    def node_offset(disk_index, k):
        return fmt.HEADER_SIZE + disk_index * fmt.NODE_DISK_SIZE + k

    for offset in range(fmt.HEADER_SIZE):
        assert report_after_flips(offset) == "header", f"header byte {offset}"
    root, bottom = (fmt.mht_position(2, 0), [fmt.mht_position(1, j) for j in (0, 1)])
    data = [fmt.data_position(i) for i in range(65)]
    assert (root, bottom, data[:2], data[63:]) == (66, [0, 65], [1, 2], [64, 67])
    for number in (root, *bottom):
        for k in (0, 11, 12, 2048, fmt.NODE_DISK_SIZE - 1):
            assert report_after_flips(node_offset(number, k)) == f"mht:{number}"
    for i in (0, 1, 63, 64):
        for k in (0, BLOCK_SIZE - 1, fmt.NODE_DISK_SIZE - 1):
            assert report_after_flips(node_offset(data[i], k)) == f"data:{i}"
    # order: header, then MHT nodes from the root down, each level left to
    # right, then data by index
    assert report_after_flips(node_offset(bottom[1], 5), 100) == "header"
    assert report_after_flips(node_offset(data[5], 0), node_offset(bottom[1], 5)) == "mht:65"
    assert report_after_flips(node_offset(bottom[1], 5), node_offset(bottom[0], 5)) == "mht:0"
    assert report_after_flips(node_offset(bottom[0], 5), node_offset(root, 5)) == "mht:66"
    assert report_after_flips(node_offset(data[10], 0), node_offset(data[3], 0)) == "data:3"
    # header before structure
    buf = bytearray(pristine + b"\x00")
    p.write_bytes(bytes(buf))
    assert verify_file(p, KEY).first_bad_node == "structure"
    buf[100] ^= 0x01
    p.write_bytes(bytes(buf))
    assert verify_file(p, KEY).first_bad_node == "header"
    p.write_bytes(pristine)
    assert verify_file(p, KEY) == VerifyReport()


def test_verify_opens_each_node_once(tmp_path, monkeypatch):
    # 320 blocks: 1 header, 6 MHT nodes (root over 5 bottom nodes), 320 data blocks
    p = tmp_path / "f.pfs"
    make_file(p, random.Random(47).randbytes(320 * BLOCK_SIZE))
    opens = []
    real_open = crypto.aead_open

    def counting_open(*args):
        opens.append(args)
        return real_open(*args)

    monkeypatch.setattr(crypto, "aead_open", counting_open)
    assert verify_file(p, KEY).ok
    assert len(opens) == 1 + 6 + 320


def test_a_read_back_issues_one_data_read_per_bottom_node(tmp_path):
    # 8 MiB: 2048 blocks under 32 bottom nodes and a root
    p = make_file(tmp_path / "f.pfs", random.Random(73).randbytes(8 * 2 ** 20))
    with ProtectedFile.open(p, "file.bin", KEY) as pf:
        pf.read(0, pf.size)
        stats = pf.stats()
    assert (stats["disk_reads"], stats["nodes_opened"]) == (32 + 33, 2048 + 33)


def test_info_and_verify_memory_is_bounded(tmp_path):
    p = tmp_path / "big.pfs"
    make_file(p, random.Random(43).randbytes(8 * 2 ** 20))
    tracemalloc.start()
    try:
        for name, call in (("info", lambda: info(p, KEY)),
                           ("verify_file", lambda: verify_file(p, KEY))):
            base = tracemalloc.get_traced_memory()[0]
            tracemalloc.reset_peak()
            call()
            peak = tracemalloc.get_traced_memory()[1] - base
            assert peak < 4 * 2 ** 20, f"{name} peaked at {peak} bytes"
    finally:
        tracemalloc.stop()


def test_blocks_from_total_nodes_inverts_the_tree_shape():
    shapes = {n + fmt.total_mht_nodes(n): n for n in range(10_001)}
    for total in range(10_001):
        if total in shapes:
            assert fmt.blocks_from_total_nodes(total) == shapes[total]
        else:
            with pytest.raises(IntegrityError):
                fmt.blocks_from_total_nodes(total)
    for n in (63, 64, 65, 4095, 4096, 4097, 64 ** 3, 64 ** 3 + 1):
        assert fmt.blocks_from_total_nodes(n + fmt.total_mht_nodes(n)) == n
    for total in (-1, 66, 67):
        with pytest.raises(IntegrityError):
            fmt.blocks_from_total_nodes(total)


# -- keys -----------------------------------------------------------------

def record_seals(monkeypatch):
    """A list that gains (key, nonce, aad) for every aead_seal call."""
    seals = []
    real_seal = crypto.aead_seal

    def recording_seal(key, nonce, aad, plaintext):
        seals.append((key, nonce, aad))
        return real_seal(key, nonce, aad, plaintext)

    monkeypatch.setattr(crypto, "aead_seal", recording_seal)
    return seals


def test_header_key_differs_from_every_node_key(tmp_path, monkeypatch):
    seals = record_seals(monkeypatch)
    p = make_file(tmp_path / "f.pfs", random.Random(37).randbytes(70 * BLOCK_SIZE))
    header_aad = fmt.header_aad(read_uuid(p))
    header_keys = {key for key, _, aad in seals if aad == header_aad}
    node_keys = [key for key, _, aad in seals if aad != header_aad]
    assert len(header_keys) == 1
    # one flush: its 70 data blocks and 3 MHT nodes seal under its one key
    assert len(node_keys) == 70 + 3
    assert len(set(node_keys)) == 1
    assert not header_keys & set(node_keys)


# -- cache transparency ---------------------------------------------------

def run_trace(tmp_path, capacity, name):
    p = tmp_path / name
    rng = random.Random(23)
    outputs = []
    with ProtectedFile.create(p, "trace.bin", KEY, cache_capacity=capacity) as pf:
        for _ in range(80):
            action = rng.random()
            if action < 0.5:
                pf.write(rng.randint(0, 30000), rng.randbytes(rng.randint(1, 1500)))
            elif action < 0.9 and pf.size:
                off = rng.randint(0, pf.size - 1)
                outputs.append(pf.read(off, rng.randint(0, pf.size - off)))
            else:
                pf.flush()
        outputs.append(pf.read(0, pf.size))
    outputs.append(read_all(p, label="trace.bin", key=KEY, cache_capacity=capacity))
    return outputs


def test_cache_capacities_byte_identical(tmp_path):
    base = run_trace(tmp_path, 0, "c0.pfs")
    assert run_trace(tmp_path, 1, "c1.pfs") == base
    assert run_trace(tmp_path, 1024, "c1024.pfs") == base


def test_cache_lru_eviction_order():
    from enclavesim.pfs import BlockCache

    cache = BlockCache(2)
    cache.put("a", b"1")
    cache.put("b", b"2")
    assert cache.get("a") == b"1"  # refresh a
    cache.put("c", b"3")           # evicts b
    assert cache.get("b") is None
    assert cache.get("a") == b"1"
    assert cache.get("c") == b"3"
    assert len(cache) == 2


def test_cache_capacity_zero_stores_nothing():
    from enclavesim.pfs import BlockCache

    cache = BlockCache(0)
    cache.put("a", b"1")
    assert cache.get("a") is None
    assert len(cache) == 0


# -- nonce and key freshness ---------------------------------------------

def test_no_key_nonce_pair_repeats(tmp_path, monkeypatch):
    seals = record_seals(monkeypatch)
    p = tmp_path / "f.pfs"
    rng = random.Random(29)
    with ProtectedFile.create(p, "file.bin", KEY) as pf:
        for _ in range(30):
            pf.write(rng.randint(0, 40000), rng.randbytes(500))
            if rng.random() < 0.3:
                pf.flush()
    pairs = [(key, nonce) for key, nonce, _ in seals]
    assert len(set(pairs)) == len(pairs) > 30, "(key, nonce) pair reused"
    # a flush seals its nodes, then its header: the node seals before a
    # header seal are one flush's, all under that flush's one key
    header_aad = fmt.header_aad(read_uuid(p))
    flushes = [set()]
    for key, _, aad in seals:
        if aad == header_aad:
            flushes.append(set())
        else:
            flushes[-1].add(key)
    flush_keys = [keys for keys in flushes if keys]
    assert all(len(keys) == 1 for keys in flush_keys), "a flush sealed under two keys"
    assert len(set.union(*flush_keys)) == len(flush_keys) > 5, "two flushes share a key"
    # node keys live only inside sealed parents: none is on disk in the clear
    raw = p.read_bytes()
    assert not [key for key, _, _ in seals if key in raw]


# -- roundtrip property ----------------------------------------------------

def test_roundtrip_various_sizes(tmp_path):
    rng = random.Random(31)
    sizes = [0, 1, BLOCK_SIZE - 1, BLOCK_SIZE, BLOCK_SIZE + 1,
             10000, 64 * BLOCK_SIZE, 64 * BLOCK_SIZE + 1, 300000]
    for i, size in enumerate(sizes):
        p = tmp_path / f"rt{i}.pfs"
        data = rng.randbytes(size)
        make_file(p, data)
        assert read_all(p) == data, f"roundtrip failed at size {size}"


# the byte offsets at which a container grown by appends is flushed: before,
# on and past the 64-block and 4096-block boundaries, some mid-block
APPEND_STOPS = [1, 63 * BLOCK_SIZE + 5, 64 * BLOCK_SIZE, 65 * BLOCK_SIZE,
                4095 * BLOCK_SIZE, 4096 * BLOCK_SIZE + 7]


def build_container(path, n_blocks, how):
    """Make an `n_blocks` container one of three ways; returns its plaintext."""
    size = max(n_blocks * BLOCK_SIZE - 100, 0)  # a partial final block
    data = bytearray(random.Random(n_blocks).randbytes(size))
    if how == "appends":
        make_file(path, b"")
        start = 0
        for stop in [s for s in APPEND_STOPS if s < size] + [size]:
            with ProtectedFile.open(path, "file.bin", KEY, mode="rw") as pf:
                pf.write(start, data[start:stop])
            start = stop
        return bytes(data)
    make_file(path, data)
    if how == "update" and size:
        data[size // 2] ^= 0x5A
        with ProtectedFile.open(path, "file.bin", KEY, mode="rw") as pf:
            pf.write(size // 2, data[size // 2:size // 2 + 1])
    return bytes(data)


@pytest.mark.parametrize("how", ["one_go", "appends", "update"])
@pytest.mark.parametrize("n_blocks", [0, 1, 64, 65, 4096, 4097])
def test_an_independent_format_reader_reads_what_was_written(tmp_path, n_blocks, how):
    # with random node keys, nothing else checks the container byte by byte
    # against FORMAT.md
    p = tmp_path / "f.pfs"
    data = build_container(p, n_blocks, how)
    assert info(p)["data_blocks"] == n_blocks
    assert format_oracle.read_container(p.read_bytes(), KEY, b"file.bin") == data


def test_block_count_arithmetic(tmp_path):
    for i, (size, blocks) in enumerate([(0, 0), (1, 1), (4096, 1), (4097, 2),
                                        (10000, 3), (2 ** 20, 256)]):
        p = tmp_path / f"bc{i}.pfs"
        make_file(p, b"\xab" * size)
        assert info(p)["data_blocks"] == blocks, f"size {size}"


def test_read_uuid_matches_info(tmp_path):
    p = tmp_path / "f.pfs"
    make_file(p, b"data")
    assert read_uuid(p).hex() == info(p)["uuid"]


def test_create_with_supplied_uuid(tmp_path):
    p = tmp_path / "f.pfs"
    uuid = bytes(range(16))
    with ProtectedFile.create(p, "file.bin", KEY, file_uuid=uuid):
        pass
    assert read_uuid(p) == uuid


def _flip_byte(path, offset, mask=0x01):
    buf = bytearray(path.read_bytes())
    buf[offset] ^= mask
    path.write_bytes(bytes(buf))


# -- rollback and swap ------------------------------------------------------

def spine(n_blocks, block):
    """{role: (node name, disk offset)} for the nodes a read of `block`
    passes in a container of `n_blocks` blocks: the root, and the bottom
    MHT node and the data block when the tree has them."""
    levels = fmt.mht_level_counts(n_blocks)
    root = fmt.mht_position(len(levels), 0)
    nodes = {"root": (f"mht:{root}", fmt.node_offset(root))}
    if block // fmt.FANOUT < levels[-1]:
        p = fmt.mht_position(1, block // fmt.FANOUT)
        nodes["bottom"] = (f"mht:{p}", fmt.node_offset(p))
    if block < n_blocks:
        nodes["data"] = (f"data:{block}", fmt.node_offset(fmt.data_position(block)))
    return nodes


@settings(max_examples=25, deadline=None)
@given(n_blocks=st.integers(1, 130), slack=st.integers(0, BLOCK_SIZE - 1),
       append=st.booleans(), pick=st.integers(0, 2 ** 20), role=st.integers(0, 2))
@example(n_blocks=64, slack=0, append=True, pick=0, role=0)
@example(n_blocks=64, slack=0, append=False, pick=63 * BLOCK_SIZE, role=1)
def test_restoring_an_old_node_on_the_updated_spine_is_caught(n_blocks, slack, append,
                                                              pick, role):
    # the update is an in-place byte or a 1-byte append; appending to 64
    # full blocks adds a new root above the old one, which stays in place
    size = n_blocks * BLOCK_SIZE - slack
    offset = size if append else pick % size
    block = offset // BLOCK_SIZE
    old_spine = spine(fmt.data_block_count(size), block)
    new_spine = spine(fmt.data_block_count(size + append), block)
    roles = sorted(old_spine.keys() & new_spine.keys())
    which = roles[role % len(roles)]
    with tempfile.TemporaryDirectory() as tmp:
        p = Path(tmp) / "f.pfs"
        make_file(p, random.Random(n_blocks).randbytes(size))
        before = p.read_bytes()
        with ProtectedFile.open(p, "file.bin", KEY, mode="rw") as pf:
            pf.write(offset, b"\x5a")
        after = bytearray(p.read_bytes())
        _, old_at = old_spine[which]
        name, new_at = new_spine[which]
        after[new_at:new_at + fmt.NODE_DISK_SIZE] = before[old_at:old_at + fmt.NODE_DISK_SIZE]
        p.write_bytes(bytes(after))
        with ProtectedFile.open(p, "file.bin", KEY) as pf:
            with pytest.raises(IntegrityError):
                pf.read(block * BLOCK_SIZE, 1)
        assert verify_file(p, KEY).first_bad_node == name


@settings(max_examples=25, deadline=None)
@given(n_blocks=st.integers(2, 130), data=st.data())
def test_swapping_two_data_blocks_is_caught_at_the_lower_index(n_blocks, data):
    a = data.draw(st.integers(0, n_blocks - 2))
    b = data.draw(st.integers(a + 1, n_blocks - 1))
    with tempfile.TemporaryDirectory() as tmp:
        p = Path(tmp) / "f.pfs"
        make_file(p, random.Random(n_blocks).randbytes(n_blocks * BLOCK_SIZE))
        raw = bytearray(p.read_bytes())
        (_, at_a), (_, at_b) = spine(n_blocks, a)["data"], spine(n_blocks, b)["data"]
        node = fmt.NODE_DISK_SIZE
        raw[at_a:at_a + node], raw[at_b:at_b + node] = raw[at_b:at_b + node], raw[at_a:at_a + node]
        p.write_bytes(bytes(raw))
        with ProtectedFile.open(p, "file.bin", KEY) as pf:
            for i in (a, b):
                with pytest.raises(IntegrityError):
                    pf.read(i * BLOCK_SIZE, 1)
        assert verify_file(p, KEY).first_bad_node == f"data:{a}"


def node_names(n_blocks):
    """{node number: the name IntegrityError.node gives it} for a container
    of `n_blocks` blocks."""
    names = {fmt.data_position(i): f"data:{i}" for i in range(n_blocks)}
    levels = fmt.mht_level_counts(n_blocks)
    for height, count in zip(range(len(levels), 0, -1), levels):
        names.update({(p := fmt.mht_position(height, j)): f"mht:{p}" for j in range(count)})
    return names


@settings(max_examples=25, deadline=None)
@given(n_blocks=st.integers(129, 200), slack=st.integers(0, BLOCK_SIZE - 1),
       pick=st.integers(0, 2 ** 20), bit=st.integers(0, fmt.NODE_DISK_SIZE * 8 - 1))
def test_a_flipped_node_is_the_one_read_and_verify_name(n_blocks, slack, pick, bit):
    # three or more bottom nodes, so a whole-file read crosses run boundaries
    names = node_names(n_blocks)
    number = sorted(names)[pick % len(names)]
    with tempfile.TemporaryDirectory() as tmp:
        p = Path(tmp) / "f.pfs"
        make_file(p, random.Random(n_blocks).randbytes(n_blocks * BLOCK_SIZE - slack))
        _flip_byte(p, fmt.node_offset(number) + bit // 8, 1 << bit % 8)
        with ProtectedFile.open(p, "file.bin", KEY) as pf:
            with pytest.raises(IntegrityError) as exc:
                pf.read(0, pf.size)
        assert exc.value.node == names[number]
        assert verify_file(p, KEY).first_bad_node == names[number]


# -- flush locality ---------------------------------------------------------

def node_bytes(raw, position):
    start = fmt.node_offset(position)
    return raw[start:start + fmt.NODE_DISK_SIZE]


def test_one_byte_update_reseals_only_its_spine(tmp_path, monkeypatch):
    # 4160 blocks: three MHT levels of 1, 2 and 65 nodes
    n_blocks, block = 4160, 2000
    p = tmp_path / "deep.pfs"
    make_file(p, random.Random(53).randbytes(n_blocks * BLOCK_SIZE))
    levels = fmt.mht_level_counts(n_blocks)
    assert levels == [1, 2, 65]
    before = p.read_bytes()

    seals = record_seals(monkeypatch)
    with ProtectedFile.open(p, "file.bin", KEY, mode="rw") as pf:
        pf.write(block * BLOCK_SIZE + 7, b"\xa5")
        pf.flush()
        # the write opened the block's spine, the flush resealed it from the cache
        stats = pf.stats()
        assert (stats["nodes_sealed"], stats["nodes_opened"]) == (4, 4)
        pf.read(block * BLOCK_SIZE, 1)
        first = pf.stats()
        # the flush kept the MHT plaintexts in the cache; data blocks are never cached
        assert first["nodes_opened"] == 5
        assert pf.read(block * BLOCK_SIZE + 7, 1) == b"\xa5"
        again = pf.stats()
        assert again["cache_hits"] == first["cache_hits"] + 1
        assert again["nodes_opened"] == first["nodes_opened"] + 1
        assert again["cache_misses"] == first["cache_misses"]
    after = p.read_bytes()

    assert len(seals) == 5  # data block, three MHT ancestors, header
    assert len(after) == len(before)
    assert after[:fmt.HEADER_SIZE] != before[:fmt.HEADER_SIZE]
    changed = {p for p in range(node_count(before))
               if node_bytes(after, p) != node_bytes(before, p)}
    ancestors = {fmt.mht_position(height, block // fmt.FANOUT ** height)
                 for height in range(1, len(levels) + 1)}
    assert ancestors == {2016, 66, 4163}  # blocks 1984-2047, blocks 0-4095, the root
    assert changed == ancestors | {fmt.data_position(block)}
    assert verify_file(p, KEY).ok


def test_a_flush_allocates_one_run_beyond_its_dirty_plaintexts(tmp_path):
    # 2048 new blocks written in 64 KiB pieces: each run is sealed and
    # written before the next, so no copy of the 8 MiB of sealed bytes exists
    data = random.Random(89).randbytes(2048 * BLOCK_SIZE)
    pf = ProtectedFile.create(tmp_path / "f.pfs", "file.bin", KEY)
    for off in range(0, len(data), 64 << 10):
        pf.write(off, data[off:off + (64 << 10)])
    tracemalloc.start()
    try:
        pf.flush()
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
        pf.close()
    assert peak <= 2 * 2 ** 20, f"flush peaked at {peak} bytes"
    assert read_all(tmp_path / "f.pfs") == data


def test_buffering_whole_blocks_of_bytes_copies_none_of_them(tmp_path):
    # 8 MiB of bytes pieces of 64 KiB: each whole block is buffered as a view
    # of its piece, so the write allocates only per-block bookkeeping, about
    # 250 bytes a block; a copy of each block would peak above 8 MiB
    data = random.Random(97).randbytes(2048 * BLOCK_SIZE)
    pieces = [(off, data[off:off + (64 << 10)]) for off in range(0, len(data), 64 << 10)]
    with ProtectedFile.create(tmp_path / "f.pfs", "file.bin", KEY) as pf:
        tracemalloc.start()
        try:
            for off, piece in pieces:
                pf.write(off, piece)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
    assert peak < 2 ** 20, f"buffering peaked at {peak} bytes"
    assert read_all(tmp_path / "f.pfs") == data


class RecordingFile:
    """Stands in for a container's file object and records each read and
    write as (kind, first byte, end), in file offsets."""

    def __init__(self, fh):
        self._fh = fh
        self.events = []

    def read(self, size=-1):
        start = self._fh.tell()
        data = self._fh.read(size)
        self.events.append(("read", start, start + len(data)))
        return data

    def write(self, buf):
        start = self._fh.tell()
        written = self._fh.write(buf)
        self.events.append(("write", start, start + len(buf)))
        return written

    def __getattr__(self, name):
        return getattr(self._fh, name)


# (first block, block count) of a write: in place under several bottom
# nodes, across the 64-block boundary, or far enough to make the tree taller
FLUSH_WRITES = st.lists(st.tuples(st.integers(0, 140), st.integers(1, 70)), min_size=1,
                        max_size=4)


@settings(max_examples=25, deadline=None)
@given(n_blocks=st.integers(0, 130), capacity=st.sampled_from([0, 1, 256]),
       flushes=st.lists(FLUSH_WRITES, min_size=1, max_size=3))
@example(n_blocks=64, capacity=0, flushes=[[(3, 1), (62, 4)]])
@example(n_blocks=100, capacity=0, flushes=[[(5, 2), (70, 1), (99, 40)]])
def test_a_flush_never_reads_what_it_wrote_and_writes_the_header_last(n_blocks, capacity,
                                                                      flushes):
    # capacity 0 sends every MHT fetch of a flush to the disk
    model = bytearray(random.Random(n_blocks).randbytes(n_blocks * BLOCK_SIZE))
    with tempfile.TemporaryDirectory() as tmp:
        p = Path(tmp) / "f.pfs"
        make_file(p, bytes(model))
        with ProtectedFile.open(p, "file.bin", KEY, mode="rw", cache_capacity=capacity) as pf:
            pf._fh = recorder = RecordingFile(pf._fh)
            for writes in flushes:
                for first, count in writes:
                    offset = first * BLOCK_SIZE + 3
                    data = random.Random(first).randbytes(count * BLOCK_SIZE - 3)
                    pf.write(offset, data)
                    model.extend(bytes(max(offset + len(data) - len(model), 0)))
                    model[offset:offset + len(data)] = data
                recorder.events.clear()
                pf.flush()
                written = []
                for kind, start, end in recorder.events:
                    if kind == "read":
                        assert not any(start < w_end and w_start < end
                                       for w_start, w_end in written), "read back a write"
                    else:
                        written.append((start, end))
                assert written[-1] == (0, fmt.HEADER_SIZE)
                assert all(start >= fmt.HEADER_SIZE for start, _ in written[:-1])
        assert read_all(p) == model


# -- crash injection ------------------------------------------------------

class InjectedCrash(Exception):
    pass


class CrashingFile:
    """Stands in for a container's file object. Counts `write` calls; the
    one numbered `crash_at` (from 0) writes only `prefix` bytes of its
    buffer (all of them when None) and then raises."""

    def __init__(self, fh, crash_at=None, prefix=None):
        self._fh = fh
        self.crash_at = crash_at
        self.prefix = prefix
        self.writes = 0

    def write(self, buf):
        k = self.writes
        self.writes += 1
        if k == self.crash_at:
            self._fh.write(buf if self.prefix is None else buf[:self.prefix])
            raise InjectedCrash(f"write {k}")
        return self._fh.write(buf)

    def __getattr__(self, name):
        return getattr(self._fh, name)


def die_in_flush(pf, crash_at=None, prefix=None):
    """Flush `pf` through a `CrashingFile`, then drop it as a process that
    dies there would, with no further flush; returns the writes tried."""
    pf._fh = CrashingFile(pf._fh, crash_at, prefix)
    try:
        pf.flush()
    except InjectedCrash:
        pass
    pf._fh.close()
    pf._closed = True
    return pf._fh.writes


def apply_writes(target, writes):
    for offset, data in writes:
        target[offset:offset + len(data)] = data


CRASH_CASES = {
    # 100 blocks, two far-apart blocks change in place: the MHT run, two
    # data blocks, the header
    "in-place": (100 * BLOCK_SIZE, [(3 * BLOCK_SIZE + 5, b"x" * 300),
                                    (90 * BLOCK_SIZE, b"y" * 5000)]),
    # 64 -> 65 blocks: a new bottom node and a new root above the old
    # one, and one old block changes too
    "shape-change": (64 * BLOCK_SIZE, [(10 * BLOCK_SIZE, b"z" * 100),
                                       (64 * BLOCK_SIZE, b"tail")]),
    # 4096 -> 4100 blocks: new nodes at heights 1 to 3 past the end, and
    # the spine of one old block in place
    "level-growth": (4096 * BLOCK_SIZE, [(2000 * BLOCK_SIZE + 9, b"w" * 10),
                                         (4096 * BLOCK_SIZE, b"v" * (4 * BLOCK_SIZE))]),
}


@pytest.mark.parametrize("case", sorted(CRASH_CASES))
def test_interrupted_flush_never_reads_back_wrong_plaintext(tmp_path, case):
    size, writes = CRASH_CASES[case]
    p = tmp_path / "f.pfs"
    old = random.Random(59).randbytes(size)
    make_file(p, old)
    pristine = p.read_bytes()
    new = bytearray(old)
    apply_writes(new, writes)
    new = bytes(new)

    def interrupted_flush(crash_at, prefix):
        p.write_bytes(pristine)
        pf = ProtectedFile.open(p, "file.bin", KEY, mode="rw")
        for offset, data in writes:
            pf.write(offset, data)
        return die_in_flush(pf, crash_at, prefix)

    n_writes = interrupted_flush(None, None)
    assert read_all(p) == new
    assert n_writes >= 2
    outcomes = set()
    for crash_at in range(n_writes):
        for prefix in (0, 1, 100, fmt.NODE_DISK_SIZE, None):
            interrupted_flush(crash_at, prefix)
            try:
                got = read_all(p)
            except IntegrityError:
                outcomes.add("detected")
                continue
            assert got in (old, new), f"write {crash_at}, prefix {prefix}: wrong plaintext"
            outcomes.add("old" if got == old else "new")
    assert {"old", "new", "detected"} <= outcomes


def test_an_interrupted_first_flush_after_a_create_over_a_container_never_reads_it_back(
        tmp_path):
    # the old container is longer, with the same key and label; the new one
    # spans two bottom MHT nodes
    p = tmp_path / "f.pfs"
    old = random.Random(61).randbytes(300 * BLOCK_SIZE)
    make_file(p, old)
    pristine = p.read_bytes()
    new = random.Random(62).randbytes(100 * BLOCK_SIZE + 7)

    def interrupted_create(crash_at, prefix):
        p.write_bytes(pristine)
        pf = ProtectedFile.create(p, "file.bin", KEY)
        pf.write(0, new)
        return die_in_flush(pf, crash_at, prefix)

    n_writes = interrupted_create(None, None)
    assert read_all(p) == new
    assert n_writes >= 2
    outcomes = set()
    for crash_at in range(n_writes):
        for prefix in (0, 1, 100, fmt.NODE_DISK_SIZE, None):
            interrupted_create(crash_at, prefix)
            try:
                got = read_all(p)
            except IntegrityError as exc:
                # `header`: the header write itself was cut part way
                outcomes.add(exc.node)
                continue
            assert got == new, f"write {crash_at}, prefix {prefix}: wrong plaintext"
            outcomes.add("new")
    # the length is set last, so every cut leaves the old, longer length
    assert "structure" in outcomes
    assert outcomes <= {"new", "structure", "header"}


# -- model-based ----------------------------------------------------------

NEAR_SHAPE_CHANGE = st.integers(62 * BLOCK_SIZE, 66 * BLOCK_SIZE)
# up to 66 blocks, drawn as a seed and a length: long enough to cover whole
# runs and to write new blocks whole
WRITE_DATA = st.builds(lambda seed, n: random.Random(seed).randbytes(n),
                       st.integers(0, 2 ** 32), st.integers(1, 66 * BLOCK_SIZE))


class ProtectedFileMachine(RuleBasedStateMachine):
    """A read-write handle against a bytearray model and the last flushed
    snapshot; sizes cross the 64-block boundary where the MHT gains a root
    above the old one, and reads and writes span whole runs and mix cached,
    dirty and on-disk blocks inside one, and a create over the container
    starts it again from empty, so it shrinks as well as grows. Whatever the
    handle flushes, the FORMAT.md-only reader reads back; a flush that dies
    part way leaves the snapshot, the model or an IntegrityError, and never
    other bytes, nor the plaintext from before a create; a write's payload
    is bytes, a bytearray or a view of one, and changing a mutable one after
    the call changes nothing the handle holds; a flipped bit fails at the
    node that holds it, for a read and an audit; and no (key, nonce) pair
    seals twice across all of its flushes, reopens and shape changes."""

    def __init__(self):
        super().__init__()
        self.dir = tempfile.mkdtemp(prefix="pfs-machine-")
        self.path = os.path.join(self.dir, "f.pfs")
        self.model = bytearray()
        self.snapshot = b""  # the plaintext on disk as of the last flush
        self.recreated = False  # created over the old file and not flushed since
        self.pf = None
        self.seals = 0
        self.pairs = set()  # every (key, nonce) that any seal used
        self.real_seal = crypto.aead_seal

        def recording_seal(key, nonce, aad, plaintext):
            self.seals += 1
            self.pairs.add((key, nonce))
            return self.real_seal(key, nonce, aad, plaintext)

        crypto.aead_seal = recording_seal

    @initialize(capacity=st.sampled_from([0, 1, 256]))
    def create(self, capacity):
        self.capacity = capacity
        self.pf = ProtectedFile.create(self.path, "file.bin", KEY, cache_capacity=capacity)

    def _flushed(self):
        """The model is on disk: it is the snapshot, and the oracle reads it."""
        with open(self.path, "rb") as fh:
            assert format_oracle.read_container(fh.read(), KEY, b"file.bin") == self.model
        self.snapshot = bytes(self.model)
        self.recreated = False

    def _reopen(self):
        self.pf = ProtectedFile.open(self.path, "file.bin", KEY, mode="rw",
                                     cache_capacity=self.capacity)

    @rule(offset=st.one_of(st.integers(0, 68 * BLOCK_SIZE), NEAR_SHAPE_CHANGE),
          data=WRITE_DATA, wrap=st.sampled_from([bytes, bytearray,
                                                 lambda b: memoryview(bytearray(b))]))
    def write(self, offset, data, wrap):
        source = wrap(data)
        self.pf.write(offset, source)
        if not isinstance(source, bytes):
            source[:] = data.translate(INVERT)  # the container keeps what was written
        if offset > len(self.model):
            self.model.extend(bytes(offset - len(self.model)))
        apply_writes(self.model, [(offset, data)])

    @rule(data=st.data())
    def read(self, data):
        offset = data.draw(st.integers(0, len(self.model)))
        length = data.draw(st.integers(0, min(len(self.model) - offset, 70 * BLOCK_SIZE)))
        assert self.pf.read(offset, length) == self.model[offset:offset + length]

    @rule()
    def flush(self):
        self.pf.flush()
        self._flushed()

    @rule()
    def close_and_reopen(self):
        self.pf.close()
        self._flushed()
        self._reopen()

    @rule()
    def recreate(self):
        self.pf.close()
        self.pf = ProtectedFile.create(self.path, "file.bin", KEY, cache_capacity=self.capacity)
        self.model = bytearray()
        # the old plaintext is gone from the disk: no outcome may bring it back
        self.snapshot = b""
        self.recreated = True

    @precondition(lambda self: self.model != self.snapshot)  # a flush with work to do
    @rule(crash_at=st.integers(0, 12), prefix=st.sampled_from([0, 1, 100, fmt.NODE_DISK_SIZE,
                                                              None]))
    def crash_mid_flush(self, crash_at, prefix):
        die_in_flush(self.pf, crash_at, prefix)
        try:
            got = read_all(self.path)
        except IntegrityError:
            make_file(self.path, self.snapshot, cache_capacity=self.capacity)
            got = self.snapshot
        assert got in (self.snapshot, self.model), "wrong plaintext after a crash"
        self.model = bytearray(got)
        self._flushed()
        self._reopen()

    @rule()
    def verify(self):
        report = verify_file(self.path, KEY)
        if self.recreated and os.path.getsize(self.path) > fmt.HEADER_SIZE:
            # the new empty header over the old, longer file, until a flush
            assert report == VerifyReport("structure")
        else:
            assert report.ok

    # the disk holds the model, in nodes as well as the header
    @precondition(lambda self: self.model and self.model == self.snapshot)
    @rule(data=st.data())
    def flip_a_bit(self, data):
        self.pf.close()
        names = node_names(fmt.data_block_count(len(self.model)))
        number = data.draw(st.sampled_from([*sorted(names), None]))  # None: the header
        if number is None:
            name, offset = "header", data.draw(st.integers(0, fmt.HEADER_SIZE - 1))
        else:
            name = names[number]
            offset = fmt.node_offset(number) + data.draw(st.integers(0, fmt.NODE_DISK_SIZE - 1))
        mask = 1 << data.draw(st.integers(0, 7))
        path = Path(self.path)
        _flip_byte(path, offset, mask)
        assert verify_file(path, KEY).first_bad_node == name
        with pytest.raises(IntegrityError) as exc:
            read_all(path)
        assert exc.value.node == name
        _flip_byte(path, offset, mask)
        self._reopen()

    @invariant()
    def size_matches(self):
        if self.pf is not None:
            assert self.pf.size == len(self.model)

    @invariant()
    def no_key_nonce_pair_repeats(self):
        assert len(self.pairs) == self.seals, "(key, nonce) pair reused"

    def teardown(self):
        try:
            if self.pf is not None:
                self.pf.close()
                assert read_all(self.path) == self.model
                assert verify_file(self.path, KEY).ok
            self.no_key_nonce_pair_repeats()
        finally:
            crypto.aead_seal = self.real_seal
            shutil.rmtree(self.dir)


TestProtectedFileMachine = ProtectedFileMachine.TestCase
TestProtectedFileMachine.settings = settings(max_examples=30, stateful_step_count=25,
                                             deadline=None)
