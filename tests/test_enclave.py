import decimal
import enum
import math
import os
import random
import struct
import subprocess
import sys
import warnings

import numpy as np
import orjson
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from enclavesim import crypto
from enclavesim.attestation import PcsDatabase, VerificationPolicy
from enclavesim.channel import HandshakeError
from enclavesim.enclave import (
    EnclaveAccessError,
    LinearModel,
    RunError,
    StartError,
    WorkloadSpec,
    enclave_start,
    format_rows,
    parse_rows,
    user_decrypt_output,
    user_encrypt_inputs,
)
from enclavesim.manifest import compute_measurement, parse_template, resolver_for_root, sign_manifest
from enclavesim.provisioning import KeyServer, KeyVault, ProvisionDeniedError, client_request_key

NOW = 1_700_000_000
MASTER_KEY = bytes(range(32, 64))

TEMPLATE = """\
app.entrypoint = /app/linear_infer
fs.mount = app:/app
fs.mount = data:/data
sgx.enclave_size = 1M
sgx.max_threads = 1
sgx.trusted_file = /app/workload.json
sgx.protected_file = /data
"""

WORKLOAD = WorkloadSpec(kind="linear_infer", model_path="/data/model.pfs",
                        input_path="/data/input.csv.pfs",
                        output_path="/data/output.csv.pfs", key_name="pfs-master")


def build_deployment(tmp_path, model=None, input_text=None):
    """Host root with mounts, trusted workload file, signed manifest,
    encrypted model/input."""
    root = tmp_path / "cloud"
    (root / "app").mkdir(parents=True)
    (root / "data").mkdir()
    (root / "app" / "workload.json").write_bytes(WORKLOAD.to_json())

    if model is None:
        model = LinearModel(rows=2, cols=2, weights=[[1.0, 0.0], [0.0, 1.0]],
                            bias=[0.0, 0.0])
    if input_text is None:
        input_text = "1,2\n3,4\n"
    user_dir = tmp_path / "user"
    user_dir.mkdir(exist_ok=True)
    (user_dir / "model.bin").write_bytes(model.pack())
    (user_dir / "input.csv").write_text(input_text)
    user_encrypt_inputs([(user_dir / "model.bin", "/data/model.pfs"),
                         (user_dir / "input.csv", "/data/input.csv.pfs")],
                        MASTER_KEY, root / "data")

    template = parse_template(TEMPLATE)
    final = sign_manifest(template, resolver_for_root(root, template.mounts))
    return root, final, model


def test_pristine_deployment_starts(tmp_path):
    root, final, _ = build_deployment(tmp_path)
    instance = enclave_start(final, root)
    assert instance.measurement == compute_measurement(final)


def test_trusted_file_tamper_aborts_start(tmp_path):
    root, final, _ = build_deployment(tmp_path)
    target = root / "app" / "workload.json"
    raw = bytearray(target.read_bytes())
    raw[5] ^= 0x01
    target.write_bytes(bytes(raw))
    with pytest.raises(StartError) as exc:
        enclave_start(final, root)
    assert exc.value.kind == "trusted_file_mismatch"
    assert "/app/workload.json" in exc.value.reason


def test_trusted_file_deleted_after_signing_aborts_start(tmp_path):
    root, final, _ = build_deployment(tmp_path)
    (root / "app" / "workload.json").unlink()
    with pytest.raises(StartError) as exc:
        enclave_start(final, root)
    assert (exc.value.kind, exc.value.reason) == ("trusted_file_mismatch", "/app/workload.json")


def test_missing_mount_aborts_start(tmp_path):
    root, final, _ = build_deployment(tmp_path)
    import shutil
    shutil.rmtree(root / "data")
    with pytest.raises(StartError) as exc:
        enclave_start(final, root)
    assert exc.value.kind == "missing_mount"


def test_root_mount_covers_everything(tmp_path):
    from enclavesim.manifest import parse_template as pt

    root = tmp_path / "cloud"
    (root / "all").mkdir(parents=True)
    (root / "all" / "x.txt").write_bytes(b"anything")
    template = pt("""\
app.entrypoint = /run
fs.mount = all:/
sgx.enclave_size = 1M
sgx.max_threads = 1
""")
    final = sign_manifest(template, resolver_for_root(root, template.mounts))
    instance = enclave_start(final, root)
    assert instance.read_file("/x.txt") == b"anything"


def test_path_outside_mounts_denied(tmp_path):
    root, final, _ = build_deployment(tmp_path)
    instance = enclave_start(final, root)
    with pytest.raises(EnclaveAccessError):
        instance.read_file("/etc/passwd")
    with pytest.raises(EnclaveAccessError):
        instance.resolve("/outside/file")


def test_protected_path_not_readable_in_plaintext(tmp_path):
    root, final, _ = build_deployment(tmp_path)
    instance = enclave_start(final, root)
    with pytest.raises(EnclaveAccessError):
        instance.read_file("/data/model.pfs")


@pytest.mark.parametrize("path", ["/app/workload.json", "/app/notes.txt"],
                         ids=["trusted", "untrusted"])
@pytest.mark.parametrize("create", [False, True])
def test_open_protected_refuses_a_path_that_is_not_protected(tmp_path, path, create):
    root, final, _ = build_deployment(tmp_path)
    instance = enclave_start(final, root)
    before = sorted(os.listdir(root / "app"))
    with pytest.raises(EnclaveAccessError, match="is not marked protected"):
        instance.open_protected(path, MASTER_KEY, create=create)
    assert sorted(os.listdir(root / "app")) == before


def test_trusted_file_reread_checks_hash(tmp_path):
    root, final, _ = build_deployment(tmp_path)
    instance = enclave_start(final, root)
    assert instance.read_file("/app/workload.json") == WORKLOAD.to_json()
    (root / "app" / "workload.json").write_bytes(b"swapped after start")
    with pytest.raises(StartError):
        instance.read_file("/app/workload.json")


def test_dotdot_cannot_leave_the_mounts(tmp_path):
    root, final, _ = build_deployment(tmp_path)
    (root / "outside.txt").write_bytes(b"host file outside every mount")
    instance = enclave_start(final, root)
    for path in ("/app/../outside.txt", "/app/../../outside.txt", "/.."):
        with pytest.raises(EnclaveAccessError):
            instance.read_file(path)
    with pytest.raises(EnclaveAccessError):
        instance.resolve("/app/../../cloud/outside.txt")


@pytest.mark.parametrize("spelling", ["/app//workload.json", "/app/./workload.json",
                                      "/data/../app/workload.json"])
def test_swapped_trusted_file_is_rechecked_under_any_spelling(tmp_path, spelling):
    root, final, _ = build_deployment(tmp_path)
    instance = enclave_start(final, root)
    assert instance.read_file(spelling) == WORKLOAD.to_json()
    (root / "app" / "workload.json").write_bytes(b"swapped after start")
    with pytest.raises(StartError) as exc:
        instance.read_file(spelling)
    assert exc.value.kind == "trusted_file_mismatch"
    assert exc.value.reason == "/app/workload.json"


def test_protected_label_is_the_canonical_path(tmp_path):
    root, final, _ = build_deployment(tmp_path)
    instance = enclave_start(final, root)
    with instance.open_protected("/data//./model.pfs", MASTER_KEY) as pf:
        assert pf.label == "/data/model.pfs"


@pytest.fixture(scope="module")
def started(tmp_path_factory):
    root, final, _ = build_deployment(tmp_path_factory.mktemp("spelling"))
    return enclave_start(final, root), str(root)


CANONICAL_PATHS = ["/", "/app", "/app/workload.json", "/app/other", "/data",
                   "/data/model.pfs", "/data/sub/out.pfs", "/etc/passwd"]


@st.composite
def respelled(draw, path):
    """`path` with `//`, `/./` and `x/../` inserted between its components."""
    out = []
    for part in [p for p in path.split("/") if p] + [None]:
        out.extend(draw(st.lists(st.sampled_from(["", ".", "x/..", "app/.."]), max_size=2)))
        if part is not None:
            out.append(part)
    return "/" + "/".join(out)


def _outcome(fn, path):
    try:
        return fn(path)
    except EnclaveAccessError:
        return "denied"


@settings(max_examples=300, deadline=None)
@given(data=st.data())
def test_no_spelling_changes_class_or_resolution(started, data):
    instance, _ = started
    path = data.draw(st.sampled_from(CANONICAL_PATHS))
    spelled = data.draw(respelled(path))
    assert instance.path_class(spelled) == instance.path_class(path)
    assert _outcome(instance.resolve, spelled) == _outcome(instance.resolve, path)


@settings(max_examples=300, deadline=None)
@given(parts=st.lists(st.sampled_from(["app", "data", "..", ".", "", "x", "workload.json"]),
                      max_size=8))
def test_resolve_never_leaves_its_mount(started, parts):
    instance, root = started
    host = _outcome(instance.resolve, "/" + "/".join(parts))
    if host == "denied":
        return
    host = os.path.normpath(host)
    assert any(host == d or host.startswith(d + os.sep)
               for d in (os.path.join(root, "app"), os.path.join(root, "data")))


# -- workload -----------------------------------------------------------

def start_with_key(tmp_path, **kw):
    root, final, model = build_deployment(tmp_path, **kw)
    instance = enclave_start(final, root)
    instance.provisioned_secrets["pfs-master"] = MASTER_KEY
    return root, instance, model


def test_identity_model_roundtrip(tmp_path):
    root, instance, _ = start_with_key(tmp_path)
    report = instance.run(WORKLOAD)
    assert report.rows == 2
    out = user_decrypt_output(root / "data" / "output.csv.pfs", MASTER_KEY,
                              "/data/output.csv.pfs")
    assert parse_rows(out.decode(), 2) == [[1.0, 2.0], [3.0, 4.0]]


def test_hand_computed_affine_model(tmp_path):
    model = LinearModel(rows=2, cols=2, weights=[[1.0, 2.0], [3.0, 4.0]],
                        bias=[0.5, -0.5])
    root, instance, _ = start_with_key(tmp_path, model=model, input_text="1,1\n")
    instance.run(WORKLOAD)
    out = user_decrypt_output(root / "data" / "output.csv.pfs", MASTER_KEY,
                              "/data/output.csv.pfs")
    assert parse_rows(out.decode(), 2) == [[3.5, 6.5]]


def test_tampered_model_no_output_created(tmp_path):
    root, instance, _ = start_with_key(tmp_path)
    target = root / "data" / "model.pfs"
    raw = bytearray(target.read_bytes())
    raw[-1] ^= 0x01
    target.write_bytes(bytes(raw))
    with pytest.raises(RunError) as exc:
        instance.run(WORKLOAD)
    assert exc.value.kind == "integrity"
    assert exc.value.reason == "/data/model.pfs"
    assert not (root / "data" / "output.csv.pfs").exists()


def test_missing_key_refuses_to_run(tmp_path):
    root, final, _ = build_deployment(tmp_path)
    instance = enclave_start(final, root)
    with pytest.raises(RunError) as exc:
        instance.run(WORKLOAD)
    assert exc.value.kind == "key_missing"


def test_shape_mismatch_detected(tmp_path):
    root, instance, _ = start_with_key(tmp_path, input_text="1,2,3\n")
    with pytest.raises(RunError) as exc:
        instance.run(WORKLOAD)
    assert exc.value.kind == "shape_mismatch"


def test_a_model_with_no_input_columns_is_shape_mismatch(tmp_path):
    model = LinearModel(rows=2, cols=0, weights=[[], []], bias=[0.5, 1.5])
    with pytest.raises(ValueError, match="no input columns"):
        LinearModel.unpack(model.pack())
    root, instance, _ = start_with_key(tmp_path, model=model, input_text="\n\n")
    with pytest.raises(RunError) as exc:
        instance.run(WORKLOAD)
    assert (exc.value.kind, exc.value.reason.partition(" (")[0]) \
        == ("shape_mismatch", "/data/model.pfs")
    assert not (root / "data" / "output.csv.pfs").exists()


def test_a_model_with_no_outputs_is_shape_mismatch(tmp_path):
    # its output would be one blank line per input row, which reads back as no rows
    model = LinearModel(rows=0, cols=2, weights=[], bias=[])
    with pytest.raises(ValueError, match="no outputs"):
        LinearModel.unpack(model.pack())
    root, instance, _ = start_with_key(tmp_path, model=model, input_text="1,2\n3,4\n")
    with pytest.raises(RunError) as exc:
        instance.run(WORKLOAD)
    assert (exc.value.kind, exc.value.reason.partition(" (")[0]) \
        == ("shape_mismatch", "/data/model.pfs")
    assert not (root / "data" / "output.csv.pfs").exists()


@pytest.mark.parametrize("edit", [lambda packed: packed[:-8], lambda packed: packed + bytes(8)],
                         ids=["short", "long"])
def test_a_model_whose_length_does_not_match_its_header_is_shape_mismatch(tmp_path, edit):
    root, instance, model = start_with_key(tmp_path)
    (tmp_path / "user" / "model.bin").write_bytes(edit(model.pack()))
    user_encrypt_inputs([(tmp_path / "user" / "model.bin", "/data/model.pfs")],
                        MASTER_KEY, root / "data")
    with pytest.raises(RunError) as exc:
        instance.run(WORKLOAD)
    assert (exc.value.kind, exc.value.reason.partition(" (")[0]) \
        == ("shape_mismatch", "/data/model.pfs")
    assert not (root / "data" / "output.csv.pfs").exists()


def test_float_exactness_through_text_roundtrip():
    rng = random.Random(67)
    rows = [[rng.uniform(-1e6, 1e6) for _ in range(5)] for _ in range(20)]
    assert parse_rows(format_rows(rows), 5) == rows


def test_model_pack_unpack_roundtrip():
    rng = random.Random(71)
    model = LinearModel(rows=3, cols=4,
                        weights=[[rng.random() for _ in range(4)] for _ in range(3)],
                        bias=[rng.random() for _ in range(3)])
    again = LinearModel.unpack(model.pack())
    assert again == model


# -- the batched kernel and the workload decoders --------------------------

# signed zeros, infinities, nan, subnormals and magnitudes whose products
# and sums overflow; finite values of mixed scale, whose sums round
# differently in another order; and any other double
EDGE_FLOATS = st.sampled_from([0.0, -0.0, math.inf, -math.inf, math.nan, 5e-324,
                               -2.5e-308, 1e308, -1e308, 1.7976931348623157e308])
MIXED_SCALE = st.builds(lambda k, e: k / 7 * 10.0 ** e, st.integers(-999, 999),
                        st.integers(-20, 20))
ANY_FLOAT = st.one_of(EDGE_FLOATS, MIXED_SCALE, st.floats())


def float_grid(n_rows, n_cols):
    return st.lists(st.lists(ANY_FLOAT, min_size=n_cols, max_size=n_cols),
                    min_size=n_rows, max_size=n_rows)


@st.composite
def model_and_inputs(draw):
    """A model of 0-5 outputs and 0-5 inputs, and 0-5 input rows for it."""
    rows, cols, n = (draw(st.integers(0, 5)) for _ in range(3))
    model = LinearModel(rows, cols, draw(float_grid(rows, cols)),
                        draw(st.lists(ANY_FLOAT, min_size=rows, max_size=rows)))
    return model, draw(float_grid(n, cols))


def assert_same_doubles(got, want):
    """Same shape, same repr text, same bits for every non-NaN value."""
    assert [len(row) for row in got] == [len(row) for row in want]
    assert format_rows(got) == format_rows(want)
    for a, b in zip((v for row in got for v in row), (v for row in want for v in row)):
        if math.isnan(b):
            assert math.isnan(a)
        else:
            assert struct.pack("<d", a) == struct.pack("<d", b)


@settings(max_examples=400, deadline=None)
@given(case=model_and_inputs())
def test_batched_kernel_is_bit_identical_to_apply(case):
    model, xs = case
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        got = model.apply_rows(xs)
    assert_same_doubles(got, [model.apply(x) for x in xs])


def test_batched_kernel_matches_apply_at_workload_size():
    rng = random.Random(73)
    model = LinearModel(32, 48, [[rng.uniform(-2, 2) for _ in range(48)] for _ in range(32)],
                        [rng.uniform(-1, 1) for _ in range(32)])
    xs = [[rng.uniform(-1e3, 1e3) for _ in range(48)] for _ in range(300)]
    assert_same_doubles(model.apply_rows(xs), [model.apply(x) for x in xs])


def test_batched_kernel_overflow_raises_no_warning():
    model = LinearModel(3, 2, [[1e308, 1e308], [math.inf, -math.inf], [0.0, math.nan]],
                        [0.0, 1.0, -math.inf])
    xs = [[10.0, 10.0], [0.0, 1.0], [-1e308, math.inf]]
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        got = model.apply_rows(xs)
    assert_same_doubles(got, [model.apply(x) for x in xs])
    assert got[0][0] == math.inf and math.isnan(got[1][1])


def test_batched_kernel_empty_shapes():
    assert LinearModel(2, 3, [[1.0] * 3] * 2, [0.5, 0.5]).apply_rows([]) == []
    assert LinearModel(0, 3, [], []).apply_rows([[1.0, 2.0, 3.0]]) == [[]]
    assert LinearModel(2, 0, [[], []], [0.5, -0.0]).apply_rows([[], []]) == \
        [[0.5, -0.0], [0.5, -0.0]]
    # a model with no outputs may declare any width; nothing is computed
    assert LinearModel(0, 2**32 - 1, [], []).apply_rows([]) == []


def test_importing_the_cli_does_not_load_numpy():
    # servers start through the CLI; the kernel imports numpy on first use
    code = "import enclavesim.cli, sys; assert 'numpy' not in sys.modules"
    subprocess.run([sys.executable, "-c", code], check=True, timeout=60)


@settings(max_examples=500, deadline=None)
@given(data=st.one_of(
    st.binary(max_size=64),
    st.tuples(st.integers(0, 2**32 - 1), st.integers(0, 2**32 - 1), st.binary(max_size=64))
    .map(lambda t: struct.pack("<II", t[0], t[1]) + t[2]),
    st.tuples(st.integers(0, 3), st.integers(0, 3), st.integers(-8, 8))
    .map(lambda t: struct.pack("<II", t[0], t[1]) + bytes(max(0, 8 * (t[0] * t[1] + t[0]) + t[2])))))
def test_model_unpack_raises_only_value_error(data):
    try:
        model = LinearModel.unpack(data)
    except ValueError:
        return
    assert model.pack() == data


TEXT_PIECES = st.sampled_from(["1", "-2.5", "1e308", "1e999", "nan", "-inf", "0x10", "1_0",
                               ",", ",,", " ", "\t", "\x1f", "\u3000", "\n", "\r\n",
                               "\x1c", "\u2028", "#", "\x00", "\ud800", "e", "."])


@settings(max_examples=500, deadline=None)
@given(text=st.one_of(st.text(max_size=40), st.lists(TEXT_PIECES, max_size=20).map("".join)),
       cols=st.integers(0, 3))
def test_parse_rows_raises_only_value_error(text, cols):
    try:
        rows = parse_rows(text, cols)
    except ValueError:
        return
    assert all(len(row) == cols and all(isinstance(v, float) for v in row) for row in rows)


@settings(max_examples=300, deadline=None)
@given(rows=st.integers(1, 4).flatmap(lambda cols: st.lists(
    st.lists(ANY_FLOAT, min_size=cols, max_size=cols), max_size=5)))
def test_format_then_parse_gives_back_the_same_doubles(rows):
    cols = len(rows[0]) if rows else 1
    assert_same_doubles(parse_rows(format_rows(rows), cols), rows)


# -- the output writer: orjson where its bytes are repr's ------------------

def repr_rows(rows):
    return "".join(",".join(map(repr, row)) + "\n" for row in rows)


def outcome(write, rows):
    """The text `write` gives, or TypeError if it raises one."""
    try:
        return write(rows)
    except TypeError:
        return TypeError


# 0 and magnitudes in [1e-4, 1e16), which orjson writes as repr does
IN_RANGE = st.one_of(st.just(0.0), st.just(-0.0),
                     st.floats(1e-4, 1e16, exclude_max=True).flatmap(
                         lambda v: st.sampled_from([v, -v])),
                     st.integers(-2**63, 2**64 - 1))
ANY_VALUE = st.one_of(ANY_FLOAT, IN_RANGE, st.integers(-2**80, 2**80), st.booleans())


def value_grids(values):
    row = st.lists(values, max_size=4)
    return st.lists(st.one_of(row, row.map(tuple)), max_size=5)


@settings(max_examples=500, deadline=None)
@given(rows=st.one_of(value_grids(IN_RANGE), value_grids(ANY_VALUE),
                      value_grids(ANY_VALUE).map(tuple)))
def test_format_rows_writes_each_value_as_repr(rows):
    assert format_rows(rows) == "".join(",".join(map(repr, row)) + "\n" for row in rows)


EDGE_SWEEP = [
    *(v for bound in (1e-4, 1e16) for v in (math.nextafter(bound, 0), bound,
                                             math.nextafter(bound, math.inf))),
    *(k * 10.0 ** e for e in range(-8, -4) for k in (1, 1.5, 9.99)),
    -0.0, 0.0, 5e-324, 2.225073858507201e-308, 2.2250738585072014e-308,
    math.nan, math.inf, -math.inf, 2**63, 2**64 - 1, 2**64, -2**63, -2**63 - 1, True,
]


def test_format_rows_writes_repr_at_every_edge():
    for v in EDGE_SWEEP + [-v for v in EDGE_SWEEP]:
        for rows in ([[v]], [[1.5, v]], [[v, 2.5]], [[2.5], [v]], [(v, 0.0)]):
            assert format_rows(rows) == repr_rows(rows), rows
    assert format_rows([[1.0, [2.0]]]) == "1.0,[2.0]\n"
    assert format_rows([]) == "" and format_rows([[], []]) == "\n\n"
    # a seeded sweep of bit patterns in [1e-4, 1e16), all on orjson's path
    rng = random.Random(79)
    lo, hi = struct.unpack("<2Q", struct.pack("<2d", 1e-4, 1e16))
    bits = [rng.randrange(lo, hi) | rng.choice((0, 1 << 63)) for _ in range(20000)]
    values = struct.unpack(f"<{len(bits)}d", struct.pack(f"<{len(bits)}Q", *bits))
    rows = [values[i:i + 32] for i in range(0, len(values), 32)]
    assert format_rows(rows) == repr_rows(rows)


class FloatSub(float):
    pass


class IntSub(int):
    pass


class PlainEnum(enum.Enum):
    A = 1.5


class FloatEnum(float, enum.Enum):
    A = 1.5


class Flag(enum.IntEnum):
    A = 1


# grids whose text orjson would write otherwise than repr, or not at all
REPR_PATH = {
    "bool": [[True, 1.0]],
    "enum": [[PlainEnum.A]],
    "float enum": [[FloatEnum.A]],
    "int enum": [[Flag.A, 1]],
    "float subclass": [[FloatSub(1.5)]],
    "int subclass": [[IntSub(1)]],
    "list subclass": [type("Row", (list,), {})([1.0])],
    "numpy scalar": [[1.0, np.float64(1.5)]],
    "int beyond 64 bits": [[2**64, 1.0]],
    "negative int beyond 64 bits": [[-2**63 - 1, 1.0]],
    "nested list": [[1.0, [1.5]]],
    "scalar row": [[1.0], 1.5, [[1.0]]],
    "nan": [[1.0, math.nan]],
    "inf": [[-math.inf, 1.0]],
    "1e16": [[1e16]],
    "below 1e-5": [[1.0, 1.5e-6]],
    "tiny first": [[1.5e-5, 1.0]],
    "tiny in a row": [[1.0, 1.5e-5]],
    "tiny first in a later row": [[1.0], [1.5e-5]],
    "negative tiny": [[1.0, -1e-5]],
    "no rows": [],
}
# grids on orjson's path, each near the edge of one guard
ORJSON_PATH = {
    "floats": [[1.0, -2.5], [3.25, 0.0]],
    "tuples and ints": ([1, 2.5], (-3, 2**64 - 1)),
    "1e-4": [[1e-4, -1e-4]],
    "below 1e16": [[9999999999999998.0]],
    "0.0000 inside a value": [[10.00001, 1.0]],
    "no columns": [[], [1.0]],
}


@pytest.fixture
def forged_orjson(monkeypatch):
    """orjson.dumps with every digit 1 written as 7, so that the output
    shows whose bytes it is."""
    real = orjson.dumps
    monkeypatch.setattr(orjson, "dumps",
                        lambda *args, **kwargs: real(*args, **kwargs).replace(b"1", b"7"))


def test_format_rows_uses_orjson_bytes_for_a_plain_grid(forged_orjson):
    assert format_rows([[1.0]]) == "7.0\n"
    for name, rows in ORJSON_PATH.items():
        assert format_rows(rows) == repr_rows(rows).replace("1", "7"), name


@pytest.mark.parametrize("name", REPR_PATH)
def test_format_rows_writes_any_other_grid_by_repr(forged_orjson, name):
    rows = REPR_PATH[name]
    assert outcome(format_rows, rows) == outcome(repr_rows, rows)


def test_format_rows_takes_a_generator_by_repr(forged_orjson):
    assert format_rows(row for row in [[1.0], [2.5]]) == "1.0\n2.5\n"


def test_parse_rows_strips_each_value_as_str_strip_does():
    # float() alone does not strip U+001F, which str.isspace() counts as space
    assert parse_rows("1,\x1f2\u3000, 3\t\n", 3) == [[1.0, 2.0, 3.0]]
    with pytest.raises(ValueError, match="line 2: not numeric"):
        parse_rows("# header\n1,x,3\n", 3)


# -- the input reader: orjson where its doubles are float()'s --------------

def float_loop_rows(text, cols):
    """The reading contract written out: float() of each stripped value of
    each line that is neither blank nor a comment."""
    rows = []
    for lineno, line in enumerate(text.splitlines(), start=1):
        stripped = line.strip()
        if not stripped or stripped.startswith("#"):
            continue
        try:
            row = [float(value.strip()) for value in stripped.split(",")]
        except ValueError:
            raise ValueError(f"line {lineno}: not numeric")
        if len(row) != cols:
            raise ValueError(f"line {lineno}: expected {cols} values, got {len(row)}")
        rows.append(row)
    return rows


def read_outcome(read, text, cols):
    """Each value's type and bits (so -0.0 is not 0.0), or the error."""
    try:
        rows = read(text, cols)
    except ValueError as exc:
        return str(exc)
    return [[(type(v), struct.pack("<d", v)) for v in row] for row in rows]


# values orjson must not read: float() takes some and refuses the others
REFUSED_VALUES = [
    "1", "-0", "0", "12", "1e5", "1.5e5", "1.5E-5", "+1.0", "1_0.0", "nan", "-inf",
    "inf", "01.5", "-00.5", ".5", "1.", "-.5", " 1.0", "1.0 ", "\t1.0", "\x1f1.0",
    "1.0\u3000", "\u0661.\u0665", "[1.0]", "1.0],[2.0", "1.0]", "--1.0", "", "-", ".",
    "1.0.0", "0x1p0", "true", "\ud800", "1" + "0" * 30, "1" + "0" * 400 + ".0",
]
LINE_ENDS = ["\n", "\r\n", "\r", "\x1c", "\u2028"]
OTHER_LINES = ["", "   ", "\t", "# note", "  # indented", "#1.5", "# a\x1c1.5", "\x0b"]
# repr'd doubles with no exponent, so with one "." each
POSITIONAL = st.one_of(
    st.sampled_from([0.0, -0.0]),
    st.floats(1e-4, 1e16, exclude_max=True).flatmap(lambda v: st.sampled_from([v, -v])),
).map(repr)


@st.composite
def row_texts(draw):
    """Either rows of positional doubles among comments and blank lines, or
    rows of any repr'd double among refused values, comments, blank lines
    and rows of the wrong width; with any line ends, and a column count."""
    cols = draw(st.integers(1, 4))
    if draw(st.booleans()):
        values, others = POSITIONAL, st.sampled_from(["", "# note", "#1.5"])
    else:
        values = st.one_of(ANY_FLOAT.map(repr), POSITIONAL)
        others = st.one_of(st.sampled_from(OTHER_LINES), st.lists(
            st.one_of(values, st.sampled_from(REFUSED_VALUES)), min_size=1, max_size=5)
            .map(",".join))
    row = st.lists(values, min_size=cols, max_size=cols).map(",".join)
    lines = draw(st.lists(st.one_of(row, row, others), max_size=6))
    ends = draw(st.lists(st.sampled_from(LINE_ENDS), min_size=len(lines), max_size=len(lines)))
    if ends and draw(st.booleans()):
        ends[-1] = ""
    return "".join(map("".join, zip(lines, ends))), draw(st.sampled_from([cols, 0, cols + 1]))


@settings(max_examples=800, deadline=None)
@given(case=row_texts())
def test_parse_rows_reads_what_the_float_loop_reads(case):
    text, cols = case
    assert read_outcome(parse_rows, text, cols) == read_outcome(float_loop_rows, text, cols)


@pytest.fixture
def orjson_reads(monkeypatch):
    """The rows each orjson.loads call returned, in order."""
    real, reads = orjson.loads, []

    def loads(*args, **kwargs):
        reads.append(real(*args, **kwargs))
        return reads[-1]

    monkeypatch.setattr(orjson, "loads", loads)
    return reads


def positional(value):
    """An exact decimal written with a "." and no exponent."""
    text = format(value, "f")
    return text if "." in text else text + ".0"


def assert_orjson_reads_as_float(values, reads):
    """One value a row: parse_rows returns orjson's rows, and they are the
    float loop's doubles."""
    text = "\n".join(values) + "\n"
    rows = parse_rows(text, 1)
    assert reads and rows is reads[-1]
    assert read_outcome(lambda *_: rows, text, 1) == read_outcome(float_loop_rows, text, 1)


def test_parse_rows_rounds_midpoints_as_float_does(orjson_reads):
    # the exact midpoint between adjacent doubles is a tie, rounded to even;
    # 1e-1100 either side of it decides the tie on the very last digit
    rng = random.Random(83)
    top = struct.unpack("<Q", struct.pack("<d", sys.float_info.max))[0]
    bits = [0, 1, 2, 2**52 - 1, 2**52, 2**53 - 1, *(rng.randrange(top) for _ in range(300))]
    doubles = [*struct.unpack(f"<{len(bits)}d", struct.pack(f"<{len(bits)}Q", *bits)),
               1.0, 0.1, 1e-4, 2.0**53, 1e16, 1e22, 1e23]
    nudge = decimal.Decimal("1e-1100")
    values = []
    with decimal.localcontext() as ctx:
        ctx.prec = 3000
        for d in doubles:
            mid = (decimal.Decimal(d) + decimal.Decimal(math.nextafter(d, math.inf))) / 2
            for v in (mid, mid - nudge, mid + nudge):
                values += [positional(v), positional(-v)]
    assert_orjson_reads_as_float(values, orjson_reads)


def test_parse_rows_reads_long_digit_strings_as_float_does(orjson_reads):
    rng = random.Random(89)
    values = ["9007199254740993.0", "-9007199254740993.0", "9007199254740995.0",
              "0.30000000000000001665334536937734810635447502136230468750"]
    for _ in range(3000):
        digits = [rng.choice("0123456789") for _ in range(rng.randint(17, 40))]
        point = rng.randint(1, len(digits) - 1)
        whole = "".join(digits[:point]).lstrip("0") or "0"
        values.append(rng.choice(("", "-")) + whole + "." + "".join(digits[point:]))
    assert_orjson_reads_as_float(values, orjson_reads)


def test_parse_rows_reads_subnormals_underflow_and_signed_zeros_as_float_does(orjson_reads):
    smallest = decimal.Decimal(5e-324)
    with decimal.localcontext() as ctx:
        ctx.prec = 3000
        exact = [smallest, smallest / 2, smallest / 2 + decimal.Decimal("1e-1100"),
                 smallest / 2 - decimal.Decimal("1e-1100"), smallest * 3 / 2,
                 decimal.Decimal(2.2250738585072009e-308), decimal.Decimal(2.2250738585072014e-308),
                 decimal.Decimal(sys.float_info.max)]
        values = [positional(v) for v in exact]
    values += ["0." + "0" * k + "1" for k in (300, 322, 323, 324, 400, 5000)]
    values += ["0.0", "-0.0", "0.000", "-0.000", "-0." + "0" * 400 + "1"]
    values += [("-" + v) for v in values if not v.startswith("-")]
    assert_orjson_reads_as_float(values, orjson_reads)


def test_parse_rows_leaves_an_overflow_to_float(orjson_reads):
    # orjson refuses a value that overflows; float() reads it as inf
    for text in ("1" + "0" * 400 + ".0\n", "1.5\n-1" + "0" * 400 + ".0\n"):
        assert read_outcome(parse_rows, text, 1) == read_outcome(float_loop_rows, text, 1)
        assert math.isinf(parse_rows(text, 1)[-1][0])
    assert orjson_reads == []


@pytest.fixture
def forged_loads(monkeypatch):
    """orjson.loads with every value read as 7.0, so that the rows show
    whose reading they are."""
    real = orjson.loads
    monkeypatch.setattr(orjson, "loads",
                        lambda *args, **kwargs: [[7.0] * len(row) for row in real(*args, **kwargs)])


def test_parse_rows_reads_a_deploy_input_by_orjson(forged_loads):
    rng = random.Random(97)
    grid = [[rng.uniform(-10, 10) for _ in range(32)] for _ in range(256)]
    text = "# marker:0123456789abcdef\n" + format_rows(grid)
    assert "e" not in text.split("\n", 1)[1]  # no value on float()'s path
    assert parse_rows(text, 32) == [[7.0] * 32] * 256
    for text, cols in [("-0.0,0.5\r\n\n#x\r1.25,-10.0", 2), ("0.0", 1),
                       ("1.5\x1c2.5\u20283.5", 1), ("# a\x1c1.5\n", 1)]:
        assert parse_rows(text, cols) == [[7.0] * cols] * len(float_loop_rows(text, cols))


REFUSED_TEXTS = [
    *((f"1.5,{value}\n", 2) for value in REFUSED_VALUES),
    *((f"{value}\n", 1) for value in REFUSED_VALUES),
    ("1,2\n", 2),
    ("  # indented\n1.5\n", 1),
    ("1.5\n   \n2.5\n", 1),
    ("1.5\n\t\n", 1),
    ("1.5,2.5\n3.5\n", 2),
    ("1.5\n2.5,3.5,4.5\n", 2),  # as many values as two rows of 2
    ("1.5\n", 2),
    ("1.5\n", 0),
    ("# only a comment\n", 1),
    ("# only a comment\n", 0),
    ("", 0),
]


@pytest.mark.parametrize("text,cols", REFUSED_TEXTS)
def test_parse_rows_reads_any_other_text_by_float(forged_loads, text, cols):
    assert read_outcome(parse_rows, text, cols) == read_outcome(float_loop_rows, text, cols)


# -- user-side helpers -----------------------------------------------------

def test_user_encrypt_decrypt_identity(tmp_path):
    src = tmp_path / "plain.bin"
    src.write_bytes(b"sensitive model weights")
    out_dir = tmp_path / "out"
    (written,) = user_encrypt_inputs([(src, "/data/plain.bin")], MASTER_KEY, out_dir)
    assert user_decrypt_output(written, MASTER_KEY, "/data/plain.bin") == \
        b"sensitive model weights"


def test_user_tooling_labels_containers_with_canonical_enclave_paths(tmp_path):
    # the enclave opens every path in canonical form, so a container labelled
    # with the path as given would fail its filename check
    root, final, _ = build_deployment(tmp_path)
    (tmp_path / "user" / "input.csv").write_text("5,6\n")
    written = user_encrypt_inputs([(tmp_path / "user" / "model.bin", "/data/./model.pfs"),
                                   (tmp_path / "user" / "input.csv", "/data//input.csv.pfs")],
                                  MASTER_KEY, root / "data")
    assert written == [str(root / "data" / "model.pfs"), str(root / "data" / "input.csv.pfs")]
    instance = enclave_start(final, root)
    instance.provisioned_secrets["pfs-master"] = MASTER_KEY
    _, rows = instance.workload_open_inputs(WORKLOAD)
    assert rows == [[5.0, 6.0]]
    instance.workload_write_output(WORKLOAD, rows)
    assert user_decrypt_output(root / "data" / "output.csv.pfs", MASTER_KEY,
                               "/data/../data/output.csv.pfs") == format_rows(rows).encode()


@pytest.mark.parametrize("path", ["data/plain.bin", "/../plain.bin", "/data/../../x"])
def test_user_encrypt_refuses_a_relative_or_escaping_path_before_any_write(tmp_path, path):
    src = tmp_path / "plain.bin"
    src.write_bytes(b"data")
    out_dir = tmp_path / "out"
    with pytest.raises(ValueError):
        user_encrypt_inputs([(src, "/data/ok.bin"), (src, path)], MASTER_KEY, out_dir)
    assert not out_dir.exists()


def test_user_encrypt_refuses_two_paths_with_one_basename_before_any_write(tmp_path):
    # both would be written to out/model.pfs, the second over the first
    src = tmp_path / "plain.bin"
    src.write_bytes(b"data")
    out_dir = tmp_path / "out"
    with pytest.raises(ValueError, match="share a basename"):
        user_encrypt_inputs([(src, "/data/x/model.pfs"), (src, "/data/y/model.pfs")],
                            MASTER_KEY, out_dir)
    assert not out_dir.exists()


def test_user_decrypt_wrong_key(tmp_path):
    from enclavesim.pfs import WrongKeyError

    src = tmp_path / "plain.bin"
    src.write_bytes(b"data")
    (written,) = user_encrypt_inputs([(src, "/data/plain.bin")], MASTER_KEY,
                                     tmp_path / "out")
    with pytest.raises(WrongKeyError):
        user_decrypt_output(written, b"\x00" * 32, "/data/plain.bin")


def test_encrypted_files_leak_no_plaintext_substring(tmp_path):
    rng = random.Random(73)
    src = tmp_path / "plain.bin"
    plaintext = rng.randbytes(20000)
    src.write_bytes(plaintext)
    (written,) = user_encrypt_inputs([(src, "/data/plain.bin")], MASTER_KEY,
                                     tmp_path / "out")
    from pathlib import Path

    sealed = Path(written).read_bytes()
    assert sealed != plaintext
    for _ in range(200):
        start = rng.randint(0, len(plaintext) - 16)
        assert plaintext[start:start + 16] not in sealed


# -- provisioning integration ------------------------------------------------

def test_enclave_provision_end_to_end(tmp_path):
    root, final, _ = build_deployment(tmp_path)
    pcs = PcsDatabase.create(now=NOW)
    platform, chain = pcs.register(tcb_level=5, now=NOW)
    instance = enclave_start(final, root, platform=platform, cert_chain=chain)

    vault = KeyVault()
    vault.add_secret("pfs-master", MASTER_KEY, VerificationPolicy(
        accepted_root=pcs.root_public_key,
        expected_mr_enclave=instance.measurement.mr_enclave,
        min_isv_svn=1, min_tcb_level=1))
    session_policy = VerificationPolicy(accepted_root=pcs.root_public_key,
                                        min_isv_svn=1, min_tcb_level=1)
    server = KeyServer(vault, session_policy, crypto.sign_generate(),
                       crl_provider=lambda pid: pcs.current_crl(),
                       now_source=lambda: NOW).start()
    try:
        instance.provisioned_secrets["pfs-master"] = client_request_key(
            server.address, "pfs-master", instance.quote_provider(), server.public_key)
        assert instance.provisioned_secrets["pfs-master"] == MASTER_KEY
        report = instance.run(WORKLOAD)
        assert report.rows == 2
    finally:
        server.stop()


def test_modified_manifest_cannot_obtain_key(tmp_path):
    # measurement honesty: the quote carries the actual loaded manifest's
    # measurement, so a manifest edit is denied the key
    root, final, _ = build_deployment(tmp_path)
    pcs = PcsDatabase.create(now=NOW)
    platform, chain = pcs.register(tcb_level=5, now=NOW)
    original_measurement = compute_measurement(final).mr_enclave

    final.template.max_threads += 1  # tampered deployment
    instance = enclave_start(final, root, platform=platform, cert_chain=chain)
    assert instance.measurement.mr_enclave != original_measurement

    vault = KeyVault()
    vault.add_secret("pfs-master", MASTER_KEY, VerificationPolicy(
        accepted_root=pcs.root_public_key,
        expected_mr_enclave=original_measurement, min_isv_svn=1, min_tcb_level=1))
    session_policy = VerificationPolicy(accepted_root=pcs.root_public_key,
                                        min_isv_svn=1, min_tcb_level=1)
    server = KeyServer(vault, session_policy, crypto.sign_generate(),
                       crl_provider=lambda pid: pcs.current_crl(),
                       now_source=lambda: NOW).start()
    try:
        with pytest.raises(ProvisionDeniedError) as exc:
            client_request_key(server.address, "pfs-master", instance.quote_provider(),
                               server.public_key)
        assert exc.value.reason == "policy_mismatch"
        assert "pfs-master" not in instance.provisioned_secrets
        with pytest.raises(RunError):
            instance.run(WORKLOAD)
    finally:
        server.stop()


def test_revoked_platform_provision_fails(tmp_path):
    root, final, _ = build_deployment(tmp_path)
    pcs = PcsDatabase.create(now=NOW)
    platform, chain = pcs.register(tcb_level=5, now=NOW)
    instance = enclave_start(final, root, platform=platform, cert_chain=chain)

    vault = KeyVault()
    vault.add_secret("pfs-master", MASTER_KEY, VerificationPolicy(
        accepted_root=pcs.root_public_key,
        expected_mr_enclave=instance.measurement.mr_enclave,
        min_isv_svn=1, min_tcb_level=1))
    session_policy = VerificationPolicy(accepted_root=pcs.root_public_key,
                                        min_isv_svn=1, min_tcb_level=1)
    server = KeyServer(vault, session_policy, crypto.sign_generate(),
                       crl_provider=lambda pid: pcs.current_crl(),
                       now_source=lambda: NOW).start()
    try:
        pcs.revoke(platform.platform_id)
        with pytest.raises(HandshakeError) as exc:
            client_request_key(server.address, "pfs-master", instance.quote_provider(),
                               server.public_key)
        assert exc.value.kind == "attestation_failed"
        assert exc.value.reason == "revoked"
    finally:
        server.stop()
