import hashlib
import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from enclavesim import manifest
from enclavesim.manifest import (
    FinalManifest,
    ManifestTemplate,
    MissingFileError,
    MountEntry,
    ParseError,
    compute_measurement,
    load,
    parse_template,
    serialize,
    sign_manifest,
)

MINIMAL = """\
# demo template
app.entrypoint = /app/run
fs.mount = data:/data
sgx.enclave_size = 1M
sgx.max_threads = 1
"""

FULL = """\
app.entrypoint = /app/infer
app.arg = --rows
app.arg = 4
env.HOME = /
env.MODE = strict
fs.mount = app:/app
fs.mount = data:/data
sgx.enclave_size = 4M
sgx.max_threads = 2
sgx.trusted_file = /app/config
sgx.protected_file = /data
"""


def resolver(files):
    def resolve(path):
        return files[path]
    return resolve


# -- parse_template -----------------------------------------------------

def test_minimal_template_parses():
    t = parse_template(MINIMAL)
    assert t.entrypoint == "/app/run"
    assert t.mounts == [MountEntry("data", "/data")]
    assert t.enclave_size == 1 << 20
    assert t.max_threads == 1


def test_full_template_parses():
    t = parse_template(FULL)
    assert t.args == ["--rows", "4"]
    assert t.env == {"HOME": "/", "MODE": "strict"}
    assert t.trusted_files == ["/app/config"]
    assert t.protected_files == ["/data"]


def test_trusted_and_protected_overlap_rejected():
    text = MINIMAL + "sgx.trusted_file = /data/x\nsgx.protected_file = /data/x\n"
    with pytest.raises(ParseError, match="both trusted and protected"):
        parse_template(text)


def test_a_trusted_path_beside_a_protected_directory_is_accepted():
    text = MINIMAL + "sgx.protected_file = /data/x\nsgx.trusted_file = /data/xy\n"
    t = parse_template(text)
    assert (t.trusted_files, t.protected_files) == (["/data/xy"], ["/data/x"])


def test_non_power_of_two_enclave_size_rejected():
    with pytest.raises(ParseError, match="power of two"):
        parse_template(MINIMAL.replace("1M", "3M"))


def test_enclave_size_below_minimum_rejected():
    with pytest.raises(ParseError, match="power of two"):
        parse_template(MINIMAL.replace("1M", "512K"))


def test_unknown_key_rejected_with_line_number():
    text = MINIMAL + "sgx.bogus = 1\n"
    with pytest.raises(ParseError, match="line 6") as exc:
        parse_template(text)
    assert exc.value.line == 6


def test_duplicate_scalar_key_rejected():
    with pytest.raises(ParseError, match="duplicate"):
        parse_template(MINIMAL + "sgx.max_threads = 2\n")


def test_missing_entrypoint_rejected():
    text = "\n".join(MINIMAL.splitlines()[2:])
    with pytest.raises(ParseError, match="entrypoint"):
        parse_template(text)


def test_relative_enclave_mount_rejected():
    with pytest.raises(ParseError, match="absolute"):
        parse_template(MINIMAL.replace("data:/data", "data:data"))


@pytest.mark.parametrize("extra,message", [
    ("fs.mount = other:/data/\n", "duplicate enclave mount"),
    ("fs.mount = other:/x/../data\n", "duplicate enclave mount"),
    ("fs.mount = other:/../data\n", "climbs above"),
    ("sgx.trusted_file = data/x\n", "absolute"),
    ("sgx.protected_file = /x/../..\n", "climbs above"),
    ("sgx.protected_file = /data\nsgx.protected_file = /app/../data\n", "duplicate path"),
    ("sgx.protected_file = /data//x\nsgx.trusted_file = /data/x\n", "both trusted and protected"),
    ("sgx.protected_file = /data\nsgx.trusted_file = /data/x\n", "both trusted and protected"),
    ("sgx.protected_file = /\nsgx.trusted_file = /data/x\n", "both trusted and protected"),
], ids=["mount-trailing-slash", "mount-dotdot", "mount-above-root", "trusted-relative",
        "protected-above-root", "protected-dotdot-duplicate", "trusted-and-protected",
        "trusted-under-a-protected-directory", "trusted-under-protected-root"])
def test_non_canonical_duplicates_and_escapes_rejected(extra, message):
    with pytest.raises(ParseError, match=message) as exc:
        parse_template(MINIMAL + extra)
    assert exc.value.line == len(MINIMAL.splitlines()) + extra.count("\n")


def test_enclave_paths_are_stored_canonical():
    spelled = FULL.replace("app:/app", "app:/app/").replace(
        "= /app/config", "= /app/./config").replace("= /data", "= /x/..//data/")
    assert spelled != FULL
    files = resolver({"/app/config": b"cfg"})
    assert serialize(sign_manifest(parse_template(spelled), files)) == \
        serialize(sign_manifest(parse_template(FULL), files))


def test_load_canonicalizes_hash_paths():
    data = serialize(demo_final())
    respelled = data.replace(b"sgx.trusted_file_hash = /app/config:",
                             b"sgx.trusted_file_hash = /app//config:")
    assert respelled != data
    assert serialize(load(respelled)) == data


@pytest.mark.parametrize("spell", [str.upper, lambda h: " ".join([h[:2], h[2:]]),
                                   lambda h: h[:-2], lambda h: h + "00", lambda h: ""],
                         ids=["upper-case", "spaced", "short", "long", "empty"])
def test_load_accepts_only_the_lower_case_hex_of_a_digest(spell):
    data = serialize(demo_final()).decode()
    lines = data.splitlines(keepends=True)
    lineno, line = next((n, line) for n, line in enumerate(lines, 1)
                        if line.startswith("sgx.trusted_file_hash = "))
    path, _, digest = line.rstrip("\n").rpartition(":")
    assert serialize(load(data.encode())).decode() == data
    lines[lineno - 1] = f"{path}:{spell(digest)}\n"
    with pytest.raises(ParseError, match="lower-case hex of 32 bytes") as exc:
        load("".join(lines).encode())
    assert exc.value.line == lineno


@pytest.mark.parametrize("path,canonical", [
    ("/", "/"), ("//", "/"), ("/a/./b/", "/a/b"), ("/a//b", "/a/b"), ("/a/../b", "/b"),
    ("/a/b/..", "/a"), ("/a/..", "/"), ("/./.", "/"), ("/.../x", "/.../x"),
])
def test_normalize_enclave_path(path, canonical):
    assert manifest.normalize_enclave_path(path) == canonical


@pytest.mark.parametrize("path", ["", "a", "./a", "/..", "/a/../..", "/../a"])
def test_normalize_enclave_path_rejects(path):
    with pytest.raises(ValueError):
        manifest.normalize_enclave_path(path)


def test_duplicate_mount_target_rejected():
    with pytest.raises(ParseError, match="duplicate enclave mount"):
        parse_template(MINIMAL + "fs.mount = other:/data\n")


def test_max_threads_zero_rejected():
    with pytest.raises(ParseError, match="max_threads"):
        parse_template(MINIMAL.replace("max_threads = 1", "max_threads = 0"))


# -- sign_manifest ------------------------------------------------------

def test_sign_with_zero_trusted_files():
    final = sign_manifest(parse_template(MINIMAL), resolver({}))
    assert final.trusted_file_hashes == {}


def test_sign_hashes_match_independent_sha256():
    t = parse_template(FULL)
    final = sign_manifest(t, resolver({"/app/config": b"abc"}))
    assert final.trusted_file_hashes["/app/config"] == hashlib.sha256(b"abc").digest()


def test_sign_missing_file():
    with pytest.raises(MissingFileError) as exc:
        sign_manifest(parse_template(FULL), resolver({}))
    assert exc.value.path == "/app/config"


def test_changing_one_file_changes_exactly_that_entry():
    text = FULL + "sgx.trusted_file = /app/other\n"
    t = parse_template(text)
    a = sign_manifest(t, resolver({"/app/config": b"one", "/app/other": b"two"}))
    b = sign_manifest(t, resolver({"/app/config": b"one!", "/app/other": b"two"}))
    assert a.trusted_file_hashes["/app/other"] == b.trusted_file_hashes["/app/other"]
    assert a.trusted_file_hashes["/app/config"] != b.trusted_file_hashes["/app/config"]


def test_sign_never_reads_protected_files():
    accessed = []

    def recording(path):
        accessed.append(path)
        return b"content"

    sign_manifest(parse_template(FULL), recording)
    assert accessed == ["/app/config"]


# -- measurement --------------------------------------------------------

def demo_final():
    return sign_manifest(parse_template(FULL), resolver({"/app/config": b"cfg"}))


def test_measurement_deterministic():
    assert compute_measurement(demo_final()) == compute_measurement(demo_final())


def test_measurement_ignores_env_insertion_order():
    final = demo_final()
    t = final.template
    reordered = ManifestTemplate(
        entrypoint=t.entrypoint, args=list(t.args),
        env=dict(reversed(list(t.env.items()))),
        mounts=list(t.mounts), trusted_files=list(t.trusted_files),
        protected_files=list(t.protected_files),
        enclave_size=t.enclave_size, max_threads=t.max_threads)
    other = FinalManifest(template=reordered,
                          trusted_file_hashes=dict(final.trusted_file_hashes))
    assert compute_measurement(other) == compute_measurement(final)


def test_measurement_changes_with_max_threads():
    final = demo_final()
    final.template.max_threads = 1
    one = compute_measurement(final)
    final.template.max_threads = 2
    assert compute_measurement(final) != one


def test_measurement_sensitive_to_single_field_mutations():
    rng = random.Random(41)
    final = demo_final()
    base = compute_measurement(final)
    assert compute_measurement(load(serialize(final))) == base

    mutators = [
        lambda t: t.args.append("--extra"),
        lambda t: t.env.__setitem__("NEW", "v"),
        lambda t: t.env.__setitem__("HOME", "/other"),
        lambda t: t.mounts.append(MountEntry("x", "/x")),
        lambda t: setattr(t, "entrypoint", "/app/infer2"),
        lambda t: setattr(t, "enclave_size", t.enclave_size * 2),
        lambda t: setattr(t, "max_threads", t.max_threads + 1),
        lambda t: t.protected_files.append("/data2"),
    ]
    for _ in range(100):
        final = demo_final()
        choice = rng.randrange(len(mutators) + 1)
        if choice == len(mutators):
            # mutate a trusted-file hash
            final.trusted_file_hashes["/app/config"] = rng.randbytes(32)
        else:
            mutators[choice](final.template)
        assert compute_measurement(final) != base


# -- serialize / load ---------------------------------------------------

def test_roundtrip_demo_manifest():
    final = demo_final()
    again = load(serialize(final))
    assert again.template == final.template
    assert again.trusted_file_hashes == final.trusted_file_hashes
    assert compute_measurement(again) == compute_measurement(final)


def test_serialize_stable():
    assert serialize(demo_final()) == serialize(demo_final())


def test_serialize_fixed_point():
    data = serialize(demo_final())
    assert serialize(load(data)) == data


SAFE_TEXT = st.text(alphabet="abcXYZ019 -_=:/.#", max_size=8)
SIZES = ["1M", "1m", "2M", "1024k", "1024K", "1g", "1G", "1048576"]
DIRS = ["/app", "/data", "/models"]
FILES = ["/app/x", "/app/y/z", "/data/a", "/models/m.bin"]


def respelled(path):
    """Spellings the parser reads as `path`: with `.`, `..`, `//` or a trailing `/`."""
    return st.sampled_from([path, path + "/", "/." + path, path.replace("/", "//", 1),
                            "/tmp/.." + path, path.replace("/", "/./")])


@st.composite
def valid_templates(draw):
    lines = [f"app.entrypoint = {draw(st.sampled_from(['/app/run', '/app/./infer', 'run']))}",
             f"sgx.enclave_size = {draw(st.sampled_from(SIZES))}",
             f"sgx.max_threads = {draw(st.integers(1, 64))}"]
    lines += [f"app.arg = {arg}" for arg in draw(st.lists(SAFE_TEXT, max_size=3))]
    env = draw(st.dictionaries(st.from_regex(r"[A-Za-z_][A-Za-z0-9_]{0,4}", fullmatch=True),
                               SAFE_TEXT, max_size=3))
    lines += [f"env.{name} = {value}" for name, value in env.items()]
    for enclave in draw(st.lists(st.sampled_from(DIRS), unique=True)):
        lines.append(f"fs.mount = {enclave.strip('/')}:{draw(respelled(enclave))}")
    for path, trusted in draw(st.lists(st.tuples(st.sampled_from(FILES), st.booleans()),
                                       unique_by=lambda item: item[0])):
        key = "sgx.trusted_file" if trusted else "sgx.protected_file"
        lines.append(f"{key} = {draw(respelled(path))}")
    return parse_template("\n".join(draw(st.permutations(lines))))


@settings(max_examples=200, deadline=None)
@given(template=valid_templates())
def test_a_loaded_final_manifest_serializes_and_measures_as_the_signed_one(template):
    final = sign_manifest(template, lambda path: path.encode())
    data = serialize(final)
    again = load(data)
    assert serialize(again) == data
    assert compute_measurement(again) == compute_measurement(final)


@pytest.mark.parametrize("parse,text,message,line", [
    (load, b"app.arg = x\n", "missing required key 'manifest.format_version'", None),
    (load, b"manifest.format_version = 01\nsgx.enclave_size = 1M\n",
     "line 1: bad format version '01'", 1),
    (parse_template, "sgx.max_threads = 01\n", "missing required key 'app.entrypoint'", None),
    (parse_template, "app.entrypoint =\n", "line 1: entrypoint must be nonempty", 1),
], ids=["final-without-version", "version-before-entrypoint", "entrypoint-before-threads",
        "entrypoint-value-before-size"])
def test_required_keys_are_checked_in_manifest_order(parse, text, message, line):
    with pytest.raises(ParseError) as exc:
        parse(text)
    assert (str(exc.value), exc.value.line) == (message, line)


def test_load_truncated():
    data = serialize(demo_final())
    with pytest.raises(ParseError):
        load(data[:40])


def _final_with(old: str, new: str) -> bytes:
    text = serialize(demo_final()).decode()  # 13 lines: the version first, the hash last
    assert text.count(old) == 1
    return text.replace(old, new).encode()


HASH = "sgx.trusted_file_hash = /app/config:"


@pytest.mark.parametrize("parse,text,message,line", [
    (parse_template, MINIMAL + "fs.mount = other\n",
     "mount must be 'host_path:enclave_path', got 'other'", 6),
    (parse_template, MINIMAL + "fs.mount = :/other\n",
     "mount must be 'host_path:enclave_path', got ':/other'", 6),
    (parse_template, MINIMAL + "fs.mount = other:\n",
     "mount must be 'host_path:enclave_path', got 'other:'", 6),
    (parse_template, MINIMAL + "sgx.trusted_file =\n", "empty path for sgx.trusted_file", 6),
    (parse_template, MINIMAL + "sgx.protected_file =  \n",
     "empty path for sgx.protected_file", 6),
    (load, lambda: _final_with("format_version = 1", "format_version = 2"),
     "unsupported format version 2", 1),
    (load, lambda: _final_with(HASH, "sgx.trusted_file_hash = "),
     "trusted_file_hash must be 'path:hex'", 13),
    (load, lambda: _final_with(HASH, "sgx.trusted_file_hash = :"),
     "trusted_file_hash must be 'path:hex'", 13),
    (load, lambda: _final_with(HASH, HASH.replace("/app/", "/app//") + "0" * 64 + "\n" + HASH),
     "duplicate hash entry for '/app/config'", 14),
], ids=["mount-without-colon", "mount-empty-host", "mount-empty-enclave",
        "empty-trusted-file", "empty-protected-file", "final-format-version-2",
        "hash-without-path", "hash-with-empty-path", "one-path-hashed-twice"])
def test_each_documented_error_names_its_line(parse, text, message, line):
    with pytest.raises(ParseError) as exc:
        parse(text() if callable(text) else text)
    assert exc.value.line == line
    assert str(exc.value).startswith(f"line {line}: {message}")


def test_load_rejects_hash_set_mismatch():
    data = serialize(demo_final()).decode()
    data += "sgx.trusted_file = /app/unhashed\n"
    with pytest.raises(ParseError, match="differ"):
        load(data.encode())


MANIFEST_KEYS = ["app.entrypoint", "app.arg", "env.HOME", "env.1X", "fs.mount",
                 "sgx.enclave_size", "sgx.max_threads", "sgx.trusted_file",
                 "sgx.protected_file", "sgx.trusted_file_hash", "manifest.format_version",
                 "sgx.unknown", ""]
MANIFEST_VALUES = st.sampled_from([
    "/app/run", "/app", "/app/config", "/data", "app:/app", "data:/data", "x", ":/a", "a:",
    "/a/../..", "/./app/", "1M", "4k", "3M", "0", "-1", "1", "9" * 30, "",
    "/app/config:" + "00" * 32, "/app/config:zz", "/app/config:00"]) | st.text(max_size=12)
# key = value lines, lines of the full template, and any text
MANIFEST_LINES = st.lists(
    st.tuples(st.sampled_from(MANIFEST_KEYS), MANIFEST_VALUES).map(" = ".join)
    | st.sampled_from(FULL.splitlines()) | st.text(max_size=16), max_size=12)


@settings(max_examples=200, deadline=None)
@given(lines=MANIFEST_LINES)
def test_parse_template_raises_only_parse_error(lines):
    try:
        template = parse_template("\n".join(lines))
    except ParseError:
        return
    assert isinstance(template, ManifestTemplate)


@settings(max_examples=200, deadline=None)
@given(lines=MANIFEST_LINES, junk=st.none() | st.binary(max_size=64))
def test_load_raises_only_parse_error(lines, junk):
    data = "\n".join(["manifest.format_version = 1", *lines]).encode("utf-8")
    try:
        final = load(data if junk is None else junk)
    except ParseError:
        return
    assert isinstance(final, FinalManifest)


def test_resolver_for_root(tmp_path):
    (tmp_path / "app").mkdir()
    (tmp_path / "app" / "config").write_bytes(b"hello")
    t = parse_template(FULL)
    resolve = manifest.resolver_for_root(tmp_path, t.mounts)
    assert resolve("/app/config") == b"hello"
    with pytest.raises(FileNotFoundError):
        resolve("/nope/file")
