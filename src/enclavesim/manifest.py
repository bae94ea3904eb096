"""Manifest templates, the signer, and the environment measurement.

A manifest describes the simulated enclave's execution environment:
entrypoint, arguments, environment variables, mounted directories,
trusted files (plaintext, hash-pinned) and protected files (encrypted
containers). The signer resolves trusted-file contents to SHA-256 hashes
and emits a canonical final manifest; the measurement is the SHA-256 of
that canonical serialization, so any semantic change to code or
configuration changes the measurement. Syntax in MANIFEST.md.
"""

from __future__ import annotations

import os
import re
from dataclasses import dataclass, field
from typing import Callable

from . import codec, crypto

FORMAT_VERSION = 1
MIN_ENCLAVE_SIZE = 1 << 20

_ENV_NAME = re.compile(r"^[A-Za-z_][A-Za-z0-9_]*$")

_SIZE_SUFFIX = {"K": 1 << 10, "M": 1 << 20, "G": 1 << 30}

# a trusted-file digest has one spelling, the records' own: 64 lower-case hex digits
_DIGEST_HEX = codec.hexbytes(crypto.DIGEST_SIZE)


class ParseError(Exception):
    def __init__(self, message: str, line: int | None = None):
        self.line = line
        if line is not None:
            message = f"line {line}: {message}"
        super().__init__(message)


class MissingFileError(Exception):
    def __init__(self, path: str):
        self.path = path
        super().__init__(f"trusted file not resolvable: {path}")


def normalize_enclave_path(path: str) -> str:
    """Canonical form of an absolute enclave path: empty and '.' components
    dropped, '..' resolved. ValueError for a relative path or one that
    would climb above '/'."""
    if not path.startswith("/"):
        raise ValueError(f"enclave path must be absolute: {path!r}")
    parts: list[str] = []
    for part in path.split("/"):
        if part == "..":
            if not parts:
                raise ValueError(f"enclave path climbs above '/': {path!r}")
            parts.pop()
        elif part and part != ".":
            parts.append(part)
    return "/" + "/".join(parts)


def path_under(path: str, prefix: str) -> bool:
    """True when `path` equals `prefix` or lies beneath it ('/' covers all)."""
    prefix = prefix.rstrip("/") or "/"
    if prefix == "/":
        return path.startswith("/")
    return path == prefix or path.startswith(prefix + "/")


@dataclass(frozen=True)
class MountEntry:
    host_path: str
    enclave_path: str

    def host_dir(self, host_root) -> str:
        """The mounted directory; host paths are relative to `host_root`."""
        return os.path.join(str(host_root), self.host_path.lstrip("/"))


def mount_host_path(host_root, mounts: list[MountEntry], enclave_path: str) -> str | None:
    """Host path of a canonical enclave path through the mount with the
    longest enclave prefix covering it; None when no mount covers it."""
    best = None
    for m in mounts:
        if path_under(enclave_path, m.enclave_path) and \
                (best is None or len(m.enclave_path) > len(best.enclave_path)):
            best = m
    if best is None:
        return None
    rel = enclave_path[len(best.enclave_path):].lstrip("/")
    host_dir = best.host_dir(host_root)
    return os.path.join(host_dir, rel) if rel else host_dir


@dataclass
class ManifestTemplate:
    entrypoint: str
    args: list[str] = field(default_factory=list)
    env: dict[str, str] = field(default_factory=dict)
    mounts: list[MountEntry] = field(default_factory=list)
    trusted_files: list[str] = field(default_factory=list)
    protected_files: list[str] = field(default_factory=list)
    enclave_size: int = MIN_ENCLAVE_SIZE
    max_threads: int = 1


@dataclass
class FinalManifest:
    template: ManifestTemplate
    trusted_file_hashes: dict[str, bytes]
    format_version: int = FORMAT_VERSION


@dataclass(frozen=True)
class Measurement:
    mr_enclave: bytes

    @property
    def hex(self) -> str:
        return self.mr_enclave.hex()


def _decimal(text: str, line: int, message: str) -> int:
    """A manifest integer (MANIFEST.md § Integers); `message` names a bad one."""
    try:
        return codec.decimal(text)
    except ValueError:
        raise ParseError(message, line)


def _parse_size(value: str, line: int) -> int:
    text = value.strip()
    mult = 1
    if text and text[-1].upper() in _SIZE_SUFFIX:
        mult = _SIZE_SUFFIX[text[-1].upper()]
        text = text[:-1]
    return _decimal(text, line, f"bad size value {value!r}") * mult


def parse_lines(text: str) -> list[tuple[int, str, str]]:
    """(line number, key, value) triples; blank and comment lines skipped."""
    items = []
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.strip()
        if not line or line.startswith("#"):
            continue
        if "=" not in line:
            raise ParseError(f"expected 'key = value', got {raw!r}", lineno)
        key, _, value = line.partition("=")
        key = key.strip()
        value = value.strip()
        if not key:
            raise ParseError("empty key", lineno)
        items.append((lineno, key, value))
    return items


# MANIFEST.md's key grammar, one table per manifest kind: (scalar keys,
# list keys); a final manifest is the template plus two keys
_TEMPLATE = (frozenset({"app.entrypoint", "sgx.enclave_size", "sgx.max_threads"}),
             frozenset({"app.arg", "fs.mount", "sgx.trusted_file", "sgx.protected_file"}))
_FINAL = (_TEMPLATE[0] | {"manifest.format_version"},
          _TEMPLATE[1] | {"sgx.trusted_file_hash"})


def _collect(items, grammar):
    scalar_keys, list_keys = grammar
    scalars: dict[str, tuple[int, str]] = {}
    lists: dict[str, list[tuple[int, str]]] = {k: [] for k in list_keys}
    env: dict[str, tuple[int, str]] = {}
    for lineno, key, value in items:
        if key.startswith("env."):
            name = key[4:]
            if not _ENV_NAME.match(name):
                raise ParseError(f"bad environment variable name {name!r}", lineno)
            if name in env:
                raise ParseError(f"duplicate environment variable {name!r}", lineno)
            env[name] = (lineno, value)
        elif key in lists:
            lists[key].append((lineno, value))
        elif key in scalar_keys:
            if key in scalars:
                raise ParseError(f"duplicate key {key!r}", lineno)
            scalars[key] = (lineno, value)
        else:
            raise ParseError(f"unknown key {key!r}", lineno)
    return scalars, lists, env


def _required(scalars, key: str) -> tuple[int, str]:
    """(line, value) of a required scalar key, checked where it is first used."""
    if key not in scalars:
        raise ParseError(f"missing required key {key!r}")
    return scalars[key]


def _canonical(path: str, lineno: int) -> str:
    try:
        return normalize_enclave_path(path)
    except ValueError as exc:
        raise ParseError(str(exc), lineno)


def _build_template(scalars, lists, env) -> ManifestTemplate:
    entry_line, entrypoint = _required(scalars, "app.entrypoint")
    if not entrypoint:
        raise ParseError("entrypoint must be nonempty", entry_line)

    size_line, size_text = _required(scalars, "sgx.enclave_size")
    enclave_size = _parse_size(size_text, size_line)
    if enclave_size < MIN_ENCLAVE_SIZE or enclave_size & (enclave_size - 1):
        raise ParseError(f"enclave_size must be a power of two >= 1M, got {size_text}",
                         size_line)

    thr_line, thr_text = _required(scalars, "sgx.max_threads")
    max_threads = _decimal(thr_text, thr_line, f"bad max_threads value {thr_text!r}")
    if max_threads < 1:
        raise ParseError("max_threads must be >= 1", thr_line)

    mounts = []
    seen_enclave_paths = set()
    for lineno, value in lists["fs.mount"]:
        host, sep, enclave = value.partition(":")
        if not sep or not host or not enclave:
            raise ParseError(f"mount must be 'host_path:enclave_path', got {value!r}", lineno)
        enclave = _canonical(enclave, lineno)
        if enclave in seen_enclave_paths:
            raise ParseError(f"duplicate enclave mount path {enclave!r}", lineno)
        seen_enclave_paths.add(enclave)
        mounts.append(MountEntry(host_path=host, enclave_path=enclave))

    trusted, protected = {}, {}  # canonical path -> its line
    for target, key in ((trusted, "sgx.trusted_file"), (protected, "sgx.protected_file")):
        for lineno, value in lists[key]:
            if not value:
                raise ParseError(f"empty path for {key}", lineno)
            value = _canonical(value, lineno)
            if value in target:
                raise ParseError(f"duplicate path {value!r}", lineno)
            target[value] = lineno
    for path, lineno in trusted.items():
        if any(path_under(path, p) for p in protected):
            raise ParseError(f"path marked both trusted and protected: {path!r}", lineno)

    return ManifestTemplate(
        entrypoint=entrypoint,
        args=[v for _, v in lists["app.arg"]],
        env={name: v for name, (_, v) in env.items()},
        mounts=mounts,
        trusted_files=list(trusted),
        protected_files=list(protected),
        enclave_size=enclave_size,
        max_threads=max_threads,
    )


def parse_template(text: str) -> ManifestTemplate:
    """Parse a manifest template; rejects unknown keys and invariant
    violations with the offending line number."""
    scalars, lists, env = _collect(parse_lines(text), _TEMPLATE)
    return _build_template(scalars, lists, env)


def sign_manifest(template: ManifestTemplate,
                  file_resolver: Callable[[str], bytes]) -> FinalManifest:
    """Resolve every trusted file to its SHA-256 hash and emit the final
    manifest. Protected files are carried through unread: their integrity
    comes from the protected container, not the manifest."""
    hashes = {}
    for path in template.trusted_files:
        try:
            content = file_resolver(path)
        except (FileNotFoundError, KeyError, OSError):
            raise MissingFileError(path)
        hashes[path] = crypto.hash_data(content)
    return FinalManifest(template=template, trusted_file_hashes=hashes)


def serialize(final: FinalManifest) -> bytes:
    """Canonical serialization: fixed key order, sorted sets and maps,
    normalized sizes, LF line endings. Byte-stable across processes."""
    t = final.template
    lines = [f"manifest.format_version = {final.format_version}"]
    lines.append(f"app.entrypoint = {t.entrypoint}")
    lines.extend(f"app.arg = {arg}" for arg in t.args)
    lines.extend(f"env.{name} = {t.env[name]}" for name in sorted(t.env))
    lines.extend(f"fs.mount = {m.host_path}:{m.enclave_path}"
                 for m in sorted(t.mounts, key=lambda m: m.enclave_path))
    lines.append(f"sgx.enclave_size = {t.enclave_size}")
    lines.append(f"sgx.max_threads = {t.max_threads}")
    lines.extend(f"sgx.trusted_file = {p}" for p in sorted(t.trusted_files))
    lines.extend(f"sgx.protected_file = {p}" for p in sorted(t.protected_files))
    lines.extend(f"sgx.trusted_file_hash = {p}:{final.trusted_file_hashes[p].hex()}"
                 for p in sorted(final.trusted_file_hashes))
    return ("\n".join(lines) + "\n").encode("utf-8")


def load(data: bytes) -> FinalManifest:
    """Parse a serialized final manifest (inverse of serialize)."""
    try:
        text = data.decode("utf-8")
    except UnicodeDecodeError:
        raise ParseError("final manifest is not valid UTF-8")
    scalars, lists, env = _collect(parse_lines(text), _FINAL)
    ver_line, ver_text = _required(scalars, "manifest.format_version")
    version = _decimal(ver_text, ver_line, f"bad format version {ver_text!r}")
    if version != FORMAT_VERSION:
        raise ParseError(f"unsupported format version {version}", ver_line)

    template = _build_template(scalars, lists, env)

    hashes = {}
    for lineno, value in lists["sgx.trusted_file_hash"]:
        path, sep, hex_digest = value.rpartition(":")
        if not sep or not path:
            raise ParseError(f"trusted_file_hash must be 'path:hex', got {value!r}", lineno)
        path = _canonical(path, lineno)
        try:
            digest = _DIGEST_HEX.decode(hex_digest)
        except ValueError:
            raise ParseError(f"hash for {path!r} is not the lower-case hex of 32 bytes",
                             lineno)
        if path in hashes:
            raise ParseError(f"duplicate hash entry for {path!r}", lineno)
        hashes[path] = digest
    if set(hashes) != set(template.trusted_files):
        raise ParseError("trusted_file and trusted_file_hash sets differ")
    return FinalManifest(template=template, trusted_file_hashes=hashes,
                         format_version=version)


def compute_measurement(final: FinalManifest) -> Measurement:
    """SHA-256 over the canonical serialization."""
    return Measurement(mr_enclave=crypto.hash_data(serialize(final)))


def resolver_for_root(host_root, mounts: list[MountEntry]) -> Callable[[str], bytes]:
    """Resolver mapping enclave paths through `mounts` to files under
    `host_root` (mount host paths are interpreted relative to the root)."""

    def resolve(enclave_path: str) -> bytes:
        try:
            host = mount_host_path(host_root, mounts, normalize_enclave_path(enclave_path))
        except ValueError:
            host = None
        if host is None:
            raise FileNotFoundError(enclave_path)
        with open(host, "rb") as fh:
            return fh.read()

    return resolve
