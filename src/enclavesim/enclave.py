"""Simulated enclave runtime.

The "enclave" is an in-process sandbox object: all workload I/O goes
through instance methods that enforce the manifest's mount view, re-hash
trusted files at open, and route protected paths through the encrypted
container with the provisioned key. Isolation here is by construction,
not an OS sandbox; only the protocol-visible behavior matters.

The stand-in workload is dense linear inference y = W*x + b over text
rows of comma-separated numbers. Model container layout (little-endian):
u32 rows, u32 cols, rows*cols f64 weights row-major, rows f64 bias.

Each output is accumulated in one fixed order: starting from 0.0, add
w[i][j] * x[j] for ascending j, then add the bias, every product and sum
one IEEE-754 double operation. `LinearModel.apply` states that order for
one row in plain Python; `LinearModel.apply_rows`, the enclave's batched
kernel, keeps it across all rows at once, so its output is bit-identical.

Rows are written as text (`format_rows`) with each value's `repr`, the
shortest decimal that reads back as the same double, so the output is a
byte-exact contract. Most grids are written by orjson instead, about four
times faster: for an exact float of magnitude in [1e-4, 1e16) or 0, and an
int within 64 bits, orjson writes the same shortest round-trip digits in
the same positional form (a Ryu-style writer; Adams, PLDI 2018). Outside
that range `repr` writes an exponent and orjson a different text, so such
a grid, and any grid of other types, is written by `repr` itself.

Input rows are read (`parse_rows`) by float(), value by value, which is
the reading contract. orjson reads the text instead, about three times
faster, when its data lines hold only digits, "-", "," and one "." per
value: each value is then a JSON number that float() reads as the same
decimal, and a float to JSON too, since it has a "."; both readers round
that decimal correctly, so they give the same double. Any other text (an
int, an exponent, whitespace, nan, "1.", ".5", a wrong width) is read by
float() itself, which also names the line of any error.
"""

from __future__ import annotations

import hashlib
import os
import struct
from dataclasses import dataclass
from itertools import chain

from . import codec, crypto
from .attestation import CertChain, PlatformIdentity, Quote, quote_generate
from .manifest import (
    FinalManifest,
    Measurement,
    compute_measurement,
    mount_host_path,
    normalize_enclave_path,
    path_under,
)
from .failure import EXIT_INTEGRITY, EXIT_OTHER, Failure
from .pfs import IntegrityError, ProtectedFile

# fixed demo vendor identity; mr_signer is the hash of the vendor key
DEMO_VENDOR_PUBLIC_KEY = hashlib.sha256(b"enclavesim demo vendor key").digest()
MR_SIGNER = crypto.hash_data(DEMO_VENDOR_PUBLIC_KEY)

ISV_SVN = 1  # security version of every enclave this runtime starts

CLASS_TRUSTED = "trusted"
CLASS_PROTECTED = "protected"
CLASS_UNTRUSTED = "untrusted"


class EnclaveAccessError(Exception):
    """Path not visible through any declared mount, or not a valid
    absolute enclave path."""


class StartError(Failure):
    KINDS = {"trusted_file_mismatch": EXIT_INTEGRITY, "missing_mount": EXIT_OTHER}


class RunError(Failure):
    KINDS = {"integrity": EXIT_INTEGRITY, "key_missing": EXIT_OTHER,
             "shape_mismatch": EXIT_OTHER, "io": EXIT_OTHER}


@codec.record(("kind", codec.STR), ("model_path", codec.STR), ("input_path", codec.STR),
              ("output_path", codec.STR), ("key_name", codec.STR))
@dataclass
class WorkloadSpec:
    kind: str
    model_path: str
    input_path: str
    output_path: str
    key_name: str

    def to_json(self) -> bytes:
        return codec.dump(self.RECORD, self)


@dataclass
class LinearModel:
    rows: int
    cols: int
    weights: list[list[float]]
    bias: list[float]

    def pack(self) -> bytes:
        out = struct.pack("<II", self.rows, self.cols)
        for row in self.weights:
            out += struct.pack(f"<{self.cols}d", *row)
        out += struct.pack(f"<{self.rows}d", *self.bias)
        return out

    @classmethod
    def unpack(cls, data: bytes) -> "LinearModel":
        if len(data) < 8:
            raise ValueError("model shorter than its dimension header")
        rows, cols = struct.unpack_from("<II", data, 0)
        if rows == 0:
            raise ValueError("model has no outputs")
        if cols == 0:
            raise ValueError("model has no input columns")
        expect = 8 + 8 * (rows * cols + rows)
        if len(data) != expect:
            raise ValueError(f"model should be {expect} bytes for {rows}x{cols}, "
                             f"got {len(data)}")
        flat = struct.unpack_from(f"<{rows * cols}d", data, 8)
        weights = [list(flat[r * cols:(r + 1) * cols]) for r in range(rows)]
        bias = list(struct.unpack_from(f"<{rows}d", data, 8 + 8 * rows * cols))
        return cls(rows, cols, weights, bias)

    def apply(self, x: list[float]) -> list[float]:
        # fixed accumulation order: ascending j, bias added last
        out = []
        for i in range(self.rows):
            acc = 0.0
            row = self.weights[i]
            for j in range(self.cols):
                acc += row[j] * x[j]
            out.append(acc + self.bias[i])
        return out

    def apply_rows(self, xs: list[list[float]]) -> list[list[float]]:
        """[apply(x) for x in xs] with the rows as one array: every double
        is the same bits, a NaN's payload aside (repr prints any NaN as nan).

        The loop over j is apply's, each step one elementwise multiply and
        one add over all rows and outputs; `@`, dot, einsum and sum are not
        used, since they sum in another order. Overflow gives inf or nan
        silently, as with Python floats. numpy is imported here so that
        importing this module (and so starting a server) does not load it.
        """
        import numpy as np

        with np.errstate(all="ignore"):
            x = np.array(xs, dtype=np.float64).reshape(len(xs), self.cols)
            w = np.array(self.weights, dtype=np.float64).reshape(self.rows, self.cols)
            acc = np.zeros((len(xs), self.rows))
            # an empty result needs no pass, and its cols may be up to 2**32-1
            for j in range(self.cols if acc.size else 0):
                acc += x[:, j, None] * w[:, j]
            return (acc + np.array(self.bias, dtype=np.float64)).tolist()


# every byte of a data line that orjson reads, "." aside
PLAIN_ROW_BYTES = b"0123456789-,"


def parse_rows(text: str, cols: int) -> list[list[float]]:
    """Comma-separated numeric rows; blank lines and '#' comments skipped.
    Each value is read by float() after str.strip(); an error names its
    line, counted as str.splitlines() counts.

    orjson reads the same doubles when all of these hold; otherwise the
    float() loop reads the text, and raises what it raises:
    - at least one line is data, here a line that is not empty and does
      not start with "#";
    - the data lines hold only digits, "-", "," and ".", with as many "."
      as len(data lines) * cols. So no line holds whitespace (and each is
      its own strip, so the loop keeps the same lines), an exponent, "+",
      "_", nan, inf, a bracket or a non-ASCII digit;
    - orjson reads "[[" + the lines joined by "],[" + "]]", one array per
      line, so each value is a JSON number, here -?(0|[1-9][0-9]*)(.[0-9]+)?,
      which float() reads as the same decimal. orjson refuses "01", ".5",
      "1.", "--1", an empty value and an overflow to inf;
    - every row has cols values. A JSON number has at most one ".", so
      with the count above each has exactly one and is a float, never an
      int such as 0 for "-0".
    Both readers round the exact decimal to the nearest double, ties to
    even (Clinger, PLDI 1990; Lemire, SPE 2021), so the doubles are the
    same bits. orjson is imported here so that starting a server does not
    load it.
    """
    lines = text.splitlines()
    data = [line for line in lines if line and line[0] != "#"]
    flat = ",".join(data)
    if data and flat.isascii():
        dots = flat.encode().translate(None, PLAIN_ROW_BYTES)
        if len(dots) == len(data) * cols and not dots.strip(b"."):
            import orjson

            try:
                rows = orjson.loads("[[" + "],[".join(data) + "]]")
            except orjson.JSONDecodeError:
                pass
            else:
                if {*map(len, rows)} == {cols}:
                    return rows
    rows = []
    for lineno, line in enumerate(lines, start=1):
        stripped = line.strip()
        if not stripped or stripped.startswith("#"):
            continue
        try:
            row = list(map(float, map(str.strip, stripped.split(","))))
        except ValueError:
            raise ValueError(f"line {lineno}: not numeric")
        if len(row) != cols:
            raise ValueError(f"line {lineno}: expected {cols} values, got {len(row)}")
        rows.append(row)
    return rows


# every byte of a grid of plain decimals as orjson writes it: no nan or inf
# (null), exponent, bool or string
PLAIN_GRID_BYTES = b"0123456789.-,[]"
# the start of a value of magnitude in [1e-5, 1e-4): orjson writes 0.00001
# where repr writes 1e-05; a smaller one has an exponent in both
TINY_STARTS = (b"[0.0000", b",0.0000", b"-0.0000")


def format_rows(rows: list[list[float]]) -> str:
    """One line per row: its values' repr joined by ",", each line ending
    in a newline. repr is shortest round-trip, so parsing gives back the
    exact doubles.

    The same bytes come from orjson when all of these hold; otherwise from
    the repr join itself:
    - rows is a non-empty list or tuple of lists or tuples, and every value
      is exactly a float or an int (no bool, subclass, enum or numpy scalar;
      orjson writes an enum as its value);
    - orjson takes it, so every int fits in 64 bits;
    - its text has nothing but digits, ".", "-", ",", "[" and "]", so no
      value is nan or inf (null) or written with an exponent (a magnitude
      of 1e16 or more, or below 1e-5);
    - no value starts with 0.0000 after an optional "-", a magnitude in
      [1e-5, 1e-4), which repr writes with an exponent.
    On that path the outer brackets go and each "],[" becomes a newline.
    orjson is imported here so that starting a server does not load it.
    """
    if type(rows) in (list, tuple) and rows and {*map(type, rows)} <= {list, tuple} \
            and {*map(type, chain.from_iterable(rows))} <= {float, int}:
        import orjson

        try:
            data = orjson.dumps(rows)
        except TypeError:  # an int beyond 64 bits
            data = b"null"  # not a plain grid
        if not data.translate(None, PLAIN_GRID_BYTES) and \
                not (b"0.0000" in data and any(start in data for start in TINY_STARTS)):
            return data[2:-2].replace(b"],[", b"\n").decode() + "\n"
    return "".join(",".join(map(repr, row)) + "\n" for row in rows)


@dataclass
class RunReport:
    rows: int
    output_path: str  # enclave path; never plaintext results


class EnclaveInstance:
    """A started enclave: measurement fixed, mounts resolved, trusted
    files pinned. Quotes it generates always carry its own measurement.
    Every enclave path is made canonical before any access decision; the
    canonical path is also the container label and the hash key."""

    def __init__(self, manifest: FinalManifest, measurement: Measurement,
                 host_root, platform: PlatformIdentity | None,
                 cert_chain: CertChain | None):
        self.manifest = manifest
        self.measurement = measurement
        self.host_root = str(host_root)
        self.platform = platform
        self.cert_chain = cert_chain
        self.provisioned_secrets: dict[str, bytes] = {}

    # -- filesystem view ------------------------------------------------

    @staticmethod
    def _canonical(enclave_path: str) -> str:
        try:
            return normalize_enclave_path(enclave_path)
        except ValueError as exc:
            raise EnclaveAccessError(str(exc))

    def resolve(self, enclave_path: str) -> str:
        """Host path for an enclave path; EnclaveAccessError outside mounts."""
        path = self._canonical(enclave_path)
        host = mount_host_path(self.host_root, self.manifest.template.mounts, path)
        if host is None:
            raise EnclaveAccessError(f"path outside all mounts: {path}")
        return host

    def path_class(self, enclave_path: str) -> str:
        path = self._canonical(enclave_path)
        if path in self.manifest.template.trusted_files:
            return CLASS_TRUSTED
        if any(path_under(path, p) for p in self.manifest.template.protected_files):
            return CLASS_PROTECTED
        return CLASS_UNTRUSTED

    def read_file(self, enclave_path: str) -> bytes:
        """Plaintext read of a trusted or untrusted file. Trusted files are
        re-hashed on every open and must match the manifest."""
        path = self._canonical(enclave_path)
        cls = self.path_class(path)
        if cls == CLASS_PROTECTED:
            raise EnclaveAccessError(f"{path} is protected; open it with open_protected")
        with open(self.resolve(path), "rb") as fh:
            content = fh.read()
        if cls == CLASS_TRUSTED and \
                crypto.hash_data(content) != self.manifest.trusted_file_hashes[path]:
            raise StartError("trusted_file_mismatch", path)
        return content

    def open_protected(self, enclave_path: str, key: bytes,
                       create: bool = False) -> ProtectedFile:
        """Protected container at an enclave path, opened to read or, with
        `create`, created empty; the label is the canonical enclave path,
        binding the container to its location in the view."""
        path = self._canonical(enclave_path)
        if self.path_class(path) != CLASS_PROTECTED:
            raise EnclaveAccessError(f"{path} is not marked protected")
        host = self.resolve(path)
        if create:
            return ProtectedFile.create(host, path, key)
        return ProtectedFile.open(host, path, key)

    # -- attestation ----------------------------------------------------

    def quote_provider(self):
        """Quote factory bound to this instance's measurement; mr_enclave is
        always the loaded manifest's measurement (measurement honesty)."""
        if self.platform is None or self.cert_chain is None:
            raise RunError("io", "no platform identity attached")

        def provide(report_data: bytes) -> tuple[Quote, CertChain]:
            quote = quote_generate(self.platform, self.measurement.mr_enclave,
                                   MR_SIGNER, ISV_SVN, report_data)
            return quote, self.cert_chain

        return provide

    # -- workload ---------------------------------------------------------

    def _workload_key(self, spec: WorkloadSpec) -> bytes:
        key = self.provisioned_secrets.get(spec.key_name)
        if key is None:
            raise RunError("key_missing", spec.key_name)
        return key

    def workload_open_inputs(self, spec: WorkloadSpec):
        """Transparent decrypt of model and input under the provisioned key."""
        if spec.kind != "linear_infer":
            raise RunError("io", f"unknown workload kind {spec.kind!r}")
        key = self._workload_key(spec)

        def read_protected(path):
            try:
                with self.open_protected(path, key) as pf:
                    return pf.read(0, pf.size)
            except IntegrityError:  # WrongKeyError included
                raise RunError("integrity", path)
            except OSError as exc:
                raise RunError("io", f"{path} ({exc})")

        model_bytes = read_protected(spec.model_path)
        input_bytes = read_protected(spec.input_path)
        try:
            model = LinearModel.unpack(model_bytes)
        except ValueError as exc:
            raise RunError("shape_mismatch", f"{spec.model_path} ({exc})")
        try:
            rows = parse_rows(input_bytes.decode("utf-8"), model.cols)
        except (UnicodeDecodeError, ValueError) as exc:
            raise RunError("shape_mismatch", f"{spec.input_path} ({exc})")
        return model, rows

    def workload_compute(self, model: LinearModel, rows: list[list[float]]):
        return model.apply_rows(rows)

    def workload_write_output(self, spec: WorkloadSpec, out_rows) -> RunReport:
        key = self._workload_key(spec)
        text = format_rows(out_rows)
        try:
            with self.open_protected(spec.output_path, key, create=True) as pf:
                pf.write(0, text.encode("utf-8"))
        except OSError as exc:
            raise RunError("io", f"{spec.output_path} ({exc})")
        return RunReport(rows=len(out_rows), output_path=spec.output_path)

    def run(self, spec: WorkloadSpec) -> RunReport:
        """The full step: decrypt inputs, compute, write encrypted output.
        Nothing is written unless the inputs verified."""
        model, rows = self.workload_open_inputs(spec)
        out_rows = self.workload_compute(model, rows)
        return self.workload_write_output(spec, out_rows)


def enclave_start(final: FinalManifest, host_root,
                  platform: PlatformIdentity | None = None,
                  cert_chain: CertChain | None = None) -> EnclaveInstance:
    """Compute the measurement, build the mount view, and pin every trusted
    file; any mismatch aborts the start."""
    measurement = compute_measurement(final)
    for m in final.template.mounts:
        host_dir = m.host_dir(host_root)
        if not os.path.isdir(host_dir):
            raise StartError("missing_mount", f"{m.enclave_path} -> {host_dir}")

    instance = EnclaveInstance(final, measurement, host_root, platform, cert_chain)
    for path in final.template.trusted_files:
        try:
            instance.read_file(path)
        except (EnclaveAccessError, OSError):
            raise StartError("trusted_file_mismatch", path)
    return instance


# -- user-side tooling (runs on the data owner's machine) -----------------

def user_encrypt_inputs(items, master_key: bytes, out_dir) -> list[str]:
    """Encrypt (plaintext_path, enclave_path) pairs into protected
    containers under out_dir, labeled with the canonical form of their
    destination enclave paths, as the enclave opens them. Returns the
    written host paths, one per enclave path's basename; ValueError before
    any write for a relative path, one that climbs above '/', or two that
    share a basename."""
    items = [(src, normalize_enclave_path(path)) for src, path in items]
    dests = [os.path.join(str(out_dir), os.path.basename(path)) for _, path in items]
    if len(set(dests)) != len(dests):
        raise ValueError(f"enclave paths share a basename: {[path for _, path in items]}")
    os.makedirs(out_dir, exist_ok=True)
    for (src, enclave_path), dest in zip(items, dests):
        with open(src, "rb") as fh:
            content = fh.read()
        with ProtectedFile.create(dest, enclave_path, master_key) as pf:
            pf.write(0, content)
    return dests


def user_decrypt_output(path, master_key: bytes, label: str) -> bytes:
    """Plaintext of the container at host `path`, written by the enclave at
    enclave path `label`, which is compared in canonical form."""
    with ProtectedFile.open(path, normalize_enclave_path(label), master_key) as pf:
        return pf.read(0, pf.size)
