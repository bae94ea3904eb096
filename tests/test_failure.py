"""The failure vocabulary: every kind that README, WIRE.md or the source
names is one that its class declares, with the exit code README gives it."""

import ast
import re
from pathlib import Path

import pytest

import enclavesim
from enclavesim import channel, enclave, pcs_service, pfs, provisioning  # noqa: F401
from enclavesim.failure import EXIT_ATTESTATION, EXIT_INTEGRITY, EXIT_OTHER, Failure, exit_code

ROOT = Path(__file__).resolve().parent.parent
SRC = Path(enclavesim.__file__).parent


def _subclasses(cls):
    for sub in cls.__subclasses__():
        yield sub
        yield from _subclasses(sub)


# every failure class of the program, by name
FAILURES = {cls.__name__: cls for cls in _subclasses(Failure)
            if cls.__module__.startswith("enclavesim.")}


def declared(code: int) -> set:
    """(class, kind) for each kind that a class's own table gives `code`."""
    return {(name, kind) for name, cls in FAILURES.items()
            for kind, c in vars(cls).get("KINDS", {}).items() if c == code}


def readme_row(code: int) -> set:
    """(class, kind) pairs of README's exit-code row `code`, each written
    as `Class`: `kind`, `kind`."""
    text = (ROOT / "README.md").read_text(encoding="utf-8")
    row = re.search(rf"^\| \*\*{code}\*\* \|[^|]*\|(.*)\|$", text, re.M).group(1)
    return {(cls, kind)
            for cls, kinds in re.findall(r"`(?:\w+\.)?(\w+)`: ((?:`\w+`(?:, )?)+)", row)
            for kind in re.findall(r"`(\w+)`", kinds)}


def wire_alternatives(pattern: str) -> set:
    """The quoted alternatives `"a" | "b" | ...` that follow `pattern` in WIRE.md."""
    text = (ROOT / "WIRE.md").read_text(encoding="utf-8")
    match = re.search(pattern + r'((?:"\w+"(?: \| )?)+)', text)
    assert match, pattern
    return set(re.findall(r'"(\w+)"', match.group(1)))


HS_ERROR_KINDS = wire_alternatives(r'HS_ERROR \{"kind": ')
DENIAL_REASONS = wire_alternatives(r'\{"outcome": "denied", "reason": ')
PCS_ERROR_REASONS = wire_alternatives(r'`PCS_ERROR`: `\{"reason": ')


def test_the_failure_module_imports_nothing():
    tree = ast.parse((SRC / "failure.py").read_text(encoding="utf-8"))
    assert [n for n in ast.walk(tree) if isinstance(n, (ast.Import, ast.ImportFrom))] == []


def test_every_pipeline_failure_class_declares_its_kinds():
    assert sorted(FAILURES) == ["ChannelError", "HandshakeError", "IntegrityError",
                                "PcsClientError", "ProvisionDeniedError", "RunError",
                                "StartError", "WrongKeyError"]
    for name, cls in FAILURES.items():
        assert cls.KINDS and set(cls.KINDS.values()) <= {
            EXIT_ATTESTATION, EXIT_INTEGRITY, EXIT_OTHER}, name


@pytest.mark.parametrize("code", [EXIT_ATTESTATION, EXIT_INTEGRITY])
def test_readme_exit_code_rows_are_the_declared_kinds(code):
    assert readme_row(code) == declared(code)


@pytest.mark.parametrize("code", [EXIT_ATTESTATION, EXIT_INTEGRITY])
def test_each_declared_kind_exits_with_its_code(code):
    for name, kind in declared(code):
        cls = FAILURES[name]
        exc = cls(kind) if cls.__init__ is Failure.__init__ else cls("a reason")
        assert (exc.kind, exit_code(exc)) == (kind, code)


def test_wire_md_hs_error_kinds_are_declared_and_the_only_ones_accepted():
    assert HS_ERROR_KINDS == {"io", "attestation_failed", "binding_mismatch"}
    assert HS_ERROR_KINDS == set(channel.HS_ERROR_KINDS)
    assert HS_ERROR_KINDS <= set(channel.HandshakeError.KINDS)


def test_wire_md_pcs_error_reasons_are_declared():
    assert PCS_ERROR_REASONS == {"unknown_platform", "bad_request", "bad_type"}
    assert set(pcs_service.PcsClientError.KINDS) == PCS_ERROR_REASONS | {"bad_response"}


def _calls(tree):
    """(class name, first argument) of each call of a failure class whose
    first argument is a string literal."""
    for node in ast.walk(tree):
        if isinstance(node, ast.Call) and node.args \
                and isinstance(node.args[0], ast.Constant) \
                and isinstance(node.args[0].value, str):
            func = node.func
            name = func.attr if isinstance(func, ast.Attribute) else getattr(func, "id", None)
            if name in FAILURES:
                yield name, node.args[0].value


def _denials(tree):
    """The literal reasons of each `{"outcome": "denied", "reason": ...}`."""
    for node in ast.walk(tree):
        if isinstance(node, ast.Dict):
            pairs = {k.value: v.value for k, v in zip(node.keys, node.values)
                     if isinstance(k, ast.Constant) and isinstance(v, ast.Constant)}
            if pairs.get("outcome") == "denied":
                yield pairs["reason"]


def test_every_literal_kind_raised_in_src_is_in_its_class_table():
    checked, denials = set(), set()
    for path in sorted(SRC.rglob("*.py")):
        tree = ast.parse(path.read_text(encoding="utf-8"))
        denials.update(_denials(tree))
        for name, first in _calls(tree):
            cls = FAILURES[name]
            if name == "ProvisionDeniedError":  # its first argument is the reason
                denials.add(first)
            elif cls.__init__ is Failure.__init__:
                assert first in cls.KINDS, f"{path.name}: {name}({first!r})"
                checked.add(name)
    # IntegrityError's first argument is its message, and its kind is fixed
    assert checked == {"ChannelError", "HandshakeError", "PcsClientError", "RunError",
                       "StartError"}
    # the key server's denials and the client's own, as WIRE.md names them
    assert denials == DENIAL_REASONS | {"bad_response"}
