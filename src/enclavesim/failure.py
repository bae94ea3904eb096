"""The pipeline's one failure shape and exit policy: exit 1 when the
platform failed attestation, 2 when protected or trusted bytes failed
their check, 3 for anything else. This module imports nothing, so a
failing command loads no more than it ran."""

EXIT_OK = 0
EXIT_ATTESTATION = 1
EXIT_INTEGRITY = 2
EXIT_OTHER = 3


class Failure(Exception):
    """A failure of one kind, whose message is `kind` or `kind: reason`.
    Each class declares its kinds with their exit codes in KINDS: per
    class, since a hostile peer chooses the kind it puts in an HS_ERROR."""

    KINDS: dict[str, int] = {}

    def __init__(self, kind: str, reason: str | None = None):
        self.kind = kind
        self.reason = reason
        super().__init__(kind if reason is None else f"{kind}: {reason}")


def exit_code(exc: BaseException) -> int:
    """The exit code of every CLI command and demo step that fails with `exc`."""
    return type(exc).KINDS.get(exc.kind, EXIT_OTHER) if isinstance(exc, Failure) else EXIT_OTHER
