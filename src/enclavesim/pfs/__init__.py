"""Authenticated encrypted file container: 4KB blocks under a Merkle tree,
one random key per flush with a nonce per node number, each node's key
held in its parent node, integrity-protected filename, LRU cache of
verified MHT nodes."""

from .cache import DEFAULT_CAPACITY, BlockCache
from .file import (
    ProtectedFile,
    ReadOnlyError,
    VerifyReport,
    info,
    read_uuid,
    verify_file,
)
from .format import BLOCK_SIZE, IntegrityError, PfsError, WrongKeyError

__all__ = [
    "BLOCK_SIZE",
    "BlockCache",
    "DEFAULT_CAPACITY",
    "IntegrityError",
    "PfsError",
    "ProtectedFile",
    "ReadOnlyError",
    "VerifyReport",
    "WrongKeyError",
    "info",
    "read_uuid",
    "verify_file",
]
