"""Encodings that `json.loads` detects and accepts on bytes but that
RFC 8259 section 8.1 rules out between systems: a valid payload in any of
them must get its reader's "malformed" outcome."""

# test id -> Python codec
FOREIGN_ENCODINGS = {"utf16": "utf-16", "utf32": "utf-32", "utf8-bom": "utf-8-sig"}
