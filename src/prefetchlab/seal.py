"""The sealed frame of every binary artifact (``model.ckpt``, ``dataset_*.bin``):
magic bytes, a little-endian header whose first field is the format version, the
body, then the 32-byte SHA-256 of everything before it. :func:`unseal` checks a
file in one order (magic, header length, digest, version), so a damaged file fails
the same check in every loader. Each error is a ``ValueError`` that starts with the
file's source and names the check; the caller checks its own fields and body length.
"""

import hashlib
import struct


def seal(magic: bytes, header: str, fields, body) -> bytes:
    """The file bytes; ``header`` is a ``struct`` format, and ``fields`` starts with the version."""
    head = magic + struct.pack(header, *fields)
    digest = hashlib.sha256(head)
    digest.update(body)
    return b"".join((head, body, digest.digest()))


def unseal(raw: bytes, magic: bytes, version: int, header: str, source, what: str):
    """The header fields after the version, and the body as a memoryview of ``raw``."""
    view = memoryview(raw)
    start = len(magic) + struct.calcsize(header)
    if view[:len(magic)] != magic:
        raise ValueError(f"{source}: not a {what} file")
    if len(view) < start + 32:
        raise ValueError(f"{source}: truncated {what}")
    if hashlib.sha256(view[:-32]).digest() != view[-32:]:
        raise ValueError(f"{source}: {what} checksum mismatch")
    found, *fields = struct.unpack_from(header, view, len(magic))
    if found != version:
        raise ValueError(f"{source}: unsupported {what} version {found}")
    return fields, view[start:-32]
