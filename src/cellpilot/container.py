"""Deterministic binary container for checkpoints and cached trajectories.

Layout: 8-byte magic, u32 format version, u64 header length, UTF-8 JSON
header (sorted keys), raw little-endian array payload, SHA-256 over all
preceding bytes. No timestamps anywhere, so identical content always
produces identical bytes. Files are replaced atomically (:func:`write_atomic`).
"""

from __future__ import annotations

import hashlib
import json
import os
import struct

import numpy as np

MAGIC = b"CLPTBIN\x00"
FORMAT_VERSION = 1


class ContainerError(Exception):
    """Corrupt, truncated, or version-incompatible container file."""


def write_atomic(path, data: bytes) -> None:
    """Write `data` to a temporary file beside `path`, then rename it over
    `path`, so readers and concurrent writers see the old file or the whole
    new one, never a torn write. If the write raises, the temporary file is
    removed and `path` is left as it was. This covers a process dying
    mid-write, not an OS crash: there is no fsync."""
    path = os.fspath(path)
    head, name = os.path.split(path)
    tmp = os.path.join(head, f".{name}.{os.getpid()}.{os.urandom(4).hex()}.tmp")
    fd = os.open(tmp, os.O_WRONLY | os.O_CREAT | os.O_EXCL, 0o666)
    try:
        try:
            view = memoryview(data)
            while view:
                view = view[os.write(fd, view):]
        finally:
            os.close(fd)
        os.replace(tmp, path)
    except BaseException:
        os.unlink(tmp)
        raise


def save_container(path, meta: dict, arrays: dict) -> None:
    """Write `meta` (JSON-serializable) and named float/int arrays to `path`.

    Array insertion order is not significant: entries are stored sorted by
    name so byte output is independent of caller dict ordering.
    """
    entries = []
    payload = bytearray()
    for name in sorted(arrays):
        # asarray (not ascontiguousarray) so 0-d shapes survive the round trip
        arr = np.asarray(arrays[name])
        if arr.dtype.byteorder == ">":
            arr = arr.astype(arr.dtype.newbyteorder("<"))
        entries.append(
            {
                "name": name,
                "dtype": arr.dtype.str,
                "shape": list(arr.shape),
                "offset": len(payload),
                "nbytes": arr.nbytes,
            }
        )
        payload.extend(arr.tobytes())
    header = json.dumps(
        {"meta": meta, "arrays": entries}, sort_keys=True, separators=(",", ":")
    ).encode("utf-8")
    blob = bytearray()
    blob.extend(MAGIC)
    blob.extend(struct.pack("<I", FORMAT_VERSION))
    blob.extend(struct.pack("<Q", len(header)))
    blob.extend(header)
    blob.extend(payload)
    blob.extend(hashlib.sha256(bytes(blob)).digest())
    write_atomic(path, blob)


def load_container(path) -> tuple[dict, dict]:
    """Read a container; returns (meta, {name: ndarray}).

    Raises ContainerError on bad magic, version mismatch, or checksum
    failure.
    """
    with open(path, "rb") as fh:
        blob = fh.read()
    if len(blob) < len(MAGIC) + 12 + 32:
        raise ContainerError(f"{path}: truncated container")
    if blob[: len(MAGIC)] != MAGIC:
        raise ContainerError(f"{path}: bad magic, not a cellpilot container")
    (version,) = struct.unpack_from("<I", blob, len(MAGIC))
    if version != FORMAT_VERSION:
        raise ContainerError(
            f"{path}: container version {version}, expected {FORMAT_VERSION}"
        )
    body, digest = blob[:-32], blob[-32:]
    if hashlib.sha256(body).digest() != digest:
        raise ContainerError(f"{path}: checksum mismatch, file corrupt")
    (header_len,) = struct.unpack_from("<Q", blob, len(MAGIC) + 4)
    header_start = len(MAGIC) + 12
    header = json.loads(blob[header_start : header_start + header_len])
    payload = body[header_start + header_len :]
    arrays = {}
    for ent in header["arrays"]:
        raw = payload[ent["offset"] : ent["offset"] + ent["nbytes"]]
        arrays[ent["name"]] = np.frombuffer(raw, dtype=np.dtype(ent["dtype"])).reshape(
            ent["shape"]
        ).copy()
    return header["meta"], arrays
