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


def write_atomic(path, *chunks) -> None:
    """Write the `chunks` (bytes-like, in order) to a temporary file beside
    `path`, then rename it over `path`, so readers and concurrent writers see
    the old file or the whole new one, never a torn write. If a write raises,
    the temporary file is removed and `path` is left as it was. This covers a
    process dying mid-write, not an OS crash: there is no fsync."""
    path = os.fspath(path)
    head, name = os.path.split(path)
    tmp = os.path.join(head, f".{name}.{os.getpid()}.{os.urandom(4).hex()}.tmp")
    fd = os.open(tmp, os.O_WRONLY | os.O_CREAT | os.O_EXCL, 0o666)
    try:
        try:
            for chunk in chunks:
                view = memoryview(chunk)
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
    name so byte output is independent of caller dict ordering. Each array's
    bytes are hashed and written straight from its own buffer; only a
    big-endian or non-contiguous array is copied.
    """
    entries = []
    buffers = []
    offset = 0
    for name in sorted(arrays):
        # shape from asarray: ascontiguousarray would turn a 0-d array into 1-d
        arr = np.asarray(arrays[name])
        dtype = arr.dtype
        if dtype.byteorder == ">":
            dtype = dtype.newbyteorder("<")
        entries.append(
            {
                "name": name,
                "dtype": dtype.str,
                "shape": list(arr.shape),
                "offset": offset,
                "nbytes": arr.nbytes,
            }
        )
        offset += arr.nbytes
        buffers.append(np.ascontiguousarray(arr, dtype=dtype).reshape(-1).view(np.uint8))
    header = json.dumps(
        {"meta": meta, "arrays": entries}, sort_keys=True, separators=(",", ":")
    ).encode("utf-8")
    chunks = [MAGIC, struct.pack("<IQ", FORMAT_VERSION, len(header)), header, *buffers]
    digest = hashlib.sha256()
    for chunk in chunks:
        digest.update(chunk)
    write_atomic(path, *chunks, digest.digest())


def load_container(path) -> tuple[dict, dict]:
    """Read a container; returns (meta, {name: ndarray}).

    The file is read once; each array is copied out of that one buffer.
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
    body = memoryview(blob)[:-32]
    if hashlib.sha256(body).digest() != blob[-32:]:
        raise ContainerError(f"{path}: checksum mismatch, file corrupt")
    (header_len,) = struct.unpack_from("<Q", blob, len(MAGIC) + 4)
    header_start = len(MAGIC) + 12
    header = json.loads(blob[header_start : header_start + header_len])
    payload_start = header_start + header_len
    arrays = {}
    for ent in header["arrays"]:
        dtype = np.dtype(ent["dtype"])
        arrays[ent["name"]] = np.frombuffer(
            body, dtype, ent["nbytes"] // dtype.itemsize, payload_start + ent["offset"]
        ).reshape(ent["shape"]).copy()
    return header["meta"], arrays
