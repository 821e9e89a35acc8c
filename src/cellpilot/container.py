"""Deterministic binary container for checkpoints and cached trajectories.

Layout: 8-byte magic, u32 format version, u64 header length, UTF-8 JSON
header (sorted keys), raw little-endian array payload, SHA-256 over all
preceding bytes. No timestamps anywhere, so identical content always
produces identical bytes. Files are replaced atomically (:func:`write_atomic`).
"""

from __future__ import annotations

import hashlib
import json
import math
import os
import struct

import numpy as np

MAGIC = b"CLPTBIN\x00"
FORMAT_VERSION = 1
PREFIX_LEN = len(MAGIC) + 12   # magic, u32 version, u64 header length
DIGEST_LEN = 32
CHUNK = 1 << 20                # bytes read at a time where a whole file is streamed


class ContainerError(Exception):
    """Corrupt, truncated, or version-incompatible container file."""


def write_atomic(path, chunks) -> None:
    """Write the `chunks` (an iterable of bytes-like objects, taken one at a
    time and in order) to a temporary file beside `path`, then rename it
    over `path`, so readers and concurrent writers see the old file or the
    whole new one, never a torn write. If a write raises,
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
    write_atomic(path, [*chunks, digest.digest()])


def _layout(header: bytes, payload_len: int) -> tuple[dict, list] | None:
    """The meta of `header` and the (name, shape, dtype) of each array it
    lists, in file order, or None unless every dtype is plain numeric, every
    name is new and the arrays, in order, fill the `payload_len` bytes
    exactly (so their sizes are bounded by the file's before any is
    allocated)."""
    try:
        doc = json.loads(header)
        entries = []
        offset = 0
        for ent in doc["arrays"]:
            dtype = np.dtype(ent["dtype"])
            shape = tuple(ent["shape"])
            if (dtype.kind not in "biufc" or dtype.byteorder == ">"
                    or not all(type(d) is int and d >= 0 for d in shape)
                    or ent["offset"] != offset
                    or ent["nbytes"] != math.prod(shape) * dtype.itemsize):
                return None
            entries.append((ent["name"], shape, dtype))
            offset += ent["nbytes"]
        if offset != payload_len or len({e[0] for e in entries}) != len(entries):
            return None
        return doc["meta"], entries
    except (ValueError, TypeError, KeyError):
        return None


def _hash_through(fh, digest, nbytes: int, buf: memoryview) -> int:
    """Feed the next `nbytes` of `fh` to `digest` through `buf`; returns the
    count read, fewer than `nbytes` only at the end of the file."""
    done = 0
    while done < nbytes and (got := fh.readinto(buf[: min(len(buf), nbytes - done)])):
        digest.update(buf[:got])
        done += got
    return done


def load_container(path, names=None) -> tuple[dict, dict]:
    """Read a container; returns (meta, {name: ndarray}), with only the
    arrays listed in `names` when it is given.

    Each returned array is read straight from the file into its own buffer
    and hashed as it is read; every other array is hashed through one
    CHUNK-byte buffer and never allocated. Nothing is returned unless the
    SHA-256 over the whole file matches. Before any array is allocated the
    header must parse, name only plain numeric dtypes and give sizes that
    fill the file exactly. Raises ContainerError on a truncated file, bad
    magic, version mismatch or checksum failure, and on a refused header:
    as a checksum failure unless the digest, then taken over the rest of
    the file in chunks, matches.
    """
    with open(path, "rb") as fh:
        size = os.fstat(fh.fileno()).st_size
        if size < PREFIX_LEN + DIGEST_LEN:
            raise ContainerError(f"{path}: truncated container")
        prefix = fh.read(PREFIX_LEN)
        if prefix[: len(MAGIC)] != MAGIC:
            raise ContainerError(f"{path}: bad magic, not a cellpilot container")
        version, header_len = struct.unpack_from("<IQ", prefix, len(MAGIC))
        if version != FORMAT_VERSION:
            raise ContainerError(
                f"{path}: container version {version}, expected {FORMAT_VERSION}"
            )
        digest = hashlib.sha256(prefix)
        payload_len = size - PREFIX_LEN - DIGEST_LEN - header_len
        parsed = None
        if payload_len >= 0:
            header = fh.read(header_len)
            digest.update(header)
            parsed = _layout(header, payload_len)
        buf = None
        if parsed is None:
            buf = memoryview(bytearray(CHUNK))
            _hash_through(fh, digest, size - DIGEST_LEN - fh.tell(), buf)
        else:
            meta, entries = parsed
            arrays = {}
            for name, shape, dtype in entries:
                nbytes = math.prod(shape) * dtype.itemsize
                if names is None or name in names:
                    arr = arrays[name] = np.empty(shape, dtype)
                    raw = arr.reshape(-1).view(np.uint8)
                    got = fh.readinto(raw)
                    digest.update(raw)
                else:
                    if buf is None:
                        buf = memoryview(bytearray(CHUNK))
                    got = _hash_through(fh, digest, nbytes, buf)
                if got != nbytes:
                    raise ContainerError(f"{path}: truncated container")
        if digest.digest() != fh.read(DIGEST_LEN):
            raise ContainerError(f"{path}: checksum mismatch, file corrupt")
    if parsed is None:
        raise ContainerError(f"{path}: malformed header")
    return meta, arrays
