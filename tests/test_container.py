"""Binary container round-trip and integrity checks."""

import hashlib
import json
import struct
import tracemalloc

import numpy as np
import pytest

from cellpilot.container import (CHUNK, DIGEST_LEN, PREFIX_LEN, ContainerError,
                                  load_container, save_container)


def test_roundtrip_meta_and_arrays(tmp_path):
    path = tmp_path / "box.bin"
    meta = {"alpha": 0.2, "name": "run-7", "nested": {"k": [1, 2, 3]}}
    arrays = {
        "w": np.arange(12, dtype=np.float64).reshape(3, 4) * np.pi,
        "idx": np.array([5, 1, -3], dtype=np.int64),
        "empty": np.zeros((0, 2)),
        "scalarish": np.array(7.5),
    }
    save_container(path, meta, arrays)
    meta2, arrays2 = load_container(path)
    assert meta2 == meta
    assert set(arrays2) == set(arrays)
    for k in arrays:
        assert arrays2[k].dtype == arrays[k].dtype
        assert arrays2[k].shape == arrays[k].shape
        assert np.array_equal(arrays2[k], arrays[k])


def test_byte_identical_across_dict_order(tmp_path):
    a = {"x": np.ones(3), "y": np.arange(4.0)}
    b = {"y": np.arange(4.0), "x": np.ones(3)}  # same content, other order
    p1, p2 = tmp_path / "a.bin", tmp_path / "b.bin"
    save_container(p1, {"m": 1, "z": 2}, a)
    save_container(p2, {"z": 2, "m": 1}, b)
    assert p1.read_bytes() == p2.read_bytes()


def test_checksum_detects_corruption(tmp_path):
    path = tmp_path / "c.bin"
    save_container(path, {"v": 1}, {"a": np.arange(10.0)})
    blob = bytearray(path.read_bytes())
    blob[len(blob) // 2] ^= 0xFF
    path.write_bytes(bytes(blob))
    with pytest.raises(ContainerError):
        load_container(path)


def test_bad_magic_rejected(tmp_path):
    path = tmp_path / "junk.bin"
    path.write_bytes(b"NOTMINE0" + b"\x00" * 64)
    with pytest.raises(ContainerError):
        load_container(path)


def test_truncated_file_rejected(tmp_path):
    path = tmp_path / "t.bin"
    save_container(path, {"v": 1}, {"a": np.arange(100.0)})
    blob = path.read_bytes()
    path.write_bytes(blob[: len(blob) - 40])
    with pytest.raises(ContainerError):
        load_container(path)


def test_repeated_save_is_deterministic(tmp_path):
    rng = np.random.default_rng(3)
    arrays = {f"k{i}": rng.normal(size=(i + 1, 3)) for i in range(5)}
    meta = {"seed": 3, "tags": ["x", "y"]}
    p1, p2 = tmp_path / "r1.bin", tmp_path / "r2.bin"
    save_container(p1, meta, arrays)
    save_container(p2, meta, arrays)
    assert p1.read_bytes() == p2.read_bytes()


def test_failed_write_keeps_old_file_and_leaves_no_temp(tmp_path, monkeypatch,
                                                        failing_write):
    path = tmp_path / "keep.bin"
    save_container(path, {"v": 1}, {"a": np.arange(50.0)})
    old = path.read_bytes()
    failing_write()
    with pytest.raises(OSError):
        save_container(path, {"v": 2}, {"a": np.arange(500.0)})
    with pytest.raises(OSError):
        save_container(tmp_path / "new.bin", {"v": 3}, {"a": np.ones(9)})
    monkeypatch.undo()
    assert path.read_bytes() == old
    assert sorted(p.name for p in tmp_path.iterdir()) == ["keep.bin"]
    assert load_container(path)[0] == {"v": 1}


def golden_arrays():
    base = np.arange(24, dtype=np.float64).reshape(4, 6) / 7.0
    return {
        "f2d": np.arange(12, dtype=np.float64).reshape(3, 4) * np.pi,
        "i64": np.array([5, -1, 2**40, -3], dtype=np.int64),
        "empty": np.zeros((0, 3)),
        "zero_d": np.array(-2.5),
        "big_endian": np.arange(5, dtype=">f8") / 3.0,
        "fortran": np.asfortranarray(base),
        "strided": base[::2, 1::2],
    }


def test_file_bytes_match_the_golden_digest(tmp_path):
    # digest of the bytes the format has always produced for these arrays
    path = tmp_path / "g.bin"
    arrays = golden_arrays()
    save_container(path, {"kind": "golden", "n": 7, "nested": {"k": [1, 2.5, "x"]}},
                   arrays)
    blob = path.read_bytes()
    assert len(blob) == 1022
    assert hashlib.sha256(blob).hexdigest() == (
        "fd018b7641c10310b7727111169010051a1b9f5c45205da01a8141a2d4efae48")
    _, back = load_container(path)
    for k, arr in arrays.items():
        assert back[k].dtype == arr.dtype.newbyteorder("<")
        assert back[k].shape == arr.shape
        assert np.array_equal(back[k], arr)
        assert back[k].flags.c_contiguous and back[k].flags.writeable


def traced_peak(fn):
    tracemalloc.start()
    try:
        tracemalloc.reset_peak()
        fn()
        return tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()


def test_save_does_not_copy_the_payload(tmp_path):
    big = np.random.default_rng(0).normal(size=1 << 20)          # 8 MB
    peak = traced_peak(lambda: save_container(tmp_path / "big.bin", {"v": 1},
                                              {"big": big, "small": np.ones(3)}))
    assert peak < 0.1 * big.nbytes, peak


def test_load_reads_the_file_once(tmp_path):
    path = tmp_path / "big.bin"
    big = np.random.default_rng(1).normal(size=1 << 20)
    save_container(path, {"v": 1}, {"big": big, "small": np.arange(7)})
    out = {}
    peak = traced_peak(lambda: out.update(load_container(path)[1]))
    assert peak < 1.1 * path.stat().st_size, peak
    assert np.array_equal(out["big"], big)


def corrupt_copies(tmp_path):
    """A small container's bytes and a writer of altered copies beside it."""
    path = tmp_path / "ok.bin"
    save_container(path, {"v": 1, "tag": "x"},
                   {"a": np.arange(40.0), "b": np.arange(6).reshape(2, 3)})
    blob = path.read_bytes()
    bad = tmp_path / "bad.bin"

    def write(data):
        bad.write_bytes(bytes(data))
        return bad
    return blob, write


def flipped(blob, i, mask=0xFF):
    out = bytearray(blob)
    out[i] ^= mask
    return out


def test_every_flipped_header_or_digest_byte_is_refused(tmp_path):
    blob, write = corrupt_copies(tmp_path)
    (header_len,) = struct.unpack_from("<Q", blob, PREFIX_LEN - 8)
    # the header length, the JSON header itself and the stored digest; a
    # low-bit flip mostly leaves a header that parses (a digit or a letter
    # changed), a high-bit flip one that is not UTF-8
    spots = [*range(PREFIX_LEN - 8, PREFIX_LEN + header_len),
             *range(len(blob) - DIGEST_LEN, len(blob))]
    for i in spots:
        for mask in (0x01, 0xFF):
            with pytest.raises(ContainerError, match="checksum mismatch, file corrupt"):
                load_container(write(flipped(blob, i, mask)))


def test_flipped_payload_bytes_are_refused(tmp_path):
    blob, write = corrupt_copies(tmp_path)
    (header_len,) = struct.unpack_from("<Q", blob, PREFIX_LEN - 8)
    start = PREFIX_LEN + header_len
    for i in (start, start + 7, start + 320, len(blob) - DIGEST_LEN - 1):
        with pytest.raises(ContainerError, match="checksum mismatch, file corrupt"):
            load_container(write(flipped(blob, i)))


def test_flipped_magic_and_version_keep_their_messages(tmp_path):
    blob, write = corrupt_copies(tmp_path)
    with pytest.raises(ContainerError, match="bad magic"):
        load_container(write(flipped(blob, 3)))
    with pytest.raises(ContainerError, match="container version"):
        load_container(write(flipped(blob, 8)))


def test_truncation_at_any_offset_is_refused(tmp_path):
    blob, write = corrupt_copies(tmp_path)
    for keep in (0, 7, PREFIX_LEN, PREFIX_LEN + DIGEST_LEN - 1, PREFIX_LEN + 40,
                 len(blob) // 2, len(blob) - 100, len(blob) - DIGEST_LEN,
                 len(blob) - 1):
        message = ("truncated container" if keep < PREFIX_LEN + DIGEST_LEN
                   else "checksum mismatch, file corrupt")
        with pytest.raises(ContainerError, match=message):
            load_container(write(blob[:keep]))


def rewritten(blob, edit):
    """`blob` with its JSON header changed by `edit` and a valid digest."""
    (header_len,) = struct.unpack_from("<Q", blob, PREFIX_LEN - 8)
    doc = json.loads(blob[PREFIX_LEN:PREFIX_LEN + header_len])
    edit(doc)
    header = json.dumps(doc, sort_keys=True, separators=(",", ":")).encode()
    body = (blob[:PREFIX_LEN - 8] + struct.pack("<Q", len(header)) + header
            + blob[PREFIX_LEN + header_len:-DIGEST_LEN])
    return body + hashlib.sha256(body).digest()


def grow_first_array(doc):
    ent = doc["arrays"][0]
    ent["shape"] = [1 << 40]
    ent["nbytes"] = 8 << 40


def object_dtype(doc):
    doc["arrays"][0]["dtype"] = "|O"


@pytest.mark.parametrize("edit", [grow_first_array, object_dtype])
@pytest.mark.parametrize("digest", ["valid", "stale"])
def test_header_is_checked_before_any_array_is_allocated(tmp_path, edit, digest):
    # an 8 TB claim in a 500-byte file, and an object dtype; with the digest
    # recomputed the header is malformed, without it the file is corrupt
    blob, write = corrupt_copies(tmp_path)
    data = rewritten(blob, edit)
    if digest == "stale":
        data = data[:-DIGEST_LEN] + blob[-DIGEST_LEN:]
    path = write(data)
    message = "malformed header" if digest == "valid" else "checksum mismatch"

    def load():
        with pytest.raises(ContainerError, match=message):
            load_container(path)
    assert traced_peak(load) < CHUNK + 64 * 1024
