"""Binary archive format for training state.

An archive is a flat, named collection of entries, written little-endian:

  header   magic "FONNCKPT" (8 bytes), u32 format version (1), u32 count
  entry    u16 name length, UTF-8 name, u8 dtype tag, u64 rank,
           u64 extents (rank of them), raw payload

Dtype tags: 0 = float64 array, 1 = uint64 array, 2 = raw bytes (stored
with rank 1 and the byte count as the extent). Entries are written sorted
by name, so the same state always produces byte-identical files. Names
are namespaced with '/' (param/..., opt/..., rng/..., stats/..., best/...).
"""
from __future__ import annotations

import math
import os
import struct
from typing import Mapping

import numpy as np

from .errors import CorruptState, IoError, VersionMismatch

MAGIC = b"FONNCKPT"
FORMAT_VERSION = 1

_TAG_F64 = 0
_TAG_U64 = 1
_TAG_RAW = 2


def _encode_entry(name: str, value) -> bytes:
    name_b = name.encode("utf-8")
    if len(name_b) > 0xFFFF:
        raise CorruptState(f"entry name too long: {len(name_b)} bytes")
    if isinstance(value, bytes):
        tag, shape, payload = _TAG_RAW, (len(value),), value
    else:
        arr = np.asarray(value)
        if arr.dtype == np.uint64:
            tag = _TAG_U64
        else:
            arr = np.asarray(arr, dtype=np.float64)
            tag = _TAG_F64
        if not arr.flags.c_contiguous:
            # ascontiguousarray promotes 0-d arrays to 1-d; 0-d arrays are
            # always contiguous so this branch keeps scalar rank intact
            arr = np.ascontiguousarray(arr)
        shape, payload = arr.shape, arr.tobytes()
    head = struct.pack("<H", len(name_b)) + name_b + struct.pack("<B", tag)
    head += struct.pack("<Q", len(shape))
    for extent in shape:
        head += struct.pack("<Q", extent)
    return head + payload


def encode(entries: Mapping[str, object]) -> bytes:
    """Serialize a name -> value mapping. Values are float64 arrays,
    uint64 arrays, or raw bytes."""
    names = sorted(entries)
    out = [MAGIC, struct.pack("<II", FORMAT_VERSION, len(names))]
    for name in names:
        out.append(_encode_entry(name, entries[name]))
    return b"".join(out)


class _Reader:
    def __init__(self, blob: bytes):
        self.blob = blob
        self.pos = 0

    def take(self, count: int) -> bytes:
        if self.pos + count > len(self.blob):
            raise CorruptState("archive truncated")
        chunk = self.blob[self.pos:self.pos + count]
        self.pos += count
        return chunk

    def u16(self) -> int:
        return struct.unpack("<H", self.take(2))[0]

    def u32(self) -> int:
        return struct.unpack("<I", self.take(4))[0]

    def u64(self) -> int:
        return struct.unpack("<Q", self.take(8))[0]

    def u8(self) -> int:
        return self.take(1)[0]


def decode(blob: bytes) -> dict[str, object]:
    """Parse an archive back into a name -> value mapping."""
    r = _Reader(blob)
    if r.take(len(MAGIC)) != MAGIC:
        raise CorruptState("bad magic: not a state archive")
    version = r.u32()
    if version != FORMAT_VERSION:
        raise VersionMismatch(
            f"archive format version {version}, supported version {FORMAT_VERSION}"
        )
    count = r.u32()
    entries: dict[str, object] = {}
    for _ in range(count):
        name_len = r.u16()
        try:
            name = r.take(name_len).decode("utf-8")
        except UnicodeDecodeError as e:
            raise CorruptState(f"entry name is not valid UTF-8: {e}") from e
        if name in entries:
            raise CorruptState(f"duplicate entry name {name!r}")
        tag = r.u8()
        rank = r.u64()
        if rank > 32:
            raise CorruptState(f"entry {name!r} has implausible rank {rank}")
        shape = tuple(r.u64() for _ in range(rank))
        if tag not in (_TAG_F64, _TAG_U64, _TAG_RAW):
            raise CorruptState(f"entry {name!r} has unknown dtype tag {tag}")
        if tag == _TAG_RAW and rank != 1:
            raise CorruptState(f"raw entry {name!r} must have rank 1, has {rank}")
        needed = math.prod(shape) * (1 if tag == _TAG_RAW else 8)
        left = len(blob) - r.pos
        if needed > left:
            raise CorruptState(f"entry {name!r} truncated: payload needs "
                               f"{needed} bytes, {left} left")
        for extent in shape:
            if extent > len(blob):
                raise CorruptState(f"entry {name!r} has implausible extent {extent}")
        payload = r.take(needed)
        if tag == _TAG_RAW:
            entries[name] = payload
        else:
            dtype = np.float64 if tag == _TAG_F64 else np.uint64
            entries[name] = np.frombuffer(payload, dtype="<f8" if tag == _TAG_F64
                                          else "<u8").astype(dtype).reshape(shape)
    if r.pos != len(blob):
        raise CorruptState(f"{len(blob) - r.pos} trailing bytes after last entry")
    return entries


def write_atomic(path, data: bytes) -> None:
    """Replace the file at path with data in one step.

    The bytes go to a temporary file beside path, which is then renamed
    over it, so readers see the old file or the new one, never a torn
    one, even if the process dies mid-write. (There is no fsync: a power
    loss may still lose the new file.)
    """
    tmp = f"{os.fspath(path)}.{os.getpid()}.tmp"
    try:
        with open(tmp, "wb") as fh:
            fh.write(data)
        os.replace(tmp, path)
    except BaseException:
        if os.path.exists(tmp):
            os.unlink(tmp)
        raise


def save(path, entries: Mapping[str, object]) -> None:
    """Write an archive atomically; see write_atomic."""
    blob = encode(entries)
    try:
        write_atomic(path, blob)
    except OSError as e:
        raise IoError(f"cannot write archive {path}: {e}") from e


def load(path) -> dict[str, object]:
    try:
        with open(path, "rb") as fh:
            blob = fh.read()
    except OSError as e:
        raise IoError(f"cannot read archive {path}: {e}") from e
    return decode(blob)
