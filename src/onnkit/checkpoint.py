"""Binary archive format for training state.

An archive is a flat, named collection of entries, written little-endian:

  header   magic "FONNCKPT" (8 bytes), u32 format version (1), u32 count
  entry    u16 name length, UTF-8 name, u8 dtype tag, u64 rank,
           u64 extents (rank of them), raw payload

Dtype tags: 0 = float64 array, 1 = uint64 array, 2 = raw bytes (stored
with rank 1 and the byte count as the extent). Entries are written sorted
by name, so the same state always produces byte-identical files. Names
are namespaced with '/' (param/..., opt/..., rng/..., stats/..., best/...).

Readers take a decoded entry through read_scalar (a counter or a single
value), read_array, read_arrays (the arrays under one prefix), read_text
or read_json, which raise CorruptState naming the entry when it is
missing (unless a default is given) or not of its kind. The same kind
rule, holds, types the fields of every config dataclass when it is built
(check_types).
"""
from __future__ import annotations

import functools
import json
import math
import os
import struct
import types
from typing import Mapping, get_args, get_origin, get_type_hints

import numpy as np

from .errors import BrokenRule, CorruptState, IoError, VersionMismatch

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


_REQUIRED = object()


def _absent(name: str, default):
    if default is _REQUIRED:
        raise CorruptState(f"archive lacks required entry {name!r}")
    return default


def read_scalar(entries: Mapping[str, object], name: str, dtype=np.uint64,
                default=_REQUIRED):
    """The one value of entry `name`, an array of `dtype`: an int for the
    default uint64 (a counter), a float for float64."""
    if name not in entries:
        return _absent(name, default)
    value = entries[name]
    if not (isinstance(value, np.ndarray) and value.dtype == dtype
            and value.size == 1):
        raise CorruptState(f"entry {name!r} must hold one {np.dtype(dtype)} value")
    return value.item()


def read_array(entries: Mapping[str, object], name: str, shape=None,
               default=_REQUIRED) -> np.ndarray:
    """Entry `name` as a float64 array, of `shape` when one is given; an
    extent of None in `shape` takes any length."""
    if name not in entries:
        return _absent(name, default)
    value = entries[name]
    if not (isinstance(value, np.ndarray) and value.dtype == np.float64):
        raise CorruptState(f"entry {name!r} must hold a float64 array")
    if shape is not None and not (len(shape) == value.ndim and all(
            want in (None, got) for want, got in zip(shape, value.shape))):
        raise CorruptState(f"entry {name!r} has shape {value.shape}, "
                           f"expected {tuple(shape)}")
    return value


def read_arrays(entries: Mapping[str, object], prefix: str,
                shapes: Mapping[str, object]) -> dict[str, np.ndarray]:
    """read_array of `prefix`<name> in shapes[name], by name, for exactly
    the names of `shapes`: CorruptState names the first entry not shared."""
    stored = {k[len(prefix):] for k in entries if k.startswith(prefix)}
    for name in [*shapes, *sorted(stored)]:
        if (name in shapes) != (name in stored):
            where = "network" if name in shapes else "archive"
            raise CorruptState(
                f"parameter entry {prefix + name!r} is only in the {where}")
    return {name: read_array(entries, prefix + name, shape)
            for name, shape in shapes.items()}


def read_text(entries: Mapping[str, object], name: str,
              default=_REQUIRED) -> str:
    """Entry `name` decoded as UTF-8 text."""
    if name not in entries:
        return _absent(name, default)
    value = entries[name]
    if not isinstance(value, bytes):
        raise CorruptState(f"entry {name!r} must hold text")
    try:
        return value.decode("utf-8")
    except UnicodeDecodeError as e:
        raise CorruptState(f"entry {name!r} is not UTF-8 text: {e}") from e


# resolving a schema's string annotations is slow, and they never change
type_hints = functools.cache(get_type_hints)


def holds(value, kind) -> bool:
    """Whether a value is a `kind`: a type, X | Y, list[...] or tuple[...]
    (as a tuple or a JSON list). An int is no bool; a float may be an int,
    not NaN."""
    if isinstance(kind, type):
        if isinstance(value, bool) and kind is not bool:
            return False
        if kind is float:  # NaN is the one value unequal to itself
            return isinstance(value, (int, float)) and value == value
        return isinstance(value, kind)
    args = get_args(kind)
    if isinstance(kind, types.UnionType):
        return any(holds(value, k) for k in args)
    if get_origin(kind) is list:
        return isinstance(value, list) and all(holds(v, *args) for v in value)
    return (get_origin(kind) is tuple and isinstance(value, (list, tuple))
            and len(value) == len(args) and all(map(holds, value, args)))


def _shown(kind) -> str:
    return kind.__name__ if isinstance(kind, type) else str(kind)


def check_types(config, section: str) -> None:
    """Raise BrokenRule(section, field, ...) on the first field of a config
    dataclass whose value does not hold its annotated type."""
    for key, kind in type_hints(type(config)).items():
        value = getattr(config, key)
        if not holds(value, kind):
            raise BrokenRule(section, key,
                             f"must be a {_shown(kind)}, got {value!r}")


def read_json(entries: Mapping[str, object], name: str, kind,
              default=_REQUIRED):
    """Entry `name` parsed as JSON text holding a `kind` (see holds)."""
    if name not in entries:
        return _absent(name, default)
    try:
        value = json.loads(read_text(entries, name))
    except json.JSONDecodeError as e:
        raise CorruptState(f"entry {name!r} is not JSON: {e}") from e
    if not holds(value, kind):
        raise CorruptState(f"entry {name!r} must hold a JSON {_shown(kind)}")
    return value


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
