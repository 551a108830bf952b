"""State archive codec: wire layout, determinism, corruption handling."""
import ast
import os
import struct
from pathlib import Path

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st
from hypothesis.extra import numpy as hnp

import onnkit.checkpoint as ckpt_mod
from onnkit.checkpoint import FORMAT_VERSION, MAGIC, decode, encode, load, save
from onnkit.errors import CorruptState, IoError, VersionMismatch


def sample_entries():
    return {
        "param/0/0/weights": np.arange(12.0).reshape(3, 4),
        "param/0/0/bias": np.float64(0.25),
        "opt/step": np.uint64(7),
        "trainer/run": np.array([2, 5], dtype=np.uint64),
        "config/text": b"[network]\nsize = 1\n",
        "stats/empty": np.zeros((0,)),
    }


def test_round_trip_preserves_values_and_types():
    got = decode(encode(sample_entries()))
    assert set(got) == set(sample_entries())
    w = got["param/0/0/weights"]
    assert w.dtype == np.float64 and w.shape == (3, 4)
    assert np.array_equal(w, np.arange(12.0).reshape(3, 4))
    assert got["param/0/0/bias"].shape == ()
    assert got["opt/step"].dtype == np.uint64 and int(got["opt/step"]) == 7
    assert got["trainer/run"].tolist() == [2, 5]
    assert got["config/text"] == b"[network]\nsize = 1\n"
    assert got["stats/empty"].shape == (0,)


def test_encoding_is_independent_of_insertion_order():
    entries = sample_entries()
    reversed_order = dict(reversed(list(entries.items())))
    assert encode(entries) == encode(reversed_order)
    assert encode(decode(encode(entries))) == encode(entries)


def test_header_layout_is_frozen():
    blob = encode({"a": np.float64(1.0)})
    assert blob[:8] == b"FONNCKPT"
    version, count = struct.unpack_from("<II", blob, 8)
    assert version == FORMAT_VERSION == 1
    assert count == 1


def test_hand_built_blob_decodes():
    # one float64 scalar entry "x" = 1.5, assembled byte by byte
    blob = (MAGIC + struct.pack("<II", 1, 1)
            + struct.pack("<H", 1) + b"x"
            + struct.pack("<B", 0) + struct.pack("<Q", 0)
            + struct.pack("<d", 1.5))
    got = decode(blob)
    assert list(got) == ["x"]
    assert got["x"].shape == () and float(got["x"]) == 1.5


def test_hand_built_u64_vector_decodes():
    blob = (MAGIC + struct.pack("<II", 1, 1)
            + struct.pack("<H", 3) + b"cnt"
            + struct.pack("<B", 1) + struct.pack("<Q", 1)
            + struct.pack("<Q", 2) + struct.pack("<QQ", 3, 9))
    got = decode(blob)
    assert got["cnt"].dtype == np.uint64 and got["cnt"].tolist() == [3, 9]


def test_bad_magic_is_rejected():
    blob = bytearray(encode({"a": np.float64(1.0)}))
    blob[0] ^= 0xFF
    with pytest.raises(CorruptState):
        decode(bytes(blob))


def test_unsupported_version_is_rejected():
    blob = bytearray(encode({"a": np.float64(1.0)}))
    struct.pack_into("<I", blob, 8, 2)
    with pytest.raises(VersionMismatch):
        decode(bytes(blob))


def test_truncated_archive_is_rejected():
    blob = encode(sample_entries())
    for cut in (10, len(blob) // 2, len(blob) - 1):
        with pytest.raises(CorruptState):
            decode(blob[:cut])


@pytest.mark.parametrize("cut", [200, 2000])
def test_truncated_payload_is_reported_as_truncation(cut):
    blob = encode({"a/raw": bytes(4000)})
    with pytest.raises(CorruptState, match=r"'a/raw' truncated: payload needs "
                                           rf"4000 bytes, {cut - 40} left"):
        decode(blob[:cut])


def test_empty_entry_with_huge_extent_is_implausible():
    # zero items, so nothing is truncated; the extent guard still holds
    blob = (MAGIC + struct.pack("<II", 1, 1)
            + struct.pack("<H", 1) + b"a"
            + struct.pack("<B", 0) + struct.pack("<QQQ", 2, 0, 1 << 40))
    with pytest.raises(CorruptState, match="implausible extent"):
        decode(blob)


def _entry_values():
    f64 = hnp.arrays(np.float64, hnp.array_shapes(min_dims=0, max_dims=3,
                                                   min_side=0, max_side=4))
    u64 = hnp.arrays(np.uint64, hnp.array_shapes(min_dims=1, max_dims=2,
                                                  min_side=0, max_side=4))
    return st.one_of(f64, u64, st.binary(max_size=300))


archives = st.dictionaries(st.text("abc/", min_size=1, max_size=6),
                           _entry_values(), max_size=4).map(encode)


@settings(max_examples=60, deadline=None)
@given(archives)
@example(encode({"a/raw": bytes(300), "b": np.zeros((2, 3))}))
def test_every_proper_prefix_is_reported_truncated(blob):
    for cut in range(len(blob)):
        with pytest.raises(CorruptState, match="truncated"):
            decode(blob[:cut])


@settings(max_examples=300, deadline=None)
@given(archives, st.data())
def test_a_flipped_byte_decodes_or_raises_a_named_error(blob, data):
    pos = data.draw(st.integers(0, len(blob) - 1))
    flip = data.draw(st.integers(1, 255))
    bad = bytearray(blob)
    bad[pos] ^= flip
    try:
        decode(bytes(bad))
    except (CorruptState, VersionMismatch):
        pass


def test_trailing_garbage_is_rejected():
    blob = encode({"a": np.float64(1.0)})
    with pytest.raises(CorruptState):
        decode(blob + b"\x00")


def test_duplicate_names_are_rejected():
    one = encode({"a": np.float64(1.0)})
    entry = one[16:]
    dup = MAGIC + struct.pack("<II", 1, 2) + entry + entry
    with pytest.raises(CorruptState):
        decode(dup)


def test_unknown_tag_is_rejected():
    blob = (MAGIC + struct.pack("<II", 1, 1)
            + struct.pack("<H", 1) + b"a"
            + struct.pack("<B", 9) + struct.pack("<Q", 0))
    with pytest.raises(CorruptState):
        decode(blob)


def test_implausible_rank_is_rejected():
    blob = (MAGIC + struct.pack("<II", 1, 1)
            + struct.pack("<H", 1) + b"a"
            + struct.pack("<B", 0) + struct.pack("<Q", 33))
    with pytest.raises(CorruptState):
        decode(blob)


def test_save_and_load_files(tmp_path):
    path = tmp_path / "state.ckpt"
    entries = sample_entries()
    save(str(path), entries)
    got = load(str(path))
    assert np.array_equal(got["param/0/0/weights"],
                          entries["param/0/0/weights"])
    assert path.read_bytes() == encode(entries)


def test_io_failures_are_wrapped(tmp_path):
    with pytest.raises(IoError):
        load(str(tmp_path / "absent.ckpt"))
    with pytest.raises(IoError):
        save(str(tmp_path / "no" / "such" / "dir.ckpt"), {"a": np.float64(0)})


def test_failed_encode_leaves_existing_archive_untouched(tmp_path):
    path = tmp_path / "state.ckpt"
    save(path, sample_entries())
    before = path.read_bytes()
    with pytest.raises(CorruptState, match="name too long"):
        save(path, {"x" * 0x10000: np.float64(1.0)})
    assert path.read_bytes() == before
    assert sorted(p.name for p in tmp_path.iterdir()) == ["state.ckpt"]


def test_failed_replace_leaves_existing_archive_untouched(tmp_path,
                                                         monkeypatch):
    path = tmp_path / "state.ckpt"
    save(path, sample_entries())
    before = path.read_bytes()

    def refuse(src, dst):
        raise PermissionError("replace refused")

    monkeypatch.setattr(os, "replace", refuse)
    with pytest.raises(IoError, match="replace refused"):
        save(path, {"a": np.float64(2.0)})
    assert path.read_bytes() == before
    assert sorted(p.name for p in tmp_path.iterdir()) == ["state.ckpt"]


def _reads_an_entry(node) -> bool:
    """`entries[...]` read, or `entries.get`, `.items` or `.values`."""
    if isinstance(node, ast.Subscript):
        target, reading = node.value, isinstance(node.ctx, ast.Load)
    elif isinstance(node, ast.Attribute):
        target, reading = node.value, node.attr in ("get", "items", "values")
    else:
        return False
    return reading and isinstance(target, ast.Name) and target.id == "entries"


def test_only_the_checkpoint_module_reads_decoded_entries():
    # every other module reads an entry's value through a checkpoint
    # reader, which names the entry when it is missing or of another kind;
    # writes, key iteration and `in` tests stay allowed
    package = Path(ckpt_mod.__file__).parent
    reads = [f"{path.name}:{node.lineno}"
             for path in sorted(package.glob("*.py"))
             if path.name != "checkpoint.py"
             for node in ast.walk(ast.parse(path.read_text()))
             if _reads_an_entry(node)]
    assert reads == []
