"""Image files, signal scaling, synthetic tasks, fold partitioning."""
import numpy as np
import pytest

from onnkit.dataio import (
    box_blur3,
    load_image_folder,
    make_synthetic_task,
    partition,
    pixels_to_signal,
    read_pgm,
)
from onnkit.errors import (
    IoError,
    MissingPair,
    SizeMismatch,
    TooFewSamples,
    UnsupportedFormat,
)

from oracles import conv2d_same_loop


def write_pgm(path, pixels):
    """A binary greyscale (P5) file of a uint8 [M, N] array."""
    path.write_bytes(f"P5\n{pixels.shape[1]} {pixels.shape[0]}\n255\n".encode()
                     + pixels.astype(np.uint8).tobytes())


def test_pgm_round_trip(tmp_path):
    rng = np.random.default_rng(1)
    pixels = rng.integers(0, 256, size=(5, 7), dtype=np.uint8)
    path = tmp_path / "img.pgm"
    write_pgm(path, pixels)
    assert np.array_equal(read_pgm(path), pixels)


def test_pgm_reader_tolerates_comments_and_whitespace(tmp_path):
    path = tmp_path / "c.pgm"
    path.write_bytes(b"P5 # binary graymap\n# another comment\n 2 # w\n2\n255\n"
                     + bytes([0, 64, 128, 255]))
    assert read_pgm(path).tolist() == [[0, 64], [128, 255]]


def test_pgm_reader_rejects_other_formats(tmp_path):
    ascii_pgm = tmp_path / "a.pgm"
    ascii_pgm.write_bytes(b"P2\n2 2\n255\n0 1 2 3\n")
    with pytest.raises(UnsupportedFormat):
        read_pgm(ascii_pgm)

    wide = tmp_path / "w.pgm"
    wide.write_bytes(b"P5\n2 2\n65535\n" + bytes(8))
    with pytest.raises(UnsupportedFormat):
        read_pgm(wide)

    short = tmp_path / "s.pgm"
    short.write_bytes(b"P5\n2 2\n255\n" + bytes(3))
    with pytest.raises(UnsupportedFormat):
        read_pgm(short)


def test_missing_file_is_io_error(tmp_path):
    with pytest.raises(IoError):
        read_pgm(tmp_path / "absent.pgm")


def test_signal_scaling_endpoints():
    sig = pixels_to_signal(np.array([0, 255, 51], dtype=np.uint8))
    assert sig[0] == -1.0 and sig[1] == 1.0
    assert sig[2] == pytest.approx(2 * 51 / 255 - 1)


def write_pair(folder, name, size=4, seed=0):
    rng = np.random.default_rng(seed)
    for suffix in ("in", "out"):
        write_pgm(folder / f"{name}_{suffix}.pgm",
                  rng.integers(0, 256, size=size, dtype=np.uint8)
                  if isinstance(size, tuple)
                  else rng.integers(0, 256, size=(size, size), dtype=np.uint8))


def test_load_image_folder_pairs_by_name(tmp_path):
    write_pair(tmp_path, "b", seed=1)
    write_pair(tmp_path, "a", seed=2)
    (tmp_path / "notes.txt").write_text("ignored")
    ds = load_image_folder(tmp_path, (4, 4))
    assert ds.names == ["a", "b"]
    x, y = ds.pairs[0]
    assert x.shape == (1, 4, 4) and y.shape == (1, 4, 4)
    assert np.all(x.data >= -1.0) and np.all(x.data <= 1.0)


def test_unmatched_images_are_reported(tmp_path):
    write_pair(tmp_path, "a")
    write_pgm(tmp_path / "b_in.pgm", np.zeros((4, 4), dtype=np.uint8))
    with pytest.raises(MissingPair):
        load_image_folder(tmp_path, (4, 4))
    (tmp_path / "b_in.pgm").unlink()
    write_pgm(tmp_path / "c_out.pgm", np.zeros((4, 4), dtype=np.uint8))
    with pytest.raises(MissingPair):
        load_image_folder(tmp_path, (4, 4))


def test_folder_without_any_pairs_is_reported(tmp_path):
    with pytest.raises(MissingPair, match="_in.pgm"):
        load_image_folder(tmp_path, (4, 4))
    (tmp_path / "odd_name.pgm").write_bytes(b"P5\n2 2\n255\n" + bytes(4))
    with pytest.raises(MissingPair, match="_in.pgm"):
        load_image_folder(tmp_path, (4, 4))


def test_wrong_image_size_is_reported(tmp_path):
    write_pair(tmp_path, "a", size=(4, 5))
    with pytest.raises(SizeMismatch):
        load_image_folder(tmp_path, (4, 4))


def test_box_blur_matches_convolution_oracle():
    rng = np.random.default_rng(3)
    img = rng.uniform(-1, 1, size=(6, 6))
    want = conv2d_same_loop(img, np.full((3, 3), 1.0 / 9.0))
    assert np.allclose(box_blur3(img), want, atol=1e-15)


def test_synthetic_identity_task():
    ds = make_synthetic_task("identity", count=5, size=8, seed=4)
    assert len(ds) == 5
    for x, y in ds.pairs:
        assert x.shape == (1, 8, 8)
        assert np.array_equal(x.data, y.data)
        assert np.max(np.abs(x.data)) <= 1.0


def test_synthetic_blur_inverse_task():
    ds = make_synthetic_task("blur-inverse", count=3, size=8, seed=4)
    for x, y in ds.pairs:
        assert np.allclose(x.data[0], box_blur3(y.data[0]), atol=1e-12)


def test_synthetic_nonlinear_map_task():
    ds = make_synthetic_task("nonlinear-map", count=3, size=8, seed=4)
    for x, y in ds.pairs:
        assert np.allclose(y.data, np.tanh(2.0 * x.data), atol=1e-12)


def test_synthetic_task_is_seed_deterministic():
    a = make_synthetic_task("identity", count=3, size=6, seed=9)
    b = make_synthetic_task("identity", count=3, size=6, seed=9)
    c = make_synthetic_task("identity", count=3, size=6, seed=10)
    for (xa, _), (xb, _) in zip(a.pairs, b.pairs):
        assert np.array_equal(xa.data, xb.data)
    assert not np.array_equal(a.pairs[0][0].data, c.pairs[0][0].data)


def test_unknown_synthetic_kind():
    with pytest.raises(ValueError):
        make_synthetic_task("mystery", count=1, size=4, seed=0)


def test_partition_test_sets_are_disjoint_and_exhaustive():
    ds = make_synthetic_task("identity", count=10, size=4, seed=0)
    splits = partition(ds, folds=3, seed=5)
    assert [s.fold for s in splits] == [0, 1, 2]
    test_names = [n for s in splits for n in s.test.names]
    assert sorted(test_names) == sorted(ds.names)
    assert len(set(test_names)) == len(ds)
    for s in splits:
        in_fold = s.train.names + s.val.names + s.test.names
        assert sorted(in_fold) == sorted(ds.names)
        assert not (set(s.train.names) & set(s.test.names))


def test_partition_val_fraction():
    ds = make_synthetic_task("identity", count=10, size=4, seed=0)
    splits = partition(ds, folds=2, val_fraction=0.4, seed=1)
    for s in splits:
        assert len(s.test) == 5
        assert len(s.val) == 2
        assert len(s.train) == 3


def test_single_fold_has_empty_test_set():
    ds = make_synthetic_task("identity", count=4, size=4, seed=0)
    (split,) = partition(ds, folds=1, seed=0)
    assert len(split.test) == 0
    assert len(split.train) == 4


def test_partition_is_seed_deterministic():
    ds = make_synthetic_task("identity", count=8, size=4, seed=0)
    a = partition(ds, folds=2, seed=3)
    b = partition(ds, folds=2, seed=3)
    assert [s.test.names for s in a] == [s.test.names for s in b]


def test_too_few_samples_for_folds():
    ds = make_synthetic_task("identity", count=2, size=4, seed=0)
    with pytest.raises(TooFewSamples):
        partition(ds, folds=3)
    with pytest.raises(TooFewSamples):
        partition(ds, folds=0)
