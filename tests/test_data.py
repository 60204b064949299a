import numpy as np
import pytest

from lightcnn import data
from lightcnn.data import (
    Dataset, save_container, load_container, import_directory, synth, split,
    default_names,
)
from lightcnn.tensor import Rng


def _u8_dataset(rng, n=3, h=6, w=5, num_classes=4):
    # pixels on the u8 grid so container round-trips are bit-exact
    raw = (rng.uniform_array(n * h * w) * 255).astype(np.int64)
    images = (raw / 255.0).reshape(n, 1, h, w)
    labels = np.array([i % num_classes for i in range(n)])
    return Dataset(images, labels, num_classes, default_names(num_classes))


def _write_pgm(path, plane_u8, maxval=255, comment=False):
    header = b"P5\n"
    if comment:
        header += b"# synthetic fixture\n"
    h, w = plane_u8.shape
    header += f"{w} {h}\n{maxval}\n".encode()
    path.write_bytes(header + plane_u8.astype(np.uint8).tobytes())


class TestDatasetInvariants:
    def test_length_mismatch(self):
        with pytest.raises(ValueError):
            Dataset(np.zeros((3, 1, 4, 4)), np.zeros(2, np.int64), 2,
                    default_names(2))

    def test_label_out_of_range(self):
        with pytest.raises(ValueError):
            Dataset(np.zeros((2, 1, 4, 4)), np.array([0, 5]), 2, default_names(2))

    def test_pixels_out_of_range(self):
        with pytest.raises(ValueError):
            Dataset(np.full((1, 1, 2, 2), 1.5), np.array([0]), 1, default_names(1))

    def test_name_count(self):
        with pytest.raises(ValueError):
            Dataset(np.zeros((1, 1, 2, 2)), np.array([0]), 2, ["only-one"])


class TestContainer:
    def test_round_trip(self, tmp_path, rng):
        ds = _u8_dataset(rng)
        p = tmp_path / "set.cds"
        save_container(ds, p)
        back = load_container(p)
        np.testing.assert_array_equal(back.images, ds.images)
        np.testing.assert_array_equal(back.labels, ds.labels)
        assert back.num_classes == ds.num_classes

    def test_file_size_accounting(self, tmp_path, rng):
        ds = _u8_dataset(rng, n=7, h=9, w=4)
        p = tmp_path / "set.cds"
        save_container(ds, p)
        assert p.stat().st_size == 20 + 7 * (1 + 9 * 4)

    def test_bad_magic(self, tmp_path, rng):
        p = tmp_path / "set.cds"
        save_container(_u8_dataset(rng), p)
        blob = bytearray(p.read_bytes())
        blob[:4] = b"XDS1"
        p.write_bytes(bytes(blob))
        with pytest.raises(ValueError, match="magic"):
            load_container(p)

    def test_truncation(self, tmp_path, rng):
        ds = _u8_dataset(rng, n=5, h=6, w=5)
        p = tmp_path / "set.cds"
        save_container(ds, p)
        blob = p.read_bytes()
        p.write_bytes(blob[: 20 + 4 * (1 + 30)])  # header says 5, keep 4
        with pytest.raises(ValueError, match="truncat"):
            load_container(p)

    @pytest.mark.parametrize("h, w", [(0, 5), (5, 0)])
    def test_empty_image_plane(self, tmp_path, h, w):
        p = tmp_path / "set.cds"
        p.write_bytes(data._HEADER.pack(data.MAGIC, 2, h, w, 2) + bytes([0, 1]))
        with pytest.raises(ValueError) as exc:
            load_container(p)
        assert str(exc.value) == f"{p}: empty image plane {h}x{w}; need h, w >= 1"

    def test_zero_classes(self, tmp_path):
        p = tmp_path / "set.cds"
        p.write_bytes(data._HEADER.pack(data.MAGIC, 0, 5, 5, 0))
        with pytest.raises(ValueError) as exc:
            load_container(p)
        assert str(exc.value) == f"{p}: header has 0 classes; need at least 1"

    def test_label_out_of_range(self, tmp_path, rng):
        ds = _u8_dataset(rng, n=2, num_classes=4)
        p = tmp_path / "set.cds"
        save_container(ds, p)
        blob = bytearray(p.read_bytes())
        blob[20] = 9  # first record's label byte
        p.write_bytes(bytes(blob))
        with pytest.raises(ValueError, match="label"):
            load_container(p)

    def test_round_trip_lossless_at_u8(self, tmp_path):
        # arbitrary floats survive one save/load/save/load cycle exactly
        rng = Rng(77)
        images = rng.uniform_array(2 * 1 * 4 * 4).reshape(2, 1, 4, 4)
        ds = Dataset(images, np.array([0, 1]), 2, default_names(2))
        a = tmp_path / "a.cds"
        b = tmp_path / "b.cds"
        save_container(ds, a)
        once = load_container(a)
        save_container(once, b)
        twice = load_container(b)
        np.testing.assert_array_equal(once.images, twice.images)


class TestPgmImport:
    def test_two_dirs_lexicographic(self, tmp_path, rng):
        for name, value in (("b", 10), ("a", 200)):
            d = tmp_path / name
            d.mkdir()
            _write_pgm(d / "img0.pgm", np.full((28, 28), value))
        ds = import_directory(tmp_path)
        assert ds.class_names == ["a", "b"]
        assert ds.labels.tolist() == [0, 1]
        np.testing.assert_allclose(ds.images[0], 200 / 255.0)

    def test_all_255_maps_to_one(self, tmp_path):
        d = tmp_path / "x"
        d.mkdir()
        _write_pgm(d / "full.pgm", np.full((28, 28), 255))
        ds = import_directory(tmp_path)
        np.testing.assert_array_equal(ds.images, 1.0)

    def test_comment_header_parsed(self, tmp_path):
        d = tmp_path / "x"
        d.mkdir()
        _write_pgm(d / "c.pgm", np.zeros((28, 28)), comment=True)
        assert len(import_directory(tmp_path)) == 1

    def test_resize_to_target(self, tmp_path):
        d = tmp_path / "x"
        d.mkdir()
        _write_pgm(d / "big.pgm", np.full((56, 40), 128))
        ds = import_directory(tmp_path, dims=(28, 28))
        assert ds.images.shape == (1, 1, 28, 28)
        np.testing.assert_allclose(ds.images, 128 / 255.0, atol=1e-12)

    def test_order_stable(self, tmp_path, rng):
        d = tmp_path / "x"
        d.mkdir()
        for name in ("zz.pgm", "aa.pgm", "mm.pgm"):
            plane = (rng.uniform_array(28 * 28) * 255).astype(np.uint8)
            _write_pgm(d / name, plane.reshape(28, 28))
        first = import_directory(tmp_path)
        second = import_directory(tmp_path)
        np.testing.assert_array_equal(first.images, second.images)

    def test_non_pgm_rejected_with_path(self, tmp_path):
        d = tmp_path / "x"
        d.mkdir()
        bad = d / "notes.txt"
        bad.write_bytes(b"hello")
        with pytest.raises(ValueError, match="notes.txt"):
            import_directory(tmp_path)

    def test_empty_class_dir_rejected(self, tmp_path):
        (tmp_path / "empty").mkdir()
        with pytest.raises(ValueError, match="empty"):
            import_directory(tmp_path)

    def test_no_subdirs_rejected(self, tmp_path):
        with pytest.raises(ValueError):
            import_directory(tmp_path)

    def test_comment_right_after_a_number(self, tmp_path):
        # netpbm lets a comment start anywhere whitespace may
        d = tmp_path / "x"
        d.mkdir()
        (d / "c.pgm").write_bytes(b"P5 4#c\n 4\n255\n" + bytes(range(16)))
        ds = import_directory(tmp_path, dims=(4, 4))
        np.testing.assert_array_equal(ds.images[0, 0].ravel(), np.arange(16) / 255.0)

    @pytest.mark.parametrize("header", [
        b"P5\n0 4\n255\n",         # zero width
        b"P5\n-4 4\n255\n",        # signed width
        b"P5\n4 4\n255",            # ends at maxval
    ])
    def test_bad_header_rejected_with_path(self, tmp_path, header):
        d = tmp_path / "x"
        d.mkdir()
        (d / "bad.pgm").write_bytes(header)
        with pytest.raises(ValueError, match="bad.pgm"):
            import_directory(tmp_path)

    def test_16bit_rejected(self, tmp_path):
        d = tmp_path / "x"
        d.mkdir()
        _write_pgm(d / "deep.pgm", np.zeros((4, 4)), maxval=65535)
        with pytest.raises(ValueError, match="8-bit"):
            import_directory(tmp_path)


class TestSynth:
    def test_counts(self):
        ds = synth(10, 200, dims=28, seed=3)
        assert len(ds) == 2000
        counts = np.bincount(ds.labels)
        assert counts.tolist() == [200] * 10

    def test_deterministic(self):
        a = synth(4, 5, dims=16, seed=11)
        b = synth(4, 5, dims=16, seed=11)
        np.testing.assert_array_equal(a.images, b.images)
        np.testing.assert_array_equal(a.labels, b.labels)

    def test_seed_changes_data(self):
        a = synth(4, 5, dims=16, seed=11)
        b = synth(4, 5, dims=16, seed=12)
        assert not np.array_equal(a.images, b.images)

    def test_range_and_dims(self):
        ds = synth(3, 10, dims=20, seed=0)
        assert ds.images.shape == (30, 1, 20, 20)
        assert ds.images.min() >= 0.0 and ds.images.max() <= 1.0

    def test_classes_statistically_distinct(self):
        # mean image per class should differ clearly between classes
        ds = synth(4, 30, dims=28, seed=5)
        means = [ds.images[ds.labels == c].mean(axis=0) for c in range(4)]
        for a in range(4):
            for b in range(a + 1, 4):
                assert np.abs(means[a] - means[b]).mean() > 0.02

    def test_samples_within_class_distinct(self):
        ds = synth(2, 5, dims=16, seed=1)
        first = ds.images[ds.labels == 0]
        assert not np.array_equal(first[0], first[1])

    def test_min_classes(self):
        with pytest.raises(ValueError):
            synth(1, 10)


class TestSplit:
    def test_balanced_half(self):
        ds = synth(10, 200, dims=16, seed=2)
        tr, ev = split(ds, 0.5, seed=9)
        assert np.bincount(tr.labels, minlength=10).tolist() == [100] * 10
        assert np.bincount(ev.labels, minlength=10).tolist() == [100] * 10

    def test_deterministic(self):
        ds = synth(5, 40, dims=16, seed=2)
        a_tr, a_ev = split(ds, 0.7, seed=4)
        b_tr, b_ev = split(ds, 0.7, seed=4)
        np.testing.assert_array_equal(a_tr.images, b_tr.images)
        np.testing.assert_array_equal(a_ev.labels, b_ev.labels)

    def test_union_and_disjointness_100_random(self):
        # set-algebra oracle: tag every sample with a unique pixel value
        rng = Rng(65)
        for trial in range(100):
            k = rng.below(4) + 2
            per = rng.below(8) + 2
            n = k * per
            images = np.zeros((n, 1, 2, 2))
            images[:, 0, 0, 0] = np.arange(n) / n  # unique id channel
            labels = np.repeat(np.arange(k), per)
            ds = Dataset(images, labels, k, default_names(k))
            frac = 0.2 + 0.6 * rng.uniform()
            tr, ev = split(ds, frac, seed=trial)
            ids_tr = set(np.round(tr.images[:, 0, 0, 0] * n).astype(int).tolist())
            ids_ev = set(np.round(ev.images[:, 0, 0, 0] * n).astype(int).tolist())
            assert ids_tr | ids_ev == set(range(n))
            assert ids_tr & ids_ev == set()

    def test_ratio_within_one_sample(self):
        ds = synth(3, 31, dims=8, seed=6)
        tr, ev = split(ds, 0.6, seed=1)
        for c in range(3):
            got = (tr.labels == c).sum()
            assert abs(got - 0.6 * 31) <= 1.0

    def test_small_class_rejected(self):
        ds = Dataset(np.zeros((3, 1, 2, 2)), np.array([0, 0, 1]), 2,
                     default_names(2))
        with pytest.raises(ValueError):
            split(ds, 0.5, seed=0)

    def test_bad_fraction(self):
        ds = synth(2, 4, dims=8, seed=0)
        for frac in (0.0, 1.0, -0.2):
            with pytest.raises(ValueError):
                split(ds, frac, seed=0)


class TestDescribe:
    def test_mentions_counts(self):
        ds = synth(3, 4, dims=8, seed=0)
        text = data.describe(ds)
        assert "12 images" in text
        assert "class2: 4" in text
