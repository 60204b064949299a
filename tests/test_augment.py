import numpy as np
import pytest

from lightcnn import augment
from lightcnn.augment import (
    AugmentOp, apply, mixup, build_pipeline, augment_image, sample_stream,
    warp_affine, OP_ORDER,
    HFLIP, VFLIP, ROTATION, GAUSSIAN_BLUR, SHIFT_SCALE_ROTATE,
    RANDOM_CROP, BRIGHTNESS_CONTRAST, CUTOUT,
)
from lightcnn.tensor import Rng


def _image(rng, h=28, w=28):
    return rng.uniform_array(h * w).reshape(1, 1, h, w)


class TestOpConstruction:
    def test_unknown_kind(self):
        with pytest.raises(ValueError):
            AugmentOp("sharpen")

    def test_bad_probability(self):
        with pytest.raises(ValueError):
            AugmentOp(HFLIP, probability=1.5)


class TestFlips:
    def test_hflip_twice_is_identity(self, rng):
        op = AugmentOp(HFLIP, probability=1.0)
        x = _image(rng)
        once = apply(op, x, Rng(1))
        twice = apply(op, once, Rng(2))
        np.testing.assert_array_equal(twice, x)

    def test_vflip_twice_is_identity(self, rng):
        op = AugmentOp(VFLIP, probability=1.0)
        x = _image(rng)
        np.testing.assert_array_equal(apply(op, apply(op, x, Rng(1)), Rng(2)), x)

    def test_hflip_reverses_columns(self):
        x = np.arange(4, dtype=np.float64).reshape(1, 1, 1, 4) / 4.0
        y = apply(AugmentOp(HFLIP), x, Rng(0))
        np.testing.assert_array_equal(y.ravel(), x.ravel()[::-1])

    def test_probability_zero_is_identity(self, rng):
        x = _image(rng)
        y = apply(AugmentOp(HFLIP, probability=0.0), x, Rng(3))
        np.testing.assert_array_equal(y, x)
        assert y is not x


class TestWarp:
    def test_zero_angle_exact_identity(self, rng):
        x = _image(rng)
        np.testing.assert_array_equal(warp_affine(x, angle=0.0), x)

    def test_rotation_360_exact_identity(self, rng):
        x = _image(rng)
        np.testing.assert_allclose(warp_affine(x, angle=360.0), x, atol=1e-12)

    def test_rotation_90_matches_rot90(self, rng):
        # a square image rotated 90 degrees hits the integer grid exactly
        x = _image(rng, 9, 9)
        got = warp_affine(x, angle=90.0)
        want = np.rot90(x[0, 0])[None, None]
        np.testing.assert_allclose(got, want, atol=1e-12)

    def test_small_rotation_back_and_forth(self, rng):
        # rotating +10 then -10 degrees lands close to the original interior
        x = _image(rng)
        x = np.cumsum(x, axis=3) / 28.0  # smooth signal interpolates well
        y = warp_affine(warp_affine(x, angle=10.0), angle=-10.0)
        inner = (slice(None), slice(None), slice(8, 20), slice(8, 20))
        assert np.abs(y[inner] - x[inner]).mean() < 0.02

    def test_scale_rejects_nonpositive(self, rng):
        with pytest.raises(ValueError):
            warp_affine(_image(rng), scale=0.0)


class TestCutout:
    def test_exact_pixel_count_5x5(self):
        # an all-ones 28x28 image: the op must zero exactly 25 pixels
        x = np.ones((1, 1, 28, 28))
        y = apply(AugmentOp(CUTOUT), x, Rng(7))
        changed = (y != x).sum()
        assert changed == 25
        assert (y == 0.0).sum() == 25

    def test_patch_is_contiguous_square(self):
        x = np.ones((1, 1, 28, 28))
        y = apply(AugmentOp(CUTOUT), x, Rng(11))
        rows = np.where((y[0, 0] == 0).any(axis=1))[0]
        cols = np.where((y[0, 0] == 0).any(axis=0))[0]
        assert len(rows) == 5 and rows[-1] - rows[0] == 4
        assert len(cols) == 5 and cols[-1] - cols[0] == 4

    def test_patch_always_inside(self):
        assert augment.CUTOUT_SIZE == 5
        x = np.ones((1, 1, 10, 10))
        op = AugmentOp(CUTOUT)
        for seed in range(200):
            y = apply(op, x, Rng(seed))
            assert (y == 0.0).sum() == 25  # never clipped by the border

    def test_oversize_rejected(self):
        with pytest.raises(ValueError):
            apply(AugmentOp(CUTOUT), np.ones((1, 1, 4, 28)), Rng(0))


class TestCropAndPhoto:
    def test_crop_restores_dims(self, rng):
        op = AugmentOp(RANDOM_CROP)
        y = apply(op, _image(rng), Rng(5))
        assert y.shape == (1, 1, 28, 28)

    def test_crop_full_size_identity(self, rng):
        assert augment.CROP_SIZE == 24
        x = _image(rng, 24, 24)
        y = apply(AugmentOp(RANDOM_CROP), x, Rng(5))
        np.testing.assert_allclose(y, x, atol=1e-12)

    def test_crop_oversize_rejected(self, rng):
        with pytest.raises(ValueError):
            apply(AugmentOp(RANDOM_CROP), _image(rng, 28, 23), Rng(0))

    @staticmethod
    def _brightness_contrast(seed):
        """Replay apply's draws for this stream: gate, brightness, contrast."""
        rng = Rng(seed)
        rng.uniform()
        b = rng.uniform(-augment.MAX_BRIGHTNESS, augment.MAX_BRIGHTNESS)
        c = rng.uniform(-augment.MAX_CONTRAST, augment.MAX_CONTRAST)
        return b, c

    def test_brightness_shifts_mean(self):
        # contrast scales about 0.5, so a flat 0.5 image moves by b alone
        x = np.full((1, 1, 8, 8), 0.5)
        op = AugmentOp(BRIGHTNESS_CONTRAST)
        means = []
        for s in range(50):
            b, _ = self._brightness_contrast(s)
            y = apply(op, x, Rng(s))
            np.testing.assert_array_equal(y, 0.5 + b)
            means.append(y[0, 0].mean())
        assert min(means) < 0.45 and max(means) > 0.55

    def test_contrast_preserves_midpoint(self, rng):
        x = _image(rng, 8, 8)
        op = AugmentOp(BRIGHTNESS_CONTRAST)
        for s in range(20):
            b, c = self._brightness_contrast(s)
            want = np.clip((x - 0.5) * (1.0 + c) + 0.5 + b, 0.0, 1.0)
            np.testing.assert_array_equal(apply(op, x, Rng(s)), want)

    def test_blur_preserves_constant(self):
        x = np.full((1, 1, 8, 8), 0.7)
        y = apply(AugmentOp(GAUSSIAN_BLUR), x, Rng(2))
        np.testing.assert_allclose(y, 0.7, atol=1e-12)

    def test_blur_reduces_variance(self, rng):
        x = _image(rng)
        y = apply(AugmentOp(GAUSSIAN_BLUR), x, Rng(2))
        assert y.std() < x.std()

    def test_blur_of_one_row_image_pinned(self):
        # a 1-pixel side mirrors onto itself; these are numpy.pad's results
        x = np.array([0.1, 0.4, 0.9, 0.3, 0.6]).reshape(1, 1, 1, 5)
        y = apply(AugmentOp(GAUSSIAN_BLUR, probability=1.0), x, Rng(2))
        assert y.tolist() == [[[[0.2394450600939393, 0.44648168669797983,
                                 0.6443507231611115, 0.5091675901409088,
                                 0.4605549399060608]]]]


class TestRangeAndShapeInvariants:
    # 10_000 random trials per op: shape preserved, values stay in [0, 1]
    @pytest.mark.parametrize("kind", OP_ORDER)
    def test_shape_and_range(self, kind):
        op = AugmentOp(kind, probability=0.9)
        rng = Rng(hash(kind) & 0xFFFF)
        trials = 10_000
        # amortize: fresh small image per trial, shared draw stream
        for t in range(trials):
            if t % 100 == 0:
                x = rng.uniform_array(28 * 28).reshape(1, 1, 28, 28)
            y = apply(op, x, rng)
            assert y.shape == x.shape
            lo, hi = float(y.min()), float(y.max())
            assert 0.0 <= lo and hi <= 1.0, f"{kind}: range [{lo}, {hi}]"

    def test_ops_do_not_mutate_input(self, rng):
        for kind in OP_ORDER:
            x = _image(rng)
            snap = x.copy()
            apply(AugmentOp(kind, probability=1.0), x, Rng(1))
            np.testing.assert_array_equal(x, snap)


class TestMixup:
    def test_delta_one_returns_first(self, rng):
        x_i, x_j = _image(rng), _image(rng)
        y_i = np.eye(10)[0]
        y_j = np.eye(10)[3]
        xh, yh = mixup(x_i, x_j, y_i, y_j, 1.0)
        np.testing.assert_array_equal(xh, x_i)
        np.testing.assert_array_equal(yh, y_i)

    def test_delta_zero_returns_second(self, rng):
        x_i, x_j = _image(rng), _image(rng)
        y_i, y_j = np.eye(10)[1], np.eye(10)[7]
        xh, yh = mixup(x_i, x_j, y_i, y_j, 0.0)
        np.testing.assert_array_equal(xh, x_j)
        np.testing.assert_array_equal(yh, y_j)

    def test_half_blend_arithmetic(self):
        x_i = np.zeros((1, 1, 4, 4))
        x_j = np.full((1, 1, 4, 4), 2.0)
        y_i, y_j = np.eye(10)[0], np.eye(10)[3]
        xh, yh = mixup(x_i, x_j, y_i, y_j, 0.5)
        np.testing.assert_array_equal(xh, np.ones((1, 1, 4, 4)))
        want = np.zeros(10)
        want[0] = want[3] = 0.5
        np.testing.assert_array_equal(yh, want)

    def test_convexity_1000_random(self):
        rng = Rng(321)
        for _ in range(1000):
            x_i = rng.uniform_array(16).reshape(1, 1, 4, 4)
            x_j = rng.uniform_array(16).reshape(1, 1, 4, 4)
            y_i = np.eye(10)[rng.below(10)]
            y_j = np.eye(10)[rng.below(10)]
            d = rng.uniform()
            xh, yh = mixup(x_i, x_j, y_i, y_j, d)
            assert np.all(xh >= np.minimum(x_i, x_j) - 1e-12)
            assert np.all(xh <= np.maximum(x_i, x_j) + 1e-12)
            assert np.all(yh >= 0.0)
            assert abs(float(yh.sum()) - 1.0) < 1e-9

    def test_bad_delta_rejected(self, rng):
        x = _image(rng)
        y = np.eye(10)[0]
        for d in (-0.1, 1.1):
            with pytest.raises(ValueError):
                mixup(x, x, y, y, d)

    def test_unnormalized_labels_rejected(self, rng):
        x = _image(rng)
        with pytest.raises(ValueError):
            mixup(x, x, np.full(10, 0.2), np.eye(10)[0], 0.5)

    def test_batch_matches_stacked_pairs(self):
        rng = Rng(55)
        x_i = rng.uniform_array(64).reshape(4, 1, 4, 4).astype(np.float32)
        x_j = rng.uniform_array(64).reshape(4, 1, 4, 4).astype(np.float32)
        y_i = np.eye(10)[[0, 3, 3, 9]]
        y_j = 0.9 * np.eye(10)[[1, 3, 7, 2]] + 0.01  # smoothed rows
        for d in (0.0, 0.37, 1.0):
            xh, yh = mixup(x_i, x_j, y_i, y_j, d)
            rows = [mixup(x_i[k:k + 1], x_j[k:k + 1], y_i[k], y_j[k], d)
                    for k in range(4)]
            np.testing.assert_array_equal(xh, np.concatenate([r[0] for r in rows]))
            np.testing.assert_array_equal(yh, np.stack([r[1] for r in rows]))
            assert xh.dtype == np.float32

    def test_batch_with_one_unnormalized_row_rejected(self):
        x = np.zeros((3, 1, 4, 4))
        y = np.eye(10)[[0, 1, 2]]
        mixup(x, x, y, y, 0.5)
        y_bad = y.copy()
        y_bad[1, 5] = 1.0
        with pytest.raises(ValueError, match="rows must sum to 1"):
            mixup(x, x, y, y_bad, 0.5)


class TestPipeline:
    def test_empty_config_is_identity(self, rng):
        pipe = build_pipeline({})
        assert pipe == []
        x = _image(rng)
        np.testing.assert_array_equal(augment_image(pipe, x, Rng(1)), x)

    def test_unknown_name_rejected(self):
        with pytest.raises(ValueError):
            build_pipeline({"posterize": 0.5})

    def test_canonical_order(self):
        pipe = build_pipeline({CUTOUT: 0.5, HFLIP: 0.5, ROTATION: 0.1})
        assert [op.kind for op in pipe] == [HFLIP, ROTATION, CUTOUT]

    def test_double_hflip_identity(self, rng):
        x = _image(rng)
        ops = [AugmentOp(HFLIP, 1.0), AugmentOp(HFLIP, 1.0)]
        np.testing.assert_array_equal(augment_image(ops, x, Rng(9)), x)

    def test_same_stream_bit_identical(self, rng):
        pipe = build_pipeline({name: 0.7 for name in OP_ORDER})
        x = _image(rng)
        a = augment_image(pipe, x, sample_stream(42, 3, 17))
        b = augment_image(pipe, x, sample_stream(42, 3, 17))
        np.testing.assert_array_equal(a, b)

    def test_different_sample_streams_differ(self, rng):
        pipe = build_pipeline({ROTATION: 1.0})
        x = _image(rng)
        a = augment_image(pipe, x, sample_stream(42, 3, 17))
        b = augment_image(pipe, x, sample_stream(42, 3, 18))
        assert not np.array_equal(a, b)

    def test_streams_apart_from_order_mixup_and_init(self):
        # no (epoch, sample) stream repeats a batch order, mixup or init stream
        seed = 42
        others = {Rng.derive(seed, 1, e).uniform() for e in range(8)}
        others |= {Rng.derive(seed, 2, e, b).uniform() for e in range(8) for b in range(8)}
        others |= {Rng.derive(seed, 3, i).uniform() for i in range(8)}
        for epoch in range(8):
            for i in range(8):
                assert sample_stream(seed, epoch, i).uniform() not in others, (epoch, i)

    def test_epoch_changes_stream(self, rng):
        pipe = build_pipeline({ROTATION: 1.0})
        x = _image(rng)
        a = augment_image(pipe, x, sample_stream(42, 0, 5))
        b = augment_image(pipe, x, sample_stream(42, 1, 5))
        assert not np.array_equal(a, b)
