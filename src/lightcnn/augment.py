"""Seedable image augmentations for grayscale training batches.

Every op is a pure function of (image, rng): the same stream always produces
the same output, so augmented epochs are reproducible bit-for-bit.  Images
are (1, 1, h, w) arrays with values in [0, 1]; every op preserves both.

Each op first draws one uniform against its probability; on failure the
image passes through untouched.  On success it draws its own parameters in a
fixed, documented order, so streams stay aligned across runs.
"""

import math
from dataclasses import dataclass, field

import numpy as np

from .layers import _blur3
from .tensor import Rng

HFLIP = "hflip"
VFLIP = "vflip"
ROTATION = "rotation"
GAUSSIAN_BLUR = "gaussian_blur"
SHIFT_SCALE_ROTATE = "shift_scale_rotate"
RANDOM_CROP = "random_crop"
BRIGHTNESS_CONTRAST = "brightness_contrast"
CUTOUT = "cutout"

# canonical application order; build_pipeline emits ops in this order no
# matter how the config lists them
OP_ORDER = [HFLIP, VFLIP, ROTATION, GAUSSIAN_BLUR, SHIFT_SCALE_ROTATE,
            RANDOM_CROP, BRIGHTNESS_CONTRAST, CUTOUT]

_DEFAULT_PARAMS = {
    HFLIP: {},
    VFLIP: {},
    ROTATION: {"max_angle": 15.0},
    GAUSSIAN_BLUR: {"sigma_lo": 0.1, "sigma_hi": 1.0},
    SHIFT_SCALE_ROTATE: {"max_shift": 0.1, "max_scale": 0.1, "max_angle": 15.0},
    RANDOM_CROP: {"crop": 24},
    BRIGHTNESS_CONTRAST: {"max_brightness": 0.2, "max_contrast": 0.2},
    CUTOUT: {"size": 5},
}


@dataclass(frozen=True)
class AugmentOp:
    kind: str
    probability: float = 1.0
    params: dict = field(default_factory=dict)

    def __post_init__(self):
        if self.kind not in OP_ORDER:
            raise ValueError(f"unknown augmentation {self.kind!r}")
        if not 0.0 <= self.probability <= 1.0:
            raise ValueError(f"probability must be in [0, 1], got {self.probability}")
        merged = dict(_DEFAULT_PARAMS[self.kind])
        for key, value in self.params.items():
            if key not in merged:
                raise ValueError(f"{self.kind} has no parameter {key!r}")
            merged[key] = value
        object.__setattr__(self, "params", merged)


def _check_image(image):
    if image.ndim != 4 or image.shape[0] != 1 or image.shape[1] != 1:
        raise ValueError(f"expected a (1, 1, h, w) image, got shape {image.shape}")


def _reflect_indices(idx, n):
    """Map integer indices onto [0, n) by mirror reflection (no edge repeat)."""
    if n == 1:
        return np.zeros_like(idx)
    period = 2 * (n - 1)
    m = np.mod(idx, period)
    return np.where(m >= n, period - m, m)


def _blend4(plane, ya, yb, xa, xb, fy, fx):
    """Bilinear blend of the neighbours at rows ya/yb and columns xa/xb,
    weighted by the fractions fy and fx (index arrays broadcast together)."""
    return (plane[ya, xa] * (1 - fy) * (1 - fx)
            + plane[ya, xb] * (1 - fy) * fx
            + plane[yb, xa] * fy * (1 - fx)
            + plane[yb, xb] * fy * fx)


def warp_affine(image, angle=0.0, scale=1.0, shift=(0.0, 0.0)):
    """Rotate/scale/shift about the image centre with bilinear sampling.

    `angle` is degrees counter-clockwise, `scale` > 1 zooms in, `shift` is
    (dy, dx) in pixels.  Out-of-range source coordinates reflect off the
    border.  angle=0, scale=1, shift=(0,0) is an exact identity.
    """
    _check_image(image)
    if scale <= 0.0:
        raise ValueError(f"scale must be positive, got {scale}")
    h, w = image.shape[2], image.shape[3]
    cy, cx = (h - 1) / 2.0, (w - 1) / 2.0
    theta = math.radians(angle)
    cos_t, sin_t = math.cos(theta), math.sin(theta)

    # pull each output pixel back through the inverse transform
    yy, xx = np.meshgrid(np.arange(h, dtype=np.float64),
                         np.arange(w, dtype=np.float64), indexing="ij")
    yc = yy - cy - shift[0]
    xc = xx - cx - shift[1]
    src_y = (cos_t * yc + sin_t * xc) / scale + cy
    src_x = (-sin_t * yc + cos_t * xc) / scale + cx

    y0 = np.floor(src_y).astype(np.int64)
    x0 = np.floor(src_x).astype(np.int64)
    out = _blend4(image[0, 0].astype(np.float64),
                  _reflect_indices(y0, h), _reflect_indices(y0 + 1, h),
                  _reflect_indices(x0, w), _reflect_indices(x0 + 1, w),
                  src_y - y0, src_x - x0)
    return np.clip(out, 0.0, 1.0)[None, None].astype(image.dtype)


def resize_bilinear(plane, oh, ow):
    """Resize a 2-D plane with align-corners bilinear interpolation."""
    h, w = plane.shape
    ys = np.linspace(0.0, h - 1.0, oh)
    xs = np.linspace(0.0, w - 1.0, ow)
    y0 = np.floor(ys).astype(np.int64)[:, None]
    x0 = np.floor(xs).astype(np.int64)
    return _blend4(plane, y0, np.minimum(y0 + 1, h - 1), x0,
                   np.minimum(x0 + 1, w - 1), ys[:, None] - y0, xs - x0)


def _gaussian_blur3(image, sigma):
    # separable 3-tap gaussian: weights exp(-d^2 / 2sigma^2) for d in {-1,0,1}
    k1 = np.exp(-np.array([1.0, 0.0, 1.0]) / (2.0 * sigma * sigma))
    kernel = np.outer(k1, k1)
    kernel /= kernel.sum()
    out = _blur3(image.astype(np.float64), kernel, 1)
    return np.clip(out, 0.0, 1.0).astype(image.dtype)


def apply(op: AugmentOp, image: np.ndarray, rng: Rng) -> np.ndarray:
    """Apply one augmentation; identity (a copy) when the probability fails."""
    _check_image(image)
    h, w = image.shape[2], image.shape[3]
    p = op.params

    if op.kind == RANDOM_CROP and not 1 <= p["crop"] <= min(h, w):
        raise ValueError(f"crop size {p['crop']} does not fit a {h}x{w} image")
    if op.kind == CUTOUT and not 1 <= p["size"] <= min(h, w):
        raise ValueError(f"cutout size {p['size']} does not fit a {h}x{w} image")

    if rng.uniform() >= op.probability:
        return image.copy()

    if op.kind == HFLIP:
        return np.ascontiguousarray(image[:, :, :, ::-1])
    if op.kind == VFLIP:
        return np.ascontiguousarray(image[:, :, ::-1, :])
    if op.kind == ROTATION:
        a = p["max_angle"]
        angle = rng.uniform(-a, a) if a > 0 else 0.0
        return warp_affine(image, angle=angle)
    if op.kind == GAUSSIAN_BLUR:
        sigma = rng.uniform(p["sigma_lo"], p["sigma_hi"])
        return _gaussian_blur3(image, sigma)
    if op.kind == SHIFT_SCALE_ROTATE:
        # draw order: shift_y, shift_x, scale, angle
        ms, mc, ma = p["max_shift"], p["max_scale"], p["max_angle"]
        dy = rng.uniform(-ms, ms) * h if ms > 0 else 0.0
        dx = rng.uniform(-ms, ms) * w if ms > 0 else 0.0
        scale = 1.0 + (rng.uniform(-mc, mc) if mc > 0 else 0.0)
        angle = rng.uniform(-ma, ma) if ma > 0 else 0.0
        return warp_affine(image, angle=angle, scale=scale, shift=(dy, dx))
    if op.kind == RANDOM_CROP:
        s = p["crop"]
        top = rng.below(h - s + 1)
        left = rng.below(w - s + 1)
        crop = image[0, 0, top:top + s, left:left + s].astype(np.float64)
        out = resize_bilinear(crop, h, w)
        return np.clip(out, 0.0, 1.0)[None, None].astype(image.dtype)
    if op.kind == BRIGHTNESS_CONTRAST:
        # draw order: brightness, contrast
        mb, mc = p["max_brightness"], p["max_contrast"]
        b = rng.uniform(-mb, mb) if mb > 0 else 0.0
        c = rng.uniform(-mc, mc) if mc > 0 else 0.0
        out = (image.astype(np.float64) - 0.5) * (1.0 + c) + 0.5 + b
        return np.clip(out, 0.0, 1.0).astype(image.dtype)
    if op.kind == CUTOUT:
        s = p["size"]
        top = rng.below(h - s + 1)
        left = rng.below(w - s + 1)
        out = image.copy()
        out[0, 0, top:top + s, left:left + s] = 0.0
        return out
    raise AssertionError(f"unhandled op kind {op.kind!r}")


def mixup(x_i, x_j, y_i, y_j, delta):
    """Blend two samples: x̂ = δ·x_i + (1−δ)·x_j, same for the label vectors.

    Also blends two batches row by row: images (n, 1, h, w) with labels
    (n, K); every label row must sum to 1.
    """
    if x_i.shape != x_j.shape:
        raise ValueError(f"image shapes differ: {x_i.shape} vs {x_j.shape}")
    y_i = np.asarray(y_i, dtype=np.float64)
    y_j = np.asarray(y_j, dtype=np.float64)
    if y_i.shape != y_j.shape:
        raise ValueError(f"label shapes differ: {y_i.shape} vs {y_j.shape}")
    if not 0.0 <= delta <= 1.0:
        raise ValueError(f"delta must be in [0, 1], got {delta}")
    for name, y in (("y_i", y_i), ("y_j", y_j)):
        sums = np.atleast_1d(y.sum(axis=-1))
        bad = sums[np.abs(sums - 1.0) > 1e-6]
        if bad.size:
            raise ValueError(f"{name} rows must sum to 1, one sums to {bad[0]}")
    x_hat = delta * x_i + (1.0 - delta) * x_j
    y_hat = delta * y_i + (1.0 - delta) * y_j
    return x_hat, y_hat


def build_pipeline(config: dict | None) -> list[AugmentOp]:
    """Turn {op name: probability} into an ordered op list.

    Unknown names are rejected; an empty or None config yields an identity
    pipeline.  Ops always run in OP_ORDER regardless of config order.
    """
    if not config:
        return []
    for name in config:
        if name not in OP_ORDER:
            raise ValueError(f"unknown augmentation {name!r}")
    return [AugmentOp(name, probability=float(config[name]))
            for name in OP_ORDER if name in config]


def augment_image(pipeline, image, rng):
    """Run every op in the pipeline against one per-sample stream."""
    for op in pipeline:
        image = apply(op, image, rng)
    return image


def sample_stream(seed: int, epoch: int, index: int) -> Rng:
    """The per-sample augmentation stream: one Rng per (seed, epoch, sample)."""
    return Rng.derive(seed, 4, epoch, index)
