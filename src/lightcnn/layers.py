"""Forward and backward implementations of every layer the engine uses.

Layer vocabulary: 3x3 convolution, depth-wise separable convolution (a
per-channel 3x3 stage followed by a 1x1 point-wise stage), point-wise
convolution, ReLU, 2x2 max pooling, blur pooling (binomial low-pass filter
before stride-2 subsampling), global average pooling, squeeze-and-excite
channel gating, a dense classifier head, and softmax.

Activations are NCHW rank-4 arrays throughout; the dense head and softmax
keep the convention with trailing 1x1 spatial dims.  Convolutions are
cross-correlations with "same" padding (pad=1); a direct-loop oracle lives in
the test suite.  Two kernels are shared: the channel GEMM (``_pointwise_*``),
which the 1x1 stages and the 3x3 convolution (on its im2col matrix) run, and
the 3x3 tap walk (``_taps``), which the depth-wise stage, the im2col adjoint
and the reflect-padded blur (``_blur3``: blur pooling and the augmentation
blur) step through at their stride.  Backward passes are
hand-written per layer and validated against central finite differences.

The 3x3 convolution is cache-blocked where it can be.  Its evaluation
forward, and the input gradient of its backward pass, unfold (or fold) and
multiply one chunk of images at a time, sized so that a chunk's columns stay
in L2 (``_CHUNK_BYTES``) for the GEMM that reads them; the whole-batch column
matrix would go out to DRAM and back.  The training forward keeps the whole
batch in one chunk, because the weight gradient is one GEMM over every
column: summed over chunks it would round differently.  Every output is still
one dot product over the same 9*cin values in the same order; with OpenBLAS
a GEMM column's rounding was measured not to depend on the column count, so
chunking leaves every result bit as it was.  A batch that fits one chunk
(batch 1 always does) runs the unchunked code.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .tensor import Rng, default_dtype

CONV3 = "conv3"
CONV_DW = "conv_dw"
POINTWISE = "pointwise"
RELU = "relu"
MAXPOOL2 = "maxpool2"
BLURPOOL2 = "blurpool2"
GAP = "gap"
SQUEEZE_EXCITE = "squeeze_excite"
DENSE = "dense"
SOFTMAX = "softmax"
# KINDS, the tuple of these in this order, is built from _TYPES below

# binomial 3x3 low-pass kernel; sums to 1 so constants pass through unchanged
BLUR_KERNEL = np.outer([1.0, 2.0, 1.0], [1.0, 2.0, 1.0]) / 16.0


@dataclass(frozen=True)
class LayerSpec:
    """Declarative description of one layer.

    ``in_channels``/``out_channels`` are required for parameterised kinds
    and may stay 0 for shape-preserving ones.  ``stride`` applies to the
    conv kinds; ``se_reduction`` divides the channel count to size the
    squeeze-and-excite hidden layer.
    """

    kind: str
    in_channels: int = 0
    out_channels: int = 0
    stride: int = 1
    se_reduction: int = 4

    def __post_init__(self):
        if self.kind not in KINDS:
            raise ValueError(f"unknown layer kind {self.kind!r}")
        if self.stride not in (1, 2):
            raise ValueError(f"stride must be 1 or 2, got {self.stride}")
        if self.in_channels < 1 or self.out_channels < 1:
            raise ValueError(f"{self.kind} needs positive channel counts")
        if self.kind not in (CONV3, CONV_DW, POINTWISE, DENSE):
            if self.in_channels != self.out_channels:
                raise ValueError(
                    f"{self.kind} preserves channel count; got "
                    f"{self.in_channels} -> {self.out_channels}")
        if self.kind == SQUEEZE_EXCITE and self.se_reduction < 1:
            raise ValueError("se_reduction must be >= 1")


class Layer:
    """Base class: forward caches what backward needs; params are named.
    Every kind takes (spec, rng); kinds without parameters ignore rng."""

    def __init__(self, spec: LayerSpec, rng: Rng | None = None):
        self.spec = spec
        self._cache = None
        self._grads: dict[str, np.ndarray] = {}

    def forward(self, x: np.ndarray, train: bool = True) -> np.ndarray:
        raise NotImplementedError

    def backward(self, grad_out: np.ndarray) -> np.ndarray:
        raise NotImplementedError

    def params(self) -> dict[str, np.ndarray]:
        return {}

    def grads(self) -> dict[str, np.ndarray]:
        return self._grads

    def param_count(self) -> int:
        return sum(p.size for p in self.params().values())

    def _require_cache(self):
        """The last training forward's cache, handed to one backward only, so
        it is freed as soon as that backward returns."""
        cache, self._cache = self._cache, None
        if cache is None:
            raise RuntimeError(f"{self.spec.kind}: backward needs a new training forward")
        return cache

    def _check_channels(self, x: np.ndarray, what: str) -> None:
        if x.shape[1] != self.spec.in_channels:
            raise ValueError(
                f"{self.spec.kind}: expected {self.spec.in_channels} {what}, got {x.shape[1]}")


def _he_init(rng: Rng, shape: tuple[int, ...], fan_in: int) -> np.ndarray:
    std = float(np.sqrt(2.0 / fan_in))
    n = int(np.prod(shape))
    return rng.normal_array(n, 0.0, std).reshape(shape).astype(default_dtype())


def _conv_out_hw(h: int, w: int, stride: int) -> tuple[int, int]:
    # pad=1, kernel=3: output is ceil(dim / stride) for stride 1 or 2
    return (h - 1) // stride + 1, (w - 1) // stride + 1


def _im2col3(x: np.ndarray, stride: int) -> tuple[np.ndarray, int, int]:
    """Unfold 3x3/pad-1 windows into a (c*9, n*oh*ow) matrix."""
    n, c, h, w = x.shape
    oh, ow = _conv_out_hw(h, w, stride)
    xp = np.pad(x, ((0, 0), (0, 0), (1, 1), (1, 1)))
    sn, sc, sh, sw = xp.strides
    win = np.lib.stride_tricks.as_strided(
        xp,
        shape=(n, c, oh, ow, 3, 3),
        strides=(sn, sc, sh * stride, sw * stride, sh, sw),
        writeable=False,
    )
    cols = win.transpose(1, 4, 5, 0, 2, 3).reshape(c * 9, n * oh * ow)
    return cols, oh, ow


# Bytes of im2col columns (or of their gradient) per chunk of images: about
# one core's L2, so the GEMM reads what the unfold just wrote from cache, not
# from DRAM.  2 MiB timed best of 0.5 to 4 MiB on a 2-core Xeon (OpenBLAS).
_CHUNK_BYTES = 2 << 20


def _chunk_images(c: int, oh: int, ow: int, itemsize: int) -> int:
    """Images per chunk whose (c*9, k*oh*ow) columns fit in _CHUNK_BYTES."""
    return max(1, _CHUNK_BYTES // (9 * c * oh * ow * itemsize))


def _taps(stride: int, oh: int, ow: int):
    """The nine (u, v) taps of a 3x3 window, each with the rows and columns of
    a pad-1 input it reads for an (oh, ow) output taken at this stride."""
    for u in range(3):
        for v in range(3):
            yield u, v, slice(u, u + stride * oh, stride), slice(v, v + stride * ow, stride)


def _blur3(x: np.ndarray, k: np.ndarray, stride: int) -> np.ndarray:
    """Reflect-padded 3x3 stencil: the sum of k[u, v] times each tap's view,
    taken at this stride."""
    n, c, h, w = x.shape
    xp = np.pad(x, ((0, 0), (0, 0), (1, 1), (1, 1)), mode="reflect")
    oh, ow = _conv_out_hw(h, w, stride)
    out = np.zeros((n, c, oh, ow), dtype=x.dtype)
    for u, v, rows, cols in _taps(stride, oh, ow):
        out += k[u, v] * xp[:, :, rows, cols]
    return out


def _fold_cols3(dcols: np.ndarray, dxp: np.ndarray, stride: int, oh: int, ow: int) -> None:
    """Adjoint of _im2col3: add column gradients onto the pad-1 input gradient dxp."""
    n, c = dxp.shape[:2]
    dc = dcols.reshape(c, 3, 3, n, oh, ow)
    for u, v, rows, cols in _taps(stride, oh, ow):
        dxp[:, :, rows, cols] += dc[:, u, v].transpose(1, 0, 2, 3)


def _pointwise_forward(xm: np.ndarray, w: np.ndarray, b: np.ndarray, out_nhw):
    """Channel GEMM over a (K, N*H*W) input matrix (1x1 input or im2col); returns NCHW."""
    out = w @ xm
    out += b[:, None]
    n, h, w_ = out_nhw
    return np.ascontiguousarray(out.reshape(w.shape[0], n, h, w_).transpose(1, 0, 2, 3))


def _pointwise_backward(grad_out: np.ndarray, xm: np.ndarray):
    """Gradients of _pointwise_forward: the output gradient as a (C, N*H*W)
    matrix G, then the weight and bias gradients.  The input gradient is
    w.T @ G, which Conv3x3 forms a column chunk at a time."""
    gmat = grad_out.transpose(1, 0, 2, 3).reshape(grad_out.shape[1], -1)
    return gmat, gmat @ xm.T, gmat.sum(axis=1)


class Conv3x3(Layer):
    """3x3 cross-correlation, pad 1, stride 1 or 2, with bias."""

    def __init__(self, spec: LayerSpec, rng: Rng):
        super().__init__(spec)
        cin, cout = spec.in_channels, spec.out_channels
        self.w = _he_init(rng, (cout, cin, 3, 3), 9 * cin)
        self.b = np.zeros(cout, dtype=default_dtype())

    def params(self):
        return {"w": self.w, "b": self.b}

    def forward(self, x, train=True):
        self._check_channels(x, "input channels")
        n, c, h, w = x.shape
        oh, ow = _conv_out_hw(h, w, self.spec.stride)
        wm = self.w.reshape(self.spec.out_channels, -1)
        # training keeps the whole batch's columns for the weight gradient
        k = n if train else _chunk_images(c, oh, ow, x.itemsize)
        if k < n:
            out = np.empty((n, self.spec.out_channels, oh, ow), np.result_type(x, wm))
            for i in range(0, n, k):
                cols = _im2col3(x[i : i + k], self.spec.stride)[0]
                out[i : i + k] = _pointwise_forward(cols, wm, self.b, (min(k, n - i), oh, ow))
            return out
        cols = _im2col3(x, self.spec.stride)[0]
        out = _pointwise_forward(cols, wm, self.b, (n, oh, ow))
        if train:
            self._cache = (cols, x.shape, oh, ow)
        return out

    def backward(self, grad_out):
        cols, (n, c, h, w), oh, ow = self._require_cache()
        gmat, dw, db = _pointwise_backward(grad_out, cols)
        self._grads = {"w": dw.reshape(self.w.shape), "b": db}
        wt = self.w.reshape(self.spec.out_channels, -1).T
        dxp = np.zeros((n, c, h + 2, w + 2), dtype=np.result_type(wt, gmat))
        k = _chunk_images(c, oh, ow, dxp.itemsize)
        for i in range(0, n, k):
            dcols = wt @ gmat[:, i * oh * ow : (i + k) * oh * ow]
            _fold_cols3(dcols, dxp[i : i + k], self.spec.stride, oh, ow)
        return dxp[:, :, 1 : h + 1, 1 : w + 1]


class DepthwiseSeparable(Layer):
    """Per-channel 3x3 conv (+bias) followed by a 1x1 point-wise conv (+bias).

    No activation between the two stages; the composition is linear.  The
    layer takes and returns NCHW, but its depth-wise stage works channels-last
    on a zero-padded (n, h+2, w+2, c) buffer, so each of the nine shifted
    slice-accumulates and weight-gradient reductions runs over the leading
    axes and is vectorised over channels.
    """

    def __init__(self, spec: LayerSpec, rng: Rng):
        super().__init__(spec)
        cin, cout = spec.in_channels, spec.out_channels
        self.dw_w = _he_init(rng, (cin, 3, 3), 9)
        self.dw_b = np.zeros(cin, dtype=default_dtype())
        self.pw_w = _he_init(rng, (cout, cin), cin)
        self.pw_b = np.zeros(cout, dtype=default_dtype())

    def params(self):
        return {"dw_w": self.dw_w, "dw_b": self.dw_b, "pw_w": self.pw_w, "pw_b": self.pw_b}

    def _row_taps(self, ow: int) -> np.ndarray:
        """dw_w as (3, 3, ow, c): each tap's channel vector repeated along an
        output row, so its product with a window spans whole (ow, c) rows."""
        k = self.dw_w.transpose(1, 2, 0)[:, :, None, :]
        return np.ascontiguousarray(np.broadcast_to(k, (3, 3, ow, k.shape[-1])))

    def forward(self, x, train=True):
        self._check_channels(x, "input channels")
        n, c, h, w = x.shape
        oh, ow = _conv_out_hw(h, w, self.spec.stride)
        xp = np.zeros((n, h + 2, w + 2, c), dtype=x.dtype)
        xp[:, 1 : h + 1, 1 : w + 1] = x.transpose(0, 2, 3, 1)
        k = self._row_taps(ow)
        mid = np.zeros((n, oh, ow, c), dtype=x.dtype)
        for u, v, rows, cols in _taps(self.spec.stride, oh, ow):
            mid += xp[:, rows, cols] * k[u, v]
        mid += self.dw_b
        # the GEMM reads a (C, N*H*W) copy, as in PointwiseConv: given the
        # transposed view instead, BLAS rounds differently at small batches
        mid_m = np.ascontiguousarray(mid.reshape(-1, c).T)
        out = _pointwise_forward(mid_m, self.pw_w, self.pw_b, (n, oh, ow))
        if train:
            self._cache = (xp, mid_m, oh, ow)
        return out

    def backward(self, grad_out):
        xp, mid_m, oh, ow = self._require_cache()
        n, hp, wp, c = xp.shape

        gmat, dpw_w, dpw_b = _pointwise_backward(grad_out, mid_m)
        dmid = np.ascontiguousarray((self.pw_w.T @ gmat).T).reshape(n, oh, ow, c)
        k = self._row_taps(ow)
        ddw_w = np.empty((3, 3, c), dtype=self.dw_w.dtype)
        dxp = np.zeros_like(xp)
        for u, v, rows, cols in _taps(self.spec.stride, oh, ow):
            ddw_w[u, v] = np.einsum("nijc,nijc->c", dmid, xp[:, rows, cols])
            dxp[:, rows, cols] += dmid * k[u, v]
        self._grads = {
            "dw_w": np.ascontiguousarray(ddw_w.transpose(2, 0, 1)),
            "dw_b": np.einsum("nijc->c", dmid),
            "pw_w": dpw_w,
            "pw_b": dpw_b,
        }
        return np.ascontiguousarray(dxp[:, 1 : hp - 1, 1 : wp - 1].transpose(0, 3, 1, 2))


class PointwiseConv(Layer):
    """Standalone 1x1 convolution."""

    def __init__(self, spec: LayerSpec, rng: Rng):
        super().__init__(spec)
        cin, cout = spec.in_channels, spec.out_channels
        self.w = _he_init(rng, (cout, cin), cin)
        self.b = np.zeros(cout, dtype=default_dtype())

    def params(self):
        return {"w": self.w, "b": self.b}

    def forward(self, x, train=True):
        self._check_channels(x, "input channels")
        n, cin, h, w = x.shape
        xm = x.transpose(1, 0, 2, 3).reshape(cin, -1)
        out = _pointwise_forward(xm, self.w, self.b, (n, h, w))
        if train:
            self._cache = (xm, x.shape)
        return out

    def backward(self, grad_out):
        xm, (n, cin, h, w) = self._require_cache()
        gmat, dw, db = _pointwise_backward(grad_out, xm)
        self._grads = {"w": dw, "b": db}
        dxm = self.w.T @ gmat
        return np.ascontiguousarray(dxm.reshape(cin, n, h, w).transpose(1, 0, 2, 3))


class ReLU(Layer):
    def forward(self, x, train=True):
        out = np.maximum(x, 0.0)
        if train:
            self._cache = x > 0
        return out

    def backward(self, grad_out):
        mask = self._require_cache()
        return grad_out * mask


class MaxPool2(Layer):
    """2x2/stride-2 max pooling; odd edges pool over the valid remainder.

    The cached window index follows the ``argmax`` tie rule: the first of
    cells (0,0), (0,1), (1,0), (1,1) that equals the max gets the gradient.
    """

    def forward(self, x, train=True):
        n, c, h, w = x.shape
        xp = x
        if h % 2 or w % 2:
            xp = np.full((n, c, h + h % 2, w + w % 2), -np.inf, dtype=x.dtype)
            xp[:, :, :h, :w] = x
        cells = [xp[:, :, i::2, j::2] for i in (0, 1) for j in (0, 1)]
        # np.maximum returns its second operand on a tie (-0.0 vs +0.0), so
        # passing the earlier cell second keeps the first maximal cell's sign
        out = np.maximum(np.maximum(cells[3], cells[2]), np.maximum(cells[1], cells[0]))
        if train:
            # the first cell equal to the max sits after every cell that is not
            missed = cells[0] != out
            idx = missed.astype(np.intp)
            for cell in cells[1:3]:
                missed &= cell != out
                idx += missed
            self._cache = (idx, x.shape)
        return out

    def backward(self, grad_out):
        idx, (n, c, h, w) = self._require_cache()
        oh, ow = grad_out.shape[2], grad_out.shape[3]
        dxp = np.zeros((n, c, 2 * oh, 2 * ow), dtype=grad_out.dtype)
        # scatter each gradient onto its window's chosen cell, by flat offset
        plane = np.arange(n * c).reshape(n, c, 1, 1) * (4 * oh * ow)
        row = 2 * np.arange(oh)[:, None] + (idx >> 1)
        col = 2 * np.arange(ow) + (idx & 1)
        dxp.ravel()[plane + row * (2 * ow) + col] = grad_out
        return np.ascontiguousarray(dxp[:, :, :h, :w])


class BlurPool2(Layer):
    """Binomial 3x3 blur (reflect padding) evaluated only at the kept
    stride-2 outputs; backward scatters only from them."""

    def forward(self, x, train=True):
        h, w = x.shape[2:]
        if h < 2 or w < 2:
            raise ValueError(f"blurpool2 needs h, w >= 2, got {h}x{w}")
        out = _blur3(x, BLUR_KERNEL.astype(x.dtype), 2)
        if train:
            self._cache = x.shape
        return out

    def backward(self, grad_out):
        n, c, h, w = self._require_cache()
        k = BLUR_KERNEL.astype(grad_out.dtype)
        dxp = np.zeros((n, c, h + 2, w + 2), dtype=grad_out.dtype)
        for u, v, rows, cols in _taps(2, *grad_out.shape[2:]):
            dxp[:, :, rows, cols] += k[u, v] * grad_out
        # adjoint of the reflect padding: fold pad rows/cols onto their sources
        dq = dxp[:, :, :, 1 : w + 1].copy()
        dq[:, :, :, 1] += dxp[:, :, :, 0]
        dq[:, :, :, w - 2] += dxp[:, :, :, w + 1]
        dx = dq[:, :, 1 : h + 1, :].copy()
        dx[:, :, 1, :] += dq[:, :, 0, :]
        dx[:, :, h - 2, :] += dq[:, :, h + 1, :]
        return dx


class GlobalAvgPool(Layer):
    def forward(self, x, train=True):
        out = x.mean(axis=(2, 3), keepdims=True)
        if train:
            self._cache = x.shape
        return out

    def backward(self, grad_out):
        n, c, h, w = self._require_cache()
        return np.broadcast_to(grad_out / (h * w), (n, c, h, w)).copy()


class SqueezeExcite(Layer):
    """Channel gating: GAP -> dense/ReLU -> dense/sigmoid -> scale channels."""

    def __init__(self, spec: LayerSpec, rng: Rng):
        super().__init__(spec)
        c = spec.in_channels
        hidden = max(1, c // spec.se_reduction)
        self.w1 = _he_init(rng, (hidden, c), c)
        self.b1 = np.zeros(hidden, dtype=default_dtype())
        self.w2 = _he_init(rng, (c, hidden), hidden)
        self.b2 = np.zeros(c, dtype=default_dtype())

    def params(self):
        return {"w1": self.w1, "b1": self.b1, "w2": self.w2, "b2": self.b2}

    def forward(self, x, train=True):
        self._check_channels(x, "channels")
        s = x.mean(axis=(2, 3))                      # (n, c)
        h1 = s @ self.w1.T + self.b1                 # (n, hidden)
        a1 = np.maximum(h1, 0.0)
        z = a1 @ self.w2.T + self.b2                 # (n, c)
        z = np.clip(z, -60.0, 60.0)                  # gate saturates; keeps exp in range
        g = 1.0 / (1.0 + np.exp(-z))
        out = x * g[:, :, None, None]
        if train:
            self._cache = (x, s, h1, a1, g)
        return out

    def backward(self, grad_out):
        x, s, h1, a1, g = self._require_cache()
        n, c, h, w = x.shape
        dg = (grad_out * x).sum(axis=(2, 3))
        dx = grad_out * g[:, :, None, None]
        dz = dg * g * (1.0 - g)
        da1 = dz @ self.w2
        dh1 = da1 * (h1 > 0)
        ds = dh1 @ self.w1
        dx += (ds / (h * w))[:, :, None, None]
        self._grads = {
            "w1": dh1.T @ s,
            "b1": dh1.sum(axis=0),
            "w2": dz.T @ a1,
            "b2": dz.sum(axis=0),
        }
        return dx


class Dense(Layer):
    """Affine map on the flattened (c*h*w) features; output stays NCHW."""

    def __init__(self, spec: LayerSpec, rng: Rng):
        super().__init__(spec)
        self.w = _he_init(rng, (spec.out_channels, spec.in_channels), spec.in_channels)
        self.b = np.zeros(spec.out_channels, dtype=default_dtype())

    def params(self):
        return {"w": self.w, "b": self.b}

    def forward(self, x, train=True):
        n = x.shape[0]
        flat = x.reshape(n, -1)
        self._check_channels(flat, "features")
        out = flat @ self.w.T + self.b
        if train:
            self._cache = (flat, x.shape)
        return out.reshape(n, self.spec.out_channels, 1, 1)

    def backward(self, grad_out):
        flat, x_shape = self._require_cache()
        n = x_shape[0]
        gmat = grad_out.reshape(n, -1)
        self._grads = {"w": gmat.T @ flat, "b": gmat.sum(axis=0)}
        return (gmat @ self.w).reshape(x_shape)


def softmax_rows(logits: np.ndarray) -> np.ndarray:
    """Stable softmax over axis 1, for (n, K) logits or (n, K, 1, 1) activations."""
    z = logits - logits.max(axis=1, keepdims=True)
    e = np.exp(z)
    return e / e.sum(axis=1, keepdims=True)


class Softmax(Layer):
    """Softmax over the channel axis; rows are positive and sum to 1."""

    def forward(self, x, train=True):
        out = softmax_rows(x)
        if train:
            self._cache = out
        return out

    def backward(self, grad_out):
        y = self._require_cache()
        dot = (grad_out * y).sum(axis=1, keepdims=True)
        return y * (grad_out - dot)


_TYPES = {
    CONV3: Conv3x3,
    CONV_DW: DepthwiseSeparable,
    POINTWISE: PointwiseConv,
    RELU: ReLU,
    MAXPOOL2: MaxPool2,
    BLURPOOL2: BlurPool2,
    GAP: GlobalAvgPool,
    SQUEEZE_EXCITE: SqueezeExcite,
    DENSE: Dense,
    SOFTMAX: Softmax,
}
KINDS = tuple(_TYPES)


def make_layer(spec: LayerSpec, rng: Rng) -> Layer:
    return _TYPES[spec.kind](spec, rng)


class Network:
    """An ordered layer stack with named parameters and hand-written backprop."""

    def __init__(self, name: str, layers: list[Layer], input_dims: tuple[int, int, int],
                 num_classes: int):
        self.name = name
        self.layers = layers
        self.input_dims = tuple(input_dims)
        self.num_classes = num_classes

    def _check_input(self, x: np.ndarray) -> None:
        if x.ndim != 4 or x.shape[1:] != self.input_dims:
            raise ValueError(
                f"{self.name}: expected input (n, {', '.join(map(str, self.input_dims))}),"
                f" got {x.shape}")

    def forward(self, x: np.ndarray, train: bool = False) -> np.ndarray:
        self._check_input(x)
        for layer in self.layers:
            x = layer.forward(x, train=train)
        return x

    def forward_logits(self, x: np.ndarray, train: bool = True) -> np.ndarray:
        """Forward pass that stops before the trailing softmax (fused loss)."""
        self._check_input(x)
        for layer in self._logit_layers():
            x = layer.forward(x, train=train)
        return x

    def backward_from_logits(self, dlogits: np.ndarray) -> np.ndarray:
        grad = dlogits
        for layer in reversed(self._logit_layers()):
            grad = layer.backward(grad)
        return grad

    def _logit_layers(self) -> list[Layer]:
        if self.layers and self.layers[-1].spec.kind == SOFTMAX:
            return self.layers[:-1]
        return self.layers

    def _named(self, method: str) -> dict[str, np.ndarray]:
        """Each layer's params() or grads() under "<index>.<kind>.<name>"
        keys, in layer order (save_model writes tensors in this order)."""
        return {f"{i:02d}.{layer.spec.kind}.{name}": arr
                for i, layer in enumerate(self.layers)
                for name, arr in getattr(layer, method)().items()}

    def params(self) -> dict[str, np.ndarray]:
        return self._named("params")

    def grads(self) -> dict[str, np.ndarray]:
        return self._named("grads")

    def set_params(self, values: dict[str, np.ndarray]) -> None:
        """Copy new values into the existing parameter arrays (shape-checked)."""
        own = self.params()
        if set(values) != set(own):
            missing = set(own) - set(values)
            extra = set(values) - set(own)
            raise ValueError(f"parameter name mismatch: missing={sorted(missing)}, "
                             f"unexpected={sorted(extra)}")
        for name, arr in values.items():
            if own[name].shape != arr.shape:
                raise ValueError(f"{name}: shape mismatch {own[name].shape} vs {arr.shape}")
            own[name][...] = arr

    def param_count(self) -> int:
        return sum(layer.param_count() for layer in self.layers)
