"""Forward and backward implementations of every layer the engine uses.

Layer vocabulary: 3x3 convolution, depth-wise separable convolution (a
per-channel 3x3 stage followed by a 1x1 point-wise stage), ReLU, 2x2 max
pooling, blur pooling (binomial low-pass filter before stride-2
subsampling), global average pooling, squeeze-and-excite channel gating, a
dense classifier head, and softmax.

Activations are NCHW rank-4 arrays throughout; the dense head and softmax
keep the convention with trailing 1x1 spatial dims.  Convolutions are
cross-correlations at stride 1 with "same" padding (pad=1), so they keep h x w;
a direct-loop oracle lives in the test suite.  Two kernels are shared: the
channel GEMM (``_pointwise_*``), which the 1x1 stage and the 3x3 convolution
(on its im2col matrix) run, and the 3x3 tap walk (``_taps``), which the
depth-wise stage and the reflect-padded blur (``_blur3``: blur pooling at
stride 2, the augmentation blur at stride 1) step through.
Backward passes are hand-written per layer and validated against central
finite differences.  The im2col unfold and ``_blur3`` pad through ``_pad1``:
one allocation, an interior copy and, for the mirror, four border slice
copies.  numpy.pad spends about 30 us of Python work per call however small
the array, a large share of a batch-1 forward.

The 3x3 convolution unfolds and multiplies a chunk of images at a time, so
that the GEMM reads a chunk's columns from L2 (``_CHUNK_BYTES``).  Its three
products run the same ceil(n / kmax) balanced chunks of ceil(n / chunks)
images (``_chunks``), so no chunk is a short last one.  Training caches only
the input.  The weight gradient sums one GEMM per chunk, in chunk order.  The
input gradient is the chunked convolution of the output gradient with each
kernel flipped and its channels transposed (Dumoulin & Visin 2016, arXiv
1603.07285).  So the backward never unfolds more than one chunk.  With
OpenBLAS in float32, a GEMM of over about 1e6 multiply-adds was measured to
round each output alike at any row or column count, so at the zoo shapes the
forward's chunks give the bits of one whole-batch GEMM.  Smaller GEMMs take a
small-matrix path that can round differently, and so can float64 GEMMs; no
float64 result is pinned.  The backward's chunked sums round differently from
one whole-batch GEMM; the tests bound them against float64 products.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .tensor import Rng, default_dtype

CONV3 = "conv3"
CONV_DW = "conv_dw"
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
# squeeze-and-excite hidden width divisor; saved models' SE tensor shapes depend on it
SE_REDUCTION = 4


@dataclass(frozen=True)
class LayerSpec:
    """Declarative description of one layer.

    ``in_channels``/``out_channels`` must be positive for every kind, and
    equal for the shape-preserving ones (all but conv3, conv_dw and dense).
    The conv kinds run at stride 1.
    """

    kind: str
    in_channels: int = 0
    out_channels: int = 0

    def __post_init__(self):
        if self.kind not in KINDS:
            raise ValueError(f"unknown layer kind {self.kind!r}")
        if self.in_channels < 1 or self.out_channels < 1:
            raise ValueError(f"{self.kind} needs positive channel counts")
        if self.kind not in (CONV3, CONV_DW, DENSE):
            if self.in_channels != self.out_channels:
                raise ValueError(
                    f"{self.kind} preserves channel count; got "
                    f"{self.in_channels} -> {self.out_channels}")


class Layer:
    """Base class: forward caches what backward needs; params are named.
    Every kind takes (spec, rng); kinds without parameters ignore rng, and
    parametric kinds given no rng start from zeros, for weights read from a
    model file to overwrite without a throwaway He draw."""

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


def _he_init(rng: Rng | None, shape: tuple[int, ...], fan_in: int) -> np.ndarray:
    if rng is None:
        return np.zeros(shape, dtype=default_dtype())
    std = float(np.sqrt(2.0 / fan_in))
    n = int(np.prod(shape))
    return rng.normal_array(n, 0.0, std).reshape(shape).astype(default_dtype())


def _pad1(x: np.ndarray, reflect: bool = False) -> np.ndarray:
    """x with a 1-pixel border on both spatial axes, byte for byte as numpy.pad
    gives it in mode "constant" (zeros) or "reflect" (a mirror without edge
    repeat; a 1-pixel side mirrors onto itself)."""
    n, c, h, w = x.shape
    # a zeroed allocation timed faster than zeroing the border afterwards
    xp = (np.empty if reflect else np.zeros)((n, c, h + 2, w + 2), dtype=x.dtype)
    xp[:, :, 1 : h + 1, 1 : w + 1] = x
    if reflect:
        # rows first, then whole columns, so the corners come out as
        # numpy.pad's axis-by-axis fill leaves them
        xp[:, :, 0, 1 : w + 1] = xp[:, :, min(2, h), 1 : w + 1]
        xp[:, :, h + 1, 1 : w + 1] = xp[:, :, max(h - 1, 1), 1 : w + 1]
        xp[:, :, :, 0] = xp[:, :, :, min(2, w)]
        xp[:, :, :, w + 1] = xp[:, :, :, max(w - 1, 1)]
    return xp


def _im2col3(x: np.ndarray) -> np.ndarray:
    """The (c*9, n*h*w) im2col matrix of an NCHW x: all 9 taps of each 3x3/pad-1
    window, unfolded from a strided view of _pad1(x)."""
    n, c, h, w = x.shape
    xp = _pad1(x)
    win = np.lib.stride_tricks.as_strided(
        xp, x.shape + (3, 3), xp.strides + xp.strides[2:], writeable=False)
    return win.transpose(1, 4, 5, 0, 2, 3).reshape(c * 9, n * h * w)


# Bytes of im2col columns (of the input, or of the output gradient) per chunk
# of images: about one core's L2, so the GEMM reads what the unfold just wrote
# from cache, not from DRAM.  2 MiB timed best of 0.5 to 4 MiB on a 2-core
# Xeon (OpenBLAS).
_CHUNK_BYTES = 2 << 20


def _chunk_images(c: int, h: int, w: int, itemsize: int) -> int:
    """Images per chunk whose (c*9, k*h*w) columns fit in _CHUNK_BYTES."""
    return max(1, _CHUNK_BYTES // (9 * c * h * w * itemsize))


def _chunks(x: np.ndarray):
    """Image slices of NCHW x: ceil(n / kmax) chunks of ceil(n / chunks) images
    each, kmax images filling _CHUNK_BYTES with columns, so none is short."""
    n, c, h, w = x.shape
    chunks = -(-n // _chunk_images(c, h, w, x.itemsize))
    k = -(-n // chunks) if n else 1
    for i in range(0, n, k):
        yield slice(i, min(i + k, n))


def _conv3(x: np.ndarray, wm: np.ndarray, b: np.ndarray) -> np.ndarray:
    """x cross-correlated with the (cout, cin*9) weights wm at 3x3, pad 1,
    stride 1, plus bias b: one channel GEMM per chunk of images."""
    out = np.empty((x.shape[0], wm.shape[0]) + x.shape[2:], np.result_type(x, wm))
    for s in _chunks(x):
        _pointwise_forward(_im2col3(x[s]), wm, b, out[s])
    return out


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
    xp = _pad1(x, reflect=True)
    # pad 1, kernel 3: each output side is ceil(side / stride)
    oh, ow = (h - 1) // stride + 1, (w - 1) // stride + 1
    out = np.zeros((n, c, oh, ow), dtype=x.dtype)
    for u, v, rows, cols in _taps(stride, oh, ow):
        out += k[u, v] * xp[:, :, rows, cols]
    return out


def _pointwise_forward(xm: np.ndarray, w: np.ndarray, b: np.ndarray, out: np.ndarray) -> None:
    """Channel GEMM over a (K, N*H*W) input matrix (1x1 input or im2col),
    written with its bias into the (N, C, H, W) array out."""
    y = w @ xm
    # adding the bias in place, then copying, timed faster than one
    # broadcast add into the transposed view of out
    y += b[:, None]
    out_cnhw = out.transpose(1, 0, 2, 3)
    out_cnhw[...] = y.reshape(out_cnhw.shape)


def _pointwise_backward(grad_out: np.ndarray):
    """The output gradient of _pointwise_forward as a (C, N*H*W) matrix G, and
    the bias gradient."""
    gmat = grad_out.transpose(1, 0, 2, 3).reshape(grad_out.shape[1], -1)
    return gmat, gmat.sum(axis=1)


def _weight_grad(gmat: np.ndarray, xm: np.ndarray) -> np.ndarray:
    """The channel GEMM's weight gradient G @ xm.T, formed as (xm @ G.T).T:
    OpenBLAS runs that orientation faster, and its results were measured
    bit-identical."""
    return np.ascontiguousarray((xm @ gmat.T).T)


class Conv3x3(Layer):
    """3x3 cross-correlation, pad 1, stride 1, with bias: h x w in, h x w out.
    Training caches the input x, not its 9x larger columns.  All three
    products run in the forward's chunks (module docstring): the weight
    gradient sums one GEMM per chunk, and the input gradient is the forward
    of the output gradient with each kernel flipped and its channels
    transposed."""

    def __init__(self, spec: LayerSpec, rng: Rng | None = None):
        super().__init__(spec)
        cin, cout = spec.in_channels, spec.out_channels
        self.w = _he_init(rng, (cout, cin, 3, 3), 9 * cin)
        self.b = np.zeros(cout, dtype=default_dtype())

    def params(self):
        return {"w": self.w, "b": self.b}

    def forward(self, x, train=True):
        self._check_channels(x, "input channels")
        out = _conv3(x, self.w.reshape(self.spec.out_channels, -1), self.b)
        if train:
            self._cache = x
        return out

    def backward(self, grad_out):
        x = self._require_cache()
        n, c, h, w = x.shape
        gmat, db = _pointwise_backward(grad_out)
        dw = np.zeros((self.spec.out_channels, 9 * c), np.result_type(x, gmat))
        for s in _chunks(x):
            dw += _weight_grad(gmat[:, s.start * h * w : s.stop * h * w], _im2col3(x[s]))
        self._grads = {"w": dw.reshape(self.w.shape), "b": db}
        del gmat  # freed before the input gradient's buffers
        wt = self.w[:, :, ::-1, ::-1].transpose(1, 0, 2, 3).reshape(c, -1)
        return _conv3(grad_out, wt, np.zeros(c, wt.dtype))


class DepthwiseSeparable(Layer):
    """Per-channel 3x3 conv (+bias) followed by a 1x1 point-wise conv (+bias).

    No activation between the two stages; the composition is linear.  The
    layer takes and returns NCHW, but its depth-wise stage works channels-last
    on a zero-padded (n, h+2, w+2, c) buffer, so each of the nine shifted
    slice-accumulates and weight-gradient reductions runs over the leading
    axes and is vectorised over channels.
    """

    def __init__(self, spec: LayerSpec, rng: Rng | None = None):
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
        xp = np.zeros((n, h + 2, w + 2, c), dtype=x.dtype)
        xp[:, 1 : h + 1, 1 : w + 1] = x.transpose(0, 2, 3, 1)
        k = self._row_taps(w)
        mid = np.zeros((n, h, w, c), dtype=x.dtype)
        for u, v, rows, cols in _taps(1, h, w):
            mid += xp[:, rows, cols] * k[u, v]
        mid += self.dw_b
        # the GEMM reads a contiguous (C, N*H*W) copy: given the transposed
        # view instead, BLAS rounds differently at small batches
        mid_m = np.ascontiguousarray(mid.reshape(-1, c).T)
        out = np.empty((n, self.spec.out_channels, h, w), np.result_type(mid_m, self.pw_w))
        _pointwise_forward(mid_m, self.pw_w, self.pw_b, out)
        if train:
            self._cache = (xp, mid_m)
        return out

    def backward(self, grad_out):
        xp, mid_m = self._require_cache()
        n, hp, wp, c = xp.shape
        h, w = hp - 2, wp - 2

        gmat, dpw_b = _pointwise_backward(grad_out)
        dpw_w = _weight_grad(gmat, mid_m)
        dmid = np.ascontiguousarray((self.pw_w.T @ gmat).T).reshape(n, h, w, c)
        k = self._row_taps(w)
        ddw_w = np.empty((3, 3, c), dtype=self.dw_w.dtype)
        dxp = np.zeros_like(xp)
        for u, v, rows, cols in _taps(1, h, w):
            ddw_w[u, v] = np.einsum("nijc,nijc->c", dmid, xp[:, rows, cols])
            dxp[:, rows, cols] += dmid * k[u, v]
        self._grads = {
            "dw_w": np.ascontiguousarray(ddw_w.transpose(2, 0, 1)),
            "dw_b": np.einsum("nijc->c", dmid),
            "pw_w": dpw_w,
            "pw_b": dpw_b,
        }
        return np.ascontiguousarray(dxp[:, 1 : h + 1, 1 : w + 1].transpose(0, 3, 1, 2))


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
            idx = missed.astype(np.uint8)  # 0..3: one byte per output
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

    def __init__(self, spec: LayerSpec, rng: Rng | None = None):
        super().__init__(spec)
        c = spec.in_channels
        hidden = max(1, c // SE_REDUCTION)
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

    def __init__(self, spec: LayerSpec, rng: Rng | None = None):
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
    RELU: ReLU,
    MAXPOOL2: MaxPool2,
    BLURPOOL2: BlurPool2,
    GAP: GlobalAvgPool,
    SQUEEZE_EXCITE: SqueezeExcite,
    DENSE: Dense,
    SOFTMAX: Softmax,
}
KINDS = tuple(_TYPES)


def make_layer(spec: LayerSpec, rng: Rng | None) -> Layer:
    return _TYPES[spec.kind](spec, rng)


class Network:
    """An ordered layer stack with named parameters and hand-written backprop;
    the last layer is the softmax, which the training loss fuses."""

    def __init__(self, name: str, layers: list[Layer], input_dims: tuple[int, int, int],
                 num_classes: int):
        if not layers or layers[-1].spec.kind != SOFTMAX:
            raise ValueError(f"{name}: the layer stack must end in {SOFTMAX}")
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
        return self.layers[-1].forward(self.forward_logits(x, train), train=train)

    def forward_logits(self, x: np.ndarray, train: bool = True) -> np.ndarray:
        """Forward pass that stops before the trailing softmax (fused loss)."""
        self._check_input(x)
        for layer in self.layers[:-1]:
            x = layer.forward(x, train=train)
        return x

    def backward_from_logits(self, dlogits: np.ndarray) -> np.ndarray:
        grad = dlogits
        for layer in reversed(self.layers[:-1]):
            grad = layer.backward(grad)
        return grad

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
