"""Independent reference implementations used to check the production paths.

Everything here is deliberately written as plain loops over indices, with no
shared code with the package: the im2col/matmul convolutions, pooling and
gradient code are validated against these.
"""

import numpy as np


def conv3x3_direct(x, w, b, stride=1):
    """Cross-correlation with 3x3 kernel, zero pad 1."""
    n, cin, h, wd = x.shape
    cout = w.shape[0]
    oh = (h - 1) // stride + 1
    ow = (wd - 1) // stride + 1
    out = np.zeros((n, cout, oh, ow), dtype=np.float64)
    for ni in range(n):
        for co in range(cout):
            for i in range(oh):
                for j in range(ow):
                    acc = 0.0
                    for ci in range(cin):
                        for u in range(3):
                            for v in range(3):
                                r = stride * i + u - 1
                                c = stride * j + v - 1
                                if 0 <= r < h and 0 <= c < wd:
                                    acc += x[ni, ci, r, c] * w[co, ci, u, v]
                    out[ni, co, i, j] = acc + b[co]
    return out


def depthwise3_direct(x, k, b, stride=1):
    """Per-channel 3x3 cross-correlation, zero pad 1."""
    n, c, h, wd = x.shape
    oh = (h - 1) // stride + 1
    ow = (wd - 1) // stride + 1
    out = np.zeros((n, c, oh, ow), dtype=np.float64)
    for ni in range(n):
        for ci in range(c):
            for i in range(oh):
                for j in range(ow):
                    acc = 0.0
                    for u in range(3):
                        for v in range(3):
                            r = stride * i + u - 1
                            cc = stride * j + v - 1
                            if 0 <= r < h and 0 <= cc < wd:
                                acc += x[ni, ci, r, cc] * k[ci, u, v]
                    out[ni, ci, i, j] = acc + b[ci]
    return out


def pointwise_direct(x, w, b):
    n, cin, h, wd = x.shape
    cout = w.shape[0]
    out = np.zeros((n, cout, h, wd), dtype=np.float64)
    for ni in range(n):
        for co in range(cout):
            for i in range(h):
                for j in range(wd):
                    acc = 0.0
                    for ci in range(cin):
                        acc += x[ni, ci, i, j] * w[co, ci]
                    out[ni, co, i, j] = acc + b[co]
    return out


def gap_loops(x):
    n, c, h, w = x.shape
    out = np.zeros((n, c, 1, 1), dtype=np.float64)
    for ni in range(n):
        for ci in range(c):
            acc = 0.0
            for i in range(h):
                for j in range(w):
                    acc += x[ni, ci, i, j]
            out[ni, ci, 0, 0] = acc / (h * w)
    return out


def _reflect(i, n):
    # pad-1 reflect: index -1 mirrors to 1, index n mirrors to n-2
    if i < 0:
        return -i
    if i >= n:
        return 2 * n - 2 - i
    return i


def blurpool_direct(x):
    """3x3 binomial blur with reflect padding, then stride-2 subsample."""
    kernel = np.outer([1.0, 2.0, 1.0], [1.0, 2.0, 1.0]) / 16.0
    n, c, h, w = x.shape
    oh, ow = (h + 1) // 2, (w + 1) // 2
    out = np.zeros((n, c, oh, ow), dtype=np.float64)
    for ni in range(n):
        for ci in range(c):
            for i in range(oh):
                for j in range(ow):
                    acc = 0.0
                    for u in range(3):
                        for v in range(3):
                            r = _reflect(2 * i + u - 1, h)
                            cc = _reflect(2 * j + v - 1, w)
                            acc += kernel[u, v] * x[ni, ci, r, cc]
                    out[ni, ci, i, j] = acc
    return out


def finite_diff(f, x, eps=1e-5):
    """Central finite differences of scalar f() w.r.t. the array x (in place)."""
    g = np.zeros(x.shape, dtype=np.float64)
    flat = x.ravel()
    gf = g.ravel()
    for i in range(flat.size):
        orig = flat[i]
        flat[i] = orig + eps
        fp = f()
        flat[i] = orig - eps
        fm = f()
        flat[i] = orig
        gf[i] = (fp - fm) / (2.0 * eps)
    return g


def max_rel_err(a, b, floor=1e-3):
    """Max over elements of |a-b| / max(|a|, |b|, floor)."""
    a = np.asarray(a, dtype=np.float64)
    b = np.asarray(b, dtype=np.float64)
    denom = np.maximum(np.maximum(np.abs(a), np.abs(b)), floor)
    return float(np.max(np.abs(a - b) / denom)) if a.size else 0.0
