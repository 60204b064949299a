"""Finite-difference verification of every backward pass.

Each check builds the scalar loss L = sum(forward(x) * G) for a fixed random
weighting G, so dL/dy = G feeds backward() directly while central differences
probe the same loss numerically.  All checks run in float64.
"""

import numpy as np
import pytest

from lightcnn.layers import (
    LayerSpec, make_layer, Network,
    CONV3, CONV_DW, POINTWISE, RELU, MAXPOOL2, BLURPOOL2, GAP,
    SQUEEZE_EXCITE, DENSE, SOFTMAX,
)
from lightcnn.tensor import Rng

from oracles import finite_diff, max_rel_err

TOL = 1e-4
NET_TOL = 1e-3


def _check_layer(lay, x, tol=TOL):
    """Compare analytic input/parameter grads against central differences."""
    g_out = Rng(999).normal_array(lay.forward(x).size).reshape(lay.forward(x).shape)

    def loss():
        return float((lay.forward(x) * g_out).sum())

    dx = lay.backward(g_out.copy())
    err = max_rel_err(dx, finite_diff(loss, x))
    assert err < tol, f"input grad rel err {err:.3e}"

    lay.forward(x)
    lay.backward(g_out.copy())
    for name, param in lay.params().items():
        want = finite_diff(loss, param)
        lay.forward(x)  # restore cache after the probes
        lay.backward(g_out.copy())
        got = lay.grads()[name]
        err = max_rel_err(got, want)
        assert err < tol, f"{name} grad rel err {err:.3e}"


def _make(kind, cin, cout, stride=1, seed=0):
    return make_layer(LayerSpec(kind, in_channels=cin, out_channels=cout,
                                stride=stride, se_reduction=4), Rng(seed))


def _input(rng, n, c, h, w):
    return rng.normal_array(n * c * h * w).reshape(n, c, h, w)


class TestLayerGradients:
    def test_conv3x3(self, f64):
        for seed in range(5):
            rng = Rng(1000 + seed)
            stride = 2 if seed % 2 else 1
            lay = _make(CONV3, 2, 3, stride, seed)
            _check_layer(lay, _input(rng, 2, 2, 5, 5))

    def test_depthwise_separable(self, f64):
        for seed in range(5):
            rng = Rng(2000 + seed)
            stride = 2 if seed % 2 else 1
            lay = _make(CONV_DW, 3, 4, stride, seed)
            _check_layer(lay, _input(rng, 2, 3, 5, 5))

    def test_pointwise(self, f64):
        for seed in range(5):
            rng = Rng(3000 + seed)
            lay = _make(POINTWISE, 3, 5, 1, seed)
            _check_layer(lay, _input(rng, 2, 3, 4, 4))

    def test_relu(self, f64):
        for seed in range(5):
            rng = Rng(4000 + seed)
            x = _input(rng, 2, 3, 4, 4)
            x = np.where(np.abs(x) < 0.1, x + 0.3, x)  # keep clear of the kink
            _check_layer(_make(RELU, 3, 3, 1, seed), x)

    def test_maxpool(self, f64):
        for seed in range(5):
            rng = Rng(5000 + seed)
            # continuous random input: ties have measure zero
            _check_layer(_make(MAXPOOL2, 2, 2, 1, seed), _input(rng, 2, 2, 5, 5))

    def test_blurpool(self, f64):
        # odd and even squares, then non-square down to the smallest legal 2x3
        shapes = [(5 + seed % 2,) * 2 for seed in range(5)] + [(5, 6), (2, 3)]
        for seed, (h, w) in enumerate(shapes):
            rng = Rng(6000 + seed)
            _check_layer(_make(BLURPOOL2, 2, 2, 1, seed), _input(rng, 2, 2, h, w))

    def test_gap(self, f64):
        for seed in range(5):
            rng = Rng(7000 + seed)
            _check_layer(_make(GAP, 3, 3, 1, seed), _input(rng, 2, 3, 4, 5))

    def test_squeeze_excite(self, f64):
        for seed in range(5):
            rng = Rng(8000 + seed)
            _check_layer(_make(SQUEEZE_EXCITE, 8, 8, 1, seed),
                         _input(rng, 2, 8, 4, 4))

    def test_dense(self, f64):
        for seed in range(5):
            rng = Rng(9000 + seed)
            _check_layer(_make(DENSE, 6, 4, 1, seed), _input(rng, 3, 6, 1, 1))

    def test_softmax(self, f64):
        for seed in range(5):
            rng = Rng(10_000 + seed)
            _check_layer(_make(SOFTMAX, 5, 5, 1, seed), _input(rng, 3, 5, 1, 1))


class TestNetworkGradient:
    def _net(self):
        specs = [
            LayerSpec(CONV3, 1, 3),
            LayerSpec(RELU, 3, 3),
            LayerSpec(BLURPOOL2, 3, 3),
            LayerSpec(CONV_DW, 3, 4),
            LayerSpec(RELU, 4, 4),
            LayerSpec(SQUEEZE_EXCITE, 4, 4, se_reduction=2),
            LayerSpec(MAXPOOL2, 4, 4),
            LayerSpec(GAP, 4, 4),
            LayerSpec(DENSE, 4, 3),
            LayerSpec(SOFTMAX, 3, 3),
        ]
        return Network("grad-probe",
                       [make_layer(s, Rng(40 + i)) for i, s in enumerate(specs)],
                       input_dims=(1, 8, 8), num_classes=3)

    def test_end_to_end_logit_gradients(self, f64):
        net = self._net()
        rng = Rng(12345)
        x = _input(rng, 2, 1, 8, 8)
        x = np.where(np.abs(x) < 0.1, x + 0.3, x)
        g_out = rng.normal_array(2 * 3).reshape(2, 3, 1, 1)

        def loss():
            return float((net.forward_logits(x) * g_out).sum())

        net.forward_logits(x)
        dx = net.backward_from_logits(g_out.copy())
        err = max_rel_err(dx, finite_diff(loss, x))
        assert err < NET_TOL, f"net input grad rel err {err:.3e}"

        params = net.params()
        for name in ["00.conv3.w", "03.conv_dw.pw_w", "05.squeeze_excite.w2",
                     "08.dense.b"]:
            want = finite_diff(loss, params[name])
            net.forward_logits(x)
            net.backward_from_logits(g_out.copy())
            got = net.grads()[name]
            err = max_rel_err(got, want)
            assert err < NET_TOL, f"{name} rel err {err:.3e}"
