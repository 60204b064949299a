import tracemalloc

import numpy as np
import pytest

from lightcnn import bench, layers, tensor, zoo
from lightcnn.layers import (
    LayerSpec, make_layer, Network,
    CONV3, CONV_DW, RELU, MAXPOOL2, BLURPOOL2, GAP,
    SQUEEZE_EXCITE, DENSE, SOFTMAX,
)
from lightcnn.tensor import Rng

import oracles


def _layer(kind, cin=3, cout=4, seed=0):
    return make_layer(LayerSpec(kind, in_channels=cin, out_channels=cout), Rng(seed))


def _zoo_conv3_shapes():
    """(cin, cout, h, w) of each conv3 input of the zoo at 28x28, and of
    custom590_3x3 at 56x56 (the c3_590_bpse benchmark model), sorted."""
    shapes = set()
    runs = [(name, (1, 28, 28)) for name in zoo.ARCH_NAMES]
    for name, dims in runs + [("custom590_3x3", (1, 56, 56))]:
        x = np.zeros((1,) + dims, np.float32)
        for spec in zoo.arch_spec(name, input_dims=dims):
            if spec.kind == CONV3:
                shapes.add((spec.in_channels, spec.out_channels) + x.shape[2:])
            x = make_layer(spec, None).forward(x, train=False)
    return sorted(shapes)


def _normal(shape, seed):
    return Rng(seed).normal_array(int(np.prod(shape))).reshape(shape).astype(np.float32)


_OPENBLAS_ONLY = pytest.mark.skipif(
    "openblas" not in bench._blas_name().lower(),
    reason="GEMM rounding by row and column count was measured with OpenBLAS")


class TestConv3x3:
    def test_matches_direct_loops(self, f64):
        rng = Rng(11)
        for case in range(30):
            n = rng.below(3) + 1
            cin = rng.below(4) + 1
            cout = rng.below(4) + 1
            h = rng.below(6) + 3
            w = rng.below(6) + 3
            lay = _layer(CONV3, cin, cout, seed=case)
            x = rng.normal_array(n * cin * h * w).reshape(n, cin, h, w)
            got = lay.forward(x)
            want = oracles.conv3x3_direct(x, lay.w, lay.b)
            assert oracles.max_rel_err(got, want) < 1e-10

    @pytest.mark.parametrize("k", [1, 2])
    def test_chunked_passes_match_direct_loops(self, f64, monkeypatch, k):
        # a budget of k + 1/2 images' columns splits a batch of 5 into chunks
        # of k: 1 each (the custom590_3x3 16->16 layer at 56x56), or 2, 2 and 1
        n, cin, cout, h, w = 5, 3, 4, 7, 6
        monkeypatch.setattr(layers, "_CHUNK_BYTES", (2 * k + 1) * 9 * cin * h * w * 8 // 2)
        assert layers._chunk_images(cin, h, w, 8) == k
        lay = _layer(CONV3, cin, cout, seed=41)
        lay.b[:] = Rng(42).normal_array(cout)
        x = Rng(43).normal_array(n * cin * h * w).reshape(n, cin, h, w)
        want = oracles.conv3x3_direct(x, lay.w, lay.b)
        for train in (False, True):
            assert oracles.max_rel_err(lay.forward(x, train=train), want) < 1e-10

    @_OPENBLAS_ONLY
    def test_full_chunks_match_whole_batch_at_zoo_shapes(self, monkeypatch):
        # in float32, a forward in balanced chunks gives the bytes of one
        # whole-batch chunk at every zoo conv3 shape, for batches of 2k, k + 1
        # and 3k + 1 (k images fill _CHUNK_BYTES).  Chunks of k with a short
        # last one did not: 16->32 at 14x14 for n = 19 and 55, and 32->64 at
        # 7x7 for n = 38 and 112 (the module docstring says why).
        shapes = _zoo_conv3_shapes()
        assert len(shapes) == 18
        budget = layers._CHUNK_BYTES
        for cin, cout, h, w in shapes:
            k = layers._chunk_images(cin, h, w, 4)
            lay = _layer(CONV3, cin, cout, seed=cout)
            for n in (2 * k, k + 1, 3 * k + 1):
                x = Rng(cin + n).normal_array(n * cin * h * w).reshape(n, cin, h, w)
                x = x.astype(np.float32)
                monkeypatch.setattr(layers, "_CHUNK_BYTES", n * 9 * cin * h * w * 4)
                whole = lay.forward(x, train=False)
                monkeypatch.setattr(layers, "_CHUNK_BYTES", budget)
                chunked = lay.forward(x, train=False)
                assert chunked.tobytes() == whole.tobytes(), (cin, cout, h, w, n)

    def test_chunked_gradients_stay_near_float64_at_zoo_shapes(self):
        # the w gradient sums one GEMM per chunk and the input gradient is a
        # chunked forward of the output gradient, so in float32 both round
        # differently from one whole-batch GEMM.  Each must stay within 1e-5
        # of its largest entry from the float64 whole-batch products, for
        # batches of k + 1 and 3k + 1 (k images fill _CHUNK_BYTES).
        shapes = _zoo_conv3_shapes()
        assert len(shapes) == 18
        for cin, cout, h, w in shapes:
            k = layers._chunk_images(cin, h, w, 4)
            lay = _layer(CONV3, cin, cout, seed=cout)
            for n in (k + 1, 3 * k + 1):
                x = _normal((n, cin, h, w), cin + n)
                g = _normal((n, cout, h, w), cout + n)
                lay.forward(x, train=True)
                dx = lay.backward(g)
                gmat = g.astype(np.float64).transpose(1, 0, 2, 3).reshape(cout, -1)
                want_w = gmat @ layers._im2col3(x.astype(np.float64)).T
                wm = lay.w.astype(np.float64).reshape(cout, -1)
                dcols = (wm.T @ gmat).reshape(cin, 3, 3, n, h, w)
                want_x = np.zeros((cin, n, h + 2, w + 2))
                for u in range(3):
                    for v in range(3):
                        want_x[:, :, u : u + h, v : v + w] += dcols[:, u, v]
                want_x = want_x[:, :, 1:-1, 1:-1].transpose(1, 0, 2, 3)
                for got, want in ((lay.grads()["w"].reshape(cout, -1), want_w), (dx, want_x)):
                    err = np.abs(got - want).max() / np.abs(want).max()
                    assert err < 1e-5, (cin, cout, h, w, n, err)

    def test_backward_peak_stays_below_whole_batch_columns(self):
        # 16->16 at 28x28, batch 64: the whole batch's columns take 28.9 MB.
        # Beyond the output gradient's matrix and the input gradient, the
        # backward holds about one chunk's columns and its GEMM output.
        x = _normal((64, 16, 28, 28), 10)
        g = _normal((64, 16, 28, 28), 11)
        lay = _layer(CONV3, 16, 16, seed=12)
        lay.forward(x, train=True)
        tracemalloc.start()
        try:
            before = tracemalloc.get_traced_memory()[0]
            lay.backward(g)
            peak = tracemalloc.get_traced_memory()[1] - before
        finally:
            tracemalloc.stop()
        assert peak < 2 * x.nbytes + 2 * layers._CHUNK_BYTES

    def test_training_forward_retains_only_its_output(self):
        # the cache references the input, which the caller holds anyway; the
        # 9x larger im2col columns are unfolded again in backward
        x = Rng(8).normal_array(8 * 16 * 28 * 28).reshape(8, 16, 28, 28).astype(np.float32)
        lay = _layer(CONV3, 16, 16, seed=9)
        tracemalloc.start()
        try:
            before = tracemalloc.get_traced_memory()[0]
            out = lay.forward(x, train=True)
            retained = tracemalloc.get_traced_memory()[0] - before
        finally:
            tracemalloc.stop()
        assert out.nbytes <= retained < out.nbytes + 4096

    def test_identity_kernel(self, f64):
        # a kernel with 1 at the centre and zero bias copies the input
        lay = _layer(CONV3, 2, 2)
        lay.w[:] = 0.0
        lay.b[:] = 0.0
        for c in range(2):
            lay.w[c, c, 1, 1] = 1.0
        x = Rng(3).normal_array(2 * 2 * 5 * 5).reshape(2, 2, 5, 5)
        np.testing.assert_allclose(lay.forward(x), x, atol=1e-15)

    def test_param_count(self):
        lay = _layer(CONV3, 5, 7)
        assert lay.param_count() == 9 * 5 * 7 + 7


class TestDepthwiseSeparable:
    def test_matches_composed_oracles(self, f64):
        rng = Rng(21)
        for case in range(30):
            n = rng.below(3) + 1
            cin = rng.below(4) + 1
            cout = rng.below(4) + 1
            h = rng.below(6) + 3
            w = rng.below(6) + 3
            lay = _layer(CONV_DW, cin, cout, seed=100 + case)
            x = rng.normal_array(n * cin * h * w).reshape(n, cin, h, w)
            got = lay.forward(x)
            mid = oracles.depthwise3_direct(x, lay.dw_w, lay.dw_b)
            want = oracles.pointwise_direct(mid, lay.pw_w, lay.pw_b)
            assert oracles.max_rel_err(got, want) < 1e-10

    def test_wide_channels_match_composed_oracles(self, f64):
        # the 315-channel, 4x4 shape of custom590_dw's last stage; the random
        # cases above stop at 4 channels
        lay = _layer(CONV_DW, 315, 315, seed=7)
        rng = Rng(22)
        lay.dw_b[:] = rng.normal_array(315)
        lay.pw_b[:] = rng.normal_array(315)
        x = rng.normal_array(315 * 4 * 4).reshape(1, 315, 4, 4)
        got = lay.forward(x)
        mid = oracles.depthwise3_direct(x, lay.dw_w, lay.dw_b)
        want = oracles.pointwise_direct(mid, lay.pw_w, lay.pw_b)
        assert oracles.max_rel_err(got, want) < 1e-10

    def test_param_count(self):
        # 3x3 per-channel stage + its bias, then 1x1 mixing stage + its bias
        lay = _layer(CONV_DW, 6, 10)
        assert lay.param_count() == 9 * 6 + 6 + 6 * 10 + 10

    def test_fewer_params_than_full_conv(self):
        # holds whenever cout exceeds 9/8, i.e. for every real layer here
        for cin, cout in [(8, 16), (16, 16), (32, 64), (3, 2)]:
            dw = _layer(CONV_DW, cin, cout).param_count()
            full = _layer(CONV3, cin, cout).param_count()
            assert dw < full


class TestReLU:
    def test_halfwave(self):
        lay = _layer(RELU, 2, 2)
        x = np.array([[-1.0, 0.0], [2.5, -0.5]], np.float32).reshape(1, 1, 2, 2)
        np.testing.assert_array_equal(
            lay.forward(x).ravel(), [0.0, 0.0, 2.5, 0.0])

    def test_idempotent(self, rng):
        lay = _layer(RELU, 4, 4)
        x = rng.normal_array(64).reshape(1, 4, 4, 4)
        once = lay.forward(x)
        np.testing.assert_array_equal(lay.forward(once), once)

    def test_no_params(self):
        assert _layer(RELU, 4, 4).param_count() == 0


class TestMaxPool2:
    def test_2x2_blocks(self):
        lay = _layer(MAXPOOL2, 1, 1)
        x = np.array([[1, 2, 5, 3],
                      [4, 0, 1, 2],
                      [7, 8, 2, 2],
                      [3, 1, 0, 9]], np.float32).reshape(1, 1, 4, 4)
        np.testing.assert_array_equal(
            lay.forward(x)[0, 0], [[4.0, 5.0], [8.0, 9.0]])

    def test_odd_edge_kept(self):
        # ceil mode: a 5-wide row pools to 3, the last cell covering one column
        lay = _layer(MAXPOOL2, 1, 1)
        x = np.arange(25, dtype=np.float32).reshape(1, 1, 5, 5)
        y = lay.forward(x)
        assert y.shape == (1, 1, 3, 3)
        assert y[0, 0, 2, 2] == 24.0

    def test_ties_route_gradient_to_first_cell(self):
        # window order is (0,0), (0,1), (1,0), (1,1); a tie goes to the first
        lay = _layer(MAXPOOL2, 1, 1)
        x = np.array([[3, 3, 0, 1],
                      [3, 3, 2, 2]], np.float32).reshape(1, 1, 2, 4)
        lay.forward(x)
        dx = lay.backward(np.array([[[[5.0, 7.0]]]], np.float32))
        np.testing.assert_array_equal(dx[0, 0], [[5, 0, 0, 0], [0, 0, 7, 0]])

    def test_training_forward_retains_one_byte_per_output(self):
        # the cached window index is 0..3, one uint8 per pooled output
        x = _normal((8, 32, 28, 28), 13)
        lay = _layer(MAXPOOL2, 32, 32)
        tracemalloc.start()
        try:
            before = tracemalloc.get_traced_memory()[0]
            out = lay.forward(x, train=True)
            retained = tracemalloc.get_traced_memory()[0] - before
        finally:
            tracemalloc.stop()
        assert out.nbytes + out.size <= retained < out.nbytes + out.size + 4096

    def test_max_never_below_input_mean(self, rng):
        lay = _layer(MAXPOOL2, 1, 1)
        for _ in range(10):
            x = rng.normal_array(36).reshape(1, 1, 6, 6)
            y = lay.forward(x)
            assert y.max() == x.max()


class TestBlurPool2:
    def test_matches_direct(self, f64):
        rng = Rng(41)
        for _ in range(20):
            n = rng.below(2) + 1
            c = rng.below(3) + 1
            h = rng.below(6) + 2
            w = rng.below(6) + 2
            lay = _layer(BLURPOOL2, c, c)
            x = rng.normal_array(n * c * h * w).reshape(n, c, h, w)
            want = oracles.blurpool_direct(x)
            assert oracles.max_rel_err(lay.forward(x), want) < 1e-12

    def test_constant_preserved(self, f64):
        # the binomial kernel sums to one, so flat inputs stay flat
        lay = _layer(BLURPOOL2, 1, 1)
        x = np.full((1, 1, 6, 6), 3.25)
        np.testing.assert_allclose(lay.forward(x), 3.25, atol=1e-12)

    def test_shape_halves(self):
        lay = _layer(BLURPOOL2, 2, 2)
        assert lay.forward(np.zeros((1, 2, 8, 8), np.float32)).shape == (1, 2, 4, 4)
        assert lay.forward(np.zeros((1, 2, 7, 7), np.float32)).shape == (1, 2, 4, 4)

    def test_tiny_input_rejected(self):
        lay = _layer(BLURPOOL2, 1, 1)
        with pytest.raises(ValueError):
            lay.forward(np.zeros((1, 1, 1, 4), np.float32))

    def test_shift_changes_output_less_than_maxpool(self, f64):
        # anti-aliased pooling is the point: a one-pixel shift should move
        # the blurred output less than it moves plain max pooling
        rng = Rng(17)
        blur_deltas, max_deltas = [], []
        for _ in range(20):
            x = rng.normal_array(1 * 1 * 12 * 12).reshape(1, 1, 12, 12)
            x = np.cumsum(np.cumsum(x, axis=2), axis=3)  # smooth-ish signal
            xs = np.roll(x, 1, axis=3)
            bl = _layer(BLURPOOL2, 1, 1)
            mp = _layer(MAXPOOL2, 1, 1)
            blur_deltas.append(np.abs(bl.forward(x) - bl.forward(xs)).mean())
            max_deltas.append(np.abs(mp.forward(x) - mp.forward(xs)).mean())
        assert np.mean(blur_deltas) < np.mean(max_deltas)


class TestPad1:
    @pytest.mark.parametrize("reflect", [False, True])
    @pytest.mark.parametrize("dtype", [np.float32, np.float64])
    @pytest.mark.parametrize("shape", [
        (1, 1, 5, 5), (1, 1, 4, 6), (2, 3, 7, 4), (1, 2, 2, 2), (2, 1, 2, 5),
        (1, 1, 1, 5), (2, 2, 6, 1), (1, 1, 1, 1)])
    def test_matches_numpy_pad_byte_for_byte(self, shape, dtype, reflect):
        n, c, h, w = shape
        x = Rng(7).normal_array(n * c * h * w).reshape(shape).astype(dtype)
        # signed zero and non-finite values where the border copies from
        x[:, :, 0, min(1, w - 1)] = np.nan
        x[:, :, min(1, h - 1), 0] = -0.0
        x[:, :, h - 1, max(w - 2, 0)] = np.inf
        x[:, :, max(h - 2, 0), w - 1] = -np.inf
        want = np.pad(x, ((0, 0), (0, 0), (1, 1), (1, 1)),
                      mode="reflect" if reflect else "constant")
        got = layers._pad1(x, reflect)
        assert (got.dtype, got.shape) == (want.dtype, want.shape)
        assert got.tobytes() == want.tobytes()


class TestGlobalAvgPool:
    def test_matches_loops(self, f64, rng):
        lay = _layer(GAP, 3, 3)
        x = rng.normal_array(2 * 3 * 5 * 4).reshape(2, 3, 5, 4)
        want = oracles.gap_loops(x)
        assert oracles.max_rel_err(lay.forward(x), want) < 1e-12

    def test_output_shape(self):
        lay = _layer(GAP, 7, 7)
        assert lay.forward(np.zeros((2, 7, 4, 4), np.float32)).shape == (2, 7, 1, 1)

    def test_backward_allocates_no_input_sized_array(self):
        # the gradient is a read-only broadcast view of grad_out / (h*w)
        x = _normal((8, 16, 32, 32), 3)
        lay = _layer(GAP, 16, 16)
        g = lay.forward(x, train=True)
        tracemalloc.start()
        try:
            before = tracemalloc.get_traced_memory()[0]
            dx = lay.backward(g)
            peak = tracemalloc.get_traced_memory()[1] - before
        finally:
            tracemalloc.stop()
        assert peak < x.nbytes // 64
        np.testing.assert_array_equal(dx, np.broadcast_to(g / (32 * 32), x.shape))


class TestSqueezeExcite:
    def test_gate_bounded(self, rng):
        lay = _layer(SQUEEZE_EXCITE, 8, 8)
        x = rng.normal_array(2 * 8 * 4 * 4).reshape(2, 8, 4, 4)
        y = lay.forward(x)
        # each output element is the input scaled by a gate in (0, 1)
        ratio = y / np.where(np.abs(x) < 1e-12, 1.0, x)
        mask = np.abs(x) >= 1e-12
        assert np.all(ratio[mask] > 0.0)
        assert np.all(ratio[mask] < 1.0)

    def test_gate_constant_per_channel(self, f64, rng):
        lay = _layer(SQUEEZE_EXCITE, 4, 4)
        x = rng.normal_array(1 * 4 * 3 * 3).reshape(1, 4, 3, 3) + 5.0
        y = lay.forward(x)
        g = y / x
        for c in range(4):
            assert g[0, c].std() < 1e-12

    def test_zero_weights_give_half_gate(self, f64):
        lay = _layer(SQUEEZE_EXCITE, 4, 4)
        for p in (lay.w1, lay.b1, lay.w2, lay.b2):
            p[:] = 0.0
        x = np.full((1, 4, 2, 2), 2.0)
        np.testing.assert_allclose(lay.forward(x), 1.0, atol=1e-12)

    def test_hidden_width_floor(self):
        lay = _layer(SQUEEZE_EXCITE, 2, 2)
        assert lay.w1.shape == (1, 2)  # max(1, 2 // SE_REDUCTION)

    def test_param_count(self):
        lay = _layer(SQUEEZE_EXCITE, 16, 16)
        hidden = 4  # 16 // SE_REDUCTION, written out: saved models depend on it
        assert lay.param_count() == 16 * hidden + hidden + hidden * 16 + 16


class TestDense:
    def test_matches_matmul(self, f64, rng):
        lay = _layer(DENSE, 6, 3)
        x = rng.normal_array(2 * 6).reshape(2, 6, 1, 1)
        y = lay.forward(x)
        want = x.reshape(2, 6) @ lay.w.T + lay.b
        np.testing.assert_allclose(y.reshape(2, 3), want, atol=1e-12)

    def test_param_count(self):
        assert _layer(DENSE, 64, 10).param_count() == 64 * 10 + 10


class TestSoftmax:
    def test_rows_sum_to_one(self, rng):
        lay = _layer(SOFTMAX, 5, 5)
        x = rng.normal_array(3 * 5).reshape(3, 5, 1, 1) * 10.0
        y = lay.forward(x)
        np.testing.assert_allclose(y.sum(axis=1).ravel(), 1.0, rtol=1e-6)
        assert np.all(y > 0.0)

    def test_shift_invariant(self, f64):
        lay = _layer(SOFTMAX, 4, 4)
        x = Rng(5).normal_array(2 * 4).reshape(2, 4, 1, 1)
        np.testing.assert_allclose(lay.forward(x), lay.forward(x + 100.0), atol=1e-12)

    def test_extreme_logits_stable(self):
        lay = _layer(SOFTMAX, 3, 3)
        x = np.array([1000.0, 0.0, -1000.0], np.float32).reshape(1, 3, 1, 1)
        y = lay.forward(x)
        assert np.isfinite(y).all()
        np.testing.assert_allclose(y.sum(), 1.0, rtol=1e-6)


class TestLayerContracts:
    KINDS = layers.KINDS

    def test_forward_is_pure(self, f64):
        # same layer, same input, run twice: bit-identical output,
        # input buffer untouched
        rng = Rng(55)
        for kind in self.KINDS:
            cin = 4
            if kind in (DENSE, SOFTMAX):
                x = rng.normal_array(2 * cin).reshape(2, cin, 1, 1)
            else:
                x = rng.normal_array(2 * cin * 6 * 6).reshape(2, cin, 6, 6)
            lay = _layer(kind, cin, cin)
            snap = x.copy()
            y1 = lay.forward(x)
            y2 = lay.forward(x)
            np.testing.assert_array_equal(y1, y2)
            np.testing.assert_array_equal(x, snap)

    def test_backward_before_forward_raises(self):
        for kind in self.KINDS:
            lay = _layer(kind, 4, 4)
            with pytest.raises(RuntimeError):
                lay.backward(np.zeros((2, 4, 3, 3), np.float32))

    def test_second_backward_needs_new_forward(self, f64):
        # a training cache is handed to one backward and then dropped
        rng = Rng(8)
        for kind in self.KINDS:
            lay = _layer(kind, 4, 4)
            side = 1 if kind in (DENSE, SOFTMAX) else 6
            y = lay.forward(rng.normal_array(2 * 4 * side * side).reshape(2, 4, side, side))
            lay.backward(np.ones_like(y))
            assert lay._cache is None, kind
            with pytest.raises(RuntimeError):
                lay.backward(np.ones_like(y))

    def test_no_rng_starts_from_zeros(self):
        # a model file's weights overwrite these, so nothing is drawn
        for kind in self.KINDS:
            seeded = _layer(kind, 4, 4).params()
            bare = make_layer(LayerSpec(kind, 4, 4), None).params()
            assert bare.keys() == seeded.keys(), kind
            for name, arr in bare.items():
                assert arr.shape == seeded[name].shape and not arr.any(), (kind, name)
                assert arr.dtype == tensor.default_dtype(), (kind, name)

    def test_bad_spec_rejected(self):
        with pytest.raises(ValueError):
            LayerSpec(CONV3, in_channels=0, out_channels=4)
        with pytest.raises(ValueError):
            LayerSpec("warp", in_channels=4, out_channels=4)
        with pytest.raises(ValueError):
            LayerSpec(RELU, in_channels=4, out_channels=5)  # must preserve c

    def test_param_count_matches_arrays(self):
        for kind in self.KINDS:
            lay = _layer(kind, 8, 12) if kind in (CONV3, CONV_DW, DENSE) \
                else _layer(kind, 8, 8)
            total = sum(v.size for v in lay.params().values())
            assert lay.param_count() == total


class TestNetwork:
    def _tiny_net(self, seed=0):
        specs = [
            LayerSpec(CONV3, 1, 4),
            LayerSpec(RELU, 4, 4),
            LayerSpec(MAXPOOL2, 4, 4),
            LayerSpec(GAP, 4, 4),
            LayerSpec(DENSE, 4, 3),
            LayerSpec(SOFTMAX, 3, 3),
        ]
        return Network("tiny", [make_layer(s, Rng(seed + i))
                                for i, s in enumerate(specs)],
                       input_dims=(1, 8, 8), num_classes=3)

    def test_forward_shape_and_simplex(self, rng):
        net = self._tiny_net()
        x = rng.normal_array(2 * 1 * 8 * 8).reshape(2, 1, 8, 8)
        y = net.forward(x)
        assert y.shape == (2, 3, 1, 1)
        np.testing.assert_allclose(y.sum(axis=1).ravel(), 1.0, rtol=1e-5)

    def test_forward_bit_identical(self, rng):
        net = self._tiny_net()
        x = rng.normal_array(1 * 1 * 8 * 8).reshape(1, 1, 8, 8)
        np.testing.assert_array_equal(net.forward(x), net.forward(x))

    def test_logits_softmax_consistent(self, f64, rng):
        net = self._tiny_net()
        x = rng.normal_array(1 * 1 * 8 * 8).reshape(1, 1, 8, 8)
        z = net.forward_logits(x)
        sm = _layer(SOFTMAX, 3, 3)
        np.testing.assert_allclose(net.forward(x), sm.forward(z), atol=1e-12)

    def test_param_round_trip(self, rng):
        net = self._tiny_net()
        x = rng.normal_array(1 * 1 * 8 * 8).reshape(1, 1, 8, 8)
        before = net.forward(x)
        snap = {k: v.copy() for k, v in net.params().items()}
        other = self._tiny_net(seed=100)
        other.set_params(snap)
        np.testing.assert_array_equal(other.forward(x), before)

    def test_set_params_validates(self):
        net = self._tiny_net()
        good = {k: v.copy() for k, v in net.params().items()}
        bad = dict(good)
        first = next(iter(bad))
        bad[first] = np.zeros((1, 1), np.float32)
        with pytest.raises(ValueError):
            net.set_params(bad)
        del good[first]
        with pytest.raises(ValueError):
            net.set_params(good)

    def test_param_count_totals(self):
        net = self._tiny_net()
        assert net.param_count() == sum(v.size for v in net.params().values())

    def test_stack_must_end_in_softmax(self):
        layers_ = self._tiny_net().layers
        for stack in (layers_[:-1], layers_[-1:] + layers_[:-1], []):
            with pytest.raises(ValueError, match="^tiny: the layer stack must end in softmax$"):
                Network("tiny", stack, input_dims=(1, 8, 8), num_classes=3)

    def test_wrong_input_dims_rejected(self):
        net = self._tiny_net()
        with pytest.raises(ValueError):
            net.forward(np.zeros((1, 2, 8, 8), np.float32))
        with pytest.raises(ValueError):
            net.forward(np.zeros((1, 1, 9, 8), np.float32))
