import math

import numpy as np
import pytest

from lightcnn import layers, zoo
from lightcnn import train as tr
from lightcnn.augment import OP_ORDER
from lightcnn.data import synth, split
from lightcnn.layers import (
    LayerSpec, Network, make_layer, CONV3, RELU, MAXPOOL2, GAP, DENSE, SOFTMAX,
)
from lightcnn.tensor import Rng
from lightcnn.train import (
    one_hot, smooth_labels, cross_entropy, softmax_rows, Sgd, cosine_lr,
    SwaState, swa_start_epoch, TrainConfig, TrainReport, EpochRow,
    train, evaluate,
)

from oracles import finite_diff, max_rel_err


def probe_net(num_classes=10, in_hw=28, seed=0, width=8):
    """A small two-conv network used as a training probe."""
    specs = [
        LayerSpec(CONV3, 1, width),
        LayerSpec(RELU, width, width),
        LayerSpec(MAXPOOL2, width, width),
        LayerSpec(CONV3, width, 2 * width),
        LayerSpec(RELU, 2 * width, 2 * width),
        LayerSpec(MAXPOOL2, 2 * width, 2 * width),
        LayerSpec(GAP, 2 * width, 2 * width),
        LayerSpec(DENSE, 2 * width, num_classes),
        LayerSpec(SOFTMAX, num_classes, num_classes),
    ]
    layers = [make_layer(s, Rng.derive(seed, 9, i)) for i, s in enumerate(specs)]
    return Network("probe", layers, (1, in_hw, in_hw), num_classes)


class TestSmoothLabels:
    def test_alpha_zero_unchanged(self):
        y = one_hot(3, 10)
        np.testing.assert_array_equal(smooth_labels(y, 0.0, 10), y)

    def test_alpha_point1_exact(self):
        got = smooth_labels(one_hot(0, 10), 0.1, 10)
        want = np.full(10, 0.01)
        want[0] = 0.91
        np.testing.assert_array_equal(got, want)

    def test_sums_to_one_on_grid(self):
        for num_classes in (2, 3, 10, 17):
            for alpha in (0.0, 0.05, 0.1, 0.3, 0.9):
                out = smooth_labels(one_hot(1, num_classes), alpha, num_classes)
                assert abs(out.sum() - 1.0) < 1e-12
                if alpha > 0:
                    assert np.all(out > 0.0)

    def test_rejects_non_one_hot(self):
        with pytest.raises(ValueError):
            smooth_labels(np.full(10, 0.1), 0.1, 10)
        with pytest.raises(ValueError):
            smooth_labels(np.zeros(10), 0.1, 10)

    def test_rejects_bad_alpha(self):
        for alpha in (-0.1, 1.0):
            with pytest.raises(ValueError):
                smooth_labels(one_hot(0, 10), alpha, 10)

    def test_batched_forms_match_stacked_rows(self):
        labels = np.array([3, 0, 9, 3, 5])
        batch = one_hot(labels, 10)
        np.testing.assert_array_equal(batch, np.stack([one_hot(l, 10) for l in labels]))
        for alpha in (0.0, 0.1, 0.3):
            np.testing.assert_array_equal(
                smooth_labels(batch, alpha, 10),
                np.stack([smooth_labels(one_hot(l, 10), alpha, 10) for l in labels]))

    def test_batch_with_one_bad_row_rejected(self):
        labels = np.array([1, 2, 3])
        batch = one_hot(labels, 10)
        smooth_labels(batch, 0.1, 10)
        batch[1, 4] = 1.0
        with pytest.raises(ValueError, match="one-hot"):
            smooth_labels(batch, 0.1, 10)
        with pytest.raises(ValueError, match="label 10 out of range"):
            one_hot(np.array([1, 10, 3]), 10)


class TestCrossEntropy:
    def test_perfect_prediction_near_zero(self):
        y = one_hot(2, 5)
        pred = np.full(5, 1e-12)
        pred[2] = 1.0 - 4e-12
        loss, _ = cross_entropy(y, pred)
        assert 0.0 <= loss < 1e-11

    def test_uniform_prediction_ln_k(self):
        y = one_hot(0, 10)
        loss, _ = cross_entropy(y, np.full(10, 0.1))
        assert abs(loss - math.log(10)) < 1e-9

    def test_nonnegative_always(self):
        rng = Rng(13)
        for _ in range(200):
            pred = softmax_rows(rng.normal_array(8).reshape(1, 8))[0]
            loss, _ = cross_entropy(one_hot(rng.below(8), 8), pred)
            assert loss >= 0.0

    def test_fused_gradient_matches_fd(self, f64):
        # loss as a function of logits; analytic gradient is y_pred - y
        rng = Rng(99)
        for _ in range(5):
            logits = rng.normal_array(6).reshape(1, 6)
            y = one_hot(rng.below(6), 6)

            def loss():
                return cross_entropy(y, softmax_rows(logits)[0])[0]

            _, grad = cross_entropy(y, softmax_rows(logits)[0])
            want = finite_diff(loss, logits)
            assert max_rel_err(grad, want[0], floor=1e-6) < 1e-6

    def test_batch_mean_and_grad_scale(self):
        y = np.stack([one_hot(0, 4), one_hot(1, 4)])
        pred = np.full((2, 4), 0.25)
        loss, grad = cross_entropy(y, pred)
        assert abs(loss - math.log(4)) < 1e-12
        np.testing.assert_allclose(grad, (pred - y) / 2, atol=1e-15)

    def test_floor_clamps(self):
        y = one_hot(0, 3)
        pred = np.array([0.0, 0.5, 0.5])
        loss, _ = cross_entropy(y, pred)
        assert loss == pytest.approx(-math.log(1e-12))

    def test_shape_mismatch(self):
        with pytest.raises(ValueError):
            cross_entropy(np.zeros(3), np.zeros(4))


class TestSgd:
    def test_zero_lr_freezes(self):
        w = np.array([1.0, -2.0])
        Sgd(0.9).step({"w": w}, {"w": np.array([5.0, 5.0])}, lr=0.0)
        np.testing.assert_array_equal(w, [1.0, -2.0])

    def test_plain_descent_step(self):
        w = np.array([5.0])
        Sgd(0.0).step({"w": w}, {"w": np.array([1.0])}, lr=1.0)
        np.testing.assert_array_equal(w, [4.0])

    def test_quadratic_decay(self):
        # minimizing w^2: each step multiplies w by (1 - 2*lr)
        w = np.array([1.0])
        opt = Sgd(0.0)
        for _ in range(50):
            opt.step({"w": w}, {"w": 2.0 * w}, lr=0.1)
        assert abs(w[0]) < 1e-4

    def test_momentum_accumulates(self):
        w = np.array([0.0])
        opt = Sgd(0.5)
        opt.step({"w": w}, {"w": np.array([1.0])}, lr=1.0)   # v=-1, w=-1
        opt.step({"w": w}, {"w": np.array([0.0])}, lr=1.0)   # v=-0.5, w=-1.5
        np.testing.assert_allclose(w, [-1.5])

    def test_shape_mismatch_rejected(self):
        with pytest.raises(ValueError):
            Sgd(0.0).step({"w": np.zeros(3)}, {"w": np.zeros(4)}, lr=0.1)

    def test_missing_grad_rejected(self):
        with pytest.raises(ValueError):
            Sgd(0.0).step({"w": np.zeros(3)}, {}, lr=0.1)


class TestCosine:
    def test_endpoints(self):
        assert cosine_lr(0, 10, 0.01, 1e-4) == pytest.approx(0.01)
        assert cosine_lr(9, 10, 0.01, 1e-4) == pytest.approx(1e-4)

    def test_monotone_decreasing(self):
        vals = [cosine_lr(e, 20, 0.01, 1e-4) for e in range(20)]
        assert all(a >= b for a, b in zip(vals, vals[1:]))

    def test_single_epoch(self):
        assert cosine_lr(0, 1, 0.01, 1e-4) == 0.01


class TestSwa:
    def test_constant_snapshots(self):
        params = {"w": np.array([2.0, 3.0])}
        swa = SwaState(0)
        for epoch in range(5):
            swa.update(params, epoch)
        np.testing.assert_array_equal(swa.averaged["w"], [2.0, 3.0])

    def test_two_point_mean(self):
        swa = SwaState(0)
        swa.update({"w": np.array([2.0])}, 0)
        swa.update({"w": np.array([4.0])}, 1)
        np.testing.assert_array_equal(swa.averaged["w"], [3.0])

    def test_running_mean_matches_batch_mean(self):
        rng = Rng(55)
        snaps = [rng.normal_array(4) for _ in range(10)]
        swa = SwaState(0)
        for epoch, s in enumerate(snaps):
            swa.update({"w": s}, epoch)
        want = np.mean(snaps, axis=0)
        assert max_rel_err(swa.averaged["w"], want, floor=1e-9) < 1e-12

    def test_noop_before_start(self):
        swa = SwaState(start_epoch=3)
        swa.update({"w": np.array([1.0])}, 2)
        assert swa.n_models == 0
        swa.update({"w": np.array([1.0])}, 3)
        assert swa.n_models == 1

    def test_start_epoch_rule(self):
        assert swa_start_epoch(15) == 12  # ceil(0.75 * 15) = 12
        assert swa_start_epoch(4) == 3
        assert swa_start_epoch(1) == 1


class TestReport:
    def test_csv_shape(self):
        rep = TrainReport()
        rep.add(EpochRow(0, 2.3, 0.1, 0.12, 1.5))
        rep.add(EpochRow(1, 1.9, 0.3, 0.28, 1.4))
        text = rep.to_csv()
        lines = text.strip().split("\n")
        assert lines[0] == "epoch,train_loss,train_acc,eval_acc,seconds"
        assert len(lines) == 3
        assert lines[1].startswith("0,2.300000,0.100000,0.120000,")

    def test_accuracy_bounds(self):
        rep = TrainReport()
        with pytest.raises(ValueError):
            rep.add(EpochRow(0, 1.0, 1.2, 0.5, 1.0))


class TestMixupLinearity:
    def test_loss_linear_in_targets(self):
        # CE is linear in y, so the mixed-target loss must equal the blend
        rng = Rng(31)
        for _ in range(50):
            pred = softmax_rows(rng.normal_array(10).reshape(1, 10))[0]
            y_i = one_hot(rng.below(10), 10)
            y_j = one_hot(rng.below(10), 10)
            d = rng.uniform()
            mixed = d * y_i + (1 - d) * y_j
            la, _ = cross_entropy(mixed, pred)
            li, _ = cross_entropy(y_i, pred)
            lj, _ = cross_entropy(y_j, pred)
            assert abs(la - (d * li + (1 - d) * lj)) < 1e-9


class TestEvaluate:
    def test_constant_logits_balanced(self):
        ds = synth(10, 10, dims=16, seed=0)
        net = probe_net(10, 16, seed=0)
        # zero out the classifier so logits are constant across classes
        params = net.params()
        params["07.dense.w"][:] = 0.0
        params["07.dense.b"][:] = 0.0
        acc, per_class, _ = evaluate(net, ds)
        assert acc == pytest.approx(0.1)
        # argmax ties resolve to class 0
        assert per_class[0] == 1.0
        assert per_class[1:].sum() == 0.0

    def test_perfect_oracle(self):
        # bake the answer into the image: pixel (0,0) holds the label
        images = np.zeros((20, 1, 8, 8))
        labels = np.arange(20) % 4
        images[:, 0, 0, 0] = labels / 4.0

        class Oracle:
            num_classes = 4

            def forward_logits(self, x, train=False):
                lab = np.rint(x[:, 0, 0, 0] * 4).astype(int)
                out = np.zeros((len(lab), 4, 1, 1), x.dtype)
                out[np.arange(len(lab)), lab] = 10.0
                return out

        from lightcnn.data import Dataset, default_names
        ds = Dataset(images, labels, 4, default_names(4))
        acc, per_class, _ = evaluate(Oracle(), ds)
        assert acc == 1.0
        np.testing.assert_array_equal(per_class, 1.0)

    def test_matches_hand_rolled_loop(self):
        ds = synth(4, 15, dims=16, seed=8)
        net = probe_net(4, 16, seed=11)  # mixed per-class hits: 0, 0, 7/15, 12/15
        acc, per_class, _ = evaluate(net, ds)
        hits, totals = np.zeros(4), np.zeros(4)
        for i in range(len(ds)):
            probs = net.forward(ds.images[i : i + 1].astype(np.float32))
            totals[ds.labels[i]] += 1
            if int(np.argmax(probs[0, :, 0, 0])) == ds.labels[i]:
                hits[ds.labels[i]] += 1
        assert acc == pytest.approx(hits.sum() / len(ds))
        np.testing.assert_array_equal(per_class, hits / totals)

    def test_empty_rejected(self):
        from lightcnn.data import Dataset, default_names
        ds = Dataset(np.zeros((0, 1, 8, 8)), np.zeros(0, np.int64), 4,
                     default_names(4))
        with pytest.raises(ValueError):
            evaluate(probe_net(4, 8), ds)

    def test_non_finite_outputs_rejected(self):
        # finite weights whose float32 forward pass overflows
        ds = synth(2, 10, dims=16, seed=0)
        net = probe_net(2, 16, seed=0)
        net.params()["07.dense.w"][:] = 3e38
        with np.errstate(all="ignore"), \
                pytest.raises(ValueError, match=r"not finite on images 0\.\.19"):
            evaluate(net, ds)


class TestTrainLoop:
    def _tiny_data(self):
        ds = synth(4, 20, dims=16, seed=5)
        return split(ds, 0.75, seed=1)

    def test_zero_lr_is_frozen(self):
        train_ds, eval_ds = self._tiny_data()
        net = probe_net(4, 16, seed=2)
        before, _, _ = evaluate(net, eval_ds)
        cfg = TrainConfig(epochs=1, batch_size=16, lr=0.0, lr_min=0.0, seed=3)
        report, _, _ = train(net, train_ds, eval_ds, cfg)
        after, _, _ = evaluate(net, eval_ds)
        assert before == after
        assert len(report.rows) == 1

    def test_diverging_step_stops_before_epoch_end(self):
        # four steps per epoch; the second step's loss is the first non-finite one
        train_ds, eval_ds = self._tiny_data()
        net = zoo.build("custom140_dw", input_dims=(1, 16, 16), num_classes=4,
                        seed=1)
        cfg = TrainConfig(epochs=1, batch_size=16, lr=1e6, seed=3)
        with np.errstate(all="ignore"), pytest.raises(
                ValueError, match=r"^training diverged: loss is nan at epoch 1, step 2$"):
            train(net, train_ds, eval_ds, cfg)

    def test_zero_epochs_noop(self):
        train_ds, eval_ds = self._tiny_data()
        net = probe_net(4, 16, seed=2)
        snap = {k: v.copy() for k, v in net.params().items()}
        report, final, swa_params = train(net, train_ds, eval_ds,
                                          TrainConfig(epochs=0, use_swa=True))
        assert report.rows == []
        assert swa_params is None
        for k in snap:
            np.testing.assert_array_equal(final[k], snap[k])

    def test_same_seed_bit_identical(self):
        train_ds, eval_ds = self._tiny_data()
        cfg = TrainConfig(epochs=2, batch_size=16, seed=11, use_mixup=True,
                          smoothing=0.1, augment={"hflip": 0.5, "cutout": 0.5})
        runs = []
        for _ in range(2):
            net = probe_net(4, 16, seed=2)
            _, final, _ = train(net, train_ds, eval_ds, cfg)
            runs.append(final)
        for k in runs[0]:
            np.testing.assert_array_equal(runs[0][k], runs[1][k])

    def test_loop_runs_the_tested_target_and_mixup_code(self, monkeypatch):
        called = set()

        def spy(name):
            real = getattr(tr, name)

            def wrapped(*args, **kwargs):
                called.add(name)
                return real(*args, **kwargs)
            return wrapped

        for name in ("one_hot", "smooth_labels", "mixup"):
            monkeypatch.setattr(tr, name, spy(name))
        train_ds, eval_ds = self._tiny_data()
        cfg = TrainConfig(epochs=1, batch_size=16, use_mixup=True, smoothing=0.1)
        train(probe_net(4, 16, seed=2), train_ds, eval_ds, cfg)
        assert called == {"one_hot", "smooth_labels", "mixup"}

    def test_non_finite_loss_stops_the_run(self):
        train_ds, eval_ds = self._tiny_data()
        net = probe_net(4, 16, seed=2)
        net.layers[-2].b[0] = np.nan
        with pytest.raises(ValueError, match="epoch 1, step 1"):
            train(net, train_ds, eval_ds, TrainConfig(epochs=2, batch_size=16))

    def test_seed_changes_weights(self):
        train_ds, eval_ds = self._tiny_data()
        finals = []
        for seed in (1, 2):
            net = probe_net(4, 16, seed=2)
            _, final, _ = train(net, train_ds, eval_ds,
                                TrainConfig(epochs=1, batch_size=16, seed=seed))
            finals.append(final)
        assert any(not np.array_equal(finals[0][k], finals[1][k])
                   for k in finals[0])

    def test_swa_snapshot_equality(self):
        # lr=0 keeps every snapshot identical, so the SWA average must
        # evaluate exactly like the raw weights
        train_ds, eval_ds = self._tiny_data()
        net = probe_net(4, 16, seed=7)
        cfg = TrainConfig(epochs=4, batch_size=16, lr=0.0, lr_min=0.0,
                          use_swa=True, seed=0)
        _, final, swa_params = train(net, train_ds, eval_ds, cfg)
        assert swa_params is not None
        for k in final:
            np.testing.assert_allclose(swa_params[k], final[k], atol=1e-6)

    def test_class_count_mismatch(self):
        train_ds, eval_ds = self._tiny_data()
        net = probe_net(10, 16, seed=0)  # 10 outputs vs 4 classes
        with pytest.raises(ValueError):
            train(net, train_ds, eval_ds, TrainConfig(epochs=1))

    def test_no_path_calls_numpy_pad(self, monkeypatch):
        # the layers pad by slice copies (layers._pad1), never through numpy.pad
        def refuse(*args, **kwargs):
            raise AssertionError("numpy.pad was called")
        monkeypatch.setattr(np, "pad", refuse)
        ds = synth(10, 2, dims=28, seed=4)
        net = zoo.build("custom140_dw", seed=1, blurpool=True, squeeze_excite=True)
        net.forward(ds.images[:1].astype(np.float32), train=False)
        # one evaluation batch of 20: the 16 -> 16 conv3 at 28x28 unfolds in chunks
        assert layers._chunk_images(16, 28, 28, 4) < len(ds)
        evaluate(net, ds)
        cfg = TrainConfig(epochs=1, batch_size=10, seed=2,
                          augment={op: 1.0 for op in OP_ORDER})
        report, _, _ = train(net, ds, ds, cfg)
        assert len(report.rows) == 1

    def test_loss_decreases_on_probe(self):
        train_ds, eval_ds = self._tiny_data()
        net = probe_net(4, 16, seed=4)
        cfg = TrainConfig(epochs=5, batch_size=16, lr=0.05, seed=1)
        report, _, _ = train(net, train_ds, eval_ds, cfg)
        losses = [r.train_loss for r in report.rows]
        assert losses[-1] < losses[0]


class TestSeparabilityCertificate:
    def test_probe_cnn_95pct_in_10_epochs(self):
        # the synthetic generator's contract: a two-conv probe must separate
        # the classes almost perfectly inside ten epochs
        ds = synth(10, 200, dims=28, seed=0)
        net = probe_net(10, 28, seed=1, width=8)
        cfg = TrainConfig(epochs=10, batch_size=64, lr=0.05, lr_min=0.005,
                          seed=2)
        report, _, _ = train(net, ds, ds, cfg)
        assert report.rows[-1].train_acc >= 0.95
