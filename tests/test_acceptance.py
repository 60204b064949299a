"""Shipping acceptance suite: one test per release criterion.

Each test prints a single ``criterion N: PASS — <evidence>`` line (shown
with ``pytest -s``; the per-test PASSED/FAILED line from ``pytest -v`` is
the machine-readable verdict).  Tolerances and time budgets are pinned
here as constants rather than imported, so a change to library defaults
cannot silently relax the gate.
"""

import math
import os
import time
from pathlib import Path

import numpy as np
import pytest

from lightcnn import bench, data, zoo
from lightcnn import train as train_mod
from lightcnn.augment import mixup
from lightcnn.cli import main
from lightcnn.layers import (
    LayerSpec, Network, make_layer,
    CONV3, CONV_DW, RELU, MAXPOOL2, BLURPOOL2, GAP,
    SQUEEZE_EXCITE, DENSE, SOFTMAX,
)
from lightcnn.tensor import Rng, using_dtype
from lightcnn.train import TrainConfig, cross_entropy, one_hot, smooth_labels

from oracles import (
    conv3x3_direct, depthwise3_direct, pointwise_direct,
    finite_diff, max_rel_err,
)

CONFIG_DIR = Path(__file__).resolve().parent.parent / "configs"

BUDGET_TOL = 0.02          # each architecture within 2% of its budget
PAIR_TOL = 0.04            # DW and 3x3 siblings within 4% of each other
GRAD_TOL = 1e-4            # per-layer finite-difference agreement
NET_GRAD_TOL = 1e-3        # whole-network finite-difference agreement
ORACLE_TOL = 1e-10         # im2col vs direct-loop forward agreement
FORMULA_TOL = 1e-9         # closed-form loss values

EXPECTED_CONV_COUNTS = {   # architecture -> number of conv layers
    "custom590_dw": 12, "custom590_3x3": 8,
    "custom340_dw": 11, "custom340_3x3": 7,
    "custom140_dw": 9, "custom140_3x3": 7,
}


def test_criterion_01_parameter_budgets():
    t0 = time.perf_counter()
    counts = {}
    for name in zoo.ARCH_NAMES:
        total, _ = zoo.count_params(zoo.build(name))
        budget = zoo.PARAM_BUDGETS[name]
        assert abs(total - budget) / budget <= BUDGET_TOL, \
            f"{name}: {total} vs budget {budget}"
        counts[name] = total
    for budget in ("140", "340", "590"):
        three = counts[f"custom{budget}_3x3"]
        dw = counts[f"custom{budget}_dw"]
        assert abs(dw - three) / three <= PAIR_TOL, \
            f"{budget}K pair differs by {abs(dw - three) / three:.2%}"
    assert time.perf_counter() - t0 < 1.0
    summary = ", ".join(f"{k}={v:,}" for k, v in sorted(counts.items()))
    print(f"criterion 1: PASS — budgets within ±2%, pairs within 4% ({summary})")


def test_criterion_02_depth_dividend():
    t0 = time.perf_counter()
    actual = {}
    for name in EXPECTED_CONV_COUNTS:
        spec = zoo.arch_spec(name)
        actual[name] = sum(1 for s in spec if s.kind in (CONV3, CONV_DW))
    assert actual == EXPECTED_CONV_COUNTS
    for budget in ("140", "340", "590"):
        assert actual[f"custom{budget}_dw"] > actual[f"custom{budget}_3x3"]
    assert time.perf_counter() - t0 < 1.0
    print("criterion 2: PASS — conv depths 12v8, 11v7, 9v7; DW strictly deeper")


def _rand(rng, *shape):
    return rng.normal_array(int(np.prod(shape))).reshape(shape)


def _grad_errors(lay, x):
    """Worst relative error across input and parameter gradients."""
    g_out = _rand(Rng(999), *lay.forward(x).shape)

    def loss():
        return float((lay.forward(x) * g_out).sum())

    lay.forward(x)
    dx = lay.backward(g_out.copy())
    worst = max_rel_err(dx, finite_diff(loss, x))
    for name, param in lay.params().items():
        want = finite_diff(loss, param)
        lay.forward(x)  # restore cache clobbered by the probes
        lay.backward(g_out.copy())
        worst = max(worst, max_rel_err(lay.grads()[name], want))
    return worst


# (kind, cin, cout, input h/w); squeeze-excite at 8 channels has a 2-wide
# hidden layer
_LAYER_CASES = [
    (CONV3, 2, 3, 5),
    (CONV_DW, 3, 4, 5),
    (RELU, 2, 2, 5),
    (MAXPOOL2, 2, 2, 6),
    (BLURPOOL2, 2, 2, 6),
    (GAP, 3, 3, 4),
    (SQUEEZE_EXCITE, 8, 8, 4),
    (DENSE, 6, 4, 1),
    (SOFTMAX, 5, 5, 1),
]


def test_criterion_03_gradients_match_finite_differences():
    t0 = time.perf_counter()
    with using_dtype("float64"):
        for kind, cin, cout, hw in _LAYER_CASES:
            for trial in range(5):
                lay = make_layer(LayerSpec(kind, in_channels=cin, out_channels=cout),
                                 Rng.derive(17, trial))
                x = _rand(Rng.derive(18, trial), 2, cin, hw, hw)
                if kind == RELU:
                    x = np.where(np.abs(x) < 0.1, x + 0.5, x)  # off the kink
                err = _grad_errors(lay, x)
                assert err < GRAD_TOL, f"{kind} trial {trial}: {err:.2e}"

        # whole network at tiny width
        specs = [
            LayerSpec(CONV3, 1, 3),
            LayerSpec(RELU, 3, 3),
            LayerSpec(BLURPOOL2, 3, 3),
            LayerSpec(CONV_DW, 3, 8),
            LayerSpec(RELU, 8, 8),
            LayerSpec(SQUEEZE_EXCITE, 8, 8),  # hidden width 8 // SE_REDUCTION = 2
            LayerSpec(MAXPOOL2, 8, 8),
            LayerSpec(GAP, 8, 8),
            LayerSpec(DENSE, 8, 3),
            LayerSpec(SOFTMAX, 3, 3),
        ]
        net = Network("fd-probe",
                      [make_layer(s, Rng(40 + i)) for i, s in enumerate(specs)],
                      input_dims=(1, 8, 8), num_classes=3)
        rng = Rng(12345)
        x = _rand(rng, 2, 1, 8, 8)
        x = np.where(np.abs(x) < 0.1, x + 0.3, x)
        g_out = _rand(rng, 2, 3, 1, 1)

        def net_loss():
            return float((net.forward_logits(x) * g_out).sum())

        net.forward_logits(x)
        dx = net.backward_from_logits(g_out.copy())
        worst = max_rel_err(dx, finite_diff(net_loss, x))
        for key in ("00.conv3.w", "03.conv_dw.pw_w", "05.squeeze_excite.w2",
                    "08.dense.b"):
            want = finite_diff(net_loss, net.params()[key])
            net.forward_logits(x)
            net.backward_from_logits(g_out.copy())
            worst = max(worst, max_rel_err(net.grads()[key], want))
        assert worst < NET_GRAD_TOL, f"whole-net error {worst:.2e}"
    elapsed = time.perf_counter() - t0
    assert elapsed < 120
    print(f"criterion 3: PASS — {len(_LAYER_CASES)}x5 layer checks < {GRAD_TOL}, "
          f"whole-net {worst:.1e} < {NET_GRAD_TOL}, in {elapsed:.1f}s")


def test_criterion_04_convolution_oracles():
    t0 = time.perf_counter()
    with using_dtype("float64"):
        worst = 0.0
        for case in range(100):
            rng = Rng.derive(23, case)
            n, c_in, c_out = 1 + case % 2, 1 + case % 3, 1 + case % 4
            h, w = 3 + case % 4, 3 + (case // 2) % 4
            lay = make_layer(LayerSpec(CONV3, in_channels=c_in, out_channels=c_out),
                             Rng.derive(23, case, 1))
            lay.b[...] = rng.normal_array(c_out)
            x = _rand(rng, n, c_in, h, w)
            want = conv3x3_direct(x, lay.w, lay.b)
            worst = max(worst, max_rel_err(lay.forward(x), want))

        for case in range(100):
            rng = Rng.derive(29, case)
            n, c_in, c_out = 1 + case % 2, 1 + case % 4, 1 + case % 3
            h, w = 3 + (case // 3) % 4, 3 + case % 4
            lay = make_layer(LayerSpec(CONV_DW, in_channels=c_in, out_channels=c_out),
                             Rng.derive(29, case, 1))
            lay.dw_b[...] = rng.normal_array(c_in)
            lay.pw_b[...] = rng.normal_array(c_out)
            x = _rand(rng, n, c_in, h, w)
            mid = depthwise3_direct(x, lay.dw_w, lay.dw_b)
            want = pointwise_direct(mid, lay.pw_w, lay.pw_b)
            worst = max(worst, max_rel_err(lay.forward(x), want))
    elapsed = time.perf_counter() - t0
    assert worst < ORACLE_TOL, f"worst relative deviation {worst:.2e}"
    assert elapsed < 30
    print(f"criterion 4: PASS — 100+100 conv cases, worst {worst:.1e} "
          f"< {ORACLE_TOL}, in {elapsed:.1f}s")


def test_criterion_05_loss_formulas():
    t0 = time.perf_counter()
    smoothed = smooth_labels(one_hot(0, 10), 0.1, 10)
    np.testing.assert_array_equal(
        smoothed, np.array([0.91] + [0.01] * 9, dtype=smoothed.dtype))

    uniform = np.full(10, 0.1)
    loss, _ = cross_entropy(one_hot(3, 10), uniform)
    assert abs(loss - math.log(10)) <= FORMULA_TOL

    rng = Rng(77)
    x_i = rng.uniform_array(25).reshape(1, 1, 5, 5)
    x_j = rng.uniform_array(25).reshape(1, 1, 5, 5)
    y_i, y_j = one_hot(1, 4), one_hot(2, 4)
    x_mix, y_mix = mixup(x_i, x_j, y_i, y_j, 1.0)
    np.testing.assert_array_equal(x_mix, x_i)
    np.testing.assert_array_equal(y_mix, y_i)
    x_mix, y_mix = mixup(x_i, x_j, y_i, y_j, 0.0)
    np.testing.assert_array_equal(x_mix, x_j)
    np.testing.assert_array_equal(y_mix, y_j)
    assert time.perf_counter() - t0 < 1.0
    print("criterion 5: PASS — smoothing [0.91, 0.01x9] exact, "
          "CE(uniform)=ln10, mixup endpoints exact")


def _smoke_training_run():
    ds = data.synth(10, 200, dims=28, seed=7)
    net = zoo.build("custom590_dw", seed=0)
    cfg = TrainConfig(epochs=15, batch_size=64, lr=0.01, lr_min=1e-4, seed=0)
    report, params, _ = train_mod.train(net, ds, ds, cfg)
    return report, params


@pytest.mark.slow
def test_criterion_06_smoke_training_determinism():
    assert os.environ.get("OMP_NUM_THREADS") == "1", "thread pinning lost"
    t0, cpu0 = time.perf_counter(), time.process_time()
    report_a, params_a = _smoke_training_run()
    first_hit = next((r for r in report_a.rows if r.train_acc >= 0.90), None)
    assert first_hit is not None, \
        f"best train_acc {max(r.train_acc for r in report_a.rows):.4f} < 0.90"
    report_b, params_b = _smoke_training_run()
    elapsed = time.perf_counter() - t0
    # CPU seconds well under the wall time point at a busy host, not slower code
    cpu = time.process_time() - cpu0
    assert elapsed < 600, f"two runs took {elapsed:.0f}s ({cpu:.0f}s CPU)"

    for ra, rb in zip(report_a.rows, report_b.rows):
        assert (ra.epoch, ra.train_loss, ra.train_acc, ra.eval_acc) == \
            (rb.epoch, rb.train_loss, rb.train_acc, rb.eval_acc)
    assert params_a.keys() == params_b.keys()
    for key in params_a:
        np.testing.assert_array_equal(params_a[key], params_b[key])
    print(f"criterion 6: PASS — {first_hit.train_acc:.1%} at epoch "
          f"{first_hit.epoch}; rerun bit-identical; both runs in {elapsed:.0f}s "
          f"({cpu:.0f}s CPU)")


def test_criterion_07_technique_flags_compose():
    t0 = time.perf_counter()
    ds = data.synth(4, 40, dims=16, seed=3)
    train_ds, eval_ds = data.split(ds, 0.8, seed=3)
    base = dict(epochs=2, batch_size=32, lr=0.05, lr_min=0.005, seed=1)

    runs = {
        "blurpool": (dict(blurpool=True), {}),
        "se": (dict(squeeze_excite=True), {}),
        "swa": ({}, dict(use_swa=True)),
        "mixup": ({}, dict(use_mixup=True)),
        "label_smoothing": ({}, dict(smoothing=0.1)),
        "cutout": ({}, dict(augment={"cutout": 1.0})),
        "all": (dict(blurpool=True, squeeze_excite=True),
                dict(use_swa=True, use_mixup=True, smoothing=0.1,
                     augment={"cutout": 1.0})),
    }
    for label, (build_kw, train_kw) in runs.items():
        net = zoo.build("custom140_dw", input_dims=(1, 16, 16), num_classes=4,
                        seed=1, **build_kw)
        report, _, swa_params = train_mod.train(
            net, train_ds, eval_ds, TrainConfig(**base, **train_kw))
        assert len(report.rows) == 2, f"{label}: run did not complete"
        if train_kw.get("use_swa"):
            assert swa_params is not None, f"{label}: no averaged weights"

    # frozen weights make every snapshot identical, so the average must
    # equal the snapshot exactly
    net = zoo.build("custom140_dw", input_dims=(1, 16, 16), num_classes=4,
                    seed=1)
    init = {k: v.copy() for k, v in net.params().items()}
    _, final, swa_params = train_mod.train(
        net, train_ds, eval_ds,
        TrainConfig(epochs=2, batch_size=32, lr=0.0, lr_min=0.0, seed=1,
                    use_swa=True))
    for key in init:
        np.testing.assert_array_equal(final[key], init[key])
        np.testing.assert_array_equal(swa_params[key], init[key])
    elapsed = time.perf_counter() - t0
    assert elapsed < 900
    print(f"criterion 7: PASS — 7 flag combinations completed, SWA of "
          f"identical snapshots equals snapshot, in {elapsed:.0f}s")


def test_criterion_08_latency_protocol():
    t0 = time.perf_counter()
    config = bench.BenchConfig(batch_size=32, warmup_iters=5, measure_iters=30,
                               seed=0)
    models = [zoo.build(name, seed=0) for name in zoo.ARCH_NAMES]
    report = bench.compare(models, config)

    for suffix in ("_3x3", "_dw"):
        group = sorted((r for r in report.rows if r.model.endswith(suffix)),
                       key=lambda r: r.params)
        medians = [r.indiv.median_ms for r in group]
        assert all(a <= b for a, b in zip(medians, medians[1:])), \
            f"{suffix} group medians not monotone: {medians}"
    for r in report.rows:
        assert r.indiv.median_ms <= r.batch.median_ms, \
            f"{r.model}: batch-1 {r.indiv.median_ms:.2f}ms " \
            f"> batch-32 {r.batch.median_ms:.2f}ms"
    elapsed = time.perf_counter() - t0
    assert elapsed < 120
    recorded = "; ".join(f"{r.model} {r.indiv.median_ms:.2f}/{r.batch.median_ms:.2f}ms"
                         for r in report.rows)
    print(f"criterion 8: PASS — medians monotone per conv type, batch-1 <= "
          f"batch-32, in {elapsed:.0f}s (recorded: {recorded})")


def _final_eval_acc(report_path):
    lines = report_path.read_text().strip().splitlines()
    return float(lines[-1].split(",")[3]), len(lines) - 1


@pytest.mark.slow
def test_criterion_09_augmentation_pair(tmp_path, capsys):
    t0 = time.perf_counter()
    ds_path = tmp_path / "digits.cds"
    data.save_container(data.synth(10, 100, dims=28, seed=5), ds_path)
    accs = {}
    for label in ("augment-off", "augment-on"):
        out = tmp_path / f"{label}.cnm"
        code = main(["train", "--config", str(CONFIG_DIR / f"{label}.cfg"),
                     "--data", str(ds_path), "--out", str(out)])
        assert code == 0, f"{label} run failed"
        acc, n_rows = _final_eval_acc(out.with_suffix(".csv"))
        assert n_rows == 8, f"{label}: expected 8 epochs, got {n_rows}"
        accs[label] = acc
    capsys.readouterr()  # drop the CLI echo; keep our own line below
    elapsed = time.perf_counter() - t0
    assert elapsed < 1200
    delta = accs["augment-on"] - accs["augment-off"]
    print(f"criterion 9: PASS — pair ran in {elapsed:.0f}s; eval_acc "
          f"{accs['augment-off']:.4f} -> {accs['augment-on']:.4f} "
          f"(delta {delta:+.4f}, reported not asserted)")


def test_criterion_10_format_round_trips(tmp_path):
    t0 = time.perf_counter()

    ds = data.synth(3, 5, dims=8, seed=2)
    p1, p2 = tmp_path / "a.cds", tmp_path / "b.cds"
    data.save_container(ds, p1)
    loaded = data.load_container(p1)
    data.save_container(loaded, p2)
    assert p1.read_bytes() == p2.read_bytes()
    reloaded = data.load_container(p2)
    np.testing.assert_array_equal(loaded.images, reloaded.images)
    np.testing.assert_array_equal(loaded.labels, reloaded.labels)

    net = zoo.build("custom140_dw", seed=4, squeeze_excite=True)
    m1, m2 = tmp_path / "a.cnm", tmp_path / "b.cnm"
    zoo.save_model(net, m1)
    loaded_net = zoo.load_model(m1)
    zoo.save_model(loaded_net, m2)
    assert m1.read_bytes() == m2.read_bytes()
    assert loaded_net.name == net.name
    for key, arr in net.params().items():
        np.testing.assert_array_equal(loaded_net.params()[key], arr)

    bad = tmp_path / "bad.cds"
    bad.write_bytes(b"XXXX" + p1.read_bytes()[4:])
    with pytest.raises(ValueError, match="magic"):
        data.load_container(bad)
    cut = tmp_path / "cut.cds"
    cut.write_bytes(p1.read_bytes()[:len(p1.read_bytes()) // 2])
    with pytest.raises(ValueError, match="truncated"):
        data.load_container(cut)

    badm = tmp_path / "bad.cnm"
    badm.write_bytes(b"XXXX" + m1.read_bytes()[4:])
    with pytest.raises(ValueError, match="magic"):
        zoo.load_model(badm)
    cutm = tmp_path / "cut.cnm"
    cutm.write_bytes(m1.read_bytes()[:len(m1.read_bytes()) // 2])
    with pytest.raises(ValueError, match="truncated"):
        zoo.load_model(cutm)

    elapsed = time.perf_counter() - t0
    assert elapsed < 5
    print(f"criterion 10: PASS — dataset and model containers round-trip "
          f"byte-identically; corruption errors raised; {elapsed:.1f}s")
