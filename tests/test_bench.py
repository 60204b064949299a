import csv
import io

import numpy as np
import pytest

from lightcnn import THREAD_VARS, bench, zoo
from lightcnn.bench import (
    BenchConfig, BenchReport, BenchRow, LatencyStats, CSV_HEADER,
    measure_all, compare, emit,
)
from lightcnn.layers import LayerSpec, Network, make_layer, CONV3, GAP, DENSE, SOFTMAX
from lightcnn.tensor import Rng

FAST = BenchConfig(batch_size=8, warmup_iters=2, measure_iters=15)


def tiny_net(width=4, seed=0, name="tiny"):
    specs = [
        LayerSpec(CONV3, 1, width),
        LayerSpec(GAP, width, width),
        LayerSpec(DENSE, width, 10),
        LayerSpec(SOFTMAX, 10, 10),
    ]
    return Network(name, [make_layer(s, Rng.derive(seed, i)) for i, s in
                          enumerate(specs)], (1, 28, 28), 10)


class TestConfig:
    def test_defaults(self):
        cfg = BenchConfig()
        assert cfg.batch_size == 32
        assert cfg.warmup_iters == 10
        assert cfg.measure_iters == 100

    def test_validation(self):
        with pytest.raises(ValueError):
            BenchConfig(batch_size=0)
        with pytest.raises(ValueError):
            BenchConfig(measure_iters=0)


class TestStats:
    def test_median_inside_band(self):
        with pytest.raises(ValueError):
            LatencyStats(5.0, p5_ms=6.0, p95_ms=7.0)
        LatencyStats(5.0, p5_ms=4.0, p95_ms=7.0)  # fine


class TestMeasure:
    def test_returns_ordered_stats(self):
        batch, indiv = measure_all([tiny_net()], FAST)[0]
        for s in (batch, indiv):
            assert s.p5_ms <= s.median_ms <= s.p95_ms
            assert s.median_ms > 0.0

    def test_individual_not_slower_than_batch(self):
        # one image is an eighth of the work of a batch of eight
        batch, indiv = measure_all([tiny_net(width=16)], FAST)[0]
        assert indiv.median_ms <= batch.median_ms

    def test_consecutive_runs_close(self):
        # stability contract: medians from two identical runs within 25%,
        # timed round-robin as measure_all times models compared together,
        # so a stall of the host lands on both
        cfg = BenchConfig(batch_size=8, warmup_iters=3, measure_iters=31)
        net = tiny_net(width=16)
        a, b = [s for s, _ in measure_all([net, net], cfg)]
        assert abs(a.median_ms - b.median_ms) <= 0.25 * max(a.median_ms,
                                                            b.median_ms)


class TestCompare:
    def test_empty_rejected(self):
        with pytest.raises(ValueError):
            compare([], FAST)

    def test_single_model_unit_ratios(self):
        report = compare([tiny_net()], FAST)
        assert len(report.rows) == 1
        assert report.rows[0].param_ratio == pytest.approx(1.0)
        assert report.rows[0].speedup == pytest.approx(1.0)

    def test_rows_follow_input_order(self):
        nets = [tiny_net(4, name="a"), tiny_net(8, name="b")]
        report = compare(nets, FAST)
        assert [r.model for r in report.rows] == ["a", "b"]

    def test_ratio_against_largest(self):
        small = tiny_net(4, name="small")
        big = tiny_net(32, name="big")
        report = compare([small, big], FAST)
        by_name = {r.model: r for r in report.rows}
        assert by_name["big"].param_ratio == pytest.approx(1.0)
        want = big.param_count() / small.param_count()
        assert by_name["small"].param_ratio == pytest.approx(want)


    def test_rows_name_weight_digests(self):
        nets = [tiny_net(4, name="a"), tiny_net(8, name="b")]
        report = compare(nets, FAST)
        assert [r.weights_digest for r in report.rows] == [
            zoo.weights_digest(net.params()) for net in nets]


class TestEmit:
    def _report(self):
        def stats(m):
            return LatencyStats(m, m * 0.9, m * 1.2)
        rows = [
            BenchRow("net_a", 1000, 2.0, stats(1.0), stats(0.5), 2.0, "0a" * 32),
            BenchRow("net_b", 2000, 1.0, stats(2.0), stats(1.0), 1.0, "0b" * 32),
        ]
        return BenchReport(BenchConfig(), rows)

    def test_csv_header_exact(self):
        text = emit(self._report(), "csv")
        rows = [l for l in text.splitlines() if not l.startswith("#")]
        assert rows[0] == CSV_HEADER == ("model,params,param_ratio,batch_ms,indiv_ms,speedup,"
                                         "batch_p5,batch_p95,indiv_p5,indiv_p95,"
                                         "weights_digest")

    def test_csv_percentile_columns_appended(self):
        text = emit(self._report(), "csv")
        body = [l.split(",") for l in text.splitlines() if not l.startswith("#")]
        assert body[0][6:10] == ["batch_p5", "batch_p95", "indiv_p5", "indiv_p95"]
        for r in body[1:]:
            assert float(r[6]) <= float(r[3]) <= float(r[7])  # batch band
            assert float(r[8]) <= float(r[4]) <= float(r[9])  # indiv band

    def test_csv_parses_cleanly(self):
        text = emit(self._report(), "csv")
        body = "\n".join(l for l in text.splitlines() if not l.startswith("#"))
        parsed = list(csv.reader(io.StringIO(body)))
        assert len(parsed) == 3
        assert all(len(row) == len(parsed[0]) for row in parsed)

    def test_csv_speedup_recomputable(self):
        text = emit(self._report(), "csv")
        body = [l for l in text.splitlines() if not l.startswith("#")]
        header = body[0].split(",")
        i_indiv = header.index("indiv_ms")
        i_speed = header.index("speedup")
        rows = [r.split(",") for r in body[1:]]
        ref = max(float(r[i_indiv]) for r in rows)
        for r in rows:
            assert float(r[i_speed]) == pytest.approx(
                ref / float(r[i_indiv]), rel=0.02)

    def test_digest_is_last_column_when_rows_carry_one(self):
        report = self._report()
        for r, digest in zip(report.rows, ("ab" * 32, "cd" * 32)):
            r.weights_digest = digest
        body = [l.split(",") for l in emit(report, "csv").splitlines()
                if not l.startswith("#")]
        assert body[0] == CSV_HEADER.split(",")
        assert body[0][-1] == "weights_digest"
        assert [r[-1] for r in body[1:]] == ["ab" * 32, "cd" * 32]
        table = [l for l in emit(report, "markdown").splitlines() if l.startswith("|")]
        assert table[0].endswith("| indiv p5/p95 | weights digest |")
        assert table[2].endswith(f"| {'ab' * 32} |")

    def test_markdown_row_count(self):
        text = emit(self._report(), "markdown")
        table = [l for l in text.splitlines() if l.startswith("|")]
        assert len(table) == 2 + 2  # header + separator + one row per model
        assert table[0].endswith("| batch p5/p95 | indiv p5/p95 | weights digest |")

    def test_meta_header_present(self):
        text = emit(self._report(), "csv")
        assert "precision:" in text
        assert "batch_size: 32" in text

    def test_meta_header_states_numpy_blas_and_threads(self, monkeypatch):
        for var, value in zip(THREAD_VARS, ("1", "2", None, "1", "4")):
            if value is None:
                monkeypatch.delenv(var, raising=False)
            else:
                monkeypatch.setenv(var, value)
        blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
        report = self._report()
        for fmt, mark in (("csv", "#"), ("markdown", ">")):
            lines = emit(report, fmt).splitlines()
            assert f"{mark} numpy: {np.__version__}  blas: {blas['name']} {blas['version']}" in lines
            assert (f"{mark} threads: OMP_NUM_THREADS=1 OPENBLAS_NUM_THREADS=2 "
                    "MKL_NUM_THREADS=unset NUMEXPR_NUM_THREADS=1 "
                    "VECLIB_MAXIMUM_THREADS=4") in lines

    def test_blas_unknown_without_show_config_dicts(self, monkeypatch):
        def show_config():  # numpy < 1.26 takes no mode
            pass
        monkeypatch.setattr(np, "show_config", show_config)
        assert "# numpy: " + np.__version__ + "  blas: unknown" in emit(self._report(), "csv")

    def test_unknown_format(self):
        with pytest.raises(ValueError):
            emit(self._report(), "yaml")


class TestCustomModelOrdering:
    def test_quick_ordering_check(self):
        # scaled-down version of the acceptance protocol: individual
        # latency should not decrease with budget at fixed conv type
        cfg = BenchConfig(batch_size=4, warmup_iters=2, measure_iters=9)
        nets = [zoo.build(n, seed=0)
                for n in ("custom140_dw", "custom340_dw", "custom590_dw")]
        report = compare(nets, cfg)
        params = [r.params for r in report.rows]
        assert params == sorted(params)
