"""CPU latency harness: warmup, repeated timed forwards, median reporting.

Two latencies per model: the wall time of one forward pass at the benchmark
batch size ("batch") and at batch size 1 ("individual").  Both are medians
over the measured iterations with 5th/95th percentiles recorded; medians
resist scheduler noise better than means.  The timed region covers the
forward pass only — input generation and network construction stay outside.
Models compared together are timed in turn within every iteration, so a slow
spell of the host falls on all of them alike instead of reordering them.
Each row also names the model's ``zoo.weights_digest``, so two reports can be
checked to have timed the same weights.
"""

import os
import platform
import time
from dataclasses import dataclass

import numpy as np

from . import THREAD_VARS, tensor, zoo
from .layers import Network
from .tensor import Rng

CSV_HEADER = ("model,params,param_ratio,batch_ms,indiv_ms,speedup,"
              "batch_p5,batch_p95,indiv_p5,indiv_p95,weights_digest")
INPUT_DIMS = (1, 28, 28)  # (c, h, w) of the timed inputs: zoo.build's default


@dataclass(frozen=True)
class BenchConfig:
    batch_size: int = 32
    warmup_iters: int = 10
    measure_iters: int = 100
    seed: int = 0

    def __post_init__(self):
        if self.batch_size < 1:
            raise ValueError("batch_size must be >= 1")
        if self.warmup_iters < 0 or self.measure_iters < 1:
            raise ValueError("need warmup_iters >= 0 and measure_iters >= 1")


@dataclass
class LatencyStats:
    median_ms: float
    p5_ms: float
    p95_ms: float

    def __post_init__(self):
        if not self.p5_ms <= self.median_ms <= self.p95_ms:
            raise ValueError(f"median {self.median_ms} outside [{self.p5_ms}, {self.p95_ms}]")


@dataclass
class BenchRow:
    model: str
    params: int
    param_ratio: float
    batch: LatencyStats
    indiv: LatencyStats
    speedup: float
    weights_digest: str

    def __post_init__(self):
        if self.param_ratio < 0 or self.speedup < 0:
            raise ValueError("ratios must be >= 0")


class BenchReport:
    def __init__(self, config: BenchConfig, rows: list[BenchRow]):
        self.config = config
        self.rows = rows
        self.host = f"{platform.machine()} {platform.system()}"
        self.precision = np.dtype(tensor.default_dtype()).name
        self.numpy = np.__version__
        self.blas = _blas_name()
        self.threads = " ".join(f"{v}={os.environ.get(v, 'unset')}" for v in THREAD_VARS)


def _blas_name() -> str:
    """BLAS name and version from numpy's build record; "unknown" where
    show_config has no dict mode (numpy < 1.26)."""
    try:
        blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
        return f"{blas['name']} {blas['version']}"
    except (TypeError, KeyError):
        return "unknown"


def _timed_forwards(networks, x, warmup, iters):
    for _ in range(warmup):
        for net in networks:
            net.forward(x, train=False)
    times = np.zeros((len(networks), iters))
    for i in range(iters):
        for k, net in enumerate(networks):
            start = time.perf_counter()
            net.forward(x, train=False)
            times[k, i] = time.perf_counter() - start
    return [LatencyStats(float(np.median(ms)), float(np.percentile(ms, 5)),
                         float(np.percentile(ms, 95)))
            for ms in times * 1000.0]


def measure_all(networks: list[Network], config: BenchConfig):
    """(batch latency, individual latency) LatencyStats pairs, one per network."""
    c, h, w = INPUT_DIMS
    rng = Rng.derive(config.seed, 0xBE)
    dtype = tensor.default_dtype()
    x_batch = rng.uniform_array(config.batch_size * c * h * w).reshape(
        config.batch_size, c, h, w).astype(dtype)
    x_one = rng.uniform_array(c * h * w).reshape(1, c, h, w).astype(dtype)

    batch = _timed_forwards(networks, x_batch, config.warmup_iters, config.measure_iters)
    indiv = _timed_forwards(networks, x_one, config.warmup_iters, config.measure_iters)
    return list(zip(batch, indiv))


def compare(models: list[Network], config: BenchConfig) -> BenchReport:
    """Benchmark every model; ratio columns are relative to the largest one.

    param_ratio = reference params / model params, speedup = reference
    individual latency / model individual latency, where the reference is
    the model with the most parameters in the list.
    """
    if not models:
        raise ValueError("compare needs at least one model")
    measured = [(net, net.param_count(), batch, indiv)
                for net, (batch, indiv) in zip(models, measure_all(models, config))]
    ref_params, ref_indiv = max((p, ind.median_ms)
                                for _, p, _, ind in measured)
    rows = [BenchRow(net.name, params, ref_params / params, batch, indiv,
                     ref_indiv / indiv.median_ms, zoo.weights_digest(net.params()))
            for net, params, batch, indiv in measured]
    return BenchReport(config, rows)


def emit(report: BenchReport, fmt: str) -> str:
    """Render as "csv" (header CSV_HEADER) or "markdown" (Table-style
    columns); either way the last column is the row's weight digest."""
    if fmt == "csv":
        return _emit_csv(report)
    if fmt == "markdown":
        return _emit_markdown(report)
    raise ValueError(f"unknown format {fmt!r}; use 'csv' or 'markdown'")


def _meta_lines(report, prefix):
    cfg = report.config
    return [
        f"{prefix} host: {report.host}",
        f"{prefix} precision: {report.precision}",
        f"{prefix} numpy: {report.numpy}  blas: {report.blas}",
        f"{prefix} threads: {report.threads}",
        f"{prefix} batch_size: {cfg.batch_size}  warmup: {cfg.warmup_iters}"
        f"  iters: {cfg.measure_iters}  input: {INPUT_DIMS}",
    ]


def _emit_csv(report: BenchReport) -> str:
    lines = _meta_lines(report, "#") + [CSV_HEADER]
    for r in report.rows:
        lines.append(f"{r.model},{r.params},{r.param_ratio:.3f},"
                     f"{r.batch.median_ms:.3f},{r.indiv.median_ms:.3f},{r.speedup:.3f},"
                     f"{r.batch.p5_ms:.3f},{r.batch.p95_ms:.3f},"
                     f"{r.indiv.p5_ms:.3f},{r.indiv.p95_ms:.3f},{r.weights_digest}")
    return "\n".join(lines) + "\n"


def _emit_markdown(report: BenchReport) -> str:
    cols = ["model", "params", "param ratio", "batch ms", "indiv ms", "speedup",
            "batch p5/p95", "indiv p5/p95", "weights digest"]
    lines = _meta_lines(report, ">")
    lines.append("")
    lines.append("| " + " | ".join(cols) + " |")
    lines.append("|" + " --- |" * len(cols))
    for r in report.rows:
        cells = [r.model, f"{r.params:,}", f"{r.param_ratio:.2f}x",
                 f"{r.batch.median_ms:.3f}", f"{r.indiv.median_ms:.3f}",
                 f"{r.speedup:.2f}x", f"{r.batch.p5_ms:.3f}/{r.batch.p95_ms:.3f}",
                 f"{r.indiv.p5_ms:.3f}/{r.indiv.p95_ms:.3f}", r.weights_digest]
        lines.append("| " + " | ".join(cells) + " |")
    return "\n".join(lines) + "\n"
