"""Spans around the library's public functions, recorded from outside it.

install() replaces layer-class methods and the module attributes that
``lightcnn.train.train`` looks up (``evaluate``, ``augment_image``,
``sample_stream``, ``softmax_rows``, ``cross_entropy``) with wrappers that
record a span per call; uninstall() puts the originals back.  Spans are kept
in memory.  Each one carries its name, its parent and the innermost *phase*
span around it (train, eval, b1, setup, checkpoint), which the session opens.

A span's self time is its duration minus the durations of its child spans;
per-layer metrics are sums (or per-pass means) of self times by phase.
"""

import gzip
import json
import statistics
import time
from contextlib import contextmanager

import lightcnn.layers as layers_mod
import lightcnn.tensor as tensor_mod
import lightcnn.train as train_mod

KINDS = ("conv3", "conv_dw", "maxpool2", "blurpool2", "relu", "squeeze_excite", "gap", "dense")
EVAL_KINDS = KINDS + ("softmax",)
LAYER_CLASSES = {
    "conv3": layers_mod.Conv3x3,
    "conv_dw": layers_mod.DepthwiseSeparable,
    "maxpool2": layers_mod.MaxPool2,
    "blurpool2": layers_mod.BlurPool2,
    "relu": layers_mod.ReLU,
    "squeeze_excite": layers_mod.SqueezeExcite,
    "gap": layers_mod.GlobalAvgPool,
    "dense": layers_mod.Dense,
    "softmax": layers_mod.Softmax,
}
TRAIN_FUNCTIONS = ("evaluate", "augment_image", "sample_stream", "softmax_rows", "cross_entropy")
METHODS = (
    (train_mod.Sgd, "step", "train.sgd_step"),
    (train_mod.SwaState, "update", "train.swa_update"),
    (tensor_mod.Rng, "permutation", "tensor.rng_permutation"),
    (layers_mod.Network, "forward", "network"),
    (layers_mod.Network, "forward_logits", "network"),
    (layers_mod.Network, "backward_from_logits", "network"),
)

# (phase, span name) -> per-layer metric that collects its self time; the
# metric for a layer span is derived from its name instead
_TRAIN = {
    "network": "layers.network.self_train_s",
    "train.augment_image": "augment.augment_image_s",
    "train.sample_stream": "augment.sample_stream_s",
    "train.softmax_rows": "train.loss_s",
    "train.cross_entropy": "train.loss_s",
    "train.sgd_step": "train.sgd_step_s",
    "train.swa_update": "train.swa_update_s",
    "tensor.rng_permutation": "tensor.rng_permutation_s",
    "phase:train": "train.train_self_s",
}
_EVAL = {
    "train.evaluate": "train.evaluate_self_s",
    "train.cross_entropy": "train.evaluate_self_s",
    "network": "train.evaluate_self_s",
    "train.softmax_rows": "layers.softmax.fwd_eval_s",
}


class Tracer:
    """In-memory span recorder.  Row: [name, phase span, parent, start, end]."""

    def __init__(self):
        self.rows = []
        self.stack = []
        self.phase_stack = []
        self._saved = []

    def _open(self, name):
        self.rows.append([name, self.phase_stack[-1] if self.phase_stack else -1,
                          self.stack[-1] if self.stack else -1, time.perf_counter(), 0.0])
        self.stack.append(len(self.rows) - 1)

    def _close(self):
        self.rows[self.stack.pop()][4] = time.perf_counter()

    @contextmanager
    def phase(self, name):
        self._open("phase:" + name)
        idx = self.stack[-1]
        self.rows[idx][1] = idx      # a phase span's own self time is in its phase
        self.phase_stack.append(idx)
        try:
            yield
        finally:
            self.phase_stack.pop()
            self._close()

    def wrap(self, name, fn):
        def traced(*args, **kwargs):
            self._open(name)
            try:
                return fn(*args, **kwargs)
            finally:
                self._close()
        return traced

    def _patch(self, owner, attr, wrapper):
        self._saved.append((owner, attr, getattr(owner, attr)))
        setattr(owner, attr, wrapper)

    def install(self):
        for kind, cls in LAYER_CLASSES.items():
            self._patch(cls, "forward", self.wrap(f"layer:{kind}:fwd", cls.forward))
            if kind != "softmax":
                self._patch(cls, "backward", self.wrap(f"layer:{kind}:bwd", cls.backward))
        for name in TRAIN_FUNCTIONS:
            self._patch(train_mod, name, self.wrap(f"train.{name}", getattr(train_mod, name)))
        for cls, attr, name in METHODS:
            self._patch(cls, attr, self.wrap(name, getattr(cls, attr)))

    def uninstall(self):
        while self._saved:
            owner, attr, original = self._saved.pop()
            setattr(owner, attr, original)

    # ------------------------------------------------------------ analysis

    def self_times(self):
        child = [0.0] * len(self.rows)
        for name, _, parent, t0, t1 in self.rows:
            if parent >= 0:
                child[parent] += t1 - t0
        return [r[4] - r[3] - c for r, c in zip(self.rows, child)]

    def per_layer(self):
        """Per-layer metrics from the spans, and the total self time they
        attribute in the train and eval phases."""
        selfs = self.self_times()
        rows = self.rows
        totals, attributed = {}, {}
        eval_calls = 0
        b1_passes = {}
        for i, (name, ph, _, _, _) in enumerate(rows):
            phase = rows[ph][0][6:] if ph >= 0 else ""
            if name == "phase:eval":
                eval_calls += 1
            metric = None
            if phase == "b1":
                key = name.split(":")[1] if name.startswith("layer:") else name
                per_pass = b1_passes.setdefault(ph, {})
                per_pass[key] = per_pass.get(key, 0.0) + selfs[i]
                continue
            if name.startswith("layer:"):
                _, kind, direction = name.split(":")
                if phase == "train":
                    metric = f"layers.{kind}.{'fwd_train_s' if direction == 'fwd' else 'bwd_s'}"
                elif phase == "eval":
                    metric = f"layers.{kind}.fwd_eval_s"
            elif phase == "train":
                metric = _TRAIN.get(name)
            elif phase == "eval":
                metric = _EVAL.get(name)
            if metric:
                totals[metric] = totals.get(metric, 0.0) + selfs[i]
                attributed[phase] = attributed.get(phase, 0.0) + selfs[i]

        out = {}
        for kind in KINDS:
            out[f"layers.{kind}.fwd_train_s"] = totals.get(f"layers.{kind}.fwd_train_s", 0.0)
            out[f"layers.{kind}.bwd_s"] = totals.get(f"layers.{kind}.bwd_s", 0.0)
        # evaluation is time-driven, so its figures are per evaluate call
        for kind in EVAL_KINDS:
            out[f"layers.{kind}.fwd_eval_s"] = (
                totals.get(f"layers.{kind}.fwd_eval_s", 0.0) / max(eval_calls, 1))
        passes = list(b1_passes.values())
        for kind in EVAL_KINDS:
            out[f"layers.{kind}.fwd_b1_ms"] = 1e3 * _mean([p.get(kind, 0.0) for p in passes])
        out["layers.network.self_b1_ms"] = 1e3 * _mean([p.get("network", 0.0) for p in passes])
        out["layers.network.self_train_s"] = totals.get("layers.network.self_train_s", 0.0)
        for metric in sorted(set(_TRAIN.values()) - {"layers.network.self_train_s"}):
            out[metric] = totals.get(metric, 0.0)
        out["train.evaluate_self_s"] = totals.get("train.evaluate_self_s", 0.0) / max(eval_calls, 1)
        out["augment.images"] = sum(1 for r in rows if r[0] == "train.augment_image")
        out["train.steps"] = sum(1 for r in rows if r[0] == "train.sgd_step"
                                 and rows[r[1]][0] == "phase:train")

        return out, attributed

    def dump(self, path, extra):
        """Write spans and `extra` as gzip JSON; span names are interned."""
        names = sorted({r[0] for r in self.rows})
        index = {n: i for i, n in enumerate(names)}
        spans = [[index[n], ph, parent, round(t0, 7), round(t1, 7)]
                 for n, ph, parent, t0, t1 in self.rows]
        doc = dict(extra, span_names=names,
                   span_columns=["name", "phase_span", "parent", "start_s", "end_s"], spans=spans)
        with gzip.open(path, "wt") as fh:
            json.dump(doc, fh)


class NullTracer:
    """Tracing off: phases cost one generator, and nothing is recorded."""

    @contextmanager
    def phase(self, name):
        yield

    def install(self):
        pass

    def uninstall(self):
        pass


def _mean(values):
    return statistics.fmean(values) if values else 0.0
