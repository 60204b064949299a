"""One user session of lightcnn on a named workload.

Phases, as a user meets them:

1. set-up: ``data.load_container``, ``data.split``, ``zoo.build``
   (and ``zoo.load_model``, the set-up of serving);
2. training: ``train.train`` for the workload's fixed number of epochs;
3. save and reload: ``zoo.save_model``, then ``zoo.load_model``;
4. batched evaluation of the loaded model: ``train.evaluate``;
5. batch-1 inference: ``Network.forward(x, train=False)`` on held-out images.

Short phases vary far more on a shared host than long ones, so every
end-to-end figure is a total, a mean or a median over samples spread across
the run.
A *checkpoint* (one ``train.evaluate`` call, 32 batch-1 passes and one full
set-up) runs at every epoch boundary, through the ``evaluate`` name that
``train.train`` looks up, and again in rounds after training until the run's
seconds are spent.  Only the training epochs are fixed, so every run of one
workload and seed ends with the same weights.
"""

import hashlib
import resource
import statistics
import time
from dataclasses import dataclass, field

import numpy as np

from lightcnn import data, train, zoo

import inputs

B1_PER_CHECKPOINT = 32
SETUPS_BEFORE_TRAINING = 3
MIN_ROUNDS = 2

ALL_AUGMENT = {
    "hflip": 0.5, "vflip": 0.5, "rotation": 0.3, "gaussian_blur": 0.3,
    "shift_scale_rotate": 0.3, "random_crop": 0.3, "brightness_contrast": 0.5,
    "cutout": 1.0,
}


@dataclass(frozen=True)
class Workload:
    arch: str
    inputs: str                 # generator name in inputs.py
    classes: int
    dims: int
    per_class: int              # images per class before the split
    batch: int
    epochs: int
    blurpool: bool = False
    squeeze_excite: bool = False
    config: dict = field(default_factory=dict)   # further TrainConfig fields
    fraction: float = 0.75      # share of each class that trains


WORKLOADS = {
    "c3_590_bpse": Workload("custom590_3x3", "castings", 2, 56, 128, 64, 12,
                            blurpool=True, squeeze_excite=True),
    "dw140_aug": Workload("custom140_dw", "gratings", 10, 28, 68, 32, 16,
                          config=dict(augment=ALL_AUGMENT, use_mixup=True, smoothing=0.1,
                                      use_swa=True)),
}


def clock():
    return time.perf_counter()


def digest(params):
    """SHA-256 over every parameter's name and float32 little-endian bytes."""
    h = hashlib.sha256()
    for key in sorted(params):
        h.update(key.encode())
        h.update(np.ascontiguousarray(params[key], dtype="<f4").tobytes())
    return h.hexdigest()


class Session:
    """Runs the phases once and keeps every sample the metrics come from."""

    def __init__(self, workload, seed, workdir, tracer):
        self.wl = workload
        self.seed = seed
        self.tracer = tracer
        self.input_dims = (1, workload.dims, workload.dims)
        self.data_path = workdir / "inputs.cds"
        self.init_path = workdir / "init.cnm"
        self.model_path = workdir / "trained.cnm"
        self.setup_reps = []        # (load_container, split, build, load_model) s
        self.eval_s = 0.0
        self.eval_images = 0
        self.eval_results = []      # (accuracy, per-class, loss) of the loaded model
        self.b1_ms = []
        self.b1_cursor = 0
        self.b1_first = {}          # held-out index -> the loaded model's first output
        self.b1_repeats_differ = 0
        self.checkpoint_s = 0.0

    def build_network(self):
        wl = self.wl
        return zoo.build(wl.arch, blurpool=wl.blurpool, squeeze_excite=wl.squeeze_excite,
                         seed=self.seed, input_dims=self.input_dims,
                         num_classes=wl.classes)

    def setup(self, model_path):
        """One full set-up; its four call times join the set-up samples."""
        with self.tracer.phase("setup"):
            t0 = clock()
            ds = data.load_container(self.data_path)
            t1 = clock()
            train_ds, eval_ds = data.split(ds, self.wl.fraction, self.seed)
            t2 = clock()
            network = self.build_network()
            t3 = clock()
            loaded = zoo.load_model(model_path, self.input_dims, self.wl.classes)
            t4 = clock()
        self.setup_reps.append((t1 - t0, t2 - t1, t3 - t2, t4 - t3))
        return train_ds, eval_ds, network, loaded

    def checkpoint(self, network, eval_ds, model_path, serving=False):
        """Evaluate, time batch-1 passes, set up once; returns evaluate's result."""
        tr = self.tracer
        started = clock()
        with tr.phase("checkpoint"):
            with tr.phase("eval"):
                t0 = clock()
                result = self._evaluate(network, eval_ds)
                t1 = clock()
            self.eval_s += t1 - t0
            self.eval_images += len(eval_ds)
            for _ in range(B1_PER_CHECKPOINT):
                i = self.b1_cursor % len(self.b1_images)
                self.b1_cursor += 1
                x = self.b1_images[i:i + 1]
                with tr.phase("b1"):
                    t0 = clock()
                    out = network.forward(x, train=False)
                    t1 = clock()
                self.b1_ms.append(1e3 * (t1 - t0))
                if serving:
                    first = self.b1_first.setdefault(i, out)
                    self.b1_repeats_differ += not np.array_equal(first, out)
            self.setup(model_path)
        self.checkpoint_s += clock() - started
        return result

    def run(self, seconds):
        wl = self.wl
        images, labels = inputs.make(wl.inputs, self.seed, wl.classes, wl.per_class, wl.dims)
        inputs.write_cds1(self.data_path, images, labels, wl.classes)
        zoo.save_model(self.build_network(), self.init_path)
        self._evaluate = train.evaluate
        tr = self.tracer

        deadline = clock() + seconds
        for _ in range(SETUPS_BEFORE_TRAINING):
            train_ds, eval_ds, network, _ = self.setup(self.init_path)
        self.train_ds, self.eval_ds = train_ds, eval_ds
        self.b1_images = eval_ds.images.astype(np.float32)
        config = train.TrainConfig(epochs=wl.epochs, batch_size=wl.batch, seed=self.seed,
                                   **wl.config)

        self.epoch_train_s = []
        mark = 0.0

        def epoch_end(net, ds, batch_size=256):
            nonlocal mark
            self.epoch_train_s.append(clock() - mark)
            result = self.checkpoint(net, ds, self.init_path)
            mark = clock()
            return result

        train.evaluate = epoch_end
        try:
            with tr.phase("train"):
                t0 = mark = clock()
                self.report, final, self.swa = train.train(network, train_ds, eval_ds, config)
                t1 = clock()
        finally:
            train.evaluate = self._evaluate
        self.train_s = t1 - t0 - self.checkpoint_s
        self.train_images = wl.epochs * len(train_ds)
        self.train_steps = wl.epochs * -(-len(train_ds) // wl.batch)
        self.network = network
        self.final = final

        with tr.phase("save"):
            zoo.save_model(network, self.model_path)
        _, _, _, loaded = self.setup(self.model_path)
        self.loaded = loaded
        self.rounds = 0
        while self.rounds < MIN_ROUNDS or clock() < deadline:
            self.eval_results.append(
                self.checkpoint(loaded, eval_ds, self.model_path, serving=True))
            self.rounds += 1
        self.peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0

    @property
    def attempted(self):
        """Operations run: train steps, evaluate calls, batch-1 passes,
        set-ups and the one save."""
        return (self.train_steps + self.wl.epochs + self.rounds + len(self.b1_ms)
                + len(self.setup_reps) + 1)

    def end_to_end(self):
        setup = [sum(rep) for rep in self.setup_reps]
        return {
            "setup_s": statistics.median(setup),
            "train_img_per_s": self.train_images / self.train_s,
            "eval_img_per_s": self.eval_images / self.eval_s,
            # a mean, not a median: this host's speed flips between two states
            # for seconds at a time, and the median of such a mixture jumps
            # between them while the mean moves with the share of each
            "infer_b1_ms": statistics.fmean(self.b1_ms),
            "peak_rss_mb": self.peak_rss_mb,
        }

    def setup_medians(self):
        names = ("data.load_container_s", "data.split_s", "zoo.build_s", "zoo.load_model_s")
        return {name: statistics.median(rep[i] for rep in self.setup_reps)
                for i, name in enumerate(names)}
