"""Losses, SGD with momentum, cosine decay, SWA, and the training loop.

The loop is deterministic end to end: batch order, augmentation, and mixup
draws all come from counter-based streams derived from the run seed, so
rerunning the same config on the same host (32-bit mode, single thread)
produces bit-identical weights.  Across hosts the weights can differ in the
last bits, because the BLAS library may pick different matrix-multiply
kernels for a different CPU.  A step whose loss is not finite stops the run
with an error instead of training on.
"""

import math
import time
from dataclasses import dataclass, field

import numpy as np

from . import tensor
from .augment import augment_image, build_pipeline, mixup, sample_stream
from .data import Dataset
from .layers import Network, softmax_rows
from .tensor import Rng

LOG_FLOOR = 1e-12
EVAL_BATCH = 256  # images per evaluate forward


class NonFiniteLoss(ValueError):
    """A loss that is not finite: the network's outputs overflowed."""


# ------------------------------------------------------------------- losses

def one_hot(labels, num_classes: int) -> np.ndarray:
    """A (K,) one-hot vector for one label, or (n, K) rows for n labels."""
    labels = np.asarray(labels)
    bad = labels[(labels < 0) | (labels >= num_classes)]
    if bad.size:
        raise ValueError(f"label {bad[0]} out of range for {num_classes} classes")
    return (labels[..., None] == np.arange(num_classes)).astype(np.float64)


def smooth_labels(y_hot: np.ndarray, alpha: float, num_classes: int) -> np.ndarray:
    """Blend one-hot rows toward uniform: (1 - alpha) * y + alpha / K.

    Accepts one (K,) vector or a batch (n, K); every row must be one-hot.
    """
    y_hot = np.asarray(y_hot, dtype=np.float64)
    if not 0.0 <= alpha < 1.0:
        raise ValueError(f"alpha must be in [0, 1), got {alpha}")
    if y_hot.ndim not in (1, 2) or y_hot.shape[-1] != num_classes:
        raise ValueError(f"expected (K,) or (n, K) with K = {num_classes}, "
                         f"got {y_hot.shape}")
    if not np.all((np.count_nonzero(y_hot == 1.0, axis=-1) == 1)
                  & (np.count_nonzero(y_hot, axis=-1) == 1)):
        raise ValueError("smooth_labels expects one-hot rows")
    return (1.0 - alpha) * y_hot + alpha / num_classes


def cross_entropy(y: np.ndarray, y_pred: np.ndarray):
    """Cross-entropy of softmax outputs and its gradient w.r.t. the logits.

    Accepts a single (K,) pair or a batch (n, K); batches return the mean
    loss and the gradient already divided by n.  The fused softmax gradient
    is simply y_pred - y.  Predictions below the log floor are clamped, so
    the loss is finite unless a prediction is NaN.
    """
    y = np.asarray(y, dtype=np.float64)
    y_pred = np.asarray(y_pred, dtype=np.float64)
    if y.shape != y_pred.shape:
        raise ValueError(f"shape mismatch: {y.shape} vs {y_pred.shape}")
    squeeze = y.ndim == 1
    if squeeze:
        y = y[None]
        y_pred = y_pred[None]
    n = y.shape[0]
    loss = float(-(y * np.log(np.maximum(y_pred, LOG_FLOOR))).sum() / n)
    grad = (y_pred - y) / n
    return loss, (grad[0] if squeeze else grad)


# ---------------------------------------------------------------- optimizer

class Sgd:
    """SGD with classical momentum: v <- mu*v - lr*g; w <- w + v."""

    def __init__(self, momentum: float = 0.9):
        if not 0.0 <= momentum < 1.0:
            raise ValueError(f"momentum must be in [0, 1), got {momentum}")
        self.momentum = momentum
        self.velocity: dict[str, np.ndarray] = {}

    def step(self, params: dict, grads: dict, lr: float) -> None:
        if lr < 0.0:
            raise ValueError(f"learning rate must be >= 0, got {lr}")
        for name, w in params.items():
            g = grads.get(name)
            if g is None:
                raise ValueError(f"missing gradient for {name}")
            if g.shape != w.shape:
                raise ValueError(
                    f"{name}: gradient shape {g.shape} != weight shape {w.shape}")
            v = self.velocity.get(name)
            if v is None:
                v = np.zeros_like(w, dtype=np.float64)
            v = self.momentum * v - lr * g
            self.velocity[name] = v
            w += v.astype(w.dtype)


def cosine_lr(epoch: int, total_epochs: int, lr_max: float, lr_min: float) -> float:
    """Cosine decay from lr_max (epoch 0) to lr_min (last epoch)."""
    if total_epochs <= 1:
        return lr_max
    t = epoch / (total_epochs - 1)
    return lr_min + 0.5 * (lr_max - lr_min) * (1.0 + math.cos(math.pi * t))


# --------------------------------------------------------------------- SWA

class SwaState:
    """Running arithmetic mean of weight snapshots taken from start_epoch on."""

    def __init__(self, start_epoch: int):
        if start_epoch < 0:
            raise ValueError("start_epoch must be >= 0")
        self.start_epoch = start_epoch
        self.n_models = 0
        self.averaged: dict[str, np.ndarray] = {}

    def update(self, params: dict, epoch: int) -> None:
        if epoch < self.start_epoch:
            return
        if self.n_models == 0:
            self.averaged = {k: v.astype(np.float64).copy() for k, v in params.items()}
        else:
            n = self.n_models
            for k, v in params.items():
                self.averaged[k] = (self.averaged[k] * n + v.astype(np.float64)) / (n + 1)
        self.n_models += 1


def swa_start_epoch(total_epochs: int) -> int:
    """Snapshots begin after three quarters of the run."""
    return math.ceil(0.75 * total_epochs)


# ----------------------------------------------------------------- configs

@dataclass
class TrainConfig:
    epochs: int = 15
    batch_size: int = 64
    lr: float = 0.01
    lr_min: float = 1e-4
    momentum: float = 0.9
    seed: int = 0
    smoothing: float = 0.0          # label-smoothing alpha; 0 disables
    use_mixup: bool = False
    mixup_alpha: float = 0.2        # Beta(alpha, alpha) for the per-batch delta
    use_swa: bool = False
    augment: dict = field(default_factory=dict)  # op name -> probability

    def __post_init__(self):
        if self.epochs < 0:
            raise ValueError("epochs must be >= 0")
        if self.batch_size < 1:
            raise ValueError("batch_size must be >= 1")
        if self.lr < 0 or self.lr_min < 0:
            raise ValueError("learning rates must be >= 0")
        if not 0.0 <= self.smoothing < 1.0:
            raise ValueError("smoothing must be in [0, 1)")


@dataclass
class EpochRow:
    epoch: int
    train_loss: float
    train_acc: float
    eval_acc: float
    seconds: float


class TrainReport:
    """Per-epoch metrics, serializable as CSV."""

    HEADER = "epoch,train_loss,train_acc,eval_acc,seconds"

    def __init__(self):
        self.rows: list[EpochRow] = []

    def add(self, row: EpochRow) -> None:
        if not (0.0 <= row.train_acc <= 1.0 and 0.0 <= row.eval_acc <= 1.0):
            raise ValueError("accuracy must lie in [0, 1]")
        self.rows.append(row)

    def to_csv(self) -> str:
        lines = [self.HEADER]
        for r in self.rows:
            lines.append(f"{r.epoch},{r.train_loss:.6f},{r.train_acc:.6f},"
                         f"{r.eval_acc:.6f},{r.seconds:.3f}")
        return "\n".join(lines) + "\n"


# ------------------------------------------------------------ the main loop

def train(network: Network, train_ds: Dataset, eval_ds: Dataset,
          config: TrainConfig):
    """Run the full loop; returns (report, final_params, swa_params_or_None)."""
    if len(train_ds) == 0 or len(eval_ds) == 0:
        raise ValueError("training and evaluation sets must be non-empty")
    if train_ds.num_classes != network.num_classes:
        raise ValueError(
            f"dataset has {train_ds.num_classes} classes but the network "
            f"outputs {network.num_classes}")

    pipeline = build_pipeline(config.augment)
    optimizer = Sgd(config.momentum)
    swa = SwaState(swa_start_epoch(config.epochs)) if config.use_swa else None
    report = TrainReport()
    num_classes = train_ds.num_classes
    n = len(train_ds)
    dtype = tensor.default_dtype()

    for epoch in range(config.epochs):
        started = time.perf_counter()
        lr = cosine_lr(epoch, config.epochs, config.lr, config.lr_min)
        order = Rng.derive(config.seed, 1, epoch).permutation(n)
        loss_sum = 0.0
        correct = 0
        seen = 0

        for b_start in range(0, n, config.batch_size):
            idx = order[b_start:b_start + config.batch_size]
            b = len(idx)
            if pipeline:
                imgs = [augment_image(pipeline, train_ds.images[i:i + 1],
                                      sample_stream(config.seed, epoch, int(i)))
                        for i in idx]
                x = np.concatenate(imgs).astype(dtype)
            else:
                x = train_ds.images[idx].astype(dtype)
            y = smooth_labels(one_hot(train_ds.labels[idx], num_classes),
                              config.smoothing, num_classes)

            if config.use_mixup:
                batch_rng = Rng.derive(config.seed, 2, epoch, b_start)
                delta = batch_rng.beta(config.mixup_alpha, config.mixup_alpha)
                pair = batch_rng.permutation(b)
                # delta is a Python float, so a float32 batch stays float32
                x, y = mixup(x, x[pair], y, y[pair], delta)

            logits = network.forward_logits(x, train=True).reshape(b, num_classes)
            probs = softmax_rows(logits.astype(np.float64))
            loss, dlogits = cross_entropy(y, probs)
            if not math.isfinite(loss):
                raise _diverged(loss, epoch, b_start // config.batch_size + 1)
            network.backward_from_logits(
                dlogits.reshape(b, num_classes, 1, 1).astype(dtype))
            optimizer.step(network.params(), network.grads(), lr)

            loss_sum += loss * b
            # accuracy against the dominant target (argmax of the mixed
            # vector when mixup is on; the plain label otherwise)
            correct += int((logits.argmax(axis=1) == y.argmax(axis=1)).sum())
            seen += b

        try:
            eval_acc, _, _ = evaluate(network, eval_ds)
        except NonFiniteLoss as exc:
            raise _diverged(math.nan, epoch, -(-n // config.batch_size)) from exc
        # report rows and the SWA start rule count epochs from 1, so a
        # 2-epoch run ends with "epoch 2" and start_epoch=2 still fires
        if swa is not None:
            swa.update(network.params(), epoch + 1)
        report.add(EpochRow(epoch + 1, loss_sum / seen, correct / seen,
                            eval_acc, time.perf_counter() - started))

    final = {k: v.copy() for k, v in network.params().items()}
    swa_params = None
    if swa is not None and swa.n_models > 0:
        swa_params = {k: v.astype(dtype) for k, v in swa.averaged.items()}
    return report, final, swa_params


def _diverged(loss: float, epoch: int, step: int) -> ValueError:
    return ValueError(f"training diverged: loss is {loss} at epoch {epoch + 1}, "
                      f"step {step}")


def evaluate(network: Network, ds: Dataset):
    """Clean-pass metrics: (accuracy, per-class accuracy, mean loss).

    Predictions are argmax over softmax outputs; ties resolve to the lowest
    class index (numpy argmax order).  A batch whose outputs are not finite
    raises NonFiniteLoss (a ValueError) naming its images.
    """
    if len(ds) == 0:
        raise ValueError("cannot evaluate on an empty dataset")
    if ds.num_classes != network.num_classes:
        raise ValueError(
            f"dataset has {ds.num_classes} classes but the network outputs "
            f"{network.num_classes}")
    dtype = tensor.default_dtype()
    num_classes = ds.num_classes
    correct = np.zeros(num_classes, dtype=np.int64)
    totals = np.zeros(num_classes, dtype=np.int64)
    loss_sum = 0.0
    for start in range(0, len(ds), EVAL_BATCH):
        x = ds.images[start:start + EVAL_BATCH].astype(dtype)
        labels = ds.labels[start:start + EVAL_BATCH]
        b = len(labels)
        logits = network.forward_logits(x, train=False).reshape(b, num_classes)
        probs = softmax_rows(logits.astype(np.float64))
        loss, _ = cross_entropy(one_hot(labels, num_classes), probs)
        if not math.isfinite(loss):
            raise NonFiniteLoss(f"model outputs are not finite on images "
                                f"{start}..{start + b - 1} (loss is {loss})")
        loss_sum += loss * b
        totals += np.bincount(labels, minlength=num_classes)
        correct += np.bincount(labels[probs.argmax(axis=1) == labels], minlength=num_classes)
    per_class = np.divide(correct, totals, out=np.zeros(num_classes),
                          where=totals > 0)
    return float(correct.sum() / totals.sum()), per_class, loss_sum / totals.sum()
