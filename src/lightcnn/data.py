"""Dataset handling: binary container I/O, PGM directory import, synthesis.

A dataset is a stack of (1, h, w) grayscale images in [0, 1] with integer
labels below `num_classes`.  The on-disk container is deliberately tiny:

    "CDS1" | u32 count | u32 height | u32 width | u32 num_classes
    then `count` records of [u8 label][height*width u8 pixels, row-major]

all integers little-endian, pixels quantized to u8 (x*255 rounded).
"""

import math
import re
import struct
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from .augment import resize_bilinear
from .tensor import Rng

MAGIC = b"CDS1"
_HEADER = struct.Struct("<4sIIII")
MAX_CLASSES = 255  # the most classes a container holds (labels are u8)


@dataclass
class Dataset:
    images: np.ndarray          # (n, 1, h, w) float in [0, 1]
    labels: np.ndarray          # (n,) int64
    num_classes: int
    class_names: list[str]

    def __post_init__(self):
        self.images = np.asarray(self.images)
        self.labels = np.asarray(self.labels, dtype=np.int64)
        if self.images.ndim != 4 or self.images.shape[1] != 1:
            raise ValueError(f"images must be (n, 1, h, w), got {self.images.shape}")
        if len(self.labels) != len(self.images):
            raise ValueError(
                f"{len(self.images)} images but {len(self.labels)} labels")
        if self.num_classes < 1:
            raise ValueError("num_classes must be positive")
        if len(self.labels) and (self.labels.min() < 0
                                 or self.labels.max() >= self.num_classes):
            raise ValueError(f"labels must lie in [0, {self.num_classes})")
        if len(self.class_names) != self.num_classes:
            raise ValueError(
                f"{self.num_classes} classes but {len(self.class_names)} names")
        if len(self.images) and (self.images.min() < 0.0 or self.images.max() > 1.0):
            raise ValueError("pixel values must lie in [0, 1]")

    def __len__(self):
        return len(self.images)

    @property
    def dims(self):
        return self.images.shape[2], self.images.shape[3]


def default_names(num_classes):
    return [f"class{i}" for i in range(num_classes)]


def describe(ds: Dataset) -> str:
    h, w = ds.dims if len(ds) else (0, 0)
    lines = [f"{len(ds)} images, {h}x{w}, {ds.num_classes} classes"]
    counts = np.bincount(ds.labels, minlength=ds.num_classes)
    for idx, name in enumerate(ds.class_names):
        lines.append(f"  {idx:3d} {name}: {counts[idx]}")
    return "\n".join(lines)


# ---------------------------------------------------------------- container

def save_container(ds: Dataset, path) -> None:
    if ds.num_classes > MAX_CLASSES:
        raise ValueError(f"container stores labels as u8; num_classes > {MAX_CLASSES}")
    n = len(ds)
    h, w = ds.dims
    pixels = np.rint(ds.images * 255.0).astype(np.uint8)
    with open(path, "wb") as fh:
        fh.write(_HEADER.pack(MAGIC, n, h, w, ds.num_classes))
        for i in range(n):
            fh.write(struct.pack("B", int(ds.labels[i])))
            fh.write(pixels[i, 0].tobytes())


def load_container(path) -> Dataset:
    raw = Path(path).read_bytes()
    if len(raw) < _HEADER.size:
        raise ValueError(f"{path}: truncated header ({len(raw)} bytes)")
    magic, count, h, w, num_classes = _HEADER.unpack_from(raw)
    if magic != MAGIC:
        raise ValueError(f"{path}: bad magic {magic!r}, expected {MAGIC!r}")
    if h < 1 or w < 1:
        raise ValueError(f"{path}: empty image plane {h}x{w}; need h, w >= 1")
    if num_classes == 0:
        raise ValueError(f"{path}: header has 0 classes; need at least 1")
    record = 1 + h * w
    expected = _HEADER.size + count * record
    if len(raw) != expected:
        raise ValueError(
            f"{path}: truncated: header promises {count} records "
            f"({expected} bytes), file has {len(raw)}")
    body = np.frombuffer(raw, dtype=np.uint8, offset=_HEADER.size)
    body = body.reshape(count, record)
    labels = body[:, 0].astype(np.int64)
    if count and labels.max() >= num_classes:
        raise ValueError(
            f"{path}: label {labels.max()} out of range for {num_classes} classes")
    images = body[:, 1:].reshape(count, 1, h, w).astype(np.float64) / 255.0
    return Dataset(images, labels, num_classes, default_names(num_classes))


# ---------------------------------------------------------------- PGM import

# "P5", then width, height and maxval, each a positive decimal after
# whitespace or '#' comments that run to the end of their line (netpbm), then
# one whitespace byte
_PGM_HEADER = re.compile(rb"P5" + rb"(?:(?:\s|#[^\n]*\n)+(0*[1-9]\d*))" * 3 + rb"\s")


def _read_pgm(path) -> np.ndarray:
    """Parse a binary (P5) PGM file into a float plane in [0, 1].  A missing,
    signed or zero header field, a maxval above 255 and short pixel data are
    rejected, each with the file's name."""
    raw = Path(path).read_bytes()
    header = _PGM_HEADER.match(raw)
    if header is None:
        raise ValueError(f"{path}: not a P5 PGM, or a header field is missing, signed or zero")
    width, height, maxval = map(int, header.groups())
    if maxval > 255:
        raise ValueError(f"{path}: only 8-bit PGM supported (maxval {maxval})")
    pixels = raw[header.end() : header.end() + width * height]
    if len(pixels) < width * height:
        raise ValueError(f"{path}: pixel data truncated ({len(pixels)}/{width * height})")
    return np.frombuffer(pixels, np.uint8).reshape(height, width) / maxval


def import_directory(path, dims=(28, 28)) -> Dataset:
    """Load a directory of per-class PGM folders; class order is sorted names."""
    root = Path(path)
    class_dirs = sorted(d for d in root.iterdir() if d.is_dir())
    if not class_dirs:
        raise ValueError(f"{root}: no class subdirectories found")
    images, labels = [], []
    names = [d.name for d in class_dirs]
    for idx, cdir in enumerate(class_dirs):
        files = sorted(f for f in cdir.iterdir() if f.is_file())
        if not files:
            raise ValueError(f"{cdir}: class directory is empty")
        for f in files:
            plane = _read_pgm(f)
            if plane.shape != dims:
                plane = np.clip(resize_bilinear(plane, dims[0], dims[1]), 0.0, 1.0)
            images.append(plane[None])
            labels.append(idx)
    return Dataset(np.stack(images), np.asarray(labels), len(names), names)


# ---------------------------------------------------------------- synthesis

def synth(num_classes: int, per_class: int, dims: int = 28, seed: int = 0) -> Dataset:
    """Procedural K-class dataset: per-class stripe orientation and frequency
    plus a class-positioned blob, under seeded Gaussian pixel noise (sigma 0.1).

    Class c gets stripes at angle pi*c/K with wavelength alternating between
    two values, and a soft blob on a circle at angle 2*pi*c/K.  Per-sample
    stripe phase and blob jitter keep samples distinct within a class.
    """
    if num_classes < 2:
        raise ValueError("synth needs at least 2 classes")
    if per_class < 1:
        raise ValueError("per_class must be positive")
    rng = Rng.derive(seed, 0x5D)
    h = w = dims
    yy, xx = np.meshgrid(np.arange(h, dtype=np.float64),
                         np.arange(w, dtype=np.float64), indexing="ij")
    cy, cx = (h - 1) / 2.0, (w - 1) / 2.0
    images = np.zeros((num_classes * per_class, 1, h, w))
    labels = np.zeros(num_classes * per_class, dtype=np.int64)
    i = 0
    for c in range(num_classes):
        theta = math.pi * c / num_classes
        wavelength = 4.0 if c % 2 == 0 else 7.0
        freq = 2.0 * math.pi / wavelength
        axis = math.cos(theta) * xx + math.sin(theta) * yy
        blob_angle = 2.0 * math.pi * c / num_classes
        by = cy + 0.30 * h * math.sin(blob_angle)
        bx = cx + 0.30 * w * math.cos(blob_angle)
        for _ in range(per_class):
            phase = rng.uniform(0.0, 2.0 * math.pi)
            jy = by + rng.uniform(-1.0, 1.0)
            jx = bx + rng.uniform(-1.0, 1.0)
            stripes = 0.5 + 0.30 * np.sin(freq * axis + phase)
            blob = 0.35 * np.exp(-((yy - jy) ** 2 + (xx - jx) ** 2) / (2.0 * 2.0 ** 2))
            noise = rng.normal_array(h * w, 0.0, 0.1).reshape(h, w)
            images[i, 0] = np.clip(stripes + blob + noise, 0.0, 1.0)
            labels[i] = c
            i += 1
    return Dataset(images, labels, num_classes, default_names(num_classes))


# ---------------------------------------------------------------- splitting

def split(ds: Dataset, fraction: float, seed: int):
    """Stratified train/eval split; per-class counts stay within one sample
    of `fraction`, both sides keep at least one sample of every class."""
    if not 0.0 < fraction < 1.0:
        raise ValueError(f"fraction must be in (0, 1), got {fraction}")
    train_idx, eval_idx = [], []
    for c in range(ds.num_classes):
        members = np.flatnonzero(ds.labels == c)
        if len(members) < 2:
            raise ValueError(f"class {c} has {len(members)} sample(s); need >= 2")
        order = Rng.derive(seed, c).permutation(len(members))
        k = int(round(fraction * len(members)))
        k = min(max(k, 1), len(members) - 1)
        train_idx.extend(members[order[:k]])
        eval_idx.extend(members[order[k:]])
    train_idx = np.asarray(train_idx)
    eval_idx = np.asarray(eval_idx)

    def take(idx):
        return Dataset(ds.images[idx], ds.labels[idx], ds.num_classes,
                       list(ds.class_names))
    return take(train_idx), take(eval_idx)
