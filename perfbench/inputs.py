"""Benchmark inputs: seeded synthetic images written as a CDS1 container.

The images come from numpy's PCG64 generator, not from ``lightcnn.data.synth``,
and the container is written here, so the program under test sees only the
file and a change to its own synthesis cannot change what is measured.

CDS1 layout (from the ``lightcnn.data`` docstring):

    "CDS1" | u32 count | u32 height | u32 width | u32 num_classes
    then `count` records of [u8 label][height*width u8 pixels, row-major]

all integers little-endian, pixels quantized to u8 (x*255 rounded).
"""

import struct

import numpy as np

_HEADER = struct.Struct("<4sIIII")


def _labels(rng, classes, per_class):
    labels = np.repeat(np.arange(classes), per_class)
    return labels[rng.permutation(len(labels))]


def _grid(n, dims, rng, jitter):
    """Per-image (dy, dx) offsets from a centre jittered by up to `jitter` px."""
    yy, xx = np.mgrid[0:dims, 0:dims].astype(np.float64)
    cy = (dims - 1) / 2.0 + rng.uniform(-jitter, jitter, n)
    cx = (dims - 1) / 2.0 + rng.uniform(-jitter, jitter, n)
    dy = yy[None] - cy[:, None, None]
    dx = xx[None] - cx[:, None, None]
    return dy, dx


def gratings(rng, classes, per_class, dims):
    """Class c: a sine grating at angle pi*c/K, wavelength 4 px (even c) or 7 px
    (odd c), with random phase, contrast and brightness under pixel noise."""
    labels = _labels(rng, classes, per_class)
    n = len(labels)
    dy, dx = _grid(n, dims, rng, 2.0)
    theta = (np.pi * labels / classes)[:, None, None]
    wavelength = np.where(labels % 2 == 0, 4.0, 7.0)[:, None, None]
    phase = rng.uniform(0.0, 2.0 * np.pi, n)[:, None, None]
    base = rng.uniform(0.05, 0.15, n)[:, None, None]
    amp = rng.uniform(0.15, 0.25, n)[:, None, None]
    axis = np.cos(theta) * dx + np.sin(theta) * dy
    images = (base + amp * (1.0 + np.sin(2.0 * np.pi * axis / wavelength + phase))
              + rng.normal(0.0, 0.05, (n, dims, dims)))
    return np.clip(images, 0.0, 1.0), labels


def castings(rng, per_class, dims):
    """Two classes of casting-like parts: a shaded disc, class 1 with a pit.

    The pit is a dark Gaussian spot somewhere inside the disc, the way a
    blow-hole shows on a photographed casting.
    """
    labels = _labels(rng, 2, per_class)
    n = len(labels)
    dy, dx = _grid(n, dims, rng, 4.0)
    r = np.hypot(dy, dx)
    radius = rng.uniform(0.32, 0.42, n)[:, None, None] * dims
    disc = 1.0 / (1.0 + np.exp(-(radius - r)))
    shade = rng.uniform(-0.004, 0.004, (n, 2))
    surface = (rng.uniform(0.55, 0.75, n)[:, None, None]
               + shade[:, 0, None, None] * dy + shade[:, 1, None, None] * dx)
    background = rng.uniform(0.08, 0.20, n)[:, None, None]
    images = background + disc * (surface - background)

    # pit centre: uniform angle, radius up to 75% of the disc radius
    angle = rng.uniform(0.0, 2.0 * np.pi, n)
    dist = rng.uniform(0.0, 0.75, n) * radius[:, 0, 0]
    py, px = dist * np.sin(angle), dist * np.cos(angle)
    sigma = rng.uniform(1.5, 2.5, n)[:, None, None]
    depth = rng.uniform(0.35, 0.50, n)[:, None, None]
    pit = np.exp(-((dy - py[:, None, None]) ** 2 + (dx - px[:, None, None]) ** 2)
                 / (2.0 * sigma ** 2))
    images = images - (labels[:, None, None] == 1) * depth * pit
    images = images + rng.normal(0.0, 0.06, (n, dims, dims))
    return np.clip(images, 0.0, 1.0), labels


def write_cds1(path, images, labels, classes):
    """Write (n, h, w) images in [0, 1] and their labels as a CDS1 file."""
    n, h, w = images.shape
    pixels = np.rint(images * 255.0).astype(np.uint8).reshape(n, h * w)
    records = np.concatenate([labels.astype(np.uint8)[:, None], pixels], axis=1)
    with open(path, "wb") as fh:
        fh.write(_HEADER.pack(b"CDS1", n, h, w, classes))
        fh.write(records.tobytes())


def make(kind, seed, classes, per_class, dims):
    """The workload's images and labels, a pure function of its arguments."""
    rng = np.random.default_rng([seed, classes, dims])
    if kind == "gratings":
        return gratings(rng, classes, per_class, dims)
    if kind == "castings" and classes == 2:
        return castings(rng, per_class, dims)
    raise ValueError(f"unknown input kind {kind!r}")
