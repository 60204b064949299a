"""The six-architecture model zoo plus the model container format.

Each architecture follows the same skeleton — a conv/pool trunk over three
spatial stages (28 -> 14 -> 7 -> 4 for the default input) ending in global
average pooling, one dense classifier, and softmax.  The three parameter
budgets (140K / 340K / 590K, within 2%) each come in a 3x3-only and a
depth-wise-separable variant.  The per-stage channel widths below are frozen;
the test suite checks that each final-stage width is the one whose parameter
count lies closest to its budget.

Models persist in a small binary container:

    "CNM1" | u32 version=1 | u16 name_len | name utf-8
    | u32 tensor_count | per tensor: u16 key_len, key utf-8, u8 ndim,
      u32 dims..., f32 LE values (C order)

The stored name carries the architecture plus option tags ("+bp", "+se"),
so a loaded file rebuilds the exact network shape before weights load.
"""

import hashlib
import struct
from pathlib import Path

import numpy as np

from .layers import (
    LayerSpec, Network, make_layer,
    CONV3, CONV_DW, RELU, MAXPOOL2, BLURPOOL2, GAP, SQUEEZE_EXCITE,
    DENSE, SOFTMAX,
)
from .tensor import Rng

MODEL_MAGIC = b"CNM1"
MODEL_VERSION = 1

# name -> (conv kinds, first-stage width s1, final-stage width s4, budget).
# Convs 1-6 are s1, s1, 2*s1, 2*s1, 4*s1, 4*s1 wide, with a pooling layer
# after #2, #4 and #6; the rest are s4 wide, the s4 that brings the
# parameter count closest to the budget.
_DW_FIRST_SIX = [CONV3, CONV3, CONV_DW, CONV3, CONV_DW, CONV3]
_ARCHS = {
    "custom590_3x3": ([CONV3] * 8, 16, 209, 590_000),                   # 587,823 params
    "custom590_dw": (_DW_FIRST_SIX + [CONV_DW] * 6, 16, 315, 590_000),  # 589,517 params
    "custom340_3x3": ([CONV3] * 7, 16, 457, 340_000),                   # 340,061 params
    "custom340_dw": (_DW_FIRST_SIX + [CONV_DW] * 5, 16, 254, 340_000),  # 340,732 params
    "custom140_3x3": ([CONV3] * 7, 16, 116, 140_000),                   # 139,894 params
    "custom140_dw": (_DW_FIRST_SIX + [CONV_DW] * 3, 16, 186, 140_000),  # 139,676 params
}

ARCH_NAMES = tuple(_ARCHS)
PARAM_BUDGETS = {name: arch[3] for name, arch in _ARCHS.items()}


def arch_spec(name, blurpool=False, squeeze_excite=False,
              input_dims=(1, 28, 28), num_classes=10):
    """The ordered LayerSpec list for an architecture plus options."""
    if name not in _ARCHS:
        raise ValueError(
            f"unknown architecture {name!r}; choose from {', '.join(ARCH_NAMES)}")
    kinds, s1, s4, _ = _ARCHS[name]
    widths = [s1, s1, 2 * s1, 2 * s1, 4 * s1, 4 * s1] + [s4] * (len(kinds) - 6)
    pool_kind = BLURPOOL2 if blurpool else MAXPOOL2
    specs = []
    cin = input_dims[0]
    for i, (conv, cout) in enumerate(zip(kinds, widths)):
        specs.append(LayerSpec(conv, in_channels=cin, out_channels=cout))
        specs.append(LayerSpec(RELU, in_channels=cout, out_channels=cout))
        if squeeze_excite:
            specs.append(LayerSpec(SQUEEZE_EXCITE, in_channels=cout,
                                   out_channels=cout))
        if i + 1 in (2, 4, 6):
            specs.append(LayerSpec(pool_kind, in_channels=cout,
                                   out_channels=cout))
        cin = cout
    specs.append(LayerSpec(GAP, in_channels=cin, out_channels=cin))
    specs.append(LayerSpec(DENSE, in_channels=cin, out_channels=num_classes))
    specs.append(LayerSpec(SOFTMAX, in_channels=num_classes,
                           out_channels=num_classes))
    return specs


def full_name(name, blurpool=False, squeeze_excite=False):
    """Architecture name with option tags, the form stored in model files."""
    return name + ("+bp" if blurpool else "") + ("+se" if squeeze_excite else "")


def parse_name(full):
    """Invert full_name: returns (base name, blurpool, squeeze_excite)."""
    base = full
    se = base.endswith("+se")
    if se:
        base = base[:-3]
    bp = base.endswith("+bp")
    if bp:
        base = base[:-3]
    if base not in _ARCHS:
        raise ValueError(f"unknown architecture in model name {full!r}")
    return base, bp, se


def build(name, blurpool=False, squeeze_excite=False, seed=0,
          input_dims=(1, 28, 28), num_classes=10) -> Network:
    """Construct an initialized network for one of the six architectures."""
    specs = arch_spec(name, blurpool, squeeze_excite, input_dims, num_classes)
    layers = [make_layer(s, Rng.derive(seed, 3, i)) for i, s in enumerate(specs)]
    return Network(full_name(name, blurpool, squeeze_excite), layers,
                   input_dims, num_classes)


def count_params(network: Network):
    """Total trainable parameter count and a per-layer breakdown."""
    breakdown = []
    total = 0
    for i, layer in enumerate(network.layers):
        n = layer.param_count()
        if n:
            breakdown.append((f"{i:02d}.{layer.spec.kind}", n))
        total += n
    return total, breakdown


def describe() -> str:
    """Markdown table of every architecture's convs, params and budget."""
    lines = ["| model | convs | params | budget |",
             "| --- | --- | --- | --- |"]
    for name in ARCH_NAMES:
        net = build(name)
        total, _ = count_params(net)
        lines.append(f"| {name} | {len(_ARCHS[name][0])} | {total:,} | {PARAM_BUDGETS[name]:,} |")
    return "\n".join(lines)


# ------------------------------------------------------------ model file IO

def weights_digest(params: dict) -> str:
    """SHA-256 over every parameter's name and float32 little-endian bytes,
    in sorted name order; equal digests mean byte-identical weights."""
    h = hashlib.sha256()
    for key in sorted(params):
        h.update(key.encode())
        h.update(np.ascontiguousarray(params[key], dtype="<f4").tobytes())
    return h.hexdigest()


def save_model(network: Network, path) -> None:
    """Write the network to a model file; non-finite weights are refused."""
    params = network.params()
    for key, arr in params.items():
        if not np.isfinite(arr).all():
            raise ValueError(f"{key} holds non-finite values; refusing to save {path}")
    name_bytes = network.name.encode()
    with open(path, "wb") as fh:
        fh.write(MODEL_MAGIC)
        fh.write(struct.pack("<IH", MODEL_VERSION, len(name_bytes)))
        fh.write(name_bytes)
        fh.write(struct.pack("<I", len(params)))
        for key, arr in params.items():
            kb = key.encode()
            fh.write(struct.pack("<H", len(kb)))
            fh.write(kb)
            fh.write(struct.pack("B", arr.ndim))
            fh.write(struct.pack(f"<{arr.ndim}I", *arr.shape))
            fh.write(np.ascontiguousarray(arr, dtype="<f4").tobytes())


class _Reader:
    """Reads a model file's bytes in order; take() returns views, not copies."""

    def __init__(self, raw, path):
        self.raw = memoryview(raw)
        self.pos = 0
        self.path = path

    def take(self, n):
        if self.pos + n > len(self.raw):
            raise ValueError(f"{self.path}: truncated model file")
        out = self.raw[self.pos:self.pos + n]
        self.pos += n
        return out

    def unpack(self, fmt):
        return struct.unpack(fmt, self.take(struct.calcsize(fmt)))


def load_model(path, input_dims=(1, 28, 28), num_classes=10) -> Network:
    """Rebuild a network from a model file and load its weights.

    The layers are built without an rng, so they start from zeros and no
    initial weights are drawn; each stored tensor is copied once, from the
    file's bytes into its layer."""
    reader = _Reader(Path(path).read_bytes(), path)
    magic = bytes(reader.take(4))
    if magic != MODEL_MAGIC:
        raise ValueError(f"{path}: bad magic {magic!r}, expected {MODEL_MAGIC!r}")
    version, name_len = reader.unpack("<IH")
    if version != MODEL_VERSION:
        raise ValueError(f"{path}: unsupported model version {version}")
    full = str(reader.take(name_len), "utf-8")
    base, bp, se = parse_name(full)
    specs = arch_spec(base, bp, se, input_dims, num_classes)
    network = Network(full, [make_layer(s, None) for s in specs], input_dims, num_classes)
    (count,) = reader.unpack("<I")
    values = {}
    for _ in range(count):
        (key_len,) = reader.unpack("<H")
        key = str(reader.take(key_len), "utf-8")
        (ndim,) = reader.unpack("B")
        shape = reader.unpack(f"<{ndim}I")
        size = int(np.prod(shape)) if ndim else 1
        values[key] = np.frombuffer(reader.take(4 * size), dtype="<f4").reshape(shape)
    if reader.pos != len(reader.raw):
        raise ValueError(f"{path}: {len(reader.raw) - reader.pos} trailing bytes")
    # the dense head's bias has one entry per class
    for key, arr in values.items():
        if key.endswith(".dense.b") and arr.size != num_classes:
            raise ValueError(f"{path}: model has {arr.size} classes, expected {num_classes}")
    network.set_params(values)
    return network
