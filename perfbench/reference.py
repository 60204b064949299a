"""An independent float64 reader and forward pass for lightcnn model files.

Written from the format and layer definitions in the ``lightcnn.zoo`` and
``lightcnn.layers`` docstrings; it imports neither module, so a fault in the
library's layers or model I/O cannot hide behind the same fault here.

CNM1 layout:

    "CNM1" | u32 version=1 | u16 name_len | name utf-8
    | u32 tensor_count | per tensor: u16 key_len, key utf-8, u8 ndim,
      u32 dims..., f32 LE values (C order)

Tensor keys are "<layer index>.<kind>.<name>".  Only layers with parameters
appear, so the parameter-free layers are placed from the zoo's skeleton:
every conv is followed by ReLU (then squeeze-and-excite when the name has
"+se"), a 2x2 pool ("+bp": blur pool, else max pool) fills each remaining
slot before the next conv, global average pooling fills the last slot before
the dense head, and softmax follows the dense head.
"""

import struct
from pathlib import Path

import numpy as np

CONVS = ("conv3", "conv_dw")
BLUR = np.outer([1.0, 2.0, 1.0], [1.0, 2.0, 1.0]) / 16.0


def read_cnm1(path):
    """(model name, {key: float32 array}) from a CNM1 file."""
    raw = Path(path).read_bytes()
    pos = 0

    def take(fmt):
        nonlocal pos
        out = struct.unpack_from(fmt, raw, pos)
        pos += struct.calcsize(fmt)
        return out

    if raw[:4] != b"CNM1":
        raise ValueError(f"{path}: not a CNM1 file")
    pos = 4
    version, name_len = take("<IH")
    if version != 1:
        raise ValueError(f"{path}: version {version}")
    name = raw[pos:pos + name_len].decode()
    pos += name_len
    (count,) = take("<I")
    params = {}
    for _ in range(count):
        (key_len,) = take("<H")
        key = raw[pos:pos + key_len].decode()
        pos += key_len
        (ndim,) = take("<B")
        shape = take(f"<{ndim}I")
        size = int(np.prod(shape))
        params[key] = np.frombuffer(raw, "<f4", size, pos).reshape(shape).copy()
        pos += 4 * size
    if pos != len(raw):
        raise ValueError(f"{path}: {len(raw) - pos} trailing bytes")
    return name, params


def layer_kinds(name, keys):
    """The full ordered layer-kind list implied by a model name and its keys."""
    pool = "blurpool2" if "+bp" in name else "maxpool2"
    parametric = {}
    for key in keys:
        index, kind, _ = key.split(".")
        parametric[int(index)] = kind
    order = sorted(parametric)
    kinds = []
    for pos, index in enumerate(order):
        if index != len(kinds):
            raise ValueError(f"{name}: no slot layout reaches layer {index}")
        kind = parametric[index]
        kinds.append(kind)
        if kind == "dense":
            kinds.append("softmax")
            continue
        if kind in CONVS:
            kinds.append("relu")
            if parametric.get(index + 2) == "squeeze_excite":
                continue
        nxt = order[pos + 1]
        slots = nxt - len(kinds)
        if parametric[nxt] == "dense":
            kinds.extend([pool] * (slots - 1) + ["gap"])
        else:
            kinds.extend([pool] * slots)
    if kinds[-1] != "softmax":
        raise ValueError(f"{name}: the model does not end in a dense head")
    return kinds


def conv3(x, w, b):
    """3x3 cross-correlation, zero padding 1, stride 1."""
    n, _, h, wd = x.shape
    xp = np.pad(x, ((0, 0), (0, 0), (1, 1), (1, 1)))
    out = np.zeros((w.shape[0], n, h, wd))
    for u in range(3):
        for v in range(3):
            out += np.tensordot(w[:, :, u, v], xp[:, :, u:u + h, v:v + wd], axes=(1, 1))
    return out.transpose(1, 0, 2, 3) + b[:, None, None]


def conv_dw(x, dw_w, dw_b, pw_w, pw_b):
    """Per-channel 3x3 (+bias), then a 1x1 conv (+bias), no activation between."""
    _, _, h, wd = x.shape
    xp = np.pad(x, ((0, 0), (0, 0), (1, 1), (1, 1)))
    mid = np.zeros_like(x)
    for u in range(3):
        for v in range(3):
            mid += dw_w[None, :, u, v, None, None] * xp[:, :, u:u + h, v:v + wd]
    mid += dw_b[:, None, None]
    return np.tensordot(mid, pw_w, axes=(1, 1)).transpose(0, 3, 1, 2) + pw_b[:, None, None]


def maxpool2(x):
    """2x2 windows at stride 2; an odd edge pools over the cells that exist."""
    n, c, h, w = x.shape
    xp = np.full((n, c, h + h % 2, w + w % 2), -np.inf)
    xp[:, :, :h, :w] = x
    return xp.reshape(n, c, xp.shape[2] // 2, 2, xp.shape[3] // 2, 2).max(axis=(3, 5))


def blurpool2(x):
    """Binomial 3x3 blur over reflect padding, then every second row and column."""
    _, _, h, w = x.shape
    xp = np.pad(x, ((0, 0), (0, 0), (1, 1), (1, 1)), mode="reflect")
    blur = sum(BLUR[u, v] * xp[:, :, u:u + h, v:v + w] for u in range(3) for v in range(3))
    return blur[:, :, ::2, ::2]


def squeeze_excite(x, w1, b1, w2, b2):
    """Scale each channel by sigmoid(w2 . relu(w1 . mean(x) + b1) + b2)."""
    s = x.mean(axis=(2, 3))
    z = np.maximum(s @ w1.T + b1, 0.0) @ w2.T + b2
    return x / (1.0 + np.exp(-z))[:, :, None, None]


def softmax(z):
    e = np.exp(z - z.max(axis=1, keepdims=True))
    return e / e.sum(axis=1, keepdims=True)


def logits(kinds, params, x):
    """Float64 forward pass up to the softmax; `params` uses the file's keys."""
    x = np.asarray(x, dtype=np.float64)
    for i, kind in enumerate(kinds):
        p = {k.split(".")[2]: v.astype(np.float64)
             for k, v in params.items() if k.startswith(f"{i:02d}.")}
        if kind == "conv3":
            x = conv3(x, p["w"], p["b"])
        elif kind == "conv_dw":
            x = conv_dw(x, p["dw_w"], p["dw_b"], p["pw_w"], p["pw_b"])
        elif kind == "relu":
            x = np.maximum(x, 0.0)
        elif kind == "maxpool2":
            x = maxpool2(x)
        elif kind == "blurpool2":
            x = blurpool2(x)
        elif kind == "squeeze_excite":
            x = squeeze_excite(x, p["w1"], p["b1"], p["w2"], p["b2"])
        elif kind == "gap":
            x = x.mean(axis=(2, 3))
        elif kind == "dense":
            x = x.reshape(len(x), -1) @ p["w"].T + p["b"]
        elif kind == "softmax":
            return x
        else:
            raise ValueError(f"unknown layer kind {kind!r}")
    raise ValueError("the layer list has no softmax")


def probabilities(kinds, params, x, chunk=32):
    """Float64 class probabilities, computed `chunk` images at a time."""
    return np.concatenate([softmax(logits(kinds, params, x[i:i + chunk]))
                           for i in range(0, len(x), chunk)])


def forward_shapes(kinds, params, input_dims):
    """(kind, in_channels, out_channels, h, w) per layer, h/w at its input."""
    c, h, w = input_dims
    out = []
    for i, kind in enumerate(kinds):
        p = {k.split(".")[2]: v for k, v in params.items() if k.startswith(f"{i:02d}.")}
        cout = c
        if kind == "conv3":
            cout = p["w"].shape[0]
        elif kind == "conv_dw":
            cout = p["pw_w"].shape[0]
        elif kind == "dense":
            cout = p["w"].shape[0]
        out.append((kind, c, cout, h, w))
        if kind in ("maxpool2", "blurpool2"):
            h, w = (h + 1) // 2, (w + 1) // 2
        elif kind == "gap":
            h = w = 1
        c = cout
    return out


def forward_flops(kinds, params, input_dims):
    """Analytic multiply-add FLOPs (2 per MAC) of one image's forward pass,
    summed per kind, for the three kinds that hold nearly all of them."""
    flops = {"conv3": 0, "conv_dw": 0, "dense": 0}
    for kind, cin, cout, h, w in forward_shapes(kinds, params, input_dims):
        if kind == "conv3":
            flops[kind] += 2 * 9 * cin * cout * h * w
        elif kind == "conv_dw":
            flops[kind] += 2 * 9 * cin * h * w + 2 * cin * cout * h * w
        elif kind == "dense":
            flops[kind] += 2 * cin * cout
    return flops
