"""Precision mode and a deterministic RNG.

Activations, weights and gradients are plain numpy arrays; this module holds
the process-wide setting the rest of the engine reads: a switchable default
precision (float64 for gradient checking, float32 for training and
benchmarking), and a counter-based random generator that produces
bit-identical streams for a given seed on every platform.
"""

from __future__ import annotations

import math
from contextlib import contextmanager

import numpy as np

__all__ = [
    "default_dtype",
    "using_dtype",
    "Rng",
]

_DTYPE_NAMES = {"float32": np.float32, "float64": np.float64}
_state = {"dtype": np.float32}


def default_dtype():
    """The element type used for weight initialisation and training batches."""
    return _state["dtype"]


@contextmanager
def using_dtype(dtype: str):
    """Temporarily switch the default precision: "float32" or "float64"."""
    if dtype not in _DTYPE_NAMES:
        raise ValueError(f"unsupported dtype {dtype!r}; use 'float32' or 'float64'")
    prev = _state["dtype"]
    _state["dtype"] = _DTYPE_NAMES[dtype]
    try:
        yield
    finally:
        _state["dtype"] = prev


# ---------------------------------------------------------------------------
# counter-based RNG (SplitMix64 core)
# ---------------------------------------------------------------------------

_MASK64 = (1 << 64) - 1
_GOLDEN = 0x9E3779B97F4A7C15
_MIX1 = 0xBF58476D1CE4E5B9
_MIX2 = 0x94D049BB133111EB
_INV53 = 1.0 / (1 << 53)


def _mix(z: int) -> int:
    z &= _MASK64
    z = ((z ^ (z >> 30)) * _MIX1) & _MASK64
    z = ((z ^ (z >> 27)) * _MIX2) & _MASK64
    return z ^ (z >> 31)


def _mix_array(z: np.ndarray) -> np.ndarray:
    """_mix over a uint64 array, in place (one shift buffer); returns z."""
    t = np.empty_like(z)
    z ^= np.right_shift(z, np.uint64(30), out=t)
    z *= np.uint64(_MIX1)
    z ^= np.right_shift(z, np.uint64(27), out=t)
    z *= np.uint64(_MIX2)
    z ^= np.right_shift(z, np.uint64(31), out=t)
    return z


class Rng:
    """Deterministic counter-based generator.

    Output ``k`` is a pure function of ``(seed, k)``: the 64-bit counter is
    advanced by a fixed odd constant and hashed (SplitMix64 finaliser), so
    equal seeds give bit-identical streams on every platform, and array
    draws consume exactly the same counters as the equivalent scalar draws.
    """

    def __init__(self, seed: int):
        self._seed = int(seed) & _MASK64
        self._count = 0

    @classmethod
    def derive(cls, seed: int, *keys: int) -> "Rng":
        """Independent stream for (seed, key...) tuples, e.g. per sample.

        Streams of one run seed start with a domain key so that they never
        share a tuple: 1 batch order (epoch), 2 mixup (epoch, batch start),
        3 layer init (layer index), 4 augmentation (epoch, sample index).
        """
        state = int(seed) & _MASK64
        for k in keys:
            state = _mix((state + (int(k) + 1) * _GOLDEN) & _MASK64)
        return cls(state)

    # -- raw counters --------------------------------------------------

    def _next_u64(self) -> int:
        self._count += 1
        return _mix((self._seed + self._count * _GOLDEN) & _MASK64)

    def _next_u64_array(self, n: int) -> np.ndarray:
        z = np.arange(self._count + 1, self._count + n + 1, dtype=np.uint64)
        self._count += n
        z *= np.uint64(_GOLDEN)  # array arithmetic wraps mod 2**64, as _MASK64 does
        z += np.uint64(self._seed)
        return _mix_array(z)

    # -- distributions -------------------------------------------------

    def uniform(self, lo: float = 0.0, hi: float = 1.0) -> float:
        """Uniform draw in [lo, hi)."""
        if not lo < hi:
            raise ValueError(f"uniform requires lo < hi, got [{lo}, {hi})")
        u = (self._next_u64() >> 11) * _INV53
        return lo + (hi - lo) * u

    def uniform_array(self, n: int, lo: float = 0.0, hi: float = 1.0) -> np.ndarray:
        if not lo < hi:
            raise ValueError(f"uniform requires lo < hi, got [{lo}, {hi})")
        u = (self._next_u64_array(n) >> np.uint64(11)).astype(np.float64) * _INV53
        return lo + (hi - lo) * u

    def normal(self, mean: float = 0.0, std: float = 1.0) -> float:
        """Gaussian draw via Box-Muller; consumes exactly two counters."""
        if std <= 0:
            raise ValueError(f"normal requires std > 0, got {std}")
        u1 = ((self._next_u64() >> 11) + 1) * _INV53  # in (0, 1]
        u2 = (self._next_u64() >> 11) * _INV53
        z = math.sqrt(-2.0 * math.log(u1)) * math.cos(2.0 * math.pi * u2)
        return mean + std * z

    def normal_array(self, n: int, mean: float = 0.0, std: float = 1.0) -> np.ndarray:
        if std <= 0:
            raise ValueError(f"normal requires std > 0, got {std}")
        # the scalar formula evaluated in place, operation for operation
        bits = self._next_u64_array(2 * n).reshape(n, 2)
        bits >>= np.uint64(11)
        z = bits[:, 0].astype(np.float64)
        z += 1.0
        z *= _INV53                      # u1 in (0, 1]
        u2 = bits[:, 1].astype(np.float64)
        u2 *= _INV53
        np.log(z, out=z)
        z *= -2.0
        np.sqrt(z, out=z)
        u2 *= 2.0 * np.pi
        np.cos(u2, out=u2)
        z *= u2
        z *= std
        z += mean
        return z

    def gamma(self, shape: float) -> float:
        """Gamma(shape, 1) draw, Marsaglia-Tsang squeeze method."""
        if shape <= 0:
            raise ValueError(f"gamma requires shape > 0, got {shape}")
        if shape < 1.0:
            # boost: Gamma(a) = Gamma(a + 1) * U^(1/a)
            u = ((self._next_u64() >> 11) + 1) * _INV53
            return self.gamma(shape + 1.0) * u ** (1.0 / shape)
        d = shape - 1.0 / 3.0
        c = 1.0 / math.sqrt(9.0 * d)
        while True:
            x = self.normal()
            v = 1.0 + c * x
            if v <= 0.0:
                continue
            v = v * v * v
            u = ((self._next_u64() >> 11) + 1) * _INV53
            if math.log(u) < 0.5 * x * x + d - d * v + d * math.log(v):
                return d * v

    def beta(self, a: float, b: float) -> float:
        """Beta(a, b) draw in [0, 1] via two Gamma draws."""
        if a <= 0 or b <= 0:
            raise ValueError(f"beta requires a, b > 0, got ({a}, {b})")
        ga = self.gamma(a)
        gb = self.gamma(b)
        if ga + gb == 0.0:
            return 0.5  # both underflowed; exact tie
        return ga / (ga + gb)

    # -- integers and shuffles ------------------------------------------

    def below(self, n: int) -> int:
        """Uniform integer in [0, n) (Lemire multiply-shift)."""
        if n < 1:
            raise ValueError(f"below requires n >= 1, got {n}")
        return (self._next_u64() * n) >> 64

    def permutation(self, n: int) -> np.ndarray:
        """Fisher-Yates permutation of range(n)."""
        perm = np.arange(n)
        for i in range(n - 1, 0, -1):
            j = self.below(i + 1)
            perm[i], perm[j] = perm[j], perm[i]
        return perm
