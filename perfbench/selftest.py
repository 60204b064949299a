"""Hand-computed cases for the float64 reference in reference.py.

Every benchmark run calls run() before it trusts the reference; it can also
be run alone:

    python3 perfbench/selftest.py
"""

import math
import sys

import numpy as np

import reference as ref


def _conv3_ones():
    # a 3x3 all-ones kernel over a 3x3 all-ones image counts each window's
    # in-bounds cells: 4 at corners, 6 at edges, 9 in the centre; bias adds 1
    out = ref.conv3(np.ones((1, 1, 3, 3)), np.ones((1, 1, 3, 3)), np.array([1.0]))
    return np.array_equal(out[0, 0], [[5, 7, 5], [7, 10, 7], [5, 7, 5]])


def _conv_dw_taps():
    # channel 0 keeps only the centre tap (x2), channel 1 only the top-left
    # tap, which reads the pixel up-left; the 1x1 stage sums the channels
    x = np.arange(18.0).reshape(1, 2, 3, 3)
    dw = np.zeros((2, 3, 3))
    dw[0, 1, 1] = 2.0
    dw[1, 0, 0] = 1.0
    out = ref.conv_dw(x, dw, np.array([0.0, 1.0]), np.array([[1.0, 1.0]]), np.array([0.5]))
    ch1 = np.array([[0, 0, 0], [0, 9, 10], [0, 12, 13]]) + 1.0
    return np.array_equal(out[0, 0], 2.0 * x[0, 0] + ch1 + 0.5)


def _maxpool_odd():
    # 3x3 -> 2x2: the last row and column pool over the cells that exist
    x = np.array([[1.0, 9.0, 2.0], [3.0, 4.0, 8.0], [7.0, 5.0, 6.0]])[None, None]
    return np.array_equal(ref.maxpool2(x)[0, 0], [[9, 8], [7, 6]])


def _blurpool_reflect():
    # reflect padding mirrors without repeating the edge, so the blur at a
    # corner of arange(9) averages the 2x2 block there: (0+1+3+4)/4 = 2
    x = np.arange(9.0).reshape(1, 1, 3, 3)
    return np.allclose(ref.blurpool2(x)[0, 0], [[2.0, 3.0], [5.0, 6.0]], rtol=0, atol=1e-15)


def _squeeze_excite():
    # channel means 1 and 3; hidden = relu(mean0) = 1; gates sigmoid(ln 3) = 3/4
    # and sigmoid(0) = 1/2
    x = np.stack([np.ones((2, 2)), 3.0 * np.ones((2, 2))])[None]
    out = ref.squeeze_excite(x, np.array([[1.0, 0.0]]), np.array([0.0]),
                             np.array([[math.log(3.0)], [0.0]]), np.array([0.0, 0.0]))
    return np.allclose(out[0, :, 0, 0], [0.75, 1.5], rtol=0, atol=1e-15)


def _softmax():
    return np.allclose(ref.softmax(np.array([[0.0, math.log(3.0)]])), [[0.25, 0.75]],
                       rtol=0, atol=1e-15)


def _layer_kinds():
    # conv, conv, pool, conv, gap, dense: params at 0, 2, 5, 8 (+se: 0, 3, 7, 11)
    plain = ["00.conv3.w", "02.conv3.w", "05.conv_dw.pw_w", "08.dense.w"]
    se = ["00.conv3.w", "02.squeeze_excite.w1", "03.conv3.w", "05.squeeze_excite.w1",
          "07.conv_dw.pw_w", "09.squeeze_excite.w1", "11.dense.w"]
    return (ref.layer_kinds("m", plain) == [
        "conv3", "relu", "conv3", "relu", "maxpool2", "conv_dw", "relu", "gap",
        "dense", "softmax"]
        and ref.layer_kinds("m+bp+se", se) == [
            "conv3", "relu", "squeeze_excite", "conv3", "relu", "squeeze_excite",
            "blurpool2", "conv_dw", "relu", "squeeze_excite", "gap", "dense", "softmax"])


CASES = {
    "conv3 all-ones window counts": _conv3_ones,
    "depth-wise taps and 1x1 sum": _conv_dw_taps,
    "max pool with odd edges": _maxpool_odd,
    "blur pool reflect padding": _blurpool_reflect,
    "squeeze-excite gates": _squeeze_excite,
    "softmax": _softmax,
    "layer slots from keys": _layer_kinds,
}


def run():
    """Names of the failing cases; empty when the reference is sound."""
    return [name for name, case in CASES.items() if not case()]


if __name__ == "__main__":
    failed = run()
    for name in CASES:
        print(("FAIL " if name in failed else "ok   ") + name)
    sys.exit(1 if failed else 0)
