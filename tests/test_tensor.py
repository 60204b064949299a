import numpy as np
import pytest

from lightcnn import tensor, zoo
from lightcnn.tensor import Rng


class TestConstructors:
    def test_dtype_mode(self):
        assert tensor.default_dtype() is np.float32
        with tensor.using_dtype("float64"):
            assert tensor.default_dtype() is np.float64
        assert tensor.default_dtype() is np.float32
        for name in ("float16", np.float64, None):
            with pytest.raises(ValueError), tensor.using_dtype(name):
                pass
        assert tensor.default_dtype() is np.float32


class TestRng:
    def test_equal_seeds_equal_streams(self):
        a, b = Rng(123), Rng(123)
        for _ in range(10_000):
            assert a._next_u64() == b._next_u64()

    def test_uniform_deterministic(self):
        assert Rng(1).uniform(0, 1) == Rng(1).uniform(0, 1)

    def test_uniform_range(self):
        r = Rng(5)
        xs = [r.uniform(-2.0, 3.0) for _ in range(1000)]
        assert all(-2.0 <= x < 3.0 for x in xs)

    def test_scalar_array_parity(self):
        scalar = Rng(77)
        arr = Rng(77)
        expected = np.array([scalar.uniform() for _ in range(256)])
        np.testing.assert_array_equal(arr.uniform_array(256), expected)

        scalar = Rng(78)
        arr = Rng(78)
        expected = np.array([scalar.normal(1.0, 2.0) for _ in range(256)])
        np.testing.assert_array_equal(arr.normal_array(256, 1.0, 2.0), expected)

    def test_normal_mean_lln(self):
        xs = Rng(2024).normal_array(100_000)
        assert abs(float(xs.mean())) < 0.02

    def test_beta_mean(self):
        # Beta(0.2, 0.2) has analytic mean a/(a+b) = 0.5
        r = Rng(31337)
        total = 0.0
        n = 100_000
        for _ in range(n):
            total += r.beta(0.2, 0.2)
        assert abs(total / n - 0.5) < 0.02

    def test_beta_in_unit_interval(self):
        r = Rng(9)
        for _ in range(2000):
            assert 0.0 <= r.beta(0.2, 0.2) <= 1.0

    def test_invalid_params(self):
        r = Rng(0)
        with pytest.raises(ValueError):
            r.uniform(1.0, 1.0)
        with pytest.raises(ValueError):
            r.normal(0.0, 0.0)
        with pytest.raises(ValueError):
            r.beta(0.0, 1.0)
        with pytest.raises(ValueError):
            r.below(0)

    def test_derive_distinct_streams(self):
        assert Rng.derive(1, 2, 0)._next_u64() != Rng.derive(1, 0, 2)._next_u64()
        assert Rng.derive(1, 5)._next_u64() == Rng.derive(1, 5)._next_u64()

    def test_permutation_is_permutation(self):
        p = Rng(4).permutation(50)
        assert sorted(p.tolist()) == list(range(50))

    def test_known_stream_frozen(self):
        # regression pin: counter-based stream must never change across versions
        r = Rng(0)
        assert [r._next_u64() for _ in range(3)] == [
            16294208416658607535,
            7960286522194355700,
            487617019471545679,
        ]

    def test_known_init_stream_frozen(self):
        # regression pin: the He init that zoo.build draws must never change
        frozen = {
            "custom140_dw": "051a8e37460b395f08b74c8277d7473e888ff41e1b3081e1ccdd81a80133cbf5",
            "custom590_3x3": "15fa42afb5f01d8855eee0ae9876a44d2fb818ce2ea921f0b719b7fa5a3ccbab",
        }
        for name, digest in frozen.items():
            net = zoo.build(name, blurpool=True, squeeze_excite=True, seed=0)
            assert zoo.weights_digest(net.params()) == digest, name
