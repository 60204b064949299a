import hashlib

import numpy as np
import pytest

from lightcnn import layers, zoo
from lightcnn.layers import (
    CONV3, CONV_DW, MAXPOOL2, BLURPOOL2, GAP, DENSE, SOFTMAX, SQUEEZE_EXCITE,
)
from lightcnn.tensor import Rng
from lightcnn.zoo import (
    ARCH_NAMES, PARAM_BUDGETS,
    arch_spec, build, count_params, describe, full_name, parse_name,
    save_model, load_model, weights_digest,
)

CONV_KINDS = (CONV3, CONV_DW)

EXPECTED_CONV_COUNTS = {
    "custom590_3x3": (8, 0),    # (conv3, conv_dw) — totals 8 / 12 / 7 / 11 / 7 / 9
    "custom590_dw": (4, 8),
    "custom340_3x3": (7, 0),
    "custom340_dw": (4, 7),
    "custom140_3x3": (7, 0),
    "custom140_dw": (4, 5),
}


def _conv_kinds(name, **opts):
    return [s.kind for s in arch_spec(name, **opts) if s.kind in CONV_KINDS]


class TestRecipes:
    def test_conv_counts_per_arch(self):
        for name, (n3, ndw) in EXPECTED_CONV_COUNTS.items():
            kinds = _conv_kinds(name)
            assert kinds.count(CONV3) == n3, name
            assert kinds.count(CONV_DW) == ndw, name

    def test_590_dw_exact_pattern(self):
        want = [CONV3, CONV3, CONV_DW, CONV3, CONV_DW, CONV3] + [CONV_DW] * 6
        assert _conv_kinds("custom590_dw") == want

    def test_140_3x3_is_seven_plain_convs(self):
        assert _conv_kinds("custom140_3x3") == [CONV3] * 7

    def test_dw_strictly_deeper_at_each_budget(self):
        for budget in ("140", "340", "590"):
            n_dw = len(_conv_kinds(f"custom{budget}_dw"))
            n_3x3 = len(_conv_kinds(f"custom{budget}_3x3"))
            assert n_dw > n_3x3

    def test_tail_is_gap_dense_softmax(self):
        for name in ARCH_NAMES:
            tail = [s.kind for s in arch_spec(name)[-3:]]
            assert tail == [GAP, DENSE, SOFTMAX]

    def test_three_pools(self):
        for name in ARCH_NAMES:
            kinds = [s.kind for s in arch_spec(name)]
            assert kinds.count(MAXPOOL2) == 3
            bp = [s.kind for s in arch_spec(name, blurpool=True)]
            assert bp.count(BLURPOOL2) == 3 and bp.count(MAXPOOL2) == 0

    def test_channel_chain(self):
        for name in ARCH_NAMES:
            specs = arch_spec(name, squeeze_excite=True, blurpool=True)
            cin = 1
            for s in specs:
                assert s.in_channels == cin, f"{name}: broken chain at {s.kind}"
                cin = s.out_channels

    def test_every_layer_kind_is_built_by_some_recipe(self):
        # a kind no zoo model builds is code no production run reaches
        built = {s.kind for name in ARCH_NAMES
                 for blurpool in (False, True) for se in (False, True)
                 for s in arch_spec(name, blurpool=blurpool, squeeze_excite=se)}
        assert built == set(layers.KINDS)

    def test_unknown_name(self):
        with pytest.raises(ValueError):
            arch_spec("custom999_dw")
        with pytest.raises(ValueError):
            build("resnet20")


class TestBudgets:
    def test_within_2pct(self):
        for name in ARCH_NAMES:
            total, _ = count_params(build(name))
            budget = PARAM_BUDGETS[name]
            assert abs(total - budget) / budget <= 0.02, name

    def test_final_width_is_budget_optimum(self, monkeypatch):
        # the count rises with the final width, so a width whose two
        # neighbours are no closer to the budget is the closest of all
        for name in ARCH_NAMES:
            kinds, s1, s4, _ = zoo._ARCHS[name]
            budget = PARAM_BUDGETS[name]
            best = abs(build(name).param_count() - budget)
            for neighbour in (s4 - 1, s4 + 1):
                monkeypatch.setitem(zoo._ARCHS, name, (kinds, s1, neighbour, budget))
                assert abs(build(name).param_count() - budget) >= best, (name, neighbour)

    def test_pairs_within_4pct(self):
        for budget in ("140", "340", "590"):
            a, _ = count_params(build(f"custom{budget}_3x3"))
            b, _ = count_params(build(f"custom{budget}_dw"))
            assert abs(a - b) / PARAM_BUDGETS[f"custom{budget}_dw"] <= 0.04

    def test_count_matches_array_sizes(self):
        for name in ARCH_NAMES:
            net = build(name)
            total, breakdown = count_params(net)
            assert total == sum(v.size for v in net.params().values())
            assert total == sum(n for _, n in breakdown)

    def test_blurpool_does_not_change_count(self):
        for name in ARCH_NAMES:
            plain, _ = count_params(build(name))
            bp, _ = count_params(build(name, blurpool=True))
            assert plain == bp

    def test_se_adds_exact_formula(self):
        for name in ARCH_NAMES:
            plain, _ = count_params(build(name))
            with_se, _ = count_params(build(name, squeeze_excite=True))
            extra = 0
            for s in arch_spec(name, squeeze_excite=True):
                if s.kind == SQUEEZE_EXCITE:
                    c = s.in_channels
                    hidden = max(1, c // layers.SE_REDUCTION)
                    extra += c * hidden + hidden + hidden * c + c
            assert with_se == plain + extra


class TestBuiltNetworks:
    def test_forward_probability_vector(self):
        rng = Rng(17)
        for name in ARCH_NAMES:
            net = build(name, seed=3)
            x = rng.uniform_array(28 * 28).reshape(1, 1, 28, 28).astype(np.float32)
            y = net.forward(x)
            assert y.shape == (1, 10, 1, 1)
            assert abs(float(y.sum()) - 1.0) < 1e-5
            assert np.all(y >= 0.0)

    def test_options_forward(self):
        net = build("custom140_dw", blurpool=True, squeeze_excite=True, seed=1)
        x = Rng(3).uniform_array(28 * 28).reshape(1, 1, 28, 28).astype(np.float32)
        y = net.forward(x)
        assert abs(float(y.sum()) - 1.0) < 1e-5

    def test_seed_reproducible_init(self):
        a = build("custom140_3x3", seed=5)
        b = build("custom140_3x3", seed=5)
        for k, v in a.params().items():
            np.testing.assert_array_equal(v, b.params()[k])

    def test_name_tags(self):
        assert full_name("custom140_dw") == "custom140_dw"
        assert full_name("custom140_dw", blurpool=True) == "custom140_dw+bp"
        assert full_name("custom140_dw", squeeze_excite=True) == "custom140_dw+se"
        assert full_name("custom140_dw", True, True) == "custom140_dw+bp+se"
        assert parse_name("custom140_dw+bp+se") == ("custom140_dw", True, True)
        assert parse_name("custom590_3x3") == ("custom590_3x3", False, False)
        with pytest.raises(ValueError):
            parse_name("mystery+bp")


class TestDescribe:
    def test_markdown_table(self):
        text = describe()
        lines = text.splitlines()
        assert lines[0].startswith("| model |")
        assert len(lines) == 2 + len(ARCH_NAMES)
        assert "custom590_dw" in text


class TestModelFile:
    def _roundtrip(self, tmp_path, **opts):
        net = build("custom140_dw", seed=9, **opts)
        path = tmp_path / "m.cnm"
        save_model(net, path)
        return net, load_model(path), path

    def test_identical_outputs_100_inputs(self, tmp_path):
        net, back, _ = self._roundtrip(tmp_path)
        rng = Rng(31)
        for _ in range(100):
            x = rng.uniform_array(28 * 28).reshape(1, 1, 28, 28).astype(np.float32)
            np.testing.assert_array_equal(net.forward(x), back.forward(x))

    def test_load_draws_no_random_numbers(self, tmp_path, monkeypatch):
        net, _, path = self._roundtrip(tmp_path, blurpool=True, squeeze_excite=True)

        def refuse(*args, **kwargs):
            raise AssertionError("load_model drew random numbers")
        monkeypatch.setattr(Rng, "normal_array", refuse)
        monkeypatch.setattr(Rng, "derive", refuse)
        back = load_model(path)
        assert weights_digest(back.params()) == weights_digest(net.params())

    def test_options_encoded_in_name(self, tmp_path):
        net, back, _ = self._roundtrip(tmp_path, blurpool=True,
                                       squeeze_excite=True)
        assert back.name == "custom140_dw+bp+se"
        kinds = [lay.spec.kind for lay in back.layers]
        assert BLURPOOL2 in kinds and SQUEEZE_EXCITE in kinds

    def test_file_size_accounting(self, tmp_path):
        net, _, path = self._roundtrip(tmp_path)
        expected = 4 + 4 + 2 + len(net.name.encode()) + 4
        for key, arr in net.params().items():
            expected += 2 + len(key.encode()) + 1 + 4 * arr.ndim + 4 * arr.size
        assert path.stat().st_size == expected

    def test_bad_magic(self, tmp_path):
        _, _, path = self._roundtrip(tmp_path)
        blob = bytearray(path.read_bytes())
        blob[:4] = b"XNM1"
        path.write_bytes(bytes(blob))
        with pytest.raises(ValueError, match="bad magic"):
            load_model(path)

    def test_version_mismatch(self, tmp_path):
        _, _, path = self._roundtrip(tmp_path)
        blob = bytearray(path.read_bytes())
        blob[4] = 99
        path.write_bytes(bytes(blob))
        with pytest.raises(ValueError, match="version"):
            load_model(path)

    def test_truncation(self, tmp_path):
        _, _, path = self._roundtrip(tmp_path)
        blob = path.read_bytes()
        path.write_bytes(blob[: len(blob) // 2])
        with pytest.raises(ValueError, match="truncated"):
            load_model(path)

    def test_trailing_garbage(self, tmp_path):
        _, _, path = self._roundtrip(tmp_path)
        path.write_bytes(path.read_bytes() + b"\x00\x00")
        with pytest.raises(ValueError, match="trailing"):
            load_model(path)

    def test_class_count_mismatch_names_both_counts(self, tmp_path):
        _, _, path = self._roundtrip(tmp_path)
        with pytest.raises(ValueError) as exc:
            load_model(path, num_classes=3)
        assert str(exc.value) == f"{path}: model has 10 classes, expected 3"

    def test_non_finite_weights_refused(self, tmp_path):
        for bad in (np.nan, np.inf):
            net = build("custom140_dw", seed=9)
            net.layers[0].w.flat[3] = bad
            path = tmp_path / "m.cnm"
            with pytest.raises(ValueError, match="non-finite"):
                save_model(net, path)
            assert not path.exists()

    def test_weights_digest_is_sha256_over_sorted_names_and_f32_bytes(self, tmp_path):
        net, back, _ = self._roundtrip(tmp_path)
        params = net.params()
        h = hashlib.sha256()
        for key in sorted(params):
            h.update(key.encode())
            h.update(params[key].astype("<f4").tobytes())
        assert weights_digest(params) == h.hexdigest()
        assert weights_digest(back.params()) == h.hexdigest()
        # insertion order does not matter; one changed bit does
        assert weights_digest(dict(reversed(list(params.items())))) == h.hexdigest()
        params["00.conv3.b"][0] = np.nextafter(np.float32(0), np.float32(1))
        assert weights_digest(params) != h.hexdigest()
