import os
import re
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

from lightcnn import cli, data, zoo
from lightcnn.cli import main, parse_config_text, effective_config, UsageError
from lightcnn.train import TrainConfig


def run_cli(argv, capsys):
    """Invoke main() trapping argparse SystemExits; returns (code, out, err)."""
    try:
        code = main(argv)
    except SystemExit as exc:
        code = exc.code if isinstance(exc.code, int) else 1
    out, err = capsys.readouterr()
    return code, out, err


def make_container(tmp_path, classes=4, per_class=10, size=16, seed=1,
                   name="set.cds"):
    ds = data.synth(classes, per_class, dims=size, seed=seed)
    path = tmp_path / name
    data.save_container(ds, path)
    return path


BASE_CONFIG = """
# smoke config
arch = custom140_dw
epochs = 1
batch_size = 16
lr = 0.02
seed = 3
"""


class TestConfigParsing:
    def test_defaults_fill_in(self):
        cfg = parse_config_text("arch = custom140_dw\n")
        assert cfg["epochs"] == 15
        assert cfg["batch_size"] == 64
        assert cfg["swa"] is False

    def test_defaults_match_train_config(self):
        # the schema restates TrainConfig's defaults; they must not drift
        cfg = parse_config_text("")
        defaults = vars(TrainConfig())
        shared = cfg.keys() & defaults.keys()
        assert {"epochs", "lr", "momentum", "mixup_alpha"} <= shared
        for key in shared:
            assert cfg[key] == defaults[key], key
        for key, field in (("label_smoothing", "smoothing"), ("mixup", "use_mixup"),
                           ("swa", "use_swa")):
            assert cfg[key] == defaults[field], key
        assert cli._augment_dict(cfg) == defaults["augment"]

    def test_comments_and_blanks(self):
        cfg = parse_config_text("# top\n\narch = custom140_dw  # inline\n")
        assert cfg["arch"] == "custom140_dw"

    def test_unknown_key_with_line(self):
        with pytest.raises(UsageError, match=":3"):
            parse_config_text("arch = custom140_dw\n\nwarp = 9\n", "cfg.txt")

    def test_bad_value_with_context(self):
        with pytest.raises(UsageError, match="epochs"):
            parse_config_text("epochs = soon\n")

    def test_duplicate_key(self):
        with pytest.raises(UsageError, match="duplicate"):
            parse_config_text("seed = 1\nseed = 2\n")

    def test_missing_equals(self):
        with pytest.raises(UsageError, match="key = value"):
            parse_config_text("just words\n")

    def test_unknown_arch(self):
        with pytest.raises(UsageError, match="arch"):
            parse_config_text("arch = resnet50\n")

    def test_bool_values(self):
        cfg = parse_config_text("swa = true\nmixup = FALSE\n")
        assert cfg["swa"] is True and cfg["mixup"] is False

    def test_echo_replayable(self):
        cfg = parse_config_text("arch = custom340_3x3\nswa = true\n")
        echoed = effective_config(cfg)
        again = parse_config_text(echoed)
        assert again == cfg


class TestSynthCommand:
    def test_writes_container(self, tmp_path, capsys):
        out = tmp_path / "d.cds"
        code, stdout, _ = run_cli(["synth", "--classes", "4", "--per-class",
                                   "5", "--size", "16", "--seed", "1",
                                   "--out", str(out)], capsys)
        assert code == 0
        ds = data.load_container(out)
        assert len(ds) == 20
        assert "wrote" in stdout

    def test_same_seed_byte_identical(self, tmp_path, capsys):
        a, b = tmp_path / "a.cds", tmp_path / "b.cds"
        for path in (a, b):
            code, _, _ = run_cli(["synth", "--classes", "3", "--per-class",
                                  "4", "--size", "12", "--seed", "7",
                                  "--out", str(path)], capsys)
            assert code == 0
        assert a.read_bytes() == b.read_bytes()

    def test_one_class_usage_error(self, tmp_path, capsys):
        code, _, err = run_cli(["synth", "--classes", "1", "--out",
                                str(tmp_path / "x.cds")], capsys)
        assert code == 1
        assert "classes" in err

    def test_unwritable_path(self, tmp_path, capsys):
        code, _, err = run_cli(["synth", "--classes", "2", "--per-class", "2",
                                "--size", "8", "--out",
                                str(tmp_path / "no" / "dir" / "x.cds")], capsys)
        assert code == 2


class TestTrainCommand:
    def _train(self, tmp_path, capsys, config_text=BASE_CONFIG, name="m.cnm"):
        cfg = tmp_path / "cfg.txt"
        cfg.write_text(config_text)
        dataset = make_container(tmp_path, classes=4, per_class=10, size=28)
        out = tmp_path / name
        code, stdout, err = run_cli(["train", "--config", str(cfg), "--data",
                                     str(dataset), "--out", str(out)], capsys)
        return code, stdout, err, out

    def test_writes_model_and_report(self, tmp_path, capsys):
        code, stdout, _, out = self._train(tmp_path, capsys)
        assert code == 0
        assert out.exists()
        report = out.with_suffix(".csv")
        lines = report.read_text().strip().splitlines()
        assert lines[0] == "epoch,train_loss,train_acc,eval_acc,seconds"
        assert len(lines) == 2  # one epoch

    def test_echoes_effective_config(self, tmp_path, capsys):
        code, stdout, _, _ = self._train(tmp_path, capsys)
        assert "arch = custom140_dw" in stdout
        assert "momentum = 0.9" in stdout  # default echoed too

    def test_zero_epochs_keeps_init(self, tmp_path, capsys):
        text = BASE_CONFIG.replace("epochs = 1", "epochs = 0")
        code, _, _, out = self._train(tmp_path, capsys, text)
        assert code == 0
        report = out.with_suffix(".csv").read_text().strip().splitlines()
        assert len(report) == 1  # header only
        loaded = zoo.load_model(out, input_dims=(1, 28, 28), num_classes=4)
        fresh = zoo.build("custom140_dw", seed=3, num_classes=4)
        for k, v in fresh.params().items():
            np.testing.assert_array_equal(loaded.params()[k], v)

    def test_swa_writes_second_file(self, tmp_path, capsys):
        text = BASE_CONFIG.replace("epochs = 1", "epochs = 2") + "swa = true\n"
        code, _, _, out = self._train(tmp_path, capsys, text)
        assert code == 0
        assert out.with_name("m-swa.cnm").exists()

    def test_unknown_config_key_exit_1(self, tmp_path, capsys):
        code = self._train(tmp_path, capsys, BASE_CONFIG + "brightness = 2\n")[0]
        assert code == 1

    @pytest.mark.parametrize("lines, lineno", [
        ("momentum = 1.5", 8),
        ("split_fraction = 1.5", 8),
        ("mixup = true\nmixup_alpha = 0", 9),
        # every TrainConfig bound; a key BASE_CONFIG sets moves to the end
        ("epochs = -1", 7),
        ("lr = -0.5", 7),
        ("lr_min = -1", 8),
        ("label_smoothing = 1.0", 8),
    ])
    def test_out_of_range_value_exit_1_with_line(self, tmp_path, capsys,
                                                 lines, lineno):
        key = lines.splitlines()[-1].split(" = ")[0]
        base = re.sub(rf"^{key} = .*\n", "", BASE_CONFIG, flags=re.M)
        code, _, err, out = self._train(tmp_path, capsys, base + lines + "\n")
        assert code == 1
        assert f"cfg.txt:{lineno}: {key}: " in err
        assert not out.exists()

    @pytest.mark.parametrize("epochs", [
        3,
        1,  # the one step ends with finite weights; the epoch-end eval overflows
    ])
    def test_diverging_run_exit_2_without_model(self, tmp_path, capsys, epochs):
        cfg = tmp_path / "cfg.txt"
        cfg.write_text(BASE_CONFIG.replace("lr = 0.02", "lr = 1e6")
                       .replace("epochs = 1", f"epochs = {epochs}"))
        dataset = make_container(tmp_path, classes=2, per_class=10, size=16)
        out = tmp_path / "m.cnm"
        with np.errstate(all="ignore"):
            code, _, err = run_cli(["train", "--config", str(cfg), "--data",
                                    str(dataset), "--out", str(out)], capsys)
        assert code == 2
        assert re.search(r"diverged: loss is nan at epoch \d+, step \d+", err)
        assert not out.exists() and not out.with_suffix(".csv").exists()

    def test_batch_size_zero_exit_1_before_dataset(self, tmp_path, capsys):
        cfg = tmp_path / "bad.cfg"
        cfg.write_text("batch_size = 0\n")
        code, _, err = run_cli(["train", "--config", str(cfg), "--data",
                                str(tmp_path / "ghost.cds"), "--out",
                                str(tmp_path / "m.cnm")], capsys)
        assert code == 1
        assert "bad.cfg:1: batch_size" in err

    def test_missing_dataset_exit_2(self, tmp_path, capsys):
        cfg = tmp_path / "cfg.txt"
        cfg.write_text(BASE_CONFIG)
        code, _, err = run_cli(["train", "--config", str(cfg), "--data",
                                str(tmp_path / "ghost.cds"), "--out",
                                str(tmp_path / "m.cnm")], capsys)
        assert code == 2

    def test_corrupt_dataset_exit_2(self, tmp_path, capsys):
        cfg = tmp_path / "cfg.txt"
        cfg.write_text(BASE_CONFIG)
        bad = tmp_path / "bad.cds"
        bad.write_bytes(b"WXYZ" + b"\x00" * 40)
        code, _, err = run_cli(["train", "--config", str(cfg), "--data",
                                str(bad), "--out", str(tmp_path / "m.cnm")],
                               capsys)
        assert code == 2
        assert "magic" in err

    def test_empty_image_plane_exit_2_one_line(self, tmp_path, capsys):
        cfg = tmp_path / "cfg.txt"
        cfg.write_text(BASE_CONFIG)
        bad = tmp_path / "flat.cds"
        bad.write_bytes(data._HEADER.pack(data.MAGIC, 4, 0, 5, 2) + bytes([0, 1, 0, 1]))
        code, _, err = run_cli(["train", "--config", str(cfg), "--data",
                                str(bad), "--out", str(tmp_path / "m.cnm")],
                               capsys)
        assert code == 2
        assert err == f"error: {bad}: empty image plane 0x5; need h, w >= 1\n"

    def test_missing_config_exit_1(self, tmp_path, capsys):
        dataset = make_container(tmp_path)
        code, _, _ = run_cli(["train", "--config", str(tmp_path / "none.txt"),
                              "--data", str(dataset), "--out",
                              str(tmp_path / "m.cnm")], capsys)
        assert code == 1

    def test_undecodable_config_exit_1(self, tmp_path, capsys):
        cfg = tmp_path / "cfg.bin"
        cfg.write_bytes(b"arch = \xff\xfe\n")
        code, _, err = run_cli(["train", "--config", str(cfg), "--data",
                                str(tmp_path / "ghost.cds"), "--out",
                                str(tmp_path / "m.cnm")], capsys)
        assert code == 1
        assert err.startswith(f"error: cannot read config {cfg}: ")

    def test_unsplittable_dataset_exit_2_one_line(self, tmp_path, capsys):
        cfg = tmp_path / "cfg.txt"
        cfg.write_text(BASE_CONFIG)
        dataset = make_container(tmp_path, classes=2, per_class=1, size=16)
        out = tmp_path / "m.cnm"
        code, _, err = run_cli(["train", "--config", str(cfg), "--data",
                                str(dataset), "--out", str(out)], capsys)
        assert code == 2
        assert err == "error: class 0 has 1 sample(s); need >= 2\n"
        assert not out.exists()

    def test_replay_echo_reproduces_model(self, tmp_path, capsys):
        code, stdout, _, out = self._train(tmp_path, capsys)
        assert code == 0
        echo = "\n".join(l for l in stdout.splitlines()
                         if " = " in l and not l.startswith("#"))
        cfg2 = tmp_path / "replay.txt"
        cfg2.write_text(echo + "\n")
        dataset = tmp_path / "set.cds"
        out2 = tmp_path / "m2.cnm"
        code2, _, _ = run_cli(["train", "--config", str(cfg2), "--data",
                               str(dataset), "--out", str(out2)], capsys)
        assert code2 == 0
        assert out.read_bytes() == out2.read_bytes()


class TestEvalCommand:
    def test_eval_after_train(self, tmp_path, capsys):
        cfg = tmp_path / "cfg.txt"
        cfg.write_text(BASE_CONFIG)
        dataset = make_container(tmp_path, classes=4, per_class=10, size=28)
        out = tmp_path / "m.cnm"
        _, train_out, _ = run_cli(["train", "--config", str(cfg), "--data",
                                   str(dataset), "--out", str(out)], capsys)
        code, stdout, _ = run_cli(["eval", "--model", str(out), "--data",
                                   str(dataset)], capsys)
        assert code == 0
        assert "accuracy:" in stdout
        assert "| class0 |" in stdout
        # both print the saved weights' digest as their last line
        model = zoo.load_model(out, input_dims=(1, 28, 28), num_classes=4)
        digest = f"weights sha256 {zoo.weights_digest(model.params())}"
        assert train_out.splitlines()[-1] == digest
        assert stdout.splitlines()[-1] == digest

    def test_zero_classes_exit_2_one_line(self, tmp_path, capsys):
        net = zoo.build("custom140_dw", input_dims=(1, 5, 5), num_classes=2)
        model = tmp_path / "m.cnm"
        zoo.save_model(net, model)
        bad = tmp_path / "none.cds"
        bad.write_bytes(data._HEADER.pack(data.MAGIC, 0, 5, 5, 0))
        code, stdout, err = run_cli(["eval", "--model", str(model), "--data",
                                     str(bad)], capsys)
        assert code == 2
        assert err == f"error: {bad}: header has 0 classes; need at least 1\n"
        assert stdout == ""

    def test_missing_model_exit_2(self, tmp_path, capsys):
        dataset = make_container(tmp_path)
        code, _, err = run_cli(["eval", "--model", str(tmp_path / "no.cnm"),
                                "--data", str(dataset)], capsys)
        assert code == 2

    def test_corrupt_model_exit_2(self, tmp_path, capsys):
        dataset = make_container(tmp_path)
        bad = tmp_path / "bad.cnm"
        bad.write_bytes(b"NOPE" + b"\x00" * 20)
        code, _, err = run_cli(["eval", "--model", str(bad), "--data",
                                str(dataset)], capsys)
        assert code == 2
        assert "magic" in err

    def test_class_count_mismatch_exit_2_one_line(self, tmp_path, capsys):
        net = zoo.build("custom140_dw", input_dims=(1, 16, 16), num_classes=4)
        model = tmp_path / "m.cnm"
        zoo.save_model(net, model)
        dataset = make_container(tmp_path, classes=2, per_class=3, size=16)
        code, stdout, err = run_cli(["eval", "--model", str(model), "--data",
                                     str(dataset)], capsys)
        assert code == 2
        assert err == f"error: {model}: model has 4 classes, expected 2\n"
        assert stdout == ""

    def test_overflowing_model_exit_2(self, tmp_path, capsys):
        # finite weights, so save_model accepts them, but the forward overflows
        dataset = make_container(tmp_path, classes=2, per_class=10, size=16)
        net = zoo.build("custom140_dw", input_dims=(1, 16, 16), num_classes=2)
        for name, w in net.params().items():
            if name.endswith("dense.w"):
                w[...] = 3e38
        model = tmp_path / "m.cnm"
        zoo.save_model(net, model)
        with np.errstate(all="ignore"):
            code, stdout, err = run_cli(["eval", "--model", str(model), "--data",
                                         str(dataset)], capsys)
        assert code == 2
        assert len(err.splitlines()) == 1 and err.startswith("error: ")
        assert "accuracy" not in stdout


class TestParamsCommand:
    def test_breakdown_and_total(self, capsys):
        code, stdout, _ = run_cli(["params", "--arch", "custom590_dw"], capsys)
        assert code == 0
        conv_rows = [l for l in stdout.splitlines()
                     if "conv3" in l or "conv_dw" in l]
        assert len(conv_rows) == 12
        total_line = [l for l in stdout.splitlines() if "total" in l][0]
        total = int(total_line.split("|")[2].strip().replace(",", ""))
        assert abs(total - 590_000) / 590_000 <= 0.02

    def test_all_table(self, capsys):
        code, stdout, _ = run_cli(["params", "--arch", "all"], capsys)
        assert code == 0
        assert stdout.count("custom") == 6

    def test_unknown_arch_exit_1(self, capsys):
        code, _, err = run_cli(["params", "--arch", "vgg16"], capsys)
        assert code == 1

    def test_se_flag_increases_total(self, capsys):
        def total_of(args):
            _, stdout, _ = run_cli(args, capsys)
            line = [l for l in stdout.splitlines() if "total" in l][0]
            return int(line.split("|")[2].strip().replace(",", ""))
        plain = total_of(["params", "--arch", "custom140_dw"])
        with_se = total_of(["params", "--arch", "custom140_dw", "--se"])
        assert with_se > plain


class TestBenchCommand:
    def test_csv_format(self, capsys):
        code, stdout, _ = run_cli(["bench", "--archs", "custom140_dw",
                                   "--batch", "2", "--warmup", "1",
                                   "--iters", "3", "--format", "csv"], capsys)
        assert code == 0
        rows = [l for l in stdout.splitlines() if not l.startswith("#")]
        assert rows[0].startswith("model,params,param_ratio,batch_ms,indiv_ms,speedup")
        assert rows[1].startswith("custom140_dw,")

    def test_csv_names_weight_digest(self, capsys):
        code, stdout, _ = run_cli(["bench", "--archs", "custom140_dw", "--seed", "4",
                                   "--batch", "2", "--warmup", "1",
                                   "--iters", "3", "--format", "csv"], capsys)
        assert code == 0
        rows = [l.split(",") for l in stdout.splitlines() if not l.startswith("#")]
        assert rows[0][-1] == "weights_digest"
        assert rows[1][-1] == zoo.weights_digest(zoo.build("custom140_dw", seed=4).params())

    def test_markdown_format(self, capsys):
        code, stdout, _ = run_cli(["bench", "--archs",
                                   "custom140_3x3,custom140_dw",
                                   "--batch", "2", "--warmup", "1",
                                   "--iters", "3", "--format", "markdown"],
                                  capsys)
        assert code == 0
        assert stdout.count("| custom140") == 2

    def test_unknown_arch_exit_1(self, capsys):
        code, _, err = run_cli(["bench", "--archs", "alexnet", "--iters", "2"],
                               capsys)
        assert code == 1

    def test_bad_flag_exit_1(self, capsys):
        code, _, _ = run_cli(["bench", "--format", "xml"], capsys)
        assert code == 1


class TestTopLevel:
    def test_no_command_exit_1(self, capsys):
        code, _, _ = run_cli([], capsys)
        assert code == 1

    def test_unknown_command_exit_1(self, capsys):
        code, _, _ = run_cli(["dance"], capsys)
        assert code == 1

    @pytest.mark.parametrize("argv, flag", [
        (["bench", "--archs", "custom140_dw", "--batch", "0"], "--batch"),
        (["bench", "--archs", "custom140_dw", "--iters", "0"], "--iters"),
        (["bench", "--archs", "custom140_dw", "--warmup", "-1"], "--warmup"),
        (["synth", "--size", "0", "--out", "x.cds"], "--size"),
        (["synth", "--classes", "256", "--out", "x.cds"], "--classes"),
    ], ids=["argv0", "argv1", "argv2", "argv3", "argv4"])
    def test_bad_number_one_error_line(self, tmp_path, argv, flag):
        # a real process, so an uncaught exception would show its traceback
        env = dict(os.environ, PYTHONPATH=str(Path(__file__).parents[1] / "src"))
        proc = subprocess.run([sys.executable, "-m", "lightcnn.cli", *argv], cwd=tmp_path,
                              env=env, capture_output=True, text=True, timeout=120)
        assert proc.returncode == 1
        assert "Traceback" not in proc.stderr
        assert len(proc.stderr.splitlines()) == 1
        assert proc.stderr.startswith("error: ")
        assert flag in proc.stderr
        assert not (tmp_path / "x.cds").exists()

    @pytest.mark.parametrize("command", ["train", "eval"])
    def test_overflow_one_error_line(self, tmp_path, command):
        # a real process, where numpy warns on overflow instead of raising
        dataset = make_container(tmp_path, classes=2, per_class=10, size=16)
        if command == "train":
            cfg = tmp_path / "cfg.txt"
            cfg.write_text(BASE_CONFIG.replace("lr = 0.02", "lr = 1e6"))
            argv = ["train", "--config", str(cfg), "--out", str(tmp_path / "m2.cnm")]
        else:
            net = zoo.build("custom140_dw", input_dims=(1, 16, 16), num_classes=2)
            for name, w in net.params().items():
                if name.endswith("dense.w"):
                    w[...] = 3e38
            zoo.save_model(net, tmp_path / "m.cnm")
            argv = ["eval", "--model", str(tmp_path / "m.cnm")]
        env = dict(os.environ, PYTHONPATH=str(Path(__file__).parents[1] / "src"))
        proc = subprocess.run([sys.executable, "-m", "lightcnn.cli", *argv, "--data",
                               str(dataset)], cwd=tmp_path, env=env,
                              capture_output=True, text=True, timeout=120)
        assert proc.returncode == 2
        assert len(proc.stderr.splitlines()) == 1, proc.stderr
        assert proc.stderr.startswith("error: ")
