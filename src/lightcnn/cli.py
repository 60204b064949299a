"""Command-line entry point: synth, train, eval, params, and bench.

Thread-count environment variables are pinned to 1 before numpy loads so
that results are reproducible and latency numbers reflect one CPU thread.

Exit codes: 0 success, 1 usage/config error, 2 data or model file error.
"""

import os

for _var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
             "NUMEXPR_NUM_THREADS", "VECLIB_MAXIMUM_THREADS"):
    os.environ.setdefault(_var, "1")

import argparse
import sys
from pathlib import Path

import numpy as np

from . import bench as bench_mod
from . import data as data_mod
from . import train as train_mod
from . import zoo
from .train import TrainConfig

EXIT_OK = 0
EXIT_USAGE = 1
EXIT_DATA = 2


class UsageError(Exception):
    pass


class DataError(Exception):
    pass


# ------------------------------------------------------------ run config

# key -> (parser, default); parse order is the echo order
def _bool(text):
    low = text.lower()
    if low in ("true", "yes", "1", "on"):
        return True
    if low in ("false", "no", "0", "off"):
        return False
    raise ValueError(f"expected a boolean, got {text!r}")


def _interval(spec):
    """Parser for a number inside an interval written like "[0, 1)"."""
    lo, hi = (float(end) for end in spec[1:-1].split(","))

    def parse(text):
        v = float(text)
        above = lo <= v if spec[0] == "[" else lo < v
        below = v <= hi if spec[-1] == "]" else v < hi
        if not (above and below):
            raise ValueError(f"expected a number in {spec}, got {text}")
        return v
    return parse


def _int_at_least(lo):
    """Parser for an integer no smaller than lo."""

    def parse(text):
        v = int(text)
        if v < lo:
            raise ValueError(f"expected an integer >= {lo}, got {text}")
        return v
    return parse


CONFIG_SCHEMA = {
    "arch": (str, "custom590_dw"),
    "epochs": (_int_at_least(0), 15),
    "batch_size": (_int_at_least(1), 64),
    "lr": (_interval("[0, inf)"), 0.01),
    "lr_min": (_interval("[0, inf)"), 1e-4),
    "momentum": (_interval("[0, 1)"), 0.9),
    "seed": (int, 0),
    "split_fraction": (_interval("(0, 1)"), 0.8),
    "split_seed": (int, 0),
    "blurpool": (_bool, False),
    "se": (_bool, False),
    "swa": (_bool, False),
    "mixup": (_bool, False),
    "mixup_alpha": (_interval("(0, inf)"), 0.2),
    "label_smoothing": (_interval("[0, 1)"), 0.0),
    "cutout": (_bool, False),
    "aug_hflip": (_interval("[0, 1]"), 0.0),
    "aug_vflip": (_interval("[0, 1]"), 0.0),
    "aug_rotation": (_interval("[0, 1]"), 0.0),
    "aug_gaussian_blur": (_interval("[0, 1]"), 0.0),
    "aug_shift_scale_rotate": (_interval("[0, 1]"), 0.0),
    "aug_random_crop": (_interval("[0, 1]"), 0.0),
    "aug_brightness_contrast": (_interval("[0, 1]"), 0.0),
}


def parse_config_text(text: str, source: str = "<config>") -> dict:
    """Parse line-based `key = value` text; '#' starts a comment."""
    values = dict()
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        if "=" not in line:
            raise UsageError(f"{source}:{lineno}: expected 'key = value', "
                             f"got {line!r}")
        key, _, value = line.partition("=")
        key = key.strip()
        value = value.strip()
        if key not in CONFIG_SCHEMA:
            raise UsageError(f"{source}:{lineno}: unknown key {key!r}")
        if key in values:
            raise UsageError(f"{source}:{lineno}: duplicate key {key!r}")
        parser, _ = CONFIG_SCHEMA[key]
        try:
            values[key] = parser(value)
        except ValueError as exc:
            raise UsageError(f"{source}:{lineno}: {key}: {exc}") from exc
    cfg = {key: default for key, (_, default) in CONFIG_SCHEMA.items()}
    cfg.update(values)
    if cfg["arch"] not in zoo.ARCH_NAMES:
        raise UsageError(f"{source}: unknown arch {cfg['arch']!r}")
    return cfg


def effective_config(cfg: dict) -> str:
    """The full config echoed in schema order; replayable as a config file."""
    lines = ["# effective config"]
    for key in CONFIG_SCHEMA:
        value = cfg[key]
        if isinstance(value, bool):
            value = "true" if value else "false"
        lines.append(f"{key} = {value}")
    return "\n".join(lines) + "\n"


def _augment_dict(cfg: dict) -> dict:
    pipeline = {}
    for key, value in cfg.items():
        if key.startswith("aug_") and value > 0.0:
            pipeline[key[4:]] = value
    if cfg["cutout"]:
        pipeline["cutout"] = 1.0
    return pipeline


# ------------------------------------------------------------- commands

def _require_min(args, **minimums) -> None:
    """Reject the first numeric flag below its minimum, naming the flag."""
    for name, low in minimums.items():
        if getattr(args, name) < low:
            raise UsageError(f"--{name.replace('_', '-')} must be >= {low}")


def cmd_synth(args) -> int:
    _require_min(args, classes=2, per_class=1, size=1)
    ds = data_mod.synth(args.classes, args.per_class, dims=args.size,
                        seed=args.seed)
    try:
        data_mod.save_container(ds, args.out)
    except OSError as exc:
        raise DataError(f"cannot write {args.out}: {exc}") from exc
    print(f"wrote {args.out}: {data_mod.describe(ds).splitlines()[0]}")
    return EXIT_OK


def _load_dataset(path):
    try:
        return data_mod.load_container(path)
    except OSError as exc:
        raise DataError(f"cannot read dataset {path}: {exc}") from exc
    except ValueError as exc:
        raise DataError(str(exc)) from exc


def _load_model(path, **build_kwargs):
    try:
        return zoo.load_model(path, **build_kwargs)
    except OSError as exc:
        raise DataError(f"cannot read model {path}: {exc}") from exc
    except ValueError as exc:
        raise DataError(str(exc)) from exc


def cmd_train(args) -> int:
    try:
        text = Path(args.config).read_text()
    except OSError as exc:
        raise UsageError(f"cannot read config {args.config}: {exc}") from exc
    cfg = parse_config_text(text, source=str(args.config))
    print(effective_config(cfg), end="")

    ds = _load_dataset(args.data)
    try:
        train_ds, eval_ds = data_mod.split(ds, cfg["split_fraction"],
                                           cfg["split_seed"])
    except ValueError as exc:
        raise DataError(str(exc)) from exc

    network = zoo.build(cfg["arch"], blurpool=cfg["blurpool"],
                        squeeze_excite=cfg["se"], seed=cfg["seed"],
                        input_dims=(1,) + ds.dims, num_classes=ds.num_classes)
    try:
        tcfg = TrainConfig(
            epochs=cfg["epochs"], batch_size=cfg["batch_size"], lr=cfg["lr"],
            lr_min=cfg["lr_min"], momentum=cfg["momentum"], seed=cfg["seed"],
            smoothing=cfg["label_smoothing"], use_mixup=cfg["mixup"],
            mixup_alpha=cfg["mixup_alpha"], use_swa=cfg["swa"],
            augment=_augment_dict(cfg),
        )
    except ValueError as exc:
        raise UsageError(f"{args.config}: {exc}") from exc
    try:
        # an overflowing run stops at the engine's own finiteness checks, so
        # numpy's warnings would only add lines of engine internals to stderr
        with np.errstate(all="ignore"):
            report, final, swa_params = train_mod.train(network, train_ds,
                                                        eval_ds, tcfg)
    except ValueError as exc:
        raise DataError(str(exc)) from exc

    out = Path(args.out)
    try:
        network.set_params(final)
        zoo.save_model(network, out)
        report_path = args.report or out.with_suffix(".csv")
        Path(report_path).write_text(report.to_csv())
        if swa_params is not None:
            network.set_params(swa_params)
            swa_path = out.with_name(out.stem + "-swa" + out.suffix)
            zoo.save_model(network, swa_path)
            print(f"wrote {out}, {swa_path} and {report_path}")
        else:
            print(f"wrote {out} and {report_path}")
    except (OSError, ValueError) as exc:
        raise DataError(f"cannot write outputs: {exc}") from exc
    if report.rows:
        last = report.rows[-1]
        print(f"final epoch {last.epoch}: train_acc={last.train_acc:.4f} "
              f"eval_acc={last.eval_acc:.4f}")
    print(f"weights sha256 {zoo.weights_digest(final)}")
    return EXIT_OK


def cmd_eval(args) -> int:
    ds = _load_dataset(args.data)
    network = _load_model(args.model, input_dims=(1,) + ds.dims,
                          num_classes=ds.num_classes)
    try:
        with np.errstate(all="ignore"):  # see cmd_train
            acc, per_class, loss = train_mod.evaluate(network, ds)
    except ValueError as exc:
        raise DataError(str(exc)) from exc
    print(f"model: {network.name}")
    print(f"accuracy: {acc:.4f}  mean_loss: {loss:.4f}")
    print("| class | accuracy |")
    print("| --- | --- |")
    for idx, name in enumerate(ds.class_names):
        print(f"| {name} | {per_class[idx]:.4f} |")
    print(f"weights sha256 {zoo.weights_digest(network.params())}")
    return EXIT_OK


def cmd_params(args) -> int:
    if args.arch == "all":
        print(zoo.describe())
        return EXIT_OK
    try:
        network = zoo.build(args.arch, blurpool=args.blurpool,
                            squeeze_excite=args.se)
    except ValueError as exc:
        raise UsageError(str(exc)) from exc
    total, breakdown = zoo.count_params(network)
    print(f"model: {network.name}")
    print("| layer | params |")
    print("| --- | --- |")
    for name, count in breakdown:
        print(f"| {name} | {count:,} |")
    print(f"| total | {total:,} |")
    return EXIT_OK


def cmd_bench(args) -> int:
    names = list(zoo.ARCH_NAMES) if args.archs == "all" else [
        a.strip() for a in args.archs.split(",") if a.strip()]
    if not names:
        raise UsageError("--archs gave no architecture names")
    _require_min(args, batch=1, warmup=0, iters=1)
    try:
        config = bench_mod.BenchConfig(batch_size=args.batch,
                                       warmup_iters=args.warmup,
                                       measure_iters=args.iters,
                                       pin_core=args.pin, seed=args.seed)
        models = [zoo.build(name, seed=args.seed) for name in names]
    except ValueError as exc:
        raise UsageError(str(exc)) from exc
    report = bench_mod.compare(models, config)
    print(bench_mod.emit(report, args.format), end="")
    return EXIT_OK


# ---------------------------------------------------------------- plumbing

class _Parser(argparse.ArgumentParser):
    def error(self, message):
        self.print_usage(sys.stderr)
        print(f"{self.prog}: error: {message}", file=sys.stderr)
        raise SystemExit(EXIT_USAGE)


def _build_parser() -> argparse.ArgumentParser:
    parser = _Parser(prog="lightcnn",
                     description="Small-CNN training and latency toolkit.")
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("synth", parents=[], help="generate a synthetic dataset",
                       add_help=True)
    p.add_argument("--classes", type=int, default=10)
    p.add_argument("--per-class", type=int, default=200)
    p.add_argument("--size", type=int, default=28)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--out", required=True)
    p.set_defaults(func=cmd_synth)

    p = sub.add_parser("train", help="train a model from a config file")
    p.add_argument("--config", required=True)
    p.add_argument("--data", required=True)
    p.add_argument("--out", required=True)
    p.add_argument("--report", default=None)
    p.set_defaults(func=cmd_train)

    p = sub.add_parser("eval", help="evaluate a saved model on a dataset")
    p.add_argument("--model", required=True)
    p.add_argument("--data", required=True)
    p.set_defaults(func=cmd_eval)

    p = sub.add_parser("params", help="parameter count and layer breakdown")
    p.add_argument("--arch", required=True)
    p.add_argument("--se", action="store_true")
    p.add_argument("--blurpool", action="store_true")
    p.set_defaults(func=cmd_params)

    p = sub.add_parser("bench", help="latency benchmark over architectures")
    p.add_argument("--archs", default="all")
    p.add_argument("--batch", type=int, default=32)
    p.add_argument("--warmup", type=int, default=10)
    p.add_argument("--iters", type=int, default=100)
    p.add_argument("--format", choices=("csv", "markdown"), default="csv")
    p.add_argument("--pin", action="store_true")
    p.add_argument("--seed", type=int, default=0)
    p.set_defaults(func=cmd_bench)
    return parser


def main(argv=None) -> int:
    parser = _build_parser()
    try:
        args = parser.parse_args(argv)
        return args.func(args)
    except UsageError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_USAGE
    except DataError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_DATA


if __name__ == "__main__":
    sys.exit(main())
