"""Run one lightcnn session on a named workload and print one JSON result line.

    python3 perfbench/run.py --workload c3_590_bpse --seed 1 --seconds 55 --trace 0

Run from the root of a source checkout: lightcnn is imported from its
``src/`` and nothing is installed.  The session runs in this one process
with one BLAS thread; the thread variables are pinned before numpy loads.

--trace 0 prints the end-to-end metrics.  --trace 1 wraps the library's
functions in spans and prints the per-layer metrics; it also writes the
spans, the host metadata and the trained-weight digest to
perfbench/out/trace-<workload>-seed<seed>.json.gz.

The last line of standard output is the JSON result; the line before it
names the trained-weight digest.  Any failed check or missing metric exits
non-zero.
"""

import os

THREAD_VARS = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
               "VECLIB_MAXIMUM_THREADS", "NUMEXPR_NUM_THREADS")
for _var in THREAD_VARS:
    os.environ[_var] = "1"

import argparse  # noqa: E402
import json  # noqa: E402
import platform  # noqa: E402
import shutil  # noqa: E402
import sys  # noqa: E402
from pathlib import Path  # noqa: E402

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
OUT = HERE / "out"


def import_lightcnn():
    """Import lightcnn from this checkout's src/, never from anywhere else."""
    if not (SRC / "lightcnn" / "__init__.py").is_file():
        sys.exit(f"error: no lightcnn sources under {SRC}")
    sys.path.insert(0, str(SRC))
    import lightcnn
    if Path(lightcnn.__file__).resolve().parent != SRC / "lightcnn":
        sys.exit(f"error: lightcnn was imported from {lightcnn.__file__}")


def load_spec():
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    return spec, {w["name"] for w in spec["workloads"]}


def host_metadata():
    import numpy as np
    cpu = platform.processor() or platform.machine()
    try:
        with open("/proc/cpuinfo") as fh:
            cpu = next((line.split(":", 1)[1].strip() for line in fh
                        if line.startswith("model name")), cpu)
    except OSError:
        pass
    blas = np.show_config(mode="dicts").get("Build Dependencies", {}).get("blas", {})
    return {
        "cpu": cpu,
        "logical_cpus": os.cpu_count(),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "blas": " ".join(str(blas.get(k, "")) for k in ("name", "version", "openblas configuration")
                         ).strip(),
        "threads": {v: os.environ.get(v) for v in THREAD_VARS},
    }


def strict_result(spec, metrics, attempted, correct, trace):
    """The result object, refused when its metrics differ from BENCHMARK.json."""
    declared = {m["name"]: m["unit"] for m in spec["per_layer" if trace else "end_to_end"]}
    given = {name: unit for name, (_, unit) in metrics.items()}
    if declared != given:
        missing = sorted(set(declared) - set(given))
        extra = sorted(set(given) - set(declared))
        units = sorted(n for n in set(declared) & set(given) if declared[n] != given[n])
        raise SystemExit(f"error: metrics differ from BENCHMARK.json: missing {missing}, "
                         f"undeclared {extra}, wrong unit {units}")
    if not isinstance(attempted, int) or attempted < 1:
        raise SystemExit("error: attempted must be a whole number >= 1")
    # an operation that raises ends the run with a traceback, so none is
    # ever counted as failed in a printed result
    return {"correct": correct, "attempted": attempted, "failed": 0,
            "metrics": {n: {"value": v, "unit": u} for n, (v, u) in metrics.items()}}


E2E_UNITS = {"setup_s": "s", "train_img_per_s": "img/s", "eval_img_per_s": "img/s",
             "infer_b1_ms": "ms", "peak_rss_mb": "MiB"}


def per_layer_metrics(tracer, s):
    """Per-layer metrics with units, and per phase the share of the session's
    own wall-clock measurement that the metrics add up to."""
    import reference
    import tracing
    layer, attributed = tracer.per_layer()
    layer.update(s.setup_medians())
    layer["train.images"] = s.train_images
    e2e = s.end_to_end()
    coverage = {
        "setup": sum(s.setup_medians().values()) / e2e["setup_s"],
        "train": attributed["train"] / s.train_s,
        "eval": attributed["eval"] / s.eval_s,
        "b1": (sum(layer[f"layers.{k}.fwd_b1_ms"] for k in tracing.EVAL_KINDS)
               + layer["layers.network.self_b1_ms"]) / e2e["infer_b1_ms"],
    }
    kinds = reference.layer_kinds(s.network.name, s.final)
    flops = reference.forward_flops(kinds, s.final, s.input_dims)
    for kind, per_image in flops.items():
        # training does the forward pass and two backward GEMMs of its size
        layer[f"layers.{kind}.gflop"] = 3 * per_image * layer["train.images"] / 1e9
    units = {}
    for name in layer:
        if name.endswith("_ms"):
            units[name] = "ms"
        elif name.endswith("_s"):
            units[name] = "s"
        elif name.endswith(".gflop"):
            units[name] = "GFLOP"
        else:
            units[name] = "count"
    return {n: (v, units[n]) for n, v in layer.items()}, coverage


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    import_lightcnn()
    spec, declared = load_spec()
    import checks
    import selftest
    import session
    import tracing

    if args.workload not in session.WORKLOADS or args.workload not in declared:
        sys.exit(f"error: unknown workload {args.workload!r}")
    broken = selftest.run()
    if broken:
        sys.exit(f"error: the float64 reference fails its self-tests: {broken}")

    workdir = OUT / f"work-{os.getpid()}"
    workdir.mkdir(parents=True, exist_ok=True)
    tracer = tracing.Tracer() if args.trace else tracing.NullTracer()
    try:
        s = session.Session(session.WORKLOADS[args.workload], args.seed, workdir, tracer)
        tracer.install()
        try:
            s.run(args.seconds)
        finally:
            tracer.uninstall()
        results = checks.run_all(s)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)

    weights = session.digest(s.final)
    e2e = s.end_to_end()
    for name, (ok, detail) in results.items():
        print(f"# check {name}: {'ok' if ok else 'FAILED'}: {detail}")
    correct = all(ok for ok, _ in results.values())

    if args.trace:
        metrics, coverage = per_layer_metrics(tracer, s)
        OUT.mkdir(exist_ok=True)
        trace_path = OUT / f"trace-{args.workload}-seed{args.seed}.json.gz"
        tracer.dump(trace_path, {
            "workload": args.workload, "seed": args.seed, "seconds": args.seconds,
            "host": host_metadata(), "weights_sha256": weights,
            "end_to_end_traced": e2e, "per_layer": {n: v for n, (v, _) in metrics.items()},
            "phase_coverage": coverage,
            "checks": {n: {"ok": ok, "detail": d} for n, (ok, d) in results.items()},
        })
        print(f"# trace written to {trace_path.relative_to(ROOT)}; phase coverage "
              + ", ".join(f"{k} {v:.4f}" for k, v in coverage.items()))
    else:
        metrics = {n: (v, E2E_UNITS[n]) for n, v in e2e.items()}

    result = strict_result(spec, metrics, s.attempted, correct, args.trace)
    print(f"# {args.workload} seed {args.seed}: train {s.train_s:.2f} s, {s.rounds} serving "
          f"rounds, {len(s.b1_ms)} batch-1 passes, {len(s.setup_reps)} set-ups; epochs "
          f"{' '.join(f'{t:.2f}' for t in s.epoch_train_s)} s; "
          f"weights sha256 {weights}")
    print(json.dumps(result))
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())
