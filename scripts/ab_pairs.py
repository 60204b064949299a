"""Run the perfbench workloads on two git revisions in alternating pairs and
write one BENCH_<name>.json trajectory file.

    python3 scripts/ab_pairs.py --base HEAD~1 --head HEAD \\
        --change "what the head changes" --claim c3_590_bpse:peak_rss_mb \\
        --out BENCH_19.json

Each side is a `git archive` of its revision, unpacked into a temporary
directory, so what runs is exactly what is committed.  Each run is
`python3 perfbench/run.py` from inside its own checkout, one run at a time,
for the run_seconds of the head's BENCHMARK.json.  Every workload there runs
PAIRS pairs at seed SEED; pair i runs the base first when i is even and the
head first when it is odd.  After the pairs, one --trace 1 run per side and
workload records the per-layer metrics, and each side runs once more per
workload at each of DIGEST_SEEDS, for its weight digest only.

Per workload and end-to-end metric the file gives both sides' quartiles, the
median ratio head/base, the base's quartile distance over its median, and the
pairs the head won (strictly better in the metric's direction).
"""

import argparse
import json
import os
import platform
import re
import statistics
import subprocess
import sys
import tarfile
import tempfile
import time
from pathlib import Path

DIGEST = re.compile(r"weights sha256 ([0-9a-f]{64})")
PAIRS = 10
SEED = 1
DIGEST_SEEDS = (2,)
REPO = Path(__file__).resolve().parents[1]


def git(*args):
    return subprocess.run(["git", *args], cwd=REPO, check=True, capture_output=True).stdout


def checkout(rev, root):
    """Unpack `git archive rev` into root/<sha>; return the sha and the path."""
    sha = git("rev-parse", "--verify", rev + "^{commit}").decode().strip()
    path = Path(root) / sha
    with tempfile.TemporaryFile() as tar:
        tar.write(git("archive", sha))
        tar.seek(0)
        with tarfile.open(fileobj=tar) as archive:
            archive.extractall(path, filter="data")
    return sha, path


def run_once(path, workload, seed, seconds, trace):
    """One perfbench run: its result line, weight digest and wall time."""
    cmd = [sys.executable, "perfbench/run.py", "--workload", workload, "--seed", str(seed),
           "--seconds", str(seconds), "--trace", str(trace)]
    t0 = time.perf_counter()
    proc = subprocess.run(cmd, cwd=path, capture_output=True, text=True)
    wall = time.perf_counter() - t0
    lines = proc.stdout.strip().splitlines()
    if proc.returncode not in (0, 1) or not lines:
        sys.exit(f"error: {' '.join(cmd)} in {path} exited {proc.returncode}:\n"
                 f"{proc.stderr[-2000:]}")
    digest = DIGEST.search(proc.stdout)
    return {
        "result": json.loads(lines[-1]),
        "weights_sha256": digest.group(1) if digest else None,
        "checks_ok": proc.returncode == 0 and "FAILED" not in proc.stdout,
        "wall_s": round(wall, 1),
    }


def quartiles(values):
    q1, med, q3 = statistics.quantiles(values, n=4, method="inclusive")
    return [q1, med, q3]


def summarise(pairs, e2e):
    out = {}
    for m in e2e:
        name, lower = m["name"], m["better"] == "lower"
        base = [p["base"]["result"]["metrics"][name]["value"] for p in pairs]
        head = [p["head"]["result"]["metrics"][name]["value"] for p in pairs]
        bq, hq = quartiles(base), quartiles(head)
        ratio = hq[1] / bq[1]
        worse = ratio - 1 if lower else 1 - ratio
        won = sum((h < b) if lower else (h > b) for b, h in zip(base, head))
        out[name] = {
            "unit": m["unit"], "better": m["better"], "bound": m["bound"],
            "base_q1_median_q3": bq, "head_q1_median_q3": hq,
            "median_ratio": ratio,
            "base_iqr_over_median": (bq[2] - bq[0]) / bq[1],
            "median_gap_exceeds_base_iqr": abs(hq[1] - bq[1]) > bq[2] - bq[0],
            "pairs_won_by_head": f"{won}/{len(pairs)}",
            "verdict": "within bound" if worse <= m["bound"] else "beyond bound",
        }
    return out


def host_metadata():
    import numpy as np
    cpu = platform.machine()
    try:
        with open("/proc/cpuinfo") as fh:
            cpu = next((ln.split(":", 1)[1].strip() for ln in fh
                        if ln.startswith("model name")), cpu)
    except OSError:
        pass
    blas = next((lib for lib in np.show_config(mode="dicts")["Build Dependencies"].values()
                 if isinstance(lib, dict) and "openblas configuration" in lib), {})
    return {"cpu": cpu, "logical_cpus": os.cpu_count(), "python": platform.python_version(),
            "numpy": np.__version__,
            "blas": blas.get("openblas configuration", blas.get("name", "unknown"))}


def main(argv=None):
    ap = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    ap.add_argument("--base", required=True, help="git revision of the parent")
    ap.add_argument("--head", required=True, help="git revision of the change")
    ap.add_argument("--change", required=True)
    ap.add_argument("--claim", default=None, help="workload:metric the head claims")
    ap.add_argument("--out", required=True, type=Path)
    args = ap.parse_args(argv)

    with tempfile.TemporaryDirectory() as root:
        revs, sides = {}, {}
        for side in ("base", "head"):
            revs[side], sides[side] = checkout(getattr(args, side), root)
        spec = json.loads((sides["head"] / "BENCHMARK.json").read_text())
        seconds = spec["run_seconds"]
        doc = {
            "bench": args.out.stem, "change": args.change, "host": host_metadata(),
            "revisions": revs,
            "protocol": (f"perfbench/run.py --seed {SEED} --seconds {seconds:g} --trace 0 "
                         "from a git archive of each revision, one run at a time; "
                         f"{PAIRS} pairs per workload; pair i runs the base first when i "
                         "is even"),
            "notes": [
                "pairs_won_by_head counts strict wins; base_iqr_over_median is the base's "
                "quartile distance over its median, to compare with the metric's bound.",
                f"traced: one --trace 1 run per side and workload, seed {SEED}, after the "
                "untraced pairs; digest_seeds: one run per side, workload and extra seed, "
                "weight digest only.",
            ],
            "workloads": {},
        }
        if args.claim:
            workload, metric = args.claim.split(":")
            doc["claim"] = {"workload": workload, "metric": metric}
        workloads = [w["name"] for w in spec["workloads"]]
        t_start = time.perf_counter()
        for wl in workloads:
            pairs = []
            for i in range(PAIRS):
                order = ("base", "head") if i % 2 == 0 else ("head", "base")
                pair = {"pair": i, "first": order[0]}
                for side in order:
                    pair[side] = run_once(sides[side], wl, SEED, seconds, 0)
                pairs.append(pair)
                print(f"# {wl} pair {i}: " + ", ".join(
                    f"{s} {pair[s]['result']['metrics']['peak_rss_mb']['value']:.1f} MiB "
                    f"{pair[s]['result']['metrics']['train_img_per_s']['value']:.1f} img/s"
                    for s in ("base", "head")), flush=True)
            runs = [p[s] for p in pairs for s in ("base", "head")]
            doc["workloads"][wl] = {
                "pairs": pairs,
                "summary": summarise(pairs, spec["end_to_end"]),
                "all_ok": all(r["checks_ok"] and r["result"]["failed"] == 0 for r in runs),
                "weights_sha256": sorted({r["weights_sha256"] for r in runs}),
            }
        doc["traced"] = {wl: {s: run_once(sides[s], wl, SEED, seconds, 1)
                              for s in ("base", "head")} for wl in workloads}
        doc["digest_seeds"] = {f"{wl} seed {seed}": {
            s: run_once(sides[s], wl, seed, seconds, 0)["weights_sha256"]
            for s in ("base", "head")} for wl in workloads for seed in DIGEST_SEEDS}
    doc["wall_s"] = round(time.perf_counter() - t_start, 1)
    args.out.write_text(json.dumps(doc, indent=1) + "\n")
    print(f"# wrote {args.out} in {doc['wall_s']:.0f} s")


if __name__ == "__main__":
    main()
