"""Run the benchmark over a set of seeds and report each end-to-end
metric's median, quartiles and spread (interquartile range over median),
as ``statistics.quantiles(values, n=4)`` gives them.

    python3 perfbench/spread.py --seeds 1 --traced      # every metric, all workloads
    python3 perfbench/spread.py --seeds 1-10 --seconds 30 --traced \\
        --out perfbench/baselines/BENCH_seed.json --label seed

Each run is a fresh process of ``run.py``; runs are sequential.  With
``--out`` the per-run values, digests, summaries and the environment
(CPU model, core count, Python version, commit when run inside a git
work tree) are written as JSON.  ``--traced`` adds one ``--trace 1`` run
per workload, on the first seed.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
WORKLOADS = ("tower-sweep", "frontier", "structure")


def parse_seeds(text: str) -> list[int]:
    seeds = []
    for part in text.split(","):
        lo, _, hi = part.partition("-")
        seeds.extend(range(int(lo), int(hi or lo) + 1))
    return seeds


def run_once(workload: str, seed: int, seconds: int, trace: int) -> dict:
    cmd = [sys.executable, str(HERE / "run.py"), "--workload", workload, "--seed", str(seed),
           "--seconds", str(seconds), "--trace", str(trace)]
    t = time.perf_counter()
    proc = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True, timeout=900)
    wall = time.perf_counter() - t
    lines = proc.stdout.strip().splitlines()
    if proc.returncode != 0 or not lines:
        raise RuntimeError(f"{workload} seed {seed} exited {proc.returncode}: {proc.stderr[-800:]}")
    result = json.loads(lines[-1])
    report = next(json.loads(x[len("report "):]) for x in lines if x.startswith("report "))
    return {"seed": seed, "trace": trace, "run_wall_s": wall, "result": result, "report": report}


# figures of the report that are not in the result line, summarised too
REPORT_FIGURES = {"ops_per_s": "1/s", "op_p50_ms": "ms", "op_p90_ms": "ms", "pass_s": "s",
                  "ref_ms": "ms", "setup_raw_s": "s", "setup_ref": "ref"}


def figures(run: dict) -> dict:
    out = {name: m["value"] for name, m in run["result"]["metrics"].items()}
    for name in REPORT_FIGURES:
        out[name] = run["report"]["summaries"][name]["median"]
    return out


def summarise(runs: list[dict]) -> dict:
    units = {name: m["unit"] for name, m in runs[0]["result"]["metrics"].items()}
    units.update(REPORT_FIGURES)
    out = {}
    for name in figures(runs[0]):
        values = [figures(r)[name] for r in runs]
        q1, _, q3 = statistics.quantiles(values, n=4) if len(values) > 1 else (values[0],) * 3
        med = statistics.median(values)
        out[name] = {"median": med, "q1": q1, "q3": q3, "n": len(values),
                     "spread": (q3 - q1) / med if med else 0.0, "unit": units[name],
                     "in_result": name in runs[0]["result"]["metrics"]}
    return out


def environment() -> dict:
    env = {"python": platform.python_version(), "cpus": os.cpu_count(),
           "machine": platform.machine(), "cpu_model": None, "commit": None}
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as fh:
            env["cpu_model"] = next(
                (line.split(":", 1)[1].strip() for line in fh if line.startswith("model name")),
                None)
    except OSError:
        pass
    try:
        env["commit"] = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True,
                                       text=True, check=True).stdout.strip()
    except (OSError, subprocess.CalledProcessError):
        pass
    return env


def main() -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workloads", default=",".join(WORKLOADS))
    ap.add_argument("--seeds", default="1-10")
    ap.add_argument("--seconds", type=int, default=30)
    ap.add_argument("--traced", action="store_true")
    ap.add_argument("--out", type=Path)
    ap.add_argument("--label", default="run")
    args = ap.parse_args()
    seeds = parse_seeds(args.seeds)
    doc = {"label": args.label, "seconds": args.seconds, "seeds": seeds,
           "environment": environment(), "workloads": {}}
    for workload in args.workloads.split(","):
        runs = []
        for seed in seeds:
            run = run_once(workload, seed, args.seconds, 0)
            runs.append(run)
            m = run["result"]["metrics"]
            print(f"{workload:11s} seed {seed:3d}  run {run['run_wall_s']:6.1f}s  passes "
                  f"{run['report']['passes']:2d}  fail_ratio={run['report']['fail_ratio']:g}  "
                  + "  ".join(f"{k}={v['value']:.4g}" for k, v in m.items()), flush=True)
        entry = {
            "summary": summarise(runs),
            "digests": {str(r["seed"]): r["report"]["digest"] for r in runs},
            "runs": [{"seed": r["seed"], "run_wall_s": r["run_wall_s"],
                      "passes": r["report"]["passes"],
                      "attempted": r["result"]["attempted"], "failed": r["result"]["failed"],
                      "metrics": figures(r),
                      "group_latency_s": {g: s["median"] for g, s in
                                          r["report"]["group_latency_s"].items()}}
                     for r in runs],
        }
        for name, s in entry["summary"].items():
            print(f"  {workload:11s} {name:12s} median {s['median']:.5g} {s['unit']:5s} "
                  f"q1 {s['q1']:.5g} q3 {s['q3']:.5g} spread {s['spread']:.3f}"
                  + ("" if s["in_result"] else "  (report only)"), flush=True)
        if args.traced:
            traced = run_once(workload, seeds[0], args.seconds, 1)
            shown = {**{k: {"value": v, "unit": "s"} for k, v in traced["report"]["seconds"].items()},
                     **traced["result"]["metrics"]}
            for name, m in shown.items():
                print(f"  {workload:11s} traced seed {seeds[0]}  {name:34s} {m['value']:.6g} {m['unit']}")
            entry["traced"] = {"seed": seeds[0],
                               "metrics": {k: v for k, v in traced["result"]["metrics"].items()},
                               "layer_self_s": traced["report"]["layer_self_s"],
                               "digest": traced["report"]["digest"]}
        doc["workloads"][workload] = entry
    if args.out:
        args.out.parent.mkdir(parents=True, exist_ok=True)
        args.out.write_text(json.dumps(doc, indent=1, sort_keys=True) + "\n", encoding="utf-8")
    return 0


if __name__ == "__main__":
    sys.exit(main())
