"""Self-test of the benchmark, at a tiny size (a few seconds in all).

    python3 perfbench/selftest.py

Checks that every workload finishes and prints every metric named in
BENCHMARK.json with its unit, that the untraced and traced runs report
the same digest, that installing and removing the trace wrappers leaves
every module of the package as it was, and that run.py refuses to run
(nonzero exit, no result line) in a directory without the package.
"""

from __future__ import annotations

import json
import shutil
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SPEC = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))


def run(cwd: Path, workload: str, trace: int):
    cmd = [sys.executable, "perfbench/run.py", "--workload", workload, "--seed", "7",
           "--seconds", "0", "--trace", str(trace), "--size", "tiny"]
    return subprocess.run(cmd, cwd=cwd, capture_output=True, text=True, timeout=170)


def parse(proc):
    lines = proc.stdout.strip().splitlines()
    result = json.loads(lines[-1])
    report = next(json.loads(x[len("report "):]) for x in lines if x.startswith("report "))
    return result, report


def check_workload(workload: str) -> list[str]:
    errors = []
    digests = {}
    for trace, key in ((0, "end_to_end"), (1, "per_layer")):
        proc = run(ROOT, workload, trace)
        if proc.returncode != 0:
            return [f"{workload} trace {trace}: exit {proc.returncode}: {proc.stderr[-400:]}"]
        result, report = parse(proc)
        if set(result) != {"correct", "attempted", "failed", "metrics"}:
            errors.append(f"{workload} trace {trace}: result keys {sorted(result)}")
        if result["correct"] is not True or result["failed"] != 0 or result["attempted"] < 1:
            errors.append(f"{workload} trace {trace}: {result['failed']} failed: {report['failures']}")
        wanted = {m["name"]: m["unit"] for m in SPEC[key]}
        got = {name: m["unit"] for name, m in result["metrics"].items()}
        if got != wanted:
            errors.append(f"{workload} trace {trace}: metrics differ from BENCHMARK.json: "
                          f"missing {sorted(set(wanted) - set(got))}, "
                          f"extra {sorted(set(got) - set(wanted))}, "
                          f"units {[n for n in wanted if n in got and got[n] != wanted[n]]}")
        for name, m in result["metrics"].items():
            if not isinstance(m["value"], (int, float)):
                errors.append(f"{workload}: {name} is not a number")
        digests[trace] = report["digest"]
    if digests[0] != digests[1]:
        errors.append(f"{workload}: traced digest {digests[1]} != untraced {digests[0]}")
    return errors


def check_uninstall() -> list[str]:
    sys.path.insert(0, str(ROOT / "src"))
    sys.path.insert(0, str(HERE))
    import tracing
    import workloads  # noqa: F401  (imports every layer of the package)

    tracer = tracing.Tracer()
    modules = tracer.modules()
    element = sys.modules["iwarank.lambda_ring"].LambdaElement
    before = [dict(vars(m)) for m in modules] + [dict(vars(element))]
    tracer.install()
    wrapped = sum(1 for m, b in zip(modules, before) for k, v in vars(m).items() if b.get(k) is not v)
    tracer.uninstall()
    after = [dict(vars(m)) for m in modules] + [dict(vars(element))]
    errors = []
    if wrapped == 0:
        errors.append("install() wrapped nothing")
    for b, a in zip(before, after):
        changed = [k for k in b if a.get(k) is not b[k]]
        if changed:
            errors.append(f"uninstall() left {changed[:5]}")
    if tracer.leftover_wrappers():
        errors.append(f"leftover wrappers {tracer.leftover_wrappers()[:5]}")
    return errors


def check_bare_directory() -> list[str]:
    bare = ROOT / ".perfbench" / "bare"
    shutil.rmtree(bare, ignore_errors=True)
    try:
        shutil.copytree(HERE, bare / "perfbench",
                        ignore=shutil.ignore_patterns("__pycache__"))
        shutil.copy(ROOT / "BENCHMARK.json", bare)
        proc = run(bare, "tower-sweep", 0)
    finally:
        shutil.rmtree(bare, ignore_errors=True)
    if proc.returncode == 0 or '"correct"' in proc.stdout:
        return ["run.py reported a result in a directory without the package"]
    return []


def main() -> int:
    errors = []
    for workload in (w["name"] for w in SPEC["workloads"]):
        errors += check_workload(workload)
        print(f"{workload}: {'ok' if not errors else 'FAILED'}", flush=True)
    errors += check_uninstall()
    errors += check_bare_directory()
    for e in errors:
        print("error:", e)
    print("selftest", "ok" if not errors else "FAILED")
    return 1 if errors else 0


if __name__ == "__main__":
    sys.exit(main())
