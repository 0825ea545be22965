"""iwarank benchmark: one workload, one process, one thread, a closed loop
with a single caller.

    python3 perfbench/run.py --workload tower-sweep --seed 1 --seconds 30 --trace 0

Run from a source checkout: the package is imported from ``src/`` next to
this directory, nothing is installed.  Inputs are generated from the seed
before timing starts.  A pass runs the workload's fixed op list once;
passes repeat until ``--seconds`` have elapsed (at least one pass), and
every op of every pass is checked.

``--trace 0`` prints the end-to-end metrics: medians across passes of
throughput and per-op latency percentiles, peak memory, and the median
set-up time of several fresh processes (each imports the package,
generates the inputs and fills the caches, then exits).  Timings are
gated in units of a reference kernel (``reference.py``) timed in the
same run, which cancels the drift of a shared host; set-up time is
given in seconds at the baseline host's usual kernel speed, and the raw
figures are in the report.

``--trace 1`` runs one untraced pass and one traced pass, and prints the
per-layer metrics derived from the traced pass's spans, which are written
to ``.perfbench/spans-<workload>-seed<seed>.jsonl``.

The last line of stdout is one JSON object with the keys ``correct``,
``attempted``, ``failed`` and ``metrics``; the lines before it are the
full report (quartiles, sample counts, per-instance latencies, the digest
of every number the ops computed, and the environment).  The exit code is
1 if any op failed, 2 if the package or the arguments are unusable.
"""

import time

T0 = time.perf_counter()

import argparse  # noqa: E402
import gc  # noqa: E402
import hashlib  # noqa: E402
import json  # noqa: E402
import os  # noqa: E402
import platform  # noqa: E402
import resource  # noqa: E402
import statistics  # noqa: E402
import subprocess  # noqa: E402
import sys  # noqa: E402
import traceback  # noqa: E402
from pathlib import Path  # noqa: E402

import reference  # noqa: E402

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
SPAN_DIR = ROOT / ".perfbench"
WORKLOADS = ("tower-sweep", "frontier", "structure")
SETUP_PROBES = {"full": 9, "tiny": 2}
PROBE_TIMEOUT_S = 120
REF_EVERY_S = 0.5
PROBE_REF_RUNS = 3
TRACE_REF_RUNS = 5
# share of the traced pass that the layer self times must account for;
# the rest is the benchmark's own loop and whatever an op does outside
# every wrapped function (at full size 0.999 or more on every workload;
# at tiny size an op takes microseconds, so the loop's share is larger)
ACCOUNTED_FLOOR = {"full": 0.995, "tiny": 0.95}


class Raised:
    """Stands in for the result of an op that raised."""

    def __init__(self, exc: BaseException):
        self.text = "".join(traceback.format_exception_only(type(exc), exc)).strip()

    def __repr__(self):
        return f"Raised({self.text})"


def parse_args(argv):
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True, choices=WORKLOADS)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), required=True)
    ap.add_argument("--size", choices=("full", "tiny"), default="full",
                    help="tiny shrinks every level, for the self-test")
    ap.add_argument("--setup-probe", action="store_true",
                    help="only import and generate the inputs, then exit")
    return ap.parse_args(argv)


def import_package():
    """Import iwarank from this checkout's src/, or return None."""
    if not (SRC / "iwarank" / "__init__.py").is_file():
        return None
    sys.path.insert(0, str(SRC))
    import iwarank

    if Path(iwarank.__file__).resolve().parent != (SRC / "iwarank").resolve():
        return None
    return iwarank


# -- statistics ----------------------------------------------------------


def percentile(values, q: float) -> float:
    """Nearest-rank percentile (q in (0, 100])."""
    ordered = sorted(values)
    rank = max(1, -(-len(ordered) * q // 100))
    return ordered[int(rank) - 1]


def summary(values) -> dict:
    """Median, quartiles (as statistics.quantiles gives them) and count."""
    values = list(values)
    if len(values) > 1:
        q1, _, q3 = statistics.quantiles(values, n=4)
    else:
        q1 = q3 = values[0]
    med = statistics.median(values)
    return {"median": med, "q1": q1, "q3": q3, "n": len(values),
            "spread": (q3 - q1) / med if med else 0.0}


# -- passes --------------------------------------------------------------


def run_pass(ops, tracer=None, sampler=None):
    """Run every op once, in order.  Returns (wall seconds, per-op
    latencies, results); checks happen afterwards, outside the pass.
    Time the sampler spends between ops is left out of the wall time."""
    clock = time.perf_counter
    latencies, results = [], []
    sampled = 0.0
    start = clock()
    for i, op in enumerate(ops):
        if tracer is not None:
            tracer.op = i
        t = clock()
        try:
            result = op.call()
        except Exception as exc:  # an op that raises is a failed op, not a crash
            result = Raised(exc)
        latencies.append(clock() - t)
        results.append(result)
        if sampler is not None:
            sampled += sampler.between_ops()
    return clock() - start - sampled, latencies, results


class Checker:
    """Checks the first pass against each op's closed form or prediction,
    and every later pass against the first as soon as it ends.  Only the
    first pass's outputs are kept, in canonical form, so the memory the
    run holds does not grow with the number of passes."""

    def __init__(self, ops, canon):
        self.ops, self.canon = ops, canon
        self.expected = None
        self.failures, self.notes = 0, []

    def fail(self, note: str) -> None:
        self.failures += 1
        self.notes.append(note[:400])

    def check(self, results) -> None:
        if self.expected is None:
            self.expected = [self._first(op, result) for op, result in zip(self.ops, results)]
            return
        for op, result, ref in zip(self.ops, results, self.expected):
            if isinstance(result, Raised) or ref is None or self.canon(result) != ref:
                self.fail(f"{op.name}: differs from the first pass")

    def _first(self, op, result):
        ok = False
        if not isinstance(result, Raised):
            try:
                ok = bool(op.check(result))
            except Exception as exc:  # a check that cannot read the output fails the op
                self.notes.append(f"{op.name}: check raised {Raised(exc).text}")
        if not ok:
            self.fail(f"{op.name}: {result!r}")
        return None if isinstance(result, Raised) else self.canon(result)

    def digest(self) -> str:
        """SHA-256 of every number the first pass computed."""
        blob = json.dumps(self.expected, sort_keys=True, separators=(",", ":"))
        return hashlib.sha256(blob.encode()).hexdigest()


def probe_setup(args) -> tuple[float, float]:
    """Wall time of a fresh process that imports, generates and exits, and
    the reference kernel's median time taken just before it."""
    ref = reference.median_kernel(PROBE_REF_RUNS)
    cmd = [sys.executable, str(HERE / "run.py"), "--workload", args.workload,
           "--seed", str(args.seed), "--seconds", "0", "--trace", "0",
           "--size", args.size, "--setup-probe"]
    t = time.perf_counter()
    proc = subprocess.run(cmd, cwd=ROOT, stdout=subprocess.DEVNULL,
                          stderr=subprocess.PIPE, timeout=PROBE_TIMEOUT_S)
    elapsed = time.perf_counter() - t
    if proc.returncode != 0:
        raise RuntimeError(f"set-up probe failed: {proc.stderr.decode()[-400:]}")
    return elapsed, ref


def environment() -> dict:
    return {
        "python": platform.python_version(),
        "implementation": platform.python_implementation(),
        "cpus": os.cpu_count(),
        "cpus_usable": len(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity") else None,
        "machine": platform.machine(),
        "system": platform.system(),
    }


def emit(report: dict, metrics: dict, correct: bool, attempted: int, failed: int,
         shown=None) -> None:
    """Print every metric (and the figures in ``shown``) one per line, the
    report, and the result line last."""
    for name, m in {**(shown or {}), **metrics}.items():
        extra = ""
        if name in report.get("summaries", {}):
            s = report["summaries"][name]
            extra = f"  q1 {s['q1']:.6g}  q3 {s['q3']:.6g}  n={s['n']}"
        print(f"{name:34s} {m['value']:.6g} {m['unit']}{extra}")
    print("report " + json.dumps(report, sort_keys=True))
    print(json.dumps({"correct": correct, "attempted": attempted, "failed": failed,
                      "metrics": metrics}))


# -- modes -----------------------------------------------------------------


def run_timed(args, workloads) -> int:
    wl = workloads.build(args.workload, args.seed, args.size)
    setup_inproc = time.perf_counter() - T0
    checker = Checker(wl.ops, workloads.canon)
    walls, p50, p90, setup = [], [], [], []
    groups: dict[str, list[float]] = {}
    probes = SETUP_PROBES[args.size]
    sampler = reference.Sampler(REF_EVERY_S)
    start = time.perf_counter()
    while not walls or time.perf_counter() - start < args.seconds:
        gc.collect()  # every pass starts with the same collector state
        wall, lat, results = run_pass(wl.ops, sampler=sampler)
        checker.check(results)
        del results
        walls.append(wall)
        p50.append(1e3 * percentile(lat, 50))
        p90.append(1e3 * percentile(lat, 90))
        for op, t in zip(wl.ops, lat):
            groups.setdefault(op.group, []).append(t)
        # set-up probes go between passes, so their median covers the
        # whole run rather than the moment it ends
        if len(setup) < probes:
            setup.append(probe_setup(args))
    peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
    while len(setup) < probes:
        setup.append(probe_setup(args))

    n_ops = len(wl.ops)
    summaries = {
        "ops_per_s": summary(n_ops / w for w in walls),
        "op_p50_ms": summary(p50),
        "op_p90_ms": summary(p90),
        "pass_s": summary(walls),
        "ref_ms": summary(1e3 * x for x in sampler.samples),
        "setup_raw_s": summary(wall for wall, _ in setup),
        "setup_ref": summary(wall / ref for wall, ref in setup),
    }
    ref = summaries["ref_ms"]["median"] / 1e3
    metrics = {
        # set-up in units of the kernel timed just before each probe, given
        # in seconds at the baseline host's usual speed (reference.NOMINAL_S)
        "setup_s": {"value": summaries["setup_ref"]["median"] * reference.NOMINAL_S, "unit": "s"},
        "ops_per_ref": {"value": summaries["ops_per_s"]["median"] * ref, "unit": "1/ref"},
        "op_p90_ref": {"value": summaries["op_p90_ms"]["median"] / 1e3 / ref, "unit": "ref"},
        "peak_rss_mb": {"value": peak_rss_mb, "unit": "MB"},
    }
    attempted = n_ops * len(walls)
    report = {
        "workload": args.workload, "seed": args.seed, "size": args.size,
        "seconds": args.seconds, "passes": len(walls), "ops_per_pass": n_ops,
        "fail_ratio": checker.failures / attempted, "digest": checker.digest(),
        "setup_inproc_s": setup_inproc,
        "setup_samples": [{"wall_s": wall, "ref_s": r} for wall, r in setup],
        "summaries": summaries,
        "group_latency_s": {g: summary(v) for g, v in groups.items()},
        "environment": environment(), "failures": checker.notes[:20],
    }
    emit(report, metrics, checker.failures == 0, attempted, checker.failures)
    return 0 if checker.failures == 0 else 1


def cache_misses(lr) -> int:
    return lr._phi.cache_info().misses + lr._omega.cache_info().misses


def run_traced(args, workloads, tracing) -> int:
    from iwarank import lambda_ring as lr

    tracer = tracing.Tracer()
    tracer.install()
    tracer.op = "setup"
    setup_start = time.perf_counter()
    try:
        wl = workloads.build(args.workload, args.seed, args.size)
    finally:
        tracer.uninstall()
    setup_wall = time.perf_counter() - setup_start
    setup_spans = len(tracer.spans)

    refs = [reference.kernel() for _ in range(TRACE_REF_RUNS)]
    checker = Checker(wl.ops, workloads.canon)
    untraced, _, results = run_pass(wl.ops)
    checker.check(results)
    misses0 = cache_misses(lr)
    tracer.install()
    try:
        wall, _, results = run_pass(wl.ops, tracer)
    finally:
        tracer.uninstall()
    misses = cache_misses(lr) - misses0
    checker.check(results)
    del results
    refs += [reference.kernel() for _ in range(TRACE_REF_RUNS)]
    ref = statistics.median(refs)
    leftover = tracer.leftover_wrappers()
    if leftover:
        checker.fail(f"wrappers left installed: {leftover[:5]}")

    setup_a = tracing.analyse(tracer.spans[:setup_spans], 0)
    a = tracing.analyse(tracer.spans[setup_spans:], setup_spans)
    pass_spans = tracer.spans[setup_spans:]
    # the layer self times must account for the traced pass: what they
    # leave out is time spent outside every wrapped function
    self_sum = sum(a["layer_self"].values())
    accounted = self_sum / wall
    floor = ACCOUNTED_FLOOR[args.size]
    if a["bad_nesting"] or accounted < floor:
        checker.fail(f"layer self times cover {accounted:.5f} of the traced pass "
                     f"(floor {floor}), {a['bad_nesting']} badly nested spans")

    snf = [s[tracing.INFO] for s in pass_spans if s[tracing.NAME] == "zp_modules._snf"]
    dets = [s[tracing.INFO] for s in pass_spans if s[tracing.NAME] == "exactlinalg.bareiss_det"]
    cols = [s[tracing.INFO] for s in pass_spans if s[tracing.NAME] == "zp_modules.lambda_column_span"]
    ls, fs, fi, fc = a["layer_self"], a["fn_self"], a["fn_incl"], a["fn_calls"]
    snf_self = fs.get("zp_modules._snf", 0.0)

    def count(v):
        return {"value": v, "unit": "count"}

    # layer times; in the result line each is in units of the reference
    # kernel timed around the passes, so host drift cancels and a layer a
    # workload never calls reads 0
    seconds = {
        "zp_modules.snf_self_s": snf_self,
        "zp_modules.self_s": ls.get("zp_modules", 0.0) - snf_self,
        "kobayashi_rank.self_s": ls.get("kobayashi_rank", 0.0),
        "exactlinalg.bareiss_rank_s": fi.get("exactlinalg.bareiss_rank", 0.0),
        "exactlinalg.bareiss_det_s": fi.get("exactlinalg.bareiss_det", 0.0),
        "cyclo_eval.self_s": ls.get("cyclo_eval", 0.0),
        "cyclo_eval.ord_eps_s": fi.get("cyclo_eval.ord_eps", 0.0),
        "cyclo_eval.crt_s": fi.get("cyclo_eval.crt_interpolate", 0.0),
        "special_matrices.self_s": ls.get("special_matrices", 0.0),
        "special_matrices.good_basis_s": fi.get("special_matrices.good_basis_transform", 0.0),
        "special_matrices.rod_check_s": fi.get("special_matrices.rod_check", 0.0),
        "lambda_ring.self_s": ls.get("lambda_ring", 0.0),
        "growth_model.self_s": ls.get("growth_model", 0.0),
        "cli.self_s": ls.get("cli", 0.0),
        "verify.gen_s": setup_a["layer_incl"].get("verify", 0.0),
        "bench.self_s": wall - self_sum,
    }
    metrics = {
        "zp_modules.snf_calls": count(len(snf)),
        "zp_modules.snf_calls_hi": count(sum(1 for s in snf if s[2] > workloads.PRECISION)),
        "zp_modules.snf_transform_calls": count(sum(1 for s in snf if s[3])),
        "zp_modules.snf_max_rows": count(max((s[0] for s in snf), default=0)),
        "zp_modules.snf_cells": count(sum(s[0] * s[1] for s in snf)),
        "zp_modules.snf_work": count(sum(s[0] * s[1] * min(s[0], s[1]) for s in snf)),
        "zp_modules.span_columns": count(sum(cols)),
        "exactlinalg.bareiss_det_calls": count(len(dets)),
        "exactlinalg.bareiss_det_cells": count(sum(d * d for d in dets)),
        "cyclo_eval.ord_eps_calls": count(fc.get("cyclo_eval.ord_eps", 0)),
        "lambda_ring.poly_mul_calls": count(tracer.counts["poly_mul"]),
        "lambda_ring.poly_divmod_calls": count(tracer.counts["poly_divmod"]),
        "lambda_ring.cache_misses": count(misses),
    }
    for name, value in seconds.items():
        metrics[name[: -len("_s")] + "_ref"] = {"value": value / ref, "unit": "ref"}
    metrics.update({
        "trace.overhead_ratio": {"value": wall / untraced, "unit": "ratio"},
        "trace.accounted_ratio": {"value": accounted, "unit": "ratio"},
        "trace.spans": count(len(pass_spans)),
    })
    SPAN_DIR.mkdir(exist_ok=True)
    span_file = SPAN_DIR / f"spans-{args.workload}-seed{args.seed}.jsonl"
    tracer.write(span_file)
    report = {
        "workload": args.workload, "seed": args.seed, "size": args.size,
        "ops_per_pass": len(wl.ops), "digest": checker.digest(),
        "untraced_pass_s": untraced, "traced_pass_s": wall, "ref_s": ref,
        "traced_setup_s": setup_wall, "seconds": seconds,
        "layer_self_s": ls, "layer_self_sum_s": self_sum, "root_spans_s": a["roots"],
        "fn_self_s": dict(sorted(fs.items(), key=lambda kv: -kv[1])[:25]),
        "span_file": str(span_file.relative_to(ROOT)),
        "environment": environment(), "failures": checker.notes[:20],
    }
    attempted = 2 * len(wl.ops)
    emit(report, metrics, checker.failures == 0, attempted, checker.failures,
         shown={name: {"value": v, "unit": "s"} for name, v in seconds.items()})
    return 0 if checker.failures == 0 else 1


def main(argv=None) -> int:
    args = parse_args(argv)
    if import_package() is None:
        print(f"error: no iwarank package under {SRC}; run from a source checkout",
              file=sys.stderr)
        return 2
    import tracing
    import workloads

    if args.setup_probe:
        workloads.build(args.workload, args.seed, args.size)
        return 0
    if args.trace:
        return run_traced(args, workloads, tracing)
    return run_timed(args, workloads)


if __name__ == "__main__":
    sys.exit(main())
