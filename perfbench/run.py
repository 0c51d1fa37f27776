"""Layered inference benchmark for propmrf.

Usage, from the root of a source checkout:

    python3 perfbench/run.py --workload exact --seed 1 --seconds 20 --trace 0

The run imports propmrf from ./src (nothing is installed), draws the
workload's instances from --seed, and runs its jobs in a closed loop with one
client: round-robin over the instances until every instance has run once and
the next job would overrun --seconds.  Each job is checked against a
reference that does not use the code path under test, and repeated jobs must
reproduce the first result bit for bit.

--trace 0 reports the end-to-end metrics: wall_norm_s (one pass over the
instance set, the sum of per-instance median times, each job's time scaled by
the reference kernel of calibrate.py timed just before and after it),
setup_s (median over fresh interpreters of importing propmrf and generating
the instances) and peak_rss_mb.  --trace 1 spends half the time untraced and
half traced, and reports the per-layer metrics, among them the raw wall_s;
see tracer.py.  End-to-end numbers only ever come from untraced jobs.

The last stdout line is one JSON object with keys correct, attempted, failed
and metrics.  A full record (provenance, instance fingerprints, every metric,
deterministic counters) goes to perfbench/out/, with the spans of a traced run.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import math
import os
import platform
import resource
import statistics
import subprocess
import sys
import time
from pathlib import Path

from calibrate import NOMINAL_KERNEL_S, Kernel
from tracer import Tracer
from workloads import WORKLOADS

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
OUT = HERE / "out"

SETUP_REPEATS = 7
KERNELS_PER_GAP = 2

SETUP_PROBE = """
import json, sys, time
t0 = time.perf_counter()
sys.path.insert(0, sys.argv[1])
import propmrf
models = [propmrf.generate(propmrf.GenSpec(**s)) for s in json.loads(sys.argv[2])]
print(time.perf_counter() - t0)
"""

POOL_NOTE = (
    "spans from the jobs=2 worker processes are not collected; "
    "the parent's wait on the pool shows up as fis.run.self_s"
)

# (metric, unit) in the order BENCHMARK.json lists them.
END_TO_END = [("wall_norm_s", "s"), ("setup_s", "s"), ("peak_rss_mb", "MB")]

COUNTED_LAYERS = [
    "graph.minfill", "ve", "simplify", "graph.components", "fdc.key",
    "fdc.branch", "fdc.count", "sat", "sat.propagate", "fis.proposal", "bp",
]
PER_LAYER = (
    [(f"{layer}.calls", "count") for layer in COUNTED_LAYERS]
    + [(f"{layer}.self_s", "s") for layer in COUNTED_LAYERS if layer != "fdc.count"]
    + [
        ("fdc.count.s", "s"),
        ("graph.minfill.max_width", "count"),
        ("fdc.nodes", "count"),
        ("fdc.leaves", "count"),
        ("fdc.cache_hit_ratio", "ratio"),
        ("sat.cache_hit_ratio", "ratio"),
        ("bp.iterations", "count"),
        ("bp.converged", "count"),
        ("vis.weights.self_s", "s"),
        ("fis.run.self_s", "s"),
        ("fis.marginals.self_s", "s"),
        ("fis.distinct_ratio", "ratio"),
        ("fis.ess_ratio", "ratio"),
        ("vis.ess_ratio", "ratio"),
        ("samples_per_s", "1/s"),
        ("fis_log_z_err", "nats"),
        ("vis_log_z_err", "nats"),
        ("fis_marginal_kld", "nats"),
        ("vis_marginal_kld", "nats"),
        ("trace.overhead_s", "s"),
        ("wall_s", "s"),
    ]
)


def _import_propmrf():
    """Import propmrf from this checkout's src/, or exit 1 without a result."""
    if not (SRC / "propmrf" / "__init__.py").is_file():
        sys.exit(f"perfbench: no propmrf sources under {SRC}; run from a full checkout")
    sys.path.insert(0, str(SRC))
    import propmrf

    if Path(propmrf.__file__).resolve().parent != SRC / "propmrf":
        sys.exit(f"perfbench: imported propmrf from {propmrf.__file__}, not {SRC}")
    return propmrf


def _tree_sha256(directory: Path) -> str:
    h = hashlib.sha256()
    for path in sorted(directory.glob("*.py")):
        h.update(path.name.encode() + b"\0" + path.read_bytes())
    return h.hexdigest()


def _repeat_problems(path: Path, record: dict) -> list[str]:
    """Compare with the previous run of the same code, workload, seed and
    trace setting, if its record is still there: a fixed seed must give the
    same results and counters in every process."""
    try:
        prev = json.loads(path.read_text())
    except (OSError, ValueError):
        return []
    same_code = all(
        prev.get("provenance", {}).get(key) == record["provenance"][key]
        for key in ("src_sha256", "bench_sha256", "python", "numpy")
    )
    if not same_code:
        return []
    return [
        f"{key} differs from the previous run with this seed"
        for key in ("results_sha256", "counters_sha256")
        if key in prev and prev[key] != record.get(key)
    ]


def _provenance(workload: str, seed: int) -> dict:
    import numpy

    git_sha = None
    if (ROOT / ".git").exists():
        proc = subprocess.run(
            ["git", "-C", str(ROOT), "rev-parse", "HEAD"],
            capture_output=True, text=True, timeout=30,
        )
        git_sha = proc.stdout.strip() or None
    cpu = platform.processor() or None
    try:
        with open("/proc/cpuinfo") as fh:
            cpu = next(
                (line.split(":", 1)[1].strip() for line in fh if line.startswith("model name")),
                cpu,
            )
    except OSError:
        pass
    return {
        "git_sha": git_sha,
        "src_sha256": _tree_sha256(SRC / "propmrf"),
        "bench_sha256": _tree_sha256(HERE),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "nproc": os.cpu_count(),
        "cpu_model": cpu,
        "workload": workload,
        "seed": seed,
    }


def _setup_seconds(specs: list[dict]) -> float:
    """Median over fresh interpreters of import plus instance generation."""
    times = []
    for _ in range(SETUP_REPEATS):
        proc = subprocess.run(
            [sys.executable, "-c", SETUP_PROBE, str(SRC), json.dumps(specs)],
            capture_output=True, text=True, check=True, timeout=120,
        )
        times.append(float(proc.stdout.strip().splitlines()[-1]))
    return statistics.median(times)


def _execute(wl, api, models, specs, k: int, tracer=None, traced_once=None) -> dict:
    mark = tracer.mark if tracer is not None else 0
    error = None
    record = None
    t0 = time.perf_counter()
    try:
        record = wl.job(api, models[k], specs[k], tracer)
    except Exception as exc:  # a failed job is counted, not fatal
        error = f"{type(exc).__name__}: {exc}"
    ex = {"k": k, "s": time.perf_counter() - t0, "record": record, "error": error}
    if tracer is not None:
        ex["layers"] = tracer.layer_times(mark)
        ex["counters"] = dict(tracer.counters)
        tracer.counters.clear()
        if k in traced_once:
            tracer.truncate(mark)
        traced_once.add(k)
    return ex


def _run_jobs(wl, api, models, specs, seconds, tracer=None, kernel=None, gaps=None) -> list[dict]:
    """Round-robin over the instances until each ran once and the next job
    would overrun the time, judged by that instance's previous job.

    With a kernel, it runs KERNELS_PER_GAP times after every job, and each
    gap's kernel seconds are appended to gaps.
    """
    traced_once: set[int] = set()
    execs = []
    deadline = time.perf_counter() + seconds
    n = len(models)
    i = 0
    while i < n or time.perf_counter() + execs[i - n]["s"] < deadline:
        execs.append(_execute(wl, api, models, specs, i % n, tracer, traced_once))
        i += 1
        if kernel is not None:
            gaps.append([kernel.seconds() for _ in range(KERNELS_PER_GAP)])
    return execs


def _per_instance_median(execs, n: int, value) -> float:
    """Sum over instances of the median of value(exec) over that instance's jobs."""
    total = 0.0
    for k in range(n):
        vals = [value(e) for e in execs if e["k"] == k]
        if vals:
            total += statistics.median(vals)
    return total


def _check(wl, execs, refs) -> tuple[list[str], dict]:
    """Mark failed jobs; returns the problems and the first record per instance."""
    first: dict[int, dict] = {}
    first_counters: dict[int, dict] = {}
    problems = []
    for ex in execs:
        k = ex["k"]
        bad = [ex["error"]] if ex["error"] else []
        if not bad:
            bad = wl.check(ex["record"], refs[k])
            first.setdefault(k, ex)
            if ex["record"]["result"] != first[k]["record"]["result"]:
                bad.append("result differs from the first job on this instance")
            if "counters" in ex:
                first_counters.setdefault(k, ex["counters"])
                if ex["counters"] != first_counters[k]:
                    bad.append("deterministic counters differ from the first traced job")
        ex["failed"] = bool(bad)
        problems += [f"instance {k}: {p}" for p in bad]
    return problems, first


def _layer_metrics(n: int, traced, first, accuracy) -> dict:
    def layer(name):
        return _per_instance_median(traced, n, lambda e: e["layers"].get(name, 0.0))

    # Counters are deterministic: take each instance's first traced job.
    counters: dict[str, float] = {}
    max_width = 0
    for k in range(n):
        ex = next(e for e in traced if e["k"] == k)
        for key, val in ex["counters"].items():
            if key == "graph.minfill.max_width":
                max_width = max(max_width, val)
            else:
                counters[key] = counters.get(key, 0) + val

    out = {f"{l}.calls": counters.get(f"{l}.calls", 0) for l in COUNTED_LAYERS}
    for l in COUNTED_LAYERS + ["vis.weights", "fis.run", "fis.marginals"]:
        if l != "fdc.count":
            out[f"{l}.self_s"] = layer(l)
    out["fdc.count.s"] = layer("fdc.count.incl")
    out["graph.minfill.max_width"] = max_width
    out["fdc.nodes"] = counters.get("fdc.nodes", 0)
    out["fdc.leaves"] = counters.get("fdc.leaves", 0)
    lookups = out["fdc.key.calls"]
    out["fdc.cache_hit_ratio"] = counters.get("fdc.cache_hits", 0) / lookups if lookups else 0.0
    requests = sum(first[k]["record"].get("sat_requests", 0) for k in first)
    out["sat.cache_hit_ratio"] = 1.0 - out["sat.calls"] / requests if requests else 0.0
    out["bp.iterations"] = counters.get("bp.iterations", 0)
    out["bp.converged"] = counters.get("bp.converged", 0)

    results = [first[k]["record"]["result"] for k in sorted(first)]
    n_fis = sum(first[k]["record"].get("samples_fis", 0) for k in first)
    out["fis.distinct_ratio"] = sum(r.get("fis_distinct", 0) for r in results) / n_fis if n_fis else 0.0
    for kind in ("fis", "vis"):
        vals = [r[f"{kind}_ess_ratio"] for r in results if f"{kind}_ess_ratio" in r]
        out[f"{kind}.ess_ratio"] = statistics.fmean(vals) if vals else 0.0
    out.update(accuracy)
    return out


def _observe_stats(counters, result) -> None:
    counters["fdc.nodes"] += result.stats.nodes
    counters["fdc.leaves"] += result.stats.leaves
    counters["fdc.cache_hits"] += result.stats.cache_hits


def _observe_width(counters, result) -> None:
    counters["graph.minfill.max_width"] = max(counters["graph.minfill.max_width"], result.width)


def _observe_bp(counters, result) -> None:
    counters["bp.iterations"] += result.iterations
    counters["bp.converged"] += int(result.converged)


def _install_tracer(api) -> Tracer:
    t = Tracer()
    fdc, fis, sat = api.fdc, api.fis, api.sat
    t.wrap(fdc, "simplify", "simplify")
    t.wrap(fdc, "connected_components", "graph.components")
    t.wrap(fdc, "canonical_key", "fdc.key")
    t.wrap(fdc, "minfill_width", "graph.minfill", observe=_observe_width)
    t.wrap(fdc, "clauses_to_factors", "ve", counted=False)
    t.wrap(fdc, "bucket_elimination", "ve")
    t.wrap(fdc, "choose_branch_clause", "fdc.branch")
    t.wrap(fdc, "condition_on_clause", "fdc.branch", counted=False)
    t.wrap(fdc, "fdc_count", "fdc.count", observe=_observe_stats)
    t.wrap(fis, "fdc_count", "fdc.count", observe=_observe_stats)
    t.wrap(fis, "is_satisfiable", "sat")
    t.wrap(fis, "unit_propagate", "sat.propagate")
    t.wrap(sat, "unit_propagate", "sat.propagate")
    t.wrap(fis, "formula_proposal", "fis.proposal")
    t.wrap(fis, "run_bp", "bp", observe=_observe_bp)
    t.wrap(fis, "vis_log_weights", "vis.weights")
    return t


def _digest(obj) -> str:
    return hashlib.sha256(json.dumps(obj, sort_keys=True).encode()).hexdigest()


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    api = _import_propmrf()
    wl = WORKLOADS[args.workload]

    specs = wl.instances(api, args.seed)
    models = [api.generate(api.GenSpec(**s)) for s in specs]
    prov = _provenance(wl.name, args.seed)
    prov["instances"] = [
        dict(spec, fingerprint=api.model_fingerprint(m)) for spec, m in zip(specs, models)
    ]
    print(f"perfbench workload={wl.name} seed={args.seed} seconds={args.seconds} trace={args.trace}")
    print("provenance: " + json.dumps(prov, sort_keys=True))
    setup_s = _setup_seconds(specs)

    untraced_s = args.seconds / 2 if args.trace else args.seconds
    # One untimed job first, so that lazy imports and heap growth are not
    # charged to the first timed job.
    warmup = _execute(wl, api, models, specs, 0)
    # The first kernel run warms the kernel up and is dropped.  gaps[i] holds
    # the kernel times just before job i, gaps[i + 1] those just after it.
    with Kernel(wl.jobs) as kernel:
        gaps = [[kernel.seconds() for _ in range(KERNELS_PER_GAP + 1)][1:]]
        untraced = _run_jobs(wl, api, models, specs, untraced_s, kernel=kernel, gaps=gaps)
    for ex, before, after in zip(untraced, gaps, gaps[1:]):
        ex["norm_s"] = ex["s"] * NOMINAL_KERNEL_S / statistics.fmean(before + after)
    peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    traced = []
    tracer = None
    if args.trace:
        tracer = _install_tracer(api)
        try:
            traced = _run_jobs(wl, api, models, specs, args.seconds / 2, tracer)
        finally:
            tracer.restore()

    refs = [wl.reference(api, m) for m in models]
    execs = [warmup] + untraced + traced
    problems, first = _check(wl, execs, refs)
    failed = sum(ex["failed"] for ex in execs)

    per_instance = (
        [wl.accuracy(api, first[k]["record"], refs[k]) for k in sorted(first)] if wl.accuracy else []
    )
    accuracy = {}
    for key in ("fis_log_z_err", "vis_log_z_err", "fis_marginal_kld", "vis_marginal_kld"):
        vals = [a[key] for a in per_instance if key in a]
        accuracy[key] = statistics.fmean(vals) if vals else 0.0

    n = len(models)
    wall_s = _per_instance_median(untraced, n, lambda e: e["s"])
    sampled = [e for e in untraced if e["record"] is not None and e["record"].get("sample_s")]
    samples_per_s = (
        sum(e["record"]["samples"] for e in sampled) / sum(e["record"]["sample_s"] for e in sampled)
        if sampled else 0.0
    )
    wall_norm_s = _per_instance_median(untraced, n, lambda e: e["norm_s"])
    end_to_end = {"wall_norm_s": wall_norm_s, "setup_s": setup_s, "peak_rss_mb": peak_rss_mb}
    per_layer = {}
    if args.trace and len(first) == n:
        per_layer = _layer_metrics(n, traced, first, accuracy)
        per_layer["samples_per_s"] = samples_per_s
        per_layer["trace.overhead_s"] = _per_instance_median(traced, n, lambda e: e["s"]) - wall_s
        per_layer["wall_s"] = wall_s

    results = {k: first[k]["record"]["result"] for k in sorted(first)}
    record = {
        "provenance": prov,
        "attempted": len(execs),
        "failed": failed,
        "fail_ratio": failed / len(execs),
        "problems": problems,
        "job_seconds": [[e["s"] for e in untraced if e["k"] == k] for k in range(n)],
        "norm_job_seconds": [[e["norm_s"] for e in untraced if e["k"] == k] for k in range(n)],
        "kernel_seconds": gaps,
        "end_to_end": end_to_end,
        "samples_per_s": samples_per_s,
        "accuracy": accuracy,
        "per_layer": per_layer,
        "results_sha256": _digest(results),
        "results": results,
    }
    if args.trace and len(first) == n:
        counters = {k: next(e for e in traced if e["k"] == k)["counters"] for k in range(n)}
        record["counters_sha256"] = _digest(counters)
        record["counters"] = counters
    OUT.mkdir(exist_ok=True)
    stem = f"{wl.name}-seed{args.seed}-trace{args.trace}"
    repeat = _repeat_problems(OUT / f"{stem}.json", record)
    problems += repeat
    if tracer is not None:
        record["spans_written"] = tracer.write(OUT / f"{stem}.spans.jsonl.gz")
        if wl.jobs > 1:
            record["note"] = POOL_NOTE
    (OUT / f"{stem}.json").write_text(json.dumps(record, indent=1, sort_keys=True) + "\n")

    for p in problems:
        print("FAIL " + p)
    if wl.jobs > 1 and args.trace:
        print("note: " + POOL_NOTE)
    print(f"fail_ratio {failed}/{len(execs)}  results_sha256 {record['results_sha256']}")
    if "counters_sha256" in record:
        print(f"counters_sha256 {record['counters_sha256']}")
    print(f"wall_s {wall_s:.6g}  wall_norm_s {wall_norm_s:.6g}")
    print(f"samples_per_s {samples_per_s:.6g}  accuracy {json.dumps(accuracy, sort_keys=True)}")
    wanted = PER_LAYER if args.trace else END_TO_END
    values = per_layer if args.trace else end_to_end
    metrics = {}
    for name, unit in wanted:
        value = float(values.get(name, math.nan))
        metrics[name] = {"value": value, "unit": unit}
        print(f"  {name:<26} {value:>14.6g} {unit}")
    correct = failed == 0 and not repeat and all(math.isfinite(m["value"]) for m in metrics.values())
    print(json.dumps({"correct": correct, "attempted": len(execs), "failed": failed, "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
