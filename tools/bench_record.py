"""Run the benchmark over fixed seeds and write its summary, BENCH_<label>.json.

For each seed in SEEDS and each workload that the checkout's BENCHMARK.json
declares (interleaved, seed by seed), this runs `perfbench/run.py --trace 0`
for run_seconds in a source checkout, reads the record that the run writes
to perfbench/out/, and checks the verdict on its last stdout line.  The
summary holds, per workload, the median and quartiles of each end-to-end
metric over the seeds, the jobs attempted and failed, and one digest of the
results of every seed, with the provenance that all the runs share written
once.  Nothing is written when a run is not correct, has failed jobs, or ran
other code than the others.

Usage, from the repository root:

    python3 tools/bench_record.py LABEL [--checkout DIR]

--checkout benchmarks another checkout, for example a clone of an older
commit for a baseline; the file is written to this repository's root
either way.  It needs only the standard library.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import statistics
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SEEDS = (1, 2, 3, 4, 5)
METRICS = ("wall_norm_s", "setup_s", "peak_rss_mb")
# Provenance that every run of one checkout must share.
SHARED = ("git_sha", "src_sha256", "bench_sha256", "python", "numpy", "nproc", "cpu_model")


class RecordError(ValueError):
    """The runs cannot make a trustworthy summary."""


def _quartiles(values: list[float]) -> dict:
    q1, median, q3 = statistics.quantiles(values, n=4, method="inclusive")
    return {"q1": q1, "median": median, "q3": q3}


def summarize(runs: list[dict]) -> dict:
    """The BENCH file's content from perfbench runs.

    Each run is a perfbench/out record (provenance, attempted, failed,
    end_to_end, results_sha256) plus the `correct` verdict that its run
    printed.  Raises RecordError when a run is not correct, has a failed
    job, or differs from the first run in any SHARED provenance field.
    """
    provenance = {key: runs[0]["provenance"][key] for key in SHARED}
    workloads: dict[str, dict] = {}
    for run in runs:
        prov = run["provenance"]
        where = f"{prov['workload']} seed {prov['seed']}"
        if not run["correct"] or run["failed"]:
            raise RecordError(f"{where}: not correct ({run['failed']} failed jobs)")
        for key in SHARED:
            if prov[key] != provenance[key]:
                raise RecordError(f"{where}: {key} differs from the first run")
        workloads.setdefault(prov["workload"], []).append(run)
    summary = {}
    for name, group in workloads.items():
        group.sort(key=lambda run: run["provenance"]["seed"])
        digests = [run["results_sha256"] for run in group]
        summary[name] = {
            "seeds": [run["provenance"]["seed"] for run in group],
            "attempted": sum(run["attempted"] for run in group),
            "failed": sum(run["failed"] for run in group),
            "results_sha256": hashlib.sha256("\n".join(digests).encode()).hexdigest(),
            **{m: _quartiles([run["end_to_end"][m] for run in group]) for m in METRICS},
        }
    return {"provenance": provenance, "workloads": summary}


def _run(checkout: Path, workload: str, seed: int, seconds: float) -> dict:
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", workload, "--seed", str(seed),
         "--seconds", str(seconds), "--trace", "0"],
        cwd=checkout, capture_output=True, text=True,
    )
    if proc.returncode != 0:
        raise RecordError(f"{workload} seed {seed} exited {proc.returncode}: {proc.stderr[-2000:]}")
    verdict = json.loads(proc.stdout.strip().splitlines()[-1])
    record = json.loads(
        (checkout / "perfbench" / "out" / f"{workload}-seed{seed}-trace0.json").read_text()
    )
    return dict(record, correct=verdict["correct"])


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("label")
    parser.add_argument("--checkout", type=Path, default=ROOT)
    args = parser.parse_args(argv)
    checkout = args.checkout.resolve()
    bench = json.loads((checkout / "BENCHMARK.json").read_text())
    try:
        runs = []
        for seed in SEEDS:
            for workload in bench["workloads"]:
                runs.append(_run(checkout, workload["name"], seed, bench["run_seconds"]))
                print(f"{workload['name']} seed {seed}: {runs[-1]['end_to_end']}", flush=True)
        summary = summarize(runs)
    except RecordError as exc:
        print(f"bench_record: {exc}; nothing written", file=sys.stderr)
        return 1
    summary["seconds"] = bench["run_seconds"]
    out = ROOT / f"BENCH_{args.label}.json"
    out.write_text(json.dumps(summary, indent=1, sort_keys=True) + "\n")
    print(f"wrote {out.name}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
