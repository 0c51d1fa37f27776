"""tools/bench_record.py's summary step, on synthetic perfbench records; the
benchmark itself is not run."""

import importlib.util
import sys
from pathlib import Path

import pytest

TOOL = Path(__file__).resolve().parent.parent / "tools" / "bench_record.py"


@pytest.fixture
def bench_record(monkeypatch):
    spec = importlib.util.spec_from_file_location("bench_record", TOOL)
    module = importlib.util.module_from_spec(spec)
    monkeypatch.setitem(sys.modules, spec.name, module)
    spec.loader.exec_module(module)
    return module


def _record(seed: int, wall: float, digest: str) -> dict:
    return {
        "provenance": {
            "git_sha": "abc", "src_sha256": "s", "bench_sha256": "b", "python": "3.11.7",
            "numpy": "2.4.6", "nproc": 2, "cpu_model": "cpu", "workload": "exact", "seed": seed,
            "instances": [],
        },
        "attempted": 10,
        "failed": 0,
        "end_to_end": {"wall_norm_s": wall, "setup_s": 0.1 * seed, "peak_rss_mb": 40.0},
        "results_sha256": digest,
        "correct": True,
    }


def test_summary_of_two_records(bench_record):
    runs = [_record(2, 0.5, "d2"), _record(1, 0.3, "d1")]
    summary = bench_record.summarize(runs)
    assert summary["provenance"] == {
        key: runs[0]["provenance"][key] for key in bench_record.SHARED
    }
    exact = summary["workloads"]["exact"]
    assert exact["seeds"] == [1, 2]
    assert (exact["attempted"], exact["failed"]) == (20, 0)
    assert exact["wall_norm_s"] == {"q1": 0.35, "median": 0.4, "q3": 0.45}
    assert exact["setup_s"]["median"] == pytest.approx(0.15)
    assert exact["peak_rss_mb"] == {"q1": 40.0, "median": 40.0, "q3": 40.0}
    # One digest over the seeds' digests, in seed order.
    swapped = bench_record.summarize([_record(1, 0.3, "d2"), _record(2, 0.5, "d1")])
    assert swapped["workloads"]["exact"]["results_sha256"] != exact["results_sha256"]


@pytest.mark.parametrize(
    "field, value",
    [("correct", False), ("failed", 1), ("src_sha256", "other")],
)
def test_summary_refuses_a_bad_run(bench_record, field, value):
    bad = _record(2, 0.5, "d2")
    if field in bad:
        bad[field] = value
    else:
        bad["provenance"][field] = value
    with pytest.raises(bench_record.RecordError):
        bench_record.summarize([_record(1, 0.3, "d1"), bad])
