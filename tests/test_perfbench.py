"""The benchmark's traced runs wrap module-level names of propmrf.fdc,
propmrf.fis and propmrf.sat, and its references call the public API.
Installing and removing those wrappers, and running each reference, here
makes a refactor that drops, renames or narrows one of them fail the test
suite."""

import importlib.util
import sys
from pathlib import Path

import propmrf

PERFBENCH = Path(__file__).resolve().parent.parent / "perfbench"


def _load_workloads(monkeypatch):
    spec = importlib.util.spec_from_file_location(
        "perfbench_workloads", PERFBENCH / "workloads.py"
    )
    workloads = importlib.util.module_from_spec(spec)
    # dataclasses looks the module up while it is being executed
    monkeypatch.setitem(sys.modules, spec.name, workloads)
    spec.loader.exec_module(workloads)
    return workloads


def test_tracer_wraps_and_restores_every_name(monkeypatch):
    monkeypatch.syspath_prepend(str(PERFBENCH))
    before = set(sys.modules)
    layers = (propmrf.fdc, propmrf.fis, propmrf.sat)
    originals = [dict(vars(module)) for module in layers]
    try:
        spec = importlib.util.spec_from_file_location("perfbench_run", PERFBENCH / "run.py")
        run = importlib.util.module_from_spec(spec)
        spec.loader.exec_module(run)
        tracer = run._install_tracer(propmrf)
        try:
            assert any(vars(m) != o for m, o in zip(layers, originals))
        finally:
            tracer.restore()
        assert all(vars(m) == o for m, o in zip(layers, originals))
    finally:
        for name in set(sys.modules) - before:
            del sys.modules[name]


def test_workload_references_agree_with_brute_force(monkeypatch):
    """Each workload's reference calls the public API on a PropMRF, as the
    benchmark does; an entry point that stops taking that form fails here."""
    workloads = _load_workloads(monkeypatch)
    m = propmrf.gen_random(8, 6, 3)
    log_z = propmrf.brute_force_z(m)
    for name, workload in workloads.WORKLOADS.items():
        ref = workload.reference(propmrf, m)
        assert abs(ref["log_z"] - log_z) <= 1e-9, name


def test_library_minfill_width_matches_the_benchmark_copy(monkeypatch):
    """The benchmark stratifies instances by its own min-fill copy; the
    library's width must agree on every exact and search instance."""
    workloads = _load_workloads(monkeypatch)
    instances = workloads._exact_instances(propmrf, 1) + workloads._search_instances(
        propmrf, 1
    )
    assert instances
    for gen_spec in instances:
        m = propmrf.generate(propmrf.GenSpec(**gen_spec))
        scopes = [tuple(sorted(c.variables)) for c in m.iter_clauses()]
        assert propmrf.minfill_width(m).width == workloads._minfill_width(scopes)
