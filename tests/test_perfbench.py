"""The benchmark's traced runs wrap module-level names of propmrf.fdc,
propmrf.fis and propmrf.sat.  Installing and removing those wrappers here
makes a refactor that drops or renames one of them fail the test suite."""

import importlib.util
import sys
from pathlib import Path

import propmrf

PERFBENCH = Path(__file__).resolve().parent.parent / "perfbench"


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
