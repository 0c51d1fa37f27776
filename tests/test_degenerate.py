"""Every entry point on degenerate models: the exact engines, the samplers
and the CLI against brute force where it is defined (brute_force_z and
brute_force_marginals), and the expected refusal where it is not."""

import itertools
import json
import math

import numpy as np
import pytest

from propmrf import (
    FORMULA,
    VARIABLE,
    NoConsistentSampleError,
    PropMRF,
    brute_force_marginals,
    brute_force_z,
    enumerate_formula_assignments,
    exact_marginals,
    fdc_count,
    fdc_marginals,
    run_fis,
    run_vis,
    ve_count,
    vis_log_weights,
    write_model,
)
from propmrf.cli import main

DEGENERATE = {
    "zero variables": PropMRF(0),
    "empty hard clause": PropMRF.from_lists(2, hard=[[]], soft=[(0.5, [1])]),
    "empty soft clause": PropMRF.from_lists(2, soft=[(0.7, []), (0.3, [1, -2])]),
    "duplicate clauses": PropMRF.from_lists(
        3, hard=[[1, 2], [1, 2]], soft=[(0.5, [-1, 3]), (0.5, [-1, 3])]
    ),
    "hard only": PropMRF.from_lists(3, hard=[[1, -2], [2, 3]]),
    "free only": PropMRF(3),
    # no unit clause, so only a search or bucket elimination finds Z = 0
    "unsatisfiable": PropMRF.from_lists(
        2, hard=[[1, 2], [1, -2], [-1, 2], [-1, -2]], soft=[(0.4, [2])]
    ),
    "weights of +-800": PropMRF.from_lists(
        3, soft=[(800.0, [1, 2]), (-800.0, [-1, 3]), (800.0, [3])]
    ),
    "sum of |w| just under 1e300": PropMRF.from_lists(
        2, soft=[(5e299, [1]), (-4.99e299, [1, 2])]
    ),
}


def _log_sum_exp(values) -> float:
    values = np.asarray(values, dtype=np.float64)
    peak = float(values.max())
    return peak + math.log(float(np.exp(values - peak).sum()))


@pytest.mark.parametrize("name", list(DEGENERATE))
def test_every_entry_point_on_degenerate_models(name, tmp_path, capsys):
    m = DEGENERATE[name]
    log_z = brute_force_z(m)
    satisfiable = log_z > -math.inf
    marginals = brute_force_marginals(m) if satisfiable else None

    def agrees(got: float) -> bool:
        return got == log_z or math.isclose(got, log_z, rel_tol=1e-12, abs_tol=1e-12)

    for mode in (FORMULA, VARIABLE):
        for use_cache in (True, False):
            for threshold in (0, 16):
                options = dict(mode=mode, use_cache=use_cache, ve_width_threshold=threshold)
                assert agrees(fdc_count(m, **options).log_z)
                exact = fdc_marginals(m, **options)
                assert agrees(exact.log_z)
                if satisfiable:
                    assert np.allclose(exact.marginals, marginals, rtol=0, atol=1e-12)
                else:
                    assert exact.marginals is None
    assert agrees(ve_count(m))

    path = tmp_path / "model.pmrf"
    path.write_text(write_model(m))
    assert main(["count", str(path)]) == 0
    count = json.loads(capsys.readouterr().out)["result"]["log_z"]
    assert agrees(-math.inf if count is None else count)

    if not satisfiable:
        with pytest.raises(ValueError):
            exact_marginals(m)
        for refused in (run_fis, run_vis):
            with pytest.raises(NoConsistentSampleError):
                refused(m, 10)
        with pytest.raises(NoConsistentSampleError):
            enumerate_formula_assignments(m)
        for argv in (["marginals", str(path)], ["sample", str(path), "--samples", "10"]):
            assert main(argv) == 6
            assert capsys.readouterr().err.startswith("error:")
        return

    assert np.allclose(exact_marginals(m), marginals, rtol=0, atol=1e-12)

    # Each formula assignment carries count * exp(soft weight) of Z, and
    # every draw is one of the enumerated assignments with its estimate.
    leaves = enumerate_formula_assignments(m)
    assert agrees(_log_sum_exp([s.log_count + s.log_soft_weight for s in leaves]))
    assert math.isclose(sum(s.qb for s in leaves), 1.0, rel_tol=1e-12)
    by_values = {s.h.values: s.log_estimate for s in leaves}
    fis = run_fis(m, 50, seed=0)
    for sample in fis.samples:
        assert math.isclose(sample.log_estimate, by_values[sample.h.values], rel_tol=1e-12)
    if len(leaves) == 1:
        assert agrees(fis.estimate.log_z_hat)

    # The variable sampler's weights times its proposal sum to Z over every
    # assignment.
    vis = run_vis(m, 50, seed=0)
    grid = np.array(
        list(itertools.product((False, True), repeat=m.num_vars)), dtype=bool
    ).reshape(2**m.num_vars, m.num_vars)
    log_q = grid @ np.log(vis.proposal) + (~grid) @ np.log1p(-vis.proposal)
    assert agrees(_log_sum_exp(vis_log_weights(m, grid, vis.proposal) + log_q))
    assert math.isfinite(vis.estimate.log_z_hat)

    assert main(["marginals", str(path)]) == 0
    reported = json.loads(capsys.readouterr().out)["result"]["marginals"]
    assert np.allclose(reported, marginals, rtol=0, atol=1e-12)
    for method in ("fis", "vis"):
        assert main(["sample", str(path), "--method", method, "--samples", "20"]) == 0
        report = json.loads(capsys.readouterr().out)
        assert math.isfinite(report["result"]["log_z_hat"])
