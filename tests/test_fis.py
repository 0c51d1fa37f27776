import hashlib
import itertools
import json
import math

import numpy as np
import pytest

from propmrf import (
    AllZeroWeightsError,
    Clause,
    Estimate,
    FisResult,
    InstanceTooLargeError,
    NoConsistentSampleError,
    PropMRF,
    VisResult,
    brute_force_marginals,
    brute_force_z,
    enumerate_formula_assignments,
    fis_marginals,
    gen_qmr,
    gen_random,
    run_fis,
    run_vis,
    sum_kld,
    u_from_q,
    vis_marginals,
)
from propmrf.fis import estimate_from_log_weights, vis_log_weights

from conftest import random_mixed_model


def sampling_model(rng, max_vars=7, max_soft=5, with_hard=True):
    """Random model whose hard clauses are satisfiable (required for sampling)."""
    while True:
        m = random_mixed_model(
            rng,
            max_vars=max_vars,
            max_hard=2 if with_hard else 0,
            max_soft=max_soft,
        )
        if not m.soft:
            continue
        if brute_force_z(m) > -math.inf:
            return m


def test_fis_estimator_is_unbiased_by_enumeration():
    rng = np.random.default_rng(8601)
    for _ in range(25):
        m = sampling_model(rng)
        z = math.exp(brute_force_z(m))
        samples = enumerate_formula_assignments(m)
        assert sum(s.qb for s in samples) == pytest.approx(1.0, abs=1e-12)
        expectation = sum(s.qb * math.exp(s.log_estimate) for s in samples)
        assert expectation == pytest.approx(z, rel=1e-9)


def test_fis_unbiased_under_any_clause_order():
    rng = np.random.default_rng(8602)
    for _ in range(10):
        m = sampling_model(rng, max_soft=4)
        z = math.exp(brute_force_z(m))
        order = list(rng.permutation(len(m.soft)))
        samples = enumerate_formula_assignments(m, h_order=order)
        expectation = sum(s.qb * math.exp(s.log_estimate) for s in samples)
        assert expectation == pytest.approx(z, rel=1e-9)


def test_vis_estimator_is_unbiased_by_enumeration():
    rng = np.random.default_rng(8603)
    for _ in range(15):
        m = sampling_model(rng, max_vars=6)
        n = m.num_vars
        q = rng.uniform(0.2, 0.8, size=n)
        rows = np.array(
            list(itertools.product((False, True), repeat=n)), dtype=bool
        ).reshape(-1, n)
        log_w = vis_log_weights(m, rows, q)
        q_mass = np.prod(np.where(rows, q, 1.0 - q), axis=1)
        finite = log_w > -math.inf
        expectation = float(np.sum(q_mass[finite] * np.exp(log_w[finite])))
        assert expectation == pytest.approx(math.exp(brute_force_z(m)), rel=1e-9)


def test_variance_ordering_against_variable_sampling():
    rng = np.random.default_rng(8604)
    for _ in range(15):
        m = sampling_model(rng, max_vars=7, max_soft=4)
        n = m.num_vars
        z = math.exp(brute_force_z(m))
        q = rng.uniform(0.15, 0.85, size=n)

        u = u_from_q(m, q)
        fis_paths = enumerate_formula_assignments(m, proposal=u.conditional)
        var_fis = sum(
            s.qb * (math.exp(s.log_estimate) - z) ** 2 for s in fis_paths
        )

        var_vis = 0.0
        for bits in itertools.product((False, True), repeat=n):
            q_mass = math.prod(q[v] if bits[v] else 1.0 - q[v] for v in range(n))
            if any(
                not any((l > 0) == bits[abs(l) - 1] for l in c.literals)
                for c in m.hard
            ):
                w = 0.0
            else:
                log_pot = sum(
                    sc.weight
                    for sc in m.soft
                    if any((l > 0) == bits[abs(l) - 1] for l in sc.clause.literals)
                )
                w = math.exp(log_pot) / q_mass
            var_vis += q_mass * (w - z) ** 2

        assert var_fis <= var_vis * (1.0 + 1e-9) + 1e-9


def test_u_from_q_masses_and_conditionals():
    m = PropMRF.from_lists(3, hard=[[1, 2]], soft=[(0.5, [1, 3]), (-0.2, [2])])
    q = np.array([0.3, 0.6, 0.5])
    u = u_from_q(m, q)
    # kappa is the proposal mass of assignments satisfying the hard clause
    expected_kappa = 1.0 - (1 - 0.3) * (1 - 0.6)
    assert u.kappa == pytest.approx(expected_kappa, abs=1e-12)
    assert sum(u.masses.values()) == pytest.approx(u.kappa, abs=1e-12)
    p = u.conditional(0, ())
    true_mass = sum(mass for prof, mass in u.masses.items() if prof[0])
    assert p == pytest.approx(true_mass / u.kappa, abs=1e-12)
    with pytest.raises(InstanceTooLargeError):
        u_from_q(PropMRF(15), np.full(15, 0.5))


def test_draws_never_hit_an_empty_formula():
    rng = np.random.default_rng(8605)
    for i in range(5):
        m = sampling_model(rng, with_hard=True)
        result = run_fis(m, 200, seed=i)
        for sample in result.samples:
            assert sample.log_count >= 0.0  # at least one solution
            assert sample.qb > 0.0


def test_run_fis_is_deterministic_per_seed():
    rng = np.random.default_rng(8606)
    m = sampling_model(rng)
    a = run_fis(m, 100, seed=9)
    b = run_fis(m, 100, seed=9)
    assert a.estimate == b.estimate
    assert a.samples == b.samples
    c = run_fis(m, 100, seed=10)
    assert c.estimate != a.estimate


def test_run_fis_parallel_jobs_are_deterministic():
    rng = np.random.default_rng(8607)
    m = sampling_model(rng, max_vars=5, max_soft=3)
    a = run_fis(m, 40, seed=3, jobs=2)
    b = run_fis(m, 40, seed=3, jobs=2)
    assert a.estimate == b.estimate
    assert len(a.samples) == 40


def test_run_fis_starts_no_more_workers_than_tasks(monkeypatch):
    m = PropMRF.from_lists(2, soft=[(0.5, [1, 2]), (-0.3, [-1])])
    pooled = run_fis(m, 2, seed=4, jobs=3)
    pools = []

    class RecordingPool:
        """Runs the tasks in this process and records the pool size."""

        def __init__(self, max_workers):
            pools.append(max_workers)

        def __enter__(self):
            return self

        def __exit__(self, *exc):
            return False

        def map(self, fn, tasks):
            return map(fn, list(tasks))

    monkeypatch.setattr("propmrf.fis.ProcessPoolExecutor", RecordingPool)
    recorded = run_fis(m, 2, seed=4, jobs=3)
    assert pools == [2]
    assert recorded.samples == pooled.samples


def test_custom_proposal_rejected_with_multiple_jobs():
    m = PropMRF.from_lists(2, soft=[(0.5, [1, 2])])
    with pytest.raises(ValueError):
        run_fis(m, 10, proposal=lambda pos, values: 0.5, jobs=2)


def test_h_order_must_be_a_permutation():
    m = PropMRF.from_lists(2, soft=[(0.5, [1]), (0.2, [2])])
    with pytest.raises(ValueError):
        run_fis(m, 10, h_order=[0, 0])
    with pytest.raises(ValueError):
        run_fis(m, 10, h_order=[1, 2])


def test_sampling_guards():
    big = PropMRF(101)
    with pytest.raises(InstanceTooLargeError):
        run_fis(big, 10)
    unsat = PropMRF.from_lists(1, hard=[[1], [-1]])
    with pytest.raises(NoConsistentSampleError):
        run_fis(unsat, 10)
    with pytest.raises(NoConsistentSampleError):
        run_vis(unsat, 10)
    ok = PropMRF.from_lists(1, soft=[(0.5, [1])])
    with pytest.raises(ValueError):
        run_fis(ok, 0)
    with pytest.raises(ValueError):
        run_vis(ok, 10, q=np.array([0.0]))
    with pytest.raises(ValueError):
        run_vis(ok, 10, q=np.array([0.5, 0.5]))
    two = PropMRF.from_lists(2, soft=[(0.5, [1, 2])])
    with pytest.raises(ValueError):
        run_vis(two, 10, q=np.array([np.nan, 0.5]))


def test_estimate_from_log_weights_statistics():
    values = np.log(np.array([2.0, 4.0, 6.0]))
    estimate = estimate_from_log_weights(values)
    assert math.exp(estimate.log_z_hat) == pytest.approx(4.0, rel=1e-12)
    assert estimate.sample_variance == pytest.approx(4.0, rel=1e-12)
    assert estimate.std_error == pytest.approx(math.sqrt(4.0 / 3.0), rel=1e-12)
    assert estimate.n_samples == 3

    single = estimate_from_log_weights(np.array([1.5]))
    assert single.sample_variance == 0.0
    assert single.std_error == 0.0

    degenerate = estimate_from_log_weights(np.array([-math.inf, -math.inf]))
    assert degenerate.log_z_hat == -math.inf

    with pytest.raises(ValueError):
        estimate_from_log_weights(np.array([]))


def test_estimate_from_log_weights_out_of_float_range():
    # exp(2 * 400) and exp(800) overflow a float; the log estimate must not.
    near = estimate_from_log_weights(np.array([400.0, 401.0]))
    assert near.log_z_hat == pytest.approx(400.0 + math.log((1.0 + math.e) / 2.0), rel=1e-15)
    assert near.sample_variance == math.inf
    assert near.std_error == pytest.approx(
        math.sqrt(np.var([1.0, math.e], ddof=1) / 2.0) * math.exp(400.0), rel=1e-12
    )
    far = estimate_from_log_weights(np.array([800.0, 801.0, 801.0]))
    assert far.log_z_hat == pytest.approx(801.0 + math.log((2.0 + 1.0 / math.e) / 3.0), rel=1e-15)
    assert far.z_hat == math.inf
    assert far.sample_variance == math.inf
    assert far.std_error == math.inf
    flat = estimate_from_log_weights(np.array([900.0, 900.0]))
    assert flat.sample_variance == 0.0
    assert flat.std_error == 0.0


def test_estimates_concentrate_on_the_true_value():
    rng = np.random.default_rng(8608)
    m = sampling_model(rng, max_vars=7, max_soft=5)
    z = brute_force_z(m)
    fis = run_fis(m, 2000, seed=0).estimate
    assert abs(fis.log_z_hat - z) < 0.1
    vis = run_vis(m, 8000, seed=0).estimate
    assert abs(vis.log_z_hat - z) < 0.1


def test_fis_marginals_match_enumeration_weighted_average():
    rng = np.random.default_rng(8609)
    m = sampling_model(rng, max_vars=6, max_soft=4)
    result = run_fis(m, 600, seed=2)
    got = fis_marginals(result)
    exact = brute_force_marginals(m)
    assert got.shape == exact.shape
    assert np.all((got >= 0.0) & (got <= 1.0))
    assert sum_kld(exact, got) < 0.1


def test_vis_marginals_self_normalize():
    rng = np.random.default_rng(8610)
    m = sampling_model(rng, max_vars=6, max_soft=4)
    result = run_vis(m, 4000, seed=2)
    got = vis_marginals(result)
    exact = brute_force_marginals(m)
    assert np.all((got >= 0.0) & (got <= 1.0))
    assert sum_kld(exact, got) < 0.1


def test_all_zero_weights_detected():
    # q puts almost no mass on the single satisfying assignment
    m = PropMRF.from_lists(1, hard=[[1]], soft=[(0.5, [1])])
    result = run_vis(m, 60, seed=0, q=np.array([1e-9]))
    assert np.all(result.log_weights == -math.inf)
    assert result.estimate.log_z_hat == -math.inf
    with pytest.raises(AllZeroWeightsError):
        vis_marginals(result)


def test_no_soft_clauses_degenerates_to_exact_counting():
    m = PropMRF.from_lists(3, hard=[[1, 2], [-2, 3]])
    result = run_fis(m, 5, seed=0)
    assert all(s.qb == 1.0 for s in result.samples)
    assert result.estimate.log_z_hat == pytest.approx(
        brute_force_z(m), abs=1e-12
    )
    assert result.estimate.sample_variance == 0.0


def _golden_model() -> PropMRF:
    soft = gen_random(10, 8, 3, seed=8612).soft
    return PropMRF(10, (Clause([1, 2, -3]), Clause([-4, 5]), Clause([6])), soft)


def _digest(obj) -> str:
    return hashlib.sha256(json.dumps(obj).encode()).hexdigest()


def test_fixed_seed_draws_are_pinned():
    # Pins a fixed seed's draws, their proposal probabilities and both
    # estimates bit for bit, so that work on the marginal code, which runs
    # after sampling, cannot move them unnoticed.
    m = _golden_model()
    fis = run_fis(m, 300, seed=5)
    vis = run_vis(m, 300, seed=5)
    assert fis.estimate.log_z_hat == 3.7300337085432202
    assert vis.estimate.log_z_hat == 3.7546743678074286
    assert (
        _digest([[list(s.h.values), s.qb.hex()] for s in fis.samples])
        == "5e326898372a9b54db53d931acd128d9c0e4fe6b2f5c3244bcf590f35b3c72d1"
    )
    assert (
        _digest(vis.assignments.astype(int).tolist())
        == "ba7dc0886875a1fed8f479793ea53df87a6954dbead3cc7c53b3cda9a67ff224"
    )


_QMR_PINS = {
    1: (20.35477186679462, "cf36e545112fb1e5f382266410355240e27a047f38919f2bd39b5b16064e0b4c"),
    2: (20.358184224232325, "00d0cafdc0f133812c6f14ddd0d166499ad019665d5479ddda0cf160a4f6902d"),
}


@pytest.mark.parametrize("jobs", sorted(_QMR_PINS))
def test_qmr_draws_are_pinned(jobs):
    # Nearly every draw of a two-layer model is a distinct prefix, so this
    # pins the SAT checks and the proposal at new tree nodes, in this
    # process and in worker processes.
    log_z_hat, digest = _QMR_PINS[jobs]
    m = gen_qmr(15, 15, 7, seed=8613)
    fis = run_fis(m, 200, seed=5, jobs=jobs)
    assert fis.estimate.log_z_hat == log_z_hat
    assert _digest([[list(s.h.values), s.qb.hex()] for s in fis.samples]) == digest


@pytest.mark.parametrize(
    "hard, soft",
    [
        # unit propagation refutes clause 0 false, and clause 1 false
        ([[1]], [(0.5, [1]), (0.7, [1, 2])]),
        # with 1 false the hard clauses forbid every value of 2 and 3, but
        # propagation forces nothing: only the DPLL refutes that extension
        ([[1, 2, 3], [1, 2, -3], [1, -2, 3], [1, -2, -3]], [(0.5, [1]), (0.7, [1, 2])]),
    ],
    ids=["propagation", "dpll"],
)
def test_forced_steps_skip_the_proposal(monkeypatch, hard, soft):
    # Each step has one satisfiable extension: it is taken with probability
    # one and the proposal is never asked.
    m = PropMRF.from_lists(3, hard=hard, soft=soft)
    calls = []
    monkeypatch.setattr(
        "propmrf.fis.formula_proposal", lambda *args: calls.append(args) or 0.5
    )
    result = run_fis(m, 20, seed=0)
    assert calls == []
    assert {s.h.values for s in result.samples} == {(True, True)}
    assert all(s.qb == 1.0 for s in result.samples)


def test_enumeration_of_a_long_forced_chain():
    # 1500 steps, each forced by a hard unit: the enumeration is one path
    # deeper than Python's recursion limit.
    m = PropMRF.from_lists(
        100,
        hard=[[v] for v in range(1, 101)],
        soft=[(0.3, [1 + k % 100]) for k in range(1500)],
    )
    (sample,) = enumerate_formula_assignments(m)
    assert sample.qb == 1.0
    assert sample.h.values == (True,) * 1500


def test_fis_marginals_match_brute_force_per_assignment():
    # Reference: each distinct formula assignment's hard-only model, solved
    # by enumeration, weighted by the samples' importance weights.
    rng = np.random.default_rng(8612)
    models = [_golden_model()] + [sampling_model(rng, max_vars=7, max_soft=5) for _ in range(6)]
    for k, m in enumerate(models):
        result = run_fis(m, 200, seed=k)
        log_w = np.array([s.log_estimate for s in result.samples])
        weights = np.exp(log_w - log_w.max())
        expected = np.zeros(m.num_vars)
        for sample, weight in zip(result.samples, weights):
            if weight == 0.0:
                continue
            hard = list(m.hard)
            for clause, value in zip(result.h_clauses, sample.h.values):
                hard += [clause] if value else [Clause([-l]) for l in clause.literals]
            expected += weight * brute_force_marginals(PropMRF(m.num_vars, tuple(hard)))
        expected /= weights.sum()
        assert np.all(np.abs(fis_marginals(result) - expected) <= 1e-12)
