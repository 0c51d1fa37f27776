import hashlib
import itertools
import json
import math
import sys

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
    pick_evidence,
    run_fis,
    run_vis,
    sum_kld,
    u_from_q,
    vis_marginals,
)
from propmrf.bp import BpConfig, formula_proposal, run_bp
from propmrf.fdc import FORMULA, fdc_marginals
from propmrf.fis import (
    _BpProposal,
    _FormulaSampler,
    _extend,
    _formula_sampling,
    _step_extensions,
    _uniforms,
    estimate_from_log_weights,
    vis_log_weights,
)
from propmrf.sat import is_satisfiable, unit_propagate

from conftest import random_clause, random_mixed_model


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
                not any((l > 0) == bits[abs(l) - 1] for l in c)
                for c in m.hard
            ):
                w = 0.0
            else:
                log_pot = sum(
                    sc.weight
                    for sc in m.soft
                    if any((l > 0) == bits[abs(l) - 1] for l in sc.clause)
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
    for bad in (np.nan, 2.0, -0.5):
        with pytest.raises(ValueError):
            u_from_q(m, np.array([bad, 0.6, 0.5]))
    for shape in (2, 4):
        with pytest.raises(ValueError, match="one probability per variable"):
            u_from_q(m, np.full(shape, 0.5))


def test_vis_weights_refuse_a_proposal_outside_the_open_interval():
    # u_from_q accepts q of exactly 0 or 1; the VIS weights would take
    # 0 * log 0 for it, so they refuse it as run_vis does.
    m = PropMRF.from_lists(2, soft=[(0.5, [1]), (0.2, [2])])
    rows = np.array([[True, False], [False, False], [True, True]])
    for q in ([1.0, 0.25], [0.0, 0.25], [0.5, 1.0]):
        with pytest.raises(ValueError, match="strictly inside"):
            vis_log_weights(m, rows, np.array(q))
    for shape in (1, 3):
        with pytest.raises(ValueError, match="one probability per variable"):
            vis_log_weights(m, rows, np.full(shape, 0.5))
    assert np.all(np.isfinite(vis_log_weights(m, rows, np.array([0.5, 0.25]))))


def test_u_from_q_with_certain_variables():
    # q of exactly 1 leaves the profiles of x1 = false at mass 0, so the
    # conditional after a false first step has no mass to normalize by.
    m = PropMRF.from_lists(2, soft=[(0.5, [1]), (0.2, [2])])
    u = u_from_q(m, np.array([1.0, 0.25]))
    assert u.masses == {
        (False, False): 0.0,
        (True, False): 0.75,
        (False, True): 0.0,
        (True, True): 0.25,
    }
    assert u.kappa == 1.0
    assert u.conditional(0, ()) == 1.0
    assert u.conditional(1, (True,)) == 0.25
    assert u.conditional(1, (False,)) == 0.5


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


def test_custom_proposal_accepted_with_multiple_jobs():
    # A lambda proposal runs at any jobs, since every stream is drawn in
    # this process; its draws follow the seed streams like the BP ones.
    m = PropMRF.from_lists(3, soft=[(0.5, [1, 2]), (-0.3, [-1, 3]), (0.8, [2, -3])])
    proposal = lambda pos, values: 0.3 + 0.1 * pos + 0.2 * sum(values)  # noqa: E731
    a = run_fis(m, 40, seed=3, jobs=2, proposal=proposal)
    b = run_fis(m, 40, seed=3, jobs=2, proposal=proposal)
    assert a.bp is None and len(a.samples) == 40
    assert [_sample_fields(s) for s in a.samples] == [_sample_fields(s) for s in b.samples]
    assert a.estimate.log_z_hat.hex() == b.estimate.log_z_hat.hex()


def test_streams_that_draw_nothing_are_not_spawned(monkeypatch):
    # Only the first n_samples streams draw, and spawn's first children do
    # not depend on how many are spawned: jobs=1000 spawns 5 streams for 5
    # draws and draws what jobs=5 draws.
    asked = []

    class Recording(np.random.SeedSequence):
        def spawn(self, n_children):
            asked.append(n_children)
            return super().spawn(n_children)

    monkeypatch.setattr(np.random, "SeedSequence", Recording)
    m = _golden_model()
    wide = run_fis(m, 5, seed=9, jobs=1000)
    assert asked == [5]
    narrow = run_fis(m, 5, seed=9, jobs=5)
    assert [_sample_fields(s) for s in wide.samples] == [
        _sample_fields(s) for s in narrow.samples
    ]
    assert wide.estimate.log_z_hat.hex() == narrow.estimate.log_z_hat.hex()


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
    with pytest.raises(ValueError, match="jobs must be positive"):
        run_fis(ok, 10, jobs=0)
    with pytest.raises(ValueError, match="n_samples must be positive"):
        run_vis(ok, 0)
    with pytest.raises(ValueError, match="step 0"):
        run_fis(ok, 10, proposal=lambda pos, values: float("nan"))
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
    # pins the SAT checks and the proposal at new tree nodes, for one seed
    # stream and for two streams on one tree.
    log_z_hat, digest = _QMR_PINS[jobs]
    m = gen_qmr(15, 15, 7, seed=8613)
    fis = run_fis(m, 200, seed=5, jobs=jobs)
    assert fis.estimate.log_z_hat == log_z_hat
    assert _digest([[list(s.h.values), s.qb.hex()] for s in fis.samples]) == digest


_MARGINAL_PINS = {
    "golden": "f171cb0370686c2eb531ff1293d94d4283cbfdcf87906313ff196a391450695e",
    "qmr-jobs1": "32eb32625181c79ada46d389a79b7f18e3c44fd38b0f4246ea471a734097a301",
    "qmr-jobs2": "0121c9fd627129803c7a610785b922f5063e154e5a3772314bdd408f1d1801ef",
}


@pytest.mark.parametrize("case", sorted(_MARGINAL_PINS))
def test_fis_marginals_are_pinned(case):
    # The draws of the two pins above, their marginal estimates bit for bit:
    # each leaf's search and the weighted average over the samples.
    if case == "golden":
        result = run_fis(_golden_model(), 300, seed=5)
    else:
        jobs = int(case[-1])
        result = run_fis(gen_qmr(15, 15, 7, seed=8613), 200, seed=5, jobs=jobs)
    got = hashlib.sha256(fis_marginals(result).tobytes()).hexdigest()
    assert got == _MARGINAL_PINS[case]


def test_fis_marginals_run_no_search(monkeypatch):
    # Each leaf's search returns its marginals with its count, and the
    # samples keep them, so the estimate needs no exact search of its own.
    result = run_fis(_golden_model(), 300, seed=5)

    def refuse(*args, **kwargs):
        raise AssertionError("fis_marginals searched")

    monkeypatch.setattr("propmrf.fdc._search", refuse)
    got = hashlib.sha256(fis_marginals(result).tobytes()).hexdigest()
    assert got == _MARGINAL_PINS["golden"]


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


def test_entailed_steps_call_no_extend(monkeypatch):
    # The hard unit forces 1, so steps 0 and 1 are true with no check; only
    # step 2 tests its two extensions, once, on the one tree each run builds.
    m = PropMRF.from_lists(3, hard=[[1]], soft=[(0.5, [1, 2]), (0.3, [1, -3]), (0.2, [2, 3])])
    calls = []

    def counting(state, extension):
        calls.append(extension)
        return _extend(state, extension)

    monkeypatch.setattr("propmrf.fis._extend", counting)
    expected = {(True, True, True), (True, True, False)}
    assert {s.h.values for s in run_fis(m, 20, seed=0).samples} == expected
    assert len(calls) == 2
    assert {s.h.values for s in enumerate_formula_assignments(m)} == expected
    assert len(calls) == 4


def test_an_entailed_clause_extends_to_the_same_state():
    # What the sampler's shortcut rests on: when a step's clause holds a
    # forced literal, its true extension returns the state itself, and its
    # false one, the negated literals in literal_key order, is refuted.
    rng = np.random.default_rng(8640)
    checked = 0
    for _ in range(300):
        n = int(rng.integers(2, 9))
        hard = [random_clause(rng, n) for _ in range(int(rng.integers(1, 9)))]
        propagated = unit_propagate(hard)
        if propagated is None or not is_satisfiable(propagated[2]):
            continue
        true, _, residual = propagated
        state = (true, residual)
        soft = [(0.5, random_clause(rng, n, 4)) for _ in range(6)]
        m = PropMRF.from_lists(n, soft=soft)
        for if_false, if_true in _step_extensions(m, range(len(soft))):
            if true.isdisjoint(if_true[0]):
                continue
            assert _extend(state, if_true) is state
            assert _extend(state, if_false) is None
            checked += 1
    assert checked > 100


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
    # by enumeration, weighted by the samples' importance weights.  Each
    # model runs in declaration order on one seed stream, and in reversed
    # order on two, which checks that the counting models follow h_order.
    rng = np.random.default_rng(8612)
    models = [_golden_model()] + [sampling_model(rng, max_vars=7, max_soft=5) for _ in range(6)]
    for (k, m), reverse in itertools.product(enumerate(models), (False, True)):
        h_order = list(reversed(range(len(m.soft)))) if reverse else None
        result = run_fis(m, 200, seed=k, h_order=h_order, jobs=2 if reverse else 1)
        log_w = np.array([s.log_estimate for s in result.samples])
        weights = np.exp(log_w - log_w.max())
        expected = np.zeros(m.num_vars)
        for sample, weight in zip(result.samples, weights):
            if weight == 0.0:
                continue
            hard = list(m.hard)
            for clause, value in zip(result.h_clauses, sample.h.values):
                hard += [clause] if value else [Clause([-l]) for l in clause]
            expected += weight * brute_force_marginals(PropMRF(m.num_vars, tuple(hard)))
        expected /= weights.sum()
        assert np.all(np.abs(fis_marginals(result) - expected) <= 1e-12)


def test_an_underflowed_draw_probability_keeps_its_log():
    # Drawn from the longest clause down, every true step forces the rest;
    # the all-false leaf takes 40 free false branches of about 1e-9 each, so
    # its qb underflows to 0 while its log stays finite.
    n = 40
    m = PropMRF.from_lists(n, soft=[(0.5, list(range(i, n + 1))) for i in range(1, n + 1)])
    samples = enumerate_formula_assignments(
        m, proposal=lambda pos, values: 1.0, h_order=list(reversed(range(n)))
    )
    assert len(samples) == n + 1
    (all_false,) = [s for s in samples if not any(s.h.values)]
    assert all_false.qb == 0.0
    p_false = 1.0 - (1.0 - 1e-9)
    assert all_false.log_estimate == pytest.approx(-n * math.log(p_false), rel=1e-12)
    for s in samples:
        if s.qb >= sys.float_info.min:
            assert s.log_estimate == s.log_count + s.log_soft_weight - math.log(s.qb)


def test_log_soft_weight_is_a_float_with_no_true_step():
    # The leaf where every step is false sums no weight; its field is still
    # a float, drawn or enumerated.
    m = PropMRF.from_lists(3, soft=[(0.5, [1, 2]), (-0.4, [-3])])
    drawn = run_fis(m, 200, seed=3).samples
    for samples in (enumerate_formula_assignments(m), drawn):
        assert any(not any(s.h.values) for s in samples)
        for s in samples:
            assert type(s.log_soft_weight) is float


def _sample_fields(s) -> list:
    return [
        list(s.h.values),
        *(float(x).hex() for x in (s.qb, s.log_count, s.log_soft_weight, s.log_qb)),
        s.marginals.tobytes().hex(),
    ]


def _sampler_cases() -> dict[str, PropMRF]:
    return {
        "hard": sampling_model(np.random.default_rng(8670), max_vars=7, max_soft=5),
        "golden": _golden_model(),
        "free": gen_random(10, 8, 3, seed=8621),
        "evidence": pick_evidence(gen_qmr(8, 8, 3, seed=8622), 0.25, seed=8622),
    }


def _values_proposal(pos: int, values: tuple[bool, ...]) -> float:
    assert isinstance(values, tuple) and len(values) == pos
    return (1 + pos + sum(values)) / (3 + 2 * pos)


def _run_digest(name: str, jobs: int, reverse: bool) -> str:
    custom = name == "custom"
    m = _sampler_cases()["hard" if custom else name]
    h_order = list(reversed(range(len(m.soft)))) if reverse else None
    proposal = _values_proposal if custom else None
    result = run_fis(m, 300, seed=7, h_order=h_order, jobs=jobs, proposal=proposal)
    return _digest(
        [
            [_sample_fields(s) for s in result.samples],
            fis_marginals(result).tobytes().hex(),
            result.estimate.log_z_hat.hex(),
        ]
    )


def _enumeration_digest(name: str) -> str:
    if name == "golden":
        samples = enumerate_formula_assignments(_golden_model())
    else:
        m = _sampler_cases()["hard"]
        samples = enumerate_formula_assignments(
            m, proposal=_values_proposal, h_order=list(reversed(range(len(m.soft))))
        )
    return _digest([_sample_fields(s) for s in samples])


# Digests of every sample field, the marginal estimate and log_z_hat, as the
# step-by-step walk of the sampler's tree gave them: keyed (model, jobs,
# reversed h_order), and per model for the enumeration.
_RUN_DIGESTS = {
    ("hard", 1, False): "408b3a3999ab98553b2605f4bba35aab5b10cc6863fe52200f47e9971506cf10",
    ("hard", 1, True): "c6df335f189a83eab18d6ef33ba85f2ef4181c58dcd055a4f44e370fce20be65",
    ("hard", 2, False): "ed4cc9e12f821d4f66ddb4767261a6ca69feaa21022f99776380bcd22ca7de81",
    ("hard", 2, True): "391b8eb3d6186c38e5b24cd4463bb801fafc538a58734b4365a2b54c56b5faf3",
    ("golden", 1, False): "aa87023771a475e11de9198a3651d07243944b7235e37a6551ad3764a9f1e1c5",
    ("golden", 1, True): "125d32443ba7b6bbbd624207baea691636e0efbc619ddbadde5e4c9f4d7d3cde",
    ("golden", 2, False): "2cf7c2bd08e1e98c9400ecbde7fb4a0ac04ff95fa73569e712b14a24a8d6f3a6",
    ("golden", 2, True): "1f5ccd8fd195ddb0e2de8fbb9de28d5e3940e287b4af594e7e56d23b7fc3aaff",
    ("free", 1, False): "119cc97200fd35191babd2e1eb9bdec45201741651a64c663230eb0cdea16c07",
    ("free", 1, True): "9f0e9b409f4abad3b9d0787bf56153efe31c3ef8656cf499e9be7160b8231274",
    ("free", 2, False): "801040aaa5ce1db1c168f69b09c85472cb77511f87f2d54ca85dfc8a9f8e76ee",
    ("free", 2, True): "d6ea9d02c95682026e52792cc0402b72e63d4d801c16246d7ccee7c5ca93b805",
    ("evidence", 1, False): "e2f629391d1598257da1dd84d29ab771a03fec9cf7a864087ddf6e92402d273f",
    ("evidence", 1, True): "9445f9dd36ed8b79b65905bd45278318f88c31ceff7ec1953ec0c6d01e020305",
    ("evidence", 2, False): "09fbb4a8163f6de5cd8fc18674fb35938c2c7d6d509f5dc37fab26f528577b7f",
    ("evidence", 2, True): "ceac0d9f578a83523b5dbec9f2fa43114a5d971aa8b983cfdcd3e828b7536ef9",
    ("custom", 1, False): "60b545fa9b5ef351b05e273f79312bb5acdd5f570354761e452e8b29bba28236",
    ("custom", 1, True): "67704b705c7bb7077031a9b89606684152d930d0cbee502d731182766be2488a",
}
_ENUMERATION_DIGESTS = {
    "golden": "aecea65b7898c65000cc3138404ae6f60c38e1a3e5e56a24cc892369b8daf24a",
    "hard": "d9ccc8dd3741945026feefcdad355ec4b2ebe870a7a70a4aaa483bf296ba5671",
}


def _fresh_tree_draws(m, n, seed, jobs, h_order, proposal) -> list:
    """run_fis's draws as independent chunks: n split as evenly as possible
    over jobs streams, the first ones one larger, each seeded by its spawn of
    seed (by seed itself for one stream) and drawn on a fresh tree with a
    fresh proposal."""
    if jobs == 1:
        chunks = [(n, seed)]
    else:
        seeds = np.random.SeedSequence(seed).spawn(jobs)
        chunks = [(n // jobs + (k < n % jobs), s) for k, s in enumerate(seeds)]
    samples = []
    for count, chunk_seed in chunks:
        order, node_proposal, _ = _formula_sampling(m, h_order, proposal, BpConfig())
        sampler = _FormulaSampler(m, order, node_proposal)
        uniforms = _uniforms(np.random.default_rng(chunk_seed))
        samples += [sampler.draw(uniforms) for _ in range(count)]
    return samples


@pytest.mark.parametrize("name", ["hard", "qmr", "evidence", "custom"])
def test_streams_on_one_tree_draw_as_on_fresh_trees(name):
    # The shared tree only caches: every stream draws, bit for bit, what
    # it draws alone on a fresh tree, and the samples come stream by stream.
    custom = name == "custom"
    if name == "qmr":
        m = gen_qmr(15, 15, 7, seed=8613)
    else:
        m = _sampler_cases()["hard" if custom else name]
    proposal = _values_proposal if custom else None
    for jobs, reverse in itertools.product((1, 2, 3, 4), (False, True)):
        h_order = list(reversed(range(len(m.soft)))) if reverse else None
        for n in (1, 5, 60):
            result = run_fis(m, n, seed=9, h_order=h_order, jobs=jobs, proposal=proposal)
            expected = _fresh_tree_draws(m, n, 9, jobs, h_order, proposal)
            got = [_sample_fields(s) for s in result.samples]
            assert got == [_sample_fields(s) for s in expected]
            log_z_hat = estimate_from_log_weights([s.log_estimate for s in expected]).log_z_hat
            assert result.estimate.log_z_hat.hex() == log_z_hat.hex()


@pytest.mark.parametrize("name, jobs, reverse", sorted(_RUN_DIGESTS))
def test_sampler_results_are_pinned(name, jobs, reverse):
    assert _run_digest(name, jobs, reverse) == _RUN_DIGESTS[name, jobs, reverse]


@pytest.mark.parametrize("name", sorted(_ENUMERATION_DIGESTS))
def test_enumeration_results_are_pinned(name):
    assert _enumeration_digest(name) == _ENUMERATION_DIGESTS[name]


def _models_with_hard_clauses() -> list[PropMRF]:
    rng = np.random.default_rng(8631)
    models = [_golden_model(), _sampler_cases()["evidence"]]
    while len(models) < 6:
        m = sampling_model(rng, max_vars=7, max_soft=5)
        if m.hard:
            models.append(m)
    return models


def test_memoized_proposals_equal_fresh_ones():
    # Every node of each tree asks the memoized proposal, and each answer,
    # hit or miss, equals formula_proposal asked afresh at that node.
    calls = misses = 0
    for m in _models_with_hard_clauses():
        order = tuple(reversed(range(len(m.soft))))
        marginals = run_bp(m)
        memoized = _BpProposal(marginals, order)

        def checked(pos, values, true):
            nonlocal calls
            calls += 1
            p = memoized(pos, values, true)
            assert p == formula_proposal(marginals, true, order[pos])
            return p

        _FormulaSampler(m, order, checked).enumerate()
        misses += len(memoized._memo)
    assert misses < calls


def test_qmr_proposal_runs_once_per_key(monkeypatch):
    # The qmr pin's draws ask formula_proposal once per (step, forced
    # literals of the step's clause), 26 times; unmemoized, the same draws
    # asked it 1 485 times.
    keys = []

    def counting(marginals, true, i):
        scope = marginals.soft_factor(i)[0]
        keys.append((i, frozenset(lit for lit in true if abs(lit) in scope)))
        return formula_proposal(marginals, true, i)

    monkeypatch.setattr("propmrf.fis.formula_proposal", counting)
    fis = run_fis(gen_qmr(15, 15, 7, seed=8613), 200, seed=5)
    assert fis.estimate.log_z_hat == _QMR_PINS[1][0]
    assert len(keys) == len(set(keys)) == 26


def test_empty_residual_leaves_match_the_search(monkeypatch):
    # A leaf with an empty residual writes down the log count and marginals
    # that fdc_marginals returns on its forced literals as unit clauses.
    # Among these leaves are ones with no free variable (qmr) and one where
    # every variable is free (no clauses at all).
    finish = _FormulaSampler._finish
    free_shares = []

    def compared(self, leaf, values, qb):
        true, residual = leaf.state
        sample = finish(self, leaf, values, qb)
        if not residual:
            num_vars = self.model.num_vars
            units = tuple(frozenset((lit,)) for lit in true)
            exact = fdc_marginals((num_vars, units, ()), mode=FORMULA)
            assert sample.log_count.hex() == exact.log_z.hex()
            assert sample.marginals.tobytes() == exact.marginals.tobytes()
            free_shares.append((num_vars - len(true)) / num_vars)
        return sample

    monkeypatch.setattr(_FormulaSampler, "_finish", compared)
    for m in (
        gen_qmr(6, 6, 3, seed=8632),
        _golden_model(),
        # 28 and 30 free variables: from 25 on, adding ln 2 one at a time
        # differs from a product in the last bit
        PropMRF.from_lists(30, soft=[(0.5, [1]), (0.3, [-2])]),
        PropMRF(30),
    ):
        enumerate_formula_assignments(m)
    # Drawn leaves of the size the fis_qmr benchmark samples.
    enumerated = len(free_shares)
    for seed in (8633, 8634, 8635):
        run_fis(gen_qmr(15, 15, 7, seed=seed), 400, seed=seed)
    assert len(free_shares) - enumerated > 1000
    assert min(free_shares) == 0.0 and max(free_shares) == 1.0
