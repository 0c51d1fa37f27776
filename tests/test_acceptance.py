"""End-to-end acceptance checks for the whole engine.

Each test prints one ACCEPTANCE line (PASS or FAIL with a short measurement)
so a full run doubles as a conformance report.  The checks pin down:

  1.  agreement of every exact-counting configuration with brute force
  2.  the calibrated search-space sizes on the worked nine-variable model
  3.  formula branching never needing more leaves than variable branching
  4.  the conditioning and component-decomposition identities
  5.  partition-function invariance of the simplifier
  6.  exact unbiasedness of both importance samplers
  7.  the variance ordering between formula and variable importance sampling
  8.  backtrack-freeness of formula sampling under hard constraints
  9.  statistical accuracy and confidence-interval coverage at scale
  10. marginal quality ordering of the two samplers on wide-clause models
  11. exact integer model counts on hard-only instances
"""

import math
import statistics
import time
from itertools import product

import numpy as np
import pytest

from propmrf import (
    FORMULA,
    VARIABLE,
    Clause,
    PropMRF,
    SoftClause,
    brute_force_marginals,
    brute_force_z,
    enumerate_formula_assignments,
    exact_marginals,
    fdc_count,
    fis_marginals,
    gen_fs,
    gen_qmr,
    gen_random,
    is_satisfiable,
    minimal_search_space,
    pick_evidence,
    run_fis,
    run_vis,
    sum_kld,
    u_from_q,
    ve_count,
    vis_log_weights,
    vis_marginals,
)
from propmrf.fdc import condition_on_clause
from propmrf.graph import connected_components
from propmrf.simplify import simplify

from conftest import calibration_model, random_mixed_model


def _report(capsys, num: int, ok: bool, detail: str) -> None:
    with capsys.disabled():
        print(f"ACCEPTANCE {num}: {'PASS' if ok else 'FAIL'} - {detail}")


def _all_assignments(n: int) -> np.ndarray:
    codes = np.arange(1 << n, dtype=np.uint64)
    return np.array(
        [(codes >> np.uint64(v)) & np.uint64(1) for v in range(n)], dtype=bool
    ).T


def _product_proposal_mass(assignments: np.ndarray, q: np.ndarray) -> np.ndarray:
    return np.exp(
        assignments @ np.log(q) + (~assignments) @ np.log1p(-q)
    )


def test_criterion_01_exact_engines_agree(capsys):
    started = time.perf_counter()
    rng = np.random.default_rng(101)
    instances = []
    for _ in range(200):
        n = int(rng.integers(5, 13))
        m_count = int(rng.integers(4, 15))
        s = int(rng.choice([2, 3, 5]))
        instances.append(gen_random(n, m_count, s, seed=int(rng.integers(2**31))))
    for _ in range(50):
        d = int(rng.integers(3, 11))
        f = int(rng.integers(2, 9))
        s = int(rng.integers(2, min(5, d) + 1))
        instances.append(gen_qmr(d, f, s, seed=int(rng.integers(2**31))))
    for k in (1, 2, 3):
        instances.append(gen_fs(k, seed=int(rng.integers(2**31))))

    configs = list(product((FORMULA, VARIABLE), (True, False), (0, 16)))
    worst = 0.0
    for m in instances:
        reference = brute_force_z(m)
        values = [ve_count(m, max_width=24)]
        for mode, cache, threshold in configs:
            values.append(
                fdc_count(
                    m, mode=mode, use_cache=cache, ve_width_threshold=threshold
                ).log_z
            )
        worst = max(worst, max(abs(v - reference) for v in values))
    elapsed = time.perf_counter() - started
    ok = worst <= 1e-9 and elapsed < 120.0
    _report(
        capsys, 1, ok,
        f"max |dlogZ| {worst:.2e} over {len(instances)} instances x "
        f"{len(configs) + 1} engine configs in {elapsed:.1f}s",
    )
    assert worst <= 1e-9
    assert elapsed < 120.0


def test_criterion_02_calibrated_search_space(capsys):
    m = calibration_model()
    formula = minimal_search_space(m, mode=FORMULA)
    variable = minimal_search_space(m, mode=VARIABLE)
    ok = formula.leaves == 7 and variable.leaves == 12
    _report(
        capsys, 2, ok,
        f"minimal leaves formula {formula.leaves} (want 7), "
        f"variable {variable.leaves} (want 12)",
    )
    assert formula.leaves == 7
    assert variable.leaves == 12


def test_criterion_03_formula_leaf_bound(capsys):
    rng = np.random.default_rng(303)
    strict = 0
    checked = 0
    while checked < 30:
        m = random_mixed_model(rng, max_vars=8, max_hard=1, max_soft=4)
        if m.num_clauses > 5 or m.num_clauses == 0:
            continue
        checked += 1
        formula = minimal_search_space(m, mode=FORMULA).leaves
        variable = minimal_search_space(m, mode=VARIABLE).leaves
        assert formula <= variable
        if formula < variable:
            strict += 1
    ok = strict >= 1
    _report(
        capsys, 3, ok,
        f"formula leaves <= variable leaves on 30/30 instances, "
        f"strictly fewer on {strict}",
    )
    assert strict >= 1


def _shift_clause(clause: Clause, offset: int) -> Clause:
    return Clause(
        [lit + offset if lit > 0 else lit - offset for lit in clause]
    )


def _block_model(rng) -> PropMRF:
    """Two independent clause blocks plus one variable in no clause."""
    left = gen_random(
        int(rng.integers(2, 5)), int(rng.integers(2, 4)), 2,
        seed=int(rng.integers(2**31)),
    )
    right = gen_random(
        int(rng.integers(2, 5)), int(rng.integers(2, 4)), 2,
        seed=int(rng.integers(2**31)),
    )
    soft = left.soft + tuple(
        SoftClause(_shift_clause(sc.clause, left.num_vars), sc.weight)
        for sc in right.soft
    )
    return PropMRF(
        num_vars=left.num_vars + right.num_vars + 1, hard=(), soft=soft
    )


def test_criterion_04_conditioning_and_decomposition(capsys):
    rng = np.random.default_rng(404)
    worst_split = 0.0
    worst_product = 0.0
    multi_component = 0
    for i in range(100):
        if i % 2 == 0:
            m = gen_random(
                int(rng.integers(4, 11)), int(rng.integers(3, 9)),
                int(rng.integers(2, 4)), seed=int(rng.integers(2**31)),
            )
        else:
            m = _block_model(rng)

        z_m = math.exp(brute_force_z(m))
        size = int(rng.integers(2, 4))
        variables = rng.choice(m.num_vars, size=size, replace=False) + 1
        signs = rng.random(size) < 0.5
        r = frozenset(
            [int(v) if s else -int(v) for v, s in zip(variables, signs)]
        )
        with_r, without_r = condition_on_clause(m, r)
        z_split = math.exp(brute_force_z(PropMRF(*with_r))) + math.exp(
            brute_force_z(PropMRF(*without_r))
        )
        worst_split = max(worst_split, abs(z_split - z_m) / z_m)

        components = connected_components(m)
        if len(components) > 1:
            multi_component += 1
        free = m.num_vars - len(m.occurring_variables())
        z_product = 2.0**free
        for component in components:
            z_product *= math.exp(brute_force_z(PropMRF(*component.model)))
        worst_product = max(worst_product, abs(z_product - z_m) / z_m)
    ok = worst_split <= 1e-12 and worst_product <= 1e-12 and multi_component > 0
    _report(
        capsys, 4, ok,
        f"conditioning split rel err {worst_split:.2e}, component product "
        f"rel err {worst_product:.2e} ({multi_component} multi-component)",
    )
    assert worst_split <= 1e-12
    assert worst_product <= 1e-12
    assert multi_component > 0


def test_criterion_05_simplification_invariance(capsys):
    rng = np.random.default_rng(505)
    worst = 0.0
    zeros = 0
    for _ in range(200):
        m = random_mixed_model(rng, max_vars=7, max_hard=3, max_soft=5)
        z_original = math.exp(brute_force_z(m))
        outcome = simplify(m)
        if outcome.log_weight == -math.inf:
            zeros += 1
            assert z_original == 0.0
            continue
        z_reduced = math.exp(brute_force_z(PropMRF(*outcome.model)))
        recovered = math.exp(outcome.log_weight) * z_reduced
        worst = max(worst, abs(recovered - z_original) / z_original)
    ok = worst <= 1e-12
    _report(
        capsys, 5, ok,
        f"max rel err of weight * Z(reduced) vs Z(original) {worst:.2e} "
        f"over 200 instances ({zeros} detected unsatisfiable)",
    )
    assert worst <= 1e-12


def _sampling_instance(rng, max_vars: int = 8) -> PropMRF:
    while True:
        n = int(rng.integers(4, max_vars + 1))
        m = gen_random(
            n, int(rng.integers(3, 7)), int(rng.integers(2, 4)),
            seed=int(rng.integers(2**31)),
        )
        if rng.random() < 0.4:
            m = pick_evidence(m, 0.15, seed=int(rng.integers(2**31)))
        if m.soft and is_satisfiable(m.hard):
            return m


def test_criterion_06_estimator_unbiasedness(capsys):
    rng = np.random.default_rng(606)
    worst_fis = 0.0
    worst_vis = 0.0
    for _ in range(20):
        m = _sampling_instance(rng)
        z = math.exp(brute_force_z(m))

        samples = enumerate_formula_assignments(m)
        total_q = sum(s.qb for s in samples)
        assert abs(total_q - 1.0) <= 1e-9
        z_fis = sum(s.qb * math.exp(s.log_estimate) for s in samples)
        worst_fis = max(worst_fis, abs(z_fis - z) / z)

        q = rng.uniform(0.2, 0.8, m.num_vars)
        rows = _all_assignments(m.num_vars)
        mass = _product_proposal_mass(rows, q)
        weights = np.exp(vis_log_weights(m, rows, q))
        z_vis = float(np.sum(mass * weights))
        worst_vis = max(worst_vis, abs(z_vis - z) / z)
    ok = worst_fis <= 1e-9 and worst_vis <= 1e-9
    _report(
        capsys, 6, ok,
        f"enumerated estimator expectation vs Z: formula rel err "
        f"{worst_fis:.2e}, variable rel err {worst_vis:.2e} on 20 instances",
    )
    assert worst_fis <= 1e-9
    assert worst_vis <= 1e-9


def test_criterion_07_variance_ordering(capsys):
    rng = np.random.default_rng(707)
    violations = 0
    widest_gap = -math.inf
    for _ in range(25):
        m = _sampling_instance(rng)
        q = rng.uniform(0.15, 0.85, m.num_vars)

        rows = _all_assignments(m.num_vars)
        mass = _product_proposal_mass(rows, q)
        weights = np.exp(vis_log_weights(m, rows, q))
        mean_vis = float(np.sum(mass * weights))
        var_vis = float(np.sum(mass * weights**2)) - mean_vis**2

        u = u_from_q(m, q)
        samples = enumerate_formula_assignments(m, proposal=u.conditional)
        mean_fis = sum(s.qb * math.exp(s.log_estimate) for s in samples)
        var_fis = (
            sum(s.qb * math.exp(s.log_estimate) ** 2 for s in samples)
            - mean_fis**2
        )

        assert mean_fis == pytest.approx(mean_vis, rel=1e-9)
        if var_fis > var_vis * (1.0 + 1e-9) + 1e-9:
            violations += 1
        if var_vis > 0.0:
            widest_gap = max(widest_gap, var_fis / var_vis)
    ok = violations == 0
    _report(
        capsys, 7, ok,
        f"Var(formula sampler under pushed-forward proposal) <= "
        f"Var(variable sampler) on 25/25 instances "
        f"(largest variance ratio {widest_gap:.3f}, {violations} violations)",
    )
    assert violations == 0


def test_criterion_08_backtrack_freeness(capsys):
    rng = np.random.default_rng(808)
    total = 0
    zero_count_samples = 0
    for i in range(10):
        while True:
            m = gen_random(12, 8, 3, seed=int(rng.integers(2**31)))
            m = pick_evidence(m, 0.2, seed=int(rng.integers(2**31)))
            variables = rng.choice(12, size=3, replace=False) + 1
            signs = rng.random(3) < 0.5
            extra = Clause(
                [int(v) if s else -int(v) for v, s in zip(variables, signs)]
            )
            m = PropMRF(m.num_vars, m.hard + (extra,), m.soft)
            if is_satisfiable(m.hard):
                break
        result = run_fis(m, 1000, seed=i)
        for sample in result.samples:
            total += 1
            if sample.log_count == -math.inf:
                zero_count_samples += 1
            assert sample.qb > 0.0
    ok = zero_count_samples == 0 and total == 10_000
    _report(
        capsys, 8, ok,
        f"{total} formula samples across 10 hard-constrained instances, "
        f"{zero_count_samples} with model count zero",
    )
    assert total == 10_000
    assert zero_count_samples == 0


def test_criterion_09_statistical_accuracy(capsys):
    started = time.perf_counter()
    m = pick_evidence(gen_random(20, 20, 5, seed=901), 0.05, seed=901)
    z = math.exp(brute_force_z(m))
    worst_rel = 0.0
    covered = 0
    runs = 40
    for seed in range(runs):
        estimate = run_fis(m, 20_000, seed=seed).estimate
        rel = abs(estimate.z_hat - z) / z
        worst_rel = max(worst_rel, rel)
        if abs(estimate.z_hat - z) <= 4.0 * estimate.std_error:
            covered += 1
    elapsed = time.perf_counter() - started
    ok = worst_rel <= 0.05 and covered >= 38 and elapsed < 300.0
    _report(
        capsys, 9, ok,
        f"worst |Zhat - Z|/Z {worst_rel:.4f} (limit 0.05), 4*SE coverage "
        f"{covered}/{runs} (need >= 38) in {elapsed:.1f}s",
    )
    assert worst_rel <= 0.05
    assert covered >= 38
    assert elapsed < 300.0


def test_criterion_10_marginal_quality_ordering(capsys):
    started = time.perf_counter()
    outcomes = []
    cases = [
        ("random n=20 s=7", gen_random(20, 20, 7, seed=1001), None),
        ("two-layer d=15 f=15 s=7", gen_qmr(15, 15, 7, seed=1002), None),
    ]
    for name, m, _ in cases:
        if m.num_vars <= 24:
            exact = brute_force_marginals(m)
        else:
            exact = exact_marginals(m)
        fis_scores = []
        vis_scores = []
        for seed in range(10):
            fis = fis_marginals(run_fis(m, 10_000, seed=seed))
            fis_scores.append(sum_kld(exact, fis))
            vis = vis_marginals(run_vis(m, 10_000, seed=seed))
            vis_scores.append(sum_kld(exact, vis))
        outcomes.append(
            (name, statistics.median(fis_scores), statistics.median(vis_scores))
        )
    elapsed = time.perf_counter() - started
    ok = all(med_fis <= med_vis for _, med_fis, med_vis in outcomes)
    detail = ", ".join(
        f"{name}: median sum-KLD formula {med_fis:.4f} vs variable "
        f"{med_vis:.4f}" for name, med_fis, med_vis in outcomes
    )
    _report(capsys, 10, ok, f"{detail} ({elapsed:.1f}s)")
    for name, med_fis, med_vis in outcomes:
        assert med_fis <= med_vis, name


def test_criterion_11_integer_model_counts(capsys):
    rng = np.random.default_rng(1111)
    worst_gap = 0.0
    unsatisfiable = 0
    for _ in range(50):
        n = int(rng.integers(4, 13))
        clauses = []
        for _ in range(int(rng.integers(3, 9))):
            size = int(rng.integers(1, 4))
            variables = rng.choice(n, size=size, replace=False) + 1
            signs = rng.random(size) < 0.5
            clauses.append(
                [int(v) if s else -int(v) for v, s in zip(variables, signs)]
            )
        m = PropMRF.from_lists(n, hard=clauses)

        rows = _all_assignments(n)
        valid = np.ones(rows.shape[0], dtype=bool)
        for clause in m.hard:
            sat = np.zeros(rows.shape[0], dtype=bool)
            for lit in clause:
                col = rows[:, abs(lit) - 1]
                sat |= col if lit > 0 else ~col
            valid &= sat
        exact_count = int(np.sum(valid))
        if exact_count == 0:
            unsatisfiable += 1

        counted = math.exp(fdc_count(m).log_z)
        assert round(counted) == exact_count
        if exact_count > 0:
            worst_gap = max(worst_gap, abs(counted - exact_count) / exact_count)
    ok = True
    _report(
        capsys, 11, ok,
        f"rounded exp(log Z) matched the model count on 50/50 hard-only "
        f"instances ({unsatisfiable} unsatisfiable, worst pre-rounding "
        f"rel gap {worst_gap:.2e})",
    )
