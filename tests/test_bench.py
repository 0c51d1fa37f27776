import math

import numpy as np
import pytest

from propmrf import (
    Clause,
    EnumerationTooLargeError,
    GenSpec,
    PropMRF,
    SoftClause,
    brute_force_marginals,
    brute_force_z,
    gen_fs,
    gen_qmr,
    gen_random,
    generate,
    pick_evidence,
    sum_kld,
)

from conftest import naive_log_z, naive_marginals, random_mixed_model


def test_brute_force_z_matches_naive_reference():
    rng = np.random.default_rng(8701)
    for _ in range(200):
        m = random_mixed_model(rng, max_vars=6, max_hard=3, max_soft=4)
        expected = naive_log_z(m)
        got = brute_force_z(m)
        if expected == -math.inf:
            assert got == -math.inf
        else:
            assert got == pytest.approx(expected, abs=1e-11)


def test_naive_references_hold_at_extreme_weights():
    # Weights of +-1e3 put exp(weight) outside float range; the references
    # must still agree with the vectorized oracle.
    rng = np.random.default_rng(8703)
    checked = 0
    for _ in range(60):
        m = random_mixed_model(rng, max_vars=6, max_hard=2, max_soft=5)
        soft = tuple(
            SoftClause(sc.clause, float(rng.choice([-1e3, 1e3])) + sc.weight)
            for sc in m.soft
        )
        m = PropMRF(m.num_vars, m.hard, soft)
        expected = brute_force_z(m)
        got = naive_log_z(m)
        if expected == -math.inf:
            assert got == -math.inf
            continue
        assert abs(got - expected) <= 1e-12
        assert np.max(np.abs(naive_marginals(m) - brute_force_marginals(m))) <= 1e-12
        checked += 1
    assert checked > 40


def test_brute_force_z_crosses_chunk_boundaries():
    # 17 variables forces more than one 2^16 chunk
    m = PropMRF.from_lists(17, soft=[(0.25, [1, 17])])
    expected = math.log(
        (2**17 - 2**15) * math.exp(0.25) + 2**15
    )
    assert brute_force_z(m) == pytest.approx(expected, rel=1e-12)


def test_brute_force_size_guard():
    with pytest.raises(EnumerationTooLargeError):
        brute_force_z(PropMRF(25))
    with pytest.raises(EnumerationTooLargeError):
        brute_force_marginals(PropMRF(25))


def test_brute_force_marginals_match_naive():
    rng = np.random.default_rng(8702)
    for _ in range(60):
        m = random_mixed_model(rng, max_vars=6, max_hard=2, max_soft=4)
        if naive_log_z(m) == -math.inf:
            continue
        assert np.max(
            np.abs(brute_force_marginals(m) - naive_marginals(m))
        ) < 1e-10


def test_brute_force_marginals_reject_unsatisfiable_models():
    with pytest.raises(ValueError):
        brute_force_marginals(PropMRF.from_lists(1, hard=[[1], [-1]]))


def test_gen_random_shape_and_determinism():
    m = gen_random(10, 7, 3, seed=42)
    assert m.num_vars == 10
    assert len(m.hard) == 0
    assert len(m.soft) == 7
    for sc in m.soft:
        assert len(sc.clause) == 3
        assert -1.0 <= sc.weight <= 1.0
    assert m == gen_random(10, 7, 3, seed=42)
    assert m != gen_random(10, 7, 3, seed=43)
    narrow = gen_random(5, 3, 2, seed=1, weight_low=2.0, weight_high=3.0)
    assert all(2.0 <= sc.weight <= 3.0 for sc in narrow.soft)


def test_gen_random_validation():
    with pytest.raises(ValueError):
        gen_random(0, 1, 1)
    with pytest.raises(ValueError):
        gen_random(3, 1, 4)
    with pytest.raises(ValueError):
        gen_random(3, -1, 2)


def test_gen_qmr_structure():
    d, f, s = 6, 4, 3
    m = gen_qmr(d, f, s, seed=7)
    assert m.num_vars == d + f
    assert len(m.soft) == d + f
    for disease in range(d):
        assert m.soft[disease].clause == Clause([disease + 1])
    for j in range(f):
        clause = m.soft[d + j].clause
        assert len(clause) == s + 1
        lits = clause.sorted_literals()
        assert all(l > 0 for l in lits)
        assert lits[-1] == d + j + 1
        assert all(1 <= l <= d for l in lits[:-1])
    with pytest.raises(ValueError):
        gen_qmr(3, 2, 4)


def test_gen_fs_structure():
    m = gen_fs(2, seed=11)
    assert m.num_vars == 2 * 2 + 2 * 2
    # two ordered friendships (1,2) and (2,1) plus two cancer rules
    assert len(m.soft) == 4
    friend_weights = {sc.weight for sc in m.soft[:2]}
    cancer_weights = {sc.weight for sc in m.soft[2:]}
    assert len(friend_weights) == 1
    assert len(cancer_weights) == 1
    # smokes(1)=1, smokes(2)=2, cancer(1)=3, friends(1,2)=2k+(a-1)k+b=8? no:
    # friends(1,2) = 4 + 0 + 2 = 6 and friends(2,1) = 4 + 2 + 1 = 7
    assert m.soft[0].clause == Clause([-6, -1, 2])
    assert m.soft[1].clause == Clause([-7, -2, 1])
    assert m.soft[2].clause == Clause([-1, 3])
    assert m.soft[3].clause == Clause([-2, 4])

    one = gen_fs(1, seed=11)
    assert one.num_vars == 3
    assert len(one.soft) == 1  # no distinct pairs; only the cancer rule

    three = gen_fs(3, seed=11)
    assert len(three.soft) == 3 * 3 - 3 + 3

    with pytest.raises(ValueError):
        gen_fs(0)


def test_pick_evidence_counts_and_determinism():
    m = gen_random(10, 5, 3, seed=1)
    with_evidence = pick_evidence(m, 0.25, seed=2)
    assert len(with_evidence.hard) == math.ceil(0.25 * 10)
    assert with_evidence.soft == m.soft
    for clause in with_evidence.hard:
        assert len(clause) == 1
    fixed = [abs(next(iter(c.literals))) for c in with_evidence.hard]
    assert fixed == sorted(fixed)
    assert len(set(fixed)) == len(fixed)
    assert pick_evidence(m, 0.25, seed=2) == with_evidence
    assert pick_evidence(m, 0.0, seed=2) == m
    assert len(pick_evidence(m, 1.0, seed=2).hard) == 10
    with pytest.raises(ValueError):
        pick_evidence(m, 1.5)


def test_pick_evidence_appends_to_existing_hard_clauses():
    m = PropMRF.from_lists(4, hard=[[1, 2]], soft=[(0.5, [3, 4])])
    out = pick_evidence(m, 0.5, seed=3)
    assert out.hard[0] == Clause([1, 2])
    assert len(out.hard) == 3


def test_sum_kld_properties():
    interior = np.array([0.2, 0.7, 0.45])
    assert sum_kld(interior, interior.copy()) == 0.0
    p = np.array([0.2, 0.7, 0.0, 1.0])
    q = np.array([0.25, 0.6, 0.05, 0.9])
    expected = 0.0
    for pv, qv in zip(p, q):
        if pv > 0.0:
            expected += pv * math.log(pv / qv)
        if pv < 1.0:
            expected += (1 - pv) * math.log((1 - pv) / (1 - qv))
    assert sum_kld(p, q) == pytest.approx(expected, rel=1e-12)
    # estimated values of exactly 0 or 1 are clamped, not infinite
    assert math.isfinite(sum_kld(np.array([0.5]), np.array([0.0])))
    with pytest.raises(ValueError):
        sum_kld(np.array([0.5]), np.array([0.5, 0.5]))
    with pytest.raises(ValueError):
        sum_kld(np.array([1.5]), np.array([0.5]))


def test_generate_dispatcher():
    spec = GenSpec(family="random", params={"n": 6, "m": 4, "s": 2}, seed=5)
    assert generate(spec) == gen_random(6, 4, 2, seed=5)
    spec = GenSpec(family="qmr", params={"d": 4, "f": 3, "s": 2}, seed=5)
    assert generate(spec) == gen_qmr(4, 3, 2, seed=5)
    spec = GenSpec(family="fs", params={"k": 2}, seed=5)
    assert generate(spec) == gen_fs(2, seed=5)
    spec = GenSpec(
        family="random",
        params={"n": 6, "m": 4, "s": 2},
        seed=5,
        evidence_fraction=0.5,
    )
    assert generate(spec) == pick_evidence(gen_random(6, 4, 2, seed=5), 0.5, seed=5)
    with pytest.raises(ValueError):
        generate(GenSpec(family="grid", params={}))
