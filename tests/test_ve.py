import math

import numpy as np
import pytest

from propmrf import Clause, PropMRF, VeWidthError, ve_count
from propmrf.ve import (
    Factor,
    bucket_elimination,
    bucket_tree,
    clause_to_factor,
    clauses_to_factors,
)

from conftest import naive_log_z, random_mixed_model


def test_clause_to_factor_tables():
    f = clause_to_factor(Clause([1, -2]), 0.0, -math.inf)
    assert f.scope == (1, 2)
    # rows indexed [x1][x2]; the clause fails only at x1=0, x2=1
    assert f.table[0, 0] == 0.0
    assert f.table[0, 1] == -math.inf
    assert f.table[1, 0] == 0.0
    assert f.table[1, 1] == 0.0

    g = clause_to_factor(Clause([2]), 0.7, 0.0)
    assert g.scope == (2,)
    assert g.table[0] == 0.0
    assert g.table[1] == 0.7


def test_ve_count_matches_enumeration():
    rng = np.random.default_rng(8301)
    for _ in range(150):
        m = random_mixed_model(rng, max_vars=7, max_hard=3, max_soft=5)
        expected = naive_log_z(m)
        got = ve_count(m)
        if expected == -math.inf:
            assert got == -math.inf
        else:
            assert got == pytest.approx(expected, abs=1e-9)


def test_ve_count_counts_free_variables():
    m = PropMRF.from_lists(5, soft=[(0.0, [1, 2])])
    assert ve_count(m) == pytest.approx(5 * math.log(2.0), abs=1e-12)
    assert ve_count(PropMRF(3)) == pytest.approx(3 * math.log(2.0), abs=1e-12)


def test_ve_count_accepts_explicit_order():
    m = PropMRF.from_lists(4, hard=[[1, 2]], soft=[(0.5, [2, 3]), (-0.1, [3, 4])])
    default = ve_count(m)
    for order in ([1, 2, 3, 4], [4, 3, 2, 1], [2, 4, 1, 3]):
        assert ve_count(m, order=order) == pytest.approx(default, abs=1e-12)


def test_order_must_cover_factor_scopes():
    m = PropMRF.from_lists(3, hard=[[1, 2], [2, 3]])
    with pytest.raises(ValueError):
        ve_count(m, order=[1, 2])


def test_width_bound_enforced():
    clique = PropMRF.from_lists(6, hard=[[1, 2, 3, 4, 5, 6]])
    with pytest.raises(VeWidthError) as err:
        ve_count(clique, max_width=5)
    assert err.value.width == 6
    assert err.value.bound == 5
    # generous bound succeeds
    assert math.exp(ve_count(clique, max_width=6)) == pytest.approx(63.0, rel=1e-12)


def test_hard_only_counts_are_integers():
    rng = np.random.default_rng(8302)
    for _ in range(60):
        m = random_mixed_model(rng, max_vars=6, max_hard=4, max_soft=0)
        log_z = ve_count(m)
        if log_z == -math.inf:
            assert naive_log_z(m) == -math.inf
            continue
        count = math.exp(log_z)
        assert abs(count - round(count)) < 1e-6
        assert round(count) == round(math.exp(naive_log_z(m)))


def test_bucket_elimination_empty_inputs():
    assert bucket_elimination([], []) == 0.0
    assert bucket_elimination([], [1, 2]) == pytest.approx(
        2 * math.log(2.0), abs=1e-12
    )


def test_clauses_to_factors_rejects_wide_clause():
    m = PropMRF.from_lists(4, hard=[[1, 2, 3, 4]])
    with pytest.raises(VeWidthError):
        clauses_to_factors(m, max_width=3)


def _random_factors(rng: np.random.Generator, n: int) -> list[Factor]:
    """Random log tables over random scopes; about a third of the entries
    are -inf, as hard clauses make them."""
    factors = []
    for _ in range(int(rng.integers(0, 7))):
        size = int(rng.integers(0, min(3, n) + 1))
        scope = tuple(sorted(int(v) for v in rng.choice(n, size=size, replace=False) + 1))
        table = rng.normal(size=(2,) * size)
        table[rng.random(table.shape) < 0.3] = -math.inf
        factors.append(Factor(scope, np.asarray(table)))
    return factors


def _enumerate(factors: list[Factor], n: int) -> tuple[float, np.ndarray]:
    """log Z and the true-state marginals from the full joint table."""
    joint = np.zeros((2,) * n)
    for f in factors:
        shape = [2 if v in f.scope else 1 for v in range(1, n + 1)]
        joint = joint + np.reshape(f.table, shape)
    log_z = float(np.logaddexp.reduce(joint.ravel())) if n else float(joint)
    if log_z == -math.inf:
        return log_z, np.full(n, np.nan)
    prob = np.exp(joint - log_z)
    marginals = np.array(
        [prob.sum(axis=tuple(a for a in range(n) if a != v))[1] for v in range(n)]
    )
    return log_z, marginals


@pytest.mark.filterwarnings("error::RuntimeWarning")
def test_bucket_tree_matches_enumeration_with_infinite_entries():
    rng = np.random.default_rng(8303)
    zero = 0
    for _ in range(400):
        n = int(rng.integers(0, 7))
        factors = _random_factors(rng, n) if n else []
        order = [int(v) for v in rng.permutation(n) + 1]
        expected_z, expected = _enumerate(factors, n)
        log_z, marginals = bucket_tree(factors, order)
        assert log_z == pytest.approx(bucket_elimination(factors, order), abs=1e-12)
        if expected_z == -math.inf:
            assert log_z == -math.inf and marginals is None
            zero += 1
            continue
        assert log_z == pytest.approx(expected_z, abs=1e-12)
        in_variable_order = np.empty(n)
        in_variable_order[np.array(order, dtype=int) - 1] = marginals
        assert np.all(np.abs(in_variable_order - expected) <= 1e-12)
    assert zero > 0
