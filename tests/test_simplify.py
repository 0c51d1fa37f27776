import math

import numpy as np
import pytest

from propmrf import Clause, PropMRF
from propmrf.model import from_bare, to_bare
from propmrf.simplify import SimplifyStatus, simplify

from conftest import naive_log_z, random_mixed_model

LN2 = math.log(2.0)


def test_conflicting_units_give_zero():
    m = PropMRF.from_lists(2, hard=[[1], [-1]], soft=[(0.5, [2])])
    out = simplify(to_bare(m))
    assert out.status is SimplifyStatus.ZERO
    assert out.log_weight == -math.inf


def test_fully_resolved_model_gives_scalar():
    m = PropMRF.from_lists(2, hard=[[1]], soft=[(0.7, [1, 2])])
    out = simplify(to_bare(m))
    assert out.status is SimplifyStatus.SCALAR
    # the unit makes the soft clause satisfied; variable 2 becomes free
    assert out.log_weight == pytest.approx(0.7 + LN2, abs=1e-15)
    assert out.model[1:] == ((), ())


def test_satisfied_soft_weight_extracted_by_propagation():
    m = PropMRF.from_lists(3, hard=[[2]], soft=[(1.3, [2, 3]), (0.2, [1, 3])])
    out = simplify(to_bare(m))
    assert out.status is SimplifyStatus.OPEN
    assert out.log_weight == pytest.approx(1.3, abs=1e-15)
    # remaining model: soft (1, 3) renumbered over {1, 3} -> {1, 2}
    assert out.model == to_bare(PropMRF.from_lists(2, soft=[(0.2, [1, 2])]))


def test_falsified_soft_clause_dropped_without_weight():
    m = PropMRF.from_lists(2, hard=[[-1]], soft=[(5.0, [1]), (0.4, [1, 2])])
    out = simplify(to_bare(m))
    # soft (1) is falsified outright; soft (1, 2) shrinks to (2)
    assert out.status is SimplifyStatus.OPEN
    assert out.log_weight == pytest.approx(0.0, abs=1e-15)
    assert out.model == to_bare(PropMRF.from_lists(1, soft=[(0.4, [1])]))


def test_hard_clause_entails_equal_soft_clause():
    m = PropMRF.from_lists(3, hard=[[1, 2]], soft=[(0.9, [1, 2]), (0.1, [3])])
    out = simplify(to_bare(m))
    # every solution satisfies hard (1, 2), so the matching soft clause is
    # certainly satisfied and its weight moves out front
    assert out.log_weight == pytest.approx(0.9, abs=1e-15)
    weights = [w for _, w in out.model[2]]
    assert weights == [0.1]


def test_hard_clause_entails_wider_soft_clause():
    m = PropMRF.from_lists(3, hard=[[1, 2]], soft=[(0.9, [1, 2, 3])])
    out = simplify(to_bare(m))
    assert out.log_weight == pytest.approx(0.9 + LN2, abs=1e-15)
    assert out.model == to_bare(PropMRF.from_lists(2, hard=[[1, 2]]))


def test_hard_subsumption_keeps_subset_clause():
    m = PropMRF.from_lists(3, hard=[[1, 2, 3], [1, 2]])
    out = simplify(to_bare(m))
    assert out.model[1] == (frozenset({1, 2}),)
    assert out.log_weight == pytest.approx(LN2, abs=1e-15)  # variable 3 freed


def test_free_variable_sweep():
    m = PropMRF.from_lists(5, soft=[(0.3, [1, 2])])
    out = simplify(to_bare(m))
    assert out.status is SimplifyStatus.OPEN
    assert out.log_weight == pytest.approx(3 * LN2, abs=1e-15)
    assert out.model[0] == 2


def test_empty_model_is_scalar_of_free_variables():
    out = simplify(to_bare(PropMRF(4)))
    assert out.status is SimplifyStatus.SCALAR
    assert out.log_weight == pytest.approx(4 * LN2, abs=1e-15)


def test_empty_hard_clause_gives_zero():
    out = simplify(to_bare(PropMRF(1, (Clause([]),), ())))
    assert out.status is SimplifyStatus.ZERO


def test_simplify_is_idempotent():
    rng = np.random.default_rng(8101)
    for _ in range(100):
        out = simplify(to_bare(random_mixed_model(rng)))
        if out.status is not SimplifyStatus.OPEN:
            continue
        again = simplify(out.model)
        assert again.status is SimplifyStatus.OPEN
        assert again.log_weight == 0.0
        assert again.model == out.model


def test_partition_function_invariance():
    rng = np.random.default_rng(8102)
    for _ in range(200):
        m = random_mixed_model(rng)
        out = simplify(to_bare(m))
        original = naive_log_z(m)
        if out.status is SimplifyStatus.ZERO:
            assert original == -math.inf
            continue
        reduced = naive_log_z(from_bare(out.model)) if out.status is SimplifyStatus.OPEN else 0.0
        got = out.log_weight + reduced
        if original == -math.inf:
            assert got == -math.inf
        else:
            assert math.exp(got) == pytest.approx(
                math.exp(original), rel=1e-12
            )


def test_open_outcome_has_no_units_and_no_free_variables():
    rng = np.random.default_rng(8103)
    for _ in range(150):
        out = simplify(to_bare(random_mixed_model(rng)))
        if out.status is not SimplifyStatus.OPEN:
            continue
        num_vars, hard, soft = out.model
        assert all(len(c) > 1 for c in hard)
        occurring = {abs(lit) for c in (*hard, *(c for c, _ in soft)) for lit in c}
        assert occurring == set(range(1, num_vars + 1))
        # forced variables are assigned, not carried into the reduced model
        assert {abs(lit) for lit in out.forced}.isdisjoint(out.variables)
