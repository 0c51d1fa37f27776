import math

import numpy as np
import pytest

from propmrf import Clause, PropMRF
from propmrf.model import compact_bare
from propmrf.sat import unit_propagate
from propmrf.simplify import SimplifyStatus, simplify

from conftest import naive_log_z, random_mixed_model
from test_degenerate import DEGENERATE

LN2 = math.log(2.0)


def test_conflicting_units_give_zero():
    m = PropMRF.from_lists(2, hard=[[1], [-1]], soft=[(0.5, [2])])
    out = simplify(m)
    assert out.status is SimplifyStatus.ZERO
    assert out.log_weight == -math.inf


def test_fully_resolved_model_gives_scalar():
    m = PropMRF.from_lists(2, hard=[[1]], soft=[(0.7, [1, 2])])
    out = simplify(m)
    assert out.status is SimplifyStatus.SCALAR
    # the unit makes the soft clause satisfied; variable 2 becomes free
    assert out.log_weight == pytest.approx(0.7 + LN2, abs=1e-15)
    assert out.model[1:] == ((), ())


def test_satisfied_soft_weight_extracted_by_propagation():
    m = PropMRF.from_lists(3, hard=[[2]], soft=[(1.3, [2, 3]), (0.2, [1, 3])])
    out = simplify(m)
    assert out.status is SimplifyStatus.OPEN
    assert out.log_weight == pytest.approx(1.3, abs=1e-15)
    # remaining model: soft (1, 3) renumbered over {1, 3} -> {1, 2}
    assert out.model == PropMRF.from_lists(2, soft=[(0.2, [1, 2])])


def test_falsified_soft_clause_dropped_without_weight():
    m = PropMRF.from_lists(2, hard=[[-1]], soft=[(5.0, [1]), (0.4, [1, 2])])
    out = simplify(m)
    # soft (1) is falsified outright; soft (1, 2) shrinks to (2)
    assert out.status is SimplifyStatus.OPEN
    assert out.log_weight == pytest.approx(0.0, abs=1e-15)
    assert out.model == PropMRF.from_lists(1, soft=[(0.4, [1])])


def test_hard_clause_entails_equal_soft_clause():
    m = PropMRF.from_lists(3, hard=[[1, 2]], soft=[(0.9, [1, 2]), (0.1, [3])])
    out = simplify(m)
    # every solution satisfies hard (1, 2), so the matching soft clause is
    # certainly satisfied and its weight moves out front
    assert out.log_weight == pytest.approx(0.9, abs=1e-15)
    weights = [w for _, w in out.model[2]]
    assert weights == [0.1]


def test_hard_clause_entails_wider_soft_clause():
    m = PropMRF.from_lists(3, hard=[[1, 2]], soft=[(0.9, [1, 2, 3])])
    out = simplify(m)
    assert out.log_weight == pytest.approx(0.9 + LN2, abs=1e-15)
    assert out.model == PropMRF.from_lists(2, hard=[[1, 2]])


def test_hard_subsumption_keeps_subset_clause():
    m = PropMRF.from_lists(3, hard=[[1, 2, 3], [1, 2]])
    out = simplify(m)
    assert out.model[1] == (frozenset({1, 2}),)
    assert out.log_weight == pytest.approx(LN2, abs=1e-15)  # variable 3 freed


def test_free_variable_sweep():
    m = PropMRF.from_lists(5, soft=[(0.3, [1, 2])])
    out = simplify(m)
    assert out.status is SimplifyStatus.OPEN
    assert out.log_weight == pytest.approx(3 * LN2, abs=1e-15)
    assert out.model[0] == 2


def test_empty_model_is_scalar_of_free_variables():
    out = simplify(PropMRF(4))
    assert out.status is SimplifyStatus.SCALAR
    assert out.log_weight == pytest.approx(4 * LN2, abs=1e-15)


def test_empty_hard_clause_gives_zero():
    out = simplify(PropMRF(1, (Clause([]),), ()))
    assert out.status is SimplifyStatus.ZERO


def test_simplify_is_idempotent():
    rng = np.random.default_rng(8101)
    for _ in range(100):
        out = simplify(random_mixed_model(rng))
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
        out = simplify(m)
        original = naive_log_z(m)
        if out.status is SimplifyStatus.ZERO:
            assert original == -math.inf
            continue
        reduced = naive_log_z(PropMRF(*out.model)) if out.status is SimplifyStatus.OPEN else 0.0
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
        out = simplify(random_mixed_model(rng))
        if out.status is not SimplifyStatus.OPEN:
            continue
        num_vars, hard, soft = out.model
        assert all(len(c) > 1 for c in hard)
        occurring = {abs(lit) for c in (*hard, *(c for c, _ in soft)) for lit in c}
        assert occurring == set(range(1, num_vars + 1))
        # forced variables are assigned, not carried into the reduced model
        assert {abs(lit) for lit in out.forced}.isdisjoint(out.variables)


def _reference_simplify(m):
    """simplify as it was before it split: the reduced model compacted over
    its variables, with those variables, or None for a SCALAR or ZERO one."""
    num_vars, hard, soft = m
    propagated = unit_propagate(hard)
    if propagated is None:
        return SimplifyStatus.ZERO, float("-inf"), frozenset(), None, ()
    true, false, reduced_hard = propagated
    log_weight = 0.0
    reduced_soft = []
    for sc in soft:
        clause = sc[0]
        if not true.isdisjoint(clause):
            log_weight += sc[1]
            continue
        if not clause.isdisjoint(false):
            clause = clause - false
            sc = (clause, sc[1])
        if not clause:
            continue
        for h in reduced_hard:
            if h <= clause:
                log_weight += sc[1]
                break
        else:
            reduced_soft.append(sc)
    kept = []
    for clause in reduced_hard:
        for k in kept:
            if k <= clause:
                break
        else:
            kept = [k for k in kept if not clause < k]
            kept.append(clause)
    literals = set().union(*kept, *[c for c, _ in reduced_soft])
    occurring = {abs(lit) for lit in literals}
    for _ in range(num_vars - len(true) - len(occurring)):
        log_weight += LN2
    if not literals:
        return SimplifyStatus.SCALAR, log_weight, true, None, ()
    variables = sorted(occurring)
    reduced = compact_bare(kept, reduced_soft, variables)
    return SimplifyStatus.OPEN, log_weight, true, reduced, tuple(variables)


def _reference_components(m):
    """connected_components as it was: union-find over a compacted model,
    then each component compacted again; (variables, model) pairs."""
    num_vars, hard, soft = m
    parent = list(range(num_vars + 1))
    used = [False] * (num_vars + 1)
    for clause in (*hard, *(c for c, _ in soft)):
        root = 0
        for lit in clause:
            v = abs(lit)
            used[v] = True
            while parent[v] != v:
                parent[v] = parent[parent[v]]
                v = parent[v]
            if not root:
                root = v
            elif v != root:
                parent[v] = root
    members: dict[int, list[int]] = {}
    for v in range(1, num_vars + 1):
        if used[v]:
            root = v
            while parent[root] != root:
                root = parent[root]
            parent[v] = root
            members.setdefault(root, []).append(v)
    if len(members) == 1 and len(next(iter(members.values()))) == num_vars:
        return [(tuple(range(1, num_vars + 1)), m)]
    by_root_hard = {r: [] for r in members}
    by_root_soft = {r: [] for r in members}
    for clause in hard:
        by_root_hard[parent[abs(min(clause))]].append(clause)
    for sc in soft:
        by_root_soft[parent[abs(min(sc[0]))]].append(sc)
    return [
        (tuple(vs), compact_bare(by_root_hard[r], by_root_soft[r], vs))
        for r, vs in members.items()
    ]


def _split_cases():
    rng = np.random.default_rng(8104)
    for _ in range(600):
        yield random_mixed_model(
            rng,
            max_vars=int(rng.integers(1, 13)),
            max_hard=int(rng.integers(0, 5)),
            max_soft=int(rng.integers(0, 10)),
            max_size=int(rng.integers(2, 5)),
        )
    yield from DEGENERATE.values()
    yield PropMRF.from_lists(4, hard=[[2], [-3]], soft=[(0.3, [3]), (0.6, [1, -2]), (0.2, [1, 4])])
    yield PropMRF.from_lists(3, hard=[[1]], soft=[(0.5, [1]), (0.5, [-1])])


def test_simplify_splits_as_simplify_then_connected_components():
    multi = 0
    statuses = set()
    for m in _split_cases():
        out = simplify(m)
        statuses.add(out.status)
        status, log_weight, forced, reduced, variables = _reference_simplify(m)
        assert out.status is status
        assert out.log_weight.hex() == log_weight.hex()
        assert out.forced == forced
        assert out.variables == variables
        if reduced is None:
            assert out.components == ()
            assert out.model == (0, (), ())
            continue
        assert out.model == reduced
        expected = [
            (tuple(variables[i - 1] for i in vs), model)
            for vs, model in _reference_components(reduced)
        ]
        assert [(c.variables, c.model) for c in out.components] == expected
        multi += len(expected) > 1
    assert statuses == set(SimplifyStatus)
    assert multi > 50
