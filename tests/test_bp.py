import hashlib
import math
import tracemalloc

import numpy as np
import pytest

from propmrf import (
    BpConfig,
    DegenerateBeliefError,
    PropMRF,
    formula_proposal,
    gen_qmr,
    gen_random,
    pick_evidence,
    run_bp,
    variable_proposal,
)
from propmrf import bp
from propmrf.sat import unit_propagate
from propmrf.ve import clause_truth_table

from conftest import naive_marginals, random_mixed_model


def test_single_soft_unit_is_a_sigmoid():
    for w in (-2.0, -0.5, 0.0, 1.0, 3.0):
        m = PropMRF.from_lists(1, soft=[(w, [1])])
        marginals = run_bp(m)
        assert marginals.converged
        expected = math.exp(w) / (math.exp(w) + 1.0)
        assert marginals.variable_p_true[0] == pytest.approx(expected, abs=1e-7)


def test_exact_on_tree_structured_models():
    m = PropMRF.from_lists(
        4,
        soft=[(0.8, [1, -2]), (-0.4, [2, 3]), (1.2, [-3, 4])],
    )
    marginals = run_bp(m, BpConfig(max_iters=5000, tol=1e-12))
    assert marginals.converged
    expected = naive_marginals(m)
    assert np.max(np.abs(marginals.variable_p_true - expected)) < 1e-6


def test_hard_unit_clause_pins_the_variable():
    m = PropMRF.from_lists(2, hard=[[1]], soft=[(0.5, [1, 2])])
    marginals = run_bp(m)
    assert marginals.variable_p_true[0] == pytest.approx(1.0, abs=1e-6)


def test_isolated_variable_stays_uniform():
    m = PropMRF.from_lists(3, soft=[(0.9, [1, 2])])
    marginals = run_bp(m)
    assert marginals.variable_p_true[2] == pytest.approx(0.5, abs=1e-12)


def test_contradictory_hard_units_raise_naming_the_variable():
    # damped messages only approach certainty, so the all-zero belief is
    # reachable just with undamped updates
    m = PropMRF.from_lists(2, hard=[[1], [-1]], soft=[(0.1, [2])])
    with pytest.raises(DegenerateBeliefError) as err:
        run_bp(m, BpConfig(damping=0.0))
    assert err.value.var == 1
    assert "variable 1" in str(err.value)


def test_factor_beliefs_are_normalized_joint_tables():
    m = PropMRF.from_lists(2, hard=[[1, 2]], soft=[(0.6, [1])])
    marginals = run_bp(m, BpConfig(max_iters=5000, tol=1e-12))
    assert marginals.n_hard == 1
    scope, table = marginals.soft_factor(0)
    assert scope == (1,)
    assert table.sum() == pytest.approx(1.0, abs=1e-9)
    hard_scope = marginals.factor_scopes[0]
    hard_table = marginals.factor_tables[0]
    assert hard_scope == (1, 2)
    # the hard clause assigns zero probability to (false, false)
    assert hard_table[0, 0] == pytest.approx(0.0, abs=1e-12)
    assert hard_table.sum() == pytest.approx(1.0, abs=1e-9)


def test_bp_config_validation():
    with pytest.raises(ValueError):
        BpConfig(damping=1.0)
    with pytest.raises(ValueError):
        BpConfig(max_iters=0)


def test_bp_runs_are_deterministic():
    m = PropMRF.from_lists(
        5,
        hard=[[1, 2, 3]],
        soft=[(0.7, [1, -4]), (-0.2, [4, 5]), (0.3, [2, 5])],
    )
    a = run_bp(m)
    b = run_bp(m)
    assert np.array_equal(a.variable_p_true, b.variable_p_true)
    assert a.iterations == b.iterations


def test_variable_proposal_clamps_extremes():
    from propmrf import BpMarginals

    fake = BpMarginals(
        variable_p_true=np.array([0.0, 1.0, 0.3]),
        factor_scopes=(),
        factor_tables=(),
        truth_tables=(),
        n_hard=0,
        converged=True,
        iterations=1,
    )
    q = variable_proposal(fake)
    assert q[0] == 1e-9
    assert q[1] == 1.0 - 1e-9
    assert q[2] == pytest.approx(0.3, abs=1e-15)

    m = PropMRF.from_lists(2, hard=[[1], [-2]])
    q = variable_proposal(run_bp(m))
    assert 1.0 - 1e-6 <= q[0] <= 1.0 - 1e-9
    assert 1e-9 <= q[1] <= 1e-6


def _forced_true(m, prefix):
    """The literals that unit propagation of the hard clauses and the
    decided (soft clause index, value) prefix forces true."""
    constraints = list(m.hard)
    for j, value in prefix:
        clause = m.soft[j].clause
        constraints += [clause] if value else [frozenset((-l,)) for l in clause]
    return unit_propagate(constraints)[0]


def test_formula_proposal_without_prefix_reads_the_factor_belief():
    m = PropMRF.from_lists(2, soft=[(0.9, [1, 2])])
    marginals = run_bp(m, BpConfig(max_iters=5000, tol=1e-12))
    scope, table = marginals.soft_factor(0)
    sat_mass = table[0, 1] + table[1, 0] + table[1, 1]
    p = formula_proposal(marginals, _forced_true(m, []), 0)
    assert p == pytest.approx(sat_mass / table.sum(), abs=1e-12)


def test_formula_proposal_respects_prefix_constraints():
    m = PropMRF.from_lists(
        2, soft=[(0.5, [1]), (0.7, [1, 2])]
    )
    marginals = run_bp(m, BpConfig(max_iters=5000, tol=1e-12))
    # if clause 0 (the unit on variable 1) is false, clause 1 reduces to
    # variable 2 alone
    p_false = formula_proposal(marginals, _forced_true(m, [(0, False)]), 1)
    scope, table = marginals.soft_factor(1)
    assert scope == (1, 2)
    expected = table[0, 1] / (table[0, 0] + table[0, 1])
    assert p_false == pytest.approx(expected, abs=1e-12)
    # if clause 0 is true, variable 1 is forced true and clause 1 is certain
    p_true = formula_proposal(marginals, _forced_true(m, [(0, True)]), 1)
    assert p_true == pytest.approx(1.0 - 1e-9, abs=1e-12)


def test_formula_proposal_on_rows_of_zero_belief():
    # exp(-750) underflows, so the clause's false row has belief 0: forcing
    # both literals false leaves no mass, and the proposal falls back to 0.5.
    m = PropMRF.from_lists(2, soft=[(750.0, [1, 2])])
    marginals = run_bp(m)
    _, table = marginals.soft_factor(0)
    assert table[0, 0] == 0.0
    assert formula_proposal(marginals, {-1, -2}, 0) == 0.5
    assert formula_proposal(marginals, {-1}, 0) == 1.0 - 1e-9


def test_formula_proposal_stays_inside_the_open_interval():
    rng = np.random.default_rng(8501)
    for _ in range(25):
        n = int(rng.integers(2, 6))
        soft = []
        for _ in range(int(rng.integers(1, 5))):
            size = int(rng.integers(1, min(3, n) + 1))
            variables = rng.choice(n, size=size, replace=False) + 1
            signs = rng.random(size) < 0.5
            soft.append(
                (
                    float(rng.uniform(-2, 2)),
                    [int(v) if s else -int(v) for v, s in zip(variables, signs)],
                )
            )
        m = PropMRF.from_lists(n, soft=soft)
        marginals = run_bp(m)
        for i in range(len(m.soft)):
            p = formula_proposal(marginals, _forced_true(m, []), i)
            assert 1e-9 <= p <= 1.0 - 1e-9


def test_weight_beyond_exp_range_does_not_overflow():
    # exp(750) overflows a float and exp(-750) underflows to 0, so the soft
    # clause acts exactly like the same clause declared hard
    big = PropMRF.from_lists(2, soft=[(750.0, [1, 2]), (0.5, [-1])])
    hard = PropMRF.from_lists(2, hard=[[1, 2]], soft=[(0.5, [-1])])
    assert np.array_equal(run_bp(big).variable_p_true, run_bp(hard).variable_p_true)
    # exp(-720) is subnormal but not 0; the graph is a tree, so BP is exact
    m = PropMRF.from_lists(2, soft=[(720.0, [1, 2]), (0.5, [-1])])
    marginals = run_bp(m, BpConfig(max_iters=5000, tol=1e-12))
    assert marginals.converged
    assert np.max(np.abs(marginals.variable_p_true - naive_marginals(m))) < 1e-6
    for table in marginals.factor_tables:
        assert np.all(np.isfinite(table))


def _bp_digest(marginals) -> tuple[str, int, bool]:
    h = hashlib.sha256()
    for x in marginals.variable_p_true:
        h.update(float(x).hex().encode() + b",")
    for table in marginals.factor_tables:
        h.update(b"|")
        for x in np.ravel(table):
            h.update(float(x).hex().encode() + b",")
    return h.hexdigest()[:16], marginals.iterations, marginals.converged


# Values computed by a one-edge-at-a-time message loop; run_bp performs the
# same float operations in the same order, so every bit must agree.
_PINNED_MIXED = [
    (("66f1e78fd5cd54a7", 24, True), ("0941cc217ecc3b56", 2, True)),
    (("fbf50313d2a2fa34", 34, True), ("2917e9027f7d31ad", 12, True)),
    (("d7173247ac790be9", 49, True), ("bc4db3a3bb773a3b", 20, True)),
    (("007d5d025e73121b", 32, True), ("1d856d652f49f5c4", 3, True)),
    (("f5ce2061bf4f1b2d", 24, True), ("99f3c976708d2e64", 2, True)),
    (("f61a3b4ffaa1fa54", 43, True), ("f24d9a1ed75da9a3", 16, True)),
    (("d8909285b95c6a7a", 26, True), ("01ab5669d788c37e", 2, True)),
    (("319d0e77643ee15a", 47, True), ("c375fa0b0a1109f2", 14, True)),
    (("66259de9f7178716", 53, True), ("71bb718d74b4db9d", 25, True)),
    (("903d4281e2210606", 33, True), ("095ea13ff6d477d0", 3, True)),
    (("4412adadba5a74b0", 43, True), ("16a5645e51e2812c", 18, True)),
    (("23487097faecafe4", 33, True), ("3c29f105ccba0f6e", 4, True)),
]


def test_bp_is_pinned():
    evidence = pick_evidence(gen_random(20, 20, 5, seed=901), 0.05)
    assert _bp_digest(run_bp(evidence)) == ("d02e88fb74e256a1", 34, True)
    assert _bp_digest(run_bp(evidence, BpConfig(max_iters=5))) == (
        "6dd40329764b5ec8", 5, False,
    )
    qmr = gen_qmr(15, 15, 7, seed=1002)
    assert _bp_digest(run_bp(qmr)) == ("dc2c571db0e4b946", 30, True)
    assert _bp_digest(run_bp(qmr, BpConfig(damping=0.0, max_iters=5))) == (
        "deeb970c168ea244", 5, False,
    )

    rng = np.random.default_rng(9101)
    for damped, undamped in _PINNED_MIXED:
        m = random_mixed_model(rng)
        assert _bp_digest(run_bp(m, BpConfig(damping=0.5))) == damped
        assert _bp_digest(run_bp(m, BpConfig(damping=0.0))) == undamped

    # the first message without mass, in factor-major edge order, names the
    # variable
    rng = np.random.default_rng(9201)
    models = [
        random_mixed_model(rng, max_vars=8, max_hard=5, max_soft=4)
        for _ in range(204)
    ]
    # Variables 1 and 2 lose all mass in the same pass.  In the first model
    # variable-to-factor messages empty, and variable 2's edge comes first;
    # in the second only the final beliefs empty, and variable 1 comes first.
    models.append(
        PropMRF.from_lists(
            4, hard=[[2], [-2], [1], [-1]], soft=[(0.3, [2, 3]), (0.3, [1, 4])]
        )
    )
    models.append(PropMRF.from_lists(2, hard=[[2], [-2], [1], [-1]]))
    for index, var in ((18, 1), (54, 2), (84, 3), (203, 4), (204, 2), (205, 1)):
        with pytest.raises(DegenerateBeliefError) as err:
            run_bp(models[index], BpConfig(damping=0.0))
        assert err.value.var == var


def _per_edge_bp(m: PropMRF, config: BpConfig) -> tuple[np.ndarray, list, int, bool]:
    """Reference: the same schedule as one message update per edge."""
    scopes, tables = [], []
    for weight, clause in [(None, c) for c in m.hard] + [
        (sc.weight, sc.clause) for sc in m.soft
    ]:
        scope = tuple(sorted(clause.variables))
        sat = np.zeros((2,) * len(scope), dtype=bool)
        for index in np.ndindex(sat.shape):
            sat[index] = any(
                index[scope.index(abs(lit))] == (lit > 0) for lit in clause
            )
        scopes.append(scope)
        if weight is None:
            tables.append(sat.astype(float))
        elif weight > 709.0:  # exp(weight) overflows: the table over exp(weight)
            tables.append(np.where(sat, 1.0, math.exp(-weight)))
        else:
            tables.append(np.where(sat, math.exp(weight), 1.0))
    neighbors = {v: [fi for fi, s in enumerate(scopes) if v in s] for v in range(1, m.num_vars + 1)}

    def along(vec, axis, ndim):
        return vec.reshape([2 if a == axis else 1 for a in range(ndim)])

    f2v = {(fi, v): np.full(2, 0.5) for fi, s in enumerate(scopes) for v in s}
    v2f = {(v, fi): np.full(2, 0.5) for (fi, v) in f2v}
    d = config.damping
    converged = False
    for iterations in range(1, config.max_iters + 1):
        delta = 0.0
        for (v, fi), old in v2f.items():
            product = np.ones(2)
            for fj in neighbors[v]:
                if fj != fi:
                    product = product * f2v[(fj, v)]
            if product.sum() <= 0.0:
                raise DegenerateBeliefError(v)
            v2f[(v, fi)] = d * old + (1.0 - d) * (product / product.sum())
            delta = max(delta, float(np.max(np.abs(v2f[(v, fi)] - old))))
        for (fi, v), old in f2v.items():
            tensor = tables[fi]
            for axis, u in enumerate(scopes[fi]):
                if u != v:
                    tensor = tensor * along(v2f[(u, fi)], axis, len(scopes[fi]))
            keep = scopes[fi].index(v)
            others = [a for a in range(len(scopes[fi])) if a != keep]
            message = np.apply_over_axes(np.sum, tensor, others).reshape(2)
            if message.sum() <= 0.0:
                raise DegenerateBeliefError(v)
            f2v[(fi, v)] = d * old + (1.0 - d) * (message / message.sum())
            delta = max(delta, float(np.max(np.abs(f2v[(fi, v)] - old))))
        if delta < config.tol:
            converged = True
            break
    p_true = np.full(m.num_vars, 0.5)
    for v, factors in neighbors.items():
        belief = np.ones(2)
        for fi in factors:
            belief = belief * f2v[(fi, v)]
        if factors:
            if belief.sum() <= 0.0:
                raise DegenerateBeliefError(v)
            p_true[v - 1] = belief[1] / belief.sum()
    joint = []
    for fi, scope in enumerate(scopes):
        tensor = tables[fi]
        for axis, u in enumerate(scope):
            tensor = tensor * along(v2f[(u, fi)], axis, len(scope))
        joint.append(tensor / tensor.sum())
    return p_true, joint, iterations, converged


def test_matches_the_per_edge_reference_bit_for_bit():
    rng = np.random.default_rng(9301)
    for _ in range(60):
        m = random_mixed_model(rng, max_vars=7, max_hard=3, max_soft=5, max_size=4)
        for config in (BpConfig(), BpConfig(damping=0.0), BpConfig(max_iters=4)):
            try:
                expected = _per_edge_bp(m, config)
            except DegenerateBeliefError as err:
                with pytest.raises(DegenerateBeliefError) as got:
                    run_bp(m, config)
                assert got.value.var == err.var
                continue
            got = run_bp(m, config)
            assert np.array_equal(got.variable_p_true, expected[0])
            assert all(np.array_equal(a, b) for a, b in zip(got.factor_tables, expected[1]))
            assert (got.iterations, got.converged) == expected[2:]


def test_empty_hard_clause_raises_a_degenerate_belief():
    m = PropMRF.from_lists(2, hard=[[]], soft=[(0.5, [1, 2])])
    with pytest.raises(DegenerateBeliefError, match="empty hard clause") as err:
        run_bp(m)
    assert err.value.var is None


def _wide_model(rng: np.random.Generator, hard_only: bool) -> PropMRF:
    """Clauses of arity 6 to 10 over at most 12 variables, every one on
    variable 1, so that variable has degree 8 or more."""
    n = int(rng.integers(10, 13))
    clauses = []
    for _ in range(int(rng.integers(8, 11))):
        k = int(rng.integers(6, 11))
        variables = [1, *(rng.choice(n - 1, size=k - 1, replace=False) + 2)]
        clauses.append([int(v) if rng.random() < 0.5 else -int(v) for v in variables])
    if hard_only:
        return PropMRF(n, clauses)
    weights = rng.choice([750.0, -750.0, 1.3, -0.7, 2.5], size=len(clauses))
    return PropMRF(n, clauses[:2], zip(clauses[2:], weights[2:]))


def test_matches_the_per_edge_reference_on_wide_factors():
    # The sibling of the test above for what it leaves out: arities 6 to 10,
    # a variable of degree 8 or more, weights of +-750 and hard-only models.
    rng = np.random.default_rng(9401)
    compared = 0
    for index in range(10):
        m = _wide_model(rng, hard_only=index % 2 == 0)
        for config in (BpConfig(max_iters=12), BpConfig(damping=0.0, max_iters=6)):
            try:
                expected = _per_edge_bp(m, config)
            except DegenerateBeliefError as err:
                # weight -750 all but forces a clause's falsifying row
                with pytest.raises(DegenerateBeliefError) as got:
                    run_bp(m, config)
                assert got.value.var == err.var
                continue
            got = run_bp(m, config)
            assert np.array_equal(got.variable_p_true, expected[0])
            assert all(np.array_equal(a, b) for a, b in zip(got.factor_tables, expected[1]))
            assert (got.iterations, got.converged) == expected[2:]
            compared += 1
    assert compared >= 14


def _table_messages(edges: np.ndarray, stacked: np.ndarray, v2f: np.ndarray) -> np.ndarray:
    """Reference: the factor messages of one arity group, shape (count, k,
    2), each rebuilt from its table: the table times the other axes'
    messages in scope order, summed over those axes in ascending order."""
    count, k = edges.shape
    incoming = v2f[edges]
    vectors = [
        incoming[:, axis].reshape((count,) + (1,) * axis + (2,) + (1,) * (k - 1 - axis))
        for axis in range(k)
    ]
    out = np.empty((count, k, 2))
    for keep in range(k):
        tensor = stacked
        for axis in range(k):
            if axis != keep:
                tensor = tensor * vectors[axis]
        for axis in range(k):
            if axis != keep:
                tensor = tensor.sum(axis=axis + 1, keepdims=True)
        out[:, keep] = tensor.reshape(count, 2)
    return out


@pytest.mark.parametrize("block_entries", [bp._BLOCK_ENTRIES, 1 << 6])
def test_product_tree_equals_the_table_messages_bit_for_bit(monkeypatch, block_entries):
    # With a small block cap the rows of arity 6 and up run one per block.
    monkeypatch.setattr(bp, "_BLOCK_ENTRIES", block_entries)
    rng = np.random.default_rng(9501)
    potentials = [
        (1.0, 0.0), (math.exp(0.8), 1.0), (math.exp(-1.7), 1.0), (1.0, math.exp(-720.0))
    ]
    for k in range(1, 11):
        for _ in range(3):
            count = int(rng.integers(1, 6))
            clauses = []
            for _ in range(count):
                variables = rng.choice(12, size=k, replace=False) + 1
                clauses.append([int(v) if rng.random() < 0.5 else -int(v) for v in variables])
            chosen = [potentials[i] for i in rng.integers(0, len(potentials), size=count)]
            falsifying = [tuple(int(l < 0) for l in sorted(c, key=abs)) for c in clauses]
            scopes, stacked = [], []
            for clause, (c_sat, c_unsat) in zip(clauses, chosen):
                scope, sat = clause_truth_table(frozenset(clause))
                scopes.append(scope)
                stacked.append(np.where(sat, c_sat, c_unsat))
            v2f = rng.random((count * k, 2))
            # Exact zeros on the satisfying side, as hard units leave them;
            # where they cover all other axes, the x* chain is the message.
            star = np.ravel(falsifying)
            zero = rng.random(count * k) < 0.4
            v2f[zero, 1 - star[zero]] = 0.0

            message = np.empty((count * k, 2))
            for block in bp._factor_blocks(scopes, falsifying, chosen):
                message[block.edges] = bp._block_messages(block, v2f.ravel())
            edges = np.arange(count * k).reshape(count, k)
            expected = _table_messages(edges, np.stack(stacked), v2f)
            assert message.reshape(count, k, 2).tobytes() == expected.tobytes()


def test_run_bp_memory_on_a_wide_clause():
    # The tracemalloc peak of run_bp on one 16-literal clause was 2.14 MiB
    # when each message was rebuilt from the stacked tables (numpy 2.4), and
    # 2.08 MiB with the product tree in blocks; the tree over all 16 rows at
    # once peaked at 12.6 MiB.
    m = PropMRF.from_lists(16, soft=[(0.5, list(range(1, 17)))])
    run_bp(m)
    tracemalloc.start()
    try:
        run_bp(m)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak <= 2 * 2.14 * 2**20
