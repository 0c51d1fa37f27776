import hashlib
import math

import numpy as np
import pytest

from propmrf import (
    PropMRF,
    VeWidthError,
    fdc_count,
    fdc_marginals,
    gen_random,
    pick_evidence,
    ve_count,
)
from propmrf import ve
from propmrf.ve import (
    _FLOOR,
    Factor,
    _aligned,
    _child_message,
    bucket_elimination,
    bucket_tree,
    clause_to_factor,
    clauses_to_factors,
)

from conftest import naive_log_z, random_mixed_model


def test_clause_to_factor_tables():
    f = clause_to_factor(frozenset({1, -2}), 0.0, -math.inf)
    assert f.scope == (1, 2)
    # rows indexed [x1][x2]; the clause fails only at x1=0, x2=1
    assert f.table[0, 0] == 0.0
    assert f.table[0, 1] == -math.inf
    assert f.table[1, 0] == 0.0
    assert f.table[1, 1] == 0.0

    g = clause_to_factor(frozenset({2}), 0.7, 0.0)
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


def _nonempty_buckets(factors: list[Factor], order: list[int]) -> int:
    """How many buckets of the order receive a factor or a message, found
    from the scopes alone."""
    position = {v: i for i, v in enumerate(order)}
    buckets: list[list[set]] = [[] for _ in order]
    for f in factors:
        if f.scope:
            buckets[min(position[v] for v in f.scope)].append(set(f.scope))
    for i, v in enumerate(order):
        rest = set().union(*buckets[i]) - {v}
        if rest:
            buckets[min(position[u] for u in rest)].append(rest)
    return sum(1 for bucket in buckets if bucket)


def test_bucket_tree_builds_each_product_once(monkeypatch):
    calls = []
    product = ve._product
    monkeypatch.setattr(ve, "_product", lambda *args: calls.append(1) or product(*args))
    rng = np.random.default_rng(8305)
    checked = 0
    for _ in range(100):
        n = int(rng.integers(1, 7))
        factors = _random_factors(rng, n)
        order = [int(v) for v in rng.permutation(n) + 1]
        calls.clear()
        _, marginals = bucket_tree(factors, order)
        assert len(calls) == _nonempty_buckets(factors, order)
        checked += marginals is not None and len(calls) > 0
    assert checked > 30


def _reference_message(belief: np.ndarray, scope: tuple, msg: Factor) -> np.ndarray:
    """A child's downward message as bucket_tree computed it before the
    contiguous layout: belief - msg with -inf where msg is -inf, then a
    log-sum-exp over the dropped axes in belief's own axis order."""
    aligned = _aligned(msg, scope)
    finite = aligned != -math.inf
    rest = np.empty_like(belief)
    np.subtract(belief, aligned, out=rest, where=finite)
    np.copyto(rest, -math.inf, where=~finite)
    axes = tuple(a for a, v in enumerate(scope) if v not in msg.scope)
    if not axes:
        return rest
    shift = rest.max(axis=axes, keepdims=True)
    np.maximum(shift, _FLOOR, out=shift)
    rest -= shift
    np.exp(rest, out=rest)
    total = rest.sum(axis=axes)
    with np.errstate(divide="ignore"):
        np.log(total, out=total)
    total += shift.reshape(total.shape)
    return total


def _message_layouts(rng: np.random.Generator, w: int) -> list[list[int]]:
    """Kept axes of a w-axis bucket: first, last, interleaved, all, one
    and a random subset."""
    k = max(1, w // 2)
    return [
        list(range(k)),
        list(range(w - k, w)),
        list(range(0, w, 2)),
        list(range(1, w, 2)) or [0],
        list(range(w)),
        [int(rng.integers(w))],
        sorted(int(a) for a in rng.choice(w, size=int(rng.integers(1, w + 1)), replace=False)),
    ]


def test_child_message_matches_the_reference_kernel():
    rng = np.random.default_rng(8305)
    checked = 0
    for w in range(1, 19):
        scope = tuple(sorted(int(v) for v in rng.choice(40, size=w, replace=False) + 1))
        for keep in _message_layouts(rng, w):
            for values in ("normal", "700", "holes"):
                msg_scope = tuple(scope[a] for a in keep)
                msg = Factor(msg_scope, rng.normal(size=(2,) * len(keep)))
                belief = rng.normal(size=(2,) * w)
                if values == "700":
                    msg.table += rng.choice([-700.0, 700.0], size=msg.table.shape)
                    belief += rng.choice([-700.0, 700.0], size=belief.shape)
                elif values == "holes":
                    msg.table[rng.random(msg.table.shape) < 0.3] = -math.inf
                    belief[rng.random(belief.shape) < 0.3] = -math.inf
                # The belief is the product with msg in it.
                belief[np.broadcast_to(_aligned(msg, scope) == -math.inf, belief.shape)] = (
                    -math.inf
                )
                want = _reference_message(belief, scope, msg)
                kept = belief.copy()
                got = _child_message(belief, scope, msg, np.empty_like(belief))
                assert got.shape == msg.table.shape
                assert np.array_equal(got, want)
                assert np.array_equal(np.signbit(got), np.signbit(want))
                assert np.array_equal(belief, kept)
                checked += 1
    assert checked == 18 * 7 * 3


# log Z of seeded models as the upward pass gave it before the two-slice
# sum-out replaced np.logaddexp.reduce: (gen_random n, m, s, seed, evidence
# fraction), ve_count, fdc_count with VE below width 16.
_UPWARD_PINS = [
    ((12, 14, 4, 1, 0.0), "0x1.2774486f051b7p+3", "0x1.2774486f051b7p+3"),
    ((16, 16, 4, 2, 0.0), "0x1.941cec58fa77ap+3", "0x1.941cec58fa77ap+3"),
    ((20, 20, 5, 3, 0.1), "0x1.4d78d05368668p+3", "0x1.4d78d05368666p+3"),
    ((24, 24, 5, 4, 0.0), "0x1.94d83360c3828p+4", "0x1.94d83360c3828p+4"),
    ((30, 30, 5, 5, 0.0), "0x1.496d61d9fc63cp+4", "0x1.496d61d9fc63cp+4"),
    ((30, 30, 5, 6, 0.1), "0x1.2c77aac1f0ed8p+4", "0x1.2c77aac1f0ed8p+4"),
    ((30, 30, 5, 8, 0.0), "0x1.57e14e549bc7ap+4", "0x1.57e14e549bc7ap+4"),
]


@pytest.mark.parametrize(
    "spec, ve_hex, fdc_hex", _UPWARD_PINS, ids=[str(pin[0]) for pin in _UPWARD_PINS]
)
def test_upward_pass_is_pinned(spec, ve_hex, fdc_hex):
    n, m_clauses, size, seed, evidence = spec
    m = gen_random(n, m_clauses, size, seed=seed)
    if evidence:
        m = pick_evidence(m, evidence, seed=seed)
    assert ve_count(m).hex() == ve_hex
    assert fdc_count(m, ve_width_threshold=16).log_z.hex() == fdc_hex
    assert fdc_marginals(m, ve_width_threshold=16).log_z.hex() == fdc_hex


# sha256 of the fdc_marginals bytes of the same models, VE below width 16,
# recorded before the child messages moved to a contiguous layout.  Both
# branching modes give the same bytes.
_DOWNWARD_PINS = {
    (12, 14, 4, 1, 0.0): "b2e90932f1d270aec3cc2b647f408c5937a8345bc8354f6625c1406bf436935b",
    (16, 16, 4, 2, 0.0): "74bc978cd9d0cb7ad57bc8e993774477893942c05a3a92ef6e048db5285806a0",
    (20, 20, 5, 3, 0.1): "9ebebeb65d0da06aa1065faffc0fc7a9c2753d583b063576780ed12047090a62",
    (24, 24, 5, 4, 0.0): "f3c1ea27cc8ce7891d93c5625524036b7316ad034420a3644c8c9c2d2a9f87ce",
    (30, 30, 5, 5, 0.0): "3f9e881343924ea4cee53f530691059f0e756c2078ae47f3465c83f2387c7a20",
    (30, 30, 5, 6, 0.1): "997e4c609f4934daaf22bf39368037ede644eec7bc2b607e9685a3108ac3f6fd",
    (30, 30, 5, 8, 0.0): "11132c4313730d08fe174fb3e53d003acaee74813ce3867cec5c5f497f13fc62",
}


@pytest.mark.parametrize("mode", ["formula", "variable"])
@pytest.mark.parametrize("spec", [pin[0] for pin in _UPWARD_PINS], ids=str)
def test_downward_pass_is_pinned(spec, mode):
    n, m_clauses, size, seed, evidence = spec
    m = gen_random(n, m_clauses, size, seed=seed)
    if evidence:
        m = pick_evidence(m, evidence, seed=seed)
    marginals = fdc_marginals(m, mode=mode, ve_width_threshold=16).marginals
    assert hashlib.sha256(marginals.tobytes()).hexdigest() == _DOWNWARD_PINS[spec]


@pytest.mark.parametrize("scale", [700.0, 1e4])
def test_bucket_tree_at_extreme_weights(scale):
    # Soft tables of +-scale, -inf entries as hard clauses make them, and
    # whole -inf rows; any overflow or log(0) warning fails the test.  Log
    # weights near 1e4 carry rounding of about 2e-12 in any order of
    # summation, so near ties the marginals can only agree to about that.
    tol = max(1e-12, scale * 1e-15)
    rng = np.random.default_rng(8304)
    checked = 0
    for _ in range(300):
        n = int(rng.integers(1, 7))
        factors = _random_factors(rng, n)
        for f in factors:
            f.table *= scale
            if f.scope and rng.random() < 0.2:
                f.table[int(rng.integers(0, 2))] = -math.inf
        order = [int(v) for v in rng.permutation(n) + 1]
        expected_z, expected = _enumerate(factors, n)
        log_z, marginals = bucket_tree(factors, order)
        if expected_z == -math.inf:
            assert log_z == -math.inf and marginals is None
            continue
        assert log_z == pytest.approx(expected_z, rel=1e-12, abs=1e-12)
        in_variable_order = np.empty(n)
        in_variable_order[np.array(order, dtype=int) - 1] = marginals
        assert np.all(np.abs(in_variable_order - expected) <= tol)
        checked += 1
    assert checked > 100


def test_min_fill_width_bound_fails_before_any_table(monkeypatch):
    calls = []
    monkeypatch.setattr(
        "propmrf.ve.clauses_to_factors", lambda *args: calls.append(args) or []
    )
    grid = PropMRF.from_lists(
        16,
        soft=[(0.5, [v, v + 1]) for v in range(1, 16) if v % 4]
        + [(0.5, [v, v + 4]) for v in range(1, 13)],
    )
    with pytest.raises(VeWidthError) as err:
        ve_count(grid, max_width=4)
    assert (err.value.width, err.value.bound) == (5, 4)
    assert calls == []
    # A model with no clauses builds no table at all.
    assert ve_count(PropMRF(3), max_width=0) == pytest.approx(3 * math.log(2.0))
