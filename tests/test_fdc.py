import gc
import math
import sys

import numpy as np
import pytest

from propmrf import (
    FORMULA,
    VARIABLE,
    InstanceTooLargeError,
    PropMRF,
    SoftClause,
    brute_force_marginals,
    brute_force_z,
    exact_marginals,
    fdc_count,
    fdc_marginals,
    gen_fs,
    gen_qmr,
    gen_random,
    minimal_search_space,
    pick_evidence,
    run_fis,
    ve_count,
)
from propmrf.fdc import canonical_key, choose_branch_clause, condition_on_clause, simplify
from propmrf.graph import connected_components

from conftest import calibration_model, naive_log_z, random_clause, random_mixed_model


def test_conditioning_splits_the_assignment_space():
    rng = np.random.default_rng(8401)
    for _ in range(100):
        m = random_mixed_model(rng, max_vars=6)
        occurring = sorted(m.occurring_variables())
        if not occurring:
            continue
        size = int(rng.integers(1, min(3, len(occurring)) + 1))
        chosen = rng.choice(occurring, size=size, replace=False)
        signs = rng.random(size) < 0.5
        r = frozenset(int(v) if s else -int(v) for v, s in zip(chosen, signs))
        m_true, m_false = condition_on_clause(m, r)
        assert m_true[1] == m.hard + (r,)
        assert len(m_false[1]) == len(m.hard) + len(r)
        whole = math.exp(naive_log_z(m))
        split = math.exp(naive_log_z(PropMRF(*m_true))) + math.exp(
            naive_log_z(PropMRF(*m_false))
        )
        assert split == pytest.approx(whole, rel=1e-12, abs=1e-300)


def test_branch_choice_on_the_calibration_model():
    m = calibration_model()
    candidate = choose_branch_clause(m, FORMULA)
    assert candidate.clause == frozenset({1, 2, 3})
    assert candidate.occurrence_count == 2
    assert candidate.size == 3
    unit = choose_branch_clause(m, VARIABLE)
    assert unit.clause == frozenset({1})


def test_branch_choice_prefers_shared_intersections():
    m = PropMRF.from_lists(4, soft=[(0.5, [1, 2]), (0.4, [-1, 3]), (0.3, [-1, 4])])
    candidate = choose_branch_clause(m, FORMULA)
    assert candidate.clause == frozenset({-1})
    assert candidate.occurrence_count == 2


def test_branch_choice_falls_back_to_most_frequent_literal():
    # every pairwise literal-set intersection is empty; ties resolve toward
    # the smallest literal
    m = PropMRF.from_lists(3, soft=[(0.5, [1, 2]), (0.4, [-1, 3]), (0.3, [-2, -3])])
    candidate = choose_branch_clause(m, FORMULA)
    assert candidate.clause == frozenset({1})
    assert candidate.occurrence_count == 1


def _pairwise_branch_clause(m, mode):
    """The branching heuristic as it was written first: every intersection
    built and scored against every clause in its own pass."""
    _, hard, soft = m
    clauses = list(hard) + [c for c, _ in soft]
    if mode == VARIABLE:
        counts: dict[int, int] = {}
        for lits in clauses:
            for lit in lits:
                counts[abs(lit)] = counts.get(abs(lit), 0) + 1
        best_var = min(counts, key=lambda v: (-counts[v], v))
        return frozenset((best_var,)), counts[best_var], 1
    intersections = set()
    for i, a in enumerate(clauses):
        for b in clauses[i + 1 :]:
            common = a & b
            if common:
                intersections.add(common)
    if intersections:
        score = {r: (sum(1 for lits in clauses if r <= lits), len(r)) for r in intersections}
        top = max(score.values())
        tied = [r for r, s in score.items() if s == top]
        key = lambda r: tuple((abs(l), l < 0) for l in sorted(r, key=abs))
        return (tied[0] if len(tied) == 1 else min(tied, key=key)), *top
    lit_counts: dict[int, int] = {}
    for lits in clauses:
        for lit in lits:
            lit_counts[lit] = lit_counts.get(lit, 0) + 1
    best_lit = min(lit_counts, key=lambda l: (-lit_counts[l], abs(l), l < 0))
    return frozenset((best_lit,)), lit_counts[best_lit], 1


def test_branch_choice_matches_the_pairwise_scoring(monkeypatch):
    # Every branch input of one search pass over the first two instances of
    # the benchmark's search workload at seed 1, in both modes.
    inputs = []

    def recording(model, mode):
        inputs.append((model, mode))
        return choose_branch_clause(model, mode)

    monkeypatch.setattr("propmrf.fdc.choose_branch_clause", recording)
    for seed in (1181610612, 2092658369):
        m = gen_random(24, 24, 5, seed=seed)
        for mode in (FORMULA, VARIABLE):
            fdc_count(m, mode=mode, ve_width_threshold=0)
    assert {mode for _, mode in inputs} == {FORMULA, VARIABLE}
    assert len(inputs) > 1000
    for model, mode in inputs:
        c = choose_branch_clause(model, mode)
        assert (c.clause, c.occurrence_count, c.size) == _pairwise_branch_clause(model, mode)


def test_fdc_count_matches_enumeration_all_configurations():
    rng = np.random.default_rng(8402)
    for _ in range(120):
        m = random_mixed_model(rng, max_vars=7, max_hard=3, max_soft=5)
        expected = naive_log_z(m)
        for mode in (FORMULA, VARIABLE):
            for use_cache in (True, False):
                for threshold in (0, 16):
                    got = fdc_count(
                        m,
                        mode=mode,
                        use_cache=use_cache,
                        ve_width_threshold=threshold,
                    ).log_z
                    if expected == -math.inf:
                        assert got == -math.inf
                    else:
                        assert got == pytest.approx(expected, abs=1e-9)


def test_unsatisfiable_model_counts_to_zero():
    m = PropMRF.from_lists(3, hard=[[1], [-1]], soft=[(0.5, [2, 3])])
    assert fdc_count(m).log_z == -math.inf


def test_empty_and_free_variable_models():
    assert fdc_count(PropMRF(0)).log_z == pytest.approx(0.0, abs=1e-15)
    assert fdc_count(PropMRF(4)).log_z == pytest.approx(
        4 * math.log(2.0), abs=1e-12
    )


def test_single_clause_closed_forms():
    hard = PropMRF.from_lists(3, hard=[[1, -2, 3]])
    assert math.exp(fdc_count(hard, ve_width_threshold=0).log_z) == pytest.approx(
        7.0, rel=1e-12
    )
    soft = PropMRF.from_lists(2, soft=[(0.9, [1, 2])])
    expected = 3 * math.exp(0.9) + 1
    assert math.exp(fdc_count(soft, ve_width_threshold=0).log_z) == pytest.approx(
        expected, rel=1e-12
    )


def test_cache_changes_statistics_not_values():
    m = calibration_model()
    with_cache = fdc_count(m, ve_width_threshold=0)
    without = fdc_count(m, use_cache=False, ve_width_threshold=0)
    assert with_cache.log_z == pytest.approx(without.log_z, abs=1e-12)
    assert without.stats.cache_hits == 0
    assert without.stats.cache_entries == 0
    assert with_cache.stats.cache_hits > 0
    # cached runs resolve no more calls than uncached ones
    assert with_cache.stats.leaves <= without.stats.leaves


def test_canonical_key_identifies_renamed_models():
    a = PropMRF.from_lists(4, hard=[[1, 2]], soft=[(0.5, [2, 3]), (0.1, [3, -4])])
    # The same clauses in another order, each literal set listed otherwise.
    reordered = PropMRF.from_lists(4, hard=[[2, 1]], soft=[(0.1, [-4, 3]), (0.5, [3, 2])])
    assert canonical_key(a) == canonical_key(reordered)
    # An order-preserving renaming, compacted by connected_components.
    spread = PropMRF.from_lists(9, hard=[[2, 5]], soft=[(0.5, [5, 6]), (0.1, [6, -9])])
    (component,) = connected_components(spread)
    assert canonical_key(component.model) == canonical_key(a)
    c = PropMRF.from_lists(4, hard=[[1, 2]], soft=[(0.6, [2, 3]), (0.1, [3, -4])])
    assert canonical_key(a) != canonical_key(c)
    assert canonical_key(a, with_weights=False) == canonical_key(
        c, with_weights=False
    )


def test_calibration_search_space_sizes():
    m = calibration_model()
    formula = minimal_search_space(m, FORMULA)
    variable = minimal_search_space(m, VARIABLE)
    assert formula.leaves == 7
    assert formula.nodes == 3
    assert variable.leaves == 12


def test_minimal_search_space_terminal_cases():
    tiny = PropMRF.from_lists(2, soft=[(0.3, [1, 2])])
    stats = minimal_search_space(tiny, FORMULA)
    assert (stats.leaves, stats.nodes) == (1, 0)
    resolved = PropMRF.from_lists(1, hard=[[1]])
    stats = minimal_search_space(resolved, VARIABLE)
    assert (stats.leaves, stats.nodes) == (1, 0)


def test_minimal_search_space_size_guard():
    with pytest.raises(InstanceTooLargeError):
        minimal_search_space(PropMRF(11), FORMULA)
    wide = PropMRF.from_lists(
        7, soft=[(0.1, [v, v % 7 + 1]) for v in range(1, 8)]
    )
    with pytest.raises(InstanceTooLargeError):
        minimal_search_space(wide, FORMULA)


def test_formula_minimum_never_exceeds_variable_minimum():
    rng = np.random.default_rng(8403)
    strict = 0
    for _ in range(40):
        m = random_mixed_model(rng, max_vars=6, max_hard=1, max_soft=4)
        if m.num_clauses > 6:
            continue
        formula = minimal_search_space(m, FORMULA)
        variable = minimal_search_space(m, VARIABLE)
        assert formula.leaves <= variable.leaves
        if formula.leaves < variable.leaves:
            strict += 1
    assert strict > 0


def test_ve_threshold_above_the_table_cap_conditions_instead():
    # Two 41-literal soft clauses give min-fill width 40, over the 24-variable
    # table cap: any threshold above the cap must search as the cap does.
    m = PropMRF.from_lists(
        42, soft=[(0.5, list(range(1, 42))), (-1.25, list(range(2, 43)))]
    )
    for search in (fdc_count, fdc_marginals):
        capped = search(m, ve_width_threshold=24)
        wide = search(m, ve_width_threshold=64)
        assert wide.log_z.hex() == capped.log_z.hex()
        assert wide.stats == capped.stats
    assert wide.marginals.tobytes() == capped.marginals.tobytes()
    assert fdc_count(m, ve_width_threshold=0).log_z == pytest.approx(capped.log_z, abs=1e-12)


def test_unknown_mode_rejected():
    with pytest.raises(ValueError):
        fdc_count(PropMRF(1), mode="mixed")
    with pytest.raises(ValueError, match="unknown branching mode 'mixed'"):
        minimal_search_space(PropMRF(1), mode="mixed")


@pytest.mark.parametrize("mode", [FORMULA, VARIABLE])
def test_branch_choice_needs_a_clause(mode):
    with pytest.raises(ValueError, match="no clauses to branch on"):
        choose_branch_clause(PropMRF(2), mode)


def _degenerate_models(rng: np.random.Generator) -> list[PropMRF]:
    """Zero variables, unused variables, duplicate clauses, hard-only models
    and weights of +-1e3."""
    models = [
        PropMRF(0),
        PropMRF(3),
        PropMRF.from_lists(4, soft=[(0.7, [2])]),
        PropMRF.from_lists(3, hard=[[1, -2]], soft=[(0.5, [1, -2]), (0.5, [1, -2])]),
        PropMRF.from_lists(3, hard=[[1, 2], [1, 2], [-1, 3]]),
        PropMRF.from_lists(2, soft=[(1e3, [1, 2]), (-1e3, [-1])]),
    ]
    for _ in range(20):
        m = random_mixed_model(rng, max_vars=7, max_hard=4, max_soft=0)
        extra = m.num_vars + int(rng.integers(0, 3))
        models.append(PropMRF(extra, m.hard + m.hard[:1], ()))
        m = random_mixed_model(rng, max_vars=7, max_hard=2, max_soft=5)
        soft = tuple(SoftClause(sc.clause, float(rng.choice([-1e3, 1e3]))) for sc in m.soft)
        models.append(PropMRF(m.num_vars, m.hard, soft + soft[:1]))
    return models


def test_exact_engines_match_brute_force_at_extreme_weights():
    # Seeded differential fuzz of both search modes, with and without the
    # bucket-elimination fallback, and of bucket elimination alone.
    rng = np.random.default_rng(8406)
    checked = 0
    for _ in range(150):
        m = random_mixed_model(rng, max_vars=8, max_hard=3, max_soft=6, max_size=4)
        soft = tuple(SoftClause(sc.clause, float(rng.uniform(-1e3, 1e3))) for sc in m.soft)
        m = PropMRF(m.num_vars, m.hard, soft)
        expected = brute_force_z(m)
        got = [
            fdc_count(m, mode=mode, ve_width_threshold=threshold).log_z
            for mode in (FORMULA, VARIABLE)
            for threshold in (0, 16)
        ] + [ve_count(m)]
        for log_z in got:
            if expected == -math.inf:
                assert log_z == -math.inf
            else:
                assert abs(log_z - expected) <= 1e-12
                checked += 1
    assert checked > 500


def test_exact_marginals_match_enumeration():
    rng = np.random.default_rng(8404)
    models = [
        random_mixed_model(rng, max_vars=8, max_hard=3, max_soft=6, max_size=4)
        for _ in range(60)
    ]
    models += _degenerate_models(rng)
    # Two components that compact to the same model: the second is a cache
    # hit whose stored marginals are placed on its own variables.  In the
    # second model the components differ only by a reordering of variables.
    models.append(
        PropMRF.from_lists(6, hard=[[1, 2], [4, 5]], soft=[(0.5, [1, 3]), (0.5, [4, 6])])
    )
    models.append(
        PropMRF.from_lists(6, hard=[[1, 2], [5, 6]], soft=[(0.5, [1, 3]), (0.5, [4, 5])])
    )
    checked = 0
    for m in models:
        if brute_force_z(m) == -math.inf:
            continue
        expected = brute_force_marginals(m)
        for mode in (FORMULA, VARIABLE):
            for use_cache in (True, False):
                for threshold in (0, 2, 16):
                    got = exact_marginals(
                        m, mode=mode, use_cache=use_cache, ve_width_threshold=threshold
                    )
                    assert got.shape == (m.num_vars,)
                    assert np.all(np.abs(got - expected) <= 1e-12)
                    checked += 1
    assert checked > 600


def test_marginal_search_is_the_counting_search():
    # Same log Z bit for bit, same search statistics, and some cache hits.
    rng = np.random.default_rng(8405)
    hits = 0
    for _ in range(40):
        m = random_mixed_model(rng, max_vars=8, max_hard=2, max_soft=6)
        for mode in (FORMULA, VARIABLE):
            counted = fdc_count(m, mode=mode, ve_width_threshold=0)
            both = fdc_marginals(m, mode=mode, ve_width_threshold=0)
            assert both.log_z == counted.log_z
            assert both.stats == counted.stats
            assert counted.marginals is None
            hits += both.stats.cache_hits
    assert hits > 0


def test_single_clause_marginals_closed_form():
    for lits in ([1], [-1], [1, -2], [-1, 2, -3]):
        for m in (
            PropMRF.from_lists(len(lits), hard=[lits]),
            PropMRF.from_lists(len(lits), soft=[(1.3, lits)]),
            PropMRF.from_lists(len(lits), soft=[(-1e3, lits)]),
        ):
            got = fdc_marginals(m, ve_width_threshold=0)
            assert got.stats.leaves == 1
            assert np.all(np.abs(got.marginals - brute_force_marginals(m)) <= 1e-12)


def test_exact_marginals_reject_zero_partition_function():
    m = PropMRF.from_lists(1, hard=[[1], [-1]])
    with pytest.raises(ValueError):
        exact_marginals(m)


def test_a_ve_leaf_with_zero_partition_function():
    # Every assignment of two variables violates one of the four clauses, and
    # none is a unit, so simplify passes the model on to bucket elimination.
    m = PropMRF.from_lists(2, hard=[[1, 2], [1, -2], [-1, 2], [-1, -2]])
    for mode in (FORMULA, VARIABLE):
        for use_cache in (True, False):
            result = fdc_marginals(m, mode=mode, use_cache=use_cache)
            assert result.log_z == -math.inf
            assert result.marginals is None
            assert (result.stats.nodes, result.stats.leaves) == (0, 1)


# The search's counters and log Z, pinned from the Clause/PropMRF search that
# the bare literal-set core replaced: the core must visit the same nodes and
# leaves and hit the cache on the same keys.  Three counter rows moved when the
# cache key stopped renaming variables by first occurrence and became the
# compacted component with its clause order erased; their log Z did not.
_PINNED_MODELS = {
    "random(12,12,4,3)": lambda: gen_random(12, 12, 4, seed=3),
    "random(16,16,5,7)": lambda: gen_random(16, 16, 5, seed=7),
    "random(18,18,4,11)+ev": lambda: pick_evidence(
        gen_random(18, 18, 4, seed=11), 0.1, seed=4
    ),
    # min-fill width 17: at threshold 16 it conditions once above VE
    "random(18,40,7,0)": lambda: gen_random(18, 40, 7, seed=0),
    "fs(3)": lambda: gen_fs(3),
    "calibration": calibration_model,
}

# (name, mode, ve_width_threshold): (nodes, leaves, cache_hits, cache_entries, log Z)
_PINNED_SEARCH = {
    ("random(12,12,4,3)", "formula", 0): (48, 35, 29, 72, 9.023058713713148),
    ("random(12,12,4,3)", "formula", 16): (0, 1, 0, 1, 9.023058713713148),
    ("random(12,12,4,3)", "variable", 0): (31, 32, 13, 53, 9.023058713713148),
    ("random(12,12,4,3)", "variable", 16): (0, 1, 0, 1, 9.023058713713148),
    ("random(16,16,5,7)", "formula", 0): (334, 130, 333, 408, 10.222712519395524),
    ("random(16,16,5,7)", "formula", 16): (0, 1, 0, 1, 10.222712519395525),
    ("random(16,16,5,7)", "variable", 0): (153, 111, 124, 225, 10.222712519395524),
    ("random(16,16,5,7)", "variable", 16): (0, 1, 0, 1, 10.222712519395525),
    ("random(18,18,4,11)+ev", "formula", 0): (161, 79, 173, 202, 12.651012527268973),
    ("random(18,18,4,11)+ev", "formula", 16): (0, 1, 0, 1, 12.651012527268973),
    ("random(18,18,4,11)+ev", "variable", 0): (84, 69, 86, 119, 12.651012527268973),
    ("random(18,18,4,11)+ev", "variable", 16): (0, 1, 0, 1, 12.651012527268973),
    ("random(18,40,7,0)", "formula", 0): (1602, 605, 1387, 1935, 12.621476212921273),
    ("random(18,40,7,0)", "formula", 16): (1, 2, 0, 3, 12.621476212921273),
    ("random(18,40,7,0)", "variable", 0): (700, 473, 508, 997, 12.621476212921271),
    ("random(18,40,7,0)", "variable", 16): (1, 2, 0, 3, 12.621476212921273),
    ("fs(3)", "formula", 0): (6, 3, 13, 8, 10.887037092226597),
    ("fs(3)", "formula", 16): (0, 1, 0, 1, 10.887037092226596),
    ("fs(3)", "variable", 0): (6, 3, 13, 8, 10.887037092226597),
    ("fs(3)", "variable", 16): (0, 1, 0, 1, 10.887037092226596),
    ("calibration", "formula", 0): (3, 6, 1, 9, 8.00637703729538),
    ("calibration", "formula", 16): (0, 1, 0, 1, 8.00637703729538),
    ("calibration", "variable", 0): (7, 8, 4, 11, 8.00637703729538),
    ("calibration", "variable", 16): (0, 1, 0, 1, 8.00637703729538),
}


@pytest.mark.parametrize("name", list(_PINNED_MODELS))
def test_search_is_pinned(name):
    m = _PINNED_MODELS[name]()
    expected_marginals = brute_force_marginals(m)
    for mode in (FORMULA, VARIABLE):
        for threshold in (0, 16):
            *counters, log_z = _PINNED_SEARCH[name, mode, threshold]
            got = fdc_count(m, mode=mode, ve_width_threshold=threshold)
            stats = got.stats
            assert [stats.nodes, stats.leaves, stats.cache_hits, stats.cache_entries] == counters
            assert abs(got.log_z - log_z) <= 1e-12
            both = fdc_marginals(m, mode=mode, ve_width_threshold=threshold)
            assert both.stats == stats
            assert np.max(np.abs(both.marginals - expected_marginals)) <= 1e-12


def test_search_restores_the_recursion_limit(monkeypatch):
    # The limit is read inside the search too: a search that raised it for
    # its own length would race with other threads.
    m = calibration_model()
    tiny = PropMRF.from_lists(3, soft=[(0.5, [1, 2]), (0.2, [2, -3]), (0.1, [1, 3])])
    seen: list[int] = []

    def recording_simplify(model):
        seen.append(sys.getrecursionlimit())
        return simplify(model)

    monkeypatch.setattr("propmrf.fdc.simplify", recording_simplify)
    before = sys.getrecursionlimit()
    sys.setrecursionlimit(5000)
    try:
        for search in (
            lambda: fdc_count(m, ve_width_threshold=0),
            lambda: fdc_marginals(m, ve_width_threshold=0),
            lambda: minimal_search_space(tiny, FORMULA),
        ):
            seen.clear()
            search()
            assert seen and set(seen) == {5000}
            assert sys.getrecursionlimit() == 5000
    finally:
        sys.setrecursionlimit(before)


def test_search_nests_deeper_than_the_recursion_limit():
    # Variable branching on a 250-variable hard chain conditions 247 times,
    # 124 levels deep: more nested calls than a recursion limit of 200 admits.
    n = 250
    chain = PropMRF.from_lists(n, hard=[[i, i + 1] for i in range(1, n)])
    expected = ve_count(chain)
    limit = sys.getrecursionlimit()
    sys.setrecursionlimit(200)
    try:
        got = fdc_marginals(chain, mode=VARIABLE, ve_width_threshold=0)
    finally:
        sys.setrecursionlimit(limit)
    assert abs(got.log_z - expected) <= 1e-9


@pytest.mark.parametrize("search", ["count", "marginals", "minimal", "fis-jobs1", "fis-jobs2"])
def test_searches_leave_no_cyclic_garbage(search):
    # A search's cache or memo, and the formula sampler's prefix tree with
    # its leaf searches, are freed when the call returns, by reference
    # counting, not left to the cyclic collector.
    m = gen_random(16, 16, 4, seed=3)
    # qmr's leaves close without a search; the random model's need one
    sampled = (
        gen_qmr(15, 15, 7, seed=1002),
        pick_evidence(gen_random(20, 20, 5, seed=901), 0.05, seed=901),
    )
    calls = {
        "fis-jobs1": lambda: [run_fis(s, 200, seed=0, jobs=1) for s in sampled],
        "fis-jobs2": lambda: [run_fis(s, 200, seed=0, jobs=2) for s in sampled],
        "count": lambda: fdc_count(m, ve_width_threshold=0),
        "marginals": lambda: fdc_marginals(m, ve_width_threshold=0),
        "minimal": lambda: minimal_search_space(
            PropMRF.from_lists(
                5, soft=[(0.5, [1, 2, 3]), (0.2, [2, 3, 4]), (-0.4, [3, 4, 5]), (0.3, [1, 5])]
            )
        ),
    }
    enabled = gc.isenabled()
    gc.disable()
    try:
        gc.collect()
        calls[search]()
        assert gc.collect() == 0
    finally:
        if enabled:
            gc.enable()
