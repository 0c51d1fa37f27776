"""Exact partition functions and marginals by decomposition and clause
conditioning, searched on an explicit stack.

Each search call simplifies its model, which in the same pass splits it
into independent components along the primal graph, and otherwise
conditions each component on a branching clause R: the component's
partition function is the sum of the partition functions of the true branch
(R appended as a hard clause) and the false branch (every literal of R
forced false).  Branching clauses may be whole sub-clauses shared between
clauses ("formula" mode) or single variables ("variable" mode).

A call counts as a leaf when simplification resolves it outright (zero or
scalar), when a single clause remains (closed form: a hard clause of size s
admits 2^s - 1 models; a soft one contributes (2^s - 1)e^w + 1), or when the
model's min-fill width is small enough to hand it to bucket elimination.
Conditioning contributes one node and two child calls; decomposition children
accumulate their own counts without adding a node.  Calls are generators
that _run drives on a list, so no search touches Python's recursion limit.

Component results are cached under canonical_key.  simplify compacts each
component once, straight from the numbering of the model it was given, to
variables 1..k in ascending order, and the key is that model with its clause
order erased, so a submodel met again on another branch, or under any
order-preserving renaming, is solved once.

fdc_count, fdc_marginals and minimal_search_space run on the model's own
form, the (num_vars, hard, soft) triple of model.PropMRF whose clauses are
frozensets of literals.  fdc_count and fdc_marginals also take a plain tuple
of plain frozensets of that shape: the formula sampler hands fdc_marginals
each leaf's propagated state, its forced literals as unit clauses and its
residual clauses.  Every clause the search derives is a subset or an
injective renaming of a validated one, so nothing inside is validated
again.  The layer steps (simplify, canonical_key, choose_branch_clause,
condition_on_clause, minfill_width, clauses_to_factors) are called through
this module's names once per step.

fdc_marginals runs the same search and returns P(v = true) for every
variable along with log Z.  Each call returns its model's marginals next to
its log Z on the way back up, which reads the search trace as a
decision-DNNF circuit and differentiates it (Darwiche, JACM 2003):
simplification and decomposition place each component's marginals at the
component's variables in the call's numbering (forced variables are
certain, swept ones fair coins), conditioning mixes its branches' marginals
by their shares exp(log Z_branch - log Z), single-clause leaves have a
closed form, and bucket-elimination leaves run the bucket tree's downward
pass.  Cache entries hold marginals in the component's own numbering, so a
hit returns them as stored.  fdc_count does none of this work.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass
from typing import Generator, TypeVar

import numpy as np

# The search does not call connected_components; the benchmark's tracer
# wraps it under this module's name.
from .graph import connected_components, minfill_width  # noqa: F401
from .model import BareClause, BareModel, PropMRF, literal_key
from .simplify import SimplifyOutcome, SimplifyStatus, simplify
from .ve import LN2, MAX_TABLE_WIDTH, bucket_elimination, bucket_tree, clauses_to_factors

FORMULA = "formula"
VARIABLE = "variable"
_MODES = (FORMULA, VARIABLE)


class InstanceTooLargeError(ValueError):
    pass


@dataclass
class SearchStats:
    nodes: int = 0
    leaves: int = 0
    cache_hits: int = 0
    cache_entries: int = 0


@dataclass(frozen=True)
class BranchCandidate:
    clause: BareClause
    occurrence_count: int
    size: int


@dataclass(frozen=True)
class ExactResult:
    log_z: float
    stats: SearchStats
    marginals: np.ndarray | None = None


_Result = tuple[float, np.ndarray | None]
_T = TypeVar("_T")


def condition_on_clause(m: BareModel, r: BareClause) -> tuple[BareModel, BareModel]:
    """The two conditioned models: r holds / every literal of r fails.

    Z(m) = Z(true branch) + Z(false branch), since the branches partition the
    assignments of m.
    """
    num_vars, hard, soft = m
    units = tuple(frozenset((-l,)) for l in sorted(r, key=abs))
    return (num_vars, hard + (r,), soft), (num_vars, hard + units, soft)


def _literal_seq_key(lits: frozenset[int]) -> tuple[tuple[int, bool], ...]:
    return tuple(literal_key(l) for l in sorted(lits, key=abs))


def choose_branch_clause(m: BareModel, mode: str = FORMULA) -> BranchCandidate:
    """Branching heuristic: the largest sub-clause common to the most clauses.

    Formula mode scans all pairwise literal-set intersections and maximizes
    (occurrence count, size), breaking ties toward the smallest sorted literal
    sequence; if every intersection is empty it falls back to the most
    frequent single literal.  Variable mode picks the variable occurring in
    the most clauses (smallest index on ties) as a positive unit clause.
    """
    _, hard, soft = m
    clauses = list(hard)
    clauses.extend(c for c, _ in soft)
    if not clauses:
        raise ValueError("model has no clauses to branch on")

    if mode == VARIABLE:
        counts: dict[int, int] = {}
        for lits in clauses:
            for lit in lits:
                counts[abs(lit)] = counts.get(abs(lit), 0) + 1
        best_var = min(counts, key=lambda v: (-counts[v], v))
        return BranchCandidate(frozenset((best_var,)), counts[best_var], 1)

    intersections: set[frozenset[int]] = set()
    for i, a in enumerate(clauses):
        for b in clauses[i + 1 :]:
            if not a.isdisjoint(b):
                intersections.add(a & b)
    if intersections:
        score = {r: (sum(map(r.issubset, clauses)), len(r)) for r in intersections}
        top = max(score.values())
        tied = [r for r, s in score.items() if s == top]
        best = tied[0] if len(tied) == 1 else min(tied, key=_literal_seq_key)
        return BranchCandidate(best, *top)

    lit_counts: dict[int, int] = {}
    for lits in clauses:
        for lit in lits:
            lit_counts[lit] = lit_counts.get(lit, 0) + 1
    best_lit = min(lit_counts, key=lambda l: (-lit_counts[l], literal_key(l)))
    return BranchCandidate(frozenset((best_lit,)), lit_counts[best_lit], 1)


def canonical_key(m: BareModel, with_weights: bool = True):
    """Hashable form of m that forgets the order of its clauses: num_vars,
    the sorted hard clauses and the sorted soft clauses, each clause the
    tuple of its literals sorted by variable.  with_weights=False drops the
    soft weights.

    No variable is renamed, so equal keys mean the same clauses over the
    same variables.  The search keys components compacted to 1..k in
    ascending order, so a submodel met again under any order-preserving
    renaming gets the same key, and its cached marginals are already in the
    component's numbering.
    """
    num_vars, hard, soft = m
    hard_keys = sorted([tuple(sorted(c, key=abs)) for c in hard])
    if with_weights:
        soft_keys = sorted([(tuple(sorted(c, key=abs)), w) for c, w in soft])
    else:
        soft_keys = sorted([tuple(sorted(c, key=abs)) for c, _ in soft])
    return (num_vars, tuple(hard_keys), tuple(soft_keys))


def _single_clause_log_z(m: BareModel) -> float:
    """Closed form for a model reduced to exactly one clause over its variables."""
    _, hard, soft = m
    if hard:
        return math.log(2 ** len(hard[0]) - 1)
    clause, weight = soft[0]
    return float(np.logaddexp(math.log(2 ** len(clause) - 1) + weight, 0.0))


def _single_clause_marginals(m: BareModel, log_z: float) -> np.ndarray:
    """P(v = true) under one clause over all s variables of m.

    Setting a variable so that its literal holds satisfies the clause for all
    2^(s-1) settings of the rest; setting it the other way leaves the
    2^(s-1) - 1 settings that satisfy the rest of the clause, plus, for a
    soft clause, the one falsifying setting at potential 1.
    """
    num_vars, hard, soft = m
    clause = hard[0] if hard else soft[0][0]
    half = 2 ** (len(clause) - 1)
    if hard:
        p_holds = half / (2 * half - 1)
        p_fails = (half - 1) / (2 * half - 1)
    else:
        w = soft[0][1]
        p_holds = math.exp((len(clause) - 1) * LN2 + w - log_z)
        log_fails = float(np.logaddexp(math.log(half - 1) + w, 0.0)) if half > 1 else 0.0
        p_fails = math.exp(log_fails - log_z)
    marginals = np.empty(num_vars)
    for lit in clause:
        marginals[abs(lit) - 1] = p_holds if lit > 0 else p_fails
    return marginals


def _lift(out: SimplifyOutcome, num_vars: int) -> np.ndarray:
    """Marginals of the model simplify() was given, outside its components:
    forced variables are certain and swept variables are fair coins."""
    marginals = np.full(num_vars, 0.5)
    for lit in out.forced:
        marginals[abs(lit) - 1] = 1.0 if lit > 0 else 0.0
    return marginals


def _run(call: Generator[Generator, object, _T]) -> _T:
    """The value of a search call: a generator that yields each nested call's
    generator and is sent back its value.  Suspended calls wait on a list, so
    the search depth is bounded by memory, not by Python's stack."""
    stack, value = [call], None
    while stack:
        try:
            stack.append(stack[-1].send(value))
            value = None
        except StopIteration as done:
            stack.pop()
            value = done.value
    return value


def _search(
    m: BareModel,
    mode: str,
    use_cache: bool,
    ve_width_threshold: int,
    with_marginals: bool,
) -> ExactResult:
    """The FDC search behind fdc_count and fdc_marginals.

    solve runs once per simplify call and yields solve on both branches of
    a conditioned component.  Every call returns (log Z, marginals); the
    marginals are None when with_marginals is off or Z is zero, so counting
    alone does no marginal work.
    """
    if mode not in _MODES:
        raise ValueError(f"unknown branching mode {mode!r}")
    stats = SearchStats()
    cache: dict | None = {} if use_cache else None
    # No leaf table may exceed the cap, whatever the caller's threshold.
    threshold = min(ve_width_threshold, MAX_TABLE_WIDTH)

    def leaf(model: BareModel) -> _Result | None:
        """A single-clause or bucket-elimination leaf; None when model branches."""
        num_vars, hard, soft = model
        if len(hard) + len(soft) == 1:
            stats.leaves += 1
            log_z = _single_clause_log_z(model)
            if not with_marginals:
                return log_z, None
            return log_z, _single_clause_marginals(model, log_z)
        if threshold > 0:
            estimate = minfill_width(model, threshold)
            if estimate.width < threshold:
                stats.leaves += 1
                bound = estimate.width + 1
                factors = clauses_to_factors(model, max_width=bound)
                if not with_marginals:
                    return bucket_elimination(factors, estimate.order, max_width=bound), None
                log_z, in_order = bucket_tree(factors, estimate.order, max_width=bound)
                if in_order is None:
                    return log_z, None
                marginals = np.empty(num_vars)
                marginals[np.array(estimate.order) - 1] = in_order
                return log_z, marginals
        return None

    def solve(model: BareModel) -> Generator[Generator, _Result, _Result]:
        out = simplify(model)
        if out.status is SimplifyStatus.ZERO:
            stats.leaves += 1
            return float("-inf"), None
        if out.status is SimplifyStatus.SCALAR:
            stats.leaves += 1
            if not with_marginals:
                return out.log_weight, None
            return out.log_weight, _lift(out, model[0])
        parts = []
        for component in out.components:
            c = component.model
            if cache is not None:
                key = canonical_key(c)
                hit = cache.get(key)
                if hit is not None:
                    stats.cache_hits += 1
                    parts.append(hit)
                    continue
            part = leaf(c)
            if part is None:
                stats.nodes += 1
                m_true, m_false = condition_on_clause(c, choose_branch_clause(c, mode).clause)
                z_true, marg_true = yield solve(m_true)
                z_false, marg_false = yield solve(m_false)
                log_z = float(np.logaddexp(z_true, z_false))
                part = log_z, None
                if with_marginals and log_z != -math.inf:
                    marginals = np.zeros(c[0])
                    for z_branch, marg_branch in ((z_true, marg_true), (z_false, marg_false)):
                        if z_branch != -math.inf:
                            marginals += math.exp(z_branch - log_z) * marg_branch
                    part = log_z, marginals
            if cache is not None:
                cache[key] = part
            parts.append(part)
        log_z = out.log_weight + sum(part[0] for part in parts)
        if not with_marginals or log_z == -math.inf:
            return log_z, None
        marginals = _lift(out, model[0])
        for component, (_, part) in zip(out.components, parts):
            marginals[np.array(component.variables) - 1] = part
        return log_z, marginals

    try:
        log_z, marginals = _run(solve(m))
    finally:
        # solve's closure holds solve: break that cycle, or the cache it
        # reaches waits for the cyclic garbage collector.
        solve = None
    if cache is not None:
        stats.cache_entries = len(cache)
    return ExactResult(log_z, stats, marginals)


def fdc_count(
    m: BareModel,
    mode: str = FORMULA,
    use_cache: bool = True,
    ve_width_threshold: int = 16,
) -> ExactResult:
    """Exact log partition function; -inf when the hard clauses are unsatisfiable.

    ve_width_threshold hands any component whose min-fill width is below the
    threshold to bucket elimination; 0 disables the fallback.  Cache on and
    off produce identical values; only the statistics differ.
    """
    return _search(m, mode, use_cache, ve_width_threshold, with_marginals=False)


def fdc_marginals(
    m: BareModel,
    mode: str = FORMULA,
    use_cache: bool = True,
    ve_width_threshold: int = 16,
) -> ExactResult:
    """fdc_count's search that also returns P(v = true) for every variable.

    One upward and one downward pass: the search trace is read as a
    decision-DNNF circuit and differentiated.  Conditioning nodes mix their
    branches' marginals by the branches' shares of Z, decomposition nodes
    concatenate their components' marginals, and bucket-elimination leaves
    run the bucket-tree pass.  The marginals are None when Z is zero.
    """
    return _search(m, mode, use_cache, ve_width_threshold, with_marginals=True)


def _branch_candidates(m: BareModel, mode: str) -> list[BareClause]:
    num_vars, hard, soft = m
    if mode == VARIABLE:
        return [frozenset((v,)) for v in range(1, num_vars + 1)]
    soft_sets = [c for c, _ in soft]
    subsets: set[frozenset[int]] = set()
    for lits in list(hard) + soft_sets:
        ordered = sorted(lits, key=abs)
        for size in range(1, len(ordered) + 1):
            for combo in itertools.combinations(ordered, size):
                subsets.add(frozenset(combo))
    progressive = [
        r
        for r in subsets
        if any(r <= s for s in soft_sets)
        or any(r < h for h in hard)
    ]
    progressive.sort(key=lambda r: (len(r), _literal_seq_key(r)))
    return progressive


def minimal_search_space(m: PropMRF, mode: str = FORMULA) -> SearchStats:
    """Exhaustively minimized (leaves, nodes) over every branching choice.

    Uses the same leaf convention as fdc_count but with caching off and no
    bucket-elimination fallback, so the counts describe the smallest pure
    conditioning/decomposition search space.  Only practical for tiny models.
    Like the search, it runs under _run.
    """
    if mode not in _MODES:
        raise ValueError(f"unknown branching mode {mode!r}")
    if m.num_vars > 10 or m.num_clauses > 6:
        raise InstanceTooLargeError(
            f"minimal_search_space supports at most 10 variables and 6 clauses, "
            f"got {m.num_vars} and {m.num_clauses}"
        )
    memo: dict = {}

    def best(model: BareModel) -> Generator[Generator, tuple[int, int], tuple[int, int]]:
        out = simplify(model)
        if out.status is not SimplifyStatus.OPEN:
            return (1, 0)
        leaves = nodes = 0
        for component in out.components:
            c = component.model
            key = canonical_key(c, with_weights=False)
            cost = memo.get(key)
            if cost is None:
                if len(c[1]) + len(c[2]) == 1:
                    cost = (1, 0)
                else:
                    for r in _branch_candidates(c, mode):
                        m_true, m_false = condition_on_clause(c, r)
                        t_leaves, t_nodes = yield best(m_true)
                        f_leaves, f_nodes = yield best(m_false)
                        branched = (t_leaves + f_leaves, t_nodes + f_nodes + 1)
                        if cost is None or branched < cost:
                            cost = branched
                    assert cost is not None
                memo[key] = cost
            leaves += cost[0]
            nodes += cost[1]
        return (leaves, nodes)

    try:
        leaves, nodes = _run(best(m))
    finally:
        best = None  # as in _search: free the memo without the cyclic collector
    return SearchStats(nodes=nodes, leaves=leaves)


def exact_marginals(
    m: PropMRF,
    mode: str = FORMULA,
    use_cache: bool = True,
    ve_width_threshold: int = 16,
) -> np.ndarray:
    """Exact P(v = true) for every variable, from one fdc_marginals search."""
    marginals = fdc_marginals(
        m, mode=mode, use_cache=use_cache, ve_width_threshold=ve_width_threshold
    ).marginals
    if marginals is None:
        raise ValueError("all assignments have zero weight; marginals undefined")
    return np.clip(marginals, 0.0, 1.0)
