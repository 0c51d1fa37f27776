"""The four benchmark workloads: instance sets, jobs, references and checks.

Every workload is a closed loop with one client: the benchmark runs one job
on one instance, waits for it, and starts the next.  Instances are GenSpec
descriptions drawn from the benchmark seed, so the same seed gives the same
models.  References are computed outside the timed passes and never call the
code path they check.

- exact    exact_marginals (n + 1 fdc_count calls) on random(30,30,5) with VE
           threshold 16.  The instances are stratified by min-fill width, four
           each of widths 16, 17 and 18, so conditioning happens at the top and
           bucket elimination at the leaves.  Stresses graph.minfill and ve.
- search   fdc_count with ve_width_threshold=0 in formula and variable mode
           (FDC vs VDC) on random(24,24,5), stratified by min-fill width.
           Pure conditioning search: simplify, components, canonical key/cache
           and branch choice; never min-fill or VE, and the only workload
           where the component cache hits.
- fis      run_fis + fis_marginals and run_vis + vis_marginals, 2000 samples
           each, jobs=1, on random(20,20,5) with 5% evidence.  Formula prefixes
           are heavily shared; BP is most of run_vis.
- fis_qmr  run_fis (1000 samples, jobs=2) + fis_marginals on qmr(15,15,7).
           Prefixes are barely shared, so unit propagation and many small
           hard-only counts dominate; the only workload using the process pool.

The formula-mode minimal_search_space is not a workload: it took 388 s on
random(8,5,3,seed=0) and about 90 s of the test suite on the calibration
model, too long for a run.
"""

from __future__ import annotations

import math
import random
import time
from dataclasses import dataclass
from typing import Callable

import numpy as np

EXACT_TOL = 1e-9


def _call(tracer, name: str, fn: Callable, *args, **kwargs):
    if tracer is None:
        return fn(*args, **kwargs)
    return tracer.call(name, fn, *args, **kwargs)


def _kong_ess_ratio(log_w: np.ndarray) -> float:
    """Kong effective sample size over N: (sum w)^2 / (N sum w^2)."""
    log_w = np.asarray(log_w, dtype=np.float64)
    finite = log_w[np.isfinite(log_w)]
    if finite.size == 0:
        return 0.0
    w = np.exp(finite - finite.max())
    return float(w.sum() ** 2 / (log_w.size * np.sum(w * w)))


def _minfill_width(scopes: list[tuple[int, ...]]) -> int:
    """Greedy min-fill width (fewest fill edges, smallest index on ties).

    The benchmark's own copy, used only to stratify instances, so that the
    instance set does not depend on the library code being measured.
    """
    adj: dict[int, set[int]] = {}
    for scope in scopes:
        for u in scope:
            adj.setdefault(u, set()).update(v for v in scope if v != u)

    def fill(v: int) -> int:
        nbrs = sorted(adj[v])
        return sum(
            1 for i, a in enumerate(nbrs) for b in nbrs[i + 1 :] if b not in adj[a]
        )

    width = 0
    while adj:
        v = min(sorted(adj), key=fill)
        nbrs = adj.pop(v)
        width = max(width, len(nbrs))
        for u in nbrs:
            adj[u].discard(v)
            adj[u].update(nbrs - {u})
    return width


def _seeds(seed: int, tag: str):
    rng = random.Random(f"{tag}:{seed}")
    while True:
        yield rng.randrange(2**31)


def _stratified(api, seed: int, tag: str, params: dict, quotas: dict[int, int]) -> list[dict]:
    """Instances of the random family drawn from the seed, keeping quotas[w]
    of each min-fill width w and skipping the rest.

    Search and elimination cost grow with the width, so fixed quotas keep the
    work in a pass from swinging with the draw; a different seed still gives
    different models.
    """
    chosen: dict[int, list[dict]] = {w: [] for w in quotas}
    for s in _seeds(seed, tag):
        spec = {"family": "random", "params": params, "seed": s}
        m = api.generate(api.GenSpec(**spec))
        w = _minfill_width([tuple(sorted(c.variables)) for c in m.iter_clauses()])
        if w in chosen and len(chosen[w]) < quotas[w]:
            chosen[w].append(spec)
            if all(len(chosen[v]) == quotas[v] for v in quotas):
                return [spec for v in sorted(quotas) for spec in chosen[v]]
    raise AssertionError("unreachable")


@dataclass(frozen=True)
class Workload:
    name: str
    instances: Callable  # (api, seed) -> list of GenSpec keyword dicts
    job: Callable  # (api, model, spec, tracer) -> record
    reference: Callable  # (api, model) -> dict
    check: Callable  # (record, reference) -> list of problems
    accuracy: Callable | None = None  # (api, record, reference) -> dict of errors
    jobs: int = 1  # worker processes a job uses


def _log_z_and_marginals_by_ve(api, m) -> dict:
    """log Z and P(v = true) by bucket elimination along one min-fill order.

    A hard unit clause on v adds no edge to the primal graph, so the base
    model's order serves every conditioned model once v is in it.
    """
    order = api.minfill_width(m).order
    log_z = api.ve_count(m, order=order)
    marg = []
    for v in range(1, m.num_vars + 1):
        cond = api.PropMRF(m.num_vars, m.hard + (api.Clause([v]),), m.soft)
        cond_order = order if v in order else order + (v,)
        marg.append(math.exp(api.ve_count(cond, order=cond_order) - log_z))
    return {"log_z": log_z, "marginals": np.array(marg)}


def _marginal_problems(name: str, marg, ref=None) -> list[str]:
    marg = np.asarray(marg)
    problems = []
    if not np.all(np.isfinite(marg)) or marg.min() < 0.0 or marg.max() > 1.0:
        problems.append(f"{name} marginals outside [0, 1]")
    if ref is not None:
        err = float(np.max(np.abs(marg - ref)))
        if not err <= EXACT_TOL:
            problems.append(f"{name} marginals off by {err:.3g}")
    return problems


# --- exact -------------------------------------------------------------------

# Four instances each of min-fill widths 16, 17 and 18.
EXACT_WIDTHS = {16: 4, 17: 4, 18: 4}


def _exact_instances(api, seed: int) -> list[dict]:
    return _stratified(api, seed, "exact", {"n": 30, "m": 30, "s": 5}, EXACT_WIDTHS)


def _exact_job(api, m, spec, tracer) -> dict:
    marg = _call(
        tracer, "fdc.marginals", api.fdc.exact_marginals, m, ve_width_threshold=16
    )
    return {"result": {"marginals": marg.tolist()}}


def _exact_check(record, ref) -> list[str]:
    return _marginal_problems("exact", record["result"]["marginals"], ref["marginals"])


# --- search ------------------------------------------------------------------

# 14 instances, in about the proportions of the widths random(24,24,5) has.
SEARCH_WIDTHS = {13: 2, 14: 5, 15: 5, 16: 2}


def _search_instances(api, seed: int) -> list[dict]:
    return _stratified(api, seed, "search", {"n": 24, "m": 24, "s": 5}, SEARCH_WIDTHS)


def _search_job(api, m, spec, tracer) -> dict:
    result = {}
    for mode in (api.FORMULA, api.VARIABLE):
        r = api.fdc.fdc_count(m, mode=mode, ve_width_threshold=0)
        result[mode] = {
            "log_z": r.log_z,
            "nodes": r.stats.nodes,
            "leaves": r.stats.leaves,
            "cache_hits": r.stats.cache_hits,
        }
    return {"result": result}


def _search_reference(api, m) -> dict:
    return {"log_z": api.ve_count(m)}


def _search_check(record, ref) -> list[str]:
    problems = []
    for mode, r in record["result"].items():
        err = abs(r["log_z"] - ref["log_z"])
        if not err <= EXACT_TOL:
            problems.append(f"{mode} log Z off by {err:.3g}")
    return problems


# --- fis ---------------------------------------------------------------------

FIS_INSTANCES = 6
FIS_SAMPLES = 2000


def _fis_instances(api, seed: int) -> list[dict]:
    seeds = _seeds(seed, "fis")
    return [
        {
            "family": "random",
            "params": {"n": 20, "m": 20, "s": 5},
            "seed": next(seeds),
            "evidence_fraction": 0.05,
        }
        for _ in range(FIS_INSTANCES)
    ]


def _sampler_job(api, m, seed, tracer, n_samples, jobs, with_vis) -> dict:
    t0 = time.perf_counter()
    rf = _call(tracer, "fis.run", api.fis.run_fis, m, n_samples, seed=seed, jobs=jobs)
    sample_s = time.perf_counter() - t0
    fm = _call(tracer, "fis.marginals", api.fis.fis_marginals, rf)
    fis_log_w = [s.log_estimate for s in rf.samples]
    result = {
        "fis_log_z": rf.estimate.log_z_hat,
        "fis_marginals": fm.tolist(),
        "fis_distinct": len({s.h.values for s in rf.samples}),
        "fis_ess_ratio": _kong_ess_ratio(fis_log_w),
    }
    samples = n_samples
    # Satisfiability checks the sampler asks for: one on the hard clauses,
    # then two per soft clause per draw, when the draws run in this process.
    sat_requests = 1 + (2 * n_samples * len(m.soft) if jobs == 1 else 0)
    if with_vis:
        t0 = time.perf_counter()
        rv = _call(tracer, "vis.run", api.fis.run_vis, m, n_samples, seed=seed)
        sample_s += time.perf_counter() - t0
        vm = _call(tracer, "vis.marginals", api.fis.vis_marginals, rv)
        result.update(
            vis_log_z=rv.estimate.log_z_hat,
            vis_marginals=vm.tolist(),
            vis_ess_ratio=_kong_ess_ratio(rv.log_weights),
        )
        samples += n_samples
        sat_requests += 1
    return {
        "result": result,
        "samples": samples,
        "samples_fis": n_samples,
        "sample_s": sample_s,
        "sat_requests": sat_requests,
    }


def _fis_job(api, m, spec, tracer) -> dict:
    return _sampler_job(api, m, spec["seed"], tracer, FIS_SAMPLES, 1, True)


def _brute_reference(api, m) -> dict:
    return {"log_z": api.brute_force_z(m), "marginals": api.brute_force_marginals(m)}


def _sampler_check(record, ref) -> list[str]:
    problems = []
    r = record["result"]
    for kind in ("fis", "vis"):
        if kind + "_log_z" not in r:
            continue
        if not math.isfinite(r[kind + "_log_z"]):
            problems.append(f"{kind} log Z estimate is not finite")
        problems += _marginal_problems(kind, r[kind + "_marginals"])
    return problems


def _sampler_accuracy(api, record, ref) -> dict:
    r = record["result"]
    out = {}
    for kind in ("fis", "vis"):
        if kind + "_log_z" in r:
            out[kind + "_log_z_err"] = abs(r[kind + "_log_z"] - ref["log_z"])
            out[kind + "_marginal_kld"] = api.sum_kld(
                ref["marginals"], np.asarray(r[kind + "_marginals"])
            )
    return out


# --- fis_qmr -----------------------------------------------------------------

QMR_INSTANCES = 5
QMR_SAMPLES = 1000
QMR_JOBS = 2


def _qmr_instances(api, seed: int) -> list[dict]:
    seeds = _seeds(seed, "fis_qmr")
    return [
        {"family": "qmr", "params": {"d": 15, "f": 15, "s": 7}, "seed": next(seeds)}
        for _ in range(QMR_INSTANCES)
    ]


def _qmr_job(api, m, spec, tracer) -> dict:
    return _sampler_job(api, m, spec["seed"], tracer, QMR_SAMPLES, QMR_JOBS, False)


WORKLOADS = {
    w.name: w
    for w in (
        Workload("exact", _exact_instances, _exact_job, _log_z_and_marginals_by_ve, _exact_check),
        Workload("search", _search_instances, _search_job, _search_reference, _search_check),
        Workload(
            "fis", _fis_instances, _fis_job, _brute_reference, _sampler_check, _sampler_accuracy
        ),
        Workload(
            "fis_qmr", _qmr_instances, _qmr_job, _log_z_and_marginals_by_ve,
            _sampler_check, _sampler_accuracy, jobs=QMR_JOBS,
        ),
    )
}
