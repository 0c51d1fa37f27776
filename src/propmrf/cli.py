"""Command line interface.

Subcommands: count, prob, marginals, sample, gen, eval.  Every run prints one
JSON report (sorted keys, two-space indent) to stdout, or writes it with
--output.  Reports are byte-identical across runs with equal arguments and
seeds except for the elapsed_seconds field.

Exit codes: 0 success, 2 bad usage or invalid argument values, 3 an input
file cannot be read or an output file cannot be written, 4 model, query or
marginal file parse error, 5 instance exceeds a size or width limit, 6
degenerate computation (zero partition function, unsatisfiable hard clauses,
all-zero sample weights, collapsed beliefs), 7 unexpected internal error.

Linear-scale result fields (z, z_hat, std_error, sample_variance) are null
when they lie beyond float range; the log-space fields beside them are
authoritative.  A log-space field is null when its value is the log of zero;
the linear field beside it then reads 0.  A report carries no NaN or
Infinity: one that would is an internal error (exit 7), and --ve-width
beyond ve.MAX_TABLE_WIDTH exits 5 before the model is read.

Environment: PROPMRF_SEED and PROPMRF_JOBS provide defaults for --seed and
--jobs.  --jobs J splits formula sampling into J independently seeded
streams of draws, all drawn in this process on one prefix tree.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import sys
import time

import numpy as np

from .bench import (
    FAMILIES,
    EnumerationTooLargeError,
    GenSpec,
    brute_force_z,
    generate,
    sum_kld,
)
from .bp import BpConfig, BpMarginals, DegenerateBeliefError
from .fdc import (
    FORMULA,
    VARIABLE,
    InstanceTooLargeError,
    SearchStats,
    fdc_count,
    fdc_marginals,
)
from .fis import (
    AllZeroWeightsError,
    FisResult,
    NoConsistentSampleError,
    VisResult,
    fis_marginals,
    run_fis,
    run_vis,
    vis_marginals,
)
from .model import (
    ModelFormatError,
    PropMRF,
    conjoin_query,
    model_fingerprint,
    parse_model,
    parse_query,
    write_model,
)
from .ve import MAX_TABLE_WIDTH, VeWidthError, ve_count

EXIT_OK = 0
EXIT_USAGE = 2
EXIT_MISSING_FILE = 3
EXIT_PARSE = 4
EXIT_LIMITS = 5
EXIT_DEGENERATE = 6
EXIT_INTERNAL = 7


class _CliError(Exception):
    def __init__(self, code: int, message: str):
        super().__init__(message)
        self.code = code


def _read_text(path: str) -> str:
    try:
        with open(path, "r", encoding="utf-8") as handle:
            return handle.read()
    except OSError as exc:
        raise _CliError(EXIT_MISSING_FILE, f"cannot read {path}: {exc}") from exc


def _write_text(path: str, text: str) -> None:
    try:
        with open(path, "w", encoding="utf-8") as handle:
            handle.write(text)
    except OSError as exc:
        raise _CliError(EXIT_MISSING_FILE, f"cannot write {path}: {exc}") from exc


def _load_model(path: str) -> PropMRF:
    return parse_model(_read_text(path))


def _model_block(path: str, m: PropMRF) -> dict:
    return {
        "path": path,
        "fingerprint": model_fingerprint(m),
        "num_vars": m.num_vars,
        "num_hard": len(m.hard),
        "num_soft": len(m.soft),
    }


def _env_int(name: str, fallback: int) -> int:
    raw = os.environ.get(name)
    if raw is None:
        return fallback
    try:
        return int(raw)
    except ValueError:
        raise _CliError(EXIT_USAGE, f"{name} must be an integer, got {raw!r}")


def _emit(report: dict, output: str | None) -> None:
    try:
        text = json.dumps(report, indent=2, sort_keys=True, allow_nan=False) + "\n"
    except ValueError as exc:
        raise RuntimeError(f"the report holds a non-finite value: {exc}") from exc
    if output is None:
        sys.stdout.write(text)
    else:
        _write_text(output, text)


def _linear(value: float) -> float | None:
    """A linear-scale report field: null (None) when beyond float range."""
    return None if math.isinf(value) else value


def _log_field(log_value: float) -> float | None:
    """A log-space report field: null (None) for the log of zero."""
    return None if log_value == -math.inf else log_value


def _exp_or_null(log_value: float) -> float | None:
    try:
        return math.exp(log_value)
    except OverflowError:
        return None


def _stats_block(stats: SearchStats) -> dict:
    return {
        "nodes": stats.nodes,
        "leaves": stats.leaves,
        "cache_hits": stats.cache_hits,
        "cache_entries": stats.cache_entries,
    }


def _count_log_z(m: PropMRF, method: str, use_cache: bool, ve_width: int):
    """Returns (log_z, stats dict or None)."""
    if method in ("fdc", "vdc"):
        mode = FORMULA if method == "fdc" else VARIABLE
        result = fdc_count(
            m, mode=mode, use_cache=use_cache, ve_width_threshold=ve_width
        )
        return result.log_z, _stats_block(result.stats)
    if method == "ve":
        return ve_count(m, max_width=ve_width), None
    return brute_force_z(m), None


def _add_count_options(parser: argparse.ArgumentParser) -> None:
    parser.add_argument(
        "--method",
        choices=("fdc", "vdc", "ve", "brute"),
        default="fdc",
        help="counting method (default fdc)",
    )
    parser.add_argument(
        "--cache",
        choices=("on", "off"),
        default="on",
        help="component caching for fdc/vdc (default on)",
    )
    parser.add_argument(
        "--ve-width",
        type=int,
        default=16,
        metavar="W",
        help="width threshold below which components go to bucket "
        "elimination; also the hard width bound for --method ve "
        "(default 16)",
    )


def _add_sampling_options(parser: argparse.ArgumentParser) -> None:
    parser.add_argument("--samples", type=int, default=1000, metavar="N")
    parser.add_argument("--seed", type=int, default=None)
    parser.add_argument("--bp-iters", type=int, default=1000, metavar="N")
    parser.add_argument("--bp-damping", type=float, default=0.5, metavar="D")
    parser.add_argument(
        "--h-order",
        default=None,
        metavar="I,J,...",
        help="comma separated permutation of soft clause indices (0 based) "
        "giving the formula sampling order",
    )
    parser.add_argument(
        "--jobs",
        type=int,
        default=None,
        metavar="J",
        help="split formula sampling into J independently seeded streams of "
        "draws on one tree in this process (default 1, or PROPMRF_JOBS)",
    )


def _resolve_seed(value: int | None) -> int:
    return _env_int("PROPMRF_SEED", 0) if value is None else value


def _resolve_jobs(value: int | None) -> int:
    jobs = _env_int("PROPMRF_JOBS", 1) if value is None else value
    if jobs < 1:
        raise _CliError(EXIT_USAGE, "--jobs must be positive")
    return jobs


def _parse_h_order(raw: str | None) -> list[int] | None:
    if raw is None:
        return None
    try:
        return [int(tok) for tok in raw.split(",") if tok.strip() != ""]
    except ValueError:
        raise _CliError(EXIT_USAGE, f"--h-order must be comma separated integers, got {raw!r}")


def _cmd_count(args: argparse.Namespace) -> dict:
    m = _load_model(args.model)
    log_z, stats = _count_log_z(m, args.method, args.cache == "on", args.ve_width)
    return {
        "command": "count",
        "model": _model_block(args.model, m),
        "method": args.method,
        "cache": args.cache == "on",
        "ve_width": args.ve_width,
        "result": {"log_z": _log_field(log_z), "z": _exp_or_null(log_z)},
        "stats": stats,
    }


def _cmd_prob(args: argparse.Namespace) -> dict:
    m = _load_model(args.model)
    query = parse_query(_read_text(args.query), m.num_vars)
    log_z, _ = _count_log_z(m, args.method, args.cache == "on", args.ve_width)
    if log_z == -math.inf:
        raise _CliError(
            EXIT_DEGENERATE, "the model's partition function is zero"
        )
    log_zq, _ = _count_log_z(
        conjoin_query(m, query), args.method, args.cache == "on", args.ve_width
    )
    log_prob = log_zq - log_z
    return {
        "command": "prob",
        "model": _model_block(args.model, m),
        "query": {"path": args.query, "num_clauses": len(query)},
        "method": args.method,
        "cache": args.cache == "on",
        "ve_width": args.ve_width,
        "result": {
            "log_prob": _log_field(log_prob),
            "prob": math.exp(log_prob),
            "log_z_model": log_z,
            "log_z_query": _log_field(log_zq),
        },
    }


def _cmd_marginals(args: argparse.Namespace) -> dict:
    m = _load_model(args.model)
    report: dict = {
        "command": "marginals",
        "model": _model_block(args.model, m),
        "method": args.method,
    }
    if args.method == "exact":
        result = fdc_marginals(m, ve_width_threshold=args.ve_width)
        if result.marginals is None:
            raise _CliError(
                EXIT_DEGENERATE, "the model's partition function is zero"
            )
        values = np.clip(result.marginals, 0.0, 1.0)
        report["ve_width"] = args.ve_width
        report["diagnostics"] = _stats_block(result.stats)
    else:
        result, fields = _run_sampler(args, m)
        if args.method == "fis":
            values = fis_marginals(result)
        else:
            values = vis_marginals(result)
        report.update(fields)
    report["result"] = {"marginals": [float(x) for x in values]}
    return report


def _run_sampler(
    args: argparse.Namespace, m: PropMRF
) -> tuple[FisResult | VisResult, dict]:
    """The sampler's result and the report fields that marginals and sample
    share: n_samples, seed, jobs and bp."""
    seed = _resolve_seed(args.seed)
    jobs = _resolve_jobs(args.jobs)
    config = BpConfig(max_iters=args.bp_iters, damping=args.bp_damping)
    if args.method == "fis":
        result = run_fis(
            m,
            args.samples,
            seed=seed,
            bp_config=config,
            h_order=_parse_h_order(args.h_order),
            jobs=jobs,
        )
    else:
        result = run_vis(m, args.samples, seed=seed, bp_config=config)
    return result, {
        "n_samples": args.samples,
        "seed": seed,
        "jobs": jobs,
        "bp": _bp_block(args, result.bp),
    }


def _bp_block(args: argparse.Namespace, bp: BpMarginals) -> dict:
    return {
        "max_iters": args.bp_iters,
        "damping": args.bp_damping,
        "iterations": bp.iterations,
        "converged": bp.converged,
        "final_delta": bp.final_delta,
    }


def _cmd_sample(args: argparse.Namespace) -> dict:
    m = _load_model(args.model)
    result, fields = _run_sampler(args, m)
    estimate = result.estimate
    return {
        "command": "sample",
        "model": _model_block(args.model, m),
        "method": args.method,
        **fields,
        "result": {
            "log_z_hat": _log_field(estimate.log_z_hat),
            "z_hat": _linear(estimate.z_hat),
            "std_error": _linear(estimate.std_error),
            "sample_variance": _linear(estimate.sample_variance),
        },
    }


def _cmd_gen(args: argparse.Namespace) -> dict:
    params: dict[str, int] = {}
    for name in FAMILIES[args.family][1]:
        value = getattr(args, name)
        if value is None:
            flag = "--people" if name == "k" else f"--{name}"
            raise _CliError(
                EXIT_USAGE, f"family {args.family!r} requires {flag}"
            )
        params[name] = value
    seed = _resolve_seed(args.seed)
    spec = GenSpec(
        family=args.family,
        params=params,
        seed=seed,
        weight_low=args.weight_low,
        weight_high=args.weight_high,
        evidence_fraction=args.evidence_frac,
    )
    m = generate(spec)
    _write_text(args.model_output, write_model(m))
    return {
        "command": "gen",
        "family": args.family,
        "params": params,
        "seed": seed,
        "weight_low": args.weight_low,
        "weight_high": args.weight_high,
        "evidence_frac": args.evidence_frac,
        "result": _model_block(args.model_output, m),
    }


def _parse_marginal_file(path: str) -> np.ndarray:
    """One probability per line; blank lines and # comments ignored."""
    values: list[float] = []
    for line_no, line in enumerate(_read_text(path).splitlines(), start=1):
        text = line.strip()
        if not text or text.startswith("#"):
            continue
        try:
            values.append(float(text))
        except ValueError:
            raise _CliError(
                EXIT_PARSE, f"{path}:{line_no}: not a probability: {text!r}"
            )
    if not values:
        raise _CliError(EXIT_PARSE, f"{path}: no marginal values found")
    return np.array(values)


def _cmd_eval(args: argparse.Namespace) -> dict:
    exact = _parse_marginal_file(args.exact)
    estimated = _parse_marginal_file(args.estimated)
    if exact.shape != estimated.shape:
        raise _CliError(
            EXIT_USAGE,
            f"marginal files disagree on length: {exact.size} vs {estimated.size}",
        )
    if not np.all((exact >= 0.0) & (exact <= 1.0)):
        raise _CliError(EXIT_PARSE, f"{args.exact}: probabilities must lie in [0, 1]")
    if not np.all((estimated >= 0.0) & (estimated <= 1.0)):
        raise _CliError(
            EXIT_PARSE, f"{args.estimated}: probabilities must lie in [0, 1]"
        )
    return {
        "command": "eval",
        "exact": args.exact,
        "estimated": args.estimated,
        "result": {"sum_kld": sum_kld(exact, estimated), "num_vars": int(exact.size)},
    }


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="propmrf",
        description="Weighted model counting and inference for propositional "
        "Markov random fields.",
    )
    sub = parser.add_subparsers(dest="subcommand", required=True)

    p_count = sub.add_parser("count", help="log partition function of a model")
    p_count.add_argument("model")
    _add_count_options(p_count)
    p_count.add_argument("--output", default=None)
    p_count.set_defaults(handler=_cmd_count)

    p_prob = sub.add_parser(
        "prob", help="probability that a query formula holds"
    )
    p_prob.add_argument("model")
    p_prob.add_argument("query")
    _add_count_options(p_prob)
    p_prob.add_argument("--output", default=None)
    p_prob.set_defaults(handler=_cmd_prob)

    p_marg = sub.add_parser("marginals", help="per-variable P(true)")
    p_marg.add_argument("model")
    p_marg.add_argument(
        "--method", choices=("exact", "fis", "vis"), default="exact"
    )
    p_marg.add_argument("--ve-width", type=int, default=16, metavar="W")
    _add_sampling_options(p_marg)
    p_marg.add_argument("--output", default=None)
    p_marg.set_defaults(handler=_cmd_marginals)

    p_sample = sub.add_parser(
        "sample", help="importance sampling estimate of the partition function"
    )
    p_sample.add_argument("model")
    p_sample.add_argument("--method", choices=("fis", "vis"), default="fis")
    _add_sampling_options(p_sample)
    p_sample.add_argument("--output", default=None)
    p_sample.set_defaults(handler=_cmd_sample)

    p_gen = sub.add_parser("gen", help="generate a benchmark model file")
    p_gen.add_argument("--family", choices=tuple(FAMILIES), required=True)
    p_gen.add_argument("--n", type=int, default=None)
    p_gen.add_argument("--m", type=int, default=None)
    p_gen.add_argument("--s", type=int, default=None)
    p_gen.add_argument("--d", type=int, default=None)
    p_gen.add_argument("--f", type=int, default=None)
    p_gen.add_argument("--people", type=int, default=None, metavar="K", dest="k")
    p_gen.add_argument("--seed", type=int, default=None)
    p_gen.add_argument("--weight-low", type=float, default=-1.0)
    p_gen.add_argument("--weight-high", type=float, default=1.0)
    p_gen.add_argument("--evidence-frac", type=float, default=0.0)
    p_gen.add_argument(
        "--output", required=True, dest="model_output",
        help="destination path for the generated model file",
    )
    p_gen.set_defaults(handler=_cmd_gen)

    p_eval = sub.add_parser(
        "eval", help="sum of per-variable KL divergences between marginal files"
    )
    p_eval.add_argument("exact")
    p_eval.add_argument("estimated")
    p_eval.add_argument("--output", default=None)
    p_eval.set_defaults(handler=_cmd_eval)

    return parser


def main(argv: list[str] | None = None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return EXIT_USAGE if exc.code not in (0, None) else EXIT_OK
    started = time.perf_counter()
    try:
        if getattr(args, "ve_width", 0) > MAX_TABLE_WIDTH:
            raise _CliError(
                EXIT_LIMITS,
                f"--ve-width {args.ve_width} exceeds the table width limit {MAX_TABLE_WIDTH}",
            )
        report = args.handler(args)
        report["elapsed_seconds"] = round(time.perf_counter() - started, 6)
        _emit(report, getattr(args, "output", None))
    except _CliError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return exc.code
    except ModelFormatError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_PARSE
    except (EnumerationTooLargeError, VeWidthError, InstanceTooLargeError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_LIMITS
    except (
        NoConsistentSampleError,
        AllZeroWeightsError,
        DegenerateBeliefError,
    ) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_DEGENERATE
    except ValueError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_USAGE
    except Exception as exc:  # pragma: no cover - safety net
        # Name the type: a bare MemoryError has no message.
        print(f"internal error: {type(exc).__name__}: {exc}".removesuffix(": "), file=sys.stderr)
        return EXIT_INTERNAL
    return EXIT_OK


if __name__ == "__main__":
    sys.exit(main())
