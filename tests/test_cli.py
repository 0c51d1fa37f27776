import json
import math

import numpy as np
import pytest

from propmrf import (
    Clause,
    PropMRF,
    SoftClause,
    brute_force_marginals,
    VeWidthError,
    brute_force_z,
    fdc_count,
    gen_random,
    model_fingerprint,
    run_bp,
    ve_count,
    write_model,
)
from propmrf.cli import main


def run_cli(argv, capsys):
    code = main(argv)
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def run_json(argv, capsys):
    code, out, err = run_cli(argv, capsys)
    assert code == 0, err
    return json.loads(out)


def strip_elapsed(text: str) -> str:
    return "\n".join(
        line for line in text.splitlines() if '"elapsed_seconds"' not in line
    )


@pytest.fixture
def mixed_model_file(tmp_path):
    m = PropMRF.from_lists(
        5,
        hard=[[1, 2, -3]],
        soft=[(0.8, [2, 4]), (-0.5, [-1, 5]), (0.3, [3])],
    )
    path = tmp_path / "mixed.pmrf"
    path.write_text(write_model(m))
    return str(path), m


@pytest.fixture
def soft_model_file(tmp_path):
    m = gen_random(6, 4, 2, seed=3)
    path = tmp_path / "soft.pmrf"
    path.write_text(write_model(m))
    return str(path), m


def test_count_matches_engine(mixed_model_file, capsys):
    path, m = mixed_model_file
    report = run_json(["count", path], capsys)
    assert report["command"] == "count"
    assert report["method"] == "fdc"
    assert report["model"]["fingerprint"] == model_fingerprint(m)
    assert report["model"]["num_vars"] == 5
    assert report["model"]["num_hard"] == 1
    assert report["model"]["num_soft"] == 3
    exact = fdc_count(m)
    assert report["result"]["log_z"] == pytest.approx(exact.log_z, rel=1e-12)
    assert report["result"]["z"] == pytest.approx(math.exp(exact.log_z), rel=1e-12)
    assert report["stats"]["leaves"] >= 1
    assert "elapsed_seconds" in report


def test_count_methods_agree(mixed_model_file, capsys):
    path, m = mixed_model_file
    values = [
        run_json(["count", path, "--method", method], capsys)["result"]["log_z"]
        for method in ("fdc", "vdc", "ve", "brute")
    ]
    assert values[0] == pytest.approx(brute_force_z(m), abs=1e-9)
    for value in values[1:]:
        assert value == pytest.approx(values[0], abs=1e-9)
    no_cache = run_json(["count", path, "--cache", "off"], capsys)
    assert no_cache["result"]["log_z"] == pytest.approx(values[0], abs=1e-12)
    assert no_cache["stats"]["cache_hits"] == 0


def test_reports_are_byte_stable_except_elapsed(mixed_model_file, capsys):
    path, _ = mixed_model_file
    _, first, _ = run_cli(["count", path], capsys)
    _, second, _ = run_cli(["count", path], capsys)
    assert strip_elapsed(first) == strip_elapsed(second)
    assert first.endswith("\n")


def test_output_flag_writes_report_file(mixed_model_file, tmp_path, capsys):
    path, _ = mixed_model_file
    out_path = tmp_path / "report.json"
    code, out, _ = run_cli(["count", path, "--output", str(out_path)], capsys)
    assert code == 0
    assert out == ""
    report = json.loads(out_path.read_text())
    assert report["command"] == "count"


def test_prob_matches_brute_force_ratio(mixed_model_file, tmp_path, capsys):
    path, m = mixed_model_file
    query = tmp_path / "query.txt"
    query.write_text("2 -4 0\n5 0\n")
    report = run_json(["prob", path, str(query)], capsys)
    conjoined = PropMRF(
        num_vars=m.num_vars,
        hard=m.hard + (Clause([2, -4]), Clause([5])),
        soft=m.soft,
    )
    expected = math.exp(brute_force_z(conjoined) - brute_force_z(m))
    assert report["result"]["prob"] == pytest.approx(expected, abs=1e-9)
    assert report["query"]["num_clauses"] == 2
    assert 0.0 <= report["result"]["prob"] <= 1.0


def test_prob_degenerate_model_exits_6(tmp_path, capsys):
    m = PropMRF.from_lists(2, hard=[[1], [-1]], soft=[(0.5, [2])])
    path = tmp_path / "unsat.pmrf"
    path.write_text(write_model(m))
    query = tmp_path / "query.txt"
    query.write_text("2 0\n")
    code, out, err = run_cli(["prob", str(path), str(query)], capsys)
    assert code == 6
    assert out == ""
    assert err.startswith("error:")


def test_marginals_exact_matches_brute_force(mixed_model_file, capsys):
    path, m = mixed_model_file
    report = run_json(["marginals", path], capsys)
    got = np.array(report["result"]["marginals"])
    assert got.shape == (m.num_vars,)
    assert np.max(np.abs(got - brute_force_marginals(m))) < 1e-9


def test_marginals_exact_degenerate_model_exits_6(tmp_path, capsys):
    path = tmp_path / "unsat.pmrf"
    path.write_text(write_model(PropMRF.from_lists(2, hard=[[1], [-1]], soft=[(0.5, [2])])))
    code, out, err = run_cli(["marginals", str(path)], capsys)
    assert code == 6
    assert out == ""
    assert err.startswith("error:")


def test_marginals_exact_reports_search_diagnostics(mixed_model_file, capsys):
    path, m = mixed_model_file
    report = run_json(["marginals", path, "--ve-width", "0"], capsys)
    counted = run_json(["count", path, "--ve-width", "0"], capsys)
    assert report["diagnostics"] == counted["stats"]
    assert report["diagnostics"]["leaves"] > 0


def test_count_beyond_float_range_reports_null_z(tmp_path, capsys):
    path = tmp_path / "free.pmrf"
    path.write_text(write_model(PropMRF(1100)))
    report = run_json(["count", str(path)], capsys)
    assert report["result"]["log_z"] == pytest.approx(1100 * math.log(2.0), rel=1e-12)
    assert report["result"]["z"] is None


def test_sample_beyond_float_range_reports_null_fields(tmp_path, capsys):
    # Weights near 80 on 10 clauses put Z near e^805.
    g = gen_random(10, 10, 3, seed=0)
    m = PropMRF(10, g.hard, tuple(SoftClause(sc.clause, 80.0 + sc.weight) for sc in g.soft))
    path = tmp_path / "heavy.pmrf"
    path.write_text(write_model(m))
    for method in ("fis", "vis"):
        report = run_json(["sample", str(path), "--method", method, "--samples", "50"], capsys)
        result = report["result"]
        assert result["log_z_hat"] == pytest.approx(brute_force_z(m), abs=1.0)
        assert result["z_hat"] is None
    assert result["sample_variance"] is None
    assert result["std_error"] is None


def test_marginals_sampling_methods_run(soft_model_file, capsys):
    path, m = soft_model_file
    for method in ("fis", "vis"):
        report = run_json(
            ["marginals", path, "--method", method, "--samples", "300",
             "--seed", "5"],
            capsys,
        )
        got = np.array(report["result"]["marginals"])
        assert got.shape == (m.num_vars,)
        assert np.all((got >= 0.0) & (got <= 1.0))
        assert report["seed"] == 5
        assert report["n_samples"] == 300


def test_sample_schema_and_determinism(soft_model_file, capsys):
    path, m = soft_model_file
    argv = ["sample", path, "--samples", "250", "--seed", "11"]
    report = run_json(argv, capsys)
    for key in ("log_z_hat", "z_hat", "std_error", "sample_variance"):
        assert key in report["result"]
    assert report["result"]["log_z_hat"] == pytest.approx(
        brute_force_z(m), abs=0.3
    )
    _, first, _ = run_cli(argv, capsys)
    _, second, _ = run_cli(argv, capsys)
    assert strip_elapsed(first) == strip_elapsed(second)
    other = run_json(["sample", path, "--samples", "250", "--seed", "12"], capsys)
    assert other["result"]["log_z_hat"] != report["result"]["log_z_hat"]


def test_sample_vis_and_h_order(soft_model_file, capsys):
    path, _ = soft_model_file
    vis = run_json(
        ["sample", path, "--method", "vis", "--samples", "200", "--seed", "1"],
        capsys,
    )
    assert vis["method"] == "vis"
    fis = run_json(
        ["sample", path, "--samples", "100", "--seed", "1",
         "--h-order", "3,2,1,0"],
        capsys,
    )
    assert math.isfinite(fis["result"]["log_z_hat"])
    code, _, err = run_cli(
        ["sample", path, "--samples", "50", "--h-order", "0,0,1,2"], capsys
    )
    assert code == 2
    assert err.startswith("error:")
    code, _, err = run_cli(
        ["sample", path, "--samples", "50", "--h-order", "a,b"], capsys
    )
    assert code == 2


def test_sample_jobs_flag_is_deterministic(soft_model_file, capsys):
    path, _ = soft_model_file
    argv = ["sample", path, "--samples", "60", "--seed", "4", "--jobs", "2"]
    first = run_json(argv, capsys)
    assert first["jobs"] == 2
    second = run_json(argv, capsys)
    assert first["result"] == second["result"]


def test_jobs_below_one_exits_2(soft_model_file, capsys, monkeypatch):
    path, _ = soft_model_file
    for command in ("sample", "marginals"):
        argv = [command, path, "--method", "fis", "--samples", "10"]
        code, out, err = run_cli([*argv, "--jobs", "0"], capsys)
        assert (code, out) == (2, "")
        assert "--jobs must be positive" in err
        monkeypatch.setenv("PROPMRF_JOBS", "-1")
        code, _, err = run_cli(argv, capsys)
        monkeypatch.delenv("PROPMRF_JOBS")
        assert code == 2 and "--jobs must be positive" in err


def test_seed_and_jobs_env_fallbacks(soft_model_file, capsys, monkeypatch):
    path, _ = soft_model_file
    monkeypatch.setenv("PROPMRF_SEED", "123")
    report = run_json(["sample", path, "--samples", "50"], capsys)
    assert report["seed"] == 123
    monkeypatch.setenv("PROPMRF_SEED", "oops")
    code, _, err = run_cli(["sample", path, "--samples", "50"], capsys)
    assert code == 2
    monkeypatch.delenv("PROPMRF_SEED")
    monkeypatch.setenv("PROPMRF_JOBS", "2")
    report = run_json(["sample", path, "--samples", "50"], capsys)
    assert report["jobs"] == 2


def test_gen_writes_model_matching_report(tmp_path, capsys):
    out = tmp_path / "random.pmrf"
    report = run_json(
        ["gen", "--family", "random", "--n", "8", "--m", "5", "--s", "3",
         "--seed", "9", "--output", str(out)],
        capsys,
    )
    assert out.exists()
    from propmrf import parse_model

    m = parse_model(out.read_text())
    assert m == gen_random(8, 5, 3, seed=9)
    assert report["result"]["fingerprint"] == model_fingerprint(m)
    assert report["result"]["num_soft"] == 5


def test_gen_families_and_evidence(tmp_path, capsys):
    from propmrf import parse_model

    qmr_path = tmp_path / "qmr.pmrf"
    report = run_json(
        ["gen", "--family", "qmr", "--d", "4", "--f", "3", "--s", "2",
         "--seed", "2", "--output", str(qmr_path)],
        capsys,
    )
    assert report["result"]["num_vars"] == 7
    fs_path = tmp_path / "fs.pmrf"
    run_json(
        ["gen", "--family", "fs", "--people", "2", "--seed", "2",
         "--evidence-frac", "0.25", "--output", str(fs_path)],
        capsys,
    )
    fs = parse_model(fs_path.read_text())
    assert len(fs.hard) == math.ceil(0.25 * fs.num_vars)


def test_gen_missing_parameter_exits_2(tmp_path, capsys):
    out = tmp_path / "never.pmrf"
    for params, message in (
        (["--family", "qmr", "--d", "4"], "family 'qmr' requires --f"),
        (["--family", "fs"], "family 'fs' requires --people"),
        # the generators' own range checks
        (["--family", "qmr", "--d", "0", "--f", "1", "--s", "1"], "d must be positive"),
        (["--family", "random", "--n", "3", "--m", "2", "--s", "4"], "clause size"),
    ):
        code, _, err = run_cli(["gen", *params, "--output", str(out)], capsys)
        assert code == 2
        assert err.startswith("error:") and message in err
        assert not out.exists()


def test_eval_round_trip(tmp_path, capsys):
    from propmrf import sum_kld

    exact = tmp_path / "exact.txt"
    exact.write_text("# exact marginals\n0.25\n0.5\n\n0.75\n")
    estimated = tmp_path / "estimated.txt"
    estimated.write_text("0.3\n0.45\n0.7\n")
    report = run_json(["eval", str(exact), str(estimated)], capsys)
    expected = sum_kld(np.array([0.25, 0.5, 0.75]), np.array([0.3, 0.45, 0.7]))
    assert report["result"]["sum_kld"] == pytest.approx(expected, rel=1e-12)
    assert report["result"]["num_vars"] == 3

    short = tmp_path / "short.txt"
    short.write_text("0.5\n")
    code, _, _ = run_cli(["eval", str(exact), str(short)], capsys)
    assert code == 2

    bad = tmp_path / "bad.txt"
    bad.write_text("0.5\nnot-a-number\n0.5\n")
    code, _, _ = run_cli(["eval", str(exact), str(bad)], capsys)
    assert code == 4

    out_of_range = tmp_path / "range.txt"
    out_of_range.write_text("0.5\n1.5\n0.5\n")
    code, _, _ = run_cli(["eval", str(exact), str(out_of_range)], capsys)
    assert code == 4

    empty = tmp_path / "empty.txt"
    empty.write_text("# no values\n\n")
    code, _, err = run_cli(["eval", str(empty), str(empty)], capsys)
    assert code == 4
    assert "no marginal values found" in err


def test_eval_rejects_nan_in_either_file(tmp_path, capsys):
    clean = tmp_path / "clean.txt"
    clean.write_text("0.25\n0.5\n")
    with_nan = tmp_path / "nan.txt"
    with_nan.write_text("0.25\nnan\n")
    for files in ([clean, with_nan], [with_nan, clean]):
        code, out, err = run_cli(["eval", *map(str, files)], capsys)
        assert code == 4
        assert out == ""
        assert err.startswith("error:") and str(with_nan) in err


def test_missing_model_file_exits_3(capsys):
    code, _, err = run_cli(["count", "/nonexistent/model.pmrf"], capsys)
    assert code == 3
    assert err.startswith("error:")


def test_unwritable_output_exits_3(mixed_model_file, tmp_path, capsys):
    path, _ = mixed_model_file
    target = str(tmp_path / "missing-dir" / "out")
    for argv in (
        ["gen", "--family", "random", "--n", "4", "--m", "3", "--s", "2", "--output", target],
        ["count", path, "--output", target],
    ):
        code, out, err = run_cli(argv, capsys)
        assert code == 3
        assert out == ""
        assert err.startswith("error: cannot write") and "Traceback" not in err


def test_malformed_model_exits_4(tmp_path, capsys):
    path = tmp_path / "broken.pmrf"
    path.write_text("p pmrf two\nh 1 0\n")
    code, _, err = run_cli(["count", str(path)], capsys)
    assert code == 4
    assert err.startswith("error:")


def test_non_finite_weight_exits_4(tmp_path, capsys):
    for weight in ("inf", "nan"):
        path = tmp_path / f"{weight}.pmrf"
        path.write_text(f"p pmrf 2\ns {weight} 1 2 0\n")
        code, _, err = run_cli(["count", str(path)], capsys)
        assert code == 4
        assert "line 2" in err


def test_resource_limits_exit_5(tmp_path, capsys):
    wide = tmp_path / "wide.pmrf"
    wide.write_text(write_model(PropMRF(25)))
    code, _, _ = run_cli(["count", str(wide), "--method", "brute"], capsys)
    assert code == 5

    clique = tmp_path / "clique.pmrf"
    clique.write_text(write_model(PropMRF.from_lists(4, hard=[[1, 2, 3, 4]])))
    code, _, _ = run_cli(
        ["count", str(clique), "--method", "ve", "--ve-width", "2"], capsys
    )
    assert code == 5


def test_a_header_beyond_the_search_cap_exits_5_before_the_search(
    tmp_path, capsys, monkeypatch
):
    # 10^9 declared variables, three of them occurring: the search's split
    # would allocate a list of num_vars + 1 entries, so it must not start.
    path = tmp_path / "huge.pmrf"
    path.write_text("p pmrf 1000000000\nh 1 2 0\ns 0.5 -1 3 0\n")
    query = tmp_path / "query.txt"
    query.write_text("1 0\n")

    def refuse(*args):
        raise AssertionError("the search started")

    monkeypatch.setattr("propmrf.simplify.split_components", refuse)
    for argv in (
        ["count", str(path)],
        ["prob", str(path), str(query)],
        ["marginals", str(path)],
    ):
        code, out, err = run_cli(argv, capsys)
        assert (code, out) == (5, ""), argv
        assert "at most 10000000 variables" in err
    # Bucket elimination adds the free variables as one product.
    report = run_json(["count", str(path), "--method", "ve"], capsys)
    assert report["result"]["log_z"] == pytest.approx(
        math.log(2 + 4 * math.exp(0.5)) + (10**9 - 3) * math.log(2.0), rel=1e-12
    )


def test_unsat_sampling_exits_6(tmp_path, capsys):
    m = PropMRF.from_lists(2, hard=[[1], [-1]], soft=[(0.4, [2])])
    path = tmp_path / "unsat.pmrf"
    path.write_text(write_model(m))
    code, _, err = run_cli(["sample", str(path), "--samples", "10"], capsys)
    assert code == 6
    assert err.startswith("error:")


def test_usage_errors_exit_2(capsys):
    assert main([]) == 2
    capsys.readouterr()
    assert main(["count"]) == 2
    capsys.readouterr()
    assert main(["frobnicate", "x"]) == 2
    capsys.readouterr()
    code, _, _ = run_cli(["count", "x.pmrf", "--method", "magic"], capsys)
    assert code == 2


def test_help_exits_0(capsys):
    assert main(["--help"]) == 0
    out = capsys.readouterr().out
    assert "count" in out and "marginals" in out


def test_bad_bp_damping_exits_2(soft_model_file, capsys):
    path, _ = soft_model_file
    code, _, err = run_cli(
        ["sample", path, "--samples", "20", "--bp-damping", "1.5"], capsys
    )
    assert code == 2
    assert err.startswith("error:")


def test_weight_beyond_exp_range_samples_and_marginals_exit_0(tmp_path, capsys):
    path = tmp_path / "huge.pmrf"
    path.write_text("p pmrf 2\ns 750 1 2 0\ns 0.5 -1 0\n")
    report = run_json(
        ["sample", str(path), "--method", "vis", "--samples", "200"], capsys
    )
    assert math.isfinite(report["result"]["log_z_hat"])
    report = run_json(
        ["marginals", str(path), "--method", "fis", "--samples", "200"], capsys
    )
    assert np.all(np.isfinite(report["result"]["marginals"]))


def test_bp_convergence_is_reported(soft_model_file, capsys):
    path, _ = soft_model_file
    for command in ("sample", "marginals"):
        for method in ("fis", "vis"):
            argv = [command, path, "--method", method, "--samples", "50"]
            bp = run_json(argv, capsys)["bp"]
            assert bp["converged"] is True
            assert 1 <= bp["iterations"] <= bp["max_iters"] == 1000
            assert bp["final_delta"] < 1e-8
            bp = run_json(argv + ["--bp-iters", "1"], capsys)["bp"]
            assert bp["converged"] is False
            assert bp["iterations"] == bp["max_iters"] == 1
            assert bp["final_delta"] > 0.0


def strict_json(text: str) -> dict:
    """json.loads that refuses NaN and Infinity, which are not JSON."""

    def refuse(token):
        raise ValueError(f"{token} is not JSON")

    return json.loads(text, parse_constant=refuse)


def test_a_zero_partition_function_reports_null_logs(tmp_path, capsys):
    unsat = tmp_path / "unsat.pmrf"
    unsat.write_text(write_model(PropMRF.from_lists(2, hard=[[1], [-1]], soft=[(0.5, [2])])))
    for method in ("fdc", "vdc", "ve", "brute"):
        code, out, err = run_cli(["count", str(unsat), "--method", method], capsys)
        assert code == 0, err
        assert strict_json(out)["result"] == {"log_z": None, "z": 0.0}

    sat = tmp_path / "sat.pmrf"
    sat.write_text(write_model(PropMRF.from_lists(2, hard=[[2]], soft=[(0.5, [1])])))
    query = tmp_path / "query.txt"
    query.write_text("-2 0\n")
    code, out, err = run_cli(["prob", str(sat), str(query)], capsys)
    assert code == 0, err
    result = strict_json(out)["result"]
    assert (result["log_prob"], result["prob"], result["log_z_query"]) == (None, 0.0, None)
    assert result["log_z_model"] == pytest.approx(math.log1p(math.exp(0.5)))


def test_weights_beyond_the_bound_exit_4_naming_the_line(tmp_path, capsys):
    # Two weights of 1e308 put log Z beyond float range, which used to come
    # out as NaN or Infinity with exit 0; 6e299 twice is finite but passes
    # the bound of 1e300 on the second clause.
    for text, line in (
        ("p pmrf 2\ns 1e308 1 0\ns 1e308 2 0\n", "line 2"),
        ("p pmrf 2\ns 6e299 1 0\ns 6e299 2 0\n", "line 3"),
    ):
        path = tmp_path / "heavy.pmrf"
        path.write_text(text)
        for argv in (
            ["count", "--method", "fdc"],
            ["count", "--method", "ve"],
            ["count", "--method", "brute"],
            ["sample", "--method", "fis", "--samples", "10"],
            ["sample", "--method", "vis", "--samples", "10"],
            ["marginals"],
        ):
            code, out, err = run_cli([argv[0], str(path), *argv[1:]], capsys)
            assert (code, out) == (4, "")
            assert line in err


def test_a_non_finite_report_is_an_internal_error(mixed_model_file, capsys, monkeypatch):
    path, _ = mixed_model_file
    monkeypatch.setattr("propmrf.cli.ve_count", lambda m, max_width: math.nan)
    code, out, err = run_cli(["count", path, "--method", "ve"], capsys)
    assert (code, out) == (7, "")
    assert "non-finite" in err


def test_an_internal_error_names_its_type(mixed_model_file, capsys, monkeypatch):
    # A MemoryError carries no message; the report must still say what it was.
    path, _ = mixed_model_file

    def exhausted(args):
        raise MemoryError()

    monkeypatch.setattr("propmrf.cli._cmd_count", exhausted)
    assert run_cli(["count", path], capsys) == (7, "", "internal error: MemoryError\n")


def test_ve_width_beyond_the_table_limit_exits_5(tmp_path, capsys):
    # Two 41-literal clauses: a VE table over them would hold 2^41 entries.
    m = PropMRF.from_lists(
        42, soft=[(0.5, list(range(1, 42))), (-0.3, [-v for v in range(2, 43)])]
    )
    path = tmp_path / "wide.pmrf"
    path.write_text(write_model(m))
    query = tmp_path / "query.txt"
    query.write_text("1 0\n")
    for argv in (
        ["count", str(path), "--ve-width", "64"],
        ["count", str(path), "--method", "ve", "--ve-width", "64"],
        ["prob", str(path), str(query), "--ve-width", "25"],
        ["marginals", str(path), "--ve-width", "64"],
        # nothing is read before the check
        ["count", str(tmp_path / "missing.pmrf"), "--ve-width", "25"],
    ):
        code, out, err = run_cli(argv, capsys)
        assert (code, out) == (5, ""), argv
        assert "--ve-width" in err
    # the default width conditions on the clauses instead
    assert math.isfinite(run_json(["count", str(path)], capsys)["result"]["log_z"])
    # VE and BP refuse the wide tables before they build them
    with pytest.raises(VeWidthError):
        ve_count(m, max_width=64)
    code, out, err = run_cli(["sample", str(path), "--method", "vis"], capsys)
    assert (code, out) == (5, "")
    with pytest.raises(VeWidthError):
        run_bp(m)
