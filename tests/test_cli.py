import hashlib
import json
import math
import os
import subprocess
import sys
import warnings
from fractions import Fraction

import numpy as np
import pytest

from rvnorms import cli
from rvnorms.cumulants import DistributionSpec
from rvnorms.matrixcore import Matrix, load_matrix
from rvnorms.normengine import hermitian_norm_pow
from rvnorms.suites import SuiteReport

from oracles import diagonal, matrix_to_json, random_hermitian, zeros


def write_matrix(tmp_path, name, M):
    path = tmp_path / name
    path.write_text(json.dumps(matrix_to_json(M)))
    return str(path)


@pytest.fixture
def identity2(tmp_path):
    return write_matrix(tmp_path, "id2.json", diagonal([1, 1]))


def test_norm_identity_exponential(identity2, capsys):
    rc = cli.main(["norm", identity2, "exponential", "-d", "2", "--json"])
    out = json.loads(capsys.readouterr().out)
    assert rc == 0
    assert out["norm_pow"] == [3, 1]
    assert out["norm"] == pytest.approx(3**0.5)
    assert out["method"] == "partition"
    assert out["hermitian"] is True


def test_norm_text_output(identity2, capsys):
    rc = cli.main(["norm", identity2, "exponential", "-d", "2"])
    text = capsys.readouterr().out
    assert rc == 0
    assert "norm^2 = 3" in text
    assert "method: partition" in text


def test_norm_zero_matrix(tmp_path, capsys):
    path = write_matrix(tmp_path, "z.json", zeros(2))
    rc = cli.main(["norm", path, "rademacher", "-d", "4", "--json"])
    out = json.loads(capsys.readouterr().out)
    assert rc == 0
    assert out["norm"] == 0.0


def test_norm_methods_agree(identity2, capsys):
    values = {}
    for method in ("partition", "series", "words", "auto"):
        rc = cli.main(["norm", identity2, "gamma:alpha=2,beta=1/2", "-d", "4", "--method", method, "--json"])
        assert rc == 0
        values[method] = json.loads(capsys.readouterr().out)["norm"]
    assert len({round(v, 12) for v in values.values()}) == 1


def test_norm_auto_reports_discrepancy(identity2, capsys):
    rc = cli.main(["norm", identity2, "poisson:alpha=1", "-d", "4", "--json"])
    assert rc == 0
    capsys.readouterr()
    rc = cli.main(["norm", identity2, "poisson:alpha=1", "-d", "4", "--method", "auto", "--json"])
    out = json.loads(capsys.readouterr().out)
    assert rc == 0
    assert out["discrepancy"] == 0.0


def test_norm_general_matrix_auto_uses_words(tmp_path, capsys):
    path = write_matrix(tmp_path, "n.json", Matrix([[0, 1], [0, 0]]))
    rc = cli.main(["norm", path, "exponential", "-d", "2", "--method", "auto", "--json"])
    out = json.loads(capsys.readouterr().out)
    assert rc == 0
    assert out["method"] == "auto(words,circle)"
    assert out["norm_pow"] == [1, 2]  # exact rational path
    assert out["discrepancy"] <= 1e-9


@pytest.mark.parametrize("scale", [1.0, 1e-13, 2.0**-60, 1e13])
@pytest.mark.parametrize(
    "method, used", [("auto", "auto(words,circle)"), ("partition", "partition(words)")]
)
def test_norm_non_hermitian_float_matrix_is_general_at_every_scale(
    tmp_path, capsys, scale, method, used
):
    # The Hermitian test is relative to the matrix's scale, so s * [[0, 1],
    # [0, 0]] is general at every s, with norm^2 = s^2 / 2 under
    # exponential at d=2.
    path = tmp_path / "m.json"
    path.write_text(json.dumps({"n": 2, "re": [[0.0, scale], [0.0, 0.0]]}))
    assert cli.main(["norm", str(path), "exponential", "-d", "2", "--method", method, "--json"]) == 0
    out = json.loads(capsys.readouterr().out)
    assert out["hermitian"] is False and out["method"] == used
    assert out["norm_pow"] == pytest.approx(scale**2 / 2, rel=1e-12)
    assert cli.main(["norm", str(path), "exponential", "-d", "2", "--method", method]) == 0
    assert "(n=2, general)\n" in capsys.readouterr().out


def test_norm_auto_evaluates_word_sum_once(tmp_path, monkeypatch, capsys):
    from rvnorms import normengine

    calls = []
    real = normengine.word_sum_norm_pow

    def spy(*args):
        calls.append(args)
        return real(*args)

    monkeypatch.setattr(normengine, "word_sum_norm_pow", spy)
    monkeypatch.setattr(cli, "word_sum_norm_pow", spy)
    path = write_matrix(tmp_path, "g.json", Matrix([[1, 2], [0, -1]]))
    assert cli.main(["norm", path, "exponential", "-d", "4", "--method", "auto"]) == 0
    assert "method: auto(words,circle)" in capsys.readouterr().out
    assert len(calls) == 1


def test_norm_series_float_hermitian_high_degree(tmp_path, capsys):
    from rvnorms.suites import stream

    path = write_matrix(tmp_path, "h.json", random_hermitian(stream(97), 8))
    rc = cli.main(["norm", path, "exponential", "-d", "200", "--method", "series", "--json"])
    out = json.loads(capsys.readouterr().out)
    assert rc == 0
    assert out["method"] == "series" and math.isfinite(out["norm"]) and out["norm"] > 0


def test_exit_3_pareto_missing_moments(identity2, capsys):
    rc = cli.main(["norm", identity2, "pareto:alpha=3", "-d", "4"])
    err = capsys.readouterr().err
    assert rc == 3
    assert "moments" in err


def test_exit_3_odd_degree(identity2, capsys):
    rc = cli.main(["norm", identity2, "exponential", "-d", "3"])
    assert rc == 3


def test_exit_3_series_on_non_hermitian(tmp_path, capsys):
    path = write_matrix(tmp_path, "n.json", Matrix([[0, 1], [0, 0]]))
    rc = cli.main(["norm", path, "exponential", "-d", "2", "--method", "series"])
    assert rc == 3


def test_exit_2_bad_matrix_file(tmp_path, capsys):
    path = tmp_path / "bad.json"
    path.write_text("{broken")
    rc = cli.main(["norm", str(path), "exponential", "-d", "2"])
    assert rc == 2


@pytest.mark.parametrize(
    "doc",
    [
        {"n": 1, "re": {"a": [1]}},
        {"n": 1, "re": [{"a": 1}]},
        {"n": 1, "re": [[1]], "im": {"a": [1]}},
        {"n": 1, "re": [[1]], "im": [{"a": 1}]},
        {"n": 1, "re": 5},
    ],
    ids=["re-object", "re-row-object", "im-object", "im-row-object", "re-number"],
)
def test_exit_2_matrix_arrays_that_are_not_arrays(tmp_path, capsys, doc):
    path = tmp_path / "m.json"
    path.write_text(json.dumps(doc))
    rc = cli.main(["norm", str(path), "exponential", "-d", "2"])
    captured = capsys.readouterr()
    assert rc == 2 and captured.out == ""
    assert "re/im must be n-by-n arrays" in captured.err


def test_exit_2_bad_distribution(identity2, capsys):
    rc = cli.main(["norm", identity2, "cauchy:x=1", "-d", "2"])
    assert rc == 2


@pytest.mark.parametrize(
    "dist, message",
    [
        ("finite_discrete:atoms=0,probs=1", "finite_discrete needs >= 2 atoms with matching probabilities"),
        ("finite_discrete:atoms=0|1,probs=1", "finite_discrete needs >= 2 atoms with matching probabilities"),
        ("finite_discrete:probs=1/2|1/2", "finite_discrete requires parameters ('atoms', 'probs'), got ['probs']"),
        ("gamma:alpha=1", "gamma requires parameters ('alpha', 'beta'), got ['alpha']"),
        ("gamma:alpha=1,gamma=2", "gamma does not take parameter 'gamma' (takes ('alpha', 'beta'))"),
    ],
)
def test_exit_2_bad_distribution_parameters_say_what_is_wrong(identity2, capsys, dist, message):
    # a missing or unknown parameter is named as such; a value of the wrong
    # kind (one atom where finite_discrete takes a list) gets the
    # constructor's own message
    assert cli.main(["norm", identity2, dist, "-d", "4"]) == 2
    assert capsys.readouterr() == ("", f"error: {message}\n")


def test_exit_2_argparse_errors():
    with pytest.raises(SystemExit) as exc:
        cli.main(["norm", "--degree"])
    assert exc.value.code == 2


USAGE_ERRORS = [
    ["norm", "M", "exponential", "-d", "4", "--bogus"],
    ["norm", "M", "exponential", "-d", "4", "extra"],
    ["norm", "M", "exponential", "-d", "4", "--bogus=1", "extra"],
    ["norm", "M", "--bogus"],
    ["norm", "M"],
    ["norm"],
    ["norm", "M", "exponential", "-d", "four"],
    ["norm", "M", "exponential", "-d", "4", "--method", "nope"],
    ["norm", "--", "M", "exponential", "-d", "4"],
    ["formula", "exponential", "-d", "4", "--mode", "both"],
    ["hunter", "-d", "2"],
    ["oracle", "M", "normal:mu=0,sigma=1", "-d", "4", "--samples", "1e4"],
    ["verify", "--suite", "nope"],
    ["verify", "--trials", "2", "--json", "more"],
    ["bogus", "M"],
    ["--json", "norm"],
    ["--", "formula", "exponential", "-d", "2"],
    [],
    ["-h"],
    ["--help"],
    ["norm", "-h"],
    ["verify", "--help"],
    ["hunter", "-d", "2", "--alpha", "1", "-h"],
]


@pytest.mark.parametrize("argv", USAGE_ERRORS, ids=" ".join)
def test_usage_errors_and_help_match_the_top_level_parser(identity2, capsys, argv):
    # main parses with the named subcommand's parser; what it prints and
    # its exit code must be those of the whole parser.
    argv = [identity2 if a == "M" else a for a in argv]
    seen = []
    for parse in (cli.main, cli._PARSER.parse_args):
        with pytest.raises(SystemExit) as exc:
            parse(list(argv))
        seen.append((exc.value.code, *capsys.readouterr()))
    assert seen[0] == seen[1]
    assert seen[0][0] in (0, 2) and (seen[0][1] == "") == (seen[0][0] == 2)


@pytest.mark.parametrize(
    "argv",
    [
        ["norm", "M", "gamma:alpha=2,beta=1/2", "-d", "6", "--method", "words", "--json"],
        ["formula", "exponential", "--degree", "4", "--mode", "hermitian"],
        ["hunter", "-d", "4", "--alpha", "2", "--at", "1,1/2"],
        ["oracle", "M", "rademacher", "-d", "2", "--samples", "100", "--seed", "3", "--threads", "2"],
        ["verify", "--suite", "schur", "--trials", "1", "--json"],
    ],
    ids=lambda argv: argv[0],
)
def test_each_subcommand_gets_the_namespace_of_the_top_level_parser(identity2, monkeypatch, argv):
    argv = [identity2 if a == "M" else a for a in argv]
    got = []
    monkeypatch.setitem(cli._DISPATCH, argv[0], lambda args: got.append(args) or 0)
    assert cli.main(argv) == 0
    assert got == [cli._PARSER.parse_args(argv)]
    assert got[0].command == argv[0]


def test_parser_is_reused_across_calls(identity2, monkeypatch, capsys):
    # One parser, built at import, serves every call: an argparse error in
    # between leaves no state behind, and defaults are fresh for each
    # subcommand.
    def refuse():
        raise AssertionError("main built a new parser")

    monkeypatch.setattr(cli, "build_parser", refuse)
    assert cli.main(["norm", identity2, "exponential", "-d", "2", "--json"]) == 0
    first = json.loads(capsys.readouterr().out)
    assert first["method"] == "partition" and first["norm_pow"] == [3, 1]
    with pytest.raises(SystemExit) as exc:
        cli.main(["norm", identity2, "exponential", "-d", "2", "--method", "nope"])
    assert exc.value.code == 2
    capsys.readouterr()
    assert cli.main(["formula", "exponential", "-d", "2"]) == 0
    assert capsys.readouterr().out == "1/2 tr(Z*Z)\n1/2 tr(Z*) tr(Z)\n"
    with pytest.raises(SystemExit) as exc:
        cli.main(["hunter", "-d", "2"])
    assert exc.value.code == 2
    capsys.readouterr()
    assert cli.main(["norm", identity2, "exponential", "-d", "4", "--method", "words"]) == 0
    text = capsys.readouterr().out
    assert "method: words" in text and "degree: 4" in text
    assert cli.main(["hunter", "-d", "2", "--alpha", "1", "--json"]) == 0
    doc = json.loads(capsys.readouterr().out)
    assert doc["degree"] == 2 and doc["alpha"] == 1 and "at" not in doc


def test_formula_uniform_d4_json(capsys):
    rc = cli.main(["formula", "uniform:a=-1,b=1", "-d", "4", "--json"])
    out = json.loads(capsys.readouterr().out)
    assert rc == 0
    assert out["mode"] == "general"
    terms = {tuple(t["factors"]): tuple(t["coeff"]) for t in out["terms"]}
    assert terms == {
        ("ssZZ",): (-1, 270),
        ("sZsZ",): (-1, 540),
        ("ss", "ZZ"): (1, 216),
        ("sZ", "sZ"): (1, 108),
    }


def test_formula_d2_generic(capsys):
    rc = cli.main(["formula", "normal:mu=1,sigma=2", "-d", "2", "--json"])
    out = json.loads(capsys.readouterr().out)
    assert rc == 0
    terms = {tuple(t["factors"]): tuple(t["coeff"]) for t in out["terms"]}
    assert terms == {("sZ",): (2, 1), ("s", "Z"): (1, 2)}


def test_formula_poisson_hermitian(capsys):
    rc = cli.main(["formula", "poisson:alpha=1", "-d", "4", "--mode", "hermitian", "--json"])
    out = json.loads(capsys.readouterr().out)
    assert rc == 0
    terms = {tuple(t["factors"]): tuple(t["coeff"]) for t in out["terms"]}
    assert terms == {
        ("A^1", "A^1", "A^1", "A^1"): (1, 24),
        ("A^1", "A^1", "A^2"): (1, 4),
        ("A^1", "A^3"): (1, 6),
        ("A^2", "A^2"): (1, 8),
        ("A^4",): (1, 24),
    }


def test_formula_text_deterministic(capsys):
    rc = cli.main(["formula", "uniform:a=-1,b=1", "-d", "4"])
    first = capsys.readouterr().out
    rc2 = cli.main(["formula", "uniform:a=-1,b=1", "-d", "4"])
    second = capsys.readouterr().out
    assert rc == rc2 == 0
    assert first == second
    assert first.splitlines()[0] == "-1/270 tr(Z*Z*ZZ)"


def test_hunter_expansion(capsys):
    rc = cli.main(["hunter", "-d", "4", "--alpha", "3"])
    out = capsys.readouterr().out
    assert rc == 0
    assert "H_{4,3} = 3 h4 + 6 h1 h3 + 3 h2^2 + 3 h1^2 h2" in out


def test_hunter_evaluation(capsys):
    rc = cli.main(["hunter", "-d", "4", "--alpha", "1", "--at", "1,1", "--json"])
    out = json.loads(capsys.readouterr().out)
    assert rc == 0
    assert out["value"] == [5, 1]  # h_4(1,1)
    assert out["value_recursive"] == [5, 1]


def test_hunter_degree_zero_prints_no_trailing_space(capsys):
    assert cli.main(["hunter", "-d", "0", "--alpha", "2"]) == 0
    assert capsys.readouterr().out == "H_{0,2} = 1\n"
    assert cli.main(["hunter", "-d", "0", "--alpha", "2", "--at", "1/2,3"]) == 0
    assert capsys.readouterr().out == "H_{0,2} = 1\nvalue at 1/2,3: 1\nrecursive form:  1\n"


@pytest.mark.parametrize(
    "argv, out",
    [
        (["-d", "1", "--alpha", "2"], "H_{1,2} = 2 h1\n"),
        (
            ["-d", "2", "--alpha", "2", "--at", "1/2,-3"],
            "H_{2,2} = 2 h2 + 1 h1^2\nvalue at 1/2,-3: 87/4\nrecursive form:  87/4\n",
        ),
        (
            ["-d", "2", "--alpha", "2", "--at", "1/2,-3", "--json"],
            '{"degree": 2, "alpha": 2, "terms": [{"coeff": 2, "parts": [2]}, '
            '{"coeff": 1, "parts": [1, 1]}], "at": [[1, 2], [-3, 1]], '
            '"value": [87, 4], "value_recursive": [87, 4]}\n',
        ),
        (
            ["-d", "2", "--alpha", "3", "--at", "0.5,2"],
            "H_{2,3} = 3 h2 + 3 h1^2\nvalue at 0.5,2: 34.5\nrecursive form:  34.5\n",
        ),
        (
            ["-d", "2", "--alpha", "3", "--at", "0.5,2", "--json"],
            '{"degree": 2, "alpha": 3, "terms": [{"coeff": 3, "parts": [2]}, '
            '{"coeff": 3, "parts": [1, 1]}], "at": [0.5, [2, 1]], '
            '"value": 34.5, "value_recursive": 34.5}\n',
        ),
    ],
)
def test_hunter_positive_degree_bytes(capsys, argv, out):
    # the bytes printed before the degree-0 text lost its trailing space
    assert cli.main(["hunter"] + argv) == 0
    assert capsys.readouterr().out == out


@pytest.mark.parametrize(
    "argv",
    [
        # H_{4,2}(1e100, 1) overflows: inf, and nan by the recursion
        ["-d", "4", "--alpha", "2", "--at", "1e100,1"],
        ["-d", "4", "--alpha", "2", "--at", "1e100,1", "--json"],
        # every monomial of degree 6 underflows to 0.0, though H_{6,3} > 0 there
        ["-d", "6", "--alpha", "3", "--at", "1e-320,1e-320"],
    ],
)
def test_hunter_float_value_outside_float_range_exit_3(capsys, argv):
    rc = cli.main(["hunter"] + argv)
    captured = capsys.readouterr()
    assert rc == 3
    assert captured.out == ""
    assert "outside float range" in captured.err


def test_hunter_in_range_float_point_prints_its_values(capsys):
    # the bytes printed before out-of-range values were refused
    argv = ["hunter", "-d", "6", "--alpha", "3", "--at", "0.1,-0.3,2.5"]
    assert cli.main(argv) == 0
    assert capsys.readouterr().out.splitlines()[1:] == [
        "value at 0.1,-0.3,2.5: 5777.342067000001",
        "recursive form:  5777.3420670000005",
    ]
    assert cli.main(argv + ["--json"]) == 0
    digest = hashlib.sha256(capsys.readouterr().out.encode()).hexdigest()
    assert digest == "be51f6f951265b07c2d058ef82c9d6d2f0a8b20bed7f694a63fa9e51dbbd75ab"
    # an exact point beyond the float range is no float value
    assert cli.main(["hunter", "-d", "2", "--alpha", "1", "--at", "1" + "0" * 400]) == 0
    assert capsys.readouterr().out.endswith("recursive form:  1" + "0" * 800 + "\n")


def test_oracle_subcommand(identity2, capsys):
    rc = cli.main(
        ["oracle", identity2, "exponential", "-d", "2", "--samples", "20000", "--seed", "3", "--json"]
    )
    out = json.loads(capsys.readouterr().out)
    assert rc == 0
    # analytic value is sqrt(3)
    assert abs(out["value"] - 3**0.5) <= 5 * out["stderr"]
    assert out["samples"] == 20000 and out["seed"] == 3


@pytest.mark.parametrize("beta", ["1e80", "1e-100"])
def test_oracle_estimate_whose_squared_powers_leave_the_float_range(identity2, capsys, beta):
    # the squared powers, near 1e320 and 1e-400, would overflow or underflow
    # unscaled: each block sums them scaled by a power of two
    argv = ["oracle", identity2, f"exponential:beta={beta}", "-d", "2", "--samples", "10000"]
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        assert cli.main(argv + ["--json"]) == 0
    out = json.loads(capsys.readouterr().out)
    assert 0 < out["stderr"] < out["value"]
    assert abs(out["value"] - 3**0.5 * float(beta)) <= 5 * out["stderr"]


@pytest.mark.parametrize(
    "beta, d, samples, seed",
    [("1e80", 3, 20000, 9), ("1e-100", 3, 20000, 9), ("1e120", 2, 10000, 1), ("1e-50", 6, 10000, 1)],
)
def test_oracle_stderr_is_finite_and_positive(identity2, capsys, beta, d, samples, seed):
    # the stderr of the norm power times the norm, near beta^(d+1), leaves
    # the float range: the error bar is propagated at the estimate's scale
    argv = ["oracle", identity2, f"exponential:beta={beta}", "-d", str(d)]
    argv += ["--samples", str(samples), "--seed", str(seed)]
    assert cli.main(argv) == 0
    text = capsys.readouterr().out
    assert 0.0 < float(text.split("+/- ")[1].split()[0]) < math.inf
    assert cli.main(argv + ["--json"]) == 0
    out = json.loads(capsys.readouterr().out, parse_constant=lambda name: pytest.fail(name))
    assert 0.0 < out["stderr"] < out["value"]


@pytest.mark.parametrize("beta, d", [("1e200", 4), ("1e-200", 4)])
def test_oracle_estimate_that_is_no_value_exit_3(identity2, capsys, beta, d):
    # The sampled powers overflow to inf (inf +/- nan) or underflow to 0.0,
    # which is no estimate for a nonzero matrix; neither warns.
    argv = ["oracle", identity2, f"exponential:beta={beta}", "-d", str(d), "--samples", "10000"]
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        assert cli.main(argv) == 3
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.startswith("error: Monte Carlo estimate")


def test_oracle_non_hermitian_exit_3(tmp_path, capsys):
    path = write_matrix(tmp_path, "n.json", Matrix([[0, 1], [0, 0]]))
    rc = cli.main(["oracle", path, "exponential", "-d", "2", "--samples", "10000"])
    assert rc == 3


@pytest.mark.parametrize(
    "option, value",
    [
        ("--samples", cli.ORACLE_MAX_SAMPLES + 1),
        ("--samples", 10**13),
        ("-d", cli.ORACLE_MAX_DEGREE + 1),
        ("-d", 10**6),
    ],
)
def test_oracle_over_its_caps_exit_3_before_work(monkeypatch, capsys, option, value):
    def refuse(*args, **kwargs):
        raise AssertionError("work started")

    for name in ("load_matrix", "parse_distribution", "mc_norm"):
        monkeypatch.setattr(cli, name, refuse)
    argv = ["oracle", "M", "normal:mu=0,sigma=1", "-d", "4", "--samples", "10000"]
    argv[argv.index(option) + 1] = str(value)
    rc = cli.main(argv)
    captured = capsys.readouterr()
    assert rc == 3
    assert captured.out == ""
    caps = f"limited to degree {cli.ORACLE_MAX_DEGREE} and {cli.ORACLE_MAX_SAMPLES} samples"
    assert caps in captured.err and str(value) in captured.err


def test_oracle_at_its_caps_runs(monkeypatch, identity2, capsys):
    from rvnorms.oracle import McEstimate

    seen = []

    def fake(A, spec, d, samples, seed, threads):
        seen.append((d, samples, threads))
        return McEstimate(1.0, 0.0, samples, seed)

    monkeypatch.setattr(cli, "mc_norm", fake)
    d, samples = cli.ORACLE_MAX_DEGREE, cli.ORACLE_MAX_SAMPLES
    argv = ["oracle", identity2, "exponential", "-d", str(d), "--samples", str(samples)]
    assert cli.main(argv + ["--threads", "8"]) == 0
    assert seen == [(d, samples, 8)]


def test_verify_small_pass(capsys):
    rc = cli.main(["verify", "--suite", "hunter", "--trials", "5", "--seed", "1", "--json"])
    out = json.loads(capsys.readouterr().out)
    assert rc == 0
    assert out["suite"] == "hunter"
    assert out["failures"] == []
    assert out["trials"] == 5


def test_verify_failure_exit_1(monkeypatch, capsys):
    def failing_suite(trials=1, seed=0):
        report = SuiteReport("axioms", trials)
        report.record(False, "synthetic failure")
        return report

    monkeypatch.setitem(cli.SUITES, "axioms", failing_suite)
    rc = cli.main(["verify", "--suite", "axioms", "--trials", "1"])
    out = capsys.readouterr().out
    assert rc == 1
    assert "FAIL" in out and "synthetic failure" in out


def test_cli_byte_determinism(tmp_path):
    path = write_matrix(tmp_path, "m.json", Matrix([[1, 2], [2, -1]]))
    cmd = [
        sys.executable,
        "-m",
        "rvnorms.cli",
        "norm",
        path,
        "uniform:a=-1,b=1",
        "-d",
        "4",
        "--method",
        "auto",
    ]
    r1 = subprocess.run(cmd, capture_output=True)
    r2 = subprocess.run(cmd, capture_output=True)
    assert r1.returncode == r2.returncode == 0
    assert r1.stdout == r2.stdout


def _run_cli(argv, env_extra=None):
    env = dict(os.environ, **(env_extra or {}))
    return subprocess.run(
        [sys.executable, "-m", "rvnorms.cli", *argv], capture_output=True, text=True, env=env
    )


@pytest.mark.parametrize("entry", [1e-200, 1e308])
def test_norm_out_of_float_range_exit_3(tmp_path, entry):
    path = tmp_path / "m.json"
    path.write_text(json.dumps({"n": 2, "re": [[entry, 0], [0, entry]]}))
    r = _run_cli(["norm", str(path), "exponential", "-d", "4"])
    assert r.returncode == 3
    assert r.stdout == ""
    assert "Traceback" not in r.stderr and "scale" in r.stderr


@pytest.mark.parametrize("method", ["partition", "series", "words", "auto"])
@pytest.mark.parametrize("re", [[[1, 0], [0, 1]], [[1, 2], [0, 1]]], ids=["hermitian", "general"])
@pytest.mark.parametrize(
    "law, d", [("normal:mu=0,sigma=1e-200", "4"), ("uniform:a=0,b=1e-320", "2")]
)
def test_norm_with_every_float_cumulant_underflowed_exit_3(tmp_path, capsys, method, re, law, d):
    # sigma^2 = 1e-400 is 0.0 as a float, so is every cumulant; uniform's
    # kappa_1 = 5e-321 is subnormal and its kappa_2 0.0.  The law is refused
    # by name on every route before any evaluation (series refuses the
    # general matrix as such first).
    path = tmp_path / "m.json"
    path.write_text(json.dumps({"n": 2, "re": re}))
    argv = ["norm", str(path), law, "-d", d, "--method", method]
    assert cli.main(argv) == 3
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.startswith("error: ")
    if method == "series" and re[0][1]:
        assert "Hermitian" in captured.err
    else:
        assert f"error: {law}: every float cumulant factor" in captured.err
        assert "underflows" in captured.err and "lost its precision" not in captured.err


# A float parameter raised to a power up to d = 4 past the float range:
# Python's float ** raises OverflowError, which is refused by the law's name
POWER_PAST_FLOAT_RANGE = "a float moment or cumulant up to degree 4 is past the float range"
OVERFLOWED_LAWS = [
    ("normal:mu=0,sigma=1e200", "normal:mu=0,sigma=1e+200", "the float cumulant kappa_2 is inf"),
    (
        "normal:mu=0,sigma=1" + "0" * 200,
        "normal:mu=0,sigma=1" + "0" * 200,
        "the cumulant factor kappa_2 / 2! is past the float range",
    ),
    ("exponential:beta=1e80", "exponential:beta=1e+80", POWER_PAST_FLOAT_RANGE),
    ("gamma:alpha=2,beta=1e80", "gamma:alpha=2,beta=1e+80", POWER_PAST_FLOAT_RANGE),
    ("laplace:mu=0,beta=1e80", "laplace:mu=0,beta=1e+80", POWER_PAST_FLOAT_RANGE),
    ("uniform:a=0,b=1e80", "uniform:a=0,b=1e+80", POWER_PAST_FLOAT_RANGE),
    (
        "finite_discrete:atoms=-1e200|1e200,probs=1/2|1/2",
        "finite_discrete:atoms=-1e+200|1e+200,probs=1/2|1/2",
        POWER_PAST_FLOAT_RANGE,
    ),
]
OVERFLOWED_LAW_IDS = ["float-law", "exact-law", "exponential", "gamma", "laplace", "uniform", "discrete"]


@pytest.mark.parametrize("method", ["partition", "series", "words", "auto"])
@pytest.mark.parametrize("re", [[[1, 0], [0, 1]], [[1, 2], [0, 1]]], ids=["hermitian", "general"])
@pytest.mark.parametrize("law, label, cause", OVERFLOWED_LAWS, ids=OVERFLOWED_LAW_IDS)
def test_norm_with_an_overflowed_float_cumulant_exit_3(tmp_path, capsys, method, re, law, label, cause):
    # sigma^2 = 1e400 is inf as a float, the exact 10^400 / 2! has no
    # float, and 1e80^4 or (1e200)^2 raise in Python's float **: on a float
    # matrix the law is refused by name, and its cumulant with it, on every
    # route before any evaluation (series refuses the general matrix as
    # such first)
    path = tmp_path / "m.json"
    path.write_text(json.dumps({"n": 2, "re": [[float(v) for v in row] for row in re]}))
    argv = ["norm", str(path), law, "-d", "4", "--method", method]
    assert cli.main(argv) == 3
    captured = capsys.readouterr()
    assert captured.out == ""
    if method == "series" and re[0][1]:
        assert "Hermitian" in captured.err
    else:
        assert captured.err == f"error: {label}: {cause}: its cumulants overflow\n"


@pytest.mark.parametrize("mode", ["general", "hermitian"])
@pytest.mark.parametrize("law, label, cause", OVERFLOWED_LAWS[2:], ids=OVERFLOWED_LAW_IDS[2:])
def test_formula_with_a_float_power_past_the_float_range_exit_3(capsys, mode, law, label, cause):
    assert cli.main(["formula", law, "-d", "4", "--mode", mode]) == 3
    assert capsys.readouterr() == ("", f"error: {label}: {cause}: its cumulants overflow\n")


@pytest.mark.parametrize("method", ["partition", "auto"])
@pytest.mark.parametrize("re", [[[1, 0], [0, 1]], [[1, 2], [0, 1]]], ids=["hermitian", "general"])
def test_norm_whose_float_bell_recurrence_overflows_prints_one_error_line(tmp_path, method, re):
    # the recurrence's products overflow to inf, silently, and the inf
    # norm power is refused
    path = tmp_path / "m.json"
    path.write_text(json.dumps({"n": 2, "re": re}))
    r = _run_cli(["norm", str(path), "poisson:alpha=1e300", "-d", "4", "--method", method])
    assert (r.returncode, r.stdout) == (3, "")
    assert r.stderr.startswith("error: norm power outside float range") and r.stderr.count("\n") == 1


def test_norm_auto_near_the_float_limit_exit_3(tmp_path):
    # Z + Z* overflows at these entries: the circle quadrature runs on the
    # scaled Z, and a norm power beyond the float range is refused.
    path = tmp_path / "m.json"
    path.write_text('{"n": 2, "re": [[1e308, 2e307], [1e308, -1e308]]}')
    r = _run_cli(["norm", str(path), "exponential", "-d", "4", "--method", "auto"])
    assert r.returncode == 3
    assert r.stdout == ""
    assert "Traceback" not in r.stderr and "float range" in r.stderr


def test_norm_auto_circle_quadrature_is_scale_free():
    # The quadrature at 2^k Z is 2^(d k) times the one at Z, bit for bit,
    # from the smallest to the largest scale whose power is a float.
    from rvnorms.normengine import circle_extension_check

    spec = DistributionSpec.exponential()
    Z = Matrix([[1.25, -0.5 + 0.75j], [0.375j, -2.0]])
    quad, _ = circle_extension_check(Z, spec, 4)
    for k in (-250, -3, 5, 250):
        assert circle_extension_check(Matrix(Z.array * 2.0**k), spec, 4)[0] == math.ldexp(quad, 4 * k), k


@pytest.mark.parametrize("method", ["partition", "auto"])
def test_norm_exact_power_beyond_float_range(tmp_path, method):
    # norm^4 = 10^400 is exact but no float; the norm 1e100 is.
    path = tmp_path / "m.json"
    path.write_text('{"n": 1, "re": [[' + "1" + "0" * 100 + "]]}")
    r = _run_cli(["norm", str(path), "exponential", "-d", "4", "--method", method, "--json"])
    assert r.returncode == 0, r.stderr
    out = json.loads(r.stdout)
    assert out["norm_pow"] == [10**400, 1]
    assert out["norm"] == pytest.approx(1e100, rel=1e-15)


@pytest.mark.parametrize(
    "d, method",
    [(40, "partition"), (60, "partition"), (60, "series")],
)
def test_norm_float_power_that_lost_its_precision_exit_3(tmp_path, capsys, d, method):
    # The float recurrences cancel down to a negative or zero power here
    # (-7.7e-34, 0.0 and -6.1e-42); the exact norms are 0.10594 and 0.07548.
    path = tmp_path / "m.json"
    path.write_text('{"n": 2, "re": [[1.0, 0.0], [0.0, -0.5]]}')
    argv = ["norm", str(path), "uniform:a=-1,b=3/2", "-d", str(d), "--method", method]
    assert cli.main(argv) == 3
    captured = capsys.readouterr()
    assert captured.out == ""
    assert "lost its precision" in captured.err


@pytest.mark.parametrize("d, want", [(40, 0.10594), (60, 0.07548)])
@pytest.mark.parametrize("method", ["partition", "series"])
def test_norm_exact_twin_of_cancelling_float_matrix(tmp_path, capsys, d, want, method):
    path = tmp_path / "m.json"
    path.write_text('{"n": 2, "re": [[1, 0], [0, "-1/2"]]}')
    argv = ["norm", str(path), "uniform:a=-1,b=3/2", "-d", str(d), "--method", method, "--json"]
    assert cli.main(argv) == 0
    assert json.loads(capsys.readouterr().out)["norm"] == pytest.approx(want, abs=5e-6)


def test_norm_exact_entry_beyond_float_range_exit_3(tmp_path):
    path = tmp_path / "m.json"
    path.write_text('{"n": 1, "re": [[' + "1" + "0" * 400 + "]]}")
    r = _run_cli(["norm", str(path), "exponential", "-d", "4"])
    assert r.returncode == 3
    assert "Traceback" not in r.stderr and "float range" in r.stderr


def test_norm_float_law_on_large_denominators(tmp_path):
    # lcm(denominators)**4 exceeds the float range; the norm power does not.
    path = tmp_path / "m.json"
    den = [[10**20 + 1, 10**20 + 3], [10**20 + 7, 10**20 + 9]]
    re = [
        [f"{10**10 * (2 * i + j + 1)}/{q}" for j, q in enumerate(row)]
        for i, row in enumerate(den)
    ]
    path.write_text(json.dumps({"n": 2, "re": re}))
    norms = {}
    for method in ("partition", "words"):
        r = _run_cli(
            ["norm", str(path), "normal:mu=0,sigma=0.5", "-d", "4", "--method", method, "--json"]
        )
        assert r.returncode == 0, r.stderr
        out = json.loads(r.stdout)
        assert out["hermitian"] is False
        norms[method] = out["norm"]
    assert norms["partition"] == pytest.approx(norms["words"], rel=1e-12)


def test_bad_seed_env_exit_2():
    r = _run_cli(["verify", "--suite", "hunter", "--trials", "1"], {"RVNORMS_SEED": "abc"})
    assert r.returncode == 2
    assert "Traceback" not in r.stderr and "RVNORMS_SEED" in r.stderr


@pytest.mark.parametrize("trials", ["0", "-3"])
def test_verify_trials_below_one_exit_3(trials):
    r = _run_cli(["verify", "--suite", "hunter", "--trials", trials])
    assert r.returncode == 3
    assert r.stdout == ""
    assert "Traceback" not in r.stderr and "--trials" in r.stderr


def test_env_var_default_seed(identity2, monkeypatch, capsys):
    monkeypatch.setenv("RVNORMS_SEED", "4242")
    rc = cli.main(["oracle", identity2, "rademacher", "-d", "2", "--samples", "10000", "--json"])
    out = json.loads(capsys.readouterr().out)
    assert rc == 0
    assert out["seed"] == 4242


def test_help_lists_catalog(capsys):
    with pytest.raises(SystemExit) as exc:
        cli.main(["--help"])
    assert exc.value.code == 0
    out = capsys.readouterr().out
    for family in ("gamma", "pareto", "finite_discrete", "rademacher"):
        assert family in out


def test_norm_exact_near_hermitian_takes_general_route(tmp_path):
    # An off-diagonal 1e-14 is far below the float tolerance but not zero.
    path = tmp_path / "m.json"
    path.write_text(json.dumps({"n": 2, "re": [[1, "1/100000000000000"], [0, 1]]}))
    values = {}
    for method in ("partition", "words"):
        r = _run_cli(["norm", str(path), "exponential", "-d", "2", "--method", method, "--json"])
        assert r.returncode == 0, r.stderr
        out = json.loads(r.stdout)
        assert out["hermitian"] is False
        values[method] = out["norm_pow"]
    assert values["partition"] == values["words"]
    assert values["words"] == [60000000000000000000000000001, 20000000000000000000000000000]
    text = _run_cli(["norm", str(path), "exponential", "-d", "2"]).stdout
    assert "general" in text and "method: partition(words)" in text


@pytest.mark.parametrize("seed", ["-1", str(2**64)])
def test_verify_seed_out_of_range_exit_3(seed):
    r = _run_cli(["verify", "--suite", "axioms", "--trials", "1", "--seed", seed])
    assert r.returncode == 3
    assert r.stdout == ""
    assert "Traceback" not in r.stderr and "seed" in r.stderr


@pytest.mark.parametrize("suite", ["axioms", "hunter"])
def test_verify_env_seed_out_of_range_exit_3(suite):
    r = _run_cli(["verify", "--suite", suite, "--trials", "1"], {"RVNORMS_SEED": "-1"})
    assert r.returncode == 3
    assert "Traceback" not in r.stderr and "seed" in r.stderr


def test_verify_largest_seed_accepted(capsys):
    assert cli.main(["verify", "--suite", "hunter", "--trials", "1", "--seed", str(2**64 - 1)]) == 0


@pytest.mark.parametrize("entry", [1e308, 1e-200])
def test_oracle_out_of_unit_scale_is_finite(tmp_path, entry):
    path = tmp_path / "m.json"
    path.write_text(json.dumps({"n": 2, "re": [[entry, 0], [0, entry]]}))
    argv = ["oracle", str(path), "normal:mu=0,sigma=1", "-d", "4", "--samples", "10000", "--json"]
    r = _run_cli(argv)
    assert r.returncode == 0, r.stderr
    assert "Warning" not in r.stderr
    out = json.loads(r.stdout)
    path.write_text(json.dumps({"n": 2, "re": [[1, 0], [0, 1]]}))
    unit = json.loads(_run_cli(argv).stdout)
    assert math.isfinite(out["value"]) and out["value"] > 0
    assert abs(out["value"] - entry * unit["value"]) <= 5 * out["stderr"]


def test_formula_over_degree_limit_exit_3_before_work(monkeypatch, capsys):
    def refuse(*args, **kwargs):
        raise AssertionError("work started")

    monkeypatch.setattr(cli, "distribution_cumulants", refuse)
    monkeypatch.setattr(cli, "write_formula", refuse)
    rc = cli.main(["formula", "exponential", "-d", str(cli.FORMULA_MAX_DEGREE + 2)])
    captured = capsys.readouterr()
    assert rc == 3
    assert captured.out == ""
    assert f"degree {cli.FORMULA_MAX_DEGREE}" in captured.err


def test_formula_hermitian_mode_not_degree_limited(capsys):
    d = cli.FORMULA_MAX_DEGREE + 2
    assert cli.main(["formula", "exponential", "-d", str(d), "--mode", "hermitian"]) == 0
    assert capsys.readouterr().out.startswith(f"1/{d} tr(A^{d})\n")


def test_formula_at_degree_limit_exit_0(capsys):
    d = cli.FORMULA_MAX_DEGREE
    assert cli.main(["formula", "exponential", "-d", str(d)]) == 0
    lines = capsys.readouterr().out.splitlines()
    assert lines[0].endswith("tr(" + "Z*" * (d // 2) + "Z" * (d // 2) + ")")


@pytest.mark.parametrize(
    "argv",
    [
        ["norm", "M", "normal:mu=inf,sigma=1", "-d", "4"],
        ["norm", "M", "gamma:alpha=nan,beta=1", "-d", "4"],
        ["norm", "M", "normal:mu=0,sigma=1e400", "-d", "4"],
        ["formula", "exponential:beta=inf", "-d", "4", "--mode", "hermitian"],
        ["oracle", "M", "normal:mu=nan,sigma=1", "-d", "4", "--samples", "10000"],
        ["hunter", "-d", "4", "--alpha", "2", "--at", "inf,1"],
        ["hunter", "-d", "4", "--alpha", "2", "--at", "nan,1"],
        ["hunter", "-d", "4", "--alpha", "2", "--at", "1e400,1"],
    ],
)
def test_non_finite_numbers_exit_2(identity2, argv):
    r = _run_cli([identity2 if a == "M" else a for a in argv])
    assert r.returncode == 2
    assert r.stdout == ""
    assert "Traceback" not in r.stderr and "not finite" in r.stderr


@pytest.mark.parametrize(
    "argv, blocked",
    [
        (["formula", "exponential", "--mode", "hermitian"], ("distribution_cumulants", "write_formula")),
        (["hunter", "--alpha", "2", "--at", "1,2"], ("hunter_terms", "hunter_poly", "parse_scalar")),
    ],
)
def test_partition_degree_limit_exit_3_before_work(monkeypatch, capsys, argv, blocked):
    def refuse(*args, **kwargs):
        raise AssertionError("work started")

    for name in blocked:
        monkeypatch.setattr(cli, name, refuse)
    rc = cli.main(argv + ["-d", str(cli.PARTITION_MAX_DEGREE + 2)])
    captured = capsys.readouterr()
    assert rc == 3
    assert captured.out == ""
    assert f"degree {cli.PARTITION_MAX_DEGREE}" in captured.err


@pytest.mark.parametrize("method", ["partition", "series", "words", "auto"])
def test_norm_over_degree_limit_exit_3_before_work(monkeypatch, capsys, method):
    def refuse(*args, **kwargs):
        raise AssertionError("work started")

    for name in (
        "load_matrix",
        "parse_distribution",
        "hermitian_norm_pow",
        "general_norm_pow",
        "series_norm_pow",
        "word_sum_norm_pow",
        "circle_extension_check",
    ):
        monkeypatch.setattr(cli, name, refuse)
    limit = cli.NORM_MAX_DEGREE[method]
    rc = cli.main(["norm", "M", "exponential", "-d", str(limit + 2), "--method", method])
    captured = capsys.readouterr()
    assert rc == 3
    assert captured.out == ""
    assert f"degree {limit}" in captured.err


def test_hunter_at_walks_the_partitions_once(monkeypatch, capsys):
    from rvnorms import sympoly

    calls = []
    real = sympoly.enumerate_partitions

    def spy(d):
        calls.append(d)
        return real(d)

    monkeypatch.setattr(sympoly, "enumerate_partitions", spy)
    assert cli.main(["hunter", "-d", "6", "--alpha", "2", "--at", "1,1/2,-2"]) == 0
    assert calls == [6]
    assert "value at 1,1/2,-2: " in capsys.readouterr().out


def test_closed_stdout_ends_without_traceback():
    # About 97 kB of text (153 kB of JSON), more than a pipe holds, so the
    # writer is still writing, in the middle of the JSON document, when the
    # reader closes its end.
    for fmt, head in (([], b"1/924 tr("), (["--json"], b'{"degree": 12, ')):
        proc = subprocess.Popen(
            [sys.executable, "-m", "rvnorms.cli", "formula", "exponential", "-d", "12", *fmt],
            stdout=subprocess.PIPE,
            stderr=subprocess.PIPE,
        )
        first = proc.stdout.read(len(head))
        proc.stdout.close()
        err = proc.stderr.read()
        proc.stderr.close()
        assert proc.wait(timeout=60) == 1, fmt
        assert first == head
        assert err == b"", fmt


@pytest.mark.parametrize(
    "law, cause",
    [
        ("normal:mu=0,sigma=1e200", "is inf: its cumulants overflow"),
        ("normal:mu=1e-170,sigma=1", "(2, 1, 1) is 0.0: its cumulants underflow"),
        ("normal:mu=0,sigma=1e-200", "no term of degree 4 is left"),
    ],
)
@pytest.mark.parametrize("mode", ["general", "hermitian"])
def test_formula_with_a_float_coefficient_lost_exit_3(capsys, law, cause, mode):
    # sigma^2 = 1e400 overflows to inf; mu^2 = 1e-340 underflows to 0.0,
    # which would drop the terms in mu^2 (the exact twin keeps them); and
    # sigma^2 = 1e-400 leaves no term at all.  Each is refused, and
    # nothing is printed.
    assert cli.main(["formula", law, "-d", "4", "--mode", mode]) == 3
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.startswith("error: ") and cause in captured.err


def test_formula_float_law_at_ordinary_scale_prints_every_term(capsys):
    # The exact twin of normal:mu=1e-170 prints six terms; at mu = 1/2 the
    # float law prints the same six, the checks passing every coefficient.
    assert cli.main(["formula", f"normal:mu=1/{10**170},sigma=1", "-d", "4"]) == 0
    exact = capsys.readouterr().out.splitlines()
    assert cli.main(["formula", "normal:mu=0.5,sigma=1", "-d", "4"]) == 0
    floats = capsys.readouterr().out.splitlines()
    assert len(exact) == len(floats) == 6
    assert [line.split(" ", 1)[1] for line in exact] == [line.split(" ", 1)[1] for line in floats]


def test_formula_json_with_float_coefficients_exit_3_before_writing(capsys):
    # a float parameter gives float cumulants: text prints them, JSON
    # refuses before its first byte
    argv = ["formula", "exponential:beta=0.5", "-d", "4"]
    assert cli.main(argv) == 0
    assert capsys.readouterr().out.startswith("0.010416666666666666 tr(Z*Z*ZZ)\n")
    assert cli.main(argv + ["--json"]) == 3
    captured = capsys.readouterr()
    assert captured.out == ""
    assert "exact rational coefficients" in captured.err


def test_norm_prints_exact_powers_of_any_length(tmp_path, capsys):
    # (10**120 - 1)**40 has 4,800 digits, more than the interpreter turns
    # into a string by default
    path = tmp_path / "nines.json"
    path.write_text(json.dumps({"n": 1, "re": [["1/" + "9" * 120]]}))
    want = hermitian_norm_pow(
        Matrix([[Fraction(1, 10**120 - 1)]]), DistributionSpec.exponential(), 40
    )
    limit = sys.get_int_max_str_digits()
    printed = []
    for fmt in ([], ["--json"]):
        rc = cli.main(["norm", str(path), "exponential", "-d", "40", *fmt])
        captured = capsys.readouterr()
        assert rc == 0 and "Traceback" not in captured.err
        assert sys.get_int_max_str_digits() == limit
        printed.append(captured.out)
    sys.set_int_max_str_digits(0)
    try:
        text = next(line for line in printed[0].splitlines() if line.startswith("norm^40 = "))
        assert Fraction(text.removeprefix("norm^40 = ")) == want
        assert Fraction(*json.loads(printed[1])["norm_pow"]) == want
    finally:
        sys.set_int_max_str_digits(limit)


@pytest.mark.parametrize("method", ["series", "auto"])
def test_norm_float_zero_matrix_by_series(tmp_path, capsys, method):
    path = tmp_path / "zero.json"
    path.write_text(json.dumps({"n": 2, "re": [[0.0, 0.0], [0.0, 0.0]]}))
    assert cli.main(["norm", str(path), "exponential", "-d", "4", "--method", method]) == 0
    assert "norm^4 = 0.0\nnorm = 0.0\n" in capsys.readouterr().out


# CI's two exact 3x3 fixtures: Hermitian and non-Hermitian.
EXACT_FIXTURES = {
    "herm3.json": '{"n": 3, "re": [[2, "1/2", -1], ["1/2", "-3/4", "5/3"], [-1, "5/3", 1]]}',
    "gen3.json": '{"n": 3, "re": [[2, "1/2", -1], ["1/3", "-3/4", "5/3"], [-1, "2/5", 1]]}',
}

# sha256 of every run's argv, exit code and stdout below, recorded when the
# float trace kernel came to form half the powers by einsum: against the
# record before, only the float path discrepancy of 88 `auto` runs on
# gen3.json moved, in its last bits, and no bit depends on the BLAS kernel.
EXACT_NORM_DIGEST = "d950f35d1c510c09ef2ff0de7afbca7605d8780a3931b4dec46a1a39f2f890e5"


def test_exact_norm_output_bytes_are_pinned(tmp_path, monkeypatch, capsys):
    # every default family x method x d = 2..14 x text/--json on both
    # fixtures: 1,120 runs, exit codes included (pareto has no moment of
    # degree 14, series refuses the non-Hermitian matrix)
    from rvnorms.suites import default_family_specs

    monkeypatch.chdir(tmp_path)
    for name, text in EXACT_FIXTURES.items():
        (tmp_path / name).write_text(text)
    digest = hashlib.sha256()
    for name in EXACT_FIXTURES:
        for _, spec in default_family_specs():
            for method in ("partition", "series", "words", "auto"):
                for d in range(2, 15, 2):
                    for fmt in ([], ["--json"]):
                        argv = ["norm", name, spec.label(), "-d", str(d), "--method", method, *fmt]
                        rc = cli.main(argv)
                        out = capsys.readouterr().out
                        digest.update(f"{' '.join(argv)}\0{rc}\0{out}\0".encode())
    assert digest.hexdigest() == EXACT_NORM_DIGEST


@pytest.mark.parametrize(
    "re",
    [[[2, "1/3"], ["1/3", -0.5]], [[1, "-2/7"], [0.25, "5/3"]]],
    ids=["hermitian", "general"],
)
def test_mixed_document_prints_the_bytes_of_its_all_float_twin(tmp_path, capsys, re):
    # a document of int, p/q and float entries reads as complex128: it
    # prints what the document of the same entries as floats prints
    path = tmp_path / "m.json"
    twin = [[float(Fraction(v)) for v in row] for row in re]
    runs = [
        ["norm", str(path), "exponential", "-d", "4", "--method", method, "--json"]
        for method in ("partition", "series", "words", "auto")
    ]
    runs += [
        ["oracle", str(path), "exponential", "-d", "4", "--samples", "20000", "--seed", "7",
         "--threads", threads, "--json"]
        for threads in ("1", "2")
    ]
    outputs = []
    for rows in (re, twin):
        path.write_text(json.dumps({"n": 2, "re": rows}))
        assert load_matrix(path) == Matrix(np.array(twin))
        outputs.append([(cli.main(argv), capsys.readouterr()) for argv in runs])
    assert outputs[0] == outputs[1]
    hermitian = re[0][1] == re[1][0]
    assert [rc for rc, _ in outputs[0]] == [0, 0 if hermitian else 3, 0, 0] + [0 if hermitian else 3] * 2
