"""Tests of the benchmark's reference, checks and tracing.

    python3 -m pytest benchmark/test_benchmark.py -q
"""

import json
import math
import sys
from fractions import Fraction
from itertools import product
from math import factorial
from pathlib import Path

import numpy as np
import pytest

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE.parent / "src"))
sys.path.insert(0, str(HERE))

import hostspeed  # noqa: E402
import reference  # noqa: E402
import run  # noqa: E402
import tracing  # noqa: E402
from workloads import WORKLOADS, Dist, generic_dist  # noqa: E402

FAMILIES = [
    Dist("gamma", (("alpha", Fraction(2)), ("beta", Fraction(1, 2)))),
    Dist("poisson", (("alpha", Fraction(3, 2)),)),
    Dist("bernoulli", (("q", Fraction(1, 3)),)),
    Dist("normal", (("mu", Fraction(1, 2)), ("sigma", Fraction(1)))),
    Dist("laplace", (("mu", Fraction(1, 3)), ("beta", Fraction(2)))),
    Dist("rademacher", ()),
    Dist("pareto", (("alpha", Fraction(25, 2)),)),
]


@pytest.mark.parametrize("dist", FAMILIES, ids=lambda d: d.family)
def test_circle_average_matches_degree_two_closed_form(dist):
    rng = np.random.default_rng(7)
    kappas = dist.kappas(2)
    for n in (1, 3, 5):
        Z = rng.normal(size=(n, n)) + 1j * rng.normal(size=(n, n))
        got = reference.general_value(Z, kappas, 2)
        want = reference.degree_two_closed_form(Z, kappas)
        assert reference.relative_error(got, want) < 1e-12


@pytest.mark.parametrize("d", [2, 4, 6])
def test_hermitian_value_matches_enumerated_expectation(d):
    # E <X, lambda>^d / d! summed over every atom tuple of a finite law.
    atoms, probs = (-1, Fraction(1, 2), 2), (Fraction(1, 4), Fraction(1, 4), Fraction(1, 2))
    dist = Dist("finite_discrete", (("atoms", atoms), ("probs", probs)))
    lam = np.array([1.5, -0.25, 0.75])
    want = 0.0
    for idx in product(range(3), repeat=3):
        x = np.array([float(atoms[i]) for i in idx])
        want += math.prod(float(probs[i]) for i in idx) * float(x @ lam) ** d
    want /= factorial(d)
    rng = np.random.default_rng(3)
    Q, _ = np.linalg.qr(rng.normal(size=(3, 3)) + 1j * rng.normal(size=(3, 3)))
    A = Q @ np.diag(lam) @ Q.conj().T
    got = reference.hermitian_value((A + A.conj().T) / 2, dist.kappas(d), d)
    assert reference.relative_error(got, want) < 1e-12


def test_cumulant_recursion_matches_closed_forms():
    moments = [factorial(k) * Fraction(3, 2) ** k for k in range(1, 9)]  # exponential(3/2)
    assert reference.moments_to_cumulants(moments) == Dist(
        "exponential", (("beta", Fraction(3, 2)),)
    ).kappas(8)
    assert Dist("rademacher", ()).kappas(6) == [0, 1, 0, -2, 0, 16]


def test_generic_distributions_keep_every_cumulant():
    rng = np.random.default_rng(0)
    for family in ("gamma", "bernoulli", "finite_discrete", "pareto"):
        for _ in range(20):
            assert all(k != 0 for k in generic_dist(family, rng, 10).kappas(10))


def test_builds_repeat_for_a_seed(tmp_path):
    for name, workload in WORKLOADS.items():
        (tmp_path / "a").mkdir()
        (tmp_path / "b").mkdir()
        first = workload.build(5, tmp_path / "a")
        second = workload.build(5, tmp_path / "b")
        assert [op.argv for op in first] == [
            [arg.replace(str(tmp_path / "b"), str(tmp_path / "a")) for arg in op.argv]
            for op in second
        ], name
        for path in (tmp_path / "a").iterdir():
            assert path.read_text() == (tmp_path / "b" / path.name).read_text()
        assert workload.build(6, tmp_path / "b")[0].argv != second[0].argv
        for sub in ("a", "b"):
            for path in (tmp_path / sub).iterdir():
                path.unlink()
            (tmp_path / sub).rmdir()


def _run_first_ops(name, tmp_path, count):
    from rvnorms import cli

    workload = WORKLOADS[name]
    ops = workload.build(11, tmp_path)[:count]
    results = [run.call_cli(cli.main, op.argv) for op in ops]
    assert run.tally(workload, ops, results) == (0, False, [])
    return workload, ops, results


def _perturbed(results, i, edit):
    out = json.loads(results[i][2])
    edit(out)
    changed = list(results)
    changed[i] = (results[i][0], results[i][1], json.dumps(out))
    return changed


def _scale_pair(pair, factor=Fraction(10**6 + 1, 10**6)):
    f = Fraction(*pair) * factor
    return [f.numerator, f.denominator]


def test_norm_output_off_by_1e6_counts_as_failed(tmp_path):
    workload, ops, results = _run_first_ops("norm-general", tmp_path, 2)

    def bump_float(out):
        out["norm_pow"] *= 1 + 1e-6

    def bump_exact(out):
        out["norm_pow"] = _scale_pair(out["norm_pow"])

    def unreduced(out):
        out["norm_pow"] = [2 * v for v in out["norm_pow"]]

    for i, edit in ((0, bump_float), (1, bump_exact), (1, unreduced)):
        failed, wrong, messages = run.tally(workload, ops, _perturbed(results, i, edit))
        assert (failed, wrong, len(messages)) == (1, True, 1)


def test_formula_output_off_by_1e6_counts_as_failed(tmp_path):
    workload, ops, results = _run_first_ops("formula-cold", tmp_path, 1)

    def bump(out):
        for term in out["terms"]:
            term["coeff"] = _scale_pair(term["coeff"])

    assert run.tally(workload, ops, _perturbed(results, 0, bump))[:2] == (1, True)


def test_oracle_output_off_by_1e6_fails_the_thread_recheck(tmp_path):
    from rvnorms import cli

    workload, ops, results = _run_first_ops("oracle-mc", tmp_path, 1)

    def bump(out):
        out["value"] *= 1 + 1e-6

    stdouts = [stdout for _, _, stdout in _perturbed(results, 0, bump)]

    def rerun(argv):
        _, rc, stdout = run.call_cli(cli.main, argv)
        return rc, stdout

    assert workload.recheck(ops, [r[2] for r in results], rerun) == []
    assert len(workload.recheck(ops, stdouts, rerun)) == 1


def test_verify_check_count_must_match_trials(tmp_path):
    workload, ops, results = _run_first_ops("verify-suites", tmp_path, 1)

    def drop(out):
        out["checks"] -= 1

    assert run.tally(workload, ops, _perturbed(results, 0, drop))[:2] == (1, True)


def test_self_time_subtracts_child_spans():
    t = tracing.Tracer()
    t.names = [tracing.OP_SPAN, "a", "b"]
    # op [0, 100] > a [10, 60] > b [20, 30]; b [70, 80] directly under op
    for record in ([0, 0, 100, -1], [1, 10, 60, 0], [2, 20, 30, 4], [2, 70, 80, 0], [1, 200, 300, -1]):
        t.spans.extend(record)  # parents are record offsets: 0 is op, 4 is a
    (op,) = t.per_op()
    assert op == {tracing.OP_SPAN: [1, 40, 100], "a": [1, 40, 50], "b": [2, 20, 20]}


def test_host_clock_scales_by_the_kernel_times_around_an_operation():
    clock = hostspeed.HostClock(("python", "numpy"))
    ref = clock.reference_ms
    assert ref == pytest.approx(3.2)
    assert clock.scale(0.04, ref, ref) == pytest.approx(0.04)
    # a host at half speed doubles both the operation and the kernel time
    assert clock.scale(0.08, 2 * ref, 2 * ref) == pytest.approx(0.04)
    assert clock.scale(0.06, ref, 2 * ref) == pytest.approx(0.04)
    assert clock.sample() > 0


def test_benchmark_json_matches_reported_metrics():
    spec = json.loads((HERE.parent / "BENCHMARK.json").read_text())
    assert {m["name"]: m["unit"] for m in spec["end_to_end"]} == run.E2E_UNITS
    layer = {m["name"]: m["unit"] for m in spec["per_layer"]}
    assert layer == {name: run.layer_unit(name) for name in layer}
    assert set(layer) == set(tracing.SPAN_METRICS) | set(run.EXTRA_LAYER_UNITS)
    assert {w["name"] for w in spec["workloads"]} == set(WORKLOADS)
