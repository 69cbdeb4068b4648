"""Acceptance gate: one test per criterion, at the stated tolerances and
trial counts, each printing a pass/fail line (visible under ``pytest -s``).
"""

import json
import random
import time
from fractions import Fraction
from math import factorial

from rvnorms import cli
from rvnorms.cumulants import CumulantVector, DistributionSpec, distribution_cumulants
from rvnorms.normengine import (
    circle_extension_check,
    hermitian_norm_pow,
    symbolic_formula,
)
from rvnorms.oracle import mc_norm_pow
from rvnorms.partitions import enumerate_partitions, hunter_coefficient
from rvnorms.suites import (
    axioms_suite,
    default_family_specs,
    hunter_suite,
    khintchine_suite,
    paths_suite,
    schur_suite,
    stream,
)
from rvnorms.sympoly import chs

from oracles import diagonal, pareto_norm_pow_multinomial, random_general


def _finish(k, desc, failures, elapsed, limit=None):
    ok = not failures and (limit is None or elapsed <= limit)
    print(f"[criterion {k:2d}] {desc}: {'PASS' if ok else 'FAIL'} ({elapsed:.2f}s)")
    assert not failures, failures[:5]
    if limit is not None:
        assert elapsed <= limit, f"runtime {elapsed:.2f}s exceeds {limit}s"


def _run_formula_json(argv, capsys):
    rc = cli.main(argv)
    out = capsys.readouterr().out
    assert rc == 0
    return json.loads(out)


def test_criterion_1_formula_fixtures(capsys):
    failures = []
    t0 = time.perf_counter()
    marks = [t0]

    def lap(label):
        # every fixture group must come in under one second
        marks.append(time.perf_counter())
        if marks[-1] - marks[-2] > 1.0:
            failures.append(f"{label} took {marks[-1] - marks[-2]:.2f}s")

    # d=2 generic: kappa_2/2 tr(Z*Z) + kappa_1^2/2 (tr Z*)(tr Z)
    for dist in ("gamma:alpha=2,beta=3", "bernoulli:q=1/3"):
        doc = _run_formula_json(["formula", dist, "-d", "2", "--json"], capsys)
        k = distribution_cumulants(cli.parse_distribution(dist), 2)
        terms = {tuple(t["factors"]): tuple(t["coeff"]) for t in doc["terms"]}
        want_sz = Fraction(k.kappa(2)) / 2
        want_ss = Fraction(k.kappa(1)) ** 2 / 2
        if terms != {
            ("sZ",): (want_sz.numerator, want_sz.denominator),
            ("s", "Z"): (want_ss.numerator, want_ss.denominator),
        }:
            failures.append(f"d=2 generic mismatch for {dist}: {terms}")
        lap(f"d=2 generic {dist}")

    # Generic d=4 trace polynomial specialized to kappa_i = (i-1)!, the
    # standard-exponential case: ten canonical terms.
    doc = _run_formula_json(["formula", "exponential", "-d", "4", "--json"], capsys)
    terms = {tuple(t["factors"]): tuple(t["coeff"]) for t in doc["terms"]}
    expected_z44 = {
        ("s", "s", "Z", "Z"): (1, 24),
        ("s", "s", "ZZ"): (1, 24),
        ("ss", "Z", "Z"): (1, 24),
        ("s", "sZ", "Z"): (1, 6),
        ("ssZ", "Z"): (1, 6),
        ("s", "sZZ"): (1, 6),
        ("sZ", "sZ"): (1, 12),
        ("ss", "ZZ"): (1, 24),
        ("ssZZ",): (1, 6),
        ("sZsZ",): (1, 12),
    }
    if terms != expected_z44:
        failures.append(f"exponential d=4 mismatch: {terms}")
    lap("exponential d=4")

    # uniform[-1,1]: d=4 general (10, 5, -4, -2 over 1080)
    doc = _run_formula_json(["formula", "uniform:a=-1,b=1", "-d", "4", "--json"], capsys)
    terms = {tuple(t["factors"]): tuple(t["coeff"]) for t in doc["terms"]}
    if terms != {
        ("sZ", "sZ"): (1, 108),
        ("ss", "ZZ"): (1, 216),
        ("ssZZ",): (-1, 270),
        ("sZsZ",): (-1, 540),
    }:
        failures.append(f"uniform d=4 mismatch: {terms}")
    lap("uniform d=4")

    # uniform[-1,1]: d=6 Hermitian (35, -42, 16 over 45360)
    doc = _run_formula_json(
        ["formula", "uniform:a=-1,b=1", "-d", "6", "--mode", "hermitian", "--json"], capsys
    )
    terms = {tuple(t["factors"]): tuple(t["coeff"]) for t in doc["terms"]}
    if terms != {
        ("A^2", "A^2", "A^2"): (1, 1296),
        ("A^2", "A^4"): (-1, 1080),
        ("A^6",): (1, 2835),
    }:
        failures.append(f"uniform d=6 hermitian mismatch: {terms}")
    lap("uniform d=6 hermitian")

    # poisson d=4 Hermitian display: alpha^|pi| / y_pi, checked at alpha=1 via
    # the CLI and at two rational alphas for the power structure.
    doc = _run_formula_json(
        ["formula", "poisson:alpha=1", "-d", "4", "--mode", "hermitian", "--json"], capsys
    )
    terms = {tuple(t["factors"]): tuple(t["coeff"]) for t in doc["terms"]}
    if terms != {
        ("A^1", "A^1", "A^1", "A^1"): (1, 24),
        ("A^1", "A^1", "A^2"): (1, 4),
        ("A^1", "A^3"): (1, 6),
        ("A^2", "A^2"): (1, 8),
        ("A^4",): (1, 24),
    }:
        failures.append(f"poisson d=4 mismatch: {terms}")
    for a in (Fraction(5), Fraction(2, 3)):
        poly = symbolic_formula(CumulantVector((a,) * 4), 4, hermitian_mode=True)
        want = {
            ("z", "z", "z", "z"): a**4 / 24,
            ("z", "z", "zz"): a**3 / 4,
            ("z", "zzz"): a**2 / 6,
            ("zz", "zz"): a**2 / 8,
            ("zzzz",): a / 24,
        }
        if poly.terms != want:
            failures.append(f"poisson alpha={a} structure mismatch")
    lap("poisson d=4")

    # H_{4,3} = 3 h1^2 h2 + 6 h1 h3 + 3 h2^2 + 3 h4
    hunter = {
        p: hunter_coefficient(p, 3) for p in enumerate_partitions(4) if hunter_coefficient(p, 3)
    }
    if hunter != {(2, 1, 1): 3, (3, 1): 6, (2, 2): 3, (4,): 3}:
        failures.append(f"H_4,3 mismatch: {hunter}")
    lap("H_{4,3}")

    elapsed = time.perf_counter() - t0
    _finish(1, "formula fixtures exact, <1s each", failures, elapsed)


def test_criterion_2_exponential_chs_identity():
    t0 = time.perf_counter()
    failures = []
    rnd = random.Random(20240902)
    spec = DistributionSpec.exponential()
    for trial in range(100):
        n = rnd.randint(1, 5)
        lam = [Fraction(rnd.randint(-9, 9), rnd.randint(1, 9)) for _ in range(n)]
        A = diagonal(lam)
        for d in (2, 4, 6):
            if hermitian_norm_pow(A, spec, d) != chs(d, lam):
                failures.append(f"trial {trial} d={d}: mismatch at {lam}")
    _finish(2, "exponential/CHS identity exact", failures, time.perf_counter() - t0, limit=5.0)


def test_criterion_3_path_agreement():
    t0 = time.perf_counter()
    report = paths_suite(trials=50, seed=20240903)
    # 50 trials x 9 families with an MGF x 3 degrees x 2 route comparisons
    assert report.checks == 50 * 9 * 3 * 2
    _finish(3, "three-route path agreement 1e-10", report.failures, time.perf_counter() - t0, limit=30.0)


def test_criterion_4_norm_axioms():
    t0 = time.perf_counter()
    report = axioms_suite(trials=1000, seed=20240904)
    # 1000 pairs x 10 families x 2 degrees x 6 checks
    assert report.checks == 1000 * 10 * 2 * 6
    _finish(4, "norm axioms (1000 pairs/family)", report.failures, time.perf_counter() - t0, limit=60.0)


def test_criterion_5_schur_convexity():
    t0 = time.perf_counter()
    report = schur_suite(trials=500, seed=20240905)
    # 500 pairs x 10 families x 2 degrees
    assert report.checks == 500 * 10 * 2
    _finish(5, "Schur convexity (500 pairs)", report.failures, time.perf_counter() - t0)


def test_criterion_6_monte_carlo_agreement():
    t0 = time.perf_counter()
    failures = []
    rng = stream(20240906)
    for name, spec in default_family_specs():
        hits = 0
        for case in range(20):
            d = 2 if case < 10 else 4
            n = int(rng.integers(2, 5))
            lam = [float(v) for v in rng.uniform(-1.0, 1.0, size=n)]
            analytic = float(hermitian_norm_pow(diagonal(lam), spec, d))
            est = mc_norm_pow(lam, spec, d, 10**6, seed=int(rng.integers(0, 2**63)))
            if abs(est.value - analytic) <= 4 * est.stderr:
                hits += 1
        if hits < 19:
            failures.append(f"{name}: only {hits}/20 within 4 sigma")
    _finish(6, "Monte Carlo 4-sigma agreement", failures, time.perf_counter() - t0, limit=120.0)


def test_criterion_7_circle_average_extension():
    t0 = time.perf_counter()
    failures = []
    rng = stream(20240907)
    for name, spec in default_family_specs():
        for trial in range(50):
            d = 2 if trial % 2 == 0 else 4
            n = int(rng.integers(2, 5))
            Z = random_general(rng, n)
            quad, alg = circle_extension_check(Z, spec, d)
            if abs(quad - alg) > 1e-9 * max(1.0, abs(alg)):
                failures.append(f"{name} trial {trial} d={d}: {quad} vs {alg}")
    _finish(7, "circle-average extension 1e-9", failures, time.perf_counter() - t0, limit=30.0)


def test_criterion_8_hunter_positivity():
    t0 = time.perf_counter()
    report = hunter_suite(trials=1000, seed=20240908)
    # 1000 points x 3 degrees x 4 alphas x (recursion, positivity)
    assert report.checks == 1000 * 3 * 4 * 2
    _finish(8, "Hunter positivity + recursion", report.failures, time.perf_counter() - t0)


def test_criterion_9_khintchine_bounds():
    t0 = time.perf_counter()
    report = khintchine_suite(trials=200, seed=20240909)
    # 200 trials x 2 matrix kinds x 3 p, plus the p=2 tightness checks
    assert report.checks == 200 * 2 * 3 + 200 * 2
    _finish(9, "Khintchine bounds (200+200/p)", report.failures, time.perf_counter() - t0)


def test_criterion_10_pareto_limits():
    t0 = time.perf_counter()
    failures = []
    # Fixed diagonal: the cross-moment terms must stay small next to the
    # divergent pure powers for the 1% window at alpha = d + 1e-3.
    lam = [Fraction(2), Fraction(1, 5), Fraction(-1, 10)]
    tr = sum(lam)
    for d in (2, 4):
        diffs = []
        for alpha in (Fraction(100), Fraction(1000), Fraction(10000)):
            val = pareto_norm_pow_multinomial(lam, alpha, d)
            diffs.append(abs(factorial(d) * val - tr**d))
        if not (diffs[0] > diffs[1] > diffs[2]):
            failures.append(f"d={d}: |d! norm^d - (tr A)^d| not decreasing: {diffs}")
        alpha = d + Fraction(1, 1000)
        val = pareto_norm_pow_multinomial(lam, alpha, d)
        got = (alpha - d) * factorial(d) * val
        target = d * sum(v**d for v in lam)
        if abs(got - target) > Fraction(1, 100) * target:
            failures.append(f"d={d}: alpha->d limit off: {float(got)} vs {float(target)}")
    _finish(10, "Pareto alpha limits", failures, time.perf_counter() - t0)
