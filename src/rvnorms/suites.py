"""Randomized verification suites behind the ``verify`` command.

Each suite runs a seeded batch of checks against guarantees that are not
desk-checkable (triangle inequality, Schur convexity, agreement of the
independent evaluation routes, positivity, Khintchine bounds) and returns
a report whose failure list is empty on success.  The acceptance tests
drive these functions at their full trial counts.
"""

from __future__ import annotations

import random
from dataclasses import dataclass, field
from fractions import Fraction

import numpy as np

from .cumulants import DistributionSpec
from .matrixcore import Matrix, is_majorized
from .normengine import (
    general_norm_pow,
    hermitian_norm_pow,
    series_norm_pow,
    word_sum_norm_pow,
)
from .oracle import check_seed, khintchine_check
from .sympoly import hunter_poly, hunter_poly_recursive, hunter_terms


def default_family_specs() -> list[tuple[str, DistributionSpec]]:
    """One representative, rational-parameter spec per catalog family."""
    return [
        ("gamma", DistributionSpec.gamma(2, Fraction(1, 2))),
        ("exponential", DistributionSpec.exponential()),
        ("normal", DistributionSpec.normal(Fraction(1, 2), 1)),
        ("uniform", DistributionSpec.uniform(-1, Fraction(3, 2))),
        ("laplace", DistributionSpec.laplace(Fraction(1, 3), 1)),
        ("bernoulli", DistributionSpec.bernoulli(Fraction(1, 3))),
        (
            "finite_discrete",
            DistributionSpec.finite_discrete(
                (-1, Fraction(1, 2), 2), (Fraction(1, 4), Fraction(1, 4), Fraction(1, 2))
            ),
        ),
        ("rademacher", DistributionSpec.rademacher()),
        ("poisson", DistributionSpec.poisson(Fraction(3, 2))),
        ("pareto", DistributionSpec.pareto(Fraction(25, 2))),
    ]


def mgf_family_specs() -> list[tuple[str, DistributionSpec]]:
    return [(name, s) for name, s in default_family_specs() if s.has_mgf]


def stream(seed: int) -> np.random.Generator:
    return np.random.Generator(np.random.Philox(key=check_seed(seed)))


def random_hermitian(rng: np.random.Generator, n: int) -> Matrix:
    g = rng.normal(size=(n, n)) + 1j * rng.normal(size=(n, n))
    return Matrix((g + g.conj().T) * 0.5)


def random_general(rng: np.random.Generator, n: int) -> Matrix:
    return Matrix(rng.normal(size=(n, n)) + 1j * rng.normal(size=(n, n)))


def random_unitary(rng: np.random.Generator, n: int) -> Matrix:
    """A unitary built as a product of n Householder reflections."""
    U = np.eye(n, dtype=complex)
    for _ in range(n):
        v = rng.normal(size=n) + 1j * rng.normal(size=n)
        v /= np.linalg.norm(v)
        U = U - 2.0 * np.outer(U @ v, v.conj())
    return Matrix(U)


def random_rational_vector(rnd: random.Random, n: int) -> list[Fraction]:
    """n rationals p/q with |p| <= 9 and 1 <= q <= 9, not all zero."""
    while True:
        out = [Fraction(rnd.randint(-9, 9), rnd.randint(1, 9)) for _ in range(n)]
        if any(v != 0 for v in out):
            return out


def robin_hood_pair(rng: np.random.Generator, n: int):
    """A majorization pair: x obtained from y by three averaging transfers."""
    y = [float(v) for v in rng.uniform(-1.0, 1.0, size=n)]
    x = list(y)
    for _ in range(3):
        i, j = rng.integers(0, n, size=2)
        if x[i] == x[j]:
            continue
        if x[i] < x[j]:
            i, j = j, i
        t = float(rng.uniform(0.0, 1.0)) * (x[i] - x[j]) / 2.0
        x[i] -= t
        x[j] += t
    return x, y


@dataclass
class SuiteReport:
    suite: str
    trials: int
    checks: int = 0
    failures: list[str] = field(default_factory=list)

    @property
    def passed(self) -> bool:
        return not self.failures

    def record(self, ok: bool, message: str) -> None:
        self.checks += 1
        if not ok:
            self.failures.append(message)

    def to_json(self) -> dict:
        return {
            "suite": self.suite,
            "trials": self.trials,
            "checks": self.checks,
            "failures": self.failures,
        }


def _norm_value(pow_value, d: int) -> float:
    return float(pow_value) ** (1.0 / d)


def axioms_suite(trials: int = 1000, seed: int = 2024) -> SuiteReport:
    """Triangle inequality, absolute homogeneity, and strict positivity on
    random 4x4 Hermitian pairs (partition path) and general pairs (word
    path), for every catalog family at d = 2 and 4: six checks a trial."""
    report = SuiteReport("axioms", trials)
    rng = stream(seed)
    for name, spec in default_family_specs():
        for d in (2, 4):
            for t in range(trials):
                ctx = f"{name} d={d} trial={t}"
                A = random_hermitian(rng, 4)
                B = random_hermitian(rng, 4)
                nA = _norm_value(hermitian_norm_pow(A, spec, d), d)
                nB = _norm_value(hermitian_norm_pow(B, spec, d), d)
                nAB = _norm_value(hermitian_norm_pow(A + B, spec, d), d)
                tol = 1e-9 * max(1.0, nA + nB)
                report.record(nAB <= nA + nB + tol, f"hermitian triangle {ctx}: {nAB} > {nA}+{nB}")
                c = float(rng.uniform(-2.0, 2.0)) or 1.0
                nCA = _norm_value(hermitian_norm_pow(A * c, spec, d), d)
                report.record(
                    abs(nCA - abs(c) * nA) <= 1e-12 * max(1.0, abs(c) * nA),
                    f"hermitian homogeneity {ctx}",
                )
                report.record(nA > 0.0, f"hermitian positivity {ctx}")

                Z = random_general(rng, 4)
                W = random_general(rng, 4)
                nZ = _norm_value(general_norm_pow(Z, spec, d), d)
                nW = _norm_value(general_norm_pow(W, spec, d), d)
                nZW = _norm_value(general_norm_pow(Z + W, spec, d), d)
                tol = 1e-9 * max(1.0, nZ + nW)
                report.record(nZW <= nZ + nW + tol, f"general triangle {ctx}: {nZW} > {nZ}+{nW}")
                cc = complex(rng.normal(), rng.normal()) or 1.0
                nCZ = _norm_value(general_norm_pow(Z * cc, spec, d), d)
                report.record(
                    abs(nCZ - abs(cc) * nZ) <= 1e-12 * max(1.0, abs(cc) * nZ),
                    f"general homogeneity {ctx}",
                )
                report.record(nZ > 0.0, f"general positivity {ctx}")
    return report


def schur_suite(trials: int = 500, seed: int = 2025) -> SuiteReport:
    """Majorization monotonicity: x from y in R^5 by averaging transfers,
    then norm(diag(x)) <= norm(diag(y)) within 1e-12 of scale, for every
    catalog family at d = 2 and 4."""
    report = SuiteReport("schur", trials)
    rng = stream(seed)
    for name, spec in default_family_specs():
        for d in (2, 4):
            for t in range(trials):
                x, y = robin_hood_pair(rng, 5)
                if not is_majorized(x, y):
                    report.record(False, f"generator produced a non-majorized pair {x} {y}")
                    continue
                nx = _norm_value(hermitian_norm_pow(Matrix.diagonal(x), spec, d), d)
                ny = _norm_value(hermitian_norm_pow(Matrix.diagonal(y), spec, d), d)
                report.record(
                    nx <= ny + 1e-12 * max(1.0, ny),
                    f"schur {name} d={d} trial={t}: {nx} > {ny}",
                )
    return report


def paths_suite(trials: int = 50, seed: int = 2026) -> SuiteReport:
    """Partition, series, and trace-word routes agree to 1e-10 relative on
    random Hermitian matrices of size 2 to 5, for every family with a moment
    generating function at d = 2, 4 and 6; the trace-word oracle restricts
    to the Hermitian route."""
    report = SuiteReport("paths", trials)
    rng = stream(seed)
    for name, spec in mgf_family_specs():
        for d in (2, 4, 6):
            for t in range(trials):
                n = int(rng.integers(2, 6))
                A = random_hermitian(rng, n)
                v1 = float(hermitian_norm_pow(A, spec, d))
                ref = max(1.0, abs(v1))
                v2 = float(series_norm_pow(A, spec, d))
                report.record(
                    abs(v1 - v2) <= 1e-10 * ref,
                    f"paths partition-vs-series {name} d={d} trial={t}: {v1} vs {v2}",
                )
                v3 = float(word_sum_norm_pow(A, spec, d))
                report.record(
                    abs(v1 - v3) <= 1e-10 * ref,
                    f"paths partition-vs-words {name} d={d} trial={t}: {v1} vs {v3}",
                )
    return report


def hunter_suite(trials: int = 1000, seed: int = 2027) -> SuiteReport:
    """H_{d,alpha} positivity on random nonzero rational points, plus exact
    agreement between the direct expansion and the recursion, for d = 2, 4,
    6 and alpha = 1..4."""
    report = SuiteReport("hunter", trials)
    rnd = random.Random(seed)
    for d in (2, 4, 6):
        for alpha in (1, 2, 3, 4):
            terms = hunter_terms(d, alpha)
            for t in range(trials):
                x = random_rational_vector(rnd, rnd.randint(2, 4))
                direct = hunter_poly(d, alpha, x, terms)
                rec = hunter_poly_recursive(d, alpha, x)
                report.record(
                    direct == rec,
                    f"hunter recursion d={d} alpha={alpha} trial={t}: {direct} != {rec}",
                )
                report.record(
                    direct > 0,
                    f"hunter positivity d={d} alpha={alpha} trial={t}: {direct} at {x}",
                )
    return report


def khintchine_suite(trials: int = 200, seed: int = 2028) -> SuiteReport:
    """Frobenius sandwich for Rademacher entries on random 4x4 Hermitian and
    general matrices at p = 2, 4 and 6; the p=2 lower bound is tight."""
    report = SuiteReport("khintchine", trials)
    rng = stream(seed)
    for p in (2, 4, 6):
        for t in range(trials):
            for kind, Z in (
                ("hermitian", random_hermitian(rng, 4)),
                ("general", random_general(rng, 4)),
            ):
                try:
                    lower, middle, upper = khintchine_check(Z, p)
                except ArithmeticError as exc:
                    report.record(False, f"khintchine {kind} p={p} trial={t}: {exc}")
                    continue
                tol = 1e-9 * max(1.0, upper)
                report.record(
                    lower <= middle + tol and middle <= upper + tol,
                    f"khintchine {kind} p={p} trial={t}: {lower} {middle} {upper}",
                )
                if p == 2:
                    report.record(
                        abs(lower - middle) <= 1e-12 * max(1.0, lower),
                        f"khintchine p=2 tightness {kind} trial={t}: {lower} vs {middle}",
                    )
    return report


SUITES = {
    "axioms": axioms_suite,
    "schur": schur_suite,
    "paths": paths_suite,
    "hunter": hunter_suite,
    "khintchine": khintchine_suite,
}


def run_suite(name: str, trials: int | None = None, seed: int | None = None) -> SuiteReport:
    fn = SUITES[name]
    kwargs = {}
    if trials is not None:
        kwargs["trials"] = trials
    if seed is not None:
        kwargs["seed"] = check_seed(seed)
    return fn(**kwargs)
