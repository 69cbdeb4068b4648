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
    general_norm_pow_stack,
    hermitian_norm_pow_stack,
    series_norm_pow_stack,
    word_sum_norm_pow_stack,
)
from .oracle import check_seed, khintchine_bounds, khintchine_check
from .sympoly import hunter_poly, hunter_poly_recursive, hunter_terms

# Trials whose matrices the suites evaluate together, so that peak memory
# is set by this constant and not by --trials.  The axioms, schur and paths
# suites gather successive (family, degree) cells' draws until this many
# trials are pending and evaluate them as one stack per degree, with each
# cell's law on its rows; at this many trials or more a cell is its own
# stack.  khintchine evaluates blocks of this many trials.  Measured on a
# 2-vCPU host: 1000 axioms trials take 2.1 s in blocks of 100 and 1.9-2.3 s
# in blocks of 250 to 1000, while the peak traced allocation of 300 trials
# grows from 1.9 MB to 5.6 MB.
STACK_TRIALS = 100


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


def _hermitian_array(rng: np.random.Generator, n: int) -> np.ndarray:
    g = rng.normal(size=(n, n)) + 1j * rng.normal(size=(n, n))
    return (g + g.conj().T) * 0.5


def _general_array(rng: np.random.Generator, n: int) -> np.ndarray:
    return rng.normal(size=(n, n)) + 1j * rng.normal(size=(n, n))


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

    def record(self, ok: bool, message: str, *args) -> None:
        """Count one check; on failure keep ``message``, filled in with
        ``args`` by ``str.format`` only then, so that a passing check
        formats nothing."""
        self.checks += 1
        if not ok:
            self.failures.append(message.format(*args) if args else message)

    def to_json(self) -> dict:
        return {
            "suite": self.suite,
            "trials": self.trials,
            "checks": self.checks,
            "failures": self.failures,
        }


def _blocks(trials: int):
    """The trial numbers, in consecutive runs of at most STACK_TRIALS."""
    for start in range(0, trials, STACK_TRIALS):
        yield range(start, min(start + STACK_TRIALS, trials))


def _runs(cells, trials: int):
    """Each cell's blocks of trials (:func:`_blocks`) as (cell, block)
    items, in order, gathered into runs of at most STACK_TRIALS trials in
    total: successive cells share a run while their blocks fit, and a
    block of STACK_TRIALS trials is a run of its own."""
    run, pending = [], 0
    for cell in cells:
        for block in _blocks(trials):
            if run and pending + len(block) > STACK_TRIALS:
                yield run
                run, pending = [], 0
            run.append((cell, block))
            pending += len(block)
    if run:
        yield run


def _stack_pows(route, parts) -> list[list[float]]:
    """The norm powers of each part (spec, d, stack) by ``route``, one list
    per part.  The parts of one degree are evaluated in one call, as one
    stack per matrix size (a single stack if they share one size), with
    each part's law on its rows."""
    groups: dict = {}
    for i, (_, d, M) in enumerate(parts):
        groups.setdefault(d, {}).setdefault(M.shape[-1], []).append(i)
    out: list = [None] * len(parts)
    for d, sizes in groups.items():
        members = [i for size in sizes.values() for i in size]
        laws = [parts[i][0] for i in members for _ in range(len(parts[i][2]))]
        stacks = [np.concatenate([parts[i][2] for i in size]) for size in sizes.values()]
        pows = iter(route(stacks[0] if len(stacks) == 1 else stacks, laws, d).tolist())
        for i in members:
            out[i] = [next(pows) for _ in range(len(parts[i][2]))]
    return out


def _norm_values(pows: list[float], d: int) -> list[float]:
    return [v ** (1.0 / d) for v in pows]


def axioms_suite(trials: int = 1000, seed: int = 2024) -> SuiteReport:
    """Triangle inequality, absolute homogeneity, and strict positivity on
    random 4x4 Hermitian pairs (Hermitian route) and general pairs
    (constant-term route), for every catalog family at d = 2 and 4: six
    checks a trial.  Each run of trials (:func:`_runs`) is drawn first, in
    the order of one family, degree and trial at a time, and its matrices
    evaluated as one Hermitian and one general stack per degree."""
    report = SuiteReport("axioms", trials)
    rng = stream(seed)
    cells = [(name, spec, d) for name, spec in default_family_specs() for d in (2, 4)]
    for run in _runs(cells, trials):
        herm, gen, drawn = [], [], []
        for (_, spec, d), block in run:
            draws = []
            for _ in block:
                A = _hermitian_array(rng, 4)
                B = _hermitian_array(rng, 4)
                c = float(rng.uniform(-2.0, 2.0)) or 1.0
                Z = _general_array(rng, 4)
                W = _general_array(rng, 4)
                cc = complex(rng.normal(), rng.normal()) or 1.0
                draws.append((A, B, c, Z, W, cc))
            A, B, c, Z, W, cc = (np.array(x) for x in zip(*draws))
            herm.append((spec, d, np.concatenate([A, B, A + B, A * c[:, None, None]])))
            gen.append((spec, d, np.concatenate([Z, W, Z + W, Z * cc[:, None, None]])))
            drawn.append(draws)
        H = _stack_pows(hermitian_norm_pow_stack, herm)
        G = _stack_pows(general_norm_pow_stack, gen)
        for ((name, _, d), block), draws, hp, gp in zip(run, drawn, H, G):
            k = len(block)
            hn, gn = _norm_values(hp, d), _norm_values(gp, d)
            for i, t in enumerate(block):
                nA, nB, nAB, nCA = hn[i], hn[k + i], hn[2 * k + i], hn[3 * k + i]
                tol = 1e-9 * max(1.0, nA + nB)
                report.record(
                    nAB <= nA + nB + tol,
                    "hermitian triangle {} d={} trial={}: {} > {}+{}", name, d, t, nAB, nA, nB,
                )
                ca = abs(draws[i][2])
                report.record(
                    abs(nCA - ca * nA) <= 1e-12 * max(1.0, ca * nA),
                    "hermitian homogeneity {} d={} trial={}", name, d, t,
                )
                report.record(nA > 0.0, "hermitian positivity {} d={} trial={}", name, d, t)

                nZ, nW, nZW, nCZ = gn[i], gn[k + i], gn[2 * k + i], gn[3 * k + i]
                tol = 1e-9 * max(1.0, nZ + nW)
                report.record(
                    nZW <= nZ + nW + tol,
                    "general triangle {} d={} trial={}: {} > {}+{}", name, d, t, nZW, nZ, nW,
                )
                ca = abs(draws[i][5])
                report.record(
                    abs(nCZ - ca * nZ) <= 1e-12 * max(1.0, ca * nZ),
                    "general homogeneity {} d={} trial={}", name, d, t,
                )
                report.record(nZ > 0.0, "general positivity {} d={} trial={}", name, d, t)
    return report


def schur_suite(trials: int = 500, seed: int = 2025) -> SuiteReport:
    """Majorization monotonicity: x from y in R^5 by averaging transfers,
    then norm(diag(x)) <= norm(diag(y)) within 1e-12 of scale, for every
    catalog family at d = 2 and 4.  The diagonals of a run of trials
    (:func:`_runs`) are evaluated as one stack per degree."""
    report = SuiteReport("schur", trials)
    rng = stream(seed)
    cells = [(name, spec, d) for name, spec in default_family_specs() for d in (2, 4)]
    for run in _runs(cells, trials):
        drawn, parts = [], []
        for (_, spec, d), block in run:
            pairs = [robin_hood_pair(rng, 5) for _ in block]
            diag = np.zeros((2, len(pairs), 5, 5), dtype=complex)
            diag[:, :, range(5), range(5)] = np.array(pairs).swapaxes(0, 1)
            drawn.append(pairs)
            parts.append((spec, d, diag.reshape(-1, 5, 5)))
        pows = _stack_pows(hermitian_norm_pow_stack, parts)
        for ((name, _, d), block), pairs, cell_pows in zip(run, drawn, pows):
            k = len(pairs)
            norms = _norm_values(cell_pows, d)
            for i, (t, (x, y)) in enumerate(zip(block, pairs)):
                if not is_majorized(x, y):
                    report.record(False, "generator produced a non-majorized pair {} {}", x, y)
                    continue
                nx, ny = norms[i], norms[k + i]
                report.record(
                    nx <= ny + 1e-12 * max(1.0, ny),
                    "schur {} d={} trial={}: {} > {}", name, d, t, nx, ny,
                )
    return report


def paths_suite(trials: int = 50, seed: int = 2026) -> SuiteReport:
    """Partition, series, and trace-word routes agree to 1e-10 relative on
    random Hermitian matrices of size 2 to 5, for every family with a moment
    generating function at d = 2, 4 and 6; the trace-word oracle restricts
    to the Hermitian route.  Each route evaluates the matrices of a run of
    trials (:func:`_runs`) in one call per degree, as one stack per size."""
    report = SuiteReport("paths", trials)
    rng = stream(seed)
    cells = [(name, spec, d) for name, spec in mgf_family_specs() for d in (2, 4, 6)]
    for run in _runs(cells, trials):
        drawn = []
        for (name, spec, d), block in run:
            for t in block:
                n = int(rng.integers(2, 6))
                drawn.append((name, spec, d, t, _hermitian_array(rng, n)))
        parts = [(spec, d, A[None]) for _, spec, d, _, A in drawn]
        routes = (hermitian_norm_pow_stack, series_norm_pow_stack, word_sum_norm_pow_stack)
        pows = [_stack_pows(route, parts) for route in routes]
        for (name, spec, d, t, _), (v1,), (v2,), (v3,) in zip(drawn, *pows):
            ref = max(1.0, abs(v1))
            report.record(
                abs(v1 - v2) <= 1e-10 * ref,
                "paths partition-vs-series {} d={} trial={}: {} vs {}", name, d, t, v1, v2,
            )
            report.record(
                abs(v1 - v3) <= 1e-10 * ref,
                "paths partition-vs-words {} d={} trial={}: {} vs {}", name, d, t, v1, v3,
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
                    "hunter recursion d={} alpha={} trial={}: {} != {}", d, alpha, t, direct, rec,
                )
                report.record(
                    direct > 0,
                    "hunter positivity d={} alpha={} trial={}: {} at {}", d, alpha, t, direct, x,
                )
    return report


def _khintchine_rows(Z: np.ndarray, p: int) -> list:
    """Per matrix of the stack, (lower, middle, upper) or the
    ArithmeticError its check raised; a stack that raises is checked
    again one matrix at a time."""
    try:
        return list(zip(*(v.tolist() for v in khintchine_bounds(Z, p))))
    except ArithmeticError:
        rows = []
        for M in Z:
            try:
                rows.append(khintchine_check(Matrix(M), p))
            except ArithmeticError as exc:
                rows.append(exc)
        return rows


def khintchine_suite(trials: int = 200, seed: int = 2028) -> SuiteReport:
    """Frobenius sandwich for Rademacher entries on random 4x4 Hermitian and
    general matrices at p = 2, 4 and 6; the p=2 lower bound is tight.  Each
    block of trials is checked as one stack per kind."""
    report = SuiteReport("khintchine", trials)
    rng = stream(seed)
    for p in (2, 4, 6):
        for block in _blocks(trials):
            draws = [(_hermitian_array(rng, 4), _general_array(rng, 4)) for _ in block]
            kinds = (
                ("hermitian", _khintchine_rows(np.array([H for H, _ in draws]), p)),
                ("general", _khintchine_rows(np.array([G for _, G in draws]), p)),
            )
            for i, t in enumerate(block):
                for kind, rows in kinds:
                    row = rows[i]
                    if isinstance(row, ArithmeticError):
                        report.record(False, "khintchine {} p={} trial={}: {}", kind, p, t, row)
                        continue
                    lower, middle, upper = row
                    tol = 1e-9 * max(1.0, upper)
                    report.record(
                        lower <= middle + tol and middle <= upper + tol,
                        "khintchine {} p={} trial={}: {} {} {}", kind, p, t, lower, middle, upper,
                    )
                    if p == 2:
                        report.record(
                            abs(lower - middle) <= 1e-12 * max(1.0, lower),
                            "khintchine p=2 tightness {} trial={}: {} vs {}",
                            kind, t, lower, middle,
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
