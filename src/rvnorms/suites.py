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
from math import lcm

import numpy as np

from .cumulants import DistributionSpec
from .matrixcore import Matrix, majorized_rows
from .normengine import (
    general_norm_pow_stack,
    hermitian_norm_pow_stack,
    series_norm_pow_stack,
    word_sum_norm_pow_stack,
)
from .oracle import block_stream as stream, check_seed, khintchine_bounds, khintchine_check
from .sympoly import chs_prefix, hunter_expansion, hunter_recurrence, hunter_terms

# Trials whose matrices the suites draw and evaluate together, so that
# peak memory is set by this constant and not by --trials.  The axioms,
# schur and paths suites gather successive (family, degree) cells' trials
# until this many are pending (a run), draw the run's inputs with one
# generator call per kind of input, and evaluate them as one stack per
# degree, with each cell's law on its rows; at this many trials or more a
# cell is its own run.  khintchine draws and evaluates blocks of this many
# trials.  The draws therefore depend on this constant; they are fixed by
# the seed and the trial count.  Measured in process on a 2-vCPU host:
# 1000 axioms trials take 0.69 s in runs of 100, 0.67 s in runs of 250 and
# 0.63 s in runs of 1000, while the peak traced allocation of 300 trials
# grows from 2.5 MB to 6.1 MB and 16.6 MB.
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


def _hermitian(re: np.ndarray, im: np.ndarray) -> np.ndarray:
    """(G + G*) / 2 for G = re + i im, on a stack (..., n, n): exactly
    Hermitian, since its (j, i) entry is the conjugate of its (i, j) entry
    computed with the same float additions."""
    g = re + 1j * im
    return (g + g.conj().swapaxes(-2, -1)) * 0.5


def random_rational_vector(rnd: random.Random, n: int) -> list[tuple[int, int]]:
    """n rationals p/q as int pairs (p, q), |p| <= 9 and 1 <= q <= 9, drawn
    p then q for each coordinate, and drawn again while every p is 0."""
    while True:
        out = [(rnd.randint(-9, 9), rnd.randint(1, 9)) for _ in range(n)]
        if any(p for p, _ in out):
            return out


def robin_hood_pairs(rng: np.random.Generator, trials: int, n: int):
    """``trials`` majorization pairs as the rows of two arrays (X, Y) of
    shape (trials, n): each y uniform on [-1, 1)^n, and its x obtained from
    it by three averaging transfers.  A transfer picks two positions i, j
    and a fraction u of half their gap, and moves that much from the larger
    entry to the smaller; between equal entries (i == j included) it leaves
    the row as it is.  One call per round draws every row's i, j and u."""
    y = rng.uniform(-1.0, 1.0, size=(trials, n))
    x = y.copy()
    rows = np.arange(trials)
    for _ in range(3):
        i, j = rng.integers(0, n, size=(trials, 2)).T
        u = rng.uniform(0.0, 1.0, size=trials)
        xi, xj = x[rows, i], x[rows, j]
        moved = xi != xj
        hi = np.where(xi > xj, i, j)[moved]
        lo = np.where(xi > xj, j, i)[moved]
        t = (u * np.abs(xi - xj) / 2.0)[moved]
        x[rows[moved], hi] -= t
        x[rows[moved], lo] += t
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

    def record_rows(self, ok: np.ndarray, messages) -> None:
        """Count the checks of ``ok``, a boolean array of one row per trial
        and one column per check; for each failing entry (i, j), in trial
        order, keep ``messages[j](i)``, built only then."""
        self.checks += ok.size
        for i, j in zip(*np.nonzero(~ok)):
            self.failures.append(messages[j](int(i)))

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
    """Each cell's blocks of trials (:func:`_blocks`) as (cell, block, rows)
    items, in order, gathered into runs of at most STACK_TRIALS trials in
    total: successive cells share a run while their blocks fit, and a
    block of STACK_TRIALS trials is a run of its own.  ``rows`` is the
    slice of the run's trials that the block takes, so a run of T trials
    draws its inputs as arrays of T rows and each item reads its slice."""
    run, pending = [], 0
    for cell in cells:
        for block in _blocks(trials):
            if run and pending + len(block) > STACK_TRIALS:
                yield run
                run, pending = [], 0
            run.append((cell, block, slice(pending, pending + len(block))))
            pending += len(block)
    if run:
        yield run


def _trial(run, i: int) -> str:
    """Family, degree and trial number of row i of a run, for a message."""
    for (name, _, d), block, rows in run:
        if i < rows.stop:
            return f"{name} d={d} trial={block[i - rows.start]}"


def _run_norms(route, run, stacks: np.ndarray) -> np.ndarray:
    """The norms by ``route`` of a run's matrices ``stacks``, an array
    (m, T, n, n) of m matrices per trial, as an array (m, T).  Each item's
    rows of the m go to the route as one part (:func:`_stack_pows`), under
    the item's law and degree."""
    m, n = len(stacks), stacks.shape[-1]
    parts = [(spec, d, stacks[:, rows].reshape(-1, n, n)) for (_, spec, d), _, rows in run]
    pows = np.concatenate([p.reshape(m, -1) for p in _stack_pows(route, parts)], axis=1)
    return pows ** np.repeat([1.0 / d for (_, _, d), _, _ in run], [len(b) for _, b, _ in run])


def _stack_pows(route, parts) -> list[np.ndarray]:
    """The norm powers of each part (spec, d, stack) by ``route``, one array
    per part.  The parts of one degree are evaluated in one call, as one
    stack with each part's law on its rows."""
    groups: dict = {}
    for i, (_, d, _) in enumerate(parts):
        groups.setdefault(d, []).append(i)
    out: list = [None] * len(parts)
    for d, members in groups.items():
        laws = [parts[i][0] for i in members for _ in range(len(parts[i][2]))]
        pows = route(np.concatenate([parts[i][2] for i in members]), laws, d)
        at = 0
        for i in members:
            out[i] = pows[at : at + len(parts[i][2])]
            at += len(parts[i][2])
    return out


def axioms_suite(trials: int = 1000, seed: int = 2024) -> SuiteReport:
    """Triangle inequality, absolute homogeneity, and strict positivity on
    random 4x4 Hermitian pairs (Hermitian route) and general pairs
    (constant-term route), for every catalog family at d = 2 and 4: six
    checks a trial.  Each run of T trials (:func:`_runs`) draws its inputs
    in three calls: A, B (Hermitian, from their real and imaginary parts)
    and Z, W (general) from one normal array (T, 8, 4, 4), the real scalars
    c from one uniform array and the complex scalars cc from one normal
    array (T, 2); a zero scalar is replaced by 1.  The run's matrices are
    evaluated as one Hermitian and one general stack per degree."""
    report = SuiteReport("axioms", trials)
    rng = stream(seed)
    cells = [(name, spec, d) for name, spec in default_family_specs() for d in (2, 4)]
    for run in _runs(cells, trials):
        T = run[-1][2].stop
        g = rng.normal(size=(T, 8, 4, 4))
        c = rng.uniform(-2.0, 2.0, size=T)
        c[c == 0.0] = 1.0
        z = rng.normal(size=(T, 2))
        cc = z[:, 0] + 1j * z[:, 1]
        cc[cc == 0.0] = 1.0
        A, B = _hermitian(g[:, 0], g[:, 1]), _hermitian(g[:, 2], g[:, 3])
        Z, W = g[:, 4] + 1j * g[:, 5], g[:, 6] + 1j * g[:, 7]
        herm = np.stack([A, B, A + B, A * c[:, None, None]])
        gen = np.stack([Z, W, Z + W, Z * cc[:, None, None]])
        nA, nB, nAB, nCA = _run_norms(hermitian_norm_pow_stack, run, herm)
        nZ, nW, nZW, nCZ = _run_norms(general_norm_pow_stack, run, gen)
        ca, cz = np.abs(c), np.abs(cc)
        ok = np.stack(
            [
                nAB <= nA + nB + 1e-9 * np.maximum(1.0, nA + nB),
                np.abs(nCA - ca * nA) <= 1e-12 * np.maximum(1.0, ca * nA),
                nA > 0.0,
                nZW <= nZ + nW + 1e-9 * np.maximum(1.0, nZ + nW),
                np.abs(nCZ - cz * nZ) <= 1e-12 * np.maximum(1.0, cz * nZ),
                nZ > 0.0,
            ],
            axis=1,
        )
        report.record_rows(ok, (
            lambda i: f"hermitian triangle {_trial(run, i)}: {nAB[i]} > {nA[i]}+{nB[i]}",
            lambda i: f"hermitian homogeneity {_trial(run, i)}",
            lambda i: f"hermitian positivity {_trial(run, i)}",
            lambda i: f"general triangle {_trial(run, i)}: {nZW[i]} > {nZ[i]}+{nW[i]}",
            lambda i: f"general homogeneity {_trial(run, i)}",
            lambda i: f"general positivity {_trial(run, i)}",
        ))
    return report


def schur_suite(trials: int = 500, seed: int = 2025) -> SuiteReport:
    """Majorization monotonicity: x from y in R^5 by averaging transfers
    (:func:`robin_hood_pairs`), then norm(diag(x)) <= norm(diag(y)) within
    1e-12 of scale, for every catalog family at d = 2 and 4.  Each run of
    trials (:func:`_runs`) draws its pairs in one generator call, checks
    them in one :func:`majorized_rows` call (a pair that fails is recorded
    as a generator fault in place of its Schur check), and evaluates its
    diagonals as one stack per degree."""
    report = SuiteReport("schur", trials)
    rng = stream(seed)
    cells = [(name, spec, d) for name, spec in default_family_specs() for d in (2, 4)]
    for run in _runs(cells, trials):
        X, Y = robin_hood_pairs(rng, run[-1][2].stop, 5)
        majorized = majorized_rows(X, Y)
        diag = np.zeros((2, len(X), 5, 5), dtype=complex)
        diag[:, :, range(5), range(5)] = (X, Y)
        nx, ny = _run_norms(hermitian_norm_pow_stack, run, diag)
        ok = majorized & (nx <= ny + 1e-12 * np.maximum(1.0, ny))

        def message(i):
            if not majorized[i]:
                return f"generator produced a non-majorized pair {X[i].tolist()} {Y[i].tolist()}"
            return f"schur {_trial(run, i)}: {nx[i]} > {ny[i]}"

        report.record_rows(ok[:, None], (message,))
    return report


def paths_suite(trials: int = 50, seed: int = 2026) -> SuiteReport:
    """Partition, series, and trace-word routes agree to 1e-10 relative on
    random Hermitian matrices of size 2 to 5, for every family with a moment
    generating function at d = 2, 4 and 6; the trace-word oracle restricts
    to the Hermitian route.  Each run of T trials (:func:`_runs`) draws its
    sizes n in one integers call and its matrices in one normal call
    (T, 2, 5, 5); a trial is its Hermitian 5x5 with every entry outside the
    leading n x n block set to 0, which still has that block's norm (the
    padding changes no trace word) and is still exactly Hermitian.  Each
    route evaluates the run's matrices as one stack per degree."""
    report = SuiteReport("paths", trials)
    rng = stream(seed)
    cells = [(name, spec, d) for name, spec in mgf_family_specs() for d in (2, 4, 6)]
    routes = (hermitian_norm_pow_stack, series_norm_pow_stack, word_sum_norm_pow_stack)
    for run in _runs(cells, trials):
        T = run[-1][2].stop
        inside = np.arange(5) < rng.integers(2, 6, size=T)[:, None]
        g = rng.normal(size=(T, 2, 5, 5))
        H = np.where(inside[:, :, None] & inside[:, None, :], _hermitian(g[:, 0], g[:, 1]), 0)
        parts = [(spec, d, H[rows]) for (_, spec, d), _, rows in run]
        a, b, c = (np.concatenate(_stack_pows(route, parts)) for route in routes)
        ref = 1e-10 * np.maximum(1.0, np.abs(a))
        report.record_rows(np.stack([np.abs(a - b) <= ref, np.abs(a - c) <= ref], axis=1), (
            lambda i: f"paths partition-vs-series {_trial(run, i)}: {a[i]} vs {b[i]}",
            lambda i: f"paths partition-vs-words {_trial(run, i)}: {a[i]} vs {c[i]}",
        ))
    return report


def hunter_suite(trials: int = 1000, seed: int = 2027) -> SuiteReport:
    """H_{d,alpha} positivity on random nonzero rational points, plus exact
    agreement between the direct expansion and the recursion, for d = 2, 4,
    6 and alpha = 1..4.  Each trial draws its point x as int pairs
    (:func:`random_rational_vector`), scales it once to the ints L x (L the
    lcm of its denominators), builds its CHS prefix h once and runs both
    kernels of :mod:`rvnorms.sympoly` on h.  Since H(L x) = L**d H(x) with
    L**d > 0, the checks compare the ints; a failing check's message shows
    the values at x, and x itself, as Fractions."""
    report = SuiteReport("hunter", trials)
    rnd = random.Random(seed)
    for d in (2, 4, 6):
        for alpha in (1, 2, 3, 4):
            terms = hunter_terms(d, alpha)
            evaluated = []  # (x, L, direct, rec) per trial
            for _ in range(trials):
                x = random_rational_vector(rnd, rnd.randint(2, 4))
                L = lcm(*(q for _, q in x))
                h = chs_prefix(d, [p * (L // q) for p, q in x])
                evaluated.append((x, L, hunter_expansion(h, terms), hunter_recurrence(h, alpha)))
            ok = np.array([(direct == rec, direct > 0) for *_, direct, rec in evaluated], dtype=bool)

            def at_x(t):
                """Trial t's point and its direct and recursive values, as Fractions."""
                x, L, direct, rec = evaluated[t]
                return [Fraction(p, q) for p, q in x], Fraction(direct, L**d), Fraction(rec, L**d)

            report.record_rows(ok.reshape(trials, 2), (
                lambda t: "hunter recursion d={} alpha={} trial={}: {} != {}".format(
                    d, alpha, t, *at_x(t)[1:]
                ),
                lambda t: "hunter positivity d={} alpha={} trial={}: {} at {}".format(
                    d, alpha, t, at_x(t)[1], at_x(t)[0]
                ),
            ))
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
    block of T trials draws its matrices in one normal call (T, 4, 4, 4):
    per trial the real and imaginary parts of the Hermitian matrix's G,
    then those of the general matrix, the order in which one trial at a
    time would draw them.  The block is checked as one stack per kind."""
    report = SuiteReport("khintchine", trials)
    rng = stream(seed)
    for p in (2, 4, 6):
        for block in _blocks(trials):
            g = rng.normal(size=(len(block), 4, 4, 4))
            kinds = (
                ("hermitian", _khintchine_rows(_hermitian(g[:, 0], g[:, 1]), p)),
                ("general", _khintchine_rows(g[:, 2] + 1j * g[:, 3], p)),
            )
            for i, t in enumerate(block):
                for kind, rows in kinds:
                    # a row whose chain breaks is khintchine_bounds' ArithmeticError
                    row = rows[i]
                    broken = isinstance(row, ArithmeticError)
                    report.record(not broken, "khintchine {} p={} trial={}: {}", kind, p, t, row)
                    if p == 2 and not broken:
                        lower, middle, _ = row
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
