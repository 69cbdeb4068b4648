import math
import random
from fractions import Fraction

import numpy as np
import pytest

from rvnorms import suites
from rvnorms.matrixcore import is_majorized, majorized_rows
from rvnorms.suites import (
    SUITES,
    axioms_suite,
    khintchine_suite,
    hunter_suite,
    paths_suite,
    robin_hood_pairs,
    run_suite,
    schur_suite,
    stream,
)
from rvnorms.sympoly import chs_prefix, hunter_poly, hunter_poly_recursive

from oracles import block_size, random_general, random_hermitian


def test_robin_hood_pairs_majorize():
    X, Y = robin_hood_pairs(stream(101), 100, 5)
    assert X.shape == Y.shape == (100, 5)
    assert not np.array_equal(X, Y)  # the transfers moved entries
    assert np.allclose(X.sum(axis=1), Y.sum(axis=1), rtol=0, atol=1e-15)
    for x, y in zip(X.tolist(), Y.tolist()):
        assert is_majorized(x, y)
    assert majorized_rows(X, Y).all()


def test_majorized_rows_agree_with_is_majorized():
    # Generated pairs, both ways round: y majorizes x, and x majorizes y
    # only where the transfers left the row as it was.
    X, Y = robin_hood_pairs(stream(102), 500, 5)
    for A, B in ((X, Y), (Y, X)):
        want = [is_majorized(a, b) for a, b in zip(A.tolist(), B.tolist())]
        assert majorized_rows(A, B).tolist() == want
    assert not majorized_rows(Y, X).all()


def test_majorized_rows_reject_a_crafted_pair():
    x = np.array([[0.5, 0.5, 0.0], [0.9, 0.1, 0.0], [1.0, 0.0, 0.0]])
    y = np.array([[1.0, 0.0, 0.0], [0.5, 0.5, 0.0], [0.5, 0.4, 0.0]])
    # majorized; x spreads less than y fails; totals differ by 0.1.
    assert majorized_rows(x, y).tolist() == [True, False, False]
    assert majorized_rows(x[:1], x[:1] + 1e-13).tolist() == [True]  # within the tolerance


def test_schur_suite_reports_a_non_majorized_pair(monkeypatch):
    real = suites.robin_hood_pairs

    def swapped_first_row(rng, trials, n):
        X, Y = real(rng, trials, n)
        X[0], Y[0] = Y[0].copy(), X[0].copy()
        return X, Y

    want = schur_suite(trials=3, seed=2)
    monkeypatch.setattr(suites, "robin_hood_pairs", swapped_first_row)
    report = schur_suite(trials=3, seed=2)
    assert want.passed and report.checks == want.checks == 3 * 10 * 2
    assert report.failures
    assert all(m.startswith("generator produced a non-majorized pair [") for m in report.failures)


def test_axioms_failures_name_their_cell_and_trial_in_order(monkeypatch):
    # Zero general norms break only general positivity, once per trial.
    monkeypatch.setattr(suites, "general_norm_pow_stack", lambda Z, laws, d: np.zeros(len(Z)))
    report = axioms_suite(trials=2, seed=1)
    assert report.checks == 2 * 10 * 2 * 6
    assert report.failures == [
        f"general positivity {name} d={d} trial={t}"
        for name, _ in suites.default_family_specs()
        for d in (2, 4)
        for t in range(2)
    ]


def _spy(monkeypatch, name):
    """Record the stack (or list of stacks) each call to suites.``name`` gets."""
    calls = []
    real = getattr(suites, name)

    def spy(Z, *args):
        calls.append(Z)
        return real(Z, *args)

    monkeypatch.setattr(suites, name, spy)
    return calls


def test_khintchine_draws_equal_the_per_trial_sequence(monkeypatch):
    stacks = _spy(monkeypatch, "_khintchine_rows")
    assert khintchine_suite(trials=7, seed=5).passed
    rng = stream(5)
    for p in range(3):
        H, G = stacks[2 * p], stacks[2 * p + 1]
        assert len(H) == len(G) == 7
        for t in range(7):
            assert np.array_equal(H[t], random_hermitian(rng, 4).to_numpy())
            assert np.array_equal(G[t], random_general(rng, 4).to_numpy())


def test_paths_matrices_are_exactly_hermitian_of_every_size(monkeypatch):
    # Each matrix is 5x5, exactly Hermitian and 0 outside a leading n x n
    # block, with every n from 2 to 5 present.
    calls = _spy(monkeypatch, "series_norm_pow_stack")
    assert paths_suite(trials=4, seed=3).passed
    matrices = [M for Z in calls for M in Z]
    assert len(matrices) == 4 * 9 * 3
    assert {block_size(M) for M in matrices} == {2, 3, 4, 5}


class _ZeroScalars:
    """A generator whose uniform draws and (T, 2) normal draws are all 0."""

    def __init__(self, rng):
        self.rng = rng

    def normal(self, size):
        return np.zeros(size) if size[1:] == (2,) else self.rng.normal(size=size)

    def uniform(self, low, high, size):
        return np.zeros(size)


@pytest.mark.parametrize("zero", [False, True])
def test_axioms_scalars_are_nonzero(monkeypatch, zero):
    if zero:
        monkeypatch.setattr(suites, "stream", lambda seed: _ZeroScalars(stream(seed)))
    herm = _spy(monkeypatch, "hermitian_norm_pow_stack")
    gen = _spy(monkeypatch, "general_norm_pow_stack")
    report = axioms_suite(trials=3, seed=1)
    assert report.passed and report.checks == 3 * 10 * 2 * 6
    for Z in herm + gen:
        A, _, _, cA = Z.reshape(-1, 4, 3, 4, 4).swapaxes(0, 1).reshape(4, -1, 4, 4)
        scale = np.abs(cA).sum(axis=(1, 2)) / np.abs(A).sum(axis=(1, 2))
        assert (scale > 0).all()
        if zero:
            assert np.array_equal(cA, A)


def test_axioms_suite_smoke():
    report = axioms_suite(trials=3, seed=1)
    assert report.passed
    assert report.checks == 3 * 10 * 2 * 6


def test_schur_suite_smoke():
    report = schur_suite(trials=5, seed=2)
    assert report.passed


def test_paths_suite_smoke():
    report = paths_suite(trials=3, seed=3)
    assert report.passed


def test_hunter_suite_smoke():
    report = hunter_suite(trials=5, seed=4)
    assert report.passed


@pytest.mark.parametrize("trials", [1, 3])
def test_hunter_suite_builds_each_expansion_once(monkeypatch, trials):
    from rvnorms import suites

    calls = []
    real = suites.hunter_terms

    def spy(d, alpha):
        calls.append((d, alpha))
        return real(d, alpha)

    monkeypatch.setattr(suites, "hunter_terms", spy)
    report = hunter_suite(trials=trials, seed=4)
    assert report.passed and report.checks == trials * 3 * 4 * 2
    assert len(calls) == 12 and len(set(calls)) == 12


def hunter_points(trials, seed):
    """(d, alpha, trial, x, L) for every trial of ``hunter_suite(trials,
    seed)``, in order, with x replayed from random.Random(seed) as the
    suite drew it one Fraction p/q at a time: n = randint(2, 4), then p and
    q per coordinate, drawn again while x is 0.  L is the lcm of the q
    drawn, reduced or not, by which the suite scales x."""
    rnd = random.Random(seed)
    for d in (2, 4, 6):
        for alpha in (1, 2, 3, 4):
            for t in range(trials):
                n = rnd.randint(2, 4)
                while True:
                    pq = [(rnd.randint(-9, 9), rnd.randint(1, 9)) for _ in range(n)]
                    x = [Fraction(p, q) for p, q in pq]
                    if any(x):
                        break
                yield d, alpha, t, x, math.lcm(*(q for _, q in pq))


@pytest.mark.parametrize("seed", [0, 4, 2027])
def test_hunter_suite_checks_the_replayed_points(monkeypatch, seed):
    # Each trial's ints are L x for the replayed x, and the two kernels'
    # ints are the public functions' values at x times L**d.
    seen = []
    for name in ("hunter_expansion", "hunter_recurrence"):
        real = getattr(suites, name)

        def spy(h, arg, real=real, name=name):
            value = real(h, arg)
            seen.append((name, list(h), value))
            return value

        monkeypatch.setattr(suites, name, spy)
    trials = 9
    report = hunter_suite(trials=trials, seed=seed)
    assert report.passed and report.checks == trials * 3 * 4 * 2
    points = list(hunter_points(trials, seed))
    assert len(seen) == 2 * len(points)
    for (d, alpha, _, x, L), direct, rec in zip(points, seen[0::2], seen[1::2]):
        assert direct[0] == "hunter_expansion" and rec[0] == "hunter_recurrence"
        assert direct[1] == rec[1] == chs_prefix(d, [v * L for v in x])
        assert hunter_poly(d, alpha, x) == Fraction(direct[2], L**d)
        assert hunter_poly_recursive(d, alpha, x) == Fraction(rec[2], L**d)


def test_hunter_recursion_failures_show_fractions_in_trial_order(monkeypatch):
    real = suites.hunter_recurrence
    monkeypatch.setattr(suites, "hunter_recurrence", lambda h, alpha: real(h, alpha) + 1)
    trials = 3
    report = hunter_suite(trials=trials, seed=4)
    want = []
    for d, alpha, t, x, L in hunter_points(trials, 4):
        direct = hunter_poly(d, alpha, x)
        rec = hunter_poly_recursive(d, alpha, x) + Fraction(1, L**d)
        want.append(f"hunter recursion d={d} alpha={alpha} trial={t}: {direct} != {rec}")
    assert report.checks == trials * 3 * 4 * 2
    assert report.failures == want
    assert any("/" in message for message in want)


def test_hunter_positivity_failure_shows_the_point_as_fractions(monkeypatch):
    for name in ("hunter_expansion", "hunter_recurrence"):
        real = getattr(suites, name)
        monkeypatch.setattr(suites, name, lambda h, arg, real=real: -real(h, arg))
    report = hunter_suite(trials=2, seed=4)
    want = [
        f"hunter positivity d={d} alpha={alpha} trial={t}: {-hunter_poly(d, alpha, x)} at {x}"
        for d, alpha, t, x, _ in hunter_points(2, 4)
    ]
    assert report.checks == 2 * 3 * 4 * 2
    assert report.failures == want
    assert "Fraction(" in want[0]


def test_khintchine_suite_smoke():
    report = khintchine_suite(trials=5, seed=5)
    assert report.passed


def test_run_suite_dispatch():
    for name in SUITES:
        report = run_suite(name, trials=2, seed=9)
        assert report.suite == name
        assert report.passed
        doc = report.to_json()
        assert doc["suite"] == name and doc["failures"] == []
