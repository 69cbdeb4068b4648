import pytest

from rvnorms.matrixcore import is_majorized
from rvnorms.suites import (
    SUITES,
    axioms_suite,
    khintchine_suite,
    hunter_suite,
    paths_suite,
    robin_hood_pair,
    run_suite,
    schur_suite,
    stream,
)


def test_robin_hood_pairs_majorize():
    rng = stream(101)
    for _ in range(100):
        x, y = robin_hood_pair(rng, 5)
        assert is_majorized(x, y)


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
