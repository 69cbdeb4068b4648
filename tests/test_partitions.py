from collections import Counter
from fractions import Fraction
from math import factorial, prod

import pytest

from rvnorms.partitions import enumerate_partitions, hunter_coefficient, y_of

from oracles import z_of


def brute_force_partitions(d, max_part=None):
    """Independent oracle: all nonincreasing positive tuples summing to d."""
    if max_part is None:
        max_part = d
    if d == 0:
        return [()]
    out = []
    for first in range(min(d, max_part), 0, -1):
        for rest in brute_force_partitions(d - first, first):
            out.append((first,) + rest)
    return out


def test_enumeration_order_d4():
    got = enumerate_partitions(4)
    assert got == [(4,), (3, 1), (2, 2), (2, 1, 1), (1, 1, 1, 1)]


def test_enumeration_d1():
    assert enumerate_partitions(1) == [(1,)]


def test_enumeration_count_d6_against_brute_force():
    oracle = brute_force_partitions(6)
    assert len(oracle) == 11
    assert len(enumerate_partitions(6)) == 11


@pytest.mark.parametrize("d", range(0, 13))
def test_enumeration_matches_brute_force(d):
    got = enumerate_partitions(d)
    assert sorted(got) == sorted(brute_force_partitions(d))
    assert len(set(got)) == len(got)


def test_d0_is_empty_partition():
    assert enumerate_partitions(0) == [()]


def test_negative_d_rejected():
    with pytest.raises(ValueError):
        enumerate_partitions(-1)


@pytest.mark.parametrize("d", range(1, 13))
def test_partition_invariants(d):
    for p in enumerate_partitions(d):
        assert type(p) is tuple and all(type(v) is int for v in p)
        assert p == tuple(sorted(p, reverse=True))
        assert all(v >= 1 for v in p)
        assert sum(p) == d


def test_y_fixtures():
    assert y_of((4, 4, 2, 1, 1, 1)) == 13824
    assert y_of((1,)) == 1
    assert y_of((2, 2)) == 8
    assert y_of(()) == 1


def test_y_table_d4():
    table = {(4,): 24, (3, 1): 6, (2, 2): 8, (2, 1, 1): 4, (1, 1, 1, 1): 24}
    for p in enumerate_partitions(4):
        assert y_of(p) == table[p]


def test_z_fixtures():
    assert z_of((2,)) == 2
    assert z_of((1, 1)) == 2
    assert z_of((3, 2, 1)) == 6


@pytest.mark.parametrize("d", range(1, 13))
def test_y_divisible_by_z(d):
    for p in enumerate_partitions(d):
        assert y_of(p) % z_of(p) == 0


@pytest.mark.parametrize("d", range(1, 21))
def test_permutation_count_identity(d):
    # d!/z_pi counts permutations of cycle type pi; the total is d!.
    total = sum(Fraction(factorial(d), z_of(p)) for p in enumerate_partitions(d))
    assert total == factorial(d)


def test_hunter_coefficient_fixtures():
    assert hunter_coefficient((2, 1, 1), 3) == 3
    assert hunter_coefficient((3, 1), 3) == 6
    assert hunter_coefficient((1, 1, 1, 1), 3) == 0
    assert hunter_coefficient((2, 2), 3) == 3
    assert hunter_coefficient((4,), 3) == 3
    assert hunter_coefficient((), 3) == 1


def test_hunter_coefficient_is_the_factorial_quotient():
    # alpha! / ((alpha - r)! prod m_i!), formed without alpha!
    for p in enumerate_partitions(8):
        r, den = len(p), prod(map(factorial, Counter(p).values()))
        for alpha in (*range(1, 12), 50, 1000):
            want = factorial(alpha) // (factorial(alpha - r) * den) if r <= alpha else 0
            assert hunter_coefficient(p, alpha) == want, (p, alpha)
    alpha = 10**12
    assert hunter_coefficient((3, 1, 1), alpha) == alpha * (alpha - 1) * (alpha - 2) // 2


def test_hunter_coefficient_alpha_validation():
    with pytest.raises(ValueError):
        hunter_coefficient((2,), 0)
