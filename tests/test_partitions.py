from fractions import Fraction
from math import factorial, prod

import pytest

from rvnorms.partitions import (
    Partition,
    enumerate_partitions,
    hunter_coefficient,
    y_of,
)

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
    got = [p.parts for p in enumerate_partitions(4)]
    assert got == [(4,), (3, 1), (2, 2), (2, 1, 1), (1, 1, 1, 1)]


def test_enumeration_d1():
    assert [p.parts for p in enumerate_partitions(1)] == [(1,)]


def test_enumeration_count_d6_against_brute_force():
    oracle = brute_force_partitions(6)
    assert len(oracle) == 11
    assert len(enumerate_partitions(6)) == 11


@pytest.mark.parametrize("d", range(0, 13))
def test_enumeration_matches_brute_force(d):
    got = [p.parts for p in enumerate_partitions(d)]
    assert sorted(got) == sorted(brute_force_partitions(d))
    assert len(set(got)) == len(got)


def test_d0_is_empty_partition():
    ps = enumerate_partitions(0)
    assert len(ps) == 1 and ps[0].parts == ()
    assert ps[0].d == 0 and ps[0].num_parts == 0


def test_negative_d_rejected():
    with pytest.raises(ValueError):
        enumerate_partitions(-1)


@pytest.mark.parametrize("d", range(1, 13))
def test_partition_invariants(d):
    for p in enumerate_partitions(d):
        assert p.parts == tuple(sorted(p.parts, reverse=True))
        assert all(v >= 1 for v in p.parts)
        assert sum(p.parts) == d == p.d
        assert sum(i * m for i, m in p.multiplicities.items()) == d
        assert sum(p.multiplicities.values()) == p.num_parts


def test_partition_validation():
    with pytest.raises(ValueError):
        Partition((1, 2))
    with pytest.raises(ValueError):
        Partition((2, 0))


@pytest.mark.parametrize("parts", [(1, 2), (2, 0), (3, -1), (2.0, 1), ("2",), (3, 1, 2)])
def test_partition_from_outside_checks_its_parts(parts):
    # the enumerator skips these checks; a caller's parts still get them
    with pytest.raises(ValueError):
        Partition(parts)


@pytest.mark.parametrize("d", [0, 1, 7, 16])
def test_enumerated_partitions_equal_checked_ones(d):
    for p in enumerate_partitions(d):
        q = Partition(p.parts)
        assert (p.parts, p.d, p.multiplicities) == (q.parts, q.d, q.multiplicities)
        assert list(p.multiplicities) == list(q.multiplicities)


def test_y_fixtures():
    assert y_of(Partition((4, 4, 2, 1, 1, 1))) == 13824
    assert y_of(Partition((1,))) == 1
    assert y_of(Partition((2, 2))) == 8


def test_y_table_d4():
    table = {(4,): 24, (3, 1): 6, (2, 2): 8, (2, 1, 1): 4, (1, 1, 1, 1): 24}
    for p in enumerate_partitions(4):
        assert y_of(p) == table[p.parts]


def test_z_fixtures():
    assert z_of(Partition((2,))) == 2
    assert z_of(Partition((1, 1))) == 2
    assert z_of(Partition((3, 2, 1))) == 6


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
    assert hunter_coefficient(Partition((2, 1, 1)), 3) == 3
    assert hunter_coefficient(Partition((3, 1)), 3) == 6
    assert hunter_coefficient(Partition((1, 1, 1, 1)), 3) == 0
    assert hunter_coefficient(Partition((2, 2)), 3) == 3
    assert hunter_coefficient(Partition((4,)), 3) == 3


def test_hunter_coefficient_is_the_factorial_quotient():
    # alpha! / ((alpha - r)! prod m_i!), formed without alpha!
    for p in enumerate_partitions(8):
        r, den = p.num_parts, prod(map(factorial, p.multiplicities.values()))
        for alpha in (*range(1, 12), 50, 1000):
            want = factorial(alpha) // (factorial(alpha - r) * den) if r <= alpha else 0
            assert hunter_coefficient(p, alpha) == want, (p, alpha)
    alpha = 10**12
    assert hunter_coefficient(Partition((3, 1, 1)), alpha) == alpha * (alpha - 1) * (alpha - 2) // 2


def test_hunter_coefficient_alpha_validation():
    with pytest.raises(ValueError):
        hunter_coefficient(Partition((2,)), 0)
