import itertools
import random
from fractions import Fraction

import pytest

from rvnorms.cumulants import DistributionSpec
from rvnorms.errors import PreconditionError
from rvnorms.matrixcore import Matrix
from rvnorms.normengine import hermitian_norm_pow
from rvnorms.partitions import Partition, enumerate_partitions
from rvnorms.sympoly import (
    bernoulli_norm_hermitian,
    chs,
    chs_monomial_sum,
    chs_powersum_identity_check,
    hunter_poly,
    hunter_poly_recursive,
    hunter_terms,
    monomial_sym,
    power_sum_product,
)


def rational_vector(rnd, n):
    return [Fraction(rnd.randint(-9, 9), rnd.randint(1, 9)) for _ in range(n)]


def test_chs_fixtures():
    assert chs(0, [5, 7]) == 1
    x1, x2 = Fraction(2, 3), Fraction(-1, 2)
    assert chs(2, [x1, x2]) == x1**2 + x1 * x2 + x2**2
    assert chs(4, [1, 1]) == 5
    h4 = chs(4, [x1, x2])
    assert h4 == x1**4 + x1**3 * x2 + x1**2 * x2**2 + x1 * x2**3 + x2**4


def test_chs_against_monomial_oracle():
    rnd = random.Random(17)
    for _ in range(40):
        n = rnd.randint(1, 5)
        d = rnd.randint(0, 6)
        x = rational_vector(rnd, n)
        assert chs(d, x) == chs_monomial_sum(d, x)


def test_power_sum_product_fixtures():
    assert power_sum_product(Partition((2,)), [1, 2]) == 5
    assert power_sum_product(Partition((1, 1)), [1, 2]) == 9
    assert power_sum_product(Partition((2, 1)), [1, 1, 1]) == 9


def test_monomial_sym_fixtures():
    x = [Fraction(1), Fraction(2), Fraction(3)]
    assert monomial_sym(Partition((1,)), x) == 6
    assert monomial_sym(Partition((1, 1)), x) == 1 * 2 + 1 * 3 + 2 * 3
    assert monomial_sym(Partition((2, 2)), x) == 4 + 9 + 36
    assert monomial_sym(Partition((1, 1, 1, 1)), x) == 0  # more parts than variables


def test_monomial_sym_brute_force():
    # Independent oracle: sum x^alpha over distinct permutations of the padded
    # exponent vector.
    rnd = random.Random(23)
    for _ in range(25):
        n = rnd.randint(1, 4)
        d = rnd.randint(1, 5)
        x = rational_vector(rnd, n)
        for p in enumerate_partitions(d):
            padded = list(p.parts) + [0] * (n - p.num_parts)
            if len(padded) > n:
                assert monomial_sym(p, x) == 0
                continue
            expected = 0
            for perm in set(itertools.permutations(padded)):
                term = 1
                for xi, e in zip(x, perm):
                    term *= xi**e
                expected += term
            assert monomial_sym(p, x) == expected


def test_monomials_partition_chs():
    rnd = random.Random(29)
    for d in range(0, 7):
        x = rational_vector(rnd, 4)
        total = sum(monomial_sym(p, x) for p in enumerate_partitions(d))
        assert total == chs(d, x)


def test_identity_check_fixtures():
    h, s = chs_powersum_identity_check(2, [1, 1])
    assert h == 3 and s == 3
    h, s = chs_powersum_identity_check(2, [0, 0, 0])
    assert h == 0 and s == 0
    h, s = chs_powersum_identity_check(4, [1, -1])
    assert h == 1 and s == 1


def test_identity_check_random_exact():
    rnd = random.Random(31)
    for _ in range(30):
        n = rnd.randint(1, 5)
        d = rnd.choice([2, 4, 6])
        x = rational_vector(rnd, n)
        h, s = chs_powersum_identity_check(d, x)
        assert h == s


def test_identity_check_odd_rejected():
    with pytest.raises(PreconditionError):
        chs_powersum_identity_check(3, [1])


def test_hunter_43_fixture():
    rnd = random.Random(37)
    terms = {p.parts: c for p, c in hunter_terms(4, 3)}
    assert terms == {(2, 1, 1): 3, (3, 1): 6, (2, 2): 3, (4,): 3}
    for _ in range(10):
        x = rational_vector(rnd, 4)
        h1, h2, h3, h4 = (chs(k, x) for k in (1, 2, 3, 4))
        expected = 3 * h1**2 * h2 + 6 * h1 * h3 + 3 * h2**2 + 3 * h4
        assert hunter_poly(4, 3, x) == expected
        # the recursion display: H_{4,3} = H_{4,2} + h1 H_{3,2} + h2 H_{2,2} + h3 H_{1,2} + h4
        rec = (
            hunter_poly(4, 2, x)
            + h1 * hunter_poly(3, 2, x)
            + h2 * hunter_poly(2, 2, x)
            + h3 * hunter_poly(1, 2, x)
            + h4
        )
        assert rec == expected


def test_hunter_alpha1_is_chs():
    rnd = random.Random(41)
    for d in (0, 1, 2, 3, 4, 5, 6):
        x = rational_vector(rnd, 3)
        assert hunter_poly(d, 1, x) == chs(d, x)
        assert hunter_poly_recursive(d, 1, x) == chs(d, x)


def test_hunter_alpha2_convolution():
    rnd = random.Random(43)
    for d in (2, 4, 6):
        x = rational_vector(rnd, 4)
        expected = sum(chs(i, x) * chs(d - i, x) for i in range(d + 1))
        assert hunter_poly(d, 2, x) == expected


def test_hunter_d0():
    for alpha in (1, 2, 5):
        assert hunter_poly(0, alpha, [Fraction(1, 2), 3]) == 1
        assert hunter_poly_recursive(0, alpha, [Fraction(1, 2), 3]) == 1


def test_hunter_direct_equals_recursive():
    rnd = random.Random(47)
    for _ in range(100):
        d = rnd.choice([2, 4, 6])
        alpha = rnd.randint(1, 4)
        x = rational_vector(rnd, rnd.randint(2, 4))
        assert hunter_poly(d, alpha, x) == hunter_poly_recursive(d, alpha, x)


def test_hunter_power_recurrence_divides_exactly():
    # hunter_poly_recursive raises ArithmeticError if a division by k leaves
    # a remainder; the scaled points below have large integer coordinates.
    rnd = random.Random(71)
    for alpha in range(1, 9):
        for d in range(17):
            x = [Fraction(rnd.randint(-50, 50), rnd.randint(1, 40)) for _ in range(rnd.randint(1, 4))]
            assert hunter_poly_recursive(d, alpha, x) == hunter_poly(d, alpha, x), (alpha, d, x)
            ints = [rnd.randint(-30, 30) for _ in range(3)]
            assert hunter_poly_recursive(d, alpha, ints) == hunter_poly(d, alpha, ints)


def test_hunter_generating_identity():
    # Truncated: sum_l H_{l,alpha} t^l == (sum_l h_l t^l)(sum_l H_{l,alpha-1} t^l)
    rnd = random.Random(53)
    L = 10
    for alpha in (2, 3, 4):
        x = rational_vector(rnd, 3)
        lhs = [hunter_poly(ell, alpha, x) for ell in range(L + 1)]
        h = [chs(ell, x) for ell in range(L + 1)]
        prev = [hunter_poly(ell, alpha - 1, x) for ell in range(L + 1)]
        for ell in range(L + 1):
            conv = sum(h[i] * prev[ell - i] for i in range(ell + 1))
            assert lhs[ell] == conv


def test_hunter_positivity():
    rnd = random.Random(59)
    for d in (2, 4, 6):
        for alpha in (1, 2, 3, 4):
            for _ in range(50):
                n = rnd.randint(2, 4)
                x = rational_vector(rnd, n)
                while all(v == 0 for v in x):
                    x = rational_vector(rnd, n)
                assert hunter_poly(d, alpha, x) > 0


def test_chs_positive_even_degree():
    rnd = random.Random(61)
    for _ in range(100):
        n = rnd.randint(1, 5)
        x = rational_vector(rnd, n)
        while all(v == 0 for v in x):
            x = rational_vector(rnd, n)
        for d in (2, 4, 6):
            assert chs(d, x) > 0


def test_bernoulli_norm_d2_formula():
    q = Fraction(1, 3)
    l1, l2 = Fraction(2), Fraction(-1, 2)
    expected = q / 2 * (l1**2 + l2**2) + q**2 * l1 * l2
    assert bernoulli_norm_hermitian([l1, l2], q, 2) == expected


def test_bernoulli_norm_zero_vector():
    assert bernoulli_norm_hermitian([0, 0, 0], Fraction(1, 2), 4) == 0


def brute_force_bernoulli_norm(lambdas, q, d):
    """Oracle: enumerate all 2^n outcomes of the 0/1 vector."""
    n = len(lambdas)
    total = Fraction(0)
    for bits in itertools.product((0, 1), repeat=n):
        prob = 1
        for b in bits:
            prob *= q if b else (1 - q)
        lam = sum(l * b for l, b in zip(lambdas, bits))
        total += prob * lam**d
    from math import factorial

    return total / factorial(d)


def test_bernoulli_norm_d4_frozen_value():
    # Two variables, q = 1/2, lambda = (1,1): outcomes 0,1,1,2 each 1/4, so
    # E(Lam^4)/4! = (0 + 1 + 1 + 16)/4/24 = 3/16.
    q = Fraction(1, 2)
    assert brute_force_bernoulli_norm([1, 1], q, 4) == Fraction(3, 16)
    assert bernoulli_norm_hermitian([1, 1], q, 4) == Fraction(3, 16)


def test_bernoulli_norm_matches_cumulant_path():
    rnd = random.Random(67)
    for _ in range(20):
        n = rnd.randint(1, 4)
        q = Fraction(rnd.randint(1, 9), 10)
        lambdas = rational_vector(rnd, n)
        d = rnd.choice([2, 4, 6])
        via_monomials = bernoulli_norm_hermitian(lambdas, q, d)
        via_cumulants = hermitian_norm_pow(
            Matrix.diagonal(lambdas), DistributionSpec.bernoulli(q), d
        )
        assert via_monomials == via_cumulants  # both exact rationals
        oracle = brute_force_bernoulli_norm(lambdas, q, d)
        assert via_monomials == oracle


def test_chs_rejects_negative_degree():
    with pytest.raises(ValueError):
        chs(-1, [1, 2])
