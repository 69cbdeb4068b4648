import math
import random
from fractions import Fraction

import pytest

from rvnorms.series import TruncatedSeries


def test_exp_of_t_gives_factorials():
    s = TruncatedSeries((0, 1, 0, 0, 0, 0, 0, 0))
    e = s.exp()
    assert e.coeffs == tuple(Fraction(1, math.factorial(k)) for k in range(8))


def test_exp_laplace_fixture():
    # K-series for laplace(mu=1, beta=1) on the 2x2 identity, degree 2:
    # 2t + 2t^2, coefficient of t^2 in the exponential is 4.
    s = TruncatedSeries((0, 2, 2))
    assert s.exp().coefficient(2) == 4


def test_mul_truncation():
    a = TruncatedSeries((1, 1, 0))
    b = TruncatedSeries((1, 2, 3))
    assert (a * b).coeffs == (1, 3, 5)


def test_add_sub():
    a = TruncatedSeries((1, 2, 3))
    b = TruncatedSeries((0, 1, 1))
    assert (a + b).coeffs == (1, 3, 4)
    assert (a - b).coeffs == (1, 1, 2)


def test_exp_requires_zero_constant():
    with pytest.raises(ValueError):
        TruncatedSeries((1, 1)).exp()


def test_degree_mismatch():
    with pytest.raises(ValueError):
        TruncatedSeries((1, 2)) * TruncatedSeries((1, 2, 3))


def test_exp_is_multiplicative():
    # exp(f) * exp(g) == exp(f + g), exactly on rational coefficients.
    rnd = random.Random(3)
    for _ in range(20):
        deg = rnd.randint(1, 8)
        f = TruncatedSeries([0] + [Fraction(rnd.randint(-5, 5), rnd.randint(1, 5)) for _ in range(deg)])
        g = TruncatedSeries([0] + [Fraction(rnd.randint(-5, 5), rnd.randint(1, 5)) for _ in range(deg)])
        assert f.exp() * g.exp() == (f + g).exp()


def test_float_path_matches_exact():
    f = TruncatedSeries((0, Fraction(1, 3), Fraction(-2, 5), Fraction(1, 7)))
    g = TruncatedSeries((0.0, 1 / 3, -2 / 5, 1 / 7))
    for a, b in zip(f.exp().coeffs, g.exp().coeffs):
        assert abs(float(a) - b) < 1e-14
