import math
from fractions import Fraction

import numpy as np
import pytest

from rvnorms.cumulants import DistributionSpec
from rvnorms.errors import NonHermitianError, PreconditionError
from rvnorms.matrixcore import Matrix, frobenius_norm
from rvnorms.normengine import hermitian_norm_pow
from rvnorms.oracle import (
    block_stream,
    khintchine_check,
    khintchine_constant,
    mc_norm,
    mc_norm_pow,
    sample,
    sample_block,
)

I = 1j


def test_rademacher_support():
    rng = block_stream(42)
    draws = sample_block(DistributionSpec.rademacher(), rng, 1000)
    assert set(np.unique(draws)) == {-1.0, 1.0}


def test_scalar_sample():
    rng = block_stream(43)
    v = sample(DistributionSpec.uniform(0, 1), rng)
    assert 0.0 <= v < 1.0


def test_uniform_mean_within_4_sigma():
    rng = block_stream(44)
    draws = sample_block(DistributionSpec.uniform(0, 1), rng, 10**6)
    se = draws.std(ddof=1) / math.sqrt(draws.size)
    assert abs(draws.mean() - 0.5) <= 4 * se


def test_pareto_mean_within_4_sigma():
    rng = block_stream(45)
    draws = sample_block(DistributionSpec.pareto(5), rng, 10**6)
    assert np.all(draws >= 1.0)
    se = draws.std(ddof=1) / math.sqrt(draws.size)
    assert abs(draws.mean() - 5 / 4) <= 4 * se


def test_poisson_bernoulli_finite_means():
    rng = block_stream(46)
    for spec, mean in (
        (DistributionSpec.poisson(Fraction(3, 2)), 1.5),
        (DistributionSpec.bernoulli(Fraction(1, 3)), 1 / 3),
        (
            DistributionSpec.finite_discrete((-1, 2), (Fraction(1, 4), Fraction(3, 4))),
            -0.25 + 1.5,
        ),
    ):
        draws = sample_block(spec, rng, 10**5)
        se = draws.std(ddof=1) / math.sqrt(draws.size) + 1e-12
        assert abs(draws.mean() - mean) <= 5 * se


def test_reproducibility_bit_identical():
    spec = DistributionSpec.gamma(2, 0.5)
    a = mc_norm_pow([1.0, -0.5], spec, 4, 200_000, seed=99)
    b = mc_norm_pow([1.0, -0.5], spec, 4, 200_000, seed=99)
    assert a == b
    c = mc_norm_pow([1.0, -0.5], spec, 4, 200_000, seed=100)
    assert c != a


def test_thread_count_invariance():
    spec = DistributionSpec.laplace(0, 1)
    a = mc_norm_pow([1.0, 2.0], spec, 2, 300_000, seed=7, threads=1)
    b = mc_norm_pow([1.0, 2.0], spec, 2, 300_000, seed=7, threads=4)
    assert a == b


def test_mc_zero_vector():
    est = mc_norm_pow([0.0, 0.0], DistributionSpec.rademacher(), 2, 10**4, seed=1)
    assert est.value == 0.0 and est.stderr == 0.0


def test_mc_norm_pow_fixtures():
    est = mc_norm_pow([1.0, 1.0], DistributionSpec.normal(0, 1), 2, 10**6, seed=5)
    assert est.within(1.0)
    est = mc_norm_pow([1.0, 0.0], DistributionSpec.exponential(), 4, 10**6, seed=6)
    assert est.within(1.0)


def test_mc_norm_rademacher_diag():
    # lambda = (1,-1): Lam in {-2, 0, 0, 2}, so E|Lam|^2/2 = 1 and the norm is 1.
    A = Matrix.diagonal([1, -1])
    est = mc_norm(A, DistributionSpec.rademacher(), 2, 10**5, seed=8)
    assert est.stderr > 0
    assert abs(est.value - 1.0) <= 4 * est.stderr


def test_mc_norm_agrees_with_analytic():
    A = Matrix([[0, 1], [1, 0]])
    spec = DistributionSpec.uniform(-1, 1)
    est = mc_norm(A, spec, 4, 10**6, seed=9)
    target = float(hermitian_norm_pow(A, spec, 4)) ** 0.25
    # first-order propagated stderr
    assert abs(est.value - target) <= 4 * est.stderr + 1e-12


@pytest.mark.parametrize("scale", [1e308, 1e-200, 3.0, 2.0**-1074])
def test_mc_norm_is_scale_safe(scale):
    # Same seed, so the draws are shared: the estimate for scale * I is
    # scale times the one for I, up to rounding.
    spec = DistributionSpec.normal(0, 1)
    unit = mc_norm(Matrix.identity(2), spec, 4, 10**4, seed=11)
    est = mc_norm(Matrix.diagonal([scale, scale]), spec, 4, 10**4, seed=11)
    assert math.isfinite(est.value) and est.value > 0
    assert abs(est.value - scale * unit.value) <= 5 * est.stderr


def test_mc_norm_zero_matrix():
    est = mc_norm(Matrix.zeros(2), DistributionSpec.exponential(), 3, 10**4, seed=10)
    assert est.value == 0.0 and est.stderr == 0.0


def test_mc_norm_accepts_odd_degree():
    A = Matrix.diagonal([1.0, 0.5])
    est = mc_norm(A, DistributionSpec.exponential(), 3, 10**5, seed=11)
    assert est.value > 0


def test_mc_odd_degree_triangle_on_diagonals():
    spec = DistributionSpec.exponential()
    x = [1.0, 0.25]
    y = [-0.5, 2.0]
    s = [a + b for a, b in zip(x, y)]
    d = 3
    nx = mc_norm(Matrix.diagonal(x), spec, d, 10**5, seed=12).value
    ny = mc_norm(Matrix.diagonal(y), spec, d, 10**5, seed=13).value
    ns = mc_norm(Matrix.diagonal(s), spec, d, 10**5, seed=14).value
    assert ns <= nx + ny + 0.05 * (nx + ny)  # statistical slack


def test_mc_preconditions():
    with pytest.raises(PreconditionError):
        mc_norm_pow([1.0], DistributionSpec.exponential(), 2, 9_999, seed=1)
    with pytest.raises(PreconditionError):
        mc_norm_pow([1.0], DistributionSpec.pareto(3), 4, 10**4, seed=1)
    with pytest.raises(PreconditionError):
        mc_norm_pow([1.0], DistributionSpec.exponential(), 1, 10**4, seed=1)
    with pytest.raises(PreconditionError):
        mc_norm_pow([1.0], DistributionSpec.exponential(), 2, 10**4, seed=-1)
    with pytest.raises(NonHermitianError):
        mc_norm(Matrix([[0, 1], [0, 0]]), DistributionSpec.exponential(), 2, 10**4, seed=1)


def test_pareto_alpha_trend_by_sampling():
    # d! * mc estimate of the norm power approaches (sum lambda)^d as alpha
    # grows; the alpha=1e4 deviation must not exceed the alpha=1e3 one beyond
    # sampling noise.
    lam = [1.0, 0.5]
    d = 2
    target = sum(lam) ** d
    est3 = mc_norm_pow(lam, DistributionSpec.pareto(10**3), d, 10**6, seed=21)
    est4 = mc_norm_pow(lam, DistributionSpec.pareto(10**4), d, 10**6, seed=22)
    dev3 = abs(math.factorial(d) * est3.value - target)
    dev4 = abs(math.factorial(d) * est4.value - target)
    noise = 4 * math.factorial(d) * (est3.stderr + est4.stderr)
    assert dev4 <= dev3 + noise
    assert dev3 > dev4  # clear at these sample sizes


def test_khintchine_constants():
    assert khintchine_constant(2) == 1.0
    assert khintchine_constant(4) == pytest.approx(3 ** 0.25)
    assert khintchine_constant(6) == pytest.approx(15 ** (1 / 6))


def test_khintchine_single_atom_equality():
    A = Matrix.diagonal([1, 0, 0])
    for p in (2, 4, 6):
        lower, middle, upper = khintchine_check(A, p)
        assert lower == pytest.approx(1.0, abs=1e-12)
        assert middle == pytest.approx(1.0, abs=1e-12)
        assert upper == pytest.approx(khintchine_constant(p), abs=1e-12)


def test_khintchine_p2_tight():
    A = Matrix([[1, 2 - I], [2 + I, -1]])
    lower, middle, upper = khintchine_check(A, 2)
    assert middle == pytest.approx(lower, rel=1e-12)
    assert upper == pytest.approx(lower, rel=1e-12)


def test_khintchine_diag11_p4_fixture():
    A = Matrix.diagonal([1, 1])
    lower, middle, upper = khintchine_check(A, 4)
    assert lower == pytest.approx(math.sqrt(2))
    assert middle == pytest.approx(8 ** 0.25)
    assert upper == pytest.approx(3 ** 0.25 * math.sqrt(2))
    assert lower <= middle <= upper


def test_khintchine_general_matrix():
    Z = Matrix([[0, 3 + I], [1, -2]])
    for p in (2, 4, 6):
        lower, middle, upper = khintchine_check(Z, p)
        assert lower <= middle + 1e-9 * max(1.0, upper)
        assert middle <= upper + 1e-9 * max(1.0, upper)
    assert frobenius_norm(Z) == pytest.approx(math.sqrt(10 + 1 + 4))


def test_khintchine_odd_p_rejected():
    with pytest.raises(PreconditionError):
        khintchine_check(Matrix.identity(2), 3)


def test_block_stream_disjoint():
    a = block_stream(5, 0).random(4)
    b = block_stream(5, 1).random(4)
    assert not np.allclose(a, b)
    c = block_stream(5, 0).random(4)
    assert np.array_equal(a, c)
