import math
import os
import tracemalloc
from fractions import Fraction

import numpy as np
import pytest

from rvnorms.cumulants import DistributionSpec
from rvnorms.errors import NonHermitianError, PreconditionError
from rvnorms.matrixcore import Matrix
from rvnorms.normengine import hermitian_norm_pow
from rvnorms import oracle
from rvnorms.oracle import (
    BLOCK_SAMPLES,
    block_stream,
    khintchine_check,
    khintchine_constant,
    mc_norm,
    mc_norm_pow,
    sample,
    sample_block,
)

from oracles import frobenius_norm, mc_norm_pow_one_shot, zeros

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


@pytest.mark.parametrize(
    "threads, blocks, cpus, workers",
    [
        (10**9, 3, 4, 3),  # one worker per block
        (10**9, 10, 4, 4),  # one worker per CPU
        (2, 10, 4, 2),  # no more than asked for
        (10**9, 10, None, None),  # an unknown CPU count counts as one
        (4, 1, 4, None),  # one block: no pool
    ],
)
def test_workers_clamped_to_threads_blocks_and_cpus(monkeypatch, threads, blocks, cpus, workers):
    made = []

    class RecordingPool:
        """Records its worker count and runs the blocks in order on the
        calling thread, so no thread starts."""

        def __init__(self, max_workers):
            made.append(max_workers)

        def __enter__(self):
            return self

        def __exit__(self, *exc):
            return False

        def map(self, fn, items):
            return map(fn, items)

    spec = DistributionSpec.rademacher()
    want = mc_norm_pow([1.0, 2.0], spec, 2, blocks * BLOCK_SAMPLES, seed=7)
    monkeypatch.setattr(oracle, "ThreadPoolExecutor", RecordingPool)
    monkeypatch.setattr(os, "cpu_count", lambda: cpus)
    got = mc_norm_pow([1.0, 2.0], spec, 2, blocks * BLOCK_SAMPLES, seed=7, threads=threads)
    assert made == ([] if workers is None else [workers])
    assert got == want


CATALOG = [
    DistributionSpec.gamma(Fraction(3, 2), Fraction(1, 2)),
    DistributionSpec.exponential(2),
    DistributionSpec.normal(Fraction(1, 3), Fraction(3, 2)),
    DistributionSpec.uniform(-1, Fraction(3, 2)),
    DistributionSpec.laplace(Fraction(-1, 2), 1),
    DistributionSpec.bernoulli(Fraction(1, 3)),
    DistributionSpec.finite_discrete((-1, Fraction(1, 2), 2), (Fraction(1, 4),) * 2 + (Fraction(1, 2),)),
    DistributionSpec.rademacher(),
    DistributionSpec.poisson(Fraction(3, 2)),
    DistributionSpec.pareto(9),
]


@pytest.mark.parametrize("spec", CATALOG, ids=lambda spec: spec.family)
def test_chunked_draws_are_the_whole_block_draws(spec):
    # rows of 3 variates: 5 in chunks of 1 and of 2 rows, then 4 chunks of
    # 4096 rows and a last chunk of 7
    for size, rows in ((5, 1), (5, 2), (4 * 4096 + 7, 4096)):
        whole = sample_block(spec, block_stream(3, 1), (size, 3))
        rng = block_stream(3, 1)
        chunks = [sample_block(spec, rng, (min(rows, size - lo), 3)) for lo in range(0, size, rows)]
        assert np.array_equal(np.concatenate(chunks), whole)


@pytest.mark.parametrize("i, spec", enumerate(CATALOG), ids=[spec.family for spec in CATALOG])
def test_chunked_kernel_equals_the_one_shot_kernel(i, spec):
    # every family at n=64 (chunks of 512 rows) over two blocks with two
    # workers; across the families, also n = 1, 3 and 8 (chunks of 2^15,
    # 10922 and 2^12 rows), one partial block and three blocks and 17
    # samples, d = 2, 6 and 7, and one or two workers
    cases = (
        (64, BLOCK_SAMPLES + 1, (2, 6, 7)[i % 3], 2),
        ((1, 3, 8)[i % 3], (10**4, 3 * BLOCK_SAMPLES + 17)[i % 2], (6, 7, 2)[i % 3], 1 + i // 2 % 2),
    )
    for n, samples, d, threads in cases:
        lam = np.random.default_rng(n).standard_normal(n)
        (one_shot,) = mc_norm_pow_one_shot(lam, spec, (d,), samples, 11)
        assert mc_norm_pow(lam, spec, d, samples, 11, threads=threads) == one_shot


@pytest.mark.parametrize("entries", [1, 2, 8, 5 * 2**10])
def test_the_estimate_does_not_depend_on_the_chunk_size(monkeypatch, entries):
    # chunks of 1 row up to 1706 rows, of 3 or of 64 variates
    monkeypatch.setattr(oracle, "CHUNK_ENTRIES", entries)
    spec = DistributionSpec.normal(Fraction(1, 3), Fraction(3, 2))
    for n in (3, 64):
        lam = np.random.default_rng(n).standard_normal(n)
        (want,) = mc_norm_pow_one_shot(lam, spec, (6,), 10**4, 5)
        assert mc_norm_pow(lam, spec, 6, 10**4, 5) == want


def test_sampling_memory_does_not_grow_with_n():
    # one block of 2^16 draws of 64 variates would be 32 MB
    lam = np.linspace(-1.0, 1.0, 64)
    tracemalloc.start()
    try:
        mc_norm_pow(lam, DistributionSpec.normal(0, 1), 6, 2 * BLOCK_SAMPLES, seed=3)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 4 * 2**20, peak


def test_block_sums_are_scaled_by_powers_of_two():
    # beta = 2^266 scales every draw, and each power |<X, lambda>|^2 by 2^532,
    # exactly: the squares, near 2^1064, would overflow unscaled
    unit = mc_norm_pow([1.0, 1.0], DistributionSpec.exponential(1), 2, 3 * 10**4, seed=4)
    big = mc_norm_pow([1.0, 1.0], DistributionSpec.exponential(2**266), 2, 3 * 10**4, seed=4)
    assert big.value == math.ldexp(unit.value, 532)
    assert big.stderr == math.ldexp(unit.stderr, 532) > 0


def test_a_block_whose_powers_are_subnormal_is_scaled_up():
    # the one-sample last block of seed 2 draws x = -0.0134: |x|^170 is
    # 4.1e-319, so 2**-k, k from frexp of it, would be past the float range
    spec = DistributionSpec.normal(0, 1)
    assert 0.0 < abs(sample_block(spec, block_stream(2, 1), 1)[0]) ** 170 < 2.0**-1022
    (one_shot,) = mc_norm_pow_one_shot([1.0], spec, (170,), BLOCK_SAMPLES + 1, 2)
    assert mc_norm_pow([1.0], spec, 170, BLOCK_SAMPLES + 1, 2) == one_shot


def test_a_law_whose_powers_are_all_subnormal():
    # every power U^2 lies in [2^-1060, 2^-1056]; the unscaled squares are 0
    spec = DistributionSpec.uniform(Fraction(1, 2**530), Fraction(1, 2**528))
    (one_shot,) = mc_norm_pow_one_shot([1.0], spec, (2,), 10**4, 1)
    est = mc_norm_pow([1.0], spec, 2, 10**4, 1)
    # a subnormal mean: the scaled and unscaled sums round it to the
    # subnormal grid by different steps
    assert 0.0 < one_shot.value < 2.0**-1022
    assert abs(est.value - one_shot.value) <= 2.0**-1074
    assert 0.0 < est.stderr < est.value


def test_a_block_of_zeros_takes_no_part_in_the_scale():
    # the one-sample last block of seed 1 draws the atom 0: the first block's
    # squares, near 2^-1328, are summed at the first block's own scale
    coin = (Fraction(1, 2), Fraction(1, 2))
    unit = mc_norm_pow([1.0], DistributionSpec.finite_discrete((0, 1), coin), 2, BLOCK_SAMPLES + 1, 1)
    tiny = DistributionSpec.finite_discrete((0, Fraction(1, 2**332)), coin)
    assert sample_block(tiny, block_stream(1, 1), 1)[0] == 0.0
    est = mc_norm_pow([1.0], tiny, 2, BLOCK_SAMPLES + 1, 1)
    assert est.value == math.ldexp(unit.value, -664)
    assert est.stderr == math.ldexp(unit.stderr, -664) > 0


@pytest.mark.parametrize(
    "n, rows", [(1, 1 << 15), (3, 10922), (8, 1 << 12), (64, 1 << 9), (8192, 4), (32768, 1), (10**5, 1)]
)
def test_chunk_rows(n, rows):
    assert oracle._chunk_rows(n) == rows


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


@pytest.mark.parametrize("d, e", [(2, 80), (2, 100), (2, 120), (2, 150), (3, 80), (3, 100), (6, 50)])
@pytest.mark.parametrize("sign", [1, -1])
def test_mc_norm_stderr_is_a_value_where_the_norm_power_is(d, e, sign):
    # the norm power, near beta^d, is a float, while the stderr of the
    # power times the norm, near beta^(d+1), may overflow or underflow
    beta = Fraction(10) ** (sign * e)
    unit = mc_norm(Matrix.identity(2), DistributionSpec.exponential(), d, 10**4, seed=1)
    est = mc_norm(Matrix.identity(2), DistributionSpec.exponential(beta), d, 10**4, seed=1)
    assert 0.0 < est.stderr < math.inf
    assert math.isclose(est.value, float(beta) * unit.value, rel_tol=1e-12)
    assert math.isclose(est.stderr / est.value, unit.stderr / unit.value, rel_tol=1e-9)


def test_mc_norm_zero_matrix():
    est = mc_norm(zeros(2), DistributionSpec.exponential(), 3, 10**4, seed=10)
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


def test_mc_refuses_degree_above_the_float_range_before_sampling(monkeypatch):
    # the estimate divides by d!, a float only up to d = 170
    from rvnorms import cli

    assert cli.ORACLE_MAX_DEGREE is oracle.ORACLE_MAX_DEGREE == 170
    calls = []

    def spy(*args):
        calls.append(args)
        return sample_block(*args)

    monkeypatch.setattr(oracle, "sample_block", spy)
    spec = DistributionSpec.exponential()
    for d in (171, 300):
        with pytest.raises(PreconditionError, match="from 2 to 170"):
            mc_norm_pow([1.0, 0.5], spec, d, 10**4, seed=1)
        with pytest.raises(PreconditionError, match="from 2 to 170"):
            mc_norm(Matrix([[1, 0], [0, 2]]), spec, d, 10**4, seed=1)
    assert calls == []
    # small weights keep |<X, lambda>|^170 in the float range
    mc_norm_pow([0.01, 0.005], spec, 170, 10**4, seed=1)
    assert len(calls) == 1


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
