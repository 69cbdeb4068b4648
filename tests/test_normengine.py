import json
import math
import random
from collections import Counter
from fractions import Fraction
from math import comb, factorial

import numpy as np
import pytest

from rvnorms.cumulants import (
    CumulantVector,
    DistributionSpec,
    distribution_cumulants,
    parse_distribution,
)
from rvnorms import cli, normengine
from rvnorms.errors import NonHermitianError, PreconditionError
from rvnorms.matrixcore import Matrix
from rvnorms.normengine import (
    circle_extension_check,
    general_norm_pow,
    hermitian_norm_pow,
    norm,
    norm_root,
    series_norm_pow,
    symbolic_formula,
    word_sum_norm_pow,
    write_formula,
)
from rvnorms.partitions import enumerate_partitions, y_of
from rvnorms.scalars import real_part_checked
from rvnorms.sympoly import chs
from rvnorms.words import word_json, word_text
from rvnorms.suites import default_family_specs, mgf_family_specs, stream

from oracles import (
    bell_value,
    evaluate,
    exact_div,
    kappa_product,
    normal_norm_pow_closed,
    pareto_norm_pow_multinomial,
    random_general,
    random_hermitian,
    random_unitary,
    series_exp_coefficient,
    trace_of_product,
    trace_powers,
    zeros,
)

I = 1j


def rational_vector(rnd, n):
    return [Fraction(rnd.randint(-9, 9), rnd.randint(1, 9)) for _ in range(n)]


def rational_symmetric(rnd, n):
    entries = [[None] * n for _ in range(n)]
    for i in range(n):
        for j in range(i, n):
            v = Fraction(rnd.randint(-5, 5), rnd.randint(1, 5))
            entries[i][j] = v
            entries[j][i] = v
    return Matrix(entries)


def partition_walk_bell(ell, x):
    """B_ell(x) = ell! * sum over partitions pi of ell of x_pi / y_pi."""
    total = 0
    for p in enumerate_partitions(ell):
        total = total + exact_div(math.prod(x[i - 1] for i in p.parts), y_of(p))
    return factorial(ell) * total


def partition_walk_norm_pow(A, spec, d):
    """The partition/cumulant sum over every partition of d: the oracle for
    the Bell kernel behind hermitian_norm_pow."""
    k = distribution_cumulants(spec, d)
    tp = [real_part_checked(t) for t in trace_powers(A, d)]
    total = 0
    for p in enumerate_partitions(d):
        kp = kappa_product(p, k)
        if kp != 0:
            total = total + exact_div(kp * math.prod(tp[i - 1] for i in p.parts), y_of(p))
    return total


# -- Bell polynomials --------------------------------------------------------


def test_bell_low_degrees():
    assert bell_value(0, []) == 1
    rnd = random.Random(2)
    for _ in range(10):
        x = rational_vector(rnd, 4)
        assert bell_value(2, x[:2]) == x[0] ** 2 + x[1]
        x1, x2, x3, x4 = x
        expected = x1**4 + 6 * x1**2 * x2 + 4 * x1 * x3 + 3 * x2**2 + x4
        assert bell_value(4, x) == expected


def test_bell_value_equals_partition_walk():
    rnd = random.Random(4)
    for ell in range(13):
        x = rational_vector(rnd, ell)
        assert bell_value(ell, x) == partition_walk_bell(ell, x), ell


def test_bell_needs_enough_arguments():
    with pytest.raises(PreconditionError):
        bell_value(3, [1, 2])


def test_exact_bell_kernel_on_several_rows():
    # B_d of each row from one _bell call, against the partition walk of
    # that row alone: rows of several lengths m (a_k = 0 above m), some
    # a_k zero in every row or in some rows only, and denominators shared
    # by all rows.
    rng = random.Random(61)
    for d in range(1, 21):
        for _ in range(3):
            m = rng.randint(1, d)
            rows = [
                [rng.randint(-40, 40) if rng.random() > 0.25 else 0 for _ in range(m)]
                for _ in range(rng.randint(1, 4))
            ]
            rows[0][rng.randrange(m)] = 0  # a_k = 0 in one row
            k = rng.randrange(m)
            for row in rows:  # a_k = 0 in every row
                row[k] = 0
            den = [1] + [rng.choice([1, 1, 2, 3, 7, 10**12]) for _ in range(d)]
            # the summed k: all up to m, or all but the one that vanishes everywhere
            for ks in (range(1, m + 1), [j for j in range(1, m + 1) if j != k + 1]):
                b, D = normengine._bell(rows, d, den, ks)
                assert len(b) == len(rows)
                for row, value in zip(rows, b):
                    x = [Fraction(v, den[j]) for j, v in enumerate(row, 1)] + [0] * (d - m)
                    assert Fraction(value, D) == partition_walk_bell(d, x), (d, row, den)


def int_stack_traces(A, m):
    """tr A^k for k = 1..m of one int matrix, by repeated products."""
    P, out = A, []
    for _ in range(m):
        out.append(int(np.trace(P)))
        P = P.dot(A)
    return out


def special_int_matrices(n):
    """Zero, nilpotent (strictly upper triangular), identity and 10^30-entry
    n x n int matrices."""
    rng = random.Random(n)
    nil = [[rng.randint(-9, 9) if j > i else 0 for j in range(n)] for i in range(n)]
    big = [[rng.choice([-1, 1]) * 10**30 + rng.randint(-9, 9) for _ in range(n)] for _ in range(n)]
    return [[[0] * n for _ in range(n)], nil, [[int(i == j) for j in range(n)] for i in range(n)], big]


@pytest.mark.parametrize("n", range(1, 7))
def test_int_power_sums_equal_the_matrix_product_traces(n):
    # The int stack's trace kernel forms A^1..A^n and continues by
    # Cayley-Hamilton: every tr A^k up to m = 3n + 2 against repeated
    # products, with a different m per row (0 above it).
    rng = random.Random(70 + n)
    rows = special_int_matrices(n) + [
        [[rng.randint(-50, 50) for _ in range(n)] for _ in range(n)] for _ in range(4)
    ]
    A = np.array(rows, dtype=object)
    top = 3 * n + 2
    m = np.array([top] + [rng.randint(0, top) for _ in rows[1:]])
    got = normengine._trace_power_stack(A, m)
    assert got.shape == (len(rows), top) and got.dtype == object
    for row, mi, tr in zip(rows, m, got.tolist()):
        want = int_stack_traces(np.array(row, dtype=object), int(mi))
        assert tr == want + [0] * (top - mi), (row, mi)
        assert all(type(v) is int for v in tr)


def test_int_power_sums_refuse_a_newton_remainder():
    # e_k of an int matrix is an int; a non-int entry shows as a remainder.
    A = np.array([[[Fraction(1, 2), 0], [0, 1]]], dtype=object)
    with pytest.raises(ArithmeticError, match="remainder"):
        normengine._trace_power_stack(A, np.array([4]))


@pytest.mark.parametrize(
    "law", ["normal:mu=1/2,sigma=1", "rademacher", "uniform:a=-1,b=3/2", "exponential:beta=5/4"]
)
def test_cached_bell_plan_equals_the_fraction_bell(law):
    # a_k = kappa_k t_k, kept as the numerators over den[k] that the exact
    # route passes, against the partition walk of the Fractions, on rows
    # where some t_k (and so a_k) vanishes in one row or in every row; the
    # plan is keyed by the law's nonzero indices alone and built once.
    rng = random.Random(63)
    for d in (2, 4, 8, 14, 20):
        kappas = distribution_cumulants(parse_distribution(law), d).kappas
        den = [1] + [kappa.denominator for kappa in kappas]
        ks = [k for k, kappa in enumerate(kappas, 1) if kappa != 0]
        m = ks[-1]
        t = [[rng.randint(-30, 30) for _ in range(m)] for _ in range(3)]
        t[0][rng.randrange(m)] = 0
        for row in t:
            row[ks[len(ks) // 2] - 1] = 0
        rows = [[kappa.numerator * v for kappa, v in zip(kappas, row)] for row in t]
        normengine._bell_plan.cache_clear()
        for _ in range(2):
            b, D = normengine._bell(rows, d, den, ks)
            for row, value in zip(t, b):
                x = [kappa * v for kappa, v in zip(kappas, row)] + [0] * (d - m)
                assert Fraction(value, D) == partition_walk_bell(d, x), (law, d, row)
        info = normengine._bell_plan.cache_info()
        assert (info.misses, info.hits) == (1, 1)


def test_palindromic_weights_give_the_middle_coefficient():
    # [u^h] P = sum_u w_u P(u) / W for P palindromic of degree 2h, from
    # its values at u = 1..h+1 only.
    rng = random.Random(62)
    for h in range(1, 51):
        w, W = normengine._palindromic_weights(h)
        assert len(w) == h + 1 and all(type(v) is int for v in w) and type(W) is int
        for _ in range(3):
            half = [rng.randint(-10**6, 10**6) for _ in range(h + 1)]
            coeffs = half + half[-2::-1]  # c_j = c_{2h-j}
            values = [sum(c * u**j for j, c in enumerate(coeffs)) for u in range(1, h + 2)]
            assert Fraction(sum(a * b for a, b in zip(w, values)), W) == coeffs[h], h


def test_hermitian_norm_is_bell_transform():
    rnd = random.Random(3)
    for name, spec in mgf_family_specs():
        d = 4
        lam = rational_vector(rnd, 3)
        A = Matrix.diagonal(lam)
        k = distribution_cumulants(spec, d)
        tp = trace_powers(A, d)
        args = [k.kappas[j] * tp[j] for j in range(d)]
        via_bell = Fraction(bell_value(d, args), factorial(d))
        assert hermitian_norm_pow(A, spec, d) == via_bell, name


# -- Hermitian route ---------------------------------------------------------


def oracle_family_specs():
    """Every family; pareto with alpha above the largest degree tested."""
    return [
        (name, DistributionSpec.pareto(Fraction(51, 2)) if name == "pareto" else spec)
        for name, spec in default_family_specs()
    ]


@pytest.mark.parametrize("d", range(2, 25, 2))
def test_bell_kernel_equals_partition_walk_exact(d):
    rnd = random.Random(200 + d)
    diagonal = Matrix.diagonal(rational_vector(rnd, 3))
    dense = rational_symmetric(rnd, 3)
    for name, spec in oracle_family_specs():
        for A in (diagonal, dense):
            got = hermitian_norm_pow(A, spec, d)
            want = partition_walk_norm_pow(A, spec, d)
            assert got == want and type(got) is type(want) is Fraction, (name, d)


def test_zero_matrix_keeps_the_type_of_its_path():
    spec = DistributionSpec.exponential()
    value = hermitian_norm_pow(Matrix([[0.0, 0.0], [0.0, 0.0]]), spec, 4)
    assert value == 0 and type(value) is float
    value = hermitian_norm_pow(Matrix([[0, 0], [0, 0]]), spec, 4)
    assert value == 0 and type(value) is Fraction


@pytest.mark.parametrize("d", [100, 140, 160])
def test_bell_kernel_matches_series_float_high_degree(d):
    # Near-diagonal input; test_series_float_generic_high_degree takes a
    # generic Hermitian matrix.
    rng = stream(97)
    A = Matrix.diagonal(rng.uniform(-2.0, 2.0, size=8).tolist()) + random_hermitian(rng, 8) * 0.01
    spec = DistributionSpec.exponential()
    a = hermitian_norm_pow(A, spec, d)
    b = series_norm_pow(A, spec, d)
    assert isinstance(a, float) and math.isfinite(a) and a > 0
    assert abs(a - b) <= 1e-10 * abs(b), (a, b)


@pytest.mark.parametrize("d", [160, 200, 300])
def test_series_float_generic_high_degree(d):
    # kappa_j = (j-1)! is divided by j! before it meets the float trace, so
    # the series stays finite wherever the norm power is.
    A = random_hermitian(stream(97), 8)
    spec = DistributionSpec.exponential()
    a = series_norm_pow(A, spec, d)
    b = hermitian_norm_pow(A, spec, d)
    assert isinstance(a, float) and math.isfinite(a) and a > 0
    assert abs(a - b) <= 1e-12 * abs(b), (a, b)


def test_exponential_gives_chs():
    rnd = random.Random(5)
    spec = DistributionSpec.exponential()
    for _ in range(20):
        n = rnd.randint(1, 5)
        lam = rational_vector(rnd, n)
        for d in (2, 4, 6):
            assert hermitian_norm_pow(Matrix.diagonal(lam), spec, d) == chs(d, lam)


def test_normal_centered_d2_is_half_frobenius_sq():
    spec = DistributionSpec.normal(0, 1)
    A = Matrix([[1, 2 + I], [2 - I, -3]])
    val = hermitian_norm_pow(A, spec, 2)
    tr2 = real_part_checked(trace_powers(A, 2)[1])
    assert val == pytest.approx(tr2 / 2)


def test_rademacher_displays():
    spec = DistributionSpec.rademacher()
    l1, l2 = Fraction(3, 2), Fraction(-2, 3)
    A = Matrix.diagonal([l1, l2])
    assert hermitian_norm_pow(A, spec, 2) == (l1**2 + l2**2) / 2
    assert hermitian_norm_pow(A, spec, 4) == (l1**4 + 6 * l1**2 * l2**2 + l2**4) / 24
    expected6 = (l1**6 + 15 * l1**4 * l2**2 + 15 * l1**2 * l2**4 + l2**6) / 720
    assert hermitian_norm_pow(A, spec, 6) == expected6


def test_uniform_01_displays():
    spec = DistributionSpec.uniform(0, 1)
    l1, l2 = Fraction(1, 2), Fraction(5, 3)
    A = Matrix.diagonal([l1, l2])
    assert hermitian_norm_pow(A, spec, 2) == (2 * l1**2 + 3 * l1 * l2 + 2 * l2**2) / 12
    expected4 = (
        6 * l1**4 + 15 * l1**3 * l2 + 20 * l1**2 * l2**2 + 15 * l1 * l2**3 + 6 * l2**4
    ) / 720
    assert hermitian_norm_pow(A, spec, 4) == expected4


def test_hermitian_path_rejects():
    spec = DistributionSpec.exponential()
    with pytest.raises(NonHermitianError):
        hermitian_norm_pow(Matrix([[0, 1], [0, 0]]), spec, 2)
    with pytest.raises(PreconditionError):
        hermitian_norm_pow(Matrix.identity(2), spec, 3)
    with pytest.raises(PreconditionError):
        hermitian_norm_pow(Matrix.identity(2), DistributionSpec.pareto(3), 4)


def test_strict_positivity_random():
    rng = stream(7)
    for name, spec in default_family_specs():
        for _ in range(5):
            A = random_hermitian(rng, 3)
            assert float(hermitian_norm_pow(A, spec, 4)) > 0, name


# -- series path -------------------------------------------------------------


def test_series_zero_matrix():
    assert series_norm_pow(zeros(3), DistributionSpec.poisson(1), 4) == 0


def test_series_laplace_fixture():
    spec = DistributionSpec.laplace(1, 1)
    A = Matrix.identity(2)
    assert series_norm_pow(A, spec, 2) == 4
    assert hermitian_norm_pow(A, spec, 2) == 4


def _gen_binom(alpha, k):
    # Coefficient of t^k in (1-t)^(-alpha): prod_{j<k} (alpha+j) / k!
    num = 1
    for j in range(k):
        num *= alpha + j
    return Fraction(num, factorial(k)) if isinstance(num, int) else num / factorial(k)


def test_series_gamma_matches_binomial_expansion():
    rnd = random.Random(11)
    for _ in range(15):
        alpha = Fraction(rnd.randint(1, 6), rnd.randint(1, 3))
        beta = Fraction(rnd.randint(1, 4), rnd.randint(1, 3))
        spec = DistributionSpec.gamma(alpha, beta)
        l1, l2 = rational_vector(rnd, 2)
        d = rnd.choice([2, 4, 6])
        expected = sum(
            _gen_binom(alpha, k)
            * (beta * l1) ** k
            * _gen_binom(alpha, d - k)
            * (beta * l2) ** (d - k)
            for k in range(d + 1)
        )
        got = series_norm_pow(Matrix.diagonal([l1, l2]), spec, d)
        assert got == expected


def test_series_rejects_pareto():
    with pytest.raises(PreconditionError):
        series_norm_pow(Matrix.identity(2), DistributionSpec.pareto(20), 4)


def test_series_equals_partition_exact():
    rnd = random.Random(13)
    for name, spec in mgf_family_specs():
        for d in (2, 4, 6):
            A = rational_symmetric(rnd, rnd.randint(2, 4))
            assert series_norm_pow(A, spec, d) == hermitian_norm_pow(A, spec, d), name


@pytest.mark.parametrize("d", [2, 4, 10, 20, 40])
def test_exact_series_equals_the_series_exponential(d):
    # The series route's definition, [t^d] exp(sum_j kappa_j tr(A^j) t^j / j!),
    # by the plain recurrence over Fractions, against the route, which runs
    # the int Bell kernel: equal on random rational symmetric matrices of
    # sizes 1-4, under every law with a moment generating function.
    rnd = random.Random(9100 + d)
    for name, spec in mgf_family_specs():
        kappas = distribution_cumulants(spec, d).kappas
        for n in range(1, 5):
            A = rational_symmetric(rnd, n)
            tp = trace_powers(A, d)
            f = [Fraction(kappas[j - 1]) * tp[j - 1] / factorial(j) for j in range(1, d + 1)]
            assert series_norm_pow(A, spec, d) == series_exp_coefficient(f, d), (name, n)


def truncated_product(a, b, d):
    """The coefficients of a(t) b(t) up to t^d."""
    return [sum(a[i] * b[k - i] for i in range(k + 1)) for k in range(d + 1)]


def test_series_matches_moment_product():
    # Independent route: [t^d] of the product over i of the truncated moment
    # series sum_k mu_k lambda_i^k t^k / k!, multiplied out directly.
    from rvnorms.cumulants import distribution_moments

    rnd = random.Random(83)
    d = 4
    for name, spec in mgf_family_specs():
        lam = rational_vector(rnd, 3)
        mom = distribution_moments(spec, d)
        product = [1] + [0] * d
        for li in lam:
            coeffs = [1] + [
                mom[k - 1] * li**k * Fraction(1, factorial(k)) for k in range(1, d + 1)
            ]
            product = truncated_product(product, coeffs, d)
        direct = product[d]
        got = series_norm_pow(Matrix.diagonal(lam), spec, d)
        if isinstance(direct, Fraction) or isinstance(direct, int):
            assert got == direct, name
        else:
            assert float(got) == pytest.approx(float(direct), rel=1e-11), name


def test_paths_agree_d8():
    rng = stream(89)
    for name, spec in mgf_family_specs():
        for _ in range(3):
            A = random_hermitian(rng, 3)
            v1 = float(hermitian_norm_pow(A, spec, 8))
            v2 = float(series_norm_pow(A, spec, 8))
            v3 = float(general_norm_pow(A, spec, 8))
            ref = max(1.0, abs(v1))
            assert abs(v1 - v2) <= 1e-11 * ref, name
            assert abs(v1 - v3) <= 1e-10 * ref, name


def test_laplace_chs_expansion():
    # mu = beta = 1: norm^d = sum_k (tr A)^(2k)/(2k)! * h_{d/2-k}(lambda^2)
    rnd = random.Random(17)
    spec = DistributionSpec.laplace(1, 1)
    for _ in range(10):
        lam = rational_vector(rnd, 3)
        d = rnd.choice([2, 4, 6])
        tr = sum(lam)
        lam2 = [v**2 for v in lam]
        expected = sum(
            tr ** (2 * k) * Fraction(1, factorial(2 * k)) * chs(d // 2 - k, lam2)
            for k in range(d // 2 + 1)
        )
        assert hermitian_norm_pow(Matrix.diagonal(lam), spec, d) == expected


def test_normal_closed_form_cross_check():
    rnd = random.Random(19)
    rng = stream(19)
    for _ in range(10):
        mu = Fraction(rnd.randint(-3, 3), rnd.randint(1, 3))
        sigma = Fraction(rnd.randint(1, 3), rnd.randint(1, 2))
        spec = DistributionSpec.normal(mu, sigma)
        lam = rational_vector(rnd, 3)
        d = rnd.choice([2, 4, 6])
        A = Matrix.diagonal(lam)
        assert normal_norm_pow_closed(A, mu, sigma, d) == hermitian_norm_pow(A, spec, d)
        H = random_hermitian(rng, 3)
        a = float(normal_norm_pow_closed(H, float(mu), float(sigma), d))
        b = float(hermitian_norm_pow(H, spec, d))
        assert abs(a - b) <= 1e-11 * max(1.0, abs(a))


# -- trace words -------------------------------------------------------------


def test_general_d2_formula():
    rng = stream(31)
    for name, spec in [mgf_family_specs()[0], mgf_family_specs()[3]]:
        k = distribution_cumulants(spec, 2)
        for _ in range(5):
            Z = random_general(rng, 3)
            Zs = Z.adjoint()
            expected = float(k.kappa(2)) / 2 * real_part_checked((Zs @ Z).trace()) + float(
                k.kappa(1)
            ) ** 2 / 2 * real_part_checked(Zs.trace() * Z.trace())
            got = float(general_norm_pow(Z, spec, 2))
            assert got == pytest.approx(expected), name


def test_general_uniform_d4_display():
    spec = DistributionSpec.uniform(-1, 1)
    rng = stream(37)
    for _ in range(8):
        Z = random_general(rng, 3)
        Zs = Z.adjoint()
        tr = lambda M: M.trace()
        display = (
            10 * tr(Zs @ Z) ** 2
            + 5 * tr(Z @ Z) * tr(Zs @ Zs)
            - 4 * tr(Z @ Z @ Zs @ Zs)
            - 2 * tr(Z @ Zs @ Z @ Zs)
        ) / 1080
        got = float(general_norm_pow(Z, spec, 4))
        assert got == pytest.approx(real_part_checked(display))


def test_hermitian_uniform_d6_display():
    spec = DistributionSpec.uniform(-1, 1)
    rnd = random.Random(41)
    for _ in range(8):
        A = rational_symmetric(rnd, 3)
        tp = trace_powers(A, 6)
        display = (35 * tp[1] ** 3 - 42 * tp[3] * tp[1] + 16 * tp[5]) * Fraction(1, 45360)
        assert hermitian_norm_pow(A, spec, 6) == display
        assert general_norm_pow(A, spec, 6) == display


def test_general_restricts_to_hermitian():
    rng = stream(43)
    rnd = random.Random(43)
    for name, spec in default_family_specs():
        A = random_hermitian(rng, 4)
        a = float(hermitian_norm_pow(A, spec, 4))
        b = float(general_norm_pow(A, spec, 4))
        assert abs(a - b) <= 1e-10 * max(1.0, abs(a)), name
        B = rational_symmetric(rnd, 3)
        assert hermitian_norm_pow(B, spec, 4) == general_norm_pow(B, spec, 4), name


def test_unitary_invariance():
    rng = stream(47)
    spec = DistributionSpec.gamma(2, Fraction(1, 2))
    for _ in range(6):
        Z = random_general(rng, 3)
        U = random_unitary(rng, 3)
        a = norm(Z, spec, 4)
        b = norm(U @ Z @ U.adjoint(), spec, 4)
        assert abs(a - b) <= 1e-9 * max(1.0, a)


def test_norm_fixtures():
    spec = DistributionSpec.exponential()
    assert norm(zeros(2), spec, 2) == 0
    assert norm(Matrix.identity(2), spec, 2) == pytest.approx(math.sqrt(3))
    rng = stream(53)
    Z = random_general(rng, 3)
    for c in (2.0, -0.5):
        assert norm(Z * c, spec, 4) == pytest.approx(abs(c) * norm(Z, spec, 4), rel=1e-12)


def test_scale_guard_large_entries():
    spec = DistributionSpec.rademacher()
    rng = stream(59)
    A = random_hermitian(rng, 3)
    big = A * 1e8
    a = float(hermitian_norm_pow(A, spec, 6))
    b = float(hermitian_norm_pow(big, spec, 6))
    assert b == pytest.approx(a * (1e8) ** 6, rel=1e-10)
    assert math.isfinite(float(general_norm_pow(big, spec, 4)))


@pytest.mark.parametrize("route", [hermitian_norm_pow, series_norm_pow, general_norm_pow])
@pytest.mark.parametrize("entry", [1e-200, 1e308])
def test_scale_guard_refuses_out_of_range(route, entry):
    # diag(1e-200)^4 underflows to 0.0, diag(1e308)^4 overflows: both refused.
    A = Matrix.diagonal([entry, entry])
    with pytest.raises(PreconditionError, match="scale"):
        route(A, DistributionSpec.exponential(), 4)


def test_rescale_refuses_subnormal_and_keeps_in_range_products():
    from rvnorms.normengine import _rescaled

    def rescaled(total, e, d):
        return _rescaled(np.array([total]), np.array([e]), d).tolist()

    # 2**-1060 is subnormal: refused, not rooted from 15 bits.
    with pytest.raises(PreconditionError, match="scale"):
        rescaled(1.0, -265, 4)
    # 2**(4e) leaves the float range but total * 2**(4e) does not.
    assert rescaled(0.75 * 2.0**-40, 260, 4) == [0.75 * 2.0**1000]
    assert rescaled(0.75 * 2.0**40, -260, 4) == [0.75 * 2.0**-1000]
    with pytest.raises(PreconditionError, match="scale"):
        rescaled(0.75, 257, 4)
    assert rescaled(0.0, 300, 4) == [0.0]
    # exact: the pair (num, den) at L Z, scale L, gives num / (den L^d)
    assert _rescaled((3, 1), 2, 4).tolist() == [Fraction(3, 16)]
    assert _rescaled((9, 5), 3, 2).tolist() == [Fraction(1, 5)]


def test_norm_root_exact_values_outside_float_range():
    assert norm_root(Fraction(10) ** 400, 4) == pytest.approx(1e100, rel=1e-15)
    assert norm_root(Fraction(1, 10**400), 4) == pytest.approx(1e-100, rel=1e-15, abs=0)
    assert norm_root(Fraction(81, 16), 4) == 1.5
    # 1e-320 is a subnormal float with 4 significant digits: rooted exactly.
    assert norm_root(Fraction(1, 10**320), 4) == pytest.approx(1e-80, rel=1e-15, abs=0)
    assert norm_root(0, 4) == 0.0
    with pytest.raises(PreconditionError, match="lost its precision"):
        norm_root(-7.7e-34, 40)  # a float power never gives a complex root
    with pytest.raises(PreconditionError, match="outside float range"):
        norm_root(Fraction(10) ** 1300, 4)
    with pytest.raises(PreconditionError, match="outside float range"):
        norm_root(Fraction(1, 10**1300), 4)
    assert norm(Matrix([[10**100]]), DistributionSpec.exponential(), 4) == pytest.approx(1e100)


@pytest.mark.parametrize("d", [40, 70])
def test_norm_refuses_a_float_power_that_lost_its_precision(d):
    # diag(1.0, -0.5) under uniform(-1, 3/2): the constant-term route takes
    # this Hermitian matrix as its one point, and its float Hermitian form
    # gives a negative power at d=40 and 0.0 at d=70, which the CLI refuses
    Z, spec = Matrix.diagonal([1.0, -0.5]), DistributionSpec.uniform(-1, Fraction(3, 2))
    value = general_norm_pow(Z, spec, d)
    assert value < 0 if d == 40 else value == 0.0
    with pytest.raises(PreconditionError, match="lost its precision"):
        norm(Z, spec, d)


# -- constant-term route against the word-sum oracle -------------------------


def rational_general(rnd, n):
    while True:
        Z = Matrix([rational_vector(rnd, n) for _ in range(n)])
        if Z != Z.adjoint():
            return Z


@pytest.mark.parametrize("d", [2, 4, 6, 8, 10, 12, 14])
def test_constant_term_route_equals_word_sum_exact(d):
    rnd = random.Random(100 + d)
    for name, spec in default_family_specs():
        Z = rational_general(rnd, 3)
        if name == "pareto" and d >= spec.params["alpha"]:
            continue  # no moment of degree d
        a = general_norm_pow(Z, spec, d)
        b = word_sum_norm_pow(Z, spec, d)
        assert a == b and type(a) is type(b) is Fraction, (name, a, b)


def test_constant_term_route_matches_word_sum_float():
    rng = stream(101)
    for d in (2, 4, 6, 8):
        for name, spec in default_family_specs():
            Z = random_general(rng, 6)
            a = general_norm_pow(Z, spec, d)
            b = word_sum_norm_pow(Z, spec, d)
            assert isinstance(a, float)
            assert abs(a - b) <= 1e-12 * abs(b), (name, d, a, b)


@pytest.mark.parametrize("c", [1.0, 1e-13, 2.0**-60, 1e13])
def test_constant_term_route_on_near_hermitian_float_input_at_any_scale(c):
    # A matrix that differs from its adjoint, however little and at any
    # scale, takes the route's circle points, not the Hermitian shortcut:
    # a nilpotent stays strictly positive and the values keep homogeneity.
    rng = stream(103)
    H = np.asarray(random_hermitian(rng, 4).array, dtype=complex)
    near = H.copy()
    near[0, 1] += 1e-14
    cases = [np.array([[0.0, 1.0], [0.0, 0.0]]), np.diag([1j, 0.0]), near]
    for d in (2, 4, 6):
        for Z in cases:
            for spec in (DistributionSpec.exponential(), DistributionSpec.rademacher()):
                a = general_norm_pow(Matrix(c * Z), spec, d)
                b = word_sum_norm_pow(Matrix(c * Z), spec, d)
                assert a > 0 and abs(a - b) <= 1e-12 * b, (c, d, Z, a, b)
                assert abs(a - c**d * general_norm_pow(Matrix(Z), spec, d)) <= 1e-12 * a
    exact = [[0, Fraction(1, 10**13)], [0, 0]]
    for d in (2, 4):
        spec = DistributionSpec.exponential()
        assert general_norm_pow(Matrix(exact), spec, d) == word_sum_norm_pow(Matrix(exact), spec, d) > 0


@pytest.mark.parametrize(
    "denominators, d",
    [
        ([10**20 + 1, 10**20 + 3, 10**20 + 7, 10**20 + 9], 4),
        ([9901, 9907, 9923, 9929, 9931, 9941, 9949, 9967, 9973], 10),
    ],
)
def test_constant_term_route_float_cumulants_on_exact_matrix(denominators, d):
    # The lcm L of the denominators has L**d above the float range; with
    # float cumulants the route must not scale the matrix to integers.
    n = math.isqrt(len(denominators))
    Z = Matrix(
        [[Fraction(1, denominators[n * i + j]) for j in range(n)] for i in range(n)]
    )
    for text in ("normal:mu=0,sigma=0.5", "gamma:alpha=1.5,beta=0.5"):
        spec = parse_distribution(text)
        a = general_norm_pow(Z, spec, d)
        b = word_sum_norm_pow(Z, spec, d)
        assert isinstance(a, float) and b > 0
        assert abs(a - b) <= 1e-12 * abs(b), (text, a, b)


def test_constant_term_route_matrix_products(monkeypatch):
    calls = []
    matmul = Matrix.__matmul__

    def counting(self, other):
        calls.append(1)
        return matmul(self, other)

    Z = random_general(stream(102), 8)
    monkeypatch.setattr(Matrix, "__matmul__", counting)
    general_norm_pow(Z, DistributionSpec.gamma(2, Fraction(1, 2)), 8)
    # C_{k,j} for k = 2, 3, 4: 3 + 3 + 5 products; the word sum takes 233.
    assert len(calls) <= 16


def test_hermitian_route_forms_powers_only_up_to_the_top_cumulant(monkeypatch):
    # normal has kappa_k = 0 above k = 2: tr A and tr A^2 take one product,
    # not the 99 of all powers up to d = 100
    A = Matrix(
        [
            [2, Fraction(1, 2), -1],
            [Fraction(1, 2), Fraction(-3, 4), Fraction(5, 3)],
            [-1, Fraction(5, 3), 1],
        ]
    )
    want = normal_norm_pow_closed(A, Fraction(1, 2), 1, 100)
    calls = _count_products(monkeypatch)
    value = hermitian_norm_pow(A, parse_distribution("normal:mu=1/2,sigma=1"), 100)
    assert len(calls) <= 1
    assert value == want and type(value) is Fraction


# -- symbolic formulas -------------------------------------------------------


def test_symbolic_d2_generic():
    spec = DistributionSpec.gamma(2, 3)
    k = distribution_cumulants(spec, 2)
    poly = symbolic_formula(k, 2)
    assert poly.terms == {
        ("sz",): Fraction(k.kappa(2), 2),
        ("s", "z"): Fraction(k.kappa(1) ** 2, 2),
    }


def test_symbolic_z44_exponential():
    k = CumulantVector((1, 1, 2, 6))
    poly = symbolic_formula(k, 4)
    expected = {
        ("s", "s", "z", "z"): Fraction(1, 24),
        ("s", "s", "zz"): Fraction(1, 24),
        ("ss", "z", "z"): Fraction(1, 24),
        ("s", "sz", "z"): Fraction(1, 6),
        ("ssz", "z"): Fraction(1, 6),
        ("s", "szz"): Fraction(1, 6),
        ("sz", "sz"): Fraction(1, 12),
        ("ss", "zz"): Fraction(1, 24),
        ("sszz",): Fraction(1, 6),
        ("szsz",): Fraction(1, 12),
    }
    assert poly.terms == expected


def test_symbolic_uniform_d4():
    spec = DistributionSpec.uniform(-1, 1)
    poly = symbolic_formula(distribution_cumulants(spec, 4), 4)
    assert poly.terms == {
        ("sz", "sz"): Fraction(10, 1080),
        ("ss", "zz"): Fraction(5, 1080),
        ("sszz",): Fraction(-4, 1080),
        ("szsz",): Fraction(-2, 1080),
    }


def test_symbolic_uniform_d6_hermitian():
    spec = DistributionSpec.uniform(-1, 1)
    poly = symbolic_formula(distribution_cumulants(spec, 6), 6, hermitian_mode=True)
    assert poly.terms == {
        ("zz", "zz", "zz"): Fraction(35, 45360),
        ("zz", "zzzz"): Fraction(-42, 45360),
        ("zzzzzz",): Fraction(16, 45360),
    }


def test_symbolic_poisson_d4_hermitian():
    spec = DistributionSpec.poisson(1)
    poly = symbolic_formula(distribution_cumulants(spec, 4), 4, hermitian_mode=True)
    assert poly.terms == {
        ("z", "z", "z", "z"): Fraction(1, 24),
        ("z", "z", "zz"): Fraction(6, 24),
        ("z", "zzz"): Fraction(4, 24),
        ("zz", "zz"): Fraction(3, 24),
        ("zzzz",): Fraction(1, 24),
    }


def test_symbolic_poisson_alpha_structure():
    # Coefficients scale as alpha^(number of parts).
    for a in (Fraction(5), Fraction(2, 3)):
        poly = symbolic_formula(distribution_cumulants(DistributionSpec.poisson(a), 4), 4, True)
        assert poly.terms.get(("z", "z", "z", "z")) == a**4 / 24
        assert poly.terms.get(("z", "z", "zz")) == 6 * a**3 / 24
        assert poly.terms.get(("z", "zzz")) == 4 * a**2 / 24
        assert poly.terms.get(("zz", "zz")) == 3 * a**2 / 24
        assert poly.terms.get(("zzzz",)) == a / 24


def test_symbolic_normal_drops_zero_terms():
    spec = DistributionSpec.normal(1, 1)
    poly = symbolic_formula(distribution_cumulants(spec, 4), 4)
    # kappa_3 = kappa_4 = 0: no length-3 or length-4 words survive.
    assert len(poly.terms) == 6
    assert all(max(len(w) for w in key) <= 2 for key in poly.terms)


def test_symbolic_formula_evaluates_to_norm():
    # Evaluating the emitted polynomial at a matrix reproduces the norm power.
    rng = stream(61)
    spec = DistributionSpec.gamma(2, Fraction(1, 2))
    poly = symbolic_formula(distribution_cumulants(spec, 4), 4)
    for _ in range(5):
        Z = random_general(rng, 3)
        words = {w for key in poly.terms for w in key}
        cache = {}
        for w in words:
            M = Z if w[0] == "z" else Z.adjoint()
            for ch in w[1:]:
                M = M @ (Z if ch == "z" else Z.adjoint())
            cache[w] = M.trace()
        total = 0
        for key, coeff in poly.terms.items():
            term = coeff
            for w in key:
                term = term * cache[w]
            total = total + term
        assert float(general_norm_pow(Z, spec, 4)) == pytest.approx(
            real_part_checked(total)
        )


def test_evaluate_on_float_input_equals_the_fraction_products():
    # On a float matrix each term starts from complex(coeff); the sum is the
    # one that Fraction coefficient times complex trace gives, bit for bit.
    rng = stream(62)
    for spec in (DistributionSpec.gamma(2, Fraction(1, 2)), DistributionSpec.uniform(-1, Fraction(3, 2))):
        for d in (4, 6):
            poly = symbolic_formula(distribution_cumulants(spec, d), d)
            assert all(isinstance(c, Fraction) for c in poly.terms.values())
            Z = random_general(rng, 3)
            letters = {"z": Z, "s": Z.adjoint()}

            def trace(w):
                if len(w) == 1:
                    return letters[w].trace()
                M = letters[w[0]]
                for ch in w[1:-1]:
                    M = M @ letters[ch]
                return trace_of_product(M, letters[w[-1]])

            traces = {w: trace(w) for key in poly.terms for w in key}
            values = [math.prod((traces[w] for w in key), start=c) for key, c in poly.terms.items()]
            want = complex(math.fsum(v.real for v in values), math.fsum(v.imag for v in values))
            assert evaluate(poly, Z) == want, (spec.family, d)


def _count_products(monkeypatch):
    """Record one entry per ``numpy.matmul`` call and per ``Matrix`` product."""
    calls = []
    matmul, matrix_matmul = np.matmul, Matrix.__matmul__

    def counting(*args, **kwargs):
        calls.append(1)
        return matmul(*args, **kwargs)

    def counting_matrix(self, other):
        calls.append(1)
        return matrix_matmul(self, other)

    monkeypatch.setattr(np, "matmul", counting)
    monkeypatch.setattr(Matrix, "__matmul__", counting_matrix)
    return calls


def test_word_sum_one_product_per_distinct_prefix(monkeypatch):
    # exact and float input both take one batched product per distinct
    # prefix of the formula's words, and no Matrix product
    d = 8
    spec = DistributionSpec.exponential()
    poly = symbolic_formula(distribution_cumulants(spec, d), d)
    words = {w for key in poly.terms for w in key}
    prefixes = {w[:i] for w in words for i in range(2, len(w))}
    calls = _count_products(monkeypatch)
    for Z in (Matrix([[1, 2], [Fraction(1, 3), -1]]), Matrix([[1.0, 2j], [0.5, -1.0]])):
        calls.clear()
        word_sum_norm_pow(Z, spec, d)
        assert len(calls) == len(prefixes), Z


def _written(kappas, d, hermitian_mode=False, as_json=False, fields=None) -> str:
    chunks = []
    write_formula(chunks.append, kappas, d, hermitian_mode, as_json, fields)
    return "".join(chunks)


def test_symbolic_ordering_deterministic():
    kappas = distribution_cumulants(DistributionSpec.uniform(-1, 1), 4)
    poly = symbolic_formula(kappas, 4)
    keys = list(poly.terms)
    # reverse-lex partitions: (4) first, then (2,2)
    assert keys == [("sszz",), ("szsz",), ("ss", "zz"), ("sz", "sz")]
    assert _written(kappas, 4).splitlines() == [
        "-1/270 tr(Z*Z*ZZ)",
        "-1/540 tr(Z*ZZ*Z)",
        "1/216 tr(Z*Z*) tr(ZZ)",
        "1/108 tr(Z*Z)^2",
    ]


# laws with every cumulant nonzero and laws with zero cumulants (normal,
# rademacher, uniform), whose partitions drop out of the formula
ORDER_LAWS = (
    "exponential:beta=5/4",
    "poisson:alpha=9/4",
    "normal:mu=1/2,sigma=1/3",
    "rademacher",
    "uniform:a=-1,b=3/2",
)


@pytest.mark.parametrize("hermitian_mode", [False, True], ids=["general", "hermitian"])
@pytest.mark.parametrize("d", range(2, 15, 2))
def test_ordered_terms_are_the_canonical_sort(d, hermitian_mode):
    # the terms keep the order symbolic_formula builds them in, which must be
    # the explicit sort by (partition rank, factor tuple)
    rank = {p.parts: i for i, p in enumerate(enumerate_partitions(d))}

    def canonical(term):
        return rank[tuple(sorted(map(len, term[0]), reverse=True))], term[0]

    for law in ORDER_LAWS:
        kappas = distribution_cumulants(parse_distribution(law), d)
        poly = symbolic_formula(kappas, d, hermitian_mode)
        assert list(poly.terms.items()) == sorted(poly.terms.items(), key=canonical), law
        assert poly.terms and 0 not in poly.terms.values(), law


def test_symbolic_json_form():
    kappas = distribution_cumulants(DistributionSpec.uniform(-1, 1), 4)
    doc = json.loads(_written(kappas, 4, as_json=True))
    assert doc["degree"] == 4 and doc["mode"] == "general"
    assert {"coeff": [-1, 270], "factors": ["ssZZ"]} in doc["terms"]
    assert {"coeff": [1, 108], "factors": ["sZ", "sZ"]} in doc["terms"]


@pytest.mark.parametrize("render", ["word_text", "word_json"])
def test_symbolic_rendering_renders_each_word_once(render, monkeypatch, capsys):
    calls = []
    original = getattr(normengine, render)

    def counting(word):
        calls.append(word)
        return original(word)

    monkeypatch.setattr(normengine, render, counting)
    d = 8
    kappas = distribution_cumulants(DistributionSpec.exponential(), d)
    poly = symbolic_formula(kappas, d)
    occurrences = [w for key in poly.terms for w in key]
    _written(kappas, d, as_json=render == "word_json")
    assert sorted(calls) == sorted(set(occurrences)) and len(calls) < len(occurrences)
    # and through the CLI
    calls.clear()
    as_json = ["--json"] if render == "word_json" else []
    assert cli.main(["formula", "exponential", "-d", str(d), *as_json]) == 0
    assert capsys.readouterr().out
    assert sorted(calls) == sorted(set(occurrences))


@pytest.mark.parametrize("hermitian_mode", [False, True], ids=["general", "hermitian"])
@pytest.mark.parametrize("d", range(2, 15, 2))
def test_written_formula_is_the_rendered_polynomial(d, hermitian_mode):
    # the stream writes symbolic_formula's terms in order, on laws with and
    # without zero cumulants: one text line per term, its coefficient and
    # then its factors, each repeated factor once as w^count; and the same
    # coefficients and factor names in the JSON document
    if hermitian_mode:
        text_name = lambda w: "tr(A)" if len(w) == 1 else f"tr(A^{len(w)})"  # noqa: E731
        json_name = lambda w: f"A^{len(w)}"  # noqa: E731
    else:
        text_name = lambda w: f"tr({word_text(w)})"  # noqa: E731
        json_name = word_json

    def line(key, c):
        counts = Counter(key).items()
        return " ".join([str(c)] + [text_name(w) + (f"^{n}" if n > 1 else "") for w, n in counts])

    mode = "hermitian" if hermitian_mode else "general"
    for law in ORDER_LAWS:
        kappas = distribution_cumulants(parse_distribution(law), d)
        terms = symbolic_formula(kappas, d, hermitian_mode).terms.items()
        text = _written(kappas, d, hermitian_mode)
        assert text.splitlines() == [line(key, c) for key, c in terms] and text.endswith("\n"), law
        written = _written(kappas, d, hermitian_mode, True, {"distribution": law})
        doc = json.loads(written)
        assert written == json.dumps(doc) + "\n", law  # json.dumps's bytes
        assert (doc["degree"], doc["mode"], doc["distribution"]) == (d, mode, law)
        want = [[[c.numerator, c.denominator], list(map(json_name, key))] for key, c in terms]
        assert [[t["coeff"], t["factors"]] for t in doc["terms"]] == want, law


@pytest.mark.parametrize("hermitian_mode", [False, True], ids=["general", "hermitian"])
def test_written_zero_polynomial(hermitian_mode):
    kappas = CumulantVector((0,) * 4)
    assert _written(kappas, 4, hermitian_mode) == "0\n"
    assert symbolic_formula(kappas, 4, hermitian_mode).terms == {}
    mode = "hermitian" if hermitian_mode else "general"
    empty = f'{{"degree": 4, "mode": "{mode}", "terms": []}}\n'
    assert _written(kappas, 4, hermitian_mode, True) == empty


@pytest.mark.parametrize("as_json", [False, True], ids=["text", "json"])
def test_write_formula_writes_each_partition_before_building_the_next(monkeypatch, as_json):
    built = []
    real = normengine.placement_terms

    def spy(parts):
        built.append(parts)
        return real(parts)

    monkeypatch.setattr(normengine, "placement_terms", spy)
    writes = []
    d = 8
    kappas = distribution_cumulants(DistributionSpec.exponential(), d)
    write_formula(lambda text: writes.append((len(built), text)), kappas, d, as_json=as_json)
    # every cumulant of exponential is nonzero: one table per partition,
    # each written as one chunk of terms before the next is built
    chunks = [n for n, text in writes if text.startswith('{"coeff"') or " tr(" in text]
    assert chunks == list(range(1, len(enumerate_partitions(d)) + 1))


def test_written_formula_refuses_inexact_json_before_writing():
    kappas = distribution_cumulants(parse_distribution("exponential:beta=0.5"), 4)
    writes = []
    with pytest.raises(PreconditionError, match="exact rational"):
        write_formula(writes.append, kappas, 4, as_json=True)
    assert writes == []


# -- circle-average extension ------------------------------------------------


def test_circle_check_hermitian_reduces():
    rng = stream(67)
    spec = DistributionSpec.exponential()
    A = random_hermitian(rng, 3)
    quad, alg = circle_extension_check(A, spec, 4)
    direct = float(hermitian_norm_pow(A, spec, 4))
    assert quad == pytest.approx(direct, rel=1e-9)
    assert alg == pytest.approx(direct, rel=1e-9)


def test_circle_check_nilpotent_fixture():
    quad, alg = circle_extension_check(
        Matrix([[0, 1], [0, 0]]), DistributionSpec.exponential(), 2
    )
    assert quad == pytest.approx(0.5, abs=1e-12)
    assert alg == pytest.approx(0.5, abs=1e-12)


def test_circle_check_zero():
    quad, alg = circle_extension_check(zeros(2), DistributionSpec.exponential(), 4)
    assert quad == 0 and alg == 0


def test_circle_check_random_general():
    rng = stream(71)
    for name, spec in default_family_specs():
        Z = random_general(rng, 3)
        quad, alg = circle_extension_check(Z, spec, 4)
        assert abs(quad - alg) <= 1e-9 * max(1.0, abs(alg)), name


def test_wallis_normalization():
    # (1/2pi) integral (2 cos t)^d dt = C(d, d/2): mean over the grid of
    # (2cos)^d must equal the binomial, which is what makes the Hermitian
    # restriction work.
    for d, q in ((2, 8), (4, 12), (6, 16)):
        vals = [(2 * math.cos(2 * math.pi * j / q)) ** d for j in range(q)]
        assert sum(vals) / q == pytest.approx(comb(d, d // 2), rel=1e-12)


# -- pareto multinomial route ------------------------------------------------


def test_pareto_multinomial_n2_display():
    a = Fraction(7)
    l1, l2 = Fraction(1, 2), Fraction(3)
    d2 = pareto_norm_pow_multinomial([l1, l2], a, 2)
    expected = (l1**2 * a / (a - 2) + 2 * a**2 * l1 * l2 / (a - 1) ** 2 + l2**2 * a / (a - 2)) / 2
    assert d2 == expected
    d4 = pareto_norm_pow_multinomial([l1, l2], a, 4)
    expected4 = (
        a / (a - 4) * (l1**4 + l2**4)
        + 4 * a**2 / ((a - 1) * (a - 3)) * (l1**3 * l2 + l1 * l2**3)
        + 6 * a**2 / (a - 2) ** 2 * l1**2 * l2**2
    ) / 24
    assert d4 == expected4


def test_pareto_multinomial_matches_cumulant_path():
    rnd = random.Random(73)
    for _ in range(10):
        a = Fraction(rnd.randint(9, 30), rnd.randint(1, 2))
        lam = rational_vector(rnd, rnd.randint(1, 3))
        d = rnd.choice([2, 4])
        spec = DistributionSpec.pareto(a)
        direct = pareto_norm_pow_multinomial(lam, a, d)
        via_kappas = hermitian_norm_pow(Matrix.diagonal(lam), spec, d)
        assert direct == via_kappas


def test_pareto_multinomial_existence():
    with pytest.raises(PreconditionError):
        pareto_norm_pow_multinomial([1, 1], Fraction(4), 4)


HERM_Q = Matrix([[1, Fraction(2, 3)], [Fraction(2, 3), Fraction(-1, 5)]])
GEN_Q = Matrix([[1, Fraction(2, 3)], [Fraction(-1, 5), 2]])


TRACE_KERNELS = {
    hermitian_norm_pow: "_trace_power_stack",
    series_norm_pow: "_trace_power_stack",
    general_norm_pow: "_trace_power_stack",
    word_sum_norm_pow: "word_traces",
}


def _spy_on_evaluated_matrix(monkeypatch, route):
    """Record each stack that the route's trace kernel evaluates: one
    kernel per route, for exact and float input alike."""
    seen = []
    name = TRACE_KERNELS[route]
    real = getattr(normengine, name)

    def spy(Z, *args):
        seen.append(Z)
        return real(Z, *args)

    monkeypatch.setattr(normengine, name, spy)
    return seen


# L Z + u (L Z)^T for u = 1..d/2+1 at d = 4, with L Z = [[15, 10], [-3, 30]]
GEN_Q_POINTS = [[[15 + 15 * u, 10 - 3 * u], [-3 + 10 * u, 30 + 30 * u]] for u in (1, 2, 3)]


@pytest.mark.parametrize(
    "route, Z, ints, reference",
    [
        (hermitian_norm_pow, HERM_Q, [[[15, 10], [10, -3]]], series_norm_pow),
        (series_norm_pow, HERM_Q, [[[15, 10], [10, -3]]], hermitian_norm_pow),
        (general_norm_pow, GEN_Q, GEN_Q_POINTS, word_sum_norm_pow),
        (word_sum_norm_pow, GEN_Q, [[[15, 10], [-3, 30]]], general_norm_pow),
    ],
    ids=["hermitian", "series", "constant-term", "words"],
)
def test_constant_term_route_scales_exact_input_to_plain_ints(monkeypatch, route, Z, ints, reference):
    spec = DistributionSpec.exponential()
    want = reference(Z, spec, 4)
    seen = _spy_on_evaluated_matrix(monkeypatch, route)
    value = route(Z, spec, 4)
    assert value == want and type(value) is Fraction
    # one int stack: L Z, or the constant-term route's points L Z + u (L Z)^T
    assert len(seen) == 1 and seen[0].dtype == object
    assert all(type(v) is int for v in seen[0].flat)
    assert seen[0].tolist() == ints


@pytest.mark.parametrize(
    "route", [hermitian_norm_pow, series_norm_pow, general_norm_pow, word_sum_norm_pow]
)
def test_float_route_scales_by_the_oracle_power_of_two(monkeypatch, route):
    from rvnorms import oracle
    from rvnorms.matrixcore import scale_exponent

    A = random_hermitian(stream(41), 3) * 37.0
    e = scale_exponent(A)
    assert 0.5 <= A.max_abs() * 2.0**-e < 1.0
    want = route(A, DistributionSpec.exponential(), 4)
    # every float route evaluates a stack of one
    seen = _spy_on_evaluated_matrix(monkeypatch, route)
    assert route(A, DistributionSpec.exponential(), 4) == want
    assert len(seen) == 1 and seen[0].shape == (1, 3, 3) and seen[0].dtype == complex
    assert Matrix(seen[0][0]) == A * 2.0**-e
    assert all(x * 2.0**e == y for x, y in zip(seen[0].flat, A.array.flat))

    eig_inputs = []
    real_eig = oracle.hermitian_eigenvalues
    monkeypatch.setattr(oracle, "hermitian_eigenvalues", lambda M: eig_inputs.append(M) or real_eig(M))
    oracle.mc_norm(A, DistributionSpec.exponential(), 4, 10**4, seed=3)
    assert eig_inputs == [A * 2.0**-e]
