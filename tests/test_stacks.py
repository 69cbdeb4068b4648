"""The float routes on matrix stacks: norm axioms at the degrees and sizes
the suites' grids leave out, agreement with the exact kernel and with a
stack of one, the law axis (one law per matrix), the series and trace-word
oracles on stacks, and the suites' block evaluation across (family,
degree) cells."""

import inspect
import json
import math
import warnings
from fractions import Fraction
from pathlib import Path

import numpy as np
import pytest

from rvnorms import cli, normengine, suites
from rvnorms.cumulants import DistributionSpec, distribution_cumulants, parse_distribution
from rvnorms.errors import NonHermitianError, PreconditionError
from rvnorms.matrixcore import Matrix, scale_exponent
from rvnorms.normengine import (
    circle_extension_check,
    general_norm_pow,
    general_norm_pow_stack,
    hermitian_norm_pow,
    hermitian_norm_pow_stack,
    series_norm_pow,
    series_norm_pow_stack,
    symbolic_formula,
    word_sum_norm_pow,
    word_sum_norm_pow_stack,
)
from rvnorms.scalars import real_part_checked
from rvnorms.suites import default_family_specs, mgf_family_specs, stream
from rvnorms.words import word_table

from oracles import block_size, evaluate, series_exp_coefficient

STACK_ROUTES = {"hermitian": hermitian_norm_pow_stack, "general": general_norm_pow_stack}
# oracle: (stack route, single-matrix route, kind of matrix it takes)
ORACLE_STACKS = {
    "series": (series_norm_pow_stack, series_norm_pow, "hermitian"),
    "words": (word_sum_norm_pow_stack, word_sum_norm_pow, "general"),
}


def random_stack(rng, kind, count, n):
    g = rng.normal(size=(count, n, n)) + 1j * rng.normal(size=(count, n, n))
    return (g + g.conj().swapaxes(1, 2)) * 0.5 if kind == "hermitian" else g


@pytest.mark.parametrize("kind", ["hermitian", "general"])
@pytest.mark.parametrize("n", [6, 8])
@pytest.mark.parametrize("d", [6, 8, 10, 12])
def test_axioms_on_stacks(kind, n, d):
    # The axioms suite's checks and tolerances, at degrees and sizes
    # beyond its grid (d = 2, 4 on 4x4), for every family.
    rng = stream(7000 + 100 * d + n)
    route = STACK_ROUTES[kind]
    pairs = 8
    for name, spec in default_family_specs():
        A, B = random_stack(rng, kind, pairs, n), random_stack(rng, kind, pairs, n)
        c = rng.uniform(-2.0, 2.0, size=pairs)
        if kind == "general":
            c = c + 1j * rng.uniform(-2.0, 2.0, size=pairs)
        pows = route(np.concatenate([A, B, A + B, A * c[:, None, None]]), spec, d)
        nA, nB, nAB, nCA = (pows ** (1.0 / d)).reshape(4, pairs)
        assert (nA > 0).all(), (name, d, n)
        assert (nAB <= nA + nB + 1e-9 * np.maximum(1.0, nA + nB)).all(), (name, d, n)
        scaled = np.abs(c) * nA
        assert (np.abs(nCA - scaled) <= 1e-12 * np.maximum(1.0, scaled)).all(), (name, d, n)


# Laws whose cumulant expansion adds terms of one sign on these inputs, so
# that the float value keeps its digits (ROADMAP item 1 covers the rest).
STABLE_LAWS = [
    DistributionSpec.gamma(2, Fraction(1, 2)),
    DistributionSpec.exponential(),
    DistributionSpec.normal(Fraction(1, 2), 1),
    DistributionSpec.laplace(Fraction(1, 3), 1),
    DistributionSpec.poisson(Fraction(3, 2)),
]


def dyadic(M):
    """The float matrix M exactly, as the dyadic rationals its entries are."""
    return Matrix([[Fraction(float(v)) for v in row] for row in M.real])


@pytest.mark.parametrize("spec", STABLE_LAWS, ids=lambda s: s.family)
def test_stack_values_match_the_exact_kernel_on_dyadic_entries(spec):
    rng = stream(7100)
    for d in range(2, 13, 2):
        for n in (3, 5):
            H = random_stack(rng, "hermitian", 3, n).real
            G = rng.normal(size=(3, n, n))
            for route, exact, stack in (
                (hermitian_norm_pow_stack, hermitian_norm_pow, H),
                (general_norm_pow_stack, general_norm_pow, G),
            ):
                values = route(stack, spec, d)
                for M, value in zip(stack, values):
                    want = exact(dyadic(M), spec, d)
                    assert type(want) is Fraction
                    assert abs(value - float(want)) <= 1e-12 * float(want), (spec.family, d, n)


@pytest.mark.parametrize("kind", ["hermitian", "general"])
def test_each_row_matches_a_stack_of_one(kind):
    rng = stream(7200)
    route = STACK_ROUTES[kind]
    for name, spec in default_family_specs():
        for d in (2, 4, 8):
            stack = random_stack(rng, kind, 5, 4) * rng.uniform(0.1, 10.0, size=(5, 1, 1))
            values = route(stack, spec, d)
            for M, value in zip(stack, values):
                one = route(M[None], spec, d)[0]
                assert abs(value - one) <= 1e-13 * abs(one), (name, d)


def test_single_matrix_routes_are_a_stack_of_one():
    rng = stream(7300)
    spec = DistributionSpec.gamma(2, Fraction(1, 2))
    H = random_stack(rng, "hermitian", 1, 4)
    Z = random_stack(rng, "general", 1, 4)
    assert hermitian_norm_pow(Matrix(H[0]), spec, 6) == hermitian_norm_pow_stack(H, spec, 6)[0]
    assert general_norm_pow(Matrix(Z[0]), spec, 6) == general_norm_pow_stack(Z, spec, 6)[0]


def test_general_route_gives_hermitian_rows_their_hermitian_value():
    # Hermitian rows interleaved with general ones, under one law and under
    # a law per row: the constant-term route takes a Hermitian row as its
    # one point, so its value is the Hermitian route's, bit for bit.
    rng = stream(7350)
    laws = [spec for _, spec in default_family_specs()]
    H, G = random_stack(rng, "hermitian", 4, 5), random_stack(rng, "general", 4, 5)
    stack = np.stack([H[0], G[0], G[1], H[1], H[2], G[2], H[3], G[3]])
    hermitian = [0, 3, 4, 6]
    for d in (2, 4, 8, 12):
        row_laws = [laws[i] for i in rng.integers(0, len(laws), size=len(stack))]
        for spec in (DistributionSpec.exponential(), row_laws):
            herm_laws = [row_laws[i] for i in hermitian] if spec is row_laws else spec
            values = general_norm_pow_stack(stack, spec, d)
            want = hermitian_norm_pow_stack(stack[hermitian], herm_laws, d)
            assert values[hermitian].tolist() == want.tolist(), d


def test_stack_refusals():
    spec = DistributionSpec.exponential()
    H = random_stack(stream(7400), "hermitian", 3, 3)
    bad = H.copy()
    bad[1, 0, 1] += 1e-6
    with pytest.raises(NonHermitianError):
        hermitian_norm_pow_stack(bad, spec, 4)
    bad[1, 0, 1] = np.inf
    with pytest.raises(ValueError):
        general_norm_pow_stack(bad, spec, 4)
    with pytest.raises(ValueError):
        hermitian_norm_pow_stack(H[0], spec, 4)
    with pytest.raises(ValueError, match="got list"):
        general_norm_pow_stack([H[:2], H[2:]], spec, 4)
    with pytest.raises(PreconditionError):
        hermitian_norm_pow_stack(H, spec, 3)
    # each matrix has its own scale; one power below the float range is refused
    tiny = np.array([np.eye(2), np.eye(2) * 1e-200])
    assert hermitian_norm_pow_stack(tiny[:1], spec, 4)[0] == hermitian_norm_pow(Matrix.identity(2), spec, 4)
    with pytest.raises(PreconditionError, match="outside float range"):
        hermitian_norm_pow_stack(tiny, spec, 4)


def test_circle_check_evaluates_one_stack(monkeypatch):
    calls = []
    real = normengine.hermitian_norm_pow_stack

    def spy(M, spec, d):
        calls.append(len(M))
        return real(M, spec, d)

    monkeypatch.setattr(normengine, "hermitian_norm_pow_stack", spy)
    Z = Matrix([[1, Fraction(2, 3)], [Fraction(-1, 5), 2]])
    quad, alg = circle_extension_check(Z, DistributionSpec.exponential(), 6)
    assert calls == [14]
    assert abs(quad - float(alg)) <= 1e-9 * float(alg)


@pytest.mark.parametrize("kind", ["hermitian", "general"])
def test_mixed_law_stack_rows_equal_each_matrix_alone(kind):
    # Every default family in one stack, the normal law's m = 2 among laws
    # with m = d: each row is bit for bit its value alone under its law.
    rng = stream(7500)
    route = STACK_ROUTES[kind]
    laws = [spec for _, spec in default_family_specs()]
    assert "normal" in {spec.family for spec in laws}
    for d in range(2, 13, 2):
        for n in (2, 4):
            count = 2 * len(laws)
            row_laws = [laws[i % len(laws)] for i in rng.permutation(count)]
            stack = random_stack(rng, kind, count, n) * rng.uniform(0.1, 10.0, size=(count, 1, 1))
            values = route(stack, row_laws, d)
            for M, spec, value in zip(stack, row_laws, values):
                assert value == route(M[None], spec, d)[0], (spec.family, d, n)


def test_law_sequence_of_the_wrong_length_raises():
    spec = DistributionSpec.exponential()
    H = random_stack(stream(7600), "hermitian", 3, 3)
    for route in STACK_ROUTES.values():
        with pytest.raises(ValueError, match="2 laws for a stack of 3"):
            route(H, [spec, spec], 4)


@pytest.mark.parametrize(
    "route",
    [hermitian_norm_pow_stack, series_norm_pow_stack, word_sum_norm_pow_stack, general_norm_pow_stack],
    ids=lambda route: route.__name__,
)
def test_empty_stack_gives_an_empty_float_array(route):
    spec = DistributionSpec.gamma(2, Fraction(1, 2))
    for laws in (spec, []):
        values = route(np.zeros((0, 2, 2)), laws, 4)
        assert values.shape == (0,) and values.dtype == float


ALL_STACK_ROUTES = {
    "hermitian": (hermitian_norm_pow_stack, ("hermitian",), default_family_specs),
    "series": (series_norm_pow_stack, ("hermitian",), mgf_family_specs),
    "words": (word_sum_norm_pow_stack, ("hermitian", "general"), default_family_specs),
    "general": (general_norm_pow_stack, ("hermitian", "general"), default_family_specs),
}


@pytest.mark.parametrize("name", list(ALL_STACK_ROUTES))
def test_zero_padded_matrix_has_its_block_norm(name):
    # diag(B, 0) has the word traces of B, so its norm power is B's: sizes
    # 1 to 5 padded to 6 in one stack against each size's own stack, under
    # one law for all rows and under a law per row.
    route, kinds, families = ALL_STACK_ROUTES[name]
    rng = stream(7250)
    laws = [spec for _, spec in families()]
    sizes = np.repeat(np.arange(1, 6), 3)
    for kind in kinds:
        blocks = [random_stack(rng, kind, 1, n)[0] * rng.uniform(0.1, 10.0) for n in sizes]
        padded = np.zeros((len(sizes), 6, 6), dtype=complex)
        for P, B in zip(padded, blocks):
            P[: len(B), : len(B)] = B
        for d in (2, 4, 6):
            row_laws = [laws[i] for i in rng.integers(0, len(laws), size=len(sizes))]
            for spec in (laws[int(rng.integers(0, len(laws)))], row_laws):
                specs = row_laws if spec is row_laws else [spec] * len(sizes)
                values = route(padded, spec, d)
                for n in range(1, 6):
                    at = np.flatnonzero(sizes == n)
                    want = route(np.stack([blocks[i] for i in at]), [specs[i] for i in at], d)
                    assert np.allclose(values[at], want, rtol=1e-13, atol=0), (kind, d, n)


def test_paths_calls_each_route_at_most_once_per_degree(monkeypatch):
    counts: dict = {}
    for name in ("hermitian_norm_pow_stack", "series_norm_pow_stack", "word_sum_norm_pow_stack"):
        real = getattr(suites, name)

        def count(M, spec, d, real=real, name=name):
            counts[name, d] = counts.get((name, d), 0) + 1
            return real(M, spec, d)

        monkeypatch.setattr(suites, name, count)
    for seed in range(6):
        counts.clear()
        assert suites.paths_suite(1, seed).passed
        assert len(counts) == 9 and set(counts.values()) == {1}, (seed, counts)


def _spy_stack_calls(monkeypatch, names=("hermitian_norm_pow_stack", "general_norm_pow_stack")):
    """Record (route name, stack, laws, d, values) for each call the suites
    make to the stack routes ``names``."""
    calls = []
    for name in names:
        real = getattr(suites, name)

        def spy(M, spec, d, real=real, name=name):
            values = real(M, spec, d)
            calls.append((name, M, spec, d, values))
            return values

        monkeypatch.setattr(suites, name, spy)
    return calls


def test_paths_partition_values_equal_the_single_matrix_route(monkeypatch):
    calls = _spy_stack_calls(monkeypatch)
    report = suites.paths_suite(trials=2, seed=33)
    assert report.passed
    rows = [
        (M, spec, d, v) for _, stack, laws, d, values in calls for M, spec, v in zip(stack, laws, values)
    ]
    assert len(rows) == report.checks // 2
    for M, spec, d, value in rows:
        assert value == hermitian_norm_pow(Matrix(M), spec, d), (spec.family, d, len(M))


@pytest.mark.parametrize("trials", [1, 3])
def test_paths_makes_one_call_per_route_and_degree(monkeypatch, trials):
    # At 1 and 3 trials all 27 (family, degree) cells form one run: each
    # route gets one stack per degree, of 5x5 matrices whose blocks have
    # every size, the same matrices in the same order, and each row is its
    # matrix's value alone.
    routes = ("hermitian_norm_pow_stack", "series_norm_pow_stack", "word_sum_norm_pow_stack")
    calls = _spy_stack_calls(monkeypatch, routes)
    report = suites.paths_suite(trials=trials, seed=35)
    assert report.passed and report.checks == 54 * trials
    by_route = {name: [(d, M, laws) for r, M, laws, d, _ in calls if r == name] for name in routes}
    assert [d for d, _, _ in by_route[routes[0]]] == [2, 4, 6]
    assert {block_size(R) for _, M, _ in by_route[routes[0]] for R in M} == {2, 3, 4, 5}
    assert sum(len(M) for _, M, _ in by_route[routes[0]]) == 27 * trials
    for name in routes[1:]:
        assert [d for d, _, _ in by_route[name]] == [2, 4, 6]
        for (d, M, laws), (_, M0, laws0) in zip(by_route[name], by_route[routes[0]]):
            assert len(M) == len(M0) and laws == laws0
            assert all(np.array_equal(R, R0) for R, R0 in zip(M, M0))
    single = dict(zip(routes[1:], (series_norm_pow, word_sum_norm_pow)))
    for name, stack, laws, d, values in calls:
        if name in single:
            for M, spec, v in zip(stack, laws, values):
                assert v == single[name](Matrix(M), spec, d), (name, spec.family, d)


@pytest.mark.parametrize("oracle", ["series", "words"])
def test_mixed_law_oracle_stack_rows_equal_each_matrix_alone(oracle):
    # Every family with a moment generating function in one stack, the
    # normal law's zero cumulants among nonzero ones: each row is bit for
    # bit its value alone under its law, by the stack and by the
    # single-matrix route.
    route, single, kind = ORACLE_STACKS[oracle]
    rng = stream(7700)
    laws = [spec for _, spec in mgf_family_specs()]
    assert "normal" in {spec.family for spec in laws}
    for d in range(2, 9, 2):
        for n in (2, 3, 5):
            count = 2 * len(laws)
            row_laws = [laws[i % len(laws)] for i in rng.permutation(count)]
            scales = rng.uniform(0.1, 10.0, size=(count, 1, 1))
            stack = random_stack(rng, kind, count, n) * scales
            values = route(stack, row_laws, d)
            for M, spec, value in zip(stack, row_laws, values):
                assert value == route(M[None], spec, d)[0], (spec.family, d, n)
                assert value == single(Matrix(M), spec, d), (spec.family, d, n)


def test_float_word_sum_is_the_formula_evaluated_at_the_scaled_matrix():
    # The stack's term products and sums reproduce the term-by-term
    # evaluation of the printed formula bit for bit.
    rng = stream(7800)
    for name, spec in default_family_specs():
        for d in (2, 4, 6, 8):
            Z = Matrix(random_stack(rng, "general", 1, 4)[0] * 37.0)
            e = scale_exponent(Z)
            poly = symbolic_formula(distribution_cumulants(spec, d), d)
            want = math.ldexp(real_part_checked(evaluate(poly, Z * 2.0**-e)), d * e)
            assert word_sum_norm_pow(Z, spec, d) == want, (name, d)


def _support(spec, d):
    kappas = distribution_cumulants(spec, d).kappas
    return frozenset(k for k, kappa in enumerate(kappas, 1) if kappa != 0)


@pytest.mark.parametrize(
    "law, terms, terms_up_to_top",
    [
        ("uniform:a=-1,b=3/2", 10148, 35492),
        ("rademacher", 4446, 35492),
        ("laplace:mu=0,beta=1", 4446, 35492),
        ("normal:mu=0,sigma=1", 5, 85),
        ("exponential", 35492, 35492),
    ],
)
def test_word_table_keeps_the_partitions_of_the_law_support(law, terms, terms_up_to_top):
    # At d=16 the table holds only the partitions whose parts are all
    # indices of nonzero cumulants, not every partition with parts up to
    # the top one.
    support = _support(parse_distribution(law), 16)
    assert len(word_table(16, support).mults) == terms
    assert len(word_table(16, frozenset(range(1, max(support) + 1))).mults) == terms_up_to_top


def test_word_sum_over_the_support_equals_the_sum_up_to_the_top_cumulant(monkeypatch):
    # The partitions the support leaves out have kappa_pi = 0 under every
    # law of the stack: over every partition with parts up to the top
    # cumulant, single and mixed-law stacks get the same values, == on
    # exact input and bit for bit on float input.
    laws = [
        parse_distribution(law)
        for law in (
            "uniform:a=-1,b=3/2", "rademacher", "laplace:mu=0,beta=1", "normal:mu=0,sigma=1",
            "normal:mu=1/2,sigma=1/3", "exponential", "bernoulli:q=1/3", "normal:mu=0,sigma=0.7",
            "uniform:a=-0.5,b=0.5",
        )
    ]
    rng = stream(8000)
    cases = []
    for d in range(2, 13, 2):
        for i, spec in enumerate(laws):
            stack = random_stack(rng, "general", 3, 3)
            mixed = [spec, laws[(i + 1) % len(laws)], laws[(i + 3) % len(laws)]]
            cases += [(stack, spec, d), (stack, mixed, d)]
            if d <= 10:
                entries = rng.integers(-5, 6, size=(2, 2)).tolist()
                exact = Matrix([[Fraction(v, 3) for v in row] for row in entries])
                cases.append((exact, spec, d))

    def values():
        normengine._term_coefficients.cache_clear()  # cached per table
        return [word_sum_norm_pow_stack(Z, spec, d) for Z, spec, d in cases]

    want = values()
    table = normengine.word_table
    up_to_top = lambda d, support: table(d, frozenset(range(1, max(support) + 1)))  # noqa: E731
    monkeypatch.setattr(normengine, "word_table", up_to_top)
    try:
        got = values()
    finally:
        normengine._term_coefficients.cache_clear()
    for (Z, spec, d), a, b in zip(cases, want, got):
        assert a.dtype == b.dtype and np.array_equal(a, b), d


FLOAT_BITS = json.loads((Path(__file__).parent / "fixtures" / "float_stack_hex.json").read_text())
PINNED_LAWS = (
    "exponential",
    "gamma:alpha=7/4,beta=3/4",
    "normal:mu=1/2,sigma=1",
    "uniform:a=-1,b=3/2",
    "poisson:alpha=9/4",
    "bernoulli:q=2/7",
)


def pinned_float_cases():
    """{name: (route, stack, laws, d)}: a seeded complex 8x8 stack of 6 rows
    at d=8 and one of 40 complex 4x4 rows at d=2 and d=4, under a law per
    row, on the constant-term route, and their Hermitian parts Z + Z* on
    the Hermitian and series routes.  Row 1 of the 4x4 stack equals its
    adjoint, so that that stack mixes one-point and q-point rows."""
    rng = np.random.default_rng(2025)
    cases = {}
    for N, n, degrees in ((6, 8, (8,)), (40, 4, (2, 4))):
        Z = rng.normal(size=(N, n, n)) + 1j * rng.normal(size=(N, n, n))
        H = Z + np.conjugate(Z).swapaxes(1, 2)
        if N == 40:
            Z[1] = H[1]
        laws = [parse_distribution(PINNED_LAWS[i % len(PINNED_LAWS)]) for i in range(N)]
        for d in degrees:
            for name, route, S in (
                ("general", general_norm_pow_stack, Z),
                ("hermitian", hermitian_norm_pow_stack, H),
                ("series", series_norm_pow_stack, H),
            ):
                cases[f"{name} {N}x{n}x{n} d={d}"] = (route, S, laws, d)
    return cases


@pytest.mark.parametrize("name", sorted(FLOAT_BITS))
def test_float_stack_values_keep_their_bits(name):
    # float.hex of every value, recorded at the commit before the exact
    # constant-term route moved to plain ints with its setup cached: the
    # float arithmetic of the three point routes is unchanged, bit for bit
    route, S, laws, d = pinned_float_cases()[name]
    assert [v.hex() for v in route(S, laws, d).tolist()] == FLOAT_BITS[name]


@pytest.mark.parametrize("d", range(2, 42, 2))
def test_series_stack_equals_the_per_row_exp(d):
    # The float stack's batched recurrence against the plain loop row by
    # row, on the same coefficients, under mixed laws: normal's cumulants
    # above 2 are 0, so its rows skip terms the others add.
    rng = stream(8100 + d)
    specs = [spec for _, spec in mgf_family_specs()]
    H = random_stack(rng, "hermitian", 24, 4) * rng.uniform(0.1, 4.0, size=(24, 1, 1))
    laws = [specs[i] for i in rng.integers(0, len(specs), size=24)]
    S, scale, cvs, rows = normengine._prepared(H, laws, d, hermitian=True)
    c, m, _ = normengine._factors(cvs, rows)
    a = (normengine._trace_power_stack(S, m) * c).tolist()
    per_row = [series_exp_coefficient(r, d) for r in a]
    want = normengine._rescaled(per_row, scale, d)
    got = series_norm_pow_stack(H, laws, d)
    assert got.tolist() == want.tolist()
    assert got.tobytes() == want.tobytes()  # the signs of zeros too


def test_series_stack_overflow_is_the_per_row_inf():
    # The second row's series overflows to inf; its law's kappa_1 is 0, and
    # the term the recurrence skips there must not turn 0 * inf into nan,
    # or warn.
    H = np.array([np.diag([1.0, -2.0]), np.diag([3.0, 1.0])], dtype=complex)
    laws = [DistributionSpec.exponential(), DistributionSpec.normal(0, 10**30)]
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(PreconditionError, match="normalized value inf times"):
            series_norm_pow_stack(H, laws, 40)


def test_series_stack_refusals():
    spec = DistributionSpec.exponential()
    H = random_stack(stream(7900), "hermitian", 3, 3)
    pareto = DistributionSpec.pareto(Fraction(25, 2))
    with pytest.raises(PreconditionError, match="pareto admits no moment generating function"):
        series_norm_pow_stack(H, [spec, pareto, spec], 4)
    bad = H.copy()
    bad[1, 0, 1] += 1e-6
    with pytest.raises(NonHermitianError):
        series_norm_pow_stack(bad, spec, 4)


@pytest.mark.parametrize("oracle", ["series", "words"])
def test_oracle_stack_refuses_a_row_outside_float_range(oracle):
    route, single, _ = ORACLE_STACKS[oracle]
    spec = DistributionSpec.exponential()
    tiny = np.array([np.eye(2), np.eye(2) * 1e-200])
    assert route(tiny[:1], spec, 4)[0] == single(Matrix(tiny[0]), spec, 4)
    with pytest.raises(PreconditionError, match="outside float range"):
        route(tiny, spec, 4)


@pytest.mark.parametrize(
    "suite, trials, stacks", [("axioms", 1, 4), ("schur", 4, 2), ("axioms", 30, 28)]
)
def test_suites_merge_families_into_one_stack_per_degree(monkeypatch, suite, trials, stacks):
    # axioms at one trial: 20 (family, degree) cells, one Hermitian and one
    # general stack per degree; at 30 trials, runs of three cells (90
    # trials) and one of two; no stack holds more than STACK_TRIALS trials.
    calls = _spy_stack_calls(monkeypatch)
    suites.SUITES[suite](trials=trials, seed=34)
    assert len(calls) == stacks
    per_trial = 4 if suite == "axioms" else 2
    assert max(len(M) for _, M, _, _, _ in calls) <= per_trial * suites.STACK_TRIALS


@pytest.mark.parametrize("block", [1, 3, 100])
@pytest.mark.parametrize("suite", ["axioms", "schur", "khintchine", "paths"])
def test_reports_do_not_depend_on_the_block_size(monkeypatch, suite, block):
    # With STACK_TRIALS equal to the trial count, each (family, degree)
    # cell is one stack; 1 and 3 split cells, and 100 merges cells.
    fn = suites.SUITES[suite]
    monkeypatch.setattr(suites, "STACK_TRIALS", 7)
    want = fn(trials=7, seed=31).to_json()
    assert want["failures"] == [] and want["checks"] > 0
    monkeypatch.setattr(suites, "STACK_TRIALS", block)
    assert fn(trials=7, seed=31).to_json() == want


def test_khintchine_stack_that_raises_is_checked_row_by_row(monkeypatch):
    want = suites.khintchine_suite(trials=4, seed=32).to_json()
    real_bounds, real_check = suites.khintchine_bounds, suites.khintchine_check

    def bounds(Z, p):
        if len(Z) > 1:
            raise ArithmeticError("stack refused")
        return real_bounds(Z, p)

    monkeypatch.setattr(suites, "khintchine_bounds", bounds)
    assert suites.khintchine_suite(trials=4, seed=32).to_json() == want

    rows = []

    def check(M, p):
        rows.append(M)
        if len(rows) == 2:
            raise ArithmeticError("row refused")
        return real_check(M, p)

    monkeypatch.setattr(suites, "khintchine_check", check)
    report = suites.khintchine_suite(trials=4, seed=32)
    assert report.checks == want["checks"] - 1  # no tightness check for the refused row
    assert report.failures == ["khintchine hermitian p=2 trial=1: row refused"]


def test_verify_trial_caps_cover_the_defaults():
    for name, fn in suites.SUITES.items():
        assert inspect.signature(fn).parameters["trials"].default <= cli.VERIFY_MAX_TRIALS[name]


@pytest.mark.parametrize("suite", ["all", "axioms", "paths"])
def test_verify_over_trial_cap_exit_3_before_work(monkeypatch, capsys, suite):
    def refuse(*args, **kwargs):
        raise AssertionError("work started")

    monkeypatch.setattr(cli, "run_suite", refuse)
    cap = min(cli.VERIFY_MAX_TRIALS.values()) if suite == "all" else cli.VERIFY_MAX_TRIALS[suite]
    rc = cli.main(["verify", "--suite", suite, "--trials", str(cap + 1)])
    captured = capsys.readouterr()
    assert rc == 3
    assert captured.out == ""
    assert f"limited to {cap} trials" in captured.err
