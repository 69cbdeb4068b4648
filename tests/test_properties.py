"""Property tests on random exact matrices and points (Hypothesis,
derandomized).

The trace-word sum evaluates the polynomial that ``formula`` prints, with
neither the C_{k,j} matrices nor the Bell recurrence, so on exact input it
must equal the constant-term route exactly, and the Hermitian-mode
polynomial must equal the Hermitian kernel exactly.

Both forms of H_{d,alpha} run in ints on a scaled point; the oracles below
evaluate them in plain Fraction (or float) arithmetic at the point itself.
"""

from fractions import Fraction
from math import prod

from hypothesis import given, settings
from hypothesis import strategies as st

from rvnorms.cumulants import distribution_cumulants
from rvnorms.matrixcore import Matrix
from rvnorms.normengine import (
    general_norm_pow,
    hermitian_norm_pow,
    symbolic_formula,
    word_sum_norm_pow,
)
from rvnorms.suites import default_family_specs
from rvnorms.sympoly import chs_prefix, hunter_poly, hunter_poly_recursive, hunter_terms

from oracles import evaluate

rationals = st.builds(Fraction, st.integers(-6, 6), st.integers(1, 6))
families = st.sampled_from(default_family_specs())
degrees = st.sampled_from([2, 4, 6])
examples = settings(max_examples=150, deadline=None, derandomize=True, database=None)


@st.composite
def exact_matrices(draw, hermitian=False):
    n = draw(st.integers(2, 3))
    rows = [[draw(rationals) for _ in range(n)] for _ in range(n)]
    if hermitian:
        rows = [[rows[min(i, j)][max(i, j)] for j in range(n)] for i in range(n)]
    return Matrix(rows)


@examples
@given(Z=exact_matrices(), family=families, d=degrees)
def test_word_sum_equals_constant_term_route(Z, family, d):
    name, spec = family
    a = word_sum_norm_pow(Z, spec, d)
    b = general_norm_pow(Z, spec, d)
    assert a == b and type(a) is type(b), (name, d, a, b)


@examples
@given(A=exact_matrices(hermitian=True), family=families, d=degrees)
def test_hermitian_formula_evaluates_to_kernel(A, family, d):
    name, spec = family
    poly = symbolic_formula(distribution_cumulants(spec, d), d, hermitian_mode=True)
    a = evaluate(poly, A)
    b = hermitian_norm_pow(A, spec, d)
    assert a == b and type(a) is type(b), (name, d, a, b)


def expansion_hunter_poly(d, alpha, x):
    """H_{d,alpha}(x) by the partition expansion, evaluated at x unscaled."""
    h = chs_prefix(d, x)
    total = 0
    for p, c in hunter_terms(d, alpha):
        total = total + c * prod((h[part] for part in p.parts), start=1)
    return total


def convolution_hunter_poly(d, alpha, x):
    """H_{d,alpha}(x) as [t^d] of (sum_l h_l t^l)^alpha by alpha - 1 series
    convolutions, evaluated at x unscaled."""
    h = chs_prefix(d, x)
    level = h[:]  # alpha = 1
    for _ in range(alpha - 1):
        level = [sum(h[i] * level[ell - i] for i in range(ell + 1)) for ell in range(d + 1)]
    return level[d]


coordinates = st.one_of(
    st.just(0),
    st.integers(-20, 20),
    st.builds(Fraction, st.integers(-(10**6), 10**6), st.integers(1, 10**6)),
)
# |x_i| >= 1e-3 keeps every H_{d,alpha}(|x|) with d <= 12 far above the
# subnormal range, where a relative tolerance means nothing
float_coordinates = st.one_of(st.just(0.0), st.floats(1e-3, 10), st.floats(-10, -1e-3))
hunter_degrees = st.integers(0, 12)
hunter_alphas = st.integers(1, 6)
hunter_examples = settings(max_examples=200, deadline=None, derandomize=True, database=None)


@hunter_examples
@given(x=st.lists(coordinates, min_size=1, max_size=4), d=hunter_degrees, alpha=hunter_alphas)
def test_hunter_forms_equal_fraction_oracle(x, d, alpha):
    want = convolution_hunter_poly(d, alpha, x)
    assert expansion_hunter_poly(d, alpha, x) == want
    for got in (hunter_poly(d, alpha, x), hunter_poly_recursive(d, alpha, x)):
        assert got == want and type(got) is type(want), (x, d, alpha, got, want)


@hunter_examples
@given(
    x=st.lists(float_coordinates, min_size=1, max_size=4),
    d=hunter_degrees,
    alpha=hunter_alphas,
)
def test_hunter_forms_on_float_points_agree_with_oracle(x, d, alpha):
    want = convolution_hunter_poly(d, alpha, x)
    # H(|x|) bounds |H(x)| and sets the size of the terms either form adds
    tol = 1e-12 * convolution_hunter_poly(d, alpha, [abs(v) for v in x])
    for got in (hunter_poly(d, alpha, x), hunter_poly_recursive(d, alpha, x)):
        assert type(got) is type(want) and abs(got - want) <= tol, (x, d, alpha, got, want)
