"""Property tests on random exact matrices (Hypothesis, derandomized).

The trace-word sum evaluates the polynomial that ``formula`` prints, with
neither the C_{k,j} matrices nor the Bell recurrence, so on exact input it
must equal the constant-term route exactly, and the Hermitian-mode
polynomial must equal the Hermitian kernel exactly.
"""

from fractions import Fraction

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
    a = poly.evaluate(A)
    b = hermitian_norm_pow(A, spec, d)
    assert a == b and type(a) is type(b), (name, d, a, b)
