"""Independent routes and helpers that only the tests use.

The closed normal form, the Pareto multinomial expansion and the
Bernoulli monomial-symmetric sum are oracles for the cumulant routes;
the brute-force monomial sum, power sums, monomial symmetric polynomials
and the CHS power-sum identity are oracles for ``sympoly``;
``kappa_product``, ``frobenius_norm``, ``trace_powers`` and
``trace_of_product`` are the plain definitions;
``evaluate`` evaluates a printed trace polynomial at a matrix term by term,
the reference for the trace-word route;
``bell_value`` (the complete Bell polynomial) and ``z_of`` (the
centralizer order) are the kernel's and the partition walk's plain forms,
and ``series_exp_coefficient`` the series route's float recurrence, one
series at a time; ``exact_div`` divides keeping exact operands exact;
``matrix_to_json`` writes the matrix file format;
``mc_norm_pow_one_shot`` is the Monte Carlo kernel with each block drawn
as one array and summed unscaled, the reference for the chunked one;
``random_unitary``, ``random_hermitian``, ``random_general`` and ``zeros``
build test inputs, and ``block_size`` reads the size of a ``paths`` trial.
"""

import itertools
import math
from fractions import Fraction
from math import factorial, prod

import numpy as np

from rvnorms.cumulants import CumulantVector
from rvnorms.errors import MomentExistenceError, NonHermitianError, PreconditionError
from rvnorms.matrixcore import Matrix, is_hermitian
from rvnorms.normengine import TracePolynomial, _bell, _require_even_degree
from rvnorms.oracle import McEstimate, _block_ranges, block_stream, sample_block
from rvnorms.partitions import Partition, enumerate_partitions
from rvnorms.scalars import is_exact, real_part_checked
from rvnorms.sympoly import chs
from rvnorms.words import word_plan, word_traces


def bell_value(ell: int, x):
    """Complete Bell polynomial B_ell(x_1..x_ell) = ell! * sum_pi x_pi / y_pi."""
    if ell < 0:
        raise ValueError("ell must be nonnegative")
    x = list(x)
    if len(x) < ell:
        raise PreconditionError(f"B_{ell} needs {ell} arguments, got {len(x)}")
    return _bell([x[:ell]], ell, [1] * (ell + 1), range(1, ell + 1))[0][0]


def exact_div(num, den):
    """num / den, a Fraction when both are exact (int or Fraction)."""
    if is_exact(num) and is_exact(den):
        return Fraction(num) / den
    return num / den


def series_exp_coefficient(f, d: int):
    """[t^d] exp(sum_j f[j-1] t^j) by the derivative recurrence g' = f' g,

        k g_k = sum_{j=1}^{k} j f_j g_{k-j},   g_0 = 1,

    each sum from 0 over ascending j, a term whose f_j is 0 skipped (f_j = 0
    above len(f)): exact on exact f, and on float f the bits that the float
    series route gives each row (``normengine._exp_stack``)."""
    f = list(f) + [0] * (d - len(f))
    g = [1] + [0] * d
    for k in range(1, d + 1):
        acc = 0
        for j in range(1, k + 1):
            if f[j - 1] != 0:
                acc = acc + j * f[j - 1] * g[k - j]
        g[k] = exact_div(acc, k)
    return g[d]


def z_of(p: Partition) -> int:
    """Weight prod_i i^{m_i} * m_i!, the cycle-type centralizer order."""
    return prod(i**m * factorial(m) for i, m in p.multiplicities.items())


def _entry_to_json(v):
    if isinstance(v, int):
        return v
    if isinstance(v, Fraction):
        return v.numerator if v.denominator == 1 else f"{v.numerator}/{v.denominator}"
    return float(v)


def matrix_to_json(Z: Matrix) -> dict:
    """The matrix file document of Z, which ``load_matrix`` reads back."""
    rows = Z.array.tolist()
    re = [[_entry_to_json(v.real if isinstance(v, complex) else v) for v in r] for r in rows]
    im = [[float(v.imag) if isinstance(v, complex) else 0 for v in r] for r in rows]
    return {"n": Z.n, "re": re, "im": im}


def zeros(n: int) -> Matrix:
    return Matrix([[0] * n for _ in range(n)])


def _complex_normal(rng: np.random.Generator, n: int) -> np.ndarray:
    return rng.normal(size=(n, n)) + 1j * rng.normal(size=(n, n))


def random_hermitian(rng: np.random.Generator, n: int) -> Matrix:
    """(G + G*) / 2 for G drawn as :func:`random_general` draws it."""
    g = _complex_normal(rng, n)
    return Matrix((g + g.conj().T) * 0.5)


def random_general(rng: np.random.Generator, n: int) -> Matrix:
    """X + iY with X, then Y, an n x n array of standard normals from
    ``rng``."""
    return Matrix(_complex_normal(rng, n))


def block_size(M: np.ndarray) -> int:
    """The size n of a ``paths`` suite matrix, asserted 5x5, exactly
    Hermitian and 0 outside its leading n x n block."""
    assert M.shape == (5, 5) and np.array_equal(M, M.conj().T)
    n = 1 + int(np.flatnonzero(M.any(axis=0)).max())
    assert not M[n:].any() and not M[:, n:].any()
    return n


def random_unitary(rng: np.random.Generator, n: int) -> Matrix:
    """A unitary built as a product of n Householder reflections."""
    U = np.eye(n, dtype=complex)
    for _ in range(n):
        v = rng.normal(size=n) + 1j * rng.normal(size=n)
        v /= np.linalg.norm(v)
        U = U - 2.0 * np.outer(U @ v, v.conj())
    return Matrix(U)


def normal_norm_pow_closed(A: Matrix, mu, sigma, d: int):
    """Closed form of the norm power for normal(mu, sigma) entries:

        sum_{k=0}^{d/2} mu^{2k} (tr A)^{2k} / (2k)!
                        * sigma^{d-2k} (tr A^2)^{d/2-k} / (2^{d/2-k} (d/2-k)!)

    using tr(A^2) = ||A||_F^2 on Hermitian input.
    """
    _require_even_degree(d)
    if not is_hermitian(A):
        raise NonHermitianError("closed normal form requires a Hermitian matrix")
    tp = trace_powers(A, 2)
    tr1 = real_part_checked(tp[0])
    tr2 = real_part_checked(tp[1])
    half = d // 2
    total = 0
    for k in range(half + 1):
        num = mu ** (2 * k) * tr1 ** (2 * k) * sigma ** (d - 2 * k) * tr2 ** (half - k)
        total = total + exact_div(num, factorial(2 * k) * 2 ** (half - k) * factorial(half - k))
    return total


def _compositions(total: int, slots: int):
    if slots == 1:
        yield (total,)
        return
    for first in range(total + 1):
        for rest in _compositions(total - first, slots - 1):
            yield (first,) + rest


def pareto_norm_pow_multinomial(lambdas, alpha, d: int):
    """Norm power for Pareto(alpha) entries on diag(lambdas) by the raw
    multinomial expansion of E<X, lambda>^d / d!, using mu_k = alpha/(alpha-k).

    Exists only for d < alpha.  It avoids the cumulant recursion entirely.
    """
    _require_even_degree(d)
    if not d < alpha:
        raise MomentExistenceError(
            f"pareto(alpha={alpha}) has moments only below alpha; degree {d} requested"
        )
    lambdas = list(lambdas)
    exact = isinstance(alpha, (int, Fraction))
    mu = [1] + [
        (Fraction(alpha) / (alpha - k)) if exact else alpha / (alpha - k)
        for k in range(1, d + 1)
    ]
    total = 0
    for ks in _compositions(d, len(lambdas)):
        weight = factorial(d)
        for k in ks:
            weight //= factorial(k)
        term = weight
        for lam, k in zip(lambdas, ks):
            if k:
                term = term * lam**k * mu[k]
        total = total + term
    return exact_div(total, factorial(d))


def chs_monomial_sum(d: int, x) -> object:
    """Brute-force h_d via combinations with repetition."""
    x = list(x)
    total = 0
    for combo in itertools.combinations_with_replacement(range(len(x)), d):
        total = total + prod((x[i] for i in combo), start=1)
    return total


def power_sum_product(p: Partition, x) -> object:
    """p_pi(x) = product over parts of sum_i x_i^part."""
    x = list(x)
    return prod((sum(xi**part for xi in x) for part in p.parts), start=1)


def monomial_sym(p: Partition, x) -> object:
    """Monomial symmetric polynomial m_pi(x): one term per distinct way of
    assigning the parts as exponents to distinct variables.

    Zero when the partition has more parts than there are variables.
    """
    x = list(x)
    n = len(x)
    if p.num_parts > n:
        return 0
    values = sorted(p.multiplicities.items())  # (part value, multiplicity)
    total = 0

    def assign(vi: int, free: tuple[int, ...], acc) -> None:
        nonlocal total
        if vi == len(values):
            total = total + acc
            return
        value, mult = values[vi]
        for chosen in itertools.combinations(free, mult):
            rest = tuple(i for i in free if i not in chosen)
            term = acc
            for i in chosen:
                term = term * x[i] ** value
            assign(vi + 1, rest, term)

    assign(0, tuple(range(n)), 1)
    return total


def chs_powersum_identity_check(d: int, x) -> tuple:
    """Return (h_d(x), sum over partitions of p_pi(x)/z_pi); they agree."""
    if d % 2:
        raise PreconditionError("identity check is stated for even d")
    x = list(x)
    total = 0
    for p in enumerate_partitions(d):
        total = total + exact_div(power_sum_product(p, x), z_of(p))
    return chs(d, x), total


def bernoulli_norm_hermitian(lambdas, q, d: int) -> object:
    """Degree-d norm power for Bernoulli(q) entries on a diagonal matrix,
    via monomial symmetric polynomials:

        sum over partitions pi of d of  q^{|pi|} / prod_j (pi_j!) * m_pi(lambda).

    The coefficient comes from grouping the multinomial expansion of
    E<X, lambda>^d by exponent pattern: each pattern pi carries
    d!/prod(pi_j!) monomial weight and a factor q per occupied slot, and
    the overall 1/d! cancels the d!.  (Collapsing the coefficient to
    |pi|!/d! instead would undercount patterns with repeated parts, e.g.
    (2,2) at d=4 gives 1/4, not 1/12.)
    """
    if d % 2 or d < 2:
        raise PreconditionError("even d >= 2 required")
    if not 0 < q < 1:
        raise PreconditionError(f"q must lie in (0, 1), got {q!r}")
    lambdas = list(lambdas)
    total = 0
    for p in enumerate_partitions(d):
        m = monomial_sym(p, lambdas)
        if m == 0:
            continue
        coeff = exact_div(q ** p.num_parts, prod(factorial(part) for part in p.parts))
        total = total + coeff * m
    return total


def kappa_product(p: Partition, k: CumulantVector):
    """kappa_pi = product of kappa over the parts of the partition."""
    if p.parts and p.parts[0] > k.degree:
        raise PreconditionError(
            f"partition needs kappa_{p.parts[0]} but only degree {k.degree} is available"
        )
    return prod((k.kappas[i - 1] for i in p.parts), start=1)


def frobenius_norm(Z: Matrix) -> float:
    return float(np.linalg.norm(Z.to_numpy()))


def trace_of_product(A: Matrix, B: Matrix):
    """tr(AB) = sum_ij A_ij B_ji in O(n^2), without forming AB: a Python
    int or Fraction for exact input, a complex otherwise."""
    if A.n != B.n:
        raise ValueError("dimension mismatch")
    total = (A.array * B.array.T).sum()
    return total if is_exact(total) else complex(total)


def trace_powers(A: Matrix, d: int) -> list:
    """(tr A, tr A^2, ..., tr A^d) by iterated multiplication."""
    if d < 1:
        raise ValueError("d must be >= 1")
    out = [A.trace()]
    P = A
    for _ in range(d - 1):
        P = P @ A
        out.append(P.trace())
    return out


def evaluate(poly: TracePolynomial, Z: Matrix):
    """The trace polynomial at Z: the sum of coefficient times factor traces.

    A word's letters 'z' and 's' stand for Z and Z* (a Hermitian-mode word
    of k letters 'z' is tr(Z^k)).  The traces come from ``word_traces`` on
    Z's array.  Exact input gives an exact sum; otherwise each term is
    complex(coefficient) times its factor traces in turn, the real and
    imaginary parts are summed by ``math.fsum``, and the complex result may
    carry an imaginary roundoff residue for the caller to check.
    """
    plan = word_plan(tuple(sorted({w for key in poly.terms for w in key})))
    traces = dict(zip(plan.words, word_traces(Z.array[None], plan)[0].tolist()))
    coeffs = poly.terms.values()
    if not Z.is_exact():
        # complex(c) * t is the product that Fraction c * complex t
        # computes, without the Fraction operator's type dispatch
        coeffs = map(complex, coeffs)
    values = [prod((traces[w] for w in key), start=c) for key, c in zip(poly.terms, coeffs)]
    if all(is_exact(v) for v in values):
        return sum(values)
    # thousands of rounded terms: a running sum would lose digits
    return complex(math.fsum(v.real for v in values), math.fsum(v.imag for v in values))


def mc_norm_pow_one_shot(lambdas, spec, degrees, samples: int, seed: int) -> list:
    """E|sum_i lambda_i X_i|^d / d! as ``mc_norm_pow`` estimates it, for
    each d of ``degrees`` from the same draws: each block drawn as one
    (count, n) array from its stream and projected by the same einsum, its
    powers and their squares summed unscaled, the block sums added in block
    order."""
    lam = np.array([float(v) for v in lambdas])
    sums = [[0.0, 0.0] for _ in degrees]
    for block, count in _block_ranges(samples):
        draws = sample_block(spec, block_stream(seed, block), (count, lam.size))
        s = np.abs(np.einsum("ij,j->i", draws, lam))
        for acc, d in zip(sums, degrees):
            with np.errstate(over="ignore", under="ignore"):
                y = s**d
                acc[0] += float(np.sum(y))
                acc[1] += float(np.sum(y * y))
    out = []
    for (s1, s2), d in zip(sums, degrees):
        mean = s1 / samples
        var = (s2 - samples * mean * mean) / (samples - 1)
        stderr = math.nan if math.isnan(var) else math.sqrt(max(0.0, var) / samples)
        out.append(McEstimate(mean / factorial(d), stderr / factorial(d), samples, seed))
    return out
