"""Evaluation routes for the random-vector matrix norms.

One kernel, the complete-Bell recurrence
B_n = sum_k C(n-1, k-1) a_k B_{n-k} over u-polynomials truncated above
u^{d/2} (:func:`_bell`), computes the d-th power of the norm on two routes:

* Hermitian inputs: (1/d!) B_d(kappa_1 tr A, ..., kappa_d tr A^d), scalar
  a_k taken from trace powers (the u-degree is 0);
* the constant-term route (arbitrary square inputs): the Hermitian form at
  M(s) = s Z + s^{-1} Z* has constant term C(d, d/2) times the norm power;
  that constant term is [u^{d/2}] B_d(a_1(u), ..., a_d(u)) / d! with
  a_k(u) = kappa_k tau_k(u), where tau_k(u) sums the traces of the
  length-k words in Z, Z* with u counting adjoints.

On exact input the kernel runs in Python ints: the matrix is scaled to
integers (see below), each cumulant enters as numerator over denominator,
and one Fraction is formed at the end.  On float input it runs normalized,
on B_n / n!.  The partition walk sum_pi kappa_pi p_pi / y_pi is the tests'
oracle for the kernel.

Two independent routes serve as oracles:

* truncated-series extraction (Hermitian inputs, distributions with a
  moment generating function): exponentiate sum_j kappa_j tr(A^j) t^j / j!
  with :meth:`TruncatedSeries.exp` and read off the coefficient of t^d;
  it is the CLI's ``series`` method and the check behind ``auto``;
* the adjoint-placement trace-word sum, sum over partitions of kappa_pi *
  T_pi(Z) / y_pi with T_pi averaging the C(d, d/2) ways of distributing
  d/2 adjoints over the letter slots: :func:`word_sum_norm_pow` evaluates
  the trace polynomial that :func:`symbolic_formula` builds (and the
  ``formula`` command prints), multiplying out every distinct trace word.
  It uses no cumulant recurrence and no C_{k,j} matrices, and is compared
  against by the CLI's ``words`` method, the circle-average check and the
  ``paths`` suite.

All routes run in exact rational arithmetic when the matrix entries and
cumulants are rational; the d-th root at the very end is the only
irrational step.  Every route scales its input in one step and undoes it
by absolute homogeneity, |||cZ||| = |c| |||Z|||: an exact matrix is
multiplied by the lcm L of its entry denominators and the power divided by
L^d (:func:`_scaled`, :func:`_rescaled`); a float matrix is multiplied by
the power of two 2^-e that puts its largest entry in [1/2, 1), which is
exact, and the power multiplied back by 2^(d e) in one ``ldexp``.  A float
power that leaves the normal range there is refused rather than returned
as 0.0, a subnormal or inf.
"""

from __future__ import annotations

import cmath
import math
import sys
from fractions import Fraction
from math import comb, factorial, lcm, prod
from operator import mul

from .cumulants import CumulantVector, DistributionSpec, distribution_cumulants
from .errors import MomentExistenceError, NonHermitianError, PreconditionError
from .matrixcore import Matrix, is_hermitian, scale_exponent, trace_of_product, trace_powers
from .partitions import enumerate_partitions, y_of
from .scalars import exact_div, is_exact, real_part_checked
from .series import TruncatedSeries
from .words import placement_terms, word_json, word_text


def _require_even_degree(d: int) -> None:
    if not isinstance(d, int) or d < 2 or d % 2:
        raise PreconditionError(
            f"analytic paths require an even degree d >= 2, got {d!r} "
            "(the Monte Carlo oracle covers odd d)"
        )


def _scaled(Z: Matrix, kappas):
    """(Zs, scale): Z brought to the scale every route evaluates at.

    If Z and every cumulant are exact, Zs = L Z has int entries (L the lcm
    of the entry denominators) and scale = Fraction(1, L).  A float Z gives
    Zs = Z * 2**-e, exact, with e = :func:`scale_exponent` and scale = e.
    An exact Z with float cumulants keeps its rational entries (scale
    Fraction(1)), because L**d may exceed the float range although the norm
    power does not.
    """
    if not Z.is_exact():
        e = scale_exponent(Z)
        return Z * 2.0**-e, e
    if not all(is_exact(kappa) for kappa in kappas):
        return Z, Fraction(1)
    L = lcm(*(v.denominator for v in Z.array.flat))
    return Matrix(Z.array * L // 1), Fraction(1, L)  # Fraction(k, 1) // 1 is the int k


def _rescaled(total, scale, d: int):
    """The norm power of Z from ``total``, the degree-d form at Zs (see
    :func:`_scaled`), by homogeneity.

    Exact input gives total * scale**d; float input gives one
    ldexp(total, d*e), exact unless the result is subnormal.  A float result
    outside the normal range is refused: 0.0 for a nonzero matrix would
    break strict positivity, a subnormal keeps too few digits for its d-th
    root, and inf is no value.
    """
    if isinstance(scale, Fraction):
        return total * scale**d
    try:
        out = math.ldexp(total, d * scale)
    except OverflowError:
        out = math.inf
    if total != 0 and not sys.float_info.min <= abs(out) < math.inf:
        raise PreconditionError(
            f"norm power outside float range: normalized value {total!r} "
            f"times scale 2**{d * scale}"
        )
    return out


def _bell(a, d: int, half: int = 0, den=None):
    """Coefficients of u^0..u^half in the complete Bell polynomial
    B_d(a_1(u), ..., a_d(u)), as (numerators, common denominator).

    ``a[k]`` (``a[0]`` is unused) lists the coefficients of u^0..u^half of
    a_k(u), which may have no term above u^k; a_k past the end of ``a`` are
    zero.  With half = 0 the a_k are scalars in one-element lists.  The
    recurrence is

        B_n = sum_{k=1}^{n} C(n-1, k-1) a_k B_{n-k},   B_0 = 1,

    each product truncated above u^half.  With ``den``, a_k is ``a[k]`` over
    the integer ``den[k]`` and B_n is kept as numerators over
    D_n = lcm_k(den[k] D_{n-k}), so integer input stays in integers and no
    gcd is taken.  Without ``den`` the recurrence runs normalized, on
    B_n / n! given a_k / k!, with weight k/n in place of C(n-1, k-1), so
    that no float intermediate carries a factor n!; the denominator is 1.
    Coefficients of B_n below u^(n - d + half) are never formed: the
    remaining degree d - n raises the u-degree by at most d - n, so they
    cannot reach u^half of B_d.
    """
    ks = [k for k in range(1, min(d + 1, len(a))) if any(a[k])]
    B = [[1] + [0] * half]
    D = [1] * (d + 1)
    zero = 0 if den is not None else 0.0  # float input with every a_k = 0 gives 0.0
    for n in range(1, d + 1):
        lo, hi = max(0, n - d + half), min(n, half)
        row = [zero] * (half + 1)
        if den is not None:
            D[n] = lcm(*(den[k] * D[n - k] for k in ks if k <= n))
        for k in ks:
            if k > n:
                break
            if den is None:
                w = k / n
            else:
                w = comb(n - 1, k - 1) * (D[n] // (den[k] * D[n - k]))
            ak, prev = a[k], B[n - k]
            plo, phi = max(0, n - k - d + half), min(n - k, half)
            for j in range(lo, hi + 1):
                i0, i1 = max(0, j - phi), min(k, j - plo)
                if i0 <= i1:
                    terms = map(mul, ak[i0 : i1 + 1], reversed(prev[j - i1 : j - i0 + 1]))
                    row[j] += w * sum(terms)
        B.append(row)
    return B[d], D[d]


def _kernel_inputs(Zs: Matrix, kappas):
    """(c, den): the cumulant factors for :func:`_bell`, whose a_k is c_k
    times a trace of Zs (from :func:`_scaled`).

    On an integer Zs, kappa_k = c_k / den[k] in lowest terms.  Otherwise
    c_k = kappa_k / k!, formed exactly and rounded to a float once, for the
    normalized recurrence, and den is None.
    """
    if Zs.is_exact() and all(is_exact(kappa) for kappa in kappas):
        return [kappa.numerator for kappa in kappas], [1] + [kappa.denominator for kappa in kappas]
    return [float(Fraction(kappa) / factorial(k)) for k, kappa in enumerate(kappas, 1)], None


def bell_value(ell: int, x):
    """Complete Bell polynomial B_ell(x_1..x_ell) = ell! * sum_pi x_pi / y_pi."""
    if ell < 0:
        raise ValueError("ell must be nonnegative")
    x = list(x)
    if len(x) < ell:
        raise PreconditionError(f"B_{ell} needs {ell} arguments, got {len(x)}")
    return _bell([None] + [[v] for v in x[:ell]], ell, den=[1] * (ell + 1))[0][0]


def hermitian_norm_pow(A: Matrix, spec: DistributionSpec, d: int):
    """Norm power (1/d!) * B_d(kappa_1 tr A, ..., kappa_d tr A^d); Hermitian
    input only.  Strictly positive for A != 0.
    """
    _require_even_degree(d)
    if not is_hermitian(A):
        raise NonHermitianError("hermitian_norm_pow requires a Hermitian matrix")
    kappas = distribution_cumulants(spec, d).kappas
    As, scale = _scaled(A, kappas)
    c, den = _kernel_inputs(As, kappas)
    tp = [real_part_checked(t) for t in trace_powers(As, d)]
    (b,), D = _bell([None] + [[ck * t] for ck, t in zip(c, tp)], d, den=den)
    total = b if den is None else Fraction(b, D * factorial(d))
    return _rescaled(total, scale, d)


def series_norm_pow(A: Matrix, spec: DistributionSpec, d: int):
    """Norm power as [t^d] of exp(sum_j kappa_j tr(A^j) t^j / j!).

    Agrees with :func:`hermitian_norm_pow` exactly on the rational path.
    Rejects distributions without a moment generating function.
    """
    _require_even_degree(d)
    if not spec.has_mgf:
        raise PreconditionError(
            f"{spec.family} admits no moment generating function; "
            "use the partition path"
        )
    if not is_hermitian(A):
        raise NonHermitianError("series_norm_pow requires a Hermitian matrix")
    kappas = distribution_cumulants(spec, d).kappas
    As, scale = _scaled(A, kappas)
    tp = [real_part_checked(t) for t in trace_powers(As, d)]
    # kappa_j / j! first: an exact kappa_j = (j-1)! times a float trace
    # would overflow long before the norm power does
    coeffs = [0] + [exact_div(kappas[j - 1], factorial(j)) * tp[j - 1] for j in range(1, d + 1)]
    return _rescaled(TruncatedSeries(coeffs).exp().coefficient(d), scale, d)


def word_sum_norm_pow(Z: Matrix, spec: DistributionSpec, d: int):
    """Norm power for arbitrary square Z: sum_pi kappa_pi * T_pi(Z) / y_pi.

    Evaluates :func:`symbolic_formula` at Z, multiplying out every distinct
    trace word.  This is the independent oracle for :func:`general_norm_pow`,
    equal to it exactly on rational input.
    """
    _require_even_degree(d)
    kappas = distribution_cumulants(spec, d).kappas
    Zs, scale = _scaled(Z, kappas)
    return _rescaled(real_part_checked(symbolic_formula(kappas, d).evaluate(Zs)), scale, d)


def _adjoint_count_traces(Z: Matrix, m: int, half: int) -> list:
    """tau[k][j] = tr(C_{k,j}) for k = 1..m and j = 0..half (0 for j > k).

    C_{k,j} is the sum of the length-k words in Z and Z* with j adjoints.
    The matrices are built up to h = ceil(m/2) by C_{k,j} = C_{k-1,j} Z +
    C_{k-1,j-1} Z*, the upper half of each level as C_{k,k-j} = C_{k,j}*.
    A longer word splits after its first h letters, so tr(C_{k,j}) =
    sum_i tr(C_{h,i} C_{k-h,j-i}) costs no further matrix product.
    """
    h = (m + 1) // 2
    C = [None, [Z, Z.adjoint()]]
    for k in range(2, h + 1):
        prev, row = C[k - 1], [None] * (k + 1)
        for j in range(k // 2 + 1):
            row[j] = prev[j] @ Z
            if j:
                row[j] = row[j] + prev[j - 1] @ C[1][1]
        for j in range(k // 2 + 1, k + 1):
            row[j] = row[k - j].adjoint()
        C.append(row)
    tau = [None]
    for k in range(1, m + 1):
        if k <= h:
            low = [C[k][j].trace() for j in range(k // 2 + 1)]
        else:
            b = k - h
            low = [
                sum(
                    trace_of_product(C[h][i], C[b][j - i])
                    for i in range(max(0, j - b), min(h, j) + 1)
                )
                for j in range(k // 2 + 1)
            ]
        # tr(C_{k,k-j}) = conj tr(C_{k,j})
        full = low + [t.conjugate() for t in reversed(low[: (k + 1) // 2])]
        tau.append((full + [0] * half)[: half + 1])
    return tau


def general_norm_pow(Z: Matrix, spec: DistributionSpec, d: int):
    """Norm power for arbitrary square Z by the constant-term route:

        [x^d u^{d/2}] exp(sum_k kappa_k tau_k(u) x^k / k!) / C(d, d/2)

    with tau_k(u) = sum_j tr(C_{k,j}) u^j (see :func:`_adjoint_count_traces`),
    the coefficient of x^d taken as B_d / d! by the Bell kernel.
    Equals :func:`word_sum_norm_pow` exactly on rational input, restricts
    to :func:`hermitian_norm_pow` on Hermitian input and is strictly
    positive for Z != 0.
    """
    _require_even_degree(d)
    half = d // 2
    kappas = distribution_cumulants(spec, d).kappas
    Zs, scale = _scaled(Z, kappas)
    c, den = _kernel_inputs(Zs, kappas)
    m = max((k for k in range(1, d + 1) if c[k - 1] != 0), default=0)
    tau = _adjoint_count_traces(Zs, m, half)
    a = [None] + [[c[k - 1] * x for x in tau[k]] for k in range(1, m + 1)]
    b, D = _bell(a, d, half, den)
    if den is None:
        total = b[half] / comb(d, half)
    else:
        total = Fraction(b[half], D * factorial(d) * comb(d, half))
    return _rescaled(real_part_checked(total), scale, d)


def norm_root(value, d: int) -> float:
    """value ** (1/d) as a float.

    An exact value outside the normal float range (float() overflows, or
    gives 0.0 or a subnormal with few significant digits) is rooted in log
    space: divided by 2**(d*e) for the
    e that brings it near 1, rooted, and multiplied back by 2**e, each step
    exact but the root.  A root that is itself outside the float range is
    refused, and so is a negative value, which only a float evaluation
    that lost its precision can give.
    """
    if value < 0:
        raise PreconditionError(
            f"norm power {value!r} is negative: the float evaluation lost its precision"
        )
    try:
        v = float(value)
    except OverflowError:
        v = math.inf
    if value == 0 or sys.float_info.min <= abs(v) < math.inf:
        return v ** (1.0 / d)
    f = Fraction(value)
    e = (f.numerator.bit_length() - f.denominator.bit_length()) // d
    try:
        root = math.ldexp(float(f / Fraction(2) ** (d * e)) ** (1.0 / d), e)
    except OverflowError:
        root = math.inf
    if not 0.0 < root < math.inf:
        raise PreconditionError(f"norm of degree {d} is outside float range")
    return root


def norm(Z: Matrix, spec: DistributionSpec, d: int) -> float:
    """The norm itself: general_norm_pow(Z, spec, d) ** (1/d)."""
    value = general_norm_pow(Z, spec, d)
    if value < 0:
        raise ArithmeticError(f"norm power came out negative ({value!r})")
    return norm_root(value, d)


# -- symbolic output ---------------------------------------------------------


class TracePolynomial:
    """A rational-coefficient combination of products of canonical trace words.

    ``terms`` maps a sorted tuple of canonical words (the factor multiset of
    one product of traces) to its coefficient.  In Hermitian mode a factor
    word of k letters stands for tr(A^k); in general mode the letters 'z'
    and 's' stand for Z and Z*.  Zero coefficients are never stored.
    """

    __slots__ = ("degree", "hermitian", "terms")

    def __init__(self, degree: int, hermitian: bool, terms: dict):
        self.degree = degree
        self.hermitian = hermitian
        self.terms = {k: v for k, v in terms.items() if not (v == 0)}

    def coefficient(self, factors):
        return self.terms.get(tuple(sorted(factors)), 0)

    def ordered_terms(self) -> list:
        """Terms grouped by partition in reverse-lexicographic order, then by
        factor tuple; the partition of a term is the multiset of factor lengths."""
        by_partition: dict[tuple[int, ...], list] = {}
        for key, coeff in self.terms.items():
            parts = tuple(sorted((len(w) for w in key), reverse=True))
            by_partition.setdefault(parts, []).append((key, coeff))
        out = []
        for p in enumerate_partitions(self.degree):
            for key, coeff in sorted(by_partition.get(p.parts, [])):
                out.append((key, coeff))
        return out

    def evaluate(self, Z: Matrix):
        """The polynomial at Z: the sum of coefficient times factor traces.

        A word's letters 'z' and 's' stand for Z and Z* (a Hermitian-mode
        word of k letters 'z' is tr(Z^k)).  Each word's matrix is its prefix
        one letter shorter times Z or Z*, and prefixes are cached, so every
        distinct prefix costs one matrix product; a word's last letter
        enters through :func:`trace_of_product`.  Exact input gives an exact
        sum; otherwise the terms' real and imaginary parts are summed by
        ``math.fsum`` and the complex result may carry an imaginary roundoff
        residue for the caller to check and discard.
        """
        letters = {"z": Z, "s": Z.adjoint()}
        prefixes = dict(letters)

        def trace(w: str):
            if len(w) == 1:
                return letters[w].trace()
            for i in range(2, len(w)):
                if w[:i] not in prefixes:
                    prefixes[w[:i]] = prefixes[w[: i - 1]] @ letters[w[i - 1]]
            return trace_of_product(prefixes[w[:-1]], letters[w[-1]])

        traces = {w: trace(w) for w in {w for key in self.terms for w in key}}
        values = [prod((traces[w] for w in key), start=c) for key, c in self.terms.items()]
        if all(is_exact(v) for v in values):
            return sum(values)
        # thousands of rounded terms: a running sum would lose digits
        return complex(math.fsum(v.real for v in values), math.fsum(v.imag for v in values))

    def _factor_text(self, word: str) -> str:
        if self.hermitian:
            k = len(word)
            return "tr(A)" if k == 1 else f"tr(A^{k})"
        return f"tr({word_text(word)})"

    def term_text(self, key, coeff) -> str:
        factors = []
        run = None
        count = 0
        for w in list(key) + [None]:
            if w == run:
                count += 1
                continue
            if run is not None:
                factors.append(
                    self._factor_text(run) + (f"^{count}" if count > 1 else "")
                )
            run, count = w, 1
        return f"{coeff} {' '.join(factors)}"

    def text(self) -> str:
        lines = [self.term_text(k, c) for k, c in self.ordered_terms()]
        return "\n".join(lines) if lines else "0"

    def to_json(self) -> dict:
        terms = []
        for key, coeff in self.ordered_terms():
            frac = Fraction(coeff) if isinstance(coeff, int) else coeff
            if not isinstance(frac, Fraction):
                raise PreconditionError("JSON form requires exact rational coefficients")
            factors = [
                f"A^{len(w)}" if self.hermitian else word_json(w) for w in key
            ]
            terms.append(
                {"coeff": [frac.numerator, frac.denominator], "factors": factors}
            )
        return {
            "degree": self.degree,
            "mode": "hermitian" if self.hermitian else "general",
            "terms": terms,
        }

    def __eq__(self, other) -> bool:
        if not isinstance(other, TracePolynomial):
            return NotImplemented
        return (
            self.degree == other.degree
            and self.hermitian == other.hermitian
            and self.terms == other.terms
        )

    def __repr__(self) -> str:
        return f"TracePolynomial(degree={self.degree}, hermitian={self.hermitian}, terms={self.terms!r})"


def symbolic_formula(kappas, d: int, hermitian_mode: bool = False) -> TracePolynomial:
    """The norm power as a trace polynomial with explicit coefficients.

    In general mode each partition contributes its aggregated adjoint
    placements with coefficient kappa_pi * multiplicity / (y_pi * C(d, d/2));
    in Hermitian mode the term for a partition is kappa_pi / y_pi times the
    product of tr(A^part).  :meth:`TracePolynomial.evaluate` gives the norm
    power at a matrix.  Cumulants may be Fractions (exact output) or any
    ring elements supporting * and /.
    """
    _require_even_degree(d)
    ks = kappas.kappas if isinstance(kappas, CumulantVector) else tuple(kappas)
    if len(ks) < d:
        raise PreconditionError(f"need cumulants up to degree {d}, got {len(ks)}")
    denom = 1 if hermitian_mode else comb(d, d // 2)
    terms: dict = {}
    for p in enumerate_partitions(d):
        kp = prod((ks[i - 1] for i in p.parts), start=1)
        if kp == 0:
            continue
        base = exact_div(kp, y_of(p) * denom)
        if hermitian_mode:
            table = ((tuple(sorted("z" * part for part in p.parts)), 1),)
        else:
            table = placement_terms(p.parts)
        # factor tuples never repeat: their word lengths give the partition
        for factors, mult in table:
            terms[factors] = mult * base
    return TracePolynomial(d, hermitian_mode, terms)


# -- cross-checks ------------------------------------------------------------


def circle_extension_check(Z: Matrix, spec: DistributionSpec, d: int):
    """Compare the circle-average extension against the trace-word value.

    The average of the Hermitian norm power of e^{it} Z + e^{-it} Z* over
    the circle, divided by C(d, d/2), must equal the trace-word norm power
    (:func:`word_sum_norm_pow`, not the constant-term route, which is the
    algebraic form of this same average).
    The integrand is a trigonometric polynomial of degree at most d, so the
    trapezoid rule on its 2d + 2 equally spaced points is exact up to
    roundoff.  Returns (quadrature value as a float, trace-word value as
    :func:`word_sum_norm_pow` returns it, exact on exact input).
    """
    _require_even_degree(d)
    q = 2 * d + 2
    Zadj = Z.adjoint()
    total = 0.0
    for j in range(q):
        e = cmath.exp(2j * math.pi * j / q)
        M = Z * e + Zadj * e.conjugate()
        total += float(hermitian_norm_pow(M, spec, d))
    quad = total / q / comb(d, d // 2)
    return quad, word_sum_norm_pow(Z, spec, d)


def normal_norm_pow_closed(A: Matrix, mu, sigma, d: int):
    """Closed form of the norm power for normal(mu, sigma) entries:

        sum_{k=0}^{d/2} mu^{2k} (tr A)^{2k} / (2k)!
                        * sigma^{d-2k} (tr A^2)^{d/2-k} / (2^{d/2-k} (d/2-k)!)

    using tr(A^2) = ||A||_F^2 on Hermitian input.  Independent cross-check
    for the normal family; not the default evaluation path.
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

    Exists only for d < alpha.  This is the route used for the alpha limits;
    it avoids the cumulant recursion entirely.
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
