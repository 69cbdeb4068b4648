"""Evaluation routes for the random-vector matrix norms.

One kernel, the complete-Bell recurrence
B_n = sum_k C(n-1, k-1) a_k B_{n-k} over u-polynomials truncated above
u^{d/2}, computes the d-th power of the norm on two routes:

* Hermitian inputs: (1/d!) B_d(kappa_1 tr A, ..., kappa_d tr A^d), scalar
  a_k taken from trace powers (the u-degree is 0);
* the constant-term route (arbitrary square inputs): the Hermitian form at
  M(s) = s Z + s^{-1} Z* has constant term C(d, d/2) times the norm power;
  that constant term is [u^{d/2}] B_d(a_1(u), ..., a_d(u)) / d! with
  a_k(u) = kappa_k tau_k(u), where tau_k(u) sums the traces of the
  length-k words in Z, Z* with u counting adjoints.

Two independent routes serve as oracles:

* truncated-series extraction (Hermitian inputs, distributions with a
  moment generating function): exponentiate sum_j kappa_j tr(A^j) t^j / j!
  with :meth:`TruncatedSeries.exp` and read off the coefficient of t^d;
  it is the CLI's ``series`` method and the check behind ``auto``;
* the adjoint-placement trace-word sum, sum over partitions of kappa_pi *
  T_pi(Z) / y_pi with T_pi averaging the C(d, d/2) ways of distributing
  d/2 adjoints over the letter slots: :func:`word_sum_norm_pow` sums the
  terms of the trace polynomial that :func:`formula_terms` makes (which
  :func:`symbolic_formula` collects and :func:`write_formula`, for the
  ``formula`` command, writes as it goes), multiplying out every distinct
  trace word once.  It uses no cumulant recurrence and no C_{k,j} matrices, and
  is compared against by the CLI's ``words`` method, the circle-average
  check and the ``paths`` suite.

Each of the four has one body, a function of a stack of matrices (or of a
sequence of stacks of different sizes) and its laws (``*_norm_pow_stack``);
the single-matrix function of the same name is its stack of one and
returns a Fraction or a float.  A body runs one trace kernel on each stack,
:func:`_trace_power_stack` (Hermitian, series),
:func:`_adjoint_count_trace_stack` (constant term) or
:func:`~rvnorms.words.word_traces` (trace words), between shared pieces,
run once a call, that alone, with the series route's division by j! and
the word sum's sums after its traces, tell exact from float input:

* :func:`_prepared` checks and scales the input.  An exact Matrix whose
  cumulants are exact too becomes the int stack of one L Z, L the lcm of
  its entry denominators; anything else a complex stack with a law axis
  (one law for every matrix or one per matrix, :func:`_law_rows`), each
  matrix times the power of two 2^-e that puts its largest entry in
  [1/2, 1), which is exact;
* :func:`_factors` gives the cumulant factors, and
  :func:`_bell_coefficient` runs the recurrence on them: in Python ints
  with one Fraction at the end (:func:`_bell`), or normalized, on
  B_n / n!, over the float stack (:func:`_bell_stack`);
* :func:`_rescaled` undoes the scale by absolute homogeneity,
  |||cZ||| = |c| |||Z|||: the exact power times L^-d, each float power
  times 2^(d e) in one ``ldexp``.  A float power that leaves the normal
  range there is refused rather than returned as 0.0, a subnormal or inf.

On a float stack each matrix gets the value it gets alone under its own
law, bit for bit; an empty stack (N = 0) gives an empty float array.  The
d-th root at the very end is the only irrational step of an exact
evaluation.  The partition walk sum_pi kappa_pi p_pi / y_pi is the tests'
oracle for the kernel.
"""

from __future__ import annotations

import cmath
import json
import math
import sys
from collections.abc import Sequence
from dataclasses import dataclass
from fractions import Fraction
from functools import lru_cache
from math import comb, factorial, lcm, prod
from operator import mul

import numpy as np

from .cumulants import CumulantVector, DistributionSpec, distribution_cumulants
from .errors import NonHermitianError, PreconditionError
from .matrixcore import (
    Matrix,
    hermitian_mask,
    hermitian_tolerance,
    is_hermitian,
    scale_exponents,
)
from .partitions import enumerate_partitions, y_of
from .scalars import is_exact, real_parts_checked
from .series import TruncatedSeries
from .words import placement_terms, word_json, word_table, word_text, word_traces


def _require_even_degree(d: int) -> None:
    if not isinstance(d, int) or d < 2 or d % 2:
        raise PreconditionError(
            f"analytic paths require an even degree d >= 2, got {d!r} "
            "(the Monte Carlo oracle covers odd d)"
        )


def _stack_rows(stacks):
    """(stack, the slice of the call's rows that it holds) for each stack."""
    start = 0
    for S in stacks:
        yield S, slice(start, start + len(S))
        start += len(S)


def _prepared(Z, spec, d: int, hermitian: bool):
    """(stacks, scale, laws, rows) for a :class:`Matrix`, a stack (N, n, n)
    or a sequence of stacks (N_i, n_i, n_i): checked for an even degree d
    (and, with ``hermitian``, for Hermitian input) and scaled for a route's
    trace kernels.  ``stacks`` lists the nonempty stacks, whose rows in
    order are the call's N rows.  ``laws`` holds the :class:`CumulantVector`
    of each distinct law, looked up once.

    An exact Matrix whose cumulants are exact too gives the int stack of
    one L Z, (1, n, n) with ``dtype=object``, L the lcm of its entry
    denominators, scale Fraction(1, L) and rows None (no law axis).
    Anything else, a Matrix as a stack of one, gives each Z[i] * 2**-e[i]
    (:func:`scale_exponents`), scale e and, per row, the index of its law
    (:func:`_law_rows`).  Two or more nonempty stacks are copied into one
    zero-padded stack (N, max n_i, max n_i) for one pass over the largest
    entries, finiteness, the Hermitian test and the scales (zero padding
    changes none of them), and come back scaled at their own sizes.  A stack
    that is not (N, n, n) or has a non-finite entry raises ValueError.
    """
    _require_even_degree(d)
    if isinstance(Z, Matrix):
        if Z.is_exact():
            if hermitian and not is_hermitian(Z):
                raise NonHermitianError("the Hermitian route requires a Hermitian matrix")
            law = distribution_cumulants(spec, d)
            if all(map(is_exact, law.kappas)):
                L = lcm(*(v.denominator for v in Z.array.flat))
                # Fraction(k, 1) // 1 is the int k
                return [(Z.array * L // 1)[None]], Fraction(1, L), [law], None
        Z = Z.array[None]
    sequence = isinstance(Z, (list, tuple)) and all(np.ndim(S) == 3 for S in Z)
    members = []
    for S in Z if sequence else [Z]:
        S = np.asarray(S, dtype=complex)
        if S.ndim != 3 or S.shape[1] != S.shape[2] or S.shape[1] == 0:
            raise ValueError(f"a stack of square matrices (N, n, n) is required, got shape {S.shape}")
        members += [S] if len(S) else []
    if len(members) == 1:
        Z = members[0]
    else:
        top = max((S.shape[1] for S in members), default=1)
        Z = np.zeros((sum(map(len, members)), top, top), dtype=complex)
        for S, rows in _stack_rows(members):
            Z[rows, : S.shape[1], : S.shape[1]] = S
    max_abs = np.abs(Z).max(axis=(1, 2))
    if not np.isfinite(max_abs).all():
        raise ValueError("non-finite entry")
    if hermitian and not hermitian_mask(Z, hermitian_tolerance(max_abs)).all():
        raise NonHermitianError("the Hermitian route requires Hermitian matrices")
    laws, rows = _law_rows(spec, len(Z))
    e = scale_exponents(max_abs)
    laws = [distribution_cumulants(law, d) for law in laws]
    factor = np.ldexp(1.0, -e)[:, None, None]
    scaled = (Z[r, : len(S[0]), : len(S[0])] * factor[r] for S, r in _stack_rows(members))
    return list(scaled), e, laws, rows


def _rescaled(total, scale, d: int) -> np.ndarray:
    """The norm powers of a prepared stack (:func:`_prepared`) from
    ``total``, the degree-d form at each scaled matrix, by homogeneity.

    On the exact stack of one, total[0] * scale**d, in an object array of
    one.  On a float stack, ldexp(total[i], d*e[i]) for each row, exact
    unless the result is subnormal, after a complex total is checked real
    by :func:`~rvnorms.scalars.real_parts_checked`.  A float result
    outside the normal range is refused, the first in row order: 0.0 for a
    nonzero matrix would break strict positivity, a subnormal keeps too few
    digits for its d-th root, and inf is no value.
    """
    if isinstance(scale, Fraction):
        return np.array([total[0] * scale**d], dtype=object)
    if np.iscomplexobj(total):
        total = real_parts_checked(total)
    total = np.asarray(total, dtype=float)
    with np.errstate(over="ignore", under="ignore"):
        out = np.ldexp(total, d * scale)
    size = np.abs(out)
    ok = (total == 0) | ((sys.float_info.min <= size) & (size < math.inf))
    if not ok.all():
        i = int(ok.argmin())
        raise PreconditionError(
            f"norm power outside float range: normalized value {total[i].item()!r} "
            f"times scale 2**{d * int(scale[i])}"
        )
    return out


def _bell(a, d: int, half: int, den):
    """Coefficients of u^0..u^half in the complete Bell polynomial
    B_d(a_1(u), ..., a_d(u)), as (numerators, common denominator), for
    exact input.

    ``a[k]`` (``a[0]`` is unused) lists the coefficients of u^0..u^half of
    the numerator of a_k(u), which may have no term above u^k; a_k past the
    end of ``a`` are zero.  With half = 0 the a_k are scalars in
    one-element lists.  The recurrence is

        B_n = sum_{k=1}^{n} C(n-1, k-1) a_k B_{n-k},   B_0 = 1,

    each product truncated above u^half.  a_k is ``a[k]`` over the integer
    ``den[k]`` and B_n is kept as numerators over
    D_n = lcm_k(den[k] D_{n-k}), so integer input stays in integers and no
    gcd is taken.  Coefficients of B_n below u^(n - d + half) are never
    formed: the remaining degree d - n raises the u-degree by at most
    d - n, so they cannot reach u^half of B_d.
    """
    ks = [k for k in range(1, min(d + 1, len(a))) if any(a[k])]
    B = [[1] + [0] * half]
    D = [1] * (d + 1)
    for n in range(1, d + 1):
        lo, hi = max(0, n - d + half), min(n, half)
        row = [0] * (half + 1)
        D[n] = lcm(*(den[k] * D[n - k] for k in ks if k <= n))
        for k in ks:
            if k > n:
                break
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


def _bell_stack(a: np.ndarray, d: int) -> np.ndarray:
    """B_d / d! for a stack, as the coefficients of u^0..u^half.

    ``a[:, k-1, :]`` holds the coefficients of u^0..u^half of a_k(u) / k!
    for k = 1..m (a_k = 0 above m).  The recurrence runs normalized, on
    b_n = B_n / n!, so that no float intermediate carries a factor n!:

        b_n = sum_{k=1}^{min(n, m)} (k/n) (a_k / k!) b_{n-k},   b_0 = 1,

    each product truncated above u^half.  The truncated product with
    a_k(u) / k! is the lower-triangular Toeplitz matrix T_k[j, i] =
    a_k[j - i] / k!, so each b_n takes one batched elementwise product of
    [T_1 ... T_K] with (b_{n-1}, ..., b_{n-K}).  Its sums run in a fixed
    order, over i and then over k, one term after another, so every matrix
    gets the same value whatever stack it is evaluated in.
    """
    N, m, h1 = a.shape
    T = np.zeros((N, m, h1, h1), dtype=a.dtype)  # T[:, k-1, j, i] = a_k[j - i] / k!
    for i in range(h1):
        T[:, :, i:, i] = a[:, :, : h1 - i]
    R = np.zeros((N, d + 1, h1), dtype=a.dtype)  # R[:, d - n] = b_n
    R[:, d, 0] = 1.0
    weight = np.arange(1, m + 1)[None, :, None] / np.arange(1, d + 1)[:, None, None]  # k/n
    for n in range(1, d + 1):
        K = min(n, m)
        prev = R[:, d - n + 1 : d - n + 1 + K]  # b_{n-1}, ..., b_{n-K}
        if h1 == 1:  # one coefficient: nothing to sum over i
            S = T[:, :K, :, 0] * prev
        else:
            S = (T[:, :K] * prev[:, :, None, :])[..., ::-1].cumsum(axis=3)[..., -1]
        R[:, d - n] = (weight[n - 1, :K] * S).cumsum(axis=1)[:, -1]
    # + 0.0: a sum of zeros is +0.0, as a sum started from 0 gives it
    return R[:, 0] + 0.0


def _bell_coefficient(a, d: int, den, divisor: int = 1):
    """[u^half] B_d(a_1(u), ..., a_d(u)) / (d! divisor) for each matrix of
    a prepared stack, half = a.shape[2] - 1.  ``a[:, k-1, :]`` holds the
    coefficients of u^0..u^half of the :func:`_factors` factor of a_k times
    its traces: with ``den`` (exact), the numerator of a_k over den[k], and
    :func:`_bell` gives one Fraction, in a list; otherwise a_k(u) / k!, and
    :func:`_bell_stack` an array."""
    half = a.shape[2] - 1
    if den is not None:
        b, D = _bell([None] + a[0].tolist(), d, half, den)
        return [Fraction(b[half], D * factorial(d) * divisor)]
    return _bell_stack(a, d)[:, half] / divisor


def _top_cumulant(kappas) -> int:
    """The largest k with kappa_k != 0 (0 if none).  Above it no a_k of the
    Bell kernel, and no partition with a part above k, adds to the norm
    power, so no longer trace is needed."""
    return max((k for k, kappa in enumerate(kappas, 1) if kappa != 0), default=0)


def _law_rows(spec: DistributionSpec | Sequence[DistributionSpec], N: int):
    """(laws, rows) for a stack of N matrices under ``spec``, one
    :class:`DistributionSpec` for all of them or a sequence of N, one per
    matrix: the distinct laws (by identity) and, per row, the index of its
    law, so that whatever a law determines is formed once per law."""
    if isinstance(spec, DistributionSpec):
        return [spec], np.zeros(N, dtype=np.intp)
    specs = list(spec)
    if len(specs) != N:
        raise ValueError(f"{len(specs)} laws for a stack of {N} matrices")
    laws = list({id(s): s for s in specs}.values())
    index = {id(law): i for i, law in enumerate(laws)}
    return laws, np.fromiter(map(index.__getitem__, map(id, specs)), dtype=np.intp, count=N)


def _factors(laws, rows):
    """(c, m, den): the cumulant factors of a prepared stack's rows
    (:func:`_prepared`).  m[i] is the largest k at which row i's factor is
    nonzero (0 if none), above which every a_k vanishes, and c[i, k-1] is
    that factor for k = 1..max(m), 0 above m[i].

    On the exact stack of one (rows is None) the factor is the numerator
    of kappa_k, an int, and den[k] its denominator.  On a float stack it is
    the float kappa_k / k! of the row's law
    (:attr:`CumulantVector.normalized`), and den is None.
    """
    if rows is None:
        kappas = laws[0].kappas
        m = _top_cumulant(kappas)
        c = np.array([[kappa.numerator for kappa in kappas[:m]]], dtype=object)
        return c, np.array([m]), [1] + [kappa.denominator for kappa in kappas]
    factors = [law.normalized for law in laws]
    ms = list(map(_top_cumulant, factors))
    c = np.zeros((len(laws), max(ms, default=0)))
    for i, (ci, mi) in enumerate(zip(factors, ms)):
        c[i, :mi] = ci[:mi]
    return c[rows], np.array(ms)[rows], None


def hermitian_norm_pow(A: Matrix, spec: DistributionSpec, d: int):
    """Norm power (1/d!) * B_d(kappa_1 tr A, ..., kappa_d tr A^d); Hermitian
    input only.  Strictly positive for A != 0.  The stack of one of
    :func:`hermitian_norm_pow_stack`: a Fraction on exact input (matrix and
    cumulants), a float otherwise."""
    return hermitian_norm_pow_stack(A, spec, d).item()


def hermitian_norm_pow_stack(
    A, spec: DistributionSpec | Sequence[DistributionSpec], d: int
) -> np.ndarray:
    """The norm powers of a stack (N, n, n) of Hermitian matrices, a sequence
    of such stacks or one Matrix, as an array: each B_d(kappa_1 tr A, ...,
    kappa_d tr A^d) / d! from the trace powers up to its law's top cumulant m.

    ``spec`` is one law for every matrix or a sequence of N laws, one per
    matrix (:func:`_law_rows`).  A row whose law has a smaller m than the
    call's largest gets zero factors above it, which add exact zeros at
    the end of each of its sums, so every row's value is the one it gets
    alone under its own law.  Float trace powers must be real to within
    :func:`~rvnorms.scalars.real_parts_checked`'s residue.
    """
    stacks, scale, laws, rows = _prepared(A, spec, d, hermitian=True)
    if not stacks:
        return np.empty(0)
    c, m, den = _factors(laws, rows)
    tp = _trace_powers(stacks, m)
    return _rescaled(_bell_coefficient((tp * c)[:, :, None], d, den), scale, d)


def _trace_powers(stacks, m: np.ndarray) -> np.ndarray:
    """(N, max(m)): each stack's :func:`_trace_power_stack`, zero-padded."""
    if len(stacks) == 1:
        return _trace_power_stack(stacks[0], m)
    tp = np.zeros((len(m), int(m.max())))
    for S, rows in _stack_rows(stacks):
        tp[rows, : m[rows].max()] = _trace_power_stack(S, m[rows])
    return tp


def _trace_power_stack(A: np.ndarray, m: np.ndarray) -> np.ndarray:
    """(N, max(m)): tr A^k for k = 1..m[i] and 0 above, for a stack of
    Hermitian matrices, one batched product per power.  A complex stack
    gives the real parts, each checked by :func:`real_parts_checked`; a
    stack of exact ints (``dtype=object``, real symmetric) gives ints."""
    top = int(m.max(initial=0))
    P = np.empty((top,) + A.shape, dtype=A.dtype)  # P[k-1] = A^k
    if top:
        P[0] = A
    for k in range(1, top):
        np.matmul(P[k - 1], A, out=P[k])
    tr = np.where(np.arange(1, top + 1) <= m[:, None], P.trace(axis1=2, axis2=3).T, 0)
    return tr if A.dtype == object else real_parts_checked(tr)


def _require_mgf(spec: DistributionSpec | Sequence[DistributionSpec]) -> None:
    for law in [spec] if isinstance(spec, DistributionSpec) else spec:
        if not law.has_mgf:
            raise PreconditionError(
                f"{law.family} admits no moment generating function; "
                "use the partition path"
            )


def series_norm_pow(A: Matrix, spec: DistributionSpec, d: int):
    """Norm power as [t^d] of exp(sum_j kappa_j tr(A^j) t^j / j!).

    Agrees with :func:`hermitian_norm_pow` exactly on the rational path.
    Rejects distributions without a moment generating function.  The stack
    of one of :func:`series_norm_pow_stack`: a Fraction on exact input
    (matrix and cumulants), a float otherwise.
    """
    return series_norm_pow_stack(A, spec, d).item()


def series_norm_pow_stack(
    A, spec: DistributionSpec | Sequence[DistributionSpec], d: int
) -> np.ndarray:
    """The norm powers of a stack (N, n, n) of Hermitian matrices, a sequence
    of such stacks or one Matrix, as an array, by the series route of
    :func:`series_norm_pow`, at the scale of :func:`_prepared`.

    ``spec`` is one law for every matrix or a sequence of N laws, one per
    matrix (:func:`_law_rows`); every law needs a moment generating
    function.  The trace powers up to each row's top cumulant come from
    :func:`_trace_power_stack`.  The coefficient of t^j is kappa_j / j!
    times tr A^j: on the exact stack one Fraction; on a float stack
    kappa_j / j! is rounded once (:attr:`CumulantVector.normalized`) and
    taken before any product, so that no float carries a factor j!.  Each
    row's series is exponentiated by :meth:`TruncatedSeries.exp`.
    """
    _require_mgf(spec)
    stacks, scale, laws, rows = _prepared(A, spec, d, hermitian=True)
    if not stacks:
        return np.empty(0)
    c, m, den = _factors(laws, rows)
    a = (_trace_powers(stacks, m) * c).tolist()
    if den is not None:  # exact: kappa_j / j! = c_j / (den[j] j!)
        a = [[Fraction(x, den[j] * factorial(j)) for j, x in enumerate(row, 1)] for row in a]
    totals = [TruncatedSeries([0, *row] + [0] * (d - len(row))).exp().coefficient(d) for row in a]
    return _rescaled(totals, scale, d)


def word_sum_norm_pow(Z: Matrix, spec: DistributionSpec, d: int):
    """Norm power for arbitrary square Z: sum_pi kappa_pi * T_pi(Z) / y_pi,
    over the terms of :func:`symbolic_formula` (:func:`word_table`).  The
    stack of one of :func:`word_sum_norm_pow_stack`: a Fraction on exact
    input (matrix and cumulants), a float otherwise.  This is the
    independent oracle for :func:`general_norm_pow`, equal to it exactly
    on rational input.
    """
    return word_sum_norm_pow_stack(Z, spec, d).item()


def _kappa_quotient(kappas, parts, scale: int):
    """(num, den) with num / den = kappa_pi / scale for the partition
    ``parts``: where the cumulants of pi are exact, ints, the numerators'
    product over the denominators' product times ``scale``, not reduced;
    otherwise the float arithmetic of kappa_pi / scale over 1."""
    factors = [kappas[i - 1] for i in parts]
    if all(is_exact(k) for k in factors):
        num = prod(k.numerator for k in factors)
        return num, prod((k.denominator for k in factors), start=scale)
    return prod(factors, start=1) / scale, 1


@lru_cache(maxsize=64)
def _term_coefficients(kappas: tuple, types: tuple, d: int, support: frozenset) -> np.ndarray:
    """Each term's coefficient mult * kappa_pi / (y_pi * C(d, d/2)) in
    :func:`word_table` (d, support), as the float that
    :func:`symbolic_formula`'s coefficient rounds to: where the cumulants of
    pi are exact, an int quotient of :func:`_kappa_quotient`, rounded once;
    otherwise :func:`symbolic_formula`'s float arithmetic.  0 where
    kappa_pi = 0.  The cumulants' ``types`` are part of the cache key, since
    an exact and a float cumulant of equal value give differently rounded
    coefficients."""
    table = word_table(d, support)
    denom = comb(d, d // 2)
    bases = [_kappa_quotient(kappas, parts, y * denom) for parts, y in table.partitions]
    terms = zip(table.mults, map(bases.__getitem__, table.part_of))
    out = np.array([mult * num / den for mult, (num, den) in terms])
    out.flags.writeable = False
    return out


def word_sum_norm_pow_stack(
    Z, spec: DistributionSpec | Sequence[DistributionSpec], d: int
) -> np.ndarray:
    """The norm powers of a stack (N, n, n) of arbitrary square matrices, a
    sequence of such stacks or one Matrix, as an array, by the trace-word
    sum of :func:`word_sum_norm_pow`, at the scale of :func:`_prepared`.

    ``spec`` is one law for every matrix or a sequence of N laws, one per
    matrix (:func:`_law_rows`).  The words' traces come from one law-free
    table (:func:`word_table`, :func:`word_traces`) over the partitions
    whose parts are all indices k with kappa_k != 0 under some law of the
    call.

    On the exact stack of one, each partition's terms are summed in ints
    and the sum is weighed by :func:`_kappa_quotient`, with one Fraction at
    the end.  On a float stack, each term is its coefficient under its
    row's law (:func:`_term_coefficients`) times its factor traces in turn,
    each product in the arithmetic of Python's ``complex`` (no fused
    multiply-add); each row sums its law's nonzero terms with
    ``math.fsum``, must be real to within
    :func:`~rvnorms.scalars.real_parts_checked`'s residue, and is rescaled
    by :func:`_rescaled`.  A row gets the value that the trace polynomial
    of :func:`symbolic_formula`, evaluated term by term with these products
    and sums, gives at its scaled matrix (the tests' reference evaluator).
    """
    stacks, scale, laws, rows = _prepared(Z, spec, d, hermitian=False)
    if not stacks:
        return np.empty(0)
    kappas = [law.kappas for law in laws]
    support = frozenset(k for ks in kappas for k, kappa in enumerate(ks, 1) if kappa != 0)
    table = word_table(d, support)
    traces = np.concatenate([word_traces(S, table.plan) for S in stacks])
    if rows is None:
        values, traces = np.array(table.mults, dtype=object), traces[0]
        for words in table.factors:
            values[: len(words)] *= traces[words]
        sums = [0] * len(table.partitions)
        for pi, value in zip(table.part_of, values.tolist()):
            sums[pi] += value
        denom = comb(d, d // 2)
        quotients = [_kappa_quotient(kappas[0], parts, y * denom) for parts, y in table.partitions]
        D = lcm(*(den for num, den in quotients if num))
        total = sum(num * s * (D // den) for (num, den), s in zip(quotients, sums) if num)
        return _rescaled([Fraction(total, D)], scale, d)
    coeffs = [_term_coefficients(k, tuple(map(type, k)), d, support) for k in kappas]
    tre, tim = traces.real, traces.imag
    re = np.array(coeffs)[rows]
    im = np.zeros(re.shape)
    for words in table.factors:
        k = len(words)
        r, i, br, bi = re[:, :k], im[:, :k], tre[:, words], tim[:, words]
        re[:, :k], im[:, :k] = r * br - i * bi, r * bi + i * br
    total = np.empty(len(rows), dtype=complex)
    for law, c in enumerate(coeffs):
        members = np.flatnonzero(rows == law)
        keep = c != 0
        sums = zip(members, re[members][:, keep].tolist(), im[members][:, keep].tolist())
        for k, row_re, row_im in sums:
            total[k] = complex(math.fsum(row_re), math.fsum(row_im))
    return _rescaled(total, scale, d)


def _adjoint_count_trace_stack(Z: np.ndarray, m: int, half: int) -> np.ndarray:
    """(N, m, half+1): tau[:, k-1, j] = tr(C_{k,j}) for k = 1..m and
    j = 0..half (0 for j > k), for a stack of complex matrices or of exact
    ints (``dtype=object``, then tau holds ints too).

    C_{k,j} is the sum of the length-k words in Z and Z* with j adjoints.
    Level k of C is built from level k-1 by two batched products, for its
    lower half, C_{k,j} = C_{k-1,j} Z + C_{k-1,j-1} Z*; its upper half is
    C_{k,k-j} = C_{k,j}*.  A longer word splits after its first h =
    ceil(m/2) letters: tau_k(u) = tr(C_h(u) C_{k-h}(u)) for k > h sums the
    pairwise traces tr(C_{h,i} C_{k-h,j}) along antidiagonals.  On float
    input each is an entry of one product of the (h+1) x n^2 matrix of
    level h by the n^2 x (k-h+1) matrix of level k-h transposed.  On exact
    input only the pairs with i + j <= k/2, which give the lower half, are
    formed, one product per row of level h: the rest are conjugates of
    these, and each costs big-int products that no BLAS speeds up.
    """
    N, n, _ = Z.shape
    h = (m + 1) // 2
    tau = np.zeros((N, m, half + 1), dtype=Z.dtype)
    if m == 0:
        return tau
    levels = [None, np.stack([Z, np.conjugate(Z).swapaxes(1, 2)], axis=1)]
    Zr, Zh = Z[:, None], levels[1][:, 1:]
    for k in range(2, h + 1):
        prev = levels[k - 1]
        low = prev[:, : k // 2 + 1] @ Zr
        low[:, 1:] += prev[:, : k // 2] @ Zh
        high = np.conjugate(low[:, (k + 1) // 2 - 1 :: -1]).swapaxes(2, 3)
        levels.append(np.concatenate([low, high], axis=1))
    for k in range(1, h + 1):
        top = min(k, half) + 1
        tau[:, k - 1, :top] = np.trace(levels[k][:, :top], axis1=2, axis2=3)
    left = levels[h].reshape(N, h + 1, n * n)
    for k in range(h + 1, m + 1):
        right = levels[k - h].swapaxes(2, 3).reshape(N, k - h + 1, n * n)  # rows vec(C^T)
        if Z.dtype == object:
            # exact: only the pairs i + j <= k // 2 reach the lower half
            low = np.zeros((N, k // 2 + 1), dtype=object)
            for i in range(min(h, k // 2) + 1):
                cols = right[:, : k // 2 - i + 1]
                low[:, i : i + cols.shape[1]] += (left[:, i, None] @ cols.swapaxes(1, 2))[:, 0]
        else:
            low = _antidiagonal_sums(left @ right.swapaxes(1, 2))[:, : k // 2 + 1]
        # tr(C_{k,k-j}) = conj tr(C_{k,j})
        full = np.concatenate([low, np.conjugate(low[:, (k + 1) // 2 - 1 :: -1])], axis=1)
        top = min(k, half) + 1
        tau[:, k - 1, :top] = full[:, :top]
    return tau


def _antidiagonal_sums(P: np.ndarray) -> np.ndarray:
    """(N, r + c - 1) from (N, r, c): out[:, s] = sum_{i+j=s} P[:, i, j],
    the coefficients of a product of two polynomials from the table of
    coefficient products.  Each row i is shifted right by
    i by padding the rows to length r + c and reading them back at length
    r + c - 1."""
    N, r, c = P.shape
    padded = np.zeros((N, r, c + r), dtype=P.dtype)
    padded[:, :, :c] = P
    sheared = padded.reshape(N, r * (c + r))[:, : r * (c + r - 1)].reshape(N, r, c + r - 1)
    return sheared.sum(axis=1)


def general_norm_pow(Z: Matrix, spec: DistributionSpec, d: int):
    """Norm power for arbitrary square Z by the constant-term route:

        [x^d u^{d/2}] exp(sum_k kappa_k tau_k(u) x^k / k!) / C(d, d/2)

    with tau_k(u) = sum_j tr(C_{k,j}) u^j (see :func:`_adjoint_count_trace_stack`),
    the coefficient of x^d taken as B_d / d! by the Bell kernel.
    Equals :func:`word_sum_norm_pow` exactly on rational input, restricts
    to :func:`hermitian_norm_pow` on Hermitian input and is strictly
    positive for Z != 0.  The stack of one of
    :func:`general_norm_pow_stack`: a Fraction on exact input (matrix and
    cumulants), a float otherwise.
    """
    return general_norm_pow_stack(Z, spec, d).item()


def general_norm_pow_stack(
    Z, spec: DistributionSpec | Sequence[DistributionSpec], d: int
) -> np.ndarray:
    """The norm powers of a stack (N, n, n) of arbitrary square matrices, a
    sequence of such stacks or one Matrix, as an array, by the constant-term
    route of :func:`general_norm_pow`: tau from
    :func:`_adjoint_count_trace_stack`, [u^{d/2}] B_d / d! from
    :func:`_bell_coefficient`, each float value real to within
    :func:`~rvnorms.scalars.real_parts_checked`'s residue, and all rescaled
    by :func:`_rescaled`.

    ``spec`` is one law for every matrix or a sequence of N laws, one per
    matrix (:func:`_law_rows`).  The rows of a stack are traced in groups of
    equal m, because m sets the level h = ceil(m/2) at which the traces
    split, and so the rounding of every trace above it; tau is zero above
    each row's m, so each row gets the value it gets alone under its law.
    """
    stacks, scale, laws, rows = _prepared(Z, spec, d, hermitian=False)
    if not stacks:
        return np.empty(0)
    c, m, den = _factors(laws, rows)
    half = d // 2
    groups = [(S, part, mk) for S, part in _stack_rows(stacks) for mk in set(m[part].tolist())]
    if len(groups) == 1:
        tau = _adjoint_count_trace_stack(stacks[0], groups[0][2], half)
    else:  # a row keeps zeros above its m
        tau = np.zeros(c.shape + (half + 1,), dtype=complex)
        for S, part, mk in groups:
            group = m[part] == mk
            tau[part][group, :mk] = _adjoint_count_trace_stack(S[group], mk, half)
    return _rescaled(_bell_coefficient(tau * c[:, :, None], d, den, comb(d, half)), scale, d)


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


def norm_from_power(Z: Matrix, value, d: int) -> float:
    """The norm of Z from its norm power ``value`` by :func:`norm_root`,
    which refuses a negative value.  A float 0.0 for a nonzero Z is refused
    too: only a float evaluation that lost its precision gives either."""
    if value == 0 and not is_exact(value) and Z.array.any():
        raise PreconditionError(
            f"norm power {value!r} for a nonzero matrix: the float evaluation lost its precision"
        )
    return norm_root(value, d)


def norm(Z: Matrix, spec: DistributionSpec, d: int) -> float:
    """The norm itself: general_norm_pow(Z, spec, d) ** (1/d), checked by
    :func:`norm_from_power`."""
    return norm_from_power(Z, general_norm_pow(Z, spec, d), d)


# -- symbolic output ---------------------------------------------------------


def formula_terms(kappas, d: int, hermitian_mode: bool = False):
    """The terms of the norm power's trace polynomial, one partition at a
    time, as ``(exact, partitions)``.

    In general mode a partition pi of d contributes its aggregated adjoint
    placements (:func:`placement_terms`), each with coefficient
    multiplicity * kappa_pi / (y_pi * C(d, d/2)); in Hermitian mode its one
    term, the product of tr(A^part) (words of 'z'), has kappa_pi / y_pi.
    The quotients kappa_pi / (y_pi C(d, d/2)) of all partitions are formed
    first (:func:`_kappa_quotient`), and a partition whose quotient is 0
    is skipped.  ``exact`` tells whether every other quotient is an exact
    rational, before any table is built.

    ``partitions`` yields, in the order of :func:`enumerate_partitions`,
    ``(table, coeffs)`` for each partition kept: ``table`` its
    ((factor words, multiplicity), ...) sorted by factor tuple, built when
    the iterator reaches it, and ``coeffs`` the coefficient of each
    distinct multiplicity as ``(num, den)``, coprime ints with den > 0 for
    an exact quotient, else (value, 1) in the cumulants' own arithmetic.
    Cumulants may be Fractions or any ring elements supporting * and /.
    """
    _require_even_degree(d)
    ks = kappas.kappas if isinstance(kappas, CumulantVector) else tuple(kappas)
    if len(ks) < d:
        raise PreconditionError(f"need cumulants up to degree {d}, got {len(ks)}")
    denom = 1 if hermitian_mode else comb(d, d // 2)
    quotients = []
    for p in enumerate_partitions(d):
        num, den = _kappa_quotient(ks, p.parts, y_of(p) * denom)
        if num != 0:
            quotients.append((p.parts, num, den))
    exact = all(isinstance(num, int) for _, num, _ in quotients)
    return exact, _partition_terms(quotients, hermitian_mode)


def _partition_terms(quotients, hermitian_mode: bool):
    """The ``partitions`` iterator of :func:`formula_terms`."""
    for parts, num, den in quotients:
        if hermitian_mode:
            table = ((tuple(sorted("z" * part for part in parts)), 1),)
        else:
            table = placement_terms(parts)
        mults = {mult for _, mult in table}
        if isinstance(num, int):
            g = math.gcd(num, den)
            num, den = num // g, den // g
            coeffs = {}
            for m in mults:
                # num and den are coprime: m * num / den reduces by gcd(m, den)
                g = math.gcd(m, den)
                coeffs[m] = (m // g * num, den // g)
        else:
            coeffs = {m: (m * num / den, 1) for m in mults}
        yield table, coeffs


class _Rendered(dict):
    """Word -> printed form, each word rendered on its first lookup."""

    __slots__ = ("form",)

    def __init__(self, form):
        super().__init__()
        self.form = form

    def __missing__(self, word):
        name = self[word] = self.form(word)
        return name


class FormulaRenderer:
    """The printed terms of a trace polynomial, the one renderer of
    :func:`write_formula`.

    A term is a text line, its coefficient and then its factors, a
    repeated factor as w^count (``tr(Z*Z) tr(Z)^2``; ``tr(A^2)`` in
    Hermitian mode), or a JSON object ``{"coeff": [num, den], "factors":
    ["sZ", "Z", "Z"]}`` (``"A^2"`` in Hermitian mode), exactly as
    ``json.dumps`` writes it.  :attr:`names` renders each distinct factor
    word once, and the JSON form quotes each once.
    """

    def __init__(self, hermitian: bool, as_json: bool):
        if as_json:
            form = (lambda w: f"A^{len(w)}") if hermitian else word_json
        elif hermitian:
            form = lambda w: "tr(A)" if len(w) == 1 else f"tr(A^{len(w)})"  # noqa: E731
        else:
            form = lambda w: f"tr({word_text(w)})"  # noqa: E731
        self.as_json = as_json
        self.separator = ", " if as_json else "\n"
        self.names = _Rendered(form)
        self._quoted = _Rendered(lambda w: json.dumps(form(w)))

    def chunk(self, table, coeffs) -> str:
        """The terms ((factor words, key), ...) of ``table``, each with the
        coefficient ``coeffs[key]`` = (num, den), joined by
        :attr:`separator`; each coefficient is rendered once."""
        if self.as_json:
            heads = {k: f'{{"coeff": [{n}, {q}], "factors": [' for k, (n, q) in coeffs.items()}
            quoted = self._quoted.__getitem__
            return ", ".join([heads[k] + ", ".join(map(quoted, key)) + "]}" for key, k in table])
        heads = {k: f"{n} " if q == 1 else f"{n}/{q} " for k, (n, q) in coeffs.items()}
        names = self.names
        lines = []
        for key, k in table:
            distinct = dict.fromkeys(key)
            if len(distinct) == len(key):
                factors = " ".join(map(names.__getitem__, key))
            else:  # a sorted key: each repeated factor once, as w^count
                factors = " ".join(
                    [names[w] if (c := key.count(w)) == 1 else f"{names[w]}^{c}" for w in distinct]
                )
            lines.append(heads[k] + factors)
        return "\n".join(lines)


def write_formula(
    write, kappas, d: int, hermitian_mode: bool = False, as_json: bool = False, fields=None
) -> None:
    """Write the trace polynomial of :func:`symbolic_formula` through
    ``write``, one partition's terms at a time as :func:`formula_terms`
    makes them, without holding the polynomial: one line per term
    (:class:`FormulaRenderer`), or ``0``, and a newline; or ``json.dumps``
    of ``{"degree", "mode", "terms"}`` with the keys of ``fields`` added,
    and a newline.  The JSON form of a polynomial with an inexact
    coefficient raises PreconditionError before anything is written."""
    exact, partitions = formula_terms(kappas, d, hermitian_mode)
    render = FormulaRenderer(hermitian_mode, as_json)
    if as_json:
        if not exact:
            raise PreconditionError("JSON form requires exact rational coefficients")
        mode = "hermitian" if hermitian_mode else "general"
        write(f'{{"degree": {d}, "mode": "{mode}", "terms": [')
    separator = ""
    for table, coeffs in partitions:
        write(separator)
        write(render.chunk(table, coeffs))
        separator = render.separator
    if as_json:
        extra = "".join(f", {json.dumps(k)}: {json.dumps(v)}" for k, v in (fields or {}).items())
        write(f"]{extra}}}\n")
    else:
        write("\n" if separator else "0\n")


@dataclass(eq=True, slots=True)
class TracePolynomial:
    """A rational-coefficient combination of products of canonical trace words.

    ``terms`` maps a sorted tuple of canonical words (the factor multiset of
    one product of traces) to its coefficient.  In Hermitian mode a factor
    word of k letters stands for tr(A^k); in general mode the letters 'z'
    and 's' stand for Z and Z*.  ``terms`` holds no zero coefficient and
    comes in canonical order: by the partition of a term (the multiset of
    its factor lengths) in the reverse-lexicographic order of
    :func:`enumerate_partitions`, then by factor tuple, the order in which
    :func:`symbolic_formula` builds it and :func:`write_formula` prints it.
    """

    degree: int
    hermitian: bool
    terms: dict


def symbolic_formula(kappas, d: int, hermitian_mode: bool = False) -> TracePolynomial:
    """The norm power as a trace polynomial with explicit coefficients,
    the terms of :func:`formula_terms` in one dict.

    Evaluated at a matrix, it gives the norm power (:func:`word_sum_norm_pow`
    sums the same terms).  The terms come out in canonical order (see
    :class:`TracePolynomial`): partitions in the order of
    :func:`enumerate_partitions`, and each partition's table sorted by
    factor tuple.  An exact coefficient is a Fraction, one per distinct
    coefficient of a partition; every coefficient is nonzero.
    """
    _, partitions = formula_terms(kappas, d, hermitian_mode)
    terms: dict = {}
    for table, coeffs in partitions:
        coeff = {m: Fraction(n, q) if isinstance(n, int) else n for m, (n, q) in coeffs.items()}
        # factor tuples never repeat: their word lengths give the partition
        terms.update((factors, coeff[mult]) for factors, mult in table)
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
    e = np.array([cmath.exp(2j * math.pi * j / q) for j in range(q)])[:, None, None]
    Zc = Z.to_numpy()
    M = Zc * e + np.conjugate(Zc).T * np.conjugate(e)
    total = 0.0
    for value in hermitian_norm_pow_stack(M, spec, d).tolist():
        total += value
    quad = total / q / comb(d, d // 2)
    return quad, word_sum_norm_pow(Z, spec, d)
