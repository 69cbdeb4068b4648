"""Evaluation routes for the random-vector matrix norms.

One kernel computes the d-th power of the norm on two routes: the trace
powers tr M^k of a stack of point matrices M, and the complete-Bell
recurrence B_n = sum_k C(n-1, k-1) a_k B_{n-k} on a_k = kappa_k tr M^k,
which gives the Hermitian form H(M) = B_d(a_1, ..., a_d) / d!.

* Hermitian inputs: the norm power of A is H(A), one point M = A;
* the constant-term route (arbitrary square inputs): the constant term in
  s of H(M(s)), M(s) = s Z + s^{-1} Z*, is C(d, d/2) times the norm power,
  and H(M(s)) is a polynomial of degree d/2 in s^2 and s^-2, so its mean
  over the q = d/2 + 1 points s_j = exp(i pi j / q) is that constant
  term.  On exact (real rational) input, P(u) = d! H(Z + u Z^T)
  is palindromic of degree d, and [u^{d/2}] P, the same constant term, is
  a fixed rational combination of P(1), ..., P(q)
  (:func:`_palindromic_weights`).  A row equal to its adjoint, exactly, is
  its own one point: the circle points of a Hermitian Z are real multiples
  of Z, so its norm power is H(Z);
* the series route (Hermitian inputs, distributions with a moment
  generating function): [t^d] exp(sum_j kappa_j tr(A^j) t^j / j!), which is
  B_d(kappa_1 tr A, ..., kappa_d tr A^d) / d!, so it is the Hermitian route
  with the same Bell recurrence on exact input.  On a float stack only its
  rounding differs: the exponential's derivative recurrence
  (:func:`_exp_stack`) takes the place of :func:`_bell_stack`.  It is the
  CLI's ``series`` method and the check behind ``auto``.

One independent route serves as the oracle:

* the adjoint-placement trace-word sum, sum over partitions of kappa_pi *
  T_pi(Z) / y_pi with T_pi averaging the C(d, d/2) ways of distributing
  d/2 adjoints over the letter slots: :func:`word_sum_norm_pow` sums the
  terms of the trace polynomial that :func:`formula_terms` makes (which
  :func:`symbolic_formula` collects and :func:`write_formula`, for the
  ``formula`` command, writes as it goes), multiplying out every distinct
  trace word once.  Both weigh a partition by kappa_pi / (y_pi C(d, d/2))
  from one helper, :func:`_kappa_quotients`, which reads the cumulants'
  numerators and denominators once per call.  It uses no cumulant
  recurrence and no point matrices,
  and is compared against by the CLI's ``words`` method, the circle-average
  check and the ``paths`` suite.

Each route has one body, a function of one stack of matrices (N, n, n)
and its laws (``*_norm_pow_stack``); the single-matrix function of the
same name is its stack of one and returns a Fraction or a float.  A
matrix Z goes into a stack of larger matrices as the zero-padded
diag(Z, 0), whose word traces, and so whose norm, are Z's.  A body runs
one trace kernel, :func:`_trace_power_stack` (Hermitian, constant term,
series) or :func:`~rvnorms.words.word_traces` (trace words), between
shared pieces, run once a call, that alone, with the word sum's sums
after its traces, tell exact from float input:

* :func:`_prepared` checks and scales the input.  An exact Matrix whose
  cumulants are exact too becomes the int stack of one L Z, L the lcm of
  its entry denominators; anything else a complex stack with a law axis
  (one law for every matrix or one per matrix, :func:`_law_rows`), each
  matrix times the power of two 2^-e that puts its largest entry in
  [1/2, 1), which is exact, and a law whose float cumulant factors all
  underflow is refused;
* :func:`_trace_power_stack` forms every power up to the top cumulant of
  a float stack, but only A^1..A^n of an int stack, whose longer traces
  it continues by Newton's identities and Cayley--Hamilton in Python ints
  (:func:`_int_power_sums`);
* :func:`_factors` gives the cumulant factors, and the recurrence runs on
  them: in Python ints on a cached plan (:func:`_bell`), or normalized, on
  B_n / n!, over the float stack (:func:`_bell_stack`, or
  :func:`_exp_stack` on the series route);
* :func:`_rescaled` undoes the scale by absolute homogeneity,
  |||cZ||| = |c| |||Z|||: the exact power is the one Fraction of the
  form's int numerator over its denominator times L^d, each float power
  the form times 2^(d e) in one ``ldexp``.  A float power that leaves the
  normal range there is refused rather than returned as 0.0, a subnormal
  or inf.

An exact evaluation thus runs in Python ints from the scaled matrix to one
Fraction; its law- and degree-level setup (the Bell plan, the palindromic
weights) is cached, and nothing is cached per matrix.

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
    scale_exponent,
    scale_exponents,
)
from .partitions import enumerate_partitions, y_of
from .scalars import is_exact, real_parts_checked
from .words import placement_terms, word_json, word_table, word_text, word_traces


def _require_even_degree(d: int) -> None:
    if not isinstance(d, int) or d < 2 or d % 2:
        raise PreconditionError(
            f"analytic paths require an even degree d >= 2, got {d!r} "
            "(the Monte Carlo oracle covers odd d)"
        )


def _prepared(Z, spec, d: int, hermitian: bool):
    """(stack, scale, laws, rows) for a :class:`Matrix` or a stack
    (N, n, n) as an array: checked for an even degree d (and, with
    ``hermitian``, for Hermitian input) and scaled for a route's trace
    kernels.  ``laws`` holds the :class:`CumulantVector` of each distinct
    law, looked up once.

    An exact Matrix whose cumulants are exact too gives the int stack of
    one L Z, (1, n, n) with ``dtype=object``, each entry
    v.numerator * (L // v.denominator) with L the lcm of its entry
    denominators, scale L and rows None (no law axis).
    Anything else, a Matrix as a stack of one, gives each Z[i] * 2**-e[i]
    (:func:`scale_exponents`), scale e and, per row, the index of its law
    (:func:`_law_rows`).  Input that is not a Matrix or an array (N, n, n),
    or has a non-finite entry, raises ValueError.  A law whose float
    factors kappa_k / k! (:attr:`CumulantVector.normalized`) up to d
    include one that overflows, or all underflow, to 0.0 or a subnormal,
    raises PreconditionError that names it: the one has no float value,
    and the other's terms are 0.0 or subnormal before any trace multiplies
    them, so no float evaluation keeps the digits of its norm power.
    """
    _require_even_degree(d)
    if isinstance(Z, Matrix):
        if Z.is_exact():
            if hermitian and not is_hermitian(Z):
                raise NonHermitianError("the Hermitian route requires a Hermitian matrix")
            law = distribution_cumulants(spec, d)
            if all(map(is_exact, law.kappas)):
                L = lcm(*(v.denominator for v in Z.array.flat))
                ints = [[v.numerator * (L // v.denominator) for v in row] for row in Z.array.tolist()]
                return np.array([ints], dtype=object), L, [law], None
        Z = Z.array[None]
    if not isinstance(Z, np.ndarray) or Z.ndim != 3 or Z.shape[1] != Z.shape[2] or not Z.shape[1]:
        got = Z.shape if isinstance(Z, np.ndarray) else type(Z).__name__
        raise ValueError(f"a Matrix or a stack of square matrices (N, n, n) is required, got {got}")
    Z = Z.astype(complex, copy=False)
    max_abs = np.abs(Z).max(axis=(1, 2))
    if not np.isfinite(max_abs).all():
        raise ValueError("non-finite entry")
    if hermitian and not hermitian_mask(Z, hermitian_tolerance(max_abs)).all():
        raise NonHermitianError("the Hermitian route requires Hermitian matrices")
    specs, rows = _law_rows(spec, len(Z))
    e = scale_exponents(max_abs)
    laws = [distribution_cumulants(law, d) for law in specs]
    for law, cv in zip(specs, laws):
        try:
            factors = cv.normalized
        except PreconditionError as exc:
            raise PreconditionError(f"{law.label()}: {exc}") from None
        if all(abs(x) < sys.float_info.min for x in factors):
            raise PreconditionError(
                f"{law.label()}: every float cumulant factor kappa_k / k! up to "
                f"degree {d} underflows (is 0.0 or subnormal)"
            )
    return Z * np.ldexp(1.0, -e)[:, None, None], e, laws, rows


def _rescaled(total, scale, d: int) -> np.ndarray:
    """The norm powers of a prepared stack (:func:`_prepared`) from
    ``total``, the degree-d form at each scaled matrix, by homogeneity.

    On the exact stack of one, ``total`` is the pair (num, den) with
    num / den the form at L Z, and the norm power is the one Fraction
    num / (den L^d), in an object array of one.  On a float stack,
    ldexp(total[i], d*e[i]) for each row, exact
    unless the result is subnormal, after a complex total is checked real
    by :func:`~rvnorms.scalars.real_parts_checked`.  A float result
    outside the normal range is refused, the first in row order: 0.0 for a
    nonzero matrix would break strict positivity, a subnormal keeps too few
    digits for its d-th root, and inf is no value.
    """
    if isinstance(scale, int):
        num, den = total
        return np.array([Fraction(num, den * scale**d)], dtype=object)
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


def _bell(rows, d: int, den, ks):
    """B_d(a_1, ..., a_d) for each row of exact input, as (numerators b,
    common denominator D): row i's value is b[i] / D.

    ``rows[i][k-1]`` is the numerator of row i's a_k over den[k], and only
    the k of ``ks``, the indices at which the law's a_k can be nonzero
    (ascending, each at most d and len(rows[i])), are summed; every other
    a_k must be 0.  The recurrence B_n = sum_k C(n-1, k-1) a_k B_{n-k},
    B_0 = 1, runs in Python ints on the plan of :func:`_bell_plan`, one
    tuple of (weight, k-1, n-k) triples per n, with no gcd taken.  The
    plan depends on d, the law's denominators and ``ks`` alone, never on
    the rows, so it is formed once per law and degree and read on every
    later call: its cache holds 16 plans, each under 0.7 MB at d = 100
    for the CLI's laws (the largest, pareto:alpha=1001/2; 0.14 MB for
    rademacher), so at most about 11 MB in all.
    """
    plan, D = _bell_plan(d, tuple(den[k] for k in ks), tuple(ks))
    out = []
    for a in rows:
        b = [1]
        for terms in plan:
            b.append(sum([w * a[i] * b[j] for w, i, j in terms]))
        out.append(b[d])
    return out, D


@lru_cache(maxsize=16)
def _bell_plan(d: int, dens: tuple, ks: tuple):
    """(plan, D_d): the law- and degree-level setup of :func:`_bell`.

    B_n is kept as a numerator over D_n = lcm_k(den_k D_{n-k}), k in ``ks``
    up to n, den_k the denominator ``dens`` gives k, so that integer input
    stays in integers.  ``plan[n-1]`` holds, for each such k, the triple
    (C(n-1, k-1) D_n / (den_k D_{n-k}), k-1, n-k): the weight of a_k B_{n-k}
    and the indices of a_k and B_{n-k}.

    Cached per (d, dens, ks), which the law and the degree fix and the
    matrix does not: a plan holds sum_n |{k in ks : k <= n}| triples, about
    d^2/2 when every cumulant is nonzero (see :func:`_bell` for the cache's
    bound and memory).
    """
    den = dict(zip(ks, dens))
    D = [1] * (d + 1)
    plan = []
    for n in range(1, d + 1):
        terms = [k for k in ks if k <= n]
        D[n] = lcm(*(den[k] * D[n - k] for k in terms))
        weights = (comb(n - 1, k - 1) * (D[n] // (den[k] * D[n - k])) for k in terms)
        plan.append(tuple((w, k - 1, n - k) for w, k in zip(weights, terms)))
    return tuple(plan), D[d]


def _bell_stack(a: np.ndarray, d: int) -> np.ndarray:
    """B_d / d! for each row of a float stack.

    ``a[:, k-1]`` holds a_k / k! for k = 1..m, m >= 1 (a_k = 0 above m).  The
    recurrence runs normalized, on b_n = B_n / n!, so that no float
    intermediate carries a factor n!:

        b_n = sum_{k=1}^{min(n, m)} (k/n) (a_k / k!) b_{n-k},   b_0 = 1,

    one batched elementwise product per n.  Its sums run in a fixed order,
    over k, one term after another, so every matrix gets the same value
    whatever stack it is evaluated in.
    """
    N, m = a.shape
    R = np.zeros((N, d + 1), dtype=a.dtype)  # R[:, d - n] = b_n
    R[:, d] = 1.0
    weight = _bell_weights(m, d)
    for n in range(1, d + 1):
        K = min(n, m)
        S = a[:, :K] * R[:, d - n + 1 : d - n + 1 + K]  # a_k b_{n-k}, k = 1..K
        R[:, d - n] = (weight[n - 1, :K] * S).cumsum(axis=1)[:, -1]
    # + 0.0: a sum of zeros is +0.0, as a sum started from 0 gives it
    return R[:, 0] + 0.0


@lru_cache(maxsize=32)
def _bell_weights(m: int, d: int) -> np.ndarray:
    """The (d, m) table k/n of :func:`_bell_stack`, row n-1 and column
    k-1, read-only.  Cached per (m, d): 8 m d bytes, at most 80 kB an entry
    at d = 100."""
    weight = np.arange(1, m + 1)[None, :] / np.arange(1, d + 1)[:, None]
    weight.flags.writeable = False
    return weight


@lru_cache(maxsize=64)
def _palindromic_weights(h: int) -> tuple[tuple[int, ...], int]:
    """(w, W), ints with [u^h] P = sum_{u=1}^{h+1} w[u-1] P(u) / W for every
    polynomial P of degree at most 2h with P(u) = u^{2h} P(1/u).

    Such a P is u^h Q(u + 1/u) with deg Q <= h, and [u^h] P is the constant
    term of Q(u + 1/u), sum_k q_{2k} C(2k, k).  That linear form of Q,
    applied to the Lagrange interpolant of Q at the nodes x_u = u + 1/u,
    u = 1..h+1 (distinct), gives w_u = F(l_u) / u^h with l_u the Lagrange
    basis polynomial of x_u.  Each l_u is the master polynomial
    prod_v (x - x_v) divided by (x - x_u), by synthetic division, over its
    value at x_u, so all the weights take O(h^2) Fraction operations
    (J.-P. Berrut and L. N. Trefethen, "Barycentric Lagrange
    interpolation", SIAM Review 46, 2004).

    Cached per h: building them costs 0.26 ms at d = 8, about as much as
    the exact evaluation they serve, and 64 entries hold every h = 1..50
    that ``norm --method partition`` reaches (240 kB in all).
    """
    nodes = [Fraction(u * u + 1, u) for u in range(1, h + 2)]
    master = [Fraction(1)]  # coefficients from the top: prod_v (x - x_v)
    for x in nodes:
        master = [c - x * p for c, p in zip(master + [0], [0] + master)]
    weights = []
    for u, x in enumerate(nodes, 1):
        r = [master[0]]  # master / (x - x_u), from the top
        for c in master[1:-1]:
            r.append(c + x * r[-1])
        # F(r) = sum_k C(2k, k) [x^{2k}] r, and r(x_u) by Horner's rule
        functional = sum(comb(j, j // 2) * c for j, c in enumerate(reversed(r)) if j % 2 == 0)
        value = 0
        for c in r:
            value = value * x + c
        weights.append(functional / (value * u**h))
    W = lcm(*(w.denominator for w in weights))
    return tuple(w.numerator * (W // w.denominator) for w in weights), W


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
    """The norm powers of a stack (N, n, n) of Hermitian matrices or one
    Matrix, as an array: each B_d(kappa_1 tr A, ..., kappa_d tr A^d) / d!
    from the trace powers up to its law's top cumulant m, by
    :func:`_point_norm_pow_stack` after every row is checked Hermitian.
    ``spec`` is one law for every matrix or a sequence of N laws, one per
    matrix (:func:`_law_rows`)."""
    return _point_norm_pow_stack(A, spec, d, hermitian=True)


def general_norm_pow(Z: Matrix, spec: DistributionSpec, d: int):
    """Norm power for arbitrary square Z by the constant-term route:

        [s^0] H(s Z + s^{-1} Z*) / C(d, d/2),

    H the Hermitian form B_d(kappa_1 tr M, ..., kappa_d tr M^d) / d!, the
    constant term taken from d/2 + 1 values of H (see
    :func:`_point_norm_pow_stack`).  Equals :func:`word_sum_norm_pow`
    exactly on rational input, is :func:`hermitian_norm_pow` on input equal
    to its adjoint and is strictly positive for Z != 0.  The stack of one of
    :func:`general_norm_pow_stack`: a Fraction on exact input (matrix and
    cumulants), a float otherwise.
    """
    return general_norm_pow_stack(Z, spec, d).item()


def general_norm_pow_stack(
    Z, spec: DistributionSpec | Sequence[DistributionSpec], d: int
) -> np.ndarray:
    """The norm powers of a stack (N, n, n) of arbitrary square matrices or
    one Matrix, as an array, by the constant-term route of
    :func:`general_norm_pow` (:func:`_point_norm_pow_stack`).
    ``spec`` is one law for every matrix or a sequence of N laws, one per
    matrix (:func:`_law_rows`)."""
    return _point_norm_pow_stack(Z, spec, d, hermitian=False)


def _point_norm_pow_stack(Z, spec, d: int, hermitian: bool, kernel=_bell_stack) -> np.ndarray:
    """The body of the Hermitian, series and constant-term routes: each row
    of the prepared stack (:func:`_prepared`) becomes its point matrices
    (:func:`_points`), one Hermitian row one point and any other row
    q = d/2 + 1 points, all traced by :func:`_trace_power_stack` up to the
    row's top cumulant m and put through one Bell recurrence.  On the
    Hermitian and series routes every row is Hermitian; on the
    constant-term route a row is Hermitian if its scaled matrix equals its
    adjoint exactly, which is the input's own equality (the scales are
    exact), and any other row, however near Hermitian, takes its q points.

    A float row's norm power is H(M) at its one point, or the sum of H at
    its q points divided by q C(d, d/2); the exact row's, H(M) at its one
    point, or sum_u w_u H(M_u) / (W C(d, d/2)) with the weights of
    :func:`_palindromic_weights`.  A row whose law has a smaller m than the
    call's largest gets zero factors above it, which add exact zeros at
    the end of each of its sums, so every row's value is the one it gets
    alone under its own law.  Float trace powers must be real to within
    :func:`~rvnorms.scalars.real_parts_checked`'s residue.  ``kernel`` is
    the float stack's recurrence (the series route passes
    :func:`_exp_stack`); the exact row always takes :func:`_bell`.
    """
    S, scale, laws, rows = _prepared(Z, spec, d, hermitian)
    if not len(S):
        return np.empty(0)
    if hermitian:
        herm = np.ones(len(S), dtype=bool)
    else:
        herm = (S == np.conjugate(S).swapaxes(1, 2)).all((1, 2))
    c, m, den = _factors(laws, rows)
    q = d // 2 + 1
    k = int(herm.sum())
    # the Hermitian rows' points first, then q points for each other row
    if k == len(herm):
        points, owner = S, np.arange(k)
    elif not k:
        points, owner = _points(S, q), np.repeat(np.arange(len(herm)), q)
    else:
        points = np.concatenate([S[herm], _points(S[~herm], q)])
        owner = np.concatenate([np.flatnonzero(herm), np.repeat(np.flatnonzero(~herm), q)])
    a = _trace_power_stack(points, m[owner]) * c[owner]
    if den is not None:  # the exact row, in Python ints to one Fraction
        ks = [k for k, x in enumerate(c[0].tolist(), 1) if x]
        b, D = _bell(a.tolist(), d, den, ks)
        if herm[0]:
            return _rescaled((b[0], D * factorial(d)), scale, d)
        w, W = _palindromic_weights(d // 2)
        return _rescaled((sum(map(mul, w, b)), W * D * factorial(d) * comb(d, d // 2)), scale, d)
    values = kernel(a, d)
    if k == len(herm):
        return _rescaled(values, scale, d)
    means = values[k:].reshape(-1, q).sum(axis=1) / (q * float(comb(d, d // 2)))
    if not k:
        return _rescaled(means, scale, d)
    total = np.empty(len(herm))
    total[herm] = values[:k]
    total[~herm] = means
    return _rescaled(total, scale, d)


def _points(S: np.ndarray, q: int) -> np.ndarray:
    """(N q, n, n): the q point matrices of each matrix of a prepared stack
    S (N, n, n), a row's points in a run.  On a float stack the Hermitian
    s_j Z + conj(s_j) Z* at s_j = exp(i pi j / q), j = 0..q-1
    (:func:`_circle_nodes`), whose Hermitian forms are the values at the
    q-th roots of unity s_j^2 of a polynomial of degree d/2 in s^2 and
    s^-2, so that their mean is its constant term; on the exact int stack
    L Z + u (L Z)^T, u = 1..q, at which d! H is the palindromic polynomial
    P(u) of :func:`_palindromic_weights`."""
    N, n, _ = S.shape
    if S.dtype == object:
        u = np.arange(1, q + 1, dtype=object)[:, None, None]
        return (S[:, None] + u * S.swapaxes(1, 2)[:, None]).reshape(N * q, n, n)
    Y = S[:, None] * _circle_nodes(q)  # s_j Z
    # conj(s_j) Z* is (s_j Z)*, exactly: the float product of conjugates is
    # the conjugate of the product
    return (Y + np.conjugate(Y).swapaxes(2, 3)).reshape(N * q, n, n)


@lru_cache(maxsize=64)
def _circle_nodes(q: int) -> np.ndarray:
    """(q, 1, 1): s_j = exp(i pi j / q), j = 0..q-1, read-only.  Cached
    per q: 16 q bytes an entry."""
    s = np.exp(1j * np.pi * np.arange(q) / q)[:, None, None]
    s.flags.writeable = False
    return s


def _trace_power_stack(A: np.ndarray, m: np.ndarray) -> np.ndarray:
    """(N, max(m)): tr A^k for k = 1..m[i] and 0 above.

    A complex stack, of Hermitian matrices, gives the real parts, each
    checked by :func:`real_parts_checked`, from one batched product per
    power up to max(m).  A stack of exact ints (``dtype=object``) gives
    Python ints from the powers A^1..A^n alone, n the matrix size, and
    continues above n by the characteristic polynomial
    (:func:`_int_power_sums`), so that its cost grows with max(m) by n int
    products per power, not a matrix product.  The kernel caches nothing:
    its inputs are the matrices.  Its callers' caches are per q
    (:func:`_circle_nodes`, 64 entries of 16 q bytes) and per law and
    degree (:func:`_bell_plan`, :func:`_bell_weights`,
    :func:`_palindromic_weights`)."""
    top = int(m.max(initial=0))
    if A.dtype == object:
        tr = _int_power_sums(A, top)
    else:
        P = np.empty((top,) + A.shape, dtype=A.dtype)  # P[k-1] = A^k
        if top:
            P[0] = A
        for k in range(1, top):
            np.matmul(P[k - 1], A, out=P[k])
        tr = P.trace(axis1=2, axis2=3).T
    if (m < top).any():
        tr = np.where(np.arange(1, top + 1) <= m[:, None], tr, 0)
    return tr if A.dtype == object else real_parts_checked(tr)


def _int_power_sums(A: np.ndarray, top: int) -> np.ndarray:
    """(N, top): the power sums p_k = tr A^k, k = 1..top, of each matrix of
    an int stack (N, n, n) (``dtype=object``), in Python ints.

    Only A^1..A^K, K = min(n, top), are formed: one batched product per
    power below K, and p_k as the elementwise sum of A^(k-1) times A^T.
    Above n the characteristic polynomial continues the sums.  With
    f_i = (-1)^(i-1) e_i, e_i its coefficients (det(x - A) =
    sum_i (-1)^i e_i x^(n-i)), Newton's identities read e_1..e_n off
    p_1..p_n, k f_k = p_k - sum_{i<k} f_i p_{k-i}, each division by k exact
    since e_k is an integer (a remainder raises ArithmeticError); and
    Cayley--Hamilton gives p_k = sum_{i=1}^{n} f_i p_{k-i} for k > n, n int
    products per power in place of a matrix product.
    """
    N, n, _ = A.shape
    K = min(n, top)
    if not K:
        return np.empty((N, 0), dtype=object)
    P, AT, sums = A, A.swapaxes(1, 2), [A.trace(axis1=1, axis2=2)]
    for k in range(2, K + 1):
        sums.append((P * AT).sum((1, 2)))  # tr(A^(k-1) A)
        if k < K:
            P = np.matmul(P, A)
    rows = np.stack(sums, 1).tolist()
    if top > n:
        for p in rows:
            f = []  # f_k, ..., f_1
            for k in range(1, n + 1):
                fk, r = divmod(p[k - 1] - sum(map(mul, f, p)), k)
                if r:
                    raise ArithmeticError(f"Newton's identities left remainder {r} at k={k}")
                f.insert(0, fk)
            for k in range(n + 1, top + 1):
                p.append(sum(map(mul, f, p[k - 1 - n :])))
    return np.array(rows, dtype=object)


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
    """The norm powers of a stack (N, n, n) of Hermitian matrices or one
    Matrix, as an array, by the series route of :func:`series_norm_pow`:
    :func:`_point_norm_pow_stack` on the Hermitian route, with the float
    stack's recurrence :func:`_exp_stack` in place of :func:`_bell_stack`.

    ``spec`` is one law for every matrix or a sequence of N laws, one per
    matrix (:func:`_law_rows`); every law needs a moment generating
    function.  The coefficient of t^j is kappa_j / j! times tr A^j, so the
    series' exponential at t^d is B_d(kappa_1 tr A, ..., kappa_d tr A^d) / d!
    and the exact row takes the Bell recurrence in ints (:func:`_bell`),
    equal to :func:`hermitian_norm_pow`; a float row differs from it only
    in its rounding.
    """
    _require_mgf(spec)
    return _point_norm_pow_stack(A, spec, d, hermitian=True, kernel=_exp_stack)


def _exp_stack(f: np.ndarray, d: int) -> np.ndarray:
    """[t^d] exp(sum_j f[:, j-1] t^j) for each row of a float stack (N, m),
    1 <= m <= d, by the derivative recurrence g' = f' g:

        g_k = (sum_{j=1}^{min(k, m)} (j f_j) g_{k-j}) / k,   g_0 = 1,

    one batched product per k.  Each sum runs over j in ascending order,
    one term after another from 0, and a term whose f_j is 0 is skipped
    (it adds +0.0, never 0 * inf = nan), so every row gets the value that
    this loop gives its own series alone, whatever stack it is evaluated
    in.  With f_j = kappa_j tr A^j / j! it is the Bell recurrence of
    :func:`_bell_stack`, in another rounding.
    """
    N, m = f.shape
    jf = f * np.arange(1, m + 1)
    zero = f == 0
    skip = zero.any()
    R = np.zeros((N, d + 1))  # R[:, d - k] = g_k
    R[:, d] = 1.0
    # as in Python floats, an overflow gives inf and inf * 0 nan, silently
    with np.errstate(over="ignore", invalid="ignore"):
        for k in range(1, d + 1):
            K = min(k, m)
            S = jf[:, :K] * R[:, d - k + 1 : d - k + 1 + K]  # j f_j g_{k-j}
            if skip:
                S[zero[:, :K]] = 0.0
            # + 0.0: a sum of zeros is +0.0, as a sum started from 0 gives it
            R[:, d - k] = (S.cumsum(axis=1)[:, -1] + 0.0) / k
    return R[:, 0]


def word_sum_norm_pow(Z: Matrix, spec: DistributionSpec, d: int):
    """Norm power for arbitrary square Z: sum_pi kappa_pi * T_pi(Z) / y_pi,
    over the terms of :func:`symbolic_formula` (:func:`word_table`).  The
    stack of one of :func:`word_sum_norm_pow_stack`: a Fraction on exact
    input (matrix and cumulants), a float otherwise.  This is the
    independent oracle for :func:`general_norm_pow`, equal to it exactly
    on rational input.
    """
    return word_sum_norm_pow_stack(Z, spec, d).item()


def _kappa_quotients(kappas, partitions, scale: int) -> list:
    """(num, den) for each (parts, y_pi) of ``partitions``, with num / den =
    kappa_pi / (y_pi * scale): where the cumulants of pi are exact, ints,
    the product of their numerators over the product of their denominators
    times y_pi * scale, not reduced; otherwise the float arithmetic of
    kappa_pi / (y_pi * scale) over 1.  Each cumulant's numerator and
    denominator are read once per call, not once per partition."""
    nums, dens, inexact = [None], [None], set()
    for k, kappa in enumerate(kappas, 1):
        if is_exact(kappa):
            nums.append(kappa.numerator)
            dens.append(kappa.denominator)
        else:
            nums.append(None)
            dens.append(None)
            inexact.add(k)
    out = []
    for parts, y in partitions:
        if inexact.isdisjoint(parts):
            num = prod(map(nums.__getitem__, parts))
            out.append((num, prod(map(dens.__getitem__, parts), start=y * scale)))
        else:
            out.append((prod([kappas[k - 1] for k in parts], start=1) / (y * scale), 1))
    return out


@lru_cache(maxsize=64)
def _term_coefficients(kappas: tuple, types: tuple, d: int, support: frozenset) -> np.ndarray:
    """Each term's coefficient mult * kappa_pi / (y_pi * C(d, d/2)) in
    :func:`word_table` (d, support), as the float that
    :func:`symbolic_formula`'s coefficient rounds to: where the cumulants of
    pi are exact, an int quotient of :func:`_kappa_quotients`, rounded once;
    otherwise :func:`symbolic_formula`'s float arithmetic.  0 where
    kappa_pi = 0.  The cumulants' ``types`` are part of the cache key, since
    an exact and a float cumulant of equal value give differently rounded
    coefficients."""
    table = word_table(d, support)
    bases = _kappa_quotients(kappas, table.partitions, comb(d, d // 2))
    terms = zip(table.mults, map(bases.__getitem__, table.part_of))
    out = np.array([mult * num / den for mult, (num, den) in terms])
    out.flags.writeable = False
    return out


def word_sum_norm_pow_stack(
    Z, spec: DistributionSpec | Sequence[DistributionSpec], d: int
) -> np.ndarray:
    """The norm powers of a stack (N, n, n) of arbitrary square matrices or
    one Matrix, as an array, by the trace-word sum of
    :func:`word_sum_norm_pow`, at the scale of :func:`_prepared`.

    ``spec`` is one law for every matrix or a sequence of N laws, one per
    matrix (:func:`_law_rows`).  The words' traces come from one law-free
    table (:func:`word_table`, :func:`word_traces`) over the partitions
    whose parts are all indices k with kappa_k != 0 under some law of the
    call.

    On the exact stack of one, each partition's terms are summed in ints
    and the sum is weighed by :func:`_kappa_quotients`, with one Fraction at
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
    S, scale, laws, rows = _prepared(Z, spec, d, hermitian=False)
    if not len(S):
        return np.empty(0)
    kappas = [law.kappas for law in laws]
    support = frozenset(k for ks in kappas for k, kappa in enumerate(ks, 1) if kappa != 0)
    table = word_table(d, support)
    traces = word_traces(S, table.plan)
    if rows is None:
        values, traces = np.array(table.mults, dtype=object), traces[0]
        for words in table.factors:
            values[: len(words)] *= traces[words]
        sums = [0] * len(table.partitions)
        for pi, value in zip(table.part_of, values.tolist()):
            sums[pi] += value
        quotients = _kappa_quotients(kappas[0], table.partitions, comb(d, d // 2))
        D = lcm(*(den for num, den in quotients if num))
        total = sum(num * s * (D // den) for (num, den), s in zip(quotients, sums) if num)
        return _rescaled((total, D), scale, d)
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
    first, in one call of :func:`_kappa_quotients` that reads each
    cumulant's numerator and denominator once, and a partition whose
    quotient is 0 is skipped.  ``exact`` tells whether every other
    quotient is an exact rational, before any table is built.  A float
    quotient that is not finite, or is 0.0 although no cumulant of its
    partition is 0, raises PreconditionError, and so do float cumulants
    that leave no term at all: each is a coefficient lost to overflow or
    underflow, which would print wrong or be dropped.

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
    partitions = [(p.parts, y_of(p)) for p in enumerate_partitions(d)]
    quotients = []
    for (parts, _), (num, den) in zip(partitions, _kappa_quotients(ks, partitions, denom)):
        if isinstance(num, float) and not (
            math.isfinite(num) and (num or not all(ks[k - 1] for k in parts))
        ):
            cause = "underflow" if num == 0 else "overflow"
            raise PreconditionError(
                f"the float coefficient of partition {parts} is {num!r}: its cumulants {cause}"
            )
        if num != 0:
            quotients.append((parts, num, den))
    if not quotients and not all(map(is_exact, ks[:d])):
        raise PreconditionError(
            f"no term of degree {d} is left: the float cumulants underflow to 0.0"
        )
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


def write_formula(
    write, kappas, d: int, hermitian_mode: bool = False, as_json: bool = False, fields=None
) -> None:
    """Write the trace polynomial of :func:`symbolic_formula` through
    ``write``, one partition's terms at a time as :func:`formula_terms`
    makes them, without holding the polynomial.

    As text: one line per term, its coefficient and then its factors, a
    repeated factor as w^count (``tr(Z*Z) tr(Z)^2``; ``tr(A^2)`` in
    Hermitian mode), or ``0``, and a newline.  As JSON: ``json.dumps`` of
    ``{"degree", "mode", "terms"}`` with the keys of ``fields`` added, and
    a newline, each term ``{"coeff": [num, den], "factors": ["sZ", "Z",
    "Z"]}`` (``"A^2"`` in Hermitian mode).  Each distinct factor word is
    rendered once (and quoted once), and each coefficient once per
    partition.  The JSON form of a polynomial with an inexact coefficient
    raises PreconditionError before anything is written."""
    exact, partitions = formula_terms(kappas, d, hermitian_mode)
    separator = ""
    if as_json:
        if not exact:
            raise PreconditionError("JSON form requires exact rational coefficients")
        form = (lambda w: f"A^{len(w)}") if hermitian_mode else word_json
        quoted = _Rendered(lambda w: json.dumps(form(w))).__getitem__
        mode = "hermitian" if hermitian_mode else "general"
        write(f'{{"degree": {d}, "mode": "{mode}", "terms": [')
        for table, coeffs in partitions:
            heads = {k: f'{{"coeff": [{n}, {q}], "factors": [' for k, (n, q) in coeffs.items()}
            write(separator)
            write(", ".join([heads[k] + ", ".join(map(quoted, key)) + "]}" for key, k in table]))
            separator = ", "
        extra = "".join(f", {json.dumps(k)}: {json.dumps(v)}" for k, v in (fields or {}).items())
        write(f"]{extra}}}\n")
        return
    if hermitian_mode:
        names = _Rendered(lambda w: "tr(A)" if len(w) == 1 else f"tr(A^{len(w)})")
    else:
        names = _Rendered(lambda w: f"tr({word_text(w)})")
    for table, coeffs in partitions:
        heads = {k: f"{n} " if q == 1 else f"{n}/{q} " for k, (n, q) in coeffs.items()}
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
        write(separator)
        write("\n".join(lines))
        separator = "\n"
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
    (:func:`word_sum_norm_pow`).  The float constant-term route takes this
    same circle mean through the same kernel, only at d/2 + 1 nodes, so
    the check is independent of that route through its node count alone;
    its independent comparison is the one against the trace words.
    The integrand is a trigonometric polynomial of degree at most d, so the
    trapezoid rule on its 2d + 2 equally spaced points is exact up to
    roundoff.  The quadrature runs on Z 2^-k (:func:`scale_exponent`),
    which is exact, and its mean is rescaled by 2^(d k) as
    :func:`_rescaled` rescales a route's power, so that a Z near the float
    limit gives finite points.  Returns (quadrature value as a float,
    trace-word value as :func:`word_sum_norm_pow` returns it, exact on
    exact input).
    """
    _require_even_degree(d)
    q = 2 * d + 2
    e = np.array([cmath.exp(2j * math.pi * j / q) for j in range(q)])[:, None, None]
    k = scale_exponent(Z)
    Zc = Z.to_numpy() * 2.0**-k
    M = Zc * e + np.conjugate(Zc).T * np.conjugate(e)
    total = 0.0
    for value in hermitian_norm_pow_stack(M, spec, d).tolist():
        total += value
    quad = _rescaled(np.array([total / q / comb(d, d // 2)]), np.array([k]), d).item()
    return quad, word_sum_norm_pow(Z, spec, d)
