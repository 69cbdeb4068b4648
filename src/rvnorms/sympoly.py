"""Symmetric-polynomial calculus: complete homogeneous sums and the
positive-definite combinations H_{d,alpha} of CHS products.

Everything here is plain evaluation at a point; exact inputs give exact
outputs.  ``chs_prefix`` computes h_0..h_d by one prefix dynamic program
(n*d work) and ``chs`` reads h_d from it.

Each form of H_{d,alpha} is a kernel on that prefix h: the partition
expansion (:func:`hunter_expansion`) and the power recurrence
(:func:`hunter_recurrence`).  On an exact point both run in Python ints:
the point is scaled by the lcm L of its denominators
(:func:`_scaled_point`), and since h_k(Lx) = L^k h_k(x) and H_{d,alpha} is
homogeneous of degree d, one Fraction(total, L**d) at the end gives the
value (:func:`_rescaled`).  A point with a float coordinate is evaluated as
it is.  The ``hunter`` verify suite draws its points as ints p/q, scales
them once and runs the same two kernels on the ints.
"""

from __future__ import annotations

from fractions import Fraction
from math import lcm, prod

from .partitions import Partition, enumerate_partitions, hunter_coefficient
from .scalars import is_exact


def chs(d: int, x) -> object:
    """Complete homogeneous symmetric polynomial h_d(x), all degree-d monomials."""
    if d < 0:
        raise ValueError("d must be nonnegative")
    return chs_prefix(d, x)[d]


def chs_prefix(d: int, x) -> list:
    """h_0(x)..h_d(x) in one pass.

    Dynamic program over prefixes: after absorbing x_i,
    h_new[j] = h_old[j] + x_i * h_new[j-1].
    """
    x = list(x)
    h = [1] + [0] * d
    for xi in x:
        for j in range(1, d + 1):
            h[j] = h[j] + xi * h[j - 1]
    return h


def hunter_terms(d: int, alpha: int) -> list[tuple[Partition, int]]:
    """The (partition, coefficient) expansion of H_{d,alpha}, coefficients
    alpha!/((alpha-r)! prod m_i!), partitions with more than alpha parts dropped."""
    out = []
    for p in enumerate_partitions(d):
        c = hunter_coefficient(p, alpha)
        if c:
            out.append((p, c))
    return out


def _scaled_point(x) -> tuple[list, int | None]:
    """(xs, L): an exact point (ints and Fractions) as the ints xs = L x, L
    the lcm of its denominators; a point with any other coordinate comes
    back as it is, with L = None."""
    if not all(is_exact(v) for v in x):
        return x, None
    L = lcm(*(v.denominator for v in x))
    return [v.numerator * (L // v.denominator) for v in x], L


def _rescaled(total, x, L: int | None, d: int):
    """H(x) from total = H(L x), degree-d homogeneous: Fraction(total, L**d)
    when x has a Fraction coordinate and d >= 1, else total itself, so an
    int point gives an int and a float point its float."""
    if L is None or not d or not any(isinstance(v, Fraction) for v in x):
        return total
    return Fraction(total, L**d)


def hunter_expansion(h: list, terms) -> object:
    """H_{d,alpha} from h = ``chs_prefix(d, x)``: the sum over ``terms``,
    the (partition, coefficient) pairs of ``hunter_terms(d, alpha)``, of the
    coefficient times the product of the CHS factors h_{part}.  On int h an
    int."""
    total = 0
    for p, c in terms:
        total = total + c * prod([h[part] for part in p.parts])
    return total


def hunter_recurrence(h: list, alpha: int) -> object:
    """H_{d,alpha} = [t^d] G(t) for G = (sum_k h_k t^k)^alpha, d = len(h) - 1,
    from h = ``chs_prefix(d, x)`` by the power recurrence
    k g_k = sum_{j=1..k} ((alpha+1) j - k) h_j g_{k-j}, g_0 = 1, which
    follows from H G' = alpha H' G; alpha >= 1.

    On int h every g_k is an int (the power of an integer series with
    constant term 1), so the division by k must leave no remainder, else
    ArithmeticError; on any other h, g_k = s / k.
    """
    d = len(h) - 1
    g = [1] + [0] * d
    for k in range(1, d + 1):
        s = sum(((alpha + 1) * j - k) * h[j] * g[k - j] for j in range(1, k + 1))
        if isinstance(s, int):
            g[k], r = divmod(s, k)
            if r:
                raise ArithmeticError(f"power recurrence left remainder {r} at k={k}")
        else:
            g[k] = s / k
    return g[d]


def hunter_poly(d: int, alpha: int, x, terms=None) -> object:
    """H_{d,alpha}(x) = sum over partitions of d with at most alpha parts of
    the coefficient times the product of CHS factors h_{part}(x), by
    :func:`hunter_expansion` at the scaled point.

    ``terms`` is ``hunter_terms(d, alpha)`` when the caller already holds
    it, so that the partitions of d are walked once.  Strictly positive for
    even d and x != 0; alpha = 1 reduces to h_d(x).
    """
    if d < 0:
        raise ValueError("d must be nonnegative")
    x = list(x)
    xs, L = _scaled_point(x)
    total = hunter_expansion(chs_prefix(d, xs), hunter_terms(d, alpha) if terms is None else terms)
    return _rescaled(total, x, L, d)


def hunter_poly_recursive(d: int, alpha: int, x) -> object:
    """H_{d,alpha}(x) by :func:`hunter_recurrence` at the scaled point:
    O(d^2) for every alpha, and independent of the partition expansion in
    :func:`hunter_poly`."""
    if d < 0:
        raise ValueError("d must be nonnegative")
    if alpha < 1:
        raise ValueError("alpha must be >= 1")
    x = list(x)
    xs, L = _scaled_point(x)
    return _rescaled(hunter_recurrence(chs_prefix(d, xs), alpha), x, L, d)
