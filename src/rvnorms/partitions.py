"""Integer partitions and the combinatorial weights attached to them.

Partitions index every expansion in this package: the cumulant-product
norm formulas, the complete Bell polynomials, and the positive-definite
combinations of complete homogeneous symmetric polynomials.  All weights
are exact integers.  A partition is the nonincreasing tuple of its
positive parts.
"""

from __future__ import annotations

from math import factorial, prod


def enumerate_partitions(d: int) -> list[tuple[int, ...]]:
    """All partitions of ``d`` in reverse-lexicographic order.

    The order is fixed so symbolic output and test fixtures are
    deterministic: (4), (3,1), (2,2), (2,1,1), (1,1,1,1) for d=4.
    ``d = 0`` yields the single empty partition ``()``.  Algorithm ZS1
    (Zoghbi & Stojmenovic, "Fast algorithms for generating integer
    partitions", Int. J. Comput. Math. 70, 1998), in constant amortized
    time per partition.
    """
    if not isinstance(d, int) or d < 0:
        raise ValueError(f"d must be a nonnegative integer, got {d!r}")
    if d == 0:
        return [()]
    # x[1..m] holds the current partition; x[1..h] are its parts above 1
    x = [1] * (d + 1)
    x[1], m, h = d, 1, 1
    out = [(d,)]
    while x[1] != 1:
        if x[h] == 2:
            m += 1
            x[h] = 1
            h -= 1
        else:
            # lower x[h] by one and spread the freed units in parts of at most x[h]
            r = x[h] - 1
            t = m - h + 1
            x[h] = r
            while t >= r:
                h += 1
                x[h] = r
                t -= r
            if t == 0:
                m = h
            else:
                m = h + 1
                if t > 1:
                    h += 1
                    x[h] = t
        out.append(tuple(x[1 : m + 1]))
    return out


def _multiplicities(parts: tuple[int, ...]) -> dict[int, int]:
    """{part i: its multiplicity m_i} of a parts tuple."""
    mult: dict[int, int] = {}
    for v in parts:
        mult[v] = mult.get(v, 0) + 1
    return mult


def y_of(parts: tuple[int, ...]) -> int:
    """Weight prod_i (i!)^{m_i} * m_i! over the part multiplicities."""
    return prod(factorial(i) ** m * factorial(m) for i, m in _multiplicities(parts).items())


def hunter_coefficient(parts: tuple[int, ...], alpha: int) -> int:
    """alpha! / ((alpha - r)! * prod_i m_i!) for r = number of parts, 0 when r > alpha.

    This counts ordered assignments of the parts to ``alpha`` labeled slots,
    so it is always a nonnegative integer.  alpha! / (alpha - r)! is formed
    as the falling factorial alpha (alpha - 1) ... (alpha - r + 1), r
    factors, so that its cost does not grow with alpha.
    """
    if not isinstance(alpha, int) or alpha < 1:
        raise ValueError(f"alpha must be a positive integer, got {alpha!r}")
    r = len(parts)
    if r > alpha:
        return 0
    falling = prod(range(alpha - r + 1, alpha + 1))
    return falling // prod(factorial(m) for m in _multiplicities(parts).values())
