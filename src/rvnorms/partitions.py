"""Integer partitions and the combinatorial weights attached to them.

Partitions index every expansion in this package: the cumulant-product
norm formulas, the complete Bell polynomials, and the positive-definite
combinations of complete homogeneous symmetric polynomials.  All weights
are exact integers.
"""

from __future__ import annotations

from math import factorial, prod
from typing import Iterable, Iterator


class Partition:
    """A nonincreasing tuple of positive integers.

    >>> p = Partition((4, 4, 2, 1, 1, 1))
    >>> p.d, p.num_parts, p.multiplicities[4]
    (13, 6, 2)
    """

    __slots__ = ("parts", "d", "multiplicities")

    def __init__(self, parts: Iterable[int]):
        parts = tuple(parts)
        for v in parts:
            if not isinstance(v, int) or v < 1:
                raise ValueError(f"parts must be positive integers, got {parts!r}")
        for a, b in zip(parts, parts[1:]):
            if a < b:
                raise ValueError(f"parts must be nonincreasing, got {parts!r}")
        self._fill(parts, sum(parts))

    @classmethod
    def _trusted(cls, parts: tuple[int, ...], d: int) -> "Partition":
        """The partition of ``d`` with ``parts``, which the caller guarantees
        to be a nonincreasing tuple of positive ints summing to ``d``; built
        without the checks."""
        p = cls.__new__(cls)
        p._fill(parts, d)
        return p

    def _fill(self, parts: tuple[int, ...], d: int) -> None:
        self.parts = parts
        self.d = d
        mult: dict[int, int] = {}
        for v in parts:
            mult[v] = mult.get(v, 0) + 1
        self.multiplicities = mult

    @property
    def num_parts(self) -> int:
        return len(self.parts)

    def __iter__(self) -> Iterator[int]:
        return iter(self.parts)

    def __len__(self) -> int:
        return len(self.parts)

    def __eq__(self, other) -> bool:
        if isinstance(other, Partition):
            return self.parts == other.parts
        if isinstance(other, tuple):
            return self.parts == other
        return NotImplemented

    def __hash__(self) -> int:
        return hash(self.parts)

    def __repr__(self) -> str:
        return f"Partition({self.parts!r})"


def enumerate_partitions(d: int) -> list[Partition]:
    """All partitions of ``d`` in reverse-lexicographic order.

    The order is fixed so symbolic output and test fixtures are
    deterministic: (4), (3,1), (2,2), (2,1,1), (1,1,1,1) for d=4.
    ``d = 0`` yields the single empty partition.  Algorithm ZS1 (Zoghbi &
    Stojmenovic, "Fast algorithms for generating integer partitions",
    Int. J. Comput. Math. 70, 1998), in constant amortized time per
    partition; each tuple it yields is a partition of d by construction, so
    it is wrapped without :class:`Partition`'s checks.
    """
    if not isinstance(d, int) or d < 0:
        raise ValueError(f"d must be a nonnegative integer, got {d!r}")
    if d == 0:
        return [Partition._trusted((), 0)]
    # x[1..m] holds the current partition; x[1..h] are its parts above 1
    x = [1] * (d + 1)
    x[1], m, h = d, 1, 1
    out = [Partition._trusted((d,), d)]
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
        out.append(Partition._trusted(tuple(x[1 : m + 1]), d))
    return out


def y_of(p: Partition) -> int:
    """Weight prod_i (i!)^{m_i} * m_i! over the part multiplicities."""
    return prod(factorial(i) ** m * factorial(m) for i, m in p.multiplicities.items())


def hunter_coefficient(p: Partition, alpha: int) -> int:
    """alpha! / ((alpha - r)! * prod_i m_i!) for r = number of parts, 0 when r > alpha.

    This counts ordered assignments of the parts to ``alpha`` labeled slots,
    so it is always a nonnegative integer.  alpha! / (alpha - r)! is formed
    as the falling factorial alpha (alpha - 1) ... (alpha - r + 1), r
    factors, so that its cost does not grow with alpha.
    """
    if not isinstance(alpha, int) or alpha < 1:
        raise ValueError(f"alpha must be a positive integer, got {alpha!r}")
    r = p.num_parts
    if r > alpha:
        return 0
    falling = prod(range(alpha - r + 1, alpha + 1))
    return falling // prod(factorial(m) for m in p.multiplicities.values())
