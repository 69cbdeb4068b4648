"""Trace-word combinatorics: binary necklaces and adjoint placements.

A word over the letters ``z`` (the matrix) and ``s`` (its adjoint) stands
for a product of matrices inside a trace.  The trace is invariant under
cyclic rotation, so each word is represented by its lexicographically
minimal rotation ('s' sorts before 'z'), a binary necklace.  Collection
stops there: a word and its reversal with letters swapped have conjugate
traces, but we deliberately keep such conjugate pairs as separate terms so
emitted formulas show both, e.g. tr(Z*Z*Z)(tr Z) and tr(ZZZ*)(tr Z*) stay
distinct.

The placement table for a partition aggregates the C(d, d/2) ways of
marking half of the d letter slots as adjoints: the slots are split into
consecutive segments of the part lengths, each segment is read as the
necklace of its rotation class, and identical factor multisets are merged
with a multiplicity.  The table is built one factor multiset at a time,
each exactly once.  The necklaces of each length come from the FKM
algorithm (Ruskey, Savage & Wang, "Generating necklaces", J. Algorithms 13,
1992) with their adjoint counts and class sizes (periods).  For each
distinct part length k with m_k parts a multiset of m_k necklaces of that
length is chosen, pruned on the adjoints still needed so that the total
ends at exactly d/2.  A multiset holding m_c copies of each necklace c is
reached by

    prod_k m_k! * prod_c size(c)^m_c / prod_c m_c!

markings: the m_k segments of length k take the chosen necklaces in
m_k! / prod m_c! orders, and each segment shows any of the size(c)
rotations of its necklace.  The table depends only on the partition, so it
is cached and every numeric or symbolic evaluation reuses it.
"""

from __future__ import annotations

from collections import Counter
from functools import lru_cache
from itertools import accumulate, combinations_with_replacement
from math import comb

from .errors import PreconditionError


@lru_cache(maxsize=None)
def necklaces(k: int) -> tuple[tuple[str, int, int], ...]:
    """The binary necklaces of length ``k >= 1`` in lexicographic order.

    Each is ``(word, adjoints, size)``: the minimal rotation of its class,
    its number of letters 's', and its class size, the number of distinct
    rotations (the word's period).  FKM algorithm: the Lyndon words whose
    length divides k come out in order, each repeated up to length k.
    """
    out = []
    lyndon = "s"
    while lyndon:
        period = len(lyndon)
        if k % period == 0:
            word = lyndon * (k // period)
            out.append((word, word.count("s"), period))
        # the next Lyndon word: extend periodically to length k, drop the
        # trailing 'z's and turn the last 's' into 'z'
        lyndon = (lyndon * (k // period + 1))[:k].rstrip("z")
        if lyndon:
            lyndon = lyndon[:-1] + "z"
    return tuple(out)


def _orders(combo) -> int:
    """m! / prod m_c! * prod_c size(c)^m_c over a sorted combination of m
    necklaces holding m_c copies of each necklace c: the ways m labelled
    segments show it, one rotation of one necklace each."""
    out = run = 1
    for i in range(len(combo)):
        run = run + 1 if i and combo[i - 1] == combo[i] else 1
        out = out * (i + 1) * combo[i][2] // run
    return out


@lru_cache(maxsize=None)
def _multisets(k: int, m: int) -> tuple[tuple[tuple[tuple[str, ...], int], ...], ...]:
    """The multisets of ``m`` necklaces of length ``k`` by their adjoint
    total: entry ``a`` lists ``(sorted words, markings)`` over the multisets
    with ``a`` letters 's' in all."""
    by_adjoints: list[list] = [[] for _ in range(k * m + 1)]
    for combo in combinations_with_replacement(necklaces(k), m):
        words = tuple(word for word, _, _ in combo)
        by_adjoints[sum(adj for _, adj, _ in combo)].append((words, _orders(combo)))
    return tuple(map(tuple, by_adjoints))


@lru_cache(maxsize=None)
def placement_terms(parts: tuple[int, ...]) -> tuple[tuple[tuple[str, ...], int], ...]:
    """Aggregated adjoint placements for one partition of an even d.

    Returns ``((factor_words, multiplicity), ...)`` sorted by factor tuple,
    where ``factor_words`` is the sorted tuple of canonical segment words
    and the multiplicities sum to C(d, d/2).
    """
    d = sum(parts)
    if d % 2:
        raise PreconditionError(f"adjoint placements need even total degree, got {d}")
    groups = sorted(Counter(parts).items())
    # room[i]: the most adjoints the groups from i on can take
    room = list(accumulate((k * m for k, m in reversed(groups)), initial=0))[::-1]
    last = len(groups) - 1
    terms = []

    def choose(i: int, need: int, words: tuple, markings: int) -> None:
        k, m = groups[i]
        # group i takes a adjoints, leaving no more than the groups after it can take
        for a in range(max(0, need - room[i + 1]), min(k * m, need) + 1):
            for group_words, count in _multisets(k, m)[a]:
                if i == last:
                    terms.append((tuple(sorted(words + group_words)), markings * count))
                else:
                    choose(i + 1, need - a, words + group_words, markings * count)

    if groups:
        choose(0, d // 2, (), 1)
    else:
        terms.append(((), 1))
    assert sum(count for _, count in terms) == comb(d, d // 2)
    return tuple(sorted(terms))


def word_text(word: str) -> str:
    """Human form of a word: z -> Z, s -> Z*."""
    return word.replace("z", "Z").replace("s", "Z*")


def word_json(word: str) -> str:
    """JSON form of a word: z -> Z, s -> s."""
    return word.replace("z", "Z")
