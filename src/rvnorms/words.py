"""Trace-word combinatorics: canonical rotations and adjoint placements.

A word over the letters ``z`` (the matrix) and ``s`` (its adjoint) stands
for a product of matrices inside a trace.  The trace is invariant under
cyclic rotation, so each word is represented by its lexicographically
minimal rotation.  Collection stops there: a word and its reversal with
letters swapped have conjugate traces, but we deliberately keep such
conjugate pairs as separate terms so emitted formulas show both, e.g.
tr(Z*Z*Z)(tr Z) and tr(ZZZ*)(tr Z*) stay distinct.

The placement table for a partition aggregates the C(d, d/2) ways of
marking half of the d letter slots as adjoints: the slots are split into
consecutive segments of the part lengths, each segment is canonicalized,
and identical factor multisets are merged with a multiplicity.  A marking
is a free choice of one word per segment, so the table factors over the
parts: it is the coefficient of ``u^{d/2}`` in the product, over the
parts, of ``sum_w u^{#adjoints(w)} [canon(w)]``.  Each part length's
word table (2^l words collected by adjoint count and canonical rotation)
is built once; the parts are then folded in one by one, keeping only the
states whose adjoint count can still end at exactly d/2.  The table
depends only on the partition, so it is cached and every numeric or
symbolic evaluation reuses it.
"""

from __future__ import annotations

import itertools
from functools import lru_cache
from math import comb

from .errors import PreconditionError


def canonical_rotation(word: str) -> str:
    """Lexicographically minimal cyclic rotation ('s' sorts before 'z')."""
    if len(word) <= 1:
        return word
    doubled = word + word
    return min(doubled[i : i + len(word)] for i in range(len(word)))


@lru_cache(maxsize=None)
def _part_words(length: int) -> tuple[tuple[tuple[str, int], ...], ...]:
    """The 2^length words of one segment, by adjoint count: entry ``a`` is
    ``((canonical word, count), ...)`` over the words with ``a`` letters 's'.
    Each rotation class is visited once and counted by its size."""
    by_adjoints: list[dict[str, int]] = [{} for _ in range(length + 1)]
    seen: set[str] = set()
    for letters in itertools.product("sz", repeat=length):
        word = "".join(letters)
        if word in seen:
            continue
        rotations = {word[k:] + word[:k] for k in range(length)}
        seen |= rotations
        by_adjoints[word.count("s")][canonical_rotation(word)] = len(rotations)
    return tuple(tuple(sorted(table.items())) for table in by_adjoints)


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
    half = d // 2
    # state: (adjoints placed so far, sorted factor tuple) -> number of markings
    states: dict[tuple[int, tuple[str, ...]], int] = {(0, ()): 1}
    remaining = d
    for part in parts:
        remaining -= part
        words = _part_words(part)
        folded: dict[tuple[int, tuple[str, ...]], int] = {}
        for (placed, factors), count in states.items():
            # adjoints this part may take so the total can still reach d/2
            lo = max(0, half - placed - remaining)
            hi = min(part, half - placed)
            for a in range(lo, hi + 1):
                for word, mult in words[a]:
                    key = (placed + a, tuple(sorted((*factors, word))))
                    folded[key] = folded.get(key, 0) + count * mult
        states = folded
    counts = {factors: count for (_, factors), count in states.items()}
    assert sum(counts.values()) == comb(d, half)
    return tuple(sorted(counts.items()))


def word_text(word: str) -> str:
    """Human form of a word: z -> Z, s -> Z*."""
    return "".join("Z" if ch == "z" else "Z*" for ch in word)


def word_json(word: str) -> str:
    """JSON form of a word: z -> Z, s -> s."""
    return "".join("Z" if ch == "z" else "s" for ch in word)
