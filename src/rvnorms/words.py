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
each exactly once.  The necklaces of every length up to d come from one
pass of the FKM algorithm (Ruskey, Savage & Wang, "Generating necklaces",
J. Algorithms 13, 1992) with their adjoint counts and class sizes
(periods).  The parts are grouped once, in one pass that counts each
distinct part length k (equal parts need not be adjacent), and for each
such k with m_k parts a multiset of m_k necklaces of that length is
chosen, pruned on the adjoints still needed so that the total ends at
exactly d/2.  A multiset holding m_c copies of each necklace c is reached
by

    prod_k m_k! * prod_c size(c)^m_c / prod_c m_c!

markings: the m_k segments of length k take the chosen necklaces in
m_k! / prod m_c! orders, and each segment shows any of the size(c)
rotations of its necklace.  Each term's factor words are sorted, and the
table is one list of terms sorted in place by factor tuple.  The table
depends only on the partition, so it is cached and every numeric or
symbolic evaluation reuses it.

The trace-word sum gathers the partitions' tables into one law-free table
of terms (:func:`word_table`) with the plan of its words (:func:`word_plan`),
and :func:`word_traces`, the route's one trace kernel, evaluates the plan on
a stack of complex or exact-int matrices, each distinct prefix once.
"""

from __future__ import annotations

from functools import lru_cache
from math import comb
from typing import NamedTuple

import numpy as np

from .errors import PreconditionError
from .partitions import enumerate_partitions, y_of


@lru_cache(maxsize=None)
def _necklaces_upto(n: int) -> tuple[tuple[tuple[str, int, int], ...], ...]:
    """The binary necklaces of every length 1..n, entry k - 1 holding those
    of length k in lexicographic order, from one FKM pass: the
    Lyndon words of length at most n come out in lexicographic order, and
    each of period p gives the necklace of every length k = p, 2p, ... <= n
    (the Lyndon word repeated k / p times, grown one copy at a time)."""
    out: list[list] = [[] for _ in range(n)]
    lyndon = "s"
    while lyndon:
        period, adjoints = len(lyndon), lyndon.count("s")
        word, adj = lyndon, adjoints
        for k in range(period, n + 1, period):
            out[k - 1].append((word, adj, period))
            word += lyndon
            adj += adjoints
        # the next Lyndon word: extend periodically to length n, drop the
        # trailing 'z's and turn the last 's' into 'z'
        lyndon = (lyndon * (n // period + 1))[:n].rstrip("z")
        if lyndon:
            lyndon = lyndon[:-1] + "z"
    return tuple(map(tuple, out))


def necklaces(k: int) -> tuple[tuple[str, int, int], ...]:
    """The binary necklaces of length ``k >= 1`` in lexicographic order.

    Each is ``(word, adjoints, size)``: the minimal rotation of its class,
    its number of letters 's', and its class size, the number of distinct
    rotations (the word's period), as :func:`_necklaces_upto` lists them.
    """
    return _necklaces_upto(k)[k - 1]


@lru_cache(maxsize=None)
def _grown(k: int, m: int, n: int) -> tuple[tuple[tuple[str, ...], int, int, int, int], ...]:
    """The multisets of ``m >= 1`` necklaces of length ``k`` in lexicographic
    order, each as ``(sorted words, adjoints, markings, last, copies)``:
    ``last`` indexes its largest necklace among those of length k from
    the pass to length ``n`` (:func:`_necklaces_upto`, which a placement
    run at degree n shares) and ``copies`` counts that necklace.  Each grows
    from a multiset of m - 1 by one necklace no smaller than its largest;
    a necklace of size s that becomes copy r multiplies the markings
    m! / prod m_c! * prod size^m_c by m s / r."""
    neck = _necklaces_upto(n)[k - 1]
    if m == 1:
        return tuple(((word,), adj, size, i, 1) for i, (word, adj, size) in enumerate(neck))
    out = []
    for words, adjoints, markings, last, copies in _grown(k, m - 1, n):
        for i in range(last, len(neck)):
            word, adj, size = neck[i]
            r = copies + 1 if i == last else 1
            out.append((words + (word,), adjoints + adj, markings * m * size // r, i, r))
    return tuple(out)


@lru_cache(maxsize=None)
def _multisets(k: int, m: int, n: int) -> tuple[tuple[tuple[tuple[str, ...], int], ...], ...]:
    """The multisets of ``m >= 1`` necklaces of length ``k`` by their
    adjoint total: entry ``a`` lists ``(sorted words, markings)`` over the
    multisets with ``a`` letters 's' in all, in lexicographic order
    (:func:`_grown`, with the necklaces of the pass to length ``n``)."""
    by_adjoints: list[list] = [[] for _ in range(k * m + 1)]
    for words, adjoints, markings, _, _ in _grown(k, m, n):
        by_adjoints[adjoints].append((words, markings))
    return tuple(map(tuple, by_adjoints))


@lru_cache(maxsize=None)
def placement_terms(parts: tuple[int, ...]) -> tuple[tuple[tuple[str, ...], int], ...]:
    """Aggregated adjoint placements for one partition of an even d.

    Returns ``((factor_words, multiplicity), ...)`` sorted by factor tuple,
    where ``factor_words`` is the sorted tuple of canonical segment words
    and the multiplicities sum to C(d, d/2).  The parts may come in any
    order: they are grouped into (length, count) pairs by counting, not by
    runs of equal neighbours, and every partition takes the same path, the
    groups chosen shortest first into one list of terms sorted in place.
    """
    d = sum(parts)
    if d % 2:
        raise PreconditionError(f"adjoint placements need even total degree, got {d}")
    if not parts:
        return (((), 1),)
    # the distinct part lengths k with their multiplicities m, shortest first
    counts: dict[int, int] = {}
    for k in parts:
        counts[k] = counts.get(k, 0) + 1
    *groups, last = sorted(counts.items())
    # (words, markings, adjoints still needed) over the choices for the
    # groups before the last, each group taking no more adjoints than leaves
    # the groups after it (``room`` letters in all) able to take the rest;
    # every group's necklaces come from one FKM pass to length d
    partial = [((), 1, d // 2)]
    room = d
    for k, m in groups:
        table = _multisets(k, m, d)
        room -= k * m
        partial = [
            (words + group_words, markings * count, need - a)
            for words, markings, need in partial
            for a in range(max(0, need - room), min(k * m, need) + 1)
            for group_words, count in table[a]
        ]
    # the last group takes exactly the adjoints still needed
    table = _multisets(*last, d)
    terms = [
        (tuple(sorted(words + group_words)), markings * count)
        for words, markings, need in partial
        for group_words, count in table[need]
    ]
    terms.sort()
    assert sum(count for _, count in terms) == comb(d, d // 2)
    return tuple(terms)


def word_text(word: str) -> str:
    """Human form of a word: z -> Z, s -> Z*."""
    return word.replace("z", "Z").replace("s", "Z*")


def word_json(word: str) -> str:
    """JSON form of a word: z -> Z, s -> s."""
    return word.replace("z", "Z")


class WordPlan(NamedTuple):
    """How the traces of a set of words are evaluated (:func:`word_traces`).

    Matrix 0 is Z, 1 is Z*, and matrix 2 + i is ``steps[i]`` = (parent,
    letter), the product of those two matrices: one per distinct prefix of
    two or more letters, parents first.  A word of one letter is the trace
    of that letter, ``singles`` listing (word position, letter).  The words
    of two or more letters, at positions ``long``, are sum_ij H_ij L_ji for
    H their prefix (matrix ``heads``) and L their last letter (matrix
    ``lasts``), which enters without a product; ``by_column`` marks the
    word whose entry products are summed column by column (see
    :func:`word_plan`).
    """

    words: tuple[str, ...]
    steps: tuple[tuple[int, int], ...]
    singles: tuple[tuple[int, int], ...]
    long: np.ndarray
    heads: tuple[int, ...]
    lasts: np.ndarray
    by_column: np.ndarray


def word_plan(words: tuple[str, ...]) -> WordPlan:
    """The :class:`WordPlan` of ``words`` (letters 'z' and 's'), cached by :func:`word_table`."""
    index = {"z": 0, "s": 1}
    steps = []
    for w in sorted({w[:i] for w in words for i in range(2, len(w))}, key=lambda w: (len(w), w)):
        index[w] = len(index)
        steps.append((index[w[:-1]], index[w[-1]]))
    long = [i for i, w in enumerate(words) if len(w) > 1]
    # Entry products are summed in row order, except for tr(Z* Z), summed
    # column by column: the orders of a 2-D sum of Z* (kept as the
    # transpose of conj(Z)) times Z^T, which earlier releases evaluated, so
    # that float traces, and the norm powers built from them, keep every bit.
    return WordPlan(
        words,
        tuple(steps),
        tuple((i, index[w]) for i, w in enumerate(words) if len(w) == 1),
        np.array(long, dtype=np.intp),
        tuple(index[words[i][:-1]] for i in long),
        np.array([index[words[i][-1]] for i in long], dtype=np.intp),
        np.array([words[i] == "sz" for i in long], dtype=bool),
    )


# Entries of the entrywise products that word_traces forms at once: the
# words of two or more letters are taken in blocks of this many entries
# (256 kB of complex values), so that a large matrix at a high degree does
# not hold one product per word.
TRACE_BLOCK = 1 << 14


def word_traces(Z: np.ndarray, plan: WordPlan) -> np.ndarray:
    """(N, len(plan.words)): the trace of each word of ``plan`` at each
    matrix of a stack (N, n, n), complex or of exact Python numbers
    (``dtype=object``).  Each distinct prefix costs one batched product;
    the words of two or more letters take one entrywise product and one
    reduction per block of :data:`TRACE_BLOCK` entries."""
    N, n, _ = Z.shape
    mats = [Z, np.conjugate(Z).swapaxes(1, 2)]
    for parent, letter in plan.steps:
        mats.append(np.matmul(mats[parent], mats[letter]))
    out = np.empty((N, len(plan.words)), dtype=Z.dtype)
    for i, letter in plan.singles:
        out[:, i] = np.diagonal(mats[letter], axis1=1, axis2=2).sum(axis=1)
    lasts = np.stack(mats[:2]).swapaxes(2, 3)  # Z^T and Z*^T
    step = max(1, TRACE_BLOCK // (N * n * n))
    for lo in range(0, len(plan.long), step):
        block = slice(lo, lo + step)
        P = np.stack([mats[h] for h in plan.heads[block]]) * lasts[plan.lasts[block]]
        by_column = plan.by_column[block]
        P[by_column] = P[by_column].swapaxes(2, 3)
        out[:, plan.long[block]] = P.reshape(len(P), N, n * n).sum(axis=2).T
    return out


class WordTable(NamedTuple):
    """The law-free part of the trace-word sum at one degree (:func:`word_table`).

    The terms are those of :func:`~rvnorms.normengine.symbolic_formula`,
    each partition's :func:`placement_terms`, ordered by factor count, most
    factors first.  ``partitions`` holds each partition's parts and y_pi;
    ``part_of`` and ``mults`` hold each term's partition index and
    multiplicity.  ``factors[f]`` holds, for the leading terms that have
    more than f factors, the index into ``plan.words`` of factor f.
    """

    plan: WordPlan
    partitions: tuple[tuple[tuple[int, ...], int], ...]
    part_of: tuple[int, ...]
    mults: tuple[int, ...]
    factors: tuple[np.ndarray, ...]


@lru_cache(maxsize=None)
def word_table(d: int, support: frozenset[int]) -> WordTable:
    """The :class:`WordTable` of degree d over the partitions whose parts
    all lie in ``support``, built once: a law whose nonzero cumulants are
    kappa_k for k in ``support`` (normal with mean 0: {2}; a symmetric law:
    no odd k above 1) has kappa_pi = 0 on the others.  A partition's terms
    have one factor per part, so ordering the partitions by part count
    orders the terms."""
    kept = (p for p in enumerate_partitions(d) if support.issuperset(p.parts))
    partitions = [(p.parts, y_of(p)) for p in kept]
    order = sorted(range(len(partitions)), key=lambda i: -len(partitions[i][0]))
    tables = [placement_terms(partitions[i][0]) for i in order]
    plan = word_plan(tuple(sorted({w for table in tables for key, _ in table for w in key})))
    index = {w: i for i, w in enumerate(plan.words)}.__getitem__
    columns: list[list[int]] = [[] for _ in range(d)]
    for table in tables:
        # the table's factor tuples, transposed: one column per factor
        for column, words in zip(columns, zip(*(factors for factors, _ in table))):
            column.extend(map(index, words))
    part_of = tuple(i for i, table in zip(order, tables) for _ in table)
    mults = tuple(mult for table in tables for _, mult in table)
    factors = tuple(np.array(column, dtype=np.intp) for column in columns)
    return WordTable(plan, tuple(partitions), part_of, mults, factors)
