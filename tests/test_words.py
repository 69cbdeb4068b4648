import itertools
from math import comb

import pytest

from rvnorms.errors import PreconditionError
from rvnorms.partitions import enumerate_partitions
from rvnorms.words import canonical_rotation, placement_terms, word_json, word_text


def test_canonical_rotation():
    assert canonical_rotation("zs") == "sz"
    assert canonical_rotation("zzss") == "sszz"
    assert canonical_rotation("zszs") == "szsz"
    assert canonical_rotation("z") == "z"
    assert canonical_rotation("") == ""


def test_canonical_rotation_is_minimal_rotation():
    for word in ("".join(w) for w in itertools.product("zs", repeat=6)):
        rotations = {word[i:] + word[:i] for i in range(len(word))}
        assert canonical_rotation(word) == min(rotations)
        assert canonical_rotation(word) in rotations


def test_placements_single_part_d2():
    # Both placements of one adjoint in two slots rotate to 'sz'.
    assert placement_terms((2,)) == ((("sz",), 2),)


def test_placements_two_singletons():
    assert placement_terms((1, 1)) == ((("s", "z"), 2),)


def test_placements_3_1_fixture():
    # Six placements collapse to 3 tr(Z*Z*Z)(tr Z) + 3 tr(Z*ZZ)(tr Z*).
    terms = dict(placement_terms((3, 1)))
    assert terms == {("ssz", "z"): 3, ("s", "szz"): 3}


def test_placements_4_fixture():
    terms = dict(placement_terms((4,)))
    assert terms == {("sszz",): 4, ("szsz",): 2}


def test_placements_2_2_fixture():
    terms = dict(placement_terms((2, 2)))
    assert terms == {("ss", "zz"): 2, ("sz", "sz"): 4}


def _enumerated_placements(parts):
    """Brute-force table: every choice of d/2 adjoint slots, split into
    segments of the part lengths, each segment canonicalized."""
    d = sum(parts)
    counts = {}
    for adjoint_slots in itertools.combinations(range(d), d // 2):
        marked = set(adjoint_slots)
        letters = "".join("s" if i in marked else "z" for i in range(d))
        factors, pos = [], 0
        for part in parts:
            factors.append(canonical_rotation(letters[pos : pos + part]))
            pos += part
        key = tuple(sorted(factors))
        counts[key] = counts.get(key, 0) + 1
    return tuple(sorted(counts.items()))


@pytest.mark.parametrize("d", [2, 4, 6, 8, 10, 12])
def test_placements_equal_enumeration(d):
    for p in enumerate_partitions(d):
        assert placement_terms(p.parts) == _enumerated_placements(p.parts), p.parts


def test_placements_unsorted_parts_equal_enumeration():
    for parts in ((1, 3, 2), (2, 1, 1, 4), (1, 5)):
        assert placement_terms(parts) == _enumerated_placements(parts)


@pytest.mark.parametrize("d", [2, 4, 6, 8, 14])
def test_placement_count_conservation(d):
    for p in enumerate_partitions(d):
        total = sum(mult for _, mult in placement_terms(p.parts))
        assert total == comb(d, d // 2)


def test_placements_reject_odd_degree():
    with pytest.raises(PreconditionError):
        placement_terms((3,))


def test_word_rendering():
    assert word_text("szz") == "Z*ZZ"
    assert word_json("szz") == "sZZ"
    assert word_text("z") == "Z"
