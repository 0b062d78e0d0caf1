"""Tests for the S3 permutation group on variable indices."""

import pytest

from cadaug.symmetry import ALL_PERMUTATIONS, IDENTITY, Permutation


def test_group_has_six_elements():
    assert len(ALL_PERMUTATIONS) == 6
    assert len(set(ALL_PERMUTATIONS)) == 6


def test_canonical_enumeration_order():
    assert [p.name for p in ALL_PERMUTATIONS] == ["123", "132", "213", "231", "312", "321"]


def test_identity():
    assert IDENTITY.images == (1, 2, 3)
    assert IDENTITY.is_identity()
    for i in (1, 2, 3):
        assert IDENTITY.apply_index(i) == i


def test_swap():
    s = Permutation.swap(1, 2)
    assert s.apply_index(1) == 2
    assert s.apply_index(2) == 1
    assert s.apply_index(3) == 3
    assert s.compose(s) == IDENTITY


def test_compose_order():
    # compose(other) applies other first: (self o other)(i) = self(other(i))
    a = Permutation.swap(1, 2)
    b = Permutation.swap(2, 3)
    ab = a.compose(b)
    # b: 1->1->a->2, 2->3->a->3, 3->2->a->1
    assert ab.images == (2, 3, 1)
    ba = b.compose(a)
    assert ba.images == (3, 1, 2)
    assert ab != ba


def test_compose_is_group_operation():
    for a in ALL_PERMUTATIONS:
        for b in ALL_PERMUTATIONS:
            c = a.compose(b)
            assert c in ALL_PERMUTATIONS
            for i in (1, 2, 3):
                assert c.apply_index(i) == a.apply_index(b.apply_index(i))


def test_inverse():
    for p in ALL_PERMUTATIONS:
        assert p.compose(p.inverse()) == IDENTITY
        assert p.inverse().compose(p) == IDENTITY


def test_invalid_images_rejected():
    with pytest.raises(ValueError):
        Permutation((1, 1, 2))
    with pytest.raises(ValueError):
        Permutation((0, 1, 2))
