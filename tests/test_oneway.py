"""One-way function family: affine vectors, frozen digest vectors, ranges."""

import random

import pytest

from crthss import OwfFamily, eval_owf
from crthss.errors import LevelOutOfRange

AFFINE = OwfFamily(kind="test_affine")

# Frozen outputs of the digest-expansion construction, generated once from an
# independent implementation of the same encoding and checked against it.
HASH_VECTORS = [
    (b"", "sha256", 1, 0, 11, 8),
    (b"", "sha256", 1, 9, 11, 1),
    (b"", "sha256", 2, 9, 11, 1),
    (b"", "sha256", 3, 123456789, 2**61 - 1, 1594398898509673045),
    (b"mask-v1", "sha256", 1, 5, 97, 37),
    (b"mask-v1", "sha256", 7, 5, 97, 10),
    (b"mask-v1", "sha256", 2, 2**70 + 3, 1009, 184),
    (b"z", "sha512", 1, 42, 1000003, 620776),
]


def test_affine_vectors():
    assert eval_owf(AFFINE, 1, 9, 11) == 6  # 28 mod 11
    assert eval_owf(AFFINE, 2, 5, 11) == 6  # 17 mod 11
    for level in (1, 2, 5):
        assert eval_owf(AFFINE, level, 0, 100) == level


def test_hash_frozen_vectors():
    for tag, digest, level, x, modulus, expected in HASH_VECTORS:
        family = OwfFamily(kind="hash_based", family_tag=tag, digest_name=digest)
        assert eval_owf(family, level, x, modulus) == expected


def test_range_and_determinism():
    rng = random.Random(20)
    families = [
        AFFINE,
        OwfFamily(kind="hash_based"),
        OwfFamily(kind="hash_based", family_tag=b"other"),
    ]
    for _ in range(10**4):
        family = rng.choice(families)
        level = rng.randrange(1, 10)
        modulus = rng.randrange(2, 2**40)
        x = rng.randrange(0, 2**40)
        out = eval_owf(family, level, x, modulus)
        assert 0 <= out < modulus
        assert eval_owf(family, level, x, modulus) == out


def test_level_separation():
    family = OwfFamily(kind="hash_based", family_tag=b"sep")
    modulus = 2**31 - 1
    for x in (0, 5, 123456):
        outs = {eval_owf(family, level, x, modulus) for level in range(1, 9)}
        assert len(outs) > 1


def test_tag_separation():
    a = OwfFamily(kind="hash_based", family_tag=b"a")
    b = OwfFamily(kind="hash_based", family_tag=b"b")
    modulus = 2**61 - 1
    diffs = sum(
        eval_owf(a, 1, x, modulus) != eval_owf(b, 1, x, modulus)
        for x in range(64)
    )
    assert diffs > 60


def test_bad_inputs():
    with pytest.raises(LevelOutOfRange):
        eval_owf(AFFINE, 0, 1, 11)
    with pytest.raises(ValueError):
        eval_owf(AFFINE, 1, -1, 11)
    with pytest.raises(ValueError):
        eval_owf(AFFINE, 1, 1, 1)
    with pytest.raises(ValueError):
        OwfFamily(kind="nonsense")


@pytest.mark.parametrize("digest", ["nope", "shake_128", "", None])
def test_hash_based_needs_fixed_size_digest(digest):
    # shake_* digests need a length, which eval_owf never passes
    with pytest.raises(ValueError, match="fixed-size hashlib digest"):
        OwfFamily(kind="hash_based", digest_name=digest)
    # test_affine never hashes, so its digest name is not looked up
    OwfFamily(kind="test_affine", digest_name=digest)


def test_oversized_x_accepted():
    family = OwfFamily(kind="hash_based")
    assert 0 <= eval_owf(family, 1, 10**50, 11) < 11
