"""One-way function family: frozen SHA-256 vectors, ranges, and why the
library has no other kind of h."""

import random
from math import log2

import pytest

from crthss import adversary_view, deal, enumerate_posterior, eval_owf
from crthss.errors import LevelOutOfRange

# Frozen outputs of the SHA-256 expansion construction, generated once from an
# independent implementation of the same encoding and checked against it.
HASH_VECTORS = [
    (b"", 1, 0, 11, 8),
    (b"", 1, 9, 11, 1),
    (b"", 2, 9, 11, 1),
    (b"", 3, 123456789, 2**61 - 1, 1594398898509673045),
    (b"mask-v1", 1, 5, 97, 37),
    (b"mask-v1", 7, 5, 97, 10),
    (b"mask-v1", 2, 2**70 + 3, 1009, 184),
]


def test_affine_masks_link_levels_the_audit_does_not_model(micro_params, affine_owf):
    """Why no parameter file carries test_affine. With h(x, l) = 3x + l the
    offsets of participant 1 give w_{1,1} - w_{1,2} = y_1 - y_2 + 1 (mod 11),
    a public link between the lifts that the audit's model (i)-(iv) leaves
    out. On the micro instance, adversary {2}, a literal scan that adds the
    link pins the secret in 120 of 700 deals (log2 7 = 2.81 bits), while
    the audit reports 0.057 to 0.244 bits on the same deals."""
    pinned, losses = 0, []
    for seed in range(100):
        for secret in range(7):
            dealt = deal(secret, micro_params, seed)
            view = adversary_view(dealt, {2})
            losses.append(enumerate_posterior(view).loss)
            (share,) = view.shares
            link = (dealt.public.w[1, 1] - dealt.public.w[1, 2] - 1) % 11
            # y_1 < 11 and y_2 < 11 * 13, y_2 = share (mod 13), y_1 = y_2
            # (mod 7), and the link
            left = {y1 % 7 for y1 in range(11)
                    for y2 in range(share.value, 143, 13)
                    if (y1 - y2) % 7 == 0 and (y1 - y2) % 11 == link}
            assert secret in left
            pinned += left == {secret}
    assert pinned == 120
    assert 0.057 < min(losses) < max(losses) < 0.244 < log2(7)


def test_hash_frozen_vectors():
    for tag, level, x, modulus, expected in HASH_VECTORS:
        assert eval_owf(tag, level, x, modulus) == expected


def test_range_and_determinism():
    rng = random.Random(20)
    tags = [b"", b"other", b"z"]
    for _ in range(10**4):
        tag = rng.choice(tags)
        level = rng.randrange(1, 10)
        modulus = rng.randrange(2, 2**40)
        x = rng.randrange(0, 2**40)
        out = eval_owf(tag, level, x, modulus)
        assert 0 <= out < modulus
        assert eval_owf(tag, level, x, modulus) == out


def test_level_separation():
    modulus = 2**31 - 1
    for x in (0, 5, 123456):
        outs = {eval_owf(b"sep", level, x, modulus) for level in range(1, 9)}
        assert len(outs) > 1


def test_tag_separation():
    modulus = 2**61 - 1
    diffs = sum(
        eval_owf(b"a", 1, x, modulus) != eval_owf(b"b", 1, x, modulus)
        for x in range(64)
    )
    assert diffs > 60


def test_bad_inputs():
    with pytest.raises(LevelOutOfRange):
        eval_owf(b"", 0, 1, 11)
    with pytest.raises(ValueError):
        eval_owf(b"", 1, -1, 11)
    with pytest.raises(ValueError):
        eval_owf(b"", 1, 1, 1)


def test_oversized_x_accepted():
    assert 0 <= eval_owf(b"", 1, 10**50, 11) < 11
