"""Reconstruct does not depend on the order of its shares or on exact repeats.

The share gate (``dhss.dedupe_shares``) checks the shares in the order given
and keeps one per participant, in participant order; the authorization count
and the lifts work on what it keeps. So a set of shares gives the same
secret, or the same exception with the same message, whether it comes in
participant order, reversed, shuffled, or with some shares given twice. The
oracle runs on seeded dhss, chss and ab deals at 64 and 256 bits with n = 5
and n = 200, over authorized, unauthorized, corrupted and out-of-range sets.
``Hierarchy.failing_levels`` is checked against its definition, a count of
the distinct members up to N_l, on sets holding any integers.
"""

import random
from dataclasses import replace
from fractions import Fraction

import pytest

from crthss import Hierarchy, SchemeParams, deal, generate_compact_sequence, reconstruct
from crthss.errors import InconsistentShares

PRIMES = {64: 2**64 - 59, 256: 2**256 - 189}
SHAPES = {
    ("dhss", 5): ((2, 3), (2, 3)),
    ("chss", 5): ((2, 3), (2, 3)),
    ("ab", 5): ((5,), (3,)),
    ("dhss", 200): ((10, 40, 150), (5, 20, 60)),
    ("chss", 200): ((10, 40, 150), (5, 20, 60)),
    ("ab", 200): ((200,), (100,)),
}


@pytest.fixture(scope="module")
def sequences():
    return {
        (bits, n): generate_compact_sequence(m0, n, 1, Fraction(1, 2), bits + n)
        for bits, m0 in PRIMES.items() for n in (5, 200)
    }


def outcome(shares, public):
    """The secret, or the exception's type and message."""
    try:
        return reconstruct(shares, public)
    except Exception as exc:  # every refusal is compared, whatever its type
        return type(exc), str(exc)


def minimal_set(scheme, hier):
    """An authorized set that its last member's loss leaves unauthorized:
    the first t_1 participants for dhss, the first t_l - t_(l-1) of every
    level l for chss and ab."""
    if scheme == "dhss":
        return list(range(1, hier.thresholds[0] + 1))
    chosen, previous = [], 0
    for level, t in enumerate(hier.thresholds, start=1):
        chosen += list(hier.members_of(level))[:t - previous]
        previous = t
    return chosen


@pytest.mark.parametrize("bits", sorted(PRIMES))
@pytest.mark.parametrize("scheme, n", sorted(SHAPES))
def test_order_and_repeats_do_not_change_the_outcome(sequences, scheme, n, bits):
    levels, thresholds = SHAPES[scheme, n]
    params = SchemeParams(sequences[bits, n], Hierarchy(levels, thresholds),
                          scheme=scheme)
    rng = random.Random(f"{scheme}-{n}-{bits}")
    secret = rng.randrange(params.sequence.m0)
    dealt = deal(secret, params, rng.randrange(2**63))
    by_id = {s.participant: s for s in dealt.shares}
    minimal = [by_id[i] for i in minimal_set(scheme, params.hierarchy)]
    first = by_id[1]
    corrupt = replace(first, value=(first.value + 1) % first.modulus)
    sets = {
        "all": list(dealt.shares),
        "minimal": minimal,
        "unauthorized": minimal[:-1],
        "corrupt": [corrupt] + list(dealt.shares[1:]),
        "out of range": minimal + [replace(first, participant=n + 1)],
    }
    for label, shares in sets.items():
        shares = sorted(shares, key=lambda s: s.participant)
        expected = outcome(shares, dealt.public)
        if label in ("all", "minimal"):
            assert expected == secret, label
        elif label == "unauthorized":
            assert expected[1].startswith(("not authorized", "got ")), expected
        elif label == "corrupt" and n == 200:
            # share 1 is in level 1's solved prefix, and surplus shares
            # of every solved level expose it
            assert expected[0] is InconsistentShares, expected
        elif label == "out of range":
            assert expected == (ValueError, f"participant {n + 1} not in [1, {n}]")
        shuffled = shares[:]
        rng.shuffle(shuffled)
        for variant in (shares[::-1], shuffled, shares + shares[::2],
                        [s for s in shuffled for _ in (0, 1)]):
            assert outcome(variant, dealt.public) == expected, (label, variant[:3])


def test_failing_levels_counts_distinct_members_up_to_each_level():
    rng = random.Random(5)
    for _ in range(400):
        sizes = [rng.randrange(1, 5) for _ in range(rng.randrange(1, 5))]
        hier = Hierarchy(tuple(sizes), tuple(rng.randrange(-1, 8) for _ in sizes))
        members = [rng.randrange(-3, hier.n + 4) for _ in range(rng.randrange(0, 12))]
        members += rng.sample([0, -1, -(10**30), hier.n + 1, 10**30], rng.randrange(0, 3))
        want = tuple(
            level
            for level, (upper, t) in enumerate(
                zip(hier.cumulative, hier.thresholds), start=1)
            if sum(1 for i in set(members) if i <= upper) < t
        )
        assert hier.failing_levels(members) == want
        assert hier.failing_levels(iter(members)) == want
