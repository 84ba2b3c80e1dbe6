"""Conjunctive scheme: worked vectors, authorization, additive masking."""

import itertools
import random
import re
from dataclasses import replace
from fractions import Fraction

import pytest

from conftest import CHSS_SEED, SEQ_61
from crthss import (
    Hierarchy,
    SchemeParams,
    deal,
    generate_compact_sequence,
    reconstruct,
)
from crthss.errors import InconsistentShares, NotAuthorized


@pytest.fixture
def conj_params(micro_params):
    return replace(micro_params, scheme="chss")


def all_conjunctive_sets(params):
    n = params.hierarchy.n
    return [
        set(combo)
        for r in range(1, n + 1)
        for combo in itertools.combinations(range(1, n + 1), r)
        if not params.hierarchy.failing_levels(combo)
    ]


def test_authorization(micro_params):
    # authorized exactly when no level fails
    failing = micro_params.hierarchy.failing_levels
    assert failing({1, 2}) == ()
    assert failing({2, 3}) == (1,)
    assert failing({1}) == (2,)
    assert failing({1, 2, 3}) == ()


def test_worked_deal(conj_params, affine_owf):
    result = deal(4, conj_params, CHSS_SEED, keep_dealer_secrets=True)
    ds = result.dealer_secrets
    assert ds["delta"] == (2, 2)
    assert (ds["delta"][0] + ds["delta"][1]) % 7 == 4
    assert ds["alpha"] == (0, 9)
    assert ds["y"] == (2, 65)
    assert [s.value for s in result.shares] == [5, 0, 14]  # 65 mod 13, 65 mod 17
    assert dict(result.public.w) == {(1, 1): 8, (1, 2): 4}


def test_reconstruct_worked_vectors(conj_params, affine_owf):
    result = deal(4, conj_params, CHSS_SEED)
    by_id = {s.participant: s for s in result.shares}
    # level 1: (5+8) mod 11 = 2; level 2: solve (10 mod 11, 0 mod 13) = 65
    assert reconstruct([by_id[1], by_id[2]], result.public) == 4
    assert reconstruct([by_id[1], by_id[2], by_id[3]], result.public) == 4
    with pytest.raises(NotAuthorized) as excinfo:
        reconstruct([by_id[2], by_id[3]], result.public)
    assert excinfo.value.failing_levels == (1,)


def test_completeness_exhaustive_micro(conj_params):
    for secret in range(7):
        for seed in range(20):
            result = deal(secret, conj_params, seed)
            by_id = {s.participant: s for s in result.shares}
            for group in all_conjunctive_sets(conj_params):
                shares = [by_id[i] for i in group]
                assert reconstruct(shares, result.public) == secret


def test_completeness_random_instances():
    rng = random.Random(50)
    for _ in range(30):
        m0 = rng.choice([97, 997, 1009])
        sizes = tuple(rng.randrange(1, 4) for _ in range(rng.randrange(1, 4)))
        thresholds = []
        cumulative = 0
        previous = 0
        ok = True
        for size in sizes:
            cumulative += size
            lo = previous + 1
            if lo > cumulative:
                ok = False
                break
            thresholds.append(rng.randrange(lo, cumulative + 1))
            previous = thresholds[-1]
        if not ok:
            continue
        hier = Hierarchy(sizes, tuple(thresholds))
        seq = generate_compact_sequence(m0, hier.n, 1, Fraction(2, 3), rng.randrange(2**32))
        rng.choice((0, 1))  # once the OWF kind; kept so later draws match
        params = SchemeParams(sequence=seq, hierarchy=hier, scheme="chss")
        secret = rng.randrange(m0)
        result = deal(secret, params, rng.randrange(2**32))
        by_id = {s.participant: s for s in result.shares}
        # build a conjunctive set: top up every level's prefix to its threshold
        group: set[int] = set()
        for level in range(1, hier.m + 1):
            upper = hier.cumulative[level - 1]
            have = sum(1 for i in group if i <= upper)
            need = hier.thresholds[level - 1] - have
            pool = [i for i in range(1, upper + 1) if i not in group]
            group.update(rng.sample(pool, need))
        assert not hier.failing_levels(group)
        shares = [by_id[i] for i in group]
        assert reconstruct(shares, result.public) == secret
        # sampled failing sets are refused
        for _ in range(5):
            sub = set(rng.sample(range(1, hier.n + 1), rng.randrange(0, hier.n + 1)))
            if hier.failing_levels(sub):
                with pytest.raises(NotAuthorized):
                    reconstruct([by_id[i] for i in sub], result.public)


def test_lift_consistency_per_level(conj_params):
    # published offsets lift each share to y_l mod m_i at every level, and
    # the per-level lifts stay inside the dealer's range bound
    from crthss.dhss import lift_share
    rng = random.Random(51)
    for _ in range(20):
        secret = rng.randrange(7)
        result = deal(secret, conj_params, rng.randrange(2**32),
                      keep_dealer_secrets=True)
        ys = result.dealer_secrets["y"]
        assert sum(y % 7 for y in ys) % 7 == secret
        for level, t in enumerate(conj_params.hierarchy.thresholds, start=1):
            assert 0 <= ys[level - 1] < conj_params.sequence.prefix_product(t)
        for (i, level), _ in result.public.w.items():
            share = next(s for s in result.shares if s.participant == i)
            assert lift_share(share, level, result.public) == ys[level - 1] % share.modulus


def test_delta_masking_uniform(conj_params):
    # the first additive part never depends on the secret: chi-square of its
    # empirical distribution over many seeded deals stays below the 0.999
    # quantile for 6 degrees of freedom (22.46)
    for secret in (0, 4):
        buckets = [0] * 7
        trials = 7000
        for seed in range(trials):
            result = deal(secret, conj_params, seed, keep_dealer_secrets=True)
            buckets[result.dealer_secrets["delta"][0]] += 1
        expected = trials / 7
        chisq = sum((b - expected) ** 2 / expected for b in buckets)
        assert chisq < 22.46, (secret, buckets, chisq)


def test_single_level_degenerates_to_flat(flat_params):
    # with one level there is no random additive prefix: delta_1 = secret and
    # the conjunctive deal replays the disjunctive (= flat) one per seed
    for seed in (0, 7, 123):
        conj = deal(5, replace(flat_params, scheme="chss"), seed,
                    keep_dealer_secrets=True)
        disj = deal(5, flat_params, seed, keep_dealer_secrets=True)
        assert conj.dealer_secrets["delta"] == (5,)
        assert conj.dealer_secrets["y"] == disj.dealer_secrets["y"]
        assert conj.shares == disj.shares


def test_share_off_by_one_is_detected():
    """All five shares of a (2,3)/(2,3) deal at m0=1000003 with one share
    off by one: level 1 holds exactly t_1 shares and cannot notice, but the
    level-2 system has two redundant congruences, so its solution lands above
    the dealer bound instead of decoding to a wrong secret."""
    hierarchy = Hierarchy((2, 3), (2, 3))
    sequence = generate_compact_sequence(1000003, hierarchy.n, 1, Fraction(1, 2), 0)
    params = SchemeParams(sequence=sequence, hierarchy=hierarchy, scheme="chss")
    for seed in range(50):
        dealt = deal(424242, params, seed)
        assert reconstruct(dealt.shares, dealt.public) == 424242
        for position, share in enumerate(dealt.shares):
            shares = list(dealt.shares)
            shares[position] = replace(share, value=(share.value + 1) % share.modulus)
            with pytest.raises(InconsistentShares, match="^level 2 ") as excinfo:
                reconstruct(shares, dealt.public)
            assert str(share.value) not in str(excinfo.value)


@pytest.mark.parametrize("scheme", ["dhss", "chss"])
def test_conflicting_duplicate_shares(micro_params, scheme):
    # the same class a flat reconstruct raises for a participant given twice
    result = deal(4, replace(micro_params, scheme=scheme), 0)
    share = result.shares[0]
    twin = replace(share, value=(share.value + 1) % share.modulus)
    with pytest.raises(InconsistentShares, match="^conflicting shares for participant 1$"):
        reconstruct(list(result.shares) + [twin], result.public)


# the hierarchy each scheme is dealt with
HIERARCHIES = {
    "dhss": Hierarchy((2, 3), (2, 3)),
    "chss": Hierarchy((2, 3), (2, 3)),
    "ab": Hierarchy((5,), (3,)),
}


@pytest.mark.parametrize("scheme", sorted(HIERARCHIES))
@pytest.mark.parametrize("participant, corrupt", [
    # masked below the top level: h_l(value + m_1) differs from h_l(value),
    # so the level-1 residue would be wrong, not just unreduced
    (1, lambda s: replace(s, value=s.value + s.modulus)),
    # a raw top-level residue must not be reduced silently
    (3, lambda s: replace(s, value=s.value + s.modulus)),
    (2, lambda s: replace(s, level=7)),
], ids=["masked-value-plus-modulus", "top-level-value-plus-modulus", "level-7"])
def test_gate_rejects_malformed_shares(scheme, participant, corrupt):
    """An authorized set with one malformed share is refused by the share
    gate with a ValueError naming only the participant."""
    params = SchemeParams(SEQ_61, HIERARCHIES[scheme], scheme=scheme)
    result = deal(1234567890123456789, params, 5)
    shares = list(result.shares[:3])
    assert reconstruct(shares, result.public) == 1234567890123456789
    shares[participant - 1] = corrupt(shares[participant - 1])
    with pytest.raises(ValueError, match=rf"participant {participant}\b") as excinfo:
        reconstruct(shares, result.public)
    assert set(re.findall(r"\d+", str(excinfo.value))) <= {str(participant), "0"}
