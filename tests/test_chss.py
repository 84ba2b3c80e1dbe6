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
    OwfFamily,
    SchemeParams,
    ab_reconstruct,
    chss_deal,
    chss_is_authorized,
    chss_reconstruct,
    dhss_deal,
    dhss_reconstruct,
    generate_compact_sequence,
)
from crthss.errors import InconsistentShares, NotAuthorized


def all_conjunctive_sets(params):
    n = params.hierarchy.n
    return [
        set(combo)
        for r in range(1, n + 1)
        for combo in itertools.combinations(range(1, n + 1), r)
        if chss_is_authorized(set(combo), params)
    ]


def test_authorization(micro_params):
    assert chss_is_authorized({1, 2}, micro_params)
    assert not chss_is_authorized({2, 3}, micro_params)  # level 1 fails
    assert not chss_is_authorized({1}, micro_params)  # level 2 fails
    assert chss_is_authorized({1, 2, 3}, micro_params)


def test_worked_deal(micro_params):
    result = chss_deal(4, micro_params, CHSS_SEED, keep_dealer_secrets=True)
    ds = result.dealer_secrets
    assert ds["delta"] == (2, 2)
    assert (ds["delta"][0] + ds["delta"][1]) % 7 == 4
    assert ds["alpha"] == (0, 9)
    assert ds["y"] == (2, 65)
    assert [s.value for s in result.shares] == [5, 0, 14]  # 65 mod 13, 65 mod 17
    assert dict(result.public.w) == {(1, 1): 8, (1, 2): 4}


def test_reconstruct_worked_vectors(micro_params):
    result = chss_deal(4, micro_params, CHSS_SEED)
    by_id = {s.participant: s for s in result.shares}
    # level 1: (5+8) mod 11 = 2; level 2: solve (10 mod 11, 0 mod 13) = 65
    assert chss_reconstruct([by_id[1], by_id[2]], result.public) == 4
    assert chss_reconstruct([by_id[1], by_id[2], by_id[3]], result.public) == 4
    with pytest.raises(NotAuthorized) as excinfo:
        chss_reconstruct([by_id[2], by_id[3]], result.public)
    assert excinfo.value.failing_levels == (1,)


def test_completeness_exhaustive_micro(micro_params):
    for secret in range(7):
        for seed in range(20):
            result = chss_deal(secret, micro_params, seed)
            by_id = {s.participant: s for s in result.shares}
            for group in all_conjunctive_sets(micro_params):
                shares = [by_id[i] for i in group]
                assert chss_reconstruct(shares, result.public) == secret


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
        kind = rng.choice(["test_affine", "hash_based"])
        params = SchemeParams(sequence=seq, hierarchy=hier, owf=OwfFamily(kind=kind))
        secret = rng.randrange(m0)
        result = chss_deal(secret, params, rng.randrange(2**32))
        by_id = {s.participant: s for s in result.shares}
        # build a conjunctive set: top up every level's prefix to its threshold
        group: set[int] = set()
        for level in range(1, hier.m + 1):
            upper = hier.cumulative[level - 1]
            have = sum(1 for i in group if i <= upper)
            need = hier.thresholds[level - 1] - have
            pool = [i for i in range(1, upper + 1) if i not in group]
            group.update(rng.sample(pool, need))
        assert chss_is_authorized(group, params)
        shares = [by_id[i] for i in group]
        assert chss_reconstruct(shares, result.public) == secret
        # sampled failing sets are refused
        for _ in range(5):
            sub = set(rng.sample(range(1, hier.n + 1), rng.randrange(0, hier.n + 1)))
            if not chss_is_authorized(sub, params):
                with pytest.raises(NotAuthorized):
                    chss_reconstruct([by_id[i] for i in sub], result.public)


def test_lift_consistency_per_level(micro_params):
    # published offsets lift each share to y_l mod m_i at every level, and
    # the per-level lifts stay inside the dealer's range bound
    from crthss.dhss import lift_share
    rng = random.Random(51)
    for _ in range(20):
        secret = rng.randrange(7)
        result = chss_deal(secret, micro_params, rng.randrange(2**32),
                           keep_dealer_secrets=True)
        ys = result.dealer_secrets["y"]
        assert sum(y % 7 for y in ys) % 7 == secret
        for level, t in enumerate(micro_params.hierarchy.thresholds, start=1):
            assert 0 <= ys[level - 1] < micro_params.sequence.prefix_product(t)
        for (i, level), _ in result.public.w.items():
            share = next(s for s in result.shares if s.participant == i)
            assert lift_share(share, level, result.public) == ys[level - 1] % share.modulus


def test_delta_masking_uniform(micro_params):
    # the first additive part never depends on the secret: chi-square of its
    # empirical distribution over many seeded deals stays below the 0.999
    # quantile for 6 degrees of freedom (22.46)
    for secret in (0, 4):
        buckets = [0] * 7
        trials = 7000
        for seed in range(trials):
            result = chss_deal(secret, micro_params, seed, keep_dealer_secrets=True)
            buckets[result.dealer_secrets["delta"][0]] += 1
        expected = trials / 7
        chisq = sum((b - expected) ** 2 / expected for b in buckets)
        assert chisq < 22.46, (secret, buckets, chisq)


def test_single_level_degenerates_to_flat(flat_params):
    # with one level there is no random additive prefix: delta_1 = secret and
    # the conjunctive deal replays the disjunctive (= flat) one per seed
    for seed in (0, 7, 123):
        conj = chss_deal(5, flat_params, seed, keep_dealer_secrets=True)
        disj = dhss_deal(5, flat_params, seed, keep_dealer_secrets=True)
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
    params = SchemeParams(sequence=sequence, hierarchy=hierarchy)
    for seed in range(50):
        deal = chss_deal(424242, params, seed)
        assert chss_reconstruct(deal.shares, deal.public) == 424242
        for position, share in enumerate(deal.shares):
            shares = list(deal.shares)
            shares[position] = replace(share, value=(share.value + 1) % share.modulus)
            with pytest.raises(InconsistentShares, match="^level 2 ") as excinfo:
                chss_reconstruct(shares, deal.public)
            assert str(share.value) not in str(excinfo.value)


@pytest.mark.parametrize("deal, reconstruct", [
    (dhss_deal, dhss_reconstruct), (chss_deal, chss_reconstruct),
], ids=["dhss", "chss"])
def test_conflicting_duplicate_shares(micro_params, deal, reconstruct):
    # the same class ab_reconstruct raises for a participant given twice
    result = deal(4, micro_params, 0)
    share = result.shares[0]
    twin = replace(share, value=(share.value + 1) % share.modulus)
    with pytest.raises(InconsistentShares, match="^conflicting shares for participant 1$"):
        reconstruct(list(result.shares) + [twin], result.public)


# the three reconstruct entry points with the deal and hierarchy each reads
ENTRY_POINTS = {
    "dhss": (dhss_deal, dhss_reconstruct, Hierarchy((2, 3), (2, 3))),
    "chss": (chss_deal, chss_reconstruct, Hierarchy((2, 3), (2, 3))),
    "ab": (dhss_deal, ab_reconstruct, Hierarchy((5,), (3,))),
}


@pytest.mark.parametrize("scheme", sorted(ENTRY_POINTS))
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
    deal, reconstruct, hierarchy = ENTRY_POINTS[scheme]
    result = deal(1234567890123456789, SchemeParams(SEQ_61, hierarchy), 5)
    shares = list(result.shares[:3])
    assert reconstruct(shares, result.public) == 1234567890123456789
    shares[participant - 1] = corrupt(shares[participant - 1])
    with pytest.raises(ValueError, match=rf"participant {participant}\b") as excinfo:
        reconstruct(shares, result.public)
    assert set(re.findall(r"\d+", str(excinfo.value))) <= {str(participant), "0"}
