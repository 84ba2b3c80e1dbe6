"""Disjunctive scheme: worked vectors, authorization, completeness."""

import itertools
import random
from fractions import Fraction

import pytest

from conftest import DHSS_SEED
from crthss import (
    Hierarchy,
    OwfFamily,
    SchemeParams,
    dhss_authorized_level,
    dhss_deal,
    dhss_reconstruct,
    generate_compact_sequence,
)
from crthss.errors import InvalidParams, MissingPublicValue, NotAuthorized, SecretOutOfRange
from crthss.dhss import PublicBundle


def all_authorized_sets(params):
    n = params.hierarchy.n
    return [
        set(combo)
        for r in range(1, n + 1)
        for combo in itertools.combinations(range(1, n + 1), r)
        if dhss_authorized_level(set(combo), params) is not None
    ]


def test_worked_deal(micro_params):
    result = dhss_deal(4, micro_params, DHSS_SEED, keep_dealer_secrets=True)
    assert result.dealer_secrets["alpha"] == (0, 10)
    assert result.dealer_secrets["y"] == (4, 74)
    assert [s.value for s in result.shares] == [9, 9, 6]  # 74 mod 13, 74 mod 17
    assert dict(result.public.w) == {(1, 1): 9, (1, 2): 1}
    assert [s.level for s in result.shares] == [1, 2, 2]


def test_deal_zero_alpha_gives_zero_lifts(micro_params):
    for seed in range(3000):
        result = dhss_deal(0, micro_params, seed, keep_dealer_secrets=True)
        if result.dealer_secrets["alpha"] == (0, 0):
            assert result.dealer_secrets["y"] == (0, 0)
            return
    pytest.fail("no seed produced alpha = (0, 0)")


def test_deal_input_gates(micro_params):
    with pytest.raises(SecretOutOfRange):
        dhss_deal(7, micro_params, 0)
    broken = SchemeParams(
        sequence=micro_params.sequence,
        hierarchy=Hierarchy((1, 2), (2, 2)),
        owf=micro_params.owf,
    )
    with pytest.raises(InvalidParams):
        dhss_deal(1, broken, 0)


def test_dealer_secrets_withheld_by_default(micro_params):
    assert dhss_deal(4, micro_params, DHSS_SEED).dealer_secrets is None


def test_authorized_level(micro_params):
    assert dhss_authorized_level({1}, micro_params) == 1
    assert dhss_authorized_level({2, 3}, micro_params) == 2
    assert dhss_authorized_level({2}, micro_params) is None
    assert dhss_authorized_level({3}, micro_params) is None
    assert dhss_authorized_level(set(), micro_params) is None
    assert dhss_authorized_level({1, 2, 3}, micro_params) == 1


def test_reconstruct_worked_vectors(micro_params):
    result = dhss_deal(4, micro_params, DHSS_SEED)
    by_id = {s.participant: s for s in result.shares}
    # participant 1 alone: lift (6 + 9) mod 11 = 4 = y_1
    assert dhss_reconstruct([by_id[1]], result.public) == 4
    # {2, 3}: raw congruences (9 mod 13, 6 mod 17) -> 74 -> 4
    assert dhss_reconstruct([by_id[2], by_id[3]], result.public) == 4
    with pytest.raises(NotAuthorized) as excinfo:
        dhss_reconstruct([by_id[2]], result.public)
    assert excinfo.value.failing_levels == (1, 2)


def test_reconstruct_missing_public_value(micro_params):
    result = dhss_deal(4, micro_params, DHSS_SEED)
    stripped = PublicBundle(params=micro_params, w={})
    share1 = next(s for s in result.shares if s.participant == 1)
    with pytest.raises(MissingPublicValue):
        dhss_reconstruct([share1], stripped)


def test_lift_consistency_and_congruences(micro_params):
    # every published offset must lift the share to y_l mod m_i,
    # and all lifts agree with the secret mod m0
    rng = random.Random(40)
    for _ in range(20):
        secret = rng.randrange(7)
        result = dhss_deal(secret, micro_params, rng.randrange(2**32),
                           keep_dealer_secrets=True)
        ys = result.dealer_secrets["y"]
        assert all(y % 7 == secret for y in ys)
        from crthss.dhss import lift_share
        for (i, level), _ in result.public.w.items():
            share = next(s for s in result.shares if s.participant == i)
            assert lift_share(share, level, result.public) == ys[level - 1] % share.modulus


def test_completeness_exhaustive_micro(micro_params):
    for secret in range(7):
        for seed in range(20):
            result = dhss_deal(secret, micro_params, seed)
            by_id = {s.participant: s for s in result.shares}
            for group in all_authorized_sets(micro_params):
                shares = [by_id[i] for i in group]
                assert dhss_reconstruct(shares, result.public) == secret


def test_completeness_random_instances():
    rng = random.Random(41)
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
        result = dhss_deal(secret, params, rng.randrange(2**32))
        by_id = {s.participant: s for s in result.shares}
        # a qualifying set: t_l members drawn from the first N_l participants
        level = rng.randrange(1, hier.m + 1)
        pool = range(1, hier.cumulative[level - 1] + 1)
        group = rng.sample(pool, hier.thresholds[level - 1])
        shares = [by_id[i] for i in group]
        assert dhss_reconstruct(shares, result.public) == secret
        # oversupplying never changes the answer
        everyone = [by_id[i] for i in range(1, hier.n + 1)]
        assert dhss_reconstruct(everyone, result.public) == secret
        # sampled failing sets are refused
        for _ in range(3):
            sub = set(rng.sample(range(1, hier.n + 1), rng.randrange(0, hier.n + 1)))
            if dhss_authorized_level(sub, params) is None:
                with pytest.raises(NotAuthorized):
                    dhss_reconstruct([by_id[i] for i in sub], result.public)


def test_single_level_matches_flat(flat_params, micro_seq):
    # the flat Asmuth-Bloom deal by definition: alpha uniform below
    # (prod(m_1..m_t) - 1 - s) / m0, the first draw of the seeded dealer
    for seed in (0, 1, 2, 99):
        result = dhss_deal(5, flat_params, seed, keep_dealer_secrets=True)
        y = 5 + random.Random(seed).randrange((11 * 13 - 1 - 5) // 7 + 1) * 7
        flat_shares = [(i, y % m) for i, m in enumerate(micro_seq.moduli, start=1)]
        assert result.dealer_secrets["y"] == (y,)
        assert [(s.participant, s.value) for s in result.shares] == flat_shares
        assert result.public.w == {}
