"""Flat threshold scheme: worked vectors, round trips, leakage bound.

A flat deal is ``dhss_deal`` on a single-level hierarchy; reconstruction goes
through ``ab_reconstruct`` on the deal's shares and its single-level bundle.
"""

import itertools
import random
from fractions import Fraction

import pytest

from conftest import AB_SEED
from crthss import (
    CompactSequence,
    Hierarchy,
    OwfFamily,
    PublicBundle,
    SchemeParams,
    Share,
    ab_reconstruct,
    adversary_view,
    dhss_deal,
    enumerate_posterior,
    generate_compact_sequence,
)
from crthss.errors import (
    InconsistentShares,
    InvalidParams,
    SecretOutOfRange,
    TooFewShares,
)


def flat(seq, t):
    return SchemeParams(
        sequence=seq,
        hierarchy=Hierarchy((seq.n,), (t,)),
        owf=OwfFamily(kind="test_affine"),
    )


def pairs(deal):
    return tuple((s.participant, s.value) for s in deal.shares)


def flat_shares(seq, t, *values):
    """Shares of a flat (t, n) deal over ``seq`` from (participant, value)
    pairs, with the single-level bundle they belong to."""
    shares = [Share(i, 1, seq.modulus_of(i), value) for i, value in values]
    return shares, PublicBundle(params=flat(seq, t), w={})


def test_worked_vector(flat_params):
    deal = dhss_deal(3, flat_params, AB_SEED, keep_dealer_secrets=True)
    assert deal.dealer_secrets["alpha"] == (5,)
    assert deal.dealer_secrets["y"] == (38,)
    # 38 mod 11/13/17 by hand gives 5, 12, 4
    assert pairs(deal) == ((1, 5), (2, 12), (3, 4))
    assert deal.public.w == {}


def test_zero_secret_zero_alpha(flat_params):
    for seed in range(200):
        deal = dhss_deal(0, flat_params, seed, keep_dealer_secrets=True)
        if deal.dealer_secrets["alpha"] == (0,):
            assert deal.dealer_secrets["y"] == (0,)
            assert all(v == 0 for _, v in pairs(deal))
            return
    pytest.fail("no seed produced alpha = 0")


def test_secret_out_of_range(flat_params):
    with pytest.raises(SecretOutOfRange):
        dhss_deal(7, flat_params, 0)
    with pytest.raises(SecretOutOfRange):
        dhss_deal(-1, flat_params, 0)


def test_ab_constraint_gate():
    bad = CompactSequence(m0=12, moduli=(13, 11, 17), k=1, theta=Fraction(1, 2))
    with pytest.raises(InvalidParams):
        dhss_deal(3, flat(bad, 2), 0)


def test_reconstruct_worked_vector(micro_seq):
    assert ab_reconstruct(*flat_shares(micro_seq, 2, (1, 5), (2, 12))) == 3
    assert ab_reconstruct(*flat_shares(micro_seq, 2, (1, 5), (2, 12), (3, 4))) == 3
    with pytest.raises(TooFewShares, match="^got 1 distinct shares, need 2$"):
        ab_reconstruct(*flat_shares(micro_seq, 2, (1, 5)))


def test_reconstruct_rejects_conflicts(micro_seq):
    with pytest.raises(InconsistentShares):
        ab_reconstruct(*flat_shares(micro_seq, 2, (1, 5), (1, 6), (2, 12)))
    # a corrupted share pushing the solution past the dealer bound is caught
    with pytest.raises(InconsistentShares):
        ab_reconstruct(*flat_shares(micro_seq, 2, (1, 5), (2, 12), (3, 5)))


def test_reconstruct_refuses_multi_level_bundle(micro_params):
    # the shares of a two-level deal are not flat shares, whatever the
    # threshold of their first level
    deal = dhss_deal(4, micro_params, 0)
    with pytest.raises(ValueError, match="^flat reconstruction needs one level, got 2$"):
        ab_reconstruct(deal.shares, deal.public)


def test_round_trip_exhaustive(flat_params):
    for secret in range(7):
        for seed in range(10):
            deal = dhss_deal(secret, flat_params, seed)
            for r in (2, 3):
                for subset in itertools.combinations(deal.shares, r):
                    assert ab_reconstruct(subset, deal.public) == secret


def test_round_trip_all_secrets_m0_101():
    rng = random.Random(33)
    seq = generate_compact_sequence(101, 4, 1, Fraction(2, 3), 9)
    params = flat(seq, 2)
    for secret in range(101):
        deal = dhss_deal(secret, params, rng.randrange(2**32))
        picks = rng.sample(range(4), rng.randrange(2, 5))
        subset = [deal.shares[i] for i in picks]
        assert ab_reconstruct(subset, deal.public) == secret


def test_round_trip_random_sequences():
    rng = random.Random(31)
    for _ in range(40):
        m0 = rng.choice([97, 101, 997])
        n = rng.randrange(2, 6)
        t = rng.randrange(1, n + 1)
        seq = generate_compact_sequence(m0, n, 1, Fraction(2, 3), rng.randrange(2**32))
        secret = rng.randrange(m0)
        deal = dhss_deal(secret, flat(seq, t), rng.randrange(2**32))
        picks = rng.sample(range(n), t)
        subset = [deal.shares[i] for i in picks]
        assert ab_reconstruct(subset, deal.public) == secret


def test_undersized_sets_keep_multiple_secrets(flat_params):
    # every below-threshold subset stays consistent with at least two secrets
    rng = random.Random(32)
    for seed in range(10):
        secret = rng.randrange(7)
        deal = dhss_deal(secret, flat_params, seed)
        for member in (1, 2, 3):
            view = adversary_view(deal, {member})
            report = enumerate_posterior(view, "dhss")
            alive = [s for s, c in report.per_secret_counts.items() if c > 0]
            assert report.per_secret_counts[secret] >= 1
            assert len(alive) >= 2
