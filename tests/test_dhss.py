"""Disjunctive scheme: worked vectors, authorization, completeness."""

import dataclasses
import itertools
import random
from fractions import Fraction

import pytest

from conftest import DHSS_SEED
from crthss import (
    Hierarchy,
    SchemeParams,
    adversary_view,
    deal,
    enumerate_posterior,
    generate_compact_sequence,
    reconstruct,
)
from crthss.errors import (
    InvalidParams,
    MissingPublicValue,
    NotAuthorized,
    NotUnauthorized,
    SecretOutOfRange,
)
from crthss.dhss import PublicBundle, Share


def all_authorized_sets(params):
    n = params.hierarchy.n
    return [
        set(combo)
        for r in range(1, n + 1)
        for combo in itertools.combinations(range(1, n + 1), r)
        if len(params.hierarchy.failing_levels(combo)) < params.hierarchy.m
    ]


def test_worked_deal(micro_params, affine_owf):
    result = deal(4, micro_params, DHSS_SEED, keep_dealer_secrets=True)
    assert result.dealer_secrets["alpha"] == (0, 10)
    assert result.dealer_secrets["y"] == (4, 74)
    assert [s.value for s in result.shares] == [9, 9, 6]  # 74 mod 13, 74 mod 17
    assert dict(result.public.w) == {(1, 1): 9, (1, 2): 1}
    assert [s.level for s in result.shares] == [1, 2, 2]


def test_deal_zero_alpha_gives_zero_lifts(micro_params):
    for seed in range(3000):
        result = deal(0, micro_params, seed, keep_dealer_secrets=True)
        if result.dealer_secrets["alpha"] == (0, 0):
            assert result.dealer_secrets["y"] == (0, 0)
            return
    pytest.fail("no seed produced alpha = (0, 0)")


def test_deal_input_gates(micro_params):
    with pytest.raises(SecretOutOfRange):
        deal(7, micro_params, 0)
    broken = SchemeParams(
        sequence=micro_params.sequence,
        hierarchy=Hierarchy((1, 2), (2, 2)),
        family_tag=micro_params.family_tag,
    )
    with pytest.raises(InvalidParams):
        deal(1, broken, 0)


def test_dealer_secrets_withheld_by_default(micro_params):
    assert deal(4, micro_params, DHSS_SEED).dealer_secrets is None


def test_authorized_level(micro_params):
    # the audit names the smallest level a disjunctive set qualifies at
    result = deal(4, micro_params, DHSS_SEED)
    for members, level in (({1}, 1), ({2, 3}, 2), ({1, 2, 3}, 1)):
        with pytest.raises(NotUnauthorized, match=f"authorized at level {level}$"):
            enumerate_posterior(adversary_view(result, members))
    for members in ({2}, {3}, set()):
        assert micro_params.hierarchy.failing_levels(members) == (1, 2)
        enumerate_posterior(adversary_view(result, members))


def test_reconstruct_worked_vectors(micro_params, affine_owf):
    result = deal(4, micro_params, DHSS_SEED)
    by_id = {s.participant: s for s in result.shares}
    # participant 1 alone: lift (6 + 9) mod 11 = 4 = y_1
    assert reconstruct([by_id[1]], result.public) == 4
    # {2, 3}: raw congruences (9 mod 13, 6 mod 17) -> 74 -> 4
    assert reconstruct([by_id[2], by_id[3]], result.public) == 4
    with pytest.raises(NotAuthorized) as excinfo:
        reconstruct([by_id[2]], result.public)
    assert excinfo.value.failing_levels == (1, 2)


def test_reconstruct_missing_public_value(micro_params):
    result = deal(4, micro_params, DHSS_SEED)
    stripped = PublicBundle(params=micro_params, w={})
    share1 = next(s for s in result.shares if s.participant == 1)
    with pytest.raises(MissingPublicValue):
        reconstruct([share1], stripped)


def test_lift_consistency_and_congruences(micro_params):
    # every published offset must lift the share to y_l mod m_i,
    # and all lifts agree with the secret mod m0
    rng = random.Random(40)
    for _ in range(20):
        secret = rng.randrange(7)
        result = deal(secret, micro_params, rng.randrange(2**32),
                      keep_dealer_secrets=True)
        ys = result.dealer_secrets["y"]
        assert all(y % 7 == secret for y in ys)
        from crthss.dhss import lift_share
        for (i, level), _ in result.public.w.items():
            share = next(s for s in result.shares if s.participant == i)
            assert lift_share(share, level, result.public) == ys[level - 1] % share.modulus


def test_lift_of_negative_share_names_no_value(micro_params):
    # the OWF refuses a negative input; the value is a share's private
    # value, so the message names only the range
    from crthss.dhss import lift_share
    result = deal(4, micro_params, DHSS_SEED)
    share = dataclasses.replace(result.shares[0], value=-987654321987654321)
    with pytest.raises(ValueError) as excinfo:
        lift_share(share, 1, result.public)
    assert "987654321987654321" not in str(excinfo.value)
    assert ">= 0" in str(excinfo.value)


def test_completeness_exhaustive_micro(micro_params):
    for secret in range(7):
        for seed in range(20):
            result = deal(secret, micro_params, seed)
            by_id = {s.participant: s for s in result.shares}
            for group in all_authorized_sets(micro_params):
                shares = [by_id[i] for i in group]
                assert reconstruct(shares, result.public) == secret


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
        rng.choice((0, 1))  # once the OWF kind; kept so later draws match
        params = SchemeParams(sequence=seq, hierarchy=hier)
        secret = rng.randrange(m0)
        result = deal(secret, params, rng.randrange(2**32))
        by_id = {s.participant: s for s in result.shares}
        # a qualifying set: t_l members drawn from the first N_l participants
        level = rng.randrange(1, hier.m + 1)
        pool = range(1, hier.cumulative[level - 1] + 1)
        group = rng.sample(pool, hier.thresholds[level - 1])
        shares = [by_id[i] for i in group]
        assert reconstruct(shares, result.public) == secret
        # oversupplying never changes the answer
        everyone = [by_id[i] for i in range(1, hier.n + 1)]
        assert reconstruct(everyone, result.public) == secret
        # sampled failing sets are refused
        for _ in range(3):
            sub = set(rng.sample(range(1, hier.n + 1), rng.randrange(0, hier.n + 1)))
            if len(hier.failing_levels(sub)) == hier.m:
                with pytest.raises(NotAuthorized):
                    reconstruct([by_id[i] for i in sub], result.public)


def test_single_level_matches_flat(flat_params, micro_seq):
    # the flat Asmuth-Bloom deal by definition: alpha uniform below
    # (prod(m_1..m_t) - 1 - s) / m0, the first draw of the seeded dealer
    for seed in (0, 1, 2, 99):
        result = deal(5, dataclasses.replace(flat_params, scheme="dhss"), seed,
                      keep_dealer_secrets=True)
        y = 5 + random.Random(seed).randrange((11 * 13 - 1 - 5) // 7 + 1) * 7
        flat_shares = [(i, y % m) for i, m in enumerate(micro_seq.moduli, start=1)]
        assert result.dealer_secrets["y"] == (y,)
        assert [(s.participant, s.value) for s in result.shares] == flat_shares
        assert result.public.w == {}


@pytest.mark.parametrize("scheme, message", [
    ("xyz", "unknown scheme 'xyz'"),
    ("ab", "flat dealing needs a single-level parameter set"),
])
def test_reconstruct_and_audit_apply_the_scheme_rule(scheme, message):
    # a deal's parameters relabelled after the deal, with a scheme no deal
    # accepts, are refused by reconstruct and by the audit in the words of
    # the deal verdict, not solved or counted as dhss
    sequence = generate_compact_sequence(1009, 5, 1, Fraction(1, 2), 3)
    params = SchemeParams(sequence, Hierarchy((2, 3), (2, 3)))
    dealt = deal(7, params, 1)
    relabelled = dataclasses.replace(
        dealt, public=PublicBundle(dataclasses.replace(params, scheme=scheme),
                                   dealt.public.w))
    with pytest.raises(InvalidParams, match=f"^{message}$"):
        deal(7, relabelled.public.params, 1)
    with pytest.raises(ValueError, match=f"^{message}$"):
        reconstruct(dealt.shares, relabelled.public)
    with pytest.raises(InvalidParams, match=f"^{message}$"):
        enumerate_posterior(adversary_view(relabelled, {1, 3}))


def test_share_is_a_frozen_dataclass():
    # the share path builds Shares by position: keyword and positional
    # construction, equality, hashing, immutability, replace, field order
    # and repr are those of the frozen dataclass
    keyword = Share(participant=3, level=2, modulus=1021, value=77)
    positional = Share(3, 2, 1021, 77)
    assert keyword == positional and hash(keyword) == hash(positional)
    assert hash(keyword) == hash((3, 2, 1021, 77))
    assert keyword != Share(3, 2, 1021, 78) and keyword != (3, 2, 1021, 77)
    assert len({keyword, positional, Share(3, 2, 1021, 78)}) == 2
    for name in ("participant", "level", "modulus", "value"):
        with pytest.raises(dataclasses.FrozenInstanceError):
            setattr(keyword, name, 0)
        with pytest.raises(dataclasses.FrozenInstanceError):
            delattr(keyword, name)
    with pytest.raises(dataclasses.FrozenInstanceError):
        keyword.extra = 1
    assert dataclasses.is_dataclass(Share)
    assert [f.name for f in dataclasses.fields(Share)] == [
        "participant", "level", "modulus", "value"]
    changed = dataclasses.replace(keyword, value=5)
    assert changed == Share(3, 2, 1021, 5) and keyword.value == 77
    assert repr(keyword) == "Share(participant=3, level=2, modulus=1021, value=77)"
    with pytest.raises(TypeError):
        Share(3, 2, 1021)
    with pytest.raises(TypeError):
        Share(3, 2, 1021, 77, 0)
