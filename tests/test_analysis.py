"""Candidate counting, entropy loss, eta dichotomy, ratios, rates.

The exhaustive tuple scan is the oracle throughout: wherever it is feasible,
the level-profile counts must agree with it exactly.
"""

import dataclasses
import random
import time
from fractions import Fraction

import pytest

from conftest import AB_SEED, CHSS_SEED, DHSS_SEED
from scan_oracle import scan_posterior_counts
from crthss import (
    CompactSequence,
    Hierarchy,
    OwfFamily,
    SchemeParams,
    adversary_view,
    bound_rate_at_least,
    chss_deal,
    dhss_deal,
    enumerate_posterior,
    eta_single_layer,
    generate_compact_sequence,
    information_rate,
    count_grouping,
    limit_ratio,
    rate_at_least,
    worst_case_unauthorized,
)
from crthss.errors import (
    DecompositionMismatch,
    IntervalExhausted,
    IntractableInstance,
    NotUnauthorized,
    WrongCardinality,
)
from crthss.analysis import _log_ratio_at_least


def test_micro_dhss_posterior_matches_scan(micro_params):
    result = dhss_deal(4, micro_params, DHSS_SEED)
    view = adversary_view(result, {2})
    report = enumerate_posterior(view, "dhss")
    # frozen from the exhaustive scan over z_1 < 11, z_2 < 143
    assert report.per_secret_counts == {0: 4, 1: 4, 2: 4, 3: 2, 4: 1, 5: 1, 6: 2}
    assert report.total == 18
    assert scan_posterior_counts(view, "dhss") == dict(report.per_secret_counts)
    assert report.per_secret_counts[4] >= 1  # the true secret stays alive
    assert report.loss >= 0


def test_micro_empty_adversary(micro_params):
    # no shares: every secret keeps floor(bound/m0) or floor+1 tuples; the
    # counting posterior is nearly but not exactly flat at this tiny size
    result = dhss_deal(4, micro_params, DHSS_SEED)
    view = adversary_view(result, set())
    report = enumerate_posterior(view, "dhss")
    assert report.per_secret_counts == {0: 42, 1: 42, 2: 42, 3: 40, 4: 20, 5: 20, 6: 20}
    assert scan_posterior_counts(view, "dhss") == dict(report.per_secret_counts)
    assert 0 < report.loss < 0.1


def test_flat_posterior_and_eta(flat_params):
    deal = dhss_deal(3, flat_params, AB_SEED)
    view = adversary_view(deal, {1})
    report = enumerate_posterior(view, "dhss")
    # frozen from the scan of y in [0, 143) with y = 5 (mod 11)
    assert report.per_secret_counts == {0: 2, 1: 1, 2: 2, 3: 2, 4: 2, 5: 2, 6: 2}
    assert scan_posterior_counts(view, "dhss") == dict(report.per_secret_counts)
    eta = eta_single_layer(view)
    assert eta.eta == 143 // 77 == 1
    assert (eta.d1, eta.d2) == (1, 6)
    assert eta.d1 + eta.d2 == 7
    assert eta.total_candidates == report.total == 13


def test_micro_chss_posterior_matches_scan(micro_params):
    result = chss_deal(4, micro_params, CHSS_SEED)
    for members in (set(), {1}, {2}, {3}, {2, 3}):
        view = adversary_view(result, members)
        report = enumerate_posterior(view, "chss")
        assert scan_posterior_counts(view, "chss") == dict(report.per_secret_counts)
        assert report.loss >= 0
        assert report.per_secret_counts[4] >= 1


def test_chss_loss_never_negative_near_uniform():
    # near-flat counts once rounded the float entropy sum to a loss of
    # -6.9e-13 bits on this instance; loss is a KL divergence, so >= 0
    seq = generate_compact_sequence(2153, 9, 1, Fraction(1, 2), 0)
    params = SchemeParams(sequence=seq, hierarchy=Hierarchy((2, 3, 4), (2, 3, 5)))
    view = adversary_view(chss_deal(717, params, 1), {1, 3, 6, 7})
    report = enumerate_posterior(view, "chss")
    assert report.loss >= 0
    assert report.conditional_entropy <= report.secret_entropy
    assert report.loss < 1e-9


def test_posterior_rejects_authorized_sets(micro_params):
    result = dhss_deal(4, micro_params, DHSS_SEED)
    with pytest.raises(NotUnauthorized):
        enumerate_posterior(adversary_view(result, {1}), "dhss")
    conj = chss_deal(4, micro_params, CHSS_SEED)
    with pytest.raises(NotUnauthorized):
        enumerate_posterior(adversary_view(conj, {1, 2}), "chss")


def test_posterior_budget(micro_params):
    result = dhss_deal(4, micro_params, DHSS_SEED)
    view = adversary_view(result, {2})
    with pytest.raises(IntractableInstance):
        enumerate_posterior(view, "dhss", work_budget=3)
    with pytest.raises(IntractableInstance):
        scan_posterior_counts(view, "dhss", tuple_budget=10)


def test_count_grouping_micro(micro_params):
    result = dhss_deal(4, micro_params, DHSS_SEED)
    view = adversary_view(result, {2})
    report = enumerate_posterior(view, "dhss")
    decomposition = count_grouping(report)
    assert dict(decomposition.groups) == {4: 3, 2: 2, 1: 2}
    assert decomposition.weighted_total() == report.total == 18
    # the group sizes count secrets: they sum to m0 (not the level count)
    assert decomposition.gamma_total == 7


def test_count_grouping_flat(flat_params):
    deal = dhss_deal(3, flat_params, AB_SEED)
    view = adversary_view(deal, {1})
    report = enumerate_posterior(view, "dhss")
    decomposition = count_grouping(report)
    assert dict(decomposition.groups) == {1: 1, 2: 6}  # floor(143/77) = 1
    assert decomposition.gamma_total == 7

    empty = adversary_view(deal, set())
    report = enumerate_posterior(empty, "dhss")
    decomposition = count_grouping(report)
    assert set(decomposition.groups) <= {143 // 7, 143 // 7 + 1}


def test_count_grouping_mismatch_is_loud(micro_params):
    result = dhss_deal(4, micro_params, DHSS_SEED)
    view = adversary_view(result, {2})
    report = enumerate_posterior(view, "dhss")
    # histogram=None recounts the groups from the doctored counts
    doctored = dataclasses.replace(
        report,
        per_secret_counts={**report.per_secret_counts, 0: 5},
        total=report.total + 1,
        histogram=None,
    )
    with pytest.raises(DecompositionMismatch):
        count_grouping(doctored)


def test_eta_zero_on_non_compact():
    # adversary modulus above the dealer bound forces eta = 0: counts drop
    # to {0, 1} and only part of the secret space stays consistent
    seq = CompactSequence(m0=7, moduli=(11, 13, 401), k=1, theta=Fraction(1, 2))
    params = SchemeParams(
        sequence=seq, hierarchy=Hierarchy((3,), (2,)), owf=OwfFamily(kind="test_affine")
    )
    deal = dhss_deal(5, params, 3)
    view = adversary_view(deal, {3})
    eta = eta_single_layer(view)
    assert eta.eta == 0
    assert eta.d1 + eta.d2 == 7
    assert eta.d2 == eta.total_candidates
    report = enumerate_posterior(view, "dhss")
    assert scan_posterior_counts(view, "dhss") == dict(report.per_secret_counts)
    assert set(report.per_secret_counts.values()) <= {0, 1}


def test_eta_requires_undersized_flat_set(flat_params, micro_params):
    deal = dhss_deal(3, flat_params, AB_SEED)
    with pytest.raises(NotUnauthorized):
        eta_single_layer(adversary_view(deal, {1, 2}))
    two_level = dhss_deal(3, micro_params, 0)
    with pytest.raises(ValueError):
        eta_single_layer(adversary_view(two_level, {2}))


def test_eta_dichotomy_random_flat():
    rng = random.Random(60)
    for _ in range(15):
        m0 = rng.choice([97, 101, 997])
        n = rng.randrange(2, 5)
        t = rng.randrange(2, n + 1)
        k = rng.randrange(1, 4)
        try:
            seq = generate_compact_sequence(
                m0, n, k, Fraction(2, 3), rng.randrange(2**32)
            )
        except IntervalExhausted:
            continue
        params = SchemeParams(
            sequence=seq,
            hierarchy=Hierarchy((n,), (t,)),
            owf=OwfFamily(kind="test_affine"),
        )
        deal = dhss_deal(rng.randrange(m0), params, rng.randrange(2**32))
        members = set(rng.sample(range(1, n + 1), t - 1))
        view = adversary_view(deal, members)
        eta = eta_single_layer(view)
        assert eta.d1 + eta.d2 == m0
        report = enumerate_posterior(view, "dhss")
        assert set(report.per_secret_counts.values()) <= {eta.eta, eta.eta + 1}
        # without the secret congruence the candidate total obeys the
        # division identity C = m0*eta + d2
        assert report.total == eta.total_candidates


def test_minority_fraction_shrinks_along_ladder():
    # fixed shape, growing m0: the minority share of the eta/eta+1 split
    # thins out (seeded instances; acceptance re-runs the full version)
    fractions = []
    for m0 in (97, 997, 9973):
        seq = generate_compact_sequence(m0, 3, 1, Fraction(1, 2), 1)
        params = SchemeParams(
            sequence=seq,
            hierarchy=Hierarchy((3,), (2,)),
            owf=OwfFamily(kind="test_affine"),
        )
        deal = dhss_deal(m0 // 2, params, 2)
        report = eta_single_layer(adversary_view(deal, {1}))
        fractions.append(min(report.d1, report.d2) / m0)
    assert fractions[0] > fractions[1] > fractions[2]


def test_limit_ratio_micro(micro_params):
    result = dhss_deal(4, micro_params, DHSS_SEED)
    worst = worst_case_unauthorized(micro_params)
    assert worst == {2}
    view = adversary_view(result, worst)
    # far from the k=1 asymptotic regime: both ratios sit at 11/7
    assert limit_ratio(1, view) == Fraction(11, 7)
    assert limit_ratio(2, view) == Fraction(143, 7 * 13)
    width = Fraction(2, 7)  # floor(sqrt 7) / m0
    assert abs(limit_ratio(2, view) - 1) > width

    with pytest.raises(WrongCardinality):
        limit_ratio(2, adversary_view(result, {2, 3}))


def test_limit_ratio_compact_instance():
    # on a genuinely 1-compact ladder the worst-case ratio hugs k
    seq = generate_compact_sequence(997, 3, 1, Fraction(1, 2), 5)
    params = SchemeParams(
        sequence=seq,
        hierarchy=Hierarchy((1, 2), (1, 2)),
        owf=OwfFamily(kind="test_affine"),
    )
    result = dhss_deal(123, params, 6)
    view = adversary_view(result, worst_case_unauthorized(params))
    envelope = Fraction(compact_width := 31, 997)  # floor(sqrt 997) = 31
    for level in (1, 2):
        ratio = limit_ratio(level, view)
        assert 1 < ratio < 1 + envelope
    # level 1 with an empty prefix is the interval condition itself
    assert limit_ratio(1, view) == Fraction(seq.moduli[0], 997)


def test_information_rate(micro_params):
    from math import log2
    rate = information_rate(micro_params)
    assert rate.rho == pytest.approx(log2(7) / log2(17), abs=1e-12)
    assert rate.rho == pytest.approx(0.686821, abs=1e-6)
    assert rate.compact_lower_bound == pytest.approx(log2(7) / log2(9), abs=1e-12)

    degenerate = SchemeParams(
        sequence=CompactSequence(m0=7, moduli=(7,), k=1, theta=Fraction(1, 2)),
        hierarchy=Hierarchy((1,), (1,)),
    )
    assert information_rate(degenerate).rho == 1.0


def test_rate_exact_comparisons(micro_params):
    # rho = log 7 / log 17 = 0.6868...; bracket it exactly
    assert rate_at_least(micro_params, Fraction(686, 1000))
    assert not rate_at_least(micro_params, Fraction(687, 1000))

    # the analytic floor for m0 = 2^31 - 1 at theta = 1/2 clears 0.999 by a
    # wide margin but sits just under six nines
    m0 = 2**31 - 1
    assert bound_rate_at_least(m0, Fraction(1, 2), Fraction(999, 1000))
    assert bound_rate_at_least(m0, Fraction(1, 2), Fraction(999998, 1000000))
    assert not bound_rate_at_least(m0, Fraction(1, 2), Fraction(999999, 1000000))


def test_rate_comparisons_match_integer_powers():
    def ladder(m0, m_n):
        return SchemeParams(
            sequence=CompactSequence(m0=m0, moduli=(m_n,), k=1, theta=Fraction(1, 2)),
            hierarchy=Hierarchy((1,), (1,)),
        )

    # exact ties (8^5 = 32^3, 4^3 = 8^2) sit inside the float margin, so the
    # integer powers decide them
    assert rate_at_least(ladder(8, 32), Fraction(3, 5))
    assert rate_at_least(ladder(4, 8), Fraction(2, 3))
    # best rational approximations of rho land on both sides of it
    from math import log2
    rng = random.Random(63)
    for _ in range(300):
        m0 = rng.randrange(2, 10**6)
        m_n = m0 + rng.randrange(1, 10**4)
        approx = Fraction(log2(m0) / log2(m_n)).limit_denominator(rng.randrange(1, 2000))
        p, q = approx.numerator, approx.denominator
        for threshold in (approx, Fraction(p + 1, q), Fraction(max(p - 1, 1), q)):
            exact = m0 ** threshold.denominator >= m_n ** threshold.numerator
            assert rate_at_least(ladder(m0, m_n), threshold) == exact


def test_rate_near_ties_decide_fast():
    # thresholds inside the float margin whose integer powers would have
    # millions of digits or far more are decided by fixed-point logs, and
    # an exact tie small^q == large^p still counts as reaching it
    start = time.perf_counter()
    # 9910705/9911422 is the float analytic floor through limit_denominator(10**7)
    assert not bound_rate_at_least(1000003, Fraction(1, 2), Fraction(9910705, 9911422))
    assert bound_rate_at_least(1000003, Fraction(1, 2), Fraction(9910704, 9911422))
    p, q = 100003, 100019
    small, large = 3**p, 3**q
    assert _log_ratio_at_least(small, large, Fraction(p, q))
    assert not _log_ratio_at_least(small, large, Fraction(p * 10**9 + 1, q * 10**9))
    assert _log_ratio_at_least(small, large, Fraction(p * 10**9 - 1, q * 10**9))
    assert time.perf_counter() - start < 1.0


def test_randomized_oracle_equivalence():
    rng = random.Random(61)
    instances = 0
    while instances < 12:
        m0 = rng.choice([5, 7, 11, 13])
        scheme = rng.choice(["dhss", "chss"])
        shape = rng.choice([((1, 2), (1, 2)), ((2, 2), (1, 3)), ((3,), (2,))])
        hier = Hierarchy(*shape)
        pool = [m for m in range(m0 + 1, 60) if m % m0 != 0]
        moduli = []
        for m in rng.sample(pool, len(pool)):
            from math import gcd
            if all(gcd(m, o) == 1 for o in moduli) and gcd(m, m0) == 1:
                moduli.append(m)
            if len(moduli) == hier.n:
                break
        seq = CompactSequence(m0=m0, moduli=tuple(sorted(moduli)), k=1,
                              theta=Fraction(1, 2))
        bound = 1
        for t in hier.thresholds:
            bound = seq.prefix_product(t)
        if bound > 40_000:
            continue
        params = SchemeParams(sequence=seq, hierarchy=hier,
                              owf=OwfFamily(kind=rng.choice(["test_affine", "hash_based"])))
        secret = rng.randrange(m0)
        if scheme == "dhss":
            result = dhss_deal(secret, params, rng.randrange(2**32))
            unauthorized = lambda s: __import__("crthss").dhss_authorized_level(s, params) is None
        else:
            result = chss_deal(secret, params, rng.randrange(2**32))
            from crthss import chss_is_authorized
            unauthorized = lambda s: not chss_is_authorized(s, params)
        candidates = [
            set(c)
            for r in range(0, hier.n)
            for c in __import__("itertools").combinations(range(1, hier.n + 1), r)
            if unauthorized(set(c))
        ]
        members = rng.choice(candidates)
        view = adversary_view(result, members)
        report = enumerate_posterior(view, scheme)
        assert scan_posterior_counts(view, scheme, tuple_budget=10**6) == dict(
            report.per_secret_counts
        )
        assert report.loss >= 0
        assert report.per_secret_counts[secret] >= 1
        if scheme == "dhss":
            decomposition = count_grouping(report)
            assert decomposition.weighted_total() == report.total
            assert decomposition.gamma_total == m0
        instances += 1
