"""Candidate counting, entropy loss, eta dichotomy, ratios, rates.

The eta / eta + 1 dichotomy is count_grouping at one level, and the limit
ratio is a level profile's ratio; the paper's rate claims are checked by
integer powers: rho = log m0 / log m_n >= p/q exactly when m0^q >= m_n^p.

The exhaustive tuple scan is the oracle throughout: wherever it is feasible,
the level-profile counts must agree with it exactly.
"""

import dataclasses
import random
import time
from collections import Counter
from decimal import Decimal, localcontext
from fractions import Fraction
from math import isqrt, log2
from types import SimpleNamespace

import pytest

from conftest import AB_SEED, CHSS_SEED, DHSS_SEED, random_prime
from scan_oracle import profile_counts, scan_posterior_counts
from crthss import (
    CompactSequence,
    Hierarchy,
    SchemeParams,
    adversary_view,
    deal,
    enumerate_posterior,
    generate_compact_sequence,
    information_rate,
    count_grouping,
    worst_case_unauthorized,
)
from crthss.errors import (
    DecompositionMismatch,
    IntervalExhausted,
    IntractableInstance,
    NotUnauthorized,
)
from crthss.analysis import _entropy_report, _floor_sum, _level_profiles


def eta_split(report):
    """The one-level floor eta and the secrets d1, d2 with eta and eta + 1
    candidates, after count_grouping has certified that no other count
    occurs."""
    count_grouping(report)
    (profile,) = report.levels
    eta = profile.floor
    return eta, report.histogram[eta], report.histogram[eta + 1]


def test_micro_dhss_posterior_matches_scan(micro_params):
    result = deal(4, micro_params, DHSS_SEED)
    view = adversary_view(result, {2})
    report = enumerate_posterior(view)
    counts = profile_counts(report, "dhss")
    # frozen from the exhaustive scan over z_1 < 11, z_2 < 143
    assert counts == {0: 4, 1: 4, 2: 4, 3: 2, 4: 1, 5: 1, 6: 2}
    assert report.total == 18
    scan = scan_posterior_counts(view)
    assert scan == counts
    assert report.histogram == Counter(scan.values())
    assert counts[4] >= 1  # the true secret stays alive
    assert report.loss >= 0


def test_micro_empty_adversary(micro_params):
    # no shares: every secret keeps floor(bound/m0) or floor+1 tuples; the
    # counting posterior is nearly but not exactly flat at this tiny size
    result = deal(4, micro_params, DHSS_SEED)
    view = adversary_view(result, set())
    report = enumerate_posterior(view)
    counts = profile_counts(report, "dhss")
    assert counts == {0: 42, 1: 42, 2: 42, 3: 40, 4: 20, 5: 20, 6: 20}
    scan = scan_posterior_counts(view)
    assert scan == counts
    assert report.histogram == Counter(scan.values())
    assert 0 < report.loss < 0.1


def test_flat_posterior_and_eta(flat_params):
    dealt = deal(3, flat_params, AB_SEED)
    view = adversary_view(dealt, {1})
    report = enumerate_posterior(view)
    # frozen from the scan of y in [0, 143) with y = 5 (mod 11)
    counts = profile_counts(report, "dhss")
    assert counts == {0: 2, 1: 1, 2: 2, 3: 2, 4: 2, 5: 2, 6: 2}
    scan = scan_posterior_counts(view)
    assert scan == counts
    assert report.histogram == Counter(scan.values())
    eta, d1, d2 = eta_split(report)
    assert eta == 143 // 77 == 1
    assert (d1, d2) == (1, 6)
    assert d1 + d2 == 7
    # the division identity: C = m0*eta + d2 = eta*(d1 + d2) + d2
    assert eta * (d1 + d2) + d2 == report.total == 13


def test_micro_chss_posterior_matches_scan(micro_params):
    result = deal(4, dataclasses.replace(micro_params, scheme="chss"), CHSS_SEED)
    for members in (set(), {1}, {2}, {3}, {2, 3}):
        view = adversary_view(result, members)
        report = enumerate_posterior(view)
        counts = profile_counts(report, "chss")
        scan = scan_posterior_counts(view)
        assert scan == counts
        assert report.histogram == Counter(scan.values())
        assert report.loss >= 0
        assert counts[4] >= 1


def test_chss_loss_never_negative_near_uniform():
    # near-flat counts once rounded the float entropy sum to a loss of
    # -6.9e-13 bits on this instance; loss is a KL divergence, so >= 0
    seq = generate_compact_sequence(2153, 9, 1, Fraction(1, 2), 0)
    params = SchemeParams(sequence=seq, hierarchy=Hierarchy((2, 3, 4), (2, 3, 5)),
                          scheme="chss")
    view = adversary_view(deal(717, params, 1), {1, 3, 6, 7})
    report = enumerate_posterior(view)
    assert report.loss >= 0
    assert report.conditional_entropy <= report.secret_entropy
    assert report.loss < 1e-9


def test_posterior_rejects_authorized_sets(micro_params):
    result = deal(4, micro_params, DHSS_SEED)
    with pytest.raises(NotUnauthorized):
        enumerate_posterior(adversary_view(result, {1}))
    conj = deal(4, dataclasses.replace(micro_params, scheme="chss"), CHSS_SEED)
    with pytest.raises(NotUnauthorized):
        enumerate_posterior(adversary_view(conj, {1, 2}))


def test_posterior_budget(micro_params):
    result = deal(4, micro_params, DHSS_SEED)
    view = adversary_view(result, {2})
    with pytest.raises(IntractableInstance):
        enumerate_posterior(view, work_budget=3)
    with pytest.raises(IntractableInstance):
        scan_posterior_counts(view, tuple_budget=10)


def test_floor_sum_matches_brute_force():
    rng = random.Random(41)
    for _ in range(3000):
        n, m = rng.randrange(60), rng.randrange(1, 90)
        a, b = rng.randrange(-400, 400), rng.randrange(-400, 400)
        assert _floor_sum(n, m, a, b) == sum((a * i + b) // m for i in range(n))
    for bits in (127, 256):
        m = rng.getrandbits(bits) | 1
        for _ in range(20):
            n = rng.randrange(200)
            a, b = rng.randrange(-m, 2 * m), rng.randrange(-2 * m, m)
            assert _floor_sum(n, m, a, b) == sum((a * i + b) // m for i in range(n))


@pytest.mark.parametrize("bits", [128, 256])
def test_two_level_dhss_posterior_at_real_sizes(bits):
    # the histogram costs O(log m0) for two levels; the work estimate still
    # counts the minority walk, so the budget is lifted here
    m0 = random_prime(random.Random(bits), bits)
    hier = Hierarchy((1, 2), (1, 2))
    seq = generate_compact_sequence(m0, hier.n, 1, Fraction(1, 2), 7)
    params = SchemeParams(sequence=seq, hierarchy=hier)
    view = adversary_view(deal(m0 // 3, params, 11), worst_case_unauthorized(params))
    start = time.perf_counter()
    report = enumerate_posterior(view, work_budget=2**300)
    elapsed = time.perf_counter() - start
    count_grouping(report)
    assert sum(report.histogram.values()) == m0
    assert sum(y * g for y, g in report.histogram.items()) == report.total
    assert elapsed < 1.0


def test_count_grouping_micro(micro_params):
    result = deal(4, micro_params, DHSS_SEED)
    view = adversary_view(result, {2})
    report = enumerate_posterior(view)
    count_grouping(report)
    assert report.histogram == {4: 3, 2: 2, 1: 2}
    assert sum(y * g for y, g in report.histogram.items()) == report.total == 18
    # the group sizes count secrets: they sum to m0 (not the level count)
    assert sum(report.histogram.values()) == 7


def test_count_grouping_flat(flat_params):
    dealt = deal(3, flat_params, AB_SEED)
    view = adversary_view(dealt, {1})
    report = enumerate_posterior(view)
    count_grouping(report)
    assert report.histogram == {1: 1, 2: 6}  # floor(143/77) = 1
    assert sum(report.histogram.values()) == 7

    empty = adversary_view(dealt, set())
    report = enumerate_posterior(empty)
    count_grouping(report)
    assert set(report.histogram) <= {143 // 7, 143 // 7 + 1}


def test_count_grouping_mismatch_is_loud(micro_params):
    result = deal(4, micro_params, DHSS_SEED)
    view = adversary_view(result, {2})
    report = enumerate_posterior(view)
    # secret 0 doctored to 5 candidates, a count no level floors produce
    counts = {**profile_counts(report, "dhss"), 0: 5}
    doctored = dataclasses.replace(
        report, total=report.total + 1, histogram=Counter(counts.values())
    )
    with pytest.raises(DecompositionMismatch):
        count_grouping(doctored)


def test_eta_zero_on_non_compact():
    # adversary modulus above the dealer bound forces eta = 0: counts drop
    # to {0, 1} and only part of the secret space stays consistent
    seq = CompactSequence(m0=7, moduli=(11, 13, 401), k=1, theta=Fraction(1, 2))
    params = SchemeParams(sequence=seq, hierarchy=Hierarchy((3,), (2,)))
    dealt = deal(5, params, 3)
    view = adversary_view(dealt, {3})
    report = enumerate_posterior(view)
    eta, d1, d2 = eta_split(report)
    assert eta == 0
    assert d1 + d2 == 7
    assert d2 == eta * (d1 + d2) + d2 == report.total
    scan = scan_posterior_counts(view)
    assert scan == profile_counts(report, "dhss")
    assert report.histogram == Counter(scan.values())
    assert set(report.histogram) <= {0, 1}


def test_eta_requires_undersized_flat_set(flat_params, micro_params):
    dealt = deal(3, flat_params, AB_SEED)
    with pytest.raises(NotUnauthorized):
        enumerate_posterior(adversary_view(dealt, {1, 2}))
    # with two levels the counts are products of two floor / floor + 1
    # factors: 1 * 1 and 2 * 2 here, so no single eta / eta + 1 split holds
    two_level = deal(3, micro_params, 0)
    report = enumerate_posterior(adversary_view(two_level, {2}))
    assert [p.floor for p in report.levels] == [1, 1]
    count_grouping(report)
    assert sorted(report.histogram) == [1, 4]


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
        params = SchemeParams(sequence=seq, hierarchy=Hierarchy((n,), (t,)))
        dealt = deal(rng.randrange(m0), params, rng.randrange(2**32))
        members = set(rng.sample(range(1, n + 1), t - 1))
        view = adversary_view(dealt, members)
        report = enumerate_posterior(view)
        eta, d1, d2 = eta_split(report)
        assert d1 + d2 == m0
        assert set(report.histogram) <= {eta, eta + 1}
        # without the secret congruence the candidate total obeys the
        # division identity C = m0*eta + d2
        assert report.total == m0 * eta + d2


def test_minority_fraction_shrinks_along_ladder():
    # fixed shape, growing m0: the minority share of the eta/eta+1 split
    # thins out (seeded instances; acceptance re-runs the full version)
    fractions = []
    for m0 in (97, 997, 9973):
        seq = generate_compact_sequence(m0, 3, 1, Fraction(1, 2), 1)
        params = SchemeParams(sequence=seq, hierarchy=Hierarchy((3,), (2,)))
        dealt = deal(m0 // 2, params, 2)
        _, d1, d2 = eta_split(enumerate_posterior(adversary_view(dealt, {1})))
        fractions.append(min(d1, d2) / m0)
    assert fractions[0] > fractions[1] > fractions[2]


def test_limit_ratio_micro(micro_params):
    result = deal(4, micro_params, DHSS_SEED)
    worst = worst_case_unauthorized(micro_params)
    assert worst == {2}
    view = adversary_view(result, worst)
    profiles = _level_profiles(view)
    assert all(p.worst_case for p in profiles)
    # far from the k=1 asymptotic regime: both ratios sit at 11/7
    assert profiles[0].ratio == Fraction(11, 7)
    assert profiles[1].ratio == Fraction(143, 7 * 13)
    width = Fraction(2, 7)  # floor(sqrt 7) / m0
    assert abs(profiles[1].ratio - 1) > width

    # {2, 3} holds t_2 members inside N_2: not a worst-case set at level 2
    assert not _level_profiles(adversary_view(result, {2, 3}))[1].worst_case


def test_limit_ratio_compact_instance():
    # on a genuinely 1-compact ladder the worst-case ratio hugs k
    seq = generate_compact_sequence(997, 3, 1, Fraction(1, 2), 5)
    params = SchemeParams(sequence=seq, hierarchy=Hierarchy((1, 2), (1, 2)))
    result = deal(123, params, 6)
    view = adversary_view(result, worst_case_unauthorized(params))
    envelope = Fraction(compact_width := 31, 997)  # floor(sqrt 997) = 31
    profiles = _level_profiles(view)
    for profile in profiles:
        assert profile.worst_case
        assert 1 < profile.ratio < 1 + envelope
    # level 1 with an empty prefix is the interval condition itself
    assert profiles[0].ratio == Fraction(seq.moduli[0], 997)


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
    m0, m_n = micro_params.sequence.m0, micro_params.sequence.moduli[-1]
    assert m0**1000 >= m_n**686
    assert not m0**1000 >= m_n**687

    # the analytic floor for m0 = 2^31 - 1 at theta = 1/2 clears 0.999 by a
    # wide margin but sits just under six nines
    m0 = 2**31 - 1
    top = m0 + isqrt(m0)
    assert m0**1000 >= top**999
    # the six-nines powers have 31 million bits each; decimal's correctly
    # rounded ln at 40 digits separates q*ln(m0) from p*ln(top) instead,
    # which differ by at least 0.09
    with localcontext() as ctx:
        ctx.prec = 40
        ln_m0, ln_top = Decimal(m0).ln(), Decimal(top).ln()
        assert 1000000 * ln_m0 - 999998 * ln_top > Decimal("0.09")
        assert 1000000 * ln_m0 - 999999 * ln_top < Decimal("-0.09")


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
        rng.choice((0, 1))  # once the OWF kind; kept so later draws match
        params = SchemeParams(sequence=seq, hierarchy=hier, scheme=scheme)
        secret = rng.randrange(m0)
        result = deal(secret, params, rng.randrange(2**32))
        # dhss: every level fails; chss: some level fails
        unauthorized = (lambda failing: len(failing) == hier.m) if scheme == "dhss" else bool
        candidates = [
            set(c)
            for r in range(0, hier.n)
            for c in __import__("itertools").combinations(range(1, hier.n + 1), r)
            if unauthorized(hier.failing_levels(c))
        ]
        members = rng.choice(candidates)
        view = adversary_view(result, members)
        report = enumerate_posterior(view)
        counts = profile_counts(report, scheme)
        scan = scan_posterior_counts(view, tuple_budget=10**6)
        assert scan == counts
        assert report.histogram == Counter(scan.values())
        assert report.loss >= 0
        assert counts[secret] >= 1
        if scheme == "dhss":
            count_grouping(report)
            assert sum(y * g for y, g in report.histogram.items()) == report.total
            assert sum(report.histogram.values()) == m0
        instances += 1


def fraction_entropies(histogram, m0):
    """The conditional entropy and loss from the Fraction sum of the float
    terms c*log2(c), rounded once: the oracle for the integer sum."""

    def xlog2x(c):
        try:
            return Fraction(c * log2(c))
        except OverflowError:  # inf, or c itself too large for a float
            return c * Fraction(log2(c))

    total = sum(c * g for c, g in histogram.items())
    if len(histogram) == 1:
        return log2(m0), 0.0
    weighted = sum(g * xlog2x(c) for c, g in histogram.items() if c)
    try:
        mean = float(weighted) / total
    except OverflowError:  # weighted or total past the float range
        mean = float(weighted / total)
    conditional = min(log2(total) - mean, log2(m0))
    return conditional, log2(m0) - conditional


def _overflows(function) -> bool:
    try:
        function()
    except OverflowError:
        return True
    return False


@pytest.mark.parametrize("kind", ["small", "wide", "term-past-float",
                                  "count-past-2^1024", "sum-past-float"])
def test_integer_entropy_sum_matches_the_fraction_sum(kind):
    rng = random.Random(f"entropy-{kind}")
    for _ in range(40):
        m0 = rng.randrange(2, 2**64)
        # count bits, and how many secrets take each count
        bits, weight = {
            "small": (rng.randrange(1, 12), 2**10),
            "wide": (rng.randrange(1, 400), 2**40),
            # c*log2(c) is inf while c itself is a float
            "term-past-float": (rng.randrange(1015, 1024), 2**8),
            # c itself is past the float range
            "count-past-2^1024": (rng.randrange(1025, 1100), 2**8),
            # every term is a float, but the weighted sum and total are not
            "sum-past-float": (rng.randrange(990, 1010), 2**40),
        }[kind]
        histogram = Counter({
            rng.randrange(1, 2**bits): rng.randrange(1, weight)
            for _ in range(rng.randrange(1, 6))
        })
        top = max(histogram)
        if kind == "sum-past-float":
            histogram[top] = 2**40
            assert not _overflows(lambda: Fraction(top * log2(top)))
            total = sum(c * g for c, g in histogram.items())
            assert _overflows(lambda: float(total))
        elif kind != "small" and kind != "wide":
            assert _overflows(lambda: Fraction(top * log2(top)))
        if kind == "count-past-2^1024":
            assert top > 2**1024
        report = _entropy_report(histogram, (SimpleNamespace(m0=m0),))
        conditional, loss = fraction_entropies(histogram, m0)
        assert report.conditional_entropy == conditional
        assert report.loss == loss
        assert report.secret_entropy == log2(m0)
