"""Level-profile counting against per-secret reference counting.

``count_with_residue`` and the quadratic cyclic convolution below are the
straightforward counting the audit used before it read counts off level
profiles: one congruence-system count per (secret, level), and an O(m0^2)
convolution of the conjunctive tables. They stay here as references at sizes
the tuple scan cannot reach (m0 up to a few thousand). The entropy reference
is the correctly rounded float sum of the per-secret terms, so the audit's
conditional entropy must match it bit for bit.

``sparse_disjunctive_counts`` is the histogram as it stood before the audit
counted secrets per minority pattern: a walk over the union of every level's
minority secrets. It is the reference for the pattern histogram at sizes
where a dict over every secret is too large.

The audit reports only the histogram of the counts; ``profile_counts``
rebuilds the per-secret counts from the report's level profiles, so the
naive convolution there checks the conjunctive fold and the 2-level window
sweep at m0 in the thousands.
"""

import dataclasses
import hashlib
import itertools
import random
import tracemalloc
from collections import Counter
from fractions import Fraction
from math import fsum, gcd, log2, prod

from crthss import (
    CompactSequence,
    Hierarchy,
    SchemeParams,
    adversary_view,
    count_grouping,
    crt_solve,
    deal,
    enumerate_posterior,
    generate_compact_sequence,
    is_prime,
    worst_case_unauthorized,
)
from crthss.analysis import (
    LevelProfile,
    _conjunctive_histogram,
    _entropy_report,
    _table_fold,
    _two_level_sweep,
)
from crthss.crt import mod_inverse
from conftest import random_prime
from scan_oracle import level_count, profile_counts, view_congruences

SHAPES = (((1, 2), (1, 2)), ((2, 2), (1, 3)), ((3,), (2,)), ((1, 1, 2), (1, 2, 3)))


def level_systems(view):
    """Per level: (base, share modulus, range bound) of the adversary's
    combined constraint z = base (mod share modulus), 0 <= z < bound."""
    seq, hier = view.public.params.sequence, view.public.params.hierarchy
    return [
        (crt_solve(lifts, moduli), prod(moduli), seq.prefix_product(t))
        for t, (lifts, moduli) in zip(hier.thresholds, view_congruences(view))
    ]


def count_with_residue(system, r, m0):
    """How many z < bound satisfy z = base (mod S) and z = r (mod m0)."""
    base, share_mod, bound = system
    u = ((r - base) * pow(share_mod, -1, m0)) % m0
    z = base + share_mod * u
    if z >= bound:
        return 0
    return (bound - 1 - z) // (share_mod * m0) + 1


def reference_counts(view, scheme):
    m0 = view.public.params.sequence.m0
    tables = [
        [count_with_residue(system, r, m0) for r in range(m0)]
        for system in level_systems(view)
    ]
    if scheme == "dhss":
        counts = [1] * m0
        for table in tables:
            counts = [c * t for c, t in zip(counts, table)]
        return dict(enumerate(counts))
    folded = tables[0]
    for table in tables[1:]:
        nxt = [0] * m0
        for a, ca in enumerate(folded):
            if ca:
                for b, cb in enumerate(table):
                    if cb:
                        nxt[(a + b) % m0] += ca * cb
        folded = nxt
    return dict(enumerate(folded))


def reference_conditional_entropy(counts, m0):
    values = [c for c in counts.values() if c > 0]
    if len(values) == m0 and len(set(values)) == 1:
        return log2(m0)
    total = sum(values)
    conditional = log2(total) - fsum(c * log2(c) for c in values) / total
    return min(conditional, log2(m0))


def level_cases(view):
    """Which edge cases the view's levels hit, from the reference systems."""
    m0 = view.public.params.sequence.m0
    cases = set()
    for base, share_mod, bound in level_systems(view):
        reach = -((base - bound) // share_mod) if bound > base else 0
        q, rho = divmod(reach, m0)
        cases.add("q=0" if q == 0 else "q>0")
        if rho == 0:
            cases.add("rho=0")
        elif 2 * rho > m0:
            cases.add("rho>m0/2")
    if not view.members:
        cases.add("empty")
    return cases


def random_instance(rng, m0, shapes=SHAPES):
    """Coprime moduli from a wide window above m0, so some adversary
    moduli outgrow the dealer's range (q = 0) and some do not."""
    shape = rng.choice(shapes)
    hier = Hierarchy(*shape)
    moduli = []
    while len(moduli) < hier.n:
        m = rng.randrange(m0 + 1, 4 * m0)
        if m % m0 and all(gcd(m, o) == 1 for o in moduli):
            moduli.append(m)
    seq = CompactSequence(m0=m0, moduli=tuple(sorted(moduli)), k=1,
                          theta=Fraction(1, 2))
    rng.choice((0, 1))  # once the OWF kind; kept so later draws match
    return SchemeParams(sequence=seq, hierarchy=hier)


def unauthorized_sets(params, scheme):
    n = params.hierarchy.n
    for size in range(n):
        for members in itertools.combinations(range(1, n + 1), size):
            failing = params.hierarchy.failing_levels(members)
            # chss: some level fails; dhss: every level fails
            if (bool(failing) if scheme == "chss"
                    else len(failing) == params.hierarchy.m):
                yield set(members)


def check_against_reference(view, scheme):
    m0 = view.public.params.sequence.m0
    report = enumerate_posterior(view)
    expected = reference_counts(view, scheme)
    assert profile_counts(report, scheme) == expected
    assert report.histogram == Counter(expected.values())
    assert report.total == sum(expected.values())
    assert report.conditional_entropy == reference_conditional_entropy(expected, m0)
    assert report.loss == log2(m0) - report.conditional_entropy
    assert sum(report.histogram.values()) == m0
    assert sum(c * g for c, g in report.histogram.items()) == report.total
    if scheme == "dhss":
        count_grouping(report)


def test_profile_counts_match_reference():
    rng = random.Random(62)
    primes = {
        "dhss": [p for p in range(5, 3000) if is_prime(p)],
        "chss": [p for p in range(5, 500) if is_prime(p)],
    }
    seen = {"dhss": set(), "chss": set()}
    for i in range(32):
        scheme = ("dhss", "chss")[i % 2]
        # small m0 makes rho = 0 (m0 divides K) likely enough to be hit
        m0 = rng.choice(primes[scheme][:3] if i % 4 < 2 else primes[scheme][-40:])
        params = dataclasses.replace(random_instance(rng, m0), scheme=scheme)
        result = deal(rng.randrange(m0), params, rng.randrange(2**32))
        members = rng.choice(list(unauthorized_sets(params, scheme)))
        for adversary in (members, set()):
            view = adversary_view(result, adversary)
            check_against_reference(view, scheme)
            seen[scheme] |= level_cases(view)
    expected_cases = {"q=0", "q>0", "rho=0", "rho>m0/2", "empty"}
    assert seen["dhss"] >= expected_cases
    assert seen["chss"] >= expected_cases


def sparse_disjunctive_counts(profiles, m0):
    """The histogram of the per-secret products of the level counts, tallied
    over the union of every level's minority secrets; every secret outside
    it takes the product of the majority values."""
    majority = 1
    exceptions = set()
    for p in profiles:
        majority *= p.q + (2 * p.rho > m0)
        exceptions.update((p.base + p.step * u) % m0 for u in p.minority)
    histogram = Counter(
        prod(level_count(p, r) for p in profiles) for r in exceptions
    )
    if len(exceptions) < m0:
        histogram[majority] += m0 - len(exceptions)
    return histogram


def test_pattern_histogram_matches_minority_walk():
    # 2-, 3- and 4-level hierarchies; 3 and 4 levels walk the smallest
    # minority set and recurse, 2 levels take the floor-sum overlap alone
    shapes = (
        ((1, 2), (1, 2)), ((2, 2), (1, 3)),
        ((1, 1, 2), (1, 2, 3)), ((2, 1, 2), (2, 3, 4)),
        ((1, 1, 1, 2), (1, 2, 3, 4)), ((1, 2, 2, 1), (1, 2, 4, 5)),
    )
    rng = random.Random(97)
    seen = set()
    for i in range(60):
        shape = shapes[i % len(shapes)]
        theta = (Fraction(1, 2), Fraction(2, 3))[i // len(shapes) % 2]
        m0 = random_prime(rng, rng.randrange(10, 17))
        hier = Hierarchy(*shape)
        seq = generate_compact_sequence(m0, hier.n, 1, theta, rng.randrange(2**32))
        params = SchemeParams(sequence=seq, hierarchy=hier)
        result = deal(rng.randrange(m0), params, rng.randrange(2**32))
        partial = rng.choice([s for s in unauthorized_sets(params, "dhss") if s])
        adversaries = {
            "empty": set(), "partial": partial,
            "worst": worst_case_unauthorized(params),
        }
        for kind, adversary in adversaries.items():
            view = adversary_view(result, adversary)
            report = enumerate_posterior(view, work_budget=2**64)
            histogram = sparse_disjunctive_counts(report.levels, m0)
            expected = _entropy_report(histogram, report.levels)
            assert report.histogram == histogram
            assert report.total == expected.total
            assert report.secret_entropy == expected.secret_entropy
            assert report.conditional_entropy == expected.conditional_entropy
            assert report.loss == expected.loss
            seen.add((hier.m, theta, kind))
    assert len(seen) == 3 * 2 * 3


def test_sparse_disjunctive_counts_match_dense():
    rng = random.Random(71)
    primes = [p for p in range(500, 5000) if is_prime(p)]
    for i in range(24):
        m0 = rng.choice(primes)
        theta = (Fraction(1, 2), Fraction(2, 3))[i % 2]
        hier = Hierarchy(*rng.choice(SHAPES))
        seq = generate_compact_sequence(m0, hier.n, 1, theta, rng.randrange(2**32))
        params = SchemeParams(sequence=seq, hierarchy=hier)
        result = deal(rng.randrange(m0), params, rng.randrange(2**32))
        members = rng.choice(list(unauthorized_sets(params, "dhss")))
        for adversary in (members, worst_case_unauthorized(params), set()):
            view = adversary_view(result, adversary)
            report = enumerate_posterior(view)
            dense = profile_counts(report, "dhss")
            histogram = Counter(dense.values())
            expected = _entropy_report(histogram, report.levels)
            assert len(dense) == m0
            assert report.histogram == histogram
            assert report.histogram == sparse_disjunctive_counts(report.levels, m0)
            assert report.total == expected.total
            assert report.secret_entropy == expected.secret_entropy
            assert report.conditional_entropy == expected.conditional_entropy
            assert report.loss == expected.loss


def test_chss_histogram_matches_naive_convolution():
    # m0 in the thousands, past the tuple scan: the naive convolution of the
    # level profiles checks the fold's histogram, total and entropies; it
    # costs m0^2 per level after the first, so m0 shrinks as levels grow
    cases = (
        (((1, 2), (1, 2)), 2003), (((2, 2), (1, 3)), 1511),
        (((1, 1, 2), (1, 2, 3)), 1201), (((2, 1, 2), (2, 3, 4)), 1009),
    )
    rng = random.Random(83)
    seen = set()
    for shape, m0 in cases:
        hier = Hierarchy(*shape)
        seq = generate_compact_sequence(m0, hier.n, 1, Fraction(1, 2), rng.randrange(2**32))
        params = SchemeParams(sequence=seq, hierarchy=hier, scheme="chss")
        result = deal(rng.randrange(m0), params, rng.randrange(2**32))
        worst = worst_case_unauthorized(params)
        partial = rng.choice([s for s in unauthorized_sets(params, "chss")
                              if s and s != worst])
        for kind, adversary in (("empty", set()), ("partial", partial),
                                ("worst", worst)):
            report = enumerate_posterior(adversary_view(result, adversary))
            counts = profile_counts(report, "chss")
            assert report.histogram == Counter(counts.values())
            assert report.total == sum(counts.values())
            assert report.secret_entropy == log2(m0)
            assert report.conditional_entropy == reference_conditional_entropy(counts, m0)
            seen.add((hier.m, kind))
    assert seen == {(m, kind) for m in (2, 3) for kind in ("empty", "partial", "worst")}
    # two levels take the window sweep; wide moduli windows at small m0 make
    # it meet q = 0, rho = 0 and 2 * rho > m0
    two_level = tuple(shape for shape in SHAPES if len(shape[0]) == 2)
    primes = [p for p in range(5, 700) if is_prime(p)]
    cases = set()
    for i in range(24):
        m0 = rng.choice(primes[:4] if i % 2 else primes[-40:])
        params = dataclasses.replace(random_instance(rng, m0, two_level), scheme="chss")
        result = deal(rng.randrange(m0), params, rng.randrange(2**32))
        members = rng.choice(list(unauthorized_sets(params, "chss")))
        for adversary in (members, set()):
            view = adversary_view(result, adversary)
            report = enumerate_posterior(view)
            counts = profile_counts(report, "chss")
            # equal as dicts: no value is kept with zero secrets
            assert dict(report.histogram) == dict(Counter(counts.values()))
            assert report.total == sum(counts.values())
            assert report.conditional_entropy == reference_conditional_entropy(counts, m0)
            cases |= level_cases(view)
    assert cases >= {"q=0", "q>0", "rho=0", "rho>m0/2", "empty"}


def test_two_level_sweep_matches_table_fold():
    # level profiles drawn directly, so that either level takes q = 0 or
    # q > 0 with rho = 0, just below or above m0 / 2, or m0 - 1; the table
    # fold is the reference, and the histograms must be equal as dicts, so
    # no value is kept with zero secrets
    rng = random.Random(29)
    primes = [p for p in range(2, 600) if is_prime(p)]
    seen = set()
    for i in range(1500):
        m0 = rng.choice(primes[:5] if i % 3 == 0 else primes)
        profiles = []
        for _ in range(2):
            step = rng.randrange(1, m0)
            rho = rng.choice((0, m0 // 2, m0 // 2 + 1, m0 - 1, rng.randrange(m0)))
            q = rng.choice((0, 1, 2, 7))
            profiles.append(LevelProfile(
                threshold=1, bound=0, modulus=1, members=0, m0=m0,
                base=rng.randrange(m0), step=step, inv=mod_inverse(step, m0),
                q=q, rho=rho))
            seen.add(("q=0" if q == 0 else "q>0",
                      "rho=0" if rho == 0 else "rho>m0/2" if 2 * rho > m0 else "rho<m0/2"))
        a, b = profiles
        expected = dict(_table_fold((a, b), m0))
        assert dict(_two_level_sweep(a, b, m0)) == expected
        assert dict(_two_level_sweep(b, a, m0)) == expected
    assert seen == set(itertools.product(("q=0", "q>0"),
                                         ("rho=0", "rho<m0/2", "rho>m0/2")))


def test_sparse_dhss_audit_memory_at_24_bits():
    # a 2-level worst-case audit at m0 near 1.1e7 touches about 3000
    # minority secrets; a table over every secret would take hundreds of MB
    m0 = next(p for p in itertools.count(11_000_001, 2) if is_prime(p))
    hier = Hierarchy((1, 2), (1, 2))
    seq = generate_compact_sequence(m0, hier.n, 1, Fraction(1, 2), 7)
    params = SchemeParams(sequence=seq, hierarchy=hier)
    view = adversary_view(deal(m0 // 3, params, 11), worst_case_unauthorized(params))
    tracemalloc.start()
    try:
        report = enumerate_posterior(view, work_budget=10**8)
        count_grouping(report)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak < 20 * 2**20
    assert sum(report.histogram.values()) == m0
    # the true secret keeps a candidate at every level
    assert prod(level_count(p, m0 // 3) for p in report.levels) >= 1


def test_three_level_dhss_walk_memory_at_22_bits():
    # three levels walk the smallest minority set, here 101497 secrets; as
    # one list it peaked at 3.96 MiB, and at 40 bits (about 4e10 secrets)
    # the process was killed. The walk is lazy, so memory is O(levels).
    m0 = 2895943
    hier = Hierarchy((10, 40, 150), (5, 20, 60))
    seq = generate_compact_sequence(m0, hier.n, 1, Fraction(1, 2), 7)
    params = SchemeParams(sequence=seq, hierarchy=hier)
    view = adversary_view(deal(m0 // 3, params, 3), {2})
    tracemalloc.start()
    try:
        report = enumerate_posterior(view)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak < 2**19
    assert [p.minority_size for p in report.levels] == [485760, 101497, 222837]
    # the histogram the list-based walk gave, pinned by its SHA-256
    assert sorted(report.histogram.values()) == [101497, 222837, 485760, 2085849]
    text = repr(sorted(report.histogram.items())).encode()
    assert hashlib.sha256(text).hexdigest() == (
        "6cec1cc034133d1cbe01f7daa8ab4a63d555c53f04bd2f6d87b7cdc93aa1cdaa")


def test_chss_audit_memory_at_m0_100003():
    # two levels take the window sweep, over the smaller minority set; the
    # table fold it replaced held a few lists of m0 entries, and a prefix
    # list of 2 * m0 + 1 sums with a table per reindex took 14.5 MiB here
    m0 = 100_003
    hier = Hierarchy((1, 2), (1, 2))
    seq = generate_compact_sequence(m0, hier.n, 1, Fraction(1, 2), 7)
    params = SchemeParams(sequence=seq, hierarchy=hier, scheme="chss")
    view = adversary_view(deal(m0 // 3, params, 11), {2})
    tracemalloc.start()
    try:
        report = enumerate_posterior(view)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak < 10 * 2**20
    assert sum(report.histogram.values()) == m0
    # the convolution's total is the product of the level totals q * m0 + rho
    assert report.total == prod(p.q * m0 + p.rho for p in report.levels)


def test_two_level_chss_audit_memory_at_m0_4999999():
    # the default budget admits these m * m0 = 9999998 table entries; a whole
    # audit that folded them peaked at 288 MiB RSS, while the sweep holds the
    # 2 * 122 window ends of the smaller minority side
    m0 = 4_999_999
    hier = Hierarchy((1, 2), (1, 2))
    seq = generate_compact_sequence(m0, hier.n, 1, Fraction(1, 2), 5)
    params = SchemeParams(sequence=seq, hierarchy=hier, scheme="chss")
    view = adversary_view(deal(m0 // 3, params, 6), {2})
    tracemalloc.start()
    try:
        report = enumerate_posterior(view)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak < 2**20
    assert sum(report.histogram.values()) == m0
    assert report.total == prod(p.q * m0 + p.rho for p in report.levels)


def test_one_level_chss_audit_reads_the_split_at_m0_9999991():
    # one level's convolution is its own table, so the histogram is the
    # level's q / q + 1 split, as for dhss; the table fold held m0 entries
    # and a whole audit peaked at 173 MiB RSS here
    m0 = 9_999_991
    hier = Hierarchy((3,), (2,))
    seq = generate_compact_sequence(m0, hier.n, 1, Fraction(1, 2), 5)
    params = SchemeParams(sequence=seq, hierarchy=hier, scheme="chss")
    view = adversary_view(deal(m0 // 3, params, 6), {1})
    tracemalloc.start()
    try:
        report = enumerate_posterior(view)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak < 2**20
    disjunctive = dataclasses.replace(view, public=dataclasses.replace(
        view.public, params=dataclasses.replace(params, scheme="dhss")))
    dhss = enumerate_posterior(disjunctive)
    assert report.histogram == dhss.histogram
    assert (report.total, report.loss) == (dhss.total, dhss.loss)
    assert sum(report.histogram.values()) == m0
    # the table fold is the reference, on profiles that meet q = 0, rho = 0
    # and 2 * rho > m0; equal as dicts, so no value is kept with zero secrets
    rng = random.Random(31)
    for m0 in (3, 7, 101, 499):
        for rho in (0, m0 // 2, m0 // 2 + 1, m0 - 1):
            for q in (0, 1, 5):
                step = rng.randrange(1, m0)
                profile = LevelProfile(
                    threshold=1, bound=0, modulus=1, members=0, m0=m0,
                    base=rng.randrange(m0), step=step, inv=mod_inverse(step, m0),
                    q=q, rho=rho)
                assert (dict(_conjunctive_histogram((profile,), m0))
                        == dict(_table_fold((profile,), m0)))
