"""Level-profile counting against per-secret reference counting.

``count_with_residue`` and the quadratic cyclic convolution below are the
straightforward counting the audit used before it read counts off level
profiles: one congruence-system count per (secret, level), and an O(m0^2)
convolution of the conjunctive tables. They stay here as references at sizes
the tuple scan cannot reach (m0 up to a few thousand). The entropy reference
is the correctly rounded float sum of the per-secret terms, so the audit's
conditional entropy must match it bit for bit.

``dense_disjunctive_counts`` is the disjunctive counter as it stood before
the audit's counts became a lazy view: the same exception walk, but a dict
over every secret. It is the reference for the sparse histogram and the
view's mapping behaviour.
"""

import itertools
import random
import tracemalloc
from collections import Counter
from fractions import Fraction
from math import fsum, gcd, log2, prod

import pytest

from crthss import (
    CompactSequence,
    Hierarchy,
    OwfFamily,
    SchemeParams,
    adversary_view,
    chss_deal,
    chss_is_authorized,
    count_grouping,
    crt_solve,
    dhss_authorized_level,
    dhss_deal,
    enumerate_posterior,
    generate_compact_sequence,
    is_prime,
    worst_case_unauthorized,
)
from crthss.analysis import _entropy_report
from scan_oracle import view_congruences

SHAPES = (((1, 2), (1, 2)), ((2, 2), (1, 3)), ((3,), (2,)), ((1, 1, 2), (1, 2, 3)))


def level_systems(view):
    """Per level: (base, share modulus, range bound) of the adversary's
    combined constraint z = base (mod share modulus), 0 <= z < bound."""
    seq, hier = view.public.params.sequence, view.public.params.hierarchy
    out = []
    for t, congruences in zip(hier.thresholds, view_congruences(view)):
        if congruences:
            sol = crt_solve(congruences)
            base, share_mod = sol.value, sol.combined_modulus
        else:
            base, share_mod = 0, 1
        out.append((base, share_mod, seq.prefix_product(t)))
    return out


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


def random_instance(rng, m0):
    """Coprime moduli from a wide window above m0, so some adversary
    moduli outgrow the dealer's range (q = 0) and some do not."""
    shape = rng.choice(SHAPES)
    hier = Hierarchy(*shape)
    moduli = []
    while len(moduli) < hier.n:
        m = rng.randrange(m0 + 1, 4 * m0)
        if m % m0 and all(gcd(m, o) == 1 for o in moduli):
            moduli.append(m)
    seq = CompactSequence(m0=m0, moduli=tuple(sorted(moduli)), k=1,
                          theta=Fraction(1, 2))
    owf = OwfFamily(kind=rng.choice(["test_affine", "hash_based"]))
    return SchemeParams(sequence=seq, hierarchy=hier, owf=owf)


def unauthorized_sets(params, scheme):
    n = params.hierarchy.n
    for size in range(n):
        for members in itertools.combinations(range(1, n + 1), size):
            if scheme == "dhss":
                if dhss_authorized_level(set(members), params) is None:
                    yield set(members)
            elif not chss_is_authorized(set(members), params):
                yield set(members)


def check_against_reference(view, scheme):
    m0 = view.public.params.sequence.m0
    report = enumerate_posterior(view, scheme)
    expected = reference_counts(view, scheme)
    assert report.per_secret_counts == expected
    assert report.total == sum(expected.values())
    assert report.conditional_entropy == reference_conditional_entropy(expected, m0)
    assert report.loss == log2(m0) - report.conditional_entropy
    groups = report.groups()
    assert sum(groups.values()) == m0
    assert sum(c * g for c, g in groups.items()) == report.total
    if scheme == "dhss":
        assert dict(count_grouping(report).groups) == groups


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
        params = random_instance(rng, m0)
        deal = dhss_deal if scheme == "dhss" else chss_deal
        result = deal(rng.randrange(m0), params, rng.randrange(2**32))
        members = rng.choice(list(unauthorized_sets(params, scheme)))
        for adversary in (members, set()):
            view = adversary_view(result, adversary)
            check_against_reference(view, scheme)
            seen[scheme] |= level_cases(view)
    expected_cases = {"q=0", "q>0", "rho=0", "rho>m0/2", "empty"}
    assert seen["dhss"] >= expected_cases
    assert seen["chss"] >= expected_cases


def dense_disjunctive_counts(profiles, m0):
    """Per-secret products of the level counts as a dict over all m0
    secrets, and their histogram."""
    majority = 1
    exceptions = set()
    for p in profiles:
        if 2 * p.rho <= m0:
            majority *= p.q
            exceptions.update(p.residues(range(p.rho)))
        else:
            majority *= p.q + 1
            exceptions.update(p.residues(range(p.rho, m0)))
    counts = dict.fromkeys(range(m0), majority)
    for r in exceptions:
        counts[r] = prod(p.count(r) for p in profiles)
    histogram = Counter(counts[r] for r in exceptions)
    if len(exceptions) < m0:
        histogram[majority] += m0 - len(exceptions)
    return counts, histogram


def test_sparse_disjunctive_counts_match_dense():
    rng = random.Random(71)
    primes = [p for p in range(500, 5000) if is_prime(p)]
    for i in range(24):
        m0 = rng.choice(primes)
        theta = (Fraction(1, 2), Fraction(2, 3))[i % 2]
        hier = Hierarchy(*rng.choice(SHAPES))
        seq = generate_compact_sequence(m0, hier.n, 1, theta, rng.randrange(2**32))
        params = SchemeParams(sequence=seq, hierarchy=hier,
                              owf=OwfFamily(kind="test_affine"))
        result = dhss_deal(rng.randrange(m0), params, rng.randrange(2**32))
        members = rng.choice(list(unauthorized_sets(params, "dhss")))
        for adversary in (members, worst_case_unauthorized(params), set()):
            view = adversary_view(result, adversary)
            report = enumerate_posterior(view, "dhss")
            dense, histogram = dense_disjunctive_counts(report.levels, m0)
            expected = _entropy_report(
                dense, histogram, report.levels, report.epsilon_tolerance
            )
            counts = report.per_secret_counts
            assert counts == dense and dense == counts
            assert dict(counts) == dense
            assert len(counts) == len(dense) == m0
            assert list(counts) == list(dense)
            for key in (-1, m0, "0"):
                assert key not in counts
                with pytest.raises(KeyError):
                    counts[key]
            assert report.histogram == histogram
            assert report.total == expected.total
            assert report.secret_entropy == expected.secret_entropy
            assert report.conditional_entropy == expected.conditional_entropy
            assert report.loss == expected.loss


def test_sparse_dhss_audit_memory_at_24_bits():
    # a 2-level worst-case audit at m0 near 1.1e7 touches about 3000
    # minority secrets; a table over every secret would take hundreds of MB
    m0 = next(p for p in itertools.count(11_000_001, 2) if is_prime(p))
    hier = Hierarchy((1, 2), (1, 2))
    seq = generate_compact_sequence(m0, hier.n, 1, Fraction(1, 2), 7)
    params = SchemeParams(sequence=seq, hierarchy=hier)
    view = adversary_view(dhss_deal(m0 // 3, params, 11), worst_case_unauthorized(params))
    tracemalloc.start()
    try:
        report = enumerate_posterior(view, "dhss", work_budget=10**8)
        grouping = count_grouping(report)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak < 20 * 2**20
    assert grouping.gamma_total == m0
    assert report.per_secret_counts[m0 // 3] >= 1
