"""Acceptance gate: one test per criterion, each printing a pass line.

Run with  pytest tests/test_acceptance.py -v -s  to see the per-criterion
summary lines alongside the pytest verdicts. Tolerances and instance counts
are pinned here; nothing is calibrated at run time.
"""

import itertools
import json
import random
import time
from fractions import Fraction
from math import gcd, isqrt, prod

import numpy as np
import pytest

from conftest import CHSS_SEED, DHSS_SEED
from scan_oracle import scan_posterior_counts
from crthss import (
    CompactSequence,
    Congruence,
    Hierarchy,
    OwfFamily,
    SchemeParams,
    adversary_view,
    bound_rate_at_least,
    chss_deal,
    chss_is_authorized,
    chss_reconstruct,
    crt_solve,
    dhss_authorized_level,
    dhss_deal,
    dhss_reconstruct,
    enumerate_posterior,
    eta_single_layer,
    generate_compact_sequence,
    count_grouping,
    rate_at_least,
    worst_case_unauthorized,
)
from crthss.cli import main
from crthss.errors import IntervalExhausted, NotAuthorized
from crthss.fileformat import (
    bundle_file_obj,
    canonical_dumps,
    param_file_obj,
    parse_bundle_file,
    parse_param_file,
    parse_share_file,
    share_file_obj,
)


def note(line):
    print(f"ACCEPTANCE {line}")


def sieve_primes(limit):
    flags = bytearray([1]) * limit
    flags[0:2] = b"\x00\x00"
    for i in range(2, isqrt(limit) + 1):
        if flags[i]:
            flags[i * i :: i] = bytes(len(range(i * i, limit, i)))
    return [i for i in range(limit) if flags[i]]


PRIMES_10K = [p for p in sieve_primes(10**4) if p >= 97]


# -- criterion 1 -------------------------------------------------------------

def test_c1_crt_against_exhaustive_scan():
    """10^4 random coprime systems, product <= 10^6, scan equals solver."""
    rng = random.Random(1001)
    start = time.monotonic()
    checked = 0
    while checked < 10_000:
        count = rng.randrange(2, 6)
        # mostly small products, with a slice pushing toward the 10^6 cap
        top, cap = ((120, 10**6) if rng.random() < 0.02 else (24, 10**4))
        moduli, product = [], 1
        for _ in range(count):
            for _ in range(30):
                m = rng.randrange(2, top)
                if product * m <= cap and all(gcd(m, o) == 1 for o in moduli):
                    moduli.append(m)
                    product *= m
                    break
        if len(moduli) < 2:
            continue
        system = [Congruence(rng.randrange(m), m) for m in moduli]
        solution = crt_solve(system)
        ok = np.ones(product, dtype=bool)
        for c in system:
            pattern = np.zeros(c.modulus, dtype=bool)
            pattern[c.residue] = True
            ok &= np.resize(pattern, product)
        hits = np.flatnonzero(ok)
        assert hits.size == 1
        assert int(hits[0]) == solution.value
        assert solution.combined_modulus == product
        checked += 1
    elapsed = time.monotonic() - start
    assert elapsed < 10.0, f"scan took {elapsed:.1f}s"
    note(f"1: crt_solve == exhaustive scan on {checked} systems "
         f"in {elapsed:.1f}s PASS")


# -- shared samplers for criteria 2-3 ----------------------------------------

def random_hierarchy(rng, max_n=8):
    while True:
        sizes = tuple(
            rng.randrange(1, 4) for _ in range(rng.randrange(1, 4))
        )
        if sum(sizes) > max_n:
            continue
        thresholds = []
        previous = 0
        cumulative = 0
        feasible = True
        for size in sizes:
            cumulative += size
            lo = previous + 1
            if lo > cumulative:
                feasible = False
                break
            thresholds.append(rng.randrange(lo, cumulative + 1))
            previous = thresholds[-1]
        if feasible:
            return Hierarchy(sizes, tuple(thresholds))


def random_instance(rng):
    while True:
        m0 = rng.choice(PRIMES_10K)
        hier = random_hierarchy(rng)
        theta = rng.choice([Fraction(2, 3), Fraction(3, 4)])
        try:
            seq = generate_compact_sequence(
                m0, hier.n, 1, theta, rng.randrange(2**32)
            )
        except IntervalExhausted:
            continue
        owf = OwfFamily(kind=rng.choice(["test_affine", "hash_based"]))
        return SchemeParams(sequence=seq, hierarchy=hier, owf=owf)


def sample_disjunctive_set(rng, hier):
    level = rng.randrange(1, hier.m + 1)
    pool = range(1, hier.cumulative[level - 1] + 1)
    group = set(rng.sample(pool, hier.thresholds[level - 1]))
    for extra in range(1, hier.n + 1):
        if rng.random() < 0.2:
            group.add(extra)
    return group


def sample_conjunctive_set(rng, hier):
    group = set()
    for level in range(1, hier.m + 1):
        upper = hier.cumulative[level - 1]
        need = hier.thresholds[level - 1] - sum(1 for i in group if i <= upper)
        pool = [i for i in range(1, upper + 1) if i not in group]
        group.update(rng.sample(pool, need))
    return group


# -- criterion 2 -------------------------------------------------------------

def test_c2_dhss_completeness(micro_params):
    failures = 0
    authorized = [
        set(c)
        for r in range(1, 4)
        for c in itertools.combinations((1, 2, 3), r)
        if dhss_authorized_level(set(c), micro_params) is not None
    ]
    for secret in range(7):
        for seed in range(20):
            result = dhss_deal(secret, micro_params, seed)
            by_id = {s.participant: s for s in result.shares}
            for group in authorized:
                got = dhss_reconstruct([by_id[i] for i in group], result.public)
                failures += got != secret
    assert failures == 0

    rng = random.Random(1002)
    for _ in range(1000):
        params = random_instance(rng)
        secret = rng.randrange(params.sequence.m0)
        result = dhss_deal(secret, params, rng.randrange(2**32))
        by_id = {s.participant: s for s in result.shares}
        group = sample_disjunctive_set(rng, params.hierarchy)
        assert dhss_reconstruct([by_id[i] for i in group], result.public) == secret
    note("2: disjunctive completeness, 700 exhaustive micro cases + "
         "1000 randomized instances PASS")


# -- criterion 3 -------------------------------------------------------------

def test_c3_chss_completeness(micro_params):
    authorized = [
        set(c)
        for r in range(1, 4)
        for c in itertools.combinations((1, 2, 3), r)
        if chss_is_authorized(set(c), micro_params)
    ]
    for secret in range(7):
        for seed in range(20):
            result = chss_deal(secret, micro_params, seed)
            by_id = {s.participant: s for s in result.shares}
            for group in authorized:
                assert chss_reconstruct([by_id[i] for i in group], result.public) == secret

    rng = random.Random(1003)
    rejected = 0
    for _ in range(1000):
        params = random_instance(rng)
        hier = params.hierarchy
        secret = rng.randrange(params.sequence.m0)
        result = chss_deal(secret, params, rng.randrange(2**32))
        by_id = {s.participant: s for s in result.shares}
        group = sample_conjunctive_set(rng, hier)
        assert chss_reconstruct([by_id[i] for i in group], result.public) == secret
        for _ in range(3):
            sub = set(rng.sample(range(1, hier.n + 1), rng.randrange(0, hier.n + 1)))
            if not chss_is_authorized(sub, params):
                with pytest.raises(NotAuthorized):
                    chss_reconstruct([by_id[i] for i in sub], result.public)
                rejected += 1
    assert rejected > 0
    note(f"3: conjunctive completeness, 1000 randomized instances, "
         f"{rejected} unauthorized sets refused PASS")


# -- criterion 4 -------------------------------------------------------------

def test_c4_worked_vectors(micro_params):
    disj = dhss_deal(4, micro_params, DHSS_SEED, keep_dealer_secrets=True)
    assert [s.value for s in disj.shares] == [9, 9, 6]
    assert dict(disj.public.w) == {(1, 1): 9, (1, 2): 1}
    assert disj.dealer_secrets["y"] == (4, 74)

    conj = chss_deal(4, micro_params, CHSS_SEED, keep_dealer_secrets=True)
    assert [s.value for s in conj.shares] == [5, 0, 14]
    assert dict(conj.public.w) == {(1, 1): 8, (1, 2): 4}
    assert conj.dealer_secrets["y"] == (2, 65)
    note("4: worked micro vectors reproduce bit-exactly PASS")


# -- criterion 5 -------------------------------------------------------------

def test_c5_cardinality_grouping():
    rng = random.Random(1005)
    gamma_totals = []
    instances = 0
    while instances < 24:
        m0 = rng.choice([5, 7, 11, 13])
        hier = Hierarchy(*rng.choice([((1, 2), (1, 2)), ((2, 2), (1, 3)),
                                      ((3,), (2,)), ((4,), (3,))]))
        pool = [m for m in range(m0 + 1, 70)]
        moduli = []
        for m in rng.sample(pool, len(pool)):
            if gcd(m, m0) == 1 and all(gcd(m, o) == 1 for o in moduli):
                moduli.append(m)
            if len(moduli) == hier.n:
                break
        seq = CompactSequence(m0=m0, moduli=tuple(sorted(moduli)), k=1,
                              theta=Fraction(1, 2))
        if seq.prefix_product(hier.thresholds[-1]) > 10**6:
            continue
        if prod(seq.prefix_product(t) for t in hier.thresholds) > 300_000:
            continue
        params = SchemeParams(sequence=seq, hierarchy=hier,
                              owf=OwfFamily(kind="test_affine"))
        result = dhss_deal(rng.randrange(m0), params, rng.randrange(2**32))
        unauthorized = [
            set(c)
            for r in range(0, hier.n)
            for c in itertools.combinations(range(1, hier.n + 1), r)
            if dhss_authorized_level(set(c), params) is None
        ]
        view = adversary_view(result, rng.choice(unauthorized))
        report = enumerate_posterior(view, "dhss")
        assert scan_posterior_counts(view, "dhss", tuple_budget=10**6) == dict(
            report.per_secret_counts
        )
        decomposition = count_grouping(report)
        assert decomposition.weighted_total() == report.total
        gamma_totals.append(decomposition.gamma_total)
        assert decomposition.gamma_total == m0
        instances += 1
    note(f"5: fast path == scan oracle on {instances} instances; all counts "
         f"factor as floor/floor+1 products; group sizes always sum to m0 "
         f"(never the level count) PASS")


# -- criterion 6 -------------------------------------------------------------

def test_c6_eta_dichotomy_and_ladder():
    for k in (1, 2, 3):
        minority = []
        for m0 in (97, 997, 9973):
            seq = generate_compact_sequence(m0, 3, k, Fraction(1, 2), 1)
            params = SchemeParams(
                sequence=seq,
                hierarchy=Hierarchy((3,), (2,)),
                owf=OwfFamily(kind="test_affine"),
            )
            deal = dhss_deal(m0 // 2, params, 2)
            view = adversary_view(deal, {1})
            report = eta_single_layer(view)
            assert report.d1 + report.d2 == m0
            posterior = enumerate_posterior(view, "dhss")
            assert set(posterior.per_secret_counts.values()) <= {
                report.eta, report.eta + 1
            }
            minority.append(min(report.d1, report.d2) / m0)
        assert minority[0] > minority[1] > minority[2], (k, minority)
    note("6: eta/eta+1 dichotomy exact for k in {1,2,3}; minority fraction "
         "strictly shrinks along m0 in {97, 997, 9973} PASS")


# -- criterion 7 -------------------------------------------------------------

def test_c7_loss_entropy_ladder():
    start = time.monotonic()
    hier = Hierarchy((1, 2), (1, 2))
    trends = {}
    for members in ({2}, {3}):  # worst-case set, plus a second shape
        losses, minority = [], []
        for m0 in (97, 997, 9973, 99991):
            seq = generate_compact_sequence(m0, 3, 1, Fraction(1, 2), 4)
            params = SchemeParams(
                sequence=seq,
                hierarchy=hier,
                owf=OwfFamily(kind="hash_based", family_tag=b"ladder"),
            )
            if members == {2}:
                assert worst_case_unauthorized(params) == members
                assert all(
                    sum(1 for i in members if i <= upper) == t - 1
                    for upper, t in zip(hier.cumulative, hier.thresholds)
                )
            result = dhss_deal(m0 // 3, params, 5)
            report = enumerate_posterior(adversary_view(result, members), "dhss")
            assert report.loss >= 0
            losses.append(report.loss)
            minority.append(min(report.groups().values()) / m0)
        assert all(a > b for a, b in zip(losses, losses[1:])), (members, losses)
        assert all(a > b for a, b in zip(minority, minority[1:])), (members, minority)
        assert losses[-1] < 0.05
        trends[tuple(members)] = losses
    elapsed = time.monotonic() - start
    assert elapsed < 300.0
    note(f"7: loss entropy strictly decreasing along the ladder for both "
         f"adversary shapes {[[round(x, 5) for x in t] for t in trends.values()]}, "
         f"final rungs < 0.05 bits, minority group fraction shrinking, "
         f"{elapsed:.1f}s PASS")


# -- criterion 8 -------------------------------------------------------------

def test_c8_information_rate_bounds():
    for m0 in (97, 997, 9973, 99991, 2**31 - 1):
        seq = generate_compact_sequence(m0, 3, 1, Fraction(1, 2), 1)
        params = SchemeParams(
            sequence=seq,
            hierarchy=Hierarchy((1, 2), (1, 2)),
            owf=OwfFamily(kind="hash_based"),
        )
        # rho >= log2(m0)/log2(m0 + floor(sqrt m0)) holds exactly: the largest
        # modulus never reaches the top of the compactness interval
        assert seq.moduli[-1] <= m0 + isqrt(m0)
        if m0 >= 2**31 - 1:
            assert rate_at_least(params, Fraction(999, 1000))
    # analytic floor, no enumeration and no generated sequence
    assert bound_rate_at_least(2**31 - 1, Fraction(1, 2), Fraction(999, 1000))
    assert bound_rate_at_least(2**61 - 1, Fraction(1, 2), Fraction(999, 1000))
    note("8: 1-compact rate floor holds exactly; rho > 0.999 at m0 = 2^31-1 "
         "(exact integer-power comparison) PASS")


# -- criterion 9 -------------------------------------------------------------

def test_c9_format_stability_and_pipeline(tmp_path, micro_params):
    rng = random.Random(1009)
    # 100 byte-identical round trips per file type
    share_digest = "f" * 64
    for _ in range(100):
        params = random_instance(rng)
        scheme = rng.choice(["dhss", "chss", "ab"])
        text = canonical_dumps(param_file_obj(scheme, params))
        back = parse_param_file(json.loads(text))
        assert canonical_dumps(param_file_obj(*back)) == text

        result = dhss_deal(
            rng.randrange(params.sequence.m0), params, rng.randrange(2**32)
        )
        share = rng.choice(result.shares)
        share_text = canonical_dumps(share_file_obj("dhss", share, share_digest))
        s_scheme, s_share, s_digest = parse_share_file(json.loads(share_text))
        assert canonical_dumps(share_file_obj(s_scheme, s_share, s_digest)) == share_text

        bundle_text = canonical_dumps(bundle_file_obj("dhss", result.public))
        b_scheme, b_public = parse_bundle_file(json.loads(bundle_text))
        assert canonical_dumps(bundle_file_obj(b_scheme, b_public)) == bundle_text

    # end-to-end through the CLI: generate, deal, reconstruct, refuse
    params_path = tmp_path / "params.json"
    assert main([
        "gen-params", "--m0", "9973", "--levels", "1,2", "--thresholds", "1,2",
        "--theta", "2/3", "--owf", "hash_based", "--seed", "11",
        "--out", str(params_path),
    ]) == 0
    for scheme, shares_ok, shares_bad in (
        ("dhss", ["share_002.json", "share_003.json"], ["share_002.json"]),
        ("chss", ["share_001.json", "share_002.json"], ["share_002.json",
                                                        "share_003.json"]),
    ):
        deal_dir = tmp_path / scheme
        assert main([
            "deal", "--params", str(params_path), "--secret", "1234",
            "--scheme", scheme, "--seed", "12", "--out-dir", str(deal_dir),
        ]) == 0
        bundle = str(deal_dir / "public_bundle.json")
        assert main([
            "reconstruct", "--public", bundle,
            "--shares", *(str(deal_dir / s) for s in shares_ok),
        ]) == 0
        assert main([
            "reconstruct", "--public", bundle,
            "--shares", *(str(deal_dir / s) for s in shares_bad),
        ]) == 4
    note("9: 100 byte-identical round trips per file type; CLI pipeline "
         "recovers and refuses correctly PASS")
