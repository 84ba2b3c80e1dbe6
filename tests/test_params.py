"""Sequence generation, compactness validation, thresholds, hierarchies."""

import hashlib
import random
import tracemalloc
from dataclasses import replace
from fractions import Fraction
from math import gcd, isqrt

import pytest

from crthss import (
    CompactSequence,
    Hierarchy,
    SchemeParams,
    compact_width,
    generate_compact_sequence,
    integer_root,
    is_prime,
    random_prime,
    validate_hierarchy,
    validate_params,
)
from crthss.errors import IntervalExhausted, ThresholdOutOfRange
from crthss.params import (
    SMALL_PRODUCT,
    _BATCH,
    _jacobi,
    _place,
    _strong_lucas,
)


def _sequence_report(seq):
    """validate_params of seq under a one-level hierarchy of its size, which
    adds no violation of its own: what is wrong with the sequence alone."""
    return validate_params(SchemeParams(seq, Hierarchy((seq.n,), (1,))))


def test_integer_root_matches_scan():
    for x in range(0, 2000):
        for q in (1, 2, 3, 5):
            r = integer_root(x, q)
            assert r ** q <= x < (r + 1) ** q
    assert integer_root(10**18, 2) == 10**9
    assert integer_root(10**18 - 1, 2) == 10**9 - 1


def test_integer_root_huge_exponent():
    # q at or above the bit length of x: the root is 1, found without
    # forming r ** (q - 1) (theta = 1e-300 asks for q = 10**300)
    assert integer_root(2**40 + 15, 41) == 1
    assert integer_root(2**40 + 15, 40) == 2
    assert integer_root(2**40 + 15, 10**300) == 1
    assert compact_width(2**61 - 1, Fraction(1, 10**300)) == 1


def test_integer_root_float_start_is_exact():
    # the float estimate only starts Newton; the root is still the exact one
    rng = random.Random(19)
    for _ in range(2000):
        x = rng.getrandbits(rng.randrange(1, 4000))
        q = rng.randrange(1, 80)
        r = integer_root(x, q)
        assert r ** q <= x < (r + 1) ** q
    for base in range(2, 200):
        for q in range(2, 9):
            for x in (base ** q - 1, base ** q, base ** q + 1):
                r = integer_root(x, q)
                assert r ** q <= x < (r + 1) ** q


@pytest.mark.parametrize("m0, theta", [
    (2**40 - 87, Fraction(6553, 6554)),
    (2**256 - 189, Fraction(1023, 1024)),
], ids=["40-bit", "256-bit"])
def test_compact_width_near_one_at_the_power_limit(m0, theta):
    # p * bits(m0) just inside the limit: a power-of-two Newton start took
    # minutes here
    p, q = theta.numerator, theta.denominator
    assert p * m0.bit_length() <= 1 << 18
    width = compact_width(m0, theta)
    assert width ** q <= m0 ** p < (width + 1) ** q


def test_compact_width_refuses_powers_past_the_limit():
    with pytest.raises(ValueError, match="beyond the limit of 262144 bits"):
        compact_width(2**40 - 87, Fraction(99999, 100000))
    with pytest.raises(ValueError, match=r"m0\*\*6554, beyond"):
        compact_width(2**40 - 87, Fraction(6554, 6555))


def test_is_prime_against_sieve():
    limit = 200000
    sieve = [True] * limit
    sieve[0] = sieve[1] = False
    for i in range(2, isqrt(limit) + 1):
        if sieve[i]:
            for j in range(i * i, limit, i):
                sieve[j] = False
    for n in range(limit):
        assert is_prime(n) == sieve[n]
    assert is_prime(2**31 - 1)
    assert not is_prime(2**31)


# Composites that pass Miller-Rabin to every one of the first 12 prime bases
# (psi_12 and psi_13, the smallest such numbers), and Arnault's product of
# three primes, a strong pseudoprime to every base below 307.
_ARNAULT_P1 = int(
    "29674495668685510550154174642905332730771991799853043350995075531276838"
    "753171770199594238596428121188033664754218345562493168782883"
)
MR_PSEUDOPRIMES = [
    318665857834031151167461,  # 399165290221 * 798330580441
    3317044064679887385961981,
    _ARNAULT_P1 * (313 * (_ARNAULT_P1 - 1) + 1) * (353 * (_ARNAULT_P1 - 1) + 1),
]


def _strong_probable_prime(n, base):
    d, r = n - 1, 0
    while d % 2 == 0:
        d, r = d // 2, r + 1
    x = pow(base, d, n)
    if x in (1, n - 1):
        return True
    for _ in range(r - 1):
        x = x * x % n
        if x == n - 1:
            return True
    return False


@pytest.mark.parametrize("n", MR_PSEUDOPRIMES, ids=["psi12", "psi13", "arnault"])
def test_is_prime_refuses_fixed_base_pseudoprimes(n):
    assert all(_strong_probable_prime(n, a) for a in (2, 3, 5, 7, 11, 13, 17, 19,
                                                       23, 29, 31, 37))
    assert not is_prime(n)


def test_is_prime_refuses_base_2_and_lucas_pseudoprimes():
    # strong base-2 pseudoprimes, which the Lucas half must catch, and the
    # first strong Lucas pseudoprimes under Selfridge's parameters (OEIS
    # A217255), which base 2 catches
    base2 = [2047, 3277, 4033, 4681, 8321, 15841, 29341, 42799, 49141, 52633,
             3215031751, 2152302898747, 3474749660383, 341550071728321]
    lucas = [5459, 5777, 10877, 16109, 18971, 22499, 24569, 25199, 40309, 58519]
    for n in base2:
        assert _strong_probable_prime(n, 2) and not _strong_lucas(n), n
        assert not is_prime(n), n
    for n in lucas:
        assert _strong_lucas(n) and not _strong_probable_prime(n, 2), n
        assert not is_prime(n), n
    assert not is_prime(49) and not is_prime(1681) and not is_prime(1849)
    assert is_prime(_ARNAULT_P1)
    for e in (61, 89, 107, 127, 521):
        assert is_prime(2**e - 1)
        assert not is_prime((2**e - 1) * (2**61 - 1))


def uv_strong_lucas(n):
    """Oracle: the strong Lucas test with Selfridge's parameters, carrying
    (U_k, V_k, Q^k) along d's bits and halving by (n + 1) / 2."""
    if isqrt(n) ** 2 == n:
        return False
    D = 5
    while (symbol := _jacobi(D, n)) != -1:
        if symbol == 0 and gcd(D, n) < n:
            return False
        D = -D - 2 if D > 0 else -D + 2
    Q = (1 - D) // 4
    d, s = n + 1, 0
    while d % 2 == 0:
        d //= 2
        s += 1
    half = (n + 1) // 2
    U, V, Qk = 1, 1, Q % n
    for bit in bin(d)[3:]:
        U, V, Qk = U * V % n, (V * V - 2 * Qk) % n, Qk * Qk % n
        if bit == "1":
            U, V, Qk = (U + V) * half % n, (D * U + V) * half % n, Qk * Q % n
    if U == 0 or V == 0:
        return True
    for _ in range(s - 1):
        V, Qk = (V * V - 2 * Qk) % n, Qk * Qk % n
        if V == 0:
            return True
    return False


# the first strong Lucas pseudoprimes under Selfridge's parameters (OEIS
# A217255), as test_is_prime_refuses_base_2_and_lucas_pseudoprimes lists them
A217255_HEAD = [5459, 5777, 10877, 16109, 18971, 22499, 24569, 25199, 40309, 58519]


def test_lucas_ladder_matches_the_uv_test_below_2e5():
    passing_composites = []
    for n in range(3, 200000, 2):
        verdict = _strong_lucas(n)
        assert verdict == uv_strong_lucas(n), n
        if verdict and not is_prime(n):
            passing_composites.append(n)
    assert passing_composites[:len(A217255_HEAD)] == A217255_HEAD


@pytest.mark.parametrize("bits", [64, 128, 256, 512, 1024, 2048])
def test_lucas_ladder_matches_the_uv_test_at_size(bits):
    """A seeded prime, a semiprime of two primes of half its size, and odd
    draws, almost all of them composite."""
    rng = random.Random(bits)
    prime = random_prime(bits, rng)
    semiprime = random_prime(bits // 2, rng) * random_prime(bits - bits // 2, rng)
    odd = [rng.getrandbits(bits) | (1 << (bits - 1)) | 1 for _ in range(2)]
    assert _strong_lucas(prime) and uv_strong_lucas(prime)
    assert not _strong_lucas(semiprime) and not uv_strong_lucas(semiprime)
    for n in odd:
        assert _strong_lucas(n) == uv_strong_lucas(n)


@pytest.mark.parametrize("bits", [2, 3, 6, 8, 40, 64, 128, 256, 512])
def test_random_prime_matches_the_unsieved_search(bits):
    # the sieve refuses only candidates with a prime factor below them: the
    # first prime drawn, and the draws taken, are those of BPSW alone
    for seed in range(6):
        ours, reference = random.Random(seed), random.Random(seed)
        got = random_prime(bits, ours)
        while True:
            candidate = reference.getrandbits(bits) | (1 << (bits - 1)) | 1
            if is_prime(candidate):
                break
        assert got == candidate and got.bit_length() == bits, seed
        assert ours.getstate() == reference.getstate(), seed


def test_compact_width_exact():
    assert compact_width(7, Fraction(1, 2)) == 2  # floor(sqrt 7)
    assert compact_width(97, Fraction(1, 2)) == 9
    assert compact_width(1000, Fraction(2, 3)) == 100  # 1000^(2/3) is exact
    assert compact_width(999, Fraction(2, 3)) == 99
    assert compact_width(2**31 - 1, Fraction(1, 2)) == isqrt(2**31 - 1)


def test_generate_compact_97():
    # interval (97, 106): 8 candidates; an exhaustive scan shows a
    # pairwise-coprime triple exists, e.g. {99, 101, 103}
    pool = [c for c in range(98, 106)]
    triples = [
        (a, b, c)
        for a in pool for b in pool for c in pool
        if a < b < c
        and gcd(a, b) == gcd(a, c) == gcd(b, c) == 1
        and gcd(a, 97) == gcd(b, 97) == gcd(c, 97) == 1
    ]
    assert triples
    seq = generate_compact_sequence(97, 3, 1, Fraction(1, 2), rng_seed=7)
    assert _sequence_report(seq).ok
    assert all(97 < m < 106 for m in seq.moduli)


def test_generate_interval_exhausted():
    # (11, 14) holds at most two integers; five cannot fit
    with pytest.raises(IntervalExhausted):
        generate_compact_sequence(11, 5, 1, Fraction(1, 2), rng_seed=0)


def test_generate_deterministic_and_valid():
    rng = random.Random(10)
    for _ in range(25):
        m0 = rng.choice([97, 101, 997, 1009, 9973])
        n = rng.randrange(1, 6)
        k = rng.randrange(1, 4)
        theta = rng.choice([Fraction(1, 2), Fraction(2, 3), Fraction(3, 4)])
        seed = rng.randrange(2**32)
        seq = generate_compact_sequence(m0, n, k, theta, seed)
        again = generate_compact_sequence(m0, n, k, theta, seed)
        assert seq == again
        assert _sequence_report(seq).ok
        # every generated sequence satisfies the product inequality at
        # every threshold (the compact form of the classical guarantee)
        for t in range(1, n + 1):
            assert seq.m0 * seq.prefix_product(t - 1) < seq.prefix_product(t)
        # a threshold outside [0, n] has no prefix to multiply
        for t in (-1, n + 1):
            with pytest.raises(ThresholdOutOfRange) as excinfo:
                seq.prefix_product(t)
            assert str(excinfo.value) == f"t={t} with only {n} moduli"


# SHA-256 of "m0|k|theta|m_1,...,m_n" for seeded draws. Pinning them means a
# change to how candidates are tested for coprimality cannot change a draw.
# 2147483659 is the smallest prime above 2^31.
GENERATOR_DIGESTS = [
    ((97, 3, 1, Fraction(1, 2), 7),
     "0762c34d834bc72f49b74948459b3c5e3778cb28d1b1baf0477899c355735c75"),
    ((9973, 5, 2, Fraction(2, 3), 11),
     "b4df670aa7feb0ecb87cc16d4cf43c2b91202ab12ed352f3bcb52926d47e6e34"),
    ((1000003, 12, 3, Fraction(1, 2), 2**40 + 5),
     "2741424a4e18d3cbc5989bdbcc5aa92f96083ebdb7f833955f92e58d3f2ce9e4"),
    ((2147483659, 200, 1, Fraction(1, 2), 1),
     "96d3fec1a343f9aeccbbf43fecfeb9fcd233db8615895eb72b681369f1362da8"),
    ((2147483659, 200, 1, Fraction(2, 3), 2),
     "7d5f8ef83ff10b1dd64e7b71585add930e9326e24c1697336dc4b40e888e9ff5"),
]


@pytest.mark.parametrize("args, expected", GENERATOR_DIGESTS,
                         ids=["97", "9973-k2", "1000003-k3", "32bit-n200-half",
                              "32bit-n200-two-thirds"])
def test_generate_pinned_draws(args, expected):
    seq = generate_compact_sequence(*args)
    text = f"{seq.m0}|{seq.k}|{seq.theta}|" + ",".join(map(str, seq.moduli))
    assert hashlib.sha256(text.encode()).hexdigest() == expected


def _eager_order(lo, width, rng):
    """Reference: a forward Fisher-Yates shuffle of the whole list of
    candidates of (lo, lo + width), done eagerly."""
    order = list(range(lo + 1, lo + width))
    for i in range(len(order)):
        j = i + rng.randrange(len(order) - i)
        order[i], order[j] = order[j], order[i]
    return order


def _candidate_order(lo: int, width: int, rng: random.Random):
    """Reference: every candidate of the open interval (lo, lo + width) once,
    in seeded uniform order: a Fisher-Yates shuffle of the offsets run
    forward and placed lazily, the order generate_compact_sequence reads.
    Step i swaps position i with a uniform j in [i, count); positions that
    hold other than their own offset live in a dict, so a pass that reads r
    candidates costs r accepted draws and at most r entries at any width. A
    draw below bound takes bits(bound) random bits and redraws while the
    value is bound or more (at most twice on average): the rejection loop
    behind Random.randrange, written out here so the order is defined by
    this code and skips that method's argument checks."""
    count = width - 1  # offsets 0 .. width - 2
    getrandbits = rng.getrandbits
    swapped: dict[int, int] = {}
    for i in range(count):
        bound = count - i
        bits = bound.bit_length()
        j = getrandbits(bits)
        while j >= bound:
            j = getrandbits(bits)
        j += i
        yield lo + 1 + swapped.get(j, j)
        swapped[j] = swapped.pop(i, i)


# every width from 0 to 70, and both sides of each power-of-two edge of the
# draw's bit count up to 2^13
EDGE_WIDTHS = list(range(71)) + [2**j + d for j in range(1, 14) for d in (-1, 1)]


def test_candidate_order_matches_eager_fisher_yates():
    # the same candidates, draw for draw, and the same state left behind, at
    # every power-of-two edge of the bit count
    for width in EDGE_WIDTHS:
        for seed in (1, 2**40 + 3):
            expected, ours = random.Random(seed), random.Random(seed)
            eager = _eager_order(1000, width, expected)
            assert list(_candidate_order(1000, width, ours)) == eager, (width, seed)
            assert ours.getstate() == expected.getstate(), (width, seed)


def _eager_greedy(m0, n, lo, width, seed):
    """The greedy pass over the eager order of (lo, lo + width): the sorted
    moduli, or the IntervalExhausted message."""
    accepted, product = [], m0
    for c in _eager_order(lo, width, random.Random(seed)):
        if gcd(c, product) == 1:
            accepted.append(c)
            product *= c
            if len(accepted) == n:
                return tuple(sorted(accepted))
    return (f"interval ({lo}, {lo + width}) yielded only {len(accepted)} of "
            f"{n} pairwise-coprime values")


def _generated(m0, n, k, theta, seed):
    """generate_compact_sequence's moduli, or its IntervalExhausted message."""
    try:
        return generate_compact_sequence(m0, n, k, theta, seed).moduli
    except IntervalExhausted as exc:
        return str(exc)


def test_generate_matches_eager_greedy_on_crowded_intervals(monkeypatch):
    # intervals where the greedy pass reads most or all of the candidates:
    # the same moduli or the same refusal as a pass over the eager order
    outcomes = set()
    for m0, theta, n in [(97, Fraction(1, 2), 3), (97, Fraction(1, 2), 5),
                         (997, Fraction(2, 3), 8), (997, Fraction(2, 3), 20)]:
        for seed in range(6):
            got = _generated(m0, n, 1, theta, seed)
            want = _eager_greedy(m0, n, m0, compact_width(m0, theta), seed)
            assert got == want, (m0, n, seed)
            outcomes.add(type(got))
    assert outcomes == {tuple, str}
    # and at every width the reference order is checked at, with a batch of
    # one, a batch one short of full, a full one, and a full one and one more;
    # compact_width is replaced to give the interval (m0, m0 + width)
    m0 = 10007
    outcomes = set()
    for width in EDGE_WIDTHS:
        monkeypatch.setattr("crthss.params.compact_width", lambda *_: width)
        for n in (1, 7, 8, 9):
            for seed in (1, 2**40 + 3):
                got = _generated(m0, n, 1, Fraction(1, 2), seed)
                assert got == _eager_greedy(m0, n, m0, width, seed), (width, n, seed)
                outcomes.add(type(got))
    assert outcomes == {tuple, str}


def _record_draws(monkeypatch):
    """Record every (k, value) that Random.getrandbits returns."""
    calls = []
    getrandbits = random.Random.getrandbits

    def recording(self, k):
        value = getrandbits(self, k)
        calls.append((k, value))
        return value

    monkeypatch.setattr(random.Random, "getrandbits", recording)
    return calls


def _replayed_reads(lo, width, calls):
    """The candidates a pass over (lo, lo + width) read, rebuilt from its
    recorded getrandbits calls: the reference order, replayed on them, up to
    the candidate whose draw was the last call. Every call is asked for with
    the number of bits it was recorded with."""
    used = 0

    class Replay:
        def getrandbits(self, k):
            nonlocal used
            recorded, value = calls[used]
            assert k == recorded, used
            used += 1
            return value

    read = []
    for c in _candidate_order(lo, width, Replay()):
        read.append(c)
        if used == len(calls):
            break
    assert used == len(calls)
    return read


@pytest.mark.parametrize("m0, theta, n", [(97, Fraction(1, 2), 8),
                                          (997, Fraction(2, 3), 60)],
                         ids=["97-half", "997-two-thirds"])
def test_generate_exhausts_every_candidate_once(monkeypatch, m0, theta, n):
    # IntervalExhausted only after every candidate was read, each once
    calls = _record_draws(monkeypatch)
    with pytest.raises(IntervalExhausted, match=f"of {n} pairwise-coprime"):
        generate_compact_sequence(m0, n, 1, theta, 5)
    read = _replayed_reads(m0, compact_width(m0, theta), calls)
    assert sorted(read) == list(range(m0 + 1, m0 + compact_width(m0, theta)))


def test_generate_shuffle_memory_is_an_offset_array():
    # m0 ~ 2^36: about 2^18 candidates, of which the greedy pass reads a few
    # thousand; a list of them all would cost about 10 MiB of int objects
    m0 = 2**36 + 31
    assert is_prime(m0)
    assert compact_width(m0, Fraction(1, 2)) == 2**18
    tracemalloc.start()
    try:
        seq = generate_compact_sequence(m0, 200, 1, Fraction(1, 2), 3)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert _sequence_report(seq).ok
    assert peak < 4 * 2**20


def _real_size_prime(bits):
    """The smallest prime of exactly ``bits`` bits."""
    return next(p for p in range(2**(bits - 1) + 1, 2**bits, 2) if is_prime(p))


@pytest.mark.parametrize("bits", [40, 64, 128, 256])
def test_generate_draws_and_memory_at_real_sizes(monkeypatch, bits):
    # one accepted draw per candidate read, and memory for what was read,
    # whatever the width: floor(sqrt(m0)) runs from about 2^19 to 2^127
    # candidates. Step i of the order draws below bound = count - i, so the
    # recorded getrandbits calls split into one run per candidate read:
    # draws of bits(bound) bits of which only the last is below bound
    m0 = _real_size_prime(bits)
    calls = _record_draws(monkeypatch)
    tracemalloc.start()
    try:
        seq = generate_compact_sequence(m0, 200, 1, Fraction(1, 2), 8)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    count = compact_width(m0, Fraction(1, 2)) - 1
    accepted, bound = 0, count
    for k, value in calls:
        assert k == bound.bit_length()
        if value < bound:
            accepted += 1
            bound -= 1
    read = _replayed_reads(m0, count + 1, calls)
    assert accepted == len(read) >= 200
    assert calls[-1][1] <= bound  # the last call was an accepted draw
    assert peak < 512 * 2**10
    assert _sequence_report(seq).ok


def _one_at_a_time(m0, n, k, theta, rng):
    """Reference: the greedy pass over _candidate_order that tests each
    candidate alone, by gcd(c, product) == 1 against m0 times every value
    accepted before it. The sorted moduli or the IntervalExhausted message,
    and the candidates read."""
    lo, width = k * m0, compact_width(m0, theta)
    accepted, product, read = [], m0, []
    for c in _candidate_order(lo, width, rng):
        read.append(c)
        if gcd(c, product) == 1:
            accepted.append(c)
            product *= c
            if len(accepted) == n:
                return tuple(sorted(accepted)), read
    return (f"interval ({lo}, {lo + width}) yielded only {len(accepted)} of "
            f"{n} pairwise-coprime values"), read


@pytest.mark.parametrize("bits", [16, 32, 40, 64, 128, 256])
def test_generate_matches_one_at_a_time(monkeypatch, bits):
    # the screen and the batches leave acceptance as the one-at-a-time pass
    # has it: the same moduli or refusal, the same candidates read, and the
    # same random draws, at batch edges (n = 7, 8, 9, 17) and at n = 200
    calls = _record_draws(monkeypatch)
    m0 = _real_size_prime(bits)
    outcomes = set()
    for n in (1, 2, 7, 8, 9, 17, 200):
        for theta in (Fraction(1, 2), Fraction(2, 3)):
            for k, seed in ((1, 1), (1, 2), (3, 3)):
                case = (n, theta, k, seed)
                calls.clear()
                got = _generated(m0, n, k, theta, seed)
                got_calls = calls[:]
                calls.clear()
                want, want_read = _one_at_a_time(m0, n, k, theta, random.Random(seed))
                read = _replayed_reads(k * m0, compact_width(m0, theta), got_calls)
                assert got == want, case
                assert read == want_read, case
                assert got_calls == calls, case
                outcomes.add(type(got))
    assert outcomes == ({tuple, str} if bits == 16 else {tuple})


@pytest.mark.parametrize("bits", [40, 256])
def test_generate_screens_small_primes_before_the_product_gcd(monkeypatch, bits):
    # most candidates share a prime up to 37 with the running product; the
    # screen refuses them before they reach a reduction of that product,
    # whose cost grows with every accepted value, and the candidates that
    # pass share one reduction per batch. Counted: the reductions (calls of
    # _place), the candidates each one tests, and gcd calls with an operand
    # above both the small-prime product and any product of _BATCH
    # candidates, which only the running product (m0 times eight accepted
    # values or more) is
    n, theta = 200, Fraction(1, 2)
    m0 = _real_size_prime(bits)
    top = max(SMALL_PRODUCT, (m0 + compact_width(m0, theta)) ** _BATCH)
    calls = _record_draws(monkeypatch)
    batches = []
    full = 0

    def placing(batch, product, accepted):
        batches.append(len(batch))
        return _place(batch, product, accepted)

    def counting(*args):
        nonlocal full
        full += max(args) > top
        return gcd(*args)

    monkeypatch.setattr("crthss.params._place", placing)
    monkeypatch.setattr("crthss.params.gcd", counting)
    seq = generate_compact_sequence(m0, n, 1, theta, 8)
    read = _replayed_reads(m0, compact_width(m0, theta), calls)
    assert len(read) >= 5 * n
    assert sum(batches) <= 2 * n
    assert len(batches) <= n // 4
    assert full == 0
    assert _sequence_report(seq).ok


@pytest.mark.parametrize("bits", [128, 256])
def test_generate_wide_interval_by_rejection(bits):
    # floor(sqrt(m0)) is 2^63 and more: candidates are drawn, never listed,
    # and the draws stay seeded
    m0 = _real_size_prime(bits)
    seq = generate_compact_sequence(m0, 200, 1, Fraction(1, 2), 5)
    assert _sequence_report(seq).ok
    assert seq == generate_compact_sequence(m0, 200, 1, Fraction(1, 2), 5)
    assert seq != generate_compact_sequence(m0, 200, 1, Fraction(1, 2), 6)


def test_generate_rejects_bad_inputs():
    with pytest.raises(ValueError):
        generate_compact_sequence(10, 2, 1, Fraction(1, 2), 0)  # composite m0
    with pytest.raises(ValueError):
        generate_compact_sequence(97, 2, 0, Fraction(1, 2), 0)
    with pytest.raises(ValueError):
        generate_compact_sequence(97, 2, 1, Fraction(3, 2), 0)


def test_validate_params_sequence_examples():
    good = CompactSequence(m0=97, moduli=(99, 101, 103), k=1, theta=Fraction(1, 2))
    assert _sequence_report(good).ok

    shared_factor = CompactSequence(m0=7, moduli=(9, 12), k=1, theta=Fraction(1, 2))
    report = _sequence_report(shared_factor)
    assert any("gcd" in v and "3" in v for v in report.violations)

    out_of_interval = CompactSequence(m0=7, moduli=(15,), k=1, theta=Fraction(1, 2))
    report = _sequence_report(out_of_interval)
    assert any("(7, 9)" in v for v in report.violations)

    not_prime = CompactSequence(m0=10, moduli=(11, 13), k=1, theta=Fraction(1, 2))
    assert any("not prime" in v for v in _sequence_report(not_prime).violations)


def test_validate_params_ordering():
    seq = CompactSequence(m0=97, moduli=(103, 101), k=1, theta=Fraction(1, 2))
    assert any("increasing" in v for v in _sequence_report(seq).violations)


def test_ab_constraint_examples():
    # m0 * prod(m_1..m_{t-1}) < prod(m_1..m_t) reduces to m0 < m_t, so the
    # ordering check of the deal verdict refuses every sequence breaking it
    seq = CompactSequence(m0=7, moduli=(11, 13, 17), k=1, theta=Fraction(1, 2))
    assert SchemeParams(seq, Hierarchy((3,), (2,))).violations == ()
    # a failing case needs a later modulus at or below m0:
    # 12 * 13 = 156 >= 13 * 11 = 143 at t = 2
    broken = CompactSequence(m0=12, moduli=(13, 11), k=1, theta=Fraction(1, 2))
    violations = SchemeParams(broken, Hierarchy((2,), (2,))).violations
    assert any("not strictly increasing" in v for v in violations)


def test_hierarchy_examples():
    assert validate_hierarchy(Hierarchy((1, 2), (1, 2))).ok

    report = validate_hierarchy(Hierarchy((1, 2), (2, 2)))
    assert any("increasing" in v for v in report.violations)
    assert any("t_1 = 2 > N_1 = 1" in v for v in report.violations)

    report = validate_hierarchy(Hierarchy((2, 1), (1, 4)))
    assert any("t_2 = 4 > N_2 = 3" in v for v in report.violations)


def test_hierarchy_helpers():
    h = Hierarchy((1, 2, 3), (1, 2, 4))
    assert h.m == 3 and h.n == 6
    assert h.cumulative == (1, 3, 6)
    assert [h.level_of(i) for i in range(1, 7)] == [1, 2, 2, 3, 3, 3]
    assert list(h.members_of(2)) == [2, 3]
    with pytest.raises(ValueError):
        h.level_of(7)


def test_level_of_matches_the_loop():
    # level_of bisects the cumulative sizes; the reference is the first level
    # whose N_l reaches the participant
    rng = random.Random(23)
    for _ in range(200):
        sizes = tuple(rng.randrange(1, 7) for _ in range(rng.randrange(1, 6)))
        h = Hierarchy(sizes, tuple(range(1, len(sizes) + 1)))
        for i in range(1, h.n + 1):
            loop = next(lvl for lvl, upper in enumerate(h.cumulative, start=1)
                        if i <= upper)
            assert h.level_of(i) == loop


def test_hierarchy_equality_hash_and_replace():
    # cumulative is derived, so it takes no part in equality, hashing, repr
    # or construction
    h = Hierarchy((1, 2, 3), (1, 2, 4))
    same = Hierarchy([1, 2, 3], [1, 2, 4])
    assert h == same and hash(h) == hash(same)
    assert hash(h) == hash(((1, 2, 3), (1, 2, 4)))
    assert h != Hierarchy((1, 2, 3), (1, 2, 5))
    assert len({h, same}) == 1
    assert repr(h) == "Hierarchy(level_sizes=(1, 2, 3), thresholds=(1, 2, 4))"
    moved = replace(h, level_sizes=(2, 2, 2))
    assert moved.cumulative == (2, 4, 6) and h.cumulative == (1, 3, 6)
    with pytest.raises(TypeError):
        Hierarchy((1,), (1,), cumulative=(1,))
    params = SchemeParams(CompactSequence(m0=7, moduli=(11, 13, 17)), h)
    assert params == SchemeParams(CompactSequence(m0=7, moduli=(11, 13, 17)), same)
    assert hash(params) == hash(replace(params, hierarchy=same))


def test_prefix_validity_agreement():
    # a sequence works for the full hierarchy iff it works for every prefix
    rng = random.Random(11)
    for _ in range(10):
        seq = generate_compact_sequence(997, 6, 1, Fraction(2, 3), rng.randrange(2**32))
        assert _sequence_report(seq).ok
        for cut in range(1, 7):
            prefix = CompactSequence(
                m0=seq.m0, moduli=seq.moduli[:cut], k=seq.k, theta=seq.theta
            )
            assert _sequence_report(prefix).ok


def test_validate_params_levels():
    seq = generate_compact_sequence(97, 3, 1, Fraction(1, 2), 7)
    params = SchemeParams(sequence=seq, hierarchy=Hierarchy((1, 2), (1, 2)))
    assert validate_params(params).ok
    assert params.violations == ()

    short = SchemeParams(sequence=seq, hierarchy=Hierarchy((1, 3), (1, 2)))
    assert not validate_params(short).ok  # 3 moduli for 4 participants


def test_deal_verdict_ignores_interval(micro_params):
    assert micro_params.violations == ()
    assert not validate_params(micro_params).ok


def _pairwise_structure(seq):
    """The O(n^2) structural validator, kept as the oracle for the fold."""
    bad = []
    if not is_prime(seq.m0):
        bad.append(f"m0 = {seq.m0} is not prime")
    full = (seq.m0,) + seq.moduli
    for idx in range(1, len(full)):
        if full[idx] <= full[idx - 1]:
            bad.append(
                f"not strictly increasing at position {idx}: "
                f"{full[idx - 1]} >= {full[idx]}"
            )
    for i in range(len(full)):
        for j in range(i + 1, len(full)):
            g = gcd(full[i], full[j])
            if g != 1:
                bad.append(f"gcd(m_{i}, m_{j}) = gcd({full[i]}, {full[j]}) = {g}")
    return tuple(bad)


def _interval_reference(seq):
    lo = seq.k * seq.m0
    hi = lo + compact_width(seq.m0, seq.theta)
    return tuple(
        f"m_{idx} = {m} outside open interval ({lo}, {hi})"
        for idx, m in enumerate(seq.moduli, start=1)
        if not lo < m < hi
    )


def _assert_matches_oracle(full):
    seq = CompactSequence(m0=full[0], moduli=tuple(full[1:]), k=1, theta=Fraction(1, 2))
    expected = _pairwise_structure(seq)
    params = SchemeParams(sequence=seq, hierarchy=Hierarchy((seq.n,), (1,)))
    assert validate_params(params).violations == tuple(
        f"sequence: {v}" for v in expected + _interval_reference(seq)
    )
    assert params.violations == tuple(f"sequence: {v}" for v in expected)
    return expected


def _coprime_above(rng, m0, count, hi):
    values = []
    while len(values) < count:
        v = rng.randrange(m0 + 1, hi)
        if all(gcd(v, o) == 1 for o in [m0] + values):
            values.append(v)
    return sorted(values)


MUTATIONS = ("clean", "shared-factor", "duplicate", "zero", "one", "negative", "noise")


def _mutated_ladder(rng, kind):
    if kind == "noise":
        return [rng.randrange(0, 60)] + [
            rng.randrange(-20, 60) for _ in range(rng.randrange(1, 9))
        ]
    m0 = rng.choice((2, 7, 97, 101, 997))
    full = [m0] + _coprime_above(rng, m0, rng.randrange(1, 8), 4 * m0 + 40)
    i, j = sorted(rng.sample(range(len(full)), 2)) if len(full) > 2 else (0, 1)
    if kind == "shared-factor":
        p = rng.choice((2, 3, 5, 7, 11, 9973))
        full[i] *= p
        full[j] *= p
    elif kind == "duplicate":
        full[j] = full[i]
    elif kind == "zero":
        full[j] = 0
    elif kind == "one":
        full[j] = 1
    elif kind == "negative":
        full[j] = -rng.choice((1, full[i], full[j], rng.randrange(2, 50)))
    if rng.random() < 0.25:
        rng.shuffle(full)
        full[0] = abs(full[0])  # the interval bound needs m0 >= 0
    return full


def test_structure_fold_matches_pairwise_oracle():
    rng = random.Random(2024)
    named_pairs = {kind: 0 for kind in MUTATIONS}
    passed = 0
    for round_ in range(3000):
        kind = MUTATIONS[round_ % len(MUTATIONS)]
        expected = _assert_matches_oracle(_mutated_ladder(rng, kind))
        named_pairs[kind] += any(v.startswith("gcd(") for v in expected)
        passed += not expected
    assert passed > 0
    # 1 is coprime to everything, so the "one" rungs fail on ordering only
    assert named_pairs["clean"] == named_pairs["one"] == 0
    assert all(named_pairs[kind] > 100 for kind in MUTATIONS[1:] if kind != "one")


@pytest.mark.parametrize("first, second, scale", [
    (None, None, None), (0, 1, 3), (1, 2, 5), (90, 130, 7), (57, 200, 2**61 - 1),
    (10, 150, 1),
], ids=["clean", "m0-and-m1", "first-pair", "middle", "last-modulus",
        "duplicated-modulus"])
def test_structure_fold_at_real_size(first, second, scale):
    rng = random.Random(256)
    m0 = (1 << 255) + 1
    while not is_prime(m0):
        m0 += 2
    full = [m0] + _coprime_above(rng, m0, 200, 1 << 256)
    if scale is not None:
        full[second] = full[first] * scale
    expected = _assert_matches_oracle(full)
    assert bool(expected) == (scale is not None)


def _consecutive_primes(start, count):
    primes, c = [], start
    while len(primes) < count:
        c += 1
        if is_prime(c):
            primes.append(c)
    return primes


def _tree_placements(n):
    """Pairs (i, j) of leaves of the product tree of n values, named by where
    they meet: across the root split (whose right child starts at the
    highest power of two below n, which is n/2 when n is a power of two),
    inside either child, or with the odd last leaf that each row carries
    up."""
    split = n // 2 if n & (n - 1) == 0 else 1 << (n.bit_length() - 1)
    places = {"across-root": [(split - 1, split)], "ends": [(0, n - 1)]}
    if split >= 2:
        places["left"] = [(0, split - 1)]
    if n - split >= 2:
        places["right"] = [(split, n - 1)]
    if n % 2:
        places["carried"] = [(n - 2, n - 1)]
    places["all"] = [pair for pairs in list(places.values()) for pair in pairs]
    return places


_TREE_PRIMES = _consecutive_primes(1009, 257)


@pytest.mark.parametrize("n", [v for k in range(1, 9) for v in (2**k, 2**k + 1)])
def test_structure_tree_matches_pairwise_oracle(n):
    """At n = 2^k and 2^k + 1 values, a shared factor placed across the root
    split, inside either child of the root, or on the carried odd leaf gives
    the pairwise oracle's verdict and messages, in the same order."""
    clean = [1009] + _TREE_PRIMES[:n - 1]
    assert _assert_matches_oracle(clean) == ()
    for place, pairs in _tree_placements(n).items():
        full = list(clean)
        for (i, j), p in zip(pairs, (3, 5, 7, 11, 13, 17)):
            full[i] *= p
            full[j] *= p
        expected = _assert_matches_oracle(full)
        named = {v for v in expected if v.startswith("gcd(")}
        assert {f"gcd(m_{i}, m_{j})" for i, j in pairs} == {
            v.split(" =")[0] for v in named}, (n, place)
