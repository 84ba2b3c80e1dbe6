"""Coprime modulus sequences, hierarchy layouts, and their validation.

A compact sequence is a prime m0 together with pairwise-coprime moduli
m_1 < ... < m_n squeezed into the open interval (k*m0, k*m0 + floor(m0^theta)).
theta is kept rational so the interval bound is an exact integer root; no
floating point enters any validity decision.

Participants are numbered 1..n across levels in order, and participant i owns
modulus m_i. A hierarchy stores the per-level sizes n_1..n_m and thresholds
t_1 < ... < t_m with t_l <= N_l (cumulative size).

The parameters name their scheme, one of ``SCHEMES``: disjunctive ``dhss``
(some level's threshold suffices), conjunctive ``chss`` (every level's
threshold is required) and flat ``ab``, the one-level case of both.
"""

import random
from bisect import bisect_left, bisect_right
from dataclasses import dataclass, field
from functools import cached_property
from fractions import Fraction
from itertools import accumulate
from math import gcd, isqrt, log2, prod
from typing import Iterable

from .crt import product_tree
from .errors import IntervalExhausted, ThresholdOutOfRange

SCHEMES = ("dhss", "chss", "ab")

_SMALL_PRIMES = (2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37)
# their product, 43 bits: one gcd with it finds every small prime factor
SMALL_PRODUCT = prod(_SMALL_PRIMES)


def is_prime(n: int) -> bool:
    """Baillie-PSW (Baillie and Wagstaff, Math. Comp. 1980): trial division by
    small primes, a strong base-2 Miller-Rabin test, then a strong Lucas test.
    No composite is known to pass; none below 2^64 does."""
    if n < 2:
        return False
    if n in _SMALL_PRIMES:
        return True
    if gcd(n, SMALL_PRODUCT) != 1:
        return False
    return _strong_base2(n) and _strong_lucas(n)


# the smallest m0 size whose prime search takes the sieve gcd: at 64 bits
# and below, building the sieve product costs what it saves
_SIEVE_MIN_BITS = 128


def _sieve_product(bits: int) -> int:
    """The product of the primes from 41 below 8 * bits, none of which is a
    bits-bit number; 1 below _SIEVE_MIN_BITS. At 2048 bits its gcd (23
    kbit) refuses about 60% of the candidates the primes up to 37 leave,
    each of which would have cost a base-2 test."""
    if bits < _SIEVE_MIN_BITS:
        return 1
    bound = 8 * bits
    sieve = bytearray([1]) * bound
    for p in range(2, isqrt(bound - 1) + 1):
        if sieve[p]:
            sieve[p * p::p] = bytes(len(range(p * p, bound, p)))
    return prod(p for p in range(41, bound) if sieve[p])


class _Prime(int):
    """An int that passed BPSW in random_prime: generate_compact_sequence
    takes it as prime without a second test."""


def random_prime(bits: int, rng: random.Random) -> int:
    """The first prime among the odd bits-bit values drawn from rng. With a
    sieve, a candidate with a prime factor up to 8 * bits is refused before
    BPSW, by the 43-bit gcd of the primes up to 37 first and then the sieve's
    gcd; either factor lies below the candidate, so the sieve skips tests of
    composites but never changes which prime is found."""
    if bits < 2:
        raise ValueError("need at least 2 bits")
    sieve = _sieve_product(bits)
    while True:
        candidate = rng.getrandbits(bits) | (1 << (bits - 1)) | 1
        if sieve > 1 and (gcd(candidate, SMALL_PRODUCT) > 1
                          or gcd(candidate, sieve) > 1):
            continue
        if is_prime(candidate):
            return _Prime(candidate)


def _strong_base2(n: int) -> bool:
    """Miller-Rabin to base 2 for odd n > 2."""
    d, r = n - 1, 0
    while d % 2 == 0:
        d //= 2
        r += 1
    x = pow(2, d, n)
    if x in (1, n - 1):
        return True
    for _ in range(r - 1):
        x = x * x % n
        if x == n - 1:
            return True
    return False


def _jacobi(a: int, n: int) -> int:
    """Jacobi symbol (a/n) for odd n > 0."""
    a %= n
    result = 1
    while a:
        while a % 2 == 0:
            a //= 2
            if n % 8 in (3, 5):
                result = -result
        a, n = n, a
        if a % 4 == 3 and n % 4 == 3:
            result = -result
        a %= n
    return result if n == 1 else 0


def _strong_lucas(n: int) -> bool:
    """Strong Lucas probable-prime test for odd n > 2, using Selfridge's
    parameters: the first D of 5, -7, 9, -11, ... with (D/n) = -1, P = 1 and
    Q = (1 - D) / 4. A square n has no such D.

    With n + 1 = d * 2^s, d odd, n passes when U_d = 0, or V_(d*2^r) = 0 for
    some r < s, mod n. A ladder carries (V_k, V_(k+1), Q^k) along d's bits,
    by V_2k = V_k^2 - 2Q^k and V_(2k+1) = V_k V_(k+1) - Q^k (P = 1): three
    modular products per bit, and no halving. U_d itself is never formed:
    since D U_d = 2 V_(d+1) - V_d and (D/n) = -1 makes D invertible mod n,
    U_d = 0 exactly when 2 V_(d+1) = V_d."""
    if isqrt(n) ** 2 == n:
        return False
    D = 5
    while (symbol := _jacobi(D, n)) != -1:
        if symbol == 0 and gcd(D, n) < n:  # a proper factor of n
            return False
        D = -D - 2 if D > 0 else -D + 2
    Q = (1 - D) // 4
    d, s = n + 1, 0
    while d % 2 == 0:
        d //= 2
        s += 1
    # (V_k, V_(k+1), Q^k) mod n from k = 1 up to k = d along d's bits
    V, W, Qk = 1, (1 - 2 * Q) % n, Q % n
    for bit in bin(d)[3:]:
        if bit == "1":
            Qk1 = Qk * Q  # Q^(k+1), for V_(2k+2) = V_(k+1)^2 - 2Q^(k+1)
            V, W, Qk = (V * W - Qk) % n, (W * W - 2 * Qk1) % n, Qk * Qk1 % n
        else:
            V, W, Qk = (V * V - 2 * Qk) % n, (V * W - Qk) % n, Qk * Qk % n
    if V == 0 or (2 * W - V) % n == 0:
        return True
    for _ in range(s - 1):
        V, Qk = (V * V - 2 * Qk) % n, Qk * Qk % n
        if V == 0:
            return True
    return False


def integer_root(x: int, q: int) -> int:
    """Largest r with r**q <= x, exact: Newton on integers descending from the
    float 2^(log2(x) / q) nudged up (a few steps, where a start up to twice the
    root takes order q), or from the power-of-two bound if that falls short."""
    if x < 0 or q < 1:
        raise ValueError("need x >= 0 and q >= 1")
    if x in (0, 1) or q == 1:
        return x
    if q >= x.bit_length():  # x < 2**q, so the root is 1
        return 1
    e = log2(x) / q
    r = int(2.0 ** (e % 1 + 52)) << int(e) >> 52
    r += (r >> 20) + 1
    if r ** q < x:
        r = 1 << ((x.bit_length() + q - 1) // q)
    while True:
        nxt = ((q - 1) * r + x // r ** (q - 1)) // q
        if nxt >= r:
            break
        r = nxt
    while r ** q > x:
        r -= 1
    return r


# compact_width's limit on p * bits(m0), the size of the m0**p it must form
_MAX_POWER_BITS = 1 << 18


def check_power_limit(m0_bits: int, theta: Fraction) -> None:
    """ValueError when theta = p/q makes compact_width form an m0**p beyond
    _MAX_POWER_BITS for an m0 of m0_bits bits. Callers that pick m0 by its
    size run it first, so an oversized request is refused before any search."""
    theta = Fraction(theta)
    if theta.numerator * m0_bits > _MAX_POWER_BITS:
        raise ValueError(
            f"theta = {theta} needs m0**{theta.numerator}, beyond the limit of "
            f"{_MAX_POWER_BITS} bits"
        )


def check_compactness(k: int, theta: Fraction) -> None:
    """ValueError unless 0 < theta < 1 and k >= 1; run before any m0 search."""
    if not 0 < theta < 1:
        raise ValueError(f"theta must be in (0, 1), got {theta}")
    if k < 1:
        raise ValueError(f"k must be >= 1, got {k}")


def compact_width(m0: int, theta: Fraction) -> int:
    """floor(m0^theta) for rational theta = p/q, via an exact integer q-th root
    of m0**p; ValueError when p * bits(m0) exceeds _MAX_POWER_BITS."""
    theta = Fraction(theta)
    check_power_limit(m0.bit_length(), theta)
    return integer_root(m0 ** theta.numerator, theta.denominator)


@dataclass(frozen=True)
class ValidationReport:
    """Outcome of a validator: empty violation list means pass."""

    violations: tuple[str, ...] = ()

    @property
    def ok(self) -> bool:
        return not self.violations

    def __str__(self) -> str:
        return "pass" if self.ok else "; ".join(self.violations)


@dataclass(frozen=True)
class CompactSequence:
    """Public modulus ladder: prime m0 plus moduli m_1..m_n, and the (k, theta)
    compactness parameters they are supposed to satisfy.

    Construction does not validate the number-theoretic invariants; run
    :func:`validate_params` to get a violation report.
    """

    m0: int
    moduli: tuple[int, ...]
    k: int = 1
    theta: Fraction = Fraction(1, 2)
    # True only for a sequence generate_compact_sequence returned, which has
    # the structure a deal needs by construction; a dataclasses.replace of
    # one is False again
    generated: bool = field(default=False, init=False, repr=False, compare=False)

    def __post_init__(self):
        object.__setattr__(self, "moduli", tuple(map(int, self.moduli)))
        object.__setattr__(self, "theta", Fraction(self.theta))

    @property
    def n(self) -> int:
        return len(self.moduli)

    def modulus_of(self, participant: int) -> int:
        """Modulus owned by 1-based participant index."""
        if not 1 <= participant <= self.n:
            raise ValueError(f"participant {participant} not in [1, {self.n}]")
        return self.moduli[participant - 1]

    def prefix_product(self, t: int) -> int:
        """prod(m_1..m_t); the dealer's range bound for threshold t."""
        if not 0 <= t <= self.n:
            raise ThresholdOutOfRange(f"t={t} with only {self.n} moduli")
        return prod(self.moduli[:t])

    # set on the instance by the first read of ``tree``: a cached_property
    # would write the instance ``__dict__``, after which every field read of
    # the instance takes about four times as long (CPython 3.11)
    _tree = None

    @property
    def tree(self) -> list[list[int]]:
        """The rows of the moduli's product tree (``crt.product_tree``),
        built on first use and kept with this sequence: the deal verdict's
        coprimality check and the deal's top-level remainder walk share it."""
        if self._tree is None:
            object.__setattr__(self, "_tree", product_tree(self.moduli))
        return self._tree


# the most candidates that one reduction of the running product serves
_BATCH = 8


def generate_compact_sequence(
    m0: int, n: int, k: int, theta: Fraction, rng_seed: int
) -> CompactSequence:
    """Draw n pairwise-coprime integers from (k*m0, k*m0 + floor(m0^theta)).

    Candidates are read in seeded uniform random order, each at most once,
    and accepted greedily when coprime to m0 times everything already
    accepted, then sorted ascending. The order is a forward Fisher-Yates
    shuffle of the offsets, placed lazily: step i swaps position i with a
    uniform j in [i, count), and positions that hold other than their own
    offset live in a dict, so a pass that reads r candidates costs r
    accepted draws and at most r entries at any width; 128- and 256-bit m0
    take the same path as small ones. A draw below bound takes bits(bound)
    random bits and redraws while the value is bound or more (at most twice
    on average): the rejection loop behind Random.randrange, written out so
    the order is defined here. bits(bound) is kept with `floor`, the power
    of two of that size, which halves when bound falls below it.

    Most refused candidates share a prime up to 37 with the product: a gcd
    with `shared`, the product of those small primes, refuses them without
    touching the product itself, whose size grows with everything accepted.
    The candidates that pass join a batch of up to _BATCH, never more than
    the moduli still to place, and each full batch is tested against one
    reduction of the product (`_place`); a batch is placed whole, so the
    read stops on the candidate where a pass testing each one alone stops.
    Neither the screen nor the batches change what is accepted, or which
    candidates are read: acceptance is exactly gcd(c, product) == 1 in the
    order read. m0 must pass BPSW here unless random_prime returned it,
    which tested it already; the sequence is marked ``generated``, so a deal
    from it does not test m0 or the moduli again. Deterministic for a given
    seed. Raises IntervalExhausted when every candidate of the interval has
    been read and fewer than n values were placed (m0 too small for the
    requested n and theta).
    """
    if type(m0) is not _Prime and not is_prime(m0):
        raise ValueError(f"m0 = {m0} is not prime")
    m0 = int(m0)
    theta = Fraction(theta)
    check_compactness(k, theta)
    if n < 1:
        raise ValueError(f"n must be >= 1, got {n}")
    lo = k * m0
    width = compact_width(m0, theta)
    count = width - 1  # offsets 0 .. width - 2
    getrandbits = random.Random(rng_seed).getrandbits
    swapped: dict[int, int] = {}
    get, pop = swapped.get, swapped.pop
    bits = count.bit_length()
    floor = 1 << bits >> 1
    first = lo + 1
    accepted: list[int] = []
    product = m0
    shared = gcd(m0, SMALL_PRODUCT)  # the primes <= 37 dividing product
    batch: list[int] = []
    size = min(_BATCH, n)
    for i in range(count):
        bound = count - i
        if bound < floor:
            floor >>= 1
            bits -= 1
        j = getrandbits(bits)
        while j >= bound:
            j = getrandbits(bits)
        j += i
        c = first + get(j, j)
        swapped[j] = pop(i, i)
        if gcd(c, shared) == 1:
            batch.append(c)
            if len(batch) == size:
                fresh = _place(batch, product, accepted)
                if len(accepted) == n:
                    break
                product *= fresh
                shared *= gcd(fresh, SMALL_PRODUCT)
                batch.clear()
                size = min(_BATCH, n - len(accepted))
    else:
        _place(batch, product, accepted)
    if len(accepted) < n:
        raise IntervalExhausted(
            f"interval ({lo}, {lo + width}) yielded only {len(accepted)} of "
            f"{n} pairwise-coprime values"
        )
    sequence = CompactSequence(m0=m0, moduli=tuple(sorted(accepted)), k=k, theta=theta)
    # m0 passed BPSW, and the moduli lie above k*m0 >= m0, each read once
    # and coprime to m0 and to every one accepted before it: sorted, the
    # sequence has the structure a deal needs
    object.__setattr__(sequence, "generated", True)
    return sequence


def _place(batch: list[int], product: int, accepted: list[int]) -> int:
    """Append to accepted each member of batch, in order, that is coprime to
    product and to the members appended before it, and return their
    product. One reduction, rest = product mod prod(batch), serves the
    batch: rest leaves product's remainder mod each member, and it stays the
    running product's residue as members are appended."""
    modulus = prod(batch)
    rest = product % modulus
    fresh = 1
    for c in batch:
        if gcd(rest % c, c) == 1:
            accepted.append(c)
            fresh *= c
            rest = rest * c % modulus
    return fresh


def _structure_violations(seq: CompactSequence) -> tuple[str, ...]:
    """Primality of m0, strict ordering, pairwise coprimality of (m0, m_1..m_n):
    the properties dealing and reconstruction rely on. Coprimality is one gcd
    per internal node of the moduli's product tree (``seq.tree``, which the
    deal's lift walk takes over): every pair meets at exactly one node, as a
    leaf below its left child and one below its right, and a product is
    coprime to a value exactly when each factor is. m0 is checked against
    the nodes of the top row, whose product is the root. Only a failing node
    is descended to name its pairs, and only a failing m0 check is followed
    by a gcd of m0 with each modulus; positions count in (m0, m_1..m_n).
    gcd, unlike a remainder, gives 0 and negative entries of a malformed
    file the pairwise verdict."""
    bad: list[str] = []
    if not is_prime(seq.m0):
        bad.append(f"m0 = {seq.m0} is not prime")
    full = (seq.m0,) + seq.moduli
    for idx in range(1, len(full)):
        if full[idx] <= full[idx - 1]:
            bad.append(
                f"not strictly increasing at position {idx}: "
                f"{full[idx - 1]} >= {full[idx]}"
            )
    m0, rows = seq.m0, seq.tree
    pairs = []
    if any(gcd(m0, node) != 1 for node in rows[-1]):
        pairs = [(0, j) for j, m in enumerate(seq.moduli, start=1) if gcd(m0, m) != 1]
    pairs += [
        (i + 1, j + 1)
        for r, row in enumerate(rows)
        for k in range(1, len(row), 2)
        if gcd(row[k - 1], row[k]) != 1
        for i, j in _shared_pairs(rows, (r, k - 1), (r, k))
    ]
    bad += [
        f"gcd(m_{i}, m_{j}) = gcd({full[i]}, {full[j]}) = {gcd(full[i], full[j])}"
        for i, j in sorted(pairs)
    ]
    return tuple(bad)


def _shared_pairs(rows, left, right) -> list[tuple[int, int]]:
    """Leaf pairs (i, j) with a common factor, i below the tree node
    left = (row, index) and j below right, which lies after it: a coprime
    pair of nodes holds none, otherwise the higher node is split into its
    children until both are leaves."""
    (rl, kl), (rr, kr) = left, right
    if gcd(rows[rl][kl], rows[rr][kr]) == 1:
        return []
    if rl == rr == 0:
        return [(kl, kr)]
    if rl >= rr:
        halves = range(2 * kl, min(2 * kl + 2, len(rows[rl - 1])))
        return [p for c in halves for p in _shared_pairs(rows, (rl - 1, c), right)]
    halves = range(2 * kr, min(2 * kr + 2, len(rows[rr - 1])))
    return [p for c in halves for p in _shared_pairs(rows, left, (rr - 1, c))]


@dataclass(frozen=True)
class Hierarchy:
    """Level sizes n_1..n_m and cumulative thresholds t_1 < ... < t_m."""

    level_sizes: tuple[int, ...]
    thresholds: tuple[int, ...]
    # N_l = n_1 + ... + n_l for l = 1..m, derived once from level_sizes
    cumulative: tuple[int, ...] = field(init=False, repr=False, compare=False)
    # total number of participants, N_m, derived once from level_sizes
    n: int = field(init=False, repr=False, compare=False)
    # number of levels, derived once from level_sizes
    m: int = field(init=False, repr=False, compare=False)
    # participants below the top level, N_{m-1} (0 with one level): they hold
    # random values and reach each level through published offsets
    n_masked: int = field(init=False, repr=False, compare=False)

    def __post_init__(self):
        object.__setattr__(self, "level_sizes", tuple(int(v) for v in self.level_sizes))
        object.__setattr__(self, "thresholds", tuple(int(v) for v in self.thresholds))
        object.__setattr__(self, "cumulative", tuple(accumulate(self.level_sizes)))
        object.__setattr__(self, "n", sum(self.level_sizes))
        object.__setattr__(self, "m", len(self.level_sizes))
        object.__setattr__(self, "n_masked", self.cumulative[-2] if self.m > 1 else 0)

    def failing_levels(self, members: Iterable[int]) -> tuple[int, ...]:
        """Levels l whose threshold t_l the set misses inside the first N_l:
        the distinct members up to N_l are counted by bisection of their
        sorted list."""
        got = sorted(set(members))
        return tuple(
            level
            for level, (upper, t) in enumerate(
                zip(self.cumulative, self.thresholds), start=1
            )
            if bisect_right(got, upper) < t
        )

    def level_of(self, participant: int) -> int:
        """Level l with N_{l-1} < participant <= N_l."""
        if not 1 <= participant <= self.n:
            raise ValueError(f"participant {participant} not in [1, {self.n}]")
        return bisect_left(self.cumulative, participant) + 1

    def members_of(self, level: int) -> range:
        """Participant indices belonging to one level."""
        if not 1 <= level <= self.m:
            raise ValueError(f"level {level} not in [1, {self.m}]")
        cum = (0,) + self.cumulative
        return range(cum[level - 1] + 1, cum[level] + 1)


def validate_hierarchy(h: Hierarchy) -> ValidationReport:
    """Check positive sizes, strictly increasing thresholds, and t_l <= N_l."""
    bad: list[str] = []
    if len(h.level_sizes) == 0:
        bad.append("no levels")
    if len(h.level_sizes) != len(h.thresholds):
        bad.append(
            f"{len(h.level_sizes)} level sizes but {len(h.thresholds)} thresholds"
        )
        return ValidationReport(tuple(bad))
    for lvl, size in enumerate(h.level_sizes, start=1):
        if size < 1:
            bad.append(f"level {lvl} size {size} < 1")
    if h.thresholds and h.thresholds[0] < 1:
        bad.append(f"t_1 = {h.thresholds[0]} < 1")
    for lvl in range(1, len(h.thresholds)):
        if h.thresholds[lvl] <= h.thresholds[lvl - 1]:
            bad.append(
                f"thresholds not strictly increasing: t_{lvl} = "
                f"{h.thresholds[lvl - 1]} >= t_{lvl + 1} = {h.thresholds[lvl]}"
            )
    for lvl, (t, upper) in enumerate(zip(h.thresholds, h.cumulative), start=1):
        if t > upper:
            bad.append(f"t_{lvl} = {t} > N_{lvl} = {upper}")
    return ValidationReport(tuple(bad))


def scheme_violations(scheme: str, hierarchy: Hierarchy) -> tuple[str, ...]:
    """An unknown scheme, or a flat ("ab") scheme with other than one level:
    a refusal no other check of the parameters adds to."""
    if scheme not in SCHEMES:
        return (f"unknown scheme {scheme!r}",)
    if scheme == "ab" and hierarchy.m != 1:
        return ("flat dealing needs a single-level parameter set",)
    return ()


@dataclass(frozen=True)
class SchemeParams:
    """Everything public a deal needs: modulus ladder, hierarchy, the
    one-way function's family tag, and the scheme that deals and
    reconstructs with them."""

    sequence: CompactSequence
    hierarchy: Hierarchy
    family_tag: bytes = b""
    scheme: str = "dhss"

    @cached_property
    def violations(self) -> tuple[str, ...]:
        """What stops a deal, worked out on its first use and kept: the
        scheme's refusal (``scheme_violations``) alone when there is one;
        otherwise sequence structure (not checked again for a ``generated``
        sequence), then hierarchy violations, each prefixed with its part,
        then a size mismatch. Not the compactness interval, which governs the
        scheme's asymptotic quality, not its correctness; nor the Asmuth-Bloom
        inequality m0 * prod(m_1..m_{t-1}) < prod(m_1..m_t), which reduces to
        m0 < m_t and so holds at every level the ordering check passes."""
        if refused := scheme_violations(self.scheme, self.hierarchy):
            return refused
        bad = [] if self.sequence.generated else [
            f"sequence: {v}" for v in _structure_violations(self.sequence)]
        bad += [f"hierarchy: {v}" for v in validate_hierarchy(self.hierarchy).violations]
        if self.sequence.n != self.hierarchy.n:
            bad.append(f"{self.sequence.n} moduli for {self.hierarchy.n} participants")
        return tuple(bad)


def validate_params(params: SchemeParams) -> ValidationReport:
    """Full validation: everything a deal needs, then every modulus outside
    the open compactness interval (k*m0, k*m0 + floor(m0^theta))."""
    seq = params.sequence
    lo = seq.k * seq.m0
    hi = lo + compact_width(seq.m0, seq.theta)
    interval = tuple(
        f"sequence: m_{idx} = {m} outside open interval ({lo}, {hi})"
        for idx, m in enumerate(seq.moduli, start=1)
        if not lo < m < hi
    )
    return ValidationReport(params.violations + interval)
