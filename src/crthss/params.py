"""Coprime modulus sequences, hierarchy layouts, and their validation.

A compact sequence is a prime m0 together with pairwise-coprime moduli
m_1 < ... < m_n squeezed into the open interval (k*m0, k*m0 + floor(m0^theta)).
theta is kept rational so the interval bound is an exact integer root; no
floating point enters any validity decision.

Participants are numbered 1..n across levels in order, and participant i owns
modulus m_i. A hierarchy stores the per-level sizes n_1..n_m and thresholds
t_1 < ... < t_m with t_l <= N_l (cumulative size).
"""

import random
from bisect import bisect_left
from dataclasses import dataclass, field
from fractions import Fraction
from itertools import accumulate
from math import gcd, isqrt, log2, prod
from typing import Iterable

from .errors import IntervalExhausted, ThresholdOutOfRange
from .oneway import OwfFamily

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
    Q = (1 - D) / 4. A square n has no such D."""
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
    # U_k, V_k and Q^k mod n from k = 1 up to k = d along d's bits
    half = (n + 1) // 2  # the inverse of 2 mod n
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
    :func:`validate_compact` to get a violation report.
    """

    m0: int
    moduli: tuple[int, ...]
    k: int = 1
    theta: Fraction = Fraction(1, 2)

    def __post_init__(self):
        object.__setattr__(self, "moduli", tuple(int(m) for m in self.moduli))
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


def _candidate_order(lo: int, width: int, rng: random.Random):
    """Every candidate of the open interval (lo, lo + width) once, in seeded
    uniform order: a Fisher-Yates shuffle of the offsets run forward and
    placed lazily. Step i swaps position i with a uniform j in [i, count);
    positions that hold other than their own offset live in a dict, so a pass
    that reads r candidates costs r accepted draws and at most r entries at
    any width. A draw below bound takes bits(bound) random bits and redraws
    while the value is bound or more (at most twice on average): the
    rejection loop behind Random.randrange, written out here so the order is
    defined by this code and skips that method's argument checks."""
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


def generate_compact_sequence(
    m0: int, n: int, k: int, theta: Fraction, rng_seed: int
) -> CompactSequence:
    """Draw n pairwise-coprime integers from (k*m0, k*m0 + floor(m0^theta)).

    Candidates are scanned in seeded uniform random order, each at most once,
    and accepted greedily when coprime to m0 times everything already
    accepted, then sorted ascending. The order is placed lazily, so draws and
    memory grow with the candidates read, never with the interval: 128- and
    256-bit m0 take the same path as small ones. Most refused candidates
    share a prime up to 37 with that product: a gcd with `shared`, the
    product of those small primes, refuses them without the gcd against the
    product itself, whose cost grows with everything accepted. The screen
    only skips work; acceptance is exactly gcd(c, product) == 1.
    Deterministic for a given seed. Raises IntervalExhausted when every
    candidate of the interval has been read and fewer than n values were
    placed (m0 too small for the requested n and theta).
    """
    if not is_prime(m0):
        raise ValueError(f"m0 = {m0} is not prime")
    theta = Fraction(theta)
    if not 0 < theta < 1:
        raise ValueError(f"theta must be in (0, 1), got {theta}")
    if k < 1:
        raise ValueError(f"k must be >= 1, got {k}")
    if n < 1:
        raise ValueError(f"n must be >= 1, got {n}")
    lo = k * m0
    width = compact_width(m0, theta)
    rng = random.Random(rng_seed)
    accepted: list[int] = []
    product = m0
    shared = gcd(m0, SMALL_PRODUCT)  # the primes <= 37 dividing product
    for c in _candidate_order(lo, width, rng):
        if gcd(c, shared) == 1 and gcd(c, product) == 1:
            accepted.append(c)
            product *= c
            shared *= gcd(c, SMALL_PRODUCT)
            if len(accepted) == n:
                break
    if len(accepted) < n:
        raise IntervalExhausted(
            f"interval ({lo}, {lo + width}) yielded only {len(accepted)} of "
            f"{n} pairwise-coprime values"
        )
    return CompactSequence(m0=m0, moduli=tuple(sorted(accepted)), k=k, theta=theta)


def validate_compact(seq: CompactSequence) -> ValidationReport:
    """Structural checks plus the open compactness interval bounds.
    Every violation is reported with its indices."""
    return ValidationReport(_structure_violations(seq) + _interval_violations(seq))


def _structure_violations(seq: CompactSequence) -> tuple[str, ...]:
    """Primality of m0, strict ordering, pairwise coprimality: the properties
    dealing and reconstruction rely on. Coprimality is one fold: a value
    coprime to the product of those before it is coprime to each, so only a
    failing value is scanned to name its pairs. gcd, unlike a remainder,
    gives 0 and negative entries of a malformed file the pairwise verdict."""
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
    pairs: list[tuple[int, int]] = []
    product = 1
    for j, value in enumerate(full):
        if gcd(value, product) != 1:
            pairs += [(i, j) for i in range(j) if gcd(full[i], value) != 1]
        product *= value
    bad += [
        f"gcd(m_{i}, m_{j}) = gcd({full[i]}, {full[j]}) = {gcd(full[i], full[j])}"
        for i, j in sorted(pairs)
    ]
    return tuple(bad)


def _interval_violations(seq: CompactSequence) -> tuple[str, ...]:
    """Moduli outside the open interval (k*m0, k*m0 + floor(m0^theta))."""
    lo = seq.k * seq.m0
    hi = lo + compact_width(seq.m0, seq.theta)
    return tuple(
        f"m_{idx} = {m} outside open interval ({lo}, {hi})"
        for idx, m in enumerate(seq.moduli, start=1)
        if not lo < m < hi
    )


@dataclass(frozen=True)
class Hierarchy:
    """Level sizes n_1..n_m and cumulative thresholds t_1 < ... < t_m."""

    level_sizes: tuple[int, ...]
    thresholds: tuple[int, ...]
    # N_l = n_1 + ... + n_l for l = 1..m, derived once from level_sizes
    cumulative: tuple[int, ...] = field(init=False, repr=False, compare=False)

    def __post_init__(self):
        object.__setattr__(self, "level_sizes", tuple(int(v) for v in self.level_sizes))
        object.__setattr__(self, "thresholds", tuple(int(v) for v in self.thresholds))
        object.__setattr__(self, "cumulative", tuple(accumulate(self.level_sizes)))

    @property
    def m(self) -> int:
        """Number of levels."""
        return len(self.level_sizes)

    @property
    def n(self) -> int:
        """Total number of participants."""
        return sum(self.level_sizes)

    @property
    def n_masked(self) -> int:
        """Participants below the top level, N_{m-1} (0 with one level): they
        hold random values and reach each level through published offsets."""
        return self.cumulative[-2] if self.m > 1 else 0

    def failing_levels(self, members: Iterable[int]) -> tuple[int, ...]:
        """Levels l whose threshold t_l the set misses inside the first N_l."""
        got = set(members)
        return tuple(
            level
            for level, (upper, t) in enumerate(
                zip(self.cumulative, self.thresholds), start=1
            )
            if sum(1 for i in got if i <= upper) < t
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


@dataclass(frozen=True)
class SchemeParams:
    """Everything public a deal needs: modulus ladder, hierarchy, OWF family."""

    sequence: CompactSequence
    hierarchy: Hierarchy
    owf: OwfFamily = field(default_factory=OwfFamily)


def validate_dealable(params: SchemeParams) -> ValidationReport:
    """What a deal needs: structural sequence validity, hierarchy validity and
    size agreement. The Asmuth-Bloom product inequality at a threshold t,
    m0 * prod(m_1..m_{t-1}) < prod(m_1..m_t), reduces to m0 < m_t, so the
    ordering check already implies it at every level. The compactness
    interval is deliberately not required here; it governs the asymptotic
    quality of the scheme, not its correctness."""
    bad = [f"sequence: {v}" for v in _structure_violations(params.sequence)]
    bad += [f"hierarchy: {v}" for v in validate_hierarchy(params.hierarchy).violations]
    if params.sequence.n != params.hierarchy.n:
        bad.append(
            f"{params.sequence.n} moduli for {params.hierarchy.n} participants"
        )
    return ValidationReport(tuple(bad))


def validate_params(params: SchemeParams) -> ValidationReport:
    """Full validation: everything a deal needs plus the compactness bounds."""
    bad = validate_dealable(params).violations
    interval = tuple(f"sequence: {v}" for v in _interval_violations(params.sequence))
    return ValidationReport(bad + interval)
