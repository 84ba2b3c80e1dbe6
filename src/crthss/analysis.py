"""Exact security audit: candidate counting, entropy loss, rate bounds.

Everything here quantifies what an unauthorized set learns. The adversary's
usable knowledge is, per level l:

  (i)   0 <= z_l < prod(m_1..m_{t_l})            (the dealer's range)
  (ii)  all z_l share one residue mod m0          (disjunctive), or the sum
        of the per-level residues is the secret   (conjunctive)
  (iii) z_l = lifted residue (mod m_i) for each adversary member i with a
        published offset at level l
  (iv)  z_m = raw share (mod m_i) for adversary members at the top level

Hash-preimage consistency of the published offsets for non-members is
deliberately not modeled; its effect vanishes for large share spaces and is
out of computational reach, so the posterior here conditions on (i)-(iv).

Every per-level fact comes from one level profile per level, built in one
pass over the view: the range bound, the adversary modulus S, the members
inside N_l and the counts. Its floor bound // (m0 * S) and ratio
bound / (m0 * S) feed the grouping certificate, the eta dichotomy, the limit
ratio and the CLI's tables, all read from the report's ``levels``. The
adversary's constraint leaves every secret q or q + 1 in-range candidates at
that level, and the q + 1 secrets form an arithmetic progression mod m0. The
disjunctive count of a secret is the product of its level counts; the
conjunctive count is the cyclic convolution of the level tables, each fold a
sliding-window sum over the progression. The test suite's full scan over all
value tuples checks the conditions literally; it is the oracle and must agree
with the profiles exactly wherever it is feasible.

Per-secret counts are a lazy read-only mapping, never a table of m0 entries:
a disjunctive count is computed from the profiles when it is looked up, and
the histogram (all that entropy and grouping need) is tallied from the
minority secrets alone, the shorter side of each level's q / q + 1 split.
The dhss cost therefore follows the size of those sets, about m * m0^theta
in the compact regime, not m0. The conjunctive mapping reads its one folded
list.

The posterior places equal weight on every consistent tuple, matching the
counting argument the entropy-loss bound is built on (for an empty adversary
set this differs from the generative view: per-secret tuple counts still
wobble between floor(prod/m0) and floor(prod/m0)+1, so the reported loss is
small but nonzero at small m0).
"""

import itertools
from collections import Counter
from collections.abc import Mapping
from dataclasses import dataclass, field
from fractions import Fraction
from math import log2, prod
from operator import sub
from typing import Callable, Iterable, Optional

from .chss import chss_is_authorized
from .crt import crt_solve, mod_inverse
from .dhss import (
    DealResult,
    PublicBundle,
    Share,
    _level_congruences,
    dhss_authorized_level,
)
from .errors import (
    DecompositionMismatch,
    IntractableInstance,
    NotUnauthorized,
    WrongCardinality,
)
from .params import SchemeParams, compact_width, integer_root

SCHEMES = ("dhss", "chss")
DEFAULT_WORK_BUDGET = 10_000_000
DEFAULT_EPSILON = 0.05


@dataclass(frozen=True)
class AdversaryView:
    """What an unauthorized set holds: its members, their share values, and
    the public bundle (parameters plus published offsets)."""

    members: frozenset
    shares: Mapping[int, int]
    public: PublicBundle


@dataclass(frozen=True)
class LevelProfile:
    """What the adversary knows about one level l, and the per-secret
    candidate counts it leaves.

    The members inside the first N_l pin z_l = base (mod modulus), where
    modulus = S is the product of their moduli (1 when there are none); the
    dealer's range is 0 <= z_l < bound = prod(m_1..m_{t_l}). The in-range
    solutions are z = base + S*j for 0 <= j < K, K = ceil((bound - base) / S).
    Fixing z = r (mod m0) fixes j = u(r) = (r - base) * S^-1 (mod m0), so
    count(r) = q + [u(r) < rho] with (q, rho) = divmod(K, m0): the q + 1
    secrets form the progression {base + S*u mod m0 : u < rho}.
    """

    threshold: int
    bound: int
    modulus: int
    members: int
    m0: int
    base: int   # base mod m0
    step: int   # S mod m0
    inv: int    # S^-1 mod m0
    q: int
    rho: int

    @property
    def combined(self) -> int:
        """m0 * S, the modulus the adversary's view fixes z_l and s to."""
        return self.m0 * self.modulus

    @property
    def floor(self) -> int:
        """The Asmuth-Bloom candidate floor: every count is floor or floor + 1."""
        return self.bound // self.combined

    @property
    def ratio(self) -> Fraction:
        """bound / (m0 * S); for a worst-case level its limit in m0 is k."""
        return Fraction(self.bound, self.combined)

    @property
    def worst_case(self) -> bool:
        """The members inside N_l are exactly t_l - 1."""
        return self.members == self.threshold - 1

    @property
    def minority(self) -> range:
        """The u of the shorter side of the q / q + 1 split."""
        return range(self.rho) if 2 * self.rho <= self.m0 else range(self.rho, self.m0)

    def count(self, r: int) -> int:
        return self.q + (((r - self.base) * self.inv) % self.m0 < self.rho)

    def residues(self, us: range) -> list[int]:
        """The secrets base + S*u (mod m0) for u in ``us``."""
        m0, base, step = self.m0, self.base, self.step
        return [(base + step * u) % m0 for u in us]

    def by_residue(self, by_u: list) -> list:
        """Reindex a table over u = 0..m0-1 by the secret base + S*u (mod m0)."""
        m0, inv = self.m0, self.inv
        start = (-self.base * inv) % m0
        return [by_u[x % m0] for x in range(start, start + inv * m0, inv)]


@dataclass(frozen=True)
class PosteriorReport:
    """Per-secret candidate counts and the entropies they induce.

    per_secret_counts maps each secret in range(m0) to its count; from
    enumerate_posterior it is a lazy read-only view that computes a count
    when it is looked up, so no per-secret table is held. histogram is the
    summary the entropies and groups() are computed from. levels holds the
    level profiles the counts were read from, one per level.

    conditional_entropy is computed from the counts with equal weight per
    consistent tuple; loss = secret_entropy - conditional_entropy >= 0.
    epsilon_tolerance carries the acceptance threshold the caller compares
    loss against; it does not affect the computation.
    """

    per_secret_counts: Mapping[int, int]
    total: int
    secret_entropy: float
    conditional_entropy: float
    loss: float
    epsilon_tolerance: float
    levels: tuple[LevelProfile, ...]
    # candidate-count value -> number of secrets attaining it; tallied from
    # per_secret_counts when not given
    histogram: Optional[Mapping[int, int]] = field(
        default=None, repr=False, compare=False
    )

    def __post_init__(self):
        if self.histogram is None:
            object.__setattr__(
                self, "histogram", dict(Counter(self.per_secret_counts.values()))
            )

    def groups(self) -> dict[int, int]:
        """Candidate-count value -> number of secrets attaining it."""
        return dict(self.histogram)


@dataclass(frozen=True)
class EtaReport:
    """Flat-scheme dichotomy: every secret admits eta or eta + 1 candidates."""

    eta: int
    d1: int
    d2: int

    @property
    def total_candidates(self) -> int:
        return self.eta * (self.d1 + self.d2) + self.d2


@dataclass(frozen=True)
class CountGrouping:
    """Grouping of per-secret counts: count value Y -> number of secrets gamma,
    each Y certified to factor as prod over levels of (floor + 0 or 1)."""

    groups: Mapping[int, int]

    @property
    def gamma_total(self) -> int:
        return sum(self.groups.values())

    def weighted_total(self) -> int:
        return sum(y * g for y, g in self.groups.items())


class _CountView(Mapping):
    """Read-only secret -> candidate count over range(m0), equal to the dict
    of all m0 counts without holding one. Each value comes from ``count``
    when it is looked up; keys other than the ints in [0, m0) raise
    KeyError."""

    def __init__(self, m0: int, count: Callable[[int], int]):
        self._m0 = m0
        self._count = count

    def __getitem__(self, r):
        if not isinstance(r, int) or not 0 <= r < self._m0:
            raise KeyError(r)
        return self._count(r)

    def __len__(self) -> int:
        return self._m0

    def __iter__(self):
        return iter(range(self._m0))


def adversary_view(deal: DealResult, members: Iterable[int]) -> AdversaryView:
    """Collect the view of ``members`` out of a deal result."""
    got = frozenset(members)
    values = {s.participant: s.value for s in deal.shares if s.participant in got}
    if got - values.keys():
        raise ValueError(f"no shares for participants {sorted(got - values.keys())}")
    return AdversaryView(members=got, shares=values, public=deal.public)


def _check_unauthorized(view: AdversaryView, scheme: str) -> None:
    if scheme not in SCHEMES:
        raise ValueError(f"scheme must be one of {SCHEMES}, got {scheme!r}")
    params = view.public.params
    if scheme == "dhss":
        level = dhss_authorized_level(view.members, params)
        if level is not None:
            raise NotUnauthorized(
                f"set {sorted(view.members)} is authorized at level {level}"
            )
    else:
        if chss_is_authorized(view.members, params):
            raise NotUnauthorized(f"set {sorted(view.members)} is authorized")


def _level_profiles(view: AdversaryView) -> tuple[LevelProfile, ...]:
    """The one pass from a view to per-level facts: per level l, the member
    shares inside the first N_l are lifted and solved for z_l = base
    (mod S), and the profile is read off that constraint and the dealer's
    range bound."""
    public = view.public
    seq, hier = public.params.sequence, public.params.hierarchy
    m0 = seq.m0
    shares = [
        Share(participant=i, level=hier.level_of(i), modulus=seq.modulus_of(i),
              value=view.shares[i])
        for i in sorted(view.members)
    ]
    profiles = []
    for level, t in enumerate(hier.thresholds, start=1):
        congruences = _level_congruences(shares, level, public)
        base, modulus = 0, 1
        if congruences:
            sol = crt_solve(congruences)
            base, modulus = sol.value, sol.combined_modulus
        bound = seq.prefix_product(t)
        reach = -((base - bound) // modulus) if bound > base else 0
        q, rho = divmod(reach, m0)
        step = modulus % m0
        profiles.append(LevelProfile(
            threshold=t, bound=bound, modulus=modulus, members=len(congruences),
            m0=m0, base=base % m0, step=step, inv=mod_inverse(step, m0),
            q=q, rho=rho,
        ))
    return tuple(profiles)


def _disjunctive_counts(
    profiles: tuple[LevelProfile, ...], m0: int
) -> tuple[_CountView, Counter]:
    """Per-secret products of the level counts, and their histogram.

    At each level the shorter side of the q / q + 1 split is a progression
    of min(rho, m0 - rho) secrets; every secret outside the union of those
    takes the product of the per-level majority values. Only that union is
    walked, so the cost follows the minority sets, not m0.
    """
    majority = 1
    exceptions: set[int] = set()
    for p in profiles:
        majority *= p.q + (2 * p.rho > m0)
        exceptions.update(p.residues(p.minority))

    def count(r: int) -> int:
        return prod(p.count(r) for p in profiles)

    histogram = Counter(map(count, exceptions))
    if len(exceptions) < m0:
        histogram[majority] += m0 - len(exceptions)
    return _CountView(m0, count), histogram


def _conjunctive_counts(
    profiles: tuple[LevelProfile, ...], m0: int
) -> tuple[_CountView, Counter]:
    """Cyclic convolution of the level tables, and its histogram.

    Folding in a level with secret base + S*v gives
    q * sum(folded) + sum_{u < rho} folded[S*(v - u) mod m0]: a cyclic window
    of length rho over g(w) = folded[S*w mod m0], read off prefix sums.
    """
    first, *rest = profiles
    folded = first.by_residue([first.q + 1] * first.rho + [first.q] * (m0 - first.rho))
    for p in rest:
        g = [folded[x % m0] for x in range(0, p.step * m0, p.step)]
        prefix = list(itertools.accumulate(itertools.chain(g, g), initial=0))
        shift = p.q * prefix[m0]
        lo = m0 + 1 - p.rho
        window = map(sub, prefix[m0 + 1:], prefix[lo:lo + m0])
        folded = p.by_residue([w + shift for w in window])
    return _CountView(m0, folded.__getitem__), Counter(folded)


def _entropy_report(
    counts: Mapping[int, int],
    histogram: Mapping[int, int],
    levels: tuple[LevelProfile, ...],
    epsilon_tolerance: float,
) -> PosteriorReport:
    m0 = levels[0].m0
    total = sum(c * g for c, g in histogram.items())
    if total == 0:
        raise ValueError("view admits no consistent tuple; inputs corrupted")
    if len(histogram) == 1:
        conditional = log2(m0)
        loss = 0.0
    else:
        # the exact sum of the per-secret float terms c*log2(c), rounded
        # once: the correctly rounded float sum over all secrets
        weighted = sum(g * Fraction(c * log2(c)) for c, g in histogram.items() if c)
        conditional = log2(total) - float(weighted) / total
        # No distribution over m0 secrets has more than log2(m0) bits of
        # entropy (Gibbs' inequality), so loss >= 0 exactly; near-uniform
        # counts can still round the float sum a few ulps past that bound.
        conditional = min(conditional, log2(m0))
        loss = log2(m0) - conditional
    return PosteriorReport(
        per_secret_counts=counts,
        total=total,
        secret_entropy=log2(m0),
        conditional_entropy=conditional,
        loss=loss,
        epsilon_tolerance=epsilon_tolerance,
        levels=levels,
        histogram=histogram,
    )


def enumerate_posterior(
    view: AdversaryView,
    scheme: str,
    epsilon_tolerance: float = DEFAULT_EPSILON,
    work_budget: int = DEFAULT_WORK_BUDGET,
) -> PosteriorReport:
    """Exact per-secret candidate counts for an unauthorized view.

    Disjunctive: the count for secret s is the product over levels of the
    number of in-range solutions of the level's congruence system with
    z = s (mod m0). Conjunctive: the per-level tables are cyclically
    convolved, because the levels are independent given the additive
    decomposition of the secret. Both read each level's counts off its
    profile, and the report keeps those profiles as ``levels``. The
    returned per_secret_counts is a lazy read-only view: a disjunctive count
    is computed when it is looked up, and the disjunctive histogram is
    tallied from the minority secrets of each level alone; the conjunctive
    fold costs O(m0) per level.

    Raises IntractableInstance when the estimated work exceeds
    ``work_budget``: the size of the walk, sum over levels of
    min(rho, m0 - rho) secrets, for dhss; m * m0 table entries for chss.
    """
    _check_unauthorized(view, scheme)
    m0 = view.public.params.sequence.m0
    profiles = _level_profiles(view)
    if scheme == "dhss":
        work = sum(min(p.rho, m0 - p.rho) for p in profiles)
        tally = _disjunctive_counts
    else:
        work, tally = m0 * len(profiles), _conjunctive_counts
    if work > work_budget:
        raise IntractableInstance(
            f"estimated work {work} exceeds budget {work_budget}"
        )
    counts, histogram = tally(profiles, m0)
    return _entropy_report(counts, histogram, profiles, epsilon_tolerance)


def count_grouping(report: PosteriorReport) -> CountGrouping:
    """Group per-secret counts and certify each distinct value against the
    product form prod_l(floor_l + a_l), a_l in {0, 1}, over the report's
    level floors.

    Raises DecompositionMismatch when some count fits no such product; that
    falsifies the grouping claim on this instance and is never swallowed.
    """
    floors = [p.floor for p in report.levels]
    feasible = {
        prod(f + a for f, a in zip(floors, bits))
        for bits in itertools.product((0, 1), repeat=len(floors))
    }
    groups = report.groups()
    for value in groups:
        if value not in feasible:
            raise DecompositionMismatch(
                f"count {value} matches no floor/floor+1 product over levels "
                f"(floors {floors})"
            )
    return CountGrouping(groups=groups)


def eta_single_layer(view: AdversaryView) -> EtaReport:
    """Flat-scheme candidate dichotomy for an undersized adversary set.

    eta = floor(prod(m_1..m_t) / (m0 * prod of adversary moduli)), the
    level profile's floor; counting per secret must land on eta or eta + 1,
    splitting the secret space into d1 + d2 = m0. The split is read off the
    same profile: m0 - rho secrets take q candidates and rho take q + 1.
    """
    hier = view.public.params.hierarchy
    if hier.m != 1:
        raise ValueError("eta analysis applies to single-level parameter sets")
    (t,) = hier.thresholds
    if len(view.members) >= t:
        raise NotUnauthorized(
            f"{len(view.members)} members meet the threshold {t}"
        )
    (profile,) = _level_profiles(view)
    eta, m0 = profile.floor, profile.m0
    split = {profile.q: m0 - profile.rho, profile.q + 1: profile.rho}
    for count, secrets in split.items():
        if secrets and count not in (eta, eta + 1):
            raise RuntimeError(
                f"count {count} for {secrets} secrets outside {{eta, eta+1}} = "
                f"{{{eta}, {eta + 1}}}"
            )
    return EtaReport(eta=eta, d1=split.get(eta, 0), d2=split.get(eta + 1, 0))


def limit_ratio(level: int, view: AdversaryView) -> Fraction:
    """The level profile's ratio prod(m_1..m_{t_l}) / (m0 * prod of adversary
    moduli in the first N_l), for a worst-case set holding exactly t_l - 1
    of them.

    The compactness parameter k is the limit of this ratio as m0 grows; how
    far the ratio sits from k measures how far the instance is from the
    asymptotic regime.
    """
    hier = view.public.params.hierarchy
    if not 1 <= level <= hier.m:
        raise ValueError(f"level {level} not in [1, {hier.m}]")
    profile = _level_profiles(view)[level - 1]
    if not profile.worst_case:
        raise WrongCardinality(
            f"|B intersect first {hier.cumulative[level - 1]}| = "
            f"{profile.members}, worst case needs {profile.threshold - 1}"
        )
    return profile.ratio


@dataclass(frozen=True)
class RateReport:
    """Information rate log2|secret space| / log2|largest share space|."""

    rho: float
    secret_bits: float
    max_share_bits: float
    compact_lower_bound: Optional[float]


def information_rate(params: SchemeParams) -> RateReport:
    """Rate from the actual largest modulus, in float64 (relative error is
    far below any tolerance used here; exact threshold comparisons are
    available via :func:`rate_at_least`).

    For k = 1 sequences the analytic floor log2(m0)/log2(m0 + floor(m0^theta))
    is reported alongside; the actual rate can only beat it because the
    largest modulus stays below that interval end.
    """
    seq = params.sequence
    secret_bits = log2(seq.m0)
    max_share_bits = log2(seq.moduli[-1])
    lower = None
    if seq.k == 1:
        lower = secret_bits / log2(seq.m0 + compact_width(seq.m0, seq.theta))
    return RateReport(
        rho=secret_bits / max_share_bits,
        secret_bits=secret_bits,
        max_share_bits=max_share_bits,
        compact_lower_bound=lower,
    )


# Relative margin around a float rate comparison. log2 of an int is within a
# few ulps (2^-52 relative) of the true value and each further float step adds
# one rounding; 2^-40 leaves a factor of over 500 on that error.
_RATE_MARGIN = 2.0**-40


def _log2_bounds(x: int, bits: int) -> tuple[int, int]:
    """Integers lo <= 2^bits * log2(x) <= hi for x >= 1, with hi - lo small.

    The mantissa v = x / 2^e in [1, 2) is rounded down and up to ``bits``
    fractional bits; each squaring step emits one bit of log2(v) (v^2 >= 2
    gives a 1, then v^2 / 2) and rounds the same way, so the down chain
    never exceeds the true value and the up chain never falls below it.
    """
    e = x.bit_length() - 1
    two = 2 << bits

    def frac(y: int, up: bool) -> int:
        out = 0
        for _ in range(bits):
            y = -(-y * y >> bits) if up else y * y >> bits
            out <<= 1
            if y >= two:
                out |= 1
                y = (y + up) >> 1
        return out

    lo = frac((x << bits) >> e, False)
    hi = frac(-(-x << bits >> e), True) + 1
    return (e << bits) + lo, (e << bits) + hi


def _log_ratio_at_least(small: int, large: int, threshold: Fraction) -> bool:
    """Exactly whether log(small)/log(large) >= threshold, for integers
    large >= small >= 2. With threshold p/q this is q*log2(small) >=
    p*log2(large). A float comparison decides it unless the two sides lie
    within the rounding margin. Then equality, small^q == large^p, holds
    exactly when small = b^p and large = b^q for one integer b (p and q are
    coprime), which needs no power larger than the inputs; otherwise
    fixed-point logs at doubling precision separate the sides."""
    threshold = Fraction(threshold)
    if threshold <= 0:
        return True
    ratio, target = log2(small) / log2(large), float(threshold)
    if abs(ratio - target) > _RATE_MARGIN * target:
        return ratio > target
    p, q = threshold.numerator, threshold.denominator
    if p <= small.bit_length() and q <= large.bit_length():
        base = integer_root(small, p)
        if base ** p == small and base ** q == large:
            return True
    bits = 64
    while True:
        small_lo, small_hi = _log2_bounds(small, bits)
        large_lo, large_hi = _log2_bounds(large, bits)
        if q * small_lo >= p * large_hi:
            return True
        if q * small_hi < p * large_lo:
            return False
        bits *= 2


def rate_at_least(params: SchemeParams, threshold: Fraction) -> bool:
    """Exact comparison rho >= threshold: with threshold p/q,
    rho = log(m0)/log(m_n) >= p/q iff m0^q >= m_n^p."""
    seq = params.sequence
    return _log_ratio_at_least(seq.m0, seq.moduli[-1], threshold)


def bound_rate_at_least(m0: int, theta: Fraction, threshold: Fraction) -> bool:
    """Exact check of the analytic floor: log2(m0)/log2(m0 + floor(m0^theta))
    >= threshold, decided as in :func:`rate_at_least`. No sequence is
    generated."""
    worst = m0 + compact_width(m0, Fraction(theta))
    return _log_ratio_at_least(m0, worst, threshold)


def worst_case_unauthorized(params: SchemeParams) -> frozenset:
    """A set holding exactly t_l - 1 members inside every cumulative prefix.

    Built by taking t_l - t_{l-1} members from level l (t_0 = 1); raises
    ValueError when some level is too small to supply its quota.
    """
    hier = params.hierarchy
    chosen: list[int] = []
    previous = 1
    for level, t in enumerate(hier.thresholds, start=1):
        quota = t - previous
        pool = list(hier.members_of(level))
        if quota > len(pool):
            raise ValueError(
                f"level {level} has {len(pool)} members, needs {quota}"
            )
        chosen.extend(pool[:quota])
        previous = t
    return frozenset(chosen)
