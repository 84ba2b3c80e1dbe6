"""Exact security audit: candidate counting, entropy loss, information rate.

Everything here quantifies what an unauthorized set learns. The adversary's
usable knowledge is, per level l:

  (i)   0 <= z_l < prod(m_1..m_{t_l})            (the dealer's range)
  (ii)  all z_l share one residue mod m0          (disjunctive), or the sum
        of the per-level residues is the secret   (conjunctive)
  (iii) z_l = lifted residue (mod m_i) for each adversary member i with a
        published offset at level l
  (iv)  z_m = raw share (mod m_i) for adversary members at the top level

The posterior conditions on (i)-(iv) alone, for the scheme the view's
parameters name (flat ab counts as the one-level disjunctive scheme), and
the loss is exact only under that model and a one-way h. The model leaves
out hash-preimage consistency of the published offsets for non-members,
which is within reach: in dhss a masked non-member i uses one c_i at every
level from its own up, so an adversary one share short at two levels that
both hold i can guess c_i and keep the guesses whose two lifts agree mod m0,
about m_i ~ m0 pairs of hash evaluations. For a worst-case dhss set that
bounds the secrecy at about log2 m0 bits of work: with levels 2, 3,
thresholds 2, 3, adversary {1, 3} and 10 seeded deals per m0, the search
left 1 to 4 candidate secrets at m0 = 101, 1009 and 10007 while the loss
read about 0.03, 0.0054 and 0.0020 bits. chss has no such link, its delta_l
being independent, and ab no masked participant.

Every per-level fact comes from one level profile per level, built in one
pass over the view: the range bound, the adversary modulus S, the members
inside N_l and the counts. Its floor bound // (m0 * S) and ratio
bound / (m0 * S) feed the grouping certificate (with one level, the eta /
eta + 1 dichotomy) and the CLI's eta and ratio tables, all read from the
report's ``levels``. The adversary's constraint leaves every secret q or q + 1
in-range candidates at that level, and the q + 1 secrets form an arithmetic
progression mod m0. The disjunctive count of a secret is the product of its
level counts; the conjunctive count is the cyclic convolution of the level
tables, each fold a sliding-window sum over the progression. The test
suite's full scan over all value tuples checks the conditions literally; it
is the oracle and must agree with the profiles exactly wherever it is
feasible.

The report is the histogram of the per-secret counts, never a table of m0
entries: entropy, loss and grouping need only how many secrets take each
count. A disjunctive count is fixed by the set of levels on whose minority
side, the shorter side of the level's q / q + 1 split, the secret lies, so
the histogram follows from how many secrets lie on the minority side of each
subset of levels. For one or two levels those numbers come from the set
sizes and one overlap, a difference of two floor sums, in O(log m0) at any
size. With more levels the smallest minority set, about m0^theta secrets in
the compact regime, is walked lazily against the other levels, which recurse
down to two. A one-level conjunctive count is the level's own count, so its
histogram is the level's split, read as for the disjunctive one. The
conjunctive histogram of two levels is read off a sweep of the windows the
smaller minority set opens on the other level; with more than two it tallies
the one folded table.

The posterior places equal weight on every consistent tuple, matching the
counting argument the entropy-loss bound is built on (for an empty adversary
set this differs from the generative view: per-secret tuple counts still
wobble between floor(prod/m0) and floor(prod/m0)+1, so the reported loss is
small but nonzero at small m0).
"""

import itertools
from collections import Counter
from dataclasses import dataclass
from fractions import Fraction
from math import log2, prod
from operator import sub
from typing import Iterable, Optional

from .crt import crt_solve, mod_inverse
from .dhss import DealResult, PublicBundle, Share, _level_lifts
from .errors import (
    DecompositionMismatch,
    IntractableInstance,
    InvalidParams,
    NotUnauthorized,
)
from .params import SchemeParams, compact_width, scheme_violations

DEFAULT_WORK_BUDGET = 10_000_000


@dataclass(frozen=True)
class AdversaryView:
    """What an unauthorized set holds: the deal's shares of its members and
    the public bundle (parameters plus published offsets)."""

    shares: tuple[Share, ...]
    public: PublicBundle

    @property
    def members(self) -> frozenset:
        return frozenset(s.participant for s in self.shares)


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

    @property
    def minority_size(self) -> int:
        """How many secrets lie on the minority side; ``len(minority)``
        overflows past 2^63."""
        return min(self.rho, self.m0 - self.rho)


@dataclass(frozen=True)
class PosteriorReport:
    """The histogram of the per-secret candidate counts and the entropies it
    induces.

    histogram maps each count value to the number of secrets in range(m0)
    that take it, and total is the number of consistent tuples. levels holds
    the level profiles the histogram was read from, one per level.

    conditional_entropy is computed from the counts with equal weight per
    consistent tuple; loss = secret_entropy - conditional_entropy >= 0.
    conjunctive is set for a chss view, whose counts are convolutions of the
    level counts, not products.
    """

    histogram: Counter
    total: int
    secret_entropy: float
    conditional_entropy: float
    loss: float
    levels: tuple[LevelProfile, ...]
    conjunctive: bool = False


def adversary_view(deal: DealResult, members: Iterable[int]) -> AdversaryView:
    """Collect the view of ``members`` out of a deal result."""
    got = frozenset(members)
    view = AdversaryView(tuple(s for s in deal.shares if s.participant in got),
                         deal.public)
    if got - view.members:
        raise ValueError(f"no shares for participants {sorted(got - view.members)}")
    return view


def _check_unauthorized(view: AdversaryView, conjunctive: bool) -> None:
    """NotUnauthorized when the view's members meet every level's threshold
    (conjunctive), or some level's, naming the smallest (disjunctive)."""
    hier = view.public.params.hierarchy
    failing = hier.failing_levels(view.members)
    if conjunctive and not failing:
        raise NotUnauthorized(f"set {sorted(view.members)} is authorized")
    if not conjunctive and len(failing) < hier.m:
        level = next(l for l in range(1, hier.m + 1) if l not in failing)
        raise NotUnauthorized(
            f"set {sorted(view.members)} is authorized at level {level}"
        )


def _level_profiles(view: AdversaryView) -> tuple[LevelProfile, ...]:
    """The one pass from a view to per-level facts: per level l, the member
    shares inside the first N_l are lifted and solved for z_l = base
    (mod S), and the profile is read off that constraint and the dealer's
    range bound."""
    public = view.public
    seq, hier = public.params.sequence, public.params.hierarchy
    m0 = seq.m0
    profiles = []
    for level, t in enumerate(hier.thresholds, start=1):
        lifts, moduli = _level_lifts(view.shares, level, public)
        base, modulus = crt_solve(lifts, moduli), prod(moduli)
        bound = seq.prefix_product(t)
        reach = -((base - bound) // modulus) if bound > base else 0
        q, rho = divmod(reach, m0)
        step = modulus % m0
        profiles.append(LevelProfile(
            threshold=t, bound=bound, modulus=modulus, members=len(moduli),
            m0=m0, base=base % m0, step=step, inv=mod_inverse(step, m0),
            q=q, rho=rho,
        ))
    return tuple(profiles)


def _floor_sum(n: int, m: int, a: int, b: int) -> int:
    """sum_{i < n} floor((a*i + b) / m) for n >= 0 and m >= 1, with a and b of
    any sign, in O(log m) steps (the Euclid-like reduction of the AtCoder
    Library's floor_sum). Each step takes the whole parts of a / m and b / m
    out of the sum, then swaps the roles of the index and the floor value."""
    total = 0
    while n:
        qa, a = divmod(a, m)
        qb, b = divmod(b, m)
        total += qa * (n * (n - 1) // 2) + qb * n
        top = a * n + b
        if top < m:
            break
        n, b = divmod(top, m)
        m, a = a, m
    return total


def _minority_overlap(a: LevelProfile, b: LevelProfile) -> int:
    """How many secrets lie on the minority side of both levels, in O(log m0).

    The secret base_a + S_a*u has b-index c + d*u (mod m0), with
    d = S_a * S_b^-1. Over the n = |minority_a| values of u, the indicator
    of [lo, hi) is floor((x - lo) / m0) - floor((x - hi) / m0) for
    x = c + d*i, so the count is a difference of two floor sums."""
    m0 = a.m0
    ua, ub = a.minority, b.minority
    d = a.step * b.inv % m0
    c = ((a.base - b.base) * b.inv + d * ua.start) % m0
    n = a.minority_size
    return _floor_sum(n, m0, d, c - ub.start) - _floor_sum(n, m0, d, c - ub.stop)


def _minority_patterns(
    profiles: tuple[LevelProfile, ...], levels: tuple[int, ...]
) -> Counter:
    """Number of secrets per minority pattern over ``levels``: bit l of a
    pattern is set when the secret lies on the minority side of level l.

    One or two levels follow from the set sizes and their overlap. With more,
    the smallest minority set is walked and each of its secrets tested
    against the other levels; the secrets outside it are the other levels'
    own pattern counts minus the walked ones."""
    m0 = profiles[0].m0
    sizes = {l: profiles[l].minority_size for l in levels}
    if len(levels) == 1:
        (l,) = levels
        return Counter({1 << l: sizes[l], 0: m0 - sizes[l]})
    if len(levels) == 2:
        i, j = levels
        both = _minority_overlap(profiles[i], profiles[j])
        return Counter({
            1 << i | 1 << j: both,
            1 << i: sizes[i] - both,
            1 << j: sizes[j] - both,
            0: m0 - sizes[i] - sizes[j] + both,
        })
    walked = min(levels, key=sizes.__getitem__)
    rest = tuple(l for l in levels if l != walked)
    p = profiles[walked]
    # the secret base + S*u has index c + d*u (mod m0) at level l, as in
    # _minority_overlap; u runs over a range, so memory stays O(levels)
    tests = [(1 << l, (p.base - q.base) * q.inv % m0, p.step * q.inv % m0,
              q.minority) for l in rest for q in (profiles[l],)]
    inside = Counter(
        sum(bit for bit, c, d, side in tests if (c + d * u) % m0 in side)
        for u in p.minority
    )
    patterns = _minority_patterns(profiles, rest)
    patterns.subtract(inside)
    for pattern, secrets in inside.items():
        patterns[pattern | 1 << walked] = secrets
    return patterns


def _disjunctive_histogram(
    profiles: tuple[LevelProfile, ...], m0: int
) -> Counter:
    """The histogram of the per-secret products of the level counts.

    At each level the q + 1 secrets, or the q ones when they are fewer, form
    the minority side of the split. A secret's count is fixed by the set of
    levels on whose minority side it lies, so the histogram is read off the
    number of secrets per such pattern: O(log m0) for one or two levels.
    """
    histogram = Counter()
    patterns = _minority_patterns(profiles, tuple(range(len(profiles))))
    for pattern, secrets in patterns.items():
        if secrets:
            # a level gives q + 1 on the u < rho side, which is its minority
            # side exactly when 2 * rho <= m0
            value = prod(
                p.q + ((pattern >> l & 1) == (2 * p.rho <= m0))
                for l, p in enumerate(profiles)
            )
            histogram[value] += secrets
    return histogram


def _two_level_sweep(a: LevelProfile, b: LevelProfile, m0: int) -> Counter:
    """The histogram of a 2-level convolution, in O(s log s) time and O(s)
    memory for s the smaller minority size, by sweeping windows over the
    circle Z_m0.

    Write count_a = Q + sigma*[u in side] for side = a.minority: sigma = +1
    and Q = q_a on the u < rho_a side, sigma = -1 and Q = q_a + 1 on the
    other. At b-index c the convolution is
    m0*Q*q_b + Q*rho_b + sigma*q_b*|side| + sigma*N(c), where N(c) counts
    the u in side with (c - d*u) mod m0 < rho_b, d = S_a * S_b^-1: the
    windows [p, p + rho_b) from the points p = d*u mod m0 that cover c. N is
    constant between the 2*|side| window ends, so the sweep sorts them and
    adds up the lengths of the runs between them."""
    if a.minority_size > b.minority_size:
        a, b = b, a
    side = a.minority
    sign, q = (-1, a.q + 1) if side.start else (1, a.q)
    d, length = a.step * b.inv % m0, b.rho
    points = [d * u % m0 for u in side]
    ends = Counter(points)
    ends.subtract((p + length) % m0 for p in points)
    ends[0] += 0  # the sweep runs from 0, with the windows covering m0 - 1
    covered = sum(p + length >= m0 for p in points)
    runs = Counter()
    positions = sorted(ends)
    for here, there in zip(positions, positions[1:] + [m0]):
        covered += ends[here]
        runs[covered] += there - here
    constant = m0 * q * b.q + q * b.rho + sign * b.q * a.minority_size
    return Counter({constant + sign * n: secrets for n, secrets in runs.items()})


def _table_fold(profiles: tuple[LevelProfile, ...], m0: int) -> Counter:
    """The histogram of the cyclic convolution of the level tables, folded
    one table of m0 entries at a time. The table is kept over the u of the
    level folded last (secret base + S*u); folding in base' + S'*v gives
    q' * sum + sum_{w < rho'} g(v - w), g(v) the table at the secret S'*v,
    so each level reindexes once and its cyclic windows accumulate g minus
    g lagged by rho'."""
    last, *rest = profiles
    table = [last.q + 1] * last.rho + [last.q] * (m0 - last.rho)
    for p in rest:
        step, start = p.step * last.inv % m0, -last.base * last.inv % m0
        g = [table[x % m0] for x in range(start, start + step * m0, step)]
        lag = itertools.chain(itertools.islice(g, m0 - p.rho, None), g)
        init = p.q * sum(g) + sum(itertools.islice(g, m0 - p.rho, None))
        sums = itertools.accumulate(map(sub, g, lag), initial=init)
        next(sums)  # the window ending at v = -1
        table, last = list(sums), p
    return Counter(table)


def _conjunctive_histogram(
    profiles: tuple[LevelProfile, ...], m0: int
) -> Counter:
    """The histogram of the cyclic convolution of the level tables. One
    level's table is its own convolution, whose histogram is the level's
    q / q + 1 split: no table is built. Two levels take the window sweep;
    three or more take the table fold, the one exact method here past two
    levels."""
    if len(profiles) == 1:
        return _disjunctive_histogram(profiles, m0)
    if len(profiles) == 2:
        return _two_level_sweep(*profiles, m0)
    return _table_fold(profiles, m0)


def _xlog2x(c: int) -> tuple[int, int]:
    """c*log2(c) as the float product, or, for a count so large that the
    product is past the float range, c times the float log2(c), exactly: a
    numerator and a power-of-two denominator."""
    try:
        return (c * log2(c)).as_integer_ratio()
    except OverflowError:  # inf, or c itself too large for a float
        numerator, denominator = log2(c).as_integer_ratio()
        return c * numerator, denominator


def _entropy_report(
    histogram: Counter, levels: tuple[LevelProfile, ...], conjunctive: bool = False
) -> PosteriorReport:
    """The entropies of the histogram's posterior. The conditional entropy
    is log2(total) minus the mean of c*log2(c) over the consistent tuples,
    where each secret's term is the float c*log2(c) (``_xlog2x``). Those
    terms are summed exactly and rounded once, so the mean is the correctly
    rounded float of the exact sum over all secrets: every term is a float,
    a numerator over a power of two, so the sum is one integer over the
    largest such power, and int / int rounds correctly."""
    m0 = levels[0].m0
    total = sum(c * g for c, g in histogram.items())
    if total == 0:
        raise ValueError("view admits no consistent tuple; inputs corrupted")
    if len(histogram) == 1:
        conditional = log2(m0)
        loss = 0.0
    else:
        terms = [(g, *_xlog2x(c)) for c, g in histogram.items() if c]
        scale = max(denominator for _, _, denominator in terms)
        weighted = sum(g * numerator * (scale // denominator)
                       for g, numerator, denominator in terms)
        try:
            mean = weighted / scale / total
        except OverflowError:  # weighted or total past the float range
            mean = weighted / (scale * total)
        conditional = log2(total) - mean
        # No distribution over m0 secrets has more than log2(m0) bits of
        # entropy (Gibbs' inequality), so loss >= 0 exactly; near-uniform
        # counts can still round the float sum a few ulps past that bound.
        conditional = min(conditional, log2(m0))
        loss = log2(m0) - conditional
    return PosteriorReport(
        histogram=histogram,
        total=total,
        secret_entropy=log2(m0),
        conditional_entropy=conditional,
        loss=loss,
        levels=levels,
        conjunctive=conjunctive,
    )


def enumerate_posterior(
    view: AdversaryView, work_budget: int = DEFAULT_WORK_BUDGET
) -> PosteriorReport:
    """The exact histogram of the per-secret candidate counts for an
    unauthorized view under the model (i)-(iv), for the scheme its
    parameters name: conjunctive for chss, disjunctive for dhss and for flat
    ab, the one-level case of both.

    Disjunctive: the count for secret s is the product over levels of the
    number of in-range solutions of the level's congruence system with
    z = s (mod m0). Conjunctive: the per-level tables are cyclically
    convolved, because the levels are independent given the additive
    decomposition of the secret. Both read each level's counts off its
    profile, and the report keeps those profiles as ``levels``; no
    per-secret table is returned. The disjunctive histogram costs
    O(log m0) for one or two levels and, for more, a walk of the smallest
    minority set in O(levels) memory. The conjunctive one is, for one level,
    the level's split, as for dhss; for two levels, a sweep of O(s log s)
    time and O(s) memory, s the smaller min(rho, m0 - rho); otherwise a
    table fold of O(m0) per level.

    Raises IntractableInstance when the estimated work exceeds
    ``work_budget``: m * m0 table entries for chss, and for dhss the sum over
    levels of min(rho, m0 - rho) secrets. That dhss estimate is the size of a
    walk over every level's minority secrets, above the histogram's real
    cost; it is kept so that the same audits pass or are refused, because at
    128 bits and above the float loss reads 0.0, and lifting the gate waits
    for a loss computed directly. The chss estimate is the fold's cost, above
    the cost of the one-level split and the 2-level sweep, and is kept for
    one and two levels on the same grounds.

    Raises InvalidParams, as a deal would, for a scheme that
    ``scheme_violations`` refuses.
    """
    params = view.public.params
    if refused := scheme_violations(params.scheme, params.hierarchy):
        raise InvalidParams("; ".join(refused))
    conjunctive = params.scheme == "chss"
    _check_unauthorized(view, conjunctive)
    m0 = params.sequence.m0
    profiles = _level_profiles(view)
    if conjunctive:
        work, tally = m0 * len(profiles), _conjunctive_histogram
    else:
        work = sum(p.minority_size for p in profiles)
        tally = _disjunctive_histogram
    if work > work_budget:
        raise IntractableInstance(
            f"estimated work {work} exceeds budget {work_budget}"
        )
    return _entropy_report(tally(profiles, m0), profiles, conjunctive)


def count_grouping(report: PosteriorReport) -> Optional[bool]:
    """Certify each count value in the report's histogram against the
    product form prod_l(floor_l + a_l), a_l in {0, 1}, over the report's
    level floors; the groups themselves are the histogram. Returns True, or
    None for a conjunctive report, whose counts are convolutions and are not
    checked.

    Raises DecompositionMismatch when some count fits no such product; that
    falsifies the grouping claim on this instance and is never swallowed.
    """
    if report.conjunctive:
        return None
    floors = [p.floor for p in report.levels]
    feasible = {
        prod(f + a for f, a in zip(floors, bits))
        for bits in itertools.product((0, 1), repeat=len(floors))
    }
    for value in report.histogram:
        if value not in feasible:
            raise DecompositionMismatch(
                f"count {value} matches no floor/floor+1 product over levels "
                f"(floors {floors})"
            )
    return True


@dataclass(frozen=True)
class RateReport:
    """Information rate log2|secret space| / log2|largest share space|."""

    rho: float
    compact_lower_bound: Optional[float]


def information_rate(params: SchemeParams) -> RateReport:
    """Rate from the actual largest modulus, in float64 (relative error is
    far below any tolerance used here).

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
        compact_lower_bound=lower,
    )


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
