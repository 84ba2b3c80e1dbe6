"""Brute-force security audit: candidate counting, entropy loss, rate bounds.

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

Candidate counts are computed two ways: a fast path that solves one congruence
system per (secret, level) and counts range extensions analytically, and a
full scan over all value tuples that checks the conditions literally. The scan
is the oracle; it must agree with the fast path exactly wherever it is
feasible.

The posterior places equal weight on every consistent tuple, matching the
counting argument the entropy-loss bound is built on (for an empty adversary
set this differs from the generative view: per-secret tuple counts still
wobble between floor(prod/m0) and floor(prod/m0)+1, so the reported loss is
small but nonzero at small m0).
"""

import itertools
from dataclasses import dataclass
from fractions import Fraction
from math import fsum, log2, prod
from typing import Iterable, Mapping, Optional

from .chss import chss_is_authorized
from .crt import Congruence, crt_solve, mod_inverse
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
from .params import SchemeParams, compact_width

SCHEMES = ("dhss", "chss")
DEFAULT_WORK_BUDGET = 10_000_000
DEFAULT_SCAN_BUDGET = 2_000_000
DEFAULT_EPSILON = 0.05


@dataclass(frozen=True)
class AdversaryView:
    """What an unauthorized set holds: its members, their share values, and
    the public bundle (parameters plus published offsets)."""

    members: frozenset
    shares: Mapping[int, int]
    public: PublicBundle


@dataclass(frozen=True)
class PosteriorReport:
    """Per-secret candidate counts and the entropies they induce.

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

    def groups(self) -> dict[int, int]:
        """Candidate-count value -> number of secrets attaining it."""
        out: dict[int, int] = {}
        for count in self.per_secret_counts.values():
            out[count] = out.get(count, 0) + 1
        return out


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


def _view_congruences(view: AdversaryView) -> list[list[Congruence]]:
    """Per level l, z_l = lifted share (mod m_i) for every adversary member
    inside the first N_l participants."""
    params = view.public.params
    seq, hier = params.sequence, params.hierarchy
    shares = [
        Share(participant=i, level=hier.level_of(i), modulus=seq.modulus_of(i),
              value=view.shares[i])
        for i in sorted(view.members)
    ]
    return [
        _level_congruences(shares, level, view.public)
        for level in range(1, hier.m + 1)
    ]


@dataclass(frozen=True)
class _LevelSystem:
    """Congruence data for one level: the adversary's combined constraint
    (base mod share_modulus), the range bound, and m0 plumbing."""

    base: int           # CRT combination of the member congruences
    share_modulus: int  # product of the member moduli (1 if none)
    bound: int          # prod(m_1..m_{t_l})
    inv_mod_m0: int     # share_modulus^-1 mod m0

    def count_with_residue(self, r: int, m0: int) -> int:
        """How many z < bound satisfy the member congruences and z = r (mod m0)."""
        u = ((r - self.base) * self.inv_mod_m0) % m0
        z = self.base + self.share_modulus * u
        if z >= self.bound:
            return 0
        return (self.bound - 1 - z) // (self.share_modulus * m0) + 1


def _level_systems(view: AdversaryView) -> list[_LevelSystem]:
    params = view.public.params
    seq, hier = params.sequence, params.hierarchy
    out = []
    for t, congruences in zip(hier.thresholds, _view_congruences(view)):
        if congruences:
            sol = crt_solve(congruences)
            base, share_mod = sol.value, sol.combined_modulus
        else:
            base, share_mod = 0, 1
        out.append(
            _LevelSystem(
                base=base,
                share_modulus=share_mod,
                bound=seq.prefix_product(t),
                inv_mod_m0=mod_inverse(share_mod % seq.m0, seq.m0),
            )
        )
    return out


def _report_from_counts(
    counts: dict[int, int], m0: int, epsilon_tolerance: float
) -> PosteriorReport:
    total = sum(counts.values())
    if total == 0:
        raise ValueError("view admits no consistent tuple; inputs corrupted")
    values = [c for c in counts.values() if c > 0]
    if len(values) == m0 and len(set(values)) == 1:
        conditional = log2(m0)
        loss = 0.0
    else:
        conditional = log2(total) - fsum(c * log2(c) for c in values) / total
        # No distribution over m0 secrets has more than log2(m0) bits of
        # entropy (Gibbs' inequality), so loss >= 0 exactly; near-uniform
        # counts can still round the float sum a few ulps past that bound.
        conditional = min(conditional, log2(m0))
        loss = log2(m0) - conditional
    return PosteriorReport(
        per_secret_counts=dict(counts),
        total=total,
        secret_entropy=log2(m0),
        conditional_entropy=conditional,
        loss=loss,
        epsilon_tolerance=epsilon_tolerance,
    )


def enumerate_posterior(
    view: AdversaryView,
    scheme: str,
    epsilon_tolerance: float = DEFAULT_EPSILON,
    work_budget: int = DEFAULT_WORK_BUDGET,
) -> PosteriorReport:
    """Exact per-secret candidate counts for an unauthorized view.

    Disjunctive: the count for secret s is the product over levels of the
    number of in-range extensions of the combined congruence system with
    z = s (mod m0) prepended. Conjunctive: per-level counts are tabulated for
    every residue mod m0 and cyclically convolved, because the levels are
    independent given the additive decomposition of the secret.

    Raises IntractableInstance when the estimated work (congruence solves,
    plus the convolution for the conjunctive case) exceeds ``work_budget``.
    """
    _check_unauthorized(view, scheme)
    params = view.public.params
    m0 = params.sequence.m0
    m = params.hierarchy.m
    work = m0 * m + (0 if scheme == "dhss" else (m - 1) * m0 * m0)
    if work > work_budget:
        raise IntractableInstance(
            f"estimated work {work} exceeds budget {work_budget}"
        )
    systems = _level_systems(view)
    counts: dict[int, int] = {}
    if scheme == "dhss":
        for s in range(m0):
            c = 1
            for sys_l in systems:
                c *= sys_l.count_with_residue(s, m0)
                if c == 0:
                    break
            counts[s] = c
    else:
        tables = [
            [sys_l.count_with_residue(r, m0) for r in range(m0)]
            for sys_l in systems
        ]
        folded = tables[0]
        for table in tables[1:]:
            nxt = [0] * m0
            for a, ca in enumerate(folded):
                if ca == 0:
                    continue
                for b, cb in enumerate(table):
                    if cb:
                        nxt[(a + b) % m0] += ca * cb
            folded = nxt
        counts = {s: folded[s] for s in range(m0)}
    return _report_from_counts(counts, m0, epsilon_tolerance)


def scan_posterior_counts(
    view: AdversaryView,
    scheme: str,
    tuple_budget: int = DEFAULT_SCAN_BUDGET,
) -> dict[int, int]:
    """Oracle: per-secret counts by scanning every value tuple.

    Walks the full cartesian product of [0, prod(m_1..m_{t_l})) per level and
    checks the conditions by direct modular arithmetic; no congruence solving
    is involved, so this is an independent check of the fast path. Use only
    on instances where the product of the ranges is small.
    """
    _check_unauthorized(view, scheme)
    params = view.public.params
    seq, hier = params.sequence, params.hierarchy
    m0 = seq.m0
    bounds = [seq.prefix_product(t) for t in hier.thresholds]
    if prod(bounds) > tuple_budget:
        raise IntractableInstance(
            f"{prod(bounds)} tuples exceed the scan budget {tuple_budget}"
        )
    constraints = _view_congruences(view)
    counts = {s: 0 for s in range(m0)}
    for zs in itertools.product(*(range(b) for b in bounds)):
        ok = all(
            z % c.modulus == c.residue
            for z, level_constraints in zip(zs, constraints)
            for c in level_constraints
        )
        if not ok:
            continue
        if scheme == "dhss":
            residues = {z % m0 for z in zs}
            if len(residues) == 1:
                counts[zs[0] % m0] += 1
        else:
            counts[sum(zs) % m0] += 1
    return counts


def count_grouping(
    report: PosteriorReport, view: AdversaryView
) -> CountGrouping:
    """Group per-secret counts and certify each distinct value against the
    product form prod_l(floor(bound_l / combined_l) + a_l), a_l in {0, 1}.

    Raises DecompositionMismatch when some count fits no such product; that
    falsifies the grouping claim on this instance and is never swallowed.
    """
    params = view.public.params
    m0 = params.sequence.m0
    systems = _level_systems(view)
    floors = [s.bound // (s.share_modulus * m0) for s in systems]
    feasible = {
        prod(f + a for f, a in zip(floors, bits))
        for bits in itertools.product((0, 1), repeat=len(floors))
    }
    groups: dict[int, int] = {}
    for count in report.per_secret_counts.values():
        groups[count] = groups.get(count, 0) + 1
    for value in groups:
        if value not in feasible:
            raise DecompositionMismatch(
                f"count {value} matches no floor/floor+1 product over levels "
                f"(floors {floors})"
            )
    return CountGrouping(groups=groups)


def eta_single_layer(view: AdversaryView, t: int) -> EtaReport:
    """Flat-scheme candidate dichotomy for an undersized adversary set.

    eta = floor(prod(m_1..m_t) / (m0 * prod of adversary moduli)); counting
    per secret must land on eta or eta + 1, splitting the secret space into
    d1 + d2 = m0.
    """
    params = view.public.params
    if params.hierarchy.m != 1:
        raise ValueError("eta analysis applies to single-level parameter sets")
    if len(view.members) >= t:
        raise NotUnauthorized(
            f"{len(view.members)} members meet the threshold {t}"
        )
    seq = params.sequence
    m0 = seq.m0
    (system,) = _level_systems(view)
    bound = seq.prefix_product(t)
    system = _LevelSystem(
        base=system.base,
        share_modulus=system.share_modulus,
        bound=bound,
        inv_mod_m0=system.inv_mod_m0,
    )
    eta = bound // (m0 * system.share_modulus)
    d1 = d2 = 0
    for s in range(m0):
        c = system.count_with_residue(s, m0)
        if c == eta:
            d1 += 1
        elif c == eta + 1:
            d2 += 1
        else:
            raise RuntimeError(
                f"count {c} for secret {s} outside {{eta, eta+1}} = "
                f"{{{eta}, {eta + 1}}}"
            )
    return EtaReport(eta=eta, d1=d1, d2=d2)


def limit_ratio(level: int, view: AdversaryView) -> Fraction:
    """Exact ratio prod(m_1..m_{t_l}) / (m0 * prod of adversary moduli in the
    first N_l), for a worst-case set holding exactly t_l - 1 of them.

    The compactness parameter k is the limit of this ratio as m0 grows; how
    far the ratio sits from k measures how far the instance is from the
    asymptotic regime.
    """
    params = view.public.params
    seq, hier = params.sequence, params.hierarchy
    if not 1 <= level <= hier.m:
        raise ValueError(f"level {level} not in [1, {hier.m}]")
    upper = hier.cumulative[level - 1]
    inside = [i for i in sorted(view.members) if i <= upper]
    expected = hier.thresholds[level - 1] - 1
    if len(inside) != expected:
        raise WrongCardinality(
            f"|B intersect first {upper}| = {len(inside)}, worst case needs "
            f"{expected}"
        )
    numerator = seq.prefix_product(hier.thresholds[level - 1])
    denominator = seq.m0 * prod(seq.modulus_of(i) for i in inside)
    return Fraction(numerator, denominator)


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


def rate_at_least(params: SchemeParams, threshold: Fraction) -> bool:
    """Exact comparison rho >= threshold via integer powers: with threshold
    p/q, rho = log(m0)/log(m_n) >= p/q iff m0^q >= m_n^p."""
    threshold = Fraction(threshold)
    if threshold <= 0:
        return True
    m0 = params.sequence.m0
    m_n = params.sequence.moduli[-1]
    return m0 ** threshold.denominator >= m_n ** threshold.numerator


def bound_rate_at_least(m0: int, theta: Fraction, threshold: Fraction) -> bool:
    """Exact check of the analytic floor: log2(m0)/log2(m0 + floor(m0^theta))
    >= threshold, again via integer powers. No sequence is generated."""
    threshold = Fraction(threshold)
    if threshold <= 0:
        return True
    worst = m0 + compact_width(m0, Fraction(theta))
    return m0 ** threshold.denominator >= worst ** threshold.numerator


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
