"""Exhaustive-scan oracle for the audit's per-secret counts.

The scan checks the adversary's conditions literally over every value tuple,
with no congruence solving, so it is an independent reference for the
profile-based counting in ``crthss.analysis``. It is feasible only where the
product of the per-level ranges is small.

The audit reports only the histogram of the counts. ``profile_counts``
rebuilds the per-secret counts from the report's level profiles alone, with
the plain product (dhss) or a naive cyclic convolution (chss), so the
profiles can be compared with the scan secret by secret, and the histogram
checked against them at sizes the scan cannot reach.
"""

import itertools
from math import prod

from crthss.analysis import (
    AdversaryView,
    LevelProfile,
    PosteriorReport,
    _check_unauthorized,
)
from crthss.dhss import _level_lifts
from crthss.errors import IntractableInstance

DEFAULT_SCAN_BUDGET = 2_000_000


def view_congruences(view: AdversaryView) -> list:
    """Per level l, the system z_l = lifted share (mod m_i) over the
    adversary members inside the first N_l, as (lifts, moduli)."""
    return [
        _level_lifts(view.shares, level, view.public)
        for level in range(1, view.public.params.hierarchy.m + 1)
    ]


def level_count(profile: LevelProfile, r: int) -> int:
    """Candidates that level leaves secret r: q + [u(r) < rho], with
    u(r) = (r - base) * S^-1 (mod m0)."""
    u = (r - profile.base) * profile.inv % profile.m0
    return profile.q + (u < profile.rho)


def profile_counts(report: PosteriorReport, scheme: str) -> dict[int, int]:
    """Per-secret counts from ``report.levels`` alone: for dhss the product
    over levels of each level's count, for chss the O(m * m0^2) cyclic
    convolution of the per-level count vectors."""
    m0 = report.levels[0].m0
    tables = [[level_count(p, r) for r in range(m0)] for p in report.levels]
    if scheme == "dhss":
        return dict(enumerate(map(prod, zip(*tables))))
    folded, *rest = tables
    for table in rest:
        out = [0] * m0
        for a, ca in enumerate(folded):
            if ca:
                # shifted[s] = table[(s - a) mod m0]
                shifted = table[m0 - a:] + table[:m0 - a]
                out = [x + ca * y for x, y in zip(out, shifted)]
        folded = out
    return dict(enumerate(folded))


def scan_posterior_counts(
    view: AdversaryView, tuple_budget: int = DEFAULT_SCAN_BUDGET
) -> dict[int, int]:
    """Oracle: per-secret counts by scanning every value tuple, for the
    scheme the view's parameters name (chss conjunctive, dhss and ab
    disjunctive).

    Walks the full cartesian product of [0, prod(m_1..m_{t_l})) per level and
    checks the conditions by direct modular arithmetic; no congruence solving
    is involved, so this is an independent check of the fast path. Use only
    on instances where the product of the ranges is small.
    """
    params = view.public.params
    conjunctive = params.scheme == "chss"
    _check_unauthorized(view, conjunctive)
    seq, hier = params.sequence, params.hierarchy
    m0 = seq.m0
    bounds = [seq.prefix_product(t) for t in hier.thresholds]
    if prod(bounds) > tuple_budget:
        raise IntractableInstance(
            f"{prod(bounds)} tuples exceed the scan budget {tuple_budget}"
        )
    constraints = view_congruences(view)
    counts = {s: 0 for s in range(m0)}
    for zs in itertools.product(*(range(b) for b in bounds)):
        ok = all(
            z % m == r
            for z, (lifts, moduli) in zip(zs, constraints)
            for r, m in zip(lifts, moduli)
        )
        if not ok:
            continue
        if conjunctive:
            counts[sum(zs) % m0] += 1
        elif len({z % m0 for z in zs}) == 1:
            counts[zs[0] % m0] += 1
    return counts
