"""Exhaustive-scan oracle for the audit's per-secret counts.

The scan checks the adversary's conditions literally over every value tuple,
with no congruence solving, so it is an independent reference for the
profile-based counting in ``crthss.analysis``. It is feasible only where the
product of the per-level ranges is small.
"""

import itertools
from math import prod

from crthss.analysis import AdversaryView, _check_unauthorized
from crthss.dhss import _level_congruences
from crthss.errors import IntractableInstance

DEFAULT_SCAN_BUDGET = 2_000_000


def view_congruences(view: AdversaryView) -> list:
    """Per level l, z_l = lifted share (mod m_i) for every adversary member
    inside the first N_l."""
    return [
        _level_congruences(view.shares, level, view.public)
        for level in range(1, view.public.params.hierarchy.m + 1)
    ]


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
    constraints = view_congruences(view)
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
