"""CRT-based hierarchical secret sharing over the integers.

Two schemes share one parameter machinery: disjunctive (some level's
cumulative threshold suffices) and conjunctive (every level's threshold is
required), both built from coprime modulus ladders, per-level lifts of the
secret, and public one-way-function masks; the flat Asmuth-Bloom scheme is
the one-level case. The parameters name their scheme, and one ``deal`` and
one ``reconstruct`` serve all three. The analysis module measures, by
exact counting, how much an unauthorized set learns.
"""

from . import asmuth_bloom, chss, errors
from .analysis import (
    AdversaryView,
    PosteriorReport,
    RateReport,
    adversary_view,
    enumerate_posterior,
    information_rate,
    count_grouping,
    worst_case_unauthorized,
)
from .crt import crt_solve, mod_inverse
from .dhss import DealResult, PublicBundle, Share, deal, reconstruct
from .oneway import eval_owf
from .params import (
    SCHEMES,
    CompactSequence,
    Hierarchy,
    SchemeParams,
    ValidationReport,
    compact_width,
    generate_compact_sequence,
    integer_root,
    is_prime,
    random_prime,
    validate_hierarchy,
    validate_params,
)

__version__ = "0.1.0"

__all__ = [name for name in dir() if not name.startswith("_")]
