"""CRT-based hierarchical secret sharing over the integers.

Two schemes share one parameter machinery: disjunctive (some level's
cumulative threshold suffices) and conjunctive (every level's threshold is
required), both built from coprime modulus ladders, per-level lifts of the
secret, and public one-way-function masks. The analysis module measures, by
exact counting, how much an unauthorized set learns.
"""

from . import errors
from .analysis import (
    AdversaryView,
    EtaReport,
    CountGrouping,
    PosteriorReport,
    RateReport,
    adversary_view,
    bound_rate_at_least,
    enumerate_posterior,
    eta_single_layer,
    information_rate,
    count_grouping,
    limit_ratio,
    rate_at_least,
    worst_case_unauthorized,
)
from .asmuth_bloom import ab_reconstruct
from .chss import chss_deal, chss_is_authorized, chss_reconstruct
from .crt import Congruence, CrtSolution, crt_solve, mod_inverse
from .dhss import (
    DealResult,
    PublicBundle,
    Share,
    dhss_authorized_level,
    dhss_deal,
    dhss_reconstruct,
)
from .oneway import OwfFamily, eval_owf
from .params import (
    CompactSequence,
    Hierarchy,
    SchemeParams,
    ValidationReport,
    compact_width,
    generate_compact_sequence,
    integer_root,
    is_prime,
    validate_compact,
    validate_dealable,
    validate_hierarchy,
    validate_params,
)

__version__ = "0.1.0"

__all__ = [name for name in dir() if not name.startswith("_")]
