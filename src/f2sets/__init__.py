"""Computational toolkit for subsets of the elementary abelian 2-group.

Exact set algebra over F2^r, sumsets and representation counts, the
unique-representation graph, structural decompositions of saturating and
round sets, and isomorph-free exhaustive search, all behind a scriptable CLI.
"""

from .core import (
    MAX_RANK,
    ElementSet,
    InternalError,
    QuotientView,
    RankMismatchError,
    Subgroup,
    add,
    group_order,
    is_subgroup,
    period,
    quotient_project,
    span,
    subgroup_sum,
)
from .sumsets import (
    PredicateReport,
    RepCountTable,
    alldisjoint_check,
    is_maximal_sum_free,
    is_minimal_saturating,
    is_round,
    is_saturating,
    is_sum_free,
    kneser_check,
    mult_sumset,
    rep_counts,
    s2_bound_check,
    sfnotround_check,
    sumset,
    two_a,
    unique_sums,
)

__version__ = "0.1.0"

__all__ = [
    "MAX_RANK",
    "ElementSet",
    "InternalError",
    "QuotientView",
    "RankMismatchError",
    "Subgroup",
    "add",
    "group_order",
    "is_subgroup",
    "period",
    "quotient_project",
    "span",
    "subgroup_sum",
    "PredicateReport",
    "RepCountTable",
    "alldisjoint_check",
    "is_maximal_sum_free",
    "is_minimal_saturating",
    "is_round",
    "is_saturating",
    "is_sum_free",
    "kneser_check",
    "mult_sumset",
    "rep_counts",
    "s2_bound_check",
    "sfnotround_check",
    "sumset",
    "two_a",
    "unique_sums",
    "__version__",
]
