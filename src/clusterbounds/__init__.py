"""Threshold lower bounds for weight-limited quantum LDPC codes.

The package enumerates undetectable error clusters of stabilizer and
CSS codes, classifies the irreducible ones, evaluates closed-form
counting ceilings and decodability conditions for erasures,
depolarizing noise, independent X/Z noise and faulty syndrome
measurement, and builds the combined space-time code for repeated
measurement rounds.
"""

__version__ = "0.1.0"

from .errors import (
    ClusterBoundsError,
    CommutativityError,
    ResourceCapError,
    ValidationError,
)
from .gf2 import (
    BitMatrix,
    BitVector,
    hstack,
)
from .codes import (
    CssCode,
    FtCode,
    PauliOp,
    StabilizerCode,
    css_distance_bruteforce,
    ft_extend,
    ft_extend_matrices,
    hypergraph_product,
    min_nontrivial_weight,
    new_css,
    new_stabilizer,
    toric_code,
)
from .clusters import (
    Cluster,
    ClusterCensus,
    brute_force_census,
    census_bound,
    cluster_count_bound,
    cluster_count_bound_css,
    cluster_count_bound_ft,
    cluster_count_bound_ft_total,
    decompose,
    enumerate_clusters,
    is_irreducible,
    is_irreducible_bruteforce,
)
from .bounds import (
    ChannelParams,
    CodeParams,
    bad_probability_bound_css,
    bad_probability_bound_depol,
    bad_probability_bound_ft,
    condition_holds,
    condition_lhs,
    effective_erasure,
    effective_erasure_css,
    erasure_tail_bound,
    exact_bad_probability_css,
    exact_bad_probability_depol,
    exact_bad_probability_ft,
    ft_total_bad_bound,
    solve_threshold,
    threshold_curve,
)
from .fitting import FitResult, fit_log_growth

__all__ = [
    "BitMatrix",
    "BitVector",
    "ChannelParams",
    "Cluster",
    "ClusterBoundsError",
    "ClusterCensus",
    "CodeParams",
    "CommutativityError",
    "CssCode",
    "FitResult",
    "FtCode",
    "PauliOp",
    "ResourceCapError",
    "StabilizerCode",
    "ValidationError",
    "bad_probability_bound_css",
    "bad_probability_bound_depol",
    "bad_probability_bound_ft",
    "brute_force_census",
    "census_bound",
    "cluster_count_bound",
    "cluster_count_bound_css",
    "cluster_count_bound_ft",
    "cluster_count_bound_ft_total",
    "condition_holds",
    "condition_lhs",
    "css_distance_bruteforce",
    "decompose",
    "effective_erasure",
    "effective_erasure_css",
    "enumerate_clusters",
    "erasure_tail_bound",
    "exact_bad_probability_css",
    "exact_bad_probability_depol",
    "exact_bad_probability_ft",
    "fit_log_growth",
    "ft_extend",
    "ft_extend_matrices",
    "ft_total_bad_bound",
    "hstack",
    "hypergraph_product",
    "is_irreducible",
    "is_irreducible_bruteforce",
    "min_nontrivial_weight",
    "new_css",
    "new_stabilizer",
    "solve_threshold",
    "threshold_curve",
    "toric_code",
]
