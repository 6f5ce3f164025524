"""Exact desk-scale toolkit for weighted overlapping-chain extremal problems.

Computes the maximum weighted size sum over nested families of k-sets that
admit no full rainbow matching, by two independent exact solvers, and
replays the closed-form bounds, constructions, and randomized averaging
arguments that pin those optima down.
"""

__version__ = "0.1.0"

from .combinatorics import binom, colex_rank, ksets, shift_leq
from .family import (
    Chain,
    Family,
    compress_pair,
    construction_chain,
    cover_family,
    is_shifted,
    nestify,
    reduce_to_weighted,
    shift_closure,
    shift_ij,
)
from .matching import (
    BipartiteGraph,
    is_overlapping,
    matching_number,
    max_bipartite_matching,
    min_vertex_cover,
    rainbow_matching_number,
)
from .bounds import (
    bde_check,
    conj1_value,
    conj2_bound,
    d_vec,
    evaluate_bound,
    g,
    g_argmax,
    gb_emc_bound,
    hilton_bound,
    thm1_bound,
    thm2_value,
    thm3_value,
    thm4_value,
    u_eval,
    u_zero,
    weight_vector,
)
from .search import (
    ExtremalRecord,
    exact_f_shifted,
    oracle_f,
)
from .cyclic import (
    ArcFamily,
    CyclicOrder,
    arcs,
    verify_partition_bound,
    verify_random_matching_bound,
)
from .suites import SUITES, Suite, run_suite

# the imports above load every submodule, which tracers rely on; the submodules are not exported
__all__ = [
    "binom", "colex_rank", "ksets", "shift_leq",
    "Chain", "Family", "compress_pair", "construction_chain", "cover_family", "is_shifted", "nestify",
    "reduce_to_weighted", "shift_closure", "shift_ij",
    "BipartiteGraph", "is_overlapping", "matching_number", "max_bipartite_matching", "min_vertex_cover",
    "rainbow_matching_number",
    "bde_check", "conj1_value", "conj2_bound", "d_vec", "evaluate_bound", "g", "g_argmax", "gb_emc_bound",
    "hilton_bound", "thm1_bound", "thm2_value", "thm3_value", "thm4_value", "u_eval", "u_zero", "weight_vector",
    "ExtremalRecord", "exact_f_shifted", "oracle_f",
    "ArcFamily", "CyclicOrder", "arcs", "verify_partition_bound", "verify_random_matching_bound",
    "SUITES", "Suite", "run_suite",
]
