"""Exact trace-moment expansions of sample covariance matrices.

A combinatorial engine over closed-walk multigraphs (coloring, leaf trimming,
seed classification), exact closed-form expansion coefficients, a brute-force
enumeration oracle, and a Monte Carlo harness that validates the lot.

Everything but the Monte Carlo harness is exact rational arithmetic and never
loads numpy.  The harness is imported on first use: `montecarlo`,
`ExactReferences`, `SimulationConfig`, `SimulationReport`, `oracle_references`
and `simulate` resolve through the module `__getattr__`.
"""

import importlib

from .closedform import (
    A_coeff,
    B_coeff,
    C_coeff,
    C_coeffs,
    D_coeff,
    D_coeffs,
    binom,
    bs_cov_coefficient,
    bs_cov_coefficients,
    bs_mean,
    bs_mean_coefficients,
    corollary_cov_const_p,
    corollary_cov_ratio,
    corollary_mean_const_p,
    corollary_mean_ratio,
    count_bipartite_forced_edge,
    count_colored_trees,
    count_double_ring_sprouts,
    count_ring_sprouts,
    count_sprouting,
    count_trees_per_adjacency,
    mp_moment,
    taylor_identity_check,
    theorem1_mean,
    theorem2_cov,
)
from .enumeration import (
    CostGuardError,
    ExactMomentResult,
    census_by_seed,
    census_double,
    census_sprouting,
    exact_trace_covariance,
    exact_trace_moment,
    inner_weight_sum,
    inner_weight_sum_affine,
)
from .graphs import (
    CircuitMultigraph,
    DoubleCircuitMultigraph,
    Route,
    SeedClass,
    build_double_graph,
    build_graph,
    compact_labels,
    format_route,
    parse_route,
    zip_routes,
)
from .verify import run_suite
from .weights import (
    AffineAlpha,
    MomentSequence,
    covariance_weight,
    preset_alpha,
    preset_moments,
    weight,
)

__version__ = "0.1.0"

_MONTECARLO_NAMES = (
    "ExactReferences",
    "SimulationConfig",
    "SimulationReport",
    "oracle_references",
    "simulate",
)


def __getattr__(name: str):
    # `from . import montecarlo` here would call this hook again, without end
    if name == "montecarlo":
        return importlib.import_module(".montecarlo", __name__)
    if name in _MONTECARLO_NAMES:
        return getattr(importlib.import_module(".montecarlo", __name__), name)
    raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
