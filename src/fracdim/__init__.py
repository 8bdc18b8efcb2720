"""Exact fractional metric dimension of graphs and graph families.

The library computes dim_f, Sd_f, dim, and Sd over exact rationals by
solving the underlying covering LP with a certified rational simplex, and
ships generators plus verification suites for a catalogue of closed forms.
"""

from .graph import (
    INF,
    DistanceMatrix,
    Graph,
    GraphError,
    GraphFamily,
    ParseError,
    all_pairs_distances,
    complement,
    diameter,
    format_graph,
    is_connected,
    is_tree,
    parse_graph,
)
from .lp import (
    CertificateError,
    CoveringLp,
    LpError,
    LpInternalError,
    LpSolution,
    format_rational,
    min_hitting_set,
    parse_rational,
    reduce_sets,
    solve_covering_lp,
    verify_solution,
)
from .metric import (
    MajorVertex,
    ResolvingConstraint,
    TreeProfile,
    TwinPartition,
    constraint_system,
    family_twin_multiplicity,
    is_vertex_transitive,
    r_of,
    resolving_constraint,
    tree_profile,
    twin_partition,
)
from .dimension import (
    BoundsReport,
    DimensionResult,
    SandwichViolation,
    bounds_report,
    fractional_dimension,
    joint_cover_sets,
    metric_dimension,
    simultaneous_dimension,
    simultaneous_fractional_dimension,
)
from .families import FamilySpec, SplitMix64, format_spec, generate, known_kinds, parse_spec
from .oracles import (
    NoClosedForm,
    OracleValue,
    has_fixed_point_free_twin_permutation,
    oracle_dimf,
    oracle_sdimf,
)
from .harness import Budget, CheckResult, SuiteReport, SUITE_ORDER, run_all, run_suite

__version__ = "0.1.0"
