"""The benchmark's workloads: fixed request lists of fracdim CLI calls.

A request is the argv of one ``fracdim.cli.main`` call.  Seeded generator
specs take their seeds from the benchmark seed, so one seed always gives the
same requests and another seed gives other random instances; unseeded specs
are the same under every seed.  Each list mixes fixed instances with seeded
ones so that the work of a pass varies little from seed to seed.
"""

from __future__ import annotations

DEFAULT_SEED = 1

# Fractional requests ask for the assignment and the dual certificate so the
# gate can re-verify every value by substitution.
CERT = ("--json", "--assignment", "--certificate")

# The suites of ``verify all``, in its order.  Pinned here so that a suite
# added later changes the workload only through an edit to this file.
SUITES = (
    "thm1_closed_forms", "obs2_sandwich", "lemma1_twin_bound", "thm4_sdf_one",
    "example1_figures", "prop_mg_constant", "prop7_vertex_transitive",
    "lemma10_diam2_subset", "thm11_complement", "thm8_characterizations",
    "thm14_trees", "prop15_cycles", "prop12_paths", "unicyclic_table",
    "remarks_gaps",
)


def _seeds(seed: int):
    """Distinct spec seeds for the seeded requests of one workload."""
    return iter(range(1000 * seed, 1000 * seed + 1000))


def _dense_lp(seed: int) -> list[tuple[str, ...]]:
    # Dense, poorly reducing instances: the exact LP is nearly all the work,
    # for the fractional values, for the LP bound inside dim, and for the
    # member and pooled solves of the --bounds sandwich.  Six requests take
    # well under star(22), the median request, and six well over it, seeded
    # ones included, so the median latency stays on one request.  The seeded
    # instances are small: the LP time of one random_connected(18,40,s)
    # ranges over 1-5 s between seeds and would swamp the pass time.
    s = _seeds(seed)
    return [
        ("dim", "--spec", "petersen", "--json"),
        ("dim", "--spec", "wheel(16)", "--json"),
        ("dim", "--spec", "complete(16)", "--json"),
        ("sdimf", "--spec", f"with_complement(random_connected(14,30,{next(s)}))", *CERT),
        ("sdimf", "--spec", f"random_family(12,3,{next(s)})", *CERT),
        ("sdimf", "--spec", f"petersen_family(3,{next(s)})", *CERT),
        ("dimf", "--spec", "star(22)", *CERT),
        ("dimf", "--spec", "wheel(20)", *CERT),
        ("dimf", "--spec", "wheel(21)", *CERT),
        ("dimf", "--spec", "wheel(22)", *CERT),
        ("dimf", "--spec", "star(24)", *CERT),
        ("dimf", "--spec", "wheel(24)", *CERT),
        ("sdimf", "--spec", f"petersen_family(3,{next(s)})", "--bounds", *CERT),
    ]


def _sparse_large(seed: int) -> list[tuple[str, ...]]:
    # Large sparse graphs that reduce to few sets: BFS, resolver sets and
    # set reduction are the work and the LP is small.  Paths and cycles are
    # left out on purpose: their few sets are dense and the LP dominates.
    # The integral requests put the exact hitting-set search on this side.
    # The seeded requests sit well away from the two middle requests.
    s = _seeds(seed)
    specs = [
        ("dimf", f"random_tree(200,{next(s)})"),
        ("dimf", f"random_tree(160,{next(s)})"),
        ("dimf", f"random_unicyclic(120,{next(s)})"),
        ("sdimf", "remark_a_family(20)"),
        ("sdimf", "remark_a_family(12)"),
        ("sdimf", "twin_cycle_family(48)"),
        ("sdimf", "twin_cycle_family(24)"),
        ("dimf", "fig5_tree(12)"),
        ("dimf", "fig5_tree(8)"),
    ]
    return [(cmd, "--spec", spec, *CERT) for cmd, spec in specs] + [
        ("dim", "--spec", "fig5_tree(9)", "--json"),
        ("sdim", "--spec", "star_family(10)", "--json"),
        ("sdim", "--spec", "star_family(12)", "--json"),
        ("sdimf", "--spec", f"cycle_family(10,3,{next(s)})", "--bounds", *CERT),
        ("sdimf", "--spec", "star_family(8)", "--bounds", *CERT),
    ]


def _verify_suites(seed: int) -> list[tuple[str, ...]]:
    # ``verify all`` at the default budget, one request per suite.  The
    # suites carry their own fixed seeds, so this list ignores the seed.
    return [("verify", name, "--json") for name in SUITES]


WORKLOADS = {
    "dense_lp": _dense_lp,
    "sparse_large": _sparse_large,
    "verify_suites": _verify_suites,
}


def requests(workload: str, seed: int) -> list[tuple[str, ...]]:
    """The request list of one workload under one benchmark seed."""
    try:
        build = WORKLOADS[workload]
    except KeyError:
        raise ValueError(f"unknown workload {workload!r}; known: {', '.join(WORKLOADS)}") from None
    return build(seed)
