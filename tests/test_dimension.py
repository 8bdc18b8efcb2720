from fractions import Fraction
from itertools import combinations

import pytest
from hypothesis import given, settings, strategies as st

from fracdim.graph import Graph, complement
from fracdim.lp import CoveringLp, LpSolution, verify_solution
from fracdim.metric import constraint_system, resolving_constraint
from fracdim.dimension import (
    GraphFamily,
    bounds_report,
    fractional_dimension,
    joint_cover_sets,
    metric_dimension,
    simultaneous_dimension,
    simultaneous_fractional_dimension,
)
from fracdim.families import generate
from test_graph import bfs_matrix


def sdf(spec):
    return simultaneous_fractional_dimension(generate(spec)).value


def dimf(spec):
    return fractional_dimension(generate(spec)).value


def test_fractional_dimension_named_values():
    assert dimf("path(7)") == 1
    assert dimf("cycle(6)") == Fraction(3, 2)
    assert dimf("petersen") == Fraction(5, 3)
    assert dimf("complete(6)") == 3


def test_fractional_dimension_disconnected():
    g = Graph(4, [(0, 1), (2, 3)])  # complement of C_4
    assert fractional_dimension(g).value == 2


def test_simultaneous_figures():
    assert sdf("fig1a") == Fraction(3, 2)
    assert sdf("fig1b") == 3
    assert sdf("fig2") == 6
    assert sdf("fig3") == Fraction(5, 2)
    assert sdf("fig3_sub") == 2


def test_simultaneous_path_with_complement():
    assert sdf("with_complement(path(4))") == Fraction(4, 3)


def test_single_member_family_matches_dimf():
    g = generate("wheel(7)")
    assert simultaneous_fractional_dimension(GraphFamily([g])).value == \
        fractional_dimension(g).value


def test_mismatched_vertex_counts_rejected():
    with pytest.raises(ValueError, match="share"):
        GraphFamily([generate("path(4)"), generate("path(5)")])


def test_metric_dimension_values():
    assert metric_dimension(generate("path(9)")) == 1
    assert metric_dimension(generate("complete(5)")) == 4
    assert metric_dimension(generate("cycle(8)")) == 2


def test_simultaneous_dimension_values():
    assert simultaneous_dimension(generate("path_family(5,shared_end)")) == 1
    assert simultaneous_dimension(generate("star_family(6)")) == 5
    fam = generate("family_of(complete(4),complete(4))")
    assert simultaneous_dimension(fam) == 3


def test_bounds_report_lower_tight():
    rep = bounds_report(generate("fig1a"))
    assert rep.max_dimf == rep.sdf == Fraction(3, 2)
    assert rep.per_member_dimf == (Fraction(3, 2), Fraction(3, 2), Fraction(1))


def test_bounds_report_upper_tight():
    rep = bounds_report(generate("fig1b"))
    assert rep.sdf == 3
    assert rep.sum_dimf == Fraction(11, 2)
    assert rep.half_n == 3
    assert min(rep.sum_dimf, rep.half_n) == rep.sdf


def test_bounds_report_remark_b():
    rep = bounds_report(generate("remark_b_family(5)"))
    assert rep.sdf == Fraction(3, 2)
    assert min(rep.sum_dimf, rep.half_n) == 4


def test_bounds_report_needs_two_members():
    with pytest.raises(ValueError):
        bounds_report(GraphFamily([generate("path(4)")]))


@pytest.mark.parametrize("spec", ["fig1a", "star_family(6)", "random_family(8,3,5)"])
def test_bounds_report_pooled_solve_is_the_sdimf_solve(spec):
    fam = generate(spec)
    rep = bounds_report(fam)
    assert rep.pooled == simultaneous_fractional_dimension(fam)
    assert rep.sdf == rep.pooled.value
    assert rep.sd == simultaneous_dimension(fam)
    assert rep.per_member_dimf == tuple(fractional_dimension(g).value for g in fam.members)


def test_bounds_report_needs_two_vertices():
    with pytest.raises(ValueError, match="two vertices"):
        bounds_report(GraphFamily([Graph(1), Graph(1)]))


def connected_graphs(max_n=8):
    @st.composite
    def build(draw):
        n = draw(st.integers(3, max_n))
        pairs = [(u, v) for u in range(n) for v in range(u + 1, n)]
        mask = draw(st.integers(0, (1 << len(pairs)) - 1))
        edges = [p for i, p in enumerate(pairs) if mask >> i & 1]
        edges += [(i, i + 1) for i in range(n - 1)]
        return Graph(n, edges)

    return build()


@given(st.lists(connected_graphs(6), min_size=2, max_size=3))
@settings(max_examples=40, deadline=None)
def test_sandwich_on_random_families(members):
    members = [Graph(6, [(u, v) for u, v in g.edges if u < 6 and v < 6] +
                     [(i, i + 1) for i in range(5)]) for g in members]
    fam = GraphFamily(members)
    rep = bounds_report(fam)  # raises SandwichViolation on engine bugs
    assert rep.max_dimf <= rep.sdf <= min(rep.sum_dimf, rep.half_n)
    assert rep.sdf <= rep.sd
    assert rep.pooled == simultaneous_fractional_dimension(fam)


@given(connected_graphs(7), connected_graphs(7))
@settings(max_examples=40, deadline=None)
def test_adding_a_member_never_decreases(g, h):
    n = min(g.n, h.n)
    g = Graph(n, [(u, v) for u, v in g.edges if v < n] + [(i, i + 1) for i in range(n - 1)])
    h = Graph(n, [(u, v) for u, v in h.edges if v < n] + [(i, i + 1) for i in range(n - 1)])
    single = simultaneous_fractional_dimension(GraphFamily([g])).value
    joint = simultaneous_fractional_dimension(GraphFamily([g, h])).value
    assert joint >= single


def test_complement_pair_of_complete():
    g = generate("complete(7)")
    fam = GraphFamily([g, complement(g)])
    assert simultaneous_fractional_dimension(fam).value == Fraction(7, 2)


@pytest.mark.parametrize(
    "spec, value",
    [
        ("wheel(40)", Fraction(39, 4)),
        ("random_connected(26,50,1)", Fraction(7794, 2467)),
        ("random_connected(30,30,2)", Fraction(62388278, 22840847)),
        ("with_complement(cycle(30))", Fraction(15, 2)),
    ],
)
def test_pinned_values_of_large_poorly_reducing_systems(spec, value):
    obj = generate(spec)
    fam = obj if isinstance(obj, GraphFamily) else GraphFamily([obj])
    res = simultaneous_fractional_dimension(fam)
    assert res.value == value
    lp = CoveringLp(fam.n, joint_cover_sets(fam))
    verify_solution(lp, LpSolution(res.value, res.assignment, res.certificate))


def any_graphs(n):
    """Graphs on n vertices, connected or not."""
    pairs = list(combinations(range(n), 2))
    return st.integers(0, (1 << len(pairs)) - 1).map(
        lambda mask: Graph(n, [p for i, p in enumerate(pairs) if mask >> i & 1])
    )


def reference_system(members):
    """(pair, set) per pair of every member, one per resolving_constraint call,
    then the first occurrence of each distinct set with no proper subset."""
    pool = []
    for g in members:
        dm = bfs_matrix(g)
        pool += [
            ((x, y), resolving_constraint(dm, x, y).members)
            for x, y in combinations(range(g.n), 2)
        ]
    distinct = {}
    for pair, s in pool:
        distinct.setdefault(s, pair)
    return [(pair, s) for s, pair in distinct.items() if not any(t < s for t in distinct)]


@given(st.integers(2, 9).flatmap(lambda n: st.lists(any_graphs(n), min_size=1, max_size=3)))
@settings(max_examples=120, deadline=None)
def test_mask_pipeline_matches_per_pair_definition(members):
    want = reference_system(members)
    assert joint_cover_sets(GraphFamily(members)) == [s for _, s in want]
    g = members[0]
    reduced = constraint_system(g, reduce=True)
    assert [(c.pair, c.members) for c in reduced] == reference_system([g])
    dm = bfs_matrix(g)
    assert constraint_system(g, reduce=False) == [
        resolving_constraint(dm, x, y) for x, y in combinations(range(g.n), 2)
    ]


@pytest.mark.parametrize("n", range(2, 19))
def test_metric_dimension_of_complete_graphs(n):
    assert metric_dimension(generate(f"complete({n})")) == n - 1


@pytest.mark.parametrize("n", range(8, 31))
def test_metric_dimension_of_wheels(n):
    # dim(K_1 + C_r) = floor((2r + 2)/5) for a rim of r >= 7 vertices
    # (Buczkowski, Chartrand, Poisson and Zhang 2003); here r = n - 1
    assert metric_dimension(generate(f"wheel({n})")) == 2 * n // 5


def test_metric_dimension_of_petersen():
    assert metric_dimension(generate("petersen")) == 3


def relabelled(g, perm):
    return Graph(g.n, [(perm[u], perm[v]) for u, v in g.edges])


small_families = st.integers(2, 7).flatmap(
    lambda n: st.tuples(st.lists(any_graphs(n), min_size=1, max_size=3), st.permutations(range(n)))
)


@given(small_families)
@settings(max_examples=60, deadline=None)
def test_dimensions_invariant_under_vertex_relabelling(case):
    members, perm = case
    fam = GraphFamily(members)
    moved = GraphFamily([relabelled(g, perm) for g in members])
    assert simultaneous_fractional_dimension(moved).value == \
        simultaneous_fractional_dimension(fam).value
    assert simultaneous_dimension(moved) == simultaneous_dimension(fam)
    g, h = members[0], moved.members[0]
    assert fractional_dimension(h).value == fractional_dimension(g).value
    assert metric_dimension(h) == metric_dimension(g)


@given(small_families, st.data())
@settings(max_examples=60, deadline=None)
def test_family_dimensions_ignore_member_order_and_duplicates(case, data):
    members, _ = case
    fam = GraphFamily(members)
    sdf, sd = simultaneous_fractional_dimension(fam).value, simultaneous_dimension(fam)
    shuffled = data.draw(st.permutations(members))
    extra = data.draw(st.sampled_from(members))
    for variant in (GraphFamily(shuffled), GraphFamily(members + [extra])):
        assert simultaneous_fractional_dimension(variant).value == sdf
        assert simultaneous_dimension(variant) == sd


@given(st.integers(2, 8).flatmap(any_graphs))
@settings(max_examples=60, deadline=None)
def test_complement_pair_is_symmetric(g):
    h = complement(g)
    assert simultaneous_fractional_dimension(GraphFamily([g, h])).value == \
        simultaneous_fractional_dimension(GraphFamily([h, g])).value
