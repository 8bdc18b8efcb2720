from itertools import combinations, permutations, product

import pytest
from hypothesis import given, settings, strategies as st

from fracdim.graph import Graph, complement, diameter, is_connected
from fracdim.lp import _minimal_masks
from fracdim.metric import (
    MajorVertex,
    TreeProfile,
    _minimal_resolvers,
    _pair_masks,
    constraint_system,
    family_twin_multiplicity,
    is_vertex_transitive,
    r_of,
    resolver_masks,
    resolving_constraint,
    tree_profile,
    twin_multiplicities,
    twin_partition,
)
from fracdim.dimension import GraphFamily, _member_masks, _pooled
from fracdim.families import generate
from test_graph import assert_distances_match_bfs, bfs_matrix


def members_of(g, x, y):
    return resolving_constraint(bfs_matrix(g), x, y).members


def test_twin_pair_resolves_only_itself():
    assert members_of(generate("complete(3)"), 0, 1) == {0, 1}


def test_cycle_six_pairs():
    c6 = generate("cycle(6)")
    # vertices 1 and 4 sit midway between 0 and 2, so only four resolvers
    assert members_of(c6, 0, 2) == {0, 2, 3, 5}
    # an antipodal pair is resolved by everything (odd vs even split)
    assert members_of(c6, 0, 3) == set(range(6))


def test_disconnected_pair_uses_inf_convention():
    g = Graph(4, [(0, 1), (2, 3)])
    assert members_of(g, 0, 2) == {0, 1, 2, 3}


def test_same_vertex_rejected():
    with pytest.raises(ValueError):
        resolving_constraint(bfs_matrix(generate("path(3)")), 1, 1)


def lane_boundary_graphs(n):
    """A path, a cycle (n >= 3), a path on the first n // 2 vertices plus
    isolated vertices, and the edgeless graph."""
    yield generate(f"path({n})")
    if n >= 3:
        yield generate(f"cycle({n})")
    yield Graph(n, [(i, i + 1) for i in range(n // 2 - 1)])
    yield Graph(n)


@pytest.mark.parametrize("n", [2, 3, 4, 5, 8, 9, 16, 17, 18, 33, 34, 65, 66, 130])
def test_resolver_masks_match_definition_at_lane_boundaries(n):
    # Across these n the distance codes (n for unreachable) need 1, 2, 4
    # and 8 lanes of n bits, and a lane is wider than 64 bits from n = 65.
    # The expected masks come from BFS, not from the ball layers under test.
    for g in lane_boundary_graphs(n):
        assert_distances_match_bfs(g)
        dm = bfs_matrix(g)
        want = [
            sum(1 << z for z in resolving_constraint(dm, x, y).members)
            for x in range(n)
            for y in range(x + 1, n)
        ]
        assert list(resolver_masks(g)) == want, g


def test_resolver_masks_of_one_vertex_is_empty():
    assert list(resolver_masks(Graph(1))) == []


def every_pair_minimal(graphs):
    """The minimal masks over every pair of every graph, pooled in order."""
    return _minimal_masks(dict.fromkeys(m for g in graphs for m in resolver_masks(g)))


def test_minimal_resolvers_match_the_every_pair_reference():
    # Every labelled graph with n <= 6, disconnected bipartite ones included.
    for n in range(1, 7):
        pairs = list(combinations(range(n), 2))
        for code in range(1 << len(pairs)):
            g = Graph(n, [p for i, p in enumerate(pairs) if code >> i & 1])
            assert list(_minimal_resolvers(g)) == every_pair_minimal([g]), (n, code)
    specs = [f"random_tree({n},{n * 7})" for n in (2, 3, 9, 40, 120)]
    specs += [f"random_unicyclic({n},{n * 5})" for n in (3, 8, 30, 61)]
    specs += [f"cycle({n})" for n in (3, 4, 9, 10, 31, 32)]
    specs += [f"random_connected({n},{p},{n + p})" for n in (7, 20) for p in (10, 40)]
    specs += ["twin_cycle_family(12)", "remark_a_family(4)", "star_family(7)"]
    for spec in specs:
        fam = generate(spec)
        members = getattr(fam, "members", (fam,))
        assert list(_pooled(fam.n, _member_masks(GraphFamily(members))).masks) == \
            every_pair_minimal(members), spec


def colour_classes(g):
    """Sizes of the two colour classes of a connected bipartite graph."""
    odd = sum(d % 2 for d in bfs_matrix(g)[0])
    return g.n - odd, odd


@pytest.mark.parametrize("spec", ["path(2)", "path(9)", "cycle(10)", "star(6)",
                                  "random_tree(200,1000)", "fig5_tree(4)"])
def test_connected_bipartite_graphs_fold_only_same_colour_pairs(spec):
    g = generate(spec)
    a, b = colour_classes(g)
    assert len(list(_pair_masks(g, True))) == a * (a - 1) // 2 + b * (b - 1) // 2 + 1


@pytest.mark.parametrize("g", [generate("cycle(9)"), generate("petersen"),
                               Graph(5, [(0, 1), (2, 3)]), Graph(3, [(0, 1)]), Graph(4)])
def test_other_graphs_fold_every_pair(g):
    assert list(_pair_masks(g, True)) == list(resolver_masks(g))


def test_constraint_system_k4_reduced_to_pairs():
    sets = [c.members for c in constraint_system(generate("complete(4)"))]
    assert sorted(sorted(s) for s in sets) == [
        [0, 1], [0, 2], [0, 3], [1, 2], [1, 3], [2, 3]
    ]


def test_constraint_system_p3():
    p3 = generate("path(3)")
    unreduced = constraint_system(p3, reduce=False)
    assert [(c.pair, set(c.members)) for c in unreduced] == [
        ((0, 1), {0, 1, 2}),
        ((0, 2), {0, 2}),
        ((1, 2), {0, 1, 2}),
    ]
    reduced = constraint_system(p3)
    assert [(c.pair, set(c.members)) for c in reduced] == [((0, 2), {0, 2})]


def test_constraint_system_petersen_all_six():
    sets = constraint_system(generate("petersen"))
    assert {len(c.members) for c in sets} == {6}
    assert len(sets) == 25


def test_twin_partition_complete():
    assert twin_partition(generate("complete(5)")).classes == ((0, 1, 2, 3, 4),)


def test_twin_partition_fig3_members():
    fam = generate("fig3")
    expected_pairs = [(0, 1), (1, 2), (2, 3), (3, 4), (0, 4)]
    for g, pair in zip(fam.members, expected_pairs):
        assert pair in twin_partition(g).classes


def test_twin_partition_path_is_discrete():
    assert twin_partition(generate("path(4)")).classes == ((0,), (1,), (2,), (3,))


def pairwise_twin_classes(g):
    """The closure of u ~ w iff N(u)-{w} = N(w)-{u}, tested on every pair and
    merged by union-find."""
    nbrs = [set(g.adj[u]) for u in range(g.n)]
    parent = list(range(g.n))

    def find(a):
        while parent[a] != a:
            a = parent[a]
        return a

    for u, w in combinations(range(g.n), 2):
        if nbrs[u] - {w} == nbrs[w] - {u}:
            parent[find(u)] = find(w)
    groups = {}
    for v in range(g.n):
        groups.setdefault(find(v), []).append(v)
    return tuple(sorted(tuple(c) for c in groups.values()))


def test_twin_partition_matches_the_pairwise_closure():
    for n in range(1, 7):
        pairs = list(combinations(range(n), 2))
        for code in range(1 << len(pairs)):
            g = Graph(n, [p for i, p in enumerate(pairs) if code >> i & 1])
            assert twin_partition(g).classes == pairwise_twin_classes(g), (n, code)
    for n in range(2, 31):
        for p in (20, 50, 80, 95):
            g = generate(f"random_connected({n},{p},{n * p})")
            assert twin_partition(g).classes == pairwise_twin_classes(g), (n, p)


def test_r_of_values():
    assert r_of(generate("cycle(5)")) == 4
    assert r_of(generate("petersen")) == 6
    assert r_of(generate("complete(7)")) == 2


def test_tree_profile_star():
    p = tree_profile(generate("star(6)"))
    assert (p.sigma, p.ex, p.ex1) == (5, 1, 0)
    assert p.exterior_majors[0].vertex == 0
    assert p.exterior_majors[0].terminal_degree == 5


def test_tree_profile_fig2_first_member():
    g = generate("fig2").members[0]
    p = tree_profile(g)
    assert p.sigma == 4 and p.ex == 2 and p.ex1 == 0
    assert sorted(mv.terminal_degree for mv in p.exterior_majors) == [2, 2]


def test_tree_profile_paths():
    p = tree_profile(generate("path(10)"))
    assert (p.sigma, p.ex, p.ex1) == (2, 0, 0)
    p = tree_profile(generate("path(2)"))
    assert (p.sigma, p.ex, p.ex1) == (2, 0, 0)


def nearest_major_profile(g):
    """Each end-vertex is terminal to its strictly nearest major vertex, read
    off the full distance table."""
    ends = [v for v in range(g.n) if g.degree(v) == 1]
    majors = [v for v in range(g.n) if g.degree(v) >= 3]
    terminal = {v: [] for v in majors}
    if majors:
        dm = bfs_matrix(g)
        for leaf in ends:
            dists = sorted((dm[leaf][v], v) for v in majors)
            if len(dists) == 1 or dists[0][0] < dists[1][0]:
                terminal[dists[0][1]].append(leaf)
    exterior = tuple(
        MajorVertex(v, len(terminal[v]), tuple(terminal[v])) for v in majors if terminal[v]
    )
    ex1 = sum(1 for mv in exterior if mv.terminal_degree == 1)
    return TreeProfile(len(ends), exterior, len(exterior), ex1)


def test_tree_profile_matches_the_nearest_major_rule():
    specs = [f"random_tree({n},0)" for n in (1, 2, 3)] + [
        f"random_tree({n},{seed})" for n in range(4, 201, 7) for seed in range(3)
    ] + ["random_tree(200,1000)", "fig5_tree(5)", "star(6)", "path(9)"]
    for spec in specs:
        g = generate(spec)
        assert tree_profile(g) == nearest_major_profile(g), spec


def test_tree_profile_rejects_non_trees():
    with pytest.raises(ValueError):
        tree_profile(generate("cycle(4)"))


def test_vertex_transitive():
    assert is_vertex_transitive(generate("cycle(8)"))
    assert is_vertex_transitive(generate("petersen"))
    assert not is_vertex_transitive(generate("path(3)"))
    assert not is_vertex_transitive(generate("star(5)"))
    assert is_vertex_transitive(generate("circulant(9,1,2)"))
    with pytest.raises(ValueError, match="too large"):
        is_vertex_transitive(generate("cycle(17)"))


def transitive_by_permutations(g):
    """Vertex 0 reaches every vertex under some automorphism, over all n! maps."""
    edges = {frozenset(e) for e in g.edges}
    reached = {
        p[0] for p in permutations(range(g.n))
        if {frozenset((p[u], p[v])) for u, v in g.edges} == edges
    }
    return len(reached) == g.n


def test_vertex_transitive_matches_every_permutation_up_to_five_vertices():
    for n in range(1, 6):
        for code in range(1 << n * (n - 1) // 2):
            g = generate(f"graph_index({n},{code})")
            assert is_vertex_transitive(g) == transitive_by_permutations(g), g.edges


def test_equal_distance_rows_do_not_make_a_graph_vertex_transitive():
    g = generate("graph_index(7,521465)")
    rows = {tuple(sorted(row)) for row in bfs_matrix(g).rows}
    assert {g.degree(v) for v in range(g.n)} == {4} and len(rows) == 1
    assert not is_vertex_transitive(g)


def test_relabelled_sixteen_cycles_are_vertex_transitive():
    assert all(is_vertex_transitive(g) for g in generate("cycle_family(16,4,1)").members)


def test_complements_of_relabelled_sixteen_cycles_are_vertex_transitive():
    # Diameter 2, so distances prune the search no more than adjacency does;
    # most targets are reached by the automorphisms already found.
    members = generate("cycle_family(16,4,1)").members
    assert all(is_vertex_transitive(complement(g)) for g in members)


def test_family_twin_multiplicity():
    fig3 = generate("fig3")
    assert [family_twin_multiplicity(fig3, u) for u in range(5)] == [2, 2, 2, 2, 2]
    single = generate("family_of(path(4))")
    assert family_twin_multiplicity(single, 0) == 0
    pair = generate("family_of(complete(3),complete(3))")
    assert family_twin_multiplicity(pair, 1) == 2
    for u in (-1, 5):
        with pytest.raises(ValueError, match="not in a graph"):
            family_twin_multiplicity(fig3, u)


def per_vertex_twin_multiplicity(members, u):
    """The reference: one twin partition per member for each vertex asked about."""
    return sum(len(twin_partition(g).class_of(u)) >= 2 for g in members)


def test_twin_multiplicities_match_the_per_vertex_count():
    # Every two-member family of labelled graphs with n <= 4.
    for n in range(1, 5):
        pairs = list(combinations(range(n), 2))
        labelled = [Graph(n, [p for i, p in enumerate(pairs) if code >> i & 1])
                    for code in range(1 << len(pairs))]
        for members in product(labelled, repeat=2):
            fam = GraphFamily(members)
            expected = [per_vertex_twin_multiplicity(members, u) for u in range(n)]
            assert twin_multiplicities(members) == expected, (n, members)
            assert [family_twin_multiplicity(fam, u) for u in range(n)] == expected


def graphs(max_n=8, connected_only=False):
    @st.composite
    def build(draw):
        n = draw(st.integers(2, max_n))
        pairs = [(u, v) for u in range(n) for v in range(u + 1, n)]
        mask = draw(st.integers(0, (1 << len(pairs)) - 1))
        g = Graph(n, [p for i, p in enumerate(pairs) if mask >> i & 1])
        if connected_only and not is_connected(g):
            extra = [(i, i + 1) for i in range(n - 1)]
            g = Graph(n, list(g.edges) + extra)
        return g

    return build()


@given(graphs())
@settings(max_examples=120, deadline=None)
def test_members_always_contain_the_pair(g):
    dm = bfs_matrix(g)
    for x in range(g.n):
        for y in range(x + 1, g.n):
            members = resolving_constraint(dm, x, y).members
            assert {x, y} <= members
            assert len(members) >= 2


@given(graphs(connected_only=True))
@settings(max_examples=100, deadline=None)
def test_twins_iff_pair_resolves_only_itself(g):
    dm = bfs_matrix(g)
    tp = twin_partition(g)
    for x in range(g.n):
        for y in range(x + 1, g.n):
            twins = y in tp.class_of(x)
            assert twins == (resolving_constraint(dm, x, y).members == {x, y})


@given(graphs())
@settings(max_examples=100, deadline=None)
def test_twin_pairs_resolve_identically_in_complement(g):
    dm = bfs_matrix(g)
    dmc = bfs_matrix(complement(g))
    tp = twin_partition(g)
    for cls in tp.nontrivial():
        for i, x in enumerate(cls):
            for y in cls[i + 1:]:
                ours = resolving_constraint(dm, x, y).members
                theirs = resolving_constraint(dmc, x, y).members
                assert ours == theirs == {x, y}


@given(graphs(connected_only=True))
@settings(max_examples=100, deadline=None)
def test_diameter_two_resolvers_carry_to_complement(g):
    if diameter(g) != 2:
        return
    dm = bfs_matrix(g)
    dmc = bfs_matrix(complement(g))
    for x in range(g.n):
        for y in range(x + 1, g.n):
            assert (
                resolving_constraint(dm, x, y).members
                <= resolving_constraint(dmc, x, y).members
            )


@given(st.integers(3, 12), st.integers(0, 10_000))
@settings(max_examples=80, deadline=None)
def test_every_end_vertex_is_terminal_exactly_once(n, seed):
    g = generate(f"random_tree({n},{seed})")
    p = tree_profile(g)
    if p.ex == 0:
        return
    owners = [v for mv in p.exterior_majors for v in mv.terminal_vertices]
    ends = [v for v in range(g.n) if g.degree(v) == 1]
    assert sorted(owners) == sorted(ends)
