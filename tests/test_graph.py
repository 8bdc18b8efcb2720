import re
from collections import deque
from itertools import combinations

import pytest
from hypothesis import given, settings, strategies as st

from fracdim.graph import (
    INF,
    DistanceMatrix,
    Graph,
    GraphError,
    GraphFamily,
    ParseError,
    _parse_input,
    all_pairs_distances,
    complement,
    diameter,
    format_family_file,
    format_graph,
    is_connected,
    is_tree,
    parse_graph,
)
from fracdim.families import generate, known_kinds
from test_oracles import _SPECS_BY_KIND


def test_parse_path_on_three():
    g = parse_graph("n 3\n0 1\n1 2")
    assert g.n == 3
    assert g.edges == ((0, 1), (1, 2))


def test_parse_isolated_vertices():
    g = parse_graph("n 2\n")
    assert g.n == 2
    assert g.edges == ()


def test_parse_self_loop_names_line():
    with pytest.raises(ParseError, match="self-loop at line 2"):
        parse_graph("n 3\n0 0")


def test_parse_errors():
    with pytest.raises(ParseError, match="line 3"):
        parse_graph("n 3\n0 1\n0 5")
    with pytest.raises(ParseError, match="duplicate edge at line 4"):
        parse_graph("n 3\n0 1\n1 2\n1 0")
    with pytest.raises(ParseError, match="malformed"):
        parse_graph("n 3\n0 1 2")
    with pytest.raises(ParseError, match="header"):
        parse_graph("0 1\n1 2")


def test_parse_graph_rejects_family_files():
    with pytest.raises(ParseError, match="line 2: a family file"):
        parse_graph("n 3\ngraph A\n0 1\n")


def test_parse_comments_and_blanks():
    g = parse_graph("# a path\nn 3\n\n0 1\n# middle\n1 2\n")
    assert g.edges == ((0, 1), (1, 2))


def test_format_round_trip():
    g = generate("wheel(6)")
    assert parse_graph(format_graph(g)) == g


def test_every_generator_kind_survives_a_file_round_trip():
    assert sorted(_SPECS_BY_KIND) == sorted(known_kinds())
    for spec, *_ in _SPECS_BY_KIND.values():
        obj = generate(spec)
        if isinstance(obj, Graph):
            assert _parse_input(format_graph(obj)) == obj, spec
            continue
        back = _parse_input(format_family_file(obj))
        assert isinstance(back, GraphFamily) and back.n == obj.n, spec
        assert back.members == obj.members, spec
        assert back.names == (obj.names or tuple(f"G{i + 1}" for i in range(len(obj)))), spec


@pytest.mark.parametrize("name", ["a b", "", "x\n0 3"])
def test_family_writer_rejects_names_its_reader_cannot_take(name):
    # Read back, "x\n0 3" would turn the path into a cycle as member x.
    p4 = Graph(4, [(0, 1), (1, 2), (2, 3)])
    with pytest.raises(ValueError, match=re.escape(f"member 2 name {name!r}")):
        format_family_file(GraphFamily([p4, p4], ["c", name]))


def test_graph_validation():
    with pytest.raises(GraphError):
        Graph(0, [])
    with pytest.raises(GraphError):
        Graph(3, [(0, 0)])
    with pytest.raises(GraphError):
        Graph(3, [(0, 3)])


def test_complement_of_complete_is_empty():
    g = complement(generate("complete(4)"))
    assert g.edges == ()


def test_complement_c5_is_a_cycle():
    comp = complement(generate("cycle(5)"))
    assert len(comp.edges) == 5
    assert all(comp.degree(v) == 2 for v in range(5))
    assert is_connected(comp)


def test_complement_c4_is_two_disjoint_edges():
    comp = complement(generate("cycle(4)"))
    assert comp.edges == ((0, 2), (1, 3))
    assert not is_connected(comp)


def test_distances_path():
    dm = all_pairs_distances(generate("path(4)"))
    assert dm[0][3] == 3
    assert dm[2][1] == 1


def test_distances_disconnected():
    g = Graph(4, [(0, 1), (2, 3)])
    dm = all_pairs_distances(g)
    assert dm[0][2] == INF
    assert dm[0][1] == 1
    assert INF == INF and not (1 == INF)


def test_distances_petersen_diam_two():
    dm = all_pairs_distances(generate("petersen"))
    offdiag = {dm[i][j] for i in range(10) for j in range(10) if i != j}
    assert offdiag == {1, 2}


def test_diameter():
    assert diameter(generate("path(4)")) == 3
    assert diameter(generate("complete(5)")) == 1
    assert diameter(complement(generate("cycle(6)"))) == 2
    assert diameter(Graph(4, [(0, 1), (2, 3)])) == INF
    with pytest.raises(GraphError):
        diameter(Graph(1, []))


def bfs_distances(g, source):
    """Breadth-first search from one vertex: the reference for every distance
    the ball layers give."""
    dist = [INF] * g.n
    dist[source] = 0
    queue = deque([source])
    while queue:
        u = queue.popleft()
        for w in g.adj[u]:
            if dist[w] == INF:
                dist[w] = dist[u] + 1
                queue.append(w)
    return dist


def bfs_matrix(g):
    """The distance table of one BFS per vertex."""
    return DistanceMatrix(g.n, tuple(tuple(bfs_distances(g, s)) for s in range(g.n)))


def assert_distances_match_bfs(g):
    """all_pairs_distances, is_connected and diameter against the BFS table."""
    want = bfs_matrix(g)
    assert all_pairs_distances(g) == want, g
    assert is_connected(g) == (INF not in want[0]), g
    if g.n >= 2:
        assert diameter(g) == max(map(max, want.rows)), g


def test_distances_match_bfs_on_every_small_graph():
    # Every labelled graph with n <= 6, disconnected ones included.
    count = 0
    for n in range(1, 7):
        pairs = list(combinations(range(n), 2))
        for code in range(1 << len(pairs)):
            assert_distances_match_bfs(Graph(n, [p for i, p in enumerate(pairs) if code >> i & 1]))
            count += 1
    assert count == 33867


def test_is_tree():
    assert is_tree(generate("path(5)"))
    assert is_tree(generate("star(7)"))
    assert not is_tree(generate("cycle(5)"))
    assert not is_tree(Graph(4, [(0, 1), (2, 3)]))


def graphs(max_n=9):
    @st.composite
    def build(draw):
        n = draw(st.integers(2, max_n))
        pairs = [(u, v) for u in range(n) for v in range(u + 1, n)]
        mask = draw(st.integers(0, (1 << len(pairs)) - 1))
        return Graph(n, [p for i, p in enumerate(pairs) if mask >> i & 1])

    return build()


@given(graphs())
@settings(max_examples=120, deadline=None)
def test_complement_is_involution(g):
    assert complement(complement(g)) == g


@given(graphs())
@settings(max_examples=120, deadline=None)
def test_distances_symmetric_zero_diagonal(g):
    dm = all_pairs_distances(g)
    for i in range(g.n):
        assert dm[i][i] == 0
        for j in range(g.n):
            assert dm[i][j] == dm[j][i]


@given(graphs())
@settings(max_examples=120, deadline=None)
def test_not_both_disconnected(g):
    assert is_connected(g) or is_connected(complement(g))


@given(graphs())
@settings(max_examples=120, deadline=None)
def test_large_diameter_forces_small_complement_diameter(g):
    if diameter(g) >= 4:
        assert diameter(complement(g)) <= 2
