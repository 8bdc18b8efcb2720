"""Resolving-set machinery: constraint systems, twins, r(G), tree profiles,
and a small exact vertex-transitivity test.

The test searches for maps that keep every distance: such a map keeps
distance 1, so it is an automorphism, and every automorphism keeps distances.

A vertex z resolves a pair {x, y} when its distances to x and y differ (INF
equals only itself, so disconnected graphs are covered).  The resolvers of a
pair, a bitmask from two bit-sliced distance rows, support one constraint.
"""

from __future__ import annotations

from dataclasses import dataclass
from itertools import combinations
from operator import mul
from typing import Iterator, Sequence

from .graph import Graph, DistanceMatrix, _ball_layers, all_pairs_distances, is_tree
from .lp import _bits, _minimal_masks, reduce_sets


@dataclass(frozen=True)
class ResolvingConstraint:
    """The vertices whose distances to the two pair members differ."""

    pair: tuple[int, int]
    members: frozenset[int]


@dataclass(frozen=True)
class TwinPartition:
    """Partition of the vertex set under the twin relation.

    Classes are sorted tuples, ordered by their smallest vertex; each class
    induces a clique or an independent set.
    """

    classes: tuple[tuple[int, ...], ...]

    def class_of(self, v: int) -> tuple[int, ...]:
        for c in self.classes:
            if v in c:
                return c
        raise KeyError(v)

    def nontrivial(self) -> tuple[tuple[int, ...], ...]:
        return tuple(c for c in self.classes if len(c) >= 2)


@dataclass(frozen=True)
class MajorVertex:
    vertex: int
    terminal_degree: int
    terminal_vertices: tuple[int, ...]


@dataclass(frozen=True)
class TreeProfile:
    """End-vertex count, exterior major vertices, and their terminal degrees."""

    sigma: int
    exterior_majors: tuple[MajorVertex, ...]
    ex: int
    ex1: int


def resolving_constraint(dm: DistanceMatrix, x: int, y: int) -> ResolvingConstraint:
    """Members are {z : d(x,z) != d(y,z)}; always contains x and y."""
    if x == y:
        raise ValueError("a resolving constraint needs two distinct vertices")
    if x > y:
        x, y = y, x
    dx, dy = dm[x], dm[y]
    return ResolvingConstraint(
        (x, y), frozenset(z for z in range(dm.n) if dx[z] != dy[z])
    )


def _distance_rows(g: Graph) -> tuple[list[int], int]:
    """Bit-sliced distance rows, bit i of d(x, z) at bit i*n + z of row x, and
    their lane count: the least power of two that holds every distance code.

    Unreachable vertices get the code n, which no distance has.  Row x sums
    its ball layers L_x(d) (``graph._ball_layers``) times spread(d), the sum
    of 1 << i*n over bits i of d.  The spread table is built by doubling: the
    codes below 2^(i+1) are those below 2^i, each with and without bit i.
    """
    n = g.n
    layers, balls = _ball_layers(g)
    full = (1 << n) - 1
    top = n if any(b != full for b in balls) else max(map(len, layers))
    lanes = 1 << (top.bit_length() - 1).bit_length()
    spread = [0]
    for i in range(top.bit_length()):
        spread += [s | 1 << i * n for s in spread]
    steps, far = spread[1:], spread[top]
    return [sum(map(mul, ls, steps)) + (full ^ b) * far
            for ls, b in zip(layers, balls)], lanes


def _pair_masks(g: Graph, split: bool) -> Iterator[int]:
    """Bitmask of R{x,y} for every pair x < y of one colour class, in
    lexicographic pair order: the XOR of rows x and y (``_distance_rows``),
    its lanes OR-ed onto lane 0.

    Without ``split`` there is one class, V.  With it, a connected bipartite
    graph has two, the parity of d(0, z), which bit 0 of row 0 holds: every
    z resolves a pair at odd distance, since d(x, z) and d(y, z) differ in
    parity, so those pairs are skipped and V is yielded once for them.
    """
    rows, lanes = _distance_rows(g)
    full = (1 << g.n) - 1
    odd = rows[0] & full
    # The classes hold when every edge joins them and no vertex is isolated:
    # vertices out of reach of 0 all have the code n, so an edge between two
    # of them would join one class.
    if not (split and all(g.adj) and all((odd >> u ^ odd >> v) & 1 for u, v in g.edges)):
        odd = 0
    classes = [[r for z, r in enumerate(rows) if odd >> z & 1 == c] for c in (0, 1)]
    seen = [0, 0]
    shifts = [g.n * lanes >> i for i in range(1, lanes.bit_length())]
    for x, rx in enumerate(rows):
        c = odd >> x & 1
        seen[c] += 1
        for ry in classes[c][seen[c]:]:
            v = rx ^ ry
            for s in shifts:
                v |= v >> s
            yield v & full
    if odd:
        yield full


def resolver_masks(g: Graph) -> Iterator[int]:
    """Bitmask of R{x,y} for every pair x < y, in lexicographic pair order."""
    return _pair_masks(g, False)


def _minimal_resolvers(g: Graph) -> tuple[int, ...]:
    """The minimal resolver masks of g, in order of first occurrence over the
    pairs.  Pairs that every vertex resolves give V, which is minimal only
    when it is the one set, so they are folded once (``_pair_masks``).
    """
    return tuple(_minimal_masks(dict.fromkeys(_pair_masks(g, True))))


def constraint_system(g: Graph, reduce: bool = True) -> list[ResolvingConstraint]:
    """One constraint per unordered pair, in lexicographic pair order.

    With ``reduce`` set, only one representative per distinct minimal member
    set survives (the LP optimum is unchanged); pair labels of dropped
    constraints are discarded.
    """
    if g.n < 2:
        raise ValueError("constraint systems need at least two vertices")
    system = [
        ResolvingConstraint(p, frozenset(_bits(m)))
        for p, m in zip(combinations(range(g.n), 2), resolver_masks(g))
    ]
    if not reduce:
        return system
    return [system[i] for i in reduce_sets([c.members for c in system])]


def twin_partition(g: Graph) -> TwinPartition:
    """Classes of the twin relation u ~ w iff N(u)-{w} = N(w)-{u}.

    Non-adjacent twins share N(u), adjacent twins N[u].  No vertex has twins
    of both kinds (N(u) = N(w) and N[u] = N[x] put x in N(w), so w in
    N[x] = N[u]), and no N(u) is another vertex's N[w] (u would be in N(u)),
    so each class of size >= 2 is one group of equal masks in one dict.
    """
    groups: dict[int, list[int]] = {}
    for u, nbrs in enumerate(g.adj):
        m = sum(1 << v for v in nbrs)
        groups.setdefault(m, []).append(u)
        groups.setdefault(m | 1 << u, []).append(u)
    twins = [tuple(c) for c in groups.values() if len(c) >= 2]
    paired = {v for c in twins for v in c}
    singles = [(v,) for v in range(g.n) if v not in paired]
    return TwinPartition(tuple(sorted(twins + singles)))


def r_of(g: Graph) -> int:
    """Minimum resolver-set size over all vertex pairs."""
    if g.n < 2:
        raise ValueError("r(G) needs at least two vertices")
    # A smallest resolver set has no proper subset among them: it is minimal.
    return min(m.bit_count() for m in _minimal_resolvers(g))


def tree_profile(g: Graph) -> TreeProfile:
    """Count end-vertices and exterior major vertices of a tree.

    An end-vertex is terminal to the major vertex strictly nearest to it.
    Its leg runs through degree-2 vertices, and every path out of the leg
    passes the first vertex of another degree: that is the nearest major
    vertex, or the other end of a path.  A path has no major vertex:
    ex = ex1 = 0 and sigma = 2 (or 0 for n = 1).
    """
    if not is_tree(g):
        raise ValueError("tree_profile needs a tree")
    adj = g.adj
    ends = [v for v in range(g.n) if len(adj[v]) == 1]
    terminal: dict[int, list[int]] = {}
    for leaf in ends:
        prev, v = leaf, adj[leaf][0]
        while len(adj[v]) == 2:
            a, b = adj[v]
            prev, v = v, b if a == prev else a
        if len(adj[v]) >= 3:
            terminal.setdefault(v, []).append(leaf)
    exterior = tuple(MajorVertex(v, len(ts), tuple(ts)) for v, ts in sorted(terminal.items()))
    ex1 = sum(1 for mv in exterior if mv.terminal_degree == 1)
    return TreeProfile(len(ends), exterior, len(exterior), ex1)


# Largest graph the exact automorphism search accepts.
_MAX_TRANSITIVITY_N = 16


def _extend_isometry(d: Sequence[Sequence[float]], e: Sequence[Sequence[float]],
                     image: list[int]) -> bool:
    """Extend the map p -> image[p] of the graph with distance rows ``d`` into
    the one with rows ``e``, vertex by vertex, keeping every distance.

    A candidate w for the next vertex u needs d(u, p) = e(w, image[p]) for
    every p mapped so far.  Only w is at distance 0 from w, so no vertex is
    taken twice; a complete map is then a bijection that keeps distance 1,
    adjacency, both ways: an isomorphism.  Every isomorphism keeps distances,
    so none is missed.
    """
    u = len(image)
    if u == len(d):
        return True
    known = d[u][:u]
    for w, ew in enumerate(e):
        if tuple(map(ew.__getitem__, image)) == known:
            image.append(w)
            if _extend_isometry(d, e, image):
                return True
            image.pop()
    return False


def _isomorphic(g: Graph, h: Graph) -> bool:
    """Equal order, equal sorted distance rows, then ``_extend_isometry``."""
    if g.n != h.n:
        return False
    d, e = all_pairs_distances(g).rows, all_pairs_distances(h).rows
    return sorted(map(sorted, d)) == sorted(map(sorted, e)) and _extend_isometry(d, e, [])


def is_vertex_transitive(g: Graph) -> bool:
    """Exact test for n <= _MAX_TRANSITIVITY_N: every vertex has the same
    sorted distance row, and vertex 0 maps onto each other vertex by an
    automorphism (``_extend_isometry``).

    The cycles of every automorphism found join a union-find, whose classes
    are orbits of the group found so far; a target already joined to vertex
    0 needs no search of its own.
    """
    if g.n > _MAX_TRANSITIVITY_N:
        raise ValueError("instance too large for exact automorphism search "
                         f"(n={g.n} > {_MAX_TRANSITIVITY_N})")
    d = all_pairs_distances(g).rows
    if len({tuple(sorted(row)) for row in d}) > 1:
        return False
    parent = list(range(g.n))

    def find(v: int) -> int:
        while parent[v] != v:
            parent[v] = v = parent[parent[v]]
        return v

    for t in range(1, g.n):
        if find(t) == find(0):
            continue
        image = [t]
        if not _extend_isometry(d, d, image):
            return False
        for p, w in enumerate(image):
            parent[find(p)] = find(w)
    return True


def twin_multiplicities(members: Sequence[Graph]) -> list[int]:
    """For each vertex, the number of members in which it lies in a twin
    class of size >= 2; one twin partition per member."""
    counts = [0] * max(g.n for g in members)
    for g in members:
        for c in twin_partition(g).nontrivial():
            for v in c:
                counts[v] += 1
    return counts


def family_twin_multiplicity(family, u: int) -> int:
    """Number of family members in which u lies in a twin class of size >= 2."""
    members: Sequence[Graph] = getattr(family, "members", family)
    for g in members:
        if not 0 <= u < g.n:
            raise ValueError(f"vertex {u} not in a graph on {g.n} vertices")
    return twin_multiplicities(members)[u] if members else 0
