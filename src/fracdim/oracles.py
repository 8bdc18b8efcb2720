"""Closed-form dimension values, computed without touching the LP solver.

These serve as the independent test oracle.  A single graph is classified by
its structure alone (complete, cycle with leaves, tree, wheel, bouquet, ...),
and a single-graph spec only builds the graph, so a spec and any relabelled
copy of its graph get the same answer.  Specs are matched by kind only for
families.  The one general-purpose tool used here is the exact
vertex-transitivity test plus the minimum resolver-set size r(G), never a
linear program.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction

from .graph import Graph, _ball_layers, is_connected, is_tree
from .metric import is_vertex_transitive, r_of, tree_profile, twin_partition
from .families import FamilySpec, format_spec, generate, parse_spec


class NoClosedForm(LookupError):
    """No closed form known for the requested instance."""


@dataclass(frozen=True)
class OracleValue:
    value: Fraction
    source: str
    applicability: str


def _val(value, source: str, applicability: str) -> OracleValue:
    return OracleValue(Fraction(value), source, applicability)


def has_fixed_point_free_twin_permutation(g: Graph) -> bool:
    """True iff every twin class has size >= 2.

    Cycling each class gives a fixed-point-free map sending every vertex to
    a twin, and conversely a singleton class admits no twin image; this
    predicate characterizes the n/2 dimension maximum.
    """
    if g.n < 2:
        raise ValueError("needs at least two vertices")
    return all(len(c) >= 2 for c in twin_partition(g).classes)


def _vertex_transitive(g: Graph) -> bool:
    try:
        return is_vertex_transitive(g)
    except ValueError as exc:  # above the automorphism search's size limit
        raise NoClosedForm(str(exc)) from None


def _is_complete(g: Graph) -> bool:
    return len(g.edges) == g.n * (g.n - 1) // 2


def _is_petersen(g: Graph) -> bool:
    # Ten vertices, each with 3 at distance 1 and 6 at distance 2: the unique
    # Moore graph of degree 3 and diameter 2 (Hoffman and Singleton 1960).
    return g.n == 10 and all(list(map(int.bit_count, ls)) == [3, 6] for ls in _ball_layers(g)[0])


def _induced(g: Graph, keep: list[int]) -> Graph:
    index = {v: i for i, v in enumerate(keep)}
    edges = [
        (index[u], index[v]) for u, v in g.edges if u in index and v in index
    ]
    return Graph(len(keep), edges)


def _leaf_counts(g: Graph) -> list[int] | None:
    """Leaf count of each cycle vertex, in cycle order, if g is one cycle
    (its vertices of degree >= 2) with leaves hung on it; else None.  O(n + m)."""
    deg = [len(ns) for ns in g.adj]
    ring = {v: [w for w in g.adj[v] if deg[w] >= 2] for v in range(g.n) if deg[v] >= 2}
    if len(ring) < 3 or any(len(ns) != 2 for ns in ring.values()):
        return None
    start = min(ring)
    order = [start, ring[start][0]]
    while len(order) < len(ring):
        a, b = ring[order[-1]]
        order.append(b if a == order[-2] else a)
    leaves = [deg[v] - 2 for v in order]
    return leaves if len(set(order)) == len(ring) == g.n - sum(leaves) else None


def _cycle_with_leaves(counts: list[int]) -> OracleValue:
    """Closed form of a cycle whose i-th vertex carries counts[i] leaves."""
    k, loaded = len(counts), [c for c in counts if c]
    if not loaded:  # n/(n-1) for odd n, n/(n-2) for even n
        return _val(Fraction(k, k - 2 + k % 2), "cycle closed form", "cycles")
    if k == 3 and len(loaded) == 1:
        return _val(Fraction(loaded[0] + 2, 2), "star-plus-edge closed form", "stars with one leaf edge")
    # Four-cycle templates, with no two opposite vertices loaded: (c) one
    # loaded vertex, h2 when it has one leaf; (d) two adjacent ones, one with
    # a single leaf, h3 when both have one.  Both tables read
    # max(2, (L + 2)/2) for the largest load L.
    if k == 4 and not (counts[0] * counts[2] or counts[1] * counts[3]) and (len(loaded) == 1 or 1 in loaded):
        value = max(Fraction(2), Fraction(max(loaded) + 2, 2))
        return _val(value, "four-cycle-with-leaves own-dimension table", "four-cycle unicyclic templates (c), (d)")
    raise NoClosedForm("no closed form for this cycle with leaves")


def _is_wheel(g: Graph) -> bool:
    """Some vertex of degree n - 1 leaves a bare cycle when removed."""
    return any(
        g.degree(h) == g.n - 1
        and _leaf_counts(_induced(g, [v for v in range(g.n) if v != h])) == [0] * (g.n - 1)
        for h in range(g.n)
    )


def _bouquet_size(g: Graph) -> int | None:
    """Number of cycles if g is a bouquet glued at one cut-vertex, else None.

    A connected graph with m = |E| - n + 1 >= 2 and degrees 2m once, 2 elsewhere
    is one: without the centre, its 2m neighbours have degree 1, the rest 2,
    and no cycle is cut off, so m paths each close a cycle through the centre.
    """
    m = len(g.edges) - g.n + 1
    if m < 2 or sorted(map(len, g.adj)) != [2] * (g.n - 1) + [2 * m]:
        return None
    return m if is_connected(g) else None


def oracle_dimf(obj: Graph | FamilySpec | str) -> OracleValue:
    """Closed-form fractional dimension of one graph, or NoClosedForm."""
    g = obj if isinstance(obj, Graph) else generate(obj)
    if not isinstance(g, Graph):
        raise NoClosedForm(f"{obj} is a family; see oracle_sdimf")
    n = g.n
    if n < 2:
        raise NoClosedForm("dimension needs at least two vertices")
    if _is_complete(g):
        return _val(Fraction(n, 2), "complete graphs reach the n/2 maximum", "complete graphs")
    counts = _leaf_counts(g)
    if counts is not None:
        # A loaded cycle vertex is the one neighbour of its leaves, so it has
        # no twin, and g is not regular: where the cycle tables have no
        # value, no later rule has one either.
        return _cycle_with_leaves(counts)
    if is_tree(g):
        p = tree_profile(g)
        return _val(
            Fraction(p.sigma - p.ex1, 2),
            "tree closed form (sigma - ex1)/2",
            "trees",
        )
    if _is_petersen(g):
        return _val(Fraction(5, 3), "Petersen graph value 5/3", "the Petersen graph")
    if _is_wheel(g):
        if n <= 5:
            v = Fraction(2)
        elif n == 6:
            v = Fraction(3, 2)
        else:
            v = Fraction(n - 1, 4)
        return _val(v, "wheel piecewise closed form", "wheels K_1 + C_{n-1}")
    m = _bouquet_size(g)
    if m is not None:
        return _val(m, "bouquet of m cycles has dimension m", "bouquets")
    if has_fixed_point_free_twin_permutation(g):
        return _val(
            Fraction(n, 2),
            "all twin classes nontrivial forces n/2",
            "graphs whose twin classes all have size >= 2",
        )
    if is_connected(g) and _vertex_transitive(g):
        return _val(
            Fraction(n, r_of(g)),
            "vertex-transitive ratio |V|/r",
            "vertex-transitive graphs",
        )
    raise NoClosedForm("no closed form known")


# Kinds whose pair with the complement has the graph's own dimension.
_PAIRS_TO_OWN_DIMENSION = frozenset(
    {"complete", "star", "kite", "h1", "wheel", "petersen", "h2", "h3", "unicyclic_c"}
)


def _sdimf_complement_pair(inner: FamilySpec) -> OracleValue:
    kind, params = inner.kind, inner.params
    if kind in _PAIRS_TO_OWN_DIMENSION:
        own = oracle_dimf(inner)
        return _val(own.value, f"pairs to its own dimension: {own.source}", f"{own.applicability} with complement")
    if kind == "path":
        (n,) = params
        if n in (2, 3):
            return _val(1, "two- and three-vertex paths pair to 1", "P_2, P_3 with complement")
        if n == 4:
            return _val(Fraction(4, 3), "the self-complementary path on 4 vertices", "P_4 with complement")
        raise NoClosedForm("longer paths defer to the complement's dimension")
    if kind == "cycle":
        (n,) = params
        if n in (3, 4):
            return _val(Fraction(n, 2), "small cycle pairs reach n/2", "C_3, C_4 with complement")
        return _val(Fraction(n, 4), "cycle complement ratio n/4", "cycles n >= 5 with complement")
    if kind == "fig5_tree":
        (k,) = params
        return _val(Fraction(3 * k, 2), "triple-leaf spine tree pair value 3k/2", "triple-leaf spine trees with complement")
    if kind == "unicyclic_a":
        a, b = params
        if a == 1:
            v = Fraction(2) if b <= 2 else Fraction(b + 3, 2)
        else:
            v = Fraction(a + 3, 2) if b <= 2 else Fraction(a + b + 1, 2)
        return _val(v, "triangle-with-broom pair table", "triangle unicyclic template (a)")
    if kind == "unicyclic_b":
        a, b = params
        if a == 1 and b == 1:
            v = Fraction(3, 2)
        elif min(a, b) == 1:
            v = Fraction(max(a, b) + 2, 2)
        else:
            v = Fraction(a + b + 1, 2)
        return _val(v, "triangle-with-two-leaf-sets pair table", "triangle unicyclic template (b)")
    if kind == "unicyclic_d":
        a, b = params
        if a == 1 and b == 1:
            v = Fraction(2)
        elif min(a, b) == 1:
            v = Fraction(max(a, b), 2) + Fraction(4, 3)
        else:
            v = Fraction(a + b + 2, 2)
        return _val(v, "four-cycle-with-adjacent-leaf-sets pair table", "four-cycle unicyclic template (d)")
    raise NoClosedForm(f"no closed form for with_complement({format_spec(inner)})")


def oracle_sdimf(spec: FamilySpec | str) -> OracleValue:
    """Closed-form Sd_f of a family spec; one the generator rejects raises its ValueError."""
    if isinstance(spec, str):
        spec = parse_spec(spec)
    fam = generate(spec)
    kind, params = spec.kind, spec.params
    if kind == "path_family":
        n, mode = params
        if mode.kind == "shared_end":
            return _val(1, "paths sharing an end-vertex pool to 1", "shared-end path families")
        return _val(Fraction(n, n - 1), "end-free path families pool to n/(n-1)", "path families without a shared end")
    if kind == "cycle_family":
        n = params[0]
        if n % 2:
            return _val(Fraction(n, n - 1), "odd cycle families keep the member value", "odd cycle families")
        return _val(Fraction(n, n - 2), "even cycle families keep the member value", "even cycle families")
    if kind == "petersen_family":
        return _val(Fraction(5, 3), "Petersen families keep the member value", "Petersen families")
    if kind == "circulant_family":
        best = Fraction(0)
        for g in fam.members:
            if not _vertex_transitive(g):
                raise NoClosedForm("a member failed the vertex-transitivity check")
            best = max(best, Fraction(g.n, r_of(g)))
        return _val(best, "vertex-transitive families take the max member value", "vertex-transitive families")
    if kind == "star_family":
        (k,) = params
        return _val(Fraction(k, 2), "rotating-center star family value k/2", "rotating-center star families")
    if kind == "remark_b_family":
        return _val(Fraction(3, 2), "shared-twin spider family value 3/2", "shared-twin spider families")
    if kind == "twin_cycle_family":
        (n,) = params
        return _val(Fraction(n, 2), "constant twin multiplicity forces n/2", "cyclic twin-pair families")
    if kind == "fig1a":
        return _val(Fraction(3, 2), "six-vertex cycle/wheel/path family", "the first fixed six-vertex family")
    if kind == "fig1b":
        return _val(3, "six-vertex twin-saturated family", "the second fixed six-vertex family")
    if kind == "fig2":
        return _val(6, "twelve-vertex twin-saturated tree family", "the fixed twelve-vertex tree family")
    if kind == "fig3":
        return _val(Fraction(5, 2), "five-vertex cyclic twin family", "the fixed five-vertex tree family")
    if kind == "fig3_sub":
        return _val(2, "three-member subfamily value 2", "the fixed five-vertex subfamily")
    if kind == "with_complement":
        return _sdimf_complement_pair(params[0])
    raise NoClosedForm(f"no closed form known for {format_spec(spec)}")
