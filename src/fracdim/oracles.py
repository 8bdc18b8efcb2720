"""Closed-form dimension values, computed without touching the LP solver.

These serve as the independent test oracle.  A single graph is classified by
its structure alone (complete, cycle with leaves, tree, wheel, bouquet, ...),
and a single-graph spec only builds the graph, so a spec and any relabelled
copy of its graph get the same answer.  A family is answered from its
members where a theorem allows it: vertex-transitive members (Prop 7) and a
constant twin multiplicity.  Its other values are matched by spec kind.  The
one general-purpose tool used here is the exact vertex-transitivity test
plus the minimum resolver-set size r(G), never a linear program.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from typing import Sequence

from .graph import Graph, _ball_layers, is_connected, is_tree
from .metric import is_vertex_transitive, r_of, tree_profile, twin_multiplicities, twin_partition
from .families import FamilySpec, format_spec, generate, parse_spec


class NoClosedForm(LookupError):
    """No closed form known for the requested instance."""


@dataclass(frozen=True)
class OracleValue:
    value: Fraction


def _val(value) -> OracleValue:
    return OracleValue(Fraction(value))


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
        return _val(Fraction(k, k - 2 + k % 2))
    if k == 3 and len(loaded) == 1:  # a star plus one edge between two leaves
        return _val(Fraction(loaded[0] + 2, 2))
    # Four-cycle templates, with no two opposite vertices loaded: (c) one
    # loaded vertex, h2 when it has one leaf; (d) two adjacent ones, one with
    # a single leaf, h3 when both have one.  Both tables read
    # max(2, (L + 2)/2) for the largest load L.
    if k == 4 and not (counts[0] * counts[2] or counts[1] * counts[3]) and (len(loaded) == 1 or 1 in loaded):
        return _val(max(Fraction(2), Fraction(max(loaded) + 2, 2)))
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
        return _val(Fraction(n, 2))
    counts = _leaf_counts(g)
    if counts is not None:
        # A loaded cycle vertex is the one neighbour of its leaves, so it has
        # no twin, and g is not regular: where the cycle tables have no
        # value, no later rule has one either.
        return _cycle_with_leaves(counts)
    if is_tree(g):
        p = tree_profile(g)
        return _val(Fraction(p.sigma - p.ex1, 2))
    if _is_petersen(g):
        return _val(Fraction(5, 3))
    if _is_wheel(g):
        return _val(2 if n <= 5 else Fraction(3, 2) if n == 6 else Fraction(n - 1, 4))
    m = _bouquet_size(g)
    if m is not None:  # a bouquet of m cycles has dimension m
        return _val(m)
    if has_fixed_point_free_twin_permutation(g):
        return _val(Fraction(n, 2))
    if is_connected(g) and _vertex_transitive(g):
        return _val(Fraction(n, r_of(g)))
    raise NoClosedForm("no closed form known")


# Kinds whose pair with the complement has the graph's own dimension.
_PAIRS_TO_OWN_DIMENSION = frozenset(
    {"complete", "star", "kite", "h1", "wheel", "petersen", "h2", "h3", "unicyclic_c"}
)

# Generators whose members are all vertex-transitive.
_VERTEX_TRANSITIVE_FAMILIES = frozenset({"cycle_family", "petersen_family", "circulant_family"})

# Family values known by kind alone; fig1b's twin multiplicities are 1, 2 and 3.
_FIXED_FAMILIES = {
    "fig1a": Fraction(3, 2),
    "fig1b": Fraction(3),
    "fig3_sub": Fraction(2),
    "remark_b_family": Fraction(3, 2),
}


def _complement_pair(inner: FamilySpec) -> Fraction | None:
    """Sd_f of {G, complement(G)} from the kind of G's spec, or None."""
    kind, params = inner.kind, inner.params
    if kind == "path":
        # P_4 is self-complementary; longer paths take the complement's dimension.
        return {2: Fraction(1), 3: Fraction(1), 4: Fraction(4, 3)}.get(params[0])
    if kind == "cycle":
        (n,) = params
        return Fraction(n, 2) if n <= 4 else Fraction(n, 4)
    if kind == "fig5_tree":
        return Fraction(3 * params[0], 2)
    if kind == "unicyclic_a":
        a, b = params
        if a == 1:
            return Fraction(2) if b <= 2 else Fraction(b + 3, 2)
        return Fraction(a + 3, 2) if b <= 2 else Fraction(a + b + 1, 2)
    if kind == "unicyclic_b":
        a, b = params
        if a == b == 1:
            return Fraction(3, 2)
        return Fraction(max(a, b) + 2, 2) if min(a, b) == 1 else Fraction(a + b + 1, 2)
    if kind == "unicyclic_d":
        a, b = params
        if a == b == 1:
            return Fraction(2)
        return Fraction(max(a, b), 2) + Fraction(4, 3) if min(a, b) == 1 else Fraction(a + b + 2, 2)
    return None


def _constant_twin_multiplicity(members: Sequence[Graph]) -> bool:
    """Every vertex lies in a twin class of size >= 2 in the same number
    m >= 1 of members."""
    counts = twin_multiplicities(members)
    return min(counts) == max(counts) > 0


def oracle_sdimf(spec: FamilySpec | str) -> OracleValue:
    """Closed-form Sd_f of a family spec; one the generator rejects raises its ValueError."""
    if isinstance(spec, str):
        spec = parse_spec(spec)
    fam = generate(spec)
    if isinstance(fam, Graph):
        raise NoClosedForm(f"{format_spec(spec)} is one graph; see oracle_dimf")
    kind, params = spec.kind, spec.params
    if kind in _VERTEX_TRANSITIVE_FAMILIES:
        # Prop 7: the largest member value |V|/r.
        return _val(max(oracle_dimf(g).value for g in fam.members))
    if kind == "with_complement" and params[0].kind in _PAIRS_TO_OWN_DIMENSION:
        return oracle_dimf(params[0])
    if kind == "path_family":
        n, mode = params
        value = Fraction(1) if mode.kind == "shared_end" else Fraction(n, n - 1)
    elif kind == "with_complement":
        value = _complement_pair(params[0])
    else:
        value = _FIXED_FAMILIES.get(kind)
    if value is not None:
        return _val(value)
    if _constant_twin_multiplicity(fam.members):
        # Lemma 1 in each member: a twin class C needs h(C) >= |C|/2.  Summed
        # over the members, m h(V) >= m n/2, and h = 1/2 resolves every pair.
        return _val(Fraction(fam.n, 2))
    raise NoClosedForm(f"no closed form known for {format_spec(spec)}")
