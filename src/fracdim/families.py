"""Deterministic generators for named graphs and graph families.

Every generator is reproducible from its spec string (e.g. ``wheel(6)``,
``unicyclic_d(2,3)``, ``with_complement(cycle(7))``); randomized kinds carry
an explicit seed and draw from SplitMix64, so the same spec regenerates the
same graph anywhere.  Figure edge lists are hard-coded and frozen; tests pin
the twin structure they must exhibit.
"""

from __future__ import annotations

import heapq
import re
from dataclasses import dataclass
from typing import Callable, Iterable, Union

from .graph import Graph, GraphFamily, complement, is_connected

_M64 = (1 << 64) - 1


class SplitMix64:
    """SplitMix64 generator (Steele/Lea/Flood): a portable 64-bit stream."""

    def __init__(self, seed: int):
        self._state = seed & _M64

    def next_u64(self) -> int:
        self._state = (self._state + 0x9E3779B97F4A7C15) & _M64
        z = self._state
        z = ((z ^ (z >> 30)) * 0xBF58476D1CE4E5B9) & _M64
        z = ((z ^ (z >> 27)) * 0x94D049BB133111EB) & _M64
        return z ^ (z >> 31)

    def below(self, bound: int) -> int:
        return self.next_u64() % bound

    def shuffle(self, items: list) -> None:
        for i in range(len(items) - 1, 0, -1):
            j = self.below(i + 1)
            items[i], items[j] = items[j], items[i]


Param = Union[int, "FamilySpec"]


@dataclass(frozen=True)
class FamilySpec:
    """A generator kind plus its parameters, writable as ``kind(p1,p2)``.

    A parameter is an integer or a nested spec; a bare word such as the mode
    ``rotations`` is the parameterless spec ``FamilySpec("rotations")``.
    """

    kind: str
    params: tuple[Param, ...] = ()

    def __str__(self) -> str:
        return format_spec(self)


# Spec levels allowed; the deepest valid spec, such as with_complement(cycle(7)),
# has two.  The cap bounds the parser's recursion on any input.
_MAX_NESTING = 8
# Tokens (name, integer, other): "other" is any one character that is not
# whitespace, and the parser accepts it only as "(", ")" or ",".
_TOKEN = re.compile(r"([A-Za-z_][A-Za-z_0-9]*)|(-?\d+)|(\S)")
_END = ("", "", "")


def _shown(token: tuple[str, str, str]) -> str:
    return repr("".join(token)) if token != _END else "the end of the spec"


def parse_spec(text: str) -> FamilySpec:
    """Parse ``kind`` or ``kind(p, ...)``; whitespace is ignored everywhere."""
    tokens = _TOKEN.findall(text) + [_END]
    spec, i = _parse_param(tokens, 0, 1)
    if not isinstance(spec, FamilySpec):
        raise ValueError(f"expected a kind name, got {_shown(tokens[0])}")
    if tokens[i] != _END:
        raise ValueError(f"trailing junk in spec: {_shown(tokens[i])}")
    return spec


def _parse_param(tokens: list[tuple[str, str, str]], i: int, depth: int) -> tuple[Param, int]:
    """The parameter that starts at ``tokens[i]``, and the index after it."""
    name, number, _ = tokens[i]
    if number:
        return int(number), i + 1
    if not name:
        raise ValueError(f"expected a name or integer, got {_shown(tokens[i])}")
    if depth > _MAX_NESTING:
        raise ValueError(f"spec nests deeper than {_MAX_NESTING} levels")
    params: list[Param] = []
    i += 1
    if tokens[i][2] == "(" and tokens[i + 1][2] == ")":
        i += 2
    elif tokens[i][2] == "(":
        sep = ","
        while sep == ",":
            param, i = _parse_param(tokens, i + 1, depth + 1)
            params.append(param)
            sep = tokens[i][2]
        if sep != ")":
            raise ValueError(f"expected ',' or ')' in spec, got {_shown(tokens[i])}")
        i += 1
    return FamilySpec(name, tuple(params)), i


def format_spec(spec: FamilySpec) -> str:
    if not spec.params:
        return spec.kind
    return f"{spec.kind}({','.join(map(str, spec.params))})"


def _path_edges(order: Iterable[int]) -> list[tuple[int, int]]:
    order = list(order)
    return [(order[i], order[i + 1]) for i in range(len(order) - 1)]


def path(n: int) -> Graph:
    if n < 1:
        raise ValueError("path needs n >= 1")
    return Graph(n, _path_edges(range(n)))


def cycle(n: int) -> Graph:
    if n < 3:
        raise ValueError("cycle needs n >= 3")
    return Graph(n, _path_edges(range(n)) + [(n - 1, 0)])


def complete(n: int) -> Graph:
    if n < 1:
        raise ValueError("complete needs n >= 1")
    return Graph(n, [(u, v) for u in range(n) for v in range(u + 1, n)])


def star(n: int) -> Graph:
    """K_{1,n-1} with center 0."""
    if n < 2:
        raise ValueError("star needs n >= 2")
    return Graph(n, [(0, v) for v in range(1, n)])


def wheel(n: int) -> Graph:
    """K_1 + C_{n-1}: hub 0 joined to the cycle 1..n-1."""
    if n < 4:
        raise ValueError("wheel needs n >= 4")
    rim = list(range(1, n))
    edges = [(0, v) for v in rim]
    edges += [(rim[i], rim[(i + 1) % len(rim)]) for i in range(len(rim))]
    return Graph(n, edges)


def petersen() -> Graph:
    edges = []
    for i in range(5):
        edges.append((i, (i + 1) % 5))
        edges.append((5 + i, 5 + (i + 2) % 5))
        edges.append((i, 5 + i))
    return Graph(10, edges)


def bouquet(lengths: Iterable[int]) -> Graph:
    """m >= 2 cycles sharing the single cut-vertex 0."""
    lengths = list(lengths)
    if len(lengths) < 2 or any(ln < 3 for ln in lengths):
        raise ValueError("bouquet needs at least two cycle lengths, each >= 3")
    edges = []
    nxt = 1
    for ln in lengths:
        ring = [0] + list(range(nxt, nxt + ln - 1))
        nxt += ln - 1
        edges += [(ring[i], ring[(i + 1) % ln]) for i in range(ln)]
    return Graph(nxt, edges)


def kite(n: int) -> Graph:
    """K_{1,n-1} plus one edge between two end-vertices (center 0)."""
    if n < 4:
        raise ValueError("kite needs n >= 4")
    return Graph(n, [(0, v) for v in range(1, n)] + [(1, 2)])


def unicyclic_a(a: int, b: int) -> Graph:
    """Triangle 0,1,2; 0 carries supports s_1..s_b; s_1 carries a leaves."""
    if a < 1 or b < 1:
        raise ValueError("unicyclic_a needs a >= 1 and b >= 1")
    edges = [(0, 1), (0, 2), (1, 2)]
    edges += [(0, 3 + i) for i in range(b)]
    edges += [(3, 3 + b + j) for j in range(a)]
    return Graph(3 + b + a, edges)


def unicyclic_b(a: int, b: int) -> Graph:
    """Triangle 0,1,2; 0 carries a leaves and 1 carries b leaves."""
    if a < 1 or b < 1:
        raise ValueError("unicyclic_b needs a >= 1 and b >= 1")
    edges = [(0, 1), (0, 2), (1, 2)]
    edges += [(0, 3 + i) for i in range(a)]
    edges += [(1, 3 + a + j) for j in range(b)]
    return Graph(3 + a + b, edges)


def unicyclic_c(a: int) -> Graph:
    """Four-cycle 0,1,2,3; 0 carries a leaves."""
    if a < 1:
        raise ValueError("unicyclic_c needs a >= 1")
    edges = [(0, 1), (1, 2), (2, 3), (0, 3)]
    edges += [(0, 4 + i) for i in range(a)]
    return Graph(4 + a, edges)


def unicyclic_d(a: int, b: int) -> Graph:
    """Four-cycle 0,1,2,3; adjacent vertices 0 and 1 carry a and b leaves."""
    if a < 1 or b < 1:
        raise ValueError("unicyclic_d needs a >= 1 and b >= 1")
    edges = [(0, 1), (1, 2), (2, 3), (0, 3)]
    edges += [(0, 4 + i) for i in range(a)]
    edges += [(1, 4 + a + j) for j in range(b)]
    return Graph(4 + a + b, edges)


def fig5_tree(k: int) -> Graph:
    """Spine of k branch vertices, each with three pendant leaves (4k vertices)."""
    if k < 2:
        raise ValueError("fig5_tree needs k >= 2")
    edges = [(i, i + 1) for i in range(k - 1)]
    for i in range(k):
        for t in range(3):
            edges.append((i, k + 3 * i + t))
    return Graph(4 * k, edges)


# Figure families, edge lists frozen (0-indexed transcription of u_1..u_n).

_FIG1A = (
    ("C6", [(0, 1), (1, 2), (2, 3), (3, 4), (4, 5), (0, 5)]),
    ("W6", [(0, 1), (0, 2), (0, 3), (0, 4), (0, 5),
            (1, 2), (2, 3), (3, 4), (4, 5), (1, 5)]),
    ("P6", [(0, 1), (1, 2), (2, 3), (3, 4), (4, 5)]),
)

_FIG1B = (
    ("H1", [(0, 4), (3, 4), (2, 3), (0, 1), (0, 5)]),
    ("H2", [(0, 2), (1, 2), (1, 5), (0, 5), (0, 3), (3, 4), (0, 4)]),
    ("H3", [(0, 3), (2, 3), (1, 4), (4, 5), (3, 4)]),
)

_FIG2 = (
    ("G1", [(0, 11), (1, 11), (10, 11), (9, 10), (8, 9), (2, 8),
            (2, 3), (3, 4), (4, 5), (5, 6), (5, 7)]),
    ("G2", [(2, 4), (3, 4), (4, 5), (5, 6), (6, 7), (7, 8), (8, 9),
            (1, 6), (0, 7), (9, 10), (9, 11)]),
    ("G3", [(3, 4), (3, 5), (2, 3), (1, 2), (1, 11), (10, 11),
            (2, 6), (0, 1), (7, 11), (8, 10), (9, 10)]),
)

_FIG3 = (
    ("G1", [(0, 2), (1, 2), (2, 3), (3, 4)]),
    ("G2", [(0, 1), (0, 2), (0, 3), (3, 4)]),
    ("G3", [(1, 2), (1, 3), (0, 4), (0, 1)]),
    ("G4", [(0, 3), (0, 4), (0, 1), (1, 2)]),
    ("G5", [(3, 4), (0, 3), (1, 2), (2, 3)]),
)


def _figure(rows, n: int) -> GraphFamily:
    return GraphFamily([Graph(n, e) for _, e in rows], [name for name, _ in rows])


def path_family(n: int, mode: str) -> GraphFamily:
    """Paths on one vertex set, with or without a common end-vertex."""
    if mode == "shared_end":
        if n < 2:
            raise ValueError("path_family shared_end needs n >= 2")
        orders = [list(range(n)), [0] + list(range(n - 1, 0, -1))]
        if n >= 4:
            orders.append([0, 2, 1] + list(range(3, n)))
        seen: set[tuple[tuple[int, int], ...]] = set()
        members = []
        for o in orders:
            g = Graph(n, _path_edges(o))
            if g.edges not in seen:
                seen.add(g.edges)
                members.append(g)
        return GraphFamily(members)
    if mode == "rotations":
        if n < 3:
            raise ValueError("path_family rotations needs n >= 3")
        members = [
            Graph(n, _path_edges([(r + i) % n for i in range(n)])) for r in range(3)
        ]
        return GraphFamily(members)
    raise ValueError(f"path_family mode must be shared_end or rotations, got {mode!r}")


def star_family(k: int) -> GraphFamily:
    """k stars K_{1,k-1} on k vertices, the i-th centered at vertex i."""
    if k < 4:
        raise ValueError("star_family needs k >= 4")
    members = [
        Graph(k, [(c, v) for v in range(k) if v != c]) for c in range(k)
    ]
    return GraphFamily(members)


def remark_a_family(k: int) -> GraphFamily:
    """k spiders on 3k vertices; member i makes {u_i1, u_i2} a twin pair.

    Vertex 3i+t is u_{i,t}.  Member i has its branch vertex at u_{i,0} with
    leaf twins u_{i,1}, u_{i,2}, and one long path through every other
    vertex, entering at u_{j,0} and ending at u_{j,2} for j = i+1 (mod k).
    """
    if k < 3:
        raise ValueError("remark_a_family needs k >= 3")

    def idx(i: int, t: int) -> int:
        return 3 * (i % k) + t

    members = []
    for i in range(k):
        j = (i + 1) % k
        c = idx(i, 0)
        edges = [(c, idx(i, 1)), (c, idx(i, 2)), (c, idx(j, 0))]
        trail = [idx(j, 0), idx(j, 1)]
        for t in range(2, k):
            m = (i + t) % k
            trail += [idx(m, 0), idx(m, 1), idx(m, 2)]
        trail.append(idx(j, 2))
        edges += _path_edges(trail)
        members.append(Graph(3 * k, edges))
    return GraphFamily(members)


def remark_b_family(k: int) -> GraphFamily:
    """k spiders on k+3 vertices sharing branch vertex 0 with leaf twins 1, 2.

    Member i hangs the path u_i, u_{i+1}, ..., u_{i-1} (cyclic) off vertex 0,
    where u_t is vertex 2+t.
    """
    if k < 3:
        raise ValueError("remark_b_family needs k >= 3")
    members = []
    for i in range(k):
        trail = [3 + (i + t) % k for t in range(k)]  # u_t is vertex 3+t
        edges = [(0, 1), (0, 2), (0, trail[0])] + _path_edges(trail)
        members.append(Graph(k + 3, edges))
    return GraphFamily(members)


def cycle_family(n: int, k: int, seed: int) -> GraphFamily:
    """k Hamiltonian cycles on n vertices from seeded random cyclic orders."""
    if n < 3 or k < 1:
        raise ValueError("cycle_family needs n >= 3 and k >= 1")
    rng = SplitMix64(seed)
    members = []
    for _ in range(k):
        order = list(range(n))
        rng.shuffle(order)
        members.append(Graph(n, _path_edges(order) + [(order[-1], order[0])]))
    return GraphFamily(members)


def petersen_family(k: int, seed: int) -> GraphFamily:
    """k seeded relabelings of the Petersen graph."""
    if k < 1:
        raise ValueError("petersen_family needs k >= 1")
    base = petersen()
    rng = SplitMix64(seed)
    members = []
    for _ in range(k):
        perm = list(range(10))
        rng.shuffle(perm)
        members.append(Graph(10, [(perm[u], perm[v]) for u, v in base.edges]))
    return GraphFamily(members)


def circulant(n: int, steps: Iterable[int]) -> Graph:
    steps = sorted(set(steps))
    if n < 3 or not steps or any(not (1 <= s <= n // 2) for s in steps):
        raise ValueError("circulant needs n >= 3 and steps within 1..n//2")
    edges = [(v, (v + s) % n) for s in steps for v in range(n)]
    return Graph(n, edges)


def circulant_family(n: int, k: int, seed: int) -> GraphFamily:
    """k connected circulants on n vertices (step 1 plus seeded extra steps)."""
    if n < 4 or k < 1:
        raise ValueError("circulant_family needs n >= 4 and k >= 1")
    rng = SplitMix64(seed)
    members = []
    for _ in range(k):
        steps = [1] + [s for s in range(2, n // 2 + 1) if rng.below(2)]
        members.append(circulant(n, steps))
    return GraphFamily(members)


def twin_cycle_family(n: int) -> GraphFamily:
    """n trees on n vertices; member i makes {i, i+1 mod n} a twin leaf pair.

    For n != 4 every vertex lands in a nontrivial twin class of exactly two
    members, so the constant-multiplicity lower bound forces the n/2 optimum.
    At n = 4 every member is a star K_{1,3}, with multiplicities 2, 3, 3, 4.
    """
    if n < 3:
        raise ValueError("twin_cycle_family needs n >= 3")
    members = []
    for i in range(n):
        t1, t2 = i, (i + 1) % n
        rest = [v for v in range(n) if v not in (t1, t2)]
        edges = [(t1, rest[0]), (t2, rest[0])] + _path_edges(rest)
        members.append(Graph(n, edges))
    return GraphFamily(members)


def graph_index(n: int, code: int) -> Graph:
    """The labeled graph whose edge set is the binary code over lexicographic
    pairs (0,1),(0,2),...,(n-2,n-1); bit 0 is the first pair."""
    pairs = [(u, v) for u in range(n) for v in range(u + 1, n)]
    if n < 1 or not (0 <= code < (1 << len(pairs))):
        raise ValueError(f"graph_index needs n >= 1 and code in 0..2^binom({n},2)-1")
    return Graph(n, [p for i, p in enumerate(pairs) if code >> i & 1])


def graph_code(g: Graph) -> int:
    """Inverse of graph_index for the same vertex count."""
    pairs = [(u, v) for u in range(g.n) for v in range(u + 1, g.n)]
    code = 0
    present = set(g.edges)
    for i, p in enumerate(pairs):
        if p in present:
            code |= 1 << i
    return code


def _nested_graph(spec: FamilySpec, param: Param) -> Graph:
    g = generate(param) if isinstance(param, FamilySpec) else None
    if not isinstance(g, Graph):
        raise ValueError(f"{spec.kind} takes nested single-graph specs, got {param}")
    return g


def _gen_family_of(spec: FamilySpec) -> GraphFamily:
    if not spec.params:
        raise ValueError("family_of takes one or more nested graph specs")
    return GraphFamily([_nested_graph(spec, p) for p in spec.params])


def random_tree(n: int, seed: int) -> Graph:
    """Uniform labeled tree from a seeded random Pruefer sequence."""
    if n < 1:
        raise ValueError("random_tree needs n >= 1")
    if n == 1:
        return Graph(1, [])
    rng = SplitMix64(seed)
    seq = [rng.below(n) for _ in range(n - 2)]
    degree = [1] * n
    for v in seq:
        degree[v] += 1
    leaves = [v for v in range(n) if degree[v] == 1]
    heapq.heapify(leaves)
    edges = []
    for v in seq:
        leaf = heapq.heappop(leaves)
        edges.append((leaf, v))
        degree[v] -= 1
        if degree[v] == 1:
            heapq.heappush(leaves, v)
    u, w = heapq.heappop(leaves), heapq.heappop(leaves)
    edges.append((u, w))
    return Graph(n, edges)


def random_unicyclic(n: int, seed: int) -> Graph:
    """A seeded random tree plus one random chord (exactly one cycle)."""
    if n < 3:
        raise ValueError("random_unicyclic needs n >= 3")
    rng = SplitMix64(seed)
    tree = random_tree(n, rng.next_u64())
    present = set(tree.edges)
    non_edges = [
        (u, v)
        for u in range(n)
        for v in range(u + 1, n)
        if (u, v) not in present
    ]
    chord = non_edges[rng.below(len(non_edges))]
    return Graph(n, list(tree.edges) + [chord])


_MAX_PAIR_DRAWS = 10**6


def random_connected(n: int, p: int, seed: int) -> Graph:
    """Seeded G(n, p%) conditioned on connectivity (p is an integer percent).

    Rejection sampling draws once per vertex pair per sample and gives up
    after ``_MAX_PAIR_DRAWS`` draws (but always tries one sample).
    """
    if n < 1:
        raise ValueError("random_connected needs n >= 1")
    if not (0 <= p <= 100):
        raise ValueError("random_connected needs p in 0..100 (a percentage)")
    if n == 1:
        return Graph(1, [])
    if p == 0:
        raise ValueError("p=0 cannot give a connected graph on n >= 2 vertices")
    rng = SplitMix64(seed)
    for _ in range(max(1, _MAX_PAIR_DRAWS // (n * (n - 1) // 2))):
        edges = [
            (u, v)
            for u in range(n)
            for v in range(u + 1, n)
            if rng.below(100) < p
        ]
        g = Graph(n, edges)
        if is_connected(g):
            return g
    raise ValueError(f"no connected sample found for n={n}, p={p}%")


def random_family(n: int, k: int, seed: int) -> GraphFamily:
    """k seeded random connected graphs on n vertices (edge density varies)."""
    if n < 2 or k < 1:
        raise ValueError("random_family needs n >= 2 and k >= 1")
    rng = SplitMix64(seed)
    members = [
        random_connected(n, 40 + 15 * (i % 3), rng.next_u64()) for i in range(k)
    ]
    return GraphFamily(members)


def with_complement(g: Graph, name: str = "G") -> GraphFamily:
    """The two-member family {G, complement(G)}."""
    return GraphFamily([g, complement(g)], [name, f"complement({name})"])


def _gen_with_complement(spec: FamilySpec) -> GraphFamily:
    if len(spec.params) != 1:
        raise ValueError("with_complement takes one nested graph spec")
    (inner,) = spec.params
    return with_complement(_nested_graph(spec, inner), str(inner))


def _ints(spec: FamilySpec, count: int) -> list[int]:
    if len(spec.params) != count or any(not isinstance(p, int) for p in spec.params):
        raise ValueError(
            f"{spec.kind} takes {count} integer parameter(s), got {format_spec(spec)}"
        )
    return list(spec.params)  # type: ignore[arg-type]


_GENERATORS: dict[str, Callable[[FamilySpec], Graph | GraphFamily]] = {
    "path": lambda s: path(*_ints(s, 1)),
    "cycle": lambda s: cycle(*_ints(s, 1)),
    "complete": lambda s: complete(*_ints(s, 1)),
    "star": lambda s: star(*_ints(s, 1)),
    "wheel": lambda s: wheel(*_ints(s, 1)),
    "petersen": lambda s: petersen(*_ints(s, 0)),
    "bouquet": lambda s: bouquet(_ints(s, len(s.params))),
    "kite": lambda s: kite(*_ints(s, 1)),
    "unicyclic_a": lambda s: unicyclic_a(*_ints(s, 2)),
    "unicyclic_b": lambda s: unicyclic_b(*_ints(s, 2)),
    "unicyclic_c": lambda s: unicyclic_c(*_ints(s, 1)),
    "unicyclic_d": lambda s: unicyclic_d(*_ints(s, 2)),
    # The fixed kinds unpack _ints(s, 0), which rejects any parameter.
    "h1": lambda s: kite(4, *_ints(s, 0)),
    "h2": lambda s: unicyclic_c(1, *_ints(s, 0)),
    "h3": lambda s: unicyclic_d(1, 1, *_ints(s, 0)),
    "fig1a": lambda s: _figure(_FIG1A, 6, *_ints(s, 0)),
    "fig1b": lambda s: _figure(_FIG1B, 6, *_ints(s, 0)),
    "fig2": lambda s: _figure(_FIG2, 12, *_ints(s, 0)),
    "fig3": lambda s: _figure(_FIG3, 5, *_ints(s, 0)),
    "fig3_sub": lambda s: _figure(tuple(_FIG3[i] for i in (0, 1, 3)), 5, *_ints(s, 0)),
    "fig5_tree": lambda s: fig5_tree(*_ints(s, 1)),
    "path_family": lambda s: _gen_path_family(s),
    "star_family": lambda s: star_family(*_ints(s, 1)),
    "remark_a_family": lambda s: remark_a_family(*_ints(s, 1)),
    "remark_b_family": lambda s: remark_b_family(*_ints(s, 1)),
    "cycle_family": lambda s: cycle_family(*_ints(s, 3)),
    "petersen_family": lambda s: petersen_family(*_ints(s, 2)),
    "circulant": lambda s: _gen_circulant(s),
    "circulant_family": lambda s: circulant_family(*_ints(s, 3)),
    "twin_cycle_family": lambda s: twin_cycle_family(*_ints(s, 1)),
    "graph_index": lambda s: graph_index(*_ints(s, 2)),
    "family_of": _gen_family_of,
    "random_tree": lambda s: random_tree(*_ints(s, 2)),
    "random_unicyclic": lambda s: random_unicyclic(*_ints(s, 2)),
    "random_connected": lambda s: random_connected(*_ints(s, 3)),
    "random_family": lambda s: random_family(*_ints(s, 3)),
    "with_complement": _gen_with_complement,
}


def _gen_circulant(spec: FamilySpec) -> Graph:
    if len(spec.params) < 2:
        raise ValueError("circulant takes (n, step, ...)")
    values = _ints(spec, len(spec.params))
    return circulant(values[0], values[1:])


def _gen_path_family(spec: FamilySpec) -> GraphFamily:
    n, mode = spec.params if len(spec.params) == 2 else (None, None)
    if not isinstance(n, int) or not isinstance(mode, FamilySpec) or mode.params:
        raise ValueError("path_family takes (n, shared_end|rotations)")
    return path_family(n, mode.kind)


def known_kinds() -> tuple[str, ...]:
    return tuple(sorted(_GENERATORS))


def generate(spec: FamilySpec | str) -> Graph | GraphFamily:
    """Build the graph or family a spec describes; deterministic per spec."""
    if isinstance(spec, str):
        spec = parse_spec(spec)
    try:
        builder = _GENERATORS[spec.kind]
    except KeyError:
        raise ValueError(f"unknown generator kind {spec.kind!r}") from None
    return builder(spec)
