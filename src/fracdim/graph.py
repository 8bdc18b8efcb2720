"""Simple undirected graphs, families of them, their two text formats, and
their distances.

Vertices are dense integers 0..n-1.  Graphs and families are immutable
after construction and safe to share; every operation here is a pure
function.
Every distance comes from one source, the bitmask ball layers of
``_ball_layers``.  Unreachable vertex pairs get the distance ``INF``, which
compares equal only to itself and greater than every finite distance.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property
from typing import Iterable, Sequence

from .lp import _bits

INF: float = float("inf")


class GraphError(ValueError):
    """Invalid graph construction (self-loop, vertex out of range, ...)."""


class ParseError(ValueError):
    """Malformed textual graph input; the message names the line."""


@dataclass(frozen=True)
class Graph:
    """Simple undirected graph; edges are canonicalized to sorted (u, v) pairs."""

    n: int
    edges: tuple[tuple[int, int], ...]

    def __init__(self, n: int, edges: Iterable[tuple[int, int]] = ()):
        if n < 1:
            raise GraphError(f"vertex count must be >= 1, got {n}")
        canon = set()
        for u, v in edges:
            if u == v:
                raise GraphError(f"self-loop at vertex {u}")
            if not (0 <= u < n and 0 <= v < n):
                raise GraphError(f"edge ({u},{v}) out of range for n={n}")
            canon.add((u, v) if u < v else (v, u))
        object.__setattr__(self, "n", n)
        object.__setattr__(self, "edges", tuple(sorted(canon)))

    @cached_property
    def adj(self) -> tuple[tuple[int, ...], ...]:
        """Sorted neighbor lists; iteration order is deterministic."""
        nbr: list[list[int]] = [[] for _ in range(self.n)]
        for u, v in self.edges:
            nbr[u].append(v)
            nbr[v].append(u)
        return tuple(tuple(sorted(ns)) for ns in nbr)

    def degree(self, v: int) -> int:
        return len(self.adj[v])

    def has_edge(self, u: int, v: int) -> bool:
        return ((u, v) if u < v else (v, u)) in self._edge_set

    @cached_property
    def _edge_set(self) -> frozenset[tuple[int, int]]:
        return frozenset(self.edges)


@dataclass(frozen=True)
class GraphFamily:
    """Non-empty list of graphs on a common vertex set (k = 1 is allowed)."""

    n: int
    members: tuple[Graph, ...]
    names: tuple[str, ...] | None

    def __init__(self, members: Iterable[Graph], names: Sequence[str] | None = None):
        members = tuple(members)
        if not members:
            raise ValueError("a graph family needs at least one member")
        n = members[0].n
        if any(g.n != n for g in members):
            raise ValueError("family members must share one vertex count")
        if names is not None:
            names = tuple(names)
            if len(names) != len(members):
                raise ValueError("one name per member, please")
        object.__setattr__(self, "n", n)
        object.__setattr__(self, "members", members)
        object.__setattr__(self, "names", names)

    def __len__(self) -> int:
        return len(self.members)


@dataclass(frozen=True)
class DistanceMatrix:
    """All-pairs shortest-path table; entries are hop counts or INF."""

    n: int
    rows: tuple[tuple[float, ...], ...]

    def __getitem__(self, i: int) -> tuple[float, ...]:
        return self.rows[i]


def _is_decimal(token: str) -> bool:
    """Only ASCII digits, the tokens the writers emit: ``int`` also takes a
    sign, ``_`` separators and non-ASCII digits."""
    return token.isascii() and token.isdigit()


def _parse_blocks(text: str | bytes) -> tuple[int, list[list]]:
    """Read the edge-list and family formats: header ``n <count>``, then
    ``u v`` edge lines, optionally grouped under ``graph <name>`` lines.

    Counts and vertex ids are ASCII decimal digits.  Blank lines and ``#``
    lines are ignored; errors name the 1-based line.
    Returns the vertex count and the blocks as ``[name, line, edges]``,
    with the edges as dict keys in file order.  The first block holds the
    edges before any ``graph`` line, with name None and the line of its
    first edge (0 if it has none).
    """
    if isinstance(text, bytes):
        text = text.decode("utf-8")
    n: int | None = None
    blocks: list[list] = [[None, 0, {}]]
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.strip()
        if not line or line.startswith("#"):
            continue
        parts = line.split()
        if n is None:
            if len(parts) != 2 or parts[0] != "n":
                raise ParseError(f"expected header 'n <count>' at line {lineno}")
            if not _is_decimal(parts[1]):
                raise ParseError(f"bad vertex count at line {lineno}")
            n = int(parts[1])
            if n < 1:
                raise ParseError(f"vertex count must be >= 1 at line {lineno}")
            continue
        if parts[0] == "graph":
            if len(parts) != 2:
                raise ParseError(f"expected 'graph <name>' at line {lineno}")
            blocks.append([parts[1], lineno, {}])
            continue
        if len(parts) != 2 or not all(map(_is_decimal, parts)):
            raise ParseError(f"malformed edge line at line {lineno}: {line!r}")
        u, v = map(int, parts)
        if u == v:
            raise ParseError(f"self-loop at line {lineno}")
        if not (0 <= u < n and 0 <= v < n):
            raise ParseError(f"vertex id out of range at line {lineno}")
        key = (u, v) if u < v else (v, u)
        if key in blocks[-1][2]:
            raise ParseError(f"duplicate edge at line {lineno}")
        if not blocks[-1][1]:  # the first edge of the unnamed first block
            blocks[-1][1] = lineno
        blocks[-1][2][key] = None
    if n is None:
        raise ParseError("missing header 'n <count>'")
    return n, blocks


def parse_graph(text: str | bytes) -> Graph:
    """Parse the edge-list format: header ``n <count>``, then ``u v`` lines.

    Errors name the 1-based line; a ``graph <name>`` line is one of them.
    """
    n, blocks = _parse_blocks(text)
    if len(blocks) > 1:
        raise ParseError(f"'graph <name>' at line {blocks[1][1]}: a family file, not one graph")
    return Graph(n, blocks[0][2])


def format_graph(g: Graph) -> str:
    """Inverse of parse_graph: emit the edge-list format."""
    lines = [f"n {g.n}"]
    lines.extend(f"{u} {v}" for u, v in g.edges)
    return "\n".join(lines) + "\n"


def _family(n: int, blocks: list[list]) -> GraphFamily:
    (_, line, head), *named = blocks
    if head:
        raise ParseError(f"edge before any 'graph <name>' block at line {line}")
    if not named:
        raise ParseError("family file needs at least one 'graph <name>' block")
    return GraphFamily([Graph(n, edges) for _, _, edges in named], [name for name, _, _ in named])


def parse_family_file(text: str) -> GraphFamily:
    """Parse the family format: ``n <count>`` then ``graph <name>`` blocks."""
    return _family(*_parse_blocks(text))


def _parse_input(text: str | bytes) -> Graph | GraphFamily:
    """Either format: a family iff some ``graph <name>`` line is present."""
    n, blocks = _parse_blocks(text)
    return _family(n, blocks) if len(blocks) > 1 else Graph(n, blocks[0][2])


def format_family_file(fam: GraphFamily) -> str:
    """Inverse of parse_family_file; unnamed members are written G1, G2, ...

    A name must be the one token the reader takes after ``graph``.
    """
    lines = [f"n {fam.n}"]
    for i, g in enumerate(fam.members):
        name = fam.names[i] if fam.names else f"G{i + 1}"
        if name.split() != [name]:
            raise ValueError(f"member {i + 1} name {name!r} is empty or holds whitespace")
        lines.append(f"graph {name}")
        lines.extend(f"{u} {v}" for u, v in g.edges)
    return "\n".join(lines) + "\n"


def complement(g: Graph) -> Graph:
    """Complement within all unordered pairs; an involution."""
    present = g._edge_set
    edges = [
        (u, v)
        for u in range(g.n)
        for v in range(u + 1, g.n)
        if (u, v) not in present
    ]
    return Graph(g.n, edges)


def _ball_layers(g: Graph) -> tuple[list[list[int]], list[int]]:
    """Each vertex's distance layers and final ball, as bitmasks: bit z of
    ``layers[x][d - 1]`` is set iff d(x, z) = d, and ``balls[x]`` holds every
    vertex in reach of x.

    The balls B_x(d + 1) = B_x(d) | OR of B_u(d), u ~ x, grow while they
    can.  Nothing is cached per graph; a caller keeps what it needs.
    """
    n, adj = g.n, g.adj
    balls = [1 << x for x in range(n)]
    layers: list[list[int]] = [[] for _ in range(n)]
    growing = range(n)
    while growing:
        prev, grew = balls[:], []
        for x in growing:
            b = prev[x]
            for u in adj[x]:
                b |= prev[u]
            if b != prev[x]:
                layers[x].append(b ^ prev[x])
                balls[x] = b
                grew.append(x)
        growing = grew
    return layers, balls


def all_pairs_distances(g: Graph) -> DistanceMatrix:
    """d(x, z) is the d whose ball layer holds z (0 for z = x), or INF."""
    rows = []
    for x, layers in enumerate(_ball_layers(g)[0]):
        row: list[float] = [INF] * g.n
        for d, layer in enumerate([1 << x, *layers]):
            while layer:
                row[(layer & -layer).bit_length() - 1] = d
                layer &= layer - 1
        rows.append(tuple(row))
    return DistanceMatrix(g.n, tuple(rows))


def diameter(g: Graph) -> float:
    """Most ball layers of any vertex, or INF iff disconnected.  Needs n >= 2."""
    if g.n < 2:
        raise GraphError("diameter needs at least two vertices (no pair exists)")
    layers, balls = _ball_layers(g)
    return max(map(len, layers)) if balls[0] == (1 << g.n) - 1 else INF


def is_connected(g: Graph) -> bool:
    """Vertex 0's ball, grown alone one layer at a time, reaches every vertex."""
    adj, ball, layer = g.adj, 1, 1
    while layer:
        grown = ball
        for u in _bits(layer):
            for w in adj[u]:
                grown |= 1 << w
        ball, layer = grown, grown ^ ball
    return ball == (1 << g.n) - 1


def is_tree(g: Graph) -> bool:
    return len(g.edges) == g.n - 1 and is_connected(g)
