"""Exact solver for covering linear programs, plus an exact minimum hitting set.

The LP solved here is

    minimize    sum_v x_v
    subject to  sum_{v in S} x_v >= 1   for every cover set S
                x >= 0

(every optimum has x <= 1: clamping an entry above 1 keeps every set covered
and lowers the objective).  The solver runs a single-phase primal simplex on
the packing dual

    maximize    sum_S y_S
    subject to  sum_{S ∋ v} y_S <= 1    for every variable v
                y >= 0

starting from the slack basis, which is feasible at the origin.  The tableau
is one integer matrix: a row per variable and the objective row, with the
right-hand side as a column.  Pivots are integer-preserving (Bareiss): each
row is an integer vector over the basis determinant it was last written at,
so each update is an exact integer division and no gcd is taken.  A pivot
rewrites only the rows with a non-zero entry in the entering column; the
others keep their entries and their determinant.  Dantzig's rule picks the
entering column and a lexicographic ratio test picks the leaving row, which
rules out cycling.  The objective row ends with the value
and the covering optimum x, the reduced costs of the slacks.  Values become
`fractions.Fraction` only in the returned solution, and every solution ships
a dual certificate that is re-verified by direct substitution before it is
returned.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from fractions import Fraction
from math import ceil, lcm
from typing import Collection, Iterable, Iterator, Sequence


class LpError(ValueError):
    """Invalid covering-LP input."""


class LpInternalError(RuntimeError):
    """The solver violated one of its own guarantees (engine bug)."""


class CertificateError(LpInternalError):
    """A produced solution failed independent re-verification."""


def format_rational(v: Fraction) -> str:
    """Serialize as "p/q", or "p" when the denominator is 1."""
    if v.denominator == 1:
        return str(v.numerator)
    return f"{v.numerator}/{v.denominator}"


def parse_rational(text: str) -> Fraction:
    return Fraction(text)


@dataclass(frozen=True)
class CoveringLp:
    """A covering instance: variables 0..n_vars-1 and non-empty cover sets.

    Cover set i is held only as the bitmask ``masks[i]`` (bit v set iff v is
    in it); ``cover_sets`` is a read-only view of them as frozensets, in
    order.  Duplicate or superset sets may be present; reduction is the
    caller's concern (and never changes the optimum).
    """

    n_vars: int
    masks: tuple[int, ...]

    def __init__(self, n_vars: int, cover_sets: Iterable[Iterable[int]]):
        if not isinstance(n_vars, int) or n_vars < 1:
            raise LpError(f"n_vars must be >= 1, got {n_vars}")
        sets = tuple(frozenset(s) for s in cover_sets)
        for i, s in enumerate(sets):
            if not s:
                raise LpError(f"trivially infeasible constraint: cover set {i} is empty")
            if any(not (isinstance(v, int) and 0 <= v < n_vars) for v in s):
                raise LpError(f"cover set {i} mentions a variable outside 0..{n_vars - 1}")
        object.__setattr__(self, "n_vars", n_vars)
        object.__setattr__(self, "masks", tuple(map(_mask, sets)))

    @classmethod
    def _from_masks(cls, n_vars: int, masks: Iterable[int]) -> CoveringLp:
        """Unchecked: the caller passes non-zero masks below ``1 << n_vars``."""
        lp = object.__new__(cls)
        object.__setattr__(lp, "n_vars", n_vars)
        object.__setattr__(lp, "masks", tuple(masks))
        return lp

    @property
    def cover_sets(self) -> tuple[frozenset[int], ...]:
        return tuple(frozenset(_bits(m)) for m in self.masks)


@dataclass(frozen=True)
class LpSolution:
    """Optimal value, assignment, and a verified dual certificate.

    ``dual`` has one entry per cover set followed by one per upper-bound row
    x_v <= 1; all entries are >= 0 and satisfy strong duality:
    sum(cover duals) - sum(upper duals) == value.  The solver never needs the
    upper bounds, so its upper-bound duals are always zero.  They stay because
    ``--certificate`` prints this m + n shape, a stable format in which
    certificates printed earlier still verify.
    """

    value: Fraction
    assignment: tuple[Fraction, ...]
    dual: tuple[Fraction, ...]
    status: str = field(default="optimal")


def _mask(s: Iterable[int]) -> int:
    m = 0
    for v in s:
        m |= 1 << v
    return m


def _bits(mask: int) -> Iterator[int]:
    """The set bits of ``mask``, ascending."""
    while mask:
        yield (mask & -mask).bit_length() - 1
        mask &= mask - 1


def _minimal_masks(distinct: Collection[int]) -> list[int]:
    """The masks of ``distinct`` (no repeats) that have no proper subset in it,
    in their order in ``distinct``.  A proper subset has fewer bits, so each
    mask is tested only against the kept masks of fewer bits."""
    minimal: list[int] = []
    fewer: list[int] = []  # the kept masks of fewer bits than m
    size = 0
    for m in sorted(distinct, key=int.bit_count):
        if m.bit_count() != size:
            size, fewer = m.bit_count(), minimal[:]
        if not any(k & m == k for k in fewer):
            minimal.append(m)
    keep = set(minimal)
    return [m for m in distinct if m in keep]


def reduce_sets(sets: Sequence[frozenset[int]]) -> list[int]:
    """Indices of one representative per distinct minimal (non-superset) set.

    The first occurrence of each distinct set is the representative kept.
    Deleting the dropped sets never changes the LP optimum or the minimum
    hitting set.
    """
    first: dict[int, int] = {}
    for i, s in enumerate(sets):
        first.setdefault(_mask(s), i)
    return [first[m] for m in _minimal_masks(first)]


def _lex_less(Ti, Tk, q, m) -> bool:
    """Lexicographic ratio test: does row Ti beat row Tk for entering column q?

    Rows are compared by (b, B^-1 row) / T[.][q] lexicographically, by
    cross-multiplication: that is each row from column m on, the right-hand
    side b and then the slack columns, which hold B^-1 (scaled by the row's
    own determinant, a positive factor the ratio cancels).  The rows of B^-1
    are independent, so two distinct rows never tie.
    """
    ti, tk = Ti[q], Tk[q]
    for j in range(m, len(Ti)):
        lhs, rhs = Ti[j] * tk, Tk[j] * ti
        if lhs != rhs:
            return lhs < rhs
    raise LpInternalError("lexicographic ratio test tied; the basis is singular")


def solve_covering_lp(lp: CoveringLp) -> LpSolution:
    """Optimal basic solution with a matching dual certificate; deterministic.

    Only the variables of some cover set get a tableau row and a slack
    column.  Any other x_v is 0: its row would stay D * e_v, and its slack
    column, 0 outside that row with reduced cost 0, would never enter, leave
    or decide a ratio test, so the pivots are those of the full tableau.
    """
    n, masks = lp.n_vars, lp.masks
    m = len(masks)
    union = 0
    for mask in masks:
        union |= mask
    used = list(_bits(union))
    k = len(used)

    # One row per used variable v:  sum_{S ∋ v} y_S + s_v = 1, then row k,
    # the reduced costs of  minimize -sum y,  whose right-hand side is sum y.
    # Columns: y_0..y_{m-1} | right-hand side | slack s_v of each used v.
    # Every entry is an integer over the common denominator D.
    T = [[0] * m + [1] + [0] * k for _ in used]
    row = dict(zip(used, T))
    for j, mask in enumerate(masks):
        for v in _bits(mask):
            row[v][j] = 1
    for i, Ti in enumerate(T):
        Ti[m + 1 + i] = 1
    T.append([-1] * m + [0] * (k + 1))
    basis = list(range(m + 1, m + 1 + k))
    D = 1
    E = [1] * (k + 1)  # the determinant each row was last written at

    while True:
        rq = min(T[k])  # the right-hand side, the value, is never negative
        if rq >= 0:
            break
        q = T[k].index(rq)
        p = -1
        for i in range(k):
            if T[i][q] > 0 and (p < 0 or _lex_less(T[i], T[p], q, m)):
                p = i
        if p < 0:
            raise LpInternalError("unbounded LP; impossible for a covering instance")
        # Integer-preserving pivot that rewrites only the rows it changes.
        # Row i holds E[i] times its row of B^-1 [A | I | b], and D times any
        # such row is integral.  Row p is brought to D and stays.  Each other
        # row with f = T[i][q] != 0 becomes (a*T[i] - f*T[p]) / E[i], which is
        # a times its new row, so the division is exact.  A row with f == 0
        # is unchanged by the pivot and keeps its E[i].
        Tp = T[p]
        if E[p] != D:
            Tp = T[p] = [x * D // E[p] for x in Tp]
        a = Tp[q]
        for i in range(k + 1):
            f = T[i][q]
            if f and i != p:
                e = E[i]
                T[i] = [(a * x - f * y) // e for x, y in zip(T[i], Tp)]
                E[i] = a
        basis[p] = q
        E[p] = D = a

    # y_S is the right-hand side of its row; x_v is the reduced cost of s_v.
    # Every pivot rewrites the objective row (its entry in column q is < 0),
    # so it is over D.
    zero = Fraction(0)
    y = [zero] * m
    for i, j in enumerate(basis):
        if j < m:
            y[j] = Fraction(T[i][m], E[i])
    x = [zero] * n
    for i, v in enumerate(used):
        x[v] = Fraction(T[k][m + 1 + i], D)
    sol = LpSolution(Fraction(T[k][m], D), tuple(x), tuple(y) + (zero,) * n)
    verify_solution(lp, sol)
    return sol


def verify_solution(lp: CoveringLp, sol: LpSolution) -> None:
    """Re-verify a solution by direct substitution; raises CertificateError.

    Checks primal feasibility, value = sum of assignment, dual feasibility,
    and exact strong duality.  Independent of the simplex bookkeeping.  Every
    number is scaled to an integer over L, the lcm of all the denominators,
    so each check compares integer sums.  Set S is covered by the sum of
    w * |S & G| over the groups G of variables with scaled weight w > 0; the
    dual rows are loaded from the non-zero y_S only.
    """
    n, masks = lp.n_vars, lp.masks
    m = len(masks)
    x = sol.assignment
    if len(x) != n or len(sol.dual) != m + n:
        raise CertificateError("solution shape does not match the instance")
    L = lcm(sol.value.denominator, *(v.denominator for v in (*x, *sol.dual)))

    def scaled(vs) -> list[int]:
        return [v.numerator * (L // v.denominator) for v in vs]

    X, Y = scaled(x), scaled(sol.dual)
    if any(not (0 <= w <= L) for w in X):
        raise CertificateError("assignment leaves [0, 1]")
    cover = [0] * m
    for w in set(X) - {0}:
        g = sum(1 << v for v, u in enumerate(X) if u == w)
        cover = [c + w * (s & g).bit_count() for c, s in zip(cover, masks)]
    for i, c in enumerate(cover):
        if c < L:
            raise CertificateError(f"cover set {i} is not satisfied")
    (value,) = scaled([sol.value])
    if sum(X) != value:
        raise CertificateError("value differs from the assignment total")
    if any(y < 0 for y in Y):
        raise CertificateError("negative dual component")
    # load[v] = L * (sum_{S ∋ v} y_S - w_v); objective = L * (sum y - sum w)
    load = [-w for w in Y[m:]]
    objective = sum(load)
    for s, y in zip(masks, Y):
        if y:
            objective += y
            for u in _bits(s):
                load[u] += y
    for v in range(n):
        if load[v] > L:
            raise CertificateError(f"dual constraint violated at variable {v}")
    if objective != value:
        raise CertificateError("dual objective does not match the primal value")


def _components(masks: Sequence[int]) -> list[int]:
    """Variable masks of the groups of ``masks`` that share no variable."""
    comps: list[int] = []
    for m in masks:
        joined, rest = m, []
        for c in comps:
            if c & m:
                joined |= c
            else:
                rest.append(c)
        rest.append(joined)
        comps = rest
    return comps


def min_hitting_set(lp: CoveringLp) -> frozenset[int]:
    """Smallest set of variables meeting every cover set.

    The minimal sets split into components that share no variable, and a
    minimum hitting set is the union of one for each component.  A component
    is searched by iterative deepening on the target cardinality, starting
    from the ceiling of its own LP value, with depth-first branch-and-bound;
    a greedy packing of disjoint uncovered sets prunes inside the search.
    A node branches on the variables v_1, v_2, ... of its smallest uncovered
    set, and branch i excludes v_1 .. v_{i-1} from every set below it
    (d-Hitting-Set branching, Niedermeier and Rossmanith 2003), so each
    chosen set is reached in one order only; a set that loses all of its
    variables that way ends the node.
    """
    masks = _minimal_masks(dict.fromkeys(lp.masks))
    priority = {v: (-sum(m >> v & 1 for m in masks), v) for v in range(lp.n_vars)}

    def packing_lb(uncovered: list[int]) -> int:
        used = 0
        count = 0
        for mask in uncovered:
            if mask & used == 0:
                count += 1
                used |= mask
        return count

    def search(uncovered: list[int], chosen: list[int], k: int) -> list[int] | None:
        if not uncovered:
            return list(chosen)
        if len(chosen) + packing_lb(uncovered) > k:
            return None
        target = min(uncovered, key=int.bit_count)
        keep = -1  # the variables not excluded by the branches before
        for v in sorted(_bits(target), key=priority.__getitem__):
            bit = 1 << v
            rest = [mask & keep for mask in uncovered if not mask & bit]
            if not all(rest):
                return None  # a set lies inside the excluded variables
            chosen.append(v)
            found = search(rest, chosen, k)
            chosen.pop()
            if found is not None:
                return found
            keep &= ~bit
        return None

    hit: list[int] = []
    for comp in _components(masks):
        group = sorted((m for m in masks if m & comp), key=int.bit_count)
        lower = ceil(solve_covering_lp(CoveringLp._from_masks(lp.n_vars, group)).value)
        for k in range(lower, comp.bit_count() + 1):
            found = search(group, [], k)
            if found is not None:
                hit += found
                break
        else:
            raise LpInternalError("no hitting set found; impossible for non-empty sets")
    return frozenset(hit)
