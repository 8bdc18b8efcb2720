"""The four dimension computations and the bound sandwich report.

Fractional dimensions are covering-LP optima over the resolving constraint
systems; the integral dimensions are exact minimum hitting sets of the same
systems.  A family pools the constraint systems of all of its members over
the shared vertex set.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from itertools import chain
from typing import Iterable, Sequence

from .graph import Graph
from .lp import CoveringLp, _minimal_masks, min_hitting_set, solve_covering_lp


class SandwichViolation(RuntimeError):
    """The proved bound chain failed; this always indicates an engine bug."""


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
class DimensionResult:
    """Exact optimum with the optimal assignment and its dual certificate."""

    value: Fraction
    assignment: tuple[Fraction, ...]
    certificate: tuple[Fraction, ...]
    constraint_count: int


@dataclass(frozen=True)
class BoundsReport:
    max_dimf: Fraction
    sum_dimf: Fraction
    half_n: Fraction
    sdf: Fraction
    sd: int
    per_member_dimf: tuple[Fraction, ...]
    pooled: DimensionResult  # the Sd_f solve that gave sdf


def _member_masks(fam: GraphFamily) -> list[tuple[int, ...]]:
    """Each member's minimal resolver masks, in order of first occurrence."""
    if fam.n < 2:
        raise ValueError("dimension computations need at least two vertices")
    return [g._minimal_resolvers for g in fam.members]


def _minimal_union(systems: Sequence[Sequence[int]]) -> Sequence[int]:
    """The minimal masks of the union of minimal systems, in order of first
    occurrence.

    A pooled set is minimal iff it is minimal in each system that has it, so
    this equals the minimal masks of the systems they were reduced from.
    """
    if len(systems) == 1:
        return systems[0]
    return _minimal_masks(dict.fromkeys(chain.from_iterable(systems)))


def _pooled(fam: GraphFamily) -> CoveringLp:
    """The covering instance over the union of the members' minimal masks."""
    return CoveringLp._from_masks(fam.n, _minimal_union(_member_masks(fam)))


def joint_cover_sets(fam: GraphFamily) -> list[frozenset[int]]:
    """Union of the members' constraint systems, reduced globally.

    One set per distinct minimal resolver set, in the order of its first
    occurrence over (member, lexicographic pair).
    """
    return list(_pooled(fam).cover_sets)


def _solve(lp: CoveringLp) -> DimensionResult:
    sol = solve_covering_lp(lp)
    return DimensionResult(sol.value, sol.assignment, sol.dual, len(lp.masks))


def fractional_dimension(g: Graph) -> DimensionResult:
    """dim_f(G): the optimum weight of a resolving function."""
    return simultaneous_fractional_dimension(GraphFamily([g]))


def simultaneous_fractional_dimension(fam: GraphFamily) -> DimensionResult:
    """Sd_f of the family; equals fractional_dimension for k = 1."""
    return _solve(_pooled(fam))


def metric_dimension(g: Graph) -> int:
    """dim(G): minimum resolving-set cardinality."""
    return simultaneous_dimension(GraphFamily([g]))


def simultaneous_dimension(fam: GraphFamily) -> int:
    """Sd of the family: minimum simultaneous resolving-set cardinality."""
    return len(min_hitting_set(_pooled(fam)))


def bounds_report(fam: GraphFamily) -> BoundsReport:
    """All sandwich quantities; raises SandwichViolation if the chain fails."""
    if len(fam.members) < 2:
        raise ValueError("bounds reports are for families with k >= 2")
    members = _member_masks(fam)
    per_member = tuple(_solve(CoveringLp._from_masks(fam.n, ms)).value for ms in members)
    lp = CoveringLp._from_masks(fam.n, _minimal_union(members))
    pooled = _solve(lp)
    sd = len(min_hitting_set(lp))
    report = BoundsReport(
        max_dimf=max(per_member),
        sum_dimf=sum(per_member, Fraction(0)),
        half_n=Fraction(fam.n, 2),
        sdf=pooled.value,
        sd=sd,
        per_member_dimf=per_member,
        pooled=pooled,
    )
    upper = min(report.sum_dimf, report.half_n)
    if not (report.max_dimf <= report.sdf <= upper and report.sdf <= sd):
        raise SandwichViolation(
            f"bound chain failed: max={report.max_dimf} sdf={report.sdf} "
            f"min(sum, n/2)={upper} sd={sd}"
        )
    return report
