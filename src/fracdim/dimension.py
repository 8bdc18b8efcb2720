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
from typing import Sequence

from .graph import Graph, GraphFamily
from .lp import CoveringLp, _minimal_masks, min_hitting_set, solve_covering_lp
from .metric import _minimal_resolvers


class SandwichViolation(RuntimeError):
    """The proved bound chain failed; this always indicates an engine bug."""


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
    return [_minimal_resolvers(g) for g in fam.members]


def _pooled(n: int, systems: Sequence[Sequence[int]]) -> CoveringLp:
    """The covering instance on n vertices over the minimal masks of the
    union of minimal systems, in order of first occurrence; one system is
    taken as it is.

    A pooled set is minimal iff it is minimal in each system that has it, so
    this equals the minimal masks of the systems they were reduced from.
    """
    if n < 2:
        raise ValueError("dimension computations need at least two vertices")
    if len(systems) == 1:
        return CoveringLp._from_masks(n, systems[0])
    return CoveringLp._from_masks(n, _minimal_masks(dict.fromkeys(chain.from_iterable(systems))))


def joint_cover_sets(fam: GraphFamily) -> list[frozenset[int]]:
    """Union of the members' constraint systems, reduced globally.

    One set per distinct minimal resolver set, in the order of its first
    occurrence over (member, lexicographic pair).
    """
    return list(_pooled(fam.n, _member_masks(fam)).cover_sets)


def _solve(lp: CoveringLp) -> DimensionResult:
    sol = solve_covering_lp(lp)
    return DimensionResult(sol.value, sol.assignment, sol.dual, len(lp.masks))


def fractional_dimension(g: Graph) -> DimensionResult:
    """dim_f(G): the optimum weight of a resolving function."""
    return simultaneous_fractional_dimension(GraphFamily([g]))


def simultaneous_fractional_dimension(fam: GraphFamily) -> DimensionResult:
    """Sd_f of the family; equals fractional_dimension for k = 1."""
    return _solve(_pooled(fam.n, _member_masks(fam)))


def metric_dimension(g: Graph) -> int:
    """dim(G): minimum resolving-set cardinality."""
    return simultaneous_dimension(GraphFamily([g]))


def simultaneous_dimension(fam: GraphFamily) -> int:
    """Sd of the family: minimum simultaneous resolving-set cardinality."""
    return len(min_hitting_set(_pooled(fam.n, _member_masks(fam))))


def bounds_report(fam: GraphFamily) -> BoundsReport:
    """All sandwich quantities; raises SandwichViolation if the chain fails."""
    if len(fam.members) < 2:
        raise ValueError("bounds reports are for families with k >= 2")
    members = _member_masks(fam)
    per_member = tuple(_solve(_pooled(fam.n, [ms])).value for ms in members)
    lp = _pooled(fam.n, members)
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
