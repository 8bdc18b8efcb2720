"""Every rejection path of ``verify_solution``, and agreement with the
substitution check written directly over ``Fraction``s."""

from fractions import Fraction

import pytest
from hypothesis import given, settings, strategies as st

from fracdim.lp import (
    CertificateError,
    CoveringLp,
    LpSolution,
    solve_covering_lp,
    verify_solution,
)
from test_lp import cover_instances


def reference_verify(lp: CoveringLp, sol: LpSolution) -> None:
    """The certificate check as a direct sum of ``Fraction``s, one dual row
    per variable over every set; the checks and messages of
    ``verify_solution``, in its order."""
    n, sets = lp.n_vars, lp.cover_sets
    m = len(sets)
    x = sol.assignment
    if len(x) != n or len(sol.dual) != m + n:
        raise CertificateError("solution shape does not match the instance")
    if any(not (0 <= v <= 1) for v in x):
        raise CertificateError("assignment leaves [0, 1]")
    for i, s in enumerate(sets):
        if sum(x[v] for v in s) < 1:
            raise CertificateError(f"cover set {i} is not satisfied")
    if sum(x, Fraction(0)) != sol.value:
        raise CertificateError("value differs from the assignment total")
    y = sol.dual[:m]
    w = sol.dual[m:]
    if any(v < 0 for v in sol.dual):
        raise CertificateError("negative dual component")
    for v in range(n):
        if sum(y[i] for i, s in enumerate(sets) if v in s) - w[v] > 1:
            raise CertificateError(f"dual constraint violated at variable {v}")
    if sum(y, Fraction(0)) - sum(w, Fraction(0)) != sol.value:
        raise CertificateError("dual objective does not match the primal value")


def rejection(check, lp, sol) -> str | None:
    try:
        check(lp, sol)
    except CertificateError as exc:
        return str(exc)
    return None


# Three pairs on three vertices: the optimum is x = (1/2, 1/2, 1/2) with
# y = (1/2, 1/2, 1/2) on the sets and w = 0.
TRIANGLE = CoveringLp(3, [{0, 1}, {0, 2}, {1, 2}])
H = Fraction(1, 2)


def triangle_solution():
    sol = solve_covering_lp(TRIANGLE)
    assert sol == LpSolution(3 * H, (H,) * 3, (H,) * 3 + (Fraction(0),) * 3)
    return sol


def mutated(sol, value=None, x=None, dual=None):
    """``sol`` with entries replaced: ``x`` and ``dual`` map index to value."""
    xs, ds = list(sol.assignment), list(sol.dual)
    for i, v in (x or {}).items():
        xs[i] = Fraction(v)
    for i, v in (dual or {}).items():
        ds[i] = Fraction(v)
    return LpSolution(sol.value if value is None else Fraction(value), tuple(xs), tuple(ds))


def test_the_optimum_is_accepted():
    verify_solution(TRIANGLE, triangle_solution())


REJECTIONS = {
    "short assignment": (
        lambda s: LpSolution(s.value, s.assignment[:2], s.dual),
        "solution shape does not match the instance",
    ),
    "dual without its w entries": (
        lambda s: LpSolution(s.value, s.assignment, s.dual[:3]),
        "solution shape does not match the instance",
    ),
    "x_v above 1": (
        lambda s: mutated(s, value=3, x={0: 2}),
        "assignment leaves [0, 1]",
    ),
    "x_v below 0": (
        lambda s: mutated(s, value=1, x={0: -H}),
        "assignment leaves [0, 1]",
    ),
    "an uncovered set": (
        lambda s: mutated(s, value=1, x={2: 0}),
        "cover set 1 is not satisfied",
    ),
    "a value that is not the sum": (
        lambda s: mutated(s, value=2),
        "value differs from the assignment total",
    ),
    "a negative dual": (
        lambda s: mutated(s, dual={1: -H}),
        "negative dual component",
    ),
    "a negative w": (
        lambda s: mutated(s, dual={4: -H}),
        "negative dual component",
    ),
    # y_{0,2} = 1 loads variable 0 with 3/2 and variable 2 with 3/2
    "a raised y_S": (
        lambda s: mutated(s, dual={1: 1}),
        "dual constraint violated at variable 0",
    ),
    # the same raise, relieved by w_0 only: the row of 0 holds, that of 2 not,
    # so the rows count the w entries
    "a raised y_S relieved at one end": (
        lambda s: mutated(s, dual={1: 1, 3: H}),
        "dual constraint violated at variable 2",
    ),
    # relieved at both ends, every row holds and y - w = 2 - 1 = 1 != 3/2
    "a raised y_S relieved by w": (
        lambda s: mutated(s, dual={1: 1, 3: H, 5: H}),
        "dual objective does not match the primal value",
    ),
    "a raised w_v": (
        lambda s: mutated(s, dual={4: H}),
        "dual objective does not match the primal value",
    ),
    "a lowered y_S": (
        lambda s: mutated(s, dual={0: Fraction(1, 3)}),
        "dual objective does not match the primal value",
    ),
}


@pytest.mark.parametrize("case", list(REJECTIONS))
def test_each_rejection_path(case):
    mutate, message = REJECTIONS[case]
    sol = mutate(triangle_solution())
    assert rejection(reference_verify, TRIANGLE, sol) == message
    with pytest.raises(CertificateError) as exc:
        verify_solution(TRIANGLE, sol)
    assert str(exc.value) == message


def small_fractions(lo=-2, hi=2):
    return st.builds(Fraction, st.integers(lo * 6, hi * 6), st.sampled_from([1, 2, 3, 6]))


@st.composite
def mutated_certificates(draw):
    """An instance with its solver certificate, changed at a few places."""
    lp = draw(cover_instances())
    sol = solve_covering_lp(lp)
    value, x, dual = sol.value, list(sol.assignment), list(sol.dual)
    for _ in range(draw(st.integers(0, 3))):
        kind = draw(st.sampled_from(["value", "x", "x+value", "dual", "dual zero", "shape"]))
        if kind == "value":
            value += draw(small_fractions())
        elif kind != "shape" and not (x if kind.startswith("x") else dual):
            continue
        elif kind in ("x", "x+value"):
            i = draw(st.integers(0, len(x) - 1))
            delta = draw(small_fractions(-1, 1))
            x[i] += delta
            if kind == "x+value":
                value += delta
        elif kind == "dual":
            dual[draw(st.integers(0, len(dual) - 1))] += draw(small_fractions(-1, 1))
        elif kind == "dual zero":
            dual[draw(st.integers(0, len(dual) - 1))] = Fraction(0)
        elif draw(st.booleans()):
            x = x[:-1] if draw(st.booleans()) else x + [Fraction(0)]
        else:
            dual = dual[:-1] if draw(st.booleans()) else dual + [Fraction(0)]
    return lp, LpSolution(value, tuple(x), tuple(dual))


@given(mutated_certificates())
@settings(max_examples=300, deadline=None)
def test_agrees_with_the_fraction_reference(case):
    lp, sol = case
    assert rejection(verify_solution, lp, sol) == rejection(reference_verify, lp, sol)
