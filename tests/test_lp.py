import re
from fractions import Fraction

import pytest
from hypothesis import given, settings, strategies as st

from fracdim.lp import (
    CoveringLp,
    LpError,
    LpSolution,
    _bits,
    _minimal_masks,
    format_rational,
    min_hitting_set,
    parse_rational,
    reduce_sets,
    solve_covering_lp,
    verify_solution,
)
from fracdim.dimension import metric_dimension
from fracdim.metric import constraint_system
from fracdim.families import generate


def lp_of(spec: str, reduce=True) -> CoveringLp:
    g = generate(spec)
    return CoveringLp(g.n, [c.members for c in constraint_system(g, reduce=reduce)])


def test_single_constraint():
    sol = solve_covering_lp(CoveringLp(2, [{0, 1}]))
    assert sol.value == 1
    assert sum(sol.assignment) == 1


def test_triangle_of_pairs():
    sol = solve_covering_lp(CoveringLp(3, [{0, 1}, {0, 2}, {1, 2}]))
    assert sol.value == Fraction(3, 2)


def test_cycle5_system():
    assert solve_covering_lp(lp_of("cycle(5)")).value == Fraction(5, 4)


def test_empty_cover_set_rejected():
    with pytest.raises(LpError, match="trivially infeasible constraint"):
        CoveringLp(3, [{0, 1}, set()])


@pytest.mark.parametrize(
    "n_vars, sets, message",
    [
        (0, [{0}], "n_vars must be >= 1, got 0"),
        (2.5, [{0, 1}], "n_vars must be >= 1, got 2.5"),
        (3, [{0, 1}, set()], "cover set 1 is empty"),
        (3, [{0, 1}, {3}], "cover set 1 mentions a variable outside 0..2"),
        (3, [{-1, 0}], "cover set 0 mentions a variable outside 0..2"),
        (3, [{0.5, 1}], "cover set 0 mentions a variable outside 0..2"),
        (3, [{"a"}], "cover set 0 mentions a variable outside 0..2"),
    ],
)
def test_constructor_rejects_each_bad_input(n_vars, sets, message):
    with pytest.raises(LpError, match=re.escape(message)):
        CoveringLp(n_vars, sets)


def test_cover_sets_view_matches_the_masks():
    lp = CoveringLp(3, [[1, 0], {2}, (0, 1)])
    assert lp.masks == (0b011, 0b100, 0b011)
    assert lp.cover_sets == (frozenset({0, 1}), frozenset({2}), frozenset({0, 1}))
    assert lp == CoveringLp._from_masks(3, [0b011, 0b100, 0b011])
    assert lp != CoveringLp(3, [{0, 1}, {2}])


def test_solution_is_certified():
    lp = lp_of("petersen")
    sol = solve_covering_lp(lp)
    verify_solution(lp, sol)  # must not raise
    m = len(lp.cover_sets)
    y, w = sol.dual[:m], sol.dual[m:]
    assert sum(y) - sum(w) == sol.value


def test_deterministic():
    lp = lp_of("wheel(8)")
    a = solve_covering_lp(lp)
    b = solve_covering_lp(lp)
    assert a == b


def test_hitting_common_element():
    assert min_hitting_set(CoveringLp(3, [{0, 1}, {1, 2}])) == {1}


def test_hitting_all_pairs_of_four():
    sets = [{u, v} for u in range(4) for v in range(u + 1, 4)]
    assert len(min_hitting_set(CoveringLp(4, sets))) == 3


def test_hitting_star_family_union():
    from fracdim.dimension import joint_cover_sets

    fam = generate("star_family(6)")
    sets = joint_cover_sets(fam)
    assert len(min_hitting_set(CoveringLp(6, sets))) == 5


def test_reduce_sets_keeps_minimal_first():
    sets = [frozenset({0, 1, 2}), frozenset({0, 1}), frozenset({0, 1}), frozenset({2})]
    assert reduce_sets(sets) == [1, 3]


def test_rational_round_trip():
    for v in (Fraction(5, 3), Fraction(4), Fraction(0), Fraction(-7, 2)):
        assert parse_rational(format_rational(v)) == v
    assert format_rational(Fraction(3)) == "3"
    assert format_rational(Fraction(3, 2)) == "3/2"


def cover_instances(max_n=7, max_m=10, max_size=7):
    @st.composite
    def build(draw):
        n = draw(st.integers(1, max_n))
        m = draw(st.integers(1, max_m))
        sets = []
        for _ in range(m):
            size = draw(st.integers(1, min(max_size, n)))
            sets.append(frozenset(draw(st.permutations(range(n)))[:size]))
        return CoveringLp(n, sets)

    return build()


@given(st.lists(st.frozensets(st.integers(0, 5), min_size=1), max_size=40))
@settings(max_examples=200, deadline=None)
def test_reduce_sets_keeps_each_first_set_with_no_proper_subset(sets):
    firsts = [i for i, s in enumerate(sets) if s not in sets[:i]]
    assert reduce_sets(sets) == [i for i in firsts if not any(t < sets[i] for t in sets)]


_masks16 = st.one_of(
    st.integers(1, 15),  # few low bits: repeats and subsets of wider masks
    st.integers(1, (1 << 16) - 1),
    st.frozensets(st.integers(0, 15), min_size=1).map(lambda s: sum(1 << v for v in s)),
)


@given(st.lists(_masks16, max_size=60))
@settings(max_examples=300, deadline=None)
def test_minimal_masks_keeps_each_mask_with_no_proper_subset_in_order(ms):
    distinct = dict.fromkeys(ms)
    assert _minimal_masks(distinct) == [
        m for m in distinct if not any(k != m and k & m == k for k in ms)]


@given(cover_instances())
@settings(max_examples=80, deadline=None)
def test_reduction_preserves_optimum(lp):
    kept = reduce_sets(lp.cover_sets)
    reduced = CoveringLp(lp.n_vars, [lp.cover_sets[i] for i in kept])
    assert solve_covering_lp(lp).value == solve_covering_lp(reduced).value


@given(cover_instances(), st.data())
@settings(max_examples=80, deadline=None)
def test_value_invariant_under_relabelling_reordering_and_duplicates(lp, data):
    n, sets = lp.n_vars, list(lp.cover_sets)
    value = solve_covering_lp(lp).value
    perm = data.draw(st.permutations(range(n)))
    extra = data.draw(st.lists(st.sampled_from(sets), min_size=1, max_size=5))
    variants = [
        CoveringLp(n, [{perm[v] for v in s} for s in sets]),
        CoveringLp(n, data.draw(st.permutations(sets))),
        CoveringLp(n, sets + extra),
    ]
    for variant in variants:
        sol = solve_covering_lp(variant)
        verify_solution(variant, sol)
        assert sol.value == value
        assert not any(sol.dual[len(variant.cover_sets):])


def test_degenerate_cycle_system_is_deterministic():
    # 30 of the 32 pivots on this system are degenerate, so the leaving row
    # is chosen by the lexicographic tie-break again and again
    lp = lp_of("cycle(64)")
    a = solve_covering_lp(lp)
    assert a == solve_covering_lp(lp)
    assert a.value == Fraction(32, 31)


@given(cover_instances())
@settings(max_examples=80, deadline=None)
def test_value_at_most_half_when_sets_have_two(lp):
    if all(len(s) >= 2 for s in lp.cover_sets):
        assert solve_covering_lp(lp).value <= Fraction(lp.n_vars, 2)


@given(cover_instances())
@settings(max_examples=60, deadline=None)
def test_lp_lower_bounds_hitting_set(lp):
    sol = solve_covering_lp(lp)
    hit = min_hitting_set(lp)
    assert sol.value <= len(hit)
    for s in lp.cover_sets:
        assert hit & s


@given(cover_instances())
@settings(max_examples=60, deadline=None)
def test_hitting_set_matches_brute_force(lp):
    from itertools import combinations

    hit = min_hitting_set(lp)
    brute = None
    for k in range(lp.n_vars + 1):
        for combo in combinations(range(lp.n_vars), k):
            chosen = set(combo)
            if all(chosen & s for s in lp.cover_sets):
                brute = chosen
                break
        if brute is not None:
            break
    assert len(hit) == len(brute)


def test_degenerate_instances():
    # singletons force variables to 1; duplicates and nests force redundant
    # rows and tied ratio tests through the anti-cycling rule
    lp = CoveringLp(4, [{0}, {0}, {0, 1}, {1}, {0, 1, 2, 3}, {2, 3}, {2, 3}, {3}])
    sol = solve_covering_lp(lp)
    assert sol.value == 3
    assert sol.assignment[0] == sol.assignment[1] == sol.assignment[3] == 1
    assert min_hitting_set(lp) == {0, 1, 3}
    full = CoveringLp(3, [{0, 1, 2}] * 5)
    assert solve_covering_lp(full).value == 1


@given(st.lists(cover_instances(), min_size=2, max_size=3))
@settings(max_examples=60, deadline=None)
def test_hitting_set_of_disjoint_instances_is_the_sum_of_the_parts(parts):
    # shift the variables of each part past those of the previous ones
    sets, offset = [], 0
    for lp in parts:
        sets += [{v + offset for v in s} for s in lp.cover_sets]
        offset += lp.n_vars
    union = CoveringLp(offset, sets)
    hit = min_hitting_set(union)
    assert len(hit) == sum(len(min_hitting_set(lp)) for lp in parts)
    assert all(hit & s for s in union.cover_sets)


def test_fig5_tree_splits_into_components():
    # the reduced system of fig5_tree(9) is 27 two-element sets that form
    # 9 vertex-disjoint triangles; each needs 2 of its 3 vertices
    assert metric_dimension(generate("fig5_tree(9)")) == 18


def full_tableau_lex_less(T, b, i, k, q, first_slack):
    """The lexicographic ratio test of the reference: (b, B^-1 row) / T[.][q]."""
    ti, tk = T[i][q], T[k][q]
    lhs, rhs = b[i] * tk, b[k] * ti
    if lhs != rhs:
        return lhs < rhs
    for j in range(first_slack, len(T[i])):
        lhs, rhs = T[i][j] * tk, T[k][j] * ti
        if lhs != rhs:
            return lhs < rhs
    raise AssertionError("lexicographic ratio test tied")


def full_tableau_solve(lp):
    """The simplex with a tableau row and a slack column for every variable,
    and the right-hand side and reduced costs kept apart from the tableau,
    as it ran before variables in no cover set were left out."""
    n, masks = lp.n_vars, lp.masks
    m = len(masks)
    T = [[0] * (m + n) for _ in range(n)]
    for j, mask in enumerate(masks):
        for v in _bits(mask):
            T[v][j] = 1
    for v in range(n):
        T[v][m + v] = 1
    b = [1] * n
    r = [-1] * m + [0] * n
    basis = list(range(m, m + n))
    D = 1
    while min(r) < 0:
        rq = min(r)
        q = r.index(rq)
        p = -1
        for i in range(n):
            if T[i][q] > 0 and (p < 0 or full_tableau_lex_less(T, b, i, p, q, m)):
                p = i
        Tp, bp, a = T[p], b[p], T[p][q]
        for i in range(n):
            if i != p:
                f = T[i][q]
                T[i] = [(a * x - f * y) // D for x, y in zip(T[i], Tp)]
                b[i] = (a * b[i] - f * bp) // D
        r = [(a * x - rq * y) // D for x, y in zip(r, Tp)]
        basis[p] = q
        D = a
    y = [Fraction(0)] * m
    for i, j in enumerate(basis):
        if j < m:
            y[j] = Fraction(b[i], D)
    x = tuple(Fraction(c, D) for c in r[m:])
    return LpSolution(sum(y, Fraction(0)), x, tuple(y) + (Fraction(0),) * n)


def assert_solve_matches_the_reference(lp):
    sol = solve_covering_lp(lp)
    assert sol == full_tableau_solve(lp)
    unused = set(range(lp.n_vars)).difference(*lp.cover_sets)
    assert all(sol.assignment[v] == 0 for v in unused)


@pytest.mark.parametrize("make", [
    lambda: CoveringLp(5, [{0, 1}, {1, 2}]),
    lambda: CoveringLp(3, []),
    lambda: lp_of("wheel(24)"),
    lambda: lp_of("random_tree(200,1000)"),
], ids=["two_sets", "no_sets", "wheel(24)", "random_tree(200,1000)"])
def test_variables_in_no_cover_set_leave_the_solve_unchanged(make):
    lp = make()
    # the wheel's hub, and 121 of the tree's 200 vertices
    assert set(range(lp.n_vars)).difference(*lp.cover_sets)
    assert_solve_matches_the_reference(lp)


@given(cover_instances())
@settings(max_examples=80, deadline=None)
def test_solve_matches_the_reference_on_random_instances(lp):
    assert_solve_matches_the_reference(lp)


@pytest.mark.parametrize("spec", ["star(22)", "fig5_tree(12)", "wheel(20)"])
def test_solve_matches_the_reference_where_pivots_skip_most_rows(spec):
    # Most pivots here meet a 0 in most rows, so those rows lag behind D
    # (star(22): 126 of the 175 rows a full rewrite would touch).
    assert_solve_matches_the_reference(lp_of(spec))


@given(cover_instances(max_n=14, max_m=30, max_size=3))
@settings(max_examples=300, deadline=None)
def test_solve_matches_the_reference_on_sparse_instances(lp):
    # Up to 30 sets of 1-3 of up to 14 variables: most rows hold a 0 in the
    # entering column, and many lag over several pivots before they change.
    assert_solve_matches_the_reference(lp)
