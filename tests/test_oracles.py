import time
from fractions import Fraction
from itertools import combinations

import pytest

from fracdim.graph import Graph, is_connected
from fracdim.dimension import fractional_dimension, simultaneous_fractional_dimension
from fracdim.families import SplitMix64, generate, graph_code, graph_index, known_kinds, parse_spec
from fracdim.metric import _isomorphic, is_vertex_transitive, r_of
from fracdim.oracles import (
    NoClosedForm,
    _bouquet_size,
    _constant_twin_multiplicity,
    _induced,
    _is_petersen,
    _leaf_counts,
    has_fixed_point_free_twin_permutation,
    oracle_dimf,
    oracle_sdimf,
)


def test_oracle_cycles():
    assert oracle_dimf("cycle(9)").value == Fraction(9, 8)
    assert oracle_dimf("cycle(8)").value == Fraction(8, 6)


def test_oracle_wheels():
    assert oracle_dimf("wheel(4)").value == 2
    assert oracle_dimf("wheel(5)").value == 2
    assert oracle_dimf("wheel(6)").value == Fraction(3, 2)
    assert oracle_dimf("wheel(10)").value == Fraction(9, 4)


def test_oracle_trees_via_profile():
    fam = generate("fig2")
    for g in fam.members:
        assert oracle_dimf(g).value == 2


def test_oracle_vertex_transitive_ratio():
    assert oracle_dimf("circulant(8,1,2)").value == Fraction(8, 4)
    assert oracle_dimf(generate("cycle(10)")).value == Fraction(10, 8)


def test_oracle_no_closed_form():
    # a five-cycle with one pendant vertex matches no covered shape
    with pytest.raises(NoClosedForm):
        oracle_dimf(Graph(6, [(0, 1), (1, 2), (2, 3), (3, 4), (0, 4), (0, 5)]))
    with pytest.raises(NoClosedForm):
        oracle_sdimf("random_family(6,2,3)")


def test_oracle_agrees_with_engine_on_catalogue():
    roster = (
        [f"path({n})" for n in range(2, 10)]
        + [f"cycle({n})" for n in range(3, 10)]
        + [f"complete({n})" for n in range(2, 8)]
        + [f"wheel({n})" for n in range(4, 10)]
        + ["petersen", "bouquet(3,3)", "bouquet(3,4,5)", "kite(4)", "kite(6)",
           "fig5_tree(3)", "h1", "h2", "h3", "unicyclic_c(2)", "unicyclic_d(3,1)"]
    )
    for spec in roster:
        assert oracle_dimf(spec).value == fractional_dimension(generate(spec)).value, spec


def test_graphs_above_the_automorphism_search_limit_have_no_closed_form():
    # 18 vertices is above the exact vertex-transitivity search's limit; both
    # oracles report it as NoClosedForm, not as the search's ValueError
    with pytest.raises(NoClosedForm):
        oracle_sdimf("circulant_family(18,2,1)")
    with pytest.raises(NoClosedForm):
        oracle_dimf("circulant(18,1,5)")


def test_oracle_sdimf_values():
    assert oracle_sdimf("with_complement(cycle(7))").value == Fraction(7, 4)
    assert oracle_sdimf("path_family(6,rotations)").value == Fraction(6, 5)
    assert oracle_sdimf("with_complement(unicyclic_d(1,1))").value == 2
    from fracdim.graph import complement

    comp = complement(generate("unicyclic_d(1,1)"))
    assert fractional_dimension(comp).value == Fraction(5, 3)
    assert oracle_sdimf("star_family(6)").value == 3
    assert oracle_sdimf("cycle_family(9,3,5)").value == Fraction(9, 8)
    assert oracle_sdimf("petersen_family(2,5)").value == Fraction(5, 3)
    assert oracle_sdimf("with_complement(star(8))").value == Fraction(7, 2)
    assert oracle_sdimf("fig2").value == 6


def test_oracle_sdimf_agrees_with_engine():
    roster = [
        "path_family(5,shared_end)", "path_family(7,rotations)",
        "cycle_family(8,2,3)", "petersen_family(2,11)", "circulant_family(9,2,4)",
        "star_family(5)", "remark_b_family(4)", "twin_cycle_family(7)",
        "with_complement(path(3))", "with_complement(path(4))",
        "with_complement(cycle(4))", "with_complement(cycle(11))",
        "with_complement(complete(6))", "with_complement(star(7))",
        "with_complement(kite(4))", "with_complement(kite(7))",
        "with_complement(wheel(9))", "with_complement(petersen)",
        "with_complement(fig5_tree(2))", "with_complement(h3)",
        "with_complement(unicyclic_a(3,3))", "with_complement(unicyclic_b(1,3))",
        "with_complement(unicyclic_c(4))", "with_complement(unicyclic_d(2,2))",
    ]
    for spec in roster:
        expected = oracle_sdimf(spec).value
        actual = simultaneous_fractional_dimension(generate(spec)).value
        assert expected == actual, spec


@pytest.mark.parametrize("spec", [
    "star_family(2)", "cycle_family(4,0,1)", "petersen_family(0,1)", "fig1a(3)",
    "twin_cycle_family(1)", "with_complement(cycle(2))", "cycle_family(2,1,1)",
    "path_family(5,3)",
])
def test_oracle_sdimf_rejects_the_specs_the_generator_rejects(spec):
    with pytest.raises(ValueError) as built:
        generate(spec)
    with pytest.raises(ValueError) as answered:
        oracle_sdimf(spec)
    assert str(answered.value) == str(built.value)


def test_fixed_point_free_twin_permutation():
    assert has_fixed_point_free_twin_permutation(generate("complete(5)"))
    assert not has_fixed_point_free_twin_permutation(generate("path(4)"))
    assert not has_fixed_point_free_twin_permutation(generate("kite(4)"))
    assert has_fixed_point_free_twin_permutation(Graph(4, [(0, 1), (2, 3)]))


def test_half_characterization_small_exhaustive():
    # iff on every labeled graph with 2..4 vertices
    for n in range(2, 5):
        pairs = [(u, v) for u in range(n) for v in range(u + 1, n)]
        for code in range(1 << len(pairs)):
            g = Graph(n, [p for i, p in enumerate(pairs) if code >> i & 1])
            predicted = has_fixed_point_free_twin_permutation(g)
            actual = fractional_dimension(g).value == Fraction(n, 2)
            assert predicted == actual, (n, code)


def test_half_characterizations_sampled_above_exhaustive_range():
    # both n/2 characterizations on seeded samples at n = 6 and 7
    from fracdim.families import SplitMix64, with_complement

    rng = SplitMix64(424242)
    for _ in range(80):
        n = 6 + rng.below(2)
        pairs = [(u, v) for u in range(n) for v in range(u + 1, n)]
        code = rng.next_u64() % (1 << len(pairs))
        g = Graph(n, [p for i, p in enumerate(pairs) if code >> i & 1])
        predicted = has_fixed_point_free_twin_permutation(g)
        half = Fraction(n, 2)
        assert (fractional_dimension(g).value == half) == predicted, (n, code)
        pair_value = simultaneous_fractional_dimension(with_complement(g)).value
        assert (pair_value == half) == predicted, (n, code)


def _answer(obj):
    try:
        return oracle_dimf(obj).value
    except NoClosedForm:
        return None


def _relabelled(g, rng):
    perm = list(range(g.n))
    rng.shuffle(perm)
    return Graph(g.n, [(perm[u], perm[v]) for u, v in g.edges])


_PAIRS = [(a, b) for a in (1, 2, 3) for b in (1, 2, 3)]
# A few specs of every kind; a new kind must be added here.
_SPECS_BY_KIND = {
    "path": [f"path({n})" for n in range(2, 7)],
    "cycle": [f"cycle({n})" for n in range(3, 9)],
    "complete": [f"complete({n})" for n in range(2, 7)],
    "star": [f"star({n})" for n in range(2, 8)],
    "wheel": [f"wheel({n})" for n in range(4, 10)],
    "petersen": ["petersen"],
    "bouquet": ["bouquet(3,3)", "bouquet(3,4)", "bouquet(3,3,3)"],
    "kite": [f"kite({n})" for n in range(4, 9)],
    "unicyclic_a": [f"unicyclic_a({a},{b})" for a, b in _PAIRS],
    "unicyclic_b": [f"unicyclic_b({a},{b})" for a, b in _PAIRS],
    "unicyclic_c": [f"unicyclic_c({a})" for a in range(1, 6)],
    "unicyclic_d": [f"unicyclic_d({a},{b})" for a, b in _PAIRS],
    "h1": ["h1"],
    "h2": ["h2"],
    "h3": ["h3"],
    "fig5_tree": ["fig5_tree(2)", "fig5_tree(3)"],
    "circulant": ["circulant(7,1)", "circulant(8,1,2)", "circulant(9,1,3)", "circulant(10,1,4)"],
    "graph_index": [f"graph_index(5,{c})" for c in (0, 7, 300, 1023)] + ["graph_index(6,12345)"],
    "random_tree": [f"random_tree(9,{s})" for s in (1, 2, 3)],
    "random_unicyclic": [f"random_unicyclic(7,{s})" for s in (1, 2, 3)],
    "random_connected": [f"random_connected(7,50,{s})" for s in (1, 2, 3)],
    "fig1a": ["fig1a"],
    "fig1b": ["fig1b"],
    "fig2": ["fig2"],
    "fig3": ["fig3"],
    "fig3_sub": ["fig3_sub"],
    "path_family": ["path_family(5,rotations)"],
    "star_family": ["star_family(5)"],
    "remark_a_family": ["remark_a_family(4)"],
    "remark_b_family": ["remark_b_family(4)"],
    "cycle_family": ["cycle_family(6,2,1)"],
    "petersen_family": ["petersen_family(2,1)"],
    "circulant_family": ["circulant_family(8,2,1)"],
    "twin_cycle_family": ["twin_cycle_family(6)"],
    "family_of": ["family_of(path(4),cycle(4))"],
    "random_family": ["random_family(6,2,1)"],
    "with_complement": ["with_complement(path(4))"],
}


def test_oracle_is_independent_of_spec_vs_graph():
    # A single-graph spec, its graph and relabelled copies: the same value,
    # or NoClosedForm for all.  A family spec has no own dimension.
    assert sorted(_SPECS_BY_KIND) == sorted(known_kinds())
    rng = SplitMix64(2718)
    single, answered = set(), set()
    for kind, specs in _SPECS_BY_KIND.items():
        for spec in specs:
            g = generate(spec)
            if not isinstance(g, Graph):
                assert _answer(spec) is None, spec
                continue
            expected = _answer(spec)
            assert _answer(g) == expected, spec
            for _ in range(3):
                assert _answer(_relabelled(g, rng)) == expected, spec
            single.add(kind)
            if expected is not None:
                answered.add(kind)
    assert single - answered == {"random_connected", "random_unicyclic", "unicyclic_a", "unicyclic_b"}


# The structural predicates and the kind table that the leaf counts
# replaced, kept as the reference for them.
def _is_path(g):
    if g.n == 1:
        return True
    if len(g.edges) != g.n - 1 or not is_connected(g):
        return False
    return max(g.degree(v) for v in range(g.n)) <= 2


def _is_cycle(g):
    return (
        g.n >= 3
        and len(g.edges) == g.n
        and all(g.degree(v) == 2 for v in range(g.n))
        and is_connected(g)
    )


def _is_kite(g):
    if g.n < 4 or len(g.edges) != g.n:
        return False
    degs = sorted(g.degree(v) for v in range(g.n))
    return degs == [1] * (g.n - 3) + [2, 2, g.n - 1]


def _dimf_by_kind(spec):
    kind, params = spec.kind, spec.params
    if kind in ("h2", "h3"):
        return Fraction(2)
    if kind == "unicyclic_c" and len(params) == 1:
        (a,) = params
        return Fraction(2) if a == 1 else Fraction(a + 2, 2)
    if kind == "unicyclic_d" and len(params) == 2:
        a, b = params
        if a == 1 and b == 1:
            return Fraction(2)
        if min(a, b) == 1:
            return Fraction(max(a, b), 2) + 1
    return None


def _reference(g, templates):
    """(recognised, value); the value is None for a shape without a closed form."""
    n = g.n
    if _is_path(g):
        return True, Fraction(1)
    if _is_cycle(g):
        return True, Fraction(n, n - 1) if n % 2 else Fraction(n, n - 2)
    if _is_kite(g):
        return True, Fraction(3, 2) if n == 4 else Fraction(n - 1, 2)
    if len(g.edges) == n and is_connected(g):
        for spec, h in templates:
            if _isomorphic(g, h):
                return True, _dimf_by_kind(spec)
    return False, None


def test_leaf_counts_agree_with_the_deleted_predicates_on_every_small_graph():
    # Every labelled graph on 2..6 vertices that the reference recognises, or
    # that is a cycle with leaves, gets the reference's answer.
    names = ("h2", "h3", "unicyclic_c(2)")
    templates = [(parse_spec(name), generate(name)) for name in names]
    checked = recognised_count = 0
    for n in range(2, 7):
        pairs = list(combinations(range(n), 2))
        for code in range(1 << len(pairs)):
            g = Graph(n, [p for i, p in enumerate(pairs) if code >> i & 1])
            recognised, expected = _reference(g, templates)
            if recognised or _leaf_counts(g) is not None:
                assert _answer(g) == expected, (n, g.edges)
                checked += 1
                recognised_count += recognised
    # 436 paths, 76 cycles, 102 kites, 60 copies of h2, 360 of h3 and 180
    # of unicyclic_c(2); 1080 other cycles with leaves, none with a value.
    assert (recognised_count, checked) == (1214, 2294)


def test_the_kind_table_holds_on_relabelled_templates():
    rng = SplitMix64(31415)
    specs = ["h2", "h3"] + [f"unicyclic_c({a})" for a in range(1, 7)]
    specs += [f"unicyclic_d({a},{b})" for a in range(1, 5) for b in range(1, 5)]
    for spec in specs:
        g = _relabelled(generate(spec), rng)
        assert _answer(g) == _dimf_by_kind(parse_spec(spec)), spec


@pytest.mark.parametrize("g", [
    Graph(6, [(0, 1), (1, 2), (2, 3), (0, 3), (0, 4), (2, 5)]),  # opposite leaves
    generate("unicyclic_d(2,2)"),
    Graph(6, [(0, 1), (1, 2), (2, 3), (3, 4), (0, 4), (0, 5)]),  # C5 plus a pendant
], ids=["four-cycle, opposite leaves", "unicyclic_d(2,2)", "five-cycle, one pendant"])
def test_cycles_with_leaves_outside_the_tables_have_no_closed_form(g):
    assert _leaf_counts(g) is not None
    with pytest.raises(NoClosedForm):
        oracle_dimf(g)


@pytest.mark.parametrize("spec, value", [("kite(12)", Fraction(11, 2)), ("wheel(24)", Fraction(23, 4))])
def test_relabelled_kites_and_wheels_classify_at_once(spec, value):
    g = _relabelled(generate(spec), SplitMix64(99))
    start = time.perf_counter()
    assert oracle_dimf(g).value == value
    assert time.perf_counter() - start < 1.0


# The predicates the ball layers and the degree multiset replaced, kept as
# the reference for them.
def _is_strongly_regular_10_3_0_1(g):
    if g.n != 10 or any(g.degree(v) != 3 for v in range(10)):
        return False
    nbr = [set(g.adj[v]) for v in range(10)]
    for u in range(10):
        for v in range(u + 1, 10):
            common = len(nbr[u] & nbr[v])
            if common != (0 if g.has_edge(u, v) else 1):
                return False
    return True


def _bouquet_size_by_removal(g):
    if not is_connected(g):
        return None
    m = len(g.edges) - g.n + 1
    if m < 2:
        return None
    centers = [v for v in range(g.n) if g.degree(v) == 2 * m]
    if len(centers) != 1 or any(g.degree(v) != 2 for v in range(g.n) if v != centers[0]):
        return None
    rest = _induced(g, [v for v in range(g.n) if v != centers[0]])
    if len(rest.edges) != rest.n - m or any(rest.degree(v) > 2 for v in range(rest.n)):
        return None
    return m


def _cubic_graphs(rng, tries):
    """Simple cubic graphs on 10 vertices: 30 vertex ends paired at random,
    with loops and double edges rejected."""
    for _ in range(tries):
        ends = [v for v in range(10) for _ in range(3)]
        rng.shuffle(ends)
        edges = {(min(pair), max(pair)) for pair in zip(ends[::2], ends[1::2])}
        if len(edges) == 15 and all(u != v for u, v in edges):
            yield Graph(10, edges)


def test_petersen_by_layer_sizes_matches_the_strongly_regular_definition():
    rng = SplitMix64(1960)
    petersen = generate("petersen")
    graphs = [_relabelled(petersen, rng) for _ in range(50)] + list(_cubic_graphs(rng, 20000))
    found = 0
    for g in graphs:
        assert _is_petersen(g) == _is_strongly_regular_10_3_0_1(g), g.edges
        found += _is_petersen(g)
    # 2209 cubic graphs, 5 of them copies of the Petersen graph.
    assert (len(graphs), found) == (50 + 2209, 50 + 5)
    assert not _is_petersen(generate("circulant(10,1,5)"))  # cubic, diameter 3


def test_bouquet_by_degrees_matches_the_removal_test():
    count = bouquets = 0
    for n in range(1, 7):
        pairs = list(combinations(range(n), 2))
        for code in range(1 << len(pairs)):
            if code.bit_count() < n + 1:
                continue
            g = Graph(n, [p for i, p in enumerate(pairs) if code >> i & 1])
            assert _bouquet_size(g) == _bouquet_size_by_removal(g), g.edges
            count += 1
            bouquets += _bouquet_size(g) is not None
    # Every labelled graph with n <= 6 and at least n + 1 edges.
    assert (count, bouquets) == (23212, 195)
    # The smallest graph with a bouquet's degrees that is not connected: two
    # triangles at vertex 0, and a third triangle apart.
    apart = Graph(8, [(0, 1), (1, 2), (0, 2), (0, 3), (3, 4), (0, 4), (5, 6), (6, 7), (5, 7)])
    assert _bouquet_size(apart) is _bouquet_size_by_removal(apart) is None
    rng = SplitMix64(2)
    for spec in ["bouquet(3,3)", "bouquet(3,4,5)", "bouquet(3,3,3,3)", "bouquet(6,4)"]:
        for _ in range(5):
            g = _relabelled(generate(spec), rng)
            assert _bouquet_size(g) == _bouquet_size_by_removal(g) == spec.count(",") + 1, spec


# The per-kind family values that member structure replaced, kept as the
# reference for them.
def _sdimf_by_kind(spec):
    kind, params = spec.kind, spec.params
    if kind == "cycle_family":
        n = params[0]
        return Fraction(n, n - 1) if n % 2 else Fraction(n, n - 2)
    if kind == "petersen_family":
        return Fraction(5, 3)
    if kind == "circulant_family":
        members = generate(spec).members
        assert all(is_vertex_transitive(g) for g in members)
        return max(Fraction(g.n, r_of(g)) for g in members)
    if kind in ("star_family", "twin_cycle_family"):
        return Fraction(params[0], 2)
    return {"fig1a": Fraction(3, 2), "fig1b": Fraction(3), "fig2": Fraction(6),
            "fig3": Fraction(5, 2), "fig3_sub": Fraction(2)}[kind]


_OWN_DIMENSION_PAIRS = (
    [f"complete({n})" for n in range(2, 7)] + [f"star({n})" for n in range(3, 8)]
    + [f"kite({n})" for n in range(4, 8)] + [f"wheel({n})" for n in range(4, 10)]
    + ["petersen", "h1", "h2", "h3"] + [f"unicyclic_c({a})" for a in range(1, 5)]
)


def test_family_values_keep_the_per_kind_answers():
    grid = (
        [f"cycle_family({n},{k},{s})" for n in range(3, 21) for k in (1, 2, 3) for s in (1, 2)]
        + [f"petersen_family({k},{s})" for k in (1, 2, 3) for s in (1, 4)]
        + [f"circulant_family({n},{k},{s})" for n in range(6, 13) for k in (1, 2, 3) for s in (1, 2)]
        + [f"star_family({k})" for k in range(4, 11)]
        + ["twin_cycle_family(3)"] + [f"twin_cycle_family({n})" for n in range(5, 13)]
        + ["fig1a", "fig1b", "fig2", "fig3", "fig3_sub"]
    )
    for spec in grid:
        assert oracle_sdimf(spec).value == _sdimf_by_kind(parse_spec(spec)), spec
    assert oracle_sdimf("cycle_family(20,2,1)").value == Fraction(10, 9)
    for inner in _OWN_DIMENSION_PAIRS:
        assert oracle_sdimf(f"with_complement({inner})") == oracle_dimf(inner), inner
    # At n = 4 every member is a star K_{1,3}: the twin multiplicities are
    # 2, 3, 3 and 4, so the constant-multiplicity rule does not apply.
    assert simultaneous_fractional_dimension(generate("twin_cycle_family(4)")).value == 2
    with pytest.raises(NoClosedForm):
        oracle_sdimf("twin_cycle_family(4)")


def test_single_graph_specs_have_no_family_value():
    for spec in ["complete(4)", "path(3)", "petersen"]:
        with pytest.raises(NoClosedForm):
            oracle_sdimf(spec)


def _family_spec(members):
    return "family_of(" + ",".join(f"graph_index({g.n},{graph_code(g)})" for g in members) + ")"


def _agrees_with_the_solver(spec):
    """True if the oracle answers spec, False if not; an answer must be the solver's."""
    try:
        value = oracle_sdimf(spec).value
    except NoClosedForm:
        return False
    assert value == simultaneous_fractional_dimension(generate(spec)).value, spec
    return True


def test_constant_twin_multiplicity_answers_equal_the_solver():
    # Every two-member family of labelled graphs on 2..4 vertices, and every
    # pair {G, complement(G)}: G and its complement have the same twins.
    answered = pairs = 0
    for n in range(2, 5):
        graphs = [graph_index(n, code) for code in range(1 << n * (n - 1) // 2)]
        for a, b in combinations(graphs, 2):
            answered += _agrees_with_the_solver(_family_spec([a, b]))
        for code in range(len(graphs)):
            pairs += _agrees_with_the_solver(f"with_complement(graph_index({n},{code}))")
    assert (answered, pairs) == (480, 24)
    rng = SplitMix64(31)
    specs = ([f"star_family({k})" for k in range(5, 10)]
             + [f"twin_cycle_family({n})" for n in range(5, 12)] + ["fig3"])
    for spec in specs:
        fam = generate(spec)
        perm = list(range(fam.n))
        rng.shuffle(perm)
        members = [Graph(g.n, [(perm[u], perm[v]) for u, v in g.edges]) for g in fam.members]
        assert _agrees_with_the_solver(_family_spec(members)), spec


def test_constant_twin_multiplicity_leaves_uneven_families_alone():
    # fig1b's multiplicities are 1, 2 and 3; remark_a_family(4) leaves every
    # branch vertex without a twin.
    assert not _constant_twin_multiplicity(generate("fig1b").members)
    assert oracle_sdimf("fig1b").value == 3
    assert not _constant_twin_multiplicity(generate("remark_a_family(4)").members)
    with pytest.raises(NoClosedForm):
        oracle_sdimf("remark_a_family(4)")
