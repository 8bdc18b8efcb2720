from fractions import Fraction

import pytest

from fracdim.graph import Graph
from fracdim.dimension import fractional_dimension, simultaneous_fractional_dimension
from fracdim.families import generate
from fracdim.oracles import (
    NoClosedForm,
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


def test_oracle_is_independent_of_spec_vs_graph():
    for spec in ("path(6)", "star(7)", "petersen", "bouquet(3,4)", "kite(6)"):
        assert oracle_dimf(spec).value == oracle_dimf(generate(spec)).value


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
