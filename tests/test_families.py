import pytest

import fracdim.families as families
from fracdim.cli import main
from fracdim.graph import diameter, is_connected, is_tree, complement
from fracdim.metric import twin_partition
from fracdim.families import (
    FamilySpec,
    SplitMix64,
    format_spec,
    generate,
    graph_code,
    known_kinds,
    parse_spec,
)


def test_splitmix64_reference_stream():
    # reference outputs for seed 0 (SplitMix64 test vectors)
    rng = SplitMix64(0)
    assert rng.next_u64() == 0xE220A8397B1DCDAF
    assert rng.next_u64() == 0x6E789E6AA1B965F4
    assert rng.next_u64() == 0x06C45D188009454F


def test_parse_format_round_trip():
    texts = [
        "path(4)", "cycle(7)", "complete(5)", "star(6)", "wheel(6)", "petersen",
        "bouquet(3,4,5)", "kite(5)", "unicyclic_a(1,2)", "unicyclic_b(2,1)",
        "unicyclic_c(3)", "unicyclic_d(2,3)", "h1", "h2", "h3", "fig1a", "fig1b",
        "fig2", "fig3", "fig3_sub", "fig5_tree(2)", "path_family(6,rotations)",
        "path_family(5,shared_end)", "star_family(5)", "remark_a_family(3)",
        "remark_b_family(4)", "cycle_family(6,2,-7)", "petersen_family(2,0)",
        "circulant(8,1,3)", "circulant_family(8,2,5)", "twin_cycle_family(4)",
        "graph_index(4,11)", "family_of(path(4),graph_index(4,11))",
        "random_tree(9,3)", "random_unicyclic(7,1)", "random_connected(8,45,12345)",
        "random_family(6,2,1)", "with_complement(cycle(7))", "with_complement(petersen)",
    ]
    assert {parse_spec(t).kind for t in texts} == set(known_kinds())
    for text in texts:
        spec = parse_spec(text)
        assert format_spec(spec) == text
        assert parse_spec(format_spec(spec)) == spec
        generate(spec)
    assert parse_spec("path_family(5,shared_end)").params == (5, FamilySpec("shared_end"))
    assert parse_spec("with_complement(petersen)").params == (FamilySpec("petersen"),)


def test_parse_accepts_spaces():
    for text in ["unicyclic_d( 2 , 3 )", "  unicyclic_d(2,3)", "unicyclic_d(2,3) ",
                 "\tunicyclic_d\t(\n2,\t3\n)\n"]:
        assert parse_spec(text) == FamilySpec("unicyclic_d", (2, 3))


def test_parse_rejects_junk():
    with pytest.raises(ValueError):
        parse_spec("wheel(6")
    with pytest.raises(ValueError):
        parse_spec("wheel(6))")
    with pytest.raises(ValueError):
        parse_spec("3cycle")


def test_unknown_kind():
    with pytest.raises(ValueError, match="unknown generator kind"):
        generate("nosuchthing(3)")


def test_param_ranges():
    for bad in ["cycle(2)", "wheel(3)", "star(1)", "kite(3)", "bouquet(3)",
                "unicyclic_a(0,1)", "fig5_tree(1)", "star_family(3)",
                "remark_a_family(2)", "path_family(2,rotations)",
                "random_connected(4,0,1)", "random_connected(4,101,1)",
                "twin_cycle_family(2)", "graph_index(3,8)",
                # parameterless kinds take no parameters
                "petersen(3)", "h1(9,9)", "h2(1)", "h3(0)", "fig1a(2)", "fig1b(1)",
                "fig2(1)", "fig3(1)", "fig3_sub(x)"]:
        with pytest.raises(ValueError):
            generate(bad)
    assert generate("petersen()") == generate("petersen")


def test_petersen_shape():
    g = generate("petersen")
    assert g.n == 10 and len(g.edges) == 15
    assert all(g.degree(v) == 3 for v in range(10))
    assert diameter(g) == 2


def test_bouquet_shape():
    g = generate("bouquet(3,4,5)")
    assert g.n == 1 + 2 + 3 + 4
    assert g.degree(0) == 6
    assert all(g.degree(v) == 2 for v in range(1, g.n))


def test_wheel_and_kite():
    w = generate("wheel(6)")
    assert w.degree(0) == 5 and all(w.degree(v) == 3 for v in range(1, 6))
    k = generate("kite(5)")
    assert sorted(k.degree(v) for v in range(5)) == [1, 1, 2, 2, 4]


def test_fig1b_second_member_matches_fixed_edges():
    h2 = generate("fig1b").members[1]
    assert set(h2.edges) == {(0, 2), (1, 2), (1, 5), (0, 5), (0, 3), (3, 4), (0, 4)}


def test_fig3_first_member_matches_fixed_edges():
    g1 = generate("fig3").members[0]
    assert set(g1.edges) == {(0, 2), (1, 2), (2, 3), (3, 4)}


def test_figure_twin_classes_are_preserved():
    fig2 = generate("fig2")
    expectations = [((0, 1), (6, 7)), ((2, 3), (10, 11)), ((4, 5), (8, 9))]
    for g, pairs in zip(fig2.members, expectations):
        classes = twin_partition(g).classes
        for pair in pairs:
            assert pair in classes
    fig1b = generate("fig1b")
    for g, pair in zip(fig1b.members, [(1, 5), (3, 4), (0, 2)]):
        assert pair in twin_partition(g).classes


def test_unicyclic_templates_have_diameter_three_both_sides():
    for a in range(1, 6):
        for b in range(1, 6):
            for kind in ("unicyclic_a", "unicyclic_b", "unicyclic_d"):
                g = generate(f"{kind}({a},{b})")
                assert diameter(g) == 3 and diameter(complement(g)) == 3, (kind, a, b)
        g = generate(f"unicyclic_c({a})")
        assert diameter(g) == 3 and diameter(complement(g)) == 3


def test_exceptional_graphs():
    h1 = generate("h1")
    assert h1.n == 4 and sorted(h1.degree(v) for v in range(4)) == [1, 2, 2, 3]
    h2 = generate("h2")
    assert h2.n == 5 and len(h2.edges) == 5
    h3 = generate("h3")
    assert h3.n == 6 and sorted(h3.degree(v) for v in range(6)) == [1, 1, 2, 2, 3, 3]


def test_path_family_modes():
    shared = generate("path_family(5,shared_end)")
    assert all(g.degree(0) == 1 for g in shared.members)
    assert len(shared.members) == 3
    rotated = generate("path_family(5,rotations)")
    common = None
    for g in rotated.members:
        ends = {v for v in range(5) if g.degree(v) == 1}
        common = ends if common is None else common & ends
    assert not common


def test_star_family_members_are_stars():
    fam = generate("star_family(5)")
    assert len(fam.members) == 5
    for c, g in enumerate(fam.members):
        assert g.degree(c) == 4


def test_remark_families_are_spiders():
    for k in (3, 5):
        fam = generate(f"remark_a_family({k})")
        assert fam.n == 3 * k and len(fam.members) == k
        for i, g in enumerate(fam.members):
            assert is_tree(g)
            majors = [v for v in range(g.n) if g.degree(v) >= 3]
            assert majors == [3 * i]
        fam = generate(f"remark_b_family({k})")
        assert fam.n == k + 3 and len(fam.members) == k
        for g in fam.members:
            assert is_tree(g)
            assert g.degree(0) == 3


def test_random_tree_is_tree_for_many_seeds():
    for seed in range(40):
        g = generate(f"random_tree(9,{seed})")
        assert is_tree(g)


def test_random_unicyclic_has_one_cycle():
    for seed in range(20):
        g = generate(f"random_unicyclic(8,{seed})")
        assert is_connected(g) and len(g.edges) == g.n


def test_random_connected_is_connected_and_deterministic():
    a = generate("random_connected(9,45,7)")
    b = generate("random_connected(9,45,7)")
    assert a == b and is_connected(a)
    assert generate("random_tree(9,7)") == generate("random_tree(9,7)")


def test_random_connected_gives_up_after_its_pair_draws(monkeypatch, capsys):
    samples = []

    def never(g):
        samples.append(g)
        return False

    monkeypatch.setattr(families, "is_connected", never)
    monkeypatch.setattr(families, "_MAX_PAIR_DRAWS", 450)
    with pytest.raises(ValueError, match=r"no connected sample found for n=10, p=1%"):
        generate("random_connected(10,1,2)")
    assert len(samples) == 10  # 450 draws are 10 samples of 45 pairs
    samples.clear()
    assert main(["gen", "--spec", "random_connected(40,50,1)"]) == 2
    assert len(samples) == 1  # 780 pairs is over the cap, one sample is still tried
    assert capsys.readouterr().err == "error: no connected sample found for n=40, p=50%\n"


def test_random_connected_fails_within_its_default_draws():
    # the default cap: 22 222 samples of 45 pairs, about a second
    with pytest.raises(ValueError, match="no connected sample found"):
        generate("random_connected(10,1,2)")


def test_graph_index_round_trip():
    for code in (0, 1, 17, 63):
        g = generate(f"graph_index(4,{code})")
        assert graph_code(g) == code


def test_with_complement_family():
    fam = generate("with_complement(cycle(5))")
    assert len(fam.members) == 2
    assert fam.members[1] == complement(fam.members[0])


def test_single_vertex_path_is_a_valid_graph():
    # n = 1 is fine as a graph; only the dimension computations need n >= 2
    g = generate("path(1)")
    assert g.n == 1 and g.edges == ()
    from fracdim.dimension import fractional_dimension

    with pytest.raises(ValueError):
        fractional_dimension(g)


def test_known_kinds_contains_the_catalogue():
    kinds = known_kinds()
    for k in ("path", "cycle", "wheel", "petersen", "bouquet", "kite",
              "fig1a", "fig1b", "fig2", "fig3", "unicyclic_a", "unicyclic_d",
              "h1", "h2", "h3", "path_family", "star_family",
              "remark_a_family", "remark_b_family", "fig5_tree",
              "random_tree", "random_unicyclic", "random_connected"):
        assert k in kinds
