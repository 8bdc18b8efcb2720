import dataclasses
import hashlib
import inspect
import json
import re
from fractions import Fraction
from itertools import combinations

import pytest

import fracdim.dimension as dimension
import fracdim.harness as harness
from fracdim.families import generate
from fracdim.graph import Graph, is_connected
from fracdim.harness import Budget, SUITE_ORDER, run_all, run_suite
from fracdim.oracles import OracleValue


def test_example1_suite_has_five_passing_checks():
    rep = run_suite("example1_figures")
    assert len(rep.checks) == 5
    assert rep.passed
    values = [c.witness.rsplit("=", 1)[1] for c in rep.checks]
    assert values == ["3/2", "3", "6", "5/2", "2"]


def test_unknown_suite():
    with pytest.raises(ValueError, match="unknown suite"):
        run_suite("nosuch")


def test_budget_parsing():
    b = Budget.parse(["n=9", "samples=5"])
    assert b.get("n", 12) == 9
    assert b.get("samples", 50) == 5
    assert b.get("seed", 7) == 7
    with pytest.raises(ValueError):
        Budget.parse(["n9"])


def test_budget_rejects_unknown_keys():
    with pytest.raises(ValueError, match="unknown budget key 'nn'"):
        Budget.parse(["nn=3"])
    with pytest.raises(ValueError, match="unknown budget key 'nn'"):
        run_suite("prop12_paths", {"nn": 3})
    assert Budget.parse([f"{key}=3" for key in Budget.KEYS]).get("ab", 4) == 3


def test_budget_rejects_negative_counts():
    with pytest.raises(ValueError, match="budget samples must be >= 0, got -1"):
        run_suite("obs2_sandwich", {"samples": -1})
    with pytest.raises(ValueError, match="budget trees must be >= 0, got -2"):
        Budget.parse(["trees=-2"])
    # a seed is any integer
    assert Budget.parse(["seed=-5", "n=0"]).get("seed", 7) == -5


@pytest.mark.parametrize("value", [2.7, "abc", True, None])
def test_budget_rejects_non_integer_values(value):
    with pytest.raises(ValueError, match=f"budget n must be an integer, got {re.escape(repr(value))}"):
        run_suite("prop12_paths", {"n": value})


def test_the_ab_budget_is_capped_at_6():
    assert run_suite("unicyclic_table", {"ab": 9}).checks == run_suite(
        "unicyclic_table", {"ab": 6}).checks


def test_budget_keys_are_the_ones_the_suites_read():
    read = set(re.findall(r'budget\.get\("(\w+)"', inspect.getsource(harness)))
    assert read == set(Budget.KEYS)


def test_reports_are_reproducible():
    a = run_suite("prop12_paths", {"n": 7})
    b = run_suite("prop12_paths", {"n": 7})
    assert a.checks == b.checks  # elapsed_ms may differ; content may not


def test_report_serialization_round_trips():
    rep = run_suite("example1_figures")
    data = json.loads(rep.to_json())
    assert data["suite"] == "example1_figures"
    assert len(data["checks"]) == 5
    assert all(c["status"] == "pass" for c in data["checks"])
    assert Fraction(data["checks"][0]["witness"].rsplit("=", 1)[1]) == Fraction(3, 2)
    text = rep.render_text()
    assert "5/5 passed" in text


def test_all_suites_registered_and_pass_with_small_budgets():
    budget = {"samples": 6, "trees": 6, "n": 7}
    assert len(SUITE_ORDER) == 15
    for name in SUITE_ORDER:
        rep = run_suite(name, budget)
        assert rep.passed, (name, [c for c in rep.checks if c.status == "fail"])


def test_corrupted_oracle_fails_with_witness(monkeypatch):
    def corrupted(spec, *args, **kwargs):
        return OracleValue(Fraction(999))

    monkeypatch.setattr(harness, "oracle_dimf", corrupted)
    rep = run_suite("thm1_closed_forms", {"trees": 2, "n": 6})
    assert not rep.passed
    failing = [c for c in rep.checks if c.status == "fail"]
    assert failing
    assert "spec=" in failing[0].witness
    assert "expected=999" in failing[0].witness
    assert "actual=" in failing[0].witness


def test_rendered_text_is_identical_across_runs():
    a = run_suite("prop15_cycles", {"n": 8}).render_text()
    b = run_suite("prop15_cycles", {"n": 8}).render_text()
    assert a == b
    assert a.endswith("passed") and " ms" not in a


def _suite_digest(budget) -> str:
    data = [
        (r.suite, [(c.description, c.status, c.witness) for c in r.checks])
        for r in run_all(budget)
    ]
    return hashlib.sha256(repr(data).encode()).hexdigest()


@pytest.mark.parametrize(
    "budget, digest",
    [
        (
            {"samples": 6, "trees": 6, "n": 7, "exhaustive_n": 4, "ab": 2},
            "0091ab8908b919e7c28b6bc0801d4342c967cad27e9272fb64df73e89a4c3a31",
        ),
        (
            {"seed": 7, "samples": 9, "trees": 9, "n": 8, "exhaustive_n": 4, "ab": 3},
            "eb219e71f56536ffc52d598fd136c8786a40a9ed797a056366b5f73390ce0528",
        ),
    ],
)
def test_suite_text_is_pinned(budget, digest):
    # Every description, status and witness of every suite, at a small budget.
    assert _suite_digest(budget) == digest


def test_every_failing_witness_regenerates_its_instance(monkeypatch):
    off = Fraction(1, 7)
    calls = []
    solved, bounds = harness._solved, harness.bounds_report

    def shifted(members):
        calls.append(len(members))
        res = solved(members)
        by = -off if len(members) == 1 else off
        return dataclasses.replace(
            res, value=res.value + by, assignment=tuple(x - by for x in res.assignment)
        )

    def shifted_bounds(fam):
        calls.append(len(fam))
        rep = bounds(fam)
        return dataclasses.replace(rep, sdf=rep.sdf + off)

    # One-member and pooled systems drift apart, so checks comparing them
    # fail too, even where the two are one system.
    monkeypatch.setattr(harness, "_solved", shifted)
    monkeypatch.setattr(harness, "bounds_report", shifted_bounds)

    budget = {"samples": 6, "trees": 6, "n": 7, "exhaustive_n": 4, "ab": 2}
    failed = set()
    for name in SUITE_ORDER:
        calls.clear()
        failing = [c for c in run_suite(name, budget).checks if c.status == "fail"]
        assert bool(failing) == bool(calls), name
        for c in failing:
            assert c.witness.startswith("spec="), (name, c)
            generate(c.witness.split()[0].removeprefix("spec="))
        if failing:
            failed.add(name)
    # Every suite but one reaches a perturbed solve; lemma10 compares
    # resolver sets only.
    assert failed == set(SUITE_ORDER) - {"lemma10_diam2_subset"}


def _count_solves(monkeypatch) -> list:
    """Record each LP the harness solves, by its (n, set of masks)."""
    calls = []
    solve = harness._solve

    def counted(lp):
        calls.append((lp.n_vars, frozenset(lp.masks)))
        return solve(lp)

    monkeypatch.setattr(harness, "_solve", counted)
    return calls


def test_a_suite_solves_each_distinct_instance_once(monkeypatch):
    calls = _count_solves(monkeypatch)
    asked = []
    solved = harness._solved
    monkeypatch.setattr(harness, "_solved", lambda *a: asked.append(a) or solved(*a))
    assert run_suite("thm8_characterizations", {"exhaustive_n": 4, "samples": 6}).passed
    assert len(set(calls)) == len(calls)
    assert 0 < len(calls) < len(asked)


def test_the_memo_is_not_shared_between_calls(monkeypatch):
    calls = _count_solves(monkeypatch)
    budget = {"exhaustive_n": 4, "samples": 6}
    run_suite("thm8_characterizations", budget)
    first = len(calls)
    assert harness._MEMO.get() is None
    run_suite("thm8_characterizations", budget)
    assert first > 0 and len(calls) == 2 * first
    assert harness._MEMO.get() is None


@pytest.mark.parametrize(
    "spec, solves",
    [("petersen", 1), ("wheel(7)", 1), ("cycle(5)", 1), ("path(6)", 2)],
)
def test_a_graph_and_its_diameter_2_pair_share_one_solve(monkeypatch, spec, solves):
    # Lemma 10: diam G = 2 makes the pooled system of {G, complement(G)}
    # G's own, so its Sd_f is dim_f(G) from the same solve.
    calls = []
    solve = dimension.solve_covering_lp
    monkeypatch.setattr(dimension, "solve_covering_lp", lambda lp: calls.append(lp) or solve(lp))
    g = generate(spec)
    token = harness._MEMO.set(harness._Memo())
    try:
        dimf, pair = harness._dimf(g), harness._pair(g)
    finally:
        harness._MEMO.reset(token)
    assert len(calls) == solves
    assert (dimf == pair) == (solves == 1)


def test_the_memo_is_dropped_when_a_check_raises(monkeypatch):
    held = []

    def broken(members):
        held.append(len(harness._MEMO.get().solved))
        raise RuntimeError("broken check")

    monkeypatch.setattr(harness, "_common_end", broken)
    with pytest.raises(RuntimeError, match="broken check"):
        run_suite("thm4_sdf_one", {"samples": 2})
    assert held == [1]  # the check raised after its solve was memoized
    assert harness._MEMO.get() is None


def test_descriptions_state_the_sizes_drawn_when_the_cap_is_below_the_floor():
    budget = {"n": 2}
    described = [c.description for name in ("thm1_closed_forms", "thm8_characterizations",
                                            "thm14_trees")
                 for c in run_suite(name, budget).checks]
    assert "tree closed form (sigma-ex1)/2 on 60 random trees (n <= 4)" in described
    assert "characterizations on 60 sampled graphs with 6 <= n <= 6" in described
    assert ("tree/complement pairs take the complement's dimension on 40 random trees "
            "(n <= 5)") in described


def _girth_at_most_3(g):
    nbr = [set(g.adj[v]) for v in range(g.n)]
    return any(nbr[u] & nbr[v] for u, v in g.edges)


def _degrees(g):
    return sorted(g.degree(v) for v in range(g.n))


def _is_h1(g):
    return g.n == 4 and _degrees(g) == [1, 2, 2, 3]


def _is_h2(g):
    return g.n == 5 and _degrees(g) == [1, 2, 2, 2, 3] and not _girth_at_most_3(g)


def _is_h3(g):
    if g.n != 6 or _degrees(g) != [1, 1, 2, 2, 3, 3] or _girth_at_most_3(g):
        return False
    supports = [v for v in range(6) if g.degree(v) == 3]
    return g.has_edge(*supports)


def test_exception_match_agrees_with_the_degree_and_girth_rules():
    # Every connected unicyclic graph on n <= 6 vertices: n edges, connected.
    rules = {"h1": _is_h1, "h2": _is_h2, "h3": _is_h3}
    exceptions = {spec: generate(spec) for spec, _ in harness._UNICYCLIC_EXCEPTIONS}
    matched = dict.fromkeys(rules, 0)
    for n in range(3, 7):
        for edges in combinations(combinations(range(n), 2), n):
            g = Graph(n, edges)
            if not is_connected(g):
                continue
            for spec, h in exceptions.items():
                match = harness._isomorphic(g, h)
                assert match == rules[spec](g), (spec, edges)
                matched[spec] += match
    assert all(matched.values()), matched
