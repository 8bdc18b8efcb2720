import inspect
import json
import re
from fractions import Fraction

import pytest

import fracdim.harness as harness
from fracdim.harness import Budget, SUITE_ORDER, run_suite
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
        return OracleValue(Fraction(999), "corrupted", "self-test")

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
