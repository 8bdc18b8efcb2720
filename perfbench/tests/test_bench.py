"""Tests of the benchmark itself: the gate, the seed argument, the counters.

Run from the root of a checkout:  python3 -m pytest -q perfbench/tests
"""

import json
import sys
from pathlib import Path

BENCH = Path(__file__).resolve().parents[1]
sys.path[:0] = [str(BENCH), str(BENCH.parent / "src")]

import fracdim.cli as cli  # noqa: E402
import fracdim.lp  # noqa: E402
import workloads  # noqa: E402
from gate import Gate, key  # noqa: E402
from run import run_pass, run_request  # noqa: E402
from tracer import Tracer, count_mismatches  # noqa: E402

EXPECTED = json.loads((BENCH / "expected.json").read_text(encoding="utf-8"))


def _request(workload: str, spec_prefix: str, seed: int = workloads.DEFAULT_SEED):
    return next(a for a in workloads.requests(workload, seed) if a[2].startswith(spec_prefix))


def test_gate_counts_a_corrupted_expected_value_as_a_failure():
    for argv in (_request("sparse_large", "star_family(10)"), _request("dense_lp", "star(22)")):
        _, rc, out = run_request(cli, argv)
        assert Gate(EXPECTED).check(argv, rc, out) is None
        corrupted = dict(EXPECTED)
        value = EXPECTED[key(argv)]["value"]
        corrupted[key(argv)] = {"value": value + 1 if isinstance(value, int) else "21/4"}
        assert Gate(corrupted).check(argv, rc, out) is not None


def test_gate_rejects_a_wrong_certificate_without_a_stored_value():
    argv = _request("dense_lp", "with_complement", seed=3)
    assert key(argv) not in EXPECTED
    _, rc, out = run_request(cli, argv)
    payload = json.loads(out)
    payload["dual"] = ["0"] * len(payload["dual"])
    assert "certificate" in Gate(EXPECTED).check(argv, rc, json.dumps(payload))


def test_another_seed_gives_other_random_specs_that_pass_the_gate():
    for name in workloads.WORKLOADS:
        one, two = workloads.requests(name, 1), workloads.requests(name, 2)
        assert two == workloads.requests(name, 2)
        assert len(one) == len(two)
        changed = [a for a, b in zip(one, two) if a != b]
        assert all("random" in a[2] or "family(" in a[2] for a in changed)
        assert bool(changed) == (name != "verify_suites")
    argv = _request("dense_lp", "petersen_family", seed=2)
    assert key(argv) not in EXPECTED
    _, rc, out = run_request(cli, argv)
    assert Gate(EXPECTED).check(argv, rc, out) is None


def test_counters_repeat_exactly_and_a_changed_counter_is_named():
    reqs = [
        ("dimf", "--spec", "petersen", *workloads.CERT),
        ("sdimf", "--spec", "star_family(6)", "--bounds", *workloads.CERT),
        ("dim", "--spec", "cycle(8)", "--json"),
        ("verify", "example1_figures", "--json"),
    ]
    original = fracdim.lp.solve_covering_lp
    counts = []
    for _ in range(2):
        tracer = Tracer()
        tracer.install()
        try:
            run_pass(cli, reqs, tracer)
        finally:
            tracer.remove()
        counts.append(dict(tracer.counts))
    assert fracdim.lp.solve_covering_lp is original
    assert count_mismatches(*counts) == []
    assert counts[0]["lp.solve.calls"] > 0 and counts[0]["lp.hitting_set.k_tried"] > 0
    assert counts[0]["harness.checks"] == 5
    changed = dict(counts[1], **{"lp.solve.calls": counts[1]["lp.solve.calls"] + 1})
    assert count_mismatches(counts[0], changed) == ["lp.solve.calls"]
