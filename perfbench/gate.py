"""Correctness gate: decides whether one request's output is right.

A request fails on a non-zero exit code, an exception, output that does not
parse, or a wrong value.  Values are checked three ways, each where it
applies: against the stored expectation for the same argv (``expected.json``
holds every request of the default seed, and unseeded requests match under
every seed), against the closed forms in ``fracdim.oracles``, and, for
every fractional value, by re-verifying its primal/dual certificate with
``verify_solution`` on a freshly built instance.
"""

from __future__ import annotations

import hashlib
import json
from fractions import Fraction

from fracdim import (
    CoveringLp,
    CertificateError,
    Graph,
    GraphFamily,
    LpSolution,
    NoClosedForm,
    generate,
    joint_cover_sets,
    oracle_dimf,
    oracle_sdimf,
    verify_solution,
)


def key(argv) -> str:
    return " ".join(argv)


def summary(argv, payload):
    """The part of a parsed output that ``expected.json`` stores."""
    if argv[0] == "verify":
        checks = [r["checks"] for r in payload]
        digest = hashlib.sha256(json.dumps(checks, sort_keys=True).encode()).hexdigest()
        return {"checks": sum(len(c) for c in checks), "sha256": digest}
    out = {"value": payload["value"]}
    if "bounds" in payload:
        out["bounds"] = payload["bounds"]
    return out


def _family(spec: str) -> GraphFamily:
    obj = generate(spec)
    return GraphFamily([obj]) if isinstance(obj, Graph) else obj


def _oracle(fn, obj):
    try:
        return fn(obj).value
    except NoClosedForm:
        return None


class Gate:
    """Checks outputs; remembers verdicts so a repeated output is checked once."""

    def __init__(self, expected: dict):
        self.expected = expected
        self._verdicts: dict[tuple[str, int, str], str | None] = {}

    def check(self, argv, rc: int, out: str) -> str | None:
        """None when the output is right, else the reason it is wrong."""
        memo = (key(argv), rc, out)
        if memo not in self._verdicts:
            try:
                self._verdicts[memo] = self._check(argv, rc, out)
            except Exception as exc:  # a crash while checking is a failed request
                self._verdicts[memo] = f"gate raised {type(exc).__name__}: {exc}"
        return self._verdicts[memo]

    def _check(self, argv, rc: int, out: str) -> str | None:
        if rc != 0:
            return f"exit code {rc}"
        try:
            payload = json.loads(out)
        except ValueError:
            return "output is not JSON"
        want = self.expected.get(key(argv))
        if want is not None and summary(argv, payload) != want:
            return f"expected {want}, got {summary(argv, payload)}"
        cmd = argv[0]
        if cmd == "verify":
            bad = [c["description"] for r in payload for c in r["checks"] if c["status"] != "pass"]
            return f"failed checks: {bad}" if bad else None
        if cmd in ("dim", "sdim"):
            return None if isinstance(payload["value"], int) else "value is not an integer"
        spec = argv[argv.index("--spec") + 1]
        value = Fraction(payload["value"])
        closed = _oracle(oracle_dimf if cmd == "dimf" else oracle_sdimf, spec)
        if closed is not None and value != closed:
            return f"closed form gives {closed}, output {value}"
        fam = _family(spec)
        sol = LpSolution(
            value,
            tuple(Fraction(v) for v in payload["assignment"]),
            tuple(Fraction(v) for v in payload["dual"]),
        )
        try:
            verify_solution(CoveringLp(fam.n, joint_cover_sets(fam)), sol)
        except CertificateError as exc:
            return f"certificate rejected: {exc}"
        if "bounds" in payload:
            return _check_bounds(fam, value, payload["bounds"])
        return None


def _check_bounds(fam: GraphFamily, value: Fraction, bounds: dict) -> str | None:
    b = {k: Fraction(v) for k, v in bounds.items() if k != "per_member_dimf"}
    per_member = [Fraction(v) for v in bounds["per_member_dimf"]]
    if b["sdf"] != value:
        return "bounds report a different sdf"
    if not (b["max_dimf"] <= value <= min(b["sum_dimf"], b["half_n"]) and value <= b["sd"]):
        return f"bound chain fails: {bounds}"
    if max(per_member) != b["max_dimf"] or sum(per_member) != b["sum_dimf"]:
        return "max/sum do not match the member values"
    for g, v in zip(fam.members, per_member):
        closed = _oracle(oracle_dimf, g)
        if closed is not None and v != closed:
            return f"member closed form gives {closed}, output {v}"
    return None
