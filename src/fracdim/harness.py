"""Named suites that re-verify the library's claimed identities numerically.

Each suite builds a deterministic list of checks (fixed seeds, fixed
ordering); a check compares an engine-computed quantity against an
independent expectation and carries a witness string on failure with a
spec sufficient to reproduce the instance in one CLI call.  Budgets cap
sizes and sample counts.
"""

from __future__ import annotations

import json
import time
from dataclasses import dataclass
from fractions import Fraction
from itertools import combinations
from typing import Callable, Mapping

from .graph import Graph, complement, diameter
from .lp import format_rational
from .metric import (
    is_vertex_transitive,
    r_of,
    resolver_masks,
    twin_partition,
)
from .dimension import (
    GraphFamily,
    bounds_report,
    fractional_dimension,
    simultaneous_dimension,
    simultaneous_fractional_dimension,
)
from .families import (
    SplitMix64,
    generate,
    graph_code,
    with_complement,
)
from .oracles import oracle_dimf, oracle_sdimf

DEFAULT_SEED = 20240801


@dataclass(frozen=True)
class Budget:
    """Optional size caps for a suite run; ``KEYS`` are the ones suites read."""

    KEYS = ("n", "samples", "trees", "seed", "exhaustive_n", "ab")

    limits: Mapping[str, int]

    def __post_init__(self):
        for key in self.limits:
            if key not in self.KEYS:
                raise ValueError(f"unknown budget key {key!r}; known: {', '.join(self.KEYS)}")

    def get(self, key: str, default: int) -> int:
        return int(self.limits.get(key, default))

    @staticmethod
    def parse(pairs) -> "Budget":
        limits = {}
        for pair in pairs or ():
            key, sep, value = pair.partition("=")
            if not sep or not key:
                raise ValueError(f"budget entries look like n=12, got {pair!r}")
            limits[key.strip()] = int(value)
        return Budget(limits)


def _budget(budget) -> Budget:
    if budget is None:
        return Budget({})
    if isinstance(budget, Budget):
        return budget
    return Budget(dict(budget))


@dataclass(frozen=True)
class CheckResult:
    description: str
    status: str  # "pass" | "fail"
    witness: str


@dataclass(frozen=True)
class SuiteReport:
    suite: str
    checks: tuple[CheckResult, ...]
    elapsed_ms: int

    @property
    def passed(self) -> bool:
        return all(c.status == "pass" for c in self.checks)

    def to_dict(self) -> dict:
        return {
            "suite": self.suite,
            "checks": [
                {"description": c.description, "status": c.status, "witness": c.witness}
                for c in self.checks
            ],
            "elapsed_ms": self.elapsed_ms,
        }

    def to_json(self) -> str:
        return json.dumps(self.to_dict(), indent=2)

    def render_text(self) -> str:
        lines = [f"suite {self.suite}"]
        for c in self.checks:
            lines.append(f"  [{c.status}] {c.description}  {c.witness}")
        good = sum(1 for c in self.checks if c.status == "pass")
        lines.append(f"  {good}/{len(self.checks)} passed")
        return "\n".join(lines)


Unit = tuple[str, Callable[[], tuple[bool, str]]]


def _fmt(v: Fraction) -> str:
    return format_rational(Fraction(v))


def _sdf(spec_or_family) -> Fraction:
    fam = generate(spec_or_family) if isinstance(spec_or_family, str) else spec_or_family
    if isinstance(fam, Graph):
        fam = GraphFamily([fam])
    return simultaneous_fractional_dimension(fam).value


def _value_unit(description: str, spec: str, expected: Fraction,
                compute: Callable[[], Fraction]) -> Unit:
    def run() -> tuple[bool, str]:
        actual = compute()
        if actual == expected:
            return True, f"spec={spec} value={_fmt(actual)}"
        return False, f"spec={spec} expected={_fmt(expected)} actual={_fmt(actual)}"

    return description, run


def _batch_unit(description: str, cases, check_one) -> Unit:
    """cases: list of (spec_str, payload); check_one -> (ok, detail)."""

    def run() -> tuple[bool, str]:
        for spec, payload in cases:
            ok, detail = check_one(payload)
            if not ok:
                return False, f"spec={spec} {detail}"
        return True, f"{len(cases)} instances"

    return description, run


# ---------------------------------------------------------------------------
# suite builders


def _suite_thm1_closed_forms(budget: Budget) -> list[Unit]:
    units: list[Unit] = []
    roster = (
        [f"path({n})" for n in range(2, 13)]
        + [f"cycle({n})" for n in range(3, 13)]
        + ["petersen"]
        + [f"wheel({n})" for n in range(4, 13)]
        + [f"complete({n})" for n in range(2, 11)]
        + ["bouquet(3,3)", "bouquet(3,3,3)", "bouquet(3,3,3,3)",
           "bouquet(3,4)", "bouquet(4,5)", "bouquet(3,4,5)", "bouquet(5,5,3)"]
        + [f"star({n})" for n in range(4, 9)]
        + [f"kite({n})" for n in range(4, 9)]
        + [f"fig5_tree({k})" for k in range(2, 5)]
    )
    for spec in roster:
        ov = oracle_dimf(spec)
        units.append(
            _value_unit(
                f"dimension of {spec} matches its closed form",
                spec,
                ov.value,
                lambda s=spec: fractional_dimension(generate(s)).value,
            )
        )

    trees = budget.get("trees", 60)
    cap = budget.get("n", 14)
    rng = SplitMix64(budget.get("seed", DEFAULT_SEED))
    cases = []
    for _ in range(trees):
        n = 4 + rng.below(max(cap - 3, 1))
        seed = rng.next_u64()
        cases.append((f"random_tree({n},{seed})", f"random_tree({n},{seed})"))

    def tree_check(spec):
        g = generate(spec)
        expected = oracle_dimf(g).value
        actual = fractional_dimension(g).value
        if actual == expected:
            return True, ""
        return False, f"expected={_fmt(expected)} actual={_fmt(actual)}"

    units.append(
        _batch_unit(
            f"tree closed form (sigma-ex1)/2 on {trees} random trees (n <= {cap})",
            cases,
            tree_check,
        )
    )
    return units


def _random_family_cases(budget: Budget, default_samples: int, n_default: int = 10):
    samples = budget.get("samples", default_samples)
    cap = budget.get("n", n_default)
    rng = SplitMix64(budget.get("seed", DEFAULT_SEED) ^ 0xF00D)
    cases = []
    for _ in range(samples):
        n = 4 + rng.below(max(cap - 3, 1))
        k = 2 + rng.below(3)
        seed = rng.next_u64()
        cases.append((f"random_family({n},{k},{seed})", f"random_family({n},{k},{seed})"))
    return cases


def _suite_obs2_sandwich(budget: Budget) -> list[Unit]:
    cases = _random_family_cases(budget, 50)

    def check(spec):
        fam = generate(spec)
        rep = bounds_report(fam)  # raises on violation
        upper = min(rep.sum_dimf, rep.half_n)
        if rep.max_dimf <= rep.sdf <= upper and rep.sdf <= rep.sd:
            return True, ""
        return False, (
            f"max={_fmt(rep.max_dimf)} sdf={_fmt(rep.sdf)} "
            f"min(sum,n/2)={_fmt(upper)} sd={rep.sd}"
        )

    return [
        _batch_unit(
            f"bound chain max <= Sd_f <= min(sum, n/2) <= n/2 and Sd_f <= Sd "
            f"on {len(cases)} random families",
            cases,
            check,
        )
    ]


def _twin_bound_holds(fam: GraphFamily, assignment) -> tuple[bool, str]:
    for gi, g in enumerate(fam.members):
        for cls in twin_partition(g).nontrivial():
            total = sum((assignment[v] for v in cls), Fraction(0))
            if total < Fraction(len(cls), 2):
                return False, (
                    f"member={gi} class={list(cls)} mass={_fmt(total)} "
                    f"needed={_fmt(Fraction(len(cls), 2))}"
                )
    return True, ""


def _suite_lemma1_twin_bound(budget: Budget) -> list[Unit]:
    roster = [
        "fig1a", "fig1b", "fig2", "fig3", "fig3_sub",
        "star_family(5)", "star_family(6)",
        "remark_a_family(4)", "remark_b_family(4)", "twin_cycle_family(6)",
        "with_complement(cycle(3))", "with_complement(cycle(6))",
        "with_complement(kite(5))", "with_complement(complete(6))",
        "with_complement(unicyclic_b(2,3))", "with_complement(unicyclic_d(2,2))",
        "with_complement(star(7))", "with_complement(wheel(7))",
    ]
    roster += [spec for spec, _ in _random_family_cases(budget, 10)]
    units = []
    for spec in roster:
        def run(s=spec) -> tuple[bool, str]:
            fam = generate(s)
            if isinstance(fam, Graph):
                fam = GraphFamily([fam])
            res = simultaneous_fractional_dimension(fam)
            ok, detail = _twin_bound_holds(fam, res.assignment)
            if ok:
                return True, f"spec={s} value={_fmt(res.value)}"
            return False, f"spec={s} {detail}"

        units.append((f"optimal assignment of {spec} gives every twin class its half", run))
    return units


def _all_labeled_paths(n: int) -> list[tuple[str, Graph]]:
    from itertools import permutations

    seen = {}
    for perm in permutations(range(n)):
        if perm[0] > perm[-1]:
            continue  # one orientation per path
        g = Graph(n, [(perm[i], perm[i + 1]) for i in range(n - 1)])
        seen[g.edges] = g
    return [(f"graph_index({n},{graph_code(g)})", g) for g in seen.values()]


def _common_end(members) -> bool:
    ends = None
    for g in members:
        e = {v for v in range(g.n) if g.degree(v) == 1}
        ends = e if ends is None else ends & e
    return bool(ends)


def _suite_thm4_sdf_one(budget: Budget) -> list[Unit]:
    units: list[Unit] = []
    paths4 = _all_labeled_paths(4)

    for size in (2, 3):
        cases = []
        for combo in combinations(range(len(paths4)), size):
            specs = [paths4[i][0] for i in combo]
            cases.append((f"family_of({','.join(specs)})", combo))

        def check(combo, paths=paths4):
            members = [paths[i][1] for i in combo]
            fam = GraphFamily(members)
            value = simultaneous_fractional_dimension(fam).value
            expected_one = _common_end(members)
            if (value == 1) == expected_one:
                return True, ""
            return False, f"common_end={expected_one} value={_fmt(value)}"

        units.append(
            _batch_unit(
                f"value is 1 exactly for shared-end families: all {len(cases)} "
                f"{size}-member families of 4-vertex paths",
                cases,
                check,
            )
        )

    for n in range(2, 9):
        spec = f"path_family({n},shared_end)"
        units.append(
            _value_unit(
                f"shared-end path family on {n} vertices has value 1",
                spec,
                Fraction(1),
                lambda s=spec: _sdf(s),
            )
        )
    for n in range(3, 9):
        spec = f"path_family({n},rotations)"
        units.append(
            _value_unit(
                f"rotated path family on {n} vertices has value {n}/{n - 1}",
                spec,
                Fraction(n, n - 1),
                lambda s=spec: _sdf(s),
            )
        )

    spec = "family_of(path(5),cycle(5))"
    units.append(
        ("a family with a non-path member exceeds 1",
         lambda s=spec: ((v := _sdf(s)) > 1, f"spec={s} value={_fmt(v)}"))
    )

    samples = budget.get("samples", 60)
    rng = SplitMix64(budget.get("seed", DEFAULT_SEED) ^ 0x0444)
    sampled = []
    for _ in range(samples):
        n = 5 + rng.below(4)
        k = 2 + rng.below(2)
        orders = []
        for _ in range(k):
            order = list(range(n))
            rng.shuffle(order)
            orders.append(order)
        members = [Graph(n, [(o[i], o[i + 1]) for i in range(n - 1)]) for o in orders]
        specs = ",".join(f"graph_index({n},{graph_code(g)})" for g in members)
        sampled.append((f"family_of({specs})", members))

    def check_sampled(members):
        fam = GraphFamily(members)
        value = simultaneous_fractional_dimension(fam).value
        if _common_end(members):
            ok = value == 1
        else:
            ok = value == Fraction(fam.n, fam.n - 1)
        if ok:
            return True, ""
        return False, f"common_end={_common_end(members)} value={_fmt(value)}"

    units.append(
        _batch_unit(
            f"both directions on {samples} sampled path families (5 <= n <= 8)",
            sampled,
            check_sampled,
        )
    )
    return units


def _suite_example1_figures(budget: Budget) -> list[Unit]:
    table = [
        ("fig1a", Fraction(3, 2)),
        ("fig1b", Fraction(3)),
        ("fig2", Fraction(6)),
        ("fig3", Fraction(5, 2)),
        ("fig3_sub", Fraction(2)),
    ]
    return [
        _value_unit(
            f"fixed family {spec} has simultaneous value {_fmt(expected)}",
            spec,
            expected,
            lambda s=spec: _sdf(s),
        )
        for spec, expected in table
    ]


def _suite_prop_mg_constant(budget: Budget) -> list[Unit]:
    from .metric import family_twin_multiplicity

    units = []
    roster = (
        [("fig3", 2)]
        + [(f"star_family({k})", k - 1) for k in range(4, 7)]
        + [(f"twin_cycle_family({n})", 2) for n in range(5, 10)]
    )
    for spec, m in roster:
        def run(s=spec, m=m) -> tuple[bool, str]:
            fam = generate(s)
            mults = {family_twin_multiplicity(fam, u) for u in range(fam.n)}
            if mults != {m}:
                return False, f"spec={s} multiplicities={sorted(mults)} expected constant {m}"
            value = simultaneous_fractional_dimension(fam).value
            expected = Fraction(fam.n, 2)
            if value != expected:
                return False, f"spec={s} expected={_fmt(expected)} actual={_fmt(value)}"
            return True, f"spec={s} m={m} value={_fmt(value)}"

        units.append(
            (f"constant twin multiplicity {m} forces n/2 for {spec}", run)
        )
    return units


def _suite_prop7_vertex_transitive(budget: Budget) -> list[Unit]:
    units = []
    roster = (
        [f"cycle_family({n},3,{100 + n})" for n in range(5, 11)]
        + ["petersen_family(2,7)", "petersen_family(3,21)"]
        + [f"circulant_family({n},3,{200 + n})" for n in range(6, 11)]
    )
    for spec in roster:
        def run(s=spec) -> tuple[bool, str]:
            fam = generate(s)
            best = Fraction(0)
            for g in fam.members:
                if not is_vertex_transitive(g):
                    return False, f"spec={s} has a non-vertex-transitive member"
                best = max(best, Fraction(g.n, r_of(g)))
            value = simultaneous_fractional_dimension(fam).value
            if value == best:
                return True, f"spec={s} value={_fmt(value)}"
            return False, f"spec={s} expected={_fmt(best)} actual={_fmt(value)}"

        units.append(
            (f"{spec}: pooled value equals the max member ratio |V|/r", run)
        )
    return units


def _diam2_samples(budget: Budget, default_samples: int):
    samples = budget.get("samples", default_samples)
    cap = budget.get("n", 10)
    rng = SplitMix64(budget.get("seed", DEFAULT_SEED) ^ 0xD1A2)
    cases = []
    attempts = 0
    while len(cases) < samples and attempts < 100 * samples:
        attempts += 1
        n = 4 + rng.below(max(cap - 3, 1))
        p = (35, 45, 55, 65)[rng.below(4)]
        seed = rng.next_u64()
        g = generate(f"random_connected({n},{p},{seed})")
        if diameter(g) == 2:
            cases.append((f"random_connected({n},{p},{seed})", g))
    return cases


def _suite_lemma10_diam2_subset(budget: Budget) -> list[Unit]:
    cases = _diam2_samples(budget, 120)

    def check(g: Graph):
        pairs = combinations(range(g.n), 2)
        for pair, ours, theirs in zip(pairs, resolver_masks(g), resolver_masks(complement(g))):
            if ours & ~theirs:
                return False, f"pair={pair} not contained in the complement's resolver set"
        return True, ""

    return [
        _batch_unit(
            f"resolver sets of {len(cases)} random diameter-2 graphs embed in "
            "their complements'",
            cases,
            check,
        )
    ]


def _suite_thm11_complement(budget: Budget) -> list[Unit]:
    samples = budget.get("samples", 60)
    cap = budget.get("n", 10)
    rng = SplitMix64(budget.get("seed", DEFAULT_SEED) ^ 0x7E11)
    cases = []
    attempts = 0
    while len(cases) < samples and attempts < 100 * samples:
        attempts += 1
        n = 4 + rng.below(max(cap - 3, 1))
        p = (30, 45, 60, 75)[rng.below(4)]
        seed = rng.next_u64()
        g = generate(f"random_connected({n},{p},{seed})")
        d, dbar = diameter(g), diameter(complement(g))
        if d == 3 and dbar == 3:
            continue  # outside the hypothesis
        cases.append((f"random_connected({n},{p},{seed})", g))

    def check(g: Graph):
        comp = complement(g)
        first = g if diameter(g) <= diameter(comp) else comp
        expected = fractional_dimension(first).value
        value = simultaneous_fractional_dimension(with_complement(g)).value
        if value == expected:
            return True, ""
        return False, f"expected={_fmt(expected)} actual={_fmt(value)}"

    return [
        _batch_unit(
            f"pair value equals the smaller-diameter side's dimension on "
            f"{len(cases)} random graphs",
            cases,
            check,
        )
    ]


def _is_tiny_path_or_co(g: Graph) -> bool:
    """Isomorphic to the 2- or 3-vertex path or a complement of one."""
    if g.n == 2:
        return True
    if g.n != 3:
        return False
    return len(g.edges) in (1, 2)


def _suite_thm8_characterizations(budget: Budget) -> list[Unit]:
    units = []
    # exhaustive bound has its own key: 2^binom(n,2) graphs is steep in n
    cap = min(budget.get("exhaustive_n", 5), 6)
    for n in range(2, cap + 1):
        pair_count = n * (n - 1) // 2
        cases = [
            (f"graph_index({n},{code})", code) for code in range(1 << pair_count)
        ]

        def check_all(code, n=n):
            g = generate(f"graph_index({n},{code})")
            all_twins = all(len(c) >= 2 for c in twin_partition(g).classes)
            half = Fraction(n, 2)
            dimf = fractional_dimension(g).value
            if (dimf == half) != all_twins:
                return False, f"(g) dim_f={_fmt(dimf)} all_twins={all_twins}"
            sdf = simultaneous_fractional_dimension(with_complement(g)).value
            if (sdf == half) != all_twins:
                return False, f"(b) pair value={_fmt(sdf)} all_twins={all_twins}"
            if (sdf == 1) != _is_tiny_path_or_co(g):
                return False, f"(a) pair value={_fmt(sdf)}"
            return True, ""

        units.append(
            _batch_unit(
                f"n/2 and =1 characterizations on all {1 << pair_count} labeled "
                f"graphs with n={n}",
                cases,
                check_all,
            )
        )

    samples = budget.get("samples", 60)
    size_cap = budget.get("n", 9)
    rng = SplitMix64(budget.get("seed", DEFAULT_SEED) ^ 0x0888)
    sampled = []
    for _ in range(samples):
        n = 6 + rng.below(max(size_cap - 5, 1))
        pair_count = n * (n - 1) // 2
        code = rng.next_u64() % (1 << pair_count)
        sampled.append((f"graph_index({n},{code})", (n, code)))

    def check_sampled(payload):
        n, code = payload
        g = generate(f"graph_index({n},{code})")
        all_twins = all(len(c) >= 2 for c in twin_partition(g).classes)
        half = Fraction(n, 2)
        dimf = fractional_dimension(g).value
        if (dimf == half) != all_twins:
            return False, f"(g) dim_f={_fmt(dimf)} all_twins={all_twins}"
        sdf = simultaneous_fractional_dimension(with_complement(g)).value
        if (sdf == half) != all_twins:
            return False, f"(b) pair value={_fmt(sdf)} all_twins={all_twins}"
        return True, ""

    units.append(
        _batch_unit(
            f"characterizations on {samples} sampled graphs with 6 <= n <= {size_cap}",
            sampled,
            check_sampled,
        )
    )
    return units


def _suite_thm14_trees(budget: Budget) -> list[Unit]:
    trees = budget.get("trees", 40)
    cap = budget.get("n", 12)
    rng = SplitMix64(budget.get("seed", DEFAULT_SEED) ^ 0x7255)
    cases = []
    while len(cases) < trees:
        n = 5 + rng.below(max(cap - 4, 1))
        seed = rng.next_u64()
        cases.append((f"random_tree({n},{seed})", f"random_tree({n},{seed})"))

    def check(spec):
        t = generate(spec)
        tbar = complement(t)
        value = simultaneous_fractional_dimension(with_complement(t)).value
        own = fractional_dimension(t).value
        other = fractional_dimension(tbar).value
        if value == other and other >= own:
            return True, ""
        return False, (
            f"pair={_fmt(value)} dim_f(T)={_fmt(own)} dim_f(complement)={_fmt(other)}"
        )

    return [
        _batch_unit(
            f"tree/complement pairs take the complement's dimension on {trees} "
            f"random trees (n <= {cap})",
            cases,
            check,
        )
    ]


def _suite_prop12_paths(budget: Budget) -> list[Unit]:
    units = []
    cap = budget.get("n", 12)
    for n in range(2, cap + 1):
        spec = f"with_complement(path({n}))"

        def run(n=n, s=spec) -> tuple[bool, str]:
            g = generate(f"path({n})")
            value = simultaneous_fractional_dimension(with_complement(g)).value
            if n in (2, 3):
                expected = Fraction(1)
            elif n == 4:
                expected = Fraction(4, 3)
            else:
                expected = fractional_dimension(complement(g)).value
            if value == expected and value >= 1:
                return True, f"spec={s} value={_fmt(value)}"
            return False, f"spec={s} expected={_fmt(expected)} actual={_fmt(value)}"

        units.append((f"path/complement pair value for n={n}", run))
    return units


def _suite_prop15_cycles(budget: Budget) -> list[Unit]:
    units = []
    cap = budget.get("n", 12)
    for n in range(3, cap + 1):
        spec = f"with_complement(cycle({n}))"
        expected = Fraction(n, 2) if n in (3, 4) else Fraction(n, 4)

        def run(n=n, s=spec, expected=expected) -> tuple[bool, str]:
            g = generate(f"cycle({n})")
            value = simultaneous_fractional_dimension(with_complement(g)).value
            comp_value = fractional_dimension(complement(g)).value
            if value == expected == comp_value:
                return True, f"spec={s} value={_fmt(value)}"
            return False, (
                f"spec={s} expected={_fmt(expected)} actual={_fmt(value)} "
                f"complement={_fmt(comp_value)}"
            )

        units.append((f"cycle/complement pair value for n={n}", run))
    return units


def _iso_h1(g: Graph) -> bool:
    return g.n == 4 and sorted(g.degree(v) for v in range(4)) == [1, 2, 2, 3]


def _girth_at_most_3(g: Graph) -> bool:
    nbr = [set(g.adj[v]) for v in range(g.n)]
    return any(len(nbr[u] & nbr[v]) > 0 for u, v in g.edges)


def _iso_h2(g: Graph) -> bool:
    return (
        g.n == 5
        and sorted(g.degree(v) for v in range(5)) == [1, 2, 2, 2, 3]
        and not _girth_at_most_3(g)
    )


def _iso_h3(g: Graph) -> bool:
    if g.n != 6 or sorted(g.degree(v) for v in range(6)) != [1, 1, 2, 2, 3, 3]:
        return False
    if _girth_at_most_3(g):
        return False
    supports = [v for v in range(6) if g.degree(v) == 3]
    return g.has_edge(supports[0], supports[1])


def _expected_unicyclic_pair(g: Graph):
    """(expected Sd_f, required dim_f(G) or None) per the trichotomy."""
    comp_dimf = fractional_dimension(complement(g)).value
    if _iso_h1(g) or _iso_h2(g):
        return comp_dimf + Fraction(1, 2), comp_dimf + Fraction(1, 2)
    if _iso_h3(g):
        return comp_dimf + Fraction(1, 3), comp_dimf + Fraction(1, 3)
    return comp_dimf, None


def _suite_unicyclic_table(budget: Budget) -> list[Unit]:
    units: list[Unit] = []
    cap = min(budget.get("ab", 4), 6)

    table: list[tuple[str, Fraction]] = []
    for a in range(1, cap + 1):
        for b in range(1, cap + 1):
            for kind in ("unicyclic_a", "unicyclic_b", "unicyclic_d"):
                spec = f"{kind}({a},{b})"
                table.append((spec, oracle_sdimf(f"with_complement({spec})").value))
        spec = f"unicyclic_c({a})"
        table.append((spec, oracle_sdimf(f"with_complement({spec})").value))
    for n in range(4, 9):
        spec = f"kite({n})"
        table.append((spec, oracle_sdimf(f"with_complement({spec})").value))

    def make_table_unit(spec: str, expected: Fraction) -> Unit:
        def run() -> tuple[bool, str]:
            g = generate(spec)
            value = simultaneous_fractional_dimension(with_complement(g)).value
            if value != expected:
                return False, (
                    f"spec=with_complement({spec}) expected={_fmt(expected)} "
                    f"actual={_fmt(value)}"
                )
            return True, f"spec=with_complement({spec}) value={_fmt(value)}"

        return f"template pair value for {spec}", run

    units.extend(make_table_unit(spec, expected) for spec, expected in table)

    for spec, offset in (("h1", Fraction(1, 2)), ("h2", Fraction(1, 2)), ("h3", Fraction(1, 3))):
        def run(s=spec, off=offset) -> tuple[bool, str]:
            g = generate(s)
            value = simultaneous_fractional_dimension(with_complement(g)).value
            own = fractional_dimension(g).value
            other = fractional_dimension(complement(g)).value
            if value == own == other + off:
                return True, f"spec=with_complement({s}) value={_fmt(value)}"
            return False, (
                f"spec=with_complement({s}) pair={_fmt(value)} own={_fmt(own)} "
                f"complement={_fmt(other)} offset={_fmt(off)}"
            )

        units.append((f"exceptional graph {spec} exceeds its complement by {_fmt(offset)}", run))

    samples = budget.get("samples", 30)
    rng = SplitMix64(budget.get("seed", DEFAULT_SEED) ^ 0x0117)
    cases = []
    for _ in range(samples):
        n = 3 + rng.below(8)
        seed = rng.next_u64()
        cases.append((f"random_unicyclic({n},{seed})", f"random_unicyclic({n},{seed})"))

    def check(spec):
        g = generate(spec)
        expected, own_required = _expected_unicyclic_pair(g)
        value = simultaneous_fractional_dimension(with_complement(g)).value
        if value != expected:
            return False, f"expected={_fmt(expected)} actual={_fmt(value)}"
        if own_required is not None and fractional_dimension(g).value != own_required:
            return False, f"own dimension is not {_fmt(own_required)}"
        return True, ""

    units.append(
        _batch_unit(
            f"trichotomy on {samples} random unicyclic graphs (n <= 10)",
            cases,
            check,
        )
    )
    return units


def _suite_remarks_gaps(budget: Budget) -> list[Unit]:
    units: list[Unit] = []
    for k in range(3, 7):
        spec = f"remark_a_family({k})"

        def run(k=k, s=spec) -> tuple[bool, str]:
            fam = generate(s)
            value = simultaneous_fractional_dimension(fam).value
            member_max = max(fractional_dimension(g).value for g in fam.members)
            gap = value - member_max
            if value == k and member_max == Fraction(3, 2) and gap == k - Fraction(3, 2):
                return True, f"spec={s} value={_fmt(value)} gap={_fmt(gap)}"
            return False, (
                f"spec={s} value={_fmt(value)} max={_fmt(member_max)} "
                f"expected gap={_fmt(k - Fraction(3, 2))}"
            )

        units.append((f"lower-bound gap k-3/2 for the k={k} spider family", run))

    for k in range(3, 7):
        spec = f"remark_b_family({k})"

        def run(k=k, s=spec) -> tuple[bool, str]:
            fam = generate(s)
            rep = bounds_report(fam)
            upper = min(rep.sum_dimf, rep.half_n)
            gap = upper - rep.sdf
            ok = (
                rep.sdf == Fraction(3, 2)
                and upper == Fraction(k + 3, 2)
                and gap == Fraction(k, 2)
            )
            if ok:
                return True, f"spec={s} value={_fmt(rep.sdf)} gap={_fmt(gap)}"
            return False, (
                f"spec={s} sdf={_fmt(rep.sdf)} min(sum,n/2)={_fmt(upper)} "
                f"expected gap={_fmt(Fraction(k, 2))}"
            )

        units.append((f"upper-bound gap k/2 for the k={k} shared-twin family", run))

    for k in range(4, 9):
        spec = f"star_family({k})"

        def run(k=k, s=spec) -> tuple[bool, str]:
            fam = generate(s)
            sd = simultaneous_dimension(fam)
            sdf = simultaneous_fractional_dimension(fam).value
            gap = sd - sdf
            if sd == k - 1 and sdf == Fraction(k, 2) and gap == Fraction(k - 2, 2):
                return True, f"spec={s} sd={sd} sdf={_fmt(sdf)} gap={_fmt(gap)}"
            return False, (
                f"spec={s} sd={sd} expected {k - 1}; sdf={_fmt(sdf)} "
                f"expected {_fmt(Fraction(k, 2))}"
            )

        units.append((f"integral-fractional gap (k-2)/2 for the k={k} star family", run))

    for k in range(2, 5):
        spec = f"fig5_tree({k})"

        def run(k=k, s=spec) -> tuple[bool, str]:
            g = generate(s)
            comp = complement(g)
            value = simultaneous_fractional_dimension(with_complement(g)).value
            own = fractional_dimension(g).value
            other = fractional_dimension(comp).value
            expected = Fraction(3 * k, 2)
            upper = min(own + other, Fraction(g.n, 2))
            gap = upper - value
            if value == own == other == expected and gap == Fraction(k, 2):
                return True, f"spec=with_complement({s}) value={_fmt(value)} gap={_fmt(gap)}"
            return False, (
                f"spec=with_complement({s}) pair={_fmt(value)} own={_fmt(own)} "
                f"complement={_fmt(other)} expected={_fmt(expected)}"
            )

        units.append((f"pair gap k/2 for the k={k} triple-leaf spine tree", run))
    return units


SUITES: dict[str, Callable[[Budget], list[Unit]]] = {
    "thm1_closed_forms": _suite_thm1_closed_forms,
    "obs2_sandwich": _suite_obs2_sandwich,
    "lemma1_twin_bound": _suite_lemma1_twin_bound,
    "thm4_sdf_one": _suite_thm4_sdf_one,
    "example1_figures": _suite_example1_figures,
    "prop_mg_constant": _suite_prop_mg_constant,
    "prop7_vertex_transitive": _suite_prop7_vertex_transitive,
    "lemma10_diam2_subset": _suite_lemma10_diam2_subset,
    "thm11_complement": _suite_thm11_complement,
    "thm8_characterizations": _suite_thm8_characterizations,
    "thm14_trees": _suite_thm14_trees,
    "prop15_cycles": _suite_prop15_cycles,
    "prop12_paths": _suite_prop12_paths,
    "unicyclic_table": _suite_unicyclic_table,
    "remarks_gaps": _suite_remarks_gaps,
}

SUITE_ORDER: tuple[str, ...] = tuple(SUITES)


def run_suite(name: str, budget=None) -> SuiteReport:
    """Run one named suite; deterministic given (name, budget)."""
    try:
        builder = SUITES[name]
    except KeyError:
        raise ValueError(f"unknown suite {name!r}; known: {', '.join(SUITE_ORDER)}") from None
    started = time.perf_counter()
    checks = []
    for desc, run in builder(_budget(budget)):
        ok, witness = run()
        checks.append(CheckResult(desc, "pass" if ok else "fail", witness))
    elapsed_ms = int((time.perf_counter() - started) * 1000)
    return SuiteReport(name, tuple(checks), elapsed_ms)


def run_all(budget=None) -> list[SuiteReport]:
    return [run_suite(name, budget) for name in SUITE_ORDER]
