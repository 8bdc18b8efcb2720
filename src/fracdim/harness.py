"""Named suites that re-verify the library's claimed identities numerically.

Each suite is a generator that runs its checks in a fixed order (fixed
seeds) and yields each result as it is reached; a check compares an
engine-computed quantity against an independent expectation and carries a
witness string on failure with a spec sufficient to reproduce the instance
in one CLI call.  Budgets cap sizes and sample counts.
"""

from __future__ import annotations

import json
import time
from contextvars import ContextVar
from dataclasses import dataclass, field
from fractions import Fraction
from itertools import combinations, permutations
from typing import Callable, Collection, Iterator, Mapping, Sequence

from .graph import Graph, GraphFamily, complement, diameter
from .lp import format_rational
from .metric import (
    _isomorphic,
    _minimal_resolvers,
    is_vertex_transitive,
    r_of,
    resolver_masks,
    twin_multiplicities,
    twin_partition,
)
from .dimension import (
    DimensionResult,
    _pooled,
    _solve,
    bounds_report,
    simultaneous_dimension,
)
from .families import SplitMix64, generate, graph_code
from .oracles import has_fixed_point_free_twin_permutation, oracle_dimf, oracle_sdimf

DEFAULT_SEED = 20240801


@dataclass(frozen=True)
class Budget:
    """Optional size caps for a suite run; ``KEYS`` are the ones suites read."""

    KEYS = ("n", "samples", "trees", "seed", "exhaustive_n", "ab")

    limits: Mapping[str, int]

    def __post_init__(self):
        for key, value in self.limits.items():
            if key not in self.KEYS:
                raise ValueError(f"unknown budget key {key!r}; known: {', '.join(self.KEYS)}")
            if type(value) is not int:  # not isinstance: bool is an int subclass
                raise ValueError(f"budget {key} must be an integer, got {value!r}")
            if key != "seed" and value < 0:
                raise ValueError(f"budget {key} must be >= 0, got {value}")

    def get(self, key: str, default: int) -> int:
        return self.limits.get(key, default)

    @staticmethod
    def parse(pairs) -> "Budget":
        limits = {}
        for pair in pairs or ():
            key, sep, value = pair.partition("=")
            try:
                if not sep or not key:
                    raise ValueError
                limits[key.strip()] = int(value)
            except ValueError:
                raise ValueError(f"budget entries look like n=12, got {pair!r}") from None
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


Check = Callable[..., tuple[bool, str]]  # built instance -> (ok, detail)
Suite = Iterator[tuple[str, bool, str]]  # (description, ok, witness) per check


def _fmt(v: Fraction) -> str:
    return format_rational(Fraction(v))


@dataclass
class _Memo:
    """What one run_suite call has built and solved, so it does so once.

    ``minimal``, the one cache of minimal resolver masks, holds those of each
    member graph by (n, edges), so equal graphs built apart share them
    without keeping any Graph alive, and
    ``solved`` each LP result by (n, pooled minimal masks), so a graph, a
    family and a diameter-2 pair {G, complement(G)} with one system share
    one solve.  The value depends only on the set of masks; the assignment
    also depends on their order, so checks read from a shared result only
    the value and what holds for every feasible assignment.
    """

    minimal: dict[tuple, tuple[int, ...]] = field(default_factory=dict)
    solved: dict[tuple, DimensionResult] = field(default_factory=dict)

    def masks(self, g: Graph) -> tuple[int, ...]:
        key = (g.n, g.edges)
        masks = self.minimal.get(key)
        if masks is None:
            masks = self.minimal[key] = _minimal_resolvers(g)
        return masks


# The memo of the run_suite call in progress, None outside one: nothing is
# shared between suites or calls.
_MEMO: ContextVar[_Memo | None] = ContextVar("fracdim_suite_memo", default=None)


def _solved(members: Sequence[Graph]) -> DimensionResult:
    """The covering LP of the members' pooled system, solved once per
    distinct system in a suite run."""
    memo = _MEMO.get()
    lp = _pooled(members[0].n, [memo.masks(g) for g in members])
    key = (lp.n_vars, frozenset(lp.masks))
    res = memo.solved.get(key)
    if res is None:
        res = memo.solved[key] = _solve(lp)
    return res


def _dimf(g: Graph) -> Fraction:
    return _solved([g]).value


def _sdf(fam: GraphFamily) -> Fraction:
    return _solved(fam.members).value


def _pair(g: Graph) -> Fraction:
    """Sd_f of the pair {G, complement(G)}."""
    return _solved([g, complement(g)]).value


def _rng(budget: Budget, salt: int) -> SplitMix64:
    """One sampler's stream: the budget seed xor the sampler's own salt."""
    return SplitMix64(budget.get("seed", DEFAULT_SEED) ^ salt)


def _size(rng: SplitMix64, low: int, cap: int) -> int:
    """A vertex count drawn from low..cap (low itself when cap < low)."""
    return low + rng.below(max(cap - low + 1, 1))


def _verdict(ok: bool, passed: str, failed: str) -> tuple[bool, str]:
    return ok, passed if ok else failed


def _expect(expected: Fraction, actual: Fraction) -> tuple[bool, str]:
    return _verdict(
        actual == expected,
        f"value={_fmt(actual)}",
        f"expected={_fmt(expected)} actual={_fmt(actual)}",
    )


def _checked(spec: str, check: Check, build=None) -> tuple[bool, str]:
    """Run ``check`` on the instance of ``spec``; the witness starts with the spec."""
    ok, detail = check((build or generate)(spec))
    return ok, f"spec={spec} {detail}"


def _batch(specs: Collection[str], check: Check, build=None) -> tuple[bool, str]:
    """One check over many specs, each built when its turn comes; the
    first failure is the witness."""
    for spec in specs:
        ok, witness = _checked(spec, check, build)
        if not ok:
            return False, witness
    return True, f"{len(specs)} instances"


# ---------------------------------------------------------------------------
# suites


def _suite_thm1_closed_forms(budget: Budget) -> Suite:
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
        expected = oracle_dimf(spec).value
        yield (f"dimension of {spec} matches its closed form",
               *_checked(spec, lambda g: _expect(expected, _dimf(g))))

    trees = budget.get("trees", 60)
    cap = budget.get("n", 14)
    rng = _rng(budget, 0)
    specs = [f"random_tree({_size(rng, 4, cap)},{rng.next_u64()})" for _ in range(trees)]
    yield (f"tree closed form (sigma-ex1)/2 on {trees} random trees (n <= {max(cap, 4)})",
           *_batch(specs, lambda g: _expect(oracle_dimf(g).value, _dimf(g))))


def _random_family_specs(budget: Budget, default_samples: int) -> list[str]:
    cap = budget.get("n", 10)
    rng = _rng(budget, 0xF00D)
    return [
        f"random_family({_size(rng, 4, cap)},{2 + rng.below(3)},{rng.next_u64()})"
        for _ in range(budget.get("samples", default_samples))
    ]


def _suite_obs2_sandwich(budget: Budget) -> Suite:
    specs = _random_family_specs(budget, 50)

    def check(fam):
        rep = bounds_report(fam)  # raises on violation
        upper = min(rep.sum_dimf, rep.half_n)
        return rep.max_dimf <= rep.sdf <= upper and rep.sdf <= rep.sd, (
            f"max={_fmt(rep.max_dimf)} sdf={_fmt(rep.sdf)} "
            f"min(sum,n/2)={_fmt(upper)} sd={rep.sd}"
        )

    yield (f"bound chain max <= Sd_f <= min(sum, n/2) <= n/2 and Sd_f <= Sd "
           f"on {len(specs)} random families", *_batch(specs, check))


def _twin_bound_holds(fam: GraphFamily) -> tuple[bool, str]:
    res = _solved(fam.members)
    for gi, g in enumerate(fam.members):
        for cls in twin_partition(g).nontrivial():
            total = sum((res.assignment[v] for v in cls), Fraction(0))
            if total < Fraction(len(cls), 2):
                return False, (
                    f"member={gi} class={list(cls)} mass={_fmt(total)} "
                    f"needed={_fmt(Fraction(len(cls), 2))}"
                )
    return True, f"value={_fmt(res.value)}"


def _suite_lemma1_twin_bound(budget: Budget) -> Suite:
    roster = [
        "fig1a", "fig1b", "fig2", "fig3", "fig3_sub",
        "star_family(5)", "star_family(6)",
        "remark_a_family(4)", "remark_b_family(4)", "twin_cycle_family(6)",
        "with_complement(cycle(3))", "with_complement(cycle(6))",
        "with_complement(kite(5))", "with_complement(complete(6))",
        "with_complement(unicyclic_b(2,3))", "with_complement(unicyclic_d(2,2))",
        "with_complement(star(7))", "with_complement(wheel(7))",
    ]
    for spec in roster + _random_family_specs(budget, 10):
        yield (f"optimal assignment of {spec} gives every twin class its half",
               *_checked(spec, _twin_bound_holds))


def _path_family(orders) -> tuple[str, GraphFamily]:
    """The family of the paths that visit each order, and its family_of spec."""
    members = [Graph(len(o), zip(o, o[1:])) for o in orders]
    specs = ",".join(f"graph_index({g.n},{graph_code(g)})" for g in members)
    return f"family_of({specs})", GraphFamily(members)


def _common_end(members) -> bool:
    ends = None
    for g in members:
        e = {v for v in range(g.n) if g.degree(v) == 1}
        ends = e if ends is None else ends & e
    return bool(ends)


def _suite_thm4_sdf_one(budget: Budget) -> Suite:
    # one orientation per labeled path
    paths4 = [p for p in permutations(range(4)) if p[0] < p[-1]]

    def check_exhaustive(fam):
        value, common = _sdf(fam), _common_end(fam.members)
        return (value == 1) == common, f"common_end={common} value={_fmt(value)}"

    for size in (2, 3):
        families = dict(map(_path_family, combinations(paths4, size)))
        yield (f"value is 1 exactly for shared-end families: all {len(families)} "
               f"{size}-member families of 4-vertex paths",
               *_batch(families, check_exhaustive, families.__getitem__))

    for mode, low, what in (("shared_end", 2, "shared-end"), ("rotations", 3, "rotated")):
        for n in range(low, 9):
            spec = f"path_family({n},{mode})"
            expected = oracle_sdimf(spec).value
            yield (f"{what} path family on {n} vertices has value {_fmt(expected)}",
                   *_checked(spec, lambda fam: _expect(expected, _sdf(fam))))

    yield ("a family with a non-path member exceeds 1",
           *_checked("family_of(path(5),cycle(5))",
                     lambda fam: ((v := _sdf(fam)) > 1, f"value={_fmt(v)}")))

    samples = budget.get("samples", 60)
    rng = _rng(budget, 0x0444)
    specs, families = [], {}
    for _ in range(samples):
        n = _size(rng, 5, 8)
        orders = []
        for _ in range(2 + rng.below(2)):
            order = list(range(n))
            rng.shuffle(order)
            orders.append(order)
        spec, fam = _path_family(orders)
        specs.append(spec)
        families[spec] = fam

    def check_sampled(fam):
        value, common = _sdf(fam), _common_end(fam.members)
        ok = value == 1 if common else value == Fraction(fam.n, fam.n - 1)
        return ok, f"common_end={common} value={_fmt(value)}"

    yield (f"both directions on {samples} sampled path families (5 <= n <= 8)",
           *_batch(specs, check_sampled, families.__getitem__))


def _suite_example1_figures(budget: Budget) -> Suite:
    for spec in ("fig1a", "fig1b", "fig2", "fig3", "fig3_sub"):
        expected = oracle_sdimf(spec).value
        yield (f"fixed family {spec} has simultaneous value {_fmt(expected)}",
               *_checked(spec, lambda fam: _expect(expected, _sdf(fam))))


def _suite_prop_mg_constant(budget: Budget) -> Suite:
    roster = (
        [("fig3", 2)]
        + [(f"star_family({k})", k - 1) for k in range(4, 7)]
        + [(f"twin_cycle_family({n})", 2) for n in range(5, 10)]
    )
    for spec, m in roster:
        def check(fam) -> tuple[bool, str]:
            mults = set(twin_multiplicities(fam.members))
            if mults != {m}:
                return False, f"multiplicities={sorted(mults)} expected constant {m}"
            value, expected = _sdf(fam), Fraction(fam.n, 2)
            return _verdict(
                value == expected,
                f"m={m} value={_fmt(value)}",
                f"expected={_fmt(expected)} actual={_fmt(value)}",
            )

        yield f"constant twin multiplicity {m} forces n/2 for {spec}", *_checked(spec, check)


def _suite_prop7_vertex_transitive(budget: Budget) -> Suite:
    roster = (
        [f"cycle_family({n},3,{100 + n})" for n in range(5, 11)]
        + ["petersen_family(2,7)", "petersen_family(3,21)"]
        + [f"circulant_family({n},3,{200 + n})" for n in range(6, 11)]
    )

    def check(fam) -> tuple[bool, str]:
        best = Fraction(0)
        for g in fam.members:
            if not is_vertex_transitive(g):
                return False, "has a non-vertex-transitive member"
            best = max(best, Fraction(g.n, r_of(g)))
        return _expect(best, _sdf(fam))

    for spec in roster:
        yield (f"{spec}: pooled value equals the max member ratio |V|/r",
               *_checked(spec, check))


def _connected_samples(budget: Budget, salt: int, default_samples: int,
                       percents: tuple[int, ...], keep) -> dict[str, Graph]:
    """Seeded random_connected graphs that satisfy ``keep``, by spec."""
    samples = budget.get("samples", default_samples)
    cap = budget.get("n", 10)
    rng = _rng(budget, salt)
    kept: dict[str, Graph] = {}
    for _ in range(100 * samples):
        if len(kept) == samples:
            break
        n, p = _size(rng, 4, cap), percents[rng.below(4)]
        spec = f"random_connected({n},{p},{rng.next_u64()})"
        g = generate(spec)
        if keep(g):
            kept[spec] = g
    return kept


def _suite_lemma10_diam2_subset(budget: Budget) -> Suite:
    kept = _connected_samples(budget, 0xD1A2, 120, (35, 45, 55, 65),
                              lambda g: diameter(g) == 2)

    def check(g: Graph):
        pairs = combinations(range(g.n), 2)
        for pair, ours, theirs in zip(pairs, resolver_masks(g), resolver_masks(complement(g))):
            if ours & ~theirs:
                return False, f"pair={pair} not contained in the complement's resolver set"
        return True, ""

    yield (f"resolver sets of {len(kept)} random diameter-2 graphs embed in "
           "their complements'", *_batch(kept, check, kept.__getitem__))


def _suite_thm11_complement(budget: Budget) -> Suite:
    # both diameters 3 is outside the hypothesis
    kept = _connected_samples(budget, 0x7E11, 60, (30, 45, 60, 75),
                              lambda g: (diameter(g), diameter(complement(g))) != (3, 3))

    def check(g: Graph):
        comp = complement(g)
        first = g if diameter(g) <= diameter(comp) else comp
        return _expect(_dimf(first), _pair(g))

    yield (f"pair value equals the smaller-diameter side's dimension on "
           f"{len(kept)} random graphs", *_batch(kept, check, kept.__getitem__))


def _is_tiny_path_or_co(g: Graph) -> bool:
    """Isomorphic to the 2- or 3-vertex path or a complement of one."""
    if g.n == 2:
        return True
    if g.n != 3:
        return False
    return len(g.edges) in (1, 2)


def _suite_thm8_characterizations(budget: Budget) -> Suite:
    def check(g: Graph, exhaustive: bool = False) -> tuple[bool, str]:
        all_twins = has_fixed_point_free_twin_permutation(g)
        half = Fraction(g.n, 2)
        dimf = _dimf(g)
        if (dimf == half) != all_twins:
            return False, f"(g) dim_f={_fmt(dimf)} all_twins={all_twins}"
        sdf = _pair(g)
        if (sdf == half) != all_twins:
            return False, f"(b) pair value={_fmt(sdf)} all_twins={all_twins}"
        if exhaustive and (sdf == 1) != _is_tiny_path_or_co(g):
            return False, f"(a) pair value={_fmt(sdf)}"
        return True, ""

    # exhaustive bound has its own key: 2^binom(n,2) graphs is steep in n
    cap = min(budget.get("exhaustive_n", 5), 6)
    for n in range(2, cap + 1):
        count = 1 << n * (n - 1) // 2
        yield (f"n/2 and =1 characterizations on all {count} labeled graphs with n={n}",
               *_batch([f"graph_index({n},{code})" for code in range(count)],
                       lambda g: check(g, exhaustive=True)))

    samples = budget.get("samples", 60)
    size_cap = budget.get("n", 9)
    rng = _rng(budget, 0x0888)
    specs = []
    for _ in range(samples):
        n = _size(rng, 6, size_cap)
        specs.append(f"graph_index({n},{rng.next_u64() % (1 << n * (n - 1) // 2)})")
    yield (f"characterizations on {samples} sampled graphs with 6 <= n <= {max(size_cap, 6)}",
           *_batch(specs, check))


def _suite_thm14_trees(budget: Budget) -> Suite:
    trees = budget.get("trees", 40)
    cap = budget.get("n", 12)
    rng = _rng(budget, 0x7255)
    specs = [f"random_tree({_size(rng, 5, cap)},{rng.next_u64()})" for _ in range(trees)]

    def check(t: Graph):
        value, own, other = _pair(t), _dimf(t), _dimf(complement(t))
        return value == other >= own, (
            f"pair={_fmt(value)} dim_f(T)={_fmt(own)} dim_f(complement)={_fmt(other)}"
        )

    yield (f"tree/complement pairs take the complement's dimension on {trees} "
           f"random trees (n <= {max(cap, 5)})", *_batch(specs, check))


def _suite_prop12_paths(budget: Budget) -> Suite:
    cap = budget.get("n", 12)
    for n in range(2, cap + 1):
        spec = f"with_complement(path({n}))"

        def check(fam) -> tuple[bool, str]:
            value = _sdf(fam)
            # P_2, P_3, P_4 have a pair closed form; longer paths take the complement's value
            expected = oracle_sdimf(spec).value if n <= 4 else _dimf(fam.members[1])
            return _verdict(
                value == expected and value >= 1,
                f"value={_fmt(value)}",
                f"expected={_fmt(expected)} actual={_fmt(value)}",
            )

        yield f"path/complement pair value for n={n}", *_checked(spec, check)


def _suite_prop15_cycles(budget: Budget) -> Suite:
    cap = budget.get("n", 12)
    for n in range(3, cap + 1):
        spec = f"with_complement(cycle({n}))"
        expected = oracle_sdimf(spec).value

        def check(fam) -> tuple[bool, str]:
            value, comp_value = _sdf(fam), _dimf(fam.members[1])
            return _verdict(
                value == expected == comp_value,
                f"value={_fmt(value)}",
                f"expected={_fmt(expected)} actual={_fmt(value)} "
                f"complement={_fmt(comp_value)}",
            )

        yield f"cycle/complement pair value for n={n}", *_checked(spec, check)


# The trichotomy's exceptions: each pairs to its own dimension, which exceeds
# the complement's by the given offset.  Every other unicyclic graph pairs to
# the complement's dimension.
_UNICYCLIC_EXCEPTIONS = (("h1", Fraction(1, 2)), ("h2", Fraction(1, 2)), ("h3", Fraction(1, 3)))


def _suite_unicyclic_table(budget: Budget) -> Suite:
    cap = min(budget.get("ab", 4), 6)
    table: list[str] = []
    for a in range(1, cap + 1):
        table += [f"{kind}({a},{b})" for b in range(1, cap + 1)
                  for kind in ("unicyclic_a", "unicyclic_b", "unicyclic_d")]
        table.append(f"unicyclic_c({a})")
    table += [f"kite({n})" for n in range(4, 9)]
    for spec in table:
        pair = f"with_complement({spec})"
        expected = oracle_sdimf(pair).value
        yield (f"template pair value for {spec}",
               *_checked(pair, lambda fam: _expect(expected, _sdf(fam))))

    for spec, offset in _UNICYCLIC_EXCEPTIONS:
        def exception(fam) -> tuple[bool, str]:
            value, own, other = _sdf(fam), _dimf(fam.members[0]), _dimf(fam.members[1])
            return _verdict(
                value == own == other + offset,
                f"value={_fmt(value)}",
                f"pair={_fmt(value)} own={_fmt(own)} complement={_fmt(other)} "
                f"offset={_fmt(offset)}",
            )

        yield (f"exceptional graph {spec} exceeds its complement by {_fmt(offset)}",
               *_checked(f"with_complement({spec})", exception))

    samples = budget.get("samples", 30)
    rng = _rng(budget, 0x0117)
    specs = [f"random_unicyclic({_size(rng, 3, 10)},{rng.next_u64()})" for _ in range(samples)]

    exceptions = [(generate(spec), offset) for spec, offset in _UNICYCLIC_EXCEPTIONS]

    def check(g: Graph):
        offset = next((off for h, off in exceptions if _isomorphic(g, h)), 0)
        expected = _dimf(complement(g)) + offset
        value = _pair(g)
        if value != expected:
            return False, f"expected={_fmt(expected)} actual={_fmt(value)}"
        if offset and _dimf(g) != expected:
            return False, f"own dimension is not {_fmt(expected)}"
        return True, ""

    yield (f"trichotomy on {samples} random unicyclic graphs (n <= 10)",
           *_batch(specs, check))


def _suite_remarks_gaps(budget: Budget) -> Suite:
    for k in range(3, 7):
        def spider(fam) -> tuple[bool, str]:
            value = _sdf(fam)
            member_max = max(_dimf(g) for g in fam.members)
            gap = value - member_max
            return _verdict(
                value == k and member_max == Fraction(3, 2) and gap == k - Fraction(3, 2),
                f"value={_fmt(value)} gap={_fmt(gap)}",
                f"value={_fmt(value)} max={_fmt(member_max)} "
                f"expected gap={_fmt(k - Fraction(3, 2))}",
            )

        yield (f"lower-bound gap k-3/2 for the k={k} spider family",
               *_checked(f"remark_a_family({k})", spider))

    for k in range(3, 7):
        def shared_twin(fam) -> tuple[bool, str]:
            rep = bounds_report(fam)
            upper = min(rep.sum_dimf, rep.half_n)
            gap = upper - rep.sdf
            return _verdict(
                rep.sdf == Fraction(3, 2) and upper == Fraction(k + 3, 2)
                and gap == Fraction(k, 2),
                f"value={_fmt(rep.sdf)} gap={_fmt(gap)}",
                f"sdf={_fmt(rep.sdf)} min(sum,n/2)={_fmt(upper)} "
                f"expected gap={_fmt(Fraction(k, 2))}",
            )

        yield (f"upper-bound gap k/2 for the k={k} shared-twin family",
               *_checked(f"remark_b_family({k})", shared_twin))

    for k in range(4, 9):
        def star(fam) -> tuple[bool, str]:
            sd = simultaneous_dimension(fam)
            sdf = _sdf(fam)
            gap = sd - sdf
            return _verdict(
                sd == k - 1 and sdf == Fraction(k, 2) and gap == Fraction(k - 2, 2),
                f"sd={sd} sdf={_fmt(sdf)} gap={_fmt(gap)}",
                f"sd={sd} expected {k - 1}; sdf={_fmt(sdf)} expected {_fmt(Fraction(k, 2))}",
            )

        yield (f"integral-fractional gap (k-2)/2 for the k={k} star family",
               *_checked(f"star_family({k})", star))

    for k in range(2, 5):
        spec = f"with_complement(fig5_tree({k}))"
        expected = oracle_sdimf(spec).value

        def spine(fam) -> tuple[bool, str]:
            value, own, other = _sdf(fam), _dimf(fam.members[0]), _dimf(fam.members[1])
            gap = min(own + other, Fraction(fam.n, 2)) - value
            return _verdict(
                value == own == other == expected and gap == Fraction(k, 2),
                f"value={_fmt(value)} gap={_fmt(gap)}",
                f"pair={_fmt(value)} own={_fmt(own)} complement={_fmt(other)} "
                f"expected={_fmt(expected)}",
            )

        yield f"pair gap k/2 for the k={k} triple-leaf spine tree", *_checked(spec, spine)


SUITES: dict[str, Callable[[Budget], Suite]] = {
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
        suite = SUITES[name]
    except KeyError:
        raise ValueError(f"unknown suite {name!r}; known: {', '.join(SUITE_ORDER)}") from None
    started = time.perf_counter()
    token = _MEMO.set(_Memo())
    try:
        checks = tuple(CheckResult(desc, "pass" if ok else "fail", witness)
                       for desc, ok, witness in suite(_budget(budget)))
    finally:
        _MEMO.reset(token)
    elapsed_ms = int((time.perf_counter() - started) * 1000)
    return SuiteReport(name, checks, elapsed_ms)


def run_all(budget=None) -> list[SuiteReport]:
    return [run_suite(name, budget) for name in SUITE_ORDER]
