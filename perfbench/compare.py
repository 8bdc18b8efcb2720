"""Summarise benchmark runs, and compare two sets of them.

Save the stdout of each ``run.py`` call as one ``*.out`` file per run, one
directory per set, then:

    python3 perfbench/compare.py RUNS_DIR            # spread of one set
    python3 perfbench/compare.py BASE_DIR NEW_DIR    # base against new

For each workload and metric it prints the median, the quartiles and the
spread (interquartile distance over the median) with the metric's bound
from BENCHMARK.json.  With two sets it also prints the change of the median
and how many seed-paired runs the new set wins.  It refuses to compare runs
whose Python version or arithmetic path (gmpy2 or Fraction) differ.
"""

from __future__ import annotations

import json
import statistics
import sys
from collections import defaultdict
from pathlib import Path

SPEC = json.loads((Path(__file__).resolve().parent.parent / "BENCHMARK.json").read_text())
METRICS = {m["name"]: m for m in SPEC["end_to_end"] + SPEC["per_layer"]}


def load(directory: str) -> dict:
    """{(workload, metric): {seed: value}} plus the set of environments seen."""
    values, envs = defaultdict(dict), set()
    for path in sorted(Path(directory).glob("*.out")):
        lines = path.read_text().splitlines()
        envs_seen = [line[4:] for line in lines if line.startswith("env ")]
        if not envs_seen:
            print(f"{path}: no result, skipped")
            continue
        env, result = json.loads(envs_seen[0]), json.loads(lines[-1])
        if not result["correct"]:
            print(f"{path}: run reports incorrect output ({result['failed']} failed)")
        envs.add((env["python"], env["arith"]))
        for name, m in result["metrics"].items():
            values[env["workload"], name][env["seed"]] = m["value"]
    return {"values": values, "envs": envs}


def spread(xs) -> tuple[float, float, float, float]:
    q1, med, q3 = statistics.quantiles(xs, n=4) if len(xs) > 1 else (xs[0],) * 3
    return med, q1, q3, (q3 - q1) / med if med else 0.0


def main(argv: list[str]) -> int:
    if len(argv) not in (1, 2):
        print(__doc__, file=sys.stderr)
        return 2
    sets = [load(d) for d in argv]
    envs = set().union(*(s["envs"] for s in sets))
    if len(envs) > 1:
        print(f"refusing to compare runs from different environments: {sorted(envs)}", file=sys.stderr)
        return 2
    base = sets[0]["values"]
    for (workload, name), by_seed in sorted(base.items()):
        meta = METRICS.get(name, {})
        bound = meta.get("bound")
        med, q1, q3, rel = spread(list(by_seed.values()))
        line = f"{workload:16} {name:40} n={len(by_seed):2} median={med:<12.6g} q1={q1:<10.6g} q3={q3:<10.6g} spread={rel:.3f}"
        if bound is not None:
            line += f" bound={bound}" + (" WIDE" if rel > bound else " ok" if rel < bound / 3 else " near")
        if len(sets) == 2 and (workload, name) in sets[1]["values"]:
            new = sets[1]["values"][workload, name]
            new_med = statistics.median(new.values())
            sign = -1 if meta.get("better") == "lower" else 1
            change = sign * (new_med - med) / med if med else 0.0
            paired = [s for s in by_seed if s in new]
            wins = sum(1 for s in paired if sign * (new[s] - by_seed[s]) > 0)
            line += f" | new median={new_med:<12.6g} better by {change:+.3f} wins {wins}/{len(paired)}"
            if bound is not None and change < -bound:
                line += " REGRESSION"
        print(line)
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
