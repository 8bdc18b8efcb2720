"""fracdim benchmark: one client, closed loop, in one process.

Usage, from the root of a checkout:

    python3 perfbench/run.py --workload dense_lp --seed 1 --seconds 35 --trace 0

Each request is one ``fracdim.cli.main(argv)`` call with stdout captured;
the next request starts when the previous one returns.  A pass runs a
workload's request list once.  ``--trace 0`` cycles over the list for
``--seconds`` (at least one pass) and prints the end-to-end metrics from
per-request medians.  ``--trace 1`` runs a traced, an untraced and a traced
pass, prints the per-layer metrics of the traced ones, checks that their
counters are identical, and writes the spans of the last pass to
``perfbench/out/spans-<workload>.jsonl``.  Every output is checked by
``gate.py``.  Metric names and units come from ``BENCHMARK.json``.  The
last line of stdout is one JSON object: correct, attempted, failed, metrics.

Tests of the benchmark itself:  python3 -m pytest -q perfbench/tests
"""

from __future__ import annotations

import argparse
import contextlib
import importlib.util
import io
import json
import os
import platform
import resource
import statistics
import subprocess
import sys
import time
from pathlib import Path

import workloads

HERE = Path(__file__).resolve().parent
ROOT = Path.cwd()
SRC = ROOT / "src"
SETUP_SAMPLES = 9
SETUP_ARGV = ("dimf", "--spec", "path(3)")


def environment(workload: str, seed: int) -> dict:
    return {
        "workload": workload,
        "seed": seed,
        "python": platform.python_version(),
        "arith": "gmpy2" if importlib.util.find_spec("gmpy2") else "fraction",
        "nproc": os.cpu_count(),
        "loadavg_before": os.getloadavg()[0],
    }


def _cpu() -> float:
    """CPU seconds of this process and of its children that have ended."""
    own = resource.getrusage(resource.RUSAGE_SELF)
    kids = resource.getrusage(resource.RUSAGE_CHILDREN)
    return own.ru_utime + own.ru_stime + kids.ru_utime + kids.ru_stime


def run_request(cli, argv) -> tuple[float, int, str]:
    """Latency in ms, exit code (-1 on an exception) and captured stdout."""
    buf = io.StringIO()
    start = time.perf_counter()
    try:
        with contextlib.redirect_stdout(buf):
            rc = cli.main(list(argv))
    except Exception as exc:  # an exception is a failed request, not a crash
        rc = -1
        print(f"request {' '.join(argv)} raised {type(exc).__name__}: {exc}", file=sys.stderr)
    return (time.perf_counter() - start) * 1000, rc, buf.getvalue()


def run_pass(cli, reqs, tracer=None) -> dict:
    """One pass over the request list; results are (argv, ms, rc, stdout)."""
    results = []
    t0 = time.perf_counter()
    for i, argv in enumerate(reqs):
        if tracer is not None:
            tracer.req = i
        results.append((argv, *run_request(cli, argv)))
    return {"wall_s": time.perf_counter() - t0, "results": results}


def measure_setup() -> tuple[float, int]:
    """Median seconds for a fresh interpreter to import fracdim and answer one trivial request."""
    env = {k: v for k, v in os.environ.items() if k != "FRACDIM_THREADS"}
    env["PYTHONPATH"] = str(SRC)
    cmd = [sys.executable, "-m", "fracdim", *SETUP_ARGV]
    times, failed = [], 0
    for i in range(SETUP_SAMPLES + 1):
        start = time.perf_counter()
        proc = subprocess.run(cmd, env=env, capture_output=True, text=True, timeout=60)
        elapsed = time.perf_counter() - start
        if proc.returncode != 0 or proc.stdout != "1\n":
            failed += 1
        if i:  # the first start may compile bytecode; users pay that once
            times.append(elapsed)
    return statistics.median(times), failed


def timed_run(cli, reqs, seconds: float) -> tuple[dict, list, int]:
    """Cycle over the request list: one whole pass, then on while the next
    request is expected to end within ``seconds``.  Each request of the list
    counts once, by the median of its latencies: a pass time is the sum of
    those medians and ``req_ms_p50`` is their median, so every measured
    second counts even when a pass is a large share of the run."""
    setup_s, setup_failed = measure_setup()
    lat: list[list[float]] = [[] for _ in reqs]
    cpu: list[list[float]] = [[] for _ in reqs]
    results = []
    start = time.perf_counter()
    i = 0
    while i < len(reqs) or time.perf_counter() - start + lat[i % len(reqs)][-1] / 1000 <= seconds:
        k = i % len(reqs)
        cpu0 = _cpu()
        ms, rc, out = run_request(cli, reqs[k])
        cpu[k].append(_cpu() - cpu0)
        lat[k].append(ms)
        results.append((reqs[k], ms, rc, out))
        i += 1
    peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
    metrics = {
        "wall_s": sum(statistics.median(x) for x in lat) / 1000,
        "req_ms_p50": statistics.median(statistics.median(x) for x in lat),
        "cpu_s": sum(statistics.median(x) for x in cpu),
        "peak_rss_mb": peak_rss_mb,
        "setup_s": setup_s,
    }
    print(f"passes {i / len(reqs):.2f} requests {i} setup_failed {setup_failed}")
    return metrics, results, setup_failed


def traced_run(cli, reqs, workload: str) -> tuple[dict, list, int]:
    """Traced, untraced, traced: the untraced pass sits between the two
    traced ones so that a steady drift in host speed cancels from the
    tracing overhead."""
    from tracer import Tracer, count_mismatches

    tracer = Tracer()
    passes, layers, counts = [], [], []
    for traced in (True, False, True):
        tracer.reset()
        if traced:
            tracer.install()
        try:
            p = run_pass(cli, reqs, tracer if traced else None)
        finally:
            tracer.remove()
        passes.append(p)
        if traced:
            layers.append(tracer.layer_metrics(p["wall_s"], reqs))
            counts.append(dict(tracer.counts))
    out = HERE / "out"
    out.mkdir(exist_ok=True)
    tracer.write_spans(out / f"spans-{workload}.jsonl")
    unstable = count_mismatches(*counts)
    if unstable:
        print(f"counters differ between identical passes: {unstable}", file=sys.stderr)
    metrics = {name: statistics.median(m[name] for m in layers) for name in layers[0]}
    metrics["trace.overhead_s"] = (passes[0]["wall_s"] + passes[2]["wall_s"]) / 2 - passes[1]["wall_s"]
    return metrics, [r for p in passes for r in p["results"]], len(unstable)


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True, choices=sorted(workloads.WORKLOADS))
    ap.add_argument("--seed", type=int, default=workloads.DEFAULT_SEED)
    ap.add_argument("--seconds", type=float, default=35)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)

    if not (SRC / "fracdim" / "__init__.py").is_file():
        print(f"no fracdim sources under {SRC}; run from the root of a checkout", file=sys.stderr)
        return 2
    os.environ.pop("FRACDIM_THREADS", None)  # results must not depend on the caller's shell
    sys.path.insert(0, str(SRC))
    import fracdim.cli as cli
    from gate import Gate

    if not Path(cli.__file__).resolve().is_relative_to(SRC.resolve()):
        print(f"fracdim imported from {cli.__file__}, not from {SRC}", file=sys.stderr)
        return 2

    env = environment(args.workload, args.seed)
    reqs = workloads.requests(args.workload, args.seed)
    gate = Gate(json.loads((HERE / "expected.json").read_text(encoding="utf-8")))
    if args.trace:
        metrics, results, problems = traced_run(cli, reqs, args.workload)
    else:
        metrics, results, problems = timed_run(cli, reqs, args.seconds)

    attempted = failed = 0
    for req, _, rc, out in results:
        attempted += 1
        reason = gate.check(req, rc, out)
        if reason is not None:
            failed += 1
            print(f"FAIL {' '.join(req)}: {reason}", file=sys.stderr)
    if args.trace:
        metrics["fail_frac"] = failed / attempted
    else:
        metrics["ok_frac"] = 1 - failed / attempted
    spec = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    wanted = spec["per_layer" if args.trace else "end_to_end"]

    env["loadavg_after"] = os.getloadavg()[0]
    print("env " + json.dumps(env, sort_keys=True))
    result = {
        "correct": failed == 0 and problems == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": {m["name"]: {"value": metrics[m["name"]], "unit": m["unit"]} for m in wanted},
    }
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
