"""Regenerate ``expected.json``: the checked output summary of every request
of every workload at the default seed.

Run from the root of a checkout after changing a workload:

    python3 perfbench/make_expected.py

Each output must first pass the gate's other checks (exit code, closed
forms, certificate re-verification); the script refuses to store one that
does not.
"""

from __future__ import annotations

import json
import sys

import workloads
from run import HERE, SRC, run_request


def main() -> int:
    sys.path.insert(0, str(SRC))
    import fracdim.cli as cli
    from gate import Gate, key, summary

    gate = Gate({})
    table = {}
    for name in workloads.WORKLOADS:
        for argv in workloads.requests(name, workloads.DEFAULT_SEED):
            ms, rc, out = run_request(cli, argv)
            reason = gate.check(argv, rc, out)
            if reason is not None:
                print(f"refusing to store {key(argv)}: {reason}", file=sys.stderr)
                return 1
            table[key(argv)] = summary(argv, json.loads(out))
            print(f"{ms:9.1f} ms  {key(argv)}  {table[key(argv)]}")
    (HERE / "expected.json").write_text(json.dumps(table, indent=1, sort_keys=True) + "\n", encoding="utf-8")
    return 0


if __name__ == "__main__":
    sys.exit(main())
