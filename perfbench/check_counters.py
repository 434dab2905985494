#!/usr/bin/env python3
"""Check that two traced runs of one seed give identical work counters.

    python3 perfbench/check_counters.py [--seed N] [WORKLOAD ...]

Every per-layer metric that is not a time (calls, elements, records, bytes,
ratios) must repeat exactly; times are printed side by side for reference.
Exits 1 if any counter differs or a traced run is not correct.
"""

from __future__ import annotations

import argparse
import json
import subprocess
import sys

from run import HERE, ROOT, WORKLOADS


def traced(workload: str, seed: int) -> dict:
    proc = subprocess.run(
        [sys.executable, str(HERE / "run.py"), "--workload", workload, "--seed", str(seed),
         "--seconds", "1", "--trace", "1"],
        cwd=ROOT, capture_output=True, text=True, check=True, timeout=300,
    )
    return json.loads(proc.stdout.strip().splitlines()[-1])


def main() -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--seed", type=int, default=1)
    ap.add_argument("workloads", nargs="*", default=sorted(WORKLOADS))
    args = ap.parse_args()
    ok = True
    for workload in args.workloads:
        first, second = traced(workload, args.seed), traced(workload, args.seed)
        ok &= first["correct"] and second["correct"]
        for name, a in first["metrics"].items():
            b = second["metrics"][name]
            same = a["value"] == b["value"]
            if a["unit"] != "s":
                ok &= same
            flag = "" if same or a["unit"] == "s" else "  DIFFERS"
            print(f"{workload} {name} {a['value']} {b['value']}{flag}")
    print("counters repeat" if ok else "counters differ", file=sys.stderr)
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())
