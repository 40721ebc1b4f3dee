"""Run-to-run spread of the end-to-end metrics.

    python3 perfbench/spread.py --workload NAME --seeds 1-10

Runs the benchmark once per seed with ``--trace 0`` for the
``run_seconds`` that ``BENCHMARK.json`` declares, and prints, for every metric, the median
of the runs and the distance between the first and third quartile as a
share of that median (``statistics.quantiles(values, n=4)``).
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
from pathlib import Path


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seeds", default="1-10", help="an inclusive range like 1-10")
    args = parser.parse_args()
    first, last = map(int, args.seeds.split("-"))
    here = Path(__file__).resolve().parent
    seconds = json.loads((here.parent / "BENCHMARK.json").read_text())["run_seconds"]
    values = {}
    for seed in range(first, last + 1):
        proc = subprocess.run(
            [sys.executable, str(here / "run.py"), "--workload", args.workload, "--seed", str(seed),
             "--seconds", str(seconds), "--trace", "0"],
            cwd=here.parent, capture_output=True, text=True, check=True,
        )
        result = json.loads(proc.stdout.strip().splitlines()[-1])
        print(f"seed {seed}: failed {result['failed']}/{result['attempted']} "
              + " ".join(f"{k}={v['value']:.6g}" for k, v in result["metrics"].items()), flush=True)
        for name, metric in result["metrics"].items():
            values.setdefault(name, []).append(metric["value"])
    for name, vals in values.items():
        q1, median, q3 = statistics.quantiles(vals, n=4)
        print(f"{name:28s} median {median:.6g}  spread {(q3 - q1) / median:.4f}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
