"""The supportgenus benchmark.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the repository root; the program is imported from ``src``.
Every op goes through the real entry point, ``supportgenus.cli.main``,
with ``--format machine``, called in one warm worker process.  The loop
is closed with one client: the next op starts when the previous one has
returned.  Outputs are checked by :mod:`oracles` outside the timed region.

``--trace 0`` measures for ``--seconds`` of op time (and at least
``MIN_OPS`` ops), takes ``SETUP_SAMPLES`` set-up probes spread over that
time, and reports the end-to-end metrics; a run that reaches
``WALL_CAP_S`` with fewer ops exits with code 1 and prints no result.  ``--trace 1`` runs
a fixed op list with spans around each layer's public functions and
reports the per-layer metrics.  Metric names and units are the ones
``BENCHMARK.json`` declares.  The last line of stdout is one JSON object:
``{"correct", "attempted", "failed", "metrics"}``.
"""

from __future__ import annotations

import argparse
import json
import os
import random
import statistics
import subprocess
import sys
import time
from math import ceil
from pathlib import Path
from typing import Dict, Iterable, List, Tuple

import workloads

MIN_OPS = 100  # so that at least ten samples lie beyond the 90th percentile
WALL_CAP_S = 140  # a timed run stops here even if MIN_OPS is not reached
SETUP_SAMPLES = 15
STARTUP_SAMPLES = 12

# A traced run times some fixture ops this way too, which is what the console
# script runs, to find what a fresh interpreter adds.
CONSOLE = "from supportgenus.cli import console; console()"
SETUP_PROBE = "import supportgenus.cli, sys; sys.stdout.write('ready\\n'); sys.stdout.flush()"

Result = Tuple[int, str, str, float]  # exit code, stdout, stderr, seconds


class Bench:
    def __init__(self, root: Path):
        self.root = root
        self.env = dict(os.environ, PYTHONPATH=str(root / "src"), PYTHONHASHSEED="0")
        self.attempted = 0
        self.failed = 0

    def spawn(self, args: List[str], **kwargs) -> subprocess.Popen:
        return subprocess.Popen([sys.executable, *args], cwd=self.root, env=self.env, **kwargs)

    def record(self, op: workloads.Op, result: Result) -> None:
        self.attempted += 1
        problem = op.check(*result[:3])
        if problem:
            self.failed += 1
            if self.failed <= 5:
                print(f"failed op {op.argv[0]}: {problem}", file=sys.stderr)

    def setup_probe(self) -> float:
        """Wall time from spawning an interpreter to ``import
        supportgenus.cli`` returning."""
        start = time.perf_counter()
        proc = self.spawn(["-c", SETUP_PROBE], stdout=subprocess.PIPE)
        with proc.stdout:
            line = proc.stdout.readline()
        elapsed = time.perf_counter() - start
        if proc.wait() != 0 or line != b"ready\n":
            raise RuntimeError("importing supportgenus.cli failed")
        return elapsed

    def run_cli(self, argv: Iterable[str]) -> Result:
        """One op in a fresh interpreter."""
        start = time.perf_counter()
        proc = self.spawn(["-c", CONSOLE, *argv], stdout=subprocess.PIPE, stderr=subprocess.PIPE)
        out, err = proc.communicate()
        return proc.returncode, out.decode(), err.decode(), time.perf_counter() - start

    def timed(self, stream: Iterable[workloads.Op], worker: Worker,
              seconds: float, min_ops: int, deadline: float) -> Tuple[List[float], List[float]]:
        """Closed loop over the stream until ``seconds`` of op time and
        ``min_ops`` ops (or the deadline).  Between ops, each time another
        ``seconds / SETUP_SAMPLES`` of op time has passed, it takes one
        set-up probe: the machine's speed drifts over seconds, so probes
        spread over the run see the same phases as the ops.  Returns the op
        latencies and the set-up times, in seconds."""
        latencies: List[float] = []
        setups: List[float] = []
        busy = 0.0
        self.setup_probe()  # warms the file cache; not counted
        for op in stream:
            result = worker.run(op.argv)
            latencies.append(result[3])
            busy += result[3]
            self.record(op, result)
            while len(setups) < SETUP_SAMPLES and busy >= seconds * len(setups) / SETUP_SAMPLES:
                setups.append(self.setup_probe())
            done = len(latencies) >= min_ops and busy >= seconds
            if done or time.perf_counter() > deadline:
                return latencies, setups


class Worker:
    """The warm worker process, spoken to one JSON line at a time."""

    def __init__(self, bench: Bench):
        self.proc = bench.spawn(
            [str(bench.root / "perfbench" / "worker.py")],
            stdin=subprocess.PIPE, stdout=subprocess.PIPE, text=True, encoding="utf-8",
        )

    def request(self, message: dict) -> dict:
        self.proc.stdin.write(json.dumps(message) + "\n")
        self.proc.stdin.flush()
        line = self.proc.stdout.readline()
        if not line:
            raise RuntimeError(f"worker exited with code {self.proc.wait()}")
        return json.loads(line)

    def run(self, argv: Tuple[str, ...]) -> Result:
        reply = self.request({"run": list(argv)})
        return reply["code"], reply["out"], reply["err"], reply["seconds"]

    def close(self) -> int:
        """Ends the worker and returns its peak resident memory in KiB."""
        self.proc.stdin.close()
        _pid, status, usage = os.wait4(self.proc.pid, 0)
        self.proc.returncode = os.waitstatus_to_exitcode(status)
        self.proc.stdout.close()
        return usage.ru_maxrss


class TooFewOps(Exception):
    pass


def nearest_rank(sorted_values: List[float], q: float) -> float:
    return sorted_values[max(0, ceil(q * len(sorted_values)) - 1)]


def end_to_end(bench: Bench, workload: str, seed: int, seconds: float) -> Dict[str, float]:
    stream = workloads.ops(workload, seed)
    deadline = time.perf_counter() + WALL_CAP_S
    worker = Worker(bench)
    try:
        latencies, setups = bench.timed(stream, worker, seconds, MIN_OPS, deadline)
    finally:
        peak_kb = worker.close()
    if len(latencies) < MIN_OPS:
        raise TooFewOps(f"{workload} seed {seed}: only {len(latencies)} ops in {WALL_CAP_S} s, "
                        f"fewer than the {MIN_OPS} that latency_p90_ms needs")
    ordered = sorted(latencies)
    print(f"{workload} seed {seed}: {len(ordered)} ops in {sum(ordered):.2f} s of op time, "
          f"{bench.failed} failed (failed_ratio {bench.failed / bench.attempted:.4f}); "
          f"latency_p90_ms from {len(ordered)} samples, {sum(1 for x in ordered if x > nearest_rank(ordered, 0.9))} beyond it")
    return {
        "setup_s": statistics.median(setups),
        "ops_per_s": len(ordered) / sum(ordered),
        "latency_p50_ms": 1000 * nearest_rank(ordered, 0.5),
        "latency_p90_ms": 1000 * nearest_rank(ordered, 0.9),
        "peak_rss_mb": peak_kb / 1024,
    }


def per_layer(bench: Bench, workload: str, seed: int) -> Dict[str, float]:
    ops = workloads.traced_ops(workload, seed, bench.root)
    main_seconds: Dict[int, float] = {}
    out = bench.root / ".perfbench-out" / f"trace-{workload}-{seed}.json"
    out.parent.mkdir(exist_ok=True)
    worker = Worker(bench)
    try:
        for index, op in enumerate(ops):
            reply = worker.request({"trace": list(op.argv), "op": index})
            main_seconds[index] = reply["seconds"]
            bench.record(op, (reply["code"], reply["out"], reply["err"], reply["seconds"]))
        metrics = worker.request({"finish": str(out)})["metrics"]
    finally:
        worker.close()
    # cli.startup_s: what a fresh interpreter adds to the same op run in-process.
    startup = []
    fixture_pass = range(len(ops) - workloads.TRACED_OPS[workload])
    for index in random.Random(seed).sample(fixture_pass, STARTUP_SAMPLES):
        result = bench.run_cli(ops[index].argv)
        bench.record(ops[index], result)
        startup.append(result[3] - main_seconds[index])
    metrics["cli.startup_s"] = statistics.median(startup)
    print(f"{workload} seed {seed}: traced {len(ops)} ops, {bench.failed} failed; spans in {out}")
    return metrics


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=workloads.WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    root = Path(__file__).resolve().parent.parent
    if not (root / "src" / "supportgenus" / "cli.py").is_file():
        print(f"perfbench: no supportgenus sources under {root / 'src'}", file=sys.stderr)
        return 2
    declared = json.loads((root / "BENCHMARK.json").read_text())
    bench = Bench(root)
    if args.trace:
        values, section = per_layer(bench, args.workload, args.seed), "per_layer"
    else:
        try:
            values, section = end_to_end(bench, args.workload, args.seed, args.seconds), "end_to_end"
        except TooFewOps as exc:
            print(f"perfbench: {exc}", file=sys.stderr)
            return 1
    result = {
        "correct": bench.failed == 0,
        "attempted": bench.attempted,
        "failed": bench.failed,
        "metrics": {m["name"]: {"value": values[m["name"]], "unit": m["unit"]} for m in declared[section]},
    }
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
