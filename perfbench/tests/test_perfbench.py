"""Tests of the benchmark itself: python -m pytest perfbench/tests"""

from __future__ import annotations

import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

BENCH = Path(__file__).resolve().parents[1]
ROOT = BENCH.parent
sys.path.insert(0, str(BENCH))

import oracles  # noqa: E402
import workloads  # noqa: E402

FIXTURES = ROOT / "src" / "supportgenus" / "fixtures"
GENERATED = ("dense-lattices", "fact-chains", "wide-pages")


def fixture(name: str) -> dict:
    return json.loads((FIXTURES / f"{name}.json").read_text())


def first_argvs(workload: str, seed: int, count: int):
    stream = workloads.ops(workload, seed)
    return [next(stream).argv for _ in range(count)]


@pytest.mark.parametrize("workload", GENERATED)
def test_generators_are_deterministic(workload):
    once = first_argvs(workload, 7, 14)
    assert once == first_argvs(workload, 7, 14)
    assert once != first_argvs(workload, 8, 14)


def test_fixture_order_depends_on_seed_only():
    def head(workload, seed):
        return [op.argv for op in workloads.traced_ops(workload, seed, ROOT)[:86]]

    assert head("fact-chains", 3) == head("wide-pages", 3)
    assert head("fact-chains", 3) != head("fact-chains", 4)


@pytest.mark.parametrize("k, tb", [(1, 1), (2, 3), (3, 5)])
def test_tb_oracle_on_torus_fixtures(k, tb):
    assert oracles.tb_expected(fixture(f"fig1_torus_k{k}"))["K"] == tb


@pytest.mark.parametrize("m", range(1, 6))
def test_rot_oracle_on_twist_fixtures(m):
    rotation, cycle, _c1 = oracles.rot_expected(fixture(f"fig3_twist_m{m}"))["rot_K"]
    assert rotation == 0
    assert cycle[-1] == 1


@pytest.mark.parametrize("n", range(7, 13))
def test_hf_oracle_on_trefoil_fixtures(n):
    assert oracles.hf_expected(fixture(f"hf_trefoil_n{n}")) == {"surgery": ((3,) + (1,) * n, 1)}


def test_interval_oracle_on_theorem_fixtures():
    thm13 = oracles.sg_expected(fixture("thm13_facts"))
    assert set(thm13.values()) == {(1, 1)}
    thm14 = oracles.sg_expected(fixture("thm14_facts"))
    for m in (1, 2, 3):
        assert thm14[(f"twist({-2 * m})", -1, 0)] == (0, 0)
    thm15 = oracles.sg_expected(fixture("thm15_facts"))
    assert set(thm15.values()) == {(1, 1)}


def test_exact_arithmetic():
    assert oracles.bareiss([[2, 1], [4, 3]]) == (2, 2)
    assert oracles.bareiss([[1, 2, 3], [2, 4, 6]]) == (1, 0)
    assert oracles.bareiss([[0, 1], [1, 0]]) == (2, -1)
    assert oracles.primitive_kernel([[2, 4, 6]], 3) == [(-2, 1, 0), (-3, 0, 1)]
    # two interleaved bands: a one-holed torus, form of rank 2
    assert oracles.boundary_count([1, 2, 1, 2]) == 1
    assert oracles.intersection_rank([1, 2, 1, 2]) == 2
    assert oracles.boundary_count([1, 1, 2, 2]) == 3
    assert oracles.intersection_rank([1, 1, 2, 2]) == 0


def test_planted_lattice_kernels():
    import random

    rng = random.Random(5)
    columns, pivots, hs, det = workloads.dense_problem(rng, 12, 1)
    rows = [[c[i] for c in columns] for i in range(12)]
    assert all(sum(a * b for a, b in zip(row, hs[0])) == 0 for row in rows)
    assert oracles.primitive_kernel(rows, 13) in ([tuple(hs[0])], [tuple(-x for x in hs[0])])
    assert det != 0
    columns, pivots, hs, det = workloads.dense_problem(rng, 12, 2)
    assert oracles.bareiss([[c[i] for c in columns] for i in range(12)])[0] == 11


def run_bench(*args, cwd=ROOT):
    return subprocess.run(
        [sys.executable, "perfbench/run.py", *args], cwd=cwd, capture_output=True, text=True, timeout=300
    )


@pytest.mark.parametrize("workload", workloads.WORKLOADS)
def test_smoke_run_has_no_failed_ops(workload):
    proc = run_bench("--workload", workload, "--seed", "1", "--seconds", "1", "--trace", "0")
    assert proc.returncode == 0, proc.stderr
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    assert result["failed"] == 0 and result["correct"] is True
    assert result["attempted"] >= 100
    assert set(result["metrics"]) == {"setup_s", "ops_per_s", "latency_p50_ms", "latency_p90_ms", "peak_rss_mb"}
    assert all(m["value"] > 0 for m in result["metrics"].values())


def traced(seed: str) -> dict:
    proc = run_bench("--workload", "dense-lattices", "--seed", seed, "--seconds", "1", "--trace", "1")
    assert proc.returncode == 0, proc.stderr
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    assert result["failed"] == 0
    return result["metrics"]


def test_traced_run_reports_every_layer_metric_and_repeats_its_counts():
    first, second = traced("1"), traced("1")
    declared = json.loads((ROOT / "BENCHMARK.json").read_text())["per_layer"]
    assert set(first) == {m["name"] for m in declared}
    assert first["stein.ambiguous_ops"]["value"] > 0
    counts = [name for name, m in first.items() if m["unit"] in ("count", "bits", "bytes")]
    assert counts and all(first[name] == second[name] for name in counts)
    # self times are differences of two spans and may read just below 0
    assert all(first[name]["value"] > 0 for name in first if name not in counts and "_self_" not in name)


def test_refuses_to_run_without_the_program(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(BENCH, tmp_path / "perfbench", ignore=shutil.ignore_patterns("__pycache__"))
    proc = run_bench("--workload", "fact-chains", "--seed", "1", "--seconds", "1", "--trace", "0", cwd=tmp_path)
    assert proc.returncode != 0
    assert proc.stdout.strip() == ""
