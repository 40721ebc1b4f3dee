"""Seeded workloads of the supportgenus benchmark.

An op is one CLI command on one document.  Each workload is an endless,
deterministic stream of ops drawn from ``random.Random`` seeded with the
workload name and the seed, so the same seed yields byte-identical
documents.  The program only ever sees the generated JSON text, passed
inline through ``--input``; the expectation each op carries comes from
:mod:`oracles` and never from the package.

Sizes follow a low-discrepancy walk over each range that every seed
shares, and the seed varies the contents.  Wherever a run stops, the
sizes it covered are spread evenly over the range, which keeps the cost
of a run, and its percentiles, comparable across seeds.
"""

from __future__ import annotations

import json
import random
from dataclasses import dataclass
from itertools import count
from pathlib import Path
from typing import Iterator, List, Tuple

import oracles
from oracles import Check, SnfExpectation

WORKLOADS = ("dense-lattices", "fact-chains", "wide-pages")

# Generated ops the traced run covers after its pass over the fixtures.
TRACED_OPS = {"dense-lattices": 400, "fact-chains": 40, "wide-pages": 40}


@dataclass(frozen=True)
class Op:
    argv: Tuple[str, ...]
    check: Check


def _size(index: int, lo: int, hi: int, alpha: float = 0.6180339887498949, power: int = 1) -> int:
    """The index-th size in [lo, hi]: fractional parts of index * alpha,
    raised to ``power`` to favour the small end."""
    return lo + round((hi - lo) * ((index * alpha) % 1.0) ** power)


def _rng(workload: str, seed: int) -> random.Random:
    return random.Random(f"supportgenus-bench/{workload}/{seed}")


def _inline(command: str, doc: dict) -> Tuple[str, ...]:
    return (command, "--input", json.dumps(doc, separators=(",", ":")), "--format", "machine")


def ops(workload: str, seed: int) -> Iterator[Op]:
    """The op stream of one workload."""
    rng = _rng(workload, seed)
    generate = {"dense-lattices": dense_lattice_ops, "fact-chains": fact_chain_ops, "wide-pages": wide_page_ops}
    for index in count():
        yield from generate[workload](rng, index)


def traced_ops(workload: str, seed: int, root: Path) -> List[Op]:
    """The fixed op list of a traced run: one pass over the bundled
    fixtures, so every layer is timed on every workload, then the first
    generated ops of the workload."""
    fixtures = fixture_ops(root)
    head = _rng("traced-fixtures", seed).sample(fixtures, len(fixtures))
    stream = ops(workload, seed)
    return head + [next(stream) for _ in range(TRACED_OPS[workload])]


# -- fixture pass --------------------------------------------------------------
# Every traced run starts with these, so that hfbook, fixtures, verify and a
# fresh interpreter's start-up are timed on every workload.  They are not a
# timed workload of their own: with one interpreter per op, each op lands on
# one of the two vCPUs, whose speeds differ and swap within seconds, so the
# median op latency of a run jumped by a quarter from seed to seed.


def fixture_ops(root: Path) -> List[Op]:
    """Every data command on every bundled fixture, plus ``verify-paper``."""
    out = []
    for path in sorted((root / "src" / "supportgenus" / "fixtures").glob("*.json")):
        doc = json.loads(path.read_text())
        checks = {
            "tb": oracles.check_tb(oracles.tb_expected(doc)),
            "rot": oracles.check_rot(oracles.rot_expected(doc)),
            "snf": oracles.check_snf(oracles.snf_expected(doc)),
            "hf": oracles.check_hf(oracles.hf_expected(doc)),
            "sg-bounds": oracles.check_sg(oracles.sg_expected(doc)),
        }
        for command, check in checks.items():
            out.append(Op((command, "--input", path.stem, "--format", "machine"), check))
    out.append(Op(("verify-paper", "--format", "machine"), oracles.check_verify))
    return out


# -- dense-lattices ------------------------------------------------------------
# Why: zlinalg's full-transform Smith normal form does nearly all the work
# of rot and snf here, and coefficient growth makes its cost heavy-tailed.
# p runs over 8..26: from p = 28 on, single matrices of this generator can
# take seconds, and a run's throughput would hinge on a few of them.

AMBIGUOUS_EVERY = 8  # one document in eight plants a rank-2 kernel


def dense_problem(rng: random.Random, p: int, kernel_rank: int):
    """A p x (p+1) boundary matrix with planted primitive kernel vectors.

    Each planted vector h has h[k] = 1 on its own pivot column k and 0 on
    the other pivots; every row is random on the free columns and solved
    on the pivots so that A h = 0.  Returns (columns, pivots, kernel
    vectors, determinant of A without the first pivot column), retrying
    until the rank is exactly p + 1 - kernel_rank.
    """
    n = p + 1
    while True:
        pivots = rng.sample(range(n), kernel_rank)
        hs = []
        for k in pivots:
            h = [rng.randint(-1, 1) for _ in range(n)]
            for other in pivots:
                h[other] = 0
            h[k] = 1
            hs.append(h)
        free = [j for j in range(n) if j not in pivots]
        rows = []
        for _ in range(p):
            row = [0] * n
            for j in free:
                row[j] = rng.randint(-2, 2)
            for k, h in zip(pivots, hs):
                row[k] = -sum(row[j] * h[j] for j in free)
            rows.append(row)
        if kernel_rank == 1:
            _, det = oracles.bareiss([[x for j, x in enumerate(r) if j != pivots[0]] for r in rows])
            if det:
                break
        elif oracles.bareiss(rows)[0] == p + 1 - kernel_rank:
            det = None
            break
    columns = [[rows[i][j] for i in range(p)] for j in range(n)]
    return columns, pivots, hs, det


def dense_lattice_ops(rng: random.Random, index: int) -> List[Op]:
    p = _size(index, 8, 26)
    kernel_rank = 2 if index % AMBIGUOUS_EVERY == AMBIGUOUS_EVERY - 1 else 1
    columns, pivots, hs, det = dense_problem(rng, p, kernel_rank)
    c1 = [rng.randint(-4, 4) for _ in columns]
    doc = {
        "stein_problems": [
            {
                "name": "lattice",
                "one_handles": [f"x{i + 1}" for i in range(p)],
                "distinguished": f"c{pivots[0] + 1}",
                "curves": [
                    {"name": f"c{j + 1}", "traversal": col, "rotation": r} for j, (col, r) in enumerate(zip(columns, c1))
                ],
            }
        ]
    }
    rank = p + 1 - kernel_rank
    if kernel_rank == 1:
        h = tuple(hs[0])
        rot = oracles.check_rot({"lattice": (sum(a * b for a, b in zip(c1, h)), h, tuple(c1))})
        snf = oracles.check_snf([SnfExpectation("boundary(lattice)", p, p + 1, rank, product=abs(det))])
    else:
        rot = oracles.check_rot_ambiguous(kernel_rank)
        snf = oracles.check_snf([SnfExpectation("boundary(lattice)", p, p + 1, rank)])
    return [Op(_inline("rot", doc), rot), Op(_inline("snf", doc), snf)]


# -- fact-chains ---------------------------------------------------------------
# Why: derive_bounds re-sweeps every fact until nothing changes, which costs
# O(facts x depth); parsing many small records is about 1 % and zlinalg is
# never called, so a worklist engine shows here and nowhere else.

FACT_SHAPES = ("chain", "mirror", "grid")
FACT_SIZES = {"chain": (40, 240, 2), "mirror": (20, 120, 1), "grid": (6, 20, 1)}  # lo, hi, power


def _desc(kind: str, tb: int, rot: int) -> dict:
    return {"type": kind, "tb": tb, "rot": rot}


def _stab(child: dict, parent: dict, sign: int) -> dict:
    return {"kind": "stabilization-of", "subject": child, "parent": parent, "sign": sign}


def fact_chain_doc(rng: random.Random, shape: str, size: int, index: int, pinned: bool = False):
    """A fact document and the interval of every descriptor, known by
    construction: an upper bound g enters at the root and flows down every
    stabilization; a lower bound enters at the deep end and flows back up.
    A ``pinned`` grid has genus 0 at the root and no lower bound instead."""
    name = f"{shape}{index}"
    g = rng.randint(1, 3)
    tb0, rot0 = rng.randint(-3, 5), rng.randint(-3, 3)
    root = _desc(name, tb0, rot0)
    facts = [{"kind": "page-witness", "genus": g, "subject": root}]
    if tb0 > 0:
        facts.append({"kind": "positive-tb", "subject": root})
    nodes = [root]
    if shape == "chain":
        for _ in range(size):
            sign = rng.choice((1, -1))
            child = _desc(name, nodes[-1]["tb"] - 1, nodes[-1]["rot"] + sign)
            facts.append(_stab(child, nodes[-1], sign))
            nodes.append(child)
        facts.append({"kind": "nonplanar-surgery", "subject": nodes[-1]})
        expected = (1, g)
    elif shape == "mirror":
        # +/- chains from a rot-0 root, joined level by level through
        # orientation mirrors; the deepest level is always joined.
        root["rot"] = 0
        plus, minus = [root], [root]
        for level in range(1, size + 1):
            plus.append(_desc(name, tb0 - level, level))
            minus.append(_desc(name, tb0 - level, -level))
            facts += [_stab(plus[-1], plus[-2], 1), _stab(minus[-1], minus[-2], -1)]
            if level == size or rng.random() < 0.5:
                facts.append({"kind": "orientation-mirror", "subject": plus[-1], "other": minus[-1]})
        facts.append({"kind": "nonplanar-surgery", "subject": plus[-1]})
        nodes = plus + minus[1:]
        expected = (1, g)
    else:
        # A size x size grid of stabilizations (i positive, j negative).
        # Genus 0 at the root pins everything to [0, 0]; otherwise a lower
        # bound at the far corner reaches every node.
        if pinned:
            g = 0
            facts = [{"kind": "page-witness", "genus": 0, "subject": root}]
        grid = {(i, j): _desc(name, tb0 - i - j, rot0 + i - j) for i in range(size) for j in range(size)}
        for (i, j), node in grid.items():
            if i:
                facts.append(_stab(node, grid[(i - 1, j)], 1))
            if j:
                facts.append(_stab(node, grid[(i, j - 1)], -1))
        if g:
            facts.append({"kind": "nonplanar-surgery", "subject": grid[(size - 1, size - 1)]})
        nodes = list(grid.values())
        expected = (1, g) if g else (0, 0)
    rng.shuffle(facts)
    return {"facts": facts}, {(d["type"], d["tb"], d["rot"]): expected for d in nodes}


def fact_chain_ops(rng: random.Random, index: int) -> List[Op]:
    shape = FACT_SHAPES[index % len(FACT_SHAPES)]
    lo, hi, power = FACT_SIZES[shape]
    size = _size(index // len(FACT_SHAPES), lo, hi, power=power)
    # the two kinds of grid cost differently, so they alternate rather than
    # being drawn at random
    doc, expected = fact_chain_doc(rng, shape, size, index, pinned=(index // len(FACT_SHAPES)) % 2 == 1)
    return [Op(_inline("sg-bounds", doc), oracles.check_sg(expected))]


# -- wide-pages ------------------------------------------------------------------
# Why: ribbon construction, the per-curve Seifert rebuild behind tb and the
# parse of a few large records dominate; snf runs on large sparse skew
# +-1 intersection forms, so a zlinalg change that helps dense-lattices but
# costs sparse forms shows up here.

def wide_page(rng: random.Random, bands: int, curve_count: int) -> dict:
    """A page with a random foot order, crossings of the parity an
    embedding needs, and curves over a few bands each."""
    feet = [b for b in range(1, bands + 1) for _ in range(2)]
    rng.shuffle(feet)
    crossings = []
    for (i, j), inter in oracles.interleaved(feet).items():
        if inter:
            crossing = rng.choice((-3, -1, -1, 1, 1, 3))
        elif rng.random() < 0.05:
            crossing = rng.choice((-2, 2))
        else:
            continue
        crossings.append({"bands": [i, j], "count": crossing})
    for i in sorted(rng.sample(range(1, bands + 1), bands // 10)):
        crossings.append({"bands": [i, i], "count": rng.choice((-2, -1, 1, 2))})
    page = {
        "name": "page",
        "feet_order": feet,
        "twists": [rng.randint(-3, 3) for _ in range(bands)],
        "crossings": crossings,
    }
    curves = []
    for c in range(curve_count):
        coefficients = [0] * bands
        runs = []
        for band in rng.sample(range(bands), rng.randint(1, 6)):
            k = rng.choice((-2, -1, 1, 2))
            coefficients[band] = k
            runs += [[band + 1, 1 if k > 0 else -1]] * abs(k)
        rng.shuffle(runs)
        curves.append({"name": f"K{c + 1}", "surface": "page", "coefficients": coefficients, "traversal": runs})
    return {"surfaces": [page], "curves": curves}


def wide_page_ops(rng: random.Random, index: int) -> List[Op]:
    doc = wide_page(rng, _size(index, 50, 200, power=3), _size(index, 10, 40, alpha=2 ** 0.5 - 1))
    return [
        Op(_inline("tb", doc), oracles.check_tb(oracles.tb_expected(doc))),
        Op(_inline("snf", doc), oracles.check_snf(oracles.snf_expected(doc))),
    ]
