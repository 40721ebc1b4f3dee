"""Package-independent oracles for the supportgenus benchmark.

Nothing here imports ``supportgenus``.  Expected values are computed from
the raw JSON documents with the benchmark's own arithmetic, and each
``check_*`` function turns an expectation into a predicate on the
(exit code, stdout, stderr) of one ``--format machine`` command.  A
predicate returns ``None`` when the output is correct and a one-line
reason when it is not.
"""

from __future__ import annotations

import json
from fractions import Fraction
from math import gcd
from typing import Callable, Dict, List, Optional, Sequence, Tuple

Check = Callable[[int, str, str], Optional[str]]
Key = Tuple[str, int, int]


# -- exact arithmetic ----------------------------------------------------


def bareiss(rows: Sequence[Sequence[int]]) -> Tuple[int, int]:
    """Fraction-free elimination: (rank, determinant of a square input).

    The determinant is 0 for a singular or non-square input.
    """
    m = [list(r) for r in rows]
    if not m:
        return 0, 1
    nrows, ncols = len(m), len(m[0])
    rank, sign, prev = 0, 1, 1
    for col in range(ncols):
        pivot = next((i for i in range(rank, nrows) if m[i][col]), None)
        if pivot is None:
            continue
        if pivot != rank:
            m[rank], m[pivot] = m[pivot], m[rank]
            sign = -sign
        p = m[rank][col]
        for i in range(rank + 1, nrows):
            a = m[i][col]
            m[i] = [(p * x - a * y) // prev for x, y in zip(m[i], m[rank])]
        prev = p
        rank += 1
        if rank == nrows:
            break
    det = sign * prev if rank == nrows == ncols else 0
    return rank, det


def rank_gf2(rows: Sequence[Sequence[int]]) -> int:
    """Rank over GF(2), with each row packed into one integer."""
    basis: Dict[int, int] = {}
    for row in rows:
        v = 0
        for j, x in enumerate(row):
            if x & 1:
                v |= 1 << j
        while v:
            top = v.bit_length() - 1
            if top not in basis:
                basis[top] = v
                break
            v ^= basis[top]
    return len(basis)


def primitive_kernel(rows: Sequence[Sequence[int]], ncols: int) -> List[Tuple[int, ...]]:
    """A basis of the rational kernel, each vector scaled to a primitive
    integer vector.  Meant for the small matrices of the bundled fixtures."""
    m = [[Fraction(x) for x in r] for r in rows]
    pivots: List[int] = []
    r = 0
    for col in range(ncols):
        pivot = next((i for i in range(r, len(m)) if m[i][col]), None)
        if pivot is None:
            continue
        m[r], m[pivot] = m[pivot], m[r]
        m[r] = [x / m[r][col] for x in m[r]]
        for i in range(len(m)):
            if i != r and m[i][col]:
                f = m[i][col]
                m[i] = [x - f * y for x, y in zip(m[i], m[r])]
        pivots.append(col)
        r += 1
    basis = []
    for free in (c for c in range(ncols) if c not in pivots):
        vec = [Fraction(0)] * ncols
        vec[free] = Fraction(1)
        for i, col in enumerate(pivots):
            vec[col] = -m[i][free]
        scale = 1
        for x in vec:
            scale = scale * x.denominator // gcd(scale, x.denominator)
        ints = [int(x * scale) for x in vec]
        g = 0
        for x in ints:
            g = gcd(g, x)
        basis.append(tuple(x // g for x in ints))
    return basis


# -- topology of band data -------------------------------------------------


def interleaved(feet: Sequence[int]) -> Dict[Tuple[int, int], bool]:
    """Whether the chords of bands i < j cross inside the disk (labels as given)."""
    pos: Dict[int, List[int]] = {}
    for p, label in enumerate(feet):
        pos.setdefault(label, []).append(p)
    labels = sorted(pos)
    out = {}
    for a, i in enumerate(labels):
        p1, p2 = pos[i]
        for j in labels[a + 1:]:
            q1, q2 = pos[j]
            out[(i, j)] = (p1 < q1 < p2) != (p1 < q2 < p2)
    return out


def boundary_count(feet: Sequence[int]) -> int:
    """Boundary components of the disk with bands: cycles of the map that
    follows the disk arc to the next foot and crosses that foot's band."""
    m = len(feet)
    if m == 0:
        return 1
    partner = [0] * m
    first: Dict[int, int] = {}
    for p, label in enumerate(feet):
        if label in first:
            partner[p], partner[first[label]] = first[label], p
        else:
            first[label] = p
    seen = [False] * m
    cycles = 0
    for start in range(m):
        if seen[start]:
            continue
        cycles += 1
        p = start
        while not seen[p]:
            seen[p] = True
            p = partner[(p + 1) % m]
    return cycles


def intersection_rows(feet: Sequence[int]) -> List[List[int]]:
    """The intersection form up to signs, which is all a rank over GF(2) needs.

    Labels are 1-based as in documents."""
    n = len(feet) // 2
    rows = [[0] * n for _ in range(n)]
    for (i, j), crossing in interleaved(feet).items():
        if crossing:
            rows[i - 1][j - 1] = rows[j - 1][i - 1] = 1
    return rows


def intersection_rank(feet: Sequence[int]) -> int:
    """Rank of the intersection form, from elimination and checked against
    the boundary count: the radical has rank b - 1, so the rank is n + 1 - b."""
    n = len(feet) // 2
    rank = rank_gf2(intersection_rows(feet))
    if rank != n + 1 - boundary_count(feet):
        raise AssertionError(f"oracle disagreement on feet {list(feet)}")
    return rank


def tb_closed_form(surface: dict, coefficients: Sequence[int]) -> int:
    """K^T V K = sum k_i^2 (t_i + c_ii) + sum_{i<j} k_i k_j c_ij.

    V + V^T has the crossing counts off the diagonal, so the intersection
    form cancels and only the raw band data is needed."""
    k = coefficients
    twists = surface.get("twists") or [0] * len(k)
    total = sum(ki * ki * t for ki, t in zip(k, twists))
    for entry in surface.get("crossings", ()):
        a, b = entry["bands"]
        c = entry["count"]
        if a == b:
            total += k[a - 1] * k[a - 1] * c
        else:
            total += k[a - 1] * k[b - 1] * c
    return total


# -- support-genus intervals ----------------------------------------------


def _key(desc: dict) -> Key:
    return (desc["type"], desc["tb"], desc["rot"])


def derive_intervals(facts: Sequence[dict]) -> Dict[Key, Tuple[int, Optional[int]]]:
    """A second derivation of the R1/R2/R3/R5/R6 fixed point, by worklist."""
    lo: Dict[Key, int] = {}
    hi: Dict[Key, Optional[int]] = {}
    edges: Dict[Key, List[Tuple[str, Key]]] = {}

    def touch(k: Key) -> None:
        lo.setdefault(k, 0)
        hi.setdefault(k, None)
        edges.setdefault(k, [])

    for fact in facts:
        s = _key(fact["subject"])
        touch(s)
        kind = fact["kind"]
        if kind == "page-witness":
            hi[s] = fact["genus"] if hi[s] is None else min(hi[s], fact["genus"])
        elif kind in ("positive-tb", "nonplanar-surgery"):
            lo[s] = max(lo[s], 1)
        elif kind == "stabilization-of":
            p = _key(fact["parent"])
            touch(p)
            edges[p].append(("hi", s))  # upper bounds flow parent -> child
            edges[s].append(("lo", p))  # lower bounds flow child -> parent
        elif kind == "orientation-mirror":
            o = _key(fact["other"])
            touch(o)
            edges[s] += [("hi", o), ("lo", o)]
            edges[o] += [("hi", s), ("lo", s)]
    queue = list(lo)
    while queue:
        k = queue.pop()
        for side, target in edges[k]:
            if side == "hi" and hi[k] is not None and (hi[target] is None or hi[k] < hi[target]):
                hi[target] = hi[k]
                queue.append(target)
            elif side == "lo" and lo[k] > lo[target]:
                lo[target] = lo[k]
                queue.append(target)
    return {k: (lo[k], hi[k]) for k in lo}


def replay(trace: Sequence[dict]) -> Tuple[int, Optional[int]]:
    lo, hi = 0, None
    for step in trace:
        if step["bound"] == "lo":
            lo = max(lo, step["value"])
        else:
            hi = step["value"] if hi is None else min(hi, step["value"])
    return lo, hi


# -- checks on command output ---------------------------------------------


def _report(command: str, code: int, out: str, err: str):
    if code != 0:
        return None, f"exit {code}: {err.strip()[:200]}"
    try:
        report = json.loads(out)
    except ValueError:
        return None, "output is not JSON"
    if report.get("command") != command:
        return None, f"command field {report.get('command')!r}"
    return report, None


def check_tb(expected: Dict[str, int]) -> Check:
    def check(code, out, err):
        report, problem = _report("tb", code, out, err)
        if problem:
            return problem
        got = {r["curve"]: r["tb"] for r in report["results"]}
        return None if got == expected else f"tb {got} != {expected}"

    return check


def check_rot(expected: Dict[str, Tuple[int, Tuple[int, ...], Tuple[int, ...]]]) -> Check:
    """expected: problem -> (rotation, cycle, base rotations)."""

    def check(code, out, err):
        report, problem = _report("rot", code, out, err)
        if problem:
            return problem
        got = {r["problem"]: (r["rotation"], tuple(r["cycle"]), tuple(r["base_rotations"])) for r in report["results"]}
        return None if got == expected else f"rot {got} != {expected}"

    return check


def check_rot_ambiguous(kernel_rank: int) -> Check:
    def check(code, out, err):
        if code != 1:
            return f"ambiguous kernel: exit {code}, expected 1"
        if f"ker(d2) has rank {kernel_rank};" not in err or "Traceback" in err:
            return f"ambiguous kernel: unexpected message {err.strip()[:200]!r}"
        return None

    return check


class SnfExpectation:
    """One matrix of an ``snf`` report: label, shape, rank, and optionally
    the exact diagonal or the product of its nonzero entries."""

    def __init__(self, label: str, rows: int, cols: int, rank: int,
                 diagonal: Optional[Tuple[int, ...]] = None, product: Optional[int] = None):
        self.label, self.rows, self.cols, self.rank = label, rows, cols, rank
        self.diagonal, self.product = diagonal, product

    def problem(self, r: dict) -> Optional[str]:
        shape = (r["matrix"], r["rows"], r["cols"], r["rank"], r["kernel_rank"])
        want = (self.label, self.rows, self.cols, self.rank, self.cols - self.rank)
        if shape != want:
            return f"snf {shape} != {want}"
        d = r["diagonal"]
        if len(d) != min(self.rows, self.cols) or any(x < 0 for x in d):
            return f"snf {self.label}: diagonal {d} has a bad length or sign"
        nonzero = [x for x in d if x]
        if d[: len(nonzero)] != nonzero or len(nonzero) != self.rank:
            return f"snf {self.label}: zeros of {d} do not trail or do not match rank {self.rank}"
        if any(b % a for a, b in zip(nonzero, nonzero[1:])):
            return f"snf {self.label}: {d} is not a divisibility chain"
        if self.diagonal is not None and tuple(d) != self.diagonal:
            return f"snf {self.label}: diagonal {d} != {list(self.diagonal)}"
        if self.product is not None:
            prod = 1
            for x in nonzero:
                prod *= x
            if prod != self.product:
                return f"snf {self.label}: invariant factors multiply to {prod}, not {self.product}"
        return None


def check_snf(expected: Sequence[SnfExpectation]) -> Check:
    def check(code, out, err):
        report, problem = _report("snf", code, out, err)
        if problem:
            return problem
        results = report["results"]
        if len(results) != len(expected):
            return f"snf reports {len(results)} matrices, expected {len(expected)}"
        for r, e in zip(results, expected):
            problem = e.problem(r)
            if problem:
                return problem
        return None

    return check


def check_hf(expected: Dict[str, Tuple[Tuple[int, ...], int]]) -> Check:
    def check(code, out, err):
        report, problem = _report("hf", code, out, err)
        if problem:
            return problem
        got = {r["module"]: (tuple(r["hat_ranks"]), r["red_rank"]) for r in report["results"]}
        return None if got == expected else f"hf {got} != {expected}"

    return check


def check_sg(expected: Dict[Key, Tuple[int, Optional[int]]]) -> Check:
    def check(code, out, err):
        report, problem = _report("sg-bounds", code, out, err)
        if problem:
            return problem
        got = {}
        for r in report["results"]:
            key = (r["type"], r["tb"], r["rot"])
            got[key] = (r["lo"], r["hi"])
            if replay(r["trace"]) != got[key]:
                return f"sg-bounds: trace of {key} replays to {replay(r['trace'])}, not {got[key]}"
        if got != expected:
            wrong = sorted(k for k in set(got) | set(expected) if got.get(k) != expected.get(k))
            k = wrong[0]
            return f"sg-bounds: {len(wrong)} intervals differ, e.g. {k}: {got.get(k)} != {expected.get(k)}"
        return None

    return check


def check_verify(code: int, out: str, err: str) -> Optional[str]:
    report, problem = _report("verify-paper", code, out, err)
    if problem:
        return problem
    return None if report.get("all_passed") is True else "verify-paper: not all criteria passed"


# -- expectations for a whole document --------------------------------------


def tb_expected(doc: dict) -> Dict[str, int]:
    surfaces = {s["name"]: s for s in doc.get("surfaces", ())}
    return {c["name"]: tb_closed_form(surfaces[c["surface"]], c["coefficients"]) for c in doc.get("curves", ())}


def _boundary_columns(problem: dict) -> List[List[int]]:
    p = len(problem["one_handles"])
    cols = []
    for curve in problem["curves"]:
        if "traversal" in curve:
            cols.append(list(curve["traversal"]))
        else:
            totals = [0] * p
            for handle, sign in curve["runs"]:
                totals[handle - 1] += sign
            cols.append(totals)
    return cols


def _transpose(cols: Sequence[Sequence[int]], nrows: int) -> List[List[int]]:
    return [[c[i] for c in cols] for i in range(nrows)]


def rot_expected(doc: dict):
    """For documents whose problems all have explicit base rotations and a
    rank-one kernel; returns problem -> (rotation, cycle, base rotations)."""
    out = {}
    for problem in doc.get("stein_problems", ()):
        cols = _boundary_columns(problem)
        rows = _transpose(cols, len(problem["one_handles"]))
        (h,) = primitive_kernel(rows, len(cols))
        names = [c["name"] for c in problem["curves"]]
        k = names.index(problem["distinguished"])
        if abs(h[k]) != 1:
            raise AssertionError("fixture kernel is obstructed")
        h = tuple(x * h[k] for x in h)
        c1 = tuple(c["rotation"] for c in problem["curves"])
        out[problem["name"]] = (sum(a * b for a, b in zip(c1, h)), h, c1)
    return out


def snf_expected(doc: dict) -> List[SnfExpectation]:
    """Intersection forms get their exact diagonal (a surface's form is
    unimodular modulo its radical, so every invariant factor is 1);
    boundary matrices get their rank from exact elimination."""
    out = []
    for s in doc.get("surfaces", ()):
        n = len(s["feet_order"]) // 2
        r = intersection_rank(s["feet_order"])
        out.append(SnfExpectation(f"intersection({s['name']})", n, n, r, diagonal=(1,) * r + (0,) * (n - r)))
    for problem in doc.get("stein_problems", ()):
        cols = _boundary_columns(problem)
        p = len(problem["one_handles"])
        r, _det = bareiss(_transpose(cols, p))
        out.append(SnfExpectation(f"boundary({problem['name']})", p, len(cols), r))
    return out


def hf_expected(doc: dict) -> Dict[str, Tuple[Tuple[int, ...], int]]:
    out = {}
    for module in doc.get("hf_modules", ()):
        slots = module["slots"]
        out[module["name"]] = (tuple(s["towers"] + 2 * s["finite_z"] for s in slots), sum(s["finite_z"] for s in slots))
    return out


def sg_expected(doc: dict) -> Dict[Key, Tuple[int, Optional[int]]]:
    return derive_intervals(doc.get("facts", ()))
