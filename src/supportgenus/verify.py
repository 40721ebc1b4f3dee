"""The acceptance suite behind ``verify-paper``.

Nine numbered criteria: eight pin exact values on the bundled fixtures
and the ninth runs seeded randomized property suites over the exact
linear algebra, the surface layer, and the derivation engine.  Each
criterion reports one pass/fail line; the CLI exits nonzero if any
fails.
"""

from __future__ import annotations

import random
from dataclasses import dataclass
from typing import Callable, List, Optional, Tuple

from .fixtures import load_fixture
from .hfbook import ContactClassSet, hf_hat, hf_red_rank, pigeonhole_excess, trefoil_rotation_list
from .ribbon import CurveClass, RibbonSurface, dehn_twist_action, intersection_form, interleaving_form
from .seifert import page_framing_self_linking, seifert_matrix
from .sgengine import (
    NONPLANAR_SURGERY,
    ORIENTATION_MIRROR,
    PAGE_WITNESS,
    POSITIVE_TB,
    STABILIZATION_OF,
    InconsistentFactsError,
    LegendrianDesc,
    SGFact,
    SGFactBase,
    derive_bounds,
    replay_trace,
    stabilized,
)
from .stein import boundary_matrix, c1_cochain, format_cycle, rotation_number
from .zlinalg import IntMatrix, kernel_basis, smith_normal_form, solve_integer


@dataclass(frozen=True)
class CriterionResult:
    number: int
    title: str
    passed: bool
    detail: str

    def line(self) -> str:
        status = "PASS" if self.passed else "FAIL"
        return f"criterion {self.number} [{status}] {self.title}: {self.detail}"


Check = Tuple[bool, str]


def _criterion_1() -> Check:
    values = []
    for k in (1, 2, 3):
        doc = load_fixture(f"fig1_torus_k{k}")
        tb = page_framing_self_linking(doc.surfaces["page"], doc.curves["K"].curve)
        if tb != 2 * k - 1:
            return False, f"k={k}: page framing {tb}, expected {2 * k - 1}"
        values.append(tb)
    return True, f"framings {values} for k=1,2,3"


def _criterion_2() -> Check:
    for m in range(1, 6):
        doc = load_fixture(f"fig3_twist_m{m}")
        tb = page_framing_self_linking(doc.surfaces["page"], doc.curves["K"].curve)
        if tb != -1:
            return False, f"m={m}: page framing {tb}, expected -1"
    return True, "page framing -1 for m=1..5"


def _expected_boundary(m: int) -> IntMatrix:
    p = m + 2
    columns = [[1 if r == 1 else 0 for r in range(p)]]
    for i in range(2, p + 1):
        col = [0] * p
        col[i - 2] = 1
        col[i - 1] = -1
        columns.append(col)
    columns.append([-1 if r == 1 else 0 for r in range(p)])
    return IntMatrix.from_columns(columns, rows=p)


def _criterion_3() -> Check:
    for m in range(1, 5):
        doc = load_fixture(f"fig3_twist_m{m}")
        got = boundary_matrix(doc.stein_problems["rot_K"])
        want = _expected_boundary(m)
        if got != want:
            return False, f"m={m}: boundary matrix differs from the pinned listing"
    return True, "all columns match the pinned listing for m=1..4"


def _criterion_4() -> Check:
    for m in range(1, 6):
        problem = load_fixture(f"fig3_twist_m{m}").stein_problems["rot_K"]
        result = rotation_number(problem)
        expected_cycle = tuple(1 if i in (0, m + 2) else 0 for i in range(m + 3))
        if result.cycle != expected_cycle:
            return False, f"m={m}: cycle {result.cycle}, expected {expected_cycle}"
        if format_cycle(problem, result.cycle) != "S[gamma_1] + S[K]":
            return False, f"m={m}: cycle formats as {format_cycle(problem, result.cycle)!r}"
        if result.rotation != 0:
            return False, f"m={m}: rotation {result.rotation}, expected 0"
    return True, "h = S[gamma_1] + S[K] and rot = 0 for m=1..5"


def _criterion_5() -> Check:
    for m in range(1, 6):
        problem = load_fixture(f"fig3_twist_m{m}").stein_problems["rot_K"]
        got = c1_cochain(problem)
        want = (0,) + (-1,) * (m + 1) + (0,)
        if got != want:
            return False, f"m={m}: base rotations {got}, expected {want}"
    return True, "base rotations (0, -1, ..., -1, 0) for m=1..5"


def _criterion_6() -> Check:
    for n in range(7, 13):
        module = load_fixture(f"hf_trefoil_n{n}").hf_modules["surgery"]
        if hf_hat(module) != (3,) + (1,) * n:
            return False, f"n={n}: hat ranks {hf_hat(module)}"
        if hf_red_rank(module) != 1:
            return False, f"n={n}: reduced rank {hf_red_rank(module)}"
        classes = ContactClassSet(n + 2, distinctness=True, exclusion=True)
        if pigeonhole_excess(classes, module) != 1:
            return False, f"n={n}: excess {pigeonhole_excess(classes, module)}"
    return True, "hat ranks (3,1,...,1), reduced rank 1, excess 1 for n=7..12"


def _criterion_7() -> Check:
    for n in range(1, 13):
        got = trefoil_rotation_list(n)
        want = tuple(2 * i - n - 3 for i in range(1, n + 3))
        if got != want:
            return False, f"n={n}: rotation list {got}, expected {want}"
        if len(set(got)) != len(got):
            return False, f"n={n}: rotation list has repeated entries"
    return True, "rotation lists match and are duplicate-free for n=1..12"


def _check_interval(bounds, desc: LegendrianDesc, lo: int, hi: int) -> Tuple[bool, str]:
    if desc not in bounds:
        return False, f"{desc.label()}: no derived interval"
    interval = bounds[desc]
    if interval.lo != lo or interval.hi != hi:
        return False, f"{desc.label()}: derived {interval}, expected [{lo}, {hi}]"
    if not interval.trace:
        return False, f"{desc.label()}: empty derivation trace"
    if replay_trace(interval.trace) != (interval.lo, interval.hi):
        return False, f"{desc.label()}: trace does not replay to {interval}"
    if not all(str(step) for step in interval.trace):
        return False, f"{desc.label()}: unprintable trace step"
    return True, ""


def _criterion_8() -> Check:
    bounds = derive_bounds(load_fixture("thm13_facts").fact_base())
    for k in (1, 2, 3):
        ok, msg = _check_interval(bounds, LegendrianDesc(f"torus(2,{2 * k + 1})", 2 * k - 1, 0), 1, 1)
        if not ok:
            return False, msg

    bounds = derive_bounds(load_fixture("thm14_facts").fact_base())
    for m in (1, 2, 3):
        for i in range(1, 4):
            for j in range(1, 4):
                desc = LegendrianDesc(f"twist({-2 * m})", 1 - i - j, i - j)
                ok, msg = _check_interval(bounds, desc, 0, 0)
                if not ok:
                    return False, msg

    bounds = derive_bounds(load_fixture("thm15_facts").fact_base())
    for n in range(2, 7):
        for rot in (n, -n):
            ok, msg = _check_interval(bounds, LegendrianDesc("torus(2,3)", 1 - n, rot), 1, 1)
            if not ok:
                return False, msg
    return True, "[1,1], [0,0], [1,1] with replayable traces on the three fact fixtures"


def random_matrix(rng: random.Random, rows: int, cols: int, span: int = 9) -> IntMatrix:
    """A rows x cols matrix with entries drawn uniformly from [-span, span]."""
    return IntMatrix([[rng.randint(-span, span) for _ in range(cols)] for _ in range(rows)])


def _snf_suite(rng: random.Random, count: int) -> Tuple[bool, str]:
    for _ in range(count):
        rows = rng.randint(1, 4)
        cols = rng.randint(1, 4)
        a = random_matrix(rng, rows, cols)
        s = smith_normal_form(a)
        if s.U @ a @ s.V != s.D:
            return False, f"SNF product mismatch on {a!r}"
        if abs(s.U.determinant()) != 1 or abs(s.V.determinant()) != 1:
            return False, f"SNF transform not unimodular on {a!r}"
        diag = s.diagonal
        if any(d < 0 for d in diag):
            return False, f"negative SNF diagonal on {a!r}"
        nonzero = [d for d in diag if d]
        if list(diag[: len(nonzero)]) != nonzero:
            return False, f"SNF zeros not trailing on {a!r}"
        if any(nonzero[i + 1] % nonzero[i] for i in range(len(nonzero) - 1)):
            return False, f"SNF divisibility fails on {a!r}"
    return True, ""


def brute_kernel(a: IntMatrix, box: int) -> List[Tuple[int, ...]]:
    """Every kernel vector of ``a`` with entries in [-box, box], by enumeration."""
    vecs = []
    vec = [-box] * a.cols
    while True:
        v = tuple(vec)
        if a.mul_vec(v) == (0,) * a.rows:
            vecs.append(v)
        i = 0
        while i < a.cols and vec[i] == box:
            vec[i] = -box
            i += 1
        if i == a.cols:
            break
        vec[i] += 1
    return vecs


def _kernel_suite(rng: random.Random, count: int) -> Tuple[bool, str]:
    for _ in range(count):
        rows = rng.randint(1, 3)
        cols = rng.randint(1, 4)
        a = random_matrix(rng, rows, cols, span=3)
        basis = kernel_basis(a)
        for vec in basis:
            if a.mul_vec(vec) != (0,) * rows:
                return False, f"kernel basis vector {vec} of {a!r} not in kernel"
        for v in brute_kernel(a, 2):
            if not basis:
                if any(v):
                    return False, f"brute force found kernel vector {v} of {a!r} outside empty basis"
                continue
            if solve_integer(IntMatrix.from_columns(basis, rows=cols), v) is None:
                return False, f"kernel vector {v} of {a!r} not spanned by {basis}"
    return True, ""


def random_surface(rng: random.Random, max_bands: int = 5) -> RibbonSurface:
    """A :func:`random_page` with 1..max_bands bands."""
    return random_page(rng, rng.randint(1, max_bands))


def random_page(rng: random.Random, n: int) -> RibbonSurface:
    """A page with n bands in shuffled foot order, random twists and
    self-crossings, and crossing counts between bands of the parity
    their interleaving forces."""
    feet = [band for band in range(n) for _ in range(2)]
    rng.shuffle(feet)
    iform = interleaving_form(feet, n)
    crossings = {}
    for i in range(n):
        for j in range(i, n):
            if i == j:
                count = rng.randint(-2, 2)
            else:
                count = iform[i][j] + 2 * rng.randint(-2, 2)
            if count:
                crossings[(i, j)] = count
    twists = tuple(rng.randint(-3, 3) for _ in range(n))
    return RibbonSurface(n, feet, twists, crossings)


def dense_framing(pairing: IntMatrix, coeffs: Tuple[int, ...]) -> int:
    """K^T V K summed over the whole Seifert matrix V: the route the page
    framing's support formula is checked against."""
    return sum(k * vk for k, vk in zip(coeffs, pairing.mul_vec(coeffs)))


def _pairing_suite(rng: random.Random, count: int) -> Tuple[bool, str]:
    for _ in range(count):
        surface = random_surface(rng)
        v = seifert_matrix(surface)
        if v.skew_part != -intersection_form(surface):
            return False, f"V - V^T is not -J on {surface!r}"
        coeffs = tuple(rng.randint(-3, 3) for _ in range(surface.band_count))
        if page_framing_self_linking(surface, CurveClass(surface, coeffs)) != dense_framing(v.pairing, coeffs):
            return False, f"page framing of {coeffs} differs from K^T V K on {surface!r}"
    return True, ""


def _transvection_suite(rng: random.Random, count: int) -> Tuple[bool, str]:
    for _ in range(count):
        surface = random_surface(rng)
        coeffs = tuple(rng.randint(-3, 3) for _ in range(surface.band_count))
        curve = CurveClass(surface, coeffs)
        sign = rng.choice((1, -1))
        m = dehn_twist_action(surface, curve, sign)
        j = intersection_form(surface)
        if m.transpose() @ j @ m != j:
            return False, f"transvection does not preserve the form on {surface!r}"
        if m.mul_vec(coeffs) != coeffs:
            return False, f"transvection moves its own curve on {surface!r}"
    return True, ""


def random_fact_base(rng: random.Random) -> List[SGFact]:
    """A stabilization tree with page witnesses of genus 1..3, nonplanar
    surgeries and orientation mirrors, and in about 30 % of the bases a
    genus-0 page witness, which clashes with any lo of 1 it meets."""
    facts: List[SGFact] = []
    root = LegendrianDesc("rand", rng.randint(-2, 2), rng.choice((-1, 0, 1)))
    nodes = [root]
    if root.tb > 0:
        facts.append(SGFact(kind=POSITIVE_TB, subject=root))
    for _ in range(rng.randint(0, 10)):
        parent = rng.choice(nodes)
        sign = rng.choice((1, -1))
        child = stabilized(parent, sign)
        facts.append(SGFact(kind=STABILIZATION_OF, subject=child, parent=parent, sign=sign))
        nodes.append(child)
    for _ in range(rng.randint(0, 3)):
        facts.append(SGFact(kind=PAGE_WITNESS, subject=rng.choice(nodes), genus=rng.randint(1, 3)))
    for _ in range(rng.randint(0, 2)):
        facts.append(SGFact(kind=NONPLANAR_SURGERY, subject=rng.choice(nodes)))
    for _ in range(rng.randint(0, 2)):
        node = rng.choice(nodes)
        mirror = LegendrianDesc(node.topo_type, node.tb, -node.rot)
        facts.append(SGFact(kind=ORIENTATION_MIRROR, subject=node, other=mirror))
    if facts and rng.random() < 0.3:
        facts.append(SGFact(kind=PAGE_WITNESS, subject=rng.choice(facts).subject, genus=0))
    return facts


def _intervals(facts) -> Optional[dict]:
    """The derived (lo, hi) of each descriptor, or None when the facts clash."""
    try:
        return {desc: (iv.lo, iv.hi) for desc, iv in derive_bounds(SGFactBase(facts)).items()}
    except InconsistentFactsError:
        return None


def _derivation_suite(rng: random.Random, count: int) -> Tuple[bool, str]:
    for _ in range(count):
        facts = random_fact_base(rng)
        partial = _intervals(facts[: len(facts) // 2])
        full = _intervals(facts)
        shuffled = list(facts)
        rng.shuffle(shuffled)
        if _intervals(shuffled) != full:
            return False, "derived intervals or clashes depend on fact order"
        if partial is None and full is not None:
            return False, "the first half of the facts clashes but the whole base does not"
        if partial is None or full is None:
            continue
        for desc, (lo, hi) in partial.items():
            flo, fhi = full[desc]
            if flo < lo:
                return False, f"adding facts lowered lo for {desc.label()}"
            if hi is not None and (fhi is None or fhi > hi):
                return False, f"adding facts raised hi for {desc.label()}"
    return True, ""


def _criterion_9() -> Check:
    rng = random.Random(90125)
    suites = (
        ("SNF", _snf_suite, 1000),
        ("kernel", _kernel_suite, 80),
        ("pairing", _pairing_suite, 150),
        ("transvection", _transvection_suite, 150),
        ("derivation", _derivation_suite, 60),
    )
    for name, suite, count in suites:
        ok, msg = suite(rng, count)
        if not ok:
            return False, f"{name} suite: {msg}"
    counts = ", ".join(f"{count} {name}" for name, _suite, count in suites)
    return True, f"property suites green ({counts})"


CRITERIA: Tuple[Tuple[int, str, Callable[[], Check]], ...] = (
    (1, "two-band page framings", _criterion_1),
    (2, "planar page framing", _criterion_2),
    (3, "boundary operator columns", _criterion_3),
    (4, "rotation cycle and value", _criterion_4),
    (5, "default base rotations", _criterion_5),
    (6, "surgery module ranks", _criterion_6),
    (7, "rotation number lists", _criterion_7),
    (8, "derived support-genus intervals", _criterion_8),
    (9, "randomized property suites", _criterion_9),
)


def run_criterion(number: int) -> CriterionResult:
    for num, title, func in CRITERIA:
        if num == number:
            try:
                passed, detail = func()
            except Exception as exc:
                passed, detail = False, f"raised {type(exc).__name__}: {exc}"
            return CriterionResult(number=num, title=title, passed=passed, detail=detail)
    raise ValueError(f"no criterion numbered {number}")


def run_all() -> List[CriterionResult]:
    return [run_criterion(num) for num, _title, _func in CRITERIA]
