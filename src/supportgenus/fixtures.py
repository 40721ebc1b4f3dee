"""Bundled example documents and their builders.

Each bundled JSON file under ``supportgenus/fixtures/`` is generated by
a builder in this module, and the builders recompute every number they
bake into a document: page genera and framings come from the ribbon and
Seifert layers, rotation numbers from the Stein layer, and pigeonhole
counts from the HF layer.  A builder that cannot reproduce its own
numbers fails loudly instead of writing a fixture.

``load_fixture`` reads a bundled file by name; ``build_fixture``
reconstructs the same document in memory; the test suite checks that
the two agree, so the shipped files cannot drift from the builders.
"""

from __future__ import annotations

from functools import partial
from importlib import resources
from pathlib import Path
from typing import Callable, Dict, List, Optional

from .hfbook import hf_hat, hf_plus_surgery, hf_red_rank, pigeonhole_excess, trefoil_rotation_list
from .inputdoc import CurveRecord, InputDocument, InputFormatError, OpenBookRecord, parse_text, serialize_text
from .ribbon import CurveClass, OpenBook, build_surface
from .seifert import page_framing_self_linking
from .sgengine import (
    CLASSIFICATION_AXIOM,
    NONPLANAR_SURGERY,
    ORIENTATION_MIRROR,
    PAGE_WITNESS,
    POSITIVE_TB,
    STABILIZATION_OF,
    LegendrianDesc,
    SGFact,
    stabilized,
    trefoil_mountain_check,
)
from .stein import SteinCurve, SteinProblem, base_rotation_planar, rotation_number


def fig1_torus(k: int) -> InputDocument:
    """A one-holed torus page carrying a (2, 2k+1) torus knot.

    Two interleaved bands: the first with a single negative full twist,
    the second with 2k+1 positive ones, and one negative crossing
    between them.  The diagonal curve through both bands has page
    framing 2k - 1.
    """
    if k < 1:
        raise ValueError(f"k must be at least 1, got {k}")
    surface = build_surface(2, [0, 1, 0, 1], twists=(-1, 2 * k + 1), crossings={(0, 1): -1})
    assert surface.genus == 1 and surface.boundary_components == 1
    curve = CurveClass(surface, (1, 1), traversal=((0, 1), (1, 1)))
    assert page_framing_self_linking(surface, curve) == 2 * k - 1
    doc = InputDocument()
    doc.surfaces["page"] = surface
    doc.curves["K"] = CurveRecord(surface_name="page", curve=curve)
    return doc


def fig3_twist(m: int) -> InputDocument:
    """A planar page presenting a twice-stabilized twist knot.

    m + 2 bands sit side by side; every second band carries one
    negative full twist.  The monodromy twists along the second band
    core and along each consecutive-difference class.  The distinguished
    curve runs once backwards over the second band, has page framing
    -1, and its rotation number computes to 0 through the one rational
    2-cycle of the handle complex.
    """
    if m < 1:
        raise ValueError(f"m must be at least 1, got {m}")
    n = m + 2
    feet = [band for band in range(n) for _ in range(2)]
    twists = tuple(0 if i % 2 == 0 else -1 for i in range(n))
    surface = build_surface(n, feet, twists=twists)
    assert surface.genus == 0 and surface.boundary_components == n + 1

    def unit(i: int, s: int = 1) -> List[int]:
        vec = [0] * n
        vec[i] = s
        return vec

    doc = InputDocument()
    doc.surfaces["page"] = surface

    twist_curves: List[CurveClass] = []
    gamma1 = CurveClass(surface, tuple(unit(1)), traversal=((1, 1),))
    twist_curves.append(gamma1)
    doc.curves["gamma_1"] = CurveRecord("page", gamma1)
    for i in range(2, n + 1):
        coeffs = [0] * n
        coeffs[i - 2] += 1
        coeffs[i - 1] -= 1
        curve = CurveClass(surface, tuple(coeffs), traversal=((i - 2, 1), (i - 1, -1)))
        twist_curves.append(curve)
        doc.curves[f"gamma_{i}"] = CurveRecord("page", curve)
    distinguished = CurveClass(surface, tuple(unit(1, -1)), traversal=((1, -1),))
    doc.curves["K"] = CurveRecord("page", distinguished)
    assert page_framing_self_linking(surface, distinguished) == -1

    doc.open_books["ob"] = OpenBookRecord(
        page_name="page",
        steps=tuple((f"gamma_{i}", 1) for i in range(1, n + 1)),
        book=OpenBook(page=surface, monodromy=tuple((c, 1) for c in twist_curves)),
    )

    handles = tuple(f"x{i}" for i in range(1, n + 1))
    stein_curves: List[SteinCurve] = []
    for name, record in doc.curves.items():
        runs = record.curve.traversal
        stein_curves.append(
            SteinCurve(
                name=name,
                traversal=record.curve.coefficients,
                rotation=base_rotation_planar(runs),
                runs=runs,
            )
        )
    problem = SteinProblem(one_handles=handles, curves=tuple(stein_curves), distinguished=n)
    assert rotation_number(problem).rotation == 0
    doc.stein_problems["rot_K"] = problem
    return doc


def hf_trefoil(n: int) -> InputDocument:
    """The HF module of the large positive surgery with parameter n."""
    module = hf_plus_surgery(n)
    assert hf_hat(module) == (3,) + (1,) * n
    assert hf_red_rank(module) == 1
    assert pigeonhole_excess(len(trefoil_rotation_list(n)), module) == 1
    doc = InputDocument()
    doc.hf_modules["surgery"] = module
    return doc


def thm13_facts() -> InputDocument:
    """Fact bases pinning the support genus of three positive torus knots.

    For each k the page witness and the framing are recomputed from the
    two-band page before being recorded.
    """
    doc = InputDocument()
    facts: List[SGFact] = []
    for k in (1, 2, 3):
        geometry = fig1_torus(k)
        surface = geometry.surfaces["page"]
        curve = geometry.curves["K"].curve
        tb = page_framing_self_linking(surface, curve)
        subject = LegendrianDesc(f"torus(2,{2 * k + 1})", tb=tb, rot=0)
        facts.append(
            SGFact(
                kind=PAGE_WITNESS,
                subject=subject,
                genus=surface.genus,
                note="the knot sits on the two-band page with page framing equal to tb",
            )
        )
        facts.append(SGFact(kind=POSITIVE_TB, subject=subject))
        facts.append(
            SGFact(
                kind=CLASSIFICATION_AXIOM,
                subject=subject,
                note="the tb-maximal representative of this knot type is unique, "
                "so the witness applies to every knot with these invariants",
            )
        )
    doc.facts = tuple(facts)
    return doc


def thm14_facts() -> InputDocument:
    """Fact bases for the twist-knot family: one planar witness each.

    The root has tb 1; the node stabilized once each way matches the
    invariants computed from the planar page, and every doubly
    stabilized descendant inherits its genus-zero upper bound.
    """
    doc = InputDocument()
    facts: List[SGFact] = []
    grid_size = 3
    for m in (1, 2, 3):
        geometry = fig3_twist(m)
        surface = geometry.surfaces["page"]
        curve = geometry.curves["K"].curve
        witness_tb = page_framing_self_linking(surface, curve)
        witness_rot = rotation_number(geometry.stein_problems["rot_K"]).rotation

        grid: Dict[tuple, LegendrianDesc] = {}
        for i in range(grid_size + 1):
            for j in range(grid_size + 1):
                grid[(i, j)] = LegendrianDesc(f"twist({-2 * m})", tb=1 - i - j, rot=i - j)
        facts.append(SGFact(kind=POSITIVE_TB, subject=grid[(0, 0)]))
        for i in range(grid_size + 1):
            for j in range(grid_size + 1):
                if i >= 1:
                    facts.append(
                        SGFact(kind=STABILIZATION_OF, subject=grid[(i, j)], parent=grid[(i - 1, j)], sign=1)
                    )
                if j >= 1:
                    facts.append(
                        SGFact(kind=STABILIZATION_OF, subject=grid[(i, j)], parent=grid[(i, j - 1)], sign=-1)
                    )
        node = grid[(1, 1)]
        assert (witness_tb, witness_rot) == (node.tb, node.rot)
        facts.append(
            SGFact(
                kind=PAGE_WITNESS,
                subject=node,
                genus=surface.genus,
                note="the distinguished curve on the planar page has exactly these invariants",
            )
        )
        facts.append(
            SGFact(
                kind=CLASSIFICATION_AXIOM,
                subject=node,
                note="after one stabilization of each sign the knot is determined "
                "by its classical invariants",
            )
        )
    doc.facts = tuple(facts)
    return doc


def thm15_facts() -> InputDocument:
    """Fact base pinning every stabilization of the maximal trefoil at genus one.

    The upper bound is the genus-one page; the lower bound enters at the
    eighth positive stabilization through a surgery pigeonhole count and
    flows back up the chain, crossing to the negative chain through
    orientation reversal.
    """
    doc = InputDocument()
    geometry = fig1_torus(1)
    surface = geometry.surfaces["page"]
    curve = geometry.curves["K"].curve
    base = LegendrianDesc("torus(2,3)", tb=page_framing_self_linking(surface, curve), rot=0)
    assert base.tb == 1

    facts: List[SGFact] = [
        SGFact(
            kind=PAGE_WITNESS,
            subject=base,
            genus=surface.genus,
            note="the knot sits on the two-band page with page framing equal to tb",
        ),
        SGFact(kind=POSITIVE_TB, subject=base),
    ]
    depth = 8
    plus = [base]
    minus = [base]
    for _ in range(depth):
        child = stabilized(plus[-1], 1)
        facts.append(SGFact(kind=STABILIZATION_OF, subject=child, parent=plus[-1], sign=1))
        plus.append(child)
        child = stabilized(minus[-1], -1)
        facts.append(SGFact(kind=STABILIZATION_OF, subject=child, parent=minus[-1], sign=-1))
        minus.append(child)
    for desc in plus + minus:
        assert trefoil_mountain_check(desc.tb, desc.rot)
    for i in range(2, depth + 1):
        facts.append(
            SGFact(
                kind=ORIENTATION_MIRROR,
                subject=plus[i],
                other=minus[i],
                note="the knot type is invertible, so orientation reversal keeps tb and negates rot",
            )
        )

    deep = plus[depth]
    n = -deep.tb
    module = hf_plus_surgery(n)
    class_count = len(trefoil_rotation_list(n))
    excess = pigeonhole_excess(class_count, module)
    assert excess >= 1 and hf_red_rank(module) >= 1
    assert deep.rot in trefoil_rotation_list(n)
    facts.append(
        SGFact(
            kind=NONPLANAR_SURGERY,
            subject=deep,
            note=f"surgery with parameter {n} has {module.total_towers} towers for "
            f"{class_count} distinct primitive contact classes, excess {excess}",
        )
    )
    doc.hf_modules["surgery"] = module
    doc.facts = tuple(facts)
    return doc


def _builders() -> Dict[str, Callable[[], InputDocument]]:
    table: Dict[str, Callable[[], InputDocument]] = {}
    for k in (1, 2, 3):
        table[f"fig1_torus_k{k}"] = partial(fig1_torus, k)
    for m in range(1, 6):
        table[f"fig3_twist_m{m}"] = partial(fig3_twist, m)
    for n in range(7, 13):
        table[f"hf_trefoil_n{n}"] = partial(hf_trefoil, n)
    table["thm13_facts"] = thm13_facts
    table["thm14_facts"] = thm14_facts
    table["thm15_facts"] = thm15_facts
    return table


BUILDERS = _builders()
FIXTURE_NAMES = tuple(BUILDERS)


def _fixture_key(name: str) -> str:
    key = name.removesuffix(".json")
    if key not in BUILDERS:
        raise InputFormatError("document", f"no fixture named {name!r}; known: {', '.join(FIXTURE_NAMES)}")
    return key


def build_fixture(name: str) -> InputDocument:
    """Reconstruct a bundled fixture in memory, recomputing its numbers."""
    return BUILDERS[_fixture_key(name)]()


def load_fixture(name: str) -> InputDocument:
    """Parse a bundled fixture file by name."""
    text = resources.files("supportgenus").joinpath("fixtures", f"{_fixture_key(name)}.json").read_text()
    return parse_text(text)


def write_fixture_files(directory: Optional[Path] = None) -> List[Path]:
    """Regenerate every bundled fixture file; returns the paths written."""
    if directory is None:
        directory = Path(__file__).resolve().parent / "fixtures"
    directory = Path(directory)
    directory.mkdir(parents=True, exist_ok=True)
    written = []
    for name, builder in BUILDERS.items():
        path = directory / f"{name}.json"
        path.write_text(serialize_text(builder()))
        written.append(path)
    return written
