"""Traced replay of CLI ops, for the per-layer metrics.

Spans are recorded from outside the package, around calls to each
layer's public functions on the same inputs a command receives; nothing
inside the package is patched.  A span is (name, start, end, parent
span, op id, mirrored), where ``mirrored`` marks the calls ``cli.main``
itself makes.  The other spans time a piece of work again on its own:
``ribbon.build`` because parsing contains it, ``seifert.matrix`` because
``page_framing_self_linking`` contains it, ``zlinalg.kernel`` because
``rotation_number`` contains it, and the parse of a fixture's text
because ``load_fixture`` contains it.  ``cli.report`` times the
``json.dumps`` of the op's own machine report, as ``cli.main`` makes it.
"""

from __future__ import annotations

import json
import time
from collections import Counter, defaultdict
from contextlib import contextmanager, nullcontext
from pathlib import Path
from typing import Dict, List, Sequence

from supportgenus.errors import ToolkitError
from supportgenus.fixtures import load_fixture
from supportgenus.hfbook import hf_hat, hf_red_rank
from supportgenus.inputdoc import InputDocument, parse_text
from supportgenus.ribbon import build_surface
from supportgenus.seifert import page_framing_self_linking, seifert_matrix
from supportgenus.sgengine import derive_bounds
from supportgenus.stein import KernelAmbiguityError, boundary_matrix, rotation_number
from supportgenus.verify import CRITERIA, run_criterion
from supportgenus.zlinalg import IntMatrix, kernel_basis, smith_normal_form

NAME, START, END, PARENT, OP, MIRRORED = range(6)


class Tracer:
    """Spans and counters kept in memory until the run ends."""

    def __init__(self):
        self.spans: List[list] = []
        self.counts: Counter = Counter()
        self.op = -1
        self._stack: List[int] = []

    @contextmanager
    def span(self, name: str, mirrored: bool = True):
        record = [name, 0.0, 0.0, self._stack[-1] if self._stack else None, self.op, mirrored]
        self._stack.append(len(self.spans))
        self.spans.append(record)
        record[START] = time.perf_counter()
        try:
            yield
        finally:
            record[END] = time.perf_counter()
            self._stack.pop()

    def add(self, name: str, value: int) -> None:
        self.counts[name] += value

    def peak(self, name: str, value: int) -> None:
        self.counts[name] = max(self.counts[name], value)

    def write(self, path: Path) -> None:
        covered = defaultdict(float)
        for s in self.spans:
            if s[PARENT] is not None:
                covered[s[PARENT]] += s[END] - s[START]
        rows = [
            {"name": s[NAME], "start": s[START], "end": s[END], "parent": s[PARENT], "op": s[OP],
             "mirrored": s[MIRRORED], "self": s[END] - s[START] - covered[i]}
            for i, s in enumerate(self.spans)
        ]
        path.write_text(json.dumps({"spans": rows, "counts": dict(self.counts)}))


class Untraced:
    """The same calls with no spans and no counters."""

    def span(self, name: str, mirrored: bool = True):
        return nullcontext()

    def add(self, name: str, value: int) -> None:
        pass

    def peak(self, name: str, value: int) -> None:
        pass


def _bits(rows) -> int:
    return max((abs(x).bit_length() for row in rows for x in row), default=0)


def _tb(doc: InputDocument, tr) -> None:
    for name, surface in doc.surfaces.items():
        curves = [r.curve for r in doc.curves.values() if r.surface_name == name]
        if not curves:
            continue
        with tr.span("ribbon.build", mirrored=False):
            build_surface(surface.band_count, surface.feet_order, surface.twists, dict(surface.crossings))
        tr.add("ribbon.bands", surface.band_count)
        with tr.span("seifert.matrix", mirrored=False):
            seifert_matrix(surface)
        for curve in curves:
            with tr.span("seifert.tb"):
                page_framing_self_linking(surface, curve)


def _rot(doc: InputDocument, tr) -> None:
    for problem in doc.stein_problems.values():
        matrix = boundary_matrix(problem)
        with tr.span("zlinalg.kernel", mirrored=False):
            basis = kernel_basis(matrix)
        tr.peak("zlinalg.kernel_bits_max", _bits(basis))
        try:
            with tr.span("stein.rotation"):
                rotation_number(problem)
        except KernelAmbiguityError:
            tr.add("stein.ambiguous_ops", 1)
            return
        except ToolkitError:
            return


def _snf(doc: InputDocument, tr) -> None:
    matrices = [IntMatrix(s.intersection, cols=s.band_count) for s in doc.surfaces.values()]
    matrices += [boundary_matrix(p) for p in doc.stein_problems.values()]
    for matrix in matrices:
        with tr.span("zlinalg.snf"):
            snf = smith_normal_form(matrix)
        tr.peak("zlinalg.transform_bits_max", max(_bits(snf.U.data), _bits(snf.V.data)))


def _hf(doc: InputDocument, tr) -> None:
    for module in doc.hf_modules.values():
        with tr.span("hfbook"):
            hf_hat(module)
            hf_red_rank(module)


def _sg(doc: InputDocument, tr) -> None:
    try:
        with tr.span("sgengine.derive"):
            base = doc.fact_base()
            bounds = derive_bounds(base)
    except ToolkitError:
        return
    tr.add("sgengine.facts", len(base))
    tr.add("sgengine.descriptors", len(bounds))
    tr.add("sgengine.trace_steps", sum(len(interval.trace) for interval in bounds.values()))


LAYER_CALLS = {"tb": _tb, "rot": _rot, "snf": _snf, "hf": _hf, "sg-bounds": _sg}


def replay(argv: Sequence[str], out: str, tr, fixture_dir: Path) -> None:
    """The layer calls ``cli.main(argv)`` makes, under one ``op`` span;
    ``out`` is what ``main`` printed for the op."""
    with tr.span("op", mirrored=False):
        _layers(argv, tr, fixture_dir)
        if out:
            report = json.loads(out)
            with tr.span("cli.report"):
                json.dumps(report, indent=2)


def _layers(argv: Sequence[str], tr, fixture_dir: Path) -> None:
    if argv[0] == "verify-paper":
        for number, _title, _check in CRITERIA:
            with tr.span("verify.criterion9" if number == 9 else "verify.other"):
                run_criterion(number)
        return
    source = argv[list(argv).index("--input") + 1]
    try:
        if source.startswith("{"):
            text = source
            with tr.span("inputdoc.parse"):
                doc = parse_text(text)
        else:
            text = (fixture_dir / f"{source}.json").read_text()
            with tr.span("fixtures.load"):
                doc = load_fixture(source)
            with tr.span("inputdoc.parse", mirrored=False):
                parse_text(text)
    except ToolkitError:
        return
    tr.add("inputdoc.parse_bytes", len(text.encode()))
    LAYER_CALLS[argv[0]](doc, tr)


def layer_metrics(tracer: Tracer, untraced_seconds: float) -> Dict[str, float]:
    """Per-layer totals over the traced ops."""
    total: Dict[str, float] = defaultdict(float)
    tb_by_op: Counter = Counter()
    matrix_by_op: Dict[int, float] = defaultdict(float)
    fixture_parse = 0.0
    for s in tracer.spans:
        name, seconds, op = s[NAME], s[END] - s[START], s[OP]
        total[name] += seconds
        if name == "inputdoc.parse" and not s[MIRRORED]:
            fixture_parse += seconds
        if name == "seifert.tb":
            tb_by_op[op] += 1
        elif name == "seifert.matrix":
            matrix_by_op[op] += seconds
    rebuild_base = sum(calls * matrix_by_op[op] for op, calls in tb_by_op.items())
    c = tracer.counts
    return {
        "zlinalg.snf_s": total["zlinalg.snf"],
        "zlinalg.snf_calls": sum(1 for s in tracer.spans if s[NAME] == "zlinalg.snf"),
        "zlinalg.transform_bits_max": c["zlinalg.transform_bits_max"],
        "zlinalg.kernel_s": total["zlinalg.kernel"],
        "zlinalg.kernel_bits_max": c["zlinalg.kernel_bits_max"],
        "stein.rotation_s": total["stein.rotation"],
        "stein.rotation_self_s": total["stein.rotation"] - total["zlinalg.kernel"],
        "stein.ambiguous_ops": c["stein.ambiguous_ops"],
        "sgengine.derive_s": total["sgengine.derive"],
        "sgengine.facts": c["sgengine.facts"],
        "sgengine.descriptors": c["sgengine.descriptors"],
        "sgengine.trace_steps": c["sgengine.trace_steps"],
        "inputdoc.parse_s": total["inputdoc.parse"],
        "inputdoc.parse_bytes": c["inputdoc.parse_bytes"],
        "ribbon.build_s": total["ribbon.build"],
        "ribbon.bands": c["ribbon.bands"],
        "seifert.tb_s": total["seifert.tb"],
        "seifert.matrix_s": total["seifert.matrix"],
        "seifert.tb_calls": sum(tb_by_op.values()),
        "seifert.rebuild_ratio": total["seifert.tb"] / rebuild_base,
        "hfbook.s": total["hfbook"],
        "fixtures.load_s": total["fixtures.load"],
        "fixtures.load_self_s": total["fixtures.load"] - fixture_parse,
        "verify.criterion9_s": total["verify.criterion9"],
        "verify.other_s": total["verify.other"],
        "cli.report_s": total["cli.report"],
        "trace.overhead_ratio": total["op"] / untraced_seconds,
    }
