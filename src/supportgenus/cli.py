"""Command line front end.

Five data commands (``tb``, ``rot``, ``snf``, ``hf``, ``sg-bounds``)
each read one input document and report on every record the relevant
section contains; ``verify-paper`` runs the bundled acceptance suite.
``--input`` accepts a file path, the name of a bundled fixture, or
inline JSON.  ``--format machine`` switches the report to JSON, and
``--out`` writes it to a file instead of standard output.  Each data
command computes one list of machine records; the human report is
rendered from those records.

Exit codes: 0 on success, 1 when a computation or derivation fails
(including failed verify criteria), 2 when the input cannot be read or
parsed or the report cannot be written.
"""

from __future__ import annotations

import argparse
import functools
import sys
from dataclasses import asdict
from pathlib import Path
from typing import Any, Callable, Dict, List, Optional, Sequence, Tuple

from .errors import ToolkitError
from .fixtures import FIXTURE_NAMES, load_fixture
from .hfbook import hf_hat, hf_red_rank
from .inputdoc import InputDocument, InputFormatError, json_text, parse_text
from .ribbon import intersection_form
from .seifert import page_framing_self_linking
from .sgengine import LegendrianDesc, SGInterval, TraceStep, derive_bounds
from .stein import boundary_matrix, format_cycle, rotation_number
from .verify import run_all
from .zlinalg import smith_normal_form

Record = Dict[str, Any]


def _resolve_document(value: str) -> InputDocument:
    # inline JSON first: probing it as a path fails for long documents
    if value.lstrip().startswith("{"):
        return parse_text(value)
    path = Path(value)
    # Path("") is the working directory
    if value and path.exists():
        try:
            text = path.read_text(encoding="utf-8")
        except (OSError, UnicodeDecodeError) as exc:
            raise InputFormatError(value, _reason(exc)) from exc
        return parse_text(text)
    if value.removesuffix(".json") in FIXTURE_NAMES:
        return load_fixture(value)
    raise InputFormatError(
        "document",
        f"{value!r} is not a file, inline JSON, or a bundled fixture "
        f"(bundled: {', '.join(FIXTURE_NAMES)})",
    )


def _reason(exc: Exception) -> str:
    """Why a file could not be read or written, without the path that
    ``str(exc)`` of an OSError repeats."""
    return getattr(exc, "strerror", None) or str(exc)


def _tb_records(doc: InputDocument) -> List[Record]:
    return [
        {
            "curve": name,
            "surface": record.surface_name,
            "tb": page_framing_self_linking(doc.surfaces[record.surface_name], record.curve),
        }
        for name, record in doc.curves.items()
    ]


def _rot_records(doc: InputDocument) -> List[Record]:
    results = []
    for name, problem in doc.stein_problems.items():
        outcome = rotation_number(problem)
        results.append(
            {
                "problem": name,
                "rotation": outcome.rotation,
                "cycle": list(outcome.cycle),
                "formatted": format_cycle(problem, outcome.cycle),
                "base_rotations": list(outcome.c1),
            }
        )
    return results


def _snf_records(doc: InputDocument) -> List[Record]:
    matrices = [(f"intersection({name})", intersection_form(surface)) for name, surface in doc.surfaces.items()]
    matrices += [(f"boundary({name})", boundary_matrix(problem)) for name, problem in doc.stein_problems.items()]
    results = []
    for label, matrix in matrices:
        snf = smith_normal_form(matrix)
        results.append(
            {
                "matrix": label,
                "rows": matrix.rows,
                "cols": matrix.cols,
                "rank": snf.rank,
                "diagonal": list(snf.diagonal),
                "kernel_rank": matrix.cols - snf.rank,
            }
        )
    return results


def _hf_records(doc: InputDocument) -> List[Record]:
    return [
        {
            "module": name,
            "spinc_count": module.spinc_count,
            "hat_ranks": list(hf_hat(module)),
            "red_rank": hf_red_rank(module),
            "total_towers": module.total_towers,
        }
        for name, module in doc.hf_modules.items()
    ]


def _sg_bounds_records(doc: InputDocument) -> List[Record]:
    return [
        {
            "type": desc.topo_type,
            "tb": desc.tb,
            "rot": desc.rot,
            "lo": interval.lo,
            "hi": interval.hi,
            "trace": [
                {"rule": rule, "bound": bound, "value": value, "reason": reason}
                for rule, bound, value, reason in interval.trace
            ],
        }
        for desc, interval in derive_bounds(doc.facts).items()
    ]


def _table(headers: Sequence[str], row: Callable[[Record], Sequence[str]]) -> Callable[[List[Record]], str]:
    def render(records: List[Record]) -> str:
        rows = [row(r) for r in records]
        widths = [max([len(h)] + [len(cells[i]) for cells in rows]) for i, h in enumerate(headers)]
        lines = ["  ".join(h.ljust(w) for h, w in zip(headers, widths)).rstrip()]
        for cells in rows:
            lines.append("  ".join(cell.ljust(w) for cell, w in zip(cells, widths)).rstrip())
        return "\n".join(lines) + "\n"

    return render


def _sg_bounds_lines(records: List[Record]) -> str:
    # rebuilt so the lines are formatted by sgengine, not by a copy here
    lines = []
    for r in records:
        desc = LegendrianDesc(r["type"], r["tb"], r["rot"])
        lines.append(f"{desc.label()}: {SGInterval(r['lo'], r['hi'])}")
        lines.extend(f"  {TraceStep(**step)}" for step in r["trace"])
    return "\n".join(lines) + "\n"


def _joined(values: Sequence[int]) -> str:
    return ", ".join(map(str, values))


# command -> (machine records of a document, what an empty report lacks,
# human report of nonempty records)
_COMMANDS: Dict[str, Tuple[Callable[[InputDocument], List[Record]], str, Callable[[List[Record]], str]]] = {
    "tb": (
        _tb_records,
        "curves",
        _table(("curve", "surface", "tb"), lambda r: [r["curve"], r["surface"], str(r["tb"])]),
    ),
    "rot": (
        _rot_records,
        "stein problems",
        _table(("problem", "rotation", "cycle"), lambda r: [r["problem"], str(r["rotation"]), r["formatted"]]),
    ),
    "snf": (
        _snf_records,
        "matrices",
        _table(
            ("matrix", "size", "rank", "diagonal", "kernel rank"),
            lambda r: [
                r["matrix"],
                f"{r['rows']}x{r['cols']}",
                str(r["rank"]),
                _joined(r["diagonal"]) or "-",
                str(r["kernel_rank"]),
            ],
        ),
    ),
    "hf": (
        _hf_records,
        "hf modules",
        _table(
            ("module", "slots", "hat ranks", "reduced rank", "towers"),
            lambda r: [
                r["module"],
                str(r["spinc_count"]),
                _joined(r["hat_ranks"]),
                str(r["red_rank"]),
                str(r["total_towers"]),
            ],
        ),
    ),
    "sg-bounds": (_sg_bounds_records, "facts", _sg_bounds_lines),
}


def _cmd_verify() -> Tuple[str, dict, int]:
    outcomes = run_all()
    lines = [result.line() for result in outcomes]
    passed = sum(1 for r in outcomes if r.passed)
    lines.append(f"verify-paper: {passed}/{len(outcomes)} criteria passed")
    machine = {
        "command": "verify-paper",
        "results": [asdict(r) for r in outcomes],
        "all_passed": passed == len(outcomes),
    }
    return "\n".join(lines) + "\n", machine, 0 if passed == len(outcomes) else 1


@functools.cache
def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="supportgenus",
        description="exact computations on open book pages, framings, and support-genus bounds",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    output = argparse.ArgumentParser(add_help=False)
    output.add_argument("--format", choices=("human", "machine"), default="human", help="report format")
    output.add_argument("--out", metavar="PATH", default=None, help="write the report to a file")
    needs_input = argparse.ArgumentParser(add_help=False, parents=[output])
    needs_input.add_argument(
        "--input",
        required=True,
        metavar="DOC",
        help="input document: a file path, a bundled fixture name, or inline JSON",
    )

    sub.add_parser("tb", parents=[needs_input], help="page framing of every declared curve")
    sub.add_parser("rot", parents=[needs_input], help="rotation number of every stein problem")
    sub.add_parser("snf", parents=[needs_input], help="Smith data of the document's matrices")
    sub.add_parser("hf", parents=[needs_input], help="rank summary of every hf module")
    sub.add_parser("sg-bounds", parents=[needs_input], help="derived support-genus intervals with traces")
    sub.add_parser("verify-paper", parents=[output], help="run the bundled acceptance suite")
    return parser


def main(argv: Optional[Sequence[str]] = None) -> int:
    args = _build_parser().parse_args(argv)
    try:
        if args.command == "verify-paper":
            text, machine, code = _cmd_verify()
        else:
            records, empty, render = _COMMANDS[args.command]
            results = records(_resolve_document(args.input))
            machine, code = {"command": args.command, "results": results}, 0
    except InputFormatError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except ToolkitError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    if args.format == "machine":
        report = json_text(machine) + "\n"
    elif args.command == "verify-paper":
        report = text
    else:
        report = render(results) if results else f"no {empty} in document\n"
    if args.out:
        try:
            Path(args.out).write_text(report, encoding="utf-8")
        except OSError as exc:
            print(f"error: {args.out}: {_reason(exc)}", file=sys.stderr)
            return 2
    else:
        sys.stdout.write(report)
    return code


def console() -> None:
    sys.exit(main())
