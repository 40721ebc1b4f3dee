"""The structured input format: JSON documents describing pages, curves,
open books, Stein problems, HF modules, and fact bases.

A document is a single JSON object with up to six sections, each a list
of keyed records.  Band and one-handle labels are 1-based in files and
0-based in memory.  Unknown keys are rejected everywhere, and every
diagnostic names the offending section, index, and field.

A valid document builds no such location: each value is first tested
in bulk or by exact type (``type(x) is int``, ``set(map(type, xs)) <=
{int}``), and only a value that fails that test is walked again by the
located checks, which raise with the first offender's location, or
accept it when it is merely a subclass or a non-dict mapping.

Annotated example::

    {
      "surfaces": [
        {"name": "page",
         "feet_order": [1, 2, 1, 2],          // two bands, interleaved feet
         "twists": [-1, 3],                   // full twists per band
         "crossings": [{"bands": [1, 2], "count": -1}]}
      ],
      "curves": [
        {"name": "K", "surface": "page",
         "coefficients": [1, 1],
         "traversal": [[1, 1], [2, 1]]}       // signed band runs, optional
      ],
      "open_books": [
        {"name": "ob", "page": "page",
         "monodromy": [{"curve": "K", "sign": 1}]}
      ],
      "stein_problems": [
        {"name": "prob",
         "one_handles": ["x1", "x2"],
         "distinguished": "K",
         "curves": [
           {"name": "K", "runs": [[1, 1], [2, 1]]},       // rotation derived
           {"name": "g1", "traversal": [1, 0], "rotation": 0}  // or explicit
         ]}
      ],
      "hf_modules": [
        {"name": "big", "trefoil_surgery": 7},           // or explicit slots:
        {"name": "custom", "slots": [{"towers": 1, "finite_z": 1}]}
      ],
      "facts": [
        {"kind": "page-witness", "genus": 1,
         "subject": {"type": "T(2,3)", "tb": 1, "rot": 0}}
      ]
    }

(JSON itself has no comments; the ``//`` remarks above are annotation
only.)  Parsing and serialization are inverse on documents: parse,
serialize, parse again and the two documents compare equal.
"""

from __future__ import annotations

import json
from dataclasses import dataclass, field
from json.encoder import encode_basestring_ascii
from typing import Dict, List, Mapping, Optional, Sequence, Tuple

from .errors import ToolkitError
from .hfbook import FormalHFModule, SpincSlot, hf_plus_surgery
from .ribbon import CurveClass, OpenBook, RibbonSurface
from .sgengine import (
    FACT_KINDS,
    ORIENTATION_MIRROR,
    PAGE_WITNESS,
    STABILIZATION_OF,
    LegendrianDesc,
    SGFact,
    SGFactBase,
)
from .stein import SteinCurve, SteinProblem, base_rotation_planar


class InputFormatError(ToolkitError):
    """The input document is syntactically or semantically malformed."""

    def __init__(self, location: str, message: str):
        self.location = location
        self.message = message
        super().__init__(f"{location}: {message}" if location else message)


@dataclass(frozen=True)
class CurveRecord:
    """A declared curve plus the name of the page it lives on."""

    surface_name: str
    curve: CurveClass


@dataclass(frozen=True)
class OpenBookRecord:
    """A declared open book plus the names its monodromy was written with."""

    page_name: str
    steps: Tuple[Tuple[str, int], ...]
    book: OpenBook


@dataclass
class InputDocument:
    """A fully resolved input document.

    Sections keep file order; every cross-reference has been resolved
    to the actual object.
    """

    surfaces: Dict[str, RibbonSurface] = field(default_factory=dict)
    curves: Dict[str, CurveRecord] = field(default_factory=dict)
    open_books: Dict[str, OpenBookRecord] = field(default_factory=dict)
    stein_problems: Dict[str, SteinProblem] = field(default_factory=dict)
    hf_modules: Dict[str, FormalHFModule] = field(default_factory=dict)
    facts: Tuple[SGFact, ...] = ()

    def fact_base(self) -> SGFactBase:
        return SGFactBase(self.facts)


def _fail(location: str, message: str) -> None:
    raise InputFormatError(location, message)


# The _expect_* checks are the located ones.  Parsing calls them only
# after a quick ``type(x) is ...`` test has failed, so a valid document
# builds no location string; they still accept whatever that test is too
# strict for (a non-dict Mapping, a subclass of int, list or str).


def _expect_mapping(value, location: str) -> Mapping:
    if not isinstance(value, Mapping):
        _fail(location, f"expected an object, got {type(value).__name__}")
    return value


def _expect_list(value, location: str) -> list:
    if not isinstance(value, list):
        _fail(location, f"expected a list, got {type(value).__name__}")
    return value


def _expect_str(value, location: str) -> str:
    if not isinstance(value, str):
        _fail(location, f"expected a string, got {type(value).__name__}")
    return value


def _expect_int(value, location: str) -> int:
    # bool is a subclass of int and must not slip through.
    if not isinstance(value, int) or isinstance(value, bool):
        _fail(location, f"expected an integer, got {value!r}")
    return value


def _expect_sign(value, location: str) -> int:
    n = _expect_int(value, location)
    if n not in (1, -1):
        _fail(location, f"expected +1 or -1, got {n}")
    return n


def _expect_int_list(value, location: str) -> List[int]:
    return [_expect_int(v, f"{location}[{i}]") for i, v in enumerate(_expect_list(value, location))]


def _expect_str_list(value, location: str) -> List[str]:
    return [_expect_str(v, f"{location}[{i}]") for i, v in enumerate(_expect_list(value, location))]


_ABSENT = object()


class _Record:
    """One record of a section, with typed takes and unknown-key rejection
    on close.  A take with ``required=False`` reads a null value as absent."""

    __slots__ = ("location", "data")

    def __init__(self, raw, location: str):
        self.location = location
        self.data = dict(raw if type(raw) is dict else _expect_mapping(raw, location))

    def take(self, key: str, required: bool = False):
        value = self.data.pop(key, _ABSENT)
        if value is _ABSENT:
            if required:
                _fail(self.location, f"missing required field {key!r}")
            return None
        return value

    def str(self, key: str, required: bool = True):
        value = self.take(key, required)
        if type(value) is str or (value is None and not required):
            return value
        return _expect_str(value, self.at(key))

    def int(self, key: str, required: bool = True):
        value = self.take(key, required)
        if type(value) is int or (value is None and not required):
            return value
        return _expect_int(value, self.at(key))

    def sign(self, key: str, required: bool = True):
        value = self.take(key, required)
        if (type(value) is int and (value == 1 or value == -1)) or (value is None and not required):
            return value
        return _expect_sign(value, self.at(key))

    def list(self, key: str, required: bool = True):
        value = self.take(key, required)
        if type(value) is list or (value is None and not required):
            return value
        return _expect_list(value, self.at(key))

    def ints(self, key: str, required: bool = True):
        value = self.take(key, required)
        if (type(value) is list and set(map(type, value)) <= {int}) or (value is None and not required):
            return value
        return _expect_int_list(value, self.at(key))

    def strs(self, key: str, required: bool = True):
        value = self.take(key, required)
        if (type(value) is list and set(map(type, value)) <= {str}) or (value is None and not required):
            return value
        return _expect_str_list(value, self.at(key))

    def close(self) -> None:
        if self.data:
            extra = ", ".join(sorted(map(repr, self.data)))
            _fail(self.location, f"unknown field(s) {extra}")

    def at(self, key: str) -> str:
        return f"{self.location}.{key}"


def _unique_name(rec: _Record, taken: Mapping[str, object]) -> str:
    name = rec.str("name")
    if name in taken:
        _fail(rec.at("name"), f"duplicate name {name!r}")
    return name


def _signed_word(value, location: str) -> Tuple[Tuple[int, int], ...]:
    """Parse [[label, sign], ...] with 1-based labels into 0-based pairs."""
    word = []
    for i, entry in enumerate(_expect_list(value, location)):
        if type(entry) is list and len(entry) == 2:
            label, sign = entry
            if type(label) is int and type(sign) is int and label >= 1 and (sign == 1 or sign == -1):
                word.append((label - 1, sign))
                continue
        here = f"{location}[{i}]"
        pair = _expect_list(entry, here)
        if len(pair) != 2:
            _fail(here, f"expected a [label, sign] pair, got {len(pair)} entries")
        label = _expect_int(pair[0], f"{here}[0]")
        if label < 1:
            _fail(f"{here}[0]", f"labels are 1-based, got {label}")
        sign = _expect_sign(pair[1], f"{here}[1]")
        word.append((label - 1, sign))
    return tuple(word)


def _crossings(entries: list, location: str, n: int) -> Dict[Tuple[int, int], int]:
    """Crossing entries as {(i, j): count} with 0-based i <= j.  An entry
    that fails the quick test goes through the located :func:`_crossing`."""
    crossings: Dict[Tuple[int, int], int] = {}
    for i, entry in enumerate(entries):
        if type(entry) is dict and len(entry) == 2:
            bands, count = entry.get("bands"), entry.get("count")
            if type(bands) is list and len(bands) == 2 and type(count) is int:
                a, b = bands
                if type(a) is int and type(b) is int and 0 < a <= n and 0 < b <= n:
                    key = (a - 1, b - 1) if a <= b else (b - 1, a - 1)
                    if key not in crossings:
                        crossings[key] = count
                        continue
        key, count = _crossing(_Record(entry, f"{location}[{i}]"), n, crossings)
        crossings[key] = count
    return crossings


def _crossing(sub: _Record, n: int, seen) -> Tuple[Tuple[int, int], int]:
    """The located check of one crossing entry: raises on the first fault,
    or returns (pair, count) when only a subclass failed the quick test."""
    bands = sub.ints("bands")
    count = sub.int("count")
    sub.close()
    if len(bands) != 2:
        _fail(sub.at("bands"), f"expected two band labels, got {len(bands)}")
    a, b = bands
    if not (1 <= a <= n and 1 <= b <= n):
        _fail(sub.at("bands"), f"band pair {bands} must name bands in 1..{n}")
    key = (min(a, b) - 1, max(a, b) - 1)
    if key in seen:
        _fail(sub.at("bands"), f"band pair {bands} listed twice")
    return key, count


def _parse_surface(rec: _Record) -> RibbonSurface:
    feet_raw = rec.ints("feet_order")
    if len(feet_raw) % 2:
        _fail(rec.at("feet_order"), f"odd number of feet ({len(feet_raw)})")
    n = len(feet_raw) // 2
    if feet_raw and not (1 <= min(feet_raw) and max(feet_raw) <= n):
        for i, label in enumerate(feet_raw):
            if not 1 <= label <= n:
                _fail(f"{rec.at('feet_order')}[{i}]", f"band label {label} outside 1..{n}")
    feet = [f - 1 for f in feet_raw]
    twists = rec.ints("twists", required=False)
    entries = rec.list("crossings", required=False)
    crossings = _crossings(entries, rec.at("crossings"), n) if entries is not None else {}
    rec.close()
    try:
        return RibbonSurface(n, feet, twists, crossings)
    except ToolkitError as exc:
        raise InputFormatError(rec.location, str(exc)) from exc


def _parse_curve(rec: _Record, surfaces: Mapping[str, RibbonSurface]) -> CurveRecord:
    surface_name = rec.str("surface")
    if surface_name not in surfaces:
        _fail(rec.at("surface"), f"dangling reference: no surface named {surface_name!r}")
    surface = surfaces[surface_name]
    coefficients = tuple(rec.ints("coefficients"))
    traversal_raw = rec.take("traversal")
    traversal = None
    if traversal_raw is not None:
        traversal = _signed_word(traversal_raw, rec.at("traversal"))
    rec.close()
    try:
        curve = CurveClass(surface, coefficients, traversal)
    except ToolkitError as exc:
        raise InputFormatError(rec.location, str(exc)) from exc
    return CurveRecord(surface_name=surface_name, curve=curve)


def _parse_open_book(rec: _Record, surfaces, curves) -> OpenBookRecord:
    page_name = rec.str("page")
    if page_name not in surfaces:
        _fail(rec.at("page"), f"dangling reference: no surface named {page_name!r}")
    steps: List[Tuple[str, int]] = []
    word: List[Tuple[CurveClass, int]] = []
    for i, entry in enumerate(rec.list("monodromy", required=False) or ()):
        sub = _Record(entry, f"{rec.at('monodromy')}[{i}]")
        curve_name = sub.str("curve")
        sign = sub.sign("sign")
        sub.close()
        if curve_name not in curves:
            _fail(sub.at("curve"), f"dangling reference: no curve named {curve_name!r}")
        steps.append((curve_name, sign))
        word.append((curves[curve_name].curve, sign))
    rec.close()
    try:
        book = OpenBook(page=surfaces[page_name], monodromy=tuple(word))
    except (ToolkitError, ValueError) as exc:
        raise InputFormatError(rec.location, str(exc)) from exc
    return OpenBookRecord(page_name=page_name, steps=tuple(steps), book=book)


def _parse_stein_curve(rec: _Record, p: int) -> SteinCurve:
    name = rec.str("name")
    runs_raw = rec.take("runs")
    runs: Optional[Tuple[Tuple[int, int], ...]] = None
    if runs_raw is not None:
        runs = _signed_word(runs_raw, rec.at("runs"))
        for i, (handle, _sign) in enumerate(runs):
            if handle >= p:
                _fail(f"{rec.at('runs')}[{i}][0]", f"one-handle label {handle + 1} outside 1..{p}")
    traversal_raw = rec.ints("traversal", required=False)
    if traversal_raw is not None:
        traversal = tuple(traversal_raw)
        if len(traversal) != p:
            _fail(rec.at("traversal"), f"traversal vector has length {len(traversal)}, expected {p}")
    elif runs is not None:
        totals = [0] * p
        for handle, sign in runs:
            totals[handle] += sign
        traversal = tuple(totals)
    else:
        _fail(rec.location, f"curve {name!r} needs a traversal vector or a runs word")

    rotation = rec.int("rotation", required=False)
    if rotation is None:
        if runs is None:
            _fail(
                rec.location,
                f"curve {name!r} has neither a runs word nor an explicit rotation; "
                "the homology class alone does not determine the base rotation",
            )
        rotation = base_rotation_planar(runs)

    twist_sign = rec.sign("twist_sign", required=False)
    rec.close()
    return SteinCurve(
        name=name, traversal=traversal, rotation=rotation, runs=runs, twist_sign=1 if twist_sign is None else twist_sign
    )


def _parse_stein_problem(rec: _Record) -> SteinProblem:
    one_handles = tuple(rec.strs("one_handles"))
    distinguished_name = rec.str("distinguished")
    curves: List[SteinCurve] = []
    for i, entry in enumerate(rec.list("curves")):
        curves.append(_parse_stein_curve(_Record(entry, f"{rec.at('curves')}[{i}]"), len(one_handles)))
    names = [c.name for c in curves]
    if distinguished_name not in names:
        _fail(rec.at("distinguished"), f"dangling reference: no curve named {distinguished_name!r}")
    rec.close()
    try:
        return SteinProblem(
            one_handles=one_handles,
            curves=tuple(curves),
            distinguished=names.index(distinguished_name),
        )
    except (ToolkitError, ValueError) as exc:
        raise InputFormatError(rec.location, str(exc)) from exc


def _parse_hf_module(rec: _Record) -> FormalHFModule:
    slots_raw = rec.take("slots")
    surgery_raw = rec.take("trefoil_surgery")
    if (slots_raw is None) == (surgery_raw is None):
        _fail(rec.location, "give exactly one of 'slots' and 'trefoil_surgery'")
    rec.close()
    if surgery_raw is not None:
        n = _expect_int(surgery_raw, rec.at("trefoil_surgery"))
        try:
            return hf_plus_surgery(n)
        except ToolkitError as exc:
            raise InputFormatError(rec.at("trefoil_surgery"), str(exc)) from exc
    slots: List[SpincSlot] = []
    for i, entry in enumerate(_expect_list(slots_raw, rec.at("slots"))):
        sub = _Record(entry, f"{rec.at('slots')}[{i}]")
        towers = sub.int("towers")
        finite_z = sub.int("finite_z")
        sub.close()
        try:
            slots.append(SpincSlot(towers=towers, finite_z=finite_z))
        except ValueError as exc:
            raise InputFormatError(sub.location, str(exc)) from exc
    return FormalHFModule(slots=tuple(slots))


def _descriptor(rec: _Record, key: str) -> LegendrianDesc:
    raw = rec.take(key, required=True)
    if type(raw) is dict and len(raw) == 3:
        topo_type, tb, rot = raw.get("type"), raw.get("tb"), raw.get("rot")
        if type(topo_type) is str and type(tb) is int and type(rot) is int:
            return LegendrianDesc(topo_type=topo_type, tb=tb, rot=rot)
    sub = _Record(raw, rec.at(key))
    topo_type = sub.str("type")
    tb = sub.int("tb")
    rot = sub.int("rot")
    tags = sub.strs("tags", required=False)
    sub.close()
    return LegendrianDesc(topo_type=topo_type, tb=tb, rot=rot, tags=() if tags is None else tuple(tags))


def _parse_fact(rec: _Record) -> SGFact:
    kind = rec.str("kind")
    if kind not in FACT_KINDS:
        _fail(rec.at("kind"), f"unknown fact kind {kind!r}; known kinds: {', '.join(FACT_KINDS)}")
    subject = _descriptor(rec, "subject")
    genus = parent = sign = other = None
    if kind == PAGE_WITNESS:
        genus = rec.int("genus")
    elif kind == STABILIZATION_OF:
        parent = _descriptor(rec, "parent")
        sign = rec.sign("sign")
    elif kind == ORIENTATION_MIRROR:
        other = _descriptor(rec, "other")
    note = rec.str("note", required=False)
    rec.close()
    try:
        return SGFact(
            kind=kind, subject=subject, genus=genus, parent=parent, sign=sign, other=other, note=note or ""
        )
    except ToolkitError as exc:
        raise InputFormatError(rec.location, str(exc)) from exc


def _section(top: _Record, name: str) -> list:
    raw = top.take(name)
    if type(raw) is list:
        return raw
    return [] if raw is None else _expect_list(raw, name)


def parse_dict(data: Mapping) -> InputDocument:
    """Resolve a decoded JSON object into an :class:`InputDocument`."""
    top = _Record(data, "document")
    doc = InputDocument()

    for i, entry in enumerate(_section(top, "surfaces")):
        rec = _Record(entry, f"surfaces[{i}]")
        name = _unique_name(rec, doc.surfaces)
        doc.surfaces[name] = _parse_surface(rec)

    for i, entry in enumerate(_section(top, "curves")):
        rec = _Record(entry, f"curves[{i}]")
        name = _unique_name(rec, doc.curves)
        doc.curves[name] = _parse_curve(rec, doc.surfaces)

    for i, entry in enumerate(_section(top, "open_books")):
        rec = _Record(entry, f"open_books[{i}]")
        name = _unique_name(rec, doc.open_books)
        doc.open_books[name] = _parse_open_book(rec, doc.surfaces, doc.curves)

    for i, entry in enumerate(_section(top, "stein_problems")):
        rec = _Record(entry, f"stein_problems[{i}]")
        name = _unique_name(rec, doc.stein_problems)
        doc.stein_problems[name] = _parse_stein_problem(rec)

    for i, entry in enumerate(_section(top, "hf_modules")):
        rec = _Record(entry, f"hf_modules[{i}]")
        name = _unique_name(rec, doc.hf_modules)
        doc.hf_modules[name] = _parse_hf_module(rec)

    facts: List[SGFact] = []
    for i, entry in enumerate(_section(top, "facts")):
        facts.append(_parse_fact(_Record(entry, f"facts[{i}]")))
    doc.facts = tuple(facts)

    top.close()
    return doc


def parse_text(text: str) -> InputDocument:
    """Parse a JSON document from a string."""
    try:
        data = json.loads(text)
    except json.JSONDecodeError as exc:
        raise InputFormatError(f"line {exc.lineno}, column {exc.colno}", f"not valid JSON: {exc.msg}") from exc
    except RecursionError as exc:
        raise InputFormatError("document", "nested too deeply to parse") from exc
    except ValueError as exc:
        # json converts integer literals with int(), which refuses
        # literals longer than the interpreter's digit limit
        raise InputFormatError("document", "an integer literal has too many digits") from exc
    if type(data) is not dict:
        raise InputFormatError("document", f"top level must be an object, got {type(data).__name__}")
    return parse_dict(data)


def _serialize_word(word: Sequence[Tuple[int, int]]) -> List[List[int]]:
    return [[label + 1, sign] for label, sign in word]


def _serialize_descriptor(desc: LegendrianDesc) -> dict:
    out = {"type": desc.topo_type, "tb": desc.tb, "rot": desc.rot}
    if desc.tags:
        out["tags"] = list(desc.tags)
    return out


def serialize(doc: InputDocument) -> dict:
    """The JSON-ready dict form of a document; inverse to :func:`parse_dict`."""
    out: dict = {}
    if doc.surfaces:
        out["surfaces"] = []
        for name, surface in doc.surfaces.items():
            rec: dict = {"name": name, "feet_order": [f + 1 for f in surface.feet_order]}
            if any(surface.twists):
                rec["twists"] = list(surface.twists)
            if surface.crossings:
                rec["crossings"] = [
                    {"bands": [i + 1, j + 1], "count": c} for (i, j), c in surface.crossings
                ]
            out["surfaces"].append(rec)
    if doc.curves:
        out["curves"] = []
        for name, record in doc.curves.items():
            rec = {
                "name": name,
                "surface": record.surface_name,
                "coefficients": list(record.curve.coefficients),
            }
            if record.curve.traversal is not None:
                rec["traversal"] = _serialize_word(record.curve.traversal)
            out["curves"].append(rec)
    if doc.open_books:
        out["open_books"] = []
        for name, record in doc.open_books.items():
            out["open_books"].append(
                {
                    "name": name,
                    "page": record.page_name,
                    "monodromy": [{"curve": c, "sign": s} for c, s in record.steps],
                }
            )
    if doc.stein_problems:
        out["stein_problems"] = []
        for name, problem in doc.stein_problems.items():
            curves = []
            for curve in problem.curves:
                rec = {"name": curve.name, "traversal": list(curve.traversal), "rotation": curve.rotation}
                if curve.runs is not None:
                    rec["runs"] = _serialize_word(curve.runs)
                if curve.twist_sign != 1:
                    rec["twist_sign"] = curve.twist_sign
                curves.append(rec)
            out["stein_problems"].append(
                {
                    "name": name,
                    "one_handles": list(problem.one_handles),
                    "distinguished": problem.distinguished_curve.name,
                    "curves": curves,
                }
            )
    if doc.hf_modules:
        out["hf_modules"] = []
        for name, module in doc.hf_modules.items():
            out["hf_modules"].append(
                {
                    "name": name,
                    "slots": [{"towers": s.towers, "finite_z": s.finite_z} for s in module.slots],
                }
            )
    if doc.facts:
        out["facts"] = []
        for fact in doc.facts:
            rec = {"kind": fact.kind, "subject": _serialize_descriptor(fact.subject)}
            if fact.kind == PAGE_WITNESS:
                rec["genus"] = fact.genus
            elif fact.kind == STABILIZATION_OF:
                rec["parent"] = _serialize_descriptor(fact.parent)
                rec["sign"] = fact.sign
            elif fact.kind == ORIENTATION_MIRROR:
                rec["other"] = _serialize_descriptor(fact.other)
            if fact.note:
                rec["note"] = fact.note
            out["facts"].append(rec)
    return out


def serialize_text(doc: InputDocument) -> str:
    """Serialize to pretty-printed JSON text."""
    return json_text(serialize(doc)) + "\n"


def json_text(value) -> str:
    """The text of ``json.dumps(value, indent=2)`` for dicts with string
    keys, lists, tuples, strings, ints, bools and None; any other type
    raises ``TypeError``.

    ``json.dumps`` with an indent runs the pure-Python encoder, whose
    closures leave reference cycles behind on every call; this writer
    leaves none.

    >>> print(json_text({"a": [1, True, None], "b": {}}))
    {
      "a": [
        1,
        true,
        null
      ],
      "b": {}
    }
    """
    out: List[str] = []
    _write_json(value, "\n", out)
    return "".join(out)


def _write_json(value, newline: str, out: List[str]) -> None:
    if isinstance(value, str):
        out.append(encode_basestring_ascii(value))
    elif value is None:
        out.append("null")
    elif value is True:
        out.append("true")
    elif value is False:
        out.append("false")
    elif isinstance(value, int):
        out.append(int.__repr__(value))
    elif isinstance(value, dict):
        inner = newline + "  "
        separator = "{" + inner
        for key, item in value.items():
            if not isinstance(key, str):
                raise TypeError(f"keys must be str, not {type(key).__name__}")
            out.append(separator + encode_basestring_ascii(key) + ": ")
            _write_json(item, inner, out)
            separator = "," + inner
        out.append(newline + "}" if value else "{}")
    elif isinstance(value, (list, tuple)):
        inner = newline + "  "
        separator = "[" + inner
        for item in value:
            out.append(separator)
            _write_json(item, inner, out)
            separator = "," + inner
        out.append(newline + "]" if value else "[]")
    else:
        raise TypeError(f"Object of type {type(value).__name__} is not JSON serializable")
