"""The structured input format: JSON documents describing pages, curves,
open books, Stein problems, HF modules, and fact bases.

A document is a single JSON object with up to six sections, each a list
of keyed records.  Band and one-handle labels are 1-based in files and
0-based in memory.  Unknown keys are rejected everywhere, and every
diagnostic names the offending section, index, and field.

Each record type is one table of fields (``_SURFACE`` ... ``_FACT``),
and :func:`parse_dict` and :func:`serialize` both walk it: fields are
checked and written in table order, and one hook per record type checks
across fields and builds the object once its unknown keys are rejected.
Each table is compiled once, at import: into flat ``(key, get, dump,
omit)`` tuples for :func:`serialize`, with no omit test on a field that
is always written, and, for facts, into one field tuple per kind.

A valid document builds no location string: each value is first tested
in bulk or by exact type (``type(x) is int``, ``set(map(type, xs)) <=
{int}``), and only a value that fails that test is walked again by the
located checks, which raise with the first offender's location, or
accept it when it is merely a subclass or a non-dict mapping.  A fact is
read by kind first: a plain dict holding exactly its kind's keys, plus
an optional note string, with exact-type values and untagged three-key
descriptors, is built straight into an ``SGFact`` with no per-field
walk; anything else, including a fact its hook rejects, takes the
located walk from its start, so every message and the order in which
faults are found stay the walk's.

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
from functools import partial
from json.encoder import encode_basestring_ascii
from operator import attrgetter, eq, is_, itemgetter, not_
from typing import Callable, Dict, List, Mapping, NamedTuple, Optional, Tuple

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

    def fact_base(self) -> Tuple[SGFact, ...]:
        """``self.facts``; kept only for the benchmark's traced ``sg-bounds``
        replay, which calls it and takes ``len()`` of the result."""
        return self.facts


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


_ABSENT = object()


class _Record:
    """One record of a section, with typed takes and unknown-key rejection
    on close.  A take with ``required=False`` reads a null value as absent.
    The record reads ``raw`` in place and never changes it."""

    __slots__ = ("location", "data", "taken")

    def __init__(self, raw, location: str):
        self.location = location
        self.data = raw if type(raw) is dict else _expect_mapping(raw, location)
        self.taken: List[str] = []

    def take(self, key: str, required: bool = False):
        value = self.data.get(key, _ABSENT)
        if value is _ABSENT:
            if required:
                _fail(self.location, f"missing required field {key!r}")
            return None
        self.taken.append(key)
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
        return [_expect_int(v, f"{self.at(key)}[{i}]") for i, v in enumerate(_expect_list(value, self.at(key)))]

    def strs(self, key: str, required: bool = True):
        value = self.take(key, required)
        if (type(value) is list and set(map(type, value)) <= {str}) or (value is None and not required):
            return value
        return [_expect_str(v, f"{self.at(key)}[{i}]") for i, v in enumerate(_expect_list(value, self.at(key)))]

    def close(self) -> None:
        if len(self.taken) != len(self.data):
            extra = ", ".join(sorted(repr(key) for key in self.data if key not in self.taken))
            _fail(self.location, f"unknown field(s) {extra}")

    def at(self, key: str) -> str:
        return f"{self.location}.{key}"


class _Context:
    """What one parse shares: the document so far, one object per untagged
    descriptor, and the surface's band count and crossings, or the Stein
    problem's one-handle count, being read."""

    def __init__(self):
        self.doc = InputDocument()
        self.shared: Dict[Tuple[str, int, int], LegendrianDesc] = {}
        self.crossings: Dict[Tuple[int, int], int] = {}
        self.bands = self.handles = 0


_OMIT_NONE = partial(is_, None)


class _Field(NamedTuple):
    """One key of a record type.  ``take`` is the ``_Record`` method that
    type-checks it (an optional field reads null as absent and skips its
    load), ``load(value, rec, key, ctx)`` converts it into memory, ``get``
    reads it off the object (a function, or an attribute path that defaults
    to the key), ``dump`` converts it for the file, and ``omit(value)``
    leaves it out.  A field with ``kinds`` belongs only to records of those
    kinds."""

    key: str
    take: Callable
    required: bool = True
    load: Optional[Callable] = None
    get: object = None
    dump: Optional[Callable] = None
    omit: Callable = _OMIT_NONE
    kinds: Tuple[str, ...] = ()


class _Spec:
    """A record type: its fields in file order, and ``hook(rec, ctx,
    *values)``, which checks across fields and builds the object; a
    ToolkitError or ValueError it raises is located at the record.  A
    record type with ``kinds`` reads the kind from its first field, has
    one optional field, its last, and is compiled once per kind into the
    fields that kind carries."""

    def __init__(self, *fields: _Field, hook: Callable, kinds: Tuple[str, ...] = ()):
        self.fields = tuple(f if callable(f.get) else f._replace(get=attrgetter(f.get or f.key)) for f in fields)
        self.hook = hook
        # what the walk reads of each field, unpacked once per field
        self.takes = tuple((f.key, f.take, f.required, f.load, f.kinds) for f in self.fields)
        self.writes = _writes(self.fields)
        # the kind's key and the optional one, and kind -> (the number of
        # keys without the optional one, (position, key, load or take) of
        # each required field after the kind, writes)
        self.kind_keys = (self.fields[0].key, self.fields[-1].key)
        self.kind_of = self.fields[0].get
        self.kinds = {kind: self._compile(kind) for kind in kinds}

    def _compile(self, kind: str) -> Tuple[int, tuple, tuple]:
        fields = [(i, f) for i, f in enumerate(self.fields) if not f.kinds or kind in f.kinds]
        reads = tuple((i, f.key, f.load or f.take) for i, f in fields[1:] if f.required)
        return len(reads) + 1, reads, _writes([f for _, f in fields])


def _writes(fields) -> tuple:
    """What serialize writes of each field, as (key, get, dump, omit); omit
    is None on a required field that only a None would leave out, which is
    therefore always written."""
    return tuple((f.key, f.get, f.dump, None if f.required and f.omit is _OMIT_NONE else f.omit) for f in fields)


def _parse(spec: _Spec, rec: _Record, ctx: _Context):
    values: list = []
    for key, take, required, load, kinds in spec.takes:
        value = None
        if not kinds or values[0] in kinds:
            value = take(rec, key, required)
            # a required raw value may be null, which its load rejects
            if load is not None and (value is not None or required):
                value = load(value, rec, key, ctx)
        values.append(value)
    rec.close()
    try:
        return spec.hook(rec, ctx, *values)
    except InputFormatError:
        raise
    except (ToolkitError, ValueError) as exc:
        raise InputFormatError(rec.location, str(exc)) from exc


def _parse_all(spec: _Spec, entries: list, rec: _Record, key: str, ctx: _Context) -> tuple:
    return tuple([_parse(spec, _Record(entry, f"{rec.at(key)}[{i}]"), ctx) for i, entry in enumerate(entries)])


def _dump(spec: _Spec, obj) -> dict:
    out = {}
    for key, get, dump, omit in spec.kinds[spec.kind_of(obj)][2] if spec.kinds else spec.writes:
        value = get(obj)
        if omit is None or not omit(value):
            out[key] = value if dump is None else dump(value)
    return out


def _dump_all(spec: _Spec, objs) -> list:
    return [_dump(spec, obj) for obj in objs]


def _records(key: str, spec: _Spec, **options) -> _Field:
    """A field holding a list of ``spec`` records."""
    options = {"load": partial(_parse_all, spec), "dump": partial(_dump_all, spec), **options}
    return _Field(key, _Record.list, **options)


# Conversions between file and memory.  Each builds a location only to
# report a fault.


def _feet(labels: List[int], rec: _Record, key: str, ctx: _Context) -> List[int]:
    if len(labels) % 2:
        _fail(rec.at(key), f"odd number of feet ({len(labels)})")
    n = ctx.bands = len(labels) // 2
    if labels and not (1 <= min(labels) and max(labels) <= n):
        for i, label in enumerate(labels):
            if not 1 <= label <= n:
                _fail(f"{rec.at(key)}[{i}]", f"band label {label} outside 1..{n}")
    return [f - 1 for f in labels]


def _crossings(entries: list, rec: _Record, key: str, ctx: _Context) -> Dict[Tuple[int, int], int]:
    """Crossing entries as {(i, j): count} with 0-based i <= j.  An entry
    that fails the quick test is walked through ``_CROSSING``."""
    n = ctx.bands
    crossings = ctx.crossings = {}
    bands_key, count_key = _CROSSING_KEYS
    for i, entry in enumerate(entries):
        if type(entry) is dict and len(entry) == 2:
            bands, count = entry.get(bands_key), entry.get(count_key)
            if type(bands) is list and len(bands) == 2 and type(count) is int:
                a, b = bands
                if type(a) is int and type(b) is int and 0 < a <= n and 0 < b <= n:
                    pair = (a - 1, b - 1) if a <= b else (b - 1, a - 1)
                    if pair not in crossings:
                        crossings[pair] = count
                        continue
        pair, count = _parse(_CROSSING, _Record(entry, f"{rec.at(key)}[{i}]"), ctx)
        crossings[pair] = count
    return crossings


def _band_pair(bands: List[int], rec: _Record, key: str, ctx: _Context) -> Tuple[int, int]:
    n = ctx.bands
    if len(bands) != 2:
        _fail(rec.at(key), f"expected two band labels, got {len(bands)}")
    a, b = bands
    if not (1 <= a <= n and 1 <= b <= n):
        _fail(rec.at(key), f"band pair {bands} must name bands in 1..{n}")
    pair = (min(a, b) - 1, max(a, b) - 1)
    if pair in ctx.crossings:
        _fail(rec.at(key), f"band pair {bands} listed twice")
    return pair


def _reference(what: str, section: str, name: str, rec: _Record, key: str, ctx: _Context) -> str:
    if name not in getattr(ctx.doc, section):
        _fail(rec.at(key), f"dangling reference: no {what} named {name!r}")
    return name


def _signed_word(entries: list, rec: _Record, key: str, ctx: _Context) -> Tuple[Tuple[int, int], ...]:
    """[[label, sign], ...] with 1-based labels as 0-based pairs."""
    word = []
    for i, entry in enumerate(entries):
        if type(entry) is list and len(entry) == 2:
            label, sign = entry
            if type(label) is int and type(sign) is int and label >= 1 and (sign == 1 or sign == -1):
                word.append((label - 1, sign))
                continue
        here = f"{rec.at(key)}[{i}]"
        pair = _expect_list(entry, here)
        if len(pair) != 2:
            _fail(here, f"expected a [label, sign] pair, got {len(pair)} entries")
        label = _expect_int(pair[0], f"{here}[0]")
        if label < 1:
            _fail(f"{here}[0]", f"labels are 1-based, got {label}")
        word.append((label - 1, _expect_sign(pair[1], f"{here}[1]")))
    return tuple(word)


def _handles(labels: List[str], rec: _Record, key: str, ctx: _Context) -> Tuple[str, ...]:
    ctx.handles = len(labels)
    return tuple(labels)


def _handle_vector(vector: List[int], rec: _Record, key: str, ctx: _Context) -> Tuple[int, ...]:
    if len(vector) != ctx.handles:
        _fail(rec.at(key), f"traversal vector has length {len(vector)}, expected {ctx.handles}")
    return tuple(vector)


def _runs(entries: list, rec: _Record, key: str, ctx: _Context) -> Tuple[Tuple[int, int], ...]:
    runs = _signed_word(entries, rec, key, ctx)
    for i, (handle, _sign) in enumerate(runs):
        if handle >= ctx.handles:
            _fail(f"{rec.at(key)}[{i}][0]", f"one-handle label {handle + 1} outside 1..{ctx.handles}")
    return runs


def _descriptor(raw, rec: _Record, key: str, ctx: _Context) -> LegendrianDesc:
    """An untagged descriptor on the quick path is looked up in
    ``ctx.shared`` first, so equal ones are one object; any other is
    walked through ``_DESCRIPTOR``."""
    desc = _shared_descriptor(raw, ctx.shared)
    return _parse(_DESCRIPTOR, _Record(raw, rec.at(key)), ctx) if desc is None else desc


def _shared_descriptor(raw, shared: Dict[Tuple[str, int, int], LegendrianDesc]) -> Optional[LegendrianDesc]:
    """The one object for ``raw`` if it is a plain untagged descriptor
    with exact-type values, else None."""
    if type(raw) is dict and len(raw) == 3:
        type_key, tb_key, rot_key = _DESCRIPTOR_KEYS
        topo_type, tb, rot = raw.get(type_key), raw.get(tb_key), raw.get(rot_key)
        if type(topo_type) is str and type(tb) is int and type(rot) is int:
            key = (topo_type, tb, rot)
            desc = shared.get(key)
            if desc is None:
                desc = shared[key] = LegendrianDesc(topo_type, tb, rot)
            return desc
    return None


def _quick_kind(spec: _Spec, raw, ctx: _Context):
    """The record in ``raw`` (a fact), read without building a location,
    if ``raw`` is a plain dict holding exactly its kind's keys plus at most
    its last, optional one (the note) as a string, with exact-type values
    and plain untagged descriptors, and the hook accepts it; else None,
    and the walk reads it."""
    if type(raw) is not dict:
        return None
    kind_key, optional = spec.kind_keys
    kind = raw.get(kind_key)
    compiled = spec.kinds.get(kind) if type(kind) is str else None
    if compiled is None:
        return None
    size, reads, _ = compiled
    values: list = [None] * len(spec.fields)
    values[0] = kind
    if len(raw) != size:
        note = values[-1] = raw.get(optional)
        if len(raw) != size + 1 or type(note) is not str:
            return None
    shared = ctx.shared
    for position, key, read in reads:
        value = raw.get(key)
        if read is _descriptor:
            value = _shared_descriptor(value, shared)
            if value is None:
                return None
        elif type(value) is not int or (read is _Record.sign and value != 1 and value != -1):
            return None
        values[position] = value
    try:
        return spec.hook(None, ctx, *values)
    except (ToolkitError, ValueError):
        return None


def _fact_kind(kind: str, rec: _Record, key: str, ctx: _Context) -> str:
    if kind not in FACT_KINDS:
        _fail(rec.at(key), f"unknown fact kind {kind!r}; known kinds: {', '.join(FACT_KINDS)}")
    return kind


def _one_based(labels) -> List[int]:
    return [label + 1 for label in labels]


def _dump_word(word) -> List[List[int]]:
    return [[label + 1, sign] for label, sign in word]


def _open_book(rec: _Record, ctx: _Context, page: str, steps) -> OpenBookRecord:
    steps = steps or ()
    word = tuple([(ctx.doc.curves[name].curve, sign) for name, sign in steps])
    return OpenBookRecord(page, steps, OpenBook(ctx.doc.surfaces[page], word))


def _stein_problem(rec: _Record, ctx: _Context, one_handles, distinguished: str, curves) -> SteinProblem:
    names = [c.name for c in curves]
    if distinguished not in names:
        _fail(rec.at("distinguished"), f"dangling reference: no curve named {distinguished!r}")
    return SteinProblem(one_handles, curves, names.index(distinguished))


def _stein_curve(rec: _Record, ctx: _Context, name: str, traversal, rotation, runs, twist_sign) -> SteinCurve:
    if traversal is None:
        if runs is None:
            _fail(rec.location, f"curve {name!r} needs a traversal vector or a runs word")
        totals = [0] * ctx.handles
        for handle, sign in runs:
            totals[handle] += sign
        traversal = tuple(totals)
    if rotation is None:
        if runs is None:
            _fail(
                rec.location,
                f"curve {name!r} has neither a runs word nor an explicit rotation; "
                "the homology class alone does not determine the base rotation",
            )
        rotation = base_rotation_planar(runs)
    return SteinCurve(name, traversal, rotation, runs, 1 if twist_sign is None else twist_sign)


def _hf_module(rec: _Record, ctx: _Context, slots, surgery) -> FormalHFModule:
    if (slots is None) == (surgery is None):
        _fail(rec.location, "give exactly one of 'slots' and 'trefoil_surgery'")
    if surgery is None:
        return FormalHFModule(slots)
    try:
        return hf_plus_surgery(surgery)
    except ToolkitError as exc:
        raise InputFormatError(rec.at("trefoil_surgery"), str(exc)) from exc


# The record tables.  Records of the five named sections are stored
# under their name, which is their first key; Stein curves carry theirs.

_NAME = _Field("name", _Record.str)
_SURFACE_NAME = partial(_reference, "surface", "surfaces")

_CROSSING = _Spec(
    _Field("bands", _Record.ints, load=_band_pair, get=itemgetter(0), dump=_one_based),
    _Field("count", _Record.int, get=itemgetter(1)),
    hook=lambda rec, ctx, pair, count: (pair, count),
)
_SURFACE = _Spec(
    _Field("feet_order", _Record.ints, load=_feet, dump=_one_based),
    _Field("twists", _Record.ints, required=False, dump=list, omit=lambda twists: not any(twists)),
    _records("crossings", _CROSSING, required=False, load=_crossings, omit=not_),
    hook=lambda rec, ctx, feet, twists, crossings: RibbonSurface(len(feet) // 2, feet, twists, crossings),
)
_CURVE = _Spec(
    _Field("surface", _Record.str, load=_SURFACE_NAME, get="surface_name"),
    _Field("coefficients", _Record.ints, get="curve.coefficients", dump=list),
    _Field("traversal", _Record.list, required=False, load=_signed_word, get="curve.traversal", dump=_dump_word),
    hook=lambda rec, ctx, surface, coefficients, traversal: CurveRecord(
        surface, CurveClass(ctx.doc.surfaces[surface], tuple(coefficients), traversal)
    ),
)
_STEP = _Spec(
    _Field("curve", _Record.str, load=partial(_reference, "curve", "curves"), get=itemgetter(0)),
    _Field("sign", _Record.sign, get=itemgetter(1)),
    hook=lambda rec, ctx, curve, sign: (curve, sign),
)
_OPEN_BOOK = _Spec(
    _Field("page", _Record.str, load=_SURFACE_NAME, get="page_name"),
    _records("monodromy", _STEP, required=False, get="steps"),
    hook=_open_book,
)
_STEIN_CURVE = _Spec(
    _NAME,
    _Field("traversal", _Record.ints, required=False, load=_handle_vector, dump=list),
    _Field("rotation", _Record.int, required=False),
    _Field("runs", _Record.list, required=False, load=_runs, dump=_dump_word),
    _Field("twist_sign", _Record.sign, required=False, omit=partial(eq, 1)),
    hook=_stein_curve,
)
_STEIN_PROBLEM = _Spec(
    _Field("one_handles", _Record.strs, load=_handles, dump=list),
    _Field("distinguished", _Record.str, get="distinguished_curve.name"),
    _records("curves", _STEIN_CURVE),
    hook=_stein_problem,
)
_SLOT = _Spec(
    _Field("towers", _Record.int),
    _Field("finite_z", _Record.int),
    hook=lambda rec, ctx, towers, finite_z: SpincSlot(towers, finite_z),
)
_HF_MODULE = _Spec(
    _records("slots", _SLOT, required=False),
    # read only: a module is written back as its slots
    _Field("trefoil_surgery", _Record.int, required=False, get=lambda module: None),
    hook=_hf_module,
)
_DESCRIPTOR = _Spec(
    _Field("type", _Record.str, get="topo_type"),
    _Field("tb", _Record.int),
    _Field("rot", _Record.int),
    _Field("tags", _Record.strs, required=False, dump=list, omit=not_),
    hook=lambda rec, ctx, topo_type, tb, rot, tags: LegendrianDesc(topo_type, tb, rot, tuple(tags or ())),
)
_DESCRIPTOR_FIELD = partial(_Field, take=_Record.take, load=_descriptor, dump=partial(_dump, _DESCRIPTOR))
_FACT = _Spec(
    _Field("kind", _Record.str, load=_fact_kind),
    _DESCRIPTOR_FIELD("subject"),
    _Field("genus", _Record.int, kinds=(PAGE_WITNESS,)),
    _DESCRIPTOR_FIELD("parent", kinds=(STABILIZATION_OF,)),
    _Field("sign", _Record.sign, kinds=(STABILIZATION_OF,)),
    _DESCRIPTOR_FIELD("other", kinds=(ORIENTATION_MIRROR,)),
    _Field("note", _Record.str, required=False, omit=not_),
    hook=lambda rec, ctx, kind, subject, genus, parent, sign, other, note: SGFact(
        kind, subject, genus, parent, sign, other, note or ""
    ),
    kinds=FACT_KINDS,
)

# The keys the quick paths read straight off a plain dict.
_CROSSING_KEYS = tuple(f.key for f in _CROSSING.fields)
_DESCRIPTOR_KEYS = tuple(f.key for f in _DESCRIPTOR.fields if f.required)

# Each section's key, record type, and whether its records are named.
_SECTIONS = (
    ("surfaces", _SURFACE, True),
    ("curves", _CURVE, True),
    ("open_books", _OPEN_BOOK, True),
    ("stein_problems", _STEIN_PROBLEM, True),
    ("hf_modules", _HF_MODULE, True),
    ("facts", _FACT, False),
)


def _section(top: _Record, name: str) -> list:
    raw = top.take(name)
    if type(raw) is list:
        return raw
    return [] if raw is None else _expect_list(raw, name)


def parse_dict(data: Mapping) -> InputDocument:
    """Resolve a decoded JSON object into an :class:`InputDocument`."""
    top = _Record(data, "document")
    ctx = _Context()
    for key, spec, named in _SECTIONS:
        records: dict = {}
        for i, entry in enumerate(_section(top, key)):
            obj = _quick_kind(spec, entry, ctx) if spec.kinds else None
            if obj is not None:
                records[i] = obj
                continue
            rec = _Record(entry, f"{key}[{i}]")
            name = rec.str(_NAME.key) if named else i
            if name in records:
                _fail(rec.at(_NAME.key), f"duplicate name {name!r}")
            records[name] = _parse(spec, rec, ctx)
        # later sections resolve references into the earlier ones
        setattr(ctx.doc, key, records if named else tuple(records.values()))
    top.close()
    return ctx.doc


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


def serialize(doc: InputDocument) -> dict:
    """The JSON-ready dict form of a document; inverse to :func:`parse_dict`."""
    out: dict = {}
    for key, spec, named in _SECTIONS:
        records = getattr(doc, key)
        if records and named:
            out[key] = [{_NAME.key: name, **_dump(spec, obj)} for name, obj in records.items()]
        elif records:
            out[key] = _dump_all(spec, records)
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


# How each exact scalar type is written.  A dict or list writes its items
# of these types in its own loop, as pieces of the output rather than
# one concatenated string.
_SCALARS: Dict[type, Callable[..., str]] = {
    str: encode_basestring_ascii,
    int: int.__repr__,
    bool: {False: "false", True: "true"}.__getitem__,
    type(None): {None: "null"}.__getitem__,
}


def _write_json(value, newline: str, out: List[str]) -> None:
    kind = type(value)
    if kind is dict:
        if not value:
            out.append("{}")
            return
        inner = newline + "  "
        separator, comma = "{" + inner, "," + inner
        for key, item in value.items():
            if type(key) is not str and not isinstance(key, str):
                raise TypeError(f"keys must be str, not {type(key).__name__}")
            write = _SCALARS.get(type(item))
            if write is None:
                out += (separator, encode_basestring_ascii(key), ": ")
                _write_json(item, inner, out)
            else:
                out += (separator, encode_basestring_ascii(key), ": ", write(item))
            separator = comma
        out.append(newline + "}")
    elif kind is list or kind is tuple:
        if not value:
            out.append("[]")
            return
        inner = newline + "  "
        separator, comma = "[" + inner, "," + inner
        for item in value:
            write = _SCALARS.get(type(item))
            if write is None:
                out.append(separator)
                _write_json(item, inner, out)
            else:
                out += (separator, write(item))
            separator = comma
        out.append(newline + "]")
    elif kind in _SCALARS:
        out.append(_SCALARS[kind](value))
    # subclasses: written as their base type
    elif isinstance(value, str):
        out.append(encode_basestring_ascii(value))
    elif isinstance(value, int):
        out.append(int.__repr__(value))
    elif isinstance(value, dict):
        _write_json(dict(value.items()), newline, out)
    elif isinstance(value, (list, tuple)):
        _write_json(list(value), newline, out)
    else:
        raise TypeError(f"Object of type {type(value).__name__} is not JSON serializable")
