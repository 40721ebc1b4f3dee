"""Interval reasoning about the support genus of Legendrian knots.

Descriptors name a Legendrian knot by topological type, Thurston-
Bennequin invariant and rotation number.  Facts attach evidence to
descriptors, and :func:`derive_bounds` runs a handful of monotone rules
to a fixed point, producing an interval [lo, hi] of possible support
genera per descriptor together with a derivation trace that can be
replayed.

Rules:

* R1  a page witness of genus g caps the support genus at g;
* R2  a stabilization has support genus at most its parent's, so upper
      bounds flow parent to child and lower bounds child to parent;
* R3  positive Thurston-Bennequin forces a positive support genus;
* R5  when contact surgery on the knot yields a manifold that admits no
      planar supporting open book, the knot itself is not planar;
* R6  orientation mirrors have equal support genus, so their intervals
      are intersected.

Each fact compiles once into moves that only raise lo or lower hi, so
the fixed point exists and does not depend on fact order; a move runs
again only when the one bound it reads has changed, so the work follows
the bound changes, not facts x sweeps.  Descriptors with equal
(topo_type, tb, rot) are identified: a derivation numbers each of them
once and works on those numbers from then on.  Fixtures that rely on
such identifications carry classification-axiom facts recording why the
identification is legitimate.
"""

from __future__ import annotations

import heapq
from dataclasses import dataclass, field
from typing import Callable, Dict, Iterable, List, NamedTuple, Optional, Tuple

from .errors import ToolkitError

_set = object.__setattr__


class FactError(ToolkitError):
    """A fact is malformed or inconsistent with its subject."""


class InconsistentFactsError(ToolkitError):
    """Derivation produced an empty interval."""

    def __init__(self, subject: "LegendrianDesc", lo_step: "TraceStep", hi_step: "TraceStep"):
        self.subject = subject
        self.lo_step = lo_step
        self.hi_step = hi_step
        super().__init__(
            f"facts about {subject.label()} clash: {lo_step.reason} forces lo >= {lo_step.value} "
            f"while {hi_step.reason} forces hi <= {hi_step.value}"
        )


# The frozen dataclasses that a parse and a derivation build by the
# hundred set their fields through one module-level object.__setattr__;
# the generated __init__ looks the builtin up again for every field, and
# SGFact's would call __post_init__ as well.  Equality, hashing, repr and
# dataclasses.replace stay generated.


@dataclass(frozen=True, init=False)
class LegendrianDesc:
    """A Legendrian knot named by its classical data.

    ``tags`` are free-form annotations and do not take part in identity.
    """

    topo_type: str
    tb: int
    rot: int
    tags: Tuple[str, ...] = field(default=(), compare=False)

    def __init__(self, topo_type: str, tb: int, rot: int, tags: Tuple[str, ...] = ()):
        _set(self, "topo_type", topo_type)
        _set(self, "tb", tb)
        _set(self, "rot", rot)
        _set(self, "tags", tags)

    def label(self) -> str:
        return f"{self.topo_type}(tb={self.tb}, rot={self.rot})"


PAGE_WITNESS = "page-witness"
POSITIVE_TB = "positive-tb"
NONPLANAR_SURGERY = "nonplanar-surgery"
STABILIZATION_OF = "stabilization-of"
ORIENTATION_MIRROR = "orientation-mirror"
CLASSIFICATION_AXIOM = "classification-axiom"

FACT_KINDS = (
    PAGE_WITNESS,
    POSITIVE_TB,
    NONPLANAR_SURGERY,
    STABILIZATION_OF,
    ORIENTATION_MIRROR,
    CLASSIFICATION_AXIOM,
)


@dataclass(frozen=True, init=False)
class SGFact:
    """One piece of evidence about a descriptor.

    Field usage by kind:

    * page-witness: ``genus`` is the genus of a supporting page
      containing the knot on which page and contact framings agree;
    * positive-tb: no payload (the subject's tb must be positive);
    * nonplanar-surgery: contact surgery on the subject is known to
      yield a manifold with no planar supporting open book;
    * stabilization-of: ``parent`` and ``sign``; the subject is the
      one-step stabilization of the parent;
    * orientation-mirror: ``other`` is the same knot with reversed
      orientation;
    * classification-axiom: ``note`` records an identification or
      uniqueness statement the fixture relies on.
    """

    kind: str
    subject: LegendrianDesc
    genus: Optional[int] = None
    parent: Optional[LegendrianDesc] = None
    sign: Optional[int] = None
    other: Optional[LegendrianDesc] = None
    note: str = ""

    def __init__(
        self,
        kind: str,
        subject: LegendrianDesc,
        genus: Optional[int] = None,
        parent: Optional[LegendrianDesc] = None,
        sign: Optional[int] = None,
        other: Optional[LegendrianDesc] = None,
        note: str = "",
    ):
        _set(self, "kind", kind)
        _set(self, "subject", subject)
        _set(self, "genus", genus)
        _set(self, "parent", parent)
        _set(self, "sign", sign)
        _set(self, "other", other)
        _set(self, "note", note)
        if kind not in FACT_KINDS:
            raise FactError(f"unknown fact kind {kind!r}")
        if kind == STABILIZATION_OF:
            checked = sign
            if not isinstance(sign, int) or isinstance(sign, bool):
                checked = None  # 1.0 and True equal 1, but serialize as 1.0 and true
            if parent is None or checked not in (1, -1):
                raise FactError("stabilization-of needs a parent and a sign of +1 or -1")
            if subject.tb != parent.tb - 1 or subject.rot != parent.rot + sign or subject.topo_type != parent.topo_type:
                raise FactError(
                    f"stabilization-of: {subject.label()} is not the sign {sign:+d} "
                    f"stabilization of {parent.label()}"
                )
        elif kind == PAGE_WITNESS:
            if not isinstance(genus, int) or isinstance(genus, bool) or genus < 0:
                raise FactError(f"page-witness on {subject.label()} needs a genus >= 0")
        elif kind == POSITIVE_TB:
            if subject.tb <= 0:
                raise FactError(f"positive-tb asserted on {subject.label()}, whose tb is not positive")
        elif kind == ORIENTATION_MIRROR:
            if other is None:
                raise FactError("orientation-mirror needs the other descriptor")
            if subject.tb != other.tb or subject.rot != -other.rot:
                raise FactError(
                    f"orientation-mirror: reversing orientation keeps tb and negates rot, but "
                    f"{subject.label()} and {other.label()} do not match that way"
                )

    def describe(self) -> str:
        if self.kind == PAGE_WITNESS:
            return f"page-witness(genus {self.genus}) on {self.subject.label()}"
        if self.kind == STABILIZATION_OF:
            return f"stabilization-of({self.subject.label()} from {self.parent.label()}, sign {self.sign:+d})"
        if self.kind == ORIENTATION_MIRROR:
            return f"orientation-mirror({self.subject.label()} ~ {self.other.label()})"
        return f"{self.kind} on {self.subject.label()}"


def stabilized(desc: LegendrianDesc, sign: int) -> LegendrianDesc:
    """The descriptor after one Legendrian stabilization.

    Both signs lower tb by one; the positive one raises rot by one, the
    negative one lowers it, so tb + rot changes by 0 or -2 and parity is
    preserved along any stabilization chain.
    """
    if not isinstance(sign, int) or isinstance(sign, bool) or sign not in (1, -1):
        raise ValueError(f"stabilization sign must be +1 or -1, got {sign!r}")
    return LegendrianDesc(desc.topo_type, desc.tb - 1, desc.rot + sign, desc.tags)


class TraceStep(NamedTuple):
    """One bound improvement: which rule, which side, what value, why."""

    rule: str
    bound: str
    value: int
    reason: str

    def __str__(self):
        op = ">=" if self.bound == "lo" else "<="
        return f"{self.rule}: {self.bound} {op} {self.value}  [{self.reason}]"


@dataclass(frozen=True, init=False)
class SGInterval:
    """The derived interval [lo, hi]; hi is None when unbounded above."""

    lo: int
    hi: Optional[int]
    trace: Tuple[TraceStep, ...] = ()

    def __init__(self, lo: int, hi: Optional[int], trace: Tuple[TraceStep, ...] = ()):
        _set(self, "lo", lo)
        _set(self, "hi", hi)
        _set(self, "trace", trace)

    def __str__(self):
        upper = "unbounded" if self.hi is None else str(self.hi)
        return f"[{self.lo}, {upper}]"


def replay_trace(trace: Iterable[TraceStep]) -> Tuple[int, Optional[int]]:
    """Re-apply exactly the traced bound improvements.

    Starting from the vacuous interval [0, unbounded], the replayed
    result must equal the derived interval; tests rely on this.
    """
    lo, hi = 0, None
    for step in trace:
        if step.bound == "lo":
            lo = max(lo, step.value)
        else:
            hi = step.value if hi is None else min(hi, step.value)
    return lo, hi


# The rules as data.  Given the position f of a fact, the fact and the
# numbers of its subject, parent and other descriptor, each kind compiles
# to moves (bound, target, source, constant, f, why), in the order a sweep
# applies them; a move tightens one bound of its target to the constant,
# or to the same bound of its source.  ``why`` holds the rule, the suffix
# of the fact's description that the step's reason ends in, and the
# field naming the descriptor a clash at the target reports.
# Classification axioms carry no bound; they justify identifications the
# fixtures make.
_RULES: Dict[str, Callable[..., Tuple[tuple, ...]]] = {
    PAGE_WITNESS: lambda f, fact, s, p, o: (("hi", s, None, fact.genus, f, ("R1", "", "subject")),),
    POSITIVE_TB: lambda f, fact, s, p, o: (("lo", s, None, 1, f, ("R3", "", "subject")),),
    NONPLANAR_SURGERY: lambda f, fact, s, p, o: (("lo", s, None, 1, f, ("R5", "", "subject")),),
    STABILIZATION_OF: lambda f, fact, s, p, o: (
        ("hi", s, p, None, f, ("R2", ", upper bound inherited", "subject")),
        ("lo", p, s, None, f, ("R2", ", lower bound inherited", "parent")),
    ),
    ORIENTATION_MIRROR: lambda f, fact, s, p, o: (
        ("lo", s, o, None, f, ("R6", "", "subject")),
        ("hi", s, o, None, f, ("R6", "", "subject")),
        ("lo", o, s, None, f, ("R6", "", "other")),
        ("hi", o, s, None, f, ("R6", "", "other")),
    ),
    CLASSIFICATION_AXIOM: lambda f, fact, s, p, o: (),
}


def derive_bounds(facts: Iterable[SGFact]) -> Dict[LegendrianDesc, SGInterval]:
    """Run the rules to a fixed point and return an interval per descriptor.

    Rules only tighten intervals, so the result is the least fixed point
    and is independent of fact order; traces record one justification
    for every improvement and can be replayed with
    :func:`replay_trace`.  An empty interval raises
    :class:`InconsistentFactsError` naming the clashing justifications,
    and anything in ``facts`` that is not an :class:`SGFact` raises
    :class:`FactError`.

    One pass over the facts compiles their moves and numbers each
    descriptor by its (topo_type, tb, rot) when first seen, over subject,
    parent and other in fact order; that first object keeps its place as
    the result key, and from then on the moves and cells work on the
    numbers.  A descriptor object seen before is numbered by its identity
    alone, since a parse shares one object per untagged descriptor.
    Sweeps run the moves in fact order, but only the dirty
    ones: a move is dirty when the bound it reads has changed since it last
    ran, and a move with a constant is dirty in the first sweep.  A change
    made by move m makes each reader m' > m dirty in this sweep and each
    reader m' <= m in the next.  A clean move cannot tighten anything, as
    its source is unchanged (a move that never ran reads a start value,
    which tightens nothing) and its target only tighter, so the steps,
    traces and clash are those of re-running every fact until a sweep
    changes nothing.

    A step's reason is built when its move fires: each fact is described
    at most once, on the first firing of one of its moves, so a fact whose
    moves never tighten anything is never described.
    """
    facts = tuple(facts)
    seen: Dict[int, int] = {}  # id(descriptor) -> its number
    number: Dict[Tuple[str, int, int], int] = {}
    descs: List[LegendrianDesc] = []
    moves: List[tuple] = []
    for f, fact in enumerate(facts):
        if not isinstance(fact, SGFact):
            raise FactError(f"expected SGFact, got {type(fact).__name__}")
        ids = []
        for desc in (fact.subject, fact.parent, fact.other):
            i = None
            if desc is not None:
                i = seen.get(id(desc))
                if i is None:
                    i = seen[id(desc)] = number.setdefault((desc.topo_type, desc.tb, desc.rot), len(descs))
                    if i == len(descs):
                        descs.append(desc)
            ids.append(i)
        moves += _RULES[fact.kind](f, fact, *ids)

    lo = [0] * len(descs)
    hi: List[Optional[int]] = [None] * len(descs)
    traces: List[List[TraceStep]] = [[] for _ in descs]
    cells = {"lo": lo, "hi": hi}
    # readers[bound][d]: the moves reading that bound of descriptor d
    readers = {bound: [[] for _ in descs] for bound in cells}
    # A move reading a bound still at its start value changes nothing, so
    # at first only the moves with a constant are dirty.
    queue: List[int] = []  # sweep * count + move, a heap
    queued: List[bool] = []
    for m, move in enumerate(moves):
        source = move[2]
        if source is None:
            queue.append(m)
        else:
            readers[move[0]][source].append(m)
        queued.append(source is None)
    # each fact's description, built on the first firing of one of its moves
    descriptions: List[Optional[str]] = [None] * len(facts)

    count = len(moves)
    heappop, heappush, step = heapq.heappop, heapq.heappush, TraceStep._make
    while queue:
        key = heappop(queue)
        m = key % count
        queued[m] = False
        bound, target, source, value, f, why = moves[m]
        cell = cells[bound]
        if source is not None:
            value = cell[source]
            if value is None:
                continue
        old = cell[target]
        if old is not None and (value <= old if bound == "lo" else value >= old):
            continue
        cell[target] = value
        rule, suffix, named = why
        description = descriptions[f]
        if description is None:
            description = descriptions[f] = facts[f].describe()
        trace = traces[target]
        trace.append(step((rule, bound, value, description + suffix)))
        if hi[target] is not None and lo[target] > hi[target]:
            last = {s.bound: s for s in trace}
            raise InconsistentFactsError(getattr(facts[f], named), last["lo"], last["hi"])
        sweep = key - m
        for reader in readers[bound][target]:
            if not queued[reader]:
                queued[reader] = True
                heappush(queue, sweep + (count if reader <= m else 0) + reader)

    return {desc: SGInterval(lo[i], hi[i], tuple(traces[i])) for i, desc in enumerate(descs)}


def trefoil_mountain_check(tb: int, rot: int) -> bool:
    """Whether (tb, rot) occurs among Legendrian right-handed trefoils.

    The classification is a single peak: (1, 0) at the top, and below
    it exactly the pairs with tb <= 0, |rot| <= 1 - tb and rot = 1 - tb
    mod 2.

    >>> trefoil_mountain_check(1, 0)
    True
    >>> trefoil_mountain_check(-2, -1)
    True
    >>> trefoil_mountain_check(2, 0)
    False
    """
    if tb > 1:
        return False
    if tb == 1:
        return rot == 0
    n = -tb
    return abs(rot) <= n + 1 and (rot - (n + 1)) % 2 == 0
