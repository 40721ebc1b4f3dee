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
from typing import Callable, Dict, Iterable, List, Optional, Tuple

from .errors import ToolkitError


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


@dataclass(frozen=True)
class LegendrianDesc:
    """A Legendrian knot named by its classical data.

    ``tags`` are free-form annotations and do not take part in identity.
    """

    topo_type: str
    tb: int
    rot: int
    tags: Tuple[str, ...] = field(default=(), compare=False)

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


@dataclass(frozen=True)
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

    def __post_init__(self):
        if self.kind not in FACT_KINDS:
            raise FactError(f"unknown fact kind {self.kind!r}")
        if self.kind == PAGE_WITNESS:
            genus = self.genus
            if not isinstance(genus, int) or isinstance(genus, bool) or genus < 0:
                raise FactError(f"page-witness on {self.subject.label()} needs a genus >= 0")
        elif self.kind == POSITIVE_TB:
            if self.subject.tb <= 0:
                raise FactError(
                    f"positive-tb asserted on {self.subject.label()}, whose tb is not positive"
                )
        elif self.kind == STABILIZATION_OF:
            sign = self.sign
            if not isinstance(sign, int) or isinstance(sign, bool):
                sign = None  # 1.0 and True equal 1, but serialize as 1.0 and true
            if self.parent is None or sign not in (1, -1):
                raise FactError("stabilization-of needs a parent and a sign of +1 or -1")
            subject, parent = self.subject, self.parent
            expected = (parent.topo_type, parent.tb - 1, parent.rot + self.sign)
            if (subject.topo_type, subject.tb, subject.rot) != expected:
                raise FactError(
                    f"stabilization-of: {self.subject.label()} is not the sign {self.sign:+d} "
                    f"stabilization of {self.parent.label()}"
                )
        elif self.kind == ORIENTATION_MIRROR:
            if self.other is None:
                raise FactError("orientation-mirror needs the other descriptor")
            if self.subject.tb != self.other.tb or self.subject.rot != -self.other.rot:
                raise FactError(
                    f"orientation-mirror: reversing orientation keeps tb and negates rot, but "
                    f"{self.subject.label()} and {self.other.label()} do not match that way"
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


@dataclass(frozen=True)
class TraceStep:
    """One bound improvement: which rule, which side, what value, why."""

    rule: str
    bound: str
    value: int
    reason: str

    def __str__(self):
        op = ">=" if self.bound == "lo" else "<="
        return f"{self.rule}: {self.bound} {op} {self.value}  [{self.reason}]"


@dataclass(frozen=True)
class SGInterval:
    """The derived interval [lo, hi]; hi is None when unbounded above."""

    lo: int
    hi: Optional[int]
    trace: Tuple[TraceStep, ...] = ()

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


# The rules as data.  Given a fact, its description and the ids of its
# subject, parent and other descriptor, each kind compiles to moves
# (bound, target, source, constant, rule, reason, named), in the order a
# sweep applies them; a move tightens one bound of its target to the
# constant, or to the same bound of its source, and a clash it causes
# names the fact's own descriptor object at the target.  Classification
# axioms carry no bound; they justify identifications the fixtures make.
_RULES: Dict[str, Callable[..., Tuple[tuple, ...]]] = {
    PAGE_WITNESS: lambda f, why, s, p, o: (("hi", s, None, f.genus, "R1", why, f.subject),),
    POSITIVE_TB: lambda f, why, s, p, o: (("lo", s, None, 1, "R3", why, f.subject),),
    NONPLANAR_SURGERY: lambda f, why, s, p, o: (("lo", s, None, 1, "R5", why, f.subject),),
    STABILIZATION_OF: lambda f, why, s, p, o: (
        ("hi", s, p, None, "R2", why + ", upper bound inherited", f.subject),
        ("lo", p, s, None, "R2", why + ", lower bound inherited", f.parent),
    ),
    ORIENTATION_MIRROR: lambda f, why, s, p, o: tuple(
        (bound, one, two, None, "R6", why, named)
        for one, two, named in ((s, o, f.subject), (o, s, f.other))
        for bound in ("lo", "hi")
    ),
    CLASSIFICATION_AXIOM: lambda f, why, s, p, o: (),
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
    numbers.  Sweeps run the moves in fact order, but only the dirty
    ones: a move is dirty when the bound it reads has changed since it last
    ran, and a move with a constant is dirty in the first sweep.  A change
    made by move m makes each reader m' > m dirty in this sweep and each
    reader m' <= m in the next.  A clean move cannot tighten anything, as
    its source is unchanged (a move that never ran reads a start value,
    which tightens nothing) and its target only tighter, so the steps,
    traces and clash are those of re-running every fact until a sweep
    changes nothing.
    """
    number: Dict[Tuple[str, int, int], int] = {}
    descs: List[LegendrianDesc] = []
    moves: List[tuple] = []
    for fact in facts:
        if not isinstance(fact, SGFact):
            raise FactError(f"expected SGFact, got {type(fact).__name__}")
        ids = []
        for desc in (fact.subject, fact.parent, fact.other):
            i = None
            if desc is not None:
                i = number.setdefault((desc.topo_type, desc.tb, desc.rot), len(descs))
                if i == len(descs):
                    descs.append(desc)
            ids.append(i)
        moves += _RULES[fact.kind](fact, fact.describe(), *ids)

    lo = [0] * len(descs)
    hi: List[Optional[int]] = [None] * len(descs)
    traces: List[List[TraceStep]] = [[] for _ in descs]
    cells = {"lo": lo, "hi": hi}
    # readers[bound][d]: the moves reading that bound of descriptor d
    readers = {bound: [[] for _ in descs] for bound in cells}
    for m, (bound, _, source, *_) in enumerate(moves):
        if source is not None:
            readers[bound][source].append(m)

    # A move reading a bound still at its start value changes nothing, so
    # at first only the moves with a constant are dirty.
    count = len(moves)
    queue = [m for m, move in enumerate(moves) if move[2] is None]  # sweep * count + move, a heap
    queued = [move[2] is None for move in moves]
    while queue:
        key = heapq.heappop(queue)
        m = key % count
        queued[m] = False
        bound, target, source, value, rule, reason, named = moves[m]
        cell = cells[bound]
        if source is not None:
            value = cell[source]
            if value is None:
                continue
        old = cell[target]
        if old is not None and (value <= old if bound == "lo" else value >= old):
            continue
        cell[target] = value
        trace = traces[target]
        trace.append(TraceStep(rule=rule, bound=bound, value=value, reason=reason))
        if hi[target] is not None and lo[target] > hi[target]:
            last = {step.bound: step for step in trace}
            raise InconsistentFactsError(named, last["lo"], last["hi"])
        sweep = key - m
        for reader in readers[bound][target]:
            if not queued[reader]:
                queued[reader] = True
                heapq.heappush(queue, sweep + (count if reader <= m else 0) + reader)

    return {
        desc: SGInterval(lo=lo[i], hi=hi[i], trace=tuple(traces[i]))
        for i, desc in enumerate(descs)
    }


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
