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
the fixed point exists and does not depend on fact order; a fact runs
again only when a descriptor it reads has changed, so the work follows
the bound changes, not facts x sweeps.  Descriptors with equal
(topo_type, tb, rot) are identified; fixtures that rely on such
identifications carry classification-axiom facts recording why the
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
            if self.genus is None or self.genus < 0:
                raise FactError(f"page-witness on {self.subject.label()} needs a genus >= 0")
        elif self.kind == POSITIVE_TB:
            if self.subject.tb <= 0:
                raise FactError(
                    f"positive-tb asserted on {self.subject.label()}, whose tb is not positive"
                )
        elif self.kind == STABILIZATION_OF:
            if self.parent is None or self.sign not in (1, -1):
                raise FactError("stabilization-of needs a parent and a sign of +1 or -1")
            expected = stabilized(self.parent, self.sign)
            if (self.subject.topo_type, self.subject.tb, self.subject.rot) != (
                expected.topo_type,
                expected.tb,
                expected.rot,
            ):
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
    if sign not in (1, -1):
        raise ValueError(f"stabilization sign must be +1 or -1, got {sign}")
    return LegendrianDesc(desc.topo_type, desc.tb - 1, desc.rot + sign, desc.tags)


class SGFactBase:
    """A mutable collection of descriptors and facts.

    stabilization-of facts validate that tb drops by exactly one from
    parent to subject, so chains cannot close into cycles.
    """

    def __init__(self, facts: Iterable[SGFact] = ()):
        self.facts: List[SGFact] = []
        for fact in facts:
            self.add(fact)

    def add(self, fact: SGFact) -> SGFact:
        if not isinstance(fact, SGFact):
            raise FactError(f"expected SGFact, got {type(fact).__name__}")
        self.facts.append(fact)
        return fact

    def descriptors(self) -> Tuple[LegendrianDesc, ...]:
        seen: Dict[LegendrianDesc, LegendrianDesc] = {}
        for fact in self.facts:
            for desc in (fact.subject, fact.parent, fact.other):
                if desc is not None and desc not in seen:
                    seen[desc] = desc
        return tuple(seen)

    def __iter__(self):
        return iter(self.facts)

    def __len__(self):
        return len(self.facts)

    def __eq__(self, other):
        return isinstance(other, SGFactBase) and self.facts == other.facts

    def __repr__(self):
        return f"SGFactBase({len(self.facts)} facts, {len(self.descriptors())} descriptors)"


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

    def is_pinned(self) -> bool:
        return self.hi is not None and self.lo == self.hi


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


class _Cell:
    __slots__ = ("lo", "hi", "trace")

    def __init__(self):
        self.lo = 0
        self.hi: Optional[int] = None
        self.trace: List[TraceStep] = []


# The rules as data.  Given a fact and its description, each kind
# compiles to moves (bound, target, source, constant, rule, reason), in
# the order a sweep applies them; a move tightens one bound of its target
# to the constant, or to the same bound of its source.  Classification
# axioms carry no bound; they justify identifications the fixtures make.
_RULES: Dict[str, Callable[[SGFact, str], Tuple[tuple, ...]]] = {
    PAGE_WITNESS: lambda f, why: (("hi", f.subject, None, f.genus, "R1", why),),
    POSITIVE_TB: lambda f, why: (("lo", f.subject, None, 1, "R3", why),),
    NONPLANAR_SURGERY: lambda f, why: (("lo", f.subject, None, 1, "R5", why),),
    STABILIZATION_OF: lambda f, why: (
        ("hi", f.subject, f.parent, None, "R2", why + ", upper bound inherited"),
        ("lo", f.parent, f.subject, None, "R2", why + ", lower bound inherited"),
    ),
    ORIENTATION_MIRROR: lambda f, why: tuple(
        (bound, one, two, None, "R6", why)
        for one, two in ((f.subject, f.other), (f.other, f.subject))
        for bound in ("lo", "hi")
    ),
    CLASSIFICATION_AXIOM: lambda f, why: (),
}


def derive_bounds(base: SGFactBase) -> Dict[LegendrianDesc, SGInterval]:
    """Run the rules to a fixed point and return an interval per descriptor.

    Rules only tighten intervals, so the result is the least fixed point
    and is independent of fact order; traces record one justification
    for every improvement and can be replayed with
    :func:`replay_trace`.  An empty interval raises
    :class:`InconsistentFactsError` naming the clashing justifications.

    Sweeps run the facts in ascending index, but only the dirty ones: all
    in the first sweep, later those reading a cell that changed since
    they last ran.  A change made while fact i runs makes each reader
    j > i dirty in this sweep and each reader j <= i (i too) in the next.
    A clean fact cannot tighten anything, as its sources are unchanged
    and its targets only tighter, so the steps, traces and clash are
    those of re-running every fact until a sweep changes nothing.
    """
    cells = {desc: _Cell() for desc in base.descriptors()}
    moves = [_RULES[fact.kind](fact, fact.describe()) for fact in base.facts]
    readers: Dict[LegendrianDesc, List[int]] = {desc: [] for desc in cells}
    for index, fact_moves in enumerate(moves):
        for source in dict.fromkeys(move[2] for move in fact_moves if move[2] is not None):
            readers[source].append(index)

    def tighten(desc: LegendrianDesc, bound: str, value: int, rule: str, reason: str) -> bool:
        c = cells[desc]
        old = getattr(c, bound)
        if old is not None and (value <= old if bound == "lo" else value >= old):
            return False
        setattr(c, bound, value)
        c.trace.append(TraceStep(rule=rule, bound=bound, value=value, reason=reason))
        if c.hi is not None and c.lo > c.hi:
            last = {step.bound: step for step in c.trace}
            raise InconsistentFactsError(desc, last["lo"], last["hi"])
        return True

    queue = [(0, index) for index in range(len(moves))]  # (sweep, fact), a sorted heap
    queued = set(range(len(moves)))
    while queue:
        sweep, index = heapq.heappop(queue)
        queued.discard(index)
        for bound, target, source, value, rule, reason in moves[index]:
            if source is not None:
                value = getattr(cells[source], bound)
                if value is None:
                    continue
            if tighten(target, bound, value, rule, reason):
                for reader in readers[target]:
                    if reader not in queued:
                        queued.add(reader)
                        heapq.heappush(queue, (sweep + (reader <= index), reader))

    return {
        desc: SGInterval(lo=c.lo, hi=c.hi, trace=tuple(c.trace))
        for desc, c in cells.items()
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
