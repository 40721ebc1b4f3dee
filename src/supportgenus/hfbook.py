"""Heegaard Floer bookkeeping for large integer surgeries on the trefoil.

This module does no Floer theory.  It records, as formal data, the
known summand structure of HF^+ of +(n+1) surgery on the left-handed
trefoil for n > 6, and provides the small arithmetic consequences the
support-genus arguments consume: hat ranks, the reduced rank, and the
pigeonhole excess that forces some contact class outside the tower
summands.

Each Spin^c slot is a pair (towers, finite_z): the number of one-tower
summands and the number of finite Z summands.  For n > 6 the structure
is one distinguished slot carrying one tower plus one extra Z, and n
plain slots carrying a single tower.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Tuple

from .errors import ToolkitError


class SurgeryRangeError(ToolkitError):
    """The requested surgery parameter is outside the recorded range."""


@dataclass(frozen=True)
class SpincSlot:
    """Summand counts of one Spin^c structure."""

    towers: int
    finite_z: int

    def __post_init__(self):
        for count in (self.towers, self.finite_z):
            if not isinstance(count, int) or isinstance(count, bool):
                raise ValueError(f"summand counts must be ints, got {count!r}")
            if count < 0:
                raise ValueError("summand counts must be nonnegative")


@dataclass(frozen=True)
class FormalHFModule:
    """HF^+ of a closed manifold, slot by slot."""

    slots: Tuple[SpincSlot, ...]

    @property
    def spinc_count(self) -> int:
        return len(self.slots)

    @property
    def total_towers(self) -> int:
        return sum(s.towers for s in self.slots)


def hf_plus_surgery(n: int) -> FormalHFModule:
    """HF^+ of +(n+1) surgery on the left-handed trefoil, for n > 6.

    Slot 0 carries one tower and one extra finite Z; the remaining n
    slots carry one tower each.  Smaller n have genuinely different
    summand structure and are refused rather than guessed.
    """
    if not isinstance(n, int) or n <= 6:
        raise SurgeryRangeError(
            f"surgery parameter n={n!r} is outside the recorded range n > 6; "
            "small surgeries have different summand structure"
        )
    return FormalHFModule(slots=(SpincSlot(towers=1, finite_z=1),) + tuple(SpincSlot(1, 0) for _ in range(n)))


def hf_hat(module: FormalHFModule) -> Tuple[int, ...]:
    """Rank of the hat flavor per slot: each tower contributes one and
    each finite Z contributes two (it survives at both ends of the long
    exact sequence)."""
    return tuple(s.towers + 2 * s.finite_z for s in module.slots)


def hf_red_rank(module: FormalHFModule) -> int:
    """Rank of the reduced module: the finite summands only."""
    return sum(s.finite_z for s in module.slots)


def pigeonhole_excess(class_count: int, module: FormalHFModule) -> int:
    """How many of ``class_count`` contact classes cannot sit inside
    tower summands.

    The count rests on two premises about the classes, which the caller
    answers for: they are distinct and primitive, and no two of them fit
    in a single tower summand.

    >>> pigeonhole_excess(9, hf_plus_surgery(7))
    1
    """
    if class_count < 0:
        raise ValueError("class_count must be nonnegative")
    return max(0, class_count - module.total_towers)


def trefoil_rotation_list(n: int) -> Tuple[int, ...]:
    """Rotation numbers of the Legendrian right-handed trefoils with
    Thurston-Bennequin invariant -n: the n + 2 values 2i - n - 3 for
    i = 1, ..., n + 2.

    >>> trefoil_rotation_list(1)
    (-2, 0, 2)
    """
    if not isinstance(n, int) or isinstance(n, bool) or n < 1:
        raise SurgeryRangeError(f"rotation list is recorded for n >= 1, got {n!r}")
    return tuple(2 * i - n - 3 for i in range(1, n + 3))
