"""Rotation numbers via the chain complex of a Stein 2-handlebody.

The setup: a planar open book whose page is a disk with p one-handles
(bands), with monodromy a product of right-handed twists along curves
gamma_1, ..., gamma_l, plus one distinguished surgery curve K.  Each
curve contributes a Stein 2-handle; its attaching data is the traversal
vector over the one-handles.  The boundary operator of the induced
chain complex has those traversal vectors as columns, and the first
Chern class evaluates on a 2-cycle through the base rotation numbers.

The rotation number of the distinguished curve is then <c_1, h> for a
2-cycle h in ker(d_2) normalized to coefficient +1 on the distinguished
handle.  When the kernel has rank one this is independent of every
choice; higher rank is reported as ambiguity, never silently resolved.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional, Sequence, Tuple

from .errors import ToolkitError
from .zlinalg import IntMatrix, kernel_basis

Run = Tuple[int, int]


class SteinPositivityError(ToolkitError):
    """A monodromy twist was not right-handed."""


class KernelObstructionError(ToolkitError):
    """No kernel vector has unit coefficient on the distinguished curve."""

    def __init__(self, kernel_rank: int, coefficient_gcd: int):
        self.kernel_rank = kernel_rank
        self.coefficient_gcd = coefficient_gcd
        super().__init__(
            f"ker(d2) has rank {kernel_rank} and its distinguished coefficients have gcd "
            f"{coefficient_gcd}; a cycle with coefficient +1 on the distinguished curve is required"
        )


class KernelAmbiguityError(ToolkitError):
    """ker(d2) has rank above one, so the pairing may depend on the cycle."""

    def __init__(self, basis: Tuple[Tuple[int, ...], ...], pairings: Tuple[int, ...]):
        self.basis = basis
        self.pairings = pairings
        super().__init__(
            f"ker(d2) has rank {len(basis)}; c1 pairings over a Hermite-reduced kernel basis are "
            f"{list(pairings)}, and no canonical cycle is chosen"
        )


def base_rotation_planar(runs: Sequence[Run]) -> int:
    """Base rotation number of a curve on the trivial planar open book,
    from its cyclic traversal word of signed one-handle runs.

    The convention counts sign alternations around the cyclic word and
    returns minus half that count.  It is calibrated against the
    standard one-handle diagrams: a single run in either direction
    gives 0, and a two-handle zigzag (one run positive, one negative)
    gives -1.  It is a convention, not a derivation; curves
    outside this calibrated family should carry explicit base rotations
    in the input.

    >>> base_rotation_planar([(1, 1)])
    0
    >>> base_rotation_planar([(0, 1), (1, -1)])
    -1
    """
    word = tuple((h, s) for h, s in runs)
    for i, run in enumerate(word):
        if not all(isinstance(x, int) and not isinstance(x, bool) for x in run):
            raise ValueError(f"run {i} is {run!r}, not a pair of ints")
        if run[1] not in (1, -1):
            raise ValueError(f"run signs must be +1 or -1, got {run[1]}")
    if not word:
        return 0
    signs = [s for _h, s in word]
    alternations = sum(1 for i, s in enumerate(signs) if s != signs[(i + 1) % len(signs)])
    return -(alternations // 2)


@dataclass(frozen=True)
class SteinCurve:
    """One 2-handle: a name, its traversal vector over the one-handles,
    the traversal word it came from (if any), and its base rotation."""

    name: str
    traversal: Tuple[int, ...]
    rotation: int
    runs: Optional[Tuple[Run, ...]] = None
    twist_sign: int = 1


@dataclass(frozen=True)
class SteinProblem:
    """The full rotation-number problem for one surgery diagram.

    All curves except the distinguished one are monodromy twist curves
    and must be right-handed; this is the Stein fillability premise and
    it is validated, not assumed.
    """

    one_handles: Tuple[str, ...]
    curves: Tuple[SteinCurve, ...]
    distinguished: int

    def __post_init__(self):
        p = len(self.one_handles)
        if len(set(self.one_handles)) != p:
            raise ValueError("one-handle labels must be distinct")
        names = [c.name for c in self.curves]
        if len(set(names)) != len(names):
            raise ValueError("curve names must be distinct")
        if not 0 <= self.distinguished < len(self.curves):
            raise ValueError(f"distinguished index {self.distinguished} out of range")
        for idx, curve in enumerate(self.curves):
            if len(curve.traversal) != p:
                raise ValueError(
                    f"curve {curve.name!r} has a traversal vector of length {len(curve.traversal)}, expected {p}"
                )
            if curve.runs is not None:
                totals = [0] * p
                for handle, sign in curve.runs:
                    if not 0 <= handle < p:
                        raise ValueError(f"curve {curve.name!r} runs over handle index {handle} outside 0..{p - 1}")
                    totals[handle] += sign
                if tuple(totals) != curve.traversal:
                    raise ValueError(
                        f"curve {curve.name!r} runs abelianize to {tuple(totals)}, "
                        f"not the declared traversal {curve.traversal}"
                    )
            if idx != self.distinguished and curve.twist_sign != 1:
                raise SteinPositivityError(
                    f"monodromy twist along {curve.name!r} has sign {curve.twist_sign}; "
                    "the Stein fillability premise requires right-handed twists only"
                )

    @property
    def distinguished_curve(self) -> SteinCurve:
        return self.curves[self.distinguished]


@dataclass(frozen=True)
class RotationResult:
    """rot = <c1, h> together with the witnesses."""

    rotation: int
    cycle: Tuple[int, ...]
    c1: Tuple[int, ...]


def boundary_matrix(problem: SteinProblem) -> IntMatrix:
    """The p x (number of curves) boundary operator; column j is the
    traversal vector of curve j over the one-handles."""
    return IntMatrix.from_columns([c.traversal for c in problem.curves], rows=len(problem.one_handles))


def c1_cochain(problem: SteinProblem) -> Tuple[int, ...]:
    """Base rotation numbers in curve order; evaluating the first Chern
    class on a 2-cycle pairs against exactly this vector."""
    return tuple(c.rotation for c in problem.curves)


def format_cycle(problem: SteinProblem, cycle: Sequence[int]) -> str:
    """Human-readable combination like 'S[K] + S[gamma_1]'."""
    parts = []
    for coeff, curve in zip(cycle, problem.curves):
        if coeff == 0:
            continue
        term = f"S[{curve.name}]"
        if abs(coeff) != 1:
            term = f"{abs(coeff)}*{term}"
        parts.append((coeff > 0, term))
    if not parts:
        return "0"
    out = parts[0][1] if parts[0][0] else f"-{parts[0][1]}"
    for positive, term in parts[1:]:
        out += f" + {term}" if positive else f" - {term}"
    return out


def rotation_number(problem: SteinProblem) -> RotationResult:
    """Rotation number of the distinguished curve.

    Finds the 2-cycle h in ker(d2) with coefficient +1 on the
    distinguished curve and returns <c1, h>.  Raises
    :class:`KernelAmbiguityError` when the kernel rank exceeds one and
    :class:`KernelObstructionError` when no admissible cycle exists.
    """
    basis = kernel_basis(boundary_matrix(problem))
    c1 = c1_cochain(problem)
    k = problem.distinguished
    if len(basis) != 1:
        if not basis:
            raise KernelObstructionError(kernel_rank=0, coefficient_gcd=0)
        pairings = tuple(sum(a * b for a, b in zip(c1, vec)) for vec in basis)
        raise KernelAmbiguityError(basis=basis, pairings=pairings)
    vec = basis[0]
    if abs(vec[k]) != 1:
        raise KernelObstructionError(kernel_rank=1, coefficient_gcd=abs(vec[k]))
    h = tuple(x * vec[k] for x in vec)
    rot = sum(a * b for a, b in zip(c1, h))
    return RotationResult(rotation=rot, cycle=h, c1=c1)
