"""Open book pages as disks with bands.

A page is encoded combinatorially: an oriented disk, ``band_count``
bands attached to its boundary circle, the cyclic order of the 2n band
feet, an integer count of full twists per band, and signed crossing
counts between band pairs in the planar projection.  This is complete
embedding data for a disk-with-bands surface in the three sphere, which
is exactly what the Seifert pairing module needs.

Conventions fixed here and relied on everywhere else:

* ``feet_order`` lists band indices; each band appears exactly twice.
  Positions are read counterclockwise along the disk boundary.
* The homology basis a_0, ..., a_{n-1} of the page consists of the band
  cores closed through the disk, a_i oriented from its first listed
  foot to its second.
* The intersection number <a_i, a_j> is +1 when the feet interleave as
  i j i j reading from i's first foot, -1 for the mirror pattern, and 0
  when the feet do not interleave.
* Crossing counts must agree with interleaving mod 2 (two closed curves
  in the plane cross an even number of times in total), which is the
  planarity constraint a genuine embedding satisfies.

Surfaces and curves are immutable; operations return fresh objects.
"""

from __future__ import annotations

import operator
from collections import Counter
from dataclasses import dataclass
from typing import Dict, Mapping, Optional, Sequence, Tuple

from .errors import ToolkitError
from .zlinalg import IntMatrix


class MalformedSurfaceError(ToolkitError):
    """The band data does not describe an orientable embedded page."""


class CurveMismatchError(ToolkitError):
    """A curve was used with a surface it does not live on."""


def interleaving_form(feet: Sequence[int], band_count: int):
    """<a_i, a_j> from foot interleaving; chords through a disk cross at
    most once, so entries are -1, 0 or +1.

    One walk along the feet keeps the open bands in opening order.  When
    band i closes, the bands opened after it and still open are exactly
    those reading i j i j from i's first foot, so the cost is the number
    of bands plus the number of interleaved pairs, and a list search and
    deletion per band.

    >>> interleaving_form([0, 1, 2, 0, 2, 1], 3)
    [[0, 1, 1], [-1, 0, 0], [-1, 0, 0]]
    """
    form = [[0] * band_count for _ in range(band_count)]
    seen = set()
    opened = []
    for band in feet:
        if band not in seen:
            seen.add(band)
            opened.append(band)
            continue
        k = opened.index(band)
        row = form[band]
        for other in opened[k + 1 :]:
            row[other] = 1
            form[other][band] = -1
        del opened[k]
    return form


def _is_canonical(band_count: int, crossings) -> bool:
    """Whether ``crossings`` is a dict from pairs of ints 0 <= i <= j <
    band_count to ints, tested in bulk: then only zero counts and the
    order differ from the canonical form."""
    if type(crossings) is not dict:
        return False
    if not crossings:
        return True
    keys = crossings.keys()
    if set(map(type, keys)) != {tuple} or set(map(len, keys)) != {2}:
        return False
    firsts, seconds = zip(*keys)
    return (
        set(map(type, firsts)) | set(map(type, seconds)) | set(map(type, crossings.values())) == {int}
        and min(firsts) >= 0
        and max(seconds) < band_count
        and all(map(operator.le, firsts, seconds))
    )


def _canonical_crossings(band_count: int, crossings) -> Tuple[Tuple[Tuple[int, int], int], ...]:
    if _is_canonical(band_count, crossings):
        return tuple(sorted(filter(operator.itemgetter(1), crossings.items())))
    out: Dict[Tuple[int, int], int] = {}
    items = crossings.items() if isinstance(crossings, Mapping) else crossings
    for key, count in items:
        i, j = key
        if not (0 <= i < band_count and 0 <= j < band_count):
            raise MalformedSurfaceError(f"crossing entry names band pair {key} outside 0..{band_count - 1}")
        if not isinstance(count, int):
            raise MalformedSurfaceError(f"crossing count for {key} must be int")
        pair = (i, j) if i <= j else (j, i)
        out[pair] = out.get(pair, 0) + count
    return tuple(sorted((pair, count) for pair, count in out.items() if count != 0))


class RibbonSurface:
    """A disk with bands, together with its derived topology.

    Derived on construction: Euler characteristic (1 - band_count),
    number of boundary components (by walking the boundary word), genus,
    and the intersection form on the band-core basis of first homology.
    """

    __slots__ = (
        "band_count",
        "feet_order",
        "twists",
        "crossings",
        "euler_characteristic",
        "boundary_components",
        "genus",
        "_iform",
        "_crossmap",
    )

    def __init__(
        self,
        band_count: int,
        feet_order: Sequence[int],
        twists: Optional[Sequence[int]] = None,
        crossings=None,
    ):
        n = int(band_count)
        if n < 0:
            raise MalformedSurfaceError("band_count must be nonnegative")
        feet = tuple(feet_order)
        if len(feet) != 2 * n:
            raise MalformedSurfaceError(f"feet_order has {len(feet)} entries, expected {2 * n}")
        for label in feet:
            if not (isinstance(label, int) and 0 <= label < n):
                raise MalformedSurfaceError(f"feet_order entry {label!r} is not a band index in 0..{n - 1}")
        counts = Counter(feet)
        for i in range(n):
            if counts[i] != 2:
                raise MalformedSurfaceError(f"band {i} has {counts[i]} feet in feet_order, expected 2")

        tw = tuple(twists) if twists is not None else (0,) * n
        if len(tw) != n or any(not isinstance(t, int) for t in tw):
            raise MalformedSurfaceError(f"twists must be {n} integers")

        cross = _canonical_crossings(n, crossings or {})
        iform = tuple(tuple(row) for row in interleaving_form(feet, n))

        object.__setattr__(self, "band_count", n)
        object.__setattr__(self, "feet_order", feet)
        object.__setattr__(self, "twists", tw)
        object.__setattr__(self, "crossings", cross)
        object.__setattr__(self, "_iform", iform)
        object.__setattr__(self, "_crossmap", dict(cross))

        # Parity holds exactly when the pairs with an odd count are the
        # interleaved pairs; only a page that breaks it walks every pair
        # for the first offender.
        odd = [pair for pair, count in cross if count % 2 and pair[0] != pair[1]]
        interleaved = sum(n - row.count(0) for row in iform) // 2
        if len(odd) != interleaved or not all(iform[i][j] for i, j in odd):
            self._first_parity_error()

        chi = 1 - n
        b = self._count_boundary_components()
        twice_genus = 2 - chi - b
        if twice_genus < 0 or twice_genus % 2:
            raise MalformedSurfaceError(
                f"boundary walk gave chi={chi}, b={b}; 2 - chi - b = {twice_genus} is not an even nonnegative number"
            )
        object.__setattr__(self, "euler_characteristic", chi)
        object.__setattr__(self, "boundary_components", b)
        object.__setattr__(self, "genus", twice_genus // 2)

    def __setattr__(self, name, value):
        raise AttributeError("RibbonSurface is immutable")

    def _first_parity_error(self) -> None:
        n, iform = self.band_count, self._iform
        for i in range(n):
            for j in range(i + 1, n):
                count = self._crossmap.get((i, j), 0)
                if (count - iform[i][j]) % 2:
                    detail = (
                        "their closed cores meet once inside the disk, so they must cross an odd number of times outside"
                        if iform[i][j]
                        else "their closed cores are disjoint inside the disk, so they must cross an even number of times outside"
                    )
                    raise MalformedSurfaceError(
                        f"crossing parity: bands {i} and {j} have crossing count {count} "
                        f"with intersection number {iform[i][j]}; {detail}"
                    )

    def _count_boundary_components(self) -> int:
        feet = self.feet_order
        m = len(feet)
        if m == 0:
            return 1
        partner, opened = [0] * m, {}
        for pos, label in enumerate(feet):
            first = opened.pop(label, None)
            if first is None:
                opened[label] = pos
            else:
                partner[first], partner[pos] = pos, first
        # Corner 2p is the counterclockwise entry of foot p, corner
        # 2p + 1 its exit.  The boundary permutation sends an exit
        # corner along the disk gap to the next entry corner, and an
        # entry corner across its band to the partner foot's exit.
        seen = [False] * (2 * m)
        cycles = 0
        for start in range(2 * m):
            if seen[start]:
                continue
            cycles += 1
            c = start
            while not seen[c]:
                seen[c] = True
                pos, is_exit = divmod(c, 2)
                c = 2 * ((pos + 1) % m) if is_exit else 2 * partner[pos] + 1
        return cycles

    # -- queries ---------------------------------------------------------

    def crossing_count(self, i: int, j: int) -> int:
        pair = (i, j) if i <= j else (j, i)
        return self._crossmap.get(pair, 0)

    @property
    def intersection(self) -> Tuple[Tuple[int, ...], ...]:
        return self._iform

    def __eq__(self, other) -> bool:
        return isinstance(other, RibbonSurface) and (
            self.band_count,
            self.feet_order,
            self.twists,
            self.crossings,
        ) == (other.band_count, other.feet_order, other.twists, other.crossings)

    def __hash__(self):
        return hash((self.band_count, self.feet_order, self.twists, self.crossings))

    def __repr__(self) -> str:
        return (
            f"RibbonSurface(bands={self.band_count}, genus={self.genus}, "
            f"boundary={self.boundary_components}, feet={list(self.feet_order)})"
        )


def build_surface(
    band_count: int,
    feet_order: Sequence[int],
    twists: Optional[Sequence[int]] = None,
    crossings=None,
) -> RibbonSurface:
    """Assemble and validate a page from its band data.

    >>> build_surface(2, [0, 1, 0, 1], crossings={(0, 1): 1}).genus
    1
    >>> build_surface(2, [0, 0, 1, 1]).boundary_components
    3
    """
    return RibbonSurface(band_count, feet_order, twists, crossings)


def _is_integer(value) -> bool:
    return isinstance(value, int) and not isinstance(value, bool)


@dataclass(frozen=True)
class CurveClass:
    """A first homology class on a page, with an optional traversal word.

    ``coefficients`` are taken in the band-core basis.  ``traversal``,
    when present, is the cyclic word of signed band runs of an embedded
    representative; its abelianization must match the coefficients.
    """

    surface: RibbonSurface
    coefficients: Tuple[int, ...]
    traversal: Optional[Tuple[Tuple[int, int], ...]] = None

    def __post_init__(self):
        coeffs = self.coefficients
        if type(coeffs) is not tuple or not set(map(type, coeffs)) <= {int}:
            coeffs = tuple(coeffs)
            for i, c in enumerate(coeffs):
                if not _is_integer(c):
                    raise CurveMismatchError(f"curve coefficient {i} is {c!r}, not an int")
            coeffs = tuple(map(int, coeffs))
        object.__setattr__(self, "coefficients", coeffs)
        if len(coeffs) != self.surface.band_count:
            raise CurveMismatchError(
                f"curve has {len(coeffs)} coefficients on a page with {self.surface.band_count} bands"
            )
        if self.traversal is not None:
            word = tuple((b, s) for b, s in self.traversal)
            if not {type(x) for pair in word for x in pair} <= {int}:
                for i, pair in enumerate(word):
                    if not all(map(_is_integer, pair)):
                        raise CurveMismatchError(f"traversal entry {i} is {pair!r}, not a pair of ints")
                word = tuple((int(b), int(s)) for b, s in word)
            object.__setattr__(self, "traversal", word)
            totals = [0] * self.surface.band_count
            for band, sign in word:
                if not 0 <= band < self.surface.band_count:
                    raise CurveMismatchError(f"traversal names band {band} outside the page")
                if sign not in (1, -1):
                    raise CurveMismatchError(f"traversal signs must be +1 or -1, got {sign}")
                totals[band] += sign
            if tuple(totals) != coeffs:
                raise CurveMismatchError(
                    f"traversal abelianizes to {tuple(totals)} but the declared class is {coeffs}"
                )


def require_same_surface(surface: RibbonSurface, curve: CurveClass) -> None:
    """Raise :class:`CurveMismatchError` unless ``curve`` lives on ``surface``."""
    if curve.surface != surface:
        raise CurveMismatchError("curve was built on a different page")


def is_nonseparating(surface: RibbonSurface, curve: CurveClass) -> bool:
    """Whether the class is homologically essential on the page.

    This is the Legendrian realizability gate: a curve on a supporting
    page can be made Legendrian with contact framing equal to page
    framing exactly when it is homologically nontrivial.
    """
    require_same_surface(surface, curve)
    return any(c != 0 for c in curve.coefficients)


def intersection_form(surface: RibbonSurface) -> IntMatrix:
    """Skew-symmetric intersection pairing on the band-core basis."""
    return IntMatrix(surface.intersection, cols=surface.band_count)


def dehn_twist_action(surface: RibbonSurface, curve: CurveClass, sign: int) -> IntMatrix:
    """Homological action of the Dehn twist along ``curve``.

    The twist acts as the transvection x -> x + sign * <x, c> * c, which
    preserves the intersection form for either handedness.  ``sign`` is
    +1 for a right-handed twist and -1 for a left-handed one.
    """
    require_same_surface(surface, curve)
    if sign not in (1, -1):
        raise ValueError(f"twist sign must be +1 or -1, got {sign}")
    n = surface.band_count
    gamma = curve.coefficients
    jg = intersection_form(surface).mul_vec(gamma)
    return IntMatrix(
        [[(1 if i == j else 0) + sign * gamma[i] * jg[j] for j in range(n)] for i in range(n)],
        cols=n,
    )


@dataclass(frozen=True)
class OpenBook:
    """A page with a monodromy word of signed Dehn twists.

    The word is stored innermost first; each entry is (curve, sign).
    Nothing here verifies which closed manifold the open book presents;
    that is declared metadata carried by fixtures.
    """

    page: RibbonSurface
    monodromy: Tuple[Tuple[CurveClass, int], ...] = ()

    def __post_init__(self):
        word = tuple((c, int(s)) for c, s in self.monodromy)
        object.__setattr__(self, "monodromy", word)
        for curve, sign in word:
            require_same_surface(self.page, curve)
            if sign not in (1, -1):
                raise ValueError(f"monodromy signs must be +1 or -1, got {sign}")


def stabilize(open_book: OpenBook, insert_at: Tuple[int, int]) -> OpenBook:
    """Positive stabilization: attach one new band and one new positive twist.

    ``insert_at`` gives the two positions the new feet occupy in the
    stabilized feet order (0 <= p < q <= 2n + 1).  The new band carries
    one negative full twist, so the new twist curve has page framing -1,
    and it is laid over the old bands with one crossing for each band it
    interleaves with, keeping the embedding data planar-consistent.
    Existing curve classes extend by a zero coefficient; the monodromy
    gains a right-handed twist along the new band core.

    Euler characteristic drops by exactly one.
    """
    page = open_book.page
    n = page.band_count
    p, q = insert_at
    if not (0 <= p < q <= 2 * n + 1):
        raise MalformedSurfaceError(
            f"stabilization foot positions {insert_at} must satisfy 0 <= p < q <= {2 * n + 1}"
        )
    feet = list(page.feet_order)
    feet.insert(p, n)
    feet.insert(q, n)

    interleave = interleaving_form(feet, n + 1)
    crossings = dict(page.crossings)
    for j in range(n):
        if interleave[n][j]:
            crossings[(j, n)] = interleave[n][j]
    new_page = RibbonSurface(n + 1, feet, tuple(page.twists) + (-1,), crossings=crossings)

    def lift(curve: CurveClass) -> CurveClass:
        return CurveClass(new_page, curve.coefficients + (0,), curve.traversal)

    core = CurveClass(new_page, (0,) * n + (1,), traversal=((n, 1),))
    word = tuple((lift(c), s) for c, s in open_book.monodromy) + ((core, 1),)
    return OpenBook(page=new_page, monodromy=word)
