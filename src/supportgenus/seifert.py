"""Seifert pairing of a disk-with-bands page and page-framing self-linking.

For the band-core basis a_0, ..., a_{n-1} the pairing is V[i][j] =
lk(a_i, a_j pushed off in the positive normal direction).  With the
conventions of :mod:`supportgenus.ribbon` the assembly is forced:

* diagonal: V[i][i] is band i's full-twist count plus its signed
  self-crossing writhe (the framing of the closed core);
* off diagonal: the cores of bands i and j cross once inside the disk
  when their feet interleave and c_ij times outside it, so
  V[i][j] = (c_ij - J_ij) / 2 and V[j][i] = (c_ij + J_ij) / 2,
  where J is the intersection form.  The crossing parity constraint
  enforced at surface construction makes both entries integers.

Consequently V - V^T = -J; the package fixes this sign once and tests
pin it.  The page framing of a class K is the value K^T V K of the
associated quadratic form, which is exactly the Thurston-Bennequin
invariant of a Legendrian realization of K on a supporting page.

K^T V K depends only on the symmetric part V + V^T, whose diagonal is
2 (t_i + c_ii) and whose off-diagonal entries are the crossing counts
c_ij, since (c_ij - J_ij) / 2 + (c_ij + J_ij) / 2 = c_ij.  Over the
support S = {i : k_i != 0} of K this gives

    K^T V K = sum_{i in S} k_i^2 (t_i + c_ii) + sum_{i < j in S} k_i k_j c_ij,

so the page framing reads O(|S|^2) twists and crossing counts and builds
no matrix; :func:`seifert_matrix` stays as the pairing itself and as
the dense route the tests compare it against.
"""

from __future__ import annotations

from dataclasses import dataclass

from .ribbon import CurveClass, RibbonSurface, require_same_surface
from .zlinalg import IntMatrix


@dataclass(frozen=True)
class SeifertMatrix:
    """The pairing V of a page, in the band-core basis."""

    surface: RibbonSurface
    pairing: IntMatrix

    @property
    def skew_part(self) -> IntMatrix:
        """V - V^T, which equals minus the intersection form."""
        return IntMatrix(
            [
                [self.pairing[i, j] - self.pairing[j, i] for j in range(self.pairing.cols)]
                for i in range(self.pairing.rows)
            ],
            cols=self.pairing.cols,
        )


def seifert_matrix(surface: RibbonSurface) -> SeifertMatrix:
    """Assemble the Seifert pairing from the band data.

    >>> from .ribbon import build_surface
    >>> seifert_matrix(build_surface(1, [0, 0], twists=[3])).pairing
    IntMatrix([[3]])
    """
    n = surface.band_count
    iform = surface.intersection
    v = [[0] * n for _ in range(n)]
    for i in range(n):
        v[i][i] = surface.twists[i] + surface.crossing_count(i, i)
    for i in range(n):
        for j in range(i + 1, n):
            c = surface.crossing_count(i, j)
            v[i][j] = (c - iform[i][j]) // 2
            v[j][i] = (c + iform[i][j]) // 2
    return SeifertMatrix(surface=surface, pairing=IntMatrix(v, cols=n))


def page_framing_self_linking(surface: RibbonSurface, curve: CurveClass) -> int:
    """K^T V K: the framing the page induces on a curve in class K.

    For a homologically essential K on a page supporting the standard
    tight contact structure this is the Thurston-Bennequin invariant of
    the Legendrian realization of K.  The value is quadratic in the
    class and insensitive to orientation reversal.

    Evaluated over the support S of K as sum_{i in S} k_i^2 (t_i + c_ii)
    + sum_{i < j in S} k_i k_j c_ij, which costs O(|S|^2) lookups of
    twists and crossing counts, whatever the number of bands.

    >>> from .ribbon import build_surface
    >>> surface = build_surface(2, [0, 1, 0, 1], twists=(-1, 5), crossings={(0, 1): -1})
    >>> page_framing_self_linking(surface, CurveClass(surface, (1, 1)))
    3
    """
    require_same_surface(surface, curve)
    support = [(i, k) for i, k in enumerate(curve.coefficients) if k]
    tb = 0
    for pos, (i, ki) in enumerate(support):
        tb += ki * ki * (surface.twists[i] + surface.crossing_count(i, i))
        for j, kj in support[pos + 1 :]:
            tb += ki * kj * surface.crossing_count(i, j)
    return tb
