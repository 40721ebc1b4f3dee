"""Exact linear algebra over the integers.

Everything in this module works with plain Python ints, so arithmetic is
arbitrary precision and nothing ever touches floating point.  The three
workhorses are :func:`smith_normal_form`, :func:`kernel_basis` and
:func:`solve_integer`; the rest is the small immutable matrix container
they share with the topological modules.

All public functions are pure: matrices are immutable and every
operation returns a fresh object.
"""

from __future__ import annotations

from functools import cached_property
from math import gcd
from typing import Iterable, Optional, Sequence


class IntMatrix:
    """An immutable matrix of Python ints.

    >>> A = IntMatrix([[2, 4], [6, 8]])
    >>> (A.rows, A.cols)
    (2, 2)
    >>> A @ IntMatrix.identity(2) == A
    True
    """

    __slots__ = ("rows", "cols", "data")

    def __init__(self, data: Iterable[Iterable[int]], *, cols: Optional[int] = None):
        table = tuple(tuple(row) for row in data)
        for row in table:
            for x in row:
                if not isinstance(x, int):
                    raise TypeError(f"matrix entries must be int, got {type(x).__name__}")
        widths = {len(row) for row in table}
        if len(widths) > 1:
            raise ValueError(f"ragged rows: widths {sorted(widths)}")
        ncols = widths.pop() if widths else (cols if cols is not None else 0)
        if cols is not None and ncols != cols:
            raise ValueError(f"expected {cols} columns, got {ncols}")
        object.__setattr__(self, "rows", len(table))
        object.__setattr__(self, "cols", ncols)
        object.__setattr__(self, "data", table)

    def __setattr__(self, name, value):
        raise AttributeError("IntMatrix is immutable")

    # -- constructors -------------------------------------------------

    @classmethod
    def identity(cls, n: int) -> "IntMatrix":
        return cls([[1 if i == j else 0 for j in range(n)] for i in range(n)])

    @classmethod
    def zero(cls, rows: int, cols: int) -> "IntMatrix":
        return cls([[0] * cols for _ in range(rows)], cols=cols)

    @classmethod
    def from_columns(cls, columns: Sequence[Sequence[int]], *, rows: Optional[int] = None) -> "IntMatrix":
        cols = [tuple(c) for c in columns]
        if cols:
            heights = {len(c) for c in cols}
            if len(heights) > 1:
                raise ValueError(f"ragged columns: heights {sorted(heights)}")
            m = heights.pop()
            if rows is not None and m != rows:
                raise ValueError(f"expected {rows} rows, got {m}")
        else:
            m = rows if rows is not None else 0
        return cls([[c[i] for c in cols] for i in range(m)], cols=len(cols))

    # -- access -------------------------------------------------------

    def __getitem__(self, key):
        i, j = key
        return self.data[i][j]

    def row(self, i: int) -> tuple:
        return self.data[i]

    def column(self, j: int) -> tuple:
        return tuple(row[j] for row in self.data)

    def diagonal(self) -> tuple:
        return tuple(self.data[i][i] for i in range(min(self.rows, self.cols)))

    # -- algebra ------------------------------------------------------

    def transpose(self) -> "IntMatrix":
        return IntMatrix([[self.data[i][j] for i in range(self.rows)] for j in range(self.cols)], cols=self.rows)

    def __matmul__(self, other: "IntMatrix") -> "IntMatrix":
        if self.cols != other.rows:
            raise ValueError(f"shape mismatch: {self.rows}x{self.cols} @ {other.rows}x{other.cols}")
        bt = other.transpose().data
        return IntMatrix(
            [[sum(a * b for a, b in zip(row, col)) for col in bt] for row in self.data],
            cols=other.cols,
        )

    def mul_vec(self, v: Sequence[int]) -> tuple:
        if len(v) != self.cols:
            raise ValueError(f"vector of length {len(v)} against {self.rows}x{self.cols} matrix")
        return tuple(sum(a * b for a, b in zip(row, v)) for row in self.data)

    def __neg__(self) -> "IntMatrix":
        return IntMatrix([[-x for x in row] for row in self.data], cols=self.cols)

    def determinant(self) -> int:
        """Exact determinant via fraction-free (Bareiss) elimination.

        >>> IntMatrix([[1, 2, 3], [4, 5, 6], [7, 8, 10]]).determinant()
        -3
        """
        if self.rows != self.cols:
            raise ValueError("determinant of a non-square matrix")
        pivots, last, sign = _bareiss([list(row) for row in self.data], self.cols)
        return sign * last if len(pivots) == self.cols else 0

    # -- comparison / display -----------------------------------------

    def __eq__(self, other) -> bool:
        return isinstance(other, IntMatrix) and self.cols == other.cols and self.data == other.data

    def __hash__(self) -> int:
        return hash((self.cols, self.data))

    def __repr__(self) -> str:
        return f"IntMatrix({[list(r) for r in self.data]!r})"

    def __str__(self) -> str:
        if self.rows == 0 or self.cols == 0:
            return f"[{self.rows}x{self.cols} empty]"
        width = max(len(str(x)) for row in self.data for x in row)
        return "\n".join("[ " + "  ".join(str(x).rjust(width) for x in row) + " ]" for row in self.data)


class SmithDecomposition:
    """Smith normal form D of a matrix A, with unimodular U and V such
    that U @ A @ V == D.

    The diagonal entries are nonnegative and each divides the next, with
    zeros trailing, which makes D unique for a given A.  ``diagonal``,
    ``rank`` and ``D`` come from the bounded route of
    :func:`smith_normal_form`.  U and V are built by explicit transform
    elimination the first time either is read, because their entries can
    grow far beyond any minor of A; that elimination's own diagonal must
    agree with ``D``.
    """

    def __init__(self, matrix: IntMatrix, diagonal: tuple):
        self.matrix = matrix
        self.diagonal = diagonal
        self.rank = sum(1 for d in diagonal if d != 0)

    @cached_property
    def D(self) -> IntMatrix:
        m, n = self.matrix.rows, self.matrix.cols
        return IntMatrix([[self.diagonal[i] if i == j else 0 for j in range(n)] for i in range(m)], cols=n)

    @cached_property
    def _transforms(self) -> tuple:
        u, d, v = _smith_transforms(self.matrix)
        assert d == self.D, f"transform elimination disagrees with the invariant factors of {self.matrix!r}"
        return u, v

    @property
    def U(self) -> IntMatrix:
        return self._transforms[0]

    @property
    def V(self) -> IntMatrix:
        return self._transforms[1]


def _xgcd(a: int, b: int) -> tuple:
    """Return (g, x, y) with g = gcd(a, b) >= 0 and a*x + b*y = g."""
    old_r, r = a, b
    old_s, s = 1, 0
    old_t, t = 0, 1
    while r:
        q = old_r // r
        old_r, r = r, old_r - q * r
        old_s, s = s, old_s - q * s
        old_t, t = t, old_t - q * t
    if old_r < 0:
        old_r, old_s, old_t = -old_r, -old_s, -old_t
    return old_r, old_s, old_t


def _row_combine(mat, i, j, x, y, u, v, modulus=0):
    """rows i, j of mat become (x*row_i + y*row_j, u*row_i + v*row_j),
    reduced modulo ``modulus`` unless it is 0."""
    ri, rj = mat[i], mat[j]
    mat[i] = [x * a + y * b for a, b in zip(ri, rj)]
    mat[j] = [u * a + v * b for a, b in zip(ri, rj)]
    if modulus:
        mat[i] = [e % modulus for e in mat[i]]
        mat[j] = [e % modulus for e in mat[j]]


def _col_combine(mat, i, j, x, y, u, v, modulus=0):
    """columns i, j of mat become (x*col_i + y*col_j, u*col_i + v*col_j),
    reduced modulo ``modulus`` unless it is 0."""
    for row in mat:
        a, b = row[i], row[j]
        row[i] = x * a + y * b
        row[j] = u * a + v * b
        if modulus:
            row[i] %= modulus
            row[j] %= modulus


def _bareiss(m: list, ncols: int, jordan: bool = False) -> tuple:
    """Fraction-free (Bareiss) elimination of the rows ``m``, in place.

    Pivots are taken column by column, swapping rows.  Returns the pivot
    columns, the last pivot and the sign of the row permutation.  With
    ``jordan`` the rows above each pivot are cleared too, so that every
    pivot row ends with the last pivot in its own pivot column and zeros
    in the others.  Each division is exact: after a pivot step every
    entry is a minor of the input, the last pivot being the minor on
    the pivot rows and columns.

    >>> m = [[2, 4, 6], [6, 8, 10]]
    >>> _bareiss(m, 3, jordan=True), m
    (([0, 1], -8, 1), [[-8, 0, 8], [0, -8, -16]])
    """
    last, sign, pivots = 1, 1, []
    for col in range(ncols):
        r = len(pivots)
        for row in range(r, len(m)):
            if m[row][col]:
                break
        else:
            continue
        if row != r:
            m[r], m[row] = m[row], m[r]
            sign = -sign
        prow = m[r]
        p = prow[col]
        for i in range(len(m)) if jordan else range(r + 1, len(m)):
            if i != r:
                f = m[i][col]
                m[i] = [(x * p - f * y) // last for x, y in zip(m[i], prow)]
        pivots.append(col)
        last = p
    return pivots, last, sign


def _unit_pivots(rows: list, ncols: int) -> tuple:
    """Eliminate on +-1 entries while any are left, in place.

    Each step removes a pivot row and its column and subtracts multiples
    of the pivot row from the others: the exact Schur complement, whose
    entries are minors of the input because the pivot block has
    determinant +-1.  Zero rows are dropped at the end.  Returns the
    input indices of the columns left and, per step, (column, pivot,
    the pivot row's other nonzero entries by input column), which is
    what back-substitution needs.

    >>> rows = [[2, 1, 3], [4, 6, 2]]
    >>> _unit_pivots(rows, 3), rows
    (([0, 2], [(1, 1, [(0, 2), (2, 3)])]), [[-8, -16]])
    """
    cols = list(range(ncols))
    steps = []
    while True:
        i = next((i for i, row in enumerate(rows) if 1 in row or -1 in row), None)
        if i is None:
            break
        prow = rows.pop(i)
        j = next(j for j, x in enumerate(prow) if x == 1 or x == -1)
        s = prow.pop(j)
        steps.append((cols.pop(j), s, [(c, x) for c, x in zip(cols, prow) if x]))
        for row in rows:
            f = row.pop(j) * s
            if f:
                row[:] = [x - f * y for x, y in zip(row, prow)]
    rows[:] = [row for row in rows if any(row)]
    return cols, steps


def _smith_eliminate(d: list, ncols: int, modulus: int = 0, u: Optional[list] = None, v: Optional[list] = None) -> int:
    """Diagonalize the rows ``d`` in place by unimodular row and column
    operations; returns the number t of pivots, after which the trailing
    block is 0.

    Each pivot starts as the smallest nonzero entry in absolute value.
    Entries it divides are cleared by subtraction; any other entry is
    cleared by a gcd step, which strictly lowers the pivot.  Row
    operations also act on the rows of ``u`` and column operations on
    the rows of ``v``.  With a nonzero ``modulus`` every entry of the
    three is reduced modulo it after each operation, so nothing exceeds
    2 * modulus**2 before reduction; the inputs must be residues.

    >>> d = [[0, 0, 3, 3], [2, 4, 0, 0]]
    >>> _smith_eliminate(d, 4, modulus=6), d
    (2, [[2, 0, 0, 0], [0, 3, 0, 0]])
    """
    rowmats = (d,) if u is None else (d, u)
    colmats = (d,) if v is None else (d, v)
    m, t = len(d), 0
    while True:
        best = None
        for i in range(t, m):
            tail = d[i][t:]
            if any(tail):
                x = min(map(abs, filter(None, tail)))
                if best is None or x < best[0]:
                    best = (x, i)
        if best is None:
            return t
        x, i = best
        j = next(j for j in range(t, ncols) if abs(d[i][j]) == x)
        if i != t:
            for mat in rowmats:
                mat[t], mat[i] = mat[i], mat[t]
        if j != t:
            for mat in colmats:
                for row in mat:
                    row[t], row[j] = row[j], row[t]
        while True:
            for i in range(t + 1, m):
                p, b = d[t][t], d[i][t]
                if b == 0:
                    continue
                if b % p == 0:
                    q = b // p
                    for mat in rowmats:
                        if modulus:
                            mat[i] = [(x - q * y) % modulus for x, y in zip(mat[i], mat[t])]
                        else:
                            mat[i] = [x - q * y for x, y in zip(mat[i], mat[t])]
                else:
                    g, x, y = _xgcd(p, b)
                    for mat in rowmats:
                        _row_combine(mat, t, i, x, y, -(b // g), p // g, modulus)
            below_clear = True
            for j in range(t + 1, ncols):
                p, b = d[t][t], d[t][j]
                if b == 0:
                    continue
                if b % p == 0:
                    q = b // p
                    d[t][j] = 0
                    # rows of d above t are 0 in column t, and so are the
                    # rows below it until a gcd step fills that column
                    for row in (v or []) + ([] if below_clear else d[t + 1 :]):
                        row[j] -= q * row[t]
                        if modulus:
                            row[j] %= modulus
                else:
                    g, x, y = _xgcd(p, b)
                    for mat in colmats:
                        _col_combine(mat, t, j, x, y, -(b // g), p // g, modulus)
                    below_clear = False
            if not any(d[i][t] for i in range(t + 1, m)):
                break
        t += 1


def smith_normal_form(a: IntMatrix) -> SmithDecomposition:
    """Smith normal form of an integer matrix.

    The invariant factors come from a route on which every stored
    integer is a minor of A or a residue modulo one.  So none exceeds the
    Hadamard bound H of A, the product of max(1, Euclidean length) over
    its columns, and a product formed before an exact division or a
    reduction stays below 2 * H**2:

    1. pivots on +-1 entries contribute factors 1, and their Schur
       complement S has minors of A as entries;
    2. Bareiss elimination of S gives its rank r and a nonzero r x r
       minor delta, its entries again minors of A;
    3. the invariant factors d_1 | ... | d_r of S divide delta.  Smith
       elimination of S modulo |delta| leaves diagonal residues e_i, and
       the gcd/lcm merges of the gcd(e_i, |delta|) give d_1, ..., d_r.
       The elimination goes on until the trailing block is 0 modulo
       |delta|, not only up to r, since a factor can hide in a residue
       beyond the rank.

    The unimodular transforms are built only when ``U`` or ``V`` is read.

    >>> s = smith_normal_form(IntMatrix([[2, 4], [6, 8]]))
    >>> s.diagonal
    (2, 4)
    """
    rest = [list(row) for row in a.data]
    cols, steps = _unit_pivots(rest, a.cols)
    pivots, last, _ = _bareiss([list(row) for row in rest], len(cols))
    r, modulus = len(pivots), abs(last)
    residues = [[x % modulus for x in row] for row in rest]
    t = _smith_eliminate(residues, len(cols), modulus)
    factors = [gcd(residues[i][i], modulus) for i in range(t)] + [modulus] * (r - t)
    for i in range(len(factors)):
        for j in range(i + 1, len(factors)):
            g = gcd(factors[i], factors[j])
            factors[i], factors[j] = g, factors[i] * factors[j] // g
    tail = min(a.rows, a.cols) - len(steps) - r
    return SmithDecomposition(a, (1,) * len(steps) + tuple(factors[:r]) + (0,) * tail)


def _smith_transforms(a: IntMatrix) -> tuple:
    """(U, D, V) by exact Smith elimination with explicit transforms."""
    m, n = a.rows, a.cols
    d = [list(row) for row in a.data]
    u = [[1 if i == j else 0 for j in range(m)] for i in range(m)]
    v = [[1 if i == j else 0 for j in range(n)] for i in range(n)]
    rank = _smith_eliminate(d, n, u=u, v=v)
    for i in range(rank):
        if d[i][i] < 0:
            d[i] = [-x for x in d[i]]
            u[i] = [-x for x in u[i]]

    # Enforce the divisibility chain d_0 | d_1 | ... by merging pairs
    # into (gcd, lcm) with unimodular transforms.
    for i in range(rank):
        for j in range(i + 1, rank):
            if d[j][j] % d[i][i] == 0:
                continue
            p, q = d[i][i], d[j][j]
            for mat in (d, v):
                for row in mat:
                    row[i] += row[j]
            g, x, y = _xgcd(p, q)
            _row_combine(d, i, j, x, y, -(q // g), p // g)
            _row_combine(u, i, j, x, y, -(q // g), p // g)
            c = (y * q) // g
            for mat in (d, v):
                for row in mat:
                    row[j] -= c * row[i]

    return IntMatrix(u, cols=m), IntMatrix(d, cols=n), IntMatrix(v, cols=n)


def hermite_reduce(vectors: Sequence[Sequence[int]]) -> tuple:
    """Canonical basis (row Hermite normal form) for the lattice spanned
    by the given vectors.

    Pivots are positive, entries above a pivot are reduced into
    [0, pivot), and zero rows are dropped.  Two inputs spanning the same
    lattice reduce to the same tuple of rows, which is what makes kernel
    bases deterministic.
    """
    rows = [list(v) for v in vectors]
    if not rows:
        return ()
    n = len(rows[0])
    if any(len(r) != n for r in rows):
        raise ValueError("vectors of mixed lengths")
    r = 0
    for col in range(n):
        pivot_row = None
        for i in range(r, len(rows)):
            if rows[i][col] != 0:
                pivot_row = i
                break
        if pivot_row is None:
            continue
        rows[r], rows[pivot_row] = rows[pivot_row], rows[r]
        for i in range(r + 1, len(rows)):
            if rows[i][col] == 0:
                continue
            a, b = rows[r][col], rows[i][col]
            g, x, y = _xgcd(a, b)
            ri, rj = rows[r], rows[i]
            rows[r] = [x * p + y * q for p, q in zip(ri, rj)]
            rows[i] = [-(b // g) * p + (a // g) * q for p, q in zip(ri, rj)]
        if rows[r][col] < 0:
            rows[r] = [-x for x in rows[r]]
        piv = rows[r][col]
        for i in range(r):
            q = rows[i][col] // piv
            if q:
                rows[i] = [p - q * s for p, s in zip(rows[i], rows[r])]
        r += 1
    return tuple(tuple(row) for row in rows[:r])


def kernel_basis(a: IntMatrix) -> tuple:
    """Basis of the integer kernel lattice {x : A x = 0}.

    The kernel of an integer matrix is a saturated sublattice, so the
    returned vectors are primitive; they are normalized to row Hermite
    form for determinism.

    Up to the final Hermite reduction, entries stay within a factor
    polynomial in the shape of the Hadamard bound H of A (see
    :func:`smith_normal_form`).  After the +-1 pivots, fraction-free
    Gauss-Jordan elimination of the remainder S puts delta on each of its
    r pivot columns and minors of A in its free columns F.  An integer z
    is in ker S exactly when its free part y satisfies M y = 0 modulo
    |delta|, M being the free columns of the pivot rows; its pivot part
    is then -M y / delta, below |F| * H.  A Hermite basis of those y,
    with entries below |delta| <= H, comes from Smith elimination of M
    modulo |delta|.  Back-substitution through the +-1 pivots, whose
    inverse block holds minors of A, lifts each z to a kernel vector
    of A.

    >>> kernel_basis(IntMatrix([[1, 1, 1]]))
    ((1, 0, -1), (0, 1, -1))
    """
    rest = [list(row) for row in a.data]
    cols, steps = _unit_pivots(rest, a.cols)
    pivots, last, _ = _bareiss(rest, len(cols), jordan=True)
    free = sorted(set(range(len(cols))) - set(pivots))
    modulus, k = abs(last), len(free)
    v = [[1 if i == j else 0 for j in range(k)] for i in range(k)]
    residues = [[rest[i][f] % modulus for f in free] for i in range(len(pivots))]
    t = _smith_eliminate(residues, k, modulus, v=v)
    # y = V w solves M y = 0 mod |delta| when e_j w_j = 0 mod |delta|; V
    # is known modulo |delta| only, so |delta| Z^k joins the generators
    scale = [modulus // gcd(residues[j][j] if j < t else 0, modulus) for j in range(k)]
    lattice = hermite_reduce(
        [[v[i][j] * scale[j] % modulus for i in range(k)] for j in range(k)]
        + [[modulus if i == j else 0 for i in range(k)] for j in range(k)]
    )
    basis = []
    for y in lattice:
        x = [0] * a.cols
        for f, yf in zip(free, y):
            x[cols[f]] = yf
        for row, p in zip(rest, pivots):
            x[cols[p]] = -sum(row[f] * yf for f, yf in zip(free, y)) // last
        for q, s, entries in reversed(steps):
            x[q] = -s * sum(x[c] * e for c, e in entries)
        basis.append(x)
    return hermite_reduce(basis)


def solve_integer(a: IntMatrix, b: Sequence[int]) -> Optional[tuple]:
    """One integer solution x of A x = b, or None when none exists.

    No solution is a normal outcome, not an error.

    >>> solve_integer(IntMatrix([[2, 3]]), [1])
    (-1, 1)
    >>> solve_integer(IntMatrix([[2]]), [1]) is None
    True
    """
    if len(b) != a.rows:
        raise ValueError(f"right hand side of length {len(b)} against {a.rows}x{a.cols} matrix")
    # the solution needs U and V, so the transform elimination is the route
    u, smith, v = _smith_transforms(a)
    c = u.mul_vec(b)
    y = [0] * a.cols
    diag = smith.diagonal()
    for i, ci in enumerate(c):
        d = diag[i] if i < len(diag) else 0
        if d == 0:
            if ci != 0:
                return None
        else:
            if ci % d != 0:
                return None
            y[i] = ci // d
    x = v.mul_vec(y)
    assert a.mul_vec(x) == tuple(b)
    return x
