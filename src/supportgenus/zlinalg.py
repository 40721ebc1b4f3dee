"""Exact linear algebra over the integers.

Everything in this module works with plain Python ints, so arithmetic is
arbitrary precision and nothing ever touches floating point.  The three
workhorses are :func:`smith_normal_form`, :func:`kernel_basis` and
:func:`solve_integer`; the rest is the small immutable matrix container
they share with the topological modules.

All functions are pure: matrices are immutable and every operation
returns a fresh object.
"""

from __future__ import annotations

from dataclasses import dataclass
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
        """Exact determinant via fraction-free (Bareiss) elimination."""
        if self.rows != self.cols:
            raise ValueError("determinant of a non-square matrix")
        n = self.rows
        if n == 0:
            return 1
        m = [list(row) for row in self.data]
        sign = 1
        prev = 1
        for k in range(n - 1):
            if m[k][k] == 0:
                for i in range(k + 1, n):
                    if m[i][k] != 0:
                        m[k], m[i] = m[i], m[k]
                        sign = -sign
                        break
                else:
                    return 0
            for i in range(k + 1, n):
                for j in range(k + 1, n):
                    m[i][j] = (m[i][j] * m[k][k] - m[i][k] * m[k][j]) // prev
            prev = m[k][k]
        return sign * m[n - 1][n - 1]

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


@dataclass(frozen=True)
class SmithDecomposition:
    """Unimodular U, V and diagonal D with U @ A @ V == D.

    The diagonal entries are nonnegative and each divides the next, with
    zeros trailing, which makes D unique for a given A.
    """

    U: IntMatrix
    D: IntMatrix
    V: IntMatrix

    @property
    def diagonal(self) -> tuple:
        return self.D.diagonal()

    @property
    def rank(self) -> int:
        return sum(1 for d in self.diagonal if d != 0)


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


def _row_combine(mat, i, j, x, y, u, v):
    """rows i, j of mat become (x*row_i + y*row_j, u*row_i + v*row_j)."""
    ri, rj = mat[i], mat[j]
    mat[i] = [x * a + y * b for a, b in zip(ri, rj)]
    mat[j] = [u * a + v * b for a, b in zip(ri, rj)]


def _col_combine(mat, i, j, x, y, u, v):
    """columns i, j of mat become (x*col_i + y*col_j, u*col_i + v*col_j)."""
    for row in mat:
        a, b = row[i], row[j]
        row[i] = x * a + y * b
        row[j] = u * a + v * b


def smith_normal_form(a: IntMatrix) -> SmithDecomposition:
    """Smith normal form of an integer matrix.

    >>> s = smith_normal_form(IntMatrix([[2, 4], [6, 8]]))
    >>> s.diagonal
    (2, 4)
    """
    m, n = a.rows, a.cols
    d = [list(row) for row in a.data]
    u = [[1 if i == j else 0 for j in range(m)] for i in range(m)]
    v = [[1 if i == j else 0 for j in range(n)] for i in range(n)]

    def swap_rows(i, j):
        if i != j:
            d[i], d[j] = d[j], d[i]
            u[i], u[j] = u[j], u[i]

    def swap_cols(i, j):
        if i != j:
            for mat in (d, v):
                for row in mat:
                    row[i], row[j] = row[j], row[i]

    t = 0
    limit = min(m, n)
    while t < limit:
        # Smallest nonzero entry of the trailing submatrix as pivot.
        best = None
        for i in range(t, m):
            row = d[i]
            for j in range(t, n):
                x = row[j]
                if x and (best is None or abs(x) < best[0]):
                    best = (abs(x), i, j)
        if best is None:
            break
        swap_rows(t, best[1])
        swap_cols(t, best[2])

        while True:
            for i in range(t + 1, m):
                b = d[i][t]
                if b == 0:
                    continue
                p = d[t][t]
                if b % p == 0:
                    q = b // p
                    d[i] = [x - q * y for x, y in zip(d[i], d[t])]
                    u[i] = [x - q * y for x, y in zip(u[i], u[t])]
                else:
                    g, x, y = _xgcd(p, b)
                    _row_combine(d, t, i, x, y, -(b // g), p // g)
                    _row_combine(u, t, i, x, y, -(b // g), p // g)
            for j in range(t + 1, n):
                b = d[t][j]
                if b == 0:
                    continue
                p = d[t][t]
                if b % p == 0:
                    q = b // p
                    for mat in (d, v):
                        for row in mat:
                            row[j] -= q * row[t]
                else:
                    g, x, y = _xgcd(p, b)
                    _col_combine(d, t, j, x, y, -(b // g), p // g)
                    _col_combine(v, t, j, x, y, -(b // g), p // g)
            if all(d[i][t] == 0 for i in range(t + 1, m)) and all(d[t][j] == 0 for j in range(t + 1, n)):
                break
        t += 1

    rank = t
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

    return SmithDecomposition(U=IntMatrix(u, cols=m), D=IntMatrix(d, cols=n), V=IntMatrix(v, cols=n))


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

    >>> kernel_basis(IntMatrix([[1, 1, 1]]))
    ((1, 0, -1), (0, 1, -1))
    """
    snf = smith_normal_form(a)
    r = snf.rank
    vectors = [snf.V.column(j) for j in range(r, a.cols)]
    return hermite_reduce(vectors)


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
    snf = smith_normal_form(a)
    c = snf.U.mul_vec(b)
    y = [0] * a.cols
    diag = snf.diagonal
    for i, ci in enumerate(c):
        d = diag[i] if i < len(diag) else 0
        if d == 0:
            if ci != 0:
                return None
        else:
            if ci % d != 0:
                return None
            y[i] = ci // d
    x = snf.V.mul_vec(y)
    assert a.mul_vec(x) == tuple(b)
    return x
