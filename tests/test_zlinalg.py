import math
import random
import time
from itertools import combinations

import pytest

from supportgenus import zlinalg
from supportgenus.cli import main
from supportgenus.fixtures import FIXTURE_NAMES
from supportgenus.ribbon import intersection_form
from supportgenus.verify import brute_kernel, random_matrix, random_page
from supportgenus.zlinalg import (
    IntMatrix,
    hermite_reduce,
    kernel_basis,
    smith_normal_form,
    solve_integer,
)


def test_matrix_basics():
    a = IntMatrix([[1, 2], [3, 4]])
    assert a.rows == 2 and a.cols == 2
    assert a.row(1) == (3, 4)
    assert a.column(0) == (1, 3)
    assert a.transpose() == IntMatrix([[1, 3], [2, 4]])
    assert a.mul_vec((1, 1)) == (3, 7)
    assert (a @ IntMatrix.identity(2)) == a
    assert a.determinant() == -2
    assert (-a).determinant() == -2
    assert IntMatrix.from_columns([(1, 3), (2, 4)]) == a


def test_matrix_entries_are_ints_bools_or_int_subclasses():
    class Count(int):
        pass

    assert IntMatrix([[True, Count(2)], (3, 4)]).data == ((1, 2), (3, 4))
    for bad, name in ((1.0, "float"), ("1", "str"), (None, "NoneType")):
        with pytest.raises(TypeError, match=f"^matrix entries must be int, got {name}$"):
            IntMatrix([[1, 2], [3, bad]])


def test_matrix_is_immutable():
    a = IntMatrix([[1]])
    with pytest.raises(AttributeError):
        a.rows = 5


def test_determinant_known_values():
    assert IntMatrix.identity(4).determinant() == 1
    assert IntMatrix([[2, 0, 0], [0, 3, 0], [0, 0, 5]]).determinant() == 30
    # singular
    assert IntMatrix([[1, 2], [2, 4]]).determinant() == 0
    # hand-expanded 3x3
    m = IntMatrix([[1, 2, 3], [4, 5, 6], [7, 8, 10]])
    assert m.determinant() == -3


def test_smith_normal_form_frozen_example():
    a = IntMatrix([[2, 4], [6, 8]])
    s = smith_normal_form(a)
    # gcd of entries is 2, |det| = 8, so the invariant factors are 2 and 4
    assert s.diagonal == (2, 4)
    assert s.U @ a @ s.V == s.D


def test_smith_of_gcd_row():
    rng = random.Random(7)
    for _ in range(100):
        a, b = rng.randint(-40, 40), rng.randint(-40, 40)
        s = smith_normal_form(IntMatrix([[a, b]]))
        assert s.diagonal == (math.gcd(a, b),)


def minor_gcd(a, k):
    """gcd of all k x k minors; 0 when every minor vanishes."""
    g = 0
    for rows in combinations(range(a.rows), k):
        for cols in combinations(range(a.cols), k):
            sub = IntMatrix([[a[i, j] for j in cols] for i in rows])
            g = math.gcd(g, sub.determinant())
    return g


def test_smith_matches_minor_gcds():
    # d_1 * ... * d_k equals the gcd of the k x k minors
    rng = random.Random(11)
    for _ in range(120):
        rows = rng.randint(1, 3)
        cols = rng.randint(1, 3)
        a = random_matrix(rng, rows, cols, span=6)
        diag = smith_normal_form(a).diagonal
        product = 1
        for k in range(1, min(rows, cols) + 1):
            product *= diag[k - 1]
            assert product == minor_gcd(a, k)


def test_smith_invariants_random():
    rng = random.Random(13)
    for _ in range(250):
        a = random_matrix(rng, rng.randint(1, 4), rng.randint(1, 4))
        s = smith_normal_form(a)
        assert s.U @ a @ s.V == s.D
        assert abs(s.U.determinant()) == 1
        assert abs(s.V.determinant()) == 1
        diag = s.diagonal
        assert all(d >= 0 for d in diag)
        nonzero = [d for d in diag if d]
        assert list(diag[: len(nonzero)]) == nonzero, "zeros must trail"
        for x, y in zip(nonzero, nonzero[1:]):
            assert y % x == 0
        off_diagonal = [
            s.D[i, j] for i in range(s.D.rows) for j in range(s.D.cols) if i != j
        ]
        assert not any(off_diagonal)


def test_smith_zero_and_empty():
    z = smith_normal_form(IntMatrix.zero(2, 3))
    assert z.diagonal == (0, 0)
    assert z.rank == 0


@pytest.mark.parametrize(
    "a, diagonal",
    [
        # no +-1 entry anywhere, so the whole matrix takes the modular
        # route (as does the frozen example above); delta = 6 and the
        # residues 4 and 3 only jointly give the factor 1
        (IntMatrix([[6, 10, 15]]), (1,)),
        # rank 1, delta = 6; stopping the modular elimination at the rank
        # would leave the factor 2 from the second row's residues
        (IntMatrix([[-6, 6, 9, 9], [-4, 4, 6, 6]]), (1, 0)),
        # the last factor equals |delta|, so its residue is 0
        (IntMatrix([[2, 0], [0, 3]]), (1, 6)),
        (IntMatrix([[6]]), (6,)),
        (IntMatrix.zero(3, 2), (0, 0)),
        (IntMatrix.zero(0, 3), ()),
        (IntMatrix.zero(2, 0), ()),
        # unit pivots first, then a remainder without units
        (IntMatrix([[1, 2, 3], [4, 6, 8], [5, 10, 15]]), (1, 2, 0)),
    ],
)
def test_smith_edge_cases_agree_with_the_transforms(a, diagonal):
    s = smith_normal_form(a)
    assert s.diagonal == diagonal
    assert s.rank == sum(1 for d in diagonal if d)
    assert s.U @ a @ s.V == s.D
    assert abs(s.U.determinant()) == 1 and abs(s.V.determinant()) == 1


def test_kernel_edge_cases():
    assert kernel_basis(IntMatrix.zero(0, 3)) == ((1, 0, 0), (0, 1, 0), (0, 0, 1))
    assert kernel_basis(IntMatrix.zero(2, 0)) == ()
    assert kernel_basis(IntMatrix([[2, 4], [6, 8]])) == ()
    # fraction-free elimination gives (-2, 4, 0) and (-2, 0, 4); even
    # without their content 2 they span an index-2 sublattice, which
    # misses (0, 1, -1)
    a = IntMatrix([[4, 2, 2]])
    basis = kernel_basis(a)
    assert basis == ((1, 0, -2), (0, 1, -1))
    assert smith_normal_form(IntMatrix(basis)).diagonal == (1, 1)
    assert hermite_reduce(smith_normal_form(a).V.column(j) for j in (1, 2)) == basis


def test_determinant_is_the_product_of_invariant_factors():
    a = random_matrix(random.Random(1), 60, 60)
    assert math.prod(smith_normal_form(a).diagonal) == abs(a.determinant())


def test_kernel_basis_hand_checked():
    assert kernel_basis(IntMatrix([[1, 1, 1]])) == ((1, 0, -1), (0, 1, -1))
    assert kernel_basis(IntMatrix([[1, 0], [0, 1]])) == ()
    # 2x - 2y = 0 has the primitive kernel (1, 1), not (2, 2)
    assert kernel_basis(IntMatrix([[2, -2]])) == ((1, 1),)


def test_kernel_against_brute_force():
    rng = random.Random(17)
    for _ in range(60):
        a = random_matrix(rng, rng.randint(1, 3), rng.randint(1, 4), span=3)
        basis = kernel_basis(a)
        assert hermite_reduce(basis) == basis
        for vec in basis:
            assert a.mul_vec(vec) == (0,) * a.rows
        for v in brute_kernel(a, 2):
            if not basis:
                assert not any(v)
            else:
                assert solve_integer(IntMatrix.from_columns(basis, rows=a.cols), v) is not None


def test_hermite_reduce_is_basis_independent():
    vectors = [(2, 4, 0), (1, 1, 1), (0, 2, -2)]
    reduced = hermite_reduce(vectors)
    # reversing and padding with redundant combinations gives the same form
    doubled = [tuple(2 * x for x in vectors[0])] + list(reversed(vectors)) + [vectors[1]]
    assert hermite_reduce(doubled) == reduced
    assert hermite_reduce([]) == ()
    with pytest.raises(ValueError):
        hermite_reduce([(1, 2), (1, 2, 3)])


def test_solve_integer():
    assert solve_integer(IntMatrix([[2, 3]]), [1]) == (2, -1)
    assert solve_integer(IntMatrix([[2]]), [1]) is None
    assert solve_integer(IntMatrix([[1, 0], [0, 1], [1, 1]]), [2, 3, 4]) is None
    assert solve_integer(IntMatrix([[1, 0], [0, 1], [1, 1]]), [2, 3, 5]) == (2, 3)
    rng = random.Random(19)
    for _ in range(80):
        a = random_matrix(rng, rng.randint(1, 3), rng.randint(1, 3), span=4)
        x = tuple(rng.randint(-4, 4) for _ in range(a.cols))
        found = solve_integer(a, a.mul_vec(x))
        assert found is not None
        assert a.mul_vec(found) == a.mul_vec(x)


def test_solve_integer_rejects_wrong_length():
    with pytest.raises(ValueError):
        solve_integer(IntMatrix([[1, 2]]), [1, 2])


def test_solve_integer_takes_only_integer_right_hand_sides():
    class Count(int):
        pass

    for a, b in ((IntMatrix([[1]]), [2.0]), (IntMatrix([[1, 0], [0, 1]]), [2.0, 3])):
        with pytest.raises(TypeError, match="^matrix entries must be int, got float$"):
            solve_integer(a, b)
    assert solve_integer(IntMatrix([[1, 0], [0, 1]]), [True, Count(3)]) == (1, 3)


def transform_solve(a, b):
    """The solve that ``solve_integer`` replaced: with U A V = D, A x = b
    exactly when D y = U b has an integer solution y, and then x = V y.
    The oracle for ``solve_integer``, which must give the same verdicts."""
    s = smith_normal_form(a)
    y = [0] * a.cols
    for i, c in enumerate(s.U.mul_vec(b)):
        d = s.D[i, i] if i < a.cols else 0
        if d == 0:
            if c != 0:
                return None
        elif c % d != 0:
            return None
        else:
            y[i] = c // d
    return s.V.mul_vec(y)


def solve_cases():
    rng = random.Random(43)
    for rows in range(4):
        for cols in range(4):
            if rows == 0 or cols == 0:
                a = IntMatrix.zero(rows, cols)
                yield a, (0,) * rows
                yield a, tuple(rng.randint(-3, 3) for _ in range(rows))
    for _ in range(250):
        rows, cols = rng.randint(1, 6), rng.randint(1, 6)
        if rng.random() < 0.3:
            rank = rng.randint(1, min(rows, cols))
            a = random_matrix(rng, rows, rank, span=3) @ random_matrix(rng, rank, cols, span=3)
        else:
            a = random_matrix(rng, rows, cols, span=rng.choice((1, 3, 9)))
        yield a, a.mul_vec([rng.randint(-5, 5) for _ in range(cols)])
        yield a, tuple(rng.randint(-9, 9) for _ in range(rows))


def test_solve_integer_matches_the_transform_route():
    verdicts = []
    for a, b in solve_cases():
        x, oracle = solve_integer(a, b), transform_solve(a, b)
        assert (x is None) == (oracle is None), (a, b)
        for found in (x, oracle):
            assert found is None or a.mul_vec(found) == tuple(b), (a, b)
        verdicts.append(x is not None)
    assert len(verdicts) >= 500 and 0.2 < sum(verdicts) / len(verdicts) < 0.8


def test_solve_integer_scales_past_forty_unknowns():
    # the transform route does not return on this system within 100 s
    a = random_matrix(random.Random(1), 40, 40)
    start = time.perf_counter()
    assert solve_integer(a, a.mul_vec([1] * 40)) == (1,) * 40
    assert time.perf_counter() - start < 0.5


def test_only_u_and_v_run_the_transform_elimination(monkeypatch, capsys):
    def forbidden(a):
        raise AssertionError(f"transform elimination entered on {a!r}")

    monkeypatch.setattr(zlinalg, "_smith_transforms", forbidden)
    rng = random.Random(47)
    for _ in range(60):
        a = random_matrix(rng, rng.randint(0, 8), rng.randint(0, 8), span=rng.choice((1, 9)))
        solve_integer(a, a.mul_vec([1] * a.cols))
        kernel_basis(a)
        s = smith_normal_form(a)
        assert s.rank == sum(map(bool, s.diagonal)) and s.D.cols == a.cols
    for document in FIXTURE_NAMES:
        for command in ("tb", "rot", "snf", "hf", "sg-bounds"):
            main([command, "--input", document])
    capsys.readouterr()
    with pytest.raises(AssertionError, match="^transform elimination entered"):
        smith_normal_form(IntMatrix([[2]])).U


def dense_unit_pivots(rows, ncols):
    """The unit-pivot elimination that rewrote every row at every step:
    each pivot popped its column from every row and rebuilt, as a new
    list, every row with a nonzero there.  The oracle for
    ``zlinalg._unit_pivots``, which must return the same columns, steps
    and leftover rows."""
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


def planted_kernel_matrix(rng, p):
    """A p x (p+1) matrix like the boundary matrices of ``rot``: p random
    columns with entries in [-2, 2], then their combination M h, so that
    (h, -1) lies in the kernel."""
    m = random_matrix(rng, p, p, span=2)
    h = [rng.randint(-1, 1) for _ in range(p)]
    return IntMatrix([row + (x,) for row, x in zip(m.data, m.mul_vec(h))])


def unit_pivot_cases():
    rng = random.Random(41)
    yield IntMatrix.zero(0, 0)
    yield IntMatrix.zero(0, 4)
    yield IntMatrix.zero(3, 0)
    yield IntMatrix.zero(4, 5)
    yield IntMatrix([[2, 4], [6, 8]])
    yield IntMatrix([[2 * rng.randint(-5, 5) for _ in range(7)] for _ in range(6)])
    for _ in range(300):
        yield random_matrix(rng, rng.randint(1, 12), rng.randint(1, 12), span=rng.choice((1, 2, 3, 9)))
    for n in list(range(0, 40)) + [60, 90, 120]:
        yield intersection_form(random_page(rng, n))
    for p in range(2, 27):
        yield planted_kernel_matrix(rng, p)


def test_unit_pivots_match_the_dense_oracle():
    for a in unit_pivot_cases():
        rows, oracle_rows = [list(r) for r in a.data], [list(r) for r in a.data]
        assert zlinalg._unit_pivots(rows, a.cols) == dense_unit_pivots(oracle_rows, a.cols), a
        assert rows == oracle_rows, a


def test_unit_pivots_cost_follows_the_pivot_rows_support(monkeypatch):
    # The dense oracle rewrites every row at every pivot; on a 400-band
    # page, whose form stays about a third nonzero, touching only the
    # rows that meet the pivot column at the pivot row's support costs
    # about 0.3 times as much.  The two are timed alternately, so that a
    # drift in machine speed meets both.
    a = intersection_form(random_page(random.Random(400), 400))
    times = {zlinalg._unit_pivots: [], dense_unit_pivots: []}
    diagonals = set()
    for _ in range(3):
        for pivots, runs in times.items():
            monkeypatch.setattr(zlinalg, "_unit_pivots", pivots)
            start = time.perf_counter()
            diagonals.add(smith_normal_form(a).diagonal)
            runs.append(time.perf_counter() - start)
    sparse, dense = (min(runs) for runs in times.values())
    assert len(diagonals) == 1
    assert sparse <= 0.5 * dense, (sparse, dense)
