import math
import random
from itertools import combinations

import pytest

from supportgenus.verify import brute_kernel, random_matrix
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
    assert solve_integer(IntMatrix([[2, 3]]), [1]) == (-1, 1)
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
