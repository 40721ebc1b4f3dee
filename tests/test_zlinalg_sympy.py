"""sympy as an independent oracle for the integer linear algebra.

sympy is a test-only dependency: the package never imports it, and this
module is skipped where it is missing.
"""

import random

import pytest

sympy = pytest.importorskip("sympy")
from sympy.matrices.normalforms import invariant_factors  # noqa: E402

from supportgenus.ribbon import intersection_form  # noqa: E402
from supportgenus.verify import random_matrix, random_surface  # noqa: E402
from supportgenus.zlinalg import IntMatrix, hermite_reduce, kernel_basis, smith_normal_form  # noqa: E402


def sympy_factors(a: IntMatrix) -> tuple:
    if a.rows == 0 or a.cols == 0:
        return ()
    return tuple(int(x) for x in invariant_factors(sympy.Matrix(a.data), domain=sympy.ZZ))


def low_rank(rng: random.Random, rows: int, cols: int, rank: int) -> IntMatrix:
    return random_matrix(rng, rows, rank, span=3) @ random_matrix(rng, rank, cols, span=3)


def test_dense_matrices_against_sympy():
    rng = random.Random(23)
    cases = [random_matrix(rng, rows, cols) for rows, cols in ((5, 5), (7, 12), (15, 9), (20, 20), (24, 27))]
    # the 40 x 40 case of the ROADMAP baseline, 15.6 s with full transforms
    cases.append(random_matrix(random.Random(1), 40, 40))
    for a in cases:
        assert smith_normal_form(a).diagonal == sympy_factors(a)


def test_low_rank_products_against_sympy():
    rng = random.Random(29)
    for rows, cols, rank in ((5, 6, 2), (12, 15, 5), (18, 14, 9), (30, 25, 12), (25, 30, 1)):
        a = low_rank(rng, rows, cols, rank)
        s = smith_normal_form(a)
        assert s.diagonal == sympy_factors(a)
        assert s.rank <= rank


def test_intersection_forms_against_sympy():
    rng = random.Random(31)
    for _ in range(12):
        a = intersection_form(random_surface(rng, max_bands=40))
        assert smith_normal_form(a).diagonal == sympy_factors(a)


def test_kernel_of_a_wide_matrix():
    a = random_matrix(random.Random(1), 30, 35)
    basis = kernel_basis(a)
    rank = smith_normal_form(a).rank
    assert all(not any(a.mul_vec(v)) for v in basis)
    assert len(basis) == a.cols - rank
    # saturated: the basis extends to a basis of Z^35
    assert sympy_factors(IntMatrix(basis)) == (1,) * len(basis)
    assert hermite_reduce(basis) == basis
