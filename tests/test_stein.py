import pytest

from supportgenus.stein import (
    KernelAmbiguityError,
    KernelObstructionError,
    RotationResult,
    SteinCurve,
    SteinPositivityError,
    SteinProblem,
    base_rotation_planar,
    boundary_matrix,
    c1_cochain,
    format_cycle,
    rotation_number,
)
from supportgenus.zlinalg import IntMatrix


def test_base_rotation_default_convention():
    assert base_rotation_planar([]) == 0
    assert base_rotation_planar([(0, 1)]) == 0
    assert base_rotation_planar([(0, -1)]) == 0
    assert base_rotation_planar([(0, 1), (1, 1)]) == 0
    assert base_rotation_planar([(0, 1), (1, -1)]) == -1
    assert base_rotation_planar([(0, -1), (1, 1)]) == -1
    # two zigzags around the cyclic word
    assert base_rotation_planar([(0, 1), (1, -1), (2, 1), (3, -1)]) == -2


def test_base_rotation_rejects_bad_signs():
    with pytest.raises(ValueError):
        base_rotation_planar([(0, 2)])


def build_problem(columns, rotations, distinguished, handles=None):
    p = len(columns[0])
    handles = tuple(handles or (f"x{i}" for i in range(1, p + 1)))
    curves = tuple(
        SteinCurve(name=f"c{i}", traversal=tuple(col), rotation=rot)
        for i, (col, rot) in enumerate(zip(columns, rotations))
    )
    return SteinProblem(one_handles=handles, curves=curves, distinguished=distinguished)


def test_problem_validation():
    with pytest.raises(ValueError, match="distinct"):
        SteinProblem(
            one_handles=("x", "x"),
            curves=(SteinCurve("a", (1, 0), 0),),
            distinguished=0,
        )
    with pytest.raises(ValueError, match="out of range"):
        build_problem([(1,)], [0], distinguished=3)
    with pytest.raises(ValueError, match="length"):
        SteinProblem(("x",), (SteinCurve("a", (1, 0), 0),), 0)
    with pytest.raises(ValueError, match="abelianize"):
        SteinProblem(("x",), (SteinCurve("a", (1,), 0, runs=((0, -1),)),), 0)
    with pytest.raises(SteinPositivityError):
        SteinProblem(
            ("x",),
            (SteinCurve("a", (1,), 0), SteinCurve("b", (1,), 0, twist_sign=-1)),
            distinguished=0,
        )
    # a left twist on the distinguished curve itself is fine
    SteinProblem(
        ("x",),
        (SteinCurve("a", (1,), 0), SteinCurve("b", (1,), 0, twist_sign=-1)),
        distinguished=1,
    )


def test_boundary_matrix_columns_are_traversals():
    problem = build_problem([(1, 0), (1, -1), (0, 2)], [0, 0, 0], distinguished=0)
    assert boundary_matrix(problem) == IntMatrix([[1, 1, 0], [0, -1, 2]])
    assert c1_cochain(problem) == (0, 0, 0)


def test_rotation_single_handle():
    # d2 = [1, 1]: the only cycle with coefficient 1 on the distinguished
    # curve is S[c1] - S[c0], so rot = r1 - r0
    problem = build_problem([(1,), (1,)], [2, -3], distinguished=1)
    result = rotation_number(problem)
    assert isinstance(result, RotationResult)
    assert result.cycle == (-1, 1)
    assert result.rotation == -5
    assert format_cycle(problem, result.cycle) == "-S[c0] + S[c1]"


def test_rotation_is_independent_of_curve_order():
    columns = [(0, 1, 0), (1, -1, 0), (0, 1, -1), (0, -1, 0)]
    rotations = [0, -1, -1, 0]
    forward = rotation_number(build_problem(columns, rotations, distinguished=3))
    swapped = rotation_number(
        build_problem(list(reversed(columns)), list(reversed(rotations)), distinguished=0)
    )
    assert forward.rotation == swapped.rotation == 0


def test_rotation_obstruction_no_kernel():
    problem = build_problem([(1,)], [0], distinguished=0)
    with pytest.raises(KernelObstructionError) as info:
        rotation_number(problem)
    assert info.value.kernel_rank == 0


def test_rotation_obstruction_imprimitive_coefficient():
    # kernel of [1, 2] is spanned by (2, -1): no cycle hits the first
    # curve with coefficient one
    problem = build_problem([(1,), (2,)], [0, 0], distinguished=0)
    with pytest.raises(KernelObstructionError) as info:
        rotation_number(problem)
    assert info.value.kernel_rank == 1
    assert info.value.coefficient_gcd == 2


def test_rotation_ambiguity_reports_basis():
    problem = build_problem([(1,), (1,), (1,)], [0, 5, 7], distinguished=0)
    with pytest.raises(KernelAmbiguityError) as info:
        rotation_number(problem)
    assert len(info.value.basis) == 2
    assert len(info.value.pairings) == 2


def test_format_cycle_edge_cases():
    problem = build_problem([(1, 0), (0, 1)], [0, 0], distinguished=0)
    assert format_cycle(problem, (0, 0)) == "0"
    assert format_cycle(problem, (2, -1)) == "2*S[c0] - S[c1]"
    assert format_cycle(problem, (-1, -3)) == "-S[c0] - 3*S[c1]"
