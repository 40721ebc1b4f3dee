import random

import pytest

from supportgenus.errors import ToolkitError
from supportgenus.ribbon import (
    CurveClass,
    CurveMismatchError,
    MalformedSurfaceError,
    OpenBook,
    RibbonSurface,
    build_surface,
    dehn_twist_action,
    interleaving_form,
    intersection_form,
    is_nonseparating,
    stabilize,
)
from supportgenus.verify import random_surface
from supportgenus.zlinalg import IntMatrix


def test_disk():
    disk = build_surface(0, [])
    assert disk.euler_characteristic == 1
    assert disk.boundary_components == 1
    assert disk.genus == 0


def test_annulus():
    annulus = build_surface(1, [0, 0])
    assert annulus.euler_characteristic == 0
    assert annulus.boundary_components == 2
    assert annulus.genus == 0


def test_punctured_torus():
    torus = build_surface(2, [0, 1, 0, 1], crossings={(0, 1): 1})
    assert torus.euler_characteristic == -1
    assert torus.boundary_components == 1
    assert torus.genus == 1
    assert torus.intersection[0][1] == 1
    assert torus.intersection[1][0] == -1


def test_pair_of_pants():
    pants = build_surface(2, [0, 0, 1, 1])
    assert pants.boundary_components == 3
    assert pants.genus == 0
    assert pants.intersection[0][1] == 0


def test_feet_order_validation():
    with pytest.raises(MalformedSurfaceError):
        build_surface(2, [0, 1, 0])  # wrong length
    with pytest.raises(MalformedSurfaceError):
        build_surface(2, [0, 0, 0, 1])  # band 0 three times
    with pytest.raises(MalformedSurfaceError):
        build_surface(1, [0, 2])  # label out of range
    with pytest.raises(MalformedSurfaceError):
        build_surface(1, [0, 0], twists=[1, 2])


def test_crossing_parity_enforced():
    # interleaved bands intersect once inside the disk, so an even
    # outside crossing count is inconsistent
    with pytest.raises(MalformedSurfaceError, match="crossing parity"):
        build_surface(2, [0, 1, 0, 1])
    with pytest.raises(MalformedSurfaceError, match="crossing parity"):
        build_surface(2, [0, 1, 0, 1], crossings={(0, 1): 2})
    # nested bands are disjoint inside, so an odd count is inconsistent
    with pytest.raises(MalformedSurfaceError, match="crossing parity"):
        build_surface(2, [0, 0, 1, 1], crossings={(0, 1): 1})
    # matching parities are fine either way
    assert build_surface(2, [0, 1, 0, 1], crossings={(0, 1): -3}).genus == 1
    assert build_surface(2, [0, 0, 1, 1], crossings={(0, 1): 2}).boundary_components == 3


def test_surface_equality_and_hash():
    a = build_surface(1, [0, 0], twists=[2])
    b = build_surface(1, [0, 0], twists=[2])
    assert a == b and hash(a) == hash(b)
    assert a != build_surface(1, [0, 0], twists=[3])


def test_curve_class_validation():
    pants = build_surface(2, [0, 0, 1, 1])
    CurveClass(pants, (1, -2))
    with pytest.raises(CurveMismatchError):
        CurveClass(pants, (1,))
    with pytest.raises(CurveMismatchError):
        CurveClass(pants, (1, 0), traversal=((0, 1), (1, 1)))  # wrong abelianization
    with pytest.raises(CurveMismatchError):
        CurveClass(pants, (1, 0), traversal=((0, 2),))  # bad sign
    with pytest.raises(CurveMismatchError):
        CurveClass(pants, (1, 0), traversal=((5, 1),))  # bad band


def test_is_nonseparating():
    pants = build_surface(2, [0, 0, 1, 1])
    assert is_nonseparating(pants, CurveClass(pants, (1, 0)))
    assert not is_nonseparating(pants, CurveClass(pants, (0, 0)))
    other = build_surface(2, [0, 1, 0, 1], crossings={(0, 1): 1})
    with pytest.raises(CurveMismatchError):
        is_nonseparating(pants, CurveClass(other, (1, 0)))


def test_twist_action_preserves_form():
    rng = random.Random(23)
    for _ in range(120):
        surface = random_surface(rng)
        j = intersection_form(surface)
        curve = CurveClass(surface, tuple(rng.randint(-3, 3) for _ in range(surface.band_count)))
        sign = rng.choice((1, -1))
        m = dehn_twist_action(surface, curve, sign)
        assert m.transpose() @ j @ m == j
        assert m.mul_vec(curve.coefficients) == curve.coefficients


def test_twists_of_opposite_signs_invert():
    torus = build_surface(2, [0, 1, 0, 1], crossings={(0, 1): 1})
    curve = CurveClass(torus, (2, -1))
    left = dehn_twist_action(torus, curve, -1)
    right = dehn_twist_action(torus, curve, 1)
    assert left @ right == IntMatrix.identity(2)


def test_twist_action_on_transverse_pair():
    torus = build_surface(2, [0, 1, 0, 1], crossings={(0, 1): 1})
    a = CurveClass(torus, (1, 0))
    m = dehn_twist_action(torus, a, 1)
    # J a = (0, -1), so M = I + a (J a)^T = [[1, -1], [0, 1]]
    assert m == IntMatrix([[1, -1], [0, 1]])
    assert m.mul_vec((0, 1)) == (-1, 1)
    assert m.mul_vec((1, 0)) == (1, 0)


def test_twist_rejects_bad_sign():
    torus = build_surface(2, [0, 1, 0, 1], crossings={(0, 1): 1})
    with pytest.raises(ValueError):
        dehn_twist_action(torus, CurveClass(torus, (1, 0)), 2)


def test_open_book_validation():
    torus = build_surface(2, [0, 1, 0, 1], crossings={(0, 1): 1})
    pants = build_surface(2, [0, 0, 1, 1])
    curve = CurveClass(torus, (1, 0))
    OpenBook(page=torus, monodromy=((curve, 1), (curve, -1)))
    with pytest.raises(CurveMismatchError):
        OpenBook(page=pants, monodromy=((curve, 1),))
    with pytest.raises(ValueError):
        OpenBook(page=torus, monodromy=((curve, 0),))


def test_stabilize_once():
    annulus_book = stabilize(OpenBook(page=build_surface(0, [])), insert_at=(0, 1))
    page = annulus_book.page
    assert page.band_count == 1
    assert page.euler_characteristic == 0
    assert page.twists == (-1,)
    assert len(annulus_book.monodromy) == 1
    core, sign = annulus_book.monodromy[0]
    assert sign == 1 and core.coefficients == (1,)


def test_stabilize_twice_reaches_a_torus():
    book = OpenBook(page=build_surface(0, []))
    book = stabilize(book, insert_at=(0, 1))
    # interleave the second band with the first
    book = stabilize(book, insert_at=(1, 3))
    page = book.page
    assert page.feet_order == (0, 1, 0, 1)
    assert page.genus == 1
    assert page.euler_characteristic == -1
    assert [sign for _c, sign in book.monodromy] == [1, 1]
    # the crossing laid down matches the interleaving parity
    assert page.crossing_count(0, 1) % 2 == 1


def test_stabilize_lifts_existing_curves():
    torus = build_surface(2, [0, 1, 0, 1], crossings={(0, 1): 1})
    curve = CurveClass(torus, (1, 1), traversal=((0, 1), (1, 1)))
    book = stabilize(OpenBook(page=torus, monodromy=((curve, 1),)), insert_at=(4, 5))
    lifted, _sign = book.monodromy[0]
    assert lifted.coefficients == (1, 1, 0)
    assert book.page.euler_characteristic == torus.euler_characteristic - 1


def test_stabilize_rejects_bad_positions():
    book = OpenBook(page=build_surface(1, [0, 0]))
    with pytest.raises(MalformedSurfaceError):
        stabilize(book, insert_at=(2, 1))
    with pytest.raises(MalformedSurfaceError):
        stabilize(book, insert_at=(0, 4))


def test_constructor_messages_are_exact():
    torus = RibbonSurface(2, [0, 1, 0, 1], crossings={(0, 1): 1})
    disjoint_odd = (
        "crossing parity: bands 1 and 2 have crossing count 1 with intersection number 0; their closed cores "
        "are disjoint inside the disk, so they must cross an even number of times outside"
    )
    meeting_even = (
        "crossing parity: bands {} and {} have crossing count {} with intersection number 1; their closed cores "
        "meet once inside the disk, so they must cross an odd number of times outside"
    )
    cases = [
        (lambda: RibbonSurface(2, [0, 1, 0, 1.0]), "feet_order entry 1.0 is not a band index in 0..1"),
        (lambda: RibbonSurface(2, [0, 0, 0, 1]), "band 0 has 3 feet in feet_order, expected 2"),
        (lambda: RibbonSurface(2, [0, 1, 1, 1]), "band 0 has 1 feet in feet_order, expected 2"),
        (lambda: RibbonSurface(2, [0, 1, 0, 1], crossings={(0, 2): 1}), "crossing entry names band pair (0, 2) outside 0..1"),
        (lambda: RibbonSurface(2, [0, 1, 0, 1], crossings={(-1, 1): 1}), "crossing entry names band pair (-1, 1) outside 0..1"),
        (lambda: RibbonSurface(2, [0, 1, 0, 1], crossings={(0, 1): 1.0}), "crossing count for (0, 1) must be int"),
        (lambda: RibbonSurface(3, [0, 1, 0, 1, 2, 2], crossings={(0, 1): 1, (1, 2): 1}), disjoint_odd),
        (lambda: RibbonSurface(3, [0, 1, 0, 1, 2, 2], crossings={(0, 2): 2}), meeting_even.format(0, 1, 0)),
        # one odd pair, as many as interleave, but not the interleaved one
        (lambda: RibbonSurface(3, [0, 1, 0, 1, 2, 2], crossings={(1, 2): 1}), meeting_even.format(0, 1, 0)),
        (
            lambda: RibbonSurface(3, [0, 1, 2, 0, 1, 2], crossings={(0, 1): 1, (1, 2): 2, (0, 2): 1}),
            meeting_even.format(1, 2, 2),
        ),
        (lambda: RibbonSurface(2, [0, 1, 0, 1], crossings={(1, 0): 1, (0, 1): 1}), meeting_even.format(0, 1, 2)),
        (lambda: CurveClass(torus, (1, 1, 1)), "curve has 3 coefficients on a page with 2 bands"),
    ]
    for build, message in cases:
        with pytest.raises(ToolkitError) as info:
            build()
        assert str(info.value) == message


def test_crossings_in_any_form_reach_one_canonical_form():
    expected = (((0, 1), 1), ((1, 1), 2))
    for crossings in (
        {(0, 1): 1, (1, 1): 2},
        {(1, 0): 1, (1, 1): 2, (0, 0): 0},
        [((1, 0), 3), ((0, 1), -2), ((1, 1), 2)],
        {(0, 1): True, (1, 1): 2},
    ):
        surface = RibbonSurface(2, [0, 1, 0, 1], crossings=crossings)
        assert surface.crossings == expected
        assert [type(count) for _, count in surface.crossings] == [int, int]
    torus = RibbonSurface(2, [0, 1, 0, 1], crossings=expected)
    with pytest.raises(CurveMismatchError, match=r"^curve coefficient 0 is 1\.0, not an int$"):
        CurveClass(torus, [1.0, True])
    with pytest.raises(CurveMismatchError, match=r"^curve coefficient 0 is '1', not an int$"):
        CurveClass(torus, ("1", 2))


def test_curve_entries_must_be_ints_and_not_bools():
    torus = RibbonSurface(2, [0, 1, 0, 1], crossings={(0, 1): 1})
    cases = [
        (lambda: CurveClass(torus, (1, True)), "curve coefficient 1 is True, not an int"),
        (lambda: CurveClass(torus, [0, 2.7]), "curve coefficient 1 is 2.7, not an int"),
        (lambda: CurveClass(torus, (1, 0), traversal=((0, 1.0),)), "traversal entry 0 is (0, 1.0), not a pair of ints"),
        (
            lambda: CurveClass(torus, (1, 1), traversal=((0, 1), (True, 1))),
            "traversal entry 1 is (True, 1), not a pair of ints",
        ),
        (lambda: CurveClass(torus, (1, 0), traversal=[["0", 1]]), "traversal entry 0 is ('0', 1), not a pair of ints"),
    ]
    for build, message in cases:
        with pytest.raises(CurveMismatchError) as info:
            build()
        assert str(info.value) == message

    class Count(int):
        pass

    curve = CurveClass(torus, [Count(1), 1], traversal=[[0, Count(1)], (1, 1)])
    assert curve.coefficients == (1, 1) and curve.traversal == ((0, 1), (1, 1))
    assert {type(x) for x in curve.coefficients + curve.traversal[0]} == {int}


def brute_interleaving(feet, n):
    """<a_i, a_j> by testing every band pair against foot positions."""
    first, second = {}, {}
    for pos, band in enumerate(feet):
        (second if band in first else first)[band] = pos
    form = [[0] * n for _ in range(n)]
    for i in range(n):
        for j in range(n):
            if first[i] < first[j] < second[i] < second[j]:
                form[i][j], form[j][i] = 1, -1
    return form


def test_interleaving_form_matches_the_pair_test():
    rng = random.Random(29)
    orders = [
        [],
        [0, 0],
        [0, 0, 1, 1, 2, 2],  # adjacent feet
        [0, 1, 2, 2, 1, 0],  # nested
        [0, 1, 0, 2, 1, 2],  # a chain of interleavings
        [2, 1, 0, 2, 1, 0],  # every pair interleaved, last band opened first
    ]
    for n in range(61):
        feet = [band for band in range(n) for _ in range(2)]
        rng.shuffle(feet)
        orders.append(feet)
        nested = list(range(n)) + list(reversed(range(n)))
        orders.append(nested)
        # nested blocks with adjacent feet between them
        cut = rng.randint(0, n)
        orders.append(nested[:cut] + [b for b in range(n, n + 3) for _ in range(2)] + nested[cut:])
    for feet in orders:
        n = len(feet) // 2
        assert interleaving_form(feet, n) == brute_interleaving(feet, n), feet
