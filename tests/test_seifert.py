import random
import time

from supportgenus.ribbon import CurveClass, OpenBook, build_surface, intersection_form, stabilize
from supportgenus.seifert import page_framing_self_linking, seifert_matrix
from supportgenus.verify import dense_framing, random_page, random_surface
from supportgenus.zlinalg import IntMatrix


def test_annulus_pairing_is_the_twist():
    surface = build_surface(1, [0, 0], twists=[3])
    assert seifert_matrix(surface).pairing == IntMatrix([[3]])
    assert page_framing_self_linking(surface, CurveClass(surface, (1,))) == 3


def test_two_band_pairing_hand_checked():
    # interleaved bands with J = +1 and one negative crossing split as
    # V[0][1] = (c - J) / 2 = -1 and V[1][0] = (c + J) / 2 = 0
    surface = build_surface(2, [0, 1, 0, 1], twists=(-1, 5), crossings={(0, 1): -1})
    v = seifert_matrix(surface).pairing
    assert v == IntMatrix([[-1, -1], [0, 5]])


def test_self_crossings_enter_the_diagonal():
    surface = build_surface(1, [0, 0], twists=[1], crossings={(0, 0): 2})
    assert seifert_matrix(surface).pairing == IntMatrix([[3]])


def test_skew_part_is_minus_intersection_form():
    rng = random.Random(29)
    for _ in range(100):
        surface = random_surface(rng)
        assert seifert_matrix(surface).skew_part == -intersection_form(surface)


def test_diagonal_page_framings():
    for k in (1, 2, 3):
        surface = build_surface(2, [0, 1, 0, 1], twists=(-1, 2 * k + 1), crossings={(0, 1): -1})
        curve = CurveClass(surface, (1, 1))
        assert page_framing_self_linking(surface, curve) == 2 * k - 1


def test_planar_page_framing():
    for m in (1, 2, 3):
        n = m + 2
        feet = [band for band in range(n) for _ in range(2)]
        twists = tuple(0 if i % 2 == 0 else -1 for i in range(n))
        surface = build_surface(n, feet, twists=twists)
        coeffs = tuple(-1 if i == 1 else 0 for i in range(n))
        assert page_framing_self_linking(surface, CurveClass(surface, coeffs)) == -1


def test_framing_is_quadratic_and_orientation_blind():
    rng = random.Random(31)
    for _ in range(60):
        surface = random_surface(rng)
        coeffs = tuple(rng.randint(-2, 2) for _ in range(surface.band_count))
        curve = CurveClass(surface, coeffs)
        doubled = CurveClass(surface, tuple(2 * c for c in coeffs))
        reversed_curve = CurveClass(surface, tuple(-c for c in coeffs))
        f = page_framing_self_linking(surface, curve)
        assert page_framing_self_linking(surface, doubled) == 4 * f
        assert page_framing_self_linking(surface, reversed_curve) == f


def test_stabilization_keeps_old_framings():
    surface = build_surface(2, [0, 1, 0, 1], twists=(-1, 5), crossings={(0, 1): -1})
    curve = CurveClass(surface, (1, 1))
    before = page_framing_self_linking(surface, curve)
    book = stabilize(OpenBook(page=surface, monodromy=()), insert_at=(0, 3))
    lifted = CurveClass(book.page, curve.coefficients + (0,))
    assert page_framing_self_linking(book.page, lifted) == before


def test_new_band_core_has_framing_minus_one():
    rng = random.Random(37)
    for _ in range(30):
        surface = random_surface(rng, max_bands=4)
        n = surface.band_count
        p = rng.randint(0, 2 * n)
        q = rng.randint(p + 1, 2 * n + 1)
        book = stabilize(OpenBook(page=surface, monodromy=()), insert_at=(p, q))
        core = CurveClass(book.page, (0,) * n + (1,))
        assert page_framing_self_linking(book.page, core) == -1


def test_support_formula_matches_dense_pairing():
    rng = random.Random(41)
    for _ in range(150):
        surface = random_surface(rng, max_bands=8)
        n = surface.band_count
        sparse = [0] * n
        for i in rng.sample(range(n), rng.randint(1, min(3, n))):
            sparse[i] = rng.choice((-3, -2, -1, 1, 2, 3))
        dense = [rng.randint(-3, 3) for _ in range(n)]
        v = seifert_matrix(surface).pairing
        for coeffs in (tuple(sparse), tuple(dense), (0,) * n):
            got = page_framing_self_linking(surface, CurveClass(surface, coeffs))
            assert got == dense_framing(v, coeffs), (surface, coeffs)


def test_framing_cost_follows_the_support_not_the_page():
    # the Seifert matrix of this page takes about 60 ms to build on a
    # 2-vCPU Xeon VM, so one build per curve would take about 25 s
    rng = random.Random(43)
    surface = random_page(rng, 400)
    curves = []
    for _ in range(400):
        coeffs = [0] * 400
        for i in rng.sample(range(400), 6):
            coeffs[i] = rng.choice((-2, -1, 1, 2))
        curves.append(CurveClass(surface, tuple(coeffs)))
    start = time.perf_counter()
    framings = [page_framing_self_linking(surface, curve) for curve in curves]
    elapsed = time.perf_counter() - start
    assert elapsed < 1.0, elapsed
    v = seifert_matrix(surface).pairing
    for curve, framing in list(zip(curves, framings))[:10]:
        assert framing == dense_framing(v, curve.coefficients)
