import json
import random
import time
from collections import OrderedDict
from types import MappingProxyType

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from supportgenus.fixtures import FIXTURE_NAMES, build_fixture, load_fixture
from supportgenus.hfbook import FormalHFModule, SpincSlot, hf_plus_surgery
from supportgenus.inputdoc import (
    CurveRecord,
    InputDocument,
    InputFormatError,
    OpenBookRecord,
    json_text,
    parse_dict,
    parse_text,
    serialize,
    serialize_text,
)
from supportgenus.ribbon import CurveClass, OpenBook, interleaving_form
from supportgenus.stein import SteinCurve, SteinProblem, base_rotation_planar
from supportgenus.verify import random_fact_base, random_page

MINIMAL = {
    "surfaces": [
        {
            "name": "page",
            "feet_order": [1, 2, 1, 2],
            "twists": [-1, 3],
            "crossings": [{"bands": [1, 2], "count": -1}],
        }
    ],
    "curves": [
        {"name": "K", "surface": "page", "coefficients": [1, 1], "traversal": [[1, 1], [2, 1]]}
    ],
    "open_books": [{"name": "ob", "page": "page", "monodromy": [{"curve": "K", "sign": 1}]}],
    "stein_problems": [
        {
            "name": "prob",
            "one_handles": ["x1", "x2"],
            "distinguished": "K",
            "curves": [
                {"name": "K", "runs": [[1, 1], [2, 1]]},
                {"name": "g", "traversal": [1, 0], "rotation": 2},
            ],
        }
    ],
    "hf_modules": [
        {"name": "big", "trefoil_surgery": 7},
        {"name": "tiny", "slots": [{"towers": 2, "finite_z": 1}]},
    ],
    "facts": [
        {"kind": "page-witness", "genus": 1, "subject": {"type": "t", "tb": 1, "rot": 0}},
        {
            "kind": "stabilization-of",
            "subject": {"type": "t", "tb": 0, "rot": 1},
            "parent": {"type": "t", "tb": 1, "rot": 0},
            "sign": 1,
        },
        {"kind": "classification-axiom", "subject": {"type": "t", "tb": 1, "rot": 0, "tags": ["x"]}, "note": "n"},
    ],
}


def test_empty_document():
    doc = parse_text("{}")
    assert doc == InputDocument()
    assert serialize(doc) == {}


def test_parse_resolves_every_section():
    doc = parse_dict(MINIMAL)
    assert doc.surfaces["page"].genus == 1
    assert doc.curves["K"].curve.coefficients == (1, 1)
    assert doc.open_books["ob"].book.monodromy[0][1] == 1
    problem = doc.stein_problems["prob"]
    assert problem.distinguished_curve.name == "K"
    # runs [[1,1],[2,1]] has no sign alternation, so the derived rotation is 0
    assert problem.curves[0].rotation == 0
    assert problem.curves[1].rotation == 2
    assert doc.hf_modules["big"].spinc_count == 8
    assert doc.hf_modules["tiny"].slots[0].towers == 2
    assert len(doc.facts) == 3
    assert doc.facts[2].subject.tags == ("x",)


def test_round_trip_on_the_inline_document():
    doc = parse_dict(MINIMAL)
    again = parse_text(serialize_text(doc))
    assert again == doc
    assert serialize(again) == serialize(doc)


def test_round_trip_on_every_fixture():
    for name in FIXTURE_NAMES:
        doc = build_fixture(name)
        again = parse_text(serialize_text(doc))
        assert again == doc, name
        assert serialize(again) == serialize(doc), name


def test_descriptor_tags_survive_a_round_trip():
    plain = {"type": "t", "tb": 1, "rot": 0}
    tagged = dict(plain, tags=["seen on a page"])
    doc = parse_dict(
        {
            "facts": [
                {"kind": "positive-tb", "subject": plain},
                {"kind": "page-witness", "genus": 1, "subject": tagged},
                {"kind": "nonplanar-surgery", "subject": plain},
            ]
        }
    )
    for again in (doc, parse_text(serialize_text(doc))):
        assert [fact.subject.tags for fact in again.facts] == [(), ("seen on a page",), ()]
        assert again.facts[0].subject is again.facts[2].subject
    assert serialize(parse_text(serialize_text(doc))) == serialize(doc)


def test_bundled_files_match_their_builders():
    # the shipped JSON is generated; this is the drift guard
    for name in FIXTURE_NAMES:
        assert load_fixture(name) == build_fixture(name), name


def test_unknown_fixture_name():
    with pytest.raises(InputFormatError, match="no fixture named"):
        load_fixture("fig9_unheard_of")
    with pytest.raises(InputFormatError, match="no fixture named"):
        build_fixture("fig9_unheard_of")


def fails_with(data, fragment):
    with pytest.raises(InputFormatError) as info:
        parse_dict(data)
    assert fragment in str(info.value), str(info.value)


def test_unknown_keys_are_rejected_at_every_level():
    fails_with({"surfackes": []}, "unknown field(s) 'surfackes'")
    fails_with({"surfaces": [{"name": "s", "feet_order": [1, 1], "color": "red"}]}, "surfaces[0]")
    fails_with(
        {"surfaces": [{"name": "s", "feet_order": [1, 1], "crossings": [{"bands": [1, 1], "count": 1, "x": 2}]}]},
        "crossings[0]",
    )
    fails_with(
        {"facts": [{"kind": "positive-tb", "subject": {"type": "t", "tb": 1, "rot": 0, "x": 1}}]},
        "subject",
    )
    fails_with(
        {"facts": [{"kind": "positive-tb", "subject": {"type": "t", "tb": 1, "rot": 0}, "genus": 1}]},
        "unknown field(s) 'genus'",
    )


def test_dangling_references():
    fails_with(
        {"curves": [{"name": "K", "surface": "ghost", "coefficients": [1]}]},
        "dangling reference",
    )
    fails_with({"open_books": [{"name": "ob", "page": "ghost"}]}, "dangling reference")
    fails_with(
        {
            "surfaces": [{"name": "s", "feet_order": [1, 1]}],
            "open_books": [{"name": "ob", "page": "s", "monodromy": [{"curve": "ghost", "sign": 1}]}],
        },
        "dangling reference",
    )
    fails_with(
        {
            "stein_problems": [
                {"name": "p", "one_handles": ["x"], "distinguished": "ghost", "curves": [{"name": "a", "runs": [[1, 1]]}]}
            ]
        },
        "dangling reference",
    )


def test_duplicate_names():
    fails_with(
        {"surfaces": [{"name": "s", "feet_order": [1, 1]}, {"name": "s", "feet_order": [1, 1]}]},
        "duplicate name",
    )
    fails_with(
        {"surfaces": [{"name": "s", "feet_order": [1, 1], "crossings": [
            {"bands": [1, 1], "count": 1}, {"bands": [1, 1], "count": 2}]}]},
        "listed twice",
    )


def test_type_errors_name_their_location():
    fails_with({"surfaces": [{"name": 3, "feet_order": [1, 1]}]}, "surfaces[0].name")
    fails_with({"surfaces": [{"name": "s", "feet_order": [1, True]}]}, "feet_order[1]")
    fails_with({"surfaces": [{"name": "s", "feet_order": [1, 3]}]}, "band label 3 outside 1..1")
    fails_with({"surfaces": [{"name": "s", "feet_order": [1, 1, 2]}]}, "odd number of feet")
    fails_with(
        {"facts": [{"kind": "page-witness", "genus": 1, "subject": {"type": "t", "tb": "one", "rot": 0}}]},
        "subject.tb",
    )
    fails_with({"curves": "not-a-list"}, "expected a list")


def test_semantic_violations_carry_their_location():
    # parity violation inside surface construction
    fails_with({"surfaces": [{"name": "s", "feet_order": [1, 2, 1, 2]}]}, "surfaces[0]: crossing parity")
    # stabilization fact whose arithmetic does not match
    fails_with(
        {
            "facts": [
                {
                    "kind": "stabilization-of",
                    "subject": {"type": "t", "tb": 1, "rot": 0},
                    "parent": {"type": "t", "tb": 1, "rot": 0},
                    "sign": 1,
                }
            ]
        },
        "facts[0]",
    )
    fails_with(
        {"facts": [{"kind": "positive-tb", "subject": {"type": "t", "tb": 0, "rot": 0}}]},
        "not positive",
    )
    fails_with({"facts": [{"kind": "telepathy", "subject": {"type": "t", "tb": 0, "rot": 0}}]}, "unknown fact kind")


def test_stein_curve_requires_rotation_data():
    fails_with(
        {"stein_problems": [{"name": "p", "one_handles": ["x"], "distinguished": "a", "curves": [{"name": "a"}]}]},
        "traversal vector or a runs word",
    )
    fails_with(
        {
            "stein_problems": [
                {"name": "p", "one_handles": ["x"], "distinguished": "a", "curves": [{"name": "a", "traversal": [1]}]}
            ]
        },
        "neither a runs word nor an explicit rotation",
    )
    # runs disagreeing with an explicit traversal vector
    fails_with(
        {
            "stein_problems": [
                {
                    "name": "p",
                    "one_handles": ["x"],
                    "distinguished": "a",
                    "curves": [{"name": "a", "traversal": [3], "runs": [[1, 1]]}],
                }
            ]
        },
        "abelianize",
    )


def test_hf_module_needs_exactly_one_source():
    fails_with({"hf_modules": [{"name": "m"}]}, "exactly one")
    fails_with({"hf_modules": [{"name": "m", "trefoil_surgery": 7, "slots": []}]}, "exactly one")
    fails_with({"hf_modules": [{"name": "m", "trefoil_surgery": 3}]}, "outside the recorded range")
    fails_with({"hf_modules": [{"name": "m", "slots": [{"towers": -1, "finite_z": 0}]}]}, "nonnegative")


def test_self_crossings_are_legal_in_files():
    doc = parse_dict({"surfaces": [{"name": "s", "feet_order": [1, 1], "crossings": [{"bands": [1, 1], "count": 2}]}]})
    assert doc.surfaces["s"].crossing_count(0, 0) == 2
    assert parse_text(serialize_text(doc)) == doc


def test_parse_text_reports_syntax_errors_with_position():
    with pytest.raises(InputFormatError) as info:
        parse_text('{"surfaces": [}')
    assert "line 1" in str(info.value)
    with pytest.raises(InputFormatError, match="top level"):
        parse_text("[1, 2]")


class _Int(int):
    pass


class _Str(str):
    pass


class _List(list):
    pass


def _loosened(value):
    """``value`` with every object a read-only Mapping and every int,
    string and list a subclass instance."""
    if type(value) is dict:
        return MappingProxyType(OrderedDict((k, _loosened(v)) for k, v in value.items()))
    if type(value) is list:
        return _List(_loosened(v) for v in value)
    if type(value) is int:
        return _Int(value)
    if type(value) is str:
        return _Str(value)
    return value


def test_mappings_and_subclasses_parse_like_plain_values():
    for data in [MINIMAL] + [serialize(build_fixture(name)) for name in ("fig1_torus_k2", "fig3_twist_m2", "thm13_facts")]:
        assert parse_dict(_loosened(data)) == parse_dict(data)
    # bool stays rejected wherever an integer is expected
    fails_with(
        {"surfaces": [{"name": "s", "feet_order": [1, 1], "crossings": [{"bands": [1, True], "count": 2}]}]},
        "surfaces[0].crossings[0].bands[1]: expected an integer, got True",
    )
    fails_with(_loosened({"curves": [{"name": "K", "surface": "s", "coefficients": [False]}]}), "dangling reference")


def wide_page_text(rng: random.Random, bands: int, curve_count: int) -> str:
    """A page in the style of the benchmark's wide pages: shuffled feet,
    a crossing of the forced parity on every interleaved pair, a few even
    crossings and self-crossings, and curves over a few bands each."""
    feet = [band for band in range(bands) for _ in range(2)]
    rng.shuffle(feet)
    iform = interleaving_form(feet, bands)
    crossings = []
    for i in range(bands):
        for j in range(i + 1, bands):
            if iform[i][j]:
                crossings.append({"bands": [i + 1, j + 1], "count": rng.choice((-3, -1, 1, 3))})
            elif rng.random() < 0.05:
                crossings.append({"bands": [i + 1, j + 1], "count": rng.choice((-2, 2))})
    for i in sorted(rng.sample(range(bands), bands // 10)):
        crossings.append({"bands": [i + 1, i + 1], "count": rng.choice((-2, -1, 1, 2))})
    page = {
        "name": "page",
        "feet_order": [f + 1 for f in feet],
        "twists": [rng.randint(-3, 3) for _ in range(bands)],
        "crossings": crossings,
    }
    curves = []
    for c in range(curve_count):
        coefficients = [0] * bands
        runs = []
        for band in rng.sample(range(bands), rng.randint(1, 6)):
            k = rng.choice((-2, -1, 1, 2))
            coefficients[band] = k
            runs += [[band + 1, 1 if k > 0 else -1]] * abs(k)
        rng.shuffle(runs)
        curves.append({"name": f"K{c + 1}", "surface": "page", "coefficients": coefficients, "traversal": runs})
    return json.dumps({"surfaces": [page], "curves": curves})


def _fastest(run, repeats: int = 3) -> float:
    times = []
    for _ in range(repeats):
        start = time.perf_counter()
        run()
        times.append(time.perf_counter() - start)
    return min(times)


def test_parse_costs_a_small_multiple_of_json_decoding():
    # A ratio to json.loads of the same text does not move with the
    # machine's speed: 400 bands, about 28,000 crossings, 400 curves.
    text = wide_page_text(random.Random(400), 400, 400)
    doc = parse_text(text)
    assert doc.surfaces["page"].band_count == 400 and len(doc.curves) == 400
    ratio = _fastest(lambda: parse_text(text)) / _fastest(lambda: json.loads(text))
    assert ratio <= 6, f"parse_text took {ratio:.1f} times json.loads"


_json_values = st.recursive(
    st.none() | st.booleans() | st.integers() | st.text(),
    lambda inner: st.lists(inner, max_size=4)
    | st.lists(inner, max_size=3).map(tuple)
    | st.dictionaries(st.text(max_size=6), inner, max_size=4),
    max_leaves=24,
)


@settings(max_examples=80, deadline=None)
@given(_json_values)
def test_json_text_matches_json_dumps_with_indent_2(value):
    assert json_text(value) == json.dumps(value, indent=2)


def test_json_text_rejects_what_it_does_not_write():
    for value in (1.5, {1: 2}, {"a": {3}}, [b"x"]):
        with pytest.raises(TypeError):
            json_text(value)


@st.composite
def documents(draw):
    """A document with pages, curves, an open book, a Stein problem, HF
    modules and facts, drawn from the shared seeded generators."""
    rng = draw(st.randoms(use_true_random=False))
    doc = InputDocument()
    for s in range(rng.randint(0, 2)):
        doc.surfaces[f"page{s}"] = random_page(rng, rng.randint(1, 5))
    for c in range(rng.randint(0, 3) if doc.surfaces else 0):
        surface_name = rng.choice(list(doc.surfaces))
        page = doc.surfaces[surface_name]
        coefficients = tuple(rng.randint(-2, 2) for _ in range(page.band_count))
        runs = [(band, 1 if k > 0 else -1) for band, k in enumerate(coefficients) for _ in range(abs(k))]
        rng.shuffle(runs)
        curve = CurveClass(page, coefficients, tuple(runs) if rng.random() < 0.5 else None)
        doc.curves[f"K{c}"] = CurveRecord(surface_name=surface_name, curve=curve)
    if doc.curves:
        page_name = rng.choice(list(doc.surfaces))
        steps = tuple((name, rng.choice((1, -1))) for name, r in doc.curves.items() if r.surface_name == page_name)
        word = tuple((doc.curves[name].curve, sign) for name, sign in steps)
        book = OpenBook(doc.surfaces[page_name], word)
        doc.open_books["ob"] = OpenBookRecord(page_name=page_name, steps=steps, book=book)
    if rng.random() < 0.7:
        p = rng.randint(1, 3)
        curves = []
        for c in range(rng.randint(1, 3)):
            if rng.random() < 0.6:
                runs = tuple((rng.randrange(p), rng.choice((1, -1))) for _ in range(rng.randint(1, 4)))
                traversal = tuple(sum(s for h, s in runs if h == k) for k in range(p))
                rotation = base_rotation_planar(runs) if rng.random() < 0.5 else rng.randint(-3, 3)
            else:
                runs, traversal, rotation = None, tuple(rng.randint(-2, 2) for _ in range(p)), rng.randint(-3, 3)
            curves.append(SteinCurve(f"c{c}", traversal, rotation, runs))
        distinguished = rng.randrange(len(curves))
        if rng.random() < 0.3:
            d = curves[distinguished]
            curves[distinguished] = SteinCurve(d.name, d.traversal, d.rotation, d.runs, twist_sign=-1)
        doc.stein_problems["prob"] = SteinProblem(tuple(f"x{i}" for i in range(p)), tuple(curves), distinguished)
    for m in range(rng.randint(0, 2)):
        doc.hf_modules[f"hf{m}"] = (
            hf_plus_surgery(rng.randint(7, 9))
            if rng.random() < 0.5
            else FormalHFModule(tuple(SpincSlot(rng.randint(0, 3), rng.randint(0, 3)) for _ in range(rng.randint(1, 4))))
        )
    doc.facts = tuple(random_fact_base(rng))
    return doc


@settings(max_examples=100, deadline=None)
@given(documents())
def test_parse_serialize_parse_round_trips(doc):
    first = parse_dict(serialize(doc))
    assert first == doc
    text = serialize_text(first)
    second = parse_text(text)
    assert second == first
    assert serialize(second) == serialize(first)
    assert serialize_text(second) == text
