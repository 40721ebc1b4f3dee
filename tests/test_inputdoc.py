import pytest

from supportgenus.fixtures import FIXTURE_NAMES, build_fixture, load_fixture
from supportgenus.inputdoc import (
    InputDocument,
    InputFormatError,
    parse_dict,
    parse_text,
    serialize,
    serialize_text,
)

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
