import contextlib
import dataclasses
import gc
import hashlib
import io
import json
import random
import runpy
import sys

import pytest
from test_sgengine import shape_facts

from supportgenus.cli import main
from supportgenus.fixtures import FIXTURE_NAMES
from supportgenus.inputdoc import InputDocument, parse_text, serialize

AMBIGUOUS = json.dumps(
    {
        "stein_problems": [
            {
                "name": "p",
                "one_handles": ["x"],
                "distinguished": "a",
                "curves": [
                    {"name": "a", "runs": [[1, 1]]},
                    {"name": "b", "runs": [[1, 1]]},
                    {"name": "c", "runs": [[1, 1]]},
                ],
            }
        ]
    }
)


def test_tb_on_a_bundled_fixture(capsys):
    assert main(["tb", "--input", "fig1_torus_k1"]) == 0
    out = capsys.readouterr().out
    assert "curve" in out and "K" in out and "page" in out


def test_fixture_name_with_json_suffix(capsys):
    assert main(["tb", "--input", "fig1_torus_k2.json", "--format", "machine"]) == 0
    data = json.loads(capsys.readouterr().out)
    assert data == {"command": "tb", "results": [{"curve": "K", "surface": "page", "tb": 3}]}


def test_rot_human_report(capsys):
    assert main(["rot", "--input", "fig3_twist_m1"]) == 0
    out = capsys.readouterr().out
    assert "rot_K" in out
    assert "S[gamma_1] + S[K]" in out


def test_rot_machine_report(capsys):
    assert main(["rot", "--input", "fig3_twist_m1", "--format", "machine"]) == 0
    data = json.loads(capsys.readouterr().out)
    entry = data["results"][0]
    assert entry["rotation"] == 0
    assert entry["formatted"] == "S[gamma_1] + S[K]"
    assert len(entry["cycle"]) == len(entry["base_rotations"]) == 4


def test_snf_covers_surfaces_and_problems(capsys):
    assert main(["snf", "--input", "fig3_twist_m1"]) == 0
    out = capsys.readouterr().out
    assert "intersection(page)" in out
    assert "boundary(rot_K)" in out


def test_hf_table(capsys):
    assert main(["hf", "--input", "hf_trefoil_n7"]) == 0
    out = capsys.readouterr().out
    assert "surgery" in out
    assert "3, 1, 1, 1, 1, 1, 1, 1" in out


def test_sg_bounds_with_trace(capsys):
    assert main(["sg-bounds", "--input", "thm13_facts"]) == 0
    out = capsys.readouterr().out
    assert "torus(2,3)(tb=1, rot=0): [1, 1]" in out
    assert "\n  R1: hi <= 1" in out
    assert "\n  R3: lo >= 1" in out


def test_sg_bounds_pins_the_grid(capsys):
    assert main(["sg-bounds", "--input", "thm14_facts", "--format", "machine"]) == 0
    data = json.loads(capsys.readouterr().out)
    pinned = [r for r in data["results"] if (r["lo"], r["hi"]) == (0, 0)]
    assert len(pinned) >= 9
    for entry in pinned:
        assert entry["trace"], entry
        assert {"rule", "bound", "value", "reason"} <= set(entry["trace"][0])


def test_empty_document_is_not_an_error(capsys):
    assert main(["tb", "--input", "{}"]) == 0
    assert capsys.readouterr().out == "no curves in document\n"


def test_inline_json_document(capsys):
    doc = json.dumps(
        {
            "surfaces": [{"name": "ann", "feet_order": [1, 1], "twists": [3]}],
            "curves": [{"name": "core", "surface": "ann", "coefficients": [1], "traversal": [[1, 1]]}],
        }
    )
    assert main(["tb", "--input", doc, "--format", "machine"]) == 0
    data = json.loads(capsys.readouterr().out)
    assert data["results"] == [{"curve": "core", "surface": "ann", "tb": 3}]


def test_document_read_from_a_file_path(tmp_path, capsys):
    target = tmp_path / "doc.json"
    target.write_text(json.dumps({"hf_modules": [{"name": "big", "trefoil_surgery": 7}]}))
    assert main(["hf", "--input", str(target), "--format", "machine"]) == 0
    assert json.loads(capsys.readouterr().out)["results"][0]["hat_ranks"] == [3] + [1] * 7


def test_out_writes_the_report_to_a_file(tmp_path, capsys):
    target = tmp_path / "report.json"
    code = main(["tb", "--input", "fig1_torus_k1", "--format", "machine", "--out", str(target)])
    assert code == 0
    assert capsys.readouterr().out == ""
    assert json.loads(target.read_text())["results"][0]["tb"] == 1


def test_verify_paper(capsys):
    assert main(["verify-paper"]) == 0
    out = capsys.readouterr().out
    assert "9/9 criteria passed" in out


def test_verify_paper_machine(capsys):
    assert main(["verify-paper", "--format", "machine"]) == 0
    data = json.loads(capsys.readouterr().out)
    assert data["all_passed"] is True
    assert [r["number"] for r in data["results"]] == list(range(1, 10))
    assert all(r["passed"] for r in data["results"])


def test_parse_failures_exit_2(capsys):
    assert main(["tb", "--input", '{"surfaces": [{"name": "s"}]}']) == 2
    err = capsys.readouterr().err
    assert err.startswith("error: surfaces[0]")

    assert main(["tb", "--input", "no_such_fixture"]) == 2
    err = capsys.readouterr().err
    assert "bundled" in err and "fig1_torus_k1" in err

    # an empty value is not a path: Path("") would be the working directory
    assert main(["tb", "--input", ""]) == 2
    err = capsys.readouterr().err
    assert err.startswith("error: document: '' is not a file, inline JSON, or a bundled fixture (bundled: "), err

    assert main(["tb", "--input", "missing_file.json"]) == 2
    assert "error:" in capsys.readouterr().err


@pytest.mark.parametrize("case", ["input-is-a-directory", "input-is-not-utf8", "output-directory-is-missing"])
def test_unreadable_input_and_unwritable_output_exit_2(case, tmp_path, capsys):
    if case == "input-is-a-directory":
        path, argv = tmp_path, ["tb", "--input", str(tmp_path)]
    elif case == "input-is-not-utf8":
        path = tmp_path / "latin1.json"
        path.write_bytes('{"surfaces": [{"name": "p\xe4ge", "feet_order": [1, 1]}]}'.encode("latin-1"))
        argv = ["tb", "--input", str(path)]
    else:
        path = tmp_path / "missing" / "report.txt"
        argv = ["tb", "--input", "fig1_torus_k1", "--out", str(path)]
    assert main(argv) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.startswith(f"error: {path}: ") and captured.err.count("\n") == 1, captured.err


def test_deeply_nested_document_exits_2(capsys):
    doc = '{"facts": ' + "[" * 5000 + "]" * 5000 + "}"
    assert main(["sg-bounds", "--input", doc]) == 2
    assert capsys.readouterr().err == "error: document: nested too deeply to parse\n"


def test_overlong_integer_literal_exits_2(capsys):
    doc = '{"facts": [{"kind": "positive-tb", "subject": {"type": "unknot", "tb": ' + "1" * 5000 + ', "rot": 0}}]}'
    assert main(["sg-bounds", "--input", doc]) == 2
    assert capsys.readouterr().err == "error: document: an integer literal has too many digits\n"


def test_computation_failures_exit_1(capsys):
    assert main(["rot", "--input", AMBIGUOUS]) == 1
    err = capsys.readouterr().err
    assert err.startswith("error:")
    # the same document parses fine for commands that never need the kernel
    assert main(["snf", "--input", AMBIGUOUS]) == 0


def test_argparse_rejections():
    for argv in ([], ["tb"], ["frobnicate"], ["tb", "--input", "{}", "--format", "yaml"]):
        with pytest.raises(SystemExit) as info:
            main(argv)
        assert info.value.code == 2


def test_python_dash_m_runs_the_cli(monkeypatch, capsys):
    monkeypatch.setattr(sys, "argv", ["supportgenus", "tb", "--input", "fig1_torus_k1"])
    with pytest.raises(SystemExit) as info:
        runpy.run_module("supportgenus", run_name="__main__")
    assert info.value.code == 0
    assert capsys.readouterr().out.startswith("curve  surface  tb\n")


MALFORMED = (
    '{"surfaces": [{"name": "s", "feet_order": [1, 2, 1, 2], "crossings": [{"bands": [1, 2], "count": true}]}]}',
    '{"curves": [{"name": "K", "surface": "ghost", "coefficients": [1]}], "extra": 1}',
    '{"facts": [{"kind": "page-witness", "genus": 1, "subject": {"type": "t", "tb": 1}}',
)
# Recorded before the parser was rewritten for speed; see CHANGES.md.
REPORTS_DIGEST = "611a2d8f84e1094cb9f6f777ba364d36e9c7533f01ce5163cb1511bd51426bd4"


def test_reports_are_byte_identical_to_the_recorded_ones(capsys):
    digest = hashlib.sha256()
    for document in FIXTURE_NAMES + ("{}",) + MALFORMED:
        for command in ("tb", "rot", "snf", "hf", "sg-bounds"):
            for fmt in ("human", "machine"):
                code = main([command, "--input", document, "--format", fmt])
                captured = capsys.readouterr()
                digest.update(json.dumps([code, captured.out, captured.err]).encode())
    assert digest.hexdigest() == REPORTS_DIGEST


def sg_bounds_documents():
    """Chain, mirror and grid fact bases as shuffled JSON documents, with a
    tagged copy of some descriptors; genus 0 at the root clashes."""
    rng = random.Random(1986)
    for shape, size in (("chain", 40), ("mirror", 15), ("grid", 5)):
        for genus in (0, 1, 2):
            facts = []
            for fact in shape_facts(rng, shape, size, genus):
                if rng.random() < 0.3:
                    fact = dataclasses.replace(fact, subject=dataclasses.replace(fact.subject, tags=("seen",)))
                facts.append(fact)
            rng.shuffle(facts)
            yield json.dumps(serialize(InputDocument(facts=tuple(facts))))


# Recorded before descriptors were numbered once per derivation; see CHANGES.md.
SG_BOUNDS_DIGEST = "92903145d1fb272e7d8eaf9e68f378426dae8dcae72d20266a347c4935b5049a"


def test_sg_bounds_reports_are_byte_identical_to_the_recorded_ones(capsys):
    digest = hashlib.sha256()
    for document in sg_bounds_documents():
        for fmt in ("human", "machine"):
            code = main(["sg-bounds", "--input", document, "--format", fmt])
            captured = capsys.readouterr()
            digest.update(json.dumps([code, captured.out, captured.err]).encode())
    assert digest.hexdigest() == SG_BOUNDS_DIGEST


def test_machine_reports_leave_no_reference_cycles():
    gc.collect()
    gc.set_debug(gc.DEBUG_SAVEALL)
    try:
        for document in ("fig1_torus_k1", "fig3_twist_m2", "hf_trefoil_n7", "thm13_facts"):
            for command in ("tb", "rot", "snf", "hf", "sg-bounds"):
                with contextlib.redirect_stdout(io.StringIO()):
                    assert main([command, "--input", document, "--format", "machine"]) == 0
        gc.collect()
        left = sorted(type(obj).__name__ for obj in gc.garbage)
    finally:
        gc.set_debug(0)
        gc.garbage.clear()
    assert left == []


def _fact_fault_base(rng):
    """One valid fact of every kind, as JSON dicts, with fresh descriptor
    dicts so that a fault touches one fact only."""

    def desc(tb, rot):
        return {"type": "k", "tb": tb, "rot": rot}

    tb, rot = rng.randint(1, 4), rng.randint(-2, 2)
    sign = rng.choice((1, -1))
    return [
        {"kind": "page-witness", "subject": desc(tb, rot), "genus": rng.randint(1, 3)},
        {"kind": "positive-tb", "subject": desc(tb, rot)},
        {"kind": "nonplanar-surgery", "subject": desc(tb - 2, rot)},
        {"kind": "stabilization-of", "subject": desc(tb - 1, rot + sign), "parent": desc(tb, rot), "sign": sign},
        {"kind": "orientation-mirror", "subject": desc(tb - 1, 1), "other": desc(tb - 1, -1)},
        {"kind": "classification-axiom", "subject": desc(tb, rot), "note": "unique"},
    ]


def _fact_faults(fact):
    """(what, faulty copy) for one fact: every key missing, null or
    doubled by an unknown one, wrong scalar types and values, malformed
    descriptors, an unknown kind and a mismatched stabilization."""
    keys = [key for key in fact if key != "note"] + ["note"]
    for key in keys:
        if key in fact:
            yield f"missing {key}", {k: v for k, v in fact.items() if k != key}
        yield f"null {key}", {**fact, key: None}
    yield "extra key", {**fact, "zz": 1}
    yield "extra key and a 2-key subject", {**fact, "zz": 1, "subject": {"type": "k", "tb": 1}}
    yield "with a note", {**fact, "note": "n"}
    yield "empty note", {**fact, "note": ""}
    yield "foreign genus", {**fact, "genus": 1} if "genus" not in fact else {**fact, "sign": 1}
    yield "note not a string", {**fact, "note": 3}
    yield "unknown kind", {**fact, "kind": "page-witnesses"}
    yield "kind not a string", {**fact, "kind": 1}
    for key in ("genus", "sign"):
        if key in fact:
            for bad in (1.0, True, "1", 0, 2, -1):
                yield f"{key} {bad!r}", {**fact, key: bad}
    for key in ("subject", "parent", "other"):
        if key in fact:
            d = fact[key]
            yield f"{key} tb string", {**fact, key: {**d, "tb": str(d["tb"])}}
            yield f"{key} tb -5", {**fact, key: {**d, "tb": -5}}
            yield f"{key} rot float", {**fact, key: {**d, "rot": float(d["rot"])}}
            yield f"{key} type int", {**fact, key: {**d, "type": 5}}
            yield f"{key} 2 keys", {**fact, key: {"type": d["type"], "tb": d["tb"]}}
            yield f"{key} 4 keys", {**fact, key: {**d, "zz": 0}}
            yield f"{key} tagged", {**fact, key: {**d, "tags": ["seen"]}}
            yield f"{key} bad tags", {**fact, key: {**d, "tags": "seen"}}
            yield f"{key} list", {**fact, key: [d["type"], d["tb"], d["rot"]]}
    if fact["kind"] == "stabilization-of":
        subject = fact["subject"]
        yield "subject off by one", {**fact, "subject": {**subject, "tb": subject["tb"] + 1}}
        yield "subject of the other sign", {**fact, "sign": -fact["sign"]}
    if fact["kind"] == "orientation-mirror":
        yield "other not mirrored", {**fact, "other": {**fact["other"], "rot": 1}}
    yield "fact not an object", [fact]


def fact_fault_documents():
    """Seeded fact documents, each with one faulty fact among valid ones."""
    rng = random.Random(4045)
    for index in range(6):
        facts = _fact_fault_base(rng)
        for what, faulty in _fact_faults(facts[index]):
            doc = json.loads(json.dumps(facts))
            doc[index] = faulty
            rng.shuffle(doc)
            yield what, json.dumps({"facts": doc})


# Recorded before the fact parser gained its per-kind quick path; see CHANGES.md.
FACT_FAULTS_DIGEST = "78d4f75a85c6fd68558f574d8f729fb26af4bb651976513fdb4b78d2258bb870"


def test_fact_quick_path_accepts_only_what_the_walk_accepts(capsys):
    digest = hashlib.sha256()
    for _what, document in fact_fault_documents():
        for fmt in ("human", "machine"):
            code = main(["sg-bounds", "--input", document, "--format", fmt])
            captured = capsys.readouterr()
            digest.update(json.dumps([code, captured.out, captured.err]).encode())
    assert digest.hexdigest() == FACT_FAULTS_DIGEST

    # equal untagged descriptors are one object; tagged ones keep their tags
    parent, child = {"type": "T(2,3)", "tb": 1, "rot": 0}, {"type": "T(2,3)", "tb": 0, "rot": 1}
    facts = [
        {"kind": "nonplanar-surgery", "subject": child},
        {"kind": "page-witness", "genus": 0, "subject": parent},
        {"kind": "stabilization-of", "subject": child, "parent": parent, "sign": 1},
        {"kind": "classification-axiom", "subject": {**parent, "tags": ["top"]}},
    ]
    witness, stabilization, axiom = parse_text(json.dumps({"facts": facts})).facts[1:]
    assert stabilization.parent is witness.subject and stabilization.parent.tags == ()
    assert axiom.subject == witness.subject and axiom.subject is not witness.subject
    assert axiom.subject.tags == ("top",)

    # the inherited upper bound fires first at the clash, so its reason is
    # built there
    assert main(["sg-bounds", "--input", json.dumps({"facts": facts})]) == 1
    assert capsys.readouterr().err == (
        "error: facts about T(2,3)(tb=0, rot=1) clash: nonplanar-surgery on T(2,3)(tb=0, rot=1) forces lo >= 1 "
        "while stabilization-of(T(2,3)(tb=0, rot=1) from T(2,3)(tb=1, rot=0), sign +1), upper bound inherited "
        "forces hi <= 0\n"
    )
