"""Golden corpus of parse outcomes.

Valid documents (the bundled fixtures plus small seeded pages, open
books, fact bases and one Stein problem) each take one seeded mutation:
a value replaced by a value of the wrong kind, a key deleted, an unknown
key added, or a list entry duplicated.  Every outcome is pinned: the
exception class and full message of a rejection, or the serialized
document of a parse that still succeeds.  One hash covers all of them,
so any change to a message, or to which error is reported first, fails
here.  No exception other than a ``ToolkitError`` may escape.
"""

import hashlib
import json
import random
from collections import Counter

from supportgenus.errors import ToolkitError
from supportgenus.fixtures import FIXTURE_NAMES, build_fixture
from supportgenus.inputdoc import CurveRecord, InputDocument, OpenBookRecord, parse_dict, serialize, serialize_text
from supportgenus.ribbon import CurveClass, OpenBook
from supportgenus.verify import random_fact_base, random_page

CASES = 3000
REPLACEMENTS = ("x", True, None, 1.5, [], {}, 0, -1, 10**6)
MUTATIONS = ("replace", "delete", "add", "duplicate")

STEIN = {
    "stein_problems": [
        {
            "name": "p",
            "one_handles": ["x1", "x2"],
            "distinguished": "K",
            "curves": [
                {"name": "K", "runs": [[1, 1], [2, -1], [1, 1]]},
                {"name": "g", "traversal": [1, 0], "rotation": 1},
                {"name": "h", "traversal": [0, 1], "runs": [[2, 1]], "twist_sign": 1},
            ],
        }
    ],
    "hf_modules": [{"name": "m", "slots": [{"towers": 1, "finite_z": 2}]}, {"name": "t", "trefoil_surgery": 8}],
}

# Recorded before the parser was rewritten for speed; see CHANGES.md.
OUTCOMES = {"ok": 386, "InputFormatError": 2614}
DIGEST = "469bce365e2126c527f75235daec130218ad009f3d7b74c4d9778635ccd11ef4"


def _seeded_document(rng: random.Random) -> dict:
    doc = InputDocument()
    page = random_page(rng, rng.randint(1, 4))
    doc.surfaces["page"] = page
    for c in range(rng.randint(1, 3)):
        coefficients = tuple(rng.randint(-2, 2) for _ in range(page.band_count))
        runs = [(band, 1 if k > 0 else -1) for band, k in enumerate(coefficients) for _ in range(abs(k))]
        rng.shuffle(runs)
        curve = CurveClass(page, coefficients, tuple(runs) if rng.random() < 0.7 else None)
        doc.curves[f"K{c}"] = CurveRecord(surface_name="page", curve=curve)
    steps = tuple((name, rng.choice((1, -1))) for name in doc.curves)
    word = tuple((doc.curves[name].curve, sign) for name, sign in steps)
    doc.open_books["ob"] = OpenBookRecord(page_name="page", steps=steps, book=OpenBook(page, word))
    doc.facts = tuple(random_fact_base(rng))
    return serialize(doc)


def base_documents() -> list:
    rng = random.Random("parse-error-corpus")
    docs = [serialize(build_fixture(name)) for name in FIXTURE_NAMES]
    docs += [_seeded_document(rng) for _ in range(8)]
    docs.append(STEIN)
    return docs


def _paths(value, path=()):
    yield path, value
    if type(value) is dict:
        for key, item in value.items():
            yield from _paths(item, path + (key,))
    elif type(value) is list:
        for index, item in enumerate(value):
            yield from _paths(item, path + (index,))


def mutate(doc: dict, rng: random.Random):
    """One seeded mutation of a copy of ``doc``: (description, document)."""
    doc = json.loads(json.dumps(doc))
    nodes = list(_paths(doc))
    kind = rng.choice(MUTATIONS)
    eligible = {
        "replace": nodes,
        "delete": [(p, v) for p, v in nodes if p and isinstance(p[-1], str)],
        "add": [(p, v) for p, v in nodes if type(v) is dict],
        "duplicate": [(p, v) for p, v in nodes if type(v) is list and v],
    }[kind]
    if not eligible:
        kind, eligible = "replace", nodes
    path, value = rng.choice(eligible)
    parent = doc
    for step in path[:-1]:
        parent = parent[step]
    if kind == "replace":
        new = rng.choice(REPLACEMENTS)
        if not path:
            return f"replace document by {new!r}", new
        parent[path[-1]] = new
        return f"replace {list(path)} by {new!r}", doc
    if kind == "delete":
        del parent[path[-1]]
    elif kind == "add":
        value["zz_extra"] = 1
    else:
        index = rng.randrange(len(value))
        value.insert(index, json.loads(json.dumps(value[index])))
    return f"{kind} {list(path)}", doc


def corpus_lines():
    """One line per case, plus the descriptions of escaped exceptions."""
    rng = random.Random(2011)
    docs = base_documents()
    lines, escaped = [], []
    for case in range(CASES):
        what, data = mutate(rng.choice(docs), rng)
        try:
            outcome = "ok " + hashlib.sha256(serialize_text(parse_dict(data)).encode()).hexdigest()
        except ToolkitError as exc:
            outcome = f"{type(exc).__name__}: {exc}"
        except Exception as exc:  # any other exception is a finding
            escaped.append(f"case {case}, {what}: {type(exc).__name__}: {exc}")
            continue
        lines.append(f"{case}\t{what}\t{outcome}")
    return lines, escaped


def test_every_base_document_parses():
    for doc in base_documents():
        parse_dict(doc)


def test_parse_outcomes_match_the_golden_corpus():
    lines, escaped = corpus_lines()
    assert escaped == []
    counts = Counter(line.split("\t")[2].split(" ")[0].rstrip(":") for line in lines)
    assert dict(counts) == OUTCOMES
    assert hashlib.sha256("\n".join(lines).encode()).hexdigest() == DIGEST
