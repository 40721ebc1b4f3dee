import dataclasses
import random
import time

import pytest
from timed import round_ratios

from supportgenus import verify
from supportgenus.fixtures import load_fixture
from supportgenus.hfbook import FormalHFModule, SpincSlot, SurgeryRangeError, hf_hat, trefoil_rotation_list
from supportgenus.sgengine import (
    CLASSIFICATION_AXIOM,
    NONPLANAR_SURGERY,
    ORIENTATION_MIRROR,
    PAGE_WITNESS,
    POSITIVE_TB,
    STABILIZATION_OF,
    FactError,
    InconsistentFactsError,
    LegendrianDesc,
    SGFact,
    SGInterval,
    TraceStep,
    derive_bounds,
    replay_trace,
    stabilized,
    trefoil_mountain_check,
)
from supportgenus.verify import random_fact_base

L = LegendrianDesc("torus(2,3)", tb=1, rot=0)


def test_counts_signs_and_genera_must_be_ints():
    for bad in (1.5, 1.0, "1", True):
        with pytest.raises(ValueError, match=f"summand counts must be ints, got {bad!r}"):
            SpincSlot(bad, 0)
        with pytest.raises(ValueError, match=f"summand counts must be ints, got {bad!r}"):
            SpincSlot(1, bad)
        with pytest.raises(ValueError, match=f"stabilization sign must be \\+1 or -1, got {bad!r}"):
            stabilized(L, bad)
        with pytest.raises(FactError, match="needs a genus >= 0"):
            SGFact(kind=PAGE_WITNESS, subject=L, genus=bad)
        with pytest.raises(FactError, match="^stabilization-of needs a parent and a sign of \\+1 or -1$"):
            SGFact(kind=STABILIZATION_OF, subject=stabilized(L, 1), parent=L, sign=bad)
        with pytest.raises(SurgeryRangeError, match=f"^rotation list is recorded for n >= 1, got {bad!r}$"):
            trefoil_rotation_list(bad)

    class Count(int):
        pass

    assert hf_hat(FormalHFModule((SpincSlot(Count(1), Count(1)),))) == (3,)
    assert stabilized(L, Count(1)) == LegendrianDesc("torus(2,3)", 0, 1)
    assert SGFact(kind=PAGE_WITNESS, subject=L, genus=Count(1)).genus == 1
    assert SGFact(kind=STABILIZATION_OF, subject=stabilized(L, 1), parent=L, sign=Count(1)).sign == 1
    assert trefoil_rotation_list(Count(1)) == (-2, 0, 2)


def test_descriptor_identity_ignores_tags():
    tagged = LegendrianDesc("torus(2,3)", 1, 0, tags=("seen on a page",))
    assert tagged == L
    assert hash(tagged) == hash(L)
    assert L.label() == "torus(2,3)(tb=1, rot=0)"


def test_stabilized_moves_the_classical_invariants():
    assert stabilized(L, 1) == LegendrianDesc("torus(2,3)", 0, 1)
    assert stabilized(L, -1) == LegendrianDesc("torus(2,3)", 0, -1)
    with pytest.raises(ValueError):
        stabilized(L, 0)


def test_fact_validation():
    with pytest.raises(FactError):
        SGFact(kind="made-up", subject=L)
    with pytest.raises(FactError):
        SGFact(kind=PAGE_WITNESS, subject=L)  # genus missing
    with pytest.raises(FactError):
        SGFact(kind=PAGE_WITNESS, subject=L, genus=-1)
    with pytest.raises(FactError):
        SGFact(kind=POSITIVE_TB, subject=LegendrianDesc("unknot", 0, 1))
    with pytest.raises(FactError):
        SGFact(kind=STABILIZATION_OF, subject=L, parent=L, sign=1)
    with pytest.raises(FactError):
        SGFact(kind=STABILIZATION_OF, subject=stabilized(L, 1), parent=L, sign=2)
    with pytest.raises(FactError):
        SGFact(kind=ORIENTATION_MIRROR, subject=L, other=stabilized(L, 1))
    # and the valid shapes go through
    SGFact(kind=STABILIZATION_OF, subject=stabilized(L, 1), parent=L, sign=1)
    SGFact(kind=ORIENTATION_MIRROR, subject=stabilized(L, 1), other=stabilized(L, -1))
    SGFact(kind=CLASSIFICATION_AXIOM, subject=L, note="treated as unique")


def test_derive_bounds_takes_any_iterable_of_facts_keyed_by_the_first_seen():
    tagged = LegendrianDesc("torus(2,3)", 1, 0, tags=("tagged",))
    child = stabilized(L, 1)
    facts = [
        SGFact(kind=STABILIZATION_OF, subject=child, parent=tagged, sign=1),
        SGFact(kind=PAGE_WITNESS, subject=L, genus=1),
        SGFact(kind=ORIENTATION_MIRROR, subject=stabilized(L, -1), other=child),
    ]
    results = [list(derive_bounds(given).items()) for given in (facts, tuple(facts), (f for f in facts))]
    assert results[0] == results[1] == results[2]
    for result in results:
        keys = [key for key, _ in result]
        assert keys == [child, L, stabilized(L, -1)]
        assert all(key is desc for key, desc in zip(keys, (child, tagged, facts[2].subject)))
    for bad in (None, "page-witness", {"kind": PAGE_WITNESS}):
        with pytest.raises(FactError, match=f"expected SGFact, got {type(bad).__name__}$"):
            derive_bounds(facts[:1] + [bad])


def test_page_witness_and_positive_tb_pin_an_interval():
    base = [
        SGFact(kind=PAGE_WITNESS, subject=L, genus=1),
        SGFact(kind=POSITIVE_TB, subject=L),
    ]
    bounds = derive_bounds(base)
    interval = bounds[L]
    assert (interval.lo, interval.hi) == (1, 1)
    assert str(interval) == "[1, 1]"
    assert replay_trace(interval.trace) == (1, 1)
    rules = {step.rule for step in interval.trace}
    assert rules == {"R1", "R3"}


def test_upper_bounds_flow_down_stabilizations():
    base = [SGFact(kind=PAGE_WITNESS, subject=L, genus=2)]
    node = L
    for _ in range(4):
        base.append(SGFact(kind=STABILIZATION_OF, subject=stabilized(node, -1), parent=node, sign=-1))
        node = base[-1].subject
    bounds = derive_bounds(base)
    assert bounds[node].hi == 2
    assert bounds[node].lo == 0
    assert any(step.rule == "R2" for step in bounds[node].trace)


def test_lower_bounds_flow_up_stabilizations():
    base = []
    node = L
    for _ in range(3):
        base.append(SGFact(kind=STABILIZATION_OF, subject=stabilized(node, 1), parent=node, sign=1))
        node = base[-1].subject
    base.append(SGFact(kind=NONPLANAR_SURGERY, subject=node))
    bounds = derive_bounds(base)
    assert bounds[L].lo == 1
    assert bounds[L].hi is None
    assert str(bounds[L]) == "[1, unbounded]"


def test_mirrors_share_bounds():
    a = stabilized(stabilized(L, 1), 1)
    b = stabilized(stabilized(L, -1), -1)
    base = [
        SGFact(kind=PAGE_WITNESS, subject=a, genus=1),
        SGFact(kind=NONPLANAR_SURGERY, subject=a),
        SGFact(kind=ORIENTATION_MIRROR, subject=a, other=b),
    ]
    bounds = derive_bounds(base)
    assert (bounds[b].lo, bounds[b].hi) == (1, 1)


def test_inconsistent_facts_name_their_steps():
    base = [
        SGFact(kind=POSITIVE_TB, subject=L),
        SGFact(kind=PAGE_WITNESS, subject=L, genus=0),
    ]
    with pytest.raises(InconsistentFactsError) as info:
        derive_bounds(base)
    err = info.value
    assert err.subject == L
    assert err.lo_step.value == 1 and err.hi_step.value == 0
    assert "clash" in str(err)


def test_traces_print_as_rule_applications():
    base = [SGFact(kind=PAGE_WITNESS, subject=L, genus=1)]
    step = derive_bounds(base)[L].trace[0]
    assert str(step) == "R1: hi <= 1  [page-witness(genus 1) on torus(2,3)(tb=1, rot=0)]"


def test_classification_axiom_carries_no_bound():
    base = [SGFact(kind=CLASSIFICATION_AXIOM, subject=L, note="unique at maximal tb")]
    interval = derive_bounds(base)[L]
    assert (interval.lo, interval.hi) == (0, None)
    assert interval.trace == ()


def test_derivation_is_order_independent():
    rng = random.Random(41)
    base = [SGFact(kind=PAGE_WITNESS, subject=L, genus=1), SGFact(kind=POSITIVE_TB, subject=L)]
    node = L
    for sign in (1, 1, -1, 1, -1):
        base.append(SGFact(kind=STABILIZATION_OF, subject=stabilized(node, sign), parent=node, sign=sign))
        node = base[-1].subject
    base.append(SGFact(kind=NONPLANAR_SURGERY, subject=node))
    reference = {d: (iv.lo, iv.hi) for d, iv in derive_bounds(base).items()}
    for _ in range(20):
        shuffled = list(base)
        rng.shuffle(shuffled)
        again = {d: (iv.lo, iv.hi) for d, iv in derive_bounds(shuffled).items()}
        assert again == reference


def test_replay_trace_from_scratch():
    assert replay_trace([]) == (0, None)


def test_trefoil_mountain_check():
    assert trefoil_mountain_check(1, 0)
    assert not trefoil_mountain_check(1, 2)
    assert not trefoil_mountain_check(2, 0)
    assert not trefoil_mountain_check(5, 0)
    # tb = 0 allows rot in {-1, 1} only
    assert trefoil_mountain_check(0, 1)
    assert trefoil_mountain_check(0, -1)
    assert not trefoil_mountain_check(0, 0)
    assert not trefoil_mountain_check(0, 3)
    # tb = -2 allows odd rot up to 3 in absolute value
    assert trefoil_mountain_check(-2, 3)
    assert trefoil_mountain_check(-2, -1)
    assert not trefoil_mountain_check(-2, 2)
    assert not trefoil_mountain_check(-2, 5)


def test_mountain_matches_the_rotation_lists():
    for n in range(1, 13):
        allowed = set(trefoil_rotation_list(n))
        for rot in range(-n - 3, n + 4):
            assert trefoil_mountain_check(-n, rot) == (rot in allowed)


def first_seen(facts):
    """The distinct descriptors, each as the first object seen over subject,
    parent and other, in fact order."""
    seen = {}
    for fact in facts:
        for desc in (fact.subject, fact.parent, fact.other):
            if desc is not None:
                seen.setdefault(desc, desc)
    return list(seen.values())


def full_resweep(facts):
    """The engine before semi-naive evaluation, kept as an oracle: every
    fact runs again in every sweep until a sweep changes nothing."""
    cells = {desc: {"lo": 0, "hi": None, "trace": []} for desc in first_seen(facts)}

    def clash(desc):
        trace = cells[desc]["trace"]
        last = {step.bound: step for step in trace}
        return InconsistentFactsError(desc, last["lo"], last["hi"])

    def raise_lo(desc, value, rule, reason):
        c = cells[desc]
        if value <= c["lo"]:
            return False
        c["lo"] = value
        c["trace"].append(TraceStep(rule=rule, bound="lo", value=value, reason=reason))
        if c["hi"] is not None and c["lo"] > c["hi"]:
            raise clash(desc)
        return True

    def lower_hi(desc, value, rule, reason):
        c = cells[desc]
        if c["hi"] is not None and value >= c["hi"]:
            return False
        c["hi"] = value
        c["trace"].append(TraceStep(rule=rule, bound="hi", value=value, reason=reason))
        if c["lo"] > c["hi"]:
            raise clash(desc)
        return True

    changed = True
    while changed:
        changed = False
        for fact in facts:
            if fact.kind == PAGE_WITNESS:
                changed |= lower_hi(fact.subject, fact.genus, "R1", fact.describe())
            elif fact.kind == POSITIVE_TB:
                changed |= raise_lo(fact.subject, 1, "R3", fact.describe())
            elif fact.kind == NONPLANAR_SURGERY:
                changed |= raise_lo(fact.subject, 1, "R5", fact.describe())
            elif fact.kind == STABILIZATION_OF:
                parent, child = fact.parent, fact.subject
                parent_hi = cells[parent]["hi"]
                if parent_hi is not None:
                    changed |= lower_hi(child, parent_hi, "R2", fact.describe() + ", upper bound inherited")
                child_lo = cells[child]["lo"]
                if child_lo > 0:
                    changed |= raise_lo(parent, child_lo, "R2", fact.describe() + ", lower bound inherited")
            elif fact.kind == ORIENTATION_MIRROR:
                a, b = fact.subject, fact.other
                for one, two in ((a, b), (b, a)):
                    lo_two = cells[two]["lo"]
                    if lo_two > 0:
                        changed |= raise_lo(one, lo_two, "R6", fact.describe())
                    hi_two = cells[two]["hi"]
                    if hi_two is not None:
                        changed |= lower_hi(one, hi_two, "R6", fact.describe())
    return {desc: SGInterval(lo=c["lo"], hi=c["hi"], trace=tuple(c["trace"])) for desc, c in cells.items()}


def outcome(derive, facts):
    """Everything a derivation shows: intervals and traces in dict order,
    or the clash it reports, with the tags of each descriptor."""
    try:
        return [(desc, desc.tags, iv.lo, iv.hi, iv.trace) for desc, iv in derive(facts).items()]
    except InconsistentFactsError as err:
        return ("clash", err.subject, err.subject.tags, err.lo_step, err.hi_step, str(err))


def shape_facts(rng, shape, size, genus):
    """A chain, a pair of +/- chains joined by mirrors, or a size x size
    grid of stabilizations, with a page witness at the root and a
    nonplanar-surgery fact at the deep end; genus 0 at the root clashes."""
    root = LegendrianDesc(shape, rng.randint(-3, 5), 0)
    facts = [SGFact(kind=PAGE_WITNESS, subject=root, genus=genus)]
    if root.tb > 0:
        facts.append(SGFact(kind=POSITIVE_TB, subject=root))

    def stab(parent, sign):
        facts.append(SGFact(kind=STABILIZATION_OF, subject=stabilized(parent, sign), parent=parent, sign=sign))
        return facts[-1].subject

    if shape == "chain":
        deep = root
        for _ in range(size):
            deep = stab(deep, rng.choice((1, -1)))
    elif shape == "mirror":
        deep = minus = root
        for _ in range(size):
            deep, minus = stab(deep, 1), stab(minus, -1)
            if rng.random() < 0.5:
                facts.append(SGFact(kind=ORIENTATION_MIRROR, subject=deep, other=minus))
    else:
        grid = {(0, 0): root}
        for i in range(size):
            for j in range(size):
                if i:
                    grid[i, j] = stab(grid[i - 1, j], 1)
                if j:
                    grid[i, j] = stab(grid[i, j - 1], -1)
        deep = grid[size - 1, size - 1]
    facts.append(SGFact(kind=NONPLANAR_SURGERY, subject=deep))
    return facts


def assert_same_as_full_resweep(facts):
    assert outcome(derive_bounds, facts) == outcome(full_resweep, facts)


@pytest.mark.parametrize("name", ["thm13_facts", "thm14_facts", "thm15_facts"])
def test_theorem_fixtures_derive_as_the_full_resweep(name):
    facts = load_fixture(name).facts
    rng = random.Random(name)
    assert_same_as_full_resweep(facts)
    for _ in range(30):
        assert_same_as_full_resweep(rng.sample(facts, len(facts)))


def test_random_fact_bases_derive_as_the_full_resweep():
    rng = random.Random(2011)
    clashes = 0
    for _ in range(2000):
        facts = random_fact_base(rng)
        rng.shuffle(facts)
        expected = outcome(full_resweep, facts)
        assert outcome(derive_bounds, facts) == expected
        clashes += isinstance(expected, tuple)
    assert clashes >= 100


def test_criterion_9_derivation_bases_include_clashes(monkeypatch):
    bases = []

    def recorded(rng):
        bases.append(random_fact_base(rng))
        return bases[-1]

    monkeypatch.setattr(verify, "random_fact_base", recorded)
    assert verify.run_criterion(9).passed
    assert len(bases) == 60
    assert any(isinstance(outcome(derive_bounds, facts), tuple) for facts in bases)


def retagged(rng, facts):
    """The facts with about half their descriptors replaced by equal copies
    carrying tags of their own, so equal descriptors are distinct objects."""

    def copy(desc):
        if desc is None or rng.random() < 0.5:
            return desc
        return dataclasses.replace(desc, tags=(f"copy {rng.randrange(100)}",))

    return [
        dataclasses.replace(f, subject=copy(f.subject), parent=copy(f.parent), other=copy(f.other)) for f in facts
    ]


def test_retagged_copies_derive_as_the_full_resweep_keyed_by_the_first_seen():
    rng = random.Random(1986)
    bases = [random_fact_base(rng) for _ in range(300)]
    for shape, size in (("chain", 30), ("mirror", 12), ("grid", 5)):
        bases += [shape_facts(rng, shape, size, genus) for genus in range(3)]
    for facts in bases:
        facts = retagged(rng, facts)
        rng.shuffle(facts)
        assert_same_as_full_resweep(facts)
        seen = first_seen(facts)
        try:
            keys = list(derive_bounds(facts))
        except InconsistentFactsError:
            continue  # a clash names the clashing fact's object, as the oracle does
        assert len(keys) == len(seen)
        assert all(key is desc for key, desc in zip(keys, seen))


@pytest.mark.parametrize("shape, size", [("chain", 120), ("mirror", 50), ("grid", 9)])
def test_long_shapes_derive_as_the_full_resweep(shape, size):
    rng = random.Random(f"{shape}-{size}")
    for genus in range(4):
        facts = shape_facts(rng, shape, size, genus)
        for order in (facts, facts[::-1], rng.sample(facts, len(facts))):
            assert_same_as_full_resweep(order)


def test_deep_chain_derives_in_linear_time():
    # a full re-sweep takes one sweep per level to carry lo up to the
    # root: 46 s at this depth on a 2-vCPU Xeon VM
    facts = [SGFact(kind=PAGE_WITNESS, subject=L, genus=2)]
    node = L
    for level in range(3000):
        sign = 1 if level % 2 else -1
        parent, node = node, stabilized(node, sign)
        facts.append(SGFact(kind=STABILIZATION_OF, subject=node, parent=parent, sign=sign))
    facts.append(SGFact(kind=NONPLANAR_SURGERY, subject=node))
    start = time.perf_counter()
    bounds = derive_bounds(facts)
    elapsed = time.perf_counter() - start
    assert (bounds[L].lo, bounds[L].hi) == (1, 2)
    assert (bounds[node].lo, bounds[node].hi) == (1, 2)
    assert elapsed < 2.0, elapsed


def shuffled_chain(depth, rng):
    """A stabilization chain of the given depth below L, with a genus-2 page
    witness at L and a nonplanar-surgery fact at the deep end, shuffled."""
    facts = [SGFact(kind=PAGE_WITNESS, subject=L, genus=2)]
    node = L
    for _ in range(depth):
        sign = rng.choice((1, -1))
        parent, node = node, stabilized(node, sign)
        facts.append(SGFact(kind=STABILIZATION_OF, subject=node, parent=parent, sign=sign))
    facts.append(SGFact(kind=NONPLANAR_SURGERY, subject=node))
    rng.shuffle(facts)
    return facts


def test_derive_time_grows_linearly_with_chain_depth():
    # four times the depth: about 4x the time when linear, 16x when
    # quadratic.  The two depths alternate within each round, so the
    # machine's drifting speed cancels out of each round's ratio; the best
    # of five rounds is kept.
    rng = random.Random(8000)
    short, deep = shuffled_chain(2000, rng), shuffled_chain(8000, rng)
    ratios = round_ratios(lambda: derive_bounds(deep), lambda: derive_bounds(short), rounds=5)
    assert min(ratios) <= 6, ratios
