import pytest

from supportgenus.hfbook import (
    FormalHFModule,
    SpincSlot,
    SurgeryRangeError,
    hf_hat,
    hf_plus_surgery,
    hf_red_rank,
    pigeonhole_excess,
    trefoil_rotation_list,
)


def test_surgery_module_shape():
    module = hf_plus_surgery(7)
    assert module.spinc_count == 8
    assert module.slots[0] == SpincSlot(towers=1, finite_z=1)
    assert all(slot == SpincSlot(1, 0) for slot in module.slots[1:])
    assert module.total_towers == 8


def test_surgery_range_is_enforced():
    for bad in (6, 0, -3):
        with pytest.raises(SurgeryRangeError):
            hf_plus_surgery(bad)


def test_hat_and_red_ranks():
    for n in range(7, 13):
        module = hf_plus_surgery(n)
        assert hf_hat(module) == (3,) + (1,) * n
        assert hf_red_rank(module) == 1
    flat = FormalHFModule(slots=(SpincSlot(2, 0), SpincSlot(0, 3)))
    assert hf_hat(flat) == (2, 6)
    assert hf_red_rank(flat) == 3


def test_slot_counts_must_be_nonnegative():
    with pytest.raises(ValueError):
        SpincSlot(-1, 0)
    with pytest.raises(ValueError):
        pigeonhole_excess(-2, hf_plus_surgery(7))


def test_pigeonhole_excess_values():
    module = hf_plus_surgery(7)
    assert pigeonhole_excess(9, module) == 1
    assert pigeonhole_excess(8, module) == 0
    assert pigeonhole_excess(3, module) == 0
    assert pigeonhole_excess(20, module) == 12


def test_rotation_list_values():
    assert trefoil_rotation_list(1) == (-2, 0, 2)
    assert trefoil_rotation_list(2) == (-3, -1, 1, 3)
    for n in range(1, 13):
        values = trefoil_rotation_list(n)
        assert len(values) == n + 2
        assert values == tuple(sorted(values))
        assert values == tuple(-v for v in reversed(values))
        assert all(b - a == 2 for a, b in zip(values, values[1:]))


def test_rotation_list_range():
    with pytest.raises(SurgeryRangeError):
        trefoil_rotation_list(0)
