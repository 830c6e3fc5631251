import copy
import tracemalloc
from dataclasses import FrozenInstanceError

import pytest

from conftest import PROTOS3, enumerate_contexts
from sessia import (
    Empty,
    End,
    LinearityError,
    ProtocolError,
    ReceiveValue,
    S,
    SendValue,
    Z,
    append,
    empty_endpoints,
    length_of,
    lens_resolve,
    nat,
)
from sessia.context import (
    context,
    context_str,
    length,
    slot_at,
    slots_of,
    validate_context,
)

A = SendValue(int, End)
B = ReceiveValue(str, End)


# -- independent list oracles -------------------------------------------------


def oracle_len(slots):
    count = 0
    for _ in slots:
        count += 1
    return count


def oracle_concat(s1, s2):
    return list(s1) + list(s2)


def oracle_substitute(slots, level, new_slot):
    out = list(slots)
    out[level] = new_slot
    return out


# -- length -------------------------------------------------------------------


def test_length_of_nil_is_zero():
    assert length_of(()) == Z


def test_length_of_singleton():
    assert length_of((End, ())) == S(Z)


def test_length_of_three_by_counting_oracle():
    c = context([A, B, End])
    expected = oracle_len([A, B, End])
    assert expected == 3
    assert length_of(c) == S(S(S(Z)))
    assert length_of(c).level == expected


def test_length_matches_oracle_enumerated():
    for slots in enumerate_contexts(PROTOS3, 5):
        assert length_of(context(slots)).level == oracle_len(slots)


# -- append -------------------------------------------------------------------


def test_append_nil_left_identity():
    c = (A, (B, ()))
    assert append((), c) == c


def test_append_two_singletons():
    assert append((A, ()), (B, ())) == oracle_to_ctx(oracle_concat([A], [B]))


def test_append_nil_right_identity():
    c = (A, (B, ()))
    assert append(c, ()) == c


def oracle_to_ctx(slots):
    return context(slots)


def test_append_matches_oracle_enumerated():
    for s1 in enumerate_contexts(PROTOS3, 3):
        for s2 in enumerate_contexts(PROTOS3, 3):
            if len(s1) + len(s2) > 6:
                continue
            assert append(context(s1), context(s2)) == context(
                oracle_concat(s1, s2)
            )


def test_append_length_additive_enumerated():
    for s1 in enumerate_contexts(PROTOS3, 3):
        for s2 in enumerate_contexts(PROTOS3, 3):
            if len(s1) + len(s2) > 6:
                continue
            got = length_of(append(context(s1), context(s2)))
            assert got.level == oracle_len(s1) + oracle_len(s2)


# -- lenses ---------------------------------------------------------------


def test_lens_zero_retypes_head():
    c = (A, (B, ()))
    assert lens_resolve(Z, c, A, B) == (B, (B, ()))


def test_lens_successor_retypes_under_head():
    c = (B, (A, ()))
    assert lens_resolve(S(Z), c, A, B) == (B, (B, ()))


def test_lens_consumes_end_to_empty():
    assert lens_resolve(Z, (End, ()), End, Empty) == (Empty, ())


def test_lens_matches_oracle_enumerated():
    replacements = (Empty, End)
    for slots in enumerate_contexts(PROTOS3, 5):
        c = context(slots)
        for level in range(len(slots)):
            for new_slot in replacements:
                got = lens_resolve(nat(level), c, slots[level], new_slot)
                assert slots_of(got) == oracle_substitute(slots, level, new_slot)


def test_lens_out_of_range():
    with pytest.raises(LinearityError, match="out of range"):
        lens_resolve(nat(2), (A, ()), A, Empty)
    with pytest.raises(LinearityError, match="out of range"):
        lens_resolve(Z, (), End, Empty)


def test_lens_slot_mismatch():
    with pytest.raises(LinearityError, match="slot has type"):
        lens_resolve(Z, (A, ()), B, Empty)


def test_lens_stability_under_append():
    # A lens valid on c1 focuses the same slot after appending anything.
    for s1 in enumerate_contexts(PROTOS3, 3):
        c1 = context(s1)
        for extra in enumerate_contexts(PROTOS3, 2):
            grown = append(c1, context(extra))
            for level in range(len(s1)):
                assert slot_at(nat(level), grown) == s1[level]
                got = lens_resolve(nat(level), grown, s1[level], Empty)
                assert slots_of(got) == oracle_substitute(
                    oracle_concat(s1, extra), level, Empty
                )


# -- empty contexts -----------------------------------------------------------


def test_empty_endpoints_nil():
    assert empty_endpoints(()) == ()


def test_empty_endpoints_one_consumed_slot():
    assert empty_endpoints((Empty, ())) == ((), ())


def test_empty_endpoints_two_consumed_slots():
    assert empty_endpoints((Empty, (Empty, ()))) == ((), ((), ()))


def test_empty_endpoints_rejects_live_slot():
    with pytest.raises(LinearityError, match="not empty"):
        empty_endpoints((Empty, (A, ())))


# -- naturals ---------------------------------------------------------------


def test_nat_levels_and_equality():
    assert nat(0) is Z
    assert nat(2) == S(S(Z))
    assert nat(2).level == 2
    assert nat(2) != nat(3)


def test_nat_values_are_copyable_and_content_free():
    lens = S(S(Z))
    assert copy.copy(lens) == lens
    assert copy.deepcopy(lens) == lens
    # the same lens value can be consulted repeatedly
    c = context([A, B, End])
    assert slot_at(lens, c) == End
    assert slot_at(lens, c) == End


def test_a_lens_has_slots_and_no_dict():
    lens = nat(7)
    assert not hasattr(lens, "__dict__")
    assert copy.copy(lens) == lens and copy.deepcopy(lens).level == 7
    with pytest.raises(FrozenInstanceError):
        lens.level = 3


def test_a_lens_costs_at_most_64_bytes():
    # `nat` keeps a lens per level reached. Both lists below hold one fresh
    # level int per item, so their difference is what the lenses cost.
    levels, start = 10**4, 10**5
    first = nat(start)
    tracemalloc.start()
    try:
        before = tracemalloc.get_traced_memory()[0]
        lenses = [first]
        for _ in range(levels - 1):
            lenses.append(S(lenses[-1]))
        with_lenses = tracemalloc.get_traced_memory()[0] - before
        before = tracemalloc.get_traced_memory()[0]
        ints = [start]
        for level in range(start, start + levels - 1):
            ints.append(level + 1)
        without = tracemalloc.get_traced_memory()[0] - before
    finally:
        tracemalloc.stop()
    assert lenses[-1].level == ints[-1]
    assert (with_lenses - without) / levels <= 64


def test_context_validation():
    validate_context((A, (Empty, ())))
    with pytest.raises(ProtocolError, match="not a Slot"):
        validate_context(("bogus", ()))
    with pytest.raises(ProtocolError, match="malformed"):
        validate_context((A, B))
    with pytest.raises(ProtocolError, match="not a Slot"):
        context([42])


# -- long contexts: the public helpers iterate, never recurse ----------------

LONG = 10_000


def long_context(last=B):
    return context([A] * (LONG - 1) + [last])


def test_append_on_a_long_context():
    grown = append(long_context(), (End, ()))
    assert length(grown) == LONG + 1
    assert slot_at(nat(LONG), grown) == End
    assert slot_at(nat(LONG - 1), grown) == B


def test_lens_resolve_on_a_long_context():
    last = nat(LONG - 1)
    got = lens_resolve(last, long_context(), B, Empty)
    slots = slots_of(got)
    assert len(slots) == LONG
    assert slots[-1] == Empty
    assert slots[:-1] == [A] * (LONG - 1)


def test_length_of_a_long_context():
    assert length_of(long_context()).level == LONG


def test_context_str_of_a_long_context():
    text = context_str(long_context())
    assert text.startswith(f"({A}, ({A}, ")
    assert text.endswith(f"({B}, ()" + ")" * LONG)


def test_empty_endpoints_of_a_long_context():
    eps = empty_endpoints(context([Empty] * LONG))
    assert slots_of(eps) == [()] * LONG


def test_nat_level_of_a_deep_lens():
    assert nat(LONG).level == LONG
    assert S(nat(LONG - 1)) == nat(LONG)
    assert nat(LONG) != nat(LONG - 1)


def test_nat_values_are_interned():
    for level in (0, 1, 2, 64, LONG):
        assert nat(level) is nat(level)


def test_length_of_is_the_lens_of_the_length():
    for slots in enumerate_contexts(PROTOS3, 3):
        c = context(slots)
        assert length_of(c) is nat(length(c))
    assert length_of(long_context()) == nat(length(long_context()))
