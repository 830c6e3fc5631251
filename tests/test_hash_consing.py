"""Protocols are hash-consed: forming a protocol finds the node of its
class and fields, its `_canon`, so equality and hashing test that node's
identity, a protocol is immutable, and no operation on a protocol value
recurses over its depth. Each formation is an object of its own."""

import copy
import pickle
import sys
import threading
from dataclasses import FrozenInstanceError

import pytest
from hypothesis import assume, given
from test_generated import SINGLE_TYPES, protocols

import sessia
from sessia import (
    End,
    ExternalChoice,
    Fix,
    LinearToShared,
    Lock,
    ReceiveValue,
    SendChannel,
    SendValue,
    SharedToLinear,
    Z,
    shared_type_apply,
    type_apply,
)

SHARED_BODIES = protocols(4, SINGLE_TYPES, leaves=(Z,))


def same_node(p, q) -> bool:
    return p == q and p._canon is q._canon and hash(p) == hash(q)


def assert_round_trips(p):
    assert same_node(eval(str(p), vars(sessia)), p)
    assert same_node(copy.copy(p), p)
    assert copy.deepcopy(p) is p
    assert same_node(pickle.loads(pickle.dumps(p)), p)


@given(protocols(5, SINGLE_TYPES))
def test_a_protocol_round_trips_to_its_node(p):
    assert_round_trips(p)


@given(protocols(5, SINGLE_TYPES, leaves=(End, Z)))
def test_a_fixed_point_round_trips_to_its_node(body):
    assume(body is not Z)
    assert_round_trips(Fix(body))


@given(SHARED_BODIES)
def test_a_shared_protocol_round_trips_to_its_node(body):
    shared = LinearToShared(body)
    assert_round_trips(shared)
    assert_round_trips(shared.unroll())


def test_equal_protocols_formed_apart_share_one_node():
    a, b = SendValue(int, End), SendValue(value_type=int, cont=End)
    assert a is not b and same_node(a, b) and a.cont is End
    assert same_node(ReceiveValue((int, str), End), ReceiveValue((int, str), End))
    assert SendValue(int, End) != SendValue(bool, End)
    assert SendValue(int, End) != ReceiveValue(int, End)
    p = Fix(ExternalChoice(SendValue(int, Z), End))
    q = Fix(ExternalChoice(SendValue(int, Z), End))
    assert p is not q and same_node(p, q) and p.unroll() is q.unroll()
    assert same_node(p.unroll(), type_apply(p.body, p))
    # A formation's fields are nodes: an equal part is the same object.
    assert p.body is q.body and p.body.left is SendValue(int, Z)._canon
    shared = LinearToShared(SendValue(int, Z))
    assert same_node(shared.unroll(), shared_type_apply(shared.body, SharedToLinear(shared.body)))
    assert same_node(shared._lock, Lock(shared.body))


def test_a_wrong_call_of_a_protocol_constructor_reads_as_before():
    # The texts of the generated `__init__` the constructors had as dataclasses.
    calls = {
        "ReceiveValue.__init__() missing 1 required positional argument: 'cont'":
            lambda: ReceiveValue(int),
        "ReceiveValue.__init__() missing 2 required positional arguments: "
        "'value_type' and 'cont'": lambda: ReceiveValue(),
        "SendValue.__init__() takes 3 positional arguments but 4 were given":
            lambda: SendValue(int, End, End),
        "SendValue.__init__() got an unexpected keyword argument 'x'":
            lambda: SendValue(int, End, x=1),
        "SendValue.__init__() got multiple values for argument 'value_type'":
            lambda: SendValue(int, value_type=int),
        "Fix.__init__() takes 2 positional arguments but 3 were given":
            lambda: Fix(End, End),
        "ExternalChoice.__init__() missing 1 required positional argument: 'right'":
            lambda: ExternalChoice(End),
        "LinearToShared.__init__() missing 1 required positional argument: 'body'":
            lambda: LinearToShared(),
    }
    for text, call in calls.items():
        with pytest.raises(TypeError) as raised:
            call()
        assert str(raised.value) == text


def test_a_protocol_field_cannot_be_assigned():
    p = SendValue(int, End)
    with pytest.raises(FrozenInstanceError):
        p.cont = SendValue(int, End)
    with pytest.raises(FrozenInstanceError):
        del p.value_type
    with pytest.raises(FrozenInstanceError):
        LinearToShared(SendValue(int, Z)).body = End
    assert p.cont is End


def test_a_deep_protocol_works_under_the_default_recursion_limit():
    depth = 10**4
    closed, open_ = End, Z
    for _ in range(depth):
        closed, open_ = SendValue(int, closed), SendValue(int, open_)
    assert str(closed) == "SendValue(int, " * depth + "End" + ")" * depth
    assert repr(closed).startswith("SendValue(value_type=<class 'int'>, cont=")
    again = End
    for _ in range(depth):
        again = SendValue(int, again)
    assert same_node(again, closed) and again.cont is closed.cont
    assert same_node(type_apply(open_, End), closed)
    counter = Fix(open_)
    unrolled = counter.unroll()
    for _ in range(depth):
        unrolled = unrolled.cont
    assert unrolled is counter._canon
    # A delegated channel type is carried, so substitution leaves it as it is.
    shared = LinearToShared(SendChannel(closed, open_))
    assert shared.unroll().carried is closed._canon


def test_threads_forming_the_same_protocols_get_the_same_nodes():
    # A value type of its own, so that every node is formed for the first
    # time while the threads, more than a runner's cores, race for it.
    value_type = type("Fresh", (), {})
    count, barrier = 10**3, threading.Barrier(4)
    formed = [[], [], [], []]

    def form(out):
        barrier.wait(timeout=10)
        p = End
        for _ in range(count):
            p = SendValue(value_type, ExternalChoice(p, End))
            out.append(p)

    threads = [threading.Thread(target=form, args=(out,)) for out in formed]
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)  # switch threads often, inside formations too
    try:
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join(timeout=10)
    finally:
        sys.setswitchinterval(interval)
    assert not any(thread.is_alive() for thread in threads)
    assert [len(out) for out in formed] == [count] * 4
    assert all(same_node(first, p) for first, *rest in zip(*formed) for p in rest)
