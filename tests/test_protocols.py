import copy
import pickle

import pytest

from sessia import (
    Empty,
    End,
    ExternalChoice,
    Fix,
    InternalChoice,
    LinearToShared,
    Lock,
    ProtocolError,
    ReceiveChannel,
    ReceiveValue,
    SendChannel,
    SendValue,
    SharedToLinear,
    SharedTypeError,
    Z,
    nat,
    payload_of,
    session,
    shared_session,
    terminate,
)
from sessia.protocols import type_name

WIRE_CONSTRUCTORS = [
    End,
    ReceiveValue(str, End),
    SendValue(int, End),
    ReceiveChannel(End, End),
    SendChannel(End, End),
    ExternalChoice(End, End),
    InternalChoice(End, End),
    SharedToLinear(SendValue(int, Z)),
]

HAS_CONTINUATION = {
    "ReceiveValue": True,
    "SendValue": True,
    "ReceiveChannel": True,
    "SendChannel": True,
    "ExternalChoice": True,
    "InternalChoice": True,
    "_End": False,
    "SharedToLinear": False,
}


def test_send_value_payload_is_direct_pair():
    layout = payload_of(SendValue(int, End))
    assert layout.kind == "direct"
    roles = [p.role for p in layout.parts]
    assert roles == ["value", "continuation-client-endpoint"]
    assert layout.parts[0].detail == "int"
    assert layout.parts[1].detail == "End"


def test_end_payload_is_bare_signal():
    layout = payload_of(End)
    assert layout.kind == "signal"
    assert layout.continuation_parts() == ()


def test_receive_value_payload_reverses_polarity():
    layout = payload_of(ReceiveValue(str, End))
    assert layout.kind == "reversed"
    roles = [p.role for p in layout.parts]
    assert roles == ["value", "continuation-provider-endpoint"]


@pytest.mark.parametrize("proto", WIRE_CONSTRUCTORS, ids=lambda p: str(p))
def test_layout_audit_continuation_endpoint_exactly_once(proto):
    layout = payload_of(proto)
    expected = 1 if HAS_CONTINUATION[type(proto).__name__] else 0
    assert len(layout.continuation_parts()) == expected


@pytest.mark.parametrize("proto", WIRE_CONSTRUCTORS, ids=lambda p: str(p))
def test_layout_polarity_kinds(proto):
    # provider-polarity sends are direct pairs; provider-polarity receives
    # go through a nested outbound handle.
    layout = payload_of(proto)
    direct = (SendValue, SendChannel, InternalChoice)
    reversed_ = (ReceiveValue, ReceiveChannel, ExternalChoice, SharedToLinear)
    if isinstance(proto, direct):
        assert layout.kind == "direct"
    elif isinstance(proto, reversed_):
        assert layout.kind == "reversed"
    else:
        assert layout.kind == "signal"


# Exact payload of every wire constructor, plus one recursive protocol whose
# unrolling shows the branch order and the rolled continuation.
CHOICE_LOOP = Fix(ExternalChoice(SendValue(int, Z), End))

GOLDEN_PAYLOADS = {
    "End": ("signal", [("termination", "")]),
    "ReceiveValue(str, End)": (
        "reversed",
        [("value", "str"), ("continuation-provider-endpoint", "End")],
    ),
    "SendValue(int, End)": (
        "direct",
        [("value", "int"), ("continuation-client-endpoint", "End")],
    ),
    "ReceiveChannel(End, End)": (
        "reversed",
        [
            ("delegated-client-endpoint", "End"),
            ("continuation-provider-endpoint", "End"),
        ],
    ),
    "SendChannel(End, End)": (
        "direct",
        [
            ("delegated-client-endpoint", "End"),
            ("continuation-client-endpoint", "End"),
        ],
    ),
    "ExternalChoice(End, End)": (
        "reversed",
        [
            ("branch-tag", "left|right"),
            ("continuation-provider-endpoint", "End or End"),
        ],
    ),
    "InternalChoice(End, End)": (
        "direct",
        [
            ("branch-tag", "left|right"),
            ("continuation-client-endpoint", "End or End"),
        ],
    ),
    "SharedToLinear(SendValue(int, Z))": ("reversed", [("release-ack", "")]),
    str(CHOICE_LOOP): (
        "reversed",
        [
            ("branch-tag", "left|right"),
            (
                "continuation-provider-endpoint",
                f"SendValue(int, {CHOICE_LOOP}) or End",
            ),
        ],
    ),
}


@pytest.mark.parametrize("proto", WIRE_CONSTRUCTORS + [CHOICE_LOOP], ids=str)
def test_payload_layout_golden(proto):
    layout = payload_of(proto)
    parts = [(p.role, p.detail) for p in layout.parts]
    assert (layout.kind, parts) == GOLDEN_PAYLOADS[str(proto)]


def test_fix_payload_is_its_unrolling():
    counter = Fix(SendValue(int, Z))
    assert payload_of(counter) == payload_of(SendValue(int, counter))


def test_constructors_are_structural_values():
    assert SendValue(int, End) == SendValue(int, End)
    assert SendValue(int, End) != SendValue(str, End)
    assert hash(ReceiveValue(str, End)) == hash(ReceiveValue(str, End))
    assert str(ReceiveChannel(ReceiveValue(str, End), End)) == (
        "ReceiveChannel(ReceiveValue(str, End), End)"
    )


def test_nested_positions_must_be_protocols():
    with pytest.raises(ProtocolError, match="expected a session type"):
        SendValue(int, "nope")
    with pytest.raises(ProtocolError, match="expected a session type"):
        ExternalChoice(End, 3)
    with pytest.raises(ProtocolError, match="value type"):
        ReceiveValue("not a type", End)
    with pytest.raises(ProtocolError, match="expected a session type"):
        SharedToLinear("x")
    with pytest.raises(ProtocolError, match="expected a session type"):
        Lock(3)


def test_a_protocol_of_any_depth_prints():
    depth = 10**4
    deep = End
    for _ in range(depth):
        deep = SendValue(int, ReceiveValue((int, str), deep))
    text = "SendValue(int, ReceiveValue(int|str, " * depth + "End" + "))" * depth
    assert str(deep) == type_name(deep) == text
    # A delegated channel type is carried, so a shared body may hold a deep one.
    shared = LinearToShared(SendChannel(deep, Z))
    assert str(shared) == f"LinearToShared(SendChannel({text}, Z))"
    # A check that rejects it reports it, instead of exceeding the recursion limit.
    with pytest.raises(ProtocolError) as raised:
        session(deep, terminate())
    assert str(raised.value) == (
        f"terminate offers End, but the expected protocol here is {text}"
    )


# The repr of each constructor, as `@dataclass` would build it.
REPRS = [
    (SendValue(int, End), "SendValue(value_type=<class 'int'>, cont=End)"),
    (
        ReceiveValue((int, str), End),
        "ReceiveValue(value_type=(<class 'int'>, <class 'str'>), cont=End)",
    ),
    (
        SendChannel(SendValue(int, End), End),
        "SendChannel(carried=SendValue(value_type=<class 'int'>, cont=End), cont=End)",
    ),
    (ReceiveChannel(End, End), "ReceiveChannel(carried=End, cont=End)"),
    (
        ExternalChoice(End, InternalChoice(End, End)),
        "ExternalChoice(left=End, right=InternalChoice(left=End, right=End))",
    ),
    (Fix(SendValue(int, Z)), "Fix(body=SendValue(value_type=<class 'int'>, cont=Z))"),
    (
        SharedToLinear(SendValue(int, Z)),
        "SharedToLinear(body=SendValue(value_type=<class 'int'>, cont=Z))",
    ),
    (Lock(SendValue(int, Z)), "Lock(body=SendValue(value_type=<class 'int'>, cont=Z))"),
    (
        LinearToShared(SendValue(int, Z)),
        "LinearToShared(body=SendValue(value_type=<class 'int'>, cont=Z))",
    ),
]


@pytest.mark.parametrize(("protocol", "text"), REPRS)
def test_a_protocol_repr_names_its_fields(protocol, text):
    assert repr(protocol) == text
    assert repr([protocol]) == f"[{text}]"


def test_a_protocol_of_any_depth_has_a_repr():
    depth = 10**4
    deep = End
    for _ in range(depth):
        deep = SendValue(int, deep)
    text = "SendValue(value_type=<class 'int'>, cont=" * depth + "End" + ")" * depth
    assert repr(deep) == text
    # A diagnostic that shows it with `!r` reports it.
    with pytest.raises(SharedTypeError) as raised:
        shared_session(deep, None)
    assert str(raised.value) == (
        f"shared_session: expected a LinearToShared protocol, got {text}"
    )


def test_value_type_may_be_a_tuple_of_types():
    proto = ReceiveValue((int, str), End)
    assert "int|str" in str(proto)


def test_recursion_marker_has_no_payload():
    with pytest.raises(ProtocolError, match="recursion marker"):
        payload_of(Z)


def test_payload_of_rejects_non_protocols():
    with pytest.raises(ProtocolError):
        payload_of("hello")


@pytest.mark.parametrize("unique", [End, Z, Empty], ids=str)
def test_unique_values_copy_and_unpickle_as_themselves(unique):
    assert copy.copy(unique) is unique
    assert copy.deepcopy(unique) is unique
    assert pickle.loads(pickle.dumps(unique)) is unique


def test_unique_values_compare_by_identity():
    assert Z == nat(0)
    assert End != Empty
    p = SendValue(int, End)
    q = pickle.loads(pickle.dumps(p))
    assert q == p and hash(q) == hash(p)
