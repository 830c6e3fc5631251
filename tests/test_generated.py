"""Generated protocols, each with a well-typed provider and client.

For every generated protocol the derived pair must run to completion with
every endpoint consumed and every executor and continuation run once. Every
single-point mutation of the client must be rejected by `session(...)`,
with a diagnostic that starts with the failing rule, before anything runs.
A pair also runs with its provider behind up to two `forward` relays.

The client works over the context [a: P, b: End]: slot b is a second live
channel, so that a wrong lens points at a real channel, not out of range.
"""

import pytest
from hypothesis import assume, given
from hypothesis import strategies as st

import sessia
from conftest import run
from sessia import (
    LEFT,
    RIGHT,
    End,
    ExternalChoice,
    InternalChoice,
    ReceiveValue,
    SendValue,
    SessionTypeError,
    SharedTypeError,
    Z,
    case,
    choose,
    forward,
    include_session,
    nat,
    offer,
    offer_choice,
    receive_value,
    receive_value_from,
    record_event,
    recording,
    run_session,
    send_value,
    send_value_to,
    session,
    shared_type_apply,
    terminate,
    type_apply,
    wait,
)

SINGLE_TYPES = (int, str, bool)
VALUE_TYPES = SINGLE_TYPES + ((int, str),)
A, B = nat(0), nat(1)


def protocols(depth, value_types=VALUE_TYPES, leaves=(End,)):
    """Protocols over End, value I/O and both choices, at most `depth` deep."""
    leaf = st.sampled_from(leaves)
    if depth == 0:
        return leaf
    sub = protocols(depth - 1, value_types, leaves)
    value_type = st.sampled_from(value_types)
    return st.one_of(
        leaf,
        st.builds(SendValue, value_type, sub),
        st.builds(ReceiveValue, value_type, sub),
        st.builds(ExternalChoice, sub, sub),
        st.builds(InternalChoice, sub, sub),
    )


# Choices and values are a function of the depth of the step, so the
# provider, the client and the expected trace agree without coordinating.
def side_at(mask, depth):
    return RIGHT if mask >> depth & 1 else LEFT


def value_at(value_type, depth):
    first = value_type[0] if isinstance(value_type, tuple) else value_type
    return first(depth)


def provider(p, mask, depth=0):
    if p == End:
        return terminate()
    if isinstance(p, SendValue):
        value = value_at(p.value_type, depth)
        return send_value(value, provider(p.cont, mask, depth + 1))
    if isinstance(p, ReceiveValue):
        after = provider(p.cont, mask, depth + 1)

        def on_value(v):
            record_event("RECV", v)
            return after

        return receive_value(on_value)
    if isinstance(p, ExternalChoice):
        return offer_choice(
            provider(p.left, mask, depth + 1), provider(p.right, mask, depth + 1)
        )
    side = side_at(mask, depth)
    return offer(side, provider(getattr(p, side), mask, depth + 1))


def expected_values(p, mask, depth=0):
    """The values that cross the channel, in protocol order."""
    if p == End:
        return []
    if isinstance(p, (SendValue, ReceiveValue)):
        value = value_at(p.value_type, depth)
        return [value] + expected_values(p.cont, mask, depth + 1)
    return expected_values(getattr(p, side_at(mask, depth)), mask, depth + 1)


class Client:
    """Builds the client of slot a; can mutate one statically checked step.

    Steps below a `receive_value_from` are checked only once the value
    arrives, at run time. `static` lists the protocol at slot a for each
    step built at check time, in build order, which is what a mutation
    index refers to.
    """

    def __init__(self, mask, mutation=None):
        self.mask = mask
        self.mutation = mutation
        self.static = []

    def build(self, p, depth=0):
        index = len(self.static)
        self.static.append(p)
        if self.mutation is not None and self.mutation[1] == index:
            return self.mutated(self.mutation[0], p, depth)
        return self.step(p, depth, A)

    def step(self, p, depth, lens):
        if p == End:
            return wait(lens, wait(B, terminate()))
        if isinstance(p, SendValue):

            def on_value(v):
                record_event("RECV", v)
                return self.build(p.cont, depth + 1)

            return receive_value_from(lens, on_value)
        if isinstance(p, ReceiveValue):
            value = value_at(p.value_type, depth)
            return send_value_to(lens, value, self.build(p.cont, depth + 1))
        if isinstance(p, ExternalChoice):
            side = side_at(self.mask, depth)
            return choose(side, lens, self.build(getattr(p, side), depth + 1))
        return case(
            lens, self.build(p.left, depth + 1), self.build(p.right, depth + 1)
        )

    def mutated(self, kind, p, depth):
        if kind == "wrong lens":
            return self.step(p, depth, B)
        if kind == "wrong branch":
            if isinstance(p, ExternalChoice):
                return case(
                    A, self.build(p.left, depth + 1), self.build(p.right, depth + 1)
                )
            return choose(LEFT, A, self.build(p.left, depth + 1))
        if kind == "unconsumed slot":
            return terminate()
        # "reused slot": wait on a once more after it was waited on
        return wait(A, wait(A, wait(B, terminate())))


# The rule each mutation trips, by mutation and by the protocol at slot a.
def failing_rule(kind, p):
    if kind == "unconsumed slot":
        return "terminate"
    if kind == "reused slot" or p == End:
        return "wait"
    if kind == "wrong branch":
        return "case" if isinstance(p, ExternalChoice) else "choose_left"
    if isinstance(p, SendValue):
        return "receive_value_from"
    if isinstance(p, ReceiveValue):
        return "send_value_to"
    if isinstance(p, ExternalChoice):
        return "choose_"
    return "case"


MUTATION_SITES = {
    "wrong lens": lambda p: True,
    "wrong branch": lambda p: isinstance(p, (ExternalChoice, InternalChoice)),
    "unconsumed slot": lambda p: True,
    "reused slot": lambda p: p == End,
}


def relayed(p, mask, relays):
    """The checked provider of p behind `relays` `forward`s, each in a
    session of its own that includes the one before."""
    provided = session(p, provider(p, mask))
    for _ in range(relays):
        provided = session(p, include_session(provided, forward))
    return provided


def linked(p, mask, client, relays=0):
    """The closed program: the provider of p, behind `relays` relays, at
    slot a, an End at slot b."""
    return include_session(
        relayed(p, mask, relays),
        lambda a: include_session(
            session(End, terminate()), lambda b: client.build(p)
        ),
    )


@given(protocols(5), st.integers(0, 63), st.integers(0, 2))
def test_generated_pairs_run_with_conservation(p, mask, relays):
    program = session(End, linked(p, mask, Client(mask), relays))
    with recording() as rec:
        run(run_session(program))
    assert rec.conservation_ok()
    assert rec.one_shot_ok()
    assert len(rec.transcript.events("END")) == 3
    received = sorted(rec.transcript.values("RECV"))
    assert received == sorted(str(v) for v in expected_values(p, mask))


@pytest.mark.parametrize("kind", sorted(MUTATION_SITES))
@given(p=protocols(5), mask=st.integers(0, 63), data=st.data())
def test_single_point_mutations_fail_at_check_time(kind, p, mask, data):
    probe = Client(mask)
    session(End, linked(p, mask, probe))
    sites = [i for i, q in enumerate(probe.static) if MUTATION_SITES[kind](q)]
    assume(sites)
    index = data.draw(st.sampled_from(sites))
    with recording() as rec:
        with pytest.raises(SessionTypeError) as raised:
            session(End, linked(p, mask, Client(mask, (kind, index))))
    assert str(raised.value).startswith(failing_rule(kind, probe.static[index]))
    # rejected before run_session: no channel made, no executor run
    assert rec.counters.endpoints_created == 0
    assert rec.counters.executors == {}


@given(protocols(5, SINGLE_TYPES))
def test_printed_protocols_evaluate_back(p):
    assert eval(str(p), vars(sessia)) == p


BODIES = st.one_of(
    protocols(5, SINGLE_TYPES, leaves=(Z,)),
    protocols(5, SINGLE_TYPES, leaves=(End, Z)),
)


@given(BODIES, protocols(2, SINGLE_TYPES))
def test_substitution_leaves_no_marker(body, x):
    linear = type_apply(body, x)
    assert "Z" not in str(linear)
    if "End" in str(body):
        with pytest.raises(SharedTypeError, match="strictly equi-synchronizing"):
            shared_type_apply(body, x)
    else:
        assert shared_type_apply(body, x) == linear


# -- the same pairs at wider contexts ----------------------------------------

Pad = SendValue(int, End)
PAD_BASE = 1000


class WideClient(Client):
    """The client of the protocol at slot `lens`; `tail` ends every path."""

    def __init__(self, mask, lens, tail):
        super().__init__(mask)
        self.lens = lens
        self.tail = tail

    def build(self, p, depth=0):
        if p == End:
            return wait(self.lens, self.tail())
        return self.step(p, depth, self.lens)


def drain(lenses, rest):
    """Receive from and wait on each pad at `lenses` in turn, then `rest()`."""
    if not lenses:
        return rest()
    lens = lenses[0]

    def on_value(v):
        record_event("RECV", v)
        return wait(lens, drain(lenses[1:], rest))

    return receive_value_from(lens, on_value)


def padded(p, mask, before, after):
    """p's provider at slot `before`, with `before` pads below it and
    `after` pads above; the client drains the lower pads, runs p's client,
    then drains the upper pads, each through the lens it was handed."""
    width = before + 1 + after
    lenses = []

    def include(slot):
        if slot == width:
            upper = lenses[before + 1:]
            client = WideClient(mask, lenses[before], lambda: drain(upper, terminate))
            return drain(lenses[:before], lambda: client.build(p))
        if slot == before:
            provided = session(p, provider(p, mask))
        else:
            provided = session(Pad, send_value(PAD_BASE + slot, terminate()))

        def handed(lens):
            lenses.append(lens)
            return include(slot + 1)

        return include_session(provided, handed)

    return include(0)


@given(protocols(5), st.integers(0, 63), st.integers(0, 6), st.integers(0, 3))
def test_generated_pairs_run_among_pads(p, mask, before, after):
    program = session(End, padded(p, mask, before, after))
    with recording() as rec:
        run(run_session(program))
    assert rec.conservation_ok()
    assert rec.one_shot_ok()
    pads = [slot for slot in range(before + 1 + after) if slot != before]
    assert len(rec.transcript.events("END")) == 2 + len(pads)
    expected = expected_values(p, mask) + [PAD_BASE + slot for slot in pads]
    assert sorted(rec.transcript.values("RECV")) == sorted(str(v) for v in expected)
