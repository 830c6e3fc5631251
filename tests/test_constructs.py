import asyncio
import inspect
import random
import sys
import time

import pytest

import sessia
from conftest import run
from sessia import (
    Empty,
    End,
    ExternalChoice,
    LEFT,
    RIGHT,
    InternalChoice,
    LinearityError,
    PartialSession,
    ProtocolError,
    ReceiveChannel,
    ReceiveValue,
    S,
    SendChannel,
    SendValue,
    SessionTypeError,
    Z,
    apply_channel,
    case,
    choose_left,
    choose_right,
    cut,
    include_session,
    nat,
    offer_choice,
    offer_left,
    offer_right,
    receive_channel,
    receive_channel_from,
    receive_value,
    receive_value_from,
    record_event,
    recording,
    run_session,
    send_channel_from,
    send_channel_to,
    send_value,
    send_value_async,
    send_value_to,
    session,
    terminate,
    wait,
)
from sessia.demos import SharedCounter, shared_counter_provider
from sessia.recursion import Fix
from sessia.shared import Lock, SharedToLinear


def end_provider():
    return session(End, terminate())


def run_recorded(program):
    with recording() as rec:
        run(run_session(program))
    return rec


# -- rule instances: termination ------------------------------------------


def test_terminate_accepts_nil_context():
    run(run_session(session(End, terminate())))


def test_terminate_accepts_consumed_slots():
    body = include_session(end_provider(), lambda x: wait(x, terminate()))
    run(run_session(session(End, body)))


def test_terminate_rejects_live_slot():
    with pytest.raises(LinearityError, match="empty linear context"):
        session(
            ReceiveChannel(End, End),
            receive_channel(lambda a: terminate()),
        )


def python_calls(program, context, offer) -> list:
    """The names of the Python functions that checking `program` calls."""
    names = []

    def profile(frame, event, arg):
        if event == "call":
            names.append(frame.f_code.co_name)

    sys.setprofile(profile)
    try:
        program._resolve(context, offer)
    finally:
        sys.setprofile(None)
    return names


# A judgment of consumed slots, and the live slots it needs, that each rule
# requiring "every other slot is consumed" accepts.
ACCEPTS_CONSUMED = {
    "terminate": lambda: (terminate(), [Empty] * 3, End),
    "forward": lambda: (sessia.forward(nat(3)), [Empty] * 3 + [End], End),
    "detach_shared_session": lambda: (
        sessia.detach_shared_session(shared_counter_provider()),
        [Lock(SharedCounter.body)] + [Empty] * 3,
        SharedToLinear(SharedCounter.body),
    ),
}


@pytest.mark.parametrize("rule", ACCEPTS_CONSUMED)
def test_an_accepting_check_never_scans_for_a_live_slot(rule, monkeypatch):
    scanned = []
    for module in (sessia.core, sessia.constructs, sessia.shared):
        monkeypatch.setattr(module, "live_slot", lambda *args: scanned.append(args))
    program, context, offer = ACCEPTS_CONSUMED[rule]()
    assert isinstance(program._resolve(context, offer), PartialSession)
    assert scanned == []


@pytest.mark.parametrize("rule", ["terminate", "forward"])
def test_an_accepting_check_of_consumed_slots_makes_no_other_call(rule):
    assert python_calls(*ACCEPTS_CONSUMED[rule]()) == ["_resolve"]


def test_wait_rejects_reuse_of_consumed_slot():
    with pytest.raises(LinearityError, match="slot has type Empty"):
        session(
            ReceiveChannel(End, End),
            receive_channel(lambda a: wait(a, wait(a, terminate()))),
        )


# -- value I/O -----------------------------------------------------------


def echo_pair(value):
    def on_value(v):
        record_event("RECV", v)
        return terminate()

    provider = session(ReceiveValue(int, End), receive_value(on_value))
    client = session(
        ReceiveChannel(ReceiveValue(int, End), End),
        receive_channel(lambda a: send_value_to(a, value, wait(a, terminate()))),
    )
    return client, provider


def test_receive_value_identity_on_random_values():
    rng = random.Random(20240817)
    values = [rng.randrange(2**64) for _ in range(100)]
    for value in values:
        with recording() as rec:
            client, provider = echo_pair(value)
            run(run_session(apply_channel(client, provider)))
        assert rec.transcript.values("RECV") == [str(value)]


def test_send_value_to_checks_declared_type():
    with pytest.raises(ProtocolError, match="not of declared type int"):
        echo_pair("not an int")


def test_send_value_to_rejects_wrong_slot_state():
    with pytest.raises(ProtocolError, match="expected a ReceiveValue step"):
        session(
            ReceiveChannel(End, End),
            receive_channel(lambda a: send_value_to(a, 1, wait(a, terminate()))),
        )


def test_sequential_sends_deliver_in_order():
    rng = random.Random(7)
    values = [rng.randrange(1000) for _ in range(8)]

    proto = End
    for _ in values:
        proto = ReceiveValue(int, proto)

    def provider_body(remaining):
        if remaining == 0:
            return terminate()

        def on_value(v):
            record_event("RECV", v)
            return provider_body(remaining - 1)

        return receive_value(on_value)

    def client_body(a):
        prog = wait(a, terminate())
        for v in reversed(values):
            prog = send_value_to(a, v, prog)
        return prog

    provider = session(proto, provider_body(len(values)))
    client = session(ReceiveChannel(proto, End), receive_channel(client_body))
    with recording() as rec:
        run(run_session(apply_channel(client, provider)))
    assert [int(v) for v in rec.transcript.values("RECV")] == values


def int_source(value):
    return session(SendValue(int, End), send_value(value, terminate()))


def consume_int(source):
    def on_value(v):
        record_event("RECV", v)
        return wait(Z, terminate())

    return session(
        End, include_session(source, lambda x: receive_value_from(x, on_value))
    )


def test_send_value_and_receive_value_from_round_trip():
    rec = run_recorded(consume_int(int_source(42)))
    assert rec.transcript.values("RECV") == ["42"]
    assert rec.conservation_ok()


def test_send_value_checks_declared_type():
    with pytest.raises(ProtocolError, match="not of declared type"):
        session(SendValue(int, End), send_value("nope", terminate()))


def test_receive_value_from_rejects_wrong_slot():
    with pytest.raises(ProtocolError, match="expected a SendValue step"):
        consume_int(end_provider())


def test_async_continuations_are_awaited():
    async def on_value(v):
        await asyncio.sleep(0)
        record_event("RECV", v)
        return wait(Z, terminate())

    program = session(
        End,
        include_session(int_source(5), lambda x: receive_value_from(x, on_value)),
    )
    rec = run_recorded(program)
    assert rec.transcript.values("RECV") == ["5"]


# -- lazy production ----------------------------------------------------------


def test_producer_effects_do_not_happen_before_run():
    produced = []

    async def produce():
        produced.append(True)
        return 9, terminate()

    program = session(SendValue(int, End), send_value_async(produce))
    linked = consume_int(program)
    assert produced == []  # building and linking ran no producer code
    rec = run_recorded(linked)
    assert produced == [True]
    assert rec.transcript.values("RECV") == ["9"]


def test_send_value_async_equivalent_to_send_value_when_immediate():
    async def produce():
        return 3, terminate()

    eager = consume_int(int_source(3))
    lazy = consume_int(session(SendValue(int, End), send_value_async(produce)))
    with recording() as rec_eager:
        run(run_session(eager))
    with recording() as rec_lazy:
        run(run_session(lazy))
    assert rec_eager.transcript.lines() == rec_lazy.transcript.lines()
    assert (
        rec_eager.counters.endpoints_created == rec_lazy.counters.endpoints_created
    )


def test_producer_values_arrive_after_declared_delay():
    async def produce():
        await asyncio.sleep(0.05)
        return 1, terminate()

    started = time.monotonic()
    rec = run_recorded(
        consume_int(session(SendValue(int, End), send_value_async(produce)))
    )
    recv = rec.transcript.events("RECV")[0]
    assert recv.timestamp - started >= 0.05


# -- channel delegation -------------------------------------------------------


def test_receive_channel_lens_levels():
    seen = []

    def outer(a):
        seen.append(a.level)

        def inner(b):
            seen.append(b.level)
            return wait(a, wait(b, terminate()))

        return receive_channel(inner)

    program = session(
        ReceiveChannel(End, ReceiveChannel(End, End)), receive_channel(outer)
    )
    step1 = apply_channel(program, end_provider())
    step2 = apply_channel(step1, end_provider())
    run(run_session(step2))
    assert seen == [0, 1]


def test_delegation_three_task_trace():
    # a delegator hands its private value source to the client
    inner = int_source(5)
    delegator = session(
        SendChannel(SendValue(int, End), End),
        include_session(inner, lambda x: send_channel_from(x, terminate())),
    )

    def body(d):
        def got_channel(v):
            def on_value(value):
                record_event("RECV", value)
                return wait(v, wait(d, terminate()))

            return receive_value_from(v, on_value)

        return receive_channel_from(d, got_channel)

    program = session(End, include_session(delegator, body))
    rec = run_recorded(program)
    assert rec.transcript.values("RECV") == ["5"]
    tasks = {e.task for e in rec.transcript}
    assert len(tasks) == 3  # client, delegator, and the delegated source
    assert rec.conservation_ok()


def test_receive_channel_from_appends_at_context_length():
    seen = []
    inner = int_source(1)
    delegator = session(
        SendChannel(SendValue(int, End), End),
        include_session(inner, lambda x: send_channel_from(x, terminate())),
    )

    def body(d):
        def got_channel(v):
            seen.append(v.level)
            return receive_value_from(
                v, lambda _: wait(v, wait(d, terminate()))
            )

        return receive_channel_from(d, got_channel)

    run(run_session(session(End, include_session(delegator, body))))
    assert seen == [1]


def test_send_channel_from_empties_the_slot():
    with pytest.raises(LinearityError, match="slot has type Empty"):
        session(
            SendChannel(End, End),
            include_session(
                end_provider(),
                lambda x: send_channel_from(x, wait(x, terminate())),
            ),
        )


def test_send_channel_to_slot_unusable_afterwards():
    # the delegated slot holds Empty, so waiting on it is rejected
    with pytest.raises(LinearityError, match="slot has type Empty"):
        session(
            ReceiveChannel(ReceiveChannel(End, End), End),
            receive_channel(
                lambda f: include_session(
                    end_provider(),
                    lambda a: send_channel_to(f, a, wait(f, wait(a, terminate()))),
                )
            ),
        )


# -- external choice ---------------------------------------------------------


def choice_provider():
    return session(
        ExternalChoice(SendValue(int, End), End),
        offer_choice(send_value(1, terminate()), terminate()),
    )


def test_choose_left_runs_only_left_branch():
    def body(x):
        def on_value(v):
            record_event("RECV", v)
            return wait(x, terminate())

        return choose_left(x, receive_value_from(x, on_value))

    rec = run_recorded(
        session(End, include_session(choice_provider(), body))
    )
    assert rec.transcript.values("RECV") == ["1"]


def test_choose_right_runs_only_right_branch():
    rec = run_recorded(
        session(
            End,
            include_session(
                choice_provider(), lambda x: choose_right(x, wait(x, terminate()))
            ),
        )
    )
    assert rec.transcript.values("RECV") == []
    assert rec.conservation_ok()


def test_offer_choice_branches_must_type_against_same_context():
    # right branch drops the live slot the left branch consumes
    with pytest.raises(LinearityError, match="empty linear context"):
        session(
            ReceiveChannel(End, ExternalChoice(End, End)),
            receive_channel(
                lambda a: offer_choice(wait(a, terminate()), terminate())
            ),
        )


def test_offer_choice_branch_protocol_mismatch():
    with pytest.raises(ProtocolError, match="terminate offers End"):
        session(
            ExternalChoice(SendValue(int, End), End),
            offer_choice(terminate(), terminate()),
        )


def test_choosing_on_non_choice_slot():
    with pytest.raises(ProtocolError, match="expected an ExternalChoice"):
        session(
            End,
            include_session(
                end_provider(), lambda x: choose_left(x, wait(x, terminate()))
            ),
        )


# -- internal choice ----------------------------------------------------------


def internal_choice_client(source):
    def body(x):
        def on_value(v):
            record_event("RECV", v)
            return wait(x, terminate())

        left = receive_value_from(x, on_value)
        right = wait(x, terminate())
        return case(x, left, right)

    return session(End, include_session(source, body))


def internal_provider(side):
    proto = InternalChoice(SendValue(int, End), End)
    if side == "left":
        return session(proto, offer_left(send_value(7, terminate())))
    return session(proto, offer_right(terminate()))


def test_case_handles_left_tag():
    rec = run_recorded(internal_choice_client(internal_provider("left")))
    assert rec.transcript.values("RECV") == ["7"]


def test_case_handles_right_tag():
    rec = run_recorded(internal_choice_client(internal_provider("right")))
    assert rec.transcript.values("RECV") == []


def test_offer_left_requires_left_branch_protocol():
    with pytest.raises(ProtocolError, match="terminate offers End"):
        session(
            InternalChoice(SendValue(int, End), End),
            offer_left(terminate()),
        )


def test_case_branch_contexts_differ_only_at_the_slot():
    # against a provider whose right branch also sends, the client's
    # right branch (which waits immediately) is rejected at that slot
    provider = session(
        InternalChoice(SendValue(int, End), SendValue(int, End)),
        offer_right(send_value(1, terminate())),
    )
    with pytest.raises(LinearityError, match="slot has type SendValue"):
        internal_choice_client(provider)


def test_case_on_non_internal_choice_slot():
    with pytest.raises(ProtocolError, match="expected an InternalChoice"):
        session(
            End,
            include_session(
                end_provider(),
                lambda x: case(x, wait(x, terminate()), wait(x, terminate())),
            ),
        )


# -- wait ordering -------------------------------------------------------------


def test_wait_continuation_starts_after_provider_end():
    async def produce():
        await asyncio.sleep(0.03)
        return 2, terminate()

    slow = session(SendValue(int, End), send_value_async(produce))
    rec = run_recorded(consume_int(slow))
    ends = rec.transcript.events("END")
    # provider's END is recorded before the client's final END
    assert len(ends) == 2
    assert ends[0].seq < ends[1].seq
    assert ends[0].task != ends[1].task


# -- context ownership -----------------------------------------------------------

# A rule owns its context list and updates it in place. A branch of a choice
# may keep its context until a value arrives, after the other branch has been
# checked, so each branch needs a context of its own; and `cut` must give the
# provider and the client only their own parts of the context.


@pytest.mark.parametrize("side", [LEFT, RIGHT])
def test_a_deferred_offer_choice_branch_keeps_its_own_context(side):
    # The provider holds an End channel at Z. Its left branch waits on it
    # once a value arrives; its right branch waits on it at check time.
    got = []

    def on_value(v):
        got.append(v)
        return wait(Z, terminate())

    provider = offer_choice(receive_value(on_value), wait(Z, terminate()))
    if side == LEFT:
        client = choose_left(Z, send_value_to(Z, 5, wait(Z, terminate())))
    else:
        client = choose_right(Z, wait(Z, terminate()))
    body = include_session(
        end_provider(),
        lambda held: cut(
            client,
            provider,
            provider_protocol=ExternalChoice(ReceiveValue(int, End), End),
            provider_context=(End, ()),
        ),
    )
    rec = run_recorded(session(End, body))
    assert got == ([5] if side == LEFT else [])
    assert rec.conservation_ok() and rec.one_shot_ok()


@pytest.mark.parametrize("side", ["left", "right"])
def test_a_deferred_case_branch_keeps_its_own_context(side):
    # The left branch waits on `held` once the choice's value arrives; the
    # right branch waits on it at check time.
    got = []

    def body(x, held):
        def on_value(v):
            got.append(v)
            return wait(x, wait(held, terminate()))

        left = receive_value_from(x, on_value)
        right = wait(held, wait(x, terminate()))
        return case(x, left, right)

    program = include_session(
        internal_provider(side),
        lambda x: include_session(end_provider(), lambda held: body(x, held)),
    )
    rec = run_recorded(session(End, program))
    assert got == ([7] if side == "left" else [])
    assert rec.conservation_ok() and rec.one_shot_ok()


def test_cut_gives_provider_and_client_only_their_own_endpoints():
    # The provider takes the context's tail, one SendValue channel at Z, and
    # sends its value plus one. The client finds the cut channel at Z and
    # includes a second source after the split, at S(Z).
    got, lenses = [], []

    def provider_on_value(v):
        return wait(Z, send_value(v + 1, terminate()))

    def client_body(source):
        lenses.append(source)

        def from_source(v):
            got.append(("source", v))
            return wait(source, receive_value_from(Z, from_provider))

        def from_provider(v):
            got.append(("provider", v))
            return wait(Z, terminate())

        return receive_value_from(source, from_source)

    program = include_session(
        int_source(7),
        lambda held: cut(
            include_session(int_source(9), client_body),
            receive_value_from(Z, provider_on_value),
            provider_protocol=SendValue(int, End),
            provider_context=(SendValue(int, End), ()),
        ),
    )
    rec = run_recorded(session(End, program))
    assert lenses == [S(Z)]
    assert got == [("source", 9), ("provider", 8)]
    assert rec.conservation_ok() and rec.one_shot_ok()


# -- every term constructor ------------------------------------------------------

# The lowercase names of `sessia.__all__` that build no term.
NOT_CONSTRUCTORS = {
    "accept_shared_session",
    "append",
    "apply_channel",
    "empty_endpoints",
    "length_of",
    "lens_resolve",
    "nat",
    "payload_of",
    "record_event",
    "recording",
    "run_session",
    "run_shared_session",
    "session",
    "shared_session",
    "shared_type_apply",
    "type_apply",
}

# Marks a premise program and a user continuation among the arguments.
PROGRAM, CONT = object(), object()

# name: (its rule, its parameters, valid arguments)
CONSTRUCTORS = {
    "acquire_shared_session": (
        "acquire_shared_session",
        "shared, cont",
        lambda: (sessia.run_shared_session(shared_counter_provider()), CONT),
    ),
    "case": ("case", "n, left, right", lambda: (Z, PROGRAM, PROGRAM)),
    "choose": ("choose_left", "side, n, cont", lambda: (LEFT, Z, PROGRAM)),
    "choose_left": ("choose_left", "n, cont", lambda: (Z, PROGRAM)),
    "choose_right": ("choose_right", "n, cont", lambda: (Z, PROGRAM)),
    "cut": (
        "cut",
        "cont1, cont2, *, provider_protocol, provider_context",
        lambda: (PROGRAM, PROGRAM),
    ),
    "detach_shared_session": (
        "detach_shared_session",
        "cont",
        lambda: (shared_counter_provider(),),
    ),
    "fix_session": ("fix_session", "cont", lambda: (PROGRAM,)),
    "forward": ("forward", "n", lambda: (Z,)),
    "include_session": ("include_session", "a, cont", lambda: (end_provider(), CONT)),
    "offer": ("offer_right", "side, cont", lambda: (RIGHT, PROGRAM)),
    "offer_choice": ("offer_choice", "left, right", lambda: (PROGRAM, PROGRAM)),
    "offer_left": ("offer_left", "cont", lambda: (PROGRAM,)),
    "offer_right": ("offer_right", "cont", lambda: (PROGRAM,)),
    "receive_channel": ("receive_channel", "cont", lambda: (CONT,)),
    "receive_channel_from": ("receive_channel_from", "n, cont", lambda: (Z, CONT)),
    "receive_value": ("receive_value", "cont", lambda: (CONT,)),
    "receive_value_from": ("receive_value_from", "n, cont", lambda: (Z, CONT)),
    "release_shared_session": (
        "release_shared_session",
        "n, cont",
        lambda: (Z, PROGRAM),
    ),
    "send_channel_from": ("send_channel_from", "n, cont", lambda: (Z, PROGRAM)),
    "send_channel_to": ("send_channel_to", "n1, n2, cont", lambda: (Z, S(Z), PROGRAM)),
    "send_value": ("send_value", "value, cont", lambda: (1, PROGRAM)),
    "send_value_async": ("send_value_async", "produce", lambda: (CONT,)),
    "send_value_to": ("send_value_to", "n, value, cont", lambda: (Z, 1, PROGRAM)),
    "terminate": ("terminate", "", lambda: ()),
    "unfix_session_for": ("unfix_session_for", "n, cont", lambda: (Z, PROGRAM)),
    "wait": ("wait", "n, cont", lambda: (Z, PROGRAM)),
}


def build(name, arguments):
    def value(argument):
        if argument is PROGRAM:
            return terminate()
        if argument is CONT:
            return lambda *_: terminate()
        return argument

    return getattr(sessia, name)(*map(value, arguments))


def test_the_table_names_every_term_constructor():
    public = {name for name in sessia.__all__ if name.islower()}
    assert set(CONSTRUCTORS) == public - NOT_CONSTRUCTORS
    assert NOT_CONSTRUCTORS <= public


@pytest.mark.parametrize("name", sorted(CONSTRUCTORS))
def test_term_constructor_call_shape_and_diagnostics(name):
    rule, parameters, arguments = CONSTRUCTORS[name]
    shown = []
    for p in inspect.signature(getattr(sessia, name)).parameters.values():
        if p.kind is p.KEYWORD_ONLY and "*" not in shown:
            shown.append("*")
        shown.append(p.name)
    assert ", ".join(shown) == parameters

    program = build(name, arguments())
    assert isinstance(program, PartialSession)
    assert repr(program) == f"<PartialSession {rule}>"

    # Each reports as its rule: `choose_left` and the like too.
    for position, argument in enumerate(arguments()):
        if argument is PROGRAM:
            expected = f"{rule}: expected a session program (PartialSession), got 42"
        elif argument is CONT:
            expected = f"{rule}: continuation must be callable, got 42"
        else:
            continue
        wrong = list(arguments())
        wrong[position] = 42
        with pytest.raises(ProtocolError) as raised:
            build(name, wrong)
        assert str(raised.value) == expected


def test_each_rule_constructor_is_its_rule_class():
    wrappers = {"choose_left", "choose_right", "offer_left", "offer_right"}
    for name in set(CONSTRUCTORS) - wrappers:
        constructor = getattr(sessia, name)
        assert issubclass(constructor, PartialSession), name
        assert constructor.__name__ == name


# -- every rule holds its own guard and its own offer test -----------------------

# A judgment no table entry holds: every rule but `fix_session` refuses it or
# reads a slot out of range, and `fix_session`'s premise refuses it.
NO_RULE_HOLDS = (lambda: [], Fix(SendValue(int, Z)))

# A judgment each table entry that can check holds, with its table arguments.
HOLDS = {
    "detach_shared_session": (
        lambda: [Lock(SharedCounter.body)],
        SharedToLinear(SharedCounter.body),
    ),
    "forward": (lambda: [End], End),
    "offer": (lambda: [], InternalChoice(End, End)),
    "offer_choice": (lambda: [], ExternalChoice(End, End)),
    "offer_left": (lambda: [], InternalChoice(End, End)),
    "offer_right": (lambda: [], InternalChoice(End, End)),
    "receive_value": (lambda: [], ReceiveValue(int, End)),
    "receive_value_from": (lambda: [SendValue(int, End)], End),
    "release_shared_session": (lambda: [SharedToLinear(SharedCounter.body)], End),
    "send_channel_from": (lambda: [End], SendChannel(End, End)),
    "send_value": (lambda: [], SendValue(int, End)),
    "send_value_async": (lambda: [], SendValue(int, End)),
    "terminate": (lambda: [], End),
    "wait": (lambda: [End], End),
}


def check_twice(name, judgment, holds: bool) -> None:
    """Check a fresh program of `name` under `judgment`, which it `holds` or
    fails, then check it again: the second check is refused by the rule's
    own guard and leaves the program as the first left it."""
    rule, _, arguments = CONSTRUCTORS[name]
    program = build(name, arguments())
    context, protocol = judgment
    if holds:
        assert isinstance(program._resolve(context(), protocol), PartialSession)
    else:
        with pytest.raises(SessionTypeError) as first:
            program._resolve(context(), protocol)
        assert "already consumed" not in str(first.value)
    state = program.execute
    with pytest.raises(LinearityError) as raised:
        program._resolve(context(), protocol)
    assert str(raised.value) == (
        f"{rule}: session program value already consumed (programs are linear)"
    )
    assert program.execute is state


@pytest.mark.parametrize("name", sorted(HOLDS))
def test_a_rule_refuses_a_program_it_has_checked(name):
    check_twice(name, HOLDS[name], holds=True)


@pytest.mark.parametrize("name", sorted(CONSTRUCTORS))
def test_a_rule_refuses_a_program_whose_check_failed(name):
    check_twice(name, NO_RULE_HOLDS, holds=False)


# The parameters that take a context lens.
LENS_PARAMETERS = {"n", "n1", "n2"}


@pytest.mark.parametrize(
    "name",
    [
        name
        for name, (_, parameters, _) in sorted(CONSTRUCTORS.items())
        if LENS_PARAMETERS & set(parameters.split(", "))
    ],
)
def test_a_rule_refuses_a_lens_that_is_not_one(name):
    # Under a judgment that reaches the lens: the rule's own, or two End slots.
    _, parameters, arguments = CONSTRUCTORS[name]
    context, protocol = HOLDS.get(name, (lambda: [End, End], End))
    for position, parameter in enumerate(parameters.split(", ")):
        if parameter not in LENS_PARAMETERS:
            continue
        wrong = list(arguments())
        wrong[position] = 42
        with pytest.raises(ProtocolError) as raised:
            build(name, wrong)._resolve(context(), protocol)
        assert str(raised.value) == "expected a context lens (Z or S(n)), got 42"


# What each provider rule offers, as its diagnostic names it.
OFFERS = {
    "detach_shared_session": "SharedToLinear",
    "fix_session": "a Fix protocol",
    "offer": "InternalChoice",
    "offer_choice": "ExternalChoice",
    "offer_left": "InternalChoice",
    "offer_right": "InternalChoice",
    "receive_channel": "ReceiveChannel",
    "receive_value": "ReceiveValue",
    "send_channel_from": "SendChannel",
    "send_value": "SendValue",
    "send_value_async": "SendValue",
    "terminate": "End",
}


@pytest.mark.parametrize("name", sorted(OFFERS))
def test_a_provider_rule_tests_the_class_of_its_offer(name):
    rule, _, arguments = CONSTRUCTORS[name]
    wrong = SendValue(int, End) if name == "terminate" else End
    with pytest.raises(ProtocolError) as raised:
        build(name, arguments())._resolve([], wrong)
    assert str(raised.value) == (
        f"{rule} offers {OFFERS[name]}, but the expected protocol here is {wrong}"
    )
