"""One-shot resources: every channel end, continuation and program is used
at most once, and a second use raises the same error it always has."""

import pytest

from conftest import run, run_program
from sessia import (
    End,
    LinearityError,
    ProtocolError,
    ReceiveChannel,
    ReceiveValue,
    RuntimeViolation,
    SendChannel,
    SendValue,
    SessionTypeError,
    Z,
    acquire_shared_session,
    apply_channel,
    cut,
    include_session,
    nat,
    receive_channel,
    receive_channel_from,
    receive_value,
    receive_value_from,
    recording,
    release_shared_session,
    run_session,
    run_shared_session,
    send_value,
    send_value_async,
    send_value_to,
    session,
    terminate,
    wait,
)
from sessia.demos import shared_counter_provider
from sessia.runtime import END, answer, ask, channel, emit, spawn, start


# -- the texts a second use raises ---------------------------------------------


def test_sending_twice_on_one_endpoint_is_rejected():
    async def main():
        sender, receiver = channel()
        sender.send(1)
        with pytest.raises(RuntimeViolation) as raised:
            sender.send(2)
        assert str(raised.value) == "one-shot channel endpoint used twice (send)"
        assert await receiver.recv() == 1

    with recording() as rec:
        run(main())
    assert rec.counters.endpoints_created == 2
    assert rec.conservation_ok()


def test_receiving_twice_on_one_endpoint_is_rejected():
    async def main():
        sender, receiver = channel()
        sender.send("x")
        assert await receiver.recv() == "x"
        with pytest.raises(RuntimeViolation) as raised:
            await receiver.recv()
        assert str(raised.value) == "one-shot channel endpoint used twice (recv)"

    with recording() as rec:
        run(main())
    assert rec.conservation_ok()


def test_a_receive_outside_any_run_fails_at_once():
    async def main():
        _, receiver = channel()
        with pytest.raises(RuntimeViolation) as raised:
            await receiver.recv()
        assert str(raised.value) == (
            "receive on an empty channel outside any run: only a driver of "
            "a run can wait for its peer (start one with sessia.runtime.start)"
        )

    run(main())


def test_a_continuation_must_be_callable():
    with pytest.raises(ProtocolError) as raised:
        include_session(session(End, terminate()), 42)
    assert str(raised.value) == "include_session: continuation must be callable, got 42"


# Each way a step channel is filled: the step messages make the next step's
# channel and fill the current one themselves, each with its own check.
SENDS = {
    "emit": lambda sender: emit(sender, 1),
    "ask": ask,
    "answer": lambda sender: answer(sender, 1),
    "send": lambda sender: sender.send(1),
}


@pytest.mark.parametrize("send", SENDS)
def test_a_second_send_through_any_step_message_is_refused(send):
    sender, _ = channel()
    with recording() as rec:
        SENDS[send](sender)
        with pytest.raises(RuntimeViolation) as raised:
            SENDS[send](sender)
    assert str(raised.value) == "one-shot channel endpoint used twice (send)"
    assert rec.counters.reuses == 1


def test_a_lens_wait_on_a_taken_payload_is_refused():
    # The run's scheduler waits at a client rule's lens itself, with the
    # same check as a receive.
    async def main():
        sender, receiver = channel()
        sender.send(END)
        assert receiver.poll() is END
        program = wait(Z, terminate())._resolve([End], End)

        async def spawning():
            spawn(program, [receiver], channel()[0])

        await start(spawning())

    with recording() as rec:
        with pytest.raises(RuntimeViolation) as raised:
            run(main())
    assert str(raised.value) == "one-shot channel endpoint used twice (recv)"
    assert rec.counters.reuses == 1


# -- a continuation runs once, from its rule's own slot --------------------------

CONTINUATION_RULES = {
    "include_session": lambda fn: include_session(session(End, terminate()), fn),
    "acquire_shared_session": lambda fn: acquire_shared_session(
        run_shared_session(shared_counter_provider(0)), fn
    ),
    "receive_channel": receive_channel,
    "receive_channel_from": lambda fn: receive_channel_from(Z, fn),
    "receive_value": receive_value,
    "receive_value_from": lambda fn: receive_value_from(Z, fn),
    "send_value_async": send_value_async,
}


@pytest.mark.parametrize("rule", CONTINUATION_RULES)
def test_a_rule_calls_its_continuation_at_most_once(rule):
    calls = []
    program = CONTINUATION_RULES[rule](lambda *args: calls.append(args) or "result")
    with recording() as rec:
        assert program._call_cont(Z) == "result"
        with pytest.raises(RuntimeViolation) as raised:
            program._call_cont(Z)
    assert str(raised.value) == f"{rule}: continuation invoked twice"
    assert calls == [(Z,)]
    assert rec.counters.reuses == 1
    assert rec.counters.continuations == {rule: 1}


# Each rule that calls its continuation at check time: the rule around a
# continuation, a judgment, and a body for the continuation under which the
# rule holds.
CHECK_TIME_CONTINUATIONS = {
    "include_session": (
        lambda fn: include_session(session(End, terminate()), fn),
        lambda: ([], End),
        lambda x: wait(x, terminate()),
    ),
    "acquire_shared_session": (
        lambda fn: acquire_shared_session(
            run_shared_session(shared_counter_provider(0)), fn
        ),
        lambda: ([], End),
        lambda c: receive_value_from(
            c, lambda v: release_shared_session(c, terminate())
        ),
    ),
    "receive_channel": (
        receive_channel,
        lambda: ([], ReceiveChannel(End, End)),
        lambda c: wait(c, terminate()),
    ),
    "receive_channel_from": (
        lambda fn: receive_channel_from(Z, fn),
        lambda: ([SendChannel(End, End)], End),
        lambda c: wait(Z, wait(c, terminate())),
    ),
}


@pytest.mark.parametrize("rule", CHECK_TIME_CONTINUATIONS)
def test_a_check_calls_and_counts_its_continuation_once(rule):
    build, judgment, body = CHECK_TIME_CONTINUATIONS[rule]
    lenses = []
    program = build(lambda lens: lenses.append(lens) or body(lens))
    context, offer = judgment()
    with recording() as rec:
        program._resolve(context, offer)
        with pytest.raises(LinearityError):
            program._resolve(*judgment())
    assert lenses == [nat(len(judgment()[0]))]
    assert rec.counters.continuations == {rule: 1}


# -- a continuation that returns None is refused by its rule, not as a reuse ---

# Each rule whose run-time continuation, given as `cont`, returns the program
# after the value: a closed program that calls it, and the text with which
# the rule refuses None.
RETURNS_NONE = {
    "receive_value": (
        lambda cont: include_session(
            session(ReceiveValue(int, End), receive_value(cont)),
            lambda x: send_value_to(x, 1, wait(x, terminate())),
        ),
        "receive_value continuation: expected a session program "
        "(PartialSession), got None",
    ),
    "receive_value_from": (
        lambda cont: include_session(
            session(SendValue(int, End), send_value(1, terminate())),
            lambda x: receive_value_from(x, cont),
        ),
        "receive_value_from continuation: expected a session program "
        "(PartialSession), got None",
    ),
    "send_value_async": (
        lambda cont: include_session(
            session(SendValue(int, End), send_value_async(cont)),
            lambda x: receive_value_from(x, lambda value: wait(x, terminate())),
        ),
        "send_value_async producer: expected a (value, program) pair, got None",
    ),
}


@pytest.mark.parametrize("rule", sorted(RETURNS_NONE))
def test_a_continuation_that_returns_none_is_refused_by_its_rule(rule):
    build, text = RETURNS_NONE[rule]
    program = session(End, build(lambda *args: None))
    with recording() as rec:
        with pytest.raises(ProtocolError) as raised:
            run(run_session(program))
    assert str(raised.value) == text
    assert rec.one_shot_ok()


# -- a checked Session is linked once -------------------------------------------

ALREADY_LINKED = "session: session program value already consumed (programs are linear)"


def end_provider():
    return session(End, terminate())


def value_continuation_run(linked):
    """Run a provider whose value continuation returns the Session `linked`."""
    provider = session(ReceiveValue(int, End), receive_value(lambda value: linked))
    client = include_session(
        provider, lambda x: send_value_to(x, 1, wait(x, terminate()))
    )
    run(run_session(session(End, client)))


# Each way to link a checked `Session` offering End, by a check or a run.
LINKS = {
    "include_session": lambda s: session(
        End, include_session(s, lambda x: wait(x, terminate()))
    ),
    "cut": lambda s: session(End, cut(wait(Z, terminate()), s)),
    "apply_channel": lambda s: apply_channel(
        session(
            ReceiveChannel(End, End), receive_channel(lambda c: wait(c, terminate()))
        ),
        s,
    ),
    "run_session": lambda s: run(run_session(s)),
    "value continuation": value_continuation_run,
}

# First links that the Session's own check refuses, which consume it too.
REFUSED_LINKS = {
    "cut, with a provider context": lambda s: session(
        End,
        include_session(
            end_provider(),
            lambda x: cut(wait(Z, terminate()), s, provider_context=(End, ())),
        ),
    ),
    "lens continuation, in a non-empty context": lambda s: session(
        End, include_session(end_provider(), lambda x: s)
    ),
    "session, at another protocol": lambda s: session(SendValue(int, End), s),
}


@pytest.mark.parametrize("second", LINKS)
@pytest.mark.parametrize("first", [*LINKS, *REFUSED_LINKS])
def test_a_checked_session_is_linked_once(first, second):
    s = end_provider()
    if first in LINKS:
        LINKS[first](s)
    else:
        with pytest.raises(SessionTypeError) as refused:
            REFUSED_LINKS[first](s)
        assert "already consumed" not in str(refused.value)
    with pytest.raises(LinearityError) as raised:
        LINKS[second](s)
    assert str(raised.value) == ALREADY_LINKED


# -- a refused second use fails the Recorder's one-shot check ------------------


async def drive_twice():
    program = terminate()._resolve((), End)
    await run_program(program, channel()[0])
    await run_program(program, channel()[0])


async def call_twice():
    rule = include_session(session(End, terminate()), lambda lens: terminate())
    rule._call_cont(Z)
    rule._call_cont(Z)


async def send_twice():
    sender, _ = channel()
    sender.send(1)
    sender.send(2)


async def recv_twice():
    sender, receiver = channel()
    sender.send(1)
    await receiver.recv()
    await receiver.recv()


@pytest.mark.parametrize(
    ("second_use", "text"),
    [
        (drive_twice, "terminate: executor invoked twice"),
        (call_twice, "include_session: continuation invoked twice"),
        (send_twice, "one-shot channel endpoint used twice (send)"),
        (recv_twice, "one-shot channel endpoint used twice (recv)"),
    ],
)
def test_a_refused_second_use_fails_the_one_shot_check(second_use, text):
    with recording() as rec:
        with pytest.raises(RuntimeViolation) as raised:
            run(second_use())
    assert str(raised.value) == text
    assert not rec.one_shot_ok()
    assert rec.counters.reuses == 1


# -- the same texts inside a run, where a receive parks its driver -------------


def test_a_second_use_inside_a_run_raises_the_same_texts():
    held, texts = [], []

    async def receiving():
        sender, receiver = channel()
        held.append(sender)
        assert await receiver.recv() == "x"  # parks until the peer sends
        with pytest.raises(RuntimeViolation) as raised:
            await receiver.recv()
        texts.append(str(raised.value))

    async def sending():
        sender = held.pop()
        sender.send("x")
        with pytest.raises(RuntimeViolation) as raised:
            sender.send("y")
        texts.append(str(raised.value))

    with recording() as rec:
        run(start(receiving(), sending()))
    assert texts == [
        "one-shot channel endpoint used twice (send)",
        "one-shot channel endpoint used twice (recv)",
    ]
    assert rec.counters.endpoints_created == 2
    assert rec.conservation_ok()
