import asyncio
import gc
import sys
import types
import warnings

import pytest

from conftest import run, run_program
from sessia import (
    Empty,
    End,
    LinearityError,
    ProtocolError,
    ReceiveChannel,
    ReceiveValue,
    RuntimeViolation,
    SendChannel,
    SendValue,
    Z,
    apply_channel,
    cut,
    fix_session,
    forward,
    include_session,
    nat,
    offer_choice,
    receive_channel,
    receive_channel_from,
    receive_value,
    receive_value_from,
    record_event,
    recording,
    run_session,
    send_channel_from,
    send_value,
    send_value_async,
    send_value_to,
    session,
    terminate,
    wait,
)
import sessia.core
import sessia.protocols
from sessia.demos import (
    CounterStream,
    apply_channel_via_cut,
    hello_pair,
    stream_producer,
)
from sessia.runtime import END, channel


def end_provider():
    return session(End, terminate())


def int_provider(value):
    return session(SendValue(int, End), send_value(value, terminate()))


# -- run_session ----------------------------------------------------------


def test_trivial_run_completes():
    run(run_session(session(End, terminate())))


def test_run_requires_checked_session():
    with pytest.raises(ProtocolError, match="requires a Session"):
        run_session(terminate())


def test_run_requires_end_protocol():
    p = session(ReceiveValue(str, End), receive_value(lambda v: terminate()))
    with pytest.raises(ProtocolError, match="requires a Session\\(End\\)"):
        run_session(p)


def test_session_values_are_single_use():
    p = end_provider()
    run(run_session(p))
    with pytest.raises(LinearityError, match="already consumed"):
        run_session(p)


def test_partial_session_values_are_single_use():
    cont = terminate()
    session(End, cont)
    with pytest.raises(LinearityError, match="already consumed"):
        session(End, cont)


def test_user_exceptions_propagate():
    def explode(value):
        raise ValueError("boom")

    client, _ = hello_pair()
    provider = session(ReceiveValue(str, End), receive_value(explode))
    with pytest.raises(ValueError, match="boom"):
        run(run_session(apply_channel(client, provider)))


# -- cut -----------------------------------------------------------------


def test_cut_two_task_trace():
    # manual trace: the spawned provider terminates first, then the client.
    with recording() as rec:
        run(run_session(session(End, cut(wait(Z, terminate()), terminate()))))
    ends = rec.transcript.events("END")
    assert len(ends) == 2
    assert ends[0].task != ends[1].task  # two tasks took part
    # channels: the root end channel plus the one the cut introduced
    assert rec.counters.endpoints_created == 4
    assert rec.conservation_ok()


def test_cut_with_session_premise_infers_protocol():
    body = cut(
        receive_value_from(
            Z, lambda v: wait(Z, terminate()) if v == 3 else wait(Z, terminate())
        ),
        int_provider(3),
    )
    run(run_session(session(End, body)))


def test_cut_without_inference_requires_annotation():
    opaque = receive_value(lambda v: terminate())  # protocol not synthesizable
    with pytest.raises(ProtocolError, match="cannot infer"):
        session(End, cut(wait(Z, terminate()), opaque))


def test_cut_with_explicit_annotation():
    body = cut(
        wait(Z, terminate()),
        terminate(),
        provider_protocol=End,
    )
    run(run_session(session(End, body)))


def test_cut_premise_context_mismatch():
    with pytest.raises(LinearityError, match="longer than"):
        session(
            End,
            cut(
                wait(Z, terminate()),
                terminate(),
                provider_protocol=End,
                provider_context=(End, ()),
            ),
        )


# -- include_session -------------------------------------------------------


def test_include_session_hands_out_sequential_lenses():
    seen = []

    def chain(depth):
        def inner(lens):
            seen.append(lens.level)
            if lens.level == depth - 1:
                return unwind(depth)
            return include_session(end_provider(), inner_next(depth))

        return inner

    def inner_next(depth):
        def inner(lens):
            seen.append(lens.level)
            if lens.level == depth - 1:
                return unwind(depth)
            return include_session(end_provider(), inner_next(depth))

        return inner

    def unwind(depth):
        prog = terminate()
        for level in reversed(range(depth)):
            prog = wait(nat(level), prog)
        return prog

    run(run_session(session(End, include_session(end_provider(), chain(4)))))
    assert seen == [0, 1, 2, 3]


def test_include_session_requires_checked_session():
    with pytest.raises(ProtocolError, match="checked Session"):
        include_session(terminate(), lambda x: wait(x, terminate()))


def test_include_then_wait_completes():
    body = include_session(end_provider(), lambda x: wait(x, terminate()))
    run(run_session(session(End, body)))


def test_a_run_forgets_finished_tasks():
    live = []

    def include_next(left):
        def received(p):
            def then(v):
                if left > 1:
                    return wait(p, include_next(left - 1))
                live.append(len(sessia.runtime.current_run().tasks))
                return wait(p, terminate())

            return receive_value_from(p, then)

        return include_session(int_provider(left), received)

    run(run_session(session(End, include_next(1_000))))
    assert len(live) == 1 and live[0] <= 3


# -- a rejected async continuation leaves only the ProtocolError --------------


def channel_provider():
    """Offers SendChannel(End, End): hands over an included End channel."""
    return session(
        SendChannel(End, End),
        include_session(end_provider(), lambda e: send_channel_from(e, terminate())),
    )


WITH_CONTINUATION = {
    "include_session": lambda cont: session(End, include_session(end_provider(), cont)),
    "receive_channel": lambda cont: session(
        ReceiveChannel(End, End), receive_channel(cont)
    ),
    "receive_channel_from": lambda cont: session(
        End,
        include_session(channel_provider(), lambda p: receive_channel_from(p, cont)),
    ),
}


@pytest.mark.parametrize("rule", sorted(WITH_CONTINUATION))
def test_an_async_continuation_is_rejected_without_a_warning(rule):
    async def cont(lens):
        return terminate()

    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        with pytest.raises(
            ProtocolError, match=f"{rule} continuation: expected a session program"
        ):
            WITH_CONTINUATION[rule](cont)
        gc.collect()
    assert [str(w.message) for w in caught] == []


# -- forward ----------------------------------------------------------------


def test_forward_relays_the_session_unchanged():
    # a middle process forwarding a value provider is invisible to a client
    def middle():
        return session(
            SendValue(int, End),
            include_session(int_provider(42), lambda x: forward(x)),
        )

    def consume(source):
        def on_value(value):
            record_event("RECV", value)
            return wait(Z, terminate())

        return session(
            End, include_session(source, lambda x: receive_value_from(x, on_value))
        )

    with recording() as direct:
        run(run_session(consume(int_provider(42))))
    with recording() as forwarded:
        run(run_session(consume(middle())))
    assert direct.transcript.lines() == forwarded.transcript.lines()
    assert forwarded.conservation_ok()


def test_forward_requires_matching_protocol():
    with pytest.raises(ProtocolError, match="forward"):
        session(
            End,
            include_session(int_provider(1), lambda x: forward(x)),
        )


def test_forward_requires_all_other_slots_consumed():
    def body(a):
        return include_session(int_provider(1), lambda b: forward(b))

    with pytest.raises(LinearityError, match="forward requires every other slot"):
        session(
            ReceiveChannel(SendValue(int, End), SendValue(int, End)),
            receive_channel(body),
        )


# -- apply_channel -----------------------------------------------------------


def test_apply_channel_runs_the_hello_pair(capsys):
    client, provider = hello_pair()
    run(run_session(apply_channel(client, provider)))
    assert capsys.readouterr().out == "Hello, Alice\n"


def test_apply_channel_with_other_value(capsys):
    client, provider = hello_pair("Bob")
    run(run_session(apply_channel(client, provider)))
    assert capsys.readouterr().out == "Hello, Bob\n"


def test_apply_channel_equals_cut_derivation(capsys):
    client, provider = hello_pair()
    run(run_session(apply_channel(client, provider)))
    direct = capsys.readouterr().out
    client, provider = hello_pair()
    run(run_session(apply_channel_via_cut(client, provider)))
    derived = capsys.readouterr().out
    assert direct == derived == "Hello, Alice\n"


def test_apply_channel_rejects_protocol_mismatch():
    client, _ = hello_pair()
    with pytest.raises(ProtocolError, match="expects"):
        apply_channel(client, int_provider(1))


def test_apply_channel_requires_receive_channel():
    with pytest.raises(ProtocolError, match="ReceiveChannel"):
        apply_channel(int_provider(1), end_provider())


def test_apply_channel_requires_closed_programs():
    with pytest.raises(ProtocolError, match="checked Session"):
        apply_channel(receive_channel(lambda a: wait(a, terminate())), end_provider())


# -- conservation and one-shot accounting -------------------------------------


def test_hello_run_conserves_endpoints():
    with recording() as rec:
        client, provider = hello_pair()
        run(run_session(apply_channel(client, provider)))
    assert rec.conservation_ok()
    assert rec.one_shot_ok()
    assert rec.counters.polarity_violations == 0


def test_every_executor_and_continuation_ran_once():
    with recording() as rec:
        body = include_session(int_provider(9), _consume_and_close)
        run(run_session(session(End, body)))
    assert rec.one_shot_ok()
    assert rec.counters.executors == {
        "include_session": 1,
        "receive_value_from": 1,
        "send_value": 1,
        "terminate": 2,
        "wait": 1,
    }
    assert rec.counters.continuations == {"include_session": 1, "receive_value_from": 1}


def test_a_checked_program_is_its_own_step():
    p = terminate()
    assert p._resolve([], End) is p

    async def produce():
        return 0, stream_producer(1)

    # rolling adds no step: the checked premise is the step
    body = offer_choice(send_value_async(produce), terminate())
    assert fix_session(body)._resolve([], CounterStream) is body


def test_driver_runs_an_executor_once_and_only_with_a_sender():
    async def main():
        executor = end_provider()._resolve((), End)
        sender, receiver = channel()
        await run_program(executor, sender)
        assert await receiver.recv() is END
        with pytest.raises(RuntimeViolation, match="terminate: executor invoked twice"):
            await run_program(executor, channel()[0])
        _, wrong_end = channel()
        with pytest.raises(RuntimeViolation, match="provider-side sending endpoint"):
            await run_program(end_provider()._resolve((), End), wrong_end)

    with recording() as rec:
        run(main())
    assert rec.counters.polarity_violations == 1


def test_recorder_names_tasks_whose_ids_are_reused():
    # each task has finished before the next starts, so CPython may give
    # the next one the same id
    async def one(k):
        record_event("RECV", k)

    async def main():
        for k in range(50):
            await asyncio.get_running_loop().create_task(one(k))

    with recording() as rec:
        asyncio.run(main())
    assert len({event.task for event in rec.transcript}) == 50


def _consume_and_close(x):
    return receive_value_from(x, lambda v: wait(x, terminate()))


def test_terminate_in_context_of_consumed_slots():
    # (Empty, ()) is an empty context: terminate is accepted there
    body = include_session(end_provider(), lambda x: wait(x, terminate()))
    run(run_session(session(End, body)))


# -- the user-supplied provider context is validated once, at cut ------------


@pytest.mark.parametrize(
    "provider_context, text",
    [((End, End), "cut: malformed context End"), (("x", ()), "cut: 'x' is not a Slot")],
)
def test_cut_rejects_a_malformed_provider_context_at_check_time(
    provider_context, text
):
    program = include_session(
        end_provider(),
        lambda a: cut(
            wait(nat(0), terminate()),
            terminate(),
            provider_protocol=End,
            provider_context=provider_context,
        ),
    )
    with recording() as rec:
        with pytest.raises(ProtocolError) as raised:
            session(End, program)
    assert str(raised.value) == text
    assert rec.counters.endpoints_created == 0


@pytest.mark.parametrize(
    "provider_context, error, text",
    [
        ((End, End), ProtocolError, "cut: malformed context End"),
        (
            (End, ()),
            LinearityError,
            "a closed session cannot run in the non-empty context",
        ),
    ],
)
def test_cut_checks_the_provider_context_of_a_checked_session(
    provider_context, error, text
):
    program = include_session(
        end_provider(),
        lambda a: cut(
            wait(Z, terminate()), end_provider(), provider_context=provider_context
        ),
    )
    with pytest.raises(error) as raised:
        session(End, program)
    assert str(raised.value).startswith(text)


def test_cut_hands_the_provider_the_tail_of_the_context():
    # slot 0 stays with the client, slot 1 moves to the provider of slot 2
    def provider_body():
        def on_value(v):
            record_event("RECV", f"provider {v}")
            return wait(Z, terminate())

        return receive_value_from(Z, on_value)

    def client(a, b):
        def on_value(v):
            record_event("RECV", f"client {v}")
            return wait(a, wait(nat(1), terminate()))

        return cut(
            receive_value_from(a, on_value),
            provider_body(),
            provider_protocol=End,
            provider_context=(SendValue(int, End), ()),
        )

    program = include_session(
        int_provider(1), lambda a: include_session(int_provider(2), lambda b: client(a, b))
    )
    with recording() as rec:
        run(run_session(session(End, program)))
    assert sorted(rec.transcript.values("RECV")) == ["client 1", "provider 2"]
    assert rec.conservation_ok() and rec.one_shot_ok()


def fanout_client(width):
    """Include `width` SendValue(int, End) providers, then drain each."""

    def drain(level):
        if level == width:
            return terminate()
        lens = nat(level)
        return receive_value_from(lens, lambda v: wait(lens, drain(level + 1)))

    def include(level):
        if level == width:
            return drain(0)
        return include_session(int_provider(level), lambda lens: include(level + 1))

    return include(0)


@pytest.mark.parametrize("protocol", ["End", 5])
def test_cut_validates_a_user_supplied_provider_protocol(protocol):
    with pytest.raises(ProtocolError) as raised:
        session(End, cut(wait(Z, terminate()), terminate(), provider_protocol=protocol))
    assert str(raised.value) == f"cut: expected a session type, got {protocol!r}"


def test_offered_protocols_are_not_validated_again_per_construct():
    # Forming a protocol validates its fields. No construct calls
    # `check_protocol` again for a protocol it accepts, through any module's
    # binding: `session` tests the protocol its caller hands it inline, for
    # the client and each of the 64 providers it includes.
    code, calls = sessia.protocols.check_protocol.__code__, []
    formation = sessia.protocols.Protocol.__post_init__.__code__

    def profile(frame, event, arg):
        if event == "call" and frame.f_code is code:
            if frame.f_back.f_code is not formation:
                calls.append(frame.f_locals["who"])

    sys.setprofile(profile)
    try:
        checked = session(End, fanout_client(64))
    finally:
        sys.setprofile(None)
    assert calls == []
    # It is called only to reject, with its own text.
    with pytest.raises(ProtocolError) as raised:
        session("End", terminate())
    assert str(raised.value) == "session: expected a session type, got 'End'"
    with recording() as rec:
        run(run_session(checked))
    assert rec.conservation_ok() and rec.one_shot_ok()


def test_library_built_contexts_are_not_validated_again(monkeypatch):
    calls = []
    validate = sessia.core.validate_context

    def counting(c, who="context"):
        calls.append(who)
        validate(c, who)

    monkeypatch.setattr(sessia.core, "validate_context", counting)
    checked = session(End, fanout_client(64))
    assert calls == []
    session(
        End,
        include_session(
            end_provider(),
            lambda a: cut(
                wait(Z, terminate()),
                wait(Z, terminate()),
                provider_protocol=End,
                provider_context=(End, ()),
            ),
        ),
    )
    assert calls == ["cut"]
    with recording() as rec:
        run(run_session(checked))
    assert rec.conservation_ok() and rec.one_shot_ok()


def test_cut_infers_the_protocol_of_a_chain_of_sends():
    seen = []

    def take(v):
        seen.append(v)
        return receive_value_from(Z, lambda w: seen.append(w) or wait(Z, terminate()))

    provider = send_value(1, send_value("a", terminate()))
    run(run_session(session(End, cut(receive_value_from(Z, take), provider))))
    assert seen == [1, "a"]


# -- continuation rules, with a synchronous or an asynchronous continuation ---


class Boom(Exception):
    pass


def user_continuation(kind, outcome, program, calls):
    """A continuation that notes its run and arguments, then returns
    `program(*args)` or raises Boom; `kind` says whether it is a coroutine
    function that first yields to the event loop."""

    def body(*args):
        calls.append((sessia.runtime.current_run(), args))
        if outcome == "raises":
            raise Boom(*args)
        return program(*args)

    async def async_body(*args):
        await asyncio.sleep(0)
        return body(*args)

    return body if kind == "sync" else async_body


def receive_value_case(cont, seen):
    provider = session(ReceiveValue(int, End), receive_value(cont(lambda v: terminate())))
    return include_session(provider, lambda p: send_value_to(p, 5, wait(p, terminate())))


def receive_value_from_case(cont, seen):
    def client(p):
        return receive_value_from(p, cont(lambda v: seen.append(v) or wait(p, terminate())))

    return include_session(int_provider(5), client)


def send_value_async_case(cont, seen):
    produce = cont(lambda: (5, terminate()))
    provider = session(SendValue(int, End), send_value_async(produce))
    return include_session(
        provider,
        lambda p: receive_value_from(p, lambda v: seen.append(v) or wait(p, terminate())),
    )


# Each case: the closed program around the rule, and the arguments its
# continuation gets.
CONTINUATION_CASES = {
    "receive_value": (receive_value_case, (5,)),
    "receive_value_from": (receive_value_from_case, (5,)),
    "send_value_async": (send_value_async_case, ()),
}


@pytest.mark.parametrize("outcome", ["returns", "raises"])
@pytest.mark.parametrize("kind", ["sync", "async"])
@pytest.mark.parametrize("rule", sorted(CONTINUATION_CASES))
def test_a_continuation_rule_runs_a_sync_or_async_continuation(rule, kind, outcome):
    build, args = CONTINUATION_CASES[rule]
    calls, seen = [], []
    program = session(
        End, build(lambda then: user_continuation(kind, outcome, then, calls), seen)
    )
    with recording() as rec:
        if outcome == "returns":
            run(run_session(program))
        else:
            with pytest.raises(Boom):
                run(run_session(program))
    [(the_run, called_with)] = calls
    assert called_with == args
    assert rec.counters.continuations[rule] == 1
    if outcome == "returns":
        assert (rec.conservation_ok(), rec.one_shot_ok()) == (True, True)
        assert seen == ([] if rule == "receive_value" else [5])
    else:
        assert isinstance(the_run.failure, Boom)
    assert not the_run.tasks  # every driver of the run has ended


# -- one object per construct -------------------------------------------------


def reachable_from(root):
    """Every object reachable from `root` through `gc.get_referents`, short of
    classes, modules and what a function refers to (its globals among it)."""
    seen, stack, found = set(), [root], []
    while stack:
        obj = stack.pop()
        if id(obj) in seen or isinstance(obj, (type, types.ModuleType)):
            continue
        seen.add(id(obj))
        found.append(obj)
        if not isinstance(obj, types.FunctionType):
            stack.extend(gc.get_referents(obj))
    return found


@pytest.mark.parametrize(
    "checked",
    [
        lambda: session(SendValue(int, End), send_value(3, terminate())),
        lambda: session(
            End, include_session(end_provider(), lambda x: wait(x, terminate()))
        ),
    ],
    ids=["send_value", "include_session-wait"],
)
def test_a_checked_program_holds_no_closure(checked):
    found = reachable_from(checked())
    assert [obj for obj in found if isinstance(obj, types.CellType)] == []
    functions = [obj for obj in found if isinstance(obj, types.FunctionType)]
    assert functions and [f for f in functions if f.__closure__] == []
