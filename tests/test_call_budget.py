"""Call budgets of the hot paths, counted rather than timed.

`sys.setprofile` counts every call into a function defined in the `sessia`
package, a coroutine resumed included, and into code generated at run time
in a `sessia` module's namespace, such as a dataclass's `__eq__`, whose
file is "<string>". Each budget is the difference of two runs' counts, one
twice as long as the other, so the set-up both runs share cancels out.
The counts do not depend on the host's speed. A budget that fails names
the ten functions with the most calls per unit, so that a log shows what
grew.
"""

import asyncio
import os
import sys
from collections import Counter

import sessia
from sessia import (
    End,
    ExternalChoice,
    Fix,
    InternalChoice,
    ReceiveChannel,
    ReceiveValue,
    RuntimeViolation,
    SendValue,
    Z,
    accept_shared_session,
    apply_channel,
    case,
    choose_left,
    choose_right,
    detach_shared_session,
    fix_session,
    forward,
    include_session,
    nat,
    offer_choice,
    offer_left,
    receive_channel,
    receive_value,
    receive_value_from,
    run_session,
    run_shared_session,
    send_value,
    send_value_async,
    session,
    shared_session,
    terminate,
    unfix_session_for,
    wait,
)
from sessia.demos import (
    SharedCounter,
    counter_pair,
    shared_counter_client,
    shared_counter_provider,
)

PACKAGE = os.path.dirname(sessia.__file__) + os.sep


def calls_into_sessia(run) -> Counter:
    """Calls into `sessia` made by `run()`, per function."""
    calls = Counter()

    def profile(frame, event, arg):
        code = frame.f_code
        if event == "call" and (
            code.co_filename.startswith(PACKAGE)
            or code.co_filename == "<string>"
            and frame.f_globals.get("__name__", "").startswith("sessia.")
        ):
            calls[code] += 1

    sys.setprofile(profile)
    try:
        run()
    finally:
        sys.setprofile(None)
    return calls


def assert_within_budget(run, units: int, budget: float, uncounted=()) -> Counter:
    """Calls per unit of `run(n)`, from runs of `units` and twice as many,
    must stay within `budget`; calls of the functions in `uncounted` are
    left out. Returns the calls per unit, per function."""
    once = calls_into_sessia(lambda: run(units))
    twice = calls_into_sessia(lambda: run(2 * units))
    per_unit = Counter({
        code: (twice[code] - once[code]) / units
        for code in twice
        if code not in uncounted
    })
    total = sum(per_unit.values())
    top = "\n".join(
        f"  {calls:8.2f}  {code.co_name} ({os.path.basename(code.co_filename)}:"
        f"{code.co_firstlineno})"
        for code, calls in per_unit.most_common(10)
    )
    assert total <= budget, (
        f"{total:.2f} calls per unit, over the budget of {budget}; the most "
        f"called functions per unit:\n{top}"
    )
    return per_unit


def stream(values: int) -> None:
    asyncio.run(run_session(counter_pair(0, values)))


def shared_ops(ops: int) -> None:
    async def main():
        async with run_shared_session(shared_counter_provider(0)) as chan:
            for _ in range(ops):
                await run_session(shared_counter_client(chan))

    asyncio.run(main())


def fanout(width: int) -> None:
    """Build, check and run one client that includes `width` checked
    `SendValue(int, End)` providers, then receives from and waits on each."""
    protocol = SendValue(int, End)
    providers = [session(protocol, send_value(k, terminate())) for k in range(width)]
    program = terminate()
    for lens in reversed([nat(k) for k in range(width)]):
        program = receive_value_from(lens, lambda value, then=wait(lens, program): then)
    for provider in reversed(providers):
        program = include_session(provider, lambda lens, body=program: body)
    asyncio.run(run_session(session(End, program)))


def test_a_stream_value_stays_within_its_call_budget():
    # About 106 calls when every driver was a coroutine stepping `drive`; 68.9
    # once the scheduler steps checked programs itself; 60.9 once contexts and
    # endpoints are lists updated in place and value checks are tested inline;
    # 58.9 once a continuation is called from its rule's own slot; 47.0 once
    # a step message, a wake-up, a lens wait and a spawn cost no helper call;
    # 37.0 once each rule's check is its one `_resolve` frame; 35.0 once a
    # run-time continuation's program is checked in its rule's `_received`
    # and `session` makes its `Session` with no `__init__` frame; 34.04 once
    # `choose_left` and `choose_right` are rule classes, not functions that
    # call one.
    assert_within_budget(stream, 100, 35)


def test_an_uncontended_shared_op_stays_within_its_call_budget():
    # 147.0 calls when an acquire and its section were coroutines; 99.94 once
    # the scheduler stepped checked programs; 92.94 with in-place contexts;
    # 90.94 once a continuation is called from its rule's own slot; 73.0 once
    # a step message, a wake-up, a lens wait, a spawn and an event cost no
    # helper call; 64.0 once each rule's check is its one `_resolve` frame;
    # 59.0 once a check-time continuation is called in its rule's `_resolve`,
    # `session` makes its `Session` with no `__init__` frame and `terminate`
    # and `detach` call `live_slot` only to reject; 57.0 once `shared_session`
    # makes its `SharedSession` with no `__init__` frame, and `detach` and
    # `run_shared_session` take its program in their own frames.
    assert_within_budget(shared_ops, 50, 58)


def sleeping_counter(value: int):
    """A shared counter whose every section awaits the event loop once."""

    async def produce():
        await asyncio.sleep(0)
        return value, detach_shared_session(sleeping_counter(value + 1))

    return shared_session(SharedCounter, accept_shared_session(send_value_async(produce)))


def contended_shared_ops(ops: int) -> None:
    """`ops` shared ops, taken in turn by four clients in tasks of their
    own, on a counter whose sections yield: an acquire made while another
    client's section waits for the loop queues."""

    async def client(chan):
        for _ in range(ops // 4):
            await run_session(shared_counter_client(chan))

    async def main():
        async with run_shared_session(sleeping_counter(0)) as chan:
            await asyncio.gather(*(client(chan) for _ in range(4)))

    asyncio.run(main())


def test_a_contended_shared_op_stays_within_its_call_budget():
    # 64.0 calls per op when this budget was set, 7.0 more than an
    # uncontended op, 2.0 of them in `SharedChannel._turn`, where a queued
    # acquire waited on a future; 62.0 once a queued acquire parks its driver
    # on the channel and the release readies it through `RunContext._resume`.
    per_op = assert_within_budget(contended_shared_ops, 40, 63)
    # In this workload only a queued acquire's hand-off readies a driver
    # through `_resume`, so some acquire queued.
    assert per_op[sessia.runtime.RunContext._resume.__code__] > 0


def parked_then_failed(width: int) -> None:
    """One run that includes `width` `ReceiveValue(int, End)` providers, each
    of which parks on its receive, then a provider whose producer raises:
    `RunContext.fail` cancels every parked driver."""

    def explode():
        raise RuntimeError("provider exploded")

    parked = [
        session(ReceiveValue(int, End), receive_value(lambda value: terminate()))
        for _ in range(width)
    ]
    program = include_session(
        session(SendValue(int, End), send_value_async(explode)),
        lambda failing: receive_value_from(failing, lambda value: terminate()),
    )
    for provider in parked:
        program = include_session(provider, lambda lens, body=program: body)
    try:
        asyncio.run(run_session(session(End, program)))
    except RuntimeError as exc:
        assert str(exc) == "provider exploded"
    else:
        raise AssertionError("the run did not fail")


def test_a_run_failing_over_its_parked_drivers_stays_within_its_call_budget():
    # 17.03 calls per parked driver, here and at the parent, when this budget
    # was set: its build, check, include and park, and the cancel by which
    # the failing run's `fail` readies it to raise at its wait. The lens
    # values of both runs' levels are formed first, so that neither run's
    # count depends on how far earlier tests grew `context._nats`.
    nat(2 * 32 + 1)
    assert_within_budget(parked_then_failed, 32, 18)


def queued_then_failed(width: int) -> None:
    """A shared process whose held section fails at a gate while `width`
    acquirers, each in a run of its own, wait in its queue: each is refused
    with "already failed"."""

    async def main():
        gate = asyncio.Event()

        async def produce():
            await gate.wait()
            raise RuntimeError("section exploded")

        failing = shared_session(
            SharedCounter, accept_shared_session(send_value_async(produce))
        )
        chan = run_shared_session(failing)
        holder = asyncio.ensure_future(run_session(shared_counter_client(chan)))
        while chan.program is not None:
            await asyncio.sleep(0)
        queued = [
            asyncio.ensure_future(run_session(shared_counter_client(chan)))
            for _ in range(width)
        ]
        while len(chan.requests) < width:
            await asyncio.sleep(0)
        gate.set()
        held, *refused = await asyncio.gather(holder, *queued, return_exceptions=True)
        assert str(held) == "section exploded"
        assert all(
            isinstance(exc, RuntimeViolation)
            and "already failed before this acquire was served" in str(exc)
            for exc in refused
        )

    asyncio.run(main())


def test_a_shared_process_failing_over_its_queue_stays_within_its_call_budget():
    # 26.0 calls per queued acquirer while a queued acquire waited on a
    # future in a `_turn` coroutine; 24.0 once it parks its driver on the
    # channel, and the process's failure readies it through `_resume`.
    assert_within_budget(queued_then_failed, 32, 25)


def test_a_value_that_wakes_an_idle_run_stays_within_its_call_budget():
    # 40.0 calls per value when this budget was set, 5.96 more than a value
    # of `stream`. Each value's producer sleeps on a timer, so the run, with
    # no driver ready, idles until the timer's future readies the producer's
    # driver and wakes the run.
    per_value = assert_within_budget(
        lambda values: asyncio.run(run_session(counter_pair(0, values, delay_ms=1))),
        50,
        41,
    )
    assert per_value[sessia.runtime.RunContext._wake.__code__] >= 1  # woken


def test_an_included_provider_stays_within_its_call_budget():
    # 48.06 calls per provider while continuations were wrapped in a one-shot
    # object; 45.06 once they are called from their rule's own slot, a closed
    # session is linked by identity first and an empty context is not scanned;
    # 36.06 once a step message, a lens wait and a spawn cost no helper call
    # and `session` tests its protocol inline; 27.06 once each rule's check
    # is its one `_resolve` frame; 23.06 once `include_session` calls its
    # continuation and links its provider in its own `_resolve`, `session`
    # makes its `Session` with no `__init__` frame and a value continuation's
    # program is checked in its rule's `_received`.
    assert_within_budget(fanout, 32, 25)


def forward_chain(relays: int):
    """A closed program that waits on an `End` provider behind `relays`
    `forward`s, each in a session of its own that includes the one before."""
    provider = session(End, terminate())
    for _ in range(relays):
        provider = session(End, include_session(provider, forward))
    return session(End, include_session(provider, lambda lens: wait(lens, terminate())))


def case_chain(cases: int):
    """`cases` sessions, each of which includes the one before and an
    `InternalChoice(End, End)` provider, takes the branch the provider
    announces with `case`, then waits on both."""
    choice, inner = InternalChoice(End, End), session(End, terminate())
    for _ in range(cases):
        provider = session(choice, offer_left(terminate()))

        def body(done, provider=provider):
            return include_session(provider, lambda c: case(
                c, wait(c, wait(done, terminate())), wait(c, wait(done, terminate()))
            ))

        inner = session(End, include_session(inner, body))
    return inner


def test_a_forward_relay_step_stays_within_its_call_budget():
    # Run only: the chains are built and checked before they are counted.
    # 8.04 calls per relay while `forward` had a `_step` of its own, which
    # returned the wait at its lens; 7.04 once the scheduler waits itself.
    built = {relays: forward_chain(relays) for relays in (50, 100)}
    assert_within_budget(
        lambda relays: asyncio.run(run_session(built[relays])), 50, 7.04
    )


def test_a_case_step_stays_within_its_call_budget():
    # Run only, as above. Each unit also spawns two providers and takes two
    # `wait`s. 20.08 calls per `case` while it had a `_step` of its own;
    # 19.08 once the scheduler waits at its lens itself.
    built = {cases: case_chain(cases) for cases in (50, 100)}
    assert_within_budget(
        lambda cases: asyncio.run(run_session(built[cases])), 50, 19.08
    )


# A rule's call of a user continuation, which the chains below leave out:
# it is the continuation's cost, counted once per continuation, not the
# check's.
CONTINUATION_CALL = {sessia.core.ContRule._call_cont.__code__}


def send_value_chain(length: int):
    """A provider of `length` `send_value`s, and the protocol it offers."""
    protocol, program = End, terminate()
    for k in range(length):
        protocol, program = SendValue(int, protocol), send_value(k, program)
    return protocol, program


def wait_chain(length: int):
    """A closed program of `length` constructs, and its protocol: it includes
    `length // 3` checked `End` providers, each a construct, then waits on
    each."""
    width = length // 3
    providers = [session(End, terminate()) for _ in range(width)]
    program = terminate()
    for lens in reversed([nat(k) for k in range(width)]):
        program = wait(lens, program)
    for provider in reversed(providers):
        program = include_session(provider, lambda lens, body=program: body)
    return End, program


def test_checking_a_construct_costs_one_call():
    # Each rule's check is its `_resolve`, one frame: 2.0 calls a `send_value`
    # and 2.67 a construct of the `wait` chain while a generic check frame
    # called a frame of the rule's own. The chains are built before they are
    # counted.
    for chain in (send_value_chain, wait_chain):
        built = {length: chain(length) for length in (150, 300)}
        assert_within_budget(
            lambda length: session(*built[length]), 150, 1.0, CONTINUATION_CALL
        )


def test_including_a_checked_provider_costs_its_rules_frames_only():
    # Everything counted, the continuation's call included: an include and
    # its `wait`, two frames. 4.0 calls per include while the continuation
    # was called through `_call_cont` and the provider linked through
    # `Session._resolve`.
    built = {includes: wait_chain(3 * includes) for includes in (50, 100)}
    assert_within_budget(lambda includes: session(*built[includes]), 50, 2.0)


def counter_stream():
    """The counter stream protocol, formed anew at each call."""
    return Fix(ExternalChoice(SendValue(int, Z), End))


def separately_annotated_stream(values: int) -> None:
    """Check and run `counter_pair(0, values)`'s pair, with every `session`
    annotation and the client's `ReceiveChannel` given a counter stream
    protocol formed on its own."""

    def producer(value):
        async def produce():
            return value, producer(value + 1)

        body = offer_choice(send_value_async(produce), terminate())
        return session(counter_stream(), fix_session(body))

    def step(stream, remaining):
        if remaining == 0:
            return unfix_session_for(stream, choose_right(stream, wait(stream, terminate())))
        taken = receive_value_from(stream, lambda value: step(stream, remaining - 1))
        return unfix_session_for(stream, choose_left(stream, taken))

    client = session(
        ReceiveChannel(counter_stream(), End),
        receive_channel(lambda stream: step(stream, values)),
    )
    asyncio.run(run_session(apply_channel(client, producer(0))))


def test_equal_protocols_are_compared_with_no_call():
    # Protocols are hash-consed: two formed apart keep one node, `_canon`,
    # and every check compares protocols by that node's identity, with no
    # call. While they were
    # dataclasses, compared field by field, the stream pair taking one value
    # made 10 calls of generated `__eq__` methods: 3 in `apply_channel`, 4
    # in `send_channel_to` and 3 in the next producer's check, one level of
    # the protocol each. A shared op made 1, in `detach_shared_session`.
    for run in (lambda: separately_annotated_stream(1), lambda: shared_ops(1)):
        equality = Counter()
        for code, count in calls_into_sessia(run).items():
            if code.co_name in ("__eq__", "__ne__", "__hash__"):
                equality[f"{code.co_name} ({code.co_filename})"] += count
        assert equality == Counter()
