import asyncio
import gc

import pytest

from conftest import run
from sessia import (
    End,
    ExternalChoice,
    LinearityError,
    LinearToShared,
    ProtocolError,
    RuntimeViolation,
    SendValue,
    SharedToLinear,
    SharedTypeError,
    Z,
    accept_shared_session,
    acquire_shared_session,
    detach_shared_session,
    include_session,
    nat,
    offer_choice,
    receive_value_from,
    record_event,
    recording,
    release_shared_session,
    run_session,
    run_shared_session,
    send_value,
    send_value_async,
    session,
    shared_session,
    shared_type_apply,
    terminate,
    wait,
)
from sessia.demos import (
    SharedCounter,
    canvas_demo,
    shared_counter_client,
    shared_counter_demo,
    shared_counter_provider,
)


# -- shared type formation ---------------------------------------------------


def test_shared_body_unrolls_to_release_step():
    unrolled = SharedCounter.unroll()
    assert unrolled == SendValue(int, SharedToLinear(SendValue(int, Z)))


def test_shared_unrolling_is_memoised_on_the_node():
    p = LinearToShared(SendValue(int, Z))
    assert p.unroll() is p.unroll()
    assert p.unroll() == shared_type_apply(p.body, SharedToLinear(p.body))
    assert p == SharedCounter and hash(p) == hash(SharedCounter)


def test_shared_type_apply_rejects_end_leaf():
    with pytest.raises(SharedTypeError, match="strictly equi-synchronizing"):
        shared_type_apply(SendValue(int, End), SharedToLinear(End))


def test_linear_to_shared_rejects_terminating_body():
    with pytest.raises(SharedTypeError, match="strictly equi-synchronizing"):
        LinearToShared(SendValue(int, End))


def test_linear_to_shared_rejects_end_body():
    with pytest.raises(SharedTypeError, match="strictly equi-synchronizing"):
        LinearToShared(End)


def test_linear_to_shared_rejects_inner_release_step():
    # a release to some other shared type is not the body's own release point
    with pytest.raises(SharedTypeError, match="strictly equi-synchronizing"):
        LinearToShared(SendValue(int, SharedToLinear(SendValue(int, Z))))


# -- accept / detach typing ----------------------------------------------------


def test_accept_body_that_never_detaches_is_rejected():
    # the body's offered type can never reach the release step
    with pytest.raises(ProtocolError, match="terminate offers End"):
        shared_session(
            SharedCounter,
            accept_shared_session(send_value(0, terminate())),
        )


def test_accept_with_out_of_range_lens_is_rejected():
    with pytest.raises(Exception, match="out of range"):
        shared_session(
            SharedCounter,
            accept_shared_session(send_value(0, wait(nat(1), terminate()))),
        )


def test_detach_requires_lock_at_slot_zero():
    # a detach outside a critical section has no lock in its context
    with pytest.raises(ProtocolError, match="critical-section lock"):
        session(
            SharedToLinear(SendValue(int, Z)),
            detach_shared_session(shared_counter_provider(0)),
        )


def test_detach_requires_matching_shared_continuation():
    # a provider that tries to continue at a different shared type is
    # rejected when its critical section is served
    other = LinearToShared(SendValue(str, Z))

    def other_provider():
        async def produce():
            return "x", detach_shared_session(other_provider())

        return shared_session(other, accept_shared_session(send_value_async(produce)))

    def mismatched_provider():
        async def produce():
            return 0, detach_shared_session(other_provider())

        return shared_session(
            SharedCounter, accept_shared_session(send_value_async(produce))
        )

    async def main():
        chan = run_shared_session(mismatched_provider())
        state = chan._state
        with pytest.raises(ProtocolError, match="continuation offers"):
            await run_session(shared_counter_client(chan.clone()))
        del chan
        gc.collect()
        await asyncio.wait_for(state.stopped.wait(), 5)
        assert state.failure is not None

    run(main())


def test_detach_expects_a_checked_shared_session():
    with pytest.raises(ProtocolError, match="checked SharedSession"):
        detach_shared_session(terminate())


# -- acquire / release typing ---------------------------------------------------


def test_acquire_requires_a_shared_channel():
    with pytest.raises(ProtocolError, match="expects a SharedChannel"):
        acquire_shared_session(
            session(End, terminate()), lambda c: wait(c, terminate())
        )


def test_release_before_release_point_is_rejected():
    async def main():
        chan = run_shared_session(shared_counter_provider(0))
        try:
            with pytest.raises(ProtocolError, match="not reached its release point"):
                session(
                    End,
                    acquire_shared_session(
                        chan, lambda c: release_shared_session(c, terminate())
                    ),
                )
        finally:
            state = chan._state
            del chan
            gc.collect()
            await asyncio.wait_for(state.stopped.wait(), 5)

    run(main())


def test_released_slot_cannot_be_reused():
    # releasing twice is caught when the continuation is checked; the
    # abandoned critical section then collapses the shared process too
    async def main():
        chan = run_shared_session(shared_counter_provider(0))
        state = chan._state

        def body(c):
            def on_value(v):
                return release_shared_session(
                    c, release_shared_session(c, terminate())
                )

            return receive_value_from(c, on_value)

        prog = session(End, acquire_shared_session(chan.clone(), body))
        del chan
        with pytest.raises(ProtocolError, match="not reached its release point"):
            await run_session(prog)
        gc.collect()
        await asyncio.wait_for(state.stopped.wait(), 5)

    run(main())


# -- runtime behavior ----------------------------------------------------------


def test_shared_counter_two_clients_unique_values():
    transcript = shared_counter_demo(2)
    assert sorted(int(v) for v in transcript.values("RECV")) == [0, 1]


def test_critical_sections_are_disjoint():
    transcript = shared_counter_demo(4)
    intervals = []
    open_acq = {}
    for event in transcript:
        if event.kind == "ACQ":
            open_acq[event.task] = event.seq
        elif event.kind == "REL":
            intervals.append((open_acq.pop(event.task), event.seq))
    assert len(intervals) == 4
    intervals.sort()
    for (a1, r1), (a2, r2) in zip(intervals, intervals[1:]):
        assert r1 < a2  # no overlap, not even touching


def test_fifo_service_order_follows_launch_order():
    transcript = shared_counter_demo(3)
    recvs = [int(v) for v in transcript.values("RECV")]
    assert recvs == [0, 1, 2]  # FIFO queue + fixed launch order


def test_transcripts_reproducible_across_runs():
    lines = [shared_counter_demo(3).lines() for _ in range(3)]
    assert lines[0] == lines[1] == lines[2]


def test_clone_then_drop_original_still_works():
    async def main():
        chan = run_shared_session(shared_counter_provider(0))
        state = chan._state
        clone = chan.clone()
        del chan
        gc.collect()
        await run_session(shared_counter_client(clone))
        del clone
        gc.collect()
        await asyncio.wait_for(state.stopped.wait(), 5)

    with recording() as rec:
        run(main())
    assert rec.transcript.values("RECV") == ["0"]


def test_zero_clients_process_stops_cleanly():
    async def main():
        chan = run_shared_session(shared_counter_provider(0))
        state = chan._state
        del chan
        gc.collect()
        await asyncio.wait_for(state.stopped.wait(), 5)
        assert state.failure is None

    run(main())


def test_two_sequential_acquires_from_one_client_program():
    # one client acquires twice in a row; counts advance across sections
    def client(chan):
        def first(c):
            def on_value(v):
                record_event("RECV", v)
                return release_shared_session(
                    c,
                    acquire_shared_session(chan.clone(), second),
                )

            return receive_value_from(c, on_value)

        def second(c):
            def on_value(v):
                record_event("RECV", v)
                return release_shared_session(c, terminate())

            return receive_value_from(c, on_value)

        return session(End, acquire_shared_session(chan, first))

    async def main():
        chan = run_shared_session(shared_counter_provider(10))
        state = chan._state
        await run_session(client(chan.clone()))
        del chan
        gc.collect()
        await asyncio.wait_for(state.stopped.wait(), 5)

    with recording() as rec:
        run(main())
    assert [int(v) for v in rec.transcript.values("RECV")] == [10, 11]


def test_second_acquire_lens_accounts_for_consumed_slot():
    # acquiring inside a context that still tracks a consumed slot appends
    # the new channel after it
    seen = []

    def client(chan):
        def first(c):
            def on_value(v):
                return release_shared_session(
                    c, acquire_shared_session(chan.clone(), second)
                )

            return receive_value_from(c, on_value)

        def second(c):
            seen.append(c.level)

            def on_value(v):
                return release_shared_session(c, terminate())

            return receive_value_from(c, on_value)

        return session(End, acquire_shared_session(chan, first))

    async def main():
        chan = run_shared_session(shared_counter_provider(0))
        state = chan._state
        await run_session(client(chan.clone()))
        del chan
        gc.collect()
        await asyncio.wait_for(state.stopped.wait(), 5)

    run(main())
    assert seen == [1]


def test_shared_process_failure_propagates_to_acquirers():
    boom = LinearToShared(SendValue(int, Z))

    def bad_provider():
        async def produce():
            raise RuntimeError("provider exploded")

        return shared_session(boom, accept_shared_session(send_value_async(produce)))

    async def main():
        chan = run_shared_session(bad_provider())
        state = chan._state
        with pytest.raises(RuntimeError, match="provider exploded"):
            await run_session(shared_counter_client(chan.clone()))
        del chan
        gc.collect()
        await asyncio.wait_for(state.stopped.wait(), 5)
        assert state.failure is not None

    run(main())


# -- failures reach every party without garbage collection ---------------------


def run_without_gc(coro):
    """Run like `run`, with the cyclic garbage collector switched off."""
    gc.disable()
    try:
        return run(coro)
    finally:
        gc.enable()


def counting_client(chan, seen, after_release=None):
    """Acquire once, note the count, release, then continue with
    `after_release` (default: terminate)."""

    def body(c):
        def on_value(v):
            seen.append(v)
            cont = after_release() if after_release is not None else terminate()
            return release_shared_session(c, cont)

        return receive_value_from(c, on_value)

    return session(End, acquire_shared_session(chan, body))


def include_then_finish(provider):
    """Include a SendValue(int, End) provider, take its value, wait for it."""
    return include_session(
        provider, lambda p: receive_value_from(p, lambda v: wait(p, terminate()))
    )


def test_client_failure_in_section_stops_shared_process_without_gc():
    boom = ValueError("client exploded")

    def failing_client(chan):
        def body(c):
            def on_value(v):
                raise boom

            return receive_value_from(c, on_value)

        return session(End, acquire_shared_session(chan, body))

    async def main():
        chan = run_shared_session(shared_counter_provider(0))
        state = chan._state
        first = asyncio.ensure_future(run_session(failing_client(chan.clone())))
        queued = asyncio.ensure_future(run_session(shared_counter_client(chan.clone())))
        with pytest.raises(ValueError, match="client exploded"):
            await first
        await asyncio.wait_for(state.stopped.wait(), 1)
        assert isinstance(state.failure, RuntimeViolation)
        assert state.failure.__cause__ is boom
        with pytest.raises(
            RuntimeViolation, match="failed before this acquire was served"
        ):
            await asyncio.wait_for(queued, 1)
        assert chan.protocol == SharedCounter  # a clone is still referenced

    run_without_gc(main())


def test_binding_ends_at_release():
    # a run bound to a critical section stops being bound once it has
    # released: its later failure leaves the shared process serving, and a
    # later failure of the shared process leaves the run alone
    def explodes_when_run():
        async def produce():
            raise RuntimeError("failed after release")

        return session(SendValue(int, End), send_value_async(produce))

    def fails_on_second_section(value=0):
        async def produce():
            if value > 0:
                raise RuntimeError("provider exploded")
            return value, detach_shared_session(fails_on_second_section(value + 1))

        return shared_session(
            SharedCounter, accept_shared_session(send_value_async(produce))
        )

    async def client_fails_after_release():
        chan = run_shared_session(shared_counter_provider(0))
        state = chan._state
        seen = []
        failing = counting_client(
            chan.clone(), seen, lambda: include_then_finish(explodes_when_run())
        )
        with pytest.raises(RuntimeError, match="failed after release"):
            await run_session(failing)
        await asyncio.wait_for(run_session(counting_client(chan.clone(), seen)), 1)
        assert seen == [0, 1]
        assert not state.stopped.is_set() and state.failure is None

    async def shared_process_fails_after_release():
        chan = run_shared_session(fails_on_second_section())
        state = chan._state
        seen = []
        gate = asyncio.Event()

        def gated():
            async def produce():
                await gate.wait()
                return 0, terminate()

            return session(SendValue(int, End), send_value_async(produce))

        holder = asyncio.ensure_future(
            run_session(
                counting_client(chan.clone(), seen, lambda: include_then_finish(gated()))
            )
        )
        while not seen:
            await asyncio.sleep(0)
        with pytest.raises(RuntimeError, match="provider exploded"):
            await asyncio.wait_for(run_session(counting_client(chan.clone(), seen)), 1)
        await asyncio.wait_for(state.stopped.wait(), 1)
        gate.set()
        await asyncio.wait_for(holder, 1)  # the holder's run is not failed
        assert seen == [0]

    async def main():
        await client_fails_after_release()
        await shared_process_fails_after_release()

    run_without_gc(main())


def test_cancelled_queued_acquirer_is_skipped():
    async def main():
        chan = run_shared_session(shared_counter_provider(0))
        state = chan._state
        seen = []
        inside, leave = asyncio.Event(), asyncio.Event()

        def holder_body(c):
            async def on_value(v):
                seen.append(v)
                inside.set()
                await leave.wait()
                return release_shared_session(c, terminate())

            return receive_value_from(c, on_value)

        holder = asyncio.ensure_future(
            run_session(session(End, acquire_shared_session(chan.clone(), holder_body)))
        )
        await inside.wait()
        queued = asyncio.ensure_future(run_session(counting_client(chan.clone(), seen)))
        while not state.requests:
            await asyncio.sleep(0)
        queued.cancel()
        with pytest.raises(asyncio.CancelledError):
            await queued
        leave.set()
        await asyncio.wait_for(holder, 1)
        await asyncio.wait_for(run_session(counting_client(chan.clone(), seen)), 1)
        assert seen == [0, 1]
        assert state.failure is None

    run_without_gc(main())


def test_outside_cancellation_mid_section_stops_shared_process():
    async def main():
        chan = run_shared_session(shared_counter_provider(0))
        state = chan._state
        never = asyncio.Event()

        def body(c):
            async def on_value(v):
                await never.wait()
                return release_shared_session(c, terminate())

            return receive_value_from(c, on_value)

        client = session(End, acquire_shared_session(chan.clone(), body))
        with pytest.raises(asyncio.TimeoutError):
            await asyncio.wait_for(run_session(client), 0.2)
        await asyncio.wait_for(state.stopped.wait(), 1)
        assert isinstance(state.failure.__cause__, asyncio.CancelledError)
        with pytest.raises(RuntimeViolation, match="already failed"):
            await run_session(shared_counter_client(chan.clone()))

    run_without_gc(main())


# -- a checked shared program is consumed when it is linked --------------------


def test_a_second_run_of_one_shared_session_is_rejected():
    async def main():
        provider = shared_counter_provider(0)
        chan = run_shared_session(provider)
        with pytest.raises(LinearityError, match="already consumed"):
            run_shared_session(provider)
        seen = []
        await asyncio.wait_for(run_session(counting_client(chan.clone(), seen)), 1)
        assert seen == [0]

    run_without_gc(main())


def test_a_detach_that_reuses_the_running_shared_session_fails_its_client():
    async def main():
        entered, gate = asyncio.Event(), asyncio.Event()
        provider = None

        async def produce():
            entered.set()
            await gate.wait()
            return 0, detach_shared_session(provider)

        provider = shared_session(
            SharedCounter, accept_shared_session(send_value_async(produce))
        )
        chan = run_shared_session(provider)
        state = chan._state
        first = asyncio.ensure_future(run_session(counting_client(chan.clone(), [])))
        queued = asyncio.ensure_future(run_session(counting_client(chan.clone(), [])))
        await asyncio.wait_for(entered.wait(), 1)
        while not state.requests:
            await asyncio.sleep(0)
        gate.set()
        with pytest.raises(LinearityError, match="already consumed"):
            await asyncio.wait_for(first, 1)
        await asyncio.wait_for(state.stopped.wait(), 1)
        assert isinstance(state.failure, LinearityError)
        with pytest.raises(
            RuntimeViolation, match="failed before this acquire was served"
        ):
            await asyncio.wait_for(queued, 1)

    run_without_gc(main())


def test_two_branches_cannot_detach_to_one_shared_session():
    Toggle = LinearToShared(ExternalChoice(SendValue(int, Z), SendValue(int, Z)))

    def toggle(value):
        def branch():
            async def produce():
                return value, detach_shared_session(toggle(value + 1))

            return send_value_async(produce)

        return shared_session(
            Toggle, accept_shared_session(offer_choice(branch(), branch()))
        )

    following = toggle(0)
    with pytest.raises(LinearityError, match="already consumed"):
        shared_session(
            Toggle,
            accept_shared_session(
                offer_choice(
                    send_value(0, detach_shared_session(following)),
                    send_value(1, detach_shared_session(following)),
                )
            ),
        )


def test_an_async_acquire_continuation_is_rejected_when_checked():
    async def body(c):
        return release_shared_session(c, terminate())

    async def main():
        chan = run_shared_session(shared_counter_provider(0))
        # the rejected continuation's coroutine is dropped unawaited
        with pytest.warns(RuntimeWarning, match="never awaited"):
            with pytest.raises(
                ProtocolError,
                match="acquire_shared_session continuation: expected a session program",
            ):
                session(End, acquire_shared_session(chan, body))
            gc.collect()

    run(main())


def test_demos_stop_their_shared_process_without_gc(monkeypatch):
    def no_collect(*args):
        raise AssertionError("gc.collect() called")

    monkeypatch.setattr(gc, "collect", no_collect)
    gc.disable()
    try:
        for clients in range(9):
            assert len(shared_counter_demo(clients).values("RECV")) == clients
        assert sorted(canvas_demo().values("RECV")) == [
            "canvas-1 LineTo(10,0)",
            "canvas-1 LineTo(10,10)",
            "canvas-1 MoveTo(0,0)",
            "canvas-2 LineTo(6,7)",
            "canvas-2 MoveTo(5,5)",
            "id 1",
            "id 2",
        ]
    finally:
        gc.enable()
