import asyncio
import gc

import pytest

from conftest import gc_off, run, run_without_gc
from sessia import (
    End,
    ExternalChoice,
    LinearityError,
    LinearToShared,
    ProtocolError,
    RuntimeViolation,
    SendValue,
    SharedSession,
    SharedToLinear,
    SharedTypeError,
    Z,
    accept_shared_session,
    acquire_shared_session,
    cut,
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
from sessia.runtime import current_run


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


def test_shared_session_takes_only_an_unchecked_shared_program():
    # an already checked SharedSession is not a shared program to check
    with pytest.raises(ProtocolError) as raised:
        shared_session(SharedCounter, shared_counter_provider(0))
    assert str(raised.value).startswith("shared_session: expected a shared program")


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
        with pytest.raises(ProtocolError, match="continuation offers"):
            await run_session(shared_counter_client(chan.clone()))
        chan.close()
        await asyncio.wait_for(chan.stopped.wait(), 5)
        assert chan.failure is not None

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
            chan.close()
            await asyncio.wait_for(chan.stopped.wait(), 5)

    run(main())


def test_released_slot_cannot_be_reused():
    # releasing twice is caught when the continuation is checked; the
    # abandoned critical section then collapses the shared process too
    async def main():
        chan = run_shared_session(shared_counter_provider(0))

        def body(c):
            def on_value(v):
                return release_shared_session(
                    c, release_shared_session(c, terminate())
                )

            return receive_value_from(c, on_value)

        prog = session(End, acquire_shared_session(chan.clone(), body))
        with pytest.raises(ProtocolError, match="not reached its release point"):
            await run_session(prog)
        chan.close()
        await asyncio.wait_for(chan.stopped.wait(), 5)

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
        clone = chan.clone()
        del chan
        await run_session(shared_counter_client(clone))
        clone.close()
        await asyncio.wait_for(clone.stopped.wait(), 5)

    with recording() as rec:
        run(main())
    assert rec.transcript.values("RECV") == ["0"]


def test_zero_clients_process_stops_cleanly():
    async def main():
        chan = run_shared_session(shared_counter_provider(0))
        chan.close()
        assert chan.stopped.is_set()
        await asyncio.wait_for(chan.stopped.wait(), 5)
        assert chan.failure is None

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
        await run_session(client(chan.clone()))
        chan.close()
        await asyncio.wait_for(chan.stopped.wait(), 5)

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
        await run_session(client(chan.clone()))
        chan.close()
        await asyncio.wait_for(chan.stopped.wait(), 5)

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
        with pytest.raises(RuntimeError, match="provider exploded"):
            await run_session(shared_counter_client(chan.clone()))
        chan.close()
        await asyncio.wait_for(chan.stopped.wait(), 5)
        assert chan.failure is not None

    run(main())


# -- failures reach every party without garbage collection ---------------------


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
        first = asyncio.ensure_future(run_session(failing_client(chan.clone())))
        queued = asyncio.ensure_future(run_session(shared_counter_client(chan.clone())))
        with pytest.raises(ValueError, match="client exploded"):
            await first
        await asyncio.wait_for(chan.stopped.wait(), 1)
        assert isinstance(chan.failure, RuntimeViolation)
        assert chan.failure.__cause__ is boom
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
        seen = []
        failing = counting_client(
            chan.clone(), seen, lambda: include_then_finish(explodes_when_run())
        )
        with pytest.raises(RuntimeError, match="failed after release"):
            await run_session(failing)
        await asyncio.wait_for(run_session(counting_client(chan.clone(), seen)), 1)
        assert seen == [0, 1]
        assert not chan.stopped.is_set() and chan.failure is None

    async def shared_process_fails_after_release():
        chan = run_shared_session(fails_on_second_section())
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
        await asyncio.wait_for(chan.stopped.wait(), 1)
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
        while not chan.requests:
            await asyncio.sleep(0)
        queued.cancel()
        with pytest.raises(asyncio.CancelledError):
            await queued
        leave.set()
        await asyncio.wait_for(holder, 1)
        await asyncio.wait_for(run_session(counting_client(chan.clone(), seen)), 1)
        assert seen == [0, 1]
        assert chan.failure is None

    run_without_gc(main())


def test_outside_cancellation_mid_section_stops_shared_process():
    async def main():
        chan = run_shared_session(shared_counter_provider(0))
        never = asyncio.Event()

        def body(c):
            async def on_value(v):
                await never.wait()
                return release_shared_session(c, terminate())

            return receive_value_from(c, on_value)

        client = session(End, acquire_shared_session(chan.clone(), body))
        with pytest.raises(asyncio.TimeoutError):
            await asyncio.wait_for(run_session(client), 0.2)
        await asyncio.wait_for(chan.stopped.wait(), 1)
        assert isinstance(chan.failure.__cause__, asyncio.CancelledError)
        with pytest.raises(RuntimeViolation, match="already failed"):
            await run_session(shared_counter_client(chan.clone()))

    run_without_gc(main())


# -- a critical section runs under its client's run ----------------------------


def test_a_section_provider_failure_reaches_every_party_without_gc():
    boom = ValueError("section provider exploded")
    gate = asyncio.Event()

    def exploding():
        async def produce():
            await gate.wait()
            raise boom

        return session(SendValue(int, End), send_value_async(produce))

    def relaying_provider():
        # each section includes a provider and relays its value to the client
        def relay(p):
            return receive_value_from(
                p,
                lambda v: wait(
                    p, send_value(v, detach_shared_session(shared_counter_provider(0)))
                ),
            )

        return shared_session(
            SharedCounter, accept_shared_session(include_session(exploding(), relay))
        )

    async def main():
        reported = []
        asyncio.get_running_loop().set_exception_handler(
            lambda loop, context: reported.append(context)
        )
        chan = run_shared_session(relaying_provider())
        first = asyncio.ensure_future(run_session(counting_client(chan, [])))
        queued = asyncio.ensure_future(run_session(counting_client(chan, [])))
        while not chan.requests:
            await asyncio.sleep(0)
        gate.set()
        with pytest.raises(ValueError, match="section provider exploded"):
            await asyncio.wait_for(first, 1)
        await asyncio.wait_for(chan.stopped.wait(), 1)
        assert isinstance(chan.failure, RuntimeViolation)
        assert chan.failure.__cause__ is boom
        with pytest.raises(
            RuntimeViolation, match="failed before this acquire was served"
        ):
            await asyncio.wait_for(queued, 1)
        del first, queued
        gc.collect()
        assert reported == []

    run_without_gc(main())


def test_a_section_failing_while_it_holds_another_shared_process_stops_it_without_gc():
    boom = ValueError("outer section exploded")

    async def main():
        inner = run_shared_session(shared_counter_provider(0))

        def holds_inner(c):
            def on_value(v):
                raise boom

            return receive_value_from(c, on_value)

        outer = run_shared_session(
            shared_session(
                SharedCounter,
                accept_shared_session(acquire_shared_session(inner, holds_inner)),
            )
        )
        with pytest.raises(ValueError, match="outer section exploded"):
            await asyncio.wait_for(run_session(counting_client(outer, [])), 1)
        await asyncio.wait_for(inner.stopped.wait(), 1)
        assert isinstance(inner.failure, RuntimeViolation)
        assert inner.failure.__cause__ is boom
        assert outer.failure is boom

    run_without_gc(main())


def test_a_shared_process_reports_its_failure_once_and_keeps_an_outside_cancel():
    boom = ValueError("shared process exploded")

    async def produce():
        raise boom

    async def main():
        failing = run_shared_session(
            shared_session(
                SharedCounter, accept_shared_session(send_value_async(produce))
            )
        )
        with pytest.raises(ValueError, match="shared process exploded"):
            await asyncio.wait_for(run_session(counting_client(failing, [])), 1)
        # Reported to the client; the process records it and stops.
        await asyncio.wait_for(failing.stopped.wait(), 1)
        assert failing.failure is boom

        idle = run_shared_session(shared_counter_provider(0))
        idle.close()
        await asyncio.wait_for(idle.stopped.wait(), 1)
        assert idle.failure is None

    run_without_gc(main())


# -- a contended acquire is handed over at the holder's release ----------------


def gated_counter(value, gate, provider_runs):
    """A shared counter whose sections take their count from a provider they
    `cut` in. Each provider notes its run; the first waits for `gate`."""

    async def produce():
        provider_runs.append(current_run())
        if value == 0:
            await gate.wait()
        return value, terminate()

    def relay(v):
        following = gated_counter(value + 1, gate, provider_runs)
        return wait(nat(1), send_value(v, detach_shared_session(following)))

    section = cut(
        receive_value_from(nat(1), relay),
        send_value_async(produce),
        provider_protocol=SendValue(int, End),
    )
    return shared_session(SharedCounter, accept_shared_session(section))


def noting_client(chan, seen, runs, body_after_acquire=None):
    """Acquire once, note the count and the client's own run, release."""

    def body(c):
        def on_value(v):
            seen.append(v)
            runs.append(current_run())
            return release_shared_session(c, terminate())

        return receive_value_from(c, on_value)

    return session(End, acquire_shared_session(chan, body_after_acquire or body))


def test_a_contended_acquire_is_served_in_fifo_order_in_its_own_run():
    async def main():
        gate = asyncio.Event()
        provider_runs, seen, client_runs = [], [], []
        chan = run_shared_session(gated_counter(0, gate, provider_runs))

        def client():
            return asyncio.ensure_future(
                run_session(noting_client(chan, seen, client_runs))
            )

        first = client()
        while not provider_runs:  # the first section waits at the gate
            await asyncio.sleep(0)
        queued = [client()]
        while not chan.requests:
            await asyncio.sleep(0)
        assert len(chan.requests) == 1
        queued.append(client())
        while len(chan.requests) < 2:
            await asyncio.sleep(0)
        gate.set()
        await asyncio.wait_for(asyncio.gather(first, *queued), 1)
        assert seen == [0, 1, 2]
        assert len(set(map(id, client_runs))) == 3
        # Each section's provider ran in the run of the client holding it.
        assert provider_runs == client_runs
        assert not chan.requests and chan.failure is None
        chan.close()
        await asyncio.wait_for(chan.stopped.wait(), 1)

    run_without_gc(main())


def test_a_run_that_acquires_again_and_again_keeps_its_drivers_bounded():
    drivers = []

    def acquiring(chan, left):
        def body(c):
            def on_value(v):
                drivers.append(len(current_run().tasks))
                following = acquiring(chan, left - 1) if left > 1 else terminate()
                return release_shared_session(c, following)

            return receive_value_from(c, on_value)

        return acquire_shared_session(chan, body)

    async def main():
        async with run_shared_session(shared_counter_provider(0)) as chan:
            await run_session(session(End, acquiring(chan, 10_000)))

    run_without_gc(main())
    assert len(drivers) == 10_000 and max(drivers) <= 2


def test_an_acquirer_cancelled_after_its_turn_came_passes_the_turn_on():
    # The release hands the process to the queued acquirer's future; that
    # acquirer is cancelled before it runs, so it must hand the process on.
    async def main():
        chan = run_shared_session(shared_counter_provider(0))
        seen, waiter = [], []
        inside, leave = asyncio.Event(), asyncio.Event()

        async def cancel_the_waiter():
            waiter[0].cancel()
            return 0, terminate()

        canceller = session(SendValue(int, End), send_value_async(cancel_the_waiter))

        def holder_body(c):
            async def on_value(v):
                seen.append(v)
                inside.set()
                await leave.wait()
                return release_shared_session(c, include_then_finish(canceller))

            return receive_value_from(c, on_value)

        holder = asyncio.ensure_future(
            run_session(session(End, acquire_shared_session(chan, holder_body)))
        )
        await inside.wait()
        waiter.append(asyncio.ensure_future(run_session(counting_client(chan, seen))))
        while not chan.requests:
            await asyncio.sleep(0)
        leave.set()
        await asyncio.wait_for(holder, 1)
        with pytest.raises(asyncio.CancelledError):
            await waiter[0]
        await asyncio.wait_for(run_session(counting_client(chan, seen)), 1)
        assert seen == [0, 1]
        assert chan.failure is None

    run_without_gc(main())


def test_a_queued_acquirer_is_its_parked_driver_and_cancelled_ones_pass_the_turn_on():
    # Three acquirers queue behind a holder whose section waits at a gate.
    # The second is cancelled while queued; the first is cancelled after the
    # release readied it and before it stepped, so it hands the process on,
    # past the second, to the third.
    async def main():
        gate = asyncio.Event()
        provider_runs, seen, runs, readied = [], [], [], []
        chan = run_shared_session(gated_counter(0, gate, provider_runs))

        async def cancel_the_first():
            first_driver = queued_drivers[0]
            readied.append(first_driver in first_driver.run.ready)
            acquirers[0].cancel()
            return 0, terminate()

        canceller = session(SendValue(int, End), send_value_async(cancel_the_first))

        def holder_body(c):
            def on_value(v):
                seen.append(v)
                return release_shared_session(c, include_then_finish(canceller))

            return receive_value_from(c, on_value)

        holder = asyncio.ensure_future(
            run_session(noting_client(chan, [], [], holder_body))
        )
        while not provider_runs:  # the holder's section waits at the gate
            await asyncio.sleep(0)
        acquirers = []
        for k in range(1, 4):
            acquirers.append(
                asyncio.ensure_future(run_session(noting_client(chan, seen, runs)))
            )
            while len(chan.requests) < k:
                await asyncio.sleep(0)
        queued_drivers = list(chan.requests)
        # The wait-for edge: each queued acquirer is its run's driver, parked
        # on the channel.
        assert all(driver.waiting is chan for driver in queued_drivers)
        assert len({id(driver.run) for driver in queued_drivers}) == 3
        acquirers[1].cancel()
        with pytest.raises(asyncio.CancelledError):
            await acquirers[1]
        gate.set()
        await asyncio.wait_for(asyncio.gather(holder, acquirers[2]), 1)  # a guard
        with pytest.raises(asyncio.CancelledError):
            await acquirers[0]
        assert readied == [True]
        assert seen == [0, 1]  # the third acquirer was served the next count
        assert chan.failure is None and not chan.requests
        chan.close()
        await asyncio.wait_for(chan.stopped.wait(), 1)

    run_without_gc(main())


def test_an_acquirer_that_cancels_itself_after_taking_its_turn_keeps_the_section():
    # The acquirer cancels its own driver in the step that took the program
    # a release readied it with. The section is its own now, so the cancel
    # must not hand that program on: the run ends inside the section, the
    # process fails, and the acquirer queued after it is refused.
    async def main():
        gate = asyncio.Event()
        provider_runs = []
        chan = run_shared_session(gated_counter(0, gate, provider_runs))
        ready_value = session(SendValue(int, End), send_value(7, terminate()))

        def self_cancelling(p):
            def body(c):
                def on_value(v):
                    asyncio.current_task().cancel()
                    return receive_value_from(
                        c, lambda w: wait(p, release_shared_session(c, terminate()))
                    )

                return receive_value_from(p, on_value)

            return acquire_shared_session(chan, body)

        holder = asyncio.ensure_future(run_session(noting_client(chan, [], [])))
        while not provider_runs:
            await asyncio.sleep(0)
        cancelling = asyncio.ensure_future(
            run_session(session(End, include_session(ready_value, self_cancelling)))
        )
        while not chan.requests:
            await asyncio.sleep(0)
        queued = asyncio.ensure_future(run_session(noting_client(chan, [], [])))
        while len(chan.requests) < 2:
            await asyncio.sleep(0)
        gate.set()
        await asyncio.wait_for(holder, 1)
        with pytest.raises(asyncio.CancelledError):
            await asyncio.wait_for(cancelling, 1)
        with pytest.raises(
            RuntimeViolation, match="failed before this acquire was served"
        ):
            await asyncio.wait_for(queued, 1)
        assert isinstance(chan.failure, RuntimeViolation)
        assert "inside its critical section" in str(chan.failure)

    run_without_gc(main())


def test_a_holder_failing_at_the_gate_fails_the_queued_acquirer_without_gc():
    boom = ValueError("holder exploded")

    async def main():
        gate, explode = asyncio.Event(), asyncio.Event()
        provider_runs = []
        chan = run_shared_session(gated_counter(0, gate, provider_runs))

        async def produce():
            await explode.wait()
            raise boom

        exploding = session(SendValue(int, End), send_value_async(produce))

        def exploding_body(c):
            # The holder's run includes a provider that fails it while its
            # section still waits at the gate.
            return include_session(
                exploding, lambda p: receive_value_from(p, lambda v: terminate())
            )

        holder = asyncio.ensure_future(
            run_session(noting_client(chan, [], [], exploding_body))
        )
        while not provider_runs:
            await asyncio.sleep(0)
        queued = asyncio.ensure_future(run_session(noting_client(chan, [], [])))
        while not chan.requests:
            await asyncio.sleep(0)
        explode.set()
        with pytest.raises(ValueError, match="holder exploded"):
            await asyncio.wait_for(holder, 1)
        await asyncio.wait_for(chan.stopped.wait(), 1)
        assert isinstance(chan.failure, RuntimeViolation)
        assert chan.failure.__cause__ is boom
        with pytest.raises(
            RuntimeViolation, match="failed before this acquire was served"
        ):
            await asyncio.wait_for(queued, 1)

    run_without_gc(main())


def including_acquirer(chan, provider):
    """Include a SendValue(int, End) `provider`, then acquire in the same
    step; the section driver is spawned right after the provider's."""

    def after_include(p):
        def body(c):
            def on_value(v):
                finish = receive_value_from(p, lambda w: wait(p, terminate()))
                return release_shared_session(c, finish)

            return receive_value_from(c, on_value)

        return acquire_shared_session(chan, body)

    return session(End, include_session(provider, after_include))


def test_a_run_failing_before_its_section_first_steps_fails_the_process_without_gc():
    boom = ValueError("provider exploded")

    async def produce():
        raise boom

    exploding = session(SendValue(int, End), send_value_async(produce))

    async def main():
        chan = run_shared_session(shared_counter_provider(0))
        with pytest.raises(ValueError, match="provider exploded"):
            await asyncio.wait_for(run_session(including_acquirer(chan, exploding)), 1)
        await asyncio.wait_for(chan.stopped.wait(), 1)
        assert isinstance(chan.failure, RuntimeViolation)
        assert chan.failure.__cause__ is boom
        with pytest.raises(RuntimeViolation, match="already failed"):
            await asyncio.wait_for(run_session(shared_counter_client(chan)), 1)

    run_without_gc(main())


def test_an_outside_cancel_before_the_section_first_steps_fails_the_process_without_gc():
    outer = []

    async def produce():
        # The run's task is cancelled at its next loop turn, which the run
        # takes while its section driver is still ready.
        asyncio.get_running_loop().call_soon(outer[0].cancel)
        await asyncio.sleep(0)
        return 1

    yielding = session(SendValue(int, End), send_value_async(produce))

    async def main():
        chan = run_shared_session(shared_counter_provider(0))
        client = asyncio.ensure_future(
            run_session(including_acquirer(chan, yielding))
        )
        outer.append(client)
        with pytest.raises(asyncio.CancelledError):
            await asyncio.wait_for(client, 1)
        await asyncio.wait_for(chan.stopped.wait(), 1)
        assert isinstance(chan.failure, RuntimeViolation)
        assert isinstance(chan.failure.__cause__, asyncio.CancelledError)
        with pytest.raises(RuntimeViolation, match="already failed"):
            await asyncio.wait_for(run_session(shared_counter_client(chan)), 1)

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
        first = asyncio.ensure_future(run_session(counting_client(chan.clone(), [])))
        queued = asyncio.ensure_future(run_session(counting_client(chan.clone(), [])))
        await asyncio.wait_for(entered.wait(), 1)
        while not chan.requests:
            await asyncio.sleep(0)
        gate.set()
        with pytest.raises(LinearityError, match="already consumed"):
            await asyncio.wait_for(first, 1)
        await asyncio.wait_for(chan.stopped.wait(), 1)
        assert isinstance(chan.failure, LinearityError)
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
    with gc_off():
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


def test_a_shared_session_is_made_only_by_shared_session():
    # `SharedSession` has no `__init__`: `shared_session` checks the program
    # of its first critical section and makes it.
    with pytest.raises(TypeError):
        SharedSession(SharedCounter, terminate())
