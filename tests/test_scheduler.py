"""The run scheduler: a run steps its drivers on the one asyncio task that
awaits it, parks a driver in a channel slot or on a foreign future, yields
to the event loop after a fixed number of steps, and cancels every parked
driver when the run fails or is cancelled."""

import asyncio
import sys
import threading
import weakref

import pytest

from conftest import run, run_without_gc
from sessia import (
    End,
    ReceiveChannel,
    SendValue,
    apply_channel,
    choose_left,
    include_session,
    receive_channel,
    receive_value_from,
    run_session,
    run_shared_session,
    send_value,
    send_value_async,
    session,
    terminate,
    unfix_session_for,
    wait,
)
from sessia.demos import (
    CounterStream,
    counter_demo,
    counter_pair,
    shared_counter_client,
    shared_counter_provider,
    stream_producer,
)
from sessia.runtime import channel, current_run


def int_provider(value):
    return session(SendValue(int, End), send_value(value, terminate()))


def taking_one_from(produce, received: list):
    """A run that includes a `send_value_async(produce)` provider and takes
    its one value."""
    provider = session(SendValue(int, End), send_value_async(produce))

    def take(value, x):
        received.append(value)
        return wait(x, terminate())

    return session(
        End,
        include_session(provider, lambda x: receive_value_from(x, lambda v: take(v, x))),
    )


class CountingLoop(asyncio.SelectorEventLoop):
    """An event loop that counts what is scheduled on it."""

    def __init__(self):
        super().__init__()
        self.call_soon_calls = 0

    def call_soon(self, *args, **kwargs):
        self.call_soon_calls += 1
        return super().call_soon(*args, **kwargs)


class Sent:
    """A value that a weak reference can follow."""


def test_a_run_keeps_no_spent_program_alive():
    # Nothing of the run keeps an included provider that has ended alive, nor
    # the value it sent: the run drops the program it started from once its
    # driver holds it. Counted with the cyclic collector off and never run.
    refs, alive = [], []

    def included():
        sent = Sent()
        refs.append(weakref.ref(sent))
        return session(SendValue(Sent, End), send_value(sent, terminate()))

    def later(y):
        alive.append(refs[0]() is not None)
        return wait(y, terminate())

    def program():
        return include_session(
            included(),
            lambda x: include_session(
                int_provider(2),
                lambda y: receive_value_from(
                    x, lambda v: wait(x, receive_value_from(y, lambda w: later(y)))
                ),
            ),
        )

    run_without_gc(run_session(session(End, program())))
    assert alive == [False]


def test_a_stream_value_costs_no_event_loop_iteration():
    # One asyncio task per provider costs two loop iterations a value,
    # 20,014 `call_soon` calls here; the run's own turns are a count of
    # steps, so this bound holds however slow the host is.
    loop = CountingLoop()
    try:
        loop.run_until_complete(run_session(counter_pair(0, 10_000)))
    finally:
        loop.close()
    assert loop.call_soon_calls <= 2_500


def test_an_uncontended_acquire_costs_no_event_loop_iteration():
    # A shared process served on its own task costs three loop iterations
    # an op, 30,000 `call_soon` calls here; what is left is each short
    # run's one turn.
    ops = 10_000

    async def main():
        before = asyncio.all_tasks()
        async with run_shared_session(shared_counter_provider(0)) as chan:
            assert asyncio.all_tasks() == before
            for _ in range(ops):
                await run_session(shared_counter_client(chan))
                assert asyncio.all_tasks() == before

    loop = CountingLoop()
    try:
        loop.run_until_complete(main())
    finally:
        loop.close()
    assert loop.call_soon_calls <= 1.2 * ops


def test_a_short_run_gives_the_event_loop_a_turn():
    # Each run below ends inside its first round of steps. Unless every run
    # gives the loop a turn, the task awaiting 1,000 of them holds the event
    # loop until the last one ends.
    done, seen = [], []

    async def short_runs():
        for value in range(1_000):

            async def produce(value=value):
                return value, terminate()

            await run_session(taking_one_from(produce, done))

    async def bystander():
        seen.append(len(done))

    async def main():
        await asyncio.gather(short_runs(), bystander())

    run(main())
    assert done == list(range(1_000))
    assert seen[0] <= 1


def test_a_bare_yield_in_a_continuation_gives_the_event_loop_a_turn():
    turns, seen = [], []

    async def produce():
        for _ in range(3):
            seen.append(len(turns))
            await asyncio.sleep(0)
        return 1, terminate()

    async def bystander():
        while len(seen) < 3:
            turns.append(None)
            await asyncio.sleep(0)

    async def main():
        await asyncio.gather(run_session(taking_one_from(produce, [])), bystander())

    run(main())
    assert seen[0] < seen[1] < seen[2]


def test_run_session_starts_no_task_per_provider():
    seen = []

    def include_next(left):
        if left == 0:
            seen.append(asyncio.all_tasks())
            return terminate()
        return include_session(
            int_provider(left),
            lambda p: receive_value_from(p, lambda v: wait(p, include_next(left - 1))),
        )

    async def main():
        before = asyncio.all_tasks()
        await run_session(session(End, include_next(10)))
        assert seen == [before]

    run(main())


def endless_client(values: list):
    """Takes values from the counter stream until it is cancelled."""

    def step(stream):
        def on_value(value):
            if not values:
                values.append(current_run())
            values.append(value)
            return step(stream)

        return unfix_session_for(
            stream, choose_left(stream, receive_value_from(stream, on_value))
        )

    return session(ReceiveChannel(CounterStream, End), receive_channel(step))


def test_a_busy_run_gives_the_event_loop_turns():
    values = []

    async def cancel_after_ten_turns(task):
        for _ in range(10):
            await asyncio.sleep(0)
        task.cancel()

    async def main():
        before = asyncio.all_tasks()
        program = apply_channel(endless_client(values), stream_producer(0))
        run_task = asyncio.ensure_future(run_session(program))
        canceller = asyncio.ensure_future(cancel_after_ten_turns(run_task))
        with pytest.raises(asyncio.CancelledError):
            await run_task
        await canceller
        assert asyncio.all_tasks() == before

    # No wall-clock guard: a run that never yields hangs here.
    asyncio.run(main())
    the_run, first, *rest = values
    assert first == 0 and rest == list(range(1, len(rest) + 1))
    assert not the_run.tasks


def test_outside_cancel_cancels_the_sleep_a_producer_awaits():
    events, runs = [], []

    async def produce():
        runs.append(current_run())
        try:
            await asyncio.sleep(3600)
        except asyncio.CancelledError:
            events.append("cancelled")
            raise
        finally:
            events.append("finally")
        return 1, terminate()

    provider = session(SendValue(int, End), send_value_async(produce))
    program = session(
        End,
        include_session(
            provider, lambda x: receive_value_from(x, lambda v: wait(x, terminate()))
        ),
    )

    async def main():
        before = asyncio.all_tasks()
        task = asyncio.ensure_future(run_session(program))
        while not runs:
            await asyncio.sleep(0)
        task.cancel()
        with pytest.raises(asyncio.CancelledError):
            await task
        assert events == ["cancelled", "finally"]
        assert not runs[0].tasks
        assert asyncio.all_tasks() == before

    run_without_gc(main())


def test_a_failing_continuation_cancels_a_sibling_parked_on_a_channel():
    events, runs, kept = [], [], []

    async def produce_never():
        sender, receiver = channel()
        kept.append(sender)  # never sent on, never dropped
        try:
            await receiver.recv()
        except asyncio.CancelledError:
            events.append("cancelled")
            raise
        return 1, terminate()

    def explode(value):
        runs.append(current_run())
        raise ValueError("boom")

    parked = session(SendValue(int, End), send_value_async(produce_never))
    program = session(
        End,
        include_session(
            parked,
            lambda p: include_session(
                int_provider(7), lambda q: receive_value_from(q, explode)
            ),
        ),
    )

    # The failing continuation is the provider whose offer the client is
    # parked on: only the run's failure wakes the client.
    parked = []

    async def produce_failing():
        run = current_run()
        runs.append(run)
        parked.extend(driver for driver in run.tasks if driver.waiting is not None)
        raise ValueError("boom")

    async def main():
        before = asyncio.all_tasks()
        with pytest.raises(ValueError, match="boom"):
            await run_session(program)
        assert events == ["cancelled"]
        assert not runs[0].tasks
        with pytest.raises(ValueError, match="boom"):
            await run_session(taking_one_from(produce_failing, []))
        assert len(parked) == 1
        assert not runs[1].tasks
        assert asyncio.all_tasks() == before

    run_without_gc(main())


def test_each_driver_keeps_its_own_context_across_a_nested_run():
    # While a continuation awaits a nested run, a sibling driver of the
    # outer run still sees the outer run as its own.
    runs = {}
    started, released = asyncio.Event(), asyncio.Event()

    async def sibling_value():
        await started.wait()  # wakes once the nested run is parked
        runs["sibling"] = current_run()
        released.set()
        return 2, terminate()

    async def held_value():
        await released.wait()
        return 3, terminate()

    inner = session(
        End,
        include_session(
            session(SendValue(int, End), send_value_async(held_value)),
            lambda x: receive_value_from(x, lambda v: wait(x, terminate())),
        ),
    )

    def outer(s):
        def received(q):
            async def nested(value):
                runs["outer"] = current_run()
                started.set()
                await run_session(inner)
                assert current_run() is runs["outer"]
                return wait(q, receive_value_from(s, lambda v: wait(s, terminate())))

            return receive_value_from(q, nested)

        return include_session(int_provider(1), received)

    sibling = session(SendValue(int, End), send_value_async(sibling_value))
    run(run_session(session(End, include_session(sibling, outer))))
    assert runs["sibling"] is runs["outer"]


def test_a_driver_that_yields_a_non_future_fails_the_run():
    class Odd:
        def __await__(self):
            yield 42

    async def produce():
        await Odd()
        return 1, terminate()

    provider = session(SendValue(int, End), send_value_async(produce))
    program = session(
        End,
        include_session(
            provider, lambda x: receive_value_from(x, lambda v: wait(x, terminate()))
        ),
    )
    with pytest.raises(RuntimeError, match="a session driver yielded 42"):
        run(run_session(program))


# -- a driver is the current task while it is stepped ---------------------------


needs_3_11 = pytest.mark.skipif(
    sys.version_info < (3, 11), reason="asyncio.timeout and TaskGroup are new in 3.11"
)


@needs_3_11
def test_a_timeout_in_a_producer_cancels_only_its_driver():
    events, received = [], []

    async def produce():
        try:
            async with asyncio.timeout(0):
                await asyncio.sleep(3600)
        except TimeoutError:
            events.append("timed out")
        try:
            await asyncio.wait_for(asyncio.sleep(3600), 0)
        except TimeoutError:
            events.append("wait_for timed out")
        return 1, terminate()

    run(run_session(taking_one_from(produce, received)))
    assert events == ["timed out", "wait_for timed out"]
    assert received == [1]


@needs_3_11
def test_a_task_group_in_a_producer_cancels_only_its_driver():
    events, received = [], []

    async def fail_soon():
        raise ValueError("child")

    async def produce():
        assert asyncio.current_task().cancelling() == 0
        try:
            async with asyncio.TaskGroup() as group:
                group.create_task(fail_soon())
                group.create_task(asyncio.sleep(3600))
                await asyncio.sleep(3600)  # the group cancels this
        except ExceptionGroup as failed:
            events.extend(str(exc) for exc in failed.exceptions)
        assert asyncio.current_task().cancelling() == 0
        return 2, terminate()

    async def main():
        before = asyncio.all_tasks()
        await run_session(taking_one_from(produce, received))
        assert asyncio.all_tasks() == before

    run(main())
    assert events == ["child"]
    assert received == [2]


def test_a_driver_that_cancels_itself_is_cancelled_at_its_next_wait():
    events, received, kept = [], [], []

    async def produce():
        sender, receiver = channel()
        kept.append(sender)  # never sent on, never dropped
        for waiting in (asyncio.sleep(3600), receiver.recv()):
            asyncio.current_task().cancel()
            try:
                await waiting
            except asyncio.CancelledError:
                events.append(asyncio.current_task().uncancel())
        return 3, terminate()

    run(run_session(taking_one_from(produce, received)))
    assert events == [0, 0]
    assert received == [3]


def test_runs_on_two_threads_keep_their_own_drivers():
    # asyncio keeps the current task per event loop, so a thread switch in
    # the middle of a step cannot hand one run's driver to the other.
    results, interval = {}, sys.getswitchinterval()

    def take(name):
        results[name] = counter_demo(0, 500).values("RECV")

    sys.setswitchinterval(1e-6)
    try:
        threads = [threading.Thread(target=take, args=(n,), daemon=True) for n in "ab"]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join(60)  # a deadlock guard: a lost driver hangs its run
    finally:
        sys.setswitchinterval(interval)
    expected = [str(value) for value in range(500)]
    assert results == {"a": expected, "b": expected}


# -- what reaches the task awaiting the run ---------------------------------------


def test_an_outside_cancel_waits_for_a_provider_that_ignores_it():
    events, runs = [], []

    async def produce():
        runs.append(current_run())
        try:
            await asyncio.sleep(3600)
        except asyncio.CancelledError:
            events.append("ignored")
        for _ in range(3):
            await asyncio.sleep(0)
        events.append("finished")
        return 1, terminate()

    async def main():
        task = asyncio.ensure_future(run_session(taking_one_from(produce, [])))
        while not runs:
            await asyncio.sleep(0)
        task.cancel()
        with pytest.raises(asyncio.CancelledError):
            await task
        assert events == ["ignored", "finished"]
        assert not runs[0].tasks

    run_without_gc(main())


def test_system_exit_in_a_driver_leaves_the_run_at_once():
    events = []

    async def hold():
        try:
            await asyncio.sleep(3600)
        finally:
            events.append("sibling stepped")
        return 1, terminate()

    async def leave():
        raise SystemExit(3)

    held = session(SendValue(int, End), send_value_async(hold))
    leaving = session(SendValue(int, End), send_value_async(leave))
    program = session(
        End,
        include_session(
            held,
            lambda x: include_session(
                leaving, lambda y: receive_value_from(y, lambda v: wait(y, terminate()))
            ),
        ),
    )

    async def main():
        with pytest.raises(SystemExit):
            await run_session(program)
        assert events == []  # raised before the cancelled sibling ran again

    run(main())
