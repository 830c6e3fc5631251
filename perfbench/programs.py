"""Session programs for the benchmark workloads, built from the public API.

The builders mirror `sessia.demos.counter_pair` and
`sessia.demos.shared_counter_*`, with two differences: every value a client
receives goes into a Python list as a `(perf_counter, value)` pair, so a run
can be verified without the Recorder, and the `session`/`shared_session`
calls that continuations make while the program runs are timed into a list
of seconds (`rechecks`).

Builders return unchecked program trees; the caller times the check
(`session`, `shared_session`, `apply_channel`) separately from the build.
"""

from __future__ import annotations

from time import perf_counter

from sessia import (
    End,
    ExternalChoice,
    Fix,
    LinearToShared,
    ReceiveChannel,
    SendValue,
    Z,
    accept_shared_session,
    acquire_shared_session,
    choose_left,
    choose_right,
    detach_shared_session,
    fix_session,
    include_session,
    offer_choice,
    receive_channel,
    receive_value_from,
    release_shared_session,
    send_value,
    send_value_async,
    session,
    shared_session,
    terminate,
    unfix_session_for,
    wait,
)


# Each protocol comes from a function, so `protocols.eq_us` can compare two
# separately built copies instead of one object with itself.
def counter_stream_protocol():
    return Fix(ExternalChoice(SendValue(int, Z), End))


def stream_client_protocol():
    return ReceiveChannel(counter_stream_protocol(), End)


def fanout_provider_protocol():
    return SendValue(int, End)


def shared_counter_protocol():
    return LinearToShared(SendValue(int, Z))


CounterStream = counter_stream_protocol()
StreamClient = stream_client_protocol()
FanoutProvider = fanout_provider_protocol()
SharedCounter = shared_counter_protocol()


# -- stream ---------------------------------------------------------------


def stream_producer(value: int, rechecks: list):
    """Producer tree of the bounded counter stream, counting up from `value`."""

    async def produce():
        following = stream_producer(value + 1, rechecks)
        t0 = perf_counter()
        checked = session(CounterStream, following)
        rechecks.append(perf_counter() - t0)
        return value, checked

    return fix_session(offer_choice(send_value_async(produce), terminate()))


def stream_client(take: int, seen: list):
    """Client tree that takes `take` values from the stream, then closes it."""

    def step(stream, remaining: int):
        if remaining == 0:
            return unfix_session_for(
                stream, choose_right(stream, wait(stream, terminate()))
            )

        def on_value(value):
            seen.append((perf_counter(), value))
            return step(stream, remaining - 1)

        return unfix_session_for(
            stream, choose_left(stream, receive_value_from(stream, on_value))
        )

    return receive_channel(lambda stream: step(stream, take))


# -- fanout -----------------------------------------------------------------


def fanout_provider(value: int):
    return send_value(value, terminate())


def _record_then(seen: list, cont):
    def on_value(value):
        seen.append((perf_counter(), value))
        return cont

    return on_value


def fanout_client(providers: list, order: list, lenses: list, seen: list):
    """Client tree that includes every checked provider, then receives from
    and waits on each in `order`.

    `lenses[k]` must be the de Bruijn level of the k-th include (`nat(k)`):
    the tree is built bottom-up before the check, so the include
    continuations return subtrees that already use those lenses.
    """
    program = terminate()
    for k in reversed(order):
        program = receive_value_from(
            lenses[k], _record_then(seen, wait(lenses[k], program))
        )
    for provider in reversed(providers):
        program = include_session(provider, lambda _lens, body=program: body)
    return program


# -- shared -----------------------------------------------------------------


def shared_counter(value: int, rechecks: list):
    """Shared counter tree: serves one fresh count per acquire, forever."""

    async def produce():
        following = shared_counter(value + 1, rechecks)
        t0 = perf_counter()
        checked = shared_session(SharedCounter, following)
        rechecks.append(perf_counter() - t0)
        return value, detach_shared_session(checked)

    return accept_shared_session(send_value_async(produce))


def shared_client(chan, seen: list):
    """Acquire, receive one count, release, terminate."""

    def body(c):
        def on_value(value):
            seen.append((perf_counter(), value))
            return release_shared_session(c, terminate())

        return receive_value_from(c, on_value)

    return acquire_shared_session(chan, body)
