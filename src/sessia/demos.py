"""Executable demonstrations of every feature, used by the CLI and tests.

Each demo builds its programs under a fresh recorder, runs them on a fresh
event loop, verifies endpoint conservation and one-shot execution, and
returns the transcript. Semantic values received by clients are recorded as
RECV events; acquire/release and termination events come from the library.

The canvas demo models a desk-scale 2D canvas service: a shared
constellation process creates canvases (size in, id out, a dedicated canvas
channel delegated out), and each canvas accepts drawing messages until its
client closes it. There is no id lookup anywhere — a canvas *is* its
channel — so requests to a nonexistent canvas are unrepresentable.
"""

from __future__ import annotations

import asyncio
from dataclasses import dataclass

from .constructs import (
    apply_channel,
    choose_left,
    choose_right,
    offer_choice,
    receive_channel,
    receive_channel_from,
    receive_value,
    receive_value_from,
    send_channel_from,
    send_channel_to,
    send_value,
    send_value_async,
    send_value_to,
    terminate,
    wait,
)
from .context import Z, nat
from .core import (
    Session,
    cut,
    forward,
    include_session,
    run_session,
    session,
)
from .errors import RuntimeViolation
from .instrument import Recorder, Transcript, record_event, recording
from .protocols import (
    End,
    ExternalChoice,
    ReceiveChannel,
    ReceiveValue,
    SendChannel,
    SendValue,
)
from .recursion import Fix, fix_session, unfix_session_for
from .shared import (
    LinearToShared,
    SharedSession,
    acquire_shared_session,
    accept_shared_session,
    detach_shared_session,
    release_shared_session,
    run_shared_session,
    shared_session,
)

DEMO_NAMES = ("hello", "counter", "shared-counter", "canvas")


def _check_run(recorder: Recorder) -> None:
    if not recorder.conservation_ok():
        raise RuntimeViolation(
            f"endpoint conservation violated: created "
            f"{recorder.counters.endpoints_created}, consumed "
            f"{recorder.counters.endpoints_consumed}"
        )
    if not recorder.one_shot_ok():
        raise RuntimeViolation("an executor or continuation ran more than once")
    if recorder.counters.polarity_violations:
        raise RuntimeViolation("polarity convention violated")


def _run_demo(main) -> tuple[Transcript, Recorder]:
    with recording() as recorder:
        asyncio.run(main())
        _check_run(recorder)
    return recorder.transcript, recorder


# -- hello ---------------------------------------------------------------


def hello_pair(name: str = "Alice") -> tuple[Session, Session]:
    """The greeting pair: a client that delegates a name-taking provider.

    Returns (client, provider); linking them and running prints the
    greeting.
    """

    def provider_body(value: str):
        print(f"Hello, {value}")
        return terminate()

    provider = session(ReceiveValue(str, End), receive_value(provider_body))
    client = session(
        ReceiveChannel(ReceiveValue(str, End), End),
        receive_channel(
            lambda a: send_value_to(a, name, wait(a, terminate()))
        ),
    )
    return client, provider


def apply_channel_via_cut(f: Session, a: Session) -> Session:
    """The same linking as apply_channel, spelled with two explicit cuts
    followed by a delegation and a forward."""
    chan_f, chan_a = Z, nat(1)
    body = cut(
        cut(
            send_channel_to(chan_f, chan_a, forward(chan_f)),
            a,
        ),
        f,
    )
    result = f.protocol.cont
    return session(result, body)


def hello_demo(name: str = "Alice") -> Transcript:
    """Run the hello pair, linked through `cut`; stdout carries the greeting."""

    async def main():
        await run_session(apply_channel_via_cut(*hello_pair(name)))

    transcript, _ = _run_demo(main)
    return transcript


# -- counter stream -------------------------------------------------------


# One round of the bounded stream: the producer offers either the next
# value (left) or a clean end (right); the client drives the choice.
CounterStream = Fix(ExternalChoice(SendValue(int, Z), End))


def stream_producer(value: int, delay_ms: int = 0) -> Session:
    """Producer of the bounded counter stream, counting up from `value`."""

    async def produce():
        if delay_ms:
            await asyncio.sleep(delay_ms / 1000.0)
        return value, stream_producer(value + 1, delay_ms)

    return session(
        CounterStream,
        fix_session(offer_choice(send_value_async(produce), terminate())),
    )


def bounded_stream_client(take: int) -> Session:
    """Client that takes `take` values from the stream, then closes it."""

    def step(stream, remaining: int):
        if remaining == 0:
            return unfix_session_for(
                stream, choose_right(stream, wait(stream, terminate()))
            )

        def on_value(value):
            record_event("RECV", value)
            return step(stream, remaining - 1)

        return unfix_session_for(
            stream, choose_left(stream, receive_value_from(stream, on_value))
        )

    return session(
        ReceiveChannel(CounterStream, End),
        receive_channel(lambda stream: step(stream, take)),
    )


def counter_pair(start: int, take: int, delay_ms: int = 0) -> Session:
    """The linked bounded counter program, ready to run."""
    if take < 0:
        raise ValueError("take must be non-negative")
    return apply_channel(bounded_stream_client(take), stream_producer(start, delay_ms))


def counter_demo(start: int = 0, take: int = 5, delay_ms: int = 0) -> Transcript:
    async def main():
        await run_session(counter_pair(start, take, delay_ms))

    transcript, _ = _run_demo(main)
    return transcript


# -- shared counter --------------------------------------------------------


SharedCounter = LinearToShared(SendValue(int, Z))


def shared_counter_provider(value: int = 0) -> SharedSession:
    """Serves one fresh count per acquisition, forever."""

    async def produce():
        return value, detach_shared_session(shared_counter_provider(value + 1))

    return shared_session(
        SharedCounter, accept_shared_session(send_value_async(produce))
    )


def shared_counter_client(chan) -> Session:
    """Acquire, receive one count, release, terminate."""

    def body(c):
        def on_value(value):
            record_event("RECV", value)
            return release_shared_session(c, terminate())

        return receive_value_from(c, on_value)

    return session(End, acquire_shared_session(chan, body))


def shared_counter_demo(clients: int = 2) -> Transcript:
    """`clients` concurrent clients each take one count from one shared
    counter process; counts are unique and critical sections disjoint."""
    if clients < 0:
        raise ValueError("clients must be non-negative")

    async def main():
        async with run_shared_session(shared_counter_provider(0)) as chan:
            runs = [
                run_session(shared_counter_client(chan.clone())) for _ in range(clients)
            ]
            await asyncio.gather(*runs)

    transcript, _ = _run_demo(main)
    return transcript


# -- canvas ----------------------------------------------------------------


@dataclass(frozen=True)
class Size2D:
    width: int
    height: int

    def __str__(self):
        return f"{self.width}x{self.height}"


@dataclass(frozen=True)
class MoveTo:
    x: int
    y: int

    def __str__(self):
        return f"MoveTo({self.x},{self.y})"


@dataclass(frozen=True)
class LineTo:
    x: int
    y: int

    def __str__(self):
        return f"LineTo({self.x},{self.y})"


Canvas2dMsg = (MoveTo, LineTo)

# A canvas accepts drawing messages until its client closes it.
Canvas = Fix(ExternalChoice(ReceiveValue(Canvas2dMsg, Z), End))

# The constellation hands out canvases: size in, id out, canvas channel out.
ConstellationCanvas = LinearToShared(
    ReceiveValue(Size2D, SendValue(int, SendChannel(Canvas, Z)))
)


def canvas_provider(canvas_id: int) -> Session:
    """One canvas: records every drawing message it is asked to perform."""

    def body():
        def on_message(message):
            record_event("RECV", f"canvas-{canvas_id} {message}")
            return body()

        return fix_session(offer_choice(receive_value(on_message), terminate()))

    return session(Canvas, body())


def constellation_provider(next_id: int = 1) -> SharedSession:
    """The shared canvas factory; ids are handed out from a counter."""

    def on_size(size: Size2D):
        canvas_id = next_id
        return send_value(
            canvas_id,
            include_session(
                canvas_provider(canvas_id),
                lambda c: send_channel_from(
                    c, detach_shared_session(constellation_provider(canvas_id + 1))
                ),
            ),
        )

    return shared_session(
        ConstellationCanvas, accept_shared_session(receive_value(on_size))
    )


def canvas_client(chan, size: Size2D, messages) -> Session:
    """Create one canvas, draw the given messages on it, close it."""
    messages = list(messages)

    def draw(canvas, remaining):
        if not remaining:
            return unfix_session_for(
                canvas, choose_right(canvas, wait(canvas, terminate()))
            )
        return unfix_session_for(
            canvas,
            choose_left(
                canvas,
                send_value_to(canvas, remaining[0], draw(canvas, remaining[1:])),
            ),
        )

    def acquired(c):
        def on_id(canvas_id):
            record_event("RECV", f"id {canvas_id}")
            return receive_channel_from(
                c,
                lambda canvas: release_shared_session(c, draw(canvas, messages)),
            )

        return send_value_to(c, size, receive_value_from(c, on_id))

    return session(End, acquire_shared_session(chan, acquired))


def canvas_demo() -> Transcript:
    """Two clients each create a canvas, draw on it, and close it."""

    async def main():
        plans = [
            (Size2D(100, 80), [MoveTo(0, 0), LineTo(10, 0), LineTo(10, 10)]),
            (Size2D(64, 64), [MoveTo(5, 5), LineTo(6, 7)]),
        ]
        async with run_shared_session(constellation_provider(1)) as chan:
            runs = [run_session(canvas_client(chan.clone(), *plan)) for plan in plans]
            await asyncio.gather(*runs)

    transcript, _ = _run_demo(main)
    return transcript


def run_demo(name: str, **kwargs) -> Transcript:
    """Entry point used by the CLI; dispatches on the demo name."""
    if name == "hello":
        return hello_demo(**kwargs)
    if name == "counter":
        return counter_demo(**kwargs)
    if name == "shared-counter":
        return shared_counter_demo(**kwargs)
    if name == "canvas":
        return canvas_demo(**kwargs)
    raise ValueError(f"unknown demo {name!r}")
