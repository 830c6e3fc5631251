"""Execution primitives: one-shot channels, step messages, task spawning.

Every protocol step communicates over a fresh one-shot channel with
capacity one: the send never blocks, the channel carries at most one
payload, and each endpoint may be used once. A channel is one future; each
endpoint holds it in one slot and empties the slot when it is used, so an
empty slot marks a used endpoint. The sending endpoint of a fresh step
channel belongs to the provider and the receiving endpoint to the client.

A step message, as `protocols.payload_of` describes it, is a bare signal
or a pair `(carried, continuation)`: a value, channel or branch tag, and
the peer's end of the next step channel. The typing rules send every such
pair through `emit`, `ask` and `answer`. In a reversed step the provider
sends a fresh sender, never holding a receiver, and the client answers.

Task spawning is funneled through `spawn()` so an alternate scheduler can
be swapped in one place. A spawned task joins the ambient `RunContext`; the
first exception in any task of a run cancels the whole run.
"""

from __future__ import annotations

import asyncio
import contextvars

from .errors import RuntimeViolation
from .instrument import active_recorder


class Signal:
    """Zero-payload wire token (termination, acknowledgement)."""

    __slots__ = ("name",)

    def __init__(self, name: str):
        self.name = name

    def __repr__(self):
        return f"<signal {self.name}>"


END = Signal("end")
ACK = Signal("ack")

# Sentinel delivered when a sending endpoint is dropped without ever being
# used; the paired receive raises instead of blocking forever.
_DROPPED = Signal("endpoint dropped")

LEFT = "left"
RIGHT = "right"


class Sender:
    """Provider-held endpoint of a one-shot step channel."""

    __slots__ = ("_future",)

    def __init__(self, future: asyncio.Future):
        self._future = future

    def send(self, payload) -> None:
        future, self._future = self._future, None
        if future is None:
            raise RuntimeViolation("one-shot channel endpoint used twice (send)")
        future.set_result(payload)
        rec = active_recorder()
        if rec is not None:
            rec.endpoint_consumed()

    def __del__(self):
        # Dropped unused: wake the receiver instead of leaving it blocked.
        future = getattr(self, "_future", None)
        if future is not None and not future.done():
            try:
                future.set_result(_DROPPED)
            except RuntimeError:
                pass  # event loop already closed


class Receiver:
    """Client-held endpoint of a one-shot step channel."""

    __slots__ = ("_future",)

    def __init__(self, future: asyncio.Future):
        self._future = future

    async def recv(self):
        future, self._future = self._future, None
        if future is None:
            raise RuntimeViolation("one-shot channel endpoint used twice (recv)")
        payload = await future
        if payload is _DROPPED:
            raise RuntimeViolation(
                "the sending endpoint of this channel was dropped unused"
            )
        rec = active_recorder()
        if rec is not None:
            rec.endpoint_consumed()
        return payload


def channel() -> tuple[Sender, Receiver]:
    """A fresh one-shot channel: one future, held by both endpoints."""
    future = asyncio.get_running_loop().create_future()
    rec = active_recorder()
    if rec is not None:
        rec.channel_created()
    return Sender(future), Receiver(future)


def emit(offer: Sender, carried) -> Sender:
    """Provider side of a direct step; returns the next step's sender."""
    sender, receiver = channel()
    offer.send((carried, receiver))
    return sender


def ask(offer: Sender):
    """Provider side of a reversed step; returns the awaitable reply pair."""
    sender, receiver = channel()
    offer.send(sender)
    return receiver.recv()


def answer(outbound: Sender, carried) -> Receiver:
    """Client side of a reversed step; returns the next step's receiver."""
    sender, receiver = channel()
    outbound.send((carried, sender))
    return receiver


class RunContext:
    """Tracks the tasks of one run so failures propagate and nothing leaks.

    `tasks` holds only the run's live tasks, in spawn order; each is
    dropped when it finishes. `on_failure` holds callbacks that run once,
    with the exception, when the run first fails; a shared process
    registers one for each critical section the run holds, so a client
    that ends without releasing fails the shared process.
    """

    def __init__(self):
        self.tasks: dict[asyncio.Task, None] = {}
        self.failure: BaseException | None = None
        self.on_failure: set = set()

    def _on_done(self, task: asyncio.Task) -> None:
        del self.tasks[task]
        if task.cancelled():
            return
        exc = task.exception()
        if exc is not None and self.failure is None:
            self.fail(exc)

    def add(self, task: asyncio.Task) -> None:
        self.tasks[task] = None
        task.add_done_callback(self._on_done)

    def fail(self, exc: BaseException) -> None:
        """Abort the run: record its first failure, run the failure hooks and
        cancel every task still running."""
        if self.failure is None:
            self.failure = exc
            hooks, self.on_failure = self.on_failure, set()
            for hook in hooks:
                hook(exc)
        for task in self.tasks:
            task.cancel()

    async def drain(self) -> None:
        # Each task's `_on_done` runs before gather's own callback, so any
        # failure is recorded by the time gather returns.
        while self.tasks:
            await asyncio.gather(*self.tasks, return_exceptions=True)
        if self.failure is not None:
            raise self.failure


_run_context: contextvars.ContextVar[RunContext | None] = contextvars.ContextVar(
    "sessia_run_context", default=None
)


def current_run() -> RunContext | None:
    return _run_context.get()


def set_run(ctx: RunContext):
    return _run_context.set(ctx)


def reset_run(token) -> None:
    _run_context.reset(token)


def spawn(coro) -> asyncio.Task:
    """Start a concurrent provider task under the ambient run context."""
    task = asyncio.get_running_loop().create_task(coro)
    ctx = _run_context.get()
    if ctx is not None:
        ctx.add(task)
    return task
