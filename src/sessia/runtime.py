"""Execution primitives: one-shot channels, wire signals, task spawning.

Every protocol step communicates over a fresh one-shot channel with
capacity one: the send never blocks, the channel carries at most one
payload, and each endpoint may be used once. A channel is one future; each
endpoint holds it in one slot and empties the slot when it is used, so an
empty slot marks a used endpoint. The sending endpoint of a
freshly created step channel belongs to the provider and the receiving
endpoint to the client; reversal, where needed, is done by nesting a fresh
sender inside a payload, never by handing a provider a receiver.

Task spawning is funneled through `spawn()` so an alternate scheduler can
be swapped in one place. A spawned task joins the ambient `RunContext`; the
first exception in any task of a run cancels the whole run.
"""

from __future__ import annotations

import asyncio
import contextvars
from dataclasses import dataclass

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


@dataclass(frozen=True)
class Branch:
    """Wire tag for a binary choice, paired with a continuation endpoint."""

    side: str
    endpoint: object = None


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


class RunContext:
    """Tracks the tasks of one run so failures propagate and nothing leaks.

    `on_failure` holds callbacks that run once, with the exception, when the
    run first fails; a shared process registers one for each critical
    section the run holds, so a client that ends without releasing fails
    the shared process.
    """

    def __init__(self):
        self.tasks: list[asyncio.Task] = []
        self.failure: BaseException | None = None
        self.on_failure: set = set()

    def _on_done(self, task: asyncio.Task) -> None:
        if task.cancelled():
            return
        exc = task.exception()
        if exc is not None and self.failure is None:
            self.fail(exc)

    def add(self, task: asyncio.Task) -> None:
        self.tasks.append(task)
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
            if not task.done():
                task.cancel()

    async def drain(self) -> None:
        if self.tasks:
            results = await asyncio.gather(*self.tasks, return_exceptions=True)
            if self.failure is None:
                for result in results:
                    if isinstance(result, BaseException) and not isinstance(
                        result, asyncio.CancelledError
                    ):
                        self.fail(result)
                        break
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
