"""Execution primitives: one-shot channels, step messages, the run scheduler.

Every protocol step communicates over a fresh one-shot channel with
capacity one: the send never blocks, the channel carries at most one
payload, and each endpoint may be used once. The receiver is the channel:
it holds the payload and the driver parked on it, and the sender holds the
receiver in one field, which the send empties, so an empty field marks a
used sender and a taken payload a used receiver. The sending endpoint of a
fresh step channel belongs to the provider and the receiving endpoint to
the client.

A step message, as `protocols.payload_of` describes it, is a bare signal
or a pair `(carried, continuation)`: a value, channel or branch tag, and
the peer's end of the next step channel. The typing rules send every such
pair through `emit`, `ask` and `answer`. In a reversed step the provider
sends a fresh sender, never holding a receiver, and the client answers;
`ask` returns the receiver of that answer.

A run is a scheduler: `RunContext` steps the `drive` coroutines that
`run_session`, `cut`, `include_session` and each acquire of a shared
process start on the task awaiting the run, each as the loop's current
task. A shared process has no task of its own: its critical sections are
drivers of the runs that acquire it. A driver takes a payload that has
arrived with `Receiver.poll`, without suspending; awaiting an empty
receiver parks the driver there, and the send that fills it readies the
driver with no event-loop iteration. A driver awaiting a foreign future (a
sleep, a contended acquire) parks on its done callback. Only a driver can
park: a receive on an empty channel outside any run raises
`RuntimeViolation`, and a failure reaches every parked driver through
`RunContext.fail`.
"""

from __future__ import annotations

import asyncio
import contextvars
from asyncio.tasks import _enter_task, _leave_task
from collections import deque
from functools import partial

from .errors import RuntimeViolation
from .instrument import active_recorder, refuse_reuse

# Steps a run takes before it gives the event loop a turn. A count, not a
# time, so the run yields as often on a slow host as on a fast one.
STEPS_PER_TURN = 100


class Signal:
    """Zero-payload wire token (termination, acknowledgement)."""

    __slots__ = ("name",)

    def __init__(self, name: str):
        self.name = name

    def __repr__(self):
        return f"<signal {self.name}>"


END = Signal("end")
ACK = Signal("ack")

LEFT = "left"
RIGHT = "right"

# What `Receiver.poll` returns before the send (None is a payload), a
# receiver's payload once taken, and what a driver that parks on a receiver
# yields to its scheduler.
PENDING, _TAKEN, _PARK = object(), object(), object()


class Receiver:
    """Client-held endpoint of a one-shot step channel, and the channel
    itself: the payload once sent, and the driver parked on it."""

    __slots__ = ("payload", "waiter")

    def __init__(self):
        self.payload = PENDING
        self.waiter: _Driver | None = None

    def poll(self):
        """Take the payload if it has arrived, without suspending; PENDING
        if it has not, and then awaiting the receiver takes it."""
        payload = self.payload
        if payload is _TAKEN or self.waiter is not None:
            refuse_reuse("one-shot channel endpoint used twice (recv)")
        if payload is not PENDING:
            self.payload = _TAKEN
            rec = active_recorder()
            if rec is not None:
                rec.endpoint_consumed()
        return payload

    def __await__(self):
        if self.payload is PENDING and self.waiter is None:
            driver = asyncio.current_task()
            if type(driver) is not _Driver:
                raise RuntimeViolation(
                    "receive on an empty channel outside any run: only a driver of "
                    "a run can wait for its peer (start one with sessia.runtime.start)"
                )
            self.waiter = driver
            driver.waiting = self
            yield _PARK
            self.waiter = None
        return self.poll()

    async def recv(self):
        return await self


class Sender:
    """Provider-held endpoint of a one-shot step channel."""

    __slots__ = ("_receiver",)

    def __init__(self, receiver: Receiver):
        self._receiver = receiver

    def send(self, payload) -> None:
        receiver, self._receiver = self._receiver, None
        if receiver is None:
            refuse_reuse("one-shot channel endpoint used twice (send)")
        receiver.payload = payload
        waiter = receiver.waiter
        if waiter is not None:
            waiter.run._resume(waiter, receiver)
        rec = active_recorder()
        if rec is not None:
            rec.endpoint_consumed()


def channel() -> tuple[Sender, Receiver]:
    """A fresh one-shot channel: a receiver, and the sender that fills it."""
    receiver = Receiver()
    rec = active_recorder()
    if rec is not None:
        rec.channel_created()
    return Sender(receiver), receiver


def emit(offer: Sender, carried) -> Sender:
    """Provider side of a direct step; returns the next step's sender."""
    sender, receiver = channel()
    offer.send((carried, receiver))
    return sender


def ask(offer: Sender) -> Receiver:
    """Provider side of a reversed step; returns the receiver of the reply
    pair."""
    sender, receiver = channel()
    offer.send(sender)
    return receiver


def answer(outbound: Sender, carried) -> Receiver:
    """Client side of a reversed step; returns the next step's receiver."""
    sender, receiver = channel()
    outbound.send((carried, sender))
    return receiver


class _Driver:
    """A coroutine of a run, stepped in its own context and as the current
    task, so it cancels and counts cancel requests as an `asyncio.Task` does,
    for `asyncio.timeout` and `TaskGroup`; `waiting` holds what it is parked
    on, None while it is ready."""

    __slots__ = ("coro", "run", "context", "waiting", "exc", "cancels", "__weakref__")

    def __init__(self, coro, run: RunContext):
        self.coro = coro
        self.run = run
        self.context = contextvars.copy_context()
        self.waiting = None
        self.exc: BaseException | None = None
        self.cancels = 0

    def done(self) -> bool:
        return self not in self.run.tasks

    def cancel(self, msg=None) -> bool:
        if self.done():
            return False
        self.cancels += 1
        waiting = self.waiting
        if asyncio.isfuture(waiting) and waiting.cancel(msg):
            return True  # its done callback readies the driver
        self.exc = asyncio.CancelledError(*(() if msg is None else (msg,)))
        if waiting is not None:
            self.run._resume(self, waiting)
        return True

    def cancelling(self) -> int:
        return self.cancels

    def uncancel(self) -> int:
        self.cancels = max(self.cancels - 1, 0)
        return self.cancels


class RunContext:
    """The scheduler of one run: its drivers, and how the run fails.

    `tasks` holds only the run's live drivers, in spawn order; each is
    dropped when it finishes. The run's first failure, kept in `failure`,
    cancels every other driver, the critical sections it holds among them,
    and a section cancelled that way fails its shared process.
    """

    def __init__(self):
        self.tasks: dict[_Driver, None] = {}
        self.failure: BaseException | None = None
        self.ready: deque[_Driver] = deque()
        self._waker: asyncio.Future | None = None

    def _resume(self, driver: _Driver, parked_on) -> None:
        # A stale wake-up, for a driver that has moved on, is dropped.
        if driver.waiting is parked_on:
            driver.waiting = None
            self.ready.append(driver)
            waker, self._waker = self._waker, None
            if waker is not None and not waker.done():
                waker.set_result(None)

    def _step_ready(self) -> None:
        """Step ready drivers until none is ready or the turn is spent."""
        ready, loop = self.ready, asyncio.get_running_loop()
        outer = asyncio.current_task(loop)
        _leave_task(loop, outer)
        try:
            for _ in range(STEPS_PER_TURN):
                if not ready:
                    return
                driver = ready.popleft()
                exc, driver.exc = driver.exc, None
                step = driver.coro.send if exc is None else driver.coro.throw
                _enter_task(loop, driver)
                try:
                    yielded = driver.context.run(step, exc)
                except BaseException as exc:
                    del self.tasks[driver]
                    if self.failure is None and not isinstance(exc, StopIteration):
                        self.fail(exc)
                    if isinstance(exc, (KeyboardInterrupt, SystemExit)):
                        raise  # at once, as from an asyncio task
                    continue
                finally:
                    _leave_task(loop, driver)
                if yielded is _PARK:
                    if driver.exc is not None:  # cancelled in its own step
                        self._resume(driver, driver.waiting)
                elif getattr(yielded, "_asyncio_future_blocking", False):
                    yielded._asyncio_future_blocking = False
                    driver.waiting = yielded
                    yielded.add_done_callback(partial(self._resume, driver))
                    if driver.exc is not None:  # cancelled in its own step
                        yielded.cancel()
                elif yielded is None:  # a bare yield, as in asyncio.sleep(0)
                    ready.append(driver)
                    return  # the rest of the event loop goes first
                else:
                    driver.exc = RuntimeError(f"a session driver yielded {yielded!r}")
                    ready.append(driver)
        finally:
            _enter_task(loop, outer)

    def fail(self, exc: BaseException) -> None:
        """Abort the run: record its first failure and cancel every driver
        still running, as `Task.cancel` would."""
        if self.failure is None:
            self.failure = exc
        for driver in self.tasks:
            driver.cancel()

    async def drain(self) -> None:
        """Step the drivers until all have ended, then raise the run's
        failure; a cancel from outside fails the run and is raised last.

        A run gives the event loop at least one turn, so a task that awaits
        many short runs in a row does not starve the rest of the loop."""
        cancelled, turned = None, False
        while self.tasks:
            try:
                if not self.ready:
                    turned = True
                    self._waker = asyncio.get_running_loop().create_future()
                    await self._waker
                self._step_ready()
                if self.ready:
                    turned = True
                    await asyncio.sleep(0)  # the event loop's turn
            except asyncio.CancelledError as exc:
                cancelled = exc
                self.fail(exc)
        if not turned:
            await asyncio.sleep(0)
        failure = cancelled or self.failure
        if failure is not None:
            raise failure


_run_context: contextvars.ContextVar[RunContext | None] = contextvars.ContextVar(
    "sessia_run_context", default=None
)


def current_run() -> RunContext | None:
    return _run_context.get()


async def start(*coros) -> None:
    """Run the coroutines, in order, as the drivers of one fresh run until
    all have ended; raise the run's failure."""
    run = RunContext()
    token = _run_context.set(run)
    try:
        for coro in coros:
            spawn(coro)
        await run.drain()
    finally:
        _run_context.reset(token)


def spawn(coro):
    """Start a concurrent provider as a driver of the ambient run. Outside
    any run, return `start(coro)`, a run of its own for the caller to await."""
    run = _run_context.get()
    if run is None:
        return start(coro)
    driver = _Driver(coro, run)
    run.tasks[driver] = None
    run._resume(driver, None)  # a new driver waits on nothing
    return driver
