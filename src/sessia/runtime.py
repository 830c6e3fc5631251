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
pair through `emit`, `ask` and `answer`, each one call that makes the next
step's channel and fills the current one itself. In a reversed step the
provider sends a fresh sender, never holding a receiver, and the client
answers; `ask` returns the receiver of that answer.

A run is a scheduler that steps checked programs itself: `RunContext` steps
the drivers that `run_session`, `cut`, `include_session` and each acquire
of a shared process start, on the task awaiting the run, each in its own
context and as the loop's current task. A program's check set its `execute`
slot to its step; a step `(program, endpoints, offer)` empties that slot,
the one-shot record's second and last transition, and calls the step, or
waits itself at the lens of a client rule, `forward` or `case`, whose step
is `lens_step`, with no call. The call returns the next step, a wait
`(source, after)`, or None once the driver is done. A wait's value is a
receiver's payload, what an awaitable gives, or the source itself, and
`after(program, value, endpoints, offer)` returns a step, a wait or None in
turn; a driver's steps update its one endpoints list in place. A driver
waiting on an empty receiver parks there, its pending wait kept in its own
slots, and the send that fills the receiver readies it inline, with no
event-loop iteration; a contended acquire parks its driver on the shared
channel, and the release readies it the same way. A coroutine is made only
to await an async continuation, and the driver parks on each future it
awaits through the future's done callback. Only a driver can park: a
receive on an empty channel outside any run raises `RuntimeViolation`, and
a failure reaches every parked driver through `RunContext.fail`.
"""

from __future__ import annotations

import asyncio
import contextvars
from asyncio.tasks import _enter_task, _leave_task
from collections import deque
from functools import partial
from inspect import isawaitable
from types import CoroutineType, GeneratorType

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
# receiver's payload once taken, what a driver that parks itself yields to
# its scheduler, and what a driver that has ended returns.
PENDING, _TAKEN, _PARK, _DONE = object(), object(), object(), object()

# Awaitables a driver steps as they are; only a generator needs `isawaitable`.
_STEPPED = (CoroutineType, GeneratorType)


class Receiver:
    """Client-held endpoint of a one-shot step channel, and the channel
    itself: the payload once sent, and the driver parked on it."""

    __slots__ = ("payload", "waiter")

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

    def send(self, payload) -> None:
        receiver, self._receiver = self._receiver, None
        if receiver is None:
            refuse_reuse("one-shot channel endpoint used twice (send)")
        receiver.payload = payload
        waiter = receiver.waiter
        if waiter is not None and waiter.waiting is receiver:  # else a stale wake-up
            waiter.waiting = None
            waiter.run.ready.append(waiter)
            if waiter.run._waker is not None:
                waiter.run._wake()
        rec = active_recorder()
        if rec is not None:
            rec.endpoint_consumed()


def channel() -> tuple[Sender, Receiver]:
    """A fresh one-shot channel: a receiver, and the sender that fills it.
    It is the one maker of both, which have no `__init__`: it sets their slots."""
    receiver = Receiver()
    receiver.payload = PENDING
    receiver.waiter = None
    sender = Sender()
    sender._receiver = receiver
    rec = active_recorder()
    if rec is not None:
        rec.channel_created()
    return sender, receiver


def emit(offer: Sender, carried) -> Sender:
    """Provider side of a direct step: send `carried` with the receiver of
    a fresh channel; return that channel's sender, the next step's."""
    # `channel()` and `Sender.send`, inline, here and in `answer`: one call.
    receiver, offer._receiver = offer._receiver, None
    if receiver is None:
        refuse_reuse("one-shot channel endpoint used twice (send)")
    sender, fresh = Sender(), Receiver()
    sender._receiver, fresh.payload, fresh.waiter = fresh, PENDING, None
    receiver.payload = carried, fresh
    waiter = receiver.waiter
    if waiter is not None and waiter.waiting is receiver:
        waiter.waiting = None
        waiter.run.ready.append(waiter)
        if waiter.run._waker is not None:
            waiter.run._wake()
    rec = active_recorder()
    if rec is not None:
        rec.channel_created()
        rec.endpoint_consumed()
    return sender


def answer(outbound: Sender, carried=PENDING) -> Receiver:
    """Client side of a reversed step: send `carried` with the sender of a
    fresh channel; return that channel's receiver, the next step's. As
    `ask(offer)`, with nothing carried, the provider side: send the bare
    sender, and return the receiver of the client's reply."""
    receiver, outbound._receiver = outbound._receiver, None
    if receiver is None:
        refuse_reuse("one-shot channel endpoint used twice (send)")
    sender, fresh = Sender(), Receiver()
    sender._receiver, fresh.payload, fresh.waiter = fresh, PENDING, None
    receiver.payload = sender if carried is PENDING else (carried, sender)
    waiter = receiver.waiter
    if waiter is not None and waiter.waiting is receiver:
        waiter.waiting = None
        waiter.run.ready.append(waiter)
        if waiter.run._waker is not None:
            waiter.run._wake()
    rec = active_recorder()
    if rec is not None:
        rec.channel_created()
        rec.endpoint_consumed()
    return fresh


ask = answer


def lens_step(program, endpoints, offer):
    """The step of a client rule, `forward` or `case`: wait for the message
    at its level `n` for its `_received`. The scheduler waits itself, with
    no call."""
    return endpoints[program.n], type(program)._received


class _Driver:
    """A driver of a run: a chain of checked programs' steps, or a plain
    coroutine, stepped in its own context and as the current task, so it
    cancels and counts cancel requests as an `asyncio.Task` does, for
    `asyncio.timeout` and `TaskGroup`. `spawn` sets its slots: `program`
    or, with no `after`, a plain coroutine `coro` to step first. A park
    keeps the receiver or shared channel waited on in `source`, or the
    awaitable in `coro`, with the `after`, `program`, `endpoints` and
    `offer` that take its value. `waiting` is what it is parked on: a
    `Receiver`, a `SharedChannel` or a future; None while it is ready."""

    __slots__ = (
        "coro", "source", "after", "program", "endpoints", "offer", "on_failure",
        "run", "context", "waiting", "exc", "cancels", "__weakref__",
    )

    def advance(self):
        """Take the value the driver waits for and run its steps up to a
        wait with no value yet; return what it parks on, what its coroutine
        yields, or _DONE. A cancel is thrown into its coroutine, else
        raised at its wait."""
        exc, self.exc = self.exc, None
        coro, source, after = self.coro, self.source, self.after
        program, endpoints, offer = self.program, self.endpoints, self.offer
        try:
            # One pass per step: `program` steps, or the driver takes the value of
            # `source`, None too, for a wait's `after`; the next step is the result.
            while True:
                if coro is not None:
                    try:
                        parked = coro.send(None) if exc is None else coro.throw(exc)
                    except StopIteration as stop:
                        self.coro = coro = exc = None
                        if after is None:  # a plain coroutine has returned
                            return _DONE
                        step, after = after(program, stop.value, endpoints, offer), None
                    else:
                        self.coro, self.source, self.after = coro, None, after
                        self.program, self.endpoints = program, endpoints
                        self.offer = offer
                        return parked
                elif exc is not None:
                    raise exc
                elif after is None:
                    execute, program.execute = program.execute, None
                    if execute is None:
                        refuse_reuse(f"{program._rule}: executor invoked twice")
                    rec = active_recorder()
                    if rec is not None:
                        rec.executor_ran(program._rule)
                    if not isinstance(offer, Sender):
                        if rec is not None:
                            rec.polarity_violation()
                        raise RuntimeViolation(
                            f"{program._rule}: executor needs the provider-side "
                            f"sending endpoint"
                        )
                    if execute is lens_step:
                        source, after = endpoints[program.n], type(program)._received
                    else:
                        step = execute(program, endpoints, offer)
                if after is not None:
                    if type(source) is Receiver:
                        value, waiter = source.payload, source.waiter
                        if value is _TAKEN or waiter is not None and waiter is not self:
                            refuse_reuse("one-shot channel endpoint used twice (recv)")
                        if value is PENDING:
                            source.waiter, self.waiting = self, source
                            break
                        source.payload, source.waiter = _TAKEN, None
                        rec = active_recorder()
                        if rec is not None:
                            rec.endpoint_consumed()
                    elif hasattr(source, "__await__") or (
                        type(source) is GeneratorType and isawaitable(source)
                    ):  # the continuation chose to be asynchronous
                        stepped = type(source) in _STEPPED
                        coro = source if stepped else source.__await__()
                        continue
                    elif self.waiting is None:
                        value = source
                    else:  # its step parked it, as an acquire that queues does
                        break
                    step = after(program, value, endpoints, offer)
                if step is None:
                    return _DONE
                if len(step) == 3:
                    program, endpoints, offer = step
                    after = None
                else:
                    source, after = step
            self.source, self.after = source, after
            self.program, self.endpoints, self.offer = program, endpoints, offer
            return _PARK
        except BaseException as exc:
            if self.on_failure is not None:
                self.on_failure(exc)
            raise

    def done(self) -> bool:
        return self not in self.run.tasks

    def cancel(self, msg=None) -> bool:
        if self.done():
            return False
        self.cancels += 1
        waiting = self.waiting  # a Receiver, a SharedChannel, a future or None
        if asyncio.isfuture(waiting) and waiting.cancel(msg):
            return True  # its done callback readies the driver
        self.exc = asyncio.CancelledError(*(() if msg is None else (msg,)))
        if waiting is not None:
            self.run._resume(self, waiting)
        elif hasattr(self.program, "_cancelled"):  # ready, at an acquire's wait
            self.program._cancelled(self)
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
        # A stale wake-up, for a driver that has moved on, is dropped. A send
        # readies the driver parked on its receiver as this does, inline.
        if driver.waiting is parked_on:
            driver.waiting = None
            self.ready.append(driver)
            if self._waker is not None:
                self._wake()

    def _wake(self) -> None:
        """Wake the task awaiting the run, idle until a driver is ready."""
        waker, self._waker = self._waker, None
        if not waker.done():
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
                _enter_task(loop, driver)
                try:
                    parked = driver.context.run(driver.advance)
                except BaseException as exc:
                    del self.tasks[driver]
                    if self.failure is None:
                        self.fail(exc)
                    if isinstance(exc, (KeyboardInterrupt, SystemExit)):
                        raise  # at once, as from an asyncio task
                    continue
                finally:
                    _leave_task(loop, driver)
                if parked is _PARK:
                    if driver.exc is not None:  # cancelled in its own step
                        self._resume(driver, driver.waiting)
                elif parked is _DONE:
                    del self.tasks[driver]
                elif getattr(parked, "_asyncio_future_blocking", False):
                    parked._asyncio_future_blocking = False
                    driver.waiting = parked
                    parked.add_done_callback(partial(self._resume, driver))
                    if driver.exc is not None:  # cancelled in its own step
                        parked.cancel()
                elif parked is None:  # a bare yield, as in asyncio.sleep(0)
                    ready.append(driver)
                    return  # the rest of the event loop goes first
                else:
                    driver.exc = RuntimeError(f"a session driver yielded {parked!r}")
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


_run_context: contextvars.ContextVar[RunContext | None] = contextvars.ContextVar(
    "sessia_run_context", default=None
)


def current_run() -> RunContext | None:
    return _run_context.get()


async def start(*coros, main=None) -> None:
    """Run `main`, a checked program offering End over no channels, then
    the coroutines, as the drivers of one fresh run until all have ended;
    raise the run's failure, and a cancel from outside last. A run gives
    the event loop at least one turn, so that a task awaiting many short
    runs in a row does not starve the rest of the loop."""
    run, result = RunContext(), None
    token = _run_context.set(run)
    try:
        if main is not None:
            offer, result = channel()
            spawn(main, [], offer)
            main = None  # the spent part of the program is not kept alive
        for coro in coros:
            spawn(coro)
        cancelled, turned = None, False
        while run.tasks:
            try:
                if not run.ready:
                    turned = True
                    run._waker = asyncio.get_running_loop().create_future()
                    await run._waker
                run._step_ready()
                if run.ready:
                    turned = True
                    await asyncio.sleep(0)  # the event loop's turn
            except asyncio.CancelledError as exc:
                cancelled = exc
                run.fail(exc)
        if not turned:
            await asyncio.sleep(0)
    finally:
        _run_context.reset(token)
    failure = cancelled or run.failure
    if failure is not None:
        raise failure
    if result is not None:
        signal = result.poll()  # sent by the time every driver ended
        if signal is not END:
            raise RuntimeViolation(f"run_session: expected termination, got {signal!r}")


def spawn(provider, endpoints=(), offer=None, on_failure=None):
    """Start a driver of the ambient run: the coroutine `provider` or,
    given its `offer`, the checked program `provider` over `endpoints`,
    which it then owns. `on_failure(exc)` runs in the driver if it fails.
    Outside any run, return `start(provider)` for a coroutine, a run to await."""
    run = _run_context.get()
    if run is None:
        return start(provider)
    driver = _Driver()
    driver.coro = provider if offer is None else None
    driver.program = None if offer is None else provider
    driver.endpoints = list(endpoints) if type(endpoints) is tuple else endpoints
    driver.offer, driver.on_failure = offer, on_failure
    driver.source = driver.after = driver.waiting = driver.exc = None
    driver.run, driver.context, driver.cancels = run, contextvars.copy_context(), 0
    run.tasks[driver] = None
    run.ready.append(driver)
    if run._waker is not None:
        run._wake()
    return driver
