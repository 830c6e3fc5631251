"""Shared session types: acquire/release with a background shared process.

A shared protocol `LinearToShared(body)` is inherently recursive: every
client that acquires it gets the same linear critical section, and the
section must end by releasing back to the very same shared type (strict
equi-synchronization). That constraint is enforced structurally:
`shared_type_apply` runs the one substitution traversal of `recursion.py`
but treats every leaf other than `Z` as an error. A body with an `End`, a
nested `Fix` or a release step of its own at the end of some path has a
path that never releases back to the shared type, and cannot form one.

At runtime one background task owns the shared process. It serves acquire
requests strictly FIFO, runs each critical section on that task, and only
moves to the next request after the releasing client has acknowledged the
release — so critical sections never overlap. The `Lock` slot is the
runtime witness of being inside a critical section: `accept` plants it at
slot 0 and `detach` consumes it to hand the continuation of the shared
process back to the loop.

A shared *channel* may be aliased, but the checked shared program behind it
is linear. A `SharedSession` is consumed when it is linked, as a checked
`Session` is: by `run_shared_session`, or when the `detach_shared_session`
that continues with it is checked. Its executor sits in one slot that
linking empties, and an empty slot is the one-shot mark, so a reuse fails
with `LinearityError` where it is linked, never inside the running process.

Each acquire request carries the client's run, which the shared process
binds to the critical section before it hands over the linear channel and
which the client's release step unbinds. Failures reach every party:

* if the shared process fails, the run bound to it fails with the same
  exception, and every queued acquirer fails with a `RuntimeViolation`;
* if the bound run ends without releasing, by a failure or by being
  cancelled, the shared process fails with a `RuntimeViolation` caused by
  the client's exception, and stops.

Neither depends on garbage collection. An acquirer cancelled while queued
is skipped. Dropping every `SharedChannel` clone lets the loop exit once no
acquire is pending.
"""

from __future__ import annotations

import asyncio
import weakref
from collections import deque
from dataclasses import dataclass
from functools import cached_property

from .context import Empty, S, focus, live_slot, nat, put, show
from .core import (
    OneShotContinuation,
    PartialSession,
    drive,
    expect_program,
)
from .errors import (
    LinearityError,
    ProtocolError,
    RuntimeViolation,
    SharedTypeError,
)
from .instrument import record_event
from .protocols import Protocol, SharedProtocol, _End, check_protocol
from .recursion import Fix, substitute
from .runtime import ACK, channel, current_run


@dataclass(frozen=True)
class SharedToLinear(Protocol):
    """Release step: ends a critical section, zero payload on the wire."""

    body: Protocol

    _carried = ("body", None)
    _polarity = "reversed"


@dataclass(frozen=True)
class Lock(Protocol):
    """Critical-section token occupying slot 0 between accept and detach."""

    body: Protocol

    _carried = ("body", None)
    _polarity = None


_NOT_EQUI_SYNCHRONIZING = {
    _End: "End cannot appear at the recursion position of a shared session "
    "body; every path must release back to the shared type",
    Fix: "a nested fixed point cannot sit at the recursion position of a "
    "shared session body",
    SharedToLinear: "a release step cannot appear in a shared session body; "
    "Z marks the one release point, back to the shared type itself",
}


def _strict_leaf(f):
    reason = _NOT_EQUI_SYNCHRONIZING.get(type(f))
    if reason is not None:
        raise SharedTypeError(f"not strictly equi-synchronizing: {reason}")
    if isinstance(f, S):
        raise SharedTypeError(
            "multi-level recursion markers are not supported in shared bodies"
        )
    raise SharedTypeError(f"shared_type_apply: no rule for {f!r}")


def shared_type_apply(f: Protocol, x: Protocol) -> Protocol:
    """Substitute `x` at the recursion position of a shared session body.

    Unlike plain type application every leaf other than Z is an error:
    every path through the body must reach the recursion position, i.e.
    the release point.
    """
    return substitute(f, x, _strict_leaf)


@dataclass(frozen=True)
class LinearToShared(SharedProtocol):
    """Shared session type: acquire, run the linear body, release, repeat."""

    body: Protocol

    def __post_init__(self):
        check_protocol(self.body, "LinearToShared body")
        # Form the unrolling now: malformed bodies (e.g. an End leaf) are
        # rejected at type formation.
        self.unroll()

    @cached_property
    def _unrolling(self) -> Protocol:
        # Cached in the instance dict; equality and hashing stay field-based.
        return shared_type_apply(self.body, SharedToLinear(self.body))

    def unroll(self) -> Protocol:
        return self._unrolling

    def __str__(self):
        return f"LinearToShared({self.body})"


# -- shared program values -----------------------------------------------


class SharedSessionBuilder:
    """Unchecked shared program; becomes a SharedSession via shared_session.

    It holds only the critical-section program `cont`, so checking it twice
    is caught when `cont` is consumed the second time.
    """

    def __init__(self, cont: PartialSession):
        self.cont = cont


class SharedSession:
    """A checked shared program; inert until linked, and linked once.

    `run_shared_session`, or the check of a `detach_shared_session` that
    continues with it, empties its executor slot; a second link finds the
    slot empty and raises `LinearityError`.
    """

    def __init__(self, protocol: LinearToShared, executor):
        self._protocol = protocol
        self._executor = executor

    @property
    def protocol(self) -> LinearToShared:
        return self._protocol

    def _take_executor(self):
        if self._executor is None:
            raise LinearityError("shared session program already consumed")
        executor, self._executor = self._executor, None
        return executor

    def __repr__(self):
        return f"<SharedSession {self._protocol}>"


def shared_session(protocol: LinearToShared, program) -> SharedSession:
    """Check a shared program against the shared protocol it must offer."""
    if not isinstance(protocol, LinearToShared):
        raise SharedTypeError(
            f"shared_session: expected a LinearToShared protocol, got {protocol!r}"
        )
    if isinstance(program, SharedSession):
        if program.protocol != protocol:
            raise ProtocolError(
                f"shared session offers {program.protocol}, "
                f"but the expected protocol here is {protocol}"
            )
        return program
    if not isinstance(program, SharedSessionBuilder):
        raise ProtocolError(
            f"shared_session: expected a shared program "
            f"(accept_shared_session(...)), got {program!r}"
        )
    section = program.cont._resolve((Lock(protocol.body),), protocol.unroll())
    return SharedSession(protocol, section)


def accept_shared_session(cont) -> SharedSessionBuilder:
    """Accept one acquire: run `cont` as the critical section, holding the
    lock token at slot 0 and offering the unrolled shared body."""
    return SharedSessionBuilder(expect_program(cont, "accept_shared_session"))


def detach_shared_session(cont: SharedSession) -> PartialSession:
    """End the critical section: acknowledge the client's release and hand
    the continuation of the shared process back to its loop."""
    if not isinstance(cont, SharedSession):
        raise ProtocolError(
            f"detach_shared_session expects a checked SharedSession "
            f"to continue with, got {cont!r}"
        )

    def resolve(ctx, offer):
        if not isinstance(offer, SharedToLinear):
            raise ProtocolError(
                f"detach_shared_session offers SharedToLinear, "
                f"but the expected protocol here is {offer}"
            )
        if not ctx or ctx[0] != Lock(offer.body):
            raise ProtocolError(
                "detach_shared_session requires the critical-section lock "
                f"at slot 0 of {show(ctx)}"
            )
        live = live_slot(ctx[1:])
        if live is not None:
            raise LinearityError(
                f"detach_shared_session requires all other channels consumed; "
                f"slot {live[0] + 1} still holds {live[1]}"
            )
        expected = LinearToShared(offer.body)
        if cont.protocol != expected:
            raise ProtocolError(
                f"detach_shared_session: continuation offers {cont.protocol}, "
                f"expected {expected}"
            )
        following = cont._take_executor()

        async def execute(endpoints, offer_chan):
            section = endpoints[0]
            sender, receiver = channel()
            section.ack = sender
            # The client's release step acknowledges through the section.
            offer_chan.send(section)
            await receiver.recv()
            section.following = following

        return execute

    return PartialSession("detach_shared_session", resolve)


def acquire_shared_session(shared: SharedChannel, cont) -> PartialSession:
    """Wait for exclusive access to the shared process; the linear body
    channel is appended to the context and `cont` gets its lens."""
    if not isinstance(shared, SharedChannel):
        raise ProtocolError(
            f"acquire_shared_session expects a SharedChannel, got {shared!r}"
        )
    once = OneShotContinuation("acquire_shared_session", cont)

    def resolve(ctx, offer):
        premise = expect_program(
            once(nat(len(ctx))), "acquire_shared_session continuation"
        )
        exec_p = premise._resolve(ctx + (shared.protocol.unroll(),), offer)

        async def execute(endpoints, offer_chan):
            linear = await shared._request(current_run())
            record_event("ACQ")
            return exec_p, endpoints + (linear,), offer_chan

        return execute

    return PartialSession("acquire_shared_session", resolve)


def release_shared_session(n, cont) -> PartialSession:
    """Give up the critical section at slot `n`; the slot is consumed and
    the shared process becomes available to the next client."""
    expect_program(cont, "release_shared_session")

    def resolve(ctx, offer):
        slot = focus(n, ctx)
        if not isinstance(slot, SharedToLinear):
            raise ProtocolError(
                f"release_shared_session: lens {n.level}: slot has type {slot}; "
                f"the session has not reached its release point"
            )
        level = n.level
        exec_cont = cont._resolve(put(ctx, level, Empty), offer)

        async def execute(endpoints, offer_chan):
            outbound = await endpoints[level].recv()
            record_event("REL")
            outbound.send(ACK)
            return exec_cont, put(endpoints, level, ()), offer_chan

        return execute

    return PartialSession("release_shared_session", resolve, synth_protocol=cont._synth)


# -- the shared process --------------------------------------------------


class _Section:
    """Endpoint at the `Lock` slot of one critical section.

    While `run` is set, the client run that acquired the section is bound
    to it: the run's failure fails the shared process. The client's release
    step sends its acknowledgement through the section, which unbinds the
    run before it wakes `detach`; `detach` then leaves the executor of the
    shared process's next section in `following`.
    """

    __slots__ = ("state", "run", "ack", "following", "abandoned")

    def __init__(self, state: _SharedState, run):
        self.state = state
        self.run = run
        self.ack = None
        self.following = None
        self.abandoned: BaseException | None = None
        if run is not None:
            run.on_failure.add(self._client_failed)

    def unbind(self):
        run, self.run = self.run, None
        if run is not None:
            run.on_failure.discard(self._client_failed)
        return run

    def send(self, signal) -> None:
        self.unbind()
        self.ack.send(signal)

    def _client_failed(self, exc: BaseException) -> None:
        self.run = None
        self.abandoned = exc
        self.state.task.cancel()


class _SharedState:
    def __init__(self, protocol: LinearToShared):
        self.protocol = protocol
        self.requests: deque = deque()
        self.live_clones = 0
        self.loop = asyncio.get_running_loop()
        self.stopped = asyncio.Event()
        self.failure: BaseException | None = None
        self.task: asyncio.Task | None = None
        self._waiter: asyncio.Future | None = None

    def _wake(self):
        if self._waiter is not None and not self._waiter.done():
            self._waiter.set_result(None)

    def push_request(self, run) -> asyncio.Future:
        response = self.loop.create_future()
        self.requests.append((response, run))
        self._wake()
        return response

    def clone_created(self):
        self.live_clones += 1

    def clone_dropped(self):
        # May run from a GC finalizer; only schedule, never touch the loop.
        self.live_clones -= 1
        if self.live_clones <= 0:
            try:
                self.loop.call_soon_threadsafe(self._wake)
            except RuntimeError:
                pass

    async def next_request(self):
        while True:
            if self.requests:
                return self.requests.popleft()
            if self.live_clones <= 0:
                return None
            waiter = self.loop.create_future()
            self._waiter = waiter
            # Re-check after publishing the waiter: a clone may have died
            # between the check above and now.
            if (self.requests or self.live_clones <= 0) and not waiter.done():
                waiter.set_result(None)
            await waiter
            self._waiter = None


async def _serve(state: _SharedState, executor):
    section = None
    try:
        while True:
            request = await state.next_request()
            if request is None:
                break
            response, run = request
            if response.done():
                continue  # the acquirer was cancelled while queued
            section = _Section(state, run)
            linear_sender, linear_receiver = channel()
            response.set_result(linear_receiver)
            # The critical section runs here, on the shared process's task.
            await drive(executor, (section,), linear_sender)
            executor = section.following
            if executor is None:
                raise RuntimeViolation(
                    "shared process: a critical section ended without a detach"
                )
    except BaseException as exc:
        failure = exc
        if section is not None and section.abandoned is not None:
            failure = RuntimeViolation(
                "shared process: a client run ended inside its critical "
                "section without releasing it"
            )
            failure.__cause__ = section.abandoned
        elif section is not None and section.run is not None:
            section.unbind().fail(exc)
        state.failure = failure
        while state.requests:
            response, _ = state.requests.popleft()
            if not response.done():
                lost = RuntimeViolation(
                    "shared process failed before this acquire was served"
                )
                lost.__cause__ = failure
                response.set_exception(lost)
        raise failure
    finally:
        state.stopped.set()


class SharedChannel:
    """Clonable alias to a running shared process, used on its event loop.

    Clones are interchangeable; once every clone is gone and no acquire is
    pending, the background process stops. A failure of the shared process
    fails the client run inside its critical section and every queued
    acquirer; a client run that ends inside its critical section without
    releasing fails the shared process, which then stops.
    """

    def __init__(self, state: _SharedState):
        self._state = state
        state.clone_created()
        self._finalizer = weakref.finalize(self, state.clone_dropped)

    @property
    def protocol(self) -> LinearToShared:
        return self._state.protocol

    def clone(self) -> SharedChannel:
        return SharedChannel(self._state)

    def __copy__(self):
        return self.clone()

    def _request(self, run) -> asyncio.Future:
        """Queue an acquire by `run`; the future resolves to the linear
        channel, or fails if the shared process fails first."""
        if self._state.failure is not None:
            raise RuntimeViolation(
                "shared process already failed"
            ) from self._state.failure
        return self._state.push_request(run)

    def __repr__(self):
        return f"<SharedChannel {self._state.protocol}>"


def run_shared_session(s: SharedSession) -> SharedChannel:
    """Start the shared process in the background; returns the channel that
    clients use to acquire it. Must be called with an event loop running."""
    if not isinstance(s, SharedSession):
        raise ProtocolError(
            f"run_shared_session expects a checked SharedSession "
            f"(build one with shared_session(S, ...)), got {s!r}"
        )
    state = _SharedState(s.protocol)
    executor = s._take_executor()
    state.task = asyncio.get_running_loop().create_task(_serve(state, executor))
    # the failure is reported through failed acquires / the bound run;
    # retrieve it here so the loop task never warns about it
    state.task.add_done_callback(
        lambda t: t.exception() if not t.cancelled() else None
    )
    return SharedChannel(state)
