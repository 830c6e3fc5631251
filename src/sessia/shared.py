"""Shared session types: acquire and release of a shared process.

A shared protocol `LinearToShared(body)` is inherently recursive: every
client that acquires it gets the same linear critical section, and the
section must end by releasing back to the very same shared type (strict
equi-synchronization). That constraint is enforced structurally:
`shared_type_apply` runs the one substitution traversal of `recursion.py`
but treats every leaf other than `Z` as an error. A body with an `End`, a
nested `Fix` or a release step of its own at the end of some path has a
path that never releases back to the shared type, and cannot form one.

A shared process has no task of its own. Between critical sections it is
its suspended checked program, waiting at its accept. An acquire takes
that program and runs the section as a driver of the acquiring run, with a
hook that fails the process if the section fails. An acquire made while a
section runs parks its driver on the channel, in FIFO order; the client's
release acknowledgement readies the first with the next section's program
inline, so sections never overlap. The `Lock` slot is the witness of
being inside a critical section: the accept rule, whose check
`shared_session` imposes as `session` imposes a closed one, plants it at
slot 0 of its premise, and `detach` consumes it.

`SharedChannel.close()`, or the end of an `async with` block, is the one
way to end a shared process. Between sections it is only a suspended
program, so a channel dropped unclosed leaves nothing running.

A shared *channel* may be aliased, but the checked shared program behind it
is linear. A `SharedSession` is consumed when it is linked, as a checked
`Session` is: by `run_shared_session`, or when the `detach_shared_session`
that continues with it is checked. Its checked critical-section program
sits in one slot that linking empties, and an empty slot is the one-shot
mark, so a reuse fails with `LinearityError` where it is linked, never
inside the running process.

Failures travel through the acquiring run, with no garbage collection:

* a failing section fails its run and every queued acquirer;
* a run that fails or is cancelled inside its critical section cancels the
  section, and the process fails with a `RuntimeViolation` caused by the
  run's failure;
* a run that fails after its release leaves the process serving, and an
  acquirer cancelled while queued is skipped.
"""

from __future__ import annotations

import asyncio
from collections import deque
from typing import NoReturn

from .context import Empty, Nat, S, _nats, focus, live_slot, nat, show
from .core import (
    UNCHECKED,
    ContRule,
    LensRule,
    PartialSession,
    expect_program,
)
from .errors import (
    LinearityError,
    ProtocolError,
    RuntimeViolation,
    SharedTypeError,
)
from .instrument import active_recorder
from .protocols import Protocol, SharedProtocol, _End
from .recursion import Fix, substitute
from .runtime import ACK, _Driver, channel, current_run, spawn


class SharedToLinear(Protocol):
    """Release step: ends a critical section, zero payload on the wire."""

    _carried = ("body", None)
    _polarity = "reversed"


class Lock(Protocol):
    """Critical-section token occupying slot 0 between accept and detach."""

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


class LinearToShared(SharedProtocol):
    """Shared session type: acquire, run the linear body, release, repeat."""

    _carried = ("body", None)
    _kept = ("_canon", "_unrolling", "_lock")

    def __post_init__(self):
        super().__post_init__()
        # Its unrolling and its lock are formed now: malformed bodies (e.g.
        # an End leaf) are rejected at type formation.
        unrolling = shared_type_apply(self.body, SharedToLinear(self.body))
        object.__setattr__(self, "_unrolling", unrolling)
        object.__setattr__(self, "_lock", Lock(self.body))

    def unroll(self) -> Protocol:
        return self._unrolling


# -- shared program values -----------------------------------------------


class SharedSession:
    """A checked shared program; inert until linked, and linked once.

    It holds the checked program of its first critical section.
    `run_shared_session`, or the check of a `detach_shared_session` that
    continues with it, empties that slot in its own frame; a second link
    finds the slot empty and raises `LinearityError`. It is no `Session`, so
    `cut`, `include_session` and `run_session` refuse it as a linear program.
    """

    __slots__ = ("_protocol", "_program")

    @property
    def protocol(self) -> LinearToShared:
        return self._protocol

    def _linked_twice(self) -> NoReturn:
        """Raise: the program was linked before. Links call it to reject."""
        raise LinearityError("shared session program already consumed")

    def __repr__(self):
        return f"<SharedSession {self._protocol}>"


def shared_session(protocol: LinearToShared, program) -> SharedSession:
    """Check a shared program against the shared protocol it must offer."""
    if not isinstance(protocol, LinearToShared):
        raise SharedTypeError(
            f"shared_session: expected a LinearToShared protocol, got {protocol!r}"
        )
    if not isinstance(program, accept_shared_session):
        raise ProtocolError(
            f"shared_session: expected a shared program "
            f"(accept_shared_session(...)), got {program!r}"
        )
    checked = object.__new__(SharedSession)  # its two slots are all it has
    checked._protocol, checked._program = protocol, program._resolve([], protocol)
    return checked


class accept_shared_session(ContRule):
    """Accept one acquire: check `cont`, the critical section, holding the
    lock token at slot 0 and offering the unrolled shared body."""

    __slots__ = ()

    def _resolve(self, ctx, offer):
        self.execute = None if self.execute is UNCHECKED else self._linked_twice()
        if not isinstance(offer, LinearToShared):
            self._wrong_offer(LinearToShared, offer)
        ctx.append(offer._lock)
        return self.cont._resolve(ctx, offer._unrolling)


class detach_shared_session(ContRule):
    """End the critical section: on the client's release, hand `cont`, the
    shared process's next section, to the next acquirer."""

    __slots__ = ()  # `cont`: the SharedSession, then its checked program

    def __init__(self, cont: SharedSession):
        if not isinstance(cont, SharedSession):
            raise ProtocolError(
                f"detach_shared_session expects a checked SharedSession "
                f"to continue with, got {cont!r}"
            )
        self.execute = UNCHECKED
        self.cont = cont

    def _resolve(self, ctx, offer):
        self.execute = type(self)._step if self.execute is UNCHECKED else self._linked_twice()
        if not isinstance(offer, SharedToLinear):
            self._wrong_offer(SharedToLinear, offer)
        # The test `ctx[0] != Lock(offer.body)`, with no call to form it.
        if not ctx or type(ctx[0]) is not Lock or ctx[0].body is not offer.body:
            raise ProtocolError(
                "detach_shared_session requires the critical-section lock "
                f"at slot 0 of {show(ctx)}"
            )
        ctx[0] = Empty  # detach consumes the lock
        if ctx.count(Empty) != len(ctx):  # `Empty` matches by identity
            live = live_slot(ctx)
            raise LinearityError(
                f"detach_shared_session requires all other channels consumed; "
                f"slot {live[0]} still holds {live[1]}"
            )
        # Compared by body, which forms no `LinearToShared(offer.body)`.
        shared = self.cont
        if shared._protocol.body is not offer.body:
            raise ProtocolError(
                f"detach_shared_session: continuation offers {shared._protocol}, "
                f"expected LinearToShared({offer.body})"
            )
        program, shared._program = shared._program, None  # the link
        self.cont = shared._linked_twice() if program is None else program
        return self

    def _step(self, endpoints, offer):
        section = endpoints[0]
        section.following = self.cont
        section.ack, receiver = channel()
        # The client's release step acknowledges through the section.
        offer.send(section)
        return receiver, detach_shared_session._released

    def _released(self, signal, endpoints, offer):
        return None


class acquire_shared_session(ContRule):
    """Wait for exclusive access to the shared process; the linear body
    channel is appended to the context and `cont` gets its lens."""

    __slots__ = ("shared",)
    _calls_cont = True

    def __init__(self, shared: SharedChannel, cont):
        if not isinstance(shared, SharedChannel):
            raise ProtocolError(
                f"acquire_shared_session expects a SharedChannel, got {shared!r}"
            )
        if not callable(cont):  # ContRule.__init__, inline as in LensRule
            ContRule.__init__(self, cont)  # raises the rule's diagnostic
        self.execute, self.cont = UNCHECKED, cont
        self.shared = shared

    def _resolve(self, ctx, offer):
        self.execute = type(self)._step if self.execute is UNCHECKED else self._linked_twice()
        fn, self.cont = self.cont, None  # one-shot: `execute` is set
        rec = active_recorder()
        if rec is not None:
            rec.continuation_ran(self._rule)
        level = len(ctx)
        premise = fn(_nats[level] if level < len(_nats) else nat(level))
        if not isinstance(premise, PartialSession):
            expect_program(premise, "acquire_shared_session continuation")
        ctx.append(self.shared.protocol._unrolling)
        self.cont = premise._resolve(ctx, offer)
        return self

    def _step(self, endpoints, offer):
        return self.shared.acquire(), acquire_shared_session._acquired

    def _cancelled(self, driver) -> None:
        # Readied by a release, cancelled before its step took the program.
        program, driver.source = driver.source, None
        if isinstance(program, PartialSession) and driver is not asyncio.current_task():
            self.shared.release(program)

    def _acquired(self, program, endpoints, offer):
        # The section is a driver of this run, after those spawned before it.
        sender, linear = channel()
        section = _Section(self.shared)
        spawn(program, [section], sender, section.failed)
        rec = active_recorder()
        if rec is not None:
            rec.record("ACQ")
        endpoints.append(linear)
        return self.cont, endpoints, offer


class release_shared_session(LensRule):
    """Give up the critical section at slot `n`; the slot is consumed and
    the shared process becomes available to the next client."""

    __slots__ = ()
    _keeps_offer = True

    def _resolve(self, ctx, offer):
        self.execute = type(self)._step if self.execute is UNCHECKED else self._linked_twice()
        n = self.n
        valid = isinstance(n, Nat) and n.level < len(ctx)
        slot = ctx[n.level] if valid else focus(n, ctx)
        if not isinstance(slot, SharedToLinear):
            raise ProtocolError(
                f"release_shared_session: lens {n.level}: slot has type {slot}; "
                f"the session has not reached its release point"
            )
        self.n = level = n.level
        ctx[level] = Empty
        self.cont = self.cont._resolve(ctx, offer)
        return self

    def _received(self, outbound, endpoints, offer):
        rec = active_recorder()
        if rec is not None:
            rec.record("REL")
        outbound.send(ACK)
        endpoints[self.n] = ()
        return self.cont, endpoints, offer


# -- the shared process --------------------------------------------------


class _Section:
    """Endpoint at the `Lock` slot of one critical section; `failed` is the
    failure hook of the section's driver.

    `detach` leaves the checked program of the process's next section in
    `following` and parks until the client's release step acknowledges
    through the section; that acknowledgement hands `following` on at once,
    before it wakes `detach`.
    """

    __slots__ = ("shared", "ack", "following", "released")

    def __init__(self, shared: SharedChannel):
        self.shared = shared
        self.ack = None
        self.following = None
        self.released = False

    def send(self, signal) -> None:
        self.released = True
        self.shared.release(self.following)
        self.ack.send(signal)

    def failed(self, exc: BaseException) -> None:
        """A section that fails before its release fails the shared process;
        a section cancelled by its run's failure names that failure."""
        if not self.released:
            failure, run = exc, current_run()
            if isinstance(exc, asyncio.CancelledError) and run.failure:
                failure = RuntimeViolation(
                    "shared process: a client run ended inside its critical "
                    "section without releasing it"
                )
                failure.__cause__ = run.failure
            self.shared.fail(failure)


class SharedChannel:
    """A shared process, and the channel its clients acquire it through: its
    suspended program while no section runs, and the acquiring drivers
    parked on it, in FIFO order, while one does. A clone is the channel
    itself. `close()`, or the end of an `async with` block, refuses further
    acquires and sets `stopped` once no section runs. The process has no
    task, so a channel dropped unclosed leaves nothing running."""

    def __init__(self, protocol: LinearToShared, program: PartialSession):
        self.protocol = protocol
        self.program: PartialSession | None = program
        self.requests: deque[_Driver] = deque()
        self.accepting = True
        self.failure: BaseException | None = None
        self.stopped = asyncio.Event()

    def acquire(self):
        """Take the process, after the acquirers queued before this one:
        the program of its next section if no section runs, else park the
        acquiring driver in the queue and return the channel it waits on."""
        if self.failure is not None:
            raise self._unserved()
        if not self.accepting:
            raise RuntimeViolation("shared channel closed: no further acquire")
        program, self.program = self.program, None
        if program is not None:
            return program
        self.requests.append(asyncio.current_task())  # the acquiring driver
        self.requests[-1].waiting = self  # parks on the channel
        return self

    def release(self, program: PartialSession) -> None:
        """Hand the process to the first waiter, or suspend it."""
        while self.requests:
            driver = self.requests.popleft()
            if driver.waiting is self:  # an acquirer cancelled while queued is skipped
                driver.source = program
                driver.run._resume(driver, self)
                return
        self.program = program
        if not self.accepting:
            self.stopped.set()

    def fail(self, exc: BaseException) -> None:
        self.failure = exc
        while self.requests:
            driver = self.requests.popleft()
            if driver.waiting is self:
                driver.exc = self._unserved()
                driver.run._resume(driver, self)
        self.stopped.set()

    def _unserved(self) -> RuntimeViolation:
        # One error whether the acquire was queued or came after the failure.
        unserved = RuntimeViolation(
            "shared process already failed before this acquire was served"
        )
        unserved.__cause__ = self.failure
        return unserved

    def close(self) -> None:
        """Refuse further acquires; the process stops once no section runs."""
        self.accepting = False
        if self.program is not None:
            self.stopped.set()

    async def __aenter__(self) -> SharedChannel:
        return self

    async def __aexit__(self, *exc_info) -> None:
        self.close()

    def clone(self) -> SharedChannel:
        return self

    def __copy__(self):
        return self

    def __repr__(self):
        return f"<SharedChannel {self.protocol}>"


def run_shared_session(s: SharedSession) -> SharedChannel:
    """Link the shared process and return the channel that clients use to
    acquire it. Nothing runs until the first acquire."""
    if not isinstance(s, SharedSession):
        raise ProtocolError(
            f"run_shared_session expects a checked SharedSession "
            f"(build one with shared_session(S, ...)), got {s!r}"
        )
    program, s._program = s._program, None  # the link
    return SharedChannel(s._protocol, s._linked_twice() if program is None else program)
