"""Session programs: the judgment carrier, the runner, and structural rules.

A `PartialSession` is an inert program that, *given* a linear context C and
an offered protocol A, checks itself against that judgment and yields a
one-shot executor. Nothing communicates until `run_session` is awaited;
checking happens strictly before execution:

* `session(A, program)` imposes the closed judgment (empty context,
  offering A) and returns a checked `Session` — the analogue of a typed
  let-binding. Linking constructs (`cut`, `include_session`,
  `apply_channel`) impose judgments on their premises the same way.
* Continuations that receive only a lens are invoked once at check time.
  Continuations that receive a communicated value cannot be checked before
  the value exists; their subtree is checked the moment the value arrives,
  still before that subtree executes.

Program values are linear: every `PartialSession`/`Session` is consumed by
the construct that links it, and every executor and user continuation runs
at most once. Each such resource sits in one slot that is emptied when it is
used (a program's content, an executor's `execute`, a continuation's
function), and an empty slot is the one mark of "already used".

A run executes as a trampoline. Each executor performs its construct's one
protocol step and returns the next step, `(executor, endpoints, offer)`,
or None once its task is done; it never awaits another executor. One
driver loop per task, `drive`, runs the steps one after another and holds
the one-shot and polarity checks, so a task's stack and the cost of a step
stay the same however many steps came before. `run_session`'s main task,
every provider that `cut` and `include_session` spawn, and every critical
section of a shared process run under `drive`.
"""

from __future__ import annotations

import asyncio
import inspect
import itertools

from .context import (
    Empty,
    focus,
    live_slot,
    nat,
    put,
    show,
    slots_of,
    validate_context,
)
from .errors import LinearityError, ProtocolError, RuntimeViolation
from .instrument import active_recorder
from .protocols import End, Protocol, ReceiveChannel, check_protocol
from .runtime import (
    END,
    RunContext,
    Sender,
    channel,
    reset_run,
    set_run,
    spawn,
)

_tokens = itertools.count()


class Executor:
    """The checked, one-shot step of one construct, run only by `drive`."""

    __slots__ = ("rule", "execute", "token")

    def __init__(self, rule: str, execute):
        self.rule = rule
        self.execute = execute
        self.token = next(_tokens)


async def drive(executor: Executor, endpoints, offer) -> None:
    """Run one task's steps until an executor returns None."""
    step = (executor, endpoints, offer)
    while step is not None:
        executor, endpoints, offer = step
        execute, executor.execute = executor.execute, None
        if execute is None:
            raise RuntimeViolation(f"{executor.rule}: executor invoked twice")
        rec = active_recorder()
        if rec is not None:
            rec.executor_ran(executor.token)
        if not isinstance(offer, Sender):
            if rec is not None:
                rec.polarity_violation()
            raise RuntimeViolation(
                f"{executor.rule}: executor needs the provider-side sending endpoint"
            )
        step = await execute(endpoints, offer)


class OneShotContinuation:
    """Wraps a user continuation so it can be invoked exactly once."""

    __slots__ = ("_rule", "_fn", "_token")

    def __init__(self, rule: str, fn):
        if not callable(fn):
            raise ProtocolError(f"{rule}: continuation must be callable, got {fn!r}")
        self._rule = rule
        self._fn = fn
        self._token = next(_tokens)

    def __call__(self, *args):
        fn, self._fn = self._fn, None
        if fn is None:
            raise RuntimeViolation(f"{self._rule}: continuation invoked twice")
        rec = active_recorder()
        if rec is not None:
            rec.continuation_ran(self._token)
        return fn(*args)


class PartialSession:
    """A suspended program offering some protocol over some linear context.

    Instances come from the term constructors and are consumed exactly once
    by the construct (or the `session` annotation) that uses them.
    """

    def __init__(self, rule: str, content, synth_protocol: Protocol | None = None):
        self._rule = rule
        # The rule's resolve function, or a checked Session's executor.
        self._content = content
        self._synth = synth_protocol

    def _take(self, what: str):
        """Empty the content slot; an empty slot means already consumed."""
        content, self._content = self._content, None
        if content is None:
            raise LinearityError(
                f"{what}: session program value already consumed (programs are linear)"
            )
        return content

    def _resolve(self, ctx, offer):
        resolve_fn = self._take(self._rule)
        check_protocol(offer, self._rule)
        execute = resolve_fn(ctx, offer)
        # Rolling and unrolling exchange nothing: they pass on the executor
        # of their premise instead of adding a step.
        if isinstance(execute, Executor):
            return execute
        return Executor(self._rule, execute)

    def __repr__(self):
        return f"<PartialSession {self._rule}>"


def expect_program(p, rule: str) -> PartialSession:
    if not isinstance(p, PartialSession):
        raise ProtocolError(
            f"{rule}: expected a session program (PartialSession), got {p!r}"
        )
    return p


class Session(PartialSession):
    """A checked closed program: no free linear channels, offers `protocol`."""

    def __init__(self, protocol: Protocol, executor):
        super().__init__("session", executor)
        self._protocol = protocol

    @property
    def protocol(self) -> Protocol:
        return self._protocol

    def _resolve(self, ctx, offer):
        executor = self._take("session")
        if ctx:
            raise LinearityError(
                f"a closed session cannot run in the non-empty context "
                f"{show(ctx)}"
            )
        if offer != self._protocol:
            raise ProtocolError(
                f"session offers {self._protocol}, "
                f"but the expected protocol here is {offer}"
            )
        return executor

    def __repr__(self):
        return f"<Session {self._protocol}>"


def session(protocol: Protocol, program: PartialSession) -> Session:
    """Check `program` against the closed judgment offering `protocol`."""
    check_protocol(protocol, "session")
    expect_program(program, "session")
    return Session(protocol, program._resolve((), protocol))


def run_session(s: Session):
    """Execute a checked Session(End) to completion; the only way to run.

    Returns an awaitable. All channels created during the run are consumed
    by the time it finishes; exceptions raised by embedded user code
    propagate and fail the whole run.
    """
    if not isinstance(s, Session):
        raise ProtocolError(
            f"run_session requires a Session(End); got {s!r} "
            f"(annotate the program with session(End, ...) first)"
        )
    if s.protocol != End:
        raise ProtocolError(
            f"run_session requires a Session(End); got Session({s.protocol})"
        )
    executor = s._resolve((), End)

    async def run():
        run_ctx = RunContext()
        token = set_run(run_ctx)
        try:
            sender, receiver = channel()

            async def main():
                await drive(executor, (), sender)
                signal = await receiver.recv()
                if signal is not END:
                    raise RuntimeViolation(
                        f"run_session: expected termination, got {signal!r}"
                    )

            task = spawn(main())
            try:
                await task
            except asyncio.CancelledError as exc:
                if run_ctx.failure is None:
                    # Cancelled from outside the run: end its other tasks,
                    # and any critical section it holds, as a failure would.
                    run_ctx.fail(exc)
                    raise
            except BaseException:
                pass  # reported below, after every task settled
            await run_ctx.drain()
        finally:
            reset_run(token)

    return run()


# -- structural constructs -----------------------------------------------


def forward(n) -> PartialSession:
    """Offer exactly the session found at slot `n`, which must be the only
    live slot. The single pending payload is relayed from the focused
    endpoint to the offer handle; the continuation endpoints it carries
    reconnect the two parties directly."""

    def resolve(ctx, offer):
        slot = focus(n, ctx)
        if slot != offer:
            raise ProtocolError(
                f"forward: lens {n.level}: slot has type {slot}, "
                f"but the expected protocol here is {offer}"
            )
        level = n.level
        live = live_slot(put(ctx, level, Empty))
        if live is not None:
            raise LinearityError(
                f"forward requires every other slot to be consumed; "
                f"slot {live[0]} still holds {live[1]}"
            )

        async def execute(endpoints, offer_chan):
            payload = await endpoints[level].recv()
            offer_chan.send(payload)

        return execute

    return PartialSession("forward", resolve)


def cut(cont1, cont2, *, provider_protocol=None, provider_context=None) -> PartialSession:
    """Spawn `cont2` as a concurrent provider; its channel becomes the last
    slot of `cont1`'s context.

    `cont2`'s own judgment must be known: pass a checked `Session`, or give
    `provider_protocol=` (and `provider_context=` if non-empty).
    """
    expect_program(cont1, "cut")
    expect_program(cont2, "cut")

    def resolve(ctx, offer):
        c2 = ()
        if provider_context is not None:
            # The one context a user supplies: validated here, once.
            validate_context(provider_context, "cut")
            c2 = tuple(slots_of(provider_context))
        if isinstance(cont2, Session):
            a = cont2.protocol
            if provider_protocol is not None and provider_protocol != a:
                raise ProtocolError(
                    f"cut: provider offers {a}, not {provider_protocol}"
                )
        else:
            a = provider_protocol if provider_protocol is not None else cont2._synth
        if a is None:
            raise ProtocolError(
                "cut: cannot infer the provider protocol; pass a checked "
                "Session or provider_protocol=..."
            )
        c1_len = len(ctx) - len(c2)
        if c1_len < 0:
            raise LinearityError(
                f"cut: provider context {show(c2)} is longer than "
                f"the whole context {show(ctx)}"
            )
        if ctx[c1_len:] != c2:
            raise LinearityError(
                f"cut: context {show(ctx)} does not end with the "
                f"provider context {show(c2)}"
            )
        exec1 = cont1._resolve(ctx[:c1_len] + (a,), offer)
        exec2 = cont2._resolve(c2, a)

        async def execute(endpoints, offer_chan):
            sender, receiver = channel()
            spawn(drive(exec2, endpoints[c1_len:], sender))
            return exec1, endpoints[:c1_len] + (receiver,), offer_chan

        return execute

    return PartialSession("cut", resolve)


def include_session(a: Session, cont) -> PartialSession:
    """Start the closed session `a` concurrently and hand its channel, at a
    freshly generated lens (= the current context length), to `cont`."""
    if not isinstance(a, Session):
        raise ProtocolError(
            f"include_session expects a checked Session to include, got {a!r}"
        )
    once = OneShotContinuation("include_session", cont)

    def resolve(ctx, offer):
        premise = expect_program(once(nat(len(ctx))), "include_session continuation")
        exec_p = premise._resolve(ctx + (a.protocol,), offer)
        exec_a = a._resolve((), a.protocol)

        async def execute(endpoints, offer_chan):
            sender, receiver = channel()
            spawn(drive(exec_a, (), sender))
            return exec_p, endpoints + (receiver,), offer_chan

        return execute

    return PartialSession("include_session", resolve)


def apply_channel(f: Session, a: Session) -> Session:
    """Link a channel-expecting program with a provider for that channel."""
    if not isinstance(f, Session) or not isinstance(a, Session):
        raise ProtocolError(
            "apply_channel expects two checked Sessions "
            f"(got {f!r} and {a!r})"
        )
    if not isinstance(f.protocol, ReceiveChannel):
        raise ProtocolError(
            f"apply_channel: first program must offer ReceiveChannel(A, B), "
            f"got {f.protocol}"
        )
    expected = f.protocol.carried
    if a.protocol != expected:
        raise ProtocolError(
            f"apply_channel: channel program offers {a.protocol}, "
            f"but the consumer expects {expected}"
        )
    from .constructs import send_channel_to

    result = f.protocol.cont
    body = include_session(
        f,
        lambda chan_f: include_session(
            a,
            lambda chan_a: send_channel_to(chan_f, chan_a, forward(chan_f)),
        ),
    )
    return session(result, body)


# -- helpers shared with the other construct modules ----------------------


def resolve_deferred(premise, ctx, offer, rule: str):
    """Check a runtime-produced premise against its recorded judgment."""
    return expect_program(premise, rule)._resolve(ctx, offer)


async def force(value):
    """Await the value if the continuation chose to be asynchronous."""
    if inspect.isawaitable(value):
        return await value
    return value
