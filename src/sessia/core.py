"""Session programs: the judgment carrier, the runner, and structural rules.

A `PartialSession` is an inert program that, *given* a linear context C and
an offered protocol A, checks itself against that judgment; the checked
program is then the one-shot step that runs. Each typing rule is one
subclass, and its public term constructor (`forward`, `cut`, ...) is that
class, named as the rule. Nothing communicates until
`run_session` is awaited; checking happens strictly before execution:

* `session(A, program)` imposes the closed judgment (empty context,
  offering A) and returns a checked `Session` — the analogue of a typed
  let-binding. Linking constructs (`cut`, `include_session`, and
  `constructs.apply_channel`) impose judgments on their premises the same way.
* Continuations that receive only a lens are called once at check time,
  from their rule's `_resolve`. Continuations that receive a communicated
  value cannot be checked before the value exists; their subtree is checked
  the moment the value arrives, still before that subtree executes.

A rule's check is its own `_resolve(ctx, offer)`, one Python frame per
construct, as a typing rule is one function in Ferrite. It sets `execute`
to its step first, so a program whose check fails is never linked again;
it calls `focus` or `_expect_slot` only to reject, `nat` only to grow lenses.

Program values are linear: every `PartialSession`/`Session` is consumed by
the construct that links it, and every checked program and user
continuation runs at most once. Each such resource sits in one slot that is
emptied when it is used, as Rust moves a value, and an empty slot is the one
mark of "already used": a program's `execute` (the UNCHECKED mark, its
step once checked, emptied when the step runs), a `Session`'s `_program`,
which the rule that links it empties, and a user continuation's `cont`.
`include_session` and `acquire_shared_session` call their check-time
continuation in their own `_resolve`, which has set `execute`, so the call
is one-shot by construction; `ContRule._call_cont` makes every other call.

A run executes as a trampoline, and the run's scheduler
(`runtime.RunContext`) is the trampoline. A checked program's step is one
plain call that performs its construct's one protocol step and returns the
next step, `(program, endpoints, offer)`, a wait `(source, after)` for a
value the step needs, or None once its driver is done; it creates no
coroutine and never awaits another program, and it updates its driver's
endpoints list in place. The scheduler runs the steps of each driver one
after another, takes the value of each wait and holds the one-shot and
polarity checks, so a driver's stack and the cost of a step stay the same
however many steps came before. `run_session`'s program, every provider
that `cut` and `include_session` spawn and every critical section the run
acquires are drivers of the run, stepped on the task awaiting it; a shared
process has no task of its own.
"""

from __future__ import annotations

from inspect import iscoroutine
from typing import NoReturn

from .context import (
    Empty,
    Nat,
    _nats,
    focus,
    live_slot,
    nat,
    show,
    slots_of,
    validate_context,
)
from .errors import LinearityError, ProtocolError
from .instrument import active_recorder, refuse_reuse
from .protocols import End, Protocol, SendValue, check_protocol
from .runtime import channel, lens_step, spawn, start


# The `execute` of a program not yet checked.
UNCHECKED = object()


class PartialSession:
    """A suspended program offering some protocol over some linear context.

    Each typing rule is a subclass, and the rule's public term constructor
    is that class: building a program validates the arguments and keeps
    them in its slots. Its `_rule`, the name in diagnostics and counters, is
    the class's name. A program is consumed exactly once by the construct
    (or the `session` annotation) that uses it, and is in one of three
    states, kept in `execute`: unchecked, with the UNCHECKED mark;
    checked, with its rule's `_step`; and spent, once the scheduler has
    emptied `execute` to run the step.

    Each rule's `_resolve(ctx, offer)` is its check; it owns the list
    `ctx`. Its first line sets `execute` to its `_step`, the first of the
    two transitions, or refuses a program that is not unchecked. It then
    raises its diagnostics, calling a helper only to reject, checks the
    premises in place, keeps what the step needs and returns itself. A
    failed check leaves the step, but the first line refuses a second link
    and no checked tree holds the program. A rule that exchanges nothing
    empties `execute` and returns its checked premise to take its place.
    """

    __slots__ = ("execute",)
    # A client rule whose premise `cont` offers what it offers (`_synthesize`).
    _keeps_offer = False

    def __init_subclass__(cls):
        super().__init_subclass__()
        # `Session`, and `choose` and `offer` per program, set their own.
        if "_rule" not in cls.__dict__:
            cls._rule = cls.__name__

    def __init__(self):
        self.execute = UNCHECKED

    def _linked_twice(self) -> NoReturn:
        """Raise: the program was linked before. Rules call it to reject."""
        raise LinearityError(
            f"{self._rule}: session program value already consumed "
            f"(programs are linear)"
        )

    def _wrong_offer(self, offers: type, offer) -> NoReturn:
        raise ProtocolError(
            f"{self._rule} offers {offers.__name__.lstrip('_')}, "
            f"but the expected protocol here is {offer}"
        )

    def __repr__(self):
        return f"<PartialSession {self._rule}>"


class ContRule(PartialSession):
    """A rule whose one argument is its continuation `cont`: a premise
    program or, in a rule that sets `_calls_cont`, a user function that
    returns one. That function runs at most once. `include_session` and
    `acquire_shared_session` call it in their own `_resolve`, which empties
    `cont` and counts the call; every other call, at check or at run time,
    goes through `_call_cont`, which does the same in a frame of its own."""

    __slots__ = ("cont",)
    _calls_cont = False

    def __init__(self, cont):
        self.execute = UNCHECKED
        if self._calls_cont:
            if not callable(cont):
                raise ProtocolError(
                    f"{self._rule}: continuation must be callable, got {cont!r}"
                )
        elif not isinstance(cont, PartialSession):
            expect_program(cont, self._rule)
        self.cont = cont

    def _call_cont(self, *args):
        """The one-shot call of a run-time continuation: empty the `cont`
        slot, the continuation's mark, then call the function it held."""
        fn, self.cont = self.cont, None
        if fn is None:
            refuse_reuse(f"{self._rule}: continuation invoked twice")
        rec = active_recorder()
        if rec is not None:
            rec.continuation_ran(self._rule)
        return fn(*args)


class LensRule(ContRule):
    """A client rule on the slot at lens `n` (its level once checked), with
    the continuation `cont`. Its step, unless the rule has its own, is
    `lens_step`: the run's scheduler empties `execute` and waits itself, with
    no call, for the message of the slot's provider, then calls `_received`."""

    __slots__ = ("n",)

    def __init__(self, n, cont):
        self.execute = UNCHECKED  # ContRule.__init__, inline on a hot path
        if not (callable(cont) if self._calls_cont else isinstance(cont, PartialSession)):
            ContRule.__init__(self, cont)  # raises the rule's diagnostic
        self.cont = cont
        self.n = n

    _step = lens_step


def expect_program(p, rule: str) -> PartialSession:
    """`p`, which must be a program. Hot paths call it only for a value
    that is not one, so that it costs a call only when it rejects."""
    if not isinstance(p, PartialSession):
        if iscoroutine(p):
            p.close()  # a rejected async continuation is never awaited
        raise ProtocolError(
            f"{rule}: expected a session program (PartialSession), got {p!r}"
        )
    return p


class Session(PartialSession):
    """A checked closed program: no free linear channels, offers `protocol`.

    Its one link mark is `_program`, which the rule that links it empties:
    `include_session` in its own frame, and `cut`, `run_session` or any rule
    where a program may stand through `_resolve`. A second link finds it
    empty. `execute` is unused."""

    __slots__ = ("_protocol", "_program")
    _rule = "session"

    @property
    def protocol(self) -> Protocol:
        return self._protocol

    def _resolve(self, ctx, offer):
        program, self._program = self._program, None
        if program is None:
            self._linked_twice()
        if ctx:
            raise LinearityError(
                f"a closed session cannot run in the non-empty context "
                f"{show(ctx)}"
            )
        if offer._canon is not self._protocol._canon:
            raise ProtocolError(
                f"session offers {self._protocol}, "
                f"but the expected protocol here is {offer}"
            )
        return program

    def __repr__(self):
        return f"<Session {self._protocol}>"


def session(protocol: Protocol, program: PartialSession) -> Session:
    """Check `program` against the closed judgment offering `protocol`."""
    if not isinstance(protocol, Protocol):
        check_protocol(protocol, "session")  # raises
    if not isinstance(program, PartialSession):
        expect_program(program, "session")
    checked = object.__new__(Session)  # its two slots are all it has
    checked._protocol, checked._program = protocol, program._resolve([], protocol)
    return checked


def run_session(s: Session):
    """Execute a checked Session(End) to completion; the only way to run.

    Returns an awaitable. All channels created during the run are consumed
    by the time it finishes; exceptions raised by embedded user code
    propagate and fail the whole run. Cancelling it cancels every driver and
    raises once all have ended, so a driver that ignores its cancel delays it.
    A run that never waited gives the event loop exactly one turn before it
    returns, so short runs awaited in a loop do not starve other tasks.
    """
    if not isinstance(s, Session):
        raise ProtocolError(
            f"run_session requires a Session(End); got {s!r} "
            f"(annotate the program with session(End, ...) first)"
        )
    if s._protocol is not End:
        raise ProtocolError(
            f"run_session requires a Session(End); got Session({s._protocol})"
        )
    return start(main=s._resolve([], End))


# -- structural constructs -----------------------------------------------


class forward(PartialSession):
    """Offer exactly the session found at slot `n`, which must be the only
    live slot. Its step is a `LensRule`'s lens wait: the single pending
    payload is relayed from the focused endpoint to the offer handle; the
    continuation endpoints it carries reconnect the two parties directly."""

    __slots__ = ("n",)  # the lens, then its level

    def __init__(self, n):
        self.execute = UNCHECKED
        self.n = n

    def _resolve(self, ctx, offer):
        self.execute = type(self)._step if self.execute is UNCHECKED else self._linked_twice()
        n = self.n
        slot = ctx[n.level] if isinstance(n, Nat) and n.level < len(ctx) else focus(n, ctx)
        if slot._canon is not offer._canon:
            raise ProtocolError(
                f"forward: lens {n.level}: slot has type {slot}, "
                f"but the expected protocol here is {offer}"
            )
        self.n = level = n.level
        ctx[level] = Empty
        if ctx.count(Empty) != len(ctx):  # `Empty` matches by identity
            live = live_slot(ctx)
            raise LinearityError(
                f"forward requires every other slot to be consumed; "
                f"slot {live[0]} still holds {live[1]}"
            )
        return self

    _step = lens_step

    def _received(self, payload, endpoints, offer):
        offer.send(payload)


def _synthesize(program: PartialSession) -> Protocol | None:
    """The protocol an unannotated provider offers, read off its program: a
    chain of `send_value`s, and of client steps that leave the offer alone,
    down to `terminate`. None if the program does not show it."""
    sent = []
    while program._rule != "terminate":
        if program._rule == "send_value":
            sent.append(type(program.value))
        elif not program._keeps_offer:
            return None
        program = program.cont
    protocol = End
    for value_type in reversed(sent):
        protocol = SendValue(value_type, protocol)
    return protocol


class cut(PartialSession):
    """Spawn `cont2` as a concurrent provider; its channel becomes the last
    slot of `cont1`'s context.

    `cont2`'s own judgment must be known: pass a checked `Session`, or give
    `provider_protocol=` (and `provider_context=` if non-empty).
    """

    # `context` holds the provider's context, then where its endpoints start.
    __slots__ = ("client", "provider", "protocol", "context")

    def __init__(self, cont1, cont2, *, provider_protocol=None, provider_context=None):
        expect_program(cont1, "cut")
        expect_program(cont2, "cut")
        if provider_protocol is not None:
            check_protocol(provider_protocol, "cut")
        self.execute = UNCHECKED
        self.client = cont1
        self.provider = cont2
        self.protocol = provider_protocol
        self.context = provider_context

    def _resolve(self, ctx, offer):
        self.execute = type(self)._step if self.execute is UNCHECKED else self._linked_twice()
        provider, a = self.provider, self.protocol
        c2 = []
        if self.context is not None:
            # The one context a user supplies: validated here, once.
            validate_context(self.context, "cut")
            c2 = slots_of(self.context)
        if isinstance(provider, Session):
            if a is not None and a._canon is not provider._protocol._canon:
                raise ProtocolError(
                    f"cut: provider offers {provider._protocol}, not {a}"
                )
            a = provider._protocol
        elif a is None:
            a = _synthesize(provider)
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
        ctx[c1_len:] = [a]  # the tail, equal to `c2`, is the provider's
        self.client = self.client._resolve(ctx, offer)
        self.provider = provider._resolve(c2, a)
        self.context = c1_len
        return self

    def _step(self, endpoints, offer):
        sender, receiver = channel()
        split = self.context
        spawn(self.provider, endpoints[split:], sender)
        endpoints[split:] = [receiver]
        return self.client, endpoints, offer


class include_session(ContRule):
    """Start the closed session `a` concurrently and hand its channel, at a
    freshly generated lens (= the current context length), to `cont`."""

    __slots__ = ("provider",)
    _calls_cont = True

    def __init__(self, a: Session, cont):
        if not isinstance(a, Session):
            raise ProtocolError(
                f"include_session expects a checked Session to include, got {a!r}"
            )
        if not callable(cont):  # ContRule.__init__, inline as in LensRule
            ContRule.__init__(self, cont)  # raises the rule's diagnostic
        self.execute, self.cont = UNCHECKED, cont
        self.provider = a

    def _resolve(self, ctx, offer):
        self.execute = type(self)._step if self.execute is UNCHECKED else self._linked_twice()
        fn, self.cont = self.cont, None  # one-shot: `execute` is set
        rec = active_recorder()
        if rec is not None:
            rec.continuation_ran(self._rule)
        level = len(ctx)
        premise = fn(_nats[level] if level < len(_nats) else nat(level))
        if not isinstance(premise, PartialSession):
            expect_program(premise, "include_session continuation")
        provider = self.provider
        ctx.append(provider._protocol)
        self.cont = premise._resolve(ctx, offer)
        program, provider._program = provider._program, None  # the link
        self.provider = provider._linked_twice() if program is None else program
        return self

    def _step(self, endpoints, offer):
        sender, receiver = channel()
        spawn(self.provider, [], sender)
        endpoints.append(receiver)
        return self.cont, endpoints, offer

