"""Term constructors for the linear typing rules.

Each constructor is its rule's `PartialSession` subclass: calling it
validates the premises and builds the conclusion program, one object that
holds them. Once its judgment is imposed, it sets its step and checks the
premises in place against the judgments the rule dictates. The step is a
plain function that performs the construct's single protocol step and
returns the continuation's step, or a wait for the peer, to the run's
scheduler (`runtime.RunContext`).

Provider-side rules act on the offer handle; client-side rules act on a
context slot through a lens and leave the offered protocol alone. Value
payloads are checked against the declared value type when sent.
"""

from __future__ import annotations

from .context import Empty, Nat, _nats, focus, live_slot, nat
from .core import (
    UNCHECKED,
    ContRule,
    LensRule,
    PartialSession,
    Session,
    expect_program,
    forward,
    include_session,
    session,
)
from .errors import LinearityError, ProtocolError
from .instrument import active_recorder
from .protocols import (
    ExternalChoice,
    InternalChoice,
    ReceiveChannel,
    ReceiveValue,
    SendChannel,
    SendValue,
    _End,
    type_name,
)
from .runtime import END, LEFT, RIGHT, answer, ask, emit, lens_step


def _expect_slot(rule: str, n, ctx, cls, error=ProtocolError):
    """Raise: the slot at lens `n` is not the `cls` step a client rule needs."""
    slot = focus(n, ctx)
    name = cls.__name__.lstrip("_")
    article = "an" if name[0] in "AEIOU" else "a"
    raise error(
        f"{rule}: lens {n.level}: slot has type {slot}, "
        f"expected {article} {name} step"
    )


def _check_value(rule: str, value, value_type):
    """Hot paths test `value` inline first and call this only to reject it."""
    if not isinstance(value, value_type):
        raise ProtocolError(
            f"{rule}: value {value!r} is not of declared type {type_name(value_type)}"
        )


# -- termination -----------------------------------------------------------


class terminate(PartialSession):
    """Send the termination signal; every linear channel must be consumed."""

    __slots__ = ()

    def _resolve(self, ctx, offer):
        self.execute = type(self)._step if self.execute is UNCHECKED else self._linked_twice()
        if not isinstance(offer, _End):
            self._wrong_offer(_End, offer)
        if ctx and ctx.count(Empty) != len(ctx):  # `Empty` matches by identity
            live = live_slot(ctx)
            raise LinearityError(
                f"terminate requires an empty linear context; "
                f"slot {live[0]} still holds {live[1]}"
            )
        return self

    def _step(self, endpoints, offer):
        rec = active_recorder()
        if rec is not None:
            rec.record("END")
        offer.send(END)


class wait(LensRule):
    """Block until the provider at slot `n` terminates, then continue."""

    __slots__ = ()
    _keeps_offer = True

    def _resolve(self, ctx, offer):
        self.execute = type(self)._step if self.execute is UNCHECKED else self._linked_twice()
        n = self.n
        slot = ctx[n.level] if isinstance(n, Nat) and n.level < len(ctx) else None
        if not isinstance(slot, _End):
            # Waiting on anything but End reuses or drops a channel.
            _expect_slot("wait", n, ctx, _End, LinearityError)
        self.n = level = n.level
        ctx[level] = Empty
        self.cont = self.cont._resolve(ctx, offer)
        return self

    def _received(self, signal, endpoints, offer):
        endpoints[self.n] = ()
        return self.cont, endpoints, offer


# -- value input (provider receives) ----------------------------------------


class receive_value(ContRule):
    """Offer to receive one value; it is passed to `cont` exactly once."""

    # The judgment after the step; the next offer, until the premise is checked.
    __slots__ = ("ctx", "after", "next_offer")
    _calls_cont = True

    def _resolve(self, ctx, offer):
        self.execute = type(self)._step if self.execute is UNCHECKED else self._linked_twice()
        if not isinstance(offer, ReceiveValue):
            self._wrong_offer(ReceiveValue, offer)
        self.ctx, self.after = ctx, offer.cont
        return self

    def _step(self, endpoints, offer):
        return ask(offer), receive_value._received

    def _received(self, message, endpoints, offer):
        value, self.next_offer = message
        return self._call_cont(value), receive_value._continued

    def _continued(self, premise, endpoints, offer):
        premise = expect_program(premise, "receive_value continuation")
        return premise._resolve(self.ctx, self.after), endpoints, self.next_offer


class send_value_to(LensRule):
    """Deliver `value` to the receiving provider at slot `n`."""

    __slots__ = ("value",)
    _keeps_offer = True

    def __init__(self, n, value, cont):
        self.execute = UNCHECKED
        self.n = n
        self.value = value
        self.cont = expect_program(cont, "send_value_to")

    def _resolve(self, ctx, offer):
        self.execute = type(self)._step if self.execute is UNCHECKED else self._linked_twice()
        n = self.n
        slot = ctx[n.level] if isinstance(n, Nat) and n.level < len(ctx) else None
        if not isinstance(slot, ReceiveValue):
            _expect_slot("send_value_to", n, ctx, ReceiveValue)
        if not isinstance(self.value, slot.value_type):
            _check_value("send_value_to", self.value, slot.value_type)
        self.n = level = n.level
        ctx[level] = slot.cont
        self.cont = self.cont._resolve(ctx, offer)
        return self

    def _received(self, outbound, endpoints, offer):
        endpoints[self.n] = answer(outbound, self.value)
        return self.cont, endpoints, offer


# -- value output (provider sends) -------------------------------------------


class send_value(PartialSession):
    """Send `value` together with the continuation endpoint, then continue."""

    __slots__ = ("value", "cont")

    def __init__(self, value, cont):
        self.execute = UNCHECKED
        self.value = value
        if not isinstance(cont, PartialSession):
            expect_program(cont, "send_value")
        self.cont = cont

    def _resolve(self, ctx, offer):
        self.execute = type(self)._step if self.execute is UNCHECKED else self._linked_twice()
        if not isinstance(offer, SendValue):
            self._wrong_offer(SendValue, offer)
        if not isinstance(self.value, offer.value_type):
            _check_value("send_value", self.value, offer.value_type)
        self.cont = self.cont._resolve(ctx, offer.cont)
        return self

    def _step(self, endpoints, offer):
        return self.cont, endpoints, emit(offer, self.value)


class send_value_async(ContRule):
    """Like send_value, but the pair (value, continuation program) is
    produced lazily by `produce` only when the program is already running."""

    # `cont` is the producer; the context, the value type and the protocol after it.
    __slots__ = ("ctx", "value_type", "after")
    _calls_cont = True

    def __init__(self, produce):
        if not callable(produce):  # ContRule.__init__, inline as in LensRule
            ContRule.__init__(self, produce)  # raises the rule's diagnostic
        self.execute, self.cont = UNCHECKED, produce

    def _resolve(self, ctx, offer):
        self.execute = type(self)._step if self.execute is UNCHECKED else self._linked_twice()
        if not isinstance(offer, SendValue):
            self._wrong_offer(SendValue, offer)
        self.ctx, self.value_type, self.after = ctx, offer.value_type, offer.cont
        return self

    def _step(self, endpoints, offer):
        return self._call_cont(), send_value_async._produced

    def _produced(self, pair, endpoints, offer):
        value, premise = pair
        if not isinstance(value, self.value_type):
            _check_value("send_value_async", value, self.value_type)
        if not isinstance(premise, PartialSession):
            expect_program(premise, "send_value_async producer")
        return premise._resolve(self.ctx, self.after), endpoints, emit(offer, value)


class receive_value_from(LensRule):
    """Take the next value sent by the provider at slot `n`; `cont` may
    return its continuation program asynchronously."""

    # The judgment after the step; the next endpoint, until the premise is checked.
    __slots__ = ("target", "offered", "next_endpoint")
    _calls_cont = True

    def _resolve(self, ctx, offer):
        self.execute = type(self)._step if self.execute is UNCHECKED else self._linked_twice()
        n = self.n
        slot = ctx[n.level] if isinstance(n, Nat) and n.level < len(ctx) else None
        if not isinstance(slot, SendValue):
            _expect_slot("receive_value_from", n, ctx, SendValue)
        self.n = level = n.level
        ctx[level] = slot.cont
        self.target, self.offered = ctx, offer
        return self

    def _received(self, message, endpoints, offer):
        value, self.next_endpoint = message
        premise = self._call_cont(value)
        if not isinstance(premise, PartialSession):  # awaited, or refused
            return premise, receive_value_from._continued
        premise = premise._resolve(self.target, self.offered)
        endpoints[self.n] = self.next_endpoint
        return premise, endpoints, offer

    def _continued(self, premise, endpoints, offer):
        if not isinstance(premise, PartialSession):
            expect_program(premise, "receive_value_from continuation")
        premise = premise._resolve(self.target, self.offered)
        endpoints[self.n] = self.next_endpoint
        return premise, endpoints, offer


# -- channel delegation -------------------------------------------------------


class receive_channel(ContRule):
    """Offer to receive a channel; it is appended to the context and `cont`
    gets the lens for it (the current context length)."""

    __slots__ = ()
    _calls_cont = True

    def _resolve(self, ctx, offer):
        self.execute = type(self)._step if self.execute is UNCHECKED else self._linked_twice()
        if not isinstance(offer, ReceiveChannel):
            self._wrong_offer(ReceiveChannel, offer)
        level = len(ctx)
        premise = self._call_cont(_nats[level] if level < len(_nats) else nat(level))
        if not isinstance(premise, PartialSession):
            expect_program(premise, "receive_channel continuation")
        ctx.append(offer.carried)
        self.cont = premise._resolve(ctx, offer.cont)
        return self

    def _step(self, endpoints, offer):
        return ask(offer), receive_channel._received

    def _received(self, message, endpoints, offer):
        carried_endpoint, next_offer = message
        endpoints.append(carried_endpoint)
        return self.cont, endpoints, next_offer


class send_channel_to(LensRule):
    """Delegate the channel at slot `n2` to the channel-expecting provider
    at slot `n1`; `n2` is consumed, `n1` steps to its continuation."""

    __slots__ = ("n2",)  # `n` is the lens `n1`; both hold levels once checked
    _keeps_offer = True

    def __init__(self, n1, n2, cont):
        self.execute = UNCHECKED
        self.n = n1
        self.n2 = n2
        self.cont = expect_program(cont, "send_channel_to")

    def _resolve(self, ctx, offer):
        self.execute = type(self)._step if self.execute is UNCHECKED else self._linked_twice()
        n1, n2 = self.n, self.n2
        valid = isinstance(n2, Nat) and n2.level < len(ctx)
        carried = ctx[n2.level] if valid else focus(n2, ctx)
        if carried is Empty:
            raise LinearityError(
                f"send_channel_to: lens {n2.level}: slot has type Empty, "
                f"expected a live channel"
            )
        ctx[n2.level] = Empty
        slot = ctx[n1.level] if isinstance(n1, Nat) and n1.level < len(ctx) else None
        if not isinstance(slot, ReceiveChannel):
            _expect_slot("send_channel_to", n1, ctx, ReceiveChannel)
        self.n, self.n2 = level1, level2 = n1.level, n2.level
        if slot.carried is not carried._canon:
            raise ProtocolError(
                f"send_channel_to: slot {n1.level} expects a channel of type "
                f"{slot.carried}, but slot {n2.level} offers {carried}"
            )
        ctx[level1] = slot.cont
        self.cont = self.cont._resolve(ctx, offer)
        return self

    def _received(self, outbound, endpoints, offer):
        receiver = answer(outbound, endpoints[self.n2])
        endpoints[self.n2] = ()
        endpoints[self.n] = receiver
        return self.cont, endpoints, offer


class send_channel_from(LensRule):
    """Send the channel held at slot `n` to the client, consuming the slot."""

    __slots__ = ()

    def _resolve(self, ctx, offer):
        self.execute = type(self)._step if self.execute is UNCHECKED else self._linked_twice()
        if not isinstance(offer, SendChannel):
            self._wrong_offer(SendChannel, offer)
        n = self.n
        valid = isinstance(n, Nat) and n.level < len(ctx)
        carried = ctx[n.level] if valid else focus(n, ctx)
        if carried._canon is not offer.carried:
            raise ProtocolError(
                f"send_channel_from: lens {n.level}: slot has type {carried}, "
                f"but the offered protocol sends {offer.carried}"
            )
        self.n = level = n.level
        ctx[level] = Empty
        self.cont = self.cont._resolve(ctx, offer.cont)
        return self

    def _step(self, endpoints, offer):
        sender = emit(offer, endpoints[self.n])
        endpoints[self.n] = ()
        return self.cont, endpoints, sender


class receive_channel_from(LensRule):
    """Receive the channel delegated by the provider at slot `n`; it is
    appended to the context and `cont` gets the lens for it."""

    __slots__ = ()
    _calls_cont = True

    def _resolve(self, ctx, offer):
        self.execute = type(self)._step if self.execute is UNCHECKED else self._linked_twice()
        n = self.n
        slot = ctx[n.level] if isinstance(n, Nat) and n.level < len(ctx) else None
        if not isinstance(slot, SendChannel):
            _expect_slot("receive_channel_from", n, ctx, SendChannel)
        self.n = level = n.level
        length = len(ctx)
        premise = self._call_cont(_nats[length] if length < len(_nats) else nat(length))
        if not isinstance(premise, PartialSession):
            expect_program(premise, "receive_channel_from continuation")
        ctx[level] = slot.cont
        ctx.append(slot.carried)
        self.cont = premise._resolve(ctx, offer)
        return self

    def _received(self, message, endpoints, offer):
        carried_endpoint, endpoints[self.n] = message
        endpoints.append(carried_endpoint)
        return self.cont, endpoints, offer


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
    if a.protocol._canon is not expected:
        raise ProtocolError(
            f"apply_channel: channel program offers {a.protocol}, "
            f"but the consumer expects {expected}"
        )
    result = f.protocol.cont
    body = include_session(
        f,
        lambda chan_f: include_session(
            a,
            lambda chan_a: send_channel_to(chan_f, chan_a, forward(chan_f)),
        ),
    )
    return session(result, body)


# -- binary choice ------------------------------------------------------------


class offer_choice(PartialSession):
    """Offer both branches over the same context; the client's tag decides
    which one runs. Only the chosen branch ever executes."""

    __slots__ = ("left", "right")

    def __init__(self, left, right):
        if not (isinstance(left, PartialSession) and isinstance(right, PartialSession)):
            expect_program(left, "offer_choice")
            expect_program(right, "offer_choice")
        self.execute = UNCHECKED
        self.left = left
        self.right = right

    def _resolve(self, ctx, offer):
        self.execute = type(self)._step if self.execute is UNCHECKED else self._linked_twice()
        if not isinstance(offer, ExternalChoice):
            self._wrong_offer(ExternalChoice, offer)
        right_ctx = ctx.copy()  # the first branch may keep `ctx` for later
        self.left = self.left._resolve(ctx, offer.left)
        self.right = self.right._resolve(right_ctx, offer.right)
        return self

    def _step(self, endpoints, offer):
        return ask(offer), offer_choice._chosen

    def _chosen(self, message, endpoints, offer):
        side, next_offer = message
        return self.left if side == LEFT else self.right, endpoints, next_offer


class choose(send_value_to):
    """Send a branch tag to the choice provider at slot `n`."""

    # Choosing answers the provider at the slot with a tag, as `send_value_to`
    # answers with a value: `choose_left` or `choose_right`, the side's class.
    __slots__ = ()

    def __init__(self, side: str, n, cont):
        if side not in (LEFT, RIGHT):
            raise ProtocolError(f"choose: side must be 'left' or 'right', got {side!r}")
        self.__class__ = choose_left if side == LEFT else choose_right
        self.__init__(n, cont)

    def _resolve(self, ctx, offer):
        self.execute = type(self)._step if self.execute is UNCHECKED else self._linked_twice()
        n = self.n
        slot = ctx[n.level] if isinstance(n, Nat) and n.level < len(ctx) else None
        if not isinstance(slot, ExternalChoice):
            _expect_slot(self._rule, n, ctx, ExternalChoice)
        self.n = level = n.level
        ctx[level] = slot.left if self.value == LEFT else slot.right
        self.cont = self.cont._resolve(ctx, offer)
        return self


class choose_left(choose):
    __slots__ = ()
    value = LEFT  # and `_rule` is the class's name, as for every rule

    def __init__(self, n, cont):
        self.execute, self.n = UNCHECKED, n
        self.cont = cont if isinstance(cont, PartialSession) else expect_program(cont, self._rule)


class choose_right(choose):
    __slots__ = ()
    value = RIGHT
    __init__ = choose_left.__init__


class offer(send_value):
    """Announce the chosen branch with a tag, then continue as that branch."""

    # Offering one branch sends its tag, as `send_value` sends a value:
    # `offer_left` or `offer_right`, the side's class.
    __slots__ = ()

    def __init__(self, side: str, cont):
        if side not in (LEFT, RIGHT):
            raise ProtocolError(f"offer: side must be 'left' or 'right', got {side!r}")
        self.__class__ = offer_left if side == LEFT else offer_right
        self.__init__(cont)

    def _resolve(self, ctx, offer):
        self.execute = type(self)._step if self.execute is UNCHECKED else self._linked_twice()
        if not isinstance(offer, InternalChoice):
            self._wrong_offer(InternalChoice, offer)
        chosen = offer.left if self.value == LEFT else offer.right
        self.cont = self.cont._resolve(ctx, chosen)
        return self


class offer_left(offer):
    __slots__ = ()
    value = LEFT  # and `_rule` is the class's name, as for every rule

    def __init__(self, cont):
        self.execute = UNCHECKED
        self.cont = expect_program(cont, self._rule)


class offer_right(offer):
    __slots__ = ()
    value = RIGHT
    __init__ = offer_left.__init__


class case(PartialSession):
    """Take the branch whose tag the provider at slot `n` announces. Both branch
    programs must offer the same protocol; their contexts differ only at
    slot `n`, so eliminating either branch empties the same slot."""

    __slots__ = ("n", "left", "right")  # the lens, then its level

    def __init__(self, n, left, right):
        expect_program(left, "case")
        expect_program(right, "case")
        self.execute = UNCHECKED
        self.n = n
        self.left = left
        self.right = right

    def _resolve(self, ctx, offer):
        self.execute = type(self)._step if self.execute is UNCHECKED else self._linked_twice()
        n = self.n
        slot = ctx[n.level] if isinstance(n, Nat) and n.level < len(ctx) else None
        if not isinstance(slot, InternalChoice):
            _expect_slot("case", n, ctx, InternalChoice)
        self.n = level = n.level
        right_ctx = ctx.copy()  # as in `offer_choice`
        ctx[level], right_ctx[level] = slot.left, slot.right
        self.left = self.left._resolve(ctx, offer)
        self.right = self.right._resolve(right_ctx, offer)
        return self

    _step = lens_step

    def _received(self, message, endpoints, offer):
        side, endpoints[self.n] = message
        return self.left if side == LEFT else self.right, endpoints, offer
