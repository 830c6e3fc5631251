"""Term constructors for the linear typing rules.

Each function maps premise programs to a conclusion program: one object of
the rule's `PartialSession` subclass, holding the premises. Once its
judgment is imposed, it checks the premises in place against the judgments
the rule dictates and sets its step: a plain function that performs the
construct's single protocol step and returns the continuation's step, or a
wait for the peer, to the driver (`core.drive`).

Provider-side rules act on the offer handle; client-side rules act on a
context slot through a lens and leave the offered protocol alone. Value
payloads are checked against the declared value type when sent.
"""

from __future__ import annotations

from .context import Empty, focus, live_slot, nat, put
from .core import (
    UNCHECKED,
    ContRule,
    LensRule,
    OneShotContinuation,
    PartialSession,
    expect_program,
    resolve_deferred,
)
from .errors import LinearityError, ProtocolError
from .instrument import record_event
from .protocols import (
    End,
    ExternalChoice,
    InternalChoice,
    ReceiveChannel,
    ReceiveValue,
    SendChannel,
    SendValue,
    _End,
    type_name,
)
from .runtime import END, LEFT, RIGHT, answer, ask, emit


def _expect_offer(rule: str, offer, cls):
    """Check that the offered protocol is the `cls` step a provider rule needs."""
    if not isinstance(offer, cls):
        raise ProtocolError(
            f"{rule} offers {cls.__name__.lstrip('_')}, "
            f"but the expected protocol here is {offer}"
        )


def _expect_slot(rule: str, n, ctx, cls, error=ProtocolError):
    """The slot at lens `n`, checked to be the `cls` step a client rule needs."""
    slot = focus(n, ctx)
    if not isinstance(slot, cls):
        name = cls.__name__.lstrip("_")
        article = "an" if name[0] in "AEIOU" else "a"
        raise error(
            f"{rule}: lens {n.level}: slot has type {slot}, "
            f"expected {article} {name} step"
        )
    return slot


def _check_value(rule: str, value, value_type):
    if not isinstance(value, value_type):
        raise ProtocolError(
            f"{rule}: value {value!r} is not of declared type {type_name(value_type)}"
        )


# -- termination -----------------------------------------------------------


class _Terminate(PartialSession):
    __slots__ = ()
    _rule = "terminate"

    def _check(self, ctx, offer):
        _expect_offer("terminate", offer, _End)
        live = live_slot(ctx)
        if live is not None:
            raise LinearityError(
                f"terminate requires an empty linear context; "
                f"slot {live[0]} still holds {live[1]}"
            )

    def _step(self, endpoints, offer):
        record_event("END")
        offer.send(END)


def terminate() -> PartialSession:
    """Send the termination signal; every linear channel must be consumed."""
    return _Terminate()


class _Wait(LensRule):
    __slots__ = ()
    _rule = "wait"
    _keeps_offer = True

    def _check(self, ctx, offer):
        # Waiting on anything but End reuses or drops a channel.
        _expect_slot("wait", self.n, ctx, _End, LinearityError)
        self.n = level = self.n.level
        self.cont = self.cont._resolve(put(ctx, level, Empty), offer)

    def _received(self, signal, endpoints, offer):
        return self.cont, put(endpoints, self.n, ()), offer


def wait(n, cont) -> PartialSession:
    """Block until the provider at slot `n` terminates, then continue."""
    return _Wait(n, expect_program(cont, "wait"))


# -- value input (provider receives) ----------------------------------------


class _ReceiveValue(ContRule):
    # The judgment after the step; the next offer, until the premise is checked.
    __slots__ = ("ctx", "after", "next_offer")
    _rule = "receive_value"

    def _check(self, ctx, offer):
        _expect_offer("receive_value", offer, ReceiveValue)
        self.ctx, self.after = ctx, offer.cont

    def _step(self, endpoints, offer):
        return ask(offer), _ReceiveValue._received

    def _received(self, message, endpoints, offer):
        value, self.next_offer = message
        return self.cont(value), _ReceiveValue._continued

    def _continued(self, premise, endpoints, offer):
        premise = resolve_deferred(
            premise, self.ctx, self.after, "receive_value continuation"
        )
        return premise, endpoints, self.next_offer


def receive_value(cont) -> PartialSession:
    """Offer to receive one value; it is passed to `cont` exactly once."""
    return _ReceiveValue(OneShotContinuation("receive_value", cont))


class _SendValueTo(LensRule):
    __slots__ = ("value",)
    _rule = "send_value_to"
    _keeps_offer = True

    def __init__(self, n, value, cont):
        self.execute = UNCHECKED
        self.n = n
        self.value = value
        self.cont = cont

    def _check(self, ctx, offer):
        slot = _expect_slot("send_value_to", self.n, ctx, ReceiveValue)
        _check_value("send_value_to", self.value, slot.value_type)
        self.n = level = self.n.level
        self.cont = self.cont._resolve(put(ctx, level, slot.cont), offer)

    def _received(self, outbound, endpoints, offer):
        receiver = answer(outbound, self.value)
        return self.cont, put(endpoints, self.n, receiver), offer


def send_value_to(n, value, cont) -> PartialSession:
    """Deliver `value` to the receiving provider at slot `n`."""
    return _SendValueTo(n, value, expect_program(cont, "send_value_to"))


# -- value output (provider sends) -------------------------------------------


class _SendValue(PartialSession):
    __slots__ = ("value", "cont")
    _rule = "send_value"

    def __init__(self, value, cont):
        self.execute = UNCHECKED
        self.value = value
        self.cont = cont

    def _check(self, ctx, offer):
        _expect_offer("send_value", offer, SendValue)
        _check_value("send_value", self.value, offer.value_type)
        self.cont = self.cont._resolve(ctx, offer.cont)

    def _step(self, endpoints, offer):
        return self.cont, endpoints, emit(offer, self.value)


def send_value(value, cont) -> PartialSession:
    """Send `value` together with the continuation endpoint, then continue."""
    return _SendValue(value, expect_program(cont, "send_value"))


class _SendValueAsync(ContRule):
    # `cont` is the producer; the context, the value type and the protocol after it.
    __slots__ = ("ctx", "value_type", "after")
    _rule = "send_value_async"

    def _check(self, ctx, offer):
        _expect_offer("send_value_async", offer, SendValue)
        self.ctx, self.value_type, self.after = ctx, offer.value_type, offer.cont

    def _step(self, endpoints, offer):
        return self.cont(), _SendValueAsync._produced

    def _produced(self, pair, endpoints, offer):
        value, premise = pair
        _check_value("send_value_async", value, self.value_type)
        premise = resolve_deferred(
            premise, self.ctx, self.after, "send_value_async producer"
        )
        return premise, endpoints, emit(offer, value)


def send_value_async(produce) -> PartialSession:
    """Like send_value, but the pair (value, continuation program) is
    produced lazily by `produce` only when the program is already running."""
    return _SendValueAsync(OneShotContinuation("send_value_async", produce))


class _ReceiveValueFrom(LensRule):
    # The judgment after the step; the next endpoint, until the premise is checked.
    __slots__ = ("target", "offered", "next_endpoint")
    _rule = "receive_value_from"

    def _check(self, ctx, offer):
        slot = _expect_slot("receive_value_from", self.n, ctx, SendValue)
        self.n = level = self.n.level
        self.target, self.offered = put(ctx, level, slot.cont), offer

    def _received(self, message, endpoints, offer):
        value, self.next_endpoint = message
        return self.cont(value), _ReceiveValueFrom._continued

    def _continued(self, premise, endpoints, offer):
        premise = resolve_deferred(
            premise, self.target, self.offered, "receive_value_from continuation"
        )
        return premise, put(endpoints, self.n, self.next_endpoint), offer


def receive_value_from(n, cont) -> PartialSession:
    """Take the next value sent by the provider at slot `n`; `cont` may
    return its continuation program asynchronously."""
    return _ReceiveValueFrom(n, OneShotContinuation("receive_value_from", cont))


# -- channel delegation -------------------------------------------------------


class _ReceiveChannel(ContRule):
    __slots__ = ()
    _rule = "receive_channel"

    def _check(self, ctx, offer):
        _expect_offer("receive_channel", offer, ReceiveChannel)
        premise = expect_program(self.cont(nat(len(ctx))), "receive_channel continuation")
        self.cont = premise._resolve(ctx + (offer.carried,), offer.cont)

    def _step(self, endpoints, offer):
        return ask(offer), _ReceiveChannel._received

    def _received(self, message, endpoints, offer):
        carried_endpoint, next_offer = message
        return self.cont, endpoints + (carried_endpoint,), next_offer


def receive_channel(cont) -> PartialSession:
    """Offer to receive a channel; it is appended to the context and `cont`
    gets the lens for it (the current context length)."""
    return _ReceiveChannel(OneShotContinuation("receive_channel", cont))


class _SendChannelTo(LensRule):
    __slots__ = ("n2",)  # `n` is the lens `n1`; both hold levels once checked
    _rule = "send_channel_to"
    _keeps_offer = True

    def __init__(self, n1, n2, cont):
        self.execute = UNCHECKED
        self.n = n1
        self.n2 = n2
        self.cont = cont

    def _check(self, ctx, offer):
        n1, n2 = self.n, self.n2
        carried = focus(n2, ctx)
        if carried == Empty:
            raise LinearityError(
                f"send_channel_to: lens {n2.level}: slot has type Empty, "
                f"expected a live channel"
            )
        self.n, self.n2 = level1, level2 = n1.level, n2.level
        mid = put(ctx, level2, Empty)
        slot = _expect_slot("send_channel_to", n1, mid, ReceiveChannel)
        if slot.carried != carried:
            raise ProtocolError(
                f"send_channel_to: slot {n1.level} expects a channel of type "
                f"{slot.carried}, but slot {n2.level} offers {carried}"
            )
        self.cont = self.cont._resolve(put(mid, level1, slot.cont), offer)

    def _received(self, outbound, endpoints, offer):
        receiver = answer(outbound, endpoints[self.n2])
        endpoints = put(endpoints, self.n2, ())
        return self.cont, put(endpoints, self.n, receiver), offer


def send_channel_to(n1, n2, cont) -> PartialSession:
    """Delegate the channel at slot `n2` to the channel-expecting provider
    at slot `n1`; `n2` is consumed, `n1` steps to its continuation."""
    return _SendChannelTo(n1, n2, expect_program(cont, "send_channel_to"))


class _SendChannelFrom(LensRule):
    __slots__ = ()
    _rule = "send_channel_from"

    def _check(self, ctx, offer):
        _expect_offer("send_channel_from", offer, SendChannel)
        n = self.n
        carried = focus(n, ctx)
        if carried != offer.carried:
            raise ProtocolError(
                f"send_channel_from: lens {n.level}: slot has type {carried}, "
                f"but the offered protocol sends {offer.carried}"
            )
        self.n = level = n.level
        self.cont = self.cont._resolve(put(ctx, level, Empty), offer.cont)

    def _step(self, endpoints, offer):
        sender = emit(offer, endpoints[self.n])
        return self.cont, put(endpoints, self.n, ()), sender


def send_channel_from(n, cont) -> PartialSession:
    """Send the channel held at slot `n` to the client, consuming the slot."""
    return _SendChannelFrom(n, expect_program(cont, "send_channel_from"))


class _ReceiveChannelFrom(LensRule):
    __slots__ = ()
    _rule = "receive_channel_from"

    def _check(self, ctx, offer):
        slot = _expect_slot("receive_channel_from", self.n, ctx, SendChannel)
        self.n = level = self.n.level
        premise = expect_program(
            self.cont(nat(len(ctx))), "receive_channel_from continuation"
        )
        target = put(ctx, level, slot.cont) + (slot.carried,)
        self.cont = premise._resolve(target, offer)

    def _received(self, message, endpoints, offer):
        carried_endpoint, next_endpoint = message
        endpoints = put(endpoints, self.n, next_endpoint)
        return self.cont, endpoints + (carried_endpoint,), offer


def receive_channel_from(n, cont) -> PartialSession:
    """Receive the channel delegated by the provider at slot `n`; it is
    appended to the context and `cont` gets the lens for it."""
    return _ReceiveChannelFrom(n, OneShotContinuation("receive_channel_from", cont))


# -- binary choice ------------------------------------------------------------


class _OfferChoice(PartialSession):
    __slots__ = ("left", "right")
    _rule = "offer_choice"

    def __init__(self, left, right):
        self.execute = UNCHECKED
        self.left = left
        self.right = right

    def _check(self, ctx, offer):
        _expect_offer("offer_choice", offer, ExternalChoice)
        self.left = self.left._resolve(ctx, offer.left)
        self.right = self.right._resolve(ctx, offer.right)

    def _step(self, endpoints, offer):
        return ask(offer), _OfferChoice._chosen

    def _chosen(self, message, endpoints, offer):
        side, next_offer = message
        return self.left if side == LEFT else self.right, endpoints, next_offer


def offer_choice(left, right) -> PartialSession:
    """Offer both branches over the same context; the client's tag decides
    which one runs. Only the chosen branch ever executes."""
    expect_program(left, "offer_choice")
    expect_program(right, "offer_choice")
    return _OfferChoice(left, right)


class _Choose(_SendValueTo):
    # Choosing answers the provider at the slot with a tag, as `send_value_to`
    # answers with a value; `value` holds the side.
    __slots__ = ("_rule",)

    def __init__(self, side, n, cont):
        self.execute = UNCHECKED
        self._rule = f"choose_{side}"
        self.n = n
        self.value = side
        self.cont = cont

    def _check(self, ctx, offer):
        slot = _expect_slot(self._rule, self.n, ctx, ExternalChoice)
        chosen = slot.left if self.value == LEFT else slot.right
        self.n = level = self.n.level
        self.cont = self.cont._resolve(put(ctx, level, chosen), offer)


def choose(side: str, n, cont) -> PartialSession:
    """Send a branch tag to the choice provider at slot `n`."""
    if side not in (LEFT, RIGHT):
        raise ProtocolError(f"choose: side must be 'left' or 'right', got {side!r}")
    return _Choose(side, n, expect_program(cont, "choose"))


def choose_left(n, cont) -> PartialSession:
    return choose(LEFT, n, cont)


def choose_right(n, cont) -> PartialSession:
    return choose(RIGHT, n, cont)


class _Offer(_SendValue):
    # Offering one branch sends its tag, as `send_value` sends a value;
    # `value` holds the side.
    __slots__ = ("_rule",)

    def __init__(self, side, cont):
        self.execute = UNCHECKED
        self._rule = f"offer_{side}"
        self.value = side
        self.cont = cont

    def _check(self, ctx, offer):
        _expect_offer(self._rule, offer, InternalChoice)
        chosen = offer.left if self.value == LEFT else offer.right
        self.cont = self.cont._resolve(ctx, chosen)


def offer(side: str, cont) -> PartialSession:
    """Announce the chosen branch with a tag, then continue as that branch."""
    if side not in (LEFT, RIGHT):
        raise ProtocolError(f"offer: side must be 'left' or 'right', got {side!r}")
    return _Offer(side, expect_program(cont, "offer"))


def offer_left(cont) -> PartialSession:
    return offer(LEFT, cont)


def offer_right(cont) -> PartialSession:
    return offer(RIGHT, cont)


class _Case(PartialSession):
    __slots__ = ("n", "left", "right")  # the lens, then its level
    _rule = "case"

    def __init__(self, n, left, right):
        self.execute = UNCHECKED
        self.n = n
        self.left = left
        self.right = right

    def _check(self, ctx, offer):
        slot = _expect_slot("case", self.n, ctx, InternalChoice)
        self.n = level = self.n.level
        self.left = self.left._resolve(put(ctx, level, slot.left), offer)
        self.right = self.right._resolve(put(ctx, level, slot.right), offer)

    def _step(self, endpoints, offer):
        return endpoints[self.n], _Case._announced

    def _announced(self, message, endpoints, offer):
        side, next_endpoint = message
        chosen = self.left if side == LEFT else self.right
        return chosen, put(endpoints, self.n, next_endpoint), offer


def case(n, left, right) -> PartialSession:
    """Take the branch whose tag the provider at slot `n` announces. Both branch
    programs must offer the same protocol; their contexts differ only at
    slot `n`, so eliminating either branch empties the same slot."""
    expect_program(left, "case")
    expect_program(right, "case")
    return _Case(n, left, right)
