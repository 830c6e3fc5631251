"""Term constructors for the linear typing rules.

Each function maps premise programs to a conclusion program: the returned
`PartialSession`, once its judgment is imposed, checks the premises against
the judgments the rule dictates and wires up the executor that performs the
construct's single protocol step and returns the continuation's step to the
driver (`core.drive`).

Provider-side rules act on the offer handle; client-side rules act on a
context slot through a lens and leave the offered protocol alone. Value
payloads are checked against the declared value type when sent.
"""

from __future__ import annotations

from .context import Empty, focus, live_slot, nat, put
from .core import (
    OneShotContinuation,
    PartialSession,
    expect_program,
    force,
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


def terminate() -> PartialSession:
    """Send the termination signal; every linear channel must be consumed."""

    def resolve(ctx, offer):
        _expect_offer("terminate", offer, _End)
        live = live_slot(ctx)
        if live is not None:
            raise LinearityError(
                f"terminate requires an empty linear context; "
                f"slot {live[0]} still holds {live[1]}"
            )

        async def execute(endpoints, offer_chan):
            record_event("END")
            offer_chan.send(END)

        return execute

    return PartialSession("terminate", resolve, synth_protocol=End)


def wait(n, cont) -> PartialSession:
    """Block until the provider at slot `n` terminates, then continue."""
    expect_program(cont, "wait")

    def resolve(ctx, offer):
        # Waiting on anything but End reuses or drops a channel.
        _expect_slot("wait", n, ctx, _End, LinearityError)
        level = n.level
        exec_cont = cont._resolve(put(ctx, level, Empty), offer)

        async def execute(endpoints, offer_chan):
            await endpoints[level].recv()
            return exec_cont, put(endpoints, level, ()), offer_chan

        return execute

    return PartialSession("wait", resolve, synth_protocol=cont._synth)


# -- value input (provider receives) ----------------------------------------


def receive_value(cont) -> PartialSession:
    """Offer to receive one value; it is passed to `cont` exactly once."""
    once = OneShotContinuation("receive_value", cont)

    def resolve(ctx, offer):
        _expect_offer("receive_value", offer, ReceiveValue)
        after = offer.cont

        async def execute(endpoints, offer_chan):
            value, next_offer = await ask(offer_chan)
            premise = await force(once(value))
            exec_p = resolve_deferred(premise, ctx, after, "receive_value continuation")
            return exec_p, endpoints, next_offer

        return execute

    return PartialSession("receive_value", resolve)


def send_value_to(n, value, cont) -> PartialSession:
    """Deliver `value` to the receiving provider at slot `n`."""
    expect_program(cont, "send_value_to")

    def resolve(ctx, offer):
        slot = _expect_slot("send_value_to", n, ctx, ReceiveValue)
        _check_value("send_value_to", value, slot.value_type)
        level = n.level
        exec_cont = cont._resolve(put(ctx, level, slot.cont), offer)

        async def execute(endpoints, offer_chan):
            receiver = answer(await endpoints[level].recv(), value)
            return exec_cont, put(endpoints, level, receiver), offer_chan

        return execute

    return PartialSession("send_value_to", resolve, synth_protocol=cont._synth)


# -- value output (provider sends) -------------------------------------------


def send_value(value, cont) -> PartialSession:
    """Send `value` together with the continuation endpoint, then continue."""
    expect_program(cont, "send_value")

    def resolve(ctx, offer):
        _expect_offer("send_value", offer, SendValue)
        _check_value("send_value", value, offer.value_type)
        exec_cont = cont._resolve(ctx, offer.cont)

        async def execute(endpoints, offer_chan):
            return exec_cont, endpoints, emit(offer_chan, value)

        return execute

    synth = None
    if cont._synth is not None:
        synth = SendValue(type(value), cont._synth)
    return PartialSession("send_value", resolve, synth_protocol=synth)


def send_value_async(produce) -> PartialSession:
    """Like send_value, but the pair (value, continuation program) is
    produced lazily by `produce` only when the program is already running."""
    once = OneShotContinuation("send_value_async", produce)

    def resolve(ctx, offer):
        _expect_offer("send_value_async", offer, SendValue)
        value_type, after = offer.value_type, offer.cont

        async def execute(endpoints, offer_chan):
            value, premise = await force(once())
            _check_value("send_value_async", value, value_type)
            exec_p = resolve_deferred(premise, ctx, after, "send_value_async producer")
            return exec_p, endpoints, emit(offer_chan, value)

        return execute

    return PartialSession("send_value_async", resolve)


def receive_value_from(n, cont) -> PartialSession:
    """Take the next value sent by the provider at slot `n`; `cont` may
    return its continuation program asynchronously."""
    once = OneShotContinuation("receive_value_from", cont)

    def resolve(ctx, offer):
        slot = _expect_slot("receive_value_from", n, ctx, SendValue)
        level = n.level
        target = put(ctx, level, slot.cont)

        async def execute(endpoints, offer_chan):
            value, next_endpoint = await endpoints[level].recv()
            premise = await force(once(value))
            exec_p = resolve_deferred(
                premise, target, offer, "receive_value_from continuation"
            )
            return exec_p, put(endpoints, level, next_endpoint), offer_chan

        return execute

    return PartialSession("receive_value_from", resolve)


# -- channel delegation -------------------------------------------------------


def receive_channel(cont) -> PartialSession:
    """Offer to receive a channel; it is appended to the context and `cont`
    gets the lens for it (the current context length)."""
    once = OneShotContinuation("receive_channel", cont)

    def resolve(ctx, offer):
        _expect_offer("receive_channel", offer, ReceiveChannel)
        premise = expect_program(once(nat(len(ctx))), "receive_channel continuation")
        exec_p = premise._resolve(ctx + (offer.carried,), offer.cont)

        async def execute(endpoints, offer_chan):
            carried_endpoint, next_offer = await ask(offer_chan)
            return exec_p, endpoints + (carried_endpoint,), next_offer

        return execute

    return PartialSession("receive_channel", resolve)


def send_channel_to(n1, n2, cont) -> PartialSession:
    """Delegate the channel at slot `n2` to the channel-expecting provider
    at slot `n1`; `n2` is consumed, `n1` steps to its continuation."""
    expect_program(cont, "send_channel_to")

    def resolve(ctx, offer):
        carried = focus(n2, ctx)
        if carried == Empty:
            raise LinearityError(
                f"send_channel_to: lens {n2.level}: slot has type Empty, "
                f"expected a live channel"
            )
        level1, level2 = n1.level, n2.level
        mid = put(ctx, level2, Empty)
        slot = _expect_slot("send_channel_to", n1, mid, ReceiveChannel)
        if slot.carried != carried:
            raise ProtocolError(
                f"send_channel_to: slot {n1.level} expects a channel of type "
                f"{slot.carried}, but slot {n2.level} offers {carried}"
            )
        exec_cont = cont._resolve(put(mid, level1, slot.cont), offer)

        async def execute(endpoints, offer_chan):
            receiver = answer(await endpoints[level1].recv(), endpoints[level2])
            endpoints = put(endpoints, level2, ())
            return exec_cont, put(endpoints, level1, receiver), offer_chan

        return execute

    return PartialSession("send_channel_to", resolve, synth_protocol=cont._synth)


def send_channel_from(n, cont) -> PartialSession:
    """Send the channel held at slot `n` to the client, consuming the slot."""
    expect_program(cont, "send_channel_from")

    def resolve(ctx, offer):
        _expect_offer("send_channel_from", offer, SendChannel)
        carried = focus(n, ctx)
        if carried != offer.carried:
            raise ProtocolError(
                f"send_channel_from: lens {n.level}: slot has type {carried}, "
                f"but the offered protocol sends {offer.carried}"
            )
        level = n.level
        exec_cont = cont._resolve(put(ctx, level, Empty), offer.cont)

        async def execute(endpoints, offer_chan):
            sender = emit(offer_chan, endpoints[level])
            return exec_cont, put(endpoints, level, ()), sender

        return execute

    return PartialSession("send_channel_from", resolve)


def receive_channel_from(n, cont) -> PartialSession:
    """Receive the channel delegated by the provider at slot `n`; it is
    appended to the context and `cont` gets the lens for it."""
    once = OneShotContinuation("receive_channel_from", cont)

    def resolve(ctx, offer):
        slot = _expect_slot("receive_channel_from", n, ctx, SendChannel)
        level = n.level
        premise = expect_program(
            once(nat(len(ctx))), "receive_channel_from continuation"
        )
        exec_p = premise._resolve(put(ctx, level, slot.cont) + (slot.carried,), offer)

        async def execute(endpoints, offer_chan):
            carried_endpoint, next_endpoint = await endpoints[level].recv()
            endpoints = put(endpoints, level, next_endpoint)
            return exec_p, endpoints + (carried_endpoint,), offer_chan

        return execute

    return PartialSession("receive_channel_from", resolve)


# -- binary choice ------------------------------------------------------------


def offer_choice(left, right) -> PartialSession:
    """Offer both branches over the same context; the client's tag decides
    which one runs. Only the chosen branch ever executes."""
    expect_program(left, "offer_choice")
    expect_program(right, "offer_choice")

    def resolve(ctx, offer):
        _expect_offer("offer_choice", offer, ExternalChoice)
        exec_left = left._resolve(ctx, offer.left)
        exec_right = right._resolve(ctx, offer.right)

        async def execute(endpoints, offer_chan):
            side, next_offer = await ask(offer_chan)
            chosen = exec_left if side == LEFT else exec_right
            return chosen, endpoints, next_offer

        return execute

    return PartialSession("offer_choice", resolve)


def choose(side: str, n, cont) -> PartialSession:
    """Send a branch tag to the choice provider at slot `n`."""
    if side not in (LEFT, RIGHT):
        raise ProtocolError(f"choose: side must be 'left' or 'right', got {side!r}")
    expect_program(cont, "choose")

    def resolve(ctx, offer):
        slot = _expect_slot(f"choose_{side}", n, ctx, ExternalChoice)
        chosen = slot.left if side == LEFT else slot.right
        level = n.level
        exec_cont = cont._resolve(put(ctx, level, chosen), offer)

        async def execute(endpoints, offer_chan):
            receiver = answer(await endpoints[level].recv(), side)
            return exec_cont, put(endpoints, level, receiver), offer_chan

        return execute

    return PartialSession(f"choose_{side}", resolve, synth_protocol=cont._synth)


def choose_left(n, cont) -> PartialSession:
    return choose(LEFT, n, cont)


def choose_right(n, cont) -> PartialSession:
    return choose(RIGHT, n, cont)


def offer(side: str, cont) -> PartialSession:
    """Announce the chosen branch with a tag, then continue as that branch."""
    if side not in (LEFT, RIGHT):
        raise ProtocolError(f"offer: side must be 'left' or 'right', got {side!r}")
    expect_program(cont, "offer")

    def resolve(ctx, offer_protocol):
        _expect_offer(f"offer_{side}", offer_protocol, InternalChoice)
        chosen = offer_protocol.left if side == LEFT else offer_protocol.right
        exec_cont = cont._resolve(ctx, chosen)

        async def execute(endpoints, offer_chan):
            return exec_cont, endpoints, emit(offer_chan, side)

        return execute

    return PartialSession(f"offer_{side}", resolve)


def offer_left(cont) -> PartialSession:
    return offer(LEFT, cont)


def offer_right(cont) -> PartialSession:
    return offer(RIGHT, cont)


def case(n, left, right) -> PartialSession:
    """Take the branch whose tag the provider at slot `n` announces. Both branch
    programs must offer the same protocol; their contexts differ only at
    slot `n`, so eliminating either branch empties the same slot."""
    expect_program(left, "case")
    expect_program(right, "case")

    def resolve(ctx, offer):
        slot = _expect_slot("case", n, ctx, InternalChoice)
        level = n.level
        exec_left = left._resolve(put(ctx, level, slot.left), offer)
        exec_right = right._resolve(put(ctx, level, slot.right), offer)

        async def execute(endpoints, offer_chan):
            side, next_endpoint = await endpoints[level].recv()
            chosen = exec_left if side == LEFT else exec_right
            return chosen, put(endpoints, level, next_endpoint), offer_chan

        return execute

    return PartialSession("case", resolve)
