"""The message of one provider step, checked against `payload_of`.

Each case drives one provider rule on a hand-held channel, as a driver of
the client's run, and reads its first message. A direct step sends
`(carried, Receiver)`; a reversed step sends a `Sender` and runs on once
the client replies `(carried, Sender)`; a signal step sends `END`. The run
ends once both have ended, and raises if the provider failed.
"""

import pytest

from conftest import run
from sessia import (
    LEFT,
    End,
    ExternalChoice,
    InternalChoice,
    ReceiveChannel,
    ReceiveValue,
    SendChannel,
    SendValue,
    Z,
    offer_choice,
    offer_left,
    payload_of,
    receive_channel,
    receive_value,
    send_channel_from,
    send_value,
    terminate,
    wait,
)
from sessia.runtime import END, Receiver, Sender, channel, spawn, start


def send_value_case():
    return SendValue(int, End), send_value(5, terminate()), (), 5


def receive_value_case():
    return ReceiveValue(int, End), receive_value(lambda v: terminate()), (), 5


def send_channel_case():
    # The provider holds one End channel, which it delegates.
    _, held = channel()
    program = send_channel_from(Z, terminate())
    return SendChannel(End, End), program, (held,), held


def receive_channel_case():
    # The client delegates an End channel, which the provider waits on.
    delegated_sender, delegated = channel()
    delegated_sender.send(END)
    program = receive_channel(lambda n: wait(n, terminate()))
    return ReceiveChannel(End, End), program, (), delegated


def internal_choice_case():
    return InternalChoice(End, End), offer_left(terminate()), (), LEFT


def external_choice_case():
    return ExternalChoice(End, End), offer_choice(terminate(), terminate()), (), LEFT


def end_case():
    return End, terminate(), (), None


@pytest.mark.parametrize(
    "case",
    [
        send_value_case,
        receive_value_case,
        send_channel_case,
        receive_channel_case,
        internal_choice_case,
        external_choice_case,
        end_case,
    ],
)
def test_a_provider_step_sends_the_message_payload_of_declares(case):
    async def main():
        protocol, program, endpoints, carried = case()
        ctx = [End for _ in endpoints]  # every held channel is End
        offer, client_end = channel()
        spawn(program._resolve(ctx, protocol), endpoints, offer)
        message = await client_end.recv()
        kind = payload_of(protocol).kind
        if kind == "direct":
            assert type(message) is tuple
            sent, next_end = message
            assert sent == carried and isinstance(next_end, Receiver)
        elif kind == "reversed":
            assert isinstance(message, Sender)
            next_offer, next_end = channel()
            message.send((carried, next_offer))
        else:
            assert kind == "signal" and message is END
            next_end = None
        if next_end is not None:
            # The continuation, End in every case, terminates.
            assert await next_end.recv() is END

    run(start(main()))
