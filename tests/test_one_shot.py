"""One-shot resources: every channel end, continuation and program is used
at most once, and a second use raises the same error it always has."""

import pytest

from conftest import run
from sessia import End, ProtocolError, RuntimeViolation, include_session, recording
from sessia import session, terminate
from sessia.runtime import channel


# -- the texts a second use raises ---------------------------------------------


def test_sending_twice_on_one_endpoint_is_rejected():
    async def main():
        sender, receiver = channel()
        sender.send(1)
        with pytest.raises(RuntimeViolation) as raised:
            sender.send(2)
        assert str(raised.value) == "one-shot channel endpoint used twice (send)"
        assert await receiver.recv() == 1

    with recording() as rec:
        run(main())
    assert rec.counters.endpoints_created == 2
    assert rec.conservation_ok()


def test_receiving_twice_on_one_endpoint_is_rejected():
    async def main():
        sender, receiver = channel()
        sender.send("x")
        assert await receiver.recv() == "x"
        with pytest.raises(RuntimeViolation) as raised:
            await receiver.recv()
        assert str(raised.value) == "one-shot channel endpoint used twice (recv)"

    with recording() as rec:
        run(main())
    assert rec.conservation_ok()


def test_a_dropped_unsent_sender_wakes_its_receiver():
    async def main():
        sender, receiver = channel()
        del sender
        with pytest.raises(RuntimeViolation) as raised:
            await receiver.recv()
        assert str(raised.value) == (
            "the sending endpoint of this channel was dropped unused"
        )

    run(main())


def test_a_continuation_must_be_callable():
    with pytest.raises(ProtocolError) as raised:
        include_session(session(End, terminate()), 42)
    assert str(raised.value) == "include_session: continuation must be callable, got 42"
