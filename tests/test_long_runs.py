"""Runs far longer than any program in the other tests.

A step must cost the same however many steps came before it: a task's
stack may not grow with the run, and no run may hit the recursion limit.
None of these tests takes a timing gate.
"""

import sys

from conftest import run
from sessia import (
    End,
    ReceiveChannel,
    SendValue,
    Session,
    apply_channel,
    choose_left,
    choose_right,
    include_session,
    nat,
    receive_channel,
    receive_value_from,
    recording,
    run_session,
    send_value,
    session,
    terminate,
    unfix_session_for,
    wait,
)
from sessia.cli import main as cli_main
from sessia.demos import CounterStream, counter_pair, stream_producer


def test_counter_stream_of_ten_thousand_values():
    with recording() as rec:
        # The guard only catches a hang; under `python -X dev` this run
        # alone takes about 10 s.
        run(run_session(counter_pair(0, 10_000)), timeout=120.0)
    assert [int(v) for v in rec.transcript.values("RECV")] == list(range(10_000))
    assert rec.conservation_ok()
    assert rec.one_shot_ok()
    # One counter entry per rule, however long the run.
    assert len(rec.counters.executors) == 11
    assert sum(rec.counters.executors.values()) == 40_010
    assert sum(rec.counters.continuations.values()) == 20_003


def _frame_depth() -> int:
    frame, depth = sys._getframe(), 0
    while frame is not None:
        depth += 1
        frame = frame.f_back
    return depth


def depth_recording_client(take: int, depths: list) -> Session:
    """The bounded stream client, noting the frame depth at every value."""

    def step(stream, remaining: int):
        if remaining == 0:
            return unfix_session_for(
                stream, choose_right(stream, wait(stream, terminate()))
            )

        def on_value(value):
            depths.append(_frame_depth())
            return step(stream, remaining - 1)

        return unfix_session_for(
            stream, choose_left(stream, receive_value_from(stream, on_value))
        )

    return session(
        ReceiveChannel(CounterStream, End),
        receive_channel(lambda stream: step(stream, take)),
    )


def test_stack_depth_does_not_grow_with_the_stream():
    depths = []
    client = depth_recording_client(2_000, depths)
    run(run_session(apply_channel(client, stream_producer(0))))
    assert len(depths) == 2_000
    assert depths[0] == depths[1] == depths[-1]


def test_fanout_over_three_hundred_providers():
    width = 300
    received = []

    def record_then(cont):
        def on_value(value):
            received.append(value)
            return cont

        return on_value

    program = terminate()
    for k in reversed(range(width)):
        program = receive_value_from(nat(k), record_then(wait(nat(k), program)))
    for k in reversed(range(width)):
        provider = session(SendValue(int, End), send_value(k, terminate()))
        program = include_session(provider, lambda _lens, body=program: body)
    with recording() as rec:
        run(run_session(session(End, program)))
    assert received == list(range(width))
    assert rec.conservation_ok()
    assert rec.one_shot_ok()


def test_a_flat_chain_of_nine_hundred_sends_checks_and_runs():
    # Checking costs one frame per construct, so 900 nested `send_value`s
    # check under the default recursion limit; at two frames a construct
    # the check raised RecursionError at 500.
    assert sys.getrecursionlimit() <= 1000
    length = 900
    protocol, program = End, terminate()
    for k in reversed(range(length)):
        protocol, program = SendValue(int, protocol), send_value(k, program)
    provider = session(protocol, program)
    received = []

    def take(lens, remaining):
        if remaining == 0:
            return wait(lens, terminate())
        return receive_value_from(
            lens, lambda value: received.append(value) or take(lens, remaining - 1)
        )

    client = include_session(provider, lambda lens: take(lens, length))
    with recording() as rec:
        run(run_session(session(End, client)))
    assert received == list(range(length))
    assert rec.conservation_ok()
    assert rec.one_shot_ok()


def test_cli_counter_takes_a_thousand_values(capsys):
    assert cli_main(["run", "counter", "--take", "1000"]) == 0
    lines = capsys.readouterr().out.splitlines()
    assert lines == [f"RECV\t{k}" for k in range(1000)]
