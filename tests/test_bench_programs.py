"""One tiny op of each benchmark workload, built as `perfbench/run.py` does.

The benchmark imports its program builders from `perfbench/programs.py` and
`channel`/`spawn` from `sessia.runtime`; a change that breaks either fails
here, in the unit tests, instead of in a benchmark run. Each op's recorded
(channels, steps, continuations) are pinned, as `--trace 1` reports them.
"""

import asyncio
import sys
from pathlib import Path

from conftest import run
from sessia import (
    End,
    apply_channel,
    nat,
    recording,
    run_session,
    run_shared_session,
    session,
    shared_session,
)
from sessia.runtime import channel, spawn

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "perfbench"))
import programs  # noqa: E402


def trace_counts(rec) -> tuple[int, int, int]:
    counters = rec.counters
    return (
        counters.endpoints_created // 2,
        sum(counters.executors.values()),
        sum(counters.continuations.values()),
    )


def test_stream_op():
    seen, rechecks = [], []
    with recording() as rec:
        producer = programs.stream_producer(10, rechecks)
        client = programs.stream_client(5, seen)
        linked = apply_channel(
            session(programs.StreamClient, client),
            session(programs.CounterStream, producer),
        )
        run(run_session(linked))
    assert [value for _, value in seen] == [10, 11, 12, 13, 14]
    assert len(rechecks) == 5
    assert trace_counts(rec) == (22, 30, 13)


def test_fanout_op():
    seen = []
    values, order = [7, 8, 9, 10], [2, 0, 3, 1]
    with recording() as rec:
        providers = [
            session(programs.FanoutProvider, programs.fanout_provider(v))
            for v in values
        ]
        lenses = [nat(k) for k in range(len(values))]
        client = programs.fanout_client(providers, order, lenses, seen)
        run(run_session(session(End, client)))
    assert [value for _, value in seen] == [values[k] for k in order]
    assert trace_counts(rec) == (9, 21, 8)


def test_shared_op():
    async def main():
        seen, rechecks = [], []
        checked = shared_session(
            programs.SharedCounter, programs.shared_counter(20, rechecks)
        )
        chan = run_shared_session(checked)
        clients = [session(End, programs.shared_client(chan, seen)) for _ in range(2)]
        await asyncio.gather(*(run_session(c) for c in clients))
        assert sorted(value for _, value in seen) == [20, 21]
        chan.close()
        await asyncio.wait_for(chan.stopped.wait(), 1.0)
        assert chan.failure is None

    with recording() as rec:
        run(main())
    assert trace_counts(rec) == (8, 12, 6)


def test_runtime_probe_calls():
    # `hop_s`'s calls: a ping-pong of two `spawn`s outside any run, each a
    # run of its own, joined by `asyncio.gather`.
    rounds, replies = 3, []

    async def pong(rx):
        while (msg := await rx.recv()) is not None:
            reply, rx = msg
            reply.send(None)

    async def ping(tx):
        for _ in range(rounds):
            reply_tx, reply_rx = channel()
            next_tx, next_rx = channel()
            tx.send((reply_tx, next_rx))
            tx = next_tx
            replies.append(await reply_rx.recv())
        tx.send(None)

    async def main():
        tx, rx = channel()
        tx.send(1)
        assert await rx.recv() == 1
        tx, rx = channel()
        await asyncio.gather(spawn(pong(rx)), spawn(ping(tx)))

    run(main())
    assert replies == [None] * rounds
