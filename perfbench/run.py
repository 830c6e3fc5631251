"""Benchmark for sessia: three seeded closed-loop workloads.

Run from anywhere (paths are found from this file):

    python3 perfbench/run.py --workload stream --seed 1 --seconds 20 --trace 0

`--trace 0` runs the workload with the Recorder off and prints the
end-to-end metrics. `--trace 1` runs it in four equal blocks, alternately
with the Recorder off and on, then times single-layer probes, and prints the
per-layer metrics. The last line of standard output is one JSON object:
`{"correct", "attempted", "failed", "metrics"}`. README.md in this
directory lists the metrics and what each one should move.

The benchmark uses only the public `sessia` API (plus
`sessia.runtime.channel`/`spawn` for the runtime probes) and times its own
calls into each layer; nothing inside the library is patched.
"""

from __future__ import annotations

import argparse
import asyncio
import contextlib
import gc
import json
import math
import os
import platform
import random
import resource
import statistics
import subprocess
import sys
import time
from array import array
from dataclasses import dataclass
from pathlib import Path
from time import perf_counter

HERE = Path(__file__).resolve().parent
SRC = HERE.parent / "src"

if sys.version_info < (3, 11):
    sys.exit("perfbench needs Python 3.11 or later (asyncio.timeout)")
if not (SRC / "sessia" / "__init__.py").is_file():
    sys.exit(f"perfbench: no sessia sources at {SRC}")
sys.path.insert(0, str(SRC))

# Importing the package is part of the set-up a user pays for, so it is
# timed before anything else of it is loaded.
_import_t0 = perf_counter()
import sessia  # noqa: E402

IMPORT_S = perf_counter() - _import_t0

if not Path(sessia.__file__).resolve().is_relative_to(SRC):
    sys.exit(f"perfbench: imported sessia from {sessia.__file__}, not {SRC}")

import programs  # noqa: E402
from sessia import (  # noqa: E402
    End,
    SendValue,
    append,
    apply_channel,
    length_of,
    lens_resolve,
    nat,
    recording,
    run_session,
    run_shared_session,
    session,
    shared_session,
)
from sessia.runtime import channel, spawn  # noqa: E402

SIZES = {"stream": 150, "fanout": 64, "shared": 8}

# Far above any healthy op (tens of ms): only a hang reaches it.
DEADLINE_S = 10.0
# How long a shared process may take to stop once its last channel is gone.
STOP_TIMEOUT_S = 5.0
WARMUP_S = 1.0
# The untraced run is cut into short windows. On a shared cloud host, other
# tenants' load slows the whole machine by 30-60% for seconds at a time
# (seen on a 2-vCPU Xeon VM), so the end-to-end timings are pooled over the
# fastest windows by throughput, just enough of them to hold FAST_OPS ops so
# that p90 has ten samples beyond it: they measure the program, not the
# neighbours.
WINDOWS = 80
FAST_OPS = 100
# A set-up sample in a fresh process after every few windows, so that the
# samples spread over the run.
SETUP_EVERY = 8
TRACE_BLOCKS = 4

END_TO_END = {
    "setup_s": "s",
    "ops_per_s": "1/s",
    "op_p50_ms": "ms",
    "op_p90_ms": "ms",
    "check_p50_ms": "ms",
    "peak_rss_mb": "MB",
}

PER_LAYER = {
    "runtime.sendrecv_us": "us",
    "runtime.hop_us": "us",
    "runtime.channels_per_op": "count",
    "runtime.gc_ms_per_op": "ms",
    "core.executors_per_op": "count",
    "core.continuations_per_op": "count",
    "core.recheck_us": "us",
    "core.step_us.head": "us",
    "core.step_us.tail": "us",
    "core.step_growth": "ratio",
    "context.append_us": "us",
    "context.lens_resolve_us": "us",
    "context.length_of_us": "us",
    "constructs.build_us": "us",
    "protocols.eq_us": "us",
    "recursion.unroll_us": "us",
    "shared.unroll_us": "us",
    "shared.acquire_wait_ms.p50": "ms",
    "shared.acquire_wait_ms.p90": "ms",
    "shared.hold_ms.p50": "ms",
    "shared.acquires_per_op": "count",
    "instrument.recorder_slowdown": "ratio",
    "instrument.events_per_op": "count",
}


# -- workloads -------------------------------------------------------------


class Laps:
    """Splits the preparation of one op into build time and check time."""

    def __init__(self):
        self.start = self.mark = perf_counter()
        self.build = 0.0
        self.check = 0.0

    def built(self) -> None:
        now = perf_counter()
        self.build += now - self.mark
        self.mark = now

    def checked(self) -> None:
        now = perf_counter()
        self.check += now - self.mark
        self.mark = now


class LinearWorkload:
    """A single client whose session has its own providers; no set-up."""

    clients = 1

    def __init__(self, size: int, rng: random.Random):
        self.size = size
        self.rng = rng
        # Seconds spent in one-step `session` calls; cleared, never rebound,
        # because running programs hold this list.
        self.rechecks: list[float] = []

    async def start(self) -> None:
        self.rechecks.clear()

    async def stop(self) -> bool:
        return True

    def verify(self, seen: list, expected) -> bool:
        return [value for _, value in seen] == expected

    def verify_window(self, ops: list) -> bool:
        return True

    def step_times(self, ops: list) -> list[list[float]]:
        return [[t for t, _ in op.seen] for op in ops if op.ok]


class Stream(LinearWorkload):
    """One client takes `size` values from a counter-stream producer."""

    name = "stream"
    peak_context = 2  # apply_channel includes the client, then the producer

    def prepare(self, seen: list, laps: Laps):
        start = self.rng.randrange(1_000_000)
        producer = programs.stream_producer(start, self.rechecks)
        client = programs.stream_client(self.size, seen)
        laps.built()
        linked = apply_channel(
            session(programs.StreamClient, client),
            session(programs.CounterStream, producer),
        )
        laps.checked()
        return linked, list(range(start, start + self.size))

    @staticmethod
    def protocol():
        return programs.stream_client_protocol()


class Fanout(LinearWorkload):
    """One client includes `size` providers and receives from each."""

    name = "fanout"

    def __init__(self, size: int, rng: random.Random):
        super().__init__(size, rng)
        self.peak_context = size
        # Lenses are content-free values; the k-th include gets level k.
        self.lenses = [nat(k) for k in range(size)]

    def prepare(self, seen: list, laps: Laps):
        rng = self.rng
        values = [rng.randrange(1_000_000) for _ in range(self.size)]
        order = rng.sample(range(self.size), self.size)
        trees = [programs.fanout_provider(v) for v in values]
        laps.built()
        providers = []
        # Fanout's continuations make no `session` call while running, so
        # its one-step checks are the provider checks.
        for tree in trees:
            t0 = perf_counter()
            providers.append(session(programs.FanoutProvider, tree))
            self.rechecks.append(perf_counter() - t0)
        laps.checked()
        client = programs.fanout_client(providers, order, self.lenses, seen)
        laps.built()
        checked = session(End, client)
        laps.checked()
        return checked, [values[k] for k in order]

    @staticmethod
    def protocol():
        return programs.fanout_provider_protocol()


class Shared:
    """`size` clients loop acquire/receive/release on one shared counter."""

    name = "shared"
    peak_context = 1  # the acquired body channel

    def __init__(self, size: int, rng: random.Random):
        self.clients = size
        self.rng = rng
        self.rechecks: list[float] = []
        self.chan = None
        self.serve_tasks: set = set()
        self.next_count = 0

    async def start(self) -> None:
        self.rechecks.clear()
        self.next_count = self.rng.randrange(1_000_000)
        checked = shared_session(
            programs.SharedCounter,
            programs.shared_counter(self.next_count, self.rechecks),
        )
        before = asyncio.all_tasks()
        self.chan = run_shared_session(checked)
        self.serve_tasks = asyncio.all_tasks() - before

    async def stop(self) -> bool:
        """Drop the last channel and wait for the shared process to end."""
        self.chan = None
        if not self.serve_tasks:
            return True
        _, pending = await asyncio.wait(self.serve_tasks, timeout=STOP_TIMEOUT_S)
        for task in pending:
            task.cancel()
        await asyncio.gather(*pending, return_exceptions=True)
        return not pending

    def prepare(self, seen: list, laps: Laps):
        client = programs.shared_client(self.chan, seen)
        laps.built()
        checked = session(End, client)
        laps.checked()
        return checked, None

    def verify(self, seen: list, expected) -> bool:
        return len(seen) == 1 and type(seen[0][1]) is int

    def verify_window(self, ops: list) -> bool:
        """The window's counts continue the process's gapless sequence.

        A failed op may have taken a count, so a window with one is judged
        by its ops alone.
        """
        counts = sorted(op.seen[0][1] for op in ops if op.ok)
        gapless = counts == list(range(self.next_count, self.next_count + len(counts)))
        if counts:
            self.next_count = counts[-1] + 1
        return gapless or len(counts) < len(ops)

    def step_times(self, ops: list) -> list[list[float]]:
        served = sorted((op.seen[0][1], op.seen[0][0]) for op in ops if op.ok)
        return [[t for _, t in served]]

    @staticmethod
    def protocol():
        return programs.shared_counter_protocol()


WORKLOADS = {"stream": Stream, "fanout": Fanout, "shared": Shared}


# -- the closed loop ---------------------------------------------------------


@dataclass(slots=True)
class Op:
    ok: bool
    latency: float
    build: float
    check: float
    run_start: float  # time.monotonic(), the Recorder's clock
    seen: list


class Tally:
    """Ops attempted and failed, with the error messages.

    `hung` is set once an op misses its deadline; no op starts after that,
    so a run whose program hangs still ends in bounded time.
    """

    def __init__(self):
        self.attempted = 0
        self.failed = 0
        self.errors: list[str] = []
        self.hung = False

    def add(self, ops: list, window_ok: bool) -> None:
        self.attempted += len(ops)
        self.failed += sum(not op.ok for op in ops)
        if not window_ok:
            self.fail_window(ops, "outputs of a window do not verify")

    def fail_window(self, ops: list, why: str) -> None:
        """Count as failed the ops of a window that a later check rejected."""
        self.failed += sum(op.ok for op in ops)
        self.errors.append(why)


async def run_op(workload, tally: Tally) -> Op:
    seen: list = []
    laps = Laps()
    run_start = math.nan
    ok = False
    try:
        program, expected = workload.prepare(seen, laps)
        run_start = time.monotonic()
        async with asyncio.timeout(DEADLINE_S):
            await run_session(program)
        ok = workload.verify(seen, expected)
        if not ok:
            tally.errors.append("wrong output")
    except TimeoutError:
        tally.hung = True
        tally.errors.append(f"an op missed its {DEADLINE_S:g} s deadline")
    except Exception as exc:  # a failed op is counted; the loop goes on
        tally.errors.append(f"{type(exc).__name__}: {exc}"[:300])
    return Op(ok, perf_counter() - laps.start, laps.build, laps.check, run_start, seen)


async def closed_loop(workload, seconds: float, tally: Tally):
    """Each client starts its next op when its previous one has ended."""
    ops: list[Op] = []
    t0 = perf_counter()
    stop_at = t0 + seconds

    async def client():
        while perf_counter() < stop_at and not tally.hung:
            ops.append(await run_op(workload, tally))

    await asyncio.gather(*(client() for _ in range(workload.clients)))
    elapsed = perf_counter() - t0
    tally.add(ops, workload.verify_window(ops))
    return ops, elapsed


def median(values) -> float:
    """Median, or 0.0 when failed ops left nothing to measure."""
    values = list(values)
    return statistics.median(values) if values else 0.0


def p50_p90(values) -> tuple[float, float]:
    if len(values) < 2:
        return median(values), median(values)
    return statistics.median(values), statistics.quantiles(values, n=10)[8]


# -- end-to-end run (Recorder off) ---------------------------------------------


@dataclass
class Window:
    """One timed window, reduced to numbers so memory does not grow with
    the number of ops."""

    ok: int
    elapsed: float
    latencies: array
    checks: array


def setup_sample(name: str, seed: int) -> float:
    """Set-up time of a fresh interpreter process, measured in that process."""
    out = subprocess.run(
        [sys.executable, str(Path(__file__).resolve()), "--workload", name,
         "--seed", str(seed), "--setup-probe"],
        capture_output=True, text=True, timeout=120, check=True,
    )
    return float(out.stdout.split()[-1])


def setup_probe(name: str, seed: int) -> float:
    """Import (timed at module load), first build and check, shared start."""

    async def first_program() -> float:
        t0 = perf_counter()
        workload = WORKLOADS[name](SIZES[name], random.Random(seed))
        await workload.start()
        program = workload.prepare([], Laps())
        elapsed = perf_counter() - t0
        del program
        await workload.stop()
        return elapsed

    return IMPORT_S + asyncio.run(first_program())


async def end_to_end(workload, seconds: float, seed: int, tally: Tally) -> tuple[dict, int]:
    """End-to-end metrics, and the number of latencies behind them."""
    windows, setups = [], []
    await workload.start()
    try:
        await closed_loop(workload, min(WARMUP_S, seconds / 10), tally)
        for i in range(WINDOWS):
            ops, elapsed = await closed_loop(workload, seconds / WINDOWS, tally)
            windows.append(Window(
                sum(op.ok for op in ops), elapsed,
                array("d", (op.latency for op in ops)), array("d", (op.check for op in ops)),
            ))
            workload.rechecks.clear()
            if i % SETUP_EVERY == SETUP_EVERY - 1:
                # Between windows the loop is idle, so the child runs alone.
                setups.append(setup_sample(workload.name, seed))
            if tally.hung:
                break
    finally:
        if not await workload.stop():
            tally.errors.append("shared process did not stop after its channel was dropped")
    fast = []
    for window in sorted(windows, key=lambda w: w.ok / w.elapsed, reverse=True):
        fast.append(window)
        if sum(len(w.latencies) for w in fast) >= FAST_OPS:
            break
    p50, p90 = p50_p90([t for w in fast for t in w.latencies])
    return {
        "setup_s": median(setups),
        "ops_per_s": sum(w.ok for w in fast) / sum(w.elapsed for w in fast),
        "op_p50_ms": p50 * 1e3,
        "op_p90_ms": p90 * 1e3,
        "check_p50_ms": median(t for w in fast for t in w.checks) * 1e3,
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
    }, sum(len(w.latencies) for w in fast)


# -- traced run -------------------------------------------------------------------


class GcClock:
    """Total time spent in interpreter garbage collections (a gc callback)."""

    def __init__(self):
        self.total = 0.0
        self._t0 = 0.0

    def __call__(self, phase, info):
        if phase == "start":
            self._t0 = perf_counter()
        else:
            self.total += perf_counter() - self._t0


@dataclass
class Block:
    ops: list
    elapsed: float
    gc_s: float
    recorder: object  # None for a block run with the Recorder off
    rechecks: list
    ok: bool


def trace_problems(rec) -> list[str]:
    problems = []
    if not rec.conservation_ok():
        problems.append(
            f"endpoints created {rec.counters.endpoints_created}, "
            f"consumed {rec.counters.endpoints_consumed}"
        )
    if not rec.one_shot_ok():
        problems.append("an executor or continuation ran more than once")
    if rec.counters.polarity_violations:
        problems.append(f"{rec.counters.polarity_violations} polarity violations")
    kinds = [e.kind for e in rec.transcript if e.kind in ("ACQ", "REL")]
    if kinds != ["ACQ", "REL"] * (len(kinds) // 2):
        problems.append("ACQ/REL events do not strictly alternate")
    return problems


async def run_block(workload, seconds, traced, tally, gc_clock, warmup=0.0) -> Block:
    with recording() if traced else contextlib.nullcontext() as rec:
        await workload.start()
        try:
            if warmup:
                await closed_loop(workload, warmup, tally)
            gc_before = gc_clock.total
            failed_before = tally.failed
            ops, elapsed = await closed_loop(workload, seconds, tally)
            gc_s = gc_clock.total - gc_before
            ok = tally.failed == failed_before
        finally:
            stopped = await workload.stop()
    problems = trace_problems(rec) if traced else []
    if not stopped:
        problems.append("shared process did not stop after its channel was dropped")
    for problem in problems:
        tally.fail_window(ops, problem)
    return Block(ops, elapsed, gc_s, rec, list(workload.rechecks), ok and not problems)


def step_gaps(sequences) -> tuple[float, float]:
    """Median gap between consecutive values in the first and last tenth."""
    head, tail = [], []
    for times in sequences:
        k = max(2, len(times) // 10)
        if len(times) < 2 * k:
            continue
        head += [b - a for a, b in zip(times[:k], times[1:k])]
        tail += [b - a for a, b in zip(times[-k:], times[-k + 1 :])]
    return median(head), median(tail)


def acquire_timings(traced_blocks) -> tuple[list, list]:
    """Per acquire: client run start to ACQ, and ACQ to REL.

    Critical sections are disjoint and counts are handed out in acquire
    order, so the op that received count `base + k` owns the k-th ACQ and
    REL events of its block.
    """
    waits, holds = [], []
    for b in traced_blocks:
        if not b.ok or not b.ops:
            continue
        acq = b.recorder.transcript.events("ACQ")
        rel = b.recorder.transcript.events("REL")
        base = min(op.seen[0][1] for op in b.ops)
        for op in b.ops:
            k = op.seen[0][1] - base
            waits.append(acq[k].timestamp - op.run_start)
            holds.append(rel[k].timestamp - acq[k].timestamp)
    return waits, holds


def batch(fn):
    """An async probe timing `fn` over a batch of calls that lasts >= 10 ms."""
    calls = 1
    while True:
        t0 = perf_counter()
        for _ in range(calls):
            fn()
        if perf_counter() - t0 >= 0.01:
            break
        calls *= 2

    async def timed() -> float:
        t0 = perf_counter()
        for _ in range(calls):
            fn()
        return (perf_counter() - t0) / calls

    return timed


async def fastest_rounds(probes: dict, rounds: int = 9) -> dict:
    """Per-call seconds of each probe, the fastest of `rounds` batches.

    Probes run round-robin, so a slow spell of the host hits them alike.
    """
    best = dict.fromkeys(probes, math.inf)
    for _ in range(rounds):
        for name, probe in probes.items():
            best[name] = min(best[name], await probe())
    return best


async def sendrecv_s(calls: int) -> float:
    t0 = perf_counter()
    for i in range(calls):
        tx, rx = channel()
        tx.send(i)
        await rx.recv()
    return (perf_counter() - t0) / calls


async def hop_s(rounds: int) -> float:
    """One message between two spawned tasks, from a ping-pong."""

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
            await reply_rx.recv()
        tx.send(None)

    tx, rx = channel()
    t0 = perf_counter()
    await asyncio.gather(spawn(pong(rx)), spawn(ping(tx)))
    return (perf_counter() - t0) / (2 * rounds)


def probes(workload) -> dict:
    """Single-layer probes, each returning seconds per call."""
    slot = SendValue(int, End)
    ctx: tuple = ()
    for _ in range(workload.peak_context):
        ctx = (slot, ctx)
    last = nat(workload.peak_context - 1)
    a, b = workload.protocol(), workload.protocol()
    if a != b or a is b:
        raise RuntimeError("two separately built protocol copies must be equal")
    return {
        "runtime.sendrecv_us": lambda: sendrecv_s(2_000),
        "runtime.hop_us": lambda: hop_s(500),
        "context.append_us": batch(lambda: append(ctx, (End, ()))),
        "context.lens_resolve_us": batch(lambda: lens_resolve(last, ctx, slot, End)),
        "context.length_of_us": batch(lambda: length_of(ctx)),
        "protocols.eq_us": batch(lambda: a == b),
        "recursion.unroll_us": batch(programs.CounterStream.unroll),
        "shared.unroll_us": batch(programs.SharedCounter.unroll),
    }


async def per_layer(workload, seconds: float, seed: int, tally: Tally) -> tuple[dict, int]:
    """Per-layer metrics, and the number of Recorder-off ops behind them."""
    gc_clock = GcClock()
    gc.callbacks.append(gc_clock)
    try:
        blocks = []
        for i in range(TRACE_BLOCKS):
            blocks.append(await run_block(
                workload, seconds / TRACE_BLOCKS, i % 2 == 1, tally, gc_clock,
                warmup=min(WARMUP_S, seconds / 10) if i == 0 else 0.0,
            ))
            if tally.hung:
                break
    finally:
        gc.callbacks.remove(gc_clock)
    plain = [b for b in blocks if b.recorder is None]
    traced = [b for b in blocks if b.recorder is not None]
    plain_ops = [op for b in plain for op in b.ops]
    traced_ops = [op for b in traced for op in b.ops]

    def per_traced_op(count) -> float:
        return sum(count(b.recorder) for b in traced) / max(1, len(traced_ops))

    def rate(blocks, ops) -> float:
        elapsed = sum(b.elapsed for b in blocks)
        return sum(op.ok for op in ops) / elapsed if elapsed else 0.0

    head, tail = step_gaps(seq for b in plain for seq in workload.step_times(b.ops))

    if isinstance(workload, Shared):
        contended = traced
    else:
        # This workload never acquires: time uncontended acquires instead.
        probe = Shared(1, random.Random(seed))
        contended = [await run_block(probe, 0.5, True, tally, GcClock())]
    waits, holds = acquire_timings(contended)
    wait50, wait90 = p50_p90(waits)

    metrics = {
        **await fastest_rounds(probes(workload)),
        "runtime.channels_per_op": per_traced_op(lambda r: r.counters.endpoints_created / 2),
        "runtime.gc_ms_per_op": sum(b.gc_s for b in plain) / max(1, len(plain_ops)) * 1e3,
        "core.executors_per_op": per_traced_op(lambda r: sum(r.counters.executors.values())),
        "core.continuations_per_op": per_traced_op(
            lambda r: sum(r.counters.continuations.values())
        ),
        "core.recheck_us": median(t for b in plain for t in b.rechecks),
        "core.step_us.head": head,
        "core.step_us.tail": tail,
        "core.step_growth": tail / head if head else 0.0,
        "constructs.build_us": median(op.build for op in plain_ops),
        "shared.acquire_wait_ms.p50": wait50 * 1e3,
        "shared.acquire_wait_ms.p90": wait90 * 1e3,
        "shared.hold_ms.p50": median(holds) * 1e3,
        "shared.acquires_per_op": per_traced_op(lambda r: len(r.transcript.events("ACQ"))),
        "instrument.recorder_slowdown": rate(plain, plain_ops) / (rate(traced, traced_ops) or math.inf),
        "instrument.events_per_op": per_traced_op(lambda r: len(r.transcript)),
    }
    for name, unit in PER_LAYER.items():
        if unit == "us":
            metrics[name] *= 1e6
    return metrics, len(plain_ops)


# -- one run -------------------------------------------------------------------


def benchmark(name: str, seed: int, seconds: float, trace: bool, size: int | None = None):
    """One run; returns the result object and human-readable report lines."""
    size = SIZES[name] if size is None else size
    workload = WORKLOADS[name](size, random.Random(seed))
    tally = Tally()
    measure = per_layer if trace else end_to_end
    values, samples = asyncio.run(measure(workload, seconds, seed, tally))
    units = PER_LAYER if trace else END_TO_END
    result = {
        "correct": tally.failed == 0 and not tally.errors,
        "attempted": tally.attempted,
        "failed": tally.failed,
        "metrics": {k: {"value": values[k], "unit": u} for k, u in units.items()},
    }
    report = [
        f"# sessia perfbench workload={name} size={size} seed={seed} "
        f"seconds={seconds} trace={int(trace)}",
        f"# python={platform.python_version()} machine={platform.machine()} "
        f"cpus={len(os.sched_getaffinity(0))}",
        f"# ops attempted={tally.attempted} failed={tally.failed} "
        f"error_rate={tally.failed / max(1, tally.attempted):.6f} "
        f"timing_samples={samples}",
        *(f"# error: {e}" for e in tally.errors[:5]),
        *(f"{k} = {values[k]:.6g} {u}" for k, u in units.items()),
    ]
    return result, report


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=20.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--setup-probe", action="store_true", help=argparse.SUPPRESS)
    args = parser.parse_args(argv)
    if args.setup_probe:
        print(repr(setup_probe(args.workload, args.seed)))
        return 0
    result, report = benchmark(args.workload, args.seed, args.seconds, bool(args.trace))
    print("\n".join(report))
    print(json.dumps(result), flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
