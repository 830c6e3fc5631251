"""Run instrumentation: transcripts, endpoint counters, step counters.

A `Recorder` is installed with the `recording()` context manager and is
visible to every task spawned underneath it (it travels through
`contextvars`). The library feeds it three kinds of data:

* transcript events (SEND / RECV / ACQ / REL / END) with stable per-run
  task ids, serializable as ``KIND<TAB>value`` lines;
* endpoint accounting: every channel endpoint created and consumed;
* step accounting: how many executors and user continuations each typing
  rule ran, and how many second uses of a one-shot resource (an executor,
  a continuation or a channel endpoint) the runtime refused.

Demos and tests use the transcript; the conservation checks
(`created == consumed`, no refused second use) back the library's
linearity claims.
"""

from __future__ import annotations

import asyncio
import contextlib
import contextvars
import itertools
import time
import weakref
from collections import Counter
from dataclasses import dataclass, field
from typing import NoReturn

from .errors import RuntimeViolation

EVENT_KINDS = ("SEND", "RECV", "ACQ", "REL", "END")


@dataclass(frozen=True, slots=True)
class Event:
    seq: int
    timestamp: float
    task: str
    kind: str
    value: str

    def line(self) -> str:
        return f"{self.kind}\t{self.value}"


class Transcript:
    """Append-only ordered log of events for one run or demo."""

    def __init__(self):
        self._events: list[Event] = []

    def append(self, event: Event) -> None:
        self._events.append(event)

    def events(self, kind: str | None = None) -> list[Event]:
        if kind is None:
            return list(self._events)
        return [e for e in self._events if e.kind == kind]

    def values(self, kind: str) -> list[str]:
        return [e.value for e in self._events if e.kind == kind]

    def lines(self) -> list[str]:
        return [e.line() for e in self._events]

    def __len__(self) -> int:
        return len(self._events)

    def __iter__(self):
        return iter(self._events)


class _NoTask:
    """Key for events recorded outside any task."""


_NO_TASK = _NoTask()


@dataclass
class Counters:
    endpoints_created: int = 0
    endpoints_consumed: int = 0
    # Steps and continuations run per rule name: bounded however long the run.
    executors: Counter[str] = field(default_factory=Counter)
    continuations: Counter[str] = field(default_factory=Counter)
    polarity_violations: int = 0
    reuses: int = 0  # refused second uses of one-shot resources


class Recorder:
    """Collects one transcript plus counters."""

    def __init__(self):
        self.transcript = Transcript()
        self.counters = Counters()
        self._seq = itertools.count()
        # Keyed by the task object: CPython reuses the id of a finished task.
        self._task_ids: weakref.WeakKeyDictionary = weakref.WeakKeyDictionary()
        self._task_seq = itertools.count(1)

    # -- transcript ------------------------------------------------------

    def _task_name(self) -> str:
        try:
            task = asyncio.current_task()
        except RuntimeError:
            task = None
        key = task if task is not None else _NO_TASK
        name = self._task_ids.get(key)
        if name is None:
            # Stable per-run ids in first-seen order, so transcripts are
            # reproducible across processes regardless of asyncio's own
            # global task naming.
            name = f"t{next(self._task_seq)}"
            self._task_ids[key] = name
        return name

    def record(self, kind: str, value: object = "") -> Event:
        if kind not in EVENT_KINDS:
            raise ValueError(f"unknown event kind {kind!r}")
        event = Event(
            seq=next(self._seq),
            timestamp=time.monotonic(),
            task=self._task_name(),
            kind=kind,
            value=str(value),
        )
        self.transcript.append(event)
        return event

    # -- endpoint accounting ----------------------------------------------

    def channel_created(self) -> None:
        self.counters.endpoints_created += 2

    def endpoint_consumed(self) -> None:
        self.counters.endpoints_consumed += 1

    def polarity_violation(self) -> None:
        self.counters.polarity_violations += 1

    # -- step accounting ---------------------------------------------------

    def executor_ran(self, rule: str) -> None:
        self.counters.executors[rule] += 1

    def continuation_ran(self, rule: str) -> None:
        self.counters.continuations[rule] += 1

    # -- checks ------------------------------------------------------------

    def conservation_ok(self) -> bool:
        return self.counters.endpoints_created == self.counters.endpoints_consumed

    def one_shot_ok(self) -> bool:
        return self.counters.reuses == 0


_active: contextvars.ContextVar[Recorder | None] = contextvars.ContextVar(
    "sessia_recorder", default=None
)


# The active Recorder or None, looked up with no Python frame.
active_recorder = _active.get


def record_event(kind: str, value: object = "") -> None:
    rec = _active.get()
    if rec is not None:
        rec.record(kind, value)


def refuse_reuse(message: str) -> NoReturn:
    """Refuse a one-shot resource's second use; the active Recorder counts it."""
    rec = _active.get()
    if rec is not None:
        rec.counters.reuses += 1
    raise RuntimeViolation(message)


@contextlib.contextmanager
def recording():
    """Install a fresh Recorder for the dynamic extent of the block."""
    rec = Recorder()
    token = _active.set(rec)
    try:
        yield rec
    finally:
        _active.reset(token)
