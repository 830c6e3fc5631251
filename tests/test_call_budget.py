"""Call budgets of the hot paths, counted rather than timed.

`sys.setprofile` counts every call into a function defined in the `sessia`
package, a coroutine resumed included. Each budget is the difference of
two runs' counts, one twice as long as the other, so the set-up both runs
share cancels out. The counts do not depend on the host's speed.
"""

import asyncio
import os
import sys

import sessia
from sessia import run_session, run_shared_session
from sessia.demos import counter_pair, shared_counter_client, shared_counter_provider

PACKAGE = os.path.dirname(sessia.__file__) + os.sep


def calls_into_sessia(run) -> int:
    calls = 0

    def profile(frame, event, arg):
        nonlocal calls
        if event == "call" and frame.f_code.co_filename.startswith(PACKAGE):
            calls += 1

    sys.setprofile(profile)
    try:
        run()
    finally:
        sys.setprofile(None)
    return calls


def calls_per_unit(run, units: int) -> float:
    """Calls per unit of `run(n)`, from runs of `units` and twice as many."""
    once = calls_into_sessia(lambda: run(units))
    twice = calls_into_sessia(lambda: run(2 * units))
    return (twice - once) / units


def stream(values: int) -> None:
    asyncio.run(run_session(counter_pair(0, values)))


def shared_ops(ops: int) -> None:
    async def main():
        async with run_shared_session(shared_counter_provider(0)) as chan:
            for _ in range(ops):
                await run_session(shared_counter_client(chan))

    asyncio.run(main())


def test_a_stream_value_stays_within_its_call_budget():
    # About 106 calls when every driver was a coroutine stepping `drive`; 68.9
    # once the scheduler steps checked programs itself; 60.9 once contexts and
    # endpoints are lists updated in place and value checks are tested inline.
    assert calls_per_unit(stream, 100) <= 63


def test_an_uncontended_shared_op_stays_within_its_call_budget():
    # 147.0 calls when an acquire and its section were coroutines; 99.94 once
    # the scheduler stepped checked programs; 92.94 with in-place contexts.
    assert calls_per_unit(shared_ops, 50) <= 95
