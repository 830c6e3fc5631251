import asyncio
import contextlib
import gc
import itertools

from hypothesis import settings

from sessia import End, ReceiveValue, SendValue
from sessia.runtime import spawn, start

# Generated tests are reproducible and never fail on a slow host: a fixed
# example sequence, no per-example deadline, a bounded example count, and
# no example database written to disk.
settings.register_profile(
    "sessia", deadline=None, derandomize=True, max_examples=60, database=None
)
settings.load_profile("sessia")

# Three distinct protocols used as the slot alphabet for enumerated
# context/lens instance tests.
PROTOS3 = (End, SendValue(int, End), ReceiveValue(str, End))


def enumerate_contexts(alphabet, max_len):
    """All slot lists of length 0..max_len over the alphabet."""
    for n in range(max_len + 1):
        for combo in itertools.product(alphabet, repeat=n):
            yield list(combo)


def run(coro, timeout=10.0):
    """Run a coroutine on a fresh loop with a deadlock-guard timeout."""

    async def guarded():
        return await asyncio.wait_for(coro, timeout)

    return asyncio.run(guarded())


async def run_program(program, offer):
    """Run a checked program over no channels, offering on `offer`, as a
    driver of a fresh run."""

    async def spawning():
        spawn(program, (), offer)

    await start(spawning())


@contextlib.contextmanager
def gc_off():
    """Switch the cyclic garbage collector off, and back on afterwards only
    if it was on, so a whole test session run with it off stays so."""
    enabled = gc.isenabled()
    gc.disable()
    try:
        yield
    finally:
        if enabled:
            gc.enable()


def run_without_gc(coro):
    """Run like `run`, with the cyclic garbage collector switched off."""
    with gc_off():
        return run(coro)
