"""The linear context: an ordered, type-level list of channel slots.

A slot is either a session type or `Empty` (a consumed position). Consumed
slots are never compacted away, so the position of every other slot — and
hence every lens pointing at it — stays valid for the whole derivation.

The checker holds a context as a list of slots indexed by de Bruijn level,
owned by the rule being checked: a read is `ctx[level]`, a retype
`ctx[level] = slot`, an include `ctx.append(slot)`. At run time an endpoints
list of the same length, owned by the driver that steps it, mirrors it: `()`
per `Empty` slot, a receiving endpoint per live slot. An owner updates its
list in place, as a value with one owner may be (Wadler, "Linear types can
change the world!"), and never touches it once it has handed it to a
premise, a deferred check or a spawned driver. Only a choice copies, for
its second branch; `cut` gives its provider the tail and replaces it.

Nested pairs exist only at the public API: `()` for the empty list and
`(slot, rest)` for cons, as taken and returned by `context`, `slots_of`,
`slot_at`, `length`, `length_of`, `append`, `lens_resolve`, `context_str`,
`empty_endpoints` and `validate_context`, and as printed in diagnostics.
All but `slots_of` raise `validate_context`'s errors on a malformed
context. They convert by iteration, so their cost is linear in the length
and they never recurse.

Slots are addressed by de Bruijn levels: zero-sized naturals `Z` and
`S(n)`, which exist as ordinary copyable values so one channel name can be
used at several steps of its protocol. Linearity lives in the slot types,
not in the name. `Z` doubles as the recursion marker of `Fix` bodies, which
is why it is also a `Protocol`.
"""

from __future__ import annotations

from dataclasses import dataclass

from .errors import LinearityError, ProtocolError
from .protocols import Protocol, Unique


class _Empty(Unique):
    """A consumed channel position; never communicates."""


Empty = _Empty()


def is_slot(x) -> bool:
    return isinstance(x, (Protocol, _Empty))


class Nat:
    """Type-level natural used as a context lens; content-free and copyable."""

    __slots__ = ()
    level: int

    def __str__(self):
        return "S(" * self.level + "Z" + ")" * self.level

    def __repr__(self):
        return str(self)


class _Z(Unique, Nat, Protocol):
    # Z is both lens level zero and the recursion point of Fix bodies.
    level = 0

    def payload_layout(self):
        raise ProtocolError(
            "Z is a recursion marker, not a wire protocol; "
            "apply it to a concrete session type first"
        )


Z = _Z()


@dataclass(frozen=True, eq=False, repr=False)
class S(Nat):
    """Successor lens: delegates access to the tail of the context.

    Its level is stored when it is built, and a natural is determined by
    its level, so reading, comparing and hashing a lens never walk `pred`.
    It has slots, as `nat` keeps every lens, and copies as `nat(level)`.
    """

    __slots__ = ("pred", "level")
    pred: Nat

    def __post_init__(self):
        if not isinstance(self.pred, Nat):
            raise ProtocolError(f"S expects a natural, got {self.pred!r}")
        object.__setattr__(self, "level", self.pred.level + 1)

    def __eq__(self, other):
        if isinstance(other, S):
            return self.level == other.level
        return NotImplemented

    def __hash__(self):
        return hash(("S", self.level))

    def __reduce__(self):
        return nat, (self.level,)


# _nats[k] is the lens at level k; grown on demand, never shrunk.
_nats: list = [Z]


def nat(level: int) -> Nat:
    """The lens value at a given de Bruijn level; one value per level."""
    if not isinstance(level, int) or level < 0:
        raise ProtocolError(f"nat: expected a non-negative int level, got {level!r}")
    while len(_nats) <= level:
        _nats.append(S(_nats[-1]))
    return _nats[level]


def _level(n) -> int:
    if isinstance(n, Nat):
        return n.level
    raise ProtocolError(f"expected a context lens (Z or S(n)), got {n!r}")


# -- contexts as lists of slots ------------------------------------------------


def focus(n, ctx):
    """The slot at lens `n` of a context; hot paths call it to reject."""
    level = _level(n)
    if level >= len(ctx):
        raise LinearityError(
            f"lens level {level} out of range for context of length {len(ctx)}"
        )
    return ctx[level]


def live_slot(ctx):
    """(level, slot) of the first unconsumed slot, or None; a rule calls it
    only to name the slot it rejects."""
    for level, slot in enumerate(ctx):
        if slot is not Empty:
            return level, slot
    return None


def show(ctx) -> str:
    """A context printed as its nested pairs, as diagnostics show it."""
    return "".join(f"({slot}, " for slot in ctx) + "()" + ")" * len(ctx)


# -- the nested-pair public API ------------------------------------------------


def _nest(items, tail=()) -> tuple:
    for item in reversed(items):
        tail = (item, tail)
    return tail


def validate_context(c, who: str = "context") -> list:
    """The slots of the nested-pair context `c`, which must be well formed."""
    out = []
    while c != ():
        if not (isinstance(c, tuple) and len(c) == 2):
            raise ProtocolError(f"{who}: malformed context {c!r}")
        head, c = c
        if not is_slot(head):
            raise ProtocolError(f"{who}: {head!r} is not a Slot")
        out.append(head)
    return out


def context(slots) -> tuple:
    """Build the nested-pair context from an iterable of slots."""
    slots = list(slots)
    for slot in slots:
        if not is_slot(slot):
            raise ProtocolError(f"context: {slot!r} is not a Slot")
    return _nest(slots)


def slots_of(c) -> list:
    """The items of a nested-pair list of slots or endpoints, unchecked."""
    out = []
    while c != ():
        head, c = c
        out.append(head)
    return out


def context_str(c) -> str:
    return show(validate_context(c))


def length(c) -> int:
    return len(validate_context(c))


def length_of(c) -> Nat:
    """Type-level length, the lens the next include gets: `nat(length(c))`."""
    return nat(length(c))


def append(c1, c2) -> tuple:
    """c1 ++ c2, preserving order; levels into c1 stay valid."""
    slots = validate_context(c1)
    validate_context(c2)
    return _nest(slots, c2)


def slot_at(n, c):
    return focus(n, validate_context(c))


def lens_resolve(n, c, a1, a2) -> tuple:
    """Retype the slot at level `n` from `a1` to `a2`; all other slots stay.

    The focused slot must hold exactly `a1`; anything else is a linearity
    error (slot already consumed, wrong protocol state, or out of range).
    """
    slots = validate_context(c)
    if not is_slot(a2):
        raise ProtocolError(f"lens_resolve: {a2!r} is not a Slot")
    actual = focus(n, slots)
    if actual != a1:
        raise LinearityError(
            f"lens {n.level}: slot has type {actual}, expected {a1}"
        )
    slots[n.level] = a2
    return _nest(slots)


def empty_endpoints(c) -> tuple:
    """The all-unit endpoints product of an empty context."""
    slots = validate_context(c)
    live = live_slot(slots)
    if live is not None:
        raise LinearityError(
            f"context {show(slots)} is not empty: "
            f"slot {live[0]} still holds {live[1]}"
        )
    return _nest(((),) * len(slots))
