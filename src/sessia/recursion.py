"""Recursive session types: a type-level fixed point over protocol shapes.

`Fix(body)` closes a protocol shape over itself: the shape uses the marker
`Z` in continuation positions, and `type_apply(body, Fix(body))` is the one
and only unrolling. Rolling (`fix_session`) and unrolling
(`unfix_session_for`) are explicit and purely representational: no message
is exchanged and no channel is touched, which keeps the fixed point
iso-recursive. A body must be contractive: its top level is a
communication step, never `Z` or another `Fix`.

`substitute` is the one substitution traversal, shared with the shared
session types. It rebuilds the continuation fields each constructor
declares and leaves carried fields untouched: delegated channel types are
complete protocols of their own. Constructors without continuations
(`End`, an inner `Fix`, a release step) are leaves, and the caller decides
what a leaf means; `type_apply` keeps every leaf as it is. It walks with an
explicit stack, so a body of any depth unrolls. A `Fix` node forms its
unrolling with itself, once; a later formation of it is a copy that keeps
both (protocols are hash-consed).
Multi-level recursion markers (`S(Z)` and deeper) are not supported.
"""

from __future__ import annotations

from .context import Nat, S, Z, _Z, focus
from .core import UNCHECKED, ContRule, LensRule
from .errors import ProtocolError
from .protocols import Protocol


def substitute(f, x: Protocol, leaf):
    """Replace the recursion marker Z by `x` in the continuations of `f`.

    `leaf(node)` gives the result for every other node without
    continuations, including values that are not session types at all. The
    nodes are visited depth first, left to right, as a recursive walk would,
    so the first leaf that `leaf` rejects is the one reported.
    """
    done = {}  # id of a node visited -> its result
    stack = [(f, False)]
    while stack:
        node, ready = stack.pop()
        if id(node) in done:
            continue
        conts = getattr(node, "_conts", None)
        if not conts:
            done[id(node)] = x if node is Z else leaf(node)
        elif ready:
            done[id(node)] = type(node)(*[
                done[id(getattr(node, name))] if name in conts else getattr(node, name)
                for name in node._fields
            ])
        else:
            stack.append((node, True))
            stack.extend((getattr(node, name), False) for name in reversed(conts))
    return done[id(f)]


def _keep_leaf(f):
    if isinstance(f, Protocol):
        # End, an inner fixed point (its own Z is bound) or a release step:
        # none carries open recursion.
        return f
    if isinstance(f, S):
        raise ProtocolError(
            "multi-level recursion markers (S(Z), ...) are not supported; "
            "only Z marks the recursion point"
        )
    raise ProtocolError(f"type_apply: {f!r} is not a session type")


def type_apply(f: Protocol, x: Protocol) -> Protocol:
    """Substitute `x` for the recursion marker Z throughout `f`."""
    return substitute(f, x, _keep_leaf)


class Fix(Protocol):
    """The fixed point of a protocol shape; unrolls to one step of itself."""

    _carried = ("body", None)
    _kept = ("_canon", "_unrolling")

    def __post_init__(self):
        super().__post_init__()
        # A body that is Z or a Fix never reaches a communication step, so
        # its unrolling (and its payload) would recurse forever.
        if isinstance(self.body, (_Z, Fix)):
            raise ProtocolError(
                f"Fix body {self.body} is not contractive: it must start with "
                f"a communication step, not Z or another Fix"
            )
        # Formed now, so that a malformed body fails at type formation
        # rather than at first unroll; it refers back to this node.
        object.__setattr__(self, "_unrolling", type_apply(self.body, self))

    def unroll(self) -> Protocol:
        return self._unrolling

    def payload_layout(self):
        # Rolling is representation-only; the wire carries the unrolling.
        return self.unroll().payload_layout()


class fix_session(ContRule):
    """Roll the unrolled session offered by `cont` into the fixed point."""

    __slots__ = ()

    def _resolve(self, ctx, offer):
        self.execute = None if self.execute is UNCHECKED else self._linked_twice()
        if not isinstance(offer, Fix):
            raise ProtocolError(
                f"fix_session offers a Fix protocol, "
                f"but the expected protocol here is {offer}"
            )
        return self.cont._resolve(ctx, offer._unrolling)


class unfix_session_for(LensRule):
    """Unroll the recursive protocol at slot `n`; exchanges nothing."""

    __slots__ = ()

    def _resolve(self, ctx, offer):
        self.execute = None if self.execute is UNCHECKED else self._linked_twice()
        n = self.n
        valid = isinstance(n, Nat) and n.level < len(ctx)
        slot = ctx[n.level] if valid else focus(n, ctx)
        if not isinstance(slot, Fix):
            raise ProtocolError(
                f"unfix_session_for: lens {n.level}: slot has type {slot}, "
                f"expected a Fix protocol"
            )
        ctx[n.level] = slot._unrolling
        return self.cont._resolve(ctx, offer)
