"""Session type constructors and their runtime payload layouts.

A session type (protocol) describes one endpoint of a conversation from the
provider's point of view. Each constructor declares its shape in three
class constants, and everything else about it is derived from them by
`Formed` and `Protocol`:

* `_carried`: the field sent alongside the continuation, as a pair
  `(field, role)`. The role is `VALUE` for a value type, `CHANNEL` for a
  delegated session type, or None for a session type that names the
  constructor but never travels. `_carried` itself is None when nothing
  is carried.
* `_conts`: the continuation fields, in order. Substitution rebuilds these
  and leaves the carried field untouched.
* `_polarity`: how one message travels. "direct" for provider-polarity
  sends, whose payload rides the step channel itself; "reversed" for
  provider-polarity receives, whose payload is a fresh sender through which
  the client replies (so the provider never holds a receiving endpoint);
  "signal" for the bare termination message; None for a token that never
  communicates.

The fields are the carried field followed by the continuation fields,
taken by position or by name. From the declaration come validation at
formation, printing (`Name(field, ...)`), and `payload_layout`, which
describes what the step helpers `emit`, `ask` and `answer` of `runtime`
send: the carried part, a branch tag when there are two continuations, and
one continuation endpoint.

Protocols are hash-consed (Filliâtre and Conchon, "Type-Safe Modular
Hash-Consing", ML Workshop 2006): forming a protocol finds the live node of
the same class and fields, its `_canon`, and validates a new one only once.
The first formation is that node; a later one is a fresh immutable copy
that keeps it, and whose fields are nodes too. So equality and hashing test
one node's identity, as two equal session types are one Rust type in
Ferrite, and the checker tests `a._canon is b._canon` with no call.

Value types carried by `ReceiveValue`/`SendValue` must be transferable
between tasks; they are given as a Python type (or tuple of types) and are
enforced with `isinstance` when a value is sent.
"""

from __future__ import annotations

import weakref
from _weakref import _remove_dead_weakref
from dataclasses import FrozenInstanceError, dataclass
from typing import ClassVar

from .errors import ProtocolError

VALUE = "value"
CHANNEL = "delegated-client-endpoint"


# The live nodes by class and fields, each held by a weak reference that
# drops its entry when the node dies. A field that is a node is keyed by its
# id, which the live node keeps valid, so that the table keeps no node alive
# (a `Fix` and its unrolling refer to each other); a value type by value.
_formed: dict = {}


class _Entry(weakref.ref):
    __slots__ = ("key",)  # a weak reference to a formed node, and its key


def _forget(entry: _Entry) -> None:  # a node died: drop its entry, if not replaced
    _remove_dead_weakref(_formed, entry.key)


class Formed:
    """Base of the hash-consed protocol nodes; derives behaviour from the shape."""

    _carried: ClassVar[tuple[str, str | None] | None] = None
    _conts: ClassVar[tuple[str, ...]] = ()
    # Derived once per class: every field (carried first), its validation as
    # (field, check, name in diagnostics), whether the carried field is a
    # value type (then a continuation follows), and the binding of any other
    # call, whose errors read as a generated `__init__`'s.
    _fields: ClassVar[tuple[str, ...]] = ()
    _checks: ClassVar[tuple] = ()
    _by_value: ClassVar[bool] = False
    _kept: ClassVar[tuple[str, ...]] = ("_canon",)  # what a copy takes from its node

    def __init_subclass__(cls, **kwargs):
        super().__init_subclass__(**kwargs)
        carried = () if cls._carried is None else (cls._carried,)
        cls._fields = tuple(field for field, _ in carried) + cls._conts
        cls._checks = tuple(
            (
                field,
                _check_value_type if (field, VALUE) in carried else check_protocol,
                f"{cls.__name__} {field}",
            )
            for field in cls._fields
        )
        cls._by_value = any(role == VALUE for _, role in carried)
        names, scope = ", ".join(cls._fields), {}
        exec(f"def __init__(self, {names}): return [{names}]", scope)
        cls._bind = scope["__init__"]
        cls._bind.__qualname__ = f"{cls.__qualname__}.__init__"

    def __new__(cls, *args, **kwargs):
        if kwargs or len(args) != len(cls._fields):
            args = cls._bind(None, *args, **kwargs)
        args = [arg._canon if isinstance(arg, Formed) else arg for arg in args]  # as nodes
        key = (cls, args[0], id(args[1])) if cls._by_value else (cls, *map(id, args))
        try:
            ref = _formed.get(key)
        except TypeError:  # an unhashable value type, which validation rejects
            ref = None
        formed = object.__new__(cls)
        for field, value in zip(cls._fields, args):
            object.__setattr__(formed, field, value)
        node = None if ref is None else ref()
        if node is None:
            object.__setattr__(formed, "_canon", formed)
            formed.__post_init__()
            ref = _Entry(formed, _forget)
            ref.key = key
            # No lock: `setdefault` and `_remove_dead_weakref` are each one
            # atomic step, so threads that form one node at once keep the
            # first, and a dead node's entry not yet dropped is dropped.
            while (kept := _formed.setdefault(key, ref)) is not ref:
                if (node := kept()) is not None:
                    break
                _remove_dead_weakref(_formed, key)
            else:
                return formed
        for name in cls._kept:  # a copy: its node, and what the node formed
            object.__setattr__(formed, name, getattr(node, name))
        return formed

    def __post_init__(self):
        """Validate the fields of a new node, once, before it is kept."""
        for field, check, who in self._checks:
            check(getattr(self, field), who)

    def __setattr__(self, name, value):
        raise FrozenInstanceError(f"cannot assign to field {name!r}")

    def __delattr__(self, name):
        raise FrozenInstanceError(f"cannot delete field {name!r}")

    def __eq__(self, other):
        return self._canon is other._canon if isinstance(other, Formed) else NotImplemented

    def __hash__(self):
        return id(self._canon)

    def __reduce__(self):
        # Unpickling and `copy` form the protocol again, which finds its node.
        return type(self), tuple(getattr(self, field) for field in self._fields)

    def __deepcopy__(self, memo):
        return self

    def __str__(self):
        return type_name(self)

    def __repr__(self):
        return type_name(self, named=True)


class Protocol(Formed):
    """Base class for linear session types."""

    _polarity: ClassVar[str | None] = "signal"

    def payload_layout(self) -> PayloadLayout:
        if self._polarity is None:
            raise ProtocolError(
                f"{type(self).__name__} is an internal token and never communicates"
            )
        parts = []
        if self._carried is not None and self._carried[1] is not None:
            field, role = self._carried
            parts.append(PayloadPart(role, type_name(getattr(self, field))))
        if len(self._conts) > 1:
            parts.append(PayloadPart("branch-tag", "|".join(self._conts)))
        if self._conts:
            side = "provider" if self._polarity == "reversed" else "client"
            parts.append(
                PayloadPart(
                    f"continuation-{side}-endpoint",
                    " or ".join(str(getattr(self, f)) for f in self._conts),
                )
            )
        else:
            # No continuation: a signal ends the session; a reversed step
            # is answered with a bare acknowledgement.
            bare = "termination" if self._polarity == "signal" else "release-ack"
            parts.append(PayloadPart(bare))
        return PayloadLayout(self._polarity, tuple(parts))


class Unique:
    """Base of a class with one instance, printed as its class's name.

    The first call makes the instance and every later call returns it.
    `copy`, `deepcopy` and unpickling go back through `__new__` too, so
    equality and hashing are identity, and the instance is its own `_canon`.
    """

    def __new__(cls):
        if "_unique" not in cls.__dict__:
            cls._unique = cls._canon = super().__new__(cls)
        return cls._unique

    def __str__(self):
        return type(self).__name__.lstrip("_")

    __repr__ = __str__


class SharedProtocol(Formed):
    """Base class for shared session types."""


@dataclass(frozen=True)
class PayloadPart:
    role: str
    detail: str = ""

    def __str__(self):
        return f"{self.role}({self.detail})" if self.detail else self.role


@dataclass(frozen=True)
class PayloadLayout:
    """What one message on a channel of a given protocol carries.

    kind is the constructor's polarity: "direct", "reversed" or "signal".
    """

    kind: str
    parts: tuple[PayloadPart, ...]

    def continuation_parts(self) -> tuple[PayloadPart, ...]:
        return tuple(p for p in self.parts if p.role.startswith("continuation"))


def type_name(t, named=False) -> str:
    """The name of a value type, or the text of a session type, built with
    an explicit stack of the parts still to print, so that any depth prints.
    `named` gives a session type's repr instead, as `@dataclass` would build
    it: each field named, and each value type shown by its repr."""
    out, stack = [], [t]
    while stack:
        t = stack.pop()
        if isinstance(t, tuple) and not named:
            parts = [part for x in t for part in ("|", x)][1:]
        elif type(t).__str__ is Formed.__str__:
            fields = [part for f in t._fields
                      for part in (", ", f"{f}=" if named else "", getattr(t, f))][1:]
            parts = [f"{type(t).__name__}(", *fields, ")"]
        else:  # a part of the text, or a name or, `named`, a repr
            name = repr(t) if named else getattr(t, "__name__", str(t))
            out.append(t if type(t) is str else name)
            continue
        stack.extend(reversed(parts))
    return "".join(out)


def _check_value_type(t, who: str):
    ok = isinstance(t, type) or (
        isinstance(t, tuple) and t and all(isinstance(x, type) for x in t)
    )
    if not ok:
        raise ProtocolError(
            f"{who}: value type must be a type or tuple of types, got {t!r}"
        )


def check_protocol(p, who: str) -> None:
    if not isinstance(p, Protocol):
        raise ProtocolError(f"{who}: expected a session type, got {p!r}")


class _End(Unique, Protocol):
    """Terminated session: one termination signal, no continuation."""


End = _End()


class ReceiveValue(Protocol):
    """Receive a value of `value_type`, then continue as `cont`."""

    _carried = ("value_type", VALUE)
    _conts = ("cont",)
    _polarity = "reversed"


class SendValue(Protocol):
    """Send a value of `value_type`, then continue as `cont`."""

    _carried = ("value_type", VALUE)
    _conts = ("cont",)
    _polarity = "direct"


class ReceiveChannel(Protocol):
    """Receive a channel of type `carried`, then continue as `cont`.

    The received channel always arrives at client polarity."""

    _carried = ("carried", CHANNEL)
    _conts = ("cont",)
    _polarity = "reversed"


class SendChannel(Protocol):
    """Send a channel of type `carried`, then continue as `cont`."""

    _carried = ("carried", CHANNEL)
    _conts = ("cont",)
    _polarity = "direct"


class ExternalChoice(Protocol):
    """Offer both branches; the client picks left or right."""

    _conts = ("left", "right")
    _polarity = "reversed"


class InternalChoice(Protocol):
    """The provider picks left or right and announces it."""

    _conts = ("left", "right")
    _polarity = "direct"


def payload_of(p: Protocol) -> PayloadLayout:
    """Payload layout of one message on a channel of protocol `p`."""
    check_protocol(p, "payload_of")
    return p.payload_layout()
