"""Golden texts of every diagnostic that prints a context or a slot index,
and the nested-pair results of the public context helpers.

The checker may represent contexts however it likes inside; what a user
reads in an error and gets back from the public helpers stays pinned here.
"""

import pytest

from sessia import (
    Empty,
    End,
    LinearityError,
    ProtocolError,
    ReceiveValue,
    S,
    SendValue,
    SharedToLinear,
    Z,
    accept_shared_session,
    append,
    cut,
    detach_shared_session,
    empty_endpoints,
    forward,
    include_session,
    length_of,
    lens_resolve,
    nat,
    send_value,
    session,
    shared_session,
    terminate,
    wait,
)
from sessia.context import (
    context,
    context_str,
    length,
    slot_at,
    slots_of,
    validate_context,
)
from sessia.demos import SharedCounter, shared_counter_provider

A = SendValue(int, End)
B = ReceiveValue(str, End)


def end_provider():
    return session(End, terminate())


def a_provider():
    return session(A, send_value(1, terminate()))


def raised(exc_type, build):
    with pytest.raises(exc_type) as info:
        build()
    return str(info.value)


# -- diagnostics ----------------------------------------------------------


def test_cut_context_does_not_end_with_provider_context():
    def build():
        session(
            End,
            include_session(
                a_provider(),
                lambda a: include_session(
                    end_provider(),
                    lambda b: cut(
                        terminate(),
                        terminate(),
                        provider_protocol=End,
                        provider_context=(A, ()),
                    ),
                ),
            ),
        )

    assert raised(LinearityError, build) == (
        "cut: context (SendValue(int, End), (End, ())) does not end with the "
        "provider context (SendValue(int, End), ())"
    )


def test_cut_provider_context_longer_than_whole_context():
    def build():
        session(
            End,
            include_session(
                end_provider(),
                lambda a: cut(
                    terminate(),
                    terminate(),
                    provider_protocol=End,
                    provider_context=(End, (A, ())),
                ),
            ),
        )

    assert raised(LinearityError, build) == (
        "cut: provider context (End, (SendValue(int, End), ())) is longer "
        "than the whole context (End, ())"
    )


def test_closed_session_in_non_empty_context():
    def build():
        session(
            End,
            include_session(
                a_provider(),
                lambda a: cut(session(End, terminate()), end_provider()),
            ),
        )

    assert raised(LinearityError, build) == (
        "a closed session cannot run in the non-empty context "
        "(SendValue(int, End), (End, ()))"
    )


def test_detach_lock_at_slot_zero_prints_context():
    def build():
        session(
            SharedToLinear(SendValue(int, Z)),
            include_session(
                end_provider(),
                lambda a: include_session(
                    a_provider(),
                    lambda b: detach_shared_session(shared_counter_provider(1)),
                ),
            ),
        )

    assert raised(ProtocolError, build) == (
        "detach_shared_session requires the critical-section lock at slot 0 "
        "of (End, (SendValue(int, End), ()))"
    )


def test_terminate_names_the_live_slot():
    def build():
        session(
            End,
            include_session(
                end_provider(),
                lambda a: include_session(
                    a_provider(), lambda b: wait(a, terminate())
                ),
            ),
        )

    assert raised(LinearityError, build) == (
        "terminate requires an empty linear context; "
        "slot 1 still holds SendValue(int, End)"
    )


def test_forward_names_the_live_slot():
    def build():
        session(
            A,
            include_session(
                end_provider(),
                lambda a: include_session(
                    a_provider(),
                    lambda b: include_session(
                        end_provider(), lambda c: wait(a, forward(b))
                    ),
                ),
            ),
        )

    assert raised(LinearityError, build) == (
        "forward requires every other slot to be consumed; "
        "slot 2 still holds End"
    )


def test_detach_names_the_live_slot_after_the_lock():
    def build():
        shared_session(
            SharedCounter,
            accept_shared_session(
                send_value(
                    0,
                    include_session(
                        end_provider(),
                        lambda a: include_session(
                            a_provider(),
                            lambda b: wait(
                                a,
                                detach_shared_session(shared_counter_provider(1)),
                            ),
                        ),
                    ),
                )
            ),
        )

    assert raised(LinearityError, build) == (
        "detach_shared_session requires all other channels consumed; "
        "slot 2 still holds SendValue(int, End)"
    )


# -- public helpers -----------------------------------------------------------


def test_public_helpers_return_nested_pairs():
    c = (A, (B, ()))
    assert context([A, B]) == c
    assert slots_of(c) == [A, B]
    assert length(c) == 2
    assert slot_at(S(Z), c) == B
    assert length_of(c) == S(S(Z))
    assert append(c, (End, ())) == (A, (B, (End, ())))
    assert append((), c) == c
    assert lens_resolve(S(Z), c, B, Empty) == (A, (Empty, ()))
    assert lens_resolve(nat(0), (A, ()), A, End) == (End, ())
    assert context_str(()) == "()"
    assert context_str((A, (Empty, ()))) == "(SendValue(int, End), (Empty, ()))"
    assert empty_endpoints((Empty, (Empty, ()))) == ((), ((), ()))
    validate_context(c)


def test_public_helper_diagnostics():
    assert raised(
        LinearityError, lambda: empty_endpoints((Empty, (A, ())))
    ) == (
        "context (Empty, (SendValue(int, End), ())) is not empty: "
        "slot 1 still holds SendValue(int, End)"
    )
    assert raised(LinearityError, lambda: lens_resolve(nat(2), (A, ()), A, End)) == (
        "lens level 2 out of range for context of length 1"
    )
    assert raised(LinearityError, lambda: lens_resolve(Z, (A, ()), B, End)) == (
        "lens 0: slot has type SendValue(int, End), "
        "expected ReceiveValue(str, End)"
    )
    assert raised(ProtocolError, lambda: validate_context((A, B))) == (
        f"context: malformed context {B!r}"
    )
    assert raised(ProtocolError, lambda: validate_context(("x", ()), "cut")) == (
        "cut: 'x' is not a Slot"
    )
    assert raised(ProtocolError, lambda: context([A, 42])) == (
        "context: 42 is not a Slot"
    )
    for level in (-1, 1.5, "a"):
        assert raised(ProtocolError, lambda: nat(level)) == (
            f"nat: expected a non-negative int level, got {level!r}"
        )


def test_public_helpers_reject_malformed_contexts():
    def rejects(build):
        return raised(ProtocolError, build)

    assert rejects(lambda: lens_resolve(Z, (3, ()), 3, End)) == (
        "context: 3 is not a Slot"
    )
    assert rejects(lambda: lens_resolve(Z, (A, ()), A, 3)) == (
        "lens_resolve: 3 is not a Slot"
    )
    assert rejects(lambda: append((3, ()), ())) == "context: 3 is not a Slot"
    assert rejects(lambda: append((), (A, 3))) == "context: malformed context 3"
    assert rejects(lambda: length_of([1, 2])) == (
        "context: malformed context [1, 2]"
    )
    assert rejects(lambda: empty_endpoints((End,))) == (
        f"context: malformed context {(End,)!r}"
    )
    assert rejects(lambda: length((A, (B,)))) == (
        f"context: malformed context {(B,)!r}"
    )
    assert rejects(lambda: slot_at(Z, ("x", ()))) == "context: 'x' is not a Slot"
    assert rejects(lambda: context_str((A, 5))) == "context: malformed context 5"
