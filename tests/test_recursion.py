import pytest

from conftest import run
from sessia import (
    End,
    ExternalChoice,
    Fix,
    InternalChoice,
    ProtocolError,
    ReceiveChannel,
    ReceiveValue,
    SendChannel,
    SendValue,
    Z,
    apply_channel,
    choose_left,
    choose_right,
    fix_session,
    nat,
    offer_choice,
    receive_channel,
    receive_value_from,
    record_event,
    recording,
    run_session,
    send_value_async,
    session,
    terminate,
    type_apply,
    unfix_session_for,
    wait,
)
from sessia.demos import CounterStream, bounded_stream_client, stream_producer

Counter = Fix(SendValue(int, Z))


# -- type application ---------------------------------------------------------


def test_apply_recursion_marker_returns_argument():
    assert type_apply(Z, Counter) == Counter


def test_apply_send_value_substitutes_continuation():
    assert type_apply(SendValue(int, Z), Counter) == SendValue(int, Counter)


def test_apply_end_has_no_continuation_position():
    assert type_apply(End, Counter) == End


def test_apply_enters_both_choice_branches():
    f = ExternalChoice(ReceiveValue(str, Z), End)
    assert type_apply(f, Counter) == ExternalChoice(
        ReceiveValue(str, Counter), End
    )
    g = InternalChoice(Z, SendValue(int, Z))
    assert type_apply(g, Counter) == InternalChoice(
        Counter, SendValue(int, Counter)
    )


def test_apply_leaves_delegated_channel_types_alone():
    f = SendChannel(Counter, Z)
    assert type_apply(f, End) == SendChannel(Counter, End)
    g = ReceiveChannel(SendValue(int, Z), Z)
    # the carried side keeps its marker; only the continuation is applied
    assert type_apply(g, End) == ReceiveChannel(SendValue(int, Z), End)


def test_apply_treats_inner_fix_as_leaf():
    inner = Fix(SendValue(int, Z))
    assert type_apply(SendValue(str, inner), End) == SendValue(str, inner)


def test_multi_level_markers_are_rejected():
    from sessia import S

    with pytest.raises(ProtocolError, match="multi-level"):
        type_apply(S(Z), End)
    # successors never even form a protocol, so they cannot appear nested
    with pytest.raises(ProtocolError, match="expected a session type"):
        SendValue(int, S(Z))


def test_unrolling_is_the_unique_type_application():
    assert Counter.unroll() == type_apply(SendValue(int, Z), Counter)


def test_unrolling_is_memoised_on_the_node():
    p = Fix(ExternalChoice(SendValue(int, Z), End))
    assert p.unroll() is p.unroll()
    assert p.unroll() == type_apply(p.body, p)
    # the cache takes no part in equality or hashing
    q = Fix(ExternalChoice(SendValue(int, Z), End))
    assert p == q and hash(p) == hash(q)


def test_counter_unrolls_to_send_value_then_counter():
    # the first protocol step after unrolling is exactly one value send
    assert Counter.unroll() == SendValue(int, Counter)


def test_fix_body_must_be_a_protocol():
    with pytest.raises(ProtocolError):
        Fix("nope")


def test_fix_body_must_be_contractive():
    # a body that is Z or a fixed point never reaches a communication step,
    # so its payload would unroll forever
    with pytest.raises(ProtocolError, match="not contractive"):
        Fix(Z)
    with pytest.raises(ProtocolError, match="not contractive"):
        Fix(Fix(Z))
    inner = Fix(SendValue(int, Z))
    with pytest.raises(ProtocolError, match="not contractive"):
        Fix(inner)


# -- rolling and unrolling programs -------------------------------------------


def test_fix_session_on_wrong_unrolling_is_rejected():
    with pytest.raises(ProtocolError, match="terminate offers End"):
        session(Counter, fix_session(terminate()))


def test_fix_session_must_offer_a_fix():
    with pytest.raises(ProtocolError, match="fix_session offers a Fix"):
        session(End, fix_session(terminate()))


def test_unfix_on_non_fix_slot_is_rejected():
    with pytest.raises(ProtocolError, match="expected a Fix"):
        session(
            ReceiveChannel(End, End),
            receive_channel(lambda a: unfix_session_for(a, wait(a, terminate()))),
        )


Unrolled = CounterStream.unroll()


def producer_unrolled(value: int):
    """The stream producer with its first step manually unrolled."""

    async def produce():
        return value, stream_producer(value + 1)

    return session(
        Unrolled, offer_choice(send_value_async(produce), terminate())
    )


def client_unrolled(take: int):
    """The bounded client against the manually unrolled first step."""

    def rolled_step(stream, remaining):
        if remaining == 0:
            return unfix_session_for(
                stream, choose_right(stream, wait(stream, terminate()))
            )

        def on_value(value):
            record_event("RECV", value)
            return rolled_step(stream, remaining - 1)

        return unfix_session_for(
            stream, choose_left(stream, receive_value_from(stream, on_value))
        )

    def first_step(stream, remaining):
        if remaining == 0:
            return choose_right(stream, wait(stream, terminate()))

        def on_value(value):
            record_event("RECV", value)
            return rolled_step(stream, remaining - 1)

        return choose_left(stream, receive_value_from(stream, on_value))

    return session(
        ReceiveChannel(Unrolled, End),
        receive_channel(lambda stream: first_step(stream, take)),
    )


def _run_pair(client, producer):
    with recording() as rec:
        run(run_session(apply_channel(client, producer)))
    return rec


@pytest.mark.parametrize("take", [0, 1, 3])
def test_rolled_and_unrolled_runs_have_identical_transcripts(take):
    rolled = _run_pair(bounded_stream_client(take), stream_producer(4))
    unrolled = _run_pair(client_unrolled(take), producer_unrolled(4))
    assert rolled.transcript.lines() == unrolled.transcript.lines()


@pytest.mark.parametrize("take", [1, 3])
def test_roll_unroll_exchange_no_payloads(take):
    # same number of channels with and without the extra roll/unroll steps
    rolled = _run_pair(bounded_stream_client(take), stream_producer(0))
    unrolled = _run_pair(client_unrolled(take), producer_unrolled(0))
    assert (
        rolled.counters.endpoints_created == unrolled.counters.endpoints_created
    )
    assert rolled.conservation_ok() and unrolled.conservation_ok()


def counting_oracle(start: int, k: int) -> list[int]:
    out = []
    value = start
    for _ in range(k):
        out.append(value)
        value += 1
    return out


@pytest.mark.parametrize("start", [0, 7])
@pytest.mark.parametrize("k", [1, 5, 16])
def test_counter_stream_values_match_iterative_oracle(start, k):
    expected = counting_oracle(start, k)
    rec = _run_pair(bounded_stream_client(k), stream_producer(start))
    assert [int(v) for v in rec.transcript.values("RECV")] == expected


def test_stream_values_via_lens_successors():
    # the client may name the stream through an equal lens value it builds
    rec = _run_pair(bounded_stream_client(2), stream_producer(9))
    assert [int(v) for v in rec.transcript.values("RECV")] == [9, 10]
    assert nat(0) == Z
