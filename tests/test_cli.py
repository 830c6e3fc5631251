"""The demo runner's exit codes: 0 on success, 1 if the demo raised, 2 for
bad usage."""

import pytest

from sessia import cli


def test_a_demo_that_runs_exits_0(capsys):
    assert cli.main(["run", "counter", "--start", "3", "--take", "2"]) == 0
    assert capsys.readouterr().out.splitlines() == ["RECV\t3", "RECV\t4"]


def test_a_demo_that_raises_exits_1(monkeypatch, capsys):
    def failing(name, **kwargs):
        raise RuntimeError("the demo failed")

    monkeypatch.setattr(cli, "run_demo", failing)
    assert cli.main(["run", "hello"]) == 1
    assert "RuntimeError: the demo failed" in capsys.readouterr().err


@pytest.mark.parametrize(
    "demo, option, value, error",
    [
        ("counter", "--take", "-1", "must not be negative, got -1"),
        ("counter", "--delay-ms", "-1", "must not be negative, got -1"),
        ("shared-counter", "--clients", "-1", "must not be negative, got -1"),
        ("counter", "--take", "x", "invalid int value: 'x'"),
    ],
)
def test_bad_usage_exits_2(demo, option, value, error, capsys):
    with pytest.raises(SystemExit) as exited:
        cli.main(["run", demo, option, value])
    assert exited.value.code == 2
    assert f"error: argument {option}: {error}" in capsys.readouterr().err
