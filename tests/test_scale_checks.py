"""scripts/scale_checks.py: one small check passes, and each kind of fault fails it."""

import dataclasses
import importlib.util
import os
import sys
from pathlib import Path

import pytest

REPO = Path(__file__).resolve().parent.parent


@pytest.fixture(scope="module")
def scale_checks():
    spec = importlib.util.spec_from_file_location("scale_checks", REPO / "scripts" / "scale_checks.py")
    script = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(script)
    return script


@pytest.fixture
def tiny(scale_checks):
    # the spec text goes to a temporary file, never into the checkout
    return scale_checks.Check("tiny", ("certify", "--spec", scale_checks.SPEC), 0, ("verdict: CERTIFIED",),
                              seconds=60, mb=1000, spec="x y\nx -> xy\ny -> yyx\nweights: 1 2\n")


def _no_child_left():
    # every child was reaped: none is running and none is a zombie
    with pytest.raises(ChildProcessError):
        os.waitpid(-1, os.WNOHANG)


def test_a_tiny_check_passes(scale_checks, tiny):
    passed, report = scale_checks.run(tiny)
    assert passed, report
    assert report.startswith("tiny ") and report.endswith(" pass") and "\n" not in report
    _no_child_left()


@pytest.mark.parametrize("change, reason", [
    ({"exit": 1}, "exit 0, expected 1"),
    ({"stdout": ("verdict: FAILED",)}, "no line 'verdict: FAILED'"),
    ({"stderr": ("error: .*",)}, "no line 'error: .*'"),
    ({"mb": 1}, "peak RSS"),
    ({"seconds": 0.01}, "timed out after 0.01 s"),
])
def test_each_fault_fails_the_check(scale_checks, tiny, change, reason):
    passed, report = scale_checks.run(dataclasses.replace(tiny, **change))
    assert not passed
    # the fault is the first reason; a killed child printed no required line either
    assert report.split("FAIL: ")[1].startswith(reason), report
    _no_child_left()


def test_a_traceback_fails_the_check(scale_checks, monkeypatch):
    # a child that ends in a traceback with the expected exit code still fails
    monkeypatch.setattr(scale_checks, "WORDALG", (sys.executable, "-c", "raise RuntimeError('boom')"))
    passed, report = scale_checks.run(scale_checks.Check("crash", (), 1))
    assert not passed
    line, *stderr = report.splitlines()
    assert line.endswith("FAIL: traceback on stderr")
    assert stderr[0].startswith("Traceback") and stderr[-1] == "RuntimeError: boom"
    _no_child_left()
