"""The knob registry: every ``SMARQ_*`` variable, its values and its role.

* the registry is the only place a knob is named: no other string
  constant in ``src/repro`` (docstrings aside) contains ``SMARQ_``;
* a value outside a knob's accepted set raises, naming the accepted
  values, and an unset or empty variable reads as the default;
* :func:`repro.knobs.overridden` validates, then restores the old value;
* the serve daemon's ``stats`` reports the value of every knob it runs
  under.

That every keyed knob reaches the job fingerprint is locked in
``tests/test_engine.py``; the neutral legs run in the ``knobs`` fuzz
oracle and in ``tests/test_golden_reports.py``.
"""

import ast
import os
from pathlib import Path

import pytest

import repro
from repro import knobs

SRC = Path(repro.__file__).parent


def _docstrings(tree: ast.AST):
    """The constant nodes that are module, class or function docstrings."""
    scopes = (ast.Module, ast.ClassDef, ast.FunctionDef, ast.AsyncFunctionDef)
    for node in ast.walk(tree):
        if isinstance(node, scopes) and node.body:
            first = node.body[0]
            if isinstance(first, ast.Expr) and isinstance(
                first.value, ast.Constant
            ):
                yield first.value


def test_knob_names_live_only_in_the_registry():
    registry = Path(knobs.__file__)
    offenders = []
    for path in sorted(SRC.rglob("*.py")):
        if path == registry:
            continue
        tree = ast.parse(path.read_text())
        docs = {id(node) for node in _docstrings(tree)}
        offenders.extend(
            f"{path.relative_to(SRC)}:{node.lineno}"
            for node in ast.walk(tree)
            if isinstance(node, ast.Constant)
            and isinstance(node.value, str)
            and "SMARQ_" in node.value
            and id(node) not in docs
        )
    assert offenders == []


@pytest.mark.parametrize("knob", knobs.KNOBS, ids=lambda knob: knob.name)
def test_unknown_value_raises(knob, monkeypatch):
    monkeypatch.setenv(knob.name, "true")
    with pytest.raises(ValueError) as info:
        knobs.value(knob.name)
    assert all(value in str(info.value) for value in knob.values)


@pytest.mark.parametrize("knob", knobs.KNOBS, ids=lambda knob: knob.name)
def test_unset_and_empty_read_as_default(knob, monkeypatch):
    monkeypatch.delenv(knob.name, raising=False)
    assert knobs.value(knob.name) == knob.values[0]
    monkeypatch.setenv(knob.name, "")
    assert knobs.value(knob.name) == knob.values[0]


def test_overridden_validates_and_restores(monkeypatch):
    monkeypatch.delenv(knobs.NO_TIMING_PLANS, raising=False)
    with knobs.overridden(knobs.NO_TIMING_PLANS, "1"):
        assert knobs.value(knobs.NO_TIMING_PLANS) == "1"
    assert knobs.NO_TIMING_PLANS not in os.environ
    monkeypatch.setenv(knobs.REPLAY_BACKEND, "vec")
    with pytest.raises(ValueError):
        with knobs.overridden(knobs.REPLAY_BACKEND, "jit"):
            pass
    assert os.environ[knobs.REPLAY_BACKEND] == "vec"


def test_neutral_legs_cover_every_non_default_value():
    """The legs the goldens and the ``knobs`` oracle run: a knob or value
    dropped from the registry cannot shrink them silently."""
    assert knobs.legs() == (
        (knobs.NO_TIMING_PLANS, "1"),
        (knobs.NO_TRANSLATION_CACHE, "1"),
        (knobs.REPLAY_BACKEND, "interp"),
        (knobs.REPLAY_BACKEND, "py"),
        (knobs.REPLAY_BACKEND, "vec"),
        (knobs.REPLAY_BACKEND, "batch"),
    )


def test_daemon_stats_report_every_knob(monkeypatch):
    from repro.serve import ServeClient, ServeConfig, running_server

    for knob in knobs.KNOBS:
        monkeypatch.delenv(knob.name, raising=False)
    with knobs.overridden(knobs.REPLAY_BACKEND, "interp"):
        with running_server(ServeConfig(cache=False)) as server:
            with ServeClient(server.address) as client:
                reported = client.stats()["knobs"]
    assert reported == {
        knob.name: "interp" if knob.name == knobs.REPLAY_BACKEND
        else knob.values[0]
        for knob in knobs.KNOBS
    }
