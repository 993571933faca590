"""The environment knobs: one registry of every ``SMARQ_*`` variable.

Each :class:`Knob` names one variable, the values it accepts (the first
is what an unset or empty variable reads as) and one role:

``keyed``
    The knob may change a report, so :func:`repro.engine.jobs.job_fingerprint`
    folds its value into every job's key.
``neutral``
    The knob must not change a report. Every non-default value is a
    differential leg: the ``knobs`` fuzz oracle and the golden reports
    run each one against the default.
``gate``
    The knob admits test-only benchmark names and changes nothing else.

Knobs are read where they take effect, each time through :func:`value`
(per translation, per simulator construction, per fault build), so a
test can flip one mid-process with :func:`overridden`. A value outside
the accepted set raises instead of silently reading as the default.
"""

from __future__ import annotations

import os
from contextlib import contextmanager
from typing import Iterator, NamedTuple, Tuple

KEYED = "keyed"
NEUTRAL = "neutral"
GATE = "gate"

NO_CERTIFY = "SMARQ_NO_CERTIFY"
NO_TIMING_PLANS = "SMARQ_NO_TIMING_PLANS"
NO_TRANSLATION_CACHE = "SMARQ_NO_TRANSLATION_CACHE"
REPLAY_BACKEND = "SMARQ_REPLAY_BACKEND"
FAULT_BENCHMARKS = "SMARQ_FAULT_BENCHMARKS"


class Knob(NamedTuple):
    name: str
    #: accepted values; the first is the default
    values: Tuple[str, ...]
    role: str


KNOBS = (
    Knob(NO_CERTIFY, ("0", "1"), KEYED),
    Knob(NO_TIMING_PLANS, ("0", "1"), NEUTRAL),
    Knob(NO_TRANSLATION_CACHE, ("0", "1"), NEUTRAL),
    Knob(REPLAY_BACKEND, ("auto", "interp", "py", "vec", "batch"), NEUTRAL),
    Knob(FAULT_BENCHMARKS, ("0", "1"), GATE),
)

_BY_NAME = {knob.name: knob for knob in KNOBS}


def _checked(name: str, raw: str) -> str:
    accepted = _BY_NAME[name].values
    if raw not in accepted:
        raise ValueError(
            f"{name}={raw!r} is not one of {', '.join(accepted)}"
        )
    return raw


def value(name: str) -> str:
    """The knob's current value; raises ``ValueError`` on an unknown one."""
    return _checked(name, os.environ.get(name) or _BY_NAME[name].values[0])


def of_role(role: str) -> Tuple[Knob, ...]:
    return tuple(knob for knob in KNOBS if knob.role == role)


def legs() -> Tuple[Tuple[str, str], ...]:
    """Every ``(name, value)`` of a neutral knob other than its default."""
    return tuple(
        (knob.name, v) for knob in of_role(NEUTRAL) for v in knob.values[1:]
    )


@contextmanager
def overridden(name: str, new: str) -> Iterator[None]:
    """Set one knob for the duration of the block, then restore it."""
    prev = os.environ.get(name)
    os.environ[name] = _checked(name, new)
    try:
        yield
    finally:
        if prev is None:
            del os.environ[name]
        else:
            os.environ[name] = prev
