"""The process's ambient observability bindings, in one store.

Three slots, each ``None`` when nothing is bound:

``session``
    the collecting :class:`~repro.telemetry.TelemetrySession`;
``journal``
    the :class:`~repro.journal.JournalWriter` that ambient emits land in;
``sink``
    the armed :class:`~repro.timeline.MemorySink` run timelines land in.

Instrumented code reads a slot and acts only when it is not ``None`` —
the disarmed path is one attribute read and one ``None`` check.  The
public helpers of :mod:`repro.telemetry`, :mod:`repro.journal` and
:mod:`repro.timeline` (``use``, ``use_writer``, ``collecting`` and their
attach/detach forms) are thin wrappers over this module; code under
``src/`` that must set several slots at once uses :func:`bound`.

The module imports only the standard library, so the simulator can read
the bindings without importing the packages behind them.  Bindings are
per process: a pool worker binds its own values for each job.
"""

from __future__ import annotations

from contextlib import contextmanager
from typing import Iterator

__all__ = ["session", "journal", "sink", "bound"]

session = None
journal = None
sink = None

_SLOTS = frozenset(("session", "journal", "sink"))


@contextmanager
def bound(**slots: object) -> Iterator[None]:
    """Set the named slots for the block; restore their previous values after."""
    unknown = sorted(set(slots) - _SLOTS)
    if unknown:
        raise TypeError(f"unknown ambient slot(s) {unknown}; have {sorted(_SLOTS)}")
    store = globals()
    previous = {name: store[name] for name in slots}
    store.update(slots)
    try:
        yield
    finally:
        store.update(previous)
