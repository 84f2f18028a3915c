"""Telemetry sessions and the ambient instrumentation API.

A :class:`TelemetrySession` bundles one :class:`~repro.telemetry.spans.Tracer`
with one :class:`~repro.telemetry.metrics.MetricsRegistry` and pre-declares
the standard instrument set (cache counters, campaign counters, per-benchmark
simulated time/energy/power gauges, the span-duration histogram).

Instrumented code throughout the library never holds a session; it calls the
module-level helpers —

>>> from repro import telemetry as tele
>>> with tele.span("sim.engine.run", ranks=8):
...     pass
>>> tele.count("tgi_cache_lookups_total", result="hit")

— which consult the *ambient* session: the ``session`` slot of
:mod:`repro.ambient`, the one store that also holds the ambient journal
writer and timeline sink.  When none is active (the default) every helper
short-circuits on one ``None`` check and returns a shared no-op handle:
telemetry costs nothing unless a session is activated via :func:`use` (or
:func:`activate`/:func:`deactivate`).

Sessions are process-local.  Campaign pool workers build their own session,
run the job inside it, and ship ``tracer.as_dicts()`` + ``metrics.state()``
back with the payload; the parent absorbs both (see
:mod:`repro.campaign.runner`).
"""

from __future__ import annotations

from contextlib import contextmanager
from datetime import datetime, timezone
from typing import Dict, Iterator, List, Optional, Sequence

from .. import ambient as _ambient
from ..exceptions import ReproError
from .metrics import DEFAULT_TIME_BUCKETS_S, MetricsRegistry
from .spans import _NULL_HANDLE, Span, Tracer

__all__ = [
    "TELEMETRY_VERSION",
    "TelemetrySession",
    "activate",
    "deactivate",
    "use",
    "current",
    "active",
    "span",
    "count",
    "gauge",
    "observe",
    "traced",
]

#: Schema version of telemetry JSON exports.
TELEMETRY_VERSION = 1

#: Instruments every session declares up front (kind, name, help).
STANDARD_INSTRUMENTS = (
    ("counter", "tgi_cache_lookups_total", "Result-cache lookups by result (hit/miss/invalidated)."),
    ("counter", "tgi_cache_puts_total", "Result-cache entry writes."),
    ("counter", "tgi_campaign_jobs_total", "Campaign jobs finished, by cache status."),
    ("counter", "tgi_benchmark_runs_total", "Benchmark executions, by benchmark."),
    ("counter", "tgi_timeline_runs_total", "Run timelines captured by the armed power-timeline sink."),
    ("gauge", "tgi_benchmark_time_seconds", "Simulated wall-clock seconds of the last run per benchmark/scale/cluster (the t_i of Eq. 10)."),
    ("gauge", "tgi_benchmark_energy_joules", "Simulated metered joules of the last run per benchmark/scale/cluster (the e_i of Eq. 11)."),
    ("gauge", "tgi_benchmark_power_watts", "Simulated mean wall watts of the last run per benchmark/scale/cluster (the p_i of Eq. 12)."),
)


class TelemetrySession:
    """One tracer + one metrics registry, wired together.

    Every closed span is observed into the ``tgi_span_duration_seconds``
    histogram (fixed :data:`~repro.telemetry.metrics.DEFAULT_TIME_BUCKETS_S`
    boundaries, labelled by span name).
    """

    def __init__(
        self,
        label: str = "session",
        *,
        process: str = "main",
        profile: bool = False,
        profile_top: int = 10,
    ):
        self.label = label
        self.metrics = MetricsRegistry()
        for kind, name, help_text in STANDARD_INSTRUMENTS:
            getattr(self.metrics, kind)(name, help_text)
        self._span_hist = self.metrics.histogram(
            "tgi_span_duration_seconds",
            "Wall-clock duration of telemetry spans, by span name.",
            buckets=DEFAULT_TIME_BUCKETS_S,
        )
        self.tracer = Tracer(
            process=process,
            on_close=self._observe_span,
            profile=profile,
            profile_top=profile_top,
        )

    def _observe_span(self, span: Span) -> None:
        self._span_hist.observe(span.duration_s, name=span.name)

    # ------------------------------------------------------------------
    @property
    def spans(self) -> List[Span]:
        """All spans recorded in this session."""
        return self.tracer.spans

    def export(self, *, attribution: Optional[Sequence[Dict]] = None) -> Dict:
        """JSON-compatible dump: spans, metrics, optional attribution rows.

        ``epoch_unix``/``epoch_utc`` give the absolute UTC wall-clock
        instant of relative span time 0.0, so exports from different
        sessions and machines can be ordered on one calendar timeline.
        """
        epoch_dt = datetime.fromtimestamp(self.tracer.epoch_unix, tz=timezone.utc)
        out: Dict = {
            "telemetry_version": TELEMETRY_VERSION,
            "label": self.label,
            "epoch_unix": self.tracer.epoch_unix,
            "epoch_utc": epoch_dt.isoformat().replace("+00:00", "Z"),
            "spans": self.tracer.as_dicts(),
            "metrics": self.metrics.as_dict(),
        }
        if attribution is not None:
            out["attribution"] = list(attribution)
        return out

    def to_prometheus(self) -> str:
        """The session's metrics in Prometheus text exposition format."""
        return self.metrics.to_prometheus()


# Ambient session (the ``session`` slot of :mod:`repro.ambient`) ------

def current() -> Optional[TelemetrySession]:
    """The ambient session, or ``None`` when telemetry is disabled."""
    return _ambient.session


def active() -> bool:
    """Whether a telemetry session is currently collecting."""
    return _ambient.session is not None


def _ensure_inactive() -> None:
    if _ambient.session is not None:
        raise ReproError("a telemetry session is already active")


def activate(session: TelemetrySession) -> TelemetrySession:
    """Install ``session`` as the ambient collector (one at a time)."""
    _ensure_inactive()
    _ambient.session = session
    return session


def deactivate() -> None:
    """Remove the ambient session (no-op when none is active)."""
    _ambient.session = None


@contextmanager
def use(session: Optional[TelemetrySession] = None) -> Iterator[TelemetrySession]:
    """Collect telemetry for the duration of the ``with`` block."""
    session = session or TelemetrySession()
    _ensure_inactive()
    with _ambient.bound(session=session):
        yield session


# Instrumentation helpers (the zero-cost-when-disabled hot path) -------

def span(name: str, **attrs: object):
    """Open a span on the ambient tracer (shared no-op when disabled)."""
    session = _ambient.session
    if session is None:
        return _NULL_HANDLE
    return session.tracer.span(name, **attrs)


def count(name: str, amount: float = 1.0, **labels: object) -> None:
    """Increment an ambient counter (no-op when disabled)."""
    session = _ambient.session
    if session is not None:
        session.metrics.counter(name).inc(amount, **labels)


def gauge(name: str, value: float, **labels: object) -> None:
    """Set an ambient gauge (no-op when disabled)."""
    session = _ambient.session
    if session is not None:
        session.metrics.gauge(name).set(value, **labels)


def observe(name: str, value: float, **labels: object) -> None:
    """Observe into an ambient histogram (no-op when disabled)."""
    session = _ambient.session
    if session is not None:
        session.metrics.histogram(name).observe(value, **labels)


def traced(name: Optional[str] = None, **attrs: object):
    """Decorator form: run the function body inside a span.

    >>> @traced("analysis.bootstrap", samples=1000)
    ... def resample(...): ...
    """
    def decorate(func):
        span_name = name or func.__qualname__

        def wrapper(*args, **kwargs):
            with span(span_name, **attrs):
                return func(*args, **kwargs)

        wrapper.__name__ = func.__name__
        wrapper.__qualname__ = func.__qualname__
        wrapper.__doc__ = func.__doc__
        wrapper.__wrapped__ = func
        return wrapper

    return decorate
