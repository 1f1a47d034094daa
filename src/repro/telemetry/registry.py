"""Lightweight in-process metrics: counters, gauges, latency histograms.

The serving path (``SurveillancePipeline``, ``StreamServer``,
``ShardedStreamServer``) is a long-running service; this module gives
it the minimal observability vocabulary such services need —
monotonically increasing counters (frames, restarts, shed frames),
point-in-time gauges, and bucketed latency histograms per stage —
without any external dependency.

Everything hangs off a :class:`MetricsRegistry`. Instruments are
created on first use (``registry.counter("x").inc()``), are
thread-safe, and serialise to a plain-dict :meth:`MetricsRegistry.snapshot`
that is JSON-ready and rendered as text by
:func:`repro.bench.reporting.format_metrics`.

A registry built from ``TelemetryConfig(enabled=False)`` hands out
no-op instruments, so instrumented code never needs an ``if`` around a
metric update.
"""

from __future__ import annotations

import math
import threading
import time
from typing import Iterator

from ..config import TelemetryConfig
from ..errors import ConfigError

__all__ = [
    "Counter",
    "Gauge",
    "LatencyHistogram",
    "MetricsRegistry",
    "NullCounter",
    "NullGauge",
    "NullHistogram",
]


class Counter:
    """A monotonically increasing integer."""

    __slots__ = ("_lock", "_value")

    def __init__(self) -> None:
        self._lock = threading.Lock()
        self._value = 0

    def inc(self, n: int = 1) -> None:
        if n < 0:
            raise ConfigError(f"counters only go up; cannot add {n}")
        with self._lock:
            self._value += n

    @property
    def value(self) -> int:
        with self._lock:
            return self._value


class Gauge:
    """A point-in-time float value (last write wins)."""

    __slots__ = ("_lock", "_value")

    def __init__(self) -> None:
        self._lock = threading.Lock()
        self._value = 0.0

    def set(self, value: float) -> None:
        with self._lock:
            self._value = float(value)

    @property
    def value(self) -> float:
        with self._lock:
            return self._value


class LatencyHistogram:
    """Bucketed distribution of durations (seconds).

    Tracks count / sum / min / max exactly and a cumulative bucket
    count per upper bound; quantiles are estimated by linear
    interpolation inside the owning bucket, which is plenty for stage
    latencies spanning the default millisecond-to-seconds range.
    """

    __slots__ = ("_lock", "_bounds", "_buckets", "count", "total", "_min", "_max")

    def __init__(self, bounds: tuple[float, ...]) -> None:
        self._lock = threading.Lock()
        self._bounds = bounds
        self._buckets = [0] * (len(bounds) + 1)  # last bucket = +inf
        self.count = 0
        self.total = 0.0
        self._min = math.inf
        self._max = -math.inf

    def observe(self, seconds: float) -> None:
        seconds = float(seconds)
        # Reject bad durations *before* touching any state: a NaN that
        # got as far as count/_min/_max would land in no bucket and
        # permanently break the bucket-sum == count invariant that
        # to_dict documents (and poison every quantile thereafter).
        if not math.isfinite(seconds) or seconds < 0.0:
            raise ConfigError(
                f"latency observation must be a finite non-negative "
                f"duration in seconds, got {seconds!r}"
            )
        with self._lock:
            self.count += 1
            self.total += seconds
            self._min = min(self._min, seconds)
            self._max = max(self._max, seconds)
            for i, bound in enumerate(self._bounds):
                if seconds <= bound:
                    self._buckets[i] += 1
                    return
            self._buckets[-1] += 1

    @property
    def mean(self) -> float:
        with self._lock:
            return self.total / self.count if self.count else 0.0

    def _quantile_locked(self, q: float) -> float:
        """Quantile estimate; the caller must hold ``self._lock``."""
        if not self.count:
            return 0.0
        target = q * self.count
        seen = 0.0
        lo = 0.0
        for i, bound in enumerate(self._bounds):
            n = self._buckets[i]
            if seen + n >= target and n:
                frac = (target - seen) / n
                est = lo + frac * (bound - lo)
                return min(max(est, self._min), self._max)
            seen += n
            lo = bound
        # The target quantile sits in the overflow (le_inf) bucket.
        # Interpolate within [last_bound, _max] over its mass rather
        # than collapsing every quantile to the maximum — with most
        # observations past the last bound, p50 == p99 == max
        # otherwise.
        n = self._buckets[-1]
        if n:
            frac = (target - seen) / n
            est = lo + frac * (self._max - lo)
            return min(max(est, self._min), self._max)
        return self._max

    def quantile(self, q: float) -> float:
        """Estimated ``q``-quantile (0..1) from the bucket counts."""
        if not 0.0 <= q <= 1.0:
            raise ConfigError(f"quantile must be in [0, 1], got {q}")
        with self._lock:
            return self._quantile_locked(q)

    def to_dict(self) -> dict:
        # Everything is read under one lock acquisition: count, sum,
        # extrema, buckets and the derived quantiles must come from the
        # same instant, or a snapshot racing a writer tears (count
        # inconsistent with the bucket sum, mean from a mixed state).
        with self._lock:
            buckets = {
                f"le_{bound:g}": int(c)
                for bound, c in zip(self._bounds, self._buckets)
            }
            buckets["le_inf"] = int(self._buckets[-1])
            count = self.count
            total = self.total
            return {
                "count": count,
                "total_s": total,
                "mean_s": total / count if count else 0.0,
                "min_s": self._min if count else 0.0,
                "max_s": self._max if count else 0.0,
                "p50_s": self._quantile_locked(0.50),
                "p95_s": self._quantile_locked(0.95),
                "buckets": buckets,
            }


class NullCounter:
    """Counter stand-in when telemetry is disabled."""

    __slots__ = ()
    value = 0

    def inc(self, n: int = 1) -> None:
        pass


class NullGauge:
    __slots__ = ()
    value = 0.0

    def set(self, value: float) -> None:
        pass


class NullHistogram:
    __slots__ = ()
    count = 0
    total = 0.0
    mean = 0.0

    def observe(self, seconds: float) -> None:
        pass

    def quantile(self, q: float) -> float:
        return 0.0

    def to_dict(self) -> dict:
        return {}


class _NullTimer:
    __slots__ = ()

    def __enter__(self) -> "_NullTimer":
        return self

    def __exit__(self, *exc) -> None:
        pass


class _Timer:
    __slots__ = ("_hist", "_t0")

    def __init__(self, hist: LatencyHistogram) -> None:
        self._hist = hist
        self._t0 = 0.0

    def __enter__(self) -> "_Timer":
        self._t0 = time.perf_counter()
        return self

    def __exit__(self, *exc) -> None:
        # Failed stages are observed too: a timeout that takes 30 s is
        # exactly the latency signal the histogram exists to expose.
        self._hist.observe(time.perf_counter() - self._t0)


class MetricsRegistry:
    """Name -> instrument map with get-or-create semantics.

    Names are free-form; the convention used by the library is
    ``subsystem.metric`` (``stream.frames_total``,
    ``server.stream_restarts``). Asking twice for the same name
    returns the same instrument; asking for a name already registered
    as a different kind raises :class:`~repro.errors.ConfigError`.
    """

    def __init__(self, config: TelemetryConfig | None = None) -> None:
        self.config = config or TelemetryConfig()
        self._lock = threading.Lock()
        self._counters: dict[str, Counter] = {}
        self._gauges: dict[str, Gauge] = {}
        self._histograms: dict[str, LatencyHistogram] = {}

    @property
    def enabled(self) -> bool:
        return self.config.enabled

    def _get(self, table: dict, others: tuple[dict, ...], name: str, factory):
        if not name or not isinstance(name, str):
            raise ConfigError(f"metric name must be a non-empty string, got {name!r}")
        with self._lock:
            if any(name in other for other in others):
                raise ConfigError(
                    f"metric {name!r} already registered as a different kind"
                )
            inst = table.get(name)
            if inst is None:
                inst = table[name] = factory()
            return inst

    def counter(self, name: str) -> Counter | NullCounter:
        if not self.enabled:
            return _NULL_COUNTER
        return self._get(
            self._counters, (self._gauges, self._histograms), name, Counter
        )

    def gauge(self, name: str) -> Gauge | NullGauge:
        if not self.enabled:
            return _NULL_GAUGE
        return self._get(
            self._gauges, (self._counters, self._histograms), name, Gauge
        )

    def histogram(self, name: str) -> LatencyHistogram | NullHistogram:
        if not self.enabled:
            return _NULL_HISTOGRAM
        return self._get(
            self._histograms, (self._counters, self._gauges), name,
            lambda: LatencyHistogram(self.config.latency_buckets_s),
        )

    def time(self, name: str):
        """Context manager recording a duration into ``histogram(name)``."""
        if not self.enabled:
            return _NullTimer()
        return _Timer(self.histogram(name))

    def names(self) -> Iterator[str]:
        with self._lock:
            yield from sorted(
                [*self._counters, *self._gauges, *self._histograms]
            )

    def snapshot(self) -> dict:
        """JSON-ready view of every instrument's current value."""
        with self._lock:
            counters = dict(self._counters)
            gauges = dict(self._gauges)
            histograms = dict(self._histograms)
        return {
            "counters": {k: v.value for k, v in sorted(counters.items())},
            "gauges": {k: v.value for k, v in sorted(gauges.items())},
            "histograms": {
                k: v.to_dict() for k, v in sorted(histograms.items())
            },
        }

    def delta(self, since: dict | None = None, frames: int | None = None) -> dict:
        """Windowed view: per-instrument change since a prior snapshot.

        ``since`` is a dict previously returned by :meth:`snapshot` (or
        :meth:`delta` itself, whose ``"end"`` key is a snapshot);
        ``None`` means "since the registry was created", making the
        deltas equal to the cumulative totals. Counters registered
        after ``since`` delta from zero.

        Returns a JSON-ready dict::

            {
              "counters":   {name: increment, ...},
              "gauges":     {name: current_value, ...},   # point-in-time
              "histograms": {name: {"count": dc, "total_s": dt,
                                    "mean_s": dt/dc or 0.0}, ...},
              "frames":     N,            # only when frames= is given
              "rates_per_frame": {name: increment / N, ...},  # ditto
              "end":        <full snapshot>,   # baseline for the next call
            }

        This is the controller's input primitive: policy decisions are
        pure functions of these deltas, never of cumulative totals, so
        a long-lived stream behaves identically to a fresh one.
        """
        end = self.snapshot()
        base = since or {}
        base_counters = base.get("counters", {})
        counters = {
            name: value - base_counters.get(name, 0)
            for name, value in end["counters"].items()
        }
        base_hists = base.get("histograms", {})
        histograms = {}
        for name, cur in end["histograms"].items():
            prev = base_hists.get(name, {})
            dcount = cur["count"] - prev.get("count", 0)
            dtotal = cur["total_s"] - prev.get("total_s", 0.0)
            histograms[name] = {
                "count": dcount,
                "total_s": dtotal,
                "mean_s": dtotal / dcount if dcount > 0 else 0.0,
            }
        out = {
            "counters": counters,
            "gauges": dict(end["gauges"]),
            "histograms": histograms,
            "end": end,
        }
        if frames is not None:
            if frames < 1:
                raise ConfigError(f"frames must be >= 1, got {frames}")
            out["frames"] = frames
            out["rates_per_frame"] = {
                name: value / frames for name, value in counters.items()
            }
        return out


_NULL_COUNTER = NullCounter()
_NULL_GAUGE = NullGauge()
_NULL_HISTOGRAM = NullHistogram()
