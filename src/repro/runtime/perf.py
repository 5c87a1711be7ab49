"""Opt-in per-stage timing for the simulator's tick loop.

The engine never reads the clock itself (the determinism lint bans
wall-clock calls from ``repro.sim``): it asks this module for a stage
timer each run and calls ``start``/``lap`` around its four stages
(generate / filter / dispatch / infect).  When no collection is
active — the default — the timer is a shared no-op and the tick loop
pays two attribute calls per stage.  ``hotspots run --perf`` wraps the
campaign in :func:`perf_collection`, and the accumulated seconds ride
back on :class:`repro.runtime.report.RunReport.perf_stages`.
"""

from __future__ import annotations

import time
from contextlib import contextmanager
from typing import Iterator, Mapping, Optional, Protocol

#: Engine stages, in tick order (also the display order).
STAGES = ("generate", "filter", "dispatch", "infect")

#: Sharded-driver stages, in tick order.  Pool mode's streamed
#: pipeline laps ``stage`` (per-shard bucket gather), ``dispatch``
#: (shared-memory staging + submit), ``wait`` (reply latency) and
#: ``collect`` (reply reads) where the in-process paths lap
#: ``route``/``exchange`` and ``shards``.
SHARD_STAGES = (
    "generate",
    "filter",
    "route",
    "exchange",
    "stage",
    "dispatch",
    "wait",
    "collect",
    "shards",
    "merge",
)

#: Display order: engine stages first, then the sharded-driver-only
#: stage names, then (in :func:`format_stages`) anything unknown.
_KNOWN_STAGES = STAGES + tuple(
    stage for stage in SHARD_STAGES if stage not in STAGES
)


class StageTimer(Protocol):
    """What the tick loops (and the shard pool) expect of a timer."""

    def start(self) -> None: ...

    def lap(self, stage: str) -> None: ...

    def tick(self) -> None: ...


class StageTimings:
    """Accumulated wall-clock seconds per engine stage."""

    __slots__ = ("seconds", "ticks")

    def __init__(self) -> None:
        self.seconds: dict[str, float] = {}
        self.ticks = 0

    def add(self, stage: str, elapsed: float) -> None:
        """Fold one stage interval into the running totals."""
        self.seconds[stage] = self.seconds.get(stage, 0.0) + elapsed


def format_stages(seconds: Mapping[str, float], ticks: int) -> str:
    """One-line human summary, known stages first."""
    ordered = [stage for stage in _KNOWN_STAGES if stage in seconds]
    ordered += [
        stage for stage in sorted(seconds) if stage not in _KNOWN_STAGES
    ]
    parts = [f"{stage} {seconds[stage]:.3f}s" for stage in ordered]
    total = sum(seconds.values())
    parts.append(f"total {total:.3f}s over {ticks} ticks")
    return " | ".join(parts)


class _LiveTimer:
    """Feeds stage intervals into the active collection."""

    __slots__ = ("_timings", "_last")

    def __init__(self, timings: StageTimings) -> None:
        self._timings = timings
        self._last = 0.0

    def start(self) -> None:
        self._last = time.perf_counter()

    def lap(self, stage: str) -> None:
        now = time.perf_counter()
        self._timings.add(stage, now - self._last)
        self._last = now

    def tick(self) -> None:
        self._timings.ticks += 1


class _NullTimer:
    """The free default: timing calls do nothing."""

    __slots__ = ()

    def start(self) -> None:
        pass

    def lap(self, stage: str) -> None:
        pass

    def tick(self) -> None:
        pass


_NULL_TIMER = _NullTimer()
_active: Optional[StageTimings] = None


@contextmanager
def perf_collection() -> Iterator[StageTimings]:
    """Collect stage timings from every run inside the block.

    Timings from nested or sequential runs accumulate into the one
    yielded :class:`StageTimings`; collection is process-local, so
    pooled workers are not covered (``--perf`` forces serial trials).
    """
    global _active
    previous = _active
    _active = timings = StageTimings()
    try:
        yield timings
    finally:
        _active = previous


def stage_timer() -> "_LiveTimer | _NullTimer":
    """A live timer if collection is active, else the shared no-op."""
    if _active is not None:
        return _LiveTimer(_active)
    return _NULL_TIMER


def active_timings() -> Optional[StageTimings]:
    """The collection currently in effect, if any."""
    return _active
