"""Closed-loop degradation and recovery for the serving tier.

Every knob the serving stack exposes — pass-stack level, background
model family, integrity ``check_every``, profiling ``profile_every``,
backpressure — is frozen at startup. This module closes the loop: a
:class:`ServerController` watches each stream's windowed telemetry
deltas and walks a per-stream *rung ladder* of graded actions::

    rung 0   baseline         the stream's configured quality
    rung 1   guards           check_every / profile_every x guard_relax
    rung 2+  level            pass-stack downshifts (F -> D -> A)
    rung k   model            switch to the cheap family (mog -> dmsg),
                              only where the stream's scenario tolerates
                              it per the committed quality matrix
    rung k+1 shed             drop overflow frames instead of engaging
                              backpressure — the stream keeps emitting

One rung per decision, with hysteresis: ``degrade_after`` consecutive
hot windows move down, ``recover_after`` consecutive cool windows move
back up, and the gap between the ``queue_high`` and ``queue_low``
watermarks keeps the loop from oscillating around a single threshold.

Determinism is load-bearing. The policy (:func:`decide`) is a pure
function of windowed telemetry deltas and the hysteresis streaks — no
wall-clock, no randomness — and windows are counted in *frames*, not
seconds, so the chaos suite can pin exact transition sequences and the
same stream schedule replays to an identical transition log.

Reconfiguration safety: a level swap within a model family transfers
the warm mixture state (``state_snapshot``/``restore_state``; the
A–G pass stacks are decision-preserving, so masks stay bit-identical
across the swap). A *family* swap reuses the cross-family checkpoint
contract from the durable-checkpoint machinery: moving one family's
state planes into another is a typed
:class:`~repro.errors.CheckpointError`, so the new family starts from
fresh state while the pipeline keeps its frame index and last good
mask — masks stay well-defined (warm-up quality) across the swap.
"""

from __future__ import annotations

import json
import math
import os
from collections import deque
from dataclasses import dataclass
from pathlib import Path

from ..config import ControllerConfig
from ..errors import CheckpointError, ConfigError

#: Committed quality-matrix file name (see ``tools/quality_matrix.py``).
QUALITY_MATRIX_NAME = "QUALITY_MATRIX.json"

#: Environment override for the directory holding the quality matrix.
BENCH_DIR_ENV = "REPRO_BENCH_DIR"

#: Transition reasons emitted in the log.
REASON_OVERLOAD = "overload"
REASON_RECOVERED = "recovered"
REASON_INTEGRITY = "integrity"


@dataclass(frozen=True)
class Rung:
    """One step of a stream's degradation ladder: the *effective*
    configuration at that depth (rungs accumulate — a level rung keeps
    the guard relaxation acquired above it)."""

    kind: str          # "baseline" | "guards" | "level" | "model" | "shed"
    level: str         # effective pass-stack letter
    model: str         # effective model family
    guard_relax: int   # check_every / profile_every multiplier (1 = tight)
    shed: bool         # overflow frames are dropped, not backpressured

    def as_dict(self) -> dict:
        return {
            "kind": self.kind,
            "level": self.level,
            "model": self.model,
            "guard_relax": self.guard_relax,
            "shed": self.shed,
        }


@dataclass(frozen=True)
class WindowSignals:
    """Telemetry deltas for one stream over one frame window — the
    policy's entire world. All fields are integers derived from
    counters (:meth:`repro.telemetry.MetricsRegistry.delta`) or the
    queue depth at the window boundary; nothing here depends on
    wall-clock time."""

    queue_depth: int
    queue_capacity: int
    shed_delta: int = 0          # frames_shed this window
    integrity_delta: int = 0     # integrity.violations + faults.corrected
    degraded_delta: int = 0      # frames served degraded this window


def decide(
    rung: int,
    ladder: tuple[Rung, ...],
    signals: WindowSignals,
    hot_streak: int,
    cool_streak: int,
    config: ControllerConfig,
) -> tuple[int, int, int, str | None]:
    """The pure policy: one evaluation of one stream at a window
    boundary.

    Returns ``(hot_streak, cool_streak, target_rung, reason)`` where
    ``target_rung == rung`` (and ``reason is None``) means hold. The
    caller owns the streak state; passing the returned streaks back in
    on the next window makes the whole trajectory a fold over the
    window signals — trivially replayable.

    Classification: a window is *hot* when the boundary queue depth is
    at or above ``ceil(queue_high * capacity)`` or any frame was shed
    during it; *cool* when the depth is at or below
    ``floor(queue_low * capacity)`` and nothing was shed; anything in
    between (the hysteresis band) resets both streaks and holds.

    Integrity veto: corruption activity in the window
    (``integrity_delta > 0``) means relaxed guards are the wrong
    trade. Sitting on the guards rung, the policy restores it
    immediately (no streak needed, load notwithstanding); moving in
    either direction, the guards rung is skipped over.
    """
    high = math.ceil(config.queue_high * signals.queue_capacity)
    low = math.floor(config.queue_low * signals.queue_capacity)
    corrupt = signals.integrity_delta > 0

    if corrupt and ladder[rung].kind == "guards":
        return 0, 0, rung - 1, REASON_INTEGRITY

    hot = signals.queue_depth >= high or signals.shed_delta > 0
    cool = signals.queue_depth <= low and signals.shed_delta == 0
    if hot:
        hot_streak, cool_streak = hot_streak + 1, 0
    elif cool:
        hot_streak, cool_streak = 0, cool_streak + 1
    else:
        return 0, 0, rung, None

    if hot and hot_streak >= config.degrade_after and rung + 1 < len(ladder):
        target = rung + 1
        if corrupt and ladder[target].kind == "guards":
            if target + 1 >= len(ladder):
                return hot_streak, 0, rung, None
            target += 1
        return 0, 0, target, REASON_OVERLOAD
    if cool and cool_streak >= config.recover_after and rung > 0:
        target = rung - 1
        if corrupt and ladder[target].kind == "guards":
            target -= 1
        return 0, 0, target, REASON_RECOVERED
    return hot_streak, cool_streak, rung, None


# -- quality-matrix gating ---------------------------------------------
def resolve_bench_dir() -> Path:
    """Directory the committed :data:`QUALITY_MATRIX_NAME` is read from.

    Resolution order:

    1. the :data:`BENCH_DIR_ENV` (``REPRO_BENCH_DIR``) environment
       variable, created if absent — CI and installed-package runs
       point this wherever they like;
    2. the first ancestor of the current working directory (itself
       included) that looks like a repo checkout (has ``pyproject.toml``
       and ``src/repro``).

    Resolving from ``__file__`` is wrong once the package is installed:
    that lands inside ``site-packages``. With no override and no
    checkout in sight this raises a clear
    :class:`~repro.errors.ConfigError` instead.
    """
    override = os.environ.get(BENCH_DIR_ENV)
    if override:
        path = Path(override).expanduser().resolve()
        path.mkdir(parents=True, exist_ok=True)
        return path
    cwd = Path.cwd().resolve()
    for candidate in (cwd, *cwd.parents):
        if (candidate / "pyproject.toml").is_file() and (
            candidate / "src" / "repro"
        ).is_dir():
            return candidate
    raise ConfigError(
        f"cannot locate a repo checkout above {cwd} to hold "
        f"{QUALITY_MATRIX_NAME}; set {BENCH_DIR_ENV} to choose a "
        "directory explicitly"
    )


def load_quality_matrix(path: str | None = None) -> dict | None:
    """Load the committed model x level x scenario quality matrix.

    ``path=None`` auto-locates :data:`QUALITY_MATRIX_NAME` via
    :func:`resolve_bench_dir` (``REPRO_BENCH_DIR``, else the repo
    checkout). Any failure — no checkout, missing file, bad JSON —
    returns ``None``, which downstream conservatively reads as "no
    model switches".
    """
    try:
        file = Path(path) if path is not None else (
            resolve_bench_dir() / QUALITY_MATRIX_NAME
        )
        matrix = json.loads(file.read_text())
    except Exception:
        return None
    if not isinstance(matrix, dict) or not isinstance(
        matrix.get("cells"), list
    ):
        return None
    return matrix


def model_switch_tolerated(
    matrix: dict | None,
    scenario: str | None,
    base_model: str,
    fallback_model: str,
    margin: float,
) -> bool:
    """Whether ``scenario`` tolerates serving ``fallback_model`` in
    place of ``base_model``: the fallback's best F1 across levels must
    be within ``margin`` of the base model's best. Untagged streams,
    unknown scenarios and a missing matrix all answer ``False`` — the
    controller never trades quality it cannot account for.
    """
    if matrix is None or scenario is None:
        return False
    best: dict[str, float] = {}
    for cell in matrix["cells"]:
        if cell.get("scenario") != scenario:
            continue
        model = cell.get("model")
        f1 = cell.get("f1")
        if model is None or f1 is None:
            continue
        best[model] = max(best.get(model, 0.0), float(f1))
    if base_model not in best or fallback_model not in best:
        return False
    return best[fallback_model] >= best[base_model] - margin


def build_ladder(
    config: ControllerConfig,
    base_level: str,
    base_model: str,
    scenario: str | None = None,
    matrix: dict | None = None,
    reconfigurable: bool = True,
    guards_apply: bool = False,
) -> tuple[Rung, ...]:
    """Materialise one stream's degradation ladder.

    ``reconfigurable=False`` (an injected pipeline the server cannot
    rebuild) keeps only the rungs that touch no pipeline internals:
    baseline and — when allowed — shed. ``guards_apply`` gates the
    guards rung on the stream actually having something to relax (an
    active integrity policy or a profiled backend).

    A base level that appears in ``level_ladder`` descends only to the
    entries after it; one outside the ladder descends through all of
    it. The model rung is appended only when the stream's scenario
    provably tolerates the fallback (:func:`model_switch_tolerated`).
    """
    level, model = base_level, base_model
    rungs = [Rung("baseline", level, model, 1, False)]
    relax = 1
    if reconfigurable:
        if guards_apply and config.guard_relax >= 2:
            relax = config.guard_relax
            rungs.append(Rung("guards", level, model, relax, False))
        ladder = list(config.level_ladder)
        start = ladder.index(base_level) + 1 if base_level in ladder else 0
        for letter in ladder[start:]:
            level = letter
            rungs.append(Rung("level", level, model, relax, False))
        if (
            config.model_fallback is not None
            and config.model_fallback != base_model
            and model_switch_tolerated(
                matrix, scenario, base_model,
                config.model_fallback, config.model_margin,
            )
        ):
            model = config.model_fallback
            rungs.append(Rung("model", level, model, relax, False))
    if config.allow_shed:
        rungs.append(Rung("shed", level, model, relax, True))
    return tuple(rungs)


def ensure_same_family(current_model: str, target_model: str) -> None:
    """The cross-family contract from the durable-checkpoint machinery
    (:meth:`~repro.core.stream.SurveillancePipeline.restore_checkpoint`),
    applied to in-memory swaps: one family's state planes never move
    into another. Raises the same typed
    :class:`~repro.errors.CheckpointError`; the caller answers it the
    same way admission does — fresh model state, continuity of the
    frame index and last good mask."""
    if current_model != target_model:
        raise CheckpointError(
            f"checkpoint model-family mismatch: file holds "
            f"{current_model!r} state, pipeline is configured with "
            f"{target_model!r} — restoring one family's planes into "
            f"another would corrupt the model"
        )


@dataclass(frozen=True)
class Transition:
    """A committed rung move, handed to the server to apply."""

    stream_id: str
    source: Rung
    target: Rung
    entry: dict  # the transition-log record (already appended)

    @property
    def pipeline_changed(self) -> bool:
        s, t = self.source, self.target
        return (
            s.level != t.level
            or s.model != t.model
            or s.guard_relax != t.guard_relax
        )


class _Governor:
    """Per-stream controller state (guarded by the server lock)."""

    __slots__ = (
        "stream_id", "ladder", "rung", "hot_streak", "cool_streak",
        "window", "last_snapshot",
    )

    def __init__(self, stream_id: str, ladder: tuple[Rung, ...]) -> None:
        self.stream_id = stream_id
        self.ladder = ladder
        self.rung = 0
        self.hot_streak = 0
        self.cool_streak = 0
        self.window = 0
        self.last_snapshot: dict | None = None


class ServerController:
    """The server-side governor: one :class:`_Governor` per stream, a
    bounded transition log, and ``controller.*`` counters.

    All mutating methods are called with the owning server's lock held
    (registration, removal, window evaluation), which is what makes
    the transition log's order deterministic for a deterministic
    stream schedule.
    """

    def __init__(
        self,
        config: ControllerConfig,
        queue_capacity: int,
        registry,
    ) -> None:
        self.config = config
        self.queue_capacity = queue_capacity
        self.registry = registry  # the server's registry (rollups)
        self.matrix = load_quality_matrix(config.quality_matrix)
        self._governors: dict[str, _Governor] = {}
        self._log: deque[dict] = deque(maxlen=config.max_log)

    # -- registration --------------------------------------------------
    def register(
        self,
        stream_id: str,
        base_level: str,
        base_model: str,
        scenario: str | None,
        reconfigurable: bool,
        guards_apply: bool,
    ) -> None:
        ladder = build_ladder(
            self.config, base_level, base_model,
            scenario=scenario, matrix=self.matrix,
            reconfigurable=reconfigurable, guards_apply=guards_apply,
        )
        self._governors[stream_id] = _Governor(stream_id, ladder)

    def forget(self, stream_id: str) -> None:
        self._governors.pop(stream_id, None)

    # -- introspection -------------------------------------------------
    def rung_of(self, stream_id: str) -> int | None:
        gov = self._governors.get(stream_id)
        return None if gov is None else gov.rung

    def ladder_of(self, stream_id: str) -> tuple[Rung, ...] | None:
        gov = self._governors.get(stream_id)
        return None if gov is None else gov.ladder

    def log(self) -> list[dict]:
        """The transition log, oldest first (bounded by ``max_log``)."""
        return [dict(entry) for entry in self._log]

    # -- evaluation ----------------------------------------------------
    def observe_locked(
        self,
        stream_id: str,
        registry,
        queue_depth: int,
        frames_done: int,
    ) -> Transition | None:
        """Evaluate one stream at a window boundary. Called under the
        server lock; computes the window's telemetry deltas, runs
        :func:`decide`, and when the rung moves, commits the log entry
        and counters and returns the :class:`Transition` for the
        caller to apply (outside the lock)."""
        gov = self._governors.get(stream_id)
        if gov is None:
            return None
        delta = registry.delta(
            gov.last_snapshot, frames=self.config.window_frames
        )
        gov.last_snapshot = delta["end"]
        gov.window += 1
        counters = delta["counters"]
        signals = WindowSignals(
            queue_depth=queue_depth,
            queue_capacity=self.queue_capacity,
            shed_delta=counters.get("stream.frames_shed", 0),
            integrity_delta=(
                counters.get("integrity.violations", 0)
                + counters.get("faults.corrected", 0)
            ),
            degraded_delta=counters.get("stream.frames_degraded", 0),
        )
        gov.hot_streak, gov.cool_streak, target, reason = decide(
            gov.rung, gov.ladder, signals,
            gov.hot_streak, gov.cool_streak, self.config,
        )
        if target == gov.rung:
            return None
        source, dest = gov.ladder[gov.rung], gov.ladder[target]
        action = "downshift" if target > gov.rung else "upshift"
        entry = {
            "stream": stream_id,
            "window": gov.window,
            "frames_done": frames_done,
            "action": action,
            "reason": reason,
            "from_rung": gov.rung,
            "to_rung": target,
            "from": source.as_dict(),
            "to": dest.as_dict(),
            "queue_depth": signals.queue_depth,
            "shed_delta": signals.shed_delta,
            "integrity_delta": signals.integrity_delta,
        }
        gov.rung = target
        self._log.append(entry)
        self.registry.counter("server.controller.transitions").inc()
        self.registry.counter(f"server.controller.{action}s").inc()
        registry.counter("controller.transitions").inc()
        registry.counter(f"controller.{action}s").inc()
        return Transition(
            stream_id=stream_id, source=source, target=dest, entry=entry,
        )
