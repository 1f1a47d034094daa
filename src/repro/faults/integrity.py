"""Mixture-state integrity guards.

MoG state is the worst case for soft errors: per-pixel Gaussians
persist across every frame, so one undetected bit-flip poisons a
pixel's background model indefinitely. This module checks the
invariants the update equations provably maintain (see
:mod:`repro.mog.update`) and — in ``"repair"`` mode — re-initialises
only the corrupted pixels' components from the current frame, the same
initialisation a fresh model applies to its first frame. Because the
repair is algorithm-specific (not a full reset), untouched pixels keep
their converged state and the repaired pixels re-converge within a few
frames.

Invariants checked per pixel (``tol`` = ``IntegrityPolicy.weight_tol``):

- all of ``w``, ``m``, ``sd`` finite;
- each component weight in ``[-tol, 1 + tol]`` — the update is a
  convex-ish decay ``w' = alpha*w + match*(1-alpha)`` from ``w <= 1``,
  so no component can exceed 1;
- the per-pixel weight sum in ``(0, K*(1 + tol)]`` — weights decay but
  never all reach zero (component 0 starts at 1 and the virtual
  component re-seeds ``initial_weight`` on a total miss);
- ``sd`` in ``[min(sd_floor, initial_sd)*(1 - 1e-6), sd_cap]`` — the
  update clamps at ``sd_floor`` and unclaimed components keep
  ``initial_sd``;
- ``|m| <= mean_cap`` — means blend toward pixel intensities
  ``[0, 255]``; the unclaimed-component sentinels sit at
  ``-1000*(K-1)`` at worst, far below the default cap.

The guard is family-aware (``model="mog"`` or ``"dmsg"``): DMSG state
stores mode *ages* in the weight plane, so its weight-plane invariant
is ``age in [0, DMSG_AGE_CAP]`` with a positive per-pixel age sum (the
background mode's age never drops below 1), and repair re-initialises
flagged pixels the way :func:`repro.dmsg.dmsg_state_from_first_frame`
initialises a fresh model.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from ..config import DMSG_AGE_CAP, MODELS, IntegrityPolicy, MoGParams
from ..errors import ConfigError, IntegrityError
from ..mog.params import MixtureState

__all__ = [
    "IntegrityGuard",
    "IntegrityReport",
    "find_corrupt_pixels",
    "repair_pixels",
]


@dataclass(frozen=True)
class IntegrityReport:
    """Result of one integrity check.

    Attributes
    ----------
    frame_index:
        Frame index at which the check ran.
    num_pixels:
        Total pixels in the model.
    corrupt:
        Flat indices of pixels violating at least one invariant
        (``int64`` array, possibly empty).
    nonfinite, weight, sd, mean:
        Per-invariant corrupt-pixel counts (a pixel can appear in
        several).
    """

    frame_index: int
    num_pixels: int
    corrupt: np.ndarray
    nonfinite: int
    weight: int
    sd: int
    mean: int

    @property
    def clean(self) -> bool:
        return self.corrupt.size == 0


def find_corrupt_pixels(
    state: MixtureState,
    params: MoGParams,
    policy: IntegrityPolicy,
    frame_index: int = 0,
    model: str = "mog",
) -> IntegrityReport:
    """Check every invariant; returns an :class:`IntegrityReport` with
    the flat pixel indices that violate at least one of them."""
    if model not in MODELS:
        raise ConfigError(f"model must be one of {MODELS}, got {model!r}")
    w, m, sd = state.w, state.m, state.sd
    tol = policy.weight_tol
    k = state.num_gaussians

    finite = np.isfinite(w) & np.isfinite(m) & np.isfinite(sd)
    bad_finite = ~finite.all(axis=0)

    # Non-finite values would poison the bound comparisons below
    # (NaN compares false everywhere), so evaluate bounds on a
    # finite-masked view: a pixel with a NaN weight is already flagged
    # by ``bad_finite`` and must not *mask* a bound violation in its
    # other, finite components.
    w_f = np.where(np.isfinite(w), w, 0.0)
    sd_f = np.where(np.isfinite(sd), sd, 1.0)
    m_f = np.where(np.isfinite(m), m, 0.0)

    if model == "dmsg":
        # The weight plane holds mode ages: non-negative, capped at
        # DMSG_AGE_CAP, and the background mode keeps age >= 1 so the
        # per-pixel sum stays positive.
        bad_w = ((w_f < -tol) | (w_f > DMSG_AGE_CAP + tol)).any(axis=0)
        bad_w |= w_f.sum(axis=0) <= 0.0
    else:
        bad_w = ((w_f < -tol) | (w_f > 1.0 + tol)).any(axis=0)
        w_sum = w_f.sum(axis=0)
        bad_w |= (w_sum <= 0.0) | (w_sum > k * (1.0 + tol))

    sd_low = min(float(params.sd_floor), float(params.initial_sd)) * (1.0 - 1e-6)
    bad_sd = ((sd_f < sd_low) | (sd_f > policy.sd_cap)).any(axis=0)

    bad_m = (np.abs(m_f) > policy.mean_cap).any(axis=0)

    corrupt = np.flatnonzero(bad_finite | bad_w | bad_sd | bad_m)
    return IntegrityReport(
        frame_index=int(frame_index),
        num_pixels=state.num_pixels,
        corrupt=corrupt,
        nonfinite=int(bad_finite.sum()),
        weight=int(bad_w.sum()),
        sd=int(bad_sd.sum()),
        mean=int(bad_m.sum()),
    )


def repair_pixels(
    state: MixtureState,
    frame_flat: np.ndarray,
    cols: np.ndarray,
    params: MoGParams,
    model: str = "mog",
) -> None:
    """Re-initialise the Gaussians of the pixels in ``cols`` from the
    current frame, exactly as the family's first-frame initialiser
    would — for MoG, component 0 centred on the observed intensity with
    full weight and the rest unclaimed; for DMSG, a background mode of
    age 1 on the observed intensity with an empty (age-0) candidate.

    The state arrays are copied and rebound, never mutated in place:
    the vectorized oracles' ``state_snapshot`` hands out live
    references, so an in-place repair would silently rewrite history
    inside checkpoints taken earlier. Models that update in place (the
    CPU engine, the jit kernels) snapshot copies and re-read
    ``state.w/m/sd`` after the guard runs, so they see the rebound
    arrays.
    """
    if model not in MODELS:
        raise ConfigError(f"model must be one of {MODELS}, got {model!r}")
    dt = state.dtype
    w = state.w.copy()
    m = state.m.copy()
    sd = state.sd.copy()
    w[:, cols] = dt.type(0.0)
    w[0, cols] = dt.type(1.0)
    m[0, cols] = np.asarray(frame_flat, dtype=dt)[cols]
    if model == "dmsg":
        for j in range(1, state.num_gaussians):
            m[j, cols] = np.asarray(frame_flat, dtype=dt)[cols]
    else:
        for j in range(1, state.num_gaussians):
            m[j, cols] = dt.type(-1000.0 * j)
    sd[:, cols] = dt.type(params.initial_sd)
    state.w, state.m, state.sd = w, m, sd


class IntegrityGuard:
    """Stateful wrapper running :func:`find_corrupt_pixels` per frame
    according to an :class:`~repro.config.IntegrityPolicy`.

    ``check`` is called at the *start* of a model's ``apply`` (before
    classification), so corruption that lands between frames is caught
    and — in repair mode — healed before it influences a single mask.

    - ``mode="detect"`` raises :class:`~repro.errors.IntegrityError`
      (absorbed as a degraded frame by ``on_error="degrade"`` paths);
    - ``mode="repair"`` heals the flagged pixels in place and keeps
      going.

    Telemetry (when a registry is supplied): ``integrity.checks``,
    ``integrity.violations``, ``integrity.pixels_repaired`` counters
    and an ``integrity.detection_latency_frames`` histogram measuring
    frames elapsed since the last injected fault (only meaningful when
    the fault-injection harness is active).
    """

    def __init__(
        self,
        policy: IntegrityPolicy,
        params: MoGParams,
        telemetry=None,
        metric_prefix: str = "integrity",
        model: str = "mog",
    ) -> None:
        if model not in MODELS:
            raise ConfigError(f"model must be one of {MODELS}, got {model!r}")
        self.policy = policy
        self.params = params
        self.telemetry = telemetry
        self.metric_prefix = metric_prefix
        self.model = model
        self.last_report: IntegrityReport | None = None

    def _counter(self, name: str):
        if self.telemetry is None:
            return None
        return self.telemetry.counter(f"{self.metric_prefix}.{name}")

    def check(
        self,
        state: MixtureState,
        frame_flat: np.ndarray,
        frame_index: int,
    ) -> IntegrityReport | None:
        """Run one integrity check (honouring ``check_every``); returns
        the report, or ``None`` when this frame is skipped."""
        if not self.policy.active:
            return None
        if frame_index % self.policy.check_every != 0:
            return None
        report = find_corrupt_pixels(
            state, self.params, self.policy, frame_index, model=self.model
        )
        self.last_report = report
        if (c := self._counter("checks")) is not None:
            c.inc()
        if report.clean:
            return report
        if (c := self._counter("violations")) is not None:
            c.inc(int(report.corrupt.size))
        self._observe_detection_latency(frame_index)
        if self.policy.mode == "repair":
            repair_pixels(
                state, frame_flat, report.corrupt, self.params,
                model=self.model,
            )
            if (c := self._counter("pixels_repaired")) is not None:
                c.inc(int(report.corrupt.size))
            return report
        raise IntegrityError(
            f"mixture-state integrity violated at frame {frame_index}: "
            f"{report.corrupt.size} corrupt pixels "
            f"(nonfinite={report.nonfinite}, weight={report.weight}, "
            f"sd={report.sd}, mean={report.mean})",
            frame_index=frame_index,
            pixels=int(report.corrupt.size),
        )

    def _observe_detection_latency(self, frame_index: int) -> None:
        """Frames between the last injected fault and its detection —
        the headline metric of the chaos suite. Only recorded when the
        injection harness has actually fired (``faults.injected > 0``)."""
        if self.telemetry is None:
            return
        if self.telemetry.counter("faults.injected").value <= 0:
            return
        injected_at = self.telemetry.gauge("faults.last_injected_frame").value
        latency = frame_index - injected_at
        if latency >= 0:
            self.telemetry.histogram(
                "integrity.detection_latency_frames"
            ).observe(float(latency))
