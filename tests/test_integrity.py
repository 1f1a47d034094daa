"""Mixture-state integrity guards: invariant detection, surgical
repair, and the policy wiring through the model and stream layers."""

from __future__ import annotations

import warnings

import numpy as np
import pytest

from repro.config import DMSG_AGE_CAP, FaultPlan, IntegrityPolicy, MoGParams
from repro.core.stream import SurveillancePipeline
from repro.dmsg import DmsgVectorized
from repro.errors import ConfigError, IntegrityError
from repro.faults import (
    FaultInjector,
    IntegrityGuard,
    find_corrupt_pixels,
    repair_pixels,
)
from repro.mog import MoGVectorized
from repro.mog.params import MixtureState
from repro.telemetry import MetricsRegistry
from repro.video.scenes import evaluation_scene

SHAPE = (16, 24)
POLICY = IntegrityPolicy(mode="detect")


def converged_state(params: MoGParams, frames=6) -> MixtureState:
    video = evaluation_scene(height=SHAPE[0], width=SHAPE[1])
    model = MoGVectorized(SHAPE, params)
    for t in range(frames):
        model.apply(video.frame(t))
    return model.state


class TestFindCorruptPixels:
    def test_clean_state_is_clean(self, params):
        report = find_corrupt_pixels(converged_state(params), params, POLICY)
        assert report.clean
        assert report.corrupt.size == 0
        assert report.nonfinite == report.weight == 0
        assert report.sd == report.mean == 0

    def test_nan_flagged(self, params):
        state = converged_state(params)
        state.w[0, 7] = np.nan
        report = find_corrupt_pixels(state, params, POLICY)
        assert 7 in report.corrupt
        assert report.nonfinite == 1

    def test_weight_above_one_flagged(self, params):
        state = converged_state(params)
        state.w[1, 3] = 1.5
        report = find_corrupt_pixels(state, params, POLICY)
        assert 3 in report.corrupt
        assert report.weight >= 1

    def test_zero_weight_sum_flagged(self, params):
        state = converged_state(params)
        state.w[:, 5] = 0.0
        report = find_corrupt_pixels(state, params, POLICY)
        assert 5 in report.corrupt
        assert report.weight >= 1

    def test_sd_bounds_flagged(self, params):
        state = converged_state(params)
        state.sd[0, 2] = 0.01  # below the clamp floor
        state.sd[1, 9] = 1e12  # exponent-bit blow-up past sd_cap
        report = find_corrupt_pixels(state, params, POLICY)
        assert {2, 9} <= set(report.corrupt.tolist())
        assert report.sd == 2

    def test_mean_cap_flagged(self, params):
        state = converged_state(params)
        state.m[0, 11] = -1e9
        report = find_corrupt_pixels(state, params, POLICY)
        assert 11 in report.corrupt
        assert report.mean == 1

    def test_nan_does_not_mask_other_violations(self, params):
        """Regression guard on the masked-bounds evaluation: NaN
        compares false everywhere, so a naive bound check would let a
        pixel with one NaN component hide a *bound* violation in a
        different pixel evaluated in the same vectorised expression."""
        state = converged_state(params)
        state.w[0, 1] = np.nan
        state.sd[0, 4] = 1e12
        report = find_corrupt_pixels(state, params, POLICY)
        assert {1, 4} <= set(report.corrupt.tolist())


def oracle_find_corrupt(state, params, policy, model="mog"):
    """The guard's original formulation, kept as the oracle for the
    one-pass check: bounds evaluated on finite-masked copies, returning
    ``(corrupt, nonfinite, weight, sd, mean)``."""
    w, m, sd = state.w, state.m, state.sd
    tol = policy.weight_tol
    k = state.num_gaussians
    finite = np.isfinite(w) & np.isfinite(m) & np.isfinite(sd)
    bad_finite = ~finite.all(axis=0)
    w_f = np.where(np.isfinite(w), w, 0.0)
    sd_f = np.where(np.isfinite(sd), sd, 1.0)
    m_f = np.where(np.isfinite(m), m, 0.0)
    sd_low = min(float(params.sd_floor), float(params.initial_sd)) * (1.0 - 1e-6)
    with np.errstate(over="ignore"):
        w_sum = w_f.sum(axis=0)
        if model == "dmsg":
            bad_w = ((w_f < -tol) | (w_f > DMSG_AGE_CAP + tol)).any(axis=0)
            bad_w |= w_sum <= 0.0
        else:
            bad_w = ((w_f < -tol) | (w_f > 1.0 + tol)).any(axis=0)
            bad_w |= (w_sum <= 0.0) | (w_sum > k * (1.0 + tol))
        bad_sd = ((sd_f < sd_low) | (sd_f > policy.sd_cap)).any(axis=0)
        bad_m = (np.abs(m_f) > policy.mean_cap).any(axis=0)
    corrupt = np.flatnonzero(bad_finite | bad_w | bad_sd | bad_m)
    return (corrupt, *(int(b.sum()) for b in (bad_finite, bad_w, bad_sd, bad_m)))


ORACLE_POLICIES = (
    IntegrityPolicy(),
    IntegrityPolicy(sd_cap=np.inf, mean_cap=np.inf),
    IntegrityPolicy(sd_cap=40.0, mean_cap=1e300, weight_tol=1e-3),
)


def poison_values(params, policy):
    """Special values plus every bound and its nearest neighbours (a
    whole-column poke of ``1 + tol`` lands on the weight-sum bound)."""
    tol = policy.weight_tol
    sd_low = min(params.sd_floor, params.initial_sd) * (1.0 - 1e-6)
    edges = [
        -tol, 1.0 + tol, DMSG_AGE_CAP + tol,
        sd_low, policy.sd_cap, policy.mean_cap, -policy.mean_cap,
    ]
    out = [np.nan, np.inf, -np.inf, 0.0, -0.0, 1e300, -1e300, 3e38, -3e38]
    for e in edges:
        out += [e, np.nextafter(e, np.inf), np.nextafter(e, -np.inf)]
    return out


def converged_family_state(params, model, dtype):
    video = evaluation_scene(height=SHAPE[0], width=SHAPE[1])
    cls = DmsgVectorized if model == "dmsg" else MoGVectorized
    sub = cls(SHAPE, params, dtype=dtype)
    for t in range(6):
        sub.apply(video.frame(t))
    return sub.state


def poisoned_states(params, policy, model, dtype, trials, seed):
    """Yield ``trials`` copies of a converged state, each with a few
    random elements (or whole pixel columns) set to poison values."""
    rng = np.random.default_rng(seed)
    base = converged_family_state(params, model, dtype)
    values = poison_values(params, policy)
    for _ in range(trials):
        state = base.copy()
        for _ in range(int(rng.integers(1, 7))):
            plane = (state.w, state.m, state.sd)[rng.integers(3)]
            pixel = int(rng.integers(state.num_pixels))
            value = values[rng.integers(len(values))]
            with np.errstate(over="ignore"):
                cast = np.asarray(value).astype(state.dtype)
            if rng.random() < 0.25:
                plane[:, pixel] = cast
            else:
                plane[rng.integers(plane.shape[0]), pixel] = cast
        yield state


class TestOnePassGuardMatchesOracle:
    @pytest.mark.parametrize("model", ["mog", "dmsg"])
    @pytest.mark.parametrize("dtype", ["double", "float"])
    @pytest.mark.parametrize("policy", ORACLE_POLICIES, ids=["default", "inf", "tight"])
    def test_corrupt_set_and_counts_match(self, params, model, dtype, policy):
        flagged = 0
        for state in poisoned_states(params, policy, model, dtype, 150, seed=7):
            report = find_corrupt_pixels(state, params, policy, model=model)
            corrupt, *counts = oracle_find_corrupt(state, params, policy, model)
            assert np.array_equal(report.corrupt, corrupt)
            assert [report.nonfinite, report.weight, report.sd,
                    report.mean] == counts
            flagged += corrupt.size > 0
        assert flagged > 100  # the poison actually lands

    @pytest.mark.parametrize("model", ["mog", "dmsg"])
    @pytest.mark.parametrize("dtype", ["double", "float"])
    @pytest.mark.parametrize("policy", ORACLE_POLICIES, ids=["default", "inf", "tight"])
    def test_no_runtime_warning_on_poisoned_state(
        self, params, model, dtype, policy
    ):
        policy = policy.replace(mode="repair")
        guard = IntegrityGuard(policy, params, model=model)
        frame = evaluation_scene(height=SHAPE[0], width=SHAPE[1]).frame(6)
        states = list(poisoned_states(params, policy, model, dtype, 40, seed=3))
        # inf + -inf in one pixel's weights: the sum itself is invalid.
        states[0].w[0, 5], states[0].w[1, 5] = np.inf, -np.inf
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            for t, state in enumerate(states):
                guard.check(state, frame.reshape(-1), t)
                assert find_corrupt_pixels(state, params, policy, model=model).clean


class TestRepairPixels:
    def test_only_flagged_pixels_touched(self, params):
        state = converged_state(params)
        frame_flat = (
            evaluation_scene(height=SHAPE[0], width=SHAPE[1])
            .frame(6).reshape(-1)
        )
        before = state.copy()
        cols = np.array([3, 40])
        repair_pixels(state, frame_flat, cols, params)
        untouched = np.ones(state.num_pixels, dtype=bool)
        untouched[cols] = False
        for b, a in (
            (before.w, state.w), (before.m, state.m), (before.sd, state.sd)
        ):
            assert np.array_equal(b[:, untouched], a[:, untouched])

    def test_repaired_pixels_match_first_frame_init(self, params):
        state = converged_state(params)
        frame_flat = np.full(SHAPE[0] * SHAPE[1], 123.0)
        cols = np.array([10])
        repair_pixels(state, frame_flat, cols, params)
        k = state.num_gaussians
        assert state.w[0, 10] == 1.0
        assert np.all(state.w[1:, 10] == 0.0)
        assert state.m[0, 10] == 123.0
        for j in range(1, k):
            assert state.m[j, 10] == -1000.0 * j
        assert np.all(state.sd[:, 10] == params.initial_sd)

    def test_copy_then_rebind_preserves_snapshots(self, params):
        """state_snapshot hands out live references; repair must rebind
        fresh arrays, never mutate in place, or it would silently
        rewrite history inside a checkpoint taken earlier."""
        state = converged_state(params)
        snap_w, snap_m, snap_sd = state.w, state.m, state.sd
        w0, m0, sd0 = snap_w.copy(), snap_m.copy(), snap_sd.copy()
        repair_pixels(
            state, np.zeros(state.num_pixels), np.array([0, 1]), params
        )
        assert state.w is not snap_w  # rebound, not mutated
        assert np.array_equal(snap_w, w0)
        assert np.array_equal(snap_m, m0)
        assert np.array_equal(snap_sd, sd0)

    def test_repair_passes_validation(self, params):
        state = converged_state(params)
        state.w[:, 8] = np.nan
        state.sd[0, 20] = 1e12
        report = find_corrupt_pixels(state, params, POLICY)
        assert not report.clean
        repair_pixels(
            state, np.full(state.num_pixels, 50.0), report.corrupt, params
        )
        assert find_corrupt_pixels(state, params, POLICY).clean


class TestIntegrityPolicyConfig:
    def test_validation(self):
        with pytest.raises(ConfigError):
            IntegrityPolicy(mode="paranoid")
        with pytest.raises(ConfigError):
            IntegrityPolicy(check_every=0)
        with pytest.raises(ConfigError):
            IntegrityPolicy(sd_cap=-1.0)

    def test_active(self):
        assert not IntegrityPolicy(mode="off").active
        assert IntegrityPolicy(mode="detect").active
        assert IntegrityPolicy(mode="repair").active


class TestIntegrityGuard:
    def test_detect_raises_typed_error(self, params):
        state = converged_state(params)
        state.m[0, 6] = 1e9
        guard = IntegrityGuard(IntegrityPolicy(mode="detect"), params)
        with pytest.raises(IntegrityError) as ei:
            guard.check(state, np.zeros(state.num_pixels), 12)
        assert ei.value.frame_index == 12
        assert ei.value.pixels == 1

    def test_repair_heals_and_counts(self, params):
        reg = MetricsRegistry()
        state = converged_state(params)
        state.w[0, 6] = np.nan
        state.sd[0, 30] = 1e12
        guard = IntegrityGuard(
            IntegrityPolicy(mode="repair"), params, telemetry=reg
        )
        report = guard.check(state, np.full(state.num_pixels, 80.0), 4)
        assert report is not None and report.corrupt.size == 2
        assert find_corrupt_pixels(state, params, POLICY).clean
        snap = reg.snapshot()["counters"]
        assert snap["integrity.checks"] == 1
        assert snap["integrity.violations"] == 2
        assert snap["integrity.pixels_repaired"] == 2

    def test_off_mode_skips(self, params):
        state = converged_state(params)
        state.w[0, 0] = np.nan
        guard = IntegrityGuard(IntegrityPolicy(mode="off"), params)
        assert guard.check(state, np.zeros(state.num_pixels), 0) is None

    def test_check_every_cadence(self, params):
        state = converged_state(params)
        guard = IntegrityGuard(
            IntegrityPolicy(mode="detect", check_every=3), params
        )
        flat = np.zeros(state.num_pixels)
        assert guard.check(state, flat, 1) is None  # skipped
        assert guard.check(state, flat, 2) is None  # skipped
        assert guard.check(state, flat, 3) is not None  # checked

    def test_detection_latency_histogram(self, params):
        """Latency = detection frame - last injected frame, recorded
        only when the injection harness has actually fired."""
        reg = MetricsRegistry()
        state = converged_state(params)
        state.w[0, 0] = np.nan
        guard = IntegrityGuard(
            IntegrityPolicy(mode="repair"), params, telemetry=reg
        )
        # No injection recorded yet: violation found, latency not
        # observed (manual corruption has no injection timestamp).
        guard.check(state, np.zeros(state.num_pixels), 5)
        assert (
            "integrity.detection_latency_frames"
            not in reg.snapshot()["histograms"]
        )
        reg.counter("faults.injected").inc()
        reg.gauge("faults.last_injected_frame").set(7)
        state.w[0, 1] = np.nan
        guard.check(state, np.zeros(state.num_pixels), 8)
        hist = reg.snapshot()["histograms"][
            "integrity.detection_latency_frames"
        ]
        assert hist["count"] == 1
        assert hist["max_s"] == 1.0  # injected at 7, detected at 8


class TestModelIntegration:
    def test_guard_runs_inside_apply(self, params):
        video = evaluation_scene(height=SHAPE[0], width=SHAPE[1])
        reg = MetricsRegistry()
        model = MoGVectorized(
            SHAPE, params,
            integrity=IntegrityPolicy(mode="repair"), telemetry=reg,
        )
        model.apply(video.frame(0))
        model.state.sd[0, 13] = 1e12  # soft error between frames
        model.apply(video.frame(1))
        snap = reg.snapshot()["counters"]
        assert snap["integrity.pixels_repaired"] == 1
        assert find_corrupt_pixels(model.state, params, POLICY).clean

    def test_detect_absorbed_by_degrade_stream(self, params):
        """A detect-mode violation inside a degrade-policy stream is a
        degraded frame, not a crash — the serving contract."""
        video = evaluation_scene(height=SHAPE[0], width=SHAPE[1])
        inj = FaultInjector(
            FaultPlan(target="state", frames=(2,), flips=64, seed=11)
        )
        pipe = SurveillancePipeline(
            SHAPE, params, warmup_frames=0, on_error="degrade",
            integrity=IntegrityPolicy(mode="detect"), fault_injector=inj,
        )
        results = [pipe.step(video.frame(t)) for t in range(4)]
        assert not results[0].degraded
        assert any(r.degraded for r in results[2:])
        degraded = next(r for r in results[2:] if r.degraded)
        assert "integrity" in degraded.error

    def test_clean_run_zero_violations(self, params, small_frames):
        """Acceptance: the validator reports zero violations across a
        clean end-to-end run (no false positives)."""
        reg = MetricsRegistry()
        pipe = SurveillancePipeline(
            (24, 64), params, warmup_frames=0,
            integrity=IntegrityPolicy(mode="detect"), telemetry=reg,
        )
        for f in small_frames:
            pipe.step(f)  # detect mode: a violation would raise
        snap = reg.snapshot()["counters"]
        assert snap["integrity.checks"] == len(small_frames) - 1
        assert "integrity.violations" not in snap
