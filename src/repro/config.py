"""Configuration objects shared across the library.

Two dataclasses describe a run:

* :class:`MoGParams` — the *algorithmic* knobs of the Mixture-of-Gaussians
  model (number of components, learning rate, match threshold, ...).
  These are the symbols used in Algorithm 1 of the paper:
  ``Gamma1`` (match / closeness threshold, in standard deviations) and
  ``Gamma2`` (minimum weight for a component to count as background).

* :class:`RunConfig` — the *execution* knobs: frame geometry, data type,
  optimization level, tiling parameters.

Both are immutable; derived quantities are exposed as properties so a
config can be passed around freely without defensive copying.
"""

from __future__ import annotations

import dataclasses
from dataclasses import dataclass

import numpy as np

from .errors import ConfigError

#: Data types accepted for Gaussian parameters, keyed by their CUDA names.
SUPPORTED_DTYPES = {
    "double": np.float64,
    "float": np.float32,
}


def resolve_dtype(dtype: str | type | np.dtype) -> np.dtype:
    """Normalise ``dtype`` to a NumPy dtype.

    Accepts the CUDA-style names ``"double"`` / ``"float"`` as well as
    anything NumPy itself understands, but restricts the result to the
    two floating-point widths the paper studies.
    """
    if isinstance(dtype, str) and dtype in SUPPORTED_DTYPES:
        out = np.dtype(SUPPORTED_DTYPES[dtype])
    else:
        try:
            out = np.dtype(dtype)
        except TypeError as exc:  # e.g. dtype=object()
            raise ConfigError(f"unsupported dtype: {dtype!r}") from exc
    if out not in (np.dtype(np.float32), np.dtype(np.float64)):
        raise ConfigError(
            f"Gaussian parameters must be float32 or float64, got {out}"
        )
    return out


@dataclass(frozen=True)
class MoGParams:
    """Algorithmic parameters of the Stauffer-Grimson mixture model.

    Attributes
    ----------
    num_gaussians:
        Components per pixel. The paper evaluates 3 (default) and 5.
    learning_rate:
        The ``alpha`` in the exponential weight update
        ``w <- (1-alpha)*w + alpha*match``. The paper's Algorithm 4/5
        writes the complementary form; see :mod:`repro.mog.update`.
    match_threshold:
        ``Gamma1``: a component matches when
        ``|pixel - mean| < Gamma1 * sd``.
    background_weight:
        ``Gamma2``: minimum weight for a matched component to classify
        the pixel as background (Algorithm 1, line 24).
    initial_sd:
        Standard deviation assigned to freshly created (virtual)
        components.
    initial_weight:
        Weight assigned to freshly created components (before
        renormalisation).
    sd_floor:
        Lower clamp on standard deviations, preventing a perfectly
        static pixel from collapsing a component to sd = 0 (which would
        make every subsequent pixel a foreground outlier).
    """

    num_gaussians: int = 3
    learning_rate: float = 0.01
    match_threshold: float = 2.5
    background_weight: float = 0.15
    initial_sd: float = 30.0
    initial_weight: float = 0.05
    sd_floor: float = 4.0

    def __post_init__(self) -> None:
        if not 1 <= self.num_gaussians <= 8:
            raise ConfigError(
                f"num_gaussians must be in [1, 8], got {self.num_gaussians}"
            )
        if not 0.0 < self.learning_rate < 1.0:
            raise ConfigError(
                f"learning_rate must be in (0, 1), got {self.learning_rate}"
            )
        if self.match_threshold <= 0.0:
            raise ConfigError(
                f"match_threshold must be positive, got {self.match_threshold}"
            )
        if not 0.0 < self.background_weight < 1.0:
            raise ConfigError(
                "background_weight must be in (0, 1), got "
                f"{self.background_weight}"
            )
        if self.initial_sd <= 0.0 or self.sd_floor <= 0.0:
            raise ConfigError("initial_sd and sd_floor must be positive")
        if not 0.0 < self.initial_weight <= 1.0:
            raise ConfigError(
                f"initial_weight must be in (0, 1], got {self.initial_weight}"
            )

    def replace(self, **kwargs) -> "MoGParams":
        """Return a copy with the given fields replaced."""
        return dataclasses.replace(self, **kwargs)


@dataclass(frozen=True)
class FusionParams:
    """Thresholds of the fused per-pixel post stages.

    Consumed by the fusion kernel pass (``repro.kernels.fusion``) and
    its NumPy oracle (``repro.post.analytics``). The shadow bounds
    follow the grayscale Horprasert-style test: a shadow pixel is a
    *dimmed* copy of the background estimate, so the brightness ratio
    must sit in ``[shadow_alpha_low, shadow_alpha_high) ⊂ (0, 1]``.

    Attributes
    ----------
    min_contrast:
        Minimum ``|x - background|`` (gray levels) for a foreground
        pixel to survive the fused threshold stage.
    shadow_alpha_low, shadow_alpha_high:
        Brightness-ratio band classified as shadow.
    """

    min_contrast: float = 12.0
    shadow_alpha_low: float = 0.45
    shadow_alpha_high: float = 0.95

    def __post_init__(self) -> None:
        if self.min_contrast < 0.0:
            raise ConfigError(
                f"min_contrast must be non-negative, got {self.min_contrast}"
            )
        if not 0.0 < self.shadow_alpha_low < self.shadow_alpha_high <= 1.0:
            raise ConfigError(
                "need 0 < shadow_alpha_low < shadow_alpha_high <= 1 "
                "(a shadow dims the background), got "
                f"{self.shadow_alpha_low}, {self.shadow_alpha_high}"
            )

    def replace(self, **kwargs) -> "FusionParams":
        """Return a copy with the given fields replaced."""
        return dataclasses.replace(self, **kwargs)


#: Execution backends a subtractor can run on. ``"cpu"`` is the CPU
#: engine (:mod:`repro.cpu.engine`: compiled per-pixel kernels, the
#: NumPy block loop without a C compiler), ``"sim"`` the simulated GPU;
#: ``"jit"`` is an alias of ``"cpu"``.
BACKENDS = ("cpu", "sim", "jit")

#: Background-model families the kernel stack can run. ``"mog"`` is
#: the paper's Stauffer-Grimson mixture; ``"dmsg"`` the dual-mode
#: single Gaussian (one background mode plus an age-gated candidate
#: that swaps in on scene change) — far cheaper per pixel, the serving
#: tier's low-cost degrade target. See :mod:`repro.kernels.ir` for the
#: :class:`~repro.kernels.ir.ModelFamily` definitions.
MODELS = ("mog", "dmsg")

#: Age ceiling of the DMSG running averages. Caps the effective
#: learning rate at ``1/DMSG_AGE_CAP`` so an old background mode can
#: still adapt to slow drift. Fixed (not a :class:`MoGParams` field)
#: so DMSG checkpoints stay schema-compatible with MoG ones.
DMSG_AGE_CAP = 128.0

#: Geometry of the paper's evaluation video.
FULL_HD = (1080, 1920)
#: Frames processed in the paper's timing runs.
PAPER_NUM_FRAMES = 450


@dataclass(frozen=True)
class RunConfig:
    """Execution configuration for a background-subtraction run.

    Attributes
    ----------
    height, width:
        Frame geometry in pixels. The paper uses full HD (1080 x 1920);
        simulator-backed runs default to smaller frames and the bench
        harness extrapolates per-pixel counters (see
        :mod:`repro.bench.harness`).
    dtype:
        ``"double"`` or ``"float"`` — precision of the Gaussian
        parameters (Section V-C of the paper).
    threads_per_block:
        CUDA block size used for the non-tiled kernels (paper: 128).
    tile_pixels:
        Tile size for the level-G (shared memory) kernel. 640 pixels is
        the paper's choice: 640 px * 3 components * 3 params * 8 B =
        45 KiB, filling the 48 KiB shared memory of one Fermi SM.
    frame_group:
        Frames per group for level G (the paper sweeps 1..32, best = 8).
    profile_every:
        Profile every Nth kernel launch on the simulated backend; the
        rest run on the functional tier (exact masks, no counters).
        1 (default) profiles every launch — today's behaviour.
    backend:
        Optional default execution backend (one of :data:`BACKENDS`)
        for consumers that accept a run config but no explicit
        ``backend=`` argument; ``None`` keeps each consumer's own
        default.
    model:
        Optional default background-model family (one of
        :data:`MODELS`) for consumers that accept a run config but no
        explicit ``model=`` argument; ``None`` keeps each consumer's
        own default (``"mog"``).
    """

    height: int = 240
    width: int = 320
    dtype: str = "double"
    threads_per_block: int = 128
    tile_pixels: int = 640
    frame_group: int = 8
    profile_every: int = 1
    backend: str | None = None
    model: str | None = None

    def __post_init__(self) -> None:
        if self.height <= 0 or self.width <= 0:
            raise ConfigError(
                f"frame geometry must be positive, got {self.height}x{self.width}"
            )
        if self.backend is not None and self.backend not in BACKENDS:
            raise ConfigError(
                f"backend must be one of {BACKENDS}, got {self.backend!r}"
            )
        if self.model is not None and self.model not in MODELS:
            raise ConfigError(
                f"model must be one of {MODELS}, got {self.model!r}"
            )
        resolve_dtype(self.dtype)  # validates
        if self.threads_per_block <= 0 or self.threads_per_block % 32:
            raise ConfigError(
                "threads_per_block must be a positive multiple of the warp "
                f"size (32), got {self.threads_per_block}"
            )
        if self.tile_pixels <= 0 or self.tile_pixels % 32:
            raise ConfigError(
                f"tile_pixels must be a positive multiple of 32, got {self.tile_pixels}"
            )
        if self.frame_group <= 0:
            raise ConfigError(
                f"frame_group must be positive, got {self.frame_group}"
            )
        if self.profile_every < 1:
            raise ConfigError(
                f"profile_every must be >= 1, got {self.profile_every}"
            )

    @property
    def num_pixels(self) -> int:
        """Pixels per frame."""
        return self.height * self.width

    @property
    def np_dtype(self) -> np.dtype:
        """The NumPy dtype of the Gaussian parameters."""
        return resolve_dtype(self.dtype)

    @property
    def itemsize(self) -> int:
        """Bytes per Gaussian parameter (8 for double, 4 for float)."""
        return self.np_dtype.itemsize

    def gaussian_bytes(self, num_gaussians: int) -> int:
        """Bytes of Gaussian state for a whole frame.

        The paper quotes 149 MB for full HD, 3 components, double
        precision (Section IV-D): ``1080*1920*3*3*8``.
        """
        return self.num_pixels * num_gaussians * 3 * self.itemsize

    def replace(self, **kwargs) -> "RunConfig":
        """Return a copy with the given fields replaced."""
        return dataclasses.replace(self, **kwargs)


#: Fault policies for the process-parallel path.
FAULT_POLICIES = ("fail", "restart", "serial_fallback")
#: Stage-error policies for the streaming pipeline.
STAGE_ERROR_POLICIES = ("raise", "degrade")


@dataclass(frozen=True)
class FaultPolicy:
    """How the serving path reacts to worker and stage failures.

    Attributes
    ----------
    policy:
        What :class:`~repro.parallel.ParallelMoG` does when a stripe
        worker dies, hangs past ``timeout_s``, or raises:

        * ``"fail"`` (default) — raise a typed
          :class:`~repro.errors.WorkerError` naming the stripe;
        * ``"restart"`` — spawn a replacement worker (restoring the
          stripe's last checkpointed mixture state when
          ``checkpoint=True``) and re-submit the stripe, up to
          ``max_restarts`` times per stripe;
        * ``"serial_fallback"`` — degrade the stripe to an in-process
          :class:`~repro.mog.MoGVectorized` for the rest of the run.
    timeout_s:
        Upper bound on waiting for any single stripe result. This is
        what turns a dead worker from an infinite hang into a handled
        fault.
    probe_timeout_s:
        Upper bound on the startup handshake of each worker, so an
        initializer failure surfaces at construction instead of as an
        opaque hang on the first frame.
    shutdown_timeout_s:
        Grace period for workers to drain and exit on ``close()``
        before escalating to a hard ``terminate()``.
    max_restarts:
        Per-stripe restart budget under ``policy="restart"``; once
        exhausted the fault is raised as a ``WorkerError``.
    checkpoint:
        Ship the stripe's mixture state back with every result so a
        restarted (or fallen-back) stripe resumes exactly where the
        dead worker left off, keeping masks identical to the serial
        implementation. Costs one extra state copy per stripe per
        frame; only active when ``policy`` is not ``"fail"``.
    stage_error:
        What :class:`~repro.core.stream.SurveillancePipeline` does when
        a stage raises mid-step: ``"raise"`` re-raises (leaving the
        frame index uncommitted), ``"degrade"`` returns the last good
        mask flagged as degraded.
    """

    policy: str = "fail"
    timeout_s: float = 30.0
    probe_timeout_s: float = 10.0
    shutdown_timeout_s: float = 5.0
    max_restarts: int = 3
    checkpoint: bool = True
    stage_error: str = "raise"

    def __post_init__(self) -> None:
        if self.policy not in FAULT_POLICIES:
            raise ConfigError(
                f"policy must be one of {FAULT_POLICIES}, got {self.policy!r}"
            )
        if self.stage_error not in STAGE_ERROR_POLICIES:
            raise ConfigError(
                "stage_error must be one of "
                f"{STAGE_ERROR_POLICIES}, got {self.stage_error!r}"
            )
        for name in ("timeout_s", "probe_timeout_s", "shutdown_timeout_s"):
            value = getattr(self, name)
            if not value > 0.0:
                raise ConfigError(f"{name} must be positive, got {value}")
        if self.max_restarts < 0:
            raise ConfigError(
                f"max_restarts must be non-negative, got {self.max_restarts}"
            )

    @property
    def wants_checkpoint(self) -> bool:
        """Whether results should carry state back (no overhead under
        ``"fail"``, where the state would never be used)."""
        return self.checkpoint and self.policy != "fail"

    def replace(self, **kwargs) -> "FaultPolicy":
        """Return a copy with the given fields replaced."""
        return dataclasses.replace(self, **kwargs)


#: Layers a :class:`FaultPlan` can corrupt.
FAULT_TARGETS = ("state", "frame", "dma", "serve")
#: Corruption modes. ``bitflip``/``stuck`` apply to memory targets
#: (``state``/``frame``/``dma``); ``stall``/``raise`` to ``serve``.
FAULT_MODES = ("bitflip", "stuck", "stall", "raise")
#: Simulated ECC modes (the C2075 ships with ECC; the paper measures
#: with it enabled).
ECC_MODES = ("off", "on")

#: Modes accepted by a memory target and by the serve target.
_MEMORY_FAULT_MODES = ("bitflip", "stuck")
_SERVE_FAULT_MODES = ("stall", "raise")


@dataclass(frozen=True)
class FaultPlan:
    """A deterministic schedule of injected soft errors.

    Interpreted by :class:`repro.faults.FaultInjector`. Every random
    choice (which element, which bit) comes from a generator seeded with
    ``seed`` via :func:`repro.utils.rng.rng_from_seed`, so a plan
    replays identically — the property every chaos test leans on.

    Attributes
    ----------
    target:
        Layer to corrupt:

        * ``"state"`` — mixture state: the live
          :class:`~repro.mog.params.MixtureState` arrays on the CPU
          backend, or the simulated GPU's float global-memory buffers
          (the Gaussian parameter buffer) on the sim backend;
        * ``"frame"`` — the input frame at the video layer (the frame
          is corrupted on a copy; the caller's array is untouched);
        * ``"dma"`` — the flattened frame bytes of a simulated
          host->device transfer, after validation but before the
          kernel sees them;
        * ``"serve"`` — the serving layer: stall or raise inside a
          pipeline step (see :class:`repro.faults.FaultyPipeline`).
    mode:
        ``"bitflip"`` (flip one random bit per fault) or ``"stuck"``
        (overwrite the element with ``stuck_value``) for memory
        targets; ``"stall"`` (sleep ``stall_s``) or ``"raise"`` (raise
        :class:`~repro.errors.InjectedFault`) for the serve target.
    frames:
        Frame indices at which the plan fires (0-based; for sim
        ``state`` injection these are kernel-launch indices, which
        coincide with frame indices for the non-grouped levels).
    flips:
        Faults injected per firing (memory targets).
    stuck_value:
        Value written by ``"stuck"`` mode.
    stall_s:
        Sleep duration of a serve-layer ``"stall"``.
    buffer:
        Optional substring filter restricting sim-memory injection to
        matching buffer names (e.g. ``"gaussians"``); ``None`` targets
        every float (state-carrying) buffer.
    ecc:
        ``"off"`` — faults land; ``"on"`` — single-bit flips are
        corrected (counted in ``faults.corrected``, memory untouched),
        while ``"stuck"`` elements differ in many bits, which SECDED
        detects but cannot correct: the injector raises
        :class:`~repro.errors.IntegrityError`, the simulated analogue
        of a double-bit-error machine check.
    seed:
        Seed for the injector's deterministic RNG.
    """

    target: str = "state"
    mode: str = "bitflip"
    frames: tuple[int, ...] = ()
    flips: int = 1
    stuck_value: float = 0.0
    stall_s: float = 0.05
    buffer: str | None = None
    ecc: str = "off"
    seed: int = 0

    def __post_init__(self) -> None:
        if self.target not in FAULT_TARGETS:
            raise ConfigError(
                f"target must be one of {FAULT_TARGETS}, got {self.target!r}"
            )
        if self.mode not in FAULT_MODES:
            raise ConfigError(
                f"mode must be one of {FAULT_MODES}, got {self.mode!r}"
            )
        allowed = (
            _SERVE_FAULT_MODES if self.target == "serve"
            else _MEMORY_FAULT_MODES
        )
        if self.mode not in allowed:
            raise ConfigError(
                f"mode {self.mode!r} is not valid for target "
                f"{self.target!r}; expected one of {allowed}"
            )
        if self.ecc not in ECC_MODES:
            raise ConfigError(
                f"ecc must be one of {ECC_MODES}, got {self.ecc!r}"
            )
        frames = tuple(int(f) for f in self.frames)
        if any(f < 0 for f in frames):
            raise ConfigError(f"frames must be non-negative, got {frames}")
        object.__setattr__(self, "frames", frames)
        if self.flips < 1:
            raise ConfigError(f"flips must be >= 1, got {self.flips}")
        if not self.stall_s > 0.0:
            raise ConfigError(f"stall_s must be positive, got {self.stall_s}")

    def replace(self, **kwargs) -> "FaultPlan":
        """Return a copy with the given fields replaced."""
        return dataclasses.replace(self, **kwargs)


#: Integrity-guard modes for the mixture-state validator.
INTEGRITY_MODES = ("off", "detect", "repair")


@dataclass(frozen=True)
class IntegrityPolicy:
    """How the mixture-state integrity guard reacts to corruption.

    The guard (:class:`repro.faults.IntegrityGuard`) validates the MoG
    invariants that hold under the pinned update equations: all fields
    finite; every weight in ``[0, 1]`` and every pixel's weight sum in
    ``(0, K]`` (this implementation follows the paper and does not
    renormalise, so the sum is bounded by the component count rather
    than pinned to 1); every standard deviation at or above the clamp
    floor and below ``sd_cap``; every mean within ``mean_cap``. A soft
    error in an exponent bit violates at least one of these.

    Attributes
    ----------
    mode:
        ``"off"`` — no checking; ``"detect"`` — a violation raises
        :class:`~repro.errors.IntegrityError` (which a pipeline running
        ``on_error="degrade"`` absorbs as a degraded frame);
        ``"repair"`` — corrupted pixels' Gaussians are re-initialised
        from the current frame (the per-pixel analogue of
        :meth:`~repro.mog.params.MixtureState.from_first_frame`), so
        only the flagged pixels lose history and their masks re-converge
        within the model's warm-up horizon.
    check_every:
        Validate every Nth frame (1 = every frame). Corruption landing
        between checks is caught at the next boundary.
    weight_tol:
        Absolute tolerance on the weight-range and weight-sum bounds.
    sd_cap:
        Upper plausibility bound on standard deviations (the update
        equations keep sd near the data scale; an exponent-bit flip
        lands decades above it).
    mean_cap:
        Upper plausibility bound on ``|mean|`` (init spreads unclaimed
        components down to ``-1000*(K-1)``; keep the cap well above).
    """

    mode: str = "detect"
    check_every: int = 1
    weight_tol: float = 1e-5
    sd_cap: float = 1e6
    mean_cap: float = 1e6

    def __post_init__(self) -> None:
        if self.mode not in INTEGRITY_MODES:
            raise ConfigError(
                f"mode must be one of {INTEGRITY_MODES}, got {self.mode!r}"
            )
        if self.check_every < 1:
            raise ConfigError(
                f"check_every must be >= 1, got {self.check_every}"
            )
        if not self.weight_tol > 0.0:
            raise ConfigError(
                f"weight_tol must be positive, got {self.weight_tol}"
            )
        if not self.sd_cap > 0.0 or not self.mean_cap > 0.0:
            raise ConfigError("sd_cap and mean_cap must be positive")

    @property
    def active(self) -> bool:
        """Whether any checking happens at all."""
        return self.mode != "off"

    def replace(self, **kwargs) -> "IntegrityPolicy":
        """Return a copy with the given fields replaced."""
        return dataclasses.replace(self, **kwargs)


#: Backpressure policies for a stream's bounded input queue.
BACKPRESSURE_POLICIES = ("block", "drop_oldest", "reject")

#: Stream -> shard placement strategies for the sharded server.
PLACEMENT_POLICIES = ("hash", "round_robin")

#: Load-shedding policies applied at the sharded ingest gateway when a
#: stream's in-flight depth exceeds ``shed_inflight``.
SHED_POLICIES = ("reject", "drop")

#: What admission does when ``resume=True`` finds a checkpoint it
#: cannot restore (corrupt, truncated, or written by a differently
#: configured model).
RESUME_MISMATCH_POLICIES = ("fail", "fresh")


@dataclass(frozen=True)
class ControllerConfig:
    """Closed-loop degradation/recovery governor for the serving tier.

    The controller (:class:`repro.serve.controller.ServerController`)
    evaluates each stream at frame-count window boundaries and walks a
    per-stream *rung ladder* — baseline, relaxed integrity/profiling
    guards, pass-stack downshifts along ``level_ladder``, a model
    switch to ``model_fallback`` where the stream's scenario tolerates
    it per the committed quality matrix, and finally load shedding —
    one rung per decision, with hysteresis on the way back up. The
    policy is a pure function of windowed telemetry deltas: no
    wall-clock, no randomness, so chaos tests can pin exact transition
    sequences.

    Attributes
    ----------
    window_frames:
        Evaluate a stream every N completed frames (the telemetry
        window size; all deltas and rates are per this many frames).
    queue_high:
        Hot-watermark fraction of ``queue_capacity``: a window whose
        boundary queue depth is at or above ``ceil(queue_high *
        capacity)`` counts toward degradation.
    queue_low:
        Cool-watermark fraction: recovery requires depth at or below
        ``floor(queue_low * capacity)``. Must be strictly below
        ``queue_high`` — the gap is the hysteresis band.
    degrade_after:
        Consecutive hot windows before moving one rung down.
    recover_after:
        Consecutive cool windows before moving one rung back up
        (usually larger than ``degrade_after`` so recovery is the
        cautious direction).
    level_ladder:
        Pass-stack downshift sequence, best-first. A stream whose base
        level appears in the ladder only descends to the entries after
        it (base ``"F"`` with the default ladder downshifts to ``"D"``
        then ``"A"``); a base level outside the ladder descends through
        the whole ladder.
    model_fallback:
        Cheap model family to switch to under sustained overload
        (``None`` disables the rung). The switch is offered only to
        streams tagged with a ``scenario`` whose quality-matrix row
        shows the fallback holding F1 within ``model_margin`` of the
        base model; untagged streams and unknown scenarios never
        switch.
    model_margin:
        Maximum F1 the fallback may lose versus the base model before
        the scenario is deemed intolerant.
    quality_matrix:
        Path to ``QUALITY_MATRIX.json``; ``None`` auto-locates the
        committed matrix next to the bench snapshot. A missing or
        unreadable matrix conservatively disables model switches.
    guard_relax:
        Multiplier applied to ``check_every``/``profile_every`` on the
        guard-relax rung (0 or 1 disables the rung). Integrity signals
        (``integrity.violations``/``faults.corrected`` deltas) force
        this rung back to baseline regardless of load.
    allow_shed:
        Whether the last rung may shed: overflow frames on a full
        queue are dropped and counted (``frames_shed``) instead of
        engaging backpressure, so the stream keeps emitting.
    max_log:
        Upper bound on retained transition-log entries (the log is a
        ring; counters are unaffected).
    """

    window_frames: int = 32
    queue_high: float = 0.75
    queue_low: float = 0.25
    degrade_after: int = 1
    recover_after: int = 2
    level_ladder: tuple[str, ...] = ("F", "D", "A")
    model_fallback: str | None = "dmsg"
    model_margin: float = 0.05
    quality_matrix: str | None = None
    guard_relax: int = 4
    allow_shed: bool = True
    max_log: int = 1024

    def __post_init__(self) -> None:
        if self.window_frames < 1:
            raise ConfigError(
                f"window_frames must be >= 1, got {self.window_frames}"
            )
        if not 0.0 <= self.queue_low < self.queue_high <= 1.0:
            raise ConfigError(
                "need 0 <= queue_low < queue_high <= 1, got "
                f"queue_low={self.queue_low}, queue_high={self.queue_high}"
            )
        if self.degrade_after < 1:
            raise ConfigError(
                f"degrade_after must be >= 1, got {self.degrade_after}"
            )
        if self.recover_after < 1:
            raise ConfigError(
                f"recover_after must be >= 1, got {self.recover_after}"
            )
        ladder = tuple(str(entry) for entry in self.level_ladder)
        if not ladder:
            raise ConfigError("level_ladder must not be empty")
        if len(set(ladder)) != len(ladder):
            raise ConfigError(
                f"level_ladder entries must be unique, got {ladder}"
            )
        if any(not entry for entry in ladder):
            raise ConfigError("level_ladder entries must be non-empty")
        object.__setattr__(self, "level_ladder", ladder)
        if self.model_fallback is not None and self.model_fallback not in MODELS:
            raise ConfigError(
                f"model_fallback must be one of {MODELS}, "
                f"got {self.model_fallback!r}"
            )
        if self.model_margin < 0.0:
            raise ConfigError(
                f"model_margin must be >= 0, got {self.model_margin}"
            )
        if self.guard_relax < 1:
            raise ConfigError(
                f"guard_relax must be >= 1, got {self.guard_relax}"
            )
        if self.max_log < 1:
            raise ConfigError(f"max_log must be >= 1, got {self.max_log}")

    def replace(self, **kwargs) -> "ControllerConfig":
        """Return a copy with the given fields replaced."""
        return dataclasses.replace(self, **kwargs)


@dataclass(frozen=True)
class ServeConfig:
    """Multi-stream server knobs (:class:`repro.serve.StreamServer`).

    Attributes
    ----------
    workers:
        Threads in the shared worker pool. Each worker processes one
        stream's batch at a time; streams are strictly serialised, so
        any ``workers >= 1`` produces per-stream masks identical to a
        serial run.
    max_streams:
        Admission limit: registering more streams raises
        :class:`~repro.errors.ConfigError`.
    queue_capacity:
        Bounded depth of each stream's input queue. A full queue
        engages ``backpressure``.
    backpressure:
        What :meth:`~repro.serve.StreamServer.submit` does when the
        stream's queue is full:

        * ``"block"`` (default) — wait up to ``submit_timeout_s`` for
          space, then raise :class:`~repro.errors.BackpressureError`;
        * ``"drop_oldest"`` — evict the oldest queued frame (counted
          in ``stream.<id>.frames_dropped``) and admit the new one;
        * ``"reject"`` — raise
          :class:`~repro.errors.BackpressureError` immediately.
    batch_frames:
        Frames a worker takes from one stream per scheduling turn
        before the round-robin cursor advances — bounds how long a hot
        stream can hold a worker.
    submit_timeout_s:
        Upper bound on a ``"block"`` submit.
    drain_timeout_s:
        Default upper bound on :meth:`~repro.serve.StreamServer.drain`.
    checkpoint_every:
        Write a durable checkpoint of each stream's pipeline every N
        completed frames (0 = disabled). Requires ``checkpoint_dir``.
        Checkpoints are atomic write-rename files named
        ``<stream_id>.ckpt``.
    checkpoint_dir:
        Directory holding the per-stream checkpoint files (created on
        demand).
    resume:
        When a stream is registered and ``<checkpoint_dir>/<id>.ckpt``
        exists, restore the pipeline from it before serving; a corrupt
        or mismatched checkpoint raises
        :class:`~repro.errors.CheckpointError` at ``add_stream``.
    backend:
        Default execution backend for the per-stream pipelines (one of
        :data:`BACKENDS`); ``None`` keeps the server's default
        (``"cpu"``). ``"jit"`` is an alias of ``"cpu"``.
    model:
        Default background-model family for the per-stream pipelines
        (one of :data:`MODELS`); ``None`` keeps the server's default
        (``"mog"``). Individual streams can override it at
        ``add_stream(model=...)`` so one server (or shard) serves
        mixed quality tiers.
    resume_mismatch:
        What admission does when ``resume=True`` finds a checkpoint it
        cannot restore: ``"fail"`` (default) raises
        :class:`~repro.errors.CheckpointError`; ``"fresh"`` starts the
        stream from scratch and records the reason in stream status
        and the ``server.resume_fallbacks`` counter.
    shards:
        Shard *processes* for :class:`repro.serve.ShardedStreamServer`
        (0 = the in-process thread server). Each shard hosts one
        thread-pool ``StreamServer``; streams are placed on shards by
        ``placement`` and frames travel over shared-memory rings.
    shard_backend:
        Backend override for pipelines inside shard processes;
        ``None`` falls back to ``backend``.
    placement:
        Stream->shard placement: ``"hash"`` (consistent hashing with
        virtual nodes; minimal movement when a shard dies) or
        ``"round_robin"``.
    shed_inflight:
        Gateway admission control: maximum frames in flight (submitted
        but not yet emitted) per stream before ``shed_policy`` engages
        (0 = unlimited).
    shed_policy:
        ``"reject"`` raises :class:`~repro.errors.BackpressureError`
        when a stream is over ``shed_inflight``; ``"drop"`` discards
        the new frame (counted in ``server.frames_shed``).
    ring_slots:
        Capacity, in frames, of each shard's shared-memory ingest
        ring.
    controller:
        Optional :class:`ControllerConfig` enabling the closed-loop
        degradation/recovery governor on each server (in sharded mode
        the config rides into every shard, so each shard governs its
        own streams).
    """

    workers: int = 2
    max_streams: int = 64
    queue_capacity: int = 8
    backpressure: str = "block"
    batch_frames: int = 1
    submit_timeout_s: float = 30.0
    drain_timeout_s: float = 60.0
    checkpoint_every: int = 0
    checkpoint_dir: str | None = None
    resume: bool = False
    backend: str | None = None
    model: str | None = None
    resume_mismatch: str = "fail"
    shards: int = 0
    shard_backend: str | None = None
    placement: str = "hash"
    shed_inflight: int = 0
    shed_policy: str = "reject"
    ring_slots: int = 32
    controller: "ControllerConfig | None" = None

    def __post_init__(self) -> None:
        if self.backend is not None and self.backend not in BACKENDS:
            raise ConfigError(
                f"backend must be one of {BACKENDS}, got {self.backend!r}"
            )
        if self.model is not None and self.model not in MODELS:
            raise ConfigError(
                f"model must be one of {MODELS}, got {self.model!r}"
            )
        if self.workers < 1:
            raise ConfigError(f"workers must be >= 1, got {self.workers}")
        if self.max_streams < 1:
            raise ConfigError(
                f"max_streams must be >= 1, got {self.max_streams}"
            )
        if self.queue_capacity < 1:
            raise ConfigError(
                f"queue_capacity must be >= 1, got {self.queue_capacity}"
            )
        if self.backpressure not in BACKPRESSURE_POLICIES:
            raise ConfigError(
                f"backpressure must be one of {BACKPRESSURE_POLICIES}, "
                f"got {self.backpressure!r}"
            )
        if self.batch_frames < 1:
            raise ConfigError(
                f"batch_frames must be >= 1, got {self.batch_frames}"
            )
        for name in ("submit_timeout_s", "drain_timeout_s"):
            value = getattr(self, name)
            if not value > 0.0:
                raise ConfigError(f"{name} must be positive, got {value}")
        if self.checkpoint_every < 0:
            raise ConfigError(
                f"checkpoint_every must be >= 0, got {self.checkpoint_every}"
            )
        if (self.checkpoint_every or self.resume) and not self.checkpoint_dir:
            raise ConfigError(
                "checkpoint_every/resume require checkpoint_dir to be set"
            )
        if self.resume_mismatch not in RESUME_MISMATCH_POLICIES:
            raise ConfigError(
                f"resume_mismatch must be one of {RESUME_MISMATCH_POLICIES}, "
                f"got {self.resume_mismatch!r}"
            )
        if self.shards < 0:
            raise ConfigError(f"shards must be >= 0, got {self.shards}")
        if self.shard_backend is not None and self.shard_backend not in BACKENDS:
            raise ConfigError(
                f"shard_backend must be one of {BACKENDS}, "
                f"got {self.shard_backend!r}"
            )
        if self.placement not in PLACEMENT_POLICIES:
            raise ConfigError(
                f"placement must be one of {PLACEMENT_POLICIES}, "
                f"got {self.placement!r}"
            )
        if self.shed_inflight < 0:
            raise ConfigError(
                f"shed_inflight must be >= 0, got {self.shed_inflight}"
            )
        if self.shed_policy not in SHED_POLICIES:
            raise ConfigError(
                f"shed_policy must be one of {SHED_POLICIES}, "
                f"got {self.shed_policy!r}"
            )
        if self.ring_slots < 2:
            raise ConfigError(
                f"ring_slots must be >= 2, got {self.ring_slots}"
            )
        if self.controller is not None and not isinstance(
            self.controller, ControllerConfig
        ):
            raise ConfigError(
                "controller must be a ControllerConfig or None, "
                f"got {type(self.controller).__name__}"
            )

    def replace(self, **kwargs) -> "ServeConfig":
        """Return a copy with the given fields replaced."""
        return dataclasses.replace(self, **kwargs)


#: Default latency-histogram bucket upper bounds, in seconds
#: (1 ms .. 30 s, roughly x3 steps — spans a per-stage frame budget
#: from real-time HD to a struggling debug run).
DEFAULT_LATENCY_BUCKETS_S = (
    0.001, 0.003, 0.01, 0.03, 0.1, 0.3, 1.0, 3.0, 10.0, 30.0,
)


@dataclass(frozen=True)
class TelemetryConfig:
    """Observability knobs for the serving path.

    Attributes
    ----------
    enabled:
        When ``False``, registries hand out no-op instruments and
        snapshots are empty — zero overhead on the hot path.
    latency_buckets_s:
        Ascending upper bounds (seconds) of the latency-histogram
        buckets.
    """

    enabled: bool = True
    latency_buckets_s: tuple[float, ...] = DEFAULT_LATENCY_BUCKETS_S

    def __post_init__(self) -> None:
        buckets = tuple(float(b) for b in self.latency_buckets_s)
        if not buckets:
            raise ConfigError("latency_buckets_s must not be empty")
        if any(b <= 0 for b in buckets) or list(buckets) != sorted(set(buckets)):
            raise ConfigError(
                "latency_buckets_s must be positive and strictly "
                f"ascending, got {self.latency_buckets_s}"
            )
        object.__setattr__(self, "latency_buckets_s", buckets)

    def replace(self, **kwargs) -> "TelemetryConfig":
        """Return a copy with the given fields replaced."""
        return dataclasses.replace(self, **kwargs)
