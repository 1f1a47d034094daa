"""The top-level :class:`BackgroundSubtractor` facade.

Three backend spellings:

* ``backend="cpu"`` — the practical path, no simulation: the in-place
  engine of the selected model family (:mod:`repro.cpu.engine`) at MoG
  levels D-G and every DMSG level, whose per-pixel update runs as C
  compiled from the :mod:`repro.cudagen` fragments
  (:mod:`repro.cpu.native`; the NumPy block loop without a compiler).
  The sorted MoG levels A-C run the vectorized oracle.
  ``report()`` is not available.
* ``backend="jit"`` — an alias of ``cpu``, kept so existing
  configurations keep working.
* ``backend="sim"`` — the paper-reproduction path: the chosen
  optimization level runs on the simulated Tesla C2075 and every frame
  is profiled (counters, occupancy, modelled time).

All backends produce identical foreground masks for the same
optimization level (enforced by tests), because the kernels and the
vectorized variants implement the same pinned semantics.
"""

from __future__ import annotations

import numpy as np

from ..config import BACKENDS, FusionParams, MoGParams, RunConfig
from ..cpu.engine import ENGINE_VARIANTS, DmsgEngine, MoGEngine
from ..errors import ConfigError
from ..gpusim.calibration import DEFAULT_CALIBRATION, Calibration
from ..gpusim.device import TESLA_C2075, DeviceSpec
from ..kernels import KernelConfig
from ..kernels.ir import MOG_FAMILY
from ..mog.vectorized import MoGVectorized
from ..post.analytics import (
    occupancy_heatmap,
    record_fused_telemetry,
    region_counts,
    run_fused_stages,
)
from .pipeline import HostPipeline
from .results import RunReport
from .variants import LevelSpec, OptimizationLevel, resolve_level_spec


class BackgroundSubtractor:
    """Background subtraction with selectable model family and
    optimization level.

    Parameters
    ----------
    shape:
        Frame geometry ``(height, width)``.
    params:
        Algorithmic parameters (:class:`~repro.config.MoGParams`).
    level:
        Optimization level ``"A"``..``"G"`` (or an
        :class:`OptimizationLevel`), a custom
        :class:`~repro.core.variants.LevelSpec`, or a pass expression
        such as ``"A+predication"``; selects kernel, layout and
        pipeline behaviour. Functionally, A-C produce the ``sorted``
        variant's masks, D/E the same masks, F/G the ``regopt``
        variant's.  A string level may carry a model prefix
        (``"dmsg:F"``).
    model:
        Background-model family: ``"mog"`` (default; the paper's
        mixture of Gaussians) or ``"dmsg"`` (dual-mode single
        Gaussian — one background mode plus an age-gated candidate;
        cheaper per pixel). ``None`` takes ``run_config.model`` when
        set, else the level designator's prefix, else ``"mog"``. An
        explicit ``model`` must agree with the level's prefix.
    backend:
        ``"cpu"`` (CPU engine, compiled per-pixel kernels), ``"jit"``
        (an alias of ``"cpu"``) or ``"sim"`` (simulated GPU). ``None``
        (default) takes ``run_config.backend`` when set, else ``"sim"``.
    run_config, device, calibration, registers:
        Simulation knobs; the CPU backend reads only
        ``run_config.dtype`` (and ``run_config.backend``).
    profile_every:
        Override ``run_config.profile_every`` for the simulated
        backend: profile every Nth launch, run the rest on the
        functional tier (exact masks, no counters). ``None`` keeps the
        run config's value.
    telemetry:
        Optional :class:`~repro.telemetry.MetricsRegistry` receiving
        ``sim.frames_profiled`` / ``sim.frames_functional`` counters
        and the ``sim.profile_every`` gauge (and, when integrity or
        fault injection is active, their event counters).
    integrity:
        Optional :class:`~repro.config.IntegrityPolicy`; when active,
        mixture-state invariants are checked each frame before
        classification (see :class:`repro.faults.IntegrityGuard`).
    fault_injector:
        Optional :class:`repro.faults.FaultInjector` threaded into the
        backend (CPU model state / sim memory and DMA hooks). Testing
        aid; ``None`` in production.

    Examples
    --------
    >>> bs = BackgroundSubtractor((64, 64), backend="cpu")
    >>> mask = bs.apply(np.zeros((64, 64), dtype=np.uint8))
    >>> mask.shape
    (64, 64)
    """

    def __init__(
        self,
        shape: tuple[int, int],
        params: MoGParams | None = None,
        level: OptimizationLevel | LevelSpec | str = OptimizationLevel.F,
        model: str | None = None,
        backend: str | None = None,
        run_config: RunConfig | None = None,
        device: DeviceSpec = TESLA_C2075,
        calibration: Calibration = DEFAULT_CALIBRATION,
        registers: str | int = "pinned",
        profile_every: int | None = None,
        telemetry=None,
        integrity=None,
        fault_injector=None,
        post_stages=(),
        fusion: FusionParams | None = None,
    ) -> None:
        if backend is None:
            backend = (
                run_config.backend
                if run_config is not None and run_config.backend
                else "sim"
            )
        if backend not in BACKENDS:
            raise ConfigError(
                f"backend must be one of {BACKENDS}, got {backend!r}"
            )
        self.shape = tuple(shape)
        self.params = params or MoGParams()
        if model is None and run_config is not None:
            model = run_config.model
        self.spec = resolve_level_spec(level, model=model)
        self.model = self.spec.model
        # Paper levels keep the enum identity (``bs.level is
        # OptimizationLevel.F``) for the default MoG family; custom
        # pass stacks and non-MoG families expose the spec.
        self.level: OptimizationLevel | LevelSpec = (
            OptimizationLevel[self.spec.letter]
            if self.spec.letter in OptimizationLevel.__members__
            and self.spec.model is MOG_FAMILY
            else self.spec
        )
        self.backend = backend
        #: What actually runs: ``"jit"`` is an alias of ``"cpu"``.
        self.active_backend = "cpu" if backend == "jit" else backend
        self._fault_injector = fault_injector
        self._telemetry = telemetry
        #: Seconds spent compiling kernels at construction (0.0 on a
        #: warm-cache hit and on the paths without compiled kernels).
        self.compile_s = 0.0
        self._fusion_cfg = None
        self._last_mask = None
        self._last_shadow = None
        self._last_classes = None
        if self.active_backend == "cpu":
            if post_stages:
                raise ConfigError(
                    "post_stages (the unfused post-kernel baseline) is "
                    "a simulator feature; the CPU backend fuses via a "
                    "fused level spec"
                )
            dtype = run_config.dtype if run_config is not None else "double"
            if self.model.name == "dmsg":
                self._impl = DmsgEngine(
                    self.shape, self.params, dtype=dtype,
                    integrity=integrity, telemetry=telemetry,
                )
            elif self.spec.oracle_variant in ENGINE_VARIANTS:
                self._impl = MoGEngine(
                    self.shape, self.params, dtype=dtype,
                    integrity=integrity, telemetry=telemetry,
                )
            else:
                self._impl = MoGVectorized(
                    self.shape, self.params,
                    variant=self.spec.oracle_variant, dtype=dtype,
                    integrity=integrity, telemetry=telemetry,
                )
            self.compile_s = getattr(self._impl, "compile_s", 0.0)
            if self.spec.kernel.fused:
                # The CPU mirror of the fused tail: same expressions,
                # same run dtype, applied right after the model update.
                self._fusion_cfg = KernelConfig.from_params(
                    self.params, dtype, fusion=fusion,
                    model=self.model,
                )
            self._pipeline = None
        else:
            if profile_every is not None:
                base = run_config or RunConfig(
                    height=self.shape[0], width=self.shape[1]
                )
                run_config = base.replace(profile_every=profile_every)
            self._pipeline = HostPipeline(
                self.shape, self.params, self.spec,
                run_config=run_config, device=device,
                calibration=calibration, registers=registers,
                telemetry=telemetry, integrity=integrity,
                fault_injector=fault_injector,
                post_stages=post_stages, fusion=fusion,
            )
            self._impl = None

    @property
    def compiled(self) -> bool:
        """Whether the model update runs as a compiled kernel (the CPU
        engines with a C compiler available)."""
        return bool(getattr(self._impl, "compiled", False))

    # ------------------------------------------------------------------
    def apply(self, frame: np.ndarray) -> np.ndarray:
        """Process one frame; returns the boolean foreground mask."""
        if self._impl is not None:
            if self._fault_injector is not None:
                self._fault_injector.on_model_state(
                    self._impl.state, self._impl.frames_processed
                )
            mask = self._impl.apply(frame)
            if self._fusion_cfg is not None:
                mask = self._apply_fused_post(frame, mask)
            return mask
        return self._pipeline.apply(frame)

    def _apply_fused_post(self, frame, mask) -> np.ndarray:
        """CPU mirror of the fused kernel tail (NumPy oracle)."""
        st = self._impl.state
        result = run_fused_stages(
            np.asarray(frame), st.w, st.m, mask,
            self.spec.kernel.fused, self._fusion_cfg,
        )
        self._last_mask = result.mask
        self._last_shadow = result.shadow
        self._last_classes = result.classes
        record_fused_telemetry(
            self._telemetry, result.mask,
            shadow=result.shadow, classes=result.classes,
        )
        return result.mask

    def process(self, frames) -> tuple[np.ndarray, RunReport | None]:
        """Process an iterable of frames.

        Returns ``(masks, report)``; ``report`` is ``None`` for the CPU
        backend.
        """
        if self._impl is not None:
            if self._fusion_cfg is not None:
                # apply_sequence bypasses the per-frame wrapper, so the
                # fused bookkeeping must run frame by frame here.
                return np.stack([self.apply(f) for f in list(frames)]), None
            return self._impl.apply_sequence(frames), None
        return self._pipeline.process(frames)

    # -- fused analytics ----------------------------------------------
    def shadow_map(self) -> np.ndarray:
        """Last frame's boolean shadow map (``shadow`` fused stage)."""
        if self._impl is not None:
            if self._last_shadow is None:
                raise ConfigError(
                    "no shadow map: use a level with the 'shadow' fused "
                    "stage and process a frame first"
                )
            return self._last_shadow
        return self._pipeline.shadow_map()

    def class_map(self) -> np.ndarray:
        """Last frame's uint8 class map (``histogram`` fused stage)."""
        if self._impl is not None:
            if self._last_classes is None:
                raise ConfigError(
                    "no class map: use a level with the 'histogram' "
                    "fused stage and process a frame first"
                )
            return self._last_classes
        return self._pipeline.class_map()

    def fused_analytics(self, grid: tuple[int, int] = (4, 4)) -> dict:
        """Region analytics of the last frame (occupancy heatmap and,
        with the ``histogram`` stage, per-region class counts)."""
        if self._impl is not None:
            if self._last_mask is None:
                raise ConfigError(
                    "no fused frame yet: use a fused level and process "
                    "a frame first"
                )
            out = {"occupancy": occupancy_heatmap(self._last_mask, grid)}
            if self._last_classes is not None:
                out["region_counts"] = region_counts(self._last_classes, grid)
            return out
        return self._pipeline.fused_analytics(grid)

    def report(self) -> RunReport:
        """The run report so far (simulated backend only)."""
        if self._pipeline is None:
            raise ConfigError(
                f"the {self.active_backend!r} backend does not produce "
                "run reports; use backend='sim'"
            )
        return self._pipeline.report()

    def background_image(self) -> np.ndarray:
        """Most-probable background estimate (Table IV's 'Background')."""
        if self._impl is not None:
            return self._impl.background_image()
        return self._pipeline.background_image()

    # -- checkpoint / restore ------------------------------------------
    def state_snapshot(self):
        """Uniform snapshot across backends: ``(w, m, sd, frames)`` or
        ``None`` before the first frame. The arrays never alias the
        running model: the CPU engines mutate state in place, so they
        copy; the sorted CPU levels' oracle rebinds its arrays each
        frame, so its live references stay valid; the sim backend
        downloads a copy from the simulated device."""
        if self._impl is not None:
            return self._impl.state_snapshot()
        return self._pipeline.state_snapshot()

    def restore_state(self, snapshot) -> None:
        """Restore a :meth:`state_snapshot` (either backend's); arrays
        are always copied into the backend's own storage."""
        if self._impl is not None:
            self._impl.restore_state(snapshot)
        else:
            self._pipeline.restore_state(snapshot)
