"""Compiled background model: runs :mod:`repro.kernels.jit` kernels.

:class:`MoGJit` is interface-compatible with
:class:`~repro.mog.vectorized.MoGVectorized` (``apply`` /
``apply_sequence`` / ``background_image`` / ``state_snapshot`` /
``restore_state`` / integrity guarding), but executes the per-pixel
kernel the JIT emitter renders from a :class:`~repro.kernels.ir.KernelSpec`
— so it speaks the same pass-stack vocabulary as the simulator and the
CUDA generator, including fused threshold/shadow/histogram tails
(exposed as :attr:`last_shadow` / :attr:`last_classes`).

The model family comes from the spec (``spec.model``): a DMSG spec
compiles the dual-mode single Gaussian kernel and initialises DMSG
state; the class name predates model families and is kept for the many
existing callers.

One behavioural difference from the vectorized model, by design: the
compiled kernel updates the mixture planes **in place** (that is the
point — no per-frame allocation), so :meth:`state_snapshot` returns
*copies* rather than live references. Checkpoint consumers already
treat snapshots as opaque values, so the stronger guarantee is free.
"""

from __future__ import annotations

import numpy as np

from ..config import FusionParams, MoGParams, resolve_dtype
from ..errors import ConfigError, JitUnavailableError
from ..kernels.common import KernelConfig
from ..kernels.ir import BASE_SPEC, KernelSpec
from ..kernels.jit import (
    cached_kernel_count,
    const_args,
    get_kernel,
    numba_available,
    numba_unavailable_reason,
)
from ..utils.arrays import check_model_frame
from .params import MixtureState

__all__ = ["MoGJit", "JIT_ENGINES"]

#: ``engine=`` values :class:`MoGJit` accepts. ``"auto"`` resolves to
#: ``"numba"`` or raises :class:`~repro.errors.JitUnavailableError`;
#: ``"python"`` runs the emitted source interpreted (slow, test-only).
JIT_ENGINES = ("auto", "numba", "python")


class MoGJit:
    """Background-model processor running an emitter-compiled per-pixel
    kernel (the family — MoG or DMSG — comes from ``spec.model``).

    Parameters
    ----------
    shape:
        Frame geometry ``(height, width)``.
    params:
        Algorithmic parameters (defaults to :class:`MoGParams`).
    spec:
        The :class:`~repro.kernels.ir.KernelSpec` to compile (defaults
        to :data:`~repro.kernels.ir.BASE_SPEC`). Layout/overlap/tiling
        axes are GPU memory-residency choices with no CPU analogue and
        are ignored; update/sort/scan/fused drive the emitted code.
    dtype:
        ``"double"`` (default) or ``"float"``.
    fusion:
        :class:`~repro.config.FusionParams` for the fused tail
        constants (defaults used when omitted).
    engine:
        One of :data:`JIT_ENGINES`. ``"auto"`` (default) requires
        numba and raises :class:`JitUnavailableError` when it is
        missing — callers that can degrade catch this.
    cache:
        Optional :class:`~repro.kernels.jit.KernelCache` override;
        defaults to the process-wide cache (compile once per
        (spec, dtype, shape) across every model in the process).
    """

    def __init__(
        self,
        shape: tuple[int, int],
        params: MoGParams | None = None,
        spec: KernelSpec | None = None,
        dtype: str | np.dtype = "double",
        fusion: FusionParams | None = None,
        integrity=None,
        telemetry=None,
        engine: str = "auto",
        cache=None,
    ) -> None:
        if engine not in JIT_ENGINES:
            raise ConfigError(
                f"unknown jit engine {engine!r}; expected one of {JIT_ENGINES}"
            )
        self.shape = tuple(shape)
        if len(self.shape) != 2 or min(self.shape) <= 0:
            raise ConfigError(f"invalid frame shape {shape}")
        self.params = params or MoGParams()
        self.spec = (spec or BASE_SPEC).validate()
        self.model = self.spec.model
        self._k_count = self.model.component_count(self.params)
        self.dtype = resolve_dtype(dtype)
        self.state: MixtureState | None = None
        self.frames_processed = 0
        self._telemetry = telemetry
        self._guard = None
        if integrity is not None and integrity.active:
            from ..faults.integrity import IntegrityGuard

            self._guard = IntegrityGuard(
                integrity, self.params, telemetry=telemetry,
                model=self.model.name,
            )

        if engine == "auto":
            if not numba_available():
                raise JitUnavailableError(
                    numba_unavailable_reason() or "numba is not available"
                )
            engine = "numba"
        self.engine = engine

        cfg = KernelConfig.from_params(
            self.params, self.dtype, fusion, model=self.model
        )
        self._consts = const_args(cfg)
        # Compile (or fetch) eagerly so the cost lands at construction,
        # not on the first frame — measure_fps excludes warmup.
        if cache is not None:
            self._kernel = cache.get(
                self.spec, self._k_count, self.dtype,
                self.shape, engine=engine,
            )
        else:
            self._kernel = get_kernel(
                self.spec, self._k_count, self.dtype,
                self.shape, engine=engine,
            )
        self.compile_s = self._kernel.compile_s
        n = self.num_pixels
        self._fg = np.zeros(n, dtype=np.uint8)
        self._shadow = np.zeros(n, dtype=np.uint8)
        self._classes = np.zeros(n, dtype=np.uint8)
        if telemetry is not None:
            g = telemetry.gauge("jit.compile_s")
            g.set(g.value + self.compile_s)
            telemetry.gauge("jit.kernels_cached").set(cached_kernel_count())

    @property
    def num_pixels(self) -> int:
        return self.shape[0] * self.shape[1]

    @property
    def fused(self) -> tuple[str, ...]:
        return self.spec.fused

    def apply(self, frame: np.ndarray) -> np.ndarray:
        """Process one frame; returns the boolean foreground mask.

        With fused stages on the spec, the mask is the post-
        threshold/shadow foreground (bit-identical to the cpu backend's
        fused chain) and :attr:`last_shadow` / :attr:`last_classes`
        hold the other fused outputs for this frame.
        """
        x = check_model_frame(frame, self.shape, self.dtype)
        if self.state is None:
            if self.model.name == "dmsg":
                from ..dmsg import dmsg_state_from_first_frame

                self.state = dmsg_state_from_first_frame(
                    frame, self.params, self.dtype
                )
            else:
                self.state = MixtureState.from_first_frame(
                    frame, self.params, self.dtype
                )
        elif self._guard is not None:
            self._guard.check(self.state, x, self.frames_processed)
        st = self.state
        if self.engine == "numba":
            # error_model="numpy" inside the dispatcher handles the
            # by-design oma/0 division for zero-weight components.
            self._kernel.fn(
                x, st.w, st.m, st.sd,
                self._fg, self._shadow, self._classes, *self._consts,
            )
        else:
            with np.errstate(divide="ignore"):
                self._kernel.fn(
                    x, st.w, st.m, st.sd,
                    self._fg, self._shadow, self._classes, *self._consts,
                )
        self.frames_processed += 1
        if self._telemetry is not None:
            self._telemetry.counter("jit.frames").inc()
        return (self._fg != 0).reshape(self.shape)

    def apply_sequence(self, frames) -> np.ndarray:
        """Process an iterable of frames; returns a ``(T, H, W)`` bool
        stack of foreground masks."""
        masks = [self.apply(f) for f in frames]
        if not masks:
            raise ConfigError("empty frame sequence")
        return np.stack(masks)

    @property
    def last_shadow(self) -> np.ndarray:
        """Shadow map (uint8, 255=shadow) from the last fused frame."""
        return self._shadow.reshape(self.shape).copy()

    @property
    def last_classes(self) -> np.ndarray:
        """Class map (uint8, background=0/shadow=1/foreground=2) from
        the last fused frame."""
        return self._classes.reshape(self.shape).copy()

    def background_image(self) -> np.ndarray:
        """Most-probable background estimate (see Table IV)."""
        if self.state is None:
            raise ConfigError("no frame processed yet")
        return self.state.background_image(self.shape)

    # -- checkpoint / restore ------------------------------------------
    def state_snapshot(self):
        """Picklable snapshot ``(w, m, sd, frames_processed)`` or
        ``None`` before the first frame.

        Unlike :meth:`MoGVectorized.state_snapshot` the arrays are
        **copies**: the compiled kernel mutates the state planes in
        place each frame, so handing out live references would let a
        checkpoint silently drift while the model keeps running.
        """
        if self.state is None:
            return None
        return (
            self.state.w.copy(), self.state.m.copy(), self.state.sd.copy(),
            self.frames_processed,
        )

    def restore_state(self, snapshot) -> None:
        """Restore a :meth:`state_snapshot`, resuming the model exactly
        where the snapshot was taken. ``None`` resets to pre-first-frame."""
        if snapshot is None:
            self.state = None
            self.frames_processed = 0
            return
        w, m, sd, frames_processed = snapshot
        expected = (self._k_count, self.num_pixels)
        for arr in (w, m, sd):
            if np.asarray(arr).shape != expected:
                raise ConfigError(
                    f"snapshot array shape {np.asarray(arr).shape} does "
                    f"not match model state shape {expected}"
                )
        self.state = MixtureState(
            np.array(w, dtype=self.dtype, copy=True),
            np.array(m, dtype=self.dtype, copy=True),
            np.array(sd, dtype=self.dtype, copy=True),
        )
        self.frames_processed = int(frames_processed)
