"""NumPy-vectorized dual-mode single Gaussian oracle.

The pinned update semantics every DMSG implementation (gpusim kernels,
jit kernels, CUDA text and the CPU engine
:class:`repro.cpu.engine.DmsgEngine` that ``backend="cpu"`` runs) is
validated bit-identical against. Per pixel and
frame, with background mode ``(a0, m0, s0)``, candidate ``(a1, m1, s1)``
and input intensity ``x``:

1. **Classify** against the pre-update background:
   ``d0 = |x - m0|``; the pixel is background iff ``d0 < Gamma1*s0``.
2. **Matched background** absorbs the sample with a capped running
   average: ``a0' = min(a0+1, age_cap)``, ``rho = 1/a0'``,
   ``m0' = (1-rho)*m0 + rho*x``,
   ``s0' = max(sqrt((1-rho)*s0^2 + rho*d0^2), sd_floor)``.
3. **Missed background** routes the sample to the candidate:
   if the candidate is live (``a1 > 0``) and matches
   (``|x - m1| < Gamma1*s1``) it absorbs the sample with the same
   running-average equations; otherwise it is **re-seeded**:
   ``a1 = 1``, ``m1 = x``, ``s1 = initial_sd``.
4. **Swap** when the candidate outlives the background
   (``a1 > a0``, checked after every update): the candidate becomes
   the background and the old background becomes an *empty* candidate
   (age 0) — the age-gated scene-change handover.

The variance update uses the exact two-term form
``(1-rho)*s*s + rho*d*d`` — the same floating-point expression as the
MoG update — so all implementations agree bit for bit. Step 3/4's
predicated forms blend with 0/1 multipliers, which is exactly equal to
the branchy selection for finite operands, so ``update="branchy"`` and
``update="predicated"`` kernels produce identical state and masks.

Parameters: DMSG reads ``match_threshold`` (Gamma1), ``initial_sd``
and ``sd_floor`` from :class:`~repro.config.MoGParams` and ignores the
mixture-only fields; the age cap is the fixed
:data:`~repro.config.DMSG_AGE_CAP`.
"""

from __future__ import annotations

import numpy as np

from ..config import DMSG_AGE_CAP, MoGParams, resolve_dtype
from ..errors import ConfigError
from ..mog.params import MixtureState
from .state import dmsg_state_from_first_frame

#: Algorithmic variants. DMSG has a single pinned form — the branchy /
#: predicated / no-sort distinctions that split MoG into four variants
#: all collapse to the same arithmetic here (see module docstring).
VARIANTS = ("dual",)


class DmsgVectorized:
    """Vectorized DMSG processor, mirroring
    :class:`repro.mog.MoGVectorized`'s interface.

    Parameters
    ----------
    shape:
        Frame geometry ``(height, width)``.
    params:
        Algorithmic parameters (defaults to :class:`MoGParams`; only
        ``match_threshold``, ``initial_sd`` and ``sd_floor`` are read).
    variant:
        Must be ``"dual"`` (kept for interface parity with the MoG
        oracle's four variants).
    dtype:
        ``"double"`` (default) or ``"float"`` for the mode state.
    """

    def __init__(
        self,
        shape: tuple[int, int],
        params: MoGParams | None = None,
        variant: str = "dual",
        dtype: str | np.dtype = "double",
        integrity=None,
        telemetry=None,
    ) -> None:
        if variant not in VARIANTS:
            raise ConfigError(
                f"unknown variant {variant!r}; expected one of {VARIANTS}"
            )
        self.shape = tuple(shape)
        if len(self.shape) != 2 or min(self.shape) <= 0:
            raise ConfigError(f"invalid frame shape {shape}")
        self.params = params or MoGParams()
        self.variant = variant
        self.dtype = resolve_dtype(dtype)
        self.state: MixtureState | None = None
        self.frames_processed = 0
        self._guard = None
        if integrity is not None and integrity.active:
            from ..faults.integrity import IntegrityGuard

            self._guard = IntegrityGuard(
                integrity, self.params, telemetry=telemetry, model="dmsg"
            )

    @property
    def num_pixels(self) -> int:
        return self.shape[0] * self.shape[1]

    def _check_frame(self, frame: np.ndarray) -> np.ndarray:
        """Validate and flatten a frame to the run dtype (same contract
        as the MoG oracle: integer/float input, finite after the cast)."""
        frame = np.asarray(frame)
        if frame.shape != self.shape:
            raise ConfigError(
                f"frame shape {frame.shape} != configured {self.shape}"
            )
        if frame.dtype.kind not in "uif":
            raise ConfigError(
                f"frame dtype must be integer or float, got {frame.dtype}"
            )
        flat = frame.reshape(-1).astype(self.dtype)
        if frame.dtype.kind == "f" and not np.isfinite(flat).all():
            raise ConfigError(
                f"frame contains non-finite values after cast to "
                f"{self.dtype} (NaN/inf would poison the mode state)"
            )
        return flat

    def apply(self, frame: np.ndarray) -> np.ndarray:
        """Process one frame; returns the boolean foreground mask."""
        x = self._check_frame(frame)
        if self.state is None:
            self.state = dmsg_state_from_first_frame(
                frame, self.params, self.dtype
            )
        elif self._guard is not None:
            self._guard.check(self.state, x, self.frames_processed)
        st = self.state
        dt = self.dtype.type
        gamma1 = dt(self.params.match_threshold)
        init_sd = dt(self.params.initial_sd)
        sd_floor = dt(self.params.sd_floor)
        age_cap = dt(DMSG_AGE_CAP)
        one = dt(1.0)
        zero = dt(0.0)

        a0, m0, s0 = st.w[0], st.m[0], st.sd[0]
        a1, m1, s1 = st.w[1], st.m[1], st.sd[1]

        # Step 1: classify against the pre-update background mode.
        d0 = np.abs(x - m0)
        matched_b = d0 < gamma1 * s0
        foreground = ~matched_b

        # Step 2: background running-average update where matched.
        agen0 = np.minimum(a0 + one, age_cap)
        rho0 = one / agen0
        m0u = (one - rho0) * m0 + rho0 * x
        var0 = (one - rho0) * (s0 * s0) + rho0 * (d0 * d0)
        s0u = np.maximum(np.sqrt(var0), sd_floor)
        a0n = np.where(matched_b, agen0, a0)
        m0n = np.where(matched_b, m0u, m0)
        s0n = np.where(matched_b, s0u, s0)

        # Step 3: the candidate absorbs (or re-seeds on) the misses.
        d1 = np.abs(x - m1)
        matched_c = (a1 > zero) & (d1 < gamma1 * s1)
        agen1 = np.minimum(a1 + one, age_cap)
        rho1 = one / agen1
        m1u = (one - rho1) * m1 + rho1 * x
        var1 = (one - rho1) * (s1 * s1) + rho1 * (d1 * d1)
        s1u = np.maximum(np.sqrt(var1), sd_floor)
        upd_c = foreground & matched_c
        reset_c = foreground & ~matched_c
        a1n = np.where(upd_c, agen1, np.where(reset_c, one, a1))
        m1n = np.where(upd_c, m1u, np.where(reset_c, x, m1))
        s1n = np.where(upd_c, s1u, np.where(reset_c, init_sd, s1))

        # Step 4: age-gated swap; the demoted background becomes an
        # empty candidate (age 0), preserving the a1 <= a0 invariant.
        swap = a1n > a0n
        a0f = np.where(swap, a1n, a0n)
        m0f = np.where(swap, m1n, m0n)
        s0f = np.where(swap, s1n, s0n)
        a1f = np.where(swap, zero, a1n)
        m1f = np.where(swap, m0n, m1n)
        s1f = np.where(swap, s0n, s1n)

        st.w = np.stack((a0f, a1f))
        st.m = np.stack((m0f, m1f))
        st.sd = np.stack((s0f, s1f))

        self.frames_processed += 1
        return foreground.reshape(self.shape)

    def apply_sequence(self, frames) -> np.ndarray:
        """Process an iterable of frames; returns a ``(T, H, W)`` bool
        stack of foreground masks."""
        masks = [self.apply(f) for f in frames]
        if not masks:
            raise ConfigError("empty frame sequence")
        return np.stack(masks)

    def background_image(self) -> np.ndarray:
        """The background-mode means, clipped to image range.

        Consistent with :meth:`MixtureState.background_image`: the
        swap step maintains ``a1 <= a0``, so the max-age mode is always
        row 0 (argmax ties break to the first row).
        """
        if self.state is None:
            raise ConfigError("no frame processed yet")
        return self.state.background_image(self.shape)

    # -- checkpoint / restore (same contract as the MoG oracle) --------
    def state_snapshot(self):
        """Picklable snapshot ``(w, m, sd, frames_processed)`` or
        ``None`` before the first frame. The arrays are the live state
        (``apply`` rebinds rather than mutates), matching the MoG
        oracle's snapshot semantics."""
        if self.state is None:
            return None
        return (
            self.state.w, self.state.m, self.state.sd, self.frames_processed,
        )

    def restore_state(self, snapshot) -> None:
        """Restore a :meth:`state_snapshot`; ``None`` resets to
        pre-first-frame."""
        if snapshot is None:
            self.state = None
            self.frames_processed = 0
            return
        w, m, sd, frames_processed = snapshot
        expected = (2, self.num_pixels)
        for arr in (w, m, sd):
            if np.asarray(arr).shape != expected:
                raise ConfigError(
                    f"snapshot array shape {np.asarray(arr).shape} does "
                    f"not match model state shape {expected}"
                )
        # copy=True is load-bearing: see the MoG oracle's restore_state.
        self.state = MixtureState(
            np.array(w, dtype=self.dtype, copy=True),
            np.array(m, dtype=self.dtype, copy=True),
            np.array(sd, dtype=self.dtype, copy=True),
        )
        self.frames_processed = int(frames_processed)
