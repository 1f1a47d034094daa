"""NumPy-vectorized MoG with the paper's four algorithmic variants.

See :mod:`repro.mog.update` for the pinned semantics. The variants are
written so that, in float64, every variant produces *bit-identical*
foreground masks to the scalar reference (the expressions are mirrored
term by term). ``regopt`` restructures the foreground test the way the
paper's level F does — recomputing ``diff`` instead of keeping it in
registers — which provably cannot change the decision under these
update equations (:mod:`repro.mog.update`, step 6 note).

This module is the readable oracle every other implementation is
validated against: the simulated GPU kernels and the
CPU engine (:mod:`repro.cpu.engine`), which is what
:class:`repro.core.subtractor.BackgroundSubtractor` runs for
``backend="cpu"`` at levels D-G. The sorted levels A-C still run this
module's ``sorted`` variant.
"""

from __future__ import annotations

import numpy as np

from ..config import MoGParams, resolve_dtype
from ..errors import ConfigError
from ..utils.arrays import check_model_frame
from .params import MixtureState
from .rank import rank_order, replace_weakest

#: Algorithmic variants, in the order the paper introduces them.
VARIANTS = ("sorted", "nosort", "predicated", "regopt")


class MoGVectorized:
    """Vectorized MoG processor.

    Parameters
    ----------
    shape:
        Frame geometry ``(height, width)``.
    params:
        Algorithmic parameters (defaults to :class:`MoGParams`).
    variant:
        One of :data:`VARIANTS`.
    dtype:
        ``"double"`` (default) or ``"float"`` for the Gaussian state.
    """

    def __init__(
        self,
        shape: tuple[int, int],
        params: MoGParams | None = None,
        variant: str = "sorted",
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
            # Imported lazily: repro.mog.__init__ imports this module,
            # and repro.faults.integrity imports repro.mog.params.
            from ..faults.integrity import IntegrityGuard

            self._guard = IntegrityGuard(
                integrity, self.params, telemetry=telemetry
            )

    @property
    def num_pixels(self) -> int:
        return self.shape[0] * self.shape[1]

    def apply(self, frame: np.ndarray) -> np.ndarray:
        """Process one frame; returns the boolean foreground mask."""
        x = check_model_frame(frame, self.shape, self.dtype)
        if self.state is None:
            self.state = MixtureState.from_first_frame(
                frame, self.params, self.dtype
            )
        elif self._guard is not None:
            # Guard runs before classification: corruption that landed
            # between frames is caught (and in repair mode healed)
            # before it can influence this frame's mask.
            self._guard.check(self.state, x, self.frames_processed)
        st = self.state
        dt = self.dtype.type
        alpha = dt(1.0 - self.params.learning_rate)
        oma = dt(1.0) - alpha  # 1 - alpha, computed in the run dtype
        gamma1 = dt(self.params.match_threshold)
        gamma2 = dt(self.params.background_weight)
        sd_floor = dt(self.params.sd_floor)
        one = dt(1.0)

        # Steps 1-2: classification against the pre-update state.
        diffs = np.abs(x[None, :] - st.m)
        match = diffs < gamma1 * st.sd
        any_match = match.any(axis=0)

        # Steps 3-4: parameter updates.
        if self.variant in ("predicated", "regopt"):
            # Algorithm 5: unconditional arithmetic, blended at the
            # assignment. `matchf` is the 0/1 predicate value.
            matchf = match.astype(self.dtype)
            w_new = alpha * st.w + matchf * oma
            with np.errstate(divide="ignore"):
                rho = np.minimum(oma / w_new, one)
            m_upd = (one - rho) * st.m + rho * x[None, :]
            var = (one - rho) * (st.sd * st.sd) + rho * (diffs * diffs)
            sd_upd = np.maximum(np.sqrt(var), sd_floor)
            m_new = (one - matchf) * st.m + matchf * m_upd
            sd_new = (one - matchf) * st.sd + matchf * sd_upd
        else:
            # Algorithm 4: branch per component (vectorized as where).
            w_new = np.where(match, alpha * st.w + oma, alpha * st.w)
            with np.errstate(divide="ignore"):
                rho = np.minimum(oma / w_new, one)
            m_upd = (one - rho) * st.m + rho * x[None, :]
            var = (one - rho) * (st.sd * st.sd) + rho * (diffs * diffs)
            sd_upd = np.maximum(np.sqrt(var), sd_floor)
            m_new = np.where(match, m_upd, st.m)
            sd_new = np.where(match, sd_upd, st.sd)

        # Step 5: virtual component on total miss.
        no_match = ~any_match
        if no_match.any():
            weakest = replace_weakest(
                w_new, m_new, sd_new, x, no_match,
                float(self.params.initial_weight), float(self.params.initial_sd),
            )
            cols = np.flatnonzero(no_match)
            diffs[weakest[cols], cols] = dt(0.0)

        # Step 6: foreground decision.
        if self.variant == "regopt":
            fg_diffs = np.abs(x[None, :] - m_new)
        else:
            fg_diffs = diffs
        background = ((w_new >= gamma2) & (fg_diffs < gamma1 * sd_new)).any(axis=0)
        foreground = ~background

        st.w, st.m, st.sd = w_new, m_new, sd_new

        # Step 7: rank + sort for the sorted variant.
        if self.variant == "sorted":
            st.permute(rank_order(st.w, st.sd))

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
        """Most-probable background estimate (see Table IV)."""
        if self.state is None:
            raise ConfigError("no frame processed yet")
        return self.state.background_image(self.shape)

    # -- checkpoint / restore (the serving path's fault tolerance) -----
    def state_snapshot(self):
        """Picklable snapshot ``(w, m, sd, frames_processed)`` or
        ``None`` before the first frame.

        The returned arrays are the live state, not copies: ``apply``
        rebinds the state arrays each frame (it never mutates them in
        place), so a snapshot taken between frames stays valid while
        the model keeps running.
        """
        if self.state is None:
            return None
        return (
            self.state.w, self.state.m, self.state.sd, self.frames_processed,
        )

    def restore_state(self, snapshot) -> None:
        """Restore a :meth:`state_snapshot`, resuming the model exactly
        where the snapshot was taken. ``None`` resets to pre-first-frame."""
        if snapshot is None:
            self.state = None
            self.frames_processed = 0
            return
        w, m, sd, frames_processed = snapshot
        expected = (self.params.num_gaussians, self.num_pixels)
        for arr in (w, m, sd):
            if np.asarray(arr).shape != expected:
                raise ConfigError(
                    f"snapshot array shape {np.asarray(arr).shape} does "
                    f"not match model state shape {expected}"
                )
        # copy=True is load-bearing: a restored model must never alias
        # the checkpoint's arrays — the checkpoint may be the *live*
        # state of another model (state_snapshot hands out references),
        # and a shared buffer would couple the two models' histories.
        self.state = MixtureState(
            np.array(w, dtype=self.dtype, copy=True),
            np.array(m, dtype=self.dtype, copy=True),
            np.array(sd, dtype=self.dtype, copy=True),
        )
        self.frames_processed = int(frames_processed)
