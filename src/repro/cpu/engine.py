"""The CPU engine: one in-place model per family.

Each frame runs as one compiled C loop over all pixels
(:mod:`repro.cpu.native`). Without a C compiler the engine runs the
NumPy block loop below instead; that loop is also the compiled path's
test oracle, and both give the same bits.

The vectorized oracles (:class:`~repro.mog.MoGVectorized`,
:class:`~repro.dmsg.DmsgVectorized`) are written for clarity: every
frame builds about a dozen full-frame ``(K, N)`` temporaries, 48 MB
each at 1080×1920 in double precision, none of which stays in cache.
The engines here evaluate the same floating-point expressions in the
same order — so state and masks are bit-identical to the oracles
(``tests/test_cpu_engine.py``) — but

* update the mixture state in place, and
* walk the pixels in blocks of :data:`BLOCK_PIXELS`, so every
  temporary is a ``(K, BLOCK_PIXELS)`` scratch array that stays in L2.

Scratch belongs to the thread, not the model: a process holds one
scratch set per thread per ``(K, dtype)`` however many streams it
steps. That is safe because one ``apply`` runs start to finish on one
thread and scratch carries nothing from one call to the next.

:class:`MoGEngine` serves the MoG levels whose oracle variant is in
:data:`ENGINE_VARIANTS` (D–G). Those variants produce identical state,
and ``regopt``'s recomputed-diff foreground test provably makes the
same decision as the stored diff used here (:mod:`repro.mog.update`,
step 6 note). The sorted levels A–C keep running the oracle.
:class:`DmsgEngine` serves every DMSG level.

Unlike the oracles, whose ``apply`` rebinds the state arrays,
the engines mutate them, so :meth:`state_snapshot` returns copies.
"""

from __future__ import annotations

import threading

import numpy as np

from ..config import MoGParams, resolve_dtype
from ..dmsg.state import DMSG_NUM_MODES, dmsg_state_from_first_frame
from ..errors import ConfigError
from ..mog.params import MixtureState
from ..utils.arrays import check_model_frame
from . import native

__all__ = [
    "BLOCK_PIXELS",
    "DmsgEngine",
    "ENGINE_VARIANTS",
    "MoGEngine",
]

#: Pixels per block. At K=3 in double precision one ``(K, BLOCK_PIXELS)``
#: temporary is 192 KiB, so a block's working set fits in L2.
BLOCK_PIXELS = 8192

#: MoG oracle variants the engine reproduces bit for bit.
ENGINE_VARIANTS = ("nosort", "predicated", "regopt")

_local = threading.local()


class _Scratch:
    """One thread's block temporaries for one ``(K, dtype)``."""

    __slots__ = (
        "x", "d", "rho", "omr", "t1", "t2", "age", "mu",
        "hit", "ok", "v1", "v2", "v3",
    )

    def __init__(self, k: int, dtype: np.dtype) -> None:
        plane = (k, BLOCK_PIXELS)
        self.x = np.empty(BLOCK_PIXELS, dtype=dtype)
        for name in ("d", "rho", "omr", "t1", "t2", "age", "mu"):
            setattr(self, name, np.empty(plane, dtype=dtype))
        self.hit = np.empty(plane, dtype=bool)
        self.ok = np.empty(plane, dtype=bool)
        for name in ("v1", "v2", "v3"):
            setattr(self, name, np.empty(BLOCK_PIXELS, dtype=bool))


def _scratch(k: int, dtype: np.dtype) -> _Scratch:
    sets = getattr(_local, "sets", None)
    if sets is None:
        sets = _local.sets = {}
    key = (k, dtype.str)
    sc = sets.get(key)
    if sc is None:
        sc = sets[key] = _Scratch(k, dtype)
    return sc


class _BlockEngine:
    """Frame validation, integrity guarding, checkpointing, the
    compiled-kernel dispatch and the NumPy block loop shared by both
    families; subclasses supply the state initialiser and the
    per-block update."""

    family = ""

    def __init__(
        self,
        shape: tuple[int, int],
        params: MoGParams | None = None,
        dtype: str | np.dtype = "double",
        integrity=None,
        telemetry=None,
    ) -> None:
        self.shape = tuple(shape)
        if len(self.shape) != 2 or min(self.shape) <= 0:
            raise ConfigError(f"invalid frame shape {shape}")
        self.params = params or MoGParams()
        self.dtype = resolve_dtype(dtype)
        self.state: MixtureState | None = None
        self.frames_processed = 0
        self._guard = None
        if integrity is not None and integrity.active:
            from ..faults.integrity import IntegrityGuard

            self._guard = IntegrityGuard(
                integrity, self.params, telemetry=telemetry,
                model=self.family,
            )
        self._consts = native.constants(self.params, self.dtype)
        #: The compiled per-pixel loop, or ``None`` when no compiler is
        #: available (the NumPy block loop runs instead).
        self._kernel, self.compile_s = native.load_kernel(
            self.family, self.num_components, self.dtype
        )
        if telemetry is not None:
            if self._kernel is None:
                telemetry.counter("jit.fallbacks").inc()
            g = telemetry.gauge("jit.compile_s")
            g.set(g.value + self.compile_s)

    @property
    def compiled(self) -> bool:
        """Whether frames run through the compiled kernel."""
        return self._kernel is not None

    @property
    def num_pixels(self) -> int:
        return self.shape[0] * self.shape[1]

    @property
    def num_components(self) -> int:
        return self.params.num_gaussians

    def apply(self, frame: np.ndarray) -> np.ndarray:
        """Process one frame; returns a freshly allocated boolean
        foreground mask."""
        src = check_model_frame(
            frame, self.shape, self.dtype, cast_integers=False
        )
        if self.state is None:
            self.state = self._initial_state(frame)
        elif self._guard is not None:
            # Before classification, like the oracles. Repair rebinds
            # the state arrays, so they are read only after this.
            self._guard.check(self.state, src, self.frames_processed)
        mask = np.empty(self.num_pixels, dtype=bool)
        if self._kernel is not None:
            self._kernel(src, self.state, mask, self._consts)
        else:
            self._apply_blocks(src, self.state, mask)
        self.frames_processed += 1
        return mask.reshape(self.shape)

    def _apply_blocks(self, src, st, mask) -> None:
        """The NumPy block loop: :meth:`_block` over ``BLOCK_PIXELS``
        slices, with per-thread scratch."""
        sc = _scratch(st.num_gaussians, self.dtype)
        cast = src.dtype != self.dtype
        n = self.num_pixels
        with np.errstate(divide="ignore"):
            for s in range(0, n, BLOCK_PIXELS):
                e = min(s + BLOCK_PIXELS, n)
                if cast:
                    x = sc.x[: e - s]
                    np.copyto(x, src[s:e], casting="unsafe")
                else:
                    x = src[s:e]
                self._block(
                    st.w[:, s:e], st.m[:, s:e], st.sd[:, s:e],
                    x, mask[s:e], sc, e - s,
                )

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

    # -- checkpoint / restore ------------------------------------------
    def state_snapshot(self):
        """Picklable snapshot ``(w, m, sd, frames_processed)`` or
        ``None`` before the first frame. The arrays are **copies**:
        ``apply`` mutates the state in place."""
        if self.state is None:
            return None
        return (
            self.state.w.copy(), self.state.m.copy(), self.state.sd.copy(),
            self.frames_processed,
        )

    def restore_state(self, snapshot) -> None:
        """Restore a :meth:`state_snapshot`, copying the arrays into
        this engine's own storage. ``None`` resets to pre-first-frame."""
        if snapshot is None:
            self.state = None
            self.frames_processed = 0
            return
        w, m, sd, frames_processed = snapshot
        expected = (self.num_components, self.num_pixels)
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


class MoGEngine(_BlockEngine):
    """MoG engine, bit-identical to every variant in
    :data:`ENGINE_VARIANTS` of :class:`~repro.mog.MoGVectorized`."""

    family = "mog"

    def _initial_state(self, frame) -> MixtureState:
        return MixtureState.from_first_frame(frame, self.params, self.dtype)

    def _block(self, w, m, sd, x, fg, sc, b) -> None:
        """Algorithm 1 (:mod:`repro.mog.update`) on one block, in the
        ``nosort`` oracle's expression order."""
        dt = self.dtype.type
        alpha, oma, gamma1, gamma2, init_w, init_sd, sd_floor, _ = (
            self._consts
        )
        one = dt(1.0)
        d, rho, omr = sc.d[:, :b], sc.rho[:, :b], sc.omr[:, :b]
        t1, t2 = sc.t1[:, :b], sc.t2[:, :b]
        match, close = sc.hit[:, :b], sc.ok[:, :b]
        any_match = sc.v1[:b]

        # Steps 1-2: classify against the pre-update state.
        np.subtract(x, m, out=d)
        np.abs(d, out=d)
        np.multiply(gamma1, sd, out=t1)
        np.less(d, t1, out=match)
        np.any(match, axis=0, out=any_match)

        # Steps 3-4: w' = alpha*w (+ oma where matched); m, sd move
        # toward x only where matched.
        np.multiply(alpha, w, out=w)
        np.add(w, oma, out=w, where=match)
        np.divide(oma, w, out=rho)
        np.minimum(rho, one, out=rho)
        np.subtract(one, rho, out=omr)
        np.multiply(omr, m, out=t1)
        np.multiply(rho, x, out=t2)
        np.add(t1, t2, out=m, where=match)
        np.multiply(sd, sd, out=t1)
        np.multiply(omr, t1, out=t1)
        np.multiply(d, d, out=t2)
        np.multiply(rho, t2, out=t2)
        np.add(t1, t2, out=t1)
        np.sqrt(t1, out=t1)
        np.maximum(t1, sd_floor, out=sd, where=match)

        # Step 5: the virtual component replaces the weakest (first
        # minimum) on a total miss; its diff counts as 0.
        if not any_match.all():
            cols = np.flatnonzero(~any_match)
            rows = np.argmin(w[:, cols], axis=0)
            w[rows, cols] = init_w
            m[rows, cols] = x[cols]
            sd[rows, cols] = init_sd
            d[rows, cols] = dt(0.0)

        # Step 6: background iff some component has w' >= Gamma2 and
        # diff < Gamma1 * sd'.
        np.multiply(gamma1, sd, out=t1)
        np.less(d, t1, out=close)
        np.greater_equal(w, gamma2, out=match)
        np.logical_and(close, match, out=close)
        np.any(close, axis=0, out=any_match)
        np.logical_not(any_match, out=fg)


class DmsgEngine(_BlockEngine):
    """DMSG engine, bit-identical to :class:`~repro.dmsg.DmsgVectorized`."""

    family = "dmsg"

    @property
    def num_components(self) -> int:
        return DMSG_NUM_MODES

    def _initial_state(self, frame) -> MixtureState:
        return dmsg_state_from_first_frame(frame, self.params, self.dtype)

    def _block(self, w, m, sd, x, fg, sc, b) -> None:
        """The DMSG update (:mod:`repro.dmsg.vectorized`) on one block.
        Both modes share the running-average arithmetic, so it runs on
        the ``(2, b)`` planes at once; the commits differ per mode."""
        dt = self.dtype.type
        _, _, gamma1, _, _, init_sd, sd_floor, age_cap = self._consts
        one = dt(1.0)
        zero = dt(0.0)
        d, rho, omr = sc.d[:, :b], sc.rho[:, :b], sc.omr[:, :b]
        t1, t2 = sc.t1[:, :b], sc.t2[:, :b]
        age, mu, hit = sc.age[:, :b], sc.mu[:, :b], sc.hit[:, :b]
        upd, reset, swap = sc.v1[:b], sc.v2[:b], sc.v3[:b]

        # Step 1: d = |x - m|; the pixel is background iff mode 0 matches.
        np.subtract(x, m, out=d)
        np.abs(d, out=d)
        np.multiply(gamma1, sd, out=t1)
        np.less(d, t1, out=hit)
        np.logical_not(hit[0], out=fg)

        # Running-average candidates for both modes.
        np.add(w, one, out=age)
        np.minimum(age, age_cap, out=age)
        np.divide(one, age, out=rho)
        np.subtract(one, rho, out=omr)
        np.multiply(omr, m, out=mu)
        np.multiply(rho, x, out=t2)
        np.add(mu, t2, out=mu)
        np.multiply(sd, sd, out=t1)
        np.multiply(omr, t1, out=t1)
        np.multiply(d, d, out=t2)
        np.multiply(rho, t2, out=t2)
        np.add(t1, t2, out=t1)
        np.sqrt(t1, out=t1)
        np.maximum(t1, sd_floor, out=t1)

        # Step 2: a matched background absorbs the sample.
        matched_b = hit[0]
        np.copyto(w[0], age[0], where=matched_b)
        np.copyto(m[0], mu[0], where=matched_b)
        np.copyto(sd[0], t1[0], where=matched_b)

        # Step 3: on a background miss a live, matching candidate
        # absorbs the sample; otherwise the candidate is re-seeded.
        np.greater(w[1], zero, out=upd)
        np.logical_and(upd, hit[1], out=upd)
        np.logical_not(upd, out=reset)
        np.logical_and(fg, reset, out=reset)
        np.logical_and(fg, upd, out=upd)
        np.copyto(w[1], age[1], where=upd)
        np.copyto(m[1], mu[1], where=upd)
        np.copyto(sd[1], t1[1], where=upd)
        np.copyto(w[1], one, where=reset)
        np.copyto(m[1], x, where=reset)
        np.copyto(sd[1], init_sd, where=reset)

        # Step 4: age-gated swap; the demoted background becomes an
        # empty candidate (age 0).
        np.greater(w[1], w[0], out=swap)
        if swap.any():
            tmp = t2[0]
            for plane in (w, m, sd):
                np.copyto(tmp, plane[0])
                np.copyto(plane[0], plane[1], where=swap)
                np.copyto(plane[1], tmp, where=swap)
            np.copyto(w[1], zero, where=swap)
