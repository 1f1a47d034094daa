"""Deterministic soft-error injection across the stack.

One :class:`FaultInjector` interprets a
:class:`~repro.config.FaultPlan` and exposes a hook per layer:

=================  ====================================================
hook               called by
=================  ====================================================
``on_model_state`` CPU backend, start of ``BackgroundSubtractor.apply``
``on_launch``      :class:`~repro.gpusim.engine.SimtEngine.launch`
``on_dma``         :class:`~repro.core.pipeline.HostPipeline` after the
                   simulated host->device frame transfer
``on_frame``       :class:`~repro.core.stream.SurveillancePipeline`
                   after frame validation
``before_step``    :class:`FaultyPipeline` (serve layer)
=================  ====================================================

Each hook is a no-op unless the plan's target matches and the current
frame/launch index is in ``plan.frames``, so a single injector can be
threaded through every layer unconditionally. Bit-flips are injected by
viewing the victim element's bytes as an unsigned integer and XOR-ing a
randomly chosen bit — the same physical model ECC SECDED is built
against, which is what makes the ``ecc="on"`` semantics (single-bit
corrected, multi-bit uncorrectable) faithful.
"""

from __future__ import annotations

import time

import numpy as np

from ..config import FaultPlan
from ..errors import InjectedFault, IntegrityError
from ..utils.rng import rng_from_seed

__all__ = ["FaultInjector", "FaultyPipeline"]

#: uint view type per element size, for bit-level corruption.
_UINT_FOR_ITEMSIZE = {1: np.uint8, 2: np.uint16, 4: np.uint32, 8: np.uint64}


class FaultInjector:
    """Executes a :class:`~repro.config.FaultPlan` deterministically.

    Parameters
    ----------
    plan:
        The injection schedule.
    telemetry:
        Optional :class:`~repro.telemetry.MetricsRegistry`; receives
        ``faults.injected``, ``faults.corrected``,
        ``faults.uncorrectable`` counters and the
        ``faults.last_injected_frame`` gauge the integrity guard uses
        to measure detection latency.
    """

    def __init__(self, plan: FaultPlan, telemetry=None) -> None:
        self.plan = plan
        self.telemetry = telemetry
        self.rng = rng_from_seed(plan.seed)
        self.injected = 0
        self.corrected = 0

    # -- internals -----------------------------------------------------

    def _due(self, target: str, index: int) -> bool:
        return self.plan.target == target and index in self.plan.frames

    def _count(self, name: str, n: int = 1) -> None:
        if self.telemetry is not None:
            self.telemetry.counter(f"faults.{name}").inc(n)

    def _mark_injected(self, index: int, n: int) -> None:
        self.injected += n
        self._count("injected", n)
        if self.telemetry is not None:
            self.telemetry.gauge("faults.last_injected_frame").set(index)

    def _corrupt(self, arr: np.ndarray, index: int) -> int:
        """Apply ``plan.flips`` faults to ``arr`` *in place* (the point:
        simulated hardware does not ask permission). Returns the number
        of faults that actually landed (0 when ECC corrected them).

        Raises :class:`~repro.errors.IntegrityError` for a stuck
        element under ``ecc="on"`` — a multi-bit error SECDED detects
        but cannot correct, the simulated machine-check path.
        """
        plan = self.plan
        flat_idx = self.rng.integers(0, arr.size, size=plan.flips)
        if plan.mode == "bitflip":
            bits = self.rng.integers(
                0, arr.dtype.itemsize * 8, size=plan.flips
            )
            if plan.ecc == "on":
                # SECDED corrects every single-bit flip: memory is
                # untouched, the event is only counted.
                self.corrected += plan.flips
                self._count("corrected", plan.flips)
                return 0
            coords = np.unravel_index(flat_idx, arr.shape)
            utype = _UINT_FOR_ITEMSIZE[arr.dtype.itemsize]
            victims = np.ascontiguousarray(arr[coords])
            bits_u = victims.view(utype) ^ (
                utype(1) << bits.astype(utype)
            )
            arr[coords] = bits_u.view(arr.dtype)
            self._mark_injected(index, plan.flips)
            return plan.flips
        # "stuck": overwrite whole elements. Under ECC this is a
        # multi-bit difference — detected, not correctable.
        if plan.ecc == "on":
            self._count("uncorrectable", plan.flips)
            raise IntegrityError(
                f"uncorrectable (multi-bit) memory error at index {index}: "
                f"{plan.flips} stuck element(s) under ecc='on'",
                frame_index=index,
                pixels=plan.flips,
            )
        coords = np.unravel_index(flat_idx, arr.shape)
        arr[coords] = arr.dtype.type(plan.stuck_value)
        self._mark_injected(index, plan.flips)
        return plan.flips

    # -- layer hooks ---------------------------------------------------

    def on_model_state(self, state, frame_index: int) -> int:
        """Corrupt the CPU backend's live mixture state (target
        ``"state"``). Picks one of the three arrays per fault round.
        Returns the number of faults that landed."""
        if state is None or not self._due("state", frame_index):
            return 0
        arrays = (state.w, state.m, state.sd)
        victim = arrays[int(self.rng.integers(0, len(arrays)))]
        return self._corrupt(victim, frame_index)

    def on_launch(self, memory, launch_index: int) -> int:
        """Corrupt simulated global memory before a kernel launch
        (target ``"state"``, sim backend). Injects into the
        state-carrying (float-dtype) buffers, optionally filtered by
        ``plan.buffer`` substring."""
        if not self._due("state", launch_index):
            return 0
        return self.corrupt_memory(memory, launch_index)

    def corrupt_memory(self, memory, index: int) -> int:
        """Unconditionally corrupt matching global-memory buffers of a
        :class:`~repro.gpusim.memory.GlobalMemory`."""
        landed = 0
        for buf in memory.buffers():
            if self.plan.buffer is not None:
                if self.plan.buffer not in buf.name:
                    continue
            elif buf.data.dtype.kind != "f":
                # No name filter: target state-carrying buffers only.
                # Frame/mask buffers are uint8 and transient per frame.
                continue
            landed += self._corrupt(buf.data, index)
        return landed

    def corrupt_shared(self, shared, index: int) -> int:
        """Corrupt a :class:`~repro.gpusim.sharedmem.SharedBuffer`'s
        backing array (per-block on-chip memory; the C2075's shared
        memory is ECC-protected too, which this models the same way)."""
        return self._corrupt(shared.data, index)

    def on_dma(self, flat: np.ndarray, frame_index: int) -> np.ndarray:
        """Corrupt a host->device frame transfer in place (target
        ``"dma"``). ``flat`` must already be a private copy — the
        pipeline's ``astype`` conversion guarantees that."""
        if self._due("dma", frame_index):
            self._corrupt(flat, frame_index)
        return flat

    def on_frame(self, frame: np.ndarray, frame_index: int) -> np.ndarray:
        """Corrupt an input frame at the video layer (target
        ``"frame"``). Returns a corrupted *copy*; the caller's array is
        never touched."""
        if not self._due("frame", frame_index):
            return frame
        corrupted = np.array(frame, copy=True)
        self._corrupt(corrupted, frame_index)
        return corrupted

    def before_step(self, frame_index: int) -> None:
        """Serve-layer hook (target ``"serve"``): sleep ``stall_s``
        ("stall") or raise :class:`~repro.errors.InjectedFault`
        ("raise")."""
        if not self._due("serve", frame_index):
            return
        self._mark_injected(frame_index, 1)
        if self.plan.mode == "stall":
            time.sleep(self.plan.stall_s)
            return
        raise InjectedFault(
            f"injected serve-layer fault at frame {frame_index} "
            f"(plan seed {self.plan.seed})"
        )


class FaultyPipeline:
    """Transparent proxy wrapping a pipeline-like object, applying a
    serve-target :class:`FaultInjector` before every ``step``.

    Everything else (attributes, ``restore_checkpoint``, telemetry)
    passes straight through, so a :class:`~repro.serve.StreamServer`
    can serve a wrapped pipeline without knowing it is under test.
    """

    def __init__(self, pipeline, injector: FaultInjector) -> None:
        self._pipeline = pipeline
        self._injector = injector

    def __getattr__(self, name):
        return getattr(self._pipeline, name)

    def step(self, frame):
        self._injector.before_step(self._pipeline.frame_index + 1)
        return self._pipeline.step(frame)
