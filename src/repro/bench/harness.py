"""Run one optimization level and extrapolate to the paper's workload.

Why extrapolation is sound here: MoG is embarrassingly parallel and the
paper's own metrics are per-pixel ratios, so per-warp behaviour at
320x240 is statistically identical to full HD; scaling every counter by
the pixel ratio changes no efficiency and the timing model (which is
linear in counters for a fixed occupancy) scales with it. The frame
count only multiplies the pipeline schedule. DESIGN.md §6 records this
as a known deviation.
"""

from __future__ import annotations

import time
from dataclasses import dataclass

import numpy as np

from ..config import FULL_HD, PAPER_NUM_FRAMES, MoGParams, RunConfig
from ..core.pipeline import HostPipeline
from ..core.results import RunReport
from ..core.subtractor import BackgroundSubtractor
from ..core.variants import LevelSpec, OptimizationLevel, resolve_level_spec
from ..cpu.model import CpuMode, CpuTimeModel
from ..errors import ConfigError
from ..gpusim.calibration import DEFAULT_CALIBRATION, Calibration
from ..gpusim.device import TESLA_C2075, DeviceSpec
from ..gpusim.dma import StreamScheduler
from ..gpusim.timing import TimingModel


@dataclass(frozen=True)
class WorkloadScale:
    """The workload the results are extrapolated to."""

    num_pixels: int
    num_frames: int


#: The paper's evaluation workload: 450 frames of 1080x1920.
PAPER_SCALE = WorkloadScale(FULL_HD[0] * FULL_HD[1], PAPER_NUM_FRAMES)

#: MoG parameters used by the paper-reproduction benchmarks. The faster
#: learning rate and tighter initial sd make the mixture converge (and
#: split multi-modal pixels into separate components) within the short
#: simulated runs, mirroring the steady-state a 450-frame run reaches.
PAPER_BENCH_PARAMS = MoGParams(learning_rate=0.08, initial_sd=8.0)

#: Default geometry of simulated benchmark runs (full HD is supported
#: but pure-Python slow; see DESIGN.md §6 on extrapolation).
BENCH_SHAPE = (120, 160)
#: Frames to run; the first BENCH_WARMUP are model convergence.
BENCH_FRAMES = 40
BENCH_WARMUP = 24


@dataclass
class LevelResult:
    """One level's measured run plus its extrapolation."""

    level: str
    report: RunReport
    masks: np.ndarray
    scale: WorkloadScale
    kernel_time_per_frame: float   # at scale
    total_time: float              # at scale, incl. transfers
    cpu_time: float                # CPU model at scale (scalar mode)
    speedup: float                 # cpu_time / total_time

    def metrics(self) -> dict[str, float]:
        out = self.report.metrics()
        out.update(
            {
                "speedup": self.speedup,
                "scaled_kernel_time_per_frame": self.kernel_time_per_frame,
                "scaled_total_time": self.total_time,
                "cpu_time": self.cpu_time,
            }
        )
        return out


def steady_state_counters(report: RunReport, warmup: int = 0):
    """Mean per-launch counters and the occupancy after ``warmup``
    launches (model convergence transients excluded)."""
    if not report.launches:
        raise ConfigError("report contains no launches")
    tail = report.launches[warmup:] or report.launches[-1:]
    total = tail[0].counters.copy()
    for rep in tail[1:]:
        total.add(rep.counters)
    return total.scaled(1.0 / len(tail)), tail[-1].occupancy


def extrapolate(
    report: RunReport,
    scale: WorkloadScale = PAPER_SCALE,
    device: DeviceSpec = TESLA_C2075,
    calibration: Calibration = DEFAULT_CALIBRATION,
    frame_group: int | None = None,
    warmup_launches: int = 0,
) -> tuple[float, float]:
    """Extrapolate a run report to ``scale``.

    Returns ``(kernel_time_per_frame, total_time)`` at the target
    workload. For level G pass the configured ``frame_group``;
    ``warmup_launches`` excludes convergence transients from the
    steady-state counter average.
    """
    if not report.launches:
        raise ConfigError("report contains no launches to extrapolate")
    pixel_ratio = scale.num_pixels / report.num_pixels
    timing_model = TimingModel(device, calibration)
    level_spec = resolve_level_spec(report.level)
    scheduler = StreamScheduler(device, overlapped=level_spec.overlapped)
    bytes_per_frame = scale.num_pixels  # uint8 in and out
    counters, occ = steady_state_counters(report, warmup_launches)
    counters = counters.scaled(pixel_ratio)

    if level_spec.group_structured:
        group = frame_group or max(
            round(report.num_frames / len(report.launches)), 1
        )
        group_time = timing_model.kernel_timing(counters, occ).total
        num_groups = -(-scale.num_frames // group)
        sizes = [
            min(group, scale.num_frames - g * group) for g in range(num_groups)
        ]
        pipeline = scheduler.run(
            [group_time] * num_groups,
            bytes_in=[bytes_per_frame * s for s in sizes],
            bytes_out=[bytes_per_frame * s for s in sizes],
        )
        kernel_per_frame = group_time / group
    else:
        frame_time = timing_model.kernel_timing(counters, occ).total
        pipeline = scheduler.run(
            [frame_time] * scale.num_frames,
            bytes_in=bytes_per_frame,
            bytes_out=bytes_per_frame,
        )
        kernel_per_frame = frame_time
    return kernel_per_frame, pipeline.total_time


def run_level(
    level: OptimizationLevel | LevelSpec | str,
    frames,
    shape: tuple[int, int],
    params: MoGParams | None = None,
    dtype: str = "double",
    scale: WorkloadScale = PAPER_SCALE,
    device: DeviceSpec = TESLA_C2075,
    calibration: Calibration = DEFAULT_CALIBRATION,
    run_config: RunConfig | None = None,
    cpu_model: CpuTimeModel | None = None,
    warmup_frames: int = 0,
) -> LevelResult:
    """Run one optimization level over ``frames`` and extrapolate.

    ``warmup_frames`` excludes the mixture-convergence transient from
    the steady-state counters used for timing extrapolation.
    """
    level = resolve_level_spec(level)
    params = params or MoGParams()
    run_config = run_config or RunConfig(
        height=shape[0], width=shape[1], dtype=dtype
    )
    pipeline = HostPipeline(
        shape, params, level,
        run_config=run_config, device=device, calibration=calibration,
    )
    masks, report = pipeline.process(frames)
    if level.group_structured:
        warmup_launches = warmup_frames // run_config.frame_group
    else:
        warmup_launches = warmup_frames
    warmup_launches = min(warmup_launches, max(len(report.launches) - 1, 0))
    kernel_pf, total = extrapolate(
        report, scale, device, calibration,
        frame_group=run_config.frame_group if level.group_structured else None,
        warmup_launches=warmup_launches,
    )
    cpu_model = cpu_model or CpuTimeModel()
    cpu_time = cpu_model.time(
        scale.num_pixels, scale.num_frames,
        params.num_gaussians, run_config.dtype, CpuMode.SCALAR,
    )
    return LevelResult(
        level=level.letter,
        report=report,
        masks=masks,
        scale=scale,
        kernel_time_per_frame=kernel_pf,
        total_time=total,
        cpu_time=cpu_time,
        speedup=cpu_time / total,
    )


def measure_fps(
    backend: str,
    profile_every: int = 1,
    num_frames: int = 17,
    level: str = "F",
    shape=BENCH_SHAPE,
    integrity=None,
    warmup_frames: int | None = None,
    dtype: str = "double",
    model: str | None = None,
) -> dict:
    """Measure wall-clock frames/s of one configuration (``repro bench``).

    ``warmup_frames`` (default 1) leading frames of the evaluation
    scene are processed before the timed window opens, so model
    initialisation never pollutes the steady-state rate. The result
    records the excluded time as ``warmup_s``, the kernel compilation
    at construction as ``compile_s`` and, for the cpu backend, whether
    the model ran as a compiled kernel as ``compiled``. ``integrity`` is an
    optional :class:`~repro.config.IntegrityPolicy` enabling the
    mixture-state guard; ``model`` picks the background-model family
    (default MoG).
    """
    if warmup_frames is None:
        warmup_frames = 1
    if not 0 < warmup_frames < num_frames:
        raise ConfigError(
            f"need 0 < warmup_frames < num_frames, got "
            f"{warmup_frames} / {num_frames}"
        )
    from ..video.scenes import evaluation_scene

    video = evaluation_scene(height=shape[0], width=shape[1])
    frames = [video.frame(t) for t in range(num_frames)]
    bs = BackgroundSubtractor(
        shape,
        params=PAPER_BENCH_PARAMS,
        level=level,
        backend=backend,
        run_config=RunConfig(height=shape[0], width=shape[1], dtype=dtype),
        profile_every=profile_every if backend == "sim" else None,
        integrity=integrity,
        model=model,
    )
    warm_start = time.perf_counter()
    for frame in frames[:warmup_frames]:
        bs.apply(frame)
    warmup_s = time.perf_counter() - warm_start
    start = time.perf_counter()
    for frame in frames[warmup_frames:]:
        bs.apply(frame)
    elapsed = time.perf_counter() - start
    timed = len(frames) - warmup_frames
    integrity_mode = integrity.mode if integrity is not None else "off"
    tier = (
        backend if backend in ("cpu", "jit")
        else "profiled" if profile_every == 1
        else f"sampled_1_in_{profile_every}"
    )
    if integrity_mode != "off":
        tier += f"_integrity_{integrity_mode}"
    entry = {
        "backend": backend,
        "level": level,
        "model": bs.model.name,
        "tier": tier,
        "profile_every": profile_every if backend == "sim" else None,
        "integrity": integrity_mode,
        "frames_per_s": round(timed / elapsed, 2),
        "frames_timed": timed,
        "frame_shape": list(shape),
        "warmup_frames": warmup_frames,
        "warmup_s": round(warmup_s, 4),
        "compile_s": round(getattr(bs, "compile_s", 0.0), 4),
    }
    if bs.active_backend == "cpu":
        entry["compiled"] = bs.compiled
    return entry
