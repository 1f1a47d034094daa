"""One function per table/figure of the paper's evaluation.

Every experiment returns an :class:`Experiment` whose rows mirror the
paper's rows/series, alongside the paper's published values where the
paper gives them, so benches can both print the comparison and assert
the *shape* (ordering, rough factors, crossovers — not absolute
nanoseconds; see DESIGN.md §2).

The :class:`ExperimentContext` memoises simulated runs so a bench
session does not re-run a level for every figure that references it.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from ..config import MoGParams, RunConfig
from ..core.pipeline import HostPipeline
from ..core.variants import OptimizationLevel, table_ii_rows, table_iii_rows
from ..cpu.model import CpuTimeModel, PAPER_BASELINES
from ..gpusim.device import hw_config_table
from ..metrics.ms_ssim import ms_ssim
from ..mog.vectorized import MoGVectorized
from ..video.scenes import evaluation_scene
from .harness import (
    BENCH_FRAMES,
    BENCH_SHAPE,
    BENCH_WARMUP,
    PAPER_BENCH_PARAMS,
    LevelResult,
    run_level,
)
from .reporting import format_table


@dataclass
class Experiment:
    """A reproduced table or figure."""

    exp_id: str
    title: str
    headers: list[str]
    rows: list[list[object]]
    notes: str = ""

    def format(self) -> str:
        out = format_table(self.headers, self.rows, title=f"{self.exp_id}: {self.title}")
        if self.notes:
            out += "\n" + self.notes
        return out

    def to_dict(self) -> dict:
        """JSON-serialisable form (benchmarks archive these)."""
        return {
            "id": self.exp_id,
            "title": self.title,
            "headers": list(self.headers),
            "rows": [[str(c) for c in row] for row in self.rows],
            "notes": self.notes,
        }


#: The paper's Figure 8a / 10a / 11a speedups, for comparison columns.
PAPER_SPEEDUPS = {
    "A": 13.0, "B": 41.0, "C": 57.0, "D": 85.0, "E": 86.0, "F": 97.0, "G": 101.0,
}
PAPER_TABLE4 = {  # level -> (background %, foreground %)
    "A": (99, 99), "B": (99, 99), "C": (99, 96),
    "D": (99, 97), "E": (99, 97), "F": (99, 95),
}


class ExperimentContext:
    """Shared scene + memoised level runs for one bench session."""

    def __init__(
        self,
        shape: tuple[int, int] = BENCH_SHAPE,
        num_frames: int = BENCH_FRAMES,
        warmup: int = BENCH_WARMUP,
        params: MoGParams | None = None,
        seed: int = 5,
    ) -> None:
        self.shape = shape
        self.num_frames = num_frames
        self.warmup = warmup
        self.params = params or PAPER_BENCH_PARAMS
        self.video = evaluation_scene(
            height=shape[0], width=shape[1], seed=seed
        )
        self._frames: dict[int, list[np.ndarray]] = {}
        self._runs: dict[tuple, LevelResult] = {}

    def frames(self, count: int | None = None) -> list[np.ndarray]:
        count = count or self.num_frames
        if count not in self._frames:
            self._frames[count] = [self.video.frame(t) for t in range(count)]
        return self._frames[count]

    def run(
        self,
        level: str,
        num_gaussians: int | None = None,
        dtype: str = "double",
        frame_group: int | None = None,
        num_frames: int | None = None,
    ) -> LevelResult:
        """Memoised :func:`run_level` call."""
        k = num_gaussians or self.params.num_gaussians
        group = frame_group or RunConfig().frame_group
        if level == "G":
            # Keep whole groups so steady-state counters are clean.
            count = num_frames or max(self.num_frames, 2 * group)
            count = -(-count // group) * group
        else:
            count = num_frames or self.num_frames
        key = (level, k, dtype, group, count)
        if key not in self._runs:
            params = self.params.replace(num_gaussians=k)
            run_config = RunConfig(
                height=self.shape[0], width=self.shape[1],
                dtype=dtype, frame_group=group,
            )
            self._runs[key] = run_level(
                level, self.frames(count), self.shape,
                params=params, dtype=dtype, run_config=run_config,
                warmup_frames=min(self.warmup, max(count - group, 0))
                if level == "G" else min(self.warmup, count - 1),
            )
        return self._runs[key]


# ----------------------------------------------------------------------
# Tables
# ----------------------------------------------------------------------
def table1() -> Experiment:
    """Table I: HW configuration (static device descriptions)."""
    rows = [list(r) for r in hw_config_table()]
    return Experiment(
        "Table I", "HW Configuration", ["", "CPU", "GPU"], rows,
    )


def table2() -> Experiment:
    """Table II: general optimization levels."""
    rows = [[name, *marks] for name, marks in table_ii_rows()]
    return Experiment(
        "Table II", "General Optimization Levels", ["", "A", "B", "C"], rows,
    )


def table3() -> Experiment:
    """Table III: algorithm-specific optimization levels."""
    rows = [[name, *marks] for name, marks in table_iii_rows()]
    return Experiment(
        "Table III", "Algorithm-Specific Optimizations", ["", "D", "E", "F"], rows,
    )


def table4(ctx: ExperimentContext | None = None) -> Experiment:
    """Table IV: MS-SSIM quality of every level vs the CPU double
    ground truth (background model image and foreground masks)."""
    ctx = ctx or ExperimentContext()
    frames = ctx.frames()
    eval_start = ctx.warmup

    # Ground truth: the double-precision CPU (sorted) implementation.
    reference = MoGVectorized(ctx.shape, ctx.params, variant="sorted")
    ref_masks = reference.apply_sequence(frames)
    ref_bg = reference.background_image()

    # MS-SSIM needs >= 11 * 2^(scales-1) pixels per side.
    side = min(ctx.shape)
    scales = 5
    while scales > 1 and side < 11 * 2 ** (scales - 1):
        scales -= 1
    from ..metrics.ms_ssim import DEFAULT_WEIGHTS
    weights = DEFAULT_WEIGHTS[:scales]

    bg_row: list[object] = ["Background"]
    fg_row: list[object] = ["Foreground"]
    for level in "ABCDEF":
        result = ctx.run(level)
        masks = result.masks
        fg_scores = [
            ms_ssim(
                masks[t].astype(np.uint8) * 255,
                ref_masks[t].astype(np.uint8) * 255,
                weights=weights,
            )
            for t in range(eval_start, len(frames))
        ]
        # Background image via the bit-identical CPU variant of the
        # level's kernel (the equivalence is enforced by tests), which
        # avoids keeping every simulated pipeline alive.
        variant = OptimizationLevel.parse(level).spec.mog_variant
        cpu = MoGVectorized(ctx.shape, ctx.params, variant=variant)
        cpu.apply_sequence(frames)
        bg = cpu.background_image()
        bg_row.append(f"{ms_ssim(bg, ref_bg, weights=weights) * 100:.0f}%")
        fg_row.append(f"{float(np.mean(fg_scores)) * 100:.0f}%")
    paper_bg = ["paper"] + [f"{PAPER_TABLE4[lv][0]}%" for lv in "ABCDEF"]
    paper_fg = ["paper"] + [f"{PAPER_TABLE4[lv][1]}%" for lv in "ABCDEF"]
    return Experiment(
        "Table IV", "Result Quality for Different Optimizations",
        ["", "A", "B", "C", "D", "E", "F"],
        [bg_row, paper_bg, fg_row, paper_fg],
        notes=(
            "Every level is bit-identical to the CPU ground truth in this "
            "reproduction: the no-sort/predicated/regopt restructurings are "
            "provably decision-preserving (repro.mog.update, step 6 note). "
            "The paper's 95-97% foreground readings stem from compiler/FP "
            "artifacts on its platform; its headline claim — optimizations "
            "have practically no quality impact — holds here exactly."
        ),
    )


# ----------------------------------------------------------------------
# Figures
# ----------------------------------------------------------------------
def fig6(ctx: ExperimentContext | None = None) -> Experiment:
    """Fig 6: architecture impact of the general optimizations."""
    ctx = ctx or ExperimentContext()
    from .harness import PAPER_SCALE

    pixel_ratio = PAPER_SCALE.num_pixels / (ctx.shape[0] * ctx.shape[1])
    rows = []
    for level in "ABC":
        r = ctx.run(level)
        m = r.metrics()
        rows.append(
            [
                level,
                f"{m['memory_access_efficiency'] * 100:.1f}%",
                f"{m['store_transactions_per_frame'] * pixel_ratio / 1e6:.2f}M",
                int(m["registers_per_thread"]),
                f"{m['occupancy'] * 100:.0f}%",
            ]
        )
    return Experiment(
        "Fig 6", "Architecture impact of general optimizations",
        ["level", "mem efficiency", "store tx/frame (full HD)", "regs", "occupancy"],
        rows,
        notes=(
            "paper: mem efficiency 17% (A) -> 78% (B); store transactions "
            "13.3M -> 2.0M at full HD; regs 30/36/36; occupancy drops B->C "
            "era values 67%/58%."
        ),
    )


def fig7(ctx: ExperimentContext | None = None) -> Experiment:
    """Fig 7: architecture impact of algorithm-specific optimizations."""
    ctx = ctx or ExperimentContext()
    from .harness import PAPER_SCALE

    pixel_ratio = PAPER_SCALE.num_pixels / (ctx.shape[0] * ctx.shape[1])
    rows = []
    for level in "CDEF":
        r = ctx.run(level)
        m = r.metrics()
        rows.append(
            [
                level,
                f"{m['branches_per_frame'] * pixel_ratio / 1e6:.2f}M",
                f"{m['branch_efficiency'] * 100:.2f}%",
                f"{m['memory_access_efficiency'] * 100:.1f}%",
                f"{m['transactions_per_frame'] * pixel_ratio / 1e6:.2f}M",
                int(m["registers_per_thread"]),
                f"{m['occupancy'] * 100:.0f}%",
            ]
        )
    return Experiment(
        "Fig 7", "Architecture impact of algorithm-specific optimizations",
        ["level", "branches/frame (full HD)", "branch eff", "mem eff",
         "tx/frame (full HD)", "regs", "occupancy"],
        rows,
        notes=(
            "paper: branches 6.7M -> 6.2M (C -> D), branch efficiency "
            "rising to 99.5% at E; regs 36/32/33/31; occupancy 52/61/56/65%."
        ),
    )


def fig8(ctx: ExperimentContext | None = None) -> Experiment:
    """Fig 8: speedup + efficiency summary over all levels."""
    ctx = ctx or ExperimentContext()
    rows = []
    for level in "ABCDEF":
        r = ctx.run(level)
        m = r.metrics()
        rows.append(
            [
                level,
                f"{r.speedup:.1f}x",
                f"{PAPER_SPEEDUPS[level]:.0f}x",
                f"{m['branch_efficiency'] * 100:.1f}%",
                f"{m['memory_access_efficiency'] * 100:.1f}%",
                f"{m['occupancy'] * 100:.0f}%",
            ]
        )
    return Experiment(
        "Fig 8", "Speedup and efficiency per optimization level",
        ["level", "speedup", "paper", "branch eff", "mem eff", "occupancy"],
        rows,
    )


def fig10(
    ctx: ExperimentContext | None = None,
    group_sizes: tuple[int, ...] = (1, 2, 4, 8, 16, 32),
) -> Experiment:
    """Fig 10: tiled (level G) performance over frame-group size."""
    ctx = ctx or ExperimentContext()
    from ..gpusim.dma import transfer_time
    from .harness import PAPER_SCALE

    rows = []
    for g in group_sizes:
        r = ctx.run("G", frame_group=g)
        m = r.metrics()
        # Latency until the *first* frame of a group is delivered: the
        # whole group must be transferred in, processed, and its mask
        # copied out (the paper: "an increased latency until a frame is
        # completely processed as frame group size increases").
        latency = (
            transfer_time(PAPER_SCALE.num_pixels * g)
            + r.kernel_time_per_frame * g
            + transfer_time(PAPER_SCALE.num_pixels * g)
        )
        rows.append(
            [
                g,
                f"{r.speedup:.1f}x",
                f"{m['memory_access_efficiency'] * 100:.1f}%",
                f"{m['occupancy'] * 100:.1f}%",
                f"{latency * 1e3:.0f} ms",
            ]
        )
    return Experiment(
        "Fig 10", "Tiled MoG over frame-group size",
        ["group", "speedup", "mem eff", "occupancy", "frame latency"],
        rows,
        notes=(
            "paper: speedup peaks around group 8 (101x) and does not "
            "improve further; memory efficiency falls >90% -> <60%; "
            "occupancy ~40%; per-frame latency grows with the group."
        ),
    )


def fig11(ctx: ExperimentContext | None = None) -> Experiment:
    """Fig 11: 3 vs 5 Gaussian components."""
    ctx = ctx or ExperimentContext()
    rows = []
    for level in "ABCDEF":
        r3 = ctx.run(level, num_gaussians=3)
        r5 = ctx.run(level, num_gaussians=5)
        m5 = r5.metrics()
        rows.append(
            [
                level,
                f"{r3.speedup:.1f}x",
                f"{r5.speedup:.1f}x",
                f"{m5['branch_efficiency'] * 100:.1f}%",
                f"{m5['memory_access_efficiency'] * 100:.1f}%",
                f"{m5['occupancy'] * 100:.0f}%",
            ]
        )
    return Experiment(
        "Fig 11", "Effect of the number of Gaussian components",
        ["level", "3G speedup", "5G speedup", "5G branch eff",
         "5G mem eff", "5G occupancy"],
        rows,
        notes="paper anchors: 5G general opts ~44x, algorithm-specific ~92x.",
    )


def fig12(ctx: ExperimentContext | None = None) -> Experiment:
    """Fig 12: double vs single precision."""
    ctx = ctx or ExperimentContext()
    rows = []
    for level in "ABCDEF":
        rd = ctx.run(level, dtype="double")
        rf = ctx.run(level, dtype="float")
        mf = rf.metrics()
        rows.append(
            [
                level,
                f"{rd.speedup:.1f}x",
                f"{rf.speedup:.1f}x",
                f"{mf['branch_efficiency'] * 100:.1f}%",
                f"{mf['memory_access_efficiency'] * 100:.1f}%",
                f"{mf['occupancy'] * 100:.0f}%",
            ]
        )
    return Experiment(
        "Fig 12", "Effect of the data type",
        ["level", "double speedup", "float speedup", "float branch eff",
         "float mem eff", "float occupancy"],
        rows,
        notes=(
            "paper: float reaches ~105x at E/F; register reduction (F) "
            "gives no extra gain in float because registers stop being "
            "the occupancy limiter."
        ),
    )


def embedded_study(ctx: ExperimentContext | None = None) -> Experiment:
    """The paper's future work (§VI), realised: MoG on an embedded GPU.

    Runs the fully-optimized level-F kernel on a Tegra-K1-class
    integrated GPU (:data:`repro.gpusim.device.TEGRA_K1`) and asks the
    question the paper poses: which resolution/precision points reach
    real time, and what has to be traded away? Transfers are zero-copy
    (shared DRAM), but bandwidth is ~10% of the discrete card's and
    double precision is nearly unusable — exactly the regime where the
    paper predicts quality/speed trade-offs.
    """
    ctx = ctx or ExperimentContext()
    from ..gpusim.device import TEGRA_K1
    from .harness import WorkloadScale, extrapolate

    resolutions = {
        "QVGA 320x240": (240, 320),
        "VGA 640x480": (480, 640),
        "720p": (720, 1280),
        "1080p": (1080, 1920),
    }
    rows = []
    for dtype in ("float", "double"):
        run_config = RunConfig(
            height=ctx.shape[0], width=ctx.shape[1], dtype=dtype
        )
        pipeline = HostPipeline(
            ctx.shape, ctx.params, OptimizationLevel.F,
            run_config=run_config, device=TEGRA_K1,
        )
        pipeline.process(ctx.frames())
        report = pipeline.report()
        for name, (h, w) in resolutions.items():
            scale = WorkloadScale(h * w, 120)
            _, total = extrapolate(
                report, scale, device=TEGRA_K1,
                warmup_launches=min(ctx.warmup, ctx.num_frames - 1),
            )
            fps = scale.num_frames / total
            verdict = "60 Hz" if fps >= 60 else ("30 Hz" if fps >= 30 else "below RT")
            rows.append([name, dtype, f"{fps:.1f}", verdict])
    return Experiment(
        "Embedded (future work)",
        "Level-F MoG throughput on a Tegra-K1-class integrated GPU",
        ["resolution", "dtype", "fps", "real-time?"],
        rows,
        notes=(
            "The paper's §VI expectation reproduces: the embedded part "
            "cannot carry full-HD MoG in double precision; real time "
            "requires single precision and/or a reduced resolution — "
            "quality traded for speed."
        ),
    )


def camera_jitter_study(ctx: ExperimentContext | None = None) -> Experiment:
    """Extension: the cost of violating the fixed-camera assumption.

    The paper scopes MoG to "deployments with fixed camera position"
    (§III-A). This experiment quantifies why: sustained false-positive
    rate on an object-free textured scene as camera shake grows.
    """
    ctx = ctx or ExperimentContext()
    from ..mog.vectorized import MoGVectorized
    from ..video.synthetic import SceneConfig, SyntheticVideo

    rows = []
    for jitter in (0, 1, 2, 4):
        cfg = SceneConfig(
            height=96, width=96, noise_sd=2.0,
            background_smoothness=6, jitter_px=jitter, seed=2,
        )
        video = SyntheticVideo(cfg)
        mog = MoGVectorized((96, 96), ctx.params)
        rates = [mog.apply(video.frame(t)).mean() for t in range(30)]
        sustained = float(np.mean(rates[-8:]))
        rows.append(
            [
                f"{jitter} px",
                f"{sustained * 100:.2f}%",
                "ok" if sustained < 0.005 else (
                    "degraded" if sustained < 0.02 else "unusable"
                ),
            ]
        )
    return Experiment(
        "Camera jitter (extension)",
        "Sustained false-positive rate vs camera shake (no true foreground)",
        ["jitter", "false-positive rate", "verdict"],
        rows,
        notes=(
            "MoG absorbs ~1 px of shake into its multimodal background; "
            "beyond that, scene edges turn into permanent foreground — "
            "the reason the paper (and MoG deployments) require a fixed "
            "camera."
        ),
    )


def cpu_baselines() -> Experiment:
    """§IV-A / §V-C: the CPU baseline model vs the paper's numbers."""
    model = CpuTimeModel()
    rows = []
    for (k, dtype, mode), paper_time in PAPER_BASELINES.items():
        got = model.paper_reference_time(k, dtype, mode)
        rows.append(
            [
                f"{k}G {dtype} {mode.value}",
                f"{got:.1f}s",
                f"{paper_time:.1f}s",
            ]
        )
    return Experiment(
        "CPU baselines", "CPU model vs paper (450 full-HD frames)",
        ["configuration", "model", "paper"], rows,
    )


def fusion_counters(ctx: ExperimentContext | None = None) -> Experiment:
    """Fusion pass before/after: global-memory transactions of the
    unfused post-kernel chain vs the fused kernel, per cumulative
    stage set.  Small fixed workload — the point is the counter delta,
    not throughput."""
    from ..core.variants import custom_level
    from ..kernels.ir import FusionPass

    shape = (32, 48)
    num_frames = 6
    video = evaluation_scene(height=shape[0], width=shape[1], seed=7)
    frames = [video.frame(t) for t in range(num_frames)]
    run_config = RunConfig(
        height=shape[0], width=shape[1], profile_every=1
    )

    def tx_per_frame(**kw):
        pipe = HostPipeline(
            shape, PAPER_BENCH_PARAMS, run_config=run_config, **kw
        )
        _, report = pipe.process(frames)
        return report.counters_per_frame.transactions

    cumulative = [
        ("threshold",),
        ("threshold", "shadow"),
        ("threshold", "shadow", "histogram"),
    ]
    base = OptimizationLevel.F
    rows = []
    for stages in cumulative:
        unfused = tx_per_frame(level=base, post_stages=stages)
        fused_level = custom_level(
            base.spec.passes + (FusionPass(stages),),
            name="F+fusion:" + "+".join(stages),
        )
        fused = tx_per_frame(level=fused_level)
        rows.append(
            [
                " + ".join(stages),
                f"{unfused:.0f}",
                f"{fused:.0f}",
                f"{unfused - fused:.0f}",
            ]
        )
    return Experiment(
        "Fusion",
        "Global-memory transactions: unfused post chain vs fused kernel",
        ["fused stages (cumulative)", "unfused tx/frame",
         "fused tx/frame", "eliminated/frame"],
        rows,
        notes=(
            "every fused stage eliminates at least one full frame of "
            "global read+write vs the standalone post-kernel chain "
            f"(level F, {shape[0]}x{shape[1]} px, {num_frames} frames)"
        ),
    )


def models_matrix(ctx: ExperimentContext | None = None) -> Experiment:
    """Extension: model family x level x scenario quality matrix.

    Scores both background-model families (MoG and the dual-mode
    single Gaussian) on the stressor scenes against exact ground
    truth; see :mod:`repro.bench.quality` for the cell definition.
    """
    from .quality import MATRIX_LEVELS, quality_matrix

    matrix = quality_matrix()
    by_key = {
        (c["model"], c["scenario"], c["level"]): c
        for c in matrix["cells"]
    }
    rows = []
    for model in matrix["models"]:
        for scenario in matrix["scenarios"]:
            row: list[object] = [model, scenario]
            for level in matrix["levels"]:
                c = by_key[(model, scenario, level)]
                row.append(f"{c['f1']:.3f} / {c['ms_ssim']:.3f}")
            rows.append(row)
    return Experiment(
        "Model matrix (extension)",
        "F1 / MS-SSIM vs ground truth per model family, level, scenario",
        ["model", "scenario", *(f"level {lv}" for lv in MATRIX_LEVELS)],
        rows,
        notes=(
            f"{matrix['shape'][0]}x{matrix['shape'][1]} px, "
            f"{matrix['num_frames']} frames, first {matrix['warmup']} "
            "excluded as warmup; raw masks (no post-processing). Level "
            "columns agree within a family because every pass stack is "
            "decision-preserving; scenario rows separate the families."
        ),
    )


#: Every experiment, for the EXPERIMENTS.md generator and smoke tests.
ALL_EXPERIMENTS = {
    "table1": table1,
    "table2": table2,
    "table3": table3,
    "table4": table4,
    "fig6": fig6,
    "fig7": fig7,
    "fig8": fig8,
    "fig10": fig10,
    "fig11": fig11,
    "fig12": fig12,
    "cpu_baselines": cpu_baselines,
    "embedded": embedded_study,
    "jitter": camera_jitter_study,
    "fusion": fusion_counters,
    "models": models_matrix,
}
