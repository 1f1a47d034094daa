"""Machine-readable throughput snapshots (``BENCH_throughput.json``).

One JSON file at the repo root records frames/s for each execution
path — CPU backend, simulator profiled tier, simulator with sampled
profiling — so the repo's perf trajectory can be tracked across
commits and CI runs without parsing benchmark logs.

The file is a merge target: every measurement run updates its own
entries and leaves the rest in place, so partial runs (e.g. the CI
smoke job measuring only the sim tiers) never erase other paths'
numbers. Produce it with ``python tools/bench_snapshot.py`` or the
benchmark ``benchmarks/test_sim_throughput.py::test_two_tier_speedup``.
"""

from __future__ import annotations

import json
import os
import time
from pathlib import Path

from ..config import FULL_HD, MoGParams, RunConfig
from ..core.subtractor import BackgroundSubtractor
from ..errors import ConfigError

SNAPSHOT_NAME = "BENCH_throughput.json"

#: Environment override for where the snapshot file lives.
BENCH_DIR_ENV = "REPRO_BENCH_DIR"


def resolve_snapshot_dir() -> Path:
    """Directory ``BENCH_throughput.json`` is read from / written to.

    Resolution order:

    1. the :data:`BENCH_DIR_ENV` (``REPRO_BENCH_DIR``) environment
       variable, created if absent — CI and installed-package runs
       point this wherever they like;
    2. the first ancestor of the current working directory (itself
       included) that looks like a repo checkout (has ``pyproject.toml``
       and ``src/repro``).

    Resolving from ``__file__`` is wrong once the package is installed:
    that lands the snapshot inside ``site-packages``. With no override
    and no checkout in sight this raises a clear
    :class:`~repro.errors.ConfigError` instead.
    """
    override = os.environ.get(BENCH_DIR_ENV)
    if override:
        path = Path(override).expanduser().resolve()
        path.mkdir(parents=True, exist_ok=True)
        return path
    cwd = Path.cwd().resolve()
    for candidate in (cwd, *cwd.parents):
        if (candidate / "pyproject.toml").is_file() and (
            candidate / "src" / "repro"
        ).is_dir():
            return candidate
    raise ConfigError(
        f"cannot locate a repo checkout above {cwd} to hold "
        f"{SNAPSHOT_NAME}; set {BENCH_DIR_ENV} to choose a directory "
        "explicitly"
    )

#: Frame geometry all snapshot entries share — small enough for CI,
#: large enough that per-frame work dwarfs per-launch overhead.
SNAPSHOT_SHAPE = (120, 160)

#: MoG parameters used for every measurement (matches the benchmark
#: suite's PAPER_BENCH_PARAMS choice of a fast-adapting model).
SNAPSHOT_PARAMS = MoGParams(learning_rate=0.08, initial_sd=8.0)


def _frames(num_frames: int, shape=SNAPSHOT_SHAPE):
    from ..video.scenes import evaluation_scene

    video = evaluation_scene(height=shape[0], width=shape[1])
    return [video.frame(t) for t in range(num_frames)]


#: Warmup frames excluded from the timed window per backend: one frame
#: covers model initialisation (kernel compilation happens at model
#: construction and is reported as ``compile_s``).
DEFAULT_WARMUP_FRAMES = {"cpu": 1, "sim": 1, "jit": 1}


def measure_fps(
    backend: str,
    profile_every: int = 1,
    num_frames: int = 17,
    level: str = "F",
    shape=SNAPSHOT_SHAPE,
    integrity=None,
    warmup_frames: int | None = None,
    dtype: str = "double",
    model: str | None = None,
) -> dict:
    """Measure frames/s for one configuration.

    ``warmup_frames`` leading frames (default per
    :data:`DEFAULT_WARMUP_FRAMES`) are processed before the timed
    window opens, so model initialisation never pollutes the
    steady-state rate. The entry records the excluded time as
    ``warmup_s``, the kernel compilation at construction as
    ``compile_s`` and, for the cpu backend, whether the model ran as a
    compiled kernel as ``compiled``. ``integrity`` is an optional
    :class:`~repro.config.IntegrityPolicy` enabling the mixture-state
    guard — the "ECC-on" software analogue, whose per-frame validation
    cost the snapshot tracks against the unguarded path. ``model``
    picks the background-model family (default MoG). Returns a
    snapshot entry dict.
    """
    if warmup_frames is None:
        warmup_frames = DEFAULT_WARMUP_FRAMES.get(backend, 1)
    if not 0 < warmup_frames < num_frames:
        raise ConfigError(
            f"need 0 < warmup_frames < num_frames, got "
            f"{warmup_frames} / {num_frames}"
        )
    frames = _frames(num_frames, shape)
    run_config = RunConfig(height=shape[0], width=shape[1], dtype=dtype)
    bs = BackgroundSubtractor(
        shape,
        params=SNAPSHOT_PARAMS,
        level=level,
        backend=backend,
        run_config=run_config,
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


def measure_server_fps(
    num_streams: int = 4,
    num_frames: int = 17,
    workers: int = 2,
    shape=SNAPSHOT_SHAPE,
) -> dict:
    """Aggregate frames/s of a :class:`~repro.serve.StreamServer`
    multiplexing ``num_streams`` synthetic streams over ``workers``
    worker threads.

    The first frame of every stream (model initialisation) runs before
    the timed region. The rate is aggregate: frames completed across
    all streams per wall-clock second.
    """
    from ..config import ServeConfig
    from ..serve import StreamServer

    frames = _frames(num_frames, shape)
    stream_ids = [f"cam{i}" for i in range(num_streams)]
    server = StreamServer(
        shape,
        params=SNAPSHOT_PARAMS,
        serve=ServeConfig(workers=workers, queue_capacity=4),
    )
    try:
        for sid in stream_ids:
            server.add_stream(sid)
            server.submit(sid, frames[0])
        server.drain()
        start = time.perf_counter()
        for frame in frames[1:]:
            for sid in stream_ids:
                server.submit(sid, frame)
        server.drain()
        elapsed = time.perf_counter() - start
    finally:
        server.close(drain=False)
    timed = (len(frames) - 1) * num_streams
    return {
        "backend": "cpu",
        "level": "F",
        "tier": f"server_{num_streams}streams_{workers}workers",
        "profile_every": None,
        "frames_per_s": round(timed / elapsed, 2),
        "frames_timed": timed,
        "frame_shape": list(shape),
        "num_streams": num_streams,
        "workers": workers,
    }


def measure_sharded_fps(
    num_streams: int = 64,
    num_frames: int = 17,
    shards: int = 2,
    workers: int = 1,
    shape=SNAPSHOT_SHAPE,
    attempts: int = 3,
) -> dict:
    """Aggregate frames/s of a
    :class:`~repro.serve.ShardedStreamServer` multiplexing
    ``num_streams`` synthetic streams over ``shards`` shard processes.

    Timed the same way as :func:`measure_server_fps` (first frame of
    every stream runs before the timed region), plus the gateway's
    submit-to-result latency distribution (``latency_p50_s`` /
    ``latency_p99_s``). The measurement is the best of ``attempts``
    runs: process scheduling noise on small shared containers dwarfs
    the per-run variance, and the least-interfered run is the one that
    reflects the tier itself.
    """
    import numpy as np

    from ..config import ServeConfig
    from ..serve import ShardedStreamServer

    frames = _frames(num_frames, shape)
    stream_ids = [f"cam{i}" for i in range(num_streams)]
    timed = (len(frames) - 1) * num_streams
    best: dict | None = None
    for _ in range(max(1, attempts)):
        server = ShardedStreamServer(
            shape,
            params=SNAPSHOT_PARAMS,
            serve=ServeConfig(
                workers=workers, queue_capacity=32,
                batch_frames=16, shards=shards,
            ),
            frame_dtype=np.uint8,  # the synthetic scene's native dtype
        )
        try:
            for sid in stream_ids:
                server.add_stream(sid)
                server.submit(sid, frames[0])
            server.drain(timeout_s=600)
            start = time.perf_counter()
            for frame in frames[1:]:
                for sid in stream_ids:
                    server.submit(sid, frame)
            server.drain(timeout_s=600)
            elapsed = time.perf_counter() - start
            hist = server.registry.histogram("server.latency_s")
            p50, p99 = hist.quantile(0.5), hist.quantile(0.99)
        finally:
            server.close(drain=False)
        fps = timed / elapsed
        if best is None or fps > best["frames_per_s"]:
            best = {
                "backend": "cpu",
                "level": "F",
                "tier": (
                    f"server_sharded_{num_streams}streams_"
                    f"{shards}shards"
                ),
                "profile_every": None,
                "frames_per_s": round(fps, 2),
                "frames_timed": timed,
                "frame_shape": list(shape),
                "num_streams": num_streams,
                "shards": shards,
                "workers": workers,
                "latency_p50_s": round(p50, 4),
                "latency_p99_s": round(p99, 4),
            }
    return best


def measure_controlled_overload(
    num_streams: int = 8,
    num_frames: int = 48,
    workers: int = 2,
    shape=SNAPSHOT_SHAPE,
    max_recover_windows: int = 16,
) -> dict:
    """Sustained frames/s of a 2x-oversubscribed ``StreamServer`` with
    the closed-loop controller on, against the same load uncontrolled.

    ``num_streams`` streams share ``workers`` workers behind short
    queues, so the offered load exceeds capacity and queues sit full
    for the whole burst. Uncontrolled, the server can only block
    submitters at full quality; controlled, the governor walks each
    stream down the degradation ladder (relax guards -> cheaper level
    -> cheaper model -> shed) and the overflow is counted in
    ``frames_shed`` instead of latency. ``frames_per_s`` counts only
    the frames that produced a result (``frames_timed``) over
    ``elapsed_s``; ``frames_offered`` is every frame submitted, shed
    ones included.
    After the burst the load drops to a trickle and the entry reports
    ``recover_frames``: per-stream frames until every stream is back at
    the baseline rung (``recovered`` is the honesty marker for hitting
    the window cap instead).
    """
    from ..config import ControllerConfig, ServeConfig
    from ..serve import StreamServer

    frames = _frames(num_frames, shape)
    stream_ids = [f"cam{i}" for i in range(num_streams)]
    controller_cfg = ControllerConfig(
        window_frames=8, degrade_after=1, recover_after=2,
        queue_high=0.5, queue_low=0.25,
    )

    def _burst(controller: ControllerConfig | None) -> dict:
        server = StreamServer(
            shape,
            params=SNAPSHOT_PARAMS,
            serve=ServeConfig(
                workers=workers, queue_capacity=4, controller=controller,
            ),
        )
        result: dict = {}
        try:
            for sid in stream_ids:
                server.add_stream(sid, scenario="static")
                server.submit(sid, frames[0])
            server.drain()
            for sid in stream_ids:
                server.results(sid)  # the untimed first frames
            start = time.perf_counter()
            for frame in frames[1:]:
                for sid in stream_ids:
                    server.submit(sid, frame)
            server.drain()
            elapsed = time.perf_counter() - start
            served = sum(len(server.results(sid)) for sid in stream_ids)
            snap = server.registry.snapshot()
            result["frames_per_s"] = round(served / elapsed, 2)
            result["frames_timed"] = served
            result["elapsed_s"] = round(elapsed, 4)
            result["frames_shed"] = int(
                snap["counters"].get("server.frames_shed", 0)
            )
            result["transitions"] = int(
                snap["counters"].get("server.controller.transitions", 0)
            )
            # Recovery phase: a trickle of one window per round until
            # every stream is back at rung 0 (controller only).
            recover_frames = 0
            recovered = controller is None
            if controller is not None:
                for _ in range(max_recover_windows):
                    if all(
                        s["controller_rung"] == 0
                        for s in server.stream_status()
                    ):
                        recovered = True
                        break
                    for _ in range(controller.window_frames):
                        for sid in stream_ids:
                            server.submit(sid, frames[-1])
                        server.drain()
                    recover_frames += controller.window_frames
            result["recover_frames"] = recover_frames
            result["recovered"] = recovered
        finally:
            server.close(drain=False)
        return result

    on = _burst(controller_cfg)
    off = _burst(None)
    return {
        "backend": "cpu",
        "level": "F",
        "tier": (
            f"server_controlled_overload_{num_streams}streams_"
            f"{workers}workers"
        ),
        "profile_every": None,
        "frames_per_s": on["frames_per_s"],
        "frames_per_s_uncontrolled": off["frames_per_s"],
        "frames_timed": on["frames_timed"],
        "frames_offered": (len(frames) - 1) * num_streams,
        "elapsed_s": on["elapsed_s"],
        "frame_shape": list(shape),
        "num_streams": num_streams,
        "workers": workers,
        "frames_shed": on["frames_shed"],
        "transitions": on["transitions"],
        "recover_frames": on["recover_frames"],
        "recovered": on["recovered"],
    }


def update_snapshot(entries: dict, path: Path | str | None = None) -> Path:
    """Merge ``entries`` (name -> entry dict) into the snapshot file.

    Existing entries under other names are preserved; the file is
    created if absent. Returns the path written.
    """
    path = (
        Path(path) if path is not None
        else resolve_snapshot_dir() / SNAPSHOT_NAME
    )
    data: dict = {"schema": 1, "entries": {}}
    if path.exists():
        try:
            loaded = json.loads(path.read_text())
            if isinstance(loaded.get("entries"), dict):
                data = loaded
        except (json.JSONDecodeError, OSError):
            pass  # unreadable snapshot: rewrite from scratch
    data["schema"] = 1
    data["entries"].update(entries)
    data["entries"] = dict(sorted(data["entries"].items()))
    path.write_text(json.dumps(data, indent=2) + "\n")
    return path


def run_snapshot(
    quick: bool = False, path: Path | str | None = None
) -> dict:
    """Measure every standard configuration and update the snapshot.

    ``quick`` shortens each measurement (CI smoke mode). Returns the
    measured entries.
    """
    from ..config import IntegrityPolicy

    num_sim = 9 if quick else 33
    num_cpu = 33 if quick else 129
    num_srv = 9 if quick else 33
    num_hd = 5 if quick else 9
    entries = {
        "cpu": measure_fps("cpu", num_frames=num_cpu),
        # The soft-error protection path: every frame's mixture state is
        # validated (and would be repaired) before classification. The
        # gap to "cpu" is the ECC-on overhead the docs quote.
        "cpu_ecc_on": measure_fps(
            "cpu", num_frames=num_cpu,
            integrity=IntegrityPolicy(mode="repair"),
        ),
        "sim_profiled": measure_fps("sim", profile_every=1, num_frames=num_sim),
        "sim_sampled_8": measure_fps("sim", profile_every=8, num_frames=num_sim),
        # A novel pass combination the paper never measured: predicated
        # execution alone on the level-A base (no layout change, no
        # sort elimination) — exercises the custom-level path end to end.
        "sim_custom_pred_only": measure_fps(
            "sim", profile_every=8, num_frames=num_sim,
            level="A+predication",
        ),
        # The fusion pass: MoG update + threshold/shadow/class-histogram
        # consumers welded into one kernel, so the downstream analytics
        # cost no extra frame traffic.
        "sim_fused": measure_fps(
            "sim", profile_every=8, num_frames=num_sim,
            level="F+fusion",
        ),
        "server_4streams": measure_server_fps(
            num_streams=4, num_frames=num_srv
        ),
        # The sharded tier at its target scale: 64 streams over shard
        # processes, with gateway submit->result latency percentiles.
        "server_sharded_64streams": measure_sharded_fps(
            num_streams=64, num_frames=num_srv,
            attempts=2 if quick else 3,
        ),
        # The closed-loop controller under 2x overload: same burst with
        # the governor on vs off, plus shed/recovery accounting.
        "server_controlled_overload": measure_controlled_overload(
            num_frames=17 if quick else 48,
            max_recover_windows=6 if quick else 16,
        ),
        # The second model family, measured in the same container run
        # as "cpu" so the dmsg-vs-mog frames/s ratio compares like with
        # like (one mode + one candidate per pixel vs K Gaussians).
        "dmsg": measure_fps("cpu", num_frames=num_cpu, model="dmsg"),
        # The paper's target geometry.
        "cpu_fullhd": measure_fps(
            "cpu", num_frames=num_hd, shape=FULL_HD,
        ),
        "dmsg_fullhd": measure_fps(
            "cpu", num_frames=num_hd, shape=FULL_HD, model="dmsg",
        ),
    }
    update_snapshot(entries, path)
    return entries
