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
    masks."""
    from repro.bench.harness import measure_fps

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


def test_fusion_transaction_reduction(benchmark):
    """The fusion pass must strictly cut global-memory traffic vs the
    standalone post-kernel chain, eliminating at least one full frame
    of uint8 read+write (2 bytes/pixel) per fused stage."""
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


def test_native_speedup(benchmark):
    """The compiled per-pixel kernels (:mod:`repro.cpu.native`) must
    serve at least 2x the frames/s of the NumPy block loop they
    replace — the same engine with its kernel dropped, so the masks are
    the same bits — for MoG level F and for DMSG, at 240x320 in quick
    mode and at the paper's full-HD geometry otherwise."""
    import time

    from repro.config import FULL_HD

    shape = (240, 320) if QUICK else FULL_HD
    video = evaluation_scene(height=shape[0], width=shape[1])
    frames = [video.frame(t) for t in range(8 if QUICK else 5)]

    def seconds(model, compiled):
        bs = BackgroundSubtractor(
            shape, params=PAPER_BENCH_PARAMS, level="F", model=model,
            backend="cpu",
        )
        assert bs.compiled, "no C compiler: the kernels did not build"
        if not compiled:
            bs._impl._kernel = None
        bs.apply(frames[0])
        start = time.perf_counter()
        for f in frames[1:]:
            bs.apply(f)
        return time.perf_counter() - start

    def run():
        # Best of three alternating pairs: a CI neighbour stealing the
        # CPU mid-measurement only ever slows a sample down.
        samples = {"mog": ([], []), "dmsg": ([], [])}
        for _ in range(3):
            for model, (numpy_s, native_s) in samples.items():
                numpy_s.append(seconds(model, False))
                native_s.append(seconds(model, True))
        return {m: (min(a), min(b)) for m, (a, b) in samples.items()}

    times = benchmark.pedantic(run, rounds=1, iterations=1)
    for model, (numpy_s, native_s) in times.items():
        speedup = numpy_s / native_s
        # Measured 4.8x (MoG) and 5.4x (DMSG) at 240x320, 3.7x and
        # 5.4x at 1080x1920, on a 2-vCPU x86-64 container with gcc 12.
        assert speedup >= 2.0, (
            f"{model}: compiled kernel only {speedup:.2f}x the NumPy "
            f"block loop at {shape}"
        )


def test_integrity_guard_cheaper_than_model(benchmark):
    """The mixture-state integrity guard must cost less than the
    compiled model update it guards (the serving benchmarks run
    ``IntegrityPolicy(mode="repair")`` on every frame): one check of a
    clean, converged 120x160 float64 state against one engine update,
    median of 7 alternating runs, for MoG level F and for DMSG."""
    import statistics
    import time

    from repro.config import IntegrityPolicy
    from repro.faults import find_corrupt_pixels

    frames = _frames(40)
    policy = IntegrityPolicy(mode="repair")

    def run():
        out = {}
        for model in ("mog", "dmsg"):
            bs = BackgroundSubtractor(
                SHAPE, params=PAPER_BENCH_PARAMS, level="F", model=model,
                backend="cpu",
            )
            assert bs.compiled, "no C compiler: the kernels did not build"
            engine = bs._impl
            for f in frames[:30]:
                engine.apply(f)
            guard_s, update_s = [], []
            for _ in range(7):
                start = time.perf_counter()
                for f in frames[30:]:
                    engine.apply(f)
                update_s.append((time.perf_counter() - start) / 10)
                start = time.perf_counter()
                for _ in range(10):
                    report = find_corrupt_pixels(
                        engine.state, PAPER_BENCH_PARAMS, policy, model=model
                    )
                guard_s.append((time.perf_counter() - start) / 10)
            assert report.clean
            out[model] = (
                statistics.median(guard_s), statistics.median(update_s)
            )
        return out

    times = benchmark.pedantic(run, rounds=1, iterations=1)
    for model, (guard_s, update_s) in times.items():
        assert guard_s < update_s, (
            f"{model}: integrity check {guard_s * 1e3:.3f} ms vs model "
            f"update {update_s * 1e3:.3f} ms at {SHAPE}"
        )


def test_dmsg_beats_mog_cpu(benchmark):
    """The dual-mode single Gaussian family must out-run MoG at the
    same level on the cpu backend: it carries two modes per pixel
    (background + candidate) instead of K sorted Gaussians, so the
    per-frame arithmetic and memory traffic are strictly smaller.
    Paired rounds (mog then dmsg back to back, best of three) defend
    against CI neighbours, as in test_two_tier_speedup."""
    from repro.bench.harness import measure_fps

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


def test_post_stage_speedup(benchmark):
    """The pipeline's post stage (clean_mask + connected_components
    with the SurveillancePipeline cleaner's settings) must take under
    half the time of the scipy.ndimage composition it replaced
    (binary_closing, label, find_objects, bincount centroids), on a
    real model raw mask of the static scene, with identical output."""
    import time

    from scipy import ndimage

    from repro.post import clean_mask, connected_components
    from repro.video.scenes import static_scene

    shape = (240, 320) if QUICK else (1080, 1920)
    video = static_scene(*shape, seed=1)
    bs = BackgroundSubtractor(shape, level="F", backend="cpu")
    for frame in video.frames(8):
        raw = bs.apply(frame)
    yy, xx = np.mgrid[0:5, 0:5]
    disk = (yy - 2) ** 2 + (xx - 2) ** 2 <= 4

    def scipy_post(mask):
        mask = ndimage.binary_closing(mask, structure=disk)
        labels, _ = ndimage.label(mask)
        keep = np.bincount(labels.reshape(-1)) >= 6
        keep[0] = False
        mask = keep[labels]
        labels, count = ndimage.label(mask)
        flat = np.flatnonzero(labels)
        lab = labels.reshape(-1)[flat]
        rows, cols = np.divmod(flat, mask.shape[1])
        areas = np.bincount(lab, minlength=count + 1)[1:]
        cy = np.bincount(lab, weights=rows, minlength=count + 1)[1:] / areas
        cx = np.bincount(lab, weights=cols, minlength=count + 1)[1:] / areas
        return mask, sorted(
            zip(areas.tolist(), ndimage.find_objects(labels), cy, cx),
            key=lambda c: c[0], reverse=True,
        )

    def post(mask):
        mask = clean_mask(mask, open_radius=0, close_radius=2, min_area=6)
        return mask, connected_components(mask)

    def best_of(fn, repeats):
        best = float("inf")
        for _ in range(repeats):
            start = time.perf_counter()
            fn(raw)
            best = min(best, time.perf_counter() - start)
        return best

    def run():
        repeats = 20 if QUICK else 5
        return best_of(scipy_post, repeats), best_of(post, repeats)

    ref_mask, ref_comps = scipy_post(raw)
    mask, comps = post(raw)
    assert ref_comps and np.array_equal(mask, ref_mask)
    assert [c.area for c in comps] == [c[0] for c in ref_comps]
    scipy_s, post_s = benchmark.pedantic(run, rounds=1, iterations=1)
    # Measured 3.3-4.2x at 240x320 and 3.6-4.6x at 1080x1920 on a
    # 2-vCPU x86-64 container.
    assert post_s < 0.5 * scipy_s, (
        f"post stage {post_s * 1e3:.2f} ms vs scipy "
        f"{scipy_s * 1e3:.2f} ms at {shape}"
    )
