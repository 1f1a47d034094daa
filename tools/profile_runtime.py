#!/usr/bin/env python3
"""Profile the library's own hot paths (the optimization-workflow rule:
no optimization without measuring).

Profiles a simulated run and a CPU-backend run with cProfile and prints
the top functions by cumulative time — the view that motivated
the in-place CPU engine (`repro.cpu.engine`) and the vectorized
transaction counting.

Run:  python tools/profile_runtime.py [--frames N] [--top K]
"""

from __future__ import annotations

import argparse
import cProfile
import pstats
import sys
from io import StringIO

from repro import BackgroundSubtractor
from repro.bench.harness import BENCH_SHAPE, PAPER_BENCH_PARAMS
from repro.video.scenes import evaluation_scene


def profile_run(backend: str, frames, top: int) -> str:
    subtractor = BackgroundSubtractor(
        BENCH_SHAPE, PAPER_BENCH_PARAMS, level="F", backend=backend
    )
    profiler = cProfile.Profile()
    profiler.enable()
    for frame in frames:
        subtractor.apply(frame)
    profiler.disable()
    buf = StringIO()
    stats = pstats.Stats(profiler, stream=buf)
    stats.sort_stats("cumulative")
    stats.print_stats(top)
    return buf.getvalue()


def main() -> int:
    parser = argparse.ArgumentParser()
    parser.add_argument("--frames", type=int, default=12)
    parser.add_argument("--top", type=int, default=12)
    args = parser.parse_args()

    video = evaluation_scene(height=BENCH_SHAPE[0], width=BENCH_SHAPE[1])
    frames = [video.frame(t) for t in range(args.frames)]

    for backend in ("cpu", "sim"):
        print(f"===== backend={backend} ({args.frames} frames) =====")
        print(profile_run(backend, frames, args.top))
    return 0


if __name__ == "__main__":
    sys.exit(main())
