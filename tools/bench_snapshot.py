#!/usr/bin/env python3
"""Measure frames/s for every execution path and record the result.

Writes (merges into) ``BENCH_throughput.json`` at the repo root — the
machine-readable perf trajectory: frames/s for the CPU backend, for
the simulator's profiled and sampled tiers, and aggregate throughput
of the multi-stream ``StreamServer``. See CONTRIBUTING.md.

Run:  PYTHONPATH=src python tools/bench_snapshot.py [--quick] [--out PATH]
"""

from __future__ import annotations

import argparse
import sys
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parents[1] / "src"))

from repro.bench.snapshot import run_snapshot  # noqa: E402


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument(
        "--quick", action="store_true",
        help="shorter measurements (CI smoke mode)",
    )
    parser.add_argument(
        "--out", default=None,
        help="snapshot path (default: BENCH_throughput.json at repo root)",
    )
    args = parser.parse_args(argv)
    entries = run_snapshot(quick=args.quick, path=args.out)
    width = max(len(name) for name in entries)
    for name, entry in entries.items():
        print(f"{name:<{width}}  {entry['frames_per_s']:>8.2f} frames/s  "
              f"({entry['frames_timed']} frames timed)")
    profiled = entries["sim_profiled"]["frames_per_s"]
    sampled = entries["sim_sampled_8"]["frames_per_s"]
    print(f"sim sampled/profiled speedup: {sampled / profiled:.2f}x")
    plain = entries["cpu"]["frames_per_s"]
    guarded = entries["cpu_ecc_on"]["frames_per_s"]
    print(
        f"integrity-guard (ECC-on) overhead: {plain / guarded:.2f}x "
        f"({plain:.0f} -> {guarded:.0f} frames/s)"
    )
    return 0


if __name__ == "__main__":
    sys.exit(main())
