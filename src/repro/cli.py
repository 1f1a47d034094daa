"""Command-line interface.

The subcommands cover the end-to-end workflow without writing Python:

* ``repro synthesize`` — render a synthetic scene (with ground truth)
  to a compressed ``.npz`` sequence;
* ``repro subtract`` — run background subtraction over a sequence and
  save the masks (optionally printing the simulated-GPU run report);
* ``repro evaluate`` — score saved masks against a sequence's ground
  truth;
* ``repro track`` — run the full subtract/clean/track pipeline;
* ``repro serve`` — multiplex N streams (synthetic or ``.npz``)
  through one :class:`~repro.serve.StreamServer`;
* ``repro levels`` — describe the optimization levels (pass stacks,
  layout, paper speedups) or a custom pass expression;
* ``repro experiments`` — print any of the paper's reproduced
  tables/figures;
* ``repro bench`` — measure one backend's steady-state throughput
  (warmup excluded, JIT compile time reported separately).

Everywhere a ``--level`` is accepted, both paper letters (``A``..``G``)
and pass expressions (``A+predication``, ``B+sort-elimination``) work,
optionally carrying a model-family prefix (``dmsg:F``,
``dmsg:A+predication``). Commands that build a pipeline also take
``--model`` to pick the background-model family directly.

Installed as the ``repro`` console script; also runnable as
``python -m repro.cli``.
"""

from __future__ import annotations

import argparse
import sys

import numpy as np

from . import __version__
from .config import MODELS, MoGParams, RunConfig
from .core.subtractor import BackgroundSubtractor
from .errors import ReproError
from .metrics.foreground import score_sequence
from .video import io as video_io
from .video import scenes

SCENES = {
    "evaluation": scenes.evaluation_scene,
    "surveillance": scenes.surveillance_scene,
    "traffic": scenes.traffic_scene,
    "patient-room": scenes.patient_room_scene,
    "static": scenes.static_scene,
    "jitter": scenes.jitter_scene,
    "illumination": scenes.illumination_scene,
    "rain": scenes.rain_scene,
    "shadows": scenes.shadow_scene,
    "ptz": scenes.ptz_scene,
}


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="repro",
        description="MoG background subtraction (ICPP 2014 reproduction)",
    )
    parser.add_argument("--version", action="version", version=__version__)
    sub = parser.add_subparsers(dest="command", required=True)

    syn = sub.add_parser("synthesize", help="render a synthetic sequence")
    syn.add_argument("output", help="output .npz path")
    syn.add_argument("--scene", choices=sorted(SCENES), default="surveillance")
    syn.add_argument("--frames", type=int, default=60)
    syn.add_argument("--height", type=int, default=240)
    syn.add_argument("--width", type=int, default=320)
    syn.add_argument("--seed", type=int, default=None)

    subx = sub.add_parser("subtract", help="run background subtraction")
    subx.add_argument("input", help="input .npz sequence")
    subx.add_argument("output", help="output .npz masks")
    subx.add_argument("--level", default="F",
                      help="optimization level A..G or a pass expression "
                      "like A+predication, optionally model-prefixed "
                      "(dmsg:F); see `repro levels`")
    subx.add_argument("--model", choices=MODELS, default=None,
                      help="background-model family (default mog, or "
                      "whatever the --level prefix names)")
    subx.add_argument(
        "--backend", choices=("cpu", "sim", "jit"), default="cpu",
        help="cpu: compiled per-pixel kernels (NumPy without a C "
        "compiler); jit: alias of cpu; sim: simulated "
        "C2075 with profiling",
    )
    subx.add_argument("--dtype", choices=("double", "float"), default="double")
    subx.add_argument("--gaussians", type=int, default=3)
    subx.add_argument("--learning-rate", type=float, default=0.01)
    subx.add_argument("--profile-every", type=int, default=1, metavar="N",
                      help="sim backend: profile every Nth frame, run the "
                      "rest on the functional tier (default 1 = all)")
    subx.add_argument("--report", action="store_true",
                      help="print the run report (sim backend)")
    subx.add_argument("--dump-dir", default=None,
                      help="also write frames/masks/background as PGM "
                      "images for visual inspection")
    subx.add_argument("--dump-stride", type=int, default=5,
                      help="dump every Nth frame (default 5)")
    subx.add_argument("--report-json", default=None,
                      help="write the run report as JSON (sim backend)")

    ev = sub.add_parser("evaluate", help="score masks against ground truth")
    ev.add_argument("masks", help=".npz produced by `repro subtract`")
    ev.add_argument("sequence", help=".npz with ground truth")
    ev.add_argument("--skip", type=int, default=0,
                    help="warm-up frames to exclude from scoring")

    tr = sub.add_parser("track", help="run the full pipeline with tracking")
    tr.add_argument("input", help="input .npz sequence")
    tr.add_argument("--level", default="F")
    tr.add_argument("--model", choices=MODELS, default=None,
                    help="background-model family (default mog)")
    tr.add_argument("--fuse", action="store_true",
                    help="append the fusion pass to --level (threshold, "
                         "shadow and class-histogram stages fused into the "
                         "MoG kernel); prints the fused region analytics")
    tr.add_argument(
        "--backend", choices=("cpu", "sim", "jit"), default="cpu",
        help="cpu: compiled per-pixel kernels (NumPy without a C "
        "compiler); jit: alias of cpu; sim: simulated C2075",
    )
    tr.add_argument("--profile-every", type=int, default=1, metavar="N",
                    help="sim backend: profile every Nth frame, run the "
                    "rest on the functional tier (default 1 = all)")
    tr.add_argument("--learning-rate", type=float, default=0.08)
    tr.add_argument("--warmup", type=int, default=15)
    tr.add_argument("--min-area", type=int, default=6)
    tr.add_argument("--on-error", choices=("raise", "degrade"),
                    default="raise",
                    help="stage-failure policy: raise (default) or serve "
                    "the last good mask and keep streaming")
    tr.add_argument("--metrics", action="store_true",
                    help="print per-stage telemetry after the run")
    tr.add_argument("--metrics-json", default=None,
                    help="write the telemetry snapshot as JSON")
    tr.add_argument("--window-frames", type=int, default=0, metavar="N",
                    help="with --metrics-json: also record windowed "
                    "per-counter deltas and per-frame rates every N "
                    "frames (the controller's input primitive; "
                    "0 = cumulative totals only)")
    tr.add_argument("--integrity", choices=("off", "detect", "repair"),
                    default="off",
                    help="mixture-state integrity guard: detect raises "
                    "(or degrades under --on-error degrade), repair "
                    "re-initialises corrupted pixels from the frame")
    tr.add_argument("--checkpoint-dir", default=None,
                    help="directory for durable pipeline checkpoints")
    tr.add_argument("--checkpoint-every", type=int, default=25, metavar="N",
                    help="checkpoint every N frames when --checkpoint-dir "
                    "is set (default 25)")
    tr.add_argument("--resume", action="store_true",
                    help="resume from the checkpoint in --checkpoint-dir "
                    "if one exists")
    tr.add_argument("--inject-target", choices=("state", "frame"),
                    default=None,
                    help="fault injection (chaos testing): corrupt the "
                    "mixture state or the input frames")
    tr.add_argument("--inject-frames", default="",
                    help="comma-separated frame indices to inject at")
    tr.add_argument("--inject-flips", type=int, default=8,
                    help="bit-flips per injection (default 8)")
    tr.add_argument("--inject-seed", type=int, default=0,
                    help="seed of the injector's deterministic RNG")
    tr.add_argument("--inject-ecc", choices=("off", "on"), default="off",
                    help="simulated ECC: on corrects single-bit flips")

    sv = sub.add_parser(
        "serve",
        help="multiplex N streams through one StreamServer",
    )
    sv.add_argument("inputs", nargs="*",
                    help=".npz sequences, one stream each (default: "
                    "--streams synthetic streams)")
    sv.add_argument("--streams", type=int, default=4,
                    help="synthetic stream count when no inputs are given")
    sv.add_argument("--frames", type=int, default=40,
                    help="frames per synthetic stream")
    sv.add_argument("--scene", choices=sorted(SCENES), default="surveillance")
    sv.add_argument("--height", type=int, default=120)
    sv.add_argument("--width", type=int, default=160)
    sv.add_argument("--level", default="F")
    sv.add_argument("--model", choices=MODELS, default=None,
                    help="background-model family for every stream "
                    "(default mog)")
    sv.add_argument("--backend", choices=("cpu", "sim", "jit"), default="cpu",
                    help="per-stream pipeline backend (jit is an "
                    "alias of cpu)")
    sv.add_argument("--learning-rate", type=float, default=0.08)
    sv.add_argument("--warmup", type=int, default=15)
    sv.add_argument("--workers", type=int, default=2,
                    help="worker threads shared by all streams")
    sv.add_argument("--queue-capacity", type=int, default=8,
                    help="bounded input queue depth per stream")
    sv.add_argument("--backpressure",
                    choices=("block", "drop_oldest", "reject"),
                    default="block",
                    help="full-queue policy (see docs/architecture.md)")
    sv.add_argument("--max-streams", type=int, default=64,
                    help="admission limit")
    sv.add_argument("--batch-frames", type=int, default=1,
                    help="frames a worker takes per scheduling turn")
    sv.add_argument("--on-error", choices=("raise", "degrade"),
                    default="degrade",
                    help="per-stream stage-failure policy")
    sv.add_argument("--metrics", action="store_true",
                    help="print the aggregated telemetry after the run")
    sv.add_argument("--metrics-json", default=None,
                    help="write the aggregated telemetry snapshot as JSON")
    sv.add_argument("--integrity", choices=("off", "detect", "repair"),
                    default="off",
                    help="per-stream mixture-state integrity guard")
    sv.add_argument("--checkpoint-dir", default=None,
                    help="directory for per-stream durable checkpoints "
                    "(<dir>/<stream>.ckpt)")
    sv.add_argument("--checkpoint-every", type=int, default=0, metavar="N",
                    help="checkpoint each stream every N frames "
                    "(0 = off; requires --checkpoint-dir)")
    sv.add_argument("--resume", action="store_true",
                    help="resume streams from their checkpoints in "
                    "--checkpoint-dir when present (streams without a "
                    "usable checkpoint start fresh with a note)")
    sv.add_argument("--resume-mismatch", choices=("fail", "fresh"),
                    default="fresh",
                    help="what --resume does with a corrupt/mismatched "
                    "checkpoint: fail admission or start fresh "
                    "(default fresh)")
    sv.add_argument("--shards", type=int, default=0, metavar="N",
                    help="shard the server over N processes "
                    "(0 = in-process thread server)")
    sv.add_argument("--shard-backend", choices=("cpu", "sim", "jit"),
                    default=None,
                    help="backend override inside shard processes")
    sv.add_argument("--placement", choices=("hash", "round_robin"),
                    default="hash",
                    help="stream->shard placement (sharded mode)")
    sv.add_argument("--shed-inflight", type=int, default=0, metavar="N",
                    help="shed load past N in-flight frames per stream "
                    "(sharded mode; 0 = off)")
    sv.add_argument("--shed-policy", choices=("reject", "drop"),
                    default="reject",
                    help="over --shed-inflight: reject the submit or "
                    "drop the frame")
    sv.add_argument("--controller", action="store_true",
                    help="enable the closed-loop runtime controller: "
                    "degrade (guards -> level -> model -> shed) under "
                    "overload, recover with hysteresis; see "
                    "docs/operations.md")
    sv.add_argument("--controller-policy", default=None, metavar="JSON",
                    help="JSON file of ControllerConfig overrides "
                    "(window_frames, queue_high, level_ladder, ...); "
                    "implies --controller")
    sv.add_argument("--controller-log", default=None, metavar="PATH",
                    help="write the controller transition log as JSON "
                    "after the run; implies --controller")

    cu = sub.add_parser(
        "export-cuda",
        help="emit real CUDA sources for the configured kernels",
    )
    cu.add_argument("directory", help="output directory")
    cu.add_argument("--height", type=int, default=1080)
    cu.add_argument("--width", type=int, default=1920)
    cu.add_argument("--dtype", choices=("double", "float"), default="double")
    cu.add_argument("--gaussians", type=int, default=3)

    lv = sub.add_parser(
        "levels",
        help="describe the optimization levels and their pass stacks",
    )
    lv.add_argument(
        "level", nargs="?", default=None,
        help="a level letter (A..G) or pass expression, optionally "
        "model-prefixed (e.g. A+predication, dmsg:F); default: all "
        "paper levels",
    )
    lv.add_argument("--model", choices=MODELS, default=None,
                    help="list the levels of this model family "
                    "(default mog)")
    lv.add_argument("--json", action="store_true",
                    help="emit machine-readable JSON")

    ex = sub.add_parser("experiments", help="print reproduced paper results")
    ex.add_argument(
        "names", nargs="*", default=["fig8"],
        help="experiment ids (table1..4, fig6..12, cpu_baselines, "
        "embedded, fusion, models); default fig8",
    )

    bn = sub.add_parser(
        "bench",
        help="measure one backend's steady-state throughput",
    )
    bn.add_argument("--backend", choices=("cpu", "sim", "jit"),
                    default="cpu")
    bn.add_argument("--level", default="F",
                    help="optimization level or pass expression")
    bn.add_argument("--model", choices=MODELS, default=None,
                    help="background-model family (default mog)")
    bn.add_argument("--height", type=int, default=120)
    bn.add_argument("--width", type=int, default=160)
    bn.add_argument("--frames", type=int, default=33,
                    help="timed frames (after warmup)")
    bn.add_argument("--warmup", type=int, default=None, metavar="N",
                    help="warmup frames excluded from timing (default: "
                    "backend-specific; covers JIT compilation)")
    bn.add_argument("--dtype", choices=("double", "float"),
                    default="double")
    bn.add_argument("--json", action="store_true",
                    help="emit the snapshot-format entry as JSON")
    return parser


def _cmd_synthesize(args) -> int:
    builder = SCENES[args.scene]
    kwargs = dict(height=args.height, width=args.width)
    if args.seed is not None:
        kwargs["seed"] = args.seed
    video = builder(**kwargs)
    frames = []
    truths = []
    for t in range(args.frames):
        frame, truth = video.frame_with_truth(t)
        frames.append(frame)
        truths.append(truth)
    video_io.save_sequence(args.output, np.stack(frames), np.stack(truths))
    print(f"wrote {args.frames} {args.height}x{args.width} frames "
          f"({args.scene}) to {args.output}")
    return 0


def _cmd_subtract(args) -> int:
    source, _, _ = video_io.load_sequence(args.input)
    shape = source.shape
    params = MoGParams(
        num_gaussians=args.gaussians, learning_rate=args.learning_rate
    )
    run_config = RunConfig(
        height=shape[0], width=shape[1], dtype=args.dtype,
        profile_every=args.profile_every,
    )
    bs = BackgroundSubtractor(
        shape, params, level=args.level, backend=args.backend,
        run_config=run_config, model=args.model,
    )
    frames = [source.frame(t) for t in range(source.num_frames)]
    masks, report = bs.process(frames)
    video_io.save_sequence(args.output, masks.astype(np.uint8) * 255)
    if args.dump_dir:
        from .video.images import dump_run

        written = dump_run(
            args.dump_dir, frames, masks,
            background=bs.background_image(), stride=args.dump_stride,
        )
        print(f"dumped {len(written)} images to {args.dump_dir}")
    print(f"wrote {masks.shape[0]} masks to {args.output} "
          f"(foreground share {masks.mean() * 100:.2f}%)")
    if args.report:
        if report is None:
            print("(no report: the cpu backend does not profile; "
                  "use --backend sim)")
        else:
            print(report.summary())
    if args.report_json:
        if report is None:
            print("(no report to save: use --backend sim)", file=sys.stderr)
            return 2
        report.save_json(args.report_json)
        print(f"wrote report to {args.report_json}")
    return 0


def _cmd_evaluate(args) -> int:
    masks_src, _, _ = video_io.load_sequence(args.masks)
    _, truth, _ = video_io.load_sequence(args.sequence)
    if truth is None:
        print("error: the sequence file has no ground truth", file=sys.stderr)
        return 2
    n = min(masks_src.num_frames, truth.shape[0])
    skip = min(args.skip, max(n - 1, 0))
    preds = [masks_src.frame(t) for t in range(skip, n)]
    score = score_sequence(preds, list(truth[skip:n]))
    print(
        f"frames scored : {n - skip} (skipped {skip})\n"
        f"precision     : {score.precision:.3f}\n"
        f"recall        : {score.recall:.3f}\n"
        f"F1            : {score.f1:.3f}\n"
        f"IoU           : {score.iou:.3f}"
    )
    return 0


def _cmd_track(args) -> int:
    from pathlib import Path

    from .config import FaultPlan, IntegrityPolicy
    from .core.stream import SurveillancePipeline
    from .post.morphology import MaskCleaner
    from .track.tracker import TrackerParams
    from .telemetry import MetricsRegistry

    source, _, _ = video_io.load_sequence(args.input)
    telemetry = MetricsRegistry()
    injector = None
    if args.inject_target is not None:
        from .faults import FaultInjector

        frames = tuple(
            int(f) for f in args.inject_frames.split(",") if f.strip()
        )
        injector = FaultInjector(
            FaultPlan(
                target=args.inject_target, frames=frames,
                flips=args.inject_flips, seed=args.inject_seed,
                ecc=args.inject_ecc,
            ),
            telemetry=telemetry,
        )
    level = f"{args.level}+fusion" if args.fuse else args.level
    pipe = SurveillancePipeline(
        source.shape,
        MoGParams(learning_rate=args.learning_rate),
        level=level,
        backend=args.backend,
        model=args.model,
        cleaner=MaskCleaner(open_radius=0, close_radius=2,
                            min_area=args.min_area),
        tracker_params=TrackerParams(min_area=args.min_area),
        warmup_frames=args.warmup,
        on_error=args.on_error,
        telemetry=telemetry,
        profile_every=args.profile_every,
        integrity=IntegrityPolicy(mode=args.integrity),
        fault_injector=injector,
    )
    ckpt_path = None
    if args.checkpoint_dir is not None:
        ckpt_dir = Path(args.checkpoint_dir)
        ckpt_dir.mkdir(parents=True, exist_ok=True)
        ckpt_path = ckpt_dir / f"{Path(args.input).stem}.ckpt"
    elif args.resume:
        print("error: --resume requires --checkpoint-dir", file=sys.stderr)
        return 2
    start = 0
    if args.resume and ckpt_path is not None and ckpt_path.exists():
        start = pipe.restore_checkpoint(ckpt_path) + 1
        print(f"resumed from {ckpt_path} at frame {start}")
    degraded = 0
    windows = []
    window_base = None
    frames_in_window = 0
    for t in range(start, source.num_frames):
        if pipe.step(source.frame(t)).degraded:
            degraded += 1
        if args.window_frames > 0:
            frames_in_window += 1
            if frames_in_window == args.window_frames:
                delta = telemetry.delta(window_base, frames=frames_in_window)
                window_base = delta.pop("end")
                delta["frame_index"] = pipe.frame_index
                windows.append(delta)
                frames_in_window = 0
        if (
            ckpt_path is not None
            and args.checkpoint_every > 0
            and (pipe.frame_index + 1) % args.checkpoint_every == 0
        ):
            pipe.save_checkpoint(ckpt_path)
    print(pipe.summary())
    if degraded:
        print(f"({degraded} degraded frames served the last good mask)")
    if args.fuse:
        analytics = pipe.subtractor.fused_analytics()
        print("fused occupancy (foreground fraction per region):")
        for row in analytics["occupancy"]:
            print("  " + " ".join(f"{v:5.2f}" for v in row))
        counts = analytics.get("region_counts")
        if counts is not None:
            motion = counts[:, :, 1:].sum(axis=2)
            print("fused motion counts (shadow+foreground px per region):")
            for row in motion:
                print("  " + " ".join(f"{int(v):5d}" for v in row))
    if args.metrics:
        from .bench.reporting import format_metrics

        print()
        print(format_metrics(pipe.telemetry.snapshot()))
    if args.metrics_json:
        import json

        snap = pipe.telemetry.snapshot()
        if windows:
            # Cumulative totals stay at the top level (backward
            # compatible); the windowed deltas ride along.
            snap["windows"] = windows
        try:
            with open(args.metrics_json, "w", encoding="utf-8") as fh:
                json.dump(snap, fh, indent=2)
        except OSError as exc:
            print(f"error: cannot write metrics: {exc}", file=sys.stderr)
            return 2
        print(f"wrote metrics to {args.metrics_json}")
    return 0


def _cmd_serve(args) -> int:
    import time
    from pathlib import Path

    from .config import (
        ControllerConfig,
        FaultPolicy,
        IntegrityPolicy,
        ServeConfig,
    )
    from .errors import ConfigError
    from .serve import ShardedStreamServer, StreamServer

    if (args.checkpoint_every or args.resume) and not args.checkpoint_dir:
        print("error: --checkpoint-every/--resume require --checkpoint-dir",
              file=sys.stderr)
        return 2
    if args.checkpoint_dir is not None:
        # A missing directory is not an error even with --resume: every
        # stream just starts fresh (and says so).
        Path(args.checkpoint_dir).mkdir(parents=True, exist_ok=True)

    sequences: dict[str, list[np.ndarray]] = {}
    if args.inputs:
        shape = None
        for path in args.inputs:
            source, _, _ = video_io.load_sequence(path)
            if shape is None:
                shape = source.shape
            elif source.shape != shape:
                print(f"error: {path} has shape {source.shape}, "
                      f"expected {shape} (all streams must match)",
                      file=sys.stderr)
                return 2
            sid = Path(path).stem.replace(".", "_")
            if sid in sequences:
                print(f"error: duplicate stream id {sid!r} (from {path}); "
                      "stream ids come from file stems", file=sys.stderr)
                return 2
            sequences[sid] = [
                source.frame(t) for t in range(source.num_frames)
            ]
    else:
        shape = (args.height, args.width)
        for i in range(args.streams):
            video = SCENES[args.scene](
                height=args.height, width=args.width, seed=100 + i
            )
            sequences[f"cam{i}"] = [
                video.frame(t) for t in range(args.frames)
            ]

    controller_on = (
        args.controller
        or args.controller_policy is not None
        or args.controller_log is not None
    )
    controller_config = None
    if controller_on:
        overrides = {}
        if args.controller_policy is not None:
            import json

            try:
                with open(args.controller_policy, encoding="utf-8") as fh:
                    overrides = json.load(fh)
            except (OSError, ValueError) as exc:
                print(f"error: cannot read --controller-policy: {exc}",
                      file=sys.stderr)
                return 2
            if not isinstance(overrides, dict):
                print("error: --controller-policy must hold a JSON object "
                      "of ControllerConfig fields", file=sys.stderr)
                return 2
            if "level_ladder" in overrides:
                overrides["level_ladder"] = tuple(overrides["level_ladder"])
        try:
            controller_config = ControllerConfig(**overrides)
        except (TypeError, ConfigError) as exc:
            print(f"error: bad controller policy: {exc}", file=sys.stderr)
            return 2

    serve_config = ServeConfig(
        workers=args.workers,
        max_streams=args.max_streams,
        queue_capacity=args.queue_capacity,
        backpressure=args.backpressure,
        batch_frames=args.batch_frames,
        checkpoint_every=args.checkpoint_every,
        checkpoint_dir=args.checkpoint_dir,
        resume=args.resume,
        resume_mismatch=args.resume_mismatch,
        shards=args.shards,
        shard_backend=args.shard_backend,
        placement=args.placement,
        shed_inflight=args.shed_inflight,
        shed_policy=args.shed_policy,
        controller=controller_config,
    )
    server_cls = ShardedStreamServer if args.shards > 0 else StreamServer
    server = server_cls(
        shape,
        MoGParams(learning_rate=args.learning_rate),
        level=args.level,
        backend=args.backend,
        model=args.model,
        serve=serve_config,
        fault_policy=FaultPolicy(stage_error=args.on_error),
        warmup_frames=args.warmup,
        integrity=IntegrityPolicy(mode=args.integrity),
    )
    # Synthetic streams carry their scene name as the controller's
    # scenario tag (quality-gated model switches need it); file-backed
    # streams have unknown content, which the controller treats
    # conservatively (no model rung).
    scenario = args.scene if not args.inputs else None
    try:
        for sid in sequences:
            server.add_stream(sid, scenario=scenario)
        starts = {}
        if args.resume:
            for status in server.stream_status():
                sid = status["stream"]
                note = status.get("resume_note")
                if note:
                    print(f"{sid}: {note}")
                start = status.get("resumed_source_seq", -1) + 1
                if start > 0:
                    print(f"{sid}: resumed at source frame {start}")
                starts[sid] = start
        t0 = time.perf_counter()
        iters = {
            sid: iter(frames[starts.get(sid, 0):])
            for sid, frames in sequences.items()
        }
        while iters:
            for sid in list(iters):
                frame = next(iters[sid], None)
                if frame is None:
                    del iters[sid]
                else:
                    server.submit(sid, frame)
        server.drain()
        elapsed = time.perf_counter() - t0
        total = 0
        for status in server.stream_status():
            sid = status["stream"]
            results = server.results(sid)
            total += len(results)
            degraded = sum(1 for r in results if r.degraded)
            shard = (f" [shard {status['shard']}]"
                     if "shard" in status else "")
            print(f"{sid}{shard}: {len(results)} frames, "
                  f"{degraded} degraded, "
                  f"{status['frames_dropped']} dropped, "
                  f"{status['restarts']} restarts"
                  + (f", FAILED ({status['failed']})"
                     if status["failed"] else ""))
        snap = server.snapshot()
        # Shards only answer while alive: collect the log before close.
        transitions = server.controller_log() if controller_on else []
    finally:
        server.close(drain=False)
    fps = total / elapsed if elapsed > 0 else float("inf")
    tier = (f"{args.shards} shards x {args.workers} workers"
            if args.shards > 0 else f"{args.workers} workers")
    print(f"served {total} frames across {len(sequences)} streams in "
          f"{elapsed:.2f}s ({fps:.1f} frames/s aggregate, {tier})")
    if args.shards > 0:
        latency = snap.get("histograms", {}).get("server.latency_s")
        if latency:
            print(f"latency p50 {latency.get('p50_s', 0) * 1e3:.1f} ms, "
                  f"p95 {latency.get('p95_s', 0) * 1e3:.1f} ms "
                  f"({latency.get('count', 0)} samples)")
        rebalanced = snap.get("counters", {}).get("server.rebalanced", 0)
        shed = snap.get("counters", {}).get("server.frames_shed", 0)
        if rebalanced or shed:
            print(f"rebalanced {rebalanced} streams, shed {shed} frames")
    if controller_on:
        downshifts = sum(
            1 for e in transitions if e["action"] == "downshift"
        )
        upshifts = len(transitions) - downshifts
        shed = snap.get("counters", {}).get("server.frames_shed", 0)
        print(f"controller: {len(transitions)} transitions "
              f"({downshifts} down, {upshifts} up), {shed} frames shed")
        for entry in transitions:
            shard = (f"[shard {entry['shard']}] "
                     if "shard" in entry else "")
            print(f"  {shard}{entry['stream']} w{entry['window']}: "
                  f"{entry['action']} ({entry['reason']}) "
                  f"rung {entry['from_rung']}->{entry['to_rung']} "
                  f"[{entry['to']['kind']}: level {entry['to']['level']}, "
                  f"model {entry['to']['model']}]")
        if args.controller_log:
            import json

            try:
                with open(args.controller_log, "w", encoding="utf-8") as fh:
                    json.dump(transitions, fh, indent=2)
            except OSError as exc:
                print(f"error: cannot write controller log: {exc}",
                      file=sys.stderr)
                return 2
            print(f"wrote controller log to {args.controller_log}")
    if args.metrics:
        from .bench.reporting import format_metrics

        print()
        print(format_metrics(snap))
    if args.metrics_json:
        import json

        try:
            with open(args.metrics_json, "w", encoding="utf-8") as fh:
                json.dump(snap, fh, indent=2)
        except OSError as exc:
            print(f"error: cannot write metrics: {exc}", file=sys.stderr)
            return 2
        print(f"wrote metrics to {args.metrics_json}")
    return 0


def _cmd_export_cuda(args) -> int:
    from .config import MoGParams as _MoGParams
    from .cudagen import generate_project

    written = generate_project(
        args.directory,
        params=_MoGParams(num_gaussians=args.gaussians),
        run_config=RunConfig(
            height=args.height, width=args.width, dtype=args.dtype
        ),
    )
    print(f"wrote {len(written)} files to {args.directory}:")
    for path in written:
        print(f"  {path.name}")
    print("build with: make  (requires nvcc; see Makefile)")
    return 0


def _cmd_levels(args) -> int:
    import json

    from .core.variants import LEVELS, level_spec_for, resolve_level_spec

    if args.level is None:
        if args.model is None or args.model == "mog":
            specs = [member.spec for member in LEVELS]
        else:
            specs = [
                level_spec_for(member.spec.letter, args.model)
                for member in LEVELS
            ]
    else:
        specs = [resolve_level_spec(args.level, model=args.model)]
    if args.json:
        print(json.dumps([s.describe() for s in specs], indent=2))
        return 0
    for spec in specs:
        speedup = (
            f"{spec.paper_speedup:g}x" if spec.paper_speedup else "n/a"
        )
        passes = " + ".join(spec.passes) if spec.passes else "(none)"
        print(f"{spec.letter}: {spec.title} [{spec.group}]")
        print(f"  model         : {spec.model.name}")
        print(f"  passes        : {passes}")
        print(f"  kernel        : {spec.kernel.name} "
              f"(layout={spec.layout}, overlapped={spec.overlapped}, "
              f"group_structured={spec.group_structured})")
        print(f"  enables       : {', '.join(spec.enables)}")
        if spec.kernel.fused:
            print(f"  fused stages  : {', '.join(spec.kernel.fused)}")
        backends = spec.describe()["backends"]
        parts = []
        for name in sorted(backends):
            info = backends[name]
            parts.append(
                name if info["available"] else f"{name} (unavailable)"
            )
        print(f"  backends      : {', '.join(parts)}")
        print(f"  paper speedup : {speedup}")
    return 0


def _cmd_experiments(args) -> int:
    from .bench.experiments import ALL_EXPERIMENTS, ExperimentContext

    unknown = [n for n in args.names if n not in ALL_EXPERIMENTS]
    if unknown:
        print(
            f"unknown experiment(s) {unknown}; available: "
            f"{sorted(ALL_EXPERIMENTS)}", file=sys.stderr,
        )
        return 2
    ctx = ExperimentContext()
    for name in args.names:
        fn = ALL_EXPERIMENTS[name]
        exp = fn(ctx) if fn.__code__.co_argcount else fn()
        print(exp.format())
        print()
    return 0


def _cmd_bench(args) -> int:
    import json

    from .bench.snapshot import measure_fps

    entry = measure_fps(
        args.backend,
        num_frames=args.frames,
        level=args.level,
        shape=(args.height, args.width),
        warmup_frames=args.warmup,
        dtype=args.dtype,
        model=args.model,
    )
    if args.json:
        print(json.dumps(entry, indent=2))
        return 0
    print(
        f"{entry['backend']}: {entry['frames_per_s']:.2f} frames/s "
        f"({args.height}x{args.width}, model {entry['model']}, "
        f"level {args.level}, "
        f"{entry['frames_timed']} frames timed, "
        f"{entry['warmup_frames']} warmup, "
        f"warmup {entry['warmup_s']:.3f}s, "
        f"compile {entry['compile_s']:.3f}s)"
    )
    if entry.get("compiled") is False:
        print("(no compiled kernel: the model ran in NumPy)")
    return 0


def main(argv: list[str] | None = None) -> int:
    args = _build_parser().parse_args(argv)
    handler = {
        "synthesize": _cmd_synthesize,
        "subtract": _cmd_subtract,
        "evaluate": _cmd_evaluate,
        "track": _cmd_track,
        "serve": _cmd_serve,
        "levels": _cmd_levels,
        "export-cuda": _cmd_export_cuda,
        "experiments": _cmd_experiments,
        "bench": _cmd_bench,
    }[args.command]
    try:
        return handler(args)
    except ReproError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
