"""Command-line interface: run BiScatter experiments without writing code.

Subcommands
-----------
``demo``
    One integrated two-way exchange (the quickstart) with chosen geometry.
``ber``
    Monte-Carlo downlink BER at a distance or pinned SNR.
``localize``
    Tag localization trials (fixed or varying slopes).
``design``
    Print the CSSK alphabet a given configuration yields (Eqs. 10-14).
``power``
    Print the tag power budget for prototype / projected-IC designs.
``robustness``
    Impairment-severity sweep producing a degradation curve (BER,
    frame-erasure rate, ranging error vs severity).
``cache``
    Manage an experiment store: ``stats``, ``verify`` (bit-exact
    recompute self-check), ``clear``.
``obs``
    Observability utilities: ``export`` finalizes a run's streaming
    Chrome-trace file into strict ``traceEvents`` JSON.

``demo``, ``ber``, and ``soak`` accept ``--impair SPEC`` to inject
signal-chain faults (``name[:severity],…`` — ``interference``, ``drift``,
``clip``, ``loss``, ``impulse``); severity 0 is bit-identical to no
injection, and decode failures under impairment are recorded as frame
erasures rather than aborting the run.

``ber`` and ``localize`` accept ``--cache-dir DIR`` to serve repeat runs
from the content-addressed experiment store (results are bit-identical
either way), plus the executor fault knobs ``--max-retries`` (bounded
bit-identical retry of crashed workers/chunks) and ``--chunk-timeout``
(deadline for stuck chunks, with exponential backoff).

Every run subcommand also takes the observability flags: ``--log-json``
(structured JSON-lines run events on stderr), ``--profile`` (metrics
summary table after the run), and ``--trace-dir DIR`` (per-run Chrome
``trace_event`` file, viewable in ``about:tracing`` / Perfetto).  The
``REPRO_LOG`` / ``REPRO_LOG_FILE`` / ``REPRO_TRACE_DIR`` environment
variables configure the same machinery without touching the command
line.  Telemetry never feeds back into results — numbers are
bit-identical with everything enabled.

Examples::

    python -m repro.cli demo --range 3.2
    python -m repro.cli ber --distance 7 --symbol-bits 5 --frames 100
    python -m repro.cli ber --distance 7 --frames 100 --cache-dir .repro-cache
    python -m repro.cli ber --frames 40 --workers 2 --log-json --profile
    python -m repro.cli design --bandwidth-ghz 1.0 --delta-l-inches 45 --symbol-bits 5
    python -m repro.cli ber --distance 5 --frames 50 --impair drift:0.5,impulse:0.3
    python -m repro.cli robustness --range 3 --frames 8 --severities 0,0.5,1
    python -m repro.cli cache verify --cache-dir .repro-cache
    python -m repro.cli obs export --trace-dir .repro-trace
"""

from __future__ import annotations

import argparse
import io
import json
import os
import sys

import numpy as np


def _add_obs_options(parser) -> None:
    parser.add_argument(
        "--log-json",
        action="store_true",
        help="emit structured JSON-lines run events on stderr "
        "(equivalent to REPRO_LOG=json)",
    )
    parser.add_argument(
        "--profile",
        action="store_true",
        help="collect run metrics and print a summary table after the command",
    )
    parser.add_argument(
        "--trace-dir",
        default=None,
        metavar="DIR",
        help="write a per-run Chrome trace_event file under DIR "
        "(equivalent to REPRO_TRACE_DIR; view in about:tracing)",
    )
    parser.add_argument(
        "--metrics-port",
        type=int,
        default=None,
        metavar="PORT",
        help="serve GET /metrics (Prometheus text exposition), /healthz, "
        "and /status over HTTP for the duration of the run "
        "(0 = any free port; the bound address is announced on stderr)",
    )
    parser.add_argument(
        "--manifest-dir",
        default=None,
        metavar="DIR",
        help="write a durable, schema-versioned manifest_<run>.json "
        "record of this run under DIR (equivalent to "
        "REPRO_MANIFEST_DIR; inspect with `repro obs runs/report/diff`)",
    )


def _add_impair_option(parser) -> None:
    parser.add_argument(
        "--impair",
        default=None,
        metavar="SPEC",
        help="inject signal-chain impairments: name[:severity],... with "
        "names interference, drift, clip, loss, impulse (severity in "
        "[0, 1], default 1; severity 0 is bit-identical to no injection)",
    )


def _add_demo(subparsers) -> None:
    parser = subparsers.add_parser("demo", help="one integrated two-way exchange")
    parser.add_argument("--range", type=float, default=3.0, dest="range_m")
    parser.add_argument("--downlink-bits", type=int, default=40)
    parser.add_argument("--uplink-bits", type=int, default=6)
    parser.add_argument("--seed", type=int, default=7)
    _add_impair_option(parser)
    _add_obs_options(parser)


def _positive_int(text: str) -> int:
    value = int(text)
    if value < 1:
        raise argparse.ArgumentTypeError(f"must be >= 1, got {value}")
    return value


def _nonnegative_int(text: str) -> int:
    value = int(text)
    if value < 0:
        raise argparse.ArgumentTypeError(f"must be >= 0, got {value}")
    return value


def _positive_float(text: str) -> float:
    value = float(text)
    if not value > 0:
        raise argparse.ArgumentTypeError(f"must be > 0, got {value}")
    return value


def _nonnegative_float(text: str) -> float:
    value = float(text)
    if value < 0:
        raise argparse.ArgumentTypeError(f"must be >= 0, got {value}")
    return value


def _add_worker_options(parser) -> None:
    parser.add_argument(
        "--workers",
        type=_positive_int,
        default=1,
        help="Monte-Carlo worker processes (1 = serial; results are "
        "bit-identical for any worker count)",
    )
    parser.add_argument(
        "--chunk-size",
        type=_positive_int,
        default=None,
        help="trials per dispatched chunk (default: auto, ~4 chunks/worker)",
    )
    parser.add_argument(
        "--max-retries",
        type=_nonnegative_int,
        default=2,
        help="resubmissions of a crashed/failed chunk before the run "
        "aborts with ExecutorError (retries are bit-identical; default 2)",
    )
    parser.add_argument(
        "--chunk-timeout",
        type=_positive_float,
        default=None,
        metavar="SECONDS",
        help="per-chunk deadline; a stuck chunk's worker process is killed "
        "and the chunk retried with exponential backoff.  Deadlines need "
        "worker processes: a run that fits in one chunk runs in-process, "
        "where none applies (default: no timeout)",
    )
    parser.add_argument(
        "--cache-dir",
        default=None,
        help="experiment-store directory; repeat runs are served from the "
        "cache, bit-identically (default: no caching)",
    )


def _add_adaptive_options(parser) -> None:
    parser.add_argument(
        "--adaptive",
        action="store_true",
        help="CI-driven sequential stopping: run frames in index-keyed "
        "rounds until the BER confidence interval is tighter than "
        "--ci-width (relative), capped at --max-frames; frame seeds are "
        "identical to a fixed-budget run's",
    )
    parser.add_argument(
        "--ci-width",
        type=_nonnegative_float,
        default=0.25,
        metavar="REL",
        help="target relative CI width (interval width / BER estimate) "
        "for --adaptive; 0 disables early stopping, making the run "
        "bit-identical to a fixed budget of --max-frames (default 0.25)",
    )
    parser.add_argument(
        "--min-frames",
        type=_positive_int,
        default=10,
        help="frames an --adaptive run must complete before any "
        "CI-based stop (default 10)",
    )
    parser.add_argument(
        "--max-frames",
        type=_positive_int,
        default=None,
        help="hard frame cap for --adaptive (default: --frames)",
    )
    parser.add_argument(
        "--adaptive-batch",
        type=_positive_int,
        default=None,
        metavar="FRAMES",
        help="frames per adaptive round; the stopping rule is evaluated "
        "on round boundaries (default: --min-frames)",
    )


def _add_ber(subparsers) -> None:
    parser = subparsers.add_parser("ber", help="Monte-Carlo downlink BER")
    parser.add_argument("--distance", type=float, default=3.0)
    parser.add_argument("--snr-db", type=float, default=None)
    parser.add_argument("--symbol-bits", type=int, default=5)
    parser.add_argument("--bandwidth-ghz", type=float, default=1.0)
    parser.add_argument("--delta-l-inches", type=float, default=45.0)
    parser.add_argument("--frames", type=int, default=100)
    parser.add_argument("--full-sync", action="store_true")
    parser.add_argument("--seed", type=int, default=0)
    _add_impair_option(parser)
    _add_adaptive_options(parser)
    _add_worker_options(parser)
    _add_obs_options(parser)


def _add_localize(subparsers) -> None:
    parser = subparsers.add_parser("localize", help="tag localization trials")
    parser.add_argument("--range", type=float, default=3.0, dest="range_m")
    parser.add_argument("--frames", type=int, default=5)
    parser.add_argument("--varying-slopes", action="store_true")
    parser.add_argument("--seed", type=int, default=0)
    _add_worker_options(parser)
    _add_obs_options(parser)


def _add_design(subparsers) -> None:
    parser = subparsers.add_parser("design", help="print a CSSK alphabet design")
    parser.add_argument("--bandwidth-ghz", type=float, default=1.0)
    parser.add_argument("--delta-l-inches", type=float, default=45.0)
    parser.add_argument("--symbol-bits", type=int, default=5)
    parser.add_argument("--period-us", type=float, default=120.0)
    _add_obs_options(parser)


def _add_power(subparsers) -> None:
    parser = subparsers.add_parser("power", help="print the tag power budget")
    parser.add_argument("--downlink-duty", type=float, default=0.1)
    _add_obs_options(parser)


def _add_soak(subparsers) -> None:
    parser = subparsers.add_parser(
        "soak", help="run consecutive ISAC frames and print a session report"
    )
    parser.add_argument("--range", type=float, default=3.0, dest="range_m")
    parser.add_argument("--frames", type=int, default=5)
    parser.add_argument("--seed", type=int, default=0)
    _add_impair_option(parser)
    _add_obs_options(parser)


def _severity_list(text: str) -> "tuple[float, ...]":
    try:
        values = tuple(float(token) for token in text.split(",") if token.strip())
    except ValueError:
        raise argparse.ArgumentTypeError(f"bad severity list {text!r}") from None
    if not values:
        raise argparse.ArgumentTypeError("severity list must be non-empty")
    for value in values:
        if not 0.0 <= value <= 1.0:
            raise argparse.ArgumentTypeError(
                f"severities must be in [0, 1], got {value}"
            )
    return values


#: Default fault bundle for `repro robustness` (one of everything).
_DEFAULT_ROBUSTNESS_IMPAIR = "interference:0.6,drift:0.4,clip:0.5,loss:0.4,impulse:0.5"


def _add_robustness(subparsers) -> None:
    parser = subparsers.add_parser(
        "robustness",
        help="impairment-severity sweep -> degradation curve",
    )
    parser.add_argument("--range", type=float, default=3.0, dest="range_m")
    parser.add_argument(
        "--frames", type=_positive_int, default=8,
        help="ISAC frames per severity point (default 8)",
    )
    parser.add_argument(
        "--severities", type=_severity_list, default=(0.0, 0.25, 0.5, 0.75, 1.0),
        help="comma-separated severity ladder in [0, 1] "
        "(default 0,0.25,0.5,0.75,1)",
    )
    parser.add_argument(
        "--impair", default=_DEFAULT_ROBUSTNESS_IMPAIR, metavar="SPEC",
        help="fault bundle to sweep; member severities are relative "
        f"weights scaled by each ladder point (default {_DEFAULT_ROBUSTNESS_IMPAIR})",
    )
    parser.add_argument(
        "--if-threshold", type=_positive_float, default=None, metavar="RATIO",
        help="IF-correction confidence gate: chirps whose range profile "
        "peaks below RATIO x mean fall back to the last confident chirp "
        "(default: off)",
    )
    parser.add_argument("--downlink-bits", type=_positive_int, default=10)
    parser.add_argument("--uplink-bits", type=_positive_int, default=4)
    parser.add_argument("--seed", type=int, default=0)
    _add_adaptive_options(parser)
    _add_worker_options(parser)
    _add_obs_options(parser)


def _add_serve(subparsers) -> None:
    parser = subparsers.add_parser(
        "serve",
        help="streaming job server over the executor + store "
        "(NDJSON line protocol over TCP)",
    )
    parser.add_argument("--host", default="127.0.0.1")
    parser.add_argument(
        "--port", type=_nonnegative_int, default=7531,
        help="TCP port to bind (0 = pick a free port; the bound address "
        "is printed on startup)",
    )
    parser.add_argument(
        "--pool-workers", type=_positive_int, default=2,
        help="points computed at once, each on its own thread; a point's "
        "trials run under --workers/--max-retries/--chunk-timeout, and a "
        "deadline needs worker processes: a point that fits in one chunk "
        "runs in-process (default 2)",
    )
    parser.add_argument(
        "--max-pending", type=_positive_int, default=256,
        help="queued+running point cap; submits over it are rejected "
        "with a retry-after hint (default 256)",
    )
    parser.add_argument(
        "--retry-after", type=_positive_float, default=1.0,
        metavar="SECONDS",
        help="base resubmission hint attached to backpressure rejections "
        "(scaled by backlog; default 1)",
    )
    parser.add_argument(
        "--resume", action="store_true",
        help="replay incomplete journaled jobs from a previous (crashed) "
        "server before accepting connections; already-stored points are "
        "cache hits, only missing points recompute",
    )
    parser.add_argument(
        "--no-journal", action="store_true",
        help="disable the write-ahead job journal (on by default when "
        "--cache-dir is set; --resume needs it)",
    )
    _add_worker_options(parser)
    _add_obs_options(parser)


def _add_cache(subparsers) -> None:
    parser = subparsers.add_parser("cache", help="manage an experiment store")
    cache_subparsers = parser.add_subparsers(dest="cache_command", required=True)

    stats = cache_subparsers.add_parser("stats", help="entry counts and sizes")
    stats.add_argument(
        "--json", action="store_true",
        help="emit machine-readable store health (same schema as the "
        "serve status endpoint's \"store\" block)",
    )
    verify = cache_subparsers.add_parser(
        "verify",
        help="integrity-check every entry and recompute a sampled subset "
        "bit-exactly (the determinism self-check)",
    )
    verify.add_argument(
        "--sample", type=int, default=8,
        help="how many replayable entries to recompute (default 8)",
    )
    verify.add_argument(
        "--seed", type=int, default=0, help="sampling seed (default 0)"
    )
    clear = cache_subparsers.add_parser("clear", help="delete every entry")
    for sub in (stats, verify, clear):
        sub.add_argument(
            "--cache-dir", default=".repro-cache",
            help="experiment-store directory (default .repro-cache)",
        )
        _add_obs_options(sub)


def _add_obs(subparsers) -> None:
    parser = subparsers.add_parser("obs", help="observability utilities")
    obs_subparsers = parser.add_subparsers(dest="obs_command", required=True)
    export = obs_subparsers.add_parser(
        "export",
        help="finalize a run's streaming trace into strict Chrome-trace "
        "JSON (traceEvents + the run's metrics snapshot)",
    )
    export.add_argument(
        "--trace-dir", default=".repro-trace",
        help="directory holding trace_<run>.json files (default .repro-trace)",
    )
    export.add_argument(
        "--run", default=None,
        help="run id to export (default: the most recent run in --trace-dir)",
    )
    export.add_argument(
        "--out", default=None,
        help="output path (default: export_<run>.json next to the trace)",
    )
    runs = obs_subparsers.add_parser(
        "runs", help="list the run-manifest ledger"
    )
    report = obs_subparsers.add_parser(
        "report",
        help="render one run's manifest as a human report "
        "(throughput, faults, cache traffic, adaptive trajectories, "
        "latency histograms)",
    )
    report.add_argument(
        "--run", default=None,
        help="run id to report (default: the most recent run)",
    )
    diff = obs_subparsers.add_parser(
        "diff",
        help="compare two run manifests: config/version changes, metric "
        "deltas, wall-clock and cache shifts",
    )
    diff.add_argument("run_a", help="baseline run id")
    diff.add_argument("run_b", help="candidate run id")
    for sub in (runs, report, diff):
        sub.add_argument(
            "--manifest-dir", default=".repro-manifests",
            help="ledger directory holding manifest_<run>.json files "
            "(default .repro-manifests)",
        )


def build_parser() -> argparse.ArgumentParser:
    """The top-level argument parser."""
    from repro import __version__

    parser = argparse.ArgumentParser(
        prog="repro", description="BiScatter reproduction command line"
    )
    parser.add_argument(
        "--version", action="version", version=f"repro {__version__}"
    )
    subparsers = parser.add_subparsers(dest="command", required=True)
    _add_demo(subparsers)
    _add_ber(subparsers)
    _add_localize(subparsers)
    _add_design(subparsers)
    _add_power(subparsers)
    _add_soak(subparsers)
    _add_robustness(subparsers)
    _add_serve(subparsers)
    _add_cache(subparsers)
    _add_obs(subparsers)
    return parser


def _impair_spec(args):
    """The parsed --impair spec, or None when the flag is absent/empty."""
    text = getattr(args, "impair", None)
    if not text:
        return None
    from repro.impair import ImpairmentSpec

    return ImpairmentSpec.parse(text)


def _run_demo(args, out) -> int:
    from repro.core.ber import bit_error_rate, random_bits
    from repro.sim.scenario import default_office_scenario

    scenario = default_office_scenario(tag_range_m=args.range_m)
    spec = _impair_spec(args)
    session = scenario.session(impairments=spec)
    downlink = random_bits(args.downlink_bits, rng=args.seed)
    uplink = random_bits(args.uplink_bits, rng=args.seed + 1)
    result = session.run_frame(downlink, uplink, rng=args.seed + 2)
    print(f"frame: {len(result.frame)} chirps "
          f"({result.frame.duration_s * 1e3:.1f} ms)", file=out)
    if spec is not None:
        print(f"impairments: {spec.describe()}", file=out)
    print(f"downlink BER: {bit_error_rate(downlink, result.downlink_bits_decoded):.3f}",
          file=out)
    if result.uplink is not None:
        print(f"uplink BER: {bit_error_rate(uplink, result.uplink.bits):.3f}", file=out)
    else:
        print("uplink: erased", file=out)
    if result.localization is not None:
        print(f"localized: {result.localization.range_m:.3f} m "
              f"(truth {args.range_m} m)", file=out)
    else:
        print("localization: erased", file=out)
    for erasure in result.erasures:
        print(f"erasure [{erasure.stage}]: {erasure.error}: {erasure.message}",
              file=out)
    return 0


def _execution_plan(args):
    """An ExecutionPlan from the worker/fault flags plus a timing collector."""
    from repro.sim.executor import ExecutionPlan

    timings = []
    plan = ExecutionPlan(
        workers=args.workers,
        chunk_size=args.chunk_size,
        progress=timings.append,
        max_retries=args.max_retries,
        chunk_timeout_s=args.chunk_timeout,
    )
    return plan, timings


def _print_execution(timings, args, out) -> None:
    if args.workers <= 1:
        return
    total = sum(t.seconds for t in timings)
    print(
        f"executor: {args.workers} workers, {len(timings)} chunks, "
        f"{total:.2f} s of chunk work",
        file=out,
    )


def _adaptive_from(args):
    """The AdaptiveConfig from the --adaptive flags (None = fixed budget)."""
    if not getattr(args, "adaptive", False):
        return None
    from repro.sim.adaptive import AdaptiveConfig

    return AdaptiveConfig.for_budget(
        args.frames,
        target_rel_width=args.ci_width,
        min_frames=args.min_frames,
        max_frames=args.max_frames,
        batch_frames=args.adaptive_batch,
    )


def _print_adaptive(trajectory, out) -> None:
    """One summary line for an adaptive run's stopping trajectory."""
    if trajectory is None:
        return
    rel = trajectory.get("rel_width")
    rel_text = f"{rel:.3f}" if rel is not None else "-"
    print(
        f"adaptive: {trajectory['frames']} frame(s) in "
        f"{trajectory['rounds']} round(s), stop={trajectory['reason']}, "
        f"CI [{trajectory['ci_low']:.3e}, {trajectory['ci_high']:.3e}], "
        f"rel width {rel_text}",
        file=out,
    )


def _store_from(args):
    """The ExperimentStore named by --cache-dir (None = caching off)."""
    if getattr(args, "cache_dir", None) is None:
        return None
    from repro.store import ExperimentStore

    return ExperimentStore(args.cache_dir)


def _print_store(store, out) -> None:
    if store is None:
        return
    print(
        f"cache: {store.session_hits} hit(s), {store.session_misses} miss(es) "
        f"({store.root})",
        file=out,
    )


def _run_ber(args, out) -> int:
    from repro.sim.engine import ber_trial_config, run_downlink_trials

    config = ber_trial_config(
        distance_m=args.distance,
        snr_db=args.snr_db,
        symbol_bits=args.symbol_bits,
        bandwidth_ghz=args.bandwidth_ghz,
        delta_l_inches=args.delta_l_inches,
        frames=args.frames,
        payload_symbols=16,
        full_sync=args.full_sync,
        impair=args.impair,
    )
    plan, timings = _execution_plan(args)
    store = _store_from(args)
    adaptive = _adaptive_from(args)
    point = run_downlink_trials(
        config, rng=args.seed, execution=plan, store=store, adaptive=adaptive
    )
    if config.impairments is not None:
        print(f"impairments: {config.impairments.describe()}", file=out)
    print(f"BER: {point.ber:.3e} ({point.bit_errors}/{point.bits_total} bits)", file=out)
    print(f"video SNR at {args.distance} m: {point.extra['video_snr_db']:.1f} dB", file=out)
    # After the BER/SNR lines, so fixed-vs-adaptive diffs of the first
    # two lines (the CI degenerate smoke) stay clean.
    _print_adaptive(point.extra.get("adaptive"), out)
    _print_execution(timings, args, out)
    _print_store(store, out)
    return 0


def _run_localize(args, out) -> int:
    from repro.radar.config import XBAND_9GHZ
    from repro.sim.engine import run_localization_trials
    from repro.sim.scenario import default_office_scenario

    scenario = default_office_scenario(tag_range_m=args.range_m)
    plan, timings = _execution_plan(args)
    store = _store_from(args)
    errors = run_localization_trials(
        XBAND_9GHZ,
        scenario.alphabet,
        scenario.tag.modulator,
        scenario.tag.van_atta,
        tag_range_m=args.range_m,
        varying_slopes=args.varying_slopes,
        num_frames=args.frames,
        clutter=scenario.clutter,
        rng=args.seed,
        execution=plan,
        store=store,
    )
    mode = "varying slopes (communicating)" if args.varying_slopes else "fixed slope"
    print(f"mode: {mode}", file=out)
    print(f"median error: {np.median(errors) * 100:.2f} cm", file=out)
    print(f"max error:    {np.max(errors) * 100:.2f} cm", file=out)
    _print_execution(timings, args, out)
    _print_store(store, out)
    return 0


def _run_design(args, out) -> int:
    from repro.core.cssk import CsskAlphabet, DecoderDesign
    from repro.errors import AlphabetError

    try:
        alphabet = CsskAlphabet.design(
            bandwidth_hz=args.bandwidth_ghz * 1e9,
            decoder=DecoderDesign.from_inches(args.delta_l_inches),
            symbol_bits=args.symbol_bits,
            chirp_period_s=args.period_us * 1e-6,
            min_chirp_duration_s=20e-6,
        )
    except AlphabetError as error:
        print(f"infeasible: {error}", file=out)
        return 1
    print(f"slopes: {alphabet.num_slopes} "
          f"({alphabet.num_data_symbols} data + header + sync)", file=out)
    print(f"beat range: {alphabet.header_beat_hz / 1e3:.1f} - "
          f"{alphabet.sync_beat_hz / 1e3:.1f} kHz "
          f"(spacing {alphabet.beat_spacing_hz / 1e3:.2f} kHz)", file=out)
    print(f"chirp durations: {alphabet.sync_duration_s * 1e6:.1f} - "
          f"{alphabet.header_duration_s * 1e6:.1f} us", file=out)
    print(f"downlink rate: {alphabet.data_rate_bps() / 1e3:.1f} kbps", file=out)
    return 0


def _run_power(args, out) -> int:
    from repro.tag.power import TagPowerModel

    for label, model in (
        ("COTS prototype", TagPowerModel.prototype()),
        ("projected IC", TagPowerModel.projected_ic()),
    ):
        print(f"{label}:", file=out)
        print(f"  continuous:        {model.continuous_power_w() * 1e3:.2f} mW", file=out)
        print(f"  uplink-only:       {model.uplink_only_power_w() * 1e6:.2f} uW", file=out)
        print(
            f"  sequential ({args.downlink_duty:.0%} DL): "
            f"{model.sequential_power_w(args.downlink_duty) * 1e3:.3f} mW",
            file=out,
        )
    return 0


def _run_soak(args, out) -> int:
    from repro.core.ber import random_bits
    from repro.sim.report import build_report
    from repro.sim.scenario import default_office_scenario

    scenario = default_office_scenario(tag_range_m=args.range_m)
    spec = _impair_spec(args)
    if spec is not None:
        print(f"impairments: {spec.describe()}", file=out)
    session = scenario.session(impairments=spec)
    results = [
        session.run_frame(
            random_bits(10, rng=args.seed + k),
            random_bits(4, rng=args.seed + 100 + k),
            rng=args.seed + 200 + k,
        )
        for k in range(args.frames)
    ]
    report = build_report(results, true_range_m=args.range_m)
    print(report.to_markdown(title=f"soak @ {args.range_m} m"), file=out)
    return 0 if report.healthy() else 1


def _run_robustness(args, out) -> int:
    from repro.sim.robustness import RobustnessConfig, run_robustness_sweep
    from repro.sim.scenario import default_office_scenario

    spec = _impair_spec(args)
    config = RobustnessConfig(
        scenario=default_office_scenario(tag_range_m=args.range_m),
        impairments=spec,
        severities=tuple(args.severities),
        num_frames=args.frames,
        downlink_bits=args.downlink_bits,
        uplink_bits=args.uplink_bits,
        if_confidence_threshold=args.if_threshold,
    )
    plan, timings = _execution_plan(args)
    store = _store_from(args)
    adaptive = _adaptive_from(args)
    point_frames: "list[int]" = []

    def collect_adaptive(index, severity, metrics):
        trajectory = metrics.get("adaptive")
        if trajectory:
            point_frames.append(int(trajectory["frames"]))

    curve = run_robustness_sweep(
        config,
        rng=args.seed,
        execution=plan,
        store=store,
        on_point=collect_adaptive if adaptive is not None else None,
        adaptive=adaptive,
    )
    print(f"impairments: {spec.describe()}", file=out)
    if adaptive is not None:
        print(
            f"frames per point: adaptive (ci-width {args.ci_width:g}, "
            f"cap {adaptive.max_frames})",
            file=out,
        )
    else:
        print(f"frames per point: {args.frames}", file=out)
    print(curve.to_markdown(), file=out)
    if point_frames:
        print(
            f"adaptive: {sum(point_frames)} frame(s) total "
            f"({', '.join(str(n) for n in point_frames)} per point)",
            file=out,
        )
    _print_execution(timings, args, out)
    _print_store(store, out)
    return 0


def _run_serve(args, out) -> int:
    from repro.serve.server import ServeConfig, run_server
    from repro.sim.executor import ExecutionPlan

    # A long-lived server must not accumulate per-chunk timing records,
    # so this builds the plan directly instead of via _execution_plan.
    plan = ExecutionPlan(
        workers=args.workers,
        chunk_size=args.chunk_size,
        max_retries=args.max_retries,
        chunk_timeout_s=args.chunk_timeout,
    )
    config = ServeConfig(
        host=args.host,
        port=args.port,
        pool_workers=args.pool_workers,
        max_pending=args.max_pending,
        retry_after_s=args.retry_after,
        cache_dir=args.cache_dir,
        execution=plan,
        metrics_port=getattr(args, "metrics_port", None),
        journal=not args.no_journal,
        resume=args.resume,
    )
    if args.resume and (args.no_journal or args.cache_dir is None):
        print(
            "error: --resume requires the journal (a --cache-dir and "
            "no --no-journal)",
            file=out,
        )
        return 2
    if args.chunk_timeout is not None and args.workers == 1:
        print(
            "error: --chunk-timeout needs worker processes (--workers > 1); "
            "an in-process point cannot be stopped",
            file=out,
        )
        return 2
    return run_server(config, out=out)


def _run_cache(args, out) -> int:
    from repro.store import ExperimentStore

    store = ExperimentStore(args.cache_dir)
    if args.cache_command == "stats":
        if args.json:
            print(
                json.dumps(store.stats_payload(), indent=2, sort_keys=True),
                file=out,
            )
            return 0
        stats = store.stats()
        print(f"store: {stats.root}", file=out)
        print(f"entries: {stats.entries} ({stats.corrupt} corrupt)", file=out)
        print(f"array files: {stats.array_files}", file=out)
        print(f"orphaned temp files: {stats.tmp_files}", file=out)
        print(
            f"journal: {stats.journal_entries} record(s) "
            f"({stats.journal_orphans} orphaned)",
            file=out,
        )
        print(f"size: {stats.total_bytes / 1024:.1f} KiB", file=out)
        print(
            f"session: {store.session_hits} hit(s), "
            f"{store.session_misses} miss(es)",
            file=out,
        )
        for kind, count in sorted(stats.kinds.items()):
            print(f"  {kind}: {count}", file=out)
        return 0
    if args.cache_command == "verify":
        report = store.verify(sample=args.sample, rng=args.seed)
        print(f"store: {store.root}", file=out)
        print(f"entries checked: {report.integrity_checked}/{report.total}", file=out)
        print(f"corrupt: {len(report.corrupt)}", file=out)
        print(
            f"recomputed bit-exactly: {report.recomputed - len(report.mismatched)}"
            f"/{report.recomputed}",
            file=out,
        )
        if report.unreplayable:
            print(f"not replayable (no recipe): {report.unreplayable}", file=out)
        for fingerprint in report.corrupt:
            print(f"  corrupt: {fingerprint}", file=out)
        for fingerprint in report.mismatched:
            print(f"  MISMATCH: {fingerprint}", file=out)
        print("verdict: " + ("ok" if report.ok() else "FAILED"), file=out)
        return 0 if report.ok() else 1
    if args.cache_command == "clear":
        pre = store.stats()
        removed = store.clear()
        print(f"removed {removed} entr{'y' if removed == 1 else 'ies'} "
              f"from {store.root}", file=out)
        if pre.tmp_files:
            print(f"removed {pre.tmp_files} orphaned temp file(s)", file=out)
        if pre.journal_orphans:
            print(
                f"removed {pre.journal_orphans} orphaned journal record(s)",
                file=out,
            )
        return 0
    raise ValueError(f"unknown cache command {args.cache_command!r}")


def _unknown_run(kind: str, run_id: str, available: "list[str]", out) -> int:
    """Report an unknown run id (exit 2), listing what exists instead."""
    print(f"error: no {kind} for run {run_id!r}", file=out)
    if available:
        print("available runs (oldest first):", file=out)
        for known in available:
            print(f"  {known}", file=out)
    else:
        print("no runs recorded yet", file=out)
    return 2


def _run_obs(args, out) -> int:
    from repro import obs

    if args.obs_command == "export":
        if args.run is not None and args.run not in obs.list_runs(args.trace_dir):
            return _unknown_run(
                "trace", args.run, obs.list_runs(args.trace_dir), out
            )
        try:
            target = obs.export_run(args.trace_dir, run_id=args.run, out=args.out)
        except FileNotFoundError as error:
            print(f"error: {error}", file=out)
            return 1
        print(f"exported: {target}", file=out)
        return 0

    from repro.obs import manifest as obs_manifest
    from repro.obs import report as obs_report

    ledger = args.manifest_dir
    known = obs_manifest.list_runs(ledger)
    if args.obs_command == "runs":
        manifests = [obs_manifest.load(ledger, run_id) for run_id in known]
        print(obs_report.render_runs_table(manifests), file=out)
        return 0
    if args.obs_command == "report":
        run_id = args.run if args.run is not None else (known[-1] if known else None)
        if run_id is None or run_id not in known:
            return _unknown_run("manifest", str(run_id), known, out)
        print(obs_report.render_run_report(obs_manifest.load(ledger, run_id)), file=out)
        return 0
    if args.obs_command == "diff":
        for run_id in (args.run_a, args.run_b):
            if run_id not in known:
                return _unknown_run("manifest", run_id, known, out)
        print(
            obs_report.render_diff(
                obs_manifest.load(ledger, args.run_a),
                obs_manifest.load(ledger, args.run_b),
            ),
            file=out,
        )
        return 0
    raise ValueError(f"unknown obs command {args.obs_command!r}")


class _Telemetry:
    """What one CLI invocation stood up: exporter thread + run recorder."""

    __slots__ = ("exporter", "recorder")

    def __init__(self) -> None:
        self.exporter = None
        self.recorder = None


#: Config-fingerprint exclusions: telemetry and execution knobs change
#: *how* a run is observed or scheduled, never its results — two runs
#: that differ only here should diff as "config unchanged".
_NON_CONFIG_ARGS = frozenset({
    "command", "log_json", "profile", "trace_dir", "metrics_port",
    "manifest_dir", "workers", "chunk_size", "max_retries",
    "chunk_timeout", "cache_dir",
})


def _config_fingerprint(args) -> str:
    from repro.store.fingerprint import fingerprint

    config = {
        name: value for name, value in sorted(vars(args).items())
        if name not in _NON_CONFIG_ARGS
    }
    return fingerprint(f"cli-config:{args.command}", config)


def _setup_obs(args, argv: "list[str] | None" = None) -> _Telemetry:
    """Enable observability when the command's flags ask for it.

    ``--profile`` alone turns the registry on (metrics need the enabled
    switch) without changing the logging destination; environment-driven
    configuration (``REPRO_LOG`` etc.) was already applied at import.
    ``--metrics-port`` additionally starts the HTTP exporter thread
    (except under ``serve``, which owns its exporter so ``/status`` can
    include scheduler state), and ``--manifest-dir`` /
    ``REPRO_MANIFEST_DIR`` opens a run-manifest record.  Returns the
    telemetry context for :func:`_finish_obs` to close out.
    """
    telemetry = _Telemetry()
    log_json = getattr(args, "log_json", False)
    profile = getattr(args, "profile", False)
    trace_dir = getattr(args, "trace_dir", None)
    metrics_port = getattr(args, "metrics_port", None)
    manifest_dir = getattr(args, "manifest_dir", None)
    if args.command in ("obs", "cache"):
        return telemetry
    if manifest_dir is None:
        from repro.obs.manifest import MANIFEST_DIR_ENV

        manifest_dir = os.environ.get(MANIFEST_DIR_ENV) or None
    wants_obs = (
        log_json or profile or trace_dir
        or metrics_port is not None or manifest_dir
    )
    if not wants_obs:
        return telemetry
    from repro import obs

    obs.configure(
        log_format="json" if log_json else None,
        trace_dir=trace_dir,
    )
    if manifest_dir:
        from repro.obs import manifest as obs_manifest

        telemetry.recorder = obs_manifest.begin(
            manifest_dir,
            argv=list(argv) if argv is not None else None,
            command=args.command,
            config_fingerprint=_config_fingerprint(args),
        )
    if metrics_port is not None and args.command != "serve":
        from repro.obs.exporter import MetricsExporter

        telemetry.exporter = MetricsExporter(port=metrics_port)
        host, port = telemetry.exporter.start()
        # Announced on stderr so stdout stays bit-comparable between
        # telemetry-on and telemetry-off runs.
        print(f"metrics on {host}:{port}", file=sys.stderr, flush=True)
    return telemetry


def _finish_obs(args, out, telemetry: "_Telemetry | None" = None,
                code: int = 0) -> None:
    """Post-command close-out: manifest finalize, exporter stop, profile."""
    if telemetry is not None:
        if telemetry.recorder is not None:
            from repro.obs import manifest as obs_manifest

            if obs_manifest.active() is telemetry.recorder:
                obs_manifest.finalize(code)
            else:
                telemetry.recorder.finalize(code)
        if telemetry.exporter is not None:
            telemetry.exporter.stop()
    if args.command == "obs":
        return
    from repro import obs

    if not obs.enabled():
        return
    if obs.tracing_enabled():
        # Persist the merged registry next to the trace so `obs export`
        # can attach it later.
        obs.write_metrics_snapshot()
    if not getattr(args, "profile", False):
        return
    from repro.sim.results import format_table

    data = obs.snapshot()
    rows = []
    for name, value in data["counters"].items():
        rows.append([name, "counter", f"{value:g}"])
    for name, value in data["gauges"].items():
        rows.append([name, "gauge", f"{value:g}"])
    for name, histogram in data["histograms"].items():
        count = histogram["count"]
        mean = histogram["sum"] / count if count else 0.0
        maximum = histogram["max"] if histogram["max"] is not None else 0.0
        rows.append(
            [name, "histogram", f"n={count} mean={mean:.4g}s max={maximum:.4g}s"]
        )
    if not rows:
        rows.append(["(no metrics recorded)", "", ""])
    print(f"profile [{obs.run_id()}]:", file=out)
    print(format_table(["metric", "type", "value"], rows), file=out)


_HANDLERS = {
    "demo": _run_demo,
    "ber": _run_ber,
    "localize": _run_localize,
    "design": _run_design,
    "power": _run_power,
    "soak": _run_soak,
    "robustness": _run_robustness,
    "serve": _run_serve,
    "cache": _run_cache,
    "obs": _run_obs,
}


def main(argv: "list[str] | None" = None, out=None) -> int:
    """CLI entry point; returns a process exit code."""
    out = sys.stdout if out is None else out
    args = build_parser().parse_args(argv)
    telemetry = _setup_obs(args, argv if argv is not None else sys.argv[1:])
    from repro.errors import ImpairmentError

    try:
        code = _HANDLERS[args.command](args, out)
    except ImpairmentError as error:
        print(f"error: {error}", file=out)
        code = 2
    except BrokenPipeError:
        # The reader went away (`repro obs report | head`).  Point stdout
        # at devnull so interpreter teardown doesn't raise again, skip
        # telemetry finalization prints, and exit with SIGPIPE's code.
        if out is sys.stdout:
            os.dup2(os.open(os.devnull, os.O_WRONLY), sys.stdout.fileno())
        _finish_obs(args, io.StringIO(), telemetry, 141)
        return 141
    _finish_obs(args, out, telemetry, code)
    return code


if __name__ == "__main__":
    raise SystemExit(main())
