"""Command-line interface.

Subcommands: downsample (run a sampler over a stream file), synth (generate
a labeled scene), metrics (compare a downsampled stream against its
original).

Exit codes: 0 success, 2 bad arguments, 3 malformed input file, 4 I/O
failure.  Stochastic seeds come from --seed, falling back to the
EVDOWN_SEED environment variable, then 0.

downsample streams: it reads its input _CHUNK_EVENTS events at a time,
decides each chunk and appends its kept events and log rows to files
that replace the output paths only once the whole input has been read
and checked.  A binary input is read record block by record block
(evio.BinaryEvents).  A CSV input is read twice, a block of bytes at a
time, into one buffer per pass (evio.CsvEvents): once to check its rows
and infer its geometry, keeping no column, then again to decide it, each
chunk's rows parsed straight into its own columns.  So the command holds
one block and one chunk: neither the loop nor a reader holds a chunk, its
kept events or its log rows while the next chunk is read.  This holds on
every host and for every input: a block the compiled scan refuses, or any
block without the compiled kernels, goes through the line loop in both
passes, and a pipe is first copied to a temporary file, which both passes
read.
"""

from __future__ import annotations

import argparse
import contextlib
import os
import sys

from .density import SigmoidParams
# write_log and run are not called here; they stay importable from this
# module for tools that wrap the calls the CLI names.
from .evio import (BinaryEvents, CsvEvents, EventFileError, EventWriter,
                   LogWriter, detect_format, output_format, read_events,
                   read_prior, replacing, report_doc, write_events,
                   write_json_doc, write_log, write_stats)
from .events import SensorGeometry
from .metrics import match_events, retention_ratio, selectivity
from .pipeline import METHODS, Downsampler, run
from .samplers import SamplerConfig
from .synth import EdgeSpec, SceneSpec, generate


def _resolve_seed(value: int | None) -> int:
    """--seed's value, else EVDOWN_SEED's, else 0.  Raises ValueError,
    naming where the seed came from, for one that is not a nonnegative
    integer."""
    source = "--seed"
    if value is None:
        env = os.environ.get("EVDOWN_SEED")
        if env is None:
            return 0
        source = "EVDOWN_SEED"
        try:
            value = int(env)
        except ValueError:
            raise ValueError(
                f"EVDOWN_SEED must be an integer, got {env!r}") from None
    if value < 0:
        raise ValueError(f"{source} must be >= 0, got {value}")
    return value


def _add_seed(parser: argparse.ArgumentParser) -> None:
    parser.add_argument("--seed", type=int, default=None,
                        help="RNG seed (default: $EVDOWN_SEED, then 0)")


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="evdown",
        description="Online downsampling toolkit for event-camera streams.")
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("downsample", help="downsample an event stream file")
    p.add_argument("--input", "-i", required=True, help="input stream path")
    p.add_argument("--output", "-o", required=True,
                   help="output stream path (.csv suffix selects CSV)")
    p.add_argument("--method", "-m", required=True, choices=METHODS)
    p.add_argument("--alpha", "-a", required=True, type=float,
                   help="target sampling rate in (0, 1]")
    p.add_argument("--window-us", type=int, default=6000,
                   help="analysis window length, microseconds")
    p.add_argument("--tw-us", type=int, default=100,
                   help="deterministic duty-cycle window, microseconds")
    p.add_argument("--theta1", type=float, default=5.0, help="sigmoid slope")
    p.add_argument("--theta2", type=float, default=0.5, help="sigmoid midpoint")
    p.add_argument("--prior", help="spatial prior file (poisson method only)")
    p.add_argument("--no-cap", action="store_true",
                   help="disable the hard budget cap")
    p.add_argument("--stats", help="write run stats JSON here ('-' for stdout)")
    p.add_argument("--log", help="write the per-event decision log CSV here")
    p.add_argument("--format", choices=("auto", "csv", "binary"),
                   default="auto", help="input format (default: sniff)")
    _add_seed(p)
    p.set_defaults(func=cmd_downsample)

    p = sub.add_parser("synth", help="generate a synthetic labeled scene")
    p.add_argument("--output", "-o", required=True,
                   help="output path (labeled CSV)")
    p.add_argument("--width", type=int, required=True)
    p.add_argument("--height", type=int, required=True)
    p.add_argument("--duration-us", type=int, required=True)
    p.add_argument("--noise-rate", type=float, default=0.0,
                   help="background events per pixel per second")
    p.add_argument("--edge", action="append", default=[],
                   metavar="X0,Y0,X1,Y1,VEL,RATE",
                   help="moving edge: endpoints, px/s along the normal, "
                        "events per edge pixel per second (repeatable)")
    p.add_argument("--polarity", choices=("alternating", "random"),
                   default="alternating")
    _add_seed(p)
    p.set_defaults(func=cmd_synth)

    p = sub.add_parser("metrics",
                       help="score a downsampled stream against its original")
    p.add_argument("--original", required=True, help="original stream path")
    p.add_argument("--downsampled", required=True,
                   help="downsampled stream path (must be a subset)")
    p.add_argument("--out", required=True,
                   help="report JSON path ('-' for stdout)")
    p.add_argument("--window-us", type=int, default=6000)
    p.add_argument("--alpha", type=float, default=None,
                   help="target rate to record in the report")
    p.set_defaults(func=cmd_metrics)

    return parser


def _check_alpha(alpha: float) -> float:
    if not (0.0 < alpha <= 1.0):
        raise ValueError(f"--alpha must be in (0, 1], got {alpha}")
    return alpha


def _check_window(value: int, flag: str) -> int:
    if value < 1:
        raise ValueError(f"{flag} must be >= 1, got {value}")
    if value > 2**63 - 1:
        raise ValueError(f"{flag} must be at most 2**63 - 1, got {value}")
    return value


_CHUNK_EVENTS = 1 << 14   # events per chunk; bounds downsample's memory


def _source(path, fmt: str):
    """The input's reader, checked: its geometry, whether it is labeled,
    and its events in blocks.  Close it when done."""
    binary = (detect_format(path) if fmt == "auto" else fmt) == "binary"
    return BinaryEvents(path) if binary else CsvEvents(path)


def _check_outputs(args) -> None:
    """Refuse two of --output, --log and --stats (other than '-') that
    resolve to one regular file, where the one written last would replace
    the other; a device or pipe takes each in turn."""
    flags = {}
    for flag, path in (("--output", args.output), ("--log", args.log),
                       ("--stats", None if args.stats == "-" else args.stats)):
        real = os.path.realpath(path) if path else None
        if real and (os.path.isfile(real) or not os.path.exists(real)):
            first = flags.setdefault(real, flag)
            if first != flag:
                raise ValueError(f"{first} and {flag} name one file: {path}")


def cmd_downsample(args) -> int:
    _check_outputs(args)
    config_kwargs = dict(
        alpha=_check_alpha(args.alpha),
        tw_us=_check_window(args.tw_us, "--tw-us"),
        t_us=_check_window(args.window_us, "--window-us"),
        theta=SigmoidParams(args.theta1, args.theta2),
        seed=_resolve_seed(args.seed),
        cap_enabled=not args.no_cap,
    )
    with contextlib.ExitStack() as files:
        # Closed on every exit: a piped CSV's copy is a temporary file.
        source = files.enter_context(
            contextlib.closing(_source(args.input, args.format)))
        geometry = source.geometry
        if args.prior:
            config_kwargs["prior"] = read_prior(args.prior, geometry)
        sampler = Downsampler(geometry, args.method,
                              SamplerConfig(**config_kwargs))
        kept = EventWriter(files.enter_context(replacing(args.output)),
                           output_format(args.output), geometry,
                           source.labeled)
        log = (LogWriter(files.enter_context(replacing(args.log)))
               if args.log else None)
        for chunk in source.blocks(_CHUNK_EVENTS):
            out, log_part = sampler.push(chunk)
            kept.write(out)
            if log is not None:
                log.write(log_part)
            # Neither the chunk nor what it kept is held while the next
            # chunk is read.
            del chunk, out, log_part
        kept.finish()
    stats = sampler.close()
    if args.stats:
        write_stats(stats, sys.stdout if args.stats == "-" else args.stats)
    print(f"downsample: kept {stats.retained}/{stats.processed} events "
          f"(ratio {stats.ratio:.4f}, {stats.capped} capped)", file=sys.stderr)
    return 0


def cmd_synth(args) -> int:
    edges = []
    for text in args.edge:
        fields = text.split(",")
        if len(fields) != 6:
            raise ValueError(
                f"--edge expects X0,Y0,X1,Y1,VEL,RATE, got {text!r}")
        try:
            vals = [float(v) for v in fields]
        except ValueError:
            raise ValueError(
                f"--edge expects numeric fields, got {text!r}") from None
        edges.append(EdgeSpec(*vals[:4], velocity_px_s=vals[4],
                              rate_per_px_s=vals[5]))
    spec = SceneSpec(
        geometry=SensorGeometry(args.width, args.height),
        duration_us=args.duration_us,
        edges=tuple(edges),
        noise_rate_px_s=args.noise_rate,
        polarity=args.polarity,
        seed=_resolve_seed(args.seed),
    )
    stream = generate(spec)
    write_events(stream, args.output, fmt="csv")
    n_edge = int((stream.labels == 1).sum())
    print(f"synth: {len(stream)} events ({n_edge} edge, "
          f"{len(stream) - n_edge} noise) -> {args.output}", file=sys.stderr)
    return 0


def cmd_metrics(args) -> int:
    window_us = _check_window(args.window_us, "--window-us")
    if args.alpha is not None:
        _check_alpha(args.alpha)
    original = read_events(args.original)
    downsampled = read_events(args.downsampled)
    # An empty original or a non-subset downsampled file is bad input (exit 3).
    if len(original) == 0:
        raise EventFileError("original stream is empty")
    try:
        if original.is_labeled:
            sel = selectivity(original, downsampled, alpha=args.alpha)
        else:
            sel = None
            match_events(original, downsampled)
    except ValueError as exc:
        raise EventFileError(str(exc)) from None
    retention = retention_ratio(original, downsampled, window_us=window_us)
    doc = report_doc(sel, alpha=args.alpha, processed=len(original),
                     retained=len(downsampled), ratio=retention.overall,
                     per_window_ratios=retention.per_window_ratios)
    write_json_doc(doc, sys.stdout if args.out == "-" else args.out)
    return 0


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except EventFileError as exc:
        print(f"evdown: {exc}", file=sys.stderr)
        return 3
    except OSError as exc:
        print(f"evdown: {exc}", file=sys.stderr)
        return 4
    except ValueError as exc:
        print(f"evdown: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
