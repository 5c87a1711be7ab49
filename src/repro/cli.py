"""Command-line entry point.

Run any paper experiment by id::

    hotspots table1
    hotspots figure5b --set max_time=600
    hotspots figure5b --trials 8 --workers 4 --cache
    hotspots --list

Keyword overrides use ``--set name=value``; values parse as Python
literals (ints, floats, tuples), falling back to strings.
``--trials`` repeats the experiment under independently spawned
seeds, ``--workers`` fans those trials out over processes (results
are identical to a serial run), and ``--cache`` memoizes finished
trials on disk so re-runs are instant.

Fault tolerance: ``--retries`` re-executes failed trials under their
original seeds, ``--timeout`` bounds each trial's runtime (hung
workers are replaced), and ``--resume`` (with ``--journal-dir`` to
relocate the checkpoint) skips trials an interrupted run already
completed.  None of these change results — every recovery path is
bitwise-identical to a clean serial run::

    hotspots figure5b --trials 8 --workers 4 --retries 2 --timeout 900
    hotspots figure5b --trials 8 --workers 4 --resume   # after a crash

Mid-run checkpointing (experiments that accept the keywords, e.g.
figure5a/figure5b): ``--checkpoint-every N`` snapshots simulation
state every N ticks into ``--checkpoint-dir``, and
``--restore-from DIR`` resumes a simulation from the latest snapshot
there — the continued run is bitwise-identical to one that never
stopped::

    hotspots figure5b --checkpoint-every 200 --checkpoint-dir ckpt/
    hotspots figure5b --checkpoint-every 200 --restore-from ckpt/

``hotspots lint`` runs the determinism & reproducibility checkers
(:mod:`repro.analysis.lint`) instead of an experiment::

    hotspots lint
    hotspots lint --format json src/repro/sim
"""

from __future__ import annotations

import argparse
import ast
import sys
from contextlib import nullcontext
from typing import Any, Sequence

from repro.experiments import registry
from repro.runtime.cache import ResultCache
from repro.runtime.perf import perf_collection


def _parse_override(text: str) -> tuple[str, Any]:
    name, separator, raw = text.partition("=")
    if not separator:
        raise argparse.ArgumentTypeError(
            f"override must look like name=value, got {text!r}"
        )
    try:
        value = ast.literal_eval(raw)
    except (ValueError, SyntaxError):
        value = raw
    return name, value


def _positive_int(text: str) -> int:
    try:
        value = int(text)
    except ValueError:
        raise argparse.ArgumentTypeError(f"expected an integer, got {text!r}")
    if value < 1:
        raise argparse.ArgumentTypeError(
            f"expected a positive integer, got {value}"
        )
    return value


def _workers_count(text: str) -> int:
    try:
        value = int(text)
    except ValueError:
        raise argparse.ArgumentTypeError(f"expected an integer, got {text!r}")
    if value < 0:
        raise argparse.ArgumentTypeError(
            f"workers must be >= 1, or 0 for all cores; got {value}"
        )
    return value


def _non_negative_int(text: str) -> int:
    try:
        value = int(text)
    except ValueError:
        raise argparse.ArgumentTypeError(f"expected an integer, got {text!r}")
    if value < 0:
        raise argparse.ArgumentTypeError(
            f"expected a non-negative integer, got {value}"
        )
    return value


def _positive_float(text: str) -> float:
    try:
        value = float(text)
    except ValueError:
        raise argparse.ArgumentTypeError(f"expected a number, got {text!r}")
    if value <= 0:
        raise argparse.ArgumentTypeError(
            f"expected a positive number of seconds, got {value}"
        )
    return value


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="hotspots",
        description="Reproduce the tables and figures of the Hotspots "
        "paper (Cooke, Mao, Jahanian — DSN 2006).",
        epilog="The `hotspots lint` subcommand runs the determinism "
        "& reproducibility checkers instead (see `hotspots lint "
        "--help`).",
    )
    parser.add_argument(
        "experiment",
        nargs="?",
        choices=registry.experiment_ids(),
        help="experiment id to run",
    )
    parser.add_argument(
        "--list",
        action="store_true",
        help="list available experiments with titles and default params",
    )
    parser.add_argument(
        "--perf",
        action="store_true",
        help="collect per-stage engine timings "
        "(generate/filter/dispatch/infect) and print them to stderr; "
        "forces --workers 1 so every trial is timed in-process",
    )
    parser.add_argument(
        "--set",
        dest="overrides",
        action="append",
        default=[],
        type=_parse_override,
        metavar="NAME=VALUE",
        help="override a run() keyword argument (repeatable)",
    )
    parser.add_argument(
        "--shards",
        type=_positive_int,
        default=None,
        metavar="K",
        help="partition the simulated address space into K shards "
        "(experiments that accept a `shards` keyword only); an "
        "execution-topology knob like --workers — results are "
        "bitwise-identical to an unsharded run",
    )
    parser.add_argument(
        "--checkpoint-every",
        type=_positive_int,
        default=None,
        metavar="TICKS",
        help="snapshot mid-run simulation state every TICKS ticks "
        "(experiments that accept a `checkpoint_every` keyword only); "
        "pairs with --checkpoint-dir / --restore-from and never "
        "changes results",
    )
    parser.add_argument(
        "--checkpoint-dir",
        default=None,
        metavar="DIR",
        help="directory receiving mid-run checkpoints "
        "(requires --checkpoint-every)",
    )
    parser.add_argument(
        "--restore-from",
        default=None,
        metavar="DIR",
        help="resume the simulation from the latest checkpoint in DIR; "
        "the continued run is bitwise-identical to an uninterrupted one",
    )
    parser.add_argument(
        "--trials",
        type=_positive_int,
        default=None,
        metavar="N",
        help="Monte-Carlo repetitions under independently spawned seeds "
        "(default: the experiment's trial-count knob, usually 1)",
    )
    parser.add_argument(
        "--workers",
        type=_workers_count,
        default=1,
        metavar="N",
        help="processes to fan trials out over; 1 runs serial, "
        "0 uses every core (results are identical either way)",
    )
    parser.add_argument(
        "--cache",
        action=argparse.BooleanOptionalAction,
        default=False,
        help="memoize finished trials on disk keyed by "
        "(experiment, params, seed); --no-cache disables (default)",
    )
    parser.add_argument(
        "--cache-dir",
        default=None,
        metavar="DIR",
        help="result cache directory (default: $REPRO_CACHE_DIR or "
        "~/.cache/hotspots-repro)",
    )
    parser.add_argument(
        "--retries",
        type=_non_negative_int,
        default=0,
        metavar="N",
        help="extra attempts for a failed or timed-out trial; retries "
        "re-execute the identical seeded trial, so results never change "
        "(default: 0)",
    )
    parser.add_argument(
        "--timeout",
        type=_positive_float,
        default=None,
        metavar="SECONDS",
        help="per-trial runtime bound under parallel execution; a hung "
        "trial's worker pool is replaced and the trial retried per "
        "--retries (default: unbounded)",
    )
    parser.add_argument(
        "--resume",
        action="store_true",
        help="skip trials a previous (interrupted) run of this exact "
        "campaign already completed, per its journal; implies --cache",
    )
    parser.add_argument(
        "--journal-dir",
        default=None,
        metavar="DIR",
        help="where campaign journals (completion checkpoints) live "
        "(default: $REPRO_JOURNAL_DIR or ~/.cache/hotspots-repro/"
        "journals); passing it enables journaling and implies --cache",
    )
    return parser


def _format_default(value: Any) -> str:
    if isinstance(value, float) and value == int(value):
        return str(int(value))
    return repr(value)


def _list_experiments() -> str:
    lines = []
    width = max(len(experiment_id) for experiment_id in registry.REGISTRY)
    for experiment_id in registry.experiment_ids():
        experiment = registry.get(experiment_id)
        lines.append(f"{experiment_id:<{width}}  {experiment.title}")
        shown = {
            name: value
            for name, value in experiment.display_params().items()
            if value is not None
        }
        if shown:
            rendered = ", ".join(
                f"{name}={_format_default(value)}"
                for name, value in shown.items()
            )
            lines.append(f"{'':<{width}}  defaults: {rendered}")
    return "\n".join(lines)


def main(argv: Sequence[str] | None = None) -> int:
    if argv is None:
        argv = sys.argv[1:]
    if argv and argv[0] == "lint":
        # The lint suite has its own option surface; dispatch before
        # experiment-oriented parsing sees (and rejects) its flags.
        from repro.analysis.lint.cli import main as lint_main

        return lint_main(list(argv[1:]))
    parser = build_parser()
    args = parser.parse_args(argv)
    if args.list or args.experiment is None:
        print(_list_experiments())
        return 0

    cache = None
    journaling = args.resume or args.journal_dir is not None
    if args.cache or args.cache_dir is not None or journaling:
        # --resume/--journal-dir imply --cache: the journal records
        # which trials finished; the cache holds their results.
        cache = ResultCache(args.cache_dir)
    overrides = dict(args.overrides)
    if args.shards is not None:
        if "shards" in overrides:
            parser.error(
                "--shards conflicts with --set shards=...; pass one"
            )
        overrides["shards"] = args.shards
    for flag, name in (
        ("--checkpoint-every", "checkpoint_every"),
        ("--checkpoint-dir", "checkpoint_dir"),
        ("--restore-from", "restore_from"),
    ):
        value = getattr(args, name)
        if value is None:
            continue
        if name in overrides:
            parser.error(f"{flag} conflicts with --set {name}=...; pass one")
        overrides[name] = value
    if args.checkpoint_dir is not None and args.checkpoint_every is None:
        parser.error("--checkpoint-dir requires --checkpoint-every")
    experiment = registry.get(args.experiment)
    workers = args.workers
    perf_context = nullcontext()
    if args.perf:
        if workers != 1:
            print(
                "[perf] forcing --workers 1 (stage timings are "
                "collected in-process)",
                file=sys.stderr,
            )
            workers = 1
        perf_context = perf_collection()
    try:
        with perf_context:
            campaign = experiment.run(
                trials=args.trials,
                workers=workers,
                cache=cache,
                retry=args.retries,
                timeout=args.timeout,
                journal_dir=args.journal_dir,
                resume=args.resume,
                raise_on_failure=False,
                **overrides,
            )
    except TypeError as error:
        # Typically an unknown --set override; argparse-style message,
        # not a traceback.
        parser.error(f"invalid arguments for {args.experiment!r}: {error}")
    except ValueError as error:
        parser.error(f"invalid value for {args.experiment!r}: {error}")
    print(campaign.formatted())
    report = campaign.report
    perf_line = report.perf_summary() if report is not None else None
    if perf_line is not None:
        print(f"[perf] {perf_line}", file=sys.stderr)
    if report is not None and (
        not report.uneventful or report.recovery_events
    ):
        # Recoveries and failures are worth a stderr line even on
        # success; silence only covers the boring case.  Checkpoint
        # writes alone keep the run "uneventful" but still get their
        # count printed so --checkpoint-every is visibly working.
        print(f"[runner] {report.describe()}", file=sys.stderr)
    if report is not None and not report.ok:
        return 1
    return 0


if __name__ == "__main__":
    sys.exit(main())
