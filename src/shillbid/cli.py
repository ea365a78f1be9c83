"""Command-line front end.

Subcommands cover the full chain: synth makes a raw corpus, preprocess
cleans it, features turns the cleaned table into per-bidder metric
rows, stats summarizes a feature dataset, validate re-checks any
output file.

Exit codes: 0 success, 1 I/O failure, 2 bad input or configuration,
3 broken invariant or out-of-range metric. A command writes each output
as <path>.tmp and moves them all into place only once every one is
written, so a failed run leaves no new or half-written file behind.
"""
from __future__ import annotations

import argparse
import errno
import gc
import json
import logging
import os
import sys
from contextlib import contextmanager, suppress
from datetime import datetime
from decimal import Decimal, InvalidOperation
from pathlib import Path

from .dataset import (
    build_sb_dataset,
    check_threshold,
    format_stats_table,
    pattern_stats,
)
from .errors import (
    ConfigError,
    DataConsistencyError,
    EmptyDatasetError,
    InvariantError,
    ParseError,
    SchemaError,
)
from .ingest import (
    RawScanner,
    check_sb_dataset,
    load_raw_schema,
    read_auctions,
    read_header,
    read_sb_dataset,
    write_preprocessed,
    write_rejects,
    write_sb_dataset,
    write_scores,
)
from .metrics import compute_global_aggregates, load_weights, weight_scorer
from .model import PREPROCESSED_COLUMNS, SB_COLUMNS, winner_of
from .preprocess import (
    REFERENCE_EPOCH,
    PipelineConfig,
    run_pipeline,
    run_pipeline_table,
)
from .synth import SynthConfig, write_corpus

log = logging.getLogger(__name__)


@contextmanager
def _outputs():
    """Yield staged: staged(path) is the .tmp file to write path's output to.

    When the block ends, every output is moved into place with
    os.replace; if it raises, or a path is a directory, none is and no
    .tmp file is left. A path staged twice is a ConfigError, as one
    output would silently overwrite the other.
    """
    moves: dict[str, str] = {}

    def staged(path: str | Path) -> str:
        if os.path.realpath(path) in map(os.path.realpath, moves.values()):
            raise ConfigError(f"{path} is named as more than one output")
        moves[f"{path}.tmp"] = str(path)
        return f"{path}.tmp"

    try:
        yield staged
        for path in moves.values():
            if os.path.isdir(path):
                raise IsADirectoryError(errno.EISDIR, os.strerror(errno.EISDIR), path)
    except BaseException:
        for tmp in moves:
            with suppress(OSError):
                os.remove(tmp)
        raise
    for tmp, path in moves.items():
        os.replace(tmp, path)


def _write_json(payload: dict, path: str | Path) -> None:
    with open(path, "w", encoding="utf-8") as handle:
        json.dump(payload, handle, indent=2)
        handle.write("\n")


def _parse_epoch(text: str) -> datetime:
    try:
        return datetime.strptime(text, "%Y-%m-%d %H:%M:%S")
    except ValueError:
        raise ConfigError(
            f"epoch must look like 'YYYY-MM-DD HH:MM:SS', got {text!r}"
        ) from None


def _parse_price(text: str) -> Decimal:
    try:
        return Decimal(text)
    except InvalidOperation:
        raise ConfigError(f"price floor is not a number: {text!r}") from None


def cmd_preprocess(args: argparse.Namespace) -> int:
    schema = load_raw_schema(args.schema) if args.schema else None
    config = PipelineConfig(
        **({"schema": schema} if schema else {}),
        reference_epoch=_parse_epoch(args.epoch),
        min_bids=args.min_bids,
        min_winning_price=(
            _parse_price(args.min_winning_price)
            if args.min_winning_price is not None
            else None
        ),
    )
    config.validate()

    with _outputs() as staged:
        # Name the outputs before the input is read, so a clash costs no
        # scan; only the scan knows whether a rejects file is needed.
        out = staged(args.out)
        report_path = staged(args.report or args.out + ".report.json")
        header = read_header(args.input)
        scanner = None
        if header == PREPROCESSED_COLUMNS:
            # Already-cleaned input: re-run the stages on its typed rows.
            log.info("input is in preprocessed layout, re-cleansing")
            auctions, report = run_pipeline_table(args.input, config)
        else:
            scanner = RawScanner(args.input, config.schema)
            auctions, report = run_pipeline(scanner, config)

        # The pipeline judged these views by model.auction_fault, and their ids.
        write_preprocessed(auctions, out, validate=False)
        payload = {"cleansing": report.to_dict()}
        if scanner is not None:
            payload["ingest"] = scanner.report.to_dict()
            if scanner.report.rejections:
                rejects_path = args.out + ".rejects.csv"
                write_rejects(scanner.report, staged(rejects_path))
                payload["ingest"]["rejects_file"] = rejects_path
        _write_json(payload, report_path)
    print(
        f"kept {report.after.records} rows across {report.after.auctions} "
        f"auctions -> {args.out}"
    )
    return 0


def cmd_features(args: argparse.Namespace) -> int:
    # Reject the configuration before anything is read or written.
    score = weight_scorer(load_weights(args.weights) if args.weights else None)
    check_threshold(args.threshold)
    with _outputs() as staged:
        # Name the outputs before the input is read, so a clash costs no read.
        out = staged(args.out)
        scores_path = args.scores and staged(args.scores)
        report_path = staged(args.report or args.out + ".report.json")
        auctions = read_auctions(args.input)
        aggregates = compute_global_aggregates(auctions)
        # Views in auction-id order: the instances come in (auction_id,
        # bidder_id) order, the order of both output files.
        instances = build_sb_dataset(auctions, aggregates, jobs=args.jobs)
        write_sb_dataset(instances, out)
        if scores_path:
            write_scores(instances, score, scores_path)
        winners = {a.auction_id: winner_of(a).bidder_id for a in auctions}
        stats = pattern_stats(instances, threshold=args.threshold, winners=winners)
        _write_json(stats.to_dict(), report_path)
    print(
        f"wrote {len(instances)} instances across {stats.total_auctions} "
        f"auctions -> {args.out}"
    )
    return 0


def cmd_synth(args: argparse.Namespace) -> int:
    config = SynthConfig(
        seed=args.seed,
        num_auctions=args.auctions,
        shill_fraction=args.shill_fraction,
        shill_run_length=args.run_length,
        duplicate_row_rate=args.dup_rate,
        missing_bidder_rate=args.missing_rate,
        thin_auction_rate=args.thin_rate,
        inconsistent_auction_rate=args.inconsistent_rate,
    )
    out = Path(args.out)
    truth = args.truth or str(out.with_name(out.stem + ".truth.csv"))
    defects = args.defects or str(out.with_name(out.stem + ".defects.json"))
    with _outputs() as staged:
        rows, manifest = write_corpus(config, staged(args.out), staged(truth), staged(defects))
    print(
        f"wrote {rows} raw rows for {args.auctions} auctions -> {args.out}\n"
        f"labels -> {truth}\n"
        f"defects -> {defects} (dups {manifest.duplicate_rows}, "
        f"blank bidders {manifest.missing_bidder_rows}, "
        f"thin {manifest.thin_auctions}, "
        f"inconsistent {manifest.inconsistent_auctions})"
    )
    return 0


def cmd_stats(args: argparse.Namespace) -> int:
    # Reject the threshold before anything is read.
    check_threshold(args.threshold)
    # The bid table first: its views are dropped once the winners are
    # known, before the feature table is read.
    winners = None
    if args.preprocessed:
        winners = {
            a.auction_id: winner_of(a).bidder_id
            for a in read_auctions(args.preprocessed)
        }
    instances = read_sb_dataset(args.input)
    stats = pattern_stats(instances, threshold=args.threshold, winners=winners)
    print(format_stats_table(stats))
    if args.report:
        with _outputs() as staged:
            _write_json(stats.to_dict(), staged(args.report))
    return 0


def cmd_validate(args: argparse.Namespace) -> int:
    header = read_header(args.input)
    if header == PREPROCESSED_COLUMNS:
        auctions = read_auctions(args.input)
        rows = sum(len(a.record_ids) for a in auctions)
        print(f"ok: {rows} rows, {len(auctions)} auctions pass all checks")
    elif header == SB_COLUMNS:
        instances = read_sb_dataset(args.input)
        check_sb_dataset(instances)
        print(f"ok: {len(instances)} instances pass all checks")
    else:
        raise SchemaError(
            f"{args.input}: header matches neither the preprocessed nor the "
            "feature dataset layout"
        )
    return 0


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="shillbid",
        description="Clean scraped auction data and build shill-bidding features.",
    )
    parser.add_argument(
        "-v", "--verbose", action="store_true", help="log progress to stderr"
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("preprocess", help="cleanse a raw scrape into a bid table")
    p.add_argument("--in", dest="input", required=True, help="raw scrape CSV")
    p.add_argument("--out", required=True, help="cleaned bid table CSV")
    p.add_argument("--report", help="cleansing report JSON (default <out>.report.json)")
    p.add_argument("--schema", help="key=value file mapping logical fields to headers")
    p.add_argument(
        "--epoch",
        default=REFERENCE_EPOCH.strftime("%Y-%m-%d %H:%M:%S"),
        help="countdown reference time, 'YYYY-MM-DD HH:MM:SS'",
    )
    p.add_argument(
        "--min-bids", type=int, default=5, help="drop auctions with fewer bids"
    )
    p.add_argument(
        "--min-winning-price",
        help="drop rows whose auction sold at or below this price",
    )
    p.set_defaults(func=cmd_preprocess)

    p = sub.add_parser("features", help="build the per-bidder feature dataset")
    p.add_argument("--in", dest="input", required=True, help="cleaned bid table CSV")
    p.add_argument("--out", required=True, help="feature dataset CSV")
    p.add_argument("--report", help="statistics JSON (default <out>.report.json)")
    p.add_argument("--weights", help="key=value file overriding score weights")
    p.add_argument("--scores", help="also write weighted scores to this CSV")
    p.add_argument(
        "--threshold",
        type=float,
        default=0.7,
        help="high-value cutoff used by the statistics report",
    )
    p.add_argument(
        "--jobs",
        type=int,
        default=1,
        help="accepted for interface symmetry; the build is one in-process pass",
    )
    p.set_defaults(func=cmd_features)

    p = sub.add_parser("synth", help="generate a synthetic raw corpus")
    p.add_argument("--out", required=True, help="raw corpus CSV")
    p.add_argument("--truth", help="label CSV (default <out stem>.truth.csv)")
    p.add_argument("--defects", help="defect manifest JSON (default <out stem>.defects.json)")
    p.add_argument("--seed", type=int, default=7)
    p.add_argument("--auctions", type=int, default=200)
    p.add_argument(
        "--shill-fraction",
        type=float,
        default=0.10,
        help="fraction of auctions that get a planted accomplice",
    )
    p.add_argument(
        "--run-length",
        type=int,
        default=4,
        help="consecutive bids in each accomplice streak",
    )
    p.add_argument("--dup-rate", type=float, default=0.0, help="duplicate row rate")
    p.add_argument(
        "--missing-rate", type=float, default=0.0, help="blank bidder id rate"
    )
    p.add_argument(
        "--thin-rate",
        type=float,
        default=0.0,
        help="fraction of auctions left under the activity floor",
    )
    p.add_argument(
        "--inconsistent-rate",
        type=float,
        default=0.0,
        help="fraction of auctions given contradictory prices",
    )
    p.set_defaults(func=cmd_synth)

    p = sub.add_parser("stats", help="summarize a feature dataset")
    p.add_argument("--in", dest="input", required=True, help="feature dataset CSV")
    p.add_argument("--report", help="also write the summary as JSON")
    p.add_argument("--threshold", type=float, default=0.7)
    p.add_argument(
        "--preprocessed",
        help="matching bid table; enables the winner-behavior buckets",
    )
    p.set_defaults(func=cmd_stats)

    p = sub.add_parser("validate", help="re-check a preprocessed or feature CSV")
    p.add_argument("--in", dest="input", required=True)
    p.set_defaults(func=cmd_validate)

    return parser


def main(argv: list[str] | None = None) -> int:
    args = _build_parser().parse_args(argv)
    logging.basicConfig(
        level=logging.INFO if args.verbose else logging.WARNING,
        format="%(levelname)s %(name)s: %(message)s",
        stream=sys.stderr,
    )
    # A command builds millions of small, acyclic objects; the cyclic
    # collector would re-walk them all for nothing. Suspend it for this
    # one command and leave it as found, for in-process callers.
    gc_was_enabled = gc.isenabled()
    gc.disable()
    try:
        return args.func(args)
    except OSError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    except (
        SchemaError,
        ParseError,
        DataConsistencyError,
        ConfigError,
        EmptyDatasetError,
        UnicodeDecodeError,
    ) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except InvariantError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 3
    finally:
        if gc_was_enabled:
            gc.enable()


if __name__ == "__main__":
    sys.exit(main())
