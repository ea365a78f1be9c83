"""Traced in-process mirror of one shillbid CLI command.

Usage (from a run directory, with the repository's `src` on PYTHONPATH):

    python3 traced.py TRACE_OUT.json preprocess --in ../raw.csv --out bids.csv

It accepts the same argv as the `shillbid` command it mirrors, calls the
same public functions in the order `shillbid.cli` calls them, writes the
same data files, and records a span around each call into a layer. The
spans are kept in memory and written to TRACE_OUT.json when the command
ends. Each command runs in its own process, as the CLI does, so the
peak-RSS high-water mark taken at the end of every span belongs to that
command alone.

A span is {"id", "name", "parent", "start", "end", "busy", "rss_mb"}.
`busy` is the time spent inside the span; it equals end - start except
for `ingest.scan`, which wraps the scanner iterator that run_pipeline
pulls from and so is the sum of the many intervals spent producing rows.
"""
from __future__ import annotations

import argparse
import csv
import json
import os
import resource
import sys
import time
from contextlib import contextmanager

from shillbid import (
    PREPROCESSED_COLUMNS,
    SB_COLUMNS,
    PipelineConfig,
    build_sb_dataset,
    compute_global_aggregates,
    pattern_stats,
    read_preprocessed,
    read_sb_dataset,
    run_pipeline,
    run_pipeline_records,
    validate_dataset,
    weighted_score,
    winner_of,
    write_preprocessed,
    write_sb_dataset,
)
from shillbid.dataset import format_stats_table
from shillbid.ingest import RawScanner, check_sb_dataset


def peak_rss_mb() -> float:
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


class Tracer:
    def __init__(self) -> None:
        self.spans: list[dict] = []
        self.counts: dict[str, float] = {}
        self._stack: list[int] = []

    def _open(self, name: str) -> dict:
        rec = {
            "id": len(self.spans),
            "name": name,
            "parent": self._stack[-1] if self._stack else None,
            "start": time.perf_counter(),
            "end": None,
            "busy": 0.0,
            "rss_mb": None,
        }
        self.spans.append(rec)
        return rec

    @staticmethod
    def _close(rec: dict) -> None:
        rec["end"] = time.perf_counter()
        rec["rss_mb"] = peak_rss_mb()

    @contextmanager
    def span(self, name: str):
        rec = self._open(name)
        self._stack.append(rec["id"])
        try:
            yield rec
        finally:
            self._stack.pop()
            self._close(rec)
            rec["busy"] = rec["end"] - rec["start"]

    def timed_iter(self, name: str, iterable):
        """Yield from iterable, adding the time each next() takes to one span."""
        rec = self._open(name)
        it = iter(iterable)
        try:
            while True:
                started = time.perf_counter()
                try:
                    item = next(it)
                except StopIteration:
                    return
                finally:
                    rec["busy"] += time.perf_counter() - started
                yield item
        finally:
            self._close(rec)

    def dump(self, path: str, argv: list[str]) -> None:
        with open(path, "w", encoding="utf-8") as handle:
            json.dump(
                {"argv": argv, "spans": self.spans, "counts": self.counts}, handle
            )
            handle.write("\n")


def _sniff_header(path: str) -> tuple[str, ...]:
    with open(path, "r", encoding="utf-8", newline="") as handle:
        return tuple(next(csv.reader(handle)))


def _write_json(payload: dict, path: str) -> None:
    with open(path, "w", encoding="utf-8") as handle:
        json.dump(payload, handle, indent=2)
        handle.write("\n")


def _winners(auctions) -> dict[int, str]:
    return {a.auction_id: winner_of(a).bidder_id for a in auctions}


def cmd_preprocess(t: Tracer, args: argparse.Namespace) -> None:
    with t.span("cli.preprocess"):
        config = PipelineConfig()
        scanner = None
        if _sniff_header(args.input) == PREPROCESSED_COLUMNS:
            with t.span("ingest.read_preprocessed"):
                typed = read_preprocessed(args.input)
            with t.span("preprocess.recleanse"):
                records, report = run_pipeline_records(typed, config)
        else:
            scanner = RawScanner(args.input, config.schema)
            with t.span("preprocess.clean"):
                records, report = run_pipeline(
                    t.timed_iter("ingest.scan", scanner), config
                )
        with t.span("ingest.write_preprocessed"):
            write_preprocessed(records, args.out, validate=False)
        # Synth corpora have no ragged rows, so there is no rejects file to write.
        payload = {"cleansing": report.to_dict()}
        if scanner is not None:
            payload["ingest"] = scanner.report.to_dict()
        _write_json(payload, args.out + ".report.json")
    if scanner is not None:
        t.counts["ingest.scan_rows"] = scanner.report.row_count
        t.counts["ingest.rejected_rows"] = scanner.report.rejected_count
        t.counts["ingest.raw_bytes"] = os.path.getsize(args.input)
    t.counts["ingest.preprocessed_bytes"] = os.path.getsize(args.out)
    t.counts["preprocess.rows_in"] = report.before.records
    t.counts["preprocess.rows_out"] = report.after.records
    t.counts["preprocess.auctions_out"] = report.after.auctions


def cmd_features(t: Tracer, args: argparse.Namespace) -> None:
    with t.span("cli.features"):
        with t.span("ingest.read_preprocessed"):
            records = read_preprocessed(args.input)
        with t.span("model.validate"):
            auctions = validate_dataset(records)
        with t.span("metrics.aggregates"):
            aggregates = compute_global_aggregates(auctions)
        with t.span("dataset.build"):
            instances = build_sb_dataset(auctions, aggregates, jobs=args.jobs)
        with t.span("ingest.write_sb"):
            write_sb_dataset(instances, args.out)
        if args.scores:
            with t.span("metrics.score"):
                pairs = sorted(instances, key=lambda i: (i.auction_id, i.bidder_id))
                scores = [
                    (i.auction_id, i.bidder_id, f"{weighted_score(i, None):.6f}")
                    for i in pairs
                ]
            with open(args.scores, "w", encoding="utf-8", newline="") as handle:
                writer = csv.writer(handle, lineterminator="\n")
                writer.writerow(["auction_id", "bidder_id", "weighted_score"])
                writer.writerows(scores)
        winners = _winners(auctions)
        with t.span("dataset.stats"):
            stats = pattern_stats(instances, winners=winners)
        _write_json(stats.to_dict(), args.out + ".report.json")
    t.counts["metrics.bidders"] = len(aggregates.bidders)
    t.counts["dataset.instances"] = len(instances)
    t.counts["ingest.features_bytes"] = os.path.getsize(args.out)


def cmd_stats(t: Tracer, args: argparse.Namespace) -> None:
    with t.span("cli.stats"):
        with t.span("ingest.read_sb"):
            instances = read_sb_dataset(args.input)
        winners = None
        if args.preprocessed:
            with t.span("ingest.read_preprocessed"):
                records = read_preprocessed(args.preprocessed)
            with t.span("model.validate"):
                auctions = validate_dataset(records)
            winners = _winners(auctions)
        with t.span("dataset.stats"):
            text = format_stats_table(pattern_stats(instances, winners=winners))
        print(text)


def cmd_validate(t: Tracer, args: argparse.Namespace) -> None:
    with t.span("cli.validate"):
        header = _sniff_header(args.input)
        if header == PREPROCESSED_COLUMNS:
            with t.span("ingest.read_preprocessed"):
                records = read_preprocessed(args.input)
            with t.span("model.validate"):
                validate_dataset(records)
        elif header == SB_COLUMNS:
            with t.span("ingest.read_sb"):
                instances = read_sb_dataset(args.input)
            with t.span("ingest.check_sb"):
                check_sb_dataset(instances)
            t.counts["ingest.features_bytes"] = os.path.getsize(args.input)
        else:
            raise SystemExit(f"{args.input}: unknown table layout")


def _parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("trace_out")
    sub = parser.add_subparsers(dest="command", required=True)
    p = sub.add_parser("preprocess")
    p.add_argument("--in", dest="input", required=True)
    p.add_argument("--out", required=True)
    p.set_defaults(func=cmd_preprocess)
    p = sub.add_parser("features")
    p.add_argument("--in", dest="input", required=True)
    p.add_argument("--out", required=True)
    p.add_argument("--scores")
    p.add_argument("--jobs", type=int, default=1)
    p.set_defaults(func=cmd_features)
    p = sub.add_parser("stats")
    p.add_argument("--in", dest="input", required=True)
    p.add_argument("--preprocessed")
    p.set_defaults(func=cmd_stats)
    p = sub.add_parser("validate")
    p.add_argument("--in", dest="input", required=True)
    p.set_defaults(func=cmd_validate)
    return parser


def main(argv: list[str]) -> int:
    args = _parser().parse_args(argv)
    tracer = Tracer()
    args.func(tracer, args)
    tracer.dump(args.trace_out, argv[1:])
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
