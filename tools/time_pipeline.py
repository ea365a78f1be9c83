#!/usr/bin/env python3
"""Time the `shillbid` chain in-process on a corpus and on a shuffled copy.

Each run is a fresh child process that calls shillbid.cli.main with
["preprocess", "--in", corpus, "--out", table], the table and its report
written under --work, so its peak RSS is the command's own plus the
modules this tool imports. After it, `preprocess` on the bid table
(the re-cleanse, writing a second table beside it), `features`
(writing the feature table beside the bid table), `stats
--preprocessed` and `validate` on the bid table each run the same way,
in a child of their own. The re-cleansed table must hold the bid
table's bytes: if it does not, the tool stops with an error. Each run
prints one JSON line: the source tree, the corpus order, preprocess's
seconds and peak RSS in MB, the rows kept, the sha256 of the cleansing
report (its JSON with sorted keys) and of the bid table's bytes, then
the seconds and peak RSS of recleanse, features, stats and validate,
each under its name, and the sha256 of the feature table's bytes.
Equal digests mean equal reports and equal tables.

The shuffled copy holds the corpus's lines after the header in an order
drawn from --shuffle-seed; it is written once, under --work, by a child
process of its own: a child's peak RSS starts at its parent's, so lines
held here would set every run's peak. A corpus
with a record that spans lines (a quoted line feed) cannot be shuffled
this way. With more than one --src, the runs alternate between them,
so each round is one run of each tree on each order, the first tree
first in odd rounds and last in even ones.

Run from the repository root:

    python3 tools/time_pipeline.py corpus.csv --runs 3
    python3 tools/time_pipeline.py corpus.csv --src src --src ../parent/src
"""
from __future__ import annotations

import argparse
import contextlib
import json
import os
import random
import resource
import subprocess
import sys
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
COMMANDS = ("preprocess", "recleanse", "features", "stats", "validate")


def table_path(work: Path, corpus: Path) -> Path:
    """Where a run of corpus writes its bid table (and its report, beside it)."""
    return work / f"{corpus.stem}.preprocessed.csv"


def recleansed_path(work: Path, corpus: Path) -> Path:
    """Where a run of corpus writes the bid table's re-cleanse (and its report, beside it)."""
    return work / f"{corpus.stem}.recleansed.csv"


def features_path(work: Path, corpus: Path) -> Path:
    """Where a run of corpus writes its feature table (and its report, beside it)."""
    return work / f"{corpus.stem}.sb.csv"


def child(src: str, corpus: Path, work: Path, command: str) -> dict:
    """One timed command of the chain in this process, against the package under src."""
    sys.path.insert(0, src)
    from shillbid.cli import main

    work.mkdir(parents=True, exist_ok=True)
    table, sb = str(table_path(work, corpus)), str(features_path(work, corpus))
    argv = {
        "preprocess": ["preprocess", "--in", str(corpus), "--out", table],
        "recleanse": ["preprocess", "--in", table, "--out", str(recleansed_path(work, corpus))],
        "features": ["features", "--in", table, "--out", sb],
        "stats": ["stats", "--in", sb, "--preprocessed", table],
        "validate": ["validate", "--in", table],
    }[command]
    started = time.perf_counter()
    # The command's own lines would break this one's JSON output.
    with contextlib.redirect_stdout(sys.stderr):
        code = main(argv)
    seconds = time.perf_counter() - started
    if code:
        raise SystemExit(f"{command} exited {code}")
    return {
        "seconds": round(seconds, 3),
        "peak_rss_mb": round(resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024, 1),
    }


def file_sha256(path: Path) -> str:
    """The sha256 of path's bytes."""
    # Imported here, not by a child: hashlib loads OpenSSL, a few MB that
    # would count in every child's peak.
    import hashlib

    digest = hashlib.sha256()
    with open(path, "rb") as handle:
        for block in iter(lambda: handle.read(1 << 20), b""):
            digest.update(block)
    return digest.hexdigest()


def outputs(table: Path) -> dict:
    """The rows a run kept and the digests of its cleansing report and its table."""
    import hashlib

    with open(f"{table}.report.json", encoding="utf-8") as handle:
        report = json.load(handle)["cleansing"]
    text = json.dumps(report, sort_keys=True)
    return {
        "kept_rows": report["after"]["records"],
        "report_sha256": hashlib.sha256(text.encode("utf-8")).hexdigest(),
        "table_sha256": file_sha256(table),
    }


def write_shuffled(corpus: Path, seed: int, out: Path) -> None:
    """Write corpus's header, then its other lines in an order drawn from seed."""
    with open(corpus, "r", encoding="utf-8", newline="") as handle:
        header, *lines = handle
    if lines and not lines[-1].endswith("\n"):
        lines[-1] += "\n"
    random.Random(seed).shuffle(lines)
    out.parent.mkdir(parents=True, exist_ok=True)
    tmp = out.with_name(out.name + ".tmp")
    with open(tmp, "w", encoding="utf-8", newline="") as handle:
        handle.write(header)
        handle.writelines(lines)
    os.replace(tmp, out)


def shuffled_copy(corpus: Path, seed: int, work: Path) -> Path:
    out = work / f"{corpus.stem}.shuffled-{seed}{corpus.suffix}"
    if not out.exists():
        subprocess.run(
            [sys.executable, __file__, str(corpus), "--shuffle-seed", str(seed),
             "--write-shuffled", str(out)],
            check=True,
        )
    return out


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("corpus", type=Path)
    parser.add_argument("--runs", type=int, default=3, help="rounds (default 3)")
    parser.add_argument(
        "--src", action="append", help="package source tree (default: this checkout's src)"
    )
    parser.add_argument("--shuffle-seed", type=int, default=7)
    parser.add_argument("--no-shuffle", action="store_true", help="time the corpus as it is only")
    parser.add_argument(
        "--work", type=Path, default=Path(".time_pipeline"),
        help="where the shuffled copy and each run's table go (default .time_pipeline)",
    )
    parser.add_argument("--child", choices=COMMANDS, help=argparse.SUPPRESS)
    parser.add_argument("--write-shuffled", type=Path, help=argparse.SUPPRESS)
    args = parser.parse_args(argv)
    srcs = [str(Path(s).resolve()) for s in args.src or [ROOT / "src"]]
    if args.write_shuffled:
        write_shuffled(args.corpus, args.shuffle_seed, args.write_shuffled)
        return 0
    if args.child:
        print(json.dumps(child(srcs[0], args.corpus, args.work, args.child)))
        return 0
    orders = [("as-is", args.corpus)]
    if not args.no_shuffle:
        orders.append(("shuffled", shuffled_copy(args.corpus, args.shuffle_seed, args.work)))
    for run in range(1, args.runs + 1):
        for order, path in orders:
            # Alternate which tree runs first, so a slow stretch of the
            # host does not always fall on the same one.
            for src in srcs if run % 2 else srcs[::-1]:
                timed = {
                    command: json.loads(subprocess.run(
                        [sys.executable, __file__, str(path), "--src", src, "--work",
                         str(args.work), "--child", command],
                        check=True, capture_output=True, text=True,
                    ).stdout)
                    for command in COMMANDS
                }
                result = {
                    "run": run, "src": src, "order": order, **timed.pop("preprocess"),
                    **outputs(table_path(args.work, path)), **timed,
                    "sb_sha256": file_sha256(features_path(args.work, path)),
                }
                if file_sha256(recleansed_path(args.work, path)) != result["table_sha256"]:
                    raise SystemExit(f"{src}: re-cleansing the {order} bid table changed it")
                print(json.dumps(result), flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
