"""Record each workload's input census and output digests at the default seed.

    python3 perfbench/census.py

Sets up every workload at seed 4 and scale 1, runs its commands once,
and rewrites recorded.json next to this file with:

- "census": measured properties of the workload's input (sizes, bids per
  auction, distinct bidders and date texts, the share of rows with an
  empty cell, instances per row and the defect counts), so that issues
  can cite verified traffic;
- "digests": the sha256 of every checked output, which run.py compares
  against on every run with the default seed.

Re-run it only when the workloads change; the program's outputs are
fixed by its byte-identical contract.
"""
from __future__ import annotations

import csv
import json
import os
import shutil
import statistics
import sys

import run
from workloads import WORKLOADS

DATE_FIELDS = ("start_date", "end_date", "bid_date")


def raw_census(path) -> dict:
    from shillbid.ingest import DEFAULT_RAW_SCHEMA

    rows = 0
    with_empty = 0
    per_auction: dict[str, int] = {}
    bidders: set[str] = set()
    dates: set[str] = set()
    with open(path, "r", encoding="utf-8", newline="") as handle:
        reader = csv.reader(handle)
        header = next(reader)
        url_at = header.index(DEFAULT_RAW_SCHEMA["auction_url"])
        bidder_at = header.index(DEFAULT_RAW_SCHEMA["bidder_id"])
        date_at = [header.index(DEFAULT_RAW_SCHEMA[f]) for f in DATE_FIELDS]
        for cells in reader:
            rows += 1
            with_empty += "" in cells
            per_auction[cells[url_at]] = per_auction.get(cells[url_at], 0) + 1
            if cells[bidder_at]:
                bidders.add(cells[bidder_at])
            dates.update(cells[i] for i in date_at)
    counts = list(per_auction.values())
    return {
        "raw_rows": rows,
        "raw_bytes": os.path.getsize(path),
        "auctions": len(per_auction),
        "bids_per_auction_median": statistics.median(counts),
        "bids_per_auction_max": max(counts),
        "distinct_bidders": len(bidders),
        "empty_cell_row_share": round(with_empty / rows, 6),
        "distinct_date_texts": len(dates),
    }


def table_census(path) -> dict:
    with open(path, "r", encoding="utf-8", newline="") as handle:
        reader = csv.reader(handle)
        next(reader)
        auctions = set()
        rows = 0
        for cells in reader:
            rows += 1
            auctions.add(cells[1])
    return {"rows": rows, "bytes": os.path.getsize(path), "auctions": len(auctions)}


def main() -> int:
    if not (run.SRC / "shillbid" / "__init__.py").is_file():
        print(f"error: no shillbid package under {run.SRC}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(run.SRC))
    recorded = {
        "seed": run.DEFAULT_SEED,
        "scale": 1.0,
        "workloads": {},
    }
    for workload in WORKLOADS.values():
        rundir = run.WORK / f"census-{workload.name}"
        shutil.rmtree(rundir, ignore_errors=True)
        rundir.mkdir(parents=True)
        try:
            setup = run.set_up(workload, run.DEFAULT_SEED, 1.0, rundir)
            digests = dict(setup.expected_digests)
            steps, _ = run.run_chain(workload, rundir, "untraced", setup, digests)
            problems = [p for step in steps for p in step.problems]
            if problems:
                print(f"error: {workload.name}: {'; '.join(problems)}", file=sys.stderr)
                return 1
            census = raw_census(rundir / "raw.csv")
            features = rundir / ("sb.csv" if workload.recheck else "untraced/sb.csv")
            instances = table_census(features)["rows"]
            census["instances"] = instances
            census["instances_per_raw_row"] = round(instances / census["raw_rows"], 6)
            census["defects"] = setup.manifest_removals
            if workload.recheck:
                census["input_table"] = table_census(rundir / "bids.csv")
            recorded["workloads"][workload.name] = {"census": census, "digests": digests}
        finally:
            shutil.rmtree(rundir, ignore_errors=True)
    with open(run.RECORDED, "w", encoding="utf-8") as handle:
        json.dump(recorded, handle, indent=2)
        handle.write("\n")
    print(f"wrote {run.RECORDED}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
