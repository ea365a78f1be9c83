"""End-to-end command-line behavior and exit codes."""
import contextlib
import csv
import functools
import gc
import io
import json
import random
import re
import sys
import tempfile
import tracemalloc
from collections import Counter
from itertools import count
from pathlib import Path
from unittest import mock

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from shillbid import cli, ingest, metrics, preprocess
from shillbid.cli import main, write_features
from shillbid.dataset import build_sb_dataset
from shillbid.ingest import (
    DEFAULT_RAW_SCHEMA,
    RawScanner,
    read_auctions,
    read_sb_dataset,
    write_preprocessed,
    write_sb_dataset,
)
from shillbid.metrics import (
    compute_global_aggregates,
    load_weights,
    participation_map,
    weight_scorer,
    weighted_score,
)
from shillbid.model import (
    DEFAULT_WEIGHTS, METRIC_COLUMNS, PREPROCESSED_COLUMNS, SB_COLUMNS, AuctionView,
)
from shillbid.preprocess import PipelineConfig, run_pipeline
from shillbid.synth import SynthConfig, write_corpus

from .test_preprocess import five_bid_auction


def run(*argv):
    return main(list(argv))


@pytest.fixture
def chain(tmp_path):
    """A small corpus taken through synth -> preprocess -> features."""
    corpus = tmp_path / "corpus.csv"
    clean = tmp_path / "clean.csv"
    sb = tmp_path / "sb.csv"
    assert run(
        "synth", "--out", str(corpus), "--auctions", "40",
        "--dup-rate", "0.05", "--missing-rate", "0.04",
        "--thin-rate", "0.05", "--inconsistent-rate", "0.05",
    ) == 0
    assert run("preprocess", "--in", str(corpus), "--out", str(clean)) == 0
    assert run("features", "--in", str(clean), "--out", str(sb)) == 0
    return tmp_path


def test_full_chain_produces_consistent_files(chain, capsys):
    clean = chain / "clean.csv"
    sb = chain / "sb.csv"
    assert run("validate", "--in", str(clean)) == 0
    assert run("validate", "--in", str(sb)) == 0
    out = capsys.readouterr().out
    assert out.count("ok:") == 2

    report = json.loads((chain / "clean.csv.report.json").read_text())
    assert set(report) == {"cleansing", "ingest"}
    removed = report["cleansing"]["removed"]
    manifest = json.loads((chain / "corpus.defects.json").read_text())
    assert removed["duplicate_records_removed"] == manifest["duplicate_rows"]
    assert removed["missing_bidder_rows_removed"] == manifest["missing_bidder_rows"]
    assert removed["low_bid_auctions_removed"] == manifest["thin_auctions"]
    assert removed["inconsistent_auctions_removed"] == manifest["inconsistent_auctions"]

    feature_report = json.loads((chain / "sb.csv.report.json").read_text())
    assert feature_report["total_instances"] > 0
    assert feature_report["behavior_buckets"]["winners_aggressive"] is not None


def test_preprocess_is_idempotent_via_cli(chain):
    clean = chain / "clean.csv"
    again = chain / "clean2.csv"
    assert run("preprocess", "--in", str(clean), "--out", str(again)) == 0
    assert clean.read_bytes() == again.read_bytes()
    report = json.loads((chain / "clean2.csv.report.json").read_text())
    assert "ingest" not in report
    assert report["cleansing"]["removed"]["duplicate_records_removed"] == 0


def test_stats_command_renders_table(chain, capsys):
    sb = chain / "sb.csv"
    report = chain / "stats.json"
    assert run(
        "stats", "--in", str(sb),
        "--preprocessed", str(chain / "clean.csv"),
        "--report", str(report),
    ) == 0
    out = capsys.readouterr().out
    assert "Feature dataset statistics" in out
    payload = json.loads(report.read_text())
    assert payload["total_instances"] > 0
    assert payload["behavior_buckets"]["non_winners_aggressive"] is not None


def test_stats_on_a_header_only_feature_table(tmp_path, capsys):
    # No instance: every percentage is of zero, and no bucket has a value.
    sb = tmp_path / "sb.csv"
    write_sb_dataset([], sb)
    assert run("stats", "--in", str(sb)) == 0
    out = capsys.readouterr().out
    assert re.search(r"^Instances +0$", out, re.M)
    assert re.search(r"^Winners, aggressive +n/a$", out, re.M)
    assert re.search(r"^bidding_ratio > 0\.7 +0  0\.00%$", out, re.M)


def test_scores_output_matches_library(chain):
    sb = chain / "sb.csv"
    scores_path = chain / "scores.csv"
    assert run(
        "features", "--in", str(chain / "clean.csv"),
        "--out", str(sb), "--scores", str(scores_path),
    ) == 0
    instances = {(i.auction_id, i.bidder_id): i for i in read_sb_dataset(sb)}
    with open(scores_path, newline="", encoding="utf-8") as fh:
        rows = list(csv.DictReader(fh))
    assert len(rows) == len(instances)
    for row in rows:
        inst = instances[(int(row["auction_id"]), row["bidder_id"])]
        assert float(row["weighted_score"]) == pytest.approx(
            weighted_score(inst), abs=2e-6
        )


@pytest.mark.parametrize("weights_text", [None, "successive_outbidding=1.0\nearly_bidding=0.05\n"])
def test_scores_are_weighted_score_to_six_decimals(chain, tmp_path, weights_text):
    argv = ["features", "--in", str(chain / "clean.csv"), "--out", str(chain / "sb3.csv")]
    table = None
    if weights_text is not None:
        weights = tmp_path / "weights.conf"
        weights.write_text(weights_text, encoding="utf-8")
        argv += ["--weights", str(weights)]
        table = load_weights(weights)
    scores_path = chain / "exact.csv"
    assert run(*argv, "--scores", str(scores_path)) == 0
    auctions = read_auctions(chain / "clean.csv")
    instances = build_sb_dataset(auctions, compute_global_aggregates(auctions))
    with open(scores_path, newline="", encoding="utf-8") as fh:
        rows = list(csv.reader(fh))
    assert rows[0] == ["auction_id", "bidder_id", "weighted_score"]
    assert rows[1:] == [
        [str(i.auction_id), i.bidder_id, f"{weighted_score(i, table):.6f}"]
        for i in instances
    ]


def test_scores_quote_a_bare_carriage_return(tmp_path):
    rows = five_bid_auction()
    for row, bidder in zip(rows, ["x\ry", "a,b", 'say "hi"', "x\ry", "z"]):
        row[DEFAULT_RAW_SCHEMA["bidder_id"]] = bidder
    clean, sb, scores = tmp_path / "clean.csv", tmp_path / "sb.csv", tmp_path / "scores.csv"
    write_preprocessed(run_pipeline(rows)[0], clean)
    assert run(
        "features", "--in", str(clean), "--out", str(sb), "--scores", str(scores)
    ) == 0
    with open(scores, newline="", encoding="utf-8") as fh:
        ids = [row[:2] for row in csv.reader(fh)][1:]
    assert ids == [[str(i.auction_id), i.bidder_id] for i in read_sb_dataset(sb)]
    assert ["1", "x\ry"] in ids


def test_features_walks_each_auction_once(chain, monkeypatch):
    walked = Counter()

    def counting(auction):
        walked[auction.auction_id] += 1
        return participation_map(auction)

    monkeypatch.setattr(metrics, "participation_map", counting)
    assert run(
        "features", "--in", str(chain / "clean.csv"), "--out", str(chain / "w.csv"),
        "--scores", str(chain / "w.scores.csv"),
    ) == 0
    auctions = read_auctions(chain / "clean.csv")
    assert walked == Counter(a.auction_id for a in auctions)


def criterion_10_shape_table(tmp_path) -> Path:
    """The bid table of the criterion-10 corpus shape at 1,000 auctions (4,371 instances)."""
    raw, clean = tmp_path / "raw.csv", tmp_path / "clean.csv"
    write_corpus(
        SynthConfig(
            seed=5,
            num_auctions=1000,
            duplicate_row_rate=0.02,
            missing_bidder_rate=0.02,
            thin_auction_rate=0.02,
            inconsistent_auction_rate=0.02,
        ),
        raw,
    )
    config = PipelineConfig()
    write_preprocessed(run_pipeline(RawScanner(raw, config.schema), config)[0], clean)
    return clean


def test_write_features_peak_memory_per_instance(tmp_path):
    # The walk holds one auction's instances and a chunk of the stats',
    # not the table: about 77 bytes an instance measured, where building
    # the list, then writing and counting it, takes about 330.
    aggregates = compute_global_aggregates(read_auctions(criterion_10_shape_table(tmp_path)))
    scores = (tmp_path / "scores.csv", weight_scorer())
    tracemalloc.start()
    try:
        stats = write_features(aggregates, tmp_path / "sb.csv", scores)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak / stats.total_instances < 150, (
        f"{peak / stats.total_instances:.0f} bytes per instance"
    )


def test_the_aggregates_hold_numbers_not_views(tmp_path):
    # The aggregate pass keeps each auction's ids, prices, sorted bidder
    # ids and four per-pair values in an array: about 119 bytes a pair
    # measured, where a kept head-only view and participation map per
    # auction took about 293.
    clean = criterion_10_shape_table(tmp_path)
    tracemalloc.start()
    try:
        aggregates = ingest.fold_auctions(clean, compute_global_aggregates)
        held, _ = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    pairs = sum(agg.auctions_entered for agg in aggregates.bidders.values())
    assert pairs == 4371
    assert held / pairs < 180, f"{held / pairs:.0f} bytes per pair"


def test_custom_weights_change_scores(chain, tmp_path):
    weights = tmp_path / "weights.conf"
    weights.write_text("successive_outbidding=1.0\n", encoding="utf-8")
    scores_path = chain / "weighted.csv"
    assert run(
        "features", "--in", str(chain / "clean.csv"),
        "--out", str(chain / "sb2.csv"),
        "--weights", str(weights), "--scores", str(scores_path),
    ) == 0
    table = dict(DEFAULT_WEIGHTS, successive_outbidding=1.0)
    instances = {
        (i.auction_id, i.bidder_id): i
        for i in read_sb_dataset(chain / "sb2.csv")
    }
    with open(scores_path, newline="", encoding="utf-8") as fh:
        row = next(csv.DictReader(fh))
    inst = instances[(int(row["auction_id"]), row["bidder_id"])]
    assert float(row["weighted_score"]) == pytest.approx(
        weighted_score(inst, table), abs=2e-6
    )


def test_missing_input_exits_1(tmp_path, capsys):
    code = run("preprocess", "--in", str(tmp_path / "nope.csv"),
               "--out", str(tmp_path / "out.csv"))
    assert code == 1
    assert "error:" in capsys.readouterr().err


def test_bad_config_exits_2(chain, capsys):
    code = run(
        "preprocess", "--in", str(chain / "corpus.csv"),
        "--out", str(chain / "x.csv"), "--min-bids", "0",
    )
    assert code == 2
    code = run(
        "preprocess", "--in", str(chain / "corpus.csv"),
        "--out", str(chain / "x.csv"), "--epoch", "yesterday",
    )
    assert code == 2
    code = run("synth", "--out", str(chain / "y.csv"), "--run-length", "1")
    assert code == 2
    code = run(
        "preprocess", "--in", str(chain / "corpus.csv"),
        "--out", str(chain / "x.csv"), "--min-winning-price", "abc",
    )
    assert code == 2
    err = capsys.readouterr().err
    assert err.count("error:") == 4
    assert "price floor is not a number: 'abc'" in err


def test_features_rejects_bad_weights_before_writing(chain, capsys):
    weights = chain / "bad.txt"
    weights.write_text("bidding_ratio=7\n", encoding="utf-8")
    out, scores = chain / "sb2.csv", chain / "scores.csv"
    code = run(
        "features", "--in", str(chain / "clean.csv"), "--out", str(out),
        "--weights", str(weights), "--scores", str(scores),
    )
    assert code == 2
    assert "weight for 'bidding_ratio' must be in (0, 1], got 7.0" in capsys.readouterr().err
    for path in (out, scores, chain / "sb2.csv.report.json"):
        assert not path.exists(), path


def test_features_rejects_bad_threshold_before_writing(chain, capsys):
    out, scores, report = chain / "sb2.csv", chain / "scores.csv", chain / "r.json"
    code = run(
        "features", "--in", str(chain / "clean.csv"), "--out", str(out),
        "--scores", str(scores), "--report", str(report), "--threshold", "1.5",
    )
    assert code == 2
    assert "threshold must lie in (0, 1), got 1.5" in capsys.readouterr().err
    for path in (out, scores, report, chain / "sb2.csv.report.json"):
        assert not path.exists(), path


def test_stats_rejects_bad_threshold_before_reading(tmp_path, capsys):
    # A missing input would exit 1; the threshold is refused first, as
    # features refuses it.
    missing = tmp_path / "missing.csv"
    code = run("stats", "--in", str(missing), "--threshold", "1.5")
    assert code == 2
    assert "threshold must lie in (0, 1), got 1.5" in capsys.readouterr().err


@pytest.mark.parametrize(
    "command",
    [
        ["preprocess", "--in", "corpus.csv", "--out", "clean2.csv", "--report", "taken"],
        ["features", "--in", "clean.csv", "--out", "sb2.csv", "--scores", "taken"],
    ],
    ids=["preprocess-report", "features-scores"],
)
def test_a_failed_run_leaves_no_new_output(chain, capsys, monkeypatch, command):
    # The last output's path is a directory, so the run fails after its
    # other outputs are written: none of them, and no .tmp, may be left.
    (chain / "taken").mkdir()
    before = sorted(chain.iterdir())
    monkeypatch.chdir(chain)
    assert run(*command) == 1
    assert "Is a directory: 'taken'" in capsys.readouterr().err
    assert sorted(chain.iterdir()) == before


def test_a_failed_check_in_the_last_auction_leaves_no_output(chain, capsys, monkeypatch):
    # Rows are written as each auction is checked, so every earlier
    # auction's rows are on disk when the last one fails: staging alone
    # must take them away.
    instances = read_sb_dataset(chain / "sb.csv")
    last = instances[-1]
    calls, run_band = count(1), metrics._run_band

    def off_band(run_length):
        # The last instance built is the last auction's last bidder's.
        return 1.5 if next(calls) == len(instances) else run_band(run_length)

    monkeypatch.setattr(metrics, "_run_band", off_band)
    before = sorted(chain.iterdir())
    monkeypatch.chdir(chain)
    assert run(
        "features", "--in", "clean.csv", "--out", "sb2.csv", "--scores", "scores2.csv"
    ) == 3
    assert capsys.readouterr().err == (
        f"error: auction {last.auction_id}, bidder {last.bidder_id!r}: "
        "successive_outbidding=1.5 outside [0, 1]\n"
    )
    assert next(calls) == len(instances) + 1
    assert sorted(chain.iterdir()) == before


def watch_preprocess_writes(monkeypatch, seen):
    """Make preprocess call seen(view) just before it writes each view."""
    real = cli.preprocessed_writer

    @contextlib.contextmanager
    def watched(path):
        with real(path) as write:
            def watched_write(view):
                seen(view)
                write(view)

            yield watched_write

    monkeypatch.setattr(cli, "preprocessed_writer", watched)


def live_views():
    return sum(isinstance(o, AuctionView) for o in gc.get_objects())


@pytest.mark.parametrize("source", ["corpus.csv", "clean.csv"], ids=["scrape", "bid-table"])
def test_preprocess_holds_one_view_at_a_time(chain, monkeypatch, source):
    # Each view is written as the walk numbers it, so at each write only
    # the view being written, and at most the one built before it, live.
    held = live_views()
    alive = []
    watch_preprocess_writes(monkeypatch, lambda view: alive.append(live_views() - held))
    assert run("preprocess", "--in", str(chain / source), "--out", str(chain / "again.csv")) == 0
    assert (chain / "again.csv").read_bytes() == (chain / "clean.csv").read_bytes()
    report = json.loads((chain / "again.csv.report.json").read_text())
    assert len(alive) == report["cleansing"]["after"]["auctions"] > 2
    assert max(alive) <= 2, alive


@pytest.mark.parametrize("source", ["corpus.csv", "clean.csv"], ids=["scrape", "bid-table"])
def test_a_failed_check_after_the_rows_are_written_leaves_no_output(
    chain, capsys, monkeypatch, source
):
    # The accounting is checked once every kept view is on disk: staging
    # alone must take those rows away. One duplicate counted but never
    # dropped breaks the row accounting.
    written = []
    watch_preprocess_writes(monkeypatch, lambda view: written.append(view.auction_id))
    monkeypatch.setattr(
        preprocess, "_Counters", functools.partial(preprocess._Counters, duplicates=1)
    )
    report = json.loads((chain / "clean.csv.report.json").read_text())
    rows_in = report["cleansing"]["before"]["records"]
    after = report["cleansing"]["after"]
    if source == "clean.csv":
        rows_in = after["records"]
    before = sorted(chain.iterdir())
    monkeypatch.chdir(chain)
    assert run("preprocess", "--in", source, "--out", "clean2.csv") == 3
    lost = rows_in - after["records"] + 1
    assert capsys.readouterr().err == (
        f"error: row accounting broke: {rows_in} - {lost} != {after['records']}\n"
    )
    assert written == list(range(1, after["auctions"] + 1))
    assert sorted(chain.iterdir()) == before


@pytest.mark.parametrize(
    "command",
    [
        ["preprocess", "--in", "corpus.csv", "--out", "x.csv", "--report", "x.csv"],
        ["features", "--in", "clean.csv", "--out", "f.csv", "--scores", "./f.csv"],
        # The clash is found before the input is read.
        ["preprocess", "--in", "missing.csv", "--out", "x.csv", "--report", "x.csv"],
        ["features", "--in", "missing.csv", "--out", "f.csv", "--scores", "f.csv"],
    ],
    ids=[
        "preprocess-out-report", "features-out-scores",
        "preprocess-missing-input", "features-missing-input",
    ],
)
def test_an_output_named_twice_exits_2_and_writes_nothing(chain, capsys, monkeypatch, command):
    before = sorted(chain.iterdir())
    monkeypatch.chdir(chain)
    assert run(*command) == 2
    assert "is named as more than one output" in capsys.readouterr().err
    assert sorted(chain.iterdir()) == before


@pytest.mark.parametrize(
    "command",
    [
        ["preprocess", "--in", "corpus.csv", "--out", "corpus.csv"],
        ["preprocess", "--in", "corpus.csv", "--out", "x.csv", "--report", "./corpus.csv"],
        ["preprocess", "--in", "corpus.csv", "--out", "x.csv", "--schema", "s.txt",
         "--report", "s.txt"],
        ["features", "--in", "clean.csv", "--out", "clean.csv"],
        ["features", "--in", "clean.csv", "--out", "f.csv", "--weights", "w.txt",
         "--scores", "w.txt"],
        ["stats", "--in", "sb.csv", "--report", "sb.csv"],
        ["stats", "--in", "sb.csv", "--preprocessed", "clean.csv", "--report", "clean.csv"],
    ],
    ids=[
        "preprocess-out", "preprocess-report", "preprocess-schema", "features-out",
        "features-weights", "stats-in", "stats-preprocessed",
    ],
)
def test_an_output_named_as_an_input_exits_2_and_writes_nothing(
    chain, capsys, monkeypatch, command
):
    (chain / "s.txt").write_text(
        "".join(f"{name}={header}\n" for name, header in DEFAULT_RAW_SCHEMA.items()),
        encoding="utf-8",
    )
    (chain / "w.txt").write_text("early_bidding=0.5\n", encoding="utf-8")
    before = {path.name: path.read_bytes() for path in chain.iterdir()}
    monkeypatch.chdir(chain)
    assert run(*command) == 2
    assert "is named as both an input and an output" in capsys.readouterr().err
    assert {path.name: path.read_bytes() for path in chain.iterdir()} == before


def test_validate_names_a_bad_cell_before_an_earlier_range_error(tmp_path, capsys):
    # Rows are checked as they are read, yet a row that does not parse,
    # even the last, wins over a range error in an earlier row.
    path = tmp_path / "sb.csv"
    good = ["0.5"] * len(METRIC_COLUMNS)
    rows = [
        ["1", "amy", "1.5", *good[1:]],
        ["1", "bob", *good],
        ["2", "amy", *good[:-1], "x"],
    ]
    path.write_text(
        "".join(",".join(cells) + "\n" for cells in [SB_COLUMNS, *rows]), encoding="utf-8"
    )
    assert run("validate", "--in", str(path)) == 2
    assert "row 3: metric cell is not a number" in capsys.readouterr().err
    path.write_text(
        "".join(",".join(cells) + "\n" for cells in [SB_COLUMNS, *rows[:2]]), encoding="utf-8"
    )
    assert run("validate", "--in", str(path)) == 3
    assert f"{METRIC_COLUMNS[0]}=1.5 outside [0, 1]" in capsys.readouterr().err
    rows[0][2] = "0.5"
    path.write_text(
        "".join(",".join(cells) + "\n" for cells in [SB_COLUMNS, *rows[:2]]), encoding="utf-8"
    )
    assert run("validate", "--in", str(path)) == 0
    assert "ok: 2 instances pass all checks" in capsys.readouterr().out


def test_validate_finds_a_repeat_after_the_pairs_descend(tmp_path, capsys):
    # Ascending pairs keep no set: at the descent the rows before it are
    # read again, so a repeat of a pair from before it is still named.
    path = tmp_path / "sb.csv"
    good = ["0.5"] * len(METRIC_COLUMNS)
    pairs = [["1", "amy"], ["2", "bob"], ["1", "cy"], ["2", "bob"]]

    def write(rows):
        lines = [SB_COLUMNS, *(pair + good for pair in rows)]
        path.write_text("".join(",".join(cells) + "\n" for cells in lines), encoding="utf-8")

    write(pairs)
    assert run("validate", "--in", str(path)) == 3
    assert capsys.readouterr().err == "error: duplicate instance for auction 2, bidder 'bob'\n"
    write(pairs[:3])
    assert run("validate", "--in", str(path)) == 0
    assert "ok: 3 instances pass all checks" in capsys.readouterr().out


def test_unknown_header_exits_2(tmp_path, capsys):
    path = tmp_path / "odd.csv"
    path.write_text("a,b\n1,2\n", encoding="utf-8")
    assert run("validate", "--in", str(path)) == 2
    assert "neither" in capsys.readouterr().err


def test_huge_bid_amount_in_bid_table_exits_2(tmp_path, capsys):
    # 1e30 needs more digits than the decimal context holds once
    # quantized to cents; it must be a parse error, not a traceback.
    path = tmp_path / "clean.csv"
    with open(path, "w", encoding="utf-8", newline="") as fh:
        writer = csv.writer(fh, lineterminator="\n")
        writer.writerow(PREPROCESSED_COLUMNS)
        writer.writerow(["1", "1", "s1", "alice", "1e30", "150000", "1", "1",
                         "5.00", "20.00", "432000", "532000", "100000"])
    assert run("validate", "--in", str(path)) == 2
    err = capsys.readouterr().err
    assert "row 1: bid_amount" in err and "'1e30'" in err


def test_huge_price_in_raw_corpus_exits_2(tmp_path, capsys):
    corpus = tmp_path / "corpus.csv"
    assert run("synth", "--out", str(corpus), "--auctions", "8") == 0
    with open(corpus, newline="", encoding="utf-8") as fh:
        rows = list(csv.reader(fh))
    huge = "US $" + "9" * 30
    rows[1][rows[0].index("Bid Amount")] = huge
    with open(corpus, "w", encoding="utf-8", newline="") as fh:
        csv.writer(fh, lineterminator="\n").writerows(rows)
    clean = tmp_path / "clean.csv"
    assert run("preprocess", "--in", str(corpus), "--out", str(clean)) == 2
    assert repr(huge) in capsys.readouterr().err


@pytest.mark.parametrize(
    "column, value",
    [
        ("Bid Submission Date", "Jun-02-99999999999"),
        ("Bid Amount", "-20.00 $"),
        ("Bid Submission Date", "Apr-x-17"),
    ],
    ids=["year-past-a-c-int", "negative-amount", "day-not-an-integer"],
)
def test_an_unreadable_raw_bid_cell_exits_2_and_writes_nothing(tmp_path, capsys, column, value):
    corpus = tmp_path / "corpus.csv"
    assert run("synth", "--out", str(corpus), "--auctions", "5") == 0
    with open(corpus, newline="", encoding="utf-8") as fh:
        rows = list(csv.reader(fh))
    rows[1][rows[0].index(column)] = value
    with open(corpus, "w", encoding="utf-8", newline="") as fh:
        csv.writer(fh, lineterminator="\n").writerows(rows)
    made = sorted(tmp_path.iterdir())
    assert run("preprocess", "--in", str(corpus), "--out", str(tmp_path / "clean.csv")) == 2
    assert repr(value) in capsys.readouterr().err
    assert sorted(tmp_path.iterdir()) == made


def test_a_raw_bid_names_its_amount_before_the_epoch(tmp_path, capsys):
    # A bid after the reference epoch exits 2; a bad amount on the same
    # row is named first, in the single-stage order: date or clock,
    # then amount, then epoch.
    corpus = tmp_path / "corpus.csv"
    assert run("synth", "--out", str(corpus), "--auctions", "5") == 0
    with open(corpus, newline="", encoding="utf-8") as fh:
        rows = list(csv.reader(fh))
    rows[1][rows[0].index("Bid Submission Date")] = "Aug-01-17"
    with open(corpus, "w", encoding="utf-8", newline="") as fh:
        csv.writer(fh, lineterminator="\n").writerows(rows)
    clean = tmp_path / "clean.csv"
    assert run("preprocess", "--in", str(corpus), "--out", str(clean)) == 2
    err = capsys.readouterr().err
    assert "event 2017-08-01T" in err and "is after the reference epoch" in err
    rows[1][rows[0].index("Bid Amount")] = "lots"
    with open(corpus, "w", encoding="utf-8", newline="") as fh:
        csv.writer(fh, lineterminator="\n").writerows(rows)
    assert run("preprocess", "--in", str(corpus), "--out", str(clean)) == 2
    err = capsys.readouterr().err
    assert "money 'lots': no number found" in err and "epoch" not in err
    assert not clean.exists()


def test_money_with_no_digit_before_the_point_reads_as_cents(tmp_path):
    corpus = tmp_path / "corpus.csv"
    assert run("synth", "--out", str(corpus), "--auctions", "5") == 0
    with open(corpus, newline="", encoding="utf-8") as fh:
        rows = list(csv.reader(fh))
    at = rows[0].index("Starting Price")
    for cells in rows[1:]:
        cells[at] = "$.50"
    with open(corpus, "w", encoding="utf-8", newline="") as fh:
        csv.writer(fh, lineterminator="\n").writerows(rows)
    clean = tmp_path / "clean.csv"
    assert run("preprocess", "--in", str(corpus), "--out", str(clean)) == 0
    prices = [str(a.starting_price) for a in read_auctions(clean)]
    assert prices == ["0.50"] * 5


def _outputs_of_every_reader(folder):
    """Run each command on folder's raw corpus, bid table and feature table."""
    out = folder / "out"
    out.mkdir()
    corpus, clean, sb = (str(folder / name) for name in ("corpus.csv", "clean.csv", "sb.csv"))
    assert run("preprocess", "--in", corpus, "--out", str(out / "from_raw.csv")) == 0
    assert run("preprocess", "--in", clean, "--out", str(out / "from_table.csv")) == 0
    assert run("features", "--in", clean, "--out", str(out / "sb.csv")) == 0
    assert run("validate", "--in", clean) == 0
    assert run("validate", "--in", sb) == 0
    assert run(
        "stats", "--in", sb, "--preprocessed", clean, "--report", str(out / "stats.json")
    ) == 0
    return {path.name: path.read_bytes() for path in sorted(out.iterdir())}


def _quote_every_cell(data: bytes) -> bytes:
    buffer = io.StringIO()
    rows = csv.reader(io.StringIO(data.decode("utf-8"), newline=""))
    csv.writer(buffer, lineterminator="\n", quoting=csv.QUOTE_ALL).writerows(rows)
    return buffer.getvalue().encode("utf-8")


def test_a_byte_order_mark_changes_no_output(chain, tmp_path):
    # Spreadsheet exports start a file with one, and some quote every
    # cell; every table reader drops the mark before it reads the header.
    bom = b"\xef\xbb\xbf"
    variants = {
        "plain": lambda data: data,
        "marked": lambda data: bom + data,
        "marked_quoted": lambda data: bom + _quote_every_cell(data),
    }
    outputs = {}
    for variant, edit in variants.items():
        folder = tmp_path / variant
        folder.mkdir()
        for name in ("corpus.csv", "clean.csv", "sb.csv"):
            (folder / name).write_bytes(edit((chain / name).read_bytes()))
        outputs[variant] = _outputs_of_every_reader(folder)
    assert len(outputs["plain"]) == 7
    assert outputs["marked"] == outputs["plain"]
    assert outputs["marked_quoted"] == outputs["plain"]


@functools.cache
def _small_raw_corpus():
    """Header and rows of a 12-auction synth corpus, written once."""
    with tempfile.TemporaryDirectory() as tmp:
        path = Path(tmp) / "corpus.csv"
        write_corpus(SynthConfig(num_auctions=12), path)
        with open(path, newline="", encoding="utf-8") as fh:
            header, *rows = csv.reader(fh)
    return header, rows


def _write_rows(path, header, rows):
    with open(path, "w", encoding="utf-8", newline="") as fh:
        csv.writer(fh, lineterminator="\n").writerows([header, *rows])
    return path


@functools.cache
def _small_bid_table():
    """Header and rows of the bid table preprocess writes from the small corpus."""
    with tempfile.TemporaryDirectory() as tmp:
        source = _write_rows(Path(tmp) / "corpus.csv", *_small_raw_corpus())
        clean = Path(tmp) / "clean.csv"
        assert main(["preprocess", "--in", str(source), "--out", str(clean)]) == 0
        with open(clean, newline="", encoding="utf-8") as fh:
            header, *rows = csv.reader(fh)
    return header, rows


_EDIT_TEXTS = ["\x00", "\u0663", "\x1f", "9" * 40, "-5", "-5.00 $"]
# Huge and negative amounts as a bid table writes money.
_TABLE_EDIT_TEXTS = _EDIT_TEXTS[:-1] + ["-5.00", "9" * 40 + ".00"]
_EDIT_KINDS = ["bom", "replace", "append", "huge-part", "swap"]


@st.composite
def cell_edits(draw, table, texts):
    """1-3 edits of table()'s rows, as (kind, row, whole_auction, column, text).

    An edit puts a BOM at the start of the file; replaces, or appends
    to, a cell with one of texts; sets one part of a raw date or clock
    to 99999999999; or swaps the start and end. whole_auction makes it
    touch every row of the row's auction, not just the row.
    """
    header, rows = table()
    when = [name for name in header if name.endswith(("Date", "Time"))]
    kinds = [kind for kind in _EDIT_KINDS if when or kind != "huge-part"]
    edits = []
    for _ in range(draw(st.integers(1, 3))):
        kind = draw(st.sampled_from(kinds))
        row = draw(st.integers(0, len(rows) - 1))
        whole_auction = kind == "swap" or draw(st.booleans())
        if kind == "huge-part":
            column, text = draw(st.sampled_from(when)), draw(st.integers(0, 2))
        else:
            column, text = draw(st.sampled_from(header)), draw(st.sampled_from(texts))
        edits.append((kind, row, whole_auction, column, text))
    return edits


def _apply_edits(table, key, start, end, edits):
    """table()'s header and rows with edits applied.

    key names the column that tells auctions apart; a swap exchanges
    the start and end columns.
    """
    names, rows = table()
    header, rows = list(names), [list(cells) for cells in rows]
    key_at, start_at, end_at = map(names.index, (key, start, end))
    for kind, row, whole_auction, column, text in edits:
        if kind == "bom":
            header[0] = "\ufeff" + header[0].lstrip("\ufeff")
            continue
        picked = rows[row]
        targets = [c for c in rows if c[key_at] == picked[key_at]] if whole_auction else [picked]
        if kind == "swap":
            for cells in targets:
                cells[start_at], cells[end_at] = cells[end_at], cells[start_at]
            continue
        at = names.index(column)
        if kind == "huge-part":
            sep = "-" if column.endswith("Date") else ":"
            parts = picked[at].split(sep)
            parts[text % len(parts)] = "99999999999"
            text = sep.join(parts)
        for cells in targets:
            cells[at] = cells[at] + text if kind == "append" else text
    return header, rows


def _check_never_exits_3(name, header, rows):
    """preprocess --min-bids 1 on the rows exits 0, then features on its
    output exits 0 too, or exits 2 with an error line, never a traceback.
    """
    with tempfile.TemporaryDirectory() as tmp:
        source = _write_rows(Path(tmp) / name, header, rows)
        clean = Path(tmp) / "clean.csv"
        err = io.StringIO()
        with contextlib.redirect_stderr(err):
            code = main(["preprocess", "--in", str(source), "--out", str(clean), "--min-bids", "1"])
        assert code in (0, 2), err.getvalue()
        if code == 2:
            assert err.getvalue().startswith("error: ")
        else:
            assert main(["features", "--in", str(clean), "--out", str(Path(tmp) / "sb.csv")]) == 0


_RAW_AUCTION_COLUMNS = [DEFAULT_RAW_SCHEMA[name] for name in ("auction_url", "start_date", "end_date")]


@settings(max_examples=500, deadline=None)
@given(cell_edits(_small_raw_corpus, _EDIT_TEXTS))
def test_an_edited_raw_corpus_never_exits_3(edits):
    # Whatever the edits do, preprocess cleans the corpus or refuses a
    # cell it cannot read, and never raises; what it writes, features
    # reads. --min-bids 1 keeps every edited auction in play.
    _check_never_exits_3(
        "corpus.csv", *_apply_edits(_small_raw_corpus, *_RAW_AUCTION_COLUMNS, edits)
    )


@settings(max_examples=500, deadline=None)
@given(cell_edits(_small_bid_table, _TABLE_EDIT_TEXTS))
def test_an_edited_bid_table_never_exits_3(edits):
    # A hand-edited bid table is input, not the package's own data: the
    # re-cleanse drops or refuses what it cannot keep, and never exits 3.
    _check_never_exits_3(
        "table.csv",
        *_apply_edits(_small_bid_table, "auction_id", "start_time_sec", "end_time_sec", edits),
    )


def test_preprocess_keeps_bid_table_times_past_int64(tmp_path, capsys):
    # A bid table's times may be any integer. One auction moved 10**20
    # seconds back in time is kept as it is, and comes first; one with
    # a bid at -1 and one with a bid at -10**20 break the bid window and
    # are dropped as contradictory. The rest are renumbered in start order.
    header, rows, _ = _bid_table_and_features(1)
    rows = [list(cells) for cells in rows]
    times = [PREPROCESSED_COLUMNS.index(name) for name in (
        "bid_submit_time_sec", "start_time_sec", "end_time_sec"
    )]
    moved, negative, past = sorted({cells[_AUCTION] for cells in rows}, key=int)[:3]
    for cells in rows:
        if cells[_AUCTION] == moved:
            for at in times:
                cells[at] = str(int(cells[at]) + 10**20)
    for auction, time in ((negative, "-1"), (past, str(-10**20))):
        next(cells for cells in rows if cells[_AUCTION] == auction)[times[0]] = time
    table, out = _write_rows(tmp_path / "table.csv", header, rows), tmp_path / "out.csv"
    assert run("preprocess", "--in", str(table), "--out", str(out)) == 0
    assert capsys.readouterr().err == ""

    dropped = [cells for cells in rows if cells[_AUCTION] in (negative, past)]
    kept = [cells for cells in rows if cells not in dropped]
    start = {cells[_AUCTION]: int(cells[times[1]]) for cells in kept}
    expected = []
    for auction_id, auction in enumerate(sorted(start, key=lambda a: (-start[a], int(a))), 1):
        for cells in kept:
            if cells[_AUCTION] == auction:
                expected.append([str(len(expected) + 1), str(auction_id), *cells[2:]])
    assert out.read_text(encoding="utf-8") == "".join(
        ",".join(cells) + "\n" for cells in [header, *expected]
    )
    removed = json.loads(Path(f"{out}.report.json").read_text())["cleansing"]["removed"]
    assert {name: count for name, count in removed.items() if count} == {
        "contradictory_auctions_removed": 2,
        "contradictory_rows_removed": len(dropped),
    }


@functools.cache
def _bid_table_and_features(seed):
    """Header and rows of the bid table synth -> preprocess writes at seed,
    and the bytes of the feature table features writes from it."""
    with tempfile.TemporaryDirectory() as tmp:
        corpus, clean, sb = (Path(tmp) / name for name in ("corpus.csv", "clean.csv", "sb.csv"))
        write_corpus(
            SynthConfig(seed=seed, num_auctions=15, duplicate_row_rate=0.05,
                        thin_auction_rate=0.1, inconsistent_auction_rate=0.1),
            corpus,
        )
        with contextlib.redirect_stdout(io.StringIO()):
            assert main(["preprocess", "--in", str(corpus), "--out", str(clean)]) == 0
            assert main(["features", "--in", str(clean), "--out", str(sb)]) == 0
        with open(clean, newline="", encoding="utf-8") as fh:
            header, *rows = csv.reader(fh)
        return header, rows, sb.read_bytes()


_RECORD, _AUCTION, _SELLER, _BIDDER, _NUM_BIDS = map(
    PREPROCESSED_COLUMNS.index, ("record_id", "auction_id", "seller_id", "bidder_id", "num_bids")
)
_HEAD_CELLS = [
    PREPROCESSED_COLUMNS.index(name)
    for name in ("seller_id", "num_bidders", "starting_price", "start_time_sec")
]


def _edit_bid_table(rows, kind, rng):
    """Apply one edit of kind, placed by rng, to rows, a bid table's rows."""
    if not rows:
        return
    auctions = sorted({cells[_AUCTION] for cells in rows})
    if kind == "shuffle":
        rng.shuffle(rows)
    elif kind == "split":
        # The later rows of one auction move to the end of the table.
        auction = rng.choice(auctions)
        at = [i for i, cells in enumerate(rows) if cells[_AUCTION] == auction]
        moved = at[rng.randrange(len(at)):]
        rows[:] = [c for i, c in enumerate(rows) if i not in moved] + [rows[i] for i in moved]
    elif kind == "renumber":
        # Two auctions, or an auction and an id no row has, trade ids.
        a, b = rng.choice(auctions), rng.choice(auctions + [str(len(rows) + 1)])
        for cells in rows:
            cells[_AUCTION] = {a: b, b: a}.get(cells[_AUCTION], cells[_AUCTION])
    elif kind == "repeat_record_id":
        rng.choice(rows)[_RECORD] = rng.choice(rows)[_RECORD]
    elif kind == "disagree":
        # A row other than its auction's first gets another head text:
        # "0" before it keeps a number's value, "1" after it does not.
        later = [c for i, c in enumerate(rows) if i and c[_AUCTION] == rows[i - 1][_AUCTION]]
        cells, at = rng.choice(later or rows), rng.choice(_HEAD_CELLS)
        cells[at] = rng.choice(["0" + cells[at], cells[at] + "1"])
    elif kind == "bad_last_cell":
        rows[-1][rng.randrange(len(PREPROCESSED_COLUMNS))] = rng.choice(["x", "1.5", ""])
    elif kind == "fault":
        # Every row of one auction claims ten times its bids, so its rows agree.
        auction = rng.choice(auctions)
        for cells in rows:
            if cells[_AUCTION] == auction:
                cells[_NUM_BIDS] += "0"
    elif kind == "header_only":
        rows.clear()
    elif kind == "quote":
        # The bidder id of every row of one bidder, or the seller id of
        # every row of one auction, gets a text that csv.writer quotes.
        by, column = rng.choice([(_BIDDER, _BIDDER), (_AUCTION, _SELLER)])
        text, value = rng.choice([",", '"', "\r", "\n"]), rng.choice(rows)[by]
        for cells in rows:
            if cells[by] == value:
                cells[column] += text


_BID_TABLE_EDITS = [
    "shuffle", "split", "renumber", "repeat_record_id", "disagree", "bad_last_cell",
    "fault", "header_only", "quote",
]


def _every_bid_table_reader(folder, table, sb):
    """Each command that reads the bid table, run on table: for each, the
    exit code, what it printed and the files it left in folder/out."""
    out = folder / "out"
    out.mkdir(exist_ok=True)
    results = []
    for argv in (
        ["features", "--in", table, "--out", out / "sb.csv", "--scores", out / "scores.csv"],
        ["stats", "--in", sb, "--preprocessed", table, "--report", out / "stats.json"],
        ["validate", "--in", table],
    ):
        printed, errors = io.StringIO(), io.StringIO()
        with contextlib.redirect_stdout(printed), contextlib.redirect_stderr(errors):
            code = main(list(map(str, argv)))
        left = {path.name: path.read_bytes() for path in sorted(out.iterdir())}
        for path in out.iterdir():
            path.unlink()
        results.append((argv[0], code, printed.getvalue(), errors.getvalue(), left))
    return results


def _read_whole(path, fold):
    return fold(read_auctions(path))


@settings(max_examples=200, deadline=None)
@given(
    st.sampled_from([1, 2]),
    st.lists(st.tuples(st.sampled_from(_BID_TABLE_EDITS), st.integers(0, 2**32)), max_size=2),
)
@example(1, [("fault", 3), ("disagree", 5)])
@example(2, [("fault", 0), ("bad_last_cell", 1)])
@example(1, [("fault", 1)])
@example(1, [("split", 2)])
@example(2, [("header_only", 0)])
def test_the_streamed_bid_table_reads_as_read_auctions_does(seed, edits):
    # features, stats --preprocessed and validate read a bid table in
    # the pipeline's shape one auction at a time, and any other through
    # read_auctions: on any table, each gives the same exit code, text
    # and output bytes as reading the whole table through read_auctions.
    header, rows, sb_bytes = _bid_table_and_features(seed)
    rows = [list(cells) for cells in rows]
    for kind, n in edits:
        _edit_bid_table(rows, kind, random.Random(n))
    with tempfile.TemporaryDirectory() as tmp:
        folder = Path(tmp)
        table = _write_rows(folder / "clean.csv", header, rows)
        sb = folder / "sb.csv"
        sb.write_bytes(sb_bytes)
        streamed = _every_bid_table_reader(folder, table, sb)
        with mock.patch.object(cli, "fold_auctions", _read_whole):
            whole = _every_bid_table_reader(folder, table, sb)
    assert streamed == whole
    if not edits:
        assert [code for _, code, *_ in streamed] == [0, 0, 0]


def test_a_pipeline_bid_table_is_not_read_whole(chain, monkeypatch, capsys):
    def refuse(path):
        raise AssertionError("the bid table was read through read_auctions")

    monkeypatch.setattr(ingest, "read_auctions", refuse)
    clean, sb = str(chain / "clean.csv"), str(chain / "sb.csv")
    assert run("features", "--in", clean, "--out", str(chain / "again.csv")) == 0
    assert (chain / "again.csv").read_bytes() == (chain / "sb.csv").read_bytes()
    assert run("stats", "--in", sb, "--preprocessed", clean) == 0
    assert run("validate", "--in", clean) == 0
    # A bidder id holding a comma is quoted, so its rows are read as csv;
    # they share their auctions' heads all the same.
    with open(clean, newline="", encoding="utf-8") as fh:
        header, *rows = csv.reader(fh)
    bidder = rows[0][_BIDDER]
    for cells in rows:
        if cells[_BIDDER] == bidder:
            cells[_BIDDER] = "a,b"
    quoted = str(_write_rows(chain / "quoted.csv", header, rows))
    sb = str(chain / "quoted.sb.csv")
    assert run("features", "--in", quoted, "--out", sb) == 0
    assert run("stats", "--in", sb, "--preprocessed", quoted) == 0
    assert run("validate", "--in", quoted) == 0
    assert "error" not in capsys.readouterr().err


def test_validate_holds_one_auction_of_a_bid_table_at_a_time(tmp_path):
    # The traced peak of validate on a bid table does not grow with the
    # table: ten times the auctions, well under 1.5 times the peak. Read
    # whole, the peak grew about eightfold.
    peaks = []
    for auctions in (100, 100, 1000):
        corpus, clean = tmp_path / f"{auctions}.csv", tmp_path / f"{auctions}.clean.csv"
        if not clean.exists():
            write_corpus(SynthConfig(seed=3, num_auctions=auctions), corpus)
            assert run("preprocess", "--in", str(corpus), "--out", str(clean)) == 0
        tracemalloc.start()
        try:
            # The first run of the small table sets up what any run would.
            assert run("validate", "--in", str(clean)) == 0
            peaks.append(tracemalloc.get_traced_memory()[1])
        finally:
            tracemalloc.stop()
    assert peaks[2] < 1.5 * peaks[1], peaks


_GOLDEN_RAW = Path(__file__).parent / "golden" / "raw_corpus.csv"
_CONTRADICTED = "https://auctions.example/itm/7000001"


def _preprocess_rows(stem, header, rows):
    """Write header and rows to stem.csv, preprocess it: bytes and report."""
    source = stem.with_suffix(".csv")
    with open(source, "w", encoding="utf-8", newline="") as fh:
        csv.writer(fh, lineterminator="\n").writerows([header, *rows])
    out = stem.with_suffix(".bids.csv")
    assert run("preprocess", "--in", str(source), "--out", str(out)) == 0
    report = json.loads(Path(f"{out}.report.json").read_text())["cleansing"]
    return out.read_bytes(), report


def _set(column, value, row=None):
    """Set column to value on the auction's row-th row, or on all of them."""
    def edit(header, rows):
        at = header.index(column)
        for cells in rows if row is None else [rows[row]]:
            cells[at] = value
    return edit


@pytest.mark.parametrize(
    "edits",
    [
        # A mid-auction bid above the 457.52 $ winning bid.
        [_set("Bid Amount", "99999.00 $", row=3)],
        [_set("Seller Name", "")],
        [_set(name, "0.00 $") for name in ("Winning Bid", "Starting Price", "Bid Amount")],
        # Start and end stay five days apart.
        [_set("Auction Duration", "3")],
        # The first bid moved to the day before the start.
        [_set("Bid Submission Date", "May-02-17", row=0)],
    ],
    ids=["bid-above-winning", "blank-seller", "zero-prices", "duration", "bid-outside-window"],
)
def test_a_self_contradictory_raw_auction_is_dropped(tmp_path, edits):
    with open(_GOLDEN_RAW, newline="", encoding="utf-8") as fh:
        header, *rows = csv.reader(fh)
    url_at = header.index(DEFAULT_RAW_SCHEMA["auction_url"])
    auction = [cells for cells in rows if cells[url_at] == _CONTRADICTED]
    assert len(auction) == 9
    for edit in edits:
        edit(header, auction)

    edited, report = _preprocess_rows(tmp_path / "edited", header, rows)
    without, base = _preprocess_rows(
        tmp_path / "without", header, [c for c in rows if c[url_at] != _CONTRADICTED]
    )
    # The auction is gone from the table as if it had never been scraped.
    assert edited == without
    removed = report["removed"]
    assert removed["contradictory_auctions_removed"] == 1
    assert removed["contradictory_rows_removed"] == 9
    assert removed["inconsistent_auctions_removed"] == base["removed"]["inconsistent_auctions_removed"]
    assert report["after"] == base["after"]
    assert report["before"]["records"] == base["before"]["records"] + 9


_GOLDEN_TABLE = Path(__file__).parent / "golden" / "preprocessed.csv"


def _shift_times(by):
    """Move every time of the auction's rows by `by` seconds."""
    def edit(header, rows):
        for name in ("bid_submit_time_sec", "start_time_sec", "end_time_sec"):
            at = header.index(name)
            for cells in rows:
                cells[at] = str(int(cells[at]) + by)
    return edit


def _at_end(header, rows):
    """Collapse the auction to its end second: start and bids there, duration 0."""
    end_at = header.index("end_time_sec")
    for cells in rows:
        for name in ("bid_submit_time_sec", "start_time_sec"):
            cells[header.index(name)] = cells[end_at]
    _set("auction_duration_sec", "0")(header, rows)


@pytest.mark.parametrize(
    "edit",
    [
        _set("starting_price", "-1.00"),
        # The end (10,084,913) moves to -10; start and bids move with it.
        _shift_times(-10_084_923),
        _at_end,
    ],
    ids=["negative-starting-price", "negative-end", "zero-duration"],
)
def test_a_self_contradictory_table_auction_is_dropped(tmp_path, edit):
    # Rules a parsed scrape cannot break, broken in a bid table: the
    # re-cleanse drops the auction as contradictory instead of exit 3.
    with open(_GOLDEN_TABLE, newline="", encoding="utf-8") as fh:
        header, *rows = csv.reader(fh)
    auction = [cells for cells in rows if cells[1] == "1"]
    assert len(auction) == 10
    edit(header, auction)
    edited, report = _preprocess_rows(tmp_path / "edited", header, rows)
    without, _ = _preprocess_rows(
        tmp_path / "without", header, [cells for cells in rows if cells[1] != "1"]
    )
    assert edited == without
    assert report["removed"]["contradictory_auctions_removed"] == 1
    assert report["removed"]["contradictory_rows_removed"] == 10


def test_corrupted_metric_exits_3(chain, capsys):
    sb = chain / "sb.csv"
    text = sb.read_text(encoding="utf-8")
    lines = text.splitlines()
    cells = lines[1].split(",")
    cells[2] = "1.500000"
    lines[1] = ",".join(cells)
    broken = chain / "broken.csv"
    broken.write_text("\n".join(lines) + "\n", encoding="utf-8")
    assert run("validate", "--in", str(broken)) == 3
    assert "outside [0, 1]" in capsys.readouterr().err


def test_tampered_bid_table_exits_3(chain, capsys):
    clean = chain / "clean.csv"
    lines = clean.read_text(encoding="utf-8").splitlines()
    # Duplicate a record id by rewriting the second row's first cell.
    cells = lines[2].split(",")
    cells[0] = lines[1].split(",")[0]
    lines[2] = ",".join(cells)
    tampered = chain / "tampered.csv"
    tampered.write_text("\n".join(lines) + "\n", encoding="utf-8")
    assert run("validate", "--in", str(tampered)) == 3
    assert "error:" in capsys.readouterr().err


def test_auction_level_disagreement_exits_3(chain, capsys):
    # The reader parses auction-level cells once per auction; a later row
    # that disagrees with its auction's first row must still be caught.
    clean = chain / "clean.csv"
    lines = clean.read_text(encoding="utf-8").splitlines()
    cells = lines[2].split(",")
    assert cells[1] == lines[1].split(",")[1]  # same auction as row 1
    cells[9] = "99999.00"  # winning_bid
    lines[2] = ",".join(cells)
    tampered = chain / "tampered.csv"
    tampered.write_text("\n".join(lines) + "\n", encoding="utf-8")
    assert run("validate", "--in", str(tampered)) == 3
    assert "disagree on winning_bid" in capsys.readouterr().err
    assert run("features", "--in", str(tampered), "--out", str(chain / "t.csv")) == 3


def test_preprocess_recleanses_a_bid_table_without_the_reference_reader(
    chain, monkeypatch
):
    def refuse(path):
        raise AssertionError("preprocess read the table through read_preprocessed")

    for name, module in list(sys.modules.items()):
        if name.split(".")[0] == "shillbid" and hasattr(module, "read_preprocessed"):
            monkeypatch.setattr(module, "read_preprocessed", refuse)
    clean = chain / "clean.csv"
    again = chain / "again.csv"
    assert run("preprocess", "--in", str(clean), "--out", str(again)) == 0
    assert again.read_bytes() == clean.read_bytes()


@pytest.mark.parametrize(
    "command, source",
    [
        ("validate", "clean.csv"),
        ("features", "clean.csv"),
        ("preprocess", "clean.csv"),
        ("preprocess", "corpus.csv"),
    ],
)
def test_input_that_is_not_utf8_exits_2(chain, capsys, command, source):
    data = (chain / source).read_bytes()
    last_row = data.rindex(b"\n", 0, len(data) - 1) + 1
    broken = chain / "broken.csv"
    broken.write_bytes(data[:last_row] + b"\xff" + data[last_row:])
    out = chain / "out.csv"
    argv = [command, "--in", str(broken)]
    if command != "validate":
        argv += ["--out", str(out)]
    assert run(*argv) == 2
    assert capsys.readouterr().err.startswith("error: ")
    assert not out.exists()


@pytest.mark.parametrize(
    "command, source",
    [
        ("validate", "clean.csv"),
        ("features", "clean.csv"),
        ("stats --preprocessed", "clean.csv"),
        ("preprocess", "clean.csv"),
        ("preprocess", "corpus.csv"),
        ("validate", "sb.csv"),
        ("stats", "sb.csv"),
    ],
)
def test_cell_over_the_csv_field_limit_exits_2(chain, capsys, command, source):
    with open(chain / source, newline="", encoding="utf-8") as fh:
        header, row = list(csv.reader(fh))[:2]
    for bidder_column in ("Bidder ID", "bidder_id"):
        if bidder_column in header:
            row[header.index(bidder_column)] = "a" * 200_000
    broken = chain / "broken.csv"
    with open(broken, "w", newline="", encoding="utf-8") as fh:
        csv.writer(fh, lineterminator="\n").writerows([header, row])
    out = chain / "out.csv"
    argv = {
        "validate": ["validate", "--in", str(broken)],
        "features": ["features", "--in", str(broken), "--out", str(out)],
        "preprocess": ["preprocess", "--in", str(broken), "--out", str(out)],
        "stats": ["stats", "--in", str(broken)],
        "stats --preprocessed": [
            "stats", "--in", str(chain / "sb.csv"), "--preprocessed", str(broken),
        ],
    }[command]
    assert run(*argv) == 2
    limit = csv.field_size_limit()
    assert capsys.readouterr().err == (
        f"error: {broken}:row 1: field larger than field limit ({limit})\n"
    )
    assert not out.exists()


@pytest.mark.parametrize("command", ["validate", "features", "stats", "preprocess"])
def test_header_over_the_csv_field_limit_exits_2(tmp_path, capsys, command):
    broken = tmp_path / "broken.csv"
    broken.write_text("a" * 200_000 + ",b\n1,2\n", encoding="utf-8")
    out = tmp_path / "out.csv"
    argv = [command, "--in", str(broken)]
    if command in ("features", "preprocess"):
        argv += ["--out", str(out)]
    assert run(*argv) == 2
    limit = csv.field_size_limit()
    assert capsys.readouterr().err == (
        f"error: {broken}:header: field larger than field limit ({limit})\n"
    )
    assert not out.exists()


def test_stats_reports_a_bad_bid_table_before_a_bad_feature_table(chain, capsys):
    foreign = chain / "foreign.csv"
    foreign.write_text("x\n1\n", encoding="utf-8")
    code = run("stats", "--in", str(foreign), "--preprocessed", str(foreign))
    assert code == 2
    assert capsys.readouterr().err == (
        f"error: {foreign}: header does not match the preprocessed layout\n"
    )


def test_rejects_sidecar_written_for_ragged_rows(tmp_path):
    corpus = tmp_path / "corpus.csv"
    assert run("synth", "--out", str(corpus), "--auctions", "8") == 0
    with open(corpus, "a", encoding="utf-8") as fh:
        fh.write("short,row\n")
    clean = tmp_path / "clean.csv"
    assert run("preprocess", "--in", str(corpus), "--out", str(clean)) == 0
    sidecar = tmp_path / "clean.csv.rejects.csv"
    assert sidecar.exists()
    lines = sidecar.read_text(encoding="utf-8").splitlines()
    assert len(lines) == 2
    report = json.loads((tmp_path / "clean.csv.report.json").read_text())
    assert report["ingest"]["rejected"] == 1
    assert report["ingest"]["rejects_file"].endswith("clean.csv.rejects.csv")


def test_no_subcommand_is_a_usage_error():
    with pytest.raises(SystemExit) as exc:
        run()
    assert exc.value.code == 2


def test_jobs_flag_does_not_change_features_output(chain):
    one = chain / "jobs1.csv"
    four = chain / "jobs4.csv"
    assert run("features", "--in", str(chain / "clean.csv"), "--out", str(one),
               "--jobs", "1") == 0
    assert run("features", "--in", str(chain / "clean.csv"), "--out", str(four),
               "--jobs", "4") == 0
    assert one.read_bytes() == four.read_bytes()


@pytest.fixture
def collector_state():
    """Restore the collector's state whatever a test leaves behind."""
    was_enabled = gc.isenabled()
    yield
    if was_enabled:
        gc.enable()
    else:
        gc.disable()


@pytest.mark.parametrize("enabled", [True, False])
def test_cli_suspends_collector_for_one_command_only(
    chain, monkeypatch, collector_state, enabled
):
    from shillbid import cli

    lines = (chain / "clean.csv").read_text(encoding="utf-8").splitlines()
    cells = lines[2].split(",")
    cells[0] = lines[1].split(",")[0]  # duplicate record id -> exit 3
    lines[2] = ",".join(cells)
    tampered = chain / "tampered.csv"
    tampered.write_text("\n".join(lines) + "\n", encoding="utf-8")

    seen_during: list[bool] = []
    real_validate = cli.cmd_validate

    def watched_validate(args):
        seen_during.append(gc.isenabled())
        return real_validate(args)

    monkeypatch.setattr(cli, "cmd_validate", watched_validate)
    cases = [
        (0, ["features", "--in", str(chain / "clean.csv"), "--out", str(chain / "gc.csv")]),
        (0, ["validate", "--in", str(chain / "clean.csv")]),
        (2, ["preprocess", "--in", str(chain / "corpus.csv"),
             "--out", str(chain / "x.csv"), "--min-bids", "0"]),
        (3, ["validate", "--in", str(tampered)]),
    ]
    (gc.enable if enabled else gc.disable)()
    for expected, argv in cases:
        assert run(*argv) == expected
        assert gc.isenabled() is enabled, argv
    assert seen_during == [False, False]
