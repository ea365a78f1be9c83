"""End-to-end command-line behavior and exit codes."""
import contextlib
import csv
import functools
import gc
import io
import json
import re
import sys
import tempfile
from collections import Counter
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from shillbid import metrics
from shillbid.cli import main
from shillbid.dataset import build_sb_dataset
from shillbid.ingest import (
    DEFAULT_RAW_SCHEMA,
    read_auctions,
    read_sb_dataset,
    write_preprocessed,
    write_sb_dataset,
)
from shillbid.metrics import (
    compute_global_aggregates,
    load_weights,
    participation_map,
    weighted_score,
)
from shillbid.model import DEFAULT_WEIGHTS, PREPROCESSED_COLUMNS
from shillbid.preprocess import run_pipeline
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
