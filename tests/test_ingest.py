"""CSV readers and writers: raw scrapes, bid tables, feature datasets."""
import csv
import functools
import io
import math
import random
import re
import tempfile
from dataclasses import replace
from decimal import Decimal
from operator import itemgetter
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from shillbid.cli import main as cli_main
from shillbid.errors import (
    DataConsistencyError,
    InvariantError,
    OutlierError,
    ParseError,
    SchemaError,
)
from shillbid.ingest import (
    DEFAULT_RAW_SCHEMA,
    RawScanner,
    RejectedRow,
    SchemaReport,
    check_sb_dataset,
    load_raw_schema,
    read_auctions,
    read_preprocessed,
    read_raw,
    read_sb_dataset,
    write_preprocessed,
    write_rejects,
    write_sb_dataset,
    write_scores,
)
from shillbid.model import (
    METRIC_COLUMNS,
    PREPROCESSED_COLUMNS,
    SB_COLUMNS,
    SBInstance,
    validate_dataset,
)
from shillbid.preprocess import (
    PipelineConfig,
    run_pipeline,
    run_pipeline_records,
    run_pipeline_table,
)
from shillbid.synth import SynthConfig, write_corpus

from . import _oracle
from .conftest import make_view, records_of
from .test_preprocess import five_bid_auction


def write_csv(path, header, rows):
    with open(path, "w", encoding="utf-8", newline="") as fh:
        writer = csv.writer(fh, lineterminator="\n")
        writer.writerow(header)
        writer.writerows(rows)


RAW_HEADER_15 = [DEFAULT_RAW_SCHEMA[k] for k in DEFAULT_RAW_SCHEMA]


def raw_cells(over=None):
    base = {
        "auction_url": "https://x.example/itm/1",
        "seller_id": "s1",
        "bidder_id": "alice",
        "bid_amount": "20.00 $",
        "bid_date": "Jun-02-17",
        "bid_time": "08:20:50 PDT",
        "start_date": "Jun-01-17",
        "start_time": "19:24:55 PDT",
        "end_date": "Jun-06-17",
        "end_time": "19:24:55 PDT",
        "duration_days": "5",
        "starting_price": "5.00 $",
        "winning_price": "30.00 $",
        "num_bids": "1",
        "num_bidders": "1",
    }
    if over:
        base.update(over)
    return [base[k] for k in DEFAULT_RAW_SCHEMA]


# --- schema files -----------------------------------------------------------

def test_load_raw_schema(tmp_path):
    lines = ["# comment", ""]
    lines += [f"{k}={v}" for k, v in DEFAULT_RAW_SCHEMA.items()]
    path = tmp_path / "schema.conf"
    path.write_text("\n".join(lines), encoding="utf-8")
    assert load_raw_schema(path) == dict(DEFAULT_RAW_SCHEMA)


@pytest.mark.parametrize(
    "mutate, fragment",
    [
        (lambda d: d.update(bogus="X"), "unknown"),
        (lambda d: d.pop("bidder_id"), "missing"),
        (lambda d: d.update(bidder_id=""), "empty"),
        (lambda d: d.update(bidder_id=d["seller_id"]), "mapped by both"),
    ],
)
def test_load_raw_schema_rejects_bad_files(tmp_path, mutate, fragment):
    table = dict(DEFAULT_RAW_SCHEMA)
    mutate(table)
    path = tmp_path / "schema.conf"
    path.write_text(
        "\n".join(f"{k}={v}" for k, v in table.items()), encoding="utf-8"
    )
    with pytest.raises(SchemaError, match=fragment):
        load_raw_schema(path)


def test_load_raw_schema_rejects_a_line_without_equals(tmp_path):
    path = tmp_path / "schema.conf"
    path.write_text("# comment\nbidder_id Bidder\n", encoding="utf-8")
    with pytest.raises(SchemaError, match=r"schema.conf:2: expected key=value"):
        load_raw_schema(path)


def test_load_raw_schema_reads_past_a_byte_order_mark(tmp_path):
    path = tmp_path / "schema.conf"
    lines = [f"{k}={v}" for k, v in DEFAULT_RAW_SCHEMA.items()]
    path.write_text("\n".join(lines), encoding="utf-8-sig")
    assert load_raw_schema(path) == dict(DEFAULT_RAW_SCHEMA)


def test_load_raw_schema_rejects_duplicate_keys(tmp_path):
    lines = [f"{k}={v}" for k, v in DEFAULT_RAW_SCHEMA.items()]
    lines.append("bidder_id=Another")
    path = tmp_path / "schema.conf"
    path.write_text("\n".join(lines), encoding="utf-8")
    with pytest.raises(SchemaError, match="duplicate"):
        load_raw_schema(path)


# --- raw scanning -----------------------------------------------------------

def test_read_raw_accepts_and_reports(tmp_path):
    path = tmp_path / "raw.csv"
    rows = [raw_cells(), raw_cells({"bidder_id": ""})]
    write_csv(path, RAW_HEADER_15, rows)
    records, report = read_raw(path)
    assert len(records) == 2
    assert report.row_count == 2
    assert report.accepted_count == 2
    assert report.rejected_count == 0
    assert report.missing_values[DEFAULT_RAW_SCHEMA["bidder_id"]] == 1
    assert records[0][DEFAULT_RAW_SCHEMA["seller_id"]] == "s1"
    assert len(records[0]) == 15


def test_read_raw_rejects_ragged_rows(tmp_path):
    path = tmp_path / "raw.csv"
    write_csv(path, RAW_HEADER_15, [raw_cells(), raw_cells()[:-1]])
    records, report = read_raw(path)
    assert len(records) == 1
    assert report.rejected_count == 1
    assert "column count" in report.rejections[0].reason
    assert report.rejections[0].row == 2

    rejects = tmp_path / "rejects.csv"
    write_rejects(report, rejects)
    lines = rejects.read_text(encoding="utf-8").splitlines()
    assert lines[0] == "row,reason,content"
    assert len(lines) == 2


def plain_csv_writer_table(header, rows) -> bytes:
    buffer = io.StringIO()
    writer = csv.writer(buffer, lineterminator="\n")
    writer.writerow(header)
    writer.writerows(rows)
    return buffer.getvalue().encode("utf-8")


def test_write_rejects_quotes_a_bare_carriage_return(tmp_path):
    reason = "column count: expected 15, got 1"
    path = tmp_path / "rejects.csv"
    write_rejects(SchemaReport(rejections=[RejectedRow(1, reason, ("x\ry",))]), path)
    with open(path, newline="", encoding="utf-8") as fh:
        rows = list(csv.reader(fh))
    assert rows[0] == ["row", "reason", "content"]
    assert rows[1][:2] == ["1", reason] and len(rows) == 2
    assert list(csv.reader(io.StringIO(rows[1][2], newline=""))) == [["x\ry"]]


def test_write_rejects_and_write_scores_match_csv_writer(tmp_path):
    # Ids with a comma, a quote or a line feed: the bytes a plain
    # csv.writer gives, row and content alike.
    cells = [("a,b", 'say "hi"', "", "x\ny"), ("",), (), ("plain", "row")]
    rejections = [
        RejectedRow(n, f"column count: expected 15, got {len(c)}", c)
        for n, c in enumerate(cells, 1)
    ]
    path = tmp_path / "rejects.csv"
    write_rejects(SchemaReport(rejections=rejections), path)
    contents = []
    for rej in rejections:
        buffer = io.StringIO()
        csv.writer(buffer, lineterminator="\n").writerow(rej.cells)
        contents.append([rej.row, rej.reason, buffer.getvalue()[:-1]])
    assert path.read_bytes() == plain_csv_writer_table(
        ["row", "reason", "content"], contents
    )

    instances = [instance(bidder=b) for b in ["a,b", 'q"t', "x\ny", "plain"]]
    path = tmp_path / "scores.csv"
    write_scores(instances, lambda i: i.early_bidding / 3, path)
    assert path.read_bytes() == plain_csv_writer_table(
        ["auction_id", "bidder_id", "weighted_score"],
        [[i.auction_id, i.bidder_id, f"{i.early_bidding / 3:.6f}"] for i in instances],
    )


def test_read_raw_empty_file(tmp_path):
    path = tmp_path / "raw.csv"
    path.write_text("", encoding="utf-8")
    with pytest.raises(SchemaError, match="empty"):
        read_raw(path)


def test_read_raw_missing_required_column(tmp_path):
    path = tmp_path / "raw.csv"
    write_csv(path, RAW_HEADER_15[:-1], [raw_cells()[:-1]])
    with pytest.raises(SchemaError, match="missing required"):
        read_raw(path)


def test_read_raw_duplicated_required_column(tmp_path):
    path = tmp_path / "raw.csv"
    write_csv(path, RAW_HEADER_15 + ["Bidder ID"], [raw_cells() + ["x"]])
    with pytest.raises(SchemaError, match="more than once"):
        read_raw(path)


def test_read_raw_extra_columns_pass_through(tmp_path):
    path = tmp_path / "raw.csv"
    write_csv(path, RAW_HEADER_15 + ["Extra"], [raw_cells() + ["stuff"]])
    records, report = read_raw(path)
    assert records[0]["Extra"] == "stuff"
    assert len(records[0]) == 16


def test_raw_scanner_single_use(tmp_path):
    path = tmp_path / "raw.csv"
    write_csv(path, RAW_HEADER_15, [raw_cells()])
    scanner = RawScanner(path)
    list(scanner)
    with pytest.raises(RuntimeError):
        list(scanner)


# --- preprocessed round trip ------------------------------------------------

def sample_views():
    auctions, report = run_pipeline(
        five_bid_auction()
        + five_bid_auction(
            url="https://x.example/itm/2", seller="s2", base_amount=41, winning="50.00 $"
        )
    )
    assert report.after.auctions == 2
    return auctions


def test_preprocessed_round_trip(tmp_path):
    views = sample_views()
    path = tmp_path / "clean.csv"
    write_preprocessed(views, path)
    assert read_preprocessed(path) == sorted(
        records_of(views), key=lambda r: (r.auction_id, -r.bid_submit_time_sec, r.record_id)
    )
    header = path.read_text(encoding="utf-8").splitlines()[0]
    assert header == (
        "record_id,auction_id,seller_id,bidder_id,bid_amount,"
        "bid_submit_time_sec,num_bidders,num_bids,starting_price,"
        "winning_bid,auction_duration_sec,start_time_sec,end_time_sec"
    )


def test_write_preprocessed_is_order_insensitive(tmp_path):
    views = sample_views()
    a, b = tmp_path / "a.csv", tmp_path / "b.csv"
    write_preprocessed(views, a)
    rng = random.Random(3)
    columns = ("bid_times", "bid_amounts", "bidder_ids", "record_ids")
    shuffled = []
    for v in views:
        # One permutation of the bids, applied to every column.
        order = rng.sample(range(len(v.record_ids)), len(v.record_ids))
        shuffled.append(replace(v, **{c: tuple(getattr(v, c)[i] for i in order) for c in columns}))
    rng.shuffle(shuffled)
    assert shuffled != views
    write_preprocessed(shuffled, b)
    assert a.read_bytes() == b.read_bytes()


def csv_line(cells) -> str:
    """One row as csv.writer quotes it under a "\r\n" terminator, which
    quotes a bare "\r" as well as "\n", ended by the table's "\n"."""
    buffer = io.StringIO()
    csv.writer(buffer, lineterminator="\r\n").writerow(cells)
    return buffer.getvalue()[:-2] + "\n"


def test_write_preprocessed_quotes_ids_like_csv_writer(tmp_path):
    rows = five_bid_auction(seller='se,l"ler') + five_bid_auction(
        url="https://x.example/itm/2", seller="s\r2"
    )
    bidders = ["a,b", 'say "hi"', "x\ny", "a,b", '"q",\nr', "x\ry"]
    for row, bidder in zip(rows, bidders):
        row[DEFAULT_RAW_SCHEMA["bidder_id"]] = bidder
    views, _ = run_pipeline(rows)
    assert len(views) == 2
    path = tmp_path / "clean.csv"
    write_preprocessed(views, path)

    expected = "".join(map(csv_line, [PREPROCESSED_COLUMNS] + [
        [getattr(r, name) for name in PREPROCESSED_COLUMNS] for r in records_of(views)
    ]))
    text = path.read_bytes().decode("utf-8")
    assert '"se,l""ler"' in text and '"say ""hi"""' in text and '"x\ny"' in text
    assert '"x\ry"' in text and '"s\r2"' in text
    assert text == expected
    assert read_auctions(path) == views


def test_write_preprocessed_validates_first(tmp_path):
    bad = [make_view([("a", "20.00", 150_000)], first_record_id=2)]  # not dense
    with pytest.raises(InvariantError):
        write_preprocessed(bad, tmp_path / "x.csv")
    assert not (tmp_path / "x.csv").exists()


def test_read_preprocessed_rejects_foreign_header(tmp_path):
    path = tmp_path / "clean.csv"
    write_csv(path, ["a", "b"], [["1", "2"]])
    with pytest.raises(SchemaError):
        read_preprocessed(path)


def test_read_preprocessed_money_normalization(tmp_path):
    views = sample_views()
    path = tmp_path / "clean.csv"
    write_preprocessed(views, path)
    text = path.read_text(encoding="utf-8")
    loose = text.replace("20.00", "20.0", 1)
    path.write_text(loose, encoding="utf-8")
    reread = read_preprocessed(path)
    # A one-digit cell still parses; it normalizes back to two digits.
    assert all(r.bid_amount == r.bid_amount.quantize(Decimal("0.01")) for r in reread)


def test_read_preprocessed_rejects_sub_cent_amounts(tmp_path):
    views = sample_views()
    path = tmp_path / "clean.csv"
    write_preprocessed(views, path)
    text = path.read_text(encoding="utf-8").replace("20.00", "20.001", 1)
    path.write_text(text, encoding="utf-8")
    with pytest.raises(ParseError, match="2-digit"):
        read_preprocessed(path)


def test_read_preprocessed_rejects_bad_cells(tmp_path):
    views = sample_views()
    path = tmp_path / "clean.csv"
    write_preprocessed(views, path)
    lines = path.read_text(encoding="utf-8").splitlines()
    lines[1] = lines[1].replace(lines[1].split(",")[0], "xx", 1)
    path.write_text("\n".join(lines) + "\n", encoding="utf-8")
    with pytest.raises(ParseError, match="record_id"):
        read_preprocessed(path)


# --- checked auction views ---------------------------------------------------

# (seller, starting_price, winning_bid, end_time_sec, duration, bids); each
# bid is (bidder, amount, bid_submit_time_sec). The windows and prices
# differ, so a cell copied from another auction can break a rule.
_BASE_AUCTIONS = (
    ("s1", "5.00", "24.00", 100_000, 432_000, (
        ("b0", "20.00", 500_000), ("b1", "21.00", 400_000), ("b2", "22.00", 300_000),
        ("b0", "23.00", 200_000), ("b1", "24.00", 150_000))),
    ("s2", "1.00", "14.00", 300_000, 86_400, (
        ("b3", "10.00", 380_000), ("b0", "12.00", 350_000), ("b3", "14.00", 310_000))),
    ("s1", "15.00", "19.00", 50_000, 259_200, (
        ("b1", "15.00", 300_000), ("b2", "16.50", 200_000), ("b1", "17.00", 100_000),
        ("b2", "19.00", 60_000))),
)


def base_rows():
    """A valid bid table of three auctions (rows 0-4, 5-7, 8-11), as text."""
    rows = []
    for auction_id, (seller, start_price, winning, end, duration, bids) in enumerate(
        _BASE_AUCTIONS, 1
    ):
        bidders = len({bidder for bidder, _, _ in bids})
        for bidder, amount, submitted in bids:
            rows.append([
                str(len(rows) + 1), str(auction_id), seller, bidder, amount,
                str(submitted), str(bidders), str(len(bids)), start_price,
                winning, str(duration), str(end + duration), str(end),
            ])
    return rows


def views_outcome(call):
    """The views a call returns, or the type and text of what it raised.

    repr keeps a Decimal's scale, which == would not compare.
    """
    try:
        views = call()
    except Exception as exc:  # compared, not swallowed
        return (type(exc).__name__, str(exc))
    return ("ok", repr(views))


def reference_outcome(path):
    return views_outcome(lambda: validate_dataset(read_preprocessed(path)))


def one_pass(monkeypatch, path):
    """read_auctions with the reference path made unusable."""
    def refuse(path):
        raise AssertionError("read_auctions fell back to read_preprocessed")

    with monkeypatch.context() as patch:
        patch.setattr("shillbid.ingest.read_preprocessed", refuse)
        return read_auctions(path)


def test_read_auctions_takes_one_pass_on_a_valid_table(tmp_path, monkeypatch):
    path = tmp_path / "clean.csv"
    write_csv(path, PREPROCESSED_COLUMNS, base_rows())
    views = one_pass(monkeypatch, path)
    expected = reference_outcome(path)
    assert expected[0] == "ok"
    assert views_outcome(lambda: views) == expected
    assert [len(v.record_ids) for v in views] == [5, 3, 4]


def test_views_hold_one_str_per_distinct_id(tmp_path):
    views, _ = run_pipeline(
        five_bid_auction()
        + five_bid_auction(
            url="https://x.example/itm/2", seller="s2", base_amount=40, winning="50.00 $"
        )
        + five_bid_auction(url="https://x.example/itm/3", seller="s1", base_amount=9)
    )
    path = tmp_path / "clean.csv"
    write_preprocessed(views, path)
    for made in (views, read_auctions(path)):
        bidders = [bidder for view in made for bidder in view.bidder_ids]
        sellers = [view.seller_id for view in made]
        assert len(set(map(id, bidders))) == len(set(bidders)) == 3
        assert len(set(map(id, sellers))) == len(set(sellers)) == 2


def test_read_auctions_raises_a_bad_cell_in_its_one_pass(tmp_path, monkeypatch):
    rows = base_rows()
    rows[6][4] = "lots"  # a bid_amount that does not parse, on a later row
    path = tmp_path / "clean.csv"
    write_csv(path, PREPROCESSED_COLUMNS, rows)
    expected = reference_outcome(path)
    assert expected == (
        "ParseError", f"{path}:row 7: bid_amount is not a number: 'lots'"
    )
    assert views_outcome(lambda: one_pass(monkeypatch, path)) == expected


def faulty_table(tmp_path):
    """base_rows with a later bid of auction 2 above its winning_bid."""
    rows = base_rows()
    rows[6][4] = "24.00"
    path = tmp_path / "clean.csv"
    write_csv(path, PREPROCESSED_COLUMNS, rows)
    return path


FAULT = "auction 2: bid_above_winning: bid_amount 24.00 above winning_bid 14.00"


def test_read_auctions_raises_a_broken_rule_in_its_one_pass(tmp_path, monkeypatch):
    path = faulty_table(tmp_path)
    assert reference_outcome(path) == ("InvariantError", FAULT)
    assert views_outcome(lambda: one_pass(monkeypatch, path)) == ("InvariantError", FAULT)


def test_validate_names_the_auction_and_the_rule_a_table_breaks(tmp_path, capsys):
    path = faulty_table(tmp_path)
    assert cli_main(["validate", "--in", str(path)]) == 3
    assert capsys.readouterr().err == f"error: {FAULT}\n"


def test_read_auctions_on_an_empty_table(tmp_path, monkeypatch):
    path = tmp_path / "clean.csv"
    write_csv(path, PREPROCESSED_COLUMNS, [])
    assert one_pass(monkeypatch, path) == []


def test_read_auctions_groups_interleaved_rows(tmp_path, monkeypatch):
    rows = base_rows()
    interleaved = [row for pair in zip(rows[:5], rows[5:8]) for row in pair]
    interleaved += rows[3:5] + rows[8:]
    path = tmp_path / "clean.csv"
    write_csv(path, PREPROCESSED_COLUMNS, interleaved)
    expected = reference_outcome(path)
    assert expected[0] == "ok"
    assert views_outcome(lambda: one_pass(monkeypatch, path)) == expected


def test_read_auctions_orders_bids_the_file_holds_out_of_order(tmp_path, monkeypatch):
    # Each auction's rows in reverse: the one pass sorts them back.
    rows = base_rows()
    path = tmp_path / "clean.csv"
    write_csv(path, PREPROCESSED_COLUMNS, rows[4::-1] + rows[7:4:-1] + rows[:7:-1])
    expected = reference_outcome(path)
    assert expected[0] == "ok"
    assert views_outcome(lambda: one_pass(monkeypatch, path)) == expected
    # Row 4's time ties row 1's: ordered by time, then amount, record 4
    # comes second although the record ids ascend in the file.
    rows[3][5] = rows[0][5]
    write_csv(path, PREPROCESSED_COLUMNS, rows)
    expected = reference_outcome(path)
    assert expected[0] == "ok"
    assert views_outcome(lambda: read_auctions(path)) == expected


def test_read_auctions_merges_auction_ids_1_and_01(tmp_path):
    # int() reads both texts as auction 1, so the reference groups them.
    rows = base_rows()
    rows[2][1] = rows[4][1] = "01"
    path = tmp_path / "clean.csv"
    write_csv(path, PREPROCESSED_COLUMNS, rows)
    expected = reference_outcome(path)
    assert expected[0] == "ok"
    assert views_outcome(lambda: read_auctions(path)) == expected


def test_read_auctions_accepts_a_later_amount_without_its_trailing_zero(tmp_path):
    # "24.0" differs from the first row's "24.00" as text, but not as
    # the two-digit amount both parse to.
    rows = base_rows()
    for row in rows[1:5]:
        row[9] = "24.0"
    path = tmp_path / "clean.csv"
    write_csv(path, PREPROCESSED_COLUMNS, rows)
    expected = reference_outcome(path)
    assert expected[0] == "ok"
    assert views_outcome(lambda: read_auctions(path)) == expected


def _edit(row, column, value):
    def apply(rows):
        rows[row][column] = value
    return apply


def _edit_auction(auction_id, column, value):
    def apply(rows):
        for row in rows:
            if row[1] == str(auction_id):
                row[column] = value
    return apply


def _second_copy_as_01(rows):
    # A full second copy of auction 1 under the text "01", with fresh
    # record ids: each text alone has its num_bids rows.
    last = len(rows)
    rows.extend([str(last + n), "01", *row[2:]] for n, row in enumerate(rows[:5], 1))


@pytest.mark.parametrize(
    "broken",
    [
        _edit(6, 4, "24.00"),  # a later bid above its auction's winning_bid
        _edit(6, 5, "200000"),  # a later bid outside its auction's window
        _edit(6, 3, " "),  # a later blank bidder
        _edit(6, 0, "-1"),
        _edit(11, 0, "3"),  # a copied id in place of the largest
        _edit(6, 0, "13"),  # record ids 1..13 with a gap
        _edit_auction(2, 1, "4"),  # auction ids 1, 3, 4
        _edit(7, 3, "b9"),  # one bidder more than num_bidders
        _edit(6, 9, "15.00"),  # auction-level text that differs
        _edit(6, 2, "s1"),
        _edit_auction(2, 8, "20.00"),  # starting_price above winning_bid
        _edit_auction(2, 7, "4"),  # num_bids above the row count
        _second_copy_as_01,
    ],
    ids=[
        "amount", "window", "bidder", "record-id", "duplicate-record-id",
        "record-id-gap", "auction-id-gap", "num-bidders", "auction-cell", "seller",
        "auction-rule", "num-bids", "01-copy",
    ],
)
def test_read_auctions_reports_a_broken_rule_like_the_reference(tmp_path, broken):
    rows = base_rows()
    broken(rows)
    path = tmp_path / "clean.csv"
    write_csv(path, PREPROCESSED_COLUMNS, rows)
    expected = reference_outcome(path)
    assert expected[0] == "InvariantError", expected
    assert views_outcome(lambda: read_auctions(path)) == expected


_EDITS = [
    "", " ", "0", "-1", "01", "20.5", "1e30", "NaN", "99",
    "b,3", 'b"3', "b\n3", "b\r3", "-0.00",
]


@st.composite
def counted_mutations(draw):
    """A valid table under a few edits, drops, copies, moves, shuffles and ragged rows.

    A move or a shuffle splits auctions' rows, so a reader that keeps
    one auction's head at a time meets an auction again after another.

    Returns the rows and how many changes were drawn.
    """
    rows = base_rows()
    changes = draw(st.integers(min_value=0, max_value=3))
    for _ in range(changes):
        i = draw(st.integers(min_value=0, max_value=len(rows) - 1))
        # Cell edits four times as often as each other kind of change.
        op = draw(
            st.sampled_from(
                ["edit"] * 4
                + ["auction", "record_id", "auction_id", "drop", "duplicate", "move", "shuffle"]
            )
        )
        # Any column, the bid-level ones twice as often.
        column = draw(st.sampled_from([0, 1, 3, 4, 5, *range(13)]))
        # A listed value or the same column's cell from another row.
        value = draw(
            st.one_of(st.sampled_from(_EDITS), st.sampled_from(rows).map(lambda row: row[column]))
        )
        if op == "edit":
            rows[i][column] = value
        elif op == "auction":
            # One auction's column, on all of its rows.
            _edit_auction(rows[i][1], column, value)(rows)
        elif op == "record_id":
            rows[i][0] = draw(st.sampled_from(rows))[0]
        elif op == "auction_id":
            rows[i][1] = rows[i - 1][1]
        elif op == "drop" and len(rows) > 1:
            del rows[i]
        elif op == "duplicate":
            rows.insert(i, list(rows[i]))
        elif op == "move":
            rows.insert(draw(st.integers(min_value=0, max_value=len(rows) - 1)), rows.pop(i))
        elif op == "shuffle":
            rows[:] = draw(st.permutations(rows))
    width = draw(st.sampled_from([None] * 27 + [1, 12, 14]))
    if width is not None:
        # A ragged row: one copied row cut short or given an extra cell.
        rows.append((draw(st.sampled_from(rows)) + [""])[:width])
        changes += 1
    return rows, changes


def mutated_tables():
    return counted_mutations().map(itemgetter(0))


@settings(max_examples=500)
@given(mutated_tables())
def test_read_auctions_matches_the_reference(rows):
    with tempfile.TemporaryDirectory() as tmp:
        path = Path(tmp) / "clean.csv"
        write_csv(path, PREPROCESSED_COLUMNS, rows)
        assert views_outcome(lambda: read_auctions(path)) == reference_outcome(path)


def _csv_line(cells):
    """cells as one LF-ended row, each quoted as the package's writers quote it."""
    buffer = io.StringIO()
    csv.writer(buffer, lineterminator="\r\n").writerow(cells)
    return buffer.getvalue()[:-2] + "\n"


def _table_bytes(rows):
    return "".join(map(_csv_line, [PREPROCESSED_COLUMNS, *rows])).encode("utf-8")


def _renamed(old, new):
    """The base table with the id old, of auction 2 mid-file, spelled new."""
    return lambda: _table_bytes(
        [[new if cell == old else cell for cell in row] for row in base_rows()]
    )


def _edited(column, value):
    def make():
        rows = base_rows()
        rows[6][column] = value
        return _table_bytes(rows)
    return make


def _ragged(width):
    def make():
        rows = base_rows()
        rows[6] = (rows[6] + ["1"])[:width]
        return _table_bytes(rows)
    return make


def _blank_line():
    lines = _table_bytes(base_rows()).splitlines(keepends=True)
    return b"".join(lines[:7] + [b"\n"] + lines[7:])


_LIMIT = csv.field_size_limit()

# (how the table is made, what the reference makes of it)
_TABLES_THE_SPLIT_REFUSES_OR_REJECTS = {
    "comma-in-id": (_renamed("b3", "b,3"), "ok"),
    "quote-in-id": (_renamed("b3", 'b"3'), "ok"),
    "cr-in-id": (_renamed("b3", "b\r3"), "ok"),
    "lf-in-id": (_renamed("b3", "b\n3"), "ok"),
    "line-over-field-limit": (_renamed("b3", "b" * _LIMIT), "ok"),
    "cell-over-field-limit": (_renamed("b3", "b" * (_LIMIT + 1)), "ParseError"),
    "blank-line": (_blank_line, "ParseError"),
    "short-row": (_ragged(12), "ParseError"),
    "long-row": (_ragged(14), "ParseError"),
    "no-final-newline": (lambda: _table_bytes(base_rows())[:-1], "ok"),
    "crlf-line-ends": (lambda: _table_bytes(base_rows()).replace(b"\n", b"\r\n"), "ok"),
    "not-utf8": (
        lambda: _table_bytes(base_rows()).replace(b"b3", b"b\xff", 1), "UnicodeDecodeError"
    ),
    "bom": (lambda: b"\xef\xbb\xbf" + _table_bytes(base_rows()), "ok"),
    "amount-lots": (_edited(4, "lots"), "ParseError"),
    "amount-snan": (_edited(4, "sNaN"), "ParseError"),
    "amount-huge-exponent": (_edited(4, "1e999999999999999999"), "ParseError"),
}


@pytest.mark.parametrize(
    "make, kind",
    list(_TABLES_THE_SPLIT_REFUSES_OR_REJECTS.values()),
    ids=list(_TABLES_THE_SPLIT_REFUSES_OR_REJECTS),
)
def test_a_table_the_split_refuses_or_rejects_reads_like_the_reference(
    tmp_path, monkeypatch, make, kind
):
    path = tmp_path / "clean.csv"
    path.write_bytes(make())
    expected = reference_outcome(path)
    assert expected[0] == kind, expected
    records = views_outcome(lambda: run_pipeline_records(read_preprocessed(path)))
    calls = []

    def spy(path):
        calls.append(path)
        return read_preprocessed(path)

    monkeypatch.setattr("shillbid.ingest.read_preprocessed", spy)
    assert views_outcome(lambda: read_auctions(path)) == expected
    assert views_outcome(lambda: run_pipeline_table(path)) == records
    # Every table is read, or rejected with the reference's error, in
    # the one pass: a line the split refuses goes to the csv reader.
    assert calls == []


# --- re-cleansing a bid table ------------------------------------------------

@settings(max_examples=300)
@given(counted_mutations().filter(lambda table: table[1] > 0))
def test_run_pipeline_table_matches_the_reference(table):
    rows, changes = table
    with tempfile.TemporaryDirectory() as tmp:
        path = Path(tmp) / "clean.csv"
        write_csv(path, PREPROCESSED_COLUMNS, rows)
        # Views and report, or the type and text of what was raised.
        streamed = views_outcome(lambda: run_pipeline_table(path))
        reference = views_outcome(lambda: run_pipeline_records(read_preprocessed(path)))
    if streamed != reference:
        # The one difference, which takes two changes: the reference reads
        # the whole table before it groups a row, so there a cell that
        # does not parse wins over an earlier disagreement. Both exit 2.
        assert changes > 1
        assert (streamed[0], reference[0]) == ("DataConsistencyError", "ParseError")


def test_run_pipeline_table_reports_a_disagreement_before_a_later_bad_cell(tmp_path):
    rows = base_rows()[:3]
    rows[1][9] = "25.00"  # winning_bid that differs from row 1's
    rows[2][5] = "soon"  # bid_submit_time_sec that does not parse
    path = tmp_path / "clean.csv"
    write_csv(path, PREPROCESSED_COLUMNS, rows)
    with pytest.raises(DataConsistencyError, match="disagree"):
        run_pipeline_table(path)
    with pytest.raises(ParseError, match="row 3: bid_submit_time_sec"):
        run_pipeline_records(read_preprocessed(path))


# --- raw rows through the prefix path ---------------------------------------

@functools.cache
def _raw_lines():
    """The lines of a small synth scrape, header first: 6 auctions of
    contiguous rows, with copied rows and blank bidders."""
    with tempfile.TemporaryDirectory() as tmp:
        path = Path(tmp) / "raw.csv"
        write_corpus(
            SynthConfig(num_auctions=6, duplicate_row_rate=0.1, missing_bidder_rate=0.1), path
        )
        with open(path, encoding="utf-8", newline="") as fh:
            return tuple(fh)


def _write_lines(path, lines):
    path.write_text("".join(lines), encoding="utf-8", newline="")
    return path


def _raw_outcome(path, run, schema=None):
    """The views, cleansing report, ingest report and rejects sidecar bytes
    of run(path, config), or the type and text of what it raised."""
    config = PipelineConfig(schema=dict(schema or DEFAULT_RAW_SCHEMA))
    try:
        views, report, ingest = run(path, config)
    except Exception as exc:  # compared, not swallowed
        return (type(exc).__name__, str(exc))
    sidecar = path.with_name(path.name + ".rejects.csv")
    write_rejects(ingest, sidecar)
    return ("ok", repr(views), report.to_dict(), ingest.to_dict(), sidecar.read_bytes())


def _through_pairs(path, config):
    scanner = RawScanner(path, config.schema)
    views, report = run_pipeline(scanner, config)
    return views, report, scanner.report


def _through_csv_reader(path, config):
    records, ingest = read_raw(path, config.schema)
    return (*run_pipeline(records, config), ingest)


def _assert_paths_agree(path, schema=None):
    """The prefix path's outcome equals the csv.reader reference's; returns it."""
    expected = _raw_outcome(path, _through_csv_reader, schema)
    assert _raw_outcome(path, _through_pairs, schema) == expected
    return expected


def _distinct_heads(path, schema=None):
    """How many distinct head objects RawScanner.pairs gives."""
    return len({id(head): head for head, _ in RawScanner(path, schema).pairs()})


def _auctions_in(lines):
    return len({line.split(",", 1)[0] for line in lines[1:]})


def _column(name):
    return _raw_lines()[0].rstrip("\n").split(",").index(name)


def _cell(n, name, text):
    """Line n (0 is the header) with one cell set, quoted as csv.writer would."""
    def edit(lines):
        cells = next(csv.reader([lines[n]]))
        cells[_column(name)] = text
        lines[n] = _csv_line(cells)
    return edit


def _text(n, old, new):
    def edit(lines):
        assert old in lines[n]
        lines[n] = lines[n].replace(old, new, 1)
    return edit


def _ragged_line(n, width):
    def edit(lines):
        cells = next(csv.reader([lines[n]]))
        lines[n] = _csv_line((cells + ["x"])[:width])
    return edit


def _both(first, second):
    def edit(lines):
        first(lines)
        second(lines)
    return edit


def _interleave(lines):
    # The rows of the first two auctions, taken in turn.
    urls = [line.split(",", 1)[0] for line in lines[1:]]
    a = urls.count(urls[0])
    b = urls.count(urls[a])
    mixed = [line for pair in zip(lines[1:1 + a], lines[1 + a:1 + a + b]) for line in pair]
    lines[1:1 + a + b] = mixed + lines[1 + min(a, b):1 + a] + lines[1 + a + min(a, b):1 + a + b]


def _blank_auction_cell(name):
    # One auction's cell in the prefix blank on all its rows.
    def edit(lines):
        url = lines[1].split(",", 1)[0]
        for n, line in enumerate(lines):
            if line.split(",", 1)[0] == url:
                _cell(n, name, "")(lines)
    return edit


def _quoted_comma_then_long_copy(lines):
    # The first row of the second auction, with a quoted comma in its
    # rest, then a copy with a plain rest and one cell more.
    urls = [line.split(",", 1)[0] for line in lines]
    n = next(n for n, url in enumerate(urls) if n > 1 and url != urls[1])
    _cell(n, "Image URL", "a,b")(lines)
    lines.insert(n + 1, lines[n])
    _cell(n + 1, "Image URL", "a")(lines)
    _ragged_line(n + 1, 29)(lines)


def _shuffle(lines):
    lines[1:] = random.Random(4).sample(lines[1:], len(lines) - 1)


_LIMIT_CELL = "x" * csv.field_size_limit()

# name -> (edit of the corpus lines, header first; what the reference makes of it)
_PREFIX_PATH_EDITS = {
    "as-written": (lambda lines: None, "ok"),
    # A record over two lines, then a ragged row numbered as a csv record.
    "quoted-lf-in-prefix": (_both(_text(3, ", ", ",\n"), _ragged_line(9, 27)), "ok"),
    "quoted-lf-in-rest": (_both(_cell(4, "Image URL", "a\nb"), _ragged_line(9, 29)), "ok"),
    "quoted-lf-in-bidder": (_both(_cell(4, "Bidder ID", "u\n1"), _ragged_line(9, 27)), "ok"),
    # A record whose first line ends in more plain cells than a rest has,
    # then a copy of it: that line's tail is not a rest.
    "quoted-lf-after-commas": (
        _both(
            _cell(3, "Product Location", "a,b,c,d,e,f,g,h,i,j,k\nl"),
            lambda lines: lines.insert(4, lines[3]),
        ),
        "ok",
    ),
    # A quoted comma in a rest, then a long row of the same bidder: the
    # first line's text before its last rest_width commas is no prefix.
    "quoted-comma-in-rest": (_quoted_comma_then_long_copy, "ok"),
    "bare-cr-line-end": (_text(5, "\n", "\r"), "ok"),
    "bare-cr-in-cell": (_cell(5, "Image URL", "a\rb"), "ok"),
    "crlf-line-end": (_text(5, "\n", "\r\n"), "ok"),
    "crlf-everywhere": (
        lambda lines: lines.__setitem__(slice(None), [x.replace("\n", "\r\n") for x in lines]),
        "ok",
    ),
    "cell-over-field-limit": (_cell(5, "Image URL", _LIMIT_CELL + "x"), "ParseError"),
    "cell-at-field-limit": (_cell(5, "Image URL", _LIMIT_CELL), "ok"),
    "short-row-after-shared": (_ragged_line(6, 20), "ok"),
    "long-row-after-shared": (_ragged_line(6, 29), "ok"),
    "blank-line": (lambda lines: lines.insert(5, "\n"), "ok"),
    "no-final-lf": (lambda lines: lines.__setitem__(-1, lines[-1][:-1]), "ok"),
    "no-final-lf-ragged": (lambda lines: lines.__setitem__(-1, lines[-1][:-4]), "ok"),
    "interleaved": (_interleave, "ok"),
    "blank-prefix-cell": (_blank_auction_cell("Product Condition"), "ok"),
    "blank-rest-cell": (_cell(4, "Bidder Rating", ""), "ok"),
    "quoted-first-cell": (
        lambda lines: lines.__setitem__(
            slice(1, None), ['"' + x.replace(",", '",', 1) for x in lines[1:]]
        ),
        "ok",
    ),
    "shuffled": (_shuffle, "ok"),
}


@pytest.mark.parametrize(
    "edit, kind", list(_PREFIX_PATH_EDITS.values()), ids=list(_PREFIX_PATH_EDITS)
)
def test_the_prefix_path_reads_a_raw_corpus_like_the_csv_reader(tmp_path, edit, kind):
    lines = list(_raw_lines())
    edit(lines)
    expected = _assert_paths_agree(_write_lines(tmp_path / "raw.csv", lines))
    assert expected[0] == kind, expected


def test_the_prefix_path_shares_one_head_per_auction(tmp_path):
    lines = list(_raw_lines())
    path = _write_lines(tmp_path / "raw.csv", lines)
    assert _distinct_heads(path) == _auctions_in(lines)
    # A blank cell in a shared prefix is counted on every row.
    _blank_auction_cell("Product Condition")(lines)
    _write_lines(path, lines)
    rows = [line for line in lines if line.startswith(lines[1].split(",", 1)[0])]
    assert _distinct_heads(path) == _auctions_in(lines)
    assert _assert_paths_agree(path)[3]["missing_values"]["Product Condition"] == len(rows)


def test_the_prefix_path_numbers_rows_as_csv_records(tmp_path):
    lines = list(_raw_lines())
    _both(_cell(4, "Image URL", "a\nb"), _ragged_line(9, 27))(lines)
    path = _write_lines(tmp_path / "raw.csv", lines)
    scanner = RawScanner(path)
    list(scanner.pairs())
    assert [r.row for r in scanner.report.rejections] == [9]
    assert scanner.report.row_count == len(lines) - 1


def test_the_prefix_path_names_a_cell_over_the_field_limit(tmp_path):
    lines = list(_raw_lines())
    _cell(5, "Image URL", _LIMIT_CELL + "x")(lines)
    path = _write_lines(tmp_path / "raw.csv", lines)
    with pytest.raises(ParseError) as caught:
        list(RawScanner(path).pairs())
    assert str(caught.value) == (
        f"{path}:row 5: field larger than field limit ({csv.field_size_limit()})"
    )


def _reorder(lines, order):
    """lines with their columns in order, a list of header names."""
    rows = list(csv.reader(lines))
    at = [rows[0].index(name) for name in order]
    return [_csv_line([cells[i] for i in at]) for cells in rows]


def _moved(name, after):
    header = _raw_lines()[0].rstrip("\n").split(",")
    header.remove(name)
    header.insert(header.index(after) + 1, name)
    return header


def test_a_schema_whose_first_column_is_bid_level_shares_no_prefix(tmp_path):
    header = _raw_lines()[0].rstrip("\n").split(",")
    lines = _reorder(_raw_lines(), ["Bid Amount", *(n for n in header if n != "Bid Amount")])
    path = _write_lines(tmp_path / "raw.csv", lines)
    assert _assert_paths_agree(path)[0] == "ok"
    assert _distinct_heads(path) == len(lines) - 1
    # The same layout under renamed headers and a schema that maps them.
    renamed = {name: f"col {i}" for i, name in enumerate(next(csv.reader(lines)))}
    lines[0] = _csv_line(renamed[name] for name in next(csv.reader(lines)))
    schema = {key: renamed[name] for key, name in DEFAULT_RAW_SCHEMA.items()}
    path = _write_lines(tmp_path / "renamed.csv", lines)
    assert _assert_paths_agree(path, schema)[0] == "ok"
    assert _distinct_heads(path, schema) == len(lines) - 1


def test_an_auction_cell_after_the_bid_cells_is_read_from_each_line(tmp_path):
    lines = _reorder(_raw_lines(), _moved("Number of Bidders", "Bid Amount"))
    path = _write_lines(tmp_path / "raw.csv", lines)
    assert _assert_paths_agree(path)[0] == "ok"
    assert _distinct_heads(path) == _auctions_in(lines)
    # A line whose late cell differs from its auction's head is parsed in
    # full, its own head: the auction's rows disagree, as the reference finds.
    lines = list(_raw_lines())
    bidder = _column("Bidder ID")
    n = next(n for n in range(3, len(lines)) if next(csv.reader([lines[n]]))[bidder])
    _cell(n, "Number of Bidders", "99")(lines)
    lines = _reorder(lines, _moved("Number of Bidders", "Bid Amount"))
    _write_lines(path, lines)
    assert _distinct_heads(path) == _auctions_in(lines) + 1
    assert _assert_paths_agree(path)[0] == "DataConsistencyError"


@pytest.mark.parametrize(
    "edit",
    [
        lambda lines: lines.__setitem__(slice(None), [x.replace("\n", "\r\n") for x in lines]),
        _text(5, "\n", "\r\n"),
        lambda lines: lines.__setitem__(-1, lines[-1][:-1]),
    ],
    ids=["crlf-everywhere", "crlf-line-end", "no-final-lf"],
)
def test_the_prefix_path_reads_a_last_column_bidder_exactly(tmp_path, edit):
    # The line end sits next to a logical cell: a CR kept in it, or a
    # last character cut off with the LF, would change the bidder. The
    # other bidder columns follow the bid amount, so lines share prefixes.
    header = _raw_lines()[0].rstrip("\n").split(",")
    bidder = ["Bidder Rating", "Bidder Account Link"]
    order = [name for name in header if name not in bidder + ["Bidder ID"]]
    at = order.index("Bid Amount") + 1
    lines = _reorder(_raw_lines(), order[:at] + bidder + order[at:] + ["Bidder ID"])
    assert _distinct_heads(_write_lines(tmp_path / "raw.csv", lines)) == _auctions_in(lines)
    edit(lines)
    assert _assert_paths_agree(_write_lines(tmp_path / "raw.csv", lines))[0] == "ok"


def test_run_pipeline_reads_mappings_and_records_as_it_reads_the_scanner(tmp_path):
    def outcome(records):
        views, report = run_pipeline(records)
        return repr(views), report.to_dict()

    path = _write_lines(tmp_path / "raw.csv", _raw_lines())
    scanned = outcome(RawScanner(path))
    records, _ = read_raw(path)
    assert outcome(records) == scanned
    assert outcome([dict(r) for r in records]) == scanned
    # A scanner over another schema is read as records, by config's schema.
    other = dict(DEFAULT_RAW_SCHEMA, num_bids="Number of Bidders", num_bidders="Number of Bids")
    assert outcome(RawScanner(path, other)) == scanned


_RAW_EDIT_TEXTS = ['"', '""', ",", "\n", "\r", "\r\n", " "]


@st.composite
def edited_raw_lines(draw):
    """The small scrape's lines under a few text edits: a quote, comma,
    LF, CR or space put anywhere, a cell dropped, added or blanked on
    one line or on all of one auction's lines."""
    lines = list(_raw_lines())
    for _ in range(draw(st.integers(min_value=0, max_value=4))):
        n = draw(st.integers(min_value=1, max_value=len(lines) - 1))
        op = draw(st.sampled_from(["text", "text", "drop", "add", "blank", "blank-auction"]))
        cells = lines[n].split(",")
        k = draw(st.integers(min_value=0, max_value=len(cells) - 1))
        if op == "text":
            at = draw(st.integers(min_value=0, max_value=len(lines[n])))
            lines[n] = lines[n][:at] + draw(st.sampled_from(_RAW_EDIT_TEXTS)) + lines[n][at:]
            continue
        if op == "blank-auction":
            for m, line in enumerate(lines[1:], 1):
                if line.split(",", 1)[0] == cells[0]:
                    pieces = line.split(",")
                    pieces[k] = "\n" if pieces[k].endswith("\n") else ""
                    lines[m] = ",".join(pieces)
            continue
        if op == "drop":
            del cells[k]
        elif op == "add":
            cells.insert(k, draw(st.sampled_from(["", "x", "1"])))
        else:
            cells[k] = ""
        line = ",".join(cells)
        lines[n] = line if line.endswith("\n") else line + "\n"
    return lines


@settings(max_examples=300)
@given(edited_raw_lines())
def test_the_prefix_path_matches_the_csv_reader_on_edited_lines(lines):
    with tempfile.TemporaryDirectory() as tmp:
        _assert_paths_agree(_write_lines(Path(tmp) / "raw.csv", lines))


# --- feature dataset round trip ---------------------------------------------

def instance(auction_id=1, bidder="alice", **over):
    values = dict(
        bidder_tendency=0.5,
        early_bidding=0.25,
        bidding_ratio=0.2,
        last_bidding=0.75,
        auction_starting_price=0.0,
        successive_outbidding=0.5,
        winning_ratio=1.0,
        auction_bids=0.125,
    )
    values.update(over)
    return SBInstance(auction_id=auction_id, bidder_id=bidder, **values)


def test_sb_round_trip_and_formatting(tmp_path):
    instances = [instance(), instance(bidder="bob", successive_outbidding=1.0)]
    path = tmp_path / "sb.csv"
    write_sb_dataset(instances, path)
    lines = path.read_text(encoding="utf-8").splitlines()
    assert lines[0] == ",".join(SB_COLUMNS)
    assert lines[1] == "1,alice,0.500000,0.250000,0.200000,0.750000,0.000000,0.500000,1.000000,0.125000"
    assert read_sb_dataset(path) == instances


def test_write_sb_dataset_sorts_pairs(tmp_path):
    instances = [
        instance(auction_id=2, bidder="bob"),
        instance(auction_id=1, bidder="zed"),
        instance(auction_id=1, bidder="amy"),
    ]
    path = tmp_path / "sb.csv"
    write_sb_dataset(instances, path)
    rows = [line.split(",")[:2] for line in
            path.read_text(encoding="utf-8").splitlines()[1:]]
    assert rows == [["1", "amy"], ["1", "zed"], ["2", "bob"]]


def test_check_sb_dataset_rejects_out_of_range():
    with pytest.raises(OutlierError):
        check_sb_dataset([instance(early_bidding=1.0000001)])
    with pytest.raises(OutlierError):
        check_sb_dataset([instance(winning_ratio=-0.1)])


@pytest.mark.parametrize("value", [math.nan, math.inf, -math.inf, 1.0000001, -0.1])
@pytest.mark.parametrize("name", METRIC_COLUMNS)
def test_check_sb_dataset_names_the_first_metric_out_of_range(name, value):
    # A later column out of range too: the message names the first.
    later = {n: 2.0 for n in METRIC_COLUMNS[METRIC_COLUMNS.index(name) + 1:]}
    bad = instance(**dict(later, **{name: value}))
    with pytest.raises(OutlierError) as caught:
        check_sb_dataset([instance(bidder="amy"), bad])
    assert str(caught.value) == (
        f"auction 1, bidder 'alice': {name}={value!r} outside [0, 1]"
    )


def test_check_sb_dataset_reports_a_duplicate_before_its_range():
    with pytest.raises(InvariantError) as caught:
        check_sb_dataset([instance(), instance(early_bidding=math.nan)])
    assert str(caught.value) == "duplicate instance for auction 1, bidder 'alice'"


def test_check_sb_dataset_accepts_negative_zero():
    check_sb_dataset([instance(**dict.fromkeys(METRIC_COLUMNS, -0.0))])


def test_check_sb_dataset_accepts_exact_bounds():
    # Every metric at 0 and at 1, the streak at each of its three bands.
    instances = [
        instance(bidder=f"{bound}-{streak}", **dict(
            dict.fromkeys(METRIC_COLUMNS, bound), successive_outbidding=streak
        ))
        for bound in (0.0, 1.0)
        for streak in (0.0, 0.5, 1.0)
    ]
    assert check_sb_dataset(instances) is True


def test_check_sb_dataset_tells_whether_pairs_ascend():
    assert check_sb_dataset([instance(bidder="amy"), instance(bidder="bob")]) is True
    assert check_sb_dataset([instance(auction_id=2), instance(auction_id=1)]) is False


@st.composite
def shuffled_instances(draw):
    """Instances from a few pairs, some repeated, a few out of range, in any order."""
    pairs = draw(st.lists(
        st.tuples(st.integers(1, 3), st.sampled_from(["amy", "bob", "cy"])), max_size=12
    ))
    if draw(st.booleans()):
        pairs = sorted(pairs)
    bad = draw(st.dictionaries(
        st.integers(0, max(len(pairs) - 1, 0)),
        st.tuples(st.sampled_from(METRIC_COLUMNS), st.sampled_from([-0.5, 0.25, 1.5, math.nan])),
        max_size=2,
    ))
    return [
        instance(auction_id, bidder, **dict([bad[k]] if k in bad else []))
        for k, (auction_id, bidder) in enumerate(pairs)
    ]


@settings(max_examples=500)
@given(shuffled_instances())
def test_check_sb_dataset_matches_a_check_that_keeps_every_pair(instances):
    # Fed a list, an iterator with again, or an iterator alone, the check
    # keeps fewer pairs than the oracle's set, but must raise the same
    # first error, type and message, or tell the same ascent.
    expected = _oracle.sb_check_outcome(instances, METRIC_COLUMNS)
    for args in [(instances,), (iter(instances), lambda: iter(instances)), (iter(instances),)]:
        try:
            outcome = (None, check_sb_dataset(*args))
        except (InvariantError, OutlierError) as exc:
            outcome = (type(exc).__name__, str(exc))
        assert outcome == expected


def test_write_sb_dataset_matches_csv_writer(tmp_path):
    edges = [0.0, -0.0, 5e-7, 0.9999995, 1.0]
    streaks = [0.0, -0.0, 0.5, 1.0, 1.0]
    instances = []
    for k, bidder in enumerate(["plain", "a,b", 'q"t', "zed", "amy"]):
        values = {
            name: edges[(k + j) % len(edges)] for j, name in enumerate(METRIC_COLUMNS)
        }
        values["successive_outbidding"] = streaks[k]
        instances.append(instance(auction_id=2 - k % 2, bidder=bidder, **values))
    random.Random(8).shuffle(instances)
    path = tmp_path / "sb.csv"
    write_sb_dataset(instances, path)

    expected = io.StringIO()
    writer = csv.writer(expected, lineterminator="\n")
    writer.writerow(SB_COLUMNS)
    for inst in sorted(instances, key=lambda i: (i.auction_id, i.bidder_id)):
        writer.writerow(
            [inst.auction_id, inst.bidder_id]
            + ["{:.6f}".format(v) for v in inst.metric_values()]
        )
    assert path.read_bytes() == expected.getvalue().encode("utf-8")


def test_write_sb_dataset_quotes_a_bare_carriage_return(tmp_path):
    instances = [instance(bidder="x\ry"), instance(bidder="z")]
    path = tmp_path / "sb.csv"
    write_sb_dataset(instances, path)
    assert read_sb_dataset(path) == instances


def test_check_sb_dataset_rejects_off_band_streak_values():
    with pytest.raises(InvariantError, match="successive_outbidding"):
        check_sb_dataset([instance(successive_outbidding=0.25)])


def test_check_sb_dataset_rejects_duplicate_pairs():
    with pytest.raises(InvariantError, match="duplicate"):
        check_sb_dataset([instance(), instance()])


def test_read_sb_dataset_rejects_foreign_header(tmp_path):
    path = tmp_path / "sb.csv"
    write_csv(path, ["x"], [["1"]])
    with pytest.raises(SchemaError):
        read_sb_dataset(path)


def test_read_sb_dataset_rejects_non_numeric_cells(tmp_path):
    path = tmp_path / "sb.csv"
    write_sb_dataset([instance()], path)
    text = path.read_text(encoding="utf-8").replace("0.500000", "half", 1)
    path.write_text(text, encoding="utf-8")
    with pytest.raises(ParseError):
        read_sb_dataset(path)


@pytest.mark.parametrize(
    "cells, fragment",
    [
        (lambda cells: cells[:9], "expected 10 cells, got 9"),
        (lambda cells: ["x", *cells[1:]], "auction_id is not an integer: 'x'"),
    ],
    ids=["short-row", "auction-id"],
)
def test_read_sb_dataset_rejects_short_rows_and_bad_ids(tmp_path, cells, fragment):
    path = tmp_path / "sb.csv"
    write_sb_dataset([instance()], path)
    header, row = path.read_text(encoding="utf-8").splitlines()
    path.write_text(f"{header}\n{','.join(cells(row.split(',')))}\n", encoding="utf-8")
    with pytest.raises(ParseError, match=re.escape(fragment)):
        read_sb_dataset(path)
