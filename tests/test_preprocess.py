"""Parsing helpers and the cleansing pipeline."""
import csv
import functools
import logging
import random
import tempfile
import tracemalloc
from dataclasses import fields, replace
from datetime import datetime
from decimal import Decimal
from pathlib import Path

import pytest
from hypothesis import example, given
from hypothesis import strategies as st

from shillbid.cli import main as cli_main
from shillbid.errors import (
    ConfigError,
    DataConsistencyError,
    InvariantError,
    ParseError,
    SchemaError,
)
from shillbid.ingest import (
    DEFAULT_RAW_SCHEMA,
    RawScanner,
    _parse_cents,
    bid_rows,
    read_preprocessed,
    write_preprocessed,
)
from shillbid.model import PREPROCESSED_COLUMNS, AuctionView, check_dataset, validate_dataset
from shillbid.preprocess import (
    REFERENCE_EPOCH,
    SECONDS_PER_DAY,
    PipelineConfig,
    assign_identifiers,
    countdown_parser,
    duration_days_to_seconds,
    merge_datetime,
    money_parser,
    parse_money,
    run_pipeline,
    run_pipeline_records,
    to_countdown_seconds,
)
from shillbid.synth import SynthConfig, write_corpus

from . import _oracle
from .conftest import records_of


# --- scalar parsing ---------------------------------------------------------

@pytest.mark.parametrize(
    "date_text, time_text, expected",
    [
        ("Jun-01-17", "19:24:55 PDT", datetime(2017, 6, 1, 19, 24, 55)),
        ("Jun-03-17", "19:24:55 PDT", datetime(2017, 6, 3, 19, 24, 55)),
        ("Jun-02-17", "08:20:50 PDT", datetime(2017, 6, 2, 8, 20, 50)),
        ("JUN-02-17", "08:20:50", datetime(2017, 6, 2, 8, 20, 50)),
        ("dec-31-16", "00:00:00 PST", datetime(2016, 12, 31, 0, 0, 0)),
    ],
)
def test_merge_datetime(date_text, time_text, expected):
    assert merge_datetime(date_text, time_text) == expected


@pytest.mark.parametrize(
    "date_text, time_text",
    [
        ("Junk-01-17", "19:24:55"),
        ("Jun-01", "19:24:55"),
        ("Jun-01-17", "19:24"),
        ("Jun-32-17", "19:24:55"),
        ("", "19:24:55"),
        ("Jun-01-17", ""),
        ("Jun-01-17", "25:00:00"),
    ],
)
def test_merge_datetime_rejects_malformed(date_text, time_text):
    with pytest.raises(ParseError):
        merge_datetime(date_text, time_text)


_HUGE = "99999999999"


@pytest.mark.parametrize(
    "date_text, time_text",
    [
        (f"Jun-01-{_HUGE}", "19:24:55"),
        (f"Jun-{_HUGE}-17", "19:24:55"),
        ("Jun-01-17", f"{_HUGE}:24:55"),
        ("Jun-01-17", f"19:{_HUGE}:55"),
        ("Jun-01-17", f"19:24:{_HUGE} PDT"),
        ("Jun-01-17", f"19:24:{'9' * 40}"),
    ],
)
def test_a_part_too_large_for_a_datetime_is_a_parse_error(date_text, time_text):
    # datetime raises OverflowError, not ValueError, past a C int.
    with pytest.raises(ParseError):
        merge_datetime(date_text, time_text)
    with pytest.raises(ParseError):
        countdown_parser(REFERENCE_EPOCH)(date_text, time_text)


@pytest.mark.parametrize(
    "text, expected",
    [
        ("650.50 $", "650.50"),
        ("US $1,299.99", "1299.99"),
        ("1299", "1299.00"),
        ("0.05 $", "0.05"),
        ("EUR 7,000", "7000.00"),
        ("3.999", "4.00"),   # round half up on the third digit
        ("3.994", "3.99"),
        ("3.995", "4.00"),
        # No digit before the point.
        ("$.50", "0.50"),
        (".99 $", "0.99"),
        ("US $.5", "0.50"),
    ],
)
def test_parse_money(text, expected):
    assert parse_money(text) == Decimal(expected)
    assert str(parse_money(text)) == expected


@pytest.mark.parametrize(
    "text",
    ["", "free", "$", "12 to 34", "1.2.3", "1.2.3 4", "-20.00 $", "US $-5.00", "-.50 $"],
)
def test_parse_money_rejects(text):
    with pytest.raises(ParseError):
        parse_money(text)


def test_duration_days_to_seconds():
    assert duration_days_to_seconds(5) == 432_000
    assert duration_days_to_seconds(1) == 86_400
    assert duration_days_to_seconds(10) == 864_000
    with pytest.raises(ParseError):
        duration_days_to_seconds(0)
    with pytest.raises(ParseError):
        duration_days_to_seconds(-3)


def test_duration_days_warns_on_unusual_values(caplog):
    with caplog.at_level(logging.WARNING):
        assert duration_days_to_seconds(4) == 4 * 86_400
    assert any("4" in r.message for r in caplog.records)


def test_countdown_reference_value():
    event = datetime(2017, 6, 24, 20, 11, 19)
    assert to_countdown_seconds(event, REFERENCE_EPOCH) == 1_050_521
    assert to_countdown_seconds(event, REFERENCE_EPOCH) == _oracle.countdown(
        event, REFERENCE_EPOCH
    )


def test_countdown_orders_later_events_smaller():
    earlier = datetime(2017, 6, 1, 0, 0, 0)
    later = datetime(2017, 6, 2, 0, 0, 0)
    assert to_countdown_seconds(later, REFERENCE_EPOCH) < to_countdown_seconds(
        earlier, REFERENCE_EPOCH
    )
    assert to_countdown_seconds(REFERENCE_EPOCH, REFERENCE_EPOCH) == 0


def test_countdown_rejects_events_after_reference_and_subseconds():
    with pytest.raises(ParseError):
        to_countdown_seconds(datetime(2017, 7, 7, 0, 0, 1), REFERENCE_EPOCH)
    with pytest.raises(ParseError):
        to_countdown_seconds(datetime(2017, 6, 1, 0, 0, 0, 500), REFERENCE_EPOCH)


@given(st.integers(min_value=0, max_value=10**7))
def test_countdown_matches_oracle_everywhere(offset):
    event = datetime.fromtimestamp(
        REFERENCE_EPOCH.timestamp() - offset
    )
    assert to_countdown_seconds(event, REFERENCE_EPOCH) == _oracle.countdown(
        event, REFERENCE_EPOCH
    )


# --- cached fast paths -----------------------------------------------------

def _outcome(call):
    """A call's value, or the type and text of what it raised."""
    try:
        value = call()
    except Exception as exc:  # compared, not swallowed
        return (type(exc).__name__, str(exc))
    # str() keeps a Decimal's scale: "20.5" and "20.50" must differ.
    return ("ok", str(value) if isinstance(value, Decimal) else value)


_PART = st.one_of(
    st.integers(min_value=-1, max_value=61).map(str),
    st.sampled_from(["", "x", "07", "+5", "1_0", "\u0665", "3.0"]),
)
_CLOCKS = st.one_of(
    st.builds(
        lambda h, m, s, zone: f"{h}:{m}:{s}{zone}",
        _PART,
        _PART,
        _PART,
        st.sampled_from(["", " PDT", " PST", "  PDT", "\tPDT", " X Y"]),
    ),
    st.sampled_from(["", "   ", "12:30", "12:30 PDT", "1:2:3:4", " 12:00:00"]),
    st.text(max_size=12),
)
_DATES = st.one_of(
    st.builds(
        lambda month, day, year: f"{month}-{day}-{year}",
        st.sampled_from(["Jan", "feb", "MAR", "Jun", " jul ", "Dec", "Foo", ""]),
        st.integers(min_value=0, max_value=32).map(lambda d: f"{d:02d}"),
        st.sampled_from(["16", "17", "18", "2017", "x7"]),
    ),
    st.sampled_from(["Feb-29-17", "Feb-29-16", "Jul-07-17", "Jul-08-17", "Jun-01", ""]),
    st.text(max_size=12),
)
_REFERENCES = st.sampled_from(
    [REFERENCE_EPOCH, datetime(2017, 6, 1, 12, 0, 0), datetime(2017, 7, 7, 0, 0, 0, 500)]
)


@given(_DATES, st.lists(_CLOCKS, min_size=1, max_size=4), _REFERENCES)
@example("Jun-01-17", ["24:00:00", "23:60:00", "23:59:60", "00:00:00"], REFERENCE_EPOCH)
@example("Jun-01-17", ["", "12:30", "ab:cd:ef", "12:x:00"], REFERENCE_EPOCH)
@example("Feb-29-17", ["12:00:00", "xx"], REFERENCE_EPOCH)
@example("Foo-01-17", ["12:00:00"], REFERENCE_EPOCH)
@example("Jun-01-17", ["19:24:55 PDT", "19:24:55 PST"], REFERENCE_EPOCH)
@example("Jul-07-17", ["00:00:00", "00:00:01 PDT"], REFERENCE_EPOCH)
@example("Jul-08-17", ["00:00:00"], REFERENCE_EPOCH)
def test_countdown_parser_matches_merge_then_countdown(date_text, time_texts, reference):
    parse = countdown_parser(reference)
    # The second pass over the same date text reads the cached midnight.
    for time_text in time_texts + time_texts:
        assert _outcome(lambda: parse(date_text, time_text)) == _outcome(
            lambda: to_countdown_seconds(merge_datetime(date_text, time_text), reference)
        ), (date_text, time_text)


_MONEY = st.one_of(
    st.sampled_from(
        ["650.50 $", "US $1,299.99", "1299", "3.995", "3.994", "", "free",
         "12 to 34", "1.2.3 4", "0.05 $", "EUR 7,000", "US $" + "9" * 30,
         "9" * 26 + ".99 $", "9" * 26 + ".995 $", "1" + "0" * 27]
    ),
    st.text(alphabet="0123456789.,$ US", max_size=10),
    st.text(max_size=8),
    # Magnitudes on both sides of the decimal context's 28 digits.
    st.integers(min_value=0, max_value=10**32).map(
        lambda n: f"{n // 1000}.{n % 1000:03d} $"
    ),
)


@given(st.lists(_MONEY, min_size=1, max_size=6))
def test_money_parser_matches_parse_money(texts):
    parse = money_parser()
    for text in texts + texts:
        expected = _outcome(lambda: parse_money(text))
        assert expected[0] in ("ok", "ParseError"), (text, expected)
        assert _outcome(lambda: parse(text)) == expected, text
        if expected[0] == "ok":
            assert parse(text) is parse(text)  # one shared Decimal per text


@pytest.mark.parametrize(
    "text",
    ["0.00 $", "007.50 $", "286.45 $", "9" * 20 + ".99 $", "9" * 21 + ".99 $",
     "286.45  $", "286.4 $", "286.455 $", "-286.45 $", "\u0663.45 $", "286.45 $ "],
)
def test_money_parser_reads_the_scrape_form_as_parse_money_does(text):
    expected = _outcome(lambda: parse_money(text))
    parse = money_parser()
    assert _outcome(lambda: parse(text)) == expected
    if expected[0] == "ok":
        assert parse(text).as_tuple() == parse_money(text).as_tuple()


_CELLS = st.one_of(
    st.sampled_from(
        ["20.50", "20.5", "20", "20.001", "1e2", "NaN", "-Infinity", " 3.00",
         "abc", "", "-0.00", "\u0663.00", "1e30", "-1E+26", "9" * 26 + ".99",
         "1e999999999999999999", "1e-30", "sNaN"]
    ),
    st.text(alphabet="0123456789.-e", max_size=6),
    # Magnitudes and exponents on both sides of the decimal context's 28 digits.
    st.builds(
        "{}e{}".format,
        st.integers(min_value=-10**6, max_value=10**6),
        st.integers(min_value=-40, max_value=40),
    ),
    st.integers(min_value=0, max_value=10**30).map(
        lambda n: f"{n // 100}.{n % 100:02d}"
    ),
)


@given(st.lists(_CELLS, min_size=1, max_size=4))
def test_read_preprocessed_money_cells_match_parse_cents(texts):
    # Row 1 opens the auction; each later row shares its auction-level
    # cells, so bid_rows parses only its bid cells, amounts through its
    # cache. read_preprocessed parses every cell of every row.
    first = ["1", "1", "s1", "alice", "18.00", "150000", "2", "3",
             "5.00", "20.00", "432000", "532000", "100000"]
    rows = [first] + [
        [str(n), "1", "s1", f"b{n}", text] + first[5:]
        for n, text in enumerate(texts + texts, 2)
    ]
    with tempfile.TemporaryDirectory() as tmp:
        path = Path(tmp) / "clean.csv"
        with open(path, "w", encoding="utf-8", newline="") as fh:
            writer = csv.writer(fh, lineterminator="\n")
            writer.writerow(PREPROCESSED_COLUMNS)
            writer.writerows(rows)

        def reference():
            return [
                str(_parse_cents(row[4], "bid_amount", f"{path}:row {n}"))
                for n, row in enumerate(rows, 1)
            ]

        expected = _outcome(reference)
        assert expected[0] in ("ok", "ParseError"), expected
        actual = _outcome(lambda: [str(r.bid_amount) for r in read_preprocessed(path)])
        assert actual == expected
        assert _outcome(
            lambda: [str(bid[1]) for _, bid in bid_rows(path)]
        ) == expected
        if expected[0] == "ok":
            streamed = list(bid_rows(path))
            for (head, a), (_, b) in zip(streamed[1:], streamed[1 + len(texts):]):
                assert a[1] is b[1]  # one Decimal per amount text
                assert head is streamed[0][0]  # one head per auction


# --- record-list stages -----------------------------------------------------

def parsed_auction(key="u1", n_bids=5, seller="s1", **overrides):
    """An auction as the cleanse holds it: (head, times, amounts, bidders),
    head holding AuctionView's fields before its bid columns with key
    where the id goes."""
    times = [500_000 - i * 1000 for i in range(n_bids)]
    amounts = [Decimal(f"{10 + i}.00") for i in range(n_bids)]
    bidders = [f"b{i % 2}" for i in range(n_bids)]
    values = dict(
        seller_id=seller,
        start_time_sec=600_000,
        end_time_sec=600_000 - 5 * 86400 + 0,
        auction_duration_sec=5 * 86400,
        starting_price=Decimal("5.00"),
        winning_bid=Decimal(f"{10 + n_bids - 1}.00"),
        num_bids=n_bids,
        num_bidders=2,
    )
    assert set(overrides) <= set(values)
    values.update(overrides)
    names = [f.name for f in fields(AuctionView)][1:-4]
    return (key, *(values[name] for name in names)), times, amounts, bidders


def set_bids(auction, start, bids):
    """Overwrite a parsed_auction's bids from position start with
    (time, amount, bidder) triples."""
    for column, values in zip(auction[1:], zip(*bids)):
        column[start:start + len(bids)] = values


def test_parsed_auction_helper_is_consistent():
    (key, *level), times, amounts, bidders = parsed_auction()
    view = AuctionView(1, *level, (), (), (), ())
    assert view.start_time_sec - view.end_time_sec == view.auction_duration_sec
    assert (view.num_bids, view.num_bidders) == (len(times), len(set(bidders)))


def test_assign_identifiers_reconciles_stored_counts():
    # The rows are the ground truth: a stored count that contradicts
    # them, on a thin auction too, is set to theirs and counted, and the
    # auction is judged with the fixed counts, so it is kept.
    both = parsed_auction(key="u1", num_bids=99, num_bidders=1)
    right = parsed_auction(key="u2")
    num_bids = parsed_auction(key="u3", num_bids=4)
    num_bidders = parsed_auction(key="u4", num_bidders=3)
    thin_one = parsed_auction(key="u5", n_bids=4, num_bids=5)
    views, thin, inconsistent, contradictory, bids_fixed, bidders_fixed = assign_identifiers(
        [both, right, num_bids, num_bidders, thin_one], 5
    )
    assert (bids_fixed, bidders_fixed) == (3, 2)
    assert [(v.num_bids, v.num_bidders) for v in views] == [(5, 2)] * 4
    assert thin == [thin_one]
    assert inconsistent == contradictory == []
    check_dataset(views)


def test_filter_low_activity_boundary():
    four = parsed_auction(key="u1", n_bids=4)
    five = parsed_auction(key="u2", n_bids=5)
    views, thin, inconsistent, contradictory, _, _ = assign_identifiers([four, five], 5)
    assert [v.num_bids for v in views] == [5]
    assert thin == [four]
    assert inconsistent == contradictory == []


def test_filter_inconsistent_is_strict():
    ok = parsed_auction(key="u1")
    start_high = parsed_auction(key="u2", starting_price=Decimal("14.01"))
    last_high = parsed_auction(key="u3", winning_bid=Decimal("13.99"))
    boundary = parsed_auction(
        key="u4", starting_price=Decimal("14.00")
    )  # equal start and winning price stays
    views, thin, inconsistent, contradictory, _, _ = assign_identifiers(
        [ok, start_high, last_high, boundary], 5
    )
    assert [v.starting_price for v in views] == [Decimal("5.00"), Decimal("14.00")]
    assert [head[0] for head, *_ in inconsistent] == ["u2", "u3"]
    assert thin == contradictory == []


def test_an_inconsistent_price_is_filed_before_a_blank_seller():
    # model.auction_fault names the inconsistent-price rule before any
    # other rule of the view, so the paper's rule files the auction.
    both = parsed_auction(seller=" ", winning_bid=Decimal("13.99"))
    views, thin, inconsistent, contradictory, _, _ = assign_identifiers([both], 5)
    assert inconsistent == [both]
    assert views == thin == contradictory == []


def test_filter_contradictory_drops_each_broken_rule_at_its_boundary():
    end = 600_000 - 5 * 86400

    def auction(key, amount="12.00", time=500_000, **fields):
        # Each kept auction's seller is its key, so its view names it.
        fields.setdefault("seller", key)
        made = parsed_auction(key=key, **fields)
        set_bids(made, 2, [(time, Decimal(amount), "b0")])
        return made

    # Prices of zero break only the positive-winning rule.
    zero = auction("zero", amount="0.00", winning_bid=Decimal("0.00"),
                   starting_price=Decimal("0.00"))
    zero[2][:] = [Decimal("0.00")] * len(zero[2])
    kept_ones = [
        auction("ok"),
        auction("at-winning", amount="14.00"),
        auction("at-start", time=600_000),
        auction("at-end", time=end),
        auction("free-start", starting_price=Decimal("0.00")),
    ]
    removed_ones = [
        auction("above-winning", amount="14.01"),
        auction("before-start", time=600_001),
        auction("after-end", time=end - 1),
        auction("blank-seller", seller=" "),
        auction("empty-seller", seller=""),
        auction("duration", auction_duration_sec=3 * 86400),
        zero,
        # Rules a parsed scrape cannot break, but a bid table can.
        auction("negative-start", starting_price=Decimal("-1.00")),
        auction("start-scale", starting_price=Decimal("5.0")),
    ]
    views, thin, inconsistent, contradictory, _, _ = assign_identifiers(
        kept_ones + removed_ones, 5
    )
    # Every auction starts in the same second, so the walk goes by key.
    assert [v.seller_id for v in views] == sorted(head[0] for head, *_ in kept_ones)
    assert [head[0] for head, *_ in contradictory] == sorted(
        head[0] for head, *_ in removed_ones
    )
    assert thin == inconsistent == []


def test_assign_identifiers_orders_and_numbers_densely():
    older = parsed_auction(key="zzz", start_time_sec=700_000,
                           end_time_sec=700_000 - 5 * 86400)
    newer = parsed_auction(key="aaa")
    views, *dropped = assign_identifiers([newer, older], 5)
    assert dropped == [[], [], [], 0, 0]
    records = records_of(views)
    # Larger start countdown = older start, so "zzz" comes first.
    assert [r.auction_id for r in records] == [1] * 5 + [2] * 5
    assert [r.record_id for r in records] == list(range(1, 11))
    assert views[0].start_time_sec == 700_000
    check_dataset(views)
    assert validate_dataset(records) == views
    by_key = {records[0].seller_id}
    assert by_key == {"s1"}


def test_assign_identifiers_breaks_start_ties_by_key():
    a = parsed_auction(key="b")
    b = parsed_auction(key="a")
    views, *_ = assign_identifiers([a, b], 5)
    records = records_of(views)
    first_auction_rows = [r for r in records if r.auction_id == 1]
    assert len(first_auction_rows) == 5
    # Same start second: the lexically smaller key gets the smaller id.
    assert records[0].auction_id == 1


def test_a_dropped_auction_takes_no_identifier():
    def starting(key, start, **fields):
        return parsed_auction(key=key, start_time_sec=start,
                              end_time_sec=start - 5 * 86400, **fields)

    first = starting("u1", 700_000)
    broken = starting("u2", 650_000, seller=" ")
    last = starting("u3", 600_000)
    views, thin, inconsistent, contradictory, _, _ = assign_identifiers(
        [last, broken, first], 5
    )
    assert contradictory == [broken]
    assert [v.auction_id for v in views] == [1, 2]
    assert [v.start_time_sec for v in views] == [700_000, 600_000]
    records = records_of(views)
    assert [r.record_id for r in records] == list(range(1, 11))
    check_dataset(views)


def test_the_higher_of_two_last_second_bids_decides_inconsistency():
    # Both bids fall in the last second; listed first, the one above the
    # winning price 14.00 is still the chronologically last once sorted.
    same_second = parsed_auction()
    set_bids(same_second, 3, [(496_000, Decimal("14.50"), "b0"), (496_000, Decimal("13.00"), "b1")])
    # One second earlier, it is not the last bid and breaks only the
    # bid-at-most-winning rule.
    earlier = parsed_auction(key="u2")
    set_bids(earlier, 3, [(496_001, Decimal("14.50"), "b0"), (496_000, Decimal("13.00"), "b1")])
    views, thin, inconsistent, contradictory, _, _ = assign_identifiers(
        [same_second, earlier], 5
    )
    assert inconsistent == [same_second]
    assert contradictory == [earlier]
    assert views == thin == []


def test_equal_bids_are_numbered_in_bidder_order():
    auction = parsed_auction()
    set_bids(auction, 3, [(496_000, Decimal("13.00"), "b1"), (496_000, Decimal("13.00"), "b0")])
    views, *_ = assign_identifiers([auction], 5)
    assert list(zip(views[0].bidder_ids[3:], views[0].record_ids[3:])) == [("b0", 4), ("b1", 5)]


# --- full pipeline over dict rows ------------------------------------------

def raw_row(
    url="https://x.example/itm/1",
    seller="s1",
    bidder="alice",
    amount="20.00 $",
    bid_date="Jun-02-17",
    bid_time="08:20:50 PDT",
    start_date="Jun-01-17",
    start_time="19:24:55 PDT",
    end_date="Jun-06-17",
    end_time="19:24:55 PDT",
    duration="5",
    starting_price="5.00 $",
    winning="30.00 $",
    num_bids="1",
    num_bidders="1",
    junk="filler",
):
    s = DEFAULT_RAW_SCHEMA
    return {
        s["auction_url"]: url,
        s["seller_id"]: seller,
        s["bidder_id"]: bidder,
        s["bid_amount"]: amount,
        s["bid_date"]: bid_date,
        s["bid_time"]: bid_time,
        s["start_date"]: start_date,
        s["start_time"]: start_time,
        s["end_date"]: end_date,
        s["end_time"]: end_time,
        s["duration_days"]: duration,
        s["starting_price"]: starting_price,
        s["winning_price"]: winning,
        s["num_bids"]: num_bids,
        s["num_bidders"]: num_bidders,
        "Irrelevant": junk,
    }


def five_bid_auction(
    url="https://x.example/itm/1", seller="s1", base_amount=20, winning="30.00 $"
):
    rows = []
    for i in range(5):
        rows.append(
            raw_row(
                url=url,
                seller=seller,
                bidder=f"bidder{i % 3}",
                amount=f"{base_amount + i}.00 $",
                bid_time=f"08:2{i}:50 PDT",
                winning=winning,
            )
        )
    return rows


def test_run_pipeline_happy_path():
    auctions, report = run_pipeline(five_bid_auction())
    records = records_of(auctions)
    assert len(records) == 5
    assert validate_dataset(records) == auctions
    (view,) = auctions
    assert view.num_bids == 5
    assert view.num_bidders == 3
    assert view.auction_duration_sec == 432_000
    assert view.start_time_sec - view.end_time_sec == 432_000
    assert report.after.records == 5
    assert report.irrelevant_columns_dropped == 1
    assert report.before.attributes == 16


def test_run_pipeline_counts_duplicates_and_blanks():
    rows = five_bid_auction()
    rows.insert(2, dict(rows[1]))          # exact duplicate
    rows.append(raw_row(bidder="", amount="26.00 $", bid_time="09:00:00 PDT"))
    auctions, report = run_pipeline(rows)
    records = records_of(auctions)
    assert report.duplicate_records_removed == 1
    assert report.missing_bidder_rows_removed == 1
    assert len(records) == 5
    assert report.before.records == 7
    assert report.after.records == 5


def test_run_pipeline_dedups_a_bid_cell_holding_the_key_separator():
    rows = five_bid_auction()
    rows[0][DEFAULT_RAW_SCHEMA["bidder_id"]] = "x\x1fy"
    # Joined with the separator, this row's cells read as rows[0]'s.
    shifted = dict(rows[0])
    shifted[DEFAULT_RAW_SCHEMA["bidder_id"]] = "x"
    shifted[DEFAULT_RAW_SCHEMA["bid_amount"]] = "y\x1f" + rows[0][DEFAULT_RAW_SCHEMA["bid_amount"]]
    rows += [shifted, dict(rows[0])]
    auctions, report = run_pipeline(rows)
    assert report.duplicate_records_removed == 1
    assert report.after.records == 6
    assert set(auctions[0].bidder_ids) >= {"x", "x\x1fy"}


@pytest.mark.parametrize("copy_at", [1, 3, 6])
def test_run_pipeline_rejects_a_copy_with_one_other_auction_cell(copy_at):
    # The copy repeats row 1's bid cells exactly; only its winning
    # price differs, so it is no duplicate but a disagreement.
    rows = five_bid_auction() + five_bid_auction(url="https://x.example/itm/2")
    copy = dict(rows[1])
    copy[DEFAULT_RAW_SCHEMA["winning_price"]] = "31.00 $"
    rows.insert(copy_at, copy)
    with pytest.raises(DataConsistencyError):
        run_pipeline(rows)
    base = list(typed_base())
    copy = replace(base[1], record_id=len(base) + 1, num_bids=6)
    with pytest.raises(DataConsistencyError):
        run_pipeline_records(base[:copy_at] + [copy] + base[copy_at:])


def test_run_pipeline_groups_from_the_first_row_with_a_bidder():
    # A blank-bidder first row whose auction cells differ from the rest
    # is dropped; the group and its check follow the first kept row.
    rows = five_bid_auction()
    blank = raw_row(bidder="", winning="31.00 $")
    plain, plain_report = run_pipeline(rows)
    auctions, report = run_pipeline([blank, *rows, dict(blank)])
    assert auctions == plain
    assert report.missing_bidder_rows_removed == 1
    assert report.duplicate_records_removed == 1
    # A bidder's row with the blank row's cells disagrees with the group.
    late = raw_row(bidder="zed", winning="31.00 $")
    with pytest.raises(DataConsistencyError):
        run_pipeline([blank, *rows, late])


def test_run_pipeline_drops_thin_and_inconsistent_auctions():
    rows = five_bid_auction()
    rows += five_bid_auction(url="https://x.example/itm/2", seller="s2")[:3]
    bad = five_bid_auction(url="https://x.example/itm/3", seller="s3")
    for row in bad:
        row[DEFAULT_RAW_SCHEMA["starting_price"]] = "44.00 $"
    rows += bad
    auctions, report = run_pipeline(rows)
    assert report.low_bid_auctions_removed == 1
    assert report.low_bid_rows_removed == 3
    assert report.inconsistent_auctions_removed == 1
    assert report.inconsistent_rows_removed == 5
    assert [view.auction_id for view in auctions] == [1]


def test_run_pipeline_counts_vanished_auctions_as_low_bid():
    rows = five_bid_auction()
    rows.append(raw_row(url="https://x.example/itm/9", bidder=""))
    _, report = run_pipeline(rows)
    assert report.missing_bidder_rows_removed == 1
    # The blank-bidder auction lost its only row before grouping.
    assert report.low_bid_auctions_removed == 1
    assert report.before.auctions == 2
    assert report.after.auctions == 1


def test_run_pipeline_rejects_auction_level_disagreement():
    rows = five_bid_auction()
    rows[3][DEFAULT_RAW_SCHEMA["winning_price"]] = "31.00 $"
    with pytest.raises(DataConsistencyError):
        run_pipeline(rows)


def test_run_pipeline_price_floor_is_counted_separately():
    rows = five_bid_auction()  # winning price 30.00
    config = PipelineConfig(min_winning_price=Decimal("30.00"))
    auctions, report = run_pipeline(rows, config)
    assert auctions == []
    assert report.price_filtered_rows == 5
    assert report.before.records == 0

    config = PipelineConfig(min_winning_price=Decimal("29.99"))
    auctions, report = run_pipeline(rows, config)
    assert len(records_of(auctions)) == 5
    assert report.price_filtered_rows == 0


def test_run_pipeline_missing_column_is_schema_error():
    rows = [{"Bidder ID": "x"}]
    with pytest.raises(SchemaError):
        run_pipeline(rows)


def test_run_pipeline_is_permutation_invariant():
    corpus = (
        five_bid_auction()
        + five_bid_auction(
            url="https://x.example/itm/2", seller="s2", base_amount=40, winning="50.00 $"
        )
        + five_bid_auction(url="https://x.example/itm/3", seller="s1", base_amount=9)
    )
    base_auctions, base_report = run_pipeline(list(corpus))
    assert base_report.after.auctions == 3
    rng = random.Random(5)
    for _ in range(5):
        shuffled = list(corpus)
        rng.shuffle(shuffled)
        auctions, report = run_pipeline(shuffled)
        assert auctions == base_auctions
        assert report == base_report


def test_run_pipeline_records_is_idempotent():
    corpus = (
        five_bid_auction()
        + five_bid_auction(
            url="https://x.example/itm/2", seller="s2", base_amount=40, winning="50.00 $"
        )
    )
    once, first = run_pipeline(corpus)
    assert first.after.auctions == 2
    twice, report = run_pipeline_records(records_of(once))
    assert twice == once
    removed = report.to_dict()["removed"]
    assert all(
        count == 0 for name, count in removed.items()
        if name != "irrelevant_columns_dropped"
    )
    assert report.num_bids_reconciled == 0
    assert report.num_bidders_reconciled == 0


# --- re-cleansing typed records ---------------------------------------------

@functools.lru_cache(maxsize=None)
def typed_base():
    """The records of three clean auctions of five bids each, as
    run_pipeline emits them."""
    auctions, report = run_pipeline(
        five_bid_auction()
        + five_bid_auction(
            url="https://x.example/itm/2", seller="s2", base_amount=40, winning="50.00 $"
        )
        + five_bid_auction(url="https://x.example/itm/3", seller="s1", base_amount=9)
    )
    assert report.after.auctions == 3
    return tuple(records_of(auctions))


def in_auction(records, auction_id, **changes):
    return [
        replace(r, **changes) if r.auction_id == auction_id else r for r in records
    ]


def test_run_pipeline_records_ignores_record_id_when_deduplicating():
    base = list(typed_base())
    copy = replace(base[3], record_id=len(base) + 1)
    auctions, report = run_pipeline_records(base + [copy])
    assert report.duplicate_records_removed == 1
    assert report.before.records == len(base) + 1
    assert records_of(auctions) == base


def test_run_pipeline_records_drops_blank_bidder():
    base = list(typed_base())
    blank = replace(
        base[0],
        record_id=len(base) + 1,
        bidder_id=" ",
        bid_submit_time_sec=base[0].bid_submit_time_sec - 1,
    )
    auctions, report = run_pipeline_records(base + [blank])
    assert report.missing_bidder_rows_removed == 1
    assert report.duplicate_records_removed == 0
    assert report.before.bidder_ids == report.after.bidder_ids
    assert records_of(auctions) == base


def test_run_pipeline_records_drops_thin_auction():
    base = list(typed_base())
    assert [r.auction_id for r in base[5:10]] == [2] * 5
    auctions, report = run_pipeline_records(base[:5] + base[6:])
    assert report.low_bid_auctions_removed == 1
    assert report.low_bid_rows_removed == 4
    assert report.after.auctions == 2
    assert len(records_of(auctions)) == 10


def test_run_pipeline_records_drops_inconsistent_auction():
    base = list(typed_base())
    # Auction 1's bids run 20.00..24.00, so its last bid beats 23.00.
    assert max(r.bid_amount for r in base if r.auction_id == 1) == Decimal("24.00")
    auctions, report = run_pipeline_records(
        in_auction(base, 1, winning_bid=Decimal("23.00"))
    )
    assert report.inconsistent_auctions_removed == 1
    assert report.inconsistent_rows_removed == 5
    assert report.after.auctions == 2
    assert len(records_of(auctions)) == 10


def test_run_pipeline_records_price_floor_is_counted_separately():
    base = list(typed_base())
    assert sorted({r.winning_bid for r in base}) == [Decimal("30.00"), Decimal("50.00")]
    config = PipelineConfig(min_winning_price=Decimal("30.00"))
    auctions, report = run_pipeline_records(base, config)
    assert report.price_filtered_rows == 10
    assert report.before.records == 5
    assert report.before.auctions == 1
    assert {r.winning_bid for r in records_of(auctions)} == {Decimal("50.00")}


def test_run_pipeline_records_reconciles_stale_counts():
    base = list(typed_base())
    auctions, report = run_pipeline_records(in_auction(base, 2, num_bids=7, num_bidders=9))
    assert report.num_bids_reconciled == 1
    assert report.num_bidders_reconciled == 1
    assert records_of(auctions) == base


def test_run_pipeline_records_reports_bid_table_shape():
    _, report = run_pipeline_records(typed_base())
    assert report.before.attributes == 13
    assert report.irrelevant_columns_dropped == 0


def test_run_pipeline_records_rejects_auction_level_disagreement(tmp_path, capsys):
    base = list(typed_base())
    base[1] = replace(base[1], winning_bid=Decimal("31.00"))
    assert base[1].auction_id == base[0].auction_id
    with pytest.raises(DataConsistencyError):
        run_pipeline_records(base)

    clean = tmp_path / "clean.csv"
    write_preprocessed(run_pipeline_records(typed_base())[0], clean)
    lines = clean.read_text(encoding="utf-8").splitlines()
    cells = lines[2].split(",")
    assert cells[1] == lines[1].split(",")[1]  # same auction as row 1
    cells[9] = "99999.00"  # winning_bid
    lines[2] = ",".join(cells)
    clean.write_text("\n".join(lines) + "\n", encoding="utf-8")
    out = tmp_path / "again.csv"
    assert cli_main(["preprocess", "--in", str(clean), "--out", str(out)]) == 2
    assert "disagree" in capsys.readouterr().err
    assert not out.exists()


@given(
    st.randoms(use_true_random=False),
    st.lists(st.integers(min_value=0, max_value=14), max_size=12),
)
def test_run_pipeline_records_ignores_order_and_copies(rng, picks):
    base = list(typed_base())
    plain_auctions, plain_report = run_pipeline_records(base)
    copies = [
        replace(base[i], record_id=len(base) + n) for n, i in enumerate(picks, 1)
    ]
    mixed = base + copies
    rng.shuffle(mixed)
    auctions, report = run_pipeline_records(mixed)
    assert auctions == plain_auctions
    # Copies are counted among the rows seen, then removed as duplicates.
    assert report == replace(
        plain_report,
        duplicate_records_removed=len(picks),
        before=replace(
            plain_report.before, records=plain_report.before.records + len(picks)
        ),
    )


@given(
    st.randoms(use_true_random=False),
    st.lists(st.integers(min_value=0, max_value=14), max_size=12),
)
def test_run_pipeline_ignores_order_and_copies(rng, picks):
    base = (
        five_bid_auction()
        + five_bid_auction(
            url="https://x.example/itm/2", seller="s2", base_amount=40, winning="50.00 $"
        )
        + five_bid_auction(url="https://x.example/itm/3", seller="s1", base_amount=9)
    )
    plain_auctions, plain_report = run_pipeline(base)
    mixed = base + [dict(base[i]) for i in picks]
    rng.shuffle(mixed)
    auctions, report = run_pipeline(mixed)
    assert auctions == plain_auctions
    assert report == replace(
        plain_report,
        duplicate_records_removed=len(picks),
        before=replace(
            plain_report.before, records=plain_report.before.records + len(picks)
        ),
    )


def test_pipeline_config_validation():
    with pytest.raises(ConfigError):
        PipelineConfig(min_bids=0).validate()
    with pytest.raises(ConfigError):
        PipelineConfig(schema={"bidder_id": "Bidder ID"}).validate()
    with pytest.raises(ConfigError):
        PipelineConfig(
            reference_epoch=datetime(2017, 7, 7, 0, 0, 0, 1)
        ).validate()
    PipelineConfig().validate()


@pytest.mark.parametrize("text", ["nan", "snan", "inf", "-inf"])
def test_preprocess_rejects_a_non_finite_price_floor(tmp_path, capsys, text):
    corpus = tmp_path / "corpus.csv"
    write_corpus(SynthConfig(seed=3, num_auctions=20), corpus)
    out = tmp_path / "clean.csv"
    argv = ["preprocess", "--in", str(corpus), "--out", str(out)]
    # "=" keeps argparse from reading "-inf" as an option.
    assert cli_main(argv + [f"--min-winning-price={text}"]) == 2
    assert "min_winning_price must be a finite amount" in capsys.readouterr().err
    assert [p.name for p in tmp_path.iterdir()] == ["corpus.csv"]
    with pytest.raises(ConfigError, match="finite"):
        PipelineConfig(min_winning_price=Decimal(text)).validate()


def test_custom_epoch_shifts_all_times_equally():
    rows = five_bid_auction()
    default_auctions, _ = run_pipeline(rows)
    late = PipelineConfig(reference_epoch=datetime(2017, 7, 8))
    shifted_auctions, _ = run_pipeline(rows, late)
    for a, b in zip(records_of(default_auctions), records_of(shifted_auctions)):
        assert b.bid_submit_time_sec - a.bid_submit_time_sec == 86400
        assert b.start_time_sec - a.start_time_sec == 86400
        assert b.end_time_sec - a.end_time_sec == 86400
        assert b.auction_duration_sec == a.auction_duration_sec


def test_run_pipeline_peak_memory_per_raw_row(tmp_path):
    # The criterion-10 corpus shape at 300 auctions. The row pass holds
    # one duplicate key per distinct row, so its peak grows with the
    # rows; this bound (about 530 bytes a row measured) fails a pass
    # that keys each row by its whole text (about 680).
    raw = tmp_path / "raw.csv"
    rows, _ = write_corpus(
        SynthConfig(
            seed=5,
            num_auctions=300,
            duplicate_row_rate=0.02,
            missing_bidder_rate=0.02,
            thin_auction_rate=0.02,
            inconsistent_auction_rate=0.02,
        ),
        raw,
    )
    config = PipelineConfig()
    tracemalloc.start()
    try:
        run_pipeline(RawScanner(raw, config.schema), config)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak / rows < 600, f"{peak / rows:.0f} bytes per raw row"
