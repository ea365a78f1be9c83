"""Core type behavior: grouping, winners, validation."""
import dataclasses
import itertools
import random
import re
import tempfile
from decimal import Decimal
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from shillbid.cli import main
from shillbid.errors import ConfigError, EmptyDatasetError, InvariantError
from shillbid.ingest import read_auctions, write_preprocessed
from shillbid.model import (
    DEFAULT_WEIGHTS,
    METRIC_COLUMNS,
    PREPROCESSED_COLUMNS,
    SB_COLUMNS,
    BidRecord,
    SBInstance,
    auction_fault,
    check_dataset,
    validate_dataset,
    validate_weights,
    winner_of,
)

from . import _oracle
from ._oracle import validate_bid_record
from .conftest import D, make_view, random_micro_corpus, records_of


def record(
    record_id=1,
    auction_id=1,
    seller_id="s1",
    bidder_id="alice",
    bid_amount="20.00",
    bid_submit_time_sec=150_000,
    num_bidders=1,
    num_bids=1,
    starting_price="5.00",
    winning_bid="20.00",
    auction_duration_sec=5 * 86400,
    start_time_sec=100_000 + 5 * 86400,
    end_time_sec=100_000,
) -> BidRecord:
    return BidRecord(
        record_id=record_id,
        auction_id=auction_id,
        seller_id=seller_id,
        bidder_id=bidder_id,
        bid_amount=D(bid_amount),
        bid_submit_time_sec=bid_submit_time_sec,
        num_bidders=num_bidders,
        num_bids=num_bids,
        starting_price=D(starting_price),
        winning_bid=D(winning_bid),
        auction_duration_sec=auction_duration_sec,
        start_time_sec=start_time_sec,
        end_time_sec=end_time_sec,
    )


# A view's bid columns, all empty.
NO_BIDS = dict(bid_times=(), bid_amounts=(), bidder_ids=(), record_ids=())


def edit_bid(view, j, **columns):
    """view with position j of each named bid column changed."""
    return dataclasses.replace(view, **{
        name: getattr(view, name)[:j] + (value,) + getattr(view, name)[j + 1:]
        for name, value in columns.items()
    })


def test_column_layouts():
    assert len(PREPROCESSED_COLUMNS) == 13
    assert SB_COLUMNS == ("auction_id", "bidder_id") + METRIC_COLUMNS
    assert len(METRIC_COLUMNS) == 8
    assert set(DEFAULT_WEIGHTS) == set(METRIC_COLUMNS)
    assert sum(DEFAULT_WEIGHTS.values()) == pytest.approx(4.0)


def test_winner_is_chronologically_last():
    view = make_view(
        [("a", "10.00", 400_000), ("b", "11.00", 300_000), ("c", "12.00", 200_000)]
    )
    assert winner_of(view).bidder_id == "c"


def test_winner_tie_in_same_second_goes_to_higher_amount():
    view = make_view([("a", "10.00", 200_000), ("b", "11.00", 200_000)])
    assert winner_of(view).bidder_id == "b"


def test_winner_of_empty_auction_raises():
    import dataclasses

    view = make_view([("a", "10.00", 200_000)])
    empty = dataclasses.replace(view, **NO_BIDS)
    with pytest.raises(EmptyDatasetError):
        winner_of(empty)


def test_validate_dataset_sorts_bids_canonically():
    records = [
        record(record_id=1, num_bids=3, num_bidders=2, bid_amount="6.00",
               bid_submit_time_sec=120_000, winning_bid="8.00"),
        record(record_id=2, num_bids=3, num_bidders=2, bidder_id="bob",
               bid_amount="8.00", bid_submit_time_sec=110_000, winning_bid="8.00"),
        record(record_id=3, num_bids=3, num_bidders=2, bid_amount="4.00",
               bid_submit_time_sec=130_000, winning_bid="8.00"),
    ]
    (view,) = validate_dataset(records)
    assert view.record_ids == (3, 1, 2)
    assert winner_of(view).bidder_id == "bob"


def test_validate_dataset_rejects_disagreeing_auction_fields():
    records = [
        record(record_id=1, num_bids=2, num_bidders=1, winning_bid="30.00"),
        record(record_id=2, num_bids=2, num_bidders=1, winning_bid="31.00",
               bid_amount="21.00"),
    ]
    with pytest.raises(InvariantError, match="disagree on winning_bid"):
        validate_dataset(records)


def test_validate_dataset_rejects_count_mismatch():
    records = [record(record_id=1, num_bids=2, num_bidders=1)]
    with pytest.raises(InvariantError, match="num_bids"):
        validate_dataset(records)
    records = [
        record(record_id=1, num_bids=2, num_bidders=2),
        record(record_id=2, num_bids=2, num_bidders=2, bid_amount="19.00"),
    ]
    with pytest.raises(InvariantError, match="num_bidders"):
        validate_dataset(records)


RECORD_VIOLATIONS = [
    ({"record_id": 0}, "record_id"),
    ({"auction_id": -1}, "auction_id"),
    ({"bidder_id": ""}, "bidder_id is blank"),
    ({"bidder_id": "   "}, "bidder_id is blank"),
    ({"seller_id": ""}, "seller_id is blank"),
    ({"num_bidders": 2, "num_bids": 1}, "counts out of order"),
    ({"num_bidders": 0}, "counts out of order"),
    ({"winning_bid": D("0.00"), "bid_amount": D("0.00"),
      "starting_price": D("0.00")}, "winning_bid"),
    ({"starting_price": "25.00"}, "starting_price"),
    ({"bid_amount": "25.00"}, "bid_amount"),
    ({"auction_duration_sec": 0}, "duration"),
    ({"start_time_sec": 100_000 + 86400}, "duration mismatch"),
    ({"bid_submit_time_sec": 99_999}, "outside auction window"),
    ({"bid_submit_time_sec": 100_000 + 5 * 86400 + 1}, "outside auction window"),
]


@pytest.mark.parametrize("kwargs, fragment", RECORD_VIOLATIONS)
def test_validate_bid_record_flags_each_violation(kwargs, fragment):
    messages = validate_bid_record(record(**kwargs))
    assert any(fragment in m for m in messages), messages


def two_row_auction(**second):
    """A valid two-bid auction whose second row shares the first row's
    auction-level objects, as pipeline output does, except for the
    fields given in second."""
    first = record(record_id=1, num_bids=2, num_bidders=2)
    for name in ("bid_amount", "starting_price", "winning_bid"):
        if isinstance(second.get(name), str):
            second[name] = D(second[name])
    base = {"record_id": 2, "bidder_id": "bob", "bid_amount": D("18.00")}
    return [first, dataclasses.replace(first, **{**base, **second})]


def test_validate_dataset_accepts_two_row_auction():
    rows = two_row_auction()
    assert rows[1].winning_bid is rows[0].winning_bid
    (view,) = validate_dataset(rows)
    assert sorted(view.bidder_ids) == ["alice", "bob"]


# A second row whose auction-level field differs from the first row's
# is named by the first such field: records that disagree are caught
# before any rule is judged on the auction's view. Keyed by the fields
# a case changes.
SECOND_ROW_FRAGMENTS = {
    ("seller_id",): "disagree on seller_id",
    ("num_bidders", "num_bids"): "disagree on num_bids",
    ("num_bidders",): "disagree on num_bidders",
    ("winning_bid", "bid_amount", "starting_price"): "disagree on starting_price",
    ("start_time_sec",): "disagree on start_time_sec",
}


@pytest.mark.parametrize("kwargs, fragment", RECORD_VIOLATIONS)
def test_validate_dataset_flags_each_violation_on_second_row(kwargs, fragment):
    # Auction-level rules run once per auction; a bad value on a later
    # row must still be caught.
    fragment = SECOND_ROW_FRAGMENTS.get(tuple(kwargs), fragment)
    with pytest.raises(InvariantError, match=re.escape(fragment)):
        validate_dataset(two_row_auction(**kwargs))


@pytest.mark.parametrize(
    "field, first_value, second_value",
    [
        ("winning_bid", "20.50", "20.5"),
        ("starting_price", "5.00", "5.0"),
        ("bid_amount", "18.00", "18.0"),
    ],
)
def test_validate_dataset_flags_scale_on_second_row(field, first_value, second_value):
    # Decimal("20.5") == Decimal("20.50") as numbers, but only the latter
    # serializes with two digits: a shortcut that compared the second
    # row's fields with the first row's by value would let it through.
    # Auction-level amounts are compared as text, so the records disagree.
    first = record(
        record_id=1, num_bids=2, num_bidders=2, winning_bid="20.50",
        bid_amount="18.00",
    )
    first = dataclasses.replace(first, **{field: D(first_value)})
    second = dataclasses.replace(
        first, record_id=2, bidder_id="bob", **{field: Decimal(second_value)}
    )
    assert getattr(second, field) == getattr(first, field)
    validate_dataset([first, dataclasses.replace(second, **{field: D(first_value)})])
    fragment = (
        f"{field} {second_value} is not a 2-digit" if field == "bid_amount"
        else f"records disagree on {field}"
    )
    with pytest.raises(InvariantError, match=fragment):
        validate_dataset([first, second])


def test_validate_bid_record_requires_two_decimal_digits():
    import dataclasses

    # Decimal("20.5") equals Decimal("20.50") numerically but would
    # serialize as "20.5"; the exponent check has to catch it.
    rec = dataclasses.replace(record(), bid_amount=Decimal("20.5"))
    assert any("2-digit" in m for m in validate_bid_record(rec))
    clean = record(bid_amount="20.50", winning_bid="20.50")
    assert validate_bid_record(clean) == []


def test_validate_bid_record_accepts_boundaries():
    rec = record(
        bid_submit_time_sec=100_000,  # exactly at the end instant
        starting_price="20.00",       # equal to winning bid
    )
    assert validate_bid_record(rec) == []
    rec = record(bid_submit_time_sec=100_000 + 5 * 86400)  # at the start
    assert validate_bid_record(rec) == []


def test_validate_dataset_accepts_good_data_and_rejects_gaps():
    good = [
        record(record_id=1, num_bids=2, num_bidders=2),
        record(record_id=2, num_bids=2, num_bidders=2, bidder_id="bob",
               bid_amount="18.00"),
    ]
    validate_dataset(good)

    gap = [good[0], record(record_id=3, num_bids=2, num_bidders=2,
                           bidder_id="bob", bid_amount="18.00")]
    with pytest.raises(InvariantError, match="dense"):
        validate_dataset(gap)


def test_validate_dataset_rejects_duplicate_record_ids():
    rows = [
        record(record_id=1, num_bids=2, num_bidders=2),
        record(record_id=1, num_bids=2, num_bidders=2, bidder_id="bob",
               bid_amount="18.00"),
    ]
    with pytest.raises(InvariantError, match="more than once"):
        validate_dataset(rows)


def test_validate_dataset_rejects_sparse_auction_ids():
    rows = [record(auction_id=2)]
    with pytest.raises(InvariantError, match="auction_id"):
        validate_dataset(rows)


def test_validate_dataset_empty_is_fine():
    validate_dataset([])


# --- check_dataset: one rule list against the oracle -------------------------

def check_outcome(call):
    """None, or the type and text of what call raised."""
    try:
        call()
    except Exception as exc:  # compared, not swallowed
        return (type(exc).__name__, str(exc))
    return None


def valid_views():
    """Three valid auctions, numbered as the pipeline numbers them."""
    return [
        make_view([("b0", "20.00", 500_000), ("b1", "21.00", 400_000), ("b0", "22.00", 300_000)],
                  starting_price="5.00", winning_bid="24.00"),
        make_view([("b2", "30.00", 450_000), ("b3", "31.00", 350_000), ("b2", "32.00", 250_000)],
                  auction_id=2, seller_id="s2", starting_price="7.00", first_record_id=4),
        make_view([("b1", "9.00", 120_000), ("b4", "9.50", 110_000)],
                  auction_id=3, end_sec=50_000, duration_sec=86_400, starting_price="1.00",
                  first_record_id=7),
    ]


def renumbered(views):
    """views with auction ids 1..N and record ids 1..M in order."""
    out, next_id = [], 1
    for auction_id, view in enumerate(views, 1):
        record_ids = tuple(range(next_id, next_id + len(view.record_ids)))
        out.append(dataclasses.replace(view, auction_id=auction_id, record_ids=record_ids))
        next_id += len(record_ids)
    return out


def second(**changes):
    """valid_views() with auction 2 changed."""
    views = valid_views()
    views[1] = dataclasses.replace(views[1], **changes)
    return views


def second_bid(index, **columns):
    """valid_views() with one bid of auction 2 changed."""
    views = valid_views()
    views[1] = edit_bid(views[1], index, **columns)
    return views


def second_as(specs, **kwargs):
    """valid_views() with auction 2 rebuilt from bid specs, renumbered."""
    views = valid_views()
    views[1] = make_view(specs, auction_id=2, **kwargs)
    return renumbered(views)


# One case per rule of auction_fault and of check_dataset's id rules; each
# breaks that clause alone. A scale break ("24.0") reads back from text
# as the valid two-digit amount, so it is checked in memory only.
PREDICATE_CASES = [
    ("seller-empty", second(seller_id=""), True),
    ("seller-space", second(seller_id=" "), True),
    ("starting-scale", second(starting_price=Decimal("7.0")), False),
    ("winning-scale", second(winning_bid=Decimal("32.0")), False),
    ("winning-positive", second_as(
        [("b2", "-1.00", 450_000), ("b3", "0.00", 350_000)],
        starting_price="0.00", winning_bid="0.00"), True),
    ("starting-negative", second(starting_price=D("-1.00")), True),
    ("starting-above-winning", second(starting_price=D("32.01")), True),
    ("duration-positive", second_as(
        [("b2", "30.00", 200_000), ("b3", "31.00", 200_000)],
        duration_sec=0, end_sec=200_000), True),
    ("duration-mismatch", second(start_time_sec=100_000 + 5 * 86400 + 1), True),
    ("end-negative", second_as(
        [("b2", "30.00", 300), ("b3", "31.00", 200)], end_sec=-10), True),
    ("num-bids", second(num_bids=4), True),
    ("empty-auction", renumbered(
        [valid_views()[0], second(**NO_BIDS, num_bids=0, num_bidders=0)[1], valid_views()[2]]
    ), True),
    ("bidder-empty", second_bid(1, bidder_ids=""), True),
    ("bidder-space", second_bid(1, bidder_ids=" "), True),
    ("amount-scale", second_bid(1, bid_amounts=Decimal("31.0")), False),
    ("amount-above-winning", second_bid(2, bid_amounts=D("32.01")), True),
    ("bid-before-window", second_bid(2, bid_times=99_999), True),
    ("bid-after-window", second_bid(0, bid_times=100_000 + 5 * 86400 + 1), True),
    ("num-bidders", second(num_bidders=1), True),
    ("auction-id-gap", [*valid_views()[:2], dataclasses.replace(valid_views()[2], auction_id=4)],
     True),
    ("record-id-gap", second_bid(2, record_ids=9), True),
    ("record-id-copy", second_bid(2, record_ids=5), True),
]


@pytest.mark.parametrize(
    "views, from_text", [case[1:] for case in PREDICATE_CASES],
    ids=[case[0] for case in PREDICATE_CASES],
)
def test_check_dataset_breaks_like_the_reference(tmp_path, views, from_text):
    assert _oracle.dataset_violations(records_of(views))
    expected = check_outcome(lambda: validate_dataset(records_of(views)))
    assert expected is not None and expected[0] == "InvariantError"
    outcome = check_outcome(lambda: check_dataset(views))
    if all(view.record_ids for view in views):
        assert outcome == expected
    else:
        # Records cannot hold an auction without bids: its id goes missing.
        assert outcome == ("InvariantError", "auction 2: count_order: counts out of order: "
                           "num_bidders=0 num_bids=0")
    if from_text:
        path = tmp_path / "clean.csv"
        write_preprocessed(views, path, validate=False)
        assert check_outcome(lambda: read_auctions(path)) == expected


def test_check_dataset_accepts_valid_views_off_the_pipeline_shape():
    views = valid_views()
    check_dataset(views)
    # Off the pipeline's shape, the reference decides, and accepts.
    check_dataset(views[::-1])
    check_dataset([dataclasses.replace(views[0], record_ids=(3, 1, 2)), *views[1:]])
    check_dataset([])


# One edit of valid_views()[1] per rule, in auction_fault's order; no
# two change the same field.
ORDERED_BREAKS = [
    ("scale", {"starting_price": Decimal("7.0")}),
    ("inconsistent_price", {"winning_bid": D("31.00")}),
    ("seller_blank", {"seller_id": " "}),
    ("duration_identity", {"start_time_sec": 100_000 + 5 * 86400 + 1}),
    ("bid_count", {"num_bids": 4}),
    ("bid_outside_window", {"bid_times": second_bid(2, bid_times=99_999)[1].bid_times}),
    ("bidder_count", {"num_bidders": 1}),
]


def test_auction_fault_names_the_earlier_of_two_broken_rules():
    view = valid_views()[1]
    assert auction_fault(view) is None
    for rule, edit in ORDERED_BREAKS:
        assert auction_fault(dataclasses.replace(view, **edit)).startswith(f"{rule}: ")
    for (rule, first), (_, later) in itertools.combinations(ORDERED_BREAKS, 2):
        both = dataclasses.replace(view, **first, **later)
        assert auction_fault(both).startswith(f"{rule}: ")
    assert auction_fault(dataclasses.replace(view, **ORDERED_BREAKS[0][1])) == (
        "scale: starting_price 7.0 is not a 2-digit fixed-point amount"
    )


_VIEW_EDITS = {
    "auction_id": [0, 2, 9],
    "seller_id": ["", " ", "s9"],
    "num_bidders": [0, 1, 2, 3, 7],
    "num_bids": [0, 1, 2, 6, 7],
    "starting_price": [D("-1.00"), D("0.00"), Decimal("5.0"), D("99.99"), Decimal("NaN")],
    "winning_bid": [D("0.00"), Decimal("50.0"), D("0.50"), D("99.99")],
    "auction_duration_sec": [0, -86_400, 86_400],
    "start_time_sec": [0, 1_000_000],
    "end_time_sec": [-1, 0, 500_000],
}
_BID_EDITS = {
    "bidder_ids": ["", " ", "p1", "p9"],
    "bid_amounts": [D("-1.00"), Decimal("20.5"), D("99.99"), Decimal("sNaN")],
    "bid_times": [-1, 0, 2_000_000],
    "record_ids": [0, 1, 2, 99],
}


@st.composite
def edited_corpora(draw):
    """A micro corpus with at most one field of one view or bid changed."""
    views = random_micro_corpus(
        random.Random(draw(st.integers(0, 10**6))), draw(st.integers(1, 5))
    )
    kind = draw(st.sampled_from(["none", "view", "bid"]))
    i = draw(st.integers(0, len(views) - 1))
    view = views[i]
    # A listed value, or the same field of another view or bid.
    if kind == "view":
        name = draw(st.sampled_from(sorted(_VIEW_EDITS)))
        value = draw(st.sampled_from(_VIEW_EDITS[name] + [getattr(v, name) for v in views]))
        views[i] = dataclasses.replace(view, **{name: value})
    elif kind == "bid":
        name = draw(st.sampled_from(sorted(_BID_EDITS)))
        values = [value for v in views for value in getattr(v, name)]
        value = draw(st.sampled_from(_BID_EDITS[name] + values))
        j = draw(st.integers(0, len(view.record_ids) - 1))
        views[i] = edit_bid(view, j, **{name: value})
    return views


@settings(max_examples=300)
@given(edited_corpora())
def test_check_dataset_raises_iff_the_reference_does(views):
    outcome = check_outcome(lambda: check_dataset(views))
    assert (outcome is not None) == bool(_oracle.dataset_violations(records_of(views)))
    assert outcome is None or outcome[0] == "InvariantError"


@settings(max_examples=500, deadline=None)
@given(edited_corpora())
def test_recleansing_an_edited_table_never_exits_3(views):
    # Whatever one edited field does to a bid table, preprocess cleans
    # it (dropping what breaks a rule) or refuses a cell it cannot
    # parse; its own self-check never fires. --min-bids 1 keeps the
    # micro corpus's short auctions from being dropped as thin first.
    with tempfile.TemporaryDirectory() as tmp:
        table = Path(tmp) / "table.csv"
        out = Path(tmp) / "clean.csv"
        write_preprocessed(views, table, validate=False)
        code = main(["preprocess", "--in", str(table), "--out", str(out), "--min-bids", "1"])
        assert code in (0, 2)
        if code == 0:
            read_auctions(out)


def test_validate_weights():
    validate_weights(dict(DEFAULT_WEIGHTS))
    with pytest.raises(ConfigError, match="unknown"):
        validate_weights({**DEFAULT_WEIGHTS, "bogus": 0.5})
    short = dict(DEFAULT_WEIGHTS)
    del short["early_bidding"]
    with pytest.raises(ConfigError, match="missing"):
        validate_weights(short)
    with pytest.raises(ConfigError, match="must be in"):
        validate_weights({**DEFAULT_WEIGHTS, "early_bidding": 0.0})
    with pytest.raises(ConfigError, match="must be in"):
        validate_weights({**DEFAULT_WEIGHTS, "early_bidding": 1.5})


def test_sb_instance_value_order_matches_columns():
    inst = SBInstance(1, "alice", 0.1, 0.2, 0.3, 0.4, 0.5, 0.0, 0.6, 0.7)
    assert inst.metric_values() == (0.1, 0.2, 0.3, 0.4, 0.5, 0.0, 0.6, 0.7)
    names = [f.name for f in dataclasses.fields(SBInstance)]
    assert names[names.index("bidder_id") + 1:] == list(METRIC_COLUMNS)

