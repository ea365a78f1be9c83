"""Core domain types: bid records, auction views, feature instances.

An AuctionView is the one in-memory shape of an auction: the pipeline
numbers and checks views, write_preprocessed writes them, read_auctions
reads them back. A view holds its bids as four column tuples, so no
layer keeps an object per bid; a Bid is built only as winner_of's
result. A BidRecord, one row of the bid table, is built only where a
table is read row by row. BidRecord and SBInstance, built in bulk, are
plain slotted dataclasses, mutable and unhashable, whose generated
__init__ stores each slot directly; a view and a Bid are frozen,
checked values. auction_views is the one grouping of a bid table's
(head, bid) rows into views, whether they come from ingest.bid_rows
or, through validate_dataset, from records. The bid table's rules are
written once: auction_fault names the first rule a view breaks,
check_ids holds the id rules, and check_dataset applies both.

Time is stored as countdown seconds: whole seconds remaining until a
fixed reference moment, so later events carry smaller values. All money
is fixed-point decimal with exactly two fractional digits.
"""
from __future__ import annotations

from dataclasses import dataclass
from decimal import Decimal
from itertools import pairwise
from operator import attrgetter
from typing import Iterable, Mapping, Sequence

from .errors import ConfigError, EmptyDatasetError, InvariantError

CENT = Decimal("0.01")

PREPROCESSED_COLUMNS = (
    "record_id",
    "auction_id",
    "seller_id",
    "bidder_id",
    "bid_amount",
    "bid_submit_time_sec",
    "num_bidders",
    "num_bids",
    "starting_price",
    "winning_bid",
    "auction_duration_sec",
    "start_time_sec",
    "end_time_sec",
)

METRIC_COLUMNS = (
    "bidder_tendency",
    "early_bidding",
    "bidding_ratio",
    "last_bidding",
    "auction_starting_price",
    "successive_outbidding",
    "winning_ratio",
    "auction_bids",
)

SB_COLUMNS = ("auction_id", "bidder_id") + METRIC_COLUMNS


DEFAULT_WEIGHTS: dict[str, float] = {
    "bidder_tendency": 0.5,
    "early_bidding": 0.3,
    "bidding_ratio": 0.7,
    "last_bidding": 0.5,
    "auction_starting_price": 0.3,
    "successive_outbidding": 0.7,
    "winning_ratio": 0.7,
    "auction_bids": 0.3,
}


@dataclass(slots=True)
class BidRecord:
    """One retained bid, flattened with its auction-level context."""

    record_id: int
    auction_id: int
    seller_id: str
    bidder_id: str
    bid_amount: Decimal
    bid_submit_time_sec: int
    num_bidders: int
    num_bids: int
    starting_price: Decimal
    winning_bid: Decimal
    auction_duration_sec: int
    start_time_sec: int
    end_time_sec: int


@dataclass(frozen=True, slots=True)
class Bid:
    """One bid of an auction view, as winner_of returns it."""

    bidder_id: str
    bid_amount: Decimal
    bid_submit_time_sec: int
    record_id: int


@dataclass(frozen=True, slots=True)
class AuctionView:
    """One auction with its bids as columns in canonical chronological order.

    Bid i is position i of bid_times, bid_amounts, bidder_ids and
    record_ids. Bids go by descending bid_submit_time_sec (earliest
    first, since time counts down), ties by ascending bid_amount, then
    record_id, so the last is the chronologically last, highest bid.
    """

    auction_id: int
    seller_id: str
    num_bidders: int
    num_bids: int
    starting_price: Decimal
    winning_bid: Decimal
    auction_duration_sec: int
    start_time_sec: int
    end_time_sec: int
    bid_times: tuple[int, ...]
    bid_amounts: tuple[Decimal, ...]
    bidder_ids: tuple[str, ...]
    record_ids: tuple[int, ...]


def winner_of(auction: AuctionView) -> Bid:
    """Return the winning bid: the chronologically last one.

    Two bids in the same second are settled by amount, so the higher
    amount wins the tie.
    """
    if not auction.bid_times:
        raise EmptyDatasetError(f"auction {auction.auction_id} has no bids")
    return Bid(auction.bidder_ids[-1], auction.bid_amounts[-1],
               auction.bid_times[-1], auction.record_ids[-1])


_AUCTION_LEVEL = (
    "seller_id",
    "num_bidders",
    "num_bids",
    "starting_price",
    "winning_bid",
    "auction_duration_sec",
    "start_time_sec",
    "end_time_sec",
)

# A BidRecord's head, its auction fields in AuctionView's field order,
# and its bid, as ingest.bid_rows yields them.
record_head = attrgetter("auction_id", *_AUCTION_LEVEL)
record_bid = attrgetter("bid_submit_time_sec", "bid_amount", "bidder_id", "record_id")


def auction_views(rows: Iterable[tuple[tuple, tuple]]) -> list[AuctionView]:
    """Check the (head, bid) rows of a bid table; return their views by auction id.

    head holds an AuctionView's fields before its bid columns, head[0]
    its auction id; bid is (bid_submit_time_sec, bid_amount, bidder_id,
    record_id). A head that is not its auction's first head object must
    agree with it on every auction-level field as text, so "-0.00" and
    "0.00" disagree, as do Decimal("20.5") and Decimal("20.50"). Once
    every row is read, InvariantError names the first field that the
    first such row of the lowest such auction id disagrees on; else the
    views must pass check_dataset.
    """
    # auction_id -> (first head, times, amounts, bidders, record ids)
    auctions: dict[int, tuple[tuple, list, list, list, list]] = {}
    # auction_id -> the field its first disagreeing row disagrees on
    disagree: dict[int, str] = {}
    current = None
    for head, (time, amount, bidder, record_id) in rows:
        if head is not current:
            current = head
            first, times, amounts, bidders, record_ids = auctions.setdefault(
                head[0], (head, [], [], [], [])
            )
            if first is not head and head[0] not in disagree:
                texts = zip(_AUCTION_LEVEL, map(str, first[1:]), map(str, head[1:]))
                name = next((name for name, a, b in texts if a != b), None)
                if name is not None:
                    disagree[head[0]] = name
        times.append(time)
        amounts.append(amount)
        bidders.append(bidder)
        record_ids.append(record_id)
    if disagree:
        auction_id = min(disagree)
        raise InvariantError(f"auction {auction_id}: records disagree on {disagree[auction_id]}")
    views = []
    for head, *columns in map(auctions.pop, sorted(auctions)):
        # Bids whose times strictly fall are in canonical order already;
        # else sort by (descending time, amount, record id).
        if columns[0] != sorted(set(columns[0]), reverse=True):
            columns = zip(*sorted(zip(*columns), key=lambda b: (-b[0], b[1], b[3])))
        views.append(AuctionView(*head, *map(tuple, columns)))
    check_dataset(views)
    return views


def validate_dataset(records: Iterable[BidRecord]) -> list[AuctionView]:
    """Check the records of a bid table; return their views by auction id.

    auction_views of each record's head and bid, so the records of one
    auction must agree on every auction-level field, amounts as text.
    """
    return auction_views((record_head(r), record_bid(r)) for r in records)


# The paper's inconsistent-price rule: the chronologically last bid, or
# the starting price, above the winning bid. preprocess files an auction
# that breaks it as inconsistent, and one that breaks any other rule as
# contradictory.
INCONSISTENT_PRICE = "inconsistent_price"


def auction_fault(view: AuctionView) -> str | None:
    """The first rule of the bid table a view breaks, as "<rule>: <detail>".

    None when it breaks none; the id rules are check_dataset's. The
    rules run in one fixed order: the scale of every amount, so a
    non-finite amount is never compared; then INCONSISTENT_PRICE;
    then the auction's fields and stored counts; then each bid in order;
    last the count of distinct bidders.
    """
    seller = view.seller_id
    starting = view.starting_price
    winning = view.winning_bid
    duration = view.auction_duration_sec
    start = view.start_time_sec
    end = view.end_time_sec
    times, amounts, bidders = view.bid_times, view.bid_amounts, view.bidder_ids
    # Compare exponents, not values: Decimal("650.5") == Decimal("650.50")
    # numerically, but only the latter serializes with two digits.
    # same_quantum is False for every non-finite value.
    if not (
        starting.same_quantum(CENT) and winning.same_quantum(CENT)
        and all(map(CENT.same_quantum, amounts))
    ):
        named = [("starting_price", starting), ("winning_bid", winning)]
        named += [("bid_amount", amount) for amount in amounts]
        name, amount = next(pair for pair in named if not pair[1].same_quantum(CENT))
        return f"scale: {name} {amount} is not a 2-digit fixed-point amount"
    if amounts and amounts[-1] > winning:
        return f"inconsistent_price: bid_amount {amounts[-1]} above winning_bid {winning}"
    if starting > winning:
        return f"inconsistent_price: starting_price {starting} outside [0, winning_bid={winning}]"
    if not seller or seller.isspace():
        return "seller_blank: seller_id is blank"
    if winning <= 0:
        return f"winning_not_positive: winning_bid {winning} is not positive"
    if starting < 0:
        return f"starting_negative: starting_price {starting} outside [0, winning_bid={winning}]"
    if duration <= 0:
        return f"duration_not_positive: auction_duration_sec {duration} is not positive"
    if start - end != duration:
        return f"duration_identity: duration mismatch: start-end={start - end} != {duration}"
    if end < 0:
        return f"end_negative: end_time_sec {end} is negative"
    num_bids, num_bidders = view.num_bids, view.num_bidders
    if num_bids != len(times):
        return f"bid_count: num_bids={num_bids} but {len(times)} rows"
    if not 1 <= num_bidders <= num_bids:
        return f"count_order: counts out of order: num_bidders={num_bidders} num_bids={num_bids}"
    for time, amount, bidder in zip(times, amounts, bidders):
        if not bidder or bidder.isspace():
            return "bidder_blank: bidder_id is blank"
        if amount > winning:
            return f"bid_above_winning: bid_amount {amount} above winning_bid {winning}"
        if not end <= time <= start:
            return f"bid_outside_window: bid time {time} outside auction window [{end}, {start}]"
    distinct = len(set(bidders))
    if distinct != num_bidders:
        return f"bidder_count: num_bidders={num_bidders} but {distinct} distinct bidders"
    return None


_auction_id = attrgetter("auction_id")


def check_ids(auctions: Sequence[AuctionView]) -> None:
    """Raise InvariantError unless the views hold auction ids 1..N and
    record ids 1..M, each once.

    Views in the pipeline's own shape, numbered 1..N in order with
    record ids ascending along them, pass in one walk; only other views
    have their ids sorted.
    """
    next_id = 1
    for auction_id, view in enumerate(auctions, 1):
        count = len(view.record_ids)
        if view.auction_id != auction_id or (
            view.record_ids != tuple(range(next_id, next_id + count))
        ):
            break
        next_id += count
    else:
        return
    record_ids = sorted(rid for view in auctions for rid in view.record_ids)
    copied = next((b for a, b in pairwise(record_ids) if a == b), None)
    if copied is not None:
        raise InvariantError(f"record_id {copied} appears more than once")
    if record_ids != list(range(1, len(record_ids) + 1)):
        raise InvariantError("record_id values are not dense 1..M")
    if sorted(map(_auction_id, auctions)) != list(range(1, len(auctions) + 1)):
        raise InvariantError("auction_id values are not dense 1..N")


def check_dataset(auctions: Sequence[AuctionView]) -> None:
    """Raise InvariantError unless the views make a valid bid table.

    The id rules (check_ids) come first; then the first view that
    breaks a rule raises "auction <id>: <rule>: <detail>", from
    auction_fault.
    """
    check_ids(auctions)
    for view in auctions:
        fault = auction_fault(view)
        if fault is not None:
            raise InvariantError(f"auction {view.auction_id}: {fault}")


@dataclass(slots=True)
class SBInstance:
    """Eight behavior metrics for one (auction, bidder) pair.

    Every metric lies in [0, 1]; successive_outbidding only takes the
    values 0, 0.5 and 1.
    """

    auction_id: int
    bidder_id: str
    bidder_tendency: float
    early_bidding: float
    bidding_ratio: float
    last_bidding: float
    auction_starting_price: float
    successive_outbidding: float
    winning_ratio: float
    auction_bids: float

    def metric_values(self) -> tuple[float, ...]:
        return _metric_values(self)


_metric_values = attrgetter(*METRIC_COLUMNS)


def validate_weights(weights: Mapping[str, float]) -> None:
    """Reject weight tables with unknown names or out-of-range values."""
    for name in weights:
        if name not in METRIC_COLUMNS:
            raise ConfigError(f"unknown metric name in weight table: {name!r}")
    for name in METRIC_COLUMNS:
        if name not in weights:
            raise ConfigError(f"weight table is missing {name!r}")
        value = weights[name]
        if not isinstance(value, (int, float)) or not 0 < value <= 1:
            raise ConfigError(f"weight for {name!r} must be in (0, 1], got {value!r}")
