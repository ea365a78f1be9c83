"""Core domain types: bid records, auction views, feature instances.

An AuctionView is the one in-memory shape of an auction: the pipeline
numbers and checks views, write_preprocessed writes them, read_auctions
reads them back. A BidRecord, one row of the bid table, is built only
where a table is read row by row or checked by the reference rules.

Time is stored as countdown seconds: whole seconds remaining until a
fixed reference moment, so later events carry smaller values. All money
is fixed-point decimal with exactly two fractional digits.
"""
from __future__ import annotations

from dataclasses import MISSING, dataclass, fields
from decimal import Decimal
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


def fast_frozen_init(cls: type) -> type:
    """Give a frozen, slotted dataclass a faster __init__.

    The generated __init__ of a frozen dataclass sets every field
    through object.__setattr__, and at a million records that call is
    the larger part of building them. This __init__ takes the same
    parameters and sets each slot through its member descriptor, which
    costs half as much. It applies only where that is all the generated
    one does: no defaults, no factories, no __post_init__.
    """
    names = [f.name for f in fields(cls)]
    if any(
        f.default is not MISSING or f.default_factory is not MISSING
        for f in fields(cls)
    ) or hasattr(cls, "__post_init__"):
        raise TypeError(f"{cls.__name__} needs the dataclass-generated __init__")
    namespace = {f"_set_{name}": getattr(cls, name).__set__ for name in names}
    body = "".join(f"    _set_{name}(self, {name})\n" for name in names)
    exec(f"def __init__(self, {', '.join(names)}):\n{body}", namespace)
    init = namespace["__init__"]
    init.__qualname__ = f"{cls.__qualname__}.__init__"
    cls.__init__ = init
    return cls


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


@fast_frozen_init
@dataclass(frozen=True, slots=True)
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


@fast_frozen_init
@dataclass(frozen=True, slots=True)
class Bid:
    """A single bid inside an auction view."""

    bidder_id: str
    bid_amount: Decimal
    bid_submit_time_sec: int
    record_id: int


@dataclass(frozen=True, slots=True)
class AuctionView:
    """One auction with its bids in canonical chronological order.

    Bids are sorted by descending bid_submit_time_sec (earliest first,
    since time counts down), ties by ascending bid_amount, then by
    record_id. The last element is therefore the chronologically last,
    highest bid.
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
    bids: tuple[Bid, ...]


def bid_sort_key(bid: Bid) -> tuple[int, Decimal, int]:
    return (-bid.bid_submit_time_sec, bid.bid_amount, bid.record_id)


def winner_of(auction: AuctionView) -> Bid:
    """Return the winning bid: the chronologically last one.

    Two bids in the same second are settled by amount, so the higher
    amount wins the tie.
    """
    if not auction.bids:
        raise EmptyDatasetError(f"auction {auction.auction_id} has no bids")
    return auction.bids[-1]


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


def _check_group(auction_id: int, rows: list[BidRecord]) -> None:
    """Cross-record rules of one auction: field agreement, stored counts."""
    head = rows[0]
    for row in rows[1:]:
        for name in _AUCTION_LEVEL:
            if getattr(row, name) != getattr(head, name):
                raise InvariantError(f"auction {auction_id}: records disagree on {name}")
    if len(rows) != head.num_bids:
        raise InvariantError(
            f"auction {auction_id}: num_bids={head.num_bids} but {len(rows)} rows"
        )
    distinct = len({r.bidder_id for r in rows})
    if distinct != head.num_bidders:
        raise InvariantError(
            f"auction {auction_id}: num_bidders={head.num_bidders} "
            f"but {distinct} distinct bidders"
        )


_auction_fields = attrgetter(*_AUCTION_LEVEL)


def auction_view(head: BidRecord, bids: Iterable[Bid]) -> AuctionView:
    """The view of head's auction holding bids, in canonical order."""
    return AuctionView(
        head.auction_id, *_auction_fields(head), tuple(sorted(bids, key=bid_sort_key))
    )


def _auction_view(rows: list[BidRecord]) -> AuctionView:
    return auction_view(
        rows[0],
        (Bid(r.bidder_id, r.bid_amount, r.bid_submit_time_sec, r.record_id) for r in rows),
    )


def validate_bid_record(rec: BidRecord) -> list[str]:
    """Return human-readable violations for a single record."""
    bad: list[str] = []
    if rec.record_id < 1:
        bad.append(f"record_id {rec.record_id} is not positive")
    if rec.auction_id < 1:
        bad.append(f"auction_id {rec.auction_id} is not positive")
    if not rec.bidder_id or rec.bidder_id.isspace():
        bad.append("bidder_id is blank")
    if not rec.seller_id or rec.seller_id.isspace():
        bad.append("seller_id is blank")
    # Compare exponents, not values: Decimal("650.5") == Decimal("650.50")
    # numerically, but only the latter serializes with two digits.
    # same_quantum is False for every non-finite value.
    if not rec.bid_amount.same_quantum(CENT):
        bad.append(f"bid_amount {rec.bid_amount} is not a 2-digit fixed-point amount")
    if not rec.starting_price.same_quantum(CENT):
        bad.append(
            f"starting_price {rec.starting_price} is not a 2-digit fixed-point amount"
        )
    if not rec.winning_bid.same_quantum(CENT):
        bad.append(f"winning_bid {rec.winning_bid} is not a 2-digit fixed-point amount")
    if not 1 <= rec.num_bidders <= rec.num_bids:
        bad.append(f"counts out of order: num_bidders={rec.num_bidders} num_bids={rec.num_bids}")
    if rec.winning_bid <= 0:
        bad.append(f"winning_bid {rec.winning_bid} is not positive")
    if not 0 <= rec.starting_price <= rec.winning_bid:
        bad.append(
            f"starting_price {rec.starting_price} outside [0, winning_bid={rec.winning_bid}]"
        )
    if rec.bid_amount > rec.winning_bid:
        bad.append(f"bid_amount {rec.bid_amount} above winning_bid {rec.winning_bid}")
    if rec.auction_duration_sec <= 0:
        bad.append(f"auction_duration_sec {rec.auction_duration_sec} is not positive")
    if rec.start_time_sec - rec.end_time_sec != rec.auction_duration_sec:
        bad.append(
            f"duration mismatch: start-end={rec.start_time_sec - rec.end_time_sec} "
            f"!= {rec.auction_duration_sec}"
        )
    if rec.end_time_sec < 0:
        bad.append(f"end_time_sec {rec.end_time_sec} is negative")
    if not rec.end_time_sec <= rec.bid_submit_time_sec <= rec.start_time_sec:
        bad.append(
            f"bid time {rec.bid_submit_time_sec} outside auction window "
            f"[{rec.end_time_sec}, {rec.start_time_sec}]"
        )
    return bad


def _checked_groups(records: Sequence[BidRecord]) -> dict[int, list[BidRecord]]:
    """Run every dataset rule and return the rows grouped by auction.

    The reference check: each record goes through validate_bid_record,
    in record order, then the ids and each auction's group are checked.
    """
    violations: list[str] = []
    seen_record_ids: set[int] = set()
    by_auction: dict[int, list[BidRecord]] = {}
    for rec in records:
        by_auction.setdefault(rec.auction_id, []).append(rec)
        for msg in validate_bid_record(rec):
            violations.append(f"record {rec.record_id}: {msg}")
        if rec.record_id in seen_record_ids:
            violations.append(f"record_id {rec.record_id} appears more than once")
        seen_record_ids.add(rec.record_id)
        if len(violations) >= 20:
            break
    if not violations:
        if records and seen_record_ids != set(range(1, len(records) + 1)):
            violations.append("record_id values are not dense 1..M")
        if by_auction and by_auction.keys() != set(range(1, len(by_auction) + 1)):
            violations.append("auction_id values are not dense 1..N")
    if not violations:
        try:
            for auction_id in sorted(by_auction):
                _check_group(auction_id, by_auction[auction_id])
        except InvariantError as exc:
            violations.append(str(exc))
    if violations:
        head = "; ".join(violations[:5])
        more = len(violations) - 5
        if more > 0:
            head += f" (+{more} more)"
        raise InvariantError(head)
    return by_auction


def validate_dataset(records: Sequence[BidRecord]) -> list[AuctionView]:
    """Check flat records against every dataset rule; return their views.

    The reference check: passing means ids are dense 1..N / 1..M and all
    per-record and cross-record rules hold; otherwise InvariantError
    names the first few violations. The views come from the grouping
    the checks produce anyway.
    """
    by_auction = _checked_groups(records)
    return [_auction_view(by_auction[aid]) for aid in sorted(by_auction)]


def auction_ok(view: AuctionView) -> bool:
    """True when an auction breaks no dataset rule other than the id rules.

    validate_bid_record's auction-level rules run once, its bid rules
    once per bid, then the stored counts are compared with the bids;
    callers check the ids. Each amount's scale is tested before it is
    compared, so a non-finite amount is refused, never compared. The
    pipeline drops an auction whose view it refuses; for the views of
    check_dataset, False only says the reference has to decide.
    """
    seller = view.seller_id
    starting = view.starting_price
    winning = view.winning_bid
    start = view.start_time_sec
    end = view.end_time_sec
    bids = view.bids
    if not (
        seller and not seller.isspace()
        and starting.same_quantum(CENT) and winning.same_quantum(CENT)
        and winning > 0 and 0 <= starting <= winning
        and start - end == view.auction_duration_sec > 0 and end >= 0
        and view.num_bids == len(bids) and view.num_bidders >= 1
    ):
        return False
    for bid in bids:
        bidder = bid.bidder_id
        amount = bid.bid_amount
        if not (
            bidder and not bidder.isspace()
            and amount.same_quantum(CENT) and amount <= winning
            and end <= bid.bid_submit_time_sec <= start
        ):
            return False
    # With the bids counted, this also gives num_bidders <= num_bids.
    return len({bid.bidder_id for bid in bids}) == view.num_bidders


_after_seller = attrgetter(*_AUCTION_LEVEL[1:])


def _flatten(auctions: Iterable[AuctionView]) -> list[BidRecord]:
    """The records of a set of views, in view order, then bid order."""
    return [
        BidRecord(
            bid.record_id, view.auction_id, view.seller_id, bid.bidder_id,
            bid.bid_amount, bid.bid_submit_time_sec, *_after_seller(view),
        )
        for view in auctions
        for bid in view.bids
    ]


_record_id = attrgetter("record_id")


def views_ok(auctions: Sequence[AuctionView]) -> bool:
    """True when views have the pipeline's own shape and break no rule.

    The shape: views numbered 1..N in order, each passing auction_ok,
    whose bids hold record ids 1..M in order. False only says the
    reference has to decide.
    """
    next_id = 1
    for auction_id, view in enumerate(auctions, 1):
        count = len(view.bids)
        if (
            view.auction_id != auction_id
            or list(map(_record_id, view.bids)) != list(range(next_id, next_id + count))
            or not auction_ok(view)
        ):
            return False
        next_id += count
    return True


def check_dataset(auctions: Sequence[AuctionView]) -> None:
    """Raise InvariantError unless the views make a valid bid table.

    Valid means what validate_dataset accepts of their records. Views
    that fail views_ok go through the reference, which either accepts
    them or raises its own error, with its text.
    """
    if not views_ok(auctions):
        _checked_groups(_flatten(auctions))


@fast_frozen_init
@dataclass(frozen=True, slots=True)
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
