"""Brute-force reference implementations used to cross-check the package.

Everything here is written the slow, obvious way: full rescans, no
shared aggregates, no caching. Auctions are plain dicts:

    {
        "auction_id": int,
        "seller": str,
        "starting_price": float,
        "duration": int,        # seconds
        "start": int,           # countdown seconds (larger = earlier)
        "end": int,             # countdown seconds
        "bids": [(bidder, amount, time), ...],   # any order
    }

The rules of the bid table are checked here the same slow way, one
record at a time and then each auction's records together, on anything
with BidRecord's fields.

Keep this file independent of the package internals; it may only
import public dataclasses to convert views into plain dicts.
"""
from __future__ import annotations

from decimal import Decimal

CENT = Decimal("0.01")


def clamp(value: float) -> float:
    return max(0.0, min(1.0, value))


def chronological(auction: dict) -> list[tuple]:
    # Time counts down, so earliest first means descending time. Ties
    # go to the smaller amount first, then the lexically smaller name.
    return sorted(auction["bids"], key=lambda b: (-b[2], b[1], b[0]))


def winner(auction: dict) -> str:
    return chronological(auction)[-1][0]


def longest_run(sequence: list[str], target: str) -> int:
    longest = 0
    run = 0
    prev = None
    for item in sequence:
        run = run + 1 if item == prev else 1
        prev = item
        if item == target and run > longest:
            longest = run
    return longest


def bidders_of(auction: dict) -> list[str]:
    return sorted({b[0] for b in auction["bids"]})


def entered(auctions: list[dict], bidder: str) -> list[dict]:
    return [a for a in auctions if any(b[0] == bidder for b in a["bids"])]


def bidder_tendency(auctions: list[dict], bidder: str, seller: str) -> float:
    mine = entered(auctions, bidder)
    if len(mine) <= 1:
        return 0.0
    same_seller = [a for a in mine if a["seller"] == seller]
    return len(same_seller) / len(mine)


def early_bidding(auction: dict, bidder: str) -> float:
    first = max(t for (b, _, t) in auction["bids"] if b == bidder)
    return clamp(1.0 - (auction["start"] - first) / auction["duration"])


def bidding_ratio(auction: dict, bidder: str) -> float:
    mine = sum(1 for b in auction["bids"] if b[0] == bidder)
    return mine / len(auction["bids"])


def last_bidding(auction: dict, bidder: str) -> float:
    last = min(t for (b, _, t) in auction["bids"] if b == bidder)
    return clamp((last - auction["end"]) / auction["duration"])


def auction_starting_price(auctions: list[dict], auction: dict) -> float:
    average = sum(a["starting_price"] for a in auctions) / len(auctions)
    price = auction["starting_price"]
    if price >= average:
        return 0.0
    return 1.0 - price / average


def successive_outbidding(auction: dict, bidder: str) -> float:
    run = longest_run([b[0] for b in chronological(auction)], bidder)
    if run >= 4:
        return 1.0
    if run == 3:
        return 0.5
    return 0.0


def winning_ratio(auctions: list[dict], bidder: str) -> float:
    heavy = [
        a for a in entered(auctions, bidder) if bidding_ratio(a, bidder) > 0.1
    ]
    if not heavy:
        return 0.0
    wins = sum(1 for a in heavy if winner(a) == bidder)
    return clamp(1.0 - wins / len(heavy))


def auction_bids(auctions: list[dict], auction: dict) -> float:
    average = sum(len(a["bids"]) for a in auctions) / len(auctions)
    count = len(auction["bids"])
    if count <= average:
        return 0.0
    return 1.0 - average / count


def all_metrics(auctions: list[dict], auction: dict, bidder: str) -> dict[str, float]:
    return {
        "bidder_tendency": bidder_tendency(auctions, bidder, auction["seller"]),
        "early_bidding": early_bidding(auction, bidder),
        "bidding_ratio": bidding_ratio(auction, bidder),
        "last_bidding": last_bidding(auction, bidder),
        "auction_starting_price": auction_starting_price(auctions, auction),
        "successive_outbidding": successive_outbidding(auction, bidder),
        "winning_ratio": winning_ratio(auctions, bidder),
        "auction_bids": auction_bids(auctions, auction),
    }


def weighted(metric_values: dict[str, float], weights: dict[str, float]) -> float:
    total = sum(weights.values())
    return sum(weights[name] * metric_values[name] for name in metric_values) / total


def countdown(event, reference) -> int:
    # Whole seconds from the event up to the reference moment.
    return int(round((reference - event).total_seconds()))


def from_view(view) -> dict:
    """Flatten a package AuctionView into the plain-dict shape above."""
    return {
        "auction_id": view.auction_id,
        "seller": view.seller_id,
        "starting_price": float(view.starting_price),
        "duration": view.auction_duration_sec,
        "start": view.start_time_sec,
        "end": view.end_time_sec,
        "bids": [
            (bidder, float(amount), time)
            for bidder, amount, time in zip(view.bidder_ids, view.bid_amounts, view.bid_times)
        ],
    }


# --- the rules of the bid table, per record and per auction ------------------

AUCTION_LEVEL = (
    "seller_id",
    "num_bidders",
    "num_bids",
    "starting_price",
    "winning_bid",
    "auction_duration_sec",
    "start_time_sec",
    "end_time_sec",
)


def validate_bid_record(rec) -> list[str]:
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
    # same_quantum is False for every non-finite value, which is then
    # never compared.
    scaled = True
    for name in ("bid_amount", "starting_price", "winning_bid"):
        value = getattr(rec, name)
        if not value.same_quantum(CENT):
            bad.append(f"{name} {value} is not a 2-digit fixed-point amount")
            scaled = False
    if not 1 <= rec.num_bidders <= rec.num_bids:
        bad.append(f"counts out of order: num_bidders={rec.num_bidders} num_bids={rec.num_bids}")
    if scaled:
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


def check_group(rows: list) -> list[str]:
    """Cross-record rules of one auction: field agreement, stored counts."""
    bad: list[str] = []
    head = rows[0]
    for row in rows[1:]:
        for name in AUCTION_LEVEL:
            # As text, so "20.5" and "20.50" disagree.
            if str(getattr(row, name)) != str(getattr(head, name)):
                bad.append(f"records disagree on {name}")
    if len(rows) != head.num_bids:
        bad.append(f"num_bids={head.num_bids} but {len(rows)} rows")
    distinct = len({r.bidder_id for r in rows})
    if distinct != head.num_bidders:
        bad.append(f"num_bidders={head.num_bidders} but {distinct} distinct bidders")
    return bad


def dataset_violations(records: list) -> list[str]:
    """Every rule a bid table breaks: each record's, the ids', each auction's."""
    bad = [f"record {r.record_id}: {msg}" for r in records for msg in validate_bid_record(r)]
    if sorted(r.record_id for r in records) != list(range(1, len(records) + 1)):
        bad.append("record_id values are not 1..M, each once")
    by_auction: dict[int, list] = {}
    for rec in records:
        by_auction.setdefault(rec.auction_id, []).append(rec)
    if sorted(by_auction) != list(range(1, len(by_auction) + 1)):
        bad.append("auction_id values are not dense 1..N")
    for auction_id, rows in sorted(by_auction.items()):
        bad += [f"auction {auction_id}: {msg}" for msg in check_group(rows)]
    return bad


# --- copies among raw rows ----------------------------------------------------

_MONTHS = "jan feb mar apr may jun jul aug sep oct nov dec".split()
_BID_FIELDS = ("bid_date", "bid_time", "bid_amount", "bidder_id")


def raw_bid_value(date: str, clock: str, amount: str) -> tuple:
    """A raw bid's moment and amount: (year, month, day, h, m, s, amount).

    Reads the forms the tests write: a Mon-DD-YY or Mon-DD-YYYY date in
    any case; an HH:MM:SS clock, whose zone token, if any, is ignored, as
    the pipeline reads every clock in the site's one zone; and a number
    with a "$" before or after it.
    """
    month, day, year = date.split("-")
    year = int(year)
    if year < 100:
        year += 2000
    hour, minute, second = clock.split()[0].split(":")
    return (
        year, _MONTHS.index(month.lower()) + 1, int(day),
        int(hour), int(minute), int(second), Decimal(amount.strip("$ ")),
    )


def drop_copies(rows: list, schema) -> tuple[list, int]:
    """rows without each copy of an earlier row; and how many rows that dropped.

    schema maps the logical fields to the rows' column names. Every
    field but the bid's four is the row's head. A row with a bidder
    copies an earlier row whose head is equal as text, whose bidder is
    the same and whose raw_bid_value is equal. A row with a blank bidder
    copies an earlier row whose every field is equal as text.
    """
    head = [schema[name] for name in schema if name not in _BID_FIELDS]
    date, clock, amount, bidder = (schema[name] for name in _BID_FIELDS)
    kept: list = []
    for row in rows:
        if row[bidder].strip():
            bid = (raw_bid_value(row[date], row[clock], row[amount]), row[bidder])
        else:
            bid = (row[date], row[clock], row[amount], row[bidder])
        if not any(
            all(row[name] == other[name] for name in head) and bid == other_bid
            for other, other_bid in kept
        ):
            kept.append((row, bid))
    return [row for row, _ in kept], len(rows) - len(kept)


def sb_check_outcome(instances: list, metric_columns) -> tuple:
    """What checking a feature dataset must give, with every pair in a set.

    The first instance that breaks a rule decides: ("InvariantError",
    message) for a pair seen before, else ("OutlierError", message) for
    its first metric outside [0, 1], else ("InvariantError", message)
    for a streak value off its three bands. With no broken rule it is
    (None, whether every pair is at least the one before it).
    """
    seen = set()
    pairs = []
    for inst in instances:
        pair = (inst.auction_id, inst.bidder_id)
        who = f"auction {inst.auction_id}, bidder {inst.bidder_id!r}"
        if pair in seen:
            return ("InvariantError", f"duplicate instance for {who}")
        seen.add(pair)
        pairs.append(pair)
        for name in metric_columns:
            value = getattr(inst, name)
            if not (value >= 0.0 and value <= 1.0):
                return ("OutlierError", f"{who}: {name}={value!r} outside [0, 1]")
        streak = inst.successive_outbidding
        if streak not in (0.0, 0.5, 1.0):
            return (
                "InvariantError",
                f"{who}: successive_outbidding={streak!r} not in {{0, 0.5, 1}}",
            )
    return (None, pairs == sorted(pairs))
