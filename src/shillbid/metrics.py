"""The eight bidder-behavior metrics, each scaled into [0, 1].

Per-pair metrics read one auction; the cross-auction ones (tendency,
winning ratio, starting price, bid volume) read GlobalAggregates built
once over the whole retained auction set. auction_instances applies
all eight to every bidder of one auction. All arithmetic is plain
double precision.
"""
from __future__ import annotations

from dataclasses import dataclass
from pathlib import Path
from typing import Iterable, Mapping

from .errors import ConfigError, EmptyDatasetError
from .model import (
    DEFAULT_WEIGHTS,
    METRIC_COLUMNS,
    AuctionView,
    SBInstance,
    fast_frozen_init,
    validate_weights,
    winner_of,
)

# A bidder participates heavily in an auction when they placed strictly
# more than this share of its bids.
HIGH_PARTICIPATION_RATIO = 0.1


@fast_frozen_init
@dataclass(frozen=True, slots=True)
class BidderParticipation:
    """One bidder's footprint inside one auction."""

    bid_count: int
    first_bid_time_sec: int
    last_bid_time_sec: int
    longest_run: int


def participation_map(auction: AuctionView) -> dict[str, BidderParticipation]:
    """Per-bidder counts, first/last bid times and longest streak.

    Walks the canonical bid order once. first_bid_time_sec is the
    largest countdown (earliest bid); last_bid_time_sec the smallest.
    """
    counts: dict[str, int] = {}
    first: dict[str, int] = {}
    last: dict[str, int] = {}
    runs: dict[str, int] = {}
    streak_bidder: str | None = None
    streak = 0
    for bid in auction.bids:
        b = bid.bidder_id
        counts[b] = counts.get(b, 0) + 1
        if b not in first:
            first[b] = bid.bid_submit_time_sec
        last[b] = bid.bid_submit_time_sec
        if b == streak_bidder:
            streak += 1
        else:
            streak_bidder = b
            streak = 1
        if streak > runs.get(b, 0):
            runs[b] = streak
    return {
        b: BidderParticipation(
            bid_count=counts[b],
            first_bid_time_sec=first[b],
            last_bid_time_sec=last[b],
            longest_run=runs[b],
        )
        for b in counts
    }


@dataclass(frozen=True, slots=True)
class BidderAggregate:
    """One bidder's counts across every retained auction."""

    auctions_entered: int
    auctions_by_seller: Mapping[str, int]
    auctions_won: int
    high_participation_auctions: int
    wins_in_high_participation: int


@dataclass(frozen=True, slots=True)
class GlobalAggregates:
    """Corpus-wide numbers the cross-auction metrics depend on."""

    avg_auctions_start_price: float
    avg_bid_all_auctions: float
    bidders: Mapping[str, BidderAggregate]


def compute_global_aggregates(auctions: Iterable[AuctionView]) -> GlobalAggregates:
    """One pass over all auctions to build the shared aggregate table."""
    auctions = list(auctions)
    if not auctions:
        raise EmptyDatasetError("cannot aggregate zero auctions")

    entered: dict[str, int] = {}
    by_seller: dict[str, dict[str, int]] = {}
    won: dict[str, int] = {}
    high: dict[str, int] = {}
    wins_high: dict[str, int] = {}

    start_price_total = 0.0
    bid_count_total = 0

    for auction in auctions:
        start_price_total += float(auction.starting_price)
        bid_count_total += auction.num_bids
        winner = winner_of(auction).bidder_id
        parts = participation_map(auction)
        for bidder, part in parts.items():
            entered[bidder] = entered.get(bidder, 0) + 1
            sellers = by_seller.setdefault(bidder, {})
            sellers[auction.seller_id] = sellers.get(auction.seller_id, 0) + 1
            heavy = part.bid_count / auction.num_bids > HIGH_PARTICIPATION_RATIO
            if heavy:
                high[bidder] = high.get(bidder, 0) + 1
            if bidder == winner:
                won[bidder] = won.get(bidder, 0) + 1
                if heavy:
                    wins_high[bidder] = wins_high.get(bidder, 0) + 1

    bidders = {
        b: BidderAggregate(
            auctions_entered=entered[b],
            auctions_by_seller=by_seller[b],
            auctions_won=won.get(b, 0),
            high_participation_auctions=high.get(b, 0),
            wins_in_high_participation=wins_high.get(b, 0),
        )
        for b in entered
    }
    return GlobalAggregates(
        avg_auctions_start_price=start_price_total / len(auctions),
        avg_bid_all_auctions=bid_count_total / len(auctions),
        bidders=bidders,
    )


def _clamp01(value: float) -> float:
    if value < 0.0:
        return 0.0
    if value > 1.0:
        return 1.0
    return value


def _run_band(longest_run: int) -> float:
    if longest_run >= 4:
        return 1.0
    if longest_run == 3:
        return 0.5
    return 0.0


def bidder_tendency(bidder_id: str, seller_id: str, aggregates: GlobalAggregates) -> float:
    """Share of a bidder's auctions that belong to this one seller.

    A bidder seen in at most one auction scores 0: a single data point
    says nothing about gravitating toward a seller.
    """
    agg = aggregates.bidders[bidder_id]
    if agg.auctions_entered <= 1:
        return 0.0
    return agg.auctions_by_seller.get(seller_id, 0) / agg.auctions_entered


def early_bidding(bidder_id: str, auction: AuctionView) -> float:
    """How early the bidder's first bid landed; 1 is the opening second."""
    part = participation_map(auction)[bidder_id]
    return _early_value(
        part.first_bid_time_sec, auction.start_time_sec, auction.auction_duration_sec
    )


def _early_value(first_bid_time_sec: int, start_time_sec: int, duration_sec: int) -> float:
    return _clamp01(1.0 - (start_time_sec - first_bid_time_sec) / duration_sec)


def bidding_ratio(bidder_id: str, auction: AuctionView) -> float:
    """The bidder's share of all bids in the auction."""
    part = participation_map(auction)[bidder_id]
    return part.bid_count / auction.num_bids


def last_bidding(bidder_id: str, auction: AuctionView) -> float:
    """Fraction of the auction still remaining at the bidder's last bid."""
    part = participation_map(auction)[bidder_id]
    return _last_value(
        part.last_bid_time_sec, auction.end_time_sec, auction.auction_duration_sec
    )


def _last_value(last_bid_time_sec: int, end_time_sec: int, duration_sec: int) -> float:
    return _clamp01((last_bid_time_sec - end_time_sec) / duration_sec)


def auction_starting_price(auction: AuctionView, aggregates: GlobalAggregates) -> float:
    """How far the starting price sits below the corpus average."""
    return _starting_price_value(
        float(auction.starting_price), aggregates.avg_auctions_start_price
    )


def _starting_price_value(starting_price: float, average: float) -> float:
    if starting_price >= average:
        return 0.0
    return 1.0 - starting_price / average


def successive_outbidding(bidder_id: str, auction: AuctionView) -> float:
    """Banded length of the bidder's longest consecutive-bid streak.

    A streak of four or more scores 1, exactly three scores 0.5,
    anything shorter scores 0.
    """
    part = participation_map(auction)[bidder_id]
    return _run_band(part.longest_run)


def winning_ratio(bidder_id: str, aggregates: GlobalAggregates) -> float:
    """Losing record across the auctions the bidder contested heavily.

    Only auctions with heavy participation count, both as the base and
    for wins; a bidder with no such auctions scores 0.
    """
    agg = aggregates.bidders[bidder_id]
    if agg.high_participation_auctions == 0:
        return 0.0
    return _clamp01(
        1.0 - agg.wins_in_high_participation / agg.high_participation_auctions
    )


def auction_bids(auction: AuctionView, aggregates: GlobalAggregates) -> float:
    """How far the auction's bid count sits above the corpus average."""
    return _bid_volume_value(auction.num_bids, aggregates.avg_bid_all_auctions)


def _bid_volume_value(num_bids: int, average: float) -> float:
    if num_bids <= average:
        return 0.0
    return 1.0 - average / num_bids


def auction_instances(
    auction: AuctionView, aggregates: GlobalAggregates
) -> list[SBInstance]:
    """One SBInstance per bidder of the auction, in bidder-id order."""
    asp = _starting_price_value(
        float(auction.starting_price), aggregates.avg_auctions_start_price
    )
    ab = _bid_volume_value(auction.num_bids, aggregates.avg_bid_all_auctions)
    parts = participation_map(auction)
    instances: list[SBInstance] = []
    for bidder in sorted(parts):
        part = parts[bidder]
        # Positional, in METRIC_COLUMNS order: keyword calls to a
        # frozen dataclass cost twice as much per instance.
        instances.append(
            SBInstance(
                auction.auction_id,
                bidder,
                bidder_tendency(bidder, auction.seller_id, aggregates),
                _early_value(
                    part.first_bid_time_sec,
                    auction.start_time_sec,
                    auction.auction_duration_sec,
                ),
                part.bid_count / auction.num_bids,
                _last_value(
                    part.last_bid_time_sec,
                    auction.end_time_sec,
                    auction.auction_duration_sec,
                ),
                asp,
                _run_band(part.longest_run),
                winning_ratio(bidder, aggregates),
                ab,
            )
        )
    return instances


def weighted_score(
    instance: SBInstance, weights: Mapping[str, float] | None = None
) -> float:
    """Weighted mean of the eight metrics under the given weight table."""
    table = DEFAULT_WEIGHTS if weights is None else weights
    missing = [name for name in METRIC_COLUMNS if name not in table]
    if missing:
        raise ConfigError(f"weight table is missing {', '.join(missing)}")
    total = sum(table[name] for name in METRIC_COLUMNS)
    if total <= 0:
        raise ConfigError(f"total weight must be positive, got {total}")
    acc = 0.0
    for name, value in instance.metric_items():
        acc += table[name] * value
    return acc / total


def load_weights(path: str | Path) -> dict[str, float]:
    """Read a key=value weight file as overrides on the defaults."""
    weights = dict(DEFAULT_WEIGHTS)
    for lineno, line in enumerate(Path(path).read_text(encoding="utf-8").splitlines(), 1):
        text = line.strip()
        if not text or text.startswith("#"):
            continue
        if "=" not in text:
            raise ConfigError(f"{path}:{lineno}: expected name=value, got {line!r}")
        name, _, value_text = text.partition("=")
        name = name.strip()
        if name not in METRIC_COLUMNS:
            raise ConfigError(f"{path}:{lineno}: unknown metric name {name!r}")
        try:
            value = float(value_text.strip())
        except ValueError:
            raise ConfigError(f"{path}:{lineno}: weight is not a number") from None
        weights[name] = value
    validate_weights(weights)
    return weights
