"""The eight bidder-behavior metrics, each scaled into [0, 1].

auction_instances is the one place the eight metrics are computed: it
builds every (auction, bidder) row of the feature table. Per-pair
metrics read one auction; the cross-auction ones (tendency, winning
ratio, starting price, bid volume) read GlobalAggregates built once
over the whole retained auction set. Each auction's bids are walked
once: compute_global_aggregates keeps every auction's
participation_map in the aggregates, and auction_instances takes it
from there. All arithmetic is plain double precision; weight_scorer
checks a weight table once and returns the one scoring function.
"""
from __future__ import annotations

from dataclasses import dataclass, field
from pathlib import Path
from typing import Callable, Iterable, Mapping

from .errors import ConfigError, EmptyDatasetError
from .model import (
    DEFAULT_WEIGHTS,
    METRIC_COLUMNS,
    AuctionView,
    SBInstance,
    validate_weights,
    winner_of,
)

# A bidder participates heavily in an auction when they placed strictly
# more than this share of its bids.
HIGH_PARTICIPATION_RATIO = 0.1


@dataclass(slots=True)
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
    for b, time in zip(auction.bidder_ids, auction.bid_times):
        counts[b] = counts.get(b, 0) + 1
        if b not in first:
            first[b] = time
        last[b] = time
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
    high_participation_auctions: int
    wins_in_high_participation: int


@dataclass(frozen=True, slots=True)
class GlobalAggregates:
    """Corpus-wide numbers the cross-auction metrics depend on.

    participation holds, per auction_id, the view that was aggregated
    and its participation_map. auction_instances takes an entry out for
    that same view, so each auction's bids are walked once and each map
    is freed as its instances are built.
    """

    avg_auctions_start_price: float
    avg_bid_all_auctions: float
    bidders: Mapping[str, BidderAggregate]
    participation: dict[int, tuple[AuctionView, dict[str, BidderParticipation]]] = field(
        repr=False, compare=False
    )


def compute_global_aggregates(auctions: Iterable[AuctionView]) -> GlobalAggregates:
    """One pass over all auctions to build the shared aggregate table."""
    auctions = list(auctions)
    if not auctions:
        raise EmptyDatasetError("cannot aggregate zero auctions")

    entered: dict[str, int] = {}
    by_seller: dict[str, dict[str, int]] = {}
    high: dict[str, int] = {}
    wins_high: dict[str, int] = {}

    participation: dict[int, tuple[AuctionView, dict[str, BidderParticipation]]] = {}

    start_price_total = 0.0
    bid_count_total = 0

    for auction in auctions:
        start_price_total += float(auction.starting_price)
        bid_count_total += auction.num_bids
        winner = winner_of(auction).bidder_id
        parts = participation_map(auction)
        participation[auction.auction_id] = (auction, parts)
        for bidder, part in parts.items():
            entered[bidder] = entered.get(bidder, 0) + 1
            sellers = by_seller.setdefault(bidder, {})
            sellers[auction.seller_id] = sellers.get(auction.seller_id, 0) + 1
            heavy = part.bid_count / auction.num_bids > HIGH_PARTICIPATION_RATIO
            if heavy:
                high[bidder] = high.get(bidder, 0) + 1
                if bidder == winner:
                    wins_high[bidder] = wins_high.get(bidder, 0) + 1

    bidders = {
        b: BidderAggregate(
            auctions_entered=entered[b],
            auctions_by_seller=by_seller[b],
            high_participation_auctions=high.get(b, 0),
            wins_in_high_participation=wins_high.get(b, 0),
        )
        for b in entered
    }
    return GlobalAggregates(
        avg_auctions_start_price=start_price_total / len(auctions),
        avg_bid_all_auctions=bid_count_total / len(auctions),
        bidders=bidders,
        participation=participation,
    )


def _clamp01(value: float) -> float:
    if value < 0.0:
        return 0.0
    if value > 1.0:
        return 1.0
    return value


def bidder_tendency(bidder_id: str, seller_id: str, aggregates: GlobalAggregates) -> float:
    """Share of a bidder's auctions that belong to this one seller.

    A bidder seen in at most one auction scores 0: a single data point
    says nothing about gravitating toward a seller.
    """
    agg = aggregates.bidders[bidder_id]
    if agg.auctions_entered <= 1:
        return 0.0
    return agg.auctions_by_seller.get(seller_id, 0) / agg.auctions_entered


def _early_value(first_bid_time_sec: int, start_time_sec: int, duration_sec: int) -> float:
    """early_bidding: how early the bidder's first bid landed; 1 is the opening second."""
    return _clamp01(1.0 - (start_time_sec - first_bid_time_sec) / duration_sec)


def _last_value(last_bid_time_sec: int, end_time_sec: int, duration_sec: int) -> float:
    """last_bidding: fraction of the auction still remaining at the bidder's last bid."""
    return _clamp01((last_bid_time_sec - end_time_sec) / duration_sec)


def _starting_price_value(starting_price: float, average: float) -> float:
    """auction_starting_price: how far the starting price sits below the corpus average."""
    if starting_price >= average:
        return 0.0
    return 1.0 - starting_price / average


def _run_band(longest_run: int) -> float:
    """successive_outbidding: the bidder's longest consecutive-bid streak, banded.

    A streak of four or more scores 1, exactly three scores 0.5,
    anything shorter scores 0.
    """
    if longest_run >= 4:
        return 1.0
    if longest_run == 3:
        return 0.5
    return 0.0


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


def _bid_volume_value(num_bids: int, average: float) -> float:
    """auction_bids: how far the auction's bid count sits above the corpus average."""
    if num_bids <= average:
        return 0.0
    return 1.0 - average / num_bids


def auction_instances(
    auction: AuctionView, aggregates: GlobalAggregates
) -> list[SBInstance]:
    """One SBInstance per bidder of the auction, in bidder-id order.

    The participation_map comes from the aggregates when they were
    computed over this same view object; otherwise it is walked here.
    """
    auction_id = auction.auction_id
    seller_id = auction.seller_id
    num_bids = auction.num_bids
    start = auction.start_time_sec
    end = auction.end_time_sec
    duration = auction.auction_duration_sec
    asp = _starting_price_value(
        float(auction.starting_price), aggregates.avg_auctions_start_price
    )
    ab = _bid_volume_value(num_bids, aggregates.avg_bid_all_auctions)
    kept = aggregates.participation.pop(auction_id, None)
    if kept is not None and kept[0] is auction:
        parts = kept[1]
    else:
        parts = participation_map(auction)
    instances: list[SBInstance] = []
    for bidder in sorted(parts):
        part = parts[bidder]
        # Positional, in METRIC_COLUMNS order: keyword calls cost over
        # twice as much per instance.
        instances.append(
            SBInstance(
                auction_id,
                bidder,
                bidder_tendency(bidder, seller_id, aggregates),
                _early_value(part.first_bid_time_sec, start, duration),
                # bidding_ratio: the bidder's share of all bids in the auction.
                part.bid_count / num_bids,
                _last_value(part.last_bid_time_sec, end, duration),
                asp,
                _run_band(part.longest_run),
                winning_ratio(bidder, aggregates),
                ab,
            )
        )
    return instances


def weight_scorer(
    weights: Mapping[str, float] | None = None,
) -> Callable[[SBInstance], float]:
    """Check a weight table once; return the instance -> score function.

    The score is the weighted mean of the eight metrics: each weight
    times its metric, summed in METRIC_COLUMNS order, over the total
    weight. weighted_score applies the same function.
    """
    table = DEFAULT_WEIGHTS if weights is None else weights
    missing = [name for name in METRIC_COLUMNS if name not in table]
    if missing:
        raise ConfigError(f"weight table is missing {', '.join(missing)}")
    total = sum(table[name] for name in METRIC_COLUMNS)
    if total <= 0:
        raise ConfigError(f"total weight must be positive, got {total}")
    ordered = tuple(table[name] for name in METRIC_COLUMNS)

    def score(instance: SBInstance) -> float:
        acc = 0.0
        for weight, value in zip(ordered, instance.metric_values()):
            acc += weight * value
        return acc / total

    return score


def weighted_score(
    instance: SBInstance, weights: Mapping[str, float] | None = None
) -> float:
    """Weighted mean of the eight metrics under the given weight table.

    Checks the table on every call; to score many instances under one
    table, call weight_scorer once and apply what it returns.
    """
    return weight_scorer(weights)(instance)


def load_weights(path: str | Path) -> dict[str, float]:
    """Read a key=value weight file as overrides on the defaults."""
    weights = dict(DEFAULT_WEIGHTS)
    for lineno, line in enumerate(Path(path).read_text(encoding="utf-8-sig").splitlines(), 1):
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
