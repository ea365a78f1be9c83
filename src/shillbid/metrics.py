"""The eight bidder-behavior metrics, each scaled into [0, 1].

One builder makes every (auction, bidder) row of the feature table:
sb_batches from the aggregates, auction_instances from one view.
Per-pair metrics read one auction; the cross-auction ones (tendency,
winning ratio, starting price, bid volume) read GlobalAggregates built
once over the whole retained auction set. Each auction's bids are
walked once, into one record per bidder, which compute_global_aggregates
folds into numbers it keeps instead of the view: the sorted bidder ids,
their four per-pair metrics and the fields the cross-auction metrics
read. All arithmetic is plain double precision; weight_scorer checks a
weight table once and returns the one scoring function.
"""
from __future__ import annotations

from array import array
from dataclasses import dataclass, field
from pathlib import Path
from typing import Callable, Iterable, Iterator, Mapping

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

    Walks the canonical bid order once, building a bidder's record at
    their first bid and updating it in place. first_bid_time_sec is the
    largest countdown (earliest bid); last_bid_time_sec the smallest.
    """
    parts: dict[str, BidderParticipation] = {}
    streak_bidder: str | None = None
    streak = 0
    for b, time in zip(auction.bidder_ids, auction.bid_times):
        part = parts.get(b)
        if part is None:
            part = parts[b] = BidderParticipation(0, time, time, 0)
        part.bid_count += 1
        part.last_bid_time_sec = time
        if b == streak_bidder:
            streak += 1
        else:
            streak_bidder = b
            streak = 1
        if streak > part.longest_run:
            part.longest_run = streak
    return parts


@dataclass(slots=True)
class BidderAggregate:
    """One bidder's counts across every retained auction."""

    auctions_entered: int
    auctions_by_seller: dict[str, int]
    high_participation_auctions: int
    wins_in_high_participation: int


# auction_id, seller_id, float starting price, num_bids, sorted bidder ids,
# then each bidder's early, ratio, last and run-band values in turn.
AuctionNumbers = tuple[int, str, float, int, tuple[str, ...], array]


@dataclass(frozen=True, slots=True)
class GlobalAggregates:
    """Corpus-wide numbers the cross-auction metrics depend on.

    auctions holds each aggregated auction's AuctionNumbers, in the
    order aggregated: sb_batches builds the rows from them, with no
    view. winners maps each auction_id to its winner's bidder_id.
    """

    avg_auctions_start_price: float
    avg_bid_all_auctions: float
    bidders: Mapping[str, BidderAggregate]
    auctions: list[AuctionNumbers] = field(repr=False, compare=False)
    winners: dict[int, str] = field(repr=False, compare=False)


def compute_global_aggregates(auctions: Iterable[AuctionView]) -> GlobalAggregates:
    """One pass over all auctions to build the shared aggregate table.

    Each bidder's record is built on first sight and updated in place.
    The views are read once; each is kept only as its AuctionNumbers.
    """
    bidders: dict[str, BidderAggregate] = {}
    numbers: list[AuctionNumbers] = []
    winners: dict[int, str] = {}

    start_price_total = 0.0
    bid_count_total = 0
    count = 0

    for count, auction in enumerate(auctions, 1):
        start_price_total += float(auction.starting_price)
        bid_count_total += auction.num_bids
        winner = winners[auction.auction_id] = winner_of(auction).bidder_id
        kept = _auction_numbers(auction, participation_map(auction))
        numbers.append(kept)
        *_, ids, values = kept
        # values[1::4]: each bidder's bidding_ratio, its share of the bids.
        for bidder, ratio in zip(ids, values[1::4]):
            agg = bidders.get(bidder)
            if agg is None:
                agg = bidders[bidder] = BidderAggregate(0, {}, 0, 0)
            agg.auctions_entered += 1
            sellers = agg.auctions_by_seller
            sellers[auction.seller_id] = sellers.get(auction.seller_id, 0) + 1
            if ratio > HIGH_PARTICIPATION_RATIO:
                agg.high_participation_auctions += 1
                if bidder == winner:
                    agg.wins_in_high_participation += 1

    if not count:
        raise EmptyDatasetError("cannot aggregate zero auctions")
    return GlobalAggregates(
        avg_auctions_start_price=start_price_total / count,
        avg_bid_all_auctions=bid_count_total / count,
        bidders=bidders,
        auctions=numbers,
        winners=winners,
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


def _auction_numbers(
    auction: AuctionView, parts: dict[str, BidderParticipation]
) -> AuctionNumbers:
    """The auction's AuctionNumbers, given its participation_map."""
    start = auction.start_time_sec
    end = auction.end_time_sec
    duration = auction.auction_duration_sec
    num_bids = auction.num_bids
    bidders = sorted(parts)
    values: list[float] = []
    for bidder in bidders:
        part = parts[bidder]
        values += (
            _early_value(part.first_bid_time_sec, start, duration),
            # bidding_ratio: the bidder's share of all bids in the auction.
            part.bid_count / num_bids,
            _last_value(part.last_bid_time_sec, end, duration),
            _run_band(part.longest_run),
        )
    return (
        auction.auction_id, auction.seller_id, float(auction.starting_price), num_bids,
        tuple(bidders), array("d", values),
    )


def _instances(numbers: AuctionNumbers, aggregates: GlobalAggregates) -> list[SBInstance]:
    """One SBInstance per bidder of the auction whose numbers these are, in bidder-id order."""
    auction_id, seller_id, starting_price, num_bids, bidders, values = numbers
    asp = _starting_price_value(starting_price, aggregates.avg_auctions_start_price)
    ab = _bid_volume_value(num_bids, aggregates.avg_bid_all_auctions)
    own = iter(values)
    # Positional, in METRIC_COLUMNS order: keyword calls cost over
    # twice as much per instance.
    return [
        SBInstance(
            auction_id, bidder, bidder_tendency(bidder, seller_id, aggregates),
            early, ratio, last, asp, band, winning_ratio(bidder, aggregates), ab,
        )
        for bidder, early, ratio, last, band in zip(bidders, own, own, own, own)
    ]


def auction_instances(auction: AuctionView, aggregates: GlobalAggregates) -> list[SBInstance]:
    """One SBInstance per bidder of the view, in bidder-id order, from the view's own bids."""
    return _instances(_auction_numbers(auction, participation_map(auction)), aggregates)


def sb_batches(aggregates: GlobalAggregates) -> Iterator[list[SBInstance]]:
    """Each aggregated auction's SBInstances, one list per auction, in aggregation order.

    The rows are built from the numbers the aggregates kept, walking no
    view. Within an auction the bidders come in id order, so aggregates
    of views in auction-id order (as read_auctions returns them) give
    instances in (auction_id, bidder_id) order.

    Values are not range-checked here: the feature table's writers run
    check_sb_dataset on each auction's instances before its rows.
    """
    for numbers in aggregates.auctions:
        yield _instances(numbers, aggregates)


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
