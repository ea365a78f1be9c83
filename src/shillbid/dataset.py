"""Feature-dataset assembly and descriptive statistics.

build_sb_dataset lists the SBInstances of auction views, one per
(auction, bidder) pair (metrics.sb_batches builds them from the
aggregates alone, one auction at a time); pattern_stats summarizes a
dataset in one pass the way a fraud analyst would eyeball it, counting
column by column.
"""
from __future__ import annotations

from collections import Counter
from dataclasses import dataclass
from functools import partial
from itertools import islice
from operator import attrgetter, lt
from typing import Iterable, Mapping

from .errors import ConfigError
from .metrics import GlobalAggregates, auction_instances
from .model import METRIC_COLUMNS, AuctionView, SBInstance

# An instance is "aggressive" when the bidder kept outbidding in
# streaks and held a real share of the auction's bids.
AGGRESSIVE_SOB_FLOOR = 0.5
AGGRESSIVE_BR_FLOOR = 0.1
EARLY_FLOOR = 0.7


def build_sb_dataset(
    auctions: Iterable[AuctionView],
    aggregates: GlobalAggregates,
    jobs: int = 1,
) -> list[SBInstance]:
    """Every auction's auction_instances, in one list, in the views' order.

    The build is one in-process pass. jobs is accepted for interface
    symmetry and ignored: a worker pool would pickle the aggregates and
    every view, which costs more than the build itself.
    """
    return [i for auction in auctions for i in auction_instances(auction, aggregates)]


@dataclass(frozen=True, slots=True)
class BucketCounts:
    """Winner/aggression cross-counts over instances."""

    winners_not_aggressive: int
    winners_aggressive: int
    non_winners_aggressive: int
    non_winners_not_aggressive: int
    early_aggressive_non_winners: int


# Each BucketCounts field, in field order, with its stats-table label.
BUCKET_LABELS = {
    "winners_not_aggressive": "Winners, not aggressive",
    "winners_aggressive": "Winners, aggressive",
    "non_winners_aggressive": "Non-winners, aggressive",
    "non_winners_not_aggressive": "Non-winners, not aggressive",
    "early_aggressive_non_winners": "Early aggressive non-winners",
}


@dataclass(frozen=True, slots=True)
class PatternStats:
    """Descriptive statistics over a finished feature dataset.

    Percentages are always relative to the instance count. Buckets are
    None when no winner mapping was available to classify instances.
    """

    total_instances: int
    total_auctions: int
    total_bidders: int
    high_value_threshold: float
    high_values: dict[str, int]
    buckets: BucketCounts | None
    low_start_auctions: int
    regular_start_auctions: int
    avg_bidders_low_start: float | None
    avg_bidders_regular_start: float | None

    def _pct(self, count: int) -> float:
        if self.total_instances == 0:
            return 0.0
        return 100.0 * count / self.total_instances

    def to_dict(self) -> dict:
        def with_pct(count: int | None):
            if count is None:
                return None
            return {"count": count, "pct_of_instances": self._pct(count)}

        buckets = self.buckets
        return {
            "total_instances": self.total_instances,
            "total_auctions": self.total_auctions,
            "total_bidders": self.total_bidders,
            "high_value_threshold": self.high_value_threshold,
            "high_values": {
                name: with_pct(self.high_values[name]) for name in METRIC_COLUMNS
            },
            "behavior_buckets": {
                name: with_pct(getattr(buckets, name) if buckets else None)
                for name in BUCKET_LABELS
            },
            "starting_price": {
                "low_start_auctions": self.low_start_auctions,
                "regular_start_auctions": self.regular_start_auctions,
                "avg_bidders_low_start": self.avg_bidders_low_start,
                "avg_bidders_regular_start": self.avg_bidders_regular_start,
            },
            "percentage_base": "instances",
        }


def check_threshold(threshold: float) -> None:
    """Raise ConfigError unless the high-value cutoff lies in (0, 1)."""
    if not 0.0 < threshold < 1.0:
        raise ConfigError(f"threshold must lie in (0, 1), got {threshold}")


_auction_id = attrgetter("auction_id")
_bidder_id = attrgetter("bidder_id")
_starting_price = attrgetter("auction_starting_price")
_bucket_fields = attrgetter(
    "auction_id", "bidder_id", "early_bidding", "bidding_ratio", "successive_outbidding"
)


# Instances pattern_stats counts at a time: enough that its C-level
# counts run long, few enough to hold while a dataset streams past.
_STATS_CHUNK = 256


def pattern_stats(
    instances: Iterable[SBInstance],
    threshold: float = 0.7,
    winners: Mapping[int, str] | None = None,
) -> PatternStats:
    """Summarize a dataset: high-value counts, buckets, price split.

    winners maps auction_id to the winning bidder_id; without it the
    winner-dependent buckets cannot be computed and come back None.
    The instances are read once, in chunks, and not kept: each count
    is C-level map calls over a chunk; only the buckets loop in Python,
    once per instance.
    """
    check_threshold(threshold)
    above = partial(lt, threshold)
    getters = [attrgetter(name) for name in METRIC_COLUMNS]
    high = dict.fromkeys(METRIC_COLUMNS, 0)
    bidders_per_auction: Counter[int] = Counter()
    # The last instance of an auction decides its side, as a loop would.
    low_start_auction: dict[int, bool] = {}
    bidders: set[str] = set()
    total = w_aggr = w_calm = l_aggr = l_calm = early_aggr_lost = 0

    instances = iter(instances)
    for chunk in iter(lambda: list(islice(instances, _STATS_CHUNK)), []):
        total += len(chunk)
        for name, value in zip(METRIC_COLUMNS, getters):
            high[name] += sum(map(above, map(value, chunk)))
        bidders_per_auction.update(map(_auction_id, chunk))
        low_start_auction.update(
            zip(
                map(_auction_id, chunk),
                map(partial(lt, 0.0), map(_starting_price, chunk)),
            )
        )
        bidders.update(map(_bidder_id, chunk))
        if winners is None:
            continue
        for auction_id, bidder_id, early, ratio, sob in map(_bucket_fields, chunk):
            aggressive = sob >= AGGRESSIVE_SOB_FLOOR and ratio > AGGRESSIVE_BR_FLOOR
            if winners.get(auction_id) == bidder_id:
                if aggressive:
                    w_aggr += 1
                else:
                    w_calm += 1
            elif aggressive:
                l_aggr += 1
                if early > EARLY_FLOOR:
                    early_aggr_lost += 1
            else:
                l_calm += 1

    low = [a for a, is_low in low_start_auction.items() if is_low]
    regular = [a for a, is_low in low_start_auction.items() if not is_low]

    def avg_bidders(ids: list[int]) -> float | None:
        if not ids:
            return None
        return sum(bidders_per_auction[a] for a in ids) / len(ids)

    buckets: BucketCounts | None = None
    if winners is not None:
        buckets = BucketCounts(
            winners_not_aggressive=w_calm,
            winners_aggressive=w_aggr,
            non_winners_aggressive=l_aggr,
            non_winners_not_aggressive=l_calm,
            early_aggressive_non_winners=early_aggr_lost,
        )

    return PatternStats(
        total_instances=total,
        total_auctions=len(bidders_per_auction),
        total_bidders=len(bidders),
        high_value_threshold=threshold,
        high_values=high,
        buckets=buckets,
        low_start_auctions=len(low),
        regular_start_auctions=len(regular),
        avg_bidders_low_start=avg_bidders(low),
        avg_bidders_regular_start=avg_bidders(regular),
    )


def format_stats_table(stats: PatternStats) -> str:
    """Render PatternStats as an aligned plain-text table."""

    def num(value: float | None, digits: int = 2) -> str:
        if value is None:
            return "n/a"
        return f"{value:.{digits}f}"

    rows: list[tuple[str, str, str]] = [
        ("Instances", str(stats.total_instances), ""),
        ("Auctions", str(stats.total_auctions), ""),
        ("Bidder ids", str(stats.total_bidders), ""),
    ]
    b = stats.buckets
    for attr, label in BUCKET_LABELS.items():
        if b is None:
            rows.append((label, "n/a", ""))
        else:
            count = getattr(b, attr)
            rows.append((label, str(count), f"{stats._pct(count):.2f}%"))
    rows.extend(
        [
            ("Low-start auctions", str(stats.low_start_auctions), ""),
            ("Regular-start auctions", str(stats.regular_start_auctions), ""),
            ("Avg bidders, low start", num(stats.avg_bidders_low_start), ""),
            ("Avg bidders, regular start", num(stats.avg_bidders_regular_start), ""),
        ]
    )
    for name in METRIC_COLUMNS:
        count = stats.high_values[name]
        rows.append(
            (
                f"{name} > {stats.high_value_threshold:g}",
                str(count),
                f"{stats._pct(count):.2f}%",
            )
        )

    label_width = max(len(r[0]) for r in rows)
    count_width = max(len(r[1]) for r in rows)
    pct_width = max(len(r[2]) for r in rows)
    lines = ["Feature dataset statistics", "=" * 26]
    for label, count, pct in rows:
        line = f"{label:<{label_width}}  {count:>{count_width}}"
        if pct:
            line += f"  {pct:>{pct_width}}"
        lines.append(line.rstrip())
    return "\n".join(lines) + "\n"
