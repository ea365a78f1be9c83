"""Feature-dataset assembly and pattern statistics."""
import random
from dataclasses import fields

import pytest

from shillbid.dataset import (
    BUCKET_LABELS,
    BucketCounts,
    build_sb_dataset,
    format_stats_table,
    pattern_stats,
)
from shillbid.errors import ConfigError
from shillbid.metrics import compute_global_aggregates
from shillbid.model import METRIC_COLUMNS, winner_of

from .conftest import random_micro_corpus
from .test_ingest import instance


def corpus():
    return random_micro_corpus(random.Random(41), 12)


def test_build_covers_every_pair_in_sorted_order():
    views = corpus()
    agg = compute_global_aggregates(views)
    instances = build_sb_dataset(views, agg)
    expected_pairs = {
        (v.auction_id, bidder) for v in views for bidder in v.bidder_ids
    }
    assert {(i.auction_id, i.bidder_id) for i in instances} == expected_pairs
    per_auction: dict[int, list[str]] = {}
    for inst in instances:
        per_auction.setdefault(inst.auction_id, []).append(inst.bidder_id)
    for bidders in per_auction.values():
        assert bidders == sorted(bidders)


def test_build_is_identical_across_job_counts():
    views = corpus()
    agg = compute_global_aggregates(views)
    serial = build_sb_dataset(views, agg, jobs=1)
    parallel = build_sb_dataset(views, agg, jobs=3)
    assert serial == parallel


def test_build_values_stay_in_range():
    views = corpus()
    agg = compute_global_aggregates(views)
    for inst in build_sb_dataset(views, agg):
        for value in inst.metric_values():
            assert 0.0 <= value <= 1.0


def test_pattern_stats_counts_threshold_strictly():
    instances = [
        instance(bidder="a", early_bidding=0.7),   # not above
        instance(bidder="b", early_bidding=0.71),  # above
        instance(bidder="c", early_bidding=1.0),
    ]
    stats = pattern_stats(instances, threshold=0.7)
    assert stats.high_values["early_bidding"] == 2
    assert stats.total_instances == 3
    assert stats.total_auctions == 1
    assert stats.total_bidders == 3
    assert stats.buckets is None


def test_pattern_stats_rejects_bad_threshold():
    with pytest.raises(ConfigError):
        pattern_stats([], threshold=0.0)
    with pytest.raises(ConfigError):
        pattern_stats([], threshold=1.0)


def test_pattern_stats_buckets_with_winners():
    instances = [
        # winner, aggressive
        instance(auction_id=1, bidder="w", successive_outbidding=1.0,
                 bidding_ratio=0.5),
        # loser, aggressive, early
        instance(auction_id=1, bidder="early", successive_outbidding=0.5,
                 bidding_ratio=0.3, early_bidding=0.9),
        # loser, aggressive, late
        instance(auction_id=1, bidder="late", successive_outbidding=1.0,
                 bidding_ratio=0.3, early_bidding=0.1),
        # loser, calm
        instance(auction_id=1, bidder="calm", successive_outbidding=0.0,
                 bidding_ratio=0.05),
        # winner, calm
        instance(auction_id=2, bidder="w2", successive_outbidding=0.0,
                 bidding_ratio=0.5),
    ]
    winners = {1: "w", 2: "w2"}
    stats = pattern_stats(instances, winners=winners)
    b = stats.buckets
    assert b.winners_aggressive == 1
    assert b.winners_not_aggressive == 1
    assert b.non_winners_aggressive == 2
    assert b.non_winners_not_aggressive == 1
    assert b.early_aggressive_non_winners == 1


def test_pattern_stats_price_split():
    instances = [
        instance(auction_id=1, bidder="a", auction_starting_price=0.4),
        instance(auction_id=1, bidder="b", auction_starting_price=0.4),
        instance(auction_id=2, bidder="c", auction_starting_price=0.0),
    ]
    stats = pattern_stats(instances)
    assert stats.low_start_auctions == 1
    assert stats.regular_start_auctions == 1
    assert stats.avg_bidders_low_start == pytest.approx(2.0)
    assert stats.avg_bidders_regular_start == pytest.approx(1.0)


def test_pattern_stats_to_dict_percentages():
    instances = [
        instance(bidder="a", early_bidding=1.0),
        instance(bidder="b", early_bidding=0.0),
    ]
    payload = pattern_stats(instances).to_dict()
    assert payload["high_values"]["early_bidding"]["count"] == 1
    assert payload["high_values"]["early_bidding"]["pct_of_instances"] == 50.0
    assert payload["behavior_buckets"]["winners_aggressive"] is None
    assert list(payload["behavior_buckets"]) == [
        "winners_not_aggressive",
        "winners_aggressive",
        "non_winners_aggressive",
        "non_winners_not_aggressive",
        "early_aggressive_non_winners",
    ]
    assert payload["percentage_base"] == "instances"
    assert set(payload["high_values"]) == set(METRIC_COLUMNS)


def test_format_stats_table_renders():
    views = corpus()
    agg = compute_global_aggregates(views)
    instances = build_sb_dataset(views, agg)
    winners = {v.auction_id: winner_of(v).bidder_id for v in views}
    text = format_stats_table(pattern_stats(instances, winners=winners))
    assert "Feature dataset statistics" in text
    assert "Instances" in text
    assert "n/a" not in text

    text_no_winners = format_stats_table(pattern_stats(instances))
    assert "n/a" in text_no_winners


def test_bucket_labels_follow_bucket_counts_fields():
    assert list(BUCKET_LABELS) == [f.name for f in fields(BucketCounts)]
