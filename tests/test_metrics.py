"""The eight metrics against frozen examples and the brute-force oracle."""
import math
import random
from collections import Counter
from dataclasses import astuple

import pytest
from hypothesis import given
from hypothesis import strategies as st

from shillbid.errors import ConfigError, EmptyDatasetError
from shillbid.metrics import (
    auction_instances,
    bidder_tendency,
    compute_global_aggregates,
    load_weights,
    participation_map,
    sb_batches,
    weighted_score,
    winning_ratio,
)
from shillbid.model import DEFAULT_WEIGHTS, METRIC_COLUMNS, SBInstance

from . import _oracle
from .conftest import make_view, pair_metrics, random_micro_corpus

DAY = 86_400


def test_participation_map_counts_times_and_runs():
    view = make_view(
        [
            ("a", "10.00", 500_000),
            ("b", "11.00", 490_000),
            ("b", "12.00", 480_000),
            ("b", "13.00", 470_000),
            ("a", "14.00", 460_000),
            ("b", "15.00", 450_000),
        ],
        duration_sec=5 * DAY,
        end_sec=100_000,
    )
    parts = participation_map(view)
    assert parts["a"].bid_count == 2
    assert parts["a"].first_bid_time_sec == 500_000
    assert parts["a"].last_bid_time_sec == 460_000
    assert parts["a"].longest_run == 1
    assert parts["b"].bid_count == 4
    assert parts["b"].longest_run == 3


def test_streak_survives_same_second_amount_ordering():
    # Three bids in one second still count as one streak of three when
    # the ascending amounts keep them adjacent.
    view = make_view(
        [
            ("a", "10.00", 500_000),
            ("x", "11.00", 400_000),
            ("x", "12.00", 400_000),
            ("x", "13.00", 400_000),
            ("a", "14.00", 300_000),
        ]
    )
    assert participation_map(view)["x"].longest_run == 3
    assert pair_metrics(view)["x"].successive_outbidding == 0.5


# --- single-auction metrics -------------------------------------------------

def test_early_bidding_values():
    end = 100_000
    start = end + 5 * DAY
    view = make_view(
        [("a", "10.00", start - 108_000), ("b", "11.00", end)],
        duration_sec=5 * DAY,
        end_sec=end,
    )
    rows = pair_metrics(view)
    assert rows["a"].early_bidding == pytest.approx(0.75)
    assert rows["b"].early_bidding == 0.0
    view = make_view([("c", "10.00", start)], duration_sec=5 * DAY, end_sec=end)
    assert pair_metrics(view)["c"].early_bidding == 1.0


def test_last_bidding_values():
    end = 100_000
    view = make_view(
        [("a", "10.00", end + 43_200), ("b", "11.00", end)],
        duration_sec=5 * DAY,
        end_sec=end,
    )
    rows = pair_metrics(view)
    assert rows["a"].last_bidding == pytest.approx(0.1)
    assert rows["b"].last_bidding == 0.0


def test_bidding_ratio_sums_to_one():
    view = make_view(
        [
            ("a", "10.00", 500_000),
            ("b", "11.00", 490_000),
            ("a", "12.00", 480_000),
            ("c", "13.00", 470_000),
        ]
    )
    rows = pair_metrics(view)
    assert rows["a"].bidding_ratio == 0.5
    total = sum(row.bidding_ratio for row in rows.values())
    assert math.isclose(total, 1.0, abs_tol=1e-9)


def test_successive_outbidding_banding():
    def view_with_run(n):
        specs = [("x", f"{10 + i}.00", 500_000 - i * 100) for i in range(n)]
        specs.append(("a", "99.00", 400_000))
        return make_view(specs, winning_bid="99.00")

    assert pair_metrics(view_with_run(1))["x"].successive_outbidding == 0.0
    assert pair_metrics(view_with_run(2))["x"].successive_outbidding == 0.0
    assert pair_metrics(view_with_run(3))["x"].successive_outbidding == 0.5
    assert pair_metrics(view_with_run(4))["x"].successive_outbidding == 1.0
    assert pair_metrics(view_with_run(5))["x"].successive_outbidding == 1.0


# --- cross-auction metrics --------------------------------------------------

def corpus_for_tendency():
    views = []
    rid = 1
    for i, seller in enumerate(["s1", "s1", "s1", "s2", "s3"], start=1):
        views.append(
            make_view(
                [("joe", "10.00", 500_000), ("other", "11.00", 400_000)],
                auction_id=i,
                seller_id=seller,
                first_record_id=rid,
            )
        )
        rid += 2
    return views


def test_bidder_tendency_share_per_seller():
    views = corpus_for_tendency()
    agg = compute_global_aggregates(views)
    assert bidder_tendency("joe", "s1", agg) == pytest.approx(0.6)
    assert bidder_tendency("joe", "s2", agg) == pytest.approx(0.2)
    assert bidder_tendency("joe", "s9", agg) == 0.0


def test_auction_instances_walk_a_view_the_aggregates_did_not_keep():
    views = corpus_for_tendency()
    agg = compute_global_aggregates(views)
    kept = auction_instances(views[0], agg)
    # Each call walks the view it is given, so a second call gives the same rows.
    assert auction_instances(views[0], agg) == kept
    assert [i.bidder_id for i in kept] == ["joe", "other"]
    assert kept[0].bidder_tendency == pytest.approx(0.6)
    # Another view under a kept auction id is walked on its own.
    other = make_view(
        [("joe", "10.00", 500_000), ("joe", "11.00", 450_000), ("other", "12.00", 400_000)],
        auction_id=2,
        first_record_id=3,
    )
    ratios = [i.bidding_ratio for i in auction_instances(other, agg)]
    assert ratios == pytest.approx([2 / 3, 1 / 3])


def test_bidder_tendency_single_auction_scores_zero():
    views = [
        make_view([("solo", "10.00", 500_000)], auction_id=1),
        make_view([("other", "10.00", 500_000)], auction_id=2, first_record_id=2),
    ]
    agg = compute_global_aggregates(views)
    assert bidder_tendency("solo", "s1", agg) == 0.0


def test_winning_ratio_frozen_example():
    # Eight heavily contested auctions, two of them won: 1 - 2/8.
    views = []
    rid = 1
    for i in range(1, 9):
        winner = "target" if i <= 2 else "rival"
        views.append(
            make_view(
                [
                    ("target", "10.00", 500_000),
                    ("rival", "11.00", 450_000),
                    (winner, "12.00", 400_000),
                ],
                auction_id=i,
                first_record_id=rid,
            )
        )
        rid += 3
    agg = compute_global_aggregates(views)
    assert winning_ratio("target", agg) == pytest.approx(0.75)


def test_winning_ratio_zero_without_heavy_auctions():
    # One bid among twenty is a 5% share, under the 10% bar.
    specs = [("lurker", "10.00", 500_000)]
    specs += [(f"b{i % 4}", f"{11 + i}.00", 500_000 - (i + 1) * 100) for i in range(19)]
    view = make_view(specs)
    agg = compute_global_aggregates([view])
    assert winning_ratio("lurker", agg) == 0.0


def test_heavy_participation_bar_is_strict():
    # Exactly 10% (1 of 10) must not count as heavy.
    specs = [("edge", "10.00", 500_000)]
    specs += [(f"b{i % 3}", f"{11 + i}.00", 500_000 - (i + 1) * 100) for i in range(9)]
    view = make_view(specs)
    agg = compute_global_aggregates([view])
    assert agg.bidders["edge"].high_participation_auctions == 0
    # 2 of 10 is 20% and counts.
    specs = [("edge", "10.00", 500_000), ("edge", "10.50", 499_000)]
    specs += [(f"b{i % 3}", f"{11 + i}.00", 490_000 - i * 100) for i in range(8)]
    view = make_view(specs)
    agg = compute_global_aggregates([view])
    assert agg.bidders["edge"].high_participation_auctions == 1


def test_auction_starting_price_values():
    views = [
        make_view([("a", "10.00", 500_000)], auction_id=1, starting_price="5.00"),
        make_view(
            [("b", "10.00", 500_000)],
            auction_id=2,
            starting_price="35.00",
            winning_bid="35.00",
            first_record_id=2,
        ),
    ]
    agg = compute_global_aggregates(views)
    assert agg.avg_auctions_start_price == pytest.approx(20.0)
    assert pair_metrics(views[0], agg)["a"].auction_starting_price == pytest.approx(0.75)
    assert pair_metrics(views[1], agg)["b"].auction_starting_price == 0.0


def test_auction_bids_values():
    big = make_view(
        [(f"b{i % 3}", f"{10 + i}.00", 500_000 - i * 100) for i in range(20)],
        auction_id=1,
    )
    small = make_view(
        [("a", "10.00", 500_000), ("b", "11.00", 499_000)],
        auction_id=2,
        first_record_id=21,
    )
    # Averages 11 bids; only the 20-bid auction scores.
    agg = compute_global_aggregates([big, small])
    assert agg.avg_bid_all_auctions == pytest.approx(11.0)
    assert pair_metrics(big, agg)["b0"].auction_bids == pytest.approx(1.0 - 11.0 / 20.0)
    assert pair_metrics(small, agg)["a"].auction_bids == 0.0


def test_compute_global_aggregates_empty():
    for auctions in ([], iter([])):
        with pytest.raises(EmptyDatasetError):
            compute_global_aggregates(auctions)


def test_aggregates_of_a_stream_keep_no_bid_columns():
    # The aggregates keep each auction's numbers, never a view, so a
    # one-shot stream of views aggregates as a list of them does, and
    # the rows built from the kept numbers are each view's own.
    views = random_micro_corpus(random.Random(5), 12)
    held, streamed = compute_global_aggregates(views), compute_global_aggregates(iter(views))
    assert streamed == held
    assert streamed.auctions == held.auctions
    assert streamed.winners == held.winners == {
        view.auction_id: view.bidder_ids[-1] for view in views
    }
    assert list(sb_batches(streamed)) == [auction_instances(view, held) for view in views]


def test_unknown_bidder_raises_key_error():
    view = make_view([("a", "10.00", 500_000)])
    agg = compute_global_aggregates([view])
    with pytest.raises(KeyError):
        bidder_tendency("ghost", "s1", agg)
    with pytest.raises(KeyError):
        winning_ratio("ghost", agg)
    # A bidder with no bid in the auction gets no feature row.
    assert list(pair_metrics(view, agg)) == ["a"]


# --- weighted score ---------------------------------------------------------

def test_weighted_score_streak_only_frozen_value():
    inst = SBInstance(1, "x", 0.0, 0.0, 0.0, 0.0, 0.0, 1.0, 0.0, 0.0)
    assert weighted_score(inst) == pytest.approx(0.175)


def test_weighted_score_all_ones_is_one():
    inst = SBInstance(1, "x", 1.0, 1.0, 1.0, 1.0, 1.0, 1.0, 1.0, 1.0)
    assert weighted_score(inst) == pytest.approx(1.0)


def test_weighted_score_scale_invariance():
    inst = SBInstance(1, "x", 0.2, 0.9, 0.4, 0.1, 0.5, 0.5, 0.75, 0.3)
    halved = {k: v / 2 for k, v in DEFAULT_WEIGHTS.items()}
    # Scaling every weight by the same factor cannot change the score.
    assert weighted_score(inst, halved) == pytest.approx(weighted_score(inst))


def test_weighted_score_rejects_bad_tables():
    inst = SBInstance(1, "x", 0.0, 0.0, 0.0, 0.0, 0.0, 0.0, 0.0, 0.0)
    with pytest.raises(ConfigError, match="missing"):
        weighted_score(inst, {"early_bidding": 1.0})
    with pytest.raises(ConfigError, match="positive"):
        weighted_score(inst, dict.fromkeys(METRIC_COLUMNS, 0.0))


def test_load_weights_overrides(tmp_path):
    path = tmp_path / "weights.conf"
    path.write_text("# tweak\nearly_bidding = 0.9\n\n", encoding="utf-8")
    table = load_weights(path)
    assert table["early_bidding"] == 0.9
    assert table["bidder_tendency"] == DEFAULT_WEIGHTS["bidder_tendency"]


def test_load_weights_reads_past_a_byte_order_mark(tmp_path):
    path = tmp_path / "weights.conf"
    path.write_text("early_bidding=0.9\n", encoding="utf-8-sig")
    assert load_weights(path)["early_bidding"] == 0.9


@pytest.mark.parametrize(
    "content, fragment",
    [
        ("bogus=0.5", "unknown"),
        ("early_bidding=high", "not a number"),
        ("early_bidding 0.5", "name=value"),
        ("early_bidding=0", "must be in"),
        ("early_bidding=1.2", "must be in"),
    ],
)
def test_load_weights_rejects(tmp_path, content, fragment):
    path = tmp_path / "weights.conf"
    path.write_text(content, encoding="utf-8")
    with pytest.raises(ConfigError, match=fragment):
        load_weights(path)


# --- properties -------------------------------------------------------------

@given(
    first_offset=st.integers(min_value=-10 * DAY, max_value=10 * DAY),
    duration_days=st.sampled_from([1, 3, 5, 7, 10]),
)
def test_early_value_always_in_range(first_offset, duration_days):
    from shillbid.metrics import _early_value

    duration = duration_days * DAY
    start = 1_000_000
    value = _early_value(start - first_offset, start, duration)
    assert 0.0 <= value <= 1.0


@given(
    last_offset=st.integers(min_value=-10 * DAY, max_value=10 * DAY),
    duration_days=st.sampled_from([1, 3, 5, 7, 10]),
)
def test_last_value_always_in_range(last_offset, duration_days):
    from shillbid.metrics import _last_value

    end = 500_000
    value = _last_value(end + last_offset, end, duration_days * DAY)
    assert 0.0 <= value <= 1.0


@given(st.integers(min_value=0, max_value=50))
def test_run_band_is_monotone(run):
    from shillbid.metrics import _run_band

    assert _run_band(run) <= _run_band(run + 1)
    assert _run_band(run) in (0.0, 0.5, 1.0)


@given(st.integers(min_value=0, max_value=2**31))
def test_time_shift_leaves_early_and_last_unchanged(shift):
    end = 100_000
    start = end + 5 * DAY
    view = make_view(
        [("a", "10.00", start - 1000), ("b", "11.00", end + 777)],
        duration_sec=5 * DAY,
        end_sec=end,
    )
    shifted = make_view(
        [("a", "10.00", start - 1000 + shift), ("b", "11.00", end + 777 + shift)],
        duration_sec=5 * DAY,
        end_sec=end + shift,
    )
    rows, shifted_rows = pair_metrics(view), pair_metrics(shifted)
    assert rows["a"].early_bidding == shifted_rows["a"].early_bidding
    assert rows["b"].last_bidding == shifted_rows["b"].last_bidding


def test_metrics_match_oracle_on_random_corpora(rng):
    # Every row auction_instances builds, all eight values, against the
    # oracle: exact for the banded metric, 1e-12 for the rest.
    for corpus_seed in range(10):
        corpus_rng = random.Random(corpus_seed)
        views = random_micro_corpus(corpus_rng, 8)
        agg = compute_global_aggregates(views)
        plain = [_oracle.from_view(v) for v in views]
        for view, auction in zip(views, plain):
            rows = pair_metrics(view, agg)
            assert sorted(rows) == sorted(_oracle.bidders_of(auction))
            for bidder, row in rows.items():
                expected = _oracle.all_metrics(plain, auction, bidder)
                assert row.successive_outbidding == expected["successive_outbidding"]
                for name in METRIC_COLUMNS:
                    assert getattr(row, name) == pytest.approx(
                        expected[name], abs=1e-12
                    ), (view.auction_id, bidder, name)


def test_bidder_records_match_oracle_counts_on_random_corpora():
    # The records themselves, field by field, on the corpora above: the
    # metrics see them only through ratios, bands and clamps, and a
    # streak of 1 bands to 0 just as a streak of 2 does.
    for corpus_seed in range(10):
        views = random_micro_corpus(random.Random(corpus_seed), 8)
        agg = compute_global_aggregates(views)
        plain = [_oracle.from_view(v) for v in views]
        for view, auction in zip(views, plain):
            order = [b[0] for b in _oracle.chronological(auction)]
            for bidder, part in participation_map(view).items():
                times = [t for (b, _, t) in auction["bids"] if b == bidder]
                expected = (
                    len(times),
                    max(times),
                    min(times),
                    _oracle.longest_run(order, bidder),
                )
                assert astuple(part) == expected, (view.auction_id, bidder)
        assert sorted(agg.bidders) == sorted(
            {b for auction in plain for b in _oracle.bidders_of(auction)}
        )
        for bidder, record in agg.bidders.items():
            mine = _oracle.entered(plain, bidder)
            heavy = [a for a in mine if _oracle.bidding_ratio(a, bidder) > 0.1]
            expected = (
                len(mine),
                Counter(a["seller"] for a in mine),
                len(heavy),
                sum(1 for a in heavy if _oracle.winner(a) == bidder),
            )
            assert astuple(record) == expected, bidder
