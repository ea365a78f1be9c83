"""Shared builders for hand-made auction views and corpora."""
from __future__ import annotations

import random
from decimal import Decimal

import pytest
from hypothesis import HealthCheck, settings

from shillbid.metrics import auction_instances, compute_global_aggregates
from shillbid.model import AuctionView, BidRecord, SBInstance

settings.register_profile(
    "suite",
    deadline=None,
    derandomize=True,
    suppress_health_check=[HealthCheck.too_slow],
)
settings.load_profile("suite")

CENT = Decimal("0.01")


def D(value) -> Decimal:
    return Decimal(value).quantize(CENT)


def make_view(
    bid_specs,
    *,
    auction_id: int = 1,
    seller_id: str = "s1",
    duration_sec: int = 5 * 86400,
    end_sec: int = 100_000,
    starting_price="10.00",
    winning_bid=None,
    first_record_id: int = 1,
) -> AuctionView:
    """Build an AuctionView from (bidder, amount, countdown_sec) triples.

    Bids are put into canonical order (earliest first) and record ids
    are assigned along that order, the same way the pipeline does it.
    """
    ordered = sorted(bid_specs, key=lambda s: (-s[2], D(s[1]), s[0]))
    bidders = tuple(bidder for bidder, _, _ in ordered)
    amounts = tuple(D(amount) for _, amount, _ in ordered)
    if winning_bid is None:
        winning_bid = max(amounts)
    return AuctionView(
        auction_id=auction_id,
        seller_id=seller_id,
        num_bidders=len(set(bidders)),
        num_bids=len(ordered),
        starting_price=D(starting_price),
        winning_bid=D(winning_bid),
        auction_duration_sec=duration_sec,
        start_time_sec=end_sec + duration_sec,
        end_time_sec=end_sec,
        bid_times=tuple(t for _, _, t in ordered),
        bid_amounts=amounts,
        bidder_ids=bidders,
        record_ids=tuple(range(first_record_id, first_record_id + len(ordered))),
    )


def pair_metrics(view: AuctionView, aggregates=None) -> dict[str, SBInstance]:
    """The feature rows auction_instances builds for one auction, by bidder.

    Without aggregates, the auction is its own one-auction corpus.
    """
    if aggregates is None:
        aggregates = compute_global_aggregates([view])
    return {inst.bidder_id: inst for inst in auction_instances(view, aggregates)}


def records_of(views) -> list[BidRecord]:
    """The bid-table rows of a set of views: view order, then bid order."""
    return [
        BidRecord(
            record_id, view.auction_id, view.seller_id, bidder, amount, time,
            view.num_bidders, view.num_bids, view.starting_price, view.winning_bid,
            view.auction_duration_sec, view.start_time_sec, view.end_time_sec,
        )
        for view in views
        for time, amount, bidder, record_id in zip(
            view.bid_times, view.bid_amounts, view.bidder_ids, view.record_ids
        )
    ]


def random_micro_corpus(rng: random.Random, n_auctions: int) -> list[AuctionView]:
    """Tiny auctions (up to 6 bids, up to 3 bidders) over a shared pool.

    Deliberately messy: ties in times, ties in amounts, single-bid
    auctions, repeated bidders.
    """
    pool = [f"p{i}" for i in range(1, 6)]
    sellers = [f"s{i}" for i in range(1, 4)]
    views: list[AuctionView] = []
    rid = 1
    for auction_id in range(1, n_auctions + 1):
        duration = rng.choice([86400, 3 * 86400, 5 * 86400])
        end = rng.randrange(0, 1_000_000)
        bidders = rng.sample(pool, rng.randint(1, 3))
        n_bids = rng.randint(1, 6)
        cents = rng.randrange(100, 5000)
        specs = []
        for _ in range(n_bids):
            cents += rng.randrange(0, 300)  # zero keeps amount ties possible
            t = rng.randrange(end, end + duration + 1)
            specs.append((rng.choice(bidders), Decimal(cents) / 100, t))
        views.append(
            make_view(
                specs,
                auction_id=auction_id,
                seller_id=rng.choice(sellers),
                duration_sec=duration,
                end_sec=end,
                starting_price=Decimal(rng.randrange(50, cents + 1)) / 100,
                first_record_id=rid,
            )
        )
        rid += n_bids
    return views


@pytest.fixture
def rng() -> random.Random:
    return random.Random(99)
