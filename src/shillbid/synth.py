"""Synthetic auction-scrape generator with planted shills and defects.

Produces raw 28-column scrape rows the preprocessing pipeline accepts,
a ground-truth label file, and a manifest of every injected defect.
All randomness flows through one seeded generator, so a seed fixes the
corpus byte for byte.

Shill accomplices enter early, outbid themselves in one consecutive
streak, stick to a single seller, and never hold the final bid. Honest
bidders never bid twice in a row, so their streak metric stays at zero
by construction. Defect injection is guarded so the classes never
cascade: a healthy auction keeps at least five surviving rows, final
bids and shill rows are never blanked, and no blank may merge two
honest bids into a streak of three.
"""
from __future__ import annotations

import random
from dataclasses import asdict, dataclass, field
from datetime import datetime, timedelta
from typing import Iterator, Mapping

from .errors import ConfigError
from .ingest import DEFAULT_RAW_SCHEMA
from .preprocess import REFERENCE_EPOCH, SECONDS_PER_DAY

# Relative frequency of each listing duration in days.
DEFAULT_DURATION_WEIGHTS: dict[int, int] = {1: 166, 3: 187, 5: 131, 7: 309, 10: 14}

SCRAPE_WINDOW_START = datetime(2017, 3, 1, 0, 0, 0)
_END_MARGIN_SEC = 3600

# Colluding sellers, each with its own accomplice.
SHILL_SELLERS = 5
# A shill's run of bids ends before this fraction of the auction's duration.
SHILL_ENTRY_QUANTILE = 0.25
STARTING_PRICE_LOW_CENTS = 2000
STARTING_PRICE_HIGH_CENTS = 40000
MIN_INCREMENT_CENTS = 500
MAX_INCREMENT_CENTS = 2500

_S = DEFAULT_RAW_SCHEMA
RAW_HEADER: tuple[str, ...] = (
    _S["auction_url"],
    "Product ID",
    "Product Location",
    "Product Condition",
    "Category",
    _S["seller_id"],
    "Seller Rating",
    "Seller Feedback Score",
    _S["start_date"],
    _S["start_time"],
    _S["end_date"],
    _S["end_time"],
    _S["duration_days"],
    _S["starting_price"],
    _S["winning_price"],
    _S["num_bids"],
    _S["num_bidders"],
    "Listing Type",
    "Shipping Cost",
    _S["bidder_id"],
    "Bidder Rating",
    "Bidder Account Link",
    _S["bid_amount"],
    _S["bid_date"],
    _S["bid_time"],
    "Image URL",
    "Page Number",
    "Capture Batch",
)

_COL = {name: i for i, name in enumerate(RAW_HEADER)}

_MONTH_ABBR = (
    "Jan", "Feb", "Mar", "Apr", "May", "Jun",
    "Jul", "Aug", "Sep", "Oct", "Nov", "Dec",
)

_CITIES = (
    "San Jose, CA", "Austin, TX", "Denver, CO", "Portland, OR",
    "Chicago, IL", "Miami, FL", "Newark, NJ", "Seattle, WA",
)
_CONDITIONS = ("New", "Open box", "Refurbished", "Used")
_CATEGORIES = ("Cell Phones", "Smart Watches", "Tablets", "Headphones")


def _fmt_date(dt: datetime) -> str:
    return f"{_MONTH_ABBR[dt.month - 1]}-{dt.day:02d}-{dt.year % 100:02d}"


def _fmt_time(dt: datetime) -> str:
    return f"{dt.hour:02d}:{dt.minute:02d}:{dt.second:02d} PDT"


def _fmt_money(cents: int) -> str:
    return f"{cents // 100}.{cents % 100:02d} $"


@dataclass(frozen=True)
class SynthConfig:
    """Everything a caller sets to shape a generated corpus."""

    seed: int = 7
    num_auctions: int = 200
    duration_weights: Mapping[int, int] = field(
        default_factory=lambda: dict(DEFAULT_DURATION_WEIGHTS)
    )
    bidder_pool: int = 100
    seller_pool: int = 40
    shill_fraction: float = 0.10
    shill_run_length: int = 4
    min_auction_bids: int = 8
    max_auction_bids: int = 14
    duplicate_row_rate: float = 0.0
    missing_bidder_rate: float = 0.0
    thin_auction_rate: float = 0.0
    inconsistent_auction_rate: float = 0.0

    def validate(self) -> None:
        if self.num_auctions < 1:
            raise ConfigError(f"num_auctions must be >= 1, got {self.num_auctions}")
        for name in (
            "shill_fraction",
            "duplicate_row_rate",
            "missing_bidder_rate",
            "thin_auction_rate",
            "inconsistent_auction_rate",
        ):
            value = getattr(self, name)
            if not 0.0 <= value <= 1.0:
                raise ConfigError(f"{name} must lie in [0, 1], got {value}")
        if not self.duration_weights:
            raise ConfigError("duration_weights must not be empty")
        window_days = (
            (REFERENCE_EPOCH - SCRAPE_WINDOW_START).total_seconds() - _END_MARGIN_SEC
        ) / SECONDS_PER_DAY
        for days, weight in self.duration_weights.items():
            if days < 1 or weight < 0:
                raise ConfigError(f"bad duration weight {days}: {weight}")
            if days > window_days:
                raise ConfigError(
                    f"duration {days}d does not fit the scrape window "
                    f"({window_days:.1f}d)"
                )
        if sum(self.duration_weights.values()) <= 0:
            raise ConfigError("duration weights must not all be zero")
        if self.shill_run_length < 2:
            raise ConfigError(
                f"shill_run_length must be >= 2, got {self.shill_run_length}"
            )
        if self.min_auction_bids < self.shill_run_length + 3:
            raise ConfigError(
                "infeasible: a shill auction needs the run plus at least one "
                f"bid before and two after; min_auction_bids {self.min_auction_bids} "
                f"< {self.shill_run_length + 3}"
            )
        if self.min_auction_bids < 5:
            raise ConfigError(
                "min_auction_bids must be >= 5 so healthy auctions survive "
                "the activity floor"
            )
        if self.max_auction_bids < self.min_auction_bids:
            raise ConfigError("max_auction_bids must be >= min_auction_bids")
        if self.bidder_pool < 7:
            raise ConfigError(f"bidder_pool must be >= 7, got {self.bidder_pool}")
        if self.seller_pool < 1:
            raise ConfigError("seller_pool must be >= 1")
        counts = self._planned_counts()
        if sum(counts) > self.num_auctions:
            raise ConfigError(
                "infeasible: thin + inconsistent + shill auctions "
                f"({'+'.join(map(str, counts))}) exceed num_auctions "
                f"{self.num_auctions}"
            )

    def _planned_counts(self) -> tuple[int, int, int]:
        n = self.num_auctions
        return (
            round(self.thin_auction_rate * n),
            round(self.inconsistent_auction_rate * n),
            round(self.shill_fraction * n),
        )


@dataclass
class DefectManifest:
    """Actual injected defect counts, the yardstick for the cleanser."""

    duplicate_rows: int = 0
    missing_bidder_rows: int = 0
    thin_auctions: int = 0
    inconsistent_auctions: int = 0
    thin_auction_urls: list[str] = field(default_factory=list)
    inconsistent_auction_urls: list[str] = field(default_factory=list)
    duplicates_by_url: dict[str, int] = field(default_factory=dict)
    missing_by_url: dict[str, int] = field(default_factory=dict)

    def to_dict(self) -> dict:
        return asdict(self)


@dataclass
class SynthResult:
    header: tuple[str, ...]
    rows: list[list[str]]
    truth: list[tuple[str, str, str]]
    manifest: DefectManifest

    def records(self) -> list[dict[str, str]]:
        return [dict(zip(self.header, row)) for row in self.rows]


def _no_repeat_sequence(rng: random.Random, bidders: list[str], length: int) -> list[str]:
    seq: list[str] = []
    prev: str | None = None
    for _ in range(length):
        pick = rng.choice([b for b in bidders if b != prev])
        seq.append(pick)
        prev = pick
    return seq


def _reuse_winner(rng: random.Random, seq: list[str]) -> None:
    # The final bidder must have bid before, so the winner's share of
    # bids stays above the heavy-participation floor.
    if seq[-1] in seq[:-1]:
        return
    earlier = sorted(set(seq[:-1]) - {seq[-2]})
    seq[-1] = rng.choice(earlier)


def _max_honest_run(sequence: list[str], skipped: set[int], accomplice: str | None) -> int:
    longest = 0
    prev: str | None = None
    streak = 0
    for pos, bidder in enumerate(sequence):
        if pos in skipped:
            continue
        if bidder == prev:
            streak += 1
        else:
            prev = bidder
            streak = 1
        if bidder != accomplice and streak > longest:
            longest = streak
    return longest


def _iter_auctions(
    config: SynthConfig, manifest: DefectManifest
) -> Iterator[tuple[list[list[str]], list[tuple[str, str, str]]]]:
    rng = random.Random(config.seed)
    n = config.num_auctions
    n_thin, n_inconsistent, n_shill = config._planned_counts()

    pool = list(range(n))
    thin_set = set(rng.sample(pool, n_thin))
    rest = sorted(set(pool) - thin_set)
    inconsistent_set = set(rng.sample(rest, n_inconsistent))
    rest = sorted(set(rest) - inconsistent_set)
    shill_set = set(rng.sample(rest, n_shill))

    honest_bidders = [f"u{i:04d}" for i in range(1, config.bidder_pool + 1)]
    honest_sellers = [f"s{i:03d}" for i in range(1, config.seller_pool + 1)]
    accomplices = [f"x{i:02d}" for i in range(1, SHILL_SELLERS + 1)]
    colluding_sellers = [f"cs{i:02d}" for i in range(1, SHILL_SELLERS + 1)]

    days_list = sorted(config.duration_weights)
    weights = [config.duration_weights[d] for d in days_list]
    latest_end = REFERENCE_EPOCH - timedelta(seconds=_END_MARGIN_SEC)

    for i in range(n):
        url = f"https://auctions.example/itm/{7_000_000 + i}"
        is_thin = i in thin_set
        is_inconsistent = i in inconsistent_set
        is_shill = i in shill_set

        days = rng.choices(days_list, weights=weights)[0]
        duration_sec = days * SECONDS_PER_DAY
        span = int((latest_end - SCRAPE_WINDOW_START).total_seconds()) - duration_sec
        start_dt = SCRAPE_WINDOW_START + timedelta(seconds=rng.randrange(0, span + 1))
        end_dt = start_dt + timedelta(seconds=duration_sec)

        accomplice: str | None = None
        if is_shill:
            j = rng.randrange(SHILL_SELLERS)
            seller = colluding_sellers[j]
            accomplice = accomplices[j]
        else:
            seller = rng.choice(honest_sellers)

        if is_thin:
            n_bids = rng.randint(2, 4)
        else:
            n_bids = rng.randint(config.min_auction_bids, config.max_auction_bids)

        run = config.shill_run_length if is_shill else 0
        honest_slots = n_bids - run
        k_max = min(6, honest_slots) if is_shill else min(7, n_bids)
        k_min = 2 if (is_thin or is_shill) else 3
        k = rng.randint(k_min, max(k_min, k_max))
        participants = rng.sample(honest_bidders, k)

        honest_seq = _no_repeat_sequence(rng, participants, honest_slots)
        if not is_thin:
            _reuse_winner(rng, honest_seq)

        if is_shill:
            assert accomplice is not None
            entry_cut = int(duration_sec * SHILL_ENTRY_QUANTILE)
            n_pre = rng.randint(1, min(2, honest_slots - 2))
            sequence = (
                honest_seq[:n_pre] + [accomplice] * run + honest_seq[n_pre:]
            )
            pre_hi = max(2, entry_cut // 2)
            offsets = sorted(rng.randrange(1, pre_hi) for _ in range(n_pre))
            offsets += sorted(
                rng.randrange(pre_hi, entry_cut) for _ in range(run)
            )
            offsets += sorted(
                rng.randrange(entry_cut, duration_sec + 1)
                for _ in range(honest_slots - n_pre)
            )
        else:
            sequence = honest_seq
            offsets = sorted(
                rng.randrange(1, duration_sec + 1) for _ in range(n_bids)
            )

        price_cents = rng.randrange(
            STARTING_PRICE_LOW_CENTS, STARTING_PRICE_HIGH_CENTS + 1
        )
        start_price_cents = price_cents
        amounts: list[int] = []
        for _ in range(n_bids):
            price_cents += rng.randrange(MIN_INCREMENT_CENTS, MAX_INCREMENT_CENTS + 1)
            amounts.append(price_cents)
        winning_cents = amounts[-1]

        start_price_out = start_price_cents
        winning_out = winning_cents
        if is_inconsistent:
            if rng.random() < 0.5:
                start_price_out = winning_cents + rng.randrange(500, 5001)
            else:
                winning_out = max(1, winning_cents - rng.randrange(100, 500))
            manifest.inconsistent_auctions += 1
            manifest.inconsistent_auction_urls.append(url)
        if is_thin:
            manifest.thin_auctions += 1
            manifest.thin_auction_urls.append(url)

        # Missing-id injection: draws happen for every eligible row,
        # guards may veto without disturbing the stream of draws.
        blanked: set[int] = set()
        if config.missing_bidder_rate > 0:
            for pos in range(n_bids - 1):
                if sequence[pos] == accomplice:
                    continue
                if rng.random() >= config.missing_bidder_rate:
                    continue
                trial = blanked | {pos}
                if n_bids >= 5 and n_bids - len(trial) < 5:
                    continue
                if _max_honest_run(sequence, trial, accomplice) >= 3:
                    continue
                blanked.add(pos)
        if blanked:
            manifest.missing_bidder_rows += len(blanked)
            manifest.missing_by_url[url] = len(blanked)

        product_id = f"P{rng.randrange(10**8):08d}"
        base = [""] * len(RAW_HEADER)
        base[_COL[_S["auction_url"]]] = url
        base[_COL["Product ID"]] = product_id
        base[_COL["Product Location"]] = rng.choice(_CITIES)
        base[_COL["Product Condition"]] = rng.choice(_CONDITIONS)
        base[_COL["Category"]] = rng.choice(_CATEGORIES)
        base[_COL[_S["seller_id"]]] = seller
        base[_COL["Seller Rating"]] = f"{rng.randrange(90, 101)}%"
        base[_COL["Seller Feedback Score"]] = str(rng.randrange(50, 5000))
        base[_COL[_S["start_date"]]] = _fmt_date(start_dt)
        base[_COL[_S["start_time"]]] = _fmt_time(start_dt)
        base[_COL[_S["end_date"]]] = _fmt_date(end_dt)
        base[_COL[_S["end_time"]]] = _fmt_time(end_dt)
        base[_COL[_S["duration_days"]]] = str(days)
        base[_COL[_S["starting_price"]]] = _fmt_money(start_price_out)
        base[_COL[_S["winning_price"]]] = _fmt_money(winning_out)
        base[_COL[_S["num_bids"]]] = str(n_bids)
        base[_COL[_S["num_bidders"]]] = str(len(set(sequence)))
        base[_COL["Listing Type"]] = "Auction"
        base[_COL["Shipping Cost"]] = f"{rng.randrange(0, 2000) / 100:.2f}"
        base[_COL["Image URL"]] = f"https://img.example/{product_id}.jpg"
        base[_COL["Page Number"]] = str(i // 25 + 1)
        base[_COL["Capture Batch"]] = f"B{rng.randrange(1, 9)}"

        rows: list[list[str]] = []
        dup_count = 0
        for pos in range(n_bids):
            bidder = sequence[pos]
            bid_dt = start_dt + timedelta(seconds=offsets[pos])
            row = base.copy()
            if pos in blanked:
                row[_COL[_S["bidder_id"]]] = ""
                row[_COL["Bidder Rating"]] = ""
                row[_COL["Bidder Account Link"]] = ""
            else:
                row[_COL[_S["bidder_id"]]] = bidder
                row[_COL["Bidder Rating"]] = str(60 + sum(map(ord, bidder)) % 40)
                row[_COL["Bidder Account Link"]] = (
                    f"https://auctions.example/usr/{bidder}"
                )
            row[_COL[_S["bid_amount"]]] = _fmt_money(amounts[pos])
            row[_COL[_S["bid_date"]]] = _fmt_date(bid_dt)
            row[_COL[_S["bid_time"]]] = _fmt_time(bid_dt)
            rows.append(row)
            if config.duplicate_row_rate > 0 and rng.random() < config.duplicate_row_rate:
                rows.append(row.copy())
                dup_count += 1
        if dup_count:
            manifest.duplicate_rows += dup_count
            manifest.duplicates_by_url[url] = dup_count

        truth = [
            (url, bidder, "shill" if bidder == accomplice else "honest")
            for bidder in sorted(set(sequence))
        ]
        yield rows, truth


def generate(config: SynthConfig | None = None) -> SynthResult:
    """Build a whole corpus in memory."""
    config = config or SynthConfig()
    config.validate()
    manifest = DefectManifest()
    all_rows: list[list[str]] = []
    all_truth: list[tuple[str, str, str]] = []
    for rows, truth in _iter_auctions(config, manifest):
        all_rows.extend(rows)
        all_truth.extend(truth)
    return SynthResult(
        header=RAW_HEADER, rows=all_rows, truth=all_truth, manifest=manifest
    )


def write_corpus(
    config: SynthConfig,
    out_path,
    truth_path=None,
    defects_path=None,
) -> tuple[int, DefectManifest]:
    """Stream a corpus straight to disk; returns (rows written, manifest).

    Unlike generate(), this never holds more than one auction in
    memory, so corpus size is bounded by disk, not RAM.
    """
    import csv
    import json

    config.validate()
    manifest = DefectManifest()
    rows_written = 0
    truth_rows: list[tuple[str, str, str]] = []
    with open(out_path, "w", encoding="utf-8", newline="") as handle:
        writer = csv.writer(handle, lineterminator="\n")
        writer.writerow(RAW_HEADER)
        for rows, truth in _iter_auctions(config, manifest):
            writer.writerows(rows)
            rows_written += len(rows)
            truth_rows.extend(truth)
    if truth_path is not None:
        with open(truth_path, "w", encoding="utf-8", newline="") as handle:
            writer = csv.writer(handle, lineterminator="\n")
            writer.writerow(["auction_url", "bidder_id", "label"])
            writer.writerows(truth_rows)
    if defects_path is not None:
        with open(defects_path, "w", encoding="utf-8") as handle:
            json.dump(manifest.to_dict(), handle, indent=2)
            handle.write("\n")
    return rows_written, manifest
