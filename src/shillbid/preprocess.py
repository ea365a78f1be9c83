"""Cleansing pipeline: raw scrape rows to a validated bid table.

Stage order is fixed. One streaming row pass applies the optional
winning-price floor, collapses exact duplicates, drops rows with a
blank bidder id and groups the rest into auctions, checking that each
auction's rows agree; each bid is kept as a (bid_submit_time_sec,
bid_amount, bidder_id) tuple. Then scraped counts are reconciled
against actual rows, and one walk in start order drops each auction
with too few bids, else with a price above its winning price, else
whose built view breaks any other rule of the bid table
(model.auction_ok), and numbers the rest densely. The result is one
AuctionView per kept auction, numbered and checked, which
ingest.write_preprocessed writes as it is.

The row pass is written once and shared by both input layouts.
run_pipeline feeds it raw scrape rows projected to the logical fields,
parsing date, clock and money text only for rows that survive to be
grouped. run_pipeline_table feeds it the typed rows of a bid table as
ingest.read_bid_table streams them, line by line, and
run_pipeline_records the fields of typed records. reconcile_counts and
assign_identifiers have their own unit tests. The row pass is tested as
a whole: the golden files pin its bytes, and the removal counts are
checked against the defect manifest of a synthetic corpus.
"""
from __future__ import annotations

import logging
from collections import Counter
from dataclasses import asdict, dataclass, field, replace
from datetime import datetime
from decimal import ROUND_HALF_UP, Decimal, InvalidOperation
from operator import attrgetter, itemgetter
from pathlib import Path
import re
from typing import Callable, Iterable, Mapping

from .errors import (
    ConfigError,
    DataConsistencyError,
    InvariantError,
    ParseError,
    SchemaError,
)
from .ingest import DEFAULT_RAW_SCHEMA, LOGICAL_FIELDS, RawRecord, read_bid_table
from .model import (
    CENT, PREPROCESSED_COLUMNS, AuctionView, Bid, BidRecord, auction_ok, check_dataset,
)

logger = logging.getLogger(__name__)

# Midnight at the start of the day the scrape was handed over,
# expressed in the site's fixed-offset local time.
REFERENCE_EPOCH = datetime(2017, 7, 7, 0, 0, 0)

STANDARD_DURATIONS_DAYS = (1, 3, 5, 7, 10)

SECONDS_PER_DAY = 86400

_MONTHS = {
    "jan": 1, "feb": 2, "mar": 3, "apr": 4, "may": 5, "jun": 6,
    "jul": 7, "aug": 8, "sep": 9, "oct": 10, "nov": 11, "dec": 12,
}

_NUMBER = re.compile(r"\d+(?:\.\d+)?|\.\d+")


def merge_datetime(date_text: str, time_text: str) -> datetime:
    """Combine a MON-DD-YY date and a HH:MM:SS clock into one datetime.

    A trailing timezone token on the clock ("PDT") is consumed; all
    clock values are read in the site's single fixed-offset zone.
    Two-digit years mean 2000 + yy.
    """
    parts = date_text.strip().split("-")
    if len(parts) != 3:
        raise ParseError(f"date {date_text!r}: expected MON-DD-YY")
    month_text, day_text, year_text = parts
    month = _MONTHS.get(month_text.strip().lower())
    if month is None:
        raise ParseError(f"date {date_text!r}: unknown month name {month_text!r}")
    try:
        day = int(day_text)
        year = int(year_text)
    except ValueError:
        raise ParseError(f"date {date_text!r}: day/year are not integers") from None
    if 0 <= year < 100:
        year += 2000
    clock_tokens = time_text.split()
    if not clock_tokens:
        raise ParseError(f"time {time_text!r}: no clock value")
    hms = clock_tokens[0].split(":")
    if len(hms) != 3:
        raise ParseError(f"time {time_text!r}: expected HH:MM:SS")
    try:
        hour, minute, second = (int(x) for x in hms)
    except ValueError:
        raise ParseError(f"time {time_text!r}: clock parts are not integers") from None
    try:
        return datetime(year, month, day, hour, minute, second)
    except (ValueError, OverflowError) as exc:
        raise ParseError(f"{date_text!r} {time_text!r}: {exc}") from None


def parse_money(text: str) -> Decimal:
    """Extract the single decimal number from free-form money text.

    Currency symbols, letters and thousands separators are stripped;
    the result is a fixed-point amount with two fractional digits. A
    minus sign anywhere before the number makes it a negative amount,
    which is refused.
    """
    cleaned = text.replace(",", "")
    numbers = _NUMBER.findall(cleaned)
    if not numbers:
        raise ParseError(f"money {text!r}: no number found")
    if len(numbers) > 1:
        raise ParseError(f"money {text!r}: more than one number found")
    if "-" in cleaned.partition(numbers[0])[0]:
        raise ParseError(f"money {text!r}: negative amount")
    try:
        return Decimal(numbers[0]).quantize(CENT, rounding=ROUND_HALF_UP)
    except InvalidOperation:
        # More digits than the decimal context holds.
        raise ParseError(f"money {text!r}: amount out of range") from None


def money_parser() -> Callable[[str], Decimal]:
    """Return parse_money behind a text -> Decimal cache.

    A scrape repeats few distinct amounts, so each is parsed once and
    every row with the same text shares one Decimal.
    """
    cache: dict[str, Decimal] = {}

    def parse(text: str) -> Decimal:
        value = cache.get(text)
        if value is None:
            value = cache[text] = parse_money(text)
        return value

    return parse


def countdown_parser(reference: datetime) -> Callable[[str, str], int]:
    """Return parse(date_text, time_text) for countdown seconds.

    parse gives what to_countdown_seconds(merge_datetime(date_text,
    time_text), reference) gives. The countdown at midnight is computed
    once per date text and the clock is read arithmetically; any text
    the fast path does not take as-is (a malformed or out-of-range
    value, an event after the reference) goes through those two
    functions, so the result or the ParseError is theirs.
    """
    midnights: dict[str, int] = {}

    def parse(date_text: str, time_text: str) -> int:
        base = midnights.get(date_text)
        if base is None:
            try:
                base = to_countdown_seconds(
                    merge_datetime(date_text, "00:00:00"), reference
                )
            except ParseError:
                base = -1
            else:
                midnights[date_text] = base
        if base >= 0:
            try:
                hour, minute, second = map(int, time_text.split(None, 1)[0].split(":"))
            except (IndexError, ValueError):
                pass
            else:
                if 0 <= hour < 24 and 0 <= minute < 60 and 0 <= second < 60:
                    seconds = base - (hour * 3600 + minute * 60 + second)
                    if seconds >= 0:
                        return seconds
        return to_countdown_seconds(merge_datetime(date_text, time_text), reference)

    return parse


def duration_days_to_seconds(days: int) -> int:
    """Turn a whole-day listing duration into seconds."""
    if days <= 0:
        raise ParseError(f"duration {days!r}: must be a positive day count")
    if days not in STANDARD_DURATIONS_DAYS:
        logger.warning("non-standard auction duration: %d days", days)
    return days * SECONDS_PER_DAY


def to_countdown_seconds(event: datetime, reference: datetime) -> int:
    """Whole seconds from event up to the reference moment.

    Later events produce smaller values. Both datetimes are read in the
    same fixed-offset zone, so the offset cancels out of the result.
    """
    if event.microsecond or reference.microsecond:
        raise ParseError("countdown timestamps must be whole seconds")
    delta = reference - event
    seconds = delta.days * SECONDS_PER_DAY + delta.seconds
    if seconds < 0:
        raise ParseError(
            f"event {event.isoformat()} is after the reference epoch "
            f"{reference.isoformat()}"
        )
    return seconds


@dataclass(slots=True)
class ParsedAuction:
    """One auction mid-pipeline, before identifiers exist.

    Its fields are named as AuctionView's; each bid is a
    (bid_submit_time_sec, bid_amount, bidder_id) tuple.
    """

    key: str | int
    seller_id: str
    start_time_sec: int
    end_time_sec: int
    auction_duration_sec: int
    starting_price: Decimal
    winning_bid: Decimal
    num_bids: int
    num_bidders: int
    bids: list[tuple[int, Decimal, str]] = field(default_factory=list)


def reconcile_counts(auctions: Iterable[ParsedAuction]) -> tuple[int, int]:
    """Overwrite scraped bid/bidder counts that contradict the rows.

    Returns how many auctions had each count fixed. The rows are the
    ground truth; the scraped numbers may predate row-level cleansing
    or simply be corrupt.
    """
    bids_fixed = 0
    bidders_fixed = 0
    for auction in auctions:
        actual_bids = len(auction.bids)
        actual_bidders = len({b[2] for b in auction.bids})
        if auction.num_bids != actual_bids:
            auction.num_bids = actual_bids
            bids_fixed += 1
        if auction.num_bidders != actual_bidders:
            auction.num_bidders = actual_bidders
            bidders_fixed += 1
    return bids_fixed, bidders_fixed


def _bid_order(bid: tuple[int, Decimal, str]) -> tuple[int, Decimal, str]:
    # Earliest first (time counts down), then by amount, then bidder:
    # the greatest bid is the chronologically last, and of two in the
    # same second the higher.
    return (-bid[0], bid[1], bid[2])


def assign_identifiers(
    auctions: Iterable[ParsedAuction], min_bids: int
) -> tuple[list[AuctionView], list[ParsedAuction], list[ParsedAuction], list[ParsedAuction]]:
    """Judge each auction; number and build a view of each one kept.

    Returns (views, thin, inconsistent, contradictory). Auctions are
    walked once from the earliest start (largest start countdown), ties
    broken by key, and each goes to the first of these it falls under:
    thin when it has fewer than min_bids bids; inconsistent when its
    chronologically last bid or its starting price is above its winning
    price (both strictly); contradictory when its view breaks any other
    rule of the bid table, as model.auction_ok judges it. Counts are
    compared with the bids, so they should be reconciled first.

    A kept auction takes the next auction id, 1..N, and its bids,
    sorted in place by (descending time, amount, bidder), the next
    record ids, 1..M; a dropped one takes none. Both numberings depend
    only on row content, never on input order, and along each view the
    record ids ascend, so its bids are in canonical bid_sort_key order.
    """
    views: list[AuctionView] = []
    thin: list[ParsedAuction] = []
    inconsistent: list[ParsedAuction] = []
    contradictory: list[ParsedAuction] = []
    record_id = 1
    for auction in sorted(auctions, key=lambda a: (-a.start_time_sec, a.key)):
        bids = auction.bids
        winning = auction.winning_bid
        if len(bids) < min_bids:
            thin.append(auction)
            continue
        bids.sort(key=_bid_order)
        if bids[-1][1] > winning or auction.starting_price > winning:
            inconsistent.append(auction)
            continue
        view = AuctionView(
            len(views) + 1, auction.seller_id, auction.num_bidders, auction.num_bids,
            auction.starting_price, winning, auction.auction_duration_sec,
            auction.start_time_sec, auction.end_time_sec,
            tuple(
                Bid(bidder, amount, time, rid)
                for rid, (time, amount, bidder) in enumerate(bids, record_id)
            ),
        )
        if auction_ok(view):
            views.append(view)
            record_id += len(bids)
        else:
            contradictory.append(auction)
    return views, thin, inconsistent, contradictory


@dataclass(frozen=True, slots=True)
class Totals:
    """Dataset-shape numbers for one side of the cleansing."""

    auctions: int
    records: int
    bidder_ids: int
    seller_ids: int
    attributes: int
    duration_days_mean: float | None = None
    duration_days_mode: float | int | None = None
    avg_winning_price: float | None = None

    def to_dict(self) -> dict:
        return asdict(self)


@dataclass(frozen=True, slots=True)
class CleansingReport:
    """Counts removed per rule, counts fixed, and before/after totals.

    Conservation holds exactly: after.records equals before.records
    minus duplicates, missing-bidder rows, and the rows of removed
    auctions; likewise for auctions.
    """

    irrelevant_columns_dropped: int
    duplicate_records_removed: int
    missing_bidder_rows_removed: int
    low_bid_auctions_removed: int
    low_bid_rows_removed: int
    inconsistent_auctions_removed: int
    inconsistent_rows_removed: int
    contradictory_auctions_removed: int
    contradictory_rows_removed: int
    num_bids_reconciled: int
    num_bidders_reconciled: int
    price_filtered_rows: int
    before: Totals
    after: Totals

    def to_dict(self) -> dict:
        return {
            "removed": {
                "irrelevant_columns_dropped": self.irrelevant_columns_dropped,
                "duplicate_records_removed": self.duplicate_records_removed,
                "missing_bidder_rows_removed": self.missing_bidder_rows_removed,
                "low_bid_auctions_removed": self.low_bid_auctions_removed,
                "low_bid_rows_removed": self.low_bid_rows_removed,
                "inconsistent_auctions_removed": self.inconsistent_auctions_removed,
                "inconsistent_rows_removed": self.inconsistent_rows_removed,
                "contradictory_auctions_removed": self.contradictory_auctions_removed,
                "contradictory_rows_removed": self.contradictory_rows_removed,
            },
            "reconciled": {
                "num_bids": self.num_bids_reconciled,
                "num_bidders": self.num_bidders_reconciled,
            },
            "price_filtered_rows": self.price_filtered_rows,
            "before": self.before.to_dict(),
            "after": self.after.to_dict(),
        }


@dataclass(frozen=True)
class PipelineConfig:
    """Knobs for one pipeline run."""

    schema: Mapping[str, str] = field(default_factory=lambda: dict(DEFAULT_RAW_SCHEMA))
    reference_epoch: datetime = REFERENCE_EPOCH
    min_bids: int = 5
    min_winning_price: Decimal | None = None

    def validate(self) -> None:
        if set(self.schema) != set(LOGICAL_FIELDS):
            missing = sorted(set(LOGICAL_FIELDS) - set(self.schema))
            extra = sorted(set(self.schema) - set(LOGICAL_FIELDS))
            raise ConfigError(
                f"schema must map exactly the logical fields"
                f"{'; missing ' + ', '.join(missing) if missing else ''}"
                f"{'; unexpected ' + ', '.join(extra) if extra else ''}"
            )
        if self.min_bids < 1:
            raise ConfigError(f"min_bids must be >= 1, got {self.min_bids}")
        if self.reference_epoch.microsecond:
            raise ConfigError("reference epoch must be a whole second")
        price = self.min_winning_price
        if price is not None and not price.is_finite():
            raise ConfigError(f"min_winning_price must be a finite amount, got {price}")


# Positions inside the projected logical tuple.
_F = {name: i for i, name in enumerate(LOGICAL_FIELDS)}
_BIDDER = _F["bidder_id"]
_BID_AMOUNT = _F["bid_amount"]
_BID_DATE = _F["bid_date"]
_BID_TIME = _F["bid_time"]
_WINNING_PRICE = _F["winning_price"]
# Every logical field from start_date on is auction-level.
_START_DATE = _F["start_date"]


def _dedup_key(cells: tuple[str, ...]):
    key = "\x1f".join(cells)
    # A cell embedding the separator would make the join ambiguous;
    # fall back to the exact tuple for those rows.
    if key.count("\x1f") != len(cells) - 1:
        return cells
    return key


def _parse_auction_level(
    cells: tuple[str, ...],
    config: PipelineConfig,
    money: Callable[[str], Decimal],
) -> ParsedAuction:
    key = cells[0]
    where = f"auction {key!r}"
    start_dt = merge_datetime(cells[_F["start_date"]], cells[_F["start_time"]])
    end_dt = merge_datetime(cells[_F["end_date"]], cells[_F["end_time"]])
    try:
        days = int(cells[_F["duration_days"]])
    except ValueError:
        raise ParseError(
            f"{where}: duration is not an integer: {cells[_F['duration_days']]!r}"
        ) from None
    duration_sec = duration_days_to_seconds(days)
    try:
        num_bids = int(cells[_F["num_bids"]])
        num_bidders = int(cells[_F["num_bidders"]])
    except ValueError:
        raise ParseError(f"{where}: bid/bidder counts are not integers") from None
    return ParsedAuction(
        key=key,
        seller_id=cells[_F["seller_id"]],
        start_time_sec=to_countdown_seconds(start_dt, config.reference_epoch),
        end_time_sec=to_countdown_seconds(end_dt, config.reference_epoch),
        auction_duration_sec=duration_sec,
        starting_price=money(cells[_F["starting_price"]]),
        winning_bid=money(cells[_F["winning_price"]]),
        num_bids=num_bids,
        num_bidders=num_bidders,
    )


@dataclass
class _Counters:
    columns_dropped: int = 0
    duplicates: int = 0
    missing_bidder: int = 0
    price_filtered: int = 0


def _group_rows(
    rows: Iterable[tuple],
    config: PipelineConfig,
    level_at: int,
    winning: Callable[[tuple], Decimal],
    dedup_key: Callable[[tuple], object],
    new_auction: Callable[[tuple], ParsedAuction],
    new_bid: Callable[[tuple], tuple[int, Decimal, str]],
) -> tuple[dict, _Counters, Totals]:
    """The row-wise stages, one streaming pass shared by both layouts.

    Cells 0, 1 and 2 of a row are its auction key, seller and bidder;
    cells 2 up to level_at are bid-level and every cell from level_at
    on is auction-level. A row is dropped by the winning-price floor,
    else counted into the before totals, then dropped if its dedup_key
    was seen, then if its bidder is blank. What is left joins its
    auction's group: new_auction builds the group from the first such
    row, and every later row must repeat its seller and auction-level
    cells. before.attributes is the bid table's width; the raw adapter
    sets the scrape's.

    Duplicate keys come in two disjoint kinds. Each auction key keeps
    one entry, made from its first row that passes the floor: that
    row's seller and auction-level cells and a short token. A row that
    repeats its auction's entry is keyed by dedup_key of the token and
    its bid-level cells; any other row by dedup_key of the whole row,
    which has more cells. Two rows are duplicates exactly when they are
    equal, and the entry's text is held once per auction, not once per
    row. The entry also serves the grouping check, unless the group's
    first row differs from it (every earlier row of the auction was
    dropped, for a blank bidder or as a copy): then that group's seller
    and cells are held apart.
    """
    min_price = config.min_winning_price
    counters = _Counters()
    seen: set = set()
    # auction key -> (seller, auction-level cells, token) of its first row
    entries: dict = {}
    # auction key -> (seller, auction-level cells) of a group that
    # differs from its auction's entry
    apart: dict = {}
    bidders_seen: set[str] = set()
    sellers_seen: set[str] = set()
    rows_before = 0
    groups: dict = {}

    for row in rows:
        if min_price is not None and winning(row) <= min_price:
            counters.price_filtered += 1
            continue

        key = row[0]
        seller = row[1]
        rows_before += 1
        sellers_seen.add(seller)
        bidder = row[2]
        if bidder and not bidder.isspace():
            bidders_seen.add(bidder)

        level = row[level_at:]
        entry = entries.get(key)
        if entry is None:
            entry = entries[key] = (seller, level, str(len(entries)))
        same = seller == entry[0] and level == entry[1]
        dup = dedup_key((entry[2], *row[2:level_at]) if same else row)
        if dup in seen:
            counters.duplicates += 1
            continue
        seen.add(dup)

        if not bidder or bidder.isspace():
            counters.missing_bidder += 1
            continue

        group = groups.get(key)
        if group is None:
            groups[key] = group = new_auction(row)
            if not same:
                apart[key] = (seller, level)
        elif (not same or key in apart) and apart.get(key) != (seller, level):
            raise DataConsistencyError(
                f"auction {key!r}: rows disagree on auction-level fields"
            )
        group.bids.append(new_bid(row))

    before = Totals(
        auctions=len(entries),
        records=rows_before,
        bidder_ids=len(bidders_seen),
        seller_ids=len(sellers_seen),
        attributes=len(PREPROCESSED_COLUMNS),
    )
    return groups, counters, before


def _finish(
    groups: dict,
    before: Totals,
    counters: _Counters,
    config: PipelineConfig,
) -> tuple[list[AuctionView], CleansingReport]:
    auctions = list(groups.values())
    bids_fixed, bidders_fixed = reconcile_counts(auctions)
    views, thin, inconsistent, contradictory = assign_identifiers(auctions, config.min_bids)
    check_dataset(views)

    thin_rows = sum(len(a.bids) for a in thin)
    inconsistent_rows = sum(len(a.bids) for a in inconsistent)
    contradictory_rows = sum(len(a.bids) for a in contradictory)

    if views:
        durations = [v.auction_duration_sec for v in views]
        mean_days = sum(durations) / len(durations) / SECONDS_PER_DAY
        counts = Counter(durations)
        top = max(counts.values())
        mode_sec = min(sec for sec, cnt in counts.items() if cnt == top)
        mode_days: float | int = (
            mode_sec // SECONDS_PER_DAY
            if mode_sec % SECONDS_PER_DAY == 0
            else mode_sec / SECONDS_PER_DAY
        )
        avg_win = float(sum(v.winning_bid for v in views)) / len(views)
    else:
        mean_days = None
        mode_days = None
        avg_win = None

    after = Totals(
        auctions=len(views),
        records=sum(len(v.bids) for v in views),
        bidder_ids=len({b.bidder_id for v in views for b in v.bids}),
        seller_ids=len({v.seller_id for v in views}),
        attributes=len(PREPROCESSED_COLUMNS),
        duration_days_mean=mean_days,
        duration_days_mode=mode_days,
        avg_winning_price=avg_win,
    )
    # An auction whose every row was dropped before grouping never
    # formed a group; it counts as a low-bid removal.
    vanished = before.auctions - len(auctions)
    report = CleansingReport(
        irrelevant_columns_dropped=counters.columns_dropped,
        duplicate_records_removed=counters.duplicates,
        missing_bidder_rows_removed=counters.missing_bidder,
        low_bid_auctions_removed=len(thin) + vanished,
        low_bid_rows_removed=thin_rows,
        inconsistent_auctions_removed=len(inconsistent),
        inconsistent_rows_removed=inconsistent_rows,
        contradictory_auctions_removed=len(contradictory),
        contradictory_rows_removed=contradictory_rows,
        num_bids_reconciled=bids_fixed,
        num_bidders_reconciled=bidders_fixed,
        price_filtered_rows=counters.price_filtered,
        before=before,
        after=after,
    )
    lost_rows = (
        counters.duplicates
        + counters.missing_bidder
        + thin_rows
        + inconsistent_rows
        + contradictory_rows
    )
    if after.records != before.records - lost_rows:
        raise InvariantError(
            "row accounting broke: "
            f"{before.records} - {lost_rows} != {after.records}"
        )
    lost_auctions = (
        report.low_bid_auctions_removed
        + report.inconsistent_auctions_removed
        + report.contradictory_auctions_removed
    )
    if after.auctions != before.auctions - lost_auctions:
        raise InvariantError(
            "auction accounting broke: "
            f"{before.auctions} - {lost_auctions} != {after.auctions}"
        )
    return views, report


def run_pipeline(
    records: Iterable[Mapping[str, str]], config: PipelineConfig | None = None
) -> tuple[list[AuctionView], CleansingReport]:
    """Run the whole cleansing chain over raw records.

    Accepts any iterable of column-name -> text mappings and streams
    it, so a generator (for instance a RawScanner) keeps peak memory at
    the projected row width. Each record is projected to the logical
    fields, in LOGICAL_FIELDS order, and enters the shared row pass;
    its text is parsed only once a row survives to be grouped. Returns
    the kept auctions as checked views, in id order, and the report.
    """
    config = config or PipelineConfig()
    config.validate()
    raw_names = tuple(config.schema[name] for name in LOGICAL_FIELDS)
    money = money_parser()
    countdown = countdown_parser(config.reference_epoch)
    raw_width = 0

    def project(rows: Iterable[Mapping[str, str]]):
        nonlocal raw_width
        pick_for: int | None = None
        for rec in rows:
            if isinstance(rec, RawRecord):
                index = rec.index
                if pick_for != id(index):
                    try:
                        pick = itemgetter(*(index[name] for name in raw_names))
                    except KeyError as exc:
                        raise SchemaError(f"missing required column {exc.args[0]!r}") from None
                    pick_for = id(index)
                cells = rec.project(pick)
            else:
                try:
                    cells = tuple(rec[name] for name in raw_names)
                except KeyError as exc:
                    raise SchemaError(f"missing required column {exc.args[0]!r}") from None
            if not raw_width:
                raw_width = len(rec)
            yield cells

    # id text -> one shared str, so a bidder's thousands of rows hold
    # one object, not one each.
    ids: dict[str, str] = {}

    def new_auction(cells: tuple[str, ...]) -> ParsedAuction:
        auction = _parse_auction_level(cells, config, money)
        auction.seller_id = ids.setdefault(auction.seller_id, auction.seller_id)
        return auction

    def new_bid(cells: tuple[str, ...]) -> tuple[int, Decimal, str]:
        try:
            when = countdown(cells[_BID_DATE], cells[_BID_TIME])
        except ParseError:
            # Keep the single-stage order: a malformed date or clock is
            # named first, then a bad amount, then an event past the epoch.
            merge_datetime(cells[_BID_DATE], cells[_BID_TIME])
            money(cells[_BID_AMOUNT])
            raise
        bidder = cells[_BIDDER]
        return (when, money(cells[_BID_AMOUNT]), ids.setdefault(bidder, bidder))

    groups, counters, before = _group_rows(
        project(records),
        config,
        _START_DATE,
        lambda cells: money(cells[_WINNING_PRICE]),
        _dedup_key,
        new_auction,
        new_bid,
    )
    counters.columns_dropped = max(0, raw_width - len(LOGICAL_FIELDS))
    before = replace(before, attributes=raw_width)
    # Free the parse caches and the id map before _finish builds the
    # views, so they add nothing to the peak.
    del money, countdown, ids
    return _finish(groups, before, counters, config)


# A typed record enters the row pass as its fields after record_id.
_record_cells = attrgetter(*PREPROCESSED_COLUMNS[1:])
_R = {name: i for i, name in enumerate(PREPROCESSED_COLUMNS[1:])}
_record_bid = itemgetter(_R["bid_submit_time_sec"], _R["bid_amount"], _R["bidder_id"])


def _record_auction(cells: tuple) -> ParsedAuction:
    key, seller, _, _, _, bidders, bids, starting, winning, duration, start, end = cells
    return ParsedAuction(key, seller, start, end, duration, starting, winning, bids, bidders)


def _run_typed(
    rows: Iterable[tuple], config: PipelineConfig | None
) -> tuple[list[AuctionView], CleansingReport]:
    config = config or PipelineConfig()
    config.validate()
    groups, counters, before = _group_rows(
        rows,
        config,
        _R["num_bidders"],
        itemgetter(_R["winning_bid"]),
        lambda cells: cells,
        _record_auction,
        _record_bid,
    )
    return _finish(groups, before, counters, config)


def run_pipeline_records(
    records: Iterable[BidRecord], config: PipelineConfig | None = None
) -> tuple[list[AuctionView], CleansingReport]:
    """Re-run the cleansing chain over the typed records of a bid table.

    Each record enters the same row pass as a raw row, as the tuple of
    its fields after record_id. That tuple is its own duplicate key, so
    record_id, which is re-assigned anyway, never tells two copies of a
    bid apart. Returns views and a report, as run_pipeline does.
    Cleansing is idempotent: feeding the pipeline the records of its
    own output reproduces that output exactly and reports zero removals.
    """
    return _run_typed(map(_record_cells, records), config)


def run_pipeline_table(
    path: str | Path, config: PipelineConfig | None = None
) -> tuple[list[AuctionView], CleansingReport]:
    """Re-run the cleansing chain over a bid table file, in one stream.

    Each row that ingest.read_bid_table reads enters the row pass as the
    tuple that run_pipeline_records makes of its record, with no record
    built, so the result is run_pipeline_records(read_preprocessed(path),
    config), which runs instead on a table read_bid_table leaves to the
    reference. The one difference is the order of errors: the table is
    not read whole first, so an auction-level disagreement raises before
    a cell that does not parse in a later row.
    """
    return read_bid_table(
        path,
        lambda rows: _run_typed(
            ((h[0], h[1], b.bidder_id, b.bid_amount, b.bid_submit_time_sec, *h[2:])
             for h, b in rows),
            config,
        ),
        lambda records: run_pipeline_records(records, config),
    )
