"""Cleansing pipeline: raw scrape rows to a validated bid table.

Stage order is fixed. One streaming row pass applies the optional
winning-price floor, collapses exact duplicates, drops rows with a
blank bidder id and groups the rest into auctions, checking that each
auction's rows agree. Inside the cleanse an auction is (head, times,
amounts, bidders): head holds AuctionView's fields before its bid
columns, with the auction's key where the id goes, and the lists hold
each bid's time, amount and bidder id at one position. Then one walk
in start order, assign_identifiers, reconciles each auction's scraped
counts with its rows, drops it when it has too few bids, else when its
built view breaks a rule of the bid table, filed by the rule
model.auction_fault names, and numbers the rest densely. The result is
one AuctionView per kept auction, numbered and checked, which
ingest.write_preprocessed writes as it is.

The row pass is written once and shared by both input layouts, as
(head, bid) pairs of an auction's cells and a bid's; the readers give
all rows of an auction one head object, so the pass compares heads by
identity first. run_pipeline feeds it the pairs of
ingest.RawScanner.pairs, or of any other raw records, parsing date,
clock and money text only for rows that survive to be grouped.
run_pipeline_table feeds it the typed rows of a bid table as
ingest.bid_rows streams them, each line read once, and
run_pipeline_records the fields of typed records. assign_identifiers
has its own unit tests. The row pass is tested as a whole: the golden
files pin its bytes, and the removal counts are checked against the
defect manifest of a synthetic corpus.
"""
from __future__ import annotations

import functools
import logging
from collections import Counter
from dataclasses import asdict, dataclass, field, replace
from datetime import datetime
from decimal import ROUND_HALF_UP, Decimal, InvalidOperation
from operator import itemgetter
from pathlib import Path
import re
from typing import Callable, Iterable, Iterator, Mapping

from .errors import (
    ConfigError,
    DataConsistencyError,
    InvariantError,
    ParseError,
    SchemaError,
)
from .ingest import (
    BID_FIELDS, DEFAULT_RAW_SCHEMA, HEAD_FIELDS, LOGICAL_FIELDS, RawScanner, SchemaReport,
    bid_rows,
)
from .model import (
    CENT, INCONSISTENT_PRICE, PREPROCESSED_COLUMNS, AuctionView, BidRecord,
    auction_fault, check_ids, record_bid, record_head,
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


# An amount as a scrape writes it: parse_money's result is the Decimal
# of its text before " $", whose 22 digits fit the decimal context.
_PLAIN_MONEY = re.compile(r"[0-9]{1,20}\.[0-9]{2} \$")


def money_parser() -> Callable[[str], Decimal]:
    """Return parse_money behind a text -> Decimal cache.

    Each distinct text is parsed once and every row with the same text
    shares one Decimal. A text in the scrape's own form, "123.45 $",
    skips parse_money's search for the number.
    """
    @functools.cache
    def parse(text: str) -> Decimal:
        if _PLAIN_MONEY.fullmatch(text):
            return Decimal(text[:-2])
        return parse_money(text)

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


# One auction inside the cleanse, as the module docstring describes it;
# the key is the URL text or the bid-table id.
_Auction = tuple[tuple, list[int], list[Decimal], list[str]]


def _bid_order(bid: tuple[int, Decimal, str]) -> tuple[int, Decimal, str]:
    # Earliest first (time counts down), then by amount, then bidder:
    # the greatest bid is the chronologically last, and of two in the
    # same second the higher.
    return (-bid[0], bid[1], bid[2])


def assign_identifiers(
    auctions: Iterable[_Auction], min_bids: int
) -> tuple[list[AuctionView], list[_Auction], list[_Auction], list[_Auction], int, int]:
    """Reconcile and judge each auction; number and build a view of each one kept.

    Returns (views, thin, inconsistent, contradictory, bids_fixed,
    bidders_fixed). Auctions are walked once from the earliest start
    (largest start countdown), ties broken by key. Each auction's stored
    bid and bidder counts are set to those of its rows, which are the
    ground truth: the scraped numbers may predate row-level cleansing or
    simply be corrupt. bids_fixed and bidders_fixed count the auctions,
    thin ones included, whose count that changed. Then each goes to the
    first of these it falls under: thin when it has fewer than min_bids
    bids; else inconsistent when the first rule its view breaks, as
    model.auction_fault names it, is INCONSISTENT_PRICE (its
    chronologically last bid or its starting price above its winning
    price), contradictory when it is any other.

    A kept auction takes the next auction id, 1..N, and its bids,
    sorted by (descending time, amount, bidder), the next record ids,
    1..M; a dropped one takes none. Both numberings depend only on row
    content, never on input order, and along each view the record ids
    ascend, so its bids are in AuctionView's canonical order. A kept
    auction's lists are emptied once its view holds the bids.
    """
    views: list[AuctionView] = []
    thin: list[_Auction] = []
    inconsistent: list[_Auction] = []
    contradictory: list[_Auction] = []
    bids_fixed = bidders_fixed = 0
    record_id = 1
    # head[7] is the start countdown, head[0] the key.
    for auction in sorted(auctions, key=lambda a: (-a[0][7], a[0][0])):
        head, *columns = auction
        num_bids, num_bidders = len(columns[0]), len(set(columns[2]))
        bids_fixed += head[3] != num_bids
        bidders_fixed += head[2] != num_bidders
        if num_bids < min_bids:
            thin.append(auction)
            continue
        view = AuctionView(
            len(views) + 1, head[1], num_bidders, num_bids, *head[4:],
            *zip(*sorted(zip(*columns), key=_bid_order)),
            tuple(range(record_id, record_id + num_bids)),
        )
        fault = auction_fault(view)
        if fault is None:
            views.append(view)
            record_id += num_bids
            for column in columns:
                column.clear()
        elif fault.startswith(INCONSISTENT_PRICE):
            inconsistent.append(auction)
        else:
            contradictory.append(auction)
    return views, thin, inconsistent, contradictory, bids_fixed, bidders_fixed


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


_WINNING_PRICE = HEAD_FIELDS.index("winning_price")


def _dedup_key(cells: tuple[str, ...]):
    key = "\x1f".join(cells)
    # A cell embedding the separator would make the join ambiguous;
    # fall back to the exact tuple for those rows.
    if key.count("\x1f") != len(cells) - 1:
        return cells
    return key


def _parse_auction_level(
    head: tuple[str, ...],
    config: PipelineConfig,
    money: Callable[[str], Decimal],
    ids: dict[str, str],
) -> tuple:
    """The head of a raw auction in AuctionView's field order, its key
    where the id goes and its seller the one str of ids for that text."""
    # The cells of ingest.HEAD_FIELDS, in its order.
    key, seller, start_date, start_clock, end_date, end_clock, days, starting, winning, \
        num_bids, num_bidders = head
    where = f"auction {key!r}"
    start_dt = merge_datetime(start_date, start_clock)
    end_dt = merge_datetime(end_date, end_clock)
    try:
        duration_sec = duration_days_to_seconds(int(days))
    except ValueError:
        raise ParseError(f"{where}: duration is not an integer: {days!r}") from None
    try:
        num_bids, num_bidders = int(num_bids), int(num_bidders)
    except ValueError:
        raise ParseError(f"{where}: bid/bidder counts are not integers") from None
    return (
        key, ids.setdefault(seller, seller), num_bidders, num_bids,
        money(starting), money(winning), duration_sec,
        to_countdown_seconds(start_dt, config.reference_epoch),
        to_countdown_seconds(end_dt, config.reference_epoch),
    )


@dataclass
class _Counters:
    columns_dropped: int = 0
    duplicates: int = 0
    missing_bidder: int = 0
    price_filtered: int = 0


def _group_rows(
    rows: Iterable[tuple[tuple, tuple]],
    config: PipelineConfig,
    winning: Callable[[tuple], Decimal],
    dedup_key: Callable[[tuple], object],
    new_head: Callable[[tuple], tuple],
    new_bid: Callable[[tuple], tuple[int, Decimal, str]],
) -> tuple[list[_Auction], _Counters, Totals]:
    """The row-wise stages, one streaming pass shared by both layouts.

    Each row is a (head, bid) pair: head holds the auction-level cells,
    its auction key and seller first, and bid the bid-level cells, its
    bidder last. A row is dropped by the winning-price floor, else
    counted into the before totals, then dropped if its dedup_key was
    seen, then if its bidder is blank. What is left joins its auction's
    group, (new_head(head), times, amounts, bidders) made from the
    first such row's head, which every later row must repeat, and adds
    new_bid(bid), a (time, amount, bidder), to the three lists.
    before.attributes is the bid table's width; the raw adapter sets the
    scrape's.

    Readers share one head object among the rows of an auction, so
    "same head" is tested by identity first, then by ==. Each auction
    key keeps one entry, the head of its first row that passes the floor
    and a short token. A row with its entry's head is keyed by
    dedup_key of the token and its bid cells; any other by dedup_key of
    its head and bid cells, which has more cells. Two rows are
    duplicates exactly when they are equal. The entry's head also serves
    the grouping check, unless the group's first row has another (every
    earlier row of the auction was dropped, for a blank bidder or as a
    copy): then that group's head is held apart.
    """
    min_price = config.min_winning_price
    counters = _Counters()
    seen: set = set()
    # auction key -> (head of its first row, token)
    entries: dict = {}
    # auction key -> head of a group that differs from its auction's entry
    apart: dict = {}
    bidders_seen: set[str] = set()
    sellers_seen: set[str] = set()
    rows_before = 0
    groups: dict = {}

    last = None
    for head, bid in rows:
        if min_price is not None and winning(head) <= min_price:
            counters.price_filtered += 1
            continue

        rows_before += 1
        if head is not last:
            # The first of a run of rows that share one head object.
            last = head
            key = head[0]
            sellers_seen.add(head[1])
            entry = entries.get(key)
            if entry is None:
                entry = entries[key] = (head, str(len(entries)))
            same = head is entry[0] or head == entry[0]
            mark = (entry[1],) if same else head
            times = None
        bidder = bid[-1]
        blank = not bidder or bidder.isspace()
        if not blank:
            bidders_seen.add(bidder)

        dup = dedup_key(mark + bid)
        if dup in seen:
            counters.duplicates += 1
            continue
        seen.add(dup)

        if blank:
            counters.missing_bidder += 1
            continue

        if times is None:
            group = groups.get(key)
            if group is None:
                groups[key] = group = (new_head(head), [], [], [])
                if not same:
                    apart[key] = head
            elif (not same or key in apart) and apart.get(key) != head:
                raise DataConsistencyError(
                    f"auction {key!r}: rows disagree on auction-level fields"
                )
            _, times, amounts, bidders = group
        time, amount, bidder = new_bid(bid)
        times.append(time)
        amounts.append(amount)
        bidders.append(bidder)

    before = Totals(
        auctions=len(entries),
        records=rows_before,
        bidder_ids=len(bidders_seen),
        seller_ids=len(sellers_seen),
        attributes=len(PREPROCESSED_COLUMNS),
    )
    # A list: the dict's table is freed before _finish builds the views.
    return list(groups.values()), counters, before


def _finish(
    auctions: list[_Auction],
    before: Totals,
    counters: _Counters,
    config: PipelineConfig,
) -> tuple[list[AuctionView], CleansingReport]:
    views, thin, inconsistent, contradictory, bids_fixed, bidders_fixed = (
        assign_identifiers(auctions, config.min_bids)
    )
    check_ids(views)

    thin_rows = sum(len(auction[1]) for auction in thin)
    inconsistent_rows = sum(len(auction[1]) for auction in inconsistent)
    contradictory_rows = sum(len(auction[1]) for auction in contradictory)

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
        records=sum(len(v.bidder_ids) for v in views),
        bidder_ids=len({bidder for v in views for bidder in v.bidder_ids}),
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


def _mapping_pairs(
    records: Iterable[Mapping[str, str]], schema: Mapping[str, str], report: SchemaReport
) -> Iterator[tuple[tuple[str, ...], tuple[str, ...]]]:
    """(head, bid) pairs of column-name -> text mappings, as RawScanner.pairs
    makes them; report takes the first record's columns and the count."""
    head_names = [schema[name] for name in HEAD_FIELDS]
    bid_names = [schema[name] for name in BID_FIELDS]
    for rec in records:
        try:
            pair = tuple(rec[name] for name in head_names), tuple(rec[name] for name in bid_names)
        except KeyError as exc:
            raise SchemaError(f"missing required column {exc.args[0]!r}") from None
        if not report.row_count:
            report.columns = tuple(rec)
        report.row_count += 1
        yield pair


def run_pipeline(
    records: Iterable[Mapping[str, str]], config: PipelineConfig | None = None
) -> tuple[list[AuctionView], CleansingReport]:
    """Run the whole cleansing chain over raw records.

    Accepts any iterable of column-name -> text mappings and streams
    it, so a generator keeps peak memory at the projected row width. A
    RawScanner over config's schema enters the shared row pass through
    its pairs(), which parse an auction's cells once; any other records
    are projected to the same (head, bid) pairs. A row's text is parsed
    only once it survives to be grouped. Returns the kept auctions as
    checked views, in id order, and the report.
    """
    config = config or PipelineConfig()
    config.validate()
    money = money_parser()
    countdown = countdown_parser(config.reference_epoch)
    if isinstance(records, RawScanner) and records.schema == dict(config.schema):
        rows, source = records.pairs(), records.report
    else:
        source = SchemaReport()
        rows = _mapping_pairs(records, config.schema, source)

    # id text -> one shared str, so a bidder's thousands of rows hold
    # one object, not one each.
    ids: dict[str, str] = {}

    def new_bid(bid: tuple[str, ...]) -> tuple[int, Decimal, str]:
        date, clock, amount, bidder = bid
        try:
            when = countdown(date, clock)
        except ParseError:
            # Keep the single-stage order: a malformed date or clock is
            # named first, then a bad amount, then an event past the epoch.
            merge_datetime(date, clock)
            money(amount)
            raise
        return (when, money(amount), ids.setdefault(bidder, bidder))

    auctions, counters, before = _group_rows(
        rows,
        config,
        lambda head: money(head[_WINNING_PRICE]),
        _dedup_key,
        lambda head: _parse_auction_level(head, config, money, ids),
        new_bid,
    )
    raw_width = len(source.columns) if source.accepted_count else 0
    counters.columns_dropped = max(0, raw_width - len(LOGICAL_FIELDS))
    before = replace(before, attributes=raw_width)
    # Free the parse caches and the id map before _finish builds the
    # views, so they add nothing to the peak.
    del money, countdown, ids
    return _finish(auctions, before, counters, config)


def _run_typed(
    rows: Iterable[tuple[tuple, tuple]], config: PipelineConfig | None
) -> tuple[list[AuctionView], CleansingReport]:
    config = config or PipelineConfig()
    config.validate()
    # tuple() of a tuple is that tuple: a bid is its own key cells, and
    # a head and a bid are kept as they are.
    auctions, counters, before = _group_rows(
        rows, config, itemgetter(5), tuple, tuple, tuple
    )
    return _finish(auctions, before, counters, config)


def run_pipeline_records(
    records: Iterable[BidRecord], config: PipelineConfig | None = None
) -> tuple[list[AuctionView], CleansingReport]:
    """Re-run the cleansing chain over the typed records of a bid table.

    Each record enters the same row pass as a raw row, as the pair of
    its auction fields and its bid fields, without record_id: so
    record_id, which is re-assigned anyway, never tells two copies of a
    bid apart. Returns views and a report, as run_pipeline does.
    Cleansing is idempotent: feeding the pipeline the records of its
    own output reproduces that output exactly and reports zero removals.
    """
    return _run_typed(((record_head(r), record_bid(r)[:3]) for r in records), config)


def run_pipeline_table(
    path: str | Path, config: PipelineConfig | None = None
) -> tuple[list[AuctionView], CleansingReport]:
    """Re-run the cleansing chain over a bid table file, in one stream.

    Each row that ingest.bid_rows reads enters the row pass as the pair
    run_pipeline_records makes of its record, with the head that its
    auction's rows share and no record built, so the result is
    run_pipeline_records(read_preprocessed(path), config). The one
    difference is the order of errors: the table is not read whole
    first, so an auction-level disagreement raises before a cell that
    does not parse in a later row.
    """
    return _run_typed(((head, bid[:3]) for head, bid in bid_rows(path)), config)
