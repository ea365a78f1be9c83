"""File ingress and egress: raw scrape CSVs in, typed CSVs out.

This module frames every table the CLI reads or writes (_table reads,
_write_table writes): UTF-8, comma separated, a header row, LF line
endings, and a cell holding a comma, a quote, a line feed or a
carriage return quoted. Rows a reader cannot accept are never silently
dropped: they land in a SchemaReport and can be written to a
.rejects.csv sidecar. A line the csv module refuses, such as a cell
longer than csv.field_size_limit(), is a ParseError naming the file
and the row.

A bid table is read in one streaming pass, bid_rows, which parses each
auction's cells once; read_auctions and the preprocess re-cleanse
consume it. read_preprocessed parses every row in full, on its own, and
is the reference both are tested against.
"""
from __future__ import annotations

import csv
import io
from contextlib import contextmanager
from dataclasses import dataclass, field
from decimal import Decimal, InvalidOperation
from itertools import count
from operator import attrgetter
from pathlib import Path
from typing import Callable, Iterable, Iterator, Mapping, Sequence

from .errors import InvariantError, OutlierError, ParseError, SchemaError
from .model import (
    CENT,
    METRIC_COLUMNS,
    PREPROCESSED_COLUMNS,
    SB_COLUMNS,
    AuctionView,
    Bid,
    BidRecord,
    SBInstance,
    auction_view,
    check_dataset,
    validate_dataset,
    views_ok,
)

# Logical field -> raw column header. The keys are the contract; the
# header names can be remapped with a schema config file.
DEFAULT_RAW_SCHEMA: dict[str, str] = {
    "auction_url": "Auction URL",
    "seller_id": "Seller Name",
    "bidder_id": "Bidder ID",
    "bid_amount": "Bid Amount",
    "bid_date": "Bid Submission Date",
    "bid_time": "Bid Submission Time",
    "start_date": "Auction Starting Date",
    "start_time": "Auction Starting Time",
    "end_date": "Auction End Date",
    "end_time": "Auction End Time",
    "duration_days": "Auction Duration",
    "starting_price": "Starting Price",
    "winning_price": "Winning Bid",
    "num_bids": "Number of Bids",
    "num_bidders": "Number of Bidders",
}

LOGICAL_FIELDS = tuple(DEFAULT_RAW_SCHEMA)


def load_raw_schema(path: str | Path) -> dict[str, str]:
    """Parse a key=value schema file mapping logical field -> header."""
    mapping: dict[str, str] = {}
    for lineno, line in enumerate(Path(path).read_text(encoding="utf-8-sig").splitlines(), 1):
        text = line.strip()
        if not text or text.startswith("#"):
            continue
        if "=" not in text:
            raise SchemaError(f"{path}:{lineno}: expected key=value, got {line!r}")
        key, _, value = text.partition("=")
        key = key.strip()
        value = value.strip()
        if key not in LOGICAL_FIELDS:
            raise SchemaError(f"{path}:{lineno}: unknown logical field {key!r}")
        if key in mapping:
            raise SchemaError(f"{path}:{lineno}: duplicate entry for {key!r}")
        if not value:
            raise SchemaError(f"{path}:{lineno}: empty column name for {key!r}")
        mapping[key] = value
    missing = [name for name in LOGICAL_FIELDS if name not in mapping]
    if missing:
        raise SchemaError(f"{path}: schema file is missing {', '.join(missing)}")
    seen: dict[str, str] = {}
    for key, value in mapping.items():
        if value in seen:
            raise SchemaError(
                f"{path}: column {value!r} mapped by both {seen[value]!r} and {key!r}"
            )
        seen[value] = key
    return mapping


_LAYOUT_NAMES = {PREPROCESSED_COLUMNS: "preprocessed", SB_COLUMNS: "SB dataset"}


@contextmanager
def _table(
    path: str | Path, layout: tuple[str, ...] | None = None
) -> Iterator[tuple[tuple[str, ...], Iterator[tuple[int, list[str]]]]]:
    """Open a CSV table; yield its header and its (n, cells) data rows.

    n counts data rows from 1. A leading byte-order mark is skipped
    before the header is parsed, so its first cell may be quoted. The
    header must exist, parse and, when a layout is given, be that
    layout. A line the csv reader refuses is a ParseError naming the
    file and the header or the row.
    """
    with open(path, "r", encoding="utf-8", newline="") as handle:
        # Skip a byte-order mark, as spreadsheet exports write one.
        if handle.read(1) != "\ufeff":
            handle.seek(0)
        reader = csv.reader(handle)
        try:
            header = tuple(next(reader))
        except StopIteration:
            raise SchemaError(f"{path}: empty file, no header row") from None
        except csv.Error as exc:
            raise ParseError(f"{path}:header: {exc}") from None
        if layout is not None and header != layout:
            raise SchemaError(
                f"{path}: header does not match the {_LAYOUT_NAMES[layout]} layout"
            )
        numbers = count(1)
        try:
            yield header, zip(numbers, reader)
        except csv.Error as exc:
            # zip draws a row's number before the reader refuses its line.
            raise ParseError(f"{path}:row {next(numbers) - 1}: {exc}") from None


def read_header(path: str | Path) -> tuple[str, ...]:
    """The header row of a CSV table, which must exist and parse."""
    with _table(path) as (header, _):
        return header


def _write_table(path: str | Path, columns: Sequence[str], lines: Iterable[str]) -> None:
    """Write a header row of columns, then lines, rendered rows ending in LF."""
    with open(path, "w", encoding="utf-8", newline="") as handle:
        handle.write(",".join(columns) + "\n")
        handle.writelines(lines)


def _csv_row(cells: Iterable[object]) -> str:
    """cells as csv.writer writes them as one row, with no line end.

    csv.writer quotes a text holding a character of its terminator; a
    CRLF terminator quotes a bare CR too, which a reader would split on.
    """
    buffer = io.StringIO()
    csv.writer(buffer, lineterminator="\r\n").writerow(cells)
    return buffer.getvalue()[:-2]


class _CsvCells(dict):
    """text -> that text as _csv_row writes it inside a row, rendered once."""

    def __missing__(self, text: str) -> str:
        # With an empty cell after it: alone, an empty text is written as "".
        rendered = self[text] = _csv_row((text, ""))[:-1]
        return rendered


class RawRecord(Mapping[str, str]):
    """A raw CSV row as a read-only column-name -> text mapping.

    The header index is shared across all rows of a file, so a record
    costs one tuple of cell values plus a pointer.
    """

    __slots__ = ("_columns", "_index", "_values")

    def __init__(self, columns: tuple[str, ...], index: dict[str, int], values: tuple[str, ...]):
        self._columns = columns
        self._index = index
        self._values = values

    def __getitem__(self, key: str) -> str:
        return self._values[self._index[key]]

    def __iter__(self) -> Iterator[str]:
        return iter(self._columns)

    def __len__(self) -> int:
        return len(self._columns)

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"RawRecord({dict(self)!r})"

    def project(self, pick: Callable[[tuple[str, ...]], tuple[str, ...]]) -> tuple[str, ...]:
        """Apply pick, an operator.itemgetter over cell positions, to the cells.

        The fast path for bulk pipelines: one C call per row.
        """
        return pick(self._values)

    @property
    def index(self) -> dict[str, int]:
        return self._index


@dataclass(frozen=True, slots=True)
class RejectedRow:
    row: int  # 1-based position among data rows
    reason: str
    cells: tuple[str, ...]


@dataclass
class SchemaReport:
    """What the raw reader saw: header, totals, misses, rejects."""

    columns: tuple[str, ...] = ()
    row_count: int = 0
    accepted_count: int = 0
    missing_values: dict[str, int] = field(default_factory=dict)
    rejections: list[RejectedRow] = field(default_factory=list)

    @property
    def rejected_count(self) -> int:
        return len(self.rejections)

    def to_dict(self) -> dict:
        return {
            "columns": list(self.columns),
            "rows": self.row_count,
            "accepted": self.accepted_count,
            "rejected": self.rejected_count,
            "missing_values": dict(self.missing_values),
            "rejections": [
                {"row": r.row, "reason": r.reason} for r in self.rejections
            ],
        }


class RawScanner:
    """Streams accepted rows of a raw CSV while building a SchemaReport.

    Iterate it once; afterwards .report holds the final accounting.
    """

    def __init__(self, path: str | Path, schema: Mapping[str, str] | None = None):
        self.path = Path(path)
        self.schema = dict(schema) if schema is not None else dict(DEFAULT_RAW_SCHEMA)
        self.report = SchemaReport()
        self._consumed = False

    def __iter__(self) -> Iterator[RawRecord]:
        if self._consumed:
            raise RuntimeError("RawScanner can only be iterated once")
        self._consumed = True
        with _table(self.path) as (columns, rows):
            index: dict[str, int] = {}
            for pos, name in enumerate(columns):
                index.setdefault(name, pos)
            required = set(self.schema.values())
            missing = sorted(required - set(columns))
            if missing:
                raise SchemaError(
                    f"{self.path}: header is missing required columns: {', '.join(missing)}"
                )
            dupes = sorted(
                name for name in required if columns.count(name) > 1
            )
            if dupes:
                raise SchemaError(
                    f"{self.path}: required columns appear more than once: {', '.join(dupes)}"
                )
            report = self.report
            report.columns = columns
            misses = dict.fromkeys(columns, 0)
            width = len(columns)
            n = 0
            accepted = 0
            for n, cells in rows:
                if len(cells) != width:
                    report.rejections.append(
                        RejectedRow(
                            row=n,
                            reason=f"column count: expected {width}, got {len(cells)}",
                            cells=tuple(cells),
                        )
                    )
                    continue
                accepted += 1
                if "" in cells:
                    for pos, value in enumerate(cells):
                        if not value:
                            misses[columns[pos]] += 1
                yield RawRecord(columns, index, tuple(cells))
            report.row_count = n
            report.accepted_count = accepted
            report.missing_values = misses


def read_raw(
    path: str | Path, schema: Mapping[str, str] | None = None
) -> tuple[list[RawRecord], SchemaReport]:
    """Read a raw scrape CSV into records plus a SchemaReport."""
    scanner = RawScanner(path, schema)
    records = list(scanner)
    return records, scanner.report


def write_rejects(report: SchemaReport, path: str | Path) -> None:
    """Write rejected raw rows, each as one CSV line, with their reasons."""
    _write_table(path, ("row", "reason", "content"), (
        _csv_row((rej.row, rej.reason, _csv_row(rej.cells))) + "\n"
        for rej in report.rejections
    ))


_auction_id = attrgetter("auction_id")


def write_preprocessed(
    auctions: Sequence[AuctionView], path: str | Path, *, validate: bool = True
) -> None:
    """Write the cleaned bid table, one row per bid; aborts if a check fails.

    Rows are ordered by (auction_id, descending bid_submit_time_sec,
    record_id), so repeated writes of the same views are byte-identical
    whatever the order of the views and of their bids (views sharing an
    auction_id are written one after the other). The bytes are those
    csv.writer gives; each view's auction-level cells are rendered once.
    validate=True runs check_dataset first; a caller that has just
    checked the views (the pipeline checks its own output) may pass
    validate=False to skip the duplicate pass.
    """
    if validate:
        check_dataset(auctions)
    cell = _CsvCells()

    def rows(view: AuctionView) -> str:
        auction = f",{view.auction_id},{cell[view.seller_id]},"
        tail = (
            f",{view.num_bidders},{view.num_bids},{view.starting_price!s},"
            f"{view.winning_bid!s},{view.auction_duration_sec},"
            f"{view.start_time_sec},{view.end_time_sec}\n"
        )
        return "".join([
            f"{bid.record_id}{auction}{cell[bid.bidder_id]},"
            f"{bid.bid_amount!s},{bid.bid_submit_time_sec}{tail}"
            for bid in sorted(
                view.bids, key=lambda b: (-b.bid_submit_time_sec, b.record_id)
            )
        ])

    _write_table(path, PREPROCESSED_COLUMNS, map(rows, sorted(auctions, key=_auction_id)))


def _parse_int(text: str, what: str, where: str) -> int:
    try:
        return int(text)
    except ValueError:
        raise ParseError(f"{where}: {what} is not an integer: {text!r}") from None


def _parse_cents(text: str, what: str, where: str) -> Decimal:
    try:
        value = Decimal(text)
    except InvalidOperation:
        raise ParseError(f"{where}: {what} is not a number: {text!r}") from None
    if not value.is_finite():
        raise ParseError(f"{where}: {what} is not a 2-digit amount: {text!r}")
    try:
        cents = value.quantize(CENT)
    except InvalidOperation:
        # More digits than the decimal context holds.
        raise ParseError(f"{where}: {what} is out of range: {text!r}") from None
    if value != cents:
        raise ParseError(f"{where}: {what} is not a 2-digit amount: {text!r}")
    return cents


def _parse_preprocessed_row(cells: Sequence[str], where: str) -> BidRecord:
    if len(cells) != len(PREPROCESSED_COLUMNS):
        raise ParseError(
            f"{where}: expected {len(PREPROCESSED_COLUMNS)} cells, got {len(cells)}"
        )
    return BidRecord(
        _parse_int(cells[0], "record_id", where),
        _parse_int(cells[1], "auction_id", where),
        cells[2],
        cells[3],
        _parse_cents(cells[4], "bid_amount", where),
        _parse_int(cells[5], "bid_submit_time_sec", where),
        _parse_int(cells[6], "num_bidders", where),
        _parse_int(cells[7], "num_bids", where),
        _parse_cents(cells[8], "starting_price", where),
        _parse_cents(cells[9], "winning_bid", where),
        _parse_int(cells[10], "auction_duration_sec", where),
        _parse_int(cells[11], "start_time_sec", where),
        _parse_int(cells[12], "end_time_sec", where),
    )


def read_preprocessed(path: str | Path) -> list[BidRecord]:
    """Read a previously written bid table back into typed records.

    Every row is parsed in full and on its own, with no shared state, so
    this reader, with validate_dataset, is the reference that the
    streaming pass of bid_rows is tested against.
    """
    with _table(path, PREPROCESSED_COLUMNS) as (_, rows):
        return [_parse_preprocessed_row(cells, f"{path}:row {n}") for n, cells in rows]


def bid_rows(path: str | Path) -> Iterator[tuple[int, BidRecord, str, Decimal, int]]:
    """Stream a bid table as (record_id, head, bidder_id, amount, time) rows.

    head is a BidRecord whose auction-level fields are the row's. The
    first row of each auction_id text is parsed in full and is its own
    head. A later row that repeats that row's seller and auction-level
    cells as text shares its head, and only its record_id, bid_amount
    and bid_submit_time_sec are parsed, each distinct amount text once.
    Any other row is parsed in full and is its own head. Every seller
    and bidder id text is one shared str. A row that does not parse
    raises what read_preprocessed raises for it.
    """
    width = len(PREPROCESSED_COLUMNS)
    # auction_id text -> (seller text, auction-level cells, head)
    firsts: dict[str, tuple[str, list[str], BidRecord]] = {}
    amounts: dict[str, Decimal] = {}
    ids: dict[str, str] = {}
    with _table(path, PREPROCESSED_COLUMNS) as (_, rows):
        for n, cells in rows:
            first = firsts.get(cells[1]) if len(cells) == width else None
            if first is not None and cells[2] == first[0] and cells[6:] == first[1]:
                try:
                    record_id = int(cells[0])
                    amount = amounts.get(cells[4])
                    if amount is None:
                        amount = amounts[cells[4]] = _parse_cents(
                            cells[4], "bid_amount", ""
                        )
                    submitted = int(cells[5])
                except (ValueError, ParseError):
                    # Reparse the row in full for the exact error.
                    _parse_preprocessed_row(cells, f"{path}:row {n}")
                    raise
                bidder = cells[3]
                yield record_id, first[2], ids.setdefault(bidder, bidder), amount, submitted
            else:
                # Share the seller and bidder id texts.
                cells[2:4] = [ids.setdefault(text, text) for text in cells[2:4]]
                head = _parse_preprocessed_row(cells, f"{path}:row {n}")
                firsts.setdefault(cells[1], (cells[2], cells[6:], head))
                yield (
                    head.record_id, head, head.bidder_id, head.bid_amount,
                    head.bid_submit_time_sec,
                )


def _stream_auctions(path: str | Path) -> list[AuctionView] | None:
    """The one streaming pass of read_auctions, over bid_rows.

    A row that does not parse raises what bid_rows raises, the
    reference's error. Returns None as soon as the table holds anything
    else it does not take as-is; read_auctions then runs the reference
    path, which finds and reports it.
    """
    # auction_id -> (head, bids)
    auctions: dict[int, tuple[BidRecord, list[Bid]]] = {}
    current = None
    for record_id, head, bidder, amount, submitted in bid_rows(path):
        if head is not current:
            # An auction's rows usually arrive together: look it up
            # only when the auction changes.
            current = head
            entry = auctions.setdefault(head.auction_id, (head, []))
            if entry[0] is not head:
                # Auction-level text that differs from the auction's
                # first row, or a second spelling of its id ("01").
                return None
            bids = entry[1]
        bids.append(Bid(bidder, amount, submitted, record_id))
    views = [auction_view(*auctions[aid]) for aid in sorted(auctions)]
    return views if views_ok(views) else None


def read_auctions(path: str | Path) -> list[AuctionView]:
    """Read a bid table into checked auction views in one streaming pass.

    Returns exactly what validate_dataset(read_preprocessed(path))
    returns, without building a BidRecord per row or regrouping the
    rows. The rows come from bid_rows; every row of an auction must
    share the head of the auction's first row. The views are then
    checked with model.views_ok, check_dataset's own test. A row that
    does not parse (a ragged row, a cell that does not parse, a line
    the csv reader refuses) raises the reference's ParseError from
    bid_rows. Any other table this pass does not take as-is
    (auction-level text that differs, any broken rule, ids that are not
    dense or not in the pipeline's order) goes through the reference
    path, so every result, error text and type is the reference's.
    """
    views = _stream_auctions(path)
    if views is None:
        views = validate_dataset(read_preprocessed(path))
    return views


def check_sb_dataset(instances: Sequence[SBInstance]) -> bool:
    """Raise if a feature dataset breaks its contract; else True if its pairs ascend.

    The instances are checked in turn, and the first one that breaks a
    rule raises: its (auction, bidder) pair repeats an earlier one
    (InvariantError); else a metric lies outside [0, 1], NaN included,
    and the first such in METRIC_COLUMNS order is named (OutlierError);
    else successive_outbidding is not one of {0, 0.5, 1}
    (InvariantError).
    """
    seen: set[tuple[int, str]] = set()
    ascending = True
    last: tuple = ()
    for inst in instances:
        pair = (inst.auction_id, inst.bidder_id)
        if pair in seen:
            raise InvariantError(
                f"duplicate instance for auction {inst.auction_id}, bidder {inst.bidder_id!r}"
            )
        seen.add(pair)
        if pair < last:
            ascending = False
        last = pair
        values = inst.metric_values()
        for value in values:
            # Not min/max: NaN compares false, so only this form rejects it.
            if not 0.0 <= value <= 1.0:
                # Every earlier value passed, so none equals this one.
                name = METRIC_COLUMNS[values.index(value)]
                raise OutlierError(
                    f"auction {inst.auction_id}, bidder {inst.bidder_id!r}: "
                    f"{name}={value!r} outside [0, 1]"
                )
        if inst.successive_outbidding not in (0.0, 0.5, 1.0):
            raise InvariantError(
                f"auction {inst.auction_id}, bidder {inst.bidder_id!r}: "
                f"successive_outbidding={inst.successive_outbidding!r} not in {{0, 0.5, 1}}"
            )
    return ascending


_sb_pair = attrgetter("auction_id", "bidder_id")
# One %-format call renders a row's eight metrics as "{:.6f}" would.
_six_decimal_metrics = ",".join(["%.6f"] * len(METRIC_COLUMNS))


def write_sb_dataset(instances: Sequence[SBInstance], path: str | Path) -> None:
    """Write the feature dataset with six fixed decimals per metric.

    Runs check_sb_dataset first, so a broken dataset never reaches
    disk. Rows are ordered by (auction_id, bidder_id); instances already
    in that order, as build_sb_dataset returns them, are not re-sorted.
    Each row holds the bytes csv.writer writes for it, except that a
    bidder id holding a bare carriage return is quoted, so it reads back.
    """
    if not check_sb_dataset(instances):
        instances = sorted(instances, key=_sb_pair)
    cell = _CsvCells()
    _write_table(path, SB_COLUMNS, (
        f"{inst.auction_id},{cell[inst.bidder_id]},"
        f"{_six_decimal_metrics % inst.metric_values()}\n"
        for inst in instances
    ))


def write_scores(
    instances: Iterable[SBInstance], score: Callable[[SBInstance], float], path: str | Path
) -> None:
    """Write score(instance) to six decimals per instance, in the given order."""
    cell = _CsvCells()
    _write_table(path, ("auction_id", "bidder_id", "weighted_score"), (
        f"{inst.auction_id},{cell[inst.bidder_id]},{score(inst):.6f}\n" for inst in instances
    ))


def read_sb_dataset(path: str | Path) -> list[SBInstance]:
    """Read a feature dataset; values are parsed but not range-checked."""
    width = len(SB_COLUMNS)
    instances: list[SBInstance] = []
    with _table(path, SB_COLUMNS) as (_, rows):
        for n, cells in rows:
            if len(cells) != width:
                raise ParseError(
                    f"{path}:row {n}: expected {width} cells, got {len(cells)}"
                )
            try:
                instances.append(
                    SBInstance(int(cells[0]), cells[1], *map(float, cells[2:]))
                )
            except ValueError:
                _raise_sb_cell_error(cells, f"{path}:row {n}")
                raise
    return instances


def _raise_sb_cell_error(cells: Sequence[str], where: str) -> None:
    """Raise the ParseError for the first feature-table cell that does not parse."""
    for text in cells[2:]:
        try:
            float(text)
        except ValueError:
            raise ParseError(f"{where}: metric cell is not a number") from None
    _parse_int(cells[0], "auction_id", where)
