"""File ingress and egress: raw scrape CSVs in, typed CSVs out.

This module frames every table the CLI reads or writes (_table reads,
_write_table writes): UTF-8, comma separated, a header row, LF line
endings, and a cell holding a comma, a quote, a line feed or a
carriage return quoted. Rows a reader cannot accept are never silently
dropped: they land in a SchemaReport and can be written to a
.rejects.csv sidecar. A line the csv module refuses, such as a cell
longer than csv.field_size_limit(), is a ParseError naming the file
and the row.

A raw scrape reaches the pipeline through RawScanner.pairs, which
parses each auction's cells once. The text before the first bid column
repeats on every row of an auction, so a line that starts with the
prefix of the line before it shares that line's head and has only its
rest split on commas. A line without such a prefix, or whose rest holds
a quote or a CR, has the wrong cell count or another auction cell, and
a line over the field limit or without a final LF, goes to
_csv_records: one csv.reader that reads the record starting at that
line, so rows are numbered as csv records. Iterating a RawScanner
reads every row with csv.reader into a RawRecord: read_raw, the
reference the prefix path is tested against.

A bid table is read line by line in one pass, bid_rows, which splits
each line on commas, parses an auction's cells once and yields each bid
as a plain tuple; read_auctions and the preprocess re-cleanse consume
it. A line that split may not read as csv does goes to _csv_records
too, so each line of either table is read once. read_preprocessed,
which reads every row with csv.reader and parses it in full and on its
own, is the reference that bid_rows is tested against; nothing in the
package calls it.
"""
from __future__ import annotations

import csv
import io
from contextlib import contextmanager
from dataclasses import dataclass, field
from decimal import Decimal, InvalidOperation
from itertools import count
from operator import attrgetter, itemgetter
from pathlib import Path
from typing import Callable, Iterable, Iterator, Mapping, Sequence

from .errors import InvariantError, OutlierError, ParseError, SchemaError
from .model import (
    CENT,
    METRIC_COLUMNS,
    PREPROCESSED_COLUMNS,
    SB_COLUMNS,
    AuctionView,
    BidRecord,
    SBInstance,
    auction_views,
    check_dataset,
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
    path: str | Path,
    layout: tuple[str, ...] | None = None,
    split: Callable[[Iterable[str]], Iterator] = csv.reader,
) -> Iterator[tuple[tuple[str, ...], Iterator[tuple]]]:
    """Open a CSV table; yield its header and its (n, row) data rows.

    n counts data rows from 1; split makes rows of the lines: cells with
    csv.reader, each line's text with iter. A leading byte-order mark is
    skipped, so the header's first cell may be quoted. The header must
    exist, parse and, when a layout is given, be that layout. A line the
    csv reader refuses is a ParseError naming the file and header or row.
    """
    with open(path, "r", encoding="utf-8", newline="") as handle:
        # Skip a byte-order mark, as spreadsheet exports write one.
        if handle.read(1) != "\ufeff":
            handle.seek(0)
        try:
            # The header's reader takes its line alone from the file.
            header = tuple(next(csv.reader(handle)))
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
            yield header, zip(numbers, split(handle))
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
    missing_values: dict[str, int] = field(default_factory=dict)
    rejections: list[RejectedRow] = field(default_factory=list)

    @property
    def accepted_count(self) -> int:
        return self.row_count - len(self.rejections)

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
            "rejections": [{"row": r.row, "reason": r.reason} for r in self.rejections],
        }


# A raw row as a (head, bid) pair: the logical cells of its auction and
# of its bid. The bidder comes last, where the bid-table layout has it.
BID_FIELDS = ("bid_date", "bid_time", "bid_amount", "bidder_id")
HEAD_FIELDS = tuple(name for name in LOGICAL_FIELDS if name not in BID_FIELDS)


def _csv_records(
    path: str | Path, lines: Iterator[tuple[int, str]]
) -> Callable[[int, str], tuple[list[str], bool]]:
    """record(n, line): the cells of csv record n, which starts at line,
    and whether it ends on that line.

    One csv.reader reads each record from the line handed to it, then,
    for a record that spans lines, the next ones of lines. A record it
    refuses is a ParseError naming the file and row n.
    """
    pending: list[str] = []
    reader = csv.reader(
        iter(lambda: pending.pop() if pending else next(lines, (0, None))[1], None)
    )

    def record(n: int, line: str) -> tuple[list[str], bool]:
        pending.append(line)
        read = reader.line_num
        try:
            cells = next(reader)
        except csv.Error as exc:
            raise ParseError(f"{path}:row {n}: {exc}") from None
        return cells, reader.line_num == read + 1

    return record


class RawScanner:
    """Streams accepted rows of a raw CSV while building a SchemaReport.

    Iterate it once, as RawRecords or through pairs(); afterwards
    .report holds the final accounting.
    """

    def __init__(self, path: str | Path, schema: Mapping[str, str] | None = None):
        self.path = Path(path)
        self.schema = dict(schema) if schema is not None else dict(DEFAULT_RAW_SCHEMA)
        self.report = SchemaReport()
        self._consumed = False

    @contextmanager
    def _scan(self, split: Callable[[Iterable[str]], Iterator]):
        """_table over the file, once its header holds each schema column once."""
        if self._consumed:
            raise RuntimeError("RawScanner can only be iterated once")
        self._consumed = True
        with _table(self.path, split=split) as (columns, rows):
            required = set(self.schema.values())
            missing = sorted(required - set(columns))
            if missing:
                raise SchemaError(
                    f"{self.path}: header is missing required columns: {', '.join(missing)}"
                )
            dupes = sorted(name for name in required if columns.count(name) > 1)
            if dupes:
                raise SchemaError(
                    f"{self.path}: required columns appear more than once: {', '.join(dupes)}"
                )
            self.report.columns = columns
            self.report.missing_values = dict.fromkeys(columns, 0)
            yield columns, rows

    def _accept(self, n: int, cells: list[str]) -> bool:
        """Count csv record n, cells, into the report; whether it is whole."""
        report = self.report
        report.row_count = n
        if len(cells) != len(report.columns):
            reason = f"column count: expected {len(report.columns)}, got {len(cells)}"
            report.rejections.append(RejectedRow(n, reason, tuple(cells)))
            return False
        if "" in cells:
            for name, text in zip(report.columns, cells):
                if not text:
                    report.missing_values[name] += 1
        return True

    def __iter__(self) -> Iterator[RawRecord]:
        """Each accepted row as a RawRecord, every row read by csv.reader."""
        with self._scan(csv.reader) as (columns, rows):
            index: dict[str, int] = {}
            for pos, name in enumerate(columns):
                index.setdefault(name, pos)
            for n, cells in rows:
                if self._accept(n, cells):
                    yield RawRecord(columns, index, tuple(cells))

    def pairs(self) -> Iterator[tuple[tuple[str, ...], tuple[str, ...]]]:
        """Each accepted row as (head, bid), its HEAD_FIELDS and BID_FIELDS cells.

        A line's prefix is its text before the first column of a bid
        field, its rest the text after. A line that starts with the first
        cell of the line before, a record of its own with a plain rest,
        takes that line's head and prefix; each later line with the
        prefix shares the head and has only its rest split on commas,
        unless the rest holds a quote or a CR, has the wrong cell count
        or another head cell, or the line is longer than
        csv.field_size_limit() or has no final LF. Any other line goes to
        one csv.reader, so rows are numbered as csv records and the report
        is what iterating RawRecords makes.
        """
        with self._scan(iter) as (columns, lines):
            at = {name: columns.index(self.schema[name]) for name in LOGICAL_FIELDS}
            cut = min(at[name] for name in BID_FIELDS)
            full_head = itemgetter(*(at[name] for name in HEAD_FIELDS))
            full_bid = itemgetter(*(at[name] for name in BID_FIELDS))
            rest_bid = itemgetter(*(at[name] - cut for name in BID_FIELDS))
            # Head cells in the rest, which each line must repeat.
            late = [at[name] - cut for name in HEAD_FIELDS if at[name] > cut]
            rest_late = itemgetter(*late) if late else None
            rest_width, limit = len(columns) - cut, csv.field_size_limit()
            misses = self.report.missing_values
            record = _csv_records(self.path, lines)
            # No line starts with two LFs, so none has this first prefix.
            prefix, size, head, head_late, blank, last, n = "\n\n", 0, None, None, (), None, 0
            for _, line in lines:
                n += 1
                if last is not None:
                    if line.startswith(last[0]) and not line.startswith(prefix):
                        # The last line's prefix ends at its rest_width-th
                        # comma from the end, if no quote is after that comma.
                        text = last_line.rsplit(",", rest_width)[0] + ","
                        if '"' not in last_line[len(text):]:
                            prefix, size, head = text, len(text), last_head
                            head_late = rest_late(last[cut:]) if late else None
                            blank = [name for name, cell in zip(columns, last[:cut]) if not cell]
                    last = None
                if line.startswith(prefix) and line[-1] == "\n":
                    rest = line[size:-1]
                    cells = rest.split(",")
                    if (
                        len(cells) == rest_width and '"' not in rest and "\r" not in rest
                        and len(rest) <= limit and (not late or rest_late(cells) == head_late)
                    ):
                        for name in blank:
                            misses[name] += 1
                        if "" in cells:
                            for name, text in zip(columns[cut:], cells):
                                if not text:
                                    misses[name] += 1
                        yield head, rest_bid(cells)
                        continue
                cells, alone = record(n, line)
                if self._accept(n, cells):
                    own = full_head(cells)
                    if cut and alone:
                        # A record on one line: the next line may share its prefix.
                        last, last_line, last_head = cells, line, own
                    yield own, full_bid(cells)
            self.report.row_count = n


def read_raw(
    path: str | Path, schema: Mapping[str, str] | None = None
) -> tuple[list[RawRecord], SchemaReport]:
    """Read a raw scrape CSV into records plus a SchemaReport."""
    scanner = RawScanner(path, schema)
    return list(scanner), scanner.report


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
    validate=True runs model.check_dataset first; a caller that has
    just checked the views (the pipeline judges each view it builds by
    model.auction_fault and checks their ids) may pass validate=False to
    skip the duplicate pass.
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
            f"{record_id}{auction}{cell[bidder]},{amount!s},{time}{tail}"
            for time, record_id, bidder, amount in sorted(zip(
                view.bid_times, view.record_ids, view.bidder_ids, view.bid_amounts
            ), key=lambda b: (-b[0], b[1]))
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

    Every row is read by csv.reader and parsed in full, on its own and
    with no shared state, so this reader is the reference that bid_rows
    is tested against; model.validate_dataset judges its records.
    """
    with _table(path, PREPROCESSED_COLUMNS) as (_, rows):
        return [_parse_preprocessed_row(cells, f"{path}:row {n}") for n, cells in rows]


def bid_rows(path: str | Path) -> Iterator[tuple[tuple, tuple[int, Decimal, str, int]]]:
    """Stream a bid table as one (head, bid) per csv record, in one pass.

    head holds an AuctionView's fields before its bid columns; bid is
    (bid_submit_time_sec, bid_amount, bidder_id, record_id). A
    line is split on commas unless split may not read it as csv does:
    a line with a quote or a CR, the wrong comma count, no final LF or
    more characters than csv.field_size_limit() goes to one csv.reader,
    which reads the record that starts there, so rows are numbered as
    csv records. A split row repeating the seller and auction-level text
    of the first split row of its auction_id text shares that row's head
    and has only its bid cells parsed; any other row is parsed in full,
    its own head. Each id and amount text is read into one object. A row
    that does not parse raises what read_preprocessed raises.
    """
    limit = csv.field_size_limit()
    commas = len(PREPROCESSED_COLUMNS) - 1
    # auction_id text -> (seller text, auction-level text, head)
    firsts: dict[str, tuple[str, str, tuple]] = {}
    amounts: dict[str, Decimal] = {}
    ids: dict[str, str] = {}

    def head_of(n: int, cells: list[str]) -> tuple:
        """Row n, cells, parsed in full, as its own head."""
        rec = _parse_preprocessed_row(cells, f"{path}:row {n}")
        return (
            rec.auction_id, ids.setdefault(rec.seller_id, rec.seller_id), rec.num_bidders,
            rec.num_bids, amounts.setdefault(cells[8], rec.starting_price),
            amounts.setdefault(cells[9], rec.winning_bid),
            rec.auction_duration_sec, rec.start_time_sec, rec.end_time_sec,
        )

    with _table(path, PREPROCESSED_COLUMNS, iter) as (_, lines):
        record = _csv_records(path, lines)
        n = 0
        for _, line in lines:
            n += 1
            if (
                '"' in line or "\r" in line or len(line) > limit
                or line.count(",") != commas or line[-1] != "\n"
            ):
                cells = record(n, line)[0]
                head = head_of(n, cells)
                record_id, _, _, bidder, amount, submitted = cells[:6]
            else:
                record_id, aid, seller, bidder, amount, submitted, level = line.split(",", 6)
                first = firsts.get(aid)
                if first is not None and seller == first[0] and level == first[1]:
                    head = first[2]
                else:
                    head = head_of(n, line[:-1].split(","))
                    firsts.setdefault(aid, (seller, level, head))
            try:
                value = amounts.get(amount)
                if value is None:
                    value = amounts[amount] = _parse_cents(amount, "bid_amount", "")
                bid = (int(submitted), value, ids.setdefault(bidder, bidder), int(record_id))
            except (ValueError, ParseError):
                # Only a row that shares its head gets here, as a row
                # parsed in full has passed: reparse it for the exact error.
                _parse_preprocessed_row(line[:-1].split(","), f"{path}:row {n}")
                raise
            yield head, bid


def read_auctions(path: str | Path) -> list[AuctionView]:
    """Read a bid table into checked auction views, each line once.

    Returns or raises exactly what validate_dataset(read_preprocessed(path))
    does. A row that does not parse raises once it is read, a broken rule
    once every row is.
    """
    return auction_views(bid_rows(path))


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
                raise ParseError(f"{path}:row {n}: expected {width} cells, got {len(cells)}")
            try:
                instances.append(SBInstance(int(cells[0]), cells[1], *map(float, cells[2:])))
            except ValueError:
                # Name the first cell that does not parse: a metric, else the id.
                for text in cells[2:]:
                    try:
                        float(text)
                    except ValueError:
                        raise ParseError(f"{path}:row {n}: metric cell is not a number") from None
                _parse_int(cells[0], "auction_id", f"{path}:row {n}")
                raise
    return instances
