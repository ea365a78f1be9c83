"""File ingress and egress: raw scrape CSVs in, typed CSVs out.

All files are UTF-8, comma separated, double-quote quoted, LF line
endings. Rows a reader cannot accept are never silently dropped: they
land in a SchemaReport and can be written to a .rejects.csv sidecar.
"""
from __future__ import annotations

import csv
import io
from dataclasses import dataclass, field
from decimal import Decimal, InvalidOperation
from operator import attrgetter
from pathlib import Path
from typing import Callable, Iterator, Mapping, Sequence

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
    bid_sort_key,
    check_dataset,
    validate_bid_record,
    validate_dataset,
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
    for lineno, line in enumerate(Path(path).read_text(encoding="utf-8").splitlines(), 1):
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
    def columns(self) -> tuple[str, ...]:
        return self._columns

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
        with open(self.path, "r", encoding="utf-8", newline="") as handle:
            reader = csv.reader(handle)
            try:
                header = next(reader)
            except StopIteration:
                raise SchemaError(f"{self.path}: empty file, no header row") from None
            columns = tuple(header)
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
            for cells in reader:
                n += 1
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
    """Write rejected raw rows to a sidecar CSV with their reasons."""
    with open(path, "w", encoding="utf-8", newline="") as handle:
        writer = csv.writer(handle, lineterminator="\n")
        writer.writerow(["row", "reason", "content"])
        for rej in report.rejections:
            buf = io.StringIO()
            csv.writer(buf, lineterminator="\n").writerow(rej.cells)
            writer.writerow([rej.row, rej.reason, buf.getvalue().rstrip("\n")])


_preprocessed_cells = attrgetter(*PREPROCESSED_COLUMNS)


def _preprocessed_sort_key(rec: BidRecord) -> tuple[int, int, int]:
    return (rec.auction_id, -rec.bid_submit_time_sec, rec.record_id)


def write_preprocessed(
    records: Sequence[BidRecord], path: str | Path, *, validate: bool = True
) -> None:
    """Write the cleaned bid table; aborts if any invariant fails.

    Rows are sorted by (auction_id, descending bid_submit_time_sec,
    record_id), so repeated writes of the same records are
    byte-identical regardless of input order. A caller that has just
    validated the records (the pipeline checks its own output) may
    pass validate=False to skip the duplicate pass.
    """
    if validate:
        check_dataset(records)
    ordered = sorted(records, key=_preprocessed_sort_key)
    with open(path, "w", encoding="utf-8", newline="") as handle:
        writer = csv.writer(handle, lineterminator="\n")
        writer.writerow(PREPROCESSED_COLUMNS)
        # The writer applies str() to each cell itself, Decimals included.
        writer.writerows(map(_preprocessed_cells, ordered))


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

    Auction-level cells are parsed once per auction: a row whose
    seller and auction-level cells match, as text, those of the first
    row with its auction_id text shares that row's parsed objects. Any
    other row is parsed in full, so validate_dataset still sees every
    disagreement. Bid amounts are parsed once per distinct text.
    """
    records: list[BidRecord] = []
    firsts: dict[str, tuple[str, list[str], BidRecord]] = {}
    amounts: dict[str, Decimal] = {}
    width = len(PREPROCESSED_COLUMNS)
    with open(path, "r", encoding="utf-8", newline="") as handle:
        reader = csv.reader(handle)
        try:
            header = next(reader)
        except StopIteration:
            raise SchemaError(f"{path}: empty file, no header row") from None
        if tuple(header) != PREPROCESSED_COLUMNS:
            raise SchemaError(
                f"{path}: header does not match the preprocessed layout"
            )
        for n, cells in enumerate(reader, 1):
            first = firsts.get(cells[1]) if len(cells) == width else None
            if first is not None and cells[2] == first[0] and cells[6:] == first[1]:
                head = first[2]
                try:
                    record_id = int(cells[0])
                    amount = amounts.get(cells[4])
                    if amount is None:
                        amount = amounts[cells[4]] = _parse_cents(cells[4], "bid_amount", "")
                    submitted = int(cells[5])
                except (ValueError, ParseError):
                    # Reparse the row in full for the exact error.
                    rec = _parse_preprocessed_row(cells, f"{path}:row {n}")
                else:
                    rec = BidRecord(
                        record_id,
                        head.auction_id,
                        head.seller_id,
                        cells[3],
                        amount,
                        submitted,
                        head.num_bidders,
                        head.num_bids,
                        head.starting_price,
                        head.winning_bid,
                        head.auction_duration_sec,
                        head.start_time_sec,
                        head.end_time_sec,
                    )
            else:
                rec = _parse_preprocessed_row(cells, f"{path}:row {n}")
                if cells[1] not in firsts:
                    firsts[cells[1]] = (cells[2], cells[6:], rec)
            records.append(rec)
    return records


def _stream_auctions(path: str | Path) -> list[AuctionView] | None:
    """The one streaming pass of read_auctions.

    Returns None, having built no view, as soon as the table holds
    anything it does not take as-is; read_auctions then runs the
    reference path, which finds and reports it.
    """
    width = len(PREPROCESSED_COLUMNS)
    # auction_id text -> (seller text, auction-level cells, first row, bids)
    auctions: dict[str, tuple[str, list[str], BidRecord, list[Bid]]] = {}
    amounts: dict[str, Decimal] = {}
    record_ids: set[int] = set()
    current = None
    try:
        with open(path, "r", encoding="utf-8", newline="") as handle:
            reader = csv.reader(handle)
            if tuple(next(reader, ())) != PREPROCESSED_COLUMNS:
                return None
            for cells in reader:
                if len(cells) != width:
                    return None
                if cells[1] != current:
                    # An auction's rows usually arrive together: look it
                    # up only when the auction changes.
                    current = cells[1]
                    entry = auctions.get(current)
                    if entry is None:
                        # Its first row: every rule, auction-level ones too.
                        head = _parse_preprocessed_row(cells, "")
                        if validate_bid_record(head):
                            return None
                        entry = auctions[current] = (cells[2], cells[6:], head, [])
                    seller, level, head, bids = entry
                    winning = head.winning_bid
                    end, start = head.end_time_sec, head.start_time_sec
                if cells[2] != seller or cells[6:] != level:
                    return None
                record_id = int(cells[0])
                submitted = int(cells[5])
                amount = amounts.get(cells[4])
                if amount is None:
                    amount = amounts[cells[4]] = _parse_cents(cells[4], "bid_amount", "")
                bidder = cells[3]
                if (
                    record_id < 1
                    or record_id in record_ids
                    or not bidder
                    or bidder.isspace()
                    or amount > winning
                    or not end <= submitted <= start
                ):
                    return None
                record_ids.add(record_id)
                bids.append(Bid(bidder, amount, submitted, record_id))
    except (ValueError, ParseError, csv.Error):
        # A cell that does not parse, or a file that does not decode: the
        # reference path raises the exact error.
        return None
    # Every id is positive and unique, so they are dense iff the largest
    # is their count.
    if record_ids and max(record_ids) != len(record_ids):
        return None
    by_id = {entry[2].auction_id: entry for entry in auctions.values()}
    if len(by_id) != len(auctions) or by_id.keys() != set(range(1, len(by_id) + 1)):
        return None
    views: list[AuctionView] = []
    for auction_id in range(1, len(by_id) + 1):
        _, _, head, bids = by_id[auction_id]
        if len(bids) != head.num_bids or len({b.bidder_id for b in bids}) != head.num_bidders:
            return None
        bids.sort(key=bid_sort_key)
        views.append(
            AuctionView(
                auction_id,
                head.seller_id,
                head.num_bidders,
                head.num_bids,
                head.starting_price,
                head.winning_bid,
                head.auction_duration_sec,
                head.start_time_sec,
                head.end_time_sec,
                tuple(bids),
            )
        )
    return views


def read_auctions(path: str | Path) -> list[AuctionView]:
    """Read a bid table into checked auction views in one streaming pass.

    Returns exactly what validate_dataset(read_preprocessed(path))
    returns, without building a BidRecord per row or regrouping the
    rows. The first row of each auction_id text is parsed and checked
    in full; a later row must repeat its seller and auction-level cells
    as text, and only its own bid cells are parsed and checked. A table
    this pass does not take as-is (a ragged row, a cell that does not
    parse, auction-level text that differs, any broken rule, ids that
    are not dense) goes through the reference path, so every error
    text and type is the reference's.
    """
    views = _stream_auctions(path)
    if views is None:
        views = validate_dataset(read_preprocessed(path))
    return views


def check_sb_dataset(instances: Sequence[SBInstance]) -> None:
    """Raise if a feature dataset breaks its contract.

    Checks that no metric leaves [0, 1], that successive_outbidding is
    one of {0, 0.5, 1}, and that no (auction, bidder) pair repeats.
    """
    seen: set[tuple[int, str]] = set()
    for inst in instances:
        pair = (inst.auction_id, inst.bidder_id)
        if pair in seen:
            raise InvariantError(
                f"duplicate instance for auction {inst.auction_id}, bidder {inst.bidder_id!r}"
            )
        seen.add(pair)
        for name, value in inst.metric_items():
            if not 0.0 <= value <= 1.0:
                raise OutlierError(
                    f"auction {inst.auction_id}, bidder {inst.bidder_id!r}: "
                    f"{name}={value!r} outside [0, 1]"
                )
        if inst.successive_outbidding not in (0.0, 0.5, 1.0):
            raise InvariantError(
                f"auction {inst.auction_id}, bidder {inst.bidder_id!r}: "
                f"successive_outbidding={inst.successive_outbidding!r} not in {{0, 0.5, 1}}"
            )


_sb_pair = attrgetter("auction_id", "bidder_id")
_six_decimals = "{:.6f}".format


def write_sb_dataset(instances: Sequence[SBInstance], path: str | Path) -> None:
    """Write the feature dataset with six fixed decimals per metric.

    Runs check_sb_dataset first, so a broken dataset never reaches
    disk.
    """
    check_sb_dataset(instances)
    ordered = sorted(instances, key=_sb_pair)
    with open(path, "w", encoding="utf-8", newline="") as handle:
        writer = csv.writer(handle, lineterminator="\n")
        writer.writerow(SB_COLUMNS)
        writer.writerows(
            (inst.auction_id, inst.bidder_id, *map(_six_decimals, inst.metric_values()))
            for inst in ordered
        )


def read_sb_dataset(path: str | Path) -> list[SBInstance]:
    """Read a feature dataset; values are parsed but not range-checked."""
    instances: list[SBInstance] = []
    with open(path, "r", encoding="utf-8", newline="") as handle:
        reader = csv.reader(handle)
        try:
            header = next(reader)
        except StopIteration:
            raise SchemaError(f"{path}: empty file, no header row") from None
        if tuple(header) != SB_COLUMNS:
            raise SchemaError(f"{path}: header does not match the SB dataset layout")
        for n, cells in enumerate(reader, 1):
            where = f"{path}:row {n}"
            if len(cells) != len(SB_COLUMNS):
                raise ParseError(
                    f"{where}: expected {len(SB_COLUMNS)} cells, got {len(cells)}"
                )
            try:
                values = [float(text) for text in cells[2:]]
            except ValueError:
                raise ParseError(f"{where}: metric cell is not a number") from None
            instances.append(
                SBInstance(
                    _parse_int(cells[0], "auction_id", where),
                    cells[1],
                    *values,
                )
            )
    return instances
