"""Synthetic corpus generator: determinism, structure, defect accounting."""
import csv
import json

import pytest

from shillbid.errors import ConfigError
from shillbid.ingest import DEFAULT_RAW_SCHEMA
from shillbid.synth import RAW_HEADER, SynthConfig, generate, write_corpus

URL_COL = RAW_HEADER.index(DEFAULT_RAW_SCHEMA["auction_url"])
BIDDER_COL = RAW_HEADER.index(DEFAULT_RAW_SCHEMA["bidder_id"])
SELLER_COL = RAW_HEADER.index(DEFAULT_RAW_SCHEMA["seller_id"])


def test_header_has_28_columns_with_all_required_ones():
    assert len(RAW_HEADER) == 28
    assert set(DEFAULT_RAW_SCHEMA.values()) <= set(RAW_HEADER)
    assert len(set(RAW_HEADER)) == 28


def test_generate_is_deterministic():
    config = SynthConfig(num_auctions=30, duplicate_row_rate=0.05,
                         missing_bidder_rate=0.05)
    a = generate(config)
    b = generate(config)
    assert a.rows == b.rows
    assert a.truth == b.truth
    assert a.manifest.to_dict() == b.manifest.to_dict()

    c = generate(SynthConfig(num_auctions=30, seed=8,
                             duplicate_row_rate=0.05, missing_bidder_rate=0.05))
    assert c.rows != a.rows


def test_generate_structure_and_roles():
    config = SynthConfig(num_auctions=40)
    result = generate(config)
    urls = {row[URL_COL] for row in result.rows}
    assert len(urls) == 40
    # Ten percent of auctions carry one accomplice each.
    shill_rows = [r for r in result.rows if r[BIDDER_COL].startswith("x")]
    assert {r[SELLER_COL] for r in shill_rows} <= {
        f"cs{i:02d}" for i in range(1, 6)
    }
    shill_urls = {r[URL_COL] for r in shill_rows}
    assert len(shill_urls) == 4
    labels = {(u, b): label for u, b, label in result.truth}
    for row in result.rows:
        key = (row[URL_COL], row[BIDDER_COL])
        expected = "shill" if row[BIDDER_COL].startswith("x") else "honest"
        assert labels[key] == expected


def test_clean_config_injects_nothing():
    result = generate(SynthConfig(num_auctions=25))
    m = result.manifest
    assert m.duplicate_rows == 0
    assert m.missing_bidder_rows == 0
    assert m.thin_auctions == 0
    assert m.inconsistent_auctions == 0
    assert all(row[BIDDER_COL] for row in result.rows)


def test_defect_counts_are_exact_for_auction_level_classes():
    config = SynthConfig(
        num_auctions=50,
        thin_auction_rate=0.1,
        inconsistent_auction_rate=0.06,
    )
    result = generate(config)
    assert result.manifest.thin_auctions == 5
    assert result.manifest.inconsistent_auctions == 3
    assert len(result.manifest.thin_auction_urls) == 5
    # Disjoint classes by construction.
    assert not set(result.manifest.thin_auction_urls) & set(
        result.manifest.inconsistent_auction_urls
    )


def test_row_level_defects_appear_and_are_tracked():
    config = SynthConfig(
        num_auctions=60, duplicate_row_rate=0.08, missing_bidder_rate=0.06
    )
    result = generate(config)
    m = result.manifest
    assert m.duplicate_rows > 0
    assert m.missing_bidder_rows > 0
    assert sum(m.duplicates_by_url.values()) == m.duplicate_rows
    assert sum(m.missing_by_url.values()) == m.missing_bidder_rows
    blank = sum(1 for row in result.rows if not row[BIDDER_COL])
    # Every blank row appears once, plus one more per duplicated blank row.
    seen = {}
    dup_blanks = 0
    for row in result.rows:
        key = tuple(row)
        if not row[BIDDER_COL] and key in seen:
            dup_blanks += 1
        seen[key] = True
    assert blank == m.missing_bidder_rows + dup_blanks


def test_blank_rows_never_strand_an_auction_below_the_floor():
    config = SynthConfig(num_auctions=80, missing_bidder_rate=0.3)
    result = generate(config)
    survivors: dict[str, int] = {}
    for row in result.rows:
        if row[BIDDER_COL]:
            survivors[row[URL_COL]] = survivors.get(row[URL_COL], 0) + 1
    assert min(survivors.values()) >= 5


def test_final_bid_is_never_blank_or_accomplice():
    config = SynthConfig(
        num_auctions=40, missing_bidder_rate=0.2, shill_fraction=0.2
    )
    result = generate(config)
    last_by_url: dict[str, list[str]] = {}
    for row in result.rows:
        last_by_url[row[URL_COL]] = row
    for row in last_by_url.values():
        assert row[BIDDER_COL]
        assert not row[BIDDER_COL].startswith("x")


REJECTED_CONFIGS = [
    (dict(num_auctions=0), "num_auctions must be >= 1"),
    (dict(shill_fraction=1.5), r"shill_fraction must lie in \[0, 1\]"),
    (dict(duplicate_row_rate=-0.1), r"duplicate_row_rate must lie in \[0, 1\]"),
    (dict(shill_run_length=1), "shill_run_length must be >= 2"),
    (dict(shill_run_length=6), "infeasible: .* min_auction_bids 8 < 9"),
    (dict(min_auction_bids=4, shill_run_length=2, max_auction_bids=10),
     "infeasible: .* min_auction_bids 4 < 5"),
    (dict(max_auction_bids=7), "max_auction_bids must be >= min_auction_bids"),
    (dict(bidder_pool=3), "bidder_pool must be >= 7"),
    (dict(thin_auction_rate=0.5, inconsistent_auction_rate=0.5, shill_fraction=0.5),
     r"infeasible: thin \+ inconsistent \+ shill auctions .* exceed num_auctions"),
    (dict(duration_weights={}), "duration_weights must not be empty"),
    (dict(duration_weights={0: 1}), "bad duration weight 0: 1"),
    (dict(duration_weights={200: 1}), "duration 200d does not fit the scrape window"),
    (dict(duration_weights={1: 0}), "duration weights must not all be zero"),
    (dict(seller_pool=0), "seller_pool must be >= 1"),
]


# Ids by position: a case keeps its id whatever its message says.
@pytest.mark.parametrize(
    "kwargs, message",
    REJECTED_CONFIGS,
    ids=[f"kwargs{i}" for i in range(len(REJECTED_CONFIGS))],
)
def test_config_validation_rejects(kwargs, message):
    with pytest.raises(ConfigError, match=message):
        SynthConfig(**kwargs).validate()


def test_write_corpus_streams_the_same_rows(tmp_path):
    config = SynthConfig(num_auctions=20, duplicate_row_rate=0.05)
    result = generate(config)
    out = tmp_path / "corpus.csv"
    truth = tmp_path / "truth.csv"
    defects = tmp_path / "defects.json"
    count, manifest = write_corpus(config, out, truth, defects)
    assert count == len(result.rows)

    with open(out, newline="", encoding="utf-8") as fh:
        rows = list(csv.reader(fh))
    assert rows[0] == list(RAW_HEADER)
    assert rows[1:] == [list(r) for r in result.rows]

    with open(truth, newline="", encoding="utf-8") as fh:
        truth_rows = list(csv.reader(fh))
    assert truth_rows[0] == ["auction_url", "bidder_id", "label"]
    assert [tuple(r) for r in truth_rows[1:]] == result.truth

    assert json.loads(defects.read_text()) == result.manifest.to_dict()
