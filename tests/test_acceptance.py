"""End-to-end acceptance checks for the package.

Each test prints one ``criterion N: PASS/FAIL - detail`` line, so the
``-rP`` summary of a verbose pytest run reads as a checklist. The
tolerance for every numeric comparison is stated inline right where it
is asserted.
"""
import csv
import json
import random
import time
from datetime import datetime
from decimal import Decimal
from pathlib import Path

import pytest

from shillbid.cli import main as cli_main
from shillbid.dataset import build_sb_dataset
from shillbid.metrics import compute_global_aggregates
from shillbid.model import METRIC_COLUMNS
from shillbid.preprocess import (
    REFERENCE_EPOCH,
    merge_datetime,
    parse_money,
    run_pipeline,
    to_countdown_seconds,
)
from shillbid.synth import SynthConfig, generate, write_corpus

from . import _oracle
from .conftest import make_view, pair_metrics, random_micro_corpus

GOLDEN = Path(__file__).parent / "golden"

MILD_DEFECTS = dict(
    duplicate_row_rate=0.03,
    missing_bidder_rate=0.03,
    thin_auction_rate=0.05,
    inconsistent_auction_rate=0.04,
)


def _verdict(number: int, problems: list, detail: str) -> None:
    ok = not problems
    text = detail if ok else "; ".join(str(p) for p in problems[:3])
    print(f"criterion {number}: {'PASS' if ok else 'FAIL'} - {text}")
    assert ok, f"criterion {number}: {text}"


def _features_for(config: SynthConfig):
    """Synthetic corpus through the library chain, in memory."""
    result = generate(config)
    auctions, report = run_pipeline(result.records())
    aggregates = compute_global_aggregates(auctions)
    instances = build_sb_dataset(auctions, aggregates)
    return result, report, auctions, instances


# --- criterion 1: metric range on bulk synthetic data -----------------------

def test_criterion_01_all_metrics_stay_inside_unit_interval():
    started = time.monotonic()
    problems: list[str] = []
    total = 0
    for i in range(25):
        config = SynthConfig(
            seed=1000 + i, num_auctions=80 + (80 * i) // 24, **MILD_DEFECTS
        )
        _, _, _, instances = _features_for(config)
        total += len(instances)
        for inst in instances:
            for name, value in zip(METRIC_COLUMNS, inst.metric_values()):
                if not 0.0 <= value <= 1.0:
                    problems.append(f"seed {config.seed}: {name}={value!r}")
    elapsed = time.monotonic() - started
    if total < 10_000:
        problems.append(f"only {total} instances, expected at least 10000")
    if elapsed >= 60.0:
        problems.append(f"took {elapsed:.1f}s, budget 60s")
    _verdict(
        1,
        problems,
        f"{total} instances over 25 corpora, all 8 metrics in [0, 1], "
        f"no outliers, {elapsed:.1f}s",
    )


# --- criterion 2: brute-force oracle equivalence ----------------------------

def test_criterion_02_metrics_match_brute_force_oracle():
    rng = random.Random(4242)
    problems: list[str] = []
    auctions_checked = 0
    pairs_checked = 0
    for _ in range(50):
        views = random_micro_corpus(rng, 10)
        agg = compute_global_aggregates(views)
        plain = [_oracle.from_view(v) for v in views]
        auctions_checked += len(views)
        for view, auction in zip(views, plain):
            # The feature rows features builds, one per (auction, bidder).
            rows = pair_metrics(view, agg)
            if sorted(rows) != _oracle.bidders_of(auction):
                problems.append(
                    f"auction {view.auction_id}: rows for {sorted(rows)}, "
                    f"bidders {_oracle.bidders_of(auction)}"
                )
            for bidder, row in rows.items():
                pairs_checked += 1
                expected = _oracle.all_metrics(plain, auction, bidder)
                got = dict(zip(METRIC_COLUMNS, row.metric_values()))
                # exact for the banded metric, 1e-12 for the rest
                if got["successive_outbidding"] != expected["successive_outbidding"]:
                    problems.append(
                        f"auction {view.auction_id} bidder {bidder}: SOB "
                        f"{got['successive_outbidding']} != "
                        f"{expected['successive_outbidding']}"
                    )
                for name in expected:
                    if name == "successive_outbidding":
                        continue
                    if abs(got[name] - expected[name]) > 1e-12:
                        problems.append(
                            f"auction {view.auction_id} bidder {bidder}: "
                            f"{name} {got[name]!r} != {expected[name]!r}"
                        )
    if auctions_checked < 500:
        problems.append(f"only {auctions_checked} auctions generated")
    _verdict(
        2,
        problems,
        f"{auctions_checked} micro-auctions, {pairs_checked} pairs, "
        "SOB exact and the rest within 1e-12 of the oracle",
    )


# --- criterion 3: bidding ratios partition every auction --------------------

def test_criterion_03_bidding_ratios_sum_to_one_per_auction():
    problems: list[str] = []
    auctions_checked = 0
    for seed in range(2000, 2005):
        config = SynthConfig(seed=seed, num_auctions=100, **MILD_DEFECTS)
        _, _, _, instances = _features_for(config)
        sums: dict[int, float] = {}
        for inst in instances:
            sums[inst.auction_id] = sums.get(inst.auction_id, 0.0) + inst.bidding_ratio
        auctions_checked += len(sums)
        for auction_id, total in sums.items():
            if abs(total - 1.0) > 1e-9:
                problems.append(f"seed {seed} auction {auction_id}: sum {total!r}")
    _verdict(
        3,
        problems,
        f"bidding ratios sum to 1 within 1e-9 on all {auctions_checked} auctions "
        "across 5 corpora",
    )


# --- criterion 4: start/end difference equals the duration ------------------

@pytest.fixture
def five_day_corpus():
    """Corpus pinned to five-day listings; each must span 432000 seconds."""
    config = SynthConfig(seed=55, num_auctions=6, duration_weights={5: 1})
    auctions, _ = run_pipeline(generate(config).records())
    return auctions


def test_criterion_04_duration_identity_holds_everywhere(five_day_corpus):
    problems: list[str] = []
    for view in five_day_corpus:
        if view.start_time_sec - view.end_time_sec != 432_000:
            problems.append(
                f"five-day auction {view.auction_id}: "
                f"{view.start_time_sec - view.end_time_sec}"
            )
        if view.auction_duration_sec != 432_000:
            problems.append(
                f"five-day auction {view.auction_id}: {view.auction_duration_sec}"
            )
    config = SynthConfig(
        seed=56,
        num_auctions=100,
        duration_weights={1: 1, 3: 1, 5: 1, 7: 1, 10: 1},
        **MILD_DEFECTS,
    )
    views, _ = run_pipeline(generate(config).records())
    days_seen = set()
    for view in views:
        span = view.start_time_sec - view.end_time_sec
        if span != view.auction_duration_sec:
            problems.append(f"auction {view.auction_id}: span {span}")
        if view.auction_duration_sec % 86_400:
            problems.append(
                f"auction {view.auction_id}: ragged {view.auction_duration_sec}"
            )
        days_seen.add(view.auction_duration_sec // 86_400)
    if not days_seen >= {1, 3, 5, 7, 10}:
        problems.append(f"durations missing from corpus: saw {sorted(days_seen)}")
    _verdict(
        4,
        problems,
        f"start minus end equals the duration on all {len(views)} mixed auctions "
        f"plus {len(five_day_corpus)} five-day auctions at exactly 432000s",
    )


# --- criterion 5: scalar parsing and banding micro-examples ------------------

def test_criterion_05_parsing_and_banding_micro_examples():
    problems: list[str] = []
    if parse_money("650.50 $") != Decimal("650.50"):
        problems.append(f"money: {parse_money('650.50 $')!r}")
    # a scraped auction header: start, one bid, end, with their countdowns
    rows = [
        ("Jun-01-17", "19:24:55 PDT", datetime(2017, 6, 1, 19, 24, 55), 3_040_505),
        ("Jun-02-17", "08:20:50 PDT", datetime(2017, 6, 2, 8, 20, 50), 2_993_950),
        ("Jun-03-17", "19:24:55 PDT", datetime(2017, 6, 3, 19, 24, 55), 2_867_705),
    ]
    for date_text, time_text, expected_dt, expected_sec in rows:
        merged = merge_datetime(date_text, time_text)
        if merged != expected_dt:
            problems.append(f"{date_text} {time_text}: {merged}")
        elif to_countdown_seconds(merged, REFERENCE_EPOCH) != expected_sec:
            problems.append(
                f"{date_text}: {to_countdown_seconds(merged, REFERENCE_EPOCH)}"
            )
    rng = random.Random(31)
    mismatches = 0
    for _ in range(1000):
        length = rng.randint(1, 12)
        names = [f"b{i}" for i in range(1, rng.randint(2, 5))]
        seq = [rng.choice(names) for _ in range(length)]
        specs = [
            (bidder, f"{10 + i}.00", 500_000 - 1000 * i)
            for i, bidder in enumerate(seq)
        ]
        rows = pair_metrics(make_view(specs))
        for bidder in set(seq):
            run = _oracle.longest_run(seq, bidder)
            band = 1.0 if run >= 4 else 0.5 if run == 3 else 0.0
            if rows[bidder].successive_outbidding != band:
                mismatches += 1
    if mismatches:
        problems.append(f"{mismatches} banding mismatches in 1000 sequences")
    _verdict(
        5,
        problems,
        "money and datetime micro-examples exact, banding matched the "
        "run-length oracle on 1000 random sequences",
    )


# --- criterion 6: idempotence and determinism --------------------------------

def test_criterion_06_idempotent_and_order_insensitive(tmp_path):
    problems: list[str] = []
    raw = tmp_path / "corpus.csv"
    config = SynthConfig(seed=777, num_auctions=60, **MILD_DEFECTS)
    write_corpus(config, raw)

    first = tmp_path / "clean1.csv"
    second = tmp_path / "clean2.csv"
    shuffled_out = tmp_path / "clean3.csv"
    if cli_main(["preprocess", "--in", str(raw), "--out", str(first)]) != 0:
        problems.append("first preprocess failed")
    if cli_main(["preprocess", "--in", str(first), "--out", str(second)]) != 0:
        problems.append("re-preprocess failed")
    if first.read_bytes() != second.read_bytes():
        problems.append("preprocess of its own output changed bytes")

    lines = raw.read_text(encoding="utf-8").splitlines(keepends=True)
    header, body = lines[0], lines[1:]
    random.Random(5).shuffle(body)
    shuffled = tmp_path / "shuffled.csv"
    shuffled.write_text(header + "".join(body), encoding="utf-8")
    if cli_main(["preprocess", "--in", str(shuffled), "--out", str(shuffled_out)]) != 0:
        problems.append("shuffled preprocess failed")
    if first.read_bytes() != shuffled_out.read_bytes():
        problems.append("row order changed the output bytes")

    jobs_one = tmp_path / "sb1.csv"
    jobs_four = tmp_path / "sb4.csv"
    for out, jobs in ((jobs_one, "1"), (jobs_four, "4")):
        code = cli_main(
            ["features", "--in", str(first), "--out", str(out), "--jobs", jobs]
        )
        if code != 0:
            problems.append(f"features --jobs {jobs} failed")
    if jobs_one.read_bytes() != jobs_four.read_bytes():
        problems.append("--jobs changed the output bytes")
    _verdict(
        6,
        problems,
        "re-preprocessing, input shuffling, and --jobs 1 vs 4 all byte-identical",
    )


# --- criterion 7: injected defects equal the cleansing report ---------------

def test_criterion_07_defect_accounting_reconciles_exactly(tmp_path):
    problems: list[str] = []
    for seed in range(300, 310):
        raw = tmp_path / f"corpus{seed}.csv"
        out = tmp_path / f"clean{seed}.csv"
        report_path = tmp_path / f"report{seed}.json"
        config = SynthConfig(
            seed=seed,
            num_auctions=50,
            duplicate_row_rate=0.05,
            missing_bidder_rate=0.04,
            thin_auction_rate=0.08,
            inconsistent_auction_rate=0.07,
        )
        _, manifest = write_corpus(config, raw)
        code = cli_main(
            [
                "preprocess",
                "--in", str(raw),
                "--out", str(out),
                "--report", str(report_path),
            ]
        )
        if code != 0:
            problems.append(f"seed {seed}: preprocess exited {code}")
            continue
        removed = json.loads(report_path.read_text())["cleansing"]["removed"]
        expected = {
            "duplicate_records_removed": manifest.duplicate_rows,
            "missing_bidder_rows_removed": manifest.missing_bidder_rows,
            "low_bid_auctions_removed": manifest.thin_auctions,
            "inconsistent_auctions_removed": manifest.inconsistent_auctions,
        }
        for key, want in expected.items():
            if removed[key] != want:
                problems.append(f"seed {seed}: {key} {removed[key]} != {want}")
    _verdict(
        7,
        problems,
        "all four defect classes reconcile exactly on 10 seeded corpora",
    )


# --- criterion 8: planted shills separate from honest bidders ---------------

def test_criterion_08_planted_shills_separate_cleanly():
    problems: list[str] = []
    config = SynthConfig(seed=7, num_auctions=200)  # 10% shills, run length 4
    result, _, _, instances = _features_for(config)
    shills = {bidder for _, bidder, label in result.truth if label == "shill"}
    shill_instances = [inst for inst in instances if inst.bidder_id in shills]
    honest_instances = [inst for inst in instances if inst.bidder_id not in shills]
    if not shill_instances:
        problems.append("no planted shill instances found")
    for inst in shill_instances:
        if inst.successive_outbidding != 1.0:
            problems.append(
                f"shill {inst.bidder_id} in auction {inst.auction_id}: "
                f"SOB {inst.successive_outbidding}"
            )
    for inst in honest_instances:
        if inst.successive_outbidding != 0.0:
            problems.append(
                f"honest {inst.bidder_id} in auction {inst.auction_id}: "
                f"SOB {inst.successive_outbidding}"
            )
    mean_wr = (
        sum(inst.winning_ratio for inst in shill_instances) / len(shill_instances)
        if shill_instances
        else 0.0
    )
    if mean_wr < 0.9:
        problems.append(f"mean shill winning ratio {mean_wr:.3f} < 0.9")
    _verdict(
        8,
        problems,
        f"{len(shill_instances)} shill instances all at SOB 1.0 "
        f"(mean WR {mean_wr:.3f}), {len(honest_instances)} honest all at 0.0",
    )


# --- criterion 9: golden files reproduce byte for byte ----------------------

def test_criterion_09_golden_pipeline_bytes(tmp_path):
    problems: list[str] = []
    clean = tmp_path / "clean.csv"
    sb = tmp_path / "sb.csv"
    code = cli_main(
        ["preprocess", "--in", str(GOLDEN / "raw_corpus.csv"), "--out", str(clean)]
    )
    if code != 0:
        problems.append(f"preprocess exited {code}")
    elif clean.read_bytes() != (GOLDEN / "preprocessed.csv").read_bytes():
        problems.append("preprocessed bytes diverge from the golden file")
    code = cli_main(["features", "--in", str(clean), "--out", str(sb)])
    if code != 0:
        problems.append(f"features exited {code}")
    elif sb.read_bytes() != (GOLDEN / "features.csv").read_bytes():
        problems.append("feature bytes diverge from the golden file")
    _verdict(
        9,
        problems,
        "20-auction fixture reproduces both golden files byte for byte",
    )


# --- criterion 10: one million raw rows inside the time budget --------------

@pytest.fixture(scope="module")
def million_row_corpus(tmp_path_factory):
    root = tmp_path_factory.mktemp("bulk")
    raw = root / "raw.csv"
    config = SynthConfig(
        seed=4,
        num_auctions=92_000,
        duplicate_row_rate=0.02,
        missing_bidder_rate=0.02,
        thin_auction_rate=0.02,
        inconsistent_auction_rate=0.02,
    )
    rows, _ = write_corpus(config, raw)
    return raw, rows


def test_criterion_10_million_rows_under_a_minute(million_row_corpus, tmp_path):
    raw, rows = million_row_corpus
    problems: list[str] = []
    if rows < 1_000_000:
        problems.append(f"corpus only has {rows} rows")
    clean = tmp_path / "clean.csv"
    sb = tmp_path / "sb.csv"
    started = time.monotonic()
    code = cli_main(["preprocess", "--in", str(raw), "--out", str(clean)])
    preprocessed = time.monotonic()
    if code != 0:
        problems.append(f"preprocess exited {code}")
    else:
        code = cli_main(["features", "--in", str(clean), "--out", str(sb)])
        if code != 0:
            problems.append(f"features exited {code}")
    elapsed = time.monotonic() - started
    # Name each side's share, so a regression says where it happened.
    split = (
        f"preprocess {preprocessed - started:.1f}s + "
        f"features {started + elapsed - preprocessed:.1f}s"
    )
    if elapsed >= 60.0:
        problems.append(f"took {elapsed:.1f}s ({split}), budget 60s")
    _verdict(
        10,
        problems,
        f"{rows} raw rows -> features in {elapsed:.1f}s ({split}; budget 60s)",
    )
