"""The benchmark's workloads: what each generates and which commands it times.

A workload is a synthetic corpus shape plus the shillbid commands run on
it. Every command is an argv for the `shillbid` CLI. Each run executes
its commands inside its own directory, reading the workload's inputs
from the parent directory (`../raw.csv`, or `../bids.csv` and `../sb.csv`
for `recheck`), so the same argv serves the untraced CLI run and the
traced in-process mirror in `traced.py`.
"""
from __future__ import annotations

from dataclasses import dataclass

# The criterion-10 defect mix: every defect class at 2%.
DEFECT_RATES = {
    "duplicate_row_rate": 0.02,
    "missing_bidder_rate": 0.02,
    "thin_auction_rate": 0.02,
    "inconsistent_auction_rate": 0.02,
}


@dataclass(frozen=True)
class Command:
    """One timed CLI call.

    `checked` names the files (relative to the run directory) that must
    come out byte-identical on every run; `stdout` names the file the
    command's standard output is captured to, when that output is a
    product of the command.
    """

    label: str
    argv: tuple[str, ...]
    checked: tuple[str, ...] = ()
    stdout: str | None = None

    @property
    def kind(self) -> str:
        return self.argv[0]

    @property
    def processes(self) -> int:
        """Worker processes the command runs at once (its --jobs)."""
        if "--jobs" not in self.argv:
            return 1
        return int(self.argv[self.argv.index("--jobs") + 1])


@dataclass(frozen=True)
class Workload:
    """A corpus shape and its commands; README.md says why each exists."""

    name: str
    auctions: int
    min_bids: int = 8
    max_bids: int = 14
    # 0 keeps the synth defaults (100 bidders, 40 sellers), as criterion 10 does.
    bidders_per_auction: int = 0
    sellers_per_auction: int = 0
    jobs: int = 1
    recheck: bool = False

    def synth_kwargs(self, seed: int, scale: float) -> dict:
        """Keyword arguments for SynthConfig at this seed and scale."""
        auctions = max(10, round(self.auctions * scale))
        kwargs = dict(
            DEFECT_RATES,
            seed=seed,
            num_auctions=auctions,
            min_auction_bids=self.min_bids,
            max_auction_bids=self.max_bids,
        )
        if self.bidders_per_auction:
            kwargs["bidder_pool"] = max(100, self.bidders_per_auction * auctions)
        if self.sellers_per_auction:
            kwargs["seller_pool"] = max(40, self.sellers_per_auction * auctions)
        return kwargs

    def commands(self) -> list[Command]:
        if self.recheck:
            return [
                Command(
                    "preprocess",
                    ("preprocess", "--in", "../bids.csv", "--out", "bids.csv"),
                    checked=("bids.csv",),
                ),
                Command("validate-bids", ("validate", "--in", "bids.csv")),
                Command("validate-features", ("validate", "--in", "../sb.csv")),
            ]
        return [
            Command(
                "preprocess",
                ("preprocess", "--in", "../raw.csv", "--out", "bids.csv"),
                checked=("bids.csv",),
            ),
            Command(
                "features",
                (
                    "features", "--in", "bids.csv", "--out", "sb.csv",
                    "--scores", "scores.csv", "--jobs", str(self.jobs),
                ),
                checked=("sb.csv", "scores.csv"),
            ),
            Command(
                "stats",
                ("stats", "--in", "sb.csv", "--preprocessed", "bids.csv"),
                checked=("stats.txt",),
                stdout="stats.txt",
            ),
        ]


# Commands that build recheck's inputs during set-up, run in the run's
# top directory next to raw.csv.
RECHECK_SETUP = (
    ("preprocess", "--in", "raw.csv", "--out", "bids.csv"),
    ("features", "--in", "bids.csv", "--out", "sb.csv"),
)

WORKLOADS = {
    w.name: w
    for w in (
        Workload(
            "scrape-dirty",
            auctions=5_000,
        ),
        Workload(
            "scrape-long",
            auctions=500,
            min_bids=80,
            max_bids=140,
            bidders_per_auction=50,
            sellers_per_auction=2,
            jobs=2,
        ),
        Workload(
            "recheck",
            auctions=8_000,
            recheck=True,
        ),
    )
}
