"""tools/time_pipeline.py: its runs agree, each command's peak is its own,
and a re-cleanse that changes the bid table stops it."""
import json
import subprocess
import sys
from pathlib import Path

from shillbid.synth import SynthConfig, write_corpus

ROOT = Path(__file__).resolve().parents[1]
TOOL = ROOT / "tools" / "time_pipeline.py"
SRC = ROOT / "src"


def time_pipeline(*args) -> list[dict]:
    out = subprocess.run(
        [sys.executable, str(TOOL), *map(str, args)],
        check=True, capture_output=True, text=True, cwd=ROOT,
    ).stdout
    return [json.loads(line) for line in out.splitlines()]


def test_runs_agree_across_trees_and_orders(tmp_path):
    corpus = tmp_path / "raw.csv"
    write_corpus(
        SynthConfig(
            seed=3,
            num_auctions=40,
            duplicate_row_rate=0.05,
            missing_bidder_rate=0.05,
            thin_auction_rate=0.05,
            inconsistent_auction_rate=0.05,
        ),
        corpus,
    )
    runs = time_pipeline(
        corpus, "--runs", 1, "--src", SRC, "--src", SRC, "--work", tmp_path / "work"
    )
    assert sorted(run["order"] for run in runs) == ["as-is", "as-is", "shuffled", "shuffled"]
    assert len({(run["report_sha256"], run["kept_rows"]) for run in runs}) == 1
    assert len({run["table_sha256"] for run in runs}) == 1
    assert len({run["sb_sha256"] for run in runs}) == 1
    assert runs[0]["kept_rows"] > 0
    for run in runs:
        for command in ("recleanse", "features", "stats", "validate"):
            assert set(run[command]) == {"seconds", "peak_rss_mb"}
            assert run[command]["seconds"] > 0 and run[command]["peak_rss_mb"] > 0


def test_a_recleanse_that_changes_the_bid_table_stops_the_tool(tmp_path):
    # A stand-in package whose preprocess writes its input's name: the
    # re-cleanse of the bid table then differs from it.
    package = tmp_path / "src" / "shillbid"
    package.mkdir(parents=True)
    (package / "__init__.py").write_text("")
    (package / "cli.py").write_text(
        "import json, sys\n"
        "def main(argv):\n"
        "    args = dict(zip(argv[1::2], argv[2::2]))\n"
        "    if '--out' in args:\n"
        "        with open(args['--out'], 'w') as out:\n"
        "            out.write(args['--in'])\n"
        "        report = {'cleansing': {'after': {'records': 1}}}\n"
        "        with open(args['--out'] + '.report.json', 'w') as out:\n"
        "            json.dump(report, out)\n"
        "    return 0\n"
    )
    corpus = tmp_path / "raw.csv"
    corpus.write_text("a\n1\n")
    done = subprocess.run(
        [sys.executable, str(TOOL), str(corpus), "--runs", "1", "--no-shuffle",
         "--src", str(tmp_path / "src"), "--work", str(tmp_path / "work")],
        capture_output=True, text=True, cwd=ROOT,
    )
    assert done.returncode == 1
    assert done.stdout == ""
    assert done.stderr == f"{tmp_path / 'src'}: re-cleansing the as-is bid table changed it\n"


def test_a_run_peak_is_not_raised_by_the_shuffled_copy(tmp_path):
    # A wide junk cell on every line makes the corpus's lines weigh more
    # than the command's own peak, so a run that started from a process
    # holding them would read a higher peak than one that did not.
    narrow = tmp_path / "narrow.csv"
    write_corpus(SynthConfig(seed=3, num_auctions=200), narrow)
    header, *lines = narrow.read_text(encoding="utf-8").splitlines()
    junk = "x" * 10_000
    corpus = tmp_path / "wide.csv"
    corpus.write_text(
        "".join(f"{line},{cell}\n" for line, cell in [(header, "Junk")] + [
            (line, junk) for line in lines
        ]),
        encoding="utf-8",
    )
    assert corpus.stat().st_size > 20_000_000
    (shuffled_as_is,) = [
        run["peak_rss_mb"]
        for run in time_pipeline(corpus, "--runs", 1, "--work", tmp_path / "work")
        if run["order"] == "as-is"
    ]
    (as_is,) = [
        run["peak_rss_mb"] for run in time_pipeline(
            corpus, "--runs", 1, "--no-shuffle", "--work", tmp_path / "alone"
        )
    ]
    assert abs(shuffled_as_is - as_is) <= 2, (shuffled_as_is, as_is)
