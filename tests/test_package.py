"""The package surface: the README's library example, import cost and
module boundaries."""
import ast
import dataclasses
import os
import re
import subprocess
import sys
from pathlib import Path

import pytest

import shillbid
from shillbid.metrics import BidderAggregate
from shillbid.preprocess import PipelineConfig
from shillbid.synth import SynthConfig, write_corpus

from .conftest import make_view

README = Path(__file__).parents[1] / "README.md"


def test_readme_library_example_runs(tmp_path, monkeypatch):
    section = README.read_text(encoding="utf-8").split("## Library use", 1)[1]
    snippet = re.search(r"```python\n(.*?)```", section, re.S).group(1)
    write_corpus(SynthConfig(seed=3, num_auctions=8), tmp_path / "corpus.csv")
    monkeypatch.chdir(tmp_path)
    namespace: dict = {}
    exec(compile(snippet, "README.md", "exec"), namespace)
    assert namespace["auctions"]
    assert len(namespace["instances"]) >= len(namespace["auctions"]) > 0


def _python(*args) -> subprocess.CompletedProcess:
    """Run a fresh interpreter that imports this package's source."""
    src = str(Path(shillbid.__file__).parents[1])
    path = os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))
    return subprocess.run(
        [sys.executable, *args],
        env=dict(os.environ, PYTHONPATH=path), capture_output=True, text=True, timeout=60,
    )


def test_cli_import_starts_no_worker_machinery():
    # The feature build runs in-process; importing the CLI should not
    # pay for the process-pool modules.
    probe = (
        "import sys, shillbid.cli; "
        "print(sorted(m for m in sys.modules "
        "if m.split('.')[0] in ('concurrent', 'multiprocessing')))"
    )
    done = _python("-c", probe)
    assert done.returncode == 0 and done.stdout.strip() == "[]"


def test_python_m_shillbid_runs_the_cli():
    done = _python("-m", "shillbid", "--help")
    assert done.returncode == 0
    assert "preprocess" in done.stdout and "features" in done.stdout


def test_no_cross_module_private_imports():
    # A private name is a module's own business; a formula two modules
    # need belongs in a public function of one of them.
    package = Path(shillbid.__file__).parent
    offenders = []
    for path in sorted(package.glob("*.py")):
        tree = ast.parse(path.read_text(encoding="utf-8"), str(path))
        for node in ast.walk(tree):
            if not isinstance(node, ast.ImportFrom):
                continue
            if node.level == 0 and (node.module or "").split(".")[0] != "shillbid":
                continue
            offenders += [
                f"{path.name}:{node.lineno}: {alias.name}"
                for alias in node.names
                if alias.name.startswith("_")
            ]
    assert offenders == []


def _builds_bid_record(node) -> bool:
    return isinstance(node, ast.Call) and "BidRecord" in (
        getattr(node.func, "id", None), getattr(node.func, "attr", None)
    )


def test_bid_records_are_built_only_at_the_edges():
    # An auction travels from the pipeline to the writer as one view. A
    # BidRecord is a row of a bid table that is read back, and only the
    # full parse of one row in ingest builds one: the streaming pass
    # shares the head of each auction's first row.
    package = Path(shillbid.__file__).parent
    offenders = []
    for path in sorted(package.glob("*.py")):
        tree = ast.parse(path.read_text(encoding="utf-8"), str(path))
        if path.name == "ingest.py":
            tree.body = [
                node for node in tree.body
                if getattr(node, "name", None) != "_parse_preprocessed_row"
            ]
        offenders += [
            f"{path.name}:{node.lineno}" for node in ast.walk(tree) if _builds_bid_record(node)
        ]
    assert offenders == []


def _builds_bid(node) -> bool:
    return isinstance(node, ast.Call) and "Bid" in (
        getattr(node.func, "id", None), getattr(node.func, "attr", None)
    )


def test_a_bid_object_is_built_only_as_the_winner():
    # A view holds its bids as column tuples, so no layer keeps an object
    # per bid: AuctionView declares no bids field, and only winner_of
    # builds a Bid, as its one result.
    package = Path(shillbid.__file__).parent
    offenders = []
    for path in sorted(package.glob("*.py")):
        tree = ast.parse(path.read_text(encoding="utf-8"), str(path))
        if path.name == "model.py":
            tree.body = [node for node in tree.body if getattr(node, "name", None) != "winner_of"]
        for node in ast.walk(tree):
            if _builds_bid(node):
                offenders.append(f"{path.name}:{node.lineno}: Bid(")
            if isinstance(node, ast.ClassDef) and node.name == "AuctionView":
                offenders += [
                    f"{path.name}:{stmt.lineno}: AuctionView.bids"
                    for stmt in node.body
                    if isinstance(stmt, ast.AnnAssign) and getattr(stmt.target, "id", None) == "bids"
                ]
    assert offenders == []


def _names_participation_map(node) -> bool:
    return "participation_map" in (getattr(node, "id", None), getattr(node, "attr", None))


def test_each_auction_is_walked_only_by_the_metric_pass():
    # participation_map walks an auction's bids. The aggregate pass walks
    # each auction once and auction_instances reuses that walk, so every
    # metric has one implementation and features one walk per auction.
    package = Path(shillbid.__file__).parent
    allowed = {
        ("metrics.py", "compute_global_aggregates"),
        ("metrics.py", "auction_instances"),
    }
    offenders = []
    for path in sorted(package.glob("*.py")):
        tree = ast.parse(path.read_text(encoding="utf-8"), str(path))
        tree.body = [
            node for node in tree.body
            if (path.name, getattr(node, "name", None)) not in allowed
        ]
        offenders += [
            f"{path.name}:{node.lineno}"
            for node in ast.walk(tree)
            if _names_participation_map(node)
        ]
    assert offenders == []


def _identifier(node) -> str | None:
    """The name a node uses or defines, if any."""
    for attr in ("id", "attr", "name"):
        if isinstance(getattr(node, attr, None), str):
            return getattr(node, attr)
    return None


def test_the_bid_table_rules_are_written_once():
    # model.auction_fault is the one list of the bid table's rules: only
    # it tests an amount's scale, and the per-record copy of the rules
    # lives in the test oracle, not in the package.
    package = Path(shillbid.__file__).parent
    gone = {
        "validate_bid_record", "_check_group", "_checked_groups", "_flatten",
        "auction_ok", "views_ok",
    }
    offenders = []
    for path in sorted(package.glob("*.py")):
        tree = ast.parse(path.read_text(encoding="utf-8"), str(path))
        offenders += [
            f"{path.name}:{getattr(node, 'lineno', 0)}: {_identifier(node)}"
            for node in ast.walk(tree)
            if _identifier(node) in gone
        ]
        if path.name == "model.py":
            tree.body = [
                node for node in tree.body if getattr(node, "name", None) != "auction_fault"
            ]
        offenders += [
            f"{path.name}:{node.lineno}: same_quantum"
            for node in ast.walk(tree)
            if _identifier(node) == "same_quantum"
        ]
    assert offenders == []


def test_each_bid_table_line_is_read_once():
    # bid_rows reads every line of a bid table, a line the split refuses
    # through the per-line csv fallback, and model.auction_views is the
    # one grouping of its rows; the whole-file re-read through the
    # reference reader is gone.
    package = Path(shillbid.__file__).parent
    gone = {"_NotPlain", "read_bid_table", "_checked_views", "_auction_view"}
    offenders = []
    for path in sorted(package.glob("*.py")):
        tree = ast.parse(path.read_text(encoding="utf-8"), str(path))
        offenders += [
            f"{path.name}:{getattr(node, 'lineno', 0)}: {_identifier(node)}"
            for node in ast.walk(tree)
            if _identifier(node) in gone
            or isinstance(node, ast.Call) and _identifier(node.func) == "read_preprocessed"
        ]
    assert offenders == []


def test_an_auction_has_one_shape():
    # AuctionView is the one in-memory shape of an auction, and BidRecord
    # one row of the bid table. No other class may declare an auction's
    # fields: inside the cleanse an auction is (head, times, amounts,
    # bidders).
    package = Path(shillbid.__file__).parent
    offenders = []
    for path in sorted(package.glob("*.py")):
        tree = ast.parse(path.read_text(encoding="utf-8"), str(path))
        for node in ast.walk(tree):
            if not isinstance(node, ast.ClassDef) or node.name in ("AuctionView", "BidRecord"):
                continue
            declared = {
                target.id
                for stmt in node.body
                for target in getattr(stmt, "targets", [getattr(stmt, "target", None)])
                if isinstance(target, ast.Name)
            }
            if {"seller_id", "winning_bid"} <= declared:
                offenders.append(f"{path.name}:{node.lineno}: {node.name}")
    assert offenders == []


def test_only_ingest_frames_csv():
    # How a table is opened, framed and quoted is one decision, made in
    # ingest. synth writes the raw corpus its own way: its bytes feed
    # every recorded digest.
    package = Path(shillbid.__file__).parent
    offenders = []
    for path in sorted(package.glob("*.py")):
        if path.name in ("ingest.py", "synth.py"):
            continue
        tree = ast.parse(path.read_text(encoding="utf-8"), str(path))
        for node in ast.walk(tree):
            if isinstance(node, ast.Import):
                names = [alias.name for alias in node.names]
            elif isinstance(node, ast.ImportFrom) and node.level == 0:
                names = [node.module or ""]
            else:
                continue
            if any(name.split(".")[0] == "csv" for name in names):
                offenders.append(f"{path.name}:{node.lineno}")
    assert offenders == []


def test_every_config_field_has_a_reader():
    # A config field or stored value that nothing reads is a knob that
    # does nothing. A bounds check in a config's own validate is not a
    # reader: it only guards the knob.
    owners = (SynthConfig, PipelineConfig, BidderAggregate)
    names = {cls.__name__ for cls in owners}
    package = Path(shillbid.__file__).parent
    read = set()
    for path in sorted(package.glob("*.py")):
        tree = ast.parse(path.read_text(encoding="utf-8"), str(path))
        for node in tree.body:
            if isinstance(node, ast.ClassDef) and node.name in names:
                node.body = [
                    item for item in node.body if getattr(item, "name", None) != "validate"
                ]
        read.update(
            node.attr
            for node in ast.walk(tree)
            if isinstance(node, ast.Attribute) and isinstance(node.ctx, ast.Load)
        )
    unread = [
        f"{cls.__name__}.{f.name}"
        for cls in owners
        for f in dataclasses.fields(cls)
        if f.name not in read
    ]
    assert unread == []


def test_src_generates_no_code():
    # Every class is what its source says: no module builds code from
    # text, so the dataclass decorator writes each __init__. Records
    # built in bulk are plain slotted dataclasses; a view stays frozen,
    # since the aggregates trust a view object by identity.
    package = Path(shillbid.__file__).parent
    offenders = []
    for path in sorted(package.glob("*.py")):
        tree = ast.parse(path.read_text(encoding="utf-8"), str(path))
        for node in ast.walk(tree):
            call = isinstance(node, ast.Call)
            name = _identifier(node.func if call else node)
            if name == "fast_frozen_init" or call and name in ("exec", "eval"):
                offenders.append(f"{path.name}:{node.lineno}: {name}")
    assert offenders == []
    view = make_view([("alice", "12.00", 150_000)])
    with pytest.raises(dataclasses.FrozenInstanceError):
        view.num_bids = 2
