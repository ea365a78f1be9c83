"""Tests of the benchmark itself.

    python3 -m pytest perfbench -q

They run every workload at a tiny scale, so they check the harness, not
the timings.
"""
from __future__ import annotations

import json
import re
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

import run
from workloads import WORKLOADS

HERE = Path(__file__).resolve().parent
SPEC = json.loads((HERE.parent / "BENCHMARK.json").read_text(encoding="utf-8"))
TINY = ["--seed", "3", "--seconds", "0", "--scale", "0.02"]


def _bench(*args: str, cwd: Path = HERE.parent) -> subprocess.CompletedProcess:
    return subprocess.run(
        [sys.executable, "perfbench/run.py", *args],
        cwd=cwd,
        capture_output=True,
        text=True,
        timeout=170,
    )


def test_spec_names_what_the_benchmark_prints():
    assert SPEC["command"] == ["python3", "perfbench/run.py"]
    assert [w["name"] for w in SPEC["workloads"]] == list(WORKLOADS)
    assert {m["name"]: m["unit"] for m in SPEC["end_to_end"]} == run.END_TO_END
    assert {m["name"]: m["unit"] for m in SPEC["per_layer"]} == run.PER_LAYER


@pytest.mark.parametrize("trace", ["0", "1"])
@pytest.mark.parametrize("workload", list(WORKLOADS))
def test_smoke_run_prints_every_metric_with_its_unit(workload, trace):
    proc = _bench("--workload", workload, "--trace", trace, *TINY)
    assert proc.returncode == 0, proc.stderr
    *table, last = proc.stdout.splitlines()
    result = json.loads(last)
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] and result["failed"] == 0 and result["attempted"] >= 9
    wanted = run.PER_LAYER if trace == "1" else run.END_TO_END
    assert {name: m["unit"] for name, m in result["metrics"].items()} == wanted
    text = "\n".join(table)
    for name, unit in run.END_TO_END.items():
        assert re.search(rf"^{re.escape(name)}\s+\d\S*\s+{re.escape(unit)}\s+\S", text, re.M)
    assert re.search(r"^failure_ratio\s+0\.0000\s+1\s+0 of \d+ commands$", text, re.M)
    if trace == "0":
        assert all(m["value"] > 0 for m in result["metrics"].values())
        return
    # The layers' self times add up to the spans' total.
    traces = json.loads((run.WORK / f"trace-{workload}-3.json").read_text(encoding="utf-8"))
    assert [t["argv"][0] for t in traces] == [c.kind for c in WORKLOADS[workload].commands()]
    layers = run.layer_metrics(traces)
    accounted = sum(layers[f"{name}_s"] for name in run.LAYER_SPANS) + layers["cli.self_s"]
    assert accounted == pytest.approx(layers["trace.total_s"], rel=1e-9)
    assert all(layers[f"{name}_s"] >= 0 for name in run.LAYER_SPANS)
    # What no span covers is the commands' start-up and exit: more than
    # nothing, less than the traced commands' whole time.
    metrics = {name: m["value"] for name, m in result["metrics"].items()}
    assert 0 < metrics["trace.unspanned_s"] < metrics["trace.chain_s"]


def test_flipped_byte_in_the_cleaned_table_counts_as_a_failure(monkeypatch, capsys):
    real_run_command = run.run_command
    preprocesses = []

    def corrupting(argv, cwd, *args, **kwargs):
        step = real_run_command(argv, cwd, *args, **kwargs)
        if "preprocess" in argv and cwd.name == "untraced":
            preprocesses.append(cwd)
            # Corrupt the second chain, after the first set the reference.
            if len(preprocesses) == 2:
                table = cwd / "bids.csv"
                data = bytearray(table.read_bytes())
                data[len(data) // 2] ^= 1
                table.write_bytes(bytes(data))
        return step

    monkeypatch.setattr(run, "run_command", corrupting)
    # Keep this test process's CPU set and SIGTERM handling as they are.
    monkeypatch.setattr(run, "pin_to_one_cpu", lambda: None)
    monkeypatch.setattr(run.signal, "signal", lambda *args: None)
    assert run.main(["--workload", "scrape-dirty", "--trace", "0", *TINY]) == 0
    out, err = capsys.readouterr()
    *table, last = out.splitlines()
    result = json.loads(last)
    assert len(preprocesses) >= 3
    assert not result["correct"]
    assert result["failed"] >= 1
    # The corrupted step is caught, and no good chain is blamed; the
    # second chain's later commands read the corrupted table and may fail too.
    failures = [line for line in err.splitlines() if line.startswith("FAILED")]
    assert failures[0] == "FAILED untraced 2 preprocess: bids.csv differs from the reference bytes"
    assert len(failures) == result["failed"]
    assert all(line.startswith("FAILED untraced 2 ") for line in failures)
    ratio = re.search(r"^failure_ratio\s+(\S+)", "\n".join(table), re.M)
    assert result["failed"] / result["attempted"] > 0
    assert float(ratio.group(1)) == pytest.approx(result["failed"] / result["attempted"], abs=1e-4)


def test_refuses_to_run_without_the_program(tmp_path):
    shutil.copy(HERE.parent / "BENCHMARK.json", tmp_path)
    shutil.copytree(HERE, tmp_path / "perfbench", ignore=shutil.ignore_patterns("__pycache__"))
    proc = _bench("--workload", "scrape-dirty", "--seed", "1", "--seconds", "1", "--trace", "0", cwd=tmp_path)
    assert proc.returncode != 0
    assert proc.stdout.strip() == ""
