"""Benchmark of the shillbid batch chain: wall time, peak RSS and correctness.

    python3 perfbench/run.py --workload scrape-dirty --seed 4 --seconds 20 --trace 0

Run it from anywhere inside a checkout of the repository; it imports the
package from the checkout's `src/` and writes only under
`.perfbench_work/` at the checkout root. It:

1. sets up: generates the workload's corpus from --seed with
   `synth.write_corpus`, in a command of its own (make_corpus.py), and
   for `recheck` also runs `preprocess` and `features` on it; it does so
   several times and reports the median as `setup_s`;
2. runs the workload's `shillbid` commands, each in its own process, over
   and over for --seconds (at least three times), timing each command,
   adjusting the time for the machine's current speed (see Pace), and
   reading its peak RSS with os.wait4;
3. with --trace 1, also runs the traced in-process mirror (traced.py) of
   the same commands and reports per-layer metrics from its spans;
4. checks every output: exit codes, the cleansing report against the
   synth defect manifest, byte identity across runs and against the
   digests recorded in recorded.json for the default seed;
5. prints a table of metrics, then one JSON line with `correct`,
   `attempted`, `failed` and `metrics`.

See README.md in this directory for the workloads and metrics.
"""
from __future__ import annotations

import argparse
import contextlib
import csv
import hashlib
import json
import os
import shutil
import signal
import statistics
import subprocess
import sys
import threading
import time
from dataclasses import dataclass, field
from pathlib import Path

from workloads import RECHECK_SETUP, WORKLOADS, Workload

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
WORK = ROOT / ".perfbench_work"
RECORDED = HERE / "recorded.json"
ALL_CPUS = frozenset(os.sched_getaffinity(0))

DEFAULT_SEED = 4
SETUP_REPEATS = 3
MIN_CHAINS = 3
TRACED_CHAINS = 3
STARTUP_SAMPLES = 3
COMMAND_TIMEOUT_S = 150.0
# Pace sampling (see Pace): one reference slice every SAMPLE_PERIOD_S.
SAMPLE_PERIOD_S = 0.1
SLICE_ITERATIONS = 12_000
# The warm slice's best time in a tight loop on the box the baseline was
# taken on (2 vCPUs, Python 3.11): adjusted times are times at the speed
# the box has at its quietest. The gate uses only their ratios.
SLICE_SECONDS = 0.0038

# The end-to-end metrics of BENCHMARK.json: defined on every workload,
# never 0, and steady enough from run to run for a bound to hold.
END_TO_END = {
    "setup_s": "s",
    "chain_s": "s",
    "rows_per_s": "rows/s",
    "peak_rss_mb": "MB",
    "preprocess_rss_mb": "MB",
    "downstream_rss_mb": "MB",
}
# Printed in the table only: per-command times spread too widely between
# runs on a shared 2-vCPU box to bound, or exist on some workloads only.
EXTRA_UNITS = {
    "preprocess_s": "s",
    "downstream_s": "s",
    "features_s": "s",
    "stats_s": "s",
    "validate_s": "s",
    "features_rss_mb": "MB",
    "chain_wall_s": "s",
}

# Spans whose summed self time is reported as "<name>_s".
LAYER_SPANS = (
    "ingest.scan",
    "ingest.read_preprocessed",
    "ingest.write_preprocessed",
    "ingest.read_sb",
    "ingest.write_sb",
    "ingest.check_sb",
    "preprocess.clean",
    "preprocess.recleanse",
    "model.validate",
    "metrics.aggregates",
    "metrics.score",
    "dataset.build",
    "dataset.stats",
)
# Spans whose end-of-span peak RSS is reported as "<name>.rss_mb".
RSS_SPANS = (
    "cli.preprocess",
    "cli.features",
    "cli.stats",
    "cli.validate",
) + tuple(name for name in LAYER_SPANS if name != "ingest.scan")
COUNTS = {
    "ingest.scan_rows": "count",
    "ingest.rejected_rows": "count",
    "ingest.raw_bytes": "bytes",
    "ingest.preprocessed_bytes": "bytes",
    "ingest.features_bytes": "bytes",
    "preprocess.rows_in": "count",
    "preprocess.rows_out": "count",
    "preprocess.auctions_out": "count",
    "metrics.bidders": "count",
    "dataset.instances": "count",
}
PER_LAYER = {
    **{f"{name}_s": "s" for name in LAYER_SPANS},
    "cli.self_s": "s",
    "cli.startup_s": "s",
    "synth.write_corpus_s": "s",
    "trace.total_s": "s",
    "trace.chain_s": "s",
    "trace.unspanned_s": "s",
    "trace.overhead_s": "s",
    **COUNTS,
    "preprocess.kept_ratio": "1",
    "dataset.instances_per_row": "1",
    **{f"{name}.rss_mb": "MB" for name in RSS_SPANS},
}

LAYER_NOTES = {
    "cli.startup_s": f"median of {STARTUP_SAMPLES} runs of shillbid --help",
    "synth.write_corpus_s": f"median of {SETUP_REPEATS} set-ups",
    "trace.overhead_s": "median trace.chain_s minus chain_s",
}


class SetupError(RuntimeError):
    """The program failed while building a workload's inputs."""


@dataclass
class Step:
    """One command of one chain, as it ran."""

    label: str
    seconds: float
    rss_mb: float
    returncode: int
    problems: list[str] = field(default_factory=list)
    # seconds at the quiet reference speed (see Pace)
    adjusted: float = 0.0
    # time the command spent stopped for pace slices, not in seconds
    paused: float = 0.0
    # which chain the step belongs to, as "untraced 2" or "traced 1"
    chain: str = ""

    @property
    def pace(self) -> float:
        """Scale from time measured inside the command, which includes the
        pauses, to the reference speed."""
        return self.adjusted / (self.seconds + self.paused)


@dataclass
class Setup:
    seconds: list[float]
    synth_seconds: list[float]
    input_rows: int
    # Removal counts the synth defect manifest implies for raw.csv.
    manifest_removals: dict[str, int]
    # What the chain's preprocess report must show.
    expected_removed: dict[str, int]
    expected_digests: dict[str, str]


# Keys for the reference slice, made once so the slice times no formatting.
_SLICE_KEYS = tuple(f"u{i:05d}" for i in range(4096))


def _slice_body() -> None:
    table: dict[str, list] = {}
    for i in range(SLICE_ITERATIONS):
        key = _SLICE_KEYS[i * 2654435761 % len(_SLICE_KEYS)]
        table.setdefault(key, []).append((i, key, str(i)))


def reference_slice() -> float:
    """Time a fixed slice of pure-Python work, warm.

    Like the program, it hashes strings, allocates tuples and appends to
    lists in a dict; a slowed host hurts such work more than plain
    arithmetic, and an arithmetic loop tracked the commands' slowdown
    less well. The slice runs twice and only the second run is timed:
    the first brings its keys, its code and the allocator's free memory
    back into the caches, so the timed run does not depend on how much
    of them the paused command had taken.
    """
    _slice_body()
    started = time.perf_counter()
    _slice_body()
    return time.perf_counter() - started


class Pace:
    """Adjusts measured times for the machine's current speed.

    Other tenants of a shared host slow this VM by 10-30%, in stretches
    from a fraction of a second to minutes, and the guest counts the lost
    time as the running command's own. Reference slices, timed on the
    same CPU while the measured work is paused, are slowed the same way:
    an interval's adjusted length is its length times SLICE_SECONDS over
    the mean slice time, that is, its length at the quiet speed.
    """

    def __init__(self) -> None:
        self.slices = [reference_slice()]

    def sample(self) -> None:
        self.slices.append(reference_slice())

    def adjust(self, seconds: float) -> float:
        return seconds * SLICE_SECONDS / statistics.mean(self.slices)


def pin_to_one_cpu() -> None:
    """Run the benchmark, its reference slices and its commands on one CPU.

    The two vCPUs are slowed independently from moment to moment, so a
    slice only tells the pace of the CPU it ran on.
    """
    os.sched_setaffinity(0, {min(os.sched_getaffinity(0))})


def _env() -> dict[str, str]:
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        p for p in (str(SRC), env.get("PYTHONPATH")) if p
    )
    return env


def run_command(
    argv: list[str], cwd: Path, stdout: Path | None = None, processes: int = 1
) -> Step:
    """Run one command to completion; time it, pace it, read its peak RSS.

    The command runs in its own process group on the benchmark's CPU (on
    every CPU when it starts `processes` > 1 workers). Every
    SAMPLE_PERIOD_S the group is stopped while one reference slice runs;
    the command's time excludes those pauses.
    """
    pace = Pace()
    out = open(stdout, "wb") if stdout else subprocess.DEVNULL
    paused = 0.0
    try:
        with open(cwd / "stderr.log", "ab") as err:
            started = time.perf_counter()
            proc = subprocess.Popen(
                argv, cwd=cwd, env=_env(), stdout=out, stderr=err, start_new_session=True
            )
            try:
                if processes > 1:
                    os.sched_setaffinity(proc.pid, ALL_CPUS)
                # Wait for the exit without reaping, so the pid stays ours
                # to signal until wait4 below.
                exited = threading.Event()
                ended: list[float] = []

                def watch() -> None:
                    os.waitid(os.P_PID, proc.pid, os.WEXITED | os.WNOWAIT)
                    ended.append(time.perf_counter())
                    exited.set()

                watcher = threading.Thread(target=watch, daemon=True)
                watcher.start()
                while not exited.wait(SAMPLE_PERIOD_S):
                    if time.perf_counter() - started > COMMAND_TIMEOUT_S:
                        # A hung command is killed, so every run ends in bounded time.
                        os.killpg(proc.pid, signal.SIGKILL)
                        break
                    stopped = time.perf_counter()
                    os.killpg(proc.pid, signal.SIGSTOP)
                    pace.sample()
                    os.killpg(proc.pid, signal.SIGCONT)
                    paused += time.perf_counter() - stopped
                watcher.join()
                _, status, usage = os.wait4(proc.pid, 0)
            except BaseException:
                with contextlib.suppress(ProcessLookupError):
                    os.killpg(proc.pid, signal.SIGKILL)
                proc.wait()
                raise
            seconds = ended[0] - started - paused
    finally:
        if stdout:
            out.close()
    pace.sample()
    # Tell Popen the child is already reaped.
    proc.returncode = os.waitstatus_to_exitcode(status)
    # ru_maxrss is in KiB on Linux.
    return Step(
        argv[-1],
        seconds,
        usage.ru_maxrss / 1024.0,
        proc.returncode,
        adjusted=pace.adjust(seconds),
        paused=paused,
    )


def cli(*args: str) -> list[str]:
    return [sys.executable, "-m", "shillbid", *args]


def sha256(path: Path) -> str:
    digest = hashlib.sha256()
    with open(path, "rb") as handle:
        for block in iter(lambda: handle.read(1 << 20), b""):
            digest.update(block)
    return digest.hexdigest()


def expected_removals(raw_path: Path, manifest: dict) -> dict[str, int]:
    """The cleansing report's removal counts the defect manifest implies.

    A thin or inconsistent auction loses every row that survives the
    duplicate and blank-bidder rules, so its removed rows are its raw
    rows minus its injected duplicates and blanks.
    """
    from shillbid.ingest import DEFAULT_RAW_SCHEMA

    thin, inconsistent = manifest["thin_auction_urls"], manifest["inconsistent_auction_urls"]
    dropped = set(thin) | set(inconsistent)
    raw_rows = dict.fromkeys(dropped, 0)
    with open(raw_path, "r", encoding="utf-8", newline="") as handle:
        reader = csv.reader(handle)
        url_at = next(reader).index(DEFAULT_RAW_SCHEMA["auction_url"])
        for cells in reader:
            if cells[url_at] in raw_rows:
                raw_rows[cells[url_at]] += 1

    def survivors(urls) -> int:
        return sum(
            raw_rows[url]
            - manifest["duplicates_by_url"].get(url, 0)
            - manifest["missing_by_url"].get(url, 0)
            for url in urls
        )

    return {
        "duplicate_records_removed": manifest["duplicate_rows"],
        "missing_bidder_rows_removed": manifest["missing_bidder_rows"],
        "low_bid_auctions_removed": manifest["thin_auctions"],
        "low_bid_rows_removed": survivors(thin),
        "inconsistent_auctions_removed": manifest["inconsistent_auctions"],
        "inconsistent_rows_removed": survivors(inconsistent),
    }


def removal_problems(report_path: Path, expected: dict[str, int]) -> list[str]:
    try:
        removed = json.loads(report_path.read_text(encoding="utf-8"))["cleansing"]["removed"]
    except (OSError, ValueError, KeyError) as exc:
        return [f"cleansing report unreadable: {exc!r}"]
    return [
        f"report {key} = {removed.get(key)}, manifest implies {want}"
        for key, want in expected.items()
        if removed.get(key) != want
    ]


def set_up(workload: Workload, seed: int, scale: float, rundir: Path) -> Setup:
    # Compile the package once, untimed: users do not pay that per run.
    if run_command(cli("--help"), rundir).returncode:
        raise SetupError(f"shillbid --help failed; see {rundir / 'stderr.log'}")
    make_corpus = [
        sys.executable, str(HERE / "make_corpus.py"),
        workload.name, str(seed), str(scale), "raw.csv", "manifest.json",
    ]
    seconds, synth_seconds = [], []
    for _ in range(SETUP_REPEATS):
        step = run_command(make_corpus, rundir)
        if step.returncode:
            raise SetupError(f"make_corpus.py failed; see {rundir / 'stderr.log'}")
        manifest = json.loads((rundir / "manifest.json").read_text(encoding="utf-8"))
        synth_seconds.append(manifest["write_corpus_s"] * step.pace)
        commands = step.adjusted
        if workload.recheck:
            for argv in RECHECK_SETUP:
                step = run_command(cli(*argv), rundir)
                if step.returncode:
                    raise SetupError(f"set-up command {' '.join(argv)} failed")
                commands += step.adjusted
        seconds.append(commands)

    rows = manifest["rows"]
    removed = expected_removals(rundir / "raw.csv", manifest)
    if not workload.recheck:
        return Setup(seconds, synth_seconds, rows, removed, removed, {})
    problems = removal_problems(rundir / "bids.csv.report.json", removed)
    if problems:
        raise SetupError("set-up preprocess: " + "; ".join(problems))
    with open(rundir / "bids.csv", "rb") as handle:
        input_rows = sum(1 for _ in handle) - 1
    return Setup(
        seconds,
        synth_seconds,
        input_rows,
        removed,
        dict.fromkeys(removed, 0),
        # Re-cleansing a clean table must reproduce it byte for byte.
        {"preprocess:bids.csv": sha256(rundir / "bids.csv")},
    )


def run_chain(
    workload: Workload,
    rundir: Path,
    mode: str,
    setup: Setup,
    expected: dict[str, str],
    chain: str = "",
) -> tuple[list[Step], list[dict]]:
    """Run the workload's commands once in rundir/mode and check their outputs.

    expected maps "label:file" to a sha256; a digest not yet in it is
    added from this chain, so the first chain is the reference the later
    ones must match (on the default seed, recorded.json gives them all).
    chain names the chain in the steps' failure reports.
    """
    traced = mode.startswith("traced")
    work = rundir / mode
    shutil.rmtree(work, ignore_errors=True)
    work.mkdir()
    steps, traces = [], []
    for cmd in workload.commands():
        if traced:
            trace_file = f"{cmd.label}.trace.json"
            argv = [sys.executable, str(HERE / "traced.py"), trace_file, *cmd.argv]
        else:
            argv = cli(*cmd.argv)
        step = run_command(
            argv, work, work / cmd.stdout if cmd.stdout else None, cmd.processes
        )
        step.label, step.chain = cmd.label, chain or mode
        steps.append(step)
        if step.returncode:
            step.problems.append(f"exit {step.returncode}; see {work / 'stderr.log'}")
            continue
        if traced:
            traces.append(json.loads((work / trace_file).read_text(encoding="utf-8")))
        for name in cmd.checked:
            key = f"{cmd.label}:{name}"
            if not (work / name).exists():
                step.problems.append(f"{name} missing")
                continue
            digest = expected.setdefault(key, sha256(work / name))
            if sha256(work / name) != digest:
                step.problems.append(f"{name} differs from the reference bytes")
        if cmd.kind == "preprocess":
            step.problems += removal_problems(
                work / "bids.csv.report.json", setup.expected_removed
            )
    return steps, traces


def layer_metrics(
    traces: list[dict],
    paces: list[float] | None = None,
    steps: list[Step] | None = None,
) -> dict[str, float]:
    """Per-layer numbers from the spans of one traced chain.

    paces[i] scales the span times of command i to the reference speed
    (Step.pace). Without it times are as measured. With the chain's
    steps, it also reports the traced commands' own adjusted time,
    trace.chain_s, and the part of it no span covers, trace.unspanned_s:
    interpreter start-up, imports and exit.
    """
    paces = paces or [1.0] * len(traces)
    spans = [
        (i, dict(span, busy=span["busy"] * paces[i]))
        for i, trace in enumerate(traces)
        for span in trace["spans"]
    ]
    child_busy: dict[tuple[int, int], float] = {}
    for i, span in spans:
        if span["parent"] is not None:
            key = (i, span["parent"])
            child_busy[key] = child_busy.get(key, 0.0) + span["busy"]
    self_s = dict.fromkeys(LAYER_SPANS, 0.0)
    self_s["cli"] = 0.0
    rss = dict.fromkeys(RSS_SPANS, 0.0)
    total = 0.0
    for i, span in spans:
        name = span["name"]
        own = span["busy"] - child_busy.get((i, span["id"]), 0.0)
        layer = "cli" if name.startswith("cli.") else name
        self_s[layer] = self_s.get(layer, 0.0) + own
        if span["parent"] is None:
            total += span["busy"]
        if name in rss:
            rss[name] = max(rss[name], span["rss_mb"])
    counts = dict.fromkeys(COUNTS, 0)
    for trace in traces:
        counts.update(trace["counts"])
    out = {f"{name}_s": self_s[name] for name in LAYER_SPANS}
    out["cli.self_s"] = self_s["cli"]
    out["trace.total_s"] = total
    if steps is not None:
        out["trace.chain_s"] = sum(step.adjusted for step in steps)
        out["trace.unspanned_s"] = out["trace.chain_s"] - total
    out.update(counts)
    rows_in = counts["preprocess.rows_in"]
    out["preprocess.kept_ratio"] = counts["preprocess.rows_out"] / rows_in if rows_in else 0.0
    raw_rows = counts["ingest.scan_rows"]
    out["dataset.instances_per_row"] = counts["dataset.instances"] / raw_rows if raw_rows else 0.0
    out.update({f"{name}.rss_mb": value for name, value in rss.items()})
    return out


def summarize(chains: list[list[Step]]) -> dict[str, float]:
    """End-to-end numbers over the untraced chains, plus per-command extras.

    Every number is a median over the chains. Times are pace-adjusted
    (see Pace); chain_wall_s is the unadjusted wall time, for reference.
    """
    labels = [step.label for step in chains[0]]

    def median(attr: str) -> dict[str, float]:
        return {
            label: statistics.median(getattr(chain[i], attr) for chain in chains)
            for i, label in enumerate(labels)
        }

    adjusted, wall, rss = median("adjusted"), median("seconds"), median("rss_mb")
    rest = [label for label in labels if label != "preprocess"]
    out = {
        "chain_s": sum(adjusted.values()),
        "preprocess_s": adjusted["preprocess"],
        "downstream_s": sum(adjusted[label] for label in rest),
        "peak_rss_mb": max(rss.values()),
        "preprocess_rss_mb": rss["preprocess"],
        "downstream_rss_mb": max(rss[label] for label in rest),
    }
    for label in ("features", "stats"):
        if label in adjusted:
            out[f"{label}_s"] = adjusted[label]
    validates = [adjusted[label] for label in labels if label.startswith("validate")]
    if validates:
        out["validate_s"] = sum(validates)
    if "features" in rss:
        out["features_rss_mb"] = rss["features"]
    out["chain_wall_s"] = sum(wall.values())
    return out


def medians(samples: list[dict[str, float]]) -> dict[str, float]:
    return {key: statistics.median(s[key] for s in samples) for key in samples[0]}


def recorded_digests(workload: str, seed: int, scale: float) -> dict[str, str]:
    if not RECORDED.exists():
        return {}
    recorded = json.loads(RECORDED.read_text(encoding="utf-8"))
    if recorded["seed"] != seed or recorded["scale"] != scale:
        return {}
    return dict(recorded["workloads"].get(workload, {}).get("digests", {}))


def measure(args: argparse.Namespace, rundir: Path) -> dict:
    workload = WORKLOADS[args.workload]
    setup = set_up(workload, args.seed, args.scale, rundir)
    expected = dict(setup.expected_digests)
    recorded = recorded_digests(workload.name, args.seed, args.scale)
    expected.update(recorded)

    chains: list[list[Step]] = []
    started = time.perf_counter()
    while len(chains) < MIN_CHAINS or time.perf_counter() - started < args.seconds:
        name = f"untraced {len(chains) + 1}"
        steps, _ = run_chain(workload, rundir, "untraced", setup, expected, name)
        chains.append(steps)

    e2e = summarize(chains)
    e2e["setup_s"] = statistics.median(setup.seconds)
    e2e["rows_per_s"] = setup.input_rows / e2e["chain_s"]
    all_steps = [step for steps in chains for step in steps]

    layers, traced = None, []
    if args.trace:
        first_traces = []
        for n in range(TRACED_CHAINS):
            steps, traces = run_chain(
                workload, rundir, f"traced{n}", setup, expected, f"traced {n + 1}"
            )
            all_steps += steps
            first_traces = first_traces or traces
            if len(traces) == len(steps):
                traced.append(layer_metrics(traces, [s.pace for s in steps], steps))
        layers = medians(traced) if traced else {}
        layers["synth.write_corpus_s"] = statistics.median(setup.synth_seconds)
        layers["cli.startup_s"] = statistics.median(
            run_command(cli("--help"), rundir).adjusted for _ in range(STARTUP_SAMPLES)
        )
        if "trace.chain_s" in layers:
            layers["trace.overhead_s"] = layers["trace.chain_s"] - e2e["chain_s"]
        # Keep the first traced chain's spans, as the traced processes wrote them.
        with open(WORK / f"trace-{workload.name}-{args.seed}.json", "w", encoding="utf-8") as handle:
            json.dump(first_traces, handle, indent=1)
            handle.write("\n")

    failed = [step for step in all_steps if step.problems]
    return {
        "workload": workload,
        "setup": setup,
        "chains": len(chains),
        "e2e": e2e,
        "layers": layers,
        "attempted": len(all_steps),
        "failed": failed,
        "digests_checked": bool(recorded),
        "traced": traced,
    }


def report(args: argparse.Namespace, result: dict) -> dict:
    e2e, layers = result["e2e"], result["layers"]
    attempted, failed = result["attempted"], len(result["failed"])
    n = result["chains"]
    print(
        f"# shillbid benchmark: workload {args.workload}, seed {args.seed}, "
        f"{result['setup'].input_rows} input rows, {n} timed chains, "
        f"recorded digests {'checked' if result['digests_checked'] else 'not recorded for this seed'}"
    )
    units = {**END_TO_END, **EXTRA_UNITS}
    for name in units:
        if name not in e2e:
            continue
        value = e2e[name]
        if name == "setup_s":
            how = f"median of {SETUP_REPEATS} set-ups, pace-adjusted"
        elif name == "chain_wall_s":
            how = f"median of {n} chains, wall clock"
        elif units[name] == "s":
            how = f"median of {n} chains, pace-adjusted"
        elif name == "rows_per_s":
            how = "input rows over chain_s"
        else:
            how = f"median of {n} chains"
        print(f"{name:<34} {value:>16.4f} {units[name]:<7} {how}")
    print(f"{'failure_ratio':<34} {failed / attempted:>16.4f} {'1':<7} {failed} of {attempted} commands")
    if layers is not None:
        for name, unit in PER_LAYER.items():
            how = LAYER_NOTES.get(name, f"median of {len(result['traced'])} traced chains")
            if unit == "s":
                how += ", pace-adjusted"
            print(f"{name:<34} {layers.get(name, float('nan')):>16.4f} {unit:<7} {how}")
    for step in result["failed"]:
        print(f"FAILED {step.chain} {step.label}: {'; '.join(step.problems)}", file=sys.stderr)

    if args.trace:
        metrics = {
            name: {"value": layers.get(name, 0.0), "unit": unit}
            for name, unit in PER_LAYER.items()
        }
    else:
        metrics = {name: {"value": e2e[name], "unit": unit} for name, unit in END_TO_END.items()}
    return {
        "correct": failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": metrics,
    }


def parse_args(argv: list[str] | None) -> argparse.Namespace:
    parser = argparse.ArgumentParser(description="shillbid chain benchmark")
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, default=DEFAULT_SEED)
    parser.add_argument("--seconds", type=float, default=20.0, help="how long to time chains")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument(
        "--scale",
        type=float,
        default=1.0,
        help="multiply the workload's auction count (the smoke tests use 0.02)",
    )
    return parser.parse_args(argv)


def main(argv: list[str] | None = None) -> int:
    args = parse_args(argv)
    if not (SRC / "shillbid" / "__init__.py").is_file():
        print(f"error: no shillbid package under {SRC}", file=sys.stderr)
        return 2
    if str(SRC) not in sys.path:
        sys.path.insert(0, str(SRC))
    # Turn a termination request into SystemExit, so that the command
    # running is killed and the run's files are removed on the way out.
    signal.signal(signal.SIGTERM, lambda signum, frame: sys.exit(128 + signum))
    pin_to_one_cpu()
    rundir = WORK / f"{args.workload}-{args.seed}-{os.getpid()}"
    shutil.rmtree(rundir, ignore_errors=True)
    rundir.mkdir(parents=True)
    try:
        result = measure(args, rundir)
    except SetupError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    finally:
        shutil.rmtree(rundir, ignore_errors=True)
    print(json.dumps(report(args, result)))
    return 0


if __name__ == "__main__":
    sys.exit(main())
