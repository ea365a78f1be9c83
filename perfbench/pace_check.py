"""Check that pace adjustment does not depend on the command's working set.

    python3 perfbench/pace_check.py --pairs 12

Runs two stand-in commands of about equal quiet wall time through
run.run_command, alternating: `big` follows pointers through a shuffled
list of 2 million integers (about 75 MB, far beyond every cache), and
`small` does 12 million lookups in a 64-entry dict. It does so with the
warm reference slice that run.py uses and with a cold one (a single
timed run), and prints, for each, the median ratio of adjusted to
measured time for both commands. That ratio is SLICE_SECONDS over the
mean slice time; if a command's working set slowed the slices taken
while it is paused, `big` would show a lower ratio than `small`.
"""
from __future__ import annotations

import argparse
import statistics
import sys
import tempfile
import time
from pathlib import Path

import run

BIG = """
import random
data = list(range(1, 2_000_000)) + [0]
random.Random(1).shuffle(data)
j = s = 0
for _ in range(2_000_000):
    j = data[j]; s += j
"""
SMALL = """
d = {i: i + 1 for i in range(64)}
j = s = 0
for _ in range(12_000_000):
    j = d[j & 63]; s += j
"""


def cold_slice() -> float:
    started = time.perf_counter()
    run._slice_body()
    return time.perf_counter() - started


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--pairs", type=int, default=12)
    args = parser.parse_args(argv)
    run.pin_to_one_cpu()
    slices = {"warm": run.reference_slice, "cold": cold_slice}
    ratios = {(kind, name): [] for kind in slices for name in ("big", "small")}
    run.WORK.mkdir(exist_ok=True)
    with tempfile.TemporaryDirectory(dir=run.WORK) as tmp:
        cwd = Path(tmp)
        for n in range(args.pairs):
            for kind, slice_fn in slices.items():
                run.reference_slice = slice_fn
                for name, code in (("big", BIG), ("small", SMALL)):
                    step = run.run_command([sys.executable, "-c", code], cwd)
                    if step.returncode:
                        print(f"error: {name} exited {step.returncode}", file=sys.stderr)
                        return 1
                    ratios[(kind, name)].append(step.adjusted / step.seconds)
            print(
                f"pair {n + 1}: "
                + " ".join(f"{k}/{m} {r[-1]:.3f}" for (k, m), r in ratios.items()),
                flush=True,
            )
    for kind in slices:
        big, small = ratios[(kind, "big")], ratios[(kind, "small")]
        per_pair = [b / s for b, s in zip(big, small)]
        q1, _, q3 = statistics.quantiles(per_pair, n=4)
        print(
            f"{kind}: adjusted/measured median big {statistics.median(big):.3f}, "
            f"small {statistics.median(small):.3f}; big/small per pair median "
            f"{statistics.median(per_pair):.3f}, quartiles {q1:.3f}-{q3:.3f}"
        )
    return 0


if __name__ == "__main__":
    sys.exit(main())
