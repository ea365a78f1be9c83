"""Write one workload's raw corpus and its defect manifest.

    python3 perfbench/make_corpus.py WORKLOAD SEED SCALE RAW_CSV MANIFEST_JSON

Run with the repository's `src` on PYTHONPATH. run.py runs it as a
command of its own, so that set-up is timed and paced like the commands
it benchmarks. The manifest is `DefectManifest.to_dict()` plus
"rows" (raw rows written) and "write_corpus_s" (the time inside
`synth.write_corpus`, without interpreter start-up).
"""
from __future__ import annotations

import json
import sys
import time

from shillbid.synth import SynthConfig, write_corpus
from workloads import WORKLOADS


def main(argv: list[str]) -> int:
    name, seed, scale, raw_path, manifest_path = argv
    config = SynthConfig(**WORKLOADS[name].synth_kwargs(int(seed), float(scale)))
    started = time.perf_counter()
    rows, manifest = write_corpus(config, raw_path)
    seconds = time.perf_counter() - started
    with open(manifest_path, "w", encoding="utf-8") as handle:
        json.dump(dict(manifest.to_dict(), rows=rows, write_corpus_s=seconds), handle)
        handle.write("\n")
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
