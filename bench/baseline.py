"""Run every workload at seed 42, untraced and traced, into one JSON file.

    python3 bench/baseline.py [--output bench/results/baseline.json]

Run from the repository root. The file holds each run's result and run
record; the zipf-1m records carry the ROADMAP Baseline rows (gen, map with
1 and 2 workers, rank, fit-zipf ols and mle, heap, plotdata).
"""

from __future__ import annotations

import argparse
import json
import sys
from pathlib import Path

import run


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--output", default="bench/results/baseline.json")
    args = parser.parse_args()
    sys.path.insert(0, str(run.SRC))
    runs = []
    for name in run.WORKLOADS:
        for trace in (False, True):
            result, record = run.run(name, 42, run.SECONDS, trace)
            runs.append({"result": result, "record": record})
            print(f"{name} trace={int(trace)}: {json.dumps(result)}", flush=True)
    out = Path(args.output)
    out.parent.mkdir(parents=True, exist_ok=True)
    out.write_text(json.dumps(runs, indent=1) + "\n", encoding="utf-8")
    return 0 if all(r["result"]["correct"] for r in runs) else 1


if __name__ == "__main__":
    sys.exit(main())
