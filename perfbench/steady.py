"""Run the benchmark over several seeds and report each metric's spread.

Usage (from the repository root)::

    python3 perfbench/steady.py --workload grape-pair2 --seeds 1-10 [--trace 0]

Runs are sequential, one process each.  For every metric the script prints
the median and the quartile spread (Q3 - Q1) / median over the seeds, the
figure the benchmark's bounds are set against.  Add ``--json PATH`` to keep
the raw per-seed results.
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent


def _seeds(text: str) -> list[int]:
    if "-" in text:
        lo, hi = text.split("-")
        return list(range(int(lo), int(hi) + 1))
    return [int(s) for s in text.split(",")]


def main(argv=None) -> int:
    p = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    p.add_argument("--workload", required=True)
    p.add_argument("--seeds", default="1-10")
    p.add_argument("--seconds", type=int, default=None,
                   help="defaults to run_seconds of BENCHMARK.json")
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    p.add_argument("--json", type=Path, default=None)
    args = p.parse_args(argv)
    bench = json.loads((HERE.parent / "BENCHMARK.json").read_text())
    seconds = args.seconds or bench["run_seconds"]

    runs = []
    for seed in _seeds(args.seeds):
        cmd = [sys.executable, str(HERE / "run.py"), "--workload", args.workload,
               "--seed", str(seed), "--seconds", str(seconds),
               "--trace", str(args.trace)]
        proc = subprocess.run(cmd, capture_output=True, text=True, timeout=900,
                              cwd=HERE.parent)
        if proc.returncode != 0:
            print(proc.stderr, file=sys.stderr)
            return proc.returncode
        lines = proc.stdout.strip().splitlines()
        result = json.loads(lines[-1])
        runs.append({"seed": seed, "result": result, "details": json.loads(lines[-2])})
        print(f"seed {seed}: correct={result['correct']} "
              f"attempted={result['attempted']} failed={result['failed']}",
              flush=True)

    names = list(runs[0]["result"]["metrics"])
    for name in names:
        values = [r["result"]["metrics"][name]["value"] for r in runs]
        med = statistics.median(values)
        spread = spread_of(values)
        print(f"{name:36s} median {med:12.6g}  spread {spread:7.2%}  "
              f"min {min(values):.6g}  max {max(values):.6g}")
    if args.json:
        args.json.write_text(json.dumps(runs, indent=1))
    return 0


def spread_of(values) -> float:
    med = statistics.median(values)
    if len(values) < 2 or med == 0:
        return 0.0
    q1, _, q3 = statistics.quantiles(values, n=4)
    return (q3 - q1) / abs(med)


if __name__ == "__main__":
    sys.exit(main())
