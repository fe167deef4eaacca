"""Print every benchmark metric by name and unit, per workload.

    python3 bench/report.py --seed 11

Runs bench/run.py once untraced and once traced for each workload, each
in its own process for BENCHMARK.json's `run_seconds`, and prints one line
per metric.  `failed_frac` is printed from the runs' `failed` and
`attempted` counts.  Exits 1 if any run's outputs were not correct.  Use
a seed that was not used while a claimed change was written to re-check
the claim.
"""

from __future__ import annotations

import argparse
import json
import subprocess
import sys
from pathlib import Path

from run import WORKLOADS

HERE = Path(__file__).resolve().parent
SECONDS = json.loads((HERE.parent / "BENCHMARK.json").read_text())["run_seconds"]


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--seed", type=int, required=True)
    args = parser.parse_args()
    all_correct = True
    for workload in WORKLOADS:
        attempted = failed = 0
        for trace in ("0", "1"):
            proc = subprocess.run(
                [sys.executable, str(HERE / "run.py"), "--workload", workload,
                 "--seed", str(args.seed), "--seconds", str(SECONDS),
                 "--trace", trace],
                capture_output=True, text=True, check=False)
            sys.stderr.write(proc.stderr)
            if proc.returncode != 0:
                print(f"{workload}: bench/run.py exited {proc.returncode}")
                return 1
            result = json.loads(proc.stdout.splitlines()[-1])
            all_correct = all_correct and result["correct"]
            attempted += result["attempted"]
            failed += result["failed"]
            for name, metric in result["metrics"].items():
                print(f"{workload:13s} {name:45s} {metric['value']:>14.6g} "
                      f"{metric['unit']}")
        print(f"{workload:13s} {'failed_frac':45s} {failed / attempted:>14.6g} "
              f"ratio  ({failed} of {attempted} ops)")
    return 0 if all_correct else 1


if __name__ == "__main__":
    sys.exit(main())
