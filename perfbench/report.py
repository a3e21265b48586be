"""Run every workload once and print its metrics as one table.

Run from the root of a crffw checkout:

    python3 perfbench/report.py --seed 1 --seconds 35            # end to end
    python3 perfbench/report.py --seed 1 --seconds 35 --trace 1  # per layer

Each workload runs in its own `run.py` process, one after the other, so
peak memory and caches are per workload.  `failure_rate` is the run's
failed jobs over attempted jobs.
"""

from __future__ import annotations

import argparse
import json
import os
import subprocess
import sys


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=35)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    here = os.path.dirname(os.path.abspath(__file__))
    with open(os.path.join(os.path.dirname(here), "BENCHMARK.json"), encoding="utf-8") as fh:
        names = [w["name"] for w in json.load(fh)["workloads"]]
    run = os.path.join(here, "run.py")
    results = {}
    for name in names:
        proc = subprocess.run([sys.executable, run, "--workload", name, "--seed", str(args.seed),
                               "--seconds", str(args.seconds), "--trace", str(args.trace)],
                              capture_output=True, text=True, check=False)
        if proc.returncode != 0:
            sys.stderr.write(proc.stderr)
            return proc.returncode
        results[name] = json.loads(proc.stdout.strip().splitlines()[-1])
    metrics = list(next(iter(results.values()))["metrics"])
    print(f"{'metric':34s} {'unit':>16s} " + " ".join(f"{w:>14s}" for w in names))
    for metric in metrics:
        unit = results[names[0]]["metrics"][metric]["unit"]
        cells = " ".join(f"{results[w]['metrics'][metric]['value']:14.6g}" for w in names)
        print(f"{metric:34s} {unit:>16s} {cells}")
    rates = " ".join(f"{r['failed'] / r['attempted']:14.6g}" for r in results.values())
    print(f"{'failure_rate':34s} {'ratio':>16s} {rates}")
    return 0 if all(r["correct"] for r in results.values()) else 1


if __name__ == "__main__":
    sys.exit(main())
