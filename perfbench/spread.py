"""Run the benchmark once per seed and print the spread of every metric.

    python3 perfbench/spread.py --workload NAME [--seeds 1-10] [--seconds S]

For each metric it prints the median, the first and third quartiles as
`statistics.quantiles(values, n=4)` gives them, and the spread
(q3 - q1) / median, next to the metric's bound from BENCHMARK.json. It
also prints the share of failed operations of each run. These are the
figures a set of runs is judged by, and the ones quoted in README.md.
"""
from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys

from run import HERE, load_spec


def summary(values: list[float]) -> dict:
    """Median, quartiles and interquartile spread as a share of the median."""
    q1, med, q3 = statistics.quantiles(values, n=4)
    return {"median": med, "q1": q1, "q3": q3,
            "spread": (q3 - q1) / med if med else float("nan")}


def parse_seeds(text: str) -> list[int]:
    """`1-10` or `1,4,7`."""
    if "-" in text:
        lo, hi = (int(v) for v in text.split("-"))
        return list(range(lo, hi + 1))
    return [int(v) for v in text.split(",")]


def main(argv=None) -> int:
    spec = load_spec()
    parser = argparse.ArgumentParser(prog="perfbench/spread.py")
    parser.add_argument("--workload", required=True,
                        choices=[w["name"] for w in spec["workloads"]])
    parser.add_argument("--seeds", type=parse_seeds, default=parse_seeds("1-10"))
    parser.add_argument("--seconds", type=int, default=spec["run_seconds"])
    args = parser.parse_args(argv)
    runs = []
    for seed in args.seeds:
        proc = subprocess.run(
            [sys.executable, str(HERE / "run.py"), "--workload", args.workload,
             "--seed", str(seed), "--seconds", str(args.seconds),
             "--trace", "0"],
            capture_output=True, text=True, timeout=200)
        if proc.returncode != 0:
            print(proc.stderr, file=sys.stderr)
            return 1
        res = json.loads(proc.stdout.strip().splitlines()[-1])
        runs.append(res)
        print(f"seed {seed}: correct={res['correct']} failed "
              f"{res['failed']}/{res['attempted']} " + " ".join(
                  f"{k}={v['value']:.5g}" for k, v in res["metrics"].items()),
              flush=True)
    bounds = {m["name"]: m.get("bound") for m in spec["end_to_end"]}
    print(f"{'metric':40s} {'median':>11s} {'q1':>11s} {'q3':>11s} "
          f"{'spread':>7s} {'bound':>6s}")
    for name, first in runs[0]["metrics"].items():
        s = summary([r["metrics"][name]["value"] for r in runs])
        bound = bounds.get(name)
        print(f"{name:40s} {s['median']:11.5g} {s['q1']:11.5g} {s['q3']:11.5g} "
              f"{s['spread']:7.2%} {'' if bound is None else f'{bound:.2f}':>6s}")
    shares = {r["failed"] / r["attempted"] for r in runs}
    print(f"failed share per run: {sorted(shares)}; all correct: "
          f"{all(r['correct'] for r in runs)}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
