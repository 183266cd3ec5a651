"""Benchmark of cknlab: end-to-end and per-layer metrics over rounds.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1
    python3 perfbench/run.py [--seed N] [--seconds S] [--trace 0|1]

A run repeats identical rounds of one workload. Each round is a fresh
single-threaded worker process (perfbench/worker.py), started one at a
time, so every round pays the imports and starts with cold caches, as
each `ckn-lab run` does. Rounds are started until the next one would end
after --seconds, and never fewer than MIN_ROUNDS. Metrics are medians
over rounds; `setup_s` and `round_s` are first scaled to the reference
core speed (see `scaled_round_s`). The last line of standard output is
the JSON result.

With --trace 1 the rounds alternate between traced and untraced; the
per-layer metrics are medians over the traced rounds, and
`trace.overhead_pct` compares their round time with the untraced ones.

Without --workload every workload runs in turn and each metric is
printed by name with its unit; the exit code is 1 if a check failed.
"""
from __future__ import annotations

import argparse
import json
import shutil
import statistics
import subprocess
import sys
import time
from collections import Counter
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
WORK = HERE / ".work"
MIN_ROUNDS = 3  # with --trace 1: 4, two traced and two untraced
TIME_LIMIT_S = 170.0  # a run must end within 180 s even if a round hangs
# worker.speed_probe on the reference host (2-core Xeon at 2.0 GHz, Python
# 3.11.7, numpy 2.4.6) at its fast speed, so that setup_s and round_s read
# as seconds there
PROBE_REF_S = 0.0047


class RoundError(Exception):
    pass


def load_spec() -> dict:
    return json.loads((ROOT / "BENCHMARK.json").read_text())


def run_round(workload: str, seed: int, traced: bool, timeout: float) -> dict:
    if WORK.exists():
        shutil.rmtree(WORK)
    WORK.mkdir(parents=True)
    cmd = [sys.executable, str(HERE / "worker.py"), workload, str(seed),
           "1" if traced else "0", str(WORK)]
    launched = time.monotonic()
    try:
        proc = subprocess.run(cmd, capture_output=True, text=True,
                              timeout=max(timeout, 1.0))
    except subprocess.TimeoutExpired:
        raise RoundError(f"{workload} round did not end within {timeout:.0f} s")
    if proc.returncode != 0:
        tail = "\n".join(proc.stderr.strip().splitlines()[-5:])
        raise RoundError(f"{workload} worker exited {proc.returncode}:\n{tail}")
    res = json.loads(proc.stdout.strip().splitlines()[-1])
    res["setup_s"] = res.pop("ready") - launched
    res["traced"] = traced
    return res


def run_rounds(workload: str, seed: int, seconds: float, trace: bool) -> list[dict]:
    min_rounds = 4 if trace else MIN_ROUNDS
    start = time.monotonic()
    rounds: list[dict] = []
    longest = 0.0
    try:
        while True:
            began = time.monotonic()
            traced = trace and len(rounds) % 2 == 0
            rounds.append(run_round(workload, seed, traced,
                                    TIME_LIMIT_S - (began - start)))
            longest = max(longest, time.monotonic() - began)
            if (len(rounds) >= min_rounds
                    and time.monotonic() - start + longest > seconds):
                return rounds
    finally:
        shutil.rmtree(WORK, ignore_errors=True)


def scaled_round_s(rnd: dict) -> float:
    """The round's wall time at the reference core speed.

    The host's cores switch between a fast speed and one ~1.6x slower, for
    seconds to minutes at a time, and no clock inside the process sees it.
    So each operation's time is divided by the mean of the speed probes
    just before and after it, and multiplied by PROBE_REF_S.
    """
    probes = rnd["probe_s"]
    return PROBE_REF_S * sum(t / (0.5 * (p0 + p1)) for t, p0, p1
                             in zip(rnd["op_s"].values(), probes, probes[1:]))


def scaled_setup_s(rnd: dict) -> float:
    """The worker's set-up time at the reference speed, by the first probe."""
    return rnd["setup_s"] * PROBE_REF_S / rnd["probe_s"][0]


def summarize(spec: dict, rounds: list[dict], trace: bool) -> dict:
    """The result object: correctness, operation counts and metrics."""
    plain = [r for r in rounds if not r["traced"]]
    problems = sorted({p for r in rounds for p in r["problems"]})
    if len({r["digest"] for r in rounds}) > 1:
        problems.append("outputs differ between rounds of the same seed")
    if trace:
        traced = [r for r in rounds if r["traced"]]
        metrics = {m["name"]: {"value": statistics.median(
                       r["layers"].get(m["name"], 0) for r in traced),
                       "unit": m["unit"]} for m in spec["per_layer"]}
        metrics["trace.overhead_pct"]["value"] = 100.0 * (
            statistics.median(map(scaled_round_s, traced))
            / statistics.median(map(scaled_round_s, plain)) - 1.0)
    else:
        errs = [r["mms_max_error"] for r in rounds]
        if None in errs:
            raise RoundError("no max error: " + "; ".join(problems))
        values = {"setup_s": statistics.median(map(scaled_setup_s, rounds)),
                  "round_s": statistics.median(map(scaled_round_s, plain)),
                  "peak_rss_mib": statistics.median(r["peak_rss_mib"]
                                                    for r in plain),
                  "mms_max_error": statistics.median(errs)}
        metrics = {m["name"]: {"value": values[m["name"]], "unit": m["unit"]}
                   for m in spec["end_to_end"]}
    return {"correct": not problems,
            "attempted": sum(r["attempted"] for r in rounds),
            "failed": sum(len(r["failed"]) for r in rounds),
            "metrics": metrics, "problems": problems,
            "failures": Counter(tuple(f) for r in rounds for f in r["failed"]),
            "rounds": len(rounds)}


def report_lines(workload: str, summary: dict) -> list[str]:
    """Human-readable lines: failures, check problems and each metric."""
    n = summary["rounds"]
    lines = [f"{workload}: {n} rounds, {summary['attempted']} operations "
             f"attempted, {summary['failed']} failed"]
    for (name, code, line), k in sorted(summary["failures"].items(), key=str):
        lines.append(f"  failed {workload}/{name} code={code} in {k} of {n} "
                     f"rounds: {line}")
    lines += [f"  check failed: {p}" for p in summary["problems"]]
    lines += [f"  {name} = {m['value']:.6g} {m['unit']}"
              for name, m in summary["metrics"].items()]
    return lines


def main(argv=None) -> int:
    spec = load_spec()
    names = [w["name"] for w in spec["workloads"]]
    parser = argparse.ArgumentParser(prog="perfbench/run.py")
    parser.add_argument("--workload", choices=names)
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=spec["run_seconds"])
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if not (ROOT / "src" / "cknlab" / "cli.py").is_file():
        print(f"error: no cknlab sources under {ROOT / 'src'}", file=sys.stderr)
        return 2
    ok = True
    for workload in [args.workload] if args.workload else names:
        try:
            rounds = run_rounds(workload, args.seed, args.seconds,
                                bool(args.trace))
            summary = summarize(spec, rounds, bool(args.trace))
        except RoundError as exc:
            print(f"error: {exc}", file=sys.stderr)
            return 1
        print("\n".join(report_lines(workload, summary)), flush=True)
        ok &= summary["correct"]
    if args.workload:
        print(json.dumps({k: summary[k] for k in
                          ("correct", "attempted", "failed", "metrics")}))
        return 0
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())
