#!/usr/bin/env python3
"""Steadiness evidence for the end-to-end benchmark's bounds.

    python3 e2ebench/steadiness.py > e2ebench/STEADINESS.txt

Run from the repository root.  Runs the benchmark (e2ebench/run.py, the
same command BENCHMARK.json names, untraced, for run_seconds) in two sets
of ten runs of every workload on the same code.  Both sets use the same
seeds, 1 to 10, so the sets differ only in when they ran.  One workload
at a time, round i runs seed i once for each set, the sets taking turns
to go first; so a workload's twenty runs sit within about ten minutes,
and the host's slower spells of several minutes (NOTES.md, "Noise") fall
on both sets alike.  For every workload and end-to-end metric
it prints each set's median and quartiles (statistics.quantiles, n=4), the
quartile spread as a share of the median, and the difference between the
set medians, then checks them against the bounds in BENCHMARK.json:

  * every metric: the second set's median no worse than the first's by
    more than the bound;
  * every metric but setup_s: each set's spread within the bound (the goal
    is a third of it).

setup_s is the median of set-ups run back to back in the first one or two
seconds of a run, so its spread follows the host's slow spells, which last
seconds (NOTES.md, "Noise"); no run-level statistic removes that.  Its
spread is printed and flagged, and it is held to its bound through the
difference between the set medians, as for every other metric.

The committed STEADINESS.txt is this script's output.  Exits 1 when a
check fails or a run fails.
"""
import json
import os
import platform
import statistics
import subprocess
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
RUNS = 10
SEEDS = range(1, RUNS + 1)
SETS = "AB"


def run_once(workload, seed, seconds):
    proc = subprocess.run(
        [sys.executable, os.path.join(HERE, "run.py"), "--workload", workload,
         "--seed", str(seed), "--seconds", str(seconds), "--trace", "0"],
        stdout=subprocess.PIPE, stderr=subprocess.DEVNULL, text=True)
    lines = proc.stdout.strip().splitlines()
    if proc.returncode != 0 or not lines:
        raise RuntimeError(f"{workload} seed {seed}: exit {proc.returncode}")
    result = json.loads(lines[-1])
    if not result["correct"] or result["failed"]:
        raise RuntimeError(f"{workload} seed {seed}: {result['failed']} of "
                           f"{result['attempted']} ops failed")
    return {k: v["value"] for k, v in result["metrics"].items()}


def main():
    with open("BENCHMARK.json") as f:
        bench = json.load(f)
    workloads = [w["name"] for w in bench["workloads"]]
    metrics = bench["end_to_end"]
    seconds = bench["run_seconds"]

    values = {(w, s): {m["name"]: [] for m in metrics}
              for w in workloads for s in SETS}
    started = time.time()
    for w in workloads:
        for i, seed in enumerate(SEEDS):
            order = SETS if i % 2 == 0 else SETS[::-1]
            for s in order:
                got = run_once(w, seed, seconds)
                for m in metrics:
                    values[(w, s)][m["name"]].append(got[m["name"]])
                print(f"# round {i + 1}/{RUNS} {w} set {s} seed {seed}: "
                      + ", ".join(f"{k} {got[k]:.6g}" for k in sorted(got)),
                      file=sys.stderr, flush=True)

    print(f"# e2ebench steadiness: {RUNS} runs (seeds {SEEDS[0]}-{SEEDS[-1]})"
          f" x 2 sets per workload, {seconds} s each, untraced")
    print(f"# host: {platform.machine()}, {os.cpu_count()} vCPU, "
          f"{platform.system()} {platform.release()}; "
          f"{time.strftime('%Y-%m-%d', time.gmtime(started))}, "
          f"{(time.time() - started) / 60:.0f} min")
    print("# spread = (Q3 - Q1) / median; diff = (median B - median A) / "
          "median A")
    print(f"{'workload':<15} {'metric':<13} {'set':<3} {'median':>11} "
          f"{'Q1':>11} {'Q3':>11} {'spread':>7} {'bound':>6}")
    ok = True
    for w in workloads:
        for m in metrics:
            name, bound = m["name"], m["bound"]
            medians = {}
            for s in SETS:
                v = values[(w, s)][name]
                q1, _, q3 = statistics.quantiles(v, n=4)
                medians[s] = statistics.median(v)
                spread = (q3 - q1) / medians[s]
                flag = ""
                if spread > bound and name == "setup_s":
                    flag = "  over the bound (spread not gated)"
                elif spread > bound:
                    flag, ok = "  OVER BOUND", False
                elif spread > bound / 3:
                    flag = "  over a third of the bound"
                print(f"{w:<15} {name:<13} {s:<3} {medians[s]:>11.6g} "
                      f"{q1:>11.6g} {q3:>11.6g} {spread:>7.2%} {bound:>6.0%}"
                      f"{flag}")
            diff = (medians["B"] - medians["A"]) / medians["A"]
            worse = diff if m["better"] == "lower" else -diff
            flag = ""
            if worse > bound:
                flag, ok = "  OVER BOUND", False
            print(f"{w:<15} {name:<13} B-A {diff:>+11.2%}{flag}")
    print("# verdict: " + ("all within bounds" if ok else "FAILED"))
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())
