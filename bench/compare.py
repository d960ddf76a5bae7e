"""Record sets of benchmark runs and compare two of them.

    python3 bench/compare.py record OUT.jsonl --seeds 1-10 [--workloads a,b] [--trace 1]
    python3 bench/compare.py diff A.jsonl B.jsonl

`record` runs bench/run.py once per workload and seed (the run length is
BENCHMARK.json's run_seconds unless --seconds is given) and appends one JSON
line per run.  `diff` prints, for each workload and end-to-end metric, the
median of each set, the spread of each set (the distance between the first
and third quartiles, as a share of the median), and whether B is worse than A
by more than the metric's bound.  It also prints the failed share of each set
and, for traced runs found in a set, the tracing overhead on ops_per_s.
"""

from __future__ import annotations

import argparse
import json
import os
import statistics
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)


def load_spec():
    with open(os.path.join(ROOT, "BENCHMARK.json")) as fh:
        return json.load(fh)


def seed_list(text):
    seeds = []
    for part in text.split(","):
        lo, _, hi = part.partition("-")
        seeds.extend(range(int(lo), int(hi or lo) + 1))
    return seeds


def record(args):
    spec = load_spec()
    workloads = args.workloads.split(",") if args.workloads else [
        w["name"] for w in spec["workloads"]]
    seconds = args.seconds or spec["run_seconds"]
    for seed in seed_list(args.seeds):
        for wl in workloads:
            cmd = [sys.executable, os.path.join(HERE, "run.py"), "--workload", wl,
                   "--seed", str(seed), "--seconds", str(seconds),
                   "--trace", str(args.trace)]
            proc = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True)
            line = proc.stdout.splitlines()[-1] if proc.stdout else "null"
            rec = {"workload": wl, "seed": seed, "trace": args.trace,
                   "exit": proc.returncode, "result": json.loads(line)}
            for out in proc.stdout.splitlines():
                if " traced ops_per_s " in out:
                    rec["traced_ops_per_s"] = float(out.split()[3])
            with open(args.out, "a") as fh:
                fh.write(json.dumps(rec) + "\n")
            print("%s seed %d exit %d" % (wl, seed, proc.returncode), flush=True)


def quartiles(values):
    if len(values) < 2:
        return values[0], values[0], values[0]
    q1, q2, q3 = statistics.quantiles(values, n=4)
    return q1, q2, q3


def load_set(path):
    runs = {}
    with open(path) as fh:
        for line in fh:
            rec = json.loads(line)
            runs.setdefault((rec["workload"], rec["trace"]), []).append(rec)
    return runs


def diff(args):
    spec = load_spec()
    sets = [load_set(args.a), load_set(args.b)]
    print("%-20s %-15s %12s %7s %12s %7s %8s %6s  %s" % (
        "workload", "metric", "median A", "IQR A", "median B", "IQR B",
        "B vs A", "bound", "verdict"))
    worse = False
    for wl in [w["name"] for w in spec["workloads"]]:
        runs = [s.get((wl, 0), []) for s in sets]
        if not all(runs):
            continue
        for m in spec["end_to_end"]:
            name, bound = m["name"], m["bound"]
            vals = [[r["result"]["metrics"][name]["value"] for r in rs] for rs in runs]
            (a1, a2, a3), (b1, b2, b3) = (quartiles(v) for v in vals)
            change = (b2 - a2) / a2
            if m["better"] == "higher":
                change = -change
            verdict = "worse" if change > bound else "ok"
            worse |= change > bound
            print("%-20s %-15s %12.6g %6.1f%% %12.6g %6.1f%% %+7.1f%% %5.0f%%  %s" % (
                wl, name, a2, 100 * (a3 - a1) / a2, b2, 100 * (b3 - b1) / b2,
                100 * change, 100 * bound, verdict))
        shares = ["%d/%d" % (sum(r["result"]["failed"] for r in rs),
                             sum(r["result"]["attempted"] for r in rs)) for rs in runs]
        print("%-20s failed A %s, B %s; correct A %s, B %s" % (
            wl, shares[0], shares[1],
            all(r["result"]["correct"] for r in runs[0]),
            all(r["result"]["correct"] for r in runs[1])))
    for name, runs in zip((args.a, args.b), sets):
        for (wl, trace), traced in sorted(runs.items()):
            plain = runs.get((wl, 0))
            if not trace or not plain:
                continue
            seeds = {r["seed"] for r in traced}
            base = [r["result"]["metrics"]["ops_per_s"]["value"]
                    for r in plain if r["seed"] in seeds]
            rate = [r["traced_ops_per_s"] for r in traced if "traced_ops_per_s" in r]
            if base and rate:
                print("%s %s: tracing overhead %.1f%% (ops_per_s %.4g traced, %.4g not)"
                      % (name, wl, 100 * (1 - statistics.median(rate) / statistics.median(base)),
                         statistics.median(rate), statistics.median(base)))
    return 1 if worse else 0


def main(argv=None):
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    sub = ap.add_subparsers(dest="cmd", required=True)
    r = sub.add_parser("record", help="run the benchmark and append results")
    r.add_argument("out")
    r.add_argument("--seeds", default="1-10")
    r.add_argument("--workloads")
    r.add_argument("--seconds", type=int)
    r.add_argument("--trace", type=int, choices=(0, 1), default=0)
    d = sub.add_parser("diff", help="compare two recorded sets")
    d.add_argument("a")
    d.add_argument("b")
    args = ap.parse_args(argv)
    if args.cmd == "record":
        record(args)
        return 0
    return diff(args)


if __name__ == "__main__":
    sys.exit(main())
