"""powerprobe benchmark: closed-loop workloads, end-to-end and per-layer metrics.

    python3 bench/run.py --workload NAME --seed N --seconds S --trace 0|1
    python3 bench/run.py --workload all --seed N --seconds S

NAME is one of recover, cli_identity_sweep.
Each workload runs in a fresh single-threaded child process: one client, one
operation at a time, whole rounds of the same seeded operation list, until
another round would overrun S seconds (at least two rounds).  Before it, a
few more children only set up (import the package, generate the inputs), so
that setup_s is a median.  The last line of stdout is one JSON object with
`correct`, `attempted`, `failed` and `metrics`: the end-to-end metrics with
--trace 0, the per-layer metrics with --trace 1.  The traced run also writes
its spans to bench/out/.
"""

from __future__ import annotations

import argparse
import json
import os
import resource
import shutil
import statistics
import subprocess
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
OUT = os.path.join(HERE, "out")
SETUP_CHILDREN = 6          # set-ups per run besides the workload child's own
MIN_ROUNDS = 2
WORKLOAD_DEADLINE_S = 170   # all children of one workload end within this

END_TO_END = (("setup_s", "s"), ("op_ms_p50", "ms"), ("ops_per_s", "1/s"),
              ("queries_per_op", "queries"), ("peak_rss_mb", "MB"))


# ---------- the workload process ----------

def _setup(workload, seed, workdir):
    sys.path.insert(0, os.path.join(ROOT, "src"))
    import workloads

    t0 = time.perf_counter()
    pkg, ops = workloads.setup(workload, seed, workdir)
    return pkg, ops, time.perf_counter() - t0


def child_setup(args, workdir):
    _, _, setup_s = _setup(args.workload, args.seed, workdir)
    return {"setup_s": setup_s}


def child_run(args, workdir):
    pkg, ops, setup_s = _setup(args.workload, args.seed, workdir)

    tracer = None
    if args.trace:
        from spans import Tracer
        tracer = Tracer()
        tracer.install(pkg)

    errors = []
    times_ok = []           # seconds per successful operation
    busy = 0.0              # seconds inside operations, failed ones too
    attempted = failed = ok = queries = 0
    clock = time.perf_counter
    start = clock()
    rounds = 0
    while True:
        for op in ops:
            root = tracer.begin_op(op.span) if tracer else None
            t0 = clock()
            try:
                out = op.run()
                exc = None
            except Exception as ex:  # judged below, outside the timer
                out, exc = None, ex
            dt = clock() - t0
            seen = tracer.end_op(root) if tracer else None
            busy += dt
            attempted += 1
            if exc is not None:
                failed += 1
                if op.expect_error is None or not isinstance(exc, op.expect_error):
                    errors.append("%s: %s: %s" % (op.label, type(exc).__name__, exc))
                continue
            try:
                reported = op.check(out)
            except Exception as ex:  # a malformed output fails its check
                errors.append("%s: %s: %s" % (op.label, type(ex).__name__, ex))
                continue
            if tracer and seen != reported:
                errors.append("%s: oracle calls seen %d != query_count %d"
                              % (op.label, seen, reported))
            ok += 1
            queries += reported
            times_ok.append(dt)
        rounds += 1
        elapsed = clock() - start
        if rounds >= MIN_ROUNDS and elapsed * (rounds + 1) / rounds > args.seconds:
            break

    result = {"correct": not errors and ok > 0, "attempted": attempted,
              "failed": failed, "errors": errors[:20], "rounds": rounds,
              "setup_s": setup_s,
              "op_ms_p50": statistics.median(times_ok) * 1000.0 if times_ok else 0.0,
              "ops_per_s": ok / busy,
              "queries_per_op": queries / ok if ok else 0.0,
              "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0}
    if tracer:
        result["layers"] = tracer.layer_metrics(attempted)
        os.makedirs(OUT, exist_ok=True)
        path = os.path.join(OUT, "trace_%s_seed%d.jsonl" % (args.workload, args.seed))
        tracer.write(path)
        result["trace_file"] = os.path.relpath(path, ROOT)
    return result


def child_main(args):
    workdir = os.path.join(OUT, "work-%d" % os.getpid())
    os.makedirs(workdir)
    try:
        result = (child_setup if args.child == "setup" else child_run)(args, workdir)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
    print(json.dumps(result))
    return 0


# ---------- the parent: one process per set-up and per workload ----------

def _spawn(args, workload, mode, deadline):
    cmd = [sys.executable, os.path.abspath(__file__), "--child", mode,
           "--workload", workload, "--seed", str(args.seed),
           "--seconds", str(args.seconds), "--trace", str(args.trace)]
    proc = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True,
                          timeout=max(1.0, deadline - time.monotonic()))
    if proc.returncode != 0:
        sys.stderr.write(proc.stderr)
        raise RuntimeError("%s child for %s exited with %d"
                           % (mode, workload, proc.returncode))
    return json.loads(proc.stdout.splitlines()[-1])


def run_workload(args, workload):
    deadline = time.monotonic() + WORKLOAD_DEADLINE_S
    setups = [_spawn(args, workload, "setup", deadline)["setup_s"]
              for _ in range(SETUP_CHILDREN)]
    res = _spawn(args, workload, "run", deadline)
    res["setup_s"] = statistics.median(setups + [res["setup_s"]])
    return res


def _metric_lines(workload, res, trace):
    if trace:
        from spans import LAYER_METRICS
        return [(workload, name, res["layers"][name], unit) for name, unit in LAYER_METRICS]
    return [(workload, name, res[name], unit) for name, unit in END_TO_END]


def main(argv=None):
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--child", choices=("setup", "run"), help=argparse.SUPPRESS)
    args = ap.parse_args(argv)

    if not os.path.isfile(os.path.join(ROOT, "src", "powerprobe", "__init__.py")):
        print("error: no powerprobe sources under %s" % os.path.join(ROOT, "src"),
              file=sys.stderr)
        return 2
    if args.child:
        return child_main(args)

    from workloads import WORKLOADS
    names = WORKLOADS if args.workload == "all" else (args.workload,)
    if not set(names) <= set(WORKLOADS):
        ap.error("unknown workload %r" % args.workload)
    results = {}
    try:
        for name in names:
            results[name] = run_workload(args, name)
    except (RuntimeError, subprocess.TimeoutExpired, ValueError) as ex:
        print("error: %s" % ex, file=sys.stderr)
        return 1

    metrics = {}
    for name, res in results.items():
        for err in res["errors"]:
            print("%s: check failed: %s" % (name, err), file=sys.stderr)
        print("%-20s attempted %d  failed %d  rounds %d  correct %s"
              % (name, res["attempted"], res["failed"], res["rounds"], res["correct"]))
        if args.trace:
            print("%-20s traced ops_per_s %.4f  spans in %s"
                  % (name, res["ops_per_s"], res["trace_file"]))
        for wl, metric, value, unit in _metric_lines(name, res, args.trace):
            print("%-20s %-42s %14.6g %s" % (wl, metric, value, unit))
            key = metric if len(names) == 1 else "%s.%s" % (wl, metric)
            metrics[key] = {"value": value, "unit": unit}
    correct = all(r["correct"] for r in results.values())
    print(json.dumps({"correct": correct,
                      "attempted": sum(r["attempted"] for r in results.values()),
                      "failed": sum(r["failed"] for r in results.values()),
                      "metrics": metrics}))
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())
