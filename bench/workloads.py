"""The benchmark's workloads: seeded inputs, the operations, and their checks.

Every workload is a fixed list of operations built from the seed.  A run
repeats the whole list in rounds, so the share of failed operations is the
same in every run.  The checks here use only the benchmark's own arithmetic
(Horner evaluation, an exact window formula, divisor enumeration), never the
code under test.  The inputs themselves (hidden polynomials) come from the
package's seeded `gen_instance`, as the CLI's inline mode draws them too.

This module imports powerprobe only inside `setup`, so that the import is
part of the measured set-up time.
"""

from __future__ import annotations

import contextlib
import csv
import io
import itertools
import json
import math
import os
import zlib
from dataclasses import dataclass

WORKLOADS = ("recover", "cli_identity_sweep")

# (p, e, d, instances per round), n = 1.  Per-operation costs on a 2-core
# x86 host are in bench/README.md.  The small fields (p <= 65537, e up to 16)
# drive the step 2 candidate walk; the large ones (p near 2^20 and 30-40
# bits) drive field contexts and root extraction.  Of the 24 successful
# operations a round, 9 cost less than the cluster of six at p ~ 10^6 with
# e*d <= 6 and 9 cost more, so the median, the mean of the 12th and 13th,
# sits in the middle of that cluster.  Its cost is mostly the p-entry
# discrete-log table that the field context builds below 2^20, which does
# not depend on the draw; step 2 costs move by up to 25% from one draw to
# the next.
P30, P36, P40 = 1073741719, 68719476619, 1099511627689
RECOVER_CASES = (
    # below the cluster: 20-50 ms, 130-170 ms, 190-300 ms
    (1009, 4, 3, 1), (10009, 4, 3, 1), (65537, 4, 3, 1),
    (P30, 2, 3, 1), (P30, 3, 2, 1),
    (1009, 7, 3, 1), (1009, 8, 3, 1), (10009, 8, 3, 1), (65537, 8, 3, 1),
    # the cluster: 320-370 ms
    (1000003, 2, 2, 1), (1000003, 2, 3, 1), (1000003, 3, 2, 1),
    (1048573, 2, 2, 1), (1048573, 2, 3, 1), (1048573, 3, 2, 1),
    # above it: 400-820 ms, 2 s.  Above 2^20, baby-step giant-step builds a
    # sqrt(p)-entry dict on first use.
    (1000003, 3, 3, 1), (1048573, 3, 3, 1), (P36, 2, 2, 1), (P36, 3, 3, 1),
    (1009, 4, 4, 1), (10009, 4, 4, 1), (65537, 4, 4, 1),
    (1009, 16, 3, 1),
)
# Instances with fixed seeds, the same on every run whatever --seed is:
# (p, e, d, instance seed, expected error).
# - p = 13: honest instances that the paper's pipeline rejects with
#   NoValidMError (p is too small relative to e for any m) although
#   d*e + 1 <= p, so the naive route would recover them.
# - 40 bits: each of the 2d root extractions of step 1 walks a number of
#   giant steps uniform in [0, 2^20), so one instance takes 1.0-2.9 s
#   depending on its draw, a fifth of a round.  A fixed seed keeps that
#   work the same in every run.
RECOVER_FIXED = ((13, 3, 2, 1, "NoValidMError"), (13, 3, 2, 2, "NoValidMError"),
                 (P40, 3, 2, 1, None))

# identity operations: (p, e, d, equal, pairs per round).  Equal pairs scan
# the whole window of H points with 2H queries; unequal pairs stop at the
# first witness, so their cost is the CLI's own instance draw.  With the
# three sweeps below, the 13 operations of a round sort into three groups:
# four of 10-100 ms (the pairs with d <= 35 and the mid sweep), five of
# 140-180 ms (the equal pairs at e = 4, d = 40, which share H = 13,788) and
# four of 0.3-2 s (unequal pairs at p = 1000003, whose draw builds a field
# context, and the small and large sweeps).  The median, the 7th, is the
# third of the middle five.
IDENTITY_CASES = (
    (65537, 2, 20, True, 1), (40009, 3, 22, True, 1), (65537, 4, 35, False, 1),
    (65537, 4, 40, True, 3), (40009, 4, 40, True, 2),
    (1000003, 3, 30, False, 1), (1000003, 2, 40, False, 1),
)
EXPERIMENTS = ["curve_points", "interpolating_count", "shifted_intersection",
               "value_set"]
# Every cell of these grids ends "ok": interpolating_count stays within its
# operation budget (d <= 2 at p <= 211, d = 1 above), and the window is
# nonempty.  The prime just below 2^20 is where each experiment rebuilds
# the field context and enumerates the divisors of p - 1 in O(p).
SWEEP_GRIDS = (
    ("small", {"primes": [101, 211], "e_divisor_policy": {"max": 6},
               "d_range": [1, 2], "H_policy": "window"}),
    ("mid", {"primes": [10009, 65537], "e_divisor_policy": {"max": 16},
             "d_range": [1, 1], "H_policy": "window"}),
    ("large", {"primes": [1048573], "e_divisor_policy": {"max": 12},
               "d_range": [1, 1], "H_policy": "window"}),
)
CSV_HEADER = "experiment,p,e,d,H,m,measured,envelope,ratio,status,ms"


class CheckFailed(Exception):
    """An output of the program disagrees with the benchmark's own result."""


@dataclass
class Op:
    """One operation.  `run` is timed; `check` runs after it, untimed, and
    returns the query count the program reported."""

    label: str
    run: object
    check: object
    expect_error: type | None = None
    span: str = "recover"       # name of the op's root span when traced


def case_seed(seed: int, *parts) -> int:
    return zlib.crc32(":".join(str(x) for x in (seed,) + parts).encode())


# ---------- the benchmark's own arithmetic ----------

def horner(coeffs, x: int, p: int) -> int:
    acc = 0
    for c in reversed(coeffs):
        acc = (acc * x + c) % p
    return acc


def icbrt(n: int) -> int:
    """Largest k with k**3 <= n, by bisection on integers."""
    lo, hi = 0, 1
    while hi ** 3 <= n:
        hi *= 2
    while hi - lo > 1:
        mid = (lo + hi) // 2
        if mid ** 3 <= n:
            lo = mid
        else:
            hi = mid
    return lo


def window_H(p: int, e: int, d: int) -> int:
    """min(p - 1, max(floor(d^3 e^2 / p), floor((d^7 e^2)^(1/3)))), c1 = 1."""
    return min(p - 1, max(d ** 3 * e * e // p, icbrt(d ** 7 * e * e)))


def divisors(n: int) -> list[int]:
    small = [k for k in range(1, math.isqrt(n) + 1) if n % k == 0]
    return sorted(set(small + [n // k for k in small]))


# ---------- recovery ----------

def _recovery_ops(pkg, cases, seed, fixed):
    alg, orc = pkg.algorithms, pkg.oracle

    def make(p, e, d, seeds, expect_error=None):
        # Take the first instance whose f has no root among the step-1 query
        # points x = 0..2d.  Such a root is divided out before step 2, which
        # then walks a few candidates instead of thousands: at p = 1009, d = 3
        # about one draw in 140 does so, and on the e = 16 case that would cut a
        # round's time by a fifth.
        for inst_seed in seeds:
            spec = orc.gen_instance(p, e, d, inst_seed, require_square_free=True)
            want = tuple(spec.f.coeffs)
            if all(horner(want, x, p) for x in range(2 * d + 1)):
                break

        def run():
            res = alg.interpolate(orc.make_oracle(spec), d)
            return tuple(res.poly.coeffs), res.query_count, res.query_budget

        def check(out):
            got, queries, budget = out
            if got != want:
                raise CheckFailed("recovered %s, hidden f is %s" % (got, want))
            if queries > budget:
                raise CheckFailed("query_count %d > budget %d" % (queries, budget))
            return queries

        return Op("interpolate p=%d e=%d d=%d seed=%d" % (p, e, d, inst_seed),
                  run, check, expect_error)

    ops = [make(p, e, d, (case_seed(seed, p, e, d, k, a) for a in itertools.count()))
           for p, e, d, reps in cases for k in range(reps)]
    for p, e, d, fixed_seed, error in fixed:
        if error and d * e + 1 > p:
            raise ValueError("a failing case must fit the naive route")
        ops.append(make(p, e, d, itertools.count(fixed_seed),
                        getattr(alg, error) if error else None))
    return ops


# ---------- CLI ----------

def call_cli(cli, argv):
    """Run one subcommand in-process; return (exit code, the JSON object)."""
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = cli.main(argv)
    lines = out.getvalue().splitlines()
    if len(lines) != 1:
        raise CheckFailed("%s printed %d lines" % (argv[0], len(lines)))
    payload = json.loads(lines[0])
    if not isinstance(payload, dict):
        raise CheckFailed("%s printed %r, not a JSON object" % (argv[0], lines[0]))
    return code, payload


def _identity_op(pkg, p, e, d, equal, inst_seed):
    argv = ["identity", "--p", str(p), "--e", str(e), "--d", str(d),
            "--seed", str(inst_seed),
            "--equal-g" if equal else "--require-non-pp-ratio"]
    # The same draw the CLI makes from these flags; the verdict is checked
    # against the benchmark's own scan of the two polynomials.
    spec = pkg.oracle.gen_instance(p, e, d, inst_seed, with_g=not equal,
                                   equal_g=equal,
                                   require_non_perfect_power_ratio=not equal)
    f, g = tuple(spec.f.coeffs), tuple(spec.g.coeffs)
    state = {}

    def expected():
        if "want" not in state:
            H = window_H(p, e, d)
            witness = next((x for x in range(1, H + 1)
                            if pow(horner(f, x, p), e, p)
                            != pow(horner(g, x, p), e, p)), None)
            state["want"] = (H, witness)
        return state["want"]

    def check(out):
        code, payload = out
        H, witness = expected()
        verdict = "different" if witness else "indistinguishable_on_window"
        got = (payload.get("verdict"), payload.get("witness"), payload.get("H"))
        if got != (verdict, witness, H):
            raise CheckFailed("identity %s: got %s, want %s"
                              % (argv, got, (verdict, witness, H)))
        if code != (1 if witness else 0):
            raise CheckFailed("identity exit code %d" % code)
        return payload["query_count"]

    return Op("identity p=%d e=%d d=%d %s" % (p, e, d, "equal" if equal else "unequal"),
              lambda: call_cli(pkg.cli, argv), check, span="cli.main")


def _sweep_op(pkg, name, grid, workdir):
    grid_path = os.path.join(workdir, "grid_%s.json" % name)
    csv_path = os.path.join(workdir, "sweep_%s.csv" % name)
    with open(grid_path, "w") as fh:
        json.dump(grid, fh)
    argv = ["sweep", "--grid", grid_path, "--out", csv_path]
    cells = {(exp, p, e, d)
             for exp in grid["experiments"] for p in grid["primes"]
             for e in divisors(p - 1) if e <= grid["e_divisor_policy"]["max"]
             for d in range(grid["d_range"][0], grid["d_range"][1] + 1)}
    state = {}

    def check(out):
        code, payload = out
        if code != 0 or payload.get("rows") != len(cells) or payload.get("ok") != len(cells):
            raise CheckFailed("sweep %s: exit %d, payload %s" % (name, code, payload))
        with open(csv_path) as fh:
            lines = fh.read().splitlines()
        if not lines or lines[0] != CSV_HEADER:
            raise CheckFailed("sweep %s: header %r" % (name, lines[:1]))
        rows = [tuple(r[:-1]) for r in csv.reader(lines[1:])]  # all but ms
        if "rows" in state:
            if rows != state["rows"]:
                raise CheckFailed("sweep %s: rows differ between two calls" % name)
            return 0
        keys = [(r[0], int(r[1]), int(r[2]), int(r[3])) for r in rows]
        if len(keys) != len(cells) or set(keys) != cells:
            raise CheckFailed("sweep %s: cells differ from the grid" % name)
        for exp, p, e, d, H, m, measured, env, ratio, status in rows:
            if status != "ok":
                raise CheckFailed("sweep %s: status %s in %s" % (name, status, (exp, p, e, d)))
            e, measured = int(e), int(measured)
            if not (measured <= min(int(H), e) if exp == "value_set" else
                    measured <= e if exp == "shifted_intersection" else
                    measured <= e * e if exp == "curve_points" else
                    measured >= 1):
                raise CheckFailed("sweep %s: count %d out of bounds in %s"
                                  % (name, measured, (exp, p, e, d)))
        state["rows"] = rows
        return 0

    return Op("sweep %s" % name, lambda: call_cli(pkg.cli, argv), check, span="cli.main")


def _cli_ops(pkg, seed, workdir):
    ops = [_identity_op(pkg, p, e, d, equal, case_seed(seed, p, e, d, equal, k))
           for p, e, d, equal, reps in IDENTITY_CASES for k in range(reps)]
    for name, grid in SWEEP_GRIDS:
        grid = dict(grid, experiments=EXPERIMENTS,
                    seed=case_seed(seed, "sweep", name) % 100000)
        ops.append(_sweep_op(pkg, name, grid, workdir))
    return ops


def setup(workload: str, seed: int, workdir: str):
    """Import the package and build the workload's operations."""
    import powerprobe
    import powerprobe.cli  # noqa: F401  (not imported by the package itself)

    if workload == "recover":
        ops = _recovery_ops(powerprobe, RECOVER_CASES, seed, RECOVER_FIXED)
    elif workload == "cli_identity_sweep":
        ops = _cli_ops(powerprobe, seed, workdir)
    else:
        raise ValueError("unknown workload %r" % workload)
    return powerprobe, ops
