"""Command line front end.  JSON payloads on stdout, logs on stderr.

Exit codes: 0 success (identity: oracles agree on the window), 1 identity
found a witness, 2 any error.
"""

from __future__ import annotations

import argparse
import functools
import json
import sys
import time
from fractions import Fraction

from .ff_core import BudgetExceededError, DomainError, PrimeFieldCtx
from .oracle import (gen_instance, instance_to_json, make_oracle, read_instance,
                     replay_oracle_from_file, write_instance, write_transcript)
from .algorithms import (AlgorithmError, compute_window, identity_test,
                         interpolate, regime_condition_holds)
from .bounds_lab import load_grid, sweep, write_csv
from .poly_algebra import is_square_free


def _log(msg: str) -> None:
    print(msg, file=sys.stderr)


def _emit(obj) -> None:
    print(json.dumps(obj))


def _fraction(text):
    try:
        return Fraction(text)
    except (ValueError, ZeroDivisionError):
        raise DomainError("bad fraction %r" % text)


class _Parser(argparse.ArgumentParser):
    def error(self, message):  # a usage error, too, ends in one JSON line
        self.print_usage(sys.stderr)
        raise DomainError("%s: %s" % (self.prog, message))


@functools.lru_cache(maxsize=None)  # one parser per process, built by the first main()
def _build_parser() -> argparse.ArgumentParser:
    ap = _Parser(prog="powerprobe",
                 description="identity testing and interpolation of hidden monic "
                             "polynomials from e-th power oracles")
    sub = ap.add_subparsers(dest="cmd", required=True)

    def add_common(sp, *names):
        if "p" in names:
            sp.add_argument("--p", type=int, help="prime modulus")
        if "e" in names:
            sp.add_argument("--e", type=int, help="oracle power, must divide p-1")
        if "d" in names:
            sp.add_argument("--d", type=int, help="hidden degree")
        if "seed" in names:
            sp.add_argument("--seed", type=int, help="generator seed")
        if "c1" in names:
            sp.add_argument("--c1", default="1", help="window constant (fraction)")
        if "c2" in names:
            sp.add_argument("--c2", default=None, help="condition constant (fraction, report only)")
        if "c3" in names:
            sp.add_argument("--c3", default=None, help="budget constant (fraction, report only)")

    g = sub.add_parser("gen", help="generate a seeded instance file")
    add_common(g, "p", "e", "d", "seed")
    g.add_argument("--with-g", action="store_true", help="draw a second polynomial g")
    g.add_argument("--equal-g", action="store_true", help="set g equal to f")
    g.add_argument("--require-square-free", action="store_true")
    g.add_argument("--require-non-pp-ratio", action="store_true",
                   help="redraw until f/g is not a perfect power")
    g.add_argument("--redact", action="store_true", help="omit the hidden polynomials")
    g.add_argument("--out", help="write the instance here instead of stdout")

    i = sub.add_parser("identity", help="test two oracles for equality on the window")
    i.add_argument("--instance", help="instance file with f and g")
    add_common(i, "p", "e", "d", "seed", "c1", "c2")
    i.add_argument("--equal-g", action="store_true", help="inline mode: use g = f")
    i.add_argument("--require-non-pp-ratio", action="store_true")
    i.add_argument("--save-transcript", help="prefix; writes PREFIX.f.jsonl and PREFIX.g.jsonl")

    r = sub.add_parser("interpolate", help="recover the hidden polynomial")
    r.add_argument("--instance", help="instance file with f")
    r.add_argument("--transcript", help="replay answers from this transcript")
    add_common(r, "p", "e", "d", "seed", "c1", "c2", "c3")
    r.add_argument("--n", type=int, default=1, help="index congruence parameter")
    r.add_argument("--m-cap", type=int, default=64)
    r.add_argument("--force", action="store_true", help="skip the square-free precheck")
    r.add_argument("--save-transcript", help="write the oracle transcript here")

    s = sub.add_parser("sweep", help="run a counting grid and write CSV")
    s.add_argument("--grid", required=True, help="grid spec JSON file")
    s.add_argument("--out", required=True, help="CSV output path")

    t = sub.add_parser("roots", help="e-th roots with an index filter")
    add_common(t, "p", "e")
    t.add_argument("--n", type=int, default=1, help="index must be a multiple of n")
    t.add_argument("value", type=int)

    w = sub.add_parser("window", help="identity-test window parameters")
    add_common(w, "p", "e", "d", "c1", "c2")
    return ap


def _require(args, *names):
    for name in names:
        if getattr(args, name, None) is None:
            raise DomainError("missing required flag --%s" % name)


def _load_instance(args, inline=True, **constraints):
    """The instance in --instance, else (when `inline`) the seeded draw of the
    inline flags under the subcommand's constraints; None when neither."""
    if getattr(args, "instance", None):
        if args.p is not None:
            raise DomainError("choose one input source: --instance or inline flags")
        return read_instance(args.instance)
    if not inline:
        return None
    _require(args, "p", "e", "d", "seed")
    return gen_instance(args.p, args.e, args.d, args.seed, **constraints)


def _add_c2(payload, args, p, e, d) -> None:
    if args.c2 is not None:
        payload["cond_ed_holds_c2"] = regime_condition_holds(p, e, d, _fraction(args.c2))


def _cmd_gen(args) -> int:
    inst = _load_instance(args, require_square_free=args.require_square_free,
                          with_g=args.with_g or args.require_non_pp_ratio,
                          equal_g=args.equal_g,
                          require_non_perfect_power_ratio=args.require_non_pp_ratio)
    if args.out:
        write_instance(inst, args.out, redact=args.redact)
        _log("wrote instance to %s" % args.out)
        _emit({"path": args.out, "p": inst.p, "e": inst.e, "d": inst.d,
               "seed": inst.seed})
    else:
        sys.stdout.write(instance_to_json(inst, redact=args.redact))
    return 0


def _cmd_identity(args) -> int:
    inst = _load_instance(args, with_g=not args.equal_g, equal_g=args.equal_g,
                          require_non_perfect_power_ratio=args.require_non_pp_ratio)
    if inst.f is None:
        raise DomainError("instance lacks f")
    if inst.g is None:
        raise DomainError("instance lacks g")
    window = compute_window(inst.p, inst.e, inst.d, _fraction(args.c1))
    of = make_oracle(inst, "f")
    og = make_oracle(inst, "g")
    t0 = time.perf_counter()
    verdict = identity_test(of, og, window)
    ms = (time.perf_counter() - t0) * 1000.0
    if args.save_transcript:
        write_transcript(of, args.save_transcript + ".f.jsonl")
        write_transcript(og, args.save_transcript + ".g.jsonl")
    payload = {"verdict": verdict.name, "witness": verdict.witness,
               "query_count": verdict.queries, "H": window.H,
               "cond_ed_holds": window.cond_ed_holds,
               "candidates_examined": None, "wall_time_ms": round(ms, 3)}
    _add_c2(payload, args, inst.p, inst.e, inst.d)
    _emit(payload)
    return 1 if verdict.different else 0


def _cmd_interpolate(args) -> int:
    inst = _load_instance(args, inline=not args.transcript, require_square_free=True)
    if args.transcript:
        oracle = replay_oracle_from_file(args.transcript)
        if inst is not None and (inst.p != oracle.p or inst.e != oracle.e):
            raise DomainError("transcript does not match the instance")
        d = inst.d if inst is not None else args.d
        if d is None:
            raise DomainError("missing degree: give --instance or --d")
    else:
        if inst.f is None:
            raise DomainError("instance lacks f; replay needs --transcript")
        if not args.instance:
            _log("generated instance with seed %d" % args.seed)
        oracle = make_oracle(inst, "f")
        d = inst.d
    if inst is not None and inst.f is not None and not args.force:
        if not is_square_free(inst.f):
            raise DomainError("square-free required; pass --force to try anyway")
    result = interpolate(oracle, d, n=args.n, c1=_fraction(args.c1),
                         m_cap=args.m_cap)
    if args.save_transcript:
        write_transcript(oracle, args.save_transcript)
    payload = {"recovered_f": [str(c) for c in result.poly.coeffs],
               "query_count": result.query_count,
               "candidates_examined": len(result.candidates),
               "survivors": result.survivors,
               "m": result.m, "n": result.n,
               "H": result.window.H if result.window else None,
               "zeros": list(result.zeros),
               "rank_events": result.rank_events,
               "rank_violations": result.rank_violations,
               "query_budget": result.query_budget,
               "wall_time_ms": round(result.wall_time_ms, 3)}
    _add_c2(payload, args, oracle.p, oracle.e, d)
    if args.c3 is not None:
        payload["query_budget_c3"] = float(_fraction(args.c3) * result.query_budget)
    _emit(payload)
    return 0


def _cmd_sweep(args) -> int:
    try:
        grid = load_grid(args.grid)
    except json.JSONDecodeError as ex:
        raise DomainError("malformed grid spec: line %d column %d: %s"
                          % (ex.lineno, ex.colno, ex.msg))
    reports = sweep(grid)
    write_csv(reports, args.out)
    counts = {"ok": 0, "budget": 0, "error": 0}
    for r in reports:
        counts[r.status] = counts.get(r.status, 0) + 1
    _log("sweep finished: %d rows" % len(reports))
    _emit({"path": args.out, "rows": len(reports), **counts})
    return 0


def _cmd_roots(args) -> int:
    _require(args, "p", "e")
    ctx = PrimeFieldCtx(args.p)
    roots = ctx.extract_roots(args.value, args.e, args.n)
    _emit({"p": args.p, "e": args.e, "n": args.n, "value": args.value,
           "roots": list(roots)})
    return 0


def _cmd_window(args) -> int:
    _require(args, "p", "e", "d")
    window = compute_window(args.p, args.e, args.d, _fraction(args.c1))
    payload = {"H": window.H, "c1": str(window.c1), "cap": window.cap,
               "cond_ed_holds": window.cond_ed_holds,
               "branch_ratio": window.branch_ratio,
               "branch_root": window.branch_root}
    _add_c2(payload, args, args.p, args.e, args.d)
    _emit(payload)
    return 0


_DISPATCH = {"gen": _cmd_gen, "identity": _cmd_identity,
             "interpolate": _cmd_interpolate, "sweep": _cmd_sweep,
             "roots": _cmd_roots, "window": _cmd_window}


def main(argv=None) -> int:
    try:
        args = _build_parser().parse_args(argv)
        return _DISPATCH[args.cmd](args)
    except SystemExit as ex:  # --help
        return int(ex.code or 0)
    except (ValueError, AlgorithmError, BudgetExceededError, OSError) as ex:
        _log("error: %s" % ex)
        _emit({"error": str(ex)})
        return 2


if __name__ == "__main__":
    sys.exit(main())
