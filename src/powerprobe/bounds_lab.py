"""Brute-force counting lab: measured counts next to analytic envelopes.

Counters are exact at desk scale and charge their estimated work to the
operation budget before they start.  Each has an independently coded `_alt`
strategy for cross-validation; interpolating polynomials are counted by root
labelings per degree, and by coefficient enumeration in the `_alt`.
Envelope constants are report columns, never thresholds.  Output is CSV only.
"""

from __future__ import annotations

import itertools
import json
import math
import operator
import time
import zlib
import random
from dataclasses import dataclass

# the budget lives in ff_core, which the step 2 walk shares
from .ff_core import (MAX_MODULUS, BudgetExceededError, DomainError, PrimeFieldCtx,
                      _charge, factorize)
from .poly_algebra import (BiPoly, Poly, RationalFn, _eval, is_square_free,
                           perfect_power_decompose, poly_gcd, resultant_shifted)
from .algorithms import choose_m, compute_window, shifted_condition_holds


# ---------- value sets of rational functions ----------

def _value_set_validate(psi, H, e, p):
    if not 1 <= H <= p - 1:
        raise DomainError("H must lie in [1, p-1]")
    if (p - 1) % e != 0:
        raise DomainError("e must divide p - 1")
    _charge(H * (psi.degree + 2) + e)


def count_value_set_in_subgroup(psi: RationalFn, H: int, e: int,
                                ctx: PrimeFieldCtx) -> int:
    """Number of distinct values psi(x), x = 1..H, landing in the order-e subgroup."""
    p = ctx.p
    _value_set_validate(psi, H, e, p)
    values = set()
    for x in range(1, H + 1):
        v = psi.eval_at(x)
        if v is not None:
            values.add(v)
    sub = set(ctx.subgroup_elements(e))
    return len(values & sub)


def count_value_set_in_subgroup_alt(psi: RationalFn, H: int, e: int,
                                    ctx: PrimeFieldCtx) -> int:
    """Second strategy: sorted-list dedup plus power test for membership."""
    p = ctx.p
    _value_set_validate(psi, H, e, p)
    num, den = psi.num.coeffs, psi.den.coeffs
    seen = []
    for x in range(1, H + 1):
        dv = 0
        for c in reversed(den):
            dv = (dv * x + c) % p
        if dv == 0:
            continue
        nv = 0
        for c in reversed(num):
            nv = (nv * x + c) % p
        seen.append(nv * pow(dv, -1, p) % p)
    seen.sort()
    count = 0
    prev = None
    for v in seen:
        if v == prev:
            continue
        prev = v
        if v and pow(v, e, p) == 1:
            count += 1
    return count


def envelope_value_set(d: int, e: int, p: int, H: int, constant: float = 1.0) -> float:
    return constant * H ** 0.5 * max(d ** 1.5 * e / p ** 0.5,
                                     d ** (7.0 / 6.0) * e ** (1.0 / 3.0))


# ---------- curve points on products of subgroups ----------

def _curve_points_validate(F, e1, e2, p):
    if F.p != p:
        raise DomainError("mixed moduli")
    if F.is_zero:
        raise DomainError("zero polynomial")
    if (p - 1) % e1 or (p - 1) % e2:
        raise DomainError("subgroup orders must divide p - 1")
    _charge(e1 * e2 * (F.deg_u + 1) * (F.deg_v + 1))


def count_curve_points_on_subgroups(F: BiPoly, e1: int, e2: int,
                                    ctx: PrimeFieldCtx) -> int:
    """Zeros of F(U, V) with U in the order-e1 and V in the order-e2 subgroup."""
    p = ctx.p
    _curve_points_validate(F, e1, e2, p)
    g1 = ctx.subgroup_elements(e1)
    g2 = ctx.subgroup_elements(e2)
    return sum(1 for u in g1 for v in g2 if F(u, v) == 0)


def count_curve_points_on_subgroups_alt(F: BiPoly, e1: int, e2: int,
                                        ctx: PrimeFieldCtx) -> int:
    """Second strategy: specialize U, then scan the V subgroup per row."""
    p = ctx.p
    _curve_points_validate(F, e1, e2, p)
    count = 0
    width = F.deg_v + 1
    for u in ctx.subgroup_elements(e1):
        spec = [0] * width
        upow = 1
        for row in F.rows:
            for j, c in enumerate(row):
                spec[j] = (spec[j] + upow * c) % p
            upow = upow * u % p
        for v in ctx.subgroup_elements(e2):
            acc = 0
            for c in reversed(spec):
                acc = (acc * v + c) % p
            if acc == 0:
                count += 1
    return count


def envelope_curve_points(d: int, W: int, p: int, constant: float = 1.0) -> float:
    return constant * max(d * d * W / p, d ** (4.0 / 3.0) * W ** (1.0 / 3.0))


# ---------- shifted subgroup intersections ----------

def _shifted_validate(e, shifts, scales, p):
    if (p - 1) % e != 0:
        raise DomainError("e must divide p - 1")
    shifts = [s % p for s in shifts]
    scales = [s % p for s in scales]
    if len(shifts) != len(scales):
        raise DomainError("shifts and scales must have equal length")
    if any(s == 0 for s in shifts):
        raise DomainError("shifts must be nonzero")
    if len(set(shifts)) != len(shifts):
        raise DomainError("shifts must be pairwise distinct")
    if any(s == 0 for s in scales):
        raise DomainError("scales must be nonzero")
    _charge(e * (len(shifts) + 2))
    return shifts, scales


def count_shifted_subgroup_intersection(e: int, shifts, scales,
                                        ctx: PrimeFieldCtx) -> tuple[int, bool]:
    """Size of G inter (mu_1 G + xi_1) inter ... for the order-e subgroup G.

    Shifts must be pairwise distinct and nonzero, scales nonzero.  Also reports
    whether the size condition on p relative to e and m held.
    """
    p = ctx.p
    shifts, scales = _shifted_validate(e, shifts, scales, p)
    sub = ctx.subgroup_elements(e)
    result = set(sub)
    for mu, xi in zip(scales, shifts):
        result &= {(mu * t + xi) % p for t in sub}
    return len(result), shifted_condition_holds(p, e, len(shifts))


def count_shifted_subgroup_intersection_alt(e: int, shifts, scales, ctx: PrimeFieldCtx) -> int:
    """Second strategy: per-element membership through the power test."""
    p = ctx.p
    shifts, scales = _shifted_validate(e, shifts, scales, p)
    inv_scales = [pow(mu, -1, p) for mu in scales]
    count = 0
    for lam in ctx.subgroup_elements(e):
        ok = True
        for mu_inv, xi in zip(inv_scales, shifts):
            t = (lam - xi) * mu_inv % p
            if t == 0 or pow(t, e, p) != 1:
                ok = False
                break
        if ok:
            count += 1
    return count


def envelope_shifted_intersection(e: int, m: int, constant: float = 1.0) -> float:
    if m == 0:
        return constant * e
    return constant * e ** ((m + 1.0) / (2.0 * m + 1.0))


# ---------- interpolating polynomial counts ----------

def _coeff_cost(xs, e, d, p):
    # the coefficient strategy's operations: p^(deg-1) upper-coefficient tuples
    # a degree, each evaluated at every node and tested for each root of A_0
    return sum(p ** (deg - 1) for deg in range(1, d + 1)) * (e + 1) * len(xs)


def _interp_validate(xs, As, e, ctx):
    p = ctx.p
    xs = [x % p for x in xs]
    As = [a % p for a in As]
    if len(xs) != len(As) or not xs:
        raise DomainError("need matching nonempty xs and As")
    if len(set(xs)) != len(xs):
        raise DomainError("xs must be pairwise distinct")
    if any(a == 0 for a in As):
        raise DomainError("As must be nonzero")
    if (p - 1) % e != 0:
        raise DomainError("e must divide p - 1")
    return xs, As


def count_interpolating_polynomials(xs, As, e: int, d: int, ctx: PrimeFieldCtx) -> int:
    """Monic f of degree at most d with f(x_i)^e = A_i for all i.

    Counts one degree k at a time over labelings, the choices of an e-th root
    v_i of each A_i as f(x_i).  Write f = x^k + h with deg h < k.  With N <= k
    nodes each labeling leaves p^(k - N) polynomials h, so degree k adds
    prod |R_i| * p^(k - N) unenumerated; with N > k the roots at the first k
    nodes fix h, which is tested on the other nodes.  Charged the sum of
    e^k (k^2 + N) over 1 <= k <= d, k < N, before the first labeling.
    """
    xs, As = _interp_validate(xs, As, e, ctx)
    p, n = ctx.p, len(xs)
    _charge(sum(e ** k * (k * k + n) for k in range(1, min(d, n - 1) + 1)))
    roots = [ctx.extract_roots(a, e) for a in As[:max(d, 0)]]
    count = int(d >= 0 and all(a == 1 for a in As))  # f = 1
    for k in range(1, d + 1):
        if n <= k:
            count += math.prod(map(len, roots[:n])) * p ** (k - n)
            continue
        # with L_i the Lagrange basis on the first k nodes, f is
        # x^k + sum_i (v_i - x_i^k) L_i, so at each later node x it is
        # base + v . row for row = (L_i(x))_i
        nodes = xs[:k]
        tests = []
        for x, a in zip(xs[k:], As[k:]):
            row = [math.prod((x - xl) * pow(xi - xl, -1, p) for xl in nodes if xl != xi) % p
                   for xi in nodes]
            base = pow(x, k, p) - sum(pow(xi, k, p) * r for xi, r in zip(nodes, row))
            tests.append((base, row, a))
        # the root at the last of the k nodes varies fastest
        for vals in itertools.product(*roots[:k - 1]):
            offsets = [(base + sum(map(operator.mul, vals, row)), row[-1], a)
                       for base, row, a in tests]
            for v in roots[k - 1]:
                if all(pow(o + v * r, e, p) == a for o, r, a in offsets):
                    count += 1
    return count


def count_interpolating_polynomials_alt(xs, As, e: int, d: int, ctx: PrimeFieldCtx) -> int:
    """Second strategy: enumerate the upper coefficients of each degree.

    For fixed upper coefficients, c0 -> f(x_0) is a bijection of F_p, so
    f(x_0)^e = A_0 leaves one c0 per e-th root of A_0 to test on the other
    nodes.  Charged (e + 1) N times the p^(deg - 1) tuples of each degree.
    """
    xs, As = _interp_validate(xs, As, e, ctx)
    p = ctx.p
    _charge(_coeff_cost(xs, e, d, p))
    count = int(d >= 0 and all(a == 1 for a in As))  # f = 1
    if d < 1:
        return count
    roots = ctx.extract_roots(As[0], e)
    x0, rest = xs[0], list(zip(xs[1:], As[1:]))
    for deg in range(1, d + 1):
        for upper in itertools.product(range(p), repeat=deg - 1):
            coeffs = (0,) + upper + (1,)
            at_rest = [(_eval(coeffs, x, p), a) for x, a in rest]
            u0 = _eval(coeffs, x0, p)
            for r in roots:
                c0 = r - u0
                if all(pow(c0 + u, e, p) == a for u, a in at_rest):
                    count += 1
    return count


def envelope_interpolating_count(e: int, d: int, constant: float = 1.0,
                                 eps: float = 0.0) -> float:
    return constant * e ** (d - 0.5 + eps)


# ---------- sweep driver ----------

CSV_HEADER = "experiment,p,e,d,H,m,measured,envelope,ratio,status,ms"

EXPERIMENTS = ("curve_points", "interpolating_count", "shifted_intersection", "value_set")


@dataclass
class BoundReport:
    experiment: str
    p: int
    e: int
    d: int
    H: int | None
    m: int | None
    measured: int | None
    envelope: float | None
    ratio: float | None
    status: str
    ms: float

    def csv_row(self) -> str:
        def fmt(v):
            if v is None:
                return ""
            if isinstance(v, float):
                return "%.6g" % v
            return str(v)

        return ",".join([self.experiment, str(self.p), str(self.e), str(self.d),
                         fmt(self.H), fmt(self.m), fmt(self.measured),
                         fmt(self.envelope), fmt(self.ratio), self.status,
                         "%.1f" % self.ms])


def write_csv(reports, path) -> None:
    with open(path, "w") as fh:
        fh.write(CSV_HEADER + "\n")
        for r in reports:
            fh.write(r.csv_row() + "\n")


_GRID_KEYS = {"primes", "e_divisor_policy", "d_range", "H_policy",
              "experiments", "constant", "seed"}


def load_grid(path) -> dict:
    with open(path) as fh:
        grid = json.load(fh)
    validate_grid(grid)
    return grid


def _int_list(v) -> bool:
    return isinstance(v, list) and all(isinstance(x, int) for x in v)


def validate_grid(grid: dict) -> None:
    if not isinstance(grid, dict):
        raise DomainError("grid spec must be a JSON object")
    unknown = set(grid) - _GRID_KEYS
    if unknown:
        raise DomainError("unknown grid keys: %s" % ", ".join(sorted(unknown)))
    primes = grid.get("primes", [])
    if not _int_list(primes):
        raise DomainError("primes must be a list of ints")
    if any(p >= MAX_MODULUS for p in primes):  # no context there, and factoring p - 1 is unbounded
        raise DomainError("primes must be below 2^62")
    experiments = grid.get("experiments", [])
    if not isinstance(experiments, list):
        raise DomainError("experiments must be a list")
    for exp in experiments:
        if exp not in EXPERIMENTS:
            raise DomainError("unknown experiment %r" % exp)
    policy = grid.get("e_divisor_policy", "all")
    if not (policy in ("all", None) or _int_list(policy) and 0 not in policy
            or isinstance(policy, dict) and isinstance(policy.get("max"), int)):
        raise DomainError('e_divisor_policy must be "all", {"max": int} '
                          'or a list of nonzero ints')
    dr = grid.get("d_range", [1, 1])
    if not (_int_list(dr) and len(dr) == 2):
        raise DomainError("d_range must be [lo, hi]")
    if not isinstance(grid.get("seed", 0), int):
        raise DomainError("seed must be an int")
    if not isinstance(grid.get("constant", 1.0), (int, float)):
        raise DomainError("constant must be a number")


def _divisors(n: int) -> list[int]:
    if n < 1:
        return []
    factors = factorize(n)
    out = [1]
    for q in set(factors):
        out = [d * q ** k for d in out for k in range(factors.count(q) + 1)]
    return sorted(out)


def _cell_es(p: int, policy) -> list[int]:
    # policy has passed validate_grid
    if isinstance(policy, list):
        for e in policy:
            if (p - 1) % e != 0:
                raise DomainError("e = %d does not divide p - 1 for p = %d" % (e, p))
        return sorted(policy)
    es = _divisors(p - 1)
    return [e for e in es if e <= policy["max"]] if isinstance(policy, dict) else es


def _cell_H(p: int, e: int, d: int, policy) -> int:
    if policy == "window" or policy is None:
        return compute_window(p, e, d).H
    if isinstance(policy, dict) and "fixed" in policy:
        return min(int(policy["fixed"]), p - 1)
    if policy == "sqrt_p":
        return max(1, math.isqrt(p))
    raise DomainError("bad H_policy")


def _draw_poly(rng, p, d, square_free=False, avoid_roots=()):
    for _ in range(200):
        f = Poly(p, [rng.randrange(p) for _ in range(d)] + [1])
        if square_free and not is_square_free(f):
            continue
        if avoid_roots and any(f(x) == 0 for x in avoid_roots):
            continue
        return f
    raise DomainError("no valid polynomial found")


def _draw_psi(rng, p, d, ctx):
    for _ in range(200):
        f = _draw_poly(rng, p, d)
        g = _draw_poly(rng, p, d)
        psi = RationalFn(f, g)  # reduced, so den.degree < d iff gcd(f, g) != 1
        if psi.den.degree < d or psi.is_constant:
            continue
        _, k = perfect_power_decompose(psi, ctx)
        if k == 1:
            return psi
    raise DomainError("no valid rational function found")


def _run_cell(exp, p, e, d, rng, ctx, constant, H_policy):
    if exp == "value_set":
        H = _cell_H(p, e, d, H_policy)
        psi = _draw_psi(rng, p, d, ctx)
        measured = count_value_set_in_subgroup(psi, H, e, ctx)
        return measured, envelope_value_set(d, e, p, H, constant), H, None
    if exp == "curve_points":
        f = _draw_poly(rng, p, d)
        g = _draw_poly(rng, p, max(0, d - 1)) if d > 1 else Poly.one(p)
        if poly_gcd(f, g).degree > 0:
            g = Poly.one(p)
        a = 1 + rng.randrange(p - 1)
        R = resultant_shifted(f, g, a)
        measured = count_curve_points_on_subgroups(R, e, e, ctx)
        env = envelope_curve_points(max(1, R.total_degree), e * e, p, constant)
        return measured, env, None, None
    if exp == "shifted_intersection":
        m = next((mm for mm in range(1, 9) if shifted_condition_holds(p, e, mm)), 1)
        if m >= p:
            raise DomainError("not enough distinct shifts available")
        shifts = rng.sample(range(1, p), m)
        scales = [1 + rng.randrange(p - 1) for _ in range(m)]
        measured, _held = count_shifted_subgroup_intersection(e, shifts, scales, ctx)
        return measured, envelope_shifted_intersection(e, m, constant), None, m
    if exp == "interpolating_count":
        m = choose_m(p, e, m_cap=8)
        xs = list(range(d * (m - 1) + 2))
        if xs[-1] >= p:
            raise DomainError("node range exceeds the field")
        f = _draw_poly(rng, p, d, square_free=True, avoid_roots=xs)
        As = [pow(f(x), e, p) for x in xs]
        measured = count_interpolating_polynomials(xs, As, e, d, ctx)
        return measured, envelope_interpolating_count(e, d, constant), None, m
    raise DomainError("unknown experiment %r" % exp)


def sweep(grid: dict) -> list[BoundReport]:
    """Run every grid cell; per-cell failures become error rows, never aborts."""
    validate_grid(grid)
    primes = sorted(grid.get("primes", []))
    experiments = sorted(grid.get("experiments", []))
    d_lo, d_hi = grid.get("d_range", [1, 1])
    constant = float(grid.get("constant", 1.0))
    base_seed = grid.get("seed", 0)
    e_policy = grid.get("e_divisor_policy", "all")
    H_policy = grid.get("H_policy", "window")
    reports = []
    for p in primes:
        try:
            ctx = PrimeFieldCtx(p)
        except DomainError:
            ctx = None
        es = _cell_es(p, e_policy) if experiments else []
        for exp in experiments:
            for e in es:
                for d in range(d_lo, d_hi + 1):
                    tag = "%d:%s:%d:%d:%d" % (base_seed, exp, p, e, d)
                    rng = random.Random(zlib.crc32(tag.encode()))
                    t0 = time.perf_counter()
                    H = m = measured = envelope = ratio = None
                    try:
                        if ctx is None:
                            raise DomainError("no field context for p = %d" % p)
                        measured, envelope, H, m = _run_cell(
                            exp, p, e, d, rng, ctx, constant, H_policy)
                        ratio = measured / envelope if envelope else None
                        status = "ok"
                    except BudgetExceededError:
                        status = "budget"
                    except Exception:
                        status = "error"
                    ms = (time.perf_counter() - t0) * 1000.0
                    reports.append(BoundReport(exp, p, e, d, H, m, measured,
                                               envelope, ratio, status, ms))
    reports.sort(key=lambda r: (r.experiment, r.p, r.e, r.d,
                                r.H if r.H is not None else -1,
                                r.m if r.m is not None else -1))
    return reports
