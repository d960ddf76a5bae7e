"""Acceptance gate: ten criteria, one test (one pass/fail line) each.

Each test prints a summary line with its measured runtime; stated runtime
expectations are asserted as generous upper bounds.
"""

import itertools
import random
import time

from powerprobe.algorithms import compute_window, identity_test, interpolate
from powerprobe.bounds_lab import (count_curve_points_on_subgroups,
                                   count_curve_points_on_subgroups_alt,
                                   count_interpolating_polynomials,
                                   count_interpolating_polynomials_alt,
                                   count_shifted_subgroup_intersection,
                                   count_shifted_subgroup_intersection_alt,
                                   count_value_set_in_subgroup,
                                   count_value_set_in_subgroup_alt)
from powerprobe.ff_core import PrimeFieldCtx
from powerprobe.oracle import (CachingOracle, LocalPowerOracle, ReplayOracle,
                               gen_instance, instance_from_json,
                               instance_to_json, make_oracle, read_transcript,
                               write_transcript)
from powerprobe.poly_algebra import (BiPoly, Poly, RationalFn, poly_gcd,
                                     resultant_shifted, sylvester_resultant)

_SUITE4 = None


def _small_primes(bound):
    sieve = [True] * bound
    sieve[0] = sieve[1] = False
    for n in range(2, bound):
        if sieve[n]:
            for k in range(n * n, bound, n):
                sieve[k] = False
    return [n for n in range(2, bound) if sieve[n]]


def _divisors(n):
    return [d for d in range(1, n + 1) if n % d == 0]


def _identity_cells():
    cells = []
    for p in (13, 101, 1009, 10007):
        for e in _divisors(p - 1):
            if e > 20:
                continue
            for d in range(1, 6):
                cells.append((p, e, d))
    return cells


def _suite4():
    """The 100+ seeded interpolation runs shared by criteria 4, 5, and 7."""
    global _SUITE4
    if _SUITE4 is None:
        runs = []
        for p, es in ((101, (2, 5)), (1009, (2, 3))):
            for e in es:
                for d in (2, 3):
                    for n in (1, 2):
                        for seed in range(7):
                            spec = gen_instance(p, e, d, seed=seed,
                                                require_square_free=True)
                            oracle = CachingOracle(make_oracle(spec))
                            result = interpolate(oracle, d, n=n)
                            runs.append((spec, result))
        _SUITE4 = runs
    return _SUITE4


def test_criterion_01_root_extraction_exact():
    t0 = time.time()
    checked = 0
    for p in _small_primes(500):
        ctx = PrimeFieldCtx(p)
        for e in _divisors(p - 1):
            by_value = {}
            for z in range(1, p):
                by_value.setdefault(pow(z, e, p), []).append(z)
            for value in range(1, p):
                want = tuple(sorted(by_value.get(value, ())))
                assert ctx.extract_roots(value, e) == want
                checked += 1
    dt = time.time() - t0
    print("criterion 01: PASS (%d (p,e,A) cells, %.1fs < 60s)" % (checked, dt))
    assert dt < 60


def test_criterion_02_identity_equivalence():
    t0 = time.time()
    instances = 0
    for p, e, d in _identity_cells():
        window = compute_window(p, e, d)
        for seed in range(8):
            spec = gen_instance(p, e, d, seed=seed, with_g=True,
                                require_non_perfect_power_ratio=True)
            of = make_oracle(spec)
            og = make_oracle(spec, which="g")
            verdict = identity_test(of, og, window)
            brute = next((x for x in range(1, window.H + 1)
                          if pow(spec.f(x), e, p) != pow(spec.g(x), e, p)), None)
            assert verdict.different == (brute is not None)
            assert verdict.witness == brute
            if verdict.different:
                assert dict(of.transcript)[verdict.witness] != \
                    dict(og.transcript)[verdict.witness]
            instances += 1
    dt = time.time() - t0
    print("criterion 02: PASS (%d instances, 0 mismatches, %.1fs < 120s)"
          % (instances, dt))
    assert instances >= 1000
    assert dt < 120


def test_criterion_03_identity_soundness():
    t0 = time.time()
    equal_runs = 0
    for p, e, d in _identity_cells():
        window = compute_window(p, e, d)
        for seed in range(8):
            spec = gen_instance(p, e, d, seed=seed, equal_g=True)
            verdict = identity_test(make_oracle(spec),
                                    make_oracle(spec, which="g"), window)
            assert not verdict.different
            equal_runs += 1
    # adversarial pairs whose ratio IS a nontrivial perfect power
    adversarial = 0
    rng = random.Random(303)
    for p, e in ((13, 2), (13, 4), (101, 5), (1009, 3)):
        for _ in range(30):
            u = Poly(p, [rng.randrange(p), 1])
            v = Poly(p, [rng.randrange(p), 1])
            if u == v:
                continue
            w = Poly(p, [rng.randrange(p), 1])
            f = u * u * w
            g = v * v * w
            d = 3
            window = compute_window(p, e, d)
            of = LocalPowerOracle(p, e, f)
            og = LocalPowerOracle(p, e, g)
            verdict = identity_test(of, og, window)
            brute = next((x for x in range(1, window.H + 1)
                          if pow(f(x), e, p) != pow(g(x), e, p)), None)
            assert verdict.different == (brute is not None)
            assert verdict.witness == brute
            if verdict.different:
                assert dict(of.transcript)[verdict.witness] != \
                    dict(og.transcript)[verdict.witness]
            adversarial += 1
    dt = time.time() - t0
    print("criterion 03: PASS (%d equal pairs, %d perfect-power pairs, "
          "0 false Different, %.1fs)" % (equal_runs, adversarial, dt))
    assert equal_runs >= 1000
    assert adversarial >= 100
    assert dt < 120


def test_criterion_04_interpolation_round_trip():
    t0 = time.time()
    runs = _suite4()
    for spec, result in runs:
        assert result.poly == spec.f
        d, n, m = result.d, result.n, result.m
        bound = ((2 * d - 1) * n * n + n + d * m + 2
                 + result.survivors * result.window.H)
        assert result.query_count <= bound
    dt = time.time() - t0
    print("criterion 04: PASS (%d/%d exact recoveries, budgets respected, "
          "%.1fs < 300s)" % (len(runs), len(runs), dt))
    assert len(runs) >= 100
    assert dt < 300


def test_criterion_05_step2_completeness():
    t0 = time.time()
    runs = _suite4()
    for spec, result in runs:
        assert spec.f in result.candidates
    dt = time.time() - t0
    print("criterion 05: PASS (hidden f among candidates in %d/%d runs, %.1fs)"
          % (len(runs), len(runs), dt))


def test_criterion_06_uniqueness_oracle():
    t0 = time.time()
    for p in (7, 13, 31):
        for d in (1, 2):
            xs = list(range(2 * d))
            polys = [Poly.one(p)]
            for deg in range(1, d + 1):
                for lower in itertools.product(range(p), repeat=deg):
                    polys.append(Poly(p, list(lower) + [1]))
            for h in range(1, p):
                buckets = {}
                for f in polys:
                    ratios = []
                    for x in xs:
                        a = f(x % p)
                        b = f((x + h) % p)
                        if a == 0 or b == 0:
                            ratios = None
                            break
                        ratios.append(a * pow(b, -1, p) % p)
                    if ratios is None:
                        continue
                    buckets.setdefault(tuple(ratios), []).append(f)
                worst = max(len(v) for v in buckets.values())
                assert worst == 1, (p, d, h)
                if p == 7:
                    # cross-check the bucketing on the smallest slice
                    survivors = [fs[0] for fs in buckets.values()]
                    for i, f in enumerate(survivors):
                        for g in survivors[i + 1:]:
                            assert any(
                                f(x) * g((x + h) % p) % p
                                != g(x) * f((x + h) % p) % p for x in xs)
    dt = time.time() - t0
    print("criterion 06: PASS (p in {7,13,31}, d <= 2, all h: buckets of "
          "size 1, %.1fs < 60s)" % dt)
    assert dt < 60


def test_criterion_07_rank_dichotomy():
    t0 = time.time()
    runs = _suite4()
    events = sum(result.rank_events for _, result in runs)
    violations = sum(result.rank_violations for _, result in runs)
    assert events > 0
    assert violations == 0
    dt = time.time() - t0
    print("criterion 07: PASS (%d extension events, 0 dichotomy violations, "
          "%.1fs)" % (events, dt))


def test_criterion_08_counting_cross_validation():
    t0 = time.time()
    cells = 0
    for p in (13, 31, 101, 257, 1009):
        ctx = PrimeFieldCtx(p)
        rng = random.Random(800 + p)
        es = [e for e in _divisors(p - 1) if e > 1][:2]
        # four value-set cells
        for e in es:
            for H in (max(1, p // 3), p - 1):
                num = Poly(p, [rng.randrange(p), rng.randrange(p), 1])
                den = Poly(p, [rng.randrange(p), 1])
                if poly_gcd(num, den).degree > 0:
                    den = Poly.one(p)
                psi = RationalFn(num, den)
                a = count_value_set_in_subgroup(psi, H, e, ctx)
                b = count_value_set_in_subgroup_alt(psi, H, e, ctx)
                assert a == b
                cells += 1
        # three curve cells
        for _ in range(3):
            F = BiPoly.from_terms(p, {(i, j): rng.randrange(p)
                                      for i in range(3) for j in range(3)})
            if F.is_zero:
                F = BiPoly.from_terms(p, {(1, 0): 1, (0, 1): p - 1})
            a = count_curve_points_on_subgroups(F, es[0], es[-1], ctx)
            b = count_curve_points_on_subgroups_alt(F, es[0], es[-1], ctx)
            assert a == b
            cells += 1
        # three shifted-intersection cells
        for m in (1, 2, 3):
            shifts = rng.sample(range(1, p), m)
            scales = [1 + rng.randrange(p - 1) for _ in range(m)]
            a, _held = count_shifted_subgroup_intersection(es[-1], shifts, scales, ctx)
            b = count_shifted_subgroup_intersection_alt(es[-1], shifts, scales, ctx)
            assert a == b
            cells += 1
        # two interpolating cells at d = 2: three nodes, and two (N < d + 1)
        f = Poly(p, [rng.randrange(1, p), rng.randrange(p), 1])
        while any(f(x) == 0 for x in range(3)):
            f = Poly(p, [rng.randrange(1, p), rng.randrange(p), 1])
        for xs in ([0, 1, 2], [0, 1]):
            As = [pow(f(x), es[-1], p) for x in xs]
            a = count_interpolating_polynomials(xs, As, es[-1], 2, ctx)
            b = count_interpolating_polynomials_alt(xs, As, es[-1], 2, ctx)
            assert a == b >= 1
            cells += 1
        # exact identities
        diag = BiPoly.from_terms(p, {(1, 0): 1, (0, 1): p - 1})
        for e in es:
            assert count_curve_points_on_subgroups(diag, e, e, ctx) == e
            count, _ = count_shifted_subgroup_intersection(e, [], [], ctx)
            assert count == e
    dt = time.time() - t0
    print("criterion 08: PASS (%d grid cells, dual strategies agree, "
          "identities exact, %.1fs)" % (cells, dt))
    assert cells == 60


def test_criterion_09_resultant_correctness():
    t0 = time.time()
    rng = random.Random(900)
    points = 0
    for p in (13, 31):
        profiles = []
        while len(profiles) < 3:
            f = Poly(p, [rng.randrange(p), rng.randrange(p), 1])
            g_choices = [Poly.one(p), Poly(p, [rng.randrange(p), 1]),
                         Poly(p, [rng.randrange(p), rng.randrange(p), 1])]
            g = g_choices[len(profiles) % 3]
            if g.degree > 0 and poly_gcd(f, g).degree > 0:
                continue
            profiles.append((f, g))
        for f, g in profiles:
            d = max(f.degree, g.degree)
            for a in range(1, p):
                R = resultant_shifted(f, g, a)
                fs, gs = f.shift(a), g.shift(a)
                fc = list(f.coeffs) + [0] * (d + 1 - len(f.coeffs))
                gc = list(g.coeffs) + [0] * (d + 1 - len(g.coeffs))
                fsc = list(fs.coeffs) + [0] * (d + 1 - len(fs.coeffs))
                gsc = list(gs.coeffs) + [0] * (d + 1 - len(gs.coeffs))
                for u in range(p):
                    first = [(c1 - u * c2) % p for c1, c2 in zip(fc, gc)]
                    for v in range(p):
                        second = [(c1 - v * c2) % p for c1, c2 in zip(fsc, gsc)]
                        want = sylvester_resultant(first, second, d, d, p)
                        assert R(u, v) == want
                        points += 1
                # shared F_p root forces a zero
                for x in range(p):
                    if g(x) != 0 and gs(x) != 0:
                        u = f(x) * pow(g(x), -1, p) % p
                        v = fs(x) * pow(gs(x), -1, p) % p
                        assert R(u, v) == 0
    dt = time.time() - t0
    print("criterion 09: PASS (%d specializations match univariate "
          "resultants, %.1fs)" % (points, dt))


def test_criterion_10_serialization_round_trip(tmp_path):
    t0 = time.time()
    count = 0
    params = [(13, 3, 2), (101, 5, 3), (1009, 2, 4), (10007, 2, 2)]
    for p, e, d in params:
        for seed in range(13):
            if count >= 50:
                break
            with_g = seed % 2 == 0
            spec = gen_instance(p, e, d, seed=seed, with_g=with_g)
            text1 = instance_to_json(spec)
            text2 = instance_to_json(instance_from_json(text1))
            assert text1 == text2
            count += 1
    # transcript files
    for seed in range(10):
        spec = gen_instance(101, 5, 3, seed=seed)
        oracle = make_oracle(spec)
        for x in range(seed + 2):
            oracle.query(x)
        p1 = tmp_path / ("t%da.jsonl" % seed)
        p2 = tmp_path / ("t%db.jsonl" % seed)
        write_transcript(oracle, p1)
        p_, e_, entries = read_transcript(p1)
        replay = ReplayOracle(p_, e_, dict(entries))
        for x, _ in entries:
            replay.query(x)
        write_transcript(replay, p2)
        with open(p1, "rb") as fa, open(p2, "rb") as fb:
            assert fa.read() == fb.read()
    dt = time.time() - t0
    print("criterion 10: PASS (%d instance + 10 transcript round trips "
          "byte-identical, %.1fs)" % (count, dt))
    assert count >= 50
