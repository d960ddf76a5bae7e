"""Identity testing, the three interpolation steps, and the full pipeline."""

import itertools
import math
import os
import random
import re
import time
from fractions import Fraction
from unittest import mock

import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from powerprobe import algorithms, ff_core
from powerprobe.algorithms import (AlgorithmError, AmbiguousCandidatesError,
                                   DishonestOracleError,
                                   InconsistentOracleError, NoValidMError,
                                   Pair, PairGroup, RankLog, WindowEmptyError, WindowParams,
                                   choose_m, compute_window, identity_test,
                                   interpolate, naive_power_interpolate,
                                   regime_condition_holds, step1_collect,
                                   step2_candidates, step3_filter)
from powerprobe.algorithms import (CHAIN_TABLE_CAP, _chain_pairs, _chain_solve, _newton_monic,
                                   _pencil_walk)
from powerprobe.ff_core import (BudgetExceededError, DomainError,
                                PrimeFieldCtx, iroot, is_prime)
from powerprobe.oracle import (CachingOracle, InstanceSpec, LocalPowerOracle,
                               PowerOracle, ReplayOracle, gen_instance,
                               make_oracle)
from powerprobe.poly_algebra import Poly, lagrange_interpolate


def window_brute(p, e, d, c1=Fraction(1)):
    c1 = Fraction(c1)
    a = c1.numerator * d ** 3 * e ** 2 // (c1.denominator * p)
    b = iroot(c1.numerator ** 3 * d ** 7 * e ** 2 // c1.denominator ** 3, 3)
    return min(p - 1, max(a, b))


class TestRegimeCondition:
    def test_frozen(self):
        assert regime_condition_holds(10007, 4, 2)
        assert not regime_condition_holds(13, 12, 2)

    def test_matches_fraction_arithmetic(self):
        for p in (13, 31, 101, 1009, 10007):
            for e in (1, 2, 4, 8, 50):
                for d in (1, 2, 3, 5):
                    for c in (1, Fraction(1, 2), 2):
                        want = (Fraction(e) <= c * min(
                            Fraction(p) / Fraction(d) ** Fraction(3, 2) ** 1
                            if False else Fraction(p * p, d ** 3) ** Fraction(1),
                            Fraction(p ** 3, d ** 7)) ** Fraction(1, 2))
                        # exact: e <= c*min(p/d^1.5, p^1.5/d^3.5) iff
                        # e^2 d^3 <= c^2 p^2 and e^2 d^7 <= c^2 p^3
                        cf = Fraction(c)
                        want = (e * e * d ** 3 * cf.denominator ** 2
                                <= cf.numerator ** 2 * p * p
                                and e * e * d ** 7 * cf.denominator ** 2
                                <= cf.numerator ** 2 * p ** 3)
                        assert regime_condition_holds(p, e, d, c) == want

    def test_nonpositive_constant_fails(self):
        # e >= 1 exceeds c * min(...) <= 0: squaring must not drop the sign
        for c in (-1, Fraction(-1, 2), 0):
            for p, e, d in ((101, 5, 2), (10007, 1, 1), (13, 1, 1)):
                assert not regime_condition_holds(p, e, d, c)


class TestComputeWindow:
    def test_frozen_examples(self):
        assert compute_window(10007, 4, 2).H == 12
        assert compute_window(13, 1, 1).H == 1

    def test_matches_brute_formula(self):
        for p in (13, 31, 101, 1009, 10007):
            for e in (1, 2, 3, 4, 6):
                if (p - 1) % e:
                    continue
                for d in (1, 2, 3, 5):
                    for c1 in (1, 2, Fraction(3, 2)):
                        w = compute_window(p, e, d, c1=c1)
                        assert w.H == window_brute(p, e, d, c1)
                        assert 1 <= w.H <= p - 1

    def test_cond_flag_matches_predicate(self):
        for (p, e, d) in [(10007, 4, 2), (13, 4, 3), (101, 5, 2), (13, 12, 2)]:
            assert compute_window(p, e, d).cond_ed_holds == regime_condition_holds(p, e, d)

    def test_empty_window(self):
        with pytest.raises(WindowEmptyError) as err:
            compute_window(1009, 1, 1, c1=Fraction(1, 100))
        assert "window empty" in str(err.value)

    def test_nonpositive_c1(self):
        with pytest.raises(DomainError):
            compute_window(13, 1, 1, c1=0)
        with pytest.raises(DomainError):
            compute_window(13, 1, 1, c1=-2)

    def test_float_c1_accepted(self):
        assert compute_window(10007, 4, 2, c1=1.0).H == 12


class TestIdentityTest:
    def test_frozen_e1_example(self):
        w = compute_window(13, 1, 1)
        of = LocalPowerOracle(13, 1, Poly.x(13))
        og = LocalPowerOracle(13, 1, Poly(13, [1, 1]))
        v = identity_test(of, og, w)
        assert v.different and v.witness == 1
        assert v.name == "different"

    def test_equal_oracles(self):
        spec = gen_instance(101, 5, 2, seed=3, equal_g=True)
        w = compute_window(101, 5, 2)
        of, og = make_oracle(spec), make_oracle(spec, which="g")
        v = identity_test(of, og, w)
        assert not v.different and v.witness is None
        assert v.name == "indistinguishable_on_window"
        assert v.queries == of.query_count + og.query_count
        assert v.queries <= 2 * w.H

    def test_witness_soundness_via_transcripts(self):
        rng = random.Random(20)
        for _ in range(20):
            p, e, d = 10007, 2, 2
            f = Poly(p, [rng.randrange(p), rng.randrange(p), 1])
            g = Poly(p, [rng.randrange(p), rng.randrange(p), 1])
            of = LocalPowerOracle(p, e, f)
            og = LocalPowerOracle(p, e, g)
            w = compute_window(p, e, d)
            v = identity_test(of, og, w)
            brute = next((x for x in range(1, w.H + 1)
                          if pow(f(x), e, p) != pow(g(x), e, p)), None)
            if v.different:
                assert v.witness == brute
                fa = dict(of.transcript)[v.witness]
                ga = dict(og.transcript)[v.witness]
                assert fa != ga
            else:
                assert brute is None

    def test_different_within_window_for_valid_regime(self):
        # p=10007, e=2, d=2: distinct square-free pairs must show a witness
        count = 0
        seed = 0
        while count < 10:
            spec = gen_instance(10007, 2, 2, seed=seed, with_g=True,
                                require_square_free=True,
                                require_non_perfect_power_ratio=True)
            seed += 1
            if spec.f == spec.g:
                continue
            count += 1
            w = compute_window(10007, 2, 2)
            assert w.cond_ed_holds
            v = identity_test(make_oracle(spec), make_oracle(spec, which="g"), w)
            assert v.different and 1 <= v.witness <= w.H

    def test_scan_charged_before_first_query(self, monkeypatch):
        # the scan ends at min(H, d*e + 1) = min(14, 11): 2 * 11 * 3 = 66
        # operations at (101, 5, 2)
        w = compute_window(101, 5, 2)
        assert w.H == 14 and w.d == 2
        of = LocalPowerOracle(101, 5, Poly(101, [1, 2, 1]))
        og = LocalPowerOracle(101, 5, Poly(101, [1, 2, 1]))
        monkeypatch.setenv("POWERPROBE_BUDGET", "65")
        with pytest.raises(BudgetExceededError):
            identity_test(of, og, w)
        assert of.query_count == og.query_count == 0
        monkeypatch.setenv("POWERPROBE_BUDGET", "66")
        assert identity_test(of, og, w).queries == 22

    @settings(max_examples=300, deadline=None)
    @given(st.sampled_from([p for p in range(3, 200) if is_prime(p)]),
           st.integers(1, 4), st.data())
    def test_matches_brute_force_scan_of_the_window(self, p, d, data):
        # f and g of degree <= d, monic or not, equal, a constant multiple
        # of each other (equal e-th powers when c^e = 1) or unrelated
        e = data.draw(st.sampled_from([e for e in range(1, p) if (p - 1) % e == 0]))

        def poly():
            k = data.draw(st.integers(0, d))
            coeffs = data.draw(st.lists(st.integers(0, p - 1), min_size=k, max_size=k))
            lead = data.draw(st.one_of(st.just(1), st.integers(1, p - 1)))
            return Poly(p, coeffs + [lead])

        f = poly()
        kind = data.draw(st.sampled_from(["equal", "multiple", "other"]))
        if kind == "equal":
            g = f
        elif kind == "multiple":
            g = f * data.draw(st.integers(1, p - 1))
        else:
            g = poly()
        w = compute_window(p, e, d)
        v = identity_test(LocalPowerOracle(p, e, f), LocalPowerOracle(p, e, g), w)
        brute = next((x for x in range(1, w.H + 1)
                      if pow(f(x), e, p) != pow(g(x), e, p)), None)
        assert v.different == (brute is not None) and v.witness == brute
        assert v.queries == 2 * (brute or min(w.H, d * e + 1))

    def test_equal_pair_below_the_degree_bound_scans_the_window(self):
        # H = 1,428 < d*e + 1 = 3,466: the whole window, 2H queries
        p, e, d = 2 ** 61 - 1, 1155, 3
        spec = gen_instance(p, e, d, seed=1, equal_g=True)
        w = compute_window(p, e, d)
        assert w.H == 1428
        v = identity_test(make_oracle(spec), make_oracle(spec, which="g"), w)
        assert not v.different and v.queries == 2856

    def test_scan_order_and_early_exit(self):
        of = LocalPowerOracle(13, 1, Poly.x(13))
        og = LocalPowerOracle(13, 1, Poly(13, [1, 1]))
        identity_test(of, og, WindowParams(H=5, c1=Fraction(1), cap=12,
                                           cond_ed_holds=False,
                                           branch_ratio=0, branch_root=0, d=1))
        assert [x for x, _ in of.transcript] == [1]


class TestStep1:
    def test_no_zero_structure(self):
        spec = gen_instance(101, 5, 2, seed=7, require_square_free=True)
        s1 = step1_collect(CachingOracle(make_oracle(spec)), 2)
        assert s1.range_top == 4  # k = 2d: 5^3 >= 101
        assert s1.zeros == ()
        assert s1.d_rem == 2
        assert s1.known_factor == Poly.one(101)
        assert len(s1.groups) == 1
        group = s1.groups[0]
        assert group.h == 1
        assert [pair.x for pair in group.pairs] == [0, 1, 2, 3]
        assert group.e == 5
        for pair in group.pairs:
            # the answer ratio, whose five 5-th roots include f(x)/f(x+1)
            ratio = spec.f(pair.x) * pow(spec.f(pair.x + 1), -1, 101) % 101
            assert pow(ratio, 5, 101) == pair.ratio
            assert ratio in PrimeFieldCtx(101).extract_roots(pair.ratio, 5)

    def test_chain_pairs_rule(self):
        # the fewest k >= d + 1 with e^k < p^(k-d), at most 2d
        assert _chain_pairs(1009, 16, 3) == 6  # 16^5 >= 1009^2: k = 2d
        assert _chain_pairs(1009, 4, 4) == 6   # 4^5 >= 1009
        assert _chain_pairs(65537, 4, 4) == 5
        assert _chain_pairs((1 << 61) - 1, 231, 3) == 4
        for p, e in ((13, 3), (65537, 4), ((1 << 61) - 1, 231)):
            assert _chain_pairs(p, e, 1) == 2
        for p, e, d in itertools.product((13, 101, 1009, 65537), (2, 3, 4, 16), (1, 2, 3, 4)):
            want = next((k for k in range(d + 1, 2 * d) if e ** k < p ** (k - d)), 2 * d)
            assert _chain_pairs(p, e, d) == want

    @pytest.mark.parametrize("p, e, d", [(65537, 4, 4), (1009, 3, 3), ((1 << 61) - 1, 231, 2)])
    def test_short_chain_asks_x_0_to_k(self, p, e, d):
        # no root of f among x = 0..k: the chain of k pairs (x, x+1) is the
        # group, and no point past k is asked
        k = _chain_pairs(p, e, d)
        assert k < 2 * d
        spec = next(s for s in (gen_instance(p, e, d, seed) for seed in itertools.count())
                    if all(s.f(x) for x in range(k + 1)))
        inner = make_oracle(spec)
        s1 = step1_collect(CachingOracle(inner), d)
        assert [x for x, _ in inner.transcript] == list(range(k + 1))
        assert (s1.range_top, s1.zeros, s1.d_rem) == (k, (), d)
        group, = s1.groups
        assert group.h == 1 and [pr.x for pr in group.pairs] == list(range(k))
        assert spec.f in step2_candidates(group, d, p).polys

    @pytest.mark.parametrize("root", [0, 2, 4])
    def test_root_on_the_short_chain_asks_the_full_window(self, root):
        # a zero answer among x = 0..k sends step 1 on to x = 0..2d, and the
        # result is that of a step 1 whose first window is already x = 0..2d
        p, e, d = 65537, 4, 4
        k = _chain_pairs(p, e, d)
        assert root <= k < 2 * d
        f = gen_instance(p, e, d - 1, seed=root).f * Poly(p, [-root, 1])
        inner = LocalPowerOracle(p, e, f)
        s1 = step1_collect(CachingOracle(inner), d)
        assert [x for x, _ in inner.transcript] == list(range(2 * d + 1))
        assert (s1.range_top, s1.zeros) == (2 * d, (root,))
        res = interpolate(CachingOracle(LocalPowerOracle(p, e, f)), d)
        with mock.patch.object(algorithms, "_chain_pairs", lambda p, e, d: 2 * d):
            full = step1_collect(CachingOracle(LocalPowerOracle(p, e, f)), d)
            want = interpolate(CachingOracle(LocalPowerOracle(p, e, f)), d)
        assert s1 == full
        assert res.poly == want.poly == f
        assert (res.query_count, res.query_budget, res.candidates) == \
            (want.query_count, want.query_budget, want.candidates)

    def test_non_power_on_the_short_chain_asks_the_full_window(self):
        # the answer g at x = 1, a primitive root mod p, is no e-th power:
        # its ratios fail the index test, step 1 asks the rest of x = 0..2d
        # (at (101, 5, 2), k = 2d, the chain is x = 0..2d, asked once), and
        # blocks 0 and 1 lack a pair, so no shift has 2d of them
        for p, e, d, g, k in ((65537, 4, 4, 3, 5), (101, 5, 2, 2, 4)):
            assert _chain_pairs(p, e, d) == k
            f = gen_instance(p, e, d, seed=1).f
            answers = {x: pow(f(x), e, p) for x in range(2 * d + 1)}
            answers[1] = g
            inner = ReplayOracle(p, e, answers)
            with pytest.raises(DishonestOracleError, match="no shift"):
                step1_collect(inner, d)  # uncached: a point asked twice is logged twice
            assert [x for x, _ in inner.transcript] == list(range(2 * d + 1))

    def test_zero_peeling_adjusts_answers(self):
        p, e = 101, 5
        f = Poly.from_roots(p, [3, 17])  # zero at 3 inside x = 0..4
        inner = LocalPowerOracle(p, e, f)
        s1 = step1_collect(CachingOracle(inner), 2)
        assert s1.zeros == (3,)
        assert s1.d_rem == 1
        assert s1.known_factor == Poly.from_roots(p, [3])
        rem = Poly.from_roots(p, [17])
        # answers with the known factor divided out are those of rem
        adjusted = {x: a * pow(s1.known_factor(x), -e, p) % p for x, a in inner.transcript if a}
        assert adjusted == {x: pow(rem(x), e, p) for x in range(5) if x != 3}
        group, = s1.groups
        for pair in group.pairs:  # ratios of adjusted answers
            assert pair.ratio == adjusted[pair.x] * pow(adjusted[pair.x + group.h], -1, p) % p

    def test_all_roots_in_range_leaves_nothing(self):
        p, e = 101, 5
        f = Poly.from_roots(p, [1, 3])
        s1 = step1_collect(CachingOracle(LocalPowerOracle(p, e, f)), 2)
        assert set(s1.zeros) == {1, 3}
        assert s1.d_rem == 0
        assert s1.known_factor == f

    def test_dishonest_all_zero(self):
        answers = {x: 0 for x in range(20)}
        oracle = ReplayOracle(101, 5, answers)
        with pytest.raises(DishonestOracleError):
            step1_collect(CachingOracle(oracle), 2)

    def test_range_must_fit_field(self):
        spec = gen_instance(13, 3, 2, seed=1, require_square_free=True)
        with pytest.raises(DomainError):
            step1_collect(CachingOracle(make_oracle(spec)), 2, n=2)  # 14 points > 12

    def test_n2_spurious_regime_covers_truth(self):
        # n=2 with e=3, p=31: n divides (p-1)/e fails (30/3=10, 2|10 ok: clean)
        spec = gen_instance(31, 3, 2, seed=5, require_square_free=True)
        s1 = step1_collect(CachingOracle(make_oracle(spec)), 2, n=2)
        assert s1.range_top == 14
        rem = spec.f // s1.known_factor  # pairs describe the unpeeled part
        found = False
        for group in s1.groups:
            for pair in group.pairs:
                denom = rem((pair.x + group.h) % 31)
                if denom == 0:
                    continue
                ratio = rem(pair.x) * pow(denom, -1, 31) % 31
                if pow(ratio, group.e, 31) == pair.ratio:
                    found = True
        assert found

    def test_pairs_are_the_first_with_a_root_of_index_divisible_by_n(self):
        # reference: the first shift whose blocks each hold a pair with an
        # e-th root of index divisible by n, found by extract_roots' filter
        for (p, e, d, n), seed in itertools.product(
                [(31, 3, 2, 2), (31, 3, 2, 3), (1009, 3, 2, 9), (1009, 4, 2, 3)], range(4)):
            inner = make_oracle(gen_instance(p, e, d, seed))
            s1 = step1_collect(CachingOracle(inner), d, n=n)
            if not s1.d_rem:  # f splits in the window: no pairs
                continue
            adj = {x: a * pow(s1.known_factor(x), -e, p) % p for x, a in inner.transcript if a}
            ctx, want = PrimeFieldCtx(p), None
            for h in range(1, n + 1):
                xs = []
                for i in range((2 * d - 1) * n + 1):
                    xs += [x for x in range(i * n, (i + 1) * n - h + 1)
                           if x in adj and x + h in adj
                           and ctx.extract_roots(adj[x] * pow(adj[x + h], -1, p), e, n)][:1]
                    if len(xs) == 2 * s1.d_rem:
                        break
                if len(xs) == 2 * s1.d_rem:
                    want = (h, xs)
                    break
            group, = s1.groups
            assert (group.h, [pr.x for pr in group.pairs]) == want

    def test_non_clean_pairs_hold_true_ratio(self):
        # n = 3 does not divide (p-1)/e = 10, so roots of one ratio differ in
        # index mod n; each pair must still keep the true ratio
        p, e, d, n = 31, 3, 2, 3
        for seed in (1, 3, 4):
            spec = gen_instance(p, e, d, seed=seed, require_square_free=True)
            s1 = step1_collect(CachingOracle(make_oracle(spec)), d, n=n)
            assert s1.d_rem == 2
            group, = s1.groups
            for pair in group.pairs:
                ratio = spec.f(pair.x) * pow(spec.f(pair.x + group.h), -1, p) % p
                assert pow(ratio, e, p) == pair.ratio
            cand = step2_candidates(group, d, p)
            brute = brute_group_consistent(group, d, p)
            assert cand.polys == sorted(brute, key=lambda q: q.coeffs)
            assert spec.f in cand.polys


def brute_group_consistent(group, d, p):
    # all monic degree-d polynomials satisfying every pair constraint
    out = []
    for lower in itertools.product(range(p), repeat=d):
        q = Poly(p, list(lower) + [1])
        ok = True
        for pair in group.pairs:
            qa = q(pair.x % p)
            qb = q((pair.x + group.h) % p)
            if qb == 0 or pow(qa * pow(qb, -1, p), group.e, p) != pair.ratio:
                ok = False
                break
        if ok:
            out.append(q)
    return out


def rank_mod(rows, p):
    rows = [list(r) for r in rows]
    rank = 0
    for col in range(len(rows[0])):
        piv = next((i for i in range(rank, len(rows)) if rows[i][col]), None)
        if piv is None:
            continue
        rows[rank], rows[piv] = rows[piv], rows[rank]
        inv = pow(rows[rank][col], -1, p)
        for i in range(len(rows)):
            if i != rank and rows[i][col]:
                f = rows[i][col] * inv % p
                rows[i] = [(a - f * b) % p for a, b in zip(rows[i], rows[rank])]
        rank += 1
    return rank


def brute_group_fixed(group, d, p):
    # the brute-force set, less every f whose own pair equations
    # q(x) = y q(x+h), y = f(x)/f(x+h), leave more than one monic solution q
    out = []
    for f in brute_group_consistent(group, d, p):
        rows = []
        for pair in group.pairs:
            x, xh = pair.x, pair.x + group.h
            y = f(x) * pow(f(xh), -1, p) % p
            rows.append([(pow(x, k, p) - y * pow(xh, k, p)) % p for k in range(d)])
        if rank_mod(rows, p) == d:
            out.append(f)
    return out


def every_root_group(p, xs):
    # pairs (x, x+1) with ratio 1 at e = p - 1, whose roots are all of F_p^*:
    # an f passes a pair when it vanishes at neither point
    return PairGroup(1, p - 1, tuple(Pair(x, 1) for x in xs))


PRIMES = [q for q in range(3, 10010) if is_prime(q)]


def is_chain(group):
    return all(b.x == a.x + group.h for a, b in zip(group.pairs, group.pairs[1:]))


def small_step1(p, e, d, n, root, seed):
    # step 1 on a random monic f of degree d, with f(root) = 0 unless root is
    # None; None when step 1 finds no shift with enough blocks
    if root is None:
        f = gen_instance(p, e, d, seed=seed).f
    else:
        rest = gen_instance(p, e, d - 1, seed=seed).f if d > 1 else Poly(p, [1])
        f = rest * Poly(p, [-root, 1])
    try:
        return step1_collect(CachingOracle(make_oracle(InstanceSpec(p, e, d, f))), d, n)
    except DishonestOracleError:
        return None


class TestStep2:
    def test_candidates_cover_brute_set(self):
        for seed in range(6):
            spec = gen_instance(13, 3, 2, seed=seed, require_square_free=True)
            s1 = step1_collect(CachingOracle(make_oracle(spec)), 2)
            if s1.zeros:
                continue
            group = s1.groups[0]
            log = RankLog()
            cand = step2_candidates(group, 2, 13, rank_log=log)
            brute = brute_group_consistent(group, 2, 13)
            assert spec.f in brute
            assert all(len(PrimeFieldCtx(13).extract_roots(pair.ratio, 3)) == 3
                       for pair in group.pairs)
            assert cand.polys == sorted(brute, key=lambda q: q.coeffs)
            assert log.violations == 0
            assert log.events > 0

    def test_d1_each_root_gives_candidate(self):
        spec = gen_instance(13, 4, 1, seed=0, require_square_free=True)
        s1 = step1_collect(CachingOracle(make_oracle(spec)), 1)
        group = s1.groups[0]
        cand = step2_candidates(group, 1, 13)
        assert spec.f in cand.polys
        # single pair, d=1: one candidate per consistent root value
        pair = group.pairs[0]
        per_root = brute_group_consistent(group, 1, 13)
        assert len(set(cand.polys)) >= len(per_root)

    def test_deduplicated(self):
        spec = gen_instance(101, 5, 2, seed=7, require_square_free=True)
        s1 = step1_collect(CachingOracle(make_oracle(spec)), 2)
        cand = step2_candidates(s1.groups[0], 2, 101)
        assert len(cand.polys) == len(set(cand.polys))
        for q in cand.polys:
            assert q.is_monic and q.degree == 2

    def test_rank_dichotomy_brute(self):
        # Every extension step: the y values preserving rank are all or at most one
        for seed in range(4):
            spec = gen_instance(13, 2, 2, seed=seed, require_square_free=True)
            s1 = step1_collect(CachingOracle(make_oracle(spec)), 2)
            if s1.zeros:
                continue
            log = RankLog()
            step2_candidates(s1.groups[0], 2, 13, rank_log=log)
            assert log.violations == 0

    @settings(max_examples=80, deadline=None)
    @given(st.data())
    def test_equals_brute_at_small_p(self, data):
        # every e | p - 1 with e >= 2 at p <= 31, d <= 3, n in {1, 2, 3} among
        # the divisors of p - 1, and f with or without a root in the step-1
        # window, so that groups which are not chains reach the basis walk
        p = data.draw(st.sampled_from([q for q in range(3, 32) if is_prime(q)]))
        e = data.draw(st.sampled_from([k for k in range(2, p) if (p - 1) % k == 0]))
        d = data.draw(st.integers(1, min(3, (p - 1) // 2)))
        n = data.draw(st.sampled_from([k for k in (1, 2, 3) if (p - 1) % k == 0
                                       and (2 * d - 1) * k * k + k < p]))
        root = data.draw(st.none() | st.integers(0, (2 * d - 1) * n * n + n))
        s1 = small_step1(p, e, d, n, root, data.draw(st.integers(0, 10 ** 6)))
        assume(s1 is not None and s1.groups)
        group, = s1.groups
        cand = step2_candidates(group, s1.d_rem, p)
        assert cand.polys == sorted(brute_group_consistent(group, s1.d_rem, p),
                                    key=lambda q: q.coeffs)
        assert cand.rank.violations == 0

    @settings(max_examples=100, deadline=None)
    @given(st.data())
    def test_short_chain_equals_brute_at_small_p(self, data):
        # step 1's chain of k < 2d pairs at p <= 31, n = 1: the candidates of
        # its pairs are all the monic degree-d f that they admit
        p, e, d = data.draw(st.sampled_from(
            [(q, k, j) for q in range(5, 32) if is_prime(q) for k in range(2, q)
             if (q - 1) % k == 0 for j in (2, 3) if 2 * j < q and _chain_pairs(q, k, j) < 2 * j]))
        s1 = small_step1(p, e, d, 1, None, data.draw(st.integers(0, 10 ** 6)))
        assume(s1 is not None and s1.range_top < 2 * d)
        group, = s1.groups
        assert len(group.pairs) == s1.range_top == _chain_pairs(p, e, d)
        cand = step2_candidates(group, d, p)
        assert cand.polys == sorted(brute_group_consistent(group, d, p), key=lambda q: q.coeffs)

    def test_draws_include_non_chain_groups(self):
        # the draws of test_equals_brute_at_small_p reach the basis walk: a
        # root inside the window, or n > 1, leaves groups that are not chains
        walked = 0
        for (p, e, d, n, root), seed in itertools.product(
                [(31, 3, 3, 1, 3), (31, 2, 3, 1, 4), (31, 3, 2, 2, None),
                 (31, 6, 2, 2, None), (13, 2, 1, 2, None)], range(3)):
            s1 = small_step1(p, e, d, n, root, seed)
            if s1 is None or not s1.groups or is_chain(s1.groups[0]):
                continue
            walked += 1
            cand = step2_candidates(s1.groups[0], s1.d_rem, p)
            assert cand.polys == sorted(brute_group_consistent(s1.groups[0], s1.d_rem, p),
                                        key=lambda q: q.coeffs)
        assert walked >= 10

    @settings(max_examples=100, deadline=None)
    @given(st.data())
    def test_chain_solve_equals_pencil_walk(self, data):
        # step-1 groups at p <= 10009, e | p - 1, d <= 4 and e^d <= 2*10^4;
        # p = 7 and 13 with e = p - 1 give table keys that collide
        p, e = data.draw(st.sampled_from([(7, 6), (13, 12)]) | st.sampled_from(PRIMES).flatmap(
            lambda q: st.tuples(st.just(q), st.sampled_from(
                [k for k in range(2, q) if (q - 1) % k == 0]))))
        d_max = 3 if p <= 31 else 4  # brute force below stays at p^d <= 31^3
        d = data.draw(st.integers(1, d_max).filter(lambda k: e ** k <= 2 * 10 ** 4 and 2 * k < p))
        spec = gen_instance(p, e, d, seed=data.draw(st.integers(0, 10 ** 6)))
        s1 = step1_collect(CachingOracle(make_oracle(spec)), d)
        assume(s1.groups and is_chain(s1.groups[0]))  # else f has a root at x <= k
        group, = s1.groups
        d_rem, m = s1.d_rem, (s1.d_rem + 1) // 2
        chain = RankLog()
        got = _chain_solve(group, d_rem, p, chain, 10 ** 12)
        assert got == _pencil_walk(group, d_rem, p, RankLog(), 10 ** 12)
        assert (spec.f // s1.known_factor).coeffs in got
        assert chain.events == e ** m + e ** (d_rem - m)  # table entries, probing leaves
        # the exact charge: e^m table entries and e^(d+1-m) probe keys,
        # d + 1 operations each, all before the first root is extracted
        cost = (e ** m + e ** (d_rem + 1 - m)) * (d_rem + 1)
        refused = RankLog()
        with mock.patch.object(PrimeFieldCtx, "extract_roots") as extract:
            with pytest.raises(BudgetExceededError, match="walk passed %d ops" % (cost - 1)):
                _chain_solve(group, d_rem, p, refused, cost - 1)
        assert refused.events == 0 and not extract.called
        assert _chain_solve(group, d_rem, p, RankLog(), cost) == got
        # the basis walk's exact charge on the same chain: depth k has one
        # node per root choice of pairs k..d-2, each charged
        # (d+1)(3(d-1-k) + |R_(d-1-k)|)
        ctx = PrimeFieldCtx(p)
        sizes = [len(ctx.extract_roots(pr.ratio, e)) for pr in group.pairs]
        walk_cost = sum(math.prod(sizes[k:d_rem - 1]) * (d_rem + 1)
                        * (3 * (d_rem - 1 - k) + sizes[d_rem - 1 - k]) for k in range(d_rem))
        with pytest.raises(BudgetExceededError, match="walk passed %d ops" % (walk_cost - 1)):
            _pencil_walk(group, d_rem, p, RankLog(), walk_cost - 1)
        assert _pencil_walk(group, d_rem, p, RankLog(), walk_cost) == got
        if p <= 31:
            assert got == {f.coeffs for f in brute_group_consistent(group, d_rem, p)}

    @settings(max_examples=150, deadline=None)
    @given(st.data())
    def test_chain_solve_equals_brute_at_small_p(self, data):
        # hand-built chains of d + 1 to 2d pairs at p <= 31 and p^d <= 5000,
        # every e | p - 1 with e >= 2; at e = p - 1 every ratio is 1 and the
        # table's e^m entries share at most p keys.  Ratios come from a
        # random monic f, or are random e-th powers
        p = data.draw(st.sampled_from([q for q in range(5, 32) if is_prime(q)]))
        e = data.draw(st.just(p - 1) | st.sampled_from([k for k in range(2, p) if (p - 1) % k == 0]))
        d = data.draw(st.integers(1, (p - 1) // 2).filter(lambda k: p ** k <= 5000))
        h = data.draw(st.integers(1, (p - 1) // (2 * d)))
        x0 = data.draw(st.integers(0, p - 1 - 2 * d * h))
        f = Poly(p, data.draw(st.lists(st.integers(0, p - 1), min_size=d, max_size=d)) + [1])
        honest = data.draw(st.booleans())
        ratios = []
        for k in range(data.draw(st.integers(d + 1, 2 * d))):
            a, b = f(x0 + k * h), f(x0 + (k + 1) * h)
            v = a * pow(b, -1, p) % p if honest and a and b else data.draw(st.integers(1, p - 1))
            ratios.append(pow(v, e, p))
        group = PairGroup(h, e, tuple(Pair(x0 + k * h, a) for k, a in enumerate(ratios)))
        got = _chain_solve(group, d, p, RankLog(), 10 ** 12)
        assert got == {q.coeffs for q in brute_group_consistent(group, d, p)}
        cand = step2_candidates(group, d, p)
        assert {q.coeffs for q in cand.polys} == got

    @settings(max_examples=200, deadline=None)
    @given(st.sampled_from([7, 13, 101, 65537, (1 << 61) - 1]), st.integers(1, 6), st.data())
    def test_newton_readout_equals_lagrange(self, p, d, data):
        # F_0..F_d at x0 + jh: the monic interpolant, or None when the
        # values fit a degree below d
        assume(d + 1 < p)
        h = data.draw(st.integers(1, (p - 1) // (d + 1)))
        x0 = data.draw(st.integers(0, p - 1 - d * h))
        if data.draw(st.booleans()):  # values of a polynomial of lower degree
            g = Poly(p, data.draw(st.lists(st.integers(0, p - 1), min_size=1, max_size=d)))
            F = [g(x0 + j * h) for j in range(d + 1)]
        else:
            F = data.draw(st.lists(st.integers(0, p - 1), min_size=d + 1, max_size=d + 1))
        full = lagrange_interpolate(p, [(x0 + j * h, v) for j, v in enumerate(F)])
        if full.degree < d:
            assert _newton_monic(F, x0, h, p) is None
        else:
            lead = pow(full.coeffs[-1], -1, p)
            assert _newton_monic(F, x0, h, p) == tuple(c * lead % p for c in full.coeffs)

    def test_chain_of_lower_degree_ratios(self):
        # ratios of g of degree below d: the root choice that follows g
        # meets every difference equation, yet its d-th difference is zero,
        # so it gives no candidate; the rest are those of brute force
        for p, e, d, g, x0, h in ((31, 3, 2, [5, 1], 3, 2), (31, 5, 3, [3, 7, 1], 1, 3),
                                  (31, 2, 3, [4, 1], 0, 1), (13, 3, 2, [3], 2, 1)):
            g = Poly(p, g)
            ratios = [pow(g(x0 + k * h) * pow(g(x0 + (k + 1) * h), -1, p), e, p)
                      for k in range(2 * d)]
            group = PairGroup(h, e, tuple(Pair(x0 + k * h, a) for k, a in enumerate(ratios)))
            readouts = []
            real = algorithms._newton_monic
            with mock.patch.object(algorithms, "_newton_monic",
                                   lambda *a: readouts.append(real(*a)) or readouts[-1]):
                got = _chain_solve(group, d, p, RankLog(), 10 ** 12)
            assert None in readouts
            assert got == {q.coeffs for q in brute_group_consistent(group, d, p)}

    def test_chain_keeps_every_root_when_alpha_vanishes(self):
        # e = p - 1: every pair admits all of F_7^*, so every monic quadratic
        # with no root at x = 0..4 is a candidate, and none of the 24 may be
        # lost where table keys collide
        spec = gen_instance(7, 6, 2, seed=0)
        s1 = step1_collect(CachingOracle(make_oracle(spec)), 2)
        group, = s1.groups
        assert is_chain(group) and s1.d_rem == 2
        cand = step2_candidates(group, 2, 7)
        brute = brute_group_consistent(group, 2, 7)
        assert len(brute) == 24
        assert cand.polys == sorted(brute, key=lambda q: q.coeffs)

    def test_line_solve_bounds_nodes(self):
        # pencil nodes below rank d-1 and one line node per rank d-1 basis:
        # at most 1 + e + e^2 nodes for d = 3, not e^3
        p, e, d = 1009, 16, 3
        for seed in range(2):
            spec = gen_instance(p, e, d, seed=seed, require_square_free=True)
            s1 = step1_collect(CachingOracle(make_oracle(spec)), d)
            assert s1.d_rem == d
            log = RankLog()
            cand = step2_candidates(s1.groups[0], d, p, rank_log=log)
            assert spec.f in cand.polys
            assert 0 < log.events <= 1 + e + e * e
            assert log.violations == 0

    def test_hand_built_group_equals_brute(self):
        # 2d pairs at distinct x, not a chain: the walk meets a pair whose
        # row reduces to zero for one root and keeps the rank, and line nodes
        # where a pair holds on the whole line
        p, d = 13, 4
        group = every_root_group(p, (0, 2, 4, 5, 7, 8, 9, 10))
        assert not is_chain(group)
        cand = step2_candidates(group, d, p)
        brute = brute_group_consistent(group, d, p)
        assert len(brute) == 10986
        assert cand.polys == sorted(brute, key=lambda q: q.coeffs)
        assert (cand.rank.events, cand.rank.violations) == (1890, 0)

    def test_fewer_pairs_emit_the_f_they_fix(self):
        # below 2d pairs some root choices leave a line or more of f, and the
        # walk emits only the f that its pairs fix.  At d pairs a rank-keeping
        # pair leaves too few pairs for rank d, and some line nodes have
        # every remaining pair holding on the whole line; the node counts
        # show that walks which cannot reach rank d are cut short
        p, d = 13, 4
        for xs, walked, brute, events in (((0, 2, 4, 6), 13641, 15059, 1877),
                                          ((0, 2, 4, 6, 8), 12703, 12846, 1890)):
            group = every_root_group(p, xs)
            cand = step2_candidates(group, d, p)
            assert (len(cand.polys), cand.rank.events) == (walked, events)
            assert len(brute_group_consistent(group, d, p)) == brute
            assert cand.polys == sorted(brute_group_fixed(group, d, p),
                                        key=lambda q: q.coeffs)

    def test_basis_walk_refuses_past_budget(self):
        # n = 2 puts the pairs at x = 0, 2, 4, ...: the group is no chain, and
        # its walk of 273 nodes charges past a small operation budget
        p, e, d = 1009, 16, 3
        spec = gen_instance(p, e, d, seed=0)
        group, = step1_collect(CachingOracle(make_oracle(spec)), d, n=2).groups
        assert not is_chain(group)
        assert spec.f in step2_candidates(group, d, p).polys
        with mock.patch.dict(os.environ, {"POWERPROBE_BUDGET": "2000"}):
            with pytest.raises(BudgetExceededError):
                step2_candidates(group, d, p)


class TestChooseM:
    def test_frozen(self):
        assert choose_m(101, 5) == 1
        assert choose_m(31, 2) == 1
        assert choose_m(13, 2) == 1
        with pytest.raises(NoValidMError):
            choose_m(13, 3)

    def test_is_smallest_valid(self):
        for p in (13, 31, 101, 1009, 10007):
            for e in (1, 2, 3, 4, 5, 6):
                if (p - 1) % e:
                    continue
                def ok(m):
                    return p >= (2 * m * iroot(e, 2 * m + 1) + 2 * m + 2) * e
                try:
                    m = choose_m(p, e)
                except NoValidMError:
                    assert not any(ok(m) for m in range(1, 65))
                    continue
                assert ok(m)
                assert not any(ok(mm) for mm in range(1, m))


class TestStep3:
    def test_decoy_eliminated(self):
        spec = gen_instance(101, 5, 2, seed=7, require_square_free=True)
        oracle = CachingOracle(make_oracle(spec))
        w = compute_window(101, 5, 2)
        decoy = Poly(101, [(spec.f.coeffs[0] + 1) % 101, spec.f.coeffs[1], 1])
        winner, stats = step3_filter([decoy, spec.f], oracle, 2, w)
        assert winner == spec.f
        assert stats.candidates_in == 2
        assert stats.m == 1
        assert stats.filter_top == 1  # d(m-1)+1
        assert stats.scan_end == 0  # f alone matches x = 0, 1: no scan

    def test_non_square_free_discarded(self):
        p, e, d = 101, 5, 2
        f = Poly(p, [3, 1, 1])
        assert f(50) != 0
        oracle = CachingOracle(LocalPowerOracle(p, e, f))
        w = compute_window(p, e, d)
        square = Poly(p, [4, 4, 1])  # (X+2)^2
        if pow(square(0), e, p) == pow(f(0), e, p):
            pytest.skip("decoy collides on filter point")
        winner, stats = step3_filter([f, square], oracle, d, w)
        assert winner == f

    def test_inconsistent_oracle(self):
        p, e, d = 101, 5, 2
        f = Poly(p, [3, 1, 1])
        oracle = CachingOracle(LocalPowerOracle(p, e, f))
        w = compute_window(p, e, d)
        other = Poly(p, [5, 2, 1])
        with pytest.raises(InconsistentOracleError):
            step3_filter([other], oracle, d, w)

    def test_ambiguous_candidates(self):
        # f and g agree to the e-th power on filter points {0,1} and window {1}
        p, e, d = 13, 2, 2
        f = Poly(p, [1, 0, 1])
        g = Poly(p, [12, 11, 1])
        assert pow(f(0), e, p) == pow(g(0), e, p)
        assert pow(f(1), e, p) == pow(g(1), e, p)
        oracle = CachingOracle(LocalPowerOracle(p, e, f))
        tiny = WindowParams(H=1, c1=Fraction(1), cap=12, cond_ed_holds=False,
                            branch_ratio=0, branch_root=0, d=2)
        with pytest.raises(AmbiguousCandidatesError) as err:
            step3_filter([f, g], oracle, d, tiny)
        assert len(err.value.survivors) == 2


class TestInterpolate:
    def test_frozen_round_trip(self):
        spec = gen_instance(101, 5, 2, seed=7, require_square_free=True)
        oracle = CachingOracle(make_oracle(spec))
        res = interpolate(oracle, 2)
        assert res.poly == spec.f
        assert res.poly.coeffs == (41, 19, 1)
        assert res.query_count == oracle.query_count
        assert res.query_count <= res.query_budget

    def test_round_trip_at_61_bits(self):
        # the README accepts moduli up to 2^62; recovery there must be quick
        spec = gen_instance((1 << 61) - 1, 3, 2, seed=5, require_square_free=True)
        oracle = CachingOracle(make_oracle(spec))
        res = interpolate(oracle, 2)
        assert res.poly == spec.f
        assert res.query_count <= res.query_budget

    def test_paper_scale_chain_recovers_from_2d_plus_1_queries(self):
        # at e = 231, d = 3 the chain solve meets a table of e^2 entries
        # with e^2 probe keys, not e^3 walk leaves; step 1's chain has
        # k = d + 1 = 4 pairs (231^4 < p), so x = 0..4 are all the queries
        spec = gen_instance((1 << 61) - 1, 231, 3, seed=1)
        res = interpolate(CachingOracle(make_oracle(spec)), 3)
        assert res.poly == spec.f
        assert res.query_count == 5

    @pytest.mark.parametrize("e, d", [(465465, 2), (231, 5)])
    def test_paper_scale_refusal_comes_before_any_query(self, e, d):
        # the chain solve's (e^m + e^(d+1-m))(d+1) passes 10^8 here, and with
        # n = 1 it is charged before step 1 asks its first point
        oracle = CachingOracle(make_oracle(gen_instance((1 << 61) - 1, e, d, seed=1)))
        t0 = time.perf_counter()
        with pytest.raises(BudgetExceededError):
            interpolate(oracle, d)
        assert time.perf_counter() - t0 < 0.1
        assert oracle.query_count == 0

    def test_chain_table_past_cap_is_refused_before_any_query(self, monkeypatch):
        # (3465, 3) charges (e^2 + e^2) * 4 = 96M ops, inside the default
        # budget, but its table of e^2 = 12M entries would take about 1.4 GB:
        # the entry cap refuses it whatever the budget
        monkeypatch.setenv("POWERPROBE_BUDGET", str(10 ** 12))
        e, d = 3465, 3
        assert e ** 2 > CHAIN_TABLE_CAP
        oracle = CachingOracle(make_oracle(gen_instance((1 << 61) - 1, e, d, seed=1)))
        with pytest.raises(BudgetExceededError, match="chain table of %d entries" % e ** 2):
            interpolate(oracle, d)
        assert oracle.query_count == 0

    @pytest.mark.parametrize("e, d, entries", [
        (2, 9000, "%d" % 2 ** 4500), (231, 4000, "over 2^15703"), (3, 20000, "over 2^15849")],
        ids=["2-9000", "231-4000", "3-20000"])
    def test_chain_refusal_typed_past_the_digit_limit(self, e, d, entries):
        # e^m has 1,355 digits at (2, 9000) and more than Python's 4,300-digit
        # int-to-str limit at the others, which name it by a power of two
        p = (1 << 61) - 1
        oracle = CachingOracle(LocalPowerOracle(p, e, Poly(p, [1, 1])))
        message = re.escape("chain table of %s entries" % entries)
        with pytest.raises(BudgetExceededError, match=message):
            interpolate(oracle, d)
        assert oracle.query_count == 0

    def test_round_trip_below_2_62(self):
        # 2^62 - 57 is the largest prime below 2^62, the README's limit
        p = (1 << 62) - 57
        for e in (2, 3):
            spec = gen_instance(p, e, 2, seed=1, require_square_free=True)
            res = interpolate(CachingOracle(make_oracle(spec)), 2)
            assert res.poly == spec.f
            assert res.query_count <= res.query_budget

    @pytest.mark.parametrize("p, e, d", [(1073741719, 3, 2), (1099511627689, 3, 2)])
    def test_recovery_never_factors_p_minus_1(self, monkeypatch, p, e, d):
        # root extraction factors e only; the context finds g and the
        # factors of p - 1 only when asked for them
        spec = gen_instance(p, e, d, seed=1, require_square_free=True)
        factored = []
        real = ff_core.factorize
        monkeypatch.setattr(ff_core, "factorize", lambda n: factored.append(n) or real(n))
        res = interpolate(CachingOracle(make_oracle(spec)), d)
        assert res.poly == spec.f
        assert factored and p - 1 not in factored

    def test_primality_checked_once_per_recovery(self, monkeypatch):
        # the context checks p; step 3 compares each survivor's powers with
        # the caller's oracle directly, so no survivor tests p again
        from powerprobe import oracle as oracle_mod
        p = 1000003
        oracle = make_oracle(gen_instance(p, 3, 2, seed=1, require_square_free=True))
        calls = []
        real = ff_core.is_prime
        spy = lambda n: calls.append(n) or real(n)
        monkeypatch.setattr(ff_core, "is_prime", spy)
        monkeypatch.setattr(oracle_mod, "is_prime", spy)
        res = interpolate(oracle, 2)
        assert res.survivors >= 1
        assert calls.count(p) == 1

    def test_primality_computed_once_per_process(self):
        # the instance, the oracle and step 2's context all check p; the
        # test runs once, and a second recovery at p runs none
        p = 1000033
        ff_core.is_prime.cache_clear()
        spec = gen_instance(p, 3, 2, seed=1, require_square_free=True)
        assert interpolate(make_oracle(spec), 2).poly == spec.f
        assert ff_core.is_prime.cache_info().misses == 1
        assert interpolate(make_oracle(spec), 2).poly == spec.f
        assert ff_core.is_prime.cache_info().misses == 1

    def test_exponential_walk_hits_budget(self, monkeypatch):
        # e = 2, d = 40 has 2^39 root paths; n = 2 makes the group no chain,
        # so nothing is charged before step 1 and the basis walk must stop
        # at the budget after step 1's queries
        monkeypatch.setenv("POWERPROBE_BUDGET", str(10 ** 6))
        spec = gen_instance(65537, 2, 40, seed=1, require_square_free=True)
        oracle = CachingOracle(make_oracle(spec))
        with pytest.raises(BudgetExceededError, match="step 2 walk passed"):
            interpolate(oracle, 40, n=2)
        assert oracle.query_count > 0

    def test_seeded_batch_exact(self):
        for (p, e, d) in [(101, 2, 2), (101, 5, 3), (1009, 2, 3), (1009, 3, 2),
                          (31, 2, 2)]:
            for seed in range(4):
                spec = gen_instance(p, e, d, seed=seed, require_square_free=True)
                oracle = CachingOracle(make_oracle(spec))
                res = interpolate(oracle, d)
                assert res.poly == spec.f
                assert spec.f in res.candidates
                assert res.rank_violations == 0
                budget = ((2 * d - 1) * res.n ** 2 + res.n
                          + d * (res.m - 1) + 2 + res.survivors * res.window.H)
                assert res.query_count <= budget

    @pytest.mark.parametrize("p, e, d, seed", [(101, 5, 2, 3), (1009, 3, 3, 1),
                                               ((1 << 61) - 1, 231, 2, 1)])
    def test_sole_filter_survivor_costs_k_plus_1_queries(self, p, e, d, seed):
        # n = 1, m = 1 and no root of f among step 1's x = 0..k: step 2's
        # candidates hold f, so the one that alone matches x = 0, 1 is f, and
        # step 3 queries no point past step 1's.  k = 2d at (101, 5, 2),
        # d + 1 at the other two
        k = {(101, 5, 2): 4, (1009, 3, 3): 4, ((1 << 61) - 1, 231, 2): 3}[p, e, d]
        assert _chain_pairs(p, e, d) == k
        spec = gen_instance(p, e, d, seed, require_square_free=True)
        assert all(spec.f(x) for x in range(k + 1))
        inner = make_oracle(spec)
        res = interpolate(CachingOracle(inner), d)
        assert res.poly == spec.f
        assert (res.m, res.survivors) == (1, 1)
        assert [x for x, _ in inner.transcript] == list(range(k + 1))
        assert res.query_count == k + 1

    def test_two_filter_survivors_scan_the_window(self):
        # two candidates match x = 0, 1 here; the scan of x = 1..d*e + 1
        # (H = 14 > 11) tells them apart
        spec = gen_instance(31, 5, 2, 0, require_square_free=True)
        inner = make_oracle(spec)
        res = interpolate(CachingOracle(inner), 2)
        assert res.poly == spec.f
        assert res.survivors == 2
        assert [x for x, _ in inner.transcript] == list(range(12))
        assert res.query_count == 12

    def test_zero_in_window_path(self):
        p, e, d = 101, 5, 2
        f = Poly.from_roots(p, [3, 50])
        oracle = CachingOracle(LocalPowerOracle(p, e, f))
        res = interpolate(oracle, d)
        assert res.poly == f
        assert res.zeros == (3,)

    def test_all_zeros_path(self):
        p, e, d = 101, 5, 2
        f = Poly.from_roots(p, [0, 2])
        oracle = CachingOracle(LocalPowerOracle(p, e, f))
        res = interpolate(oracle, d)
        assert res.poly == f

    def test_e1_lagrange_path(self):
        p, d = 13, 3
        f = Poly(p, [4, 0, 2, 1])
        oracle = CachingOracle(LocalPowerOracle(p, 1, f))
        res = interpolate(oracle, d)
        assert res.poly == f
        assert res.query_count == d + 1

    def test_n2_round_trip(self):
        spec = gen_instance(1009, 2, 2, seed=9, require_square_free=True)
        oracle = CachingOracle(make_oracle(spec))
        res = interpolate(oracle, 2, n=2)
        assert res.poly == spec.f
        assert res.n == 2

    def test_non_clean_round_trip(self):
        # n does not divide (p-1)/e: the index filter holds for only some
        # roots of a ratio, so pairs keep the ratio, whose e roots hold the
        # true one
        for (p, e, d, n) in [(31, 3, 2, 3), (1009, 3, 2, 9)]:
            assert ((p - 1) // e) % n != 0
            ctx = PrimeFieldCtx(p)
            for seed in range(4):
                spec = gen_instance(p, e, d, seed=seed, require_square_free=True)
                s1 = step1_collect(CachingOracle(make_oracle(spec)), d, n=n)
                assert all(len(ctx.extract_roots(pair.ratio, e)) == e
                           for g in s1.groups for pair in g.pairs)
                oracle = CachingOracle(make_oracle(spec))
                res = interpolate(oracle, d, n=n)
                assert res.poly == spec.f
                assert res.query_count <= res.query_budget

    def test_e1_checks_n_before_any_query(self):
        # the naive route refuses an n that does not divide p - 1, as step 1
        # does for e >= 2
        spec = gen_instance(101, 1, 2, seed=3)
        for n in (7, 0, -1):
            oracle = CachingOracle(make_oracle(spec))
            with pytest.raises(DomainError, match="n must divide p - 1"):
                interpolate(oracle, 2, n=n)
            assert oracle.query_count == 0
        res = interpolate(CachingOracle(make_oracle(spec)), 2, n=5)
        assert res.poly == spec.f and res.n == 5

    def test_dishonest_oracle_detected(self):
        answers = {x: 0 for x in range(30)}
        with pytest.raises(DishonestOracleError):
            interpolate(CachingOracle(ReplayOracle(101, 5, answers)), 2)

    def test_no_valid_m_surfaces(self):
        # m depends on p and e only, so it is refused before step 1; at
        # (31, 30, 4) step 2 would first emit 687,520 candidates
        specs = [gen_instance(13, 3, 2, seed=1, require_square_free=True)]
        specs += [gen_instance(31, 30, 4, seed) for seed in (1, 2)]
        for spec in specs:
            oracle = CachingOracle(make_oracle(spec))
            with pytest.raises(NoValidMError):
                interpolate(oracle, spec.d)
            assert oracle.query_count == 0


class RandomPowerOracle(PowerOracle):
    """Answers each x with a random nonzero e-th power, or 0."""

    __slots__ = ("_rng",)

    def __init__(self, p, e, seed):
        super().__init__(p, e)
        self._rng = random.Random(seed)

    def _answer(self, x):
        if self._rng.random() < 0.05:
            return 0
        return pow(self._rng.randrange(1, self.p), self.e, self.p)


class TestAdversarialOracles:
    @settings(max_examples=150, deadline=None)
    @given(st.data())
    def test_typed_error_or_consistent_answer(self, data):
        # random e-th powers, or a truncated or shuffled honest transcript:
        # interpolate raises a typed error or returns a monic degree-d f
        # whose e-th powers match every answer it received
        p = data.draw(st.sampled_from([13, 31, 37, 61, 101, 211]))
        e = data.draw(st.sampled_from([k for k in range(2, p) if (p - 1) % k == 0]))
        d = data.draw(st.integers(1, 3))
        seed = data.draw(st.integers(0, 10 ** 6))
        kind = data.draw(st.sampled_from(["random", "truncated", "shuffled"]))
        typed = (DomainError, AlgorithmError, BudgetExceededError)
        with mock.patch.dict(os.environ, {"POWERPROBE_BUDGET": "200000"}):
            if kind == "random":
                inner = RandomPowerOracle(p, e, seed)
            else:
                honest = CachingOracle(make_oracle(gen_instance(p, e, d, seed)))
                try:
                    interpolate(honest, d)
                except typed:
                    pass
                # a run refused before its first query replays no answers
                xs, answers = tuple(zip(*honest.transcript)) or ((), ())
                if kind == "truncated":
                    answers = answers[:data.draw(st.integers(0, max(len(xs) - 1, 0)))]
                else:
                    answers = data.draw(st.permutations(answers))
                inner = ReplayOracle(p, e, dict(zip(xs, answers)))
            try:
                res = interpolate(CachingOracle(inner), d)
            except typed:
                return
        assert res.poly.degree == d and res.poly.is_monic
        assert all(pow(res.poly(x), e, p) == a for x, a in inner.transcript)

    def test_step1_answers_outside_step3_checked(self):
        # x = 1 is a zero, so f = X - 1 is fixed in step 1; step 3 checks
        # only x <= 1, but the answer at x = 2 is no square of f(2) = 1
        inner = ReplayOracle(13, 2, {0: 1, 1: 0, 2: 4})
        with pytest.raises(InconsistentOracleError):
            interpolate(CachingOracle(inner), 1)


class TestNaive:
    def test_matches_pipeline(self):
        for seed in range(4):
            spec = gen_instance(101, 2, 2, seed=seed, require_square_free=True)
            o1 = CachingOracle(make_oracle(spec))
            o2 = CachingOracle(make_oracle(spec))
            assert interpolate(o1, 2).poly == naive_power_interpolate(o2, 2)
            assert o2.query_count == 2 * 2 + 1  # d*e + 1 points

    def test_charged_before_the_first_query(self, monkeypatch):
        # (d*e + 1)^2 = 25 at (101, 2, 2): one below it is refused unasked
        spec = gen_instance(101, 2, 2, seed=1, require_square_free=True)
        monkeypatch.setenv("POWERPROBE_BUDGET", "24")
        oracle = CachingOracle(make_oracle(spec))
        with pytest.raises(BudgetExceededError):
            naive_power_interpolate(oracle, 2)
        assert oracle.query_count == 0
        monkeypatch.setenv("POWERPROBE_BUDGET", "25")
        assert naive_power_interpolate(oracle, 2) == spec.f

    def test_rejects_bad_degree_data(self):
        # oracle for degree-3 f read as degree-2 job: d*e+1 points disagree
        p, e = 101, 2
        f = Poly(p, [1, 0, 0, 1])
        with pytest.raises((DomainError, InconsistentOracleError)):
            naive_power_interpolate(CachingOracle(LocalPowerOracle(p, e, f)), 2)
