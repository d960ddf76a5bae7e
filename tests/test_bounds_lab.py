"""Counting lab: exact counters, dual strategies, envelopes, sweep driver."""

import itertools
import json
import math
import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from powerprobe import bounds_lab, ff_core
from powerprobe.bounds_lab import (BoundReport, BudgetExceededError,
                                   CSV_HEADER, EXPERIMENTS,
                                   count_curve_points_on_subgroups,
                                   count_curve_points_on_subgroups_alt,
                                   count_interpolating_polynomials,
                                   count_interpolating_polynomials_alt,
                                   count_shifted_subgroup_intersection,
                                   count_shifted_subgroup_intersection_alt,
                                   count_value_set_in_subgroup,
                                   count_value_set_in_subgroup_alt,
                                   envelope_curve_points,
                                   envelope_interpolating_count,
                                   envelope_shifted_intersection,
                                   envelope_value_set, load_grid,
                                   shifted_condition_holds, sweep,
                                   validate_grid, write_csv)
from powerprobe.ff_core import DomainError, PrimeFieldCtx
from powerprobe.poly_algebra import BiPoly, Poly, RationalFn


def ident(p):
    return RationalFn(Poly.x(p), Poly.one(p))


class TestValueSet:
    def test_frozen_examples(self):
        ctx = PrimeFieldCtx(13)
        assert count_value_set_in_subgroup(ident(13), 5, 3, ctx) == 2
        assert count_value_set_in_subgroup(ident(13), 12, 12, ctx) == 12

    def test_e1_membership(self):
        ctx = PrimeFieldCtx(13)
        shifted = RationalFn(Poly(13, [12, 1]), Poly.one(13))  # X - 1
        assert count_value_set_in_subgroup(shifted, 1, 1, ctx) == 0
        assert count_value_set_in_subgroup(shifted, 2, 1, ctx) == 1

    def test_monotone_in_H_and_bounded(self):
        ctx = PrimeFieldCtx(31)
        psi = RationalFn(Poly(31, [3, 1, 1]), Poly(31, [7, 1]))
        prev = 0
        for H in range(1, 31):
            c = count_value_set_in_subgroup(psi, H, 5, ctx)
            assert c >= prev
            values = {psi.eval_at(x) for x in range(1, H + 1)}
            values.discard(None)
            assert c <= min(5, len(values))
            prev = c

    def test_dual_strategies_agree(self):
        rng = random.Random(21)
        for p in (13, 31, 101):
            ctx = PrimeFieldCtx(p)
            for _ in range(5):
                fc = [rng.randrange(p) for _ in range(2)] + [1]
                gc = [rng.randrange(p), 1]
                psi = RationalFn(Poly(p, fc), Poly(p, gc))
                for e in (1, 2, 4):
                    if (p - 1) % e:
                        continue
                    H = rng.randrange(1, p)
                    assert (count_value_set_in_subgroup(psi, H, e, ctx)
                            == count_value_set_in_subgroup_alt(psi, H, e, ctx))

    def test_domain_errors(self):
        ctx = PrimeFieldCtx(13)
        with pytest.raises(DomainError):
            count_value_set_in_subgroup(ident(13), 13, 3, ctx)
        with pytest.raises(DomainError):
            count_value_set_in_subgroup(ident(13), 5, 5, ctx)

    def test_envelope_frozen(self):
        assert envelope_value_set(1, 1, 10 ** 12, 1) == 1.0
        want = 2 * 2 ** (7.0 / 6.0) * 3 ** (1.0 / 3.0)
        got = envelope_value_set(2, 3, 10 ** 6, 4)
        assert math.isclose(got, want, rel_tol=1e-12)
        assert envelope_value_set(2, 3, 10 ** 6, 4, constant=0.0) == 0.0


class TestCurvePoints:
    def test_diagonal_identity(self):
        for p in (13, 31, 101):
            ctx = PrimeFieldCtx(p)
            F = BiPoly.from_terms(p, {(1, 0): 1, (0, 1): -1})
            for e in (1, 2, 3, 4, 5, 6):
                if (p - 1) % e:
                    continue
                assert count_curve_points_on_subgroups(F, e, e, ctx) == e

    def test_inverse_pairs_identity(self):
        ctx = PrimeFieldCtx(13)
        F = BiPoly.from_terms(13, {(1, 1): 1, (0, 0): -1})
        for e in (1, 2, 3, 4, 6, 12):
            assert count_curve_points_on_subgroups(F, e, e, ctx) == e

    def test_frozen_shift_example(self):
        ctx = PrimeFieldCtx(13)
        F = BiPoly.from_terms(13, {(1, 0): 1, (0, 1): -1, (0, 0): 1})
        # v = u + 1 never stays inside {1,5,8,12}
        assert count_curve_points_on_subgroups(F, 4, 4, ctx) == 0

    def test_dual_strategies_agree(self):
        rng = random.Random(22)
        ctx = PrimeFieldCtx(31)
        for _ in range(8):
            F = BiPoly.from_terms(31, {(i, j): rng.randrange(31)
                                       for i in range(3) for j in range(3)})
            if F.is_zero:
                continue
            for (e1, e2) in ((2, 3), (5, 5), (6, 10)):
                assert (count_curve_points_on_subgroups(F, e1, e2, ctx)
                        == count_curve_points_on_subgroups_alt(F, e1, e2, ctx))

    def test_envelope_shape(self):
        # max{d^2 W / p, d^(4/3) W^(1/3)} with the constant as a factor
        assert envelope_curve_points(2, 25, 1009) == max(4 * 25 / 1009, 2 ** (4 / 3) * 25 ** (1 / 3))
        assert envelope_curve_points(2, 25, 1009, constant=3.0) == 3.0 * envelope_curve_points(2, 25, 1009)


class TestShiftedIntersection:
    def test_frozen_example(self):
        ctx = PrimeFieldCtx(13)
        count, held = count_shifted_subgroup_intersection(4, [4], [1], ctx)
        assert count == 2
        assert held == shifted_condition_holds(13, 4, 1)

    def test_m0_is_whole_subgroup(self):
        ctx = PrimeFieldCtx(13)
        count, held = count_shifted_subgroup_intersection(4, [], [], ctx)
        assert count == 4
        assert held

    def test_zero_shift_rejected(self):
        ctx = PrimeFieldCtx(13)
        with pytest.raises(DomainError):
            count_shifted_subgroup_intersection(4, [0], [1], ctx)

    def test_duplicate_shift_rejected(self):
        ctx = PrimeFieldCtx(13)
        with pytest.raises(DomainError):
            count_shifted_subgroup_intersection(4, [3, 3], [1, 1], ctx)

    def test_zero_scale_rejected(self):
        ctx = PrimeFieldCtx(13)
        with pytest.raises(DomainError):
            count_shifted_subgroup_intersection(4, [3], [0], ctx)

    def test_dual_strategies_agree(self):
        rng = random.Random(23)
        for p in (31, 101):
            ctx = PrimeFieldCtx(p)
            for e in (2, 5, 10):
                if (p - 1) % e:
                    continue
                for m in (1, 2, 3):
                    shifts = rng.sample(range(1, p), m)
                    scales = [1 + rng.randrange(p - 1) for _ in range(m)]
                    primary, _ = count_shifted_subgroup_intersection(e, shifts, scales, ctx)
                    assert primary == count_shifted_subgroup_intersection_alt(
                        e, shifts, scales, ctx)

    def test_counter_never_factors_p_minus_1(self, monkeypatch):
        # the order-6 subgroup at 2^61 - 1 comes from the root plan for 6
        p = (1 << 61) - 1
        calls = []
        real = ff_core.factorize
        monkeypatch.setattr(ff_core, "factorize", lambda n: calls.append(n) or real(n))
        count, _ = count_shifted_subgroup_intersection(6, [1], [p - 1], PrimeFieldCtx(p))
        assert count == count_shifted_subgroup_intersection_alt(6, [1], [p - 1],
                                                                PrimeFieldCtx(p))
        assert p - 1 not in calls and calls

    def test_condition_frozen(self):
        assert shifted_condition_holds(31, 5, 0)
        assert shifted_condition_holds(31, 2, 1)   # (2+4)*2 = 12 <= 31
        assert not shifted_condition_holds(13, 3, 1)  # 18 > 13

    def test_envelope_shape(self):
        assert envelope_shifted_intersection(8, 0) == 8.0
        assert math.isclose(envelope_shifted_intersection(8, 1), 8 ** (2 / 3))
        assert math.isclose(envelope_shifted_intersection(8, 2, constant=2.0),
                            2 * 8 ** 0.6)


class TestInterpolatingCount:
    def test_e1_uniqueness(self):
        ctx = PrimeFieldCtx(31)
        f = Poly(31, [4, 2, 1])
        xs = [1, 2, 3]
        As = [f(x) for x in xs]
        assert count_interpolating_polynomials(xs, As, 1, 2, ctx) == 1
        bad = list(As)
        bad[2] = (bad[2] + 1) % 31
        assert count_interpolating_polynomials(xs, bad, 1, 2, ctx) == 0

    def test_non_residue_gives_zero(self):
        ctx = PrimeFieldCtx(13)
        assert count_interpolating_polynomials([1], [2], 2, 1, ctx) == 0  # 2 is no square mod 13

    def test_consistent_data_counts_truth(self):
        rng = random.Random(24)
        ctx = PrimeFieldCtx(31)
        for _ in range(6):
            f = Poly(31, [rng.randrange(31), rng.randrange(31), 1])
            xs = [0, 1, 2, 3]
            if any(f(x) == 0 for x in xs):
                continue
            As = [pow(f(x), 3, 31) for x in xs]
            c = count_interpolating_polynomials(xs, As, 3, 2, ctx)
            alt = count_interpolating_polynomials_alt(xs, As, 3, 2, ctx)
            assert c == alt
            assert c >= 1

    def test_validation(self):
        ctx = PrimeFieldCtx(13)
        with pytest.raises(DomainError):
            count_interpolating_polynomials([1, 1], [2, 2], 2, 1, ctx)
        with pytest.raises(DomainError):
            count_interpolating_polynomials([1], [0], 2, 1, ctx)
        with pytest.raises(DomainError):
            count_interpolating_polynomials([1], [3], 5, 1, ctx)

    def test_envelope_shape(self):
        assert math.isclose(envelope_interpolating_count(4, 3), 4 ** 2.5)
        assert math.isclose(envelope_interpolating_count(4, 3, eps=0.5), 4 ** 3)


def brute_interp_count(xs, As, e, d, p):
    # every monic f of degree at most d, built and evaluated as a Poly
    count = 0
    for deg in range(d + 1):
        for lower in itertools.product(range(p), repeat=deg):
            f = Poly(p, lower + (1,))
            if all(pow(f(x), e, p) == a for x, a in zip(xs, As)):
                count += 1
    return count


class TestInterpCountStrategies:
    @settings(max_examples=80, deadline=None)
    @given(st.sampled_from([2, 3, 5, 7, 11, 13]), st.integers(-1, 3), st.data())
    def test_equals_brute_force(self, p, d, data):
        e = data.draw(st.sampled_from([k for k in range(1, p) if (p - 1) % k == 0]))
        xs = data.draw(st.lists(st.integers(0, p - 1), min_size=1,
                                max_size=min(p, d + 3), unique=True))
        kind = data.draw(st.sampled_from(["hidden", "ones", "random"]))
        if kind == "hidden":
            k = max(d, 0)
            f = Poly(p, data.draw(st.lists(st.integers(0, p - 1), min_size=k, max_size=k)) + [1])
            As = [pow(f(x), e, p) for x in xs]
            if 0 in As:
                As = [1] * len(xs)
        elif kind == "ones":  # f = 1 counts here
            As = [1] * len(xs)
        else:
            As = data.draw(st.lists(st.integers(1, p - 1), min_size=len(xs), max_size=len(xs)))
        ctx = PrimeFieldCtx(p)
        want = brute_interp_count(xs, As, e, d, p)
        assert count_interpolating_polynomials(xs, As, e, d, ctx) == want
        assert count_interpolating_polynomials_alt(xs, As, e, d, ctx) == want

    @pytest.mark.parametrize("d, want", [(-1, 0), (0, 1)])
    def test_all_ones_below_degree_one(self, d, want):
        # f = 1 has degree 0: it counts at d = 0, and nothing counts at d < 0
        xs, As, ctx = [0, 1], [1, 1], PrimeFieldCtx(13)
        assert brute_interp_count(xs, As, 2, d, 13) == want
        assert count_interpolating_polynomials(xs, As, 2, d, ctx) == want
        assert count_interpolating_polynomials_alt(xs, As, 2, d, ctx) == want

    @pytest.mark.parametrize("d, want", [(-1, 0), (0, 1)])
    def test_no_roots_extracted_below_degree_one(self, monkeypatch, d, want):
        # neither answer needs a root, so neither counter is charged for one
        monkeypatch.setenv("POWERPROBE_BUDGET", "1")
        xs, As, ctx = [0, 1, 2], [1, 1, 1], PrimeFieldCtx(13)
        assert count_interpolating_polynomials(xs, As, 2, d, ctx) == want
        assert count_interpolating_polynomials_alt(xs, As, 2, d, ctx) == want

    def test_budget_refused(self, monkeypatch):
        monkeypatch.setenv("POWERPROBE_BUDGET", "1000")
        ctx = PrimeFieldCtx(101)
        with pytest.raises(BudgetExceededError):
            count_interpolating_polynomials_alt([1, 2], [1, 1], 4, 2, ctx)

    def test_coefficient_cell_within_default_budget(self):
        # f(0)^2 = 49 and f(1)^2 = 81 with f monic of degree <= 3 over F_401:
        # c0 = +-7 and 1 + c2 + c1 + c0 = +-9 leave 4p cubics, 4 quadratics
        # and no line, so 4p + 4 = 1608.  The coefficient counter solves for
        # c0, so it is priced at p^2 (e+1) nodes, not p^3 nodes.
        p, ctx = 401, PrimeFieldCtx(401)
        assert count_interpolating_polynomials([0, 1], [49, 81], 2, 3, ctx) == 4 * p + 4
        assert count_interpolating_polynomials_alt([0, 1], [49, 81], 2, 3, ctx) == 4 * p + 4
        f = Poly(p, [7, 5, 100, 1])
        xs = [0, 1, 2, 3]
        As = [pow(f(x), 2, p) for x in xs]
        assert (count_interpolating_polynomials(xs, As, 2, 3, ctx)
                == count_interpolating_polynomials_alt(xs, As, 2, 3, ctx) >= 1)

    def test_oversized_coefficient_cell_refused(self):
        # f(0), f(1) in {1, -1}: no line (x + c gives f(1) in {0, 2}), one
        # quadratic and p cubics for each of the 4 labelings, and f = 1, so
        # 4p + 5.  The labeling counter enumerates only the lines; the
        # coefficient counter would walk 1 + p + p^2 tuples of (e+1) N each
        p, ctx = 65537, PrimeFieldCtx(65537)
        with pytest.raises(BudgetExceededError, match="estimated 25770983442 ops"):
            count_interpolating_polynomials_alt([0, 1], [1, 1], 2, 3, ctx)
        assert count_interpolating_polynomials([0, 1], [1, 1], 2, 3, ctx) == 4 * p + 5


class TestBudget:
    def test_env_budget(self, monkeypatch):
        monkeypatch.setenv("POWERPROBE_BUDGET", "10")
        ctx = PrimeFieldCtx(101)
        with pytest.raises(BudgetExceededError):
            count_value_set_in_subgroup(ident(101), 100, 4, ctx)
        monkeypatch.setenv("POWERPROBE_BUDGET", "notanint")
        assert count_value_set_in_subgroup(ident(101), 100, 4, ctx) >= 0


class TestGridValidation:
    def test_unknown_key(self):
        with pytest.raises(DomainError):
            validate_grid({"primes": [13], "nonsense": 1})

    def test_unknown_experiment(self):
        with pytest.raises(DomainError):
            validate_grid({"experiments": ["value_set", "bogus"]})

    def test_bad_d_range(self):
        with pytest.raises(DomainError):
            validate_grid({"d_range": [1]})

    @pytest.mark.parametrize("bad", [
        {"primes": ["a"]}, {"primes": [2.5]}, {"primes": 101},
        {"experiments": "value_set"}, {"experiments": 5},
        {"e_divisor_policy": [0]}, {"e_divisor_policy": ["a"]},
        {"e_divisor_policy": {"max": "x"}}, {"e_divisor_policy": {"min": 2}},
        {"e_divisor_policy": "some"}, {"e_divisor_policy": 4},
        {"seed": [1]}, {"seed": "1"}, {"constant": [1]}, {"constant": "2"}])
    def test_bad_shapes(self, bad):
        grid = {"primes": [13], "experiments": ["value_set"], **bad}
        with pytest.raises(DomainError):
            validate_grid(grid)
        with pytest.raises(DomainError):
            sweep(grid)

    @pytest.mark.parametrize("policy", ["all", None, {"max": 4}, [1, 3], [-4]])
    def test_good_policies(self, policy):
        validate_grid({"primes": [13], "e_divisor_policy": policy, "seed": 2,
                       "constant": 0.5})

    @pytest.mark.parametrize("big", [2 ** 62, 2 * (2 ** 61 - 1) * (2 ** 62 - 57) + 1])
    def test_refuses_moduli_from_2_62(self, big):
        # the second entry's p - 1 = 2 (2^61 - 1)(2^62 - 57) is a 123-bit
        # composite that factorize does not split in seconds
        grid = {"primes": [13, big], "experiments": ["value_set"]}
        with pytest.raises(DomainError, match="below 2\\^62"):
            validate_grid(grid)
        with pytest.raises(DomainError):
            sweep(grid)

    def test_load_grid(self, tmp_path):
        path = tmp_path / "g.json"
        path.write_text(json.dumps({"primes": [13], "experiments": ["value_set"]}))
        grid = load_grid(path)
        assert grid["primes"] == [13]

    def test_experiment_registry(self):
        assert EXPERIMENTS == ("curve_points", "interpolating_count",
                              "shifted_intersection", "value_set")


class TestSweep:
    GRID = {
        "primes": [13, 31],
        "e_divisor_policy": {"max": 4},
        "d_range": [1, 2],
        "H_policy": "window",
        "experiments": ["value_set", "shifted_intersection"],
        "seed": 11,
    }

    def test_rows_sorted_and_ok(self):
        reports = sweep(self.GRID)
        keys = [(r.experiment, r.p, r.e, r.d) for r in reports]
        assert keys == sorted(keys)
        assert all(r.status == "ok" for r in reports)
        # 13 -> e in {1,2,3,4}, 31 -> e in {1,2,3}; two d values, two experiments
        assert len(reports) == 2 * 2 * (4 + 3)

    def test_deterministic_except_timing(self):
        a = sweep(self.GRID)
        b = sweep(self.GRID)
        strip = lambda r: (r.experiment, r.p, r.e, r.d, r.H, r.m, r.measured,
                           r.envelope, r.ratio, r.status)
        assert [strip(r) for r in a] == [strip(r) for r in b]

    def test_frozen_rows(self):
        # every column but ms, as first recorded; a change to how cells use
        # the seeded draws, or to any count, shows up here
        grid = {"primes": [211], "e_divisor_policy": {"max": 6},
                "d_range": [2, 2], "H_policy": {"fixed": 100}, "seed": 1,
                "experiments": ["curve_points", "interpolating_count",
                                "shifted_intersection", "value_set"]}
        assert [r.csv_row().rsplit(",", 1)[0] for r in sweep(grid)] == [
            "curve_points,211,1,2,,,0,4.32675,0,ok",
            "curve_points,211,2,2,,,0,6.86829,0,ok",
            "curve_points,211,3,2,,,0,9,0,ok",
            "curve_points,211,5,2,,,1,12.6515,0.0790421,ok",
            "curve_points,211,6,2,,,1,14.2866,0.0699956,ok",
            "interpolating_count,211,1,2,,1,1,1,1,ok",
            "interpolating_count,211,2,2,,1,4,2.82843,1.41421,ok",
            "interpolating_count,211,3,2,,1,9,5.19615,1.73205,ok",
            "interpolating_count,211,5,2,,1,26,11.1803,2.32551,ok",
            "interpolating_count,211,6,2,,1,36,14.6969,2.44949,ok",
            "shifted_intersection,211,1,2,,1,0,1,0,ok",
            "shifted_intersection,211,2,2,,1,0,1.5874,0,ok",
            "shifted_intersection,211,3,2,,1,0,2.08008,0,ok",
            "shifted_intersection,211,5,2,,1,0,2.92402,0,ok",
            "shifted_intersection,211,6,2,,1,0,3.30193,0,ok",
            "value_set,211,1,2,100,,0,22.4492,0,ok",
            "value_set,211,2,2,100,,1,28.2843,0.0353553,ok",
            "value_set,211,3,2,100,,2,32.3774,0.0617715,ok",
            "value_set,211,5,2,100,,1,38.3877,0.02605,ok",
            "value_set,211,6,2,100,,1,40.793,0.024514,ok",
        ]
        # d = 1: value_set ratios of coprime degrees, and the k = 1 labeling
        grid = dict(grid, primes=[101], d_range=[1, 1])
        assert [r.csv_row().rsplit(",", 1)[0] for r in sweep(grid)] == [
            "curve_points,101,1,1,,,0,1,0,ok",
            "curve_points,101,2,1,,,0,1.5874,0,ok",
            "curve_points,101,4,1,,,0,2.51984,0,ok",
            "curve_points,101,5,1,,,0,2.92402,0,ok",
            "interpolating_count,101,1,1,,1,1,1,1,ok",
            "interpolating_count,101,2,1,,1,1,1.41421,0.707107,ok",
            "interpolating_count,101,4,1,,1,2,2,1,ok",
            "interpolating_count,101,5,1,,1,1,2.23607,0.447214,ok",
            "shifted_intersection,101,1,1,,1,0,1,0,ok",
            "shifted_intersection,101,2,1,,1,0,1.5874,0,ok",
            "shifted_intersection,101,4,1,,1,0,2.51984,0,ok",
            "shifted_intersection,101,5,1,,1,0,2.92402,0,ok",
            "value_set,101,1,1,100,,0,10,0,ok",
            "value_set,101,2,1,100,,1,12.5992,0.0793701,ok",
            "value_set,101,4,1,100,,3,15.874,0.188988,ok",
            "value_set,101,5,1,100,,4,17.0998,0.233921,ok",
        ]

    def test_seed_changes_draws(self):
        other = dict(self.GRID, seed=12)
        a = sweep(self.GRID)
        b = sweep(other)
        assert [r.measured for r in a] != [r.measured for r in b]

    def test_error_rows_do_not_abort(self):
        grid = {"primes": [13], "e_divisor_policy": {"max": 4},
                "d_range": [1, 1], "experiments": ["interpolating_count"]}
        reports = sweep(grid)
        statuses = {r.e: r.status for r in reports}
        assert statuses[1] == "ok" and statuses[2] == "ok"
        assert statuses[3] == "error" and statuses[4] == "error"
        err = [r for r in reports if r.status == "error"][0]
        assert err.measured is None and err.ratio is None

    def test_budget_rows(self, monkeypatch):
        monkeypatch.setenv("POWERPROBE_BUDGET", "5")
        grid = {"primes": [101], "e_divisor_policy": [4], "d_range": [2, 2],
                "experiments": ["value_set"]}
        reports = sweep(grid)
        assert [r.status for r in reports] == ["budget"]

    def test_bad_prime_gives_error_rows(self):
        grid = {"primes": [101, 100], "e_divisor_policy": {"max": 6},
                "d_range": [1, 1], "experiments": ["value_set", "curve_points"]}
        reports = sweep(grid)
        assert {r.p for r in reports} == {100, 101}
        assert all(r.status == "ok" for r in reports if r.p == 101)
        assert all(r.status == "error" for r in reports if r.p == 100)

    def test_one_context_per_prime(self, monkeypatch):
        built = []

        def counting(p):
            built.append(p)
            return PrimeFieldCtx(p)

        monkeypatch.setattr(bounds_lab, "PrimeFieldCtx", counting)
        grid = {"primes": [13, 31], "e_divisor_policy": [2], "d_range": [1, 1],
                "experiments": list(EXPERIMENTS)}
        assert len(EXPERIMENTS) == 4
        sweep(grid)
        assert sorted(built) == [13, 31]

    def test_one_divisor_list_per_prime(self, monkeypatch):
        calls = []
        cell_es = bounds_lab._cell_es
        monkeypatch.setattr(bounds_lab, "_cell_es",
                            lambda p, policy: calls.append(p) or cell_es(p, policy))
        sweep({"primes": [13, 31], "e_divisor_policy": {"max": 4}, "d_range": [1, 1],
               "experiments": list(EXPERIMENTS)})
        assert sorted(calls) == [13, 31]

    def test_divisors_match_trial_division(self):
        for n in range(1, 2001):
            assert bounds_lab._divisors(n) == [k for k in range(1, n + 1) if n % k == 0]

    def test_all_experiments_run(self):
        grid = {"primes": [31], "e_divisor_policy": [2], "d_range": [2, 2],
                "experiments": list(EXPERIMENTS), "seed": 3}
        reports = sweep(grid)
        assert [r.experiment for r in reports] == sorted(EXPERIMENTS)
        assert all(r.status == "ok" for r in reports)


class TestCsv:
    def test_header_and_rows(self, tmp_path):
        reports = sweep(TestSweep.GRID)
        path = tmp_path / "out.csv"
        write_csv(reports, path)
        lines = path.read_text().splitlines()
        assert lines[0] == CSV_HEADER
        assert CSV_HEADER == "experiment,p,e,d,H,m,measured,envelope,ratio,status,ms"
        assert len(lines) == len(reports) + 1
        for line in lines[1:]:
            assert len(line.split(",")) == 11

    def test_empty_grid_header_only(self, tmp_path):
        path = tmp_path / "empty.csv"
        write_csv(sweep({}), path)
        assert path.read_text() == CSV_HEADER + "\n"

    def test_row_formatting(self):
        r = BoundReport("value_set", 13, 3, 2, None, None, 7, 2.5, 2.8, "ok", 1.234)
        assert r.csv_row() == "value_set,13,3,2,,,7,2.5,2.8,ok,1.2"
