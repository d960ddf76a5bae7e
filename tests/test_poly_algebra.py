"""Polynomial algebra, rational functions, resultants, torsion divisors."""

import itertools
import math
import random

import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from powerprobe.ff_core import BudgetExceededError, DomainError, PrimeFieldCtx, is_prime
from powerprobe.poly_algebra import (BiPoly, DegenerateResultantError, Poly,
                                     RationalFn, _general_roots,
                                     _lagrange_rows, divisible_by_torsion,
                                     is_square_free, lagrange_interpolate,
                                     perfect_power_decompose, poly_gcd,
                                     poly_power_root, resultant_shifted,
                                     square_free_decomposition,
                                     sylvester_resultant)


def rand_poly(rng, p, degree, monic=True):
    c = [rng.randrange(p) for _ in range(degree)]
    c.append(1 if monic else rng.randrange(1, p))
    return Poly(p, c)


def det_by_permutations(rows, p):
    # independent determinant route for small matrices
    n = len(rows)
    total = 0
    for perm in itertools.permutations(range(n)):
        sign = 1
        seen = list(perm)
        for i in range(n):
            for j in range(i + 1, n):
                if seen[i] > seen[j]:
                    sign = -sign
        term = sign
        for i in range(n):
            term = term * rows[i][perm[i]] % p
        total = (total + term) % p
    return total % p


class TestPolyBasics:
    def test_canonicalization(self):
        f = Poly(13, [14, 0, 26, 0])
        assert f.coeffs == (1,)
        assert f.degree == 0
        assert Poly(13, [0, 0]).is_zero
        assert Poly(13, []).degree == -1

    def test_constructors(self):
        assert Poly.zero(13).coeffs == ()
        assert Poly.one(13).coeffs == (1,)
        assert Poly.x(13).coeffs == (0, 1)
        f = Poly.from_roots(13, [2, 5])
        assert f.coeffs == (10, 6, 1)
        assert f(2) == 0 and f(5) == 0

    def test_leading_and_monic(self):
        f = Poly(13, [1, 0, 3])
        assert f.leading == 3
        assert not f.is_monic
        assert f.monic().leading == 1
        assert f.monic() * 3 == f

    def test_frozen_eval_examples(self):
        assert Poly(13, [1, 0, 1])(5) == 0
        assert Poly.x(13)(7) == 7
        assert Poly.one(13)(9) == 1

    def test_frozen_shift_example(self):
        f = Poly(13, [0, 0, 1])
        assert f.shift(1).coeffs == (1, 2, 1)

    def test_shift_pointwise(self):
        rng = random.Random(5)
        for _ in range(10):
            f = rand_poly(rng, 13, rng.randrange(1, 5))
            a = rng.randrange(13)
            g = f.shift(a)
            for x in range(13):
                assert g(x) == f((x + a) % 13)

    def test_pow(self):
        f = Poly(13, [1, 1])
        assert f ** 3 == f * f * f
        assert (f ** 0) == Poly.one(13)

    @settings(max_examples=60, deadline=None)
    @given(st.sampled_from([2, 5, 13, 101]), st.data())
    def test_pow_is_repeated_multiplication(self, p, data):
        f = Poly(p, data.draw(st.lists(st.integers(0, p - 1), max_size=5)))
        acc = Poly.one(p)
        for k in range(10):
            assert f ** k == acc
            acc = acc * f

    def test_derivative_product_rule(self):
        rng = random.Random(6)
        for _ in range(10):
            f = rand_poly(rng, 13, 3)
            g = rand_poly(rng, 13, 2)
            assert (f * g).derivative() == f.derivative() * g + f * g.derivative()

    def test_mixed_moduli_rejected(self):
        with pytest.raises(DomainError):
            Poly(13, [1, 1]) + Poly(7, [1, 1])


class TestDivmodGcd:
    def test_frozen_divrem_example(self):
        q, r = divmod(Poly(13, [0, 0, 0, 1]), Poly(13, [12, 1]))
        assert q.coeffs == (1, 1, 1)
        assert r.coeffs == (1,)

    def test_division_by_zero(self):
        with pytest.raises(DomainError):
            divmod(Poly(13, [1, 1]), Poly.zero(13))

    @settings(max_examples=60, deadline=None)
    @given(st.lists(st.integers(0, 12), min_size=0, max_size=6),
           st.lists(st.integers(0, 12), min_size=1, max_size=4))
    def test_divmod_invariant(self, fc, gc):
        f = Poly(13, fc)
        g = Poly(13, gc)
        if g.is_zero:
            return
        q, r = divmod(f, g)
        assert q * g + r == f
        assert r.is_zero or r.degree < g.degree

    def test_frozen_gcd_example(self):
        g = poly_gcd(Poly(13, [12, 0, 1]), Poly(13, [12, 1]))
        assert g.coeffs == (12, 1)

    def test_gcd_of_scaled_common_factor(self):
        rng = random.Random(7)
        for _ in range(10):
            h = rand_poly(rng, 13, 2)
            f = rand_poly(rng, 13, 2) * h * 3
            g = rand_poly(rng, 13, 1) * h * 5
            got = poly_gcd(f, g)
            assert got.is_monic
            assert (f % got).is_zero and (g % got).is_zero
            assert (got % h).is_zero

    def test_gcd_zero_zero(self):
        with pytest.raises(DomainError):
            poly_gcd(Poly.zero(13), Poly.zero(13))

    @settings(max_examples=200, deadline=None)
    @given(st.sampled_from([2, 3, 5, 13, 31, 101]), st.data())
    def test_gcd_matches_poly_level_euclid(self, p, data):
        # zero, constant and non-monic inputs all come up: coefficients are
        # free, lists may be empty or of length one, and a shared factor
        # makes nontrivial gcds common
        coeffs = st.lists(st.integers(0, p - 1), max_size=5)
        h = Poly(p, data.draw(coeffs))
        f = Poly(p, data.draw(coeffs)) * (h if data.draw(st.booleans()) else 1)
        g = Poly(p, data.draw(coeffs)) * (h if data.draw(st.booleans()) else 1)
        if f.is_zero and g.is_zero:
            with pytest.raises(DomainError):
                poly_gcd(f, g)
            return
        a, b = f, g
        while not b.is_zero:
            a, b = b, a % b
        assert poly_gcd(f, g) == a * pow(a.leading, -1, p)


class TestLagrange:
    def test_frozen_examples(self):
        assert lagrange_interpolate(13, [(0, 1), (1, 2)]).coeffs == (1, 1)
        assert lagrange_interpolate(13, [(0, 0), (1, 1), (2, 4)]).coeffs == (0, 0, 1)
        assert _lagrange_rows([0, 1], 13) == [[1, 12], [0, 1]]  # 1 - X and X

    def test_round_trip(self):
        rng = random.Random(8)
        for _ in range(10):
            pts = [(x, rng.randrange(13)) for x in rng.sample(range(13), 5)]
            f = lagrange_interpolate(13, pts)
            assert f.degree < 5
            for x, y in pts:
                assert f(x) == y

    def test_basis_delta_property(self):
        xs = [2, 3, 7, 11]
        for i, row in enumerate(_lagrange_rows(xs, 13)):
            for j, x in enumerate(xs):
                assert Poly(13, row)(x) == (1 if i == j else 0)

    def test_duplicate_nodes_rejected(self):
        with pytest.raises(DomainError):
            lagrange_interpolate(13, [(1, 1), (1, 2)])
        with pytest.raises(DomainError):
            _lagrange_rows([3, 3], 13)


class TestSquareFree:
    def test_frozen_examples(self):
        assert not is_square_free(Poly(13, [1, 2, 1]))
        assert is_square_free(Poly(13, [1, 0, 1]))
        assert is_square_free(Poly.x(13))

    def test_matches_root_multiplicity(self):
        rng = random.Random(9)
        for _ in range(20):
            f = rand_poly(rng, 13, rng.randrange(1, 5))
            # reference: f square-free iff no repeated factor; check via gcd degree
            ref = poly_gcd(f, f.derivative() if not f.derivative().is_zero else f)
            assert is_square_free(f) == (ref.degree == 0)

    def test_degree_bound_enforced(self):
        f = Poly(5, [1] * 6)  # degree 5 over F_5
        with pytest.raises(DomainError):
            is_square_free(f)
        with pytest.raises(DomainError):
            square_free_decomposition(f)

    def test_decomposition_multiplies_back(self):
        rng = random.Random(10)
        for _ in range(10):
            parts = [rand_poly(rng, 101, 1) for _ in range(3)]
            f = parts[0] * parts[1] ** 2 * parts[2] ** 3
            layers = square_free_decomposition(f)
            prod = Poly.one(101)
            for factor, mult in layers:
                prod = prod * factor ** mult
            assert prod == f.monic()
            mults = [m for _, m in layers]
            assert mults == sorted(mults)

    def test_power_root(self):
        f = Poly(13, [2, 3, 1])
        assert poly_power_root(f ** 2, 2) == f
        assert poly_power_root(f ** 3, 3) == f
        with pytest.raises(DomainError):
            poly_power_root(Poly(13, [1, 0, 1]), 2)


class TestRationalFn:
    def test_reduction(self):
        num = Poly(13, [1, 1]) * Poly(13, [2, 1])
        den = Poly(13, [1, 1]) * Poly(13, [5, 1])
        r = RationalFn(num, den)
        assert r.num == Poly(13, [2, 1])
        assert r.den == Poly(13, [5, 1])
        assert r.den.is_monic

    def test_scalar_carried_by_numerator(self):
        r = RationalFn(Poly(13, [0, 2]), Poly(13, [0, 0, 4]))
        assert r.den.is_monic
        for x in range(1, 13):
            assert r.eval_at(x) == 2 * x * pow(4 * x * x % 13, -1, 13) % 13

    def test_eval_at_pole(self):
        r = RationalFn(Poly.one(13), Poly(13, [12, 1]))
        assert r.eval_at(1) is None
        assert r.eval_at(2) == 1

    def test_mul_and_pow(self):
        a = RationalFn(Poly.x(13), Poly(13, [1, 1]))
        sq = a * a
        assert sq == a ** 2
        assert sq.num == Poly(13, [0, 0, 1])

    def test_zero_numerator(self):
        r = RationalFn(Poly.zero(13), Poly(13, [0, 5]))
        assert r.num.is_zero
        assert r.den == Poly.one(13)


class TestPerfectPower:
    def test_frozen_examples(self):
        one = Poly.one(13)
        phi, k = perfect_power_decompose(RationalFn(Poly(13, [1, 2, 1]), one))
        assert k == 2
        assert phi == RationalFn(Poly(13, [1, 1]), one)

        psi = RationalFn(Poly.x(13), Poly(13, [1, 1]))
        phi, k = perfect_power_decompose(psi)
        assert k == 1
        assert phi == psi

        psi = RationalFn(Poly(13, [0, 0, 0, 0, 1]), Poly(13, [1, 2, 1]))
        phi, k = perfect_power_decompose(psi)
        assert k == 2
        assert phi == RationalFn(Poly(13, [0, 0, 1]), Poly(13, [1, 1]))

    def test_power_identity_and_maximality(self):
        rng = random.Random(11)
        one = Poly.one(101)
        for _ in range(10):
            base = RationalFn(rand_poly(rng, 101, 2), rand_poly(rng, 101, 1))
            for k in (2, 3, 4):
                phi, got = perfect_power_decompose(base ** k)
                assert phi ** got == base ** k
                assert got % k == 0  # at least the constructed power

    def test_scalar_residue_obstruction(self):
        # 5 is not a square mod 13, so 5X^2 is not a perfect square there
        psi = RationalFn(Poly(13, [0, 0, 5]), Poly.one(13))
        phi, k = perfect_power_decompose(psi)
        assert k == 1
        assert phi == psi

    def test_scalar_root_found(self):
        psi = RationalFn(Poly(13, [0, 0, 4]), Poly.one(13))
        phi, k = perfect_power_decompose(psi)
        assert k == 2
        assert phi ** 2 == psi

    def test_constant_rejected(self):
        with pytest.raises(DomainError):
            perfect_power_decompose(RationalFn(Poly(13, [5]), Poly.one(13)))

    def test_frozen_early_return_examples(self):
        x1 = Poly(13, [1, 1])
        psi = RationalFn(Poly.x(13), x1 ** 2)  # square-free numerator
        phi, k = perfect_power_decompose(psi)
        assert (phi, k) == (psi, 1)
        psi = RationalFn(Poly.one(13), x1 ** 2)  # constant numerator
        phi, k = perfect_power_decompose(psi)
        assert (phi, k) == (RationalFn(Poly.one(13), x1), 2)

    def test_square_free_numerator_over_high_degree_denominator(self):
        # the numerator alone settles k = 1, but the denominator must still
        # meet the degree precondition of its square-free decomposition
        den = Poly(5, [1, 0, 0, 0, 0, 1])  # (X + 1)^5 over F_5
        with pytest.raises(DomainError, match="degree must stay below the modulus"):
            perfect_power_decompose(RationalFn(Poly.x(5), den))

    @settings(max_examples=300, deadline=None)
    @given(st.sampled_from([5, 7, 13, 31]), st.integers(1, 4), st.data())
    def test_decomposition_property(self, p, power, data):
        def poly(max_degree, monic):
            c = data.draw(st.lists(st.integers(0, p - 1), max_size=max_degree))
            return Poly(p, c + [1 if monic else data.draw(st.integers(1, p - 1))])

        # k divides both degrees, so coprime degrees give the input back
        # with k = 1, unless a degree reaches p
        rho = RationalFn(poly(8, False), poly(8, True))
        if not rho.is_constant and math.gcd(rho.num.degree, rho.den.degree) == 1:
            if rho.degree >= p:
                with pytest.raises(DomainError, match="degree must stay below the modulus"):
                    perfect_power_decompose(rho)
            else:
                phi, k = perfect_power_decompose(rho)
                assert phi is rho and k == 1
        psi = RationalFn(poly(3, False), poly(3, True)) ** power
        assume(not psi.is_constant and psi.degree < p)
        phi, k = perfect_power_decompose(psi)
        assert phi ** k == psi
        if k == 1:
            assert phi is psi

    @settings(max_examples=150, deadline=None)
    @given(st.sampled_from([q for q in range(3, 500) if is_prime(q)]),
           st.integers(1, 60), st.data())
    def test_general_roots_match_brute_force(self, p, k, data):
        # k need not divide p - 1: scalar roots of the leading coefficient
        assume((p - 1) % k != 0)
        value = data.draw(st.integers(0, p - 1))
        want = tuple(y for y in range(p) if pow(y, k, p) == value)
        assert _general_roots(PrimeFieldCtx(p), value, k) == want

    def test_square_free_coprime_ratio_is_primitive(self):
        rng = random.Random(12)
        count = 0
        while count < 10:
            f = rand_poly(rng, 101, 3)
            g = rand_poly(rng, 101, 3)
            if f == g or not is_square_free(f) or not is_square_free(g):
                continue
            if poly_gcd(f, g).degree > 0:
                continue
            count += 1
            _, k = perfect_power_decompose(RationalFn(f, g))
            assert k == 1


class TestBiPoly:
    def test_canonical_and_eval(self):
        F = BiPoly.from_terms(13, {(1, 1): 14, (0, 0): -1, (2, 2): 0})
        assert F.terms() == {(1, 1): 1, (0, 0): 12}
        assert F(3, 5) == (15 - 1) % 13
        assert F.deg_u == 1 and F.deg_v == 1

    def test_arithmetic_pointwise(self):
        rng = random.Random(13)
        for _ in range(5):
            A = BiPoly.from_terms(13, {(i, j): rng.randrange(13)
                                       for i in range(2) for j in range(2)})
            B = BiPoly.from_terms(13, {(i, j): rng.randrange(13)
                                       for i in range(2) for j in range(2)})
            P = A * B
            D = A - B
            for u in range(13):
                for v in range(13):
                    assert P(u, v) == A(u, v) * B(u, v) % 13
                    assert D(u, v) == (A(u, v) - B(u, v)) % 13


class TestSylvesterResultant:
    def test_product_formula(self):
        rng = random.Random(14)
        for _ in range(10):
            roots = rng.sample(range(13), 2)
            f = Poly.from_roots(13, roots)
            g = rand_poly(rng, 13, 2, monic=False)
            expect = 1
            for r in roots:
                expect = expect * g(r) % 13
            assert sylvester_resultant(list(f.coeffs), list(g.coeffs),
                                       2, 2, 13) == expect

    def test_swap_sign(self):
        rng = random.Random(15)
        for _ in range(10):
            f = rand_poly(rng, 13, 2)
            g = rand_poly(rng, 13, 3)
            a = sylvester_resultant(list(f.coeffs), list(g.coeffs), 2, 3, 13)
            b = sylvester_resultant(list(g.coeffs), list(f.coeffs), 3, 2, 13)
            assert a == pow(-1, 2 * 3, 13) * b % 13

    def test_multiplicative(self):
        rng = random.Random(16)
        for _ in range(10):
            f = rand_poly(rng, 13, 2)
            g = rand_poly(rng, 13, 1)
            h = rand_poly(rng, 13, 2)
            left = sylvester_resultant(list(f.coeffs), list((g * h).coeffs), 2, 3, 13)
            right = (sylvester_resultant(list(f.coeffs), list(g.coeffs), 2, 1, 13)
                     * sylvester_resultant(list(f.coeffs), list(h.coeffs), 2, 2, 13)) % 13
            assert left == right

    def test_vanishes_iff_common_root(self):
        for fc in itertools.product(range(7), repeat=2):
            f = Poly(7, list(fc) + [1])
            for gc in itertools.product(range(7), repeat=1):
                g = Poly(7, list(gc) + [1])
                r = sylvester_resultant(list(f.coeffs), list(g.coeffs), 2, 1, 7)
                shares = poly_gcd(f, g).degree > 0
                assert (r == 0) == shares

    def test_stated_degree_padding_matches_determinant(self):
        # stated degrees above the actual ones pad with zero rows of the matrix
        rng = random.Random(17)
        for _ in range(10):
            f = rand_poly(rng, 13, 1)
            g = rand_poly(rng, 13, 1)
            m, n = 2, 2
            fc = list(f.coeffs) + [0] * (m - f.degree)
            gc = list(g.coeffs) + [0] * (n - g.degree)
            rows = []
            for i in range(n):
                row = [0] * (m + n)
                for j, c in enumerate(reversed(fc)):
                    row[i + j] = c
                rows.append(row)
            for i in range(m):
                row = [0] * (m + n)
                for j, c in enumerate(reversed(gc)):
                    row[i + j] = c
                rows.append(row)
            assert sylvester_resultant(fc, gc, m, n, 13) == det_by_permutations(rows, 13)


class TestResultantShifted:
    def test_frozen_linear_examples(self):
        R1 = resultant_shifted(Poly.x(13), Poly.one(13), 1)
        expect = BiPoly.from_terms(13, {(1, 0): 1, (0, 1): -1, (0, 0): 1})
        assert R1 in (expect, expect * BiPoly.from_terms(13, {(0, 0): -1}))

        R2 = resultant_shifted(Poly.x(13), Poly.one(13), 2)
        expect2 = BiPoly.from_terms(13, {(1, 0): 1, (0, 1): -1, (0, 0): 2})
        assert R2 in (expect2, expect2 * BiPoly.from_terms(13, {(0, 0): -1}))

    def test_rejects_zero_shift(self):
        with pytest.raises(DomainError):
            resultant_shifted(Poly(13, [0, 0, 1]), Poly.one(13), 0)

    def test_rejects_both_constant(self):
        with pytest.raises(DomainError):
            resultant_shifted(Poly.one(13), Poly(13, [5]), 1)

    def test_rejects_small_field(self):
        # needs p > (deg bound + 1)^2 grid points
        f = Poly(5, [0, 0, 0, 1])
        with pytest.raises(DomainError):
            resultant_shifted(f, Poly.one(5), 1)

    def test_specialization_matches_univariate(self):
        p = 31
        f = Poly(p, [3, 1, 1])
        g = Poly(p, [4, 1])
        a = 2
        R = resultant_shifted(f, g, a)
        fs = f.shift(a)
        gs = g.shift(a)
        d = max(f.degree, g.degree)
        for u in range(0, p, 5):
            for v in range(0, p, 7):
                first = [(c1 - u * c2) % p for c1, c2 in
                         zip(list(f.coeffs) + [0] * 3, list(g.coeffs) + [0] * 3)][: d + 1]
                second = [(c1 - v * c2) % p for c1, c2 in
                          zip(list(fs.coeffs) + [0] * 3, list(gs.coeffs) + [0] * 3)][: d + 1]
                want = sylvester_resultant(first, second, d, d, p)
                assert R(u, v) == want

    def test_vanishing_iff_shared_field_root(self):
        p = 31
        f = Poly(p, [3, 1, 1])
        g = Poly.one(p)
        a = 1
        R = resultant_shifted(f, g, a)
        for u in range(p):
            for v in range(p):
                shared = any(f(x) == u and f((x + a) % p) == v for x in range(p))
                if shared:
                    assert R(u, v) == 0


class TestTorsionDivisor:
    def test_frozen_examples(self):
        F1 = BiPoly.from_terms(13, {(1, 1): 1, (0, 0): -1})
        ok, witness = divisible_by_torsion(F1)
        assert ok and witness == F1

        F2 = BiPoly.from_terms(13, {(1, 0): 1, (0, 1): 1})
        ok, witness = divisible_by_torsion(F2)
        assert ok and witness == F2

        F3 = BiPoly.from_terms(13, {(1, 0): 1, (0, 1): -1, (0, 0): 1})
        ok, witness = divisible_by_torsion(F3)
        assert not ok and witness is None

    def test_composite_multiple(self):
        tor = BiPoly.from_terms(13, {(1, 1): 1, (0, 0): 12})
        other = BiPoly.from_terms(13, {(1, 0): 1, (0, 1): 1, (0, 0): 3})
        ok, witness = divisible_by_torsion(tor * other)
        assert ok
        # witness really divides: its zero set lies inside the product's
        for u in range(13):
            for v in range(13):
                if witness(u, v) == 0:
                    assert (tor * other)(u, v) == 0

    def test_search_charged_before_it_starts(self):
        # about 2^61 constants for each exponent pair: refused at once
        F = BiPoly.from_terms((1 << 61) - 1, {(1, 1): 1, (1, 0): 2, (0, 0): 3})
        with pytest.raises(BudgetExceededError):
            divisible_by_torsion(F)

    def test_scaled_torsion_detected(self):
        F = BiPoly.from_terms(13, {(2, 1): 3, (0, 0): 7})
        ok, witness = divisible_by_torsion(F)
        assert ok
        assert witness.deg_u == 2 and witness.deg_v == 1
