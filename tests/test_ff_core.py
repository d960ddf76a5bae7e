"""Field context, subgroups, and root extraction."""

import gc
import math
import tracemalloc

import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from powerprobe import ff_core
from powerprobe.ff_core import (MAX_MODULUS, BudgetExceededError, DomainError,
                                PrimeFieldCtx, factorize, find_primitive_root,
                                iroot, is_prime)


@pytest.fixture
def plans():
    # the process-wide plan cache, emptied so that plans built by earlier
    # tests decide nothing; yields its cache_info
    ff_core._root_plan.cache_clear()
    yield ff_core._root_plan.cache_info
    ff_core._root_plan.cache_clear()


def brute_roots(p, value, e, n=1):
    # reference implementation by full scan
    g = find_primitive_root(p)
    out = []
    for z in range(1, p):
        if pow(z, e, p) != value % p:
            continue
        ind = 0
        acc = 1
        for k in range(1, p):
            acc = acc * g % p
            if acc == z:
                ind = k
                break
        if ind % n == 0:
            out.append(z)
    return tuple(sorted(out))


class TestPrimality:
    def test_small_knowns(self):
        primes = {2, 3, 5, 7, 11, 13, 31, 101, 1009, 10007}
        for n in range(2, 110):
            assert is_prime(n) == (n in primes or all(n % q for q in range(2, n)))

    def test_carmichael_and_strong_pseudoprimes(self):
        for n in (561, 1105, 1729, 25326001, 3215031751):
            assert not is_prime(n)

    def test_large_prime(self):
        assert is_prime((1 << 61) - 1)
        assert not is_prime((1 << 62) - 1)

    def test_edge_values(self):
        assert not is_prime(0)
        assert not is_prime(1)
        assert not is_prime(-7)

    def test_strong_pseudoprimes_to_the_first_k_bases(self):
        # A014233(k), k = 1..12: the least odd composite that passes
        # Miller-Rabin to each of the first k prime bases
        for n in (2047, 1373653, 25326001, 3215031751, 2152302898747,
                  3474749660383, 341550071728321, 341550071728321,
                  3825123056546413051, 3825123056546413051,
                  3825123056546413051, 318665857834031151167461):
            assert not is_prime(n)
        assert 399165290221 * 798330580441 == 318665857834031151167461

    def test_agrees_with_sieve(self):
        limit = 2 * 10 ** 5
        sieve = bytearray([1]) * limit
        sieve[:2] = b"\0\0"
        for q in range(2, math.isqrt(limit - 1) + 1):
            if sieve[q]:
                sieve[q * q::q] = bytes(len(range(q * q, limit, q)))
        assert [n for n in range(limit) if is_prime(n)] == [n for n in range(limit) if sieve[n]]


class TestFactorize:
    def test_round_trip_small_range(self):
        for n in range(2, 400):
            fac = factorize(n)
            prod = 1
            for q in fac:
                assert is_prime(q)
                prod *= q
            assert prod == n
            assert fac == sorted(fac)

    def test_large_semiprime(self):
        n = 1000003 * 1000033
        assert factorize(n) == [1000003, 1000033]

    def test_prime_power(self):
        assert factorize(3 ** 7) == [3] * 7


class TestIroot:
    def test_matches_isqrt(self):
        for x in list(range(200)) + [10 ** 12, 10 ** 12 + 7]:
            assert iroot(x, 2) == math.isqrt(x)

    def test_bracketing(self):
        for x in (0, 1, 7, 26, 27, 28, 3 ** 30 - 1, 3 ** 30, 5 ** 21):
            for r in (1, 2, 3, 5, 7):
                k = iroot(x, r)
                assert k ** r <= x < (k + 1) ** r

    def test_big_powers_exact_and_off_by_one(self):
        for x in (10 ** 300 - 1, 10 ** 300, 10 ** 300 + 1):
            for r in (3, 5, 7):
                k = iroot(x, r)
                assert k ** r <= x < (k + 1) ** r
        for r in (3, 5, 7):
            k = 10 ** 40 + 7
            assert iroot(k ** r, r) == k
            assert iroot(k ** r - 1, r) == k - 1
            assert iroot(k ** r + 1, r) == k


class TestPrimitiveRoot:
    def test_frozen_values(self):
        assert find_primitive_root(13) == 2
        assert find_primitive_root(7) == 3
        assert find_primitive_root(2) == 1

    def test_is_smallest_generator(self):
        for p in (3, 5, 11, 13, 31, 101, 1009):
            g = find_primitive_root(p)
            for cand in range(1, g):
                assert len({pow(cand, k, p) for k in range(p - 1)}) < p - 1
            assert len({pow(g, k, p) for k in range(p - 1)}) == p - 1


class TestCtxValidation:
    def test_rejects_composite(self):
        with pytest.raises(DomainError):
            PrimeFieldCtx(12)

    def test_rejects_out_of_range(self):
        with pytest.raises(DomainError):
            PrimeFieldCtx(1)
        big = MAX_MODULUS + 3
        while not is_prime(big):
            big += 2
        with pytest.raises(DomainError):
            PrimeFieldCtx(big)


class TestSubgroups:
    def test_frozen_values(self):
        ctx = PrimeFieldCtx(13)
        assert ctx.subgroup_elements(3) == (1, 3, 9)
        assert ctx.subgroup_elements(4) == (1, 5, 8, 12)

    def test_structure(self):
        for p in (13, 31, 101):
            ctx = PrimeFieldCtx(p)
            for e in range(1, p):
                if (p - 1) % e:
                    continue
                sub = ctx.subgroup_elements(e)
                assert len(sub) == e
                assert sub == tuple(sorted(sub))
                elems = set(sub)
                assert 1 in elems
                for a in elems:
                    assert pow(a, e, p) == 1
                    for b in elems:
                        assert a * b % p in elems

    def test_rejects_non_divisor_order(self):
        ctx = PrimeFieldCtx(13)
        with pytest.raises(DomainError):
            ctx.subgroup_elements(5)

    def test_equals_brute_force(self):
        for p in (q for q in range(2, 500) if is_prime(q)):
            ctx = PrimeFieldCtx(p)
            for e in range(1, p):
                if (p - 1) % e == 0:
                    want = tuple(x for x in range(1, p) if pow(x, e, p) == 1)
                    assert ctx.subgroup_elements(e) == want, (p, e)

    def test_at_61_bits(self):
        p = (1 << 61) - 1
        ctx = PrimeFieldCtx(p)
        for e in (1, 2, 3, 6, 7, 42, 331, 1155):
            sub = ctx.subgroup_elements(e)
            assert len(sub) == e and sub == tuple(sorted(sub))
            assert all(pow(x, e, p) == 1 for x in sub)

    def test_huge_order_refused(self, plans):
        # mu_order would hold 1,164,127,965 elements: refused before a walk
        p, e = (1 << 61) - 1, 1164127965
        ctx = PrimeFieldCtx(p)
        with pytest.raises(BudgetExceededError):
            ctx.subgroup_elements(e)
        assert plans().misses == 0


class TestExtractRoots:
    def test_frozen_values(self):
        ctx = PrimeFieldCtx(13)
        assert ctx.extract_roots(8, 3) == (2, 5, 6)
        assert ctx.extract_roots(3, 4) == (2, 3, 10, 11)
        assert ctx.extract_roots(2, 3) == ()

    def test_matches_brute_force(self):
        for p in (13, 31):
            ctx = PrimeFieldCtx(p)
            for e in (1, 2, 3, 5, 6):
                if (p - 1) % e:
                    continue
                for value in range(1, p):
                    assert ctx.extract_roots(value, e) == brute_roots(p, value, e)

    def test_index_multiple_filter_matches_brute(self):
        ctx = PrimeFieldCtx(13)
        for e in (1, 2, 3, 4):
            for n in (1, 2, 3, 4, 6):
                if (13 - 1) % (e * 1) or (13 - 1) % n:
                    continue
                for value in range(1, 13):
                    got = ctx.extract_roots(value, e, index_multiple=n)
                    assert got == brute_roots(13, value, e, n)

    def test_root_count_is_zero_or_e(self):
        ctx = PrimeFieldCtx(101)
        for e in (2, 4, 5):
            counts = {len(ctx.extract_roots(v, e)) for v in range(1, 101)}
            assert counts == {0, e}

    def test_zero_value_raises(self):
        ctx = PrimeFieldCtx(13)
        with pytest.raises(DomainError):
            ctx.extract_roots(0, 3)
        with pytest.raises(DomainError):
            ctx.extract_roots(0, 3, index_multiple=2)

    def test_rejects_bad_orders(self):
        ctx = PrimeFieldCtx(13)
        with pytest.raises(DomainError):
            ctx.extract_roots(8, 5)
        with pytest.raises(DomainError):
            ctx.extract_roots(8, 3, index_multiple=5)

    def test_root_walk_charged_against_budget(self, monkeypatch, plans):
        ctx = PrimeFieldCtx(13)
        monkeypatch.setenv("POWERPROBE_BUDGET", "2")
        with pytest.raises(BudgetExceededError):
            ctx.extract_roots(8, 3)
        assert ctx.extract_roots(2, 3) == ()  # no roots to walk
        assert plans().misses == 0  # the refused e got no root plan
        assert ctx.extract_roots(4, 2) == (2, 11)
        assert plans().misses == 1

    def test_budget_follows_the_environment(self, monkeypatch):
        # each value is parsed once, yet every call sees the current one
        ctx = PrimeFieldCtx(13)
        for budget, refused in (("2", True), ("3", False), ("2", True), ("junk", False)):
            monkeypatch.setenv("POWERPROBE_BUDGET", budget)
            if refused:
                with pytest.raises(BudgetExceededError):
                    ctx.extract_roots(8, 3)
            else:
                assert ctx.extract_roots(8, 3) == (2, 5, 6)
        monkeypatch.delenv("POWERPROBE_BUDGET")
        assert ctx.extract_roots(8, 3) == (2, 5, 6)

    def test_huge_e_refused_before_its_plan(self, plans):
        # mu_e would hold 1,164,127,965 elements: the charge refuses at once
        p, e = (1 << 61) - 1, 1164127965
        assert (p - 1) % e == 0
        ctx = PrimeFieldCtx(p)
        with pytest.raises(BudgetExceededError):
            ctx.extract_roots(pow(3, e, p), e)
        assert plans().misses == 0

    def test_contexts_at_one_p_share_one_plan(self, plans):
        p = 1000003
        assert PrimeFieldCtx(p).extract_roots(pow(5, 3, p), 3) == \
            PrimeFieldCtx(p).extract_roots(pow(5, 3, p), 3)
        PrimeFieldCtx(p).subgroup_elements(3)
        assert (plans().misses, plans().hits) == (1, 2)

    def test_plan_holds_no_e_sized_list(self, plans):
        # at p = 4 * 100003^2 + 1 a list of the e roots of 1 would take
        # megabytes; the kept plan is O(log p) ints
        p, e = 40002400037, 100003
        gc.collect()
        tracemalloc.start()
        try:
            before = tracemalloc.get_traced_memory()[0]
            roots = PrimeFieldCtx(p).extract_roots(pow(3, e, p), e)
            assert len(roots) == e
            del roots
            gc.collect()
            kept = tracemalloc.get_traced_memory()[0] - before
        finally:
            tracemalloc.stop()
        assert plans().currsize == 1
        assert kept < 64 * 1024

    def test_index_normalization_for_one(self):
        # ind 1 = p - 1, so the trivial filter keeps 1 exactly when n | p - 1
        ctx = PrimeFieldCtx(13)
        assert 1 in ctx.extract_roots(1, 3, index_multiple=4)
        assert 1 in ctx.extract_roots(1, 3, index_multiple=6)


_SMALL_PRIMES = [q for q in range(2, 500) if is_prime(q)]


def _divisors(m):
    return [k for k in range(1, m + 1) if m % k == 0]


def _big_prime(bits, rng_value):
    # the first prime at or above a point drawn in [2^(bits-1), 2^bits)
    q = (1 << (bits - 1)) + rng_value % (1 << (bits - 1)) | 1
    while not is_prime(q):
        q += 2
    return q


class TestRootProperties:
    @settings(max_examples=200, deadline=None)
    @given(st.sampled_from(_SMALL_PRIMES), st.data())
    def test_matches_brute_force_small_p(self, p, data):
        divs = _divisors(p - 1)
        e = data.draw(st.sampled_from(divs))
        n = data.draw(st.sampled_from(divs))
        value = data.draw(st.integers(0, p - 1))
        ctx = PrimeFieldCtx(p)
        if value == 0:
            with pytest.raises(DomainError):
                ctx.extract_roots(0, e, n)
            return
        assert ctx.extract_roots(value, e, n) == brute_roots(p, value, e, n)

    @settings(max_examples=100, deadline=None)
    @given(st.sampled_from([q for q in _SMALL_PRIMES if q <= 400]), st.data())
    def test_reused_context_matches_brute(self, p, data):
        # root plans built by earlier calls, for the same e or another, give
        # what a fresh scan gives
        divs = _divisors(p - 1)
        ctx = PrimeFieldCtx(p)
        for _ in range(data.draw(st.integers(1, 8))):
            e = data.draw(st.sampled_from(divs))
            n = data.draw(st.sampled_from(divs))
            value = data.draw(st.integers(1, p - 1))
            assert ctx.extract_roots(value, e, n) == brute_roots(p, value, e, n)

    @settings(max_examples=200, deadline=None)
    @given(st.sampled_from([q for q in _SMALL_PRIMES if q <= 211]), st.data())
    def test_index_filter_is_one_power(self, p, data):
        # A has an e-th root y with y^((p-1)/n) = 1 exactly when
        # A^((p-1)/gcd(n e, p-1)) = 1, the test step 1 runs on each pair
        divs = _divisors(p - 1)
        e, n = data.draw(st.sampled_from(divs)), data.draw(st.sampled_from(divs))
        value = data.draw(st.integers(1, p - 1))
        one_power = pow(value, (p - 1) // math.gcd(n * e, p - 1), p) == 1
        assert one_power == bool(PrimeFieldCtx(p).extract_roots(value, e, n))

    @pytest.mark.parametrize("p, e", [(65537, 2), (65537, 4), (65537, 8),
                                      (40002400037, 100003)])
    def test_long_digit_loops(self, p, e):
        # 2^16 = p - 1 leaves 16 - log2(e) base-2 digits to read; at
        # p = 4 * 100003^2 + 1 the one digit is a position among 100003
        # roots of unity
        root = 3
        value = pow(root, e, p)
        roots = PrimeFieldCtx(p).extract_roots(value, e)
        assert len(roots) == e and root in roots
        assert all(pow(y, e, p) == value for y in roots)

    @settings(max_examples=40, deadline=None)
    @given(st.integers(40, 61), st.integers(0, 1 << 62), st.integers(1, 1 << 62),
           st.booleans(), st.data())
    def test_roots_verify_at_large_p(self, bits, draw, value, power, data):
        p = _big_prime(bits, draw)
        small = [k for k in range(1, 17) if (p - 1) % k == 0]
        e = data.draw(st.sampled_from(small))
        n = data.draw(st.sampled_from(small))
        ctx = PrimeFieldCtx(p)
        value %= p
        assume(value != 0)
        if power:
            value = pow(value, e, p)
        roots = ctx.extract_roots(value, e, n)
        for y in roots:
            assert pow(y, e, p) == value
            assert pow(y, (p - 1) // n, p) == 1
        assert list(roots) == sorted(set(roots))
        euler = pow(value, (p - 1) // e, p) == 1
        assert euler or not power
        assert len(ctx.extract_roots(value, e)) == (e if euler else 0)
