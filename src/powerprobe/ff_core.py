"""Exact arithmetic in prime fields: contexts, subgroups, e-th roots, and the
operation budget.

Contexts and root extraction build no table sized by e, p or sqrt(p), and a
context never factors p - 1.  e-th roots come from a few modular powers plus a
discrete log in the subgroup whose order holds only the primes of e
(Adleman-Manders-Miller, in its Pohlig-Hellman form).  What depends only on p
(primality) or only on (p, e) (the root plan, O(log p) ints) is computed once
per process and kept in bounded caches.
"""

from __future__ import annotations

import math
import os
from functools import lru_cache

MAX_MODULUS = 1 << 62
DEFAULT_BUDGET = 10 ** 8

_MR_WITNESSES = (2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37, 41)
# A014233(k): the least odd composite that is a strong probable prime to each
# of the first k witnesses
_MR_BOUNDS = (2047, 1373653, 25326001, 3215031751, 2152302898747, 3474749660383,
              341550071728321, 341550071728321, 3825123056546413051,
              3825123056546413051, 3825123056546413051,
              318665857834031151167461, 3317044064679887385961981)


class DomainError(ValueError):
    """Arguments leave the mathematical domain of the operation."""


class BudgetExceededError(RuntimeError):
    """The enumeration would exceed the operation budget."""


@lru_cache(maxsize=16)
def _parse_budget(raw: str | None) -> int:
    try:
        return DEFAULT_BUDGET if raw is None else int(raw)
    except ValueError:
        return DEFAULT_BUDGET


def _budget() -> int:
    # POWERPROBE_BUDGET, else DEFAULT_BUDGET; read on every call, so a change
    # takes effect at once, and each distinct value parsed once
    return _parse_budget(os.environ.get("POWERPROBE_BUDGET"))


def _charge(estimate: int) -> None:
    # refuse, before any of it is done, work estimated above the budget
    if estimate > _budget():
        raise BudgetExceededError("budget: estimated %d ops" % estimate)


@lru_cache(maxsize=256, typed=True)
def is_prime(n: int) -> bool:
    """Miller-Rabin to the first k prime bases, k the least with n below
    A014233(k): exact for n < 3.3e24, a strong probable-prime test to the
    bases 2..41 above.  The last 256 answers are kept, so field checks at
    one p (oracle, context) test it once per process."""
    if n < 2:
        return False
    for q in _MR_WITNESSES:
        if n % q == 0:
            return n == q
    s = ((n - 1) & (1 - n)).bit_length() - 1  # 2^s || n - 1
    d = (n - 1) >> s
    for a, bound in zip(_MR_WITNESSES, _MR_BOUNDS):
        x = pow(a, d, n)
        if x != 1 and x != n - 1:
            for _ in range(s - 1):
                x = x * x % n
                if x == n - 1:
                    break
            else:
                return False
        if n < bound:  # below A014233(k), passing k bases proves n prime
            return True
    return True


def _brent_factor(n: int) -> int:
    # deterministic Brent rho; n odd composite, no small factors
    for c in range(1, 100):
        y, r, q = 2, 1, 1
        g, x, ys = 1, 2, 2
        while g == 1:
            x = y
            for _ in range(r):
                y = (y * y + c) % n
            k = 0
            while k < r and g == 1:
                ys = y
                for _ in range(min(128, r - k)):
                    y = (y * y + c) % n
                    q = q * abs(x - y) % n
                g = math.gcd(q, n)
                k += 128
            r *= 2
        if g == n:
            g = 1
            while g == 1:
                ys = (ys * ys + c) % n
                g = math.gcd(abs(x - ys), n)
        if g != n:
            return g
    raise DomainError("cannot factor %d" % n)


def factorize(n: int) -> list[int]:
    """Prime factors of n with multiplicity, sorted ascending."""
    if n < 1:
        raise DomainError("factorize expects n >= 1")
    out: list[int] = []
    for q in (2, 3, 5):
        while n % q == 0:
            out.append(q)
            n //= q
    f = 7
    while f * f <= n and f < 100000:
        while n % f == 0:
            out.append(f)
            n //= f
        f += 2
    stack = [n] if n > 1 else []
    while stack:
        m = stack.pop()
        if m == 1:
            continue
        if is_prime(m):
            out.append(m)
            continue
        d = _brent_factor(m)
        stack.append(d)
        stack.append(m // d)
    out.sort()
    return out


def iroot(x: int, r: int) -> int:
    """Largest k with k**r <= x (integer r-th root)."""
    if x < 0 or r < 1:
        raise DomainError("iroot expects x >= 0, r >= 1")
    if x < 2 or r == 1:
        return x
    # integer Newton from 2^ceil(bits/r) > x^(1/r); decreases to the floor root
    k = 1 << -(-x.bit_length() // r)
    while True:
        nxt = ((r - 1) * k + x // k ** (r - 1)) // r
        if nxt >= k:
            return k
        k = nxt


def _generates(g: int, p: int, radicals) -> bool:
    # g generates F_p^* iff g^((p-1)/q) != 1 for every prime q | p - 1
    return all(pow(g, (p - 1) // q, p) != 1 for q in radicals)


def find_primitive_root(p: int) -> int:
    """Smallest primitive root mod p (1 for p = 2)."""
    if not is_prime(p):
        raise DomainError("%d is not prime" % p)
    radicals = set(factorize(p - 1))
    return next(g for g in range(1, p) if _generates(g, p, radicals))


@lru_cache(maxsize=256)
def _root_plan(p: int, e: int):
    # (e^-1 mod s, h, zeta, the Pohlig-Hellman parts) for prime p and
    # e | p - 1: see PrimeFieldCtx.extract_roots.  Only e is factored, and
    # the plan holds O(log p) ints, none of the e roots of 1.
    qs = set(factorize(e))
    m = 1
    for q in qs:
        while (p - 1) % (m * q) == 0:
            m *= q
    s = (p - 1) // m
    h = pow(next(c for c in range(1, p) if _generates(c, p, qs)), s, p)
    zeta, he, m1 = pow(h, m // e, p), pow(h, e, p), m // e
    # the log of r modulo each q^k || m1, digit by digit: (zeta^(e/q), m1/q^k,
    # digits, CRT coefficient) for each q; a digit lies in
    # <h^(m/q)> = <zeta^(e/q)>, the q-th roots of 1
    parts = []
    for q in qs:
        qk = 1
        while m1 % (qk * q) == 0:
            qk *= q
        if qk == 1:
            continue
        digits, hinv, qi = [], pow(he, -(m1 // qk), p), 1  # (exponent, hq^-qi, qi)
        while qi < qk:
            digits.append((qk // (qi * q), hinv, qi))
            hinv, qi = pow(hinv, q, p), qi * q
        parts.append((pow(zeta, e // q, p), m1 // qk, tuple(digits),
                      m1 // qk * pow(m1 // qk, -1, qk)))
    return pow(e, -1, s), h, zeta, tuple(parts)


class PrimeFieldCtx:
    """Arithmetic context for F_p: a checked prime modulus.

    The constructor checks only that p is a prime below 2^62, so a context
    never factors p - 1.  Root plans depend on (p, e) alone and are kept
    once per process, not per context (`_root_plan`).  Field elements are
    plain ints in [0, p).
    """

    __slots__ = ("p",)

    def __init__(self, p: int):
        if not isinstance(p, int) or not is_prime(p):
            raise DomainError("modulus must be prime")
        if p >= MAX_MODULUS:
            raise DomainError("modulus must be below 2^62")
        self.p = p

    # ---------- subgroups and roots ----------

    def subgroup_elements(self, order: int) -> tuple[int, ...]:
        """All solutions of x^order = 1, sorted ascending: the roots of 1, so
        charged and planned as every root walk is."""
        return self.extract_roots(1, order)

    def extract_roots(self, value: int, e: int, index_multiple: int = 1) -> tuple[int, ...]:
        """All y with y^e = value whose index is a multiple of index_multiple.

        value has e-th roots exactly when value^((p-1)/e) = 1, and then it has
        e of them.  One root y comes without a full discrete log: write
        p - 1 = m*s, where m holds exactly the primes of e, so e is invertible
        mod s.  y0 = value^(e^-1 mod s) is a root up to r = value / y0^e,
        which lies in <h^e>, h of order m; its log c to base h^e
        (Pohlig-Hellman over the primes of e, each base-q digit's log found
        by stepping through the q-th roots of 1) gives y = y0 * h^c.  The
        roots are y*zeta^t for t < e, zeta of order e, as a running product;
        the index filter keeps those with y^((p-1)/index_multiple) = 1.
        Everything but y depends on (p, e) only: `_root_plan` builds it on
        the first call in the process at (p, e) that has roots to walk, and
        keeps a bounded number of plans of O(log p) ints each.  value = 0 is
        a domain error because ind 0 is undefined.  Result sorted ascending.
        Walking the e roots is charged e operations against the operation
        budget.
        """
        p = self.p
        if e < 1 or (p - 1) % e != 0:
            raise DomainError("e must divide p - 1")
        n = index_multiple
        if n < 1 or (p - 1) % n != 0:
            raise DomainError("index_multiple must divide p - 1")
        value %= p
        if value == 0:
            raise DomainError("zero has no index")
        if pow(value, (p - 1) // e, p) != 1:
            return ()
        _charge(e)
        einv, h, zeta, parts = _root_plan(p, e)
        y = pow(value, einv, p)
        r = value * pow(y, -e, p) % p
        c = 0
        for w, proj, digits, crt in parts:
            x, cq = pow(r, proj, p), 0
            for exp, hinv, qi in digits:
                # z is a q-th root of 1 (value has e-th roots), so w^j reaches it
                z, wj, j = pow(x, exp, p), 1, 0
                while wj != z:
                    wj, j = wj * w % p, j + 1
                if j:
                    x = x * pow(hinv, j, p) % p
                    cq += j * qi
            c += cq * crt
        y = y * pow(h, c, p) % p
        roots = [y]
        for _ in range(e - 1):
            roots.append(roots[-1] * zeta % p)
        if n > 1:  # y*zeta^t passes when a*b^t = 1
            a, b = pow(y, (p - 1) // n, p), pow(zeta, (p - 1) // n, p)
            kept = []
            for v in roots:
                if a == 1:
                    kept.append(v)
                a = a * b % p
            roots = kept
        roots.sort()
        return tuple(roots)
