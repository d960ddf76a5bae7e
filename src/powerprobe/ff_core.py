"""Exact arithmetic in prime fields: contexts, discrete logs, subgroups, e-th roots."""

from __future__ import annotations

import math
from dataclasses import dataclass

MAX_MODULUS = 1 << 62

_MR_WITNESSES = (2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37)

# dlog tables are precomputed below this modulus, BSGS is used above it
_TABLE_LIMIT = 1 << 20


class DomainError(ValueError):
    """Arguments leave the mathematical domain of the operation."""


def is_prime(n: int) -> bool:
    """Deterministic Miller-Rabin, exact for n < 3.3e24."""
    if n < 2:
        return False
    for q in _MR_WITNESSES:
        if n % q == 0:
            return n == q
    d = n - 1
    s = 0
    while d % 2 == 0:
        d //= 2
        s += 1
    for a in _MR_WITNESSES:
        x = pow(a, d, n)
        if x == 1 or x == n - 1:
            continue
        for _ in range(s - 1):
            x = x * x % n
            if x == n - 1:
                break
        else:
            return False
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


def find_primitive_root(p: int) -> int:
    """Smallest primitive root mod p (1 for p = 2)."""
    if not is_prime(p):
        raise DomainError("%d is not prime" % p)
    if p == 2:
        return 1
    radicals = sorted(set(factorize(p - 1)))
    for g in range(2, p):
        if all(pow(g, (p - 1) // q, p) != 1 for q in radicals):
            return g
    raise DomainError("no primitive root found")  # unreachable for prime p


@dataclass(frozen=True)
class SubgroupSpec:
    """Multiplicative subgroup of F_p^* of the given order."""

    order: int
    generator: int
    elements: tuple[int, ...]


class PrimeFieldCtx:
    """Arithmetic context for F_p: prime modulus, primitive root, factored p - 1.

    Field elements are plain ints in [0, p).  Indices (discrete logs) are ints
    in [1, p - 1] with ind 1 = p - 1.
    """

    __slots__ = ("p", "g", "factors", "_dlog", "_baby")

    def __init__(self, p: int, g: int | None = None):
        if not isinstance(p, int) or not is_prime(p):
            raise DomainError("modulus must be prime")
        if p >= MAX_MODULUS:
            raise DomainError("modulus must be below 2^62")
        self.p = p
        self.factors = tuple(factorize(p - 1)) if p > 2 else ()
        if g is None:
            g = find_primitive_root(p)
        else:
            if not 1 <= g < p:
                raise DomainError("primitive root out of range")
            radicals = set(self.factors)
            if p > 2 and any(pow(g, (p - 1) // q, p) == 1 for q in radicals):
                raise DomainError("%d is not a primitive root mod %d" % (g, p))
        self.g = g
        self._baby = None
        if p < _TABLE_LIMIT:
            tbl = [0] * p
            acc = 1
            for i in range(1, p):
                acc = acc * g % p
                tbl[acc] = i
            self._dlog = tbl
        else:
            self._dlog = None

    # ---------- basic arithmetic ----------

    def add_mod(self, a: int, b: int) -> int:
        return (a + b) % self.p

    def sub_mod(self, a: int, b: int) -> int:
        return (a - b) % self.p

    def mul_mod(self, a: int, b: int) -> int:
        return a * b % self.p

    def inv_mod(self, a: int) -> int:
        if a % self.p == 0:
            raise DomainError("inverse of zero")
        return pow(a, -1, self.p)

    def pow_mod(self, a: int, k: int) -> int:
        if k < 0 and a % self.p == 0:
            raise DomainError("negative power of zero")
        return pow(a, k, self.p)

    # ---------- discrete logs ----------

    def discrete_log(self, x: int) -> int:
        """Index of x to base g, normalized to [1, p - 1]; ind 1 = p - 1."""
        p = self.p
        x %= p
        if x == 0:
            raise DomainError("index of zero undefined")
        if p == 2:
            return 1
        if self._dlog is not None:
            return self._dlog[x]
        return self._bsgs(x)

    def _bsgs(self, x: int) -> int:
        p, g = self.p, self.g
        if self._baby is None:
            m = math.isqrt(p - 1) + 1
            tbl: dict[int, int] = {}
            acc = 1
            for j in range(m):
                tbl.setdefault(acc, j)
                acc = acc * g % p
            self._baby = (m, tbl, pow(g, -m, p))
        m, tbl, gim = self._baby
        gamma = x
        for i in range(m + 1):
            j = tbl.get(gamma)
            if j is not None:
                z = (i * m + j) % (p - 1)
                return z if z else p - 1
            gamma = gamma * gim % p
        raise DomainError("discrete log not found")  # unreachable for x in F_p^*

    # ---------- subgroups and roots ----------

    def subgroup_generator(self, order: int) -> int:
        if order < 1 or (self.p - 1) % order != 0:
            raise DomainError("order must divide p - 1")
        return pow(self.g, (self.p - 1) // order, self.p)

    def subgroup(self, order: int) -> SubgroupSpec:
        gen = self.subgroup_generator(order)
        elems = [1]
        acc = gen
        while acc != 1:
            elems.append(acc)
            acc = acc * gen % self.p
        return SubgroupSpec(order, gen, tuple(sorted(elems)))

    def subgroup_elements(self, order: int) -> tuple[int, ...]:
        """All solutions of x^order = 1, sorted ascending."""
        return self.subgroup(order).elements

    def extract_roots(self, value: int, e: int, index_multiple: int = 1,
                      allow_zero: bool = False) -> tuple[int, ...]:
        """All y with y^e = value whose index is a multiple of index_multiple.

        Solves e*z = ind(value) mod p - 1; there are exactly e solutions when
        e divides ind(value) and none otherwise, and the index filter keeps
        those with index_multiple | z.  value = 0 yields (0,) only when the
        index filter is trivial and allow_zero is set; otherwise it is a
        domain error because ind 0 is undefined.  Result sorted ascending.
        """
        p = self.p
        if e < 1 or (p - 1) % e != 0:
            raise DomainError("e must divide p - 1")
        n = index_multiple
        if n < 1 or (p - 1) % n != 0:
            raise DomainError("index_multiple must divide p - 1")
        if value % p == 0:
            if allow_zero and n == 1:
                return (0,)
            raise DomainError("zero has no index; roots of 0 need allow_zero and trivial filter")
        za = self.discrete_log(value)
        if za % e != 0:
            return ()
        q = (p - 1) // e
        z0 = za // e
        roots = []
        for t in range(e):
            z = (z0 + t * q) % (p - 1)
            if z == 0:
                z = p - 1
            if z % n == 0:
                roots.append(pow(self.g, z, p))
        roots.sort()
        return tuple(roots)
