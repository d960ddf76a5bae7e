"""Exact arithmetic in prime fields: contexts, subgroups, e-th roots, and the
operation budget.

Contexts and root extraction build no table sized by p or sqrt(p).  e-th roots
come from a few modular powers plus a discrete log in the subgroup whose order
holds only the primes of e (Adleman-Manders-Miller, in its Pohlig-Hellman
form).
"""

from __future__ import annotations

import math
import os

MAX_MODULUS = 1 << 62
DEFAULT_BUDGET = 10 ** 8

_MR_WITNESSES = (2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37)


class DomainError(ValueError):
    """Arguments leave the mathematical domain of the operation."""


class BudgetExceededError(RuntimeError):
    """The enumeration would exceed the operation budget."""


def _budget(budget: int | None) -> int:
    # an explicit budget, else POWERPROBE_BUDGET, else DEFAULT_BUDGET
    if budget is not None:
        return budget
    try:
        return int(os.environ.get("POWERPROBE_BUDGET", DEFAULT_BUDGET))
    except ValueError:
        return DEFAULT_BUDGET


def _charge(estimate: int, budget: int | None = None) -> None:
    # refuse, before any of it is done, work estimated above the budget
    if estimate > _budget(budget):
        raise BudgetExceededError("budget: estimated %d ops" % estimate)


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


def _generates(g: int, p: int, radicals) -> bool:
    # g generates F_p^* iff g^((p-1)/q) != 1 for every prime q | p - 1
    return all(pow(g, (p - 1) // q, p) != 1 for q in radicals)


def find_primitive_root(p: int) -> int:
    """Smallest primitive root mod p (1 for p = 2)."""
    if not is_prime(p):
        raise DomainError("%d is not prime" % p)
    radicals = set(factorize(p - 1))
    return next(g for g in range(1, p) if _generates(g, p, radicals))


def _log_prime_order(t: int, gam: int, q: int, p: int) -> int:
    # d in [0, q) with gam^d = t mod p, where gam has prime order q and t lies
    # in <gam>: baby-step giant-step with isqrt(q - 1) + 1 steps of each kind
    m = math.isqrt(q - 1) + 1
    baby: dict[int, int] = {}
    acc = 1
    for j in range(m):
        baby[acc] = j
        acc = acc * gam % p
    giant = pow(acc, -1, p)
    for i in range(m):
        j = baby.get(t)
        if j is not None:
            return i * m + j
        t = t * giant % p
    raise DomainError("discrete log not found")  # unreachable for t in <gam>


class PrimeFieldCtx:
    """Arithmetic context for F_p: prime modulus, primitive root, factored p - 1.

    Field elements are plain ints in [0, p).
    """

    __slots__ = ("p", "g", "factors")

    def __init__(self, p: int, g: int | None = None):
        if not isinstance(p, int) or not is_prime(p):
            raise DomainError("modulus must be prime")
        if p >= MAX_MODULUS:
            raise DomainError("modulus must be below 2^62")
        self.p = p
        self.factors = tuple(factorize(p - 1))
        radicals = set(self.factors)
        if g is None:
            g = next(x for x in range(1, p) if _generates(x, p, radicals))
        elif not 1 <= g < p:
            raise DomainError("primitive root out of range")
        elif not _generates(g, p, radicals):
            raise DomainError("%d is not a primitive root mod %d" % (g, p))
        self.g = g

    def _subgroup_log(self, x: int, order: int) -> int:
        # c in [0, order) with x = h^c, h = g^((p-1)/order); order | p - 1 and
        # x must lie in the subgroup of that order.  Pohlig-Hellman: solve c
        # modulo each prime power q^k || order digit by digit, then CRT.
        p = self.p
        h = pow(self.g, (p - 1) // order, p)
        c, mod = 0, 1
        for q in set(self.factors):
            qk = 1
            while order % (qk * q) == 0:
                qk *= q
            if qk == 1:
                continue
            hq = pow(h, order // qk, p)
            xq = pow(x, order // qk, p)
            gam = pow(hq, qk // q, p)
            cq, qi = 0, 1
            while qi < qk:
                t = pow(xq * pow(hq, -cq, p) % p, qk // (qi * q), p)
                cq += _log_prime_order(t, gam, q, p) * qi
                qi *= q
            c += mod * ((cq - c) * pow(mod, -1, qk) % qk)
            mod *= qk
        return c

    # ---------- subgroups and roots ----------

    def subgroup_generator(self, order: int) -> int:
        if order < 1 or (self.p - 1) % order != 0:
            raise DomainError("order must divide p - 1")
        return pow(self.g, (self.p - 1) // order, self.p)

    def subgroup_elements(self, order: int) -> tuple[int, ...]:
        """All solutions of x^order = 1, sorted ascending."""
        gen = self.subgroup_generator(order)
        elems = [1]
        acc = gen
        while acc != 1:
            elems.append(acc)
            acc = acc * gen % self.p
        return tuple(sorted(elems))

    def extract_roots(self, value: int, e: int, index_multiple: int = 1) -> tuple[int, ...]:
        """All y with y^e = value whose index is a multiple of index_multiple.

        value has e-th roots exactly when value^((p-1)/e) = 1, and then it has
        e of them.  One root y comes without a full discrete log: write
        p - 1 = m*s, where m holds exactly the primes of e, so e is invertible
        mod s.  y0 = value^(e^-1 mod s) is a root up to r = value / y0^e, which
        lies in the order-m subgroup <h>, h = g^s; its log c to base h
        (Pohlig-Hellman over primes <= e) is a multiple of e, and
        y = y0 * h^(c/e).  The roots are y*zeta^t for t < e, zeta of order e;
        the index filter keeps those with y^((p-1)/index_multiple) = 1.
        value = 0 is a domain error because ind 0 is undefined.  Result
        sorted ascending.  Walking the e roots is charged e operations
        against the operation budget.
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
        m = 1
        for q in set(self.factors):
            if e % q == 0:
                while (p - 1) % (m * q) == 0:
                    m *= q
        s = (p - 1) // m
        y = pow(value, pow(e, -1, s), p)
        r = value * pow(y, -e, p) % p
        y = y * pow(self.g, s * (self._subgroup_log(r, m) // e), p) % p
        zeta = self.subgroup_generator(e)
        a, b = pow(y, (p - 1) // n, p), pow(zeta, (p - 1) // n, p)
        roots = []
        for _ in range(e):
            if a == 1:
                roots.append(y)
            y = y * zeta % p
            a = a * b % p
        roots.sort()
        return tuple(roots)
