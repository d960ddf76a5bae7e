"""Polynomials, rational functions and bivariate polynomials over F_p.

Coefficient lists run low to high; the zero polynomial has an empty
coefficient tuple.  All types are immutable and kept in canonical form.
"""

from __future__ import annotations

import math

from .ff_core import DomainError, PrimeFieldCtx, _charge


class DegenerateResultantError(DomainError):
    """The two-variable resultant vanished identically."""


# ---------- raw coefficient-list helpers ----------

def _trim(c: list[int]) -> list[int]:
    while c and c[-1] == 0:
        c.pop()
    return c


def _add(a, b, p):
    n = max(len(a), len(b))
    out = [0] * n
    for i, x in enumerate(a):
        out[i] = x
    for i, x in enumerate(b):
        out[i] = (out[i] + x) % p
    return _trim(out)


def _mul(a, b, p):
    if not a or not b:
        return []
    out = [0] * (len(a) + len(b) - 1)
    for i, x in enumerate(a):
        if x:
            for j, y in enumerate(b):
                out[i + j] = (out[i + j] + x * y) % p
    return _trim(out)


def _scale(a, c, p):
    c %= p
    if c == 0:
        return []
    return _trim([x * c % p for x in a])


def _divmod(a, b, p):
    if not b:
        raise DomainError("division by zero polynomial")
    a = list(a)
    q = [0] * max(0, len(a) - len(b) + 1)
    inv_lead = pow(b[-1], -1, p)
    for k in range(len(a) - len(b), -1, -1):
        c = a[k + len(b) - 1] * inv_lead % p
        if c:
            q[k] = c
            for i, y in enumerate(b):
                a[k + i] = (a[k + i] - c * y) % p
    return q and _trim(q) or [], _trim(a)


def _eval(a, x, p):
    acc = 0
    for c in reversed(a):
        acc = (acc * x + c) % p
    return acc


class Poly:
    """Univariate polynomial over F_p, canonical (no trailing zeros)."""

    __slots__ = ("p", "coeffs")

    def __init__(self, p: int, coeffs=()):  # coeffs low to high
        self.p = p
        self.coeffs = tuple(_trim([c % p for c in coeffs]))

    @classmethod
    def zero(cls, p):
        return cls(p, ())

    @classmethod
    def one(cls, p):
        return cls(p, (1,))

    @classmethod
    def x(cls, p):
        return cls(p, (0, 1))

    @classmethod
    def from_roots(cls, p, roots) -> "Poly":
        """Monic product of (X - r) over the given roots."""
        c = [1]
        for r in roots:
            c = _mul(c, [(-r) % p, 1], p)
        return cls(p, c)

    @property
    def degree(self) -> int:
        return len(self.coeffs) - 1  # -1 for the zero polynomial

    @property
    def is_zero(self) -> bool:
        return not self.coeffs

    @property
    def leading(self) -> int:
        if not self.coeffs:
            raise DomainError("zero polynomial has no leading coefficient")
        return self.coeffs[-1]

    @property
    def is_monic(self) -> bool:
        return bool(self.coeffs) and self.coeffs[-1] == 1

    def monic(self) -> "Poly":
        if self.is_zero:
            raise DomainError("cannot normalize the zero polynomial")
        if self.is_monic:
            return self
        return Poly(self.p, _scale(list(self.coeffs), pow(self.leading, -1, self.p), self.p))

    def _check(self, other):
        if self.p != other.p:
            raise DomainError("mixed moduli")

    def __add__(self, other):
        if isinstance(other, int):
            other = Poly(self.p, (other,))
        self._check(other)
        return Poly(self.p, _add(list(self.coeffs), list(other.coeffs), self.p))

    def __sub__(self, other):
        if isinstance(other, int):
            other = Poly(self.p, (other,))
        self._check(other)
        return Poly(self.p, _add(list(self.coeffs), _scale(other.coeffs, -1, self.p), self.p))

    def __neg__(self):
        return Poly(self.p, _scale(list(self.coeffs), -1, self.p))

    def __mul__(self, other):
        if isinstance(other, int):
            return Poly(self.p, _scale(list(self.coeffs), other, self.p))
        self._check(other)
        return Poly(self.p, _mul(list(self.coeffs), list(other.coeffs), self.p))

    __rmul__ = __mul__

    def __pow__(self, k: int):
        if k < 0:
            raise DomainError("negative polynomial power")
        out = Poly.one(self.p)
        base = self
        while k:
            if k & 1:
                out = out * base
            k >>= 1
            if k:
                base = base * base
        return out

    def __divmod__(self, other):
        self._check(other)
        q, r = _divmod(list(self.coeffs), list(other.coeffs), self.p)
        return Poly(self.p, q), Poly(self.p, r)

    def __floordiv__(self, other):
        return divmod(self, other)[0]

    def __mod__(self, other):
        return divmod(self, other)[1]

    def __call__(self, x: int) -> int:
        return _eval(self.coeffs, x, self.p)

    def shift(self, a: int) -> "Poly":
        """Composition with X + a, i.e. the polynomial X -> self(X + a)."""
        p = self.p
        out: list[int] = []
        for c in reversed(self.coeffs):
            out = _mul(out, [a % p, 1], p)
            out = _add(out, [c], p)
        return Poly(p, out)

    def derivative(self) -> "Poly":
        p = self.p
        return Poly(p, [i * c % p for i, c in enumerate(self.coeffs)][1:])

    def __eq__(self, other):
        return isinstance(other, Poly) and self.p == other.p and self.coeffs == other.coeffs

    def __hash__(self):
        return hash((self.p, self.coeffs))

    def __repr__(self):
        return "Poly(%d, %s)" % (self.p, list(self.coeffs))


def poly_gcd(f: Poly, g: Poly) -> Poly:
    """Monic gcd; gcd with the zero polynomial is the other argument, monic."""
    f._check(g)
    p = f.p
    a, b = list(f.coeffs), list(g.coeffs)
    if not a and not b:
        raise DomainError("gcd(0, 0) undefined")
    _charge(len(a) * len(b))  # the Euclidean loop's O(deg f deg g) operations
    while b:
        a, b = b, _divmod(a, b, p)[1]
    return Poly(p, _scale(a, pow(a[-1], -1, p), p))


# ---------- interpolation ----------

def _synth_div(c, x, p):
    # divide by (X - x); exact when x is a root
    out = [0] * (len(c) - 1)
    acc = 0
    for i in range(len(c) - 1, 0, -1):
        acc = (acc * x + c[i]) % p
        out[i - 1] = acc
    return out


def _lagrange_rows(xs, p):
    # coefficients of each L_i = m / ((X - x_i) m'(x_i)), m = prod (X - x_j), lazily
    if len(set(xs)) != len(xs):
        raise DomainError("interpolation nodes must be distinct")
    m = Poly.from_roots(p, xs).coeffs
    dm = [i * c % p for i, c in enumerate(m)][1:]
    return (_scale(_synth_div(m, x, p), pow(_eval(dm, x, p), -1, p), p) for x in xs)


def _combine(rows, ys, p):
    # coefficients of sum y_i L_i, padded to len(ys), adding each row as it comes
    acc = [0] * len(ys)
    for y, row in zip(ys, rows):
        if y:
            for i, v in enumerate(row):
                acc[i] += y * v
    return [c % p for c in acc]


def lagrange_interpolate(p: int, points) -> Poly:
    """Unique polynomial of degree < len(points) through the given (x, y) pairs."""
    xs = [x % p for x, _ in points]
    ys = [y % p for _, y in points]
    if not xs:
        raise DomainError("need at least one point")
    return Poly(p, _combine(_lagrange_rows(xs, p), ys, p))


# ---------- square-free structure ----------

def is_square_free(f: Poly) -> bool:
    """gcd(f, f') is constant; requires deg f < p so the derivative test is valid."""
    if f.is_zero:
        raise DomainError("zero polynomial")
    if f.degree >= f.p:
        raise DomainError("degree must stay below the modulus")
    if f.degree == 0:
        return True
    return poly_gcd(f, f.derivative()).degree == 0


def _draw_monic(rng, p: int, d: int, tries: int, square_free: bool = False,
                avoid_roots=()) -> Poly:
    # the first of up to `tries` seeded monic degree-d draws that meets the constraints
    for _ in range(tries):
        f = Poly(p, [rng.randrange(p) for _ in range(d)] + [1])
        if square_free and not is_square_free(f):
            continue
        if avoid_roots and any(f(x) == 0 for x in avoid_roots):
            continue
        return f
    raise DomainError("constraints unsatisfiable after %d draws" % tries)


def square_free_decomposition(f: Poly) -> list[tuple[Poly, int]]:
    """Monic square-free parts with multiplicities, ascending; needs deg f < p."""
    if f.is_zero:
        raise DomainError("zero polynomial")
    if f.degree >= f.p:
        raise DomainError("degree must stay below the modulus")
    f = f.monic()
    if f.degree == 0:
        return []
    df = f.derivative()
    a = poly_gcd(f, df)
    if a.degree == 0:
        return [(f, 1)]
    out = []
    b = f // a
    c = df // a
    d = c - b.derivative()
    i = 1
    while b.degree > 0:
        ai = poly_gcd(b, d) if not d.is_zero else b
        if ai.degree > 0:
            out.append((ai, i))
        b = b // ai
        c = d // ai
        d = c - b.derivative()
        i += 1
    return out


def poly_power_root(f: Poly, k: int) -> Poly:
    """The monic k-th root of a monic polynomial that is a perfect k-th power."""
    if k < 1:
        raise DomainError("k must be positive")
    if not f.is_monic:
        raise DomainError("expected a monic polynomial")
    if k == 1 or f.degree == 0:
        return f
    root = Poly.one(f.p)
    for part, mult in square_free_decomposition(f):
        if mult % k:
            raise DomainError("not a perfect %d-th power" % k)
        root = root * part ** (mult // k)
    if root ** k != f:
        raise DomainError("not a perfect %d-th power" % k)
    return root


# ---------- rational functions ----------

class RationalFn:
    """Reduced fraction of polynomials over F_p with monic denominator."""

    __slots__ = ("num", "den")

    def __init__(self, num: Poly, den: Poly | None = None):
        if den is None:
            den = Poly.one(num.p)
        num._check(den)
        if den.is_zero:
            raise DomainError("zero denominator")
        if num.is_zero:
            self.num = num
            self.den = Poly.one(num.p)
            return
        g = poly_gcd(num, den)
        if g.degree > 0:
            num, den = num // g, den // g
        c = pow(den.leading, -1, num.p)
        self.num = num * c
        self.den = den * c

    @property
    def p(self) -> int:
        return self.num.p

    @property
    def degree(self) -> int:
        return max(self.num.degree, self.den.degree)

    @property
    def is_constant(self) -> bool:
        return self.num.degree <= 0 and self.den.degree <= 0

    def eval_at(self, x: int) -> int | None:
        """Value at x, or None at a pole."""
        d = self.den(x)
        if d == 0:
            return None
        return self.num(x) * pow(d, -1, self.p) % self.p

    def __mul__(self, other: "RationalFn") -> "RationalFn":
        return RationalFn(self.num * other.num, self.den * other.den)

    def __pow__(self, k: int) -> "RationalFn":
        if k < 0:
            raise DomainError("negative rational power")
        return RationalFn(self.num ** k, self.den ** k)

    def __eq__(self, other):
        return (isinstance(other, RationalFn) and self.num == other.num
                and self.den == other.den)

    def __hash__(self):
        return hash((self.num, self.den))

    def __repr__(self):
        return "RationalFn(%r, %r)" % (self.num, self.den)


def _general_roots(ctx: PrimeFieldCtx, value: int, k: int) -> tuple[int, ...]:
    # all y with y^k = value for arbitrary k >= 1 (k need not divide p - 1):
    # with g = gcd(k, p - 1) and t = (k/g)^-1 mod (p-1)/g, these exist iff
    # value^((p-1)/g) = 1, and then they are the g-th roots of value^t
    p = ctx.p
    if value % p == 0:
        return (0,)
    g = math.gcd(k, p - 1)
    if pow(value, (p - 1) // g, p) != 1:
        return ()
    t = pow(k // g, -1, (p - 1) // g)
    return ctx.extract_roots(pow(value, t, p), g)


def perfect_power_decompose(rfn: RationalFn, ctx: PrimeFieldCtx | None = None) -> tuple[RationalFn, int]:
    """Write a nonconstant rational function as phi**k with k maximal.

    k = 1 means the input is not a nontrivial perfect power.  Both degrees
    must stay below p.  k divides both degrees, so when they are coprime the
    input itself is returned with k = 1.  Otherwise the structural part of k
    comes from the gcd of all multiplicities in the square-free
    decompositions of numerator and denominator; the leading coefficient must
    itself be a k-th power, and the smallest such root is used for phi.
    As soon as that gcd is 1 (already from the numerator alone when its
    multiplicities are coprime, e.g. when it is square-free) the input itself
    is returned with k = 1.
    """
    if rfn.is_constant:
        raise DomainError("constant rational function")
    p = rfn.p
    if ctx is None:
        ctx = PrimeFieldCtx(p)
    if rfn.degree >= p:
        raise DomainError("degree must stay below the modulus")
    if math.gcd(rfn.num.degree, rfn.den.degree) == 1:
        return rfn, 1

    def layers(poly):
        if poly.degree <= 0:
            return 0, []
        dec = square_free_decomposition(poly)
        k = 0
        for _, mult in dec:
            k = math.gcd(k, mult)
        return k, dec

    lead = rfn.num.leading
    kn, dec_n = layers(rfn.num)
    if kn == 1:
        return rfn, 1
    kd, dec_d = layers(rfn.den)
    k_struct = math.gcd(kn, kd)
    for k in range(k_struct, 1, -1):
        if k_struct % k:
            continue
        scalar_roots = _general_roots(ctx, lead, k)
        if not scalar_roots:
            continue
        num = Poly(p, (scalar_roots[0],))
        for part, mult in dec_n:
            num = num * part ** (mult // k)
        den = Poly.one(p)
        for part, mult in dec_d:
            den = den * part ** (mult // k)
        phi = RationalFn(num, den)
        if phi ** k == rfn:
            return phi, k
    return rfn, 1


# ---------- bivariate polynomials ----------

class BiPoly:
    """Dense bivariate polynomial over F_p; rows index U powers, columns V powers."""

    __slots__ = ("p", "rows")

    def __init__(self, p: int, rows=()):
        width = max((len(r) for r in rows), default=0)
        grid = [[c % p for c in r] + [0] * (width - len(r)) for r in rows]
        while grid and all(c == 0 for c in grid[-1]):
            grid.pop()
        while grid and all(r[-1] == 0 for r in grid):
            for r in grid:
                r.pop()
        self.p = p
        self.rows = tuple(tuple(r) for r in grid)

    @classmethod
    def from_terms(cls, p: int, terms: dict) -> "BiPoly":
        if not terms:
            return cls(p, ())
        du = max(i for i, _ in terms)
        dv = max(j for _, j in terms)
        rows = [[0] * (dv + 1) for _ in range(du + 1)]
        for (i, j), c in terms.items():
            rows[i][j] = c % p
        return cls(p, rows)

    @property
    def is_zero(self) -> bool:
        return not self.rows

    @property
    def deg_u(self) -> int:
        return len(self.rows) - 1

    @property
    def deg_v(self) -> int:
        return len(self.rows[0]) - 1 if self.rows else -1

    @property
    def total_degree(self) -> int:
        best = -1
        for i, row in enumerate(self.rows):
            for j, c in enumerate(row):
                if c and i + j > best:
                    best = i + j
        return best

    def terms(self) -> dict:
        return {(i, j): c for i, row in enumerate(self.rows)
                for j, c in enumerate(row) if c}

    def __call__(self, u: int, v: int) -> int:
        p = self.p
        acc = 0
        for row in reversed(self.rows):
            inner = 0
            for c in reversed(row):
                inner = (inner * v + c) % p
            acc = (acc * u + inner) % p
        return acc

    def __mul__(self, other: "BiPoly") -> "BiPoly":
        if self.p != other.p:
            raise DomainError("mixed moduli")
        out: dict = {}
        for (i, j), c in self.terms().items():
            for (k, l), d in other.terms().items():
                key = (i + k, j + l)
                out[key] = (out.get(key, 0) + c * d) % self.p
        return BiPoly.from_terms(self.p, out)

    def __sub__(self, other: "BiPoly") -> "BiPoly":
        if self.p != other.p:
            raise DomainError("mixed moduli")
        out = self.terms()
        for key, c in other.terms().items():
            out[key] = (out.get(key, 0) - c) % self.p
        return BiPoly.from_terms(self.p, out)

    def __eq__(self, other):
        return isinstance(other, BiPoly) and self.p == other.p and self.rows == other.rows

    def __hash__(self):
        return hash((self.p, self.rows))

    def __repr__(self):
        return "BiPoly(%d, %s)" % (self.p, [list(r) for r in self.rows])


def sylvester_resultant(pc, qc, m: int, n: int, p: int) -> int:
    """Resultant of two coefficient vectors at stated degrees m and n.

    pc and qc run low to high and are padded to lengths m + 1 and n + 1;
    leading entries may be zero, the matrix keeps its stated shape either way
    so the value agrees with specializing a symbolic resultant.
    """
    pc = list(pc) + [0] * (m + 1 - len(pc))
    qc = list(qc) + [0] * (n + 1 - len(qc))
    size = m + n
    if size == 0:
        return 1
    mat = []
    rp = [pc[m - k] % p for k in range(m + 1)]  # high to low
    rq = [qc[n - k] % p for k in range(n + 1)]
    for i in range(n):
        mat.append([0] * i + rp + [0] * (size - m - 1 - i))
    for i in range(m):
        mat.append([0] * i + rq + [0] * (size - n - 1 - i))
    det = 1
    for col in range(size):
        piv = None
        for r in range(col, size):
            if mat[r][col]:
                piv = r
                break
        if piv is None:
            return 0
        if piv != col:
            mat[col], mat[piv] = mat[piv], mat[col]
            det = -det % p
        det = det * mat[col][col] % p
        inv = pow(mat[col][col], -1, p)
        for r in range(col + 1, size):
            if mat[r][col]:
                factor = mat[r][col] * inv % p
                row = mat[r]
                base = mat[col]
                for c in range(col, size):
                    row[c] = (row[c] - factor * base[c]) % p
    return det % p


def resultant_shifted(f: Poly, g: Poly, a: int) -> BiPoly:
    """Eliminate X from (f(X) - U g(X), f(X+a) - V g(X+a)).

    Computed by specializing (U, V) on a grid, taking univariate resultants at
    the stated degree, and rebuilding the bivariate polynomial by tensor
    interpolation.  Requires p > (deg_U + 1)(deg_V + 1) grid points and a != 0.
    An identically zero resultant is rejected rather than returned.
    """
    f._check(g)
    p = f.p
    if a % p == 0:
        raise DomainError("shift must be nonzero")
    d = max(f.degree, g.degree)
    if d < 1:
        raise DomainError("f and g must not both be constant")
    if p <= (d + 1) * (d + 1):
        raise DomainError("modulus too small for the evaluation grid")
    fa, ga = f.shift(a), g.shift(a)

    def padded(poly):
        return list(poly.coeffs) + [0] * (d + 1 - len(poly.coeffs))

    fc, gc, fac, gac = padded(f), padded(g), padded(fa), padded(ga)
    nodes = list(range(d + 1))
    basis = list(_lagrange_rows(nodes, p))  # built once, used 2(d + 1) times
    specs_v = [[(fac[k] - v * gac[k]) % p for k in range(d + 1)] for v in nodes]
    vals = []
    for u in nodes:
        spec_u = [(fc[k] - u * gc[k]) % p for k in range(d + 1)]
        vals.append([sylvester_resultant(spec_u, spec_v, d, d, p) for spec_v in specs_v])
    # interpolate along V for each grid row, then along U per V-coefficient
    vpolys = [_combine(basis, row, p) for row in vals]
    cols = [_combine(basis, col, p) for col in zip(*vpolys)]
    out = BiPoly(p, list(zip(*cols)))
    if out.is_zero:
        raise DegenerateResultantError("resultant is identically zero")
    return out


# ---------- torsion divisors ----------

def _grlex_key(t):
    return (t[0] + t[1], t[0])


def _binomial_divides(terms: dict, t1, c1, t2, c2, p: int) -> dict | None:
    # divide by c1*U^t1*V^t1' + c2*U^t2*V^t2' where t1 is the graded-lex lead;
    # returns the quotient terms or None when a remainder appears
    rem = dict(terms)
    quo: dict = {}
    inv1 = pow(c1, -1, p)
    while rem:
        lead = max(rem, key=_grlex_key)
        if lead[0] < t1[0] or lead[1] < t1[1]:
            return None
        q = (lead[0] - t1[0], lead[1] - t1[1])
        qc = rem[lead] * inv1 % p
        quo[q] = (quo.get(q, 0) + qc) % p
        for t, c in ((t1, c1), (t2, c2)):
            key = (t[0] + q[0], t[1] + q[1])
            nv = (rem.get(key, 0) - qc * c) % p
            if nv:
                rem[key] = nv
            else:
                rem.pop(key, None)
    return quo


def divisible_by_torsion(F: BiPoly) -> tuple[bool, BiPoly | None]:
    """Test divisibility by a binomial a*U^m*V^n + b or a*U^m + b*V^n.

    Exhaustive over exponents bounded by the bidegree of F and over the
    normalized constant; returns the witness divisor when one divides F.
    The (du+1)(dv+1) + du*dv exponent pairs times p - 1 constants times
    |terms| are charged against the operation budget before the first.
    """
    if F.is_zero:
        raise DomainError("zero polynomial")
    p = F.p
    terms = F.terms()
    du, dv = F.deg_u, F.deg_v
    _charge(((du + 1) * (dv + 1) + du * dv) * (p - 1) * len(terms))
    for m in range(du + 1):
        for n in range(dv + 1):
            if m == 0 and n == 0:
                continue
            for c in range(1, p):
                if _binomial_divides(terms, (m, n), 1, (0, 0), c, p) is not None:
                    return True, BiPoly.from_terms(p, {(m, n): 1, (0, 0): c})
    for m in range(1, du + 1):
        for n in range(1, dv + 1):
            lead, trail = ((m, 0), (0, n)) if _grlex_key((m, 0)) > _grlex_key((0, n)) else ((0, n), (m, 0))
            for c in range(1, p):
                coeffs = {(m, 0): 1, (0, n): c}
                if _binomial_divides(terms, lead, coeffs[lead], trail, coeffs[trail], p) is not None:
                    return True, BiPoly.from_terms(p, coeffs)
    return False, None
