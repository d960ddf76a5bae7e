"""Identity testing and interpolation against e-th power oracles.

The interpolation pipeline follows three steps: collect answers on a short
window and pick shifted query pairs whose answer ratios admit an e-th root with
the right index congruence, enumerate the candidate polynomials consistent with
every pair from the e-th roots of their ratios, then filter candidates down to
one via extra points and a square-free check.  A pair keeps its answer ratio A,
and admits every e-th root of A, so it always admits the true ratio
f(x)/f(x+h), and step 2 returns every f the pairs admit.  With an honest oracle
a candidate that alone matches the extra points is therefore the hidden f, and
only two or more such candidates are told apart by an identity scan.
`interpolate` checks the winner against every answer it received, so a
dishonest oracle gets a typed error or a consistent f.

With n = 1, step 1 first asks x = 0..k, k the fewest pairs k >= d + 1 with
e^k < p^(k-d), at most 2d (`_chain_pairs`), and asks the rest of x = 0..2d
only when an answer there is zero or a ratio fails the index test.

Step 2 extracts roots only for the pairs it enumerates, after its charge
against the operation budget (BudgetExceededError).  A chain of pairs at
x_0, x_0 + h, ... is solved in value space by meet-in-the-middle over the
vanishing (d+1)-th finite difference: a table of e^m choices for the first
m = (d+1)//2 pairs, probed by a stream over the rest, so about
e^ceil((d+1)/2) work, charged in full before the first root (by `interpolate`
before step 1's first query).  Any other group takes the basis walk, with
pencil rows w - y*u and a line solve at rank d-1, about e^(d-1) nodes, which
prunes and so charges as it goes.
"""

from __future__ import annotations

import time
from dataclasses import dataclass, field
from fractions import Fraction
from math import comb, gcd
from operator import mul

from .ff_core import (MAX_MODULUS, BudgetExceededError, DomainError, PrimeFieldCtx, _budget,
                      _charge, iroot)
from .oracle import CachingOracle, PowerOracle
from .poly_algebra import Poly, is_square_free, lagrange_interpolate, poly_power_root


# most entries of the chain solve's table, whatever the operation budget: an
# entry takes about 120 bytes ((1155, 3) at p = 2^61 - 1 holds 1.33M of them
# in 160 MB), so a table stays below about 250 MB
CHAIN_TABLE_CAP = 1 << 21


class AlgorithmError(RuntimeError):
    """Runtime failure of an algorithm (as opposed to bad arguments)."""


class WindowEmptyError(DomainError):
    pass


class NoValidMError(DomainError):
    pass


class DishonestOracleError(AlgorithmError):
    """Oracle answers are impossible for any monic polynomial of the stated degree."""


class InconsistentOracleError(AlgorithmError):
    """No candidate survived filtering."""


class AmbiguousCandidatesError(AlgorithmError):
    """More than one candidate survived filtering."""

    def __init__(self, msg, survivors=()):
        super().__init__(msg)
        self.survivors = list(survivors)


# ---------- query window ----------

@dataclass(frozen=True)
class WindowParams:
    """Identity-test window: H points for degree d, the tuning constant, and
    diagnostics."""

    H: int
    c1: Fraction
    cap: int
    cond_ed_holds: bool
    branch_ratio: int
    branch_root: int
    d: int


def _as_fraction(c) -> Fraction:
    if isinstance(c, float):
        return Fraction(str(c))
    return Fraction(c)


def regime_condition_holds(p: int, e: int, d: int, c=1) -> bool:
    """Exact check of e <= c * min(p d^(-3/2), p^(3/2) d^(-7/2)), by squaring
    when c > 0 (for c <= 0 the right side is not positive, so it fails)."""
    c = _as_fraction(c)
    num, den = c.numerator, c.denominator
    return num > 0 and (e * e * d ** 3 * den * den <= num * num * p * p
                        and e * e * d ** 7 * den * den <= num * num * p ** 3)


def compute_window(p: int, e: int, d: int, c1=1) -> WindowParams:
    """Window size H = min(p - 1, max(floor(c1 d^3 e^2 / p), floor(c1 (d^7 e^2)^(1/3)))).

    All arithmetic is exact (rational c1, integer cube root), so the floors are
    never off by one.  The cap p - 1 is reported as `cap`.  Also reports
    whether the regime condition e <= c1 * min(p d^(-3/2), p^(3/2) d^(-7/2))
    holds.
    """
    if p < 2 or e < 1 or d < 1:
        raise DomainError("need p >= 2, e >= 1, d >= 1")
    c1 = _as_fraction(c1)
    if c1 <= 0:
        raise DomainError("c1 must be positive")
    num, den = c1.numerator, c1.denominator
    b1 = (num * d ** 3 * e ** 2) // (den * p)
    b2 = iroot((num ** 3 * d ** 7 * e ** 2) // den ** 3, 3)
    H = min(p - 1, max(b1, b2))
    if H < 1:
        raise WindowEmptyError("window empty; increase c1 or shrink e")
    return WindowParams(H=H, c1=c1, cap=p - 1,
                        cond_ed_holds=regime_condition_holds(p, e, d, c1),
                        branch_ratio=b1, branch_root=b2, d=d)


# ---------- identity testing ----------

@dataclass(frozen=True)
class IdentityVerdict:
    different: bool
    witness: int | None
    queries: int
    window: WindowParams

    @property
    def name(self) -> str:
        return "different" if self.different else "indistinguishable_on_window"


def _scan_end(window: WindowParams, e: int) -> int:
    # powers of degree <= d*e that agree on d*e + 1 points are equal
    return min(window.H, window.d * e + 1)


def identity_test(oracle_f: PowerOracle, oracle_g: PowerOracle,
                  window: WindowParams) -> IdentityVerdict:
    """Compare two oracles on x = 1..min(H, d*e + 1); the first mismatch is
    the witness.

    Promise: both oracles answer e-th powers of polynomials of degree at
    most `window.d`.  Then f^e - g^e has degree at most d*e, so the first
    mismatch on 1..H, if any, is at x <= d*e + 1: verdict and witness are
    those of a scan of all of 1..H, and equal answers on d*e + 1 <= H points
    prove f^e = g^e.  Off the promise (say a replayed transcript that
    matches on 1..d*e + 1 and differs later) the verdict may be
    indistinguishable where the whole window holds a witness.

    Uses at most 2T queries, T = min(H, d*e + 1), and charges their 2T(d+1)
    field operations against the operation budget before the first.  A
    Different verdict is sound: the two recorded answers differ.
    """
    if oracle_f.p != oracle_g.p or oracle_f.e != oracle_g.e:
        raise DomainError("oracles must share p and e")
    if window.H >= oracle_f.p:
        raise DomainError("window exceeds the field")
    end = _scan_end(window, oracle_f.e)
    _charge(2 * end * (window.d + 1))
    for x in range(1, end + 1):
        if oracle_f.query(x) != oracle_g.query(x):
            return IdentityVerdict(True, x, 2 * x, window)
    return IdentityVerdict(False, None, 2 * end, window)


# ---------- interpolation: step 1 ----------

@dataclass(frozen=True)
class Pair:
    """Query pair (x, x+h), h that of its group, with its adjusted answer
    ratio A = f(x)^e / f(x+h)^e: the pair admits a ratio v when v != 0 and
    v^e = A, so its roots are every e-th root of A."""

    x: int
    ratio: int


@dataclass(frozen=True)
class PairGroup:
    h: int
    e: int
    pairs: tuple[Pair, ...]


@dataclass
class Step1Result:
    n: int
    range_top: int
    zeros: tuple[int, ...]
    d_rem: int
    known_factor: Poly
    adjusted: dict
    groups: tuple[PairGroup, ...]


def _chain_pairs(p: int, e: int, d: int) -> int:
    """Pairs k of step 1's short chain: the fewest k >= d + 1 with
    e^k < p^(k-d), and never more than 2d.

    Pairs 0..d fix the chain solve's candidates; each further pair keeps a
    wrong chain with chance about e/p, so about e^k / p^(k-d) wrong chains
    are left after k pairs, below one at this k.
    """
    k = d + 1
    while k < 2 * d and e ** k >= p ** (k - d):
        k += 1
    return k


def step1_collect(oracle: PowerOracle, d: int, n: int = 1) -> Step1Result:
    """Query x = 0..k (n = 1) or x = 0..(2d-1)n^2+n and assemble shifted
    pairs with their ratios.

    With n = 1, x = 0..k is asked first, k = `_chain_pairs(p, e, d)`, which
    depends on (p, e, d) only.  When no answer there is zero and every ratio
    passes the index test below, the k pairs (x, x+1) form the one group and
    range_top is k.  Otherwise the rest of x = 0..(2d-1)n^2+n is asked and
    the pairs are picked as follows.

    Zero answers are roots of the hidden polynomial; they are divided out and
    the pair search runs at the reduced degree over the same window.  Blocks
    [i n, (i+1) n] for i = 0..(2d-1)n are scanned, for the shifts h = 1..n in
    turn, for the first pair (x, x+h) whose adjusted answer ratio A has an
    e-th root y with y^((p-1)/n) = 1, that is A^((p-1)/gcd(n e, p-1)) = 1.
    That pair keeps its ratio A, whose e-th roots include the true ratio
    f(x)/f(x+h); no root is extracted here.  The first shift with 2*d_rem
    such blocks gives the one group.
    """
    p, e = oracle.p, oracle.e
    if d < 1:
        raise DomainError("d must be positive")
    if n < 1 or (p - 1) % n != 0:
        raise DomainError("n must divide p - 1")
    top = (2 * d - 1) * n * n + n
    if top >= p:
        raise DomainError("query range must fit below p")
    if p >= MAX_MODULUS:  # step 2's PrimeFieldCtx refuses it: refuse before any query
        raise DomainError("modulus must be below 2^62")
    index = (p - 1) // gcd(n * e, p - 1)
    answers: dict[int, int] = {}
    if n == 1:  # a short chain, unless f has a root on it
        k = _chain_pairs(p, e, d)
        answers = {x: oracle.query(x) for x in range(k + 1)}
        if all(answers.values()):
            ratios = [answers[x] * pow(answers[x + 1], -1, p) % p for x in range(k)]
            if all(pow(r, index, p) == 1 for r in ratios):
                return Step1Result(1, k, (), d, Poly.one(p), answers,
                                   (PairGroup(1, e, tuple(map(Pair, range(k), ratios))),))
    for x in range(len(answers), top + 1):
        answers[x] = oracle.query(x)
    zeros = tuple(sorted(x for x, a in answers.items() if a == 0))
    if len(zeros) > d:
        raise DishonestOracleError("more zero answers than the degree allows")
    d_rem = d - len(zeros)
    known = Poly.from_roots(p, zeros)
    adjusted = {x: a * pow(known(x), -e, p) % p for x, a in answers.items() if a}
    if d_rem == 0:
        return Step1Result(n, top, zeros, 0, known, adjusted, ())

    need = 2 * d_rem
    for h in range(1, n + 1):
        pairs: list[Pair] = []
        for i in range((2 * d - 1) * n + 1):
            for x in range(i * n, (i + 1) * n - h + 1):
                if x not in adjusted or x + h not in adjusted:
                    continue
                ratio = adjusted[x] * pow(adjusted[x + h], -1, p) % p
                if pow(ratio, index, p) == 1:
                    pairs.append(Pair(x, ratio))
                    break
            if len(pairs) == need:
                return Step1Result(n, top, zeros, d_rem, known, adjusted,
                                   (PairGroup(h, e, tuple(pairs)),))
    raise DishonestOracleError("no shift has enough supported blocks")


# ---------- interpolation: step 2 ----------

@dataclass
class RankLog:
    """Dichotomy bookkeeping for the step 2 walk.

    One event per basis-walk node, or per table entry and probing leaf of a
    chain solve.  At a node below rank d-1 the pair's rows form
    the pencil w - y*u; if two or more roots y keep the rank consistently,
    both u and w must already reduce to zero against the basis (then every y
    keeps it).  The pencil makes this hold by construction, so the count of
    violations is a cheap consistency check that stays 0.
    """

    events: int = 0
    violations: int = 0


@dataclass
class CandidateSet:
    polys: list[Poly]
    rank: RankLog


def _reduce_row(row, basis, p):
    row = list(row)
    for pivot, brow in basis:
        f = row[pivot]
        if f:
            row = [(a - f * b) % p for a, b in zip(row, brow)]
    return row


def _extend_basis(basis, row, pivot, p):
    inv = pow(row[pivot], -1, p)
    row = [c * inv % p for c in row]
    out = []
    for pv, br in basis:
        f = br[pivot]
        if f:
            br = [(a - f * b) % p for a, b in zip(br, row)]
        out.append((pv, br))
    out.append((pivot, row))
    out.sort()
    return out


def _line_points(basis, rest, d, p):
    """Points of the line left by a rank d-1 basis where every pair in rest
    has its ratio among its roots.

    The basis leaves the line c0 + t*c1, i.e. f_t = F0 + t*F1.  For a pair
    (x, x+h) put A, B = F0(x), F1(x) and C, D = F0(x+h), F1(x+h).  Root y
    holds at the one t = (yC - A)/(B - yD) when B - yD != 0, and on the whole
    line when B - yD = yC - A = 0.  The first pair with no whole-line root
    gives at most e values of t; each is checked against every other pair
    with one division and one lookup in its root set.  When every pair has a
    whole-line root, no pair pins t down and nothing is emitted.
    """
    pivots = {pv for pv, _ in basis}
    free = next(k for k in range(d) if k not in pivots)
    c0, c1 = [0] * d, [0] * d
    c1[free] = 1
    for pv, row in basis:
        c0[pv], c1[pv] = row[d], -row[free] % p
    lines = {}

    def line(i):  # A, B, C, D and the roots of pair i, evaluated on demand
        if i not in lines:
            u, w, roots, root_set = rest[i]
            lines[i] = ((sum(map(mul, c0, w)) - w[d]) % p, sum(map(mul, c1, w)) % p,
                        (sum(map(mul, c0, u)) - u[d]) % p, sum(map(mul, c1, u)) % p,
                        roots, root_set)
        return lines[i]

    for i in range(len(rest)):
        A, B, C, D, roots, root_set = line(i)
        if D:
            y = B * pow(D, -1, p) % p
            whole = y in root_set and A == y * C % p
        elif B:
            whole = False
        else:
            whole = A * pow(C, -1, p) % p in root_set if C else A == 0
        if whole:
            continue
        others = [k for k in range(len(rest)) if k != i]
        ts = set()
        for y in roots:
            den = (B - y * D) % p
            if not den:
                continue
            t = (y * C - A) * pow(den, -1, p) % p
            for k in others:  # f_t(x)/f_t(x+h) must be one of pair k's roots
                Ak, Bk, Ck, Dk, _, root_set_k = line(k)
                den = (Ck + t * Dk) % p
                if not den or (Ak + t * Bk) * pow(den, -1, p) % p not in root_set_k:
                    break
            else:
                ts.add(t)
        return [tuple((a + t * b) % p for a, b in zip(c0, c1)) + (1,) for t in ts]
    return []


def _chain_cost(e, d):
    # table entries plus probe keys of `_chain_solve`, d + 1 operations each;
    # the table is held in memory, so past CHAIN_TABLE_CAP entries the solve
    # is refused whatever the budget
    m = (d + 1) // 2
    if e ** m > CHAIN_TABLE_CAP:
        raise BudgetExceededError("budget: chain table of %d entries passes %d"
                                  % (e ** m, CHAIN_TABLE_CAP))
    return (e ** m + e ** (d + 1 - m)) * (d + 1)


def _chain_solve(group, d, p, rank_log, limit):
    """Candidates of a chain group, solved in value space by meet-in-the-middle.

    With F_j = f(x_0 + jh), pair k says F_k = y_k F_(k+1), y_k an e-th root of
    its ratio, and a degree-d f has sum_j nu_j F_(s+j) = 0 over j <= d+1,
    nu_j = (-1)^(d+1-j) C(d+1, j).  No F_j is zero: scale F_m = 1 at
    m = (d+1)//2.  The table holds the e^m choices of y_0..y_(m-1), keyed by
    sum_(j<=m) nu_j F_j, each as a packed index (base e digits), collisions in
    side lists.  The stream walks y_m..y_(d-1) depth first, e^(d-m) leaves,
    and at each leaf makes the e keys that y_d needs in one list and meets the
    table in one set operation.  Hits are checked on pairs d+1.. by the
    recurrence and f is read off F_0..F_d by Newton's forward differences
    with one inverse (`_newton_monic`).  The whole
    solve is charged (e^m + e^(d+1-m))(d+1) before any root is extracted, and
    only pairs 0..d have theirs extracted; the others test v^e = A.
    """
    e, m = group.e, (d + 1) // 2
    if _chain_cost(e, d) > limit:
        raise BudgetExceededError("budget: step 2 walk passed %d ops" % limit)
    ctx = PrimeFieldCtx(p)
    # y_j for the table's pairs j < m, and 1/y_j, the roots of 1/A, for the stream's
    roots = [ctx.extract_roots(pr.ratio if j < m else pow(pr.ratio, -1, p), e)
             for j, pr in enumerate(group.pairs[:d + 1])]
    rank_log.events += e ** m + e ** (d - m)
    nu = [(-1) ** (d + 1 - j) * comb(d + 1, j) % p for j in range(d + 2)]
    level = [(1, nu[m], 0)]  # F_j, sum of nu_i F_i over j <= i <= m, digits of y_j..y_(m-1)
    for j in range(m - 1, 0, -1):
        level = [(y * f % p, (s + nu[j] * y * f) % p, idx * e + t)
                 for f, s, idx in level for t, y in enumerate(roots[j])]
    table, more = {}, {}
    for f, s, idx in level:  # y_0 last: its digit is the lowest of the index
        a = nu[0] * f % p
        for i, y in enumerate(roots[0], idx * e):
            k = (s + a * y) % p
            if k in table:
                more.setdefault(k, []).append(i)
            else:
                table[k] = i
    F = [0] * (d + 2)
    found = set()
    stack = [(m, 1, 0)]  # j, F_j, sum of nu_i F_i over m < i <= j
    while stack:
        j, fj, s = stack.pop()
        F[j] = fj
        if j < d:
            stack.extend((j + 1, g, (s + nu[j + 1] * g) % p) for g in [fj * w % p for w in roots[j]])
            continue
        c = -s  # nu_(d+1) = 1: y_d = 1/w holds when the table has -s - F_d w
        probes = [(c - fj * w) % p for w in roots[d]]
        if table.keys().isdisjoint(probes):
            continue
        for w, k in zip(roots[d], probes):
            if k not in table:
                continue
            F[d + 1] = fj * w % p
            for idx in [table[k]] + more.get(k, []):
                vals, f = F[:], 1  # vals[i] holds digit t_i, then F_i, for i < m
                for i in range(m):
                    idx, vals[i] = divmod(idx, e)
                for i in range(m - 1, -1, -1):
                    f = vals[i] = f * roots[i][vals[i]] % p
                for q in range(d + 1, len(group.pairs)):
                    nxt = -sum(map(mul, nu, vals[q - d:])) % p
                    if not nxt or pow(vals[q] * pow(nxt, -1, p), e, p) != group.pairs[q].ratio:
                        break
                    vals.append(nxt)
                else:
                    coeffs = _newton_monic(vals[:d + 1], group.pairs[0].x, group.h, p)
                    if coeffs:  # else f has degree below d
                        found.add(coeffs)
    return found


def _newton_monic(F, x0, h, p):
    """Coefficients, low to high, of the monic f of degree d = len(F) - 1
    with f(x0 + jh) proportional to F_j, or None when the values fit a
    degree below d.

    The d-th forward difference is d! h^d times the leading coefficient of
    the interpolant g (d < p, h != 0), so it is zero exactly when g has
    degree below d.  In Newton form g = sum_k D_k/(k! h^k) prod_(i<k)(x - x_i),
    D_k the k-th difference at x0, and f = g / lead = sum_k c_k/D_d prod, with
    c_k = D_k (d!/k!) h^(d-k): integer weights, expanded by Horner from
    c_d = D_d, then scaled by the one inverse 1/D_d.
    """
    d, D, row = len(F) - 1, [F[0]], F
    for _ in range(d):
        row = [b - a for a, b in zip(row, row[1:])]
        D.append(row[0])
    if not D[d] % p:
        return None
    coeffs, w = [D[d]], 1  # w = (d!/k!) h^(d-k) for the k below
    for k in range(d - 1, -1, -1):
        w = w * (k + 1) * h % p
        xk = x0 + k * h
        # coeffs * (x - xk) + c_k, coefficients high to low
        coeffs = [coeffs[0]] + [(b - xk * a) % p for a, b in zip(coeffs, coeffs[1:])] \
            + [(D[k] * w - xk * coeffs[-1]) % p]
    inv = pow(D[d], -1, p)
    return tuple(c * inv % p for c in reversed(coeffs[1:])) + (1,)


def _pencil_walk(group, d, p, rank_log, limit):
    """Candidates of any group: backtracking over a basis that only
    rank-increasing equations enter, and a line solve at rank d-1
    (`_line_points`).  Root y's row w - y*u reduces to rw - y*ru, so a node
    reduces u and w once; when u reduces to zero, one root stands for all.
    The roots of every pair are extracted before the first node."""
    spent, h, ctx = 0, group.h, PrimeFieldCtx(p)
    pairs = []
    for pr in group.pairs:
        xp = [pow(pr.x, k, p) for k in range(d + 1)]
        hp = [pow(pr.x + h, k, p) for k in range(d + 1)]
        w_vec = xp[:d] + [-xp[d] % p]
        u_vec = hp[:d] + [-hp[d] % p]
        roots = ctx.extract_roots(pr.ratio, group.e)
        pairs.append((u_vec, w_vec, roots, frozenset(roots)))

    found: set[tuple] = set()
    stack = [(0, [])]
    while stack:
        idx, basis = stack.pop()
        rank = len(basis)
        if rank + len(pairs) - idx < d:
            continue
        u_vec, w_vec, roots, _ = pairs[idx]
        spent += (d + 1) * (3 * rank + len(roots))
        if spent > limit:
            raise BudgetExceededError("budget: step 2 walk passed %d ops" % limit)
        rank_log.events += 1
        if rank == d - 1:
            found.update(_line_points(basis, pairs[idx:], d, p))
            continue
        ru, rw = _reduce_row(u_vec, basis, p), _reduce_row(w_vec, basis, p)
        keep = 0
        for y in roots if any(ru) else roots[:1]:
            row = [(a - y * b) % p for a, b in zip(rw, ru)]
            pivot = next((k for k in range(d) if row[k]), None)
            if pivot is not None:
                stack.append((idx + 1, _extend_basis(basis, row, pivot, p)))
            elif not row[d]:
                keep += 1
        rank_log.violations += keep >= 2 and (any(ru) or any(rw))
        if keep:
            stack.append((idx + 1, basis))
    # a pair whose two points are both zeros of f holds for every root; the
    # hidden polynomial never vanishes at a pair point, so such f are dropped
    polys = [Poly(p, c) for c in found]
    return {f.coeffs for f in polys if all(f(pr.x + h) for pr in group.pairs)}


def step2_candidates(group: PairGroup, d: int, p: int,
                     rank_log: RankLog | None = None) -> CandidateSet:
    """Enumerate monic degree-d polynomials from the group's root choices.

    The result is every monic degree-d f that the pair equations
    f(x) = y f(x+h) fix and whose ratio f(x)/f(x+h) is an e-th root of each
    pair's ratio; an f with f(x) = f(x+h) = 0 at some pair is not one of
    them.  A chain, where every pair starts where the one before it ends
    (step 1 with n = 1 unless f has a root in its window), goes to
    `_chain_solve`, a meet-in-the-middle over pairs 0..d in about
    e^ceil((d+1)/2) operations; any other group goes to `_pencil_walk`,
    about e^(d-1) nodes.  Roots are extracted only here, for the pairs that
    a solve enumerates.

    A step-1 group fixes every f it admits, so no f is lost there.  A chain
    of k >= d + 1 pairs fixes f(x_0 + jh), j = 0..k, up to one scale, and a
    monic f of degree d is fixed by d + 1 of its values up to that scale.
    Any other group has 2d pairs at distinct x.  If g != 0 of degree < d had
    the same ratios as f at all of them, g(x)f(x+h) - g(x+h)f(x), of degree
    <= 2d-1, would vanish at 2d points.  Then g/f would be h-periodic, hence
    constant (d < p), hence g = 0.  A group of fewer pairs may leave some f
    unfixed.

    A chain is charged (e^m + e^(d+1-m))(d+1), m = (d+1)//2, before its
    first root, and refused when its table of e^m entries, held in memory,
    would pass CHAIN_TABLE_CAP; a basis-walk node costs about
    (d+1)(3 depth + e), charged as it goes.  Past the operation budget
    (`POWERPROBE_BUDGET`, default DEFAULT_BUDGET) either raises
    BudgetExceededError.  `rank_log.events` counts table entries plus
    probing leaves on a chain, walk nodes otherwise.
    """
    if rank_log is None:
        rank_log = RankLog()
    prs = group.pairs
    chain = len(prs) > d and all(b.x == a.x + group.h for a, b in zip(prs, prs[1:]))
    found = (_chain_solve if chain else _pencil_walk)(group, d, p, rank_log, _budget())
    return CandidateSet([Poly(p, c) for c in sorted(found)], rank_log)


# ---------- interpolation: step 3 ----------

def shifted_condition_holds(p: int, e: int, m: int) -> bool:
    """p >= (2m floor(e^(1/(2m+1))) + 2m + 2) e; vacuously true for m = 0."""
    return m == 0 or p >= (2 * m * iroot(e, 2 * m + 1) + 2 * m + 2) * e


def choose_m(p: int, e: int, m_cap: int = 64) -> int:
    """Smallest m >= 1 with shifted_condition_holds(p, e, m)."""
    for m in range(1, m_cap + 1):
        if shifted_condition_holds(p, e, m):
            return m
    raise NoValidMError("no m <= %d works; p too small relative to e" % m_cap)


@dataclass
class Step3Stats:
    m: int
    filter_top: int
    candidates_in: int
    after_value_filter: int
    survivors: list[Poly] = field(default_factory=list)
    winners: list[Poly] = field(default_factory=list)
    scan_end: int = 0  # last point of the identity scan; 0 when none ran


def step3_filter(candidates: list[Poly], oracle: PowerOracle, d: int,
                 window: WindowParams, m_cap: int = 64) -> tuple[Poly, Step3Stats]:
    """Keep candidates matching the oracle on x = 0..d(m-1)+1 and drop the
    ones that are not square-free; exactly one must be left.

    Precondition: `candidates` holds every monic degree-d f that step 2
    admits (`interpolate` passes them all).  An honest oracle's f is then
    among them and passes the value filter, so when it is the only candidate
    to pass, it is f and no further point is queried.  When two or more
    pass, the square-free ones are compared with the oracle on
    x = 1..min(H, d*e + 1) as `identity_test` would, under one charge.
    """
    p, e = oracle.p, oracle.e
    m = choose_m(p, e, m_cap)
    top = d * (m - 1) + 1
    if top >= p:
        raise DomainError("filter range exceeds the field")
    answers = {x: oracle.query(x) for x in range(top + 1)}
    stage1 = [g for g in candidates
              if all(pow(g(x), e, p) == answers[x] for x in answers)]
    stage2 = [g for g in stage1 if is_square_free(g)]
    stats = Step3Stats(m=m, filter_top=top, candidates_in=len(candidates),
                       after_value_filter=len(stage1), survivors=stage2,
                       winners=stage2)
    if len(stage1) > 1 and stage2:
        if window.H >= p:
            raise DomainError("window exceeds the field")
        stats.scan_end = end = _scan_end(window, e)
        _charge(2 * end * (window.d + 1))
        stats.winners = [g for g in stage2 if all(pow(g(x), e, p) == oracle.query(x)
                                                  for x in range(1, end + 1))]
    if len(stats.winners) == 1:
        return stats.winners[0], stats
    if not stats.winners:
        raise InconsistentOracleError("inconsistent oracle: no candidate survives filtering")
    raise AmbiguousCandidatesError(
        "indistinguishable candidates: %d survive the window" % len(stats.winners),
        stats.winners)


# ---------- full pipeline ----------

@dataclass
class InterpolationResult:
    poly: Poly
    p: int
    e: int
    d: int
    n: int
    query_count: int
    window: WindowParams | None
    m: int | None
    zeros: tuple[int, ...]
    candidates: list[Poly]
    candidates_examined: int
    survivors: int
    rank_events: int
    rank_violations: int
    query_budget: int
    wall_time_ms: float


def interpolate(oracle: PowerOracle, d: int, n: int = 1, c1=1,
                m_cap: int = 64) -> InterpolationResult:
    """Recover the hidden monic degree-d polynomial behind a power oracle.

    Queries are deduplicated internally, so the reported query count is the
    number of distinct points sent to the underlying oracle: step 1's
    x = 0..(2d-1)n^2+n, or with n = 1 only x = 0..k when f has no root there
    (k >= d + 1 the fewest pairs with e^k < p^(k-d), at most 2d), and step
    3's x = 0..d(m-1)+1, so max(k, d(m-1)+1) + 1 points for n = 1 and no
    such root, plus x = 1..min(H, d*e + 1) only when two or more candidates
    match step 3's points.  The winner is checked against every
    answer received, so any oracle gets a typed error or a monic f whose e-th
    powers match all of them.  e = 1 takes the naive route; a NoValidMError
    comes before the first query, and so, with n = 1, does the charge of
    step 2's chain solve.
    """
    t0 = time.perf_counter()
    p, e = oracle.p, oracle.e
    if d < 1:
        raise DomainError("d must be positive")
    memo = oracle if isinstance(oracle, CachingOracle) else CachingOracle(oracle)

    if e == 1:
        if n < 1 or (p - 1) % n != 0:  # as step 1 checks it for e >= 2
            raise DomainError("n must divide p - 1")
        poly = naive_power_interpolate(memo, d)
        ms = (time.perf_counter() - t0) * 1000.0
        return InterpolationResult(poly, p, e, d, n, memo.query_count, None, None,
                                   (), [poly], 1, 1, 0, 0, d + 1, ms)

    window = compute_window(p, e, d, c1)
    choose_m(p, e, m_cap)  # depends on p and e only: refuse before any query
    if n == 1:  # step 1 gives a chain unless f has a root in its window
        _charge(_chain_cost(e, d))
    s1 = step1_collect(memo, d, n)
    rank = RankLog()
    candidates = [s1.known_factor]
    if s1.groups:
        cs = step2_candidates(s1.groups[0], s1.d_rem, p, rank_log=rank)
        candidates = sorted((c * s1.known_factor for c in cs.polys),
                            key=lambda q: q.coeffs)
    winner, s3 = step3_filter(candidates, memo, d, window, m_cap)
    # step 3 matched the winner up to max(filter_top, scan_end), step 1 asked up to range_top
    if any(pow(winner(x), e, p) != memo.query(x)
           for x in range(max(s3.filter_top, s3.scan_end) + 1, s1.range_top + 1)):
        raise InconsistentOracleError("inconsistent oracle: no candidate survives filtering")
    budget = s1.range_top + s3.filter_top + 1 + len(s3.survivors) * s3.scan_end
    ms = (time.perf_counter() - t0) * 1000.0
    return InterpolationResult(winner, p, e, d, n, memo.query_count, window,
                               s3.m, s1.zeros, candidates, len(candidates),
                               len(s3.survivors), rank.events, rank.violations,
                               budget, ms)


def naive_power_interpolate(oracle: PowerOracle, d: int) -> Poly:
    """Reference cross-check: interpolate f^e from d*e+1 points, then take the
    e-th root; only valid when d*e < p.  Its O((d*e)^2) work, (d*e + 1)^2,
    is charged against the operation budget before the first query."""
    p, e = oracle.p, oracle.e
    if d * e + 1 > p:
        raise DomainError("need d*e + 1 distinct points")
    _charge((d * e + 1) ** 2)  # interpolating f^e is O((d*e)^2)
    points = [(x, oracle.query(x)) for x in range(d * e + 1)]
    big = lagrange_interpolate(p, points)
    if big.degree != d * e or not big.is_monic:
        raise InconsistentOracleError("answers do not match a monic power")
    return poly_power_root(big, e)
