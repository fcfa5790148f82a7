"""Truncated power series, polynomial/rational-function algebra over the
coefficient field, exact Pade reconstruction, and expansions at 0 and at
infinity.

A truncated series is the list [c_0, ..., c_T] of its known coefficients:
c_k is the coefficient of z^k in an ascending series, or of z^-k in an
expansion at infinity, and every order above T is unknown.

Coefficients may be field elements or matrices over the field; exp/log take
the multiplicative identity explicitly so both cases share code, and run
the logarithmic-derivative recurrences in about T²/2 coefficient products.
The log's recurrence runs one order at a time (``log_terms``), so a caller
that reads only the first orders pays only for those.
Pade reconstruction is one Hankel solve at the full degree budget.  Pade
approximants are unique, and solve_linear pins free unknowns to zero, so
that solve gives the reduced denominator itself; the candidate is verified
against *every* known coefficient before it is accepted — failure returns
None, never a wrong answer.

Linear systems (solve_linear) are solved by Gaussian elimination.  Over
the exact field it runs fraction-free: rows are cleared of denominators to
integer polynomials in q, eliminated forward with Bareiss's exact division
and solved by fraction-free back substitution, so the elimination takes no
gcd until the solution is read off.  It runs on the integer images of the
entries at q = 2^s, with s above a Hadamard bound on the minors, and
decodes only the solution's entries.  The numeric field runs Gauss-Jordan
in the field with largest-magnitude pivoting.
"""

from __future__ import annotations

from ._kernel import _bareiss_solve, _gcd_cofactors, pdiv_exact, pgcd, pmul, psub
from .errors import DomainError
from .linmat import Matrix
from .scalars import ZERO, Scalar, _coerce

__all__ = [
    "series_exp",
    "series_log",
    "log_terms",
    "FPoly",
    "RationalFunction",
    "pade_reconstruct",
    "solve_linear",
]


def _is_zero_entry(x, field):
    if isinstance(x, Matrix):
        return x.is_zero()
    return field.is_zero(x)


def series_exp(coeffs, one, field):
    """exp of an ascending series S = [S_0, ..., S_T] with S_0 = 0.

    E = exp(S) satisfies E' = S' E when the coefficients of S commute, which
    gives E_0 = one and, for n = 1..T,

        E_n = (1/n) Σ_{k=1}^{n} (k·S_k) E_{n-k}

    (Knuth, TAOCP Vol. 2, §4.7; Brent and Kung, J. ACM 25(4), 1978): about
    T²/2 coefficient products, where the power sum Σ S^k/k! takes about
    T³/6.  Each k·S_k is formed once and 1/n is applied once per n, and
    neither factor is applied where it is 1 (k = 1, n = 1).  The
    result is the formal exp only when the S_k commute pairwise.  With
    S_k on the left, as in series_log, series_exp(series_log(S)) == S holds
    for every S with constant term one, commuting or not, exactly over the
    exact field.  ``one`` is the multiplicative identity of the
    coefficients (a Scalar or an identity matrix) and ``field`` their field.
    """
    if not coeffs or not _is_zero_entry(coeffs[0], field):
        raise DomainError("series_exp needs zero constant term")
    # ks[0] = S_0 is never read
    ks = [field.from_int(k) * v if k > 1 else v for k, v in enumerate(coeffs)]
    e = [one]
    for n in range(1, len(coeffs)):
        # the k = n term is k·S_k times E_0 = one
        acc = ks[n]
        for k in range(1, n):
            acc = acc + ks[k] * e[n - k]
        e.append(field.from_fraction(1, n) * acc if n > 1 else acc)
    return e


def log_terms(coeff, field):
    """The coefficients L_1, L_2, ... of L = log(1 + D), one per ``next``.

    ``series_log``'s recurrence run one order at a time: the n-th ``next``
    calls ``coeff(n)`` once for D_n and returns L_n after n - 1 coefficient
    products, so a caller that stops at order m never makes D_n or L_n for
    n > m.  L_1 = D_1, with no factor n or 1/n.
    """
    d = {1: coeff(1)}
    kl = {1: d[1]}  # k·L_k
    yield d[1]
    n = 1
    while True:
        n += 1
        d[n] = coeff(n)
        acc = field.from_int(n) * d[n]
        for k, v in kl.items():
            acc = acc - v * d[n - k]
        kl[n] = acc
        yield field.from_fraction(1, n) * acc


def series_log(coeffs, one, field):
    """log of an ascending series S = [one, D_1, ..., D_T].

    L = log(S) satisfies S' = L' S when the coefficients of S commute, which
    gives L_0 = 0 and, for n = 1..T, the recurrence of ``log_terms``

        L_n = D_n - (1/n) Σ_{k=1}^{n-1} (k·L_k) D_{n-k}

    (Knuth, TAOCP Vol. 2, §4.7; Brent and Kung, J. ACM 25(4), 1978): about
    T²/2 coefficient products, where the power sum Σ ±D^k/k takes about
    T³/6.  The recurrence keeps k·L_k and applies 1/n once per n.  The
    result is the formal log only when the D_k commute pairwise; with L_k
    on the left, series_exp(series_log(S)) == S holds for every S, exactly
    over the exact field.  ``one`` is the multiplicative identity of the
    coefficients (a Scalar or an identity matrix) and ``field`` their field.
    """
    if not coeffs or not _is_zero_entry(coeffs[0] - one, field):
        raise DomainError("series_log needs constant term 1")
    terms = log_terms(coeffs.__getitem__, field)
    return [one - one] + [next(terms) for _ in coeffs[1:]]


# -- polynomials and rational functions over the field --------------------------


def _zprimitive(zp):
    """Divide a z-polynomial with integer-polynomial coefficients by the
    gcd of its coefficients (any unit is acceptable to the callers)."""
    g = []
    quo = []  # the coefficients so far over g
    for c in zp:
        if c:
            g, shrink, qc = _gcd_cofactors(g, c)
            if g == [1]:
                return zp
            if shrink != [1]:
                quo = [pmul(x, shrink) if x else [] for x in quo]
            quo.append(qc)
        else:
            quo.append([])
    return quo if g else zp


def _clear_denominators(coeffs):
    """Scalars -> integer polynomials, each multiplied by the lcm of the
    denominators; the list keeps its length and its zeros."""
    den = [1]
    for c in coeffs:
        if c.num:
            den = pdiv_exact(pmul(den, c.den), pgcd(den, c.den))
    return [pmul(c.num, pdiv_exact(den, c.den)) if c.num else [] for c in coeffs]


def _fraction_free(coeffs):
    """Scalar z-coefficients -> primitive integer-polynomial coefficient
    lists with denominators cleared (ascending in z, trimmed)."""
    out = _clear_denominators(coeffs)
    while out and not out[-1]:
        out.pop()
    return _zprimitive(out)


def _zprem(a, b):
    """Pseudo-remainder in z of integer-coefficient z-polynomials: the
    remainder of lead(b)^k * a by b, computed without fractions."""
    db = len(b) - 1
    lb = b[-1]
    r = list(a)
    while len(r) - 1 >= db:
        lc = r.pop()
        if not lc:
            continue
        k = len(r) - db
        r = [pmul(x, lb) if x else [] for x in r]
        for j in range(db):
            r[k + j] = psub(r[k + j], pmul(b[j], lc))
    while r and not r[-1]:
        r.pop()
    return r


class FPoly:
    """Polynomial in z with coefficients in the field, ascending list."""

    __slots__ = ("coeffs", "field")

    def __init__(self, coeffs, field):
        coeffs = list(coeffs)
        while coeffs and field.is_zero(coeffs[-1]):
            coeffs.pop()
        self.coeffs = coeffs
        self.field = field

    @classmethod
    def one(cls, field):
        return cls([field.one], field)

    @property
    def degree(self):
        return len(self.coeffs) - 1

    def is_zero(self):
        return not self.coeffs

    def coeff(self, k):
        if 0 <= k < len(self.coeffs):
            return self.coeffs[k]
        return self.field.zero

    def __add__(self, other):
        n = max(len(self.coeffs), len(other.coeffs))
        return FPoly(
            [self.coeff(k) + other.coeff(k) for k in range(n)], self.field
        )

    def __sub__(self, other):
        n = max(len(self.coeffs), len(other.coeffs))
        return FPoly(
            [self.coeff(k) - other.coeff(k) for k in range(n)], self.field
        )

    def __neg__(self):
        return FPoly([-c for c in self.coeffs], self.field)

    def __mul__(self, other):
        if not isinstance(other, FPoly):
            return self.scale(other)
        if self.is_zero() or other.is_zero():
            return FPoly([], self.field)
        out = [self.field.zero] * (len(self.coeffs) + len(other.coeffs) - 1)
        for i, a in enumerate(self.coeffs):
            if _nonzero(a, self.field):
                for j, b in enumerate(other.coeffs):
                    out[i + j] = out[i + j] + a * b
        return FPoly(out, self.field)

    __rmul__ = __mul__

    def scale(self, c):
        return FPoly([c * a for a in self.coeffs], self.field)

    def divmod(self, other):
        if other.is_zero():
            raise DomainError("polynomial division by zero")
        rem = list(self.coeffs)
        q = [self.field.zero] * max(len(rem) - len(other.coeffs) + 1, 0)
        d = other.degree
        lead = other.coeffs[-1]
        for k in range(len(rem) - 1 - d, -1, -1):
            c = rem[k + d]
            if _nonzero(c, self.field):
                f = c / lead
                q[k] = f
                for j, b in enumerate(other.coeffs):
                    rem[k + j] = rem[k + j] - f * b
        return FPoly(q, self.field), FPoly(rem, self.field)

    def gcd(self, other):
        """The monic gcd over Q(q); a numeric field is refused."""
        if not self.field.exact:
            raise DomainError(f"FPoly.gcd is exact only, not over {self.field!r}")
        # Fraction-free primitive remainder sequence: naive Euclid over the
        # fraction field blows up through cross-gcds on every division step.
        a = _fraction_free(self.coeffs)
        b = _fraction_free(other.coeffs)
        if len(a) < len(b):
            a, b = b, a
        while b:
            a, b = b, _zprimitive(_zprem(a, b))
        if not a:
            return FPoly([], self.field)
        g = FPoly([Scalar._raw(c, [1]) for c in a], self.field)
        return g.scale(self.field.one / g.coeffs[-1])

    def eval(self, x):
        acc = self.field.zero
        for c in reversed(self.coeffs):
            acc = acc * x + c
        return acc

    def scale_z(self, alpha):
        """p(alpha z)."""
        out, p = [], self.field.one
        for c in self.coeffs:
            out.append(c * p)
            p = p * alpha
        return FPoly(out, self.field)

    def reverse(self, d=None):
        """z^d p(1/z) for d >= deg p (default deg p)."""
        if self.is_zero():
            return FPoly([], self.field)
        if d is None:
            d = self.degree
        if d < self.degree:
            raise DomainError("reverse degree below polynomial degree")
        out = [self.field.zero] * (d + 1)
        for k, c in enumerate(self.coeffs):
            out[d - k] = c
        return FPoly(out, self.field)

    def shift(self, m):
        return FPoly([self.field.zero] * m + self.coeffs, self.field)

    def __eq__(self, other):
        if not isinstance(other, FPoly):
            return NotImplemented
        n = max(len(self.coeffs), len(other.coeffs))
        return all(
            self.field.eq(self.coeff(k), other.coeff(k)) for k in range(n)
        )

    def __str__(self):
        return _zpoly_str(self.coeffs)

    def __repr__(self):
        return f"FPoly({self})"

    def coeff_strings(self):
        return [str(c) for c in self.coeffs]


def _nonzero(c, field):
    return not field.is_zero(c)


def _zpoly_str(coeffs):
    if not coeffs:
        return "0"
    parts = []
    for k, c in enumerate(coeffs):
        cs = str(c)
        if cs == "0":
            continue
        if k == 0:
            parts.append(cs)
            continue
        zpow = "z" if k == 1 else f"z^{k}"
        if cs == "1":
            parts.append(zpow)
        elif cs == "-1":
            parts.append(f"-{zpow}")
        elif any(ch in cs[1:] for ch in "+-") and not cs.startswith("("):
            parts.append(f"({cs})*{zpow}")
        else:
            parts.append(f"{cs}*{zpow}")
    if not parts:
        return "0"
    out = parts[0]
    for p in parts[1:]:
        out += p if p.startswith("-") else "+" + p
    return out


class RationalFunction:
    """num/den over the field, normalised: gcd removed (exact backend) and
    the lowest nonzero denominator coefficient scaled to 1."""

    __slots__ = ("num", "den", "field")

    def __init__(self, num: FPoly, den: FPoly):
        if den.is_zero():
            raise DomainError("zero denominator")
        if num.field.exact and not num.is_zero():
            g = num.gcd(den)
            if g.degree > 0:
                num = num.divmod(g)[0]
                den = den.divmod(g)[0]
        self._set_pivot(num, den)

    @classmethod
    def _coprime(cls, num: FPoly, den: FPoly) -> "RationalFunction":
        """num/den for a pair already coprime: the constructor without its
        gcd, which would find degree 0.  Only the pivot is rescaled.

        The callers map the coprime parts of a normalised function by maps
        that keep gcd(num, den) = 1 over Q(q)[z], or know the pair coprime:
        * p(z) -> p(alpha z) is a ring automorphism for alpha != 0; alpha = 0
          leaves the constants num(0), den(0), and a constant pair is coprime
          (a zero den(0) is refused here as by the constructor);
        * (num, den) -> (den, num) swaps the pair;
        * p -> z^d p(1/z), d = max(deg num, deg den): the reversals of
          coprime num, den are coprime (a common factor g has g(0) != 0,
          so its reversal would divide both), and the extra powers of z
          multiply only the part of lower degree, while the other part
          keeps a nonzero constant term;
        * pade_reconstruct returns its candidate only once it is verified,
          and a verified candidate is the reduced P/Q itself (see there).
        A zero numerator is never reduced by the constructor either.
        """
        if den.is_zero():
            raise DomainError("zero denominator")
        rf = cls.__new__(cls)
        rf._set_pivot(num, den)
        return rf

    def _set_pivot(self, num: FPoly, den: FPoly):
        """Store num/den scaled so the lowest nonzero den coefficient is 1."""
        field = num.field
        pivot = None
        for c in den.coeffs:
            if _nonzero(c, field):
                pivot = c
                break
        inv = field.one / pivot
        self.num = num.scale(inv)
        self.den = den.scale(inv)
        self.field = field

    @classmethod
    def constant(cls, c, field):
        return cls(FPoly([c], field), FPoly.one(field))

    def __mul__(self, other):
        if not isinstance(other, RationalFunction):
            other = RationalFunction.constant(other, self.field)
        return RationalFunction(self.num * other.num, self.den * other.den)

    def __truediv__(self, other):
        if not isinstance(other, RationalFunction):
            other = RationalFunction.constant(other, self.field)
        if other.num.is_zero():
            raise DomainError("dividing by the zero rational function")
        return RationalFunction(self.num * other.den, self.den * other.num)

    def __add__(self, other):
        if not isinstance(other, RationalFunction):
            other = RationalFunction.constant(other, self.field)
        return RationalFunction(
            self.num * other.den + other.num * self.den, self.den * other.den
        )

    def __sub__(self, other):
        if not isinstance(other, RationalFunction):
            other = RationalFunction.constant(other, self.field)
        return RationalFunction(
            self.num * other.den - other.num * self.den, self.den * other.den
        )

    def __eq__(self, other):
        """Equality of the cross products num * other.den and other.num * den:
        exact over Q(q); on an inexact field their difference must vanish
        at the scale of their largest coefficient."""
        if not isinstance(other, RationalFunction):
            return NotImplemented
        lhs, rhs = self.num * other.den, other.num * self.den
        f = self.field
        if f.exact:
            return lhs == rhs
        scale = max([abs(c) for c in lhs.coeffs + rhs.coeffs] + [1.0])
        return all(f.is_zero(c, scale=scale) for c in (lhs - rhs).coeffs)

    def is_zero(self):
        return self.num.is_zero()

    def eval(self, x):
        dv = self.den.eval(x)
        if self.field.is_zero(dv):
            raise DomainError("evaluation at a pole")
        return self.num.eval(x) / dv

    def scale_z(self, alpha):
        return RationalFunction._coprime(self.num.scale_z(alpha), self.den.scale_z(alpha))

    def inv_z(self):
        """f(1/z) as a rational function of z."""
        d = max(self.num.degree, self.den.degree, 0)
        return RationalFunction._coprime(self.num.reverse(d), self.den.reverse(d))

    def inv(self):
        if self.num.is_zero():
            raise DomainError("inverting the zero rational function")
        return RationalFunction._coprime(self.den, self.num)

    def expand_at_zero(self, T):
        """[c_0, ..., c_T]: the coefficients of z^0..z^T of the expansion."""
        d0 = self.den.coeff(0)
        if self.field.is_zero(d0):
            raise DomainError("pole at z = 0")
        inv = self.field.one / d0
        out = []
        for k in range(0, T + 1):
            acc = self.num.coeff(k)
            for i in range(0, k):
                acc = acc - out[i] * self.den.coeff(k - i)
            out.append(acc * inv)
        return out

    def expand_at_infinity(self, T):
        """[c_0, ..., c_T]: the coefficients of z^0..z^-T of the expansion
        in z^-1, which is the expansion of f(1/z) at zero.  Only a function
        with deg num <= deg den has one; any other is refused."""
        if self.num.degree > self.den.degree:
            raise DomainError(
                f"expand_at_infinity needs deg num <= deg den, got "
                f"deg num = {self.num.degree} and deg den = {self.den.degree}"
            )
        return self.inv_z().expand_at_zero(T)

    def __str__(self):
        if self.den == FPoly.one(self.field):
            return str(self.num)
        return f"({self.num})/({self.den})"

    def __repr__(self):
        return f"RationalFunction({self})"


# -- exact linear solving and Pade reconstruction --------------------------------


def solve_linear(rows, rhs, field):
    """One solution of rows·x = rhs (free variables pinned to zero), or None.

    Exact fields eliminate fraction-free over ZZ[q] (see
    _solve_fraction_free); the numeric field runs Gauss-Jordan in the
    field itself and pivots on the largest magnitude.  Every row must have as
    many entries as the first, and rhs one entry per row, else DomainError.
    """
    m = len(rows)
    n = len(rows[0]) if m else 0
    if len(rhs) != m:
        raise DomainError(f"solve_linear: {m} rows but {len(rhs)} right-hand sides")
    for i, row in enumerate(rows):
        if len(row) != n:
            raise DomainError(
                f"solve_linear: row {i} has {len(row)} entries, expected {n}"
            )
    if field.exact:
        return _solve_fraction_free(rows, rhs, n)
    a = [list(r) + [v] for r, v in zip(rows, rhs)]
    piv_cols = []
    r = 0
    for c in range(n):
        if r == m:
            break
        piv = max(range(r, m), key=lambda i: abs(a[i][c]))
        if field.is_zero(a[piv][c]):
            continue
        a[r], a[piv] = a[piv], a[r]
        inv = field.one / a[r][c]
        a[r] = [x * inv for x in a[r]]
        for i in range(m):
            if i != r and _nonzero(a[i][c], field):
                f = a[i][c]
                a[i] = [x - f * y for x, y in zip(a[i], a[r])]
        piv_cols.append(c)
        r += 1
    # consistency: zero rows must have zero rhs
    for i in range(r, m):
        scale = max([abs(v) for v in a[i][:n]] + [1.0])
        if not field.is_zero(a[i][n], scale=scale):
            return None
    x = [field.zero] * n
    for i, c in enumerate(piv_cols):
        x[c] = a[i][n]
    return x


def _solve_fraction_free(rows, rhs, n):
    """Exact branch of solve_linear: Bareiss's fraction-free elimination
    over ZZ[q] with fraction-free back substitution, run on integer images
    (_kernel._bareiss_solve).

    Each augmented row is scaled to a primitive integer-polynomial row,
    which leaves its equation's solutions unchanged.  The kernel eliminates
    on the rows' values at q = 2^s, in slots above the Hadamard bound of
    their minors, and decodes each unknown's Cramer numerator and the
    common denominator.  A column is a pivot column exactly when it is
    independent of the columns before it, whichever rows serve as pivots,
    and with the free unknowns at 0 the pivot unknowns are determined, so
    x[c] = num / den is the same Scalar that Gauss-Jordan over Q(q) gives.
    """
    a = [_zprimitive(_clear_denominators([_coerce(v) for v in (*row, b)]))
         for row, b in zip(rows, rhs)]
    solved = _bareiss_solve(a, n)
    if solved is None:
        return None
    x = [ZERO] * n
    for c, num, den in solved:
        x[c] = Scalar(num, den)
    return x


def pade_reconstruct(coeffs, max_num_deg: int, max_den_deg: int, field):
    """The rational function of degrees <= (m, n) = (max_num_deg,
    max_den_deg) that matches every known coefficient of the ascending
    scalar series ``coeffs`` = [c_0, ..., c_T], in lowest terms with
    den(0) = 1, or None.

    One Hankel solve at the full budget: unknowns r_1..r_n, r_0 = 1, with

        sum_{i=0..n} r_i c_{k-i} = 0    for k = m+1 .. m+n,

    and num_k = sum_{i=0..min(k, n)} r_i c_{k-i} for k = 0..m.  Padé
    approximants are unique (Baker and Graves-Morris, *Padé Approximants*,
    1996): if c agrees to order m + n with P/Q, coprime, Q(0) = 1, of
    degrees (a, b) <= (m, n), then D·P - N·Q vanishes to order m + n and
    has degree at most m + n, so the solutions D are exactly Q·w with
    w(0) = 1 and deg w <= d = min(n - b, m - a).  Eliminating columns left
    to right, the free unknowns are the top coefficients of z^j·Q,
    r_{b+1}..r_{b+d}; Q has them zero, so the solution solve_linear gives,
    with free unknowns pinned to zero, is D = Q itself, and N = P.  The
    candidate is accepted only if its expansion reproduces every known
    coefficient (within the field's tolerance at their scale on an
    inexact field); one that does is P/Q, already coprime, so it skips the
    constructor's gcd.
    """
    m, n = max_num_deg, max_den_deg
    for name, bound in (("max_num_deg", m), ("max_den_deg", n)):
        if bound < 0:
            raise DomainError(f"pade_reconstruct: {name} = {bound} is negative")
    c = coeffs
    T = len(c) - 1
    if T < m + n + 1:
        raise DomainError(f"window T={T} too small for degrees ({m},{n})")
    r = [field.one]
    if n:
        rows = [[c[k - i] if k >= i else field.zero for i in range(1, n + 1)]
                for k in range(m + 1, m + n + 1)]
        sol = solve_linear(rows, [-c[k] for k in range(m + 1, m + n + 1)], field)
        if sol is None:
            return None
        r += sol
    num = []
    for k in range(m + 1):
        acc = field.zero
        for i in range(min(k, n) + 1):
            acc = acc + r[i] * c[k - i]
        num.append(acc)
    cand = RationalFunction._coprime(FPoly(num, field), FPoly(r, field))
    scale = 1.0 if field.exact else max([abs(v) for v in c] + [1.0])
    exp = cand.expand_at_zero(T)
    if all(field.is_zero(x - y, scale) for x, y in zip(exp, c)):
        return cand
    return None
