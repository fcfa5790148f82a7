"""Realizations of the q-Onsager algebra on certified loop modules.

A realization starts from the pair

    B_i = F_i - c_i E_i K_i^{-1} + s_i K_i^{-1},       i = 0, 1,

acting on a module with Chevalley data.  From (B0, B1) the whole current
family is produced by exact recursions: the two-sided ladder A_r, the
commuting charges H_m and the central coefficients Theta_m together with
their reweighted forms.  Generation uses only the B-matrices; when the
module carries loop-generator matrices they enter solely as an
independent cross-check of the seed pair, never as an input to the
recursion.  All series are truncated, nothing is formally inverted.
"""

from __future__ import annotations

from dataclasses import dataclass

from .errors import ConstructionError, DomainError
from .linmat import Matrix, ProductMemo, _meq, commutator, qbracket
from .loopsl2 import AffineModule, EvalParams, build_evaluation
from .report import CheckReport
from .scalars import ExactField, Scalar, parse_scalar, qbinom, specialize
from .series import (FPoly, RationalFunction, TruncSeries, h_from_theta,
                     pade_reconstruct)


def _as_scalar(x) -> Scalar:
    if isinstance(x, Scalar):
        return x
    if isinstance(x, str):
        return parse_scalar(x)
    if isinstance(x, int):
        return Scalar(x)
    raise DomainError(f"cannot interpret {x!r} as an exact coefficient")


@dataclass
class OnsagerParams:
    """Embedding parameters: nonzero weights c = (c0, c1), shifts s = (s0, s1).

    All four are exact scalars regardless of the computation backend; they
    get mapped through the module's field at generation time.
    """

    c0: Scalar
    c1: Scalar
    s0: Scalar
    s1: Scalar

    def __post_init__(self):
        self.c0 = _as_scalar(self.c0)
        self.c1 = _as_scalar(self.c1)
        self.s0 = _as_scalar(self.s0)
        self.s1 = _as_scalar(self.s1)
        if not self.c0 or not self.c1:
            raise DomainError("parameters c0, c1 must be nonzero")

    @property
    def C(self) -> Scalar:
        """The recursion constant C = q^4 c0 c1."""
        q = parse_scalar("q")
        return q**4 * self.c0 * self.c1

    def with_s_zero(self) -> "OnsagerParams":
        return OnsagerParams(self.c0, self.c1, Scalar(0), Scalar(0))

    def describe(self) -> str:
        return f"c=({self.c0},{self.c1}) s=({self.s0},{self.s1})"


class _Ctx:
    """Field-mapped constants shared by the generators and checkers."""

    __slots__ = ("params", "field", "c0", "c1", "s0", "s1", "C", "Cinv",
                 "q2", "qm2", "kap")

    def __init__(self, params: OnsagerParams, field):
        f = field
        self.params = params
        self.field = f
        self.c0 = f.from_scalar(params.c0)
        self.c1 = f.from_scalar(params.c1)
        self.s0 = f.from_scalar(params.s0)
        self.s1 = f.from_scalar(params.s1)
        self.C = f.from_scalar(params.C)
        self.Cinv = f.one / self.C
        self.q2 = f.q * f.q
        self.qm2 = f.one / self.q2
        self.kap = f.q - f.one / f.q


class OnsagerFamily:
    """The current family generated from one embedded pair (B0, B1).

    ``A[r]`` is defined for -R <= r <= R, ``H[m]`` for 1 <= m <= T and
    ``theta[m]`` for 0 <= m <= T.  ``theta_grave[s]`` carries the
    spectral normalisation (theta_grave[0] is the identity).
    """

    __slots__ = ("module", "params", "field", "B0", "B1", "A", "H", "Hbar1",
                 "theta", "theta_acute", "theta_grave", "T", "R", "I")

    def __init__(self, module, params, field):
        self.module = module
        self.params = params
        self.field = field
        self.B0 = None
        self.B1 = None
        self.A = {}
        self.H = {}
        self.Hbar1 = None
        self.theta = {}
        self.theta_acute = {}
        self.theta_grave = {}
        self.T = 0
        self.R = 0
        self.I = None

    def a(self, r: int) -> Matrix:
        try:
            return self.A[r]
        except KeyError:
            raise DomainError(
                f"A[{r}] not generated (window R={self.R}); raise R"
            ) from None

    def theta_at(self, m: int) -> Matrix:
        """Theta with the index convention: zero below index 0."""
        if m < 0:
            return Matrix.zeros(self.I.n, self.I.n, self.field)
        try:
            return self.theta[m]
        except KeyError:
            raise DomainError(
                f"Theta[{m}] not generated (window T={self.T}); raise T"
            ) from None

    def __repr__(self):
        mod = self.module.describe() if self.module is not None else "?"
        return (f"OnsagerFamily({self.params.describe()} on {mod}, "
                f"R={self.R}, T={self.T})")


# -- embedding -------------------------------------------------------------------


def _seed(M: AffineModule, j: int, c, s) -> Matrix:
    """B_j = F_j - c E_j K_j^-1 + s K_j^-1 on M, with c and s in M's field."""
    return M.F[j] - (M.E[j] @ M.Kcinv[j]).scale(c) + M.Kcinv[j].scale(s)


def eta_embed(p: OnsagerParams, V: AffineModule):
    """The pair (B0, B1) on V, cross-checked against the loop picture.

    On modules that carry loop-generator matrices, the images of the two
    seeds are recomputed from the loop side,

        seed0 = x-_0 - c1 q^2 K^-1 x+_0 + s1 K^-1,
        seed(-1) = -q^-4 c0^-1 K x+_-1 + x-_1 + q^-2 c0^-1 s0 K,

    and compared with B1 and q^-2 c0^-1 B0.  A mismatch means the module
    data is internally inconsistent and raises immediately.
    """
    if not V.E:
        raise DomainError("module carries no Chevalley data")
    f = V.field
    ctx = _Ctx(p, f)
    B = {0: _seed(V, 0, ctx.c0, ctx.s0), 1: _seed(V, 1, ctx.c1, ctx.s1)}

    if V.has_loop_data:
        q2, qm2 = ctx.q2, ctx.qm2
        c0inv = f.one / ctx.c0
        seed0 = V.xm[0] - (V.Kinv @ V.xp[0]).scale(ctx.c1 * q2) \
            + V.Kinv.scale(ctx.s1)
        seedm1 = (V.K @ V.xp[-1]).scale(-(qm2 * qm2) * c0inv) + V.xm[1] \
            + V.K.scale(qm2 * c0inv * ctx.s0)
        ok0, w0 = _meq(B[1], seed0, f)
        ok1, w1 = _meq(B[0].scale(qm2 * c0inv), seedm1, f)
        if not (ok0 and ok1):
            raise ConstructionError(
                "embedded pair disagrees with the loop-side seeds: "
                + (w0 or w1 or "")
            )
    return B[0], B[1]


# -- family generation -----------------------------------------------------------


def _grow_tower(A0: Matrix, Am1: Matrix, H1: Matrix, C, c, T: int, R: int,
                I: Matrix):
    """One node's towers from its seeds A[0], A[-1] and its charge H[1].

    This is the construction shared by rank one and by every finite node
    at rank N; the callers differ only in how they seed and normalise
    H[1].  With Hbar1 = H[1]/[2] the ladder ascends and descends via
    A[r+1] = [Hbar1, A[r]] + C A[r-1], the Theta tower follows the
    two-step rule with the index-0 correction and the node weight c, and
    H[2..T] come from the log of the Theta series.  The acute tower
    multiplies Theta(z) by (1 - q^-2 C z^2)/(1 - C z^2); the grave tower
    rescales it by (q - q^-1) so that index 0 becomes the identity.

    Returns (A, H, Hbar1, theta, theta_acute, theta_grave).
    """
    f = I.field
    q2 = f.q * f.q
    qm2 = f.one / q2
    kap = f.q - f.one / f.q
    Cinv = f.one / C
    Hbar1 = H1.scale(f.one / f.qint(2))

    A = {0: A0, -1: Am1}
    for r in range(0, R):
        A[r + 1] = commutator(Hbar1, A[r]) + A[r - 1].scale(C)
    for r in range(-1, -R, -1):
        A[r - 1] = (A[r + 1] - commutator(Hbar1, A[r])).scale(Cinv)

    theta0 = I.scale(f.one / kap)
    theta = {0: theta0, 1: H1}
    cinv = f.one / c
    for s in range(0, T - 1):
        step = qbracket(A[-1], A[s + 1], qm2) \
            - qbracket(A[0], A[s], q2).scale(qm2)
        acc = theta[s].scale(qm2) + step.scale(cinv)
        if s == 0:
            acc = acc - theta0
        theta[s + 2] = acc.scale(C)

    # For commuting Theta[1..T] the log recurrence gives exactly the formal
    # log.  For Theta that do not commute, the H it returns do not commute
    # either: exp(log(S)) == S holds for any S, so each Theta[n] is a
    # polynomial in H[1..n].  So rel1 (rank one) and grel1 (rank N) still
    # fail a broken tower inside their windows, as h_commute does for the
    # h_k that loopsl2 takes from the same log, and no commutation check is
    # paid here.
    hs = h_from_theta([theta[m] for m in range(1, T + 1)], T, f, I,
                      check_commuting=False)
    H = {1: H1}
    for m in range(2, T + 1):
        H[m] = hs[m - 1]

    acute = {}
    grave = {}
    w = f.one - qm2
    for s in range(0, T + 1):
        acc = theta[s]
        cp = C
        for k in range(1, s // 2 + 1):
            acc = acc + theta[s - 2 * k].scale(w * cp)
            cp = cp * C
        acute[s] = acc
        grave[s] = acc.scale(kap)
    return A, H, Hbar1, theta, acute, grave


def generate_family(p: OnsagerParams, V: AffineModule, T: int = 6,
                    R: int | None = None) -> OnsagerFamily:
    """Generate A_r (|r| <= R), H_m and Theta_m (m <= T) from the seeds.

    The seeds are A[0] = B1 and A[-1] = q^-2 c0^-1 B0, and H[1] is pinned
    by the lowest mixed bracket; the towers then grow by the construction
    shared with every node at rank N (``_grow_tower``), with node weight
    c1.  Default R = 2T keeps every relation check in range.
    """
    if R is None:
        R = 2 * T
    if T < 1 or R < max(1, T - 1):
        raise DomainError(f"need T >= 1 and R >= T - 1, got T={T}, R={R}")
    f = V.field
    ctx = _Ctx(p, f)
    fam = OnsagerFamily(V, p, f)
    fam.T, fam.R = T, R
    fam.I = Matrix.identity(V.dim, f)

    B0, B1 = eta_embed(p, V)
    fam.B0, fam.B1 = B0, B1
    Am1 = B0.scale(ctx.qm2 / ctx.c0)
    H1 = qbracket(Am1, B1, ctx.qm2).scale(ctx.q2 * ctx.q2 * ctx.c0)
    (fam.A, fam.H, fam.Hbar1, fam.theta, fam.theta_acute,
     fam.theta_grave) = _grow_tower(B1, Am1, H1, ctx.C, ctx.c1, T, R, fam.I)
    return fam


# -- presentation checks ---------------------------------------------------------


def verify_qdolangrady(p: OnsagerParams, B0: Matrix, B1: Matrix) -> CheckReport:
    """The q-deformed Dolan-Grady relations for the seed pair."""
    f = B0.field
    ctx = _Ctx(p, f)
    rep = CheckReport("q-Dolan-Grady relations")
    binom = [f.from_scalar(qbinom(3, r)) for r in range(4)]
    two = f.qint(2)
    cvals = (ctx.c0, ctx.c1)
    for (i, j), (Bi, Bj) in (((0, 1), (B0, B1)), ((1, 0), (B1, B0))):
        lhs = Matrix.zeros(B0.n, B0.n, f)
        sign = f.one
        for r in range(4):
            lhs = lhs + ((Bi ** (3 - r)) @ Bj @ (Bi**r)).scale(sign * binom[r])
            sign = -sign
        rhs = commutator(Bi, Bj).scale(-(f.q * cvals[i] * two * two))
        ok, w = _meq(lhs, rhs, f)
        rep.add("qdolangrady", (i, j), ok, w)
    return rep


def _theta_exchange(memo: ProductMemo, A, theta_at, c, C, r: int, s: int):
    """Both sides of the same-node Theta exchange relation at (r, s):

        [A_r, A_{s+1}]_{q^-2} - q^-2 [A_{r+1}, A_s]_{q^2}
            = c (C^r Theta_{s-r+1} - q^-2 C^{r+1} Theta_{s-r-1}) + (r <-> s)

    for one node's ladder ``A`` (a dict), its ``theta_at`` index function
    (zero below index 0), node weight c and recursion constant C.  The
    ladder products come from ``memo``: over a window of (r, s) the pair
    (A_a, A_b) comes back from (r, s) = (a, b - 1) and (a - 1, b).
    """
    f = A[r].field
    q2 = f.q * f.q
    qm2 = f.one / q2
    mul = memo.mul
    lhs = (mul(A[r], A[s + 1]) - mul(A[s + 1], A[r]).scale(qm2)) \
        - (mul(A[r + 1], A[s]) - mul(A[s], A[r + 1]).scale(q2)).scale(qm2)
    rhs = theta_at(s - r + 1).scale(c * C**r) \
        - theta_at(s - r - 1).scale(qm2 * c * C ** (r + 1)) \
        + theta_at(r - s + 1).scale(c * C**s) \
        - theta_at(r - s - 1).scale(qm2 * c * C ** (s + 1))
    return lhs, rhs


def _check_windows(fam, rwin: int, mmax: int):
    """Refuse relation windows that reach past the generated towers."""
    need_R = rwin + max(mmax, 1)
    need_T = max(mmax, 2 * rwin + 1)
    if fam.R < need_R or fam.T < need_T:
        raise DomainError(
            f"window (rwin={rwin}, mmax={mmax}) needs R >= {need_R} and "
            f"T >= {need_T}; the family has R={fam.R}, T={fam.T}"
        )


def _relation_entries(rep: CheckReport, A, H, theta_at, ctx: _Ctx,
                      rwin: int, mmax: int, prefix: str = ""):
    """Shared core for the three defining relation groups.

    ``A`` and ``H`` are dicts, ``theta_at`` an index function honouring
    the zero-below-zero convention.  rel3 is symmetric under swapping
    (r, s), so only r <= s is walked.
    """
    f = ctx.field

    for m in range(1, mmax + 1):
        for n in range(m, mmax + 1):
            ok, w = _meq(H[m] @ H[n], H[n] @ H[m], f)
            rep.add(prefix + "rel1", (m, n), ok, w)

    for m in range(1, mmax + 1):
        coef = f.qint(2 * m) * f.from_fraction(1, m)
        Cm = ctx.C**m
        for r in range(-rwin, rwin + 1):
            lhs = commutator(H[m], A[r])
            rhs = (A[r + m] - A[r - m].scale(Cm)).scale(coef)
            ok, w = _meq(lhs, rhs, f)
            rep.add(prefix + "rel2", (m, r), ok, w)

    memo = ProductMemo()
    for r in range(-rwin, rwin + 1):
        for s in range(r, rwin + 1):
            lhs, rhs = _theta_exchange(memo, A, theta_at, ctx.c1, ctx.C, r, s)
            ok, w = _meq(lhs, rhs, f)
            rep.add(prefix + "rel3", (r, s), ok, w)


def verify_presentation(fam: OnsagerFamily, rwin: int, mmax: int) -> CheckReport:
    """rel1-rel3 on the generated family, exactly, over the given windows."""
    _check_windows(fam, rwin, mmax)
    ctx = _Ctx(fam.params, fam.field)
    rep = CheckReport(
        f"presentation relations ({fam.params.describe()}, rwin={rwin}, m<={mmax})"
    )
    _relation_entries(rep, fam.A, fam.H, fam.theta_at, ctx, rwin, mmax)
    return rep


def tau_dual_check(fam: OnsagerFamily, rwin: int, mmax: int) -> CheckReport:
    """The transpose-dual family must satisfy the same presentation.

    Dual data: A'_r = C^r (A_{-r})^t, H'_m = (H_m)^t, Theta'_m = (Theta_m)^t.
    """
    _check_windows(fam, rwin, mmax)
    ctx = _Ctx(fam.params, fam.field)
    Ad = {r: fam.a(-r).transpose().scale(ctx.C**r)
          for r in range(-fam.R, fam.R + 1)}
    Hd = {m: M.transpose() for m, M in fam.H.items()}
    thd = {m: M.transpose() for m, M in fam.theta.items()}

    def theta_at(m):
        if m < 0:
            return Matrix.zeros(fam.I.n, fam.I.n, fam.field)
        if m not in thd:
            raise DomainError(f"Theta[{m}] not generated; raise T")
        return thd[m]

    rep = CheckReport(f"transpose-dual presentation ({fam.params.describe()})")
    _relation_entries(rep, Ad, Hd, theta_at, ctx, rwin, mmax, prefix="dual_")
    return rep


# -- rationality -----------------------------------------------------------------


def _rf_const(c, field) -> RationalFunction:
    return RationalFunction.constant(c, field)


def _rf_zero(field) -> RationalFunction:
    return RationalFunction(FPoly([], field), FPoly.one(field))


def _rf_bracket(M: Matrix, RFM, v, field):
    """[M, RFM]_v entrywise, RFM a matrix of rational functions."""
    n = M.n
    out = [[None] * n for _ in range(n)]
    for i in range(n):
        for j in range(n):
            acc = _rf_zero(field)
            for k in range(n):
                acc = acc + RFM[k][j] * M.rows[i][k]
            sub = _rf_zero(field)
            for k in range(n):
                sub = sub + RFM[i][k] * M.rows[k][j]
            out[i][j] = acc - sub * v
    return out


def rationality_check(fam: OnsagerFamily, T: int | None = None):
    """Rational closure of the A-ladder and C-symmetry of the Theta closure.

    Per entry: the ascending coefficients A_0..A_R determine (by rational
    reconstruction) a function whose expansion at infinity must reproduce
    the descending coefficients with a sign, coeff(z^-r) = -A_{-r}.  From
    the closure, the reweighted Theta series is rebuilt as an honest
    rational function and checked for invariance under z -> C^-1 z^-1.
    Reconstruction failures are reported as inconclusive entries, not
    silently skipped; raise R and retry.
    """
    if T is None:
        T = fam.T
    f = fam.field
    ctx = _Ctx(fam.params, f)
    n = fam.I.n
    R = fam.R
    rep = CheckReport(f"rationality / C-symmetry ({fam.params.describe()})")

    # the two-term recursion itself, coefficientwise over the whole window
    for r in range(-R + 2, R + 1):
        lhs = fam.A[r]
        rhs = commutator(fam.Hbar1, fam.A[r - 1]) + fam.A[r - 2].scale(ctx.C)
        ok, w = _meq(lhs, rhs, f)
        rep.add("recursion", (r,), ok, w)

    budget = max((R - 1) // 2, 0)
    closure = [[None] * n for _ in range(n)]
    complete = True
    for i in range(n):
        for j in range(n):
            ser = TruncSeries(
                {r: fam.A[r].rows[i][j] for r in range(0, R + 1)},
                0, R, f.zero, f,
            )
            rf = pade_reconstruct(ser, budget, budget)
            if rf is None:
                complete = False
                rep.add("closure", (i, j), False,
                        "inconclusive: no rational closure in window; raise R")
                continue
            closure[i][j] = rf
            rep.add("closure", (i, j), True)
            inf = rf.expand_at_infinity(R)
            ok, wit = True, None
            for k in range(0, inf.hi + 1):
                if not f.is_zero(inf.coeff(k)):
                    ok, wit = False, f"nonzero coefficient at z^{k}"
                    break
            if ok:
                for r in range(1, R + 1):
                    want = -fam.A[-r].rows[i][j]
                    got = inf.coeff(-r)
                    if not f.is_zero(got - want, scale=1.0):
                        ok, wit = False, f"tail mismatch at z^-{r}"
                        break
            rep.add("tail", (i, j), ok, wit)

    if not complete:
        return rep, {"closure": closure, "theta_closure": None}

    # Theta closure: Theta0 + c1^-1 C z (br1 - q^-2 z br2) / (1 - C z^2),
    # with br1 = [A_-1, closure]_{q^-2} and br2 = [A_0, closure]_{q^2}
    br1 = _rf_bracket(fam.A[-1], closure, ctx.qm2, f)
    br2 = _rf_bracket(fam.A[0], closure, ctx.q2, f)
    z = RationalFunction(FPoly([f.zero, f.one], f), FPoly.one(f))
    den = RationalFunction(FPoly.one(f),
                           FPoly([f.one, f.zero, -ctx.C], f))
    c1C = ctx.C / ctx.c1
    theta_rf = [[None] * n for _ in range(n)]
    for i in range(n):
        for j in range(n):
            acc = (br1[i][j] - br2[i][j] * (z * ctx.qm2)) * z * c1C * den
            if i == j:
                acc = acc + _rf_const(f.one / ctx.kap, f)
            theta_rf[i][j] = acc

    for s in range(0, T + 1):
        ok, wit = True, None
        for i in range(n):
            for j in range(n):
                got = theta_rf[i][j].expand_at_zero(T).coeff(s)
                want = fam.theta_acute[s].rows[i][j]
                if not f.is_zero(got - want, scale=1.0):
                    ok, wit = False, f"entry ({i},{j})"
                    break
            if not ok:
                break
        rep.add("closure_expansion", (s,), ok, wit)

    for i in range(n):
        for j in range(n):
            g = theta_rf[i][j]
            sym = g.scale_z(ctx.Cinv).inv_z()
            ok = (g == sym) if f.exact else _rf_num_eq(g, sym, f)
            rep.add("csymmetry", (i, j), ok,
                    None if ok else f"entry ({i},{j}) not C-symmetric")

    return rep, {"closure": closure, "theta_closure": theta_rf}


def _rf_num_eq(a: RationalFunction, b: RationalFunction, field) -> bool:
    d = (a.num * b.den) - (b.num * a.den)
    scale = max(
        [abs(c) for c in (a.num * b.den).coeffs] +
        [abs(c) for c in (b.num * a.den).coeffs] + [1.0]
    )
    return all(field.is_zero(c, scale=scale) for c in d.coeffs)


# -- one-dimensional realizations ------------------------------------------------


def onedim_closed_form(p: OnsagerParams, field=None) -> RationalFunction:
    """The spectral series of a one-dimensional realization, closed form.

    D(z) = [w C (alpha z + beta (1 + C z^2)) z + (1 - C z^2)^2] / (1 - C z^2)^2
    with w = q^-1 (q - q^-1)^2 c1^-1, alpha = C (q^-2 c0^-1 s0)^2 + s1^2,
    beta = q^-2 c0^-1 s0 s1.
    """
    f = field or ExactField()
    ctx = _Ctx(p, f)
    t = ctx.qm2 * ctx.s0 / ctx.c0
    alpha = ctx.C * t * t + ctx.s1 * ctx.s1
    beta = t * ctx.s1
    w = ctx.kap * ctx.kap / (f.q * ctx.c1)
    num = FPoly(
        [f.one,
         w * ctx.C * beta,
         w * ctx.C * alpha - (ctx.C + ctx.C),
         w * ctx.C * ctx.C * beta,
         ctx.C * ctx.C],
        f,
    )
    den = FPoly([f.one, f.zero, -ctx.C], f)
    return RationalFunction(num, den * den)


def onedim_character(p: OnsagerParams, T: int = 6, field=None):
    """Dual-path check of one-dimensional realizations.

    Route one: generate the family on the one-dimensional module and read
    off its grave tower.  Route two: the closed-form rational series.
    Both must agree coefficientwise; the parity-power values of the
    ladder and the C-symmetry of the closed form are checked alongside.
    Returns (report, closed form).
    """
    f = field or ExactField()
    V = build_evaluation(EvalParams(0, Scalar(1)), window=1, T=1, field=f)
    fam = generate_family(p, V, T=T, R=2 * T)
    ctx = _Ctx(p, f)
    rep = CheckReport(f"one-dimensional dual path ({p.describe()})")

    t = ctx.qm2 * ctx.s0 / ctx.c0
    for r in range(-fam.R, fam.R + 1):
        # even ladder entries carry s1, odd ones the reduced s0 weight
        if r % 2 == 0:
            want = ctx.C ** (r // 2) * ctx.s1
        else:
            want = ctx.C ** ((r + 1) // 2) * t
        got = fam.A[r].rows[0][0]
        rep.add("ladder_value", (r,), f.is_zero(got - want, scale=1.0),
                None if f.is_zero(got - want, scale=1.0) else f"A[{r}] = {got}")

    D = onedim_closed_form(p, f)
    ser = D.expand_at_zero(T)
    for s in range(0, T + 1):
        got = fam.theta_grave[s].rows[0][0]
        want = ser.coeff(s)
        rep.add("grave_vs_closed_form", (s,), f.is_zero(got - want, scale=1.0),
                None if f.is_zero(got - want, scale=1.0) else f"order {s}")

    sym = D.scale_z(ctx.Cinv).inv_z()
    ok = (D == sym) if f.exact else _rf_num_eq(D, sym, f)
    rep.add("csymmetry", (), ok)
    return rep, D


def onedim_drf_numeric(p: OnsagerParams, q0: complex = 1.3, tol: float = 1e-8):
    """Numeric spectral fraction of a one-dimensional realization.

    Roots the quartic numerator of the closed form at q0, pairs the roots
    under g -> C^-1 g^-1, builds F(z) = i sqrt(g_k g_l C) (z^2 - C^-1) /
    ((z - g_k)(z - g_l)) from one representative per pair and verifies
    D(z) F(z) F(C^-1 z^-1) = 1 on sample points.  Also reports the orbit
    of candidate fractions (sign and pole-partner choices) and the
    degeneration class, checked against the parameter criteria:
    F constant iff s0 = s1 = 0; numerator and denominator of degree one
    iff s0, s1 both nonzero with c1 s0^2 = c0 s1^2.
    Returns (report, data).
    """
    import numpy as np

    rep = CheckReport(f"one-dimensional spectral fraction at q0={q0}")
    val = lambda s: specialize(s, q0)
    c0, c1, s0, s1 = (val(p.c0), val(p.c1), val(p.s0), val(p.s1))
    C = val(p.C)
    t = s0 / (q0**2 * c0)
    alpha = C * t * t + s1 * s1
    beta = t * s1
    w = (q0 - 1 / q0) ** 2 / (q0 * c1)
    # quartic coefficients, ascending
    g = np.array([1.0, w * C * beta, w * C * alpha - 2 * C,
                  w * C * C * beta, C * C], dtype=complex)
    roots = np.roots(g[::-1])

    remaining = list(roots)
    pairs = []
    pair_res = 0.0
    while remaining:
        a = remaining.pop(0)
        img = 1.0 / (C * a)
        jbest = min(range(len(remaining)), key=lambda j: abs(remaining[j] - img),
                    default=None)
        if jbest is None:
            pairs.append((a, a))
            pair_res = max(pair_res, abs(img - a))
            break
        b = remaining.pop(jbest)
        pairs.append((a, b))
        pair_res = max(pair_res, abs(b - img))
    scale = max(1.0, max(abs(r) for r in roots))
    rep.add("root_pairing", (), pair_res <= 1e-6 * scale,
            None if pair_res <= 1e-6 * scale else f"pairing residual {pair_res:.2e}")

    def fraction(gk, gl, sign):
        s = 1j * np.sqrt(gk * gl * C)
        if sign < 0:
            s = -s

        def F(z):
            return s * (z * z - 1 / C) / ((z - gk) * (z - gl))

        return F

    gk, gl = pairs[0][0], pairs[1][0]
    F = fraction(gk, gl, +1)
    D = lambda z: (w * C * (alpha * z + beta * (1 + C * z * z)) * z
                   + (1 - C * z * z) ** 2) / (1 - C * z * z) ** 2

    samples = [0.31 + 0.17j, -0.83 + 0.4j, 1.57 - 0.66j, 0.05 - 1.2j, 2.3 + 0.9j]
    usable = [z for z in samples
              if abs((z - gk) * (z - gl)) > 1e-6 and abs(1 - C * z * z) > 1e-6
              and abs((1 / (C * z) - gk) * (1 / (C * z) - gl)) > 1e-6]
    residual = max(abs(D(z) * F(z) * F(1 / (C * z)) - 1) for z in usable)
    rep.add("unitary_product", (), residual <= tol,
            None if residual <= tol else f"residual {residual:.2e}")

    # orbit of admissible fractions: both pole representatives, both signs
    candidates = [fraction(a, b, sg)
                  for a in pairs[0] for b in pairs[1] for sg in (+1, -1)]
    vals = [tuple(Fc(z) for z in usable) for Fc in candidates]
    distinct = []
    for v in vals:
        if not any(max(abs(x - y) for x, y in zip(v, u)) <= 1e-6 for u in distinct):
            distinct.append(v)
    orbit_size = len(distinct)

    r0 = np.sqrt(1 / complex(C))
    near_fixed = sum(
        1 for gamma in (gk, gl)
        if min(abs(gamma - r0), abs(gamma + r0)) <= 1e-6 * scale
    )
    observed = 2 - near_fixed  # degree of F after cancellation
    expect_const = (not p.s0) and (not p.s1)
    expect_deg1 = bool(p.s0) and bool(p.s1) \
        and p.c1 * p.s0 * p.s0 == p.c0 * p.s1 * p.s1
    expected = 0 if expect_const else (1 if expect_deg1 else 2)
    rep.add("degeneration", (), observed == expected,
            None if observed == expected
            else f"observed degree {observed}, criteria say {expected}")

    data = {
        "roots": [complex(r) for r in roots],
        "pairs": [(complex(a), complex(b)) for a, b in pairs],
        "poles": (complex(gk), complex(gl)),
        "residual": float(residual),
        "orbit_size": orbit_size,
        "degree": observed,
    }
    return rep, data
