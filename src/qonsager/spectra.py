"""Spectral certificates for the current families.

Everything here revolves around one graded mechanism: on evaluation and
tensor modules the raising/lowering generators shift the weight degree by
exactly +-1 while the diagonal half towers preserve it, so congruences
"up to raising terms" become exact statements about degree-shift
components of matrices.  On top of that this module provides

  * the factorization of the normalized Theta tower against the product
    of the module's half towers (triangularity + shift-zero identity),
  * recovery of the polynomial pair (Q, R) behind the diagonal series of
    an l-weight line, with the reversal/twisted-reversal transforms and
    the boundary polynomials built from them,
  * the associated rational fraction F with its ratio and twisted
    unitarity identities, bundled per line into DRFReport; unitarity
    fixes F's prefactor only up to sign, so F keeps its square, which
    lies in Q(q) for every C and degree,
  * the group-like behaviour of the Theta tower for nonzero shifts and on
    tensor products, and the three-term coproduct form of the raising
    half of the ladder.

All checks are exact over the rational-function backend and tolerance
based over the numeric one; none of them mutates a family.
"""

from __future__ import annotations

from dataclasses import dataclass

from .errors import DomainError
from .linmat import Grading, Matrix, _meq, degree_components
from .loopsl2 import AffineModule, extend_loop_data, phi_series, tensor
from .onsager import (
    RankNFamily,
    RankNParams,
    _rank_one,
    generate_family,
    onedim_closed_form,
)
from .report import CheckReport
from .series import FPoly, RationalFunction, solve_linear

__all__ = [
    "LWeightLine",
    "DrinfeldData",
    "DRF",
    "DRFReport",
    "poly_star",
    "boundary_poly",
    "lweight_lines",
    "drinfeld_data",
    "factorization_check",
    "drf_extract",
    "drf_reports",
    "grouplike_check",
    "coproduct_aplus_check",
]


# -- small shared helpers ---------------------------------------------------------


def _bad_shifts(M: Matrix, g: Grading, bound: int):
    """Degree shifts < bound carrying a nonzero component of M."""
    return [sh[0] for sh in sorted(degree_components(M, g)) if sh[0] < bound]


def _shift_zero(M: Matrix, g: Grading) -> Matrix:
    return degree_components(M, g).get((0,)) or Matrix.zeros(M.n, M.m, M.field)


def _second_factor_grading(V: AffineModule) -> Grading:
    """Total degree of the right tensor factor, as a one-coordinate grading:
    kron index b sits at index b mod dim(W) of the right factor W."""
    if V.factors is None:
        raise DomainError("module is not a tensor product")
    gW = V.factors[1].grading.total()
    return Grading([gW.degrees[b % gW.dim] for b in range(V.dim)])


def _coeffs_out(poly: FPoly, field):
    if field.exact:
        return poly.coeff_strings()
    return [[c.real, c.imag] for c in poly.coeffs]


def _scalar_out(x, field):
    if field.exact:
        return str(x)
    return [x.real, x.imag]


# -- reversal transforms and boundary polynomials ---------------------------------


def poly_star(P: FPoly, C):
    """Reversal and twisted reversal of a constant-term-1 polynomial.

    Returns (P*, P_dag, gamma): P* carries the inverse roots of P and
    P_dag the roots C^-1 r^-1, both renormalized to constant term 1;
    gamma is the leading coefficient of P, which is the unique scalar
    with P(z) = gamma z^deg(P) P*(1/z).
    """
    f = P.field
    if not f.eq(P.coeff(0), f.one):
        raise DomainError("poly_star requires constant term 1")
    gamma = P.coeff(P.degree)
    pstar = P.reverse().scale(f.one / gamma)
    # roots of P*(Cz) sit at C^-1 (root of P*), i.e. exactly C^-1 r^-1
    return pstar, pstar.scale_z(C), gamma


def boundary_poly(Q: FPoly, R: FPoly, C):
    """The pair (BQ, BQ_dag) with BQ(z) = Q(Cz) R*(z), BQ_dag(z) = R(Cz) Q*(z).

    Both have constant term 1 and degree deg Q + deg R, and they exchange
    under the twisted reversal of poly_star.
    """
    qstar, _, _ = poly_star(Q, C)
    rstar, _, _ = poly_star(R, C)
    return Q.scale_z(C) * rstar, R.scale_z(C) * qstar


# -- l-weight lines ----------------------------------------------------------------


@dataclass
class LWeightLine:
    """Diagonal series of the half towers on one basis line.

    dplus[k] is the coefficient of z^k in the raising half, dminus[k] the
    coefficient of z^-k in the lowering half; dplus[0] and dminus[0] are
    the K and K^-1 eigenvalues.
    """

    label: str
    index: int
    degree: tuple
    dplus: list
    dminus: list
    field: object


def lweight_lines(V: AffineModule, T: int | None = None):
    """One LWeightLine per basis vector of a module with diagonal half towers.

    The series are read through phi_series, which raises DomainError when
    the stored psi/phi matrices are not diagonal (tensor towers generally
    are not; their line data lives on the graded pieces instead) or T
    exceeds the stored order.
    """
    Phi, Psi = phi_series(V, T)
    lines = []
    for j in range(V.dim):
        lines.append(LWeightLine(
            f"line {j} (degree {V.grading.degrees[j]})",
            j,
            V.grading.degrees[j],
            [Psi.coeff(k).rows[j][j] for k in range(Psi.hi + 1)],
            [Phi.coeff(k).rows[j][j] for k in range(Phi.hi + 1)],
            V.field,
        ))
    return lines


# -- recovering (Q, R) from a line -------------------------------------------------


@dataclass
class DrinfeldData:
    Q: FPoly | None
    R: FPoly | None
    ok: bool
    inconclusive: bool
    witness: str | None = None


def _fr_function(Qp: FPoly, Rp: FPoly, f) -> RationalFunction:
    """q^(deg Q - deg R) Q(q^-1 z) R(q z) / (Q(q z) R(q^-1 z))."""
    q = f.q
    qi = f.one / q
    num = (Qp.scale_z(qi) * Rp.scale_z(q)).scale(q ** (Qp.degree - Rp.degree))
    den = Qp.scale_z(q) * Rp.scale_z(qi)
    return RationalFunction(num, den)


def _fr_verify(Qp: FPoly, Rp: FPoly, dplus, dminus, f) -> bool:
    d = _fr_function(Qp, Rp, f)
    s0 = d.expand_at_zero(len(dplus) - 1)
    if any(not f.eq(s0.coeff(k), dplus[k]) for k in range(len(dplus))):
        return False
    si = d.expand_at_infinity(len(dminus) - 1)
    return all(f.eq(si.coeff(-k), dminus[k]) for k in range(len(dminus)))


def _fr_solve(dplus, dminus, dQ, dR, f):
    """Candidate (Q, R) of exact degrees (dQ, dR), or None.

    Linearized through the products P_ij = Q_i R_j (P_00 = 1): both sides of
    the series identity are linear in the grid, the grid is accepted only
    when every 2x2 minor vanishes, and (Q, R) are read off its first column
    and row.
    """
    q = f.q
    pref = q ** (dQ - dR)
    dtot = dQ + dR
    nv = (dQ + 1) * (dR + 1) - 1

    def var(i, j):
        return i * (dR + 1) + j - 1

    rows, rhs = [], []

    def equation(ncoef, dcoefs):
        """pref * N_{ncoef} - sum_t dcoefs[t] * Dn_{t} with Dn index pairs."""
        row = [f.zero] * nv
        cst = f.zero
        if ncoef is not None and 0 <= ncoef <= dtot:
            for i in range(max(0, ncoef - dR), min(dQ, ncoef) + 1):
                j = ncoef - i
                c = pref * q ** (j - i)
                if i == 0 and j == 0:
                    cst = cst + c
                else:
                    row[var(i, j)] = row[var(i, j)] + c
        for coef, e in dcoefs:
            if not (0 <= e <= dtot):
                continue
            for i in range(max(0, e - dR), min(dQ, e) + 1):
                j = e - i
                c = coef * q ** (i - j)
                if i == 0 and j == 0:
                    cst = cst - c
                else:
                    row[var(i, j)] = row[var(i, j)] - c
        rows.append(row)
        rhs.append(-cst)

    for m in range(len(dplus)):
        equation(m, [(dplus[t], m - t) for t in range(m + 1)])
    for m in range(len(dminus)):
        equation(dtot - m, [(dminus[t], dtot - m + t) for t in range(m + 1)])

    if nv == 0:
        if all(f.is_zero(v) for v in rhs):
            return FPoly.one(f), FPoly.one(f)
        return None
    sol = solve_linear(rows, rhs, f)
    if sol is None:
        return None
    P = [[f.one if i == 0 and j == 0 else sol[var(i, j)]
          for j in range(dR + 1)] for i in range(dQ + 1)]
    for i in range(dQ + 1):
        for k in range(i + 1, dQ + 1):
            for j in range(dR + 1):
                for l in range(j + 1, dR + 1):
                    if not f.is_zero(P[i][j] * P[k][l] - P[i][l] * P[k][j]):
                        return None
    return FPoly([P[i][0] for i in range(dQ + 1)], f), \
        FPoly([P[0][j] for j in range(dR + 1)], f)


def drinfeld_data(lweight, budget: int = 6, field=None) -> DrinfeldData:
    """Minimal (Q, R) whose ratio reproduces both expansions of a line.

    lweight is an LWeightLine or a bare (dplus, dminus) pair (ascending
    coefficient lists of the two expansions; field then mandatory).  The
    search is deterministic — total degree ascending, then deg Q ascending —
    and a candidate counts only if the grid of products has rank one and
    the reassembled rational function matches every known coefficient on
    both sides.  No candidate within the degree budget -> inconclusive.
    """
    if isinstance(lweight, LWeightLine):
        dplus, dminus, f = lweight.dplus, lweight.dminus, lweight.field
    else:
        dplus, dminus = lweight
        f = field
        if f is None:
            raise DomainError("field is required with a bare series pair")
    if not dplus or not dminus:
        raise DomainError("need at least the constant coefficients of both series")
    if budget < 0:
        raise DomainError("degree budget must be nonnegative")
    for dtot in range(budget + 1):
        for dQ in range(dtot + 1):
            cand = _fr_solve(dplus, dminus, dQ, dtot - dQ, f)
            if cand is None:
                continue
            Qp, Rp = cand
            if _fr_verify(Qp, Rp, dplus, dminus, f):
                return DrinfeldData(Qp, Rp, True, False)
    return DrinfeldData(None, None, False, True,
                        f"no (Q, R) with total degree <= {budget}")


# -- factorization of the Theta tower ----------------------------------------------


def factorization_check(fam: RankNFamily, T: int | None = None):
    """Triangularity of the grave tower and its diagonal identity.

    For each order s <= T the matrix of the normalized tower must have no
    component lowering the total weight degree, and its degree-preserving
    part must equal sum_{u+v=s} phi_u psi_v C^v — the z^s coefficient of
    the product of the lowering half at z^-1 and the raising half at Cz.
    Strict form only: the family's shifts must vanish (grouplike_check
    covers nonzero shifts).  Returns (report, data) where data carries the
    shift-zero parts and the per-line diagonal series.
    """
    p = _rank_one(fam.params)
    if not p.s_is_zero:
        raise DomainError(
            "strict factorization needs s = (0, 0); use grouplike_check otherwise"
        )
    V = fam.module
    f = fam.field
    if T is None:
        T = fam.T
    if T > fam.T:
        raise DomainError(f"order {T} exceeds the family window (T={fam.T})")
    extend_loop_data(V, window=1, T=T)
    C = f.from_scalar(p.C)
    gtot = V.grading.total()
    rep = CheckReport(f"factorization on {V.describe()} ({p.describe()})")
    shift0 = []
    for s in range(T + 1):
        th = fam.theta_grave[1][s]
        bad = _bad_shifts(th, gtot, 0)
        rep.add("triangular", (s,), not bad,
                None if not bad else f"lowering shifts {bad}")
        d0 = _shift_zero(th, gtot)
        want = Matrix.zeros(V.dim, V.dim, f)
        for v in range(s + 1):
            want = want + (V.phi[s - v] @ V.psi[v]).scale(C ** v)
        ok, wit = _meq(d0, want, f)
        rep.add("diagonal", (s,), ok, wit)
        shift0.append(d0)
    data = {
        "shift0": shift0,
        "line_series": [[shift0[s].rows[j][j] for s in range(T + 1)]
                        for j in range(V.dim)],
    }
    return rep, data


# -- the rational fraction ----------------------------------------------------------


@dataclass
class DRF:
    """F(z) = gamma^-1 C^(deg/2) BQ(z) / BQ_dag(z), kept exact in Q(q).

    Twisted unitarity fixes the prefactor gamma^-1 C^(deg/2) only up to
    sign, so the exact datum is its square, prefactor_sq = gamma^-2 C^deg,
    which needs no half power of C.
    """

    num: FPoly
    den: FPoly
    gamma: object
    prefactor_sq: object

    def __str__(self):
        return f"sqrt({self.prefactor_sq}) * ({self.num}) / ({self.den})"


def drf_extract(bq: FPoly, bqdag: FPoly, C, dseries=None):
    """The rational fraction of a boundary pair, with its two identities.

    Verifies, as identities of rational functions,
      * ratio: BQ(q^-1 z) BQ_dag(q z) / (BQ(q z) BQ_dag(q^-1 z)) equals
        F(q^-1 z) / F(q z) — the diagonal series in its regrouped form;
      * twisted unitarity: F(q C^-1 z^-1) F(q^-1 z) = 1, checked with the
        prefactor squared (gamma^-2 C^deg), the one F keeps.
    When dseries is given (an ascending coefficient list, e.g. the grave
    tower's diagonal on the line) its match against the ratio's expansion
    at zero is reported as factorization_diagonal.  Returns (report, DRF).
    """
    f = bq.field
    rep = CheckReport("rational fraction")
    rep.add("constant_terms_one", (),
            f.eq(bq.coeff(0), f.one) and f.eq(bqdag.coeff(0), f.one))
    rep.add("degrees_match", (), bq.degree == bqdag.degree,
            None if bq.degree == bqdag.degree
            else f"deg {bq.degree} vs {bqdag.degree}")
    d = bq.degree
    gamma = bq.coeff(d)
    drf = DRF(bq, bqdag, gamma, (f.one / (gamma * gamma)) * C ** d)

    q = f.q
    qi = f.one / q
    ratio = RationalFunction(bq.scale_z(qi) * bqdag.scale_z(q),
                             bq.scale_z(q) * bqdag.scale_z(qi))

    if bq.degree == bqdag.degree:
        # z^-deg factors of the reversals cancel only at equal degrees
        alpha = q * (f.one / C)
        lhs = bq.scale_z(alpha).reverse() * bq.scale_z(qi)
        rhs = bqdag.scale_z(alpha).reverse() * bqdag.scale_z(qi)
        ok = lhs.scale(drf.prefactor_sq) == rhs
        rep.add("twisted_unitarity", (), ok)
    else:
        rep.add("twisted_unitarity", (), False, "degree mismatch")

    if dseries is not None:
        ser = ratio.expand_at_zero(len(dseries) - 1)
        ok = all(f.eq(ser.coeff(k), dseries[k]) for k in range(len(dseries)))
        wit = None
        if not ok:
            k = next(k for k in range(len(dseries))
                     if not f.eq(ser.coeff(k), dseries[k]))
            wit = f"order {k}"
        rep.add("factorization_diagonal", (), ok, wit)
    return rep, drf


@dataclass
class DRFReport:
    """Everything the fraction pipeline knows about one l-weight line."""

    label: str
    Q: FPoly | None
    R: FPoly | None
    gamma: object | None
    bq: FPoly | None
    bqdag: FPoly | None
    F: DRF | None
    verdicts: dict
    witnesses: dict
    field: object

    @property
    def ok(self) -> bool:
        return all(self.verdicts.values())

    def to_dict(self):
        f = self.field
        out = {
            "label": self.label,
            "ok": self.ok,
            "verdicts": dict(self.verdicts),
        }
        if self.witnesses:
            out["witnesses"] = dict(self.witnesses)
        if self.Q is not None:
            out["Q"] = _coeffs_out(self.Q, f)
            out["R"] = _coeffs_out(self.R, f)
            out["gamma"] = _scalar_out(self.gamma, f)
            out["boundary"] = _coeffs_out(self.bq, f)
            out["boundary_dagger"] = _coeffs_out(self.bqdag, f)
            out["F"] = {
                "num": _coeffs_out(self.F.num, f),
                "den": _coeffs_out(self.F.den, f),
                "prefactor_squared": _scalar_out(self.F.prefactor_sq, f),
            }
        return out


def drf_reports(fam: RankNFamily, T: int | None = None,
                budget: int | None = None):
    """One DRFReport per l-weight line of the family's module.

    Chains line extraction, (Q, R) recovery, boundary polynomials and the
    fraction identities; the factorization_diagonal verdict ties the
    fraction back to the family's own grave tower on that line.
    """
    p = _rank_one(fam.params)
    V = fam.module
    f = fam.field
    if T is None:
        T = fam.T
    if budget is None:
        budget = T
    C = f.from_scalar(p.C)
    out = []
    for ln in lweight_lines(V, T):
        dd = drinfeld_data(ln, budget=budget)
        if not dd.ok:
            out.append(DRFReport(ln.label, None, None, None, None, None, None,
                                 {"drinfeld_data": False},
                                 {"drinfeld_data": dd.witness}, f))
            continue
        bq, bqd = boundary_poly(dd.Q, dd.R, C)
        theta_line = [fam.theta_grave[1][s].rows[ln.index][ln.index]
                      for s in range(T + 1)]
        rep, drf = drf_extract(bq, bqd, C, dseries=theta_line)
        verdicts = {"drinfeld_data": True}
        witnesses = {}
        for e in rep.entries:
            verdicts[e.name] = e.ok
            if e.witness:
                witnesses[e.name] = e.witness
        out.append(DRFReport(ln.label, dd.Q, dd.R, drf.gamma, bq, bqd, drf,
                             verdicts, witnesses, f))
    return out


# -- group-like behaviour of the Theta tower ----------------------------------------


def grouplike_check(p: RankNParams, V: AffineModule, T: int = 6) -> CheckReport:
    """Group-like identities of the grave tower, shifts allowed.

    (i) On any module: the tower at (c, s) has no degree-lowering
    components, and its degree-preserving part equals the one-dimensional
    closed-form series at (c, s) times the tower at (c, 0), order by order.
    (ii) On a tensor product, grading by the right factor only: the tower
    has no right-degree-lowering components, and its right-degree-
    preserving part splits as sum_{u+v=s} (tower at (c, s) on the left
    factor)_u x (right-degree-preserving tower at (c, 0) on the right
    factor)_v.
    """
    f = V.field
    rep = CheckReport(f"group-like tower on {V.describe()} ({p.describe()})")
    fam = generate_family(p, V, T=T, R=2 * T)
    fam0 = generate_family(p.with_s_zero(), V, T=T, R=2 * T)
    D = onedim_closed_form(p, f).expand_at_zero(T)
    gtot = V.grading.total()
    diag0 = [_shift_zero(fam0.theta_grave[1][s], gtot) for s in range(T + 1)]
    for s in range(T + 1):
        th = fam.theta_grave[1][s]
        bad = _bad_shifts(th, gtot, 0)
        rep.add("triangular", (s,), not bad,
                None if not bad else f"lowering shifts {bad}")
        want = Matrix.zeros(V.dim, V.dim, f)
        for u in range(s + 1):
            want = want + diag0[s - u].scale(D.coeff(u))
        ok, wit = _meq(_shift_zero(th, gtot), want, f)
        rep.add("scaled_diagonal", (s,), ok, wit)

    if V.factors is not None:
        X, W = V.factors
        famX = generate_family(p, X, T=T, R=2 * T)
        famW0 = generate_family(p.with_s_zero(), W, T=T, R=2 * T)
        g2 = _second_factor_grading(V)
        gW = W.grading.total()
        w0 = [_shift_zero(famW0.theta_grave[1][v], gW) for v in range(T + 1)]
        for s in range(T + 1):
            th = fam.theta_grave[1][s]
            bad = _bad_shifts(th, g2, 0)
            rep.add("tensor_triangular", (s,), not bad,
                    None if not bad else f"right-lowering shifts {bad}")
            want = Matrix.zeros(V.dim, V.dim, f)
            for u in range(s + 1):
                want = want + famX.theta_grave[1][u].kron(w0[s - u])
            ok, wit = _meq(_shift_zero(th, g2), want, f)
            rep.add("tensor_diagonal", (s,), ok, wit)
    return rep


# -- the three-term coproduct form of the raising ladder ----------------------------


def _kappa_gamma(W: AffineModule, p: RankNParams, T: int):
    """Coefficients (orders 1..T) of the kappa-corrected resolvent series on W.

    Gamma(z) = (1 - q^2 ad_a z)^-1 (1 - C ad_b z)^-1 (q^2 - 1) Phi(z^-1) x+_{-1} z
    with ad_a = ad hbar_{-1} and ad_b = ad hbar_1, both resolvents applied
    as truncated geometric series; then
    kappa(M) = -(q - q^-1) (s1 M + C q^-2 c0^-1 s0 [hbar_1, M]).
    The derivations commute with left multiplication by the lowering half,
    so the order of the resolvents and the Phi factor is immaterial.
    """
    f = W.field
    q = f.q
    q2 = q * q
    kap = q - f.one / q
    C = f.from_scalar(p.C)
    s1 = f.from_scalar(p.s[1])
    t = (f.one / q2) * f.from_scalar(p.s[0]) / f.from_scalar(p.c[0])
    tw = f.one / f.qint(2)
    hb1 = W.h[1].scale(tw)
    hbm1 = W.h[-1].scale(tw)

    def ada(M):
        return hbm1 @ M - M @ hbm1

    def adb(M):
        return hb1 @ M - M @ hb1

    g1 = {1: W.xp[-1].scale(q2 - f.one)}
    for v in range(2, T + 1):
        g1[v] = adb(g1[v - 1]).scale(C)
    # each resolvent telescopes: g2 = g1 + q^2 z ad_a g2 order by order
    g2 = {}
    for v in range(1, T + 1):
        g2[v] = g1[v] if v == 1 else g1[v] + ada(g2[v - 1]).scale(q2)
    out = {}
    for v in range(1, T + 1):
        gam = Matrix.zeros(W.dim, W.dim, f)
        for m in range(0, v):
            gam = gam + W.phi[m] @ g2[v - m]
        out[v] = (gam.scale(s1) + adb(gam).scale(C * t)).scale(-kap)
    return out


def coproduct_aplus_check(p: RankNParams, V: AffineModule, W: AffineModule,
                          T: int = 4) -> CheckReport:
    """Three-term coproduct form of the raising half of the ladder.

    On V x W, with the left factor carrying (c, s) and the right factor
    the reference tower at (c, 0), each order r in 0..T of the ladder
    series must satisfy, up to components raising the right factor's
    degree by at least 2:

        A_r  =  1 x A_r  +  sum_{u+v=r} A_u x (Phi_v + kappaGamma_v),

    the left legs running over the full ladder half from order 0 (order 0
    itself is the exact two-term identity A_0 = 1 x A_0 + A_0 x K^-1).
    The left-hand side comes from the family generated on the tensor
    module itself — never from coproduct formulas.
    """
    extend_loop_data(W, window=1, T=max(T, 1))
    TW = tensor(V, W)
    f = TW.field
    famT = generate_family(p, TW, T=T, R=2 * T)
    famV = generate_family(p, V, T=T, R=2 * T)
    famW0 = generate_family(p.with_s_zero(), W, T=T, R=2 * T)
    kg = _kappa_gamma(W, p, T)
    g2 = _second_factor_grading(TW)
    eyeV = Matrix.identity(V.dim, f)
    rep = CheckReport(
        f"three-term coproduct of the raising ladder on "
        f"{V.describe()} x {W.describe()} ({p.describe()})"
    )
    for r in range(0, T + 1):
        pred = eyeV.kron(famW0.a(1, r))
        for u in range(0, r + 1):
            v = r - u
            leg = W.phi[v]
            if v >= 1:
                leg = leg + kg[v]
            pred = pred + famV.a(1, u).kron(leg)
        diff = famT.a(1, r) - pred
        bad = _bad_shifts(diff, g2, 2)
        rep.add("twisted_primitive", (r,), not bad,
                None if not bad else f"right-shift components {bad}")
    return rep
