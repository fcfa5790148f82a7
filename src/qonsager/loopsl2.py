"""Finite-dimensional modules over the quantum loop algebra of sl2.

A LoopModule packages the action of the loop generators on a chosen basis:
the invertible diagonal K, the mode operators x^+_k and x^-_k for |k| up to
a window, the commuting h_k, and the coefficients psi_k / phi_{-k} of the
two diagonal generating series

    Psi(z) = K exp( (q - q^-1) sum_{k>=1} h_k   z^k ),
    Phi(z) = K^-1 exp( -(q - q^-1) sum_{k>=1} h_{-k} z^-k ),

together with the Chevalley generators E_i, F_i, K_i (i = 0, 1) of the
affine presentation, obtained through the standard dictionary

    E_1 = x^+_0,  F_1 = x^-_0,  K_1 = K,
    E_0 = -K^-1 x^-_1,  F_0 = -x^+_{-1} K,  K_0 = K^-1.

build_evaluation constructs the (n+1)-dimensional evaluation module V_n(a):
on the weight basis v_0..v_n (top weight first, deg v_j = -j) the mode
operators scale each weight link by a geometric factor,

    x^-_k v_j = mu_j^k     [j+1]   v_{j+1},      mu_j = a q^{n-2j},
    x^+_k v_j = mu_{j-1}^k [n-j+1] v_{j-1},      K v_j = q^{n-2j} v_j,

and every stored operator is certified against the full defining relation
suite before the module is handed back (ConstructionError otherwise).
Tensor products carry only the Chevalley-level action, through the
coproduct Delta(E) = E x 1 + K x E, Delta(F) = F x K^-1 + 1 x F.

Everything works over either coefficient backend: exact matrices are built
over the rational function field and numeric modules are exact modules
specialized entrywise at q0.
"""

from __future__ import annotations

from dataclasses import dataclass

from .errors import ConstructionError, DomainError
from .linmat import Grading, Matrix, ProductMemo, _meq, commutator, degree_components
from .report import CheckReport
from .scalars import ExactField, Q, Scalar, parse_scalar, qbinom
from .series import TruncSeries, series_exp, series_log

__all__ = [
    "EvalParams",
    "LoopModule",
    "build_evaluation",
    "verify_drinfeld_relations",
    "kacmoody_from_drinfeld",
    "tensor",
    "extend_loop_data",
    "phi_series",
    "verify_aux_identities",
]

_EXACT = ExactField()

#: affine sl2 Cartan matrix entries a_ij, both off-diagonals equal to -2
_CARTAN = {(0, 0): 2, (0, 1): -2, (1, 0): -2, (1, 1): 2}


@dataclass
class EvalParams:
    """Parameters of an evaluation module: dimension n+1 and spectral value a."""

    n: int
    a: Scalar

    def __post_init__(self):
        self.n = int(self.n)
        if isinstance(self.a, str):
            self.a = parse_scalar(self.a)
        if self.n < 0:
            raise DomainError(f"evaluation module needs n >= 0, got {self.n}")
        if not self.a:
            raise DomainError("evaluation parameter a must be nonzero")


class LoopModule:
    """A module with (optionally) loop-generator matrices and always a
    Chevalley-level action plus the weight grading.

    Evaluation modules carry the full tower (xp/xm/h/psi/phi); tensor
    products only the Chevalley generators.  ``psi[k]`` is the coefficient
    of z^k in Psi(z), ``phi[k]`` the coefficient of z^-k in Phi(z).
    """

    __slots__ = (
        "field", "dim", "grading", "window", "T",
        "K", "Kinv", "xp", "xm", "h", "psi", "phi",
        "E", "F", "Kc", "Kcinv",
        "meta", "factors", "certified",
    )

    def __init__(self, field, dim, grading, meta):
        self.field = field
        self.dim = dim
        self.grading = grading
        self.window = None
        self.T = None
        self.K = None
        self.Kinv = None
        self.xp = {}
        self.xm = {}
        self.h = {}
        self.psi = {}
        self.phi = {}
        self.E = None
        self.F = None
        self.Kc = None
        self.Kcinv = None
        self.meta = meta
        self.factors = None
        self.certified = False

    @property
    def has_loop_data(self) -> bool:
        return bool(self.xp)

    def describe(self) -> str:
        return _describe_meta(self.meta)

    def __repr__(self):
        kind = "loop" if self.has_loop_data else "chevalley"
        return f"LoopModule({self.describe()}, dim={self.dim}, {kind})"


def _describe_meta(meta) -> str:
    if meta.get("type") == "tensor":
        parts = [_describe_meta(m) for m in meta["factors"]]
        return "*".join(p if "*" not in p else f"({p})" for p in parts)
    return f"V{meta['n']}({meta['a']})"


# -- construction ---------------------------------------------------------------


def _fieldify(M: Matrix, field) -> Matrix:
    if field.exact:
        return M
    return M.map_entries(field.from_scalar, field)


def _assemble_evaluation(n, a, window, T, field,
                         links_plus=None, links_minus=None) -> LoopModule:
    """Assemble V_n(a) without certifying it.

    links_plus / links_minus override the per-link geometric factors of
    x^+ / x^- (length-n lists of exact scalars); the defaults are the
    canonical mu_j = a q^{n-2j} on both sides.
    """
    if window < 1:
        raise DomainError("loop window must be at least 1")
    if T < 1:
        raise DomainError("series order T must be at least 1")
    d = n + 1
    mu = [a * Q ** (n - 2 * j) for j in range(n)]
    if links_plus is None:
        links_plus = mu
    if links_minus is None:
        links_minus = mu

    grading = Grading([(-j,) for j in range(d)])
    meta = {"type": "evaluation", "n": n, "a": str(a)}
    V = LoopModule(field, d, grading, meta)
    V.window = window
    V.T = T

    K = Matrix.diagonal([Q ** (n - 2 * j) for j in range(d)], _EXACT)
    Kinv = Matrix.diagonal([Q ** (2 * j - n) for j in range(d)], _EXACT)

    wide = max(window, T)

    def xplus(k):
        M = Matrix.zeros(d, d, _EXACT)
        for j in range(1, d):
            M.rows[j - 1][j] = links_plus[j - 1] ** k * _EXACT.qint(n - j + 1)
        return M

    def xminus(k):
        M = Matrix.zeros(d, d, _EXACT)
        for j in range(0, d - 1):
            M.rows[j + 1][j] = links_minus[j] ** k * _EXACT.qint(j + 1)
        return M

    xp_wide = {k: xplus(k) for k in range(-wide, wide + 1)}
    xm0 = xminus(0)

    qden = Q - Q ** (-1)
    psi = {0: K}
    phi = {0: Kinv}
    for k in range(1, T + 1):
        psi[k] = commutator(xp_wide[k], xm0).scale(qden)
        phi[k] = -commutator(xp_wide[-k], xm0).scale(qden)

    # h_k from the series logarithms of K^-1 Psi(z) and K Phi(z)
    eye = Matrix.identity(d, _EXACT)
    zeroM = Matrix.zeros(d, d, _EXACT)
    s_psi = TruncSeries({k: Kinv @ psi[k] for k in range(0, min(T, window) + 1)},
                        0, min(T, window), zeroM, _EXACT)
    l_psi = series_log(s_psi, eye)
    s_phi = TruncSeries({k: K @ phi[k] for k in range(0, min(T, window) + 1)},
                        0, min(T, window), zeroM, _EXACT)
    l_phi = series_log(s_phi, eye)
    qden_inv = qden ** (-1)
    h = {}
    for k in range(1, min(T, window) + 1):
        h[k] = l_psi.coeff(k).scale(qden_inv)
        h[-k] = -l_phi.coeff(k).scale(qden_inv)

    V.K = _fieldify(K, field)
    V.Kinv = _fieldify(Kinv, field)
    V.xp = {k: _fieldify(xp_wide[k], field) for k in range(-window, window + 1)}
    V.xm = {k: _fieldify(xminus(k), field) for k in range(-window, window + 1)}
    V.h = {k: _fieldify(h[k], field) for k in sorted(h)}
    V.psi = {k: _fieldify(psi[k], field) for k in range(0, T + 1)}
    V.phi = {k: _fieldify(phi[k], field) for k in range(0, T + 1)}
    return V


def build_evaluation(p: EvalParams, window: int = 3, T: int = 6,
                     field=None, certify: bool = True) -> LoopModule:
    """The evaluation module V_n(a), fully certified by default.

    Raises ConstructionError when any defining relation fails (which, for
    the canonical link factors, indicates a bug rather than bad input).
    """
    if not isinstance(p, EvalParams):
        raise DomainError("build_evaluation expects EvalParams")
    if field is None:
        field = _EXACT
    V = _assemble_evaluation(p.n, p.a, window, T, field)
    if certify:
        rep = verify_drinfeld_relations(V)
        if not rep.ok:
            bad = rep.first_failure()
            raise ConstructionError(
                f"{V.describe()}: relation {bad.name}{bad.indices} failed"
                + (f" [{bad.witness}]" if bad.witness else "")
            )
    kacmoody_from_drinfeld(V, certify=certify)
    V.certified = certify
    return V


# -- equality helper ------------------------------------------------------------


def _same_field(f1, f2) -> bool:
    if f1 is f2:
        return True
    if f1.exact != f2.exact:
        return False
    if f1.exact:
        return True
    return f1.q0 == f2.q0 and f1.tol == f2.tol


# -- certification ----------------------------------------------------------------


def verify_drinfeld_relations(V: LoopModule, window=None, T=None) -> CheckReport:
    """Check every defining loop relation the stored window supports.

    Covers: invertibility of K, commutativity of the h_k (and with K),
    K-conjugation of the mode operators, the h-x ladder
    [h_k, x^pm_l] = pm([2k]/k) x^pm_{k+l}, the quadratic exchange relation
    between same-sign modes, the mixed commutator
    [x^+_k, x^-_l] = (psi_{k+l} - phi_{k+l})/(q - q^-1), consistency of the
    stored psi/phi with the exponentials of the stored h, and purity of the
    degree shifts.  Returns a CheckReport with one entry per instance.
    """
    if not V.has_loop_data:
        raise DomainError("module carries no loop-generator data")
    f = V.field
    W = V.window if window is None else min(window, V.window)
    T = V.T if T is None else min(T, V.T)
    q = f.q
    qden = q - f.one / q
    qden_inv = f.one / qden
    q2 = q * q
    q2i = f.one / q2
    d = V.dim
    eye = Matrix.identity(d, f)
    zeroM = Matrix.zeros(d, d, f)
    rep = CheckReport(f"loop relations on {V.describe()}")

    ok, w = _meq(V.K @ V.Kinv, eye, f)
    rep.add("K_invertible", (), ok, w)

    hkeys = sorted(k for k in V.h if -W <= k <= W)
    for i, k in enumerate(hkeys):
        ok, w = _meq(V.K @ V.h[k], V.h[k] @ V.K, f)
        rep.add("K_h_commute", (k,), ok, w)
        for l in hkeys[i + 1:]:
            ok, w = _meq(V.h[k] @ V.h[l], V.h[l] @ V.h[k], f)
            rep.add("h_commute", (k, l), ok, w)

    xkeys = sorted(k for k in V.xp if -W <= k <= W)
    for k in xkeys:
        ok, w = _meq(V.K @ V.xp[k], (V.xp[k] @ V.K).scale(q2), f)
        rep.add("K_conj_x", ("+", k), ok, w)
        ok, w = _meq(V.K @ V.xm[k], (V.xm[k] @ V.K).scale(q2i), f)
        rep.add("K_conj_x", ("-", k), ok, w)

    for k in hkeys:
        c = f.qint(2 * k) * f.from_fraction(1, k)
        for l in xkeys:
            if k + l not in V.xp or not -W <= k + l <= W:
                continue
            lhs = V.h[k] @ V.xp[l] - V.xp[l] @ V.h[k]
            ok, w = _meq(lhs, V.xp[k + l].scale(c), f)
            rep.add("h_x_ladder", (k, "+", l), ok, w)
            lhs = V.h[k] @ V.xm[l] - V.xm[l] @ V.h[k]
            ok, w = _meq(lhs, -V.xm[k + l].scale(c), f)
            rep.add("h_x_ladder", (k, "-", l), ok, w)

    # a mode product x_a x_b is taken at up to four (k, l): (a - 1, b),
    # (b - 1, a), (a, b - 1) and (b, a - 1); one memo per sign makes it once
    for sign, xd, v in (("+", V.xp, q2), ("-", V.xm, q2i)):
        mul = ProductMemo().mul
        for k in range(-W, W):
            for l in range(-W, W):
                lhs = mul(xd[k + 1], xd[l]) - mul(xd[l], xd[k + 1]).scale(v)
                rhs = mul(xd[k], xd[l + 1]).scale(v) - mul(xd[l + 1], xd[k])
                ok, w = _meq(lhs, rhs, f)
                rep.add("x_exchange", (sign, k, l), ok, w)

    for k in xkeys:
        for l in xkeys:
            m = k + l
            if abs(m) > T:
                continue
            lhs = V.xp[k] @ V.xm[l] - V.xm[l] @ V.xp[k]
            psi_m = V.psi[m] if m >= 0 else zeroM
            phi_m = V.phi[-m] if m <= 0 else zeroM
            ok, w = _meq(lhs, (psi_m - phi_m).scale(qden_inv), f)
            rep.add("x_pair_commutator", (k, l), ok, w)

    # stored psi/phi against the exponentials of the stored h
    Tchk = min(T, max(abs(k) for k in hkeys) if hkeys else 0)
    if Tchk >= 1:
        s = TruncSeries({k: V.h[k].scale(qden) for k in range(1, Tchk + 1)},
                        0, Tchk, zeroM, f)
        e = series_exp(s, eye)
        for m in range(0, Tchk + 1):
            ok, w = _meq(V.psi[m], V.K @ e.coeff(m), f)
            rep.add("psi_series_def", (m,), ok, w)
        s = TruncSeries({k: -V.h[-k].scale(qden) for k in range(1, Tchk + 1)},
                        0, Tchk, zeroM, f)
        e = series_exp(s, eye)
        for m in range(0, Tchk + 1):
            ok, w = _meq(V.phi[m], V.Kinv @ e.coeff(m), f)
            rep.add("phi_series_def", (m,), ok, w)

    # degree purity: x^pm shift the total degree by pm1, h_k preserve it
    gtot = V.grading.total()
    for k in xkeys:
        rep.add("x_degree_shift", ("+", k),
                _pure_shift(V.xp[k], gtot, (1,), f))
        rep.add("x_degree_shift", ("-", k),
                _pure_shift(V.xm[k], gtot, (-1,), f))
    for k in hkeys:
        rep.add("h_degree_shift", (k,), _pure_shift(V.h[k], gtot, (0,), f))
    return rep


def _pure_shift(M: Matrix, g: Grading, target, field) -> bool:
    comps = degree_components(M, g)
    scale = 1.0 if field.exact else max(M.max_abs(), 1.0)
    for shift, mat in comps.components.items():
        if shift != tuple(target) and not mat.is_zero(scale):
            return False
    return True


def kacmoody_from_drinfeld(V: LoopModule, certify: bool = True) -> CheckReport:
    """Populate the Chevalley generators from the loop data and certify the
    affine presentation (Cartan conjugation, [E_i, F_j], q-Serre)."""
    if not V.has_loop_data:
        raise DomainError("module carries no loop-generator data")
    if 1 not in V.xm or -1 not in V.xp:
        raise DomainError("Chevalley dictionary needs modes of index -1..1")
    V.E = {1: V.xp[0], 0: -(V.Kinv @ V.xm[1])}
    V.F = {1: V.xm[0], 0: -(V.xp[-1] @ V.K)}
    V.Kc = {1: V.K, 0: V.Kinv}
    V.Kcinv = {1: V.Kinv, 0: V.K}
    rep = _check_kacmoody(V)
    if certify and not rep.ok:
        bad = rep.first_failure()
        raise ConstructionError(
            f"{V.describe()}: relation {bad.name}{bad.indices} failed"
            + (f" [{bad.witness}]" if bad.witness else "")
        )
    return rep


def _check_kacmoody(V: LoopModule) -> CheckReport:
    """The affine presentation on V.E/V.F/V.Kc, reported per instance."""
    f = V.field
    q = f.q
    qden = q - f.one / q
    eye = Matrix.identity(V.dim, f)
    rep = CheckReport(f"affine presentation on {V.describe()}")
    for i in (0, 1):
        ok, w = _meq(V.Kc[i] @ V.Kcinv[i], eye, f)
        rep.add("cartan_invertible", (i,), ok, w)
    for i in (0, 1):
        for j in (0, 1):
            a = _CARTAN[i, j]
            ok, w = _meq(V.Kc[i] @ V.E[j], (V.E[j] @ V.Kc[i]).scale(q ** a), f)
            rep.add("cartan_conj_E", (i, j), ok, w)
            ok, w = _meq(V.Kc[i] @ V.F[j], (V.F[j] @ V.Kc[i]).scale(q ** (-a)), f)
            rep.add("cartan_conj_F", (i, j), ok, w)
    for i in (0, 1):
        for j in (0, 1):
            lhs = V.E[i] @ V.F[j] - V.F[j] @ V.E[i]
            if i == j:
                rhs = (V.Kc[i] - V.Kcinv[i]).scale(f.one / qden)
            else:
                rhs = Matrix.zeros(V.dim, V.dim, f)
            ok, w = _meq(lhs, rhs, f)
            rep.add("EF_commutator", (i, j), ok, w)
    for name, X in (("serre_E", V.E), ("serre_F", V.F)):
        for i in (0, 1):
            j = 1 - i
            acc = Matrix.zeros(V.dim, V.dim, f)
            for r in range(4):
                term = (X[i] ** (3 - r)) @ X[j] @ (X[i] ** r)
                coeff = f.from_scalar(qbinom(3, r))
                if r % 2:
                    coeff = -coeff
                acc = acc + term.scale(coeff)
            ok, w = _meq(acc, Matrix.zeros(V.dim, V.dim, f), f)
            rep.add(name, (i, j), ok, w)
    return rep


def tensor(V: LoopModule, W: LoopModule, certify: bool = True) -> LoopModule:
    """Tensor product via the coproduct, Chevalley level only.

    Delta(E_i) = E_i x 1 + K_i x E_i,  Delta(F_i) = F_i x K_i^-1 + 1 x F_i,
    Delta(K_i) = K_i x K_i; the grading keeps the factor degrees as separate
    coordinates (kron order: left factor is the slow index).
    """
    if V.E is None or W.E is None:
        raise DomainError("tensor factors need Chevalley data")
    if not _same_field(V.field, W.field):
        raise DomainError("tensor factors live over different backends")
    f = V.field
    meta = {"type": "tensor", "factors": [V.meta, W.meta]}
    M = LoopModule(f, V.dim * W.dim, V.grading.tensor(W.grading), meta)
    M.factors = (V, W)
    eyeV = Matrix.identity(V.dim, f)
    eyeW = Matrix.identity(W.dim, f)
    M.K = V.K.kron(W.K)
    M.Kinv = V.Kinv.kron(W.Kinv)
    M.E = {i: V.E[i].kron(eyeW) + V.Kc[i].kron(W.E[i]) for i in (0, 1)}
    M.F = {i: V.F[i].kron(W.Kcinv[i]) + eyeV.kron(W.F[i]) for i in (0, 1)}
    M.Kc = {i: V.Kc[i].kron(W.Kc[i]) for i in (0, 1)}
    M.Kcinv = {i: V.Kcinv[i].kron(W.Kcinv[i]) for i in (0, 1)}
    rep = _check_kacmoody(M)
    if certify and not rep.ok:
        bad = rep.first_failure()
        raise ConstructionError(
            f"{M.describe()}: relation {bad.name}{bad.indices} failed"
        )
    M.certified = certify and rep.ok
    return M


def extend_loop_data(M: LoopModule, window: int = 3, T: int = 6,
                     certify: bool = True) -> LoopModule:
    """Reconstruct the loop-generator tower from the Chevalley action.

    Inverts the standard dictionary (x^-_1 = -K E_0, x^+_{-1} = -F_0 K^-1,
    x^pm_0 = E_1 / F_1), climbs the mode ladders with ad h_{+-1}, and reads
    the diagonal series off the mixed brackets, exactly as for evaluation
    modules.  On a tensor module this realizes the coproduct of every loop
    generator without ever expanding coproduct formulas.  Modules that
    already carry loop data are returned unchanged.
    """
    if M.has_loop_data:
        return M
    if M.E is None:
        raise DomainError("module carries no Chevalley data to extend")
    if window < 1 or T < 1:
        raise DomainError("loop window and series order must be at least 1")
    f = M.field
    q = f.q
    kap = q - f.one / q
    kap_inv = f.one / kap
    tw_inv = f.one / f.qint(2)
    K, Kinv = M.K, M.Kinv

    xp = {0: M.E[1], -1: -(M.F[0] @ Kinv)}
    xm = {0: M.F[1], 1: -(K @ M.E[0])}
    h = {
        1: Kinv @ commutator(xp[0], xm[1]),
        -1: K @ commutator(xp[-1], xm[0]),
    }
    wide = max(window, T)
    for k in range(1, wide + 1):
        xp[k] = commutator(h[1], xp[k - 1]).scale(tw_inv)
        xp[-k - 1] = commutator(h[-1], xp[-k]).scale(tw_inv)
        xm[-k] = -commutator(h[-1], xm[-k + 1]).scale(tw_inv)
        if k >= 2:
            xm[k] = -commutator(h[1], xm[k - 1]).scale(tw_inv)

    psi = {0: K}
    phi = {0: Kinv}
    for k in range(1, T + 1):
        psi[k] = commutator(xp[k], xm[0]).scale(kap)
        phi[k] = -commutator(xp[-k], xm[0]).scale(kap)

    eye = Matrix.identity(M.dim, f)
    zeroM = Matrix.zeros(M.dim, M.dim, f)
    hi = min(T, window)
    l_psi = series_log(
        TruncSeries({k: Kinv @ psi[k] for k in range(hi + 1)}, 0, hi, zeroM, f),
        eye,
    )
    l_phi = series_log(
        TruncSeries({k: K @ phi[k] for k in range(hi + 1)}, 0, hi, zeroM, f),
        eye,
    )
    for k in range(2, hi + 1):
        h[k] = l_psi.coeff(k).scale(kap_inv)
        h[-k] = -l_phi.coeff(k).scale(kap_inv)

    M.window = window
    M.T = T
    M.xp = {k: xp[k] for k in range(-window, window + 1)}
    M.xm = {k: xm[k] for k in range(-window, window + 1)}
    M.h = dict(sorted(h.items()))
    M.psi = psi
    M.phi = phi
    if certify:
        rep = verify_drinfeld_relations(M)
        if not rep.ok:
            bad = rep.first_failure()
            raise ConstructionError(
                f"{M.describe()}: reconstructed tower fails "
                f"{bad.name}{bad.indices}"
                + (f" [{bad.witness}]" if bad.witness else "")
            )
    return M


# -- series access ------------------------------------------------------------------


def phi_series(V: LoopModule, T=None):
    """(Phi, Psi): the diagonal series as ascending TruncSeries of matrices;
    coefficient k of Phi is phi_{-k} (the z^-k coefficient of Phi(z), i.e.
    the z^k coefficient of Phi(z^-1)), coefficient k of Psi is psi_k.

    Raises DomainError when the stored coefficients are not diagonal (the
    basis is then not an l-weight basis) or T exceeds the stored order.
    """
    if not V.has_loop_data:
        raise DomainError("module carries no loop-generator data")
    T = V.T if T is None else T
    if T > V.T:
        raise DomainError(f"series order {T} exceeds stored order {V.T}")
    f = V.field
    for name, store in (("phi", V.phi), ("psi", V.psi)):
        for k in range(0, T + 1):
            M = store[k]
            scale = 1.0 if f.exact else max(M.max_abs(), 1.0)
            for i, j, v in M.nonzero_entries():
                if i != j and not f.is_zero(v, scale):
                    raise DomainError(
                        f"{name}_{k} is not diagonal at ({i},{j}); "
                        "the basis is not an l-weight basis"
                    )
    zeroM = Matrix.zeros(V.dim, V.dim, f)
    Phi = TruncSeries({k: V.phi[k] for k in range(T + 1)}, 0, T, zeroM, f)
    Psi = TruncSeries({k: V.psi[k] for k in range(T + 1)}, 0, T, zeroM, f)
    return Phi, Psi


# -- consequence identities -----------------------------------------------------------


def verify_aux_identities(V: LoopModule, T=None) -> CheckReport:
    """Three consequences of the defining relations that later layers lean on.

    * phi_x_homogeneous: phi_{-r} x^+_s + x^+_{s-1} phi_{-(r-1)}
        = q^-2 (x^+_s phi_{-r} + phi_{-(r-1)} x^+_{s-1})        (r >= 1);
    * phi_x_expansion: x^+_k phi_{-r} = q^2 phi_{-r} x^+_k
        + (q^4 - 1) sum_{s=1}^{r} q^{2(s-1)} phi_{-(r-s)} x^+_{k-s};
    * phi_xminus_qcomm: [x^-_1, phi_{-(m+1)}]_{q^-2}
        = q^-2 [x^-_0, phi_{-m}]_{q^2}    (m >= -1, empty right side at -1).
    """
    if not V.has_loop_data:
        raise DomainError("module carries no loop-generator data")
    f = V.field
    W = V.window
    T = V.T if T is None else min(T, V.T)
    q = f.q
    q2 = q * q
    q2i = f.one / q2
    q4m1 = q2 * q2 - f.one
    rep = CheckReport(f"auxiliary identities on {V.describe()}")

    for r in range(1, T + 1):
        for s in range(-W + 1, W + 1):
            lhs = V.phi[r] @ V.xp[s] + V.xp[s - 1] @ V.phi[r - 1]
            rhs = (V.xp[s] @ V.phi[r] + V.phi[r - 1] @ V.xp[s - 1]).scale(q2i)
            ok, w = _meq(lhs, rhs, f)
            rep.add("phi_x_homogeneous", (r, s), ok, w)

    for r in range(0, T + 1):
        for k in range(max(-W, r - W), W + 1):
            lhs = V.xp[k] @ V.phi[r]
            rhs = (V.phi[r] @ V.xp[k]).scale(q2)
            for s in range(1, r + 1):
                term = V.phi[r - s] @ V.xp[k - s]
                rhs = rhs + term.scale(q4m1 * q ** (2 * (s - 1)))
            ok, w = _meq(lhs, rhs, f)
            rep.add("phi_x_expansion", (r, k), ok, w)

    zeroM = Matrix.zeros(V.dim, V.dim, f)
    for m in range(-1, T):
        lhs = V.xm[1] @ V.phi[m + 1] - (V.phi[m + 1] @ V.xm[1]).scale(q2i)
        if m >= 0:
            rhs = (V.xm[0] @ V.phi[m] - (V.phi[m] @ V.xm[0]).scale(q2)).scale(q2i)
        else:
            rhs = zeroM
        ok, w = _meq(lhs, rhs, f)
        rep.add("phi_xminus_qcomm", (m,), ok, w)
    return rep
