"""The tower layer: coideal current families on certified modules.

A realization starts from the seeds

    B_j = F_j - c_j E_j K_j^-1 + s_j K_j^-1,       j = 0, .., N,

on a module with Chevalley data (``eta_bmats``); ``verify_iserre`` checks
their i-Serre relations at every rank.  One parameter type
(RankNParams) and one family type (RankNFamily) serve every rank; rank one,
the q-Onsager algebra, is N = 1 with its towers at node 1.  One generator,
``generate_family``, serves every rank: it builds the B_j once, certifies
them by their i-Serre relations, and seeds each finite node i through
``_tower_seeds`` with A_{i,-1}, the dressed bracket of ``node_bracket`` on
the seed matrices (q^-2 c0^-1 B0 at N = 1).  One core, ``_grow_family``,
builds every family from the B_j and these seeds: the two-sided ladder
A_r, the commuting charges H_m and the central coefficients Theta_m with
their reweighted forms.  The ladder and the Theta towers are built at
once; H_m is the log of the Theta series and is grown on its first read,
so a check pays only for the charges it reads.  Equal B_j and seeds give
equal towers, so the rank-one anchor of ``ranka`` compares seeds.
The rank-one suites below read node 1 and refuse other ranks through one
guard (``_rank_one``); the rank-N suites, the transpose dual among them,
live in ``ranka``.  All series are truncated, nothing is formally inverted.
"""

from __future__ import annotations

from collections.abc import Mapping
from itertools import islice

from .errors import DomainError
from .linmat import Matrix, ProductMemo, combine, qbracket, relation, serre_sides
from .loopsl2 import AffineModule, _refuse_failure
from .report import CheckReport
from .scalars import ExactField, Q, Scalar, parse_scalar
from .series import FPoly, RationalFunction, log_terms, pade_reconstruct


def _as_scalar(x) -> Scalar:
    if isinstance(x, Scalar):
        return x
    if isinstance(x, str):
        return parse_scalar(x)
    if isinstance(x, int):
        return Scalar(x)
    raise DomainError(f"cannot interpret {x!r} as an exact coefficient")


# -- parameters --------------------------------------------------------------------


class RankNParams:
    """Node parameters (c_j, s_j) for j in I; every c_j must be nonzero.

    All are exact scalars regardless of the computation backend; they get
    mapped through the module's field at generation time.
    """

    __slots__ = ("c", "s")

    def __init__(self, c, s=None):
        c = tuple(_as_scalar(x) for x in c)
        if len(c) < 2:
            raise DomainError("parameter tuples need at least the two nodes of A_1")
        if s is None:
            s = [0] * len(c)
        s = tuple(_as_scalar(x) for x in s)
        if len(s) != len(c):
            raise DomainError(f"c has {len(c)} entries but s has {len(s)}")
        for j, x in enumerate(c):
            if not x:
                raise DomainError(f"c_{j} = 0 is outside the parameter domain")
        # A free s_j needs every bond at node j to be even: with a single
        # bond present the dressed generators pick up s-linear corrections
        # to the cubic relations and stop representing the algebra.  Only
        # the two-node diagram (double bond) admits nonzero shifts.
        if len(c) > 2 and any(s):
            j = next(j for j, x in enumerate(s) if x)
            raise DomainError(
                f"s_{j} != 0 needs every bond at node {j} to be even; "
                f"rank {len(c) - 1} has single bonds"
            )
        self.c = c
        self.s = s

    @property
    def N(self) -> int:
        return len(self.c) - 1

    @property
    def C(self) -> Scalar:
        """The recursion constant C = q^(2N+2) c_0 c_1 .. c_N."""
        acc = Q ** (2 * self.N + 2)
        for x in self.c:
            acc = acc * x
        return acc

    def kk(self, i: int) -> Scalar:
        """The central dressing value KK_i = q^2 c_i."""
        return Q * Q * self.c[i]

    def cconst(self, i: int) -> Scalar:
        """C_i = C^-1 KK_i."""
        return self.kk(i) / self.C

    @property
    def s_is_zero(self) -> bool:
        return not any(self.s)

    def with_s_zero(self) -> "RankNParams":
        return RankNParams(self.c)

    def describe(self) -> str:
        cs = ", ".join(str(x) for x in self.c)
        ss = ", ".join(str(x) for x in self.s)
        return f"c = ({cs}), s = ({ss})"


def OnsagerParams(c0, c1, s0=0, s1=0) -> RankNParams:
    """Rank-one parameters: weights c = (c0, c1), shifts s = (s0, s1)."""
    return RankNParams((c0, c1), (s0, s1))


def _rank_one(params: RankNParams) -> RankNParams:
    """The guard of the rank-one suites, which read nodes 0 and 1 only."""
    if params.N != 1:
        raise DomainError(f"a rank-one suite needs N = 1, got rank {params.N} "
                          "parameters")
    return params


class _Ctx:
    """Field-mapped rank-one constants shared by the checkers."""

    __slots__ = ("params", "field", "c0", "c1", "s0", "s1", "C", "Cinv",
                 "q2", "qm2", "kap")

    def __init__(self, params: RankNParams, field):
        f = field
        self.params = _rank_one(params)
        self.field = f
        self.c0, self.c1 = (f.from_scalar(x) for x in params.c)
        self.s0, self.s1 = (f.from_scalar(x) for x in params.s)
        self.C = f.from_scalar(params.C)
        self.Cinv = f.one / self.C
        self.q2 = f.q * f.q
        self.qm2 = f.one / self.q2
        self.kap = f.q - f.one / f.q


class _Charges(Mapping):
    """The charges H_1..H_T of one node, each grown on its first read.

    1 + Σ (q - q^-1) Theta_m z^m = exp((q - q^-1) Σ H_m z^m), so reading
    H[m] runs the log recurrence of ``series.log_terms`` on the Theta it was
    made with, in ascending order up to m: each H_n is made once, after
    n - 1 matrix products, and (q - q^-1) Theta_n only when the recurrence
    reaches n.  H[1] is the H1 the tower was seeded with.  A key outside
    1..T raises KeyError and grows nothing.
    """

    __slots__ = ("_grown", "_logs", "_kinv", "_T")

    def __init__(self, H1: Matrix, theta: dict, T: int, f):
        kap = f.q - f.one / f.q
        self._grown = {1: H1}
        # H[1] is H1 itself (L_1 / kap may round it differently), so the
        # charges read the log from L_2 on
        self._logs = islice(log_terms(lambda n: theta[n] * kap, f), 1, None)
        self._kinv = f.one / kap
        self._T = T

    def __getitem__(self, m) -> Matrix:
        if m not in self:
            raise KeyError(m)
        grown = self._grown
        while len(grown) < m:
            grown[len(grown) + 1] = next(self._logs) * self._kinv
        return grown[m]

    def __contains__(self, m):
        return m in range(1, self._T + 1)

    def __iter__(self):
        return iter(range(1, self._T + 1))

    def __len__(self):
        return self._T


class RankNFamily:
    """Per-node towers over a common module.

    ``B[j]`` are the seeds for j in I.  For each seeded finite node i,
    ``A[i][r]`` (|r| <= R), ``H[i][m]`` and ``theta[i][m]`` (m <= T)
    with the grave reweighting.  ``A`` and the Theta towers are dicts;
    ``H[i]`` is a read-only mapping over m = 1..T that grows each H_{i,m}
    on its first read.  A rank-one family has the one node i = 1.

    Theta_{i,0} = 1/(q - q^-1), and the grave tower is the series
    (q - q^-1) Theta_i(z) (1 - q^-2 C z^2)/(1 - C z^2), so its index 0 is
    the identity.  Each tower is stored once: the acute series, the grave
    one over (q - q^-1), and H_{i,1}/[2] are scalings of stored ones.
    """

    __slots__ = ("typ", "module", "params", "field", "B", "A", "H",
                 "theta", "theta_grave", "R", "T", "I")

    def __init__(self, module: AffineModule, params: RankNParams, field):
        self.typ = module.typ
        self.module = module
        self.params = params
        self.field = field
        self.B = {}
        self.A = {}
        self.H = {}
        self.theta = {}
        self.theta_grave = {}
        self.R = 0
        self.T = 0
        self.I = None

    def a(self, i: int, r: int) -> Matrix:
        try:
            return self.A[i][r]
        except KeyError:
            raise DomainError(
                f"A_({i},{r}) outside the generated window |r| <= {self.R}; "
                "regenerate with a larger R"
            ) from None

    def h(self, i: int, m: int) -> Matrix:
        try:
            return self.H[i][m]
        except KeyError:
            raise DomainError(
                f"H_({i},{m}) outside the generated window 1 <= m <= {self.T}"
            ) from None

    def theta_at(self, i: int, m: int) -> Matrix:
        """Theta_{i,m}, with the vanishing continuation for m < 0."""
        if m < 0:
            return Matrix.zeros(self.module.dim, self.module.dim, self.field)
        try:
            return self.theta[i][m]
        except KeyError:
            raise DomainError(
                f"Theta_({i},{m}) outside the generated window m <= {self.T}"
            ) from None


# -- seeds -----------------------------------------------------------------------


def _seed(M: AffineModule, j: int, c, s) -> Matrix:
    """B_j = F_j - c E_j K_j^-1 + s K_j^-1 on M, with c and s in M's field."""
    return M.F[j] - (M.E[j] @ M.Kcinv[j]).scale(c) + M.Kcinv[j].scale(s)


def eta_bmats(module: AffineModule, params: RankNParams):
    """The seed matrices B_j = F_j - c_j E_j K_j^-1 + s_j K_j^-1."""
    typ = module.typ
    if params.N != typ.N:
        raise DomainError(
            f"parameters for rank {params.N} on a rank {typ.N} module"
        )
    if not module.E:
        raise DomainError("module carries no Chevalley data")
    f = module.field
    return {j: _seed(module, j, f.from_scalar(params.c[j]), f.from_scalar(params.s[j]))
            for j in typ.nodes}


def pk_bracket(ys, qv):
    """The left-nested q-bracket P_1(y) = y, P_{k+1} = [P_k, y_{k+1}]_q.

    The arguments may be matrices or seed expressions (``ranka.BExpr``);
    ``qv`` is the bracket weight in the matching scalar domain.
    """
    ys = list(ys)
    if not ys:
        raise DomainError("bracket of an empty tuple")
    acc = ys[0]
    for y in ys[1:]:
        acc = acc @ y - (y @ acc).scale(qv)
    return acc


def node_bracket(X, i: int, N: int, qv):
    """[P_{i-1}(X_{i-1}, .., X_1), P_{N-i+1}(X_{i+1}, .., X_N, X_0)]_qv.

    The bracket of node i's tower seed A_{i,-1} = C_i [..]_q, on generators
    ``X[j]`` of any kind (matrices or seed expressions); at i = 1 the left
    factor is empty and the bracket is the right factor alone, which at
    N = 1 is X_0.
    """
    rb = pk_bracket([X[j] for j in range(i + 1, N + 1)] + [X[0]], qv)
    if i == 1:
        return rb
    lb = pk_bracket([X[j] for j in range(i - 1, 0, -1)], qv)
    return lb @ rb - (rb @ lb).scale(qv)


def _tower_seeds(B, params: RankNParams, f):
    """The seed A_{i,-1} = o(i) C_i ``node_bracket``(B, i, N, q) of every
    finite node, on the seed matrices B; at N = 1, q^-2 c0^-1 B0.

    Calibration sign o(i) = (-1)^(i-1), alternating on adjacent nodes.
    Flipping one node's seed rescales A_{i,r} by o^r and H_{i,m} by o^m,
    which every same-node relation absorbs, so the braided word pins each
    tower only up to this sign.  The cross-node relations do fix it, and
    they force the signs to alternate along the path; o(1) = +1 keeps the
    single-node case aligned with the rank-one module.
    """
    N = params.N
    return {i: node_bracket(B, i, N, f.q).scale(
                f.from_scalar(params.cconst(i) if i % 2 else -params.cconst(i)))
            for i in range(1, N + 1)}


# -- family generation -----------------------------------------------------------


def _grow_tower(A0: Matrix, Am1: Matrix, H1: Matrix, C, c, T: int, R: int,
                I: Matrix):
    """One node's towers from its seeds A[0], A[-1] and its charge H[1].

    ``_grow_family`` runs it once per seeded node, at every rank.  With
    Hbar1 = H[1]/[2] the ladder ascends and descends via
    A[r+1] = [Hbar1, A[r]] + C A[r-1], the Theta tower follows the
    two-step rule with the index-0 correction and the node weight c, and
    H is the log of the Theta series, a ``_Charges`` mapping that grows
    H[2..T] only as far as they are read.  The grave tower is the acute
    series Theta(z) (1 - q^-2 C z^2)/(1 - C z^2) times (q - q^-1), so
    that index 0 becomes the identity.

    Each ladder step, each Theta step and each acute coefficient is one
    ``combine`` of the products and matrices it reads, with the rule's
    constants multiplied into its coefficients: over the numeric backend
    one row pass that builds one matrix, over the exact one the image
    operations of the bracketed rule.  A grave coefficient stays one
    scaling of its acute one, which is a local: spreading q - q^-1 over
    the terms would scale each of them a second time.

    Returns (A, H, theta, theta_grave).
    """
    f = I.field
    qm2 = f.one / (f.q * f.q)
    kap = f.q - f.one / f.q
    Cinv = f.one / C
    Hbar1 = H1.scale(f.one / f.qint(2))

    A = {0: A0, -1: Am1}
    for r in range(0, R):
        A[r + 1] = combine(((1, None, Hbar1, A[r]), (-1, None, A[r], Hbar1),
                            (1, C, A[r - 1])))
    for r in range(-1, -R, -1):
        A[r - 1] = combine(((1, Cinv, A[r + 1]), (-1, Cinv, Hbar1, A[r]),
                            (1, Cinv, A[r], Hbar1)))

    # Theta[s+2] = C (q^-2 Theta[s] + c^-1 ([A_-1, A_s+1]_{q^-2}
    #     - q^-2 [A_0, A_s]_{q^2})) - C Theta[0] at s = 0, expanded into
    # its four products
    theta0 = I.scale(f.one / kap)
    theta = {0: theta0, 1: H1}
    Cq = C * qm2
    Cc = C / c
    Ccq = Cc * qm2
    for s in range(0, T - 1):
        terms = [(1, Cq, theta[s]), (1, Cc, A[-1], A[s + 1]), (1, Cc, A[s], A[0]),
                 (-1, Ccq, A[s + 1], A[-1]), (-1, Ccq, A[0], A[s])]
        if s == 0:
            terms.append((-1, C, theta0))
        theta[s + 2] = combine(terms)

    # For commuting Theta[1..T] the log recurrence gives exactly the formal
    # log.  For Theta that do not commute, the H it returns do not commute
    # either: exp(log(S)) == S holds for any S, so each Theta[n] is a
    # polynomial in H[1..n].  So rel1 (rank one) and grel1 (rank N) still
    # fail a broken tower inside their windows, as h_commute does for the
    # h_k that loopsl2 takes from the same log, and no commutation check is
    # paid here.  H[m] is grown when a check first reads it; no check reads
    # past its window mmax, and the spectra read Theta only.
    H = _Charges(H1, theta, T, f)

    # acute[s] = Theta[s] + sum_k (1 - q^-2) C^k Theta[s - 2k]
    wc = [(f.one - qm2) * C]
    for k in range(2, T // 2 + 1):
        wc.append(wc[-1] * C)
    grave = {}
    for s in range(0, T + 1):
        acute = combine([(1, None, theta[s])]
                        + [(1, wc[k - 1], theta[s - 2 * k]) for k in range(1, s // 2 + 1)])
        grave[s] = acute.scale(kap)
    return A, H, theta, grave


def _grow_family(module: AffineModule, params: RankNParams, B, am1, T: int,
                 R: int) -> RankNFamily:
    """The one core that builds every family, rank one included.

    ``B`` holds the seeds B_j of every node and ``am1`` the seed A_{i,-1}
    of each node i to grow.  Each node gets A_{i,0} = B_i and

        H_{i,1} = q^2 C_i^-1 [A_{i,-1}, B_i]_{q^-2},

    and then its towers from ``_grow_tower`` with the global C and node
    weight c_i.
    """
    f = module.field
    fam = RankNFamily(module, params, f)
    fam.T, fam.R = T, R
    fam.I = Matrix.identity(module.dim, f)
    fam.B = B
    C = f.from_scalar(params.C)
    qm2 = f.one / (f.q * f.q)
    for i, Am1 in am1.items():
        c = f.from_scalar(params.c[i])
        H1 = qbracket(Am1, B[i], qm2).scale(f.from_scalar(Q * Q / params.cconst(i)))
        fam.A[i], fam.H[i], fam.theta[i], fam.theta_grave[i] = _grow_tower(
            B[i], Am1, H1, C, c, T, R, fam.I)
    return fam


def generate_family(p: RankNParams, V: AffineModule, T: int = 6,
                    R: int | None = None) -> RankNFamily:
    """The family on V at any rank: A_{i,r} (|r| <= R), H_{i,m} and
    Theta_{i,m} (m <= T) at every finite node i.

    The seeds B_j are built once and certified by their i-Serre relations,
    the entries of ``verify_iserre``; a failing entry raises
    ConstructionError, as the module builders do.  Each node is then seeded
    by ``_tower_seeds`` (at N = 1, A_{1,-1} = q^-2 c0^-1 B0) and grown by
    ``_grow_family``; default R = 2T keeps every relation check in range.
    Windows without T >= 1 and R >= T - 1 are refused before any seed is
    built, and parameters of another rank than V's by ``eta_bmats``.
    """
    if R is None:
        R = 2 * T
    if T < 1 or R < max(1, T - 1):
        raise DomainError(f"need T >= 1 and R >= T - 1, got T={T}, R={R}")
    B = eta_bmats(V, p)
    _refuse_failure(V, verify_iserre(V, p, B))
    return _grow_family(V, p, B, _tower_seeds(B, p, V.field), T, R)


# -- presentation checks ---------------------------------------------------------


def verify_iserre(module: AffineModule, params: RankNParams, B) -> CheckReport:
    """The i-Serre relations of the seeds B_j = ``B[j]`` (``eta_bmats``),
    one entry per ordered pair of nodes i != j, at every rank.

    With n = 1 - a_ij, the nested bracket of ``serre_sides`` is
    ad_{q^(1-n)}(B_i) .. ad_{q^(n-1)}(B_i) B_j, and by bond type

        a_ij =  0:  B_i B_j = B_j B_i,
        a_ij = -1:  ad_{q^-1}(B_i) ad_q(B_i) B_j = -q c_i B_j,
        a_ij = -2:  ad_{q^-2}(B_i) ad_1(B_i) ad_{q^2}(B_i) B_j
                        = -q c_i [2]^2 [B_i, B_j]   (q-Dolan-Grady)

    (Letzter 2002; Kolb, Adv. Math. 267, 2014).  Each entry compares the
    left side of the outermost bracket with its right side plus the bond's
    right-hand term, as ``relation`` judges it.
    """
    f = module.field
    typ = module.typ
    two = f.qint(2)
    rep = CheckReport(f"i-Serre relations on {module.describe()} ({params.describe()})")
    for i in typ.nodes:
        qc = f.q * f.from_scalar(params.c[i])
        for j in typ.nodes:
            if i == j:
                continue
            n = 1 - typ.cartan(i, j)
            extra = ()
            if n == 2:
                extra = ((-1, qc, B[j]),)
            elif n == 3:
                qc4 = qc * two * two
                extra = ((-1, qc4, B[i], B[j]), (1, qc4, B[j], B[i]))
            ok, w = relation(*serre_sides(B[i], B[j], n, f.q, extra), f)
            rep.add("iserre", (i, j), ok, w)
    return rep


def _theta_exchange(memo: ProductMemo, A, theta, c, C, r: int, s: int):
    """Both sides of the same-node Theta exchange relation at r <= s, as
    lists of ``combine`` terms for ``relation``:

        [A_r, A_{s+1}]_{q^-2} - q^-2 [A_{r+1}, A_s]_{q^2}
            = c (C^r Theta_{s-r+1} - q^-2 C^{r+1} Theta_{s-r-1}) + (r <-> s)

    for one node's ladder ``A`` and Theta tower ``theta`` (dicts), node
    weight c and recursion constant C.  Theta vanishes below index 0, so
    the right side leaves out Theta_{r-s-1} always, Theta_{s-r-1} at s = r
    and Theta_{r-s+1} at s >= r + 2.  The ladder products come from
    ``memo``: over a window of (r, s) the pair (A_a, A_b) comes back from
    (r, s) = (a, b - 1) and (a - 1, b).  They stay materialized, since each
    is read by up to four (r, s), and are the left side's matrix terms;
    the right side's are the Theta terms.
    """
    f = A[r].field
    qm2 = f.one / (f.q * f.q)
    mul = memo.mul
    lhs = [(1, None, mul(A[r], A[s + 1])), (-1, qm2, mul(A[s + 1], A[r])),
           (-1, qm2, mul(A[r + 1], A[s])), (1, None, mul(A[s], A[r + 1]))]
    rhs = [(1, c * C**r, theta[s - r + 1])]
    if s > r:
        rhs.append((-1, qm2 * c * C ** (r + 1), theta[s - r - 1]))
    if s < r + 2:
        rhs.append((1, c * C**s, theta[r - s + 1]))
    return lhs, rhs


def _check_windows(fam, rwin: int, mmax: int):
    """Refuse negative relation windows and windows that reach past the
    generated towers; returns the (R, T) the window reads up to."""
    if rwin < 0 or mmax < 0:
        raise DomainError(f"window (rwin={rwin}, mmax={mmax}) must be nonnegative")
    need_R = rwin + max(mmax, 1)
    need_T = max(mmax, 2 * rwin + 1)
    if fam.R < need_R or fam.T < need_T:
        raise DomainError(
            f"window (rwin={rwin}, mmax={mmax}) needs R >= {need_R} and "
            f"T >= {need_T}; the family has R={fam.R}, T={fam.T}"
        )
    return need_R, need_T


def verify_presentation(fam: RankNFamily, rwin: int, mmax: int) -> CheckReport:
    """rel1-rel3 on a rank-one family, exactly, over the given windows.

    The window reads H_1..H_mmax and Theta up to index 2 rwin + 1.  rel3 is
    symmetric under swapping (r, s), so only r <= s is walked.  rel1 walks
    m <= n, and at (m, m) it compares the one memo product H_m H_m with
    itself: those entries pass for every H_m with finite entries and check
    nothing else.  Every entry is judged by ``relation``.
    """
    ctx = _Ctx(fam.params, fam.field)
    _check_windows(fam, rwin, mmax)
    f = ctx.field
    A, H = fam.A[1], fam.H[1]
    rep = CheckReport(
        f"presentation relations ({fam.params.describe()}, rwin={rwin}, m<={mmax})"
    )

    memo = ProductMemo()  # H[m] @ H[m] once on the diagonal
    for m in range(1, mmax + 1):
        for n in range(m, mmax + 1):
            ok, w = relation([(1, None, memo.mul(H[m], H[n]))],
                             [(1, None, memo.mul(H[n], H[m]))], f)
            rep.add("rel1", (m, n), ok, w)

    for m in range(1, mmax + 1):
        coef = f.qint(2 * m) * f.from_fraction(1, m)
        Cm = ctx.C**m
        coef_Cm = coef * Cm
        for r in range(-rwin, rwin + 1):
            ok, w = relation([(1, None, H[m], A[r]), (-1, None, A[r], H[m])],
                             [(1, coef, A[r + m]), (-1, coef_Cm, A[r - m])], f)
            rep.add("rel2", (m, r), ok, w)

    memo = ProductMemo()
    for r in range(-rwin, rwin + 1):
        for s in range(r, rwin + 1):
            ok, w = relation(*_theta_exchange(memo, A, fam.theta[1], ctx.c1, ctx.C, r, s), f)
            rep.add("rel3", (r, s), ok, w)
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


def rationality_check(fam: RankNFamily):
    """Rational closure of the A-ladder and C-symmetry of the Theta closure.

    Per entry: the ascending coefficients A_0..A_R determine (by rational
    reconstruction) a function whose expansion at infinity must reproduce
    the descending coefficients with a sign, coeff(z^-r) = -A_{-r}.  From
    the closure, the reweighted Theta series is rebuilt as an honest
    rational function and checked for invariance under z -> C^-1 z^-1.
    Reconstruction failures are reported as inconclusive entries, not
    silently skipped; raise R and retry.  The closure is expanded to the
    family's order T.
    """
    T = fam.T
    f = fam.field
    ctx = _Ctx(fam.params, f)
    n = fam.I.n
    R = fam.R
    A = fam.A[1]
    rep = CheckReport(f"rationality / C-symmetry ({fam.params.describe()})")

    # the two-term recursion itself, coefficientwise over the whole window,
    # with H_1/[2] scaled as _grow_tower scales it
    Hb = fam.H[1][1].scale(f.one / f.qint(2))
    for r in range(-R + 2, R + 1):
        ok, w = relation([(1, None, A[r])],
                         [(1, None, Hb, A[r - 1]), (-1, None, A[r - 1], Hb), (1, ctx.C, A[r - 2])],
                         f)
        rep.add("recursion", (r,), ok, w)

    budget = max((R - 1) // 2, 0)
    closure = [[None] * n for _ in range(n)]
    complete = True
    for i in range(n):
        for j in range(n):
            rf = pade_reconstruct([A[r].rows[i][j] for r in range(R + 1)],
                                  budget, budget, f)
            if rf is None:
                complete = False
                rep.add("closure", (i, j), False,
                        "inconclusive: no rational closure in window; raise R")
                continue
            closure[i][j] = rf
            rep.add("closure", (i, j), True)
            # the closure must vanish at infinity: no z^k with k >= 0
            top = rf.num.degree - rf.den.degree
            inf = rf.expand_at_infinity(R) if top <= 0 else None
            ok, wit = True, None
            if top > 0 or not f.is_zero(inf[0]):
                ok, wit = False, f"nonzero coefficient at z^{max(top, 0)}"
            else:
                for r in range(1, R + 1):
                    if not f.eq(inf[r], -A[-r].rows[i][j]):
                        ok, wit = False, f"tail mismatch at z^-{r}"
                        break
            rep.add("tail", (i, j), ok, wit)

    if not complete:
        return rep, {"closure": closure, "theta_closure": None}

    # Theta closure: Theta0 + c1^-1 C z (br1 - q^-2 z br2) / (1 - C z^2),
    # with br1 = [A_-1, closure]_{q^-2} and br2 = [A_0, closure]_{q^2}
    br1 = _rf_bracket(A[-1], closure, ctx.qm2, f)
    br2 = _rf_bracket(A[0], closure, ctx.q2, f)
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

    theta_ser = [[theta_rf[i][j].expand_at_zero(T) for j in range(n)]
                 for i in range(n)]
    # against the acute series, the grave tower over (q - q^-1)
    for s in range(0, T + 1):
        acute = fam.theta_grave[1][s].scale(f.one / ctx.kap).rows
        ok, wit = True, None
        for i in range(n):
            for j in range(n):
                got = theta_ser[i][j][s]
                want = acute[i][j]
                if not f.eq(got, want):
                    ok, wit = False, f"entry ({i},{j})"
                    break
            if not ok:
                break
        rep.add("closure_expansion", (s,), ok, wit)

    for i in range(n):
        for j in range(n):
            g = theta_rf[i][j]
            sym = g.scale_z(ctx.Cinv).inv_z()
            ok = g == sym
            rep.add("csymmetry", (i, j), ok,
                    None if ok else f"entry ({i},{j}) not C-symmetric")

    return rep, {"closure": closure, "theta_closure": theta_rf}


# -- one-dimensional realizations ------------------------------------------------


def _onedim_quartic(ctx: _Ctx) -> FPoly:
    """The quartic numerator of the closed form, before reduction."""
    t = ctx.qm2 * ctx.s0 / ctx.c0
    alpha = ctx.C * t * t + ctx.s1 * ctx.s1
    beta = t * ctx.s1
    w = ctx.kap * ctx.kap / (ctx.field.q * ctx.c1)
    return FPoly(
        [ctx.field.one,
         w * ctx.C * beta,
         w * ctx.C * alpha - (ctx.C + ctx.C),
         w * ctx.C * ctx.C * beta,
         ctx.C * ctx.C],
        ctx.field,
    )


def onedim_closed_form(p: RankNParams, field=None) -> RationalFunction:
    """The spectral series of a one-dimensional realization, closed form.

    D(z) = [w C (alpha z + beta (1 + C z^2)) z + (1 - C z^2)^2] / (1 - C z^2)^2
    with w = q^-1 (q - q^-1)^2 c1^-1, alpha = C (q^-2 c0^-1 s0)^2 + s1^2,
    beta = q^-2 c0^-1 s0 s1.
    """
    f = field or ExactField()
    ctx = _Ctx(p, f)
    den = FPoly([f.one, f.zero, -ctx.C], f)
    return RationalFunction(_onedim_quartic(ctx), den * den)


def onedim_character(p: RankNParams, T: int = 6, field=None):
    """Dual-path check of one-dimensional realizations.

    Route one: generate the family on the one-dimensional module and read
    off its grave tower.  Route two: the closed-form rational series.
    Both must agree coefficientwise; the parity-power values of the
    ladder and the C-symmetry of the closed form are checked alongside.
    Returns (report, closed form).
    """
    f = field or ExactField()
    ctx = _Ctx(p, f)
    fam = generate_family(p, AffineModule.trivial(1, f), T=T, R=2 * T)
    rep = CheckReport(f"one-dimensional dual path ({p.describe()})")

    t = ctx.qm2 * ctx.s0 / ctx.c0
    for r in range(-fam.R, fam.R + 1):
        # even ladder entries carry s1, odd ones the reduced s0 weight
        if r % 2 == 0:
            want = ctx.C ** (r // 2) * ctx.s1
        else:
            want = ctx.C ** ((r + 1) // 2) * t
        got = fam.A[1][r].rows[0][0]
        ok = f.eq(got, want)
        rep.add("ladder_value", (r,), ok, None if ok else f"A[{r}] = {got}")

    D = onedim_closed_form(p, f)
    ser = D.expand_at_zero(T)
    for s in range(0, T + 1):
        got = fam.theta_grave[1][s].rows[0][0]
        want = ser[s]
        ok = f.eq(got, want)
        rep.add("grave_vs_closed_form", (s,), ok, None if ok else f"order {s}")

    sym = D.scale_z(ctx.Cinv).inv_z()
    ok = D == sym
    rep.add("csymmetry", (), ok)
    return rep, D


def onedim_drf(p: RankNParams):
    """Exact spectral fraction of a one-dimensional realization.

    The closed form is D(z) = N(z)/(1 - C z^2)^2 with a quartic N, and
    D(z) F(z) F(C^-1 z^-1) = 1 for a fraction F whose poles are one root
    of N from each pair {g, C^-1 g^-1}.  Two entries, both over Q(q):
    ``reciprocity``, N(z) = C^2 z^4 N(C^-1 z^-1), so the roots pair off;
    and ``degeneration``, deg F = half the degree of the reduced D (roots
    of N on the fixed locus z^2 = C^-1 cancel), checked against the
    parameter criteria: F constant iff s0 = s1 = 0; numerator and
    denominator of degree one iff s0, s1 both nonzero with
    c1 s0^2 = c0 s1^2; degree two otherwise.
    Returns (report, data) with the reduced closed form and deg F.
    """
    f = ExactField()
    ctx = _Ctx(p, f)
    rep = CheckReport(f"one-dimensional spectral fraction ({p.describe()})")
    N = _onedim_quartic(ctx)
    ok = N == N.scale_z(ctx.Cinv).reverse(4).scale(ctx.C * ctx.C)
    rep.add("reciprocity", (), ok,
            None if ok else "the quartic is not C-reciprocal")

    D = onedim_closed_form(p, f)
    (c0, c1), (s0, s1) = p.c, p.s
    if p.s_is_zero:
        expected = 0
    elif s0 and s1 and c1 * s0 * s0 == c0 * s1 * s1:
        expected = 1
    else:
        expected = 2
    dn, dd = D.num.degree, D.den.degree
    observed = dd // 2 if dn == dd and dd % 2 == 0 else None
    ok = observed == expected
    rep.add("degeneration", (), ok,
            None if ok else
            f"reduced degrees {dn}/{dd}, criteria say deg F = {expected}")
    return rep, {"closed_form": D, "degree": observed}
