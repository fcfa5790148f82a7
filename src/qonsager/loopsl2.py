"""Finite-dimensional modules over the quantum affine algebra of type A_N,
with rank one (N = 1) carrying the loop generators of sl2 as well.

An AffineModule is given by its Chevalley action E_i, F_i, K_i on a chosen
basis, for every node i of the affine diagram (AffineTypeA), and by the
grading of that basis in simple-root coordinates relative to basis vector
0.  Tensor products go through the coproduct

    Delta(E_i) = E_i x 1 + K_i x E_i,  Delta(F_i) = F_i x K_i^-1 + 1 x F_i,
    Delta(K_i) = K_i x K_i,

sum the factor degrees, and remember their factors (kron order: the left
factor is the slow index).  verify_affine_presentation is the one
Chevalley-level relation suite, for every rank; every module a builder or
a tensor product hands back has passed it.  It writes each q-Serre
relation as a nested q-bracket, with n = 1 - a_ij,

    ad_{q^(1-n)}(X_i) .. ad_{q^(n-3)}(X_i) ad_{q^(n-1)}(X_i) X_j = 0,
    ad_v(X)Y = XY - vYX,

which equals the alternating q-binomial sum of matrix powers, and compares
the two sides of the outermost bracket (linmat.serre_sides): relation
judges a numeric equality at the scale of its two sides, which a bracket
tested against the zero matrix would lose, and an exact one by the zero
test of their difference.

At rank one a module may also carry the loop generators: the invertible
diagonal K, the mode operators x^+_k and x^-_k for |k| up to a window, the
commuting h_k, and the coefficients psi_k / phi_{-k} of the two diagonal
generating series

    Psi(z) = K exp( (q - q^-1) sum_{k>=1} h_k   z^k ),
    Phi(z) = K^-1 exp( -(q - q^-1) sum_{k>=1} h_{-k} z^-k ),

tied to the Chevalley generators by the standard dictionary

    E_1 = x^+_0,  F_1 = x^-_0,  K_1 = K,
    E_0 = -K^-1 x^-_1,  F_0 = -x^+_{-1} K,  K_0 = K^-1.

extend_loop_data is the one source of loop data: it inverts the dictionary
on the Chevalley action, climbs the mode ladders with ad h_{+-1}, reads the
diagonal series off the mixed brackets and h_k off their logarithms.  It
serves evaluation modules and tensor products alike.

build_evaluation constructs the (n+1)-dimensional evaluation module V_n(a)
in Chevalley form: on the weight basis v_0..v_n (top weight first,
deg v_j = -j) the dictionary is read against the mode operators

    x^-_k v_j = mu_j^k     [j+1]   v_{j+1},      mu_j = a q^{n-2j},
    x^+_k v_j = mu_{j-1}^k [n-j+1] v_{j-1},      K v_j = q^{n-2j} v_j,

at k = 0 and k = +-1 only.  The action is certified against the affine
presentation, and the loop data that extend_loop_data derives from it
against the full loop relation suite, before the module is handed back
(ConstructionError otherwise).

Everything works over either coefficient backend: the Chevalley action is
built exactly and mapped entrywise into the module's field, where its loop
data is then derived.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import reduce
from operator import matmul

from .errors import ConstructionError, DomainError
from .linmat import (Grading, Matrix, ProductMemo, commutator, degree_components, relation,
                     serre_sides)
from .report import CheckReport
from .scalars import ExactField, Q, Scalar, parse_scalar
from .series import series_exp, series_log

__all__ = [
    "EvalParams",
    "AffineTypeA",
    "AffineModule",
    "build_evaluation",
    "verify_affine_presentation",
    "verify_drinfeld_relations",
    "tensor",
    "extend_loop_data",
    "phi_series",
    "verify_aux_identities",
]

_EXACT = ExactField()


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


# -- the diagram and the module type ----------------------------------------------


class AffineTypeA:
    """The affine A_N diagram: node set, Cartan pairing, rotation.

    a_ii = 2 and, for N >= 2, a_ij = -1 exactly when i - j = +-1 mod N+1;
    at N = 1 the two nodes are joined by a double bond, a_01 = a_10 = -2.
    """

    __slots__ = ("N",)

    def __init__(self, N: int):
        if N < 1:
            raise DomainError(f"rank must be at least 1, got N={N}")
        self.N = N

    @property
    def nodes(self):
        return range(self.N + 1)

    @property
    def finite_nodes(self):
        return range(1, self.N + 1)

    def cartan(self, i: int, j: int) -> int:
        """Affine pairing a_ij on the full node set."""
        self._check(i)
        self._check(j)
        if i == j:
            return 2
        if self.N == 1:
            return -2
        d = (i - j) % (self.N + 1)
        return -1 if d in (1, self.N) else 0

    def finite_cartan(self, i: int, j: int) -> int:
        """Pairing of the finite subdiagram on I0 = {1..N}."""
        if not (1 <= i <= self.N and 1 <= j <= self.N):
            raise DomainError(f"finite node out of range: ({i},{j}), N={self.N}")
        if i == j:
            return 2
        return -1 if abs(i - j) == 1 else 0

    def rotate(self, j: int, p: int = 1) -> int:
        self._check(j)
        return (j + p) % (self.N + 1)

    def alpha(self, i: int):
        """Root-lattice coordinates of the node's simple root; the affine
        node carries minus the highest root."""
        self._check(i)
        if i == 0:
            return tuple([-1] * self.N)
        return tuple(1 if m == i - 1 else 0 for m in range(self.N))

    def _check(self, i):
        if not 0 <= i <= self.N:
            raise DomainError(f"node {i} outside 0..{self.N}")

    def __eq__(self, other):
        return isinstance(other, AffineTypeA) and other.N == self.N

    def __hash__(self):
        return hash(("A", self.N))

    def __repr__(self):
        return f"AffineTypeA(N={self.N})"


class AffineModule:
    """A finite module in Chevalley form over the affine diagram.

    ``E``, ``F``, ``Kc``, ``Kcinv`` are dicts keyed by node in I;
    ``grading`` carries each basis weight relative to basis vector 0, in
    simple-root coordinates (arity N).  ``meta`` holds the printable
    ``name`` and the ``builder`` that made the module; a tensor product
    keeps its two ``factors``.

    Rank-one modules may carry the loop generators as well (empty until
    extend_loop_data derives them): ``K``/``Kinv``, the modes
    ``xp[k]``/``xm[k]`` for |k| <= ``window``, ``h[k]``, and
    ``psi[k]``/``phi[k]`` for k <= ``T``, the coefficients of z^k in Psi(z)
    and of z^-k in Phi(z).
    """

    __slots__ = ("typ", "field", "dim", "E", "F", "Kc", "Kcinv", "grading",
                 "window", "T", "K", "Kinv", "xp", "xm", "h", "psi", "phi",
                 "meta", "factors")

    def __init__(self, typ: AffineTypeA, field):
        self.typ = typ
        self.field = field
        self.dim = 0
        self.E = {}
        self.F = {}
        self.Kc = {}
        self.Kcinv = {}
        self.grading = None
        self.window = None
        self.T = None
        self.K = None
        self.Kinv = None
        self.xp = {}
        self.xm = {}
        self.h = {}
        self.psi = {}
        self.phi = {}
        self.meta = {}
        self.factors = None

    @property
    def has_loop_data(self) -> bool:
        return bool(self.xp)

    def describe(self) -> str:
        return self.meta.get("name", f"affine A{self.typ.N} module, dim {self.dim}")

    @classmethod
    def trivial(cls, N: int, field=None):
        """The one-dimensional module: E = F = 0, K = 1, certified by the
        presentation suite like every built module."""
        f = field if field is not None else _EXACT
        M = cls(AffineTypeA(N), f)
        M.dim = 1
        one = Matrix.identity(1, f)
        zero = Matrix.zeros(1, 1, f)
        for j in M.typ.nodes:
            M.E[j] = zero
            M.F[j] = zero
            M.Kc[j] = one
            M.Kcinv[j] = one
        M.grading = Grading([tuple([0] * N)])
        M.meta = {"name": f"triv_{N}", "builder": "trivial"}
        _refuse_failure(M, verify_affine_presentation(M))
        return M

    def tensor(self, other: "AffineModule") -> "AffineModule":
        """Tensor product along the coproduct (see the module docstring);
        the factor degrees add up.  The presentation suite certifies the
        product, and any failure raises ConstructionError."""
        if self.typ != other.typ:
            raise DomainError("tensor factors over different diagrams")
        if not self.E or not other.E:
            raise DomainError("tensor factors need Chevalley data")
        f = self.field
        if not _same_field(f, other.field):
            raise DomainError("tensor factors live over different backends")
        M = AffineModule(self.typ, f)
        M.dim = self.dim * other.dim
        il = Matrix.identity(self.dim, f)
        ir = Matrix.identity(other.dim, f)
        for j in self.typ.nodes:
            M.E[j] = self.E[j].kron(ir) + self.Kc[j].kron(other.E[j])
            M.F[j] = self.F[j].kron(other.Kcinv[j]) + il.kron(other.F[j])
            M.Kc[j] = self.Kc[j].kron(other.Kc[j])
            M.Kcinv[j] = self.Kcinv[j].kron(other.Kcinv[j])
        M.grading = Grading([
            tuple(x + y for x, y in zip(da, db))
            for da in self.grading.degrees
            for db in other.grading.degrees
        ])
        names = [X.describe() for X in (self, other)]
        M.meta = {"name": "*".join(n if "*" not in n else f"({n})" for n in names),
                  "builder": "tensor"}
        M.factors = (self, other)
        _refuse_failure(M, verify_affine_presentation(M))
        return M


def _same_field(f1, f2) -> bool:
    if f1 is f2:
        return True
    if f1.exact != f2.exact:
        return False
    if f1.exact:
        return True
    return f1.q0 == f2.q0 and f1.tol == f2.tol


def _refuse_failure(M: AffineModule, rep: CheckReport):
    """Raise ConstructionError naming the first failing entry of rep, if any."""
    bad = rep.first_failure()
    if bad is not None:
        raise ConstructionError(
            f"{M.describe()}: relation {bad.name}{bad.indices} failed"
            + (f" [{bad.witness}]" if bad.witness else "")
        )


# -- construction ---------------------------------------------------------------


def _assemble_evaluation(n, a, field) -> AffineModule:
    """Assemble the Chevalley action of V_n(a) without certifying it.

    The link v_j <-> v_{j+1} carries the geometric factor mu_j = a q^{n-2j}
    of x^+ and x^-, which reaches the action through E_0 = -K^-1 x^-_1 and
    F_0 = -x^+_{-1} K.
    """
    d = n + 1
    mu = [a * Q ** (n - 2 * j) for j in range(n)]

    z = _EXACT.zero
    E1, F1, E0, F0 = ([[z] * d for _ in range(d)] for _ in range(4))
    for j in range(n):
        # the link v_j <-> v_{j+1}: x^+_k carries mu_j^k [n-j], x^-_k mu_j^k [j+1]
        up, dn = _EXACT.qint(n - j), _EXACT.qint(j + 1)
        E1[j][j + 1] = up
        F1[j + 1][j] = dn
        E0[j + 1][j] = -(Q ** (2 * j + 2 - n) * mu[j] * dn)
        F0[j][j + 1] = -(Q ** (n - 2 * j - 2) * up / mu[j])
    E1, F1, E0, F0 = (Matrix(rows, _EXACT) for rows in (E1, F1, E0, F0))
    K = Matrix.diagonal([Q ** (n - 2 * j) for j in range(d)], _EXACT)
    Kinv = Matrix.diagonal([Q ** (2 * j - n) for j in range(d)], _EXACT)

    V = AffineModule(AffineTypeA(1), field)
    V.dim = d
    K, Kinv, E1, F1, E0, F0 = (X.map_entries(field.from_scalar, field)
                               for X in (K, Kinv, E1, F1, E0, F0))
    V.E = {1: E1, 0: E0}
    V.F = {1: F1, 0: F0}
    V.Kc = {1: K, 0: Kinv}
    V.Kcinv = {1: Kinv, 0: K}
    V.grading = Grading([(-j,) for j in range(d)])
    V.meta = {"name": f"V{n}({a})", "builder": "build_evaluation"}
    return V


def build_evaluation(p: EvalParams, window: int = 3, T: int = 6,
                     field=None) -> AffineModule:
    """The certified evaluation module V_n(a) with its loop data.

    The Chevalley action is assembled exactly and mapped into ``field``;
    verify_affine_presentation certifies it, and extend_loop_data then
    derives the loop generators and certifies them by
    verify_drinfeld_relations.  Raises ConstructionError when any defining
    relation fails, which indicates a bug rather than bad input.
    """
    if not isinstance(p, EvalParams):
        raise DomainError("build_evaluation expects EvalParams")
    V = _assemble_evaluation(p.n, p.a, _EXACT if field is None else field)
    _refuse_failure(V, verify_affine_presentation(V))
    return extend_loop_data(V, window, T)


# -- certification ----------------------------------------------------------------


def verify_affine_presentation(M: AffineModule) -> CheckReport:
    """Defining relations of the affine algebra on the module.

    Invertibility and commutation of the K_c, level zero (the product
    over all nodes is 1), Cartan conjugation with the affine pairing,
    the [E, F] pairing, the q-Serre relations for every bond type, and
    purity of each Chevalley generator with respect to the grading.

    Every entry but purity states its two sides as ``combine`` terms for
    ``relation``: exactly one pass over their difference, numerically a
    comparison at their own scale.  The q-Serre entry (i, j) takes the two
    sides of the outermost bracket of the nested form (``serre_sides``).
    Their difference is the alternating sum, so an exact witness names an
    entry and value of sum_r (-1)^r [n r] X_i^(n-r) X_j X_i^r.
    """
    typ = M.typ
    f = M.field
    kap = f.q - f.one / f.q
    I = Matrix.identity(M.dim, f)
    rep = CheckReport(f"affine presentation on {M.describe()}")

    for i in typ.nodes:
        ok, w = relation([(1, None, M.Kc[i], M.Kcinv[i])], [(1, None, I)], f)
        rep.add("k_invertible", (i,), ok, w)
    for i in typ.nodes:
        for j in typ.nodes:
            if i < j:
                ok, w = relation([(1, None, M.Kc[i], M.Kc[j])], [(1, None, M.Kc[j], M.Kc[i])], f)
                rep.add("k_commute", (i, j), ok, w)
    *first, last = typ.nodes
    ok, w = relation([(1, None, reduce(matmul, (M.Kc[i] for i in first)), M.Kc[last])],
                     [(1, None, I)], f)
    rep.add("level_zero", (), ok, w)

    for i in typ.nodes:
        for j in typ.nodes:
            qa = f.q ** typ.cartan(i, j)
            for X, tag, c in ((M.E, "cartan_conj_e", qa), (M.F, "cartan_conj_f", f.one / qa)):
                ok, w = relation([(1, None, M.Kc[i] @ X[j], M.Kcinv[i])], [(1, c, X[j])], f)
                rep.add(tag, (i, j), ok, w)

    for i in typ.nodes:
        for j in typ.nodes:
            ef, fe = (M.E[i], M.F[j]), (M.F[j], M.E[i])
            if i == j:
                c = f.one / kap
                ok, w = relation([(1, None, *ef), (-1, None, *fe)],
                                 [(1, c, M.Kc[i]), (-1, c, M.Kcinv[i])], f)
            else:
                ok, w = relation([(1, None, *ef)], [(1, None, *fe)], f)
            rep.add("ef_pair", (i, j), ok, w)

    for i in typ.nodes:
        for j in typ.nodes:
            if i == j:
                continue
            n = 1 - typ.cartan(i, j)
            for X, tag in ((M.E, "serre_e"), (M.F, "serre_f")):
                ok, w = relation(*serre_sides(X[i], X[j], n, f.q), f)
                rep.add(tag, (i, j), ok, w)

    g = M.grading
    for i in typ.nodes:
        want = typ.alpha(i)
        for X, sgn, tag in ((M.E, 1, "purity_e"), (M.F, -1, "purity_f")):
            bad = [s for s in sorted(degree_components(X[i], g))
                   if s != tuple(sgn * x for x in want)]
            rep.add(tag, (i,), not bad,
                    None if not bad else f"impure shifts {bad}")
    return rep


def verify_drinfeld_relations(V: AffineModule) -> CheckReport:
    """Check the defining loop relations at the stored window W and order T.

    Covers: invertibility of K; commutativity of the stored h_k,
    1 <= |k| <= min(T, W), among themselves and with K; K-conjugation of
    the modes x^pm_k, |k| <= W; the h-x ladder
    [h_k, x^pm_l] = pm([2k]/k) x^pm_{k+l} wherever |k + l| <= W; the
    quadratic exchange relation between same-sign modes, -W <= k, l < W;
    the mixed commutator [x^+_k, x^-_l] = (psi_{k+l} - phi_{k+l})/(q - q^-1)
    for |k|, |l| <= W and |k + l| <= T; psi_m and phi_m against the
    exponentials of the stored h for m <= min(T, W); and purity of the
    degree shifts.  Returns a CheckReport with one entry per instance.

    So psi_m and phi_m meet an entry only up to m = min(T, 2W), and the
    exponentials only up to min(T, W): above 2W the coefficients that
    extend_loop_data derives from [x^+_{+-m}, x^-_0] are not certified.
    """
    if not V.has_loop_data:
        raise DomainError("module carries no loop-generator data")
    f = V.field
    W, T = V.window, V.T
    q = f.q
    qden = q - f.one / q
    qden_inv = f.one / qden
    q2 = q * q
    q2i = f.one / q2
    d = V.dim
    eye = Matrix.identity(d, f)
    zeroM = Matrix.zeros(d, d, f)
    rep = CheckReport(f"loop relations on {V.describe()}")

    ok, w = relation([(1, None, V.K, V.Kinv)], [(1, None, eye)], f)
    rep.add("K_invertible", (), ok, w)

    def commute(X, Y):
        return relation([(1, None, X, Y)], [(1, None, Y, X)], f)

    hkeys = sorted(V.h)
    for i, k in enumerate(hkeys):
        ok, w = commute(V.K, V.h[k])
        rep.add("K_h_commute", (k,), ok, w)
        for l in hkeys[i + 1:]:
            ok, w = commute(V.h[k], V.h[l])
            rep.add("h_commute", (k, l), ok, w)

    xkeys = sorted(V.xp)
    for k in xkeys:
        for sign, x, v in (("+", V.xp[k], q2), ("-", V.xm[k], q2i)):
            ok, w = relation([(1, None, V.K, x)], [(1, v, x, V.K)], f)
            rep.add("K_conj_x", (sign, k), ok, w)

    for k in hkeys:
        c = f.qint(2 * k) * f.from_fraction(1, k)
        for l in xkeys:
            if k + l not in V.xp:
                continue
            for sign, xd, s in (("+", V.xp, 1), ("-", V.xm, -1)):
                ok, w = relation([(1, None, V.h[k], xd[l]), (-1, None, xd[l], V.h[k])],
                                 [(s, c, xd[k + l])], f)
                rep.add("h_x_ladder", (k, sign, l), ok, w)

    # a mode product x_a x_b is taken at up to four (k, l): (a - 1, b),
    # (b - 1, a), (a, b - 1) and (b, a - 1); one memo per sign makes it once
    for sign, xd, v in (("+", V.xp, q2), ("-", V.xm, q2i)):
        mul = ProductMemo().mul
        for k in range(-W, W):
            for l in range(-W, W):
                ok, w = relation([(1, None, mul(xd[k + 1], xd[l])),
                                  (-1, v, mul(xd[l], xd[k + 1]))],
                                 [(1, v, mul(xd[k], xd[l + 1])),
                                  (-1, None, mul(xd[l + 1], xd[k]))], f)
                rep.add("x_exchange", (sign, k, l), ok, w)

    for k in xkeys:
        for l in xkeys:
            m = k + l
            if abs(m) > T:
                continue
            # (psi_m - phi_m) / (q - q^-1), psi and phi vanishing at m < 0
            # and m > 0
            rhs = []
            if m >= 0:
                rhs.append((1, qden_inv, V.psi[m]))
            if m <= 0:
                rhs.append((-1, qden_inv, V.phi[-m]))
            ok, w = relation([(1, None, V.xp[k], V.xm[l]), (-1, None, V.xm[l], V.xp[k])],
                             rhs, f)
            rep.add("x_pair_commutator", (k, l), ok, w)

    # stored psi/phi against the exponentials of the stored h
    hi = min(T, W)
    e = series_exp([zeroM] + [V.h[k].scale(qden) for k in range(1, hi + 1)], eye, f)
    for m in range(0, hi + 1):
        ok, w = relation([(1, None, V.psi[m])], [(1, None, V.K, e[m])], f)
        rep.add("psi_series_def", (m,), ok, w)
    e = series_exp([zeroM] + [-V.h[-k].scale(qden) for k in range(1, hi + 1)], eye, f)
    for m in range(0, hi + 1):
        ok, w = relation([(1, None, V.phi[m])], [(1, None, V.Kinv, e[m])], f)
        rep.add("phi_series_def", (m,), ok, w)

    # degree purity: x^pm shift the total degree by pm1, h_k preserve it
    gtot = V.grading.total()
    for k in xkeys:
        rep.add("x_degree_shift", ("+", k),
                set(degree_components(V.xp[k], gtot)) <= {(1,)})
        rep.add("x_degree_shift", ("-", k),
                set(degree_components(V.xm[k], gtot)) <= {(-1,)})
    for k in hkeys:
        rep.add("h_degree_shift", (k,), set(degree_components(V.h[k], gtot)) <= {(0,)})
    return rep


def tensor(V: AffineModule, W: AffineModule) -> AffineModule:
    """V (x) W through the coproduct; the same as ``V.tensor(W)``."""
    return V.tensor(W)


def extend_loop_data(M: AffineModule, window: int = 3, T: int = 6) -> AffineModule:
    """Derive the loop generators of a rank-one module from its Chevalley
    action, in place; the one source of loop data.

    Inverts the standard dictionary (x^-_1 = -K E_0, x^+_{-1} = -F_0 K^-1,
    x^pm_0 = E_1 / F_1), climbs the mode ladders with ad h_{+-1} (x^+ to
    max(window, T), since the diagonal series read x^+_{+-k} for k <= T),
    reads psi_k and phi_{-k} off the mixed brackets [x^+_{+-k}, x^-_0], and
    takes h_{+-k}, k >= 2, from the series logarithms of K^-1 Psi(z) and
    K Phi(z).  Everything is computed in the module's own field; on a
    tensor module this realizes the coproduct of every loop generator
    without ever expanding coproduct formulas.  verify_drinfeld_relations
    certifies the result, and a failure raises ConstructionError.

    A module whose stored window and order already cover the request is
    returned unchanged; a shallower one is derived again at the larger of
    the stored and requested window and order (the loop data is a function
    of the Chevalley action, so the overlap is the same).
    """
    if M.typ.N != 1 or not M.E:
        raise DomainError("loop data extends the Chevalley data of a rank-one module")
    if M.has_loop_data:
        if window <= M.window and T <= M.T:
            return M
        window, T = max(window, M.window), max(T, M.T)
    if window < 1 or T < 1:
        raise DomainError("loop window and series order must be at least 1")
    f = M.field
    q = f.q
    kap = q - f.one / q
    kap_inv = f.one / kap
    tw_inv = f.one / f.qint(2)
    K, Kinv = M.Kc[1], M.Kcinv[1]

    xp = {0: M.E[1], -1: -(M.F[0] @ Kinv)}
    xm = {0: M.F[1], 1: -(K @ M.E[0])}
    h = {
        1: Kinv @ commutator(xp[0], xm[1]),
        -1: K @ commutator(xp[-1], xm[0]),
    }
    wide = max(window, T)
    for k in range(1, wide + 1):
        xp[k] = commutator(h[1], xp[k - 1]).scale(tw_inv)
        if k >= 2:
            xp[-k] = commutator(h[-1], xp[-k + 1]).scale(tw_inv)
    for k in range(1, window + 1):
        xm[-k] = -commutator(h[-1], xm[-k + 1]).scale(tw_inv)
        if k >= 2:
            xm[k] = -commutator(h[1], xm[k - 1]).scale(tw_inv)

    psi = {0: K}
    phi = {0: Kinv}
    for k in range(1, T + 1):
        psi[k] = commutator(xp[k], xm[0]).scale(kap)
        phi[k] = -commutator(xp[-k], xm[0]).scale(kap)

    eye = Matrix.identity(M.dim, f)
    hi = min(T, window)
    l_psi = series_log([Kinv @ psi[k] for k in range(hi + 1)], eye, f)
    l_phi = series_log([K @ phi[k] for k in range(hi + 1)], eye, f)
    for k in range(2, hi + 1):
        h[k] = l_psi[k].scale(kap_inv)
        h[-k] = -l_phi[k].scale(kap_inv)

    M.window = window
    M.T = T
    M.K, M.Kinv = K, Kinv
    M.xp = {k: xp[k] for k in range(-window, window + 1)}
    M.xm = {k: xm[k] for k in range(-window, window + 1)}
    M.h = dict(sorted(h.items()))
    M.psi = psi
    M.phi = phi
    _refuse_failure(M, verify_drinfeld_relations(M))
    return M


# -- series access ------------------------------------------------------------------


def phi_series(V: AffineModule, T=None):
    """(Phi, Psi): the diagonal series as coefficient lists of matrices,
    k = 0..T: Phi[k] is phi_{-k} (the z^-k coefficient of Phi(z), i.e. the
    z^k coefficient of Phi(z^-1)), and Psi[k] is psi_k.

    Raises DomainError when the stored coefficients are not diagonal (the
    basis is then not an l-weight basis) or T is negative or exceeds the
    stored order.
    """
    if not V.has_loop_data:
        raise DomainError("module carries no loop-generator data")
    T = V.T if T is None else T
    if T > V.T:
        raise DomainError(f"series order {T} exceeds stored order {V.T}")
    if T < 0:
        raise DomainError(f"series order needs T >= 0, got T={T}")
    f = V.field
    for name, store in (("phi", V.phi), ("psi", V.psi)):
        for k in range(0, T + 1):
            M = store[k]
            diag = Matrix.diagonal([M.rows[i][i] for i in range(M.n)], f)
            ok, w = relation([(1, None, M)], [(1, None, diag)], f)
            if not ok:
                raise DomainError(
                    f"{name}_{k} is not diagonal: {w}; "
                    "the basis is not an l-weight basis"
                )
    return ([V.phi[k] for k in range(T + 1)],
            [V.psi[k] for k in range(T + 1)])


# -- consequence identities -----------------------------------------------------------


def verify_aux_identities(V: AffineModule) -> CheckReport:
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
    W, T = V.window, V.T
    q = f.q
    q2 = q * q
    q2i = f.one / q2
    q4m1 = q2 * q2 - f.one
    rep = CheckReport(f"auxiliary identities on {V.describe()}")

    for r in range(1, T + 1):
        for s in range(-W + 1, W + 1):
            ok, w = relation([(1, None, V.phi[r], V.xp[s]), (1, None, V.xp[s - 1], V.phi[r - 1])],
                             [(1, q2i, V.xp[s], V.phi[r]), (1, q2i, V.phi[r - 1], V.xp[s - 1])],
                             f)
            rep.add("phi_x_homogeneous", (r, s), ok, w)

    for r in range(0, T + 1):
        for k in range(max(-W, r - W), W + 1):
            rhs = [(1, q2, V.phi[r], V.xp[k])]
            rhs += [(1, q4m1 * q ** (2 * (s - 1)), V.phi[r - s], V.xp[k - s])
                    for s in range(1, r + 1)]
            ok, w = relation([(1, None, V.xp[k], V.phi[r])], rhs, f)
            rep.add("phi_x_expansion", (r, k), ok, w)

    for m in range(-1, T):
        # the two sides of x^-_1 phi_{-(m+1)} + phi_{-m} x^-_0
        # = q^-2 (phi_{-(m+1)} x^-_1 + x^-_0 phi_{-m}); at m = -1 the
        # phi_{-m} terms drop, as phi has no positive modes
        lhs = [(1, None, V.xm[1], V.phi[m + 1])]
        rhs = [(1, q2i, V.phi[m + 1], V.xm[1])]
        if m >= 0:
            lhs.append((1, None, V.phi[m], V.xm[0]))
            rhs.append((1, q2i, V.xm[0], V.phi[m]))
        ok, w = relation(lhs, rhs, f)
        rep.add("phi_xminus_qcomm", (m,), ok, w)
    return rep
