"""Finite-dimensional modules over the quantum affine algebra of type A_N,
with rank one (N = 1) carrying the loop generators of sl2 as well.

An AffineModule is given by its Chevalley action E_i, F_i, K_i on a chosen
basis, for every node i of the affine diagram (AffineTypeA), and by the
grading of that basis in simple-root coordinates relative to basis vector
0.  Its constructor takes that whole action and certifies it: it runs
verify_affine_presentation, the one Chevalley-level relation suite for
every rank, and raises ConstructionError on a failing entry, so no module
exists that has not passed it.  The builders (``AffineModule.trivial``,
``AffineModule.tensor``, and ``AffineModule.from_entries`` under
build_evaluation and ``ranka.build_vector_evaluation``) only assemble the
action.  Tensor products go through the coproduct

    Delta(E_i) = E_i x 1 + K_i x E_i,  Delta(F_i) = F_i x K_i^-1 + 1 x F_i,
    Delta(K_i) = K_i x K_i,

sum the factor degrees, and remember their factors (kron order: the left
factor is the slow index).  verify_affine_presentation writes each
q-Serre relation as a nested q-bracket, with n = 1 - a_ij,

    ad_{q^(1-n)}(X_i) .. ad_{q^(n-3)}(X_i) ad_{q^(n-1)}(X_i) X_j = 0,
    ad_v(X)Y = XY - vYX,

which equals the alternating q-binomial sum of matrix powers, and compares
the two sides of the outermost bracket (linmat.serre_sides): relation
judges a numeric equality at the scale of its two sides, which a bracket
tested against the zero matrix would lose, and an exact one by the zero
test of their difference.

At rank one a module also carries the loop generators: the mode
operators x^+_k and x^-_k for |k| up to a window, the commuting h_k, and
the coefficients psi_k / phi_{-k} of the two diagonal generating series

    Psi(z) = K exp( (q - q^-1) sum_{k>=1} h_k   z^k ),
    Phi(z) = K^-1 exp( -(q - q^-1) sum_{k>=1} h_{-k} z^-k ),

with K = K_1, and tied to the Chevalley generators by the standard
dictionary

    E_1 = x^+_0,  F_1 = x^-_0,  K_1 = K,
    E_0 = -K^-1 x^-_1,  F_0 = -x^+_{-1} K,  K_0 = K^-1.

loop_data is the one source of loop data: it inverts the dictionary on the
Chevalley action, climbs the mode ladders with ad h_{+-1}, reads the
diagonal series off the mixed brackets and h_k off their logarithms.  It
serves evaluation modules and tensor products alike, and returns the data
as a LoopData, a read-only value certified by verify_drinfeld_relations
before it is handed back; the module itself is never written to.

build_evaluation constructs the (n+1)-dimensional evaluation module V_n(a)
in Chevalley form: on the weight basis v_0..v_n (top weight first,
deg v_j = -j) the dictionary is read against the mode operators

    x^-_k v_j = mu_j^k     [j+1]   v_{j+1},      mu_j = a q^{n-2j},
    x^+_k v_j = mu_{j-1}^k [n-j+1] v_{j-1},      K v_j = q^{n-2j} v_j,

at k = 0 and k = +-1 only.  The action is certified against the affine
presentation as the module is built, and the loop data that loop_data
derives from it against the full loop relation suite, to the requested
window and order, before the module is handed back (ConstructionError
otherwise).

Everything works over either coefficient backend: the Chevalley action is
built exactly and mapped entrywise into the module's field, where its loop
data is then derived.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import reduce
from operator import matmul
from types import MappingProxyType

from .errors import ConstructionError, DomainError
from .linmat import (Grading, Matrix, ProductMemo, commutator, degree_components, relation,
                     serre_sides)
from .report import CheckReport
from .scalars import ONE, ExactField, Q, Scalar, parse_scalar
from .series import series_exp, series_log

__all__ = [
    "EvalParams",
    "AffineTypeA",
    "AffineModule",
    "LoopData",
    "build_evaluation",
    "verify_affine_presentation",
    "verify_drinfeld_relations",
    "tensor",
    "loop_data",
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
    """A finite module in Chevalley form over the affine diagram, certified
    when it is built.

    The constructor takes the whole Chevalley action: ``E``, ``F``, ``Kc``,
    ``Kcinv``, dicts of matrices keyed by node in I; ``grading``, each
    basis weight relative to basis vector 0 in simple-root coordinates
    (arity N); ``meta``, the printable ``name`` and the ``builder`` that
    made the module; and, for a tensor product, its two ``factors``.
    ``field`` and ``dim`` are read off the matrices.  It then runs
    verify_affine_presentation and raises ConstructionError naming the
    first failing entry, so every module has passed the presentation
    suite.  The builders are ``trivial``, ``tensor``, ``from_entries``
    (exact sparse entries mapped into a field: build_evaluation and
    ``ranka.build_vector_evaluation``) and nothing else.

    A module is read-only once built: ``E``, ``F``, ``Kc``, ``Kcinv`` and
    ``meta`` are kept as read-only mappings, and every attribute is written
    once, so what was certified stays what it holds.  Its loop generators
    are not stored on it: loop_data derives them as a separate value.
    """

    __slots__ = ("typ", "field", "dim", "E", "F", "Kc", "Kcinv", "grading", "meta",
                 "factors")

    def __init__(self, typ: AffineTypeA, E, F, Kc, Kcinv, grading: Grading, meta,
                 factors=None):
        self.typ = typ
        self.field = Kc[0].field
        self.dim = Kc[0].n
        self.E = MappingProxyType(dict(E))
        self.F = MappingProxyType(dict(F))
        self.Kc = MappingProxyType(dict(Kc))
        self.Kcinv = MappingProxyType(dict(Kcinv))
        self.grading = grading
        self.meta = MappingProxyType(dict(meta))
        self.factors = factors
        _refuse_failure(self, verify_affine_presentation(self))

    def __setattr__(self, name, value):
        if hasattr(self, name):
            raise AttributeError(f"a certified module is read-only: cannot rebind {name}")
        object.__setattr__(self, name, value)

    def __delattr__(self, name):
        raise AttributeError(f"a certified module is read-only: cannot delete {name}")

    def describe(self) -> str:
        return self.meta.get("name", f"affine A{self.typ.N} module, dim {self.dim}")

    @classmethod
    def from_entries(cls, typ: AffineTypeA, E, F, K, grading: Grading, meta, field):
        """The module whose E_j and F_j have the exact entries E[j] and F[j],
        dicts {(row, col): Scalar}, and whose K_j is the diagonal of the
        exact list K[j], every entry mapped into ``field``; K_j^-1 is the
        diagonal of the inverses."""
        dim = len(K[0])
        z = field.zero

        def matrix(entries):
            rows = [[z] * dim for _ in range(dim)]
            for (r, c), x in entries.items():
                rows[r][c] = field.from_scalar(x)
            return Matrix(rows, field)

        def diagonal(xs):
            return Matrix.diagonal([field.from_scalar(x) for x in xs], field)

        nodes = typ.nodes
        return cls(typ, {j: matrix(E[j]) for j in nodes}, {j: matrix(F[j]) for j in nodes},
                   {j: diagonal(K[j]) for j in nodes},
                   {j: diagonal([ONE / x for x in K[j]]) for j in nodes}, grading, meta)

    @classmethod
    def trivial(cls, N: int, field=None):
        """The one-dimensional module: E = F = 0, K = 1."""
        f = field if field is not None else _EXACT
        typ = AffineTypeA(N)
        one = Matrix.identity(1, f)
        zero = Matrix.zeros(1, 1, f)
        return cls(typ, dict.fromkeys(typ.nodes, zero), dict.fromkeys(typ.nodes, zero),
                   dict.fromkeys(typ.nodes, one), dict.fromkeys(typ.nodes, one),
                   Grading([tuple([0] * N)]), {"name": f"triv_{N}", "builder": "trivial"})

    def tensor(self, other: "AffineModule") -> "AffineModule":
        """Tensor product along the coproduct (see the module docstring);
        the factor degrees add up."""
        if self.typ != other.typ:
            raise DomainError("tensor factors over different diagrams")
        f = self.field
        if not _same_field(f, other.field):
            raise DomainError("tensor factors live over different backends")
        il = Matrix.identity(self.dim, f)
        ir = Matrix.identity(other.dim, f)
        E, F, Kc, Kcinv = {}, {}, {}, {}
        for j in self.typ.nodes:
            E[j] = self.E[j].kron(ir) + self.Kc[j].kron(other.E[j])
            F[j] = self.F[j].kron(other.Kcinv[j]) + il.kron(other.F[j])
            Kc[j] = self.Kc[j].kron(other.Kc[j])
            Kcinv[j] = self.Kcinv[j].kron(other.Kcinv[j])
        grading = Grading([
            tuple(x + y for x, y in zip(da, db))
            for da in self.grading.degrees
            for db in other.grading.degrees
        ])
        names = [X.describe() for X in (self, other)]
        meta = {"name": "*".join(n if "*" not in n else f"({n})" for n in names),
                "builder": "tensor"}
        return AffineModule(self.typ, E, F, Kc, Kcinv, grading, meta, factors=(self, other))


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
    """The certified Chevalley action of V_n(a), without its loop data.

    The link v_j <-> v_{j+1} carries the geometric factor mu_j = a q^{n-2j}
    of x^+ and x^-, which reaches the action through E_0 = -K^-1 x^-_1 and
    F_0 = -x^+_{-1} K.
    """
    E1, F1, E0, F0 = {}, {}, {}, {}
    for j in range(n):
        # the link v_j <-> v_{j+1}: x^+_k carries mu_j^k [n-j], x^-_k mu_j^k [j+1]
        mu = a * Q ** (n - 2 * j)
        up, dn = _EXACT.qint(n - j), _EXACT.qint(j + 1)
        E1[j, j + 1] = up
        F1[j + 1, j] = dn
        E0[j + 1, j] = -(Q ** (2 * j + 2 - n) * mu * dn)
        F0[j, j + 1] = -(Q ** (n - 2 * j - 2) * up / mu)
    K = [Q ** (n - 2 * j) for j in range(n + 1)]
    return AffineModule.from_entries(
        AffineTypeA(1), {1: E1, 0: E0}, {1: F1, 0: F0}, {1: K, 0: [ONE / x for x in K]},
        Grading([(-j,) for j in range(n + 1)]),
        {"name": f"V{n}({a})", "builder": "build_evaluation"}, field)


def build_evaluation(p: EvalParams, window: int = 3, T: int = 6,
                     field=None) -> AffineModule:
    """The certified evaluation module V_n(a).

    The Chevalley action is assembled exactly, mapped into ``field`` and
    certified by the presentation suite as the module is built, and the
    loop data that loop_data derives from it to ``window`` and ``T`` is
    certified by verify_drinfeld_relations before the module is returned.
    Raises ConstructionError when any defining relation fails, which
    indicates a bug rather than bad input.
    """
    if not isinstance(p, EvalParams):
        raise DomainError("build_evaluation expects EvalParams")
    V = _assemble_evaluation(p.n, p.a, _EXACT if field is None else field)
    loop_data(V, window, T)
    return V


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
        rep.add("k_invertible", (i,),
                *relation([(1, None, M.Kc[i], M.Kcinv[i])], [(1, None, I)], f))
    for i in typ.nodes:
        for j in typ.nodes:
            if i < j:
                rep.add("k_commute", (i, j),
                        *relation([(1, None, M.Kc[i], M.Kc[j])], [(1, None, M.Kc[j], M.Kc[i])], f))
    *first, last = typ.nodes
    rep.add("level_zero", (),
            *relation([(1, None, reduce(matmul, (M.Kc[i] for i in first)), M.Kc[last])],
                      [(1, None, I)], f))

    for i in typ.nodes:
        for j in typ.nodes:
            qa = f.q ** typ.cartan(i, j)
            for X, tag, c in ((M.E, "cartan_conj_e", qa), (M.F, "cartan_conj_f", f.one / qa)):
                rep.add(tag, (i, j),
                        *relation([(1, None, M.Kc[i] @ X[j], M.Kcinv[i])], [(1, c, X[j])], f))

    for i in typ.nodes:
        for j in typ.nodes:
            ef, fe = (M.E[i], M.F[j]), (M.F[j], M.E[i])
            if i == j:
                c = f.one / kap
                lhs = [(1, None, *ef), (-1, None, *fe)]
                rhs = [(1, c, M.Kc[i]), (-1, c, M.Kcinv[i])]
            else:
                lhs, rhs = [(1, None, *ef)], [(1, None, *fe)]
            rep.add("ef_pair", (i, j), *relation(lhs, rhs, f))

    for i in typ.nodes:
        for j in typ.nodes:
            if i == j:
                continue
            n = 1 - typ.cartan(i, j)
            for X, tag in ((M.E, "serre_e"), (M.F, "serre_f")):
                rep.add(tag, (i, j), *relation(*serre_sides(X[i], X[j], n, f.q), f))

    g = M.grading
    for i in typ.nodes:
        want = typ.alpha(i)
        for X, sgn, tag in ((M.E, 1, "purity_e"), (M.F, -1, "purity_f")):
            bad = [s for s in sorted(degree_components(X[i], g))
                   if s != tuple(sgn * x for x in want)]
            rep.add(tag, (i,), not bad,
                    None if not bad else f"impure shifts {bad}")
    return rep


def verify_drinfeld_relations(L: LoopData) -> CheckReport:
    """Check the defining loop relations at the window W and order T of L.

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
    loop_data derives from [x^+_{+-m}, x^-_0] are not certified.
    """
    V = L.module
    f = V.field
    W, T = L.window, L.T
    q = f.q
    qden = q - f.one / q
    qden_inv = f.one / qden
    q2 = q * q
    q2i = f.one / q2
    d = V.dim
    K, Kinv = V.Kc[1], V.Kcinv[1]
    eye = Matrix.identity(d, f)
    zeroM = Matrix.zeros(d, d, f)
    rep = CheckReport(f"loop relations on {V.describe()}")

    rep.add("K_invertible", (), *relation([(1, None, K, Kinv)], [(1, None, eye)], f))

    def commute(X, Y):
        return relation([(1, None, X, Y)], [(1, None, Y, X)], f)

    hkeys = sorted(L.h)
    for i, k in enumerate(hkeys):
        rep.add("K_h_commute", (k,), *commute(K, L.h[k]))
        for l in hkeys[i + 1:]:
            rep.add("h_commute", (k, l), *commute(L.h[k], L.h[l]))

    xkeys = sorted(L.xp)
    for k in xkeys:
        for sign, x, v in (("+", L.xp[k], q2), ("-", L.xm[k], q2i)):
            rep.add("K_conj_x", (sign, k), *relation([(1, None, K, x)], [(1, v, x, K)], f))

    for k in hkeys:
        c = f.qint(2 * k) * f.from_fraction(1, k)
        for l in xkeys:
            if k + l not in L.xp:
                continue
            for sign, xd, s in (("+", L.xp, 1), ("-", L.xm, -1)):
                rep.add("h_x_ladder", (k, sign, l),
                        *relation([(1, None, L.h[k], xd[l]), (-1, None, xd[l], L.h[k])],
                                  [(s, c, xd[k + l])], f))

    # a mode product x_a x_b is taken at up to four (k, l): (a - 1, b),
    # (b - 1, a), (a, b - 1) and (b, a - 1); one memo per sign makes it once
    for sign, xd, v in (("+", L.xp, q2), ("-", L.xm, q2i)):
        mul = ProductMemo().mul
        for k in range(-W, W):
            for l in range(-W, W):
                rep.add("x_exchange", (sign, k, l),
                        *relation([(1, None, mul(xd[k + 1], xd[l])),
                                   (-1, v, mul(xd[l], xd[k + 1]))],
                                  [(1, v, mul(xd[k], xd[l + 1])),
                                   (-1, None, mul(xd[l + 1], xd[k]))], f))

    for k in xkeys:
        for l in xkeys:
            m = k + l
            if abs(m) > T:
                continue
            # (psi_m - phi_m) / (q - q^-1), psi and phi vanishing at m < 0
            # and m > 0
            rhs = []
            if m >= 0:
                rhs.append((1, qden_inv, L.psi[m]))
            if m <= 0:
                rhs.append((-1, qden_inv, L.phi[-m]))
            rep.add("x_pair_commutator", (k, l),
                    *relation([(1, None, L.xp[k], L.xm[l]), (-1, None, L.xm[l], L.xp[k])],
                              rhs, f))

    # stored psi/phi against the exponentials of the stored h
    hi = min(T, W)
    e = series_exp([zeroM] + [L.h[k].scale(qden) for k in range(1, hi + 1)], eye, f)
    for m in range(0, hi + 1):
        rep.add("psi_series_def", (m,), *relation([(1, None, L.psi[m])], [(1, None, K, e[m])], f))
    e = series_exp([zeroM] + [-L.h[-k].scale(qden) for k in range(1, hi + 1)], eye, f)
    for m in range(0, hi + 1):
        rep.add("phi_series_def", (m,),
                *relation([(1, None, L.phi[m])], [(1, None, Kinv, e[m])], f))

    # degree purity: x^pm shift the total degree by pm1, h_k preserve it
    gtot = V.grading.total()
    for k in xkeys:
        rep.add("x_degree_shift", ("+", k),
                set(degree_components(L.xp[k], gtot)) <= {(1,)})
        rep.add("x_degree_shift", ("-", k),
                set(degree_components(L.xm[k], gtot)) <= {(-1,)})
    for k in hkeys:
        rep.add("h_degree_shift", (k,), set(degree_components(L.h[k], gtot)) <= {(0,)})
    return rep


def tensor(V: AffineModule, W: AffineModule) -> AffineModule:
    """V (x) W through the coproduct; the same as ``V.tensor(W)``."""
    return V.tensor(W)


@dataclass(frozen=True, eq=False)
class LoopData:
    """The loop generators of a rank-one module, a read-only value.

    ``xp[k]``/``xm[k]`` are the modes for |k| <= ``window``, ``h[k]`` the
    h_k for 1 <= |k| <= min(``window``, ``T``), and ``psi[k]``/``phi[k]``
    for k <= ``T`` the coefficients of z^k in Psi(z) and of z^-k in
    Phi(z); K and K^-1 are ``module.Kc[1]`` and ``module.Kcinv[1]``.
    Every store is a read-only mapping, and loop_data is the one maker:
    it certifies the value by verify_drinfeld_relations first.
    """

    module: AffineModule
    window: int
    T: int
    xp: MappingProxyType
    xm: MappingProxyType
    h: MappingProxyType
    psi: MappingProxyType
    phi: MappingProxyType


def loop_data(M: AffineModule, window: int = 3, T: int = 6) -> LoopData:
    """Derive the loop generators of a rank-one module from its Chevalley
    action; the one source of loop data.

    Inverts the standard dictionary (x^-_1 = -K E_0, x^+_{-1} = -F_0 K^-1,
    x^pm_0 = E_1 / F_1), climbs the mode ladders with ad h_{+-1} (x^+ to
    max(window, T), since the diagonal series read x^+_{+-k} for k <= T),
    reads psi_k and phi_{-k} off the mixed brackets [x^+_{+-k}, x^-_0], and
    takes h_{+-k}, k >= 2, from the series logarithms of K^-1 Psi(z) and
    K Phi(z).  Everything is computed in the module's own field; on a
    tensor module this realizes the coproduct of every loop generator
    without ever expanding coproduct formulas.  Every coefficient is a
    function of the Chevalley action alone, so two windows and orders
    agree where they overlap.  verify_drinfeld_relations certifies the
    result, and a failure raises ConstructionError; M is not written to.
    """
    if M.typ.N != 1:
        raise DomainError("loop data extends the Chevalley data of a rank-one module")
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

    L = LoopData(M, window, T,
                 MappingProxyType({k: xp[k] for k in range(-window, window + 1)}),
                 MappingProxyType({k: xm[k] for k in range(-window, window + 1)}),
                 MappingProxyType(dict(sorted(h.items()))),
                 MappingProxyType(psi), MappingProxyType(phi))
    _refuse_failure(M, verify_drinfeld_relations(L))
    return L


# -- series access ------------------------------------------------------------------


def phi_series(L: LoopData, T=None):
    """(Phi, Psi): the diagonal series as coefficient lists of matrices,
    k = 0..T: Phi[k] is phi_{-k} (the z^-k coefficient of Phi(z), i.e. the
    z^k coefficient of Phi(z^-1)), and Psi[k] is psi_k.

    Raises DomainError when the coefficients are not diagonal (the basis is
    then not an l-weight basis) or T is negative or exceeds the order of L.
    """
    T = L.T if T is None else T
    if T > L.T:
        raise DomainError(f"series order {T} exceeds stored order {L.T}")
    if T < 0:
        raise DomainError(f"series order needs T >= 0, got T={T}")
    f = L.module.field
    for name, store in (("phi", L.phi), ("psi", L.psi)):
        for k in range(0, T + 1):
            M = store[k]
            diag = Matrix.diagonal([M.rows[i][i] for i in range(M.n)], f)
            ok, w = relation([(1, None, M)], [(1, None, diag)], f)
            if not ok:
                raise DomainError(
                    f"{name}_{k} is not diagonal: {w}; "
                    "the basis is not an l-weight basis"
                )
    return ([L.phi[k] for k in range(T + 1)],
            [L.psi[k] for k in range(T + 1)])


# -- consequence identities -----------------------------------------------------------


def verify_aux_identities(L: LoopData) -> CheckReport:
    """Three consequences of the defining relations that later layers lean on.

    * phi_x_homogeneous: phi_{-r} x^+_s + x^+_{s-1} phi_{-(r-1)}
        = q^-2 (x^+_s phi_{-r} + phi_{-(r-1)} x^+_{s-1})        (r >= 1);
    * phi_x_expansion: x^+_k phi_{-r} = q^2 phi_{-r} x^+_k
        + (q^4 - 1) sum_{s=1}^{r} q^{2(s-1)} phi_{-(r-s)} x^+_{k-s};
    * phi_xminus_qcomm: [x^-_1, phi_{-(m+1)}]_{q^-2}
        = q^-2 [x^-_0, phi_{-m}]_{q^2}    (m >= -1, empty right side at -1).
    """
    f = L.module.field
    W, T = L.window, L.T
    q = f.q
    q2 = q * q
    q2i = f.one / q2
    q4m1 = q2 * q2 - f.one
    rep = CheckReport(f"auxiliary identities on {L.module.describe()}")

    for r in range(1, T + 1):
        for s in range(-W + 1, W + 1):
            rep.add("phi_x_homogeneous", (r, s),
                    *relation([(1, None, L.phi[r], L.xp[s]), (1, None, L.xp[s - 1], L.phi[r - 1])],
                              [(1, q2i, L.xp[s], L.phi[r]), (1, q2i, L.phi[r - 1], L.xp[s - 1])],
                              f))

    for r in range(0, T + 1):
        for k in range(max(-W, r - W), W + 1):
            rhs = [(1, q2, L.phi[r], L.xp[k])]
            rhs += [(1, q4m1 * q ** (2 * (s - 1)), L.phi[r - s], L.xp[k - s])
                    for s in range(1, r + 1)]
            rep.add("phi_x_expansion", (r, k), *relation([(1, None, L.xp[k], L.phi[r])], rhs, f))

    for m in range(-1, T):
        # the two sides of x^-_1 phi_{-(m+1)} + phi_{-m} x^-_0
        # = q^-2 (phi_{-(m+1)} x^-_1 + x^-_0 phi_{-m}); at m = -1 the
        # phi_{-m} terms drop, as phi has no positive modes
        lhs = [(1, None, L.xm[1], L.phi[m + 1])]
        rhs = [(1, q2i, L.phi[m + 1], L.xm[1])]
        if m >= 0:
            lhs.append((1, None, L.phi[m], L.xm[0]))
            rhs.append((1, q2i, L.xm[0], L.phi[m]))
        rep.add("phi_xminus_qcomm", (m,), *relation(lhs, rhs, f))
    return rep
