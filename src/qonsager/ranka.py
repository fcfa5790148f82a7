"""Higher-rank affine type A: braided seed words and the rank-N suites.

Conventions, fixed once and relied on everywhere below:

* Diagram.  Affine type A_N has node set I = {0, .., N} with finite part
  I0 = {1, .., N}.  The Cartan pairing is a_ii = 2 and, for N >= 2,
  a_ij = -1 exactly when i - j = +-1 mod N+1; at N = 1 the two nodes are
  joined by a double bond, a_01 = a_10 = -2.  The diagram rotation pi
  sends node j to j + 1 mod N+1.  The diagram (AffineTypeA), the module
  type (AffineModule) and its presentation suite live in ``loopsl2``,
  where rank one is N = 1.

* Vector evaluation W_N(a).  The (N+1)-dimensional module with basis
  e_0 .. e_N and, for i in I0,

      E_i = e_{i-1, i},   F_i = e_{i, i-1},
      K_i = diag(.., q at slot i-1, q^-1 at slot i, ..),

  the affine node acting through the evaluation loop,

      E_0 = a e_{N, 0},   F_0 = a^-1 e_{0, N},   K_0 = (K_1 .. K_N)^-1.

  Relative to e_0, e_b has weight -(alpha_1 + .. + alpha_b) in
  simple-root coordinates, which ``grading`` stores in closed form.
  ``build_vector_evaluation`` hands these exact entries to
  ``AffineModule.from_entries``, which maps them into the field and runs
  the presentation suite, whose purity entries certify the grading
  against E and F.

* Coideal seeds.  B_j = F_j - c_j E_j K_j^-1 + s_j K_j^-1 per node j in
  I, with central dressings KK_j evaluating to q^2 c_j and

      C = KK_0 KK_1 .. KK_N  =  q^(2N+2) c_0 c_1 .. c_N.

* Braided symmetries (the T_i formulas of Kolb and Pellegrini, J. Algebra
  336, 2011).  T_i(B_i) = KK_i^-1 B_i, T_i(B_j) = B_j when a_ij = 0 and
  T_i(B_j) = B_j B_i - q B_i B_j when a_ij = -1; T_i(KK_i) = KK_i^-1 and
  T_i(KK_j) = KK_j KK_i^-a_ij; the rotation pi sends B_j, KK_j to B_{j+1},
  KK_{j+1}.  A word w = pi^p s_{r_1} .. s_{r_k} acts as
  T_w = pi^p T_{r_1} .. T_{r_k}.  Evaluation is a homomorphism from the
  free algebra on the B_j with central KK_j, so ev . T_w is fixed by the
  images (X_j, kappa_j) of the generators, composed on matrices rotation
  first, X_j = B_{j+p} and kappa_j = KK_{j+p}, then letter by letter from
  the left:

      X_j <- X_j X_r - q X_r X_j,  kappa_j <- kappa_j kappa_r^-a_rj  (j != r),
      and last  X_r <- kappa_r^-1 X_r,  kappa_r <- kappa_r^-1,

  the X_j update for j bonded to r only.  No word is expanded.  Double
  bonds (N = 1) have no seed formula: an image across one is left
  absent, and evaluating an expression that needs it raises DomainError.
  The distinguished words

      omega_i  = pi^i [N-i+1, N] [N-i, N-1] .. [1, i],
      omega'_i = omega_i with its final letter s_i dropped,

  where [k, l] = s_k s_{k+1} .. s_l, have lengths i(N-i+1) and
  i(N-i+1) - 1.  On the root lattice, with delta = alpha_0 + .. + alpha_N,

      omega_i(alpha_i) = alpha_i - delta,   omega'_i(alpha_i) = delta - alpha_i,

  the translation convention that T_{omega_i}(B_i) = A_{i,-1} relies on.

* Tower seeds.  With P_1(y) = y and P_{k+1} = [P_k, y_{k+1}]_q the
  left-nested bracket (``onsager.pk_bracket``),

      A_{i,-1} = o(i) C_i [P_{i-1}(B_{i-1}, .., B_1),
                           P_{N-i+1}(B_{i+1}, .., B_N, B_0)]_q,
      C_i = C^-1 KK_i,  o(i) = (-1)^(i-1),

  an empty left factor meaning the right factor alone; at N = 1 this is
  q^-2 c_0^-1 B_0.  ``onsager.node_bracket`` writes the index pattern once,
  on matrices, one q-bracket pass per bracket: ``onsager._tower_seeds``
  evaluates it on the seed matrices for every family, rank one included,
  and ``build_Ai_minus1`` defers it to ``evaluate_bexpr``, which evaluates
  it on the same matrices.  Up to the
  calibration sign o(i) the same element is the full word,
  A_{i,-1} = T_{omega_i}(B_i); ``verify_braid_relations`` certifies the two
  against each other (its ``seed_word`` entries), a comparison that cannot
  fail at N <= 2.  Generation certifies the B_j by their i-Serre relations,
  which see a damaged module at every rank.  The one generator
  (``onsager.generate_family``) hands the seeds to the core that builds
  every family (``onsager._grow_family``): from A_{i,0} = B_i and

      H_{i,1} = q^2 C_i^-1 [A_{i,-1}, A_{i,0}]_{q^-2}

  it grows each node's ladder A_{i,r+1} = [H_{i,1}/[2], A_{i,r}] + C A_{i,r-1},
  the Theta tower from the two-step rule with node weight c_i, H from the
  log of Theta, and its grave reweighting.  The parameter and
  family types (RankNParams, RankNFamily) and the seed matrices
  (``eta_bmats``) live there too.

* Transpose dual.  A'_{i,r} = C^r (A_{i,-r})^t, H'_{i,m} = (H_{i,m})^t and
  Theta'_{i,m} = (Theta_{i,m})^t satisfy the same relations, which
  ``tau_dual_check`` certifies by running ``verify_grel`` on them.
"""

from functools import reduce
from operator import matmul
from typing import NamedTuple

from .errors import ConstructionError, DomainError
from .linmat import (Grading, Matrix, ProductMemo, combine, degree_components, qbracket,
                     relation)
from .loopsl2 import AffineModule, AffineTypeA, _assemble_evaluation, loop_data
from .onsager import (RankNFamily, RankNParams, _as_scalar, _check_windows,
                      _theta_exchange, _tower_seeds, eta_bmats, generate_family,
                      node_bracket, onedim_closed_form, pk_bracket)
from .report import CheckReport
from .scalars import ExactField, ONE, Q, Scalar, qint
from .series import pade_reconstruct
from .spectra import _line_certificate, _numeric_fit, factorization_check

__all__ = [
    "WeylWord",
    "omega_word",
    "omega_prime_word",
    "build_vector_evaluation",
    "BExpr",
    "apply_word",
    "pk_bracket",
    "build_Ai_minus1",
    "evaluate_bexpr",
    "generate_rankn_family",
    "verify_grel",
    "tau_dual_check",
    "verify_braid_relations",
    "braid_compat_check",
    "rankn_spectral_check",
]

_EXACT = ExactField()


# -- Weyl group words -------------------------------------------------------------


class WeylWord:
    """A word pi^p s_{r_1} .. s_{r_k} in the extended affine Weyl group.

    ``refs`` is the reflection sequence read left to right.  On roots the
    reflections apply right to left and the rotation last; on seed
    expressions the generator images are composed the other way round,
    rotation first and then the letters left to right (see the header).
    """

    __slots__ = ("typ", "pi_power", "refs")

    def __init__(self, typ: AffineTypeA, pi_power: int, refs):
        self.typ = typ
        self.pi_power = pi_power % (typ.N + 1)
        refs = tuple(refs)
        for r in refs:
            typ._check(r)
        self.refs = refs

    @property
    def length(self) -> int:
        return len(self.refs)

    def __repr__(self):
        body = " ".join(f"s{r}" for r in self.refs)
        return f"pi^{self.pi_power} {body}".strip()


def omega_word(i: int, N: int) -> WeylWord:
    """The translation word omega_i = pi^i [N-i+1,N][N-i,N-1]..[1,i].

    Each block [k,l] = s_k s_{k+1} .. s_l ascends; there are N-i+1
    blocks of length i, so the reflection length is i(N-i+1).  On roots
    it sends alpha_i to alpha_i - delta (delta = alpha_0 + .. + alpha_N),
    so the node-0 coefficient of the image is -1.
    """
    typ = AffineTypeA(N)
    if not 1 <= i <= N:
        raise DomainError(f"omega_word wants a finite node, got i={i}, N={N}")
    refs = []
    for t in range(N - i + 1):
        refs.extend(range(N - i + 1 - t, N - t + 1))
    return WeylWord(typ, i, refs)


def omega_prime_word(i: int, N: int) -> WeylWord:
    """omega_i with its final letter dropped (the last block ends in s_i).

    Since omega_i = omega'_i s_i and s_i(alpha_i) = -alpha_i, it sends
    alpha_i to delta - alpha_i, with node-0 coefficient +1.
    """
    w = omega_word(i, N)
    if not w.refs or w.refs[-1] != i:
        raise ConstructionError(f"omega_{i} word does not end in s_{i}: {w!r}")
    return WeylWord(w.typ, w.pi_power, w.refs[:-1])


# -- vector evaluation ------------------------------------------------------------


def build_vector_evaluation(N: int, a, field=None) -> AffineModule:
    """The certified evaluation module W_N(a) on field^(N+1), gauge as in
    the header.

    Assembled exactly, graded in closed form (e_b sits at
    -(alpha_1 + .. + alpha_b)), then mapped into the requested field by
    ``AffineModule.from_entries``, which runs the presentation suite: its
    purity entries certify that grading against E and F, and any failure
    raises ConstructionError.
    """
    typ = AffineTypeA(N)
    a = _as_scalar(a)
    if not a:
        raise DomainError("evaluation parameter a must be nonzero")
    qi = ONE / Q
    E = {i: {(i - 1, i): ONE} for i in typ.finite_nodes}
    F = {i: {(i, i - 1): ONE} for i in typ.finite_nodes}
    E[0] = {(N, 0): a}
    F[0] = {(0, N): ONE / a}
    K = {}  # the diagonal of each K_j
    for i in typ.finite_nodes:
        K[i] = [ONE] * (N + 1)
        K[i][i - 1] = Q
        K[i][i] = qi
    K[0] = [ONE] * (N + 1)
    K[0][0] = qi
    K[0][N] = Q
    return AffineModule.from_entries(
        typ, E, F, K, Grading([(-1,) * b + (0,) * (N - b) for b in range(N + 1)]),
        {"name": f"W_{N}({a})", "builder": "build_vector_evaluation", "a": a},
        field if field is not None else _EXACT)


# -- seed words and braided symmetries ---------------------------------------------


class BExpr:
    """A noncommutative polynomial in the seeds B_0 .. B_N whose
    coefficients are Laurent monomials in the central dressings KK_j, as
    plain data: ``terms`` maps a word (tuple of node indices) to a dict
    from exponent tuples (length N+1) to exact scalars.  It has no
    arithmetic; ``evaluate_bexpr`` evaluates it on matrices.
    """

    __slots__ = ("nn", "terms")

    def __init__(self, nn: int, terms):
        self.nn = nn
        self.terms = terms

    @classmethod
    def gen(cls, nn: int, j: int) -> "BExpr":
        if not 0 <= j <= nn:
            raise DomainError(f"seed index {j} outside 0..{nn}")
        return cls(nn, {(j,): {tuple([0] * (nn + 1)): ONE}})


def apply_word(w: WeylWord, e: BExpr) -> "_Braided":
    """T_w on a seed expression, deferred to evaluation: ``evaluate_bexpr``
    evaluates e at the generator images of ev . T_w (``_braid_images``)."""
    if w.typ.N != e.nn:
        raise DomainError("word and expression have different ranks")
    return _Braided(w, e)


class _Braided(NamedTuple):
    """T_w(e), unexpanded: ``terms`` are e's own."""

    word: WeylWord
    expr: BExpr

    @property
    def terms(self):
        return self.expr.terms


class _NodeSeed(NamedTuple):
    """C_i ``node_bracket``(B, i, N, q) at rank N = nn, unevaluated."""

    i: int
    nn: int


def build_Ai_minus1(i: int, N: int) -> _NodeSeed:
    """The seed A_{i,-1} as a dressed bracket of the B_j, before the sign o(i).

    C_i ``node_bracket``(B, i, N, q) with C_i = C^-1 KK_i, deferred to
    ``evaluate_bexpr``, which brackets the seed matrices as generation
    does.  Equality with the braided word T_{omega_i}(B_i) is a checked
    identity, not an input.
    """
    if not 1 <= i <= N:
        raise DomainError(f"seed index must be a finite node, got i={i}, N={N}")
    return _NodeSeed(i, N)


# -- evaluation -----------------------------------------------------------------------


def _kvals(module: AffineModule, params: RankNParams):
    f = module.field
    return {j: f.from_scalar(params.kk(j)) for j in module.typ.nodes}


def _braid_images(word: WeylWord, bmats, kvals, field):
    """The images (X_j, kappa_j) of B_j and KK_j under ev . T_w, composed
    as in the header: at most two q-brackets per letter.  An image
    across the double bond of A_1, or built from one, is left out of X.
    """
    typ = word.typ
    p = word.pi_power
    X = {j: bmats[typ.rotate(j, p)] for j in typ.nodes}
    kap = {j: kvals[typ.rotate(j, p)] for j in typ.nodes}
    for r in word.refs:
        xr, kr = X.get(r), kap[r]
        for j in typ.nodes:
            a = typ.cartan(r, j)
            if j == r or a == 0:
                continue
            kap[j] = kap[j] * kr ** -a
            if a == -1 and xr is not None and j in X:
                X[j] = qbracket(X[j], xr, field.q)
            else:
                X.pop(j, None)
        kap[r] = field.one / kr
        if xr is not None:
            X[r] = xr.scale(kap[r])
    return X, kap


def evaluate_bexpr(e: "BExpr | _Braided | _NodeSeed", module: AffineModule,
                   params: RankNParams) -> Matrix:
    """Evaluate a seed expression through the module and parameters.

    A ``BExpr`` is the plain sum over its words of the word's coefficient,
    its KK-monomials at KK_j, times the product of the word's seeds B_j,
    the empty word standing for the identity, in one ``combine``.  A
    braided expression from ``apply_word`` is that sum at the generator
    images of ev . T_w (``_braid_images``), and the seed of
    ``build_Ai_minus1`` is C_i ``node_bracket`` of the B_j.
    """
    word, e = (e.word, e.expr) if isinstance(e, _Braided) else (None, e)
    if e.nn != module.typ.N:
        raise DomainError("expression and module have different ranks")
    f = module.field
    X, kap = eta_bmats(module, params), _kvals(module, params)
    if isinstance(e, _NodeSeed):
        return node_bracket(X, e.i, e.nn, f.q).scale(f.from_scalar(params.cconst(e.i)))
    if word is not None:
        X, kap = _braid_images(word, X, kap, f)
        lost = {j for w in e.terms for j in w} - X.keys()
        if lost:
            raise DomainError(
                f"T_w(B_{min(lost)}) for w = {word!r} crosses the double bond "
                "a_01 = -2; braided symmetries are implemented for single "
                "bonds only"
            )
    terms = []
    for w, kmap in e.terms.items():
        coef = f.zero
        for exps, c in kmap.items():
            v = f.from_scalar(c)
            for j, ej in enumerate(exps):
                v = v * kap[j] ** ej
            coef = coef + v
        *prefix, last = [X[j] for j in w] or [Matrix.identity(module.dim, f)]
        terms.append((1, coef, reduce(matmul, prefix), last) if prefix else (1, coef, last))
    return combine(terms) if terms else Matrix.zeros(module.dim, module.dim, f)


# -- family generation ---------------------------------------------------------------


def generate_rankn_family(module: AffineModule, params: RankNParams,
                          R: int | None = None, T: int = 6) -> RankNFamily:
    """``onsager.generate_family``, the one generator of every rank, with
    its arguments in the order (module, params, R, T)."""
    return generate_family(params, module, T, R)


# -- relations -----------------------------------------------------------------------


def verify_grel(fam: RankNFamily, rwin: int = 2, mmax: int = 3) -> CheckReport:
    """The defining relations of the generated towers over a window.

    All indices i, j run over the finite nodes with the finite Cartan
    pairing.  Exchange symmetry prunes the walks: the pair relations
    are invariant under (i,r) <-> (j,s), the same-node two-step under
    r <-> s, and the cubic is symmetrized in (r1, r2) on both sides.
    Cross-node commutativity of the Theta towers is checked directly.

    Every entry is judged by ``relation`` on the two sides as lists of
    ``combine`` terms: over the exact backend one row pass over their
    difference, which builds neither side.  The symmetrized cubic (grel6)
    has the left side

        S A_j - [2] (A_{i,r1} A_j) A_{i,r2} - [2] (A_{i,r2} A_j) A_{i,r1} + A_j S,
        S = A_{i,r1} A_{i,r2} + A_{i,r2} A_{i,r1},  A_j = A_{j,s},

    which is the sum of the cubic at (r1, r2) and at (r2, r1) regrouped:
    S once per (r1, r2), then four product terms per s, the two middle
    ones one term of coefficient 2 [2] at r1 = r2.  Its right side is the
    right-hand brackets, each with its coefficient times -q^2 c_i C^r1,
    doubled at r1 = r2.  grel4, grel5
    and grel6 take repeated products (and grel6's right-hand brackets,
    which depend on r2 - r1 only) from ProductMemos: one per node pair
    for grel4, and one per node i shared by grel5 and grel6, whose S
    products are grel5's ladder products at node i for every neighbour j.
    A node's memo is dropped once grel6 has walked the node.  A memo for
    the whole call would also reuse grel4's products in grel6, but it
    keeps every product of the call alive.
    """
    _check_windows(fam, rwin, mmax)
    typ = fam.typ
    f = fam.field
    p = fam.params
    C = f.from_scalar(p.C)
    q2 = f.q * f.q
    qm2 = f.one / q2
    two = f.qint(2)
    nodes = list(typ.finite_nodes)
    rep = CheckReport(
        f"tower relations on {fam.module.describe()} ({p.describe()}), "
        f"|r| <= {rwin}, m <= {mmax}"
    )

    for i in nodes:
        for j in nodes:
            if j < i:
                continue
            for m in range(1, mmax + 1):
                for n in range(m if i == j else 1, mmax + 1):
                    if i == j and n == m:
                        continue
                    him, hjn = fam.h(i, m), fam.h(j, n)
                    rep.add("grel1", (i, m, j, n),
                            *relation([(1, None, him, hjn)], [(1, None, hjn, him)], f))

    for i in nodes:
        for j in nodes:
            aij = typ.finite_cartan(i, j)
            for m in range(1, mmax + 1):
                coef = f.from_scalar(qint(m * aij) / Scalar(m))
                for r in range(-rwin, rwin + 1):
                    him, ajr = fam.h(i, m), fam.a(j, r)
                    rep.add("grel2", (i, m, j, r),
                            *relation([(1, None, him, ajr), (-1, None, ajr, him)],
                                      [(1, coef, fam.a(j, r + m)),
                                       (-1, coef * C ** m, fam.a(j, r - m))], f))

    for i in nodes:
        for j in nodes:
            if j <= i or typ.finite_cartan(i, j) != 0:
                continue
            for r in range(-rwin, rwin + 1):
                for s in range(-rwin, rwin + 1):
                    air, ajs = fam.a(i, r), fam.a(j, s)
                    rep.add("grel3", (i, r, j, s),
                            *relation([(1, None, air, ajs)], [(1, None, ajs, air)], f))

    for i in nodes:
        for j in nodes:
            if j <= i:
                continue
            aij = typ.finite_cartan(i, j)
            qma = f.one / f.q ** aij
            mul = ProductMemo().mul
            for r in range(-rwin, rwin + 1):
                for s in range(-rwin, rwin + 1):
                    ai0, ai1 = fam.a(i, r), fam.a(i, r + 1)
                    aj0, aj1 = fam.a(j, s), fam.a(j, s + 1)
                    rep.add("grel4", (i, r, j, s),
                            *relation([(1, None, mul(ai0, aj1)), (1, None, mul(aj0, ai1))],
                                      [(1, qma, mul(aj1, ai0)), (1, qma, mul(ai1, aj0))], f))

    ladder = {}
    for i in nodes:
        ci = f.from_scalar(p.c[i])
        memo = ladder[i] = ProductMemo()
        for r in range(-rwin, rwin + 1):
            for s in range(r, rwin + 1):
                rep.add("grel5", (i, r, s),
                        *relation(*_theta_exchange(memo, fam.A[i], fam.theta[i], ci, C, r, s), f))

    def cubic_rhs(memo, i, j, r1, r2, s):
        # the right side's half at (r1, r2), r1 <= r2, as terms: its memo
        # brackets times -q^2 c_i C^r1 and their own coefficients; the half
        # at (r2, r1) has no term unless r1 = r2, where it doubles the half
        d = r2 - r1
        cr = q2 * f.from_scalar(p.c[i]) * (C ** r1)
        if d == 0:
            cr = cr + cr
        terms = [(-1, cr * (f.q ** (2 * pp)) * two * (C ** (pp + 1)),
                  memo.qbracket(fam.theta_at(i, d - 2 * pp - 1), fam.a(j, s - 1), qm2))
                 for pp in range((d + 1) // 2)]
        terms += [(-1, cr * (f.q ** (2 * pp - 1)) * two * (C ** pp),
                   memo.qbracket(fam.a(j, s), fam.theta_at(i, d - 2 * pp), qm2))
                  for pp in range(1, d // 2 + 1)]
        terms.append((-1, cr, memo.qbracket(fam.a(j, s), fam.theta_at(i, d), qm2)))
        return terms

    for i in nodes:
        memo = ladder.pop(i)
        mul = memo.mul
        for j in nodes:
            if typ.finite_cartan(i, j) != -1:
                continue
            for r1 in range(-rwin, rwin + 1):
                for r2 in range(r1, rwin + 1):
                    a1, a2 = fam.a(i, r1), fam.a(i, r2)
                    S = mul(a1, a2) + mul(a2, a1)
                    for s in range(-rwin, rwin + 1):
                        aj = fam.a(j, s)
                        if r1 == r2:
                            mid = [(-1, two + two, mul(a1, aj), a1)]
                        else:
                            mid = [(-1, two, mul(a1, aj), a2), (-1, two, mul(a2, aj), a1)]
                        lhs = [(1, None, S, aj), *mid, (1, None, aj, S)]
                        rep.add("grel6", (i, r1, r2, j, s),
                                *relation(lhs, cubic_rhs(memo, i, j, r1, r2, s), f))

    for i in nodes:
        for j in nodes:
            if j <= i:
                continue
            for m in range(1, mmax + 1):
                for n in range(1, mmax + 1):
                    tim, tjn = fam.theta_at(i, m), fam.theta_at(j, n)
                    rep.add("theta_commute", (i, m, j, n),
                            *relation([(1, None, tim, tjn)], [(1, None, tjn, tim)], f))
    return rep


def tau_dual_check(fam: RankNFamily, rwin: int, mmax: int) -> CheckReport:
    """``verify_grel`` on the transpose-dual family, at every rank.

    Dual data: A'_{i,r} = C^r (A_{i,-r})^t, H'_{i,m} = (H_{i,m})^t and
    Theta'_{i,m} = (Theta_{i,m})^t, transposed only where the window reads
    them: |r| <= rwin + max(mmax, 1), H'_1..H'_mmax and Theta' up to index
    max(mmax, 2 rwin + 1).
    """
    f = fam.field
    C = f.from_scalar(fam.params.C)
    dual = RankNFamily(fam.module, fam.params, f)
    dual.R, dual.T = _check_windows(fam, rwin, mmax)
    for i in fam.A:
        dual.A[i] = {r: fam.a(i, -r).transpose().scale(C**r)
                     for r in range(-dual.R, dual.R + 1)}
        dual.H[i] = {m: fam.h(i, m).transpose() for m in range(1, mmax + 1)}
        dual.theta[i] = {m: fam.theta_at(i, m).transpose() for m in range(dual.T + 1)}
    rep = verify_grel(dual, rwin, mmax)
    rep.title = "transpose-dual " + rep.title
    return rep


def verify_braid_relations(module: AffineModule, params: RankNParams) -> CheckReport:
    """Braid and commutation relations of the T_i on a module.

    For every bond: T_i T_j = T_j T_i when a_ij = 0 and the length-three
    braid relation when a_ij = -1, compared on the evaluated image of
    each seed; a double bond (rank one) has neither.  Per finite node i,
    ``seed_word`` compares the tower seed A_{i,-1} of
    ``onsager._tower_seeds`` with o(i) T_{omega_i}(B_i), the image X_i of
    B_i under ev . T_{omega_i}.  The rotation pi T_i = T_{i+1} pi is not
    checked: the images apply pi by relabelling the seeds, so its two
    sides take the same q-brackets of the same seed matrices, and no
    damage to a module could fail it.
    """
    typ = module.typ
    f = module.field
    gens = eta_bmats(module, params), _kvals(module, params)
    rep = CheckReport(f"braided symmetries on {module.describe()} "
                      f"({params.describe()})")

    def images(*refs):
        return _braid_images(WeylWord(typ, 0, refs), *gens, f)[0]

    for i in typ.nodes:
        for j in typ.nodes:
            if j <= i:
                continue
            aij = typ.cartan(i, j)
            if aij == -2:
                continue
            if aij == 0:
                name, lhs, rhs = "commute", images(i, j), images(j, i)
            else:
                name, lhs, rhs = "braid", images(i, j, i), images(j, i, j)
            for k in typ.nodes:
                rep.add(name, (i, j, k), *relation([(1, None, lhs[k])], [(1, None, rhs[k])], f))

    for i, Am1 in _tower_seeds(gens[0], params, f).items():
        X = _braid_images(omega_word(i, typ.N), *gens, f)[0]
        rep.add("seed_word", (i,),
                *relation([(1, None, Am1)], [(1 if i % 2 else -1, None, X[i])], f))
    return rep


def braid_compat_check(i: int, module: AffineModule,
                       params: RankNParams) -> CheckReport:
    """Degree screening of the braided word against its two named parts.

    At s = 0, evaluate M1 = T_{omega'_i}(B_i) through the module and
    subtract M2, the sum of the two nested brackets built from the
    plain F_j and from the dressed raisers Et_j = -c_j E_j K_j^-1 (the
    same ``node_bracket`` as the seed).  Every surviving component
    of M1 - M2 must raise the node-i root degree by exactly one and
    strictly raise some other node's degree; at rank one no such
    component exists, so the residual must vanish outright.
    """
    typ = module.typ
    N = typ.N
    if not 1 <= i <= N:
        raise DomainError(f"braid compatibility wants a finite node, got i={i}")
    if not params.s_is_zero:
        raise DomainError(
            "braid compatibility is stated at s = 0; drop the shifts first"
        )
    f = module.field
    M1 = _braid_images(omega_prime_word(i, N), eta_bmats(module, params),
                       _kvals(module, params), f)[0][i]

    Et = {j: combine(((-1, f.from_scalar(params.c[j]), module.E[j], module.Kcinv[j]),))
          for j in typ.nodes}
    D = combine(((1, None, M1), (-1, None, node_bracket(module.F, i, N, f.q)),
                 (-1, None, node_bracket(Et, i, N, f.q))))
    comps = degree_components(D, module.grading)
    rep = CheckReport(f"braid compatibility at node {i} on {module.describe()}")
    if not comps:
        rep.add("residual", (i,), True)
        return rep
    for shift in sorted(comps):
        ok = (shift[i - 1] == 1
              and all(shift[m] >= 0 for m in range(N) if m != i - 1)
              and any(shift[m] > 0 for m in range(N) if m != i - 1))
        rep.add("residual_degree", (i,) + tuple(shift), ok,
                None if ok else
                f"shift {shift} escapes the positive node-{i} raising cone")
    return rep


# -- spectra -------------------------------------------------------------------------


def _rank_one_anchor(fam: RankNFamily, rep: CheckReport, T: int):
    """Tie the N = 1 towers on W_1(a) to the loop picture of the same
    algebra on V_1(-q^-2 a), rebuilt here; other modules, V_1 itself
    included, have no such anchor.  anchor_module compares the Chevalley
    matrices of the two builds.  anchor_towers compares A_{1,-1} and
    A_{1,0}, the seeds of ``fam``, with the loop-side seeds of V_1,

        seed(-1) = -q^-4 c0^-1 K x+_-1 + x-_1 + q^-2 c0^-1 s0 K,
        seed0 = x-_0 - c1 q^2 K^-1 x+_0 + s1 K^-1,

    so the seeds of one build are read through the loop generators of the
    other; one core grows every family from its seeds, so no second family
    is grown.  At s = 0, anchor_factorization runs factorization_check on
    ``fam``."""
    module = fam.module
    if module.meta.get("builder") != "build_vector_evaluation":
        return
    a = module.meta["a"]
    p = fam.params
    f = fam.field
    V = _assemble_evaluation(1, -(a / (Q * Q)), f)
    L = loop_data(V, window=1, T=1)
    ok = True
    wit = None
    for j in (0, 1):
        for ours, theirs in ((module.E[j], V.E[j]), (module.F[j], V.F[j]),
                             (module.Kc[j], V.Kc[j])):
            okj, wj = relation([(1, None, ours)], [(1, None, theirs)], f)
            if not okj:
                ok, wit = False, f"node {j}: {wj}"
                break
        if not ok:
            break
    rep.add("anchor_module", (), ok, wit)
    if not ok:
        return

    c0, c1 = (f.from_scalar(x) for x in p.c)
    s0, s1 = (f.from_scalar(x) for x in p.s)
    q2 = f.q * f.q
    u = f.one / (q2 * c0)
    K, Kinv = V.Kc[1], V.Kcinv[1]
    seeds = ((-1, [(-1, u / q2, K, L.xp[-1]), (1, None, L.xm[1]), (1, u * s0, K)]),
             (0, [(1, None, L.xm[0]), (-1, c1 * q2, Kinv, L.xp[0]), (1, s1, Kinv)]))
    wit = None
    for r, theirs in seeds:
        ok, w = relation([(1, None, fam.A[1][r])], theirs, f)
        if not ok:
            wit = f"A[{r}]: {w}"
            break
    rep.add("anchor_towers", (), ok, wit)
    if p.s_is_zero:
        frep, _ = factorization_check(fam, T)
        rep.add("anchor_factorization", (), frep.ok,
                None if frep.ok else str(frep.first_failure()))


def rankn_spectral_check(fam: RankNFamily, T: int | None = None):
    """Structural spectra of the grave towers, node by node.

    Per node: no component of any grave coefficient may lower a root
    degree; each diagonal line series must close to a rational function
    (Pade within the window), be invariant under z -> C^-1 z^-1
    exactly, and be a quotient D(z) = G(z)/G(q^2 z), G(z) = F(q^-1 z).
    Over Q(q) that quotient is certified exactly by q^2-gcd chains
    (``spectra._line_certificate``), never at a sample q.  Over a numeric
    field it is a tolerance-based fit that pairs zeros and poles along
    q^2-chains of length at most T at the field's own q0
    (``spectra._numeric_fit``), with residual below the field's tol; both
    are the engine ``spectra.drinfeld_data`` reads rank-one lines with.
    Nonzero shifts s multiply every line
    by the one-dimensional character, which obeys the C-reflection
    identity instead, so it is divided out before the quotient test.
    Cross-node commutativity of the towers is exact.  At N = 1 on W_1(a)
    ``_rank_one_anchor`` ties the module and the tower seeds to the loop
    generators of V_1(-q^-2 a) and, at s = 0, adds the factorization
    verdict of the family itself.  Closure failures and unpaired numeric
    roots are reported as inconclusive entries; raise T and retry.
    Returns (report, data): data holds the line series, their closures,
    the certified G per exact line ("certificates") and the fit residual
    per numeric line ("residuals").
    """
    if T is None:
        T = fam.T
    if T > fam.T:
        raise DomainError(f"order {T} exceeds the family window (T={fam.T})")
    if T < 1:
        raise DomainError(f"spectral check needs order T >= 1, got T={T}")
    f = fam.field
    module = fam.module
    g = module.grading
    p = fam.params
    C = f.from_scalar(p.C)
    Cinv = f.one / C
    rep = CheckReport(
        f"spectral towers on {module.describe()} ({p.describe()}), T = {T}"
    )
    data = {"line_series": {}, "closures": {}, "certificates": {}, "residuals": {}}
    multfree = len(set(g.degrees)) == g.dim
    onedim = None
    if not p.s_is_zero:
        # only the two-node diagram admits shifts, so the pack is rank one
        onedim = onedim_closed_form(p, field=f)

    for i in fam.typ.finite_nodes:
        grave = fam.theta_grave[i]
        for s in range(T + 1):
            bad = [sh for sh in sorted(degree_components(grave[s], g))
                   if any(x < 0 for x in sh)]
            rep.add("triangular", (i, s), not bad,
                    None if not bad else f"lowering shifts {bad}")

        data["line_series"][i] = [[grave[s].rows[b][b] for s in range(T + 1)]
                                  for b in range(module.dim)]
        for b in range(module.dim):
            if not multfree:
                rep.add("fit", (i, b), False,
                        "inconclusive: repeated weight vectors; the line "
                        "read-off needs a multiplicity-free module")
                continue
            bud = (T - 1) // 2
            rf = pade_reconstruct(data["line_series"][i][b], bud, bud, f)
            if rf is None:
                rep.add("fit", (i, b), False,
                        f"inconclusive: no rational closure at order {T}; "
                        "raise T")
                continue
            rep.add("fit", (i, b), True)
            data["closures"].setdefault(i, {})[b] = rf
            sym = rf.scale_z(Cinv).inv_z()
            okc = rf == sym
            rep.add("csymmetry", (i, b), okc,
                    None if okc else f"line {b} is not C-symmetric")
            line = rf if onedim is None else rf / onedim
            if f.exact:
                G, wit = _line_certificate(line)
                oku = G is not None
                if oku:
                    data["certificates"][(i, b)] = G
            else:
                oku, res, wit, _ = _numeric_fit(line, f, T)
                if res is not None:
                    data["residuals"][(i, b)] = res
            rep.add("unitary_fit", (i, b), oku, wit)

    for i in fam.typ.finite_nodes:
        for j in fam.typ.finite_nodes:
            if j <= i:
                continue
            for m in range(1, T + 1):
                for n in range(1, T + 1):
                    tim, tjn = fam.theta_grave[i][m], fam.theta_grave[j][n]
                    rep.add("cross_node", (i, m, j, n),
                            *relation([(1, None, tim, tjn)], [(1, None, tjn, tim)], f))

    if fam.typ.N == 1:
        _rank_one_anchor(fam, rep, T)
    return rep, data
