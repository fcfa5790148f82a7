"""Higher-rank families: word combinatorics, braided symmetries, seeds,
relation suites, degree screening, structural spectra.

Oracles, independent of the construction code:

* omega words and their lengths are frozen from the closed form
  pi^i [N-i+1,N]..[1,i] (reflection length i(N-i+1)),
* the seed A_{1,-1} on W_2(q) is recomputed by sympy from scratch
  (elementary matrices, the embedding, one nested q-bracket, the
  central constants) and compared entry by entry,
* the alternating seed calibration is pinned by its failure mode: an
  (-1)^r twist of one node's tower must break exactly the odd-m
  cross-node relations and nothing same-node,
* the rank-one gauge bridge V_1(-q^-2 a) ties N = 1 data to the
  independently tested loop-sl2 module builder,
* braided words composed on generator images are compared, for N <= 4,
  with a symbolic reference that expands the seed formulas word by word
  (``_ref_apply``), and the bracket seeds with the bracket expanded word
  by word (``_ref_bracket``), both in the test's own algebra on the
  package's plain BExpr data.
"""

import json
from collections import Counter
from itertools import chain
from operator import add
from pathlib import Path

import pytest
from damage import uncertified

from qonsager.errors import ConstructionError, DomainError
from qonsager import linmat, ranka
from qonsager.linmat import Matrix, qbracket, relation
from qonsager.loopsl2 import EvalParams, build_evaluation, verify_affine_presentation
from qonsager.onsager import OnsagerParams, _grow_family, generate_family
from qonsager.ranka import (
    AffineModule,
    AffineTypeA,
    BExpr,
    RankNParams,
    WeylWord,
    apply_word,
    braid_compat_check,
    build_Ai_minus1,
    build_vector_evaluation,
    eta_bmats,
    evaluate_bexpr,
    generate_rankn_family,
    omega_prime_word,
    omega_word,
    pk_bracket,
    rankn_spectral_check,
    tau_dual_check,
    verify_braid_relations,
    verify_grel,
)
from qonsager.scalars import (ExactField, NumericField, Q, Scalar, parse_scalar,
                              specialize)
from qonsager.series import FPoly, RationalFunction
from qonsager.spectra import _line_certificate, factorization_check

F = ExactField()


def W(N, a):
    return build_vector_evaluation(N, parse_scalar(a))


def P(c, s=None):
    return RankNParams(c, s)


def fails(rep):
    return [(e.name, e.indices) for e in rep.entries if not e.ok]


def _count_products(monkeypatch):
    """A one-element list that counts every matrix product from now on:
    the product terms of every row pass, where ``@``, ``combine`` and
    ``relation`` form their products.  A numeric pass takes the terms of
    ``combine``, and an exact one every term over their lcm denominator,
    each as (s, num, k, X, Y), a product when Y is a matrix."""
    calls = [0]

    def counting(run, pos, is_product):
        def counted(*args):
            calls[0] += sum(map(is_product, args[pos]))
            return run(*args)
        return counted

    monkeypatch.setattr(linmat, "_number_combine",
                        counting(linmat._number_combine, 0, lambda t: len(t) == 4))
    monkeypatch.setattr(linmat, "_image_pass",
                        counting(linmat._image_pass, 1, lambda t: t[4] is not None))
    return calls


# ------------------------------------------------------------------ diagram


def test_cartan_matrix_shapes():
    t2 = AffineTypeA(2)
    assert [[t2.cartan(i, j) for j in t2.nodes] for i in t2.nodes] == [
        [2, -1, -1], [-1, 2, -1], [-1, -1, 2]]
    t1 = AffineTypeA(1)
    assert t1.cartan(0, 1) == t1.cartan(1, 0) == -2
    t3 = AffineTypeA(3)
    assert t3.cartan(1, 3) == 0 and t3.cartan(0, 3) == -1
    assert t3.finite_cartan(1, 3) == 0 and t3.finite_cartan(2, 3) == -1
    with pytest.raises(DomainError):
        t3.cartan(4, 0)
    with pytest.raises(DomainError):
        AffineTypeA(0)


def test_rotation_and_roots():
    t = AffineTypeA(3)
    assert [t.rotate(j) for j in t.nodes] == [1, 2, 3, 0]
    assert t.alpha(2) == (0, 1, 0)
    assert t.alpha(0) == (-1, -1, -1)


# ------------------------------------------------------- words, frozen forms


def test_omega_words_match_closed_form():
    # the two displayed endpoints at N = 5, plus the middle one by length
    assert repr(omega_word(1, 5)) == "pi^1 s5 s4 s3 s2 s1"
    assert repr(omega_word(5, 5)) == "pi^5 s1 s2 s3 s4 s5"
    assert omega_word(2, 5).refs == (4, 5, 3, 4, 2, 3, 1, 2)
    assert omega_word(2, 5).length == 8


def test_omega_lengths_are_i_times_n_minus_i_plus_1():
    for N in range(1, 6):
        for i in range(1, N + 1):
            assert omega_word(i, N).length == i * (N - i + 1), (i, N)


def test_omega_prime_drops_the_final_letter():
    for N in range(1, 5):
        for i in range(1, N + 1):
            w = omega_word(i, N)
            wp = omega_prime_word(i, N)
            assert w.refs[-1] == i
            assert wp.refs == w.refs[:-1]
            assert wp.pi_power == w.pi_power


def _act_on_root(w, v):
    """The image under the Weyl word w of a vector v of affine simple-root
    coordinates: the reflections s_r(v)_r = v_r - sum_j a_rj v_j right to
    left, then the rotation pi^p."""
    n1 = w.typ.N + 1
    v = list(v)
    for r in reversed(w.refs):
        v[r] = v[r] - sum(w.typ.cartan(r, j) * v[j] for j in range(n1))
    return tuple(v[(m - w.pi_power) % n1] for m in range(n1))


def test_word_root_action_sends_alpha_i_into_minus_theta_plus_delta_shape():
    # omega'_i is a Weyl word, so simple roots go to real roots; the full
    # omega_i ends with s_i and the prefix must send alpha_i to a root
    # with node-0 coefficient 1 (the loop direction enters exactly once):
    # omega'_i(alpha_i) = delta - alpha_i, delta = alpha_0 + .. + alpha_N.
    # The translation omega_i = omega'_i s_i then gives alpha_i - delta.
    for N in (2, 3):
        for i in range(1, N + 1):
            alpha_i = [1 if m == i else 0 for m in range(N + 1)]
            delta_minus = tuple(1 - x for x in alpha_i)
            out = _act_on_root(omega_prime_word(i, N), alpha_i)
            assert out[0] == 1, (N, i, out)
            assert out == delta_minus, (N, i, out)
            full = _act_on_root(omega_word(i, N), alpha_i)
            assert full == tuple(-x for x in delta_minus), (N, i, full)


# ------------------------------------------------------------ seed algebra


# The reference algebra on BExpr data, which has none of its own: a
# product concatenates words and adds the central KK exponents, and
# coefficients that cancel drop out.


def _pairs(e):
    return ((w, ex, c) for w, kmap in e.terms.items() for ex, c in kmap.items())


def _bexpr(nn, pairs):
    """The BExpr summing the coefficients c at (word, exps) over pairs."""
    terms = {}
    for w, ex, c in pairs:
        kmap = terms.setdefault(w, {})
        kmap[ex] = kmap.get(ex, Scalar(0)) + c
    terms = {w: {ex: c for ex, c in kmap.items() if c} for w, kmap in terms.items()}
    return BExpr(nn, {w: kmap for w, kmap in terms.items() if kmap})


def _add(a, b):
    return _bexpr(a.nn, chain(_pairs(a), _pairs(b)))


def _mul(a, b):
    return _bexpr(a.nn, ((w1 + w2, tuple(map(add, e1, e2)), c1 * c2)
                         for w1, e1, c1 in _pairs(a) for w2, e2, c2 in _pairs(b)))


def _scale(e, c, exps=None):
    """c KK^exps e, exps the exponents of the central monomial."""
    exps = exps or (0,) * (e.nn + 1)
    return _bexpr(e.nn, ((w, tuple(map(add, ex, exps)), c * x) for w, ex, x in _pairs(e)))


def _qbr(x, y):
    """[x, y]_q = xy - q yx."""
    return _add(_mul(x, y), _scale(_mul(y, x), -Q))


def _ref_step(i, e):
    """Reference T_i: the seed formulas expanded word by word, no bound."""
    nn = e.nn
    typ = AffineTypeA(nn)

    def image(j):
        if j == i:
            return BExpr(nn, {(i,): {tuple(-(m == i) for m in range(nn + 1)): Scalar(1)}})
        if typ.cartan(i, j) == 0:
            return BExpr.gen(nn, j)
        if typ.cartan(i, j) == -1:
            return _qbr(BExpr.gen(nn, j), BExpr.gen(nn, i))
        raise DomainError(f"T_{i}(B_{j}) sits on a double bond")

    out = BExpr(nn, {})
    for word, kmap in e.terms.items():
        # s_i on a dressing monomial: e_i -> e_i - sum_j a_ij e_j
        acc = BExpr(nn, {(): {
            tuple(x - sum(typ.cartan(i, j) * ex[j] for j in typ.nodes) if m == i else x
                  for m, x in enumerate(ex)): c
            for ex, c in kmap.items()}})
        for j in word:
            acc = _mul(acc, image(j))
        out = _add(out, acc)
    return out


def _ref_apply(w, e):
    """Reference T_w: reflection steps right to left, then the rotation."""
    for r in reversed(w.refs):
        e = _ref_step(r, e)
    n1, p = e.nn + 1, w.pi_power
    return BExpr(e.nn, {
        tuple((j + p) % n1 for j in word):
            {tuple(ex[(m - p) % n1] for m in range(n1)): c for ex, c in kmap.items()}
        for word, kmap in e.terms.items()})


def _ref_bracket(i, N):
    """C_i [P_{i-1}(B_{i-1}, .., B_1), P_{N-i+1}(B_{i+1}, .., B_N, B_0)]_q
    expanded word by word, P_1(y) = y and P_{k+1} = [P_k, y_{k+1}]_q, with
    C_i = C^-1 KK_i the product of the KK_m^-1, m != i."""
    def nested(nodes):
        acc = None
        for j in nodes:
            acc = BExpr.gen(N, j) if acc is None else _qbr(acc, BExpr.gen(N, j))
        return acc

    right = nested([*range(i + 1, N + 1), 0])
    br = right if i == 1 else _qbr(nested(range(i - 1, 0, -1)), right)
    return _scale(br, Scalar(1), tuple(0 if m == i else -1 for m in range(N + 1)))


def _images(word, module, params):
    return ranka._braid_images(word, eta_bmats(module, params),
                               ranka._kvals(module, params), module.field)


def test_braid_step_table():
    # one letter s_1 on the generator images, KK_j = q^2 c_j
    mod, p = W(3, "q"), P(("1", "q", "q^2", "q^3"))
    B = eta_bmats(mod, p)
    X, kap = _images(WeylWord(mod.typ, 0, (1,)), mod, p)
    kk = {j: p.kk(j) for j in range(4)}
    assert X[1] == B[1].scale(1 / kk[1]) and kap[1] == 1 / kk[1]      # KK_1^-1 B_1
    for j in (0, 2):                                  # a_1j = -1: B_j B_1 - q B_1 B_j
        assert X[j] == B[j] @ B[1] - (B[1] @ B[j]).scale(Q)
        assert kap[j] == kk[j] * kk[1]
    assert X[3] == B[3] and kap[3] == kk[3]           # a_13 = 0: untouched


def test_braid_step_refuses_double_bonds():
    # rank one: T_0(B_1) crosses the double bond, but only evaluation says so
    mod, p = W(1, "q"), P(("1", "q"))
    e = apply_word(WeylWord(mod.typ, 0, (0,)), BExpr.gen(1, 1))
    assert e.terms == BExpr.gen(1, 1).terms
    with pytest.raises(DomainError, match="double bond a_01 = -2"):
        evaluate_bexpr(e, mod, p)
    # T_0(B_0) and pi s_1 on B_1 never need the lost image
    B = eta_bmats(mod, p)
    got = evaluate_bexpr(apply_word(WeylWord(mod.typ, 0, (0,)), BExpr.gen(1, 0)), mod, p)
    assert got == B[0].scale(1 / p.kk(0))
    got = evaluate_bexpr(apply_word(omega_word(1, 1), BExpr.gen(1, 1)), mod, p)
    assert got == B[0].scale(1 / p.kk(0))


def test_rank5_node3_word_certifies():
    # a symbolic expansion of this word would reach 7,077,888 words
    mod, p = W(5, "1"), P([1] * 6)
    word = evaluate_bexpr(apply_word(omega_word(3, 5), BExpr.gen(5, 3)), mod, p)
    assert word == evaluate_bexpr(build_Ai_minus1(3, 5), mod, p)
    assert not word.is_zero()
    fam = generate_rankn_family(mod, p, T=1, R=1)
    assert set(fam.A) == {1, 2, 3, 4, 5}


def test_every_node_of_rank8_certifies():
    fam = generate_rankn_family(W(8, "q"), P([1] * 9), T=1, R=1)
    assert set(fam.A) == set(range(1, 9))


def test_rotation_moves_words_and_exponents():
    mod, p = W(2, "q"), P(("1", "q", "q^2"))
    rot = WeylWord(mod.typ, 1, ())
    e = BExpr(2, {(2,): {(1, 0, -1): Scalar(1)}})
    want = BExpr(2, {(0,): {(-1, 1, 0): Scalar(1)}})
    assert _ref_apply(rot, e).terms == want.terms
    assert evaluate_bexpr(apply_word(rot, e), mod, p) == evaluate_bexpr(want, mod, p)
    X, kap = _images(rot, mod, p)
    B = eta_bmats(mod, p)
    assert all(X[j] == B[(j + 1) % 3] and kap[j] == p.kk((j + 1) % 3) for j in range(3))


def test_word_application_is_rightmost_first():
    # T_1 then T_2 on B_1: first K-dress, then the single bond
    mod, p = W(2, "q"), P(("1", "q", "q^2"))
    manual = evaluate_bexpr(_ref_step(2, _ref_step(1, BExpr.gen(2, 1))), mod, p)
    got = evaluate_bexpr(apply_word(WeylWord(mod.typ, 0, (2, 1)), BExpr.gen(2, 1)), mod, p)
    assert got == manual
    other = evaluate_bexpr(apply_word(WeylWord(mod.typ, 0, (1, 2)), BExpr.gen(2, 1)), mod, p)
    assert other != manual


def test_braided_word_sends_kk_to_node_constant():
    # T_{omega'_i}(KK_i) = C KK_i^-1 = prod_{j != i} KK_j; distinct primes as
    # the KK_j make the products equal exactly when the exponents are
    for N in (1, 2, 3, 4):
        mod = W(N, "q")
        primes = [Scalar(x) for x in (2, 3, 5, 7, 11)[:N + 1]]
        B = eta_bmats(mod, P([1] * (N + 1)))
        for i in range(1, N + 1):
            _, kap = ranka._braid_images(omega_prime_word(i, N), B, dict(enumerate(primes)),
                                         mod.field)
            want = Scalar(1)
            for j in range(N + 1):
                if j != i:
                    want = want * primes[j]
            assert kap[i] == want, (N, i)


@pytest.mark.parametrize("field", [None, NumericField(1.3)])
def test_images_match_the_reference_expansion(field):
    for N, a, c in [(1, "q^2", ("q^2", "q^-1")),
                    (2, "q", ("1", "q", "q^2")),
                    (3, "q^-1", ("1", "q", "q^2", "q^-1")),
                    (4, "q", ("1", "q", "1", "q^-1", "q^2"))]:
        mod = build_vector_evaluation(N, parse_scalar(a), field=field)
        p = P(c)
        for i in range(1, N + 1):
            for w in (omega_word(i, N), omega_prime_word(i, N)):
                want = evaluate_bexpr(_ref_apply(w, BExpr.gen(N, i)), mod, p)
                got = evaluate_bexpr(apply_word(w, BExpr.gen(N, i)), mod, p)
                if field is None:
                    assert got == want, (N, i, w)
                else:
                    ok, wit = relation([(1, None, got)], [(1, None, want)], mod.field)
                    assert ok, (N, i, w, wit)


@pytest.mark.parametrize("field", [None, NumericField(1.3)])
def test_seed_expression_is_the_sum_of_its_words(field):
    # 2 q KK_0 - q^-1 KK_2^-1 B_1 B_2 B_0 + KK_1 KK_2 B_2 - KK_2 B_2 on
    # W_2(q): the empty word is the identity, a word's coefficients add,
    # and a cancelling expression evaluates to zero
    mod, p = build_vector_evaluation(2, Q, field=field), P(("q", "q^2", "q^-1"))
    f = mod.field
    B, kk = eta_bmats(mod, p), [f.from_scalar(p.kk(j)) for j in range(3)]
    one = Scalar(1)
    e = BExpr(2, {(): {(1, 0, 0): 2 * Q},
                  (1, 2, 0): {(0, 0, -1): -one / Q},
                  (2,): {(0, 1, 1): one, (0, 0, 1): -one}})
    want = (Matrix.identity(3, f).scale(f.from_scalar(2 * Q) * kk[0])
            - (B[1] @ B[2] @ B[0]).scale(f.from_scalar(one / Q) / kk[2])
            + B[2].scale(kk[1] * kk[2] - kk[2]))
    got = evaluate_bexpr(e, mod, p)
    if field is None:
        assert got == want
    else:
        ok, wit = relation([(1, None, got)], [(1, None, want)], f)
        assert ok, wit
    assert evaluate_bexpr(_add(e, _scale(e, -one)), mod, p).is_zero()
    with pytest.raises(DomainError, match="different ranks"):
        evaluate_bexpr(BExpr.gen(3, 1), mod, p)


def test_ef_chain_identity_as_matrices():
    # T_m .. T_2 (B_1) = P_m(B_1, .., B_m) on the rank-3 vector module
    mod = W(3, "q^2")
    p = P(("1", "q", "q^-1", "q^3"))
    t = AffineTypeA(3)
    B = eta_bmats(mod, p)
    for m in (2, 3):
        word = WeylWord(t, 0, tuple(range(m, 1, -1)))
        got = evaluate_bexpr(apply_word(word, BExpr.gen(3, 1)), mod, p)
        want = pk_bracket([B[k] for k in range(1, m + 1)], mod.field.q)
        assert (got - want).is_zero(), m


# --------------------------------------------------------------- pk brackets


def test_pk_bracket_small_cases():
    f = F
    x = Matrix([[f.zero, f.one], [f.zero, f.zero]], f)
    y = Matrix([[f.zero, f.zero], [f.one, f.zero]], f)
    assert pk_bracket([x], f.q) == x
    assert pk_bracket([x, y], f.q) == qbracket(x, y, f.q)
    with pytest.raises(DomainError):
        pk_bracket([], f.q)


# ------------------------------------------------------------------- modules


def test_vector_module_frozen_entries():
    mod = W(2, "q")
    f = mod.field
    assert mod.dim == 3
    assert mod.E[1].rows[0][1] == f.one and mod.F[1].rows[1][0] == f.one
    assert mod.E[0].rows[2][0] == parse_scalar("q")      # a e_{N,0}
    assert mod.F[0].rows[0][2] == parse_scalar("q^-1")
    assert [mod.Kc[1].rows[b][b] for b in range(3)] == [
        f.q, f.one / f.q, f.one]
    assert [mod.Kc[0].rows[b][b] for b in range(3)] == [
        f.one / f.q, f.one, f.q]
    assert mod.grading.degrees == [(0, 0), (-1, 0), (-1, -1)]
    assert mod.describe() == "W_2(q)"


def test_vector_module_level_zero_and_presentation():
    for N, a in [(1, "q^3"), (2, "q"), (3, "q^-2")]:
        mod = W(N, a)
        f = mod.field
        acc = Matrix.identity(mod.dim, f)
        for j in mod.typ.nodes:
            acc = acc @ mod.Kc[j]
        assert (acc - Matrix.identity(mod.dim, f)).is_zero()
        rep = verify_affine_presentation(mod)
        assert rep.ok, rep.summary()


def test_vector_module_rejects_zero_point():
    with pytest.raises(DomainError):
        build_vector_evaluation(2, Scalar(0))


def test_rank_one_gauge_bridge():
    # the N = 1 builder and the loop-sl2 builder at a' = -q^-2 a carry
    # literally the same Chevalley matrices
    a = parse_scalar("q^2")
    mod = build_vector_evaluation(1, a)
    V = build_evaluation(EvalParams(1, -(a / (Q * Q))), window=1, T=2,
                         field=mod.field)
    for j in (0, 1):
        assert (mod.E[j] - V.E[j]).is_zero()
        assert (mod.F[j] - V.F[j]).is_zero()
        assert (mod.Kc[j] - V.Kc[j]).is_zero()


@pytest.mark.parametrize("N", range(1, 7))
def test_vector_module_grading_closed_form(N):
    # e_b sits at -(alpha_1 + .. + alpha_b), and pairing that weight with
    # the coroots reproduces the K_i eigenvalues relative to e_0
    mod = W(N, "q^2")
    degrees = mod.grading.degrees
    assert degrees == [(-1,) * b + (0,) * (N - b) for b in range(N + 1)]
    for i in range(1, N + 1):
        for b in range(N + 1):
            pair = sum(mod.typ.cartan(i, j) * degrees[b][j - 1] for j in range(1, N + 1))
            assert mod.Kc[i].rows[b][b] / mod.Kc[i].rows[0][0] == Q ** pair


def test_vector_module_swapped_degrees_fail_purity():
    mod = build_vector_evaluation(3, parse_scalar("q"))
    degrees = mod.grading.degrees
    degrees[1], degrees[2] = degrees[2], degrees[1]
    rep = verify_affine_presentation(mod)
    assert {name for name, _ in fails(rep)} == {"purity_e", "purity_f"}


def test_tensor_module_certifies_and_grades():
    t = W(1, "q").tensor(W(1, "q^5"))
    assert t.dim == 4
    assert t.grading.degrees == [(0,), (-1,), (-1,), (-2,)]


@pytest.mark.parametrize("q0, kind", [(1.3, float), (1.2 + 0.5j, complex)],
                         ids=["float", "complex"])
def test_numeric_vector_module_is_the_mapped_exact_module(q0, kind):
    # both numeric stores: floats at a real q0, complex numbers otherwise
    nf = NumericField(q0)
    num = build_vector_evaluation(2, parse_scalar("q"), field=nf)
    exact = W(2, "q")
    assert num.field is nf
    assert {type(x) for M in num.E.values() for r in M.rows for x in r} == {kind}
    assert verify_affine_presentation(num).ok
    assert num.grading == exact.grading
    for gens in ("E", "F", "Kc", "Kcinv"):
        for j in num.typ.nodes:
            ours = getattr(num, gens)[j]
            assert ours.field is nf
            assert ours == getattr(exact, gens)[j].map_entries(nf.from_scalar, nf)


@pytest.mark.parametrize("swap", [True, False])
def test_numeric_tensor_refuses_different_q0(swap):
    # the refusal holds whichever factor sits on the left
    a = build_vector_evaluation(1, parse_scalar("q"), field=NumericField(1.3))
    b = build_vector_evaluation(1, parse_scalar("q^5"), field=NumericField(1.7))
    if swap:
        a, b = b, a
    with pytest.raises(DomainError):
        a.tensor(b)
    same = build_vector_evaluation(1, parse_scalar("q^5"), field=a.field)
    assert a.tensor(same).dim == 4


def test_trivial_module_b_values_are_shifts():
    triv = AffineModule.trivial(1, F)
    p = P(("1", "q^2"), ("q", "1+q"))
    B = eta_bmats(triv, p)
    assert B[0].rows[0][0] == parse_scalar("q")
    assert B[1].rows[0][0] == parse_scalar("1+q")


# ---------------------------------------------------------------- parameters


def test_param_validation():
    with pytest.raises(DomainError):
        P(("1",))
    with pytest.raises(DomainError):
        P(("1", "0"))
    with pytest.raises(DomainError):
        P(("1", "1", "1"), ("1", "0"))
    p = P(("1", "q", "q^2"))
    assert p.N == 2 and p.C == parse_scalar("q^9")
    assert p.kk(1) == parse_scalar("q^3")
    assert p.cconst(1) == parse_scalar("q^-6")


def test_shifts_need_even_bonds():
    # the double bond of rank one admits shifts, single bonds do not
    P(("1", "1"), ("q", "1"))
    with pytest.raises(DomainError) as e:
        P(("1", "1", "1"), ("0", "q", "0"))
    assert "bond" in str(e.value)


def test_rank_mismatch_is_refused():
    with pytest.raises(DomainError):
        generate_rankn_family(W(2, "q"), P(("1", "1")))
    with pytest.raises(DomainError):
        eta_bmats(W(1, "q"), P(("1", "1", "1")))


# ------------------------------------------------------------------- seeds


def test_rank_one_seed_is_the_dressed_affine_generator():
    # A_{1,-1} = q^-2 c_0^-1 B_0 in rank one, shifts included
    mod = W(1, "q^2")
    p = P(("q^2", "q^-1"), ("1", "q"))
    fam = generate_rankn_family(mod, p, T=2, R=2)
    B = eta_bmats(mod, p)
    want = B[0].scale(parse_scalar("q^-4"))      # q^-2 c_0^-1
    assert (fam.A[1][-1] - want).is_zero()


def test_seed_dual_paths_agree_across_ranks():
    for N, a, c in [(2, "q", ("1", "q", "q^2")),
                    (3, "q^-1", ("1", "q", "q^2", "q^-1"))]:
        mod = W(N, a)
        p = P(c)
        for i in range(1, N + 1):
            br = evaluate_bexpr(build_Ai_minus1(i, N), mod, p)
            wd = evaluate_bexpr(apply_word(omega_word(i, N), BExpr.gen(N, i)),
                                mod, p)
            assert (br - wd).is_zero(), (N, i)


@pytest.mark.parametrize("field", [F, NumericField(1.3)], ids=["exact", "q0=1.3"])
def test_matrix_seeds_are_the_symbolic_bracket(field):
    # the seeder and build_Ai_minus1 evaluate node_bracket on matrices;
    # the bracket expanded word by word here and evaluated as a sum of
    # words is their reference, up to the calibration sign o(i) = (-1)^(i-1)
    cs = ("q^2", "q^-1", "q", "1", "q^3")
    cases = [(build_vector_evaluation(N, parse_scalar(a), field=field), P(cs[:N + 1]))
             for N, a in ((1, "q^2"), (2, "q"), (3, "q^-1"), (4, "q^3"))]
    cases.append((build_vector_evaluation(1, parse_scalar("q^2"), field=field),
                  P(cs[:2], ("1", "q"))))
    cases.append((build_vector_evaluation(2, parse_scalar("q"), field=field).tensor(
        build_vector_evaluation(2, parse_scalar("q^3"), field=field)), P(cs[:3])))
    for mod, p in cases:
        N = mod.typ.N
        fam = generate_rankn_family(mod, p, T=1, R=1)
        for i in range(1, N + 1):
            want = evaluate_bexpr(_ref_bracket(i, N), mod, p)
            seed = evaluate_bexpr(build_Ai_minus1(i, N), mod, p)
            o = field.one if i % 2 else -field.one
            if field.exact:
                assert seed == want, (mod.describe(), i)
                assert fam.A[i][-1] == want.scale(o), (mod.describe(), i)
            else:
                for got, c in ((seed, None), (fam.A[i][-1], o)):
                    ok, w = relation([(1, None, got)], [(1, c, want)], field)
                    assert ok, (mod.describe(), i, w)
    # the rank-one seeder on a loop-built module takes the same seed
    V = build_evaluation(EvalParams(2, Q), window=1, T=1, field=field)
    p = P(cs[:2], ("1", "q"))
    ok, w = relation([(1, None, generate_family(p, V, T=1, R=1).A[1][-1])],
                     [(1, None, evaluate_bexpr(_ref_bracket(1, 1), V, p))], field)
    assert ok, w


def test_seed_bracket_against_sympy_rebuild():
    """Independent recomputation of A_{1,-1} on W_2(q), c = (1,1,1)."""
    import sympy as sp

    q = sp.symbols("q")
    a = q
    E = {1: sp.Matrix(3, 3, lambda r, c: 1 if (r, c) == (0, 1) else 0),
         2: sp.Matrix(3, 3, lambda r, c: 1 if (r, c) == (1, 2) else 0),
         0: a * sp.Matrix(3, 3, lambda r, c: 1 if (r, c) == (2, 0) else 0)}
    Fm = {1: sp.Matrix(3, 3, lambda r, c: 1 if (r, c) == (1, 0) else 0),
          2: sp.Matrix(3, 3, lambda r, c: 1 if (r, c) == (2, 1) else 0),
          0: 1 / a * sp.Matrix(3, 3, lambda r, c: 1 if (r, c) == (0, 2) else 0)}
    Kinv = {1: sp.diag(1 / q, q, 1), 2: sp.diag(1, 1 / q, q),
            0: sp.diag(q, 1, 1 / q)}
    B = {j: Fm[j] - E[j] * Kinv[j] for j in (0, 1, 2)}
    # T_{omega_1}(B_1) = C_1 [B_2, B_0]_q with C = q^6, KK_1 = q^2
    P2 = B[2] * B[0] - q * B[0] * B[2]
    want = q**2 / q**6 * P2

    fam = generate_rankn_family(W(2, "q"), P(("1", "1", "1")), T=2, R=2)
    got = fam.A[1][-1]
    for r in range(3):
        for c in range(3):
            ours = sp.sympify(str(got.rows[r][c]).replace("^", "**"))
            assert sp.simplify(ours - want[r, c]) == 0, (r, c)


def test_seed_certification_catches_damage():
    mod = W(2, "q")
    p = P(("1", "1", "1"))
    good = evaluate_bexpr(build_Ai_minus1(1, 2), mod, p)
    word = evaluate_bexpr(apply_word(omega_word(1, 2), BExpr.gen(2, 1)),
                          mod, p)
    assert (good - word).is_zero()
    # damaging a module matrix after build changes the evaluated bracket
    mod = uncertified(mod, E={0: mod.E[0].scale(mod.field.q)})
    assert not (evaluate_bexpr(build_Ai_minus1(1, 2), mod, p) - good).is_zero()
    # with a diagonal entry added to F_1 of a certified W_3 after its build,
    # node 2's bracket and braided word disagree, and generation refuses the
    # module by its i-Serre relations
    mod = build_vector_evaluation(3, Q)
    mod = uncertified(mod, F={1: mod.F[1] + Matrix.diagonal([F.one] + [F.zero] * 3, F)})
    rep = verify_braid_relations(mod, P(("1",) * 4))
    assert [e.indices for e in rep.failures() if e.name == "seed_word"] == [(2,)]
    with pytest.raises(ConstructionError, match=r"W_3\(q\): relation iserre\(0, 1\) failed"):
        generate_rankn_family(mod, P(("1",) * 4), T=1, R=1)


@pytest.mark.parametrize("N", [1, 2, 3, 4])
def test_seed_word_entries_pass_on_vector_modules(N):
    rep = verify_braid_relations(W(N, "q"), P([f"q^{k}" for k in range(N + 1)]))
    assert rep.ok, rep.summary()
    assert [e.indices for e in rep.entries if e.name == "seed_word"] == [
        (i,) for i in range(1, N + 1)]


def test_generation_builds_no_braid_images(monkeypatch):
    # the towers grown from the braided-word seeds o(i) T_{omega_i}(B_i)
    # are the towers generation grows, and generation builds no braid image
    cases = []
    for N, a in ((1, "q^2"), (2, "q"), (3, "q^-1"), (4, "q^3")):
        mod, p = W(N, a), P([f"q^{k}" for k in range(N + 1)])
        B = eta_bmats(mod, p)
        words = {}
        for i in range(1, N + 1):
            X = _images(omega_word(i, N), mod, p)[0][i]
            words[i] = X if i % 2 else X.scale(-F.one)
        cases.append((mod, p, _grow_family(mod, p, B, words, 3, 4)))

    def refuse(*args):
        raise AssertionError("generation built braid images")

    monkeypatch.setattr(ranka, "_braid_images", refuse)
    for mod, p, want in cases:
        fam = generate_rankn_family(mod, p, T=3, R=4)
        for tower in ("B", "A", "theta", "theta_grave"):
            assert getattr(fam, tower) == getattr(want, tower), (mod.describe(), tower)
        assert all(fam.H[i][m] == want.H[i][m] for i in fam.H for m in range(1, 4))


# ------------------------------------------------------------ braided moves


def test_braid_relations_on_modules():
    rep = verify_braid_relations(W(2, "q"), P(("1", "q", "q^2")))
    assert rep.ok, rep.summary()
    # nine braid entries (three bonds, three seeds each) and two seed words
    assert len(rep.entries) == 11
    rep3 = verify_braid_relations(W(3, "q^2"), P(("1", "q", "1", "q^-2")))
    assert rep3.ok, rep3.summary()
    # rank one: the double bond skips every braid row, leaving the seed
    # word of node 1
    rep1 = verify_braid_relations(W(1, "q"), P(("1", "q")))
    assert rep1.ok
    assert {e.name for e in rep1.entries} == {"seed_word"}


def _w2_tensor(field=None):
    """W_2(q) (x) W_2(q^3), dimension 9."""
    return (build_vector_evaluation(2, parse_scalar("q"), field=field)
            .tensor(build_vector_evaluation(2, parse_scalar("q^3"), field=field)))


@pytest.mark.parametrize("damaged", [False, True])
def test_numeric_braid_suites_are_the_exact_ones(damaged):
    # on the tensor the compatibility residual at node 2 is zero up to
    # rounding in its lowering components, which must not count
    def entries(build, field):
        mod = build(field)
        if damaged:
            mod = uncertified(mod, F={0: mod.F[0].scale(mod.field.q)})
        p = P(("1", "q", "q^2"))
        reps = [verify_braid_relations(mod, p)] + [braid_compat_check(i, mod, p) for i in (1, 2)]
        return [[(e.name, e.indices, e.ok) for e in rep.entries] for rep in reps]

    def w2(field):
        return build_vector_evaluation(2, parse_scalar("q"), field=field)

    for build in (w2, _w2_tensor):
        exact = entries(build, None)
        assert entries(build, NumericField(1.3)) == exact
        assert [len(x) for x in exact] == [11, 1, 1]
        assert sum(not ok for x in exact for *_, ok in x) == (4 if damaged else 0)


def test_braid_compat_degree_screen():
    for N, a, c in [(2, "q", ("1", "1", "1")),
                    (2, "q^3", ("1", "q", "q^2")),
                    (3, "q", ("1", "q", "q^2", "q^-1"))]:
        mod = W(N, a)
        for i in range(1, N + 1):
            rep = braid_compat_check(i, mod, P(c))
            assert rep.ok, (N, i, rep.summary())


def test_braid_compat_rank_one_residual_vanishes():
    rep = braid_compat_check(1, W(1, "q^2"), P(("q^2", "q^-1")))
    assert rep.ok
    assert [e.name for e in rep.entries] == ["residual"]


def test_braid_compat_needs_zero_shifts():
    with pytest.raises(DomainError):
        braid_compat_check(1, W(1, "q"), P(("1", "1"), ("1", "0")))


# ------------------------------------------------------------------- towers


def test_family_windows_and_identities():
    fam = generate_rankn_family(W(2, "q"), P(("1", "q", "q^2")), T=5, R=5)
    for i in (1, 2):
        assert (fam.A[i][0] - fam.B[i]).is_zero()
        assert (fam.theta[i][1] - fam.H[i][1]).is_zero()
        assert (fam.theta_grave[i][0]
                - fam.I.scale(fam.field.one)).is_zero()
    with pytest.raises(DomainError):
        fam.a(1, 6)
    with pytest.raises(DomainError):
        fam.h(1, 6)
    with pytest.raises(DomainError):
        fam.theta_at(2, 7)
    assert fam.theta_at(1, -3).is_zero()
    with pytest.raises(DomainError):
        generate_rankn_family(W(2, "q"), P(("1", "1", "1")), T=0)
    with pytest.raises(DomainError):
        generate_rankn_family(W(2, "q"), P(("1", "1", "1")), T=5, R=2)


def test_generation_refuses_a_window_before_building_seeds(monkeypatch):
    # a window that cannot be grown is refused before the seeds are built
    # and certified: no matrix product is taken
    mod = W(3, "q")
    calls = _count_products(monkeypatch)
    for T, R in ((0, None), (5, 2)):
        with pytest.raises(DomainError, match=r"need T >= 1 and R >= T - 1"):
            generate_rankn_family(mod, P(("1",) * 4), T=T, R=R)
    assert calls[0] == 0


def test_trivial_module_towers_collapse():
    # A = 0 on the trivial module, so grel5 at (r, s) = (0, 1) leaves
    # Theta_i(z) = Theta_{i,0} (1 - C z^2)/(1 - q^-2 C z^2): the odd
    # Theta_{i,m} vanish and Theta_{i,2k} = -q^(1-2k) C^k (C = q^9 here).
    # The grave reweighting by (1 - q^-2 C z^2)/(1 - C z^2) collapses the
    # tower to its constant term.
    fam = generate_rankn_family(AffineModule.trivial(2, F),
                                P(("1", "q", "q^2")), T=4, R=4)
    C = fam.params.C
    assert C == Q**9
    for i in (1, 2):
        for r in range(-4, 5):
            assert fam.A[i][r].is_zero(), (i, r)
        for m in range(1, 5):
            assert fam.theta_grave[i][m].is_zero(), (i, m)
            want = Scalar(0) if m % 2 else -(Q ** (1 - m)) * C ** (m // 2)
            assert fam.theta[i][m] == fam.I.scale(want), (i, m)


def test_grel_suite_rank_two():
    fam = generate_rankn_family(W(2, "q"), P(("1", "q", "q^2")), T=7, R=6)
    rep = verify_grel(fam, rwin=2, mmax=3)
    assert rep.ok, rep.summary()
    names = {e.name for e in rep.entries}
    assert names == {"grel1", "grel2", "grel4", "grel5", "grel6",
                     "theta_commute"}
    # the two displayed spot instances
    assert any(e.name == "grel5" and e.indices == (1, -1, -1) and e.ok
               for e in rep.entries)
    assert any(e.name == "grel6" and e.indices == (1, 0, 0, 2, 0) and e.ok
               for e in rep.entries)


def test_grel_suite_rank_three_includes_unlinked_pairs():
    fam = generate_rankn_family(W(3, "q^-1"),
                                P(("1", "q", "q^2", "q^-1")), T=7, R=6)
    rep = verify_grel(fam, rwin=2, mmax=3)
    assert rep.ok, rep.summary()
    assert any(e.name == "grel3" and e.indices[0] == 1 and e.indices[2] == 3
               for e in rep.entries)


def test_grel_window_guard():
    fam = generate_rankn_family(W(2, "q"), P(("1", "1", "1")), T=3, R=3)
    with pytest.raises(DomainError):
        verify_grel(fam, rwin=2, mmax=3)


def test_grel_refuses_negative_windows():
    # a negative window would walk no index of some groups and pass: at
    # (-1, 2) grel2-grel6 would see no A at all
    fam = generate_rankn_family(W(2, "q"), P(("1", "1", "1")), T=3, R=3)
    for rwin, mmax in ((-3, -3), (-1, 2), (1, -1)):
        with pytest.raises(DomainError, match=rf"window \(rwin={rwin}, "
                                              rf"mmax={mmax}\) must be nonnegative"):
            verify_grel(fam, rwin=rwin, mmax=mmax)
    rep = verify_grel(fam, rwin=0, mmax=0)
    assert rep.ok and rep.entries


@pytest.mark.parametrize("N, count", [(2, 91), (3, 207)])
def test_transpose_dual_holds_at_higher_rank(N, count):
    # A'_{i,r} = C^r (A_{i,-r})^t, H' = H^t and Theta' = Theta^t pass every
    # tower relation on W_N(q) (x) W_N(q^3)
    mod = W(N, "q").tensor(W(N, "q^3"))
    fam = generate_rankn_family(mod, P(["1"] * (N + 1)), T=3, R=3)
    rep = tau_dual_check(fam, rwin=1, mmax=2)
    assert rep.ok and len(rep.entries) == count, rep.summary()
    assert rep.title.startswith("transpose-dual ")


def test_transpose_dual_detects_damage_at_rank_three():
    # A_{2,1} scaled by q: the dual reads it as A'_{2,-1}, and every group
    # that reads A'_{2,-1} fails
    fam = generate_rankn_family(W(3, "q^-1"), P(("1", "q", "q^2", "q^-1")), T=5, R=5)
    assert tau_dual_check(fam, rwin=1, mmax=2).ok
    fam.A[2][1] = fam.A[2][1].scale(Q)
    assert Counter(n for n, _ in fails(tau_dual_check(fam, rwin=1, mmax=2))) == {
        "grel2": 12, "grel4": 6, "grel5": 3, "grel6": 30}


def _w2_towers(field=None, damaged=False):
    """Generated W_2(q) towers, optionally with A_{1,2} scaled by q."""
    module = build_vector_evaluation(2, parse_scalar("q"), field=field)
    fam = generate_rankn_family(module, P(("1", "1", "1")), T=7, R=6)
    if damaged:
        fam.A[1][2] = fam.A[1][2].scale(fam.field.q)
    return fam


def test_grel_detects_damage():
    rep = verify_grel(_w2_towers(damaged=True), rwin=2, mmax=3)
    assert not rep.ok
    # every group that reads A_{1,2} fails, each at the same count
    assert Counter(n for n, _ in fails(rep)) == {
        "grel2": 12, "grel4": 10, "grel5": 9, "grel6": 35}


def test_grel_damage_witnesses_are_pinned():
    # the first stored entry of A_{2,0} on W_3(q) (x) W_3(q^3) raised by 1:
    # each group that reads A_{2,0} fails at pinned entries, each naming
    # its first differing entry and value, and so does the transpose-dual
    # check; tests/data/grel_damage_witnesses.json holds both lists
    want = json.loads((Path(__file__).resolve().parent / "data"
                       / "grel_damage_witnesses.json").read_text())
    module = W(3, "q").tensor(W(3, "q^3"))
    fam = generate_rankn_family(module, P(("1",) * 4), R=3, T=3)
    i, j, x = next(fam.A[2][0].nonzero_entries())
    rows = [list(r) for r in fam.A[2][0].rows]
    rows[i][j] = x + 1
    fam.A[2][0] = Matrix(rows, fam.field)
    for key, check in (("grel", verify_grel), ("dual", tau_dual_check)):
        rep = check(fam, rwin=1, mmax=2)
        assert len(rep.entries) == want[key + "_entries"]
        assert [[e.name, list(e.indices), e.witness]
                for e in rep.entries if not e.ok] == want[key], key


@pytest.mark.parametrize("damaged", [False, True])
def test_numeric_grel_verdicts_are_the_exact_ones(damaged):
    exact, numeric = (
        [(e.name, e.indices, e.ok)
         for e in verify_grel(_w2_towers(field, damaged), rwin=2, mmax=3).entries]
        for field in (None, NumericField(1.3)))
    assert numeric == exact
    assert any(not ok for _, _, ok in exact) == damaged


def test_grel_product_count(monkeypatch):
    # each operand pair is multiplied once per relation group (grel6: per
    # node pair), and the symmetrized cubic takes four fresh products per
    # instance; without the memo this window takes 2,988 products
    fam = _w2_towers()
    calls = _count_products(monkeypatch)
    rep = verify_grel(fam, rwin=2, mmax=3)
    assert rep.ok, rep.summary()
    assert calls[0] <= 1200


def _twist_node(fam, i):
    """(-1)^r on the A-ladder, (-1)^m on H/Theta: the sign gauge a lone
    node cannot distinguish."""
    neg = -fam.field.one
    fam.A[i] = {r: (M if r % 2 == 0 else M.scale(neg))
                for r, M in fam.A[i].items()}
    fam.H[i] = {m: (M if m % 2 == 0 else M.scale(neg))
                for m, M in fam.H[i].items()}
    for tower in (fam.theta, fam.theta_grave):
        tower[i] = {m: (M if m % 2 == 0 else M.scale(neg))
                    for m, M in tower[i].items()}


def test_seed_calibration_is_pinned_by_cross_node_relations():
    # Twisting one node leaves every same-node relation intact and breaks
    # exactly the odd-m cross-node ones: the alternating o(i) in the seeds
    # is forced, not conventional.
    fam = generate_rankn_family(W(2, "q"), P(("1", "1", "1")), T=7, R=6)
    _twist_node(fam, 2)
    rep = verify_grel(fam, rwin=2, mmax=3)
    bad = fails(rep)
    assert bad, "the twist must be visible"
    for name, idx in bad:
        assert name in {"grel2", "grel4", "grel6"}, (name, idx)
        if name == "grel2":
            i, m, j, r = idx
            assert i != j and m % 2 == 1, idx
    # same-node texture unaffected
    assert not [x for x in bad if x[0] in {"grel1", "grel5", "theta_commute"}]


def test_numeric_towers_match_specialized_exact():
    q0 = 1.3
    nf = NumericField(q0)
    p = P(("1", "q", "q^2"))
    fam = generate_rankn_family(W(2, "q"), p, T=4, R=4)
    famn = generate_rankn_family(
        build_vector_evaluation(2, parse_scalar("q"), field=nf), p, T=4, R=4)
    for tower in ("A", "H", "theta", "theta_grave"):
        for i in (1, 2):
            for k, M in getattr(fam, tower)[i].items():
                ours = getattr(famn, tower)[i][k]
                exact = M.map_entries(lambda s: specialize(s, q0), field=nf)
                assert (exact - ours).is_zero(scale=max(ours.max_abs(), 1.0)), \
                    (tower, i, k)
    rep = verify_grel(famn, rwin=1, mmax=2)
    assert rep.ok, rep.summary()


def test_numeric_rank_one_towers_match_the_loop_family():
    # through the gauge bridge, the N = 1 towers and the rank-one family
    # on the loop-sl2 module are the same towers, also at a numeric q0
    nf = NumericField(1.3)
    a = parse_scalar("q^2")
    p = P(("q^2", "q^-1"), ("1", "q"))
    fam = generate_rankn_family(build_vector_evaluation(1, a, field=nf), p,
                                T=4, R=5)
    V = build_evaluation(EvalParams(1, -(a / (Q * Q))), window=1, T=4,
                         field=nf)
    ofam = generate_family(OnsagerParams(*p.c, *p.s), V, T=4, R=5)
    for tower in ("A", "H", "theta", "theta_grave"):
        ours = getattr(fam, tower)[1]
        theirs = getattr(ofam, tower)[1]
        assert ours.keys() == theirs.keys(), tower
        for k, M in theirs.items():
            assert (ours[k] - M).is_zero(scale=max(M.max_abs(), 1.0)), (tower, k)


def test_rank_one_seeders_give_equal_towers():
    # the two seeders of the one family core, the bracket on W_1(a) and
    # q^-2 c_0^-1 B_0 on V_1(-q^-2 a), grow the same towers exactly
    a = parse_scalar("q^2")
    p = P(("q^2", "q^-1"), ("1", "q"))
    fam = generate_rankn_family(build_vector_evaluation(1, a), p, T=4, R=5)
    V = build_evaluation(EvalParams(1, -(a / (Q * Q))), window=1, T=4)
    ofam = generate_family(p, V, T=4, R=5)
    assert fam.B == ofam.B
    for tower in ("A", "H", "theta", "theta_grave"):
        assert getattr(fam, tower) == getattr(ofam, tower), tower


def test_towers_with_shifts_at_rank_one():
    # rank one admits shifts; the full same-node suite must still close
    fam = generate_rankn_family(W(1, "q^2"), P(("q^2", "q^-1"), ("1", "q")),
                                T=7, R=6)
    rep = verify_grel(fam, rwin=2, mmax=3)
    assert rep.ok, rep.summary()


@pytest.mark.parametrize("c", [("q^2", "q^-1"), ("q^-1", "q^2")])
def test_shifted_rank_one_towers_keep_low_denominators(c):
    # the ladder steps by Hbar1 = H1/[2], so without the reduction of sums
    # and combinations each rung multiplied D by q^2 + 1, up to (q^2 + 1)^13
    # (degree 26) at T = R = 13; the towers hold Laurent entries or entries
    # over q^2 + 1 only
    fam = generate_rankn_family(W(1, "q^2"), P(c, ("1", "q")), T=13, R=13)
    towers = [fam.A[1], fam.H[1], fam.theta[1], fam.theta_grave[1]]
    degrees = [len(M._d) - 1 for tower in towers for M in tower.values()]
    assert len(degrees) == 27 + 13 + 14 + 14
    assert max(degrees) <= 2


# ------------------------------------------------------------------ spectra


def test_spectral_structure_rank_two():
    fam = generate_rankn_family(W(2, "q"), P(("1", "1", "1")), T=6, R=6)
    rep, data = rankn_spectral_check(fam, T=6)
    assert rep.ok, rep.summary()
    # node 1, top line: (1 - q^3 z)^2 / ((1 - q z)(1 - q^5 z)) frozen
    f = fam.field
    num = FPoly([f.one, parse_scalar("-2q^3"), parse_scalar("q^6")], f)
    den = FPoly([f.one, parse_scalar("-q^5-q"), parse_scalar("q^6")], f)
    assert data["closures"][1][0] == RationalFunction(num, den)
    # certified exactly as G(z)/G(q^2 z) with G = (1 - q^3 z)/(1 - q z)
    G = RationalFunction(FPoly([f.one, -Q ** 3], f), FPoly([f.one, -Q], f))
    assert data["certificates"][(1, 0)] == G
    assert data["residuals"] == {}
    # the same closure damaged in one coefficient has no certificate
    num = data["closures"][1][0].num.coeffs
    damaged = RationalFunction(FPoly([num[0], num[1] + Scalar(1)] + num[2:], F), den)
    assert _line_certificate(damaged)[0] is None


def test_spectral_structure_rank_three():
    fam = generate_rankn_family(W(3, "q^-1"),
                                P(("1", "q", "q^2", "q^-1")), T=6, R=6)
    rep, _ = rankn_spectral_check(fam)
    assert rep.ok, rep.summary()


def test_spectral_trivial_module_is_unity():
    fam = generate_rankn_family(AffineModule.trivial(2, F),
                                P(("1", "q", "q^2")), T=6, R=6)
    rep, data = rankn_spectral_check(fam)
    assert rep.ok, rep.summary()
    for i in (1, 2):
        assert str(data["closures"][i][0]) == "1"


def test_spectral_rank_one_anchor_entries():
    fam = generate_rankn_family(W(1, "q^2"), P(("q^2", "q^-1")), T=6, R=6)
    rep, _ = rankn_spectral_check(fam)
    assert rep.ok, rep.summary()
    names = {e.name for e in rep.entries}
    assert {"anchor_module", "anchor_towers", "anchor_factorization"} <= names


def test_loop_built_rank_one_module_skips_the_anchor():
    # V_1(-q^-2 a) carries W_1(a)'s matrices, but its meta describes the
    # loop builder: the anchor, which rebuilds V_1 from W_1's a, must not run
    a = parse_scalar("q^2")
    p = P(("q^2", "q^-1"))
    loop = build_evaluation(EvalParams(1, -(a / (Q * Q))), window=1, T=2)
    ours, _ = rankn_spectral_check(generate_rankn_family(loop, p, T=6, R=6))
    theirs, _ = rankn_spectral_check(
        generate_rankn_family(build_vector_evaluation(1, a), p, T=6, R=6))
    assert ours.ok and not ours.failures(), ours.summary()
    entries = lambda rep: [(e.name, e.indices, e.ok, e.witness) for e in rep.entries
                           if not e.name.startswith("anchor_")]
    assert entries(ours) == entries(theirs)
    assert len(ours.entries) < len(theirs.entries)


def _anchor_entries(rep):
    return {e.name: (e.ok, e.witness) for e in rep.entries
            if e.name.startswith("anchor_")}


def test_anchor_towers_fails_a_damaged_seed():
    # the core grows W_1(a)'s towers from a damaged A_{1,-1}: the anchor
    # compares seeds, so it must see the damage without growing a family
    mod, p = W(1, "q^2"), P(("q^2", "q^-1"))
    good = generate_rankn_family(mod, p, T=6, R=6)
    bad_seed = good.A[1][-1] + Matrix.diagonal([Q, F.zero], F)
    bad = _grow_family(mod, p, eta_bmats(mod, p), {1: bad_seed}, 6, 6)
    rep, _ = rankn_spectral_check(bad)
    got = _anchor_entries(rep)
    assert got["anchor_module"] == (True, None)
    ok, wit = got["anchor_towers"]
    assert not ok and wit.startswith("A[-1]: "), wit


def test_anchor_towers_fails_a_damaged_root():
    # A_{1,0} = B_1 damaged, A_{1,-1} kept: the first seed compared passes
    # and the second one fails
    mod, p = W(1, "q^2"), P(("q^2", "q^-1"))
    good = generate_rankn_family(mod, p, T=6, R=6)
    B = eta_bmats(mod, p)
    B[1] = B[1] + Matrix.diagonal([Q, F.zero], F)
    bad = _grow_family(mod, p, B, {1: good.A[1][-1]}, 6, 6)
    rep, _ = rankn_spectral_check(bad)
    got = _anchor_entries(rep)
    assert got["anchor_module"] == (True, None)
    ok, wit = got["anchor_towers"]
    assert not ok and wit.startswith("A[0]: "), wit


@pytest.mark.parametrize("field", [F, NumericField(1.3)], ids=["exact", "q0=1.3"])
def test_anchor_factorization_fails_a_damaged_grave_tower(field):
    # seeds intact, Theta-grave_{1,3} scaled by q: of the anchor entries
    # only the factorization sees it, at the diagonal of order 3
    fam = generate_rankn_family(build_vector_evaluation(1, parse_scalar("q^2"), field=field),
                                P(("q^2", "q^-1")), T=6, R=6)
    fam.theta_grave[1][3] = fam.theta_grave[1][3].scale(field.q)
    rep, _ = rankn_spectral_check(fam)
    got = _anchor_entries(rep)
    assert got["anchor_module"] == got["anchor_towers"] == (True, None)
    ok, wit = got["anchor_factorization"]
    assert not ok and "name='diagonal', indices=(3,)" in wit, wit


def test_anchor_module_fails_a_damaged_module():
    # W_1(q^2) that names its parameter q^3 after its build: the module
    # keeps its relations, so generation grows it, but the rebuilt
    # V_1(-q^-2 q^3) disagrees at node 0 and nothing past the module runs
    mod = build_vector_evaluation(1, parse_scalar("q^2"))
    mod = uncertified(mod, meta={"a": parse_scalar("q^3")})
    fam = generate_rankn_family(mod, P(("q^2", "q^-1")), T=6, R=6)
    rep, _ = rankn_spectral_check(fam)
    got = _anchor_entries(rep)
    assert got.keys() == {"anchor_module"}
    ok, wit = got["anchor_module"]
    assert not ok and wit.startswith("node 0: "), wit


@pytest.mark.parametrize("field", [F, NumericField(1.3)], ids=["exact", "q0=1.3"])
def test_anchor_factorization_matches_the_rank_one_family(field):
    # read on W_1(a)'s own family, the anchor's factorization entry is the
    # verdict of factorization_check on the rank-one family of V_1(-q^-2 a)
    a = parse_scalar("q^2")
    p = P(("q^2", "q^-1"))
    fam = generate_rankn_family(build_vector_evaluation(1, a, field=field), p,
                                T=6, R=6)
    rep, _ = rankn_spectral_check(fam)
    V = build_evaluation(EvalParams(1, -(a / (Q * Q))), window=1, T=1, field=field)
    frep, _ = factorization_check(generate_family(p, V, T=6, R=6), 6)
    assert frep.ok, frep.summary()
    assert _anchor_entries(rep)["anchor_factorization"] == (frep.ok, None)
    entries = lambda r: [(e.name, e.indices, e.ok, e.witness) for e in r.entries]
    assert entries(factorization_check(fam, 6)[0]) == entries(frep)


def test_spectral_shifts_divide_out_the_character():
    # with shifts the lines close at higher degree and the unitary fit
    # applies to the quotient by the one-dimensional character
    fam = generate_rankn_family(W(1, "q^2"), P(("q^2", "q^-1"), ("1", "q")),
                                T=13, R=13)
    rep, data = rankn_spectral_check(fam, T=13)
    assert rep.ok, rep.summary()
    assert data["closures"][1][0].num.degree == 6


def test_spectral_tensor_lines_are_inconclusive_not_wrong():
    big = W(1, "q").tensor(W(1, "q^5"))
    fam = generate_rankn_family(big, P(("1", "q")), T=6, R=6)
    rep, _ = rankn_spectral_check(fam)
    tri = [e for e in rep.entries if e.name == "triangular"]
    assert tri and all(e.ok for e in tri)
    fit = [e for e in rep.entries if e.name == "fit"]
    assert fit and all(not e.ok and "inconclusive" in e.witness for e in fit)


@pytest.mark.parametrize("case", ["W1(q^2)", "W2(q)xW2(q^3)"])
def test_numeric_spectral_verdicts_are_the_exact_ones(case):
    # lowering components and cross-node commutators that vanish exactly
    # leave rounding residues at q0 = 1.3, which must not count: the
    # numeric verdicts are the exact ones
    def entries(field):
        if case == "W1(q^2)":
            mod = build_vector_evaluation(1, parse_scalar("q^2"), field=field)
            fam = generate_rankn_family(mod, P(("q^2", "q^-1"), ("1", "q")), T=13, R=13)
        else:
            fam = generate_rankn_family(_w2_tensor(field), P(("1", "1", "1")), T=6)
        rep, _ = rankn_spectral_check(fam)
        return [(e.name, e.indices, e.ok) for e in rep.entries
                if e.name in ("triangular", "csymmetry", "cross_node")]

    exact = entries(None)
    assert entries(NumericField(1.3)) == exact
    assert exact and all(ok for *_, ok in exact)


def _rf(num, den):
    """num/den from ascending z-coefficient strings, over Q(q)."""
    return RationalFunction(FPoly([parse_scalar(c) for c in num], F),
                            FPoly([parse_scalar(c) for c in den], F))


_CHAIN = ("1", "-q-q^3-q^5", "q^4+q^6+q^8", "-q^9")  # (1 - qz)(1 - q^3 z)(1 - q^5 z)


@pytest.mark.parametrize("line, G", [
    ((("1", "-q"), ("1", "-q^7")), (_CHAIN, ("1",))),
    ((("1", "-q^7"), ("1", "-q")), (("1",), _CHAIN)),
], ids=["three-link-zero-chain", "three-link-pole-chain"])
def test_line_certificate_accepts(line, G):
    got, wit = _line_certificate(_rf(*line))
    assert wit is None and got == _rf(*G)


@pytest.mark.parametrize("num, den", [
    (("1", "-q^3"), ("1", "-q^4")),
    (("1", "-2"), ("1", "-3")),
    (("2", "-2q"), ("1", "-q^3")),
], ids=["odd-dispersion", "no-q-chain", "constant-2"])
def test_line_certificate_rejects(num, den):
    got, wit = _line_certificate(_rf(num, den))
    assert got is None and wit


def test_numeric_fit_reads_the_field_q0():
    # the fit pairs roots at the q0 the entries were computed at, not 1.3
    mod = build_vector_evaluation(3, parse_scalar("q^2"), field=NumericField(1.7))
    fam = generate_rankn_family(mod, P(("1", "1", "1", "1")), T=6, R=6)
    rep, data = rankn_spectral_check(fam, T=6)
    fit = [e for e in rep.entries if e.name == "unitary_fit"]
    assert len(fit) == 12 and all(e.ok for e in fit), rep.summary()
    assert all("tolerance-based at q0 = 1.7+0j" in e.witness for e in fit)
    assert len(data["residuals"]) == 12 and not data["certificates"]


@pytest.mark.parametrize("tol", [1e-9, 1e-7])
def test_numeric_fit_reads_the_field_tol(tol):
    # W_2(q), c = 1, T = 8 at q0 = 1.3: the top node-1 line fits with a
    # residual of about 7.1e-8, between the two tolerances
    mod = build_vector_evaluation(2, parse_scalar("q"), field=NumericField(1.3, tol=tol))
    fam = generate_rankn_family(mod, P(("1", "1", "1")), T=8, R=8)
    rep, data = rankn_spectral_check(fam, T=8)
    fit = {e.indices: e for e in rep.entries if e.name == "unitary_fit"}
    assert 1e-9 < data["residuals"][(1, 0)] < 1e-7
    assert fit[(1, 0)].ok is (tol > 1e-8)
    assert all(e.witness.endswith(f"{tol:.0e}") for e in fit.values())


def test_spectral_window_guard():
    fam = generate_rankn_family(W(2, "q"), P(("1", "1", "1")), T=4, R=4)
    with pytest.raises(DomainError):
        rankn_spectral_check(fam, T=6)
    for T in (0, -1):
        with pytest.raises(DomainError, match=rf"needs order T >= 1, got T={T}$"):
            rankn_spectral_check(fam, T=T)
