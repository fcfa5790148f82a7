"""Current families: generation, presentation relations, rationality,
one-dimensional dual path.

Oracles, independent of the generation code:

* sympy recomputes the one-dimensional spectral series from the closed
  form with its own symbolic engine (test-only dependency),
* the ladder values of one-dimensional realizations are frozen by the
  parity formula A_{2k} -> C^k s1, A_{2k-1} -> C^k q^-2 c0^-1 s0,
* at s = 0 the one-dimensional family must collapse entirely (ladder
  zero, grave tower the constant series 1).
"""

import math
import random
from collections import Counter
from collections.abc import Mapping

import pytest
from damage import uncertified
from hypothesis import given, settings
from hypothesis import strategies as st

from qonsager.errors import ConstructionError, DomainError
from qonsager import onsager
from qonsager.linmat import Matrix, combine, relation
from qonsager.loopsl2 import EvalParams, build_evaluation, tensor
from qonsager.onsager import (
    OnsagerParams,
    eta_bmats,
    generate_family,
    onedim_character,
    onedim_closed_form,
    onedim_drf,
    rationality_check,
    verify_iserre,
    verify_presentation,
)
from qonsager.ranka import (RankNParams, build_vector_evaluation, generate_rankn_family,
                            tau_dual_check, verify_grel)
from qonsager.scalars import ExactField, NumericField, Q, Scalar, parse_scalar, specialize
from qonsager.series import FPoly, RationalFunction
from qonsager.spectra import coproduct_aplus_check, drf_reports, factorization_check, grouplike_check
from test_ranka import _count_products
from test_series import h_from_theta

F = ExactField()


def V(n, a, window=3, T=6, field=None):
    return build_evaluation(EvalParams(n, parse_scalar(a)), window=window, T=T,
                            field=field)


def P(c0, c1, s0, s1):
    return OnsagerParams(c0, c1, s0, s1)


def onedim(p, T=6):
    mod = build_evaluation(EvalParams(0, Scalar(1)), window=1, T=1)
    return generate_family(p, mod, T=T, R=2 * T)


# ------------------------------------------------------------------ oracles


def sympy_series_oracle(c0, c1, s0, s1, T):
    """Closed-form series coefficients recomputed by sympy from scratch."""
    import sympy as sp

    q, z = sp.symbols("q z")
    c0, c1, s0, s1 = (sp.sympify(x) for x in (c0, c1, s0, s1))
    C = q**4 * c0 * c1
    t = s0 / (q**2 * c0)
    alpha = C * t**2 + s1**2
    beta = t * s1
    w = (q - 1 / q) ** 2 / (q * c1)
    D = (w * C * (alpha * z + beta * (1 + C * z**2)) * z
         + (1 - C * z**2) ** 2) / (1 - C * z**2) ** 2
    ser = sp.series(D, z, 0, T + 1).removeO()
    return [sp.simplify(sp.expand(ser).coeff(z, k)) for k in range(T + 1)]


def to_sympy(s):
    import sympy as sp

    return sp.sympify(str(s).replace("^", "**"))


def test_onedim_series_matches_independent_engine():
    import sympy as sp

    q = sp.symbols("q")
    cases = [
        (("1", "1", "1", "q"), (1, 1, 1, q)),
        (("q^2", "q^-2", "1", "0"), (q**2, q**-2, 1, 0)),
        (("2", "1", "q", "1+q"), (2, 1, q, 1 + q)),
    ]
    for ours, theirs in cases:
        p = P(*ours)
        fam = onedim(p, T=5)
        want = sympy_series_oracle(*theirs, T=5)
        for s in range(6):
            got = to_sympy(fam.theta_grave[1][s].rows[0][0])
            assert sp.simplify(got - want[s]) == 0, (ours, s)


def test_onedim_ladder_parity_values():
    p = P("1", "q^2", "q", "1")
    fam = onedim(p, T=4)
    C = parse_scalar("q^6")          # q^4 c0 c1
    t = parse_scalar("q^-2") * parse_scalar("q")   # q^-2 c0^-1 s0
    assert fam.A[1][0].rows[0][0] == Scalar(1)
    assert fam.A[1][-1].rows[0][0] == t
    assert fam.A[1][2].rows[0][0] == C
    assert fam.A[1][1].rows[0][0] == C * t
    assert fam.A[1][-2].rows[0][0] == C**-1
    assert fam.A[1][-3].rows[0][0] == C**-1 * t
    assert fam.theta_grave[1][0].rows[0][0] == Scalar(1)


def test_onedim_collapses_at_s_zero():
    fam = onedim(P("1", "q^2", "0", "0"), T=5)
    for r in range(-fam.R, fam.R + 1):
        if r != 0 or True:
            assert not fam.A[1][r].rows[0][0], r
    for s in range(1, 6):
        assert not fam.theta_grave[1][s].rows[0][0], s
    assert fam.theta_grave[1][0].rows[0][0] == Scalar(1)


def test_onedim_dual_path_report():
    for c0, c1, s0, s1 in [("1", "1", "1", "1"), ("q^2", "q^-2", "1", "q"),
                           ("1", "2", "0", "q")]:
        rep, D = onedim_character(P(c0, c1, s0, s1), T=6)
        assert rep.ok, rep.summary()
        ser = D.expand_at_zero(2)
        assert len(ser) == 3
        assert ser[0] == Scalar(1)


def test_numeric_csymmetry_is_decided_at_a_relative_tolerance(monkeypatch):
    # numeric RationalFunction equality (==, at the scale of the cross
    # products) passes the true closed form at q0 = 1.3 and fails one whose
    # z^1 numerator coefficient is off by a relative 1e-3
    p = P("q^2", "q^-1", "1", "q")
    nf = NumericField(1.3)
    D = onedim_closed_form(p, nf)
    Cinv = nf.one / nf.from_scalar(p.C)
    assert D == D.scale_z(Cinv).inv_z()
    rep, _ = onedim_character(p, T=6, field=nf)
    assert rep.ok, rep.summary()
    assert [e.ok for e in rep.entries if e.name == "csymmetry"] == [True]

    def perturbed(params, field=None):
        D = onedim_closed_form(params, field)
        num = [c * (1 + 1e-3) if k == 1 else c for k, c in enumerate(D.num.coeffs)]
        return RationalFunction(FPoly(num, D.field), D.den)

    bent = perturbed(p, nf)
    assert bent != bent.scale_z(Cinv).inv_z()
    monkeypatch.setattr(onsager, "onedim_closed_form", perturbed)
    rep, _ = onedim_character(p, T=6, field=nf)
    assert [e.ok for e in rep.entries if e.name == "csymmetry"] == [False]


# ------------------------------------------------------- families on modules


def test_embed_cross_checked_on_evaluation():
    p = P("1", "1", "1", "q")
    mod = V(1, "q")
    B = eta_bmats(mod, p)
    B0, B1 = B[0], B[1]
    # B1 = F1 - c1 E1 K1^-1 + s1 K1^-1 written out on the weight basis
    q = Q
    assert B1.rows[1][0] == Scalar(1)
    assert B1.rows[0][1] == -(q**2) * q**-1      # -c1 q^2 K^-1 x+_0 entry
    assert B1.rows[0][0] == parse_scalar("q") * q**-1
    rep = verify_iserre(mod, p, B)
    assert rep.ok, rep.summary()


def test_qdolangrady_detects_damage():
    # B_1 scaled by q: F_1 and K_1^-1 scaled by q after the build
    p = P("1", "1", "1", "q")
    good = V(1, "q")
    mod = uncertified(good, F={1: good.F[1].scale(Q)}, Kcinv={1: good.Kcinv[1].scale(Q)})
    assert eta_bmats(mod, p)[1] == eta_bmats(V(1, "q"), p)[1].scale(Q)
    rep = verify_iserre(mod, p, eta_bmats(mod, p))
    assert not rep.ok
    assert any(e.name == "iserre" for e in rep.failures())


@pytest.mark.parametrize("field", [F, NumericField(1.3)], ids=["exact", "numeric"])
def test_iserre_holds_at_every_bond_type(field):
    # a_ij = -2 on V_n with shifts; a_ij = -1 and 0 on W_N tensors
    p = P("q", "2", "1", "q")
    for n in (1, 2, 3):
        mod = V(n, "q", window=1, T=1, field=field)
        rep = verify_iserre(mod, p, eta_bmats(mod, p))
        assert rep.ok and len(rep.entries) == 2, rep.summary()
    for N in (2, 3, 4):
        mod = tensor(build_vector_evaluation(N, Q, field=field),
                     build_vector_evaluation(N, parse_scalar("q^3"), field=field))
        p = RankNParams([f"q^{k}" for k in range(N + 1)])
        rep = verify_iserre(mod, p, eta_bmats(mod, p))
        assert rep.ok and len(rep.entries) == N * (N + 1), rep.summary()


def _damaged_e1(N):
    """W_N(q) with one entry of E_1 raised by 1 after the build."""
    mod = build_vector_evaluation(N, Q)
    rows = [list(r) for r in mod.E[1].rows]
    rows[0][1] += F.one
    return uncertified(mod, E={1: Matrix(rows, F)})


@pytest.mark.parametrize("N, failing", [(1, {(1, 0)}), (2, {(1, 0), (1, 2)}),
                                        (3, {(1, 0), (1, 2)})])
def test_iserre_fails_on_a_damaged_module(N, failing):
    # at N <= 2 the braided seed word cannot see this damage, the i-Serre
    # relations do
    mod, p = _damaged_e1(N), RankNParams([1] * (N + 1))
    rep = verify_iserre(mod, p, eta_bmats(mod, p))
    assert {e.indices for e in rep.failures()} == failing
    assert {e.name for e in rep.failures()} == {"iserre"}


@pytest.mark.parametrize("N", [1, 2, 3])
def test_generation_refuses_a_damaged_module(N):
    # the one generator certifies its seeds by their i-Serre relations and
    # names the first failing entry, at every rank
    with pytest.raises(ConstructionError, match=r"W_%d\(q\): relation iserre\(1, 0\) "
                                                r"failed \[entry " % N):
        generate_family(RankNParams([1] * (N + 1)), _damaged_e1(N), T=1, R=1)


def test_presentation_on_v1():
    p = P("1", "1", "1", "0")
    fam = generate_family(p, V(1, "q"), T=5, R=6)
    rep = verify_presentation(fam, rwin=2, mmax=3)
    assert rep.ok, rep.summary()
    assert len(rep.entries) > 30


def test_presentation_on_v2_and_tensor():
    p = P("q^2", "q^-2", "1", "q")
    fam = generate_family(p, V(2, "q^2", window=2, T=4), T=3, R=4)
    rep = verify_presentation(fam, rwin=1, mmax=2)
    assert rep.ok, rep.summary()

    w = tensor(V(1, "q", window=2, T=3), V(1, "q^3", window=2, T=3))
    fam2 = generate_family(p, w, T=3, R=4)
    rep2 = verify_presentation(fam2, rwin=1, mmax=2)
    assert rep2.ok, rep2.summary()


def test_presentation_detects_damage():
    p = P("1", "1", "1", "0")
    fam = generate_family(p, V(1, "q"), T=5, R=6)
    fam.A[1][2] = fam.A[1][2].scale(Q)
    rep = verify_presentation(fam, rwin=2, mmax=3)
    assert not rep.ok
    names = {e.name for e in rep.failures()}
    assert names & {"rel2", "rel3"}


@pytest.mark.parametrize("field", [None, NumericField(1.3)])
def test_presentation_and_dual_pin_their_damage(field):
    # A_2 scaled by q: every rel2/rel3 instance that reads A_2 (or, in the
    # dual's grel2/grel5, A'_{-2}) fails, exactly and at a numeric q0 alike
    p = P("q^2", "q^-2", "1", "q")
    fam = generate_family(p, V(1, "q", field=field), T=5, R=6)
    fam.A[1][2] = fam.A[1][2].scale(fam.field.q)
    for check, count, want in ((verify_presentation, 36, {"rel2": 6, "rel3": 9}),
                               (tau_dual_check, 33, {"grel2": 6, "grel5": 5})):
        rep = check(fam, rwin=2, mmax=3)
        assert len(rep.entries) == count
        assert Counter(e.name for e in rep.failures()) == want, check.__name__


@pytest.mark.parametrize("bad", [math.inf, -math.inf, math.nan], ids=["inf", "-inf", "nan"])
def test_presentation_and_dual_fail_at_a_non_finite_scale(bad):
    # A_2 scaled by inf or NaN keeps its unstored entries at 0, so it is
    # not the dense matrix of NaN; every instance that reads it still fails,
    # since no tolerance holds at a scale that is not finite
    p = P("q^2", "q^-2", "1", "q")
    fam = generate_family(p, V(1, "q", field=NumericField(1.3)), T=5, R=6)
    fam.A[1][2] = fam.A[1][2].scale(bad)
    for check, want in ((verify_presentation, {"rel2": 6, "rel3": 9}),
                        (tau_dual_check, {"grel2": 6, "grel5": 5})):
        rep = check(fam, rwin=2, mmax=3)
        assert Counter(e.name for e in rep.failures()) == want, check.__name__


def test_window_guards():
    p = P("1", "1", "0", "0")
    fam = generate_family(p, V(1, "q"), T=3, R=3)
    with pytest.raises(DomainError):
        verify_presentation(fam, rwin=2, mmax=3)
    with pytest.raises(DomainError, match=r"needs R >= 5 and T >= 5; "
                                          r"the family has R=3, T=3"):
        tau_dual_check(fam, rwin=2, mmax=3)
    with pytest.raises(DomainError):
        fam.theta_at(1, 17)
    with pytest.raises(DomainError):
        fam.a(1, 9)


@pytest.mark.parametrize("check", [verify_presentation, tau_dual_check])
def test_negative_windows_are_refused(check):
    # a negative window walks no index and would pass with no entry
    fam = generate_family(P("1", "1", "0", "0"), V(1, "q"), T=3, R=3)
    for rwin, mmax in ((-2, -2), (-1, 2), (1, -1)):
        with pytest.raises(DomainError, match=rf"window \(rwin={rwin}, "
                                              rf"mmax={mmax}\) must be nonnegative"):
            check(fam, rwin, mmax)
    rep = check(fam, 0, 0)
    assert rep.ok and rep.entries


def test_rank_one_entry_points_refuse_other_ranks():
    # rank-one parameters on W_3(q) are refused by the seeds, and a rank-3
    # family or parameters by every rank-one suite before any family is
    # grown, instead of checking nodes 0 and 1; the one generator and the
    # transpose dual run at rank 3
    w3 = build_vector_evaluation(3, parse_scalar("q"))
    with pytest.raises(DomainError, match="parameters for rank 1 on a rank 3 module"):
        generate_family(P(1, 1, 0, 0), w3, T=3, R=4)
    fam = generate_rankn_family(w3, RankNParams([1] * 4), T=3, R=4)
    assert generate_family(fam.params, w3, T=3, R=4).A == fam.A
    assert tau_dual_check(fam, rwin=1, mmax=1).ok
    suites = (lambda: verify_presentation(fam, rwin=1, mmax=1),
              lambda: rationality_check(fam),
              lambda: factorization_check(fam),
              lambda: drf_reports(fam),
              lambda: onedim_closed_form(fam.params),
              lambda: onedim_character(fam.params, T=3),
              lambda: grouplike_check(fam.params, w3, T=3),
              lambda: coproduct_aplus_check(fam.params, w3, w3, T=3))
    for suite in suites:
        with pytest.raises(DomainError, match="rank-one suite needs N = 1, got rank 3"):
            suite()


def test_rationality_on_v1():
    p = P("1", "1", "1", "q")
    fam = generate_family(p, V(1, "q"), T=4, R=10)
    rep, data = rationality_check(fam)
    assert rep.ok, rep.summary()
    assert data["theta_closure"] is not None
    # the closure of the (0,0) entry is a genuine rational function with
    # denominator dividing a power of (1 - C z^2)
    rf = data["closure"][0][0]
    assert rf.den.degree >= 1
    # the closure is expanded to the family's own order, T = 4
    orders = [e.indices for e in rep.entries if e.name == "closure_expansion"]
    assert orders == [(s,) for s in range(5)]


def test_rationality_inconclusive_when_window_too_small():
    p = P("1", "1", "1", "q")
    fam = generate_family(p, V(1, "q"), T=2, R=2)
    rep, data = rationality_check(fam)
    assert data["theta_closure"] is None or rep.ok is False


def test_tau_dual_on_v1():
    p = P("q^2", "q^-2", "1", "q")
    fam = generate_family(p, V(1, "q"), T=5, R=6)
    rep = tau_dual_check(fam, rwin=2, mmax=3)
    assert rep.ok, rep.summary()


@pytest.mark.parametrize("q0, kind", [(1.3, float), (1.2 + 0.5j, complex)],
                         ids=["float", "complex"])
def test_numeric_matches_specialized_exact(q0, kind):
    # both numeric stores: floats at a real q0, complex numbers otherwise
    p = P("1", "1", "1", "q")
    fam = generate_family(p, V(1, "q^2"), T=4, R=5)
    nf = NumericField(q0=q0)
    famn = generate_family(p, V(1, "q^2", field=nf), T=4, R=5)
    assert {type(x) for r in famn.A[1][2].rows for x in r} == {kind}
    for r in (-3, -1, 0, 2, 4):
        exact = fam.A[1][r].map_entries(lambda s: specialize(s, q0), field=nf)
        delta = exact - famn.A[1][r]
        assert delta.is_zero(scale=max(famn.A[1][r].max_abs(), 1.0)), r
    repn = verify_presentation(famn, rwin=1, mmax=2)
    assert repn.ok, repn.summary()


class ComplexAtRealQ0(NumericField):
    """The numeric field with complex values even at a real q0: the
    reference that the float store must reproduce."""

    def _out(self, z):
        return z


_TOWERS = ("B", "A", "H", "theta", "theta_grave")


def _family_entries(fam):
    """(tower, node, index, row, column) -> entry, over every family matrix."""
    out = {}
    for tower in _TOWERS:
        for i, mats in getattr(fam, tower).items():
            for k, M in (mats.items() if isinstance(mats, Mapping) else [(None, mats)]):
                for r, row in enumerate(M.rows):
                    for c, x in enumerate(row):
                        out[tower, i, k, r, c] = x
    return out


def _loop_run(field):
    mod = tensor(V(2, "q", window=1, field=field), V(1, "q^3", window=1, field=field))
    fam = generate_family(P("q^2", "q^-1", "0", "0"), mod, T=6, R=6)
    checks = [verify_presentation(fam, rwin=2, mmax=3), factorization_check(fam, 6)[0]]
    return fam, checks


def _vector_run(field):
    mod = build_vector_evaluation(2, parse_scalar("q"), field=field)
    fam = generate_rankn_family(mod, RankNParams([1, 1, 1]), T=6, R=6)
    return fam, [verify_grel(fam, rwin=2, mmax=3)]


@pytest.mark.parametrize("run", [_loop_run, _vector_run], ids=["V2xV1", "W2"])
def test_float_store_is_the_complex_store_bit_for_bit(run):
    # at a real q0 every float is the real part of the complex run's value,
    # and every check entry, witness included, is the same; floats that
    # compare equal are the same bits, except that a zero's sign may differ
    # (the complex real part a.r*b.r - a.i*b.i turns -0.0 - -0.0 into 0.0)
    fam, checks = run(NumericField(1.3))
    ref, ref_checks = run(ComplexAtRealQ0(1.3))
    ours, theirs = _family_entries(fam), _family_entries(ref)
    assert ours.keys() == theirs.keys() and len(ours) > 500
    assert {type(x) for x in ours.values()} == {float}
    assert {type(z) for z in theirs.values()} == {complex}
    assert all(z.imag == 0 for z in theirs.values())
    assert [k for k, x in ours.items() if x != theirs[k].real] == []
    entries = [[(e.name, e.indices, e.ok, e.witness) for e in rep.entries] for rep in checks]
    assert entries == [[(e.name, e.indices, e.ok, e.witness) for e in rep.entries]
                       for rep in ref_checks]
    assert all(rep.ok for rep in checks) and sum(map(len, entries)) > 30


def test_numeric_theta_commute_at_their_scale():
    # Theta entries reach about 4e7 at T = 8; the commutation check compares
    # at that scale, so the valid tower is accepted and its log is the H
    # that generation stored
    nf = NumericField(1.3)
    fam = generate_family(P("q^2", "q^-1", "0", "0"), V(2, "q", window=1, T=8, field=nf),
                          T=8)
    H = h_from_theta([fam.theta[1][m] for m in range(1, 9)], 8, nf, fam.I)
    for m in range(1, 9):
        assert relation([(1, None, H[m - 1])], [(1, None, fam.H[1][m])], nf) == (True, None), m


# ------------------------------------------------------- charges grown on read


def _bits(M):
    """A matrix's entries as text: equal floats print alike only when they
    are the same bits, the sign of a zero included."""
    return repr(M.rows)


def _numeric_tensor_family():
    nf = NumericField(1.3)
    mod = tensor(V(2, "q", window=1, T=8, field=nf), V(1, "q^3", window=1, T=8, field=nf))
    return generate_family(P("q^2", "q^-1", "0", "0"), mod, T=8, R=8), _bits


def _exact_w2_family():
    mod = build_vector_evaluation(2, parse_scalar("q"))
    return generate_rankn_family(mod, RankNParams([1, 1, 1]), T=5, R=5), lambda M: M


def _read_orders(T):
    shuffled = list(range(1, T + 1))
    random.Random(7).shuffle(shuffled)
    return {"ascending": list(range(1, T + 1)), "descending": list(range(T, 0, -1)),
            "shuffled": shuffled}


@pytest.mark.parametrize("order", ["ascending", "descending", "shuffled"])
@pytest.mark.parametrize("make", [_numeric_tensor_family, _exact_w2_family],
                         ids=["V2xV1-num", "W2-exact"])
def test_charges_grown_on_read_are_the_reference(make, order):
    # whatever order H is read in, each H_m is the reference log of the
    # Theta tower, bit for bit at q0 = 1.3 and by == over Q(q); H_1 is the
    # seeded charge, which is Theta_1
    fam, key = make()
    T = fam.T
    for i, H in fam.H.items():
        ref = h_from_theta([fam.theta[i][m] for m in range(1, T + 1)], T, fam.field,
                           fam.I, check_commuting=False)
        got = {m: H[m] for m in _read_orders(T)[order]}
        assert key(got[1]) == key(fam.theta[i][1])
        for m in range(2, T + 1):
            assert key(got[m]) == key(ref[m - 1]), (i, m)
        assert [key(M) for M in H.values()] == [key(got[m]) for m in range(1, T + 1)]


def test_charges_cost_products_only_when_read(monkeypatch):
    # the tower's ladder and Theta take 4R - 2 and 4(T - 1) products and its
    # log none; reading H[m] first takes the log's products up to m,
    # sum_{n=2..m} (n - 1), and a second read takes none
    fam = onedim(P("1", "q", "q", "1"), T=7)
    T, R = fam.T, fam.R
    f = fam.field
    C, c = f.from_scalar(fam.params.C), f.from_scalar(fam.params.c[1])
    A = fam.A[1]
    calls = _count_products(monkeypatch)
    _, H, *_ = onsager._grow_tower(A[0], A[-1], fam.H[1][1], C, c, T, R, fam.I)
    assert calls[0] == 4 * R - 2 + 4 * (T - 1)
    read = 1
    for m in (3, 2, 5, 3, 7, 1):
        calls[0] = 0
        H[m]
        assert calls[0] == sum(n - 1 for n in range(read + 1, m + 1)), m
        read = max(read, m)


def _count_images(monkeypatch):
    """A one-element list that counts every matrix built from now on."""
    calls = [0]
    image = Matrix._image.__func__

    def counted(cls, *args, **kwargs):
        calls[0] += 1
        return image(cls, *args, **kwargs)

    monkeypatch.setattr(Matrix, "_image", classmethod(counted))
    return calls


def test_numeric_tower_steps_build_one_matrix_each(monkeypatch):
    # a ladder step, a Theta step and each side of the Theta exchange are
    # one combination: over the numeric backend each builds one matrix, and
    # no product, scaled term or partial sum on the way
    nf = NumericField(1.3)
    fam = generate_family(P("q^2", "q^-1", "0", "0"), V(1, "q", field=nf), T=5, R=5)
    f = fam.field
    C, c = f.from_scalar(fam.params.C), f.from_scalar(fam.params.c[1])
    A, theta = fam.A[1], fam.theta[1]

    def built(T, R):
        calls = _count_images(monkeypatch)
        onsager._grow_tower(A[0], A[-1], fam.H[1][1], C, c, T, R, fam.I)
        monkeypatch.undo()
        return calls[0]

    # one more rung adds one ascending and one descending ladder step
    assert built(3, 4) - built(3, 3) == 2
    # one more order adds one Theta step, one acute coefficient and the
    # grave one, its scaling
    assert built(4, 4) - built(3, 4) == 3
    memo = onsager.ProductMemo()
    for r, s in ((0, 0), (0, 1), (-1, 1), (-2, 2)):
        onsager._theta_exchange(memo, A, theta, c, C, r, s)  # the memo's products
        calls = _count_images(monkeypatch)
        for side in onsager._theta_exchange(memo, A, theta, c, C, r, s):
            combine(side)
        monkeypatch.undo()
        assert calls[0] == 2, (r, s)


def test_dual_reads_the_charges_the_presentation_reads(monkeypatch):
    # both suites read H_1..H_mmax only, so on a fresh family neither grows
    # a charge past mmax
    p = P("q^2", "q^-2", "1", "q")
    getitem = onsager._Charges.__getitem__
    for check in (verify_presentation, tau_dual_check):
        fam = generate_family(p, V(1, "q"), T=8, R=8)
        read = set()
        monkeypatch.setattr(onsager._Charges, "__getitem__",
                            lambda H, m: read.add(m) or getitem(H, m))
        assert check(fam, rwin=2, mmax=3).ok
        monkeypatch.undo()
        assert read == {1, 2, 3}, check.__name__


def test_charges_are_a_read_only_mapping_over_their_window():
    fam = onedim(P("1", "q", "q", "1"), T=4)
    H = fam.H[1]
    assert len(H) == 4 and list(H) == [1, 2, 3, 4]
    assert 0 not in H and 5 not in H and 4 in H
    assert H[1] is fam.h(1, 1)
    for m in (0, 5, -1):
        with pytest.raises(KeyError):
            H[m]
        with pytest.raises(DomainError, match="1 <= m <= 4"):
            fam.h(1, m)
    with pytest.raises(TypeError):
        H[2] = H[1]


def test_charges_keep_the_theta_they_were_grown_from():
    # replacing a Theta tower after generation changes no charge
    p = P("q^2", "q^-1", "1", "q")
    fam, ref = (generate_family(p, V(1, "q"), T=6) for _ in range(2))
    fam.theta[1] = {m: M.scale(fam.field.q) for m, M in fam.theta[1].items()}
    assert all(fam.H[1][m] == ref.H[1][m] for m in range(1, 7))


# ----------------------------------------------------------------- exact DRF


def test_drf_generic():
    rep, data = onedim_drf(P("1", "1", "1", "q"))
    assert rep.ok, rep.summary()
    assert [e.name for e in rep.entries] == ["reciprocity", "degeneration"]
    D = data["closed_form"]
    assert (D.num.degree, D.den.degree) == (4, 4)
    assert data["degree"] == 2


def test_drf_constant_case():
    rep, data = onedim_drf(P("1", "q^2", "0", "0"))
    assert rep.ok, rep.summary()
    assert str(data["closed_form"]) == "1"
    assert data["degree"] == 0


def test_drf_degree_one_case():
    # s0/s1 = sqrt(c0/c1) puts one root pair of the quartic on the fixed
    # locus z^2 = C^-1, where it cancels against the denominator
    rep, data = onedim_drf(P("1", "1", "1", "1"))
    assert rep.ok, rep.summary()
    D = data["closed_form"]
    assert (D.num.degree, D.den.degree) == (2, 2)
    assert data["degree"] == 1


def test_drf_damaged_quartic_fails_reciprocity(monkeypatch):
    quartic = onsager._onedim_quartic

    def damaged(ctx):
        N = quartic(ctx)
        return FPoly([N.coeffs[0], N.coeffs[1] + ctx.field.one] + N.coeffs[2:],
                     ctx.field)

    monkeypatch.setattr(onsager, "_onedim_quartic", damaged)
    rep, _ = onedim_drf(P("1", "1", "1", "q"))
    entry = rep.entries[0]
    assert entry.name == "reciprocity" and not entry.ok


_ONEDIM_GRID = dict(
    c0=st.sampled_from(["1", "q", "q^2", "2"]),
    c1=st.sampled_from(["1", "q^-1", "3"]),
    s0=st.sampled_from(["0", "1", "q"]),
    s1=st.sampled_from(["0", "1", "1+q"]),
)


@settings(max_examples=30, deadline=None)
@given(**_ONEDIM_GRID)
def test_drf_degeneration_criteria(c0, c1, s0, s1):
    rep, data = onedim_drf(P(c0, c1, s0, s1))
    assert rep.ok, rep.summary()
    c0, c1, s0, s1 = map(parse_scalar, (c0, c1, s0, s1))
    if not s0 and not s1:
        want = 0
    elif s0 and s1 and c1 * s0 * s0 == c0 * s1 * s1:
        want = 1
    else:
        want = 2
    assert data["degree"] == want


@settings(max_examples=15, deadline=None)
@given(**_ONEDIM_GRID)
def test_random_onedim_presentations(c0, c1, s0, s1):
    fam = onedim(P(c0, c1, s0, s1), T=3)
    rep = verify_presentation(fam, rwin=1, mmax=1)
    assert rep.ok, rep.summary()
