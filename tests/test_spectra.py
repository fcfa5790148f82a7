"""Spectral certificates: reversal transforms, (Q, R) recovery, factorization,
rational fractions, group-like and coproduct checks.

Oracles, independent of the code under test:

* the diagonal series of V_1(a) and V_2(a) are frozen from the closed
  weight ladder mu_j = a q^(n-2j): on the top line of V_1(a) the raising
  half is q + (q - q^-1) sum_k (aq)^k z^k and the (Q, R) pair is
  (1 - a z, 1); the remaining lines are frozen the same way,
* boundary pairs of a single-root Q are written out by hand,
* the twisted-unitarity verdict must reject a pair that is not exchanged
  by the twisted reversal (gamma gamma_dag != C^deg),
* a (Q, R) pair with four distinct roots/poles round-trips through its
  own expansions,
* line k of V_n has deg Q = n - k and deg R = k, and line 1 of V_3(q) is
  the q^2-string pair ((1 - q^-1 z)(1 - q z), 1 - q^5 z), written out by
  hand; numeric reports must agree with the exact ones mapped into the
  numeric field.
"""

import json
import math

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from qonsager.errors import DomainError
from qonsager.linmat import Matrix
from qonsager.loopsl2 import EvalParams, build_evaluation, extend_loop_data, tensor
from qonsager.onsager import OnsagerParams, generate_family
from qonsager.scalars import ExactField, NumericField, Scalar, parse_scalar
from qonsager.series import FPoly
from qonsager.spectra import (
    DRF,
    DRFReport,
    _fr_function,
    boundary_poly,
    coproduct_aplus_check,
    drf_extract,
    drf_reports,
    drinfeld_data,
    factorization_check,
    grouplike_check,
    lweight_lines,
    poly_star,
)

F = ExactField()
q = F.q
one = F.one
kap = q - one / q


def V(n, a, window=2, T=6):
    return build_evaluation(EvalParams(n, parse_scalar(a)), window=window, T=T)


def P(c0, c1, s0, s1):
    return OnsagerParams(c0, c1, s0, s1)


P0 = P(1, 1, 0, 0)
PS = P(1, 1, 1, parse_scalar("q"))


def fpoly(*coeffs):
    return FPoly([F.from_scalar(parse_scalar(str(c))) if not isinstance(c, Scalar)
                  else c for c in coeffs], F)


# ------------------------------------------------------------------ oracles


def v1_line_series(a, j, T):
    """Frozen diagonal series of V_1(a): (dplus, dminus) on line j."""
    aq = a * q
    if j == 0:
        dplus = [q] + [kap * aq**k for k in range(1, T + 1)]
        dminus = [one / q] + [-kap * aq**-k for k in range(1, T + 1)]
    else:
        dplus = [one / q] + [-kap * aq**k for k in range(1, T + 1)]
        dminus = [q] + [kap * aq**-k for k in range(1, T + 1)]
    return dplus, dminus


# ------------------------------------------------------------------ poly_star


def test_poly_star_trivial():
    ps, pd, g = poly_star(fpoly(1), q**4)
    assert ps == fpoly(1) and pd == fpoly(1) and F.eq(g, one)


def test_poly_star_single_root():
    a = parse_scalar("q^2")
    C = q**4
    ps, pd, g = poly_star(fpoly(1, -a), C)
    assert ps == FPoly([one, -(one / a)], F)
    assert F.eq(g, -a)
    # the dagger root sits at C^-1 a
    assert F.is_zero(pd.eval(a / C))
    assert pd == FPoly([one, -C / a], F)


def test_poly_star_gamma_relation():
    # P(z) = gamma z^deg P*(1/z), i.e. the reversal of P is gamma P*
    Pq = fpoly(1, "q", "(q^2+1)/(q)", "q^-3")
    ps, _, g = poly_star(Pq, q**2)
    assert Pq.reverse() == ps.scale(g)


def test_poly_star_rejects_bad_constant_term():
    with pytest.raises(DomainError):
        poly_star(fpoly("q", 1), q**4)


@settings(deadline=None, max_examples=25)
@given(st.lists(st.integers(min_value=-4, max_value=4), min_size=3, max_size=3),
       st.integers(min_value=1, max_value=3))
def test_poly_star_dagger_involution(tail, cpow):
    # (P+)+ = P for any constant-term-1 P with nonzero lead
    coeffs = [one] + [F.from_scalar(Scalar(t)) for t in tail]
    if not coeffs[-1]:
        coeffs[-1] = one
    Pq = FPoly(coeffs, F)
    C = q**cpow
    _, pd, _ = poly_star(Pq, C)
    _, pdd, _ = poly_star(pd, C)
    assert pdd == Pq


# ------------------------------------------------------------------ boundary_poly


def test_boundary_poly_trivial():
    bq, bqd = boundary_poly(fpoly(1), fpoly(1), q**4)
    assert bq == fpoly(1) and bqd == fpoly(1)


def test_boundary_poly_single_root_pair():
    # Q = 1 - az, R = 1: BQ = Q(Cz) = 1 - aCz, BQ+ = Q*(z) = 1 - a^-1 z
    a = parse_scalar("q^3")
    C = q**4
    bq, bqd = boundary_poly(fpoly(1, -a), fpoly(1), C)
    assert bq == FPoly([one, -a * C], F)
    assert bqd == FPoly([one, -(one / a)], F)


def test_boundary_pair_exchanged_by_dagger():
    C = q**4
    Qp = fpoly(1, "-q^2")
    Rp = fpoly(1, "-q^-1", "q^-5")
    bq, bqd = boundary_poly(Qp, Rp, C)
    assert bq.degree == bqd.degree == 3
    assert F.eq(bq.coeff(0), one) and F.eq(bqd.coeff(0), one)
    assert poly_star(bq, C)[1] == bqd
    assert poly_star(bqd, C)[1] == bq


# ------------------------------------------------------------------ l-weight lines


def test_lweight_lines_v1_against_frozen_series():
    a = parse_scalar("q")
    lines = lweight_lines(V(1, "q"))
    assert [ln.index for ln in lines] == [0, 1]
    for j, ln in enumerate(lines):
        dplus, dminus = v1_line_series(a, j, 6)
        assert all(F.eq(x, y) for x, y in zip(ln.dplus, dplus))
        assert all(F.eq(x, y) for x, y in zip(ln.dminus, dminus))


def test_lweight_lines_reject_tensor_towers():
    TT = tensor(V(1, "q"), V(1, "q^3"))
    extend_loop_data(TT, window=1, T=3)
    with pytest.raises(DomainError):
        lweight_lines(TT, T=3)


# ------------------------------------------------------------------ drinfeld_data


def test_drinfeld_data_trivial():
    dd = drinfeld_data(([one] + [F.zero] * 4, [one] + [F.zero] * 4), field=F)
    assert dd.ok and dd.Q == fpoly(1) and dd.R == fpoly(1)


@pytest.mark.parametrize("a", ["q", "q^-2"])
def test_drinfeld_data_v1_lines(a):
    av = parse_scalar(a)
    dd = drinfeld_data(v1_line_series(av, 0, 6), field=F)
    assert dd.ok
    assert dd.Q == FPoly([one, -av], F) and dd.R == fpoly(1)
    dd = drinfeld_data(v1_line_series(av, 1, 6), field=F)
    assert dd.ok
    assert dd.Q == fpoly(1) and dd.R == FPoly([one, -av * q**2], F)


def test_drinfeld_data_v2_lines():
    a = parse_scalar("q")
    lines = lweight_lines(V(2, "q", window=2, T=6))
    want = [
        # top: the q-segment pair around a; bottom mirrors it two steps up
        (FPoly([one, -a * (q + one / q), a * a], F), fpoly(1)),
        (FPoly([one, -a / q], F), FPoly([one, -a * q**3], F)),
        (fpoly(1), FPoly([one, -a * (q**3 + q), a * a * q**4], F)),
    ]
    for ln, (wq, wr) in zip(lines, want):
        dd = drinfeld_data(ln)
        assert dd.ok, ln.label
        assert dd.Q == wq and dd.R == wr, ln.label


def test_drinfeld_data_budget_exhaustion():
    # at T = 2 the closure may use degrees (T - 1)//2 = 0 only, and the
    # top line of V_1(q) is no constant
    dd = drinfeld_data(v1_line_series(parse_scalar("q"), 0, 2), field=F)
    assert dd.inconclusive and not dd.ok and dd.Q is None
    assert dd.witness.startswith("closure:"), dd.witness


def test_drinfeld_data_round_trip():
    # expansions of a pair with four distinct roots/poles come back verbatim
    Qp = fpoly(1, "-q^2")
    Rp = fpoly(1, "-q^5")
    from qonsager.spectra import _fr_function

    d = _fr_function(Qp, Rp, F)
    dd = drinfeld_data((d.expand_at_zero(6), d.expand_at_infinity(6)), field=F)
    assert dd.ok and dd.Q == Qp and dd.R == Rp


def test_drinfeld_data_deterministic():
    ln = lweight_lines(V(2, "q^2", window=1, T=5))[1]
    a = drinfeld_data(ln)
    b = drinfeld_data(ln)
    assert a.Q.coeff_strings() == b.Q.coeff_strings()
    assert a.R.coeff_strings() == b.R.coeff_strings()


def test_drinfeld_data_refuses_a_one_coefficient_series():
    # the closure needs dplus to order 1 at least
    with pytest.raises(DomainError, match="two coefficients"):
        drinfeld_data(([one], [one]), field=F)


def vn(n, a, T, field=None):
    return build_evaluation(EvalParams(n, parse_scalar(a)), window=2, T=T, field=field)


@pytest.mark.parametrize("n, a, T", [(3, "q", 8), (4, "q^3", 8), (5, "q", 10)])
def test_drinfeld_data_reads_every_line_of_vn(n, a, T):
    # line k of V_n carries n - k zeros of Q and k of R, in q^2-strings
    # that the ratio D(z) cancels down to degree <= 2
    for k, ln in enumerate(lweight_lines(vn(n, a, T))):
        dd = drinfeld_data(ln)
        assert dd.ok, (ln.label, dd.witness)
        assert (dd.Q.degree, dd.R.degree) == (n - k, k), ln.label


def test_drinfeld_data_reads_a_q_string_in_q():
    # V_3(q), line 1: Q holds the q^2-string q^-1, q
    dd = drinfeld_data(lweight_lines(vn(3, "q", 8))[1])
    assert dd.ok
    assert dd.Q == fpoly(1, "-q^-1") * fpoly(1, "-q")
    assert dd.R == fpoly(1, "-q^5")


@pytest.mark.parametrize("n, a", [(3, "q"), (4, "q^3")])
def test_drf_reports_pass_on_longer_strings(n, a):
    reports = drf_reports(fam_on(P0, vn(n, a, 8), T=8))
    assert len(reports) == n + 1
    for r in reports:
        assert r.ok, (r.label, r.verdicts, r.witnesses)


NF = NumericField(1.3)


def same_poly(num, exact):
    """A numeric polynomial against an exact one mapped into its field."""
    f = num.field
    return num.degree == exact.degree and all(
        f.eq(num.coeff(k), f.from_scalar(exact.coeff(k)))
        for k in range(exact.degree + 1))


@pytest.mark.parametrize("n, a, T", [(1, "q", 6), (2, "q^2", 6), (3, "q", 8)])
def test_numeric_drf_reports_match_the_exact_ones(n, a, T):
    exact = drf_reports(fam_on(P0, vn(n, a, T), T=T))
    numeric = drf_reports(fam_on(P0, vn(n, a, T, field=NF), T=T))
    assert len(numeric) == len(exact) == n + 1
    for rn, re in zip(numeric, exact):
        assert rn.ok, (rn.label, rn.verdicts, rn.witnesses)
        assert same_poly(rn.Q, re.Q) and same_poly(rn.R, re.R), rn.label


def test_numeric_verify_failure_is_inconclusive():
    # V_3(q) at T = 8, q0 = 1.3: line 2 closes and pairs off on dplus
    # alone, and its (Q, R) reproduces dminus; with the last coefficient of
    # dminus raised by 1 the same (Q, R) misses it by 1, about 1e8 times
    # tol at its scale, so the verify step stops the line without a verdict
    ln = lweight_lines(vn(3, "q", 8, field=NF))[2]
    good = drinfeld_data(ln)
    assert good.ok
    dminus = list(ln.dminus)
    dminus[8] = dminus[8] + NF.one
    top = _fr_function(good.Q, good.R, NF).expand_at_infinity(8)[8]
    assert abs(top - dminus[8]) > 1e7 * NF.tol * max(1.0, abs(dminus[8]))
    dd = drinfeld_data((list(ln.dplus), dminus), field=NF)
    assert not dd.ok and dd.inconclusive and dd.Q is None
    assert dd.witness == "verify: (Q, R) of degrees (1, 2) does not reproduce both expansions"


def test_numeric_chain_longer_than_the_order_is_inconclusive():
    # the top line of V_4(q^3) has Q of four roots in one q^2-string, which
    # the ratio D(z) links at q^8 only: at T = 3 the numeric fit cannot
    # reach that link, while the exact q^2-gcd chain is bounded by D itself
    top = lweight_lines(vn(4, "q^3", 3, field=NF))[0]
    dd = drinfeld_data(top)
    assert not dd.ok and dd.inconclusive
    assert dd.witness.startswith("chain:") and "T = 3" in dd.witness, dd.witness
    dd = drinfeld_data(lweight_lines(vn(4, "q^3", 3))[0])
    assert dd.ok and (dd.Q.degree, dd.R.degree) == (4, 0)


@pytest.mark.parametrize("field", [F, NF], ids=["exact", "numeric"])
@pytest.mark.parametrize("side", ["dplus", "dminus"])
def test_damaged_line_is_never_certified(field, side):
    # one coefficient off, at a low, a middle and the last order: each
    # stops at the closure, the chain or the final check, never certifies
    lines = lweight_lines(vn(3, "q", 8, field=None if field is F else field))
    steps = set()
    for ln in lines:
        for k in (1, 4, 8):
            dplus, dminus = list(ln.dplus), list(ln.dminus)
            series = dplus if side == "dplus" else dminus
            series[k] = series[k] + field.one
            dd = drinfeld_data((dplus, dminus), field=field)
            assert not dd.ok and dd.inconclusive and dd.Q is None, (ln.label, k)
            steps.add(dd.witness.split(":")[0])
    assert steps <= {"closure", "chain", "verify"}


# ------------------------------------------------------------------ factorization


def fam_on(p, mod, T=6):
    return generate_family(p, mod, T=T, R=2 * T)


def test_factorization_trivial_module():
    mod = build_evaluation(EvalParams(0, Scalar(1)), window=1, T=6)
    rep, data = factorization_check(fam_on(P0, mod))
    assert rep.ok
    assert data["line_series"][0][0] == one
    assert all(F.is_zero(x) for x in data["line_series"][0][1:])


@pytest.mark.parametrize("c0,c1", [(1, 1), ("q^2", "q^-2")])
def test_factorization_v1(c0, c1):
    rep, data = factorization_check(fam_on(P(c0, c1, 0, 0), V(1, "q")))
    assert rep.ok, rep.summary()
    names = {e.name for e in rep.entries}
    assert names == {"triangular", "diagonal"}


def test_factorization_v1_diagonal_against_frozen_series():
    a = parse_scalar("q^-1")
    p = P0
    C = F.from_scalar(p.C)
    rep, data = factorization_check(fam_on(p, V(1, "q^-1")))
    assert rep.ok
    for j in range(2):
        dplus, dminus = v1_line_series(a, j, 6)
        for s in range(7):
            want = sum((dminus[u] * dplus[s - u] * C ** (s - u)
                        for u in range(s + 1)), F.zero)
            assert F.eq(data["line_series"][j][s], want), (j, s)


def test_factorization_v2_and_tensor():
    rep, _ = factorization_check(fam_on(P0, V(2, "q")))
    assert rep.ok, rep.summary()
    TT = tensor(V(1, "q"), V(1, "q^3"))
    rep, _ = factorization_check(fam_on(P0, TT, T=4))
    assert rep.ok, rep.summary()


def test_factorization_deepens_shallow_towers():
    # a tensor extended at T = 3 and a module built at T = 4 serve families
    # at T = 6: the check derives the deeper tower instead of refusing
    TT = tensor(V(1, "q"), V(1, "q^3"))
    extend_loop_data(TT, window=1, T=3)
    rep, _ = factorization_check(fam_on(P0, TT, T=6))
    assert rep.ok, rep.summary()
    assert TT.T == 6
    mod = V(1, "q", T=4)
    rep, _ = factorization_check(fam_on(P0, mod, T=6))
    assert rep.ok, rep.summary()
    assert mod.T == 6


def test_factorization_rejects_nonzero_shifts():
    with pytest.raises(DomainError):
        factorization_check(fam_on(PS, V(1, "q"), T=2))


def test_factorization_refuses_a_negative_order():
    fam = fam_on(P0, V(1, "q"), T=4)
    with pytest.raises(DomainError, match="T=-1"):
        factorization_check(fam, -1)
    rep, _ = factorization_check(fam, 0)
    assert rep.ok and len(rep.entries) == 2


def test_lweight_lines_refuse_a_negative_order():
    mod = V(1, "q")
    with pytest.raises(DomainError, match="T=-1"):
        lweight_lines(mod, -1)
    assert [len(line.dplus) for line in lweight_lines(mod, 0)] == [1, 1]


def test_factorization_gauge_independent():
    # conjugating by a grading-preserving diagonal must not change verdicts
    # or the diagonal line data
    mod = V(1, "q")
    lam = parse_scalar("q^3+q^-2")
    g = Matrix.diagonal([one, lam], F)
    ginv = Matrix.diagonal([one, one / lam], F)
    gauged = build_evaluation(EvalParams(1, parse_scalar("q")), window=2, T=6)
    gauge = lambda M: g @ M @ ginv
    gauged.K, gauged.Kinv = gauge(gauged.K), gauge(gauged.Kinv)
    gauged.xp = {k: gauge(M) for k, M in gauged.xp.items()}
    gauged.xm = {k: gauge(M) for k, M in gauged.xm.items()}
    gauged.h = {k: gauge(M) for k, M in gauged.h.items()}
    gauged.psi = {k: gauge(M) for k, M in gauged.psi.items()}
    gauged.phi = {k: gauge(M) for k, M in gauged.phi.items()}
    gauged.E = {i: gauge(M) for i, M in gauged.E.items()}
    gauged.F = {i: gauge(M) for i, M in gauged.F.items()}
    rep0, data0 = factorization_check(fam_on(P0, mod))
    rep1, data1 = factorization_check(fam_on(P0, gauged))
    assert rep0.ok and rep1.ok
    for l0, l1 in zip(data0["line_series"], data1["line_series"]):
        assert all(F.eq(x, y) for x, y in zip(l0, l1))


# ------------------------------------------------------------------ drf_extract


def test_drf_extract_trivial():
    rep, drf = drf_extract(fpoly(1), fpoly(1), q**4)
    assert rep.ok
    assert drf.prefactor_sq == one


def test_drf_extract_v1_pipeline():
    fam = fam_on(P0, V(1, "q"))
    reports = drf_reports(fam)
    assert len(reports) == 2
    for r in reports:
        assert r.ok, (r.label, r.verdicts, r.witnesses)
        assert r.bq.degree == r.bqdag.degree == 1
        assert r.F.prefactor_sq == q**4 / (r.gamma * r.gamma)
    # top line: Q = 1 - az, R = 1 with a = q, C = q^4
    top = reports[0]
    assert top.Q == fpoly(1, "-q") and top.R == fpoly(1)
    assert top.bq == fpoly(1, "-q^5") and top.bqdag == fpoly(1, "-q^-1")


def test_drf_extract_v2_pipeline():
    reports = drf_reports(fam_on(P0, V(2, "q^2")))
    assert [r.ok for r in reports] == [True, True, True]
    assert {r.bq.degree for r in reports} == {2}


def test_drf_reports_serialize():
    reports = drf_reports(fam_on(P0, V(1, "q^-1")))
    blob = json.dumps([r.to_dict() for r in reports], sort_keys=True)
    top = json.loads(blob)[0]
    assert top["verdicts"]["twisted_unitarity"] is True
    assert top["F"]["prefactor_squared"] == str(reports[0].F.prefactor_sq)


@pytest.mark.parametrize("q0", [1.3, 1.2 + 0.5j], ids=["float", "complex"])
def test_numeric_drf_report_prints_no_negative_zero(q0):
    nf = NumericField(q0)
    z = -nf.zero
    poly = FPoly([nf.one, z, nf.one], nf)
    assert math.copysign(1.0, poly.coeffs[1].real) < 0
    report = DRFReport("line 0", poly, poly, z, poly, poly, DRF(poly, poly, z, z),
                       {"verify": True}, {}, nf)
    blob = json.dumps(report.to_dict())
    assert "-0.0" not in blob, blob
    assert json.loads(blob)["Q"][1] == [0.0, 0.0]


def test_drf_extract_swapped_pair_still_passes():
    # the fraction is only fixed up to the pole pairing; exchanging the
    # boundary pair flips F to its reciprocal and both identities survive
    a = parse_scalar("q")
    C = q**4
    bq, bqd = boundary_poly(FPoly([one, -a], F), fpoly(1), C)
    rep, _ = drf_extract(bqd, bq, C)
    assert rep.ok


def test_drf_extract_rejects_unpaired_polynomials():
    # both of degree 1 and constant term 1, but not exchanged by the
    # twisted reversal: unitarity must fail
    rep, _ = drf_extract(fpoly(1, -1), fpoly(1, -1), q**4)
    verdicts = {e.name: e.ok for e in rep.entries}
    assert verdicts["twisted_unitarity"] is False


def test_drf_extract_odd_degree_keeps_prefactor_squared():
    # C = q^5 has no square root in Q(q) and the degree is odd, so the
    # prefactor gamma^-1 C^(1/2) is not in Q(q); its square is
    C = q**5
    Qp = FPoly([one, -parse_scalar("q")], F)
    bq, bqd = boundary_poly(Qp, fpoly(1), C)
    assert bq.degree == 1
    rep, drf = drf_extract(bq, bqd, C)
    assert rep.ok
    gamma = bq.coeff(1)
    assert drf.gamma == gamma
    assert drf.prefactor_sq == C / (gamma * gamma)


# ------------------------------------------------------------------ group-like


def test_grouplike_reduces_to_factorization_at_s_zero():
    rep = grouplike_check(P0, V(1, "q"), T=6)
    assert rep.ok, rep.summary()


def test_grouplike_v1_nonzero_shifts():
    rep = grouplike_check(PS, V(1, "q"), T=6)
    assert rep.ok, rep.summary()
    names = {e.name for e in rep.entries}
    assert names == {"triangular", "scaled_diagonal"}


def test_grouplike_second_parameter_set():
    rep = grouplike_check(P("q^2", "q^-2", 1, 0), V(2, "q"), T=4)
    assert rep.ok, rep.summary()


def test_grouplike_tensor():
    TT = tensor(V(1, "q"), V(1, "q^3"))
    rep = grouplike_check(PS, TT, T=4)
    assert rep.ok, rep.summary()
    names = {e.name for e in rep.entries}
    assert "tensor_triangular" in names and "tensor_diagonal" in names


def test_second_factor_grading_reads_the_right_factor():
    # kron index b sits at b mod dim(right) of the right factor, whose own
    # degree is the sum over its factors
    from qonsager.spectra import _second_factor_grading

    v1, v2 = V(1, "q"), V(2, "q^3")
    left = tensor(tensor(v1, V(1, "q^5")), v2)
    right = tensor(v1, tensor(V(1, "q^5"), v2))
    assert [d for (d,) in _second_factor_grading(left).degrees] == \
        [0, -1, -2] * 4
    assert [d for (d,) in _second_factor_grading(right).degrees] == \
        [0, -1, -2, -1, -2, -3] * 2
    with pytest.raises(DomainError):
        _second_factor_grading(v1)


def test_grouplike_tensor_with_trivial_right_factor():
    TT = tensor(V(1, "q"), build_evaluation(EvalParams(0, Scalar(1)), window=1, T=6))
    rep = grouplike_check(PS, TT, T=4)
    assert rep.ok, rep.summary()


# ------------------------------------------------------------------ coproduct


def test_coproduct_scalar_left_legs():
    triv = build_evaluation(EvalParams(0, Scalar(1)), window=1, T=4)
    rep = coproduct_aplus_check(PS, triv, V(1, "q"), T=4)
    assert rep.ok, rep.summary()


def test_coproduct_scalar_left_legs_second_parameters():
    triv = build_evaluation(EvalParams(0, Scalar(1)), window=1, T=4)
    rep = coproduct_aplus_check(P("q^2", "q^-2", 1, 0), triv, V(1, "q^-1"), T=4)
    assert rep.ok, rep.summary()


def test_coproduct_trivial_right_factor():
    triv = build_evaluation(EvalParams(0, Scalar(1)), window=1, T=4)
    rep = coproduct_aplus_check(PS, V(1, "q"), triv, T=3)
    assert rep.ok, rep.summary()


def test_coproduct_deepens_a_shallow_right_factor():
    triv = build_evaluation(EvalParams(0, Scalar(1)), window=1, T=4)
    right = V(1, "q", window=1, T=2)
    rep = coproduct_aplus_check(PS, triv, right, T=4)
    assert rep.ok, rep.summary()
    assert right.T == 4


def test_coproduct_matrix_left_legs_break_from_order_one():
    # with a matrix left factor the three-term form holds only at order 0:
    # from order 1 on, the defect is a commutator of ladder entries that no
    # ordering of the correction term absorbs; the checker must report it
    # honestly rather than pass
    rep = coproduct_aplus_check(P0, V(1, "q^3"), V(1, "q"), T=4)
    by_order = {e.indices[0]: e.ok for e in rep.entries}
    assert by_order[0] is True
    assert all(by_order[r] is False for r in range(1, 5))
