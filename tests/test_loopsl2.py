"""Evaluation modules: construction, relation certification, dictionary,
tensor products, diagonal series.

The geometric link factors of the mode operators are pinned by oracles
computed independently of the construction code:

* a brute-force solve over candidate q-shift exponents on the 2- and
  3-dimensional models (only the gauge line / the canonical step survive
  both the affine presentation and the derived loop relations),
* the closed-form mode operators on the weight basis,

      x^-_k v_j = mu_j^k [j+1] v_{j+1},   x^+_k v_j = mu_{j-1}^k [n-j+1] v_{j-1},

  against which the modes that extend_loop_data derives are compared, and
* a closed-form formula for the diagonal psi/phi coefficients, derived by
  hand from [x^+_m, x^-_0] acting on the weight basis:

      psi_m|_jj  =  (q-q^-1) ([j+1][n-j] mu_j^m  - [j][n-j+1] mu_{j-1}^m),
      phi_-m|_jj = -(q-q^-1) ([j+1][n-j] mu_j^-m - [j][n-j+1] mu_{j-1}^-m)

  for m >= 1, with mu_j = a q^{n-2j}.
"""

import itertools

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from qonsager import loopsl2
from qonsager.errors import ConstructionError, DomainError
from qonsager.linmat import Matrix, degree_components, relation
from qonsager.loopsl2 import (
    AffineModule,
    EvalParams,
    _assemble_evaluation,
    build_evaluation,
    extend_loop_data,
    phi_series,
    tensor,
    verify_affine_presentation,
    verify_aux_identities,
    verify_drinfeld_relations,
)
from qonsager.ranka import build_vector_evaluation
from qonsager.report import CheckReport
from qonsager.scalars import ExactField, NumericField, Q, Scalar, parse_scalar, qint, specialize
from qonsager.series import FPoly, RationalFunction

F = ExactField()
QDEN = Q - Q ** -1


def V(n, a, window=3, T=6, field=None):
    return build_evaluation(EvalParams(n, parse_scalar(a)), window=window, T=T,
                            field=field)


# ------------------------------------------------------------------ oracles


def closed_form_xminus(n, a, k):
    """x^-_k v_j = mu_j^k [j+1] v_{j+1}, as a matrix."""
    rows = [[F.zero] * (n + 1) for _ in range(n + 1)]
    for j in range(n):
        rows[j + 1][j] = (a * Q ** (n - 2 * j)) ** k * qint(j + 1)
    return Matrix(rows, F)


def closed_form_xplus(n, a, k):
    """x^+_k v_j = mu_{j-1}^k [n-j+1] v_{j-1}, as a matrix."""
    rows = [[F.zero] * (n + 1) for _ in range(n + 1)]
    for j in range(1, n + 1):
        rows[j - 1][j] = (a * Q ** (n - 2 * j + 2)) ** k * qint(n - j + 1)
    return Matrix(rows, F)


def closed_form_psi(n, a, m, j):
    """Hand-derived diagonal value of psi_m (m >= 1) on v_j."""
    mu = lambda i: a * Q ** (n - 2 * i)
    up = qint(j + 1) * qint(n - j) * mu(j) ** m if j < n else Scalar(0)
    dn = qint(j) * qint(n - j + 1) * mu(j - 1) ** m if j > 0 else Scalar(0)
    return QDEN * (up - dn)


def closed_form_phi(n, a, m, j):
    """Hand-derived diagonal value of phi_{-m} (m >= 1) on v_j."""
    mu = lambda i: a * Q ** (n - 2 * i)
    up = qint(j + 1) * qint(n - j) * mu(j) ** -m if j < n else Scalar(0)
    dn = qint(j) * qint(n - j + 1) * mu(j - 1) ** -m if j > 0 else Scalar(0)
    return -QDEN * (up - dn)


@pytest.mark.parametrize("n", range(4))
@pytest.mark.parametrize("a", ["q", "q^-3", "2*q^2"])
def test_derived_modes_match_closed_form(n, a):
    mod = V(n, a, window=3, T=3)
    av = parse_scalar(a)
    for k in range(-3, 4):
        assert mod.xm[k] == closed_form_xminus(n, av, k), ("-", k)
        assert mod.xp[k] == closed_form_xplus(n, av, k), ("+", k)


@pytest.mark.parametrize("n,a", [(1, "q"), (2, "q^2"), (3, "1")])
def test_psi_phi_closed_form(n, a):
    mod = V(n, a)
    av = parse_scalar(a)
    for m in range(1, mod.T + 1):
        for j in range(n + 1):
            assert mod.psi[m].rows[j][j] == closed_form_psi(n, av, m, j)
            assert mod.phi[m].rows[j][j] == closed_form_phi(n, av, m, j)
            # off-diagonal entries vanish
        assert all(i == j for i, j, _ in mod.psi[m].nonzero_entries())
        assert all(i == j for i, j, _ in mod.phi[m].nonzero_entries())


def test_highest_line_series_v1():
    # on V_1(a) both diagonal series on the top line come from the *same*
    # rational function q (1 - a q^-1 z) / (1 - a q z): Psi reads off its
    # expansion at z = 0 and Phi its expansion at infinity
    a = parse_scalar("q^2")
    mod = V(1, "q^2")
    num = FPoly([Q, -a], F)                      # q (1 - a q^-1 z)
    den = FPoly([F.one, -(a * Q)], F)            # 1 - a q z
    R = RationalFunction(num, den)
    orders = range(mod.T + 1)
    assert [mod.psi[k].rows[0][0] for k in orders] == R.expand_at_zero(mod.T)
    assert [mod.phi[k].rows[0][0] for k in orders] == R.expand_at_infinity(mod.T)


def _passing_suites(n, a, links_plus, links_minus):
    """(affine presentation ok, derived loop relations ok) of V_n(a) with
    its per-link factors mu_j = a q^(n-2j) replaced: x^+ reaches the action
    through F_0, whose link j entry carries 1/mu_j, and x^- through E_0,
    whose link j entry carries mu_j.  extend_loop_data certifies what it
    derives, so its ConstructionError is a failing loop suite."""
    mod = _assemble_evaluation(n, a, F)
    mu = [a * Q ** (n - 2 * j) for j in range(n)]
    mod.E[0] = Matrix.diagonal([F.one] + [m / mu[j] for j, m in enumerate(links_minus)],
                               F) @ mod.E[0]
    mod.F[0] = Matrix.diagonal([mu[j] / p for j, p in enumerate(links_plus)] + [F.one],
                               F) @ mod.F[0]
    affine = verify_affine_presentation(mod).ok
    try:
        extend_loop_data(mod, window=2, T=2)
    except ConstructionError:
        return affine, False
    return affine, True


def test_exponent_solve_two_dim():
    # brute force over the two unknown q-shift exponents of the single link
    # of the 2-dimensional model: both suites pass exactly on the gauge
    # line e+ = e- (a uniform shift only renames a)
    a = parse_scalar("q")
    affine, loop = set(), set()
    for ep, em in itertools.product(range(-2, 3), repeat=2):
        ok_affine, ok_loop = _passing_suites(1, a, [a * Q ** ep], [a * Q ** em])
        if ok_affine:
            affine.add((ep, em))
        if ok_loop:
            loop.add((ep, em))
    assert affine == loop == {(e, e) for e in range(-2, 3)}


def test_link_step_three_dim():
    # on the 3-dimensional model the relations pin the geometric step
    # between adjacent links to q^-2 (mu_{j+1} = q^-2 mu_j)
    a = parse_scalar("q")
    affine, loop = set(), set()
    for step in range(-4, 1):
        links = [a * Q ** (2 + step * j) for j in range(2)]
        ok_affine, ok_loop = _passing_suites(2, a, links, links)
        if ok_affine:
            affine.add(step)
        if ok_loop:
            loop.add(step)
    assert affine == loop == {-2}


# ------------------------------------------------------- construction gates


def test_bad_parameters_rejected():
    with pytest.raises(DomainError):
        EvalParams(-1, parse_scalar("q"))
    with pytest.raises(DomainError):
        EvalParams(2, Scalar(0))
    with pytest.raises(DomainError):
        build_evaluation(EvalParams(1, Q), window=0)


def test_perturbed_module_detected():
    mod = V(1, "q")
    mod.xp[1] = mod.xp[1].scale(F.q)
    rep = verify_drinfeld_relations(mod)
    assert not rep.ok
    bad = {(e.name, e.indices) for e in rep.failures()}
    # the pair commutator at (k,l) = (1,0) sees the perturbation directly
    assert ("x_pair_commutator", (1, 0)) in bad
    # but the definitional instance that built psi_1 from the old matrix
    # also breaks, via the h-ladder
    assert any(name == "h_x_ladder" for name, _ in bad)


def test_report_witness_mentions_entry():
    mod = V(1, "q")
    mod.xp[1] = mod.xp[1].scale(F.q)
    rep = verify_drinfeld_relations(mod)
    bad = rep.first_failure()
    assert bad.witness and "entry" in bad.witness


def test_exact_equality_witness_is_first_differing_entry():
    # rows 0 agree; row 1 differs at (1,1) and (1,2)
    A = Matrix([[Q, Scalar(0), Scalar(1)], [qint(2), Q**-1, Scalar(0)]], F)
    B = Matrix([[Q, Scalar(0), Scalar(1)], [qint(2), Q**-2, Q]], F)
    def judge(X, Y):
        return relation([(1, None, X)], [(1, None, Y)], F)

    assert judge(A, A) == (True, None)
    assert judge(A, B) == (False, "entry (1,1) = (q-1)/(q^2)")
    i, j, v = next((A - B).nonzero_entries())
    assert judge(A, B)[1] == f"entry ({i},{j}) = {v}"


def test_damaged_module_witnesses_are_pinned():
    mod = V(2, "q^3")
    mod.xp[1] = mod.xp[1].scale(F.q)
    rep = verify_drinfeld_relations(mod)
    bad = rep.failures()
    assert (len(bad), len(rep.entries)) == (35, 245)
    assert (bad[0].name, bad[0].indices) == ("h_x_ladder", (-3, "+", 1))
    assert bad[0].witness == (
        "entry (0,1) = (q^13-q^12+2*q^11-2*q^10+2*q^9-2*q^8+2*q^7-2*q^6"
        "+2*q^5-2*q^4+2*q^3-2*q^2+q-1)/(3*q^16)")
    assert bad[3].witness == "entry (0,1) = (q^5-q^4+2*q^3-2*q^2+q-1)/(q^2)"


# ------------------------------------------------------------- the dictionary


def test_chevalley_example_v1():
    mod = V(1, "q^3")
    E0, F0, K0 = mod.E[0], mod.F[0], mod.Kc[0]
    lhs = E0 @ F0 - F0 @ E0
    rhs = (K0 - mod.Kcinv[0]).scale(F.one / (F.q - F.one / F.q))
    assert (lhs - rhs).is_zero()
    # E0 = -K^-1 x^-_1 concretely on the weight basis
    assert mod.E[0] == -(mod.Kinv @ mod.xm[1])


def test_serre_certified_on_build():
    rep = verify_affine_presentation(V(2, "q"))
    names = {e.name for e in rep.entries}
    assert {"serre_e", "serre_f", "ef_pair", "cartan_conj_e"} <= names
    assert rep.ok


@pytest.mark.parametrize("build, entry, want", [
    (lambda: V(2, "q", window=1, T=1), (1, 0, 1), {
        ("serre_e", (0, 1)): "entry (2,0) = q^12+2*q^10+2*q^8+q^6",
        ("serre_e", (1, 0)): "entry (0,2) = -q^6-q^5-2*q^4-q^3-2*q^2-q-1"}),
    (lambda: build_vector_evaluation(3, Q), (1, 0, 0), {
        ("serre_e", (1, 0)): "entry (3,0) = q",
        ("serre_e", (1, 2)): "entry (0,2) = 1"}),
], ids=["double-bond", "single-bond"])
def test_damaged_module_fails_serre_with_frozen_witnesses(build, entry, want):
    # one entry of E_i raised by 1 after the build; each witness is the
    # entry and value of the alternating q-binomial sum, frozen from the
    # form that summed matrix powers
    mod = build()
    i, r, c = entry
    rows = [list(x) for x in mod.E[i].rows]
    rows[r][c] += F.one
    mod.E[i] = Matrix(rows, F)
    rep = verify_affine_presentation(mod)
    assert {(e.name, e.indices): e.witness for e in rep.failures()
            if e.name.startswith("serre")} == want


@pytest.mark.parametrize("field", [F, NumericField(1.3)], ids=["exact", "numeric"])
def test_dictionary_suite_is_the_affine_presentation(field):
    # rank one is A_1: the Chevalley action is certified by the rank-N suite
    # itself, and the derived loop data reads the dictionary back
    mod = V(2, "q^3", field=field)
    rep = verify_affine_presentation(mod)
    assert rep.ok and len(rep.entries) == 24
    pairs = [(mod.E[1], mod.xp[0]), (mod.F[1], mod.xm[0]),
             (mod.E[0], -(mod.Kinv @ mod.xm[1])), (mod.F[0], -(mod.xp[-1] @ mod.K)),
             (mod.Kc[1], mod.K), (mod.Kc[0], mod.Kinv)]
    assert all(relation([(1, None, X)], [(1, None, Y)], field)[0] for X, Y in pairs)


def test_scaled_e0_refused_by_build_and_tensor():
    # E_0 = -K^-1 x^-_1: scaling x^-_1 by q breaks the mixed bracket
    # [x^+_0, x^-_1] = psi_1/(q - q^-1) on the loop side, and scaling E_0 by
    # q breaks [E_0, F_0] = (K_0 - K_0^-1)/(q - q^-1) on the Chevalley side
    raw = build_evaluation(EvalParams(1, Q))
    raw.xm[1] = raw.xm[1].scale(F.q)
    rep = verify_drinfeld_relations(raw)
    assert ("x_pair_commutator", (0, 1)) in {(e.name, e.indices) for e in rep.failures()}
    bad = V(1, "q")
    bad.E[0] = bad.E[0].scale(F.q)
    assert not verify_affine_presentation(bad).ok
    with pytest.raises(ConstructionError, match="ef_pair"):
        tensor(bad, V(1, "q^3"))
    with pytest.raises(ConstructionError, match="ef_pair"):
        tensor(V(1, "q^3"), bad)


# ------------------------------------------------------------------- tensors


def test_tensor_chevalley_certified():
    a = V(1, "q")
    b = V(1, "q^2")
    ab = tensor(a, b)
    assert ab.dim == 4
    assert ab.grading.degrees == [(0,), (-1,), (-1,), (-2,)]
    assert ab.describe() == "V1(q)*V1(q^2)"
    assert not ab.has_loop_data
    with pytest.raises(DomainError):
        verify_drinfeld_relations(ab)
    # nesting parenthesizes
    abc = tensor(ab, V(0, "1"))
    assert abc.describe() == "(V1(q)*V1(q^2))*V0(1)"


@pytest.mark.parametrize("field", [F, NumericField(1.3)], ids=["exact", "q0=1.3"])
def test_trivial_module_certifies_itself(field, monkeypatch):
    # trivial runs the presentation suite on what it hands back, as every
    # builder does, and refuses a failing entry
    for N in (1, 2, 3):
        assert verify_affine_presentation(AffineModule.trivial(N, field)).ok
    bad = CheckReport("forced")
    bad.add("level_zero", (), False, "forced failure")
    monkeypatch.setattr(loopsl2, "verify_affine_presentation", lambda M: bad)
    with pytest.raises(ConstructionError,
                       match=r"triv_2: relation level_zero\(\) failed \[forced failure\]"):
        AffineModule.trivial(2, field)


def test_tensor_mixed_backends_rejected():
    a = V(1, "q")
    b = V(1, "q", field=NumericField())
    with pytest.raises(DomainError):
        tensor(a, b)


# ------------------------------------------------------------------- series


def test_phi_series_diagonal_and_guarded():
    mod = V(2, "q")
    Phi, Psi = phi_series(mod, T=4)
    assert len(Phi) == len(Psi) == 5
    assert Phi[0] == mod.Kinv
    assert Psi[0] == mod.K
    assert Psi[3] == mod.psi[3]
    assert Phi[4] == mod.phi[4]
    with pytest.raises(DomainError):
        phi_series(mod, T=mod.T + 1)
    damaged = [list(r) for r in mod.psi[1].rows]
    damaged[0][1] = F.one
    mod.psi[1] = Matrix(damaged, F)
    with pytest.raises(DomainError):
        phi_series(mod)


def test_phi_series_refuses_a_negative_order():
    mod = V(1, "q")
    with pytest.raises(DomainError, match="T=-1"):
        phi_series(mod, -1)
    assert phi_series(mod, 0) == ([mod.Kinv], [mod.K])


def test_aux_identities_hold():
    for n, a in ((1, "q^2"), (2, "q"), (3, "1")):
        assert verify_aux_identities(V(n, a)).ok


def test_aux_identities_detect_damage():
    mod = V(2, "q")
    mod.phi[2] = mod.phi[2].scale(F.q)
    assert not verify_aux_identities(mod).ok


# ---------------------------------------------------------------- backends


def test_numeric_matches_specialized_exact():
    q0 = 1.3
    nf = NumericField(q0)
    ex = V(2, "q^2")
    nu = V(2, "q^2", field=nf)
    for mats_e, mats_n in ((ex.xp, nu.xp), (ex.xm, nu.xm), (ex.h, nu.h)):
        for k in mats_e:
            Me, Mn = mats_e[k], mats_n[k]
            for i in range(Me.n):
                for j in range(Me.m):
                    want = specialize(Me.rows[i][j], q0)
                    assert abs(Mn.rows[i][j] - want) < 1e-9 * max(1.0, abs(want))


def test_degree_shifts_pure():
    mod = V(3, "q")
    for k, M in mod.xp.items():
        assert set(degree_components(M, mod.grading)) <= {(1,)}
    for k, M in mod.xm.items():
        assert set(degree_components(M, mod.grading)) <= {(-1,)}


@settings(max_examples=10, deadline=None)
@given(n=st.integers(0, 2), e=st.integers(-2, 2))
def test_random_small_modules_certify(n, e):
    mod = build_evaluation(EvalParams(n, Q ** e), window=2, T=3)
    assert verify_aux_identities(mod).ok


# ---------------------------------------------------- tower reconstruction


def test_extend_loop_data_noop_on_evaluation_modules():
    mod = V(1, "q")
    before = dict(mod.xp)
    assert extend_loop_data(mod) is mod
    assert mod.xp == before


def test_extend_loop_data_deepens_a_shallow_tower():
    # a request past the stored window or order derives the tower again at
    # the larger of the two, and the overlap is unchanged
    TT = tensor(V(1, "q"), V(1, "q^3"))
    extend_loop_data(TT, window=2, T=3)
    before = {"xp": dict(TT.xp), "h": dict(TT.h), "psi": dict(TT.psi)}
    extend_loop_data(TT, window=1, T=6)
    assert (TT.window, TT.T) == (2, 6)
    assert all(TT.xp[k] == M for k, M in before["xp"].items())
    assert all(TT.h[k] == M for k, M in before["h"].items())
    assert all(TT.psi[k] == M for k, M in before["psi"].items())
    assert verify_drinfeld_relations(TT).ok
    mod = V(1, "q", window=1, T=4)
    assert extend_loop_data(mod, window=3, T=2) is mod
    assert (mod.window, mod.T) == (3, 4) and sorted(mod.xp) == list(range(-3, 4))
    assert sorted(mod.h) == [-3, -2, -1, 1, 2, 3]


def test_extend_loop_data_on_tensor_with_trivial_factor():
    # V x V_0(1) is V with relabeled data; the reconstructed tower must be
    # the original one (kron with the 1x1 identity changes nothing)
    mod = V(1, "q^2", window=2, T=4)
    triv = V(0, "1", window=1, T=4)
    TT = tensor(mod, triv)
    extend_loop_data(TT, window=2, T=4)
    for k in range(-2, 3):
        assert TT.xp[k] == mod.xp[k]
        assert TT.xm[k] == mod.xm[k]
    for k in range(5):
        assert TT.psi[k] == mod.psi[k]
        assert TT.phi[k] == mod.phi[k]
    assert sorted(TT.h) == sorted(mod.h)
    for k in TT.h:
        assert TT.h[k] == mod.h[k]


def test_extend_loop_data_tensor_certifies_and_grades():
    TT = tensor(V(1, "q", T=4), V(1, "q^3", T=4))
    extend_loop_data(TT, window=2, T=4)
    assert TT.has_loop_data
    rep = verify_drinfeld_relations(TT)
    assert rep.ok, rep.summary()
    # mode operators shift the total degree by exactly +-1, the halves by 0
    gtot = TT.grading.total()
    for k, M in TT.xp.items():
        assert set(degree_components(M, gtot)) <= {(1,)}
    for k, M in TT.xm.items():
        assert set(degree_components(M, gtot)) <= {(-1,)}
    for k in range(5):
        assert set(degree_components(TT.psi[k], gtot)) <= {(0,)}
        assert set(degree_components(TT.phi[k], gtot)) <= {(0,)}


def test_extend_loop_data_requires_chevalley_data():
    from qonsager.loopsl2 import AffineModule, AffineTypeA

    bare = AffineModule(AffineTypeA(1), F)
    with pytest.raises(DomainError):
        extend_loop_data(bare)
