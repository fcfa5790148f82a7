"""Truncated series, exp/log, Pade reconstruction, rational functions."""

import math
import random

import pytest
from hypothesis import assume, example, given, settings
from hypothesis import strategies as st

from qonsager._kernel import _bareiss_solve, _pack, _unpack, _width
from qonsager.errors import DomainError
from qonsager.linmat import Matrix, relation
from qonsager.scalars import ExactField, NumericField, Q, Scalar, _coerce, parse_scalar
from qonsager.series import (
    FPoly,
    RationalFunction,
    _clear_denominators,
    _zprimitive,
    pade_reconstruct,
    series_exp,
    series_log,
    solve_linear,
)

F = ExactField()


def sseries(values):
    return [Scalar(v) if isinstance(v, int) else v for v in values]


coeff = st.sampled_from([Scalar(0), Scalar(1), Scalar(-1), Scalar(2), Q, Q - 1, Scalar(1, 2)])


# ----------------------------------------------------------------- exp / log


def test_exp_log_roundtrip_scalar():
    s = sseries([0, Q, -1, Scalar(1, 3), 0, 0, 0])
    e = series_exp(s, F.one, F)
    assert len(e) == 7
    assert e[0] == 1
    assert series_log(e, F.one, F) == s


def test_exp_against_hand_expansion():
    # exp(a z) = 1 + a z + a^2/2 z^2 + ...
    a = Q + 1
    e = series_exp(sseries([0, a, 0, 0, 0]), F.one, F)
    assert e[2] == a * a / 2
    assert e[3] == a * a * a / 6
    assert e[4] == a**4 / 24


# -- the Theta <-> H change of coordinates, the reference for the towers


def theta_from_h(h_list, T, field, one):
    """Θ-coefficients from commuting H_m (m = 1..T).

    Returns (theta0, [Θ_1..Θ_T]) where theta0 is the scalar 1/(q - q^-1)
    and 1 + Σ_{m>=1} (q - q^-1) Θ_m z^m = exp((q - q^-1) Σ_m H_m z^m).
    H_m beyond the list are zero.
    """
    kappa = field.q - field.one / field.q
    zero = one - one
    s = [zero] + [h_list[m - 1] * kappa if m <= len(h_list) else zero
                  for m in range(1, T + 1)]
    e = series_exp(s, one, field)
    theta0 = field.one / kappa
    thetas = [e[m] * (field.one / kappa) for m in range(1, T + 1)]
    return theta0, thetas


def h_from_theta(theta_list, T, field, one, check_commuting=True):
    """Inverse of theta_from_h; requires the Θ_m to commute pairwise.

    With ``check_commuting`` every pair of matrix Θ_m, Θ_n is compared by
    the field's matrix equality (scaled for the numeric field) and the
    first pair that does not commute raises DomainError with its witness.
    Θ_m beyond the list are zero.
    """
    if check_commuting:
        for i in range(len(theta_list)):
            for j in range(i + 1, len(theta_list)):
                a, b = theta_list[i], theta_list[j]
                if isinstance(a, Matrix):
                    ok, w = relation([(1, None, a, b)], [(1, None, b, a)], field)
                    if not ok:
                        raise DomainError(
                            f"theta coefficients (m, n) = ({i + 1}, {j + 1}) "
                            f"do not commute: {w}"
                        )
    kappa = field.q - field.one / field.q
    s = [one] + [theta_list[m - 1] * kappa if m <= len(theta_list) else one - one
                 for m in range(1, T + 1)]
    l = series_log(s, one, field)
    return [l[m] * (field.one / kappa) for m in range(1, T + 1)]


def test_theta_from_h_order2_identity():
    # Θ2 = H2 + (q - q^-1) H1^2 / 2 on commuting diagonal matrices
    H1 = Matrix.diagonal([Q, Q**-1], F)
    H2 = Matrix.diagonal([Q**2, Scalar(3)], F)
    theta0, thetas = theta_from_h([H1, H2], 2, F, Matrix.identity(2, F))
    kappa = Q - Q**-1
    assert theta0 == 1 / kappa
    assert thetas[0] == H1
    assert thetas[1] == H2 + (H1 @ H1).scale(kappa / 2)


def test_theta_h_roundtrip():
    H = [
        Matrix.diagonal([Q, Scalar(2)], F),
        Matrix.diagonal([Q**-2, Scalar(0)], F),
        Matrix.diagonal([Scalar(1), Q + 1], F),
        Matrix.diagonal([Scalar(-1), Q], F),
    ]
    theta0, thetas = theta_from_h(H, 4, F, Matrix.identity(2, F))
    back = h_from_theta(thetas, 4, F, Matrix.identity(2, F))
    for got, want in zip(back, H):
        assert got == want


_A = Matrix([[Scalar(0), Scalar(1)], [Scalar(0), Scalar(0)]], F)
_B = Matrix([[Scalar(0), Scalar(0)], [Scalar(1), Scalar(0)]], F)


def test_h_from_theta_rejects_noncommuting():
    with pytest.raises(DomainError, match=r"\(m, n\) = \(1, 2\).*entry \(0,0\) = 1"):
        h_from_theta([_A, _B], 2, F, Matrix.identity(2, F))


def test_noncommuting_theta_give_noncommuting_h():
    # the unchecked path still tells a broken tower apart: the H it returns
    # do not commute, and theta_from_h gives the Theta back exactly
    I = Matrix.identity(2, F)
    H = h_from_theta([_A, _B], 2, F, I, check_commuting=False)
    assert H[0] @ H[1] != H[1] @ H[0]
    assert theta_from_h(H, 2, F, I)[1] == [_A, _B]


def test_exp_inverts_log_without_commuting():
    I, Z = Matrix.identity(2, F), Matrix.zeros(2, 2, F)
    C = Matrix([[Q, Scalar(1)], [Scalar(-1), Scalar(1, 2)]], F)
    s = [I, _A, _B, C, Z, _A @ C, Z]
    assert series_exp(series_log(s, I, F), I, F) == s


def test_constant_term_preconditions():
    with pytest.raises(DomainError, match="zero constant term"):
        series_exp(sseries([1, 1]), F.one, F)
    with pytest.raises(DomainError, match="zero constant term"):
        series_exp([], F.one, F)
    with pytest.raises(DomainError, match="constant term 1"):
        series_log(sseries([2, 1]), F.one, F)
    with pytest.raises(DomainError, match="constant term 1"):
        series_log(sseries([0, 1, 1]), F.one, F)
    with pytest.raises(DomainError, match="constant term 1"):
        series_log([], F.one, F)


# ----------------------------------------------------------------- rationals


def test_expand_at_zero():
    # 1/(1 - z) = 1 + z + z^2 + ...
    f = RationalFunction(FPoly([F.one], F), FPoly([F.one, -F.one], F))
    assert f.expand_at_zero(5) == [F.one] * 6


def test_expand_at_infinity_geometric():
    # 1/(1 - z) at infinity: -z^-1 - z^-2 - ...
    f = RationalFunction(FPoly([F.one], F), FPoly([F.one, -F.one], F))
    assert f.expand_at_infinity(4) == sseries([0, -1, -1, -1, -1])


def test_expand_at_infinity_polynomial():
    # z^2 grows at infinity, so it has no expansion in z^-1; the refusal
    # names both degrees
    f = RationalFunction(FPoly([F.zero, F.zero, F.one], F), FPoly.one(F))
    with pytest.raises(DomainError, match="deg num = 2 and deg den = 0"):
        f.expand_at_infinity(3)


@given(st.lists(coeff, max_size=4), st.lists(coeff, min_size=1, max_size=4),
       st.integers(0, 6))
@settings(max_examples=80, deadline=None)
def test_expand_at_infinity_is_inv_z_at_zero(ncs, dcs, T):
    # the coefficient of z^-k at infinity is that of z^k in f(1/z) at zero,
    # and den(z) times the expansion gives num(z) back from z^d down to
    # z^(d - T), d = deg den, the orders the T + 1 known coefficients fix
    num, den = FPoly(ncs, F), FPoly(dcs, F)
    assume(not den.is_zero() and num.degree <= den.degree)
    f = RationalFunction(num, den)
    inf = f.expand_at_infinity(T)
    zero = f.inv_z().expand_at_zero(T)
    assert len(inf) == len(zero) == T + 1
    for k in range(T + 1):
        assert inf[k] == zero[k]
    d = f.den.degree
    for e in range(d - T, d + 1):
        got = sum((f.den.coeff(i) * inf[i - e]
                   for i in range(max(e, 0), min(d, e + T) + 1)), F.zero)
        assert got == f.num.coeff(e)


def test_rational_substitutions():
    one = F.one
    f = RationalFunction(FPoly([one, Q], F), FPoly([one, -Q, Q**2], F))
    g = f.scale_z(Q**2)
    assert g.num.coeffs == [one, Q**3]
    h = f.inv_z().inv_z()
    assert h == f
    assert f.eval(Scalar(0)) == 1


def test_rational_normalization_and_eq():
    a = RationalFunction(FPoly([Q, Q**2], F), FPoly([Q], F))
    b = RationalFunction(FPoly([F.one, Q], F), FPoly.one(F))
    assert a == b
    assert a.num.coeffs == b.num.coeffs
    c = RationalFunction(FPoly([F.one - Q**2], F), FPoly([F.one - Q], F))
    d = RationalFunction(FPoly([F.one + Q], F), FPoly.one(F))
    assert c == d  # gcd cancellation


def test_gcd_refuses_a_numeric_field():
    # the gcd is taken over Q(q) only: a numeric field is refused by name,
    # and a numeric RationalFunction is built without one
    nf = NumericField(1.3)
    a, b = FPoly([nf.one, nf.one], nf), FPoly([-nf.one, nf.zero, nf.one], nf)
    with pytest.raises(DomainError, match=r"exact only, not over NumericField\(q0=\(1\.3"):
        a.gcd(b)
    assert RationalFunction(a, b).den.degree == 2
    one = F.one
    assert FPoly([one, one], F).gcd(FPoly([-one, F.zero, one], F)).coeffs == [one, one]


def _built(make, *parts):
    """``make(*parts)``, or the type of the error it raises."""
    try:
        return make(*parts)
    except DomainError as exc:
        return type(exc)


def _same_function(got, want):
    if isinstance(want, type):
        return got is want
    return got == want and str(got) == str(want)


@given(st.lists(coeff, max_size=4), st.lists(coeff, min_size=1, max_size=4),
       st.lists(coeff, max_size=2),
       st.sampled_from([Scalar(0), Scalar(1), Scalar(-1), Scalar(2), Q, Q**-2,
                        Q - 1, Scalar(1, 2)]))
@settings(max_examples=150, deadline=None)
def test_substitutions_skip_the_gcd_of_a_coprime_pair(ncs, dcs, gcs, alpha):
    # scale_z, inv_z and inv build their result without the gcd; it must
    # be the function the full constructor gives, by == and str (alpha = 0
    # included: both sides then hold constants, or both refuse a zero den(0))
    g = FPoly([F.one] + gcs, F)
    den = FPoly(dcs, F) * g
    if den.is_zero():
        return
    f = RationalFunction(FPoly(ncs, F) * g, den)
    d = max(f.num.degree, f.den.degree, 0)
    assert _same_function(_built(f.scale_z, alpha), _built(
        RationalFunction, f.num.scale_z(alpha), f.den.scale_z(alpha)))
    assert _same_function(f.inv_z(),
                          RationalFunction(f.num.reverse(d), f.den.reverse(d)))
    assert _same_function(_built(f.inv), _built(RationalFunction, f.den, f.num))


def test_coprime_constructor_refuses_a_zero_denominator():
    with pytest.raises(DomainError, match="zero denominator"):
        RationalFunction._coprime(FPoly.one(F), FPoly([], F))


# ----------------------------------------------------------------- pade


def _pade_search(c, max_num_deg, max_den_deg, field):
    """Reference: the degree search.  Denominator degree ascending, then
    numerator degree; each (nnum, nden) solves its own Hankel system with
    free unknowns pinned to zero, and the first candidate whose expansion
    matches every known coefficient c_0..c_T is returned through the full
    constructor, gcd included; None when no candidate matches."""
    T = len(c) - 1
    scale = 1.0 if field.exact else max([abs(v) for v in c] + [1.0])
    for nden in range(max_den_deg + 1):
        for nnum in range(max_num_deg + 1):
            r = [field.one]
            if nden:
                ks = range(nnum + 1, nnum + nden + 1)
                rows = [[c[k - i] if k >= i else field.zero
                         for i in range(1, nden + 1)] for k in ks]
                sol = solve_linear(rows, [-c[k] for k in ks], field)
                if sol is None:
                    continue
                r += sol
            num = []
            for k in range(nnum + 1):
                acc = field.zero
                for i in range(min(k, nden) + 1):
                    acc = acc + r[i] * c[k - i]
                num.append(acc)
            cand = RationalFunction(FPoly(num, field), FPoly(r, field))
            exp = cand.expand_at_zero(T)
            if all(field.is_zero(x - y, scale) for x, y in zip(exp, c)):
                return cand
    return None


def _pade(c, max_num_deg, max_den_deg, field):
    """pade_reconstruct, checked against the reference search: both None,
    or the same coefficients (identical over Q(q), equal within the
    field's tolerance on a numeric field); an exact result is coprime."""
    got = pade_reconstruct(c, max_num_deg, max_den_deg, field)
    want = _pade_search(c, max_num_deg, max_den_deg, field)
    if want is None:
        assert got is None
        return got
    assert got is not None
    for part in ("num", "den"):
        g, w = getattr(got, part).coeffs, getattr(want, part).coeffs
        assert len(g) == len(w), part
        if field.exact:
            assert g == w, part
        else:
            assert all(field.eq(x, y) for x, y in zip(g, w)), part
    if field.exact:
        assert got.num.gcd(got.den).degree == 0
    return got


def test_pade_reconstructs_rationals():
    one = F.one
    f = RationalFunction(FPoly([one, Scalar(2)], F), FPoly([one, -Q, one], F))
    got = _pade(f.expand_at_zero(8), 3, 3, F)
    assert got is not None
    assert got == f
    # minimality: the returned degrees are the reduced ones
    assert got.num.degree == 1 and got.den.degree == 2


def test_pade_polynomial_input():
    s = sseries([1, 0, 3, 0, 0, 0, 0])  # known zero up to order 6
    got = _pade(s, 3, 2, F)
    assert got is not None
    assert got.den.degree == 0
    assert got.num.coeffs == [Scalar(1), Scalar(0), Scalar(3)]


def test_pade_failure_is_none():
    # factorial growth has no small rational form
    s = sseries([math.factorial(k) for k in range(9)])
    assert _pade(s, 3, 3, F) is None


def test_pade_window_precondition():
    s = sseries([1, 1, 1])
    with pytest.raises(DomainError, match=r"T=2 too small for degrees \(2,2\)"):
        pade_reconstruct(s, 2, 2, F)


@pytest.mark.parametrize("bounds, message",
                         [((-1, 2), "max_num_deg = -1"), ((2, -1), "max_den_deg = -1")],
                         ids=["num", "den"])
def test_pade_refuses_negative_degree_bounds(bounds, message):
    # the window is wide enough for both pairs, so only the sign refuses them
    s = sseries([1] * 9)
    with pytest.raises(DomainError, match=f"{message} is negative"):
        pade_reconstruct(s, *bounds, F)


@given(
    st.lists(coeff, min_size=1, max_size=3),
    st.lists(coeff, min_size=0, max_size=2),
)
@settings(max_examples=40, deadline=None)
def test_pade_roundtrip(dcs, ncs):
    den = FPoly([F.one] + dcs[1:], F)
    num = FPoly(ncs, F)
    f = RationalFunction(num, den)
    got = _pade(f.expand_at_zero(6), 2, 2, F)
    assert got is not None
    assert got == f


_nonzero_coeff = coeff.filter(bool)


@st.composite
def _pade_inputs(draw):
    """(series, m, n, f): the expansion of a rational function f within
    the budget (m, n) — reduced and of lower degree, with a common factor
    multiplied into num and den, or a polynomial — or, with f None,
    factorial growth, which closes at no degree below the window."""
    m, n = draw(st.integers(0, 3)), draw(st.integers(0, 3))
    T = m + n + 1 + draw(st.integers(0, 2))
    kind = draw(st.sampled_from(["reduced", "common", "polynomial", "factorial"]))
    if kind == "factorial":
        return sseries([math.factorial(k) for k in range(T + 1)]), m, n, None
    if kind == "polynomial":
        f = RationalFunction(FPoly(draw(st.lists(coeff, max_size=m + 1)), F),
                             FPoly.one(F))
        return f.expand_at_zero(T), m, n, f
    k = draw(st.integers(0, min(m, n))) if kind == "common" else 0
    num = FPoly(draw(st.lists(coeff, max_size=m - k + 1)), F)
    den = FPoly([F.one] + draw(st.lists(coeff, max_size=n - k)), F)
    g = FPoly([draw(_nonzero_coeff)] + draw(st.lists(coeff, min_size=k, max_size=k)), F)
    # the expansion of the unreduced pair num·g / den·g
    s = RationalFunction._coprime(num * g, den * g).expand_at_zero(T)
    return s, m, n, RationalFunction(num, den)


@given(_pade_inputs())
@settings(max_examples=80, deadline=None)
def test_pade_one_solve_matches_the_search(case):
    s, m, n, f = case
    got = _pade(s, m, n, F)
    if f is None:
        assert got is None
    else:
        assert got == f


@pytest.mark.parametrize(
    "num, den",
    [([1, 2], [1, "-q"]), ([1, 2], [1, "-q", "q2"]), ([3], [1, 0, "-q"]),
     ([1, "q", 1], [1])],
    ids=["1-1", "1-2", "0-2", "poly"],
)
def test_pade_numeric_below_budget(num, den):
    nf = NumericField(1.3)
    coeff_of = {"q": nf.q, "-q": -nf.q, "q2": nf.q * nf.q}

    def poly(cs):
        return FPoly([coeff_of[c] if isinstance(c, str) else nf.from_int(c)
                      for c in cs], nf)

    f = RationalFunction(poly(num), poly(den))
    got = _pade(f.expand_at_zero(8), 3, 3, nf)
    assert got is not None
    assert got == f
    assert (got.num.degree, got.den.degree) == (f.num.degree, f.den.degree)


def test_pade_numeric_backend():
    nf = NumericField(1.3)
    one = nf.one
    f = RationalFunction(FPoly([one, 2 + 0j], nf), FPoly([one, -nf.q], nf))
    got = _pade(f.expand_at_zero(6), 2, 2, nf)
    assert got is not None
    diff = got - f
    assert diff.num.is_zero()


def test_pade_makes_at_most_one_solve(monkeypatch):
    # one Hankel solve at the full budget, whether the series closes below
    # it, at it, or not at all; the reference search solves per candidate
    import qonsager.series as series_mod

    calls = [0]

    def counted(rows, rhs, field):
        calls[0] += 1
        return solve_linear(rows, rhs, field)

    monkeypatch.setattr(series_mod, "solve_linear", counted)
    one = F.one
    closes = RationalFunction(FPoly([one, Scalar(2)], F),
                              FPoly([one, -Q, one], F)).expand_at_zero(8)
    fails = sseries([math.factorial(k) for k in range(9)])
    poly = sseries([1, 0, 3, 0, 0, 0, 0])
    for s, m, n in ((closes, 3, 3), (closes, 1, 2), (fails, 3, 3), (poly, 3, 2),
                    (poly, 5, 0)):
        calls[0] = 0
        pade_reconstruct(s, m, n, F)
        assert calls[0] <= 1, (m, n)


# ----------------------------------------------------------------- solver


def test_solve_linear_free_vars_pinned():
    # x + y = 2 with a free variable: canonical solution picks y = 0
    sol = solve_linear([[F.one, F.one]], [Scalar(2)], F)
    assert sol == [Scalar(2), Scalar(0)]
    assert solve_linear([[F.zero, F.zero]], [Scalar(1)], F) is None


@pytest.mark.parametrize("field", [F, NumericField(1.3)], ids=["exact", "numeric"])
@pytest.mark.parametrize(
    "rows, rhs, message",
    [
        ([[1, 0], [0, 1]], [1, 1, 1], "2 rows but 3 right-hand sides"),
        ([[1, 0], [0, 1]], [1], "2 rows but 1 right-hand sides"),
        ([[1], [1, 1]], [1, 2], "row 1 has 2 entries, expected 1"),
    ],
    ids=["long-rhs", "short-rhs", "ragged-rows"],
)
def test_solve_linear_rejects_mismatched_shapes(field, rows, rhs, message):
    one = field.one
    rows = [[one * v for v in row] for row in rows]
    rhs = [one * v for v in rhs]
    with pytest.raises(DomainError, match=message):
        solve_linear(rows, rhs, field)


def test_solve_linear_accepts_integer_entries():
    assert solve_linear([[1, 0], [0, 2]], [1, 1], F) == [Scalar(1), Scalar(1, 2)]


def _gauss_jordan(rows, rhs):
    """Reference: Gauss-Jordan in Q(q), first nonzero pivot, free variables
    pinned to zero; None when inconsistent."""
    m, n = len(rows), len(rows[0])
    a = [list(r) + [v] for r, v in zip(rows, rhs)]
    piv_cols, r = [], 0
    for c in range(n):
        if r == m:
            break
        piv = next((i for i in range(r, m) if a[i][c]), None)
        if piv is None:
            continue
        a[r], a[piv] = a[piv], a[r]
        inv = 1 / a[r][c]
        a[r] = [x * inv for x in a[r]]
        for i in range(m):
            if i != r and a[i][c]:
                f = a[i][c]
                a[i] = [x - f * y for x, y in zip(a[i], a[r])]
        piv_cols.append(c)
        r += 1
    if any(a[i][n] for i in range(r, m)):
        return None
    x = [F.zero] * n
    for i, c in enumerate(piv_cols):
        x[c] = a[i][n]
    return x


_laurent = st.builds(
    lambda p, k: Scalar(p) * Q**k,
    st.lists(st.integers(-4, 4), max_size=4),
    st.integers(-3, 3),
)
# monomial and non-monomial denominators
_den = st.sampled_from(
    [Scalar(1), Scalar(2), Q, Q**3, Q + 1, Q**2 - 2, 3 * Q**2 + Q - 1]
)
_entry = st.one_of(st.just(F.zero), st.builds(lambda p, d: p / d, _laurent, _den))
# every coefficient at full size and of one sign, so that the minors come
# as close as they can to the bound that sets the solver's slot width
_wide = st.builds(
    lambda c, d, k: Scalar([c] * (d + 1)) * Q**k,
    st.sampled_from([2**62 - 1, -(2**62 - 1), 2**64, -(2**64)]),
    st.integers(0, 9),
    st.integers(-3, 3),
)


@st.composite
def _systems(draw):
    """(rows, rhs, kind): entries from _entry or, in systems of up to 4x4,
    _wide; tall and wide shapes; at times rank-deficient rows, a free
    column between pivot columns, a zero row or a zero column; kind
    "inconsistent" marks a system that has no solution."""
    m, n = draw(st.integers(1, 5)), draw(st.integers(1, 5))
    entry = _entry
    if m <= 4 and n <= 4 and draw(st.booleans()):
        entry = st.one_of(_wide, st.just(F.zero))
    rows = [[draw(entry) for _ in range(n)] for _ in range(m)]
    if m > 1 and draw(st.booleans()):
        # a forced dependent row: a combination of two others
        i, j, k = (draw(st.integers(0, m - 1)) for _ in range(3))
        s, t = draw(_entry), draw(_entry)
        rows[i] = [s * x + t * y for x, y in zip(rows[j], rows[k])]
    rank = draw(st.integers(1, 3))
    if rank < min(m, n) and draw(st.booleans()):
        # rows = L·R with L m x rank, so the rank is at most that
        right = [[draw(entry) for _ in range(n)] for _ in range(rank)]
        left = [[draw(_entry) for _ in range(rank)] for _ in range(m)]
        rows = [[sum((a * r[c] for a, r in zip(lrow, right)), F.zero)
                 for c in range(n)] for lrow in left]
    if n > 2 and draw(st.booleans()):
        # column 1 a multiple of column 0: a free column between pivots
        s = draw(_entry)
        for row in rows:
            row[1] = s * row[0]
    if draw(st.booleans()):
        # a zero row or a zero column
        if draw(st.booleans()):
            rows[draw(st.integers(0, m - 1))] = [F.zero] * n
        else:
            j = draw(st.integers(0, n - 1))
            for row in rows:
                row[j] = F.zero
    x0 = [draw(entry) for _ in range(n)]
    rhs = [sum((a * x for a, x in zip(row, x0)), F.zero) for row in rows]
    kind = draw(st.sampled_from(["consistent", "perturbed", "free", "inconsistent"]))
    if kind == "perturbed":
        i = draw(st.integers(0, m - 1))
        rhs[i] = rhs[i] + draw(_entry)
    elif kind == "free":
        rhs = [draw(_entry) for _ in range(m)]
    elif kind == "inconsistent":
        # row i = s·row j with rhs s·rhs_j + t, t != 0: no x satisfies both
        if m == 1:
            rows, rhs = rows * 2, rhs * 2
            m = 2
        i, j = draw(st.permutations(range(m)))[:2]
        s = draw(_entry.filter(bool))
        rows[i] = [s * x for x in rows[j]]
        rhs[i] = s * rhs[j] + draw(_entry.filter(bool))
    return rows, rhs, kind


def _hadamard_system(e, order):
    """e times a Sylvester sign matrix, whose determinant meets Hadamard's
    bound, with right-hand side e·(1, 2, ...)."""
    signs = [[1]]
    while len(signs) < order:
        signs = [r + r for r in signs] + [r + [-x for x in r] for r in signs]
    return [[e * h for h in row] for row in signs], [e * (i + 1) for i in range(order)]


@given(_systems())
@example((*_hadamard_system(Scalar([2**64] * 10), 4), "consistent"))
@example((*_hadamard_system(Scalar([-(2**62 - 1)] * 4) * Q**-2, 4), "consistent"))
@example((*_hadamard_system(Scalar([1] * 20) / (Q + 1), 2), "consistent"))
@example(([[Q, 2 * Q, F.zero, F.one], [Q + 1, 2 * Q + 2, F.one, F.zero], [F.zero] * 4],
          [F.one, Q, F.zero], "free"))
@settings(max_examples=150, deadline=None)
def test_solve_linear_matches_gauss_jordan(system):
    rows, rhs, kind = system
    got = solve_linear(rows, rhs, F)
    assert got == _gauss_jordan(rows, rhs)
    if kind == "inconsistent":
        assert got is None


def _bareiss_gauss_jordan(rows, n):
    """Reference for _kernel._bareiss_solve: Gauss-Jordan with Bareiss
    exact division on the same images, every row but the pivot row updated
    at every step, and each pivot column's solution read off the reduced
    row echelon form as (c, rhs entry, pivot entry)."""
    m = len(rows)
    h2 = 1
    for row in rows:
        h2 *= max(1, sum(sum(map(abs, x)) ** 2 for x in row))
    w = _width((h2.bit_length() + 1) // 2 + 1)
    a = [[_pack(x, w) for x in row] for row in rows]
    piv_cols = []
    prev = 1
    r = 0
    for c in range(n):
        if r == m:
            break
        piv = next((i for i in range(r, m) if a[i][c]), None)
        if piv is None:
            continue
        a[r], a[piv] = a[piv], a[r]
        top = a[r]
        p = top[c]
        for i in range(m):
            if i != r:
                f = a[i][c]
                a[i] = [(p * x - f * y) // prev for x, y in zip(a[i], top)]
        prev = p
        piv_cols.append(c)
        r += 1
    if any(a[i][n] for i in range(r, m)):
        return None
    return [(c, _unpack(a[i][n], w), _unpack(a[i][c], w))
            for i, c in enumerate(piv_cols)]


@given(_systems())
@example((*_hadamard_system(Scalar([2**64] * 10), 4), "consistent"))
@example((*_hadamard_system(Scalar([-(2**62 - 1)] * 4) * Q**-2, 4), "consistent"))
@settings(max_examples=150, deadline=None)
def test_back_substitution_matches_gauss_jordan(system):
    # the integer rows that solve_linear hands to the kernel
    rows, rhs, _ = system
    n = len(rows[0])
    a = [_zprimitive(_clear_denominators([_coerce(v) for v in (*row, b)]))
         for row, b in zip(rows, rhs)]
    assert _bareiss_solve(a, n) == _bareiss_gauss_jordan(a, n)


def test_pade_roundtrip_at_workload_size():
    # a (6, 6) rational function with Laurent coefficients spanning about
    # 40 powers of q; its Taylor coefficients up to z^13 reach q-degree 83,
    # the size of the Hankel systems in the rank-one spectral check
    num = FPoly([parse_scalar(t) for t in (
        "q^-15", "q^-1 - q^18", "q^17", "q^7 - q^12 - q^14", "q^3 - q^-18",
        "-q^4 - q^13", "q^-5",
    )], F)
    den = FPoly([parse_scalar(t) for t in (
        "1", "q^-2", "q^-2 - q^4", "-q + q^3 - q^4", "-q^3 - q^-2", "-q^3",
        "-q^3 - q^4",
    )], F)
    f = RationalFunction(num, den)
    got = pade_reconstruct(f.expand_at_zero(13), 6, 6, F)
    assert got is not None
    assert (got.num.degree, got.den.degree) == (6, 6)
    assert got == f
    assert str(got) == str(f)
    # the reference search needs about 50 s here (48 failing candidates,
    # each with its own exact solve), so the check is against f: by
    # uniqueness the search returns f's normalised coefficients
    assert got.num.coeffs == f.num.coeffs and got.den.coeffs == f.den.coeffs
    assert got.num.gcd(got.den).degree == 0


def test_rational_function_normalizes_dense_q_coefficients():
    # z-coefficients that are dense integer polynomials of degree 10 in q:
    # a coprime (6, 6) pair stays as it is, up to the pivot's scale, and a
    # common factor of z-degree 2 comes out
    rng = random.Random(5)

    def coeff():
        return Scalar([rng.randint(-9, 9) for _ in range(10)] + [rng.randint(1, 9)])

    num = FPoly([coeff() for _ in range(7)], F)
    den = FPoly([coeff() for _ in range(7)], F)
    f = RationalFunction(num, den)
    assert (f.num.degree, f.den.degree) == (6, 6)
    assert f.num * den == num * f.den
    g = FPoly([coeff() for _ in range(3)], F)
    h = RationalFunction(num * g, den * g)
    assert (h.num.degree, h.den.degree) == (6, 6)
    assert h.num * den == num * h.den
    assert h == f


# ------------------------------------------- exp / log against the power sums


def _convolve(a, b):
    """The product of two coefficient lists of one length T + 1, truncated
    to z^T: c_k = Σ_{i=0..k} a_i b_{k-i}."""
    out = []
    for k in range(len(a)):
        acc = a[0] * b[k]
        for i in range(1, k + 1):
            acc = acc + a[i] * b[k - i]
        out.append(acc)
    return out


def _power_sum_exp(s, one, field):
    """Reference: exp(S) = Σ_k S^k / k! by truncated powers of S."""
    zero = one - one
    out = [one] + [zero] * (len(s) - 1)
    power = list(out)
    fact = 1
    for k in range(1, len(s)):
        power = _convolve(power, s)
        fact *= k
        out = [x + field.from_fraction(1, fact) * p for x, p in zip(out, power)]
    return out


def _power_sum_log(s, one, field):
    """Reference: log(1 + D) = Σ_k (-1)^(k+1) D^k / k by truncated powers."""
    zero = one - one
    out = [zero] * len(s)
    power = [one] + out[1:]
    dev = [s[0] - one] + s[1:]
    for k in range(1, len(s)):
        power = _convolve(power, dev)
        sign = 1 if k % 2 else -1
        out = [x + field.from_fraction(sign, k) * p for x, p in zip(out, power)]
    return out


def _both(values, one, zero):
    """(series for exp, series for log) with the given z^1..z^T coefficients."""
    return [zero] + values, [one] + values


@given(st.lists(_entry, max_size=8))
@settings(max_examples=60, deadline=None)
def test_exp_log_match_power_sums_scalar(values):
    se, sl = _both(values, F.one, F.zero)
    assert series_exp(se, F.one, F) == _power_sum_exp(se, F.one, F)
    assert series_log(sl, F.one, F) == _power_sum_log(sl, F.one, F)


_small = st.sampled_from([Scalar(0), Scalar(1), Scalar(-1), Scalar(2), Q, Q**-1,
                          Q + 1, Scalar(1, 2)])


@st.composite
def _commuting_coefficients(draw):
    """A random exact 3x3 matrix M and up to 8 coefficients, each a
    polynomial of degree <= 2 in M, so that they commute pairwise."""
    M = Matrix([[draw(_small) for _ in range(3)] for _ in range(3)], F)
    powers = [Matrix.identity(3, F), M, M @ M]
    values = []
    for _ in range(draw(st.integers(0, 8))):
        acc = Matrix.zeros(3, 3, F)
        for P in powers:
            acc = acc + P.scale(draw(_small))
        values.append(acc)
    return values


@given(_commuting_coefficients())
@settings(max_examples=40, deadline=None)
def test_exp_log_match_power_sums_matrix(values):
    I, Z = Matrix.identity(3, F), Matrix.zeros(3, 3, F)
    se, sl = _both(values, I, Z)
    assert series_exp(se, I, F) == _power_sum_exp(se, I, F)
    assert series_log(sl, I, F) == _power_sum_log(sl, I, F)


@given(_commuting_coefficients())
@settings(max_examples=40, deadline=None)
def test_exp_log_match_power_sums_numeric(values):
    nf = NumericField(1.3)
    values = [v.map_entries(nf.from_scalar, nf) for v in values]
    I, Z = Matrix.identity(3, nf), Matrix.zeros(3, 3, nf)
    se, sl = _both(values, I, Z)
    for fn, ref, s in ((series_exp, _power_sum_exp, se), (series_log, _power_sum_log, sl)):
        got_all, want_all = fn(s, I, nf), ref(s, I, nf)
        assert len(got_all) == len(want_all) == len(s)
        for got, want in zip(got_all, want_all):
            scale = max(got.max_abs(), want.max_abs(), 1.0)
            assert (got - want).is_zero(scale)


def test_exp_log_product_count(monkeypatch):
    # the recurrences take at most T(T-1)/2 (log) and T(T+1)/2 (exp)
    # matrix products; the power sums take 1,350 each here
    calls = [0]
    matmul = Matrix.__matmul__

    def counted(a, b):
        calls[0] += 1
        return matmul(a, b)

    monkeypatch.setattr(Matrix, "__matmul__", counted)
    T = 20
    I = Matrix.identity(2, F)
    values = [Matrix([[Scalar(k), Scalar(1)], [Scalar((-1) ** k), Scalar(2)]], F)
              for k in range(1, T + 1)]
    se, sl = _both(values, I, Matrix.zeros(2, 2, F))
    series_log(sl, I, F)
    assert calls[0] <= T * (T - 1) // 2
    calls[0] = 0
    series_exp(se, I, F)
    assert calls[0] <= T * (T + 1) // 2
