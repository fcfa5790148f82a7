"""Exact scalar field: canonical forms, q-numbers, parsing, specialization.

The independent oracle for arithmetic is sympy's symbolic simplifier; the
frozen expected strings below were computed by hand from the definitions.
"""

import math
import random
from fractions import Fraction

import pytest
import sympy
from hypothesis import example, given, settings
from hypothesis import strategies as st

from qonsager import _kernel
from qonsager._kernel import _pack, _unpack, padd, pdiv_exact, pgcd, pmul, pmul_int, pneg, pnorm, pprim, psub
from qonsager.errors import DomainError, EvaluationError
from qonsager.scalars import (
    ONE,
    Q,
    ZERO,
    NumericField,
    Scalar,
    parse_scalar,
    qbinom,
    qfact,
    qint,
    specialize,
)

qs = sympy.Symbol("q")


def to_sympy(s: Scalar):
    num = sum(c * qs**k for k, c in enumerate(s.num))
    den = sum(c * qs**k for k, c in enumerate(s.den))
    return sympy.together(num / den)


coeffs = st.lists(st.integers(-9, 9), max_size=5)
nonzero_coeffs = coeffs.filter(lambda p: any(p))
# q^k for k <= 4, which random denominators of length <= 5 almost never are
qpow_dens = st.integers(0, 4).map(lambda k: [0] * k + [1])


@st.composite
def scalars(draw):
    """Zero, Laurent polynomials (q^k denominators) and general fractions,
    each drawn often."""
    num = draw(st.one_of(st.just([]), coeffs))
    return Scalar(num, draw(st.one_of(qpow_dens, nonzero_coeffs)))


# ---------------------------------------------------------------- q-numbers


def test_qint_basics():
    assert qint(0) == ZERO
    assert qint(1) == ONE
    assert str(qint(2)) == "(q^2+1)/(q)"
    assert qint(2) == Q + 1 / Q
    assert qint(3) == Q**2 + 1 + Q**-2
    for k in range(1, 8):
        assert qint(-k) == -qint(k)


def test_qint_against_defining_formula():
    for k in range(-6, 7):
        lhs = qint(k) * (Q - 1 / Q)
        assert lhs == Q**k - Q**-k


def test_qbinom_examples():
    assert qbinom(3, 1) == Q**2 + 1 + Q**-2
    assert qbinom(4, 2) == qfact(4) / (qfact(2) * qfact(2))
    assert qbinom(5, 0) == ONE
    assert qbinom(5, 5) == ONE


def test_qbinom_domain():
    with pytest.raises(DomainError):
        qbinom(3, -1)
    with pytest.raises(DomainError):
        qbinom(3, 4)


def test_qbinom_pascal():
    # balanced q-Pascal rule, checked against sympy for n <= 6
    for n in range(1, 7):
        for k in range(0, n + 1):
            expr = to_sympy(qbinom(n, k))
            prod = sympy.prod(
                [
                    (qs ** (n - k + i) - qs ** -(n - k + i)) / (qs**i - qs**-i)
                    for i in range(1, k + 1)
                ]
            )
            assert sympy.simplify(expr - prod) == 0


# ---------------------------------------------------------------- canonicality


def test_canonical_examples():
    assert str(parse_scalar("1/(q-q^-1)")) == "(q)/(q^2-1)"
    assert str(parse_scalar("q^4")) == "q^4"
    assert str(parse_scalar("3*q^2-1")) == "3*q^2-1"
    assert str(ZERO) == "0"
    assert str(-ONE) == "-1"


@given(scalars(), nonzero_coeffs)
@example(parse_scalar("q+1"), [1, 0])  # a trailing zero is not a monomial's top
def test_canonical_uniqueness(s, f):
    blown = Scalar(pmul(s.num, f), pmul(s.den, f))
    assert blown == s
    assert blown.num == s.num and blown.den == s.den
    assert hash(blown) == hash(s)


@given(scalars())
def test_denominator_sign_invariant(s):
    assert s.den[-1] > 0


@given(scalars())
def test_gcd_invariant(s):
    if s.num:
        assert pgcd(s.num, s.den) == [1]


def test_int_fraction_coercion():
    assert Scalar(3) == 3
    assert hash(Scalar(3)) == hash(3)
    assert Scalar(1, 2) == Fraction(1, 2)
    assert hash(Scalar(1, 2)) == hash(Fraction(1, 2))
    assert 2 + Q - Q == 2
    assert Fraction(1, 2) * Q == Q / 2


@st.composite
def operands(draw):
    """One operand of a binary operation: zero (as a Scalar, int or
    Fraction), an int, a Fraction, or a Scalar whose denominator is q^k,
    c*q^k with c in {2, 3}, or a general polynomial."""
    kind = draw(st.sampled_from(["zero", "int", "fraction", "qpow", "cqpow", "general"]))
    if kind == "zero":
        return draw(st.sampled_from([ZERO, Scalar([0, 0], [0, 1]), 0, Fraction(0)]))
    if kind == "int":
        return draw(st.integers(-9, 9))
    if kind == "fraction":
        return Fraction(draw(st.integers(-9, 9)), draw(st.integers(1, 9)))
    num = draw(coeffs)
    if kind == "general":
        return Scalar(num, draw(nonzero_coeffs))
    den = draw(qpow_dens)
    if kind == "cqpow":
        den[-1] = draw(st.sampled_from([2, 3]))
    return Scalar(num, den)


def _parts(x):
    """(num, den) coefficient lists of a Scalar, an int or a Fraction."""
    if isinstance(x, Scalar):
        return x.num, x.den
    x = Fraction(x)
    return [x.numerator] if x else [], [x.denominator]


def _assert_canonical(s):
    assert isinstance(s, Scalar)
    assert not s.num or s.num[-1] != 0
    assert s.den and s.den[-1] > 0
    if s.num:
        assert pgcd(s.num, s.den) == [1]
    else:
        assert s.den == [1]


@given(operands(), operands())
@example(Q**-2, Q**3)  # q^k denominators that cancel into a polynomial
@example(Q - Q**-1, Q**-1)  # a sum whose numerator has a q-valuation
@example(Scalar([0, 1], [2]), Scalar(1, 2))  # c*q^k denominators, c = 2
@example(ZERO, 0)
@example(Fraction(1, 3), Q**-1)
@settings(max_examples=400, deadline=None)
def test_arithmetic_matches_cross_multiplication(a, b):
    # Reference: the schoolbook cross-multiplied fraction, reduced by
    # Scalar's constructor (full gcd).  Every result must carry exactly the
    # reference's num/den lists, whatever path computed it.
    if not isinstance(a, Scalar) and not isinstance(b, Scalar):
        a = Scalar(*_parts(a))
    (n1, d1), (n2, d2) = _parts(a), _parts(b)
    den = pmul(d1, d2)
    cases = [
        (a + b, Scalar(padd(pmul(n1, d2), pmul(n2, d1)), den)),
        (a - b, Scalar(psub(pmul(n1, d2), pmul(n2, d1)), den)),
        (b - a, Scalar(psub(pmul(n2, d1), pmul(n1, d2)), den)),
        (a * b, Scalar(pmul(n1, n2), den)),
    ]
    if isinstance(a, Scalar):
        cases.append((-a, Scalar(pneg(n1), d1)))
    for got, want in cases:
        _assert_canonical(got)
        assert (got.num, got.den) == (want.num, want.den)


@given(operands(), operands())
@example(Q**-2, Q**3)  # Laurent product that cancels into a polynomial
@example(Q - Q**-1, Q**-1)  # Laurent sum whose numerator has a q-valuation
@example(Q**-1, Scalar([0, 1], [2]))  # q^k beside c*q^k: general path
@example(Scalar(1, [1, 1]), Scalar([0, 1], [1, 1]))  # equal general denominators
@example(Scalar(1, [1, 1]), Scalar(-1, [1, 1]))  # a general sum that cancels
@settings(max_examples=300, deadline=None)
def test_cached_qpower_matches_a_fresh_scalar(a, b):
    # the q-power each Scalar keeps is the one a Scalar rebuilt from its
    # num and den computes, whichever path made it
    if not isinstance(a, Scalar):
        a = Scalar(*_parts(a))
    results = [a + b, a - b, b - a, a * b, b * a, -a, a**2, a**-1 if a else a]
    if b:
        results.append(a / b)
    for r in results:
        fresh = Scalar(r.num, r.den)
        assert (r.num, r.den, r._k) == (fresh.num, fresh.den, fresh._k)
    for r in (ZERO, ONE, Q, qint(3), -qint(2)):
        assert r._k == Scalar(r.num, r.den)._k


# ---------------------------------------------------------------- field axioms


@given(scalars(), scalars(), scalars())
@settings(max_examples=60)
def test_field_axioms(a, b, c):
    assert (a + b) + c == a + (b + c)
    assert a + b == b + a
    assert (a * b) * c == a * (b * c)
    assert a * b == b * a
    assert a * (b + c) == a * b + a * c
    assert a + ZERO == a
    assert a * ONE == a
    assert a - a == ZERO
    if b:
        assert (a / b) * b == a
        assert b * b.inv() == ONE


@given(scalars(), st.integers(-4, 4))
def test_pow(a, k):
    if not a and k <= 0:
        return
    expected = ONE
    for _ in range(abs(k)):
        expected = expected * (a if k > 0 else a.inv())
    assert a**k == expected


def test_zero_division():
    with pytest.raises(DomainError):
        ONE / ZERO
    with pytest.raises(DomainError):
        ZERO.inv()
    with pytest.raises(DomainError):
        Scalar([1], [])


# ---------------------------------------------------------------- sympy oracle


@given(scalars(), scalars())
@settings(max_examples=40, deadline=None)
def test_arithmetic_matches_sympy(a, b):
    assert sympy.simplify(to_sympy(a + b) - (to_sympy(a) + to_sympy(b))) == 0
    assert sympy.simplify(to_sympy(a * b) - to_sympy(a) * to_sympy(b)) == 0


# ---------------------------------------------------------------- parsing


@given(scalars())
def test_str_parse_roundtrip(s):
    assert parse_scalar(str(s)) == s


def test_parse_variants():
    assert parse_scalar("q**2") == Q**2
    assert parse_scalar(" q ^ -3 ") == Q**-3
    assert parse_scalar("-(q+1)/(q-1)") == -(Q + 1) / (Q - 1)
    assert parse_scalar("2^3") == Scalar(8)
    # juxtaposition: an integer literal before q or "(" multiplies, at the
    # precedence of * and left-associative
    assert parse_scalar("-2q^3") == -2 * Q**3
    assert parse_scalar("3(q+1)") == 3 * (Q + 1)
    assert parse_scalar("2q^-1") == 2 * Q**-1
    assert parse_scalar("1/2q") == Q / 2
    for text in ("q2", "q q"):
        with pytest.raises(DomainError):
            parse_scalar(text)
    with pytest.raises(DomainError):
        parse_scalar("q +")
    with pytest.raises(DomainError):
        parse_scalar("x")
    with pytest.raises(DomainError):
        parse_scalar("q^q")


# ---------------------------------------------------------------- specialization


def test_specialize_examples():
    assert specialize(qint(2), 2) == pytest.approx(2.5)
    assert specialize(Q**-1, 4) == pytest.approx(0.25)
    with pytest.raises(EvaluationError):
        specialize(1 / (Q - 1), 1.0)
    with pytest.raises(EvaluationError):
        specialize(Q, 0.0)


@given(scalars(), scalars(), st.sampled_from([1.3, 0.7, 2.0, -1.5]))
@settings(max_examples=60)
def test_specialize_is_ring_hom(a, b, q0):
    try:
        va, vb = specialize(a, q0), specialize(b, q0)
        vs = specialize(a + b, q0)
        vp = specialize(a * b, q0)
    except EvaluationError:
        return
    assert abs(vs - (va + vb)) <= 1e-9 * max(1.0, abs(va), abs(vb))
    assert abs(vp - va * vb) <= 1e-9 * max(1.0, abs(va * vb))


def test_numeric_field_guards():
    with pytest.raises(EvaluationError):
        NumericField(1.0)  # root of unity of order 1
    with pytest.raises(EvaluationError):
        NumericField(-1.0)
    with pytest.raises(EvaluationError):
        NumericField(0.0)
    f = NumericField(1.3)
    assert f.eq(f.qint(2), 1.3 + 1 / 1.3)


_NAN, _INF = float("nan"), float("inf")


@pytest.mark.parametrize("q0", [_NAN, _INF, -_INF, complex(1.3, _NAN), complex(_INF, 0.0),
                                complex(1.3, -_INF)])
def test_numeric_field_refuses_a_q0_that_is_not_finite(q0):
    with pytest.raises(EvaluationError, match="is not finite") as err:
        NumericField(q0)
    assert f"q0 = {complex(q0)}" in str(err.value)


@pytest.mark.parametrize("tol", [_INF, _NAN, -1, -1e-12])
def test_numeric_field_refuses_a_tol_that_is_not_finite_or_negative(tol):
    # tol = inf would pass every zero test and so certify every relation
    with pytest.raises(DomainError, match="must be finite and non-negative") as err:
        NumericField(1.3, tol=tol)
    assert f"tol = {tol}" in str(err.value)


def test_numeric_field_accepts_a_zero_tol():
    f = NumericField(1.3, tol=0)
    assert f.is_zero(0.0) and not f.is_zero(1e-300)


class _ComplexField(NumericField):
    def _out(self, z):
        return z


@pytest.mark.parametrize("q0, kind", [(1.3, float), (-0.7, float), (complex(2.0, -0.0), float),
                                      (1.2 + 0.5j, complex), (-0.7j, complex)])
def test_numeric_field_values_are_floats_at_a_real_q0(q0, kind):
    # at a real q0 each value is the real part of the complex value, bit for
    # bit, and the complex value's imaginary part is zero
    f, ref = NumericField(q0), _ComplexField(q0)
    x = parse_scalar("(q^3 - 2*q + 5)/(3*q^2 + 1)")
    got = [f.zero, f.one, f.q, f.from_int(-7), f.from_fraction(2, 3), f.from_scalar(x),
           *(f.qint(k) for k in range(-4, 5))]
    want = [ref.zero, ref.one, ref.q, ref.from_int(-7), ref.from_fraction(2, 3),
            ref.from_scalar(x), *(ref.qint(k) for k in range(-4, 5))]
    assert {type(v) for v in got} == {kind} and {type(z) for z in want} == {complex}
    if kind is float:
        assert all(z.imag == 0 for z in want)
        want = [z.real for z in want]
    assert [repr(v) for v in got] == [repr(z) for z in want]


# ---------------------------------------------------------------- kernel


ints = st.lists(st.integers(-50, 50), max_size=8).map(lambda p: pnorm(list(p)))
monomials = st.builds(
    lambda c, k: [0] * k + [c],
    st.integers(-50, 50).filter(bool),
    st.integers(0, 6),
)
polys = st.one_of(ints, monomials)


@given(ints, ints)
def test_kernel_mul_bignum_path(a, b):
    # coefficients past the machine-word range
    big = 2**70
    got = pmul([c * big for c in a], list(b))
    assert got == [c * big for c in pmul(list(a), list(b))]


def _schoolbook(a, b):
    out = [0] * (len(a) + len(b) - 1)
    for i, x in enumerate(a):
        for j, y in enumerate(b):
            out[i + j] += x * y
    return pnorm(out)


@st.composite
def long_polys(draw, max_len=70, bits=(1, 6, 63, 64, 200)):
    """1..max_len coefficients up to 2^200 in size, with inner zeros, a
    q-valuation (leading zeros) and, at times, every sign negative."""
    bits = draw(st.sampled_from(bits))
    size = st.integers(-(2**bits), 2**bits)
    n = draw(st.integers(1, max_len))
    v = draw(st.integers(0, n - 1))
    p = [0] * v + [draw(st.one_of(st.just(0), size)) for _ in range(n - v)]
    if draw(st.booleans()):
        p = [-abs(c) for c in p]
    p[-1] = p[-1] or draw(size.filter(bool))
    return p


@given(long_polys(), long_polys())
@example([-(2**90)] + [3] * 14, [5, -7] * 8)  # lengths 15 and 16: schoolbook
@example([2**90, -1] * 8, [-7] * 15 + [-3])  # 16 and 16: Kronecker
@example([2**62] * 16, [-3] * 15 + [-(2**62)])  # 16 and 16 at 63 bits
@example([0] * 3 + [-(2**90)] * 14, [7, 0, -7] * 13 + [-3])  # 17 and 40
@settings(max_examples=100, deadline=None)
def test_kernel_mul_matches_schoolbook_across_cutoff(a, b):
    assert pmul(a, b) == _schoolbook(a, b)


@pytest.mark.parametrize("bits", [1, 5, 6, 61, 62, 63, 64, 200])
def test_kernel_mul_extreme_coefficients(bits):
    # every coefficient at full size and of one sign, so the middle
    # coefficients of the product come as close to the slot size as they can
    for top in (2**bits - 1, 2**bits):
        for n in (16, 63, 64, 70):
            for a, b in (([-top] * n, [-top] * n), ([top] * n, [-top] * 70),
                         ([0] * 9 + [-top] * n, [-top] * n)):
                assert pmul(a, b) == _schoolbook(a, b)


def test_kernel_mul_kronecker_matches_sympy():
    rng = random.Random(7)
    a = [0, 0] + [rng.randint(-(2**200), 2**200) for _ in range(40)] + [-1]
    b = [-rng.randint(0, 2**150) for _ in range(30)] + [-(2**150)]
    prod = sympy.Poly(list(reversed(a)), qs) * sympy.Poly(list(reversed(b)), qs)
    assert pmul(a, b) == [int(c) for c in reversed(prod.all_coeffs())]


@pytest.mark.parametrize("c", [1, -1, 7, -7, 2**200, -(2**200)])
@pytest.mark.parametrize("k", [0, 1, _kernel._KRONECKER_MIN - 2, _kernel._KRONECKER_MIN - 1,
                               _kernel._KRONECKER_MIN, _kernel._KRONECKER_MIN + 9])
def test_kernel_mul_monomial_operand(c, k):
    # c*q^k times another operand is a shift and a scale, on either side of
    # the Kronecker cutoff, and the product is a fresh list
    rng = random.Random(k * 1000 + c % 997)
    n = _kernel._KRONECKER_MIN
    others = [
        [3],
        [0, 0, -5],
        [-1] + [0] * (n + 2) + [2**90],
        [rng.randint(-50, 50) for _ in range(n - 1)] + [1],
        [0, 0] + [rng.randint(-(2**70), 2**70) for _ in range(n + 7)] + [-1],
        [0] * 3 + [-c],
    ]
    m = [0] * k + [c]
    for other in others:
        for a, b in ((m, other), (other, m)):
            saved = (list(a), list(b))
            got = pmul(a, b)
            assert got == _schoolbook(a, b)
            got[:] = [1] * (len(got) + 1)
            assert (a, b) == saved


def test_kernel_mul_operands_with_trailing_zeros():
    # a list that ends in zeros is the polynomial without them: it is no
    # monomial when its nonzero part is not one, and the product is stripped
    for a in ([1, 0], [0, 0], [0, 2, 0, 0], [1, 1, 0]):
        for b in ([1, 1], [0, 3], [2, 0], [5, 0, -1] * 6 + [0]):
            assert pmul(a, b) == _schoolbook(a, b)
            assert pmul(b, a) == _schoolbook(b, a)


@given(long_polys(), long_polys())
@settings(max_examples=100, deadline=None)
def test_pdiv_exact_recovers_every_exact_quotient(b, quo):
    assert pdiv_exact(_schoolbook(b, quo), b) == quo


@given(long_polys(), long_polys(), long_polys(max_len=20))
@example([1] * 12, [1] * 12, [2])
@settings(max_examples=100, deadline=None)
def test_pdiv_exact_rejects_every_inexact_input(b, quo, r):
    # b*quo + r with 0 < deg r < deg b leaves the remainder r over Q
    if len(b) < 2:
        b = b + [1]
    r = pnorm(r[: len(b) - 1]) or [1]
    a = padd(_schoolbook(b, quo), r)
    with pytest.raises(ValueError):
        pdiv_exact(a, b)


@pytest.mark.parametrize("w", range(1, 13))
def test_unpack_inverts_pack_at_the_slot_edges(w):
    # the balanced digits run from -2^(s-1) to 2^(s-1) - 1; an integer just
    # below a power of two whose second-highest digit is -2^(s-1) takes one
    # digit more than its bit length suggests
    half = 1 << (8 * w - 1)
    for p in ([], [-half, -half, 1], [0, -18, -half, 1], [half - 1] * 5, [-half] * 5,
              [3, -half], [-half, half - 1, -1], [0, 0, -half, -half, 1],
              [-(half - 1), half - 1, -half], [half - 1], [-(half - 1)], [-half]):
        assert _unpack(_pack(p, w), w) == p
    assert _pack([], w) == 0
    assert _unpack(0, w) == []
    # 2^(2s) - 2^(2s-1) - 2^(s-1) has bit length 2s - 1 but three digits
    assert _unpack((1 << (16 * w)) - (half << (8 * w)) - half, w) == [-half, -half, 1]


@pytest.mark.parametrize("w", [1, 2, 4, 8])
def test_pack_without_arrays_gives_the_same_integers(w, monkeypatch):
    # the slot widths an array holds convert in C; the to_bytes loop that
    # every other width takes reads and writes the same integers
    assert w in _kernel._ARRAY or _kernel._ARRAY == {}
    half = 1 << (8 * w - 1)
    rng = random.Random(w)
    polys = [[], [-half, -half, 1], [half - 1, -half] * 4 + [1]]
    polys += [pnorm([rng.randint(-half, half - 1) for _ in range(rng.randint(1, 40))])
              for _ in range(30)]
    values = [rng.randint(-(1 << (8 * w * 9)), 1 << (8 * w * 9)) for _ in range(30)]
    packed = [_pack(p, w) for p in polys]
    unpacked = [_unpack(x, w) for x in values + packed]
    monkeypatch.setattr(_kernel, "_ARRAY", {})
    assert [_pack(p, w) for p in polys] == packed
    assert [_unpack(x, w) for x in values + packed] == unpacked
    assert unpacked[len(values):] == polys


@st.composite
def gcd_pairs(draw, max_len=200, bits=(1, 6, 63, 64, 200)):
    """Two operands with a drawn common factor and common content, lengths
    drawn apart, and each leading coefficient of either sign."""
    g = draw(long_polys(max_len=6, bits=(1, 6, 40)))
    k = draw(st.sampled_from([1, 2, 6, 2**70]))
    a = pmul_int(pmul(g, draw(long_polys(max_len, bits))), k)
    b = pmul_int(pmul(g, draw(long_polys(max_len, bits))), k)
    if draw(st.booleans()):
        a = pneg(a)
    if draw(st.booleans()):
        b = pneg(b)
    return a, b


@given(st.one_of(st.tuples(polys, polys), gcd_pairs()))
@example(([1, 2, 1] * 67, [-(2**200), 1] * 100))  # 201 and 200 coefficients
@example(([0, 5, 0, 5] * 50, [-5, 5]))  # 200 against 2, shared content
# q(64q - 9)(2 + q + ... + q^14) and q(64q - 9)(2 + q): at q = 256 the
# integer gcd's balanced digits are [0, -18, -128, 1]
@example(([0, -18, 119] + [55] * 13 + [64], [0, -18, 119, 64]))
@settings(max_examples=80, deadline=None)
def test_gcd_matches_sympy(pair):
    a, b = pair
    if not a or not b:
        return
    pa = sympy.Poly(list(reversed(a)), qs, domain=sympy.ZZ)
    pb = sympy.Poly(list(reversed(b)), qs, domain=sympy.ZZ)
    expected = [int(c) for c in reversed(sympy.gcd(pa, pb).all_coeffs())]
    assert pgcd(list(a), list(b)) == expected


@given(gcd_pairs(max_len=30, bits=(1, 6, 40)))
@settings(max_examples=60, deadline=None)
def test_gcd_matches_pseudo_remainder_sequence(pair):
    a, b = pair
    ca, pa = pprim(a)
    cb, pb = pprim(b)
    assert pgcd(a, b) == pmul_int(_kernel._prs_gcd(pa, pb), math.gcd(ca, cb))


@given(st.one_of(st.tuples(polys, polys), gcd_pairs(max_len=40)))
@example(([], [0, -3]))
@example(([0, 0, 6], [0, 4, 0, 8]))  # a monomial against a polynomial
@example(([0, 0, 6], []))
@settings(max_examples=80, deadline=None)
def test_gcd_cofactors_are_the_quotients(pair):
    a, b = pair
    if not a and not b:
        return
    g, qa, qb = _kernel._gcd_cofactors(list(a), list(b))
    assert g == pgcd(list(a), list(b))
    assert pmul(g, qa) == a and pmul(g, qb) == b


def test_gcd_cofactors_reuse_the_heuristic_proof(monkeypatch):
    # the heuristic gcd proves its candidate by dividing the images, whose
    # quotients are the cofactors: no polynomial division runs at all
    g0 = [3, -1, 2]
    a = pmul(g0, [1, 2, 3] * 6)
    b = pmul(g0, [-2, 0, 1] * 6 + [5])
    calls = []
    divide = _kernel.pdiv_exact

    def counted(x, y):
        calls.append(y)
        return divide(x, y)

    monkeypatch.setattr(_kernel, "pdiv_exact", counted)
    g, qa, qb = _kernel._gcd_cofactors(a, b)
    assert len(calls) == 0
    assert g == g0 == pgcd(a, b)
    assert pmul(g, qa) == a and pmul(g, qb) == b


@given(gcd_pairs())
@settings(max_examples=80, deadline=None)
def test_heuristic_cofactors_are_the_schoolbook_quotients(pair):
    _, pa = pprim(pair[0])
    _, pb = pprim(pair[1])
    found = _kernel._heuristic_gcd(pa, pb)
    if found is not None:
        g, qa, qb = found
        assert qa == pdiv_exact(pa, g) and qb == pdiv_exact(pb, g)


def test_heuristic_cofactor_too_wide_for_the_images_is_divided(monkeypatch):
    # u = 102 - 101q + 101q^2 - ... + 101q^16 and a = (q + 1)u =
    # 102 + q + 101q^17, whose coefficients fit a byte slot; but
    # |q + 1|_1 * max|u| = 204 is not below 128, so the quotient of the
    # images proves nothing and pdiv_exact divides a; b's quotient is narrow
    g0 = [1, 1]
    u = [101 * (-1) ** i for i in range(17)]
    u[0] += 1
    a = pmul(g0, u)
    b = pmul(g0, [1, 2, 0, -1, 3])
    assert a == [102, 1] + [0] * 15 + [101]
    calls = []
    divide = _kernel.pdiv_exact

    def counted(x, y):
        calls.append((x, y))
        return divide(x, y)

    monkeypatch.setattr(_kernel, "pdiv_exact", counted)
    assert _kernel._heuristic_gcd(a, b) == (g0, u, [1, 2, 0, -1, 3])
    assert calls == [(a, g0)]


@given(st.lists(st.integers(-2, 2), min_size=1, max_size=20),
       st.lists(st.integers(-120, 120), min_size=1, max_size=8).filter(any),
       st.sampled_from([1, 2]))
@example([1] * 10, [100], 1)  # |g|_1 |u|_inf = 1000, |g|_inf |u|_1 = 100: only the second bound
@example([1, -1] * 6, [0, 90, 0, -30], 1)
@example([1, 1], [102] + [101 * (-1) ** i for i in range(1, 17)], 1)  # neither bound
@settings(max_examples=200, deadline=None)
def test_image_quotient_accepts_only_true_quotients(g, u, w):
    # qv = a(xi) / g(xi) for a = the balanced digits of g(xi) u(xi): g * u = a
    # unless a carry crossed a slot.  A quotient the bounds accept needs no
    # division and is exact; otherwise pdiv_exact decides.
    while g and not g[-1]:
        g.pop()
    if not g:
        return
    qv = _pack(g, w) * _pack(u, w)
    a = _unpack(qv, w)
    digits = _unpack(_pack(u, w), w)
    norms = (sum(map(abs, g)), max(map(abs, g)))
    half = 1 << (8 * w - 1)
    calls = []
    divide = _kernel.pdiv_exact

    def counted(x, y):
        calls.append(y)
        return divide(x, y)

    _kernel.pdiv_exact = counted
    try:
        got = _kernel._image_quotient(a, _pack(u, w), g, norms, w)
    finally:
        _kernel.pdiv_exact = divide
    assert got is None or pmul(g, got) == a
    if min(norms[0] * max(map(abs, digits)), norms[1] * sum(map(abs, digits))) < half:
        assert calls == [] and got == digits
    else:
        assert calls == [g]


def test_gcd_falls_back_to_the_pseudo_remainder_sequence():
    # a0 and b0 vanish at q = 2^16, 2^24 and 2^32 modulo a prime above half
    # that point (a pair found by lattice reduction), and so do a and b,
    # which are coprime; the integer gcd at each of the heuristic's points
    # lifts to a nonconstant polynomial that divides neither operand
    a0 = [77, 128, -8, -7, -99, 40, 69, 63, 3]
    b0 = [-26, -15, -19, -168, -92, 1, 64, -143, 1]
    a = pmul(a0, [1] + [0] * 7 + [1])
    b = pmul(b0, [1] + [0] * 7 + [-1])
    for s in (16, 24, 32):
        xi = 2**s
        va = sum(c * xi**k for k, c in enumerate(a))
        vb = sum(c * xi**k for k, c in enumerate(b))
        assert math.gcd(va, vb) > xi // 2
    assert _kernel._heuristic_gcd(a, b) is None
    assert pgcd(a, b) == [1]
    assert pgcd(pmul(a, [2, 1]), pmul(b, [-3, 0, 1])) == [1]
    assert pgcd(pmul(a, [-3, 2]), pmul_int(pmul(b, [3, -2]), 4)) == [-3, 2]
