"""Exact arithmetic in the coefficient field Q(q) of rational functions in q.

Representation
--------------
A :class:`Scalar` is a reduced fraction ``num / den`` of integer-coefficient
polynomials in q.  Each polynomial is an ascending coefficient list of Python
ints with no trailing zeros; ``[]`` is the zero polynomial.  The stored form
is canonical and unique:

* ``gcd(num, den) = 1`` in ZZ[q] — no common polynomial factor, and the
  integer contents of num and den are coprime;
* the leading coefficient of ``den`` is positive;
* ``den`` is never zero, and the zero element is ``[] / [1]``.

Equality is therefore structural, hashing is cheap, and ``str()`` round-trips
through :func:`parse_scalar`.  Negative powers of q never appear explicitly:
q^-1 is the fraction ``[1] / [0, 1]``.

A Scalar is immutable: no code changes ``num`` or ``den`` after
construction.  Arithmetic relies on this, since it may return one of its
operands, or share an operand's coefficient list with its result.

Most entries of the modules this package builds are 0 or Laurent
polynomials, so ``+``, ``-`` and ``*`` take two fast paths before the
general one, and each returns the same canonical form as the general path:

* a zero operand: ``0 + b`` is ``b``, ``a - 0`` is ``a``, ``-0`` is
  itself, and a product with a zero factor is ``ZERO``, with no kernel
  call;
* both denominators exactly q^k (coefficient 1; a polynomial has k = 0):
  sums shift both numerators to the common q^max(k1, k2), products
  multiply the numerators over q^(k1 + k2), and the result num / q^k is
  reduced by stripping the v = min(val(num), k) lowest zero coefficients
  of num, giving num / q^(k - v), where val is the q-adic valuation.  No
  ``pgcd`` or ``pdiv_exact`` runs.  This form is canonical: q^k has
  content 1, so gcd(num, q^k) = q^min(val(num), k), and q^(k - v) has a
  positive leading coefficient.

Every other denominator, c*q^k with c != 1 included, takes the general
path through ``pgcd``.

Dispatch costs no more than it must: an operand that is already a Scalar
skips coercion, and each Scalar keeps _qpow(den), the k of a q^k
denominator or -1, in a slot computed once at construction (the Laurent
path passes the k it already knows), so no operation re-derives the shape
of an operand's denominator.

Operator inventory: ``+ - * / ** == hash bool``, with ints and
:class:`fractions.Fraction` coerced on either side.

q-numbers
---------
:func:`qint` gives the balanced q-integer [k] = (q^k - q^-k)/(q - q^-1),
:func:`qfact` and :func:`qbinom` the derived factorials and binomials.

Backends
--------
:class:`ExactField` and :class:`NumericField` expose the same small constant
factory / zero-test protocol, so every construction in the package can run
either over exact Scalars or over numbers at a fixed finite q0 (guarded
against roots of unity up to order 48): Python floats at a real q0, the
real parts of the complex values, and complex numbers otherwise.
:func:`specialize` maps a Scalar to its complex value at q0 and raises
:class:`~qonsager.errors.EvaluationError` at poles.
"""

from __future__ import annotations

import math
from fractions import Fraction

from ._kernel import (
    _gcd_cofactors,
    padd,
    pdiv_exact,
    pgcd,
    pmul,
    pneg,
    pshift,
    psub,
)
from .errors import DomainError, EvaluationError

__all__ = [
    "Scalar",
    "ZERO",
    "ONE",
    "Q",
    "qint",
    "qfact",
    "qbinom",
    "parse_scalar",
    "specialize",
    "ExactField",
    "NumericField",
    "DEFAULT_Q0",
]


class Scalar:
    """An element of Q(q) in canonical reduced form."""

    __slots__ = ("num", "den", "_h", "_k")

    def __init__(self, num, den=1):
        if isinstance(num, int):
            num = [num] if num else []
        if isinstance(den, int):
            if den == 0:
                raise DomainError("zero denominator")
            den = [den]
        num, den = _reduce(list(num), list(den))
        self.num = num
        self.den = den
        self._h = None
        self._k = _qpow(den)

    @classmethod
    def _raw(cls, num, den, k=None):
        """Wrap coefficient lists already known to be in canonical form;
        k is _qpow(den) when the caller knows it."""
        s = object.__new__(cls)
        s.num = num
        s.den = den
        s._h = None
        s._k = _qpow(den) if k is None else k
        return s

    # -- arithmetic ---------------------------------------------------------

    def __add__(self, other):
        if type(other) is not Scalar:
            other = _coerce(other)
            if other is NotImplemented:
                return NotImplemented
        if not other.num:
            return self
        if not self.num:
            return other
        return _sum(self, other, padd)

    __radd__ = __add__

    def __sub__(self, other):
        if type(other) is not Scalar:
            other = _coerce(other)
            if other is NotImplemented:
                return NotImplemented
        if not other.num:
            return self
        if not self.num:
            return -other
        return _sum(self, other, psub)

    def __rsub__(self, other):
        if type(other) is not Scalar:
            other = _coerce(other)
            if other is NotImplemented:
                return NotImplemented
        if not self.num:
            return other
        if not other.num:
            return -self
        return _sum(other, self, psub)

    def __neg__(self):
        if not self.num:
            return self
        return Scalar._raw(pneg(self.num), self.den, self._k)

    def __mul__(self, other):
        if type(other) is not Scalar:
            other = _coerce(other)
            if other is NotImplemented:
                return NotImplemented
        n1, n2 = self.num, other.num
        if not n1 or not n2:
            return ZERO
        k1, k2 = self._k, other._k
        if k1 >= 0 and k2 >= 0:
            return _laurent(pmul(n1, n2), k1 + k2)
        _, n1, d2 = _gcd_cofactors(n1, other.den)
        _, n2, d1 = _gcd_cofactors(n2, self.den)
        num = pmul(n1, n2)
        den = pmul(d1, d2)
        if den[-1] < 0:
            num, den = pneg(num), pneg(den)
        return Scalar._raw(num, den)

    __rmul__ = __mul__

    def __truediv__(self, other):
        if type(other) is not Scalar:
            other = _coerce(other)
            if other is NotImplemented:
                return NotImplemented
        return self * other.inv()

    def __rtruediv__(self, other):
        if type(other) is not Scalar:
            other = _coerce(other)
            if other is NotImplemented:
                return NotImplemented
        return other * self.inv()

    def __pow__(self, k):
        if not isinstance(k, int):
            return NotImplemented
        if k == 0:
            return ONE
        base = self if k > 0 else self.inv()
        k = abs(k)
        # num/den coprime stays coprime under powers, so no re-reduction
        num, den, bn, bd = [1], [1], base.num, base.den
        while k:
            if k & 1:
                num, den = pmul(num, bn), pmul(den, bd)
            k >>= 1
            if k:
                bn, bd = pmul(bn, bn), pmul(bd, bd)
        return Scalar._raw(num, den)

    def inv(self) -> "Scalar":
        if not self.num:
            raise DomainError("inverting zero")
        num, den = self.den, self.num
        if den[-1] < 0:
            num, den = pneg(num), pneg(den)
        return Scalar._raw(num, den)

    # -- comparisons / hashing ----------------------------------------------

    def __eq__(self, other):
        if type(other) is not Scalar:
            other = _coerce(other)
            if other is NotImplemented:
                return NotImplemented
        return self.num == other.num and self.den == other.den

    def __bool__(self):
        return bool(self.num)

    def __hash__(self):
        if self._h is None:
            if self.den == [1] and len(self.num) <= 1:
                self._h = hash(self.num[0] if self.num else 0)
            elif len(self.num) <= 1 and len(self.den) == 1:
                self._h = hash(
                    Fraction(self.num[0] if self.num else 0, self.den[0])
                )
            else:
                self._h = hash((tuple(self.num), tuple(self.den)))
        return self._h

    # -- presentation --------------------------------------------------------

    def __str__(self):
        if self.den == [1]:
            return _poly_str(self.num)
        return f"({_poly_str(self.num)})/({_poly_str(self.den)})"

    def __repr__(self):
        return f"Scalar('{self}')"


def _reduce(num, den):
    while num and num[-1] == 0:
        num.pop()
    while den and den[-1] == 0:
        den.pop()
    if not den:
        raise DomainError("zero denominator")
    if not num:
        return [], [1]
    _, num, den = _gcd_cofactors(num, den)
    if den[-1] < 0:
        num, den = pneg(num), pneg(den)
    return num, den


def _qpow(den):
    """k when den is exactly q^k (coefficient 1), else -1."""
    k = len(den) - 1
    if den[k] == 1 and den.count(0) == k:
        return k
    return -1


def _laurent(num, k):
    """The canonical form of num / q^k: strip the q^v, v = min(val(num), k),
    that num and q^k share."""
    if not num:
        return ZERO
    v = 0
    while v < k and num[v] == 0:
        v += 1
    if v:
        num = num[v:]
        k -= v
    return Scalar._raw(num, [0] * k + [1], k)


def _sum(a, b, op):
    """a + b (op = padd) or a - b (op = psub) for nonzero Scalars,
    canonical."""
    n1, n2, k1, k2 = a.num, b.num, a._k, b._k
    if k1 >= 0 and k2 >= 0:
        if k1 < k2:
            n1 = pshift(n1, k2 - k1)
        elif k2 < k1:
            n2 = pshift(n2, k1 - k2)
        return _laurent(op(n1, n2), max(k1, k2))
    d1, d2 = a.den, b.den
    if d1 == d2:
        return Scalar(op(n1, n2), d1)
    g, d1g, d2g = _gcd_cofactors(d1, d2)
    if g == [1]:
        num = op(pmul(n1, d2), pmul(n2, d1))
        if not num:
            return ZERO
        return Scalar._raw(num, pmul(d1, d2))
    num = op(pmul(n1, d2g), pmul(n2, d1g))
    if not num:
        return ZERO
    h = pgcd(num, g)
    if h != [1]:
        num = pdiv_exact(num, h)
        g = pdiv_exact(g, h)
    den = pmul(pmul(g, d1g), d2g)
    if den[-1] < 0:
        num, den = pneg(num), pneg(den)
    return Scalar._raw(num, den)


def _coerce(x):
    if isinstance(x, Scalar):
        return x
    if isinstance(x, int):
        return Scalar._raw([x] if x else [], [1])
    if isinstance(x, Fraction):
        return Scalar(x.numerator, x.denominator)
    return NotImplemented


ZERO = Scalar._raw([], [1])
ONE = Scalar._raw([1], [1])
Q = Scalar._raw([0, 1], [1])


def _poly_str(p):
    if not p:
        return "0"
    parts = []
    for k in range(len(p) - 1, -1, -1):
        c = p[k]
        if c == 0:
            continue
        mag = abs(c)
        if k == 0:
            body = str(mag)
        else:
            var = "q" if k == 1 else f"q^{k}"
            body = var if mag == 1 else f"{mag}*{var}"
        if not parts:
            parts.append(body if c > 0 else "-" + body)
        else:
            parts.append(("+" if c > 0 else "-") + body)
    return "".join(parts)


# -- q-numbers ---------------------------------------------------------------


def qint(k: int) -> Scalar:
    """The balanced q-integer [k] = (q^k - q^-k)/(q - q^-1).

    [0] = 0, [-k] = -[k]; e.g. [2] = q + q^-1.
    """
    if k == 0:
        return ZERO
    n = abs(k)
    num = [1 if i % 2 == 0 else 0 for i in range(2 * n - 1)]
    den = [0] * (n - 1) + [1]
    s = Scalar._raw(num, den)
    return -s if k < 0 else s


def qfact(k: int) -> Scalar:
    """[k]! = [1][2]...[k]; requires k >= 0."""
    if k < 0:
        raise DomainError("qfact of a negative integer")
    out = ONE
    for i in range(2, k + 1):
        out = out * qint(i)
    return out


def qbinom(k: int, l: int) -> Scalar:
    """The q-binomial [k choose l] for 0 <= l <= k."""
    if not 0 <= l <= k:
        raise DomainError(f"qbinom({k}, {l}) outside 0 <= l <= k")
    l = min(l, k - l)
    out = ONE
    for i in range(1, l + 1):
        out = out * qint(k - l + i) / qint(i)
    return out


# -- parsing -----------------------------------------------------------------


def parse_scalar(text: str) -> Scalar:
    """Parse expressions like "q^4", "1/(q-q^-1)", "3*q^2-1" into Scalars.

    Grammar: + - * / ^ (or **), integer literals, the variable q and
    parentheses; exponents are (possibly negative) integers.  An integer
    literal followed by q or "(" is an implicit product (juxtaposition)
    with the precedence and left associativity of *, so "-2q^3" means
    "-2*q^3", "3(q+1)" means "3*(q+1)" and "1/2q" means "1/2*q".  No
    other juxtaposition is accepted: "q2" and "q q" are errors.
    """
    tokens = _tokenize(text)
    pos = [0]

    def peek():
        return tokens[pos[0]] if pos[0] < len(tokens) else None

    def take():
        t = peek()
        pos[0] += 1
        return t

    def expect(t):
        if take() != t:
            raise DomainError(f"malformed scalar expression: {text!r}")

    def parse_expr():
        node = parse_term()
        while peek() in ("+", "-"):
            op = take()
            rhs = parse_term()
            node = node + rhs if op == "+" else node - rhs
        return node

    def parse_term():
        node = parse_factor()
        while True:
            if peek() in ("*", "/"):
                op = take()
            elif peek() in ("q", "(") and isinstance(tokens[pos[0] - 1], int):
                op = "*"
            else:
                return node
            rhs = parse_factor()
            node = node * rhs if op == "*" else node / rhs

    def parse_factor():
        if peek() == "-":
            take()
            return -parse_factor()
        if peek() == "+":
            take()
            return parse_factor()
        node = parse_atom()
        if peek() == "^":
            take()
            sign = 1
            if peek() == "-":
                take()
                sign = -1
            e = take()
            if not isinstance(e, int):
                raise DomainError(f"malformed exponent in {text!r}")
            node = node ** (sign * e)
        return node

    def parse_atom():
        t = take()
        if t == "(":
            node = parse_expr()
            expect(")")
            return node
        if t == "q":
            return Q
        if isinstance(t, int):
            return Scalar(t)
        raise DomainError(f"malformed scalar expression: {text!r}")

    node = parse_expr()
    if pos[0] != len(tokens):
        raise DomainError(f"trailing input in scalar expression: {text!r}")
    return node


def _tokenize(text):
    tokens = []
    i, n = 0, len(text)
    while i < n:
        ch = text[i]
        if ch.isspace():
            i += 1
        elif ch.isdigit():
            j = i
            while j < n and text[j].isdigit():
                j += 1
            tokens.append(int(text[i:j]))
            i = j
        elif ch == "q":
            tokens.append("q")
            i += 1
        elif ch == "*":
            if i + 1 < n and text[i + 1] == "*":
                tokens.append("^")
                i += 2
            else:
                tokens.append("*")
                i += 1
        elif ch in "+-/^()":
            tokens.append(ch)
            i += 1
        else:
            raise DomainError(f"unexpected character {ch!r} in scalar expression")
    return tokens


# -- numeric specialization ---------------------------------------------------


def specialize(s: Scalar, q0: complex) -> complex:
    """Evaluate s at q = q0; raises EvaluationError at q0 = 0 and at poles."""
    q0 = complex(q0)
    if q0 == 0:
        raise EvaluationError("q0 = 0 is outside the torus")
    dv = _horner(s.den, q0)
    if dv == 0:
        raise EvaluationError(f"pole of {s} at q0 = {q0}")
    return _horner(s.num, q0) / dv


def _horner(p, x):
    acc = 0j
    for c in reversed(p):
        acc = acc * x + c
    return acc


# -- coefficient backends -------------------------------------------------------

DEFAULT_Q0 = 1.3


class ExactField:
    """Constant factory / zero-test protocol over exact Scalars."""

    exact = True
    name = "exact"

    zero = ZERO
    one = ONE
    q = Q

    @staticmethod
    def from_int(n: int) -> Scalar:
        return Scalar(n)

    @staticmethod
    def from_fraction(p: int, r: int) -> Scalar:
        return Scalar(p, r)

    @staticmethod
    def from_scalar(s: Scalar) -> Scalar:
        return s

    @staticmethod
    def qint(k: int) -> Scalar:
        return qint(k)

    @staticmethod
    def is_zero(x, scale=1.0) -> bool:
        return not x

    @staticmethod
    def eq(a, b) -> bool:
        return a == b

    def __repr__(self):
        return "ExactField()"


class NumericField:
    """Same protocol over Python floats or complex numbers at a fixed q0.

    At a real q0 (``q0.imag == 0``) every value the field hands out is a
    float, and otherwise a complex number.  A float value is the real part
    of the value computed in complex arithmetic: with an imaginary part of
    exactly +-0, the real part of a complex ``*``, ``+``, ``-``, ``/`` or
    ``abs`` is the float operation itself.  So finite results agree bit for
    bit, except for the sign of a zero (the complex real part
    a.r*b.r - a.i*b.i turns -0.0 - -0.0 into 0.0), which changes no nonzero
    result and no zero test.  After an overflow the complex run's imaginary
    part becomes NaN and spreads to the real part, where a float keeps its
    infinity; neither is zero.  Floats are cheaper, since CPython
    specializes float arithmetic and not complex.

    The sign of a zero part is immaterial throughout: no branch cut and no
    zero test of the package reads it, and reports print none
    (``spectra._scalar_out``).  So matrix sums run the accumulator pass of
    ``linmat.combine``, (0 + a) +- b with 0 this field's zero, which is
    a +- b bit for bit on floats but turns the -0.0 parts of a complex a
    into 0.0.

    q0 must be finite and stay away from 0 and from roots of unity of order
    <= 48 (the q-integers appearing in any supported window must not
    vanish); tol must be finite and non-negative.
    """

    exact = False
    name = "numeric"

    def __init__(self, q0: complex = DEFAULT_Q0, tol: float = 1e-9):
        q0 = complex(q0)
        if not (math.isfinite(q0.real) and math.isfinite(q0.imag)):
            raise EvaluationError(f"q0 = {q0} is not finite")
        if q0 == 0:
            raise EvaluationError("q0 = 0 is outside the torus")
        if not (math.isfinite(tol) and tol >= 0):
            raise DomainError(f"tol = {tol} must be finite and non-negative")
        w = q0
        for k in range(1, 49):
            if abs(w - 1.0) < 1e-8:
                raise EvaluationError(
                    f"q0 = {q0} is within 1e-8 of a root of unity (order {k})"
                )
            w *= q0
        self.q0 = q0
        self.tol = tol
        self._real = q0.imag == 0
        self.zero = self._out(0j)
        self.one = self._out(1 + 0j)
        self.q = self._out(q0)

    def _out(self, z: complex) -> float | complex:
        """z as the field hands it out: its real part at a real q0."""
        return z.real if self._real else z

    def from_int(self, n: int) -> float | complex:
        return self._out(complex(n))

    def from_fraction(self, p: int, r: int) -> float | complex:
        return self._out(complex(p) / complex(r))

    def from_scalar(self, s: Scalar) -> float | complex:
        return self._out(specialize(s, self.q0))

    def qint(self, k: int) -> float | complex:
        if k == 0:
            return self.zero
        return self._out((self.q0**k - self.q0**-k) / (self.q0 - 1 / self.q0))

    def is_zero(self, x, scale=1.0) -> bool:
        return abs(x) <= self.tol * max(1.0, scale)

    def eq(self, a, b) -> bool:
        return self.is_zero(a - b, scale=max(abs(a), abs(b)))

    def __repr__(self):
        return f"NumericField(q0={self.q0}, tol={self.tol})"
