"""Integer-polynomial kernel.

A polynomial in q with integer coefficients is a list of Python ints in
ascending degree order with no trailing zeros; the zero polynomial is the
empty list [].  Nothing here knows about fractions, matrices or q-numbers:
these are the primitive coefficient-list operations that everything in the
exact scalar field reduces to.

Multiplication: pmul(a, b) runs the schoolbook loop unless both operands
have at least _KRONECKER_MIN = 16 coefficients.  Then it uses Kronecker
substitution: each operand is packed into one Python int, a byte-aligned
slot per coefficient, wide enough for every product coefficient plus half
a slot of offset; the two ints are multiplied once (Python's big-integer
product is subquadratic) and the slots are read back through to_bytes.
Both paths return the same coefficient list.

Division conventions:

* pdiv_exact(a, b) performs the division a / b in ZZ[q] and raises if the
  quotient does not exist with integer coefficients (it is used only where
  Gauss's lemma guarantees exactness).
* prem(a, b) is the pseudo-remainder: lc(b)^(deg a - deg b + 1) * a  mod  b,
  computed entirely over ZZ.
* pgcd(a, b) is the full ZZ[q] gcd (content included), normalised to a
  positive leading coefficient.  When one operand is a monomial c*q^k the
  gcd is gcd(c, content(other)) * q^min(k, val(other)), where val is the
  q-adic valuation (lowest degree with a nonzero coefficient); otherwise it
  is computed with a primitive pseudo-remainder sequence.
"""

from math import gcd as _igcd

KERNEL_NAME = "pure-python"

__all__ = [
    "pnorm",
    "padd",
    "psub",
    "pneg",
    "pmul",
    "pmul_int",
    "pshift",
    "pcontent",
    "pprim",
    "pdiv_exact",
    "prem",
    "pgcd",
]


def pnorm(a):
    """Strip trailing zero coefficients (in place) and return the list."""
    while a and a[-1] == 0:
        a.pop()
    return a


def padd(a, b):
    if len(a) < len(b):
        a, b = b, a
    out = list(a)
    for i, c in enumerate(b):
        out[i] += c
    return pnorm(out)


def psub(a, b):
    out = list(a) + [0] * (len(b) - len(a))
    for i, c in enumerate(b):
        out[i] -= c
    return pnorm(out)


def pneg(a):
    return [-c for c in a]


# Both operands need at least this many coefficients for pmul to take the
# Kronecker path; shorter products stay on the schoolbook loop.  The packing
# costs a few microseconds whatever the size, so the loop wins on short
# operands and on sparse ones, whose zero coefficients it skips: dense
# operands with coefficients of up to 40 bits break even at 10 to 12
# coefficients, and the sparse products of tensor modules lose on the
# Kronecker path at every length they reach (up to 27).
_KRONECKER_MIN = 16


def pmul(a, b):
    if not a or not b:
        return []
    if len(a) >= _KRONECKER_MIN and len(b) >= _KRONECKER_MIN:
        return _kronecker_mul(a, b)
    out = [0] * (len(a) + len(b) - 1)
    for i, ca in enumerate(a):
        if ca:
            for j, cb in enumerate(b):
                out[i + j] += ca * cb
    return pnorm(out)


def _kronecker_mul(a, b):
    """pmul by Kronecker substitution: evaluate both operands at q = 2^s,
    multiply the two integers once, and read the product's coefficients
    back as base-2^s digits.

    A slot of s bits, a whole number of bytes, holds any product
    coefficient c, since |c| <= min(len) * max|a| * max|b| < 2^(s-1).  Adding
    2^(s-1) to every digit makes all of them nonnegative, so each slot of
    the byte string is one coefficient plus that offset, with no borrows.
    """
    bits = (max(map(abs, a)).bit_length() + max(map(abs, b)).bit_length()
            + min(len(a), len(b)).bit_length() + 1)
    width = (bits + 7) // 8
    s = 8 * width
    n = len(a) + len(b) - 1
    x = _kronecker_pack(a, s) * _kronecker_pack(b, s)
    x += int.from_bytes((bytes(width - 1) + b"\x80") * n, "little")
    buf = x.to_bytes(n * width, "little")
    half = 1 << (s - 1)
    out = [int.from_bytes(buf[i:i + width], "little") - half
           for i in range(0, n * width, width)]
    return pnorm(out)


def _kronecker_pack(a, s):
    """The value of a at q = 2^s (Horner)."""
    x = 0
    for c in reversed(a):
        x = (x << s) + c
    return x


def pmul_int(a, k):
    if k == 0:
        return []
    return [c * k for c in a]


def pshift(a, k):
    """Multiply by q^k, k >= 0."""
    if not a:
        return []
    return [0] * k + list(a)


def pcontent(a):
    """gcd of the coefficients (nonnegative; 0 for the zero polynomial)."""
    g = 0
    for c in a:
        g = _igcd(g, c)
        if g == 1:
            return 1
    return g


def pprim(a):
    """Return (content, primitive part); the primitive part keeps the sign
    of the leading coefficient, the content is nonnegative."""
    c = pcontent(a)
    if c in (0, 1):
        return c, list(a)
    return c, [x // c for x in a]


def pdiv_exact(a, b):
    """Exact division in ZZ[q]; raises ValueError if b does not divide a."""
    if not b:
        raise ValueError("division by zero polynomial")
    if not a:
        return []
    r = list(a)
    db, lb = len(b) - 1, b[-1]
    dq = len(a) - 1 - db
    if dq < 0:
        raise ValueError("inexact polynomial division")
    quo = [0] * (dq + 1)
    for k in range(dq, -1, -1):
        c = r[k + db]
        if c:
            cq, rem = divmod(c, lb)
            if rem:
                raise ValueError("inexact polynomial division")
            quo[k] = cq
            for j in range(db + 1):
                r[k + j] -= cq * b[j]
    if any(r):
        raise ValueError("inexact polynomial division")
    return pnorm(quo)


def prem(a, b):
    """Pseudo-remainder of a by b over ZZ: lc(b)^(deg a - deg b + 1) * a mod b."""
    if not b:
        raise ValueError("pseudo-remainder by zero polynomial")
    da, db = len(a) - 1, len(b) - 1
    if da < db:
        return list(a)
    lb = b[-1]
    r = list(a)
    e = da - db + 1
    while r and len(r) - 1 >= db:
        d = len(r) - 1 - db
        lr = r[-1]
        r = psub(pmul_int(r, lb), pshift(pmul_int(b, lr), d))
        e -= 1
    if e > 0 and r:
        r = pmul_int(r, lb**e)
    return r


def pgcd(a, b):
    """gcd in ZZ[q] (content included), positive leading coefficient."""
    if not a:
        return _posnorm(list(b))
    if not b:
        return _posnorm(list(a))
    if not any(a[:-1]):
        return _monomial_gcd(a, b)
    if not any(b[:-1]):
        return _monomial_gcd(b, a)
    ca, pa = pprim(a)
    cb, pb = pprim(b)
    cg = _igcd(ca, cb)
    # primitive pseudo-remainder sequence
    if len(pa) < len(pb):
        pa, pb = pb, pa
    while pb:
        _, r = pprim(prem(pa, pb))
        pa, pb = pb, r
    g = _posnorm(pa)
    return pmul_int(g, cg) if cg != 1 else g


def _monomial_gcd(m, b):
    """gcd of the monomial m = c*q^k with a nonzero b: the integer gcd of c
    and the coefficients of b, times q to the lower of k and val(b)."""
    v = 0
    while not b[v]:
        v += 1
    return [0] * min(len(m) - 1, v) + [_igcd(m[-1], *b)]


def _posnorm(a):
    if a and a[-1] < 0:
        return pneg(a)
    return a
