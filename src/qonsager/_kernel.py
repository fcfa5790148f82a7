"""Integer-polynomial kernel.

A polynomial in q with integer coefficients is a list of Python ints in
ascending degree order with no trailing zeros; the zero polynomial is the
empty list [].  Nothing here knows about fractions, matrices or q-numbers:
these are the primitive coefficient-list operations that everything in the
exact scalar field reduces to.

Integer images.  Evaluation at q = 2^s is a ring homomorphism from ZZ[q]
to ZZ, so the expensive operations run on one Python int per polynomial
and decode only their results.  _pack writes each coefficient plus half a
slot into a byte-aligned slot of s = 8w bits and reads the slots as one
integer; _unpack reads an integer back as its balanced base-2^s digits,
each in [-2^(s-1), 2^(s-1)).  On a little-endian host a slot of 1, 2, 4
or 8 bytes is an item of an array.array, so both convert all slots in C;
other widths take one to_bytes or from_bytes per slot.  Packing needs
every coefficient in that digit range, and a decoded result is exact only
when its true coefficients lie in it: each caller picks s from a bound on
them, or proves the result afterwards.  Slots always hold both operands'
coefficients, so a nonzero operand never packs to 0.

Multiplication: when one operand of pmul(a, b) is a monomial c*q^k, the
product is the other operand shifted by k and scaled by c, with no loop
over pairs of coefficients (most products of the tensor modules have such
an operand).  Otherwise pmul multiplies by Kronecker substitution, one
big-integer product of the images (subquadratic in CPython), when both
operands have at least _KRONECKER_MIN = 16 coefficients, and by the
schoolbook loop below that.  Every path returns the same coefficient list,
a fresh one that shares no list with either operand.

Linear systems: _bareiss_solve runs fraction-free Gaussian elimination
over ZZ[q] (Bareiss's forward elimination, then fraction-free back
substitution) on the images of the entries, in slots above the Hadamard
bound of the system's minors, and decodes only the solution.

Division conventions:

* pdiv_exact(a, b) performs the division a / b in ZZ[q] by the schoolbook
  loop and raises ValueError if the quotient does not exist with integer
  coefficients (it is used only where Gauss's lemma guarantees exactness,
  and by the heuristic gcd when a quotient of images is too wide to
  prove itself).
* prem(a, b) is the pseudo-remainder: lc(b)^(deg a - deg b + 1) * a  mod  b,
  computed entirely over ZZ.
* pgcd(a, b) is the full ZZ[q] gcd (content included), normalised to a
  positive leading coefficient.  When one operand is a monomial c*q^k the
  gcd is gcd(c, content(other)) * q^min(k, val(other)), where val is the
  q-adic valuation (lowest degree with a nonzero coefficient).  Otherwise,
  when an operand has at least 16 coefficients, the primitive parts go to
  the heuristic gcd (GCDHEU: the integer gcd of the images, lifted in
  balanced digits and accepted only if it divides both, which the
  quotients of the images prove when they are narrow enough); shorter
  operands, and any pair the heuristic fails on at three points, go to
  the primitive pseudo-remainder sequence.  The gcd is unique up to sign,
  so both give the same result.
* _gcd_cofactors(a, b) is (pgcd(a, b), a / g, b / g), for the callers that
  divide by the gcd next: the heuristic gcd returns the quotients of the
  divisions that proved it, and a monomial gcd divides by a shift.  Both
  entry points run one gcd body, _gcd, which hands back the quotients
  only where it has them; pgcd drops them.
"""

import sys
from array import array
from itertools import repeat
from math import gcd as _igcd
from operator import add, sub

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


# Both operands need at least _KRONECKER_MIN coefficients, and neither may
# be a monomial (a shift and a scale, cheaper than either product), for
# pmul to take the Kronecker path.  Per-call timings on random dense
# operands, schoolbook over Kronecker: 6-bit 12x12 0.9, 16x16 1.2, 32x32
# 3.4, 16x200 2.3; 40-bit 12x12 1.0, 16x16 1.5, 8x64 2.0, 16x200 2.7.
# Packing costs a few microseconds whatever the size, so the loop wins on
# short operands and on sparse ones, whose zero coefficients it skips: the
# sparse products of tensor modules lose on the Kronecker path at every
# length they reach (up to 27).  Wide coefficients move the break-even
# only a little (200-bit 16x16 0.9, 20x20 1.1, 16x200 1.2;
# 1000-bit 0.8 to 1.1 from 16x16 to 28x28, where the big-integer products
# dominate either way), and no workload has coefficients above 40 bits, so
# the cutoff looks at lengths alone.
_KRONECKER_MIN = 16


def pmul(a, b):
    if not a or not b:
        return []
    # a monomial c*q^k (every coefficient below the top one zero) times the
    # other operand is a shift and a scale
    k = len(a) - 1
    if a[k] and a.count(0) == k:
        return _shift_scale(b, k, a[k])
    k = len(b) - 1
    if b[k] and b.count(0) == k:
        return _shift_scale(a, k, b[k])
    if len(a) >= _KRONECKER_MIN and len(b) >= _KRONECKER_MIN:
        # Kronecker substitution: one product of the images at q = 2^s,
        # read back in balanced digits; every product coefficient c has
        # |c| <= n * max|a| * max|b| < 2^(s-1)
        n = min(len(a), len(b))
        w = _width(_bits(a) + _bits(b) + n.bit_length() + 1)
        return _unpack(_pack(a, w) * _pack(b, w), w)
    out = [0] * (len(a) + len(b) - 1)
    for i, ca in enumerate(a):
        if ca:
            for j, cb in enumerate(b):
                out[i + j] += ca * cb
    return pnorm(out)


def _shift_scale(a, k, c):
    """c * q^k * a for a nonzero c, as a fresh list without trailing
    zeros."""
    out = [0] * k
    if c == 1:
        out += a
    elif c == -1:
        out += [-x for x in a]
    else:
        out += [c * x for x in a]
    return pnorm(out)


def _bits(a):
    """Bit length of the largest coefficient of a nonzero a."""
    return max(map(abs, a)).bit_length()


def _width(bits):
    """Bytes per slot for a slot of at least the given number of bits."""
    return (bits + 7) // 8


def _offset(n, w):
    """Half a slot, 2^(8w-1), in each of n slots of w bytes."""
    return int.from_bytes((bytes(w - 1) + b"\x80") * n, "little")


# array typecodes by item size in bytes, for the slot widths an array can
# hold; on a little-endian host the buffer of such an array is the byte
# string of its slots, and elsewhere every width takes the to_bytes loop.
# On every benchmark workload more than 99% of the packs and unpacks are at
# these widths.  Measured against the loop alone (_ARRAY = {}), medians of
# 10 alternating runs on a 2-vCPU virtual machine under Python 3.11:
# rank1-shift-T13 verdicts 0.112 -> 0.098 s, tensor16-A3 0.150 -> 0.147 s;
# loading the array extension adds up to 0.3 MB to the peak RSS.
_ARRAY = ({array(t).itemsize: t for t in "QLIHB"}
          if sys.byteorder == "little" else {})


def _pack(a, w):
    """The value of a at q = 2^(8w), for coefficients in [-2^(8w-1),
    2^(8w-1)).  Each coefficient plus half a slot fills one slot of the
    byte string, nonnegative and without carries, and the offset is taken
    off the whole integer once."""
    half = 1 << (8 * w - 1)
    t = _ARRAY.get(w)
    if t:
        buf = array(t, map(add, a, repeat(half)))
    else:
        buf = b"".join([(c + half).to_bytes(w, "little") for c in a])
    return int.from_bytes(buf, "little") - _offset(len(a), w)


def _unpack(x, w):
    """The polynomial whose coefficients are the balanced base-2^s digits
    of x, s = 8w, each in [-2^(s-1), 2^(s-1)): the inverse of _pack for
    coefficients in that range.  Every integer has exactly one such digit
    string.  n digits reach up to only (2^(s-1) - 1)(2^(ns) - 1)/(2^s - 1),
    just under 2^(ns-1), so an x just below 2^bitlen(x) can need one digit
    more than bitlen(x) // s + 1 (its digits end in -2^(s-1) under a top 1):
    n = bitlen(x) // s + 2 are always enough, and pnorm strips the extra
    zero."""
    s = 8 * w
    n = abs(x).bit_length() // s + 2
    half = 1 << (s - 1)
    buf = (x + _offset(n, w)).to_bytes(n * w, "little")
    t = _ARRAY.get(w)
    if t:
        return pnorm(list(map(sub, array(t, buf), repeat(half))))
    return pnorm([int.from_bytes(buf[i:i + w], "little") - half
                  for i in range(0, n * w, w)])


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
    return _gcd(a, b)[0]


def _gcd_cofactors(a, b):
    """(g, a/g, b/g) for g = pgcd(a, b) and a, b not both zero, for callers
    that divide by the gcd next: the heuristic gcd hands over the
    quotients its proof computed, and a monomial gcd divides by a shift
    and an integer division."""
    g, qa, qb = _gcd(a, b)
    if qa is None:
        if any(g[:-1]):
            return g, pdiv_exact(a, g), pdiv_exact(b, g)
        return g, _monomial_quotient(a, g), _monomial_quotient(b, g)
    return g, qa, qb


def _gcd(a, b):
    """(g, a/g, b/g) for g = pgcd(a, b), the quotients None where finding g
    did not compute them: the one gcd body behind pgcd and
    _gcd_cofactors."""
    if not a or not b:
        g = _posnorm(list(a or b))
        unit = [1] if g == (a or b) else [-1]
        return g, (unit if a else []), (unit if b else [])
    if not any(a[:-1]):
        return _monomial_gcd(a, b), None, None
    if not any(b[:-1]):
        return _monomial_gcd(b, a), None, None
    ca, pa = pprim(a)
    cb, pb = pprim(b)
    cg = _igcd(ca, cb)
    r = None
    if len(pa) >= _HEU_MIN or len(pb) >= _HEU_MIN:
        r = _heuristic_gcd(pa, pb)
    if r is None:
        g = _prs_gcd(pa, pb)
        return (pmul_int(g, cg) if cg != 1 else g), None, None
    g, qa, qb = r
    fa, fb = ca // cg, cb // cg
    return (pmul_int(g, cg) if cg != 1 else g,
            pmul_int(qa, fa) if fa != 1 else qa,
            pmul_int(qb, fb) if fb != 1 else qb)


def _monomial_quotient(a, g):
    """a / g for a monomial g = c*q^v that divides a."""
    v, c = len(g) - 1, g[-1]
    return a[v:] if c == 1 else [x // c for x in a[v:]]


# pgcd tries the heuristic when an operand has at least _HEU_MIN
# coefficients, at up to _HEU_POINTS evaluation points, before the
# pseudo-remainder sequence.  The heuristic costs 10 to 40 us at any size:
# a few packs, one integer gcd and, when the gcd is nontrivial, one
# division of images per operand; the sequence costs about len(a)^2 steps
# for its first pseudo-remainder alone, but stops after one when one
# operand divides the other.  Timed on every non-monomial gcd of two
# verdicts, one per variant (seconds, least of 25 replays on a 2-vCPU
# virtual machine under Python 3.11; heuristic throughout / sequence
# throughout / heuristic from 16): rank1-shift-T13, 786 calls,
# 0.025 / 0.120 / 0.027; tensor16-A3, 618 calls, sparse and mostly with a
# nontrivial gcd, 0.007 / 0.007 / 0.007.
_HEU_MIN = 16
_HEU_POINTS = 3


def _heuristic_gcd(a, b):
    """GCDHEU (Char, Geddes and Gonnet, J. Symb. Comp. 1989) for primitive
    a, b: (g, a/g, b/g), g the gcd with positive leading coefficient, or
    None.  The quotients are those that prove g.

    At xi = 2^s > 2 * min(max|a|, max|b|) + 1, let h be the balanced
    base-xi digits of the integer gcd of a(xi) and b(xi).  If pp(h)
    divides both a and b it is their gcd: it divides the gcd g = pp(h)*k,
    and k(xi) divides the content of h, which is at most xi/2, while a
    nonconstant k has |k(xi)| > xi/2 because its roots are roots of a and
    of b, below xi/2 in modulus.  The slots must hold both operands'
    coefficients, so s starts above the larger norm; each further point
    widens the slot by a byte.  The cofactors come from the images
    (_image_quotient): x = gcd(a(xi), b(xi)) is positive, so the top digit
    of h is positive (balanced digits carry the sign of their value), and
    pp(h)(xi) = x / content(h) divides both a(xi) and b(xi).
    """
    w0 = _width(max(_bits(a), _bits(b)) + 1)
    for w in range(w0, w0 + _HEU_POINTS):
        va, vb = _pack(a, w), _pack(b, w)
        x = _igcd(va, vb)
        c, g = pprim(_unpack(x, w))
        if g == [1]:
            return g, a, b
        vg, norms = x // c, (sum(map(abs, g)), max(map(abs, g)))
        qa = _image_quotient(a, va // vg, g, norms, w)
        if qa is not None:
            qb = _image_quotient(b, vb // vg, g, norms, w)
            if qb is not None:
                return g, qa, qb
    return None


def _image_quotient(a, qv, g, norms, w):
    """a / g, or None when g does not divide a, for qv = a(xi) / g(xi), an
    integer, at xi = 2^(8w), a's coefficients below xi/2 in absolute value
    and norms = (|g|_1, |g|_inf): the quotient of the images when it
    proves itself (_proved_quotient), and pdiv_exact's verdict when it is
    too wide to."""
    u = _proved_quotient(qv, norms, w)
    if u is not None:
        return u
    try:
        return pdiv_exact(a, g)
    except ValueError:
        return None


def _proved_quotient(qv, norms, w):
    """u = a / g in ZZ[q], or None when the images do not prove it, for a
    nonzero qv = a(xi) / g(xi), an integer, at xi = 2^(8w), a's
    coefficients below xi/2 in absolute value and norms = (|g|_1,
    |g|_inf).

    Let u be the balanced digits of qv.  Each coefficient of g*u is at
    most both |g|_1 |u|_inf and |g|_inf |u|_1 in absolute value.  When the
    smaller is below xi/2, g*u and a are both the balanced digits of
    g(xi)*u(xi) = a(xi), and g*u = a in ZZ[q].  A wider u proves nothing."""
    u = _unpack(qv, w)
    g1, gmax = norms
    half = 1 << (8 * w - 1)
    if g1 * max(map(abs, u)) < half or gmax * sum(map(abs, u)) < half:
        return u
    return None


def _prs_gcd(a, b):
    """gcd of primitive a, b by the primitive pseudo-remainder sequence,
    positive leading coefficient."""
    if len(a) < len(b):
        a, b = b, a
    while b:
        _, r = pprim(prem(a, b))
        a, b = b, r
    return _posnorm(a)


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


def _bareiss_solve(rows, n):
    """Fraction-free Gaussian elimination over ZZ[q], run on integer
    images: Bareiss's forward elimination with exact division (Math. Comp.
    22, 1968), then fraction-free back substitution (Nakos, Turner and
    Williams, 1997).  rows are m augmented rows of n + 1 integer
    polynomials, the last entry of each the right-hand side.  Returns None
    when the system is inconsistent, else a (c, num, den) triple per pivot
    column c: the solution sets x[c] = num / den and every free unknown to
    0, and den is the same d for every c, the determinant of the pivot
    rows and columns (the last pivot).

    The pivot is the first nonzero entry of its column at or below the
    pivot row.  Every row below becomes (p*row - f*pivot row) / prev in
    the columns after the pivot, where p is the pivot, f the row's entry
    in the pivot column and prev the previous pivot; by Sylvester's
    identity each entry is then a minor of the augmented matrix, so the
    division is exact and the elimination takes no gcd.  Back substitution
    runs up the pivot rows U: y_i = (d*b_i - sum_{j>i} U_ij*y_j) / U_ii,
    with j over the pivot columns.  Each division is exact, because
    y_i = d*x[c_i] is the Cramer numerator of x[c_i], itself a minor of
    the augmented matrix.

    The elimination runs on the values of the entries at q = 2^s, since
    evaluation is a ring homomorphism.  On |q| = 1 each entry is at most
    its 1-norm, so by Hadamard's inequality every minor, and with it each
    of its coefficients, is at most H = prod over rows of
    max(1, sqrt(sum_j |a_ij|_1^2)).  With 2^(s-1) > H a nonzero minor never
    evaluates to 0, so the pivot and consistency tests are those over
    ZZ[q], and d and the y_i decode exactly from their balanced base-2^s
    digits.
    """
    m = len(rows)
    h2 = 1
    for row in rows:
        h2 *= max(1, sum(sum(map(abs, x)) ** 2 for x in row))
    # 2^(s-1) > sqrt(h2) = H
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
        tail = top[c + 1:]
        for i in range(r + 1, m):
            row = a[i]
            f = row[c]
            row[c + 1:] = [(p * x - f * y) // prev
                           for x, y in zip(row[c + 1:], tail)]
        prev = p
        piv_cols.append(c)
        r += 1
    # consistency: zero rows must have zero rhs
    if any(a[i][n] for i in range(r, m)):
        return None
    d = prev
    y = [0] * r
    for i in range(r - 1, -1, -1):
        row = a[i]
        t = d * row[n]
        for j in range(i + 1, r):
            t -= row[piv_cols[j]] * y[j]
        y[i] = t // row[piv_cols[i]]
    den = _unpack(d, w)
    return [(c, _unpack(yc, w), list(den)) for c, yc in zip(piv_cols, y)]
