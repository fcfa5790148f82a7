"""Matrices over the exact or numeric coefficient field, plus the grading
bookkeeping every certification suite leans on.

A Matrix is an n x m array over a field backend (see qonsager.scalars);
all binary operations assume both operands live over the same backend,
and the entrywise ones (``+``, ``-``, ``relation``) refuse operands of
different shapes, as the product does.  The product is written either
``A @ B`` or ``A * B``; ``c * A`` with a scalar-like ``c`` scales
entrywise.  ``combine`` evaluates a linear combination of matrices and
products, sum_k c_k M_k + sum_k c_k X_k Y_k, the form of every tower step
and relation side of the package, and ``relation`` judges an identity
between two such combinations: it is the one judge of every relation the
certification suites check, on both backends.

Both backends hold a matrix in one store, a dict of rows: row i maps to
the dict {j: v_ij} of its nonzero entries, a row without one is absent,
and no stored value is zero.  Every operation drops the entries that
cancel, so the zero matrix stores nothing, and every operation walks the
stored rows only: with nz(M) the nonzero entries of M, each costs
O(nonzeros), never O(n m).  The row-walking is shared: a product is
Gustavson's row-sparse product (ACM TOMS 4(3), 1978), in which each stored
row of A meets the stored rows of B its entries select, and a sum is its
two-term pass; negation, the transpose and degree components move or
negate stored values; the Kronecker product is O(nz(A) nz(B)), the size
of its result.  What a stored value is, and its arithmetic, belong to the
backend.

Exact matrices store integer images.  A matrix of Scalars keeps a shift K
>= 0, a denominator D in ZZ[q] (positive leading coefficient, D(0) != 0),
a slot width s = 8w bits and a height bound h, and stores each nonzero
entry (i, j) as the integer P_ij(2^s), where P_ij = D q^K x_ij is a
polynomial in ZZ[q] packed by ``_kernel._pack``, and h bounds the 1-norm
of every P_ij.  While h < 2^(s-1) every coefficient of every P_ij lies in
[-2^(s-1), 2^(s-1)), so P_ij is the balanced base-2^s digit string of its
image: it decodes exactly with ``_kernel._unpack``, and an image is 0
exactly when its entry is.  Evaluation at 2^s is a ring homomorphism, so
each operation runs on the images, entry by entry one big-integer
operation (Kronecker substitution; Harvey, J. Symb. Comp. 44, 2009), and
bounds the height of its result from those of its operands, as GCDHEU
bounds its digits (Char, Geddes and Gonnet, 1989):

* ``combine`` sums its terms in one row pass of Gustavson's loop, every
  term adding into one dict per result row.  A term is over d q^k, d the
  product of its matrices' denominators and of the part of its
  coefficient's that is prime to q, and the pass runs over the lcm D of
  the terms' d, found with one gcd per distinct d after the first, and
  over no lcm when they share one d.  A product term adds (a v) b, one
  big-integer product per pair of nonzero entries that meet, and a
  matrix term adds a v, where v folds the term's sign, the image of its
  coefficient's numerator, that of its cofactor D/d and q to the shift
  it lacks against the largest, as the numeric pass folds a coefficient
  into its left entries.  The result's height is at most the sum of the
  terms' bounds, r h_X h_Y ||n||_1 ||D/d||_1 for a product (r the
  longest stored row of X) and h_M ||n||_1 ||D/d||_1 for a matrix, and
  the operands share a slot width that holds it.  No product, scaled
  term or partial sum is built, and the result is taken to lower terms
  once (below).  A product is the one-product pass, a sum or difference,
  O(nz(A) + nz(B)), the two-term pass, and scaling by c the one-term
  pass, O(nz(A)); products and scalings are not taken to lower terms;
* ``is_zero`` is O(1): an exact matrix is zero when it stores no row;
* ``relation`` adds one side and the negated other in one ``combine``
  pass, not taken to lower terms.  The relation holds exactly when that
  stores no row; otherwise its first stored entry in row-major order,
  decoded, is the witness: the first entry where the sides differ, and
  their difference there.  Neither side is built on either outcome, and
  ``==`` is the same pass over two one-matrix terms.

An operation whose height bound would reach 2^(s-1) first re-encodes its
operands, O(nz) each: it decodes them, takes their heights down to the
exact largest 1-norm and, if the bound still reaches the slot, packs them
in wider slots.  Their values do not change, so this is done in place.  A
row pass also takes out the power of q that all its entries share, so
that the shift of a tower of products does not grow with each factor.

The stored form is not canonical, since P_ij and D q^K may share factors:
a product multiplies the denominators, a scaling multiplies D by the
part of the scalar's prime to q, keeping any factor that D shares with
the scalar's numerator, and the factors the numerators share pile up.
Sums and combinations, of which towers are built, take their result to
lower terms with one integer gcd, as GCDHEU finds a polynomial gcd: x =
gcd(D(2^s), every image), and the primitive part g of x's balanced digits
is the candidate.  While D's 1-norm is below half a slot, each quotient of
an image by g(2^s) proves itself the image of a polynomial quotient by the
no-carry bound of the kernel's heuristic gcd, and the result stores these
quotients over D/g, at their exact largest 1-norm.  Where x finds no
factor of positive degree, or the bound proves none, the result keeps its
form; either form decodes to the same entries.  It costs one pass of C
gcds over the images, plus one division and one unpack per entry when a
factor is found.  Products and scalings are not reduced: their operands
are, and their results feed the sums that are.  Construction coerces ints
and Fractions to Scalars and refuses any other entry.

Numeric matrices store their entries as they are: Python floats at a real
q0 and complex numbers otherwise (see ``scalars.NumericField``); no
operation here looks at which.  Two invariants hold: no stored value is
zero (neither 0.0 nor -0.0, nor a complex zero of any signs), and the
keys of every row ascend.  A zero entry therefore reads as the field's
zero, never as -0.0.  Every result is the dense entry loop's on the
entries as read, bit for bit, a zero result reading as the field's zero,
save the sign of a complex zero part in a sum (below):

* a product sums each row into a dense accumulator that starts at the
  field's zero and adds a*b in ascending inner index, as the dense
  inner-product loop does, and keeps its nonzero entries.  It is the
  one-product case of ``combine``, whose numeric pass is the only numeric
  product: every term of a combination adds into the same accumulator
  row, a product term's coefficient and sign folded into its left entry
  (acc[j] += (c x) y) and a matrix term adding c x, and each row becomes a
  dict once.  Level-3 BLAS fuses C <- alpha AB + beta C into its product
  the same way (Dongarra, Du Croz, Hammarling and Duff, ACM TOMS 16(1),
  1990), so a combination builds no product, scaled term or partial sum.
  A combination rounds as its own pass does, not as the chain of ``@``,
  ``scale`` and ``+`` it stands for;
* ``+`` and ``-`` are the two-term pass of ``combine``, O(m) a stored
  row: an entry is (0 + a) + b or (0 + a) - b, 0 the field's zero and an
  unstored entry adding nothing.  On floats that is a + b (a - b) bit for
  bit; on complex entries 0 + a turns the -0.0 parts of a into 0.0, a sign
  no branch cut or zero test of the package reads (``scalars.NumericField``);
* an unstored entry is an exact zero: a scalar or a Kronecker factor
  that is inf or NaN leaves it 0.

Canonical entries appear only when they are read: ``rows`` decodes a dense
view of the whole matrix on its first read and keeps it, on both
backends; ``nonzero_entries`` decodes only the stored values, and a failed
exact ``relation`` decodes the one entry its witness names.  The decoded
rows refuse writes, which would miss the store: build a list of rows and
construct a Matrix from it.  An operation never writes into a store it did not build,
so results may share rows with their operands.

A Grading assigns every basis index an integer degree *vector*; a module
over the affine A_N diagram is graded in simple-root coordinates (length N,
top degree 0, weights descending), and a tensor product of modules adds the
degrees of its factors.  degree_components splits an operator by the
shift vector (row degree minus column degree) into a plain dict, taking
each shift once per pair of distinct degrees met.

serre_sides gives the two sides of a Serre-type relation written as a
nested q-bracket, as ``combine`` terms for ``relation``: the one form of
both Serre-type suites.

ProductMemo computes each product A @ B (and each q-bracket) once while it
lives, for the relation suites, which multiply the same stored matrices
again and again.  It keys on operand identity, never on entries, and keeps
a reference to every operand it has cached, so an id cannot be reused by a
new object while its entry is alive.  A memo is scoped by its caller to the
stretch of a relation suite in which its products recur, and dropped with
it: there is no global cache, and Matrix carries no cache field.  A cached
result is the same object on every hit, so callers must not mutate it.

One numeric zero rule serves the whole package, and only this module
applies it: a numeric matrix vanishes when every entry is within the
backend tolerance of zero at the scale of the matrices it came from (their
largest entry, and never below 1).  The rule bounds |entry|, so one
``field.is_zero`` call on the largest |entry|, taken in one C-level pass,
decides it for a whole matrix or degree component, and a NaN entry is
never zero.  No tolerance holds at an infinite or NaN scale: there
nothing is zero.  ``relation`` judges a numeric relation by ``_meq`` of
its two sides, built by ``combine``: A = B at the scale of A and B from
the largest entry of A - B, so a matrix with a NaN or infinite entry
equals no matrix.  The scale is taken over the entries of both sides in
one pass, so a NaN on either side makes it NaN whatever the order of A
and B, and the witness names a non-finite residual before any finite
one.  A numeric relation is compared at the scale of its two sides,
never by testing a difference against a zero matrix, whose scale would
be lost; an exact one is the zero test of lhs - rhs, which is exact.
degree_components keeps a degree component only when it is nonzero at
the scale of the operator it splits, and is exact over Q(q).

The module is plain Python over both backends (numeric entries are Python
floats at a real q0 and complex numbers otherwise) and imports no numeric
library: there is no eigenvector or root solver here, and exact runs never
leave Q(q).
"""

from __future__ import annotations

from functools import partial, reduce
from itertools import chain, compress, repeat
from math import gcd, inf, isfinite
from operator import attrgetter, mul, neg, or_

from ._kernel import _gcd_cofactors, _pack, _proved_quotient, _unpack, _width, pmul, pprim
from .errors import DomainError
from .scalars import Scalar, _coerce, _laurent

__all__ = [
    "Matrix",
    "Grading",
    "ProductMemo",
    "combine",
    "relation",
    "qbracket",
    "commutator",
    "serre_sides",
    "degree_components",
]


# Bytes per slot of a freshly encoded matrix (s = 32 bits).
_W0 = 4
_ONE = [1]
_slot = attrgetter("_w")


class Matrix:
    __slots__ = ("n", "m", "field", "_rows", "_nz", "_k", "_d", "_w", "_h")

    def __init__(self, rows, field):
        rows = [list(r) for r in rows]
        m = len(rows[0]) if rows else 0
        if any(len(r) != m for r in rows):
            raise DomainError("ragged matrix rows")
        self._store(rows, field)

    def _store(self, rows, field):
        """Hold the nonzero entries of rows: a numeric matrix's as they
        are, an exact one's as images, each coerced to a Scalar."""
        self.n = len(rows)
        self.m = len(rows[0]) if rows else 0
        self.field = field
        self._rows = None
        if not field.exact:
            nz = {}
            for i, r in enumerate(rows):
                row = {j: x for j, x in enumerate(r) if x}
                if row:
                    nz[i] = row
            self._nz, self._k, self._d, self._w, self._h = nz, 0, _ONE, _W0, 0
            return
        k = 0
        parts = {}
        coerced = False
        for x in chain.from_iterable(rows):
            if type(x) is not Scalar:
                x = _scalar(x)
                coerced = True
            e = x._k
            if e < 0:
                e, dp = _split(x.den)
                parts[tuple(dp)] = dp
            if e > k:
                k = e
        if coerced:
            rows = [[_scalar(x) for x in r] for r in rows]
        if parts:
            # D = lcm of the denominators' parts prime to q (``_lcm``);
            # each entry becomes (its numerator times D over its part, its
            # q-power)
            D, cof = _lcm(parts)
            ents = [[_over(x, D, cof) for x in r] for r in rows]
        else:
            D = _ONE
            ents = [[(x.num, x._k) for x in r] for r in rows]
        h = max((sum(map(abs, p)) for p, _ in chain.from_iterable(ents)), default=0)
        w = max(_W0, _width(h.bit_length() + 1))
        s = 8 * w
        nz = {}
        for i, r in enumerate(ents):
            row = {j: _encode(p, k - e, s, w) for j, (p, e) in enumerate(r) if p}
            if row:
                nz[i] = row
        self._nz, self._k, self._d, self._w, self._h = nz, k, D, w, h

    @classmethod
    def _adopt(cls, rows, field):
        """The matrix on rows an operation has just built: fresh,
        rectangular lists, held without a copy or a check."""
        M = object.__new__(cls)
        M._store(rows, field)
        return M

    @classmethod
    def _image(cls, nz, n, m, field, k=0, d=_ONE, w=_W0, h=0):
        """The n x m matrix that stores nz, and no other entry.  A numeric
        nz[i][j] is the entry (i, j) itself, and k, d, w, h keep their
        defaults.  An exact entry (i, j) is P_ij / (d q^k), where nz[i][j]
        = P_ij(2^(8w)) and h bounds the 1-norm of every P_ij."""
        M = object.__new__(cls)
        M.n, M.m, M.field = n, m, field
        M._rows = None
        M._nz, M._k, M._d, M._w, M._h = nz, k, d, w, h
        return M

    def _like(self, nz, n, m):
        """The n x m matrix that stores nz at this matrix's shift,
        denominator, slot width and height bound: nz holds this matrix's
        stored values, moved or negated."""
        return Matrix._image(nz, n, m, self.field, self._k, self._d, self._w, self._h)

    @property
    def rows(self):
        """The entries, row by row, decoded on the first read into lists
        that refuse writes, since the store holds the matrix: build rows
        and construct a new Matrix instead."""
        rows = self._rows
        if rows is None:
            rows = [[self.field.zero] * self.m for _ in range(self.n)]
            for i, j, x in self.nonzero_entries():
                rows[i][j] = x
            rows = self._rows = _ReadOnly(map(_ReadOnly, rows))
        return rows

    # -- constructors ---------------------------------------------------------

    @classmethod
    def zeros(cls, n, m, field):
        return cls._image({}, n, m, field)

    @classmethod
    def identity(cls, n, field):
        # the exact store holds the image of 1, at shift 0 over D = 1
        one = 1 if field.exact else field.one
        return cls._image({i: {i: one} for i in range(n)}, n, n, field, h=1)

    @classmethod
    def diagonal(cls, entries, field):
        z = field.zero
        n = len(entries)
        return cls._adopt(
            [[entries[i] if i == j else z for j in range(n)] for i in range(n)],
            field,
        )

    def copy(self):
        return Matrix(self.rows, self.field)

    # -- arithmetic -----------------------------------------------------------

    def __add__(self, other):
        if not isinstance(other, Matrix):
            return NotImplemented
        _same_shape(self, other, "+")
        return _sum(self, other, False)

    def __sub__(self, other):
        if not isinstance(other, Matrix):
            return NotImplemented
        _same_shape(self, other, "-")
        return _sum(self, other, True)

    def __neg__(self):
        return self._like({i: {j: -x for j, x in r.items()} for i, r in self._nz.items()},
                          self.n, self.m)

    def __matmul__(self, other):
        if not isinstance(other, Matrix):
            return NotImplemented
        if self.m != other.n:
            raise DomainError(f"shape mismatch {self.n}x{self.m} @ {other.n}x{other.m}")
        if self.field.exact:
            term = (1, (), self._k + other._k, self, other)
            return _image_pass(_dmul(self._d, other._d), (term,), self.n, other.m, self.field)
        return _number_combine(((1, None, self, other),), self.n, other.m, self.field)

    def __mul__(self, other):
        if isinstance(other, Matrix):
            return self @ other
        return self.scale(other)

    def __rmul__(self, other):
        if isinstance(other, Matrix):
            return NotImplemented
        return self.scale(other)

    def scale(self, c):
        if self.field.exact:
            return _image_combine(((1, c, self),), self.n, self.m, self.field)
        out = {}
        for i, r in self._nz.items():
            # a product of nonzero floats can underflow to zero
            row = _kept({j: c * x for j, x in r.items()})
            if row:
                out[i] = row
        return Matrix._image(out, self.n, self.m, self.field)

    def __eq__(self, other):
        if not isinstance(other, Matrix):
            return NotImplemented
        if (self.n, self.m) != (other.n, other.m) or self.field.exact != other.field.exact:
            return False
        if self.field.exact:
            return not _image_combine(((1, None, self), (-1, None, other)),
                                      self.n, self.m, self.field)._nz
        return self._nz == other._nz

    def __hash__(self):
        return hash(tuple(tuple(r) for r in self.rows))

    # -- structure ------------------------------------------------------------

    def transpose(self):
        # rows taken in ascending order give every column ascending keys
        nz = self._nz
        out = {}
        for i in sorted(nz):
            for j, x in nz[i].items():
                out.setdefault(j, {})[i] = x
        return self._like(out, self.m, self.n)

    def kron(self, other):
        n2, m2 = other.n, other.m
        code = ()
        if self.field.exact:
            w, h = _fit((self, other), self._h * other._h, lambda: self._h * other._h)
            code = (self._k + other._k, _dmul(self._d, other._d), w, h)
        out = {}
        for i, ra in self._nz.items():
            for i2, rb in other._nz.items():
                # a product of nonzero floats can underflow to zero
                row = _kept({j * m2 + j2: a * b for j, a in ra.items() for j2, b in rb.items()})
                if row:
                    out[i * n2 + i2] = row
        return Matrix._image(out, self.n * n2, self.m * m2, self.field, *code)

    def is_zero(self, scale=1.0):
        if self.field.exact:
            return not self._nz
        return _vanishes(self.field, self.max_abs(), scale)

    def max_abs(self):
        """Largest |entry| after numeric coercion — the natural residual
        scale; NaN when some |entry| is."""
        if self.field.exact:
            raise DomainError("max_abs is a numeric-backend notion")
        return _largest(_values(self))

    @property
    def nnz(self):
        """The number of stored entries, which are the nonzero ones."""
        return sum(map(len, self._nz.values()))

    def nonzero_entries(self):
        """(i, j, entry) for every nonzero entry, in row-major order; an
        exact matrix decodes only these."""
        nz = self._nz
        if not self.field.exact:
            for i in sorted(nz):
                for j, x in nz[i].items():
                    yield i, j, x
            return
        k, d, w = self._k, self._d, self._w
        for i in sorted(nz):
            r = nz[i]
            for j in sorted(r):
                yield i, j, _decode(r[j], k, d, w)

    def map_entries(self, fn, field):
        """The matrix of fn(entry) over ``field``, the field fn maps into."""
        return Matrix._adopt([[fn(a) for a in r] for r in self.rows], field)

    def __repr__(self):
        if self.n <= 6 and self.m <= 6:
            body = "; ".join(
                " ".join(str(a) for a in r) for r in self.rows
            )
            return f"Matrix[{body}]"
        return f"Matrix({self.n}x{self.m})"


def _same_shape(A, B, op):
    """Refuse an entrywise operation op on matrices of different shapes."""
    if (A.n, A.m) != (B.n, B.m):
        raise DomainError(f"shape mismatch {A.n}x{A.m} {op} {B.n}x{B.m}")


# -- the store ------------------------------------------------------------------

class _ReadOnly(list):
    """A list that refuses writes: the decoded rows of a matrix."""

    __slots__ = ()

    def _refuse(self, *args, **kwargs):
        raise DomainError("the rows of a matrix are read-only: "
                          "build rows and construct a Matrix from them")

    __setitem__ = __delitem__ = __iadd__ = __imul__ = _refuse
    append = extend = insert = pop = remove = clear = sort = reverse = _refuse


def _kept(row):
    """row without its zero values: numeric values can cancel or underflow."""
    return row if all(row.values()) else {j: x for j, x in row.items() if x}


def _sum(A, B, minus):
    """A + B, or A - B when minus, of two matrices of one shape: the
    two-term pass of ``combine`` on both backends."""
    terms = ((1, None, A), (-1 if minus else 1, None, B))
    if A.field.exact:
        return _reduced(_image_combine(terms, A.n, A.m, A.field))
    return _number_combine(terms, A.n, A.m, A.field)


def _number_combine(terms, n, m, field):
    """The n x m sum of the terms of ``combine`` over the numeric backend
    in one row pass: Gustavson's loop, every term adding into one dense
    accumulator per result row that starts at the field's zero.  A term's
    coefficient, and its sign, are folded into its left entries x, so a
    product adds (c x) y in ascending inner index and a matrix term adds
    c x; each row becomes a dict once, without its zero entries.  The one
    product with neither coefficient nor sign is the dense inner-product
    loop, bit for bit."""
    z = field.zero
    accs = {}
    for s, c, X, *Y in terms:
        if c is None:
            left = None if s > 0 else partial(map, neg)
        else:
            left = partial(map, partial(mul, -c if s < 0 else c))
        if Y:
            # a stored row of Y is walked once per entry of X in its
            # column, and a list walks faster than a dict
            brows = {t: list(r.items()) for t, r in Y[0]._nz.items()}
        for i, ra in X._nz.items():
            acc = accs.get(i)
            if acc is None:
                acc = accs[i] = [z] * m
            vals = ra.values() if left is None else left(ra.values())
            if not Y:
                for j, a in zip(ra, vals):
                    acc[j] = acc[j] + a
                continue
            for a, bt in zip(vals, map(brows.get, ra)):
                if bt:
                    for j, b in bt:
                        acc[j] = acc[j] + a * b
    out = {}
    for i, acc in accs.items():
        row = dict(compress(enumerate(acc), acc))
        if row:
            out[i] = row
    return Matrix._image(out, n, m, field)


def _image_combine(terms, n, m, field):
    """The n x m sum of the terms of ``combine`` over the exact backend,
    before it is taken to lower terms, in one row pass (``_image_pass``)
    that adds the terms in the order they come.  A term is over d q^k, d
    the product of its matrices' denominators and of the part of its
    coefficient's that is prime to q.  When every term has one d, the
    pass runs over it; otherwise over the lcm D of the d's (``_lcm``), and
    each term's numerator gains the factor D/d.  A term with a zero
    coefficient, or a factor that stores nothing, adds nothing."""
    parts, keys, run = {}, [], []
    for t in terms:
        X, Y = t[2], t[3] if len(t) > 3 else None
        if not X._nz or Y is not None and not Y._nz:
            continue
        k, d, num, c = X._k, X._d, (), t[1]
        if Y is not None:
            k += Y._k
            d = _dmul(d, Y._d)
        if c is not None:
            c = _scalar(c)
            if not c.num:
                continue
            num = (c.num,)
            e = c._k
            if e < 0:
                e, dp = _split(c.den)
                d = _dmul(d, dp)
            k += e
        key = tuple(d)
        parts[key] = d
        keys.append(key)
        run.append((t[0], num, k, X, Y))
    if not run:
        return Matrix.zeros(n, m, field)
    if len(parts) == 1:
        (D,) = parts.values()
    else:
        D, cof = _lcm(parts)
        run = [(s, (*num, cof[key]), k, X, Y) for (s, num, k, X, Y), key in zip(run, keys)]
    return _image_pass(D, run, n, m, field)


def _image_pass(d, terms, n, m, field):
    """The n x m sum over the one denominator d of the terms (s, num, k,
    X, Y), each s num / q^k times the matrix X (Y None) or the product X Y,
    in one pass of Gustavson's loop over the stored rows; num is a tuple
    of polynomials whose product is the term's numerator, () for 1.  Each
    result row sums in a dict by column.  A term's sign, the images of
    num's polynomials and q to the shift it lacks, K - k for the largest
    shift K, fold into one integer v: a product term adds (a v) b, and a
    matrix term a v.  The operands share one slot width, which holds the
    sum of the terms' height bounds: h_X ||num||_1 for a matrix, and
    r h_X h_Y ||num||_1 for a product, r the longest stored row of X and
    ||num||_1 the product of the 1-norms of num's polynomials."""
    h, K, ms = _height(terms)
    w, h = _fit(ms, h, lambda: _height(terms)[0])
    accs = {}
    for s, num, k, X, Y in terms:
        v = s if not num and k == K else _coefficient(num, s, K - k, w)
        if Y is None:
            for i, rb in X._nz.items():
                rb = dict(rb) if v == 1 else dict(zip(rb, map(mul, rb.values(), repeat(v))))
                row = accs.get(i)
                if row is None:
                    accs[i] = rb
                else:
                    for j in row.keys() & rb.keys():
                        rb[j] += row[j]
                    row |= rb
            continue
        bnz = Y._nz
        for i, ra in X._nz.items():
            row = accs.get(i)
            if row is None:
                row = accs[i] = {}
            get = row.get
            for t, a in ra.items():
                bt = bnz.get(t)
                if bt is not None:
                    if v != 1:
                        a *= v
                    for j, b in bt.items():
                        row[j] = get(j, 0) + a * b
    out = {}
    for i, row in accs.items():
        if 0 in row.values():
            row = {j: x for j, x in row.items() if x}
        if row:
            out[i] = row
    return Matrix._image(out, n, m, field, _unshifted(out, K, 8 * w), d, w, h)


def _height(terms):
    """(h, K, ms) for the terms of ``_image_pass``: the sum h of their
    height bounds, their largest shift K and their matrices ms."""
    h, K, ms = 0, 0, []
    for _, num, k, X, Y in terms:
        if k > K:
            K = k
        ms.append(X)
        f = X._h
        for p in num:
            f *= sum(map(abs, p))
        if Y is not None:
            ms.append(Y)
            f = f * Y._h * max(map(len, X._nz.values())) if X._nz else 0
        h += f
    return h, K, ms


def _coefficient(num, s, e, w):
    """s q^e times the product of the polynomials num, at q = 2^(8w): a
    term's sign, numerator and shift."""
    v = s
    for p in num:
        v *= p[0] if len(p) == 1 else _pack(p, w)
    return v << 8 * w * e if e else v


# -- integer images -------------------------------------------------------------


def _scalar(x):
    """x as a Scalar, for an entry or a factor of an exact matrix."""
    c = x if type(x) is Scalar else _coerce(x)
    if c is NotImplemented:
        raise DomainError(f"an exact matrix holds Scalars, not {type(x).__name__}")
    return c


def _split(den):
    """(e, p) with den = q^e p and p(0) != 0."""
    e = 0
    while not den[e]:
        e += 1
    return e, den[e:]


def _over(x, D, cof):
    """(P, e) with x = P / (D q^e), for a Scalar x whose denominator's
    part prime to q divides D, cof mapping each such part to D over it."""
    if not x.num:
        return [], 0
    if x._k >= 0:
        return pmul(x.num, D), x._k
    e, dp = _split(x.den)
    return pmul(x.num, cof[tuple(dp)]), e


def _encode(p, e, s, w):
    """The image of q^e p at q = 2^s, s = 8w, for a nonzero p with
    coefficients below 2^(s-1) in absolute value."""
    v = p[0] if len(p) == 1 else _pack(p, w)
    return v << (s * e) if e else v


def _decode(v, k, D, w):
    """The canonical Scalar P / (D q^k), P the nonzero polynomial with
    image v."""
    p = _unpack(v, w)
    if D == _ONE:
        return _laurent(p, k)
    return Scalar(p, [0] * k + D)


def _dmul(da, db):
    """The product of two denominators, with no kernel call when one is 1."""
    if db == _ONE:
        return da
    return db if da == _ONE else pmul(da, db)


def _reduced(M):
    """The exact matrix M over D/g, for the factor g of positive degree
    that one integer gcd finds shared by D and every P_ij; M itself when
    it finds none, or cannot prove it.  As in GCDHEU (Char, Geddes and
    Gonnet, 1989), x = gcd(D(2^s), images) is positive, so pp of its
    balanced digits is a candidate g with a positive leading coefficient,
    and g(2^s) = x / content divides every image.  Each quotient of images
    may prove itself a quotient of polynomials
    (``_kernel._proved_quotient``), which needs the coefficients of the
    dividend below half a slot: the height bound keeps those of every
    P_ij there, and D's 1-norm below it keeps D's.  The result holds the
    quotients' images at their exact largest 1-norm, below half a slot,
    and every entry decodes to the Scalar it did in M."""
    D, w = M._d, M._w
    if len(D) < 2 or sum(map(abs, D)).bit_length() >= 8 * w:
        return M
    vd = _pack(D, w)
    x = gcd(vd, *chain.from_iterable(map(dict.values, M._nz.values())))
    c, g = pprim(_unpack(x, w))
    if len(g) < 2:
        return M
    vg, norms = x // c, (sum(map(abs, g)), max(map(abs, g)))
    d = _proved_quotient(vd // vg, norms, w)
    if d is None:
        return M
    nz, h = {}, 0
    for i, r in M._nz.items():
        row = nz[i] = {}
        for j, v in r.items():
            v //= vg
            u = _proved_quotient(v, norms, w)
            if u is None:
                return M
            row[j] = v
            h = max(h, sum(map(abs, u)))
    if h.bit_length() >= 8 * w:
        return M
    return Matrix._image(nz, M.n, M.m, M.field, M._k, d, w, h)


def _lcm(parts):
    """(D, cof): the lcm D of the denominators of parts = {key: d}, and
    cof = {key: D/d}.  Each d after the first takes one gcd g with the lcm
    so far, which hands back the cofactors D/g and d/g (no division): the
    lcm, and every cofactor before d, gains the factor d/g, and D/g is
    d's cofactor."""
    keys = iter(parts)
    key = next(keys)
    D, cof = parts[key], {key: _ONE}
    for key in keys:
        _, a, b = _gcd_cofactors(D, parts[key])
        if b != _ONE:
            D = pmul(D, b)
            cof = {t: _dmul(f, b) for t, f in cof.items()}
        cof[key] = a
    return D, cof


def _refit(M, w):
    """Re-encode M's images in slots of w bytes, w >= M._w, and take its
    height bound down to the largest 1-norm of its entries.  The images
    decode exactly, so M's value is unchanged."""
    polys = {i: {j: _unpack(x, M._w) for j, x in r.items()} for i, r in M._nz.items()}
    M._h = max((sum(map(abs, p)) for r in polys.values() for p in r.values()), default=0)
    if w != M._w:
        M._nz = {i: {j: _pack(p, w) for j, p in r.items()} for i, r in polys.items()}
        M._w = w


def _fit(ms, h, bound):
    """(w, h): a common slot width of the image matrices ms, each
    re-encoded there, and a height bound h of the result of an operation
    on them, below 2^(8w-1), so that the result decodes exactly and its
    zero test is exact.  h is bound() on entry, and bound, which reads the
    heights of ms, gives it again when a re-encoding lowers them."""
    w = max(map(_slot, ms))
    if h.bit_length() >= 8 * w:
        for M in ms:
            _refit(M, M._w)
        h = bound()
        if h.bit_length() >= 8 * w:
            w = _width(h.bit_length() + 1)
    for M in ms:
        if M._w != w:
            _refit(M, w)
    return w, h


def _unshifted(nz, k, s):
    """The shift k less the power of q, up to q^k, that every image of the
    store nz shares, taken out of the images in place: nz is a row pass's
    fresh store.  A nonzero coefficient is below 2^(s-1) in absolute
    value, so the lowest one, at q^v, leaves fewer than s - 1 trailing
    zero bits above the s * v of its slot; the lowest bit set in any image
    is the lowest bit of their bitwise or, and none is shared when some
    image has a nonzero lowest slot."""
    if not k or not nz:
        return k
    images = list(chain.from_iterable(map(dict.values, nz.values())))
    if any(map(((1 << s) - 1).__and__, images)):
        return k
    low = reduce(or_, images)
    v = min(((low & -low).bit_length() - 1) // s, k)
    if v > 0:
        b = s * v
        for r in nz.values():
            for j in r:
                r[j] >>= b
    return k - v


def combine(terms) -> Matrix:
    """The linear combination sum_k s_k c_k M_k + sum_k s_k c_k X_k Y_k.

    A term is (s, c, M) or (s, c, X, Y): its sign s, +1 or -1, its
    coefficient c, a field element or None for 1, and one matrix or two
    factors whose product it adds.  A sign of -1 subtracts the term: it
    never multiplies it by -1.  Every term has one shape, and the factors
    of a product fit, or DomainError names the shapes.  One unscaled
    matrix term alone is returned as it is.

    Over either backend the sum is a row pass, as Level-3 BLAS folds
    C <- alpha AB + beta C into one product: no product, scaled term or
    partial sum is built.  The numeric pass (``_number_combine``) adds
    every term into one accumulator; the exact one (``_image_combine``)
    adds every term's images in one pass over the lcm of the terms'
    denominators, and its result is taken to lower terms once
    (``_reduced``).  ``relation`` judges an exact relation by that pass
    over lhs - rhs, not taken to lower terms.
    """
    terms = tuple(terms)
    n, m = _shape(terms)
    s, c, M, *Y = terms[0]
    if len(terms) == 1 and s > 0 and c is None and not Y:
        return M
    if not M.field.exact:
        return _number_combine(terms, n, m, M.field)
    return _reduced(_image_combine(terms, n, m, M.field))


def _shape(terms):
    """(n, m): the one shape of the ``combine`` terms, whose product
    factors fit; DomainError names the shapes otherwise."""
    if not terms:
        raise DomainError("combine needs at least one term")
    # a term's rows are its first matrix's, its columns its last one's
    n, m = terms[0][2].n, terms[0][-1].m
    for t in terms:
        X = t[2]
        if len(t) > 3 and X.m != t[3].n:
            raise DomainError(f"shape mismatch {X.n}x{X.m} @ {t[3].n}x{t[3].m}")
        if X.n != n or t[-1].m != m:
            raise DomainError(f"shape mismatch {n}x{m} + {X.n}x{t[-1].m}")
    return n, m


def relation(lhs, rhs, field):
    """(ok, witness) for the relation sum(lhs) = sum(rhs), each side a
    nonempty sequence of ``combine`` terms: the one judge of the
    certification suites, on both backends.

    Over the exact backend one pass (``_image_combine``) adds the terms of
    lhs and the negated terms of rhs over the lcm of their denominators,
    and builds neither side, whatever the outcome: the relation holds
    exactly when that difference stores no row, and otherwise its first
    stored entry in row-major order, decoded, is the witness, the value
    lhs - rhs at the first entry where the two sides differ.  Over the
    numeric backend equality is judged at the scale of the two sides, so
    it is ``_meq`` of the two ``combine`` results."""
    lhs, rhs = tuple(lhs), tuple(rhs)
    if not lhs or not rhs:
        raise DomainError("a relation needs a term on each side")
    terms = lhs + tuple((-s, *t) for s, *t in rhs)
    n, m = _shape(terms)
    if not field.exact:
        return _meq(combine(lhs), combine(rhs))
    R = _image_combine(terms, n, m, field)
    if not R._nz:
        return True, None
    i = min(R._nz)
    j = min(R._nz[i])
    return False, f"entry ({i},{j}) = {_decode(R._nz[i][j], R._k, R._d, R._w)}"


def qbracket(A: Matrix, B: Matrix, v) -> Matrix:
    """[A, B]_v = AB - v BA; v = 1 is the plain commutator."""
    return combine(((1, None, A, B), (-1, v, B, A)))


def commutator(A: Matrix, B: Matrix) -> Matrix:
    """[A, B] = AB - BA, without qbracket's scaling by 1."""
    return combine(((1, None, A, B), (-1, None, B, A)))


def serre_sides(X: Matrix, Y: Matrix, n: int, q, extra=()):
    """The two sides X acc and q^(1-n) acc X + extra of the outermost
    bracket of

        ad_{q^(1-n)}(X) .. ad_{q^(n-3)}(X) ad_{q^(n-1)}(X) Y,    ad_v(X)Y = XY - vYX,

    as lists of ``combine`` terms for ``relation``, acc being the inner
    n - 1 brackets applied to Y (a bracket at q^0 is the commutator).
    Left and right multiplication by X commute, so by the q-binomial
    theorem the nested bracket, the difference of the two sides, is the
    alternating sum sum_r (-1)^r [n r] X^(n-r) Y X^r for any X, Y: the
    Serre-type relations with n = 1 - a_ij, in 2n products.  The terms
    ``extra`` join the right side.
    """
    acc = Y
    for e in range(n - 1, 1 - n, -2):
        acc = commutator(X, acc) if e == 0 else qbracket(X, acc, q ** e)
    return [(1, None, X, acc)], [(1, q ** (1 - n), acc, X), *extra]


class ProductMemo:
    """Products and q-brackets of stored matrices, each computed once for
    as long as the memo lives.

    Keys are operand identities: ``mul(A, B)`` returns the same object on
    every call with these two objects, and equal but distinct matrices are
    different keys.  Every entry holds its operands (and the bracket's
    scalar), so no id in a live key can be reused by a new object.  A
    product is ``A @ B``, and a bracket the ``combine`` of the two cached
    products, so exact results equal ``qbracket``'s and numeric ones round
    as that one pass does.  Memory grows with the
    distinct pairs seen, and every product stays alive with the memo:
    scope a memo to the stretch of a relation suite in which its products
    recur (a node pair, or one node across the groups that multiply its
    ladder), and drop it when that stretch ends.
    """

    __slots__ = ("_cache",)

    def __init__(self):
        self._cache = {}

    def mul(self, A: Matrix, B: Matrix) -> Matrix:
        key = (id(A), id(B))
        hit = self._cache.get(key)
        if hit is None:
            hit = self._cache[key] = (A @ B, A, B)
        return hit[0]

    def qbracket(self, A: Matrix, B: Matrix, v) -> Matrix:
        key = (id(A), id(B), id(v))
        hit = self._cache.get(key)
        if hit is None:
            hit = self._cache[key] = (
                combine(((1, None, self.mul(A, B)), (-1, v, self.mul(B, A)))), A, B, v)
        return hit[0]


def _meq(A: Matrix, B: Matrix):
    """(ok, witness) for A = B over the numeric backend: the judge that
    ``relation`` applies to its two built sides.

    Entries compare at the scale of the larger operand, so an equality
    between large matrices is not judged by an absolute tolerance.
    Matrices of different shapes are refused, never compared."""
    _same_shape(A, B, "==")
    scale = _largest(_values(A, B))
    if scale < 1.0:  # false for a NaN scale, which stays
        scale = 1.0
    R = A - B
    if R.is_zero(scale):
        return True, None
    i, j, v = max(R.nonzero_entries(), key=_badness)
    return False, f"entry ({i},{j}) residual {_modulus(v):.3e} at scale {scale:.3e}"


def _badness(entry):
    """|v| of an (i, j, v) entry, inf for a NaN |v|: the largest residual
    of a failed equality, a non-finite one ranked first."""
    m = _modulus(entry[2])
    return m if m == m else inf


def _vanishes(field, largest, scale):
    """The numeric zero rule: values whose largest |value| is ``largest``
    are zero at ``scale``.  No tolerance holds at an infinite or NaN
    scale."""
    return isfinite(scale) and field.is_zero(largest, scale)


def _modulus(v):
    """|v|, and inf for a complex v whose modulus passes the largest
    float, where abs raises."""
    try:
        return abs(v)
    except OverflowError:
        return inf


def _values(*ms):
    """The stored values of the numeric matrices ms."""
    return chain.from_iterable(map(dict.values, chain.from_iterable(M._nz.values() for M in ms)))


def _largest(values):
    """max |v| over numeric values (0.0 for none) in one C-level pass, or
    NaN when some |v| is NaN, which max alone can pass over.  The numeric
    is_zero bounds |x|, so all the values are zero at a scale exactly when
    f.is_zero(_largest(values), scale) holds, and a NaN is never zero."""
    values = list(values)
    try:
        mags = list(map(abs, values))
    except OverflowError:
        mags = list(map(_modulus, values))
    total = sum(mags)
    return total if total != total else max(mags, default=0.0)


# -- gradings ----------------------------------------------------------------


class Grading:
    """Integer degree vectors, one per basis index."""

    __slots__ = ("degrees",)

    def __init__(self, degrees):
        self.degrees = [tuple(d) for d in degrees]
        if self.degrees:
            ar = len(self.degrees[0])
            if any(len(d) != ar for d in self.degrees):
                raise DomainError("grading degree vectors of mixed arity")

    @property
    def dim(self):
        return len(self.degrees)

    def total(self) -> "Grading":
        """Collapse to a one-dimensional grading by summing coordinates."""
        return Grading([(sum(d),) for d in self.degrees])

    def shift(self, i: int, j: int):
        return tuple(a - b for a, b in zip(self.degrees[i], self.degrees[j]))

    def __eq__(self, other):
        return isinstance(other, Grading) and self.degrees == other.degrees

    def __repr__(self):
        return f"Grading({self.degrees})"


def degree_components(A: Matrix, g: Grading) -> dict:
    """{shift: component} of A by degree shift, row degree minus column
    degree.  Only the components that are nonzero at A's own scale are
    kept (exact: any nonzero entry), so summing the components gives A
    back up to entries that vanish at that scale.  A component stores A's
    values of its entries, and an exact one shares A's shift, denominator,
    slot width and height bound."""
    if A.n != g.dim or A.m != g.dim:
        raise DomainError("grading dimension does not match the matrix")
    comps = {s: A._like(nz, A.n, A.m) for s, nz in _by_shift(A._nz, g).items()}
    if A.field.exact:
        return comps
    scale = A.max_abs()
    return {s: M for s, M in comps.items() if not M.is_zero(scale)}


def _by_shift(nz, g):
    """{shift: store} of the entries of the store nz, grouped by degree
    shift, each row in its order in nz.  Basis indices of one degree share
    a class, and Grading.shift runs once per pair of classes met."""
    classes = {}
    cls = [classes.setdefault(d, len(classes)) for d in g.degrees]
    shifts = [[None] * len(classes) for _ in classes]
    out = {}
    for i, r in nz.items():
        srow = shifts[cls[i]]
        parts = {}
        for j, x in r.items():
            cj = cls[j]
            s = srow[cj]
            if s is None:
                s = srow[cj] = g.shift(i, j)
            parts.setdefault(s, {})[j] = x
        for s, part in parts.items():
            out.setdefault(s, {})[i] = part
    return out
