"""Dense matrices over the exact or numeric coefficient field, plus the
grading bookkeeping every certification suite leans on.

A Matrix stores a list-of-rows over a field backend (see qonsager.scalars);
all binary operations assume both operands live over the same backend.  The
product is written either ``A @ B`` or ``A * B``; ``c * A`` with a scalar-like
``c`` scales entrywise.

The product is row-sparse (Gustavson, ACM TOMS 4(3), 1978): it lists the
nonzero entries of each row of the right operand once, then builds each row
of the result from the nonzero entries of the matching row on the left.  It
skips zero entries by structure instead of testing every index triple, and
keeps the summation order of the dense loop (ascending inner index), so
numeric results are the same as the dense product's, bit for bit, and exact
ones equal.  The store stays dense; the weight-basis operators are sparse
enough that this one code path serves both field backends.

Over the exact backend, sum, difference, negation, scaling and the product
skip every entry that *is* the field's zero object, by an identity test
with no truth test and no Scalar call: 0 + b is b, a - 0 is a, -0 and
c * 0 are 0, and a zero factor adds no term to a product, which is what
the Scalar arithmetic returns for such operands, so results are unchanged.
Most entries of the weight-basis operators are that object.  A zero that
is a different object takes the arithmetic path and gives the same value.
Over the numeric backend sum, difference, negation and scaling stay plain
entrywise loops with no zero-skipping: a skipped ``a + 0j`` would keep a
-0.0 that the addition turns into 0.0, so the results would no longer be
the entrywise complex arithmetic bit for bit.

A Grading assigns every basis index an integer degree *vector*; a module
over the affine A_N diagram is graded in simple-root coordinates (length N,
top degree 0, weights descending), and a tensor product of modules adds the
degrees of its factors.  degree_components splits an operator by the
shift vector (row degree minus column degree) into a plain dict.

ProductMemo computes each product A @ B (and each q-bracket) once while it
lives, for the relation suites, which multiply the same stored matrices
again and again.  It keys on operand identity, never on entries, and keeps
a reference to every operand it has cached, so an id cannot be reused by a
new object while its entry is alive.  A memo is scoped by its caller to one
relation group (or one node pair of it) and dropped with it: there is no
global cache, and Matrix carries no cache field.  A cached result is the
same object on every hit, so callers must not mutate it.

One numeric zero rule serves the whole package, and only this module
applies it: a numeric matrix vanishes when every entry is within the
backend tolerance of zero at the scale of the matrices it came from (their
largest entry, and never below 1).  The rule bounds |entry|, so one
``field.is_zero`` call on the largest |entry|, taken in one C-level pass,
decides it for a whole matrix or degree component, and a NaN entry is
never zero.  _meq, the one matrix equality of the certification suites
and the series layer, judges A = B at the scale of A and B and returns
(ok, witness); degree_components keeps a degree component only when it is
nonzero at the scale of the operator it splits.
Over the exact backend both reduce to entry comparison.  A relation is
therefore checked by comparing its two sides, never by testing a
difference against a zero matrix, whose scale would be lost.

The module is plain Python over both backends (numeric entries are Python
complex numbers) and imports no numeric library: there is no eigenvector
or root solver here, and exact runs never leave Q(q).
"""

from __future__ import annotations

from itertools import chain
from operator import itemgetter

from .errors import DomainError

__all__ = [
    "Matrix",
    "Grading",
    "ProductMemo",
    "qbracket",
    "commutator",
    "degree_components",
]


class Matrix:
    __slots__ = ("n", "m", "rows", "field")

    def __init__(self, rows, field):
        self.rows = [list(r) for r in rows]
        self.n = len(self.rows)
        self.m = len(self.rows[0]) if self.rows else 0
        if any(len(r) != self.m for r in self.rows):
            raise DomainError("ragged matrix rows")
        self.field = field

    # -- constructors ---------------------------------------------------------

    @classmethod
    def zeros(cls, n, m, field):
        z = field.zero
        return cls([[z] * m for _ in range(n)], field)

    @classmethod
    def identity(cls, n, field):
        z, one = field.zero, field.one
        return cls(
            [[one if i == j else z for j in range(n)] for i in range(n)], field
        )

    @classmethod
    def diagonal(cls, entries, field):
        z = field.zero
        n = len(entries)
        return cls(
            [[entries[i] if i == j else z for j in range(n)] for i in range(n)],
            field,
        )

    def copy(self):
        return Matrix(self.rows, self.field)

    # -- arithmetic -----------------------------------------------------------

    def __add__(self, other):
        if not isinstance(other, Matrix):
            return NotImplemented
        if self.field.exact:
            z = self.field.zero
            return Matrix(
                [
                    [b if a is z else a if b is z else a + b for a, b in zip(ra, rb)]
                    for ra, rb in zip(self.rows, other.rows)
                ],
                self.field,
            )
        return Matrix(
            [
                [a + b for a, b in zip(ra, rb)]
                for ra, rb in zip(self.rows, other.rows)
            ],
            self.field,
        )

    def __sub__(self, other):
        if not isinstance(other, Matrix):
            return NotImplemented
        if self.field.exact:
            z = self.field.zero
            return Matrix(
                [
                    [a if b is z else -b if a is z else a - b for a, b in zip(ra, rb)]
                    for ra, rb in zip(self.rows, other.rows)
                ],
                self.field,
            )
        return Matrix(
            [
                [a - b for a, b in zip(ra, rb)]
                for ra, rb in zip(self.rows, other.rows)
            ],
            self.field,
        )

    def __neg__(self):
        if self.field.exact:
            z = self.field.zero
            return Matrix([[a if a is z else -a for a in r] for r in self.rows], self.field)
        return Matrix([[-a for a in r] for r in self.rows], self.field)

    def __matmul__(self, other):
        if not isinstance(other, Matrix):
            return NotImplemented
        if self.m != other.n:
            raise DomainError(f"shape mismatch {self.n}x{self.m} @ {other.n}x{other.m}")
        z = self.field.zero
        p = other.m
        out = []
        if self.field.exact:
            brows = [[(j, b) for j, b in enumerate(rb) if b is not z] for rb in other.rows]
            for ra in self.rows:
                row = [z] * p
                for a, bk in zip(ra, brows):
                    if a is not z:
                        for j, b in bk:
                            r = row[j]
                            row[j] = a * b if r is z else r + a * b
                out.append(row)
            return Matrix(out, self.field)
        # k ascends, so every entry gets the same additions in the same order
        # as the dense inner-product loop: results agree bit for bit.
        brows = [[(j, b) for j, b in enumerate(rb) if b] for rb in other.rows]
        for ra in self.rows:
            row = [z] * p
            for a, bk in zip(ra, brows):
                if a:
                    for j, b in bk:
                        row[j] = row[j] + a * b
            out.append(row)
        return Matrix(out, self.field)

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
            z = self.field.zero
            return Matrix([[a if a is z else c * a for a in r] for r in self.rows], self.field)
        return Matrix([[c * a for a in r] for r in self.rows], self.field)

    def __pow__(self, k):
        if k < 0:
            raise DomainError(f"negative matrix power {k}: no inverse is kept")
        out = Matrix.identity(self.n, self.field)
        base = self
        while k:
            if k & 1:
                out = out @ base
            k >>= 1
            if k:
                base = base @ base
        return out

    def __eq__(self, other):
        if not isinstance(other, Matrix):
            return NotImplemented
        return self.rows == other.rows

    def __hash__(self):
        return hash(tuple(tuple(r) for r in self.rows))

    # -- structure ------------------------------------------------------------

    def transpose(self):
        return Matrix(list(zip(*self.rows)), self.field)

    def trace(self):
        acc = self.field.zero
        for i in range(self.n):
            acc = acc + self.rows[i][i]
        return acc

    def kron(self, other):
        out = []
        for ra in self.rows:
            for rb in other.rows:
                out.append([a * b for a in ra for b in rb])
        return Matrix(out, self.field)

    def is_zero(self, scale=1.0):
        f = self.field
        if f.exact:
            return all(f.is_zero(a, scale) for r in self.rows for a in r)
        return f.is_zero(_largest(chain.from_iterable(self.rows)), scale)

    def max_abs(self):
        """Largest |entry| after numeric coercion — the natural residual scale."""
        if self.field.exact:
            raise DomainError("max_abs is a numeric-backend notion")
        return max(map(abs, chain.from_iterable(self.rows)), default=0.0)

    def nonzero_entries(self):
        for i, r in enumerate(self.rows):
            for j, a in enumerate(r):
                if a:
                    yield i, j, a

    # -- solved forms ----------------------------------------------------------

    def charpoly(self):
        """Monic characteristic polynomial, coefficients descending in λ,
        via the Faddeev–LeVerrier recurrence (division-free except by k)."""
        if self.n != self.m:
            raise DomainError("charpoly of a non-square matrix")
        f = self.field
        n = self.n
        coeffs = [f.one]
        M = Matrix.identity(n, f)
        for k in range(1, n + 1):
            AM = self @ M
            ck = -(AM.trace() * f.from_fraction(1, k))
            coeffs.append(ck)
            M = AM + Matrix.identity(n, f).scale(ck)
        return coeffs

    def map_entries(self, fn, field):
        """The matrix of fn(entry) over ``field``, the field fn maps into."""
        return Matrix([[fn(a) for a in r] for r in self.rows], field)

    def __repr__(self):
        if self.n <= 6 and self.m <= 6:
            body = "; ".join(
                " ".join(str(a) for a in r) for r in self.rows
            )
            return f"Matrix[{body}]"
        return f"Matrix({self.n}x{self.m})"


def qbracket(A: Matrix, B: Matrix, v) -> Matrix:
    """[A, B]_v = AB - v BA; v = 1 is the plain commutator."""
    return A @ B - (B @ A).scale(v)


def commutator(A: Matrix, B: Matrix) -> Matrix:
    """[A, B] = AB - BA, without qbracket's scaling by 1."""
    return A @ B - B @ A


class ProductMemo:
    """Products and q-brackets of stored matrices, each computed once for
    as long as the memo lives.

    Keys are operand identities: ``mul(A, B)`` returns the same object on
    every call with these two objects, and equal but distinct matrices are
    different keys.  Every entry holds its operands (and the bracket's
    scalar), so no id in a live key can be reused by a new object.  Values
    are those of ``A @ B`` and ``qbracket``, operation for operation, so
    exact and numeric results are unchanged.  Memory grows with the
    distinct pairs seen: scope a memo to one relation group, or one node
    pair of it, and drop it with that scope.
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
            hit = self._cache[key] = (self.mul(A, B) - self.mul(B, A).scale(v), A, B, v)
        return hit[0]


def _meq(A: Matrix, B: Matrix, field):
    """(ok, witness) for A = B at the backend's notion of zero: the one
    matrix equality of the certification suites.

    Numeric entries compare at the scale of the larger operand, so an
    equality between large matrices is not judged by an absolute
    tolerance.  Exact entries are in canonical form, so a = b exactly when
    a == b: the exact branch compares entries and computes a - b only at
    the first differing entry, in row-major order."""
    if field.exact:
        for i, (ra, rb) in enumerate(zip(A.rows, B.rows)):
            if ra != rb:
                for j, (a, b) in enumerate(zip(ra, rb)):
                    if a != b:
                        return False, f"entry ({i},{j}) = {a - b}"
        return True, None
    D = A - B
    scale = max(A.max_abs(), B.max_abs(), 1.0)
    if D.is_zero(scale):
        return True, None
    i, j, v = max(D.nonzero_entries(), key=lambda t: abs(t[2]))
    return False, f"entry ({i},{j}) residual {abs(v):.3e} at scale {scale:.3e}"


def _largest(values):
    """max |v| over numeric values (0.0 for none) in one C-level pass, or
    NaN when some |v| is NaN, which max alone can pass over.  The numeric
    is_zero bounds |x|, so all the values are zero at a scale exactly when
    f.is_zero(_largest(values), scale) holds, and a NaN is never zero."""
    mags = list(map(abs, values))
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
    back up to entries that vanish at that scale."""
    if A.n != g.dim or A.m != g.dim:
        raise DomainError("grading dimension does not match the matrix")
    f = A.field
    entries = {}
    for i, j, a in A.nonzero_entries():
        entries.setdefault(g.shift(i, j), []).append((i, j, a))
    if not f.exact:
        scale = A.max_abs()
        entries = {s: e for s, e in entries.items()
                   if not f.is_zero(_largest(map(itemgetter(2), e)), scale)}
    comps = {}
    for s, e in entries.items():
        M = comps[s] = Matrix.zeros(A.n, A.m, f)
        for i, j, a in e:
            M.rows[i][j] = a
    return comps

