"""Matrices, gradings and degree components, q-brackets, the numeric backend."""

import re
from fractions import Fraction
from functools import reduce
from itertools import compress

import pytest
from hypothesis import assume, example, given, settings
from hypothesis import strategies as st

from qonsager import linmat
from qonsager._kernel import _pack, _unpack, padd, pgcd, pmul, pnorm
from qonsager.errors import DomainError
from qonsager.linmat import (
    Grading,
    Matrix,
    ProductMemo,
    _meq,
    _reduced,
    _refit,
    combine,
    commutator,
    degree_components,
    qbracket,
    relation,
    serre_sides,
)
from qonsager.scalars import ExactField, NumericField, Q, Scalar, qbinom, qint

F = ExactField()

entry_pool = [
    Scalar(0),
    Scalar(1),
    Scalar(-1),
    Scalar(2),
    Q,
    Q**-1,
    Q + 1,
    Q - Q**-1,
    Scalar(1, 2),
]


def mats(n):
    return st.lists(
        st.lists(st.sampled_from(entry_pool), min_size=n, max_size=n),
        min_size=n,
        max_size=n,
    ).map(lambda rows: Matrix(rows, F))


# ------------------------------------------------------------------ qbracket


def test_qbracket_sl2_pair():
    # [E, F]_1 on the 2-dim module equals (K - K^-1)/(q - q^-1)
    E = Matrix([[F.zero, F.one], [F.zero, F.zero]], F)
    Fm = Matrix([[F.zero, F.zero], [F.one, F.zero]], F)
    K = Matrix.diagonal([Q, Q**-1], F)
    lhs = qbracket(E, Fm, F.one)
    Kinv = Matrix.diagonal([Q**-1, Q], F)
    rhs = (K - Kinv).scale(1 / (Q - Q**-1))
    assert lhs == rhs


@given(mats(3), mats(3), st.sampled_from([Q, Q**-1, Q**2, Scalar(1)]))
@settings(max_examples=30)
def test_qbracket_antisymmetry(A, B, v):
    # [A,B]_v = -v [B,A]_{1/v}
    assert qbracket(A, B, v) == qbracket(B, A, v.inv()).scale(-v)


def test_product_memo_returns_one_product_per_operand_pair():
    A = Matrix([[Q, Scalar(1)], [Scalar(0), Q**-1]], F)
    B = Matrix([[Scalar(2), Scalar(0)], [Q, Scalar(1)]], F)
    memo = ProductMemo()
    AB = memo.mul(A, B)
    assert AB == A @ B
    assert memo.mul(A, B) is AB
    assert memo.mul(B, A) == B @ A
    # keys are identities: an equal copy is another operand
    assert memo.mul(A.copy(), B) is not AB
    br = memo.qbracket(A, B, Q)
    assert br == qbracket(A, B, Q)
    assert memo.qbracket(A, B, Q) is br
    assert memo.qbracket(A, B, Q**2) == qbracket(A, B, Q**2)


def test_product_memo_never_returns_a_stale_product():
    # temporaries made and dropped in a loop: CPython hands a freed object's
    # id to the next one, so a memo that kept only ids would answer with an
    # earlier pair's product
    memo = ProductMemo()
    for k in range(200):
        A = Matrix([[Scalar(k), Scalar(1)], [Scalar(0), Scalar(k + 1)]], F)
        B = Matrix([[Scalar(1), Scalar(-k)], [Scalar(k % 7), Scalar(2)]], F)
        v = Scalar(k + 2)
        assert memo.mul(A, B) == A @ B, k
        assert memo.qbracket(B, A, v) == qbracket(B, A, v), k
        del A, B, v


# ------------------------------------------------------------------ arithmetic


@given(mats(3), mats(3), mats(3))
@settings(max_examples=30)
def test_ring_axioms(A, B, C):
    assert (A + B) + C == A + (B + C)
    assert A @ (B @ C) == (A @ B) @ C
    assert A @ (B + C) == A @ B + A @ C
    assert (A + B).transpose() == A.transpose() + B.transpose()
    assert (A @ B).transpose() == B.transpose() @ A.transpose()


def dense_product(A, B):
    """Reference product: the inner-product triple loop over every (i, j, k),
    adding a*b in ascending k whenever both factors are nonzero."""
    out = []
    for ra in A.rows:
        row = []
        for j in range(B.m):
            acc = A.field.zero
            for k, a in enumerate(ra):
                b = B.rows[k][j]
                if a and b:
                    acc = acc + a * b
            row.append(acc)
        out.append(row)
    return out


complex_pool = [0j, complex(-0.0, 0.0), complex(0.0, -0.0), complex(-0.0, -0.0),
                1 + 0j, -1j, 1e300 + 1e-300j, -1e300 - 1e300j, 1e-300 + 0j,
                complex(0.1, -2.5)]


@st.composite
def product_pairs(draw, entries, zero):
    """(A, B) of shapes n x m and m x p, 1 <= n, m, p <= 7, where some rows of
    A and some columns of B may be set to ``zero``."""
    n, m, p = (draw(st.integers(1, 7)) for _ in range(3))
    a = [[draw(entries) for _ in range(m)] for _ in range(n)]
    b = [[draw(entries) for _ in range(p)] for _ in range(m)]
    for i in draw(st.sets(st.integers(0, n - 1))):
        a[i] = [zero] * m
    for j in draw(st.sets(st.integers(0, p - 1))):
        for r in b:
            r[j] = zero
    return a, b


@given(product_pairs(st.sampled_from(entry_pool), Scalar(0)))
@settings(max_examples=60, deadline=None)
def test_product_matches_dense_loop_exact(pair):
    A, B = (Matrix(rows, F) for rows in pair)
    C = A @ B
    assert (C.n, C.m) == (A.n, B.m)
    assert C.rows == dense_product(A, B)


def _reprs(rows):
    return [[repr(x) for x in r] for r in rows]


def _read(rows, z):
    """rows as a numeric matrix reads them back: it stores no zero, so a
    zero entry of either sign reads as the field's zero z."""
    return [[x if x else z for x in r] for r in rows]


def dense_loop_product(a_rows, b_rows, z):
    """Reference product: the dense numeric product the store replaced.  It
    lists the nonzero entries of each row of the right operand, then builds
    each result row from the field's zero z, adding a*b for the nonzero
    entries a of the matching left row in ascending inner index."""
    brows = [list(compress(enumerate(rb), rb)) for rb in b_rows]
    out = []
    for ra in a_rows:
        row = [z] * len(b_rows[0])
        for a, bk in compress(zip(ra, brows), ra):
            for j, b in bk:
                row[j] = row[j] + a * b
        out.append(row)
    return out


def _check_product(pair, nf=NumericField(1.3)):
    A, B = (Matrix(rows, nf) for rows in pair)
    C = A @ B
    assert (C.n, C.m) == (A.n, B.m)
    # a zero result reads as the field's zero, even where the loop made a
    # complex zero at a real q0
    assert _reprs(C.rows) == _reprs(_read(dense_product(A, B), nf.zero))
    assert _reprs(C.rows) == _reprs(_read(dense_loop_product(*pair, nf.zero), nf.zero))


numeric_entries = st.one_of(
    st.sampled_from(complex_pool),
    st.complex_numbers(allow_nan=False, allow_infinity=False),
    st.builds(complex, st.floats(-10, 10), st.floats(-10, 10)))

#: the entries of a numeric matrix at a real q0
float_pool = [0.0, -0.0, 1.0, -1.0, 1e300, -1e300, 1e-300, -1e-300, 0.1, -2.5]
float_entries = st.one_of(
    st.sampled_from(float_pool),
    st.floats(allow_nan=False, allow_infinity=False),
    st.floats(-10, 10))


@given(product_pairs(numeric_entries, 0j))
@settings(max_examples=150, deadline=None)
def test_product_matches_dense_loop_numeric(pair):
    _check_product(pair)


@given(product_pairs(float_entries, 0.0))
@settings(max_examples=150, deadline=None)
def test_product_matches_dense_loop_float(pair):
    _check_product(pair)


#: small values whose products and sums cancel exactly
_cancelling = [0.0, -0.0, 1.0, -1.0, 2.0, -2.0, 0.5, -0.5]


@given(st.data(), st.sampled_from([1.3, complex(0.6, 0.8)]))
@settings(max_examples=150, deadline=None)
def test_product_matches_dense_loop_with_cancellation(data, q0):
    # entries of a product that cancel to zero are not stored, and every
    # other entry is the dense loop's, at a real and at a complex q0
    nf = NumericField(q0)
    part = st.sampled_from(_cancelling)
    entries = part if isinstance(nf.zero, float) else st.builds(complex, part, part)
    _check_product(data.draw(product_pairs(entries, nf.zero)), nf)


@st.composite
def same_shape_pairs(draw, entries):
    n, m = draw(st.integers(1, 5)), draw(st.integers(1, 5))
    return tuple([[draw(entries) for _ in range(m)] for _ in range(n)] for _ in range(2))


def _sum_references(a_rows, b_rows, z):
    """The numeric references of ``+`` and ``-``: the accumulator pass of
    ``combine``, which starts each entry at the field's zero z, adds a and
    then adds or subtracts b, (z + a) + b and (z + a) - b.  On float
    entries as read they are the dense a + b and a - b, bit for bit."""
    sums = _entrywise(a_rows, b_rows, lambda a, b: (z + a) + b)
    diffs = _entrywise(a_rows, b_rows, lambda a, b: (z + a) - b)
    if all(type(x) is float for r in a_rows + b_rows for x in r):
        assert _reprs(sums) == _reprs(_entrywise(a_rows, b_rows, lambda a, b: a + b))
        assert _reprs(diffs) == _reprs(_entrywise(a_rows, b_rows, lambda a, b: a - b))
    return sums, diffs


def _check_entrywise(pair, c):
    # add, sub, neg and scale are plain entrywise arithmetic on the entries
    # as read: overflowing products and the signs of the zero parts of a
    # nonzero complex entry come out as the reference's, and a zero result
    # reads as the field's zero.  A sum's reference is the accumulator's
    # (z + a) +- b, where z + a turns the -0.0 parts of a complex a into 0.0
    nf = NumericField(1.3)
    z = nf.zero
    A, B = Matrix(pair[0], nf), Matrix(pair[1], nf)
    a_rows, b_rows = _read(pair[0], z), _read(pair[1], z)
    assert _reprs(A.rows) == _reprs(a_rows)
    sums, diffs = _sum_references(a_rows, b_rows, z)
    assert _reprs((A + B).rows) == _reprs(_read(sums, z))
    assert _reprs((A - B).rows) == _reprs(_read(diffs, z))
    assert _reprs((-A).rows) == _reprs(_read([[-a for a in ra] for ra in a_rows], z))
    scaled = _reprs(_read([[c * a for a in ra] for ra in a_rows], z))
    assert _reprs(A.scale(c).rows) == scaled
    assert _reprs((c * A).rows) == scaled


@given(same_shape_pairs(numeric_entries), numeric_entries)
@example(pair=([[complex(-0.0, -2.0), 1j]], [[0j, complex(-0.0, -0.0)]]), c=1j)
@settings(max_examples=150, deadline=None)
def test_entrywise_ops_match_reference_numeric(pair, c):
    _check_entrywise(pair, c)


@given(same_shape_pairs(float_entries), float_entries)
@settings(max_examples=150, deadline=None)
def test_entrywise_ops_match_reference_float(pair, c):
    _check_entrywise(pair, c)


#: zeros that are not the field's ZERO object take the arithmetic path
_CANCELLED = Scalar(1, 2) - Scalar(1, 2)
exact_entries = st.sampled_from([F.zero, F.zero, F.zero, Scalar(0), _CANCELLED,
                                 *entry_pool[1:], Scalar(1, [1, 1])])


@given(same_shape_pairs(exact_entries), exact_entries,
       product_pairs(exact_entries, F.zero))
@settings(max_examples=150, deadline=None)
def test_entrywise_ops_match_reference_exact(pair, c, product):
    # skipping the ZERO object changes no entry: every result entry equals
    # the plain entrywise Scalar arithmetic, and the dense inner product
    assert _CANCELLED == 0 and _CANCELLED is not F.zero
    a_rows, b_rows = pair
    A, B = Matrix(a_rows, F), Matrix(b_rows, F)
    rows = list(zip(a_rows, b_rows))
    assert (A + B).rows == [[a + b for a, b in zip(ra, rb)] for ra, rb in rows]
    assert (A - B).rows == [[a - b for a, b in zip(ra, rb)] for ra, rb in rows]
    assert (-A).rows == [[-a for a in ra] for ra in a_rows]
    scaled = [[c * a for a in ra] for ra in a_rows]
    assert A.scale(c).rows == scaled
    assert (c * A).rows == scaled
    P, R = (Matrix(r, F) for r in product)
    dense = [[sum((a * R.rows[k][j] for k, a in enumerate(ra)), F.zero) for j in range(R.m)]
             for ra in P.rows]
    assert (P @ R).rows == dense


@pytest.mark.parametrize("k", [0, 1, 37, 256])
def test_exact_scale_runs_on_images(k, monkeypatch):
    # scaling an exact matrix multiplies integer images: no Scalar product
    # is formed, whatever the number of nonzero entries
    calls = []
    mul = Scalar.__mul__

    def counted(self, other):
        calls.append(other)
        return mul(self, other)

    rows = [[F.zero] * 16 for _ in range(16)]
    for t in range(k):
        rows[t // 16][t % 16] = Q**t + 1
    A = Matrix(rows, F)
    monkeypatch.setattr(Scalar, "__mul__", counted)
    S = A.scale(Q + 2)
    monkeypatch.undo()
    assert calls == []
    assert S == Matrix([[(Q + 2) * a for a in r] for r in rows], F)


_NAN, _INF = float("nan"), float("inf")
nan_entries = st.one_of(numeric_entries, st.sampled_from(
    [complex(_NAN, 0.0), complex(-0.0, _NAN), complex(_INF, _NAN), 1e308 + 1e308j]))
nan_floats = st.one_of(float_entries, st.sampled_from([_NAN, -_NAN, _INF, -_INF, 1e308]))


def _check_entry_loops(pair, product, c):
    # the store gives the entry loops' arithmetic on the entries as read
    # exactly, overflow to inf and NaN propagation included; a sum gives
    # the accumulator's (z + a) +- b, an unstored entry adding nothing.  An
    # unstored entry is an exact zero: a scalar or a Kronecker factor that
    # is inf or NaN leaves it zero, where the dense passes made it NaN.
    nf = NumericField(1.3)
    z = nf.zero
    A, B = Matrix(pair[0], nf), Matrix(pair[1], nf)
    a_rows, b_rows = _read(pair[0], z), _read(pair[1], z)
    sums, diffs = _sum_references(a_rows, b_rows, z)
    assert _reprs((A + B).rows) == _reprs(_read(sums, z))
    assert _reprs((A - B).rows) == _reprs(_read(diffs, z))
    assert _reprs((-A).rows) == _reprs(_read([[-a for a in r] for r in a_rows], z))
    scaled = [[c * a if a else z for a in r] for r in a_rows]
    assert _reprs(A.scale(c).rows) == _reprs(_read(scaled, z))
    kron = [[a * b if a and b else z for a in ra for b in rb] for ra in a_rows for rb in b_rows]
    assert _reprs(A.kron(B).rows) == _reprs(_read(kron, z))
    P, R = (Matrix(r, nf) for r in product)
    assert _reprs((P @ R).rows) == _reprs(_read(dense_product(P, R), z))
    assert _reprs((P @ R).rows) == _reprs(_read(dense_loop_product(*product, z), z))


@given(same_shape_pairs(nan_entries), product_pairs(nan_entries, 0j), nan_entries)
@example(pair=([[complex(-0.0, _NAN)], [complex(-0.0, -2.0)]], [[0j], [complex(_INF, _NAN)]]),
         product=([[1j]], [[1j]]), c=complex(-0.0, 1.0))
@settings(max_examples=200, deadline=None)
def test_numeric_ops_are_the_entry_loops_bit_for_bit(pair, product, c):
    _check_entry_loops(pair, product, c)


@given(same_shape_pairs(nan_floats), product_pairs(nan_floats, 0.0), nan_floats)
@settings(max_examples=200, deadline=None)
def test_float_ops_are_the_entry_loops_bit_for_bit(pair, product, c):
    _check_entry_loops(pair, product, c)


# ------------------------------------------------------------------ images

#: Laurent entries (shifts up to 5, so products reach shift 10), entries
#: over integers and over polynomials prime to q, and three zeros of which
#: only F.zero is the ZERO object
image_pool = [F.zero, F.zero, Scalar(0), _CANCELLED, Scalar(1), Scalar(-3), Q, Q**-2,
              Q**3 - 5, Q + Q**-1, Scalar(1, 2), Scalar(5, 6) * Q**-1,
              1 / (Q - Q**-1), Q / (Q**2 + 1), (Q + 1) / (Scalar(3) * Q**2),
              Scalar(1, [1, 1]), (Q**2 - 2) / (Q**2 + Q + 1), Q**-5, (Q**2 + 3) * Q**-4]
image_entries = st.sampled_from(image_pool)


def _entrywise(rows_a, rows_b, op):
    return [[op(a, b) for a, b in zip(ra, rb)] for ra, rb in zip(rows_a, rows_b)]


def _dense(rows_a, rows_b):
    return [[sum((a * rb[j] for a, rb in zip(ra, rows_b)), F.zero)
             for j in range(len(rows_b[0]))] for ra in rows_a]


def _stored(M):
    """M's store: exactly its nonzero entries, so no empty row and no zero
    image; returns M."""
    nz = M._nz
    assert all(r and 0 not in r.values() for r in nz.values()), nz
    assert {(i, j) for i, r in nz.items() for j in r} == {
        (i, j) for i, r in enumerate(M.rows) for j, a in enumerate(r) if a}
    return M


def _check_image_ops(a_rows, b_rows, p_rows, r_rows, c, v):
    """Every operation on images against the plain Scalar arithmetic of the
    decoded entries, with each result's store holding exactly its nonzero
    entries: A, B of one shape, P @ R a product."""
    A, B = _stored(Matrix(a_rows, F)), _stored(Matrix(b_rows, F))
    assert A.rows == a_rows
    assert _stored(A + B).rows == _entrywise(a_rows, b_rows, lambda a, b: a + b)
    assert _stored(A - B).rows == _entrywise(a_rows, b_rows, lambda a, b: a - b)
    assert _stored(-A).rows == [[-a for a in r] for r in a_rows]
    assert _stored(A.scale(c)).rows == [[c * a for a in r] for r in a_rows]
    assert _stored(A.transpose()).rows == [list(col) for col in zip(*a_rows)]
    assert A.is_zero() == all(not a for r in a_rows for a in r)
    assert list(A.nonzero_entries()) == [(i, j, a) for i, r in enumerate(a_rows)
                                         for j, a in enumerate(r) if a]
    diffs = [(i, j, a - b) for i, (ra, rb) in enumerate(zip(a_rows, b_rows))
             for j, (a, b) in enumerate(zip(ra, rb)) if a != b]
    want = (True, None) if not diffs else (False, "entry ({},{}) = {}".format(*diffs[0]))
    assert relation([(1, None, A)], [(1, None, B)], F) == want
    assert (A == B) == (not diffs)
    assert relation([(1, None, A)], [(1, None, Matrix(a_rows, F))], F) == (True, None)
    P, R = (Matrix(r, F) for r in (p_rows, r_rows))
    p_r = _dense(p_rows, r_rows)
    assert _stored(P @ R).rows == p_r
    if P.n == P.m == R.m:
        r_p = _dense(r_rows, p_rows)
        assert _stored(qbracket(P, R, v)).rows == _entrywise(p_r, r_p, lambda x, y: x - v * y)
        assert _stored(commutator(P, R)).rows == _entrywise(p_r, r_p, lambda x, y: x - y)
    K = _stored(P.kron(B))
    assert K.rows == [[x * y for x in rp for y in rb] for rp in p_rows for rb in b_rows]
    # re-encoding in wider slots changes no entry and no stored position
    W = Matrix(a_rows, F)
    _refit(W, W._w + 3)
    assert _stored(W).rows == a_rows and W._w == A._w + 3 and W == A


@given(same_shape_pairs(image_entries), product_pairs(image_entries, F.zero),
       image_entries, image_entries)
@settings(max_examples=200, deadline=None)
def test_image_ops_match_scalar_arithmetic(pair, product, c, v):
    # every operation on images gives, entry by entry, the plain Scalar
    # arithmetic of the entries, over any mix of shifts and denominators
    _check_image_ops(*pair, *product, c, v)


#: mostly zeros, so that stored rows are short or absent
sparse_entries = st.sampled_from([F.zero] * 12 + image_pool)


@st.composite
def sparse_cases(draw):
    """(A, B, P, R) rows, shapes up to 12, from a mostly-zero pool, with
    forced cancellation: B is -A on a drawn set of rows, and P @ R is
    [P0 | P0] times R0 over R1, where R1 is -R0 on a drawn set of rows, so
    that each term through such a row cancels."""
    n, m = draw(st.integers(1, 12)), draw(st.integers(1, 12))
    a = [[draw(sparse_entries) for _ in range(m)] for _ in range(n)]
    b = [[draw(sparse_entries) for _ in range(m)] for _ in range(n)]
    for i in draw(st.sets(st.integers(0, n - 1))):
        b[i] = [-x for x in a[i]]
    pn, k, pm = draw(st.integers(1, 12)), draw(st.integers(1, 6)), draw(st.integers(1, 12))
    p0 = [[draw(sparse_entries) for _ in range(k)] for _ in range(pn)]
    r0 = [[draw(sparse_entries) for _ in range(pm)] for _ in range(k)]
    r1 = [[draw(sparse_entries) for _ in range(pm)] for _ in range(k)]
    for t in draw(st.sets(st.integers(0, k - 1))):
        r1[t] = [-x for x in r0[t]]
    return a, b, [r + r for r in p0], r0 + r1


@given(sparse_cases(), sparse_entries, image_entries,
       st.lists(st.integers(-2, 1), min_size=12, max_size=12))
@settings(max_examples=120, deadline=None)
def test_sparse_store_matches_scalar_arithmetic(case, c, v, degs):
    a_rows, b_rows, p_rows, r_rows = case
    _check_image_ops(a_rows, b_rows, p_rows, r_rows, c, v)
    A = Matrix(a_rows, F)
    assert _stored(A + (-A)).is_zero() and not (A - A)._nz
    # square operands: a full cancellation, and the split by degree shift
    X = _stored(A @ A.transpose())
    x_rows = _dense(a_rows, [list(col) for col in zip(*a_rows)])
    assert X.rows == x_rows and not qbracket(X, X, F.one)._nz
    g = Grading([(d,) for d in degs[:X.n]])
    comps = degree_components(X, g)
    assert {s: _stored(M).rows for s, M in comps.items()} == _components_reference(x_rows, g, F)


def _components_reference(rows, g, field):
    """{shift: rows} of the nonzero entries of rows by g.shift(i, j), entry
    by entry."""
    out = {}
    for i, r in enumerate(rows):
        for j, a in enumerate(r):
            if a:
                out.setdefault(g.shift(i, j), [[field.zero] * len(r) for _ in rows])[i][j] = a
    return out


@pytest.mark.parametrize("field", [F, NumericField(1.3), NumericField(complex(0.6, 0.8))],
                         ids=["exact", "float", "complex"])
def test_sparse_store_never_holds_a_zero_image(field):
    # over every backend no operation stores a zero value or an empty row;
    # the numeric matrices are the exact ones evaluated at q0
    def mat(rows):
        M = Matrix(rows, F)
        return M if field is F else M.map_entries(field.from_scalar, field)

    A = mat([[Q, F.zero, 1 / (Q + 1)], [F.zero] * 3, [Q**-2, Scalar(2), F.zero]])
    B = mat([[-Q, F.zero, F.one], [F.zero] * 3, [F.zero, Scalar(-2), Q]])
    assert A._nz.keys() == {0, 2}
    left = mat([[F.one, F.one], [F.one, F.zero]])
    right = mat([[Q, F.one], [-Q, F.one]])
    g = Grading([(0,), (-1,), (-2,)])
    results = {
        "A": A,
        "A + (-A)": A + (-A),
        "A - A": A - A,
        "A + B": A + B,
        "product, row 0 cancels": left @ right,
        "product, all cancels": mat([[Q, Q]]) @ mat([[F.one], [-F.one]]),
        "scale(0)": A.scale(0),
        "zeros": Matrix.zeros(4, 4, field),
        **{f"component {s}": M for s, M in degree_components(A + B, g).items()},
    }
    stores = {name: M._nz for name, M in results.items()}
    for name, nz in stores.items():
        assert all(r and 0 not in r.values() for r in nz.values()), name
    assert [(i, j) for i, j, _ in (A + B).nonzero_entries()] == [(0, 2), (2, 0), (2, 2)]
    if field is F:
        assert (A + B).rows == [[F.zero, F.zero, F.one + 1 / (Q + 1)], [F.zero] * 3,
                                [Q**-2, F.zero, Q]]
    assert (left @ right)._nz.keys() == {0, 1} and (left @ right).rows[0][0] == field.zero
    assert {name for name, nz in stores.items() if not nz} == {
        "A + (-A)", "A - A", "product, all cancels", "scale(0)", "zeros"}
    assert sorted(degree_components(A + B, g)) == [(-2,), (0,), (2,)]


@pytest.mark.parametrize("field", [F, NumericField(1.3)], ids=["exact", "numeric"])
def test_entrywise_ops_refuse_mismatched_shapes(field):
    # a 2x2 and a 3x3 matrix are neither added nor judged by relation: zip
    # would truncate to the smaller shape, and call them equal
    I2, I3 = Matrix.identity(2, field), Matrix.identity(3, field)
    Z23, Z32 = Matrix.zeros(2, 3, field), Matrix.zeros(3, 2, field)
    for X, Y, shapes in ((I2, I3, ("2x2", "3x3")), (Z23, Z32, ("2x3", "3x2"))):
        for op, run in (("+", lambda: X + Y), ("-", lambda: X - Y),
                        ("+", lambda: relation([(1, None, X)], [(1, None, Y)], field))):
            with pytest.raises(DomainError, match=re.escape(f"shape mismatch {shapes[0]} {op} "
                                                            f"{shapes[1]}")):
                run()
        assert X != Y


def test_image_slot_edges():
    # coefficients at +-(2^31 - 1), and 1-norms at 2^31 - 1, fill a 32-bit
    # slot exactly and decode
    top = 2**31 - 1
    rows = [[Scalar(top), Scalar([top - 5, 0, -5])], [Scalar(-top) * Q**-3, Q]]
    A = Matrix(rows, F)
    assert A._w == 4
    assert A.rows == rows
    # a product whose coefficients pass 2^31 is computed in wider slots
    sq = A @ A
    assert sq._w > 4
    assert sq.rows == _dense(rows, rows)
    assert (A + A).rows == _entrywise(rows, rows, lambda a, b: a + b)
    assert (A - A).is_zero() and A == Matrix(rows, F)
    # each entry of a product sums r products of entries: four terms of
    # 2^30 pass the slot, though each term alone stays inside it
    row = Matrix([[Scalar(2**15)] * 4], F)
    assert (row @ row.transpose()).rows == [[Scalar(2**32)]]
    # 2^32 - q is nonzero, though it vanishes at q = 2^32: a difference whose
    # coefficient reaches the slot is never judged zero
    half = Matrix([[Scalar(2**16)]], F)
    X, Y = half @ half, Matrix([[Q]], F)
    assert X.rows == [[Scalar(2**32)]]
    assert (X - Y).rows == [[Scalar([2**32, -1])]]
    assert not (X - Y).is_zero()
    assert X != Y
    assert relation([(1, None, X)], [(1, None, Y)], F) == (False, "entry (0,0) = -q+4294967296")


def test_image_product_takes_out_the_shared_power_of_q():
    # shifts 5 and 3 add to 8; the product's one entry 2 q^-4 keeps q^4 of
    # that shift, and its image holds no zero slots
    A, B = Matrix([[Q**-5, Q**-1]], F), Matrix([[Q], [Q**-3]], F)
    assert (A._k, B._k) == (5, 3)
    P = A @ B
    assert P.rows == [[Scalar(2) * Q**-4]] and P._k == 4 and P._nz == {0: {0: 2}}
    # entries that share no power of q keep the whole shift
    rows_c = [[Q**-5, Scalar(1)], [F.zero, Q**-4]]
    rows_d = [[Q**-3, F.zero], [Scalar(1), Q**-3 + 1]]
    R = Matrix(rows_c, F) @ Matrix(rows_d, F)
    assert R._k == 8 and R.rows == _dense(rows_c, rows_d)
    # the shift of a tower of products does not grow with each factor
    S = Matrix([[F.zero, Q**-5], [Q**5, F.zero]], F)
    T = Matrix.identity(2, F)
    for _ in range(6):
        T = T @ S
    assert T == Matrix.identity(2, F) and T._k == 0 and T._nz == {0: {0: 1}, 1: {1: 1}}
    Z = Matrix([[Q**-5, F.zero]], F) @ Matrix([[F.zero], [Q**-3]], F)
    assert Z.is_zero() and Z._k == 8 and Z._nz == {}


def test_image_rows_decode_lazily_and_refuse_writes():
    A = Matrix([[Q, F.zero], [F.zero, Q**-1]], F)
    assert A._rows is None
    assert list(A.nonzero_entries()) == [(0, 0, Q), (1, 1, Q**-1)]
    assert A._rows is None
    assert A.rows[1][1] == Q**-1
    assert A.rows is A.rows
    # a write through the decoded rows would miss the images: it fails
    for write in (lambda r: r[0].__setitem__(1, Q), lambda r: r.__setitem__(0, [Q, Q]),
                  lambda r: r[1].append(Q), lambda r: r[0].__iadd__([Q])):
        with pytest.raises(DomainError, match="read-only"):
            write(A.rows)
    assert A.rows == [[Q, F.zero], [F.zero, Q**-1]] and A == Matrix(A.rows, F)
    assert A.rows[0][:] + [Q] == [Q, F.zero, Q]


def test_exact_entries_are_coerced_to_scalars():
    # every exact matrix is held as images: ints and Fractions are Scalars
    A = Matrix([[0, 1], [Fraction(1, 2), -3]], F)
    assert (A._nz, A._d) == ({0: {1: 2}, 1: {0: 1, 1: -6}}, [2])
    assert A.rows == [[F.zero, F.one], [Scalar(1, 2), Scalar(-3)]]
    assert A == Matrix([[F.zero, F.one], [Scalar(1, 2), Scalar(-3)]], F)
    assert Matrix.diagonal([2, Q], F).rows == [[Scalar(2), F.zero], [F.zero, Q]]
    with pytest.raises(DomainError, match="holds Scalars, not float"):
        Matrix([[1.5]], F)
    with pytest.raises(DomainError, match="holds Scalars, not complex"):
        A.scale(1j)


def test_product_shape_mismatch():
    with pytest.raises(DomainError, match="shape mismatch 2x3 @ 2x3"):
        Matrix.zeros(2, 3, F) @ Matrix.zeros(2, 3, F)


@given(mats(2), mats(2), mats(2), mats(2))
@settings(max_examples=20)
def test_kron_mixed_product(A, B, C, D):
    assert A.kron(B) @ C.kron(D) == (A @ C).kron(B @ D)


def serre_sum(X, Y, n, field):
    """The reference form of a Serre-type relation: the alternating
    q-binomial sum sum_r (-1)^r [n r] X^(n-r) Y X^r, powers by repeated
    products."""
    powers = [Matrix.identity(X.n, field)]
    for _ in range(n):
        powers.append(powers[-1] @ X)
    out = Matrix.zeros(X.n, X.n, field)
    for r in range(n + 1):
        term = (powers[n - r] @ Y @ powers[r]).scale(field.from_scalar(qbinom(n, r)))
        out = out - term if r % 2 else out + term
    return out


@given(mats(3), mats(3), st.integers(1, 3))
@settings(max_examples=40, deadline=None)
def test_nested_bracket_is_the_alternating_sum_exact(X, Y, n):
    left, right = map(combine, serre_sides(X, Y, n, F.q))
    assert left - right == serre_sum(X, Y, n, F)


@given(st.lists(st.floats(-2, 2), min_size=18, max_size=18), st.integers(1, 3),
       st.sampled_from([1.3, 0.7, complex(0.6, 0.8)]))
@settings(max_examples=60, deadline=None)
def test_nested_bracket_is_the_alternating_sum_numeric(vals, n, q0):
    # entries within 2 keep rounding far below the tolerance at scale 1
    field = NumericField(q0)
    X = Matrix([vals[0:3], vals[3:6], vals[6:9]], field)
    Y = Matrix([vals[9:12], vals[12:15], vals[15:18]], field)
    left, right = map(combine, serre_sides(X, Y, n, field.q))
    ok, w = relation([(1, None, left), (-1, None, right)], [(1, None, serre_sum(X, Y, n, field))],
                     field)
    assert ok, w


# ------------------------------------------------------------------ combine

_FIELDS = {"exact": F, "float": NumericField(1.3), "complex": NumericField(complex(0.6, 0.8))}


def _fold(terms):
    """Reference: the combination as the chain of ``@``, ``scale``, ``+``
    and ``-`` it stands for, left to right."""
    acc = None
    for s, c, X, *Y in terms:
        M = X @ Y[0] if Y else X
        if c is not None:
            M = M.scale(c)
        if acc is None:
            acc = M if s > 0 else -M
        else:
            acc = acc + M if s > 0 else acc - M
    return acc


@st.composite
def combinations(draw, entries, coeffs):
    """1 to 6 terms (s, c, M) or (s, c, X, Y) of one n x m shape, their
    rows drawn from ``entries`` and their coefficients from ``coeffs``."""
    n, m = draw(st.integers(1, 4)), draw(st.integers(1, 4))

    def block(r, c):
        return [[draw(entries) for _ in range(c)] for _ in range(r)]

    terms = []
    for _ in range(draw(st.integers(1, 6))):
        s, c = draw(st.sampled_from([1, -1])), draw(coeffs)
        if draw(st.booleans()):
            p = draw(st.integers(1, 4))
            terms.append((s, c, block(n, p), block(p, m)))
        else:
            terms.append((s, c, block(n, m)))
    return terms


def _matrices(terms, field):
    return [(s, c, *(Matrix(rows, field) for rows in ms)) for s, c, *ms in terms]


@pytest.mark.parametrize("name", ["float", "complex"])
@given(data=st.data())
@settings(max_examples=100, deadline=None)
def test_combine_one_product_is_the_dense_loop_bit_for_bit(name, data):
    # the one product with neither coefficient nor sign is the numeric
    # product itself, overflow to inf and NaN propagation included
    nf = _FIELDS[name]
    z = nf.zero
    pair = data.draw(product_pairs(nan_floats if name == "float" else nan_entries, z))
    A, B = (Matrix(rows, nf) for rows in pair)
    C = combine([(1, None, A, B)])
    assert _reprs(C.rows) == _reprs(_read(dense_loop_product(*pair, z), z))
    assert _reprs((A @ B).rows) == _reprs(C.rows)


@pytest.mark.parametrize("name", ["float", "complex"])
@given(data=st.data())
@settings(max_examples=100, deadline=None)
def test_combine_sign_subtracts(name, data):
    # a sign of -1 subtracts each entry from the field's zero, as the dense
    # difference does; multiplying an infinite complex entry by -1 would
    # make a NaN part instead
    nf = _FIELDS[name]
    rows = data.draw(same_shape_pairs(nan_floats if name == "float" else nan_entries))[0]
    A = Matrix(rows, nf)
    Z = Matrix.zeros(A.n, A.m, nf)
    assert _reprs(combine([(-1, None, A)]).rows) == _reprs((Z - A).rows)
    assert _reprs(combine([(1, None, A), (-1, None, A)]).rows) == _reprs((A - A).rows)


def _store(M):
    """Everything a matrix holds, as text: NaNs print alike."""
    return repr((M.n, M.m, M._nz, M._k, M._d, M._w, M._h))


@pytest.mark.parametrize("name", sorted(_FIELDS))
@given(data=st.data())
@settings(max_examples=100, deadline=None)
def test_sum_and_difference_are_the_two_term_combination(name, data):
    # A + B and A - B store what combine stores for (1, A) and (+-1, B):
    # over the numeric backend one accumulator pass, over the exact one
    # the sum of images; each side gets operands of its own, since an
    # exact operation may re-encode its operands in wider slots
    field = _FIELDS[name]
    entries = {"exact": image_entries, "float": nan_floats}.get(name, nan_entries)
    pair = data.draw(same_shape_pairs(entries))
    for sign, op in ((1, Matrix.__add__), (-1, Matrix.__sub__)):
        A, B = (Matrix(rows, field) for rows in pair)
        got = op(A, B)
        A, B = (Matrix(rows, field) for rows in pair)
        assert _store(got) == _store(combine(((1, None, A), (sign, None, B)))), sign


_float_coeffs = st.one_of(st.none(), st.floats(-3, 3))
_complex_coeffs = st.one_of(st.none(), st.builds(complex, st.floats(-3, 3), st.floats(-3, 3)))


@pytest.mark.parametrize("name", ["float", "complex"])
@given(data=st.data())
@settings(max_examples=150, deadline=None)
def test_combine_agrees_with_the_fold(name, data):
    # one row pass rounds otherwise than the chain of products, scalings
    # and sums, within 1e-13 of the fold's scale: the largest entry of the
    # same chain on absolute values, which bounds every partial sum
    nf = _FIELDS[name]
    entries = (st.floats(-10, 10) if name == "float"
               else st.builds(complex, st.floats(-10, 10), st.floats(-10, 10)))
    coeffs = _float_coeffs if name == "float" else _complex_coeffs
    terms = _matrices(data.draw(combinations(entries, coeffs)), nf)
    got, want = combine(terms), _fold(terms)
    absolute = _fold([(1, None if c is None else abs(c),
                       *(Matrix([[abs(x) for x in r] for r in M.rows], nf) for M in ms))
                      for _, c, *ms in terms])
    scale = max(1.0, absolute.max_abs())
    assert (got.n, got.m) == (want.n, want.m)
    worst = max((abs(a - b) for ra, rb in zip(got.rows, want.rows) for a, b in zip(ra, rb)),
                default=0.0)
    assert worst <= 1e-13 * scale, (worst, scale)


#: coefficient objects that recur, so that terms share one
_exact_coeffs = st.sampled_from([None, Q, Q**-2, Scalar(2), Scalar(-1, 3), Q + 1,
                                 1 / (Q + Q**-1)])


@given(combinations(st.sampled_from(image_pool), _exact_coeffs))
@settings(max_examples=100, deadline=None)
def test_combine_is_the_fold_exactly(terms):
    # summing the terms over the lcm of their denominators changes no entry
    terms = _matrices(terms, F)
    assert combine(terms) == _fold(terms)


#: the denominators of the exact pass's operands, numerators with shifts,
#: and numerators whose products pass half a 32-bit slot
_PASS_DENS = [Scalar(1), Q**2 - 1, Q**2 + 1]
_PASS_NUMS = [F.zero, F.zero, Scalar(1), Scalar(-2), Q, Q**-1, Q**-3 + 2, (Q**3 - 1) * Q**-2,
              Scalar(2**20) * Q**-1, Scalar(2**20) + Q, Scalar(2**19) - Q**2]
#: q^-2, [2], 1/[2] and [2m]/m, and one coefficient in lowest terms
_PASS_COEFFS = [None, Q**-2, qint(2), 1 / qint(2), qint(4) / 2, qint(6) / 3, Scalar(-1, 3)]


@st.composite
def exact_combinations(draw, shape=None):
    """1 to 5 exact terms of one n x m shape, drawn when shape is None,
    each of both signs; every matrix has entries over one denominator of
    ``_PASS_DENS``."""
    n, m = shape or (draw(st.integers(1, 3)), draw(st.integers(1, 3)))

    def block(r, c):
        den = draw(st.sampled_from(_PASS_DENS))
        return Matrix([[draw(st.sampled_from(_PASS_NUMS)) / den for _ in range(c)]
                       for _ in range(r)], F)

    terms = []
    for _ in range(draw(st.integers(1, 5))):
        s, c = draw(st.sampled_from([1, -1])), draw(st.sampled_from(_PASS_COEFFS))
        if draw(st.booleans()):
            p = draw(st.integers(1, 3))
            terms.append((s, c, block(n, p), block(p, m)))
        else:
            terms.append((s, c, block(n, m)))
    return terms


def _scalar_sum(terms):
    """Reference: the combination entry by entry in Scalar arithmetic on
    the decoded rows."""
    n, m = terms[0][2].n, terms[0][-1].m
    out = [[F.zero] * m for _ in range(n)]
    for s, c, X, *Y in terms:
        rows = _dense(X.rows, Y[0].rows) if Y else X.rows
        c = F.one if c is None else c
        for i in range(n):
            for j in range(m):
                x = rows[i][j] * c
                out[i][j] = out[i][j] + x if s > 0 else out[i][j] - x
    return out


@given(exact_combinations())
@settings(max_examples=200, deadline=None)
def test_exact_pass_is_the_chain_of_products_scalings_and_sums(terms):
    # one row pass over the lcm of the denominators, with each term's sign,
    # coefficient, cofactor and shift folded into one integer and the
    # operands refitted to one slot
    want = _scalar_sum(terms)
    got = combine(terms)
    assert _stored(got).rows == want
    assert got == _fold(terms)


def test_exact_pass_refits_and_widens_its_operands():
    # a stale height bound is taken down before a slot is widened; a bound
    # that still passes half the slot widens it
    X = Matrix([[Scalar(2**30)]], F) + Matrix([[Scalar(1 - 2**30)]], F)
    assert X.rows == [[F.one]] and X._h >= 2**31 - 1
    P = combine([(1, Q**-2, X, X), (-1, None, X)])
    assert P.rows == [[Q**-2 - 1]] and P._w == 4 and X._h == 1
    A, B = Matrix([[Scalar(2**20) * Q**-1]], F), Matrix([[Scalar(2**20) + Q]], F)
    W = combine([(1, qint(2), A, B), (1, None, B)])
    assert W._w > 4 and A._w == B._w == W._w
    assert W.rows == [[qint(2) * (Scalar(2**40) * Q**-1 + Scalar(2**20)) + Scalar(2**20) + Q]]


@st.composite
def damaged_relations(draw, name):
    """(lhs, rhs): a combination and the same terms reversed, plus, when
    damaged, a term that changes one entry."""
    field = _FIELDS[name]
    if field.exact:
        lhs = draw(exact_combinations())
    else:
        entries = (st.floats(-3, 3) if name == "float"
                   else st.builds(complex, st.floats(-3, 3), st.floats(-3, 3)))
        coeffs = _float_coeffs if name == "float" else _complex_coeffs
        lhs = _matrices(draw(combinations(entries, coeffs)), field)
    rhs = lhs[::-1]
    if draw(st.booleans()):
        n, m = lhs[0][2].n, lhs[0][-1].m
        i, j = draw(st.integers(0, n - 1)), draw(st.integers(0, m - 1))
        rows = [[field.zero] * m for _ in range(n)]
        rows[i][j] = field.one if field.exact else draw(st.sampled_from([1e-9, 0.5, 3.0]))
        rhs = [*rhs, (draw(st.sampled_from([1, -1])), None, Matrix(rows, field))]
    return lhs, rhs


@pytest.mark.parametrize("name", sorted(_FIELDS))
@given(data=st.data())
@settings(max_examples=100, deadline=None)
def test_relation_judges_as_meq_of_the_combined_sides(name, data):
    # the numeric judge is _meq of the two combined sides; the exact judge
    # builds neither side, and names the entry and value the built sides
    # differ by first
    field = _FIELDS[name]
    lhs, rhs = data.draw(damaged_relations(name))
    got = relation(lhs, rhs, field)
    if not field.exact:
        assert got == _meq(combine(lhs), combine(rhs))
        return
    assert got == _first_difference(combine(lhs).rows, combine(rhs).rows)
    assert got[0] == (len(rhs) == len(lhs))


def _first_difference(a_rows, b_rows):
    """Reference: (ok, witness) of A = B on the decoded rows of the built
    sides, the witness naming their first differing entry in row-major
    order and A - B there."""
    for i, (ra, rb) in enumerate(zip(a_rows, b_rows)):
        for j, (a, b) in enumerate(zip(ra, rb)):
            if a != b:
                return False, f"entry ({i},{j}) = {a - b}"
    return True, None


@st.composite
def grouped_relations(draw):
    """(lhs, rhs): two exact combinations of one shape, or one and its
    terms reversed, and then one more term, the same on both sides, which
    cancels in lhs - rhs.  The terms' matrices lie over the denominators
    of ``_PASS_DENS``, so the difference pass sums terms over several
    denominators."""
    lhs = draw(exact_combinations())
    shape = lhs[0][2].n, lhs[0][-1].m
    rhs = lhs[::-1] if draw(st.booleans()) else draw(exact_combinations(shape))
    pair = draw(exact_combinations(shape))[0]
    at = draw(st.integers(0, len(lhs)))
    return [*lhs[:at], pair, *lhs[at:]], [pair, *rhs]


@given(grouped_relations())
@settings(max_examples=200, deadline=None)
def test_exact_relation_witness_is_the_first_difference_of_the_sides(sides):
    # the witness is read off the difference pass, over the lcm of its
    # terms' denominators, and decodes to the canonical value of
    # lhs - rhs at the first entry where the built sides differ
    lhs, rhs = sides
    assert relation(lhs, rhs, F) == _first_difference(combine(lhs).rows, combine(rhs).rows)


def test_exact_relation_witness_over_two_denominator_groups():
    # a cancelling pair over q^2 - 1 and two terms over q^2 + 1 that differ
    # at (0, 0) by 4 q^-2 / (q^2 + 1)
    pair = (1, None, Matrix([[Scalar(1) / (Q**2 - 1), Q]], F))
    lhs = [pair, (1, Q**-2, Matrix([[Scalar(2) / (Q**2 + 1), F.one]], F))]
    rhs = [pair, (-1, Q**-2, Matrix([[Scalar(2) / (Q**2 + 1), F.zero]], F))]
    assert relation(lhs, rhs, F) == (False, "entry (0,0) = (4)/(q^4+q^2)")


#: scalars whose denominators have a part prime to q
_SCALES = [1 / qint(2), Scalar(-1, 3), qint(6) / 3, (Q**2 - 1) / 5]


@st.composite
def multi_denominator_combinations(draw):
    """Exact terms of one shape, in a drawn order, over at least three
    distinct denominators: a matrix term over q^2 - 1, a product term
    whose coefficient 1/[2] brings q^2 + 1, and a term whose coefficient
    brings 3; then a product term and its negation, which cancel, and the
    terms of ``exact_combinations``."""
    n, m = draw(st.integers(1, 3)), draw(st.integers(1, 3))

    def block(r, c, den=None):
        den = den or draw(st.sampled_from(_PASS_DENS))
        rows = [[draw(st.sampled_from(_PASS_NUMS)) / den for _ in range(c)] for _ in range(r)]
        # an entry 1/den keeps den in the matrix's denominator, and the
        # matrix nonzero
        rows[0][0] = 1 / den
        return Matrix(rows, F)

    p = draw(st.integers(1, 3))
    sign = st.sampled_from([1, -1])
    pair = (draw(sign), draw(st.sampled_from(_PASS_COEFFS)), block(n, p), block(p, m))
    terms = [(draw(sign), None, block(n, m, Q**2 - 1)),
             (draw(sign), 1 / qint(2), block(n, p, Scalar(1)), block(p, m, Scalar(1))),
             (draw(sign), Scalar(-1, 3), block(n, m)),
             pair, (-pair[0], *pair[1:]),
             *draw(exact_combinations((n, m)))]
    return draw(st.permutations(terms))


def _bounded(M):
    """M, after checking that its height bound holds every decoded 1-norm
    and stays below half a slot."""
    assert M._h.bit_length() < 8 * M._w
    assert all(sum(map(abs, _unpack(v, M._w))) <= M._h
               for r in M._nz.values() for v in r.values())
    return M


def _one_pass(op, want=1):
    """op(), checking that it runs ``_image_pass`` want times, once unless
    every operand stores nothing, and that each pass's result is
    ``_bounded``."""
    passes = []
    run = linmat._image_pass

    def counted(*args):
        passes.append(_bounded(run(*args)))
        return passes[-1]

    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(linmat, "_image_pass", counted)
        got = op()
    assert len(passes) == want
    return got


@given(multi_denominator_combinations(), st.integers(1, 8))
@settings(max_examples=100, deadline=None)
def test_every_exact_linear_operation_is_one_pass(terms, at):
    # however many denominators its terms have, each exact combination,
    # relation, sum, difference, equality and scaling sums its terms in
    # one row pass over their lcm, and gives the Scalar arithmetic of the
    # decoded rows
    at = min(at, len(terms) - 1)
    lhs, rest = terms[:at], terms[at:]
    rhs = [(-s, *t) for s, *t in rest]
    want = _scalar_sum(terms)
    assert _bounded(_stored(_one_pass(lambda: combine(terms)))).rows == want
    assert _one_pass(lambda: relation(lhs, rhs, F)) == _first_difference(
        _scalar_sum(lhs), _scalar_sum(rhs))
    assert _one_pass(lambda: relation(terms, terms[::-1], F)) == (True, None)
    # a sum of terms can cancel to a matrix that stores nothing
    A, B = combine(lhs), combine(rest)
    a_rows, b_rows = A.rows, B.rows
    both, one = int(bool(A._nz or B._nz)), int(bool(A._nz))
    assert _bounded(_stored(_one_pass(lambda: A + B, both))).rows == want
    assert _bounded(_stored(_one_pass(lambda: A - B, both))).rows == _entrywise(
        a_rows, b_rows, lambda a, b: a - b)
    assert _one_pass(lambda: A == B, both) == (a_rows == b_rows)
    for c in _SCALES:
        S = _bounded(_stored(_one_pass(lambda: A.scale(c), one)))
        assert S.rows == [[c * a for a in r] for r in a_rows]


def test_exact_scaling_keeps_the_factor_it_shares_with_the_denominator():
    # [2] = (q^2 + 1)/q shares q^2 + 1 with A's denominator, and scaling
    # leaves it in both: the images are multiplied, D is kept, and the
    # entries decode to their canonical values all the same
    rows = [[1 / (Q**2 + 1), Q / (Q**2 + 1)], [F.zero, Scalar(2)]]
    A = Matrix(rows, F)
    assert A._d == [1, 0, 1]
    c = qint(2)
    S = A.scale(c)
    assert S._d == A._d
    assert S.rows == [[c * a for a in r] for r in rows]
    assert S.scale(1 / c) == A and (1 / c) * S == A
    T = A.scale((Q**2 + 1) / (Q - 1))
    assert T._d == pmul(A._d, [-1, 1])
    assert T.scale((Q - 1) / (Q**2 + 1)) == A
    # scaling by zero, or scaling the zero matrix, stores nothing
    for z in (0, F.zero, Scalar(0), _CANCELLED):
        assert A.scale(z)._nz == {} and A.scale(z).is_zero()
    for Z in (Matrix.zeros(2, 3, F), Matrix([[F.zero] * 3] * 2, F)):
        assert Z.scale(c)._nz == {} and Z.scale(c) == Matrix.zeros(2, 3, F)


@pytest.mark.parametrize("name", sorted(_FIELDS))
def test_combine_refuses_no_terms_and_mismatched_shapes(name):
    field = _FIELDS[name]
    I2, I3 = Matrix.identity(2, field), Matrix.identity(3, field)
    Z23 = Matrix.zeros(2, 3, field)
    with pytest.raises(DomainError, match="at least one term"):
        combine([])
    with pytest.raises(DomainError, match="shape mismatch 2x2 \\+ 3x3"):
        combine([(1, None, I2), (1, None, I3)])
    with pytest.raises(DomainError, match="shape mismatch 2x2 \\+ 3x3"):
        combine([(1, None, I2, I2), (-1, field.one, I3, I3)])
    with pytest.raises(DomainError, match="shape mismatch 2x3 @ 2x2"):
        combine([(1, None, Z23, I2)])
    with pytest.raises(DomainError, match="a term on each side"):
        relation([(1, None, I2)], [], field)
    with pytest.raises(DomainError, match="shape mismatch 2x2 \\+ 3x3"):
        relation([(1, None, I2)], [(1, None, I3)], field)
    # one unscaled matrix is returned as it is
    assert combine([(1, None, I3)]) is I3


# ------------------------------------------------------------------ gradings


def test_grading_total():
    gt = Grading([(0, 0), (0, -1), (0, -2), (-1, 0), (-1, -1), (-1, -2)])
    assert gt.total().degrees == [(0,), (-1,), (-2,), (-1,), (-2,), (-3,)]


@given(mats(4), st.lists(st.integers(-3, 0), min_size=4, max_size=4))
@settings(max_examples=30)
def test_degree_components_reassemble(A, degs):
    g = Grading([(d,) for d in degs])
    comps = degree_components(A, g)
    total = Matrix.zeros(4, 4, F)
    for M in comps.values():
        total = total + M
    assert total == A
    # each component is a pure shift
    for s, M in comps.items():
        for i, j, a in M.nonzero_entries():
            assert g.shift(i, j) == s


@given(st.lists(st.lists(st.sampled_from([0.0, -0.0, 1.0, -2.5, 0.1, 3.0]),
                         min_size=5, max_size=5), min_size=5, max_size=5),
       st.lists(st.tuples(st.integers(-2, 0), st.integers(-1, 0)), min_size=5, max_size=5))
@settings(max_examples=60, deadline=None)
def test_numeric_degree_components_match_per_entry_shifts(rows, degs):
    # one shift per pair of degree vectors gives the components that
    # grouping entry by entry gives, bit for bit
    nf = NumericField(1.3)
    g = Grading(degs)
    comps = degree_components(Matrix(rows, nf), g)
    want = _components_reference(rows, g, nf)
    assert {s: _reprs(M.rows) for s, M in comps.items()} == {
        s: _reprs(r) for s, r in want.items()}


def test_degree_components_vanish_at_the_operator_scale():
    # a lowering residue of 1e-15 beside O(1) entries is no component over
    # the numeric backend; 1e-6 is, and over Q(q) any nonzero entry is
    g = Grading([(0,), (-1,)])
    nf = NumericField(1.3)
    for low, kept in ((1e-15, [(0,), (1,)]), (1e-6, [(-1,), (0,), (1,)])):
        A = Matrix([[2.0, 1.0], [low, 3.0]], nf)
        assert sorted(degree_components(A, g)) == kept
    comps = degree_components(A, g)
    assert comps[(-1,)].rows == [[0, 0], [1e-6, 0]]
    A = Matrix([[Scalar(2), Scalar(1)], [Scalar(1, 10**15), Scalar(3)]], F)
    assert sorted(degree_components(A, g)) == [(-1,), (0,), (1,)]


# ------------------------------------------------------------------ numeric


def test_numeric_zero_test_is_one_bound_on_the_largest_entry():
    # one is_zero call on the largest |entry| gives the per-entry verdict,
    # and a NaN anywhere, which max alone passes over, is never zero
    nf = NumericField(1.3)
    nan = complex(_NAN, 0.0)
    for rows, scale, want in (
        ([[1e-10, 0j], [-1e-10j, 0j]], 1.0, True),
        ([[1e-10, 0j], [0j, 2e-9]], 1.0, False),
        ([[1e-10, 0j], [0j, 2e-9]], 2.0, True),
        ([[0j, nan], [0j, 0j]], 1.0, False),
        ([[nan, 0j], [0j, 0j]], 1.0, False),
        ([[0j, 0j], [0j, complex(_INF, _NAN)]], 1.0, False),
        # the entries of a numeric matrix at a real q0
        ([[1e-10, -0.0], [-1e-10, 0.0]], 1.0, True),
        ([[1e-10, 0.0], [0.0, -2e-9]], 1.0, False),
        ([[0.0, _NAN], [0.0, 0.0]], 1.0, False),
        ([[-_NAN, 0.0], [0.0, 0.0]], 1.0, False),
        ([[0.0, 0.0], [0.0, _INF]], 1.0, False),
        ([[-_INF, 0.0], [0.0, _NAN]], 1.0, False),
    ):
        M = Matrix(rows, nf)
        assert M.is_zero(scale) is want
        assert M.is_zero(scale) == all(nf.is_zero(a, scale) for r in rows for a in r)
    for bad in (nan, _NAN, _INF):
        A = Matrix([[1.0, 0.0], [0.0, bad]], nf)
        assert _meq(A, A)[0] is False
    A, B = Matrix([[2.0, 1.0], [0j, 3.0]], nf), Matrix([[2.0, 1.0], [1e-6, 3.0]], nf)
    assert _meq(A, B) == (False, "entry (1,0) residual 1.000e-06 at scale 3.000e+00")


def test_numeric_matrix_roundtrip():
    nf = NumericField(1.3)
    K = Matrix.diagonal([nf.q, 1 / nf.q], nf)
    E = Matrix([[0j, nf.one], [0j, 0j]], nf)
    got = qbracket(K, E, nf.one)
    expected = E.scale(nf.q - 1 / nf.q)
    assert (got - expected).is_zero()


_NON_FINITE = [_NAN, -_NAN, complex(_NAN, 0.0), complex(0.0, _NAN), complex(_INF, _NAN),
               _INF, -_INF, complex(0.0, -_INF)]


@given(same_shape_pairs(nan_entries), st.data(), st.sampled_from(_NON_FINITE),
       st.sampled_from([1.3, complex(0.6, 0.8)]))
@settings(max_examples=150, deadline=None)
def test_meq_never_passes_a_nan_entry(pair, data, bad, q0):
    # a NaN or infinite entry is stored (it is not zero), so it reaches
    # the difference, or the scale, which is then not finite: no matrix with
    # one equals anything, itself and a copy with the same entry included.
    # |inf + nan j| is inf, so at the infinite scale it sets, a tolerance
    # would have passed it against any matrix.
    nf = NumericField(q0)
    a_rows, b_rows = pair
    i = data.draw(st.integers(0, len(a_rows) - 1))
    j = data.draw(st.integers(0, len(a_rows[0]) - 1))
    a_rows[i][j] = bad
    A = Matrix(a_rows, nf)
    for B in (A, Matrix(a_rows, nf), Matrix(b_rows, nf)):
        assert _meq(A, B)[0] is False
        assert _meq(B, A)[0] is False


@pytest.mark.parametrize("q0", [1.3, complex(0.6, 0.8)])
def test_meq_reads_a_nan_side_in_either_order(q0):
    # the scale is taken over both sides at once, so a NaN on either side
    # makes it NaN, and the witness names the NaN residual before the
    # finite one at (0, 1); max(a, b, 1.0) kept its first argument against
    # a NaN, and max by |residual| could pass the NaN over
    nf = NumericField(q0)
    A = Matrix([[1.0, 2.0], [3.0, 4.0]], nf)
    C = Matrix([[1.0, 2.5], [3.0, _NAN]], nf)
    for X, Y in ((A, C), (C, A)):
        ok, witness = _meq(X, Y)
        assert not ok
        assert witness == "entry (1,1) residual nan at scale nan"


def test_numeric_family_stores_no_negative_zero():
    # the dense float store kept a -0.0 wherever a sum of zeros or a
    # negation made one: 21 of the 765 family entries of W_2(q) at q0 = 1.3
    # (H_1/[2] and the acute tower then stored too), where the complex run
    # reads 0.0.  The sparse store holds no zero, so every zero entry of the
    # 69 family matrices reads as the field's 0.0.
    from qonsager.onsager import RankNParams
    from qonsager.ranka import build_vector_evaluation, generate_rankn_family

    nf = NumericField(1.3)
    fam = generate_rankn_family(build_vector_evaluation(2, Q, nf), RankNParams([1, 1, 1]),
                                R=6, T=6)
    mats = list(fam.B.values())
    for i in fam.A:
        mats += [*fam.A[i].values(), *(fam.H[i][m] for m in fam.H[i]),
                 *fam.theta[i].values(), *fam.theta_grave[i].values()]
    entries = [x for M in mats for r in M.rows for x in r]
    assert len(entries) == 621
    zeros = [repr(x) for x in entries if not x]
    assert zeros and set(zeros) == {"0.0"}


# ------------------------------------------------------------------ reduction

#: primitive factors with a positive leading coefficient and f(0) != 0
_FACTORS = [[1, 0, 1], [-3, 2], [1, 1], [1, 1, 1], [-1, 0, 1]]
_small_polys = st.lists(st.integers(-5, 5), max_size=4).map(pnorm)
_nonzero_polys = st.lists(st.integers(-5, 5), min_size=1, max_size=4).filter(lambda p: p[-1])
_denominators = st.lists(st.integers(-5, 5), min_size=1, max_size=4).filter(
    lambda p: p[0] and p[-1] > 0)


def _image_matrix(polys, d, k=0, w=4):
    """The matrix that stores P_ij = polys[i][j] over the denominator d at
    the shift k, in slots of w bytes, as the image operations leave it:
    nothing that P_ij and d share is taken out."""
    nz = {}
    for i, r in enumerate(polys):
        row = {j: _pack(p, w) for j, p in enumerate(r) if p}
        if row:
            nz[i] = row
    h = max((sum(map(abs, p)) for r in polys for p in r), default=0)
    assert h.bit_length() < 8 * w
    return Matrix._image(nz, len(polys), len(polys[0]), F, k, d, w, h)


def _check_reduced(M, polys):
    """_reduced(M) for M = _image_matrix(polys, ...), checked: each entry
    is still P_ij / (D q^k), the store is valid and its height is the
    exact largest 1-norm of its images, below half a slot."""
    R = _stored(_reduced(M))
    want = [[Scalar(p, [0] * M._k + M._d) if p else F.zero for p in r] for r in polys]
    assert R.rows == want and R == M
    norms = [sum(map(abs, _unpack(v, R._w))) for r in R._nz.values() for v in r.values()]
    assert R._h == max(norms, default=0) and R._h.bit_length() < 8 * R._w
    assert R._d[-1] > 0 and R._d[0]
    return R


@given(st.data(), st.sampled_from(_FACTORS), st.integers(1, 3), _denominators,
       st.integers(0, 3))
@settings(max_examples=150, deadline=None)
def test_reduction_takes_out_a_planted_factor(data, f, e, d, k):
    # P_ij = f^e P'_ij over D = f^e D': D loses at least the degree of f^e
    # (more when the P'_ij and D' share a factor), and every entry reads
    # as before.  Values of coprime P' and D' of degree <= 3 and
    # coefficients <= 5 share no integer factor above their resultant,
    # so the digits of the gcd are the shared polynomial's
    n, m = data.draw(st.integers(1, 3)), data.draw(st.integers(1, 3))
    base = data.draw(st.lists(st.lists(_small_polys, min_size=m, max_size=m),
                              min_size=n, max_size=n))
    fe = reduce(pmul, [f] * e)
    polys = [[pmul(p, fe) for p in r] for r in base]
    M = _image_matrix(polys, pmul(d, fe), k)
    R = _check_reduced(M, polys)
    assert len(R._d) <= len(M._d) - (len(fe) - 1)
    assert (R._k, R._w) == (M._k, M._w)


@given(st.data(), st.integers(2, 1000), st.integers(1, 6))
@settings(max_examples=150, deadline=None)
def test_reduction_keeps_a_shared_integer_factor(data, t, content):
    # D = content (q + c) with t | D(2^32), and P_ij = content (u_ij (q + c)
    # + t v_ij): every image is a multiple of content t, but no polynomial
    # of positive degree divides D and every P_ij, so the matrix comes
    # back as it is
    c = (-(2**32)) % t or t
    d = [content * c, content]
    n = data.draw(st.integers(1, 3))
    pairs = data.draw(st.lists(st.tuples(_small_polys, _nonzero_polys),
                               min_size=2 * n, max_size=2 * n))
    polys = [[pmul([content], padd(pmul(u, [c, 1]), pmul([t], v)))
              for u, v in pairs[i:i + 2]] for i in range(0, 2 * n, 2)]
    assume(len(reduce(pgcd, (p for r in polys for p in r), d)) == 1)
    M = _image_matrix(polys, d)
    assert all(v % (content * t) == 0 for r in M._nz.values() for v in r.values())
    assert _check_reduced(M, polys) is M


@given(st.sampled_from([2**31 - 2, 2**31 - 1, 2**31, 2**31 + 1]), st.integers(0, 4),
       st.sampled_from([[1], [-1, 2], [(2**31 - 1) // 5], [-((2**31 - 6) // 5), 0, 1]]))
@settings(max_examples=60, deadline=None)
def test_reduction_at_the_slot_edge(norm, b, p):
    # D = (2q - 3)(a q + b) has 1-norm 5a + b.  Up to 2^31 - 1 it fits a
    # 32-bit slot, and the reduction leaves D = a q + b; from 2^31 on the
    # matrix comes back as it is.  The entries are 2q - 3, which makes the
    # gcd of the images exactly 2^33 - 3, and (2q - 3) p, up to a 1-norm
    # of 2^31 - 3 at the edge of its own slot
    b += 1
    a = (norm - b) // 5
    b = norm - 5 * a
    d = pmul([-3, 2], [b, a])
    assert sum(map(abs, d)) == norm and 2 * b < 3 * a
    polys = [[[-3, 2], pmul([-3, 2], p)]]
    M = _image_matrix(polys, d)
    R = _check_reduced(M, polys)
    if norm < 2**31:
        assert R._d == [b, a] and R._h == sum(map(abs, p))
    else:
        assert R is M


def test_reduction_keeps_a_quotient_wider_than_its_slot():
    # P = (q + 1) u for u = 2^29 (1 - q + q^2 - q^3 + q^4) is 2^29 (1 + q^5),
    # of 1-norm 2^30; the images prove u, but its 1-norm 5 * 2^29 passes
    # half a 32-bit slot, so the matrix comes back as it is
    u = [2**29, -(2**29)] * 2 + [2**29]
    polys = [[pmul([1, 1], u), [1, 1]]]
    assert polys[0][0] == [2**29, 0, 0, 0, 0, 2**29]
    M = _image_matrix(polys, [1, 1])
    assert _check_reduced(M, polys) is M
    # at 2^28 the quotients fit, and D = q + 1 goes
    polys = [[pmul([1, 1], [x // 2 for x in u]), [1, 1]]]
    assert _check_reduced(_image_matrix(polys, [1, 1]), polys)._d == [1]
