"""Linear algebra: elimination against brute-force span oracles, the
rank-nullity ledger, and the packed echelon stack."""

import itertools
import random

import pytest

import shlinear as sl
from shlinear import linalg
from shlinear.errors import DimensionMismatchError, FieldMismatchError
from shlinear.code import _basis_and_kernel
from helpers import (
    bruteforce_rank,
    reference_in_span,
    reference_independent,
    reference_kernel_basis,
    reference_rank,
    reference_rref,
)


def vec(ctx, *coords):
    return linalg.FqVector(ctx, tuple(coords))


def test_rref_identity(f3):
    m = linalg.FqMatrix.identity(f3, 4)
    reduced, rank, pivots = linalg.rref(m)
    assert reduced == m
    assert rank == 4
    assert pivots == [0, 1, 2, 3]


def test_rref_rank_of_rank_deficient_check(f2_parity_8):
    _, rank, _ = linalg.rref(f2_parity_8)
    assert rank == 6  # two equal rows and one further dependency


def test_rref_idempotent(f3):
    rng = random.Random(7)
    for _ in range(20):
        rows = [[rng.randrange(3) for _ in range(5)] for _ in range(4)]
        m = linalg.FqMatrix.from_rows(f3, rows)
        r1, _, _ = linalg.rref(m)
        r2, _, _ = linalg.rref(r1)
        assert r1 == r2


@pytest.mark.parametrize("q", [2, 3, 5])
def test_rank_matches_bruteforce_row_space(q):
    ctx = sl.field_of_order(q)
    rng = random.Random(q * 11)
    for _ in range(8):
        rows = [[rng.randrange(q) for _ in range(6)] for _ in range(4)]
        m = linalg.FqMatrix.from_rows(ctx, rows)
        assert linalg.rank(m) == bruteforce_rank(ctx, rows, 6)


def test_rank_equals_transpose_rank(f5):
    rng = random.Random(3)
    for _ in range(15):
        rows = [[rng.randrange(5) for _ in range(7)] for _ in range(4)]
        m = linalg.FqMatrix.from_rows(f5, rows)
        assert linalg.rank(m) == linalg.rank(m.transpose())


@pytest.mark.parametrize("q", [2, 3, 5, 9])
def test_rank_nullity(q):
    ctx = sl.field_of_order(q)
    rng = random.Random(q)
    for _ in range(10):
        nrows = rng.randint(1, 6)
        ncols = rng.randint(1, 12)
        rows = [[rng.randrange(q) for _ in range(ncols)] for _ in range(nrows)]
        m = linalg.FqMatrix.from_rows(ctx, rows)
        kernel = linalg.kernel_basis(m)
        assert len(kernel) == ncols - linalg.rank(m)
        for v in kernel:
            product = m.matmul(linalg.FqMatrix.from_columns([v]))
            assert product.is_zero()
        assert linalg.is_linearly_independent(kernel)


def test_kernel_of_identity_is_empty(f3):
    assert linalg.kernel_basis(linalg.FqMatrix.identity(f3, 5)) == []


def test_kernel_of_zero_matrix_is_standard_basis(f3):
    m = linalg.FqMatrix.from_rows(f3, [[0, 0, 0], [0, 0, 0]])
    kernel = linalg.kernel_basis(m)
    assert len(kernel) == 3
    assert [v.coords for v in kernel] == [(1, 0, 0), (0, 1, 0), (0, 0, 1)]


def test_kernel_of_14_column_check(f2_parity_14):
    kernel = linalg.kernel_basis(f2_parity_14)
    assert len(kernel) == 6
    for v in kernel:
        assert f2_parity_14.matmul(linalg.FqMatrix.from_columns([v])).is_zero()


def test_standard_basis_independent(f3):
    basis = [vec(f3, *row) for row in ((1, 0, 0), (0, 1, 0), (0, 0, 1))]
    assert linalg.is_linearly_independent(basis)


def test_scalar_multiple_dependent(f5):
    v = vec(f5, 1, 2, 0, 4)
    assert not linalg.is_linearly_independent([v, v.scale(2)])


def test_any_four_columns_of_distance5_check_independent(f2_parity_14):
    cols = f2_parity_14.column_vectors()
    for subset in itertools.combinations(cols, 4):
        assert linalg.is_linearly_independent(list(subset))


def test_in_span_self():
    f3 = sl.make_field(3)
    v = vec(f3, 1, 2, 1)
    assert linalg.in_span(v, [v])
    assert linalg.in_span(vec(f3, 0, 0, 0), [])
    assert not linalg.in_span(v, [])


def test_in_span_ternary_r9_combination(ternary_r9_set):
    # a4 + a6 + a8 lies in the span of the whole set
    elems = ternary_r9_set.elems
    v = elems[3] + elems[5] + elems[7]
    assert linalg.in_span(v, list(elems))


def _check_echelon_stack(ctx):
    """Span tests and push verdicts of the stack agree with the reference
    elimination over a random sequence of pushes and pops."""
    q = ctx.q
    rng = random.Random(40 + q)
    r = 4
    vectors = [linalg.FqVector(ctx, tuple(rng.randrange(q) for _ in range(r))) for _ in range(12)]
    vectors[3] = linalg.zero_vector(ctx, r)
    vectors[7] = vectors[1].scale(q - 1)
    stack = linalg.EchelonStack(ctx, r)
    packs = [stack.pack(v.coords) for v in vectors]
    pushed = []
    for _ in range(200):
        if pushed and (len(pushed) > 5 or rng.random() < 0.4):
            stack.pop()
            pushed.pop()
            continue
        i = rng.randrange(len(vectors))
        for x, v in zip(packs, vectors):
            assert stack.in_span(x) == reference_in_span(v, pushed)
        expected = reference_in_span(vectors[i], pushed)
        assert stack.push(packs[i]) == (not expected)
        pushed.append(vectors[i])


@pytest.mark.parametrize("q", [2, 3, 4, 5, 7, 8, 9])
def test_echelon_stack_matches_elimination(q):
    _check_echelon_stack(sl.field_of_order(q))


@pytest.mark.parametrize("q,modulus", [(9, (2, 2, 1)), (8, (1, 0, 1, 1))])
def test_echelon_stack_matches_elimination_other_modulus(q, modulus):
    # x^2 + 2x + 2 over F_3 and x^3 + x^2 + 1 over F_2, not the defaults
    _check_echelon_stack(sl.field_of_order(q, modulus))


def test_extract_basis_order_and_rank(binary_s3_set):
    elems = list(binary_s3_set.elems)
    basis = linalg.extract_basis(elems)
    # first-seen wins: basis must be a subsequence of the input
    it = iter(elems)
    assert all(any(b == x for x in it) for b in basis)
    # span size oracle: enumerate all subset sums
    space = linalg.PackedSpace(binary_s3_set.ctx, binary_s3_set.r)
    words = {0}
    for v in elems:
        packed = space.pack(v.coords)
        words |= {w ^ packed for w in words}
    assert len(words) == 2 ** len(basis)
    assert len(basis) == 10


def test_extract_basis_empty_and_duplicates(f2):
    assert linalg.extract_basis([]) == []
    v = vec(f2, 1, 0)
    assert linalg.extract_basis([v, v, vec(f2, 0, 1)]) == [v, vec(f2, 0, 1)]


@pytest.mark.parametrize("q", [2, 3, 4, 5, 7, 8, 9])
def test_extract_basis_keeps_first_seen_rank_increases(q):
    """extract_basis keeps a vector exactly when it raises the reference
    Gauss-Jordan rank of the vectors kept before it, with zero, parallel
    and repeated vectors among the input."""
    ctx = sl.field_of_order(q)
    rng = random.Random(60 + q)
    for _ in range(12):
        r = rng.randint(1, 5)
        vectors = [linalg.FqVector(ctx, tuple(rng.randrange(q) for _ in range(r)))
                   for _ in range(rng.randint(1, 7))]
        vectors.insert(rng.randrange(len(vectors) + 1), linalg.zero_vector(ctx, r))
        vectors.append(vectors[rng.randrange(len(vectors))].scale(rng.randrange(1, q)))
        vectors.append(vectors[rng.randrange(len(vectors))])
        kept = []
        for v in vectors:
            if reference_rank(ctx, [u.coords for u in kept + [v]], r) > len(kept):
                kept.append(v)
        basis = linalg.extract_basis(vectors)
        assert len(basis) == len(kept) and all(b is v for b, v in zip(basis, kept))


def test_dimension_mismatch_raises(f2, f3):
    with pytest.raises(DimensionMismatchError):
        linalg.is_linearly_independent([vec(f2, 1, 0), vec(f2, 1, 0, 1)])
    with pytest.raises(FieldMismatchError):
        vec(f2, 1, 0) + vec(f3, 1, 0)


def test_vector_encoding_is_lexicographic(f3):
    codes = [vec(f3, *c).encode() for c in itertools.product(range(3), repeat=3)]
    assert codes == sorted(codes)
    assert codes == list(range(27))
    for c in (0, 5, 26):
        assert linalg.decode_vector(f3, 3, c).encode() == c


def test_span_size(f3):
    vs = [vec(f3, 1, 0, 0), vec(f3, 2, 0, 0), vec(f3, 0, 1, 0)]
    assert linalg.span_size(vs) == 9
    assert linalg.span_size([]) == 1


@pytest.mark.parametrize("q, modulus", [(2, None), (3, None), (4, None), (5, None), (7, None),
                                        (8, None), (9, None), (16, None), (25, None), (27, None),
                                        (8, (1, 0, 1, 1)), (9, (2, 2, 1))])
def test_packed_wrappers_match_reference_elimination(q, modulus):
    """rref, rank, kernel_basis, in_span, is_linearly_independent,
    span_size and code._basis_and_kernel, all one EchelonStack pass, equal
    the reference Gauss-Jordan on matrices with zero, repeated and parallel
    rows, and on matrices with no rows."""
    ctx = sl.field_of_order(q, modulus)
    rng = random.Random(80 * q + len(modulus or ()))
    for _ in range(25):
        cols = rng.randint(1, 6)
        rows = [tuple(rng.randrange(q) for _ in range(cols)) for _ in range(rng.randint(0, 5))]
        if rows and rng.random() < 0.6:
            rows.insert(rng.randrange(len(rows) + 1), (0,) * cols)
            rows.append(rows[rng.randrange(len(rows))])
            c = rng.randrange(1, q)
            rows.append(tuple(ctx.mul(c, a) for a in rows[rng.randrange(len(rows))]))
        m = linalg.FqMatrix(ctx, len(rows), cols, tuple(rows))
        rank = reference_rank(ctx, rows, cols)
        assert linalg.rref(m) == reference_rref(m)
        assert linalg.rank(m) == rank
        assert linalg.kernel_basis(m) == reference_kernel_basis(m)
        vectors = m.row_vectors()
        assert linalg.is_linearly_independent(vectors) == reference_independent(vectors)
        assert linalg.span_size(vectors) == q ** rank
        kept = []
        for v in vectors:
            if reference_rank(ctx, [u.coords for u in kept + [v]], cols) > len(kept):
                kept.append(v)
        gen, kernel = _basis_and_kernel(m)
        assert gen.row_vectors() == kept and (gen.rows, gen.cols) == (len(kept), cols)
        assert kernel.row_vectors() == reference_kernel_basis(m) and kernel.cols == cols
        probes = [linalg.FqVector(ctx, tuple(rng.randrange(q) for _ in range(cols))) for _ in range(3)]
        probes += [v.scale(rng.randrange(q)) + w for v, w in zip(vectors, vectors[1:])]
        for v in probes:
            assert linalg.in_span(v, vectors) == reference_in_span(v, vectors)


PACKED_FIELDS = [(q, None) for q in (2, 3, 4, 5, 7, 8, 9, 16, 25, 27, 49, 64, 81, 121, 125, 243, 256)]
PACKED_FIELDS += [(8, (1, 0, 1, 1)), (9, (2, 2, 1))]  # x^3 + x^2 + 1, x^2 + 2x + 2


@pytest.mark.parametrize("r", [1, 3])
@pytest.mark.parametrize("q, modulus", PACKED_FIELDS)
def test_multiples_pivot_and_line_match_scaling(q, modulus, r):
    """multiples, pivot and line on packed vectors agree with FqVector.scale,
    coordinate by coordinate: every c*x, every cancel entry clearing its
    value, and one line name exactly for each set of parallel vectors."""
    ctx = sl.field_of_order(q, modulus)
    space = linalg.PackedSpace(ctx, r)
    rng = random.Random(70 * q + r)
    vectors = [linalg.FqVector(ctx, tuple(int(i == j) for j in range(r))) for i in range(r)]
    vectors.append(linalg.FqVector(ctx, (q - 1,) * r))
    while len(vectors) < r + 7:
        v = linalg.FqVector(ctx, tuple(rng.randrange(q) for _ in range(r)))
        if not v.is_zero():
            vectors.append(v)
    vectors.append(vectors[-1].scale(rng.randrange(1, q)))  # a parallel pair
    names = []
    for v in vectors:
        x = space.pack(v.coords)
        multiples = [space.pack(v.scale(c).coords) for c in range(1, q)]
        assert space.multiples(x) == multiples
        lead = next(i for i, a in enumerate(v.coords) if a)
        shift, cancel = space.pivot(x)
        assert len(cancel) == q and cancel[0] == 0
        for b in range(q):
            w = [rng.randrange(q) for _ in range(r)]
            w[:lead + 1] = [0] * lead + [b]
            cleared = space.unpack(space.add(space.pack(w), cancel[b]))
            assert cancel[b] in multiples or not b
            assert cleared[:lead + 1] == (0,) * (lead + 1)
            assert (space.pack(w) >> shift) == space.pack([b])  # lead sits at shift
        name = space.line(x)
        assert {space.line(y) for y in multiples} == {name}
        assert name in multiples and space.unpack(name)[lead] == 1
        names.append(name)
    for (u, a), (v, b) in itertools.combinations(zip(vectors, names), 2):
        assert (a == b) == (not linalg.is_linearly_independent([u, v]))
