"""Linear algebra: elimination against brute-force span oracles, the
rank-nullity ledger, and the packed echelon stack."""

import itertools
import random

import pytest

import shlinear as sl
from shlinear import linalg
from shlinear.errors import DimensionMismatchError, FieldMismatchError
from helpers import bruteforce_rank


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
    """Span tests and push verdicts of the stack agree with a fresh
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
            assert stack.in_span(x) == linalg.in_span(v, pushed)
        expected = linalg.in_span(vectors[i], pushed)
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
