"""Linear codes: constructions from either matrix role, the two independent
distance algorithms, and their cross-validation."""

import itertools
import math
import random

import pytest

import shlinear as sl
from shlinear import code as code_mod
from shlinear import fixtures, linalg
from shlinear.errors import BudgetExceededError, InvalidParameterError, PreconditionViolatedError
from helpers import bruteforce_min_weight, reference_distance_at_least, subsets_colex


def test_from_parity_check_parameters(f2_code_14, f2_code_8):
    assert (f2_code_14.n, f2_code_14.k) == (14, 6)
    assert (f2_code_8.n, f2_code_8.k) == (8, 2)
    assert f2_code_8.pchk.rows == 6  # dependent rows dropped


def test_identity_parity_check_gives_zero_code(f3):
    code = sl.from_parity_check(linalg.FqMatrix.identity(f3, 4))
    assert (code.n, code.k) == (4, 0)
    assert sl.min_distance(code) == math.inf


def test_identity_generator_gives_whole_space(f2):
    code = sl.from_generator(linalg.FqMatrix.identity(f2, 4))
    assert (code.n, code.k) == (4, 4)
    assert sl.min_distance(code) == 1
    ok, witness = sl.distance_at_least(code, 2)
    assert not ok and witness is not None


def test_generator_and_parity_constructions_agree(f2_parity_14):
    from_h = sl.from_parity_check(f2_parity_14)
    from_g = sl.from_generator(from_h.gen)
    words_h = {w.coords for w in sl.codewords(from_h)}
    words_g = {w.coords for w in sl.codewords(from_g)}
    assert words_h == words_g
    assert len(words_h) == 2 ** 6


def test_repetition_code(f2):
    code = sl.from_generator(linalg.FqMatrix.from_rows(f2, [[1, 1, 1, 1, 1]]))
    assert (code.n, code.k) == (5, 1)
    assert sl.min_distance(code) == 5


def test_min_distance_values(f5_code, f2_code_14):
    assert f5_code.d_known == 7
    assert f2_code_14.d_known == 5


def test_min_distance_budget(f5_parity):
    code = sl.from_parity_check(f5_parity)
    with pytest.raises(BudgetExceededError):
        sl.min_distance(code, budget=100)


@pytest.mark.parametrize("q", [2, 3])
def test_min_distance_rejects_dependent_generator_rows(q):
    ctx = sl.field_of_order(q)
    gen = linalg.FqMatrix.from_rows(ctx, [[1, 1, 0], [1, 1, 0]])
    pchk = linalg.FqMatrix.from_rows(ctx, [[0, 0, 1]])
    with pytest.raises(PreconditionViolatedError):
        sl.min_distance(code_mod.LinearCode(ctx, gen, pchk))


# every q up to 9, and F_9, F_8 under x^2 + 2x + 2 and x^3 + x^2 + 1
FIELDS = [(q, None) for q in (2, 3, 4, 5, 7, 8, 9)] + [(9, (2, 2, 1)), (8, (1, 0, 1, 1))]


def test_codeword_stream_matches_naive_multiplication(f5_code, f2_code_14):
    rng = random.Random(23)
    codes = [f5_code, f2_code_14]
    for q, modulus in FIELDS:
        ctx = sl.field_of_order(q, modulus)
        for k in (1, 2, 3):
            rows = [[rng.randrange(q) for _ in range(5)] for _ in range(k)]
            codes.append(sl.from_generator(linalg.FqMatrix.from_rows(ctx, rows)))
    for code in codes:
        ctx, n = code.ctx, code.n
        naive = set()
        for msg in itertools.product(range(ctx.q), repeat=code.k):
            word = [0] * n
            for c, row in zip(msg, code.gen.entries):
                for j in range(n):
                    word[j] = ctx.add(word[j], ctx.mul(c, row[j]))
            naive.add(tuple(word))
        streamed = [w.coords for w in sl.codewords(code)]
        assert streamed[0] == (0,) * n, code
        assert len(streamed) == len(set(streamed)) == ctx.q ** code.k, code
        assert set(streamed) == naive, code
    # over F_2 the walk is the binary reflected Gray code, row i flipping
    # with bit i of t ^ (t >> 1)
    rows = [int("".join(map(str, r)), 2) for r in f2_code_14.gen.entries]
    gray = []
    for t in range(2 ** f2_code_14.k):
        g, word = t ^ (t >> 1), 0
        for i, row in enumerate(rows):
            if g >> i & 1:
                word ^= row
        gray.append(tuple(map(int, format(word, f"0{f2_code_14.n}b"))))
    assert [w.coords for w in sl.codewords(f2_code_14)] == gray


def test_distance_at_least_on_distance5_code(f2_code_14):
    ok, _ = sl.distance_at_least(f2_code_14, 5)
    assert ok
    ok, witness = sl.distance_at_least(f2_code_14, 6)
    assert not ok
    assert len(witness) == 5
    cols = [f2_code_14.pchk.column(j) for j in witness]
    assert not linalg.is_linearly_independent(cols)


def test_zero_column_fails_distance_two(f3):
    h = linalg.FqMatrix.from_rows(f3, [[1, 0, 2], [0, 0, 1]])
    code = sl.from_parity_check(h)
    ok, witness = sl.distance_at_least(code, 2)
    assert not ok and witness == (1,)


@pytest.mark.parametrize("q", [2, 3, 4, 5, 7, 8, 9])
def test_distance_algorithms_cross_validate(q):
    ctx = sl.field_of_order(q)
    rng = random.Random(q * 17)
    for _ in range(12):
        n = rng.randint(4, 8)
        k = rng.randint(1, 3)
        rows = [[rng.randrange(q) for _ in range(n)] for _ in range(k)]
        code = sl.from_generator(linalg.FqMatrix.from_rows(ctx, rows))
        if code.k == 0:
            continue
        d = sl.min_distance(code)
        assert d == bruteforce_min_weight(ctx, [list(r) for r in code.gen.entries], n)
        reachable = [dd for dd in range(1, n + 1) if sl.distance_at_least(code, dd)[0]]
        assert max(reachable) == d


def test_generator_annihilated_by_parity_check(f5_code, f2_code_14, f2_code_8):
    for code in (f5_code, f2_code_14, f2_code_8):
        assert code.gen.matmul(code.pchk.transpose()).is_zero()


@pytest.mark.parametrize("q", [2, 3, 4, 9])
def test_changed_generator_entry_is_refused(q):
    """LinearCode checks G H^T = 0 on the packed columns of H. When no
    column of H is zero, changing any one generator entry breaks it, as the
    tuple product confirms, and the pair is refused."""
    ctx, rng = sl.field_of_order(q), random.Random(q)
    columns = [c for c in itertools.product(range(q), repeat=3) if any(c)]
    H = linalg.FqMatrix.from_columns([linalg.FqVector(ctx, rng.choice(columns)) for _ in range(7)])
    code = sl.from_parity_check(H)
    code_mod.LinearCode(ctx, code.gen, code.pchk)
    for i, j in itertools.product(range(code.k), range(code.n)):
        rows = [list(row) for row in code.gen.entries]
        rows[i][j] = ctx.add(rows[i][j], 1 + rng.randrange(q - 1))
        gen = linalg.FqMatrix.from_rows(ctx, rows)
        assert not gen.matmul(code.pchk.transpose()).is_zero()
        with pytest.raises(ValueError, match="not annihilated"):
            code_mod.LinearCode(ctx, gen, code.pchk)


def test_distance_translation_invariance(f2_code_14):
    rng = random.Random(5)
    words = list(sl.codewords(f2_code_14))
    for _ in range(30):
        x, y = rng.choice(words), rng.choice(words)
        assert sl.hamming_distance(x, y) == sl.hamming_weight(x - y)


def test_singleton_bound():
    assert sl.singleton_ok(8, 2, 5)
    assert not sl.singleton_ok(5, 2, 5)
    assert sl.singleton_ok(6, 6, 1)


def test_d_known_write_once(f2):
    code = sl.from_generator(linalg.FqMatrix.from_rows(f2, [[1, 1, 0, 0]]))
    sl.min_distance(code)
    with pytest.raises(ValueError):
        code.d_known = 3


def test_colex_subset_order():
    subsets = list(subsets_colex(4, 2))
    assert subsets == [(0, 1), (0, 2), (1, 2), (0, 3), (1, 3), (2, 3)]


def random_parity_checks(q, rng):
    """Random parity checks with n <= 9, including zero columns, repeated
    and parallel columns, rank-deficient rows and the r = 0 whole space."""
    ctx = sl.field_of_order(q)
    yield sl.from_generator(linalg.FqMatrix.identity(ctx, 3))  # r = 0
    yield sl.from_parity_check(linalg.FqMatrix.identity(ctx, 3))  # k = 0
    for i in range(30):
        n = rng.randint(1, 9)
        r = rng.randint(1, 6)
        cols = [[rng.randrange(q) for _ in range(r)] for _ in range(n)]
        j = rng.randrange(n)
        if i % 3 == 1:
            cols[j] = [0] * r
        elif i % 3 == 2 and j:
            c = rng.randrange(1, q)
            cols[j] = [ctx.mul(c, x) for x in cols[rng.randrange(j)]]
        rows = [[col[t] for col in cols] for t in range(r)]
        yield sl.from_parity_check(linalg.FqMatrix.from_rows(ctx, rows))


@pytest.mark.parametrize("q", [2, 3, 4, 5, 7, 8, 9, 16, 27])
def test_distance_at_least_equals_reference(q):
    rng = random.Random(1000 + q)
    verdicts = set()
    for code in random_parity_checks(q, rng):
        for d in range(1, code.n + 3):
            got = sl.distance_at_least(code, d)
            assert got == reference_distance_at_least(code, d), (code, d)
            verdicts.add(got[0])
    assert verdicts == {True, False}


@pytest.mark.parametrize("name, d, witness", [
    (fixtures.PARITY_F5_8X12, 7, (0, 2, 3, 4, 5, 7, 8)),
    (fixtures.PARITY_F2_8X14, 5, (0, 2, 3, 4, 8)),
    (fixtures.PARITY_F2_8X8, 5, (0, 1, 2, 5, 6)),
])
def test_distance_witness_is_pinned(name, d, witness):
    code = sl.from_parity_check(fixtures.load_fixture_matrix(name))
    assert sl.distance_at_least(code, d) == (True, None)
    assert code.d_lower == d
    assert sl.distance_at_least(code, d + 1) == (False, witness)
    assert code.d_lower == d


def recorded_pivots(monkeypatch) -> list:
    """The vectors PackedSpace.pivot is asked for from now on, in order."""
    pivots = []
    pivot = linalg.PackedSpace.pivot

    def recording_pivot(self, x):
        pivots.append(x)
        return pivot(self, x)

    monkeypatch.setattr(linalg.PackedSpace, "pivot", recording_pivot)
    return pivots


@pytest.mark.parametrize("q", [2, 3, 5])
def test_distance_walk_pushes_only_independent_prefixes(q, monkeypatch):
    # built first: building a code takes pivots of its own rows
    codes = list(random_parity_checks(q, random.Random(2000 + q)))
    pivots = recorded_pivots(monkeypatch)
    for code in codes:
        for d in range(1, code.n + 3):
            sl.distance_at_least(code, d)
    # a chosen column extends an independent prefix exactly when its
    # residue modulo the prefix is nonzero
    assert pivots and all(pivots)


def parity_check_24x12():
    """A random full-rank binary 12 x 24 parity check whose first smallest
    dependent column set ends far from column 0."""
    rng = random.Random(23)
    rows = [[rng.randrange(2) for _ in range(24)] for _ in range(12)]
    return linalg.FqMatrix.from_rows(sl.field_of_order(2), rows)


@pytest.mark.parametrize("matrix, witness", [
    (lambda: fixtures.load_fixture_matrix(fixtures.PARITY_F5_8X12), (0, 2, 3, 4, 5, 7, 8)),
    (lambda: fixtures.load_fixture_matrix(fixtures.PARITY_F2_8X14), (0, 2, 3, 4, 8)),
    (lambda: fixtures.load_fixture_matrix(fixtures.PARITY_F2_8X8), (0, 1, 2, 5, 6)),
    (parity_check_24x12, (6, 13, 14, 16)),
], ids=["F5_8x12", "F2_8x14", "F2_8x8", "F2_12x24"])
def test_distance_walk_stops_at_the_smallest_dependent_size(matrix, witness, monkeypatch):
    """The passes go up in size and stop at the first dependent one, so for
    every target beyond it the walk builds the same pivots."""
    code = sl.from_parity_check(matrix())
    s = len(witness)
    assert sl.distance_at_least(code, s) == (True, None)
    pivots = recorded_pivots(monkeypatch)
    counts = set()
    for d in range(s + 1, code.n + 3):
        del pivots[:]
        assert sl.distance_at_least(code, d) == (False, witness)
        counts.add(len(pivots))
    assert len(counts) == 1 and counts.pop() > 0


@pytest.mark.parametrize("d", [0, -3])
def test_distance_at_least_rejects_bad_d(f2_code_8, d):
    with pytest.raises(InvalidParameterError):
        sl.distance_at_least(f2_code_8, d)
