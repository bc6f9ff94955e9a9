"""Both conversion directions, greedy maximal extension, and round trips."""

import random

import pytest

import shlinear as sl
from shlinear import correspond, fixtures, linalg, shset
from shlinear.errors import (
    DistanceTooSmallError,
    DuplicateColumnsError,
    NotShLinearError,
    RedundancyTooSmallError,
)
from helpers import (
    random_candidate,
    random_verified_set,
    reference_extend_to_maximal,
    reference_is_maximal,
)


# ---------------------------------------------------------------------------
# code -> set
# ---------------------------------------------------------------------------

def test_f5_code_to_set(f5_code):
    cand = sl.code_to_set(f5_code, 3)
    assert len(cand) == 13
    assert cand.r == 8
    assert cand.contains_zero()
    assert sl.is_sh_linear(cand)
    assert sl.is_sh_set(cand)  # linear implies plain


def test_binary_code_to_set(f2_code_14):
    cand = sl.code_to_set(f2_code_14, 2)
    assert len(cand) == 15
    assert cand.r == 8
    assert sl.is_sh_linear(cand)
    assert sl.is_sh_set(cand)


def test_repetition_code_to_set(f2):
    code = sl.from_generator(linalg.FqMatrix.from_rows(f2, [[1, 1, 1, 1, 1]]))
    sl.min_distance(code)
    cand = sl.code_to_set(code, 2)
    assert len(cand) == 6  # the maximum size in F_2^4
    assert sl.is_sh_linear(cand)


def test_code_to_set_requires_certified_distance(f2_parity_14):
    fresh = sl.from_parity_check(f2_parity_14)  # nothing certified yet
    with pytest.raises(DistanceTooSmallError):
        sl.code_to_set(fresh, 2)


def test_code_to_set_distance_too_small(f2_code_14):
    with pytest.raises(DistanceTooSmallError):
        sl.code_to_set(f2_code_14, 3)  # would need d >= 7, have 5


def test_code_to_set_redundancy_too_small(f2):
    code = sl.from_generator(linalg.FqMatrix.from_rows(f2, [[1, 1, 1]]))
    sl.min_distance(code)  # [3,1,3]
    with pytest.raises(RedundancyTooSmallError):
        sl.code_to_set(code, 2)


def test_code_to_set_rejects_duplicate_columns(f2):
    h = linalg.FqMatrix.from_rows(
        f2,
        [[1, 0, 0, 0, 1], [0, 1, 0, 0, 0], [0, 0, 1, 0, 0], [0, 0, 0, 1, 0]],
    )
    code = sl.from_parity_check(h)
    code.d_lower = 5  # deliberately wrong certificate
    with pytest.raises(DuplicateColumnsError):
        sl.code_to_set(code, 2)


def test_code_to_set_detects_wrong_certificate(f2):
    # distinct nonzero columns but true d = 3; a lying d_lower is caught
    h = linalg.FqMatrix.from_rows(f2, [[1, 0, 1, 0, 1], [0, 1, 1, 0, 0],
                                       [0, 0, 0, 1, 1], [1, 1, 0, 1, 0]])
    code = sl.from_parity_check(h)
    if code.n - code.k >= 4:
        code.d_lower = 5
        with pytest.raises(DistanceTooSmallError):
            sl.code_to_set(code, 2)


# ---------------------------------------------------------------------------
# set -> code
# ---------------------------------------------------------------------------

def test_column_set_of_8x8_check_to_code(f2_parity_8):
    cand = shset.ShSetCandidate(
        f2_parity_8.ctx, 8, tuple(f2_parity_8.column_vectors()), 2
    )
    assert sl.is_sh_set(cand)
    code = sl.set_to_code(cand)
    assert (code.n, code.k) == (8, 2)
    assert sl.min_distance(code) == 5
    assert 0 <= code.k <= 8 - 2 * 2  # dimension window at r = n


def test_binary_15_set_to_code(f2_code_14):
    cand = sl.code_to_set(f2_code_14, 2)
    code = sl.set_to_code(cand)
    assert (code.n, code.k) == (14, 6)
    assert code.d_lower >= 5


def test_f5_13_set_to_code(f5_code):
    cand = sl.code_to_set(f5_code, 3)
    code = sl.set_to_code(cand)
    assert (code.n, code.k) == (12, 4)
    assert code.d_lower >= 7


def test_set_to_code_rejects_invalid_set(sidon_gap_set):
    with pytest.raises(NotShLinearError) as info:
        sl.set_to_code(sidon_gap_set)
    assert info.value.witness is not None


def test_set_to_code_binary_gap_without_zero(f2):
    """An S_2-linear set over F_2 avoiding 0 can hide an odd-size dependency
    (here e1 + e2 = e1+e2), which no pair collision detects; the constructed
    code then misses d >= 5 and the conversion must refuse."""
    coords = [(1, 0, 0, 0), (0, 1, 0, 0), (1, 1, 0, 0), (0, 0, 1, 0), (0, 0, 0, 1)]
    cand = shset.ShSetCandidate.from_coords(f2, coords, 2)
    assert sl.is_sh_linear(cand)
    with pytest.raises(DistanceTooSmallError):
        sl.set_to_code(cand)


def test_set_to_code_random_odd_q():
    rng = random.Random(101)
    produced = 0
    for q in (3, 5):
        ctx = sl.field_of_order(q)
        for _ in range(6):
            cand = random_verified_set(rng, ctx, 4, 2, 5)
            if cand is None:
                continue
            n = len(cand.nonzero_elems())
            if n < 4:
                continue
            code = sl.set_to_code(cand)
            produced += 1
            assert code.n == n
            assert sl.distance_at_least(code, 5)[0]
            assert max(n - 4, 0) <= code.k <= n - 4
    assert produced >= 5


# ---------------------------------------------------------------------------
# greedy maximal extension
# ---------------------------------------------------------------------------

def test_extension_from_zero_is_maximal_and_idempotent(f2):
    base = shset.ShSetCandidate.from_coords(f2, [(0, 0, 0, 0), (0, 0, 0, 1)], 2)
    extended = sl.extend_to_maximal(base)
    assert len(extended) <= 6
    assert sl.is_sh_linear(extended)
    assert shset.is_maximal(extended)
    again = sl.extend_to_maximal(extended)
    assert again.elems == extended.elems


def test_extension_rejects_invalid_input(sidon_gap_set):
    with pytest.raises(NotShLinearError):
        sl.extend_to_maximal(sidon_gap_set)


def test_maximal_sets_in_f3_r5_contain_zero_and_a_basis(f3):
    """Greedy maximal sets here are large enough that the structural facts
    apply: they span the space and must contain the zero vector."""
    rng = random.Random(55)
    for _ in range(3):
        base = random_verified_set(rng, f3, 5, 2, 3, include_zero=False)
        if base is None:
            continue
        maximal = sl.extend_to_maximal(base)
        assert shset.is_maximal(maximal)
        if 2 * 2 < 5 <= len(maximal):
            assert any(v.is_zero() for v in maximal.elems)
            basis = linalg.extract_basis(list(maximal.elems))
            assert len(basis) == 5


# (q, r): the spaces in which extension and maximality are compared with the
# per-vector reference
REFERENCE_SPACES = {2: 4, 3: 3, 4: 2, 5: 2, 7: 2, 8: 2, 9: 2}


@pytest.mark.parametrize("q", sorted(REFERENCE_SPACES))
@pytest.mark.parametrize("h", (1, 2, 3))
def test_extension_and_maximality_equal_the_reference(q, h):
    ctx, r = sl.field_of_order(q), REFERENCE_SPACES[q]
    rng = random.Random(100 * q + h)
    inputs = [
        random_verified_set(rng, ctx, r, h, h, include_zero=zero) for zero in (True, False)
    ]
    inputs = [cand for cand in inputs if cand is not None]
    assert any(cand.contains_zero() for cand in inputs)
    maximal = reference_extend_to_maximal(inputs[0])
    for cand in inputs + [maximal]:
        extended = sl.extend_to_maximal(cand)
        assert extended.elems == reference_extend_to_maximal(cand).elems
        assert shset.is_maximal(cand) == reference_is_maximal(cand)
        assert shset.is_maximal(extended)
    assert sl.extend_to_maximal(maximal).elems == maximal.elems
    colliding = random_candidate(rng, ctx, r, h, min(q ** r, h + 3))
    assert shset.is_maximal(colliding) == reference_is_maximal(colliding)


# extend_to_maximal of set_f3_r9_s3.set with h=2, as computed on coordinate
# tuples before the packed kernel: the 14 input elements, then 31 added
F3_R9_EXTENSION = (
    0, 6561, 3, 1, 15309, 11, 18225, 6075, 8586, 2862, 954, 34, 318, 106, 37, 83,
    121, 127, 141, 148, 973, 1217, 2192, 2434, 2924, 3168, 3657, 3918, 4159, 6814,
    7047, 7315, 7555, 7811, 8069, 8314, 8817, 9054, 9324, 9570, 9807, 10113, 10563,
    10839, 11362,
)


def test_f3_r9_extension_is_pinned_and_maximal():
    extended = sl.extend_to_maximal(fixtures.load_fixture_set(fixtures.SET_F3_R9, 2))
    assert tuple(v.encode() for v in extended.elems) == F3_R9_EXTENSION
    assert shset.is_maximal(extended)


# ---------------------------------------------------------------------------
# round trips
# ---------------------------------------------------------------------------

def test_round_trip_binary(f2_code_14):
    report = correspond.round_trip_check(f2_code_14, 2)
    assert report.valid
    assert sorted(report.column_map) == list(range(14))


def test_round_trip_f5(f5_code):
    report = correspond.round_trip_check(f5_code, 3)
    assert report.valid


def test_round_trip_repetition_identity(f2):
    code = sl.from_generator(linalg.FqMatrix.from_rows(f2, [[1, 1, 1, 1, 1]]))
    sl.min_distance(code)
    report = correspond.round_trip_check(code, 2)
    assert report.valid


def test_report_lines_format(f2_code_14):
    report = correspond.round_trip_check(f2_code_14, 2)
    lines = report.to_lines()
    assert lines[0] == "direction=round_trip"
    assert any(line.startswith("check.codeword_set_preserved=pass") for line in lines)
    assert lines[-1] == "valid=true"