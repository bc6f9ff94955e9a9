"""S_h machinery: worked-example spans and verdicts, the counting law, the
closure operations, and the exhaustive search against a powerset oracle."""

import functools
import itertools
import math
import operator
import random

import pytest

import shlinear as sl
from shlinear import linalg, shset
from shlinear.errors import (
    HTooLargeError,
    NotShLinearError,
    PreconditionViolatedError,
    ScalarZeroError,
    SpaceTooLargeError,
)
from helpers import (
    random_candidate,
    random_verified_set,
    reference_collision_groups,
    reference_enumeration,
    reference_first_collision,
)


def vec(ctx, *coords):
    return linalg.FqVector(ctx, tuple(coords))


def setof(ctx, coords):
    return {vec(ctx, *c) for c in coords}


# ---------------------------------------------------------------------------
# spans and counting
# ---------------------------------------------------------------------------

def test_two_span_of_tiny_ternary_set(f3, tiny_ternary_set):
    expected = setof(
        f3,
        [(1, 1, 0), (0, 1, 0), (1, 2, 0), (2, 2, 0), (0, 2, 0), (2, 0, 0), (1, 0, 0), (2, 1, 0)],
    )
    assert sl.h_span(tiny_ternary_set) == expected


def test_three_span_of_tiny_ternary_set(f3, tiny_ternary_set):
    expected = setof(f3, [(1, 2, 0), (2, 0, 0), (1, 0, 0), (2, 1, 0)])
    assert sl.h_span(tiny_ternary_set.with_h(3)) == expected


def test_count_formula_with_zero(tiny_ternary_set):
    assert sl.count_h_combinations(tiny_ternary_set) == 8
    assert sl.count_h_combinations(tiny_ternary_set.with_h(3)) == 4


def test_count_formula_without_zero_binary(f2):
    cand = shset.ShSetCandidate.from_coords(
        f2, [(1, 0, 0), (0, 1, 0), (0, 0, 1), (1, 1, 1)], 2
    )
    assert sl.count_h_combinations(cand) == math.comb(4, 2)


def test_count_matches_enumeration_f5(f5):
    rng = random.Random(40)
    cand = random_candidate(rng, f5, 4, 2, 6, include_zero=False)
    assert sl.count_h_combinations(cand) == 16 * 15
    combos = list(sl.enumerate_h_combinations(cand))
    assert len(combos) == 240


@pytest.mark.parametrize("q,size,h,with_zero", [
    (2, 5, 2, True), (2, 6, 3, False), (3, 5, 2, True),
    (3, 4, 3, False), (5, 4, 2, True), (5, 5, 3, False),
])
def test_count_matches_enumeration_random(q, size, h, with_zero):
    ctx = sl.field_of_order(q)
    rng = random.Random(q * 100 + size)
    cand = random_candidate(rng, ctx, 4, h, size, include_zero=with_zero)
    assert len(list(sl.enumerate_h_combinations(cand))) == sl.count_h_combinations(cand)


def test_full_set_combination_over_f2(f2):
    cand = shset.ShSetCandidate.from_coords(f2, [(1, 0), (0, 1), (1, 1)], 3)
    combos = list(sl.enumerate_h_combinations(cand))
    assert len(combos) == 1
    assert combos[0][1].is_zero()  # e1 + e2 + (e1+e2)


def test_enumeration_order_is_pinned(f3, tiny_ternary_set):
    first = [(c.terms, v.coords) for c, v in sl.enumerate_h_combinations(tiny_ternary_set)][:4]
    assert first == [
        (((0, 1), (1, 1)), (1, 1, 0)),
        (((0, 1), (1, 2)), (2, 2, 0)),
        (((0, 1), (2, 1)), (0, 1, 0)),
        (((0, 1), (2, 2)), (0, 2, 0)),
    ]


def _kernel_grid_sets(ctx, h, rng):
    """Verifying sets with and without 0, random sets (which mostly
    collide), and, for q > 2, sets led by a and c*a, whose first collision
    lies inside the first index tuple."""
    q, r = ctx.q, 3 if ctx.q < 7 else 2
    size = max(k for k in (h, h + 1, h + 2) if k == h or (q - 1) ** h * math.comb(k, h) <= 6000)
    sets = [random_verified_set(rng, ctx, r, h, size, z, max_attempts=100) for z in (True, False)]
    sets += [random_candidate(rng, ctx, r, h, size, include_zero=z) for z in (True, False)]
    if q > 2:
        a = linalg.FqVector(ctx, (1,) + tuple(rng.randrange(q) for _ in range(r - 1)))
        for c in (2, q - 1):
            rest = random_candidate(rng, ctx, r, 1, size, include_zero=False).elems
            elems = [a, a.scale(c)] + [v for v in rest if v not in (a, a.scale(c))][: size - 2]
            sets.append(shset.ShSetCandidate(ctx, r, tuple(elems), h))
    return [s for s in sets if s is not None and len(s) >= h]


@pytest.mark.parametrize("q", [2, 3, 4, 5, 7, 8, 9])
def test_block_kernel_equals_the_per_tuple_reference(q):
    """Enumeration, span, collision groups and both first-collision
    witnesses equal those of the per-tuple scan, field by field."""
    ctx = sl.field_of_order(q)
    rng = random.Random(700 + q)
    verified = inside_one_tuple = 0
    for h in (1, 2, 3, 4):
        for cand in _kernel_grid_sets(ctx, h, rng):
            ref = reference_enumeration(cand)
            assert [(c.terms, v) for c, v in sl.enumerate_h_combinations(cand)] == ref
            assert sl.h_span(cand) == {v for _, v in ref}
            for plain, check in ((False, sl.check_sh_linear), (True, sl.check_sh_set)):
                combos = reference_enumeration(cand, plain) if plain else ref
                got, want = check(cand), reference_first_collision(combos)
                if want is None:
                    assert got is None
                    verified += 1
                else:
                    assert (got.lhs.terms, got.rhs.terms, got.value) == (
                        want.lhs.terms, want.rhs.terms, want.value)
                    inside_one_tuple += got.lhs.indices() == got.rhs.indices()
                groups = sl.collision_groups(cand, plain)
                assert [(v, tuple(c.terms for c in cs)) for v, cs in groups] == (
                    reference_collision_groups(combos))
    assert verified > 0
    assert inside_one_tuple > 0 or q == 2


def _kernel_equals_reference(cand):
    """Enumeration, span, both first-collision witnesses and both sets of
    collision groups of cand equal those of the per-tuple scan; returns
    the linear-mode witness."""
    ref = reference_enumeration(cand)
    assert [(c.terms, v) for c, v in sl.enumerate_h_combinations(cand)] == ref
    assert sl.h_span(cand) == {v for _, v in ref}
    for plain, check in ((False, sl.check_sh_linear), (True, sl.check_sh_set)):
        combos = reference_enumeration(cand, plain) if plain else ref
        got, want = check(cand), reference_first_collision(combos)
        assert (got is None) == (want is None)
        if want is not None:
            assert (got.lhs.terms, got.rhs.terms, got.value) == (
                want.lhs.terms, want.rhs.terms, want.value)
        groups = sl.collision_groups(cand, plain)
        assert [(v, tuple(c.terms for c in cs)) for v, cs in groups] == (
            reference_collision_groups(combos))
    return sl.check_sh_linear(cand)


@pytest.mark.parametrize("q", [11, 16, 27])
def test_chunk_kernel_equals_the_reference_over_larger_fields(q):
    """Coordinates of more than one byte (q = 27), multi-digit codes, and
    sets with and without 0, verifying and colliding."""
    ctx = sl.field_of_order(q)
    rng = random.Random(900 + q)
    seen = set()
    for h, size in ((1, 4), (2, 4), (2, 5), (3, 3)):
        for zero in (True, False):
            cand = random_candidate(rng, ctx, 2, h, size, include_zero=zero)
            seen.add(_kernel_equals_reference(cand) is None)
            elems = list(cand.elems[1:]) + [cand.elems[0]]  # 0, if present, last
            _kernel_equals_reference(shset.ShSetCandidate(ctx, 2, tuple(elems), h))
    assert seen == {True, False}


@pytest.mark.parametrize("q,r,size", [(2, 70, 8), (5, 17, 6)])
def test_chunk_kernel_equals_the_reference_for_vectors_wider_than_64_bits(q, r, size):
    ctx = sl.field_of_order(q)
    rng = random.Random(q * r)
    engine = shset._Engine(ctx, r, 2)
    assert engine._lane > 8
    for zero in (True, False):
        cand = random_candidate(rng, ctx, r, 2, size, include_zero=zero)
        _kernel_equals_reference(cand)
    if q > 2:  # a nonzero a and -a collide
        minus_a = cand.elems[0].scale(q - 1)
        parallel = shset.ShSetCandidate(ctx, r, cand.elems[:-1] + (minus_a,), 2)
        assert _kernel_equals_reference(parallel) is not None


@pytest.mark.parametrize("q", [2, 3, 7, 11, 13])
def test_chunk_kernel_equals_the_reference_on_the_line(q):
    ctx = sl.field_of_order(q)
    for h in (1, 2, 3):
        for start in (0, 1):
            coords = [(a,) for a in range(start, min(q, start + h + 2))]
            if len(coords) >= h:
                _kernel_equals_reference(shset.ShSetCandidate.from_coords(ctx, coords, h))


def test_chunk_kernel_equals_the_reference_for_h1_with_zero(f5):
    for coords in ([(1, 2), (0, 0), (3, 4)], [(0, 0), (2, 2)], [(1, 1), (2, 2), (0, 0)]):
        cand = shset.ShSetCandidate.from_coords(f5, coords, 1)
        witness = _kernel_equals_reference(cand)
        assert (witness is None) == (coords[0] != (1, 1))


def test_first_collision_inside_the_first_chunk(f3):
    # 2*a1 + a2 = a1 + (a1 + a2): both combinations have first index 0
    cand = shset.ShSetCandidate.from_coords(f3, [(1, 0), (0, 1), (1, 1)], 2)
    witness = _kernel_equals_reference(cand)
    assert (witness.lhs.terms, witness.rhs.terms) == (((0, 2), (1, 1)), ((0, 1), (2, 1)))


def test_first_collision_at_the_first_value_of_a_later_chunk(f3):
    # a2 + a3 = a1 + a4, the first combination with first index 1
    cand = shset.ShSetCandidate.from_coords(
        f3, [(1, 0, 0), (0, 1, 0), (0, 0, 1), (2, 1, 1)], 2)
    witness = _kernel_equals_reference(cand)
    assert (witness.lhs.terms, witness.rhs.terms) == (((0, 1), (3, 1)), ((1, 1), (2, 1)))


def test_first_collision_between_parallel_elements_inside_one_chunk(f5):
    # a2 = 2*a1: a1 + 4*a2 = 2*a1 + a2 = 4*a1, within the index tuple (0, 1)
    cand = shset.ShSetCandidate.from_coords(f5, [(1, 2), (2, 4), (0, 1)], 2)
    witness = _kernel_equals_reference(cand)
    assert (witness.lhs.terms, witness.rhs.terms) == (((0, 1), (1, 4)), ((0, 2), (1, 1)))


def test_first_collision_repeated_inside_a_later_chunk(f5):
    # a4 = a2 + a3: 2*a2 + a3 = a2 + a4, both with first index 1, after a
    # first chunk that no value repeats
    cand = shset.ShSetCandidate.from_coords(
        f5, [(0, 0, 1), (1, 0, 0), (0, 1, 0), (1, 1, 0)], 2)
    witness = _kernel_equals_reference(cand)
    assert (witness.lhs.terms, witness.rhs.terms) == (((1, 2), (2, 1)), ((1, 1), (3, 1)))


# ---------------------------------------------------------------------------
# verification verdicts
# ---------------------------------------------------------------------------

def test_linearly_independent_sets_pass_every_h(f5):
    basis = [vec(f5, *[1 if i == j else 0 for j in range(4)]) for i in range(4)]
    for h in range(1, 5):
        cand = shset.ShSetCandidate(f5, 4, tuple(basis), h)
        assert sl.is_sh_linear(cand)


def test_tiny_ternary_set_is_sh_linear_but_dependent(f3, tiny_ternary_set):
    for h in (1, 2, 3):
        assert sl.is_sh_linear(tiny_ternary_set.with_h(h))
    assert not linalg.is_linearly_independent(list(tiny_ternary_set.elems))


def test_sidon_gap_set_separates_plain_from_linear(sidon_gap_set):
    assert sl.is_sh_set(sidon_gap_set)
    assert not sl.is_sh_linear(sidon_gap_set)


def test_plain_sums_in_prime_field_line():
    f7 = sl.field_of_order(7)
    cand = shset.ShSetCandidate.from_coords(f7, [(1,), (2,), (3,)], 2)
    assert sl.is_sh_set(cand)  # pair sums 3, 4, 5 all distinct


def test_sidon_gap_first_witness_is_deterministic(sidon_gap_set):
    witness = sl.check_sh_linear(sidon_gap_set)
    # frozen from the pinned enumeration order: a1 + a4 collides with a2 + 2*a3
    assert witness.value.coords == (2, 0, 0, 2, 2)
    assert witness.lhs.terms == ((0, 1), (3, 1))
    assert witness.rhs.terms == ((1, 1), (2, 2))
    assert witness.lhs.evaluate(sidon_gap_set) == witness.value
    assert witness.rhs.evaluate(sidon_gap_set) == witness.value


def test_sidon_gap_collision_groups_contain_named_identity(sidon_gap_set):
    groups = sl.collision_groups(sidon_gap_set)
    assert len(groups) == 6
    value, combos = groups[0]
    # a1 + 2*a2 = 2*a3 + 2*a4, the earliest-first-occurrence collision
    assert value.coords == (1, 1, 2, 2, 0)
    assert [c.terms for c in combos] == [((0, 1), (1, 2)), ((2, 2), (3, 2))]


def test_binary_s3_set_verdicts(binary_s3_set):
    for h in (1, 2, 3):
        assert sl.is_sh_linear(binary_s3_set.with_h(h))
    witness = sl.check_sh_linear(binary_s3_set.with_h(4))
    assert witness is not None
    assert witness.lhs.evaluate(binary_s3_set) == witness.value
    assert witness.rhs.evaluate(binary_s3_set) == witness.value
    # frozen first collision under the pinned order
    assert witness.value.coords == (1, 1, 1, 0, 0, 0, 0, 1, 1, 1)


def test_binary_s3_set_named_four_collision(binary_s3_set):
    """The documented 4-combination identity: {a1,a2,a3,a6} and {a4,a9,a12,a15}
    share the value e1+e2+e8+e9+e10."""
    cand = binary_s3_set.with_h(4)
    lhs = shset.HCombination(((0, 1), (1, 1), (2, 1), (5, 1)))
    rhs = shset.HCombination(((3, 1), (8, 1), (11, 1), (14, 1)))
    common = lhs.evaluate(cand)
    assert common == rhs.evaluate(cand)
    assert common.coords == (1, 1, 0, 0, 0, 0, 0, 1, 1, 1)
    groups = {v: {c.terms for c in combos} for v, combos in sl.collision_groups(cand)}
    assert groups[common] == {lhs.terms, rhs.terms}


def test_scalar_multiples_fail_h1_for_odd_q(f5):
    v = vec(f5, 1, 2, 0)
    cand = shset.ShSetCandidate(f5, 3, (v, v.scale(2)), 1)
    assert not sl.is_sh_linear(cand)


def test_h1_passes_for_distinct_binary_vectors(f2):
    cand = shset.ShSetCandidate.from_coords(f2, [(1, 0), (0, 1), (1, 1)], 1)
    assert sl.is_sh_linear(cand)


@pytest.mark.parametrize("seed", range(12))
def test_plain_equals_linear_over_f2(f2, seed):
    rng = random.Random(seed)
    size = rng.randint(3, 7)
    h = rng.randint(2, 3)
    cand = random_candidate(rng, f2, 5, min(h, size), size)
    assert sl.is_sh_set(cand) == sl.is_sh_linear(cand)


def test_counting_law_equivalence_small():
    for q in (2, 3, 5):
        ctx = sl.field_of_order(q)
        rng = random.Random(q * 31)
        for _ in range(15):
            size = rng.randint(2, 6)
            h = rng.randint(2, min(3, size))
            cand = random_candidate(rng, ctx, 4, h, size)
            verdict = sl.is_sh_linear(cand)
            assert verdict == (len(sl.h_span(cand)) == sl.count_h_combinations(cand))


# ---------------------------------------------------------------------------
# size bound
# ---------------------------------------------------------------------------

def test_size_bound_branches_coincide_for_q2():
    assert sl.size_bound(2, 6, 2, False) == pytest.approx(sl.size_bound(2, 6, 2, True))


def test_size_bound_value_f2_r4():
    assert sl.size_bound(2, 4, 2, False) == pytest.approx(math.sqrt(32) + 1)


def test_size_bound_holds_for_verified_sets():
    rng = random.Random(9)
    for q in (2, 3, 5):
        ctx = sl.field_of_order(q)
        for _ in range(5):
            cand = random_verified_set(rng, ctx, 4, 2, 4)
            if cand is None:
                continue
            assert sl.satisfies_size_bound(cand)
            assert len(cand) < sl.size_bound(q, 4, 2, cand.contains_zero())


# ---------------------------------------------------------------------------
# closure operations
# ---------------------------------------------------------------------------

def test_translate_scale_identity(tiny_ternary_set):
    zero = linalg.zero_vector(tiny_ternary_set.ctx, 3)
    assert sl.translate_scale(tiny_ternary_set, zero, 1).elems == tiny_ternary_set.elems


def test_translate_scale_rejects_zero_scalar(tiny_ternary_set):
    zero = linalg.zero_vector(tiny_ternary_set.ctx, 3)
    with pytest.raises(ScalarZeroError):
        sl.translate_scale(tiny_ternary_set, zero, 0)


def test_ternary_r9_translation_counterexample(ternary_r9_set):
    """Translating by an in-span vector breaks the S_3 property."""
    elems = ternary_r9_set.elems
    v = elems[3] + elems[5] + elems[7]
    assert linalg.in_span(v, list(elems))
    translated = sl.translate_scale(ternary_r9_set, v, 1)
    assert not sl.is_sh_linear(translated)


def test_ternary_r9_set_itself_has_a_collision(ternary_r9_set):
    """Reality check, frozen from independent enumeration: this 14-element
    set already collides at h = 3 (2*a5 + 2*a12 + 2*a13 = a6 + 2*a7 + 2*a8),
    so only its translated variant is exercised as a counterexample."""
    witness = sl.check_sh_linear(ternary_r9_set)
    assert witness is not None
    assert witness.lhs.evaluate(ternary_r9_set) == witness.rhs.evaluate(ternary_r9_set)
    lhs = shset.HCombination(((4, 2), (11, 2), (12, 2)))
    rhs = shset.HCombination(((5, 1), (6, 2), (7, 2)))
    assert lhs.evaluate(ternary_r9_set) == rhs.evaluate(ternary_r9_set)


def test_f5_r12_set_is_s3_linear(f5_r12_set):
    assert sl.is_sh_linear(f5_r12_set)


def test_f5_r12_translation_counterexample(f5_r12_set):
    b = f5_r12_set.elems
    u = b[1] + b[2].scale(2) + b[3]
    assert linalg.in_span(u, list(b))
    translated = sl.translate_scale(f5_r12_set, u, 1)
    assert not sl.is_sh_linear(translated)


def test_translation_preserves_verdict_outside_span(f3):
    rng = random.Random(21)
    for _ in range(10):
        base = random_verified_set(rng, f3, 3, 2, 3)
        if base is None:
            continue
        lifted = shset.append_zero_coordinate(base)
        v = vec(f3, *(rng.randrange(3) for _ in range(3)), rng.randrange(1, 3))
        assert not linalg.in_span(v, list(lifted.elems))
        alpha = rng.randrange(1, 3)
        assert sl.is_sh_linear(sl.translate_scale(lifted, v, alpha))


def test_adjoin_zero_noop(tiny_ternary_set):
    assert sl.adjoin_zero(tiny_ternary_set) is tiny_ternary_set


def test_adjoin_zero_to_basis_f5(f5):
    basis = [vec(f5, *[1 if i == j else 0 for j in range(6)]) for i in range(6)]
    cand = shset.ShSetCandidate(f5, 6, tuple(basis), 2)
    extended = sl.adjoin_zero(cand)
    assert len(extended) == 7
    assert extended.elems[0].is_zero()
    assert sl.is_sh_linear(extended)


def test_append_zero_coordinate_preserves_verdicts(sidon_gap_set, tiny_ternary_set):
    assert not sl.is_sh_linear(shset.append_zero_coordinate(sidon_gap_set))
    assert sl.is_sh_linear(shset.append_zero_coordinate(tiny_ternary_set))


def test_2h_subsets_independent_for_f5_columns(f5_code):
    cand = sl.code_to_set(f5_code, 3)
    assert sl.check_2h_subsets_independent(cand) is None


def test_2h_subsets_dependent_witness(f2):
    # e1, e2, e3, e1+e2+e3 sum to zero: a dependent 4-subset at h = 2
    coords = [(0, 0, 0, 0, 0), (1, 0, 0, 0, 0), (0, 1, 0, 0, 0), (0, 0, 1, 0, 0), (1, 1, 1, 0, 0)]
    cand = shset.ShSetCandidate.from_coords(f2, coords, 2)
    witness = sl.check_2h_subsets_independent(cand)
    assert witness is not None
    assert not linalg.is_linearly_independent(list(witness))


@pytest.mark.parametrize("q", [2, 3, 4, 5, 8, 9])
def test_2h_subsets_match_combination_scan(q):
    ctx = sl.field_of_order(q)
    rng = random.Random(300 + q)
    outcomes = set()
    for _ in range(40):
        h = rng.choice((1, 2))
        r = rng.randint(2 * h + 1, 2 * h + 2)
        size = rng.randint(r, min(r + 4, q ** r))
        cand = random_candidate(rng, ctx, r, h, size, include_zero=True)
        scan = next(
            (s for s in itertools.combinations(cand.nonzero_elems(), 2 * h)
             if not linalg.is_linearly_independent(list(s))),
            None,
        )
        assert sl.check_2h_subsets_independent(cand) == scan
        outcomes.add(scan is None)
    assert outcomes == {True, False}


def test_2h_subsets_precondition_errors(f2):
    # zero vector missing
    no_zero = shset.ShSetCandidate.from_coords(f2, [(1, 0, 0, 0, 0), (0, 1, 0, 0, 0)], 1)
    with pytest.raises(PreconditionViolatedError):
        sl.check_2h_subsets_independent(no_zero)
    # 2h < r violated (2h = 4 = r)
    flat = shset.ShSetCandidate.from_coords(
        f2, [(0, 0, 0, 0), (1, 0, 0, 0), (0, 1, 0, 0), (0, 0, 1, 0), (0, 0, 0, 1)], 2
    )
    with pytest.raises(PreconditionViolatedError):
        sl.check_2h_subsets_independent(flat)
    # r <= |A| violated
    small = shset.ShSetCandidate.from_coords(f2, [(0,) * 6, (1, 0, 0, 0, 0, 0)], 2)
    with pytest.raises(PreconditionViolatedError):
        sl.check_2h_subsets_independent(small)


def test_hereditary_subsets(f5_r12_set):
    rng = random.Random(77)
    elems = list(f5_r12_set.elems)
    for _ in range(6):
        size = rng.randint(3, len(elems))
        subset = rng.sample(elems, size)
        cand = shset.ShSetCandidate(f5_r12_set.ctx, 12, tuple(subset), 3)
        assert sl.is_sh_linear(cand)


# ---------------------------------------------------------------------------
# candidate validation
# ---------------------------------------------------------------------------

def test_candidate_rejects_duplicates(f2):
    with pytest.raises(ValueError):
        shset.ShSetCandidate.from_coords(f2, [(1, 0), (1, 0)], 1)


def test_candidate_rejects_oversized_h(f2):
    with pytest.raises(HTooLargeError):
        shset.ShSetCandidate.from_coords(f2, [(1, 0), (0, 1)], 3)


# ---------------------------------------------------------------------------
# exhaustive search
# ---------------------------------------------------------------------------

@functools.lru_cache(maxsize=None)
def bruteforce_max(ctx, r, h, mode="linear", zero=False):
    """Powerset oracle for tiny spaces: test every subset of F_q^r (that
    contains 0, if zero) in lexicographic order. Returns the maximum size
    and the first maximum subset, or (0, None)."""
    vectors = [linalg.decode_vector(ctx, r, c) for c in range(ctx.q ** r)]
    check = sl.is_sh_linear if mode == "linear" else sl.is_sh_set
    best, first = 0, None
    for size in range(h, len(vectors) + 1):
        found = next(
            (subset for subset in itertools.combinations(vectors, size)
             if (not zero or subset[0].is_zero())
             and check(shset.ShSetCandidate(ctx, r, subset, h))),
            None,
        )
        if found is None:
            break
        best, first = size, found
    return best, first


def test_search_max_binary_r4_is_six(f2):
    size, witness = sl.exhaustive_max_sh_set(f2, 4, 2)
    assert size == 6
    assert sl.is_sh_linear(witness)
    assert len(witness) == 6


def test_search_max_binary_r5_with_zero_is_seven(f2):
    # over F_2 translation preserves the property, so some maximum set
    # contains 0 and the search, which starts from {0}, loses nothing
    size, witness = sl.exhaustive_max_sh_set(f2, 5, 2)
    assert size == 7
    assert sl.is_sh_linear(witness)
    assert witness.elems[0].is_zero()


@pytest.mark.parametrize("r,h", [(2, 1), (2, 2), (3, 2), (3, 3)])
def test_search_matches_powerset_oracle_f2(f2, r, h):
    size, _ = sl.exhaustive_max_sh_set(f2, r, h)
    assert size == bruteforce_max(f2, r, h)[0]


def test_search_matches_powerset_oracle_f3(f3):
    size, _ = sl.exhaustive_max_sh_set(f3, 2, 2)
    assert size == bruteforce_max(f3, 2, 2)[0]
    plain, _ = sl.exhaustive_max_sh_set(f3, 2, 2, mode="plain")
    assert plain == bruteforce_max(f3, 2, 2, mode="plain")[0]


# the ids keep the "-None" suffix of a kernel choice the search no longer
# has, so that each case is reported under the same name as before
@pytest.mark.parametrize("q,r,h,mode,zero", [
    pytest.param(q, r, h, mode, zero, id=f"{q}-{r}-{h}-{mode}-{zero}-None")
    for q, r in ((2, 1), (2, 2), (2, 3), (3, 2), (4, 2))
    for h in (1, 2, 3)
    for mode in ("linear", "plain")
    for zero in (False, True)
])
def test_search_witness_is_lex_first_maximum(q, r, h, mode, zero):
    # the search always starts from {0}; that the scan over every subset
    # (zero=False) and the scan over the subsets holding 0 (zero=True) both
    # agree with it is the powerset check of translation and of the zero
    # lemma
    ctx = sl.field_of_order(q)
    size, witness = sl.exhaustive_max_sh_set(ctx, r, h, mode=mode)
    assert (size, witness.elems if witness else None) == bruteforce_max(ctx, r, h, mode, zero)


def test_adjoining_zero_keeps_sh_linear_for_q_above_2():
    # the zero lemma: for q >= 3 a zero-free S_h-linear set of at least h
    # elements stays S_h-linear when 0 is added
    rng = random.Random(16)
    done = 0
    while done < 150:
        q, h = rng.choice((3, 4, 5, 7, 8, 9)), rng.randint(2, 3)
        r = rng.randint(2, 4)
        size = rng.randint(h, h + 3)
        cand = random_verified_set(rng, sl.field_of_order(q), r, h, size, include_zero=False)
        if cand is None:
            continue
        assert sl.is_sh_linear(sl.adjoin_zero(cand)), cand.elems
        done += 1


def test_adjoining_zero_can_break_sh_linear_over_f2(f2):
    # the lemma needs q >= 3: over F_2, e1 + e2 = 0 + (e1 + e2)
    cand = shset.ShSetCandidate.from_coords(f2, [(1, 0), (0, 1), (1, 1)], 2)
    assert sl.is_sh_linear(cand)
    assert not sl.is_sh_linear(sl.adjoin_zero(cand))


# (q, r, h, mode) -> (maximum, witness codes): the first six as
# returned before the symmetry pruning of the search was introduced, the rest
# as returned by the lookup-table (q^r <= 1024) and coordinate-tuple engines
# that the packed kernel replaced; the two q = 2 cases pin the XOR engine
PINNED_SEARCHES = [
    ((2, 5, 2, "linear"), (7, (0, 1, 2, 4, 8, 15, 16))),
    ((2, 5, 3, "linear"), (6, (0, 1, 2, 4, 8, 16))),
    ((3, 3, 2, "linear"), (4, (0, 1, 3, 9))),
    ((3, 3, 2, "plain"), (6, (0, 1, 2, 3, 9, 24))),
    ((5, 2, 2, "linear"), (3, (0, 1, 5))),
    ((5, 2, 2, "plain"), (6, (0, 1, 2, 5, 10, 24))),
    ((4, 3, 2, "linear"), (4, (0, 1, 4, 16))),
    ((3, 3, 3, "linear"), (4, (0, 1, 3, 9))),
    ((8, 2, 2, "linear"), (3, (0, 1, 8))),
    ((9, 2, 2, "linear"), (3, (0, 1, 9))),
    ((11, 3, 2, "linear"), (4, (0, 1, 11, 121))),
]


@pytest.mark.parametrize("case,expected", PINNED_SEARCHES)
def test_search_witness_is_pinned(case, expected):
    q, r, h, mode = case
    size, witness = sl.exhaustive_max_sh_set(sl.field_of_order(q), r, h, mode=mode)
    assert (size, tuple(v.encode() for v in witness.elems)) == expected


def _check_engine_span(engine, r):
    """The kernel's incremental span agrees with linalg.in_span on every
    vector after each push and pop of a random sequence. The sequence may
    collide, so it goes onto the EchelonStack base alone."""
    ctx, q = engine.ctx, engine.q
    vectors = [linalg.decode_vector(ctx, r, c) for c in range(q ** r)]
    packs = [engine.pack(v.coords) for v in vectors]
    rng = random.Random(q * 10 + r)
    pushed = []

    def check():
        elems = [vectors[c] for c in pushed]
        for x, v in zip(packs, vectors):
            assert engine.in_span(x) == linalg.in_span(v, elems)

    for _ in range(3):
        for code in rng.sample(range(q ** r), r + 1):
            linalg.EchelonStack.push(engine, packs[code])
            pushed.append(code)
            check()
        for _ in range(rng.randint(1, r)):
            linalg.EchelonStack.pop(engine)
            pushed.pop()
            check()


# the ids keep the "-False" of a kernel choice the kernel no longer has
@pytest.mark.parametrize("q,r,linear", [
    pytest.param(q, r, linear, id=f"{q}-{r}-False-{linear}")
    for q, r, linear in ((2, 4, True), (3, 3, True), (4, 2, True), (5, 2, True),
                         (3, 3, False), (4, 2, False), (8, 2, True), (9, 2, True))
])
def test_engine_span_matches_elimination(q, r, linear):
    # the span is the same in plain mode, where combinations use only 1*x
    _check_engine_span(shset._Engine(sl.field_of_order(q), r, 2, plain=not linear), r)


def test_engine_span_matches_elimination_other_modulus():
    _check_engine_span(shset._Engine(sl.make_field(3, 2, (2, 2, 1)), 2, 2), 2)  # x^2 + 2x + 2


@pytest.mark.parametrize("mode", ["linear", "plain"])
@pytest.mark.parametrize("q", [2, 3, 4, 5, 8, 9])
def test_engine_fits_matches_verifier(q, mode):
    """After every push and pop of random sequences, fits(x) agrees with
    the block verifier on the pushed set plus x, for every vector x of the
    space. Each sequence starts with a parallel pair a, c*a or pushes 0
    after other elements, so the single-multiple test is reached by x = 0
    for q >= 3 too, and stops at 2h + 2 elements, past the 2h - 2 up to
    which two (h-1)-sums can agree."""
    ctx = sl.field_of_order(q)
    r = {2: 4, 3: 3}.get(q, 2)
    check = sl.check_sh_linear if mode == "linear" else sl.check_sh_set
    vectors = [linalg.decode_vector(ctx, r, c) for c in range(q ** r)]
    rng = random.Random(q * 10 + len(mode))
    for h in (1, 2, 3, 4):
        engine = shset._Engine(ctx, r, h, plain=mode == "plain")
        packs = [engine.pack(v.coords) for v in vectors]
        pushed: list = []

        def fitting():
            """The positions of the vectors that fit, each checked."""
            out = []
            for i, v in enumerate(vectors):
                if i in pushed:
                    continue
                elems = [vectors[j] for j in pushed] + [v]
                valid = len(elems) < h or check(shset.ShSetCandidate(ctx, r, elems, h)) is None
                assert engine.fits(packs[i]) == valid, ([vectors[j].coords for j in pushed], v.coords, h)
                if valid:
                    out.append(i)
            return out

        for start in ("parallel", "zero last"):
            a = rng.randrange(1, q ** r)
            if start == "parallel":
                c = rng.randrange(2, q) if q > 2 else 1
                firsts = [a, vectors.index(vectors[a].scale(c))]
            else:
                firsts = [a, rng.randrange(1, q ** r), 0]
            options = fitting()
            while options and len(pushed) < 2 * h + 2:
                i = firsts.pop(0) if firsts else rng.choice(options)
                if i in options:
                    assert engine.fits(packs[i])
                    engine.push(packs[i])
                    pushed.append(i)
                    if rng.random() < 0.25:
                        fitting()
                        engine.pop()
                        pushed.pop()
                    options = fitting()
            while pushed:
                engine.pop()
                pushed.pop()
                fitting()


@pytest.mark.parametrize("r", [3, 4])
def test_two_agreeing_sums_close_the_set(f2, r):
    # {0, a, b, a+b} is S_3-linear, and its 2-sums a+b = 0+(a+b) agree, so
    # y + (a+b) is taken twice for every further y: no vector can be added
    ones = [tuple(int(j == i) for j in range(r)) for i in (r - 2, r - 1)]
    coords = [(0,) * r, ones[1], ones[0], tuple(map(operator.or_, *ones))]
    cand = shset.ShSetCandidate.from_coords(f2, sorted(coords), 3)
    assert sl.is_sh_linear(cand)
    assert shset.is_maximal(cand)
    assert sl.extend_to_maximal(cand).elems == cand.elems


@pytest.mark.parametrize("q,modulus", [
    (2, None), (3, None), (4, None), (5, None), (7, None), (8, None), (9, None),
    (9, (2, 2, 1)), (8, (1, 0, 1, 1)),
])
def test_packed_arithmetic_matches_vectors(q, modulus):
    """Packing keeps the canonical order and round-trips, and the packed
    add, scalar multiples and distance filter agree with FqVector arithmetic."""
    ctx = sl.field_of_order(q, modulus)
    r = 3 if q < 8 else 2
    engine = shset._Engine(ctx, r, 2)
    vectors = [linalg.decode_vector(ctx, r, c) for c in range(q ** r)]
    packs = [engine.pack(v.coords) for v in vectors]
    assert packs == sorted(packs) == list(engine.vectors(r))
    assert all(engine.unpack(x) == v.coords for x, v in zip(packs, vectors))
    index = dict(zip(packs, vectors))
    rng = random.Random(q)
    for a, b in zip(rng.choices(packs, k=200), rng.choices(packs, k=200)):
        assert index[engine.add(a, b)] == index[a] + index[b]
        assert list(engine.add_all([a], [b, a])) == [engine.add(a, b), engine.add(a, a)]
        assert [index[m] for m in engine.multiples(a)] == [index[a].scale(c) for c in range(1, q)]
        dist = sum(map(operator.ne, index[a].coords, index[b].coords))
        assert (engine.far([a], [b], dist), engine.far([a], [b], dist + 1)) == ([a], [])


def test_plain_mode_never_below_linear_mode(f3, f5):
    for ctx, r, h in ((f3, 2, 2), (f3, 3, 2), (f5, 2, 2)):
        linear, _ = sl.exhaustive_max_sh_set(ctx, r, h)
        plain, _ = sl.exhaustive_max_sh_set(ctx, r, h, mode="plain")
        assert plain >= linear


def test_search_max_ternary_r4_is_six(f3):
    size, witness = sl.exhaustive_max_sh_set(f3, 4, 2)
    assert size == 6
    assert sl.is_sh_linear(witness)


def test_search_max_binary_r6_is_nine(f2):
    # the sh-table cell q=2, r=6, h=2 of the shipped snapshot
    size, witness = sl.exhaustive_max_sh_set(f2, 6, 2)
    assert size == 9
    assert sl.is_sh_linear(witness)


def test_search_max_quinary_r3_is_four(f5):
    size, witness = sl.exhaustive_max_sh_set(f5, 3, 2)
    assert size == 4
    assert sl.is_sh_linear(witness)


def test_search_witness_is_deterministic(f2):
    a = sl.exhaustive_max_sh_set(f2, 4, 2)
    b = sl.exhaustive_max_sh_set(f2, 4, 2)
    assert a[1].elems == b[1].elems


def test_search_space_guard(f2):
    with pytest.raises(SpaceTooLargeError):
        sl.exhaustive_max_sh_set(f2, 21, 2)


def test_search_witnesses_respect_size_bound(f2, f3):
    for ctx, r in ((f2, 4), (f3, 3)):
        size, witness = sl.exhaustive_max_sh_set(ctx, r, 2)
        assert sl.satisfies_size_bound(witness)


# ---------------------------------------------------------------------------
# property sweeps (small versions; the acceptance suite runs larger ones)
# ---------------------------------------------------------------------------

def test_span_disjointness_for_odd_q_zero_free_sets():
    rng = random.Random(13)
    for q in (3, 5):
        ctx = sl.field_of_order(q)
        for _ in range(6):
            cand = random_verified_set(rng, ctx, 4, 3, 4, include_zero=False)
            if cand is None:
                continue
            full = sl.h_span(cand)
            for t in (1, 2):
                assert not (full & sl.h_span(cand.with_h(t)))


def test_span_disjointness_fails_with_zero_by_construction(tiny_ternary_set):
    """With canonical coefficients, a combination through 0 evaluates to a
    combination of one fewer term, so zero-containing sets always overlap
    the next span down; the disjointness statement needs 0 outside the set."""
    assert sl.is_sh_linear(tiny_ternary_set)
    overlap = sl.h_span(tiny_ternary_set) & sl.h_span(tiny_ternary_set.with_h(1))
    assert overlap  # e.g. the value of a2 itself, reached as 1*a1 + 1*a2


def test_lower_h_inherited_when_dimension_allows(f3):
    rng = random.Random(29)
    for _ in range(8):
        cand = random_verified_set(rng, f3, 5, 2, 5)
        if cand is None:
            continue
        assert sl.is_sh_linear(cand.with_h(1))
