"""Snapshot ingestion, exhaustive certificates, and the derived bounds."""

import functools
import itertools
import math

import pytest
from helpers import reference_exists_code_with_distance

import shlinear as sl
from shlinear import bounds, linalg
from shlinear.errors import (
    BudgetExceededError,
    CertificateCountError,
    InvalidParameterError,
    NoWitnessError,
    ParseError,
    SingletonViolationError,
)


def entry(q, n, k, d_low, d_up):
    return bounds.CodeTableEntry(q, n, k, d_low, d_up)


# ---------------------------------------------------------------------------
# entries and ingestion
# ---------------------------------------------------------------------------

def test_entry_validation():
    entry(2, 8, 2, 5, 5)
    with pytest.raises(SingletonViolationError):
        entry(2, 8, 2, 5, 8)  # d_up beyond n - k + 1
    with pytest.raises(SingletonViolationError):
        entry(2, 8, 9, 1, 1)  # k > n
    with pytest.raises(SingletonViolationError):
        entry(2, 8, 2, 6, 5)  # d_low > d_up


def test_parse_demo_lines(tmp_path):
    text = "\n".join(
        [
            "# demo",
            "2,12,4,4,4",
            "5,12,4,7,7",
            "2,8,3,4,4",
            "",
        ]
    )
    path = tmp_path / "snap.csv"
    path.write_text(text)
    entries = bounds.ingest_table(path)
    assert [(e.q, e.n, e.k) for e in entries] == [(2, 12, 4), (5, 12, 4), (2, 8, 3)]


def test_parse_reports_line_numbers(tmp_path):
    path = tmp_path / "bad.csv"
    path.write_text("2,5,1,5,5\n2,5,1\n")
    with pytest.raises(ParseError) as info:
        bounds.ingest_table(path)
    assert info.value.line == 2


def test_parse_rejects_singleton_violation(tmp_path):
    path = tmp_path / "bad.csv"
    path.write_text("2,5,2,5,5\n")
    with pytest.raises(SingletonViolationError) as info:
        bounds.ingest_table(path)
    assert "line 1" in str(info.value)


def test_parse_rejects_duplicates(tmp_path):
    path = tmp_path / "dup.csv"
    path.write_text("2,5,1,5,5\n2,5,1,4,5\n")
    with pytest.raises(ParseError):
        bounds.ingest_table(path)


def test_shipped_snapshot_ingests(snapshot_entries):
    assert len(snapshot_entries) > 20
    assert any(e.q == 5 and e.n == 12 and e.k == 4 for e in snapshot_entries)


# ---------------------------------------------------------------------------
# exhaustive certificates
# ---------------------------------------------------------------------------

def test_gaussian_binomial_counts():
    assert bounds.gaussian_binomial(8, 3, 2) == 97155
    assert bounds.gaussian_binomial(8, 4, 2) == 200787
    assert bounds.gaussian_binomial(4, 2, 3) == 130
    assert bounds.gaussian_binomial(5, 0, 2) == 1


def test_rref_enumeration_is_exhaustive_and_distinct():
    """The per-pivot row builder of exists_code_with_distance generates each
    k-dimensional subspace exactly once."""
    for q, n, k in ((2, 5, 2), (3, 4, 2), (4, 4, 2)):
        f = sl.field_of_order(q)
        space = linalg.PackedSpace(f, n)
        values = [
            [space.pack([a if j == c else 0 for j in range(n)]) for a in range(q)]
            for c in range(n)
        ]
        seen = set()
        for pivots in itertools.combinations(range(n), k):
            free = bounds._free_columns(n, pivots)
            for rows in itertools.product(
                *([r for b in bounds._rows(values, p, c) for r in b] for p, c in zip(pivots, free))
            ):
                rows = [space.unpack(r) for r in rows]
                key = frozenset(
                    tuple(
                        functools.reduce(f.add, (f.mul(c, row[j]) for c, row in zip(msg, rows)), 0)
                        for j in range(n)
                    )
                    for msg in itertools.product(range(q), repeat=k)
                )
                assert key not in seen  # each subspace generated exactly once
                seen.add(key)
        assert len(seen) == bounds.gaussian_binomial(n, k, q)


def test_certificates_equal_the_unpruned_reference():
    """Verdict, candidate count and witness equal those of the generate-and-
    test enumeration on every small cell."""
    cases = 0
    for q in (2, 3, 4, 5, 7, 8, 9):
        limit = 5000 if q in (3, 4, 5) else 1000  # fields where column scaling cuts
        for n in range(1, 7):
            for k in range(n + 1):
                if bounds.gaussian_binomial(n, k, q) > limit:
                    continue
                for d in range(1, n - k + 3):
                    expected = reference_exists_code_with_distance(q, n, k, d, 10 ** 6)
                    assert bounds.exists_code_with_distance(q, n, k, d) == expected
                    cases += 1
    assert cases == 561


@pytest.mark.parametrize("q, n, k, d, exists, candidates, witness", [
    (3, 7, 3, 5, False, 925_771, None),
    (2, 9, 3, 7, False, 788_035, None),
    (3, 7, 2, 5, True, 9_816, ((1, 0, 2, 1, 1, 0, 1), (0, 1, 1, 1, 1, 1, 0))),
    (4, 6, 1, 5, True, 86, ((1, 1, 1, 1, 1, 0),)),
    (4, 6, 2, 5, False, 93_093, None),
    (2, 9, 4, 4, True, 241_071, ((1, 0, 0, 0, 0, 1, 1, 1, 0), (0, 1, 0, 0, 1, 0, 1, 1, 0),
                                 (0, 0, 1, 0, 1, 1, 0, 1, 0), (0, 0, 0, 1, 1, 1, 1, 0, 0))),
    (5, 7, 3, 5, False, 320_327_931, None),
    (5, 8, 2, 7, False, 317_886_556, None),
    (7, 7, 1, 7, True, 19_609, ((1, 1, 1, 1, 1, 1, 1),)),
])
def test_certify_cells_are_pinned(q, n, k, d, exists, candidates, witness):
    cert = bounds.exists_code_with_distance(q, n, k, d, budget=10 ** 9)
    assert cert == bounds.ExhaustiveCertificate(q, n, k, d, exists, candidates, witness)
    if exists:  # the pinned witness is a real [n, k, >= d] code
        gen = linalg.FqMatrix.from_rows(sl.field_of_order(q), witness)
        assert linalg.rank(gen) == k
        assert sl.min_distance(sl.from_generator(gen)) >= d


@pytest.mark.parametrize("d", [0, -1])
def test_distance_below_one_is_rejected(d):
    with pytest.raises(InvalidParameterError):
        bounds.exists_code_with_distance(3, 4, 2, d)


@pytest.mark.parametrize("n, k, d", [(3, 5, 1), (3, 5, 2), (3, -1, 2)])
def test_dimension_outside_zero_to_n_is_rejected(n, k, d):
    # k > n once returned a five-row witness of rank 3 at d = 1 and "none"
    # at d = 2, and k < 0 a ValueError from itertools
    with pytest.raises(InvalidParameterError):
        bounds.exists_code_with_distance(2, n, k, d)


@pytest.mark.parametrize("q, n, k", [(8, 8, 8), (9, 10, 10), (2, 12, 12), (5, 6, 1), (4, 6, 3)])
def test_distance_one_returns_the_first_code_without_a_walk(monkeypatch, q, n, k):
    """Every code reaches d = 1, so even k = n, whose walk would span all
    q^n words, is decided by its first code alone."""
    monkeypatch.setattr(bounds, "_walk", None)
    cert = bounds.exists_code_with_distance(q, n, k, 1)
    first = tuple(tuple(int(c == i) for c in range(n)) for i in range(k))
    assert cert == bounds.ExhaustiveCertificate(q, n, k, 1, True, 1, first)


# cells where the pivot-set skip rules out some pivot sets but not all;
# every code is equivalent to one with pivots 0, ..., k-1, the first set,
# which the skip never rules out, so an "exists" witness always lies there
SKIP_CELLS = [
    (2, 8, 2, 6, False),
    (3, 6, 2, 5, False),
    (2, 8, 2, 5, True),
    (2, 7, 3, 4, True),
    (3, 6, 2, 4, True),
    (4, 5, 2, 3, True),
    (5, 5, 2, 4, True),
]


@pytest.mark.parametrize("q, n, k, d, exists", SKIP_CELLS)
def test_skipped_pivot_sets_keep_count_and_witness(q, n, k, d, exists):
    """A pivot set whose last pivot lies past n - d is ruled out whole and
    counted with all its codes: verdict, count and witness stay those of the
    generate-and-test enumeration."""
    sets = list(itertools.combinations(range(n), k))
    assert 0 < sum(s[-1] > n - d for s in sets) < len(sets)
    cert = bounds.exists_code_with_distance(q, n, k, d, budget=10 ** 6)
    assert cert.exists == exists
    assert cert == reference_exists_code_with_distance(q, n, k, d, 10 ** 6)
    if exists:  # the witness has pivots 0, ..., k-1
        assert all(row[:i + 1] == (0,) * i + (1,) for i, row in enumerate(cert.witness_rows))


def test_rows_are_built_only_for_pivot_sets_that_can_reach_d(monkeypatch):
    """_rows is called, once per row, only for pivot sets whose last pivot is
    at most n - d; a "none" cell walks exactly those sets, in order."""
    built, rows = [], bounds._rows

    def recording_rows(values, pivot, cols):
        built.append(pivot)
        return rows(values, pivot, cols)

    monkeypatch.setattr(bounds, "_rows", recording_rows)
    certify_cells = [(3, 7, 3, 5, False), (2, 9, 3, 7, False), (3, 7, 2, 5, True),
                     (4, 6, 1, 5, True), (4, 6, 2, 5, False)]
    for q, n, k, d, exists in SKIP_CELLS + certify_cells:
        del built[:]
        bounds.exists_code_with_distance(q, n, k, d, budget=10 ** 6)
        sets = [tuple(sorted(built[i:i + k])) for i in range(0, len(built), k)]
        assert sets and all(s[-1] <= n - d for s in sets)
        if not exists:
            assert sets == list(itertools.combinations(range(n - d + 1), k))


@pytest.mark.parametrize("q, n, k, d", [(3, 7, 3, 5), (3, 6, 2, 5), (4, 6, 2, 5), (4, 6, 4, 3),
                                        (5, 7, 3, 5), (5, 8, 2, 7)])
def test_outer_rows_take_free_entries_zero_and_one(monkeypatch, q, n, k, d):
    """The outermost level, row k-1, is built with free entries 0 and 1 only,
    and its rows' scalings, (q-1)^(w-1) each for a row of weight w, sum to
    q^(free entries) over each walked pivot set: one row per scaling orbit,
    counted for all of it. Every cell here is "none", so every set walked
    yields all its outer rows."""
    space, rows, calls, outer = linalg.PackedSpace(sl.field_of_order(q), n), bounds._rows, [], []

    def recording(blocks):
        for block in blocks:
            outer[-1][1].extend(space.unpack(row) for row in block)
            yield block

    def recording_rows(values, pivot, cols):
        calls.append(pivot)
        if (len(calls) - 1) % k:  # an inner row
            return rows(values, pivot, cols)
        outer.append((cols, []))
        return recording(rows(values, pivot, cols))

    monkeypatch.setattr(bounds, "_rows", recording_rows)
    assert not bounds.exists_code_with_distance(q, n, k, d, budget=10 ** 9).exists
    assert outer
    for cols, walked in outer:
        assert len(walked) == len(set(walked)) == 2 ** len(cols)
        assert all(row[c] in (0, 1) for row in walked for c in cols)
        weights = [sum(map(bool, row)) for row in walked]
        assert sum((q - 1) ** (w - 1) for w in weights) == q ** len(cols)


def test_none_certificate_must_count_every_code(monkeypatch):
    monkeypatch.setattr(bounds, "gaussian_binomial", lambda n, k, q: 97156)
    with pytest.raises(CertificateCountError):
        bounds.exists_code_with_distance(2, 8, 3, 5)


@pytest.mark.parametrize("q, n, k, d, lossy", [
    (2, 8, 2, 6, 0),
    (2, 8, 2, 6, 1),
    (3, 5, 3, 3, 0),
    (3, 5, 3, 3, 1),
    (3, 5, 3, 3, 2),
    (4, 6, 2, 5, 0),
    (4, 6, 2, 5, 1),
])
def test_lost_rows_leave_the_count_short(monkeypatch, q, n, k, d, lossy):
    """The count tallies the rows each level generates, so a level that
    loses its first list of rows leaves a "none" certificate short."""
    rows, calls = bounds._rows, itertools.count()

    def lossy_rows(*args):
        out = rows(*args)
        return itertools.islice(out, 1, None) if next(calls) % k == lossy else out

    monkeypatch.setattr(bounds, "_rows", lossy_rows)
    with pytest.raises(CertificateCountError):
        bounds.exists_code_with_distance(q, n, k, d, budget=10 ** 6)


def test_repetition_code_found_by_search():
    cert = bounds.exists_code_with_distance(2, 5, 1, 5)
    assert cert.exists
    assert cert.witness_rows == ((1, 1, 1, 1, 1),)


def test_no_binary_8_3_5_code():
    cert = bounds.exists_code_with_distance(2, 8, 3, 5)
    assert not cert.exists
    assert cert.candidates == 97155


def test_ternary_search_small():
    cert = bounds.exists_code_with_distance(3, 4, 1, 4)
    assert cert.exists  # ternary repetition [4,1,4]
    cert = bounds.exists_code_with_distance(3, 4, 2, 4)
    assert not cert.exists  # Singleton forbids [4,2,4]


def test_search_budget():
    with pytest.raises(BudgetExceededError):
        bounds.exists_code_with_distance(2, 19, 10, 5, budget=1000)


# ---------------------------------------------------------------------------
# vbar and bmax
# ---------------------------------------------------------------------------

def test_vbar_upper_values(snapshot_entries):
    assert bounds.vbar_upper(snapshot_entries, 2, 2, 8).value == 6
    assert bounds.vbar_upper(snapshot_entries, 2, 2, 19).value == 9
    assert bounds.vbar_upper(snapshot_entries, 2, 2, 5).value == 4


def test_vbar_upper_no_witness():
    with pytest.raises(NoWitnessError):
        bounds.vbar_upper([entry(2, 9, 1, 9, 9)], 2, 2, 8)


def test_vbar_exact_small_case(snapshot_entries):
    result = bounds.vbar_exact(snapshot_entries, 2, 2, 5)
    assert result.exact and result.value == 4
    assert isinstance(result.provenance[0], bounds.CodeTableEntry)


def test_vbar_exact_uses_exhaustive_certificate(snapshot_entries):
    result = bounds.vbar_exact(snapshot_entries, 2, 2, 8)
    assert result.exact and result.value == 6
    kinds = [type(p).__name__ for p in result.provenance]
    assert "ExhaustiveCertificate" in kinds  # the [8,3] refutation
    certs = [p for p in result.provenance if isinstance(p, bounds.ExhaustiveCertificate)]
    assert certs[0].candidates == 97155 and certs[0].k == 3


def test_vbar_exact_from_table_exclusions(snapshot_entries):
    result = bounds.vbar_exact(snapshot_entries, 2, 2, 19)
    assert result.exact and result.value == 9
    excluded_k = {p.k for p in result.provenance if isinstance(p, bounds.CodeTableEntry) and p.d_up < 5}
    assert excluded_k == {11, 12, 13, 14, 15}


def test_vbar_exact_interval_when_undecidable():
    entries = [entry(2, 19, 10, 5, 10)]  # upper bound only, nothing below decidable
    result = bounds.vbar_exact(entries, 2, 2, 19, budget=1000)
    assert not result.exact
    assert result.interval == (4, 9)
    assert "budget" in result.note


def test_vbar_search_can_beat_the_table():
    # table only knows redundancy 5, but enumeration finds the [6,2,4] at 4:
    # vbar must come back exact at the smaller redundancy
    entries = [entry(2, 6, 1, 6, 6)]
    result = bounds.vbar_exact(entries, 2, 1, 6)
    assert result.exact
    assert result.value == 3  # [6,3,3] codes exist
    assert isinstance(result.provenance[0], bounds.ExhaustiveCertificate)


def test_bmax_log_duality(snapshot_entries):
    assert bounds.bmax_log(snapshot_entries, 2, 8, 2).value == 2
    assert bounds.bmax_log(snapshot_entries, 2, 19, 2).value == 10
    assert bounds.bmax_log(snapshot_entries, 2, 5, 2).value == 1


# ---------------------------------------------------------------------------
# sh_lower and emission
# ---------------------------------------------------------------------------

def test_sh_lower_values(snapshot_entries):
    assert bounds.sh_lower(snapshot_entries, 2, 9, 2).value == 24
    assert bounds.sh_lower(snapshot_entries, 2, 6, 3).value == 8
    assert bounds.sh_lower(snapshot_entries, 2, 4, 3).is_sentinel
    assert bounds.sh_lower(snapshot_entries, 3, 6, 3).value == 8


def test_sh_lower_ternary_witness_verifies(snapshot_entries, f3):
    """The [7,1,7] repetition witness behind the ternary cell really has
    distance 7."""
    result = bounds.sh_lower(snapshot_entries, 3, 6, 3)
    witness = result.provenance[0]
    assert (witness.n, witness.k, witness.d_low) == (7, 1, 7)
    code = sl.from_generator(linalg.FqMatrix.from_rows(f3, [[1] * 7]))
    assert sl.min_distance(code) == 7


def test_emit_sh_table_matches_published_row(snapshot_entries):
    csv = bounds.emit_sh_table(snapshot_entries, 2, range(2, 9), range(4, 10))
    lines = csv.strip().splitlines()
    assert lines[0] == "r,h=2,h=3,h=4,h=5,h=6,h=7,h=8"
    grid = {int(row.split(",")[0]): row.split(",")[1:] for row in lines[1:]}
    assert grid[4] == ["6", "X", "X", "X", "X", "X", "X"]
    assert grid[9][0] == "24"
    assert grid[6][1] == "8"


def test_sh_columns_monotone_on_shipped_snapshot(snapshot_entries):
    for h in range(2, 9):
        column = [bounds.sh_lower(snapshot_entries, 2, r, h).value for r in range(4, 10)]
        assert bounds.column_monotone_violations(column) == []


def test_emit_vbar_series_and_steps(snapshot_entries):
    csv = bounds.emit_vbar_series(snapshot_entries, 2, 2, range(5, 9))
    rows = [line.split(",") for line in csv.strip().splitlines()[1:]]
    assert [r[1] for r in rows] == ["4", "5", "6", "6"]
    values = [int(r[1]) for r in rows]
    assert bounds.series_step_violations(values) == []


def test_series_step_violation_detection():
    assert bounds.series_step_violations([4, 6]) == ["step 2 > 1 at position 1: 4 -> 6"]
    assert bounds.series_step_violations([4, 3]) == ["decrease at position 1: 4 -> 3"]
    assert bounds.series_step_violations([4, None, 9]) == []  # gaps are not compared


# ---------------------------------------------------------------------------
# provenance re-validation
# ---------------------------------------------------------------------------

def test_revalidate_clean_results(snapshot_entries):
    for result in (
        bounds.vbar_exact(snapshot_entries, 2, 2, 5),
        bounds.vbar_exact(snapshot_entries, 2, 2, 8),
        bounds.sh_lower(snapshot_entries, 2, 9, 2),
    ):
        assert bounds.revalidate(result) == []


def test_revalidate_flags_corrupt_certificate():
    fake = bounds.ExhaustiveCertificate(2, 5, 1, 5, exists=False, candidates=31)
    result = bounds.BoundResult("vbar_exact", 4, (fake,))
    problems = bounds.revalidate(result)
    assert problems and "did not reproduce" in problems[0]


def test_revalidate_reruns_million_size_certificates():
    result = bounds.vbar_exact([], 3, 2, 7, budget=10 ** 6)
    cert = result.provenance[-1]
    assert (cert.n, cert.k, cert.candidates) == (7, 3, 925_771)
    assert bounds.revalidate(result) == []
    fake = bounds.ExhaustiveCertificate(3, 7, 3, 5, exists=False, candidates=925_770)
    problems = bounds.revalidate(bounds.BoundResult("vbar_exact", 5, (fake,)))
    assert problems and "did not reproduce" in problems[0]
