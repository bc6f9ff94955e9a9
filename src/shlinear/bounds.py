"""Quantitative layer: best-known-code snapshots and the derived bounds.

vbar(q, h, n) is the minimum redundancy r = n-k in [2h, n) for which an
[n, n-r, d >= 2h+1] code over F_q exists; it equals the minimum dimension
of an ambient space containing an S_h-linear set with n+1 elements, and
log_q B_q(n, 2h+1) = n - vbar(q, h, n).

Existence evidence comes from ingested table entries (d_low); nonexistence
comes either from table entries (d_up) or from exhaustive enumeration of
all [n, k] codes via reduced-row-echelon-form generator matrices, one per
column-scaling orbit of the last row and counted with the orbit's size,
which turns a table citation into an independently checkable certificate
at desk scale. Every result carries its provenance chain and can be
re-validated.

sh_lower(q, r, h) is the table-generation rule for lower bounds on the
maximum S_h-linear set size in F_q^r: max{n+1 : [n, n-r, d >= 2h+1] known}.
Cells with no qualifying entry get the sentinel X.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass
from pathlib import Path
from typing import Iterable, List, Optional, Sequence, Tuple, Union

from .errors import (
    BudgetExceededError,
    CertificateCountError,
    InvalidParameterError,
    NoWitnessError,
    ParseError,
    SingletonViolationError,
)
from .gf import factor_prime_power, field_of_order
from .linalg import PackedSpace

DEFAULT_SEARCH_BUDGET = 500_000
RECHECK_CAP = 1_000_000


@dataclass(frozen=True)
class CodeTableEntry:
    """One (q, n, k) row of a best-known-codes snapshot.

    d_low: largest d for which an [n, k, d] code is known to exist.
    d_up:  best known upper bound on the achievable minimum distance.
    """

    q: int
    n: int
    k: int
    d_low: int
    d_up: int

    def __post_init__(self):
        if not 0 <= self.k <= self.n:
            raise SingletonViolationError(f"need 0 <= k <= n, got k={self.k}, n={self.n}")
        if not 1 <= self.d_low <= self.d_up:
            raise SingletonViolationError(
                f"need 1 <= d_low <= d_up, got d_low={self.d_low}, d_up={self.d_up}"
            )
        if self.k + self.d_up > self.n + 1:
            raise SingletonViolationError(
                f"[{self.n},{self.k}] with d_up={self.d_up} violates k + d <= n + 1"
            )

    @property
    def redundancy(self) -> int:
        return self.n - self.k

    def __str__(self) -> str:
        return f"{self.q},{self.n},{self.k},{self.d_low},{self.d_up}"


@dataclass(frozen=True)
class ExhaustiveCertificate:
    """Outcome of enumerating every [n, k] code over F_q against a distance
    target: either no code reaches d (nonexistence) or a witness generator
    matrix is recorded."""

    q: int
    n: int
    k: int
    d: int
    exists: bool
    candidates: int
    witness_rows: Optional[Tuple[Tuple[int, ...], ...]] = None

    def __str__(self) -> str:
        verdict = "exists" if self.exists else "none"
        return (
            f"exhaustive[{self.n},{self.k}]q{self.q} d>={self.d}: {verdict} "
            f"({self.candidates} candidates)"
        )


Provenance = Union[CodeTableEntry, ExhaustiveCertificate]


@dataclass(frozen=True)
class BoundResult:
    """A derived bound with its provenance chain.

    value is the bound when settled; for sh_lower a None value is the X
    sentinel (no qualifying entry). interval is set instead of an exact
    value when nonexistence below the upper bound could not be certified.
    """

    kind: str
    value: Optional[int]
    provenance: Tuple[Provenance, ...]
    interval: Optional[Tuple[int, int]] = None
    note: str = ""

    @property
    def exact(self) -> bool:
        return self.value is not None and self.interval is None

    @property
    def is_sentinel(self) -> bool:
        return self.value is None and self.interval is None

    def display(self) -> str:
        if self.is_sentinel:
            return "X"
        if self.interval is not None:
            lo, hi = self.interval
            return f"[{lo},{hi}]"
        return str(self.value)


# ---------------------------------------------------------------------------
# snapshot ingestion
# ---------------------------------------------------------------------------

def parse_table(lines: Iterable[str], source: str = "<snapshot>") -> List[CodeTableEntry]:
    """Parse `q,n,k,d_low,d_up` lines; `#` starts a comment, blanks ignored."""
    entries: List[CodeTableEntry] = []
    seen = {}
    for lineno, raw in enumerate(lines, start=1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        parts = [p.strip() for p in line.split(",")]
        if len(parts) != 5:
            raise ParseError(f"{source}: expected 5 comma-separated fields, got {len(parts)}", lineno)
        try:
            q, n, k, d_low, d_up = (int(p) for p in parts)
        except ValueError:
            raise ParseError(f"{source}: non-integer field in {line!r}", lineno) from None
        try:
            entry = CodeTableEntry(q, n, k, d_low, d_up)
        except SingletonViolationError as exc:
            raise SingletonViolationError(f"{source} line {lineno}: {exc}") from None
        key = (q, n, k)
        if key in seen:
            raise ParseError(f"{source}: duplicate entry for (q,n,k)={key}", lineno)
        seen[key] = entry
        entries.append(entry)
    return entries


def ingest_table(path) -> List[CodeTableEntry]:
    path = Path(path)
    with path.open("r", encoding="utf-8") as fh:
        return parse_table(fh, source=str(path))


def _lookup(entries: Sequence[CodeTableEntry], q: int, n: int, k: int) -> Optional[CodeTableEntry]:
    for e in entries:
        if e.q == q and e.n == n and e.k == k:
            return e
    return None


# ---------------------------------------------------------------------------
# exhaustive nonexistence / existence certificates
# ---------------------------------------------------------------------------

def gaussian_binomial(n: int, k: int, q: int) -> int:
    """Number of k-dimensional subspaces of F_q^n."""
    if not 0 <= k <= n:
        return 0
    num = den = 1
    for i in range(k):
        num *= q ** (n - i) - 1
        den *= q ** (i + 1) - 1
    return num // den


def _free_columns(n: int, pivots: Sequence[int]) -> List[List[int]]:
    """Row i of an RREF matrix with these pivots holds 1 at pivots[i], any
    value at each column of the i-th list, and 0 everywhere else."""
    pivot_set = set(pivots)
    return [[c for c in range(p + 1, n) if c not in pivot_set] for p in pivots]


def _rows(values: Sequence[Sequence[int]], pivot: int, cols: Sequence[int]):
    """Packed rows with 1 at the pivot, any value at each column of cols and
    0 elsewhere, counting up as base-q integers whose lowest digit is the
    first column. They come lazily as one list per value at the last
    column. values[c] lists the packed a*e_c, a = 0, ..., q-1."""
    rows = [values[pivot][1]]
    for c in cols[:-1]:
        rows = [row + v for v in values[c] for row in rows]
    for v in values[cols[-1]] if cols else [0]:
        yield [v + row for row in rows]


def _walk(levels, below, heavy, extend, span, chosen) -> Optional[int]:
    """Depth-first search over the generator matrices of one pivot set that
    extend the rows in `chosen`, one row per level, outermost level first.
    `levels[i]` iterates the values of that row in blocks, each the number
    of rows the block stands for (its length, or for the outermost level the
    sum of its rows' scaling orbits) and its sublist of rows of weight >= d,
    `below[i]` is the number of completions of a prefix ending at level i,
    `heavy(rows, span)` keeps the rows whose sum with every word of `span`
    (the nonzero code of the rows fixed above) has weight >= d, and
    `extend` returns that code with one more row.

    A row with a lighter word is ruled out with all its completions, since
    they have that word too, so each block is filtered once against the span
    and only the surviving rows are descended into. Returns the number of
    codes decided: below[level] for each row a block stands for, plus what
    each survivor's subtree returns less below[level], which is 0 unless a
    level lost rows and leaves the count short. At the first code without a
    lighter word it stops and returns None, with that code's rows in
    `chosen`."""
    level = len(chosen)
    checked = 0
    for size, own in levels[level]:
        checked += size * below[level]
        for row in heavy(own, span):
            chosen.append(row)
            if level + 1 == len(levels):
                return None
            sub = _walk(levels, below, heavy, extend, extend(span, row), chosen)
            if sub is None:
                return None
            checked += sub - below[level]
            chosen.pop()
    return checked


def exists_code_with_distance(
    q: int, n: int, k: int, d: int, budget: int = DEFAULT_SEARCH_BUDGET
) -> ExhaustiveCertificate:
    """Decide whether some [n, k] code over F_q reaches minimum distance
    >= d, over every RREF generator matrix in a fixed order: pivot sets in
    itertools.combinations order, and within a set the free entries count
    up as one base-q integer whose lowest digit is the first free column of
    row 0. `candidates` counts the codes decided, visited or ruled out
    together with a prefix that already spans a word of weight < d or with
    their whole pivot set; it is the Gaussian binomial for "none". Raises
    BudgetExceededError when that number exceeds the budget, and
    InvalidParameterError unless 0 <= k <= n and d >= 1. Every code reaches
    d = 1, and the zero code (k = 0) reaches every d, so then the first
    code, [I | 0], is returned with no walk.

    A pivot set whose last pivot p_(k-1) lies past column n - d is decided
    before any row is generated: the last RREF row is a codeword with at
    most n - p_(k-1) < d nonzero entries, so all q^(free entries) codes of
    the set are ruled out at once and counted as the walk would count them.

    Codes are decided up to scaling non-pivot columns by F_q^*, which keeps
    the pivot set and every weight: row k-1, the outermost level, takes free
    entries 0 and 1 alone, and a row of weight w counts for the (q-1)^(w-1)
    rows that scale its nonzero free entries. 1 is the least nonzero
    element, so the first code that reaches d is still the first visited;
    its count is the codes of the earlier pivot sets plus its free entries
    read as the base-q integer of the order, plus 1, as a visit of every
    code would give. For q = 2 nothing changes.

    Rows and codewords are packed vectors (linalg.PackedSpace). The walk
    keeps the negated code of the rows fixed so far, since row + w has
    weight distance(row, -w), and -(c*row + w) = (-c)*row - w makes the
    negated code with one more row {c*row + neg : c in F_q}."""
    if not 0 <= k <= n:
        raise InvalidParameterError(f"need 0 <= k <= n, got k={k}, n={n}")
    if d < 1:
        raise InvalidParameterError(f"d must be >= 1, got {d}")
    ctx = field_of_order(q)
    count = gaussian_binomial(n, k, q)
    if count > budget:
        raise BudgetExceededError(
            f"{count} candidate [{n},{k}] codes over F_{q} exceed budget {budget}"
        )
    if d == 1 or k == 0:  # the first code, [I | 0], reaches d
        rows = tuple(tuple(int(c == i) for c in range(n)) for i in range(k))
        return ExhaustiveCertificate(q, n, k, d, True, 1, witness_rows=rows)
    space = PackedSpace(ctx, n)
    unit = lambda c: space.pack([0] * c + [1] + [0] * (n - 1 - c))
    values = [[0, *space.multiples(unit(c))] for c in range(n)]  # values[c][a] = a*e_c
    ones = [v[:2] for v in values]  # 0 and e_c
    heavy = lambda rows, span: space.far(rows, span, d)
    # a block's size and its rows of weight >= d. An outer row has entries
    # 0 and 1 alone, so one set bit per nonzero entry, and stands for the
    # scalings[w] = (q-1)^(w-1) rows that scale its w-1 nonzero free entries
    own = lambda rows: (len(rows), heavy(rows, [0]))
    scalings = [0, *((q - 1) ** w for w in range(n))]
    orbits = lambda rows: (sum(map(scalings.__getitem__, map(int.bit_count, rows))),
                           heavy(rows, [0]))
    # the span holds the nonzero negated codewords
    extend = lambda span, row: [*span, *space.add_all(space.multiples(row), [0, *span])]
    checked = 0
    for pivots in itertools.combinations(range(n), k):
        if pivots[-1] > n - d:
            # the last row has weight <= n - pivots[-1] < d, so it rules out
            # every code of the set: q^(free entries) of them
            checked += q ** sum(n - k + i - c for i, c in enumerate(pivots))
            continue
        # the highest digits of the count belong to row k-1, so it is the
        # outermost level; it takes free entries 0 and 1 alone
        cols = _free_columns(n, pivots)[::-1]
        outer = _rows(ones, pivots[-1], cols[0])
        inner = [_rows(values, p, c) for p, c in zip(pivots[-2::-1], cols[1:])]
        # the outermost row is walked once, so it stays lazy; an inner row is
        # revisited under every prefix, so it is listed once. An inner row
        # has at most n-k free columns and count >= q^(k(n-k)), so its list
        # holds at most sqrt(count) rows.
        levels = [map(orbits, outer), *(list(map(own, rows)) for rows in inner)]
        below = [q ** sum(map(len, cols[i + 1:])) for i in range(k)]
        rows = []
        tally = _walk(levels, below, heavy, extend, [], rows)
        if tally is None:
            # every code of the set before the witness was decided: as many
            # as its free entries read as the base-q integer of the order
            witness = tuple(space.unpack(row) for row in rows[::-1])
            digits = [row[c] for row, free in zip(witness, cols[::-1]) for c in free]
            checked += 1 + sum(a * q ** i for i, a in enumerate(digits))
            return ExhaustiveCertificate(q, n, k, d, True, checked, witness)
        checked += tally
    if checked != count:
        raise CertificateCountError(
            f"enumeration of [{n},{k}] codes over F_{q} decided {checked} of {count}"
        )
    return ExhaustiveCertificate(q, n, k, d, False, checked)


# ---------------------------------------------------------------------------
# bounds
# ---------------------------------------------------------------------------

def vbar_upper(entries: Sequence[CodeTableEntry], q: int, h: int, n: int) -> BoundResult:
    """Upper bound on vbar: min n-k over entries with d_low >= 2h+1 and
    2h <= n-k < n."""
    factor_prime_power(q)
    if not 0 < 2 * h < n:
        raise InvalidParameterError(f"need h >= 1 and n > 2h, got h={h}, n={n}")
    target = 2 * h + 1
    best: Optional[CodeTableEntry] = None
    for e in entries:
        if e.q != q or e.n != n or e.d_low < target:
            continue
        if not 2 * h <= e.redundancy < n:
            continue
        if best is None or e.redundancy < best.redundancy:
            best = e
    if best is None:
        raise NoWitnessError(f"no [{n},k,>={target}] entry over F_{q} in the snapshot")
    return BoundResult("vbar_upper", best.redundancy, (best,))


def vbar_exact(
    entries: Sequence[CodeTableEntry],
    q: int,
    h: int,
    n: int,
    budget: int = DEFAULT_SEARCH_BUDGET,
) -> BoundResult:
    """Exact vbar when every redundancy below the first existence witness can
    be excluded (by a table d_up entry or an exhaustive certificate); else an
    interval result explaining the first undecided redundancy. Bad h or n
    raise InvalidParameterError from vbar_upper."""
    target = 2 * h + 1
    try:
        upper = vbar_upper(entries, q, h, n)
    except NoWitnessError:
        upper = None
    exclusions: List[Provenance] = []
    for r in range(2 * h, n):
        if upper is not None and r > upper.value:
            break
        k = n - r
        entry = _lookup(entries, q, n, k)
        if entry is not None and entry.d_low >= target:
            return BoundResult("vbar_exact", r, (entry, *exclusions))
        if entry is not None and entry.d_up < target:
            exclusions.append(entry)
            continue
        try:
            cert = exists_code_with_distance(q, n, k, target, budget)
        except BudgetExceededError:
            if upper is None:
                raise NoWitnessError(
                    f"no existence witness for vbar(q={q}, h={h}, n={n}) and "
                    f"[{n},{k}] is too large to enumerate"
                ) from None
            return BoundResult(
                "vbar_exact",
                None,
                tuple(upper.provenance) + tuple(exclusions),
                interval=(r, upper.value),
                note=(
                    f"undecided at redundancy {r}: no table entry for [{n},{k}] "
                    f"and enumeration exceeds budget {budget}"
                ),
            )
        if cert.exists:
            return BoundResult("vbar_exact", r, (cert, *exclusions))
        exclusions.append(cert)
    raise NoWitnessError(
        f"every redundancy in [{2 * h}, {n}) is excluded for q={q}, h={h}, n={n}"
    )


def bmax_log(
    entries: Sequence[CodeTableEntry],
    q: int,
    n: int,
    h: int,
    budget: int = DEFAULT_SEARCH_BUDGET,
) -> BoundResult:
    """log_q of the maximum size of a length-n code with d >= 2h+1, as
    n - vbar, carrying vbar's exactness status."""
    base = vbar_exact(entries, q, h, n, budget)
    if base.value is not None and base.interval is None:
        return BoundResult("bmax_log", n - base.value, base.provenance, note=base.note)
    lo, hi = base.interval
    return BoundResult(
        "bmax_log",
        None,
        base.provenance,
        interval=(n - hi, n - lo),
        note=base.note,
    )


def sh_lower(entries: Sequence[CodeTableEntry], q: int, r: int, h: int) -> BoundResult:
    """Lower bound on the maximum S_h-linear set size in F_q^r: the largest
    n+1 over entries with n-k = r and d_low >= 2h+1. A missing cell is the
    X sentinel, not an error."""
    factor_prime_power(q)
    if h < 1:
        raise InvalidParameterError(f"need h >= 1, got h={h}")
    if r < 2 * h:
        return BoundResult("sh_lower", None, (), note=f"r={r} < 2h={2 * h}")
    target = 2 * h + 1
    best: Optional[CodeTableEntry] = None
    for e in entries:
        if e.q != q or e.redundancy != r or e.d_low < target:
            continue
        if best is None or e.n > best.n:
            best = e
    if best is None:
        return BoundResult("sh_lower", None, ())
    return BoundResult("sh_lower", best.n + 1, (best,))


# ---------------------------------------------------------------------------
# table / series emission
# ---------------------------------------------------------------------------

def emit_sh_table(
    entries: Sequence[CodeTableEntry],
    q: int,
    h_range: Sequence[int],
    r_range: Sequence[int],
) -> str:
    """CSV grid of sh_lower values; rows are r, columns are h, X for cells
    with no qualifying snapshot entry."""
    lines = ["r," + ",".join(f"h={h}" for h in h_range)]
    for r in r_range:
        cells = [sh_lower(entries, q, r, h).display() for h in h_range]
        lines.append(f"{r}," + ",".join(cells))
    return "\n".join(lines) + "\n"


def emit_vbar_series(
    entries: Sequence[CodeTableEntry],
    q: int,
    h: int,
    n_range: Sequence[int],
) -> str:
    """CSV series n,vbar of snapshot-backed upper bounds on vbar; X where the
    snapshot has no witness."""
    factor_prime_power(q)
    if h < 1:
        raise InvalidParameterError(f"need h >= 1, got h={h}")
    lines = ["n,vbar"]
    for n in n_range:
        try:
            result = vbar_upper(entries, q, h, n)
            lines.append(f"{n},{result.value}")
        except (NoWitnessError, ValueError):
            lines.append(f"{n},X")
    return "\n".join(lines) + "\n"


def series_step_violations(values: Sequence[Optional[int]]) -> List[str]:
    """Soft check: along consecutive defined values, a vbar series should be
    non-decreasing with steps of 0 or 1. Returns human-readable violations
    (reported, never asserted)."""
    issues = []
    prev = None
    prev_i = None
    for i, v in enumerate(values):
        if v is None:
            continue
        if prev is not None and i == prev_i + 1:
            if v < prev:
                issues.append(f"decrease at position {i}: {prev} -> {v}")
            elif v - prev > 1:
                issues.append(f"step {v - prev} > 1 at position {i}: {prev} -> {v}")
        prev, prev_i = v, i
    return issues


def column_monotone_violations(values: Sequence[Optional[int]]) -> List[str]:
    """Soft check for sh_lower columns: non-decreasing along growing r over
    defined cells."""
    issues = []
    prev = None
    for i, v in enumerate(values):
        if v is None:
            continue
        if prev is not None and v < prev:
            issues.append(f"decrease at position {i}: {prev} -> {v}")
        prev = v
    return issues


# ---------------------------------------------------------------------------
# provenance re-validation
# ---------------------------------------------------------------------------

def revalidate(result: BoundResult, recheck_cap: int = RECHECK_CAP) -> List[str]:
    """Re-check a result's provenance chain: table entries re-validate their
    Singleton constraint, exhaustive certificates re-run when small enough.
    Returns a list of problems (empty = everything re-validated)."""
    problems: List[str] = []
    if not result.provenance and not result.is_sentinel:
        problems.append("non-sentinel result carries no provenance")
    for item in result.provenance:
        if isinstance(item, CodeTableEntry):
            try:
                CodeTableEntry(item.q, item.n, item.k, item.d_low, item.d_up)
            except SingletonViolationError as exc:
                problems.append(str(exc))
        elif isinstance(item, ExhaustiveCertificate):
            if gaussian_binomial(item.n, item.k, item.q) > recheck_cap:
                continue
            rerun = exists_code_with_distance(item.q, item.n, item.k, item.d, recheck_cap)
            if rerun != item:
                problems.append(f"certificate did not reproduce: {item} vs {rerun}")
        else:
            problems.append(f"unknown provenance item {item!r}")
    return problems
