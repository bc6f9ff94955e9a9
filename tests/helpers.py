"""Shared test utilities: independent brute-force oracles and random
generation of verified sets. Oracles here deliberately avoid the package's
lookup tables and incremental machinery so they can vouch for them."""

from __future__ import annotations

import itertools
from typing import List, Optional, Sequence, Tuple

from shlinear.bounds import ExhaustiveCertificate, gaussian_binomial
from shlinear.errors import BudgetExceededError
from shlinear.gf import FieldCtx, field_of_order
from shlinear.linalg import FqVector
from shlinear.shset import IncrementalChecker, ShSetCandidate


# ---------------------------------------------------------------------------
# naive polynomial-basis field arithmetic (no tables, no reduction caching)
# ---------------------------------------------------------------------------

class NaiveField:
    """Schoolbook F_{p^m} arithmetic on digit lists, reduced by long
    division on every multiply."""

    def __init__(self, p: int, m: int, modulus: Optional[Sequence[int]]):
        self.p = p
        self.m = m
        self.q = p ** m
        self.modulus = list(modulus) if modulus else None

    def _digits(self, code: int) -> List[int]:
        out = []
        for _ in range(self.m):
            out.append(code % self.p)
            code //= self.p
        return out

    def _code(self, digits: Sequence[int]) -> int:
        code = 0
        for d in reversed(list(digits)):
            code = code * self.p + d
        return code

    def add(self, a: int, b: int) -> int:
        if self.m == 1:
            return (a + b) % self.p
        da, db = self._digits(a), self._digits(b)
        return self._code([(x + y) % self.p for x, y in zip(da, db)])

    def mul(self, a: int, b: int) -> int:
        if self.m == 1:
            return (a * b) % self.p
        da, db = self._digits(a), self._digits(b)
        prod = [0] * (2 * self.m - 1)
        for i, x in enumerate(da):
            for j, y in enumerate(db):
                prod[i + j] = (prod[i + j] + x * y) % self.p
        # long division by the monic modulus
        for top in range(len(prod) - 1, self.m - 1, -1):
            lead = prod[top]
            if lead:
                shift = top - self.m
                for i, c in enumerate(self.modulus):
                    prod[shift + i] = (prod[shift + i] - lead * c) % self.p
        return self._code(prod[: self.m])


# ---------------------------------------------------------------------------
# brute-force rank via row-space enumeration
# ---------------------------------------------------------------------------

def bruteforce_rank(ctx: FieldCtx, rows: Sequence[Sequence[int]], ncols: int) -> int:
    """rank = log_q of the number of distinct row combinations."""
    span = set()
    q = ctx.q
    for coeffs in itertools.product(range(q), repeat=len(rows)):
        vec = [0] * ncols
        for c, row in zip(coeffs, rows):
            if c:
                for j in range(ncols):
                    vec[j] = ctx.add(vec[j], ctx.mul(c, row[j]))
        span.add(tuple(vec))
    size = len(span)
    rank = 0
    while q ** rank < size:
        rank += 1
    assert q ** rank == size, "row space size is not a power of q"
    return rank


def bruteforce_min_weight(ctx: FieldCtx, gen_rows: Sequence[Sequence[int]], n: int) -> int:
    """Minimum nonzero-codeword weight by plain message-times-matrix."""
    best = None
    k = len(gen_rows)
    for msg in itertools.product(range(ctx.q), repeat=k):
        if not any(msg):
            continue
        word = [0] * n
        for c, row in zip(msg, gen_rows):
            if c:
                for j in range(n):
                    word[j] = ctx.add(word[j], ctx.mul(c, row[j]))
        w = sum(1 for x in word if x)
        if best is None or w < best:
            best = w
    return best


# ---------------------------------------------------------------------------
# unpruned code enumeration: every RREF generator matrix, every codeword
# ---------------------------------------------------------------------------

def rref_generators_f2(n: int, k: int):
    """All full-rank k x n RREF matrices over F_2 as row bitmask tuples."""
    for pivots in itertools.combinations(range(n), k):
        pivot_set = set(pivots)
        free = [
            (i, c)
            for i, p in enumerate(pivots)
            for c in range(p + 1, n)
            if c not in pivot_set
        ]
        base = [1 << (n - 1 - p) for p in pivots]
        for bits in range(1 << len(free)):
            rows = list(base)
            for t, (i, c) in enumerate(free):
                if (bits >> t) & 1:
                    rows[i] |= 1 << (n - 1 - c)
            yield rows


def rref_generators_fq(n: int, k: int, q: int):
    """All full-rank k x n RREF matrices over F_q as coordinate rows."""
    for pivots in itertools.combinations(range(n), k):
        pivot_set = set(pivots)
        free = [
            (i, c)
            for i, p in enumerate(pivots)
            for c in range(p + 1, n)
            if c not in pivot_set
        ]
        for assignment in itertools.product(range(q), repeat=len(free)):
            rows = [[0] * n for _ in range(k)]
            for i, p in enumerate(pivots):
                rows[i][p] = 1
            for (i, c), val in zip(free, assignment):
                rows[i][c] = val
            yield rows


def reference_exists_code_with_distance(
    q: int, n: int, k: int, d: int, budget: int
) -> ExhaustiveCertificate:
    """Generate-and-test reference for bounds.exists_code_with_distance:
    visits every candidate in the same order and tests every codeword."""
    count = gaussian_binomial(n, k, q)
    if count > budget:
        raise BudgetExceededError(
            f"{count} candidate [{n},{k}] codes over F_{q} exceed budget {budget}"
        )
    if k == 0:
        return ExhaustiveCertificate(q, n, k, d, True, 1, witness_rows=())
    checked = 0
    if q == 2:
        for rows in rref_generators_f2(n, k):
            checked += 1
            good = True
            word = 0
            for msg in range(1, 1 << k):
                word ^= rows[(msg & -msg).bit_length() - 1]
                if word.bit_count() < d:
                    good = False
                    break
            if good:
                witness = tuple(
                    tuple((r >> (n - 1 - j)) & 1 for j in range(n)) for r in rows
                )
                return ExhaustiveCertificate(q, n, k, d, True, checked, witness)
        return ExhaustiveCertificate(q, n, k, d, False, checked)
    ctx = field_of_order(q)
    add, mul = ctx._add, ctx._mul
    for rows in rref_generators_fq(n, k, q):
        checked += 1
        good = True
        for msg in itertools.product(range(q), repeat=k):
            if not any(msg):
                continue
            weight = 0
            for j in range(n):
                acc = 0
                for i in range(k):
                    if msg[i] and rows[i][j]:
                        acc = add[acc][mul[msg[i]][rows[i][j]]]
                if acc:
                    weight += 1
            if weight < d:
                good = False
                break
        if good:
            return ExhaustiveCertificate(q, n, k, d, True, checked, tuple(tuple(r) for r in rows))
    return ExhaustiveCertificate(q, n, k, d, False, checked)


# ---------------------------------------------------------------------------
# random verified sets
# ---------------------------------------------------------------------------

def random_verified_set(
    rng,
    ctx: FieldCtx,
    r: int,
    h: int,
    target_size: int,
    include_zero: Optional[bool] = None,
    max_attempts: int = 800,
) -> Optional[ShSetCandidate]:
    """Greedy random construction of an S_h-linear set of the requested size
    (every prefix is re-verified incrementally, so the result always passes).
    Returns None when the size was not reached within the attempt budget.

    include_zero: True forces 0 in, False keeps it out, None leaves it to
    chance.
    """
    checker = IncrementalChecker(ctx, r, h)
    chosen: List[Tuple[int, ...]] = []
    members = set()
    if include_zero is True:
        token = checker.try_add((0,) * r)
        assert token is not None
        chosen.append((0,) * r)
        members.add((0,) * r)
    attempts = 0
    while len(chosen) < target_size and attempts < max_attempts:
        attempts += 1
        coords = tuple(rng.randrange(ctx.q) for _ in range(r))
        if coords in members:
            continue
        if include_zero is False and not any(coords):
            continue
        if checker.try_add(coords) is not None:
            chosen.append(coords)
            members.add(coords)
    if len(chosen) < max(target_size, h):
        return None
    return ShSetCandidate.from_coords(ctx, chosen, h)


def random_candidate(rng, ctx: FieldCtx, r: int, h: int, size: int,
                     include_zero: Optional[bool] = None) -> ShSetCandidate:
    """Uniformly random duplicate-free candidate (not necessarily valid)."""
    members = set()
    if include_zero is True:
        members.add((0,) * r)
    while len(members) < size:
        coords = tuple(rng.randrange(ctx.q) for _ in range(r))
        if include_zero is False and not any(coords):
            continue
        members.add(coords)
    return ShSetCandidate.from_coords(ctx, sorted(members), h)
