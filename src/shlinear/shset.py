"""S_h-linear set machinery: canonical h-linear combinations, verification
with collision witnesses, counting and size bounds, closure operations, and
exhaustive maximum-set search.

An h-linear combination of an ordered set A is sum(lambda_i * a_i) over h
distinct elements with nonzero coefficients. Canonical form:

  * indices strictly increasing (permutations of summands identified);
  * when the zero vector participates, its coefficient is normalized to 1
    (every coefficient on 0 yields the same value, and the size formula
    counts combinations through 0 only once).

A is S_h-linear iff distinct canonical combinations evaluate to distinct
vectors. The plain variant (is_sh_set) restricts all coefficients to 1,
which coincides with the linear notion exactly when q = 2.

Enumeration order is pinned: index tuples lexicographically ascending, then
coefficient tuples ascending. check_sh_linear reports the first collision
detected in that order (the earliest combination whose value was already
seen); collision_groups exposes every colliding value for callers that need
a specific identity.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass, replace
from typing import Dict, Iterator, List, Optional, Sequence, Tuple

from .errors import (
    DimensionMismatchError,
    DuplicateVectorsError,
    FieldMismatchError,
    HTooLargeError,
    InvalidParameterError,
    NotShLinearError,
    PreconditionViolatedError,
    ScalarZeroError,
    SpaceTooLargeError,
)
from . import linalg
from .gf import FieldCtx
from .linalg import FqVector

SEARCH_SPACE_CAP = 2 ** 20

Terms = Tuple[Tuple[int, int], ...]  # ((element index, coefficient code), ...)


@dataclass(frozen=True)
class ShSetCandidate:
    """Ordered duplicate-free set of vectors with a combination length h."""

    ctx: FieldCtx
    r: int
    elems: Tuple[FqVector, ...]
    h: int

    def __post_init__(self):
        object.__setattr__(self, "elems", tuple(self.elems))
        if not self.elems:
            raise ValueError("candidate set must be non-empty")
        for v in self.elems:
            if v.ctx != self.ctx:
                raise FieldMismatchError(f"{v.ctx!r} vs {self.ctx!r}")
            if v.dim != self.r:
                raise DimensionMismatchError(f"vector of dimension {v.dim}, expected {self.r}")
        if len(set(self.elems)) != len(self.elems):
            raise DuplicateVectorsError("candidate set contains duplicate vectors")
        if not 1 <= self.h <= len(self.elems):
            raise HTooLargeError(
                f"h={self.h} out of range for a set of {len(self.elems)} elements"
            )

    @classmethod
    def from_coords(cls, ctx: FieldCtx, coords: Sequence[Sequence[int]], h: int) -> "ShSetCandidate":
        vecs = tuple(FqVector(ctx, tuple(c)) for c in coords)
        if not vecs:
            raise ValueError("candidate set must be non-empty")
        return cls(ctx, vecs[0].dim, vecs, h)

    def __len__(self) -> int:
        return len(self.elems)

    def with_h(self, h: int) -> "ShSetCandidate":
        return replace(self, h=h)

    def zero_index(self) -> Optional[int]:
        for i, v in enumerate(self.elems):
            if v.is_zero():
                return i
        return None

    def contains_zero(self) -> bool:
        return self.zero_index() is not None

    def nonzero_elems(self) -> List[FqVector]:
        return [v for v in self.elems if not v.is_zero()]

    def __repr__(self) -> str:
        return f"ShSetCandidate(q={self.ctx.q}, r={self.r}, size={len(self.elems)}, h={self.h})"


@dataclass(frozen=True)
class HCombination:
    """Canonical h-linear combination, as (index, coefficient) terms."""

    terms: Terms

    def indices(self) -> Tuple[int, ...]:
        return tuple(i for i, _ in self.terms)

    def evaluate(self, candidate: ShSetCandidate) -> FqVector:
        ctx = candidate.ctx
        add, mul = ctx._add, ctx._mul
        acc = [0] * candidate.r
        for i, coeff in self.terms:
            coords = candidate.elems[i].coords
            for j in range(candidate.r):
                if coords[j]:
                    acc[j] = add[acc[j]][mul[coeff][coords[j]]]
        return FqVector(ctx, tuple(acc))

    def format(self) -> str:
        """Human-readable form with 1-based element names a1, a2, ..."""
        return " + ".join(f"{coeff}*a{i + 1}" for i, coeff in self.terms)


@dataclass(frozen=True)
class CollisionWitness:
    """Two distinct canonical combinations with the same value."""

    lhs: HCombination
    rhs: HCombination
    value: FqVector

    def format_lines(self) -> List[str]:
        value_str = " ".join(str(c) for c in self.value.coords)
        return [
            f"{self.lhs.format()} = {value_str}",
            f"{self.rhs.format()} = {value_str}",
        ]


# ---------------------------------------------------------------------------
# enumeration
# ---------------------------------------------------------------------------

def _raw_combinations(
    coords: Sequence[Tuple[int, ...]],
    zero_idx: Optional[int],
    h: int,
    ctx: FieldCtx,
    plain: bool,
) -> Iterator[Tuple[Terms, Tuple[int, ...]]]:
    """Yield (terms, value coords) for every canonical combination, in the
    pinned order. plain=True restricts all coefficients to 1."""
    r = len(coords[0])
    add, mul = ctx._add, ctx._mul
    ones = (1,)
    nonzero = tuple(range(1, ctx.q))
    for idxs in itertools.combinations(range(len(coords)), h):
        if plain:
            choices = [ones] * h
        else:
            choices = [ones if i == zero_idx else nonzero for i in idxs]
        for cs in itertools.product(*choices):
            acc = [0] * r
            for i, coeff in zip(idxs, cs):
                row = coords[i]
                if coeff == 1:
                    for j in range(r):
                        if row[j]:
                            acc[j] = add[acc[j]][row[j]]
                else:
                    for j in range(r):
                        if row[j]:
                            acc[j] = add[acc[j]][mul[coeff][row[j]]]
            yield tuple(zip(idxs, cs)), tuple(acc)


def _candidate_raw(candidate: ShSetCandidate, plain: bool):
    coords = [v.coords for v in candidate.elems]
    return _raw_combinations(coords, candidate.zero_index(), candidate.h, candidate.ctx, plain)


def enumerate_h_combinations(candidate: ShSetCandidate) -> Iterator[Tuple[HCombination, FqVector]]:
    """Stream every canonical h-linear combination with its value."""
    ctx = candidate.ctx
    for terms, value in _candidate_raw(candidate, plain=False):
        yield HCombination(terms), FqVector(ctx, value)


def count_h_combinations(candidate: ShSetCandidate) -> int:
    """Number of canonical combinations: (q-1)^h C(n,h) without the zero
    vector, else (q-1)^(h-1) C(n-1,h-1) + (q-1)^h C(n-1,h)."""
    n = len(candidate.elems)
    h = candidate.h
    q = candidate.ctx.q
    if candidate.contains_zero():
        return (q - 1) ** (h - 1) * math.comb(n - 1, h - 1) + (q - 1) ** h * math.comb(n - 1, h)
    return (q - 1) ** h * math.comb(n, h)


def count_plain_combinations(candidate: ShSetCandidate) -> int:
    return math.comb(len(candidate.elems), candidate.h)


def h_span(candidate: ShSetCandidate) -> set:
    """The value set of all h-linear combinations (deduplicated)."""
    ctx = candidate.ctx
    return {FqVector(ctx, value) for _, value in _candidate_raw(candidate, plain=False)}


# ---------------------------------------------------------------------------
# verification
# ---------------------------------------------------------------------------

def _first_collision(candidate: ShSetCandidate, plain: bool) -> Optional[CollisionWitness]:
    seen: Dict[Tuple[int, ...], Terms] = {}
    for terms, value in _candidate_raw(candidate, plain):
        prev = seen.get(value)
        if prev is not None:
            return CollisionWitness(
                HCombination(prev), HCombination(terms), FqVector(candidate.ctx, value)
            )
        seen[value] = terms
    return None


def check_sh_linear(candidate: ShSetCandidate) -> Optional[CollisionWitness]:
    """None when the set is S_h-linear; otherwise the first collision found
    in enumeration order."""
    return _first_collision(candidate, plain=False)


def is_sh_linear(candidate: ShSetCandidate) -> bool:
    return check_sh_linear(candidate) is None


def check_sh_set(candidate: ShSetCandidate) -> Optional[CollisionWitness]:
    """Coefficient-1 restriction: all C(n, h) plain h-sums must be distinct."""
    return _first_collision(candidate, plain=True)


def is_sh_set(candidate: ShSetCandidate) -> bool:
    return check_sh_set(candidate) is None


def collision_groups(
    candidate: ShSetCandidate, plain: bool = False
) -> List[Tuple[FqVector, Tuple[HCombination, ...]]]:
    """Every value hit by more than one combination, with all of its
    combinations, ordered by first occurrence. Empty iff the set verifies."""
    groups: Dict[Tuple[int, ...], List[Terms]] = {}
    order: List[Tuple[int, ...]] = []
    for terms, value in _candidate_raw(candidate, plain):
        bucket = groups.get(value)
        if bucket is None:
            groups[value] = [terms]
            order.append(value)
        else:
            bucket.append(terms)
    ctx = candidate.ctx
    return [
        (FqVector(ctx, v), tuple(HCombination(t) for t in groups[v]))
        for v in order
        if len(groups[v]) > 1
    ]


# ---------------------------------------------------------------------------
# size bound
# ---------------------------------------------------------------------------

def size_bound(q: int, r: int, h: int, contains_zero: bool) -> float:
    """Strict upper bound on |A| for an S_h-linear set in F_q^r.

    (q^r h!)^(1/h) / (q-1) + (h-1)           when 0 is not in A
    (q^r h! / (q-1)^(h-1))^(1/h) + (h-1)     when 0 is in A
    """
    if h < 1:
        raise InvalidParameterError(f"h must be >= 1, got {h}")
    space = q ** r * math.factorial(h)
    if contains_zero:
        return (space / (q - 1) ** (h - 1)) ** (1.0 / h) + (h - 1)
    return space ** (1.0 / h) / (q - 1) + (h - 1)


def satisfies_size_bound(candidate: ShSetCandidate) -> bool:
    """Exact integer form of |A| < size_bound(...), avoiding float edges."""
    n = len(candidate.elems)
    h = candidate.h
    q = candidate.ctx.q
    space = q ** candidate.r * math.factorial(h)
    base = n - h + 1
    if base <= 0:
        return True
    if candidate.contains_zero():
        return base ** h * (q - 1) ** (h - 1) < space
    return (base * (q - 1)) ** h < space


# ---------------------------------------------------------------------------
# closure operations
# ---------------------------------------------------------------------------

def translate_scale(candidate: ShSetCandidate, v: FqVector, alpha: int) -> ShSetCandidate:
    """Pointwise map a -> v + alpha*a. The S_h verdict is preserved when
    alpha != 0 and v is outside the linear span of the set (for q = 2, for
    every v); the caller checks span membership via linalg.in_span."""
    if alpha % candidate.ctx.q == 0 or not 0 < alpha < candidate.ctx.q:
        raise ScalarZeroError(f"alpha must be a nonzero element code, got {alpha}")
    if v.ctx != candidate.ctx:
        raise FieldMismatchError(f"{v.ctx!r} vs {candidate.ctx!r}")
    if v.dim != candidate.r:
        raise DimensionMismatchError(f"{v.dim} vs {candidate.r}")
    mapped = tuple(v + a.scale(alpha) for a in candidate.elems)
    return replace(candidate, elems=mapped)


def adjoin_zero(candidate: ShSetCandidate) -> ShSetCandidate:
    """A union {0}; no-op when 0 is already present. The zero vector is
    prepended so it occupies index 0."""
    if candidate.contains_zero():
        return candidate
    zero = linalg.zero_vector(candidate.ctx, candidate.r)
    return replace(candidate, elems=(zero,) + candidate.elems)


def append_zero_coordinate(candidate: ShSetCandidate) -> ShSetCandidate:
    """Embed into F_q^(r+1) by appending a zero coordinate to every element;
    preserves the S_h verdict in both directions."""
    ctx = candidate.ctx
    elems = tuple(FqVector(ctx, v.coords + (0,)) for v in candidate.elems)
    return ShSetCandidate(ctx, candidate.r + 1, elems, candidate.h)


def check_2h_subsets_independent(candidate: ShSetCandidate) -> Optional[Tuple[FqVector, ...]]:
    """For an S_h-linear set containing 0 with 2h < r <= |A|, every subset of
    2h nonzero elements must be linearly independent. Returns None when that
    holds, else the first dependent subset (lexicographic order)."""
    h = candidate.h
    if not candidate.contains_zero():
        raise PreconditionViolatedError("the set must contain the zero vector")
    if not 2 * h < candidate.r <= len(candidate.elems):
        raise PreconditionViolatedError(
            f"need 2h < r <= |A|; got h={h}, r={candidate.r}, |A|={len(candidate.elems)}"
        )
    nonzero = candidate.nonzero_elems()
    if len(nonzero) < 2 * h:
        return None
    for subset in itertools.combinations(nonzero, 2 * h):
        if not linalg.is_linearly_independent(list(subset)):
            return subset
    return None


# ---------------------------------------------------------------------------
# incremental verification (shared by search and greedy extension)
# ---------------------------------------------------------------------------

class IncrementalChecker:
    """Maintains the value table of all h-combinations of a growing element
    list, refusing additions that create a collision. Elements are coordinate
    tuples; the zero tuple gets the canonical coefficient treatment."""

    def __init__(self, ctx: FieldCtx, r: int, h: int, plain: bool = False):
        self.ctx = ctx
        self.r = r
        self.h = h
        self.plain = plain
        self.elems: List[Tuple[int, ...]] = []
        self.seen: set = set()
        self._zero = (0,) * r
        self._nonzero = (1,) if plain else tuple(range(1, ctx.q))

    def _new_values(self, x: Tuple[int, ...]) -> Optional[List[Tuple[int, ...]]]:
        """Values of all h-combinations that include x, or None on collision."""
        h = self.h
        if len(self.elems) + 1 < h:
            return []
        ctx = self.ctx
        add, mul = ctx._add, ctx._mul
        r = self.r
        x_coeffs = (1,) if (x == self._zero or self.plain) else self._nonzero
        fresh: List[Tuple[int, ...]] = []
        fresh_set = set()
        for idxs in itertools.combinations(range(len(self.elems)), h - 1):
            choices = [
                (1,) if (self.elems[i] == self._zero or self.plain) else self._nonzero
                for i in idxs
            ]
            for cs in itertools.product(*choices):
                base = [0] * r
                for i, coeff in zip(idxs, cs):
                    row = self.elems[i]
                    for j in range(r):
                        if row[j]:
                            base[j] = add[base[j]][mul[coeff][row[j]]]
                for cx in x_coeffs:
                    value = list(base)
                    for j in range(r):
                        if x[j]:
                            value[j] = add[value[j]][mul[cx][x[j]]]
                    value_t = tuple(value)
                    if value_t in self.seen or value_t in fresh_set:
                        return None
                    fresh.append(value_t)
                    fresh_set.add(value_t)
        return fresh

    def try_add(self, x: Tuple[int, ...]) -> Optional[List[Tuple[int, ...]]]:
        """Add x if no collision arises; returns the token to pass to pop(),
        or None when x was rejected."""
        fresh = self._new_values(x)
        if fresh is None:
            return None
        self.seen.update(fresh)
        self.elems.append(x)
        return fresh

    def pop(self, token: List[Tuple[int, ...]]) -> None:
        self.elems.pop()
        self.seen.difference_update(token)


# ---------------------------------------------------------------------------
# exhaustive maximum search
# ---------------------------------------------------------------------------

LUT_SPACE_CAP = 1024  # build pairwise addition tables when q^r is this small


def _decode_tuple(code: int, q: int, r: int) -> Tuple[int, ...]:
    out = [0] * r
    for i in range(r - 1, -1, -1):
        out[i] = code % q
        code //= q
    return tuple(out)


class _Engine:
    """Bookkeeping shared by the search engines: the elements pushed so far,
    the values of their h-combinations, and an echelon basis of their linear
    span in which each row is reduced by the rows before it. Subclasses
    supply values_of and, in their own arithmetic, _reduce (x minus its
    projection on the basis, falsy exactly when x is in the span) and
    _basis_row (the stored form of a nonzero residue)."""

    def __init__(self, h: int):
        self.h = h
        self.elems: List[int] = []
        self.seen: set = set()
        self.basis: list = []
        self._ranks: List[int] = []

    def in_span(self, x: int) -> bool:
        return not self._reduce(x)

    def push(self, x: int, fresh: list) -> None:
        self.seen.update(fresh)
        self.elems.append(x)
        self._ranks.append(len(self.basis))
        residue = self._reduce(x)
        if residue:
            self.basis.append(self._basis_row(residue))

    def pop(self, fresh: list) -> None:
        self.elems.pop()
        self.seen.difference_update(fresh)
        del self.basis[self._ranks.pop():]


class _XorEngine(_Engine):
    """Combination-value bookkeeping over F_2: vectors are packed ints and
    the only coefficient is 1, so values are XORs of (h-1)-subsets."""

    def values_of(self, x: int) -> Optional[List[int]]:
        if len(self.elems) + 1 < self.h:
            return []
        seen = self.seen
        fresh: List[int] = []
        fresh_set = set()
        for subset in itertools.combinations(self.elems, self.h - 1):
            v = x
            for s in subset:
                v ^= s
            if v in seen or v in fresh_set:
                return None
            fresh.append(v)
            fresh_set.add(v)
        return fresh

    def _reduce(self, x: int) -> int:
        # XOR with a row clears the row's leading bit when x has it set
        for row in self.basis:
            x = min(x, x ^ row)
        return x

    def _basis_row(self, residue: int) -> int:
        return residue


class _IntLutEngine(_Engine):
    """Encoded-int bookkeeping for small spaces: pairwise vector addition and
    scalar action are precomputed tables over the q^r encodings."""

    def __init__(self, ctx: FieldCtx, r: int, h: int, plain: bool):
        super().__init__(h)
        q = ctx.q
        total = q ** r
        vectors = [_decode_tuple(c, q, r) for c in range(total)]
        index = {v: c for c, v in enumerate(vectors)}
        add = ctx._add
        self.add_lut = [
            [index[tuple(add[a][b] for a, b in zip(va, vb))] for vb in vectors]
            for va in vectors
        ]
        mul = ctx._mul
        # multiples[v][c - 1] = c*v for every nonzero coefficient c; the zero
        # vector keeps only its canonical coefficient 1
        self.multiples = [
            [index[tuple(mul[c][a] for a in v)] for c in ((1,) if code == 0 else range(1, q))]
            for code, v in enumerate(vectors)
        ]
        self.scaled = [[code] for code in range(total)] if plain else self.multiples
        self.q = q
        self._neg = ctx._neg
        self._inv = ctx._inv

    def values_of(self, x: int) -> Optional[List[int]]:
        h = self.h
        if len(self.elems) + 1 < h:
            return []
        add_lut = self.add_lut
        scaled = self.scaled
        seen = self.seen
        xs = scaled[x]
        fresh: List[int] = []
        fresh_set = set()
        for idxs in itertools.combinations(self.elems, h - 1):
            partials = [0]
            for e in idxs:
                partials = [add_lut[p][a] for p in partials for a in scaled[e]]
            for p in partials:
                row = add_lut[p]
                for b in xs:
                    v = row[b]
                    if v in seen or v in fresh_set:
                        return None
                    fresh.append(v)
                    fresh_set.add(v)
        return fresh

    def _reduce(self, x: int) -> int:
        # a row is (place, code): its leading base-q digit is 1, at place q^k
        q, neg, add_lut, multiples = self.q, self._neg, self.add_lut, self.multiples
        for place, row in self.basis:
            c = x // place % q
            if c:
                x = add_lut[x][multiples[row][neg[c] - 1]]
        return x

    def _basis_row(self, residue: int) -> Tuple[int, int]:
        place = 1
        while place * self.q <= residue:
            place *= self.q
        return place, self.multiples[residue][self._inv[residue // place] - 1]


class _TupleEngine(_Engine):
    """Coordinate-tuple bookkeeping, used when the space is too large for
    addition tables. Elements are encoded ints; coordinates are decoded once."""

    def __init__(self, ctx: FieldCtx, r: int, h: int, plain: bool):
        super().__init__(h)
        self.checker = IncrementalChecker(ctx, r, h, plain=plain)
        self.seen = self.checker.seen
        self.ctx = ctx
        self.q = ctx.q
        self.r = r

    def values_of(self, x: int) -> Optional[List[Tuple[int, ...]]]:
        return self.checker._new_values(_decode_tuple(x, self.q, self.r))

    def push(self, x: int, fresh) -> None:
        super().push(x, fresh)
        self.checker.elems.append(_decode_tuple(x, self.q, self.r))

    def pop(self, fresh) -> None:
        super().pop(fresh)
        self.checker.elems.pop()

    def _reduce(self, x: int) -> Optional[List[int]]:
        # a row is (pivot, coords): its first nonzero coordinate is 1, at pivot
        add, mul, neg = self.ctx._add, self.ctx._mul, self.ctx._neg
        v = list(_decode_tuple(x, self.q, self.r))
        for pivot, row in self.basis:
            c = v[pivot]
            if c:
                m = mul[neg[c]]
                for j in range(pivot, self.r):
                    if row[j]:
                        v[j] = add[v[j]][m[row[j]]]
        return v if any(v) else None

    def _basis_row(self, residue: List[int]) -> Tuple[int, List[int]]:
        pivot = next(j for j, c in enumerate(residue) if c)
        m = self.ctx._mul[self.ctx._inv[residue[pivot]]]
        return pivot, [m[c] for c in residue]


def _make_engine(ctx: FieldCtx, r: int, h: int, plain: bool, use_packed: bool):
    if use_packed:
        return _XorEngine(h)
    if ctx.q ** r <= LUT_SPACE_CAP:
        return _IntLutEngine(ctx, r, h, plain)
    return _TupleEngine(ctx, r, h, plain)


def _greedy_scan(engine, candidates: Sequence[int], h: int) -> Tuple[int, List[int]]:
    """Deterministic greedy baseline in canonical order; leaves the engine
    reset to its pre-scan state."""
    kept: List[Tuple[int, list]] = []
    for x in candidates:
        fresh = engine.values_of(x)
        if fresh is not None:
            engine.push(x, fresh)
            kept.append((x, fresh))
    size = len(engine.elems)
    snapshot = list(engine.elems)
    for x, fresh in reversed(kept):
        engine.pop(fresh)
    if size < h:
        return 0, []
    return size, snapshot


def _search_max(engine, candidates: List[int], h: int) -> Tuple[int, List[int]]:
    """Candidate-list depth-first search: at each node the branch list holds
    only vectors individually compatible with the current set, so
    |set| + |remaining list| bounds every completion. Candidates stay in
    canonical encoding order throughout, and of the candidates outside the
    span of the current set only the first compatible one is branched on:
    a linear map fixing that span carries any other onto it."""
    best_size, best = _greedy_scan(engine, candidates, h)

    def dfs(cands: List[int]) -> None:
        nonlocal best_size, best
        size = len(engine.elems)
        if size >= h and size > best_size:
            best_size = size
            best = list(engine.elems)
        n = len(cands)
        branched_outside = False
        for i, x in enumerate(cands):
            if size + (n - i) <= best_size:
                break
            outside = not engine.in_span(x)
            if outside and branched_outside:
                continue
            fresh = engine.values_of(x)
            if fresh is None:
                continue
            branched_outside = branched_outside or outside
            engine.push(x, fresh)
            if len(engine.elems) + 1 >= h:
                remaining = [y for y in cands[i + 1:] if engine.values_of(y) is not None]
            else:
                remaining = cands[i + 1:]
            dfs(remaining)
            engine.pop(fresh)

    dfs(candidates)
    return best_size, best


def exhaustive_max_sh_set(
    ctx: FieldCtx,
    r: int,
    h: int,
    must_contain_zero: bool = False,
    mode: str = "linear",
    packed: Optional[bool] = None,
) -> Tuple[int, Optional[ShSetCandidate]]:
    """Exact maximum size of an S_h-linear (or plain S_h) set in F_q^r, with
    its lexicographically first maximum witness: of all maximum sets (that
    contain 0, if must_contain_zero), the one whose elements, in canonical
    encoding order, compare smallest. Elements are listed in that order.

    Depth-first search over vectors in canonical encoding order with
    incremental collision pruning and candidate-list bounding, seeded by a
    greedy canonical-order baseline. Three symmetries of the S_h property
    cut the tree; each maps any set it skips onto a valid set of the same
    size that compares smaller, so the witness is never skipped:

      * translation: for q = 2, or in plain mode, translating a set by t
        moves every h-sum by h*t, so only sets containing 0 are searched;
      * scaling: in linear mode with q >= 3, scaling one nonzero element
        keeps the verdict and a set holding a and c*a (c != 1) collides, so
        the candidates are 0 and the vectors whose leading nonzero
        coordinate is 1;
      * span stabilizer: a linear map fixing the span of the current set
        pointwise can swap any two vectors outside it, so each node
        branches on only the first compatible candidate outside that span.

    Returns (0, None) when no valid set of size >= h exists. For q = 2 a
    bit-packed path is used unless packed=False forces the generic one.
    """
    if mode not in ("linear", "plain"):
        raise InvalidParameterError(f"mode must be 'linear' or 'plain', got {mode!r}")
    if h < 1:
        raise InvalidParameterError(f"h must be >= 1, got {h}")
    if ctx.q ** r > SEARCH_SPACE_CAP:
        raise SpaceTooLargeError(f"q^r = {ctx.q ** r} exceeds cap {SEARCH_SPACE_CAP}")
    use_packed = ctx.q == 2 if packed is None else (packed and ctx.q == 2)
    plain = mode == "plain"
    engine = _make_engine(ctx, r, h, plain=plain, use_packed=use_packed)
    q = ctx.q
    if plain:
        candidates = list(range(1, q ** r))
    else:  # leading base-q digit 1; every nonzero vector when q = 2
        candidates = [c for k in range(r) for c in range(q ** k, 2 * q ** k)]
    if must_contain_zero or plain or q == 2:
        fresh = engine.values_of(0)
        if fresh is None:
            raise RuntimeError("search engine rejected the zero vector as a first element")
        engine.push(0, fresh)
    else:
        candidates.insert(0, 0)
    size, codes = _search_max(engine, candidates, h)
    if not codes:
        return 0, None
    if use_packed:
        elems = tuple(FqVector(ctx, linalg.gf2_unpack(c, r)) for c in codes)
    else:
        elems = tuple(FqVector(ctx, _decode_tuple(c, ctx.q, r)) for c in codes)
    return size, ShSetCandidate(ctx, r, elems, h)


# ---------------------------------------------------------------------------
# greedy maximal extension
# ---------------------------------------------------------------------------

def extend_to_maximal(candidate: ShSetCandidate) -> ShSetCandidate:
    """Greedily extend to a maximal S_h-linear set: scan all of F_q^r in
    canonical encoding order and keep every vector whose addition preserves
    the verdict. Maximal, not necessarily maximum."""
    ctx, r, h = candidate.ctx, candidate.r, candidate.h
    if ctx.q ** r > SEARCH_SPACE_CAP:
        raise SpaceTooLargeError(f"q^r = {ctx.q ** r} exceeds cap {SEARCH_SPACE_CAP}")
    witness = check_sh_linear(candidate)
    if witness is not None:
        raise NotShLinearError("input set is not S_h-linear", witness)
    checker = IncrementalChecker(ctx, r, h)
    for v in candidate.elems:
        if checker.try_add(v.coords) is None:
            raise NotShLinearError("input set is not S_h-linear")
    members = set(candidate.elems)
    added: List[FqVector] = []
    for code in range(ctx.q ** r):
        v = linalg.decode_vector(ctx, r, code)
        if v in members:
            continue
        if checker.try_add(v.coords) is not None:
            members.add(v)
            added.append(v)
    return replace(candidate, elems=candidate.elems + tuple(added))


def is_maximal(candidate: ShSetCandidate) -> bool:
    """Post-hoc maximality re-test: no single vector of F_q^r can be added."""
    if check_sh_linear(candidate) is not None:
        return False
    ctx, r = candidate.ctx, candidate.r
    members = set(candidate.elems)
    for code in range(ctx.q ** r):
        v = linalg.decode_vector(ctx, r, code)
        if v in members:
            continue
        extended = ShSetCandidate(ctx, r, candidate.elems + (v,), candidate.h)
        if check_sh_linear(extended) is None:
            return False
    return True
