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

Every combination value is computed by one kernel on packed ints (_Engine),
in the layout of linalg.PackedSpace: one bit field per base-p digit of each
coordinate, first coordinate most significant, so numeric order is the
canonical encoding order; addition is XOR for p = 2 and an add-and-correct
for odd p. The scalar multiples of a vector are packed sums of x, alpha*x,
..., alpha^(m-1)*x, of which only the last m-1 use the field's
multiplication table. No table over the q^r vectors is built. For q = 2 the
search uses an XOR specialization (_XorEngine) of the kernel's one per-set
loop.
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
# the combination kernel
# ---------------------------------------------------------------------------

class _Engine(linalg.PackedSpace):
    """The combination kernel: packed vectors of F_q^r (see the module
    docstring), their canonical scalar multiples, and the bookkeeping of a
    growing set for search and extension: the values of its h-combinations
    and an echelon basis of its span, each row reduced by the rows before
    it. In plain mode every coefficient is 1."""

    def __init__(self, ctx: FieldCtx, r: int, h: int, plain: bool = False):
        super().__init__(ctx, r)
        self.h, self.plain = h, plain
        self.elems: List[int] = []
        self.seen: set = set()
        # _sums[k]: the values of every canonical k-combination of elems
        self._sums: List[List[int]] = [[0]] + [[] for _ in range(h - 1)]
        self.basis: List[Tuple[int, Dict[int, int]]] = []
        self._marks: List[Tuple[int, List[int]]] = []

    def scaled(self, x: int) -> List[int]:
        """The multiples of x a canonical combination can use: 1*x alone for
        the zero vector and in plain mode."""
        return [x] if x == 0 or self.plain else self.multiples(x)

    # -- combinations --

    def combinations(self, elems: Sequence[int]) -> Iterator[Tuple[Terms, int]]:
        """(terms, packed value) of every canonical h-combination of elems,
        in the pinned order."""
        scaled = [self.scaled(x) for x in elems]
        for idxs in itertools.combinations(range(len(elems)), self.h):
            partials = [0]
            for i in idxs:
                partials = self.add_all(partials, scaled[i])
            coeffs = itertools.product(*(range(1, len(scaled[i]) + 1) for i in idxs))
            yield from zip((tuple(zip(idxs, cs)) for cs in coeffs), partials)

    def values_of(self, x: int) -> Optional[set]:
        """Values of the h-combinations that use x and h-1 of the pushed
        elements, or None when one of them is already a value or two agree."""
        partials, xs = self._sums[-1], self.scaled(x)
        # a rejected x usually meets a seen value within the first few sums
        if not self.seen.isdisjoint(self.add_all(partials, xs)):
            return None
        fresh = set(self.add_all(partials, xs))
        return fresh if len(fresh) == len(partials) * len(xs) else None

    def push(self, x: int, fresh) -> None:
        self.seen.update(fresh)
        self.elems.append(x)
        sums = self._sums
        self._marks.append((len(self.basis), [len(s) for s in sums]))
        xs = self.scaled(x)
        for k in range(len(sums) - 1, 0, -1):
            sums[k] += self.add_all(sums[k - 1], xs)
        residue = self._reduce(x)
        if residue:
            # a row is (shift, cancel): its leading coordinate, at shift, is
            # cleared from x by adding cancel[that coordinate]
            shift = (residue.bit_length() - 1) // self._cw * self._cw
            ctx = self.ctx
            inv = ctx._inv[self._elem[residue >> shift]]
            multiples = self.multiples(residue)
            cancel = {
                self._field[c]: multiples[ctx._mul[ctx._neg[c]][inv] - 1] for c in range(1, self.q)
            }
            self.basis.append((shift, cancel))

    def pop(self, fresh) -> None:
        self.elems.pop()
        self.seen.difference_update(fresh)
        rank, lengths = self._marks.pop()
        del self.basis[rank:]
        for s, n in zip(self._sums, lengths):
            del s[n:]

    def _reduce(self, x: int) -> int:
        """x minus its projection on the basis: 0 exactly when x is in the span."""
        cmask = self._cmask
        for shift, cancel in self.basis:
            c = (x >> shift) & cmask
            if c:
                x = self.add(x, cancel[c])
        return x

    def in_span(self, x: int) -> bool:
        return not self._reduce(x)


class _XorEngine(_Engine):
    """The F_2 specialization: the only coefficient is 1, so the values of x
    are XORs of x with the (h-1)-subsets of the pushed elements."""

    def values_of(self, x: int) -> Optional[set]:
        seen, fresh = self.seen, set()
        for subset in itertools.combinations(self.elems, self.h - 1):
            v = x
            for s in subset:
                v ^= s
            if v in seen or v in fresh:
                return None
            fresh.add(v)
        return fresh


# ---------------------------------------------------------------------------
# enumeration
# ---------------------------------------------------------------------------

def _combinations(
    candidate: ShSetCandidate, plain: bool
) -> Tuple[_Engine, Iterator[Tuple[Terms, int]]]:
    """A kernel for the candidate's space, and its canonical combinations as
    (terms, packed value); plain=True restricts all coefficients to 1."""
    engine = _Engine(candidate.ctx, candidate.r, candidate.h, plain)
    return engine, engine.combinations([engine.pack(v.coords) for v in candidate.elems])


def enumerate_h_combinations(candidate: ShSetCandidate) -> Iterator[Tuple[HCombination, FqVector]]:
    """Stream every canonical h-linear combination with its value."""
    engine, combos = _combinations(candidate, plain=False)
    for terms, value in combos:
        yield HCombination(terms), FqVector(candidate.ctx, engine.unpack(value))


def count_h_combinations(candidate: ShSetCandidate) -> int:
    """Number of canonical combinations: (q-1)^h C(n,h) without the zero
    vector, else (q-1)^(h-1) C(n-1,h-1) + (q-1)^h C(n-1,h)."""
    n = len(candidate.elems)
    h = candidate.h
    q = candidate.ctx.q
    if candidate.contains_zero():
        return (q - 1) ** (h - 1) * math.comb(n - 1, h - 1) + (q - 1) ** h * math.comb(n - 1, h)
    return (q - 1) ** h * math.comb(n, h)


def h_span(candidate: ShSetCandidate) -> set:
    """The value set of all h-linear combinations (deduplicated)."""
    engine, combos = _combinations(candidate, plain=False)
    values = {value for _, value in combos}
    return {FqVector(candidate.ctx, engine.unpack(v)) for v in values}


# ---------------------------------------------------------------------------
# verification
# ---------------------------------------------------------------------------

def _first_collision(candidate: ShSetCandidate, plain: bool) -> Optional[CollisionWitness]:
    engine, combos = _combinations(candidate, plain)
    seen: Dict[int, Terms] = {}
    for terms, value in combos:
        prev = seen.get(value)
        if prev is not None:
            value_vector = FqVector(candidate.ctx, engine.unpack(value))
            return CollisionWitness(HCombination(prev), HCombination(terms), value_vector)
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
    engine, combos = _combinations(candidate, plain)
    groups: Dict[int, List[Terms]] = {}
    order: List[int] = []
    for terms, value in combos:
        bucket = groups.get(value)
        if bucket is None:
            groups[value] = [terms]
            order.append(value)
        else:
            bucket.append(terms)
    return [
        (FqVector(candidate.ctx, engine.unpack(v)), tuple(HCombination(t) for t in groups[v]))
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
    first = _first_dependent_lex(linalg.EchelonStack(nonzero), 0, 2 * h, len(nonzero))
    return None if first is None else tuple(nonzero[i] for i in first)


def _first_dependent_lex(
    stack: linalg.EchelonStack, start: int, size: int, n: int
) -> Optional[Tuple[int, ...]]:
    """The lexicographically first `size` indices from range(start, n) that
    are dependent together with the vectors on the stack. Every completion
    of a dependent prefix is dependent, so the first one found is returned
    with its first completion; the range of i leaves room for it."""
    for i in range(start, n - size + 1):
        if not stack.push(i):
            stack.pop()
            return tuple(range(i, i + size))
        rest = _first_dependent_lex(stack, i + 1, size - 1, n) if size > 1 else None
        stack.pop()
        if rest is not None:
            return (i,) + rest
    return None


# ---------------------------------------------------------------------------
# exhaustive maximum search
# ---------------------------------------------------------------------------

def _greedy_scan(engine, candidates: Sequence[int], h: int) -> Tuple[int, List[int]]:
    """Deterministic greedy baseline in canonical order; leaves the engine
    reset to its pre-scan state."""
    kept: List[Tuple[int, set]] = []
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

    Vectors are packed ints with one bit field per base-p digit, so the
    encoding order is numeric order; they add by XOR for p = 2 and, for odd
    p, by an integer add that subtracts p from every field that reached p
    (see the module docstring). Returns (0, None) when no valid set of size
    >= h exists. For q = 2 the XOR specialization of the kernel is used
    unless packed=False selects the generic loop on F_2, which the tests and
    selftest compare it with.
    """
    if mode not in ("linear", "plain"):
        raise InvalidParameterError(f"mode must be 'linear' or 'plain', got {mode!r}")
    if h < 1:
        raise InvalidParameterError(f"h must be >= 1, got {h}")
    if r < 1:
        raise InvalidParameterError(f"r must be >= 1, got {r}")
    if ctx.q ** r > SEARCH_SPACE_CAP:
        raise SpaceTooLargeError(f"q^r = {ctx.q ** r} exceeds cap {SEARCH_SPACE_CAP}")
    use_packed = ctx.q == 2 if packed is None else (packed and ctx.q == 2)
    plain = mode == "plain"
    engine = (_XorEngine if use_packed else _Engine)(ctx, r, h, plain)
    if plain:
        candidates = list(engine.vectors(r))[1:]
    else:  # leading nonzero coordinate 1; every nonzero vector when q = 2
        candidates = [
            engine.pack((1,) + tail)
            for k in range(r)
            for tail in itertools.product(range(ctx.q), repeat=k)
        ]
    if must_contain_zero or plain or ctx.q == 2:
        fresh = engine.values_of(0)
        if fresh is None:
            raise RuntimeError("search engine rejected the zero vector as a first element")
        engine.push(0, fresh)
    else:
        candidates.insert(0, 0)
    size, codes = _search_max(engine, candidates, h)
    if not codes:
        return 0, None
    elems = tuple(FqVector(ctx, engine.unpack(c)) for c in codes)
    return size, ShSetCandidate(ctx, r, elems, h)


# ---------------------------------------------------------------------------
# greedy maximal extension
# ---------------------------------------------------------------------------

def _engine_holding(candidate: ShSetCandidate) -> Optional[_Engine]:
    """A kernel with the candidate's elements pushed, or None when they
    collide."""
    engine = _Engine(candidate.ctx, candidate.r, candidate.h)
    for v in candidate.elems:
        x = engine.pack(v.coords)
        fresh = engine.values_of(x)
        if fresh is None:
            return None
        engine.push(x, fresh)
    return engine


def extend_to_maximal(candidate: ShSetCandidate) -> ShSetCandidate:
    """Greedily extend to a maximal S_h-linear set: scan all of F_q^r in
    canonical encoding order and keep every vector whose addition preserves
    the verdict. Maximal, not necessarily maximum."""
    ctx, r = candidate.ctx, candidate.r
    if ctx.q ** r > SEARCH_SPACE_CAP:
        raise SpaceTooLargeError(f"q^r = {ctx.q ** r} exceeds cap {SEARCH_SPACE_CAP}")
    engine = _engine_holding(candidate)
    if engine is None:
        raise NotShLinearError("input set is not S_h-linear", check_sh_linear(candidate))
    members = set(engine.elems)
    added: List[FqVector] = []
    for x in engine.vectors(r):
        if x in members:
            continue
        fresh = engine.values_of(x)
        if fresh is not None:
            engine.push(x, fresh)
            added.append(FqVector(ctx, engine.unpack(x)))
    return replace(candidate, elems=candidate.elems + tuple(added))


def is_maximal(candidate: ShSetCandidate) -> bool:
    """Post-hoc maximality test: the set is S_h-linear and no single vector
    of F_q^r can be added, in one incremental pass over the space."""
    engine = _engine_holding(candidate)
    if engine is None:
        return False
    members = set(engine.elems)
    return all(
        engine.values_of(x) is None for x in engine.vectors(candidate.r) if x not in members
    )
