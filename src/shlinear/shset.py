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
..., alpha^(m-1)*x, and alpha*y is a shift of y's digit fields with the
top digit fed back through the digits of alpha^m, so none reads the
field's multiplication table. No table over the q^r vectors is built. One kernel
serves every field: over F_2 and in plain mode each vector, and 0 always,
is its only usable multiple. It is a linalg.EchelonStack on the same
packed ints, grown by fits, push and pop, so the span that the search's
span stabilizer tests is kept by the package's one incremental
elimination. check_2h_subsets_independent asks the dependent-set walk of
code.distance_at_least, linalg.PackedSpace.first_dependent.

The kernel works a chunk at a time (_Engine.chunks): the values of every
combination whose first index is i, in the pinned order. Vectors lie side
by side as lanes of one int (linalg.PackedSpace), so the k-combinations
of the elements >= i form one int, and one add and correction adds a
multiple of a_i to all of them; no guard bit is needed between lanes.
Verification puts each chunk into one set of the values seen and walks
only the first chunk that does not grow it by its length, value by value;
the colliding terms are decoded from positions only then. h_span_text
formats the sorted distinct values a coordinate at a time.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass, replace
from typing import Dict, Iterable, Iterator, List, Optional, Sequence, Tuple

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

class _Engine(linalg.EchelonStack):
    """The combination kernel: packed vectors of F_q^r (see the module
    docstring), their canonical scalar multiples, and the bookkeeping of a
    growing set for search and extension: the values of its h-combinations,
    and the echelon basis of its span it inherits. In plain mode every
    coefficient is 1, and over F_2 1 is the only coefficient."""

    def __init__(self, ctx: FieldCtx, r: int, h: int, plain: bool = False):
        super().__init__(ctx, r)
        self.h, self.plain = h, plain
        self.elems: List[int] = []
        self.seen: set = set()
        # _sums[k]: the values of every canonical k-combination of elems
        self._sums: List[List[int]] = [[0]] + [[] for _ in range(h - 1)]
        # per push: the lengths of _sums before it, the values it added to
        # seen, and whether two (h-1)-sums agree after it
        self._levels: List[Tuple[List[int], Iterable[int], bool]] = [([], (), False)]

    def scaled(self, x: int) -> List[int]:
        """The multiples of x a canonical combination can use: 1*x alone for
        the zero vector, in plain mode and over F_2."""
        return [x] if x == 0 or self.plain or self.q == 2 else self.multiples(x)

    # -- combinations --

    def chunks(self, scaled: Sequence[List[int]]) -> Iterator[Sequence[int]]:
        """The packed values of every canonical h-combination, a sequence per
        first index, in the pinned order. Level k, the lanes of every
        k-combination chunk after chunk (that of the elements >= i is a
        suffix), is built once per call with its k-tuples' block sizes."""
        n, lane = len(scaled), self._lane
        if self.h == 1:
            yield from map(tuple, scaled)
            return
        sizes = [len(xs) * lane for xs in scaled]
        level = self.to_lanes([x for xs in scaled for x in xs])
        starts = list(zip(itertools.accumulate(sizes, initial=0), range(n + 1)))
        for k in range(2, self.h + 1):
            parts, grown, marks = [], [], [(0, 0)]
            for i in range(n - k + 1):
                offset, first = starts[i + 1]
                part = self._chunk(scaled[i], memoryview(level)[offset:], sizes[first:])
                if k == self.h:
                    yield self.from_lanes(part)
                    continue
                parts.append(part)
                grown += [len(scaled[i]) * size for size in sizes[first:]]
                marks.append((marks[-1][0] + len(part), len(grown)))
            level, sizes, starts = b"".join(parts), grown, marks

    def _chunk(self, xs: List[int], tail: memoryview, sizes: List[int]) -> bytes:
        """Each x in xs added to all lanes of tail at once (no lane carries),
        the sums interleaved per block of tail, sizes in bytes, x outermost."""
        size, values = len(tail), int.from_bytes(tail, "little")
        ones = int.from_bytes(self._one * (size // self._lane), "little")
        if self._p == 2:
            rows = [(values ^ x * ones).to_bytes(size, "little") for x in xs]
        else:
            bias, tops, top, p = self._bias * ones, self._tops * ones, self._top, self._p
            rows = [(s - (((s + bias) & tops) >> top) * p).to_bytes(size, "little")
                    for x in xs for s in (values + x * ones,)]
        if len(rows) == 1:
            return rows[0]
        bounds = list(itertools.accumulate(sizes, initial=0))
        return b"".join([row[a:b] for a, b in zip(bounds, bounds[1:]) for row in rows])

    def fits(self, x: int) -> bool:
        """Whether x, not yet pushed, can be: no value of an h-combination
        of x and h-1 pushed elements is seen, and no two of them agree. In
        linear mode the seen values and the (h-1)-sums are closed under
        scaling by F_q^*, so c*x + s is seen exactly when x + s/c is: x's
        coefficient-1 values are tested first, up to the first seen one.
        When x is its only multiple, they are all its values, and two agree
        exactly when two (h-1)-sums do, as push recorded; otherwise the
        values are built as a set and counted. A test only: it changes no
        state."""
        partials = self._sums[-1]
        if not self.seen.isdisjoint(self.translate(x, partials)):
            return False
        xs = self.scaled(x)
        if len(xs) == 1:
            return not self._levels[-1][2]
        return len(set(self.add_all(partials, xs))) == len(partials) * len(xs)

    def push(self, x: int) -> None:
        """Push x, which fits, and see the values of its h-combinations with
        h-1 pushed elements. Every push is undone by one pop."""
        sums, xs = self._sums, self.scaled(x)
        fresh = list(self.add_all(sums[-1], xs))
        self.seen.update(fresh)
        self.elems.append(x)
        marks = [len(s) for s in sums]
        for k in range(len(sums) - 1, 0, -1):
            sums[k] += self.add_all(sums[k - 1], xs)
        # past 2h-2 elements one misses two agreeing (h-1)-sums, and added
        # to both it would make two h-combinations agree
        last = sums[-1]
        repeats = len(self.elems) < 2 * self.h - 1 and len(set(last)) < len(last)
        self._levels.append((marks, fresh, repeats))
        super().push(x)

    def pop(self) -> None:
        marks, fresh, _ = self._levels.pop()
        self.elems.pop()
        self.seen.difference_update(fresh)
        super().pop()
        for s, n in zip(self._sums, marks):
            del s[n:]


# ---------------------------------------------------------------------------
# enumeration
# ---------------------------------------------------------------------------

def _kernel(candidate: ShSetCandidate, plain: bool) -> Tuple[_Engine, List[List[int]]]:
    """A kernel for the candidate's space, and the multiples each element's
    combinations use; plain=True restricts all coefficients to 1."""
    engine = _Engine(candidate.ctx, candidate.r, candidate.h, plain)
    return engine, [engine.scaled(engine.pack(v.coords)) for v in candidate.elems]


def _pinned_terms(scaled: Sequence[List[int]], h: int, first: int = 0, skip: int = 0) -> Iterator[Terms]:
    """The terms of every canonical h-combination with first index >= first
    in the pinned order, from the skip-th on, whole index tuples skipped."""
    radices = [len(xs) for xs in scaled]
    for idxs in itertools.combinations(range(first, len(scaled)), h):
        size = math.prod(map(radices.__getitem__, idxs))
        if skip < size:
            coeffs = itertools.product(*(range(1, radices[i] + 1) for i in idxs))
            yield from (tuple(zip(idxs, cs)) for cs in itertools.islice(coeffs, skip, None))
        skip = max(skip - size, 0)


def _combinations(candidate: ShSetCandidate, plain: bool) -> Tuple[_Engine, Iterator[Tuple[Terms, int]]]:
    """A kernel, and the chunk stream zipped with the pinned terms."""
    engine, scaled = _kernel(candidate, plain)
    values = itertools.chain.from_iterable(engine.chunks(scaled))
    return engine, zip(_pinned_terms(scaled, candidate.h), values)


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


def _span(candidate: ShSetCandidate) -> Tuple[_Engine, set]:
    engine, scaled = _kernel(candidate, plain=False)
    return engine, set(itertools.chain.from_iterable(engine.chunks(scaled)))


def h_span(candidate: ShSetCandidate) -> set:
    """The value set of all h-linear combinations (deduplicated)."""
    engine, span = _span(candidate)
    return {FqVector(candidate.ctx, engine.unpack(v)) for v in span}


def h_span_text(candidate: ShSetCandidate) -> str:
    """The set-file rows of h_span in canonical order: numeric on packed values."""
    engine, span = _span(candidate)
    return engine.text(sorted(span))


# ---------------------------------------------------------------------------
# verification
# ---------------------------------------------------------------------------

def _first_collision(candidate: ShSetCandidate, plain: bool) -> Optional[CollisionWitness]:
    """The first value, in the pinned order, that an earlier combination
    already took, with that one. Only the first chunk that does not grow
    the set of values seen by its length is walked, value by value."""
    engine, scaled = _kernel(candidate, plain)
    seen, chunks = set(), []
    for chunk in engine.chunks(scaled):
        chunks.append(chunk)
        count = len(seen)
        seen.update(chunk)
        if len(seen) - count < len(chunk):
            break
    else:
        return None
    # the values of earlier chunks met, then each value walked
    taken = set(chunk).intersection(itertools.chain.from_iterable(chunks[:-1])) if count else set()
    for offset, value in enumerate(chunk):
        if value in taken:
            break
        taken.add(value)
    first = next(i for i, taker in enumerate(chunks) if value in taker)
    positions = (first, chunks[first].index(value)), (len(chunks) - 1, offset)  # (first index, offset)
    lhs, rhs = (HCombination(next(_pinned_terms(scaled, candidate.h, *pos))) for pos in positions)
    return CollisionWitness(lhs, rhs, FqVector(candidate.ctx, engine.unpack(value)))


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
    if not 0 < alpha < candidate.ctx.q:
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
    holds, else a dependent subset: the colex-first one among those with
    the fewest elements (linalg.PackedSpace.first_dependent), so it may
    have fewer than 2h."""
    h = candidate.h
    if not candidate.contains_zero():
        raise PreconditionViolatedError("the set must contain the zero vector")
    if not 2 * h < candidate.r <= len(candidate.elems):
        raise PreconditionViolatedError(
            f"need 2h < r <= |A|; got h={h}, r={candidate.r}, |A|={len(candidate.elems)}"
        )
    nonzero = candidate.nonzero_elems()
    space = linalg.PackedSpace(candidate.ctx, candidate.r)
    first = space.first_dependent([space.pack(v.coords) for v in nonzero], 2 * h)
    return None if first is None else tuple(nonzero[i] for i in first)


# ---------------------------------------------------------------------------
# exhaustive maximum search
# ---------------------------------------------------------------------------

def _search_max(engine: _Engine, candidates: List[int], h: int) -> Tuple[int, List[int]]:
    """Candidate-list depth-first search: at each node the branch list holds
    only vectors individually compatible with the current set (at the root,
    {0}, which every nonzero vector fits), so |set| + |remaining list|
    bounds every completion. Candidates stay in canonical encoding order
    throughout, and of the candidates outside the span of the current set
    only the first compatible one is branched on: a linear map fixing that
    span carries any other onto it. The first descent pushes the first
    compatible candidate at every node, so the first maximal set found is
    the greedy canonical-order one."""
    best_size, best = 0, []

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
            branched_outside = branched_outside or outside
            engine.push(x)
            dfs([y for y in cands[i + 1:] if engine.fits(y)])
            engine.pop()

    dfs(candidates)
    return best_size, best


def exhaustive_max_sh_set(
    ctx: FieldCtx, r: int, h: int, mode: str = "linear"
) -> Tuple[int, Optional[ShSetCandidate]]:
    """Exact maximum size of an S_h-linear (or plain S_h) set in F_q^r, with
    its lexicographically first maximum witness: of all maximum sets, the
    one whose elements, in canonical encoding order, compare smallest.
    Elements are listed in that order; the first is always 0.

    Depth-first search over vectors in canonical encoding order with
    incremental collision pruning and candidate-list bounding. Four
    symmetries of the S_h property cut the tree; each maps any set it skips
    onto a valid set of at least the same size that compares smaller, so
    the witness is never skipped:

      * translation: for q = 2, or in plain mode, translating a set by t
        moves every h-sum by h*t, so only sets containing 0 are searched;
      * zero: in linear mode with q >= 3, a zero-free S_h-linear set A with
        |A| >= h stays S_h-linear when 0 is added, so every maximum
        contains 0 and the search starts from {0}. Proof: a collision of
        A u {0} that A lacks gives a dependency sum(d_a * a) = 0 with
        support D, 2 <= m = |D| <= min(2h-1, |A|). Let alpha =
        max(0, m-h); build two h-combinations u, v of A with u - v = d by
        putting alpha elements of D on u's side only, alpha on v's side
        only, and the other m - 2*alpha on both sides with coefficients x
        and x - d_a, x not in {0, d_a} (q >= 3), then padding both sides
        with the same h - m + alpha elements of A outside D (|A| >= h).
        Then u != v take the same value, a collision in A. For q = 2 this
        fails: {e1, e2, e1+e2} is S_2-linear, and adding 0 breaks it;
      * scaling: in linear mode with q >= 3, scaling one nonzero element
        keeps the verdict and a set holding a and c*a (c != 1) collides, so
        the candidates are the vectors whose leading nonzero coordinate
        is 1;
      * span stabilizer: a linear map fixing the span of the current set
        pointwise can swap any two vectors outside it, so each node
        branches on only the first compatible candidate outside that span.

    Vectors are packed ints with one bit field per base-p digit, so the
    encoding order is numeric order; they add by XOR for p = 2 and, for odd
    p, by an integer add that subtracts p from every field that reached p
    (see the module docstring). Returns (0, None) when no valid set of size
    >= h exists. Every field runs the one kernel; for q = 2 each vector is
    its only multiple.
    """
    if mode not in ("linear", "plain"):
        raise InvalidParameterError(f"mode must be 'linear' or 'plain', got {mode!r}")
    if h < 1:
        raise InvalidParameterError(f"h must be >= 1, got {h}")
    if r < 1:
        raise InvalidParameterError(f"r must be >= 1, got {r}")
    if ctx.q ** r > SEARCH_SPACE_CAP:
        raise SpaceTooLargeError(f"q^r = {ctx.q ** r} exceeds cap {SEARCH_SPACE_CAP}")
    plain = mode == "plain"
    engine = _Engine(ctx, r, h, plain)
    if plain:
        candidates = list(engine.vectors(r))[1:]
    else:  # leading nonzero coordinate 1; every nonzero vector when q = 2
        candidates = [
            engine.pack((1,) + tail)
            for k in range(r)
            for tail in itertools.product(range(ctx.q), repeat=k)
        ]
    engine.push(0)
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
        if not engine.fits(x):
            return None
        engine.push(x)
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
        if engine.fits(x):
            engine.push(x)
            added.append(FqVector(ctx, engine.unpack(x)))
    return replace(candidate, elems=candidate.elems + tuple(added))


def is_maximal(candidate: ShSetCandidate) -> bool:
    """Post-hoc maximality test: the set is S_h-linear and no single vector
    of F_q^r can be added, in one incremental pass over the space."""
    engine = _engine_holding(candidate)
    if engine is None:
        return False
    members = set(engine.elems)
    return not any(engine.fits(x) for x in engine.vectors(candidate.r) if x not in members)
