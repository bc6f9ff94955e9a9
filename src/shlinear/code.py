"""Linear [n,k,d] codes over F_q.

A LinearCode always carries both a full-rank generator matrix and a
full-rank parity-check matrix, kept consistent (gen @ pchk^T = 0). Minimum
distance is computed two independent ways on purpose:

  * min_distance walks all q^k codewords and takes the minimum weight;
  * distance_at_least(d) checks that every subset of <= d-1 parity-check
    columns is linearly independent (and produces a dependent witness
    subset when not).

Each is the oracle for the other; the test suite cross-validates them.

distance_at_least packs the columns once (linalg.PackedSpace) and asks
PackedSpace.first_dependent for the first dependent set of at most d-1 of
them: sizes go up, and each size comes in colex order, so the witness is
the colex-first dependent subset of the smallest dependent size. The
generator and parity-check matrices of a code come from one EchelonStack
pass over the given rows (_basis_and_kernel).

codewords and min_distance share one walk over the q^k codewords, packed
as ints (linalg.PackedSpace) for every q = p^m. A message has k*m base-p
digits; digit i*m + j is the coefficient of alpha^j in its entry for row i.
The walk is the p-ary modular Gray code on these digits (Knuth, TAOCP 4A,
7.2.1.1): step t adds 1 mod p to the digit numbered by the count of
trailing zero base-p digits of t, which adds alpha^j * row_i =
PackedSpace.multiples(row_i)[p^j - 1] to the word, and meets every message
once. For q = 2 it is the binary reflected Gray code, row 0 flipping most
often. The walk over the low half of the digits is kept as a list, and
each step over the high half streams that list once, shifted by the step's
word, with the addition inlined.
"""

from __future__ import annotations

import functools
import math
from typing import Iterator, Optional, Tuple, Union

from .errors import (
    BudgetExceededError,
    DimensionMismatchError,
    InvalidParameterError,
    PreconditionViolatedError,
)
from . import linalg
from .gf import FieldCtx
from .linalg import FqMatrix, FqVector

DEFAULT_BUDGET = 10 ** 7

Distance = Union[int, float]  # float only for the +inf of k = 0 codes


def hamming_weight(v: FqVector) -> int:
    return sum(1 for c in v.coords if c)


def hamming_distance(u: FqVector, v: FqVector) -> int:
    if u.dim != v.dim:
        raise DimensionMismatchError(f"{u.dim} vs {v.dim}")
    return sum(1 for a, b in zip(u.coords, v.coords) if a != b)


def singleton_ok(n: int, k: int, d: int) -> bool:
    """Singleton bound: k + d <= n + 1."""
    if not (n >= k >= 0 and d >= 1):
        raise ValueError(f"invalid parameters n={n}, k={k}, d={d}")
    return k + d <= n + 1


class LinearCode:
    """An [n, k] code with cached distance knowledge.

    d_known is a write-once cache for the exact minimum distance; d_lower
    is a certified lower bound (>= 1). For k = 0 the distance is math.inf.
    """

    def __init__(self, ctx: FieldCtx, gen: FqMatrix, pchk: FqMatrix):
        if gen.cols != pchk.cols:
            raise DimensionMismatchError(f"gen has {gen.cols} cols, pchk {pchk.cols}")
        self.ctx = ctx
        self.n = gen.cols
        self.k = gen.rows
        self.gen = gen
        self.pchk = pchk
        self._d_known: Optional[Distance] = None
        self.d_lower: int = 1
        if pchk.rows != self.n - self.k:
            raise DimensionMismatchError(
                f"pchk must have n-k={self.n - self.k} rows, got {pchk.rows}"
            )
        if self.k and self.n - self.k:
            # G H^T = 0: each generator row weighs the packed columns of H,
            # whose multiples are taken once, and sums to zero
            space = linalg.PackedSpace(ctx, pchk.rows)
            times = [[0, *space.multiples(space.pack(col))] for col in zip(*pchk.entries)]
            if any(functools.reduce(space.add, map(list.__getitem__, times, row))
                   for row in gen.entries):
                raise ValueError("generator rows are not annihilated by the parity check")

    @property
    def d_known(self) -> Optional[Distance]:
        return self._d_known

    @d_known.setter
    def d_known(self, value: Distance) -> None:
        if self._d_known is not None and self._d_known != value:
            raise ValueError(f"d_known already set to {self._d_known}, refusing {value}")
        if value != math.inf:
            if not singleton_ok(self.n, self.k, int(value)):
                raise ValueError(f"d={value} violates the Singleton bound for [{self.n},{self.k}]")
        self._d_known = value
        if value != math.inf:
            self.d_lower = max(self.d_lower, int(value))

    def certified_distance_lower(self) -> Distance:
        return self._d_known if self._d_known is not None else self.d_lower

    def params(self) -> str:
        d = self._d_known
        if d is None:
            return f"[{self.n},{self.k}]"
        return f"[{self.n},{self.k},{0 if d == math.inf else d}]"

    def __repr__(self) -> str:
        return f"LinearCode(q={self.ctx.q}, {self.params()})"


def _basis_and_kernel(M: FqMatrix) -> Tuple[FqMatrix, FqMatrix]:
    """The first-seen independent rows of M, and a basis of its kernel, from
    one pass of an EchelonStack that pushes each row once."""
    stack = linalg.EchelonStack(M.ctx, M.cols)
    kept = [row for row in M.entries if stack.push(stack.pack(row))]
    return (FqMatrix(M.ctx, len(kept), M.cols, tuple(kept)),
            FqMatrix.from_row_vectors(linalg.kernel_of(stack), M.ctx, M.cols))


def from_parity_check(H: FqMatrix) -> LinearCode:
    """Code {x : H x^T = 0}. Rank-deficient rows of H are dropped, so the
    stored parity check always has full row rank."""
    pchk, gen = _basis_and_kernel(H)
    return LinearCode(H.ctx, gen, pchk)


def from_generator(G: FqMatrix) -> LinearCode:
    """Code {x G : x in F_q^k}. Rank-deficient rows of G are dropped."""
    gen, pchk = _basis_and_kernel(G)
    return LinearCode(G.ctx, gen, pchk)


# ---------------------------------------------------------------------------
# codeword enumeration
# ---------------------------------------------------------------------------

def _ruler(p: int, count: int) -> Iterator[int]:
    """For t = 1, ..., count - 1, the number of trailing zero base-p digits
    of t: the digit that step t of the Gray walk changes."""
    for t in range(1, count):
        digit = 0
        while not t % p:
            t //= p
            digit += 1
        yield digit


def _words(code: LinearCode, space: linalg.PackedSpace) -> Iterator[int]:
    """All q^k codewords packed in space, zero first, along the Gray walk of
    the module docstring."""
    p, m = code.ctx.p, code.ctx.m
    steps = [space.multiples(space.pack(row))[p ** j - 1]
             for row in code.gen.entries for j in range(m)]
    half = len(steps) // 2
    low = [0]
    for digit in _ruler(p, p ** half):
        low.append(space.add(low[-1], steps[digit]))
    yield from low
    start = 0
    for digit in _ruler(p, p ** (len(steps) - half)):
        start = space.add(space.add(start, low[-1]), steps[half + digit])
        yield from space.add_all([start], low)


def codewords(code: LinearCode) -> Iterator[FqVector]:
    """All q^k codewords, zero word first, in the order of the Gray walk of
    the module docstring; for q = 2 that is the binary reflected Gray code,
    row 0 flipping most often."""
    space = linalg.PackedSpace(code.ctx, code.n)
    return (FqVector(code.ctx, space.unpack(x)) for x in _words(code, space))


def min_distance(code: LinearCode, budget: int = DEFAULT_BUDGET) -> Distance:
    """Exact minimum distance: the least weight over the Gray walk of the
    module docstring, each packed word weighed by the rule of
    PackedSpace.far and the walk stopped at weight 1; caches into d_known.
    Raises BudgetExceededError when q^k > budget, and
    PreconditionViolatedError when a nonzero message encodes to the zero
    word (dependent generator rows)."""
    if code.d_known is not None:
        return code.d_known
    if code.k == 0:
        code.d_known = math.inf
        return math.inf
    if code.ctx.q ** code.k > budget:
        raise BudgetExceededError(
            f"q^k = {code.ctx.q}^{code.k} exceeds budget {budget}; "
            "use distance_at_least instead"
        )
    space = linalg.PackedSpace(code.ctx, code.n)
    low, high = space.low, space.high
    words = _words(code, space)
    next(words)  # the zero word
    best = code.n
    for x in words:
        w = (((x & low) + low | x) & high).bit_count()
        if w < best:
            best = w
            if best <= 1:
                break
    if not best:  # a nonzero message encoded to the zero word
        raise PreconditionViolatedError("the generator rows are linearly dependent")
    code.d_known = best
    return best


def distance_at_least(code: LinearCode, d: int) -> Tuple[bool, Optional[Tuple[int, ...]]]:
    """True iff every subset of <= d-1 parity-check columns is linearly
    independent. On failure returns the first dependent column subset found,
    scanning sizes 1..d-1 in colex order (see the module docstring)."""
    if d < 1:
        raise InvalidParameterError(f"d must be >= 1, got {d}")
    if code.k == 0:
        return True, None
    if code.pchk.rows == 0:
        # whole-space code: every column of the empty parity check is the
        # zero vector, so d = 1 and any singleton is already dependent
        if d == 1:
            return True, None
        return False, (0,)
    space = linalg.PackedSpace(code.ctx, code.pchk.rows)
    witness = space.first_dependent([space.pack(c) for c in zip(*code.pchk.entries)], d - 1)
    if witness is not None:
        return False, witness
    code.d_lower = max(code.d_lower, d)
    return True, None
