"""Linear [n,k,d] codes over F_q.

A LinearCode always carries both a full-rank generator matrix and a
full-rank parity-check matrix, kept consistent (gen @ pchk^T = 0), and the
columns of the parity check packed once (pchk_space, pchk_columns). The
minimum distance has two exact walks:

  * the codeword walk (_lightest) visits all q^k codewords and keeps the
    least weight and, among the lightest words, the colex-first support;
  * the column walk (linalg.PackedSpace.first_dependent on the packed
    columns) visits the sets of at most d-1 columns, sizes going up and
    each size in colex order, and stops at the first dependent one.

They meet in one lemma (MacWilliams & Sloane, The Theory of
Error-Correcting Codes, ch. 1): the support of a codeword is a dependent
column set, and a dependent set of the fewest columns is the support of a
minimum-weight codeword. So the colex-first dependent set among the fewest
columns is the colex-first support of a lightest codeword, and either walk
answers distance_at_least(d) with the same verdict and witness.
min_distance takes the codeword walk; distance_at_least takes the walk
with fewer items to visit (see its docstring), which for small q^k is the
same walk. The two stay independent oracles where they are paired: the
distance cross-validation of `shlinear selftest` and of the tests asks the
column walk itself, and the tests check distance_at_least against a tuple
Gauss-Jordan reference. The generator and parity-check matrices of a code
come from one EchelonStack pass over the given rows (_basis_and_kernel).

codewords and the codeword walk go over the q^k codewords in one order (_words),
packed as ints (linalg.PackedSpace) for every q = p^m. A message has k*m base-p
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
        # H's columns, packed once (n zeros when H has no rows): the G H^T
        # check below and the column walk of distance_at_least read them
        self.pchk_space = space = linalg.PackedSpace(ctx, pchk.rows)
        self.pchk_columns = [space.pack(col) for col in zip(*pchk.entries)] or [0] * self.n
        if self.k and self.n - self.k:
            # G H^T = 0: each generator row weighs the packed columns of H,
            # whose multiples are taken once, and sums to zero
            times = [[0, *space.multiples(x)] for x in self.pchk_columns]
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


def _lightest(code: LinearCode, space: linalg.PackedSpace, stop: int) -> Tuple[int, int]:
    """The least weight w of a nonzero codeword and, packed in space, the
    word of weight w with the colex-first support, from the Gray walk of the
    module docstring; the walk stops once w <= stop. A word is weighed by
    the rule of PackedSpace.far, whose mask holds the top bit of each
    nonzero coordinate, coordinate j the (n-1-j)-th from the low end; so of
    two supports of one size, A comes before B in colex order exactly when
    the lowest set bit of mask(A) ^ mask(B) lies in mask(B), and masks are
    compared only on ties. Raises PreconditionViolatedError when a nonzero
    message encodes to the zero word (dependent generator rows)."""
    low, high = space.low, space.high
    words = _words(code, space)
    next(words)  # the zero word
    best, first, word = code.n + 1, 0, 0
    for x in words:
        mask = ((x & low) + low | x) & high
        w = mask.bit_count()
        if w <= best:
            if w < best:
                best, first, word = w, mask, x
                if w <= stop:
                    break
            elif (t := mask ^ first) & -t & first:
                first, word = mask, x
    if not best:
        raise PreconditionViolatedError("the generator rows are linearly dependent")
    return best, word


def min_distance(code: LinearCode, budget: int = DEFAULT_BUDGET) -> Distance:
    """Exact minimum distance: the least weight over the Gray walk of the
    module docstring (_lightest), stopped at weight 1; caches into d_known.
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
    best = code.d_known = _lightest(code, linalg.PackedSpace(code.ctx, code.n), 1)[0]
    return best


def distance_at_least(code: LinearCode, d: int) -> Tuple[bool, Optional[Tuple[int, ...]]]:
    """True iff every set of <= d-1 parity-check columns is linearly
    independent, that is iff no nonzero codeword weighs less than d; else
    False and the colex-first dependent column set among the fewest columns,
    which is the colex-first support of a lightest codeword.

    Two exact walks give this answer (see the module docstring); the one
    with fewer items to visit is taken. The column walk visits at most the
    C(n, 1) + ... + C(n, s) column sets of sizes up to s = min(d-1, n-k+1),
    since any n-k+1 columns are dependent; the codeword walk visits q^k
    words. Measured per item, a column set costs about a tenth of a word
    over F_2 and one to seven words for q >= 5, so the counts are compared
    with no factor: q^k <= sets takes the codeword walk.
    Only a True answer changes the code, raising d_lower to d. The codeword
    walk raises PreconditionViolatedError on dependent generator rows."""
    if d < 1:
        raise InvalidParameterError(f"d must be >= 1, got {d}")
    if code.k == 0:
        return True, None
    sets = sum(math.comb(code.n, s) for s in range(1, min(d, code.n - code.k + 2)))
    if code.ctx.q ** code.k <= sets:
        space = linalg.PackedSpace(code.ctx, code.n)
        weight, word = _lightest(code, space, 0)
        if weight < d:
            return False, tuple(j for j, c in enumerate(space.unpack(word)) if c)
    else:
        witness = code.pchk_space.first_dependent(code.pchk_columns, d - 1)
        if witness is not None:
            return False, witness
    code.d_lower = max(code.d_lower, d)
    return True, None
