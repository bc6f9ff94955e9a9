"""Linear [n,k,d] codes over F_q.

A LinearCode always carries both a full-rank generator matrix and a
full-rank parity-check matrix, kept consistent (gen @ pchk^T = 0). Minimum
distance is computed two independent ways on purpose:

  * min_distance enumerates all q^k codewords and takes the minimum weight;
  * distance_at_least(d) checks that every subset of <= d-1 parity-check
    columns is linearly independent (and produces a dependent witness
    subset when not).

Each is the oracle for the other; the test suite cross-validates them.

distance_at_least walks the column subsets of each size s = 1..d-1 depth
first, choosing the largest column first and counting up at each level, so
the subsets come in colex order and the witness is the colex-first
dependent subset of the smallest dependent size. The columns are packed
once (linalg.PackedSpace), and the chosen ones are kept on a
linalg.EchelonStack. No proper prefix of a size-s subset can be dependent,
since it is a smaller subset and every smaller subset passed already, so
each subset costs one reduction of its smallest column against the s-1
columns on the stack.
"""

from __future__ import annotations

import math
from typing import Iterator, List, Optional, Sequence, Tuple, Union

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
        if self.k and self.n - self.k and not gen.matmul(pchk.transpose()).is_zero():
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


def from_parity_check(H: FqMatrix) -> LinearCode:
    """Code {x : H x^T = 0}. Rank-deficient rows of H are dropped, so the
    stored parity check always has full row rank."""
    ctx = H.ctx
    independent = linalg.extract_basis(H.row_vectors())
    if independent:
        pchk = FqMatrix.from_row_vectors(independent)
    else:
        pchk = FqMatrix(ctx, 0, H.cols, ())
    gen_rows = linalg.kernel_basis(H)
    if gen_rows:
        gen = FqMatrix.from_row_vectors(gen_rows)
    else:
        gen = FqMatrix(ctx, 0, H.cols, ())
    return LinearCode(ctx, gen, pchk)


def from_generator(G: FqMatrix) -> LinearCode:
    """Code {x G : x in F_q^k}. Rank-deficient rows of G are dropped."""
    ctx = G.ctx
    independent = linalg.extract_basis(G.row_vectors())
    if independent:
        gen = FqMatrix.from_row_vectors(independent)
    else:
        gen = FqMatrix(ctx, 0, G.cols, ())
    pchk_rows = linalg.kernel_basis(G)
    if pchk_rows:
        pchk = FqMatrix.from_row_vectors(pchk_rows)
    else:
        pchk = FqMatrix(ctx, 0, G.cols, ())
    return LinearCode(ctx, gen, pchk)


# ---------------------------------------------------------------------------
# codeword enumeration
# ---------------------------------------------------------------------------

def codewords(code: LinearCode) -> Iterator[FqVector]:
    """All q^k codewords, zero word first. Gray-code row additions for q = 2,
    incremental mixed-radix counter otherwise."""
    ctx = code.ctx
    n, k = code.n, code.k
    if k == 0:
        yield linalg.zero_vector(ctx, n)
        return
    if ctx.q == 2:
        space = linalg.PackedSpace(ctx, n)
        rows = [space.pack(r) for r in code.gen.entries]
        word = 0
        yield FqVector(ctx, space.unpack(word))
        for msg in range(1, 2 ** k):
            word ^= rows[(msg & -msg).bit_length() - 1]
            yield FqVector(ctx, space.unpack(word))
        return
    add, mul = ctx._add, ctx._mul
    rows = [list(r) for r in code.gen.entries]
    counter = [0] * k
    current = [0] * n
    yield FqVector(ctx, tuple(current))
    total = ctx.q ** k
    for _ in range(total - 1):
        # odometer step; each changed digit contributes (new - old) * row
        i = k - 1
        while counter[i] == ctx.q - 1:
            delta = ctx.sub(0, counter[i])
            counter[i] = 0
            row = rows[i]
            for j in range(n):
                if row[j]:
                    current[j] = add[current[j]][mul[delta][row[j]]]
            i -= 1
        old = counter[i]
        counter[i] += 1
        delta = ctx.sub(counter[i], old)
        row = rows[i]
        for j in range(n):
            if row[j]:
                current[j] = add[current[j]][mul[delta][row[j]]]
        yield FqVector(ctx, tuple(current))


def min_distance(code: LinearCode, budget: int = DEFAULT_BUDGET) -> Distance:
    """Exact minimum distance by full codeword enumeration; caches into
    d_known. Raises BudgetExceededError when q^k > budget."""
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
    best: Optional[int] = None
    if code.ctx.q == 2:
        space = linalg.PackedSpace(code.ctx, code.n)
        rows = [space.pack(r) for r in code.gen.entries]
        word = 0
        for msg in range(1, 2 ** code.k):
            word ^= rows[(msg & -msg).bit_length() - 1]
            w = word.bit_count()
            if best is None or w < best:
                best = w
                if best == 1:
                    break
    else:
        first = True
        for cw in codewords(code):
            if first:
                first = False
                continue
            w = hamming_weight(cw)
            if best is None or w < best:
                best = w
                if best == 1:
                    break
    if not best:  # a nonzero message encoded to the zero word
        raise PreconditionViolatedError("the generator rows are linearly dependent")
    code.d_known = best
    return best


def _first_dependent(
    stack: linalg.EchelonStack, cols: List[int], size: int, below: int
) -> Optional[Tuple[int, ...]]:
    """The colex-first `size` of the packed columns cols[:below] that are
    dependent together with the columns on the stack: the largest column is
    chosen first, and each level counts up."""
    if size == 1:
        # an equal earlier column is in the span too, so the first in-span
        # value sits at its first index
        leaf = next(filter(stack.in_span, cols[:below]), None)
        return None if leaf is None else (cols.index(leaf),)
    for top in range(size - 1, below):
        stack.push(cols[top])
        rest = _first_dependent(stack, cols, size - 1, top)
        stack.pop()
        if rest is not None:
            return rest + (top,)
    return None


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
    stack = linalg.EchelonStack(code.ctx, code.pchk.rows)
    cols = [stack.pack(c) for c in zip(*code.pchk.entries)]
    for size in range(1, min(d, code.n + 1)):
        witness = _first_dependent(stack, cols, size, code.n)
        if witness is not None:
            return False, witness
    code.d_lower = max(code.d_lower, d)
    return True, None
