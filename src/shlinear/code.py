"""Linear [n,k,d] codes over F_q.

A LinearCode always carries both a full-rank generator matrix and a
full-rank parity-check matrix, kept consistent (gen @ pchk^T = 0). Minimum
distance is computed two independent ways on purpose:

  * min_distance enumerates all q^k codewords and takes the minimum weight;
  * distance_at_least(d) checks that every subset of <= d-1 parity-check
    columns is linearly independent (and produces a dependent witness
    subset when not).

Each is the oracle for the other; the test suite cross-validates them.
"""

from __future__ import annotations

import itertools
import math
from typing import Iterator, List, Optional, Sequence, Tuple, Union

from .errors import BudgetExceededError, DimensionMismatchError, PreconditionViolatedError
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
        rows = [linalg.gf2_pack(r) for r in code.gen.entries]
        word = 0
        yield FqVector(ctx, linalg.gf2_unpack(word, n))
        for msg in range(1, 2 ** k):
            word ^= rows[(msg & -msg).bit_length() - 1]
            yield FqVector(ctx, linalg.gf2_unpack(word, n))
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
        rows = [linalg.gf2_pack(r) for r in code.gen.entries]
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


def _subsets_colex(n: int, size: int) -> Iterator[Tuple[int, ...]]:
    """Size-subsets of range(n) in colexicographic order."""
    if size == 0:
        yield ()
        return
    for top in range(size - 1, n):
        for rest in _subsets_colex(top, size - 1):
            yield rest + (top,)


def distance_at_least(code: LinearCode, d: int) -> Tuple[bool, Optional[Tuple[int, ...]]]:
    """True iff every subset of <= d-1 parity-check columns is linearly
    independent. On failure returns the first dependent column subset found,
    scanning sizes 1..d-1 in colex order."""
    if d < 1:
        raise ValueError(f"d must be >= 1, got {d}")
    if code.k == 0:
        return True, None
    if code.pchk.rows == 0:
        # whole-space code: every column of the empty parity check is the
        # zero vector, so d = 1 and any singleton is already dependent
        if d == 1:
            return True, None
        return False, (0,)
    columns = code.pchk.column_vectors()
    for size in range(1, d):
        if size > len(columns):
            break
        for subset in _subsets_colex(len(columns), size):
            if not linalg.is_linearly_independent([columns[j] for j in subset]):
                return False, subset
    code.d_lower = max(code.d_lower, d)
    return True, None
