"""Dense exact linear algebra over small finite fields.

Vectors and matrices are immutable value types holding element codes (ints)
plus their FieldCtx.

PackedSpace holds vectors of any F_q^r as ints, alone or side by side as
lanes of one int, with packed addition, scalar multiples, a Hamming-
distance filter and a set-file formatter; the combination kernel of
shset, the code enumeration of bounds and the codeword walk of code share
it. Its pivot() builds the package's one elimination step, the multiples
of a vector that clear each value of its leading coordinate, clear()
applies one to a list, and line() names the line through a vector by its
multiple whose leading coordinate is 1. first_dependent() walks sets of
vectors in colex order, smallest size first, for the first dependent one,
with pivots and line names alone; code.distance_at_least and
shset.check_2h_subsets_independent ask it their question.

EchelonStack, an echelon basis of such pivots with push and pop, is the
incremental elimination of the span stabilizer of the exact search, and
reduced() reads its reduced row echelon rows. Every whole-matrix question
(rref, rank, kernel_basis, in_span, is_linearly_independent, span_size,
extract_basis) is one pass of a stack that pushes each row once.
"""

from __future__ import annotations

import functools
import itertools
import operator
import struct
from dataclasses import dataclass
from typing import Callable, Iterable, Iterator, List, Optional, Sequence, Tuple

from .errors import DimensionMismatchError, FieldMismatchError
from .gf import FieldCtx


@dataclass(frozen=True)
class FqVector:
    """Immutable vector over a fixed field context."""

    ctx: FieldCtx
    coords: Tuple[int, ...]

    def __post_init__(self):
        object.__setattr__(self, "coords", tuple(self.coords))
        q = self.ctx.q
        for c in self.coords:
            if not 0 <= c < q:
                raise ValueError(f"coordinate {c} out of range for {self.ctx!r}")
        if len(self.coords) < 1:
            raise DimensionMismatchError("vectors must have dimension >= 1")

    @property
    def dim(self) -> int:
        return len(self.coords)

    def is_zero(self) -> bool:
        return not any(self.coords)

    def _check_compat(self, other: "FqVector") -> None:
        if self.ctx != other.ctx:
            raise FieldMismatchError(f"{self.ctx!r} vs {other.ctx!r}")
        if len(self.coords) != len(other.coords):
            raise DimensionMismatchError(
                f"dimension {len(self.coords)} vs {len(other.coords)}"
            )

    def __add__(self, other: "FqVector") -> "FqVector":
        self._check_compat(other)
        add = self.ctx._add
        return FqVector(self.ctx, tuple(add[a][b] for a, b in zip(self.coords, other.coords)))

    def __sub__(self, other: "FqVector") -> "FqVector":
        self._check_compat(other)
        ctx = self.ctx
        return FqVector(ctx, tuple(ctx.sub(a, b) for a, b in zip(self.coords, other.coords)))

    def __neg__(self) -> "FqVector":
        neg = self.ctx._neg
        return FqVector(self.ctx, tuple(neg[a] for a in self.coords))

    def scale(self, alpha: int) -> "FqVector":
        mul = self.ctx._mul
        return FqVector(self.ctx, tuple(mul[alpha][a] for a in self.coords))

    def encode(self) -> int:
        """Canonical integer encoding: base-q digits, first coordinate most
        significant, so numeric order equals lexicographic order."""
        code = 0
        q = self.ctx.q
        for c in self.coords:
            code = code * q + c
        return code

    def __repr__(self) -> str:
        return f"FqVector(q={self.ctx.q}, {self.coords})"


def zero_vector(ctx: FieldCtx, r: int) -> FqVector:
    return FqVector(ctx, (0,) * r)


def decode_vector(ctx: FieldCtx, r: int, code: int) -> FqVector:
    coords = [0] * r
    q = ctx.q
    for i in range(r - 1, -1, -1):
        coords[i] = code % q
        code //= q
    return FqVector(ctx, tuple(coords))


@dataclass(frozen=True)
class FqMatrix:
    """Immutable row-major matrix over a fixed field context."""

    ctx: FieldCtx
    rows: int
    cols: int
    entries: Tuple[Tuple[int, ...], ...]

    def __post_init__(self):
        object.__setattr__(self, "entries", tuple(tuple(r) for r in self.entries))
        if len(self.entries) != self.rows:
            raise DimensionMismatchError(
                f"expected {self.rows} rows, got {len(self.entries)}"
            )
        q = self.ctx.q
        for row in self.entries:
            if len(row) != self.cols:
                raise DimensionMismatchError(
                    f"expected {self.cols} columns, got {len(row)}"
                )
            for c in row:
                if not 0 <= c < q:
                    raise ValueError(f"entry {c} out of range for {self.ctx!r}")

    @classmethod
    def from_rows(cls, ctx: FieldCtx, rows: Sequence[Sequence[int]], cols: Optional[int] = None) -> "FqMatrix":
        rows = [tuple(r) for r in rows]
        if cols is None:
            if not rows:
                raise DimensionMismatchError("cannot infer column count of empty matrix")
            cols = len(rows[0])
        return cls(ctx, len(rows), cols, tuple(rows))

    @classmethod
    def from_row_vectors(cls, vectors: Sequence[FqVector], ctx: Optional[FieldCtx] = None,
                         cols: Optional[int] = None) -> "FqMatrix":
        if not vectors:
            if ctx is None or cols is None:
                raise DimensionMismatchError("empty matrix needs explicit ctx and cols")
            return cls(ctx, 0, cols, ())
        ctx = vectors[0].ctx
        return cls.from_rows(ctx, [v.coords for v in vectors])

    @classmethod
    def from_columns(cls, vectors: Sequence[FqVector]) -> "FqMatrix":
        if not vectors:
            raise DimensionMismatchError("no columns given")
        ctx = vectors[0].ctx
        r = vectors[0].dim
        rows = [tuple(v.coords[i] for v in vectors) for i in range(r)]
        return cls(ctx, r, len(vectors), tuple(rows))

    @classmethod
    def identity(cls, ctx: FieldCtx, n: int) -> "FqMatrix":
        return cls(ctx, n, n, tuple(tuple(1 if i == j else 0 for j in range(n)) for i in range(n)))

    def row(self, i: int) -> FqVector:
        return FqVector(self.ctx, self.entries[i])

    def row_vectors(self) -> List[FqVector]:
        return [FqVector(self.ctx, r) for r in self.entries]

    def column(self, j: int) -> FqVector:
        return FqVector(self.ctx, tuple(r[j] for r in self.entries))

    def column_vectors(self) -> List[FqVector]:
        return [self.column(j) for j in range(self.cols)]

    def transpose(self) -> "FqMatrix":
        return FqMatrix(
            self.ctx,
            self.cols,
            self.rows,
            tuple(tuple(self.entries[i][j] for i in range(self.rows)) for j in range(self.cols)),
        )

    def matmul(self, other: "FqMatrix") -> "FqMatrix":
        if self.ctx != other.ctx:
            raise FieldMismatchError(f"{self.ctx!r} vs {other.ctx!r}")
        if self.cols != other.rows:
            raise DimensionMismatchError(f"{self.rows}x{self.cols} @ {other.rows}x{other.cols}")
        ctx = self.ctx
        add, mul = ctx._add, ctx._mul
        out = []
        for i in range(self.rows):
            row = []
            for j in range(other.cols):
                acc = 0
                for t in range(self.cols):
                    acc = add[acc][mul[self.entries[i][t]][other.entries[t][j]]]
                row.append(acc)
            out.append(tuple(row))
        return FqMatrix(ctx, self.rows, other.cols, tuple(out))

    def is_zero(self) -> bool:
        return all(not any(r) for r in self.entries)

    def __repr__(self) -> str:
        return f"FqMatrix(q={self.ctx.q}, {self.rows}x{self.cols})"


# ---------------------------------------------------------------------------
# whole-matrix questions, each one pass of an EchelonStack
# ---------------------------------------------------------------------------

def _pushed(ctx: FieldCtx, dim: int, rows: Iterable[Sequence[int]]) -> Tuple[EchelonStack, List[bool]]:
    """An EchelonStack with each row pushed once, and whether each push
    raised the rank."""
    stack = EchelonStack(ctx, dim)
    return stack, [stack.push(stack.pack(row)) for row in rows]


def rref(matrix: FqMatrix) -> Tuple[FqMatrix, int, List[int]]:
    """Reduced row echelon form, rank, and pivot columns."""
    stack, _ = _pushed(matrix.ctx, matrix.cols, matrix.entries)
    rows = [stack.unpack(x) for x in stack.reduced()]
    pivots = [row.index(1) for row in rows]  # each row's first nonzero is its leading 1
    rows += [(0,) * matrix.cols] * (matrix.rows - len(rows))
    return FqMatrix(matrix.ctx, matrix.rows, matrix.cols, tuple(rows)), len(pivots), pivots


def rank(matrix: FqMatrix) -> int:
    return sum(_pushed(matrix.ctx, matrix.cols, matrix.entries)[1])


def kernel_of(stack: EchelonStack) -> List[FqVector]:
    """Basis of {x : R x^T = 0} for the rows R on the stack, one vector per
    free column, in ascending free-column order."""
    ctx, neg, dim = stack.ctx, stack.ctx._neg, len(stack._shifts)
    rows = [stack.unpack(x) for x in stack.reduced()]
    pivots = [row.index(1) for row in rows]
    basis = []
    for free in sorted(set(range(dim)) - set(pivots)):
        v = [0] * dim
        v[free] = 1
        for row, pc in zip(rows, pivots):
            v[pc] = neg[row[free]]
        basis.append(FqVector(ctx, tuple(v)))
    return basis


def kernel_basis(matrix: FqMatrix) -> List[FqVector]:
    """Basis of {x : M x^T = 0}, one vector per free column, in ascending
    free-column order."""
    return kernel_of(_pushed(matrix.ctx, matrix.cols, matrix.entries)[0])


def _common_frame(vectors: Sequence[FqVector]) -> Tuple[FieldCtx, int]:
    ctx = vectors[0].ctx
    dim = vectors[0].dim
    for v in vectors[1:]:
        if v.ctx != ctx:
            raise FieldMismatchError(f"{v.ctx!r} vs {ctx!r}")
        if v.dim != dim:
            raise DimensionMismatchError(f"dimension {v.dim} vs {dim}")
    return ctx, dim


def _pushed_vectors(vectors: Sequence[FqVector]) -> Tuple[EchelonStack, List[bool]]:
    return _pushed(*_common_frame(vectors), [v.coords for v in vectors])


def is_linearly_independent(vectors: Sequence[FqVector]) -> bool:
    return not vectors or all(_pushed_vectors(vectors)[1])


def in_span(v: FqVector, vectors: Sequence[FqVector]) -> bool:
    """True iff v lies in the linear span of vectors."""
    if not vectors:
        return v.is_zero()
    ctx, dim = _common_frame([*vectors, v])
    stack, _ = _pushed(ctx, dim, [u.coords for u in vectors])
    return stack.in_span(stack.pack(v.coords))


def extract_basis(vectors: Sequence[FqVector]) -> List[FqVector]:
    """Maximal linearly independent sublist, scanning in input order and
    keeping a vector iff it increases the rank (first-seen wins)."""
    if not vectors:
        return []
    return [v for v, grew in zip(vectors, _pushed_vectors(vectors)[1]) if grew]


def span_size(vectors: Sequence[FqVector]) -> int:
    """|<vectors>| = q^rank; exact, no enumeration."""
    if not vectors:
        return 1
    return vectors[0].ctx.q ** sum(_pushed_vectors(vectors)[1])


# ---------------------------------------------------------------------------
# packed vectors of F_q^r
# ---------------------------------------------------------------------------

@functools.lru_cache(maxsize=None)
def _field_tables(ctx: FieldCtx, width: int):
    """Built once per field, for PackedSpace._times and pivot: alpha^m
    packed as one coordinate with digit fields of this width (alpha has
    code p) and its nonzero digits as (bit offset, digit); and, per leading
    element, the order that puts c*x, c = 0, ..., q-1, into a pivot's
    cancel table: cancel[b] is c*x for the c with c*lead = -b."""
    p, m, q, mul, neg, inv = ctx.p, ctx.m, ctx.q, ctx._mul, ctx._neg, ctx._inv
    power = mul[p ** (m - 1)][p] if m > 1 else 0
    digits = [power // p ** j % p for j in range(m)]
    orders = [operator.itemgetter(*[mul[neg[b]][inv[lead]] for b in range(q)])
              for lead in range(1, q)]
    return (sum(d << j * width for j, d in enumerate(digits)),
            tuple((j * width, d) for j, d in enumerate(digits) if d), (None, *orders))


class PackedSpace:
    """Vectors of F_q^r, q = p^m, as ints: each base-p digit of each
    coordinate has its own bit field, first coordinate most significant, so
    numeric order is the canonical encoding order. For p = 2 a field is one
    bit, a packed vector is its canonical code and addition is XOR; for odd p
    a field has room for the digit sum 2p - 2 and one guard bit, and addition
    adds the ints, then subtracts p in every field whose digit reached p.

    Two packed vectors agree in a coordinate exactly when their XOR x is zero
    there, so the distance far() filters by is a mask, an add, an or, a mask
    and a bit count: adding all ones to a coordinate's low bits of x carries
    into its top bit exactly when one of them is set, and or-ing x brings in
    the top bit. Vectors also lie side by side in one int, a lane each (the
    smallest of 8, 16, 32 or 64 bits, else a multiple of 64): no field carries
    out of itself, so one add and correction adds all lanes, no guard bit."""

    def __init__(self, ctx: FieldCtx, r: int):
        p, m = ctx.p, ctx.m
        self.ctx, self.q = ctx, ctx.q
        width = 1 if p == 2 else p.bit_length() + 1
        self._cw = width * m  # bits per coordinate
        self._cmask = (1 << self._cw) - 1
        # packed form of each element code, base-p digit j at bit j * width,
        # and back
        self._field = [0]
        for j in range(m):
            self._field = [f + (d << (j * width)) for d in range(p) for f in self._field]
        self._elem = {f: a for a, f in enumerate(self._field)}
        self._shifts = [self._cw * (r - 1 - i) for i in range(r)]
        self._p, self._top = p, width - 1
        # a 1 at the lowest bit of every field, and of every coordinate
        fields = ((1 << (width * r * m)) - 1) // ((1 << width) - 1)
        coords = ((1 << (self._cw * r)) - 1) // self._cmask
        # per field: the bias that carries a digit >= p into the top bit
        self._bias = fields * ((1 << self._top) - p)
        self._tops = fields << self._top
        # per coordinate: every bit but the top one, and the top one
        self.low = coords * (self._cmask >> 1)
        self.high = coords << (self._cw - 1)
        bits = self._cw * r  # a lane in bytes, a 1 in it, and its struct format
        self._lane = lane = next((b for b in (1, 2, 4, 8) if 8 * b >= bits), -(-bits // 64) * 8)
        self._one = (1).to_bytes(lane, "little")
        self._format = {1: "B", 2: "H", 4: "I", 8: "Q"}.get(lane)
        # for _times: every digit field of each coordinate but its top one,
        # the lowest one, and the field's tables; one attribute, since an
        # _Engine with 30 loses CPython 3.11's shared-key attribute storage
        self._scaling = (coords * ((1 << (self._cw - width)) - 1),
                         coords * ((1 << width) - 1), *_field_tables(ctx, width))

    def pack(self, coords: Sequence[int]) -> int:
        v, cw, field = 0, self._cw, self._field
        for a in coords:
            v = (v << cw) | field[a]
        return v

    def unpack(self, x: int) -> Tuple[int, ...]:
        cmask, elem = self._cmask, self._elem
        # of a list: tuple() of a generator grows the tuple by resizing it,
        # which raised the peak RSS of a 40 s query bench run by about 0.8 MB
        return tuple([elem[(x >> s) & cmask] for s in self._shifts])

    def to_lanes(self, xs: Sequence[int]) -> bytes:
        """xs side by side, a lane each, the first in the lowest bytes."""
        if self._format:
            return struct.pack(f"<{len(xs)}{self._format}", *xs)
        return b"".join([x.to_bytes(self._lane, "little") for x in xs])

    def from_lanes(self, data) -> Sequence[int]:
        """The packed vectors in the lanes of data, in order."""
        lane = self._lane
        if self._format:
            return struct.unpack(f"<{len(data) // lane}{self._format}", data)
        return [int.from_bytes(data[i:i + lane], "little") for i in range(0, len(data), lane)]

    def text(self, xs: Sequence[int]) -> str:
        """The set-file rows of xs, a coordinate of all at once: a shift and
        mask of their lanes, the base-p digits folded into a code byte, and
        per place of the NUL-padded text one translate and extended slice."""
        n, lane, p, m = len(xs), self._lane, self._p, self.ctx.m
        ones, width = int.from_bytes(self._one * n, "little"), self._cw // m
        values, cmask = int.from_bytes(self.to_lanes(xs), "little"), self._cmask * ones
        digit, places = ((1 << width) - 1) * ones, len(str(self.q - 1))
        codes = [str(a).rjust(places, "\0") for a in range(self.q)] + ["\0" * places] * (256 - self.q)
        tables = ["".join(place).encode() for place in zip(*codes)]
        row = " ".join(["\0" * places] * len(self._shifts)) + "\n"
        out, step = bytearray(row.encode() * n), len(row)
        for j, shift in enumerate(self._shifts):
            field = (values >> shift) & cmask
            if p > 2 and m > 1:  # else the field is the code
                field = sum(((field >> (d * width)) & digit) * p ** d for d in range(m))
            code = field.to_bytes(n * lane, "little")[::lane]
            for t, table in enumerate(tables):
                out[j * (places + 1) + t::step] = code.translate(table)
        return out.translate(None, b"\0").decode()

    def vectors(self, k: int) -> Iterator[int]:
        """Every packed vector of F_q^k, in canonical order."""
        return map(self.pack, itertools.product(range(self.q), repeat=k))

    def add(self, a: int, b: int) -> int:
        if self._p == 2:
            return a ^ b
        s = a + b
        return s - (((s + self._bias) & self._tops) >> self._top) * self._p

    def add_all(self, us: Iterable[int], vs: Sequence[int]) -> Iterator[int]:
        """u + v for u in us for v in vs, lazily, with the add inlined."""
        if self._p == 2:
            return (u ^ v for u in us for v in vs)
        p, bias, tops, top = self._p, self._bias, self._tops, self._top
        return (s - (((s + bias) & tops) >> top) * p for u in us for v in vs for s in (u + v,))

    def translate(self, x: int, vs: Iterable[int]) -> Iterator[int]:
        """x + v for v in vs, lazily: one C-level map for p = 2."""
        if self._p == 2:
            return map(x.__xor__, vs)
        p, bias, tops, top = self._p, self._bias, self._tops, self._top
        return (s - (((s + bias) & tops) >> top) * p for v in vs for s in (x + v,))

    def multiples(self, x: int) -> List[int]:
        """c*x for c = 1, ..., q-1."""
        return self._times(x)[1:]

    def _times(self, x: int) -> List[int]:
        """c*x for c = 0, ..., q-1. The base-p digits of c weight x, alpha*x,
        ..., alpha^(m-1)*x, and alpha^j has code p^j, so (c + p^j)*x is
        c*x + alpha^j*x. alpha*y moves each coordinate's digits of y up one
        field and adds back its top digit t as t*alpha^m: t times each digit
        of alpha^m, in that digit's field."""
        p, (keep, low, feed, taps, _) = self._p, self._scaling
        out, y, m = [0], x, self.ctx.m
        if p == 2:
            for j in range(m):
                if j:
                    y = ((y & keep) << 1) ^ ((y >> (m - 1)) & low) * feed
                out += [c ^ y for c in out]
            return out
        bias, tops, top = self._bias, self._tops, self._top
        for j in range(m):
            if j:
                ts = [0, (y >> (self._cw - top - 1)) & low]
                for _ in range(2, p):
                    s = ts[-1] + ts[1]
                    ts.append(s - (((s + bias) & tops) >> top) * p)
                s = ((y & keep) << (top + 1)) + sum([ts[d] << at for at, d in taps])
                y = s - (((s + bias) & tops) >> top) * p
            step = len(out)
            for _ in range((p - 1) * step):
                s = out[-step] + y
                out.append(s - (((s + bias) & tops) >> top) * p)
        return out

    def pivot(self, x: int) -> Tuple[int, Tuple[int, ...]]:
        """(shift, cancel) of a nonzero x: its leading coordinate sits at
        bit shift, and adding cancel[b], a multiple of x, to a vector whose
        coordinate there is the element b clears it (cancel[0] = 0)."""
        shift = (x.bit_length() - 1) // self._cw * self._cw
        return shift, self._scaling[4][self._elem[x >> shift]](self._times(x))

    def line(self, x: int) -> int:
        """The nonzero x scaled so that its leading coordinate is 1: the same
        for every nonzero multiple of x, so it names x's line (for q = 2 it
        is x)."""
        lead = self._elem[x >> (x.bit_length() - 1) // self._cw * self._cw]
        return self._times(x)[self.ctx._inv[lead]]

    def clear(self, xs: Iterable[int], pivot: Tuple[int, Tuple[int, ...]]) -> List[int]:
        """Each of xs plus the multiple of pivot's vector that clears its
        coordinate at the pivot's shift."""
        shift, cancel = pivot
        cmask = self._cmask
        if self._p == 2:  # a packed coordinate is its element's code
            return [x ^ cancel[(x >> shift) & cmask] for x in xs]
        p, bias, tops, top, elem = self._p, self._bias, self._tops, self._top, self._elem
        return [s - (((s + bias) & tops) >> top) * p
                for x in xs for s in (x + cancel[elem[(x >> shift) & cmask]],)]

    def first_dependent(self, xs: Sequence[int], most: int) -> Optional[Tuple[int, ...]]:
        """The indices of the colex-first dependent set among the fewest of
        xs, at most `most` of them; None when every set of at most `most` is
        independent. A zero is dependent alone; then the sets of each size
        s = 2, 3, ... are walked depth first, the largest index chosen first
        and each level counting up, so they come in colex order.

        No proper prefix of a size-s set can be dependent, since it is a
        smaller set and every smaller set passed already, so each node of
        the walk carries the residues of the vectors below its smallest
        chosen one modulo the span of the chosen ones, all nonzero. Choosing
        one of them makes it a pivot, and the child's residues are the ones
        below it with the pivot's leading coordinate cleared. On the last
        level two residues are dependent exactly when they are parallel,
        that is when their line names agree, so no pivot is built there.
        Names and pivots are cached per call: the size-(s+1) pass meets
        every residue the size-s pass met."""
        if most >= 1 and 0 in xs:
            return (xs.index(0),)
        pivot, line = functools.cache(self.pivot), functools.cache(self.line)
        for size in range(2, min(most, len(xs)) + 1):
            witness = self._first_dependent(pivot, line, xs, size)
            if witness is not None:
                return witness
        return None

    def _first_dependent(
        self,
        pivot: Callable[[int], Tuple[int, Tuple[int, ...]]],
        line: Callable[[int], int],
        residues: Sequence[int],
        size: int,
    ) -> Optional[Tuple[int, ...]]:
        """The colex-first `size` indices whose residues are dependent, by
        the walk of first_dependent."""
        if size == 2:
            lines = list(map(line, residues))
            if len(set(lines)) == len(lines):
                return None
            top = next(t for t, name in enumerate(lines) if name in lines[:t])
            return lines.index(lines[top]), top
        for top in range(size - 1, len(residues)):
            below = self.clear(residues[:top], pivot(residues[top]))
            rest = self._first_dependent(pivot, line, below, size - 1)
            if rest is not None:
                return rest + (top,)
        return None

    def far(self, rows: Sequence[int], words: Iterable[int], d: int) -> List[int]:
        """The rows at Hamming distance >= d from every word, in order: one
        shrinking list per word."""
        low, high = self.low, self.high
        for w in words:
            rows = [r for r in rows if ((((x := r ^ w) & low) + low | x) & high).bit_count() >= d]
        return rows


class EchelonStack(PackedSpace):
    """Echelon basis of a stack of packed vectors of F_q^r, with push and
    pop. Each row is the pivot (see PackedSpace.pivot) of a pushed vector
    reduced by the rows below it. A span test is one pass over the rows,
    and pop is a truncation."""

    def __init__(self, ctx: FieldCtx, r: int):
        super().__init__(ctx, r)
        self._rows: List[Tuple[int, Tuple[int, ...]]] = []
        self._ranks: List[int] = []

    def reduce(self, x: int) -> int:
        """x minus its projection on the rows: 0 exactly when x is in the span."""
        cmask, add, elem = self._cmask, self.add, self._elem
        for shift, cancel in self._rows:
            c = (x >> shift) & cmask
            if c:
                x = add(x, cancel[elem[c]])
        return x

    def in_span(self, x: int) -> bool:
        return not self.reduce(x)

    def push(self, x: int) -> bool:
        """Push x; True iff it lies outside the span of the stack (the rank
        grew). Every push is undone by one pop."""
        self._ranks.append(len(self._rows))
        residue = self.reduce(x)
        if not residue:
            return False
        self._rows.append(self.pivot(residue))
        return True

    def pop(self) -> None:
        del self._rows[self._ranks.pop():]

    def reduced(self) -> List[int]:
        """The reduced row echelon rows of the span, first pivot first: each
        row's multiple with leading coordinate 1, sorted, then each row's
        pivot cleared from the rows above it, from the last row up."""
        one = self.ctx._neg[1]  # cancel[-1] is the multiple with lead 1
        rows = sorted((cancel[one] for _, cancel in self._rows), reverse=True)
        for i in range(len(rows) - 1, 0, -1):
            rows[:i] = self.clear(rows[:i], self.pivot(rows[i]))
        return rows
