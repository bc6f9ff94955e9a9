"""Exact arithmetic for small finite fields F_q with q = p^m.

Elements are plain Python ints in [0, q), encoding the polynomial-basis
coordinates as base-p digits: code = sum(c_i * p**i). Addition is digitwise
mod p; multiplication is polynomial multiplication reduced by a fixed monic
irreducible modulus. After construction every operation is a table lookup,
so q is capped at 256 (full q x q tables).

A FieldCtx is immutable and hashable; two contexts compare equal iff they
share (p, m, modulus), so vectors built from independently constructed
contexts of the same field interoperate.
"""

from __future__ import annotations

from functools import lru_cache
from typing import Iterable, Optional, Sequence, Tuple

from .errors import (
    NotPrimeError,
    ReduciblePolynomialError,
    UnsupportedOrderError,
)

MAX_ORDER = 256


def is_prime(n: int) -> bool:
    if n < 2:
        return False
    if n < 4:
        return True
    if n % 2 == 0:
        return False
    f = 3
    while f * f <= n:
        if n % f == 0:
            return False
        f += 2
    return True


def factor_prime_power(q: int) -> Tuple[int, int]:
    """Split q into (p, m) with p prime and q = p^m.

    Raises UnsupportedOrderError when q is not a prime power.
    """
    if q < 2:
        raise UnsupportedOrderError(f"field order must be >= 2, got {q}")
    p = 2
    while p * p <= q:
        if q % p == 0:
            break
        p += 1
    else:
        return q, 1
    m = 0
    rem = q
    while rem % p == 0:
        rem //= p
        m += 1
    if rem != 1:
        raise UnsupportedOrderError(f"{q} is not a prime power")
    return p, m


# ---------------------------------------------------------------------------
# polynomial helpers over F_p (coefficient lists, constant term first)
# ---------------------------------------------------------------------------

def _poly_trim(a: Sequence[int]) -> list:
    a = list(a)
    while a and a[-1] == 0:
        a.pop()
    return a


def _poly_mul(a: Sequence[int], b: Sequence[int], p: int) -> list:
    out = [0] * (len(a) + len(b) - 1) if a and b else []
    for i, ai in enumerate(a):
        if ai == 0:
            continue
        for j, bj in enumerate(b):
            out[i + j] = (out[i + j] + ai * bj) % p
    return _poly_trim(out)


def _poly_mod(a: Sequence[int], mod: Sequence[int], p: int) -> list:
    """Remainder of a modulo the monic polynomial mod."""
    a = _poly_trim(a)
    deg_m = len(mod) - 1
    while len(a) - 1 >= deg_m and a:
        lead = a[-1]
        shift = len(a) - 1 - deg_m
        for i, c in enumerate(mod):
            a[shift + i] = (a[shift + i] - lead * c) % p
        a = _poly_trim(a)
    return a


def _is_irreducible(coeffs: Sequence[int], p: int) -> bool:
    """Trial division by every monic polynomial of degree <= deg/2."""
    coeffs = list(coeffs)
    deg = len(coeffs) - 1
    if deg < 1:
        return False
    for d in range(1, deg // 2 + 1):
        # iterate monic divisors of degree d: low coefficients as base-p digits
        for code in range(p ** d):
            div = _digits(code, p, d) + [1]
            if _poly_trim(_poly_mod(coeffs, div, p)) == []:
                return False
    return True


def _digits(code: int, p: int, width: int) -> list:
    out = []
    for _ in range(width):
        out.append(code % p)
        code //= p
    return out


def _encode(digits: Sequence[int], p: int) -> int:
    code = 0
    for c in reversed(list(digits)):
        code = code * p + c
    return code


def find_irreducible(p: int, m: int) -> Tuple[int, ...]:
    """Lexicographically smallest (by low-coefficient encoding) monic
    irreducible of degree m over F_p."""
    for code in range(p ** m):
        coeffs = _digits(code, p, m) + [1]
        if _is_irreducible(coeffs, p):
            return tuple(coeffs)
    raise ReduciblePolynomialError(
        f"no irreducible polynomial of degree {m} over F_{p} found"
    )  # unreachable for valid (p, m)


@lru_cache(maxsize=None)
def default_modulus(p: int, m: int) -> Optional[Tuple[int, ...]]:
    """The modulus of F_{p^m} when none is given, coefficients c_0..c_m:
    the first irreducible find_irreducible meets, so element encodings are
    stable across runs (x^2 + x + 1 for F_4, x^3 + x + 1 for F_8, x^2 + 1
    for F_9). None for a prime field."""
    if m == 1:
        return None
    return find_irreducible(p, m)


# ---------------------------------------------------------------------------
# field context
# ---------------------------------------------------------------------------

class FieldCtx:
    """Arithmetic context for F_q, q = p^m <= 256.

    Construct through make_field(); direct construction skips memoization
    but is otherwise equivalent.
    """

    __slots__ = ("p", "m", "q", "modulus", "_add", "_mul", "_neg", "_inv", "_hash")

    def __init__(self, p: int, m: int, modulus: Optional[Tuple[int, ...]] = None):
        if not is_prime(p):
            raise NotPrimeError(f"characteristic {p} is not prime")
        if m < 1:
            raise UnsupportedOrderError(f"extension degree must be >= 1, got {m}")
        q = p ** m
        if q > MAX_ORDER:
            raise UnsupportedOrderError(f"field order {q} exceeds cap {MAX_ORDER}")
        if m == 1:
            if modulus is not None:
                raise ReduciblePolynomialError("prime fields take no modulus")
        else:
            if modulus is None:
                modulus = default_modulus(p, m)
            modulus = tuple(int(c) % p for c in modulus)
            if len(modulus) != m + 1 or modulus[-1] != 1:
                raise ReduciblePolynomialError(
                    f"modulus must be monic of degree {m}, got {modulus}"
                )
            if not _is_irreducible(modulus, p):
                raise ReduciblePolynomialError(f"modulus {modulus} is reducible over F_{p}")
        self.p = p
        self.m = m
        self.q = q
        self.modulus = modulus
        self._build_tables()
        self._hash = hash((p, m, modulus))

    def _build_tables(self) -> None:
        p, m, q = self.p, self.m, self.q
        # addition a digit at a time: the table of k + 1 base-p digits is
        # that of the low k, with the sum of the top digits mod p above
        add = [[(a + b) % p for b in range(p)] for a in range(p)]
        for k in range(1, m):
            low, size = add, p ** k
            add = [[x + top for c in range(p) for top in ((hi + c) % p * size,) for x in low[lo]]
                   for hi in range(p) for lo in range(size)]
        # multiplication by logarithms, a * b = g^(log a + log b), for the
        # first g whose powers, each one product from the last, reach q - 1
        mod = self.modulus or (0, 1)  # x: reducing by it keeps the constants of F_p

        def times(a: int, b: int) -> int:
            return _encode(_poly_mod(_poly_mul(_digits(a, p, m), _digits(b, p, m), p), mod, p), p)

        for g in range(1, q):
            power = [1]
            while (a := times(power[-1], g)) != 1:
                power.append(a)
            if len(power) == q - 1:
                break
        log = {a: e for e, a in enumerate(power)}
        power += power
        logs = [log[b] for b in range(1, q)]
        self._add = tuple(tuple(r) for r in add)
        self._mul = ((0,) * q,) + tuple((0, *[power[log[a] + e] for e in logs]) for a in range(1, q))
        self._neg = tuple(row.index(0) for row in self._add)
        self._inv = (0,) + tuple(power[q - 1 - log[a]] for a in range(1, q))

    # -- element operations (elements are ints in [0, q)) --

    def add(self, a: int, b: int) -> int:
        return self._add[a][b]

    def neg(self, a: int) -> int:
        return self._neg[a]

    def sub(self, a: int, b: int) -> int:
        return self._add[a][self._neg[b]]

    def mul(self, a: int, b: int) -> int:
        return self._mul[a][b]

    def inv(self, a: int) -> int:
        if a == 0:
            raise ZeroDivisionError("inverse of 0 in " + repr(self))
        return self._inv[a]

    def pow(self, a: int, k: int) -> int:
        if k < 0:
            return self.pow(self.inv(a), -k)
        r = 1
        while k:
            if k & 1:
                r = self._mul[r][a]
            a = self._mul[a][a]
            k >>= 1
        return r

    def nonzero_elems(self) -> range:
        """All q-1 nonzero element codes, ascending."""
        return range(1, self.q)

    # -- identity --

    def __eq__(self, other) -> bool:
        return (
            isinstance(other, FieldCtx)
            and self.p == other.p
            and self.m == other.m
            and self.modulus == other.modulus
        )

    def __hash__(self) -> int:
        return self._hash

    def __repr__(self) -> str:
        if self.m == 1:
            return f"GF({self.q})"
        return f"GF({self.q}, modulus={self.modulus})"


@lru_cache(maxsize=None)
def _cached_field(p: int, m: int, modulus: Optional[Tuple[int, ...]]) -> FieldCtx:
    return FieldCtx(p, m, modulus)


def make_field(p: int, m: int = 1, modulus: Optional[Iterable[int]] = None) -> FieldCtx:
    """Field context for F_{p^m}, with the pinned default modulus unless
    overridden. Contexts are memoized, so repeated calls share tables."""
    mod = tuple(modulus) if modulus is not None else None
    return _cached_field(p, m, mod)


def field_of_order(q: int, modulus: Optional[Iterable[int]] = None) -> FieldCtx:
    """Like make_field but keyed by the order q."""
    p, m = factor_prime_power(q)
    return make_field(p, m, modulus)
