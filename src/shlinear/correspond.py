"""Both directions of the code / S_h-linear-set correspondence.

Forward: a code with minimum distance >= 2h+1 and redundancy r = n-k >= 2h
yields the (n+1)-element S_h-linear set {parity-check columns} union {0}
in F_q^r.

Converse: an S_h-linear set with n nonzero elements in F_q^r (r >= 2h)
yields the code whose parity check has those n elements as columns, with
d >= 2h+1 and dimension t in [max(n-r, 0), n-2h].

The converse construction is verified rather than assumed: for q = 2 a set
that avoids the zero vector can carry an odd-size linear dependency that no
h-combination collision rules out (e.g. {e1, e2, e1+e2, e3, e4} in F_2^4 is
S_2-linear but three of its elements sum to zero), in which case the built
code misses the distance target and DistanceTooSmallError is raised. For
q >= 3 that branch cannot fire: by the zero lemma (see
shset.exhaustive_max_sh_set) a zero-free S_h-linear set of at least h
elements stays S_h-linear with 0 added, and the 2h or more nonzero
elements of an S_h-linear set holding 0 always give a code with d >= 2h+1.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import List, Optional, Tuple

from .errors import (
    BudgetExceededError,
    DimensionWindowViolatedError,
    DistanceTooSmallError,
    DuplicateColumnsError,
    InvalidParameterError,
    NotShLinearError,
    RedundancyTooSmallError,
)
from . import code as code_mod
from . import linalg
from . import shset
from .code import LinearCode
from .linalg import FqMatrix, FqVector
from .shset import ShSetCandidate


@dataclass
class CorrespondenceReport:
    """Named verification results for one conversion, CLI-printable."""

    direction: str
    summary: dict
    checks: List[Tuple[str, bool, str]] = field(default_factory=list)
    column_map: Optional[Tuple[int, ...]] = None

    def add_check(self, name: str, ok: bool, detail: str = "") -> None:
        self.checks.append((name, ok, detail))

    @property
    def valid(self) -> bool:
        return all(ok for _, ok, _ in self.checks)

    def to_lines(self) -> List[str]:
        lines = [f"direction={self.direction}"]
        for key in sorted(self.summary):
            lines.append(f"{key}={self.summary[key]}")
        for name, ok, detail in self.checks:
            status = "pass" if ok else "FAIL"
            suffix = f" ({detail})" if detail else ""
            lines.append(f"check.{name}={status}{suffix}")
        if self.column_map is not None:
            lines.append("column_map=" + ",".join(str(j) for j in self.column_map))
        lines.append(f"valid={'true' if self.valid else 'false'}")
        return lines


def code_to_set(code: LinearCode, h: int) -> ShSetCandidate:
    """Parity-check columns union {0} as an S_h-linear set in F_q^(n-k).

    Requires certified distance knowledge (d_known or d_lower) of at least
    2h+1; the result is re-verified, so a wrong certificate is detected.
    """
    if h < 1:
        raise InvalidParameterError(f"h must be >= 1, got {h}")
    r = code.n - code.k
    if r < 2 * h:
        raise RedundancyTooSmallError(f"need n-k >= 2h; got n-k={r}, h={h}")
    certified = code.certified_distance_lower()
    if certified < 2 * h + 1:
        raise DistanceTooSmallError(
            f"need certified d >= {2 * h + 1}, have {certified}; "
            "run min_distance or distance_at_least first"
        )
    columns = code.pchk.column_vectors()
    if any(c.is_zero() for c in columns) or len(set(columns)) != len(columns):
        raise DuplicateColumnsError(
            "parity-check columns must be pairwise distinct and nonzero "
            "(equivalent to d >= 3)"
        )
    zero = linalg.zero_vector(code.ctx, r)
    candidate = ShSetCandidate(code.ctx, r, (zero,) + tuple(columns), h)
    witness = shset.check_sh_linear(candidate)
    if witness is not None:
        raise DistanceTooSmallError(
            "column set failed S_h verification; the distance certificate "
            f"was wrong (collision at value {witness.value.coords})"
        )
    return candidate


def set_to_code(candidate: ShSetCandidate) -> LinearCode:
    """Code whose parity-check columns are the nonzero elements of the set,
    in canonical encoding order. Verifies d >= 2h+1 and the dimension window
    max(n-r, 0) <= t <= n-2h before returning."""
    h = candidate.h
    r = candidate.r
    if r < 2 * h:
        raise RedundancyTooSmallError(f"need r >= 2h; got r={r}, h={h}")
    witness = shset.check_sh_linear(candidate)
    if witness is not None:
        raise NotShLinearError("input set is not S_h-linear", witness)
    nonzero = sorted(candidate.nonzero_elems(), key=lambda v: v.encode())
    n = len(nonzero)
    if n < 2 * h:
        raise RedundancyTooSmallError(
            f"need at least 2h nonzero elements; got {n}, h={h}"
        )
    H = FqMatrix.from_columns(nonzero)
    built = code_mod.from_parity_check(H)
    ok, dep = code_mod.distance_at_least(built, 2 * h + 1)
    if not ok:
        raise DistanceTooSmallError(
            f"constructed code has d <= {len(dep)} < {2 * h + 1}; the input "
            "set carries a short linear dependency that h-combination "
            "collisions cannot rule out (possible only for q = 2 sets "
            f"without the zero vector); dependent columns {dep}"
        )
    t = built.k
    if not (max(n - r, 0) <= t <= n - 2 * h):
        raise DimensionWindowViolatedError(
            f"dimension t={t} outside window [{max(n - r, 0)}, {n - 2 * h}]"
        )
    return built


def round_trip_check(code: LinearCode, h: int, budget: int = 10 ** 6) -> CorrespondenceReport:
    """set_to_code(code_to_set(code, h)) must reproduce (n, k) and the
    codeword set up to the column permutation induced by canonical column
    ordering; the report records that permutation."""
    report = CorrespondenceReport(
        direction="round_trip",
        summary={"q": code.ctx.q, "n": code.n, "k": code.k, "h": h},
    )
    candidate = code_to_set(code, h)
    rebuilt = set_to_code(candidate)
    report.add_check("n_preserved", rebuilt.n == code.n, f"{rebuilt.n} vs {code.n}")
    report.add_check("k_preserved", rebuilt.k == code.k, f"{rebuilt.k} vs {code.k}")

    original_cols = code.pchk.column_vectors()
    rebuilt_cols = rebuilt.pchk.column_vectors()
    # the rebuilt parity check re-derives rows, but its column space tags
    # positions: match columns of the constructed H (same as rebuilt order)
    position = {v: i for i, v in enumerate(original_cols)}
    sorted_cols = sorted(original_cols, key=lambda v: v.encode())
    column_map = tuple(position[v] for v in sorted_cols)
    report.column_map = column_map

    if code.ctx.q ** code.k > budget:
        raise BudgetExceededError(f"q^k exceeds round-trip budget {budget}")
    original_words = {w.coords for w in code_mod.codewords(code)}
    permuted = set()
    for w in code_mod.codewords(rebuilt):
        coords = [0] * code.n
        for j, orig in enumerate(column_map):
            coords[orig] = w.coords[j]
        permuted.add(tuple(coords))
    report.add_check(
        "codeword_set_preserved",
        permuted == original_words,
        f"{len(permuted)} words",
    )
    return report
