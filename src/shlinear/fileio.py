"""Line-oriented file formats for vector sets and matrices.

Set file:    header `q=<q> r=<r> [poly=c0,c1,...,cm]`, then one vector per
             line as whitespace-separated element codes.
Matrix file: header `q=<q> rows=<R> cols=<C> [poly=...]`, then R lines of
             C codes each.

`#` starts a comment anywhere; blank lines are skipped. The poly key is
written only when the field uses a non-default modulus, so default-field
files round-trip byte-identically.
"""

from __future__ import annotations

from pathlib import Path
from typing import Dict, List, Tuple

from .errors import ParseError
from .gf import FieldCtx, default_modulus, factor_prime_power, make_field
from .linalg import FqMatrix, FqVector
from .shset import ShSetCandidate


def _strip(line: str) -> str:
    return line.split("#", 1)[0].strip()


def _parse_header(line: str, lineno: int, source: str) -> dict:
    fields = {}
    for token in line.split():
        if "=" not in token:
            raise ParseError(f"{source}: malformed header token {token!r}", lineno)
        key, value = token.split("=", 1)
        fields[key] = value
    return fields


def _header_field(ctx: FieldCtx) -> str:
    parts = [f"q={ctx.q}"]
    if ctx.m > 1 and ctx.modulus != default_modulus(ctx.p, ctx.m):
        parts.append("poly=" + ",".join(str(c) for c in ctx.modulus))
    return " ".join(parts)


def _ctx_from_header(fields: dict, lineno: int, source: str) -> FieldCtx:
    try:
        q = int(fields["q"])
    except (KeyError, ValueError):
        raise ParseError(f"{source}: header must carry q=<order>", lineno) from None
    p, m = factor_prime_power(q)
    modulus = None
    if "poly" in fields:
        try:
            modulus = tuple(int(c) for c in fields["poly"].split(","))
        except ValueError:
            raise ParseError(f"{source}: malformed poly field", lineno) from None
    return make_field(p, m, modulus)


def _parse_codes(line: str, ctx: FieldCtx, expected: int, lineno: int, source: str) -> Tuple[int, ...]:
    parts = line.split()
    if len(parts) != expected:
        raise ParseError(f"{source}: expected {expected} codes, got {len(parts)}", lineno)
    codes = []
    for p in parts:
        try:
            c = int(p)
        except ValueError:
            raise ParseError(f"{source}: non-integer code {p!r}", lineno) from None
        if not 0 <= c < ctx.q:
            raise ParseError(f"{source}: code {c} out of range [0,{ctx.q})", lineno)
        codes.append(c)
    return tuple(codes)


def _content_lines(path: Path) -> List[Tuple[int, str]]:
    out = []
    with path.open("r", encoding="utf-8") as fh:
        for lineno, raw in enumerate(fh, start=1):
            line = _strip(raw)
            if line:
                out.append((lineno, line))
    return out


def _read(path, least: Dict[str, int]) -> Tuple[str, FieldCtx, List[int], List[Tuple[int, str]]]:
    """A file's name, its field, the integer header values of the keys of
    `least`, each at least its value there, and its other content lines."""
    source = str(path)
    lines = _content_lines(Path(path))
    if not lines:
        raise ParseError(f"{source}: empty file")
    lineno, header = lines[0]
    fields = _parse_header(header, lineno, source)
    ctx = _ctx_from_header(fields, lineno, source)
    values = []
    for key, low in least.items():
        try:
            values.append(int(fields[key]))
        except (KeyError, ValueError):
            raise ParseError(f"{source}: header must carry {key}=<integer>", lineno) from None
        if values[-1] < low:
            raise ParseError(f"{source}: header {key}={values[-1]} must be >= {low}", lineno)
    return source, ctx, values, lines[1:]


def load_vectors(path) -> Tuple[FieldCtx, int, List[FqVector]]:
    """Load a set file: field context, dimension, vectors in file order."""
    source, ctx, (r,), data = _read(path, {"r": 1})
    vectors = [FqVector(ctx, _parse_codes(line, ctx, r, ln, source)) for ln, line in data]
    if not vectors:
        raise ParseError(f"{source}: no vectors after the header")
    return ctx, r, vectors


def load_set(path, h: int) -> ShSetCandidate:
    ctx, r, vectors = load_vectors(path)
    return ShSetCandidate(ctx, r, tuple(vectors), h)


def save_vectors(path, ctx: FieldCtx, r: int, vectors) -> None:
    save_rows(path, ctx, r, "".join(" ".join(map(str, v.coords)) + "\n" for v in vectors))


def save_rows(path, ctx: FieldCtx, r: int, text: str) -> None:
    """A set file whose vector rows are given as text, one line each."""
    Path(path).write_text(f"{_header_field(ctx)} r={r}\n{text}", encoding="utf-8")


def save_set(path, candidate: ShSetCandidate) -> None:
    save_vectors(path, candidate.ctx, candidate.r, candidate.elems)


def load_matrix(path) -> FqMatrix:
    source, ctx, (rows, cols), data = _read(path, {"rows": 0, "cols": 1})
    if len(data) != rows:
        raise ParseError(f"{source}: expected {rows} matrix rows, found {len(data)}")
    entries = tuple(_parse_codes(line, ctx, cols, ln, source) for ln, line in data)
    return FqMatrix(ctx, rows, cols, entries)


def save_matrix(path, matrix: FqMatrix) -> None:
    path = Path(path)
    lines = [f"{_header_field(matrix.ctx)} rows={matrix.rows} cols={matrix.cols}"]
    for row in matrix.entries:
        lines.append(" ".join(str(c) for c in row))
    path.write_text("\n".join(lines) + "\n", encoding="utf-8")
