"""Command-line interface.

Exit codes: 0 for success or a positive verdict, 1 for a negative verdict
(collision found, distance target missed, property violated), 2 for usage
or input errors.
"""

from __future__ import annotations

import argparse
import functools
import itertools
import math
import random
import sys
from pathlib import Path
from typing import List, Optional

from . import bounds as bounds_mod
from . import code as code_mod
from . import correspond, fileio, fixtures, shset
from .errors import InvalidParameterError, NotShLinearError, ShlinearError, UsageError
from .gf import field_of_order
from .linalg import FqMatrix, decode_vector


def _check_input(path: str) -> None:
    if not Path(path).exists():
        raise UsageError(f"input file not found: {path}")
    if not Path(path).is_file():
        raise UsageError(f"input is not a regular file: {path}")


def _option_range(args, name: str, least: Optional[int] = None) -> range:
    """range(--NAME-min, --NAME-max + 1), refused when it is empty or starts
    below least."""
    lo, hi = getattr(args, f"{name}_min"), getattr(args, f"{name}_max")
    if least is not None and lo < least:
        raise InvalidParameterError(f"--{name}-min must be >= {least}, got {lo}")
    if lo > hi:
        raise InvalidParameterError(f"--{name}-min {lo} is above --{name}-max {hi}: the range is empty")
    return range(lo, hi + 1)


def _add_common(parser: argparse.ArgumentParser) -> None:
    parser.add_argument("-v", "--verbose", action="store_true")


@functools.lru_cache(maxsize=1)
def build_parser() -> argparse.ArgumentParser:
    """The argument parser, built once per process: parse_args returns a
    fresh namespace on every call, so reuse carries no state over."""
    parser = argparse.ArgumentParser(
        prog="shlinear",
        description="S_h-linear sets, q-ary linear codes, and the correspondence between them",
    )
    sub = parser.add_subparsers(dest="subcommand", required=True)

    p = sub.add_parser("verify", help="check a vector set for the S_h property")
    p.add_argument("--set", dest="set_path", required=True)
    p.add_argument("--h", dest="h", type=int, required=True)
    p.add_argument("--mode", choices=("linear", "plain"), default="linear")
    _add_common(p)

    p = sub.add_parser("hspan", help="write the set of all h-linear combination values")
    p.add_argument("--set", dest="set_path", required=True)
    p.add_argument("--h", dest="h", type=int, required=True)
    p.add_argument("--out", required=True)
    _add_common(p)

    p = sub.add_parser("mindist", help="minimum distance of a code given by a matrix")
    p.add_argument("--matrix", required=True)
    p.add_argument("--role", choices=("parity", "generator"), default="parity")
    p.add_argument("--at-least", dest="at_least", type=int, default=None)
    p.add_argument("--budget", type=int, default=code_mod.DEFAULT_BUDGET)
    _add_common(p)

    p = sub.add_parser("to-set", help="parity-check columns union {0} as an S_h-linear set")
    p.add_argument("--matrix", required=True)
    p.add_argument("--h", dest="h", type=int, required=True)
    p.add_argument("--out", required=True)
    _add_common(p)

    p = sub.add_parser("to-code", help="code whose parity-check columns are the set's nonzero elements")
    p.add_argument("--set", dest="set_path", required=True)
    p.add_argument("--h", dest="h", type=int, required=True)
    p.add_argument("--out", required=True)
    _add_common(p)

    p = sub.add_parser("extend", help="greedily extend a set to a maximal S_h-linear set")
    p.add_argument("--set", dest="set_path", required=True)
    p.add_argument("--h", dest="h", type=int, required=True)
    p.add_argument("--out", default=None)
    _add_common(p)

    p = sub.add_parser("search-max", help="exhaustive maximum S_h-linear set in F_q^r")
    p.add_argument("--q", type=int, required=True)
    p.add_argument("--r", type=int, required=True)
    p.add_argument("--h", dest="h", type=int, required=True)
    p.add_argument("--poly", default=None, help="modulus override c0,c1,...,cm")
    p.add_argument(
        "--contains-zero", action="store_true",
        help="accepted and changes nothing: every maximum the search returns contains 0",
    )
    p.add_argument("--mode", choices=("linear", "plain"), default="linear")
    p.add_argument("--out", default=None)
    _add_common(p)

    p = sub.add_parser("bounds", help="snapshot-driven bound computations")
    bsub = p.add_subparsers(dest="bounds_command", required=True)

    b = bsub.add_parser("vbar", help="minimum redundancy admitting d >= 2h+1 at length n")
    b.add_argument("--q", type=int, required=True)
    b.add_argument("--h", dest="h", type=int, required=True)
    b.add_argument("--n", type=int, required=True)
    b.add_argument("--exact", action="store_true")
    b.add_argument("--budget", type=int, default=bounds_mod.DEFAULT_SEARCH_BUDGET)
    b.add_argument("--snapshot", default=None)
    _add_common(b)

    b = bsub.add_parser("table", help="emit a CSV grid or series")
    b.add_argument("--q", type=int, required=True)
    b.add_argument("--mode", choices=("sh", "vbar"), default="sh")
    b.add_argument("--h", dest="h", type=int, default=None, help="single h for --mode vbar")
    b.add_argument("--h-min", type=int, default=2)
    b.add_argument("--h-max", type=int, default=8)
    b.add_argument("--r-min", type=int, default=4)
    b.add_argument("--r-max", type=int, default=9)
    b.add_argument("--n-min", type=int, default=5)
    b.add_argument("--n-max", type=int, default=20)
    b.add_argument("--out", default=None)
    b.add_argument("--snapshot", default=None)
    _add_common(b)

    b = bsub.add_parser("ingest", help="validate a snapshot file")
    b.add_argument("--file", required=True)
    _add_common(b)

    p = sub.add_parser("selftest", help="run randomized property checks")
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--trials", type=int, default=25)
    _add_common(p)

    return parser


def _load_snapshot(arg: Optional[str]) -> list:
    if arg is not None:
        return bounds_mod.ingest_table(arg)
    return fixtures.load_snapshot()


def _print_witness(witness: shset.CollisionWitness) -> None:
    for line in witness.format_lines():
        print(line)


# ---------------------------------------------------------------------------
# handlers
# ---------------------------------------------------------------------------

def _cmd_verify(args) -> int:
    _check_input(args.set_path)
    candidate = fileio.load_set(args.set_path, args.h)
    check = shset.check_sh_linear if args.mode == "linear" else shset.check_sh_set
    witness = check(candidate)
    if witness is None:
        print("OK")
        return 0
    _print_witness(witness)
    return 1


def _cmd_hspan(args) -> int:
    _check_input(args.set_path)
    candidate = fileio.load_set(args.set_path, args.h)
    text = shset.h_span_text(candidate)
    fileio.save_rows(args.out, candidate.ctx, candidate.r, text)
    print(f"count={text.count(chr(10))}")
    print(f"out={args.out}")
    return 0


def _load_code(matrix_path: str, role: str) -> code_mod.LinearCode:
    matrix = fileio.load_matrix(matrix_path)
    if role == "parity":
        return code_mod.from_parity_check(matrix)
    return code_mod.from_generator(matrix)


def _cmd_mindist(args) -> int:
    if args.budget < 1:
        raise UsageError(f"--budget must be >= 1, got {args.budget}")
    _check_input(args.matrix)
    built = _load_code(args.matrix, args.role)
    if args.at_least is not None:
        ok, witness = code_mod.distance_at_least(built, args.at_least)
        print(f"d>={args.at_least}: {'true' if ok else 'false'}")
        if not ok:
            cols = ",".join(str(j + 1) for j in witness)
            print(f"dependent_columns={cols}")
            return 1
        return 0
    d = code_mod.min_distance(built, budget=args.budget)
    print(f"d={0 if d == math.inf else d}")
    return 0


def _cmd_to_set(args) -> int:
    _check_input(args.matrix)
    built = _load_code(args.matrix, "parity")
    ok, witness = code_mod.distance_at_least(built, 2 * args.h + 1)
    if not ok:
        print(f"d>={2 * args.h + 1}: false")
        print("dependent_columns=" + ",".join(str(j + 1) for j in witness))
        return 1
    candidate = correspond.code_to_set(built, args.h)
    fileio.save_set(args.out, candidate)
    print("direction=code_to_set")
    print(f"q={built.ctx.q}")
    print(f"n={built.n}")
    print(f"k={built.k}")
    print(f"h={args.h}")
    print(f"set_size={len(candidate)}")
    print(f"out={args.out}")
    return 0


def _cmd_to_code(args) -> int:
    _check_input(args.set_path)
    candidate = fileio.load_set(args.set_path, args.h)
    try:
        built = correspond.set_to_code(candidate)
    except NotShLinearError as exc:
        if exc.witness is not None:
            _print_witness(exc.witness)
        print("verdict=not_sh_linear")
        return 1
    fileio.save_matrix(args.out, built.pchk)
    print("direction=set_to_code")
    print(f"q={built.ctx.q}")
    print(f"n={built.n}")
    print(f"k={built.k}")
    print(f"d_lower={built.d_lower}")
    print(f"out={args.out}")
    return 0


def _cmd_extend(args) -> int:
    _check_input(args.set_path)
    candidate = fileio.load_set(args.set_path, args.h)
    extended = shset.extend_to_maximal(candidate)
    if args.out:  # before the report, so a failed write prints no result
        fileio.save_set(args.out, extended)
    print("direction=extend_to_maximal")
    print(f"initial_size={len(candidate)}")
    print(f"maximal_size={len(extended)}")
    if args.out:
        print(f"out={args.out}")
    return 0


def _cmd_search_max(args) -> int:
    modulus = None
    if args.poly:
        try:
            modulus = tuple(int(c) for c in args.poly.split(","))
        except ValueError:
            raise UsageError(f"--poly must be integers c0,c1,...,cm, got {args.poly!r}") from None
    ctx = field_of_order(args.q, modulus)
    size, witness = shset.exhaustive_max_sh_set(ctx, args.r, args.h, mode=args.mode)
    if witness is not None and args.out:  # before the report, as in extend
        fileio.save_set(args.out, witness)
    print(f"max={size}")
    if witness is not None and args.out:
        print(f"out={args.out}")
    elif witness is not None and args.verbose:
        for v in witness.elems:
            print(" ".join(str(c) for c in v.coords))
    return 0


def _cmd_bounds(args) -> int:
    if args.bounds_command == "ingest":
        _check_input(args.file)
        entries = bounds_mod.ingest_table(args.file)
        print(f"entries={len(entries)}")
        return 0

    entries = _load_snapshot(args.snapshot)
    if args.bounds_command == "vbar":
        if args.exact:
            if args.budget < 1:
                raise UsageError(f"--budget must be >= 1, got {args.budget}")
            result = bounds_mod.vbar_exact(entries, args.q, args.h, args.n, args.budget)
        else:
            result = bounds_mod.vbar_upper(entries, args.q, args.h, args.n)
        print(f"vbar={result.display()}")
        print(f"exact={'true' if result.exact and args.exact else 'false'}")
        if result.exact:
            print(f"bmax_log={args.n - result.value}")
        if result.note:
            print(f"note={result.note}")
        for item in result.provenance:
            print(f"provenance={item}")
        return 0

    if args.bounds_command == "table":
        if args.mode == "sh":
            text = bounds_mod.emit_sh_table(
                entries, args.q, _option_range(args, "h"), _option_range(args, "r", 1)
            )
        else:
            if args.h is None:
                raise UsageError("--mode vbar requires --h")
            text = bounds_mod.emit_vbar_series(entries, args.q, args.h, _option_range(args, "n", 1))
            values = [
                None if row.split(",")[1] == "X" else int(row.split(",")[1])
                for row in text.strip().splitlines()[1:]
            ]
            for issue in bounds_mod.series_step_violations(values):
                print(f"warning: {issue}", file=sys.stderr)
        if args.out:
            Path(args.out).write_text(text, encoding="utf-8")
            print(f"out={args.out}")
        else:
            sys.stdout.write(text)
        return 0

    raise UsageError(f"unknown bounds command {args.bounds_command!r}")


def _cmd_selftest(args) -> int:
    """Quick randomized property checks; --seed pins the generator."""
    if args.trials < 1:
        raise UsageError(f"--trials must be >= 1, got {args.trials}")
    rng = random.Random(args.seed)
    failures = []

    def check(name: str, ok: bool) -> None:
        print(f"{name}: {'pass' if ok else 'FAIL'}")
        if not ok:
            failures.append(name)

    # counting law: a set verifies iff its span size matches the formula
    ok = True
    for _ in range(args.trials):
        q = rng.choice((2, 3, 5))
        ctx = field_of_order(q)
        r = rng.randint(3, 5)
        h = rng.randint(2, 3)
        size = rng.randint(h, min(6, q ** r))
        seen = set()
        while len(seen) < size:
            seen.add(tuple(rng.randrange(q) for _ in range(r)))
        candidate = shset.ShSetCandidate.from_coords(ctx, sorted(seen), h)
        holds = shset.is_sh_linear(candidate) == (
            len(shset.h_span(candidate)) == shset.count_h_combinations(candidate)
        )
        ok = ok and holds
    check("counting_law", ok)

    # every value the combination kernel yields, and both sides of each
    # first collision, equal the per-coordinate evaluation of the terms; a
    # set may hold a and c*a, whose combinations collide inside one tuple
    ok = True
    for _ in range(args.trials):
        q = rng.choice((2, 3, 4, 5, 8, 9))
        ctx = field_of_order(q)
        r = rng.randint(2, 3)
        h = rng.randint(1, 3)
        coords = {tuple(rng.randrange(q) for _ in range(r)) for _ in range(rng.randint(h, 5))}
        a = (1,) + tuple(rng.randrange(q) for _ in range(r - 1))
        if q > 2 and rng.random() < 0.5:
            coords |= {a, tuple(ctx.mul(rng.randrange(2, q), c) for c in a)}
        candidate = shset.ShSetCandidate.from_coords(ctx, sorted(coords), min(h, len(coords)))
        ok = ok and all(
            combo.evaluate(candidate) == value
            for combo, value in shset.enumerate_h_combinations(candidate)
        )
        for witness in (shset.check_sh_linear(candidate), shset.check_sh_set(candidate)):
            ok = ok and (witness is None or (
                witness.lhs != witness.rhs
                and witness.lhs.evaluate(candidate) == witness.rhs.evaluate(candidate) == witness.value
            ))
    check("combination_oracle_agreement", ok)

    # the symmetry-pruned search returns the lexicographically first maximum
    # set, which a scan of every subset in lexicographic order also finds
    ok = True
    for q, r, h in ((2, 3, 2), (2, 3, 3), (3, 2, 2)):
        ctx = field_of_order(q)
        vectors = [decode_vector(ctx, r, c) for c in range(q ** r)]
        for mode, verify in (("linear", shset.is_sh_linear), ("plain", shset.is_sh_set)):
            first = ()
            for size in range(h, len(vectors) + 1):
                found = next(
                    (s for s in itertools.combinations(vectors, size)
                     if verify(shset.ShSetCandidate(ctx, r, s, h))),
                    None,
                )
                if found is None:
                    break
                first = found
            size, witness = shset.exhaustive_max_sh_set(ctx, r, h, mode=mode)
            ok = ok and (size, witness.elems if witness else ()) == (len(first), first)
    check("search_oracle_agreement", ok)

    # the pruned RREF code enumeration decides as a scan of every k x n
    # generator matrix does, its witness reaches the distance, and a "none"
    # counts every code; over F_5 the outer row's column scaling cuts
    ok = True
    cells = ((2, 5, 2, 3), (2, 5, 2, 4), (3, 4, 2, 3), (3, 4, 2, 4), (4, 3, 2, 2), (4, 3, 2, 3),
             (5, 4, 1, 4))
    for q, n, k, d in cells:
        ctx = field_of_order(q)

        def reaches(rows, ctx=ctx, k=k, d=d) -> bool:
            built = code_mod.from_generator(FqMatrix.from_rows(ctx, rows))
            return built.k == k and code_mod.min_distance(built) >= d

        matrices = itertools.product(itertools.product(range(q), repeat=n), repeat=k)
        cert = bounds_mod.exists_code_with_distance(q, n, k, d)
        ok = ok and cert.exists == any(reaches(rows) for rows in matrices)
        ok = ok and (not cert.exists or reaches(cert.witness_rows))
        ok = ok and (cert.exists or cert.candidates == bounds_mod.gaussian_binomial(n, k, q))
    check("certificate_oracle_agreement", ok)

    # two distance algorithms agree on random small codes over F_2, F_3 and
    # F_4 (p = 2, m = 2 packing): the codeword walk of min_distance and the
    # column walk itself, which distance_at_least skips for small q^k
    ok = True
    for ctx in (field_of_order(2), field_of_order(3), field_of_order(4)):
        for _ in range(max(3, args.trials // 5)):
            n = rng.randint(4, 8)
            k = rng.randint(1, 3)
            rows = [[rng.randrange(ctx.q) for _ in range(n)] for _ in range(k)]
            built = code_mod.from_generator(FqMatrix.from_rows(ctx, rows))
            if built.k == 0:
                continue
            d = code_mod.min_distance(built)
            lo = max(
                dd for dd in range(1, n + 2)
                if built.pchk_space.first_dependent(built.pchk_columns, dd - 1) is None
            )
            ok = ok and d == lo
    check("distance_cross_validation", ok)

    return 1 if failures else 0


_HANDLERS = {
    "verify": _cmd_verify,
    "hspan": _cmd_hspan,
    "mindist": _cmd_mindist,
    "to-set": _cmd_to_set,
    "to-code": _cmd_to_code,
    "extend": _cmd_extend,
    "search-max": _cmd_search_max,
    "bounds": _cmd_bounds,
    "selftest": _cmd_selftest,
}


def dispatch(argv: Optional[List[str]] = None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    handler = _HANDLERS[args.subcommand]
    try:
        return handler(args)
    except (ShlinearError, OSError) as exc:  # OSError: an unreadable input or unwritable output
        print(f"error: {exc}", file=sys.stderr)
        return 2


def main(argv: Optional[List[str]] = None) -> int:
    return dispatch(argv)


if __name__ == "__main__":
    sys.exit(main())
