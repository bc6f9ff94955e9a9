"""Job lists of the three benchmark workloads, with the check of each answer.

A job is one `shlinear` command line. Its check gets the exit code and the
captured output and returns None when the answer is right, or the reason it
is not. Checks run outside the timed call.

search   exact maximum-set searches, the exponential part of the package.
certify  exact redundancies by enumerating every [n, k] code, and minimum
         distances of the shipped parity-check fixtures.
query    a seeded stream of short interactive queries on generated inputs
         whose verdicts are known by construction.
"""

from __future__ import annotations

import re
from dataclasses import dataclass
from pathlib import Path
from typing import Callable, List, Optional, Sequence, Tuple

Coords = Tuple[int, ...]


@dataclass
class Outcome:
    rc: Optional[int]  # exit code; None when the call did not return
    stdout: str
    stderr: str
    error: str = ""  # escaped exception or timeout


@dataclass
class Job:
    name: str
    argv: List[str]
    check: Callable[[Outcome], Optional[str]]
    out: Optional[Path] = None  # output file the command writes, if any


def _values(stdout: str) -> dict:
    """First value of each `key=value` line."""
    found = {}
    for line in stdout.splitlines():
        key, sep, value = line.partition("=")
        if sep and key not in found:
            found[key] = value
    return found


def _expect_rc(outcome: Outcome, rc: int) -> Optional[str]:
    if outcome.rc != rc:
        return f"exit code {outcome.rc}, expected {rc}"
    return None


def _expect_usage_error(outcome: Outcome) -> Optional[str]:
    why = _expect_rc(outcome, 2)
    if why is None and not outcome.stderr.strip():
        why = "exit code 2 without a message on stderr"
    return why


# ---------------------------------------------------------------------------
# search
# ---------------------------------------------------------------------------

SEARCH_CASES = (
    # (q, r, h, extra flags, pinned maximum)
    (2, 5, 2, (), 7),  # the known maximum size of a binary Sidon set in F_2^5
    (2, 5, 3, (), 6),
    (2, 5, 2, ("--contains-zero",), 7),
    (4, 3, 2, (), 4),
    (3, 3, 2, ("--mode", "plain"), 6),
    (3, 3, 2, (), 4),
)


def search_jobs(lib, rng, workdir: Path) -> List[Job]:
    jobs = []
    for i, (q, r, h, flags, best) in enumerate(SEARCH_CASES):
        out = workdir / f"search{i}.set"
        argv = ["search-max", "--q", str(q), "--r", str(r), "--h", str(h), *flags, "--out", str(out)]
        plain = "plain" in flags
        zero = "--contains-zero" in flags

        def check(o, q=q, r=r, h=h, best=best, plain=plain, zero=zero, out=out):
            why = _expect_rc(o, 0)
            if why:
                return why
            if _values(o.stdout).get("max") != str(best):
                return f"expected max={best}"
            witness = lib.fileio.load_set(out, h)
            if (witness.ctx.q, witness.r, len(witness)) != (q, r, best):
                return f"witness is not a {best}-element set in F_{q}^{r}"
            verify = lib.shset.check_sh_set if plain else lib.shset.check_sh_linear
            if verify(witness) is not None:
                return "witness has a collision"
            if zero and not witness.contains_zero():
                return "witness lacks the zero vector"
            return None

        jobs.append(Job(" ".join(argv[:-2]), argv, check, out))
    rng.shuffle(jobs)
    return jobs


# ---------------------------------------------------------------------------
# certify
# ---------------------------------------------------------------------------

VBAR_CASES = (
    # (q, h, n, --budget or None, pinned vbar); each value meets the Griesmer bound
    (3, 2, 7, 1_000_000, 5),  # enumerates 925,771 ternary [7,3] codes
    (2, 3, 9, 1_000_000, 8),  # enumerates 788,035 binary [9,3] codes
    (4, 2, 6, None, 5),
    (2, 2, 8, None, 6),
)

MINDIST_CASES = (  # (shipped parity-check fixture, pinned minimum distance)
    ("parity_f5_8x12.mat", 7),
    ("parity_f2_8x14.mat", 5),
    ("parity_f2_8x8.mat", 5),
)

_CERTIFICATE = re.compile(
    r"provenance=exhaustive\[(\d+),(\d+)\]q(\d+) d>=(\d+): (exists|none) \((\d+) candidates\)"
)


def _check_vbar(lib, o: Outcome, q: int, n: int, vbar: int) -> Optional[str]:
    why = _expect_rc(o, 0)
    if why:
        return why
    values = _values(o.stdout)
    if values.get("vbar") != str(vbar) or values.get("exact") != "true":
        return f"expected vbar={vbar} exact=true"
    if values.get("bmax_log") != str(n - vbar):
        return f"expected bmax_log={n - vbar}"
    for m in _CERTIFICATE.finditer(o.stdout):
        cn, ck, cq, _, verdict, candidates = m.groups()
        if verdict == "none":
            total = lib.bounds.gaussian_binomial(int(cn), int(ck), int(cq))
            if int(candidates) != total:
                return f"certificate [{cn},{ck}] checked {candidates} of {total} codes"
    return None


def _dependent_columns(lib, path: Path, stdout: str, d: int) -> Optional[str]:
    """The reported columns must be linearly dependent and at most d of them."""
    listed = _values(stdout).get("dependent_columns", "")
    try:
        cols = [int(c) - 1 for c in listed.split(",")]
    except ValueError:
        return "no dependent_columns line"
    matrix = lib.fileio.load_matrix(path)
    if not 0 < len(cols) <= d or lib.linalg.is_linearly_independent([matrix.column(j) for j in cols]):
        return f"columns {listed} are not a dependent set of at most {d}"
    return None


def _mindist_jobs(lib, name: str, path: Path, d: int, plain: bool = True) -> List[Job]:
    jobs = []
    if plain:
        def exact(o, d=d):
            return _expect_rc(o, 0) or (None if _values(o.stdout).get("d") == str(d) else f"expected d={d}")
        jobs.append(Job(f"mindist {name}", ["mindist", "--matrix", str(path)], exact))

    def at_least(o, d=d):
        why = _expect_rc(o, 0)
        return why or (None if f"d>={d}: true" in o.stdout else f"expected d>={d}: true")

    def not_at_least(o, d=d):
        why = _expect_rc(o, 1)
        if why or f"d>={d + 1}: false" not in o.stdout:
            return why or f"expected d>={d + 1}: false"
        return _dependent_columns(lib, path, o.stdout, d)

    argv = ["mindist", "--matrix", str(path), "--at-least"]
    jobs.append(Job(f"mindist {name} --at-least {d}", argv + [str(d)], at_least))
    jobs.append(Job(f"mindist {name} --at-least {d + 1}", argv + [str(d + 1)], not_at_least))
    return jobs


def certify_jobs(lib, rng, workdir: Path) -> List[Job]:
    jobs = []
    for q, h, n, budget, vbar in VBAR_CASES:
        argv = ["bounds", "vbar", "--exact", "--q", str(q), "--h", str(h), "--n", str(n)]
        if budget is not None:
            argv += ["--budget", str(budget)]
        check = lambda o, q=q, n=n, vbar=vbar: _check_vbar(lib, o, q, n, vbar)
        jobs.append(Job(" ".join(argv), argv, check))
    for name, d in MINDIST_CASES:
        jobs += _mindist_jobs(lib, name, lib.fixtures.fixture_path(name), d)
    rng.shuffle(jobs)
    return jobs


# ---------------------------------------------------------------------------
# query: inputs
# ---------------------------------------------------------------------------

@dataclass
class SetSource:
    """A vector set with a known verdict: S_h-linear when `linear`, else an
    S_h-set (all coefficients 1) that is not S_h-linear."""

    name: str
    ctx: object
    r: int
    elems: List[Coords]
    h: int
    linear: bool


@dataclass
class CodeSource:
    name: str
    ctx: object
    rows: List[Coords]  # parity-check matrix
    d: int  # minimum distance


FIXTURE_SETS = (  # (shipped set file, h, S_h-linear)
    ("set_f2_r10_s3.set", 3, True),
    ("set_f3_r3_with_zero.set", 2, True),
    ("set_f3_r9_s3.set", 2, True),
    ("set_f3_r9_s3.set", 3, False),
    ("set_f3_r5_sidon_not_linear.set", 2, False),
    ("set_f5_r12_s3.set", 3, True),
)

EXTENSION_FIELDS = (4, 8, 9)  # doubly extended Reed-Solomon [q+1, q-3, 5] codes


def _reed_solomon_check(ctx) -> List[Coords]:
    """Parity check of the doubly extended Reed-Solomon code over F_q with
    redundancy 4: columns (1, t, t^2, t^3) for every t, plus (0, 0, 0, 1).
    Any four columns are independent, so d = 5."""
    cols = [tuple(ctx.pow(t, e) for e in range(4)) for t in range(ctx.q)]
    cols.append((0, 0, 0, 1))
    return [tuple(col[i] for col in cols) for i in range(4)]


def query_sources(lib) -> Tuple[List[SetSource], List[CodeSource]]:
    """Set sources: shipped S_h fixtures and code_to_set outputs of the code
    sources. Code sources: shipped parity checks and Reed-Solomon codes over
    extension fields."""
    sets = []
    for name, h, linear in FIXTURE_SETS:
        ctx, r, vectors = lib.fileio.load_vectors(lib.fixtures.fixture_path(name))
        sets.append(SetSource(f"{name}/h={h}", ctx, r, [v.coords for v in vectors], h, linear))
    codes = []
    for name, d in MINDIST_CASES:
        matrix = lib.fileio.load_matrix(lib.fixtures.fixture_path(name))
        codes.append(CodeSource(name, matrix.ctx, [tuple(row) for row in matrix.entries], d))
    for q in EXTENSION_FIELDS:
        ctx = lib.gf.field_of_order(q)
        codes.append(CodeSource(f"reed_solomon_f{q}", ctx, _reed_solomon_check(ctx), 5))
    for src in codes:
        h = (src.d - 1) // 2
        built = lib.code.from_parity_check(lib.linalg.FqMatrix.from_rows(src.ctx, src.rows))
        ok, _ = lib.code.distance_at_least(built, 2 * h + 1)
        if not ok:
            raise RuntimeError(f"{src.name}: distance below {2 * h + 1}")
        candidate = lib.correspond.code_to_set(built, h)
        elems = [v.coords for v in candidate.elems]
        sets.append(SetSource(f"code_to_set({src.name})/h={h}", src.ctx, candidate.r, elems, h, True))
    return sets, codes


def _dot(ctx, u: Coords, v: Coords) -> int:
    acc = 0
    for a, b in zip(u, v):
        acc = ctx.add(acc, ctx.mul(a, b))
    return acc


def _combine(ctx, terms: Sequence[Tuple[int, Coords]], r: int) -> Coords:
    acc = [0] * r
    for coeff, vec in terms:
        for j in range(r):
            acc[j] = ctx.add(acc[j], ctx.mul(coeff, vec[j]))
    return tuple(acc)


def _invertible(lib, rng, ctx, r: int) -> List[Coords]:
    while True:
        rows = [tuple(rng.randrange(ctx.q) for _ in range(r)) for _ in range(r)]
        if lib.linalg.rank(lib.linalg.FqMatrix.from_rows(ctx, rows)) == r:
            return rows


def _image(lib, rng, src: SetSource, scale: bool) -> List[Coords]:
    """The set under a random invertible map, each element optionally scaled
    by its own nonzero scalar, in random order. Both keep the verdict (the
    scaling only for S_h-linear sets)."""
    ctx, r = src.ctx, src.r
    m = _invertible(lib, rng, ctx, r)
    out = []
    for v in src.elems:
        w = tuple(_dot(ctx, row, v) for row in m)
        if scale:
            w = _combine(ctx, [(rng.randrange(1, ctx.q), w)], r)
        out.append(w)
    rng.shuffle(out)
    return out


def _plant_collision(rng, ctx, elems: List[Coords], h: int, plain: bool) -> List[Coords]:
    """Add x = sum(l_i a_i) - sum(m_j b_j) over h + (h-1) distinct elements,
    so that x + sum(m_j b_j) = sum(l_i a_i) is a collision of two h-combinations
    (all coefficients 1 when plain)."""
    r = len(elems[0])
    for _ in range(1000):
        picked = rng.sample(elems, 2 * h - 1)
        coeff = (lambda: 1) if plain else (lambda: rng.randrange(1, ctx.q))
        terms = [(coeff(), a) for a in picked[:h]]
        terms += [(ctx.neg(coeff()), b) for b in picked[h:]]
        x = _combine(ctx, terms, r)
        if any(x) and x not in elems:
            out = list(elems)
            out.insert(rng.randrange(len(out) + 1), x)
            return out
    raise RuntimeError("no element to plant")


def _write_set(path: Path, q: int, elems: Sequence[Coords]) -> None:
    lines = [f"q={q} r={len(elems[0])}"] + [" ".join(map(str, v)) for v in elems]
    path.write_text("\n".join(lines) + "\n", encoding="utf-8")


def _write_matrix(path: Path, q: int, rows: Sequence[Coords]) -> None:
    lines = [f"q={q} rows={len(rows)} cols={len(rows[0])}"] + [" ".join(map(str, r)) for r in rows]
    path.write_text("\n".join(lines) + "\n", encoding="utf-8")


def _code_image(lib, rng, src: CodeSource) -> List[Coords]:
    """An equivalent parity check: random invertible row map, then a random
    column permutation and nonzero column scaling. The distance is kept."""
    ctx = src.ctx
    rows = [_combine(ctx, list(zip(m, src.rows)), len(src.rows[0]))
            for m in _invertible(lib, rng, ctx, len(src.rows))]
    n = len(rows[0])
    perm = rng.sample(range(n), n)
    scale = [rng.randrange(1, ctx.q) for _ in range(n)]
    return [tuple(ctx.mul(scale[j], row[perm[j]]) for j in range(n)) for row in rows]


# ---------------------------------------------------------------------------
# query: checks
# ---------------------------------------------------------------------------

_TERM = re.compile(r"(\d+)\*a(\d+)")


def _check_witness(ctx, elems: List[Coords], stdout: str, plain: bool) -> Optional[str]:
    """Both printed combinations must be distinct, use valid elements and
    coefficients, and evaluate to the printed value."""
    lines = [ln for ln in stdout.splitlines() if "=" in ln and "*a" in ln]
    if len(lines) != 2:
        return "expected two collision lines"
    combos = []
    for line in lines:
        lhs, _, value = line.partition(" = ")
        terms = [(int(c), int(i) - 1) for c, i in _TERM.findall(lhs)]
        if not terms or any(not 0 <= i < len(elems) or not 0 < c < ctx.q for c, i in terms):
            return f"malformed combination {line!r}"
        if plain and any(c != 1 for c, _ in terms):
            return f"plain combination with a coefficient other than 1: {line!r}"
        got = _combine(ctx, [(c, elems[i]) for c, i in terms], len(elems[0]))
        if got != tuple(int(t) for t in value.split()):
            return f"{line!r} does not evaluate to its value"
        combos.append(sorted(terms, key=lambda t: t[1]))
    if combos[0] == combos[1]:
        return "the two combinations are the same"
    return None


def _check_verify(ctx, elems, plain: bool, holds: bool):
    def check(o: Outcome) -> Optional[str]:
        if holds:
            return _expect_rc(o, 0) or (None if o.stdout.strip() == "OK" else "expected OK")
        return _expect_rc(o, 1) or _check_witness(ctx, elems, o.stdout, plain)
    return check


def _check_hspan(lib, path: Path, h: int, out: Path):
    def check(o: Outcome) -> Optional[str]:
        why = _expect_rc(o, 0)
        if why:
            return why
        expected = lib.shset.count_h_combinations(lib.fileio.load_set(path, h))
        if _values(o.stdout).get("count") != str(expected):
            return f"expected count={expected}"
        _, _, values = lib.fileio.load_vectors(out)
        if len(set(values)) != expected:
            return f"{out.name} holds {len(set(values))} distinct values, expected {expected}"
        return None
    return check


def _check_to_code(lib, ctx, elems: List[Coords], h: int, out: Path):
    def check(o: Outcome) -> Optional[str]:
        why = _expect_rc(o, 0)
        if why:
            return why
        values = _values(o.stdout)
        nonzero = sorted(
            (lib.linalg.FqVector(ctx, v) for v in elems if any(v)), key=lambda v: v.encode()
        )
        n, r = len(nonzero), len(elems[0])
        pchk = lib.fileio.load_matrix(out)
        k = n - pchk.rows
        if (values.get("n"), values.get("k")) != (str(n), str(k)) or pchk.cols != n:
            return f"expected n={n} k={k}"
        if not max(n - r, 0) <= k <= n - 2 * h:
            return f"dimension k={k} outside [{max(n - r, 0)}, {n - 2 * h}]"
        if k > 0 and int(values.get("d_lower", 0)) < 2 * h + 1:  # k = 0: no nonzero codeword
            return f"d_lower below {2 * h + 1}"
        columns = lib.linalg.FqMatrix.from_columns(nonzero)
        stacked = lib.linalg.FqMatrix.from_rows(ctx, list(columns.entries) + list(pchk.entries))
        if not lib.linalg.rank(columns) == lib.linalg.rank(stacked) == pchk.rows:
            return "parity check does not span the row space of the set's columns"
        return None
    return check


def _check_to_set(lib, n: int, h: int, out: Path):
    def check(o: Outcome) -> Optional[str]:
        why = _expect_rc(o, 0)
        if why:
            return why
        values = _values(o.stdout)
        built = lib.fileio.load_set(out, h)
        if values.get("set_size") != str(n + 1) or len(built) != n + 1 or not built.contains_zero():
            return f"expected a set of {n + 1} elements with zero"
        if built.r != n - int(values.get("k", -1)):
            return "set dimension is not the redundancy"
        if lib.shset.check_sh_linear(built) is not None:
            return "output set is not S_h-linear"
        return None
    return check


def _check_to_set_refused(lib, path: Path, d: int, h: int):
    def check(o: Outcome) -> Optional[str]:
        why = _expect_rc(o, 1)
        if why or f"d>={2 * h + 1}: false" not in o.stdout:
            return why or f"expected d>={2 * h + 1}: false"
        return _dependent_columns(lib, path, o.stdout, d)
    return check


def _check_extend(lib, elems: List[Coords], h: int, out: Path):
    def check(o: Outcome) -> Optional[str]:
        why = _expect_rc(o, 0)
        if why:
            return why
        values = _values(o.stdout)
        grown = lib.fileio.load_set(out, h)
        if [v.coords for v in grown.elems[: len(elems)]] != list(elems):
            return "extension does not start with the input set"
        if values.get("maximal_size") != str(len(grown)) or values.get("initial_size") != str(len(elems)):
            return "reported sizes do not match the output"
        if lib.shset.check_sh_linear(grown) is not None:
            return "extension is not S_h-linear"
        return None
    return check


# ---------------------------------------------------------------------------
# query: the stream
# ---------------------------------------------------------------------------

EXTEND_SPACE_CAP = 1024  # extend scans all of F_q^r; keep it interactive
MINDIST_CODEWORD_CAP = 4096  # plain mindist enumerates all q^k codewords

MALFORMED = (  # (what is wrong, input file content or None, subcommand and options)
    ("missing input file", None, ["verify", "--h", "2"]),
    ("header without r", "q=3\n1 0 0\n", ["verify", "--h", "2"]),
    ("element code out of range", "q=3 r=3\n0 1 5\n1 1 0\n", ["hspan", "--h", "2", "--out"]),
    ("short vector", "q=5 r=3\n0 1 4\n1 1\n", ["extend", "--h", "2"]),
    ("h above the set size", "q=2 r=3\n1 0 0\n0 1 0\n", ["verify", "--h", "3"]),
    ("matrix row missing", "q=2 rows=3 cols=3\n1 0 0\n0 1 0\n", ["mindist"]),
    ("redundancy below 2h", "q=3 r=3\n0 0 0\n1 1 0\n0 1 0\n", ["to-code", "--h", "2", "--out"]),
    ("h is not an integer", "q=2 r=3\n1 0 0\n", ["verify", "--h", "two"]),
)


def _malformed(workdir: Path, i: int, what: str, content: Optional[str], command_line) -> Job:
    command, *options = command_line
    path = workdir / f"q{i}.bad"
    if content is not None:
        path.write_text(content, encoding="utf-8")
    if options[-1:] == ["--out"]:
        options.append(str(workdir / f"q{i}.out"))
    argv = [command, "--matrix" if command == "mindist" else "--set", str(path), *options]
    return Job(f"q{i} {command} malformed: {what}", argv, _expect_usage_error)


def _set_query(lib, rng, workdir: Path, i: int, src: SetSource, kind: str, collide: bool) -> Job:
    """A query on an image of `src`. S_h-linear sources of more than 2h
    elements lose one random nonzero element; a source with a collision is
    kept whole, because a subset of it may have none. `collide` plants a
    collision."""
    ctx, h = src.ctx, src.h
    path, out = workdir / f"q{i}.in", workdir / f"q{i}.out"
    plain = kind == "verify-plain"
    elems = _image(lib, rng, src, scale=src.linear)
    if src.linear and len(elems) > 2 * h:
        elems.remove(rng.choice([v for v in elems if any(v)]))
    holds = src.linear or plain
    if collide:
        elems = _plant_collision(rng, ctx, elems, h, plain)
        holds = False
    _write_set(path, ctx.q, elems)
    label = f"q{i} {kind} {src.name} size={len(elems)} {'holds' if holds else 'collides'}"
    args = ["--set", str(path), "--h", str(h)]
    if kind.startswith("verify"):
        argv = ["verify", *args, "--mode", "plain" if plain else "linear"]
        return Job(label, argv, _check_verify(ctx, elems, plain, holds))
    if kind == "hspan":
        return Job(label, ["hspan", *args, "--out", str(out)], _check_hspan(lib, path, h, out), out)
    if kind == "to-code":
        argv = ["to-code", *args, "--out", str(out)]
        if holds:
            return Job(label, argv, _check_to_code(lib, ctx, elems, h, out), out)
        return Job(label, argv, lambda o: _expect_rc(o, 1) or (
            None if "verdict=not_sh_linear" in o.stdout else "expected verdict=not_sh_linear"))
    argv = ["extend", *args, "--out", str(out)]
    if holds:
        return Job(label, argv, _check_extend(lib, elems, h, out), out)
    return Job(label, argv, _expect_usage_error, out)  # a set that collides cannot be extended


def _code_queries(lib, rng, workdir: Path, i: int, src: CodeSource) -> List[Job]:
    """to-set for h = 1, 2, 3 and the mindist jobs, each on its own
    equivalent image of the code."""
    jobs = []
    for h in (1, 2, 3, None):
        n = i + len(jobs)
        path, out = workdir / f"q{n}.in", workdir / f"q{n}.out"
        rows = _code_image(lib, rng, src)
        _write_matrix(path, src.ctx.q, rows)
        if h is None:
            k = len(rows[0]) - lib.linalg.rank(lib.linalg.FqMatrix.from_rows(src.ctx, rows))
            plain = src.ctx.q ** k <= MINDIST_CODEWORD_CAP
            return jobs + _mindist_jobs(lib, f"q{n} {src.name}", path, src.d, plain)
        argv = ["to-set", "--matrix", str(path), "--h", str(h), "--out", str(out)]
        if 2 * h + 1 <= src.d:
            check = _check_to_set(lib, len(rows[0]), h, out)
        else:
            check = _check_to_set_refused(lib, path, src.d, h)
        jobs.append(Job(f"q{n} {src.name} to-set h={h}", argv, check, out))


def query_jobs(lib, rng, workdir: Path) -> List[Job]:
    """The stream's make-up is fixed, so its cost hardly depends on the seed;
    the seed draws the maps, scalings, dropped and planted elements and the
    order of the queries."""
    sets, codes = query_sources(lib)
    jobs: List[Job] = []
    for src in sets:
        plan = [("verify", False), ("verify", True), ("verify-plain", False), ("verify-plain", True)]
        if src.linear:
            plan.append(("hspan", False))
            if src.r >= 2 * src.h and (src.ctx.q > 2 or (0,) * src.r in src.elems):
                plan += [("to-code", False), ("to-code", True)]
            if src.ctx.q ** src.r <= EXTEND_SPACE_CAP:
                plan += [("extend", False), ("extend", True)]
        for kind, collide in plan:
            jobs.append(_set_query(lib, rng, workdir, len(jobs), src, kind, collide))
    for src in codes:
        jobs += _code_queries(lib, rng, workdir, len(jobs), src)
    for what, content, command_line in MALFORMED:
        jobs.append(_malformed(workdir, len(jobs), what, content, command_line))
    rng.shuffle(jobs)
    return jobs


# ---------------------------------------------------------------------------
# known defects
# ---------------------------------------------------------------------------

def defect_probes(workdir: Path) -> List[Job]:
    """Bad input that should exit with code 2 but escapes as ValueError on the
    seed version. Reported, not counted: see README.md."""
    dup = workdir / "duplicate.set"
    dup.write_text("q=3 r=2\n1 0\n1 0\n", encoding="utf-8")
    cases = (
        ("search-max --h 0", ["search-max", "--q", "2", "--r", "3", "--h", "0"]),
        ("bounds vbar --q 2 --h 3 --n 5", ["bounds", "vbar", "--q", "2", "--h", "3", "--n", "5"]),
        ("verify on a set with a repeated vector", ["verify", "--set", str(dup), "--h", "1"]),
    )
    return [Job(name, argv, _expect_usage_error) for name, argv in cases]


WORKLOADS = {
    # name -> (job list builder, field orders whose tables set-up builds)
    "search": (search_jobs, (2, 3, 4)),
    "certify": (certify_jobs, (2, 3, 4, 5)),
    "query": (query_jobs, (2, 3, 4, 5, 8, 9)),
}
