"""In-memory span tracer for shlinear, installed from the benchmark.

Every public module-level function defined in one of the layer modules is
wrapped, and every name in any loaded shlinear module that is bound to such
a function is rebound to its wrapper: callers that imported a function by
name (cli imports field_of_order from gf) and calls inside a module both go
through the wrapper. Functions are found at run time, so a name that a later
version of the package removes is simply not traced.

A span records its function, its parent span, the job it belongs to, its
start and end, and its self time (duration minus the time covered by its
child spans). Spans stay in memory until the run ends.
"""

from __future__ import annotations

import functools
import inspect
import math
import os
import time
from typing import Callable, Dict, List, Optional

LAYERS = ("cli", "fileio", "gf", "linalg", "code", "shset", "correspond", "bounds")

SETUP_JOB = -1


def _combos_linear(tracer, args, kwargs, result):
    """Combinations enumerated by a verification with a positive verdict."""
    if result is not None:
        return 0
    count = tracer.original("shset.count_h_combinations")
    return count(args[0]) if count is not None else 0


def _combos_plain(tracer, args, kwargs, result):
    if result is not None:
        return 0
    candidate = args[0]
    return math.comb(len(candidate), candidate.h)


def _search_field_order(tracer, args, kwargs, result):
    ctx = args[0] if args else kwargs.get("ctx")
    return getattr(ctx, "q", 0)


def _certificate_candidates(tracer, args, kwargs, result):
    return getattr(result, "candidates", 0)


def _file_bytes(tracer, args, kwargs, result):
    """Size of the file an outermost fileio call read or wrote."""
    if tracer.parent_layer() == "fileio":
        return 0
    try:
        return os.path.getsize(args[0] if args else next(iter(kwargs.values())))
    except (OSError, TypeError, StopIteration):
        return 0


def _new_field(tracer, args, kwargs, result):
    """1 when an outermost gf call returns a field context not returned before."""
    if tracer.parent_layer() == "gf" or not hasattr(result, "q"):
        return 0
    if any(result is f for f in tracer.fields_seen):
        return 0
    tracer.fields_seen.append(result)
    return 1


OBSERVERS: Dict[str, Callable] = {
    "shset.check_sh_linear": _combos_linear,
    "shset.check_sh_set": _combos_plain,
    "shset.exhaustive_max_sh_set": _search_field_order,
    "bounds.exists_code_with_distance": _certificate_candidates,
}


class Tracer:
    def __init__(self) -> None:
        self.names: List[str] = []
        self.layers: List[str] = []
        # (name index, parent span id or -1, job id, start, end, self seconds)
        self.spans: List[Optional[tuple]] = []
        self.extra: Dict[int, int] = {}
        self.fields_seen: list = []
        self.job = SETUP_JOB
        self.recording = False
        self._stack: List[list] = []
        self._bindings: list = []
        self._originals: Dict[str, Callable] = {}

    def original(self, qualname: str) -> Optional[Callable]:
        return self._originals.get(qualname)

    def parent_layer(self) -> Optional[str]:
        """Layer of the innermost open span."""
        return self.layers[self._stack[-1][2]] if self._stack else None

    def wrap_package(self, modules: Dict[str, object]) -> None:
        """Wrap the layer functions of `modules` (a name -> module map of the
        loaded shlinear modules) and record every binding to rebind."""
        wrappers = {}
        for layer in LAYERS:
            mod = modules.get(f"shlinear.{layer}")
            if mod is None:
                continue
            for attr, obj in vars(mod).items():
                if attr.startswith("_") or not inspect.isfunction(obj):
                    continue
                if obj.__module__ != mod.__name__:
                    continue
                qualname = f"{layer}.{attr}"
                self._originals[qualname] = obj
                wrappers[obj] = self._wrap(qualname, layer, obj)
        for mod in modules.values():
            for attr, obj in vars(mod).items():
                if inspect.isfunction(obj) and obj in wrappers:
                    self._bindings.append((mod, attr, obj, wrappers[obj]))

    def install(self) -> None:
        for mod, attr, _, wrapper in self._bindings:
            setattr(mod, attr, wrapper)

    def uninstall(self) -> None:
        for mod, attr, original, _ in self._bindings:
            setattr(mod, attr, original)

    def _wrap(self, qualname: str, layer: str, fn: Callable) -> Callable:
        index = len(self.names)
        self.names.append(qualname)
        self.layers.append(layer)
        observe = OBSERVERS.get(qualname)
        if observe is None and layer == "fileio":
            observe = _file_bytes
        elif observe is None and layer == "gf":
            observe = _new_field
        spans, stack, extra = self.spans, self._stack, self.extra
        clock = time.perf_counter
        tracer = self

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            if not tracer.recording:
                return fn(*args, **kwargs)
            sid = len(spans)
            spans.append(None)
            frame = [sid, 0.0, index]
            stack.append(frame)
            start = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                end = clock()
                stack.pop()
                duration = end - start
                parent = -1
                if stack:
                    parent = stack[-1][0]
                    stack[-1][1] += duration
                spans[sid] = (index, parent, tracer.job, start, end, duration - frame[1])
            if observe is not None:
                extra[sid] = observe(tracer, args, kwargs, result)
            return result

        return wrapper

    def pass_metrics(self, lo: int, hi: int) -> Dict[str, float]:
        """Per-layer metrics over spans [lo, hi), recorded during job passes."""
        self_s = {layer: 0.0 for layer in LAYERS}
        calls = {layer: 0 for layer in LAYERS}
        m = {
            "shset.search_q2_s": 0.0, "shset.search_qgt2_s": 0.0, "shset.search_calls": 0,
            "shset.verify_s": 0.0, "shset.verify_calls": 0, "shset.combos": 0,
            "shset.extend_s": 0.0, "shset.extend_calls": 0,
            "bounds.candidates": 0, "fileio.bytes": 0,
        }
        positive_verify_s = 0.0
        certify_s = 0.0
        for sid in range(lo, hi):
            index, _, _, start, end, self_time = self.spans[sid]
            name, layer = self.names[index], self.layers[index]
            self_s[layer] += self_time
            calls[layer] += 1
            duration = end - start
            if name == "shset.exhaustive_max_sh_set":
                key = "shset.search_q2_s" if self.extra.get(sid) == 2 else "shset.search_qgt2_s"
                m[key] += duration
                m["shset.search_calls"] += 1
            elif name in ("shset.check_sh_linear", "shset.check_sh_set"):
                m["shset.verify_s"] += duration
                m["shset.verify_calls"] += 1
                combos = self.extra.get(sid, 0)
                if combos:
                    m["shset.combos"] += combos
                    positive_verify_s += duration
            elif name == "shset.extend_to_maximal":
                m["shset.extend_s"] += duration
                m["shset.extend_calls"] += 1
            elif name == "bounds.exists_code_with_distance":
                m["bounds.candidates"] += self.extra.get(sid, 0)
                certify_s += duration
            elif layer == "fileio":
                m["fileio.bytes"] += self.extra.get(sid, 0)
        for layer in LAYERS:
            m[f"{layer}.self_s"] = self_s[layer]
            m[f"{layer}.calls"] = calls[layer]
        m["shset.combos_per_s"] = _rate(m["shset.combos"], positive_verify_s)
        m["bounds.candidates_per_s"] = _rate(m["bounds.candidates"], certify_s)
        m["linalg.calls_per_s"] = _rate(calls["linalg"], self_s["linalg"])
        return m

    def setup_metrics(self, lo: int, hi: int) -> Dict[str, float]:
        """Field-table builds among spans [lo, hi): outermost gf calls that
        returned a field context not seen before."""
        build_s, built = 0.0, 0
        for sid in range(lo, hi):
            index, _, _, start, end, _ = self.spans[sid]
            if self.layers[index] == "gf" and self.extra.get(sid):
                build_s += end - start
                built += 1
        return {"gf.build_s": build_s, "gf.fields_built": built}

    def truncate(self, end: int) -> None:
        """Forget spans from id `end` on."""
        del self.spans[end:]
        for sid in [sid for sid in self.extra if sid >= end]:
            del self.extra[sid]

    def dump(self) -> dict:
        """The kept spans as JSON-ready rows."""
        rows = [
            [sid, self.names[index], parent, job, start, end, self_time]
            for sid, (index, parent, job, start, end, self_time) in enumerate(self.spans)
        ]
        return {"columns": ["id", "name", "parent", "job", "start", "end", "self"], "spans": rows}


def _rate(count: float, seconds: float) -> float:
    return count / seconds if seconds > 0 else 0.0
