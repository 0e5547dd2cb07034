"""Spans around every public function of cyconf, recorded from outside it.

`install(tracer)` wraps each public function of each cyconf module and
rebinds every module attribute that refers to it, so a name imported
into another module (`canonical_form` in `counting`, `iso` and `cli`,
for instance) is traced too.  `CyclicConfiguration.lines` and
`line_set` are patched on the class.  Generator functions get one span
per resumption, so `line_bijections` is timed while it is iterated,
not only when it is called.

Spans are kept in flat arrays and written out when the run ends.  A
span's self time is its duration minus the durations of its direct
children; since children nest inside their parent, the sum of all self
times is the traced wall time.
"""

from __future__ import annotations

import functools
import gzip
import importlib
import inspect
from array import array
from time import perf_counter_ns

MODULES = (
    "residue_ring",
    "baseline",
    "configuration",
    "circulant",
    "counting",
    "iso",
    "_search",
    "solving_sets",
    "cli",
)
METHODS = (("configuration", "CyclicConfiguration", ("lines", "line_set")),)


def layer_name(module: str) -> str:
    """Metric prefix of a module: its short name, without a leading underscore."""
    return module.lstrip("_")


class Tracer:
    def __init__(self) -> None:
        self.names: list[str] = []
        self._ids: dict[str, int] = {}
        self.start = array("q")
        self.end = array("q")
        self.name = array("i")
        self.parent = array("i")
        self._stack = [-1]
        self.calls: list[int] = []
        self.yields: list[int] = []
        self.extra: dict[str, int] = {}

    def name_id(self, name: str) -> int:
        if name not in self._ids:
            self._ids[name] = len(self.names)
            self.names.append(name)
            self.calls.append(0)
            self.yields.append(0)
        return self._ids[name]

    def begin(self, nid: int) -> int:
        idx = len(self.name)
        self.name.append(nid)
        self.parent.append(self._stack[-1])
        self.end.append(0)
        self._stack.append(idx)
        self.start.append(perf_counter_ns())
        return idx

    def finish(self, idx: int) -> None:
        self.end[idx] = perf_counter_ns()
        self._stack.pop()

    def count(self, key: str, n: int = 1) -> None:
        self.extra[key] = self.extra.get(key, 0) + n

    # ------------------------------------------------------------ wrapping

    def wrap(self, name: str, fn, on_result=None):
        nid = self.name_id(name)
        if inspect.isgeneratorfunction(fn):

            @functools.wraps(fn)
            def gen_wrapper(*args, **kwargs):
                self.calls[nid] += 1
                return self._iterate(nid, fn(*args, **kwargs))

            return gen_wrapper

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            self.calls[nid] += 1
            idx = self.begin(nid)
            try:
                result = fn(*args, **kwargs)
            finally:
                self.finish(idx)
            if on_result is not None:
                on_result(self, result)
            return result

        return wrapper

    def _iterate(self, nid: int, gen):
        try:
            while True:
                idx = self.begin(nid)
                try:
                    item = next(gen)
                except StopIteration:
                    return
                finally:
                    self.finish(idx)
                self.yields[nid] += 1
                yield item
        finally:
            gen.close()

    # ------------------------------------------------------------- results

    def self_times(self) -> list[int]:
        """Self time per name id in nanoseconds."""
        child = [0] * len(self.name)
        out = [0] * len(self.names)
        for i in range(len(self.name) - 1, -1, -1):
            dur = self.end[i] - self.start[i]
            out[self.name[i]] += dur - child[i]
            p = self.parent[i]
            if p >= 0:
                child[p] += dur
        return out

    def summary(self) -> dict[str, dict[str, float]]:
        selfs = self.self_times()
        return {
            name: {"calls": self.calls[i], "yields": self.yields[i], "self_s": selfs[i] / 1e9}
            for i, name in enumerate(self.names)
        }

    def write(self, path: str) -> None:
        """Spans as gzip CSV: index, parent, name, start_ns, end_ns."""
        with gzip.open(path, "wt") as fh:
            fh.write("index,parent,name,start_ns,end_ns\n")
            for i in range(len(self.name)):
                fh.write(
                    f"{i},{self.parent[i]},{self.names[self.name[i]]},{self.start[i]},{self.end[i]}\n"
                )


def _exact_hit(tracer: Tracer, result) -> None:
    tracer.count("iso.exact_isomorphic.hits", result is not None)


def _perm_count(tracer: Tracer, result) -> None:
    tracer.count("solving_sets.solving_set.perms", len(result))


ON_RESULT = {
    "iso.exact_isomorphic": _exact_hit,
    "solving_sets.solving_set": _perm_count,
}


def _is_public_function(module, attr: str, obj) -> bool:
    if attr.startswith("_"):
        return False
    is_fn = inspect.isfunction(obj) or isinstance(obj, functools._lru_cache_wrapper)
    return is_fn and getattr(obj, "__module__", None) == module.__name__


def install(tracer: Tracer) -> None:
    """Wrap every public function of cyconf and rebind every reference to it."""
    modules = {m: importlib.import_module(f"cyconf.{m}") for m in MODULES}
    wrappers = {}
    for short, mod in modules.items():
        for attr, obj in list(vars(mod).items()):
            if _is_public_function(mod, attr, obj):
                name = f"{layer_name(short)}.{attr}"
                wrappers[id(obj)] = tracer.wrap(name, obj, ON_RESULT.get(name))
    for mod in [importlib.import_module("cyconf"), *modules.values()]:
        for attr, obj in list(vars(mod).items()):
            if id(obj) in wrappers and not attr.startswith("__"):
                setattr(mod, attr, wrappers[id(obj)])
    for short, cls_name, methods in METHODS:
        cls = getattr(modules[short], cls_name)
        for meth in methods:
            setattr(cls, meth, tracer.wrap(f"{layer_name(short)}.{meth}", getattr(cls, meth)))
