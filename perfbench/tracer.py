"""In-memory span tracer that wraps the public functions of the rootsums modules.

The tracer lives entirely in the benchmark: it rebinds module attributes of
the package under test and puts every binding back on ``restore``.  Each
wrapped call records one span (name, parent span, start, end) in flat arrays;
self times and per-function aggregates are computed once, at the end.

Rules the wrapping follows:

* A function is rebound in every rootsums module that bound the same object,
  e.g. through ``from .expsums import sqrt_phase_table``.  Lookups made at call
  time (function-local imports, module globals) therefore all see the wrapper.
* A wrapper delegates to the original object, so ``lru_cache`` keeps working;
  ``cache_info`` and ``cache_clear`` are forwarded.
* Functions named in ``COUNT_ONLY`` are too hot for spans and only count calls.
* Some calls also feed exact work counters computed from their arguments
  (``WORK_COUNTERS``); these repeat exactly from run to run.
* The tracer keeps one span stack, so it assumes the Python callers run on
  one thread (``rootsums`` does unless ``--threads`` is passed).
"""

from __future__ import annotations

import functools
import importlib
import inspect
import json
import pkgutil
import time
from array import array

PACKAGE = "rootsums"

# Scalar functions called millions of times per workload; a span each would
# dominate the traced run, so they get a call counter and nothing else.
COUNT_ONLY = frozenset({"modular.kronecker"})

# Private functions that are worth a span of their own (the profile's hot spot
# of the large-cell bilinear regime).
EXTRA_FUNCTIONS = ("bilinear._index_matrix",)

# Classmethods worth a span: (module, class, method).
CLASSMETHODS = (("weights", "WeightVector", "make"),)

# In the CLI only the entry point is wrapped: the subcommand bodies (argument
# handling, CSV formatting and writing) are the cli layer's own work.
ONLY = {"cli": ("main",)}

# Bytes per kernel entry of a bilinear cell: the int64 index matrix plus the
# complex128 gather from the phase table.
KERNEL_ENTRY_BYTES = 8 + 16


def _kernel_counts(inst):
    entries = inst.alpha.start * inst.beta.start
    return {"bilinear.kernel_entries": entries, "bilinear.kernel_bytes": KERNEL_ENTRY_BYTES * entries}


# Real floating-point operations of the all-pairs matmuls, at 8 per complex
# multiply-add: gauss_all is (q-1) x q times q x q, salie_all (q-1)^3.
WORK_METRICS = ("bilinear.kernel_entries", "bilinear.kernel_bytes", "expsums.matmul_flops")
WORK_COUNTERS = {
    "bilinear.bilinear_weyl_sum": _kernel_counts,
    "expsums.gauss_all": lambda q: {"expsums.matmul_flops": 8 * (q - 1) * q * q},
    "expsums.salie_all": lambda q: {"expsums.matmul_flops": 8 * (q - 1) ** 3},
}


def package_modules() -> dict:
    """Short name -> module for every submodule of the package, imported."""
    pkg = importlib.import_module(PACKAGE)
    mods = {}
    for info in pkgutil.iter_modules(pkg.__path__):
        mods[info.name] = importlib.import_module(f"{PACKAGE}.{info.name}")
    return mods


def lru_caches(modules: dict) -> dict:
    """'module.function' -> cached function, for every lru_cache in the package."""
    found = {}
    for short, mod in modules.items():
        for name, obj in vars(mod).items():
            if hasattr(obj, "cache_info") and getattr(obj, "__module__", None) == mod.__name__:
                found[f"{short}.{name}"] = obj
    return found


def cache_counters(caches: dict) -> dict:
    out = {}
    for name, fn in sorted(caches.items()):
        info = fn.cache_info()
        out[name] = {"hits": info.hits, "misses": info.misses, "currsize": info.currsize, "maxsize": info.maxsize}
    return out


def traced_functions(modules: dict) -> list[tuple[str, str]]:
    """(module, attribute) pairs of every function the tracer wraps."""
    targets = []
    for short, mod in sorted(modules.items()):
        names = ONLY.get(short)
        for name, obj in sorted(vars(mod).items()):
            if names is not None:
                if name not in names:
                    continue
            elif name.startswith("_") and f"{short}.{name}" not in EXTRA_FUNCTIONS:
                continue
            if not callable(obj) or inspect.isclass(obj) or getattr(obj, "__module__", None) != mod.__name__:
                continue
            # a wrapper around a generator function would time only its creation
            if inspect.isgeneratorfunction(inspect.unwrap(obj)):
                continue
            targets.append((short, name))
    return targets


def self_times(parents, starts, ends) -> list[float]:
    """Self time of every span: its duration minus the part of its interval
    covered by its children's spans (clipped to it, overlaps counted once).

    ``parents[i]`` is the index of span i's parent, or -1 for a root.
    """
    children: dict[int, list[int]] = {}
    for i, p in enumerate(parents):
        if p >= 0:
            children.setdefault(p, []).append(i)
    out = [ends[i] - starts[i] for i in range(len(starts))]
    for p, kids in children.items():
        lo, hi = starts[p], ends[p]
        covered = 0.0
        cur_start = cur_end = None
        for k in sorted(kids, key=lambda k: starts[k]):
            s, e = max(starts[k], lo), min(ends[k], hi)
            if e <= s:
                continue
            if cur_end is None or s > cur_end:
                if cur_end is not None:
                    covered += cur_end - cur_start
                cur_start, cur_end = s, e
            else:
                cur_end = max(cur_end, e)
        if cur_end is not None:
            covered += cur_end - cur_start
        out[p] -= covered
    return out


class Tracer:
    """Wraps the package's functions; use as a context manager or call
    ``install``/``restore`` yourself.  Spans stay in memory until ``report``."""

    def __init__(self, modules: dict | None = None):
        self.modules = modules if modules is not None else package_modules()
        self.names: list[str] = []
        self.span_name = array("i")
        self.span_parent = array("i")
        self.span_start = array("d")
        self.span_end = array("d")
        self.stack: list[int] = []
        self.calls: dict[str, int] = {}
        self.work: dict[str, int] = {}
        self._saved: list[tuple[object, str, object]] = []

    # -- wrapping ------------------------------------------------------------

    def _span_wrapper(self, qualname: str, fn):
        name_id = len(self.names)
        self.names.append(qualname)
        counter = WORK_COUNTERS.get(qualname)
        clock = time.perf_counter
        stack = self.stack
        span_name, span_parent = self.span_name, self.span_parent
        span_start, span_end = self.span_start, self.span_end
        work = self.work

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            if counter is not None:
                for key, value in counter(*args, **kwargs).items():
                    work[key] = work.get(key, 0) + value
            idx = len(span_start)
            span_name.append(name_id)
            span_parent.append(stack[-1] if stack else -1)
            span_end.append(0.0)
            stack.append(idx)
            span_start.append(clock())
            try:
                return fn(*args, **kwargs)
            finally:
                span_end[idx] = clock()
                stack.pop()

        return wrapper

    def _count_wrapper(self, qualname: str, fn):
        calls = self.calls
        calls[qualname] = 0

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            calls[qualname] += 1
            return fn(*args, **kwargs)

        return wrapper

    def _wrap(self, qualname: str, fn):
        maker = self._count_wrapper if qualname in COUNT_ONLY else self._span_wrapper
        wrapper = maker(qualname, fn)
        for attr in ("cache_info", "cache_clear"):
            if hasattr(fn, attr):
                setattr(wrapper, attr, getattr(fn, attr))
        return wrapper

    def _rebind(self, owner, attr: str, value) -> None:
        self._saved.append((owner, attr, owner.__dict__[attr]))
        setattr(owner, attr, value)

    def install(self) -> "Tracer":
        if self._saved:
            raise RuntimeError("tracer already installed")
        try:
            self._install()
        except BaseException:
            self.restore()
            raise
        return self

    def _install(self) -> None:
        everywhere = [importlib.import_module(PACKAGE), *self.modules.values()]
        replaced = {}
        for short, name in traced_functions(self.modules):
            original = getattr(self.modules[short], name)
            wrapper = self._wrap(f"{short}.{name}", original)
            replaced[id(original)] = wrapper
            for mod in everywhere:
                for attr, value in list(vars(mod).items()):
                    if value is original:
                        self._rebind(mod, attr, wrapper)
        for short, cls_name, meth in CLASSMETHODS:
            cls = getattr(self.modules[short], cls_name)
            func = cls.__dict__[meth].__func__
            self._rebind(cls, meth, classmethod(self._wrap(f"{short}.{cls_name}.{meth}", func)))
        # The criteria tuple captured the functions before the wrapping.
        acceptance = self.modules.get("acceptance")
        if acceptance is not None:
            criteria = tuple(replaced.get(id(f), f) for f in acceptance.ALL_CRITERIA)
            self._rebind(acceptance, "ALL_CRITERIA", criteria)

    def restore(self) -> None:
        while self._saved:
            owner, attr, value = self._saved.pop()
            setattr(owner, attr, value)

    def __enter__(self) -> "Tracer":
        return self.install()

    def __exit__(self, *exc) -> None:
        self.restore()

    # -- results -------------------------------------------------------------

    def report(self) -> dict:
        """Per-function aggregates: calls, total and self seconds; plus the
        call counts of count-only functions and the work counters."""
        selfs = self_times(self.span_parent, self.span_start, self.span_end)
        funcs = {name: {"calls": 0, "total_s": 0.0, "self_s": 0.0} for name in self.names}
        for i, name_id in enumerate(self.span_name):
            agg = funcs[self.names[name_id]]
            agg["calls"] += 1
            agg["total_s"] += self.span_end[i] - self.span_start[i]
            agg["self_s"] += selfs[i]
        for name, n in self.calls.items():
            funcs[name] = {"calls": n}
        return {
            "functions": funcs,
            "work": dict(self.work),
            "work_metrics": list(WORK_METRICS),
            "spans": len(self.span_start),
        }

    def write_spans(self, path) -> None:
        """Dump the raw spans as JSON: a name table and four parallel lists."""
        with open(path, "w") as fh:
            json.dump(
                {
                    "names": self.names,
                    "name": self.span_name.tolist(),
                    "parent": self.span_parent.tolist(),
                    "start": self.span_start.tolist(),
                    "end": self.span_end.tolist(),
                },
                fh,
            )
