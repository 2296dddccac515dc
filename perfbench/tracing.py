"""Span tracing of the permstats layers, from outside the package.

`Tracer` wraps every public function of each layer module (the names in its
`__all__`), plus the constructors of `Permutation` and `CycleWithStart` and
the comparison operators of `ProductValue`.  A wrapper is patched into every
module namespace that holds the original object, because the package looks
names up where it imported them (`cli` imports `spread` by name,
`find_improvement` finds `classify_jumps` in the `cycles` globals).

Each call records a span: name, start, end and parent span.  A call whose
parent span has the same name (an operator delegating to another) folds into
the parent.  Spans stay in memory until `save`; `summary` gives per-name call
counts, inclusive time and self time (duration minus direct children).
"""

from __future__ import annotations

import functools
import inspect
import math
import time
import types
from array import array
from collections import defaultdict
from pathlib import Path
from typing import Any, Callable

import numpy as np

LAYERS = ("core", "extremal", "stretch", "cycles", "oracle", "sampling", "cli")

# class name -> (span name, methods); classes have no `__all__` functions to wrap.
_CLASS_SPANS = {
    "Permutation": ("core.perm_build", ("__init__",)),
    "CycleWithStart": ("cycles.cycle_build", ("__init__",)),
    "ProductValue": ("stretch.pv_compare", ("__eq__", "__lt__", "__le__", "__gt__", "__ge__")),
}


def _bound(fn: Callable[..., Any]) -> Callable[..., dict[str, Any]]:
    """Arguments of a call to fn by parameter name, defaults filled in."""
    sig = inspect.signature(fn)

    def bind(*args: Any, **kwargs: Any) -> dict[str, Any]:
        b = sig.bind(*args, **kwargs)
        b.apply_defaults()
        return b.arguments

    return bind


def _hooks(counts: dict[str, float]) -> dict[str, Callable[..., Callable[..., str | None]]]:
    """Per-function hooks that count work and may rename the span."""

    def displacement_sums(fn):
        bind = _bound(fn)

        def hook(*args, **kwargs):
            a = bind(*args, **kwargs)
            counts[f"sampling.n{a['n']}.trials"] += a["trials"]
            return f"sampling.n{a['n']}.displacement_sums"

        return hook

    def enumerated(fn):
        bind = _bound(fn)

        def hook(*args, **kwargs):
            a = bind(*args, **kwargs)
            cycles = a.get("statistic") == "cycle-stat"
            counts["oracle.perms_enumerated"] += math.factorial(a["n"] - 1 if cycles else a["n"])
            return None

        return hook

    return {
        "sampling.displacement_sums": displacement_sums,
        "oracle.brute_argmax": enumerated,
        "oracle.brute_average_displacement": enumerated,
    }


class Tracer:
    """Records spans around calls into the package's layers while installed."""

    def __init__(self, package: types.ModuleType) -> None:
        self.names: list[str] = []
        self._ids: dict[str, int] = {}
        self.name_ids = array("i")
        self.parents = array("i")
        self.starts = array("d")
        self.ends = array("d")
        self._stack: list[int] = []
        self.counts: dict[str, float] = defaultdict(float)
        self._patches: list[tuple[Any, str, Any, Any]] = []
        self._build(package)

    def _intern(self, name: str) -> int:
        nid = self._ids.get(name)
        if nid is None:
            nid = self._ids[name] = len(self.names)
            self.names.append(name)
        return nid

    def _wrap(self, fn: Callable[..., Any], name: str, hook=None) -> Callable[..., Any]:
        static = self._intern(name)
        intern, stack, clock = self._intern, self._stack, time.perf_counter
        ids, parents, starts, ends = self.name_ids, self.parents, self.starts, self.ends

        def wrapper(*args: Any, **kwargs: Any) -> Any:
            nid = static
            if hook is not None:
                label = hook(*args, **kwargs)
                if label is not None:
                    nid = intern(label)
            parent = stack[-1] if stack else -1
            if parent >= 0 and ids[parent] == nid:
                return fn(*args, **kwargs)
            i = len(ids)
            ids.append(nid)
            parents.append(parent)
            ends.append(0.0)
            stack.append(i)
            starts.append(clock())
            try:
                return fn(*args, **kwargs)
            finally:
                ends[i] = clock()
                stack.pop()

        return functools.update_wrapper(wrapper, fn)

    def _build(self, package: types.ModuleType) -> None:
        modules = [package] + [getattr(package, layer) for layer in LAYERS]
        hooks = _hooks(self.counts)
        for layer in LAYERS:
            mod = getattr(package, layer)
            for attr in getattr(mod, "__all__", ()):
                obj = mod.__dict__.get(attr)
                if isinstance(obj, types.FunctionType):
                    name = f"{layer}.{attr}"
                    make_hook = hooks.get(name)
                    wrapped = self._wrap(obj, name, make_hook(obj) if make_hook else None)
                    for m in modules:
                        for key, value in vars(m).items():
                            if value is obj:
                                self._patches.append((m, key, obj, wrapped))
                elif isinstance(obj, type) and attr in _CLASS_SPANS:
                    name, methods = _CLASS_SPANS[attr]
                    for meth in methods:
                        orig = obj.__dict__[meth]
                        self._patches.append((obj, meth, orig, self._wrap(orig, name)))

    def install(self) -> None:
        for target, attr, _, wrapped in self._patches:
            setattr(target, attr, wrapped)

    def uninstall(self) -> None:
        for target, attr, orig, _ in self._patches:
            setattr(target, attr, orig)

    def _arrays(self) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
        ids = np.frombuffer(self.name_ids, dtype=np.intc)
        parents = np.frombuffer(self.parents, dtype=np.intc)
        dur = np.frombuffer(self.ends, dtype=np.float64) - np.frombuffer(
            self.starts, dtype=np.float64
        )
        return ids, parents, dur

    def summary(self) -> dict[str, tuple[int, float, float]]:
        """name -> (calls, inclusive seconds, self seconds) over all spans."""
        ids, parents, dur = self._arrays()
        has_parent = parents >= 0
        child = np.bincount(parents[has_parent], weights=dur[has_parent], minlength=len(dur))
        k = len(self.names)
        calls = np.bincount(ids, minlength=k)
        incl = np.bincount(ids, weights=dur, minlength=k)
        own = np.bincount(ids, weights=dur - child, minlength=k)
        return {
            name: (int(calls[i]), float(incl[i]), float(own[i]))
            for i, name in enumerate(self.names)
            if calls[i]
        }

    def save(self, path: Path) -> None:
        ids, parents, _ = self._arrays()
        np.savez(
            path,
            names=np.array(self.names),
            name_id=ids,
            parent=parents,
            start=np.frombuffer(self.starts, dtype=np.float64),
            end=np.frombuffer(self.ends, dtype=np.float64),
        )
