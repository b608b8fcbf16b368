"""Timing wrappers around the public functions of srqkd's layer modules.

A traced run replaces every public function of the layer modules, plus the
attack objective ``attack._information_curve``, with a wrapper that records
a span (name, start, end, parent, item). The wrapper is installed at every
binding of the function in every loaded ``srqkd`` module, because the
package imports names (``from .attack import maximize_eve_information``)
rather than modules. Spans stay in memory and are written when the run
ends; the per-layer metrics are derived from them.
"""

from __future__ import annotations

import functools
import importlib
import inspect
import sys
from array import array
from collections import Counter
from pathlib import Path
from time import perf_counter

import numpy as np

LAYERS = ("physics", "attack", "rates", "optimize", "sweeps", "simulation",
          "discrimination", "cli")
OBJECTIVE = "attack._information_curve"
MAXIMIZER = "attack.maximize_eve_information"
# Bytes the seed's sampler allocates per pulse under the default discard
# policy: 9 float64 and 13 boolean arrays of block length (10 and 14 under
# soft filtering). Computed from array sizes, not measured traffic.
SAMPLER_BYTES_PER_PULSE = {"none": 9 * 8 + 13, "beam-split": 9 * 8 + 13,
                           "soft-filter": 10 * 8 + 14}


class Tracer:
    def __init__(self):
        self.names: list[str] = []
        self.name = array("i")
        self.parent = array("i")
        self.item = array("i")
        self.start = array("d")
        self.end = array("d")
        self.current = -1
        self.item_id = -1
        self.counts = Counter()
        self.absent: list[str] = []
        self._maximizer_id = -2
        self._restore: list[tuple[object, str, object]] = []

    # -- installation -----------------------------------------------------

    def install(self) -> None:
        targets = {}
        for layer in LAYERS:
            try:
                module = importlib.import_module(f"srqkd.{layer}")
            except ImportError:
                self.absent.append(layer)
                continue
            for attr, obj in vars(module).items():
                if (inspect.isfunction(obj) and obj.__module__ == module.__name__
                        and (not attr.startswith("_") or f"{layer}.{attr}" == OBJECTIVE)):
                    targets[obj] = self._wrap(obj, f"{layer}.{attr}")
        if OBJECTIVE not in self.names:
            self.absent.append(OBJECTIVE)
        self._maximizer_id = self.names.index(MAXIMIZER) if MAXIMIZER in self.names else -2
        for modname, module in list(sys.modules.items()):
            if modname != "srqkd" and not modname.startswith("srqkd."):
                continue
            for attr, obj in list(vars(module).items()):
                if inspect.isfunction(obj) and obj in targets:
                    setattr(module, attr, targets[obj])
                    self._restore.append((module, attr, obj))

    def uninstall(self) -> None:
        for module, attr, obj in reversed(self._restore):
            setattr(module, attr, obj)
        self._restore.clear()

    def _wrap(self, fn, qualname: str):
        nid = len(self.names)
        self.names.append(qualname)
        before = getattr(self, "_before_" + qualname.replace(".", "_"), None)
        after = getattr(self, "_after_" + qualname.replace(".", "_"), None)

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            parent = self.current
            idx = len(self.name)
            self.name.append(nid)
            self.parent.append(parent)
            self.item.append(self.item_id)
            self.start.append(0.0)
            self.end.append(0.0)
            self.current = idx
            if before is not None:
                args = before(args)
            t0 = perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                t1 = perf_counter()
                self.start[idx] = t0
                self.end[idx] = t1
                self.current = parent
            if after is not None:
                after(args, kwargs, result)
            return result

        return wrapper

    # -- counters at layer boundaries ----------------------------------------

    def _before_attack__information_curve(self, args):
        # b-values evaluated on behalf of the maximizer (its own span or a
        # golden_max span below it)
        span = self.parent[self.current]
        while span >= 0 and self.name[span] != self._maximizer_id:
            span = self.parent[span]
        if span >= 0:
            self.counts["lanes"] += int(np.size(args[0]))
        return args

    def _before_optimize_golden_max(self, args):
        f = args[0]

        def counted(x):
            self.counts["golden_evals"] += 1
            return f(x)

        return (counted,) + tuple(args[1:])

    def _after_attack_maximize_eve_information(self, args, kwargs, solution):
        self.counts["empty_interval"] += bool(solution.interval_empty)

    def _after_sweeps_evaluate_sr_point(self, args, kwargs, row):
        self.counts["grey"] += "grey-region" in row.flags

    def _after_cli_render_rows(self, args, kwargs, text):
        self.counts["render_bytes"] += len(text.encode())

    def _after_simulation_simulate(self, args, kwargs, result):
        config = args[2] if len(args) > 2 else kwargs["config"]
        self.counts["pulses"] += config.n_pulses
        self.counts["sampler_bytes"] += (config.n_pulses
                                         * SAMPLER_BYTES_PER_PULSE[config.attack.value])

    # -- derived metrics ---------------------------------------------------

    def arrays(self):
        return (np.frombuffer(self.name, dtype=np.intc).astype(np.int64),
                np.frombuffer(self.parent, dtype=np.intc).astype(np.int64),
                np.frombuffer(self.item, dtype=np.intc).astype(np.int64),
                np.frombuffer(self.start, dtype=float),
                np.frombuffer(self.end, dtype=float))

    def layer_table(self) -> dict[str, dict[str, float]]:
        """calls, self_s and inclusive seconds per wrapped function (totals)."""
        name, parent, _, start, end = self.arrays()
        duration = end - start
        nested = parent >= 0
        child = np.bincount(parent[nested], weights=duration[nested], minlength=len(name))
        k = len(self.names)
        calls = np.bincount(name, minlength=k)
        self_s = np.bincount(name, weights=duration - child, minlength=k)
        incl = np.bincount(name, weights=duration, minlength=k)
        return {n: {"calls": int(calls[i]), "self_s": float(self_s[i]),
                    "incl_s": float(incl[i])} for i, n in enumerate(self.names)}

    def under(self, inner: str, outer: str) -> int:
        """Number of ``inner`` spans that have an ``outer`` span among their ancestors."""
        if inner not in self.names or outer not in self.names:
            return 0
        name, parent, _, _, _ = self.arrays()
        target = self.names.index(outer)
        found = np.zeros(len(name), dtype=bool)
        cur = parent.copy()
        while np.any(cur >= 0):
            live = cur >= 0
            found[live] |= name[cur[live]] == target
            cur = np.where(live & ~found, parent[np.maximum(cur, 0)], -1)
        return int(np.count_nonzero(found & (name == self.names.index(inner))))

    def calls_per_item(self, qualname: str, n_items: int) -> np.ndarray:
        if qualname not in self.names:
            return np.zeros(n_items, dtype=np.int64)
        name, _, item, _, _ = self.arrays()
        mask = name == self.names.index(qualname)
        return np.bincount(item[mask], minlength=n_items)

    def write(self, path: Path) -> None:
        name, parent, item, start, end = self.arrays()
        origin = float(start.min()) if len(start) else 0.0
        np.savez_compressed(path, names=np.array(self.names), name=name.astype(np.int32),
                            parent=parent.astype(np.int32), item=item.astype(np.int32),
                            start=start - origin, end=end - origin)
