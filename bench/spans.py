"""In-memory span recorder for the benchmark's traced runs.

A span is (name, start, end, parent, op id).  Spans come from wrappers the
benchmark installs, in its own process, over the public functions of the
``transbound`` modules; the program's source is not instrumented.  A span
is named ``<layer>.<function>``, where the layer is the module that defines
the function, so cross-module calls made inside the library (``transduce``
calling ``epsilon_star``, ``validation`` calling ``det_bound``) nest under
their caller.  The benchmark's own per-op root spans use the layer
``bench``; their self time is benchmark code between layer calls.

Spans are kept in flat arrays (a traced ``mc_validity`` run records about
700 000 of them) and written to disk only when the run ends.
"""

from array import array
from contextlib import contextmanager
import functools
import time
import types

import numpy as np


class Tracer:
    """Records nested spans; ``install`` wraps module functions, ``uninstall`` restores them."""

    def __init__(self):
        self.names: list[str] = []
        self._name_ids: dict[str, int] = {}
        self.name = array("i")
        self.start = array("d")
        self.end = array("d")
        self.parent = array("i")
        self.op = array("i")
        self._stack: list[int] = []
        self._wrappers: dict[int, types.FunctionType] = {}
        self._patched: list[tuple[object, str, object]] = []
        self.current_op = -1

    def _open(self, name_id: int) -> int:
        idx = len(self.start)
        self.name.append(name_id)
        self.parent.append(self._stack[-1] if self._stack else -1)
        self.op.append(self.current_op)
        self.end.append(0.0)
        self._stack.append(idx)
        self.start.append(time.perf_counter())
        return idx

    def _close(self, idx: int) -> None:
        self.end[idx] = time.perf_counter()
        self._stack.pop()

    def name_id(self, name: str) -> int:
        if name not in self._name_ids:
            self._name_ids[name] = len(self.names)
            self.names.append(name)
        return self._name_ids[name]

    @contextmanager
    def span(self, name: str):
        idx = self._open(self.name_id(name))
        try:
            yield
        finally:
            self._close(idx)

    def _wrap(self, fn):
        wrapper = self._wrappers.get(id(fn))
        if wrapper is not None:
            return wrapper
        name_id = self.name_id(f"{fn.__module__.rsplit('.', 1)[-1]}.{fn.__name__}")
        open_, close = self._open, self._close

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            idx = open_(name_id)
            try:
                return fn(*args, **kwargs)
            finally:
                close(idx)

        traced.__wrapped_by_bench__ = True
        self._wrappers[id(fn)] = traced
        return traced

    def patch(self, module, attr: str) -> None:
        """Replace ``module.attr`` by a span-recording wrapper of the same function."""
        fn = getattr(module, attr)
        self._patched.append((module, attr, fn))
        setattr(module, attr, self._wrap(fn))

    def install(self, modules) -> None:
        """Wrap every public function defined in ``transbound`` wherever a module binds it."""
        for module in modules:
            for attr, value in list(vars(module).items()):
                if (isinstance(value, types.FunctionType) and not attr.startswith("_")
                        and value.__module__.startswith("transbound.")
                        and not getattr(value, "__wrapped_by_bench__", False)):
                    self.patch(module, attr)

    def uninstall(self) -> None:
        for module, attr, fn in reversed(self._patched):
            setattr(module, attr, fn)
        self._patched.clear()

    def arrays(self) -> dict[str, np.ndarray]:
        return {
            "name": np.frombuffer(self.name, dtype=np.int32).copy(),
            "start": np.frombuffer(self.start, dtype=np.float64).copy(),
            "end": np.frombuffer(self.end, dtype=np.float64).copy(),
            "parent": np.frombuffer(self.parent, dtype=np.int32).copy(),
            "op": np.frombuffer(self.op, dtype=np.int32).copy(),
        }

    def _self_times(self, a: dict[str, np.ndarray]) -> np.ndarray:
        dur = a["end"] - a["start"]
        has_parent = a["parent"] >= 0
        child = np.bincount(a["parent"][has_parent], weights=dur[has_parent],
                            minlength=len(dur))
        return dur - child

    def totals(self) -> dict[str, dict[str, float]]:
        """Per span name: call count, inclusive time and self time (seconds)."""
        a = self.arrays()
        n_names = len(self.names)
        dur = a["end"] - a["start"]
        self_time = self._self_times(a)
        calls = np.bincount(a["name"], minlength=n_names)
        incl = np.bincount(a["name"], weights=dur, minlength=n_names)
        excl = np.bincount(a["name"], weights=self_time, minlength=n_names)
        return {
            name: {"calls": int(calls[i]), "total_s": float(incl[i]), "self_s": float(excl[i])}
            for i, name in enumerate(self.names)
        }

    def layer_self_by_op(self, n_ops: int) -> dict[str, list[float]]:
        """Self time per layer (the span name before the first dot) and op, in seconds."""
        a = self.arrays()
        layers = sorted({name.split(".", 1)[0] for name in self.names})
        layer_of_name = np.array([layers.index(name.split(".", 1)[0]) for name in self.names],
                                 dtype=np.int64)
        cell = layer_of_name[a["name"]] * n_ops + a["op"]
        grid = np.bincount(cell, weights=self._self_times(a), minlength=len(layers) * n_ops)
        return {layer: grid[i * n_ops:(i + 1) * n_ops].tolist() for i, layer in enumerate(layers)}

    def dump(self, path) -> None:
        np.savez(path, names=np.array(self.names), **self.arrays())
