"""Span tracer for the fewcast benchmark's traced runs.

fewcast modules bind each other with ``from .x import y``, so a function is
wrapped in every namespace that holds it (``fewcast.meta.gradient``,
``fewcast.learners.pairs_to_arrays``, ``fewcast.search.evaluate_pipeline``,
...), not only where it is defined. Each call becomes a span with a name
(``<defining module>.<function>``), start, end, parent span and evaluation
id. Spans stay in memory as flat arrays and are written out once, by
:meth:`Tracer.save`, when the run ends.

Self time (a span's duration minus the time of its child spans) and call
counts are aggregated as spans close, so the shares need no second pass.
"""

from __future__ import annotations

import functools
import gzip
import importlib
import json
import pkgutil
import types
from array import array
from pathlib import Path
from time import perf_counter

# A span with one of these names opens a new evaluation unless one is open:
# one search iteration, or one seed of ``train`` (meta or vanilla).
EVAL_BOUNDARIES = frozenset({"meta.evaluate_pipeline", "meta.train_pipeline", "meta.train_vanilla"})
PACKAGE = "fewcast"


class Tracer:
    def __init__(self):
        self.names: list[str] = []
        self._name_ids: dict[str, int] = {}
        self.name_id = array("i")
        self.start = array("d")
        self.end = array("d")
        self.parent = array("i")
        self.eval_id = array("i")
        self.n_evals = 0
        self.calls: dict[str, int] = {}
        self.self_s: dict[str, float] = {}
        self._stack: list[list] = []  # [span index, child seconds]
        self._current_eval = -1
        self._patches: list[tuple[object, str, object]] = []

    def wrap(self, fn, name: str):
        if name not in self._name_ids:
            self._name_ids[name] = len(self.names)
            self.names.append(name)
            self.calls[name] = 0
            self.self_s[name] = 0.0
        name_id = self._name_ids[name]
        opens_eval = name in EVAL_BOUNDARIES
        tracer = self

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            stack = tracer._stack
            opened = opens_eval and tracer._current_eval < 0
            if opened:
                tracer._current_eval = tracer.n_evals
                tracer.n_evals += 1
            index = len(tracer.start)
            tracer.name_id.append(name_id)
            tracer.parent.append(stack[-1][0] if stack else -1)
            tracer.eval_id.append(tracer._current_eval)
            tracer.end.append(0.0)
            frame = [index, 0.0]
            stack.append(frame)
            start = perf_counter()
            tracer.start.append(start)
            try:
                return fn(*args, **kwargs)
            finally:
                end = perf_counter()
                tracer.end[index] = end
                stack.pop()
                duration = end - start
                tracer.calls[name] += 1
                tracer.self_s[name] += duration - frame[1]
                if stack:
                    stack[-1][1] += duration
                if opened:
                    tracer._current_eval = -1

        return traced

    def install(self) -> None:
        """Wrap every public module-level function of the fewcast modules
        in every module namespace that binds it."""
        package = importlib.import_module(PACKAGE)
        for info in pkgutil.iter_modules(package.__path__):
            if info.name == "__main__":  # importing it runs the CLI
                continue
            module = importlib.import_module(f"{PACKAGE}.{info.name}")
            for attr, obj in list(vars(module).items()):
                if (
                    attr.startswith("_")
                    or not isinstance(obj, types.FunctionType)
                    or not obj.__module__.startswith(PACKAGE + ".")
                ):
                    continue
                span = f"{obj.__module__.rsplit('.', 1)[-1]}.{obj.__name__}"
                self._patches.append((module, attr, obj))
                setattr(module, attr, self.wrap(obj, span))

    def uninstall(self) -> None:
        for module, attr, original in reversed(self._patches):
            setattr(module, attr, original)
        self._patches.clear()

    def save(self, path: Path) -> None:
        """Write all spans as one gzipped JSON document of parallel columns."""
        payload = {
            "names": self.names,
            "name_id": self.name_id.tolist(),
            "start": self.start.tolist(),
            "end": self.end.tolist(),
            "parent": self.parent.tolist(),
            "eval_id": self.eval_id.tolist(),
        }
        path.parent.mkdir(parents=True, exist_ok=True)
        with gzip.open(path, "wt", compresslevel=1) as fh:
            json.dump(payload, fh, separators=(",", ":"))
