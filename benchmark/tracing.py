"""Span recording for the traced pass, from outside the library.

Layer spans wrap calls into the library's public functions; leaf spans wrap
each problem's oracles (``value``, ``grad_x``/``grad_y``) and its feasible
sets' ``project``.  A layer span is ``{name, start, end, parent, run}``;
leaf spans are kept as flat ``start, end`` arrays grouped by the layer span
that was open when they ran, so they cost 16 bytes each.  Everything stays
in memory until ``dump`` writes it out.
"""

from __future__ import annotations

import contextlib
import copy
import dataclasses
import json
from array import array
from pathlib import Path
from time import perf_counter

import numpy as np

NO_PARENT = -1  # parent id of top-level spans


class Tracer:
    def __init__(self):
        self.spans: list[dict] = []
        self.leaves: dict[tuple[int, str], array] = {}
        self._stack: list[int] = []
        self._bufs: dict[str, array] = {}  # leaf buffers of the innermost span
        self._run_of: dict[int, int] = {}  # id(problem or trace) -> run id
        self._last_run = None

    # -- layer spans ------------------------------------------------------

    def layer(self, name, fn, annotate=None):
        """Wrap ``fn`` so each call records a span named ``name``.

        ``annotate(span, args, result)`` may add counts to the span.
        """
        def call(*args, **kwargs):
            run = self._run_id(args)
            sid = len(self.spans)
            span = {"name": name, "start": 0.0, "end": 0.0,
                    "parent": self._stack[-1] if self._stack else NO_PARENT, "run": run}
            self.spans.append(span)
            self._stack.append(sid)
            outer, self._bufs = self._bufs, {}
            span["start"] = perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                span["end"] = perf_counter()
                for leaf, buf in self._bufs.items():
                    self.leaves[(sid, leaf)] = buf
                self._bufs = outer
                self._stack.pop()
            if annotate is not None:
                annotate(span, args, result)
            if run is not None and result is not None:
                self._run_of[id(result)] = run
            return result
        return call

    def _run_id(self, args):
        for a in args:
            run = self._run_of.get(id(a))
            if run is not None:
                self._last_run = run
                return run
        return self._last_run

    @contextlib.contextmanager
    def patched(self, module, annotations):
        """Route the module's own calls to the named functions through spans."""
        saved = {name: getattr(module, name) for name in annotations}
        try:
            for name, annotate in annotations.items():
                setattr(module, name, self.layer(name, saved[name], annotate))
            yield
        finally:
            for name, fn in saved.items():
                setattr(module, name, fn)

    # -- leaf spans -------------------------------------------------------

    def leaf(self, name, fn):
        def call(*args):
            t0 = perf_counter()
            out = fn(*args)
            t1 = perf_counter()
            buf = self._bufs.get(name)
            if buf is None:
                buf = self._bufs[name] = array("d")
            buf.append(t0)
            buf.append(t1)
            return out
        return call

    def _leaf_set(self, s):
        wrapped = copy.copy(s)  # same class, so isinstance dispatch still works
        object.__setattr__(wrapped, "project", self.leaf("project", s.project))
        return wrapped

    def wrap_problem(self, problem, run_id):
        """A copy of ``problem`` whose oracle and projection calls are leaf spans."""
        wrapped = dataclasses.replace(
            problem,
            value=self.leaf("value", problem.value),
            grad_x=self.leaf("grad", problem.grad_x),
            grad_y=self.leaf("grad", problem.grad_y),
            X=self._leaf_set(problem.X), Y=self._leaf_set(problem.Y))
        self._run_of[id(wrapped)] = run_id
        return wrapped

    # -- read-out ---------------------------------------------------------

    def finish(self):
        """File leaf calls made outside any layer span under NO_PARENT."""
        for leaf, buf in self._bufs.items():
            self.leaves[(NO_PARENT, leaf)] = buf
        self._bufs = {}

    def leaf_stats(self, sid, leaf):
        """(calls, seconds) of one leaf kind directly under span ``sid``."""
        buf = self.leaves.get((sid, leaf))
        if buf is None:
            return 0, 0.0
        a = np.frombuffer(buf, dtype=float).reshape(-1, 2)
        return len(a), float(np.sum(a[:, 1] - a[:, 0]))

    def dump(self, path):
        """Write layer spans as JSON and leaf spans as one .npz array per group."""
        path = Path(path)
        path.with_suffix(".json").write_text(json.dumps(self.spans) + "\n")
        groups = {f"{sid}.{leaf}": np.frombuffer(buf, dtype=float).reshape(-1, 2)
                  for (sid, leaf), buf in self.leaves.items()}
        np.savez(path.with_suffix(".npz"), **groups)
