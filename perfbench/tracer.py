"""Spans around the package's layer boundaries, recorded from outside.

``Tracer.install`` replaces each traced function with a wrapper in
every ``planecolor`` module that holds a reference to it, so calls
between modules (``reducer`` calling ``iter_matches``, ``audit``
calling ``detect``) pass through the wrapper too.  ``uninstall`` puts
the originals back.  A span is ``[name, start, end, parent, graph,
child_time, failed]``; its self time is ``end - start - child_time``.
Spans stay in memory until ``write``.
"""

from __future__ import annotations

import functools
import gzip
import json
import sys
from collections import Counter, defaultdict
from time import perf_counter

NAME, START, END, PARENT, GRAPH, CHILD, FAILED = range(7)


class Tracer:
    def __init__(self) -> None:
        self.spans: list[list] = []
        self.counts: Counter = Counter()
        self.graph = -1
        self._stack: list[int] = []
        self._undo: list[tuple[object, str, object]] = []

    # -- recording ----------------------------------------------------

    def _open(self, name: str) -> int:
        parent = self._stack[-1] if self._stack else -1
        self.spans.append([name, perf_counter(), 0.0, parent, self.graph, 0.0, False])
        self._stack.append(len(self.spans) - 1)
        return len(self.spans) - 1

    def _close(self, sid: int, failed: bool = False) -> None:
        end = perf_counter()
        span = self.spans[sid]
        span[END] = end
        span[FAILED] = failed
        self._stack.pop()
        if span[PARENT] >= 0:
            self.spans[span[PARENT]][CHILD] += end - span[START]

    def _call(self, name, fn, after):
        @functools.wraps(fn)
        def traced(*args, **kwargs):
            sid = self._open(name)
            try:
                result = fn(*args, **kwargs)
            except BaseException:
                self._close(sid, failed=True)
                raise
            self._close(sid)
            if after is not None:
                after(self.counts, args, result)
            return result

        return traced

    def _generator(self, name, fn):
        # each resumption of the generator is its own span, so time the
        # caller spends between matches is not charged to detection
        def pull(gen):
            while True:
                sid = self._open(name)
                try:
                    item = next(gen)
                except StopIteration:
                    self._close(sid)
                    return
                except BaseException:
                    self._close(sid, failed=True)
                    raise
                self._close(sid)
                self.counts[name + ".yielded"] += 1
                yield item

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            self.counts[name + ".calls"] += 1
            return pull(fn(*args, **kwargs))

        return traced

    # -- installing ---------------------------------------------------

    def _replace(self, original, wrapped) -> None:
        for mod_name, mod in list(sys.modules.items()):
            if mod_name != "planecolor" and not mod_name.startswith("planecolor."):
                continue
            for attr, value in list(vars(mod).items()):
                if value is original:
                    self._undo.append((mod, attr, value))
                    setattr(mod, attr, wrapped)

    def install(self, pc) -> None:
        """Wrap the layer boundaries of the imported package ``pc``."""
        from planecolor import _kernels, configurations, discharging
        from planecolor import exact_solver, reducer

        def darts(counts, args, _result):
            counts["darts"] += 2 * args[0].m

        def transfers(counts, _args, result):
            counts["transfers"] += result["transfers"]

        def nodes(counts, _args, result):
            counts["nodes"] += int(result[2])

        init = pc.PlaneGraph.__init__
        self._undo.append((pc.PlaneGraph, "__init__", init))
        pc.PlaneGraph.__init__ = self._call("PlaneGraph.__init__", init, darts)

        self._replace(
            configurations.iter_matches,
            self._generator("iter_matches", configurations.iter_matches),
        )
        plain = [
            (configurations.detect, None),
            (reducer.color16, None),
            (reducer.apply, None),
            (reducer.is_proper_wrt, None),
            (reducer.extend, None),
            (pc.validate, None),
            (discharging.audit, transfers),
            (exact_solver.chi2_exact, None),
            (exact_solver.color_with_k, None),
            (_kernels.solve_k_coloring, nodes),
        ]
        for fn, after in plain:
            self._replace(fn, self._call(fn.__name__, fn, after))

    def uninstall(self) -> None:
        for owner, attr, value in reversed(self._undo):
            setattr(owner, attr, value)
        self._undo.clear()

    # -- results ------------------------------------------------------

    def self_times(self) -> defaultdict:
        """Seconds of self time per span name; 0.0 for names never seen."""
        out: defaultdict = defaultdict(float)
        for s in self.spans:
            out[s[NAME]] += s[END] - s[START] - s[CHILD]
        return out

    def calls(self, name: str, failed: bool | None = None) -> int:
        return sum(
            1
            for s in self.spans
            if s[NAME] == name and (failed is None or s[FAILED] == failed)
        )

    def write(self, path) -> None:
        """All spans as gzipped JSON, one object per span."""
        keys = ("name", "start", "end", "parent", "graph", "child_s", "failed")
        with gzip.open(path, "wt") as fh:
            for sid, s in enumerate(self.spans):
                fh.write(json.dumps({"id": sid, **dict(zip(keys, s))}) + "\n")
