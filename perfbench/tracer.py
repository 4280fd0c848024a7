"""In-memory span tracer for the benchmark's traced run.

`Tracer.patch` replaces a function of the steiner_spectra package at every
module attribute that binds it (``exact.det_exact`` is also bound as
``resultant.det_exact``, ``harness.det_exact`` and so on), so calls made
through any import path are seen.  Each call records one span: name,
start, end, parent span and the top-level call id the benchmark set.
Spans stay in memory until the run writes them out.  `restore` puts every
original attribute back, so untraced runs execute the unmodified package.
"""

from __future__ import annotations

import functools
import inspect
import sys
import time
from collections import defaultdict
from contextlib import contextmanager

NAME, START, END, PARENT, CALL = range(5)


class Tracer:
    def __init__(self):
        self.spans = []  # [name, start, end, parent index or -1, call id]
        self.calls = defaultdict(int)
        self.counts = defaultdict(int)
        self.call_id = -1
        self._stack = []
        self._patched = []  # (owner, attribute, original), in patch order
        self._marker_depth = 0

    # -- recording ------------------------------------------------------

    def _open(self, name: str) -> int:
        index = len(self.spans)
        parent = self._stack[-1] if self._stack else -1
        self.spans.append([name, time.perf_counter(), 0.0, parent, self.call_id])
        self._stack.append(index)
        return index

    def _close(self, index: int) -> None:
        self.spans[index][END] = time.perf_counter()
        self._stack.pop()

    @contextmanager
    def span(self, name: str):
        index = self._open(name)
        try:
            yield index
        finally:
            self._close(index)

    def enclosing(self, index: int, name: str) -> int:
        """Index of the nearest strict ancestor span called `name`, else -1."""
        p = self.spans[index][PARENT]
        while p >= 0 and self.spans[p][NAME] != name:
            p = self.spans[p][PARENT]
        return p

    # -- wrapping -------------------------------------------------------

    def wrap(self, name: str, fn, hook=None):
        """A transparent stand-in for fn that records a span per call.

        A generator function gets one span per resumption, since its work
        happens while the caller iterates.  `hook(tracer, span, args,
        result)` runs after a plain call returns.
        """
        if inspect.isgeneratorfunction(fn):

            @functools.wraps(fn)
            def gen_wrapper(*args, **kwargs):
                self.calls[name] += 1
                inner = fn(*args, **kwargs)
                while True:
                    index = self._open(name)
                    try:
                        item = next(inner)
                    except StopIteration:
                        return
                    finally:
                        self._close(index)
                    yield item

            return gen_wrapper

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            self.calls[name] += 1
            index = self._open(name)
            try:
                result = fn(*args, **kwargs)
            finally:
                self._close(index)
            if hook is not None:
                hook(self, index, args, result)
            return result

        return wrapper

    def marker(self, fn, hook):
        """A stand-in that records no span; `hook(tracer, outermost, result)`.

        `outermost` is false while another marker's call is still running,
        which tells a route that returned to its caller from one that
        returned inside another route.
        """

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            outermost = self._marker_depth == 0
            self._marker_depth += 1
            try:
                result = fn(*args, **kwargs)
            finally:
                self._marker_depth -= 1
            hook(self, outermost, result)
            return result

        return wrapper

    def patch(self, owner, attr: str, make_wrapper) -> None:
        """Replace owner.attr and every package-module attribute bound to it.

        A class owner is patched on the class alone.  A missing attribute
        is skipped, so the benchmark outlives a renamed or deleted function
        (its metrics then read 0).
        """
        original = vars(owner).get(attr)
        if original is None:
            return
        wrapped = make_wrapper(original)
        if isinstance(owner, type):
            sites = [(owner, attr)]
        else:
            package = owner.__name__.split(".")[0]
            sites = [
                (module, name)
                for mod_name, module in list(sys.modules.items())
                if module is not None
                and (mod_name == package or mod_name.startswith(package + "."))
                for name, value in list(vars(module).items())
                if value is original
            ]
        for site, name in sites:
            self._patched.append((site, name, original))
            setattr(site, name, wrapped)

    def restore(self) -> None:
        while self._patched:
            site, name, original = self._patched.pop()
            setattr(site, name, original)

    # -- aggregation ----------------------------------------------------

    def totals(self) -> tuple[dict, dict]:
        """Per span name: inclusive seconds, and self seconds.

        Self time is a span's duration minus the durations of its direct
        children; children run inside the parent one after another, so
        their intervals never overlap.
        """
        child = [0.0] * len(self.spans)
        for span in self.spans:
            if span[PARENT] >= 0:
                child[span[PARENT]] += span[END] - span[START]
        total = defaultdict(float)
        own = defaultdict(float)
        for i, span in enumerate(self.spans):
            d = span[END] - span[START]
            total[span[NAME]] += d
            own[span[NAME]] += d - child[i]
        return total, own

    def to_json_dict(self) -> dict:
        """Spans with interned names and times relative to the first span."""
        names = sorted({s[NAME] for s in self.spans})
        index = {n: i for i, n in enumerate(names)}
        t0 = self.spans[0][START] if self.spans else 0.0
        return {
            "fields": ["name", "start_s", "end_s", "parent", "call_id"],
            "names": names,
            "spans": [
                [index[s[NAME]], round(s[START] - t0, 7), round(s[END] - t0, 7), s[PARENT], s[CALL]]
                for s in self.spans
            ],
        }
