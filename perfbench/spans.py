"""In-memory span recording for the traced benchmark run.

The traced run wraps the package's public entry points from outside (the
package itself is not edited): every wrapped call records one span holding a
name, start, end, parent span and op id.  Spans live in flat arrays and are
written out once, when the run ends.  Each layer's self time is its spans'
duration minus the part covered by their child spans.

Work counts (products, term pairs, ideal cells, ...) are recorded at the same
boundaries by small hooks that run after the wrapped call returns.
"""

from __future__ import annotations

import json
from array import array
from collections import defaultdict
from contextlib import contextmanager, nullcontext
from time import perf_counter

HOOK_SPAN = "trace.hook"


class NullTracer:
    """Stands in for the tracer in untraced passes: records nothing."""

    def span(self, name):
        return nullcontext()

    def begin_op(self, pass_index):
        pass

    def count(self, key, n=1):
        pass

    def paused(self):
        return nullcontext()


NULL = NullTracer()


class Tracer:
    """Span store plus the wrappers that feed it."""

    def __init__(self):
        self.names = []
        self._name_ids = {}
        self.sid = array("q")
        self.name = array("q")
        self.start = array("d")
        self.end = array("d")
        self.parent = array("q")
        self.op = array("q")
        self.stack = []
        self.next_id = 0
        self.op_id = -1
        self.op_pass = {}
        self.is_paused = False
        self.counts = defaultdict(int)
        self._patches = []
        self._depth_cells = {}

    # -- recording ---------------------------------------------------------------

    def name_id(self, name):
        nid = self._name_ids.get(name)
        if nid is None:
            nid = self._name_ids[name] = len(self.names)
            self.names.append(name)
        return nid

    def _close(self, sid, nid, parent, t0, t1):
        self.sid.append(sid)
        self.name.append(nid)
        self.start.append(t0)
        self.end.append(t1)
        self.parent.append(parent)
        self.op.append(self.op_id)

    @contextmanager
    def span(self, name):
        nid = self.name_id(name)
        stack = self.stack
        sid = self.next_id
        self.next_id += 1
        parent = stack[-1] if stack else -1
        stack.append(sid)
        t0 = perf_counter()
        try:
            yield
        finally:
            t1 = perf_counter()
            stack.pop()
            self._close(sid, nid, parent, t0, t1)

    def begin_op(self, pass_index):
        self.op_id += 1
        self.op_pass[self.op_id] = pass_index

    def count(self, key, n=1):
        self.counts[key] += n

    @contextmanager
    def paused(self):
        """Let wrapped calls through unrecorded (used around output checks)."""
        before = self.is_paused
        self.is_paused = True
        try:
            yield
        finally:
            self.is_paused = before

    # -- wrapping ----------------------------------------------------------------

    def wrap(self, name, fn, hook=None, guard=False, hook_span=False):
        """A traced stand-in for ``fn``.

        ``hook(tracer, args, kwargs, result)`` records work counts after the
        call.  With ``guard`` a call made while a span of the same name is
        open passes straight through, so a recursive function yields one span
        per outermost call.  ``hook_span`` times the hook in its own span so
        that its cost is not charged to the enclosing layer.
        """
        nid = self.name_id(name)
        hook_nid = self.name_id(HOOK_SPAN)
        tracer = self
        stack = self.stack
        depth = self._depth_cells.setdefault(nid, [0])

        def traced(*args, **kwargs):
            if tracer.is_paused or (guard and depth[0]):
                return fn(*args, **kwargs)
            sid = tracer.next_id
            tracer.next_id += 1
            parent = stack[-1] if stack else -1
            stack.append(sid)
            depth[0] += 1
            t0 = perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                t1 = perf_counter()
                depth[0] -= 1
                stack.pop()
                tracer._close(sid, nid, parent, t0, t1)
            if hook is not None:
                if hook_span:
                    hsid = tracer.next_id
                    tracer.next_id += 1
                    h0 = perf_counter()
                    hook(tracer, args, kwargs, result)
                    tracer._close(hsid, hook_nid, parent, h0, perf_counter())
                else:
                    hook(tracer, args, kwargs, result)
            return result

        traced.__wrapped__ = fn
        traced.__name__ = getattr(fn, "__name__", name)
        return traced

    def patch_function(self, fn, name, modules, **opts):
        """Replace every binding of ``fn`` in the given modules."""
        wrapped = self.wrap(name, fn, **opts)
        for module in modules:
            for attr, value in list(vars(module).items()):
                if value is fn:
                    self._patches.append((module, attr, value))
                    setattr(module, attr, wrapped)

    def patch_method(self, cls, attr, name, **opts):
        original = cls.__dict__[attr]
        self._patches.append((cls, attr, original))
        if isinstance(original, classmethod):
            wrapped = classmethod(self.wrap(name, original.__func__, **opts))
        else:
            wrapped = self.wrap(name, original, **opts)
        setattr(cls, attr, wrapped)

    def unpatch(self):
        for owner, attr, original in reversed(self._patches):
            setattr(owner, attr, original)
        self._patches.clear()

    # -- analysis ----------------------------------------------------------------

    def __len__(self):
        return len(self.sid)

    def spans_in_pass(self, pass_index):
        return sum(1 for op in self.op if self.op_pass.get(op) == pass_index)

    def self_times(self):
        """{(pass index, span name): self seconds} and top-level seconds per pass."""
        child = defaultdict(float)
        for i in range(len(self.sid)):
            parent = self.parent[i]
            if parent >= 0:
                child[parent] += self.end[i] - self.start[i]
        by_layer = defaultdict(float)
        top = defaultdict(float)
        for i in range(len(self.sid)):
            duration = self.end[i] - self.start[i]
            pass_index = self.op_pass.get(self.op[i], -1)
            key = (pass_index, self.names[self.name[i]])
            by_layer[key] += duration - child.get(self.sid[i], 0.0)
            if self.parent[i] < 0:
                top[pass_index] += duration
        return by_layer, top

    def write(self, path):
        """Spans as JSON rows [id, name, start_us, end_us, parent, op], times in
        integer microseconds from the first span; streamed, one row per line."""
        origin = min(self.start) if self.start else 0.0
        header = {
            "names": self.names,
            "columns": ["id", "name", "start_us", "end_us", "parent", "op"],
            "op_pass": {str(k): v for k, v in self.op_pass.items()},
        }
        with open(path, "w", encoding="utf-8") as fh:
            fh.write(json.dumps(header)[:-1] + ', "spans": [\n')
            for i in range(len(self.sid)):
                row = (
                    self.sid[i],
                    self.name[i],
                    round((self.start[i] - origin) * 1e6),
                    round((self.end[i] - origin) * 1e6),
                    self.parent[i],
                    self.op[i],
                )
                fh.write(("," if i else "") + json.dumps(row) + "\n")
            fh.write("]}\n")
