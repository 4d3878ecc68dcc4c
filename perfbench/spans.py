"""In-memory span recorder that wraps qcomm's module attributes.

qcomm looks its layer functions up as module attributes at call time
(solver calls ``poly.roots``, ``algebra.from_diag_coords`` and its own
``build_scalar_polys`` through its module globals), so replacing those
attributes times each layer without editing the package. A span is
(name, start, end, parent id, operation id); self time is a span's duration
minus that of its direct children.
"""

import json
import time
from collections import defaultdict


class Tracer:
    def __init__(self):
        self.spans = []
        self.stack = []
        self.op = -1
        self.counts = defaultdict(float)  # (op, name) -> value
        self._patches = []

    def add_count(self, name, value=1.0):
        self.counts[(self.op, name)] += value

    def _open(self, name):
        sid = len(self.spans)
        parent = self.stack[-1] if self.stack else -1
        self.spans.append([name, time.perf_counter(), 0.0, parent, self.op])
        self.stack.append(sid)
        return sid

    def _close(self, sid):
        self.spans[sid][2] = time.perf_counter()
        self.stack.pop()

    def patch(self, module, attr, name, on_call=None):
        """Register module.attr for wrapping. name is the span name, or a
        function of the call's positional arguments that returns it;
        on_call(tracer, args, result) records counts from each call."""
        self._patches.append((module, attr, name, on_call, getattr(module, attr)))

    def install(self):
        for module, attr, name, on_call, fn in self._patches:
            setattr(module, attr, self._wrapper(name, fn, on_call))

    def uninstall(self):
        for module, attr, _, _, fn in self._patches:
            setattr(module, attr, fn)

    def _wrapper(self, name, fn, on_call):
        def traced(*args, **kwargs):
            sid = self._open(name if isinstance(name, str) else name(args))
            try:
                result = fn(*args, **kwargs)
            finally:
                self._close(sid)
            if on_call is not None:
                on_call(self, args, result)
            return result

        return traced

    def per_op(self):
        """{op: {name: [inclusive_s, self_s, calls]}} from the recorded spans."""
        child = [0.0] * len(self.spans)
        for name, t0, t1, parent, op in self.spans:
            if parent >= 0:
                child[parent] += t1 - t0
        out = defaultdict(lambda: defaultdict(lambda: [0.0, 0.0, 0]))
        for sid, (name, t0, t1, parent, op) in enumerate(self.spans):
            row = out[op][name]
            row[0] += t1 - t0
            row[1] += t1 - t0 - child[sid]
            row[2] += 1
        return out

    def write(self, path, meta):
        """Write every span and count as one JSON document."""
        names = sorted({s[0] for s in self.spans})
        code = {n: i for i, n in enumerate(names)}
        doc = {
            "meta": meta,
            "names": names,
            "columns": ["name", "start_s", "end_s", "parent", "op"],
            "spans": [[code[n], t0, t1, p, op] for n, t0, t1, p, op in self.spans],
            "counts": [[op, name, v] for (op, name), v in sorted(self.counts.items())],
        }
        with open(path, "w", encoding="utf-8") as fh:
            json.dump(doc, fh, separators=(",", ":"))
