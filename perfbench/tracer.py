"""In-memory call tracer for the benchmark's traced runs.

The tracer wraps functions at layer boundaries without editing the
package: it replaces the names a module looks up at call time (for
example ``nakayama.classify.verify_thm_gp_socle_sub``) with timing
wrappers and puts the originals back afterwards.  Every wrapped call
adds to per-name totals (calls, inclusive time, time of traced calls
nested inside it), so self time is exact however hot the function is.
Calls to names flagged ``record`` also leave a span (id, name, start,
end, parent) in memory; hot inner functions are aggregated only, since
one span per call would cost more memory than the workload itself.

A name's layer is the text before its first dot, e.g. ``homology`` for
``homology.gpd``.
"""

from __future__ import annotations

import functools
import json
import sys
from time import perf_counter


class Tracer:
    def __init__(self):
        self.t0 = perf_counter()
        self.stats: dict[str, list] = {}  # name -> [calls, total_s, child_s]
        self.spans: list[tuple] = []  # (id, name, start, end, parent id)
        self._stack: list[list] = []  # open frames: [child_s, span id]
        self._undo: list[tuple] = []

    def wrap(self, name: str, fn, record: bool = False):
        stats = self.stats.setdefault(name, [0, 0.0, 0.0])
        stack = self._stack
        spans = self.spans

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            span_id = len(spans) if record else -1
            if record:
                spans.append(None)  # reserve the id; filled on exit
            frame = [0.0, span_id]
            parent = stack[-1][1] if stack else -1
            stack.append(frame)
            start = perf_counter()
            try:
                return fn(*args, **kwargs)
            finally:
                end = perf_counter()
                elapsed = end - start
                stack.pop()
                if stack:
                    stack[-1][0] += elapsed
                stats[0] += 1
                stats[1] += elapsed
                stats[2] += frame[0]
                if record:
                    spans[span_id] = (span_id, name, start - self.t0, end - self.t0, parent)

        return traced

    def call(self, name: str, fn, *args, **kwargs):
        """Run one call under a recorded span, e.g. the workload's root."""
        return self.wrap(name, fn, record=True)(*args, **kwargs)

    def patch(self, name: str, owner, attr: str, record: bool = False, wrapper=None):
        """Replace ``owner.attr`` (a module or class) by a traced version."""
        original = owner.__dict__[attr]
        self._undo.append((owner, attr, original))
        setattr(owner, attr, wrapper or self.wrap(name, original, record))

    def restore(self) -> None:
        while self._undo:
            owner, attr, original = self._undo.pop()
            setattr(owner, attr, original)

    # -- summaries --------------------------------------------------------

    def total(self, name: str) -> float:
        return self.stats.get(name, [0, 0.0, 0.0])[1]

    def calls(self, name: str) -> int:
        return self.stats.get(name, [0, 0.0, 0.0])[0]

    def self_time(self, name: str) -> float:
        calls, total, child = self.stats.get(name, [0, 0.0, 0.0])
        return total - child

    def durations(self, name: str) -> list[float]:
        """Durations of the recorded spans of one name."""
        return [s[3] - s[2] for s in self.spans if s is not None and s[1] == name]

    def layer_self(self) -> dict[str, float]:
        out: dict[str, float] = {}
        for name, (_, total, child) in self.stats.items():
            layer = name.split(".", 1)[0]
            out[layer] = out.get(layer, 0.0) + total - child
        return out

    def dump(self, path: str) -> None:
        """Write every recorded span and the per-name totals as JSON."""
        payload = {
            "spans": [
                {"id": s[0], "name": s[1], "start": s[2], "end": s[3], "parent": s[4]}
                for s in self.spans
                if s is not None
            ],
            "totals": {
                name: {"calls": c, "total_s": t, "self_s": t - ch}
                for name, (c, t, ch) in sorted(self.stats.items())
            },
        }
        with open(path, "w", encoding="utf-8") as fh:
            json.dump(payload, fh)


def module(name: str):
    """The module object itself: ``nakayama.classify`` as an attribute is
    shadowed by the function the package re-exports under that name."""
    __import__(name)
    return sys.modules[name]
