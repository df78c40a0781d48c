"""In-memory span recorder for the traced benchmark run.

A Tracer wraps library functions from outside the library. Each call of a
wrapped function becomes one span: its layer, its parent span (the nearest
wrapped caller), the request (benchmark task) it belongs to, and its start and
end on the perf_counter clock. Spans live in flat typed arrays, so a pass that
records a million spans costs tens of megabytes, and are written out once, at
the end of the run.

Self time, the span's duration minus the time covered by its child spans, is
accumulated per layer while the spans close.
"""

from __future__ import annotations

import gzip
import time
from array import array


class Tracer:
    def __init__(self):
        self.layers: list[str] = []
        self._layer_ids: dict[str, int] = {}
        self.layer_of = array("H")
        self.parent = array("l")
        self.request = array("l")
        self.start = array("d")
        self.end = array("d")
        self.self_s: list[float] = []
        self.calls: list[int] = []
        self.counters: dict[str, float] = {}
        self.request_id = -1
        self.paused = False
        self._stack: list[list] = []
        self._patches: list[tuple] = []

    def layer_id(self, name: str) -> int:
        lid = self._layer_ids.get(name)
        if lid is None:
            lid = self._layer_ids[name] = len(self.layers)
            self.layers.append(name)
            self.self_s.append(0.0)
            self.calls.append(0)
        return lid

    def count(self, name: str, n: float = 1) -> None:
        self.counters[name] = self.counters.get(name, 0) + n

    def record_max(self, name: str, value: float) -> None:
        self.counters[name] = max(self.counters.get(name, 0), value)

    def begin_request(self, request_id: int) -> None:
        self.request_id = request_id
        # a deadline exception can land inside a wrapper's bookkeeping and
        # leave frames behind; every request starts from an empty stack
        self._stack.clear()

    def wrap(self, layer: str, fn, after=None, on_error=None):
        """Return fn wrapped in a span of the given layer.

        after(tracer, result, args, kwargs) and on_error(tracer, exc) record
        counts; they run with tracing paused, so library calls they make
        leave no spans.
        """
        lid = self.layer_id(layer)
        stack = self._stack
        perf = time.perf_counter
        tracer = self

        def traced(*args, **kwargs):
            if tracer.paused:
                return fn(*args, **kwargs)
            idx = len(tracer.start)
            tracer.layer_of.append(lid)
            tracer.parent.append(stack[-1][0] if stack else -1)
            tracer.request.append(tracer.request_id)
            tracer.start.append(0.0)
            tracer.end.append(0.0)
            frame = [idx, 0.0]
            stack.append(frame)
            t0 = perf()
            try:
                out = fn(*args, **kwargs)
            except BaseException as exc:
                if on_error is not None:
                    tracer.paused = True
                    try:
                        on_error(tracer, exc)
                    finally:
                        tracer.paused = False
                raise
            finally:
                t1 = perf()
                if stack and stack[-1] is frame:
                    stack.pop()
                dur = t1 - t0
                tracer.start[idx] = t0
                tracer.end[idx] = t1
                tracer.self_s[lid] += dur - frame[1]
                tracer.calls[lid] += 1
                if stack:
                    stack[-1][1] += dur
            if after is not None:
                tracer.paused = True
                try:
                    after(tracer, out, args, kwargs)
                finally:
                    tracer.paused = False
            return out

        traced.__wrapped__ = fn
        return traced

    def patch(self, owner, attr: str, wrapper) -> None:
        self._patches.append((owner, attr, getattr(owner, attr)))
        setattr(owner, attr, wrapper)

    def uninstall(self) -> None:
        for owner, attr, original in reversed(self._patches):
            setattr(owner, attr, original)
        self._patches.clear()

    def __len__(self) -> int:
        return len(self.start)

    def outermost_time(self, layer_names) -> float:
        """Summed duration of spans in the given layers that have no ancestor in them."""
        wanted = {self._layer_ids[n] for n in layer_names if n in self._layer_ids}
        inside = bytearray(len(self.start))
        total = 0.0
        layer_of, parent, start, end = self.layer_of, self.parent, self.start, self.end
        for i in range(len(start)):
            p = parent[i]
            covered = p >= 0 and (inside[p] or layer_of[p] in wanted)
            if covered:
                inside[i] = 1
            elif layer_of[i] in wanted:
                total += end[i] - start[i]
        return total

    def child_count(self, child: str, parent: str) -> int:
        """Number of spans of layer child whose direct parent is a span of layer parent."""
        if child not in self._layer_ids or parent not in self._layer_ids:
            return 0
        c, p = self._layer_ids[child], self._layer_ids[parent]
        layer_of, par = self.layer_of, self.parent
        return sum(
            1 for i in range(len(par)) if layer_of[i] == c and par[i] >= 0 and layer_of[par[i]] == p
        )

    def write(self, path) -> None:
        """Write every span as tab-separated text: id, parent, request, layer, start, end."""
        with gzip.open(path, "wt", compresslevel=1, encoding="ascii") as fh:
            fh.write("id\tparent\trequest\tlayer\tstart_s\tend_s\n")
            layers = self.layers
            for i in range(len(self.start)):
                fh.write(
                    f"{i}\t{self.parent[i]}\t{self.request[i]}\t{layers[self.layer_of[i]]}"
                    f"\t{self.start[i]:.9f}\t{self.end[i]:.9f}\n"
                )
